//! Generic modular arithmetic over 256-bit moduli of the form `2^256 - t`.
//!
//! A 512-bit product is reduced by repeatedly folding the high half:
//! `hi·2^256 + lo ≡ hi·t + lo (mod m)`. The curve code uses this only for
//! scalars modulo the group order `n` (one multiplication and one addition
//! per signature); the base field has its own specialised type,
//! [`Fe`](crate::field::Fe), and the tests instantiate this module for `p`
//! as the reference that type is checked against.

use crate::u256::{add_into_512, U256};
use std::sync::OnceLock;

/// Arithmetic context for a modulus of the form `2^256 - t`.
#[derive(Debug, Clone)]
pub struct ModArith {
    /// The modulus.
    pub m: U256,
    /// The fold constant `t = 2^256 - m`.
    t: U256,
}

impl ModArith {
    /// Creates a context. The modulus must have its top bit set (all
    /// secp256k1 moduli do), which bounds the fold constant and guarantees
    /// reduction terminates.
    pub fn new(m: U256) -> Self {
        assert!(m.bit(255), "modulus must be >= 2^255");
        let t = m.wrapping_neg();
        Self { m, t }
    }

    /// Reduces a value below `2^256` into `[0, m)`.
    pub fn reduce(&self, mut v: U256) -> U256 {
        while v >= self.m {
            v = v.overflowing_sub(&self.m).0;
        }
        v
    }

    /// Reduces a 512-bit value (little-endian limbs) into `[0, m)`.
    pub fn reduce512(&self, mut wide: [u64; 8]) -> U256 {
        loop {
            let hi = U256 {
                limbs: [wide[4], wide[5], wide[6], wide[7]],
            };
            let lo = U256 {
                limbs: [wide[0], wide[1], wide[2], wide[3]],
            };
            if hi.is_zero() {
                return self.reduce(lo);
            }
            // wide = hi * t + lo. Because t < 2^130 and hi < 2^256 the
            // product fits comfortably in 512 bits, and the value shrinks
            // every iteration, so this terminates in <= 4 rounds.
            let mut next = hi.mul_wide(&self.t);
            add_into_512(&mut next, &lo);
            wide = next;
        }
    }

    /// `(a + b) mod m`. Inputs must already be reduced.
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        let (sum, carry) = a.overflowing_add(b);
        if carry {
            // sum + 2^256 ≡ sum + t (mod m); t is small so one add suffices.
            let (v, c2) = sum.overflowing_add(&self.t);
            debug_assert!(!c2);
            self.reduce(v)
        } else {
            self.reduce(sum)
        }
    }

    /// `(a - b) mod m`. Inputs must already be reduced.
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        let (diff, borrow) = a.overflowing_sub(b);
        if borrow {
            diff.overflowing_add(&self.m).0
        } else {
            diff
        }
    }

    /// `(-a) mod m`.
    pub fn neg(&self, a: &U256) -> U256 {
        self.sub(&U256::ZERO, a)
    }

    /// `(a * b) mod m`.
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        self.reduce512(a.mul_wide(b))
    }

    /// `base^exp mod m` by square-and-multiply (reference for the tests).
    #[cfg(test)]
    pub(crate) fn pow(&self, base: &U256, exp: &U256) -> U256 {
        let mut result = U256::ONE;
        let Some(top) = exp.highest_bit() else {
            return result;
        };
        let mut acc = self.reduce(*base);
        for i in 0..=top {
            if exp.bit(i) {
                result = self.mul(&result, &acc);
            }
            if i != top {
                acc = self.mul(&acc, &acc);
            }
        }
        result
    }

    /// Modular inverse via Fermat's little theorem, for a prime modulus
    /// (reference for the tests).
    #[cfg(test)]
    pub(crate) fn inv(&self, a: &U256) -> U256 {
        assert!(!a.is_zero(), "inverse of zero");
        let exp = self.m.overflowing_sub(&U256::from_u64(2)).0;
        self.pow(a, &exp)
    }

    /// Reduces an arbitrary 32-byte string into `[0, m)` — used to map hash
    /// outputs to scalars. The statistical bias is < 2^-126 for secp256k1.
    pub fn from_bytes(&self, bytes: &[u8; 32]) -> U256 {
        self.reduce(U256::from_be_bytes(bytes))
    }
}

/// The secp256k1 group order `n`.
pub fn fn_order() -> &'static ModArith {
    static FN: OnceLock<ModArith> = OnceLock::new();
    FN.get_or_init(|| {
        ModArith::new(U256::from_hex(
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141",
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The generic arithmetic instantiated for the field prime.
    fn fp() -> &'static ModArith {
        static FP: OnceLock<ModArith> = OnceLock::new();
        FP.get_or_init(|| ModArith::new(crate::field::P))
    }

    #[test]
    fn constants_sane() {
        // p = 2^256 - 2^32 - 977 => t = 2^32 + 977 = 0x1000003d1.
        assert_eq!(fp().t, U256::from_hex("1000003d1"));
        assert_eq!(
            fn_order().m,
            U256::from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141")
        );
    }

    #[test]
    fn small_arith() {
        let f = fp();
        let a = U256::from_u64(7);
        let b = U256::from_u64(5);
        assert_eq!(f.add(&a, &b), U256::from_u64(12));
        assert_eq!(f.sub(&b, &a), f.neg(&U256::from_u64(2)));
        assert_eq!(f.mul(&a, &b), U256::from_u64(35));
    }

    #[test]
    fn wraparound_addition() {
        let f = fp();
        let pm1 = f.sub(&U256::ZERO, &U256::ONE); // p - 1
        assert_eq!(f.add(&pm1, &U256::ONE), U256::ZERO);
        assert_eq!(f.add(&pm1, &U256::from_u64(5)), U256::from_u64(4));
    }

    #[test]
    fn square_of_p_minus_one() {
        // (p-1)^2 ≡ 1 (mod p).
        let f = fp();
        let pm1 = f.neg(&U256::ONE);
        assert_eq!(f.mul(&pm1, &pm1), U256::ONE);
    }

    #[test]
    fn pow_and_fermat() {
        let f = fp();
        let a = U256::from_hex("deadbeefcafebabe0123456789abcdef");
        // a^(p-1) = 1.
        let pm1 = f.m.overflowing_sub(&U256::ONE).0;
        assert_eq!(f.pow(&a, &pm1), U256::ONE);
        assert_eq!(f.pow(&a, &U256::ZERO), U256::ONE);
        assert_eq!(f.pow(&a, &U256::ONE), a);
    }

    #[test]
    fn inverse_roundtrip() {
        for f in [fp(), fn_order()] {
            for v in [2u64, 3, 977, 0xdead_beef] {
                let a = U256::from_u64(v);
                let inv = f.inv(&a);
                assert_eq!(f.mul(&a, &inv), U256::ONE);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        let _ = fp().inv(&U256::ZERO);
    }

    fn arb_reduced(f: &'static ModArith) -> impl Strategy<Value = U256> {
        any::<[u64; 4]>().prop_map(move |l| f.reduce512([l[0], l[1], l[2], l[3], 0, 0, 0, 0]))
    }

    proptest! {
        #[test]
        fn prop_field_axioms(a in arb_reduced(fp()), b in arb_reduced(fp()), c in arb_reduced(fp())) {
            let f = fp();
            // Commutativity and associativity.
            prop_assert_eq!(f.add(&a, &b), f.add(&b, &a));
            prop_assert_eq!(f.mul(&a, &b), f.mul(&b, &a));
            prop_assert_eq!(f.mul(&f.mul(&a, &b), &c), f.mul(&a, &f.mul(&b, &c)));
            // Distributivity.
            prop_assert_eq!(f.mul(&a, &f.add(&b, &c)),
                            f.add(&f.mul(&a, &b), &f.mul(&a, &c)));
            // Subtraction is inverse of addition.
            prop_assert_eq!(f.sub(&f.add(&a, &b), &b), a);
        }

        #[test]
        fn prop_inverse(a in arb_reduced(fn_order())) {
            prop_assume!(!a.is_zero());
            let f = fn_order();
            prop_assert_eq!(f.mul(&a, &f.inv(&a)), U256::ONE);
        }

        #[test]
        fn prop_reduce512_linear(a in any::<[u64;4]>(), b in any::<[u64;4]>()) {
            // reduce(a*b) computed two ways must agree: directly, and by
            // reducing the operands first.
            let f = fp();
            let a = U256 { limbs: a };
            let b = U256 { limbs: b };
            let direct = f.reduce512(a.mul_wide(&b));
            let via_reduced = f.mul(&f.reduce512([a.limbs[0],a.limbs[1],a.limbs[2],a.limbs[3],0,0,0,0]),
                                    &f.reduce512([b.limbs[0],b.limbs[1],b.limbs[2],b.limbs[3],0,0,0,0]));
            prop_assert_eq!(direct, via_reduced);
        }
    }
}
