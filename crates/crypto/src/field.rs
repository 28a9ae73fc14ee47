//! The secp256k1 base field `F_p`, `p = 2^256 − 0x1000003D1`.
//!
//! An [`Fe`] is four little-endian 64-bit limbs, always fully reduced into
//! `[0, p)`, so equality, ordering and serialization need no normalisation
//! step. Products are formed with `u128` partial products and reduced by
//! folding the high half with the one-limb constant `C = 2^256 mod p`:
//! `hi·2^256 + lo ≡ hi·C + lo`. Two folds (4 + 1 limb products) bring any
//! 512-bit value below `2^256`, and one conditional subtraction finishes.
//!
//! Variable-time throughout, like the rest of the crate (see the crate docs).

use crate::u256::{mac, U256};
use std::ops::{Add, Mul, Neg, Sub};

/// The fold constant `2^256 − p = 2^32 + 977`.
const C: u64 = 0x1_0000_03D1;
/// [`C`] as a 256-bit integer.
const C_WIDE: U256 = U256::from_u64(C);

/// The field prime `p = 2^256 − 2^32 − 977`.
pub const P: U256 = U256 {
    limbs: [0xFFFF_FFFE_FFFF_FC2F, u64::MAX, u64::MAX, u64::MAX],
};

/// An element of `F_p`, fully reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fe(U256);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe(U256::ZERO);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe(U256::ONE);

    /// Builds an element from limbs the caller knows are below `p`
    /// (compile-time constants).
    pub(crate) const fn from_limbs(limbs: [u64; 4]) -> Fe {
        Fe(U256 { limbs })
    }

    /// Creates an element from a `u64`.
    pub const fn from_u64(v: u64) -> Fe {
        Fe(U256::from_u64(v))
    }

    /// Converts an integer; `None` unless it is below `p`.
    pub fn from_u256(v: U256) -> Option<Fe> {
        (v < P).then_some(Fe(v))
    }

    /// Parses 32 big-endian bytes; `None` unless the value is below `p`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Fe> {
        Fe::from_u256(U256::from_be_bytes(bytes))
    }

    /// The canonical integer representative in `[0, p)`.
    pub fn to_u256(self) -> U256 {
        self.0
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Formats as a 64-digit lowercase hex string.
    pub fn to_hex(self) -> String {
        self.0.to_hex()
    }

    /// Returns true for the zero element.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// `self²`, with the 10-product dedicated squaring.
    pub fn sqr(self) -> Fe {
        reduce_wide(self.0.square_wide())
    }

    /// `self^(2^n)`.
    fn sqr_n(self, n: usize) -> Fe {
        (0..n).fold(self, |x, _| x.sqr())
    }

    /// Multiplicative inverse: `self^(p−2)` by the standard secp256k1
    /// addition chain (255 squarings, 15 multiplications), which exploits
    /// the runs of ones in `p − 2` (223 ones, 0, 22 ones, `0000101101`).
    ///
    /// # Panics
    ///
    /// Panics when inverting zero.
    pub fn inv(self) -> Fe {
        assert!(!self.is_zero(), "inverse of zero");
        let a = self;
        // xN = a^(2^N − 1), a run of N one bits.
        let x2 = a.sqr() * a;
        let x3 = x2.sqr() * a;
        let x6 = x3.sqr_n(3) * x3;
        let x9 = x6.sqr_n(3) * x3;
        let x11 = x9.sqr_n(2) * x2;
        let x22 = x11.sqr_n(11) * x11;
        let x44 = x22.sqr_n(22) * x22;
        let x88 = x44.sqr_n(44) * x44;
        let x176 = x88.sqr_n(88) * x88;
        let x220 = x176.sqr_n(44) * x44;
        let x223 = x220.sqr_n(3) * x3;
        let t = x223.sqr_n(23) * x22;
        let t = t.sqr_n(5) * a;
        let t = t.sqr_n(3) * x2;
        t.sqr_n(2) * a
    }
}

/// Reduces a 512-bit little-endian value into `[0, p)`.
fn reduce_wide(w: [u64; 8]) -> Fe {
    // First fold: lo + hi·C is at most five limbs, the fifth below 2^34.
    let mut r = [0u64; 4];
    let mut top = 0;
    for i in 0..4 {
        (r[i], top) = mac(w[i], w[i + 4], C, top);
    }
    // Second fold: the fifth limb times C (below 2^68) back into the low end.
    let wide = r[0] as u128 + (top as u128) * (C as u128);
    r[0] = wide as u64;
    let mut carry = (wide >> 64) as u64;
    for limb in &mut r[1..] {
        let (sum, overflow) = limb.overflowing_add(carry);
        (*limb, carry) = (sum, u64::from(overflow));
    }
    let mut v = U256 { limbs: r };
    if carry != 0 {
        // Wrapped past 2^256: what is left is below 2^68, so adding C for
        // the dropped 2^256 cannot wrap again.
        v = v.overflowing_add(&C_WIDE).0;
    }
    Fe(sub_p_if_ge(v))
}

/// `v − p` if `v ≥ p`, else `v`: adding `C` carries out of 2^256 exactly
/// when `v ≥ p`, and the wrapped sum is then `v − p`.
#[inline]
fn sub_p_if_ge(v: U256) -> U256 {
    let (wrapped, ge) = v.overflowing_add(&C_WIDE);
    if ge {
        wrapped
    } else {
        v
    }
}

impl Add for Fe {
    type Output = Fe;
    #[inline]
    fn add(self, rhs: Fe) -> Fe {
        let (sum, carry) = self.0.overflowing_add(&rhs.0);
        if carry {
            // The true sum is 2^256 + sum < 2p, so sum + C is the answer.
            Fe(sum.overflowing_add(&C_WIDE).0)
        } else {
            Fe(sub_p_if_ge(sum))
        }
    }
}

impl Sub for Fe {
    type Output = Fe;
    #[inline]
    fn sub(self, rhs: Fe) -> Fe {
        let (diff, borrow) = self.0.overflowing_sub(&rhs.0);
        if borrow {
            // diff is the true difference + 2^256; adding p removes C.
            Fe(diff.overflowing_sub(&C_WIDE).0)
        } else {
            Fe(diff)
        }
    }
}

impl Neg for Fe {
    type Output = Fe;
    #[inline]
    fn neg(self) -> Fe {
        Fe::ZERO - self
    }
}

impl Mul for Fe {
    type Output = Fe;
    #[inline]
    fn mul(self, rhs: Fe) -> Fe {
        reduce_wide(self.0.mul_wide(&rhs.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modarith::ModArith;
    use proptest::prelude::*;

    /// The generic `2^256 − t` arithmetic instantiated for `p`: the
    /// reference every specialised operation is compared against.
    fn generic() -> ModArith {
        ModArith::new(P)
    }

    fn fe(v: U256) -> Fe {
        Fe(generic().reduce(v))
    }

    /// Zero, one, `p − 1`, `2^256 − 1 mod p`, and values around the limb and
    /// fold boundaries.
    fn edge_values() -> Vec<Fe> {
        let max = U256 {
            limbs: [u64::MAX; 4],
        };
        let mut v = vec![
            Fe::ZERO,
            Fe::ONE,
            -Fe::ONE,
            fe(max),
            Fe::from_u64(C),
            Fe::from_u64(C - 1),
            Fe::from_u64(u64::MAX),
            fe(P.overflowing_sub(&U256::from_u64(C)).0),
        ];
        for limb in 0..4 {
            let mut limbs = [0u64; 4];
            limbs[limb] = u64::MAX;
            v.push(fe(U256 { limbs }));
            let mut limbs = [u64::MAX; 4];
            limbs[limb] = 0;
            v.push(fe(U256 { limbs }));
        }
        v
    }

    fn check_against_generic(a: Fe, b: Fe) {
        let g = generic();
        let (ua, ub) = (a.to_u256(), b.to_u256());
        assert_eq!((a + b).to_u256(), g.add(&ua, &ub), "add {ua} {ub}");
        assert_eq!((a - b).to_u256(), g.sub(&ua, &ub), "sub {ua} {ub}");
        assert_eq!((a * b).to_u256(), g.mul(&ua, &ub), "mul {ua} {ub}");
        assert_eq!((-a).to_u256(), g.neg(&ua), "neg {ua}");
        assert_eq!(a.sqr().to_u256(), g.mul(&ua, &ua), "sqr {ua}");
        if !a.is_zero() {
            assert_eq!(a.inv().to_u256(), g.inv(&ua), "inv {ua}");
        }
    }

    #[test]
    fn prime_and_fold_constant() {
        assert_eq!(
            P,
            U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        );
        assert_eq!(P.wrapping_neg(), U256::from_u64(C));
    }

    #[test]
    fn edge_values_match_generic() {
        let edges = edge_values();
        for &a in &edges {
            for &b in &edges {
                check_against_generic(a, b);
            }
        }
    }

    #[test]
    fn high_half_all_ones_reduces_correctly() {
        // A 512-bit value whose high half is all ones exercises the largest
        // fifth limb of the first fold and the wrap of the second.
        let g = generic();
        for lo in [[0u64; 4], [u64::MAX; 4], [1, 0, 0, u64::MAX]] {
            let mut w = [u64::MAX; 8];
            w[..4].copy_from_slice(&lo);
            assert_eq!(reduce_wide(w).to_u256(), g.reduce512(w));
        }
        // (2^256 − 1)² has the highest high half a product of limbs can.
        let max = U256 {
            limbs: [u64::MAX; 4],
        };
        let w = max.mul_wide(&max);
        assert_eq!(reduce_wide(w).to_u256(), g.reduce512(w));
        assert_eq!(max.square_wide(), w);
    }

    #[test]
    fn parsing_rejects_unreduced_values() {
        assert_eq!(Fe::from_u256(P), None);
        assert_eq!(Fe::from_be_bytes(&[0xff; 32]), None);
        let pm1 = P.overflowing_sub(&U256::ONE).0;
        assert_eq!(Fe::from_u256(pm1), Some(-Fe::ONE));
        assert_eq!(Fe::from_be_bytes(&pm1.to_be_bytes()), Some(-Fe::ONE));
    }

    #[test]
    fn inverse_roundtrip() {
        for v in [1u64, 2, 3, 977, 0xdead_beef] {
            let a = Fe::from_u64(v);
            assert_eq!(a * a.inv(), Fe::ONE);
        }
        assert_eq!((-Fe::ONE).inv(), -Fe::ONE);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        let _ = Fe::ZERO.inv();
    }

    fn arb_fe() -> impl Strategy<Value = Fe> {
        any::<[u64; 4]>().prop_map(|limbs| fe(U256 { limbs }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn prop_matches_generic(a in arb_fe(), b in arb_fe()) {
            check_against_generic(a, b);
        }

        #[test]
        fn prop_wide_reduction_matches_generic(w in any::<[u64; 8]>()) {
            prop_assert_eq!(reduce_wide(w).to_u256(), generic().reduce512(w));
        }

        #[test]
        fn prop_square_wide_matches_mul_wide(a in any::<[u64; 4]>()) {
            let a = U256 { limbs: a };
            prop_assert_eq!(a.square_wide(), a.mul_wide(&a));
        }

        #[test]
        fn prop_field_axioms(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
            prop_assert_eq!(a + b, b + a);
            prop_assert_eq!(a * b, b * a);
            prop_assert_eq!((a * b) * c, a * (b * c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
            prop_assert_eq!((a + b) - b, a);
            prop_assert_eq!(a + (-a), Fe::ZERO);
        }
    }
}
