//! Fixed-width 256-bit unsigned integers.
//!
//! Representation: four little-endian `u64` limbs. Only the operations the
//! elliptic-curve code needs are provided.

use teechain_util::hex;

/// A 256-bit unsigned integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    /// Little-endian limbs: `limbs[0]` is least significant.
    pub limbs: [u64; 4],
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value 1.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };

    /// Creates a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let chunk: [u8; 8] = bytes[i * 8..(i + 1) * 8].try_into().unwrap();
            limbs[3 - i] = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Serializes to big-endian 32 bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// Parses a (up to 64 digit) hexadecimal string.
    ///
    /// # Panics
    ///
    /// Panics on malformed input; intended for constants and tests.
    pub fn from_hex(s: &str) -> Self {
        assert!(s.len() <= 64, "hex literal too long");
        let padded = format!("{s:0>64}");
        let bytes = hex::decode_array::<32>(&padded).expect("invalid hex literal");
        Self::from_be_bytes(&bytes)
    }

    /// Formats as a 64-digit lowercase hex string.
    pub fn to_hex(self) -> String {
        hex::encode(&self.to_be_bytes())
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        debug_assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the 4-bit nibble at position `i` (0 = least significant).
    pub fn nibble(&self, i: usize) -> u8 {
        debug_assert!(i < 64);
        ((self.limbs[i / 16] >> ((i % 16) * 4)) & 0xf) as u8
    }

    /// Returns the `width`-bit window starting at bit `at` (`width < 64`,
    /// `at + width <= 256`); it may straddle two limbs.
    pub fn bits(&self, at: usize, width: usize) -> u64 {
        debug_assert!(width < 64 && at + width <= 256);
        let (limb, shift) = (at / 64, at % 64);
        let mut v = self.limbs[limb] >> shift;
        if shift + width > 64 {
            v |= self.limbs[limb + 1] << (64 - shift);
        }
        v & ((1 << width) - 1)
    }

    /// Index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<usize> {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return Some(i * 64 + 63 - self.limbs[i].leading_zeros() as usize);
            }
        }
        None
    }

    /// Addition with carry-out.
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, slot) in out.iter_mut().enumerate() {
            let (v1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (v2, c2) = v1.overflowing_add(u64::from(carry));
            *slot = v2;
            carry = c1 || c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Subtraction with borrow-out.
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, slot) in out.iter_mut().enumerate() {
            let (v1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (v2, b2) = v1.overflowing_sub(u64::from(borrow));
            *slot = v2;
            borrow = b1 || b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Two's-complement negation modulo 2^256 (i.e. `2^256 - self`).
    pub fn wrapping_neg(&self) -> U256 {
        U256::ZERO.overflowing_sub(self).0
    }

    /// Full 256×256 → 512-bit schoolbook multiplication.
    /// Returns little-endian `u64` limbs.
    #[inline]
    pub fn mul_wide(&self, rhs: &U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0;
            for j in 0..4 {
                (out[i + j], carry) = mac(out[i + j], self.limbs[i], rhs.limbs[j], carry);
            }
            out[i + 4] = carry;
        }
        out
    }

    /// `self²` as 512 bits: the six off-diagonal limb products are computed
    /// once and doubled, then the four squares are added (10 limb products
    /// against [`mul_wide`](Self::mul_wide)'s 16).
    #[inline]
    pub fn square_wide(&self) -> [u64; 8] {
        let a = &self.limbs;
        let mut out = [0u64; 8];
        let mut carry;
        (out[1], carry) = mac(0, a[0], a[1], 0);
        (out[2], carry) = mac(0, a[0], a[2], carry);
        (out[3], carry) = mac(0, a[0], a[3], carry);
        out[4] = carry;
        (out[3], carry) = mac(out[3], a[1], a[2], 0);
        (out[4], carry) = mac(out[4], a[1], a[3], carry);
        out[5] = carry;
        (out[5], carry) = mac(out[5], a[2], a[3], 0);
        out[6] = carry;
        // Double: the off-diagonal sum is below 2^447, so nothing is lost.
        for i in (1..8).rev() {
            out[i] = (out[i] << 1) | (out[i - 1] >> 63);
        }
        let mut carry = 0;
        for i in 0..4 {
            (out[2 * i], carry) = mac(out[2 * i], a[i], a[i], carry);
            let (sum, overflow) = out[2 * i + 1].overflowing_add(carry);
            (out[2 * i + 1], carry) = (sum, u64::from(overflow));
        }
        out
    }
}

/// Multiply-accumulate on limbs: `acc + a·b + carry` as `(low, high)`. The
/// sum cannot exceed `2^128 − 1`, so nothing is lost.
#[inline(always)]
pub(crate) fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl std::fmt::Display for U256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

/// 512-bit addition helper: `acc += v` where `acc` is 8 limbs and `v` is 4
/// limbs starting at limb 0. Panics in debug mode on overflow (callers
/// guarantee headroom).
pub fn add_into_512(acc: &mut [u64; 8], v: &U256) {
    let mut carry: u64 = 0;
    for (i, slot) in acc.iter_mut().enumerate() {
        let add = if i < 4 { v.limbs[i] } else { 0 };
        let wide = *slot as u128 + add as u128 + carry as u128;
        *slot = wide as u64;
        carry = (wide >> 64) as u64;
        if i >= 4 && add == 0 && carry == 0 {
            return;
        }
    }
    debug_assert_eq!(carry, 0, "512-bit accumulator overflow");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn bytes_roundtrip() {
        let v = U256::from_hex("0123456789abcdef0011223344556677deadbeefcafebabe8899aabbccddeeff");
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(
            v.to_hex(),
            "0123456789abcdef0011223344556677deadbeefcafebabe8899aabbccddeeff"
        );
    }

    #[test]
    fn short_hex_is_padded() {
        assert_eq!(U256::from_hex("ff"), u(255));
        assert_eq!(U256::from_hex("0"), U256::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(u(1) < u(2));
        assert!(U256::from_hex("100000000000000000") > U256::from_hex("ffffffffffffffff"));
        assert_eq!(u(7).cmp(&u(7)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let (sum, carry) = a.overflowing_add(&U256::ONE);
        assert!(carry);
        assert!(sum.is_zero());
        let (diff, borrow) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn wrapping_neg_identity() {
        let m = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
        // -m mod 2^256 = 2^32 + 977.
        assert_eq!(m.wrapping_neg(), U256::from_hex("1000003d1"));
    }

    #[test]
    fn mul_wide_small() {
        let r = u(0xffff_ffff_ffff_ffff).mul_wide(&u(0xffff_ffff_ffff_ffff));
        // (2^64-1)^2 = 2^128 - 2^65 + 1.
        assert_eq!(r[0], 1);
        assert_eq!(r[1], 0xffff_ffff_ffff_fffe);
        assert_eq!(r[2..], [0; 6]);
    }

    #[test]
    fn bit_and_nibble() {
        let v = U256::from_hex("a5");
        assert!(v.bit(0) && v.bit(2) && v.bit(5) && v.bit(7));
        assert!(!v.bit(1) && !v.bit(8) && !v.bit(255));
        assert_eq!(v.nibble(0), 5);
        assert_eq!(v.nibble(1), 0xa);
        assert_eq!(v.nibble(2), 0);
        assert_eq!(v.highest_bit(), Some(7));
        assert_eq!(U256::ZERO.highest_bit(), None);
    }

    #[test]
    fn bit_windows_straddle_limbs() {
        let v = U256::from_hex("0123456789abcdef0011223344556677deadbeefcafebabe8899aabbccddeeff");
        assert_eq!(v.bits(0, 8), 0xff);
        assert_eq!(v.bits(4, 5), 0x0f);
        // Bits 62..67: top two of limb 0 (0b10) under the low three of limb 1 (0b110).
        assert_eq!(v.bits(62, 5), 0b11010);
        assert_eq!(v.bits(251, 5), 0);
        assert_eq!(v.bits(248, 8), 0x01);
        for at in 0..252 {
            let expect = (0..5).fold(0, |acc, b| acc | (u64::from(v.bit(at + b)) << b));
            assert_eq!(v.bits(at, 5), expect, "window at {at}");
        }
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in any::<[u64;4]>(), b in any::<[u64;4]>()) {
            let a = U256 { limbs: a };
            let b = U256 { limbs: b };
            prop_assert_eq!(a.overflowing_add(&b), b.overflowing_add(&a));
        }

        #[test]
        fn prop_sub_undoes_add(a in any::<[u64;4]>(), b in any::<[u64;4]>()) {
            let a = U256 { limbs: a };
            let b = U256 { limbs: b };
            let (sum, _) = a.overflowing_add(&b);
            let (diff, _) = sum.overflowing_sub(&b);
            prop_assert_eq!(diff, a);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let wide = U256::from_u64(a).mul_wide(&U256::from_u64(b));
            let expect = (a as u128) * (b as u128);
            prop_assert_eq!(wide[0], expect as u64);
            prop_assert_eq!(wide[1], (expect >> 64) as u64);
            prop_assert_eq!(&wide[2..], &[0u64; 6][..]);
        }

        #[test]
        fn prop_bytes_roundtrip(a in any::<[u64;4]>()) {
            let a = U256 { limbs: a };
            prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
        }
    }
}
