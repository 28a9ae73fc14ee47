//! The Poly1305 one-time authenticator (RFC 8439 §2.5), as the AEAD uses it.
//!
//! The accumulator lives in three limbs of 44, 44 and 42 bits, so one block
//! is nine `u64 × u64 → u128` products and the reduction modulo `2^130 − 5`
//! is a multiplication of the carry by 5. Nothing branches on the key, the
//! message or the accumulator; the final `h ≥ p` correction is a mask.
//!
//! A key must authenticate **one** message: two tags under one `(r, s)`
//! reveal `r`. The AEAD derives a fresh key per nonce ([`crate::aead`]).

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// `2^128` in the top limb: the bit appended to every whole block.
const HIBIT: u64 = 1 << 40;

/// Poly1305 state for one message under one one-time key.
pub(crate) struct Poly1305 {
    r: [u64; 3],
    /// `20·r1`, `20·r2`: limbs that wrap past `2^132 = 4·2^130 ≡ 20`.
    s: [u64; 2],
    h: [u64; 3],
    pad: u128,
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

impl Poly1305 {
    /// Splits `key` into the clamped multiplier `r` and the final addend `s`.
    pub(crate) fn new(key: &[u8; 32]) -> Self {
        let (t0, t1) = (le64(&key[..8]), le64(&key[8..16]));
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Self {
            r,
            s: [r[1] * 20, r[2] * 20],
            h: [0; 3],
            pad: u128::from_le_bytes(key[16..].try_into().expect("16 bytes")),
        }
    }

    /// `h = (h + block + hibit·2^88) · r`, partially reduced.
    #[inline]
    fn block(&mut self, block: &[u8; 16], hibit: u64) {
        let (t0, t1) = (le64(&block[..8]), le64(&block[8..]));
        let h0 = (self.h[0] + (t0 & MASK44)) as u128;
        let h1 = (self.h[1] + (((t0 >> 44) | (t1 << 20)) & MASK44)) as u128;
        let h2 = (self.h[2] + ((t1 >> 24) | hibit)) as u128;
        let [r0, r1, r2] = self.r.map(u128::from);
        let [s1, s2] = self.s.map(u128::from);

        // Limbs stay below 2^46 and r, s below 2^49: every sum is < 2^97.
        let d0 = h0 * r0 + h1 * s2 + h2 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s2 + (d0 >> 44);
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + (d1 >> 44);
        let h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        self.h = [
            h0 & MASK44,
            (d1 as u64 & MASK44) + (h0 >> 44),
            d2 as u64 & MASK42,
        ];
    }

    /// Absorbs `data` followed by zeros up to the next multiple of 16 bytes
    /// (the AEAD's `pad16`): every block is a whole block.
    pub(crate) fn update_padded(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            self.block(chunk.try_into().expect("16 bytes"), HIBIT);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            last[..rest.len()].copy_from_slice(rest);
            self.block(&last, HIBIT);
        }
    }

    /// Fully reduces the accumulator and returns `(h + s) mod 2^128`.
    pub(crate) fn finalize(self) -> [u8; 16] {
        let [mut h0, mut h1, mut h2] = self.h;
        // Propagate the carry `block` left in h1, twice around: h < 2^130.
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;

        // g = h − p = h + 5 − 2^130; keep it when it did not go negative.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        let h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        let h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        let h2 = (h2 & !keep_g) | (g2 & keep_g);

        // Sums, not ORs: h1 may still carry one bit past 44. The shift drops
        // bits 128 and 129 and the additions wrap: that is the `mod 2^128`.
        (h0 as u128)
            .wrapping_add((h1 as u128) << 44)
            .wrapping_add((h2 as u128) << 88)
            .wrapping_add(self.pad)
            .to_le_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::u256::U256;
    use proptest::prelude::*;
    use teechain_util::hex;

    /// The plain RFC 8439 §2.5 MAC of an arbitrary-length message: a short
    /// last block gets a `0x01` byte appended instead of the `2^128` bit.
    fn mac(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        let mut st = Poly1305::new(key);
        let mut chunks = msg.chunks_exact(16);
        for chunk in &mut chunks {
            st.block(chunk.try_into().unwrap(), HIBIT);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 16];
            last[..rest.len()].copy_from_slice(rest);
            last[rest.len()] = 1;
            st.block(&last, 0);
        }
        st.finalize()
    }

    /// Little-endian bytes (at most 17) as a `U256`.
    fn le(bytes: &[u8]) -> U256 {
        let mut be = [0u8; 32];
        for (i, b) in bytes.iter().enumerate() {
            be[31 - i] = *b;
        }
        U256::from_be_bytes(&be)
    }

    fn add_mod(a: &U256, b: &U256, p: &U256) -> U256 {
        let mut x = a.overflowing_add(b).0;
        while x >= *p {
            x = x.overflowing_sub(p).0;
        }
        x
    }

    /// The definition, one bit at a time: `h = (h + block) · r mod p` by
    /// double-and-add, nothing shared with the limb arithmetic above.
    fn reference_mac(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
        let p = U256::from_hex("3fffffffffffffffffffffffffffffffb");
        let mut clamped: [u8; 16] = key[..16].try_into().unwrap();
        for i in [3, 7, 11, 15] {
            clamped[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            clamped[i] &= 0xfc;
        }
        let r = le(&clamped);
        let mut h = U256::ZERO;
        for chunk in msg.chunks(16) {
            let mut block = chunk.to_vec();
            block.push(1);
            let x = add_mod(&h, &le(&block), &p);
            h = U256::ZERO;
            for bit in (0..128).rev() {
                h = add_mod(&h, &h, &p);
                if r.bit(bit) {
                    h = add_mod(&h, &x, &p);
                }
            }
        }
        let sum = h.overflowing_add(&le(&key[16..])).0.to_be_bytes();
        std::array::from_fn(|i| sum[31 - i])
    }

    #[test]
    fn rfc8439_and_edge_vectors() {
        let mut seen = 0;
        for f in crate::known_answers("poly1305") {
            let key = hex::decode_array(f[1]).expect("key");
            let msg = if f[2] == "-" {
                Vec::new()
            } else {
                hex::decode(f[2]).expect("msg")
            };
            assert_eq!(hex::encode(&mac(&key, &msg)), f[3], "{f:?}");
            assert_eq!(hex::encode(&reference_mac(&key, &msg)), f[3], "{f:?}");
            seen += 1;
        }
        // §2.5.2, A.3 #1–#11 and the two all-clamped-bits rows.
        assert_eq!(seen, 14);
    }

    #[test]
    fn update_padded_is_the_mac_of_the_zero_padded_message() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 7 + 1) as u8);
        for len in 0..=70usize {
            let msg: Vec<u8> = (0..len as u8).collect();
            let mut st = Poly1305::new(&key);
            st.update_padded(&msg);
            let mut padded = msg.clone();
            padded.resize(len.div_ceil(16) * 16, 0);
            assert_eq!(st.finalize(), mac(&key, &padded), "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_matches_reference(
            key in any::<[u8; 32]>(),
            msg in proptest::collection::vec(any::<u8>(), 0..200),
            saturate in any::<bool>(),
        ) {
            // Half the cases with every message byte 0xff: the largest
            // blocks, which is where carries out of a limb happen.
            let msg = if saturate { vec![0xff; msg.len()] } else { msg };
            prop_assert_eq!(mac(&key, &msg), reference_mac(&key, &msg));
        }
    }
}
