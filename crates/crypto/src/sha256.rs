//! SHA-256 (FIPS 180-4), HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

use std::sync::OnceLock;

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn compress(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), 64);
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        let add = [a, b, c, d, e, f, g, h];
        for (s, v) in self.state.iter_mut().zip(add) {
            *s = s.wrapping_add(v);
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
        self
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit length.
        // It spills into a second block when the buffer holds > 55 bytes.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// let d = teechain_crypto::sha256(b"abc");
/// assert_eq!(teechain_util::hex::encode(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte slices.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// A domain-separated ("tagged") hash: `SHA256(SHA256(tag) || SHA256(tag) || data)`,
/// the construction used by BIP-340 and reused here for nonce/challenge
/// derivation and enclave state digests.
pub fn tagged_hash(tag: &str, parts: &[&[u8]]) -> [u8; 32] {
    let mut h = tagged_prefix(tag);
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// A hasher that has absorbed `SHA256(tag) || SHA256(tag)`: exactly one
/// block, so the state is a midstate with an empty buffer. The crate's own
/// tags — every key derivation, signature and verification hashes under
/// one of them — are prefixed once per process and cloned after that,
/// which saves two compressions per call; any other tag is prefixed on
/// the spot.
pub(crate) fn tagged_prefix(tag: &str) -> Sha256 {
    fn prefixed(tag: &str) -> Sha256 {
        let tag_digest = sha256(tag.as_bytes());
        let mut h = Sha256::new();
        h.update(&tag_digest).update(&tag_digest);
        h
    }
    static KEYGEN: OnceLock<Sha256> = OnceLock::new();
    static NONCE: OnceLock<Sha256> = OnceLock::new();
    static CHALLENGE: OnceLock<Sha256> = OnceLock::new();
    static BATCH: OnceLock<Sha256> = OnceLock::new();
    let cached = match tag {
        "teechain/keygen" => &KEYGEN,
        "teechain/nonce" => &NONCE,
        "teechain/challenge" => &CHALLENGE,
        "teechain/batch" => &BATCH,
        _ => return prefixed(tag),
    };
    cached.get_or_init(|| prefixed(tag)).clone()
}

/// HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let pad = |byte: u8| key_block.map(|b| b ^ byte);
    let mut inner = Sha256::new();
    inner.update(&pad(0x36)).update(data);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&pad(0x5c)).update(&inner_digest);
    outer.finalize()
}

/// HKDF-SHA256: extract-then-expand to `out_len` bytes (RFC 5869).
///
/// # Panics
///
/// Panics if `out_len > 255 * 32`.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * 32, "HKDF output too long");
    let prk = hmac_sha256(salt, ikm);
    let mut out = Vec::with_capacity(out_len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut data = t.clone();
        data.extend_from_slice(info);
        data.push(counter);
        t = hmac_sha256(&prk, &data).to_vec();
        let take = (out_len - out.len()).min(32);
        out.extend_from_slice(&t[..take]);
        counter += 1;
    }
    out
}

/// Constant-shape equality check for MAC tags.
///
/// Not a hardened constant-time primitive, but avoids the obvious
/// early-return timing structure.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_util::hex;

    fn hex32(s: &str) -> [u8; 32] {
        hex::decode_array(s).unwrap()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            sha256(b"abc"),
            hex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        );
        assert_eq!(
            sha256(b""),
            hex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data),
            hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        );
    }

    #[test]
    fn padding_boundary_55_bytes() {
        // 55 bytes is the largest message fitting one block with padding.
        assert_eq!(
            sha256(&[b'a'; 55]),
            hex32("9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318")
        );
    }

    #[test]
    fn exact_block() {
        let data: Vec<u8> = (0..64).collect();
        assert_eq!(
            sha256(&data),
            hex32("fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108")
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    /// Padding written in one step equals padding fed one byte at a time
    /// through `update`, for every buffer fill: below 56 bytes the length
    /// fits the last block, from 56 on it takes a second block.
    #[test]
    fn one_step_padding_matches_bytewise_padding() {
        fn bytewise(data: &[u8]) -> [u8; 32] {
            let mut h = Sha256::new();
            h.update(data).update(&[0x80]);
            while h.buf_len != 56 {
                h.update(&[0]);
            }
            h.update(&((data.len() as u64) * 8).to_be_bytes());
            assert_eq!(h.buf_len, 0);
            let mut out = [0u8; 32];
            for (chunk, word) in out.chunks_exact_mut(4).zip(h.state) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
            out
        }
        let data: Vec<u8> = (0..=255).cycle().take(200).collect();
        for len in 0..=data.len() {
            assert_eq!(sha256(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        assert_eq!(
            hmac_sha256(&[0x0b; 20], b"Hi There"),
            hex32("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
        );
        assert_eq!(
            hmac_sha256(b"Jefe", b"what do ya want for nothing?"),
            hex32("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
        );
        // Key longer than the block size must be hashed first.
        assert_eq!(
            hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            ),
            hex32("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
        );
    }

    #[test]
    fn hkdf_lengths_and_determinism() {
        let a = hkdf(b"salt", b"ikm", b"info", 42);
        let b = hkdf(b"salt", b"ikm", b"info", 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 42);
        assert_ne!(hkdf(b"salt", b"ikm", b"other", 42), a);
        assert_eq!(&hkdf(b"salt", b"ikm", b"info", 16), &a[..16]);
    }

    #[test]
    fn tagged_hash_separates_domains() {
        assert_ne!(tagged_hash("a", &[b"x"]), tagged_hash("b", &[b"x"]));
    }

    #[test]
    fn cached_tag_prefixes_hash_like_the_definition() {
        let long: Vec<u8> = (0..=255).collect();
        for tag in [
            "teechain/keygen",
            "teechain/nonce",
            "teechain/challenge",
            "teechain/batch",
            "teechain/not-cached",
        ] {
            let t = sha256(tag.as_bytes());
            for parts in [&[][..], &[&b"x"[..], &long[..]][..]] {
                let mut spelled_out = vec![&t[..], &t[..]];
                spelled_out.extend_from_slice(parts);
                // Twice: the first call may fill the cache, the second reads it.
                for _ in 0..2 {
                    assert_eq!(
                        tagged_hash(tag, parts),
                        sha256_concat(&spelled_out),
                        "{tag}"
                    );
                }
            }
        }
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"diff"));
        assert!(!ct_eq(b"short", b"longer"));
    }
}
