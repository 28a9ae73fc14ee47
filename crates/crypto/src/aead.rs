//! Authenticated encryption with associated data: ChaCha20-Poly1305 exactly
//! as RFC 8439 §2.8.
//!
//! For every `(key, nonce)` ChaCha20 block 0 yields a one-time Poly1305 key,
//! the payload is encrypted from block 1, and the 16-byte tag covers
//! `pad16(aad) ‖ pad16(ciphertext) ‖ len(aad)₆₄ ‖ len(ciphertext)₆₄`. The tag
//! is compared in constant shape and checked *before* anything is decrypted.
//! The paper's implementation uses AES-GCM with AES-NI; the security contract
//! consumed by Teechain (confidentiality + integrity under a shared session
//! key) is identical. See `docs/ARCHITECTURE.md`, *Substitutions and
//! deviations* and *The symmetric path*.
//!
//! # Nonce uniqueness
//!
//! A `(key, nonce)` pair must seal **at most one message, ever**. Repeating
//! one leaks the XOR of the two plaintexts and, because the Poly1305 key is
//! derived from the pair, lets an observer of both tags forge further
//! messages. (Opening any number of times is harmless.) The tree has exactly
//! three nonce sources, each a counter that only moves forward:
//!
//! * `Session::send_seq` (`crates/core/src/session.rs`): every direction of
//!   every session has its own key, the sequence number is incremented on
//!   every `seal`, and a session does not outlive its enclave instance.
//! * WAL records and
//! * sealed snapshots, both in `TeechainEnclave::finalize`: the nonce is the
//!   value the hardware monotonic counter was just incremented to, and each
//!   increment is followed by exactly one seal. The counter survives a crash
//!   (a recovered enclave continues counter 0 of its device rather than
//!   creating a new one), and `teechain_tee::sealing::Sealer` refuses to seal
//!   a counter value that is not above the last one it sealed.

use crate::chacha20::ChaCha20;
use crate::poly1305::Poly1305;
use crate::sha256::{ct_eq, hkdf};

/// Authenticated encryption context bound to one session key.
#[derive(Clone)]
pub struct Aead {
    key: [u8; 32],
}

/// Failure to authenticate a ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AeadError {}

const TAG_LEN: usize = 16;

impl Aead {
    /// Derives an AEAD context from a session key.
    pub fn new(session_key: &[u8; 32]) -> Self {
        let okm = hkdf(b"teechain-aead-v2", session_key, b"key", 32);
        Self {
            key: okm.try_into().expect("hkdf returns the length asked for"),
        }
    }

    /// Encrypts `plaintext` under `nonce`, binding `aad`; returns
    /// `ciphertext || tag`.
    ///
    /// The caller must never seal twice under one nonce with the same
    /// session key (see the module documentation).
    pub fn seal(&self, nonce: u64, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(plaintext.len() + TAG_LEN);
        buf.extend_from_slice(plaintext);
        self.seal_in_place(nonce, aad, &mut buf);
        buf
    }

    /// Verifies and decrypts `ciphertext || tag`.
    pub fn open(&self, nonce: u64, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
        let mut buf = sealed.to_vec();
        self.open_in_place(nonce, aad, &mut buf)?;
        Ok(buf)
    }

    /// [`Aead::seal`] without the copy: encrypts `buf` where it lies and
    /// appends the tag (reserve 16 bytes more than the plaintext to keep it
    /// to one allocation).
    pub fn seal_in_place(&self, nonce: u64, aad: &[u8], buf: &mut Vec<u8>) {
        self.seal_with(&expand_nonce(nonce), aad, buf);
    }

    /// [`Aead::open`] without the copy: verifies `ciphertext || tag` in
    /// `buf`, then decrypts it where it lies and cuts the tag off. On failure
    /// `buf` is left exactly as it was, still encrypted.
    pub fn open_in_place(
        &self,
        nonce: u64,
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), AeadError> {
        self.open_with(&expand_nonce(nonce), aad, buf)
    }

    /// [`Aead::seal_in_place`] for a message that lies inside a larger
    /// buffer, behind a header it may name as `aad`: encrypts `msg` where it
    /// lies and returns the tag to append to it.
    pub fn seal_slice_in_place(&self, nonce: u64, aad: &[u8], msg: &mut [u8]) -> [u8; TAG_LEN] {
        self.seal_slice_with(&expand_nonce(nonce), aad, msg)
    }

    /// [`Aead::open_in_place`] for a `ciphertext || tag` that lies inside a
    /// larger buffer: verifies it, decrypts it where it lies and returns the
    /// plaintext (`sealed` without its last 16 bytes). On failure `sealed`
    /// is left exactly as it was, still encrypted.
    pub fn open_slice_in_place<'a>(
        &self,
        nonce: u64,
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8], AeadError> {
        self.open_slice_with(&expand_nonce(nonce), aad, sealed)
    }

    fn seal_with(&self, nonce: &[u8; 12], aad: &[u8], buf: &mut Vec<u8>) {
        let tag = self.seal_slice_with(nonce, aad, buf);
        buf.extend_from_slice(&tag);
    }

    fn open_with(&self, nonce: &[u8; 12], aad: &[u8], buf: &mut Vec<u8>) -> Result<(), AeadError> {
        let plain_len = self.open_slice_with(nonce, aad, buf)?.len();
        buf.truncate(plain_len);
        Ok(())
    }

    fn seal_slice_with(&self, nonce: &[u8; 12], aad: &[u8], msg: &mut [u8]) -> [u8; TAG_LEN] {
        let cipher = ChaCha20::new(&self.key, nonce);
        cipher.apply_keystream(1, msg);
        poly1305_tag(&cipher, aad, msg)
    }

    fn open_slice_with<'a>(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8], AeadError> {
        let ct_len = sealed.len().checked_sub(TAG_LEN).ok_or(AeadError)?;
        let cipher = ChaCha20::new(&self.key, nonce);
        let (ciphertext, sent_tag) = sealed.split_at_mut(ct_len);
        if !ct_eq(&poly1305_tag(&cipher, aad, ciphertext), sent_tag) {
            return Err(AeadError);
        }
        cipher.apply_keystream(1, ciphertext);
        Ok(ciphertext)
    }
}

/// The RFC 8439 §2.8 tag, under the one-time key of `cipher`'s nonce (§2.6).
fn poly1305_tag(cipher: &ChaCha20, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let block0 = cipher.block(0);
    let mut mac = Poly1305::new(block0[..32].try_into().expect("32 of 64 bytes"));
    mac.update_padded(aad);
    mac.update_padded(ciphertext);
    let mut lengths = [0u8; 16];
    lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.update_padded(&lengths);
    mac.finalize()
}

fn expand_nonce(nonce: u64) -> [u8; 12] {
    let mut out = [0u8; 12];
    out[..8].copy_from_slice(&nonce.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::known_answers;
    use proptest::prelude::*;
    use teechain_util::hex;

    fn ctx() -> Aead {
        Aead::new(&[0x42; 32])
    }

    #[test]
    fn rfc8439_one_time_key_generation() {
        // §2.6.2: the Poly1305 key is the first half of ChaCha20 block 0.
        let f = known_answers("poly1305-keygen")
            .next()
            .expect("vector present");
        let cipher = ChaCha20::new(
            &hex::decode_array(f[1]).unwrap(),
            &hex::decode_array(f[2]).unwrap(),
        );
        assert_eq!(hex::encode(&cipher.block(0)[..32]), f[3]);
    }

    #[test]
    fn rfc8439_aead_vector() {
        // §2.8.2, with the raw key and the raw 96-bit nonce of the RFC.
        let f = known_answers("aead").next().expect("vector present");
        let aead = Aead {
            key: hex::decode_array(f[1]).unwrap(),
        };
        let nonce: [u8; 12] = hex::decode_array(f[2]).unwrap();
        let aad = hex::decode(f[3]).unwrap();
        let plaintext = hex::decode(f[4]).unwrap();
        let mut buf = plaintext.clone();
        aead.seal_with(&nonce, &aad, &mut buf);
        assert_eq!(hex::encode(&buf), format!("{}{}", f[5], f[6]));
        aead.open_with(&nonce, &aad, &mut buf).unwrap();
        assert_eq!(buf, plaintext);
    }

    #[test]
    fn key_is_domain_separated_from_the_session_key() {
        // The cipher never runs under the caller's key itself.
        let session_key = [0x42; 32];
        let raw = Aead { key: session_key };
        assert_ne!(ctx().seal(1, b"", b"data"), raw.seal(1, b"", b"data"));
    }

    #[test]
    fn roundtrip() {
        let a = ctx();
        let sealed = a.seal(1, b"header", b"secret payload");
        assert_eq!(sealed.len(), b"secret payload".len() + TAG_LEN);
        assert_eq!(a.open(1, b"header", &sealed).unwrap(), b"secret payload");
    }

    #[test]
    fn empty_plaintext() {
        let a = ctx();
        let sealed = a.seal(9, b"", b"");
        assert_eq!(a.open(9, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn different_keys_incompatible() {
        let a = Aead::new(&[1; 32]);
        let b = Aead::new(&[2; 32]);
        let sealed = a.seal(1, b"", b"data");
        assert_eq!(b.open(1, b"", &sealed), Err(AeadError));
    }

    /// `open` and `open_in_place` both reject `sealed`, and the latter
    /// leaves its buffer as it found it.
    fn assert_rejected(a: &Aead, nonce: u64, aad: &[u8], sealed: &[u8]) {
        assert_eq!(a.open(nonce, aad, sealed), Err(AeadError));
        let mut buf = sealed.to_vec();
        assert_eq!(a.open_in_place(nonce, aad, &mut buf), Err(AeadError));
        assert_eq!(buf, sealed, "failed open_in_place modified its buffer");
        assert!(a.open_slice_in_place(nonce, aad, &mut buf).is_err());
        assert_eq!(
            buf, sealed,
            "failed open_slice_in_place modified its buffer"
        );
    }

    #[test]
    fn every_flipped_bit_is_rejected() {
        let a = ctx();
        let (nonce, aad) = (7u64, b"associated".as_slice());
        let sealed = a.seal(nonce, aad, &[0x5a; 70]);
        // Ciphertext and tag.
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_rejected(&a, nonce, aad, &bad);
        }
        // Associated data.
        for bit in 0..aad.len() * 8 {
            let mut bad = aad.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_rejected(&a, nonce, &bad, &sealed);
        }
        // Nonce.
        for bit in 0..64 {
            assert_rejected(&a, nonce ^ (1 << bit), aad, &sealed);
        }
        assert!(a.open(nonce, aad, &sealed).is_ok());
    }

    #[test]
    fn every_truncation_and_extension_is_rejected() {
        let a = ctx();
        let sealed = a.seal(1, b"h", &[9; 40]);
        for len in 0..sealed.len() {
            assert_rejected(&a, 1, b"h", &sealed[..len]);
        }
        let mut longer = sealed.clone();
        longer.push(0);
        assert_rejected(&a, 1, b"h", &longer);
        longer.extend_from_slice(&sealed);
        assert_rejected(&a, 1, b"h", &longer);
        // The associated data is length-bound too.
        assert_rejected(&a, 1, b"h\0", &sealed);
        assert_rejected(&a, 1, b"", &sealed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lengths 0..=300 cross the 16-byte Poly1305 and the 64-byte
        /// ChaCha20 block edges.
        #[test]
        fn prop_in_place_equals_copying(
            key in any::<[u8; 32]>(),
            nonce in any::<u64>(),
            aad in proptest::collection::vec(any::<u8>(), 0..40),
            plain in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            let a = Aead::new(&key);
            let sealed = a.seal(nonce, &aad, &plain);
            let mut buf = plain.clone();
            a.seal_in_place(nonce, &aad, &mut buf);
            prop_assert_eq!(&buf, &sealed);
            a.open_in_place(nonce, &aad, &mut buf).unwrap();
            prop_assert_eq!(&buf, &plain);
            prop_assert_eq!(a.open(nonce, &aad, &sealed).unwrap(), &plain[..]);
            // The slice forms, on a message behind the header it binds and
            // in front of bytes that are none of its business.
            let mut frame = [&aad[..], &plain[..]].concat();
            let (head, msg) = frame.split_at_mut(aad.len());
            let tag = a.seal_slice_in_place(nonce, head, msg);
            frame.extend_from_slice(&tag);
            prop_assert_eq!(&frame[aad.len()..], &sealed[..]);
            frame.push(0xa5);
            let end = frame.len() - 1;
            let (head, rest) = frame.split_at_mut(aad.len());
            let opened = a.open_slice_in_place(nonce, head, &mut rest[..end - aad.len()]).unwrap();
            prop_assert_eq!(&*opened, &plain[..]);
            prop_assert_eq!(&frame[..aad.len()], &aad[..]);
            prop_assert_eq!(frame[end], 0xa5);
        }

        #[test]
        fn prop_arbitrary_bytes_never_open(
            nonce in any::<u64>(),
            aad in proptest::collection::vec(any::<u8>(), 0..40),
            junk in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            assert_rejected(&ctx(), nonce, &aad, &junk);
        }

        #[test]
        fn prop_corrupted_seal_never_opens(
            plain in proptest::collection::vec(any::<u8>(), 0..301),
            at in any::<usize>(),
            xor in any::<u8>(),
        ) {
            prop_assume!(xor != 0);
            let a = ctx();
            let mut sealed = a.seal(3, b"aad", &plain);
            let at = at % sealed.len();
            sealed[at] ^= xor;
            assert_rejected(&a, 3, b"aad", &sealed);
        }
    }
}
