//! Authenticated encryption with associated data.
//!
//! Construction: ChaCha20 encryption followed by HMAC-SHA256 over
//! `aad || nonce || ciphertext || lengths` (encrypt-then-MAC), with
//! independent encryption and MAC keys derived from the session key via
//! HKDF. The paper's implementation uses AES-GCM with AES-NI; the security
//! contract consumed by Teechain (confidentiality + integrity under a shared
//! session key) is identical. See `docs/ARCHITECTURE.md`, *Substitutions and
//! deviations*.

use crate::chacha20::ChaCha20;
use crate::sha256::{ct_eq, hkdf, hmac_sha256};

/// Authenticated encryption context bound to one session key.
#[derive(Clone)]
pub struct Aead {
    enc_key: [u8; 32],
    mac_key: [u8; 32],
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
        let okm = hkdf(b"teechain-aead-v1", session_key, b"enc|mac", 64);
        let mut enc_key = [0u8; 32];
        let mut mac_key = [0u8; 32];
        enc_key.copy_from_slice(&okm[..32]);
        mac_key.copy_from_slice(&okm[32..]);
        Self { enc_key, mac_key }
    }

    fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut data = Vec::with_capacity(aad.len() + 12 + ciphertext.len() + 16);
        data.extend_from_slice(aad);
        data.extend_from_slice(nonce);
        data.extend_from_slice(ciphertext);
        data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        let full = hmac_sha256(&self.mac_key, &data);
        full[..TAG_LEN].try_into().unwrap()
    }

    /// Encrypts `plaintext` under `nonce`, binding `aad`; returns
    /// `ciphertext || tag`.
    ///
    /// The caller is responsible for never reusing a nonce with the same
    /// session key (Teechain uses per-message sequence numbers).
    pub fn seal(&self, nonce: u64, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let nonce_bytes = expand_nonce(nonce);
        let mut out = plaintext.to_vec();
        ChaCha20::new(&self.enc_key, &nonce_bytes).apply_keystream(1, &mut out);
        let tag = self.tag(&nonce_bytes, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts `ciphertext || tag`.
    pub fn open(&self, nonce: u64, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
        if sealed.len() < TAG_LEN {
            return Err(AeadError);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let nonce_bytes = expand_nonce(nonce);
        let expect = self.tag(&nonce_bytes, aad, ciphertext);
        if !ct_eq(&expect, tag) {
            return Err(AeadError);
        }
        let mut out = ciphertext.to_vec();
        ChaCha20::new(&self.enc_key, &nonce_bytes).apply_keystream(1, &mut out);
        Ok(out)
    }
}

fn expand_nonce(nonce: u64) -> [u8; 12] {
    let mut out = [0u8; 12];
    out[..8].copy_from_slice(&nonce.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Aead {
        Aead::new(&[0x42; 32])
    }

    #[test]
    fn roundtrip() {
        let a = ctx();
        let sealed = a.seal(1, b"header", b"secret payload");
        assert_eq!(a.open(1, b"header", &sealed).unwrap(), b"secret payload");
    }

    #[test]
    fn empty_plaintext() {
        let a = ctx();
        let sealed = a.seal(9, b"", b"");
        assert_eq!(a.open(9, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn wrong_nonce_rejected() {
        let a = ctx();
        let sealed = a.seal(1, b"h", b"data");
        assert_eq!(a.open(2, b"h", &sealed), Err(AeadError));
    }

    #[test]
    fn wrong_aad_rejected() {
        let a = ctx();
        let sealed = a.seal(1, b"h", b"data");
        assert_eq!(a.open(1, b"x", &sealed), Err(AeadError));
    }

    #[test]
    fn bit_flip_rejected() {
        let a = ctx();
        let mut sealed = a.seal(1, b"h", b"data");
        for i in 0..sealed.len() {
            sealed[i] ^= 1;
            assert_eq!(a.open(1, b"h", &sealed), Err(AeadError), "byte {i}");
            sealed[i] ^= 1;
        }
        assert!(a.open(1, b"h", &sealed).is_ok());
    }

    #[test]
    fn truncated_rejected() {
        let a = ctx();
        let sealed = a.seal(1, b"h", b"data");
        assert_eq!(a.open(1, b"h", &sealed[..10]), Err(AeadError));
        assert_eq!(a.open(1, b"h", &[]), Err(AeadError));
    }

    #[test]
    fn different_keys_incompatible() {
        let a = Aead::new(&[1; 32]);
        let b = Aead::new(&[2; 32]);
        let sealed = a.seal(1, b"", b"data");
        assert_eq!(b.open(1, b"", &sealed), Err(AeadError));
    }
}
