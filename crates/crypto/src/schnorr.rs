//! Schnorr signatures over secp256k1.
//!
//! The scheme follows the BIP-340 structure (tagged hashes, deterministic
//! nonces, challenge `e = H(R || P || m)`, response `s = k + e·x`) but keeps
//! full 64-byte points instead of x-only keys — the simplification does not
//! change any property Teechain relies on.
//!
//! Signing takes a [`Keypair`], never a bare private key: the nonce and the
//! challenge both hash the public key, and deriving it costs as much as the
//! signature itself. One signature is one fixed-base multiplication plus the
//! one inversion that normalises `R`; one verification is one double-scalar
//! multiplication compared against `R` projectively, with no inversion.

use crate::modarith::fn_order;
use crate::point::{base_double_mul, base_mul, Affine};
use crate::sha256::tagged_hash;
use crate::u256::U256;
use teechain_util::hex;

/// A private key: a nonzero scalar modulo the group order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey(pub(crate) U256);

/// A public key: an affine curve point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub Affine);

/// A key pair: the signing handle. Build one with [`Keypair::from_seed`],
/// or from a stored private key with `Keypair::from(sk)` (which derives the
/// public half, once).
#[derive(Clone, Copy)]
pub struct Keypair {
    /// The private half.
    pub sk: PrivateKey,
    /// The public half.
    pub pk: PublicKey,
}

/// A 96-byte Schnorr signature `(R, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The nonce commitment `R = kG`.
    pub r: Affine,
    /// The response scalar.
    pub s: U256,
}

impl std::fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "PrivateKey(<redacted>)")
    }
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({}..)", &self.0.x.to_hex()[..8])
    }
}

impl PrivateKey {
    /// Derives a private key from 32 bytes of seed material. The seed is
    /// hashed so that any distribution of input bytes yields a well-formed
    /// scalar; all-zero outputs are rehashed.
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        let f = fn_order();
        let mut digest = tagged_hash("teechain/keygen", &[seed]);
        loop {
            let scalar = f.from_bytes(&digest);
            if !scalar.is_zero() {
                return PrivateKey(scalar);
            }
            digest = tagged_hash("teechain/keygen", &[&digest]);
        }
    }

    /// Serializes the scalar (big-endian).
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Parses a serialized scalar; rejects zero and out-of-range values.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let v = U256::from_be_bytes(bytes);
        if v.is_zero() || v >= fn_order().m {
            return None;
        }
        Some(PrivateKey(v))
    }

    /// Computes the matching public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(
            base_mul(&self.0)
                .to_affine()
                .expect("nonzero scalar times G is never infinity"),
        )
    }
}

impl Keypair {
    /// Generates a key pair from seed bytes (see [`PrivateKey::from_seed`]).
    pub fn from_seed(seed: &[u8; 32]) -> Self {
        PrivateKey::from_seed(seed).into()
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        sign(self, msg)
    }
}

impl From<PrivateKey> for Keypair {
    fn from(sk: PrivateKey) -> Self {
        Keypair {
            sk,
            pk: sk.public_key(),
        }
    }
}

impl PublicKey {
    /// Serializes as 64 bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0.to_bytes()
    }

    /// Parses and validates 64 bytes.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Self> {
        Affine::from_bytes(bytes).map(PublicKey)
    }

    /// Short printable fingerprint (first 8 hex digits of x).
    pub fn fingerprint(&self) -> String {
        hex::encode(&self.0.x.to_be_bytes()[..4])
    }
}

fn challenge(r: &Affine, pk: &PublicKey, msg: &[u8]) -> U256 {
    let digest = tagged_hash("teechain/challenge", &[&r.to_bytes(), &pk.to_bytes(), msg]);
    fn_order().from_bytes(&digest)
}

/// Signs `msg` with a deterministic (RFC 6979-style) nonce.
pub fn sign(key: &Keypair, msg: &[u8]) -> Signature {
    let f = fn_order();
    let Keypair { sk, pk } = key;
    let mut nonce_seed = tagged_hash("teechain/nonce", &[&sk.to_bytes(), &pk.to_bytes(), msg]);
    loop {
        let k = f.from_bytes(&nonce_seed);
        if !k.is_zero() {
            let r = base_mul(&k)
                .to_affine()
                .expect("nonzero nonce times G is never infinity");
            let e = challenge(&r, pk, msg);
            let s = f.add(&k, &f.mul(&e, &sk.0));
            return Signature { r, s };
        }
        nonce_seed = tagged_hash("teechain/nonce", &[&nonce_seed]);
    }
}

/// Verifies a signature: checks `s·G − e·P == R`, which is `s·G == R + e·P`
/// with `s·G` required to be a point (so `s = 0` never verifies).
pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    let f = fn_order();
    if sig.s.is_zero() || sig.s >= f.m || !sig.r.is_on_curve() || !pk.0.is_on_curve() {
        return false;
    }
    let e = challenge(&sig.r, pk, msg);
    base_double_mul(&sig.s, &f.neg(&e), &pk.0).eq_affine(&sig.r)
}

impl Signature {
    /// Serializes as 96 bytes (`R || s`).
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..64].copy_from_slice(&self.r.to_bytes());
        out[64..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses 96 bytes. Only the canonical encoding is accepted: `R` must
    /// be a curve point with reduced coordinates and `s` must be below the
    /// group order, so a blob [`verify`] would reject on range grounds never
    /// becomes a `Signature`.
    pub fn from_bytes(bytes: &[u8; 96]) -> Option<Self> {
        let r = Affine::from_bytes(bytes[..64].try_into().unwrap())?;
        let s = U256::from_be_bytes(bytes[64..].try_into().unwrap());
        (s < fn_order().m).then_some(Signature { r, s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let k = kp(1);
        let sig = k.sign(b"hello teechain");
        assert!(verify(&k.pk, b"hello teechain", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let k = kp(2);
        let sig = k.sign(b"msg");
        assert!(!verify(&k.pk, b"other", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let a = kp(3);
        let b = kp(4);
        let sig = a.sign(b"msg");
        assert!(!verify(&b.pk, b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let k = kp(5);
        let mut sig = k.sign(b"msg");
        sig.s = fn_order().add(&sig.s, &U256::ONE);
        assert!(!verify(&k.pk, b"msg", &sig));
    }

    #[test]
    fn deterministic_nonce() {
        let k = kp(6);
        assert_eq!(k.sign(b"m").to_bytes(), k.sign(b"m").to_bytes());
        assert_ne!(k.sign(b"m").to_bytes(), k.sign(b"n").to_bytes());
    }

    #[test]
    fn signature_serialization() {
        let k = kp(7);
        let sig = k.sign(b"serialize me");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(verify(&k.pk, b"serialize me", &parsed));
    }

    #[test]
    fn key_serialization() {
        let k = kp(8);
        assert_eq!(PublicKey::from_bytes(&k.pk.to_bytes()), Some(k.pk));
        let sk2 = PrivateKey::from_bytes(&k.sk.to_bytes()).unwrap();
        assert_eq!(sk2.public_key(), k.pk);
        assert_eq!(PrivateKey::from_bytes(&[0u8; 32]), None);
        assert_eq!(PrivateKey::from_bytes(&[0xff; 32]), None);
    }

    #[test]
    fn keypair_from_private_key_derives_the_same_public_half() {
        let k = kp(10);
        let rebuilt = Keypair::from(k.sk);
        assert_eq!(rebuilt.pk, k.pk);
        assert_eq!(sign(&rebuilt, b"m"), k.sign(b"m"));
    }

    #[test]
    fn non_canonical_signatures_do_not_parse() {
        let k = kp(11);
        let good = k.sign(b"canonical").to_bytes();
        assert!(Signature::from_bytes(&good).is_some());
        let n = fn_order().m;
        let max = U256 {
            limbs: [u64::MAX; 4],
        };
        for s in [n, n.overflowing_add(&U256::ONE).0, max] {
            let mut bytes = good;
            bytes[64..].copy_from_slice(&s.to_be_bytes());
            assert_eq!(Signature::from_bytes(&bytes), None, "s = {s}");
        }
        // s = n − 1 is in range (it parses; it just does not verify).
        let mut bytes = good;
        bytes[64..].copy_from_slice(&n.overflowing_sub(&U256::ONE).0.to_be_bytes());
        let parsed = Signature::from_bytes(&bytes).expect("s = n - 1 is canonical");
        assert!(!verify(&k.pk, b"canonical", &parsed));
        // R with x >= p.
        for x in [crate::field::P, max] {
            let mut bytes = good;
            bytes[..32].copy_from_slice(&x.to_be_bytes());
            assert_eq!(Signature::from_bytes(&bytes), None, "R.x = {x}");
        }
    }

    #[test]
    fn out_of_range_s_rejected_by_verify_too() {
        // `Signature` has public fields, so `verify` cannot rely on the parser.
        let k = kp(12);
        let mut sig = k.sign(b"msg");
        sig.s = sig.s.overflowing_add(&fn_order().m).0;
        assert!(!verify(&k.pk, b"msg", &sig));
        sig.s = fn_order().m;
        assert!(!verify(&k.pk, b"msg", &sig));
        sig.s = U256::ZERO;
        assert!(!verify(&k.pk, b"msg", &sig));
    }

    #[test]
    fn negated_nonce_point_rejected() {
        let k = kp(13);
        let mut sig = k.sign(b"msg");
        sig.r = sig.r.neg();
        assert!(!verify(&k.pk, b"msg", &sig));
    }

    #[test]
    fn combination_at_infinity_rejected() {
        // Pick any R, then s = e·x so that s·G − e·P is the identity.
        let k = kp(14);
        let f = fn_order();
        let r = kp(15).pk.0;
        let e = challenge(&r, &k.pk, b"msg");
        let sig = Signature {
            r,
            s: f.mul(&e, &k.sk.0),
        };
        assert!(base_double_mul(&sig.s, &f.neg(&e), &k.pk.0).is_infinity());
        assert!(!verify(&k.pk, b"msg", &sig));
    }

    #[test]
    fn off_curve_points_rejected() {
        let k = kp(16);
        let sig = k.sign(b"msg");
        let mut bad_r = sig;
        bad_r.r.y = bad_r.r.y + crate::field::Fe::ONE;
        assert!(!bad_r.r.is_on_curve());
        assert!(!verify(&k.pk, b"msg", &bad_r));
        let mut bad_pk = k.pk;
        bad_pk.0.x = bad_pk.0.x + crate::field::Fe::ONE;
        assert!(!bad_pk.0.is_on_curve());
        assert!(!verify(&bad_pk, b"msg", &sig));
    }

    #[test]
    fn empty_message() {
        let k = kp(9);
        assert!(verify(&k.pk, b"", &k.sign(b"")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_sign_verify(seed in any::<[u8;32]>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            let k = Keypair::from_seed(&seed);
            let sig = k.sign(&msg);
            prop_assert!(verify(&k.pk, &msg, &sig));
            // Any flipped message bit invalidates the signature.
            if !msg.is_empty() {
                let mut bad = msg.clone();
                bad[0] ^= 1;
                prop_assert!(!verify(&k.pk, &bad, &sig));
            }
        }
    }
}
