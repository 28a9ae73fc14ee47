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
//!
//! # Batch verification
//!
//! [`verify_batch`] checks k signatures with one multi-scalar
//! multiplication (Bernstein et al. 2012; BIP-340 §Batch Verification).
//! Each item must satisfy `sᵢ·G = Rᵢ + eᵢ·Pᵢ`; the batch checks the weighted
//! sum `Σaᵢsᵢ·G − Σaᵢeᵢ·Pᵢ − Σaᵢ·Rᵢ = O`. The weights keep one bad
//! signature from cancelling against another: `a₁ = 1`, and every other
//! `aᵢ` is a 128-bit value read from a tagged hash (`teechain/batch`) of
//! the whole batch — every item's challenge, which commits to its `R`, key
//! and message, and its response `s`. A forger who fixes the batch fixes
//! the weights, so an invalid batch passes with probability about 2⁻¹²⁸.
//! The weights need no randomness, so a verifier inside the simulator stays
//! bit-deterministic. By operation count a batch of three costs about 0.6×
//! three single verifications: the terms share one chain of doublings, one
//! fixed-base walk serves them all, and the `Rᵢ` terms carry 128-bit
//! scalars.

use crate::modarith::fn_order;
use crate::point::{base_double_mul, base_mul, base_multi_mul, Affine};
use crate::sha256::{tagged_hash, tagged_prefix, Sha256};
use crate::u256::U256;
use std::cell::Cell;
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
    if !well_formed(pk, sig) {
        return false;
    }
    tally(|t| t.singles += 1);
    let e = challenge(&sig.r, pk, msg);
    base_double_mul(&sig.s, &f.neg(&e), &pk.0).eq_affine(&sig.r)
}

/// Verifies every `(key, message, signature)` item at once: true iff each
/// would pass [`verify`] (with probability 1 − 2⁻¹²⁸ for an invalid batch;
/// see *Batch verification* above). Each item gets [`verify`]'s range and
/// on-curve checks first; an empty batch is vacuously valid, and a batch of
/// one is exactly [`verify`].
pub fn verify_batch<M: AsRef<[u8]>>(items: &[(PublicKey, M, Signature)]) -> bool {
    let f = fn_order();
    let Some((first_pk, _, first)) = items.first() else {
        return true;
    };
    if !items.iter().all(|(pk, _, sig)| well_formed(pk, sig)) {
        return false;
    }
    tally(|t| {
        t.batches += 1;
        t.batched += items.len() as u64;
    });
    let challenges: Vec<U256> = items
        .iter()
        .map(|(pk, msg, sig)| challenge(&sig.r, pk, msg.as_ref()))
        .collect();
    let mut seed = tagged_prefix("teechain/batch");
    for (e, (_, _, sig)) in challenges.iter().zip(items) {
        seed.update(&e.to_be_bytes()).update(&sig.s.to_be_bytes());
    }
    let seed = seed.finalize();
    // Σaᵢsᵢ·G − Σaᵢeᵢ·Pᵢ − Σ_{i≥2} aᵢ·Rᵢ must be R₁ (a₁ = 1).
    let mut g = first.s;
    let mut terms = Vec::with_capacity(2 * items.len());
    terms.push((f.neg(&challenges[0]), first_pk.0));
    for (i, (e, (pk, _, sig))) in challenges.iter().zip(items).enumerate().skip(1) {
        let a = batch_weight(&seed, i);
        g = f.add(&g, &f.mul(&a, &sig.s));
        terms.push((f.neg(&f.mul(&a, e)), pk.0));
        terms.push((a, sig.r.neg()));
    }
    base_multi_mul(&g, &terms).eq_affine(&first.r)
}

/// The weight of item `i ≥ 1` of a batch: the first 16 bytes of
/// `SHA256(seed || i)`, never zero.
fn batch_weight(seed: &[u8; 32], i: usize) -> U256 {
    let mut h = Sha256::new();
    h.update(seed).update(&(i as u64).to_le_bytes());
    let mut wide = [0u8; 32];
    wide[16..].copy_from_slice(&h.finalize()[..16]);
    let a = U256::from_be_bytes(&wide);
    if a.is_zero() {
        U256::ONE
    } else {
        a
    }
}

/// [`verify`]'s checks that need no curve arithmetic: `s` in `[1, n)`, and
/// `R` and the key on the curve.
fn well_formed(pk: &PublicKey, sig: &Signature) -> bool {
    !sig.s.is_zero() && sig.s < fn_order().m && sig.r.is_on_curve() && pk.0.is_on_curve()
}

/// How many verifications this thread has run: [`verify`] calls, and
/// [`verify_batch`] calls with the items they held (batches rejected by
/// the range and on-curve checks, and empty ones, are not counted). Read
/// with [`verify_tally`]; tests use it to pin which path a protocol step
/// takes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyTally {
    /// Single verifications.
    pub singles: u64,
    /// Batch verifications.
    pub batches: u64,
    /// Signatures checked by those batches.
    pub batched: u64,
}

thread_local! {
    static TALLY: Cell<VerifyTally> = const {
        Cell::new(VerifyTally { singles: 0, batches: 0, batched: 0 })
    };
}

fn tally(count: impl FnOnce(&mut VerifyTally)) {
    TALLY.with(|cell| {
        let mut t = cell.get();
        count(&mut t);
        cell.set(t);
    });
}

/// This thread's [`VerifyTally`] so far.
pub fn verify_tally() -> VerifyTally {
    TALLY.with(Cell::get)
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

    /// One `(key, message, signature)` item of a batch.
    type Item = (PublicKey, Vec<u8>, Signature);

    /// `n` signed items under distinct keys over distinct messages.
    fn batch(n: u8) -> Vec<Item> {
        (0..n)
            .map(|i| {
                let k = kp(100 + i);
                let msg = vec![i; usize::from(i) + 1];
                let sig = k.sign(&msg);
                (k.pk, msg, sig)
            })
            .collect()
    }

    #[test]
    fn batches_accept_valid_signatures() {
        assert!(verify_batch::<&[u8]>(&[]));
        for n in 1..=4 {
            assert!(verify_batch(&batch(n)), "batch of {n}");
        }
        // A batch may hold one key or one message more than once.
        let k = kp(17);
        let sig = k.sign(b"same");
        assert!(verify_batch(&[(k.pk, b"same", sig), (k.pk, b"same", sig)]));
    }

    #[test]
    fn batches_reject_what_verify_rejects() {
        let good = batch(3);
        let f = fn_order();
        // Out of range or off the curve, in any position.
        for i in 0..good.len() {
            for s in [U256::ZERO, f.m] {
                let mut bad = good.clone();
                bad[i].2.s = s;
                assert!(!verify_batch(&bad), "s = {s} at {i}");
            }
            let mut bad = good.clone();
            bad[i].2.r.y = bad[i].2.r.y + crate::field::Fe::ONE;
            assert!(!verify_batch(&bad), "R off the curve at {i}");
            let mut bad = good.clone();
            bad[i].2.r = bad[i].2.r.neg();
            assert!(!verify_batch(&bad), "negated R at {i}");
        }
    }

    #[test]
    fn offsetting_responses_pass_the_plain_sum_but_not_the_weighted_one() {
        // s₁ + δ and s₂ − δ: each signature is invalid, but the unweighted
        // sum Σsᵢ·G − Σeᵢ·Pᵢ − ΣRᵢ is still O.
        let f = fn_order();
        let mut items = batch(2);
        let delta = U256::from_u64(0x5eed);
        items[0].2.s = f.add(&items[0].2.s, &delta);
        items[1].2.s = f.sub(&items[1].2.s, &delta);
        for (pk, msg, sig) in &items {
            assert!(!verify(pk, msg, sig));
        }
        let sum_s = f.add(&items[0].2.s, &items[1].2.s);
        let terms: Vec<(U256, Affine)> = items
            .iter()
            .map(|(pk, msg, sig)| (f.neg(&challenge(&sig.r, pk, msg)), pk.0))
            .chain([(U256::ONE, items[1].2.r.neg())])
            .collect();
        assert!(base_multi_mul(&sum_s, &terms).eq_affine(&items[0].2.r));
        assert!(!verify_batch(&items));
    }

    #[test]
    fn the_tally_counts_single_and_batch_verifications() {
        let items = batch(3);
        let before = verify_tally();
        assert!(verify_batch(&items));
        assert!(verify(&items[0].0, &items[0].1, &items[0].2));
        let after = verify_tally();
        assert_eq!(
            (
                after.singles - before.singles,
                after.batches - before.batches,
                after.batched - before.batched
            ),
            (1, 1, 3)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn prop_batch_agrees_with_verify(
            seeds in proptest::collection::vec(any::<[u8; 32]>(), 1..9),
            pick in any::<usize>(),
        ) {
            let items: Vec<Item> = seeds
                .iter()
                .map(|seed| {
                    let k = Keypair::from_seed(seed);
                    let msg = seed[..usize::from(seed[0] % 32)].to_vec();
                    let sig = k.sign(&msg);
                    (k.pk, msg, sig)
                })
                .collect();
            prop_assert!(items.iter().all(|(pk, msg, sig)| verify(pk, msg, sig)));
            prop_assert!(verify_batch(&items));
            // Corrupt one item's s, R, message or key: the batch fails, as
            // that item's own verification does.
            let i = pick % items.len();
            let f = fn_order();
            let other = Keypair::from_seed(&[0xa5; 32]);
            let corruptions: [&dyn Fn(&mut Item); 4] = [
                &|it| it.2.s = f.add(&it.2.s, &U256::ONE),
                &|it| it.2.r = other.pk.0,
                &|it| it.1.push(0x01),
                &|it| it.0 = other.pk,
            ];
            for corrupt in corruptions {
                let mut bad = items.clone();
                corrupt(&mut bad[i]);
                prop_assert!(!verify(&bad[i].0, &bad[i].1, &bad[i].2));
                prop_assert!(!verify_batch(&bad));
            }
        }

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
