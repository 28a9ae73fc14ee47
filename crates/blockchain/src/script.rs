//! Output spending conditions.

use teechain_crypto::schnorr::{self, PublicKey, Signature};
use teechain_crypto::sha256::sha256;
use teechain_util::codec::WireError;

/// The condition under which a transaction output may be spent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScriptPubKey {
    /// Spendable with one signature from the given key.
    P2pk(PublicKey),
    /// Spendable with `m` signatures from distinct keys in `keys`
    /// (the paper's m-out-of-n multisignature address, §3).
    Multisig {
        /// Threshold number of signatures.
        m: u8,
        /// The committee's public keys.
        keys: Vec<PublicKey>,
    },
    /// A Lightning-style revocable output: `owner` may spend after the
    /// output has `delay_blocks` confirmations (a CSV relative timelock);
    /// the `revocation` key may spend immediately (the justice path).
    /// Used only by the Lightning baseline — Teechain never needs
    /// timelocks, which is the whole point of the paper.
    Revocable {
        /// The delayed owner key.
        owner: PublicKey,
        /// Relative timelock in blocks (the synchrony parameter τ).
        delay_blocks: u64,
        /// The immediate revocation key.
        revocation: PublicKey,
    },
    /// A hashed timelock contract output for cross-chain atomic swaps:
    /// `claim_key` may spend at any time by revealing a preimage whose
    /// SHA-256 equals `hash`; `refund_key` may spend without a preimage
    /// once the output has `timeout_blocks` confirmations (a CSV relative
    /// timelock). The two paths are mutually exclusive: a claim witness
    /// never satisfies the refund path and vice versa.
    Htlc {
        /// SHA-256 of the swap secret.
        hash: [u8; 32],
        /// Key entitled to the preimage-gated claim path.
        claim_key: PublicKey,
        /// Key entitled to the timelocked refund path.
        refund_key: PublicKey,
        /// Relative timelock (in confirmations of the spent output) before
        /// the refund path opens.
        timeout_blocks: u64,
    },
}

impl ScriptPubKey {
    /// Builds a multisig script, validating the threshold.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or exceeds the number of keys, or if keys
    /// repeat (a repeated key would weaken the threshold).
    pub fn multisig(m: u8, keys: Vec<PublicKey>) -> Self {
        assert!(m >= 1 && (m as usize) <= keys.len(), "invalid threshold");
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "duplicate committee key");
        ScriptPubKey::Multisig { m, keys }
    }

    /// Number of public keys this script places on the chain.
    pub fn pubkey_count(&self) -> usize {
        match self {
            ScriptPubKey::P2pk(_) => 1,
            ScriptPubKey::Multisig { keys, .. } => keys.len(),
            ScriptPubKey::Revocable { .. } => 2,
            ScriptPubKey::Htlc { .. } => 2,
        }
    }

    /// Number of signatures required to spend.
    pub fn required_sigs(&self) -> usize {
        match self {
            ScriptPubKey::P2pk(_) => 1,
            ScriptPubKey::Multisig { m, .. } => *m as usize,
            ScriptPubKey::Revocable { .. } => 1,
            ScriptPubKey::Htlc { .. } => 1,
        }
    }

    /// Verifies a witness against `sighash`. `confirmations` is the number
    /// of confirmations of the *spent output* (for relative timelocks).
    ///
    /// For multisig, each signature must verify under a *distinct* key from
    /// the committee; extra signatures beyond `m` are permitted but
    /// unnecessary.
    ///
    /// For [`ScriptPubKey::Htlc`] this checks the refund path only — the
    /// claim path additionally needs a preimage, which only
    /// [`ScriptPubKey::verify_spend_at`] carries.
    pub fn verify_witness_at(
        &self,
        sighash: &[u8; 32],
        witness: &[Signature],
        confirmations: u64,
    ) -> bool {
        self.verify_spend_at(sighash, witness, &[], confirmations)
    }

    /// Verifies a full spend: witness signatures plus the (possibly empty)
    /// hashlock preimage carried by the spending input. This is the method
    /// consensus validation uses; `verify_witness_at` is the signature-only
    /// view for scripts without hashlocks.
    pub fn verify_spend_at(
        &self,
        sighash: &[u8; 32],
        witness: &[Signature],
        preimage: &[u8],
        confirmations: u64,
    ) -> bool {
        match self {
            ScriptPubKey::P2pk(pk) => witness.iter().any(|sig| schnorr::verify(pk, sighash, sig)),
            ScriptPubKey::Revocable {
                owner,
                delay_blocks,
                revocation,
            } => witness.iter().any(|sig| {
                schnorr::verify(revocation, sighash, sig)
                    || (confirmations >= *delay_blocks && schnorr::verify(owner, sighash, sig))
            }),
            ScriptPubKey::Multisig { m, keys } => {
                let mut used = vec![false; keys.len()];
                let mut valid = 0usize;
                for sig in witness {
                    for (i, key) in keys.iter().enumerate() {
                        if !used[i] && schnorr::verify(key, sighash, sig) {
                            used[i] = true;
                            valid += 1;
                            break;
                        }
                    }
                    if valid >= *m as usize {
                        return true;
                    }
                }
                false
            }
            ScriptPubKey::Htlc {
                hash,
                claim_key,
                refund_key,
                timeout_blocks,
            } => {
                let claim = !preimage.is_empty()
                    && sha256(preimage) == *hash
                    && witness
                        .iter()
                        .any(|sig| schnorr::verify(claim_key, sighash, sig));
                let refund = confirmations >= *timeout_blocks
                    && witness
                        .iter()
                        .any(|sig| schnorr::verify(refund_key, sighash, sig));
                claim || refund
            }
        }
    }

    /// Verifies a witness ignoring timelocks (legacy helper for scripts
    /// without delays).
    pub fn verify_witness(&self, sighash: &[u8; 32], witness: &[Signature]) -> bool {
        self.verify_witness_at(sighash, witness, u64::MAX)
    }
}

/// A multisig threshold must be met by the keys it names: `1..=keys.len()`.
fn check_threshold(script: &ScriptPubKey) -> Result<(), WireError> {
    match script {
        ScriptPubKey::Multisig { m, keys } if *m == 0 || *m as usize > keys.len() => {
            Err(WireError::InvalidValue("multisig threshold"))
        }
        _ => Ok(()),
    }
}

teechain_util::impl_wire_enum!(ScriptPubKey, "script tag", check = check_threshold {
    P2pk = 0 (pk),
    Multisig = 1 { m, keys },
    Revocable = 2 { owner, delay_blocks, revocation },
    Htlc = 3 { hash, claim_key, refund_key, timeout_blocks },
});

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_crypto::schnorr::Keypair;
    use teechain_util::codec::{Decode, Encode};

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    #[test]
    fn p2pk_verifies_correct_signer() {
        let k = kp(1);
        let script = ScriptPubKey::P2pk(k.pk);
        let sighash = [7u8; 32];
        assert!(script.verify_witness(&sighash, &[k.sign(&sighash)]));
        assert!(!script.verify_witness(&sighash, &[kp(2).sign(&sighash)]));
        assert!(!script.verify_witness(&sighash, &[]));
    }

    #[test]
    fn a_multisig_threshold_its_keys_cannot_meet_is_refused_on_decode() {
        let keys = vec![kp(1).pk, kp(2).pk];
        for (m, ok) in [(0, false), (1, true), (2, true), (3, false)] {
            let script = ScriptPubKey::Multisig {
                m,
                keys: keys.clone(),
            };
            let decoded = ScriptPubKey::decode_exact(&script.encode_to_vec());
            if ok {
                assert_eq!(decoded, Ok(script));
            } else {
                assert_eq!(decoded, Err(WireError::InvalidValue("multisig threshold")));
            }
        }
    }

    #[test]
    fn multisig_two_of_three() {
        let (a, b, c) = (kp(1), kp(2), kp(3));
        let script = ScriptPubKey::multisig(2, vec![a.pk, b.pk, c.pk]);
        let h = [9u8; 32];
        assert!(script.verify_witness(&h, &[a.sign(&h), c.sign(&h)]));
        assert!(script.verify_witness(&h, &[c.sign(&h), b.sign(&h)]));
        // One signature is not enough.
        assert!(!script.verify_witness(&h, &[a.sign(&h)]));
        // The same signature twice must not count as two signers.
        assert!(!script.verify_witness(&h, &[a.sign(&h), a.sign(&h)]));
        // A foreign signature contributes nothing.
        assert!(!script.verify_witness(&h, &[a.sign(&h), kp(4).sign(&h)]));
    }

    #[test]
    fn multisig_full_threshold() {
        let ks: Vec<Keypair> = (1..=4).map(kp).collect();
        let script = ScriptPubKey::multisig(4, ks.iter().map(|k| k.pk).collect());
        let h = [1u8; 32];
        let wit: Vec<_> = ks.iter().map(|k| k.sign(&h)).collect();
        assert!(script.verify_witness(&h, &wit));
        assert!(!script.verify_witness(&h, &wit[..3]));
    }

    #[test]
    #[should_panic(expected = "invalid threshold")]
    fn zero_threshold_rejected() {
        let _ = ScriptPubKey::multisig(0, vec![kp(1).pk]);
    }

    #[test]
    #[should_panic(expected = "duplicate committee key")]
    fn duplicate_keys_rejected() {
        let k = kp(1);
        let _ = ScriptPubKey::multisig(1, vec![k.pk, k.pk]);
    }

    #[test]
    fn codec_roundtrip() {
        let script = ScriptPubKey::multisig(2, vec![kp(1).pk, kp(2).pk, kp(3).pk]);
        let decoded = ScriptPubKey::decode_exact(&script.encode_to_vec()).unwrap();
        assert_eq!(decoded, script);
    }

    fn htlc(secret: &[u8], claim: &Keypair, refund: &Keypair, timeout: u64) -> ScriptPubKey {
        ScriptPubKey::Htlc {
            hash: sha256(secret),
            claim_key: claim.pk,
            refund_key: refund.pk,
            timeout_blocks: timeout,
        }
    }

    #[test]
    fn htlc_claim_needs_preimage_and_claim_key() {
        let (claim, refund) = (kp(1), kp(2));
        let script = htlc(b"secret", &claim, &refund, 10);
        let h = [3u8; 32];
        let sig = claim.sign(&h);
        // Correct preimage + claim signature: spendable immediately.
        assert!(script.verify_spend_at(&h, &[sig], b"secret", 1));
        // Wrong preimage rejected.
        assert!(!script.verify_spend_at(&h, &[sig], b"wrong", 1));
        // Empty preimage rejected before timeout.
        assert!(!script.verify_spend_at(&h, &[sig], &[], 1));
        // Preimage without a claim-key signature rejected.
        assert!(!script.verify_spend_at(&h, &[refund.sign(&h)], b"secret", 1));
    }

    #[test]
    fn htlc_refund_needs_maturity_and_refund_key() {
        let (claim, refund) = (kp(1), kp(2));
        let script = htlc(b"secret", &claim, &refund, 10);
        let h = [4u8; 32];
        let sig = refund.sign(&h);
        // Refund before timeout rejected.
        assert!(!script.verify_spend_at(&h, &[sig], &[], 9));
        // Refund at/after timeout accepted.
        assert!(script.verify_spend_at(&h, &[sig], &[], 10));
        assert!(script.verify_spend_at(&h, &[sig], &[], 1000));
        // The claim key cannot take the refund path even after timeout.
        assert!(!script.verify_spend_at(&h, &[claim.sign(&h)], &[], 1000));
    }

    #[test]
    fn htlc_codec_roundtrip() {
        let script = htlc(b"s", &kp(1), &kp(2), 144);
        let decoded = ScriptPubKey::decode_exact(&script.encode_to_vec()).unwrap();
        assert_eq!(decoded, script);
    }
}

#[cfg(test)]
mod htlc_props {
    use super::*;
    use proptest::prelude::*;
    use teechain_crypto::schnorr::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    proptest! {
        /// Any preimage other than the committed secret is rejected on the
        /// claim path, regardless of maturity.
        #[test]
        fn wrong_preimage_rejected(
            secret in proptest::collection::vec(any::<u8>(), 1..64),
            wrong in proptest::collection::vec(any::<u8>(), 1..64),
            confs in 0u64..1000,
        ) {
            prop_assume!(wrong != secret);
            let (claim, refund) = (kp(1), kp(2));
            let script = ScriptPubKey::Htlc {
                hash: sha256(&secret),
                claim_key: claim.pk,
                refund_key: refund.pk,
                timeout_blocks: u64::MAX,
            };
            let h = [7u8; 32];
            let sig = claim.sign(&h);
            prop_assert!(script.verify_spend_at(&h, &[sig], &secret, confs));
            prop_assert!(!script.verify_spend_at(&h, &[sig], &wrong, confs));
        }

        /// The refund path stays closed strictly before `timeout_blocks`
        /// confirmations and opens exactly at it.
        #[test]
        fn refund_gated_by_timeout(
            timeout in 1u64..500,
            early in 0u64..500,
            late in 0u64..500,
        ) {
            let (claim, refund) = (kp(1), kp(2));
            let script = ScriptPubKey::Htlc {
                hash: sha256(b"s"),
                claim_key: claim.pk,
                refund_key: refund.pk,
                timeout_blocks: timeout,
            };
            let h = [8u8; 32];
            let sig = refund.sign(&h);
            let early = early.min(timeout - 1);
            let late = timeout + late;
            prop_assert!(!script.verify_spend_at(&h, &[sig], &[], early));
            prop_assert!(script.verify_spend_at(&h, &[sig], &[], late));
        }

        /// Path exclusivity: a claim witness (claim signature + preimage)
        /// never validates through the refund key, and a refund witness
        /// (refund signature, no preimage) never validates through the
        /// claim key — under every maturity.
        #[test]
        fn paths_mutually_exclusive(
            secret in proptest::collection::vec(any::<u8>(), 1..64),
            timeout in 1u64..500,
            confs in 0u64..1000,
        ) {
            let (claim, refund) = (kp(1), kp(2));
            let script = ScriptPubKey::Htlc {
                hash: sha256(&secret),
                claim_key: claim.pk,
                refund_key: refund.pk,
                timeout_blocks: timeout,
            };
            let h = [9u8; 32];
            // Refund-key signature plus the true preimage: the claim path
            // demands the claim key, the refund path demands maturity.
            let cross = script.verify_spend_at(&h, &[refund.sign(&h)], &secret, confs);
            prop_assert_eq!(cross, confs >= timeout);
            // Claim-key signature with no preimage: only the (closed to
            // this key) refund path could apply — always rejected.
            prop_assert!(!script.verify_spend_at(&h, &[claim.sign(&h)], &[], confs));
            // No witness at all never spends.
            prop_assert!(!script.verify_spend_at(&h, &[], &secret, confs));
        }
    }
}
