//! Cross-chain atomic swaps: PHTLC-style commit/lock/redeem/refund
//! bridging a Teechain channel balance to an asset on a second,
//! independent chain.
//!
//! ## Protocol
//!
//! The *initiator* trades `amount` of its balance on an open Teechain
//! channel for `alt_amount` locked on the other chain by the
//! *responder*. The swap secret is generated **inside** the initiator's
//! enclave and never leaves it except through the redeem itself:
//!
//! 1. **Init** — the initiator's enclave draws a 32-byte secret, commits
//!    `hash = SHA-256(secret)`, and sends `SwapInit` over the channel's
//!    sealed session.
//! 2. **Locked** — the responder's host mints an
//!    [`ScriptPubKey::Htlc`](teechain_blockchain::ScriptPubKey) output
//!    on the alternate chain (claimable by the initiator's identity key
//!    with the preimage, refundable to the responder after
//!    `timeout_blocks` confirmations) and the responder's enclave
//!    acknowledges with `SwapLocked`.
//! 3. **Redeemed** — the initiator's host verifies the lock on-chain;
//!    the enclave then *atomically* (one WAL commit) debits the channel,
//!    broadcasts the preimage-revealing claim transaction on the
//!    alternate chain, and sends `SwapSecret` to the responder, who
//!    credits the channel. A responder that misses `SwapSecret` learns
//!    the preimage from the confirmed claim spend
//!    ([`Chain::find_spender`](teechain_blockchain::Chain::find_spender)).
//! 4. **Refunded** — if the secret is withheld past the timeout, the
//!    responder's refund timer signs and broadcasts the timelocked
//!    refund path; the initiator's deadline timer aborts locally without
//!    ever debiting the channel. Both sides end refunded.
//!
//! Every phase transition is staged as a
//! [`StateDelta::Swap`](crate::msg::StateDelta) riding the ordinary
//! group-commit WAL, so a crash at any phase boundary recovers to
//! exactly the committed phase and the timers re-drive the (idempotent)
//! outstanding effects. The invariant the conformance suite checks:
//! every swap resolves to exactly one of {redeemed-both, refunded-both},
//! and value is conserved on the channel and on both chains.

use crate::types::{ChannelId, SwapId};
use teechain_blockchain::{OutPoint, ScriptPubKey, Transaction, TxIn, TxOut};
use teechain_crypto::schnorr::{Keypair, PublicKey};
use teechain_util::codec::{Decode, Encode, Reader, WireError};

/// Where a swap stands. Phases only ever advance: `Init → Locked →`
/// exactly one of `{Redeemed, Refunded}` (Init may also jump straight to
/// `Refunded` when aborted before anything locked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPhase {
    /// Proposed; nothing locked on either ledger.
    Init,
    /// The responder's HTLC is live on the alternate chain.
    Locked,
    /// Secret revealed: channel debited/credited, claim broadcast.
    Redeemed,
    /// Timed out or aborted: no channel movement, refund path taken.
    Refunded,
}

impl SwapPhase {
    /// Stable lowercase name (metrics labels, fingerprints).
    pub fn name(&self) -> &'static str {
        match self {
            SwapPhase::Init => "init",
            SwapPhase::Locked => "locked",
            SwapPhase::Redeemed => "redeemed",
            SwapPhase::Refunded => "refunded",
        }
    }

    /// True while the swap can still go either way.
    pub fn pending(&self) -> bool {
        matches!(self, SwapPhase::Init | SwapPhase::Locked)
    }
}

impl Encode for SwapPhase {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            SwapPhase::Init => 0,
            SwapPhase::Locked => 1,
            SwapPhase::Redeemed => 2,
            SwapPhase::Refunded => 3,
        };
        tag.encode(out);
    }
}

impl Decode for SwapPhase {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read::<u8>()? {
            0 => SwapPhase::Init,
            1 => SwapPhase::Locked,
            2 => SwapPhase::Redeemed,
            3 => SwapPhase::Refunded,
            _ => return Err(WireError::InvalidValue("swap phase")),
        })
    }
}

/// Full per-swap enclave state. Snapshotted into the sealed state image
/// and replayed from [`StateDelta::Swap`](crate::msg::StateDelta) WAL
/// records, so it survives crashes bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapState {
    /// Host-chosen instance id (operation correlation).
    pub id: SwapId,
    /// The Teechain channel whose balance is being traded.
    pub channel: ChannelId,
    /// Counterparty enclave identity.
    pub remote: PublicKey,
    /// True on the side that proposed the swap (and holds the secret).
    pub initiator: bool,
    /// Channel balance moved initiator → responder on redeem.
    pub amount: u64,
    /// Alternate-chain value locked responder → initiator.
    pub alt_amount: u64,
    /// SHA-256 commitment to the secret.
    pub hash: [u8; 32],
    /// The secret itself — `Some` inside the initiator's enclave from
    /// Init, and inside the responder's only after redeem.
    pub secret: Option<[u8; 32]>,
    /// HTLC refund timelock, in confirmations on the alternate chain.
    pub timeout_blocks: u64,
    /// The HTLC output once funded (Locked and later).
    pub htlc_outpoint: Option<OutPoint>,
    /// Initiator-side wall/sim-clock deadline (ns) after which a still
    /// pending swap is unilaterally aborted.
    pub deadline_ns: u64,
    /// Current phase.
    pub phase: SwapPhase,
}

teechain_util::impl_wire_struct!(SwapState {
    id,
    channel,
    remote,
    initiator,
    amount,
    alt_amount,
    hash,
    secret,
    timeout_blocks,
    htlc_outpoint,
    deadline_ns,
    phase,
});

impl SwapState {
    /// The HTLC script this swap locks on the alternate chain, from the
    /// perspective of the enclave whose identity key is `me`.
    pub fn htlc_script(&self, me: &PublicKey) -> ScriptPubKey {
        let (claim_key, refund_key) = if self.initiator {
            (*me, self.remote)
        } else {
            (self.remote, *me)
        };
        ScriptPubKey::Htlc {
            hash: self.hash,
            claim_key,
            refund_key,
            timeout_blocks: self.timeout_blocks,
        }
    }
}

/// How a swap resolved — the typed payload of a swap operation's
/// completion. Both resolutions are *successful* operations (the protocol
/// worked); only a stuck swap would be a failure, and the conformance
/// suite asserts there are none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapOutcome {
    /// The swap.
    pub swap: SwapId,
    /// True if redeemed on both ledgers, false if refunded on both.
    pub redeemed: bool,
}

/// Builds the preimage-revealing claim transaction spending the HTLC
/// output to `dest`, signed by `key` (the claim key).
pub fn claim_tx(
    outpoint: OutPoint,
    value: u64,
    secret: &[u8; 32],
    dest: PublicKey,
    key: &Keypair,
) -> Transaction {
    let mut input = TxIn::spend(outpoint);
    input.preimage = secret.to_vec();
    let mut tx = Transaction {
        inputs: vec![input],
        outputs: vec![TxOut {
            value,
            script: ScriptPubKey::P2pk(dest),
        }],
    };
    tx.sign_input(0, key);
    tx
}

/// Builds the timelocked refund transaction returning the HTLC output to
/// `dest`, signed by `key` (the refund key). Valid on-chain only once the
/// HTLC has `timeout_blocks` confirmations.
pub fn refund_tx(outpoint: OutPoint, value: u64, dest: PublicKey, key: &Keypair) -> Transaction {
    let mut tx = Transaction {
        inputs: vec![TxIn::spend(outpoint)],
        outputs: vec![TxOut {
            value,
            script: ScriptPubKey::P2pk(dest),
        }],
    };
    tx.sign_input(0, key);
    tx
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_crypto::sha256::sha256;

    #[test]
    fn swap_state_roundtrip() {
        let state = SwapState {
            id: SwapId::from_label("s1"),
            channel: ChannelId::from_label("c1"),
            remote: Keypair::from_seed(&[1; 32]).pk,
            initiator: true,
            amount: 40,
            alt_amount: 70,
            hash: sha256(b"secret"),
            secret: Some(*b"01234567890123456789012345678901"),
            timeout_blocks: 6,
            htlc_outpoint: None,
            deadline_ns: 1_000_000,
            phase: SwapPhase::Locked,
        };
        let decoded = SwapState::decode_exact(&state.encode_to_vec()).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn claim_and_refund_conflict() {
        let (a, b) = (Keypair::from_seed(&[1; 32]), Keypair::from_seed(&[2; 32]));
        let op = OutPoint {
            txid: teechain_blockchain::TxId([7; 32]),
            vout: 0,
        };
        let secret = [9u8; 32];
        let claim = claim_tx(op, 100, &secret, a.pk, &a);
        let refund = refund_tx(op, 100, b.pk, &b);
        assert!(claim.conflicts_with(&refund));
        assert_eq!(claim.inputs[0].preimage, secret.to_vec());
        // Attaching the preimage does not change the signed digest.
        let mut stripped = claim.clone();
        stripped.inputs[0].preimage.clear();
        assert_eq!(stripped.txid(), claim.txid());
    }

    #[test]
    fn phase_codec_and_names() {
        for phase in [
            SwapPhase::Init,
            SwapPhase::Locked,
            SwapPhase::Redeemed,
            SwapPhase::Refunded,
        ] {
            let decoded = SwapPhase::decode_exact(&phase.encode_to_vec()).unwrap();
            assert_eq!(decoded, phase);
        }
        assert!(SwapPhase::Init.pending());
        assert!(SwapPhase::Locked.pending());
        assert!(!SwapPhase::Redeemed.pending());
        assert_eq!(SwapPhase::Refunded.name(), "refunded");
    }
}
