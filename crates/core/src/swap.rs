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
//!
//! The swap commands, messages and the swap tick are handled here.

use crate::enclave::{Effect, Gate, HostEvent, Outcome, TeechainEnclave};
use crate::msg::{ProtocolMsg, StateDelta};
use crate::ops::{MatchKey, OpOutput};
use crate::types::{ChannelId, ProtocolError, SwapId};
use teechain_blockchain::{OutPoint, ScriptPubKey, Transaction, TxIn, TxOut};
use teechain_crypto::schnorr::{Keypair, PublicKey};
use teechain_crypto::sha256::sha256;
use teechain_tee::EnclaveEnv;

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

teechain_util::impl_wire_enum!(SwapPhase, "swap phase" {
    Init = 0,
    Locked = 1,
    Redeemed = 2,
    Refunded = 3,
});

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

/// Initiator/responder wall-or-sim-clock budget (ns) for a swap to reach
/// resolution before the local deadline abort kicks in. Generous enough
/// for live round trips; sim tests advance virtual time past it.
const SWAP_DEADLINE_NS: u64 = 2_000_000_000;
/// Re-check cadence (ns) for a pending swap's chain watch.
const SWAP_CHECK_INTERVAL_NS: u64 = 200_000_000;
/// Minimum headroom, in alternate-chain blocks, the initiator demands
/// between an HTLC's confirmations and its refund timelock before it
/// debits the channel and reveals the secret. A responder that delivers
/// the lock late — refund path mature or about to mature — could race
/// its own refund against our claim and win on both ledgers; refusing
/// while `confirmations + margin >= timeout_blocks` closes that window.
const SWAP_REFUND_SAFETY_BLOCKS: u64 = 1;

/// `swap` entered `phase` (metrics; non-terminal).
fn entered(swap: SwapId, phase: SwapPhase) -> Effect {
    Effect::Event(HostEvent::SwapPhaseEntered { swap, phase })
}

/// `swap` resolved: terminal for the initiating operation (the
/// responder has none, and its host drops the outcome). Both resolutions
/// are successful completions; `redeemed` says which branch the
/// two-ledger atomic outcome took.
fn resolved(swap: SwapId, redeemed: bool) -> Effect {
    let out = OpOutput::Swap(SwapOutcome { swap, redeemed });
    Effect::done(MatchKey::Swap(swap), out)
}

/// A chain/deadline check of `swap` at `at` (ns).
fn check_at(swap: SwapId, at: u64) -> Effect {
    Effect::Event(HostEvent::SwapCheckAt { swap, at })
}

impl TeechainEnclave {
    /// Commits an edit of swap `id` (see [`Self::commit_channel`]).
    fn commit_swap(&mut self, id: &SwapId, edit: impl FnOnce(&mut SwapState)) {
        if let Some(swap) = self.state.swaps.get(id) {
            let mut swap = swap.clone();
            edit(&mut swap);
            self.commit(StateDelta::Swap(Box::new(swap)));
        }
    }

    // ---- Cross-chain atomic swaps (Command::Swap, [`crate::swap`]) ----

    fn swap(&self, id: &SwapId) -> Result<&SwapState, ProtocolError> {
        self.state.swaps.get(id).ok_or(ProtocolError::BadMessage)
    }

    /// True if any swap on `id` can still go either way.
    pub(crate) fn swap_pending_on(&self, id: &ChannelId) -> bool {
        self.state
            .swaps
            .values()
            .any(|s| s.channel == *id && s.phase.pending())
    }

    /// Marks a still-pending swap locally refunded — valid only on paths
    /// where nothing of OURS is locked on-chain — stages the transition,
    /// notifies the peer best-effort and resolves the operation. A
    /// responder's live HTLC is recovered separately by its chain-watch
    /// refund timer: that is how "both refunds land" without trust.
    fn refund_swap_local(&mut self, swap: SwapId, effects: &mut Vec<Effect>) {
        let Some(remote) = self.state.swaps.get(&swap).map(|s| s.remote) else {
            return;
        };
        self.commit_swap(&swap, |s| s.phase = SwapPhase::Refunded);
        let nack = ProtocolMsg::SwapNack {
            swap,
            reason: ProtocolError::SwapPending.abort_code(),
        };
        if let Ok(eff) = self.seal_to(&remote, &nack) {
            effects.push(eff);
        }
        effects.push(entered(swap, SwapPhase::Refunded));
        effects.push(resolved(swap, false));
    }

    pub(crate) fn cmd_swap(
        &mut self,
        env: &mut EnclaveEnv,
        swap: SwapId,
        channel: ChannelId,
        amount: u64,
        alt_amount: u64,
        timeout_blocks: u64,
    ) -> Outcome {
        if amount == 0 || alt_amount == 0 || timeout_blocks == 0 {
            return Err(ProtocolError::BadMessage);
        }
        if self.state.swaps.contains_key(&swap) {
            return Err(ProtocolError::BadMessage);
        }
        if self.swap_pending_on(&channel) {
            return Err(ProtocolError::SwapPending);
        }
        let chan = self.chan(&channel)?;
        if !chan.usable() {
            return Err(ProtocolError::ChannelNotOpen);
        }
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        if chan.my_bal < amount {
            return Err(ProtocolError::InsufficientBalance);
        }
        let remote = chan.remote;
        // The secret is born inside the enclave and leaves only through
        // the redeem itself (the claim spend / `SwapSecret` message).
        let secret = env.random_bytes32();
        let hash = sha256(&secret);
        let msg = ProtocolMsg::SwapInit {
            swap,
            channel,
            amount,
            alt_amount,
            hash,
            timeout_blocks,
        };
        let eff = self.seal_to(&remote, &msg)?;
        let deadline_ns = env.now_ns() + SWAP_DEADLINE_NS;
        let state = SwapState {
            id: swap,
            channel,
            remote,
            initiator: true,
            amount,
            alt_amount,
            hash,
            secret: Some(secret),
            timeout_blocks,
            htlc_outpoint: None,
            deadline_ns,
            phase: SwapPhase::Init,
        };
        self.commit(StateDelta::Swap(Box::new(state)));
        Ok(vec![
            eff,
            entered(swap, SwapPhase::Init),
            check_at(swap, deadline_ns),
        ])
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_swap_init(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        swap: SwapId,
        channel: ChannelId,
        amount: u64,
        alt_amount: u64,
        hash: [u8; 32],
        timeout_blocks: u64,
    ) -> Outcome {
        if self.state.swaps.contains_key(&swap)
            || amount == 0
            || alt_amount == 0
            || timeout_blocks == 0
        {
            return Err(ProtocolError::BadMessage);
        }
        let chan = self.chan(&channel)?;
        if chan.remote != from || !chan.usable() {
            return Err(ProtocolError::BadMessage);
        }
        if self.swap_pending_on(&channel) {
            // One swap per channel at a time; refuse rather than stack.
            let nack = ProtocolMsg::SwapNack {
                swap,
                reason: ProtocolError::SwapPending.abort_code(),
            };
            return Ok(vec![self.seal_to(&from, &nack)?]);
        }
        let me = self.identity.as_ref().ok_or(ProtocolError::NoSession)?.pk;
        let deadline_ns = env.now_ns() + SWAP_DEADLINE_NS;
        let state = SwapState {
            id: swap,
            channel,
            remote: from,
            initiator: false,
            amount,
            alt_amount,
            hash,
            secret: None,
            timeout_blocks,
            htlc_outpoint: None,
            deadline_ns,
            phase: SwapPhase::Init,
        };
        let script = state.htlc_script(&me);
        self.commit(StateDelta::Swap(Box::new(state)));
        Ok(vec![
            entered(swap, SwapPhase::Init),
            Effect::Event(HostEvent::SwapFundingNeeded {
                swap,
                script: Box::new(script),
                value: alt_amount,
            }),
            check_at(swap, deadline_ns),
        ])
    }

    pub(crate) fn cmd_swap_funded(
        &mut self,
        env: &mut EnclaveEnv,
        swap: SwapId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let state = self.swap(&swap)?;
        if state.initiator {
            return Err(ProtocolError::BadMessage);
        }
        if state.phase != SwapPhase::Init {
            // A deadline abort can race a delayed (e.g. counter-throttled
            // replay after a crash in the funding window) funding report:
            // the refund committed with no outpoint on record, yet the
            // host has already minted the HTLC. Adopt the outpoint and
            // arm the chain watch so the timelocked reclaim still runs —
            // silently dropping it would strand the on-chain value.
            if state.phase == SwapPhase::Refunded && state.htlc_outpoint.is_none() {
                self.commit_swap(&swap, |s| s.htlc_outpoint = Some(outpoint));
                return Ok(vec![check_at(swap, env.now_ns() + SWAP_CHECK_INTERVAL_NS)]);
            }
            return Ok(vec![]); // Aborted (or already funded) meanwhile.
        }
        let remote = state.remote;
        self.commit_swap(&swap, |s| {
            s.phase = SwapPhase::Locked;
            s.htlc_outpoint = Some(outpoint);
        });
        let mut effects = Vec::new();
        // Best-effort notification: after a crash-recovery replay no
        // session survives, but the lock must still commit — the enclave
        // now tracks the on-chain value, its chain watch reclaims it at
        // the timelock, and the uninformed initiator aborts at its own
        // deadline. Refusing here would strand the minted HTLC forever.
        let msg = ProtocolMsg::SwapLocked { swap, outpoint };
        if let Ok(eff) = self.seal_to(&remote, &msg) {
            effects.push(eff);
        }
        effects.push(entered(swap, SwapPhase::Locked));
        effects.push(check_at(swap, env.now_ns() + SWAP_CHECK_INTERVAL_NS));
        Ok(effects)
    }

    pub(crate) fn on_swap_locked(
        &mut self,
        from: PublicKey,
        swap: SwapId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let state = self.swap(&swap)?;
        if !state.initiator || state.remote != from {
            return Err(ProtocolError::BadMessage);
        }
        if state.phase != SwapPhase::Init {
            return Ok(vec![]); // Deadline-aborted before the lock arrived.
        }
        let me = self.identity.as_ref().ok_or(ProtocolError::NoSession)?.pk;
        let (script, value) = (state.htlc_script(&me), state.alt_amount);
        self.commit_swap(&swap, |s| {
            s.phase = SwapPhase::Locked;
            s.htlc_outpoint = Some(outpoint);
        });
        // The enclave cannot read chains (§4): the host verifies the
        // HTLC (script, value, confirmations per its policy) and answers
        // with SwapHtlcVerified, mirroring the VerifyDeposit flow.
        Ok(vec![
            entered(swap, SwapPhase::Locked),
            Effect::Event(HostEvent::VerifySwapHtlc {
                swap,
                outpoint,
                script: Box::new(script),
                value,
            }),
        ])
    }

    pub(crate) fn cmd_swap_htlc_verified(
        &mut self,
        swap: SwapId,
        valid: bool,
        confirmations: u64,
    ) -> Outcome {
        let state = self.swap(&swap)?.clone();
        if !state.initiator {
            return Err(ProtocolError::BadMessage);
        }
        if state.phase != SwapPhase::Locked {
            return Ok(vec![]); // Aborted meanwhile; nothing was committed.
        }
        let covered = self
            .state
            .channels
            .get(&state.channel)
            .map(|c| c.usable() && !c.locked() && c.my_bal >= state.amount)
            .unwrap_or(false);
        // The refund timelock must still be comfortably unmatured: once
        // `timeout_blocks` confirmations exist, the responder can spend
        // the refund path, so revealing the secret now would let it race
        // our claim AND collect the channel credit via the revealed
        // secret — losing `amount` on both ledgers.
        let unmatured =
            confirmations >= 1 && confirmations + SWAP_REFUND_SAFETY_BLOCKS < state.timeout_blocks;
        if !valid || !unmatured || !covered {
            // A bad or already-mature lock (or a balance drained since
            // Init) aborts before any value moves; the responder recovers
            // its HTLC via the timelocked refund path.
            let mut effects = Vec::new();
            self.refund_swap_local(swap, &mut effects);
            return Ok(effects);
        }
        let kp = *self.identity.as_ref().ok_or(ProtocolError::NoSession)?;
        let secret = state.secret.expect("initiator holds the secret");
        let outpoint = state.htlc_outpoint.expect("locked phase has the outpoint");
        let claim = crate::swap::claim_tx(outpoint, state.alt_amount, &secret, kp.pk, &kp);
        let msg = ProtocolMsg::SwapSecret { swap, secret };
        let eff = self.seal_to(&state.remote, &msg)?;
        // One atomic commit: the channel debit and the phase transition
        // ride the same WAL record, so a crash either keeps the swap
        // Locked (no debit) or lands Redeemed (debited, claim
        // re-drivable from the recorded secret).
        self.commit(StateDelta::Pay {
            id: state.channel,
            my_delta: -(state.amount as i64),
            remote_delta: state.amount as i64,
        });
        self.commit_swap(&swap, |s| s.phase = SwapPhase::Redeemed);
        Ok(vec![
            Effect::BroadcastAlt(claim),
            eff,
            entered(swap, SwapPhase::Redeemed),
            resolved(swap, true),
        ])
    }

    pub(crate) fn on_swap_secret(
        &mut self,
        from: PublicKey,
        swap: SwapId,
        secret: [u8; 32],
    ) -> Outcome {
        let state = self.swap(&swap)?;
        if state.initiator || state.remote != from {
            return Err(ProtocolError::BadMessage);
        }
        if !state.phase.pending() {
            return Ok(vec![]); // Duplicate (Redeemed) or too late (Refunded).
        }
        if sha256(&secret) != state.hash {
            return Err(ProtocolError::BadMessage);
        }
        self.credit_swap_redeem(swap, secret)
    }

    /// Responder redeem: credits the channel and records the revealed
    /// secret in one commit. Reached from `SwapSecret` or from the
    /// chain-watch fallback (preimage read off the confirmed claim).
    fn credit_swap_redeem(&mut self, swap: SwapId, secret: [u8; 32]) -> Outcome {
        let state = self.swap(&swap)?.clone();
        if self.chan(&state.channel)?.remote_bal < state.amount {
            return Err(ProtocolError::BadMessage); // Peer violated protocol.
        }
        self.commit(StateDelta::Pay {
            id: state.channel,
            my_delta: state.amount as i64,
            remote_delta: -(state.amount as i64),
        });
        self.commit_swap(&swap, |s| {
            s.phase = SwapPhase::Redeemed;
            s.secret = Some(secret);
        });
        Ok(vec![
            entered(swap, SwapPhase::Redeemed),
            resolved(swap, true),
        ])
    }

    pub(crate) fn on_swap_nack(&mut self, from: PublicKey, swap: SwapId, reason: u8) -> Outcome {
        let _ = ProtocolError::from_abort_code(reason);
        let state = self.swap(&swap)?;
        if state.remote != from {
            return Err(ProtocolError::BadMessage);
        }
        match state.phase {
            // Responder with a live HTLC: funds come back via the
            // timelocked refund, driven by the chain-watch tick.
            SwapPhase::Locked if !state.initiator => Ok(vec![]),
            SwapPhase::Init | SwapPhase::Locked => {
                self.commit_swap(&swap, |s| s.phase = SwapPhase::Refunded);
                Ok(vec![
                    entered(swap, SwapPhase::Refunded),
                    resolved(swap, false),
                ])
            }
            _ => Ok(vec![]),
        }
    }

    pub(crate) fn cmd_swap_tick(
        &mut self,
        env: &mut EnclaveEnv,
        swap: SwapId,
        spent_preimage: Option<Vec<u8>>,
        confirmations: u64,
        claim_confirmed: bool,
    ) -> Outcome {
        if self.frozen {
            return Ok(vec![]);
        }
        let Some(state) = self.state.swaps.get(&swap) else {
            return Ok(vec![]);
        };
        let state = state.clone();
        match state.phase {
            SwapPhase::Refunded => {
                // A responder can land here with a live HTLC: the abort
                // committed first and the funding report arrived late
                // (see `cmd_swap_funded`), or a broadcast refund was
                // lost. Keep driving the timelocked reclaim until the
                // spend confirms; the initiator has nothing on-chain.
                if state.initiator || claim_confirmed {
                    return Ok(vec![]);
                }
                let Some(outpoint) = state.htlc_outpoint else {
                    return Ok(vec![]);
                };
                let mut effects = Vec::new();
                if confirmations >= state.timeout_blocks {
                    let kp = *self.identity.as_ref().ok_or(ProtocolError::NoSession)?;
                    let refund = crate::swap::refund_tx(outpoint, state.alt_amount, kp.pk, &kp);
                    effects.push(Effect::BroadcastAlt(refund));
                }
                effects.push(check_at(swap, env.now_ns() + SWAP_CHECK_INTERVAL_NS));
                Ok(effects)
            }
            SwapPhase::Redeemed => {
                // Post-crash re-drive: the debit committed but the claim
                // may never have reached the alternate chain. Re-broadcast
                // (duplicate submits are rejected harmlessly), re-offer
                // the secret, and watch until the claim confirms.
                if !state.initiator || claim_confirmed {
                    return Ok(vec![]);
                }
                let (Some(outpoint), Some(secret)) = (state.htlc_outpoint, state.secret) else {
                    return Ok(vec![]);
                };
                let kp = *self.identity.as_ref().ok_or(ProtocolError::NoSession)?;
                let claim = crate::swap::claim_tx(outpoint, state.alt_amount, &secret, kp.pk, &kp);
                let mut effects = vec![Effect::BroadcastAlt(claim)];
                let msg = ProtocolMsg::SwapSecret { swap, secret };
                if let Ok(eff) = self.seal_to(&state.remote, &msg) {
                    effects.push(eff);
                }
                effects.push(check_at(swap, env.now_ns() + SWAP_CHECK_INTERVAL_NS));
                Ok(effects)
            }
            SwapPhase::Init | SwapPhase::Locked => {
                // Pending-phase resolutions mutate state; gate on the
                // counter and re-arm rather than fail when throttled.
                if let Err(e) = self.pass(env, Gate::Exit) {
                    return match e {
                        ProtocolError::CounterThrottled { ready_at } => {
                            Ok(vec![check_at(swap, ready_at)])
                        }
                        other => Err(other),
                    };
                }
                if !state.initiator && state.phase == SwapPhase::Locked {
                    // Chain-watch redeem: a confirmed claim reveals the
                    // preimage even if `SwapSecret` never arrived.
                    if let Some(p) = spent_preimage.as_deref() {
                        if p.len() == 32 && sha256(p) == state.hash {
                            let mut secret = [0u8; 32];
                            secret.copy_from_slice(p);
                            return self.credit_swap_redeem(swap, secret);
                        }
                    }
                    if confirmations >= state.timeout_blocks {
                        // Timeout: reclaim our HTLC on-chain.
                        let kp = *self.identity.as_ref().ok_or(ProtocolError::NoSession)?;
                        let outpoint = state.htlc_outpoint.expect("locked has outpoint");
                        let refund = crate::swap::refund_tx(outpoint, state.alt_amount, kp.pk, &kp);
                        self.commit_swap(&swap, |s| s.phase = SwapPhase::Refunded);
                        return Ok(vec![
                            Effect::BroadcastAlt(refund),
                            entered(swap, SwapPhase::Refunded),
                            resolved(swap, false),
                        ]);
                    }
                }
                if env.now_ns() >= state.deadline_ns
                    && (state.initiator || state.phase == SwapPhase::Init)
                {
                    // Deadline abort: nothing of ours is locked on-chain
                    // on these paths, so a local refund is safe. (A
                    // responder in Locked keeps watching the chain — its
                    // HTLC needs the timelocked refund above.)
                    let mut effects = Vec::new();
                    self.refund_swap_local(swap, &mut effects);
                    return Ok(effects);
                }
                Ok(vec![check_at(swap, env.now_ns() + SWAP_CHECK_INTERVAL_NS)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_crypto::sha256::sha256;
    use teechain_util::codec::{Decode, Encode};

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
