//! The Teechain enclave program: state, ecall interface and the payment
//! channel protocol (Alg. 1).
//!
//! The enclave is a *sans-io* state machine: every command or delivered
//! message produces a list of [`Effect`]s (messages to send, transactions
//! to broadcast, notifications for the host). The host performs all actual
//! I/O — it is untrusted, so nothing it does with the effects can violate
//! balance correctness; at worst it loses liveness, which the settlement
//! path recovers from.
//!
//! Multi-hop payments (Alg. 2) live in [`crate::multihop`]; chain
//! replication and committees (Alg. 3, §6) in [`crate::replication`].

use crate::admit::{
    AckEntry, AdmitState, DeferredMsg, QueueEntry, QueuedOp, ADMIT_DEADLINE_NS, ADMIT_QUEUE_CAP,
    DEFER_DEADLINE_NS,
};
use crate::channel::Channel;
use crate::deposit::{keypair_in, DepositBook};
use crate::durability::DurabilityBackend;
use crate::durable::DurableState;
use crate::msg::{ProtocolMsg, StateDelta, WireMsg, WireView};
use crate::replication::{Replication, SigCollect};
use crate::session::{self, Session};
use crate::settle;
use crate::slots::SlotMap;
use crate::swap::{SwapPhase, SwapState};
use crate::types::{ChannelId, Deposit, ProtocolError, RouteId, SwapId};
use std::collections::HashMap;
use teechain_crypto::schnorr::{Keypair, PrivateKey, PublicKey, Signature};
use teechain_crypto::sha256::sha256;
use teechain_tee::{EnclaveEnv, EnclaveProgram, Measurement};
use teechain_util::codec::Encode;

/// Static enclave configuration, fixed at launch.
#[derive(Clone)]
pub struct EnclaveConfig {
    /// Manufacturer root key for verifying peer attestation quotes.
    pub trust_root: PublicKey,
    /// The measurement peers must present (same build of this program).
    pub measurement: Measurement,
    /// Fault-tolerance backend (§6). Under
    /// [`DurabilityBackend::Persist`], every state change requires a
    /// (throttled) monotonic counter increment and emits a sealed WAL
    /// record, plus a periodic sealed snapshot per the policy.
    pub durability: DurabilityBackend,
}

impl EnclaveConfig {
    /// True in §6.2 persistent-storage mode.
    pub fn persist(&self) -> bool {
        self.durability.is_persist()
    }

    /// Commits between full sealed snapshots (1 when not persisting).
    fn snapshot_every(&self) -> u64 {
        self.durability
            .persist_policy()
            .map(|p| p.snapshot_every.max(1) as u64)
            .unwrap_or(1)
    }
}

/// Ecalls accepted by the Teechain enclave.
#[derive(Clone)]
pub enum Command {
    /// Returns this enclave's identity key; as an operation it completes
    /// with [`OpOutput::Identity`](crate::ops::OpOutput::Identity).
    GetIdentity,
    /// Initiates a secure session with a remote enclave (identity key
    /// exchanged out-of-band, §4.1).
    StartSession {
        /// Remote enclave identity.
        remote: PublicKey,
    },
    /// Delivers a raw network message.
    Deliver {
        /// The buffer that arrived from the network. The enclave opens a
        /// sealed message where it lies in it, so the host hands the buffer
        /// over instead of cutting its own envelope off a copy.
        wire: Vec<u8>,
        /// Offset in `wire` at which the encoded [`WireMsg`] starts; it
        /// runs to the end of the buffer.
        at: usize,
    },
    /// Generates a fresh blockchain address inside the TEE (Alg. 1
    /// `newAddr`); as an operation it completes with
    /// [`OpOutput::Address`](crate::ops::OpOutput::Address).
    NewAddress,
    /// Builds an m-of-n committee spec for a new deposit: a fresh
    /// per-deposit key plus every chain member's blockchain key (§6.1).
    /// As an operation it completes with
    /// [`OpOutput::Committee`](crate::ops::OpOutput::Committee).
    NewCommitteeAddress {
        /// Signature threshold `m` (1 ≤ m ≤ chain length + 1).
        m: u8,
    },
    /// Opens a payment channel (Alg. 1 `newPayChannel`).
    NewChannel {
        /// Channel id (unique per peer pair).
        id: ChannelId,
        /// Remote enclave identity.
        remote: PublicKey,
        /// Our on-chain settlement address.
        my_settlement: PublicKey,
    },
    /// Registers an on-chain deposit paying into an address (set) whose
    /// first committee key this enclave controls (Alg. 1 `newDeposit`).
    NewDeposit {
        /// The deposit.
        deposit: Deposit,
    },
    /// Releases a free deposit back to an address (Alg. 1
    /// `releaseDeposit`).
    ReleaseDeposit {
        /// The deposit to release.
        outpoint: teechain_blockchain::OutPoint,
        /// Payout address.
        to: PublicKey,
    },
    /// Asks `remote` to approve our deposit (Alg. 1 `approveMyDeposit`).
    ApproveDeposit {
        /// The counterparty.
        remote: PublicKey,
        /// Our free deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Host's answer to [`HostEvent::VerifyDeposit`]: the deposit is (not)
    /// confirmed on chain with the host's required confirmations.
    DepositVerified {
        /// The deposit owner.
        remote: PublicKey,
        /// The deposit.
        outpoint: teechain_blockchain::OutPoint,
        /// Whether the host found it valid.
        valid: bool,
    },
    /// Associates an approved free deposit with a channel (Alg. 1
    /// `associateMyDeposit`).
    AssociateDeposit {
        /// The channel.
        id: ChannelId,
        /// Our deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Starts dissociating a deposit (Alg. 1 `dissociateDeposit`).
    DissociateDeposit {
        /// The channel.
        id: ChannelId,
        /// The deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Sends a payment (Alg. 1 `pay`); `count` logical payments may be
    /// batched into one message (§7 client-side batching).
    Pay {
        /// The channel.
        id: ChannelId,
        /// Total amount.
        amount: u64,
        /// Batched logical payment count (≥1).
        count: u32,
    },
    /// Settles a channel (Alg. 1 `settle`): off-chain if balances are
    /// neutral, otherwise generates a settlement transaction.
    Settle {
        /// The channel.
        id: ChannelId,
    },
    /// Issues a multi-hop payment (Alg. 2 `payMultihop`); this enclave is
    /// p1, `hops` are p1..pn identities, `channels` the path's channels.
    PayMultihop {
        /// Route instance id (fresh).
        route: RouteId,
        /// Path identities p1..pn (including ourselves first).
        hops: Vec<PublicKey>,
        /// Path channels (len = hops-1).
        channels: Vec<ChannelId>,
        /// Amount.
        amount: u64,
    },
    /// Prematurely terminates a multi-hop payment (Alg. 2 `eject`).
    Eject {
        /// The route.
        route: RouteId,
    },
    /// Ejects with a proof of premature termination: a *confirmed*
    /// conflicting settlement placed by another participant (Alg. 2
    /// `eject(popt)`). The host asserts confirmation; the enclave verifies
    /// the conflict structure.
    EjectWithPopt {
        /// The route.
        route: RouteId,
        /// The confirmed conflicting transaction.
        popt: teechain_blockchain::Transaction,
    },
    /// Attaches a backup TEE: we become its replication upstream
    /// (Alg. 3 `assignAsBackupFor`, inverted: command goes to the chain
    /// member gaining a backup). Requires an established session.
    AttachBackup {
        /// The backup's identity key.
        backup: PublicKey,
    },
    /// Force-freeze read of replicated state (issued on a backup, §6):
    /// freezes the chain; as an operation it completes with the replica
    /// summary ([`OpOutput::ReplicaState`](crate::ops::OpOutput::ReplicaState)).
    ReadReplica,
    /// Generates settlement transactions for every replicated channel (the
    /// failover path after the primary crashed).
    SettleFromReplica,
    /// Co-signs a settlement produced elsewhere in our committee, after
    /// verifying it against replicated state (§6.1). As an operation it
    /// completes with [`OpOutput::CoSigned`](crate::ops::OpOutput::CoSigned);
    /// the host routes the granted signatures back to the requesting
    /// node.
    CoSign {
        /// Request id to echo.
        req_id: u64,
        /// The transaction to co-sign.
        tx: teechain_blockchain::Transaction,
    },
    /// Merges co-signatures collected by the host into a pending
    /// settlement; broadcasts when thresholds are met.
    AddCoSigs {
        /// The request id from [`HostEvent::NeedCoSign`].
        req_id: u64,
        /// `(input index, signature)` pairs from one member.
        sigs: Vec<(u32, Signature)>,
    },
    /// Restores state from a sealed blob after a crash (§6.2).
    RestoreSealed {
        /// Blob previously emitted via [`Effect::Persist`].
        blob: Vec<u8>,
    },
    /// Full crash recovery from durable storage (§6.2): the latest
    /// sealed snapshot (if any) plus every sealed WAL record appended
    /// after it, oldest first. The enclave verifies that commit counters
    /// form an unbroken chain ending at the hardware monotonic counter;
    /// any gap — a rolled-back snapshot, a dropped log suffix, a torn
    /// tail — is rejected with [`ProtocolError::StaleState`].
    Recover {
        /// Sealed snapshot from [`Effect::Persist`], if one was taken.
        snapshot: Option<Vec<u8>>,
        /// Sealed WAL records from [`Effect::AppendLog`], oldest first.
        log: Vec<Vec<u8>>,
    },
    /// Pumps the admission layer: expires queued/deferred ops past their
    /// deadline, drains any unlocked channel with a backlog, and
    /// re-dispatches messages stashed while the monotonic counter was
    /// throttled (persistent mode, §6.2). The host calls this at the
    /// time given by [`HostEvent::PumpAt`].
    PumpAdmission,
    /// Initiates a cross-chain atomic swap: trades `amount` of our
    /// balance on `channel` for `alt_amount` locked for us on the
    /// alternate chain behind an HTLC hashed to a secret drawn inside
    /// this enclave. As an operation it completes with
    /// [`OpOutput::Swap`](crate::ops::OpOutput::Swap) once the swap
    /// resolves (redeemed or refunded) — a stuck swap is a protocol bug.
    Swap {
        /// Host-chosen swap instance id (operation correlation).
        swap: SwapId,
        /// The channel whose balance is traded.
        channel: ChannelId,
        /// Channel balance moved to the counterparty on redeem.
        amount: u64,
        /// Alternate-chain value the counterparty must lock for us.
        alt_amount: u64,
        /// HTLC refund timelock in alternate-chain confirmations.
        timeout_blocks: u64,
    },
    /// Host's answer to [`HostEvent::SwapFundingNeeded`]: the HTLC
    /// output was funded on the alternate chain at `outpoint`.
    SwapFunded {
        /// The swap.
        swap: SwapId,
        /// The funded HTLC output.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Host's answer to [`HostEvent::VerifySwapHtlc`]: whether the
    /// counterparty's HTLC is live on the alternate chain with the
    /// expected script and value.
    SwapHtlcVerified {
        /// The swap.
        swap: SwapId,
        /// True if the HTLC checked out (script and value match a live
        /// confirmed output).
        valid: bool,
        /// Confirmations of the HTLC output as observed by the host. The
        /// enclave — not the host — enforces the maturity policy: it
        /// redeems only while the refund timelock still has headroom
        /// (`confirmations + SWAP_REFUND_SAFETY_BLOCKS < timeout_blocks`),
        /// so a lock delivered late cannot extract the secret.
        confirmations: u64,
    },
    /// Host timer report for a swap (armed by
    /// [`HostEvent::SwapCheckAt`]): the current alternate-chain view of
    /// the HTLC output. Drives deadline aborts, timeout refunds, and the
    /// chain-watch redeem fallback (learning the preimage from a
    /// confirmed claim spend instead of a lost `SwapSecret` message).
    SwapTick {
        /// The swap.
        swap: SwapId,
        /// Preimage carried by a confirmed spend of the HTLC, if any.
        spent_preimage: Option<Vec<u8>>,
        /// Confirmations of the HTLC output (0 if unfunded/spent).
        confirmations: u64,
        /// True once our own claim spend is confirmed.
        claim_confirmed: bool,
    },
}

/// Notifications from the enclave to its host.
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// Our identity key (answer to [`Command::GetIdentity`]).
    Identity(PublicKey),
    /// A fresh in-enclave blockchain address.
    NewAddress(PublicKey),
    /// A committee spec for funding a new m-of-n deposit (§6.1).
    CommitteeAddress(crate::types::CommitteeSpec),
    /// Secure session established with `0`.
    SessionEstablished(PublicKey),
    /// Channel fully open.
    ChannelOpen(ChannelId),
    /// The host must check that a remote deposit is confirmed on chain and
    /// answer with [`Command::DepositVerified`].
    VerifyDeposit {
        /// Deposit owner.
        remote: PublicKey,
        /// The deposit to verify.
        deposit: Deposit,
    },
    /// A remote approved our deposit; it may now be associated.
    DepositApproved {
        /// The counterparty.
        remote: PublicKey,
        /// Our deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Deposit association completed on our side.
    DepositAssociated {
        /// Channel.
        id: ChannelId,
        /// Deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Deposit dissociation acknowledged; deposit is free again.
    DepositDissociated {
        /// Channel.
        id: ChannelId,
        /// Deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// An incoming payment was applied.
    PaymentReceived {
        /// Channel.
        id: ChannelId,
        /// Amount.
        amount: u64,
        /// Batched count.
        count: u32,
    },
    /// Our payment was acknowledged (the paper's latency endpoint).
    PaymentAcked {
        /// Channel.
        id: ChannelId,
        /// Amount.
        amount: u64,
        /// Batched count.
        count: u32,
    },
    /// A payment we sent was refused by the remote (terminal: its
    /// admission queue was full, expired, or the channel closed there);
    /// balances were rolled back.
    PaymentNacked {
        /// Channel.
        id: ChannelId,
        /// Amount rolled back.
        amount: u64,
        /// Batched count.
        count: u32,
        /// The remote's refusal reason, carried on the wire nack.
        reason: ProtocolError,
    },
    /// A queued payment was dropped without ever reaching the wire
    /// (terminal): the channel closed, the admission deadline passed, or
    /// the balance could not cover it at drain time.
    PaymentRejected {
        /// Channel.
        id: ChannelId,
        /// Amount (never debited).
        amount: u64,
        /// Batched count.
        count: u32,
        /// Why the op was dropped.
        reason: ProtocolError,
    },
    /// Channel settled cooperatively off-chain; deposits are free.
    SettledOffChain(ChannelId),
    /// A settlement transaction is ready and was broadcast.
    SettlementBroadcast {
        /// Channel (or route) context.
        id: ChannelId,
        /// The settlement txid.
        txid: teechain_blockchain::TxId,
    },
    /// A multi-hop payment completed end-to-end (we are p1).
    MultihopComplete {
        /// The route.
        route: RouteId,
        /// Amount delivered.
        amount: u64,
    },
    /// A multi-hop payment failed at lock stage and was rolled back.
    MultihopFailed {
        /// The route.
        route: RouteId,
        /// The refusing hop's failure reason, carried backward along the
        /// abort unwind so the originator learns *why* (e.g. an
        /// intermediary's [`ProtocolError::InsufficientBalance`]).
        reason: ProtocolError,
    },
    /// An incoming multi-hop payment credited us (we are pn).
    MultihopReceived {
        /// The route.
        route: RouteId,
        /// Amount received.
        amount: u64,
    },
    /// A settlement needs co-signatures from committee members; the host
    /// must gather them (e.g. via node-level `SigRequest`s) and answer
    /// with [`Command::AddCoSigs`].
    NeedCoSign {
        /// Request id.
        req_id: u64,
        /// The partially signed transaction.
        tx: teechain_blockchain::Transaction,
    },
    /// Result of a [`Command::CoSign`].
    CoSignResult {
        /// Echoed request id.
        req_id: u64,
        /// Signatures granted.
        sigs: Vec<(u32, Signature)>,
        /// True if verification failed and signing was refused.
        refused: bool,
    },
    /// A backup attached to us (we are now replicated).
    BackupAttached(PublicKey),
    /// Replica summary after a force-freeze read.
    ReplicaState {
        /// Number of replicated channels.
        channels: usize,
        /// Number of replicated deposits.
        deposits: usize,
        /// Replication updates applied.
        applied_seq: u64,
    },
    /// This enclave froze (force-freeze tripped or Byzantine suspicion).
    Frozen,
    /// The admission layer wants a pump: call [`Command::PumpAdmission`]
    /// at the given time (ns) — a queued-op deadline, or the monotonic
    /// counter's `ready_at`. Hosts keep the earliest outstanding time.
    PumpAt(u64),
    /// Crash recovery succeeded (answer to [`Command::Recover`]).
    Recovered {
        /// Channels restored.
        channels: usize,
        /// Deposits restored (own and remote).
        deposits: usize,
        /// Durable commits replayed (snapshot counter + WAL records).
        commits: u64,
    },
    /// The responder host must fund this HTLC script with `value` on the
    /// alternate chain and answer with [`Command::SwapFunded`].
    SwapFundingNeeded {
        /// The swap.
        swap: SwapId,
        /// The HTLC script to fund.
        script: teechain_blockchain::ScriptPubKey,
        /// The value to lock.
        value: u64,
    },
    /// The initiator host must check that the counterparty's HTLC is
    /// live on the alternate chain — exactly `script` with `value` at
    /// `outpoint` — and answer with [`Command::SwapHtlcVerified`],
    /// reporting the output's confirmation count so the enclave can
    /// refuse a lock whose refund timelock is already (near) mature.
    VerifySwapHtlc {
        /// The swap.
        swap: SwapId,
        /// Where the counterparty claims to have funded it.
        outpoint: teechain_blockchain::OutPoint,
        /// The script the output must carry.
        script: teechain_blockchain::ScriptPubKey,
        /// The value the output must carry.
        value: u64,
    },
    /// The swap wants a chain/deadline check: call [`Command::SwapTick`]
    /// with the alternate-chain view at the given time (ns).
    SwapCheckAt {
        /// The swap.
        swap: SwapId,
        /// When to tick (ns).
        at: u64,
    },
    /// A swap entered a new phase (metrics; non-terminal).
    SwapPhaseEntered {
        /// The swap.
        swap: SwapId,
        /// The phase just entered.
        phase: SwapPhase,
    },
    /// A swap resolved — terminal for the initiating operation. Both
    /// resolutions are successful completions; `redeemed` says which
    /// branch the two-ledger atomic outcome took.
    SwapResolved {
        /// The swap.
        swap: SwapId,
        /// True if redeemed on both ledgers, false if refunded on both.
        redeemed: bool,
    },
}

/// A remote enclave's slot in this enclave's peer table: a dense index
/// handed out when the enclave first meets the identity — in a handshake,
/// or as a channel's counterparty — and never reused while the enclave
/// instance lives. Slots are volatile: never sealed, never on the wire; a
/// recovered enclave hands them out afresh in replay order, so a host
/// keying its own state by slot checks the identity next to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSlot(pub u32);

/// Effects the host must carry out.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Send `wire` to the node operating the enclave with identity `to`.
    Send {
        /// Destination enclave identity.
        to: PublicKey,
        /// The slot `to` holds in this enclave's peer table (`None` for a
        /// handshake opening, which precedes the session). The host may
        /// key its own per-peer state by it, checking `to`.
        peer: Option<PeerSlot>,
        /// Encoded [`WireMsg`].
        wire: Vec<u8>,
    },
    /// Broadcast a transaction to the blockchain.
    Broadcast(teechain_blockchain::Transaction),
    /// Broadcast a transaction to the *alternate* chain (cross-chain
    /// atomic swaps: HTLC claim and refund spends).
    BroadcastAlt(teechain_blockchain::Transaction),
    /// Notify the host application.
    Event(HostEvent),
    /// Persist this sealed full-state snapshot, superseding the WAL so
    /// far — the host should compact (persistent-storage mode, §6.2).
    Persist(Vec<u8>),
    /// Append this sealed commit record to the write-ahead log and make
    /// it durable before releasing the accompanying effects
    /// (persistent-storage mode, §6.2). One record carries a whole
    /// group-committed batch of state deltas.
    AppendLog(Vec<u8>),
}

/// Result of an ecall.
pub type Outcome = Result<Vec<Effect>, ProtocolError>;

/// Version tag of the durable state-image format (the legacy format has
/// no tag; its first byte is the 0/1 of an `Option`). V2 holds the deposit
/// book with statuses, v3 appends the atomic-swap table, and v4 the
/// multi-hop routes ([`DurableState::read_image`]).
const STATE_IMAGE_V2: u8 = 2;
/// The version written.
const STATE_IMAGE_V4: u8 = 4;

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

/// Remote enclaves by the identity key *as encoded on the wire*, each with
/// its session once a handshake with it completed. A peer gets its slot in
/// a handshake, or as the counterparty of a channel we hold (restored from
/// sealed state before any session exists). A sealed envelope names its
/// sender in 64 raw bytes, and the look-up takes them as they are. Only
/// validated identities are ever inserted — from completed handshakes, or
/// from our own sealed state — so bytes that are not a curve point find
/// nothing.
pub(crate) type PeerTable = SlotMap<[u8; 64], Option<Session>>;

/// The sender of a delivered message, as its handler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Peer {
    /// The sender's identity, as authenticated by the session.
    pub(crate) pk: PublicKey,
    /// Its slot in the peer table.
    pub(crate) slot: u32,
}

/// The established session with the peer in `slot`.
fn established(peers: &mut PeerTable, slot: u32) -> Result<&mut Session, ProtocolError> {
    match peers.at_mut(slot).and_then(Option::as_mut) {
        Some(s) if s.established => Ok(s),
        _ => Err(ProtocolError::NoSession),
    }
}

/// The Teechain enclave program state.
pub struct TeechainEnclave {
    pub(crate) cfg: EnclaveConfig,
    pub(crate) identity: Option<Keypair>,
    /// Known peers and their sessions, by slot (see [`PeerTable`]).
    pub(crate) peers: PeerTable,
    /// Our ephemeral private keys for in-flight handshakes.
    pub(crate) pending_eph: HashMap<PublicKey, PrivateKey>,
    /// Channels, deposits, keys, routes and swaps: changed only by
    /// [`Self::commit`] (see [`crate::durable`]).
    pub(crate) state: DurableState,
    /// `chan_peers[s]`: the peer slot of the counterparty of the channel
    /// in channel slot `s`, so a handler holding a channel seals to its
    /// peer without a look-up.
    chan_peers: Vec<u32>,
    pub(crate) rep: Replication,
    pub(crate) sig_collects: HashMap<u64, SigCollect>,
    pub(crate) next_req_id: u64,
    pub(crate) frozen: bool,
    pub(crate) counter_id: Option<usize>,
    /// Decrypted messages stashed while the counter was throttled.
    pub(crate) pending_msgs: std::collections::VecDeque<(Peer, ProtocolMsg)>,
    /// Durable commits performed (persistent mode); drives the snapshot
    /// cadence. Restored during recovery.
    pub(crate) commits: u64,
    /// Admission layer: per-channel queues of local ops and deferred
    /// inbound messages waiting on a locked channel, plus the ack
    /// fan-out bookkeeping for batched payments. Volatile (§6.2): queued
    /// ops that never committed simply vanish on crash.
    pub(crate) admit: AdmitState,
}

impl TeechainEnclave {
    /// Creates the program (state is empty until first ecall).
    pub fn new(cfg: EnclaveConfig) -> Self {
        TeechainEnclave {
            cfg,
            identity: None,
            peers: PeerTable::default(),
            pending_eph: HashMap::new(),
            state: DurableState::default(),
            chan_peers: Vec::new(),
            rep: Replication::default(),
            sig_collects: HashMap::new(),
            next_req_id: 0,
            frozen: false,
            counter_id: None,
            pending_msgs: std::collections::VecDeque::new(),
            commits: 0,
            admit: AdmitState::default(),
        }
    }

    pub(crate) fn identity(&mut self, env: &mut EnclaveEnv) -> Keypair {
        if self.identity.is_none() {
            let seed = env.random_bytes32();
            self.identity = Some(Keypair::from_seed(&seed));
        }
        *self.identity.as_ref().expect("just set")
    }

    pub(crate) fn require_unfrozen(&self) -> Result<(), ProtocolError> {
        if self.frozen {
            Err(ProtocolError::Frozen)
        } else {
            Ok(())
        }
    }

    /// Our monotonic counter id, reusing the device counter across enclave
    /// restarts (hardware counters outlive the program, §6.2).
    pub(crate) fn ensure_counter(&mut self, env: &mut EnclaveEnv) -> usize {
        if let Some(id) = self.counter_id {
            return id;
        }
        let id = if env.counter_count() > 0 {
            0
        } else {
            env.create_counter(teechain_tee::counter::DEFAULT_THROTTLE_NS)
        };
        self.counter_id = Some(id);
        id
    }

    /// In persistent mode, mutating operations must be able to increment
    /// the monotonic counter *now*; otherwise they are rejected up front
    /// so no state mutates (the host retries at `ready_at`). This is what
    /// caps stable-storage throughput at 10 tx/s (Table 1).
    pub(crate) fn require_counter_ready(
        &mut self,
        env: &mut EnclaveEnv,
    ) -> Result<(), ProtocolError> {
        if !self.cfg.persist() {
            return Ok(());
        }
        let id = self.ensure_counter(env);
        let ready_at = env.counter_ready_at(id);
        if env.now_ns() < ready_at {
            return Err(ProtocolError::CounterThrottled { ready_at });
        }
        Ok(())
    }

    /// The peer `remote`, if we hold an established session with it.
    pub(crate) fn session_peer(&mut self, remote: &PublicKey) -> Result<Peer, ProtocolError> {
        let slot = self
            .peers
            .slot(&remote.to_bytes())
            .ok_or(ProtocolError::NoSession)?;
        established(&mut self.peers, slot)?;
        Ok(Peer { pk: *remote, slot })
    }

    /// The peer slot of `pk`, handing out a new one if it has none.
    fn peer_slot(&mut self, pk: &PublicKey) -> u32 {
        self.peers.slot_or_insert_with(pk.to_bytes(), || None)
    }

    /// Gives every channel that has no peer slot yet (a commit or a
    /// replay added it) its counterparty's.
    fn index_new_channels(&mut self) {
        while let Some(c) = self.state.channels.at(self.chan_peers.len() as u32) {
            let peer = self.peers.slot_or_insert_with(c.remote.to_bytes(), || None);
            self.chan_peers.push(peer);
        }
    }

    /// Seals `msg` for `remote` into a `Send` effect: one look-up of the
    /// identity. A handler that knows the peer's slot seals with
    /// [`Self::seal_at`].
    pub(crate) fn seal_to(
        &mut self,
        remote: &PublicKey,
        msg: &ProtocolMsg,
    ) -> Result<Effect, ProtocolError> {
        let slot = self
            .peers
            .slot(&remote.to_bytes())
            .ok_or(ProtocolError::NoSession)?;
        self.seal_at(slot, msg)
    }

    /// Seals `msg` for the peer in `slot` into a `Send` effect.
    pub(crate) fn seal_at(
        &mut self,
        slot: u32,
        msg: &ProtocolMsg,
    ) -> Result<Effect, ProtocolError> {
        let me = self.identity.as_ref().ok_or(ProtocolError::NoSession)?.pk;
        let session = established(&mut self.peers, slot)?;
        let wire = session.seal_frame(&me, msg);
        Ok(Effect::Send {
            to: session.remote,
            peer: Some(PeerSlot(slot)),
            wire,
        })
    }

    pub(crate) fn chan(&self, id: &ChannelId) -> Result<&Channel, ProtocolError> {
        self.state
            .channels
            .get(id)
            .ok_or(ProtocolError::UnknownChannel)
    }

    /// Commits a state change: applies `delta` to our durable state and
    /// stages it for the WAL record or the replication update.
    pub(crate) fn commit(&mut self, delta: StateDelta) {
        self.state.apply(&delta);
        self.rep.staged.push(delta);
        self.index_new_channels();
    }

    /// [`Self::commit`] of a delta to the channel in `slot`.
    pub(crate) fn commit_at(&mut self, slot: u32, delta: StateDelta) {
        self.state.apply_at(slot, &delta);
        self.rep.staged.push(delta);
    }

    /// Commits an edit of channel `id`: `edit` changes a copy, which the
    /// commit installs whole.
    pub(crate) fn commit_channel(
        &mut self,
        id: &ChannelId,
        edit: impl FnOnce(&mut Channel),
    ) -> Result<(), ProtocolError> {
        let mut chan = self.chan(id)?.clone();
        edit(&mut chan);
        self.commit(StateDelta::Channel(Box::new(chan)));
        Ok(())
    }

    /// Commits an edit of swap `id` (see [`Self::commit_channel`]).
    fn commit_swap(&mut self, id: &SwapId, edit: impl FnOnce(&mut SwapState)) {
        if let Some(swap) = self.state.swaps.get(id) {
            let mut swap = swap.clone();
            edit(&mut swap);
            self.commit(StateDelta::Swap(Box::new(swap)));
        }
    }

    /// Hands out a fresh blockchain key (Alg. 1 `newAddr`) in the event
    /// `announce` makes of its address, committed first. The address goes
    /// out with the key's update, not after the chain's ack, so a
    /// composite can use it at once; any use of the key commits later.
    pub(crate) fn hand_out_key(
        &mut self,
        env: &mut EnclaveEnv,
        announce: impl FnOnce(PublicKey) -> Result<HostEvent, ProtocolError>,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let kp = Keypair::from_seed(&env.random_bytes32());
        let event = announce(kp.pk)?;
        self.commit(StateDelta::Key(kp.pk, kp.sk.to_bytes()));
        let mut effects = self.finalize(env, Vec::new())?;
        effects.push(Effect::Event(event));
        Ok(effects)
    }

    fn next_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    /// The signing handle for `pk`: a key `state` holds, or our committee
    /// key.
    pub(crate) fn signer(&self, state: &DurableState, pk: &PublicKey) -> Option<Keypair> {
        keypair_in(&state.book.keys, pk).or(self.rep.member.filter(|k| k.pk == *pk))
    }

    /// Finishes a settlement of our own state, or of the replica: signs
    /// with every key we hold; broadcasts if thresholds are met, otherwise
    /// opens a co-sign collection and asks the host to gather committee
    /// signatures.
    pub(crate) fn finish_settlement(
        &mut self,
        id: ChannelId,
        mut tx: teechain_blockchain::Transaction,
        replica: bool,
        effects: &mut Vec<Effect>,
    ) {
        // Sign every input with every key we can resolve: the state's
        // deposit keys and our committee chain key — a backup settling
        // for a crashed primary needs both (§6.1).
        let state = if replica {
            &self.rep.replica
        } else {
            &self.state
        };
        settle::sign_inputs(
            &mut tx,
            |pk| self.signer(state, pk),
            |op| state.book.deposit_of(op),
        );
        if settle::threshold_met(&tx, |op| state.book.deposit_of(op)) {
            effects.push(Effect::Event(HostEvent::SettlementBroadcast {
                id,
                txid: tx.txid(),
            }));
            effects.push(Effect::Broadcast(tx));
        } else {
            let req_id = self.next_req_id();
            let collect = SigCollect {
                id,
                tx: tx.clone(),
                replica,
            };
            self.sig_collects.insert(req_id, collect);
            effects.push(Effect::Event(HostEvent::NeedCoSign { req_id, tx }));
        }
    }

    // ---- Alg. 1 command handlers ----

    fn cmd_new_channel(
        &mut self,
        env: &mut EnclaveEnv,
        id: ChannelId,
        remote: PublicKey,
        my_settlement: PublicKey,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let peer = self.session_peer(&remote)?;
        if self.state.channels.contains_key(&id) {
            return Err(ProtocolError::ChannelExists);
        }
        let msg = ProtocolMsg::NewChannel {
            id,
            settlement: my_settlement,
        };
        let eff = self.seal_at(peer.slot, &msg)?;
        // Remote settlement arrives in the ack.
        let chan = Channel::new(id, remote, my_settlement, my_settlement);
        self.commit(StateDelta::Channel(Box::new(chan)));
        Ok(vec![eff])
    }

    fn on_new_channel(&mut self, from: Peer, id: ChannelId, settlement: PublicKey) -> Outcome {
        self.require_unfrozen()?;
        if self.state.channels.contains_key(&id) {
            return Err(ProtocolError::ChannelExists);
        }
        // As responder we auto-accept with a fresh settlement address
        // derived from the channel id and our identity.
        let sk = self.responder_settlement(&id);
        let my_settlement = sk.public_key();
        let msg = ProtocolMsg::NewChannelAck {
            id,
            settlement: my_settlement,
        };
        let eff = self.seal_at(from.slot, &msg)?;
        let mut chan = Channel::new(id, from.pk, my_settlement, settlement);
        chan.is_open = true;
        self.commit(StateDelta::Key(my_settlement, sk.to_bytes()));
        self.commit(StateDelta::Channel(Box::new(chan)));
        Ok(vec![eff, Effect::Event(HostEvent::ChannelOpen(id))])
    }

    /// Deterministic responder settlement key: derived inside the TEE from
    /// our identity and the channel id.
    fn responder_settlement(&self, id: &ChannelId) -> PrivateKey {
        let me = self.identity.as_ref().expect("session exists").sk;
        let seed = teechain_crypto::sha256::tagged_hash(
            "teechain/responder-settlement",
            &[&me.to_bytes(), &id.0],
        );
        PrivateKey::from_seed(&seed)
    }

    fn on_new_channel_ack(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        settlement: PublicKey,
    ) -> Outcome {
        let chan = self.chan(&id)?;
        if chan.remote != from || chan.is_open {
            return Err(ProtocolError::BadMessage);
        }
        self.commit_channel(&id, |c| {
            c.remote_settlement = settlement;
            c.is_open = true;
        })?;
        Ok(vec![Effect::Event(HostEvent::ChannelOpen(id))])
    }

    fn cmd_new_deposit(&mut self, env: &mut EnclaveEnv, deposit: Deposit) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let key = self.state.book.check_new_mine(&deposit)?.to_bytes();
        self.commit(StateDelta::Deposit {
            dep: deposit,
            key: Some(key),
            mine: true,
        });
        Ok(vec![])
    }

    fn cmd_release_deposit(
        &mut self,
        env: &mut EnclaveEnv,
        outpoint: teechain_blockchain::OutPoint,
        to: PublicKey,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let tx = settle::release_tx(self.state.book.require_free(&outpoint)?, to);
        self.commit(StateDelta::RemoveDeposit(outpoint));
        let mut effects = Vec::new();
        // Release uses the same signing/co-signing path as settlements.
        self.finish_settlement(ChannelId([0; 32]), tx, false, &mut effects);
        Ok(effects)
    }

    fn cmd_approve_deposit(
        &mut self,
        remote: PublicKey,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.require_unfrozen()?;
        let dep = self.state.book.require_free(&outpoint)?.clone();
        if self.state.book.is_approved_by(&remote, &outpoint) {
            return Err(ProtocolError::BadDeposit); // Already approved.
        }
        let msg = ProtocolMsg::ApproveDeposit { deposit: dep };
        Ok(vec![self.seal_to(&remote, &msg)?])
    }

    fn on_approve_deposit(&mut self, from: PublicKey, deposit: Deposit) -> Outcome {
        self.require_unfrozen()?;
        if self.state.book.did_approve(&from, &deposit.outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        // Remember the offered deposit so DepositVerified can find it.
        let book = &mut self.state.book;
        book.offered.insert(deposit.outpoint, deposit.clone());
        // The enclave cannot read the blockchain (§4): the host must verify
        // inclusion and confirmations per its own security policy, then
        // answer with DepositVerified.
        Ok(vec![Effect::Event(HostEvent::VerifyDeposit {
            remote: from,
            deposit,
        })])
    }

    fn cmd_deposit_verified(
        &mut self,
        remote: PublicKey,
        outpoint: teechain_blockchain::OutPoint,
        valid: bool,
    ) -> Outcome {
        self.require_unfrozen()?;
        if !valid {
            return Ok(vec![]);
        }
        // The host re-presents the deposit body it verified; we keep the
        // copy from the pending approval. For simplicity the verify event
        // carried the full deposit; hosts echo only identity + outpoint, so
        // we require the deposit to have been offered before.
        let dep = match self.state.book.offered.get(&outpoint) {
            Some(d) => d.clone(),
            None => return Err(ProtocolError::BadDeposit),
        };
        self.state.book.approve_remote(remote, dep);
        let msg = ProtocolMsg::DepositApproved { outpoint };
        Ok(vec![self.seal_to(&remote, &msg)?])
    }

    fn on_deposit_approved(
        &mut self,
        from: PublicKey,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.state.book.require_free(&outpoint)?;
        self.state.book.mark_approved_by(from, outpoint);
        Ok(vec![Effect::Event(HostEvent::DepositApproved {
            remote: from,
            outpoint,
        })])
    }

    fn cmd_associate(
        &mut self,
        env: &mut EnclaveEnv,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let chan = self.chan(&id)?;
        if !chan.usable() {
            return Err(ProtocolError::ChannelNotOpen);
        }
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        let remote = chan.remote;
        if !self.state.book.is_approved_by(&remote, &outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        let dep = self.state.book.require_free(&outpoint)?.clone();
        // For 1-of-1 deposits, share the private key so the remote can
        // settle unilaterally (Alg. 1 line 72). Committee deposits are
        // spendable via m-of-n signatures instead.
        let key = if dep.committee.n() == 1 {
            self.state
                .book
                .keys
                .get(&dep.committee.member_keys[0])
                .map(|k| k.to_bytes())
        } else {
            None
        };
        let msg = ProtocolMsg::AssociateDeposit {
            id,
            deposit: dep.clone(),
            key,
        };
        let eff = self.seal_to(&remote, &msg)?;
        self.commit_channel(&id, |c| {
            c.my_deps.push(outpoint);
            c.my_deps.sort();
            c.my_bal += dep.value;
        })?;
        self.commit(StateDelta::Deposit {
            dep,
            key,
            mine: true,
        });
        Ok(vec![
            eff,
            Effect::Event(HostEvent::DepositAssociated { id, outpoint }),
        ])
    }

    fn on_associate(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        deposit: Deposit,
        key: Option<[u8; 32]>,
    ) -> Outcome {
        self.require_unfrozen()?;
        if !self.state.book.did_approve(&from, &deposit.outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        let chan = self.chan(&id)?;
        if chan.remote != from || !chan.usable() {
            return Err(ProtocolError::BadMessage);
        }
        let outpoint = deposit.outpoint;
        self.commit_channel(&id, |c| {
            c.remote_deps.push(outpoint);
            c.remote_deps.sort();
            c.remote_bal += deposit.value;
        })?;
        self.commit(StateDelta::Deposit {
            dep: deposit,
            key,
            mine: false,
        });
        Ok(vec![Effect::Event(HostEvent::DepositAssociated {
            id,
            outpoint,
        })])
    }

    fn cmd_dissociate(
        &mut self,
        env: &mut EnclaveEnv,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let dep_value = self
            .state
            .book
            .value_of(&outpoint)
            .ok_or(ProtocolError::BadDeposit)?;
        let chan = self.chan(&id)?;
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        if !chan.my_deps.contains(&outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        // Double-spend guard (Alg. 1 line 92): our balance must cover the
        // deposit being withdrawn.
        if chan.my_bal < dep_value {
            return Err(ProtocolError::InsufficientBalance);
        }
        self.cmd_dissociate_unchecked(id, outpoint)
    }

    fn on_dissociate(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.require_unfrozen()?;
        let dep_value = self
            .state
            .book
            .value_of(&outpoint)
            .ok_or(ProtocolError::BadDeposit)?;
        let chan = self.chan(&id)?;
        if chan.remote != from || !chan.remote_deps.contains(&outpoint) {
            return Err(ProtocolError::BadMessage);
        }
        if chan.remote_bal < dep_value {
            return Err(ProtocolError::InsufficientBalance);
        }
        let msg = ProtocolMsg::DissociateAck { id, outpoint };
        let mut effects = vec![self.seal_to(&from, &msg)?];
        self.commit_channel(&id, |c| {
            c.remote_deps.retain(|d| *d != outpoint);
            c.remote_bal -= dep_value;
        })?;
        // Destroy our copy of the key (Alg. 1 line 104).
        let book = &self.state.book;
        if let Some(dep) = book.remote.get(&outpoint) {
            let key0 = dep.committee.member_keys[0];
            if book.keys.contains_key(&key0) {
                self.commit(StateDelta::DestroyKey(key0));
            }
        }
        self.maybe_finish_offchain_settle(&id, &mut effects);
        Ok(effects)
    }

    /// Terminal check for a cooperative off-chain settlement we initiated
    /// (Alg. 1 line 106): once every deposit on both sides has
    /// dissociated and no dissociation ack is outstanding, the
    /// termination is complete and exactly one `SettledOffChain`
    /// notification resolves the initiator's settle operation. (The
    /// responder reports its own side in `on_settle_request`.)
    fn maybe_finish_offchain_settle(&mut self, id: &ChannelId, effects: &mut Vec<Effect>) {
        let done = self.chan(id).is_ok_and(|c| {
            c.settling
                && c.my_deps.is_empty()
                && c.remote_deps.is_empty()
                && c.pending_dissoc.is_empty()
        });
        if done && self.commit_channel(id, |c| c.settling = false).is_ok() {
            effects.push(Effect::Event(HostEvent::SettledOffChain(*id)));
        }
    }

    fn on_dissociate_ack(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let dep_value = self
            .state
            .book
            .value_of(&outpoint)
            .ok_or(ProtocolError::BadDeposit)?;
        let chan = self.chan(&id)?;
        if chan.remote != from || !chan.pending_dissoc.contains(&outpoint) {
            return Err(ProtocolError::BadMessage);
        }
        // Leaving the channel frees the deposit (`DurableState::apply`).
        self.commit_channel(&id, |c| {
            c.pending_dissoc.retain(|d| *d != outpoint);
            c.my_deps.retain(|d| *d != outpoint);
            c.my_bal -= dep_value;
        })?;
        let mut effects = vec![Effect::Event(HostEvent::DepositDissociated {
            id,
            outpoint,
        })];
        self.maybe_finish_offchain_settle(&id, &mut effects);
        Ok(effects)
    }

    /// Lock-aware channel selection (admission's second tool besides
    /// queueing): when `id` is locked, another open, unlocked channel to
    /// the *same counterparty* with enough balance can carry the payment
    /// instead — that is exactly what the paper's parallel temporary
    /// channels (§7.4, Fig. 7) exist for. Deterministic pick: highest
    /// spendable balance, largest id as tie-break, so every engine
    /// configuration chooses the same sibling regardless of map order.
    pub(crate) fn sibling_unlocked(&self, id: &ChannelId, amount: u64) -> Option<ChannelId> {
        let want = self.state.channels.get(id)?.remote;
        self.state
            .channels
            .values()
            .filter(|c| {
                c.id != *id && c.remote == want && c.usable() && !c.locked() && c.my_bal >= amount
            })
            .max_by_key(|c| (c.my_bal, c.id))
            .map(|c| c.id)
    }

    fn cmd_pay(&mut self, env: &mut EnclaveEnv, id: ChannelId, amount: u64, count: u32) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        // One look-up serves the checks, the seal and the debit; only a
        // locked channel goes back to the map, for its sibling.
        let mut wire = id;
        let mut slot = self
            .state
            .channels
            .slot(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        let chan = self
            .state
            .channels
            .at(slot)
            .expect("a slot the table handed out");
        if !chan.usable() {
            return Err(ProtocolError::ChannelNotOpen);
        }
        // Lock-aware selection: a locked channel does not park the payment
        // when a parallel channel to the same peer can carry it right now.
        // The op stays correlated to the channel it was *submitted* on —
        // the inflight group records that id, so the ack fans back out
        // under the caller's key.
        if chan.locked() {
            match self.sibling_unlocked(&id, amount) {
                Some(sib) => {
                    self.admit.stats.rerouted += 1;
                    wire = sib;
                    slot = self
                        .state
                        .channels
                        .slot(&sib)
                        .ok_or(ProtocolError::UnknownChannel)?;
                }
                None => {
                    // Admission (vs the old `Err(ChannelLocked)` retry
                    // storm): park the op on the channel's FIFO; the
                    // unlock drain batches it with its queue neighbours
                    // into one commit. Only a full queue still pushes
                    // back on the caller.
                    let q = self.admit.queues.entry(id).or_default();
                    if q.len() >= ADMIT_QUEUE_CAP {
                        return Err(ProtocolError::ChannelLocked);
                    }
                    let deadline_ns = env.now_ns() + ADMIT_DEADLINE_NS;
                    q.push_back(QueueEntry {
                        op: QueuedOp::Pay { amount, count },
                        deadline_ns,
                        ready_ns: 0,
                    });
                    let depth = q.len();
                    self.admit.stats.enqueued += 1;
                    self.admit.stats.note_queue_depth(depth);
                    return Ok(vec![Effect::Event(HostEvent::PumpAt(deadline_ns))]);
                }
            }
        }
        let chan = self
            .state
            .channels
            .at(slot)
            .expect("a slot the table handed out");
        if chan.my_bal < amount {
            return Err(ProtocolError::InsufficientBalance);
        }
        let msg = ProtocolMsg::Pay {
            id: wire,
            amount,
            count,
        };
        let eff = self.seal_at(self.chan_peers[slot as usize], &msg)?;
        self.commit_at(
            slot,
            StateDelta::Pay {
                id: wire,
                my_delta: -(amount as i64),
                remote_delta: amount as i64,
            },
        );
        // Every outbound wire `Pay` registers an ack fan-out group so
        // `PayAck`/`PayNack` resolve ops strictly in send order, keyed by
        // the channel each op was submitted on.
        self.admit
            .inflight
            .entry(wire)
            .or_default()
            .push_back(AckEntry {
                id,
                amount,
                count,
                more: false,
            });
        Ok(vec![eff])
    }

    fn on_pay(
        &mut self,
        env: &mut EnclaveEnv,
        from: Peer,
        id: ChannelId,
        amount: u64,
        count: u32,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let slot = self
            .state
            .channels
            .slot(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        let chan = self
            .state
            .channels
            .at(slot)
            .expect("a slot the table handed out");
        if chan.remote != from.pk || !chan.usable() {
            return Err(ProtocolError::BadMessage);
        }
        if chan.locked() {
            // The channel was locked for a multi-hop payment after the
            // peer sent this pay (racing in the other direction). Defer
            // the decrypted message; the unlock drain re-delivers it. A
            // full deferral queue falls back to the old nack-and-rollback.
            let dq = self.admit.deferred.entry(id).or_default();
            if dq.len() >= ADMIT_QUEUE_CAP {
                let msg = ProtocolMsg::PayNack {
                    id,
                    amount,
                    count,
                    reason: ProtocolError::ChannelLocked.abort_code(),
                };
                return Ok(vec![self.seal_at(from.slot, &msg)?]);
            }
            let deadline_ns = env.now_ns() + DEFER_DEADLINE_NS;
            dq.push_back(DeferredMsg {
                from: from.pk,
                msg: ProtocolMsg::Pay { id, amount, count },
                deadline_ns,
            });
            let depth = dq.len();
            self.admit.stats.deferred += 1;
            self.admit.stats.note_defer_depth(depth);
            return Ok(vec![Effect::Event(HostEvent::PumpAt(deadline_ns))]);
        }
        if chan.remote_bal < amount {
            return Err(ProtocolError::BadMessage); // Peer violated protocol.
        }
        let ack = ProtocolMsg::PayAck { id, amount, count };
        let eff = self.seal_at(from.slot, &ack)?;
        self.commit_at(
            slot,
            StateDelta::Pay {
                id,
                my_delta: amount as i64,
                remote_delta: -(amount as i64),
            },
        );
        Ok(vec![
            eff,
            Effect::Event(HostEvent::PaymentReceived { id, amount, count }),
        ])
    }

    fn on_pay_ack(&mut self, from: Peer, id: ChannelId, amount: u64, count: u32) -> Outcome {
        let slot = self
            .state
            .channels
            .slot(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        let chan = self
            .state
            .channels
            .at(slot)
            .expect("a slot the table handed out");
        if chan.remote != from.pk {
            return Err(ProtocolError::BadMessage);
        }
        // One wire ack covers a whole drain batch: fan it back out to one
        // event per merged op, in queue order (the op layer matches
        // per-channel FIFO). A missing group (pre-crash send) degrades to
        // the single aggregate event.
        let mut acked = self.admit.take_acked(&id, |op| {
            Effect::Event(HostEvent::PaymentAcked {
                id: op.id,
                amount: op.amount,
                count: op.count,
            })
        });
        if acked.is_empty() {
            acked.push(Effect::Event(HostEvent::PaymentAcked { id, amount, count }));
        }
        Ok(acked)
    }

    fn on_pay_nack(
        &mut self,
        from: Peer,
        id: ChannelId,
        amount: u64,
        count: u32,
        reason: u8,
    ) -> Outcome {
        let slot = self
            .state
            .channels
            .slot(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        let chan = self
            .state
            .channels
            .at(slot)
            .expect("a slot the table handed out");
        if chan.remote != from.pk {
            return Err(ProtocolError::BadMessage);
        }
        // Roll back the optimistic debit (covers the whole wire batch).
        self.commit_at(
            slot,
            StateDelta::Pay {
                id,
                my_delta: amount as i64,
                remote_delta: -(amount as i64),
            },
        );
        let reason = ProtocolError::from_abort_code(reason);
        let mut nacked = self.admit.take_acked(&id, |op| {
            Effect::Event(HostEvent::PaymentNacked {
                id: op.id,
                amount: op.amount,
                count: op.count,
                reason: reason.clone(),
            })
        });
        if nacked.is_empty() {
            nacked.push(Effect::Event(HostEvent::PaymentNacked {
                id,
                amount,
                count,
                reason,
            }));
        }
        Ok(nacked)
    }

    fn cmd_settle(&mut self, env: &mut EnclaveEnv, id: ChannelId) -> Outcome {
        self.require_counter_ready(env)?;
        let chan = self
            .state
            .channels
            .get(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        if chan.closed {
            return Err(ProtocolError::ChannelNotOpen);
        }
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        // Anti-griefing: a settlement freezing the channel mid-swap could
        // strand the counterparty's HTLC (it locked on-chain funds against
        // a channel credit that would never land). The swap resolves
        // first — redeem or refund — then the channel may settle.
        if self.swap_pending_on(&id) {
            return Err(ProtocolError::SwapPending);
        }
        let chan = self.state.channels.get(&id).expect("checked");
        let remote = chan.remote;
        // Off-chain termination (Alg. 1 line 106): if balances are neutral
        // (every deposit's value equals its owner's share), dissociating
        // all deposits closes the channel with zero blockchain writes.
        let my_total: u64 = chan
            .my_deps
            .iter()
            .filter_map(|d| self.state.book.value_of(d))
            .sum();
        let remote_total: u64 = chan
            .remote_deps
            .iter()
            .filter_map(|d| self.state.book.value_of(d))
            .sum();
        if chan.my_bal == my_total && chan.remote_bal == remote_total {
            if chan.my_deps.is_empty() && chan.remote_deps.is_empty() {
                // Nothing funds the channel: the off-chain termination is
                // already complete on our side. Still ask the remote (so
                // its host gets its own SettledOffChain notification, as
                // in the deposit-carrying path), and report our terminal
                // state immediately — the initiator's settle operation
                // resolves on this notification.
                let msg = ProtocolMsg::SettleRequest { id };
                let eff = self.seal_to(&remote, &msg)?;
                return Ok(vec![eff, Effect::Event(HostEvent::SettledOffChain(id))]);
            }
            let my_deps = chan.my_deps.clone();
            let mut effects = Vec::new();
            for &outpoint in &my_deps {
                let msg = ProtocolMsg::DissociateDeposit { id, outpoint };
                effects.push(self.seal_to(&remote, &msg)?);
            }
            // Ask the remote to dissociate its deposits too, and remember
            // that we are driving this settlement: the terminal
            // `SettledOffChain` fires once both deposit lists drain.
            let msg = ProtocolMsg::SettleRequest { id };
            effects.push(self.seal_to(&remote, &msg)?);
            self.commit_channel(&id, |c| {
                c.pending_dissoc.extend(my_deps);
                c.settling = true;
            })?;
            return Ok(effects);
        }
        // On-chain settlement.
        let tx = settle::current_settlement_tx(chan);
        self.commit(StateDelta::CloseChannel(id));
        let mut effects = Vec::new();
        // Defensive: settle rejects locked channels, so the admission
        // queues are empty in practice — but flush so nothing can linger
        // behind a closed channel.
        self.flush_admission(id, ProtocolError::ChannelClosed, &mut effects);
        // Best-effort courtesy notification: unilateral settlement must
        // work with no session (e.g. after a crash-restore, §6.2).
        let notify = ProtocolMsg::ChannelClosed { id };
        if let Ok(eff) = self.seal_to(&remote, &notify) {
            effects.push(eff);
        }
        self.finish_settlement(id, tx, false, &mut effects);
        Ok(effects)
    }

    fn on_settle_request(&mut self, from: PublicKey, id: ChannelId) -> Outcome {
        self.require_unfrozen()?;
        // Mirror of the guard in `cmd_settle`: refuse to cooperate with a
        // peer settling out from under a pending swap.
        if self.swap_pending_on(&id) {
            return Err(ProtocolError::SwapPending);
        }
        let chan = self.chan(&id)?;
        if chan.remote != from {
            return Err(ProtocolError::BadMessage);
        }
        let my_deps = chan.my_deps.clone();
        let mut effects = Vec::new();
        for outpoint in my_deps {
            // Reuse the dissociation path; each will complete via acks.
            let sub = self.cmd_dissociate_unchecked(id, outpoint)?;
            effects.extend(sub);
        }
        // If we had no deposits, the channel is fully neutral on our side.
        effects.push(Effect::Event(HostEvent::SettledOffChain(id)));
        Ok(effects)
    }

    /// Dissociation without the counter/freeze preamble and the balance
    /// checks, which `cmd_dissociate` and cooperative settlement passed.
    fn cmd_dissociate_unchecked(
        &mut self,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let remote = self.chan(&id)?.remote;
        let msg = ProtocolMsg::DissociateDeposit { id, outpoint };
        let eff = self.seal_to(&remote, &msg)?;
        self.commit_channel(&id, |c| c.pending_dissoc.push(outpoint))?;
        Ok(vec![eff])
    }

    fn on_channel_closed(&mut self, from: PublicKey, id: ChannelId) -> Outcome {
        if self.chan(&id)?.remote != from {
            return Err(ProtocolError::BadMessage);
        }
        // Our deposits in this channel are now spent by the settlement.
        self.commit(StateDelta::CloseChannel(id));
        // Anything still queued behind the (remotely settled) channel is
        // terminal now.
        let mut effects = Vec::new();
        self.flush_admission(id, ProtocolError::ChannelClosed, &mut effects);
        Ok(effects)
    }

    // ---- Cross-chain atomic swaps (Command::Swap, [`crate::swap`]) ----

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
        effects.push(Effect::Event(HostEvent::SwapPhaseEntered {
            swap,
            phase: SwapPhase::Refunded,
        }));
        effects.push(Effect::Event(HostEvent::SwapResolved {
            swap,
            redeemed: false,
        }));
    }

    fn cmd_swap(
        &mut self,
        env: &mut EnclaveEnv,
        swap: SwapId,
        channel: ChannelId,
        amount: u64,
        alt_amount: u64,
        timeout_blocks: u64,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        if amount == 0 || alt_amount == 0 || timeout_blocks == 0 {
            return Err(ProtocolError::BadMessage);
        }
        if self.state.swaps.contains_key(&swap) {
            return Err(ProtocolError::BadMessage);
        }
        if self.swap_pending_on(&channel) {
            return Err(ProtocolError::SwapPending);
        }
        let chan = self
            .state
            .channels
            .get(&channel)
            .ok_or(ProtocolError::UnknownChannel)?;
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
            Effect::Event(HostEvent::SwapPhaseEntered {
                swap,
                phase: SwapPhase::Init,
            }),
            Effect::Event(HostEvent::SwapCheckAt {
                swap,
                at: deadline_ns,
            }),
        ])
    }

    #[allow(clippy::too_many_arguments)]
    fn on_swap_init(
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
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        if self.state.swaps.contains_key(&swap)
            || amount == 0
            || alt_amount == 0
            || timeout_blocks == 0
        {
            return Err(ProtocolError::BadMessage);
        }
        let chan = self
            .state
            .channels
            .get(&channel)
            .ok_or(ProtocolError::UnknownChannel)?;
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
            Effect::Event(HostEvent::SwapPhaseEntered {
                swap,
                phase: SwapPhase::Init,
            }),
            Effect::Event(HostEvent::SwapFundingNeeded {
                swap,
                script,
                value: alt_amount,
            }),
            Effect::Event(HostEvent::SwapCheckAt {
                swap,
                at: deadline_ns,
            }),
        ])
    }

    fn cmd_swap_funded(
        &mut self,
        env: &mut EnclaveEnv,
        swap: SwapId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let state = self
            .state
            .swaps
            .get(&swap)
            .ok_or(ProtocolError::BadMessage)?;
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
                return Ok(vec![Effect::Event(HostEvent::SwapCheckAt {
                    swap,
                    at: env.now_ns() + SWAP_CHECK_INTERVAL_NS,
                })]);
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
        effects.push(Effect::Event(HostEvent::SwapPhaseEntered {
            swap,
            phase: SwapPhase::Locked,
        }));
        effects.push(Effect::Event(HostEvent::SwapCheckAt {
            swap,
            at: env.now_ns() + SWAP_CHECK_INTERVAL_NS,
        }));
        Ok(effects)
    }

    fn on_swap_locked(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        swap: SwapId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let state = self
            .state
            .swaps
            .get(&swap)
            .ok_or(ProtocolError::BadMessage)?;
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
            Effect::Event(HostEvent::SwapPhaseEntered {
                swap,
                phase: SwapPhase::Locked,
            }),
            Effect::Event(HostEvent::VerifySwapHtlc {
                swap,
                outpoint,
                script,
                value,
            }),
        ])
    }

    fn cmd_swap_htlc_verified(
        &mut self,
        env: &mut EnclaveEnv,
        swap: SwapId,
        valid: bool,
        confirmations: u64,
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let state = self
            .state
            .swaps
            .get(&swap)
            .ok_or(ProtocolError::BadMessage)?
            .clone();
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
            Effect::Event(HostEvent::SwapPhaseEntered {
                swap,
                phase: SwapPhase::Redeemed,
            }),
            Effect::Event(HostEvent::SwapResolved {
                swap,
                redeemed: true,
            }),
        ])
    }

    fn on_swap_secret(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        swap: SwapId,
        secret: [u8; 32],
    ) -> Outcome {
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let state = self
            .state
            .swaps
            .get(&swap)
            .ok_or(ProtocolError::BadMessage)?;
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
        let state = self
            .state
            .swaps
            .get(&swap)
            .ok_or(ProtocolError::BadMessage)?
            .clone();
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
            Effect::Event(HostEvent::SwapPhaseEntered {
                swap,
                phase: SwapPhase::Redeemed,
            }),
            Effect::Event(HostEvent::SwapResolved {
                swap,
                redeemed: true,
            }),
        ])
    }

    fn on_swap_nack(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        swap: SwapId,
        reason: u8,
    ) -> Outcome {
        // Same preamble as every other state-mutating swap handler: the
        // Refunded transition below stages a WAL record, which in persist
        // mode must ride a counter-gated commit (a throttled rejection
        // re-enters via the admission pump's stash).
        self.require_unfrozen()?;
        self.require_counter_ready(env)?;
        let _ = ProtocolError::from_abort_code(reason);
        let state = self
            .state
            .swaps
            .get(&swap)
            .ok_or(ProtocolError::BadMessage)?;
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
                    Effect::Event(HostEvent::SwapPhaseEntered {
                        swap,
                        phase: SwapPhase::Refunded,
                    }),
                    Effect::Event(HostEvent::SwapResolved {
                        swap,
                        redeemed: false,
                    }),
                ])
            }
            _ => Ok(vec![]),
        }
    }

    fn cmd_swap_tick(
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
                effects.push(Effect::Event(HostEvent::SwapCheckAt {
                    swap,
                    at: env.now_ns() + SWAP_CHECK_INTERVAL_NS,
                }));
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
                effects.push(Effect::Event(HostEvent::SwapCheckAt {
                    swap,
                    at: env.now_ns() + SWAP_CHECK_INTERVAL_NS,
                }));
                Ok(effects)
            }
            SwapPhase::Init | SwapPhase::Locked => {
                // Pending-phase resolutions mutate state; gate on the
                // counter and re-arm rather than fail when throttled.
                if let Err(e) = self.require_counter_ready(env) {
                    return match e {
                        ProtocolError::CounterThrottled { ready_at } => {
                            Ok(vec![Effect::Event(HostEvent::SwapCheckAt {
                                swap,
                                at: ready_at,
                            })])
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
                            Effect::Event(HostEvent::SwapPhaseEntered {
                                swap,
                                phase: SwapPhase::Refunded,
                            }),
                            Effect::Event(HostEvent::SwapResolved {
                                swap,
                                redeemed: false,
                            }),
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
                Ok(vec![Effect::Event(HostEvent::SwapCheckAt {
                    swap,
                    at: env.now_ns() + SWAP_CHECK_INTERVAL_NS,
                })])
            }
        }
    }

    // ---- Protocol message dispatch ----

    pub(crate) fn dispatch_protocol(
        &mut self,
        env: &mut EnclaveEnv,
        peer: Peer,
        msg: ProtocolMsg,
    ) -> Outcome {
        let from = peer.pk;
        match msg {
            ProtocolMsg::NewChannel { id, settlement } => self.on_new_channel(peer, id, settlement),
            ProtocolMsg::NewChannelAck { id, settlement } => {
                self.on_new_channel_ack(from, id, settlement)
            }
            ProtocolMsg::ApproveDeposit { deposit } => self.on_approve_deposit(from, deposit),
            ProtocolMsg::DepositApproved { outpoint } => self.on_deposit_approved(from, outpoint),
            ProtocolMsg::AssociateDeposit { id, deposit, key } => {
                self.on_associate(from, id, deposit, key)
            }
            ProtocolMsg::DissociateDeposit { id, outpoint } => {
                self.on_dissociate(from, id, outpoint)
            }
            ProtocolMsg::DissociateAck { id, outpoint } => {
                self.on_dissociate_ack(from, id, outpoint)
            }
            ProtocolMsg::Pay { id, amount, count } => self.on_pay(env, peer, id, amount, count),
            ProtocolMsg::PayAck { id, amount, count } => self.on_pay_ack(peer, id, amount, count),
            ProtocolMsg::PayNack {
                id,
                amount,
                count,
                reason,
            } => self.on_pay_nack(peer, id, amount, count, reason),
            ProtocolMsg::SettleRequest { id } => self.on_settle_request(from, id),
            ProtocolMsg::ChannelClosed { id } => self.on_channel_closed(from, id),
            ProtocolMsg::MhLock(m) => self.on_mh_lock(env, from, m),
            ProtocolMsg::MhSign {
                route,
                tau,
                digests,
                deposits,
            } => self.on_mh_sign(from, route, tau, digests, deposits),
            ProtocolMsg::MhPreUpdate { route, tau } => self.on_mh_pre_update(from, route, tau),
            ProtocolMsg::MhUpdate { route } => self.on_mh_update(from, route),
            ProtocolMsg::MhPostUpdate { route } => self.on_mh_post_update(env, from, route),
            ProtocolMsg::MhRelease { route } => self.on_mh_release(env, from, route),
            ProtocolMsg::MhAbort { route, reason } => self.on_mh_abort(env, from, route, reason),
            ProtocolMsg::RepAssign => self.on_rep_assign(env, peer),
            ProtocolMsg::RepAssignAck { member_key } => self.on_rep_assign_ack(peer, member_key),
            ProtocolMsg::RepUpdate { seq, deltas } => self.on_rep_update(peer, seq, deltas),
            ProtocolMsg::RepAck { seq } => self.on_rep_ack(peer, seq),
            ProtocolMsg::RepFreeze => self.on_rep_freeze(peer),
            ProtocolMsg::SwapInit {
                swap,
                channel,
                amount,
                alt_amount,
                hash,
                timeout_blocks,
            } => self.on_swap_init(
                env,
                from,
                swap,
                channel,
                amount,
                alt_amount,
                hash,
                timeout_blocks,
            ),
            ProtocolMsg::SwapLocked { swap, outpoint } => {
                self.on_swap_locked(env, from, swap, outpoint)
            }
            ProtocolMsg::SwapSecret { swap, secret } => {
                self.on_swap_secret(env, from, swap, secret)
            }
            ProtocolMsg::SwapNack { swap, reason } => self.on_swap_nack(env, from, swap, reason),
            ProtocolMsg::SigRequest { .. } | ProtocolMsg::SigResponse { .. } => {
                // Signing traffic is routed at the host layer (it carries
                // no secrets); enclaves serve it via Command::CoSign.
                Err(ProtocolError::BadMessage)
            }
        }
    }
}

impl EnclaveProgram for TeechainEnclave {
    type Cmd = Command;
    type Resp = Outcome;

    fn handle(&mut self, env: &mut EnclaveEnv, cmd: Command) -> Outcome {
        debug_assert!(self.rep.staged.is_empty(), "staged deltas leaked");
        self.rep.staged.clear();
        let result = match cmd {
            Command::GetIdentity => {
                let kp = self.identity(env);
                Ok(vec![Effect::Event(HostEvent::Identity(kp.pk))])
            }
            Command::StartSession { remote } => self.cmd_start_session(env, remote),
            Command::Deliver { wire, at } => self.cmd_deliver(env, wire, at),
            Command::NewAddress => self.hand_out_key(env, |pk| Ok(HostEvent::NewAddress(pk))),
            Command::NewCommitteeAddress { m } => self.cmd_new_committee(env, m),
            Command::NewChannel {
                id,
                remote,
                my_settlement,
            } => self.cmd_new_channel(env, id, remote, my_settlement),
            Command::NewDeposit { deposit } => self.cmd_new_deposit(env, deposit),
            Command::ReleaseDeposit { outpoint, to } => self.cmd_release_deposit(env, outpoint, to),
            Command::ApproveDeposit { remote, outpoint } => {
                self.cmd_approve_deposit(remote, outpoint)
            }
            Command::DepositVerified {
                remote,
                outpoint,
                valid,
            } => self.cmd_deposit_verified(remote, outpoint, valid),
            Command::AssociateDeposit { id, outpoint } => self.cmd_associate(env, id, outpoint),
            Command::DissociateDeposit { id, outpoint } => self.cmd_dissociate(env, id, outpoint),
            Command::Pay { id, amount, count } => self.cmd_pay(env, id, amount, count),
            Command::Settle { id } => self.cmd_settle(env, id),
            Command::PayMultihop {
                route,
                hops,
                channels,
                amount,
            } => self.cmd_pay_multihop(env, route, hops, channels, amount),
            Command::Eject { route } => self.cmd_eject(env, route),
            Command::EjectWithPopt { route, popt } => self.cmd_eject_popt(env, route, popt),
            Command::AttachBackup { backup } => self.cmd_attach_backup(backup),
            Command::ReadReplica => self.cmd_read_replica(),
            Command::SettleFromReplica => self.cmd_settle_from_replica(),
            Command::CoSign { req_id, tx } => self.cmd_co_sign(req_id, tx),
            Command::AddCoSigs { req_id, sigs } => self.cmd_add_co_sigs(req_id, sigs),
            Command::RestoreSealed { blob } => self.cmd_restore_sealed(env, blob),
            Command::Recover { snapshot, log } => self.cmd_recover(env, snapshot, log),
            Command::PumpAdmission => self.cmd_pump_admission(env),
            Command::Swap {
                swap,
                channel,
                amount,
                alt_amount,
                timeout_blocks,
            } => self.cmd_swap(env, swap, channel, amount, alt_amount, timeout_blocks),
            Command::SwapFunded { swap, outpoint } => self.cmd_swap_funded(env, swap, outpoint),
            Command::SwapHtlcVerified {
                swap,
                valid,
                confirmations,
            } => self.cmd_swap_htlc_verified(env, swap, valid, confirmations),
            Command::SwapTick {
                swap,
                spent_preimage,
                confirmations,
                claim_confirmed,
            } => self.cmd_swap_tick(env, swap, spent_preimage, confirmations, claim_confirmed),
        };
        match result {
            Ok(effects) => self.finalize(env, effects),
            Err(e) => {
                self.rep.staged.clear();
                Err(e)
            }
        }
    }
}

impl TeechainEnclave {
    fn cmd_deliver(&mut self, env: &mut EnclaveEnv, mut wire: Vec<u8>, at: usize) -> Outcome {
        let bytes = wire.get_mut(at..).ok_or(ProtocolError::BadMessage)?;
        let (from, seq, ct) = match WireView::parse(bytes).map_err(|_| ProtocolError::BadMessage)? {
            WireView::Hello(hs) => return self.on_hello(env, *hs),
            WireView::HelloAck(hs) => return self.on_hello_ack(env, *hs),
            WireView::Sealed { from, seq, ct, .. } => (from, seq, ct),
        };
        // `from` only finds the session: the bytes are not checked to be a
        // curve point because the table holds validated identities only,
        // so anything else finds nothing. Who the message is from is what
        // the session it authenticates under says.
        let slot = self.peers.slot(from).ok_or(ProtocolError::NoSession)?;
        let session = established(&mut self.peers, slot)?;
        let msg = session.open_in_place(seq, &mut bytes[ct])?;
        let from = Peer {
            pk: session.remote,
            slot,
        };
        // Persistent mode gates *before* dispatch: handlers mutate state and
        // the commit in `finalize` must never fail after the fact. Stashed
        // messages keep FIFO order behind anything already waiting.
        if !self.pending_msgs.is_empty() {
            self.pending_msgs.push_back((from, msg));
            let id = self.ensure_counter(env);
            return Err(ProtocolError::CounterThrottled {
                ready_at: env.counter_ready_at(id),
            });
        }
        if let Err(e) = self.require_counter_ready(env) {
            self.pending_msgs.push_back((from, msg));
            return Err(e);
        }
        // The message is handed over, not copied. A handler's own counter
        // check reads what the gate just read — no commit happens in
        // between — so it cannot throttle a message the gate let through
        // (whose sequence number is spent, and which would be lost).
        let result = self.dispatch_protocol(env, from, msg);
        debug_assert!(
            !matches!(result, Err(ProtocolError::CounterThrottled { .. })),
            "a handler throttled behind an open gate"
        );
        result
    }

    // ---- Admission pump (queues, deferred messages, counter stash) ----

    /// The host-timer entry point of the admission layer. Expires
    /// overdue queued/deferred entries, then — if the monotonic counter
    /// permits committing — drains any unlocked channel with a backlog
    /// and re-dispatches counter-stashed messages as one group commit.
    fn cmd_pump_admission(&mut self, env: &mut EnclaveEnv) -> Outcome {
        if self.frozen {
            // A frozen enclave keeps its queues; ops resolve at the host
            // (dead-op resolution), not here.
            return Ok(vec![]);
        }
        let mut effects = Vec::new();
        self.expire_admissions(env, &mut effects);
        match self.require_counter_ready(env) {
            Ok(()) => {
                let ids: Vec<ChannelId> = self
                    .admit
                    .queues
                    .keys()
                    .chain(self.admit.deferred.keys())
                    .copied()
                    .collect();
                for id in ids {
                    // Safety net: unlock points drain eagerly, so this
                    // only finds work after an expiry or an odd
                    // interleaving — but it guarantees no backlog can
                    // outlive its lock.
                    self.drain_admission(env, id, &mut effects);
                }
                let mut out = self.pump_stashed(env, effects)?;
                // Re-arm for whatever is still parked (behind channels
                // that are genuinely still locked, or inside a backoff).
                if let Some(d) = self.admit.next_deadline(env.now_ns()) {
                    out.push(Effect::Event(HostEvent::PumpAt(d)));
                }
                Ok(out)
            }
            Err(ProtocolError::CounterThrottled { ready_at }) => {
                effects.push(Effect::Event(HostEvent::PumpAt(ready_at)));
                Ok(effects)
            }
            Err(e) => Err(e),
        }
    }

    /// Re-dispatches messages stashed while the counter was throttled.
    /// Group commit (§6.2): with no replication chain attached, every
    /// stashed message is dispatched into ONE commit — a single counter
    /// increment and WAL append cover the whole batch, amortizing the
    /// 100 ms counter throttle over many payments.
    fn pump_stashed(&mut self, env: &mut EnclaveEnv, seed: Vec<Effect>) -> Outcome {
        if self.cfg.persist() && self.rep.backup.is_none() {
            let mut out = seed;
            while let Some((from, msg)) = self.pending_msgs.pop_front() {
                match self.dispatch_protocol(env, from, msg.clone()) {
                    Ok(effects) => out.extend(effects),
                    Err(ProtocolError::CounterThrottled { ready_at }) => {
                        // Defensive: cannot trigger mid-batch (the counter
                        // is only spent by the finalize below), but if a
                        // handler ever throttles, preserve ordering.
                        self.pending_msgs.push_front((from, msg));
                        out.push(Effect::Event(HostEvent::PumpAt(ready_at)));
                        break;
                    }
                    Err(_) => {
                        // Drop protocol-violating stashed messages.
                    }
                }
            }
            return self.finalize(env, out);
        }
        let mut out = seed;
        while let Some((from, msg)) = self.pending_msgs.pop_front() {
            match self.dispatch_protocol(env, from, msg.clone()) {
                Ok(effects) => {
                    out.extend(effects);
                    // Replicate/persist per message, preserving ordering.
                    let flushed = self.finalize(env, std::mem::take(&mut out))?;
                    out = flushed;
                }
                Err(ProtocolError::CounterThrottled { ready_at }) => {
                    self.pending_msgs.push_front((from, msg));
                    out.push(Effect::Event(HostEvent::PumpAt(ready_at)));
                    return Ok(out);
                }
                Err(_) => {
                    // Drop protocol-violating stashed messages.
                }
            }
        }
        self.finalize(env, out)
    }

    /// Fails every queued/deferred entry whose admission deadline has
    /// passed. Queued deadlines are NOT monotone within a queue — a
    /// contention requeue re-enters with its *original* admission
    /// deadline — so the whole queue is scanned. Deferred deadlines stay
    /// monotone (defer time + a constant); front pops are exhaustive
    /// there.
    fn expire_admissions(&mut self, env: &mut EnclaveEnv, effects: &mut Vec<Effect>) {
        let now = env.now_ns();
        let ids: Vec<ChannelId> = self.admit.queues.keys().copied().collect();
        for id in ids {
            let mut i = 0;
            while let Some(entry) = self.admit.queues.get_mut(&id).and_then(|q| {
                while i < q.len() && q[i].deadline_ns > now {
                    i += 1;
                }
                (i < q.len()).then(|| q.remove(i).unwrap())
            }) {
                self.admit.stats.expired += 1;
                match entry.op {
                    QueuedOp::Pay { amount, count } => {
                        effects.push(Effect::Event(HostEvent::PaymentRejected {
                            id,
                            amount,
                            count,
                            reason: ProtocolError::ChannelLocked,
                        }));
                    }
                    QueuedOp::Multihop { route, .. } => {
                        effects.push(Effect::Event(HostEvent::MultihopFailed {
                            route,
                            reason: ProtocolError::ChannelLocked,
                        }));
                    }
                }
            }
        }
        let ids: Vec<ChannelId> = self.admit.deferred.keys().copied().collect();
        for id in ids {
            while let Some(d) = self.admit.deferred.get_mut(&id).and_then(|q| {
                q.front()
                    .is_some_and(|e| e.deadline_ns <= now)
                    .then(|| q.pop_front().unwrap())
            }) {
                self.admit.stats.expired += 1;
                // Enqueue time is reconstructible: deadline - constant.
                let age = now.saturating_sub(d.deadline_ns - DEFER_DEADLINE_NS);
                self.admit.stats.note_defer_age(age);
                self.refuse_deferred(d, ProtocolError::ChannelLocked, effects);
            }
        }
        self.admit.queues.retain(|_, q| !q.is_empty());
        self.admit.deferred.retain(|_, q| !q.is_empty());
    }

    /// Answers a deferred inbound message backward with a typed refusal,
    /// so the sender's op completes instead of hanging.
    fn refuse_deferred(
        &mut self,
        d: DeferredMsg,
        reason: ProtocolError,
        effects: &mut Vec<Effect>,
    ) {
        let refusal = match d.msg {
            ProtocolMsg::Pay { id, amount, count } => ProtocolMsg::PayNack {
                id,
                amount,
                count,
                reason: reason.abort_code(),
            },
            ProtocolMsg::MhLock(m) => ProtocolMsg::MhAbort {
                route: m.route,
                reason: reason.abort_code(),
            },
            _ => return, // Only Pay/MhLock are ever deferred.
        };
        if let Ok(eff) = self.seal_to(&d.from, &refusal) {
            effects.push(eff);
        }
    }

    /// Drains a channel's admission backlog after it unlocked: deferred
    /// inbound messages re-dispatch first (they were decrypted before any
    /// local op could observe the unlock), then queued local payments are
    /// applied as one batched delta — the enclosing ecall's `finalize`
    /// turns the whole drain into a single commit / WAL record.
    pub(crate) fn drain_admission(
        &mut self,
        env: &mut EnclaveEnv,
        id: ChannelId,
        effects: &mut Vec<Effect>,
    ) {
        self.drain_deferred(env, id, effects);
        self.drain_queued(env.now_ns(), id, effects);
    }

    fn drain_deferred(&mut self, env: &mut EnclaveEnv, id: ChannelId, effects: &mut Vec<Effect>) {
        loop {
            let unlocked = self
                .state
                .channels
                .get(&id)
                .map(|c| !c.locked() && !c.closed)
                .unwrap_or(false);
            if !unlocked {
                break;
            }
            let Some(d) = self.admit.deferred.get_mut(&id).and_then(|q| q.pop_front()) else {
                break;
            };
            let age = env
                .now_ns()
                .saturating_sub(d.deadline_ns - DEFER_DEADLINE_NS);
            self.admit.stats.note_defer_age(age);
            match d.msg {
                ProtocolMsg::Pay { id, amount, count } => {
                    let from = Peer {
                        pk: d.from,
                        slot: self.peer_slot(&d.from),
                    };
                    match self.on_pay(env, from, id, amount, count) {
                        Ok(effs) => effects.extend(effs),
                        Err(e) => {
                            let nack = ProtocolMsg::PayNack {
                                id,
                                amount,
                                count,
                                reason: e.abort_code(),
                            };
                            if let Ok(eff) = self.seal_to(&d.from, &nack) {
                                effects.push(eff);
                            }
                        }
                    }
                }
                ProtocolMsg::MhLock(m) => {
                    let route = m.route;
                    match self.on_mh_lock(env, d.from, m) {
                        Ok(effs) => effects.extend(effs),
                        Err(e) => {
                            let abort = ProtocolMsg::MhAbort {
                                route,
                                reason: e.abort_code(),
                            };
                            if let Ok(eff) = self.seal_to(&d.from, &abort) {
                                effects.push(eff);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        self.admit.deferred.retain(|_, q| !q.is_empty());
    }

    fn drain_queued(&mut self, now: u64, id: ChannelId, effects: &mut Vec<Effect>) {
        loop {
            match self.state.channels.get(&id) {
                None => {
                    self.flush_admission(id, ProtocolError::ChannelClosed, effects);
                    return;
                }
                Some(c) if c.closed => {
                    self.flush_admission(id, ProtocolError::ChannelClosed, effects);
                    return;
                }
                Some(c) if c.locked() => return, // A drained multihop re-locked it.
                Some(_) => {}
            }
            // Strict FIFO: a front entry still inside its re-origination
            // backoff parks the whole queue until its ready time (the
            // pump wakes us, via `next_deadline`).
            if self
                .admit
                .queues
                .get(&id)
                .and_then(|q| q.front())
                .is_some_and(|e| e.ready_ns > now)
            {
                break;
            }
            let Some(front) = self.admit.queues.get(&id).and_then(|q| q.front()) else {
                break;
            };
            if matches!(front.op, QueuedOp::Pay { .. }) {
                self.apply_pay_batch(id, effects);
            } else {
                // Wait-die reservation: an older route's deferred lock at
                // this node needs this (currently unlocked) channel, so a
                // younger queued origination may not take it — doing so
                // starves the waiter, whose two hop channels then never
                // free up together. Park the queue; the pump or the
                // waiter's own lock/release re-drains it.
                let QueuedOp::Multihop { route, .. } = front.op else {
                    unreachable!("non-Pay front is Multihop");
                };
                if self.reserved_for_older(id, route) {
                    break;
                }
                let entry = self
                    .admit
                    .queues
                    .get_mut(&id)
                    .and_then(|q| q.pop_front())
                    .expect("front checked");
                let QueuedOp::Multihop {
                    route,
                    hops,
                    channels,
                    amount,
                } = entry.op
                else {
                    unreachable!("front checked as multihop");
                };
                match self.pay_multihop_inner(route, hops, channels, amount, entry.deadline_ns) {
                    Ok(effs) => effects.extend(effs),
                    Err(e) => effects.push(Effect::Event(HostEvent::MultihopFailed {
                        route,
                        reason: e,
                    })),
                }
            }
        }
        self.admit.queues.retain(|_, q| !q.is_empty());
    }

    /// Pops the longest prefix of consecutive queued payments the current
    /// balance covers and applies them as ONE payment: one staged delta,
    /// one wire `Pay` carrying the summed amount/count, one ack fan-out
    /// group. This is the batch the group commit amortizes. A front
    /// payment that does not fit even alone is rejected (terminal) so the
    /// queue cannot head-of-line block behind it.
    fn apply_pay_batch(&mut self, id: ChannelId, effects: &mut Vec<Effect>) {
        let Some(chan) = self.state.channels.get(&id) else {
            return;
        };
        let (my_bal, remote) = (chan.my_bal, chan.remote);
        let Some(q) = self.admit.queues.get_mut(&id) else {
            return;
        };
        let mut batch: Vec<(u64, u32)> = Vec::new();
        let mut total = 0u64;
        let mut total_count = 0u32;
        while let Some(front) = q.front() {
            match front.op {
                QueuedOp::Pay { amount, count } => {
                    if total + amount <= my_bal {
                        total += amount;
                        total_count += count;
                        batch.push((amount, count));
                        q.pop_front();
                    } else if batch.is_empty() {
                        q.pop_front();
                        effects.push(Effect::Event(HostEvent::PaymentRejected {
                            id,
                            amount,
                            count,
                            reason: ProtocolError::InsufficientBalance,
                        }));
                    } else {
                        break;
                    }
                }
                QueuedOp::Multihop { .. } => break,
            }
        }
        if batch.is_empty() {
            return;
        }
        let msg = ProtocolMsg::Pay {
            id,
            amount: total,
            count: total_count,
        };
        match self.seal_to(&remote, &msg) {
            Ok(eff) => {
                self.commit(StateDelta::Pay {
                    id,
                    my_delta: -(total as i64),
                    remote_delta: total as i64,
                });
                self.admit.stats.record_batch(batch.len() as u64);
                let last = batch.len() - 1;
                self.admit
                    .inflight
                    .entry(id)
                    .or_default()
                    .extend(
                        batch
                            .iter()
                            .enumerate()
                            .map(|(i, &(amount, count))| AckEntry {
                                id,
                                amount,
                                count,
                                more: i < last,
                            }),
                    );
                effects.push(eff);
            }
            Err(e) => {
                // No session (should not happen for an open channel):
                // nothing was debited, fail the whole batch.
                for (amount, count) in batch {
                    effects.push(Effect::Event(HostEvent::PaymentRejected {
                        id,
                        amount,
                        count,
                        reason: e.clone(),
                    }));
                }
            }
        }
    }

    /// Terminally fails everything queued or deferred behind `id` —
    /// called when the channel closes (settle, eject, remote settlement).
    pub(crate) fn flush_admission(
        &mut self,
        id: ChannelId,
        reason: ProtocolError,
        effects: &mut Vec<Effect>,
    ) {
        if let Some(q) = self.admit.queues.remove(&id) {
            for entry in q {
                self.admit.stats.flushed += 1;
                match entry.op {
                    QueuedOp::Pay { amount, count } => {
                        effects.push(Effect::Event(HostEvent::PaymentRejected {
                            id,
                            amount,
                            count,
                            reason: reason.clone(),
                        }));
                    }
                    QueuedOp::Multihop { route, .. } => {
                        effects.push(Effect::Event(HostEvent::MultihopFailed {
                            route,
                            reason: reason.clone(),
                        }));
                    }
                }
            }
        }
        if let Some(dq) = self.admit.deferred.remove(&id) {
            for d in dq {
                self.admit.stats.flushed += 1;
                self.refuse_deferred(d, reason.clone(), effects);
            }
        }
    }

    fn cmd_start_session(&mut self, env: &mut EnclaveEnv, remote: PublicKey) -> Outcome {
        self.require_unfrozen()?;
        let me = self.identity(env);
        let known = self.peers.get(&remote.to_bytes());
        if let Some(s) = known.and_then(Option::as_ref) {
            if s.established {
                // Idempotent: the session already exists.
                return Ok(vec![Effect::Event(HostEvent::SessionEstablished(remote))]);
            }
            return Err(ProtocolError::BadMessage); // Handshake in flight.
        }
        let eph = Keypair::from_seed(&env.random_bytes32());
        self.pending_eph.insert(remote, eph.sk);
        let quote = env.quote(session::expected_quote_binding(&me.pk, &eph.pk));
        let hs = session::make_handshake("teechain/hello", &me, &eph, &remote, quote);
        Ok(vec![Effect::Send {
            to: remote,
            peer: None,
            wire: WireMsg::Hello(hs).encode_to_vec(),
        }])
    }

    fn on_hello(&mut self, env: &mut EnclaveEnv, hs: crate::msg::Handshake) -> Outcome {
        self.require_unfrozen()?;
        let me = self.identity(env);
        session::verify_handshake(
            "teechain/hello",
            &hs,
            &me.pk,
            &self.cfg.trust_root,
            &self.cfg.measurement,
        )?;
        let eph = Keypair::from_seed(&env.random_bytes32());
        let secret = session::session_secret(&eph.sk, &hs.eph);
        let slot = self.open_session(Session::derive(&secret, &me.pk, &hs.identity));
        let quote = env.quote(session::expected_quote_binding(&me.pk, &eph.pk));
        let ack = session::make_handshake("teechain/hello-ack", &me, &eph, &hs.identity, quote);
        Ok(vec![
            Effect::Send {
                to: hs.identity,
                peer: Some(PeerSlot(slot)),
                wire: WireMsg::HelloAck(ack).encode_to_vec(),
            },
            Effect::Event(HostEvent::SessionEstablished(hs.identity)),
        ])
    }

    fn on_hello_ack(&mut self, env: &mut EnclaveEnv, hs: crate::msg::Handshake) -> Outcome {
        let me = self.identity(env);
        session::verify_handshake(
            "teechain/hello-ack",
            &hs,
            &me.pk,
            &self.cfg.trust_root,
            &self.cfg.measurement,
        )?;
        let my_eph = self
            .pending_eph
            .remove(&hs.identity)
            .ok_or(ProtocolError::BadMessage)?;
        let secret = session::session_secret(&my_eph, &hs.eph);
        self.open_session(Session::derive(&secret, &me.pk, &hs.identity));
        Ok(vec![Effect::Event(HostEvent::SessionEstablished(
            hs.identity,
        ))])
    }

    /// Installs the session of a completed handshake in its peer's slot —
    /// a re-handshake replaces the old session there, so every channel of
    /// the peer keeps pointing at it. Returns the slot.
    fn open_session(&mut self, mut session: Session) -> u32 {
        session.established = true;
        self.peers.insert(session.remote.to_bytes(), Some(session))
    }

    // ---- Persistence (§6.2) ----

    /// Serializes the full durable state: the identity, then the
    /// [`DurableState`] image (v4).
    fn state_image(&self) -> Vec<u8> {
        let mut out = vec![STATE_IMAGE_V4];
        self.identity
            .as_ref()
            .map(|k| k.sk.to_bytes())
            .encode(&mut out);
        self.state.encode_image(&mut out);
        out
    }

    /// SHA-256 of the canonical image.
    #[cfg(test)]
    pub(crate) fn durable_digest(&self) -> [u8; 32] {
        sha256(&self.state_image())
    }

    /// Deserializes a state image produced by [`Self::state_image`] (v4),
    /// one of its predecessors (v3 without routes, v2 without swaps), or
    /// the legacy format that predates the WAL (no version byte).
    fn load_state_image(&mut self, state: &[u8]) -> Result<(), ProtocolError> {
        let mut r = teechain_util::codec::Reader::new(state);
        let version: u8 = match state.first() {
            Some(&v @ STATE_IMAGE_V2..=STATE_IMAGE_V4) => v,
            _ => 0,
        };
        if version != 0 {
            let _version: u8 = r.read().map_err(|_| ProtocolError::BadMessage)?;
        }
        let sk_bytes: Option<[u8; 32]> = r.read().map_err(|_| ProtocolError::BadMessage)?;
        if let Some(bytes) = sk_bytes {
            let sk = PrivateKey::from_bytes(&bytes).ok_or(ProtocolError::BadMessage)?;
            self.identity = Some(Keypair::from(sk));
        }
        self.state = DurableState::read_image(&mut r, version)?;
        self.index_new_channels();
        Ok(())
    }

    pub(crate) fn finalize(&mut self, env: &mut EnclaveEnv, mut effects: Vec<Effect>) -> Outcome {
        if self.rep.staged.is_empty() {
            return Ok(effects);
        }
        let mut durable = None;
        if self.cfg.persist() {
            let id = self.ensure_counter(env);
            // Guaranteed ready: mutating handlers checked first.
            let counter = match env.increment_counter(id) {
                Ok(counter) => counter,
                Err(teechain_tee::CounterError::Throttled { ready_at }) => {
                    self.rep.staged.clear();
                    return Err(ProtocolError::CounterThrottled { ready_at });
                }
            };
            self.commits = counter;
            durable = Some(if counter % self.cfg.snapshot_every() == 0 {
                // Snapshot commit: the sealed full-state image carries
                // this commit by itself (the host compacts the WAL), so
                // no log record is needed — sealing the deltas too
                // would only double the write.
                Effect::Persist(env.seal(counter, &self.state_image()))
            } else {
                // One sealed WAL record carries the whole delta batch:
                // a single counter increment and durability barrier per
                // group commit, no matter how many payments are inside.
                let mut record = Vec::new();
                counter.encode(&mut record);
                self.identity
                    .as_ref()
                    .map(|k| k.sk.to_bytes())
                    .encode(&mut record);
                self.rep.staged.encode(&mut record);
                Effect::AppendLog(env.seal(counter, &record))
            });
        }
        // The durable write goes first: the host performs effects in order.
        if let Some(backup) = self.rep.backup {
            // Force-freeze chain replication (Alg. 3 line 21): hold the
            // visible effects until the chain acknowledges the update.
            let seq = self.rep.send_seq;
            self.rep.send_seq += 1;
            self.rep.pending.insert(seq, effects);
            let deltas = std::mem::take(&mut self.rep.staged);
            let send = self.seal_at(backup.slot, &ProtocolMsg::RepUpdate { seq, deltas })?;
            Ok(durable.into_iter().chain([send]).collect())
        } else {
            self.rep.staged.clear();
            effects.splice(..0, durable);
            Ok(effects)
        }
    }

    fn cmd_restore_sealed(&mut self, env: &mut EnclaveEnv, blob: Vec<u8>) -> Outcome {
        // The counter value proves freshness: the blob must carry the
        // current hardware counter value, or it is a stale (rolled-back)
        // state and is rejected. This path restores a snapshot alone; if
        // WAL records were appended after it, use [`Command::Recover`].
        let id = self.ensure_counter(env);
        let min = env.read_counter(id);
        let (counter, state) = env
            .unseal(min, &blob)
            .map_err(|_| ProtocolError::BadMessage)?;
        self.load_state_image(&state)?;
        self.commits = counter;
        Ok(vec![])
    }

    fn cmd_recover(
        &mut self,
        env: &mut EnclaveEnv,
        snapshot: Option<Vec<u8>>,
        log: Vec<Vec<u8>>,
    ) -> Outcome {
        if !self.cfg.persist() {
            return Err(ProtocolError::BadMessage);
        }
        // Recovery must be the first ecall of a fresh program instance:
        // replaying deltas over live state would double-apply them (a
        // malicious host could otherwise inflate its own balances by
        // feeding the real WAL to a running enclave). Rejecting here
        // leaves the live state untouched, so no freeze.
        if self.commits != 0 || self.identity.is_some() || !self.state.is_empty() {
            return Err(ProtocolError::BadMessage);
        }
        // A failed recovery leaves partially applied state behind;
        // freeze so nothing can run on it. A fresh program instance can
        // always retry with better storage.
        let result = self.recover_inner(env, snapshot, log);
        if result.is_err() {
            self.frozen = true;
        }
        result
    }

    fn recover_inner(
        &mut self,
        env: &mut EnclaveEnv,
        snapshot: Option<Vec<u8>>,
        log: Vec<Vec<u8>>,
    ) -> Outcome {
        let id = self.ensure_counter(env);
        let hw = env.read_counter(id);
        // `applied` tracks the highest commit counter incorporated so
        // far; the chain must end exactly at the hardware counter.
        let mut applied = 0u64;
        if let Some(blob) = &snapshot {
            if !blob.is_empty() {
                let (counter, state) =
                    env.unseal(0, blob).map_err(|_| ProtocolError::BadMessage)?;
                self.load_state_image(&state)?;
                applied = counter;
            }
        }
        for rec in &log {
            let (counter, payload) = env.unseal(0, rec).map_err(|_| ProtocolError::BadMessage)?;
            if counter <= applied {
                // Record predates the snapshot (host compaction lagged);
                // its effects are already in the image.
                continue;
            }
            if counter != applied + 1 {
                // A commit is missing from the log: rolled-back storage
                // or a torn tail. Either way the state would be stale.
                return Err(ProtocolError::StaleState {
                    found: applied,
                    expected: hw,
                });
            }
            let mut r = teechain_util::codec::Reader::new(&payload);
            let embedded: u64 = r.read().map_err(|_| ProtocolError::BadMessage)?;
            if embedded != counter {
                return Err(ProtocolError::BadMessage);
            }
            let identity: Option<[u8; 32]> = r.read().map_err(|_| ProtocolError::BadMessage)?;
            if self.identity.is_none() {
                if let Some(bytes) = identity {
                    let sk = PrivateKey::from_bytes(&bytes).ok_or(ProtocolError::BadMessage)?;
                    self.identity = Some(Keypair::from(sk));
                }
            }
            let deltas: Vec<StateDelta> = r.read().map_err(|_| ProtocolError::BadMessage)?;
            for delta in &deltas {
                self.state.apply(delta);
            }
            applied = counter;
        }
        if applied != hw {
            // The hardware counter proves more commits happened than the
            // storage shows: refuse to run on rolled-back state (§6.2).
            return Err(ProtocolError::StaleState {
                found: applied,
                expected: hw,
            });
        }
        self.commits = applied;
        self.index_new_channels();
        let mut effects = vec![Effect::Event(HostEvent::Recovered {
            channels: self.state.channels.len(),
            deposits: self.state.book.mine.len() + self.state.book.remote.len(),
            commits: applied,
        })];
        // Re-arm swap timers: a pending swap resumes its chain watch /
        // deadline abort; an initiator whose debit committed (Redeemed)
        // re-drives the idempotent claim broadcast until it confirms —
        // sessions did not survive the crash, so the responder learns the
        // preimage from the chain if the re-sent `SwapSecret` cannot go.
        // The table iterates in id order, so the effects do too.
        let now = env.now_ns();
        let swaps = self.state.swaps.values();
        effects.extend(
            swaps
                .filter(|s| s.phase.pending() || (s.phase == SwapPhase::Redeemed && s.initiator))
                .map(|s| {
                    Effect::Event(HostEvent::SwapCheckAt {
                        swap: s.id,
                        at: now,
                    })
                }),
        );
        if let Some(me) = self.identity.as_ref().map(|i| i.pk) {
            let swaps = self.state.swaps.values();
            effects.extend(
                swaps
                    .filter(|s| !s.initiator && s.phase == SwapPhase::Init)
                    .map(|s| {
                        Effect::Event(HostEvent::SwapFundingNeeded {
                            swap: s.id,
                            script: s.htlc_script(&me),
                            value: s.alt_amount,
                        })
                    }),
            );
        }
        Ok(effects)
    }

    // Test/host introspection helpers (read-only; a real enclave would not
    // expose these, but the *untrusted host* can always observe its own
    // command stream, so nothing here grants extra power).

    /// Our channel view (None if unknown).
    pub fn channel(&self, id: &ChannelId) -> Option<&Channel> {
        self.state.channels.get(id)
    }

    /// Number of established sessions.
    pub fn session_count(&self) -> usize {
        self.peers
            .values()
            .filter(|p| p.as_ref().is_some_and(|s| s.established))
            .count()
    }

    /// The identity public key, if generated.
    pub fn identity_pk(&self) -> Option<PublicKey> {
        self.identity.as_ref().map(|k| k.pk)
    }

    /// Whether this enclave is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// A replicated channel's state (this enclave as a backup).
    pub fn replica_channel(&self, id: &ChannelId) -> Option<&Channel> {
        self.rep.replica.channels.get(id)
    }

    /// Read-only deposit book access (tests and compromised-TEE modelling).
    pub fn book_ref(&self) -> &DepositBook {
        &self.state.book
    }

    /// The replica's deposit book (this enclave as a backup).
    #[cfg(test)]
    pub(crate) fn replica_book(&self) -> &DepositBook {
        &self.rep.replica.book
    }

    /// Admission-layer counters: enqueues, deferrals, batch sizes.
    pub fn admit_stats(&self) -> &crate::admit::AdmitStats {
        &self.admit.stats
    }

    /// Entries currently parked in the admission layer (tests).
    pub fn admit_backlog(&self) -> usize {
        self.admit.backlog()
    }

    /// A swap's full state (tests and host chain-watch wiring).
    pub fn swap_state(&self, id: &SwapId) -> Option<&SwapState> {
        self.state.swaps.get(id)
    }

    /// Number of swaps that can still go either way.
    pub fn pending_swaps(&self) -> usize {
        self.state
            .swaps
            .values()
            .filter(|s| s.phase.pending())
            .count()
    }
}

#[cfg(test)]
mod tests;
