//! The correlated-operation layer: every host command submitted through
//! this API gets an [`OpId`], and the protocol layer delivers **exactly
//! one** terminal [`Completion`] per operation — a typed success payload
//! ([`OpOutput`]) or a typed failure ([`OpError`]) carrying the real
//! [`ProtocolError`], including remote rejections and timeouts that a
//! fire-and-forget command interface would silently swallow.
//!
//! This is the operation-history discipline of the linearizability
//! literature applied to the host API: an explicit invoke (submit) and
//! response (completion) pair per operation, so latency is measured — not
//! inferred — and error paths are values, not absent events.
//!
//! Layering:
//!
//! * `OpTracker` (crate-internal) lives inside the untrusted host
//!   ([`crate::node::TeechainNode`]): it correlates terminal
//!   [`HostEvent`]s with pending operations, turns them into
//!   completions, and arms deadline/retry timers inside the simulation —
//!   so completions are ordinary deterministic events that merge
//!   identically at any shard count.
//! * [`Request`] is the one thing a harness submits, and [`Pending`] the
//!   typed token it hands back: resolve it with
//!   [`Harness::wait`](crate::testkit::Harness::wait), which runs the
//!   cluster until the operation resolves and extracts the typed result.
//! * `HostEvent` remains only as the host's internal notification stream
//!   for genuinely unsolicited events (e.g. `VerifyDeposit` callbacks);
//!   no caller outside `crates/core` touches it.

use crate::enclave::{Command, HostEvent};
use crate::swap::SwapOutcome;
use crate::types::{ChannelId, CommitteeSpec, Deposit, ProtocolError, RouteId, SwapId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use teechain_blockchain::{OutPoint, TxId};
use teechain_crypto::schnorr::PublicKey;

/// Identifies one submitted operation, unique across the whole cluster:
/// the submitting node plus a per-node sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId {
    /// The simulator node the operation was submitted on.
    pub node: u32,
    /// Per-node submission sequence number (starts at 1).
    pub seq: u64,
}

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op#{}.{}", self.node, self.seq)
    }
}

/// How a settlement reached the terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleKind {
    /// Cooperative off-chain termination: every deposit dissociated, zero
    /// blockchain writes (Alg. 1 line 106).
    OffChain,
    /// A settlement transaction carrying the final balances was
    /// broadcast.
    OnChain(TxId),
}

/// Typed success payload of a completed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// The enclave's identity key (`Command::GetIdentity`).
    Identity(PublicKey),
    /// A fresh in-enclave blockchain address (`Command::NewAddress`).
    Address(PublicKey),
    /// An m-of-n committee spec (`Command::NewCommitteeAddress`).
    Committee(CommitteeSpec),
    /// Secure session established with the peer (`Command::StartSession`).
    SessionEstablished(PublicKey),
    /// Channel fully open on both sides (`Command::NewChannel`).
    ChannelOpen(ChannelId),
    /// A deposit was minted, confirmed and registered (the composite
    /// fund-deposit operation).
    DepositFunded(Deposit),
    /// The counterparty approved our deposit (`Command::ApproveDeposit`).
    DepositApproved {
        /// The approving counterparty.
        remote: PublicKey,
        /// Our deposit.
        outpoint: OutPoint,
    },
    /// Deposit associated with a channel (`Command::AssociateDeposit`).
    DepositAssociated {
        /// The channel.
        chan: ChannelId,
        /// The deposit.
        outpoint: OutPoint,
    },
    /// Deposit dissociated and free again (`Command::DissociateDeposit`).
    DepositDissociated {
        /// The channel.
        chan: ChannelId,
        /// The deposit.
        outpoint: OutPoint,
    },
    /// Our payment was acknowledged by the receiver (`Command::Pay` —
    /// the paper's latency endpoint).
    PaymentApplied {
        /// The channel.
        chan: ChannelId,
        /// Total amount applied.
        amount: u64,
        /// Batched logical payment count.
        count: u32,
    },
    /// A multi-hop payment completed end-to-end (`Command::PayMultihop`).
    MultihopDelivered {
        /// The route.
        route: RouteId,
        /// Amount delivered.
        amount: u64,
    },
    /// Channel settled (`Command::Settle` / `Command::ReleaseDeposit`).
    Settled {
        /// The channel (zeroed for a deposit release).
        chan: ChannelId,
        /// Off-chain or on-chain terminal state.
        kind: SettleKind,
    },
    /// A backup TEE joined our committee chain (`Command::AttachBackup`).
    BackupAttached(PublicKey),
    /// Replica summary after a force-freeze read (`Command::ReadReplica`).
    ReplicaState {
        /// Replicated channels.
        channels: usize,
        /// Replicated deposits.
        deposits: usize,
        /// Replication updates applied.
        applied_seq: u64,
    },
    /// Result of a co-sign request (`Command::CoSign`).
    CoSigned {
        /// Echoed request id.
        req_id: u64,
        /// True if verification failed and signing was refused.
        refused: bool,
    },
    /// Crash recovery replayed durable state (`Command::Recover` / the
    /// harness-level recover operation).
    Recovered {
        /// Channels restored.
        channels: usize,
        /// Deposits restored.
        deposits: usize,
        /// Durable commits replayed.
        commits: u64,
    },
    /// A cross-chain atomic swap resolved (`Command::Swap`). Both
    /// resolutions — redeemed on both ledgers or refunded on both — are
    /// successful completions; the payload says which.
    Swap(SwapOutcome),
    /// The command was accepted and has no asynchronous response (e.g.
    /// `Command::NewDeposit`, `Command::Eject`).
    Done,
}

impl OpOutput {
    /// Stable kind label, keying the per-op-type latency histograms in
    /// bench reports (`latency.<kind>` in `BENCH_*.json`).
    pub fn kind(&self) -> &'static str {
        match self {
            OpOutput::Identity(_) => "identity",
            OpOutput::Address(_) => "address",
            OpOutput::Committee(_) => "committee",
            OpOutput::SessionEstablished(_) => "session",
            OpOutput::ChannelOpen(_) => "channel_open",
            OpOutput::DepositFunded(_) => "deposit_funded",
            OpOutput::DepositApproved { .. } => "deposit_approved",
            OpOutput::DepositAssociated { .. } => "deposit_associated",
            OpOutput::DepositDissociated { .. } => "deposit_dissociated",
            OpOutput::PaymentApplied { .. } => "payment",
            OpOutput::MultihopDelivered { .. } => "multihop",
            OpOutput::Settled { .. } => "settle",
            OpOutput::BackupAttached(_) => "backup_attached",
            OpOutput::ReplicaState { .. } => "replica_state",
            OpOutput::CoSigned { .. } => "cosigned",
            OpOutput::Recovered { .. } => "recovered",
            OpOutput::Swap(_) => "swap",
            OpOutput::Done => "done",
        }
    }
}

/// Typed failure of a completed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// The local enclave rejected the operation — synchronously (state
    /// checks, freeze, a full admission queue) or later, when its
    /// admission-queue entry expired, the channel closed underneath it,
    /// or the drain found the balance could not cover it.
    Rejected(ProtocolError),
    /// The operation reached the network and a remote participant
    /// refused it (e.g. a payment nack on a locked channel, or a
    /// multi-hop abort carrying the refusing hop's reason).
    Remote(ProtocolError),
    /// No terminal response arrived: the operation was declared dead at
    /// its deadline or when the network went quiescent (e.g. the peer
    /// crashed with the request on the wire). Correlation is per-key
    /// FIFO (the wire carries no operation ids), so a deadline must
    /// exceed the path round-trip: cancelling a *live* operation leaves
    /// its eventual response to match the next same-key submission.
    Timeout {
        /// Simulated time (ns) at which the operation was declared dead.
        at_ns: u64,
    },
}

impl OpError {
    /// The underlying protocol error, when one exists.
    pub fn protocol_error(&self) -> Option<&ProtocolError> {
        match self {
            OpError::Rejected(e) | OpError::Remote(e) => Some(e),
            OpError::Timeout { .. } => None,
        }
    }

    /// Stable accounting label (`op_errors` sections of the bench
    /// artifacts count completions per label).
    pub fn label(&self) -> String {
        match self {
            OpError::Rejected(e) => format!("rejected:{}", e.name()),
            OpError::Remote(e) => format!("remote:{}", e.name()),
            OpError::Timeout { .. } => "timeout".to_string(),
        }
    }
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Rejected(e) => write!(f, "rejected locally: {e}"),
            OpError::Remote(e) => write!(f, "refused remotely: {e}"),
            OpError::Timeout { at_ns } => {
                write!(f, "no terminal response by t={} ns", at_ns)
            }
        }
    }
}

impl std::error::Error for OpError {}

impl From<ProtocolError> for OpError {
    fn from(e: ProtocolError) -> OpError {
        OpError::Rejected(e)
    }
}

/// The terminal record of one operation: delivered exactly once, stamped
/// with the simulated time at which the outcome became known.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The operation.
    pub op: OpId,
    /// Simulated time (ns) of the terminal outcome.
    pub time_ns: u64,
    /// Typed success payload or typed failure.
    pub outcome: Result<OpOutput, OpError>,
}

/// A typed token for an in-flight operation. Resolve it with the harness
/// `wait` methods, which run the engine until the completion exists (or
/// the operation is declared dead at quiescence) and extract `T`.
///
/// `Pending` is deliberately neither `Clone` nor `Copy`: an operation has
/// exactly one completion, and the token is consumed claiming it.
#[derive(Debug)]
pub struct Pending<T> {
    /// The correlated operation.
    pub op: OpId,
    marker: std::marker::PhantomData<fn() -> T>,
}

impl<T> Pending<T> {
    /// Wraps an operation id in a typed token.
    pub fn new(op: OpId) -> Pending<T> {
        Pending {
            op,
            marker: std::marker::PhantomData,
        }
    }
}

/// Types extractable from a successful [`OpOutput`]. Each typed harness
/// method constructs a [`Pending<T>`] whose `T` matches the output its
/// command produces.
pub trait OpResult: Sized {
    /// Extracts `Self`; `None` on a mismatched output variant (a harness
    /// bug, surfaced as a panic in `wait`).
    fn from_output(out: OpOutput) -> Option<Self>;
}

impl OpResult for OpOutput {
    fn from_output(out: OpOutput) -> Option<Self> {
        Some(out)
    }
}

impl OpResult for () {
    fn from_output(_: OpOutput) -> Option<Self> {
        Some(())
    }
}

impl OpResult for ChannelId {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::ChannelOpen(id) => Some(id),
            _ => None,
        }
    }
}

impl OpResult for PublicKey {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::Identity(pk)
            | OpOutput::Address(pk)
            | OpOutput::SessionEstablished(pk)
            | OpOutput::BackupAttached(pk) => Some(pk),
            _ => None,
        }
    }
}

impl OpResult for Deposit {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::DepositFunded(d) => Some(d),
            _ => None,
        }
    }
}

impl OpResult for CommitteeSpec {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::Committee(c) => Some(c),
            _ => None,
        }
    }
}

/// A completed direct payment (`Command::Pay` acknowledgement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payment {
    /// The channel.
    pub chan: ChannelId,
    /// Total amount applied.
    pub amount: u64,
    /// Batched logical payment count.
    pub count: u32,
}

impl OpResult for Payment {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::PaymentApplied {
                chan,
                amount,
                count,
            } => Some(Payment {
                chan,
                amount,
                count,
            }),
            _ => None,
        }
    }
}

/// A completed multi-hop payment (`Command::PayMultihop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The route.
    pub route: RouteId,
    /// Amount delivered end-to-end.
    pub amount: u64,
}

impl OpResult for Delivered {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::MultihopDelivered { route, amount } => Some(Delivered { route, amount }),
            _ => None,
        }
    }
}

/// A completed settlement (`Command::Settle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settlement {
    /// The channel.
    pub chan: ChannelId,
    /// Off-chain or on-chain terminal state.
    pub kind: SettleKind,
}

impl OpResult for Settlement {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::Settled { chan, kind } => Some(Settlement { chan, kind }),
            _ => None,
        }
    }
}

/// A completed crash recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Channels restored.
    pub channels: usize,
    /// Deposits restored.
    pub deposits: usize,
    /// Durable commits replayed.
    pub commits: u64,
}

impl OpResult for Recovery {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::Recovered {
                channels,
                deposits,
                commits,
            } => Some(Recovery {
                channels,
                deposits,
                commits,
            }),
            _ => None,
        }
    }
}

impl OpResult for SwapOutcome {
    fn from_output(out: OpOutput) -> Option<Self> {
        match out {
            OpOutput::Swap(o) => Some(o),
            _ => None,
        }
    }
}

/// Correlation key a pending operation waits on: the identifying payload
/// of the terminal [`HostEvent`] its command produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum MatchKey {
    Identity,
    Address,
    Committee,
    Session(PublicKey),
    ChannelOpen(ChannelId),
    DepositApproved(OutPoint),
    DepositAssociated(ChannelId, OutPoint),
    DepositDissociated(ChannelId, OutPoint),
    Payment(ChannelId),
    Multihop(RouteId),
    Settle(ChannelId),
    CoSign(u64),
    BackupAttached(PublicKey),
    Replica,
    Recovered,
    Swap(SwapId),
}

/// The terminal correlation key for a command, or `None` for commands
/// that have no asynchronous response (they complete with
/// [`OpOutput::Done`] as soon as the enclave accepts them).
pub(crate) fn expect_for(cmd: &Command) -> Option<MatchKey> {
    match cmd {
        Command::GetIdentity => Some(MatchKey::Identity),
        Command::NewAddress => Some(MatchKey::Address),
        Command::NewCommitteeAddress { .. } => Some(MatchKey::Committee),
        Command::StartSession { remote } => Some(MatchKey::Session(*remote)),
        Command::NewChannel { id, .. } => Some(MatchKey::ChannelOpen(*id)),
        Command::ApproveDeposit { outpoint, .. } => Some(MatchKey::DepositApproved(*outpoint)),
        Command::AssociateDeposit { id, outpoint } => {
            Some(MatchKey::DepositAssociated(*id, *outpoint))
        }
        Command::DissociateDeposit { id, outpoint } => {
            Some(MatchKey::DepositDissociated(*id, *outpoint))
        }
        Command::Pay { id, .. } => Some(MatchKey::Payment(*id)),
        Command::PayMultihop { route, .. } => Some(MatchKey::Multihop(*route)),
        Command::Settle { id } => Some(MatchKey::Settle(*id)),
        // Releases run through the settlement path with a zeroed channel
        // context (see `TeechainEnclave::cmd_release_deposit`).
        Command::ReleaseDeposit { .. } => Some(MatchKey::Settle(ChannelId([0; 32]))),
        Command::AttachBackup { backup } => Some(MatchKey::BackupAttached(*backup)),
        Command::ReadReplica => Some(MatchKey::Replica),
        Command::CoSign { req_id, .. } => Some(MatchKey::CoSign(*req_id)),
        Command::Recover { .. } => Some(MatchKey::Recovered),
        Command::Swap { swap, .. } => Some(MatchKey::Swap(*swap)),
        Command::NewDeposit { .. }
        | Command::DepositVerified { .. }
        | Command::Deliver { .. }
        | Command::Eject { .. }
        | Command::EjectWithPopt { .. }
        | Command::SettleFromReplica
        | Command::AddCoSigs { .. }
        | Command::RestoreSealed { .. }
        | Command::PumpAdmission
        | Command::SwapFunded { .. }
        | Command::SwapHtlcVerified { .. }
        | Command::SwapTick { .. } => None,
    }
}

/// Maps a terminal host event to its correlation key and outcome.
/// Non-terminal events (unsolicited notifications) map to `None`.
fn outcome_of(event: &HostEvent) -> Option<(MatchKey, Result<OpOutput, OpError>)> {
    Some(match event {
        HostEvent::Identity(pk) => (MatchKey::Identity, Ok(OpOutput::Identity(*pk))),
        HostEvent::NewAddress(pk) => (MatchKey::Address, Ok(OpOutput::Address(*pk))),
        HostEvent::CommitteeAddress(spec) => {
            (MatchKey::Committee, Ok(OpOutput::Committee(spec.clone())))
        }
        HostEvent::SessionEstablished(pk) => (
            MatchKey::Session(*pk),
            Ok(OpOutput::SessionEstablished(*pk)),
        ),
        HostEvent::ChannelOpen(id) => (MatchKey::ChannelOpen(*id), Ok(OpOutput::ChannelOpen(*id))),
        HostEvent::DepositApproved { remote, outpoint } => (
            MatchKey::DepositApproved(*outpoint),
            Ok(OpOutput::DepositApproved {
                remote: *remote,
                outpoint: *outpoint,
            }),
        ),
        HostEvent::DepositAssociated { id, outpoint } => (
            MatchKey::DepositAssociated(*id, *outpoint),
            Ok(OpOutput::DepositAssociated {
                chan: *id,
                outpoint: *outpoint,
            }),
        ),
        HostEvent::DepositDissociated { id, outpoint } => (
            MatchKey::DepositDissociated(*id, *outpoint),
            Ok(OpOutput::DepositDissociated {
                chan: *id,
                outpoint: *outpoint,
            }),
        ),
        HostEvent::PaymentAcked { id, amount, count } => (
            MatchKey::Payment(*id),
            Ok(OpOutput::PaymentApplied {
                chan: *id,
                amount: *amount,
                count: *count,
            }),
        ),
        // A nack is the remote's typed refusal (carried on the wire);
        // our debit was rolled back.
        HostEvent::PaymentNacked { id, reason, .. } => {
            (MatchKey::Payment(*id), Err(OpError::Remote(reason.clone())))
        }
        // A rejection is the local admission layer giving up on a queued
        // payment: deadline expiry, channel closed, or insufficient
        // balance at drain time. Nothing was ever debited or sent.
        HostEvent::PaymentRejected { id, reason, .. } => (
            MatchKey::Payment(*id),
            Err(OpError::Rejected(reason.clone())),
        ),
        HostEvent::SettledOffChain(id) => (
            MatchKey::Settle(*id),
            Ok(OpOutput::Settled {
                chan: *id,
                kind: SettleKind::OffChain,
            }),
        ),
        HostEvent::SettlementBroadcast { id, txid } => (
            MatchKey::Settle(*id),
            Ok(OpOutput::Settled {
                chan: *id,
                kind: SettleKind::OnChain(*txid),
            }),
        ),
        HostEvent::MultihopComplete { route, amount } => (
            MatchKey::Multihop(*route),
            Ok(OpOutput::MultihopDelivered {
                route: *route,
                amount: *amount,
            }),
        ),
        HostEvent::MultihopFailed { route, reason } => (
            MatchKey::Multihop(*route),
            Err(OpError::Remote(reason.clone())),
        ),
        HostEvent::CoSignResult {
            req_id, refused, ..
        } => (
            MatchKey::CoSign(*req_id),
            Ok(OpOutput::CoSigned {
                req_id: *req_id,
                refused: *refused,
            }),
        ),
        HostEvent::BackupAttached(pk) => (
            MatchKey::BackupAttached(*pk),
            Ok(OpOutput::BackupAttached(*pk)),
        ),
        HostEvent::ReplicaState {
            channels,
            deposits,
            applied_seq,
        } => (
            MatchKey::Replica,
            Ok(OpOutput::ReplicaState {
                channels: *channels,
                deposits: *deposits,
                applied_seq: *applied_seq,
            }),
        ),
        HostEvent::Recovered {
            channels,
            deposits,
            commits,
        } => (
            MatchKey::Recovered,
            Ok(OpOutput::Recovered {
                channels: *channels,
                deposits: *deposits,
                commits: *commits,
            }),
        ),
        // A swap resolving is terminal for the initiator's operation
        // (the responder has no local operation; its tracker simply
        // finds no queue for the key and drops the completion).
        HostEvent::SwapResolved { swap, redeemed } => (
            MatchKey::Swap(*swap),
            Ok(OpOutput::Swap(SwapOutcome {
                swap: *swap,
                redeemed: *redeemed,
            })),
        ),
        // Unsolicited notifications: never terminal for an operation.
        HostEvent::VerifyDeposit { .. }
        | HostEvent::PaymentReceived { .. }
        | HostEvent::MultihopReceived { .. }
        | HostEvent::NeedCoSign { .. }
        | HostEvent::Frozen
        | HostEvent::PumpAt(_)
        | HostEvent::SwapFundingNeeded { .. }
        | HostEvent::VerifySwapHtlc { .. }
        | HostEvent::SwapCheckAt { .. }
        | HostEvent::SwapPhaseEntered { .. } => return None,
    })
}

/// One operation a node is asked to perform: an enclave [`Command`] or
/// one of the host-side composites. It is what every harness submits
/// (through [`TeechainNode::submit_op`](crate::node::TeechainNode::submit_op)),
/// and what a throttled operation re-executes when the counter lifts (a
/// composite resumes at its throttled step; nothing before it runs twice).
#[derive(Clone)]
pub enum Request {
    /// An enclave command.
    Cmd(Command),
    /// Mint an m-of-n committee deposit of `value` on the shared chain,
    /// confirm it and register it with the enclave; completes with
    /// [`OpOutput::DepositFunded`].
    FundDeposit {
        /// Deposit value.
        value: u64,
        /// Signature threshold (n = 1 + committee chain length).
        m: u8,
    },
    /// Generate an in-enclave settlement address, then propose channel
    /// `id` to `remote`; completes with [`OpOutput::ChannelOpen`].
    OpenChannel {
        /// The new channel's id.
        id: ChannelId,
        /// The counterparty's enclave identity (requires a session).
        remote: PublicKey,
    },
    /// Replay the durable store after a crash; completes with
    /// [`OpOutput::Recovered`].
    Recover,
}

impl From<Command> for Request {
    fn from(cmd: Command) -> Request {
        Request::Cmd(cmd)
    }
}

impl Request {
    /// The correlation key of the terminal event, or `None` when the
    /// request resolves within its own dispatch.
    fn key(&self) -> Option<MatchKey> {
        match self {
            Request::Cmd(cmd) => expect_for(cmd),
            Request::FundDeposit { .. } => None,
            Request::OpenChannel { id, .. } => Some(MatchKey::ChannelOpen(*id)),
            Request::Recover => Some(MatchKey::Recovered),
        }
    }
}

/// What a composite [`Request`] had already done when its counter-gated
/// step was throttled. The re-dispatch resumes after it, so no step before
/// the throttle runs twice.
pub(crate) enum Progress {
    /// `FundDeposit`: minted on chain; only `NewDeposit` remains.
    Minted(Deposit),
    /// `OpenChannel`: the settlement address exists; only `NewChannel`
    /// remains.
    Settlement(PublicKey),
}

struct PendingOp {
    req: Request,
    key: Option<MatchKey>,
    progress: Option<Progress>,
}

impl MatchKey {
    /// True for a key that recurs for as long as its channel lives: its
    /// queue is kept when it empties, so the channel's next payment finds
    /// it allocated. Every other key names one operation's target (a
    /// route, a swap, a deposit), and its queue goes when it empties.
    fn recurs(&self) -> bool {
        matches!(self, MatchKey::Payment(_))
    }
}

/// The most seqs `OpTracker::ring` spans. An op still pending at the front
/// of a full ring moves to `OpTracker::stragglers`, so an op that never
/// resolves pins this many seqs, not every seq submitted after it.
const RING_SPAN: usize = 1 << 12;

/// Tracks in-flight operations on one node: submission order per
/// correlation key, so same-key completions resolve FIFO (matching the
/// per-session FIFO the protocol itself guarantees).
///
/// Op seqs are dense and monotone per node, so a pending op is found by
/// indexing, at `ring[seq - base]`; one older than `base` is a straggler.
/// Only the correlation key is hashed, once where an operation enters
/// (`register`) and once where its terminal event arrives (`observe`).
#[derive(Default)]
pub(crate) struct OpTracker {
    next_seq: u64,
    node: u32,
    /// By `seq - base`: the op, `None` once it resolved. The front is
    /// always pending — resolved ops are popped off it — so the ring spans
    /// the oldest pending op not in `stragglers` to the newest, at most
    /// [`RING_SPAN`] seqs.
    ring: VecDeque<Option<PendingOp>>,
    /// The seq of `ring[0]`.
    base: u64,
    /// Pending ops older than `base`, by seq.
    stragglers: BTreeMap<u64, PendingOp>,
    /// Pending op seqs per correlation key, oldest first.
    queues: HashMap<MatchKey, VecDeque<u64>>,
}

impl OpTracker {
    /// Registers a new operation; returns its id.
    pub(crate) fn register(&mut self, node: u32, req: Request) -> OpId {
        self.node = node;
        self.next_seq += 1;
        let seq = self.next_seq;
        let key = req.key();
        if let Some(k) = key {
            self.queues.entry(k).or_default().push_back(seq);
        }
        if self.ring.is_empty() {
            self.base = seq;
        }
        self.ring.push_back(Some(PendingOp {
            req,
            key,
            progress: None,
        }));
        if self.ring.len() > RING_SPAN {
            // The front is pending: it moves aside, and the ring on.
            let front = self.ring.pop_front().flatten().expect("a pending front");
            self.stragglers.insert(self.base, front);
            self.base += 1;
            self.pop_resolved();
        }
        OpId { node, seq }
    }

    fn op(&self, seq: u64) -> Option<&PendingOp> {
        match seq.checked_sub(self.base) {
            Some(i) => self.ring.get(usize::try_from(i).ok()?)?.as_ref(),
            None => self.stragglers.get(&seq),
        }
    }

    fn op_mut(&mut self, seq: u64) -> Option<&mut PendingOp> {
        match seq.checked_sub(self.base) {
            Some(i) => self.ring.get_mut(usize::try_from(i).ok()?)?.as_mut(),
            None => self.stragglers.get_mut(&seq),
        }
    }

    /// Takes the pending op `seq` out of the ring or the stragglers.
    fn take(&mut self, seq: u64) -> Option<PendingOp> {
        match seq.checked_sub(self.base) {
            Some(i) => {
                let op = self.ring.get_mut(usize::try_from(i).ok()?)?.take()?;
                self.pop_resolved();
                Some(op)
            }
            None => self.stragglers.remove(&seq),
        }
    }

    /// Pops resolved ops off the ring's front.
    fn pop_resolved(&mut self) {
        while self.ring.front().is_some_and(Option::is_none) {
            self.ring.pop_front();
            self.base += 1;
        }
    }

    /// Drops `key`'s queue if it is empty and the key does not recur.
    fn release_if_done(&mut self, key: &MatchKey) {
        if !key.recurs() && self.queues.get(key).is_some_and(VecDeque::is_empty) {
            self.queues.remove(key);
        }
    }

    /// True while the operation awaits its terminal outcome.
    pub(crate) fn is_pending(&self, seq: u64) -> bool {
        self.op(seq).is_some()
    }

    /// The operation's request, and what a throttled earlier dispatch of
    /// it already did, for (re-)dispatch.
    pub(crate) fn request(&mut self, seq: u64) -> Option<(Request, Option<Progress>)> {
        self.op_mut(seq).map(|p| (p.req.clone(), p.progress.take()))
    }

    /// Records how far a throttled dispatch of a composite got.
    pub(crate) fn set_progress(&mut self, seq: u64, progress: Progress) {
        if let Some(p) = self.op_mut(seq) {
            p.progress = Some(progress);
        }
    }

    /// True for a pending operation with no asynchronous terminal event.
    pub(crate) fn expects_nothing(&self, seq: u64) -> bool {
        self.op(seq).is_some_and(|p| p.key.is_none())
    }

    /// Correlates a host event with the oldest matching pending
    /// operation; returns its completion.
    pub(crate) fn observe(&mut self, event: &HostEvent, now_ns: u64) -> Option<Completion> {
        let (key, outcome) = outcome_of(event)?;
        let seq = self.queues.get_mut(&key)?.pop_front()?;
        self.release_if_done(&key);
        self.take(seq);
        Some(Completion {
            op: OpId {
                node: self.node,
                seq,
            },
            time_ns: now_ns,
            outcome,
        })
    }

    /// Terminates a pending operation with an explicit outcome (local
    /// rejection, immediate success, …).
    pub(crate) fn complete(
        &mut self,
        seq: u64,
        now_ns: u64,
        outcome: Result<OpOutput, OpError>,
    ) -> Option<Completion> {
        let op = self.take(seq)?;
        if let Some(k) = op.key {
            if let Some(q) = self.queues.get_mut(&k) {
                q.retain(|s| *s != seq);
            }
            self.release_if_done(&k);
        }
        Some(Completion {
            op: OpId {
                node: self.node,
                seq,
            },
            time_ns: now_ns,
            outcome,
        })
    }

    /// Declares a pending operation dead (deadline hit, or quiescence
    /// with no terminal response).
    pub(crate) fn cancel(&mut self, seq: u64, now_ns: u64) -> Option<Completion> {
        self.complete(seq, now_ns, Err(OpError::Timeout { at_ns: now_ns }))
    }

    /// Declares every pending operation dead (the network went quiescent:
    /// nothing can resolve them anymore). Returns the timeout
    /// completions in submission order.
    pub(crate) fn cancel_all(&mut self, now_ns: u64) -> Vec<Completion> {
        let in_ring = (self.base..)
            .zip(&self.ring)
            .filter(|(_, op)| op.is_some())
            .map(|(seq, _)| seq);
        let seqs: Vec<u64> = self.stragglers.keys().copied().chain(in_ring).collect();
        seqs.into_iter()
            .filter_map(|seq| self.cancel(seq, now_ns))
            .collect()
    }
}

/// Merges per-node completion streams into one global, deterministic
/// history ordered by `(time, node, seq)` — the same total order under
/// any engine and shard count, because each per-node stream is produced
/// by that node's deterministic event processing.
pub fn merge_completions(streams: &[&[Completion]]) -> Vec<Completion> {
    let mut all: Vec<Completion> = streams.iter().flat_map(|s| s.iter().cloned()).collect();
    all.sort_by_key(|c| (c.time_ns, c.op.node, c.op.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(label: &str) -> ChannelId {
        ChannelId::from_label(label)
    }

    #[test]
    fn tracker_correlates_fifo_per_key() {
        let mut t = OpTracker::default();
        let a = t.register(
            0,
            Request::Cmd(Command::Pay {
                id: chan("c"),
                amount: 1,
                count: 1,
            }),
        );
        let b = t.register(
            0,
            Request::Cmd(Command::Pay {
                id: chan("c"),
                amount: 2,
                count: 1,
            }),
        );
        let ack = HostEvent::PaymentAcked {
            id: chan("c"),
            amount: 1,
            count: 1,
        };
        let first = t.observe(&ack, 10).expect("matches oldest");
        assert_eq!(first.op, a);
        assert!(t.is_pending(b.seq));
        let nack = HostEvent::PaymentNacked {
            id: chan("c"),
            amount: 2,
            count: 1,
            reason: ProtocolError::ChannelLocked,
        };
        let second = t.observe(&nack, 20).expect("matches next");
        assert_eq!(second.op, b);
        assert_eq!(
            second.outcome,
            Err(OpError::Remote(ProtocolError::ChannelLocked))
        );
        assert!(!t.is_pending(b.seq));
    }

    #[test]
    fn unrelated_events_do_not_match() {
        let mut t = OpTracker::default();
        t.register(
            0,
            Request::Cmd(Command::Pay {
                id: chan("c"),
                amount: 1,
                count: 1,
            }),
        );
        let other = HostEvent::PaymentAcked {
            id: chan("other"),
            amount: 1,
            count: 1,
        };
        assert!(t.observe(&other, 5).is_none());
        assert!(t
            .observe(
                &HostEvent::PaymentReceived {
                    id: chan("c"),
                    amount: 1,
                    count: 1
                },
                5
            )
            .is_none());
    }

    #[test]
    fn cancel_produces_timeout() {
        let mut t = OpTracker::default();
        let a = t.register(3, Request::Cmd(Command::GetIdentity));
        let c = t.cancel(a.seq, 99).expect("was pending");
        assert_eq!(c.outcome, Err(OpError::Timeout { at_ns: 99 }));
        assert!(t.cancel(a.seq, 100).is_none(), "exactly one completion");
        // The stale queue entry is gone: a later Identity op matches.
        let b = t.register(3, Request::Cmd(Command::GetIdentity));
        let pk = teechain_crypto::schnorr::Keypair::from_seed(&[1; 32]).pk;
        let done = t.observe(&HostEvent::Identity(pk), 101).expect("matches");
        assert_eq!(done.op, b);
    }

    #[test]
    fn ops_resolve_out_of_order_and_route_queues_go_with_their_ops() {
        let mut t = OpTracker::default();
        let pay_route = |k: u8| {
            Request::Cmd(Command::PayMultihop {
                route: RouteId([k; 32]),
                hops: vec![],
                channels: vec![],
                amount: 1,
            })
        };
        let done = |k: u8| HostEvent::MultihopComplete {
            route: RouteId([k; 32]),
            amount: 1,
        };
        let (a, b, c) = (
            t.register(0, pay_route(1)),
            t.register(0, pay_route(2)),
            t.register(0, pay_route(3)),
        );
        // `b` resolves while `a`, older, still pins the ring's front.
        assert_eq!(t.observe(&done(2), 1).expect("pending").op, b);
        assert!(t.is_pending(a.seq) && !t.is_pending(b.seq) && t.is_pending(c.seq));
        assert_eq!(t.observe(&done(1), 2).expect("pending").op, a);
        // A route's queue goes with its op.
        let d = t.register(0, pay_route(4));
        assert_eq!(t.queues.len(), 2);
        assert!(t.observe(&done(1), 3).is_none());
        let dead: Vec<OpId> = t.cancel_all(4).into_iter().map(|c| c.op).collect();
        assert_eq!(dead, vec![c, d]);
        assert!(!t.is_pending(c.seq) && !t.is_pending(d.seq));
        assert!(t.queues.is_empty() && t.ring.is_empty());
    }

    #[test]
    fn an_op_that_never_resolves_pins_a_bounded_ring() {
        let mut t = OpTracker::default();
        let stuck = t.register(
            0,
            Request::Cmd(Command::PayMultihop {
                route: RouteId([9; 32]),
                hops: vec![],
                channels: vec![],
                amount: 1,
            }),
        );
        let pay = Request::Cmd(Command::Pay {
            id: chan("c"),
            amount: 1,
            count: 1,
        });
        let ack = HostEvent::PaymentAcked {
            id: chan("c"),
            amount: 1,
            count: 1,
        };
        let mut last = stuck;
        for n in 0..3 * RING_SPAN as u64 {
            last = t.register(0, pay.clone());
            // Every other payment stays in flight across one more submit.
            if n % 2 == 1 {
                t.observe(&ack, n).expect("pending");
                t.observe(&ack, n).expect("pending");
            }
            assert!(t.ring.len() <= RING_SPAN);
        }
        assert!(t.is_pending(stuck.seq) && t.stragglers.len() == 1);
        assert!(t.ring.is_empty(), "every payment resolved");
        assert_eq!(t.queues.len(), 2, "the route's and the channel's");
        let dead: Vec<OpId> = t.cancel_all(1).into_iter().map(|c| c.op).collect();
        assert_eq!(dead, vec![stuck]);
        assert!(!t.is_pending(last.seq));
        assert!(t.stragglers.is_empty());
        assert_eq!(t.queues.len(), 1, "the channel's queue persists");
    }

    #[test]
    fn merge_orders_by_time_node_seq() {
        let mk = |node, seq, t| Completion {
            op: OpId { node, seq },
            time_ns: t,
            outcome: Ok(OpOutput::Done),
        };
        let a = vec![mk(0, 1, 50), mk(0, 2, 70)];
        let b = vec![mk(1, 1, 50), mk(1, 2, 60)];
        let merged = merge_completions(&[&a, &b]);
        let order: Vec<(u32, u64, u64)> = merged
            .iter()
            .map(|c| (c.op.node, c.op.seq, c.time_ns))
            .collect();
        assert_eq!(order, vec![(0, 1, 50), (1, 1, 50), (1, 2, 60), (0, 2, 70)]);
    }

    #[test]
    fn op_error_labels() {
        assert_eq!(
            OpError::Rejected(ProtocolError::InsufficientBalance).label(),
            "rejected:InsufficientBalance"
        );
        assert_eq!(
            OpError::Remote(ProtocolError::ChannelLocked).label(),
            "remote:ChannelLocked"
        );
        assert_eq!(OpError::Timeout { at_ns: 1 }.label(), "timeout");
    }
}
