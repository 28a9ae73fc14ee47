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
//! * The enclave decides what happened: each operation's terminal result
//!   leaves it as one [`Effect::Done`](crate::enclave::Effect::Done),
//!   already a [`MatchKey`] and an `OpOutput` or `OpError`. Nothing
//!   between the enclave and the completion translates it.
//! * `OpTracker` (crate-internal) lives inside the untrusted host
//!   ([`crate::node::TeechainNode`]): it matches each outcome with the
//!   oldest pending operation under its key, turns it into a completion,
//!   and arms deadline timers inside the simulation — so completions are
//!   ordinary deterministic events that merge identically at any shard
//!   count. An outcome no pending operation waits on (a responder's)
//!   is dropped.
//! * [`Request`] is the one thing a harness submits, and [`Pending`] the
//!   typed token it hands back: resolve it with
//!   [`Harness::wait`](crate::testkit::Harness::wait), which runs the
//!   cluster until the operation resolves and extracts the typed result.
//! * The enclave's requests to its host travel apart from outcomes, as
//!   [`Effect::Event`](crate::enclave::Effect::Event): check a deposit,
//!   gather co-signatures, call back at a time, … No outcome travels
//!   with them, and no caller outside `crates/core` touches them.

use crate::enclave::Command;
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
    /// fund-deposit operation, or `Command::NewDeposit`).
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
    PaymentApplied(Payment),
    /// A multi-hop payment completed end-to-end (`Command::PayMultihop`).
    MultihopDelivered(Delivered),
    /// Channel settled (`Command::Settle` / `Command::ReleaseDeposit`; a
    /// release's channel is zeroed).
    Settled(Settlement),
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
    /// Crash recovery replayed durable state (`Command::Recover` / the
    /// harness-level recover operation).
    Recovered(Recovery),
    /// A cross-chain atomic swap resolved (`Command::Swap`). Both
    /// resolutions — redeemed on both ledgers or refunded on both — are
    /// successful completions; the payload says which.
    Swap(SwapOutcome),
    /// The command was accepted and has no asynchronous response (e.g.
    /// `Command::Eject`).
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
            OpOutput::PaymentApplied(_) => "payment",
            OpOutput::MultihopDelivered(_) => "multihop",
            OpOutput::Settled(_) => "settle",
            OpOutput::BackupAttached(_) => "backup_attached",
            OpOutput::ReplicaState { .. } => "replica_state",
            OpOutput::Recovered(_) => "recovered",
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
    ///
    /// A timeout means the outcome is unknown, not that the operation
    /// failed: its effects may have taken hold. A committee chain member
    /// that settles from its replica (`Command::SettleFromReplica`)
    /// settles every update it applied, including the updates of payments
    /// whose ops were reported `Timeout` — their payee is paid on chain.
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

/// Implements [`OpResult`] for the payload of a one-field `OpOutput`
/// variant.
macro_rules! op_result {
    ($($payload:ty => $variant:ident),* $(,)?) => {$(
        impl OpResult for $payload {
            fn from_output(out: OpOutput) -> Option<Self> {
                match out {
                    OpOutput::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    )*};
}

op_result!(
    ChannelId => ChannelOpen,
    Deposit => DepositFunded,
    CommitteeSpec => Committee,
    Payment => PaymentApplied,
    Delivered => MultihopDelivered,
    Settlement => Settled,
    Recovery => Recovered,
    SwapOutcome => Swap,
);

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

/// A completed multi-hop payment (`Command::PayMultihop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The route.
    pub route: RouteId,
    /// Amount delivered end-to-end.
    pub amount: u64,
}

/// A completed settlement (`Command::Settle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settlement {
    /// The channel.
    pub chan: ChannelId,
    /// Off-chain or on-chain terminal state.
    pub kind: SettleKind,
}

/// A completed crash recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Channels restored.
    pub channels: usize,
    /// Deposits restored (own and remote).
    pub deposits: usize,
    /// Durable commits replayed (snapshot counter + WAL records).
    pub commits: u64,
}

/// The correlation key of an operation: what its command names, and
/// what the enclave's [`Effect::Done`](crate::enclave::Effect::Done)
/// carrying its outcome names. Same-key operations resolve FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKey {
    /// `Command::GetIdentity`.
    Identity,
    /// `Command::NewAddress`.
    Address,
    /// `Command::NewCommitteeAddress`.
    Committee,
    /// `Command::StartSession` with this peer.
    Session(PublicKey),
    /// `Command::NewChannel` of this channel.
    ChannelOpen(ChannelId),
    /// `Command::ApproveDeposit` of this deposit.
    DepositApproved(OutPoint),
    /// `Command::AssociateDeposit`.
    DepositAssociated(ChannelId, OutPoint),
    /// `Command::DissociateDeposit`.
    DepositDissociated(ChannelId, OutPoint),
    /// `Command::Pay` on this channel.
    Payment(ChannelId),
    /// `Command::PayMultihop` of this route.
    Multihop(RouteId),
    /// `Command::Settle` of this channel (zeroed for `ReleaseDeposit`).
    Settle(ChannelId),
    /// `Command::AttachBackup` of this backup.
    BackupAttached(PublicKey),
    /// `Command::ReadReplica`.
    Replica,
    /// `Command::Recover`.
    Recovered,
    /// `Command::Swap` of this swap.
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
        Command::Recover { .. } => Some(MatchKey::Recovered),
        Command::Swap { swap, .. } => Some(MatchKey::Swap(*swap)),
        Command::NewDeposit { .. }
        | Command::DepositVerified { .. }
        | Command::Deliver { .. }
        | Command::Eject { .. }
        | Command::EjectWithPopt { .. }
        | Command::SettleFromReplica
        | Command::PumpAdmission
        | Command::SwapFunded { .. }
        | Command::SwapHtlcVerified { .. }
        | Command::SwapTick { .. } => None,
    }
}

/// What an operation completes with as soon as the enclave accepts its
/// command, or `None` when a terminal event (see [`expect_for`]) completes
/// it.
pub(crate) fn accepted_output(cmd: &Command) -> Option<OpOutput> {
    match cmd {
        // A funded deposit's last step registers it.
        Command::NewDeposit { deposit } => Some(OpOutput::DepositFunded(deposit.clone())),
        _ => expect_for(cmd).is_none().then_some(OpOutput::Done),
    }
}

/// One operation a node is asked to perform: an enclave [`Command`] or
/// one of the host-side composites. It is what every harness submits
/// (through [`TeechainNode::submit_op`](crate::node::TeechainNode::submit_op)),
/// and what a throttled operation re-executes when the counter lifts. A
/// composite runs its host step (a mint, an address) and is then rewritten
/// into the one command that remains, so nothing before a throttle runs
/// twice.
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

struct PendingOp {
    req: Request,
    key: Option<MatchKey>,
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
        self.ring.push_back(Some(PendingOp { req, key }));
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

    /// Entries the tracker holds for operations: ring slots, stragglers
    /// and queued seqs. None once every operation resolved.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        let queued: usize = self.queues.values().map(VecDeque::len).sum();
        self.ring.len() + self.stragglers.len() + queued
    }

    /// True while the operation awaits its terminal outcome.
    pub(crate) fn is_pending(&self, seq: u64) -> bool {
        self.op(seq).is_some()
    }

    /// The operation's request, for (re-)dispatch.
    pub(crate) fn request(&self, seq: u64) -> Option<Request> {
        self.op(seq).map(|p| p.req.clone())
    }

    /// Rewrites a composite whose host step is done into the command that
    /// remains of it. Its correlation key stays: the command's own key is
    /// the composite's.
    pub(crate) fn rewrite(&mut self, seq: u64, cmd: Command) {
        if let Some(p) = self.op_mut(seq) {
            debug_assert_eq!(p.key, expect_for(&cmd));
            p.req = Request::Cmd(cmd);
        }
    }

    /// Completes the oldest pending operation under `key` with the
    /// enclave's `outcome`; `None` when no operation waits on `key`.
    pub(crate) fn observe(
        &mut self,
        key: MatchKey,
        outcome: Result<OpOutput, OpError>,
        now_ns: u64,
    ) -> Option<Completion> {
        let seq = self.queues.get_mut(&key)?.pop_front()?;
        self.release_if_done(&key);
        self.take(seq);
        Some(self.completion(seq, now_ns, outcome))
    }

    fn completion(&self, seq: u64, now_ns: u64, outcome: Result<OpOutput, OpError>) -> Completion {
        let op = OpId {
            node: self.node,
            seq,
        };
        Completion {
            op,
            time_ns: now_ns,
            outcome,
        }
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
        Some(self.completion(seq, now_ns, outcome))
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
    use crate::enclave::Effect;

    fn chan(label: &str) -> ChannelId {
        ChannelId::from_label(label)
    }

    /// What the enclave emits when a payment of 1 on `label` is acked.
    fn acked(label: &str) -> Effect {
        let chan = chan(label);
        let paid = Payment {
            chan,
            amount: 1,
            count: 1,
        };
        Effect::done(MatchKey::Payment(chan), OpOutput::PaymentApplied(paid))
    }

    /// Feeds the tracker an outcome effect, as the host does.
    fn observe(t: &mut OpTracker, effect: Effect, now: u64) -> Option<Completion> {
        let Effect::Done { key, outcome } = effect else {
            panic!("not an outcome: {effect:?}");
        };
        t.observe(key, outcome, now)
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
        let first = observe(&mut t, acked("c"), 10).expect("matches oldest");
        assert_eq!(first.op, a);
        assert!(t.is_pending(b.seq));
        let nack = OpError::Remote(ProtocolError::ChannelLocked);
        let nack = Effect::failed(MatchKey::Payment(chan("c")), nack);
        let second = observe(&mut t, nack, 20).expect("matches next");
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
        assert!(observe(&mut t, acked("other"), 5).is_none());
        // A same-channel outcome under another key (a settlement's).
        let settled = Settlement {
            chan: chan("c"),
            kind: SettleKind::OffChain,
        };
        let settled = Effect::done(MatchKey::Settle(chan("c")), OpOutput::Settled(settled));
        assert!(observe(&mut t, settled, 5).is_none());
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
        let identity = Effect::done(MatchKey::Identity, OpOutput::Identity(pk));
        let done = observe(&mut t, identity, 101).expect("matches");
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
        let done = |k: u8| {
            let route = RouteId([k; 32]);
            let delivered = Delivered { route, amount: 1 };
            Effect::done(
                MatchKey::Multihop(route),
                OpOutput::MultihopDelivered(delivered),
            )
        };
        let (a, b, c) = (
            t.register(0, pay_route(1)),
            t.register(0, pay_route(2)),
            t.register(0, pay_route(3)),
        );
        // `b` resolves while `a`, older, still pins the ring's front.
        assert_eq!(observe(&mut t, done(2), 1).expect("pending").op, b);
        assert!(t.is_pending(a.seq) && !t.is_pending(b.seq) && t.is_pending(c.seq));
        assert_eq!(observe(&mut t, done(1), 2).expect("pending").op, a);
        // A route's queue goes with its op.
        let d = t.register(0, pay_route(4));
        assert_eq!(t.queues.len(), 2);
        assert!(observe(&mut t, done(1), 3).is_none());
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
        let mut last = stuck;
        for n in 0..3 * RING_SPAN as u64 {
            last = t.register(0, pay.clone());
            // Every other payment stays in flight across one more submit.
            if n % 2 == 1 {
                observe(&mut t, acked("c"), n).expect("pending");
                observe(&mut t, acked("c"), n).expect("pending");
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
