//! In-enclave admission control: per-channel FIFO op queues + batching.
//!
//! When a channel is locked by an in-flight multihop, payments against it
//! used to be rejected with `ChannelLocked` and re-fired by a host timer —
//! a retry storm that dominated the scale benchmarks (~88k ChannelLocked
//! errors for 2k completed payments). Admission moves that wait into the
//! enclave: a locked channel enqueues the op on a bounded per-channel FIFO
//! and, at the unlock point, the queue is drained by *batching* N
//! consecutive same-channel payments into one staged delta — which the
//! enclave's single per-ecall `finalize` then commits with one monotonic
//! counter increment and one WAL record (the `persist` group-commit
//! framing), emitting one typed completion event per queued op.
//!
//! Queueing is the fallback, not the first move: a locked channel first
//! tries *lock-aware rerouting* — an unlocked parallel (temporary)
//! channel to the same peer with the balance carries the op immediately
//! (`TeechainEnclave::sibling_unlocked`). Three queue families live
//! here for what remains:
//!
//! * `queues`   — locally submitted ops (`cmd_pay`, `cmd_pay_multihop`)
//!   waiting for a locked channel. Drained on unlock; entries past their
//!   deadline are failed with `ChannelLocked`. A queued local op holds
//!   no locks, so its deadline is generous.
//! * `deferred` — decrypted inbound protocol messages (`Pay`, `MhLock`)
//!   that arrived while the target channel was locked. Deferring an
//!   `MhLock` is hold-and-wait (its upstream hops keep their channels
//!   locked), so it is admitted *wait-die* style: a route may only wait
//!   behind routes whose id orders above its own — wait-for edges point
//!   small→large, the graph stays acyclic, admission cannot deadlock.
//!   Losers abort backward at once; the origin re-queues the
//!   origination in-enclave with a short `ready_ns` backoff rather than
//!   surfacing `ChannelLocked`. Re-dispatched on unlock; expired
//!   entries are refused backward (`PayNack`/`MhAbort`) so the far
//!   side's op completes with a typed error instead of retrying blind.
//! * `inflight` — ack bookkeeping: one entry per local op behind an
//!   outbound wire `Pay`, the ops merged into one message forming a run
//!   that ends at the first entry not marked `more`, so a single
//!   `PayAck`/`PayNack` fans back out to one event per op in submission
//!   order (the `OpTracker` matches per-channel FIFO).
//!
//! All of this state is volatile by design: it never enters the sealed
//! state image or the WAL. After a crash, queued-but-uncommitted ops are
//! simply gone — the host resolves them as dead (`Timeout`), and replay
//! reconstructs exactly the committed batches. That is what makes the
//! batch commit exactly-once: an op either made it into a sealed batch
//! record (and will be reapplied) or it never happened.

use crate::msg::ProtocolMsg;
use crate::types::ChannelId;
use std::collections::{BTreeMap, VecDeque};
use teechain_crypto::schnorr::PublicKey;

/// Max ops queued per channel before admission pushes back with
/// `ChannelLocked` (the only case left that surfaces it to a caller).
pub const ADMIT_QUEUE_CAP: usize = 1024;

/// How long a locally queued op may wait for the channel to unlock
/// before it is failed with `ChannelLocked` (30s of simulated/wall
/// time). A queued local op holds no locks while it waits, so the
/// deadline is generous: it only has to beat the caller's own patience,
/// not break deadlocks. Expiring early just bounces the op back to a
/// host-side retry — the exact storm admission exists to kill.
pub const ADMIT_DEADLINE_NS: u64 = 30_000_000_000;

/// How long a deferred *inbound* message (`Pay`, `MhLock`) may wait.
/// Deferral is hold-and-wait: the upstream hops of a deferred `MhLock`
/// keep their channels locked while we wait, so this deadline is what
/// breaks cross-route deadlock cycles. It must still cover a few
/// lock-hold generations (a multihop holds its channels for ~1–2s of
/// WAN round trips), or every entry that is not first in line expires
/// before its turn.
pub const DEFER_DEADLINE_NS: u64 = 10_000_000_000;

/// A locally submitted op parked behind a locked channel.
pub enum QueuedOp {
    /// Single-channel payment: amount and logical payment count.
    Pay { amount: u64, count: u32 },
    /// Multihop origination to re-run once our outgoing channel unlocks.
    Multihop {
        route: crate::types::RouteId,
        hops: Vec<PublicKey>,
        channels: Vec<ChannelId>,
        amount: u64,
    },
}

/// Queue entry: the op plus its admission deadline.
pub struct QueueEntry {
    pub op: QueuedOp,
    pub deadline_ns: u64,
    /// Earliest time the drain may run this entry (0 = immediately).
    /// Used for the in-enclave backoff of a multihop origination that
    /// was aborted downstream with `ChannelLocked` and re-queued here
    /// instead of surfacing the error.
    pub ready_ns: u64,
}

/// A decrypted inbound message parked behind a locked channel.
pub struct DeferredMsg {
    pub from: PublicKey,
    pub msg: ProtocolMsg,
    pub deadline_ns: u64,
}

/// Admission counters, surfaced to benches via
/// [`TeechainEnclave::admit_stats`](crate::enclave::TeechainEnclave::admit_stats).
#[derive(Clone, Default)]
pub struct AdmitStats {
    /// Local ops that entered a queue instead of erroring.
    pub enqueued: u64,
    /// Inbound messages deferred instead of nacked.
    pub deferred: u64,
    /// Drain batches committed (each = one WAL record).
    pub batches: u64,
    /// Total payments applied through batches.
    pub batched_payments: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Entries failed at their deadline.
    pub expired: u64,
    /// Entries flushed by settle/eject/close.
    pub flushed: u64,
    /// Multihop originations re-queued in-enclave after a downstream
    /// `ChannelLocked` abort (the retry the host used to drive).
    pub requeued: u64,
    /// Ops carried by an unlocked parallel (temporary) channel to the
    /// same peer instead of waiting behind the locked one they named.
    pub rerouted: u64,
    /// Histogram of batch sizes: bucket i counts batches of size in
    /// `[2^i, 2^(i+1))`; the last bucket absorbs the tail.
    pub batch_hist: [u64; 16],
    /// Deepest any single local-op queue ever got (high-watermark).
    pub queue_depth_hwm: u64,
    /// Deepest any single defer queue ever got (high-watermark).
    pub defer_depth_hwm: u64,
    /// Longest a deferred inbound message waited before being
    /// re-dispatched or expired, in ns (high-watermark).
    pub defer_age_max_ns: u64,
}

impl AdmitStats {
    /// Records a committed drain batch of `n` payments.
    pub fn record_batch(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.batches += 1;
        self.batched_payments += n;
        self.max_batch = self.max_batch.max(n);
        let bucket = (63 - n.leading_zeros()) as usize;
        self.batch_hist[bucket.min(self.batch_hist.len() - 1)] += 1;
    }

    /// Raises the local-op queue-depth high-watermark to `depth`.
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.queue_depth_hwm = self.queue_depth_hwm.max(depth as u64);
    }

    /// Raises the defer queue-depth high-watermark to `depth`.
    pub fn note_defer_depth(&mut self, depth: usize) {
        self.defer_depth_hwm = self.defer_depth_hwm.max(depth as u64);
    }

    /// Raises the deferred-message age high-watermark to `age_ns`.
    pub fn note_defer_age(&mut self, age_ns: u64) {
        self.defer_age_max_ns = self.defer_age_max_ns.max(age_ns);
    }
}

/// One local op waiting for the ack of the outbound wire `Pay` it went
/// into. The ops merged into one wire message sit next to each other in
/// submission order, every one but the last marked `more` — a queue of
/// these needs no allocation per payment where a queue of groups did.
#[derive(Debug, Clone, Copy)]
pub struct AckEntry {
    /// The channel the caller named, which lock-aware selection may have
    /// swapped for an unlocked sibling on the wire. The ack event carries
    /// this id so the op layer's correlation key still matches.
    pub id: ChannelId,
    /// The op's amount.
    pub amount: u64,
    /// The op's batched count.
    pub count: u32,
    /// True if the next entry belongs to the same wire message.
    pub more: bool,
}

/// Per-enclave admission state. Volatile: never sealed, never replayed.
///
/// The per-channel maps are `BTreeMap`s, not `HashMap`s: the admission
/// pump drains every backlogged channel in one ecall, and the order it
/// visits channels decides the order of the resulting wire sends. Map
/// iteration therefore has to be a pure function of the channel ids —
/// hash-order iteration leaks the hasher's random state into protocol
/// timing, which the cross-shard-count determinism suites catch.
#[derive(Default)]
pub struct AdmitState {
    /// Locally submitted ops waiting per channel, FIFO.
    pub queues: BTreeMap<ChannelId, VecDeque<QueueEntry>>,
    /// Deferred inbound messages per channel, FIFO.
    pub deferred: BTreeMap<ChannelId, VecDeque<DeferredMsg>>,
    /// Ack fan-out per *wire* channel: the front run of entries matches
    /// the oldest outstanding outbound wire `Pay`.
    pub inflight: BTreeMap<ChannelId, VecDeque<AckEntry>>,
    /// Counters for benches and tests.
    pub stats: AdmitStats,
}

impl AdmitState {
    /// Takes the ops behind the oldest outstanding wire `Pay` on `wire`
    /// off the queue and turns each into an event. Empty if nothing is
    /// recorded (a send from before a crash).
    pub(crate) fn take_acked<T>(
        &mut self,
        wire: &ChannelId,
        event: impl Fn(AckEntry) -> T,
    ) -> Vec<T> {
        let Some(q) = self.inflight.get_mut(wire) else {
            return Vec::new();
        };
        let run = q
            .iter()
            .position(|entry| !entry.more)
            .map_or(q.len(), |last| last + 1);
        // Sized by hand: `collect` rounds a short run up to four.
        let mut out = Vec::with_capacity(run);
        out.extend(q.drain(..run).map(event));
        out
    }

    /// Earliest future wake time across all queued and deferred entries,
    /// if any — the time the host should pump admission next. A queued
    /// entry still inside its backoff wakes at `ready_ns`; everything
    /// else wakes at its expiry deadline.
    pub fn next_deadline(&self, now: u64) -> Option<u64> {
        let q = self.queues.values().flat_map(|q| {
            q.iter().map(move |e| {
                if e.ready_ns > now {
                    e.ready_ns
                } else {
                    e.deadline_ns
                }
            })
        });
        let d = self
            .deferred
            .values()
            .flat_map(|q| q.iter().map(|e| e.deadline_ns));
        q.chain(d).min()
    }

    /// Total entries currently parked (queued + deferred).
    pub fn backlog(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum::<usize>()
            + self.deferred.values().map(|q| q.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_histogram_buckets_by_power_of_two() {
        let mut s = AdmitStats::default();
        s.record_batch(0); // ignored
        s.record_batch(1);
        s.record_batch(2);
        s.record_batch(3);
        s.record_batch(4);
        s.record_batch(1000);
        assert_eq!(s.batches, 5);
        assert_eq!(s.batched_payments, 1 + 2 + 3 + 4 + 1000);
        assert_eq!(s.max_batch, 1000);
        assert_eq!(s.batch_hist[0], 1); // 1
        assert_eq!(s.batch_hist[1], 2); // 2, 3
        assert_eq!(s.batch_hist[2], 1); // 4
        assert_eq!(s.batch_hist[9], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn next_deadline_scans_both_queue_families() {
        let mut a = AdmitState::default();
        assert_eq!(a.next_deadline(0), None);
        let c1 = ChannelId::from_label("admit-q1");
        let c2 = ChannelId::from_label("admit-q2");
        a.queues.entry(c1).or_default().push_back(QueueEntry {
            op: QueuedOp::Pay {
                amount: 5,
                count: 1,
            },
            deadline_ns: 900,
            ready_ns: 0,
        });
        a.deferred.entry(c2).or_default().push_back(DeferredMsg {
            from: teechain_crypto::schnorr::Keypair::from_seed(&[9u8; 32]).pk,
            msg: ProtocolMsg::PayAck {
                id: c2,
                amount: 1,
                count: 1,
            },
            deadline_ns: 400,
        });
        assert_eq!(a.next_deadline(0), Some(400));
        assert_eq!(a.backlog(), 2);
        // An entry inside its backoff wakes at ready_ns, not its expiry.
        a.queues.entry(c1).or_default().push_back(QueueEntry {
            op: QueuedOp::Pay {
                amount: 7,
                count: 1,
            },
            deadline_ns: 950,
            ready_ns: 120,
        });
        assert_eq!(a.next_deadline(100), Some(120));
        assert_eq!(a.next_deadline(130), Some(400));
    }
}
