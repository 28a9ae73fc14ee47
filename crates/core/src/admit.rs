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
//! Queued multihop originations share routes: the drain starts the
//! longest run of ready originations on one identical path that the
//! balance covers as ONE route of their sum (`shared` records its
//! members), and the origin ends every member of a route on its own.
//!
//! All of this state is volatile by design: it never enters the sealed
//! state image or the WAL. After a crash, queued-but-uncommitted ops are
//! simply gone — the host resolves them as dead (`Timeout`), and replay
//! reconstructs exactly the committed batches. That is what makes the
//! batch commit exactly-once: an op either made it into a sealed batch
//! record (and will be reapplied) or it never happened.
//!
//! The admission pump (`Command::PumpAdmission`), the unlock drain and
//! the deadline expiry run here.

use crate::enclave::{Effect, Gate, HostEvent, Outcome, Peer, TeechainEnclave};
use crate::msg::{ProtocolMsg, StateDelta};
use crate::ops::{Delivered, MatchKey, OpError, OpOutput};
use crate::types::{ChannelId, ProtocolError, RouteId};
use std::collections::{BTreeMap, VecDeque};
use teechain_crypto::schnorr::PublicKey;
use teechain_tee::EnclaveEnv;

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
    /// Multihop origination to re-run once our outgoing channel unlocks:
    /// one origination, or the members of a shared route keyed `route`
    /// with `amount` their sum (`AdmitState::shared`).
    Multihop {
        route: crate::types::RouteId,
        hops: Vec<PublicKey>,
        channels: Vec<ChannelId>,
        amount: u64,
        /// Split out of a shared route whose sum a hop could not cover:
        /// it runs on a route of its own.
        alone: bool,
    },
}

/// Queue entry: the op plus its admission deadline.
pub struct QueueEntry {
    pub op: QueuedOp,
    /// The earliest admission deadline of what the entry carries.
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
    /// Drain batches started: runs of queued payments sent as one wire
    /// `Pay`, and runs of queued multihop originations sent as one route.
    pub batches: u64,
    /// Total operations started through batches.
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
    /// Records a drain batch of `n` operations.
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

/// One multihop origination carried by a route it shares with others
/// queued on the identical path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    /// The origination's own route id, which keys its outcome.
    pub(crate) route: RouteId,
    /// Its own amount.
    pub(crate) amount: u64,
    /// Its own admission deadline (absolute ns).
    pub(crate) deadline_ns: u64,
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
    /// The originations each shared route carries, oldest first, keyed
    /// by the route (its first member's id) while it is queued or in
    /// flight. A route absent here carries one origination: itself.
    pub(crate) shared: BTreeMap<RouteId, Vec<Member>>,
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

    /// Takes the ops behind the oldest outstanding wire `Pay`s on `wire`
    /// that one cumulative `PayAck` of `(amount, count)` covers — whole
    /// runs, oldest first, until their counts sum to `count` — and turns
    /// each into an event. What the record does not cover (sends from
    /// before a crash) becomes one more event, for the channel as a whole.
    /// Refuses, taking nothing, an ack whose count ends inside a run or
    /// whose amounts do not sum to `amount`.
    pub(crate) fn take_acked_through<T>(
        &mut self,
        wire: &ChannelId,
        amount: u64,
        count: u32,
        event: impl Fn(AckEntry) -> T,
    ) -> Result<Vec<T>, ProtocolError> {
        let rest = |amount, count| AckEntry {
            id: *wire,
            amount,
            count,
            more: false,
        };
        let q = match self.inflight.get_mut(wire) {
            Some(q) if !q.is_empty() && count > 0 => q,
            _ => return Ok(vec![event(rest(amount, count))]),
        };
        let (mut taken, mut sum_amount, mut sum_count) = (0, 0u64, 0u64);
        let (mut run_amount, mut run_count) = (0u64, 0u64);
        for (i, entry) in q.iter().enumerate() {
            run_amount += entry.amount;
            run_count += u64::from(entry.count);
            if entry.more {
                continue;
            }
            if sum_count + run_count > u64::from(count) {
                return Err(ProtocolError::BadMessage);
            }
            taken = i + 1;
            sum_amount += std::mem::take(&mut run_amount);
            sum_count += std::mem::take(&mut run_count);
            if sum_count == u64::from(count) {
                break;
            }
        }
        let uncovered = sum_count < u64::from(count);
        let rest = match (amount.checked_sub(sum_amount), uncovered) {
            (Some(0), false) => None,
            (Some(left), true) => Some(rest(left, count - sum_count as u32)),
            _ => return Err(ProtocolError::BadMessage),
        };
        // Sized by hand: `collect` rounds a short run up to four.
        let mut out = Vec::with_capacity(taken + usize::from(uncovered));
        out.extend(q.drain(..taken).chain(rest).map(event));
        Ok(out)
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

/// A queued payment on channel `id` was dropped without ever reaching the
/// wire: the channel closed, its admission deadline passed, or the balance
/// could not cover it at drain time. Nothing was debited or sent.
fn pay_rejected(id: ChannelId, reason: ProtocolError) -> Effect {
    Effect::failed(MatchKey::Payment(id), OpError::Rejected(reason))
}

/// Multi-hop payment `route` failed and was rolled back; `reason` is the
/// refusing hop's, carried backward along the abort unwind.
pub(crate) fn multihop_failed(route: RouteId, reason: ProtocolError) -> Effect {
    Effect::failed(MatchKey::Multihop(route), OpError::Remote(reason))
}

/// Ends `members` with `outcome`: one effect per member, keyed by its own
/// id and carrying its own amount. Every path on which the origin ends
/// originations goes through here, so a shared route's members complete
/// exactly as many times as they were submitted.
pub(crate) fn end_members(
    members: impl IntoIterator<Item = Member>,
    outcome: &Result<(), ProtocolError>,
    effects: &mut Vec<Effect>,
) {
    effects.extend(members.into_iter().map(|m| match outcome {
        Ok(()) => Effect::done(
            MatchKey::Multihop(m.route),
            OpOutput::MultihopDelivered(Delivered {
                route: m.route,
                amount: m.amount,
            }),
        ),
        Err(e) => multihop_failed(m.route, e.clone()),
    }));
}

/// Fails with `ChannelLocked` every member whose deadline is at or before
/// `cutoff`, and returns how many it failed.
pub(crate) fn fail_late(members: &mut Vec<Member>, cutoff: u64, effects: &mut Vec<Effect>) -> u64 {
    let late: Vec<Member> = members
        .extract_if(.., |m| m.deadline_ns <= cutoff)
        .collect();
    end_members(
        late.iter().copied(),
        &Err(ProtocolError::ChannelLocked),
        effects,
    );
    late.len() as u64
}

impl TeechainEnclave {
    // ---- Admission pump (queues, deferred messages, counter stash) ----

    /// The host-timer entry point of the admission layer. Expires overdue
    /// queued/deferred entries, then — if the monotonic counter permits
    /// committing — drains any unlocked channel with a backlog and
    /// re-dispatches counter-stashed messages as one group commit.
    pub(crate) fn cmd_pump_admission(&mut self, env: &mut EnclaveEnv) -> Outcome {
        if self.frozen {
            // A frozen enclave keeps its queues; ops resolve at the host
            // (dead-op resolution), not here.
            return Ok(vec![]);
        }
        let mut effects = Vec::new();
        self.expire_admissions(env, &mut effects);
        match self.pass(env, Gate::Exit) {
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

    /// Re-dispatches messages stashed while the counter was throttled as
    /// one group commit (§6.2): a single counter increment and WAL append
    /// cover the whole batch, amortizing the 100 ms counter throttle over
    /// many payments. Only persistent mode stashes, and a persisting
    /// enclave replicates to no backup (`cmd_attach_backup`), so the
    /// batch has no update to hold back.
    fn pump_stashed(&mut self, env: &mut EnclaveEnv, mut out: Vec<Effect>) -> Outcome {
        while let Some((from, msg)) = self.pending_msgs.pop_front() {
            // Protocol-violating stashed messages are dropped.
            if let Ok(effects) = self.dispatch_protocol(env, from, msg) {
                out.extend(effects);
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
                q.remove(i)
            }) {
                if let Some(rest) = self.expire_entry(id, entry, now, effects) {
                    let q = self.admit.queues.get_mut(&id).expect("scanned");
                    q.insert(i, rest);
                    i += 1;
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

    /// Fails what an overdue queued `entry` on channel `id` carries past
    /// its deadline at `now`, and returns the entry that carries the rest:
    /// a shared route's members expire one by one.
    fn expire_entry(
        &mut self,
        id: ChannelId,
        entry: QueueEntry,
        now: u64,
        effects: &mut Vec<Effect>,
    ) -> Option<QueueEntry> {
        let QueuedOp::Multihop {
            route,
            hops,
            channels,
            amount,
            alone,
        } = entry.op
        else {
            self.admit.stats.expired += 1;
            effects.push(pay_rejected(id, ProtocolError::ChannelLocked));
            return None;
        };
        let mut members = self.take_members(route, amount, entry.deadline_ns);
        self.admit.stats.expired += fail_late(&mut members, now, effects);
        self.shared_entry(members, hops, channels, alone, entry.ready_ns)
    }

    /// The originations route `route` carries: the members of a shared
    /// route, taken out of `shared`, or else the route itself.
    pub(crate) fn take_members(
        &mut self,
        route: RouteId,
        amount: u64,
        deadline_ns: u64,
    ) -> Vec<Member> {
        self.admit.shared.remove(&route).unwrap_or_else(|| {
            vec![Member {
                route,
                amount,
                deadline_ns,
            }]
        })
    }

    /// Ends every origination route `route` carries with `outcome`
    /// ([`end_members`]).
    pub(crate) fn end_route(
        &mut self,
        route: RouteId,
        amount: u64,
        outcome: Result<(), ProtocolError>,
        effects: &mut Vec<Effect>,
    ) {
        end_members(self.take_members(route, amount, 0), &outcome, effects);
    }

    /// The queue entry that carries `members` on one route keyed by the
    /// first of them, with their summed amount and earliest deadline, and
    /// records a route of more than one member in `shared`. `None` when
    /// no member is left.
    pub(crate) fn shared_entry(
        &mut self,
        members: Vec<Member>,
        hops: Vec<PublicKey>,
        channels: Vec<ChannelId>,
        alone: bool,
        ready_ns: u64,
    ) -> Option<QueueEntry> {
        let route = members.first()?.route;
        let amount = members.iter().map(|m| m.amount).sum();
        let deadline_ns = members.iter().map(|m| m.deadline_ns).min()?;
        if members.len() > 1 {
            self.admit.shared.insert(route, members);
        }
        Some(QueueEntry {
            op: QueuedOp::Multihop {
                route,
                hops,
                channels,
                amount,
                alone,
            },
            deadline_ns,
            ready_ns,
        })
    }

    /// Puts `members` back at the front of their first channel's queue,
    /// oldest first, as entries that run alone: a hop could not cover
    /// their sum, so each ends as it would have unbatched.
    pub(crate) fn split_shared(
        &mut self,
        members: Vec<Member>,
        hops: &[PublicKey],
        channels: &[ChannelId],
    ) {
        let q = self.admit.queues.entry(channels[0]).or_default();
        for m in members.into_iter().rev() {
            q.push_front(QueueEntry {
                op: QueuedOp::Multihop {
                    route: m.route,
                    hops: hops.to_vec(),
                    channels: channels.to_vec(),
                    amount: m.amount,
                    alone: true,
                },
                deadline_ns: m.deadline_ns,
                ready_ns: 0,
            });
        }
    }

    /// Answers a deferred inbound message backward with a typed refusal,
    /// so the sender's op completes instead of hanging.
    pub(crate) fn refuse_deferred(
        &mut self,
        d: DeferredMsg,
        reason: ProtocolError,
        effects: &mut Vec<Effect>,
    ) {
        let refusal = match d.msg {
            ProtocolMsg::Pay { id, amount, count } => {
                // The ack owed for the pays applied before this one goes
                // first.
                effects.extend(self.seal_owed_ack_of(&id));
                ProtocolMsg::PayNack {
                    id,
                    amount,
                    count,
                    reason: reason.abort_code(),
                }
            }
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
            // The message passes its gate again; a refusal answers it
            // backward.
            let from = Peer {
                pk: d.from,
                slot: self.peer_slot(&d.from),
            };
            match self.dispatch_protocol(env, from, d.msg.clone()) {
                Ok(effs) => effects.extend(effs),
                Err(e) => self.refuse_deferred(d, e, effects),
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
                self.start_shared_route(now, id, effects);
            }
        }
        self.admit.queues.retain(|_, q| !q.is_empty());
    }

    /// Pops the multihop origination at the front of `id`'s queue and the
    /// longest run of ready originations behind it on the identical path
    /// whose sum the balance covers, and starts them as ONE route of the
    /// sum, the front's: its id (so its wait-die age) and its deadline.
    /// A route of more than one member is recorded in `shared`. A shared
    /// front the balance no longer covers splits back into entries that
    /// run alone instead.
    fn start_shared_route(&mut self, now: u64, id: ChannelId, effects: &mut Vec<Effect>) {
        let my_bal = self.state.channels.get(&id).map_or(0, |c| c.my_bal);
        let Some(entry) = self.admit.queues.get_mut(&id).and_then(|q| q.pop_front()) else {
            return;
        };
        let QueuedOp::Multihop {
            route,
            hops,
            channels,
            amount,
            alone,
        } = entry.op
        else {
            unreachable!("front checked as multihop");
        };
        let mut members = self.take_members(route, amount, entry.deadline_ns);
        if members.len() > 1 && amount > my_bal {
            self.split_shared(members, &hops, &channels);
            return;
        }
        let mut total = amount;
        while let Some(next) = self
            .admit
            .queues
            .get(&id)
            .and_then(|q| q.front())
            .filter(|_| !alone)
        {
            let QueuedOp::Multihop {
                route: r,
                hops: h,
                channels: ch,
                amount: a,
                alone: false,
            } = &next.op
            else {
                break;
            };
            if next.ready_ns > now
                || *h != hops
                || *ch != channels
                || self.state.routes.contains_key(r)
            {
                break;
            }
            let Some(sum) = total.checked_add(*a).filter(|sum| *sum <= my_bal) else {
                break;
            };
            let (r, a, deadline_ns) = (*r, *a, next.deadline_ns);
            self.admit.queues.get_mut(&id).expect("peeked").pop_front();
            total = sum;
            members.extend(self.take_members(r, a, deadline_ns));
        }
        let n = members.len() as u64;
        if n > 1 {
            self.admit.shared.insert(route, members);
        }
        match self.pay_multihop_inner(route, hops, channels, total, entry.deadline_ns) {
            Ok(effs) => {
                self.admit.stats.record_batch(n);
                effects.extend(effs);
            }
            Err(e) => self.end_route(route, total, Err(e), effects),
        }
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
                        effects.push(pay_rejected(id, ProtocolError::InsufficientBalance));
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
                self.acks.stats.pays_sent += 1;
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
                for _ in batch {
                    effects.push(pay_rejected(id, e.clone()));
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
                    QueuedOp::Pay { .. } => effects.push(pay_rejected(id, reason.clone())),
                    QueuedOp::Multihop { route, amount, .. } => {
                        self.end_route(route, amount, Err(reason.clone()), effects)
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
