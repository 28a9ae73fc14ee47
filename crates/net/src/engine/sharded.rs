//! The discrete-event engine: sharded and conservative-parallel, and at
//! one shard (the default) a plain sequential event loop.
//!
//! Nodes are partitioned round-robin into `S` shards (`node i → shard
//! i mod S`). Each shard owns its nodes' full per-node state — event
//! heap, busy periods, deferred inboxes, per-node RNG lanes and
//! per-connection FIFO clamps — so a window of events can be processed
//! by `S` worker threads with no shared mutable state. Shards
//! synchronize on **conservative lookahead windows**:
//!
//! 1. The coordinator takes the globally earliest pending event time
//!    `T` and opens the window `[T, T + L)`, where the lookahead `L` is
//!    the **per-cut minimum**: the minimum latency over the links that
//!    are *currently cross-shard* under the round-robin partition
//!    (clamped to ≥ 1 ns, see below). Intra-shard links do not bound
//!    the window — a shard processes its own heap strictly in key
//!    order, so a low-latency local hop can never be observed early.
//!    With one shard there is no cut at all and the window is
//!    unbounded. The cut minimum is recomputed only when a link
//!    changes, from the partition arithmetic (`node i → shard i mod
//!    S`), not by scanning pairs per window.
//! 2. Every shard independently processes *all* of its events scheduled
//!    before `T + L`, buffering cross-shard deliveries.
//! 3. At the window barrier the buffered deliveries are merged into the
//!    target shards' heaps, and the next window opens.
//!
//! A cross-shard message sent at time `t ≥ T` travels a cross-shard
//! link, whose sampled delay is at least its configured latency
//! (jitter and serialization are additive) and therefore at least `L`:
//! it arrives at `t + delay ≥ T + L` — outside the current window — so
//! no shard can ever receive an event "in the past": the classic
//! conservative-synchronization argument (Chandy–Misra–Bryant
//! lookahead, here derived from link latency the way the paper's WAN
//! testbed would justify), tightened from the global minimum to the
//! minimum over the cut.
//!
//! # Scheduling: work stealing at the barrier
//!
//! One shard runs its single unbounded window on the calling thread.
//! With several shards, a window holding at least a small threshold of
//! pending events fans out to a pool of `min(available CPUs, shards)`
//! scoped threads; smaller windows run inline. Workers *claim* shards
//! from a shared atomic counter: a worker that drains a light shard
//! immediately claims the next unclaimed one instead of spinning at the
//! barrier behind a heavy shard. Which worker processes a shard cannot
//! affect results — shards share no mutable state inside a window and
//! the barrier merge orders buffered deliveries by their `(time,
//! origin, seq)` keys — so the pool changes wall-clock only. The CPU
//! count is probed on the first window that could use it, so building
//! an engine costs no system call.
//!
//! # Determinism across shard counts
//!
//! The engine produces bit-for-bit identical results for *any* shard
//! count (including 1), which the integration suite asserts — against
//! itself across shard counts, and against a naive single-heap
//! reference engine (`crates/net/tests/reference`) that defines the
//! event order independently of this code. The argument:
//!
//! * **Per-node total order.** Every event carries the key `(time,
//!   origin node, per-origin seq)`. A node's actions are applied in its
//!   own deterministic handler order, so the key of every event is
//!   independent of the partition. A shard's heap pops its nodes'
//!   events in global key order, and cross-shard arrivals always carry
//!   times beyond anything the target has processed (previous point),
//!   so each node observes its events in the same total order no matter
//!   where its peers live.
//! * **Per-node RNG lanes.** Link jitter is sampled from the *sender's*
//!   lane and handler randomness from the *handling node's* lane, so
//!   the random streams consumed by a node are a function of that
//!   node's own deterministic event sequence — never of thread
//!   interleaving.
//! * **Partition-independent event order.** The per-node total order
//!   above is a function of event keys alone; window boundaries only
//!   decide *when* a pending event is dispatched, never its key or its
//!   relative order at the target node. Widening or narrowing windows —
//!   as the per-cut lookahead does when the shard count changes — can
//!   therefore never change an observable trace. The one
//!   partition-*dependent* artifact is the `run_to_idle` event budget:
//!   it is checked at window granularity (per event for a single shard,
//!   whose window is unbounded), so *where* a run stops when the
//!   runaway guard actually binds may differ across shard counts. The
//!   budget is a backstop against non-quiescing simulations, not a
//!   semantic knob; the determinism suites all use budgets that never
//!   bind.
//! * **Minimum link delay.** Zero-latency ("ideal") links would make
//!   the lookahead zero, and a zero-delay cross-node message could
//!   interleave with the target's same-instant events differently
//!   under different partitions. The engine therefore clamps every
//!   message delay to ≥ 1 ns — a physical link has nonzero latency —
//!   which makes every cross-node event strictly future and restores
//!   the argument. On an "ideal" link a message arrives 1 ns after it
//!   leaves.
//!
//! The escape hatch from this guarantee is shared state *outside* the
//! engine: node handlers that mutate a cross-node shared structure
//! (e.g. broadcasting a settlement transaction to the shared
//! blockchain) are serialized by a lock, not by event order. The
//! Teechain workloads keep such operations in the harness-driven setup
//! and settlement phases; the payment hot path touches per-node state
//! only.

use super::queue::{Ev, LaneKey, LaneQueue};
use super::{Action, Ctx, EngineKind, EventKind, NodeId, SimNode, SimStats};
use crate::link::LinkSpec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use teechain_util::rng::{SplitMix64, Xoshiro256};

/// Every sampled message delay is clamped to at least this (see the
/// module docs' determinism argument).
pub const MIN_DELAY_NS: u64 = 1;

/// Below this many queued events a window is processed inline on the
/// calling thread: spawning workers for a handful of events (handshake
/// chatter during setup) costs more than it saves. The threshold only
/// affects wall-clock, never results — both paths run the identical
/// per-shard algorithm.
const PARALLEL_THRESHOLD: usize = 384;

/// Link lookup shared read-only by every worker during a window.
///
/// Overrides live in per-node sorted adjacency lists, so a node's look-up
/// is a binary search over the links set on it — O(degree), however many
/// nodes the simulation has — and a node with no override finds the
/// default without searching anything.
///
/// The table knows the engine's round-robin partition (`node i → shard
/// i mod S`) so it can maintain the **per-cut** lookahead: the minimum
/// clamped latency over links whose endpoints live on *different*
/// shards. Intra-shard links never bound a window (a shard pops its own
/// heap in key order), so a fast local link does not force tiny windows
/// on everyone else.
struct LinkTable {
    /// `adj[a]`: `(b, spec)` for every override set between `a` and `b`,
    /// sorted by `b`. Each override sits in both endpoints' lists.
    adj: Vec<Vec<(u32, LinkSpec)>>,
    default_link: LinkSpec,
    num_nodes: usize,
    num_shards: usize,
    /// Minimum clamped latency over the currently cross-shard links
    /// (the default link included unless every cross pair is
    /// overridden); `u64::MAX` for a single shard, whose cut is empty.
    lookahead: u64,
}

impl LinkTable {
    fn new(default_link: LinkSpec, num_nodes: usize, num_shards: usize) -> Self {
        let mut t = LinkTable {
            adj: (0..num_nodes).map(|_| Vec::new()).collect(),
            default_link,
            num_nodes,
            num_shards,
            lookahead: MIN_DELAY_NS,
        };
        t.recompute();
        t
    }

    fn link_for(&self, a: NodeId, b: NodeId) -> LinkSpec {
        let peers = self.adj.get(a.0 as usize).map_or(&[][..], Vec::as_slice);
        match peers.binary_search_by_key(&b.0, |&(peer, _)| peer) {
            Ok(i) => peers[i].1,
            Err(_) => self.default_link,
        }
    }

    fn set(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        for (x, y) in [(a.0, b.0), (b.0, a.0)] {
            let x = x as usize;
            if self.adj.len() <= x {
                self.adj.resize_with(x + 1, Vec::new);
            }
            let peers = &mut self.adj[x];
            match peers.binary_search_by_key(&y, |&(peer, _)| peer) {
                Ok(i) => peers[i].1 = spec,
                Err(i) => peers.insert(i, (y, spec)),
            }
        }
        self.recompute();
    }

    /// Moves the cut to a new shard count.
    fn set_shards(&mut self, num_shards: usize) {
        self.num_shards = num_shards;
        self.recompute();
    }

    /// Recomputes the per-cut lookahead. Called only on topology change
    /// (link overrides are rare), never per window, so the cost of the
    /// override scan is irrelevant; whether the *default* link still
    /// sits on the cut is decided by counting, not enumerating, the
    /// cross pairs.
    fn recompute(&mut self) {
        let (n, s) = (self.num_nodes, self.num_shards);
        if s <= 1 || n <= 1 {
            // No cut: nothing a shard does can surprise another shard.
            self.lookahead = u64::MAX;
            return;
        }
        // Unordered cross-shard pairs under the round-robin partition:
        // all pairs minus the pairs internal to each shard.
        let total_pairs = n * (n - 1) / 2;
        let intra_pairs: usize = (0..s)
            .map(|r| {
                let size = n / s + usize::from(r < n % s);
                size * (size - 1) / 2
            })
            .sum();
        let cross_pairs = total_pairs - intra_pairs;
        let mut l = u64::MAX;
        let mut overridden = 0usize;
        for (a, peers) in self.adj.iter().enumerate() {
            for &(b, spec) in peers {
                // Overrides are stored in both orientations; count each
                // unordered pair once.
                let b = b as usize;
                if a < b && a % s != b % s {
                    overridden += 1;
                    l = l.min(spec.latency_ns.max(MIN_DELAY_NS));
                }
            }
        }
        if overridden < cross_pairs {
            // At least one cross pair still uses the default link.
            l = l.min(self.default_link.latency_ns.max(MIN_DELAY_NS));
        }
        self.lookahead = l;
    }
}

/// Everything one node owns: the node itself, its RNG lane, sequence
/// lane, CPU-queue state and sender-side FIFO clamps. A slot is the unit
/// [`ShardedEngine::repartition`] moves between shards.
struct Slot<N> {
    node: N,
    rng: Xoshiro256,
    /// Per-origin event sequence lane (monotone, never reused).
    oseq: u64,
    busy_until: u64,
    inbox: VecDeque<EventKind>,
    wake_scheduled: bool,
    offline: bool,
    /// Last scheduled arrival per destination, sorted by destination:
    /// links are FIFO (TCP-like), so jitter never reorders one
    /// connection. One entry per node sent to, so O(degree).
    last_arrival: Vec<(u32, u64)>,
}

impl<N> Slot<N> {
    fn new(node: N, engine_seed: u64, id: u64) -> Self {
        // Lane seed: decorrelate node lanes from each other.
        let lane =
            SplitMix64::new(engine_seed ^ (id + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        Slot {
            node,
            rng: Xoshiro256::new(lane),
            oseq: 0,
            busy_until: 0,
            inbox: VecDeque::new(),
            wake_scheduled: false,
            offline: false,
            last_arrival: Vec::new(),
        }
    }
}

/// One shard: a disjoint subset of nodes plus their event heap.
struct Shard<N> {
    index: usize,
    num_shards: usize,
    slots: Vec<Slot<N>>,
    queue: LaneQueue,
    /// Cross-shard deliveries buffered during a window, indexed by
    /// destination shard; merged at the window barrier. Buffers are
    /// recycled at the barrier (capacity survives the drain) so steady
    /// state allocates nothing here.
    outbound: Vec<Vec<Ev>>,
    /// Action scratch reused across every handler invocation on this
    /// shard — one arena-style allocation instead of a fresh `Vec` per
    /// event.
    scratch: Vec<Action>,
    now: u64,
    stats: SimStats,
}

impl<N: SimNode> Shard<N> {
    fn local(&self, id: NodeId) -> usize {
        id.0 as usize / self.num_shards
    }

    fn route(&mut self, ev: Ev) {
        let dst = ev.kind.target().0 as usize % self.num_shards;
        if dst == self.index {
            self.queue.push(ev);
        } else {
            self.outbound[dst].push(ev);
        }
    }

    /// Applies (and drains) a handler's actions on behalf of `from` at
    /// time `now`. Draining instead of consuming lets the caller keep
    /// the buffer's capacity for the next invocation.
    fn apply_actions(
        &mut self,
        now: u64,
        from: NodeId,
        actions: &mut Vec<Action>,
        links: &LinkTable,
    ) {
        let local = self.local(from);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } => {
                    let ev = {
                        let slot = &mut self.slots[local];
                        let link = links.link_for(from, to);
                        let delay = link
                            .sample_delay(msg.len(), &mut slot.rng)
                            .max(MIN_DELAY_NS);
                        // Outputs leave once the node finishes its
                        // accounted processing.
                        let depart = now.max(slot.busy_until);
                        let mut time = depart + delay;
                        let arrivals = &mut slot.last_arrival;
                        let i = match arrivals.binary_search_by_key(&to.0, |&(dst, _)| dst) {
                            Ok(i) => i,
                            Err(i) => {
                                arrivals.insert(i, (to.0, 0));
                                i
                            }
                        };
                        time = time.max(arrivals[i].1);
                        arrivals[i].1 = time;
                        let key = LaneKey {
                            time,
                            origin: from.0,
                            oseq: slot.oseq,
                        };
                        slot.oseq += 1;
                        Ev {
                            key,
                            kind: EventKind::Deliver { to, from, msg },
                        }
                    };
                    self.route(ev);
                }
                Action::Timer { delay_ns, token } => {
                    let slot = &mut self.slots[local];
                    let key = LaneKey {
                        time: now + delay_ns,
                        origin: from.0,
                        oseq: slot.oseq,
                    };
                    slot.oseq += 1;
                    // A timer always targets its own node — same shard.
                    self.queue.push(Ev {
                        key,
                        kind: EventKind::Timer { node: from, token },
                    });
                }
                Action::Busy { ns } => {
                    let slot = &mut self.slots[local];
                    slot.busy_until = slot.busy_until.max(now) + ns;
                }
            }
        }
    }

    /// Runs `f` on a node with a live [`Ctx`] at the shard clock, then
    /// applies the resulting actions.
    fn invoke<R>(
        &mut self,
        id: NodeId,
        links: &LinkTable,
        f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut actions = std::mem::take(&mut self.scratch);
        debug_assert!(actions.is_empty());
        let now = self.now;
        let local = self.local(id);
        let r = {
            let slot = &mut self.slots[local];
            let mut ctx = Ctx {
                now,
                self_id: id,
                actions: &mut actions,
                rng: &mut slot.rng,
            };
            f(&mut slot.node, &mut ctx)
        };
        self.apply_actions(now, id, &mut actions, links);
        self.scratch = actions;
        r
    }

    /// Ensures a wake event is scheduled for a node whose inbox holds
    /// deferred events.
    fn ensure_wake(&mut self, node: NodeId) {
        let local = self.local(node);
        let slot = &mut self.slots[local];
        if slot.offline || slot.wake_scheduled || slot.inbox.is_empty() {
            return;
        }
        slot.wake_scheduled = true;
        let key = LaneKey {
            time: slot.busy_until.max(self.now),
            origin: node.0,
            oseq: slot.oseq,
        };
        slot.oseq += 1;
        self.queue.push(Ev {
            key,
            kind: EventKind::Wake { node },
        });
    }

    fn dispatch(&mut self, kind: EventKind, links: &LinkTable) {
        self.stats.events += 1;
        match kind {
            EventKind::Deliver { to, from, msg } => {
                self.stats.messages += 1;
                self.stats.bytes += msg.len() as u64;
                self.invoke(to, links, |node, ctx| node.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, token } => {
                self.invoke(node, links, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::Wake { .. } => unreachable!("wake handled in process_window"),
        }
    }

    /// Processes every local event scheduled strictly before `w_end`,
    /// up to `budget` events. Multi-shard windows pass
    /// `u64::MAX` — stopping a shard mid-window would break the
    /// barrier contract — while the single-shard path (whose one
    /// window is unbounded) uses the budget to honor `run_to_idle`'s
    /// runaway guard per event.
    fn process_window(&mut self, w_end: u64, links: &LinkTable, budget: u64) -> u64 {
        let mut processed = 0;
        while processed < budget {
            let Some(ev) = self.queue.pop_before(w_end) else {
                break;
            };
            processed += 1;
            self.now = self.now.max(ev.key.time);
            let node = ev.kind.target();
            let local = self.local(node);
            if self.slots[local].offline {
                // The machine is down: in-flight traffic and timers die.
                if let EventKind::Wake { .. } = ev.kind {
                    self.slots[local].wake_scheduled = false;
                } else {
                    self.stats.dropped += 1;
                }
                continue;
            }
            if let EventKind::Wake { .. } = ev.kind {
                self.slots[local].wake_scheduled = false;
                if self.slots[local].busy_until > self.now {
                    // Busy period was extended after the wake was set.
                    self.ensure_wake(node);
                } else if let Some(deferred) = self.slots[local].inbox.pop_front() {
                    self.dispatch(deferred, links);
                    self.ensure_wake(node);
                }
                continue;
            }
            // A busy node defers the event into its inbox (single-server
            // queue); a free node with a non-empty inbox must also defer
            // to preserve per-connection FIFO.
            if self.slots[local].busy_until > self.now || !self.slots[local].inbox.is_empty() {
                self.slots[local].inbox.push_back(ev.kind);
                self.ensure_wake(node);
                continue;
            }
            self.dispatch(ev.kind, links);
            self.ensure_wake(node);
        }
        processed
    }
}

/// Deals `slots`, in node-id order, round-robin into `s` fresh shards
/// whose clocks read `now`.
fn partition<N>(slots: impl Iterator<Item = Slot<N>>, s: usize, now: u64) -> Vec<Shard<N>> {
    let mut shards: Vec<Shard<N>> = (0..s)
        .map(|index| Shard {
            index,
            num_shards: s,
            slots: Vec::new(),
            queue: LaneQueue::default(),
            outbound: (0..s).map(|_| Vec::new()).collect(),
            scratch: Vec::new(),
            now,
            stats: SimStats::default(),
        })
        .collect();
    for (i, slot) in slots.enumerate() {
        shards[i % s].slots.push(slot);
    }
    shards
}

/// The simulation engine (see module docs).
pub struct ShardedEngine<N> {
    shards: Vec<Shard<N>>,
    num_nodes: usize,
    links: LinkTable,
    now: u64,
    started: bool,
    /// Host CPUs available for window fan-out, probed on the first
    /// window large enough to use them.
    workers: Option<usize>,
}

impl<N: SimNode + Send> ShardedEngine<N> {
    /// Creates an engine over `nodes` partitioned into `kind`'s shard
    /// count (clamped to `1..=nodes.len()`).
    pub fn new(kind: EngineKind, nodes: Vec<N>, default_link: LinkSpec, seed: u64) -> Self {
        let num_nodes = nodes.len();
        let s = kind.shards().min(num_nodes.max(1));
        let slots = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| Slot::new(node, seed, i as u64));
        ShardedEngine {
            shards: partition(slots, s, 0),
            num_nodes,
            links: LinkTable::new(default_link, num_nodes, s),
            now: 0,
            started: false,
            workers: None,
        }
    }

    /// Re-partitions a **quiescent** simulation (empty event queue —
    /// e.g. after [`ShardedEngine::run_to_idle`]) into `kind`'s shard
    /// count, in place. Whole per-node slots move between shards: the
    /// node, its RNG lane and sequence lane, busy period, offline flag
    /// and per-connection FIFO clamps. The continuation is therefore
    /// exactly the one the simulation would have had at its old shard
    /// count. This is how the `scale` benchmark builds one topology and
    /// then measures every shard count on it.
    ///
    /// # Panics
    ///
    /// Panics if events are still queued.
    pub fn repartition(&mut self, kind: EngineKind) {
        assert!(
            self.shards
                .iter()
                .all(|sh| sh.queue.is_empty() && sh.slots.iter().all(|sl| sl.inbox.is_empty())),
            "repartitioning requires a quiescent simulation (run_to_idle first)"
        );
        let stats = self.stats();
        let s = kind.shards().min(self.num_nodes.max(1));
        let old = std::mem::take(&mut self.shards);
        let s_old = old.len();
        let mut lanes: Vec<_> = old.into_iter().map(|sh| sh.slots.into_iter()).collect();
        let slots = (0..self.num_nodes).map(|i| lanes[i % s_old].next().expect("node slot"));
        self.shards = partition(slots, s, self.now);
        self.shards[0].stats = stats;
        self.links.set_shards(s);
    }

    /// The shard count this engine runs at.
    pub fn kind(&self) -> EngineKind {
        EngineKind::Sharded {
            shards: self.shards.len(),
        }
    }

    /// The conservative lookahead: the minimum clamped latency over the
    /// currently cross-shard links (`u64::MAX` for a single shard,
    /// whose cut is empty).
    pub fn lookahead_ns(&self) -> u64 {
        self.links.lookahead
    }

    /// Sets the (symmetric) link between two nodes.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.links.set(a, b, spec);
    }

    /// Takes a node down or brings it back up (crash fault injection).
    pub fn set_offline(&mut self, id: NodeId, offline: bool) {
        let s = self.shards.len();
        let shard = &mut self.shards[id.0 as usize % s];
        let local = shard.local(id);
        if offline {
            shard.stats.dropped += shard.slots[local].inbox.len() as u64;
            shard.slots[local].inbox.clear();
        }
        shard.slots[local].offline = offline;
    }

    /// True while `id` is crashed.
    pub fn is_offline(&self, id: NodeId) -> bool {
        let s = self.shards.len();
        let shard = &self.shards[id.0 as usize % s];
        shard.slots[shard.local(id)].offline
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.num_nodes
    }

    /// True if the engine has no nodes.
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// Current simulated time.
    pub fn now_ns(&self) -> u64 {
        self.now
    }

    /// Aggregate counters, merged across shards.
    pub fn stats(&self) -> SimStats {
        self.shards
            .iter()
            .fold(SimStats::default(), |acc, sh| acc.merged(&sh.stats))
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &N {
        let s = self.shards.len();
        let shard = &self.shards[id.0 as usize % s];
        &shard.slots[shard.local(id)].node
    }

    /// Mutable access to a node (setup / between-run inspection).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        let s = self.shards.len();
        let shard = &mut self.shards[id.0 as usize % s];
        let local = shard.local(id);
        &mut shard.slots[local].node
    }

    /// Invokes `f` on a node with a live [`Ctx`] at the current time,
    /// then applies any resulting actions.
    pub fn call<R>(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R) -> R {
        let s = self.shards.len();
        let si = id.0 as usize % s;
        self.shards[si].now = self.now;
        let r = self.shards[si].invoke(id, &self.links, f);
        self.exchange();
        r
    }

    /// Moves buffered cross-shard deliveries into their target heaps.
    /// Buffers go back where they came from so their capacity is
    /// reused next window.
    fn exchange(&mut self) {
        let s = self.shards.len();
        for src in 0..s {
            for dst in 0..s {
                if src == dst || self.shards[src].outbound[dst].is_empty() {
                    continue;
                }
                let mut evs = std::mem::take(&mut self.shards[src].outbound[dst]);
                self.shards[dst].queue.extend(evs.drain(..));
                self.shards[src].outbound[dst] = evs;
            }
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.num_nodes {
            let id = NodeId(i as u32);
            self.call(id, |node, ctx| node.on_start(ctx));
        }
    }

    /// Processes one lookahead window ending (exclusively) at `w_end`,
    /// in parallel when enough work is queued. `budget` caps events for
    /// the single-shard path only (see [`Shard::process_window`]).
    /// Returns events processed.
    fn run_window(&mut self, w_end: u64, budget: u64) -> u64 {
        let links = &self.links;
        let shards = &mut self.shards;
        let processed: u64 = if shards.len() == 1 {
            // One shard has no barrier to honor, so the event budget
            // can bind mid-window (its single window is unbounded).
            shards[0].process_window(w_end, links, budget)
        } else {
            let pending: usize = shards.iter().map(|sh| sh.queue.len()).sum();
            let workers = if pending < PARALLEL_THRESHOLD {
                1
            } else {
                let cpus = self.workers.get_or_insert_with(|| {
                    std::thread::available_parallelism().map_or(1, |p| p.get())
                });
                (*cpus).min(shards.len())
            };
            if workers <= 1 {
                // Handshake trickle, or nothing to gain from threads.
                shards
                    .iter_mut()
                    .map(|shard| shard.process_window(w_end, links, u64::MAX))
                    .sum()
            } else {
                run_pool(shards, workers, w_end, links)
            }
        };
        self.exchange();
        processed
    }

    /// The window loop: picks the global minimum pending time, opens the
    /// lookahead window, fans out, merges, repeats.
    fn drive(&mut self, deadline: Option<u64>, max_events: u64) -> u64 {
        self.start_if_needed();
        let mut total: u64 = 0;
        while total < max_events {
            let Some(t_min) = self
                .shards
                .iter()
                .filter_map(|sh| sh.queue.next_time())
                .min()
            else {
                break;
            };
            if t_min == u64::MAX || deadline.is_some_and(|d| t_min > d) {
                break;
            }
            let mut w_end = t_min.saturating_add(self.links.lookahead);
            if let Some(d) = deadline {
                w_end = w_end.min(d.saturating_add(1));
            }
            total += self.run_window(w_end, max_events - total);
        }
        let frontier = self.shards.iter().map(|sh| sh.now).max().unwrap_or(0);
        self.now = self.now.max(frontier);
        total
    }

    /// Runs until the queue drains or `deadline_ns` passes. Returns the
    /// number of events processed.
    pub fn run_until(&mut self, deadline_ns: u64) -> u64 {
        let processed = self.drive(Some(deadline_ns), u64::MAX);
        self.now = self.now.max(deadline_ns);
        processed
    }

    /// Runs until the event queue is empty, or approximately `max_events`
    /// were processed (a runaway guard). With multiple shards the budget
    /// is checked at window boundaries and can overshoot by up to one
    /// window; with a single shard — whose one window is unbounded — it
    /// binds per event. Returns the number of events processed.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        self.drive(None, max_events)
    }
}

/// Processes one window of `shards` on a pool of `workers` scoped
/// threads. Each worker claims the next unclaimed shard, so a worker that
/// drains a light shard takes over a waiting one instead of idling at the
/// barrier. Claims are unique (`fetch_add`), so each mutex is locked
/// exactly once — it exists to loan `&mut Shard` across threads, not to
/// arbitrate contention. Returns events processed.
fn run_pool<N: SimNode + Send>(
    shards: &mut [Shard<N>],
    workers: usize,
    w_end: u64,
    links: &LinkTable,
) -> u64 {
    let tasks: Vec<Mutex<&mut Shard<N>>> = shards.iter_mut().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = 0u64;
                    while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let mut shard = task.lock().expect("claimed shard");
                        done += shard.process_window(w_end, links, u64::MAX);
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{engine, fixed, two_nodes, Echo};
    use super::*;
    use crate::MS;

    /// A mixed scenario: jittery links, per-link overrides, CPU costs,
    /// echo cascades, timers and a crash/recovery — run at a given shard
    /// count, returning a full fingerprint of everything observable.
    #[allow(clippy::type_complexity)]
    fn scenario(
        shards: usize,
    ) -> (
        Vec<Vec<(u64, NodeId, Vec<u8>)>>,
        Vec<Vec<(u64, u64)>>,
        SimStats,
        u64,
    ) {
        let default = LinkSpec {
            latency_ns: 2 * MS,
            jitter_frac: 0.10,
            bandwidth_bps: Some(100_000_000),
        };
        let n = 6;
        let nodes: Vec<Echo> = (0..n).map(|i| Echo::new(i % 2 == 1)).collect();
        let mut sim = engine(shards, nodes, default, 42);
        sim.set_link(
            NodeId(0),
            NodeId(3),
            LinkSpec {
                latency_ns: 7 * MS,
                jitter_frac: 0.05,
                bandwidth_bps: None,
            },
        );
        for i in 0..n as u32 {
            sim.node_mut(NodeId(i)).cost_ns = (i as u64) * 300_000;
        }
        for i in 0..n as u32 {
            sim.call(NodeId(i), |_, ctx| {
                for k in 0..5u8 {
                    ctx.send(NodeId((i + 1) % n as u32), vec![i as u8, k]);
                    ctx.send(NodeId((i + 2) % n as u32), vec![i as u8, k, k]);
                }
                ctx.set_timer(((i as u64) + 1) * MS, i as u64);
            });
        }
        sim.run_until(9 * MS);
        sim.set_offline(NodeId(4), true);
        sim.call(NodeId(1), |_, ctx| ctx.send(NodeId(4), b"lost".to_vec()));
        sim.run_until(15 * MS);
        sim.set_offline(NodeId(4), false);
        sim.call(NodeId(1), |_, ctx| ctx.send(NodeId(4), b"back".to_vec()));
        sim.run_to_idle(100_000);
        let received = (0..n as u32)
            .map(|i| sim.node(NodeId(i)).received.clone())
            .collect();
        let timers = (0..n as u32)
            .map(|i| sim.node(NodeId(i)).timers.clone())
            .collect();
        (received, timers, sim.stats(), sim.now_ns())
    }

    #[test]
    fn identical_results_for_any_shard_count() {
        let baseline = scenario(1);
        for shards in [2, 3, 6, 8] {
            let run = scenario(shards);
            assert_eq!(
                run.0, baseline.0,
                "received traces differ at {shards} shards"
            );
            assert_eq!(run.1, baseline.1, "timer traces differ at {shards} shards");
            assert_eq!(run.2, baseline.2, "stats differ at {shards} shards");
            assert_eq!(run.3, baseline.3, "clock differs at {shards} shards");
        }
    }

    #[test]
    fn message_arrives_after_latency() {
        for shards in [1, 2] {
            let mut sim = two_nodes(10, shards);
            sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"ping".to_vec()));
            sim.run_to_idle(100);
            let (t, from, msg) = &sim.node(NodeId(1)).received[0];
            assert_eq!(*t, 10 * MS, "{shards} shards");
            assert_eq!(*from, NodeId(0));
            assert_eq!(msg, b"ping");
            // The echo arrives back after another 10 ms.
            assert_eq!(sim.node(NodeId(0)).received[0].0, 20 * MS);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        for shards in [1, 2] {
            let mut sim = two_nodes(1, shards);
            sim.call(NodeId(0), |_, ctx| {
                ctx.set_timer(5 * MS, 5);
                ctx.set_timer(2 * MS, 2);
                ctx.set_timer(9 * MS, 9);
            });
            sim.run_to_idle(100);
            assert_eq!(
                sim.node(NodeId(0)).timers,
                vec![(2 * MS, 2), (5 * MS, 5), (9 * MS, 9)],
                "{shards} shards"
            );
        }
    }

    #[test]
    fn per_link_overrides() {
        for shards in [1, 2] {
            let nodes = vec![Echo::new(false), Echo::new(false), Echo::new(false)];
            let mut sim = engine(shards, nodes, fixed(MS), 1);
            sim.set_link(NodeId(0), NodeId(2), fixed(50 * MS));
            sim.call(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), b"fast".to_vec());
                ctx.send(NodeId(2), b"slow".to_vec());
            });
            sim.run_to_idle(100);
            assert_eq!(sim.node(NodeId(1)).received[0].0, MS, "{shards} shards");
            assert_eq!(
                sim.node(NodeId(2)).received[0].0,
                50 * MS,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn offline_node_drops_traffic_then_recovers_delivery() {
        for shards in [1, 2] {
            let mut sim = two_nodes(5, shards);
            sim.set_offline(NodeId(1), true);
            sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"lost".to_vec()));
            sim.run_to_idle(100);
            assert!(sim.node(NodeId(1)).received.is_empty(), "{shards} shards");
            assert_eq!(sim.stats().dropped, 1);
            sim.set_offline(NodeId(1), false);
            sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"arrives".to_vec()));
            sim.run_to_idle(100);
            assert_eq!(sim.node(NodeId(1)).received.len(), 1, "{shards} shards");
            assert_eq!(sim.node(NodeId(1)).received[0].2, b"arrives");
        }
    }

    #[test]
    fn crash_discards_deferred_inbox_and_timers() {
        for shards in [1, 2] {
            let mut sim = two_nodes(0, shards);
            sim.node_mut(NodeId(1)).cost_ns = 10 * MS;
            sim.call(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), b"a".to_vec());
                ctx.send(NodeId(1), b"b".to_vec());
                ctx.send(NodeId(1), b"c".to_vec());
            });
            // All three land at the 1 ns minimum delay: the first is
            // processed, b and c sit deferred in the busy node's inbox.
            sim.run_until(MIN_DELAY_NS);
            sim.call(NodeId(1), |_, ctx| ctx.set_timer(50 * MS, 9));
            sim.set_offline(NodeId(1), true);
            sim.run_to_idle(1000);
            assert_eq!(sim.node(NodeId(1)).received.len(), 1, "{shards} shards");
            assert!(
                sim.node(NodeId(1)).timers.is_empty(),
                "timer died with the node"
            );
            assert_eq!(
                sim.stats().dropped,
                3,
                "{shards} shards: the deferred inbox and the timer were discarded"
            );
            assert!(sim.is_offline(NodeId(1)));
        }
    }

    #[test]
    fn throughput_limited_by_service_time() {
        // With a 1 ms service time, 1000 messages take ~1 s to drain:
        // the single-server queue caps throughput at 1/cost.
        for shards in [1, 2] {
            let mut sim = two_nodes(0, shards);
            sim.node_mut(NodeId(1)).cost_ns = MS;
            sim.call(NodeId(0), |_, ctx| {
                for _ in 0..1000 {
                    ctx.send(NodeId(1), vec![0]);
                }
            });
            sim.run_to_idle(10_000);
            let last = sim.node(NodeId(1)).received.last().unwrap().0;
            assert_eq!(last, 999 * MS + MIN_DELAY_NS, "{shards} shards");
        }
    }

    #[test]
    fn ideal_links_are_clamped_to_min_delay() {
        let nodes = vec![Echo::new(false), Echo::new(false)];
        let mut sim = engine(2, nodes, LinkSpec::ideal(), 1);
        assert_eq!(sim.lookahead_ns(), MIN_DELAY_NS);
        sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"x".to_vec()));
        sim.run_to_idle(10);
        // A "zero-latency" hop takes the 1 ns physical minimum.
        assert_eq!(sim.node(NodeId(1)).received[0].0, MIN_DELAY_NS);
    }

    #[test]
    fn lookahead_uses_only_cross_shard_links() {
        // Hub-spoke-ish layout at 2 shards: nodes {0,2} share shard 0,
        // {1,3} share shard 1. A fast link *inside* a shard must not
        // narrow the window; only cross-shard links sit on the cut.
        let default = fixed(5 * MS);
        let nodes: Vec<Echo> = (0..4).map(|_| Echo::new(false)).collect();
        let mut sim = engine(2, nodes, default, 3);
        assert_eq!(sim.lookahead_ns(), 5 * MS);
        // Intra-shard override (0 and 2 both map to shard 0): the
        // per-cut lookahead stays at the default — strictly wider than
        // the global minimum (1 ns) a global derivation would pick.
        sim.set_link(NodeId(0), NodeId(2), LinkSpec::ideal());
        assert_eq!(sim.lookahead_ns(), 5 * MS);
        // A cross-shard override does tighten the window.
        sim.set_link(NodeId(0), NodeId(1), fixed(2 * MS));
        assert_eq!(sim.lookahead_ns(), 2 * MS);
        // One shard has an empty cut: the window is unbounded.
        let nodes: Vec<Echo> = (0..4).map(|_| Echo::new(false)).collect();
        let solo = engine(1, nodes, default, 3);
        assert_eq!(solo.lookahead_ns(), u64::MAX);
    }

    #[test]
    fn single_shard_budget_binds_per_event() {
        // The single-shard window is unbounded, so run_to_idle's guard
        // must bind inside the window.
        let nodes = vec![Echo::new(true), Echo::new(true)];
        let mut sim = engine(1, nodes, fixed(MS), 1);
        // Two echo nodes bounce forever; without the in-window budget
        // this would never return.
        sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"ping".to_vec()));
        assert_eq!(sim.run_to_idle(25), 25);
    }

    #[test]
    fn per_connection_fifo_under_jitter() {
        let link = LinkSpec {
            latency_ns: MS,
            jitter_frac: 0.5,
            bandwidth_bps: None,
        };
        for shards in [1, 2] {
            let mut sim = engine(shards, vec![Echo::new(false), Echo::new(false)], link, 7);
            sim.call(NodeId(0), |_, ctx| {
                for k in 0..50u8 {
                    ctx.send(NodeId(1), vec![k]);
                }
            });
            sim.run_to_idle(1000);
            let seen: Vec<u8> = sim
                .node(NodeId(1))
                .received
                .iter()
                .map(|(_, _, m)| m[0])
                .collect();
            assert_eq!(seen, (0..50u8).collect::<Vec<_>>(), "{shards} shards");
        }
    }

    #[test]
    fn busy_node_defers_like_sequential_engine() {
        // Three back-to-back messages to a node with a 10 ms service
        // time are served 10 ms apart, whatever the shard count.
        for shards in [1, 2] {
            let mut sim = engine(
                shards,
                vec![Echo::new(false), Echo::new(false)],
                fixed(MS),
                1,
            );
            sim.node_mut(NodeId(1)).cost_ns = 10 * MS;
            sim.call(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), b"a".to_vec());
                ctx.send(NodeId(1), b"b".to_vec());
                ctx.send(NodeId(1), b"c".to_vec());
            });
            sim.run_to_idle(100);
            let times: Vec<u64> = sim.node(NodeId(1)).received.iter().map(|r| r.0).collect();
            assert_eq!(times, vec![MS, 11 * MS, 21 * MS], "{shards} shards");
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = engine(2, vec![Echo::new(false), Echo::new(false)], fixed(MS), 1);
        sim.call(NodeId(0), |_, ctx| {
            ctx.set_timer(5 * MS, 1);
            ctx.set_timer(50 * MS, 2);
        });
        sim.run_until(20 * MS);
        assert_eq!(sim.node(NodeId(0)).timers.len(), 1);
        assert_eq!(sim.now_ns(), 20 * MS);
        sim.run_to_idle(100);
        assert_eq!(sim.node(NodeId(0)).timers.len(), 2);
    }

    #[test]
    fn threaded_windows_match_inline_windows() {
        // Enough pending events to cross PARALLEL_THRESHOLD and exercise
        // the worker-pool path; results must match a 1-shard run.
        let link = LinkSpec {
            latency_ns: MS,
            jitter_frac: 0.2,
            bandwidth_bps: None,
        };
        let run = |shards: usize| {
            let nodes: Vec<Echo> = (0..4).map(|i| Echo::new(i % 2 == 1)).collect();
            let mut sim = engine(shards, nodes, link, 9);
            for i in 0..4u32 {
                sim.call(NodeId(i), |_, ctx| {
                    for k in 0..200u16 {
                        ctx.send(NodeId((i + 1) % 4), k.to_le_bytes().to_vec());
                    }
                });
            }
            sim.run_to_idle(1_000_000);
            // The CPU count is probed only by a window that could use
            // threads; a single shard never asks.
            assert_eq!(sim.workers.is_some(), shards > 1, "{shards} shards");
            let trace: Vec<_> = (0..4u32)
                .map(|i| sim.node(NodeId(i)).received.clone())
                .collect();
            (trace, sim.stats())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn conversion_between_engines_preserves_world() {
        let nodes = vec![Echo::new(false), Echo::new(true), Echo::new(false)];
        let mut sim = engine(1, nodes, fixed(MS), 5);
        sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"hello".to_vec()));
        sim.run_to_idle(100);
        sim.set_offline(NodeId(2), true);
        let stats = sim.stats();
        let now = sim.now_ns();

        // Repartition at quiescence and continue at two shards: history,
        // clock, offline flags and counters carry over.
        sim.repartition(EngineKind::Sharded { shards: 2 });
        assert_eq!(sim.kind(), EngineKind::Sharded { shards: 2 });
        assert_eq!(sim.now_ns(), now);
        assert_eq!(sim.stats(), stats);
        assert_eq!(sim.node(NodeId(1)).received.len(), 1);
        assert!(sim.is_offline(NodeId(2)));
        sim.set_offline(NodeId(2), false);
        sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(2), b"more".to_vec()));
        sim.run_to_idle(100);
        assert_eq!(sim.node(NodeId(2)).received.len(), 1);
        assert_eq!(sim.stats().messages, stats.messages + 1);

        // And back to one shard.
        sim.repartition(EngineKind::Seq);
        assert_eq!(sim.kind(), EngineKind::Sharded { shards: 1 });
        assert_eq!(sim.node(NodeId(2)).received.len(), 1);
    }

    #[test]
    fn repartition_clamps_to_node_count() {
        let nodes = vec![Echo::new(false), Echo::new(true), Echo::new(false)];
        let mut sim = engine(2, nodes, fixed(MS), 5);
        sim.repartition(EngineKind::Sharded { shards: 8 });
        assert_eq!(sim.kind(), EngineKind::Sharded { shards: 3 });
        sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"ping".to_vec()));
        sim.run_to_idle(100);
        // Every node is still reachable: the echo came back.
        assert_eq!(sim.node(NodeId(1)).received.len(), 1);
        assert_eq!(sim.node(NodeId(0)).received[0].0, 2 * MS);
    }

    #[test]
    fn conversion_rejects_pending_events() {
        for shards in [1, 2] {
            let mut sim = two_nodes(2, shards);
            sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"x".to_vec()));
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.repartition(EngineKind::Sharded { shards: 3 - shards })
            }))
            .expect_err("a message is still in flight");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("quiescent"), "{shards} shards: {msg:?}");
        }
    }

    #[test]
    fn shard_count_does_not_change_converted_continuation() {
        // Repartitioning a quiescent world is invisible: continuing it
        // at any shard count replays the run that was never converted.
        // Jitter draws from the senders' RNG lanes, so a repartition
        // that re-derived or reordered a lane would shift every later
        // arrival (this is the scale benchmark's usage pattern).
        let link = LinkSpec {
            latency_ns: 2 * MS,
            jitter_frac: 0.1,
            bandwidth_bps: None,
        };
        let continue_at = |from: usize, to: Option<usize>| {
            let nodes = (0..5).map(|i| Echo::new(i % 2 == 1)).collect();
            let mut sim = engine(from, nodes, link, 11);
            sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"setup".to_vec()));
            sim.run_to_idle(100);
            if let Some(to) = to {
                sim.repartition(EngineKind::Sharded { shards: to });
                assert_eq!(sim.kind().shards(), to);
            }
            for i in 0..5u32 {
                sim.call(NodeId(i), |_, ctx| {
                    for k in 0..8u8 {
                        ctx.send(NodeId((i + 2) % 5), vec![k]);
                    }
                });
            }
            // Odd echo pairs ping-pong forever, so bound by *time*, not
            // by event budget: where a binding budget stops is window-
            // granular and thus partition-dependent (see module docs).
            sim.run_until(80 * MS);
            let trace: Vec<_> = (0..5u32)
                .map(|i| sim.node(NodeId(i)).received.clone())
                .collect();
            (trace, sim.stats(), sim.now_ns())
        };
        let base = continue_at(1, None);
        for (from, to) in [(1, 2), (1, 3), (1, 5), (3, 1)] {
            assert_eq!(continue_at(from, Some(to)), base, "{from} → {to} shards");
        }
    }
}
