//! The workload-driving benchmark cluster: a driver layer over
//! [`teechain::testkit::Cluster`].
//!
//! [`BenchNode`] wraps a Teechain host with a payment driver that issues
//! direct or multi-hop payments from inside the simulation: a sliding
//! window of in-flight payments per machine (W, §7.4), optional 100 ms
//! client-side batching (§7), and retry with randomized 100–200 ms backoff
//! on channel-lock failures — the exact mechanics of the paper's load
//! generator.
//!
//! The driver is built on the correlated-operation API: every issued
//! payment is a submitted operation, and the driver reacts to its typed
//! [`Completion`] — latency comes from the completion timestamps (per
//! operation, measured from the job's *first* issue so retries do not
//! reset the clock), and every failure is counted per [`OpError`] variant
//! in [`DriverStats::op_errors`] instead of vanishing.
//!
//! Lock contention no longer produces a retry storm: a payment against a
//! locked channel queues *inside the enclave* (admission control) and is
//! batch-applied at the unlock point. [`RunStats`] therefore reports the
//! admission counters — how many ops queued, how many drain batches
//! committed and their size distribution — instead of retry counts.
//!
//! Everything else — node construction, identities, setup operations,
//! tracing and metrics — is the cluster's: a [`BenchCluster`] derefs to
//! the [`Cluster<BenchNode>`] underneath, and the driver takes only its
//! own completions out of each host's stream, leaving setup operations
//! for the cluster to resolve.

use std::borrow::{Borrow, BorrowMut};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use teechain::driver::SimHost;
use teechain::enclave::Command;
use teechain::ops::{Completion, OpError, OpOutput, Payment};
use teechain::testkit::{Cluster, ClusterConfig, HintedHost};
use teechain::types::{ChannelId, ProtocolError, RouteId};
use teechain_crypto::schnorr::PublicKey;
use teechain_net::{Ctx, Histogram, NodeId, SimNode};

/// Timer tokens used by the driver (distinct from the host's own).
const BATCH_TOKEN: u64 = 0xBA7C4;
const JOB_RETRY_TOKEN: u64 = 0x4E7247;

/// One unit of offered load.
#[derive(Debug, Clone)]
pub enum Job {
    /// A direct payment on a channel.
    Direct {
        /// The channel to pay over.
        chan: ChannelId,
        /// Amount.
        amount: u64,
    },
    /// A multi-hop payment; `paths` are alternatives tried in order on
    /// failure (dynamic routing, §7.4). Each path is (hop identities,
    /// channels).
    Multihop {
        /// Alternative paths, shortest first.
        paths: Vec<(Vec<PublicKey>, Vec<ChannelId>)>,
        /// Which alternative to try next.
        next_path: usize,
        /// Amount.
        amount: u64,
    },
}

/// Client-side batching state (merge payments for `interval_ns` before
/// sending one merged payment, §7).
struct BatchState {
    interval_ns: u64,
    chan: ChannelId,
    armed: bool,
}

/// Per-node driver statistics.
#[derive(Default)]
pub struct DriverStats {
    /// Logical payments completed (acked).
    pub completed: u64,
    /// Failed completions per [`OpError::label`] — typed error
    /// accounting, exported as the `op_errors` section of the
    /// `BENCH_*.json` artifacts.
    pub op_errors: BTreeMap<String, u64>,
    /// Sum of path lengths (hops) over completed multi-hop payments.
    pub hops_total: u64,
    /// Multi-hop payments completed.
    pub multihop_completed: u64,
    /// Time of first issue (ns).
    pub first_issue: Option<u64>,
    /// Time of last completion (ns).
    pub last_ack: u64,
    /// Latency samples (ns), measured from each job's first issue.
    pub latencies: Histogram,
    /// Latency samples split per [`OpOutput::kind`] label — the source
    /// of the `latency` section in the `BENCH_*.json` artifacts.
    pub latency_by_kind: BTreeMap<String, Histogram>,
}

impl DriverStats {
    fn count_error(&mut self, e: &OpError) {
        *self.op_errors.entry(e.label()).or_insert(0) += 1;
    }

    fn record_latency(&mut self, kind: &'static str, lat_ns: u64) {
        self.latencies.record(lat_ns);
        self.latency_by_kind
            .entry(kind.to_string())
            .or_default()
            .record(lat_ns);
    }
}

/// Bookkeeping for one in-flight operation the driver issued.
struct Flight {
    job: Job,
    /// When this job was FIRST issued (survives retries).
    first_issue: u64,
    /// Logical payments inside the operation (batching).
    count: u32,
}

/// A simulator node: Teechain host + workload driver.
pub struct BenchNode {
    /// The wrapped host (public for setup). It passes the engine's input
    /// hint unless told otherwise: Table 1's unbatched rows pass none
    /// (`more: Some(false)`).
    pub host: HintedHost,
    jobs: VecDeque<Job>,
    /// Failed jobs awaiting their backoff timer: `(job, first_issue)`.
    retry_bucket: VecDeque<(Job, u64)>,
    window: usize,
    inflight: usize,
    batch: Option<BatchState>,
    /// Driver-issued operations awaiting completion, by op sequence.
    flights: HashMap<u64, Flight>,
    route_seq: u64,
    /// When true, every completion the driver takes is appended to
    /// [`BenchNode::completion_log`] (the determinism suite fingerprints
    /// it; off by default to keep 10k-node runs lean).
    pub record_completions: bool,
    /// Recorded completion stream (see
    /// [`BenchNode::record_completions`]).
    pub completion_log: Vec<Completion>,
    /// Enclave admission counters at the start of the current run —
    /// they live in the enclave for its whole lifetime, so per-run
    /// numbers are deltas against this snapshot.
    admit_base: teechain::admit::AdmitStats,
    /// Statistics (public for collection).
    pub stats: DriverStats,
}

impl From<SimHost> for BenchNode {
    fn from(host: SimHost) -> Self {
        BenchNode {
            host: host.into(),
            jobs: VecDeque::new(),
            retry_bucket: VecDeque::new(),
            window: 1,
            inflight: 0,
            batch: None,
            flights: HashMap::new(),
            route_seq: 0,
            record_completions: false,
            completion_log: Vec::new(),
            admit_base: teechain::admit::AdmitStats::default(),
            stats: DriverStats::default(),
        }
    }
}

impl Borrow<SimHost> for BenchNode {
    fn borrow(&self) -> &SimHost {
        &self.host.host
    }
}

impl BorrowMut<SimHost> for BenchNode {
    fn borrow_mut(&mut self) -> &mut SimHost {
        &mut self.host.host
    }
}

impl BenchNode {
    /// Takes the driver's own completions out of the host's stream and
    /// accounts them (stats, window, retries). Every other completion —
    /// a setup operation — stays in the stream for the [`Cluster`] to
    /// resolve.
    fn drain_completions(&mut self, ctx: &mut Ctx<'_>) {
        // No flight, nothing of the driver's in the stream: setup leaves
        // its completions untouched without a scan per event.
        if self.flights.is_empty() {
            return;
        }
        for c in std::mem::take(&mut self.host.host.node.completions) {
            let Some(flight) = self.flights.remove(&c.op.seq) else {
                self.host.host.node.completions.push(c);
                continue;
            };
            if self.record_completions {
                self.completion_log.push(c.clone());
            }
            let kind = c.outcome.as_ref().ok().map(OpOutput::kind);
            match c.outcome {
                Ok(OpOutput::PaymentApplied(Payment { count, .. })) => {
                    self.stats.completed += count as u64;
                    self.stats.last_ack = c.time_ns;
                    self.stats.record_latency(
                        kind.expect("checked Ok"),
                        c.time_ns.saturating_sub(flight.first_issue),
                    );
                    self.inflight = self.inflight.saturating_sub(count as usize);
                }
                Ok(OpOutput::MultihopDelivered(_)) => {
                    self.stats.completed += 1;
                    self.stats.multihop_completed += 1;
                    self.stats.last_ack = c.time_ns;
                    self.stats.record_latency(
                        kind.expect("checked Ok"),
                        c.time_ns.saturating_sub(flight.first_issue),
                    );
                    if let Job::Multihop {
                        paths, next_path, ..
                    } = &flight.job
                    {
                        let idx = next_path.saturating_sub(1).min(paths.len() - 1);
                        self.stats.hops_total += paths[idx].1.len() as u64;
                    }
                    self.inflight = self.inflight.saturating_sub(1);
                }
                Ok(_) => {
                    // A driver flight always resolves to a payment
                    // output; anything else is a harness bug.
                    unreachable!("driver operation resolved to a non-payment output");
                }
                Err(e) => {
                    self.stats.count_error(&e);
                    self.inflight = self.inflight.saturating_sub(flight.count as usize);
                    self.handle_failure(ctx, flight, &e);
                }
            }
        }
    }

    /// Retry policy per typed failure. In-enclave admission absorbs lock
    /// contention (queued, not rejected), so what remains transient is a
    /// remote refusal (multi-hop retries over the next alternative path;
    /// direct payments re-send) and the rare admission push-back: a full
    /// queue or a deadline expiry, both surfaced as `ChannelLocked`.
    /// Permanent rejections drop the job (already counted in
    /// `op_errors`).
    fn handle_failure(&mut self, ctx: &mut Ctx<'_>, flight: Flight, e: &OpError) {
        let transient = match (&flight.job, e) {
            (_, OpError::Remote(_)) => true,
            (_, OpError::Rejected(ProtocolError::ChannelLocked)) => true,
            // Multi-hop lock setup can also fail locally mid-race.
            (Job::Multihop { .. }, OpError::Rejected(_)) => true,
            _ => false,
        };
        if !transient {
            return;
        }
        if flight.count > 1 {
            // A failed merged batch: put the logical payments back,
            // conserving the total (the division remainder goes to the
            // first jobs — the merged message no longer remembers the
            // original per-job split).
            if let Job::Direct { chan, amount } = flight.job {
                let count = flight.count as u64;
                let each = amount / count;
                let remainder = amount % count;
                for k in 0..count {
                    let extra = u64::from(k < remainder);
                    self.jobs.push_front(Job::Direct {
                        chan,
                        amount: each + extra,
                    });
                }
            }
            return;
        }
        self.schedule_retry(ctx, flight.job, flight.first_issue);
    }

    fn schedule_retry(&mut self, ctx: &mut Ctx<'_>, job: Job, first_issue: u64) {
        self.retry_bucket.push_back((job, first_issue));
        // Randomized 100–200 ms backoff (§7.4).
        let delay = ctx.rng().next_range(100_000_000, 200_000_000);
        ctx.set_timer(delay, JOB_RETRY_TOKEN);
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(batch) = &self.batch {
            if !batch.armed {
                let interval = batch.interval_ns;
                self.batch.as_mut().expect("checked").armed = true;
                ctx.set_timer(interval, BATCH_TOKEN);
            }
            return; // Batched mode issues on the batch timer only.
        }
        while self.inflight < self.window {
            let Some(job) = self.jobs.pop_front() else {
                break;
            };
            self.issue(ctx, job, None);
            // Synchronous rejections complete immediately; reclaim their
            // window slots before deciding to issue more.
            self.drain_completions(ctx);
        }
    }

    /// Route ids double as the admission layer's wait-die priority
    /// (lexicographically smaller id = may wait behind a lock holder).
    /// Leading with the big-endian *first-issue* timestamp makes that
    /// priority the payment's age: a retried payment keeps its original
    /// timestamp, so it outranks younger traffic and eventually queues
    /// instead of aborting — classic wait-die without starvation.
    fn next_route_id(&mut self, ctx: &Ctx<'_>, first_issue: u64) -> RouteId {
        self.route_seq += 1;
        let mut id = [0u8; 32];
        id[..8].copy_from_slice(&first_issue.to_be_bytes());
        id[8..12].copy_from_slice(&ctx.self_id().0.to_be_bytes());
        id[12..20].copy_from_slice(&self.route_seq.to_be_bytes());
        RouteId(id)
    }

    /// Issues one job as a correlated operation. `first_issue` carries
    /// the original issue time through retries (None = this is the first
    /// attempt).
    fn issue(&mut self, ctx: &mut Ctx<'_>, job: Job, first_issue: Option<u64>) {
        if self.stats.first_issue.is_none() {
            self.stats.first_issue = Some(ctx.now_ns());
        }
        let first_issue = first_issue.unwrap_or_else(|| ctx.now_ns());
        match job {
            Job::Direct { chan, amount } => {
                ctx.busy(self.host.host.costs.logical_ns);
                let op = self.host.host.node.submit_op(
                    ctx,
                    Command::Pay {
                        id: chan,
                        amount,
                        count: 1,
                    },
                    None,
                );
                self.inflight += 1;
                self.flights.insert(
                    op.seq,
                    Flight {
                        job: Job::Direct { chan, amount },
                        first_issue,
                        count: 1,
                    },
                );
            }
            Job::Multihop {
                paths,
                next_path,
                amount,
            } => {
                ctx.busy(self.host.host.costs.logical_ns);
                let idx = next_path.min(paths.len() - 1);
                let (hops, channels) = paths[idx].clone();
                let route = self.next_route_id(ctx, first_issue);
                let op = self.host.host.node.submit_op(
                    ctx,
                    Command::PayMultihop {
                        route,
                        hops,
                        channels,
                        amount,
                    },
                    None,
                );
                self.inflight += 1;
                self.flights.insert(
                    op.seq,
                    Flight {
                        job: Job::Multihop {
                            paths,
                            next_path: idx + 1,
                            amount,
                        },
                        first_issue,
                        count: 1,
                    },
                );
            }
        }
    }

    fn flush_batch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(batch) = &mut self.batch else {
            return;
        };
        let interval = batch.interval_ns;
        let chan = batch.chan;
        // How many logical payments the client generated this interval:
        // bounded by the per-payment generation cost (the CPU model).
        let capacity = interval
            .checked_div(self.host.host.costs.logical_ns)
            .unwrap_or(u32::MAX as u64);
        let mut count = 0u32;
        let mut amount = 0u64;
        while (count as u64) < capacity {
            match self.jobs.pop_front() {
                Some(Job::Direct { amount: a, .. }) => {
                    count += 1;
                    amount += a;
                }
                Some(other) => {
                    self.jobs.push_front(other);
                    break;
                }
                None => break,
            }
        }
        if count > 0 {
            ctx.busy(self.host.host.costs.logical_ns * count as u64);
            // Average queueing delay inside the batch is interval/2.
            let effective_send = ctx.now_ns().saturating_sub(interval / 2);
            if self.stats.first_issue.is_none() {
                self.stats.first_issue = Some(ctx.now_ns().saturating_sub(interval));
            }
            // Counter throttling (stable storage) is re-dispatched by the
            // node's admission pump at `ready_at` — the merged operation
            // simply stays in flight until the whole batch group-commits.
            let op = self.host.host.node.submit_op(
                ctx,
                Command::Pay {
                    id: chan,
                    amount,
                    count,
                },
                None,
            );
            self.inflight += count as usize;
            self.flights.insert(
                op.seq,
                Flight {
                    job: Job::Direct { chan, amount },
                    first_issue: effective_send,
                    count,
                },
            );
        }
        if !self.jobs.is_empty() {
            ctx.set_timer(interval, BATCH_TOKEN);
        } else if let Some(b) = &mut self.batch {
            b.armed = false;
        }
    }
}

impl SimNode for BenchNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Vec<u8>) {
        self.host.on_message(ctx, from, msg);
        self.drain_completions(ctx);
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            BATCH_TOKEN => self.flush_batch(ctx),
            JOB_RETRY_TOKEN => {
                // FIFO: oldest failed job first, so backoff cannot
                // starve early payments into a pathological tail.
                if let Some((job, first_issue)) = self.retry_bucket.pop_front() {
                    self.issue(ctx, job, Some(first_issue));
                }
            }
            _ => self.host.on_timer(ctx, token),
        }
        self.drain_completions(ctx);
        self.pump(ctx);
    }
}

/// Aggregated results of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Logical payments completed.
    pub completed: u64,
    /// Makespan from first issue to last ack (ns).
    pub duration_ns: u64,
    /// Throughput (payments per second).
    pub throughput: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Average hops per completed multi-hop payment.
    pub avg_hops: f64,
    /// Ops that entered an enclave admission queue instead of erroring
    /// with `ChannelLocked` (cluster-wide, from the enclave counters).
    pub queued: u64,
    /// Inbound messages deferred behind a locked channel.
    pub deferred: u64,
    /// Admission drain batches committed (each = one counter increment
    /// and one WAL record in persistent mode).
    pub batches: u64,
    /// Payments applied through those batches.
    pub batched_payments: u64,
    /// Largest single drain batch.
    pub max_batch: u64,
    /// Batch-size histogram: bucket i counts batches of size in
    /// `[2^i, 2^(i+1))`.
    pub batch_hist: [u64; 16],
    /// Ops carried by an unlocked parallel (temporary) channel instead
    /// of waiting behind the locked one they named.
    pub rerouted: u64,
    /// Deepest per-channel admission queue observed on any node
    /// (enclave-lifetime high-watermark).
    pub queue_depth_hwm: u64,
    /// Deepest deferred-delivery queue observed on any node
    /// (enclave-lifetime high-watermark).
    pub defer_depth_hwm: u64,
    /// Oldest deferred message age seen at drain or expiry, ns
    /// (enclave-lifetime maximum).
    pub defer_age_max_ns: u64,
}

/// A benchmark cluster: a [`Cluster`] whose nodes each carry a workload
/// driver. Setup goes through the cluster (and
/// [`Harness`](teechain::testkit::Harness)) exactly as
/// in the tests; `BenchCluster` adds only the driver: jobs, window,
/// batching and the measured [`BenchCluster::run`].
pub struct BenchCluster(pub Cluster<BenchNode>);

impl Deref for BenchCluster {
    type Target = Cluster<BenchNode>;

    fn deref(&self) -> &Cluster<BenchNode> {
        &self.0
    }
}

impl DerefMut for BenchCluster {
    fn deref_mut(&mut self) -> &mut Cluster<BenchNode> {
        &mut self.0
    }
}

impl BenchCluster {
    /// Builds the cluster (attested, full-mesh directories).
    pub fn new(cfg: ClusterConfig) -> BenchCluster {
        BenchCluster(Cluster::build(cfg, None))
    }

    /// Quiescence resolution: typed-timeout every pending operation and
    /// route the drivers' own through their accounting.
    fn resolve_dead_ops(&mut self) {
        let now = self.sim.now_ns();
        for i in 0..self.sim.len() {
            let id = NodeId(i as u32);
            if self.node_mut(i).resolve_all_dead(now) > 0 {
                self.sim.call(id, |node, ctx| node.drain_completions(ctx));
            }
        }
    }

    /// Assigns jobs and window to a node (before `run`).
    pub fn load(&mut self, i: usize, jobs: Vec<Job>, window: usize) {
        let node = self.sim.node_mut(NodeId(i as u32));
        node.jobs = jobs.into();
        node.window = window;
    }

    /// Appends a single job to a node (window defaults to 50).
    pub fn load_one(&mut self, i: usize, job: Job) {
        let node = self.sim.node_mut(NodeId(i as u32));
        node.jobs.push_back(job);
        node.window = node.window.max(50);
    }

    /// Sets a node's sliding-window size.
    pub fn set_window(&mut self, i: usize, window: usize) {
        self.sim.node_mut(NodeId(i as u32)).window = window;
    }

    /// Enables 100 ms client-side batching on node `i` over `chan`.
    pub fn enable_batching(&mut self, i: usize, chan: ChannelId, interval_ns: u64) {
        let node = self.sim.node_mut(NodeId(i as u32));
        node.batch = Some(BatchState {
            interval_ns,
            chan,
            armed: false,
        });
    }

    /// Enables (or disables) completion-stream recording on every node —
    /// the determinism suite fingerprints [`BenchNode::completion_log`].
    pub fn set_record_completions(&mut self, on: bool) {
        for i in 0..self.sim.len() {
            let node = self.sim.node_mut(NodeId(i as u32));
            node.record_completions = on;
            node.completion_log.clear();
        }
    }

    /// The cluster-wide completion history: what the drivers recorded
    /// since [`BenchCluster::set_record_completions`] plus every other
    /// completion the hosts hold (setup operations since the last run),
    /// merged deterministically by `(time, node, seq)`.
    pub fn completion_log(&self) -> Vec<Completion> {
        let streams: Vec<&[Completion]> = (0..self.sim.len())
            .map(|i| self.sim.node(NodeId(i as u32)))
            .flat_map(|n| [n.completion_log.as_slice(), &n.host.host.node.completions])
            .collect();
        teechain::ops::merge_completions(&streams)
    }

    /// Kicks all drivers and runs until quiescent (or the event cap).
    /// Returns aggregated statistics.
    pub fn run(&mut self, max_events: u64) -> RunStats {
        // Clear setup noise from the stats and completion bookkeeping,
        // and snapshot the enclave admission counters (they are
        // enclave-lifetime; per-run numbers are deltas).
        for i in 0..self.sim.len() {
            let node = self.sim.node_mut(NodeId(i as u32));
            node.stats = DriverStats::default();
            node.host.host.node.completions.clear();
            node.admit_base = node
                .host
                .host
                .node
                .enclave
                .program()
                .map(|p| p.admit_stats().clone())
                .unwrap_or_default();
        }
        for i in 0..self.sim.len() {
            self.sim.call(NodeId(i as u32), |node, ctx| node.pump(ctx));
        }
        self.sim.run_to_idle(max_events);
        // This measurement run is over — whether the queue drained or
        // the caller's event budget expired. Operations still pending
        // are dead *for this run's accounting*: turn them into counted
        // timeouts instead of silent losses. (A run is never resumed:
        // `repartition` requires a drained queue and a fresh `run` resets
        // the stats and completion bookkeeping.)
        self.resolve_dead_ops();
        self.collect()
    }

    /// Aggregates stats across nodes.
    pub fn collect(&mut self) -> RunStats {
        let mut completed = 0;
        let mut first = u64::MAX;
        let mut last = 0;
        let mut lat = Histogram::new();
        let mut hops_total = 0;
        let mut mh = 0;
        let mut queued = 0;
        let mut deferred = 0;
        let mut batches = 0;
        let mut batched_payments = 0;
        let mut max_batch = 0u64;
        let mut batch_hist = [0u64; 16];
        let mut rerouted = 0;
        let mut queue_depth_hwm = 0u64;
        let mut defer_depth_hwm = 0u64;
        let mut defer_age_max_ns = 0u64;
        for i in 0..self.sim.len() {
            let node = self.sim.node_mut(NodeId(i as u32));
            completed += node.stats.completed;
            if let Some(f) = node.stats.first_issue {
                first = first.min(f);
            }
            last = last.max(node.stats.last_ack);
            hops_total += node.stats.hops_total;
            mh += node.stats.multihop_completed;
            lat.merge(&node.stats.latencies);
            if let Some(a) = node
                .host
                .host
                .node
                .enclave
                .program()
                .map(|p| p.admit_stats())
            {
                let base = &node.admit_base;
                queued += a.enqueued - base.enqueued;
                deferred += a.deferred - base.deferred;
                batches += a.batches - base.batches;
                batched_payments += a.batched_payments - base.batched_payments;
                rerouted += a.rerouted - base.rerouted;
                // Lifetime maxima (a per-run max is not recoverable from
                // a snapshot); fine — runs only ever grow them.
                max_batch = max_batch.max(a.max_batch);
                queue_depth_hwm = queue_depth_hwm.max(a.queue_depth_hwm);
                defer_depth_hwm = defer_depth_hwm.max(a.defer_depth_hwm);
                defer_age_max_ns = defer_age_max_ns.max(a.defer_age_max_ns);
                for ((acc, n), b) in batch_hist
                    .iter_mut()
                    .zip(a.batch_hist.iter())
                    .zip(base.batch_hist.iter())
                {
                    *acc += n - b;
                }
            }
        }
        let duration_ns = last.saturating_sub(if first == u64::MAX { 0 } else { first });
        let throughput = if duration_ns > 0 {
            completed as f64 / (duration_ns as f64 / 1e9)
        } else {
            0.0
        };
        RunStats {
            completed,
            duration_ns,
            throughput,
            mean_ms: lat.mean() / 1e6,
            p50_ms: lat.p50() as f64 / 1e6,
            p99_ms: lat.p99() as f64 / 1e6,
            avg_hops: if mh > 0 {
                hops_total as f64 / mh as f64
            } else {
                0.0
            },
            queued,
            deferred,
            batches,
            batched_payments,
            max_batch,
            batch_hist,
            rerouted,
            queue_depth_hwm,
            defer_depth_hwm,
            defer_age_max_ns,
        }
    }

    /// Aggregated typed-failure counts (per [`OpError::label`]) across
    /// all drivers since the last [`BenchCluster::run`] — the source of
    /// the `op_errors` section in the `BENCH_*.json` artifacts.
    pub fn op_errors(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for i in 0..self.sim.len() {
            for (label, n) in &self.sim.node(NodeId(i as u32)).stats.op_errors {
                *out.entry(label.clone()).or_insert(0) += n;
            }
        }
        out
    }

    /// Per-[`OpOutput::kind`] latency histograms merged across all
    /// drivers since the last [`BenchCluster::run`] — the `latency`
    /// section of the `BENCH_*.json` artifacts.
    pub fn latency_by_kind(&self) -> BTreeMap<String, Histogram> {
        let mut out: BTreeMap<String, Histogram> = BTreeMap::new();
        for i in 0..self.sim.len() {
            for (kind, h) in &self.sim.node(NodeId(i as u32)).stats.latency_by_kind {
                out.entry(kind.clone()).or_default().merge(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain::driver::CostModel;
    use teechain::testkit::{ClusterNode, Harness};
    use teechain::OpId;

    /// Channels on a 3-node line, two pays, an overspend and a 2-hop
    /// multihop, as the `(OpId, outcome)` history.
    fn line_history<N: ClusterNode>(c: &mut Cluster<N>) -> Vec<(OpId, Result<OpOutput, OpError>)> {
        let ab = c.standard_channel(0, 1, "agree-ab", 1_000, 1);
        let bc = c.standard_channel(1, 2, "agree-bc", 1_000, 1);
        c.pay(0, ab, 100).expect("pay 0->1");
        c.pay(1, bc, 200).expect("pay 1->2");
        c.pay(0, ab, 5_000).expect_err("overspend is refused");
        c.pay_multihop(&[0, 1, 2], &[ab, bc], 50, "agree-route")
            .expect("multihop 0->1->2");
        let log = c.completion_log();
        log.into_iter()
            .map(|done| (done.op, done.outcome))
            .collect()
    }

    /// The bench driver's cluster is a `testkit` cluster: one seed gives
    /// the same identities and the same operation history.
    #[test]
    fn bench_cluster_agrees_with_testkit() {
        let cfg = ClusterConfig {
            n: 3,
            costs: CostModel::default(),
            seed: 11,
            ..ClusterConfig::default()
        };
        let mut plain = Cluster::new(cfg.clone());
        let mut bench = BenchCluster::new(cfg);
        assert_eq!(bench.ids, plain.ids);
        assert_eq!(line_history(&mut bench.0), line_history(&mut plain));
    }
}
