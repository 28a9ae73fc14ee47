//! `teechain-live`: the protocol on real threads, real sockets and real
//! clocks.
//!
//! Everywhere else in this crate the nodes run inside the discrete-event
//! simulator. [`LiveCluster`] runs the *unmodified* state machines —
//! [`TeechainNode`], its enclave and its operation tracker — as an actual
//! concurrent system on the run-queue scheduler (the internal
//! `live_sched` module): every node shares a fixed pool of worker
//! threads, and the non-blocking reactor transport delivers frames over
//! localhost TCP straight into node inboxes. Total thread count is
//! constant in cluster size, which is what makes 1,000+ real nodes per
//! box possible.
//!
//! # Driving a live cluster
//!
//! `&LiveCluster` implements [`Harness`], so every setup step and
//! operation — sessions, channels, deposits, payments, multi-hop,
//! settlement, swaps — is the same choreography the simulated
//! [`Cluster`](crate::testkit::Cluster) runs. A submission is one
//! request/reply round trip into the node's inbox (`LiveReq::Submit`);
//! resolution waits on the node's completion signal, which the worker
//! fires right after it publishes, and declares the operation dead after
//! [`DEFAULT_OP_TIMEOUT`]. Receivers stay `&self`, so many threads can
//! drive one cluster: bind `let mut net = &cluster;` to call the trait's
//! methods.
//!
//! # How a node runs live
//!
//! A node's inputs — inbound frames, fired timers and harness requests —
//! enter one inbox and are handled one at a time. Handlers are executed
//! through [`teechain_net::live::drive`], which hands the node the same
//! [`Ctx`](teechain_net::Ctx) surface the engines do but returns the
//! emitted actions; the scheduler then performs them for real — sends go
//! out on the transport, timers land in one cluster-wide heap keyed by
//! monotonic wall-clock nanoseconds, and CPU `Busy` accounting is dropped
//! (live handlers burn real CPU). Time is nanoseconds since the cluster
//! epoch, so in-protocol deadlines and retry timers behave exactly as in
//! simulation, just against a real clock.
//!
//! # What stays comparable with the simulator
//!
//! A [`LiveCluster`] built from a [`LiveConfig`] derives its trust root,
//! device identities and enclave seeds with the same formulas as
//! [`testkit::Cluster`](crate::testkit::Cluster), so enclave identity
//! keys, channel ids and transaction ids are bit-identical across
//! substrates, and operations get the same `(node, seq)` ids when
//! submitted in the same per-node order. Completion *times* differ (real
//! clocks) and cross-node interleavings race, but per-operation outcomes
//! are substrate-independent — the `live_equivalence` suite replays one
//! seeded scenario on the engine at one and at four shards and on the
//! scheduler at several worker counts and asserts identical outcome sets.
//!
//! # What does not carry over
//!
//! No global determinism, no simulated link latency/jitter, no
//! single-server CPU model, and no crash fault injection (use the
//! simulator for those studies). The live path is for running the
//! protocol at hardware speed — `cargo run --release -p teechain-bench
//! --bin live` measures it.

use crate::live_sched::{Published, Sched};
use crate::node::{SharedChain, TeechainNode};
use crate::ops::{Completion, OpError, OpId, OpOutput, Payment, Pending, Request};
use crate::testkit::{build_wired_nodes, Harness};
use crate::types::ChannelId;
use crate::DurabilityBackend;
use parking_lot::Mutex;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use teechain_blockchain::Chain;
use teechain_crypto::schnorr::PublicKey;
use teechain_net::NodeId;
use teechain_persist::SharedStore;

/// Configuration for a [`LiveCluster`].
#[derive(Clone)]
pub struct LiveConfig {
    /// Number of nodes. They all run on `workers` + 2 threads
    /// ([`LiveCluster::runtime_threads`]), whatever `n` is.
    pub n: usize,
    /// Seed for identities and RNG lanes. The same seed produces the
    /// same enclave identities as a [`crate::testkit::Cluster`], which is
    /// what makes sim-vs-live outcome comparison meaningful.
    pub seed: u64,
    /// Fault-tolerance backend applied to every node (§6). The live
    /// runtime supports [`DurabilityBackend::None`] and
    /// [`DurabilityBackend::Persist`]; committee-chain replication needs
    /// backup-node wiring the live harness does not build yet —
    /// [`LiveCluster::over_reactor`] rejects it rather than silently
    /// running replication-mode enclaves with an empty committee.
    pub durability: DurabilityBackend,
    /// Enable every node's flight recorder from launch. Timestamps are
    /// wall-clock ns since the cluster epoch; drain the merged stream
    /// with [`LiveCluster::drain_trace`]. Recording only happens when
    /// the `trace-record` feature is compiled in.
    pub tracing: bool,
    /// Worker-thread pool size of the scheduler; `0` resolves to the
    /// host's available parallelism.
    pub workers: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            n: 2,
            seed: 7,
            durability: DurabilityBackend::None,
            tracing: false,
            workers: 0,
        }
    }
}

/// How long [`Harness::resolve`] (and so every blocking convenience)
/// waits for a live completion before declaring the operation dead.
/// Generous: live CI machines stall unpredictably.
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Control-plane requests the harness sends into a node's inbox.
pub(crate) enum LiveReq {
    /// Submit `req` as a correlated operation.
    Submit {
        req: Request,
        deadline_ns: Option<u64>,
        reply: Sender<OpId>,
    },
    /// Declare a still-pending operation dead (harness-side wait
    /// timeout): its typed `Timeout` completion is recorded like any
    /// other, keeping the stream exactly-once.
    ResolveDead { op: OpId, reply: Sender<bool> },
    /// Snapshot the node's metrics registry (plus the node's own
    /// transport counters) — the live analogue of `Cluster::observe`.
    Observe {
        reply: Sender<teechain_trace::Registry>,
    },
    /// Drain the node's flight-recorder ring.
    DrainTrace {
        reply: Sender<Vec<teechain_trace::TraceEvent>>,
    },
}

/// A node's unified input: network bytes, a fired wall-clock timer (from
/// the scheduler's shared timer heap), or a control request.
pub(crate) enum Input {
    Net(NodeId, Vec<u8>),
    TimerFired(u64),
    Req(LiveReq),
}

/// A cluster of Teechain nodes running live on a fixed worker pool,
/// exchanging real messages over localhost TCP and sharing one
/// (mutex-protected) simulated blockchain. Drive it through [`Harness`],
/// implemented for `&LiveCluster`.
///
/// ```
/// use teechain::live::{LiveCluster, LiveConfig};
/// use teechain::testkit::Harness;
///
/// let cluster = LiveCluster::over_reactor(LiveConfig { n: 2, ..Default::default() })
///     .expect("bind localhost listeners");
/// let mut net = &cluster;
/// let chan = net.standard_channel(0, 1, "demo", 1_000, 1);
/// let receipt = net.pay(0, chan, 250).expect("a real round trip over TCP");
/// assert_eq!(receipt.amount, 250);
/// cluster.shutdown();
/// ```
pub struct LiveCluster {
    /// Enclave identity of each node.
    pub ids: Vec<PublicKey>,
    /// The shared blockchain.
    pub chain: SharedChain,
    /// The shared *alternate* blockchain (cross-chain swap HTLCs land
    /// here; see [`crate::swap`]).
    pub chain2: SharedChain,
    /// Durable stores per node (persistent mode), harness-owned.
    pub stores: Vec<Option<SharedStore>>,
    completions: Vec<Arc<Published>>,
    epoch: Instant,
    sched: Sched,
}

impl LiveCluster {
    /// Builds a live cluster on the run-queue scheduler over the
    /// non-blocking reactor transport: `cfg.workers` worker threads (or
    /// the host parallelism when `0`) plus one poller and one timer
    /// thread, regardless of `cfg.n`. Identities are pre-exchanged,
    /// exactly like the simulated harnesses do.
    ///
    /// # Panics
    ///
    /// Panics on [`DurabilityBackend::Replication`] — the live harness
    /// does not build or chain backup nodes, and running replication-mode
    /// enclaves with an empty committee would be silent zero fault
    /// tolerance (use the simulated [`crate::testkit::Cluster`] for
    /// replication studies).
    pub fn over_reactor(cfg: LiveConfig) -> std::io::Result<LiveCluster> {
        assert!(
            cfg.durability.auto_backups() == 0,
            "LiveCluster does not support committee-chain replication; \
             use DurabilityBackend::None or Persist"
        );
        let chain: SharedChain = Arc::new(Mutex::new(Chain::new()));
        let chain2: SharedChain = Arc::new(Mutex::new(Chain::new()));
        // Nodes, identities and directories are built by the exact code
        // the simulated harness uses — before any thread exists.
        let (_root, nodes, stores, ids) =
            build_wired_nodes(cfg.n, cfg.seed, cfg.durability, &chain, &chain2, None);
        // One epoch for every node: in-protocol absolute times agree.
        let epoch = Instant::now();
        let sched = Sched::launch(&cfg, nodes, epoch)?;
        let completions = sched.completion_handles();
        Ok(LiveCluster {
            ids,
            chain,
            chain2,
            stores,
            completions,
            epoch,
            sched,
        })
    }

    /// Total OS threads the runtime itself owns: scheduler workers plus
    /// the reactor poller and the timer thread — a constant independent
    /// of `n`, the property the 1,000-node bench rows record.
    pub fn runtime_threads(&self) -> usize {
        self.sched.worker_count + 2
    }

    /// Nanoseconds since the cluster epoch — the live analogue of
    /// simulated time (all in-protocol timestamps use this clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// True if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    // ---- Completion streams ----

    /// Node `i`'s published completion stream so far, in resolution
    /// order.
    pub fn completions(&self, i: usize) -> Vec<Completion> {
        self.completions[i].snapshot()
    }

    /// Drains node `i`'s published completion stream, returning
    /// everything published so far. Sustained-traffic drivers (the live
    /// bench) consume completions this way so a long-running cluster
    /// holds memory proportional to in-flight work, not uptime. Drained
    /// completions are gone from [`LiveCluster::completions`],
    /// [`LiveCluster::completion_log`] and [`Harness::resolve`] — only
    /// drain operations you correlate yourself.
    pub fn take_completions(&self, i: usize) -> Vec<Completion> {
        self.completions[i].take()
    }

    /// The cluster-wide completion history, merged by
    /// `(time, node, seq)` like the simulated harnesses do. Times are
    /// real, so the interleaving is not deterministic — compare outcome
    /// *sets*, not orders, across substrates.
    pub fn completion_log(&self) -> Vec<Completion> {
        let streams: Vec<Vec<Completion>> = (0..self.len()).map(|i| self.completions(i)).collect();
        let views: Vec<&[Completion]> = streams.iter().map(|s| s.as_slice()).collect();
        crate::ops::merge_completions(&views)
    }

    // ---- Forwarders to the `Harness` choreography ----

    /// [`Harness::standard_channel`], callable on a shared
    /// `&LiveCluster` without importing the trait.
    pub fn standard_channel(
        &self,
        a: usize,
        b: usize,
        label: &str,
        value: u64,
        m: u8,
    ) -> ChannelId {
        let mut net = self;
        Harness::standard_channel(&mut net, a, b, label, value, m)
    }

    /// Submits a payment over `chan` from node `from`; returns the
    /// pending token (resolve with [`Harness::wait`]).
    pub fn submit_pay(&self, from: usize, chan: ChannelId, amount: u64) -> Pending<Payment> {
        let mut net = self;
        net.handle(from).pay(chan, amount)
    }

    /// On-chain balance of a settlement key.
    pub fn chain_balance(&self, pk: &PublicKey) -> u64 {
        self.chain.lock().balance_p2pk(pk)
    }

    // ---- Observability (the `teechain-trace` surface) ----

    /// Snapshots the cluster-wide metrics registry — every node's
    /// counters, admission totals, queue high-watermarks and its
    /// transport counters, merged. Each node answers through its own
    /// inbox, so the snapshot is per-node consistent (not a global
    /// instant).
    pub fn observe(&self) -> teechain_trace::Snapshot {
        let mut reg = teechain_trace::Registry::new();
        for i in 0..self.len() {
            reg.merge(&self.ask(i, |reply| LiveReq::Observe { reply }));
        }
        reg.snapshot()
    }

    /// Drains every node's flight ring into one merged stream ordered by
    /// `(ts_ns, node)`. Timestamps are wall-clock ns since the cluster
    /// epoch, so the order is real-time (and, unlike sim traces, not
    /// reproducible across runs).
    pub fn drain_trace(&self) -> Vec<teechain_trace::TraceEvent> {
        let streams: Vec<Vec<teechain_trace::TraceEvent>> = (0..self.len())
            .map(|i| self.ask(i, |reply| LiveReq::DrainTrace { reply }))
            .collect();
        teechain_trace::merge_events(streams)
    }

    /// Sends node `i` the request `make` builds around a reply channel
    /// and waits for the node's answer.
    fn ask<T>(&self, i: usize, make: impl FnOnce(Sender<T>) -> LiveReq) -> T {
        let (reply, answer) = mpsc::channel();
        self.sched.enqueue(i, Input::Req(make(reply)));
        answer.recv().expect("node replies")
    }

    /// Stops the scheduler's workers, timer and poller, joins all
    /// threads and returns the final nodes (for balance and state
    /// assertions).
    pub fn shutdown(self) -> Vec<TeechainNode> {
        self.sched.shutdown()
    }
}

impl Harness for &LiveCluster {
    fn ids(&self) -> &[PublicKey] {
        &self.ids
    }

    /// Deadlines are absolute ns on the cluster clock
    /// ([`LiveCluster::now_ns`]), enforced by the node's own timers.
    fn submit_request(&mut self, i: usize, req: Request, deadline_ns: Option<u64>) -> OpId {
        self.ask(i, |reply| LiveReq::Submit {
            req,
            deadline_ns,
            reply,
        })
    }

    /// Waits on the node's completion signal until the completion is
    /// published or [`DEFAULT_OP_TIMEOUT`] passes; then the operation is
    /// declared dead on its node and the typed [`OpError::Timeout`] is
    /// recorded — the live analogue of the simulator's quiescence
    /// resolution.
    fn resolve(&mut self, op: OpId) -> Result<OpOutput, OpError> {
        let published = &self.completions[op.node as usize];
        if let Some(outcome) = published.wait(op, Instant::now() + DEFAULT_OP_TIMEOUT) {
            return outcome;
        }
        self.ask(op.node as usize, |reply| LiveReq::ResolveDead { op, reply });
        // Either the node just recorded the timeout completion, or the
        // real one landed in the race window — read back whichever won.
        published.outcome(op).unwrap_or(Err(OpError::Timeout {
            at_ns: self.now_ns(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProtocolError;

    #[test]
    fn live_payment_on_one_worker() {
        let net = LiveCluster::over_reactor(LiveConfig {
            n: 2,
            workers: 1,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        let mut h = &net;
        let chan = h.standard_channel(0, 1, "live-unit", 1_000, 1);
        let receipt = h.pay(0, chan, 250).expect("payment completes");
        assert_eq!(receipt.amount, 250);
        // Typed local rejection: overspending the channel balance.
        let err = h.pay(0, chan, 10_000).expect_err("overspend refused");
        assert_eq!(err, OpError::Rejected(ProtocolError::InsufficientBalance));
        let nodes = net.shutdown();
        let c = nodes[0]
            .enclave
            .program()
            .and_then(|p| p.channel(&chan))
            .expect("channel exists");
        assert_eq!((c.my_bal, c.remote_bal), (750, 250));
    }

    #[test]
    fn live_identities_match_simulated_cluster() {
        let live = LiveCluster::over_reactor(LiveConfig {
            n: 3,
            seed: 42,
            workers: 4,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        let sim = crate::testkit::Cluster::new(crate::testkit::ClusterConfig {
            n: 3,
            seed: 42,
            ..Default::default()
        });
        assert_eq!(live.ids, sim.ids);
        live.shutdown();
    }

    /// Four resolvers share one cluster, each building and paying over its
    /// own channel, with two workers publishing. A wake-up lost between a
    /// resolver's look at the stream and its park would stall that
    /// operation for the whole [`DEFAULT_OP_TIMEOUT`]; the run takes well
    /// under a second, so a watchdog below the timeout catches it.
    #[test]
    fn concurrent_resolvers_lose_no_wake_up() {
        const THREADS: usize = 4;
        const PAYMENTS: u64 = 200;
        let net = Arc::new(
            LiveCluster::over_reactor(LiveConfig {
                n: 2 * THREADS,
                workers: 2,
                ..LiveConfig::default()
            })
            .expect("bind reactor listener"),
        );
        let (done_tx, done_rx) = mpsc::channel();
        let resolvers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (net, done_tx) = (net.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    let (payer, payee) = (2 * t, 2 * t + 1);
                    let chan =
                        net.standard_channel(payer, payee, &format!("wake-{t}"), 1_000_000, 1);
                    let mut h = &*net;
                    for amount in 1..=PAYMENTS {
                        let pending = net.submit_pay(payer, chan, amount);
                        let op = pending.op;
                        let receipt = h.wait(pending).expect("payment resolves Ok");
                        assert_eq!(receipt.amount, amount);
                        done_tx.send(op).expect("test thread alive");
                    }
                    chan
                })
            })
            .collect();
        drop(done_tx);
        let deadline = Instant::now() + DEFAULT_OP_TIMEOUT / 2;
        let mut ops = Vec::new();
        while ops.len() < THREADS * PAYMENTS as usize {
            let left = deadline.saturating_duration_since(Instant::now());
            match done_rx.recv_timeout(left) {
                Ok(op) => ops.push(op),
                Err(e) => panic!("{} payments resolved: {e}", ops.len()),
            }
        }
        let chans: Vec<ChannelId> = resolvers
            .into_iter()
            .map(|r| r.join().expect("resolver thread"))
            .collect();
        // Each payment completed exactly once.
        let log = net.completion_log();
        for op in &ops {
            assert_eq!(log.iter().filter(|c| c.op == *op).count(), 1, "{op:?}");
        }
        // An op already published resolves without parking.
        let mut h = &*net;
        let again = Instant::now();
        assert!(h.resolve(ops[0]).is_ok());
        assert!(again.elapsed() < Duration::from_secs(1));
        let net = Arc::into_inner(net).expect("resolvers joined");
        let nodes = net.shutdown();
        let paid = PAYMENTS * (PAYMENTS + 1) / 2;
        for (t, chan) in chans.iter().enumerate() {
            let c = nodes[2 * t]
                .enclave
                .program()
                .and_then(|p| p.channel(chan))
                .expect("channel exists");
            assert_eq!((c.my_bal, c.remote_bal), (1_000_000 - paid, paid));
        }
    }

    #[test]
    fn wait_timeout_records_typed_completion_exactly_once() {
        let net = LiveCluster::over_reactor(LiveConfig {
            n: 2,
            workers: 4,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener");
        // A session to a peer that never answers cannot be created here
        // (all peers answer), so use an operation that waits on a
        // nonexistent response: pay on an unknown channel is rejected
        // synchronously — instead park an op with a 1 ns deadline.
        let mut h = &net;
        let session = crate::Command::StartSession { remote: net.ids[1] };
        // Already in the past: dies on the shared timer heap.
        let op = h.submit_request(0, session.into(), Some(1));
        match h.resolve(op) {
            Err(OpError::Timeout { .. }) => {}
            // The handshake can legitimately win the race on a fast
            // machine: the deadline timer and the response arrive through
            // the same inbox.
            Ok(_) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
        let stream = net.completions(0);
        assert_eq!(
            stream.iter().filter(|c| c.op == op).count(),
            1,
            "exactly one completion"
        );
        net.shutdown();
    }
}
