//! The cluster harness: a cluster of Teechain nodes on the simulated
//! network with a shared simulated blockchain, and the [`Harness`] trait
//! that drives any cluster — simulated or live — through one protocol
//! choreography.
//!
//! Used by the crate's own tests, the workspace integration tests, the
//! examples and the benchmark driver (which hosts its own node type in a
//! [`Cluster`]) — it is the "public deployment API" of the reproduction.
//!
//! # The operation model
//!
//! Every interaction goes through the correlated-operation layer
//! ([`crate::ops`]): submitting a [`Request`] yields an [`OpId`], and the
//! protocol delivers exactly one terminal [`Completion`] — a typed
//! success payload or a typed error (including remote rejections and
//! timeouts). Callers never touch `HostEvent`.
//!
//! A harness supplies three methods — its nodes' identities, submit a
//! request, resolve an operation — and [`Harness`] provides the rest
//! once: sessions, channel setup, deposits, payments, multi-hop,
//! settlement and swaps. [`Cluster`] and `&`[`LiveCluster`] implement
//! it, so one scenario body runs on every substrate. Three altitudes, pick
//! per call site:
//!
//! * [`Harness::handle`] → [`NodeHandle`] typed methods returning
//!   [`Pending<T>`] tokens, resolved with [`Harness::wait`] — the
//!   documented application API.
//! * [`Harness::op`] / [`Harness::exec`] — submit any raw request and
//!   block until its typed outcome (`exec` panics on failure; it is the
//!   thin `.expect` over the fallible path).
//! * [`Harness::submit_request`] + [`Harness::wait`] — split submission
//!   from resolution to drive several operations concurrently.
//!
//! [`LiveCluster`]: crate::live::LiveCluster

use crate::driver::{CostModel, SimHost};
use crate::durability::DurabilityBackend;
use crate::enclave::{Command, EnclaveConfig};
use crate::node::{SharedChain, TeechainNode};
use crate::ops::{
    Completion, Delivered, OpError, OpId, OpOutput, OpResult, Payment, Pending, Recovery, Request,
    Settlement,
};
use crate::swap::SwapOutcome;
use crate::types::{ChannelId, Deposit, RouteId, SwapId};
use parking_lot::Mutex;
use std::borrow::{Borrow, BorrowMut};
use std::sync::Arc;
use teechain_blockchain::{Chain, OutPoint};
use teechain_crypto::schnorr::PublicKey;
use teechain_net::live::drive_input;
use teechain_net::{AnyEngine, Ctx, EngineKind, LinkSpec, NodeAction, NodeId, SimNode};
use teechain_persist::{PersistentStore, SharedStore};
use teechain_tee::TrustRoot;
use teechain_util::rng::Xoshiro256;

/// Configuration for a [`Cluster`].
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of nodes. Under [`DurabilityBackend::Replication`] this
    /// counts *primaries*; `n * backups` extra backup nodes are appended
    /// and chained automatically.
    pub n: usize,
    /// CPU cost model (use [`CostModel::free`] for functional tests).
    pub costs: CostModel,
    /// Default link between nodes.
    pub default_link: LinkSpec,
    /// Fault-tolerance backend applied to every node (§6).
    pub durability: DurabilityBackend,
    /// Simulation seed.
    pub seed: u64,
    /// How many shards the engine hosting the cluster runs at. Defaults
    /// to the `TEECHAIN_ENGINE` / `TEECHAIN_SHARDS` environment (one
    /// shard when unset), which is how CI re-runs whole suites at
    /// several shard counts without code changes.
    pub engine: EngineKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n: 2,
            costs: CostModel::free(),
            default_link: LinkSpec::ideal(),
            durability: DurabilityBackend::None,
            seed: 7,
            engine: EngineKind::from_env(),
        }
    }
}

/// Builds `total` nodes with identities exchanged and peer directories
/// registered — the one place every harness mints its nodes: the
/// simulated [`Cluster`] (with or without the bench driver on top) and
/// the live cluster ([`crate::live::LiveCluster`]). Keeping this in one
/// place is what makes outcome comparison across harnesses meaningful:
/// any drift in device ids, enclave seeds, trace node ids or wiring would
/// silently diverge identities, channel ids and txids. `peers` limits the
/// directories to those pairs (both directions); `None` registers the
/// full mesh. Persistent-mode nodes get a harness-owned in-memory store
/// (returned alongside, like a disk that outlives the node).
pub(crate) fn build_wired_nodes(
    total: usize,
    seed: u64,
    durability: DurabilityBackend,
    chain: &SharedChain,
    chain2: &SharedChain,
    peers: Option<&[(usize, usize)]>,
) -> (
    TrustRoot,
    Vec<TeechainNode>,
    Vec<Option<SharedStore>>,
    Vec<PublicKey>,
) {
    let root = TrustRoot::new(seed ^ 0x7ee);
    let measurement = TeechainNode::measurement();
    let mut nodes = Vec::with_capacity(total);
    let mut stores: Vec<Option<SharedStore>> = Vec::with_capacity(total);
    for i in 0..total {
        let device = root.issue_device(1000 + i as u64);
        let enclave_cfg = EnclaveConfig {
            trust_root: root.public_key(),
            measurement,
            durability,
        };
        let mut node = TeechainNode::new(
            device,
            enclave_cfg,
            seed.wrapping_mul(0x9E3779B9).wrapping_add(i as u64),
            chain.clone(),
        );
        node.attach_alt_chain(chain2.clone());
        if durability.is_persist() {
            let store = PersistentStore::in_memory().into_shared();
            node.attach_store(store.clone());
            stores.push(Some(store));
        } else {
            stores.push(None);
        }
        node.tracer.set_node(i as u32);
        nodes.push(node);
    }
    let ids: Vec<PublicKey> = nodes.iter_mut().map(|n| n.identity(0)).collect();
    let mut register = |i: usize, j: usize| nodes[i].register_peer(ids[j], NodeId(j as u32));
    match peers {
        None => {
            for i in 0..total {
                for j in (0..total).filter(|&j| j != i) {
                    register(i, j);
                }
            }
        }
        Some(edges) => {
            for &(i, j) in edges {
                register(i, j);
                register(j, i);
            }
        }
    }
    (root, nodes, stores, ids)
}

/// A simulator node a [`Cluster`] can host: built around a [`SimHost`]
/// and lending it back. [`SimHost`] itself is one; the bench driver's
/// node, a host plus a workload generator, is another.
pub trait ClusterNode: SimNode + Send + From<SimHost> + BorrowMut<SimHost> {}

impl<N: SimNode + Send + From<SimHost> + BorrowMut<SimHost>> ClusterNode for N {}

/// A [`SimHost`] whose host passes its own input hint
/// ([`Ctx::more_messages`]) with every message instead of the engine's: a
/// host that lies, for tests holding the enclave to "a wrong hint only
/// delays what it owes", or one that holds a node's acks or chain updates
/// owed past its input. With `more` unset it passes the engine's.
pub struct HintedHost {
    /// The wrapped host.
    pub host: SimHost,
    /// The hint passed with every message; `None` passes the engine's.
    pub more: Option<bool>,
}

impl From<SimHost> for HintedHost {
    fn from(host: SimHost) -> Self {
        HintedHost { host, more: None }
    }
}

impl Borrow<SimHost> for HintedHost {
    fn borrow(&self) -> &SimHost {
        &self.host
    }
}

impl BorrowMut<SimHost> for HintedHost {
    fn borrow_mut(&mut self) -> &mut SimHost {
        &mut self.host
    }
}

impl SimNode for HintedHost {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Vec<u8>) {
        let Some(more) = self.more else {
            return self.host.on_message(ctx, from, msg);
        };
        let (id, now) = (ctx.self_id(), ctx.now_ns());
        let ((), actions) = drive_input(&mut self.host, id, now, more, ctx.rng(), |h, c| {
            h.on_message(c, from, msg)
        });
        // In order, as the engine would have applied them.
        for action in actions {
            match action {
                NodeAction::Send { to, msg } => ctx.send(to, msg),
                NodeAction::Timer { delay_ns, token } => ctx.set_timer(delay_ns, token),
                NodeAction::Busy { ns } => ctx.busy(ns),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.host.on_timer(ctx, token);
    }
}

/// A running cluster of Teechain nodes on the simulated network, each
/// hosted as an `N` (a plain [`SimHost`] unless a driver wraps it).
pub struct Cluster<N = SimHost> {
    /// The discrete-event engine hosting all nodes, at the shard count
    /// of [`ClusterConfig::engine`].
    pub sim: AnyEngine<N>,
    /// The shared blockchain.
    pub chain: SharedChain,
    /// The shared *alternate* blockchain (cross-chain swaps lock their
    /// HTLCs here; see [`crate::swap`]).
    pub chain2: SharedChain,
    /// Enclave identity of each node.
    pub ids: Vec<PublicKey>,
    /// The manufacturer trust root (for launching additional TEEs).
    pub root: TrustRoot,
    /// Durable stores per node (persistent mode; the harness owns them
    /// so they survive node crashes, like a disk does).
    pub stores: Vec<Option<SharedStore>>,
}

impl Cluster {
    /// Builds a cluster of `cfg.n` plain hosts with the full-mesh
    /// directory (see [`Cluster::build`]).
    pub fn new(cfg: ClusterConfig) -> Cluster {
        Cluster::build(cfg, None)
    }

    /// Shorthand: a functional-test cluster (free CPU, ideal links).
    pub fn functional(n: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            n,
            ..ClusterConfig::default()
        })
    }
}

impl<N: ClusterNode> Cluster<N> {
    /// Builds a cluster of `cfg.n` nodes, all sharing one trust root and
    /// one blockchain. Identities are pre-exchanged (the paper's
    /// out-of-band key distribution) along `peers`, or between every pair
    /// when `None` — large generated overlays pass their channel edges,
    /// since routing only needs neighbours. Persistent-mode nodes get a
    /// harness-owned in-memory store; replication mode appends and chains
    /// `backups` extra nodes per primary.
    pub fn build(cfg: ClusterConfig, peers: Option<&[(usize, usize)]>) -> Cluster<N> {
        let chain: SharedChain = Arc::new(Mutex::new(Chain::new()));
        let chain2: SharedChain = Arc::new(Mutex::new(Chain::new()));
        let backups = cfg.durability.auto_backups();
        let total = cfg.n * (1 + backups);
        let (root, nodes, stores, ids) =
            build_wired_nodes(total, cfg.seed, cfg.durability, &chain, &chain2, peers);
        let hosts: Vec<N> = nodes
            .into_iter()
            .map(|node| SimHost::new(node, cfg.costs).into())
            .collect();
        let sim = AnyEngine::new(cfg.engine, hosts, cfg.default_link, cfg.seed);
        let mut cluster = Cluster {
            sim,
            chain,
            chain2,
            ids,
            root,
            stores,
        };
        // Replication backend: chain primary i → n + i*k .. (Alg. 3).
        for i in 0..cfg.n {
            let mut tail = i;
            for j in 0..backups {
                let backup = cfg.n + i * backups + j;
                cluster.attach_backup(tail, backup);
                tail = backup;
            }
        }
        cluster
    }

    /// The node id of index `i`.
    pub fn nid(&self, i: usize) -> NodeId {
        NodeId(i as u32)
    }

    /// Immutable node access.
    pub fn node(&self, i: usize) -> &TeechainNode {
        let host: &SimHost = self.sim.node(NodeId(i as u32)).borrow();
        &host.node
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, i: usize) -> &mut TeechainNode {
        let host: &mut SimHost = self.sim.node_mut(NodeId(i as u32)).borrow_mut();
        &mut host.node
    }

    /// Runs `f` on node `i` outside the engine, the way a host would:
    /// through [`drive_input`] at the engine's current time, with `more`
    /// as the node's input hint ([`Ctx::more_messages`]). Returns `f`'s
    /// result and the actions the node emitted, which the caller performs,
    /// reorders or drops itself — for tests that play the host, a lying
    /// one included.
    pub fn drive_node<R>(
        &mut self,
        i: usize,
        more: bool,
        f: impl FnOnce(&mut TeechainNode, &mut Ctx<'_>) -> R,
    ) -> (R, Vec<NodeAction>) {
        let now = self.sim.now_ns();
        // The node draws nothing from its stream; any seed will do.
        let mut rng = Xoshiro256::new(i as u64);
        drive_input(self.node_mut(i), NodeId(i as u32), now, more, &mut rng, f)
    }

    // ---- Operation submission and resolution ----

    /// Submits `req` on node `i` without a deadline (see
    /// [`Harness::submit_request`]).
    pub fn submit(&mut self, i: usize, req: impl Into<Request>) -> OpId {
        self.submit_request(i, req.into(), None)
    }

    /// Wraps an operation id in a typed pending token.
    pub fn pending<T: OpResult>(&self, op: OpId) -> Pending<T> {
        Pending::new(op)
    }

    /// The outcome `op` resolved to, if it has — without running the
    /// network. Phase-batched setup submits a wave of independent
    /// operations, settles once, then reads every outcome here.
    pub fn outcome(&self, op: OpId) -> Option<Result<OpOutput, OpError>> {
        let stream = &self.node(op.node as usize).completions;
        // Newest first: the operation being asked about is usually recent.
        stream
            .iter()
            .rev()
            .find(|c| c.op == op)
            .map(|c| c.outcome.clone())
    }

    /// Submits `req` and resolves it *synchronously*, without running the
    /// network — for commands whose outcome is local (eject, raw message
    /// delivery, sealed-state restore), or to observe a synchronous
    /// rejection while leaving in-flight traffic untouched.
    ///
    /// # Panics
    ///
    /// Panics if the request did not resolve within its own submission
    /// (i.e. it awaits a network response); use [`Harness::op`] for
    /// those.
    pub fn op_now(&mut self, i: usize, req: impl Into<Request>) -> Result<OpOutput, OpError> {
        let op = self.submit(i, req);
        self.outcome(op)
            .expect("operation did not resolve synchronously; use Harness::op")
    }

    /// Node `i`'s completion stream so far (setup included), in
    /// resolution order.
    pub fn completions(&self, i: usize) -> &[Completion] {
        &self.node(i).completions
    }

    /// The cluster-wide completion history, merged deterministically by
    /// `(time, node, seq)` — identical for any shard count of the
    /// sharded engine.
    pub fn completion_log(&self) -> Vec<Completion> {
        let streams: Vec<&[Completion]> =
            (0..self.sim.len()).map(|i| self.completions(i)).collect();
        crate::ops::merge_completions(&streams)
    }

    // ---- Observability (the `teechain-trace` surface) ----

    /// Turns the flight recorder on (or off) on every node. Recording is
    /// passive — it touches no simulated clock, RNG or wire bytes — so
    /// the completion history is identical either way. With the
    /// `trace-record` feature compiled out this sets a flag nobody reads.
    pub fn set_tracing(&mut self, on: bool) {
        for i in 0..self.sim.len() {
            self.node_mut(i).tracer.configure(on, None);
        }
    }

    /// Drains every node's flight ring into one merged, deterministic
    /// stream (ordered by `(ts_ns, node)`; per-node order preserved).
    /// Under the sim engines the encoded bytes of this stream are
    /// identical across reruns and shard counts.
    pub fn drain_trace(&mut self) -> Vec<teechain_trace::TraceEvent> {
        let streams: Vec<Vec<teechain_trace::TraceEvent>> = (0..self.sim.len())
            .map(|i| self.node_mut(i).tracer.drain())
            .collect();
        teechain_trace::merge_events(streams)
    }

    /// Snapshots the cluster-wide metrics registry: every node's
    /// counters, admission totals and queue high-watermarks merged
    /// (counters add, gauges max, histograms concatenate), plus the
    /// engine's own delivery counters under `sim.*`.
    pub fn observe(&self) -> teechain_trace::Snapshot {
        let mut reg = teechain_trace::Registry::new();
        for i in 0..self.sim.len() {
            reg.merge(&self.node(i).registry());
        }
        let s = self.sim.stats();
        reg.counter("sim.messages", s.messages);
        reg.counter("sim.bytes", s.bytes);
        reg.counter("sim.events", s.events);
        reg.counter("sim.dropped", s.dropped);
        reg.snapshot()
    }

    /// [`Harness::handle`], callable without importing the trait.
    pub fn handle(&mut self, i: usize) -> NodeHandle<'_, Self> {
        Harness::handle(self, i)
    }

    /// [`Harness::standard_channel`], callable without importing the
    /// trait.
    pub fn standard_channel(
        &mut self,
        a: usize,
        b: usize,
        label: &str,
        value: u64,
        m: u8,
    ) -> ChannelId {
        Harness::standard_channel(self, a, b, label, value, m)
    }

    /// Runs the simulation until quiescent, then resolves every
    /// still-pending operation as dead ([`OpError::Timeout`]): once the
    /// network has fallen silent, no terminal response can arrive, so
    /// leaving such operations pending would only let them steal a later
    /// same-key response. This is the "resolved at quiescence" half of
    /// the operation contract (deadlines are the other half).
    pub fn settle_network(&mut self) {
        // The per-pass cap is a runaway guard, not a quiescence signal:
        // only a pass that processed fewer events than the cap proves
        // the queue drained, and dead-op resolution is only sound at
        // true quiescence. The pass bound keeps a pathological livelock
        // from spinning forever (at which point resolution is moot —
        // the simulation itself is broken).
        const CAP: u64 = 50_000_000;
        for _ in 0..64 {
            if self.sim.run_to_idle(CAP) < CAP {
                break;
            }
        }
        let now = self.sim.now_ns();
        for i in 0..self.sim.len() {
            self.node_mut(i).resolve_all_dead(now);
        }
    }

    /// Attaches node `backup` as the replication backup of node `tail`
    /// (extends `tail`'s committee chain).
    pub fn attach_backup(&mut self, tail: usize, backup: usize) {
        self.connect(tail, backup);
        let p = self.handle(tail).attach_backup(backup);
        self.wait(p).expect("attach backup failed");
    }

    /// Crashes node `i`: its enclave loses all volatile state and the
    /// simulator drops traffic and timers targeting it, exactly as if
    /// the machine lost power. Hardware counters, the sealing key and
    /// the durable store survive.
    pub fn crash_node(&mut self, i: usize) {
        self.sim.set_offline(self.nid(i), true);
        self.node_mut(i).crash_enclave();
    }

    /// Brings node `i` back and replays its durable store as a
    /// correlated recovery operation. Sessions are *not* restored
    /// (session keys are deliberately volatile); call
    /// [`Harness::connect`] again to re-handshake with peers.
    pub fn recover_node(&mut self, i: usize) -> Result<Recovery, OpError> {
        self.sim.set_offline(self.nid(i), false);
        let p = self.handle(i).recover();
        self.wait(p)
    }

    /// The durable store of node `i` (persistent mode only).
    pub fn store(&self, i: usize) -> Option<SharedStore> {
        self.stores[i].clone()
    }

    /// The channel balances `(my, remote)` as seen by node `i`.
    pub fn balances(&self, i: usize, chan: ChannelId) -> (u64, u64) {
        let c = self
            .node(i)
            .enclave
            .program()
            .and_then(|p| p.channel(&chan))
            .expect("channel exists");
        (c.my_bal, c.remote_bal)
    }

    /// On-chain balance of a settlement key.
    pub fn chain_balance(&self, pk: &PublicKey) -> u64 {
        self.chain.lock().balance_p2pk(pk)
    }

    /// Mines `k` blocks.
    pub fn mine(&mut self, k: u64) {
        self.chain.lock().mine_blocks(k);
    }

    /// Mines `k` blocks on the *alternate* (swap) chain.
    pub fn mine_alt(&mut self, k: u64) {
        self.chain2.lock().mine_blocks(k);
    }
}

impl<N: ClusterNode> Harness for Cluster<N> {
    fn ids(&self) -> &[PublicKey] {
        &self.ids
    }

    /// Deadlines are absolute simulated ns, enforced by an in-simulation
    /// timer, so a [`OpError::Timeout`] completion is part of the
    /// deterministic event stream.
    fn submit_request(&mut self, i: usize, req: Request, deadline_ns: Option<u64>) -> OpId {
        self.sim.call(NodeId(i as u32), |node, ctx| {
            let host: &mut SimHost = node.borrow_mut();
            host.node.submit_op(ctx, req, deadline_ns)
        })
    }

    /// Runs the network to quiescence ([`Cluster::settle_network`]),
    /// which resolves every operation, and reads `op`'s outcome.
    fn resolve(&mut self, op: OpId) -> Result<OpOutput, OpError> {
        self.settle_network();
        self.outcome(op).unwrap_or(Err(OpError::Timeout {
            at_ns: self.sim.now_ns(),
        }))
    }
}

/// The protocol choreography, written once for every cluster harness.
///
/// An implementor supplies its nodes' identities, a way to submit a
/// [`Request`] and a way to resolve an [`OpId`]; every setup step and
/// operation below comes with it. [`Cluster`] (hosting any
/// [`ClusterNode`], at any shard count) and `&`[`LiveCluster`] implement
/// it, so a scenario written against `impl Harness` runs on every
/// substrate.
///
/// [`LiveCluster`]: crate::live::LiveCluster
pub trait Harness: Sized {
    /// Enclave identity of each node, by index.
    fn ids(&self) -> &[PublicKey];

    /// Submits `req` on node `i` as a correlated operation. With a
    /// deadline (absolute, on the harness clock) a still-pending
    /// operation is declared dead at that instant by its node's own
    /// timer. Counter throttling (persistent mode) never surfaces: the
    /// node parks the op and re-dispatches it on its admission pump.
    fn submit_request(&mut self, i: usize, req: Request, deadline_ns: Option<u64>) -> OpId;

    /// Blocks until `op` has its terminal outcome. An operation that
    /// gets no terminal response is declared dead with
    /// [`OpError::Timeout`] and recorded like any other completion, so
    /// the completion stream stays exactly-once.
    fn resolve(&mut self, op: OpId) -> Result<OpOutput, OpError>;

    /// A typed operation handle for node `i`.
    fn handle(&mut self, i: usize) -> NodeHandle<'_, Self> {
        NodeHandle { cluster: self, i }
    }

    /// Resolves a pending operation and extracts its typed result.
    fn wait<T: OpResult>(&mut self, p: Pending<T>) -> Result<T, OpError> {
        self.resolve(p.op).map(|out| {
            T::from_output(out).expect("completion output does not match the operation's type")
        })
    }

    /// Submits `req` on node `i` and blocks until its typed outcome: the
    /// single fallible request path.
    fn op(&mut self, i: usize, req: impl Into<Request>) -> Result<OpOutput, OpError> {
        let op = self.submit_request(i, req.into(), None);
        self.resolve(op)
    }

    /// The thin panicking wrapper over [`Harness::op`].
    fn exec(&mut self, i: usize, req: impl Into<Request>) -> OpOutput {
        self.op(i, req).expect("operation failed")
    }

    // ---- Typed conveniences (thin `.expect`s over the ops API) ----

    /// Establishes a secure session between nodes `a` and `b`.
    fn connect(&mut self, a: usize, b: usize) {
        let p = self.handle(a).connect(b);
        self.wait(p).expect("session establishment failed");
    }

    /// Opens a payment channel between connected nodes; returns its id.
    fn open_channel(&mut self, a: usize, b: usize, label: &str) -> ChannelId {
        let p = self.handle(a).open_channel(b, label);
        self.wait(p).expect("channel open failed")
    }

    /// Generates a fresh in-enclave address on node `i`.
    fn new_address(&mut self, i: usize) -> PublicKey {
        let p = self.handle(i).new_address();
        self.wait(p).expect("new address failed")
    }

    /// Funds an m-of-n deposit on node `i` (n = 1 + committee chain
    /// length) and registers it with the enclave.
    fn fund_deposit(&mut self, i: usize, value: u64, m: u8) -> Deposit {
        let p = self.handle(i).fund_deposit(value, m);
        self.wait(p).expect("fund deposit failed")
    }

    /// Approves `deposit` of node `a` with counterparty `b`, then
    /// associates it with `chan`. Panics on failure.
    fn approve_and_associate(&mut self, a: usize, b: usize, chan: ChannelId, deposit: &Deposit) {
        let p = self.handle(a).approve_deposit(b, deposit.outpoint);
        self.wait(p).expect("approve deposit failed");
        let p = self.handle(a).associate_deposit(chan, deposit.outpoint);
        self.wait(p).expect("associate deposit failed");
    }

    /// Full channel setup: connect, open, fund `value` on side `a` with
    /// threshold `m`, approve and associate. Returns the channel id.
    fn standard_channel(
        &mut self,
        a: usize,
        b: usize,
        label: &str,
        value: u64,
        m: u8,
    ) -> ChannelId {
        self.connect(a, b);
        let chan = self.open_channel(a, b, label);
        let dep = self.fund_deposit(a, value, m);
        self.approve_and_associate(a, b, chan, &dep);
        chan
    }

    /// Sends a payment and resolves its completion: `Ok` carries the
    /// acknowledged [`Payment`]; failures are typed (local rejection,
    /// remote nack, timeout).
    fn pay(&mut self, from: usize, chan: ChannelId, amount: u64) -> Result<Payment, OpError> {
        let p = self.handle(from).pay(chan, amount);
        self.wait(p)
    }

    /// Issues a multi-hop payment from `path[0]` through `path[..]` over
    /// `channels` and resolves its completion.
    fn pay_multihop(
        &mut self,
        path: &[usize],
        channels: &[ChannelId],
        amount: u64,
        label: &str,
    ) -> Result<Delivered, OpError> {
        let p = self
            .handle(path[0])
            .pay_multihop(path, channels, amount, label);
        self.wait(p)
    }

    /// Settles a channel from node `i` and resolves the terminal
    /// [`Settlement`] (off-chain or on-chain).
    fn settle_channel(&mut self, i: usize, chan: ChannelId) -> Result<Settlement, OpError> {
        let p = self.handle(i).settle(chan);
        self.wait(p)
    }

    /// Initiates a cross-chain atomic swap from node `from` and resolves
    /// its terminal [`SwapOutcome`] (redeemed or refunded — both are
    /// successful completions; aborts surface as typed errors).
    fn swap(
        &mut self,
        from: usize,
        chan: ChannelId,
        label: &str,
        amount: u64,
        alt_amount: u64,
        timeout_blocks: u64,
    ) -> Result<SwapOutcome, OpError> {
        let p = self
            .handle(from)
            .swap(chan, label, amount, alt_amount, timeout_blocks);
        self.wait(p)
    }
}

/// A typed operation handle for one node of a [`Harness`]: every method
/// submits one correlated operation and returns its [`Pending`] token;
/// resolve with [`Harness::wait`]. The handle borrows the cluster for a
/// single submission, so chains read naturally:
///
/// ```ignore
/// let p = net.handle(0).pay(chan, 100);
/// let receipt = net.wait(p)?;
/// ```
pub struct NodeHandle<'c, H> {
    cluster: &'c mut H,
    i: usize,
}

impl<H: Harness> NodeHandle<'_, H> {
    fn submit<T>(self, req: impl Into<Request>) -> Pending<T> {
        Pending::new(self.cluster.submit_request(self.i, req.into(), None))
    }

    fn id(&self, node: usize) -> PublicKey {
        self.cluster.ids()[node]
    }

    /// Starts an attested session with node `peer`.
    pub fn connect(self, peer: usize) -> Pending<PublicKey> {
        let remote = self.id(peer);
        self.submit(Command::StartSession { remote })
    }

    /// Generates a fresh in-enclave blockchain address.
    pub fn new_address(self) -> Pending<PublicKey> {
        self.submit(Command::NewAddress)
    }

    /// Opens a payment channel to node `peer` (requires a session): one
    /// composite operation that generates the in-enclave settlement
    /// address and proposes the channel.
    pub fn open_channel(self, peer: usize, label: &str) -> Pending<ChannelId> {
        let id = ChannelId::from_label(label);
        let remote = self.id(peer);
        self.submit(Request::OpenChannel { id, remote })
    }

    /// Funds and registers an m-of-n committee deposit of `value`.
    pub fn fund_deposit(self, value: u64, m: u8) -> Pending<Deposit> {
        self.submit(Request::FundDeposit { value, m })
    }

    /// Asks node `peer` to approve our free deposit.
    pub fn approve_deposit(self, peer: usize, outpoint: OutPoint) -> Pending<OpOutput> {
        let remote = self.id(peer);
        self.submit(Command::ApproveDeposit { remote, outpoint })
    }

    /// Associates an approved deposit with a channel.
    pub fn associate_deposit(self, chan: ChannelId, outpoint: OutPoint) -> Pending<OpOutput> {
        self.submit(Command::AssociateDeposit { id: chan, outpoint })
    }

    /// Dissociates a deposit from a channel (frees it on completion).
    pub fn dissociate_deposit(self, chan: ChannelId, outpoint: OutPoint) -> Pending<OpOutput> {
        self.submit(Command::DissociateDeposit { id: chan, outpoint })
    }

    /// Sends a payment over `chan`.
    pub fn pay(self, chan: ChannelId, amount: u64) -> Pending<Payment> {
        self.submit(Command::Pay {
            id: chan,
            amount,
            count: 1,
        })
    }

    /// Issues a multi-hop payment along `path` (cluster node indices,
    /// this node first) over `channels`; `label` derives the route id.
    pub fn pay_multihop(
        self,
        path: &[usize],
        channels: &[ChannelId],
        amount: u64,
        label: &str,
    ) -> Pending<Delivered> {
        let hops: Vec<PublicKey> = path.iter().map(|&i| self.id(i)).collect();
        self.submit(Command::PayMultihop {
            route: RouteId::from_label(label),
            hops,
            channels: channels.to_vec(),
            amount,
        })
    }

    /// Settles a channel: off-chain when balances are neutral, otherwise
    /// broadcasting a settlement transaction.
    pub fn settle(self, chan: ChannelId) -> Pending<Settlement> {
        self.submit(Command::Settle { id: chan })
    }

    /// Initiates a cross-chain atomic swap: trades `amount` of this
    /// node's balance on `chan` against `alt_amount` locked in an HTLC
    /// on the alternate chain; `label` derives the [`SwapId`].
    pub fn swap(
        self,
        chan: ChannelId,
        label: &str,
        amount: u64,
        alt_amount: u64,
        timeout_blocks: u64,
    ) -> Pending<SwapOutcome> {
        self.submit(Command::Swap {
            swap: SwapId::from_label(label),
            channel: chan,
            amount,
            alt_amount,
            timeout_blocks,
        })
    }

    /// Attaches node `backup` to this node's committee chain (requires a
    /// session).
    pub fn attach_backup(self, backup: usize) -> Pending<PublicKey> {
        let backup = self.id(backup);
        self.submit(Command::AttachBackup { backup })
    }

    /// Replays the durable store after a crash (persistent mode).
    pub fn recover(self) -> Pending<Recovery> {
        self.submit(Request::Recover)
    }
}
