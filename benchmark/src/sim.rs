//! The simulator workloads: `sim_pay`, `sim_repl`, `sim_wal` and
//! `sim_multihop` — `testkit::Cluster` on the sequential engine with free
//! CPU costs and ideal links, so wall time is the program's own work: enclave,
//! session AEAD, codec and engine, with no transport, scheduler or (real)
//! disk.

use crate::host;
use crate::stats::{median_f, percentile_of};
use crate::RunResult;
use std::collections::HashMap;
use std::time::Instant;
use teechain::driver::CostModel;
use teechain::enclave::Command;
use teechain::testkit::{Cluster, ClusterConfig};
use teechain::types::ChannelId;
use teechain::DurabilityBackend;
use teechain_net::{EngineKind, LinkSpec};
use teechain_util::rng::Xoshiro256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Two nodes, one channel, no fault tolerance.
    Pay,
    /// The same under committee-chain replication, two backups per node.
    Repl,
    /// The same under the WAL + sealed-snapshot persistent store.
    Wal,
    /// A four-node line; every operation is a three-hop payment.
    Multihop,
}

impl SimKind {
    /// The name without its `sim_` prefix, as the crank metrics use it.
    pub fn shape(self) -> &'static str {
        self.name().trim_start_matches("sim_")
    }

    pub fn name(self) -> &'static str {
        match self {
            SimKind::Pay => "sim_pay",
            SimKind::Repl => "sim_repl",
            SimKind::Wal => "sim_wal",
            SimKind::Multihop => "sim_multihop",
        }
    }

    /// Operations submitted before the network is run to quiescence.
    pub fn burst(self) -> usize {
        match self {
            SimKind::Multihop => 8,
            _ => 64,
        }
    }

    /// The per-operation counts are taken over exactly this many
    /// operations from the start of a pass, whatever the pass's length, so
    /// they repeat bit for bit.
    pub fn count_ops(self) -> u64 {
        match self {
            SimKind::Pay => 40_000,
            SimKind::Repl => 10_000,
            SimKind::Wal => 25_000,
            SimKind::Multihop => 600,
        }
    }
}

/// Deposit behind every channel; payments of 1–8 never exhaust it.
pub const DEPOSIT: u64 = 1 << 40;

/// A cluster ready for its first payment.
pub struct World {
    pub kind: SimKind,
    pub cluster: Cluster,
    /// Node indices the payment travels through, payer first.
    pub path: Vec<usize>,
    /// `chans[k]` joins `path[k]` and `path[k + 1]`, funded by `path[k]`.
    pub chans: Vec<ChannelId>,
    /// Sum of the amounts successfully paid since the build.
    pub paid: u64,
    pub setup_s: f64,
}

/// Cluster build plus channel funding, until the first payment is possible.
pub fn build(kind: SimKind, seed: u64) -> World {
    let t = Instant::now();
    let (n, durability, threshold) = match kind {
        SimKind::Pay => (2, DurabilityBackend::None, 1),
        // 2-of-3 committee deposits: the primary plus its two backups.
        SimKind::Repl => (2, DurabilityBackend::Replication { backups: 2 }, 2),
        SimKind::Wal => (2, DurabilityBackend::persistent(), 1),
        SimKind::Multihop => (4, DurabilityBackend::None, 1),
    };
    let mut cluster = Cluster::new(ClusterConfig {
        n,
        costs: CostModel::free(),
        default_link: LinkSpec::ideal(),
        durability,
        seed,
        engine: EngineKind::Seq,
    });
    let path: Vec<usize> = (0..n).collect();
    let chans = path
        .windows(2)
        .map(|w| {
            let label = format!("{}-{}", kind.name(), w[0]);
            cluster.standard_channel(w[0], w[1], &label, DEPOSIT, threshold)
        })
        .collect();
    let setup_s = t.elapsed().as_secs_f64();
    World {
        kind,
        cluster,
        path,
        chans,
        paid: 0,
        setup_s,
    }
}

/// Exact counters of the simulator, the stores and the admission layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub commits: u64,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub enqueued: u64,
    pub batches: u64,
    pub max_batch: u64,
    pub queue_depth_hwm: u64,
}

impl Counts {
    fn read(cluster: &Cluster) -> Counts {
        let snap = cluster.observe();
        let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        let gauge = |k: &str| snap.gauges.get(k).copied().unwrap_or(0);
        let mut c = Counts {
            events: counter("sim.events"),
            msgs: counter("sim.messages"),
            bytes: counter("sim.bytes"),
            enqueued: counter("admit.enqueued"),
            batches: counter("admit.batches"),
            max_batch: gauge("admit.max_batch"),
            queue_depth_hwm: gauge("admit.queue_depth_hwm"),
            ..Counts::default()
        };
        for store in cluster.stores.iter().flatten() {
            let s = store.lock().stats();
            c.commits += s.commits;
            c.wal_bytes += s.wal_bytes;
            c.snapshot_bytes += s.snapshot_bytes;
        }
        c
    }

    /// Counters grow; the two high-watermarks are kept as read.
    fn since(self, base: Counts) -> Counts {
        Counts {
            events: self.events - base.events,
            msgs: self.msgs - base.msgs,
            bytes: self.bytes - base.bytes,
            commits: self.commits - base.commits,
            wal_bytes: self.wal_bytes - base.wal_bytes,
            snapshot_bytes: self.snapshot_bytes - base.snapshot_bytes,
            enqueued: self.enqueued - base.enqueued,
            batches: self.batches - base.batches,
            max_batch: self.max_batch,
            queue_depth_hwm: self.queue_depth_hwm,
        }
    }
}

/// What one pass over a [`World`] saw.
pub struct SimPass {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Wall time of each burst: first submit to last completion read.
    pub burst_ns: Vec<u64>,
    /// Deltas over the first `count_ops` operations.
    pub counts: Counts,
    pub trace_events: u64,
    pub trace_dropped: u64,
}

impl SimPass {
    pub fn tx_s(&self) -> f64 {
        self.ok as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Runs bursts for `seconds` (and at least `count_ops` operations), then
/// checks the outputs. Submits through `Cluster::submit`, settles the
/// network, and takes the payer's completions — never `Cluster::wait`, whose
/// linear scan of the completion log is quadratic over a run.
pub fn pass(
    world: &mut World,
    seed: u64,
    seconds: f64,
    count_ops: u64,
    traced: bool,
    errors: &mut Vec<String>,
) -> SimPass {
    let kind = world.kind;
    let payer = world.path[0];
    let mut amounts = Xoshiro256::new(seed ^ 0xA407);
    let mut p = SimPass {
        sent: 0,
        ok: 0,
        failed: 0,
        wall_ns: 0,
        cpu_ns: 0,
        burst_ns: Vec::new(),
        counts: Counts::default(),
        trace_events: 0,
        trace_dropped: 0,
    };
    let mut spurious = 0u64;
    let mut pending: HashMap<u64, u64> = HashMap::new();
    world.cluster.set_tracing(traced);
    // Setup completions are not this pass's.
    world.cluster.node_mut(payer).completions.clear();
    let base = Counts::read(&world.cluster);
    let mut counted = false;
    let cpu0 = host::cpu_ns_all_threads();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || !counted {
        let t = Instant::now();
        for _ in 0..kind.burst() {
            let amount = 1 + amounts.next_below(8);
            let op = if kind == SimKind::Multihop {
                let label = format!("r{}", p.sent);
                let h = world.cluster.handle(payer);
                h.pay_multihop(&world.path, &world.chans, amount, &label).op
            } else {
                let id = world.chans[0];
                let count = 1;
                world
                    .cluster
                    .submit(payer, Command::Pay { id, amount, count })
            };
            pending.insert(op.seq, amount);
            p.sent += 1;
        }
        world.cluster.settle_network();
        for c in std::mem::take(&mut world.cluster.node_mut(payer).completions) {
            match (pending.remove(&c.op.seq), c.outcome.is_ok()) {
                (None, _) => spurious += 1,
                (Some(amount), true) => {
                    p.ok += 1;
                    world.paid += amount;
                }
                (Some(_), false) => p.failed += 1,
            }
        }
        if traced {
            p.trace_events += world.cluster.drain_trace().len() as u64;
        }
        p.burst_ns.push(t.elapsed().as_nanos() as u64);
        if !counted && p.sent >= count_ops {
            counted = true;
            p.counts = Counts::read(&world.cluster).since(base);
        }
    }
    p.wall_ns = start.elapsed().as_nanos() as u64;
    p.cpu_ns = host::cpu_ns_all_threads() - cpu0;
    if traced {
        let snap = world.cluster.observe();
        p.trace_dropped = snap.counters.get("trace.dropped").copied().unwrap_or(0);
        world.cluster.set_tracing(false);
    }

    let what = format!("{} seed {seed}", kind.name());
    if spurious > 0 || !pending.is_empty() || p.ok + p.failed != p.sent {
        errors.push(format!(
            "{what}: exactly-once violated: sent {} ok {} failed {} spurious {spurious} unresolved {}",
            p.sent, p.ok, p.failed, pending.len()
        ));
    }
    check_balances(world, &what, errors);
    p
}

/// Balance conservation: both ends of every hop moved by exactly the sum
/// of the successful amounts.
fn check_balances(world: &World, what: &str, errors: &mut Vec<String>) {
    let paid = world.paid;
    for (k, chan) in world.chans.iter().enumerate() {
        let up = world.cluster.balances(world.path[k], *chan);
        let down = world.cluster.balances(world.path[k + 1], *chan);
        if up != (DEPOSIT - paid, paid) || down != (paid, DEPOSIT - paid) {
            errors.push(format!(
                "{what}: hop {k} balances {up:?} / {down:?} do not show {paid} paid"
            ));
        }
    }
}

/// `sim_repl`: every backup's replica of the channel equals its primary's.
fn check_replicas(world: &World, what: &str, errors: &mut Vec<String>) {
    let n = world.path.len();
    let backups = world.cluster.sim.len() / n - 1;
    let chan = world.chans[0];
    for primary in 0..n {
        let want = world.cluster.balances(primary, chan);
        for j in 0..backups {
            let backup = n + primary * backups + j;
            let program = world.cluster.node(backup).enclave.program();
            let got = program
                .and_then(|p| p.replica_channel(&chan))
                .map(|c| (c.my_bal, c.remote_bal));
            if got != Some(want) {
                errors.push(format!(
                    "{what}: backup {backup} holds {got:?}, its primary {primary} holds {want:?}"
                ));
            }
        }
    }
}

/// `sim_wal`: crash the payee, replay its store, and find the balances
/// where they were. Returns the recovery's wall time in ms.
fn crash_and_recover(world: &mut World, what: &str, errors: &mut Vec<String>) -> f64 {
    let payee = world.path[1];
    world.cluster.crash_node(payee);
    let t = Instant::now();
    let recovered = world.cluster.recover_node(payee);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match recovered {
        Ok(_) => check_balances(world, &format!("{what} after crash and recovery"), errors),
        Err(e) => errors.push(format!("{what}: recovery failed: {e}")),
    }
    ms
}

/// The checks a world's backend adds to balance conservation.
fn check_backend(world: &mut World, what: &str, errors: &mut Vec<String>) -> f64 {
    match world.kind {
        SimKind::Repl => check_replicas(world, what, errors),
        SimKind::Wal => return crash_and_recover(world, what, errors),
        _ => {}
    }
    0.0
}

/// Fresh worlds built per run: set-up is a few milliseconds, so it is
/// timed on many.
const SETUP_REPS: usize = 15;

/// The untraced pass: one world, bursts for `seconds`.
pub fn run_e2e(kind: SimKind, seed: u64, seconds: f64, count_ops: u64, r: &mut RunResult) {
    let mut world = build(kind, seed);
    let mut setups = vec![world.setup_s];
    setups.extend((1..SETUP_REPS).map(|_| build(kind, seed).setup_s));
    let mut p = pass(&mut world, seed, seconds, count_ops, false, &mut r.errors);
    check_backend(
        &mut world,
        &format!("{} seed {seed}", kind.name()),
        &mut r.errors,
    );
    r.attempted += p.sent;
    r.failed += p.failed;
    let m = &mut r.metrics;
    m.put("setup_s", median_f(&setups));
    m.put("tx_s", p.tx_s());
    m.put("cpu_us_per_tx", p.cpu_ns as f64 / 1e3 / p.ok.max(1) as f64);
    m.put(
        "lat_p50_ms",
        percentile_of(&mut p.burst_ns, 0.5) as f64 / 1e6,
    );
    m.put("rss_peak_mb", host::rss_peak_mb());
}

/// The traced pass: two fresh worlds of one seed, half the time each, the
/// second with the flight recorder on. Their exact counts must agree — the
/// simulator is deterministic and the recorder passive — and the ratio of
/// their speeds is the recorder's cost.
pub fn run_layers(kind: SimKind, seed: u64, seconds: f64, count_ops: u64, r: &mut RunResult) {
    let what = format!("{} seed {seed}", kind.name());
    let errors = &mut r.errors;
    let mut plain_world = build(kind, seed);
    let plain = pass(
        &mut plain_world,
        seed,
        seconds / 2.0,
        count_ops,
        false,
        errors,
    );
    let recover_ms = check_backend(&mut plain_world, &what, errors);
    drop(plain_world);
    let mut traced_world = build(kind, seed);
    let traced = pass(
        &mut traced_world,
        seed,
        seconds / 2.0,
        count_ops,
        true,
        errors,
    );
    if plain.counts != traced.counts {
        errors.push(format!(
            "{what}: two runs of one seed disagree: {:?} against {:?}",
            plain.counts, traced.counts
        ));
    }
    r.attempted += plain.sent + traced.sent;
    r.failed += plain.failed + traced.failed;

    let m = &mut r.metrics;
    let c = plain.counts;
    let per_tx = |v: u64| v as f64 / count_ops as f64;
    m.put("net.engine.events_per_tx", per_tx(c.events));
    m.put("net.engine.msgs_per_tx", per_tx(c.msgs));
    m.put("net.engine.bytes_per_tx", per_tx(c.bytes));
    m.put("persist.commits_per_tx", per_tx(c.commits));
    m.put("persist.wal_bytes_per_tx", per_tx(c.wal_bytes));
    m.put("persist.snapshot_bytes_per_tx", per_tx(c.snapshot_bytes));
    m.put("persist.recover_ms", recover_ms);
    m.put("core.admit.enqueued_per_tx", per_tx(c.enqueued));
    m.put("core.admit.batches", c.batches as f64);
    m.put("core.admit.max_batch", c.max_batch as f64);
    m.put("core.admit.queue_depth_hwm", c.queue_depth_hwm as f64);
    let ok = traced.ok.max(1) as f64;
    m.put("trace.events_per_tx", traced.trace_events as f64 / ok);
    m.put("trace.dropped", traced.trace_dropped as f64);
    m.put(
        "trace.overhead_pct",
        (plain.tx_s() / traced.tx_s() - 1.0) * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// Test-only sabotage: the conservation check must notice a sum that is
    /// off by one, and a failed check must fail the command.
    #[test]
    fn a_broken_check_fails_the_run() {
        let mut r = RunResult::default();
        let mut world = build(SimKind::Pay, 3);
        let p = pass(&mut world, 3, 0.0, 128, false, &mut r.errors);
        assert_eq!((p.sent, p.ok, p.failed), (128, 128, 0));
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.exit_code(), 0);
        world.paid += 1;
        check_balances(&world, "tampered", &mut r.errors);
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.exit_code(), 1);
        assert_eq!(r.to_json().get("correct"), Some(&Json::Bool(false)));
    }

    /// One seed, two worlds: the counted prefix repeats exactly.
    #[test]
    fn counts_repeat_for_one_seed() {
        let mut errors = Vec::new();
        for kind in [SimKind::Wal, SimKind::Multihop] {
            let ops = kind.burst() as u64 * 4;
            let a = pass(&mut build(kind, 9), 9, 0.0, ops, false, &mut errors);
            let b = pass(&mut build(kind, 9), 9, 0.0, ops, true, &mut errors);
            assert_eq!(a.counts, b.counts);
            assert!(a.counts.events > 0 && b.trace_events > 0);
        }
        assert!(errors.is_empty(), "{errors:?}");
    }
}
