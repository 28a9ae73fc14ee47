//! Table 1: performance of single payment channels.
//!
//! Reproduces the US↔UK1 channel of Fig. 3 under every fault-tolerance
//! strategy, with and without 100 ms client-side batching. The Lightning
//! row uses the lnd figures measured in the paper (see
//! `teechain_baselines::ln::perf`).
//!
//! The unbatched rows model a client that issues each payment as its own
//! request, as the paper's did: their hosts pass no input hint
//! (`Command::Deliver::more` is always false), so every payee acks, and
//! every chain head replicates, each payment alone. The rows labelled
//! "input hint" pass the engine's hint instead, so that a payee and a
//! chain head coalesce the payments already queued at them.
//!
//! Every row's throughput and window-1 latency percentiles go into the
//! artifact's `metrics` as `<row>_tx_s`, `<row>_p50_ms` and
//! `<row>_p99_ms`; the simulator is deterministic, so CI gates the quick
//! rows (no fault tolerance, one and two replicas) against the committed
//! artifact at a 1 % threshold in both directions.

use teechain::ChannelId;
use teechain_bench::harness::{BenchCluster, Job};
use teechain_bench::report::{fmt_thousands, BenchJson, Table};
use teechain_bench::scenarios::{fig3_pair, FtMode};
use teechain_bench::trace_out::TraceSink;
use teechain_net::{Histogram, NodeId};
use teechain_trace::TraceEvent;

type OpErrors = std::collections::BTreeMap<String, u64>;
type Latency = std::collections::BTreeMap<String, Histogram>;

struct RowResult {
    throughput: f64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    op_errors: OpErrors,
    latency: Latency,
    trace: Vec<TraceEvent>,
}

/// The pair of Fig. 3 under `ft`; without `hint` its hosts pass no input
/// hint.
fn pair(ft: FtMode, hint: bool, seed: u64) -> (BenchCluster, ChannelId) {
    let (mut cluster, chan) = fig3_pair(ft, seed);
    if !hint {
        for i in 0..cluster.sim.len() {
            cluster.sim.node_mut(NodeId(i as u32)).host.more = Some(false);
        }
    }
    (cluster, chan)
}

fn run_row(ft: FtMode, batching: bool, hint: bool, seed: u64, trace: bool) -> RowResult {
    // Throughput: a large pipelined load.
    let (mut cluster, chan) = pair(ft, hint, seed);
    let payments = match (ft, batching) {
        (FtMode::StableStorage, false) => 60,
        (FtMode::StableStorage, true) => 60_000,
        (_, true) => 100_000,
        (FtMode::None, false) => 60_000,
        _ => 30_000,
    };
    let jobs: Vec<Job> = (0..payments)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    cluster.load(0, jobs, 1_000_000);
    if batching {
        cluster.enable_batching(0, chan, 100_000_000);
    }
    let stats = cluster.run(300_000_000);
    let throughput = stats.throughput;
    let op_errors = cluster.op_errors();
    let mut latency = cluster.latency_by_kind();

    // Latency: a sequential (window = 1) run on a fresh cluster. This is
    // the run `--trace-out` records: window 1 keeps the flight recording
    // readable (one full round trip at a time).
    let (mut cluster, chan) = pair(ft, hint, seed + 1);
    if trace {
        cluster.set_tracing(true);
    }
    let lat_payments = if matches!(ft, FtMode::StableStorage) {
        40
    } else {
        300
    };
    let jobs: Vec<Job> = (0..lat_payments)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    cluster.load(0, jobs, 1);
    if batching {
        cluster.enable_batching(0, chan, 100_000_000);
    }
    let stats = cluster.run(50_000_000);
    for (kind, h) in cluster.latency_by_kind() {
        latency.entry(kind).or_default().merge(&h);
    }
    RowResult {
        throughput,
        mean_ms: stats.mean_ms,
        p50_ms: stats.p50_ms,
        p99_ms: stats.p99_ms,
        op_errors,
        latency,
        trace: if trace {
            cluster.drain_trace()
        } else {
            Vec::new()
        },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut table = Table::new(
        "Table 1: single payment channel — throughput and latency",
        &["Configuration", "Throughput (tx/s)", "Latency ms [99th]"],
    );
    table.row(&[
        "Lightning Network (LN, measured in paper)".into(),
        fmt_thousands(teechain_baselines::ln::perf::MAX_TX_PER_SEC),
        "387 [420]".into(),
    ]);
    // (label, metrics key, fault tolerance, batching, input hint)
    let mut rows: Vec<(&str, &str, FtMode, bool, bool)> = vec![
        (
            "Teechain, no fault tolerance",
            "no_ft",
            FtMode::None,
            false,
            false,
        ),
        (
            "Teechain, one replica (IL)",
            "replicas1",
            FtMode::Replicas(1),
            false,
            false,
        ),
        (
            "Teechain, two replicas (IL & UK)",
            "replicas2",
            FtMode::Replicas(2),
            false,
            false,
        ),
        (
            "Teechain, three replicas (IL, US & UK)",
            "replicas3",
            FtMode::Replicas(3),
            false,
            false,
        ),
        (
            "Teechain, stable storage",
            "stable_storage",
            FtMode::StableStorage,
            false,
            false,
        ),
        (
            "Teechain, batching (no fault tolerance)",
            "batching_no_ft",
            FtMode::None,
            true,
            true,
        ),
        (
            "Teechain, batching (two replicas)",
            "batching_replicas2",
            FtMode::Replicas(2),
            true,
            true,
        ),
        (
            "Teechain, batching (stable storage)",
            "batching_stable_storage",
            FtMode::StableStorage,
            true,
            true,
        ),
        (
            "Teechain, one replica (IL), input hint",
            "replicas1_hinted",
            FtMode::Replicas(1),
            false,
            true,
        ),
        (
            "Teechain, two replicas (IL & UK), input hint",
            "replicas2_hinted",
            FtMode::Replicas(2),
            false,
            true,
        ),
    ];
    if quick {
        // The unbatched rows up to the first chain with a middle member.
        rows.truncate(3);
    }
    let sink = TraceSink::from_args();
    let mut doc = BenchJson::new("table1");
    doc.metric("quick", if quick { 1u64 } else { 0u64 }).metric(
        "host_parallelism",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );
    let mut trace = Vec::new();
    for (i, (name, key, ft, batching, hint)) in rows.into_iter().enumerate() {
        // The first (no-fault-tolerance) row is the one --trace-out records.
        let r = run_row(ft, batching, hint, 1234, sink.active() && i == 0);
        doc.op_errors(&r.op_errors).latency(&r.latency);
        doc.metric(&format!("{key}_tx_s"), r.throughput)
            .metric(&format!("{key}_p50_ms"), r.p50_ms)
            .metric(&format!("{key}_p99_ms"), r.p99_ms);
        if !r.trace.is_empty() {
            trace = r.trace;
        }
        table.row(&[
            name.into(),
            fmt_thousands(r.throughput),
            format!("{:.0} [{:.0}]", r.mean_ms, r.p99_ms),
        ]);
    }
    table.print();
    sink.write(&trace);
    doc.table(&table).write().expect("bench json");
    println!(
        "\nPaper: LN 1,000 tx/s @ 387 ms; Teechain no-FT 130,311 @ 86 ms; 1 replica 34,115 @ 292 ms;\n\
         2 replicas 33,180 @ 415 ms; 3 replicas 33,178 @ 672 ms; stable storage 10 @ 288 ms;\n\
         batching: 150,311 @ 191 ms (no FT), 135,331 @ 516 ms (2 replicas), 145,786 @ 401 ms (stable)."
    );
}
