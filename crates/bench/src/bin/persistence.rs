//! Persistence vs. replication: the §6 fault-tolerance cost comparison
//! (Tables 1–2 territory) extended with the WAL/group-commit engine, plus
//! a sustained crash-churn workload that repeatedly kills and recovers a
//! node under load.
//!
//! Run with `--quick` for a reduced sweep.

use teechain::enclave::Command;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{DurabilityBackend, PersistPolicy};
use teechain_bench::harness::Job;
use teechain_bench::report::{fmt_thousands, BenchJson, Table};
use teechain_bench::scenarios::{fig3_pair, FtMode};
use teechain_bench::trace_out::TraceSink;
use teechain_net::Histogram;
use teechain_trace::TraceEvent;

type Latency = std::collections::BTreeMap<String, Histogram>;

/// One throughput/latency row over the Fig. 3 US↔UK pair.
fn run_row(
    ft: FtMode,
    batching: bool,
    seed: u64,
    lat: &mut Latency,
    trace: Option<&mut Vec<TraceEvent>>,
) -> (
    f64,
    f64,
    f64,
    String,
    std::collections::BTreeMap<String, u64>,
) {
    let (mut cluster, chan) = fig3_pair(ft, seed);
    let payments = match (ft.persist(), batching) {
        (true, false) => 60,
        (true, true) => 30_000,
        (false, true) => 60_000,
        (false, false) => 30_000,
    };
    let jobs: Vec<Job> = (0..payments)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    cluster.load(0, jobs, 1_000_000);
    if batching {
        cluster.enable_batching(0, chan, 100_000_000);
    }
    let stats = cluster.run(300_000_000);
    let op_errors = cluster.op_errors();
    // Storage-cost column: what the durability engine actually wrote.
    let storage = match &cluster.stores[1] {
        Some(store) => {
            let s = store.lock().stats();
            format!(
                "{} commits, {} snap, {:.1} KiB wal",
                s.commits,
                s.compactions,
                s.wal_bytes as f64 / 1024.0
            )
        }
        None => "—".to_string(),
    };

    // Latency: a sequential (window = 1) run on a fresh cluster. This
    // is the run --trace-out records: under WAL-backed modes the flight
    // recording shows the WalAppend events inside each payment span.
    let (mut cluster, chan) = fig3_pair(ft, seed + 1);
    if trace.is_some() {
        cluster.set_tracing(true);
    }
    let lat_payments = if ft.persist() { 40 } else { 300 };
    let jobs: Vec<Job> = (0..lat_payments)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    cluster.load(0, jobs, 1);
    let stats_lat = cluster.run(50_000_000);
    for (kind, h) in cluster.latency_by_kind() {
        lat.entry(kind).or_default().merge(&h);
    }
    if let Some(events) = trace {
        *events = cluster.drain_trace();
    }
    (
        stats.throughput,
        stats_lat.mean_ms,
        stats_lat.p99_ms,
        storage,
        op_errors,
    )
}

/// Sustained crash churn: payments flow while the payee is repeatedly
/// killed mid-stream and recovered from WAL + snapshot. Returns
/// (completed payments, crashes survived, mean recovery wall-time in
/// simulated µs of enclave-visible work — here: commits replayed).
fn crash_churn(rounds: usize, payments_per_round: usize) -> (u64, usize, u64) {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every: 8 }),
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "churn", 1_000_000, 1);
    let mut completed = 0u64;
    let mut recoveries = 0usize;
    let mut commits_replayed = 0u64;
    for round in 0..rounds {
        for _ in 0..payments_per_round {
            c.pay(0, chan, 1).expect("payment");
            completed += 1;
        }
        // Kill the payee with one more payment in flight, then recover.
        // (Submitted, deliberately not resolved: the payee dies first.)
        c.submit(
            0,
            Command::Pay {
                id: chan,
                amount: 1,
                count: 1,
            },
        );
        c.crash_node(1);
        c.settle_network();
        let recovery = c
            .recover_node(1)
            .unwrap_or_else(|e| panic!("recovery {round}: {e}"));
        recoveries += 1;
        commits_replayed = recovery.commits;
        // Fresh sessions, and on we go.
        c.connect(1, 0);
    }
    // Final integrity check: the payee's balance equals every payment it
    // durably applied, and a settlement pays exactly that out on chain.
    let (my, _) = c.balances(1, chan);
    assert!(my >= completed, "recovered node lost acked payments");
    (completed, recoveries, commits_replayed)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut table = Table::new(
        "Persistence vs. replication: single-channel cost of §6 fault tolerance",
        &[
            "Configuration",
            "Throughput (tx/s)",
            "Latency ms [99th]",
            "Durable storage written (payee)",
        ],
    );
    let rows: Vec<(&str, FtMode, bool)> = if quick {
        vec![
            ("No fault tolerance", FtMode::None, false),
            (
                "Stable storage (eager snapshots)",
                FtMode::StableStorage,
                false,
            ),
            (
                "Stable storage (WAL + group commit)",
                FtMode::StableStorageWal,
                true,
            ),
        ]
    } else {
        vec![
            ("No fault tolerance", FtMode::None, false),
            ("One replica (IL)", FtMode::Replicas(1), false),
            ("Two replicas (IL & UK)", FtMode::Replicas(2), false),
            (
                "Stable storage (eager snapshots)",
                FtMode::StableStorage,
                false,
            ),
            ("Stable storage + batching", FtMode::StableStorage, true),
            (
                "Stable storage (WAL + group commit)",
                FtMode::StableStorageWal,
                false,
            ),
            (
                "WAL + group commit + batching",
                FtMode::StableStorageWal,
                true,
            ),
        ]
    };
    let sink = TraceSink::from_args();
    let mut trace = Vec::new();
    let mut lat = Latency::new();
    let mut all_op_errors = std::collections::BTreeMap::new();
    let last_row = rows.len() - 1;
    for (i, (name, ft, batching)) in rows.into_iter().enumerate() {
        // --trace-out records the last row (a WAL-backed configuration
        // in both sweeps, so the trace shows persistence at work).
        let want_trace = sink.active() && i == last_row;
        let (tps, mean, p99, storage, op_errors) = run_row(
            ft,
            batching,
            4321,
            &mut lat,
            if want_trace { Some(&mut trace) } else { None },
        );
        for (label, n) in op_errors {
            *all_op_errors.entry(label).or_insert(0) += n;
        }
        table.row(&[
            name.into(),
            fmt_thousands(tps),
            format!("{mean:.0} [{p99:.0}]"),
            storage,
        ]);
    }
    table.print();

    let (rounds, per_round) = if quick { (3, 5) } else { (10, 20) };
    let (completed, recoveries, commits) = crash_churn(rounds, per_round);
    let mut churn = Table::new(
        "Crash churn: payee killed mid-payment every round, recovered from WAL",
        &["Metric", "Value"],
    );
    churn.row(&["Payments completed".into(), completed.to_string()]);
    churn.row(&[
        "Crash/recover cycles survived".into(),
        recoveries.to_string(),
    ]);
    churn.row(&[
        "Commits replayed by final recovery".into(),
        commits.to_string(),
    ]);
    churn.print();
    sink.write(&trace);
    let mut doc = BenchJson::new("persistence");
    doc.op_errors(&all_op_errors).latency(&lat);
    doc.table(&table).table(&churn).write().expect("bench json");
}
