//! Live payment throughput and latency on real hardware.
//!
//! Every other bench bin measures the protocol inside the discrete-event
//! simulator under the *calibrated* CPU cost model. This one runs it for
//! real: `LiveCluster` schedules the nodes onto a fixed pool of worker
//! threads with a wall-clock timer heap, and payments cross localhost TCP
//! sockets through the non-blocking reactor transport — so the numbers
//! are whatever this machine's hardware gives, not Table 1's SGX
//! calibration. The paper's own testbed measurements (Fig. 3 hardware)
//! are the conceptual counterpart.
//!
//! Two phases on one long-lived channel between two nodes:
//!
//! * **latency** — window 1, sequential payments: each completion is a
//!   full submit → enclave → wire → ack round trip.
//! * **throughput** — a sliding window of in-flight payments (the §7.4
//!   `W` mechanic), sustained until the target count completes.
//!
//! Latency is measured from the completion timestamps on the cluster
//! clock (submit time to terminal outcome), and every typed failure is
//! counted per [`OpError`](teechain::ops::OpError) label into the
//! standard `op_errors` section of `BENCH_live.json`. Run with `--quick`
//! for the CI-sized sweep.
//!
//! The **nodes axis**: the runtime is additionally swept at 10, 100 and
//! 1,000 live nodes — n/2 disjoint payment pairs driven concurrently.
//! The thread count stays a constant few whatever the node count,
//! recorded as `reactor_nodes{n}_runtime_threads`.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;
use teechain::live::{LiveCluster, LiveConfig};
use teechain::types::ChannelId;
use teechain_bench::report::{fmt_thousands, BenchJson, Table};
use teechain_bench::trace_out::TraceSink;
use teechain_net::Histogram;

/// Results of one measured phase.
struct Phase {
    throughput: f64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    completed: u64,
    latencies: Histogram,
    op_errors: BTreeMap<String, u64>,
}

/// Drives `total` unit payments over `chan` from node 0, keeping up to
/// `window` in flight, draining the published completion stream — so
/// the cluster's memory stays proportional to the window, not to how
/// many payments the measurement has pushed through.
fn run_payments(net: &LiveCluster, chan: ChannelId, total: usize, window: usize) -> Phase {
    let mut issue_ns: HashMap<u64, u64> = HashMap::new();
    let mut submitted = 0usize;
    let mut resolved = 0usize;
    let mut completed = 0u64;
    let mut first_issue = u64::MAX;
    let mut last_done = 0u64;
    let mut latencies = Histogram::new();
    let mut op_errors: BTreeMap<String, u64> = BTreeMap::new();
    while resolved < total {
        while issue_ns.len() < window && submitted < total {
            let t = net.now_ns();
            let p = net.submit_pay(0, chan, 1);
            first_issue = first_issue.min(t);
            issue_ns.insert(p.op.seq, t);
            submitted += 1;
        }
        let fresh = net.take_completions(0);
        if fresh.is_empty() {
            std::thread::sleep(Duration::from_micros(50));
            continue;
        }
        for c in fresh {
            let Some(t0) = issue_ns.remove(&c.op.seq) else {
                continue; // Setup noise, not one of ours.
            };
            resolved += 1;
            last_done = last_done.max(c.time_ns);
            match c.outcome {
                Ok(_) => {
                    completed += 1;
                    latencies.record(c.time_ns.saturating_sub(t0));
                }
                Err(e) => {
                    *op_errors.entry(e.label()).or_insert(0) += 1;
                }
            }
        }
    }
    let duration_ns = last_done.saturating_sub(first_issue).max(1);
    Phase {
        throughput: completed as f64 / (duration_ns as f64 / 1e9),
        mean_ms: latencies.mean() / 1e6,
        p50_ms: latencies.p50() as f64 / 1e6,
        p99_ms: latencies.p99() as f64 / 1e6,
        completed,
        latencies,
        op_errors,
    }
}

/// Drives `total_each` unit payments over every pair in `pairs`
/// concurrently, keeping up to `window_each` in flight per pair — the
/// nodes-axis workload: aggregate throughput across n/2 disjoint
/// channels instead of one hot channel.
fn run_mesh_payments(
    net: &LiveCluster,
    pairs: &[(usize, ChannelId)],
    total_each: usize,
    window_each: usize,
) -> Phase {
    let mut issue_ns: HashMap<(usize, u64), u64> = HashMap::new();
    let mut submitted = vec![0usize; pairs.len()];
    let mut inflight = vec![0usize; pairs.len()];
    let mut resolved = 0usize;
    let total = total_each * pairs.len();
    let mut completed = 0u64;
    let mut first_issue = u64::MAX;
    let mut last_done = 0u64;
    let mut latencies = Histogram::new();
    let mut op_errors: BTreeMap<String, u64> = BTreeMap::new();
    while resolved < total {
        for (k, &(payer, chan)) in pairs.iter().enumerate() {
            while inflight[k] < window_each && submitted[k] < total_each {
                let t = net.now_ns();
                let p = net.submit_pay(payer, chan, 1);
                first_issue = first_issue.min(t);
                issue_ns.insert((payer, p.op.seq), t);
                submitted[k] += 1;
                inflight[k] += 1;
            }
        }
        let mut progressed = false;
        for (k, &(payer, _)) in pairs.iter().enumerate() {
            for c in net.take_completions(payer) {
                let Some(t0) = issue_ns.remove(&(payer, c.op.seq)) else {
                    continue; // Setup noise, not one of ours.
                };
                inflight[k] -= 1;
                resolved += 1;
                progressed = true;
                last_done = last_done.max(c.time_ns);
                match c.outcome {
                    Ok(_) => {
                        completed += 1;
                        latencies.record(c.time_ns.saturating_sub(t0));
                    }
                    Err(e) => {
                        *op_errors.entry(e.label()).or_insert(0) += 1;
                    }
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let duration_ns = last_done.saturating_sub(first_issue).max(1);
    Phase {
        throughput: completed as f64 / (duration_ns as f64 / 1e9),
        mean_ms: latencies.mean() / 1e6,
        p50_ms: latencies.p50() as f64 / 1e6,
        p99_ms: latencies.p99() as f64 / 1e6,
        completed,
        latencies,
        op_errors,
    }
}

/// One nodes-axis sweep point: an `n`-node reactor cluster, one funded
/// channel per (2k, 2k+1) pair, aggregate windowed payments.
fn measure_reactor_nodes(n: usize, aggregate_total: usize, table: &mut Table, doc: &mut BenchJson) {
    let net = LiveCluster::over_reactor(LiveConfig {
        n,
        seed: 0x11FE,
        ..LiveConfig::default()
    })
    .expect("bind reactor listener");
    let pairs: Vec<(usize, ChannelId)> = (0..n / 2)
        .map(|k| {
            let chan =
                net.standard_channel(2 * k, 2 * k + 1, &format!("sweep-{k}"), u64::MAX / 4, 1);
            (2 * k, chan)
        })
        .collect();
    let total_each = (aggregate_total / pairs.len()).max(2);
    let window_each = 4usize;
    let tp = run_mesh_payments(&net, &pairs, total_each, window_each);
    let name = format!("reactor/{n}n");
    table.row(&[
        name,
        fmt_thousands(tp.throughput),
        format!("{:.3}", tp.mean_ms),
        format!("{:.3}", tp.p50_ms),
        format!("{:.3}", tp.p99_ms),
        tp.completed.to_string(),
        (window_each * pairs.len()).to_string(),
    ]);
    doc.metric(&format!("reactor_nodes{n}_throughput_tx_s"), tp.throughput)
        .metric(&format!("reactor_nodes{n}_latency_mean_ms"), tp.mean_ms)
        .metric(&format!("reactor_nodes{n}_latency_p99_ms"), tp.p99_ms)
        .metric(&format!("reactor_nodes{n}_completed"), tp.completed)
        .metric(
            &format!("reactor_nodes{n}_runtime_threads"),
            net.runtime_threads(),
        )
        .latency_hist(&format!("payment_reactor_nodes{n}_windowed"), &tp.latencies)
        .op_errors(&tp.op_errors);
    assert_eq!(
        tp.completed,
        (total_each * pairs.len()) as u64,
        "reactor/{n}n: every live payment must complete successfully"
    );
    net.shutdown();
}

fn measure(
    name: &str,
    net: &LiveCluster,
    lat_payments: usize,
    tp_payments: usize,
    window: usize,
    table: &mut Table,
    doc: &mut BenchJson,
) {
    let chan = net.standard_channel(0, 1, &format!("live-{name}"), u64::MAX / 4, 1);
    let lat = run_payments(net, chan, lat_payments, 1);
    let tp = run_payments(net, chan, tp_payments, window);
    table.row(&[
        name.into(),
        fmt_thousands(tp.throughput),
        format!("{:.3}", lat.mean_ms),
        format!("{:.3}", lat.p50_ms),
        format!("{:.3}", lat.p99_ms),
        tp.completed.to_string(),
        window.to_string(),
    ]);
    doc.metric(&format!("{name}_throughput_tx_s"), tp.throughput)
        .metric(&format!("{name}_latency_mean_ms"), lat.mean_ms)
        .metric(&format!("{name}_latency_p50_ms"), lat.p50_ms)
        .metric(&format!("{name}_latency_p99_ms"), lat.p99_ms)
        .metric(&format!("{name}_completed"), tp.completed + lat.completed)
        .latency_hist(&format!("payment_{name}_seq"), &lat.latencies)
        .latency_hist(&format!("payment_{name}_windowed"), &tp.latencies)
        .op_errors(&lat.op_errors)
        .op_errors(&tp.op_errors);
    assert_eq!(
        tp.completed + lat.completed,
        (lat_payments + tp_payments) as u64,
        "{name}: every live payment must complete successfully"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (lat_payments, tp_payments, window) = if quick {
        (200, 2_000, 64)
    } else {
        (1_000, 20_000, 64)
    };
    let mut table = Table::new(
        "Live execution: real threads, sockets and clocks (this machine, not the paper's testbed)",
        &[
            "Run",
            "Throughput (tx/s)",
            "Latency ms",
            "[p50]",
            "[p99]",
            "Completed",
            "Window",
        ],
    );
    let mut doc = BenchJson::new("live");
    doc.metric("quick", if quick { 1u64 } else { 0u64 })
        .metric(
            "host_parallelism",
            std::thread::available_parallelism().map_or(0, |p| p.get()),
        )
        .metric("window", window)
        .metric("latency_payments", lat_payments)
        .metric("throughput_payments", tp_payments);

    // --trace-out records the two-node run (wall-clock timestamps; the
    // flow arrows cross real sockets).
    let sink = TraceSink::from_args();
    let reactor = LiveCluster::over_reactor(LiveConfig {
        n: 2,
        seed: 0x11FE,
        tracing: sink.active(),
        ..LiveConfig::default()
    })
    .expect("bind reactor listener");
    measure(
        "reactor",
        &reactor,
        lat_payments,
        tp_payments,
        window,
        &mut table,
        &mut doc,
    );
    sink.write(&reactor.drain_trace());
    reactor.shutdown();

    // The nodes axis: the scheduler's thread count stays constant.
    let aggregate_total = if quick { 2_000 } else { 10_000 };
    for n in [10usize, 100, 1_000] {
        measure_reactor_nodes(n, aggregate_total, &mut table, &mut doc);
    }

    table.print();
    doc.table(&table).write().expect("bench json");
}
