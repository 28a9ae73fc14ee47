//! `scale`: multi-core engine scaling on a generated 10k+-node
//! hub-and-spoke WAN overlay — the Fig. 7-style workload grown far past
//! the paper's 30-machine testbed, used to measure multi-shard windows
//! against the one-shard baseline.
//!
//! Methodology: the topology is built at one shard (setup is inherently
//! serial harness work: handshakes, deposits, channel funding), then
//! re-partitioned (`ShardedEngine::repartition`) to the shard count under
//! test and loaded with the job mix. With `--quick`, whose runs last a
//! fifth of a second, every timed run starts from a fresh build, so it is
//! the same deterministic run each time: a shard count's wall clock is
//! the minimum over 5 repetitions, and the run stops if two repetitions
//! process different event or completion counts. A full run builds once
//! and measures every shard count on that cluster, each from the balances
//! the run before it left behind. The comparison metrics are completed
//! operations and events per wall-clock second.
//!
//! Real speedup needs real cores: `host_parallelism` is recorded in the
//! JSON artifact so a single-core CI runner's numbers are not mistaken
//! for a scaling regression.

use std::path::Path;
use std::time::Instant;
use teechain_bench::report::{fmt_thousands, BenchJson, JsonValue, Table};
use teechain_bench::scenarios::{build_sparse_network, scale_jobs, wan_100ms};
use teechain_bench::trace_out::TraceSink;
use teechain_net::topology::HubSpoke;
use teechain_net::{EngineKind, Histogram};

/// The artifact this run rewrites, read before any work. It keeps one
/// overlay row per node count, the committed 100k-node row among them,
/// so a run that found none would write the artifact without them: the
/// run stops instead.
fn prior_artifact(path: &Path) -> JsonValue {
    let text = std::fs::read_to_string(path).ok();
    if let Some(doc) = text.and_then(|t| JsonValue::parse(&t).ok()) {
        return doc;
    }
    eprintln!(
        "scale: no readable {} to keep the other overlay rows from (the \
         n100000 row among them); run from the repo root, set \
         TEECHAIN_BENCH_DIR to it, or copy the committed BENCH_scale.json there",
        path.display()
    );
    std::process::exit(2);
}

fn arg_val(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

struct ConfigRun {
    label: String,
    wall_s: f64,
    events: u64,
    completed: u64,
    queued: u64,
    batches: u64,
    batched_payments: u64,
    max_batch: u64,
    batch_hist: [u64; 16],
    rerouted: u64,
    queue_depth_hwm: u64,
    defer_depth_hwm: u64,
    defer_age_max_ns: u64,
    sim_throughput: f64,
}

impl ConfigRun {
    /// Engine events per wall-clock second.
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// Completed operations per wall-clock second: the work done, which a
    /// change that removes cheap events leaves alone.
    fn completed_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let nodes: u32 = arg_val("--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 600 } else { 10_032 });
    let payments: usize = arg_val("--payments")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2_000 } else { 20_000 });
    let shard_counts: Vec<usize> = arg_val("--shards")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| if quick { vec![2, 4] } else { vec![1, 2, 4, 8] });
    // Operating point: the in-enclave admission layer (per-channel op
    // queues + lock-aware selection over parallel temporary channels) is
    // what converts temp-channel and window headroom into throughput.
    // Before it, G=8/W=64 only amplified the ChannelLocked retry storm;
    // now the same sweep is storm-free, so the defaults sit at the
    // paper's Fig. 7 lever settings rather than the minimum.
    let temp_channels: usize = arg_val("--temp-channels")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let window: usize = arg_val("--window")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let seed = 77;
    let prior = prior_artifact(&BenchJson::new("scale").path());
    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let hs = HubSpoke::scaled(nodes);
    let edges = hs.channel_pairs();
    println!(
        "scale: {} nodes (tiers {}/{}/{}), {} edges (G={} on upper tiers), {} payments, \
         host parallelism {}",
        nodes,
        hs.tier1,
        hs.tier2,
        hs.tier3,
        edges.len(),
        temp_channels,
        payments,
        parallelism
    );

    let reps = if quick { 5 } else { 1 };
    let mut setup_s = 0.0;
    let mut built = None;

    // The one-shard row is the baseline every other row is compared to.
    let mut kinds = vec![EngineKind::Sharded { shards: 1 }];
    for &shards in shard_counts.iter().filter(|&&s| s != 1) {
        kinds.push(EngineKind::Sharded { shards });
    }
    let sink = TraceSink::from_args();
    let mut trace = Vec::new();
    let mut lat: std::collections::BTreeMap<String, Histogram> = Default::default();
    let mut runs: Vec<ConfigRun> = Vec::new();
    let mut op_errors_all: Vec<std::collections::BTreeMap<String, u64>> = Vec::new();
    let last_kind = kinds.len() - 1;
    for (k, kind) in kinds.into_iter().enumerate() {
        let label = kind.to_string();
        let mut best: Option<ConfigRun> = None;
        for rep in 0..reps {
            if quick || built.is_none() {
                let t0 = Instant::now();
                let net = build_sparse_network(&hs, wan_100ms(), seed, temp_channels);
                if k == 0 && rep == 0 {
                    setup_s = t0.elapsed().as_secs_f64();
                    println!("setup ({}): {setup_s:.1}s", net.cluster.sim.kind());
                }
                built = Some(net);
            }
            let net = built.as_mut().expect("built above");
            net.cluster.sim.repartition(kind);
            for (i, j) in scale_jobs(net, &hs, payments, seed) {
                net.cluster.load(i, j, window);
            }
            // --trace-out records the last (most-sharded) configuration:
            // the merged stream is identical across shard counts, so any
            // one run is representative — the last keeps setup noise out.
            let first = rep == 0;
            let want_trace = sink.active() && k == last_kind && first;
            if want_trace {
                net.cluster.set_tracing(true);
            }
            let ev0 = net.cluster.sim.stats().events;
            let t = Instant::now();
            let stats = net.cluster.run(2_000_000_000);
            let wall_s = t.elapsed().as_secs_f64();
            let events = net.cluster.sim.stats().events - ev0;
            if first {
                op_errors_all.push(net.cluster.op_errors());
                for (kind_label, h) in net.cluster.latency_by_kind() {
                    lat.entry(kind_label).or_default().merge(&h);
                }
            }
            if want_trace {
                trace = net.cluster.drain_trace();
            }
            let run = ConfigRun {
                label: label.clone(),
                wall_s,
                events,
                completed: stats.completed,
                queued: stats.queued,
                batches: stats.batches,
                batched_payments: stats.batched_payments,
                max_batch: stats.max_batch,
                batch_hist: stats.batch_hist,
                rerouted: stats.rerouted,
                queue_depth_hwm: stats.queue_depth_hwm,
                defer_depth_hwm: stats.defer_depth_hwm,
                defer_age_max_ns: stats.defer_age_max_ns,
                sim_throughput: stats.throughput,
            };
            if first {
                println!(
                    "{label:>10}: {events} events, {} completed, {} queued, {} rerouted, \
                     {} batches (max {}), {:.0}ms mean / {:.0}ms p99, {:.1}s sim span",
                    stats.completed,
                    stats.queued,
                    stats.rerouted,
                    stats.batches,
                    stats.max_batch,
                    stats.mean_ms,
                    stats.p99_ms,
                    stats.duration_ns as f64 / 1e9,
                );
            }
            if let Some(b) = &best {
                assert_eq!(
                    (run.events, run.completed),
                    (b.events, b.completed),
                    "{label}: repetition {rep} is not the run before it"
                );
            }
            if best.as_ref().is_none_or(|b| run.wall_s < b.wall_s) {
                best = Some(run);
            }
        }
        let run = best.expect("at least one repetition");
        println!(
            "{label:>10}: {:>6.2}s wall (min of {reps}), {} ev/s",
            run.wall_s,
            fmt_thousands(run.events_per_s()),
        );
        runs.push(run);
    }

    let base_ev_per_s = runs[0].events_per_s();
    // Honesty: on a single-CPU host the multi-/one-shard wall-clock ratio
    // measures window overhead, not parallel speedup — name it (and its
    // JSON keys) accordingly so CI artifacts from 1-core runners are
    // never mistaken for scaling claims.
    let multi_core = parallelism > 1;
    let ratio_header = if multi_core {
        "Speedup vs 1 shard"
    } else {
        "Wall ratio vs 1 shard (1 CPU)"
    };
    let ratio_key = if multi_core {
        "speedup_vs_1shard"
    } else {
        "wall_ratio_vs_1shard"
    };
    let mut table = Table::new(
        &format!("Scale: {nodes}-node hub-and-spoke, {payments} payments"),
        &[
            "Engine",
            "Wall (s)",
            "Events",
            "Events/s (wall)",
            ratio_header,
            "Sim tx/s",
        ],
    );
    let mut doc = BenchJson::new("scale");
    doc.metric("nodes", nodes as u64)
        .metric("edges", edges.len())
        .metric("temp_channels_upper", temp_channels)
        .metric("window", window)
        .metric("payments", payments)
        .metric("setup_s", setup_s)
        .metric("host_parallelism", parallelism)
        .metric("quick", JsonValue::Bool(quick));
    let mut configs = Vec::new();
    let mut best_speedup = 0.0f64;
    for (k, run) in runs.iter().enumerate() {
        let ev_per_s = run.events_per_s();
        let speedup = ev_per_s / base_ev_per_s.max(1e-9);
        best_speedup = best_speedup.max(if k == 0 { 0.0 } else { speedup });
        table.row(&[
            run.label.clone(),
            format!("{:.2}", run.wall_s),
            run.events.to_string(),
            fmt_thousands(ev_per_s),
            format!("{speedup:.2}x"),
            fmt_thousands(run.sim_throughput),
        ]);
        configs.push(JsonValue::Obj(vec![
            ("engine".into(), run.label.as_str().into()),
            ("host_parallelism".into(), parallelism.into()),
            ("wall_s".into(), run.wall_s.into()),
            ("events".into(), run.events.into()),
            ("events_per_s".into(), ev_per_s.into()),
            (ratio_key.into(), speedup.into()),
            ("completed".into(), run.completed.into()),
            ("completed_per_s".into(), run.completed_per_s().into()),
            ("queued".into(), run.queued.into()),
            ("batches".into(), run.batches.into()),
            ("batched_payments".into(), run.batched_payments.into()),
            ("max_batch".into(), run.max_batch.into()),
            ("rerouted".into(), run.rerouted.into()),
            ("queue_depth_hwm".into(), run.queue_depth_hwm.into()),
            ("defer_depth_hwm".into(), run.defer_depth_hwm.into()),
            ("defer_age_max_ns".into(), run.defer_age_max_ns.into()),
            (
                "batch_hist".into(),
                JsonValue::Arr(run.batch_hist.iter().map(|&n| n.into()).collect()),
            ),
            ("sim_throughput".into(), run.sim_throughput.into()),
        ]));
        if k > 0 && multi_core {
            doc.metric(&format!("speedup_at_{}", &run.label), speedup);
        }
    }
    table.print();
    // Admission pressure summary (enclave-lifetime high-watermark gauges,
    // so the max across configs is the whole measurement's peak).
    let queue_depth_hwm = runs.iter().map(|r| r.queue_depth_hwm).max().unwrap_or(0);
    let defer_depth_hwm = runs.iter().map(|r| r.defer_depth_hwm).max().unwrap_or(0);
    let defer_age_max_ns = runs.iter().map(|r| r.defer_age_max_ns).max().unwrap_or(0);
    println!(
        "\nadmission pressure: queue depth hwm {queue_depth_hwm}, defer depth hwm \
         {defer_depth_hwm}, oldest deferred message {:.0}ms",
        defer_age_max_ns as f64 / 1e6
    );
    for errs in &op_errors_all {
        doc.op_errors(errs);
    }
    // Aggregates across every engine configuration; CI smoke asserts the
    // admission queues keep `channel_locked_total` near zero.
    let locked_total: u64 = op_errors_all
        .iter()
        .flat_map(|m| m.iter())
        .filter(|(k, _)| k.contains("ChannelLocked"))
        .map(|(_, v)| *v)
        .sum();
    doc.metric("channel_locked_total", locked_total)
        .metric("queued_total", runs.iter().map(|r| r.queued).sum::<u64>())
        .metric(
            "rerouted_total",
            runs.iter().map(|r| r.rerouted).sum::<u64>(),
        )
        .metric("batches_total", runs.iter().map(|r| r.batches).sum::<u64>())
        .metric(
            "batched_payments_total",
            runs.iter().map(|r| r.batched_payments).sum::<u64>(),
        )
        .metric(
            "max_batch",
            runs.iter().map(|r| r.max_batch).max().unwrap_or(0),
        )
        .metric("queue_depth_hwm", queue_depth_hwm)
        .metric("defer_depth_hwm", defer_depth_hwm)
        .metric("defer_age_max_ns", defer_age_max_ns);
    // Trend-gate anchors: flat keys CI can diff against the committed
    // artifact without digging through the positional `configs` array.
    // CI gates the completed rates; the event rates are kept ungated.
    let best = |rate: fn(&ConfigRun) -> f64| runs.iter().map(rate).fold(0.0f64, f64::max);
    let best_ev_per_s = best(ConfigRun::events_per_s);
    doc.metric("completed_per_s_1shard", runs[0].completed_per_s())
        .metric("completed_per_s_best", best(ConfigRun::completed_per_s))
        .metric("events_per_s_1shard", base_ev_per_s)
        .metric("events_per_s_best", best_ev_per_s)
        .metric(&format!("best_{ratio_key}"), best_speedup);
    doc.metric("configs", JsonValue::Arr(configs));
    doc.latency(&lat);
    doc.table(&table);
    sink.write(&trace);

    // Per-overlay summary rows, merged across invocations: the
    // committed artifact keeps one row per node count (e.g. the 100k
    // overlay regenerated rarely, the quick 600 refreshed by CI)
    // instead of each run clobbering the others' results.
    let completed_total: u64 = runs.iter().map(|r| r.completed).sum();
    let overlay_row = JsonValue::Obj(vec![
        ("nodes".into(), (nodes as u64).into()),
        ("edges".into(), edges.len().into()),
        ("temp_channels_upper".into(), temp_channels.into()),
        ("payments".into(), payments.into()),
        ("setup_s".into(), setup_s.into()),
        ("host_parallelism".into(), parallelism.into()),
        ("events_per_s_1shard".into(), base_ev_per_s.into()),
        ("events_per_s_best".into(), best_ev_per_s.into()),
        (format!("best_{ratio_key}"), best_speedup.into()),
        ("completed_total".into(), completed_total.into()),
        ("channel_locked_total".into(), locked_total.into()),
    ]);
    let mut overlays: Vec<(String, JsonValue)> = prior
        .get("metrics")
        .and_then(|m| m.get("overlays"))
        .and_then(|o| match o {
            JsonValue::Obj(fields) => Some(fields.clone()),
            _ => None,
        })
        .unwrap_or_default();
    let row_key = format!("n{nodes}");
    overlays.retain(|(k, _)| k != &row_key);
    overlays.push((row_key, overlay_row));
    overlays.sort_by_key(|(k, _)| k[1..].parse::<u64>().unwrap_or(0));
    doc.metric("overlays", JsonValue::Obj(overlays.clone()));

    if std::env::args().any(|a| a == "--row-only") {
        // Record this run *only* as its overlay row, leaving the rest
        // of the committed artifact (the CI-regenerable quick baseline)
        // untouched — this is how the 100k-node row lands without
        // replacing the trend-gate anchors.
        let JsonValue::Obj(mut top) = prior else {
            panic!("BENCH_scale.json is not an object");
        };
        for (k, v) in &mut top {
            if k == "metrics" {
                let JsonValue::Obj(metrics) = v else { continue };
                metrics.retain(|(mk, _)| mk != "overlays");
                metrics.push(("overlays".into(), JsonValue::Obj(overlays.clone())));
            }
        }
        std::fs::write(doc.path(), JsonValue::Obj(top).render())
            .expect("write BENCH_scale.json (--row-only)");
        println!("wrote ./BENCH_scale.json (overlay row n{nodes} only)");
    } else {
        doc.write().expect("write BENCH_scale.json");
    }
    if parallelism == 1 {
        println!(
            "note: host exposes a single CPU; multi-shard rows differ from the \
             1-shard row only by window overhead, not by parallelism."
        );
    }
}
