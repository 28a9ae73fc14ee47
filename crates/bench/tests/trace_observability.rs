//! Observability acceptance suite for `teechain-trace` (ISSUE 7).
//!
//! Three properties, each load-bearing for the tracing design:
//!
//! 1. **Passivity** — the flight recorder derives every span id from
//!    bytes both endpoints already see and never touches the simulated
//!    clock, RNG lanes or wire framing, so the completion history is
//!    identical with tracing on or off, at every shard count.
//! 2. **Reproducibility** — under the sim engine the merged trace
//!    stream (ordered by `(ts_ns, node)`) encodes to byte-identical
//!    buffers across reruns *and* across shard counts. A trace diff is
//!    therefore a behavior diff, never scheduler noise.
//! 3. **Causality** — a traced 3-hop multihop payment forms a single
//!    tree rooted at its `op_span`, on every substrate: the sim engine
//!    at one and at eight shards, the bench driver's cluster, live OS
//!    threads, live TCP sockets and the live reactor.
//!
//! A persistent-mode burst must also record a bounded number of events
//! per payment: the recorder sees every ecall, so a retry storm shows
//! here as a trace that grows with the burst.
//!
//! The chrome://tracing export is exercised end-to-end through the
//! hand-rolled JSON parser so the artifact `--trace-out` writes is known
//! to be well-formed with paired flow arrows.

use std::collections::BTreeSet;
use teechain::driver::CostModel;
use teechain::live::{LiveBackend, LiveCluster, LiveConfig};
use teechain::testkit::{Cluster, ClusterConfig, ClusterNode, Harness};
use teechain::types::ChannelId;
use teechain_bench::harness::BenchCluster;
use teechain_bench::report::JsonValue;
use teechain_bench::trace_out::chrome_trace_json;
use teechain_net::EngineKind;
use teechain_trace::{event, span, EventKind, SpanTree, TraceEvent};

/// One completion, reduced to the fields that must be engine- and
/// tracing-invariant.
type CompletionFp = (u64, u32, u64, bool);

/// Runs a fixed cross-traffic workload (bilateral pays on every hop of a
/// 5-node chain, concurrently with a 4-hop multihop) on the given
/// engine, with the flight recorder on or off. Returns the completion
/// fingerprint and the encoded trace bytes (empty when `tracing` is
/// off).
fn traced_run(engine: EngineKind, tracing: bool) -> (Vec<CompletionFp>, Vec<u8>) {
    // A 5 ms link, so the payments below are genuinely in flight at
    // the same time.
    let mut c = Cluster::new(ClusterConfig {
        n: 5,
        seed: 42,
        engine,
        default_link: teechain_net::LinkSpec {
            latency_ns: 5_000_000,
            jitter_frac: 0.0,
            bandwidth_bps: Some(1_000_000_000),
        },
        ..ClusterConfig::default()
    });
    let chans: Vec<ChannelId> = (0..4)
        .map(|i| c.standard_channel(i, i + 1, &format!("det-{i}"), 1_000_000, 1))
        .collect();
    c.set_tracing(tracing);

    // In-flight concurrency: one bilateral payment per hop plus the
    // multihop, all pending at once before the network settles.
    let pends: Vec<_> = (0..4)
        .map(|i| c.handle(i).pay(chans[i], 7 + i as u64))
        .collect();
    let mh = c
        .handle(0)
        .pay_multihop(&[0, 1, 2, 3, 4], &chans, 5, "det-route");
    c.settle_network();
    for p in pends {
        c.wait(p).expect("bilateral payment");
    }
    c.wait(mh).expect("multihop delivery");

    let fp = c
        .completion_log()
        .iter()
        .map(|comp| {
            (
                comp.time_ns,
                comp.op.node,
                comp.op.seq,
                comp.outcome.is_ok(),
            )
        })
        .collect();
    let bytes = event::encode_all(&c.drain_trace());
    (fp, bytes)
}

/// Tracing is passive (identical completions on vs off) and sim traces
/// are bit-reproducible (byte-identical across reruns and shard counts).
#[test]
fn tracing_is_passive_and_sim_traces_are_reproducible() {
    let engines = [
        EngineKind::Sharded { shards: 1 },
        EngineKind::Sharded { shards: 2 },
        EngineKind::Sharded { shards: 8 },
    ];
    let mut reference: Option<(Vec<CompletionFp>, Vec<u8>)> = None;
    for engine in engines {
        let (fp_on, bytes_on) = traced_run(engine, true);
        let (fp_off, bytes_off) = traced_run(engine, false);
        assert_eq!(
            fp_on, fp_off,
            "{engine:?}: completion history must not depend on tracing"
        );
        assert!(
            bytes_off.is_empty(),
            "{engine:?}: recorder off must stay silent"
        );
        assert!(
            !bytes_on.is_empty(),
            "{engine:?}: recorder on must capture events"
        );
        match &reference {
            None => reference = Some((fp_on, bytes_on)),
            Some((fp0, bytes0)) => {
                assert_eq!(
                    &fp_on, fp0,
                    "{engine:?}: completion history differs from one shard"
                );
                assert_eq!(
                    &bytes_on, bytes0,
                    "{engine:?}: trace bytes differ from one shard"
                );
            }
        }
    }
    // Rerun: same engine, same seed, same bytes.
    let (_, again) = traced_run(EngineKind::Sharded { shards: 2 }, true);
    assert_eq!(
        again,
        reference.expect("ran").1,
        "rerun must be byte-identical"
    );
}

/// Asserts the events form one causal tree rooted at the multihop's op
/// span, with frames crossing at least 3 wire hops and enclave entries
/// on all 4 path nodes.
fn assert_multihop_causality(events: &[TraceEvent], root: u64, substrate: &str) {
    let tree = SpanTree::build(events);
    assert!(
        tree.single_rooted_at(root),
        "{substrate}: expected a single causal tree rooted at the op span \
         ({} spans, {} reachable from root)",
        tree.len(),
        tree.reachable_from(root).len()
    );
    let wire_sends = events
        .iter()
        .filter(|e| e.kind == EventKind::WireSend)
        .count();
    assert!(
        wire_sends >= 3,
        "{substrate}: a 3-hop payment must cross >=3 wire frames, saw {wire_sends}"
    );
    let ecall_nodes: BTreeSet<u32> = events
        .iter()
        .filter(|e| e.kind == EventKind::Ecall)
        .map(|e| e.node)
        .collect();
    assert_eq!(
        ecall_nodes.len(),
        4,
        "{substrate}: every path node must enter its enclave, saw {ecall_nodes:?}"
    );
    let completes = events
        .iter()
        .filter(|e| e.kind == EventKind::OpComplete && e.span == root && e.a == 1)
        .count();
    assert_eq!(
        completes, 1,
        "{substrate}: exactly one successful completion of the op"
    );
}

/// Builds a 4-node / 3-channel chain, traces one 3-hop multihop, and
/// returns the drained events plus the payment's root span.
fn sim_multihop_trace<N: ClusterNode>(c: &mut Cluster<N>) -> (Vec<TraceEvent>, u64) {
    let chans: Vec<ChannelId> = (0..3)
        .map(|i| c.standard_channel(i, i + 1, &format!("hop-{i}"), 500_000, 1))
        .collect();
    // Recorder on only now: setup ops stay out of the trace, so the
    // multihop is the sole root.
    c.set_tracing(true);
    let p = c
        .handle(0)
        .pay_multihop(&[0, 1, 2, 3], &chans, 11, "causal-route");
    let root = span::op_span(p.op.node, p.op.seq);
    c.wait(p).expect("multihop delivery");
    (c.drain_trace(), root)
}

/// The 4-node cluster [`sim_multihop_trace`] runs on.
fn chain4(engine: EngineKind) -> ClusterConfig {
    ClusterConfig {
        n: 4,
        seed: 9,
        engine,
        ..ClusterConfig::default()
    }
}

fn sim_causality(engine: EngineKind, substrate: &str) {
    let (events, root) = sim_multihop_trace(&mut Cluster::new(chain4(engine)));
    assert_multihop_causality(&events, root, substrate);
}

#[test]
fn multihop_trace_is_single_rooted_sim_seq() {
    sim_causality(EngineKind::Sharded { shards: 1 }, "sim/sharded:1");
}

#[test]
fn multihop_trace_is_single_rooted_sim_sharded() {
    sim_causality(EngineKind::Sharded { shards: 8 }, "sim/sharded:8");
}

/// The bench driver's cluster mints its nodes like every other harness,
/// so each node stamps its own id on its events and ecall spans stay
/// distinct across nodes — the paper-figure traces are causal too.
#[test]
fn multihop_trace_is_single_rooted_bench_cluster() {
    let mut bench = BenchCluster::new(ClusterConfig {
        costs: CostModel::default(),
        ..chain4(EngineKind::from_env())
    });
    let (events, root) = sim_multihop_trace(&mut bench.0);
    assert_multihop_causality(&events, root, "bench");
}

/// Live variant: tracing must be enabled from launch (`LiveConfig`), so
/// the setup window is drained and discarded before the traced payment.
/// The multihop is then the only `OpSubmit` in the second window. Wire
/// spans must stitch across per-node sockets and threads exactly as
/// across the reactor's multiplexed pool and run-queue scheduler.
fn live_multihop_trace(backend: LiveBackend) {
    let substrate = format!("live/{backend:?}");
    let cfg = LiveConfig {
        n: 4,
        seed: 0x0B5,
        tracing: true,
        ..LiveConfig::default()
    };
    let cluster = LiveCluster::over(backend, cfg).expect("bind localhost listeners");
    let mut net = &cluster;
    let chans: Vec<ChannelId> = (0..3)
        .map(|i| net.standard_channel(i, i + 1, &format!("hop-{i}"), 500_000, 1))
        .collect();
    // Let remote nodes finish recording their setup-era events before
    // the discard, so no span in the payment window parents into it.
    std::thread::sleep(std::time::Duration::from_millis(200));
    net.drain_trace(); // Discard setup noise.

    net.pay_multihop(&[0, 1, 2, 3], &chans, 11, "causal-route")
        .expect("multihop delivery");
    std::thread::sleep(std::time::Duration::from_millis(200));
    let events = net.drain_trace();

    let submits: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::OpSubmit)
        .collect();
    assert_eq!(
        submits.len(),
        1,
        "{substrate}: the multihop must be the only submission in the traced window"
    );
    assert_multihop_causality(&events, submits[0].span, &substrate);
    cluster.shutdown();
}

#[test]
fn multihop_trace_is_single_rooted_live_threads() {
    live_multihop_trace(LiveBackend::Threads);
}

#[test]
fn multihop_trace_is_single_rooted_live_tcp() {
    live_multihop_trace(LiveBackend::Tcp);
}

#[test]
fn multihop_trace_is_single_rooted_live_reactor() {
    live_multihop_trace(LiveBackend::Reactor);
}

/// The chrome://tracing export round-trips through the hand-rolled JSON
/// parser, and every flow arrow that starts also finishes (wire frames
/// stitch sender to receiver; op flows stitch submit to completion).
#[test]
fn chrome_export_is_well_formed_with_paired_flows() {
    let (events, _) =
        sim_multihop_trace(&mut Cluster::new(chain4(EngineKind::Sharded { shards: 1 })));
    let doc = chrome_trace_json(&events);
    let parsed = JsonValue::parse(&doc.render()).expect("export must be valid JSON");
    let JsonValue::Arr(items) = parsed.get("traceEvents").expect("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(!items.is_empty());
    let mut starts: BTreeSet<String> = BTreeSet::new();
    let mut finishes: BTreeSet<String> = BTreeSet::new();
    for item in items {
        let ph = item.get("ph").and_then(JsonValue::as_str).expect("ph");
        let id = item.get("id").and_then(JsonValue::as_str);
        match ph {
            "s" => {
                starts.insert(id.expect("flow start id").to_string());
            }
            "f" => {
                finishes.insert(id.expect("flow finish id").to_string());
            }
            "i" => assert!(id.is_none(), "instants carry no flow id"),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(!starts.is_empty(), "a multihop trace must emit flow arrows");
    assert_eq!(
        starts, finishes,
        "every flow start must have a matching finish"
    );
}

/// A 64-payment burst in persistent mode, shaped like the benchmark's
/// WAL workload (free costs, ideal links, a snapshot every 8 commits). The
/// monotonic counter admits one commit per 100 ms window; the host's
/// throttle queue re-dispatches parked payments only until the counter
/// refuses one, so each window records a handful of events rather than a
/// refused ecall (queue exit, ecall, queue entry) per parked payment.
#[test]
fn persist_burst_records_a_bounded_trace_per_payment() {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        seed: 1,
        costs: CostModel::free(),
        default_link: teechain_net::LinkSpec::ideal(),
        durability: teechain::DurabilityBackend::persistent(),
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "wal-burst", 1 << 40, 1);
    c.set_tracing(true);
    let pends: Vec<_> = (0..64).map(|_| c.handle(0).pay(chan, 1)).collect();
    c.settle_network();
    for p in pends {
        c.wait(p).expect("payment");
    }
    let recorded = c.drain_trace().len() as u64;
    let dropped = c.observe().counters.get("trace.dropped").copied();
    let events = recorded + dropped.unwrap_or(0);
    assert!(
        events <= 20 * 64,
        "{events} trace events for 64 payments ({:.1} each)",
        events as f64 / 64.0
    );
}

/// `Cluster::observe` exposes the unified registry: ecall counters and
/// queue high-watermarks from the nodes, delivery counters from the
/// engine — with or without the flight recorder running.
#[test]
fn observe_merges_node_and_engine_metrics() {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        seed: 3,
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "obs", 10_000, 1);
    for _ in 0..5 {
        c.pay(0, chan, 1).expect("payment");
    }
    let snap = c.observe();
    assert!(
        snap.counters.get("node.completions").copied().unwrap_or(0) >= 5,
        "completion counter must accumulate: {:?}",
        snap.counters
    );
    assert!(
        snap.counters.get("sim.messages").copied().unwrap_or(0) > 0,
        "engine delivery counters must be merged in"
    );
    assert!(
        snap.gauges.contains_key("admit.queue_depth_hwm"),
        "admission high-watermark gauges must exist: {:?}",
        snap.gauges.keys().collect::<Vec<_>>()
    );
}
