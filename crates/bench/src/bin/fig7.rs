//! Fig. 7: throughput with temporary channels — tier-1/tier-2 edges get
//! G parallel channels, relieving lock contention (§5.2).

use teechain::testkit::Harness;
use teechain_bench::report::{fmt_thousands, BenchJson, JsonValue, Table};
use teechain_bench::scenarios::{build_network, hub_spoke_jobs, wan_100ms};
use teechain_bench::trace_out::TraceSink;
use teechain_net::topology::HubSpoke;
use teechain_net::Histogram;
use teechain_trace::TraceEvent;

type OpErrors = std::collections::BTreeMap<String, u64>;
type Latency = std::collections::BTreeMap<String, Histogram>;

fn run(
    committee_n: usize,
    g: usize,
    payments: usize,
    seed: u64,
    errs: &mut OpErrors,
    lat: &mut Latency,
    trace: Option<&mut Vec<TraceEvent>>,
) -> f64 {
    let hs = HubSpoke::paper_default();
    let edges = hs.channel_pairs();
    // Temporary channels on tier1-tier1, tier1-tier2 edges only: tier-3
    // users are unlikely to post extra collateral (§7.4).
    let mut net = build_network(
        hs.total() as usize,
        &edges,
        1,
        committee_n - 1,
        wan_100ms(),
        seed,
    );
    if g > 1 {
        // Add G-1 extra channels per upper-tier edge.
        let upper: Vec<_> = edges
            .iter()
            .filter(|(a, b)| hs.tier_of(*a) <= 2 && hs.tier_of(*b) <= 2)
            .copied()
            .collect();
        for &(a, b) in &upper {
            let (a_i, b_i) = (a.0 as usize, b.0 as usize);
            for extra in 1..g {
                let label = format!("tmp{}-{}-{}", a.0, b.0, extra);
                let chan = net
                    .cluster
                    .standard_channel(a_i, b_i, &label, 1_000_000_000, 1);
                // Fund the reverse side too: payments flow both ways over
                // temporary channels (one-sided funding made any payment
                // routed the other way fail and retry forever).
                let dep = net.cluster.fund_deposit(b_i, 1_000_000_000, 1);
                net.cluster.approve_and_associate(b_i, a_i, chan, &dep);
                let key = if a <= b { (a, b) } else { (b, a) };
                net.channels.get_mut(&key).expect("edge exists").push(chan);
            }
        }
    }
    let jobs = hub_spoke_jobs(&net, &hs, payments, 1, seed);
    for (i, j) in jobs {
        net.cluster.load(i, j, 16);
    }
    if trace.is_some() {
        net.cluster.set_tracing(true);
    }
    let stats = net.cluster.run(3_000_000_000);
    for (label, n) in net.cluster.op_errors() {
        *errs.entry(label).or_insert(0) += n;
    }
    for (kind, h) in net.cluster.latency_by_kind() {
        lat.entry(kind).or_default().merge(&h);
    }
    if let Some(events) = trace {
        *events = net.cluster.drain_trace();
    }
    stats.throughput
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let gs: Vec<usize> = if quick { vec![1, 4] } else { vec![1, 2, 4, 8] };
    let payments = if quick { 600 } else { 2000 };
    let ns: Vec<usize> = if quick { vec![1] } else { vec![1, 2] };
    let mut table = Table::new(
        "Fig. 7: throughput (tx/s) with G temporary channels",
        &["G", "n=1 (no FT)", "n=2 (one replica)"],
    );
    let sink = TraceSink::from_args();
    let mut trace = Vec::new();
    let mut errs = OpErrors::new();
    let mut lat = Latency::new();
    let mut points: Vec<(usize, usize, f64)> = Vec::new();
    for &g in &gs {
        let mut cells = vec![g.to_string()];
        for &n in &ns {
            // --trace-out records the G=1 n=1 baseline (reroutes appear
            // in later G sweeps but the baseline stays readable).
            let want_trace = sink.active() && g == gs[0] && n == ns[0];
            let tps = run(
                n,
                g,
                payments,
                7 + g as u64,
                &mut errs,
                &mut lat,
                if want_trace { Some(&mut trace) } else { None },
            );
            points.push((g, n, tps));
            cells.push(fmt_thousands(tps));
        }
        while cells.len() < 3 {
            cells.push("-".into());
        }
        table.row(&cells);
    }
    table.print();
    let mut doc = BenchJson::new("fig7");
    doc.metric("payments_per_run", payments)
        .metric("quick", JsonValue::Bool(quick));
    for &(g, n, tps) in &points {
        doc.metric(&format!("tx_per_s_g{g}_n{n}"), tps);
    }
    // Headline scaling ratio the paper's Fig. 7 is about: throughput at
    // the largest measured G over the G=1 baseline (both at n=1).
    let base = points.iter().find(|&&(g, n, _)| g == 1 && n == 1);
    let top = points
        .iter()
        .filter(|&&(_, n, _)| n == 1)
        .max_by_key(|&&(g, _, _)| g);
    if let (Some(&(_, _, b)), Some(&(gmax, _, t))) = (base, top) {
        if b > 0.0 && gmax > 1 {
            doc.metric(&format!("scaling_g{gmax}_over_g1"), t / b);
        }
    }
    sink.write(&trace);
    doc.op_errors(&errs).latency(&lat);
    doc.table(&table).write().expect("bench json");
    println!("\nPaper: near-linear scaling in G with diminishing returns (tier-3 congestion).");
}
