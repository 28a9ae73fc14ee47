//! Cross-chain atomic swap bench: throughput and per-phase latency of
//! `core::swap` end to end — HTLC lock on the shared alternate chain,
//! in-enclave secret reveal, WAL-committed phase transitions.
//!
//! Swaps run in parallel across independent channel pairs over a WAN
//! link, sequentially per channel (the enclave admits one swap per
//! channel at a time). One responder griefs every round by never
//! funding its HTLC, so the deadline-refund path is part of the
//! measured workload, not just the happy path.
//!
//! Run with `--quick` for a reduced sweep. Emits `BENCH_swap.json`:
//! per-configuration swap throughput, the `swap.latency.*` per-phase
//! histograms (init→locked, locked→terminal, end-to-end) and the
//! `stuck_swaps` metric the CI trend gate pins at zero.

use std::collections::BTreeMap;

use teechain::driver::CostModel;
use teechain::enclave::Command;
use teechain::ops::Pending;
use teechain::swap::SwapOutcome;
use teechain::testkit::{ClusterConfig, Harness};
use teechain::types::SwapId;
use teechain::{DurabilityBackend, PersistPolicy};
use teechain_bench::harness::BenchCluster;
use teechain_bench::report::{fmt_thousands, BenchJson, Table};
use teechain_bench::scenarios::wan_100ms;
use teechain_net::{Histogram, NodeId};

/// One durability configuration's results.
struct Row {
    redeemed: u64,
    refunded: u64,
    swaps_per_s: f64,
    /// Max swaps still pending on any node at quiescence (must be 0).
    stuck: u64,
}

/// Runs `rounds` swap rounds over `pairs` independent channels: each
/// round submits one swap per channel (the last pair griefed — its
/// responder never funds, so the swap deadline-refunds) and resolves
/// them all before the next.
fn run_config(
    durability: DurabilityBackend,
    pairs: usize,
    rounds: usize,
    seed: u64,
    lat: &mut BTreeMap<String, Histogram>,
) -> Row {
    let mut c = BenchCluster::new(ClusterConfig {
        n: pairs * 2,
        costs: CostModel::default(),
        durability,
        default_link: wan_100ms(),
        seed,
        ..ClusterConfig::default()
    });
    let chans: Vec<_> = (0..pairs)
        .map(|p| c.standard_channel(2 * p, 2 * p + 1, &format!("swap-bench-{p}"), 10_000, 1))
        .collect();
    // The griefing responder: withholds HTLC funding on every round.
    c.sim
        .node_mut(NodeId((pairs * 2 - 1) as u32))
        .host
        .node
        .swap_withhold_funding = true;
    let t0 = c.sim.now_ns();
    let (mut redeemed, mut refunded) = (0u64, 0u64);
    for r in 0..rounds {
        let pends: Vec<Pending<SwapOutcome>> = (0..pairs)
            .map(|p| {
                let op = c.submit(
                    2 * p,
                    Command::Swap {
                        swap: SwapId::from_label(&format!("bench-{seed}-{p}-{r}")),
                        channel: chans[p],
                        amount: 1,
                        alt_amount: 2,
                        // Generous timelock: swaps share one alternate
                        // chain that grows with every concurrent HTLC
                        // mint and claim, and the enclave refuses to
                        // redeem a lock whose refund path is near
                        // maturity — a tight timeout here would measure
                        // refusals, not throughput.
                        timeout_blocks: 144,
                    },
                );
                Pending::new(op)
            })
            .collect();
        for p in pends {
            match c.wait(p) {
                Ok(out) if out.redeemed => redeemed += 1,
                Ok(_) => refunded += 1,
                Err(e) => panic!("swap operation died: {e:?}"),
            }
        }
    }
    c.settle_network();
    let secs = (c.sim.now_ns() - t0) as f64 / 1e9;
    let snap = c.observe();
    let stuck = snap.gauges.get("swap.pending").copied().unwrap_or(0);
    for i in 0..c.sim.len() {
        for (name, h) in c
            .sim
            .node(NodeId(i as u32))
            .host
            .node
            .swap_phase_latencies()
        {
            lat.entry(name).or_default().merge(&h);
        }
    }
    Row {
        redeemed,
        refunded,
        swaps_per_s: (redeemed + refunded) as f64 / secs,
        stuck,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (pairs, rounds) = if quick { (4, 3) } else { (16, 8) };
    let (p_pairs, p_rounds) = if quick { (2, 2) } else { (4, 4) };
    let mut lat = BTreeMap::new();
    let mut table = Table::new(
        "Cross-chain atomic swaps over a WAN link (one griefed channel per config)",
        &["Configuration", "Redeemed", "Refunded", "Swaps/s"],
    );
    let configs = [
        (
            "No fault tolerance",
            DurabilityBackend::None,
            pairs,
            rounds,
            4111u64,
        ),
        (
            "Stable storage (WAL + group commit)",
            DurabilityBackend::Persist(PersistPolicy { snapshot_every: 64 }),
            p_pairs,
            p_rounds,
            4112u64,
        ),
    ];
    let mut rows = Vec::new();
    for (name, durability, pr, rd, seed) in configs {
        let row = run_config(durability, pr, rd, seed, &mut lat);
        assert_eq!(row.stuck, 0, "{name}: swaps stuck at quiescence");
        assert!(row.redeemed > 0, "{name}: no swap redeemed");
        assert!(row.refunded > 0, "{name}: griefed channel never refunded");
        table.row(&[
            name.into(),
            row.redeemed.to_string(),
            row.refunded.to_string(),
            fmt_thousands(row.swaps_per_s),
        ]);
        rows.push((name, row));
    }
    table.print();

    let mut doc = BenchJson::new("swap");
    let totals = rows.iter().fold((0u64, 0u64, 0u64), |acc, (_, r)| {
        (acc.0 + r.redeemed, acc.1 + r.refunded, acc.2 + r.stuck)
    });
    doc.metric("quick", u64::from(quick))
        .metric("swaps_redeemed", totals.0)
        .metric("swaps_refunded", totals.1)
        .metric("swaps_completed", totals.0 + totals.1)
        .metric("stuck_swaps", totals.2)
        .metric("swaps_per_s_none", rows[0].1.swaps_per_s)
        .metric("swaps_per_s_wal", rows[1].1.swaps_per_s)
        .latency(&lat);
    doc.table(&table).write().expect("bench json");
}
