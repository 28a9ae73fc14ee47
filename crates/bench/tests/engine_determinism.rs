//! The determinism suite: a fixed-seed cluster — setup, payments,
//! everything — produces identical `SimStats`, latency histograms and
//! final enclave balances for shard counts 1, 2 and 8.
//!
//! The compared shard counts come from `TEECHAIN_SHARDS` (a comma list,
//! default `1,2,8`); CI runs a matrix over pairs so a regression names
//! the offending count. The list is read once and the variable cleared
//! for the runs, since every harness reads it as a single shard count.

use teechain::ops::Completion;
use teechain_bench::report::fmt_thousands;
use teechain_bench::scenarios::{build_sparse_network, scale_jobs, wan_100ms};
use teechain_net::topology::HubSpoke;
use teechain_net::SimStats;

/// Everything observable about one end-to-end run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    completed: u64,
    queued: u64,
    batches: u64,
    batched_payments: u64,
    max_batch: u64,
    rerouted: u64,
    duration_ns: u64,
    sim_stats: SimStats,
    now_ns: u64,
    /// Latency samples in collection order (exact, not summarized).
    latencies: Vec<u64>,
    /// (channel, node, my_bal, remote_bal) for both ends of every
    /// channel, in deterministic order.
    balances: Vec<(u32, u64, u64)>,
    /// The merged completion stream of the measured phase: operation
    /// ids, outcomes AND times must be identical for any shard count.
    completions: Vec<Completion>,
    /// Per-node swap phase-transition counters
    /// (init, locked, redeemed, refunded): the cross-chain swap state
    /// machine — timers, alternate-chain mining, secret reveal — must
    /// schedule identically under every engine configuration.
    swap_phases: Vec<(u64, u64, u64, u64)>,
}

/// Builds the cluster AND runs the workload entirely under
/// `sharded:<shards>` (via the env knob every harness honors), then
/// fingerprints the world.
fn run_at(shards: usize) -> Fingerprint {
    std::env::set_var("TEECHAIN_ENGINE", format!("sharded:{shards}"));
    // A shrunk Fig. 5 overlay (same three-tier shape as paper_default,
    // fewer leaves) so three full setups stay fast in debug builds.
    let hs = HubSpoke {
        tier1: 3,
        tier2: 9,
        tier3: 9,
    };
    let mut net = build_sparse_network(&hs, wan_100ms(), 1234, 2);
    let jobs = scale_jobs(&net, &hs, 300, 99);
    for (i, j) in jobs {
        net.cluster.load(i, j, 8);
    }
    // Record the measured phase's completion streams: every operation's
    // terminal outcome (id, result, timestamp) must be bit-identical
    // across shard counts, like any other event.
    net.cluster.set_record_completions(true);
    let stats = net.cluster.run(50_000_000);
    // Swap phase: a deterministic batch of cross-chain swaps over the
    // first few channels — one of them griefed (that responder's host
    // never funds the HTLC) so the deadline-refund timers are part of
    // the fingerprint too. All channels share the hub as initiator, so
    // the grief knob must sit on a responder to hit exactly one swap.
    {
        let mut keys: Vec<_> = net.channels.keys().copied().collect();
        keys.sort();
        for (idx, key) in keys.iter().take(6).enumerate() {
            let chan = net.channels[key][0];
            let from = key.0 .0 as usize;
            if idx == 0 {
                net.cluster
                    .node_mut(key.1 .0 as usize)
                    .swap_withhold_funding = true;
            }
            net.cluster.submit(
                from,
                teechain::enclave::Command::Swap {
                    swap: teechain::types::SwapId::from_label(&format!("det-swap-{idx}")),
                    channel: chan,
                    amount: 1,
                    alt_amount: 2,
                    // Roomy timelock: the six swaps share one alternate
                    // chain, and the enclave refuses locks whose refund
                    // path is near maturity (confirmations accrue with
                    // every concurrent mint/claim block).
                    timeout_blocks: 144,
                },
            );
        }
        net.cluster.settle_network();
    }
    let mut swap_phases = Vec::new();
    for i in 0..net.cluster.sim.len() {
        let r = net.cluster.node(i).registry();
        swap_phases.push((
            r.counter_value("swap.phase.init"),
            r.counter_value("swap.phase.locked"),
            r.counter_value("swap.phase.redeemed"),
            r.counter_value("swap.phase.refunded"),
        ));
    }
    let mut latencies = Vec::new();
    for i in 0..net.cluster.sim.len() {
        let node = net.cluster.sim.node(teechain_net::NodeId(i as u32));
        latencies.extend_from_slice(node.stats.latencies.samples());
    }
    let mut balances = Vec::new();
    let mut keys: Vec<_> = net.channels.keys().copied().collect();
    keys.sort();
    for key in keys {
        for chan in &net.channels[&key] {
            for node in [key.0, key.1] {
                let c = net
                    .cluster
                    .node(node.0 as usize)
                    .enclave
                    .program()
                    .and_then(|p| p.channel(chan))
                    .expect("channel exists on both ends");
                balances.push((node.0, c.my_bal, c.remote_bal));
            }
        }
    }
    Fingerprint {
        completed: stats.completed,
        queued: stats.queued,
        batches: stats.batches,
        batched_payments: stats.batched_payments,
        max_batch: stats.max_batch,
        rerouted: stats.rerouted,
        duration_ns: stats.duration_ns,
        sim_stats: net.cluster.sim.stats(),
        now_ns: net.cluster.sim.now_ns(),
        latencies,
        balances,
        completions: net.cluster.completion_log(),
        swap_phases,
    }
}

#[test]
fn fixed_seed_run_is_identical_across_shard_counts() {
    let prev_engine = std::env::var("TEECHAIN_ENGINE").ok();
    let prev_shards = std::env::var("TEECHAIN_SHARDS").ok();
    let counts: Vec<usize> = match &prev_shards {
        Some(v) => v
            .split(',')
            .map(|s| match s.trim().parse() {
                Ok(n) if n > 0 => n,
                _ => panic!("TEECHAIN_SHARDS={v:?}: expected a comma list of shard counts"),
            })
            .collect(),
        None => vec![1, 2, 8],
    };
    std::env::remove_var("TEECHAIN_SHARDS");

    let baseline = run_at(counts[0]);
    assert!(
        baseline.completed >= 250,
        "workload barely ran: {} completed",
        baseline.completed
    );
    assert!(!baseline.latencies.is_empty());
    assert!(
        baseline.completions.len() as u64 >= baseline.completed,
        "every logical payment resolves through a completion"
    );
    // The swap batch exercised every terminal path: at least one redeem
    // (cooperative) and at least one refund (the griefed channel).
    assert!(
        baseline.swap_phases.iter().any(|p| p.2 > 0),
        "no swap redeemed: {:?}",
        baseline.swap_phases
    );
    assert!(
        baseline.swap_phases.iter().any(|p| p.3 > 0),
        "no swap refunded: {:?}",
        baseline.swap_phases
    );
    println!(
        "baseline (sharded:{}): {} payments, {} events, {} queued, {} batches",
        counts[0],
        baseline.completed,
        fmt_thousands(baseline.sim_stats.events as f64),
        baseline.queued,
        baseline.batches,
    );
    // Every other shard count: the full fingerprint — completion
    // stream, latency samples, balances, clocks — must be bit-for-bit
    // identical.
    for &shards in &counts[1..] {
        assert_eq!(
            run_at(shards),
            baseline,
            "sharded:{shards} diverged from sharded:{}",
            counts[0]
        );
    }

    match prev_engine {
        Some(v) => std::env::set_var("TEECHAIN_ENGINE", v),
        None => std::env::remove_var("TEECHAIN_ENGINE"),
    }
    if let Some(v) = prev_shards {
        std::env::set_var("TEECHAIN_SHARDS", v);
    }
}
