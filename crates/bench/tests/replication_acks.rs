//! The committee chain's cumulative acks on Table 1's unbatched
//! one-replica configuration: every payment still goes down the chain as
//! its own update, while the tail acknowledges at most every
//! `ACK_EVERY`-th update plus once per drained input.

use teechain::replication::ACK_EVERY;
use teechain_bench::harness::Job;
use teechain_bench::scenarios::{fig3_pair, FtMode};

/// `(updates applied, acks sent, ack flushes)` of node `i`.
fn rep_counts(cluster: &teechain_bench::harness::BenchCluster, i: usize) -> (u64, u64, u64) {
    let snap = cluster.node(i).registry().snapshot();
    let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    (
        get("repl.updates_applied"),
        get("repl.acks_sent"),
        get("repl.ack_flushes"),
    )
}

#[test]
fn unbatched_one_replica_sends_every_payment_and_acks_at_most_every_bound() {
    // Table 1's throughput run, shorter: one pipelined load with an
    // unbounded window, so the tail has a backlog to drain.
    let (mut cluster, chan) = fig3_pair(FtMode::Replicas(1), 1234);
    let payments = 2_000u64;
    let jobs = (0..payments)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    let before: Vec<_> = [2, 3].map(|i| rep_counts(&cluster, i)).to_vec();
    cluster.load(0, jobs, 1_000_000);
    let stats = cluster.run(300_000_000);
    assert_eq!(stats.completed, payments);
    // Chains: payer 0 → tail 2, payee 1 → tail 3. Each payment commits
    // once at each end, so each tail applies one update per payment.
    for (k, tail) in [2, 3].into_iter().enumerate() {
        let (applied, acks, flushes) = rep_counts(&cluster, tail);
        let (applied0, acks0, flushes0) = before[k];
        let (applied, acks, flushes) = (applied - applied0, acks - acks0, flushes - flushes0);
        assert_eq!(applied, payments, "tail {tail}: one update per payment");
        // No ack covers more than the bound...
        assert!(
            acks * ACK_EVERY >= applied,
            "tail {tail}: {acks} acks for {applied} updates"
        );
        // ...and every other ack is a drained input.
        assert!(
            acks <= applied / ACK_EVERY + flushes,
            "tail {tail}: {acks} acks, {flushes} flushes, {applied} updates"
        );
        assert!(acks < applied, "tail {tail}: acks are not coalesced");
    }
}
