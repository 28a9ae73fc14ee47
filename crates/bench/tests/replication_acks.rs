//! The committee chain's cumulative acks and forwards on Table 1's
//! unbatched configurations: every payment still leaves the head as its
//! own update, while the tail acknowledges, and a middle member forwards,
//! at most every `ACK_EVERY`-th head update plus once per drained input.

use teechain::replication::ACK_EVERY;
use teechain_bench::harness::{BenchCluster, Job};
use teechain_bench::scenarios::{fig3_pair, sim_burst, FtMode};

const PAYMENTS: u64 = 2_000;

/// `(updates applied, sent, flushes)` of node `i`, with `sent` and
/// `flushes` the named counters.
fn rep_counts(cluster: &BenchCluster, i: usize, sent: &str, flushes: &str) -> (u64, u64, u64) {
    let snap = cluster.node(i).registry().snapshot();
    let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    (get("repl.updates_applied"), get(sent), get(flushes))
}

const ACKS: (&str, &str) = ("repl.acks_sent", "repl.ack_flushes");
const FORWARDS: (&str, &str) = ("repl.forwards_sent", "repl.forward_flushes");

/// Runs Table 1's throughput load, shorter: one pipelined load with an
/// unbounded window, so chain members have a backlog to drain. Returns
/// each `(member, counters)`'s counts over the load.
fn table1_load(ft: FtMode, members: &[(usize, (&str, &str))]) -> Vec<(u64, u64, u64)> {
    let (mut cluster, chan) = fig3_pair(ft, 1234);
    let jobs = (0..PAYMENTS)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    let counts = |cluster: &BenchCluster| -> Vec<_> {
        members
            .iter()
            .map(|&(i, (sent, flushes))| rep_counts(cluster, i, sent, flushes))
            .collect()
    };
    let before = counts(&cluster);
    cluster.load(0, jobs, 1_000_000);
    let stats = cluster.run(300_000_000);
    assert_eq!(stats.completed, PAYMENTS);
    counts(&cluster)
        .into_iter()
        .zip(before)
        .map(|((a, s, f), (a0, s0, f0))| (a - a0, s - s0, f - f0))
        .collect()
}

/// Each payment commits once at each end, so each member applies one
/// head update per payment; no message covers more than the bound, and
/// every other one is a drained input.
fn assert_coalesced(member: usize, (applied, sent, flushes): (u64, u64, u64)) {
    assert_eq!(applied, PAYMENTS, "member {member}: one update per payment");
    assert!(
        sent * ACK_EVERY >= applied,
        "member {member}: {sent} sent for {applied} updates"
    );
    assert!(
        sent <= applied / ACK_EVERY + flushes,
        "member {member}: {sent} sent, {flushes} flushes, {applied} updates"
    );
    assert!(sent < applied, "member {member}: nothing coalesced");
}

#[test]
fn unbatched_one_replica_sends_every_payment_and_acks_at_most_every_bound() {
    // Chains: payer 0 → tail 2, payee 1 → tail 3.
    let members = [(2, ACKS), (3, ACKS)];
    let counts = table1_load(FtMode::Replicas(1), &members);
    for (&(member, _), got) in members.iter().zip(counts) {
        assert_coalesced(member, got);
    }
}

#[test]
fn unbatched_two_replicas_forward_and_ack_at_most_every_bound() {
    // Chains: payer 0 → 2 → tail 3, payee 1 → 4 → tail 5.
    let members = [(2, FORWARDS), (3, ACKS), (4, FORWARDS), (5, ACKS)];
    let counts = table1_load(FtMode::Replicas(2), &members);
    for (&(member, _), got) in members.iter().zip(counts) {
        assert_coalesced(member, got);
    }
}

#[test]
fn a_burst_on_the_sim_repl_shape_processes_one_event_per_message() {
    // Each chain member releases what it owes at the message that drains
    // its input: no timer joins the messages.
    let backups = teechain::DurabilityBackend::Replication { backups: 2 };
    let (events, messages) = sim_burst(backups, 2, 64);
    assert_eq!(events, messages);
}
