//! The committee chain on Table 1's pipelined load. With no input hint,
//! as Table 1's unbatched rows run, both heads send every payment as its
//! own update. With the engine's hint, the payer's head still does, but
//! seals the payments one chain ack releases as one wire `Pay`, while the
//! payee's head holds a run of queued `Pay`s and commits it as one; the
//! tail acknowledges, and a middle member forwards, at most every
//! `ACK_EVERY`-th head update plus once per drained input. Every payment
//! completes, no node refuses a message, and every replica ends equal to
//! its primary.

use teechain::replication::ACK_EVERY;
use teechain_bench::harness::{BenchCluster, Job};
use teechain_bench::scenarios::{fig3_pair, sim_burst, FtMode};
use teechain_net::NodeId;
use teechain_util::codec::Encode;

const PAYMENTS: u64 = 2_000;

/// `[updates applied, sent, flushes, wire Pays, head updates]` of member
/// `i`: `sent` and `flushes` are the named counters, the wire `Pay`s those
/// the payer sealed, and the head updates those its `primary` sent.
fn rep_counts(
    cluster: &BenchCluster,
    (i, primary): (usize, usize),
    sent: &str,
    flushes: &str,
) -> [u64; 5] {
    let get = |i: usize, k: &str| {
        let snap = cluster.node(i).registry().snapshot();
        snap.counters.get(k).copied().unwrap_or(0)
    };
    [
        get(i, "repl.updates_applied"),
        get(i, sent),
        get(i, flushes),
        get(0, "pay.pays_sent"),
        get(primary, "repl.updates_sent"),
    ]
}

/// A member's `(node, primary)` and the names of its sent and flush
/// counters.
type Member = ((usize, usize), (&'static str, &'static str));

const ACKS: (&str, &str) = ("repl.acks_sent", "repl.ack_flushes");
const FORWARDS: (&str, &str) = ("repl.forwards_sent", "repl.forward_flushes");

/// Runs Table 1's throughput load of `payments` on `cluster`: one
/// pipelined load with an unbounded window, so chain members have a
/// backlog to drain. Every payment completes and no node refuses a
/// message.
fn table1_load(cluster: &mut BenchCluster, chan: teechain::ChannelId, payments: u64) {
    let jobs = (0..payments)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    cluster.load(0, jobs, 1_000_000);
    let stats = cluster.run(300_000_000);
    assert_eq!(stats.completed, payments);
    for i in 0..cluster.sim.len() {
        let errors = &cluster.node(i).delivery_errors;
        assert!(errors.is_empty(), "node {i}: {errors:?}");
    }
}

/// Each `(member, primary)`'s counts over Table 1's load, every node's
/// host passing `more` as its input hint (`None`: the engine's).
fn member_counts(ft: FtMode, members: &[Member], more: Option<bool>) -> Vec<[u64; 5]> {
    let (mut cluster, chan) = fig3_pair(ft, 1234);
    for i in 0..cluster.sim.len() {
        cluster.sim.node_mut(NodeId(i as u32)).host.more = more;
    }
    let counts = |cluster: &BenchCluster| -> Vec<_> {
        members
            .iter()
            .map(|&(m, (sent, flushes))| rep_counts(cluster, m, sent, flushes))
            .collect()
    };
    let before = counts(&cluster);
    table1_load(&mut cluster, chan, PAYMENTS);
    counts(&cluster)
        .into_iter()
        .zip(before)
        .map(|(a, b)| [0, 1, 2, 3, 4].map(|k| a[k] - b[k]))
        .collect()
}

/// The payer's head commits each payment as its own update and seals
/// what one chain ack releases as one wire `Pay`, and the payee's head
/// commits each run of up to `ACK_EVERY` `Pay`s it holds as one update,
/// so a member applies what its head sent; no message covers more than
/// the bound, and every other one is a drained input. `ACK_EVERY` bounds
/// messages and updates, not payments: the payee's chain applies at
/// least one update per `ACK_EVERY` wire `Pay`s, which may carry many
/// payments each.
fn assert_coalesced(
    (member, primary): (usize, usize),
    [applied, sent, flushes, pays, head]: [u64; 5],
) {
    assert_eq!(applied, head, "member {member}: every head update");
    assert!(pays < PAYMENTS, "{pays} wire Pays for {PAYMENTS} payments");
    match primary {
        0 => assert_eq!(applied, PAYMENTS, "member {member}: one per payment"),
        _ => assert!(
            (pays.div_ceil(ACK_EVERY)..PAYMENTS / 8).contains(&applied),
            "member {member}: {applied} updates for {pays} wire Pays"
        ),
    }
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

/// Runs Table 1's load on `members`' chains twice. With no input hint
/// every member applies one head update per payment and the payer seals
/// one wire `Pay` per payment, the model Table 1's unbatched rows
/// measure; with the engine's hint the chains coalesce as
/// [`assert_coalesced`] says.
fn check_chains(ft: FtMode, members: &[Member]) {
    for (&(member, _), [applied, _, _, pays, head]) in
        members.iter().zip(member_counts(ft, members, Some(false)))
    {
        assert_eq!(
            (applied, head),
            (PAYMENTS, PAYMENTS),
            "member {member:?}, no hint: one update per payment"
        );
        assert_eq!(pays, PAYMENTS, "no hint: one wire Pay per payment");
    }
    for (&(member, _), got) in members.iter().zip(member_counts(ft, members, None)) {
        assert_coalesced(member, got);
    }
}

#[test]
fn unbatched_one_replica_sends_every_payment_and_acks_at_most_every_bound() {
    // Chains: payer 0 → tail 2, payee 1 → tail 3.
    check_chains(FtMode::Replicas(1), &[((2, 0), ACKS), ((3, 1), ACKS)]);
}

#[test]
fn unbatched_two_replicas_forward_and_ack_at_most_every_bound() {
    // Chains: payer 0 → 2 → tail 3, payee 1 → 4 → tail 5.
    let members = [
        ((2, 0), FORWARDS),
        ((3, 0), ACKS),
        ((4, 1), FORWARDS),
        ((5, 1), ACKS),
    ];
    check_chains(FtMode::Replicas(2), &members);
}

/// Table 1's full replicated load (30,000 payments) with the hint on:
/// every payment completes, no node refuses a message, and every replica
/// of the channel ends equal to its primary's. An acknowledgement that a
/// chain ack released must leave at once: held again behind the head's
/// next update, the acks after it overtake it, the payer refuses them as
/// out of order, and payments never complete.
#[test]
fn the_pipelined_load_completes_and_leaves_every_replica_equal_to_its_primary() {
    for backups in [1, 2] {
        let (mut cluster, chan) = fig3_pair(FtMode::Replicas(backups), 1234);
        table1_load(&mut cluster, chan, 30_000);
        let image = |c: &teechain::channel::Channel| c.encode_to_vec();
        for primary in [0, 1] {
            let p = cluster.node(primary).enclave.program().unwrap();
            let want = image(p.channel(&chan).unwrap());
            let first = 2 + primary * backups;
            for member in first..first + backups {
                let m = cluster.node(member).enclave.program().unwrap();
                let got = image(m.replica_channel(&chan).unwrap());
                assert_eq!(got, want, "{backups} backups: member {member}");
            }
        }
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
