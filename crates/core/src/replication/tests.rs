//! Cumulative acks on two-backup committee chains: bursts around the ack
//! bound complete exactly once and leave every replica equal to its
//! primary; a tail that crashes while it owes acks keeps the head's
//! effects held; and a surviving member still settles on chain.

use super::*;
use crate::durability::DurabilityBackend;
use crate::enclave::Command;
use crate::ops::OpError;
use crate::testkit::{Cluster, ClusterConfig, Harness};
use std::collections::BTreeMap;

/// Two primaries with two backups each: 0 → 2 → 3 and 1 → 4 → 5.
const PAYER_TAIL: usize = 3;
const BACKUPS: [(usize, usize); 4] = [(2, 0), (3, 0), (4, 1), (5, 1)];

fn chained_pair() -> (Cluster, ChannelId) {
    let mut c = Cluster::new(ClusterConfig {
        durability: DurabilityBackend::Replication { backups: 2 },
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "acks", 1_000_000, 2);
    (c, chan)
}

fn rep_stats(c: &Cluster, i: usize) -> RepStats {
    c.node(i).enclave.program().expect("running").rep_stats()
}

/// Submits `k` payments of 1 from node 0 without running the network.
fn submit_burst(c: &mut Cluster, chan: ChannelId, k: u64) -> Vec<u64> {
    let pay = Command::Pay {
        id: chan,
        amount: 1,
        count: 1,
    };
    (0..k).map(|_| c.submit(0, pay.clone()).seq).collect()
}

#[test]
fn bursts_around_the_ack_bound_complete_once_and_replicate() {
    for burst in [1, ACK_EVERY - 1, ACK_EVERY, ACK_EVERY + 1, 200] {
        let (mut c, chan) = chained_pair();
        let before: Vec<RepStats> = (0..6).map(|i| rep_stats(&c, i)).collect();
        c.node_mut(0).completions.clear();
        let ops = submit_burst(&mut c, chan, burst);
        c.settle_network();
        let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
        for done in &c.node(0).completions {
            assert!(done.outcome.is_ok(), "burst {burst}: {:?}", done.outcome);
            *seen.entry(done.op.seq).or_default() += 1;
        }
        assert_eq!(seen.len(), ops.len(), "burst {burst}: every op completes");
        assert!(
            seen.values().all(|&n| n == 1),
            "burst {burst}: exactly once"
        );
        assert_eq!(c.balances(0, chan), (1_000_000 - burst, burst));
        for (backup, primary) in BACKUPS {
            let want = c.balances(primary, chan);
            let replica = c.node(backup).enclave.program().unwrap();
            let got = replica.replica_channel(&chan).unwrap();
            assert_eq!((got.my_bal, got.remote_bal), want, "backup {backup}");
            let applied = rep_stats(&c, backup).updates_applied - before[backup].updates_applied;
            assert_eq!(applied, burst, "backup {backup}: one update per payment");
        }
        // The payer's whole burst reaches its tail at one instant: one ack
        // per `ACK_EVERY` updates, plus one for the rest once drained.
        let acks = rep_stats(&c, PAYER_TAIL).acks_sent - before[PAYER_TAIL].acks_sent;
        assert_eq!(acks, burst.div_ceil(ACK_EVERY), "burst {burst}");
    }
}

/// Runs the network until the payer's tail has applied `k` more updates
/// than `base`, and no further.
fn run_until_tail_applied(c: &mut Cluster, base: u64, k: u64) {
    for _ in 0..1_000 {
        if rep_stats(c, PAYER_TAIL).updates_applied >= base + k {
            return;
        }
        let t = c.sim.now_ns() + 1;
        c.sim.run_until(t);
    }
    panic!("the tail never applied the burst");
}

#[test]
fn a_tail_crashed_while_owing_acks_holds_the_heads_effects() {
    let (mut c, chan) = chained_pair();
    let base = rep_stats(&c, PAYER_TAIL);
    c.node_mut(0).completions.clear();
    submit_burst(&mut c, chan, 10);
    run_until_tail_applied(&mut c, base.updates_applied, 10);
    assert_eq!(
        rep_stats(&c, PAYER_TAIL).acks_sent,
        base.acks_sent,
        "the tail owes its acks"
    );
    c.crash_node(PAYER_TAIL);
    c.settle_network();
    // No `Pay` left the primary: the payee saw nothing, and every
    // payment was declared dead at quiescence.
    assert_eq!(c.balances(1, chan), (0, 1_000_000));
    assert_eq!(c.node(0).completions.len(), 10);
    for done in &c.node(0).completions {
        assert!(
            matches!(done.outcome, Err(OpError::Timeout { .. })),
            "{:?}",
            done.outcome
        );
    }
}

#[test]
fn a_surviving_member_settles_every_acknowledged_payment() {
    let (mut c, chan) = chained_pair();
    c.pay(0, chan, 150).unwrap(); // Acknowledged by the whole chain.
    let base = rep_stats(&c, PAYER_TAIL).updates_applied;
    submit_burst(&mut c, chan, 10);
    run_until_tail_applied(&mut c, base, 10);
    c.crash_node(PAYER_TAIL);
    c.settle_network();
    assert_eq!(c.balances(1, chan), (150, 1_000_000 - 150));
    // The primary is gone too; its middle member settles from its
    // replica, which holds every update it applied and forwarded: the
    // acknowledged payment and the ten the tail never acknowledged.
    c.crash_node(0);
    c.exec(2, Command::SettleFromReplica);
    c.mine(1);
    let replica = c.node(2).enclave.program().unwrap();
    let settled = replica.replica_channel(&chan).unwrap().clone();
    assert_eq!(settled.my_bal, 1_000_000 - 160);
    assert_eq!(c.chain_balance(&settled.my_settlement), settled.my_bal);
    assert_eq!(c.chain_balance(&settled.remote_settlement), 160);
}
