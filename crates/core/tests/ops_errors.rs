//! Typed error paths of the correlated-operation API: every failure mode
//! — local rejection, remote refusal, crashed peer, explicit deadline —
//! yields exactly one `Completion` with the expected `OpError`, on the
//! discrete-event engine at one shard and at two.

use teechain::enclave::Command;
use teechain::ops::{OpError, Payment};
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{ChannelId, ProtocolError};
use teechain_net::EngineKind;

/// Runs `f` against a functional cluster at one shard and at two, so
/// completion semantics cannot drift with the partition.
fn under_both_engines(n: usize, f: impl Fn(&mut Cluster, EngineKind)) {
    for kind in [
        EngineKind::Sharded { shards: 1 },
        EngineKind::Sharded { shards: 2 },
    ] {
        let mut c = Cluster::new(ClusterConfig {
            n,
            engine: kind,
            ..ClusterConfig::default()
        });
        f(&mut c, kind);
    }
}

#[test]
fn payment_on_unknown_channel_rejects() {
    under_both_engines(2, |c, kind| {
        c.connect(0, 1);
        let bogus = ChannelId::from_label("never-opened");
        let err = c.pay(0, bogus, 5).unwrap_err();
        assert_eq!(
            err,
            OpError::Rejected(ProtocolError::UnknownChannel),
            "engine {kind}"
        );
    });
}

#[test]
fn payment_exceeding_balance_rejects() {
    under_both_engines(2, |c, kind| {
        let chan = c.standard_channel(0, 1, "small", 100, 1);
        let err = c.pay(0, chan, 101).unwrap_err();
        assert_eq!(
            err,
            OpError::Rejected(ProtocolError::InsufficientBalance),
            "engine {kind}"
        );
        // The rejection moved nothing.
        assert_eq!(c.balances(0, chan), (100, 0), "engine {kind}");
    });
}

#[test]
fn multihop_through_crashed_intermediary_times_out() {
    under_both_engines(3, |c, kind| {
        let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
        let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
        // The intermediary dies; the lock message is dropped on the
        // floor, so no abort ever comes back. At quiescence the
        // operation is declared dead with a typed timeout instead of
        // silently never resolving.
        c.crash_node(1);
        let err = c
            .pay_multihop(&[0, 1, 2], &[c01, c12], 50, "dead-hop")
            .unwrap_err();
        assert!(
            matches!(err, OpError::Timeout { .. }),
            "engine {kind}: {err:?}"
        );
        // The sender's channel state is untouched by the dead route
        // apart from the lock, which eject can clear; balances moved
        // nowhere.
        assert_eq!(c.balances(0, c01), (1000, 0), "engine {kind}");
    });
}

#[test]
fn remote_refusal_carries_the_real_reason() {
    under_both_engines(3, |c, kind| {
        let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
        let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
        // Drain the intermediary's forwarding balance: its refusal
        // reason travels back along the abort unwind.
        c.pay(1, c12, 1000).unwrap();
        let err = c
            .pay_multihop(&[0, 1, 2], &[c01, c12], 500, "broke-hop")
            .unwrap_err();
        assert_eq!(
            err,
            OpError::Remote(ProtocolError::InsufficientBalance),
            "engine {kind}"
        );
    });
}

#[test]
fn deadline_resolves_exactly_at_the_deadline() {
    under_both_engines(2, |c, kind| {
        let chan = c.standard_channel(0, 1, "c1", 500, 1);
        // The peer crashes; a deadline-carrying payment must resolve by
        // in-simulation timer at exactly the requested instant.
        c.crash_node(1);
        let deadline = c.sim.now_ns() + 2_000_000_000;
        let pay = Command::Pay {
            id: chan,
            amount: 10,
            count: 1,
        };
        let op = c.submit_request(0, pay.into(), Some(deadline));
        let err = c.wait::<Payment>(c.pending(op)).unwrap_err();
        assert_eq!(err, OpError::Timeout { at_ns: deadline }, "engine {kind}");
        // The completion is on the stream, stamped with the deadline.
        let completion = c
            .completions(0)
            .iter()
            .find(|x| x.op == op)
            .expect("recorded")
            .clone();
        assert_eq!(completion.time_ns, deadline, "engine {kind}");
    });
}

#[test]
fn exactly_one_completion_per_operation() {
    under_both_engines(2, |c, kind| {
        let chan = c.standard_channel(0, 1, "c1", 1000, 1);
        let before = c.completions(0).len();
        let mut ops = Vec::new();
        for _ in 0..5 {
            ops.push(c.submit(
                0,
                Command::Pay {
                    id: chan,
                    amount: 10,
                    count: 1,
                },
            ));
        }
        c.settle_network();
        let new: Vec<_> = c.completions(0)[before..].to_vec();
        assert_eq!(new.len(), 5, "engine {kind}");
        for op in ops {
            assert_eq!(
                new.iter().filter(|x| x.op == op).count(),
                1,
                "engine {kind}: exactly one completion for {op}"
            );
        }
        assert!(new.iter().all(|x| x.outcome.is_ok()), "engine {kind}");
    });
}

#[test]
fn completion_history_is_engine_shard_invariant() {
    // The same scenario at 1, 2 and 4 shards yields an identical merged
    // completion history — ids, outcomes and times (the testkit-level
    // counterpart of the bench determinism suite).
    let run = |shards: usize| {
        let mut c = Cluster::new(ClusterConfig {
            n: 3,
            engine: EngineKind::Sharded { shards },
            ..ClusterConfig::default()
        });
        let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
        let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
        c.pay(0, c01, 100).unwrap();
        c.pay_multihop(&[0, 1, 2], &[c01, c12], 50, "r").unwrap();
        let _ = c.pay(0, c01, 10_000).unwrap_err(); // Typed failure, also in-stream.
        c.settle_network();
        c.completion_log()
    };
    let base = run(1);
    assert!(!base.is_empty());
    for shards in [2, 4] {
        assert_eq!(run(shards), base, "sharded:{shards} diverged");
    }
}
