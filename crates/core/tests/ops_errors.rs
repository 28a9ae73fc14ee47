//! Typed error paths of the correlated-operation API: every failure mode
//! — local rejection, remote refusal, crashed peer, explicit deadline —
//! yields exactly one `Completion` with the expected `OpError`, on the
//! discrete-event engine at one shard and at two.

use teechain::enclave::Command;
use teechain::ops::{OpError, OpOutput, Payment, Request};
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{ChannelId, DurabilityBackend, PersistPolicy, ProtocolError, RouteId, SwapId};
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

/// Submits `req` on node `i`, runs the network to quiescence and checks
/// that the operation completed exactly once, successfully, with an
/// output of `kind` (an `OpOutput::kind` label). An outcome the enclave
/// emitted under the wrong key would leave the operation pending until
/// quiescence, and so end it with `Timeout`.
fn completes_once_as(c: &mut Cluster, i: usize, req: impl Into<Request>, kind: &str) -> OpOutput {
    let op = c.submit(i, req);
    c.settle_network();
    let done: Vec<_> = c.completions(i).iter().filter(|d| d.op == op).collect();
    assert_eq!(done.len(), 1, "{kind}: {done:?}");
    match &done[0].outcome {
        Ok(out) if out.kind() == kind => out.clone(),
        other => panic!("{kind}: completed with {other:?}"),
    }
}

/// Every command with an asynchronous outcome completes exactly once,
/// with the `OpOutput` its rustdoc names, and never with `Timeout`: the
/// outcome the enclave emits carries the key the command registered.
/// One step per keyed command, in an order that gives each what it needs.
#[test]
fn every_keyed_command_completes_once_with_its_output() {
    let mut c = Cluster::functional(4);
    let ids = c.ids.clone();
    let chan = ChannelId::from_label("keyed");
    let OpOutput::Address(address) = completes_once_as(&mut c, 0, Command::NewAddress, "address")
    else {
        unreachable!("checked by kind")
    };
    let [first, second, free] = [0; 3].map(|_| c.fund_deposit(0, 500, 1).outpoint);
    let next = c.standard_channel(1, 2, "keyed-next", 500, 1);
    c.connect(2, 3);
    let steps: Vec<(usize, Command, &str)> = vec![
        (0, Command::GetIdentity, "identity"),
        (0, Command::NewCommitteeAddress { m: 1 }, "committee"),
        (0, Command::StartSession { remote: ids[1] }, "session"),
        (
            0,
            Command::NewChannel {
                id: chan,
                remote: ids[1],
                my_settlement: address,
            },
            "channel_open",
        ),
        (
            0,
            Command::ApproveDeposit {
                remote: ids[1],
                outpoint: first,
            },
            "deposit_approved",
        ),
        (
            0,
            Command::AssociateDeposit {
                id: chan,
                outpoint: first,
            },
            "deposit_associated",
        ),
        (
            0,
            Command::ApproveDeposit {
                remote: ids[1],
                outpoint: second,
            },
            "deposit_approved",
        ),
        (
            0,
            Command::AssociateDeposit {
                id: chan,
                outpoint: second,
            },
            "deposit_associated",
        ),
        (
            0,
            Command::Pay {
                id: chan,
                amount: 100,
                count: 1,
            },
            "payment",
        ),
        (
            0,
            Command::PayMultihop {
                route: RouteId::from_label("keyed"),
                hops: ids[..3].to_vec(),
                channels: vec![chan, next],
                amount: 50,
            },
            "multihop",
        ),
        (
            0,
            Command::Swap {
                swap: SwapId::from_label("keyed"),
                channel: chan,
                amount: 100,
                alt_amount: 200,
                timeout_blocks: 5,
            },
            "swap",
        ),
        (
            0,
            Command::DissociateDeposit {
                id: chan,
                outpoint: second,
            },
            "deposit_dissociated",
        ),
        (0, Command::Settle { id: chan }, "settle"),
        (
            0,
            Command::ReleaseDeposit {
                outpoint: free,
                to: address,
            },
            "settle",
        ),
        (
            2,
            Command::AttachBackup { backup: ids[3] },
            "backup_attached",
        ),
        // Reading the replica freezes the chain: last.
        (3, Command::ReadReplica, "replica_state"),
    ];
    for (i, cmd, kind) in steps {
        completes_once_as(&mut c, i, cmd, kind);
    }
    // `Command::Recover`, in persistent mode.
    let mut p = Cluster::new(ClusterConfig {
        n: 2,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every: 4 }),
        ..ClusterConfig::default()
    });
    p.standard_channel(0, 1, "keyed", 500, 1);
    p.crash_node(1);
    completes_once_as(&mut p, 1, Request::Recover, "recovered");
}
