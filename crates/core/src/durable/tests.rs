//! One transition, checked by equal states: every delta kind changes the
//! state it names; a node recovered after any commit holds the state it
//! held at that commit; and every backup holds its primary's state after
//! each update.

use super::*;
use crate::enclave::{Command, TeechainEnclave};
use crate::ops::Pending;
use crate::testkit::{Cluster, ClusterConfig, Harness};
use crate::types::CommitteeSpec;
use crate::{DurabilityBackend, PersistPolicy};
use std::collections::BTreeMap;
use teechain_blockchain::{OutPoint, Transaction, TxId, TxIn};
use teechain_crypto::schnorr::Keypair;

fn pk(seed: u8) -> teechain_crypto::schnorr::PublicKey {
    Keypair::from_seed(&[seed; 32]).pk
}

fn deposit(n: u8, key: u8) -> Deposit {
    Deposit {
        outpoint: OutPoint {
            txid: TxId([n; 32]),
            vout: 0,
        },
        value: 100,
        committee: CommitteeSpec::single(pk(key)),
    }
}

/// Every arm of `apply` changes what its delta names — the legacy `Stage`
/// too, which only WAL records written before routes became durable carry.
#[test]
fn every_delta_kind_changes_the_state() {
    let id = ChannelId::from_label("apply");
    let route = RouteId([5; 32]);
    let mine = deposit(1, 11);
    let theirs = deposit(2, 12);
    let mut chan = Channel::new(id, pk(1), pk(2), pk(3));
    chan.is_open = true;
    let mut associated = chan.clone();
    associated.my_deps = vec![mine.outpoint];
    associated.my_bal = mine.value;
    let route_state = RouteState {
        id: route,
        amount: 7,
        hops: vec![pk(4), pk(1)],
        channels: vec![id],
        pos: 0,
        tau: None,
        digests: Vec::new(),
        pre_balances: BTreeMap::new(),
        deadline_ns: 0,
    };
    let tau = Transaction {
        inputs: vec![TxIn::spend(mine.outpoint)],
        outputs: vec![],
    };
    let swap = SwapState {
        id: SwapId([6; 32]),
        channel: id,
        remote: pk(1),
        initiator: true,
        amount: 1,
        alt_amount: 1,
        hash: [0; 32],
        secret: None,
        timeout_blocks: 3,
        htlc_outpoint: None,
        deadline_ns: 0,
        phase: crate::swap::SwapPhase::Init,
    };
    let key = Keypair::from_seed(&[9; 32]);
    let deltas = [
        StateDelta::Channel(Box::new(chan)),
        StateDelta::Deposit {
            dep: mine.clone(),
            key: None,
            mine: true,
        },
        StateDelta::Channel(Box::new(associated)),
        StateDelta::Pay {
            id,
            my_delta: -30,
            remote_delta: 30,
        },
        StateDelta::Route(Box::new(route_state)),
        StateDelta::RouteStage {
            route,
            stage: MultihopStage::Lock,
        },
        StateDelta::Tau {
            route,
            tau: Some(tau.clone()),
        },
        StateDelta::RouteSigned(
            route,
            tau,
            vec![crate::msg::SettleDigest {
                txid: TxId([8; 32]),
                post: true,
            }],
        ),
        StateDelta::Stage {
            id,
            stage: MultihopStage::Sign,
        },
        StateDelta::RouteStage {
            route,
            stage: MultihopStage::Idle,
        },
        StateDelta::Deposit {
            dep: theirs.clone(),
            key: Some(key.sk.to_bytes()),
            mine: false,
        },
        StateDelta::DestroyKey(key.pk),
        StateDelta::Key(key.pk, key.sk.to_bytes()),
        StateDelta::RemoveDeposit(theirs.outpoint),
        StateDelta::Swap(Box::new(swap)),
        StateDelta::CloseChannel(id),
    ];
    let mut state = DurableState::default();
    for delta in &deltas {
        let before = state.digest();
        state.apply(delta);
        assert_ne!(state.digest(), before, "{delta:?} changed nothing");
    }
    let c = state.channels.get(&id).expect("installed");
    assert_eq!((c.my_bal, c.remote_bal), (70, 30));
    assert!(c.closed && c.route.is_none() && c.stage == MultihopStage::Idle);
    assert!(state.routes.is_empty(), "unlocking ended the route");
    assert_eq!(
        state.book.get_mine(&mine.outpoint).map(|(_, s)| *s),
        Some(DepositStatus::Spent),
        "the settlement spent the channel's deposit"
    );
    assert!(state.book.remote.is_empty());
    assert!(state.book.keys.contains_key(&key.pk));
    assert_eq!(state.swaps.len(), 1);
}

/// An eject or a PoPT ends its route like an unlock does: the route
/// leaves the state, and its channels stay at `Terminated`.
#[test]
fn termination_ends_the_route() {
    let id = ChannelId::from_label("terminate");
    let route = RouteId([4; 32]);
    let mut state = DurableState::default();
    state.apply(&StateDelta::Channel(Box::new(Channel::new(
        id,
        pk(1),
        pk(2),
        pk(3),
    ))));
    state.apply(&StateDelta::Route(Box::new(RouteState {
        id: route,
        amount: 1,
        hops: vec![pk(4), pk(1)],
        channels: vec![id],
        pos: 0,
        tau: None,
        digests: Vec::new(),
        pre_balances: BTreeMap::new(),
        deadline_ns: 0,
    })));
    state.apply(&StateDelta::RouteStage {
        route,
        stage: MultihopStage::Terminated,
    });
    assert!(state.routes.is_empty());
    let c = state.channels.get(&id).expect("installed");
    assert_eq!(c.stage, MultihopStage::Terminated);
}

/// A channel edit that drops one of our deposits frees it, and the same
/// edit replayed over a snapshot's image reaches the same state.
#[test]
fn a_channel_carries_its_deposits_statuses() {
    let id = ChannelId::from_label("status");
    let dep = deposit(3, 13);
    let mut state = DurableState::default();
    let mut chan = Channel::new(id, pk(1), pk(2), pk(3));
    state.apply(&StateDelta::Deposit {
        dep: dep.clone(),
        key: None,
        mine: true,
    });
    chan.my_deps = vec![dep.outpoint];
    state.apply(&StateDelta::Channel(Box::new(chan.clone())));
    let status = |s: &DurableState| s.book.get_mine(&dep.outpoint).map(|(_, s)| *s);
    assert_eq!(status(&state), Some(DepositStatus::Associated(id)));
    // Re-staging the deposit (as association does, to carry its key)
    // keeps the status.
    state.apply(&StateDelta::Deposit {
        dep: dep.clone(),
        key: None,
        mine: true,
    });
    assert_eq!(status(&state), Some(DepositStatus::Associated(id)));
    chan.my_deps.clear();
    state.apply(&StateDelta::Channel(Box::new(chan)));
    assert_eq!(status(&state), Some(DepositStatus::Free));
    let mut image = Vec::new();
    state.encode_image(&mut image);
    let loaded = DurableState::read_image(&mut Reader::new(&image), 4).expect("loads");
    assert_eq!(loaded.digest(), state.digest());
}

/// Every truncation of a state image is refused, and every single-bit flip
/// of one loads or is refused with a typed error: the host hands the
/// enclave these bytes, so none may panic it. The image holds every table:
/// a channel, our deposits associated, free and spent, a remote deposit,
/// a key, a route and a swap.
#[test]
fn a_truncated_or_bit_flipped_image_is_loaded_or_refused_never_a_panic() {
    let id = ChannelId::from_label("hostile");
    let (associated, free, spent) = (deposit(1, 11), deposit(2, 12), deposit(3, 13));
    let mut chan = Channel::new(id, pk(1), pk(2), pk(3));
    chan.my_deps = vec![associated.outpoint];
    let key = Keypair::from_seed(&[9; 32]);
    let cfg = Cluster::functional(1).node(0).cfg.clone();
    let mut enclave = TeechainEnclave::new(cfg.clone());
    let mut deltas: Vec<_> = [&associated, &free, &spent]
        .map(|dep| StateDelta::Deposit {
            dep: dep.clone(),
            key: None,
            mine: true,
        })
        .into();
    deltas.extend([
        StateDelta::RemoveDeposit(spent.outpoint),
        StateDelta::Deposit {
            dep: deposit(4, 14),
            key: None,
            mine: false,
        },
        StateDelta::Channel(Box::new(chan)),
        StateDelta::Key(key.pk, key.sk.to_bytes()),
        StateDelta::Route(Box::new(RouteState {
            id: RouteId([5; 32]),
            amount: 7,
            hops: vec![pk(4), pk(1)],
            channels: vec![id],
            pos: 1,
            tau: None,
            digests: Vec::new(),
            pre_balances: [(id, (1, 2))].into_iter().collect(),
            deadline_ns: 3,
        })),
        StateDelta::Swap(Box::new(SwapState {
            id: SwapId([6; 32]),
            channel: id,
            remote: pk(1),
            initiator: false,
            amount: 1,
            alt_amount: 2,
            hash: [7; 32],
            secret: Some([8; 32]),
            timeout_blocks: 3,
            htlc_outpoint: Some(free.outpoint),
            deadline_ns: 4,
            phase: crate::swap::SwapPhase::Locked,
        })),
    ]);
    for delta in &deltas {
        enclave.state.apply(delta);
    }
    let image = enclave.state_image();
    let load = |bytes: &[u8]| TeechainEnclave::new(cfg.clone()).load_state_image(bytes);
    assert_eq!(load(&image), Ok(()));
    for len in 0..image.len() {
        assert_eq!(
            load(&image[..len]),
            Err(ProtocolError::BadMessage),
            "cut at {len}"
        );
    }
    for bit in 0..image.len() * 8 {
        let mut bad = image.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        assert!(
            matches!(load(&bad), Ok(()) | Err(ProtocolError::BadMessage)),
            "bit {bit}"
        );
    }
}

/// Steps the simulator one event and records, for every node, the digest
/// its durable state had right after each commit it made.
fn step(c: &mut Cluster, seen: &mut [BTreeMap<u64, [u8; 32]>]) -> bool {
    let moved = c.sim.run_to_idle(1) > 0;
    for (i, digests) in seen.iter_mut().enumerate() {
        if let Some(p) = c.node(i).enclave.program() {
            if p.commits > 0 {
                digests
                    .entry(p.commits)
                    .or_insert_with(|| p.durable_digest());
            }
        }
    }
    moved
}

fn program(c: &Cluster, i: usize) -> &TeechainEnclave {
    c.node(i).enclave.program().expect("enclave running")
}

fn persist_cluster(n: usize, snapshot_every: u32) -> Cluster {
    Cluster::new(ClusterConfig {
        n,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every }),
        ..ClusterConfig::default()
    })
}

/// For every commit `k` of every node in the workload `setup` starts:
/// rerun it to commit `k`, crash the node, recover it from its store, and
/// find the digest it had at commit `k`. Returns how many commits it
/// checked.
fn every_commit_recovers_its_digest(setup: fn() -> Cluster) -> usize {
    let mut c = setup();
    let mut seen = vec![BTreeMap::new(); c.sim.len()];
    while step(&mut c, &mut seen) {}
    let mut checked = 0;
    for (i, digests) in seen.iter().enumerate() {
        for (&k, want) in digests {
            let mut c = setup();
            while program(&c, i).commits < k && step(&mut c, &mut []) {}
            assert_eq!(program(&c, i).commits, k, "the rerun reaches commit {k}");
            c.crash_node(i);
            c.recover_node(i).expect("recovers");
            let got = program(&c, i).durable_digest();
            assert_eq!(&got, want, "node {i} recovered after commit {k}");
            checked += 1;
        }
    }
    checked
}

/// A throttled burst of 64 payments: the counter paces the commits, a
/// snapshot every 16 of them, so early crashes replay the set-up from the
/// WAL alone and later ones a snapshot plus the WAL after it.
#[test]
fn recovery_after_each_commit_of_a_payment_burst_reproduces_its_digest() {
    fn setup() -> Cluster {
        let mut c = persist_cluster(2, 16);
        let chan = c.standard_channel(0, 1, "burst", 10_000, 1);
        for k in 0..64 {
            c.submit(
                k % 2,
                Command::Pay {
                    id: chan,
                    amount: 1 + k as u64 % 5,
                    count: 1,
                },
            );
        }
        c
    }
    assert!(every_commit_recovers_its_digest(setup) >= 64);
}

/// A 3-hop payment: every stage of every hop, including a snapshot that
/// holds a route, recovers to the state it committed.
#[test]
fn recovery_after_each_commit_of_a_multihop_reproduces_its_digest() {
    fn setup() -> Cluster {
        let mut c = persist_cluster(4, 4);
        let chans: Vec<ChannelId> = (0..3)
            .map(|k| c.standard_channel(k, k + 1, &format!("mh-{k}"), 1000, 1))
            .collect();
        let hops = c.ids.clone();
        c.submit(
            0,
            Command::PayMultihop {
                route: RouteId([3; 32]),
                hops,
                channels: chans,
                amount: 300,
            },
        );
        c
    }
    assert!(every_commit_recovers_its_digest(setup) >= 12);
}

/// Drives operations one simulator event at a time, comparing node
/// `backup`'s replica with node `primary`'s state after each event: equal
/// digests at every update both were seen at (two commits in one event
/// hide the first), and equal digests whenever every update is acked.
struct Replicas {
    primary: usize,
    backup: usize,
    /// The primary's digest at each update it was seen to send.
    sent: BTreeMap<u64, [u8; 32]>,
    last: [u8; 32],
    compared: usize,
}

impl Replicas {
    fn run<T: crate::ops::OpResult>(&mut self, c: &mut Cluster, p: Pending<T>) -> T {
        let op = p.op;
        while c.outcome(op).is_none() {
            assert!(c.sim.run_to_idle(1) > 0, "the operation completes");
            let (primary, backup) = (program(c, self.primary), program(c, self.backup));
            let (state, replica) = (primary.state.digest(), backup.rep.replica.digest());
            if let Some(seq) = primary.rep.send_seq.checked_sub(1) {
                self.sent.entry(seq).or_insert(state);
                if primary.rep.pending.is_empty() {
                    assert_eq!(replica, state, "update {seq} acked");
                    self.compared += 1;
                }
            }
            if replica != self.last {
                let seq = backup.rep.next_seq - 1;
                if let Some(sent) = self.sent.get(&seq) {
                    assert_eq!(&replica, sent, "update {seq} applied");
                }
                self.last = replica;
            }
        }
        c.wait(p).expect("operation succeeds")
    }
}

/// Alg. 3's invariant, checked after every update: the backup's replica
/// digest equals its primary's. The primary holds the shared key of its
/// counterparty's 1-of-1 deposit; once dissociated, the key is gone from
/// the replica too (Alg. 1 line 104).
#[test]
fn every_acked_update_leaves_the_backup_equal_to_its_primary() {
    let mut c = Cluster::functional(3);
    c.attach_backup(1, 2);
    let mut r = Replicas {
        primary: 1,
        backup: 2,
        sent: BTreeMap::new(),
        last: DurableState::default().digest(),
        compared: 0,
    };
    macro_rules! run {
        ($node:expr, $op:ident($($arg:expr),*)) => {{
            let p = c.handle($node).$op($($arg),*);
            r.run(&mut c, p)
        }};
    }
    run!(0, connect(1));
    let chan = run!(0, open_channel(1, "replicated"));
    let dep = run!(0, fund_deposit(400, 1));
    run!(0, approve_deposit(1, dep.outpoint));
    run!(0, associate_deposit(chan, dep.outpoint));
    let key = dep.committee.member_keys[0];
    assert!(program(&c, 2).replica_book().keys.contains_key(&key));
    for amount in [30, 12, 5] {
        run!(0, pay(chan, amount));
    }
    run!(1, pay(chan, 47));
    run!(0, dissociate_deposit(chan, dep.outpoint));
    assert!(!program(&c, 1).book_ref().keys.contains_key(&key));
    assert!(!program(&c, 2).replica_book().keys.contains_key(&key));
    assert!(r.compared >= 8, "compared {} updates", r.compared);
}
