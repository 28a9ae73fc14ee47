//! Committee deposits at every m-of-n (§6.1). A node with a chain of k
//! backups can fund a deposit that any m of its 1 + k keys spend. The
//! chain's members co-sign over the sealed sessions they already hold, so
//! a chain built with nothing but `attach_backup` settles at every m.

use teechain::enclave::Command;
use teechain::msg::ProtocolMsg;
use teechain::testkit::{Cluster, ClusterConfig, ClusterNode, Harness, HintedHost};
use teechain::{ChannelId, DurabilityBackend, SettleKind};
use teechain_crypto::schnorr::{Keypair, PublicKey};
use teechain_net::NodeId;

const FUNDS: u64 = 1000;
const PAID: u64 = 300;

/// The settlement keys `(mine, remote)` node `i` holds for `chan`.
fn settlement_keys<N: ClusterNode>(c: &Cluster<N>, i: usize, chan: ChannelId) -> [PublicKey; 2] {
    let p = c.node(i).enclave.program().expect("running");
    let ch = p.channel(&chan).expect("channel");
    [ch.my_settlement, ch.remote_settlement]
}

/// Chains `backups` nodes from `first` on behind node 0 (0 → first → …)
/// through the typed handle alone: the hosts are told nothing else.
fn chain_by_handle<N: ClusterNode>(c: &mut Cluster<N>, first: usize, backups: usize) {
    let mut tail = 0;
    for b in first..first + backups {
        c.connect(tail, b);
        let p = c.handle(tail).attach_backup(b);
        c.wait(p).expect("attach backup");
        tail = b;
    }
}

/// Node `i` settles `chan` on chain; once mined, the chain pays `split`
/// to the channel's two settlement keys.
fn settle_on_chain<N: ClusterNode>(
    c: &mut Cluster<N>,
    i: usize,
    chan: ChannelId,
    split: [u64; 2],
) -> Result<(), String> {
    let s = c
        .settle_channel(i, chan)
        .map_err(|e| format!("settle: {e:?}"))?;
    if !matches!(s.kind, SettleKind::OnChain(_)) {
        return Err(format!("settled {:?}", s.kind));
    }
    c.mine(1);
    let keys = settlement_keys(c, i, chan);
    let got = keys.map(|k| c.chain_balance(&k));
    if got != split {
        return Err(format!("the chain holds {got:?}, not {split:?}"));
    }
    Ok(())
}

/// The deposit owner pays and settles a channel funded by an
/// m-of-(1 + backups) deposit, its chain built through the handle.
fn owner_settles(backups: usize, m: u8) -> Result<(), String> {
    let mut c = Cluster::functional(2 + backups);
    chain_by_handle(&mut c, 2, backups);
    let chan = c.standard_channel(0, 1, "owner", FUNDS, m);
    c.pay(0, chan, PAID).map_err(|e| format!("pay: {e:?}"))?;
    settle_on_chain(&mut c, 0, chan, [FUNDS - PAID, PAID])
}

/// A 3-hop payment p1 → p4 over channels each funded by its left end
/// with an m-of-(1 + backups) deposit, every chain built by the cluster;
/// then p1 settles its channel.
fn multihop_completes(backups: usize, m: u8) -> Result<(), String> {
    let mut c = Cluster::new(ClusterConfig {
        n: 4,
        durability: DurabilityBackend::Replication { backups },
        ..ClusterConfig::default()
    });
    let chans: Vec<ChannelId> = (0..3)
        .map(|i| c.standard_channel(i, i + 1, &format!("hop-{i}"), FUNDS, m))
        .collect();
    c.pay_multihop(&[0, 1, 2, 3], &chans, PAID, "matrix")
        .map_err(|e| format!("multihop: {e:?}"))?;
    settle_on_chain(&mut c, 0, chans[0], [FUNDS - PAID, PAID])
}

/// Every m from 1 to n = 1 + backups, for chains of one to three
/// backups: the owner's settlement and a 3-hop payment both complete,
/// and the settled value reaches the chain.
#[test]
fn every_m_of_n_settles_and_routes() {
    let mut failed = Vec::new();
    for backups in 1..=3usize {
        for m in 1..=1 + backups as u8 {
            if let Err(e) = owner_settles(backups, m) {
                failed.push(format!("settle ({backups}, {m}): {e}"));
            }
            if let Err(e) = multihop_completes(backups, m) {
                failed.push(format!("multihop ({backups}, {m}): {e}"));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "(backups, m) cells that failed: {failed:#?}"
    );
}

/// After the head crashes, its first backup settles from its replica at
/// m = n: it signs with the head's deposit key and its own, and the
/// member behind it signs the rest.
#[test]
fn a_backup_settles_from_its_replica_at_m_equals_n() {
    let mut c = Cluster::functional(4);
    c.attach_backup(0, 2);
    c.attach_backup(2, 3);
    let chan = c.standard_channel(0, 1, "failover", FUNDS, 3);
    c.pay(0, chan, PAID).unwrap();
    let keys = settlement_keys(&c, 0, chan);
    c.node_mut(0).enclave.crash();
    c.exec(2, Command::SettleFromReplica);
    c.mine(1);
    let got = keys.map(|k| c.chain_balance(&k));
    assert_eq!(got, [FUNDS - PAID, PAID]);
}

/// A member that owes forwards when a co-sign request reaches it passes
/// them on first, so the member behind it checks the request against the
/// state it covers. Here the first backup's host always says more input
/// is queued, so the head's payment is still owed there when the head
/// settles, at m = n; the deeper member signs instead of refusing.
#[test]
fn a_member_owing_forwards_passes_them_on_before_the_request() {
    let mut c: Cluster<HintedHost> = Cluster::build(
        ClusterConfig {
            n: 4,
            ..ClusterConfig::default()
        },
        None,
    );
    chain_by_handle(&mut c, 2, 2);
    let chan = c.standard_channel(0, 1, "owed", FUNDS, 3);
    c.sim.node_mut(NodeId(2)).more = Some(true);
    let pay = Command::Pay {
        id: chan,
        amount: PAID,
        count: 1,
    };
    c.submit(0, pay);
    settle_on_chain(&mut c, 0, chan, [FUNDS - PAID, PAID]).unwrap();
    assert_eq!(c.node(3).registry().counter_value("repl.sigs_refused"), 0);
}

/// The owner of an m-of-(1 + backups) deposit releases it to a fresh
/// address; once mined, the address holds the deposit's value.
fn owner_releases(backups: usize, m: u8) -> Result<(), String> {
    let mut c = Cluster::functional(1 + backups);
    chain_by_handle(&mut c, 1, backups);
    let dep = c.fund_deposit(0, FUNDS, m);
    let to = Keypair::from_seed(&[0x5e; 32]).pk;
    let release = Command::ReleaseDeposit {
        outpoint: dep.outpoint,
        to,
    };
    c.op(0, release).map_err(|e| format!("release: {e:?}"))?;
    c.mine(1);
    match c.chain_balance(&to) {
        FUNDS => Ok(()),
        got => Err(format!("the address holds {got}, not {FUNDS}")),
    }
}

/// Every m from 1 to n = 1 + backups, for chains of one and two backups:
/// the chain's members co-sign the release their replicas recorded.
#[test]
fn every_m_of_n_releases_a_deposit() {
    let mut failed = Vec::new();
    for backups in 1..=2usize {
        for m in 1..=1 + backups as u8 {
            if let Err(e) = owner_releases(backups, m) {
                failed.push(format!("release ({backups}, {m}): {e}"));
            }
        }
    }
    assert!(
        failed.is_empty(),
        "(backups, m) cells that failed: {failed:#?}"
    );
}

/// A compromised head asks its backup to co-sign the release of a deposit
/// that the backup's replica shows associated with a channel: the member
/// refuses, counts it, and the deposit stays unspent.
#[test]
fn a_member_refuses_to_release_an_associated_deposit() {
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    c.connect(0, 1);
    let chan = c.open_channel(0, 1, "held");
    let dep = c.fund_deposit(0, FUNDS, 2);
    c.approve_and_associate(0, 1, chan, &dep);
    let member = c.ids[2];
    let wire = {
        let (program, _env) = c.node_mut(0).enclave.compromise().unwrap();
        let to = Keypair::from_seed(&[0x5e; 32]).pk;
        let ask = ProtocolMsg::SigRequest {
            req_id: 7,
            hops: 0,
            tx: teechain::settle::release_tx(&dep, to),
        };
        match program.seal_to(&member, &ask) {
            Ok(teechain::Effect::Send { wire, .. }) => wire,
            other => panic!("a sealed request, got {other:?}"),
        }
    };
    let refused = |c: &Cluster| c.node(2).registry().counter_value("repl.sigs_refused");
    assert_eq!(refused(&c), 0);
    let deliver = Command::Deliver { wire, more: false };
    c.op_now(2, deliver).expect("delivered");
    c.settle_network();
    assert_eq!(refused(&c), 1, "the member must refuse the release");
    c.mine(1);
    assert!(c.chain.lock().utxo(&dep.outpoint).is_some(), "never spent");
}
