//! Premature termination of multi-hop payments: eject, τ and PoPTs (§5).

use teechain::enclave::Command;
use teechain::ops::OpError;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{ChannelId, ProtocolError, RouteId};

/// Builds a 3-node path and drives the multi-hop protocol only up to a
/// given number of simulator events, so tests can freeze it mid-protocol.
fn setup() -> (Cluster, ChannelId, ChannelId, RouteId) {
    let mut c = Cluster::functional(3);
    let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    let route = RouteId([42; 32]);
    (c, c01, c12, route)
}

fn start_multihop(c: &mut Cluster, route: RouteId, c01: ChannelId, c12: ChannelId, amount: u64) {
    let hops = vec![c.ids[0], c.ids[1], c.ids[2]];
    // Submit without resolving: the tests freeze the protocol
    // mid-flight, so the multihop operation deliberately stays pending.
    c.submit(
        0,
        Command::PayMultihop {
            route,
            hops,
            channels: vec![c01, c12],
            amount,
        },
    );
}

#[test]
fn eject_at_lock_settles_pre_payment() {
    let (mut c, c01, c12, route) = setup();
    start_multihop(&mut c, route, c01, c12, 300);
    // p1 ejects immediately (stage = lock): settlement at pre-payment
    // balances (1000 / 0).
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&c01).unwrap().my_settlement
    };
    c.op_now(0, Command::Eject { route }).unwrap();
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 1000, "pre-payment settlement");
}

#[test]
fn eject_mid_protocol_settles_via_tau() {
    let (mut c, c01, c12, route) = setup();
    start_multihop(&mut c, route, c01, c12, 300);
    // Drive the protocol until p1 reaches preUpdate (lock forward = 2
    // messages, sign backward = 2 messages).
    c.sim.run_to_idle(4);
    let stage0 = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&c01).unwrap().stage
    };
    assert_eq!(stage0, teechain::MultihopStage::PreUpdate);
    // p1 ejects: the only permitted settlement is τ, which settles the
    // WHOLE path at post-payment state.
    let settle0 = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&c01).unwrap().my_settlement
    };
    let settle2 = {
        let p = c.node(2).enclave.program().unwrap();
        p.channel(&c12).unwrap().my_settlement
    };
    c.op_now(0, Command::Eject { route }).unwrap();
    c.mine(1);
    // τ carries post-payment balances: p1 ends with 700, p3 with 300.
    assert_eq!(c.chain_balance(&settle0), 700);
    assert_eq!(c.chain_balance(&settle2), 300);
}

#[test]
fn popt_forces_consistent_pre_payment_settlement() {
    let (mut c, c01, c12, route) = setup();
    start_multihop(&mut c, route, c01, c12, 300);
    // Run lock+sign so everyone holds τ and the digest map; p1 enters
    // preUpdate, p2 is at sign.
    c.sim.run_to_idle(4);
    // p3 (node 2) prematurely terminates at stage *sign*: its settlement
    // is at pre-payment state.
    c.op_now(2, Command::Eject { route }).unwrap();
    c.mine(1);
    let popt = {
        // Node 0's host finds the conflicting settlement on chain by
        // watching the deposits of its route (here: via the spender index).
        let p = c.node(2).enclave.program().unwrap();
        let dep = p.channel(&c12).unwrap().all_deposits()[0];
        c.chain.lock().find_spender(&dep).unwrap().clone()
    };
    // Node 0 presents the PoPT; its TEE authorizes a *pre-payment*
    // settlement of its own channel, consistent with p3's state.
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&c01).unwrap().my_settlement
    };
    c.op_now(0, Command::EjectWithPopt { route, popt }).unwrap();
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 1000, "pre-payment, not 700");
}

#[test]
fn popt_forces_consistent_post_payment_settlement() {
    let (mut c, c01, c12, route) = setup();
    start_multihop(&mut c, route, c01, c12, 300);
    // Run until p2 processed postUpdate (event 9: lock×2, sign×2,
    // preUpdate×2, update×2, postUpdate@p2) — p2 is at postUpdate while
    // pn (node 2) is still at update, holding τ. This is exactly the
    // overlap window of the paper's case analysis (stage update, case ii).
    c.sim.run_to_idle(9);
    assert_eq!(
        c.node(1)
            .enclave
            .program()
            .unwrap()
            .channel(&c12)
            .unwrap()
            .stage,
        teechain::MultihopStage::PostUpdate
    );
    assert_eq!(
        c.node(2)
            .enclave
            .program()
            .unwrap()
            .channel(&c12)
            .unwrap()
            .stage,
        teechain::MultihopStage::Update
    );
    // p2 prematurely terminates at postUpdate: individual *post-payment*
    // settlements of both its channels.
    c.op_now(1, Command::Eject { route }).unwrap();
    c.mine(1);
    // pn (node 2), still at update, discovers the conflicting settlement
    // of its channel and presents it as PoPT: its TEE authorizes the
    // matching post-payment settlement (identical canonical transaction,
    // so broadcasting is a harmless duplicate).
    let popt = {
        let p = c.node(2).enclave.program().unwrap();
        let dep = p.channel(&c12).unwrap().all_deposits()[0];
        c.chain.lock().find_spender(&dep).unwrap().clone()
    };
    c.op_now(2, Command::EjectWithPopt { route, popt }).unwrap();
    c.mine(1);
    // Everyone ended post-payment: p3's settlement address holds 300.
    let p3_settle = {
        let p = c.node(2).enclave.program().unwrap();
        p.channel(&c12).unwrap().my_settlement
    };
    assert_eq!(c.chain_balance(&p3_settle), 300, "post-payment settlement");
    // And value was conserved: no deposit settled twice.
    let chain = c.chain.lock();
    assert_eq!(
        chain.utxo_total() + chain.total_fees(),
        chain.total_minted()
    );
}

#[test]
fn conflicting_settlements_cannot_both_confirm() {
    let (mut c, c01, c12, route) = setup();
    start_multihop(&mut c, route, c01, c12, 300);
    c.sim.run_to_idle(4); // p1 at preUpdate with τ.
                          // p1 ejects via τ; p3 simultaneously ejects at its own state.
    c.op_now(0, Command::Eject { route }).unwrap();
    c.op_now(2, Command::Eject { route }).unwrap();
    c.mine(2);
    // Exactly one settlement family confirmed for each deposit: the chain
    // rejected whichever conflicting transaction came second.
    let chain = c.chain.lock();
    let (confirmed, _) = chain.confirmed_footprint();
    // τ spends everything in one transaction; the loser's settlements
    // conflicted and were dropped.
    assert!(confirmed >= 1, "at least one settlement landed");
    // Neither deposit is double-spent: UTXO conservation holds.
    assert_eq!(
        chain.utxo_total() + chain.total_fees(),
        chain.total_minted()
    );
}

#[test]
fn bad_popt_rejected() {
    let (mut c, c01, c12, route) = setup();
    start_multihop(&mut c, route, c01, c12, 300);
    c.sim.run_to_idle(4);
    // A random transaction that does NOT conflict with the route's τ.
    let alien_key = teechain_crypto::schnorr::Keypair::from_seed(&[99; 32]);
    let op = c.chain.lock().mint_p2pk(&alien_key.pk, 5);
    let mut alien = teechain_blockchain::Transaction {
        inputs: vec![teechain_blockchain::TxIn::spend(op)],
        outputs: vec![teechain_blockchain::TxOut {
            value: 5,
            script: teechain_blockchain::ScriptPubKey::P2pk(alien_key.pk),
        }],
    };
    alien.sign_input(0, &alien_key);
    let err = c
        .op_now(0, Command::EjectWithPopt { route, popt: alien })
        .unwrap_err();
    assert_eq!(err, OpError::Rejected(ProtocolError::BadPopt));
}

/// Persistent mode: an eject the monotonic counter refuses parks like
/// every other mutating operation and settles once the counter lifts. It
/// must not close the route's channels first and lose the settlement with
/// the refused commit.
#[test]
fn throttled_eject_settles_once_the_counter_lifts() {
    let mut c = Cluster::new(ClusterConfig {
        n: 3,
        durability: teechain::DurabilityBackend::eager_persist(),
        ..Default::default()
    });
    let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    let route = RouteId([42; 32]);
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&c01).unwrap().my_settlement
    };
    // The lock commits on node 0 and spends this counter window; the
    // eject, at the same instant, is throttled.
    start_multihop(&mut c, route, c01, c12, 300);
    c.op(0, Command::Eject { route })
        .expect("the eject runs when the counter lifts");
    c.mine(1);
    // Pre-payment settlement, or τ's post-payment one if the route moved
    // on while the eject was parked: either way node 0 is paid out.
    let paid = c.chain_balance(&my_settle);
    assert!(paid == 1000 || paid == 700, "node 0 settled {paid}");
}

#[test]
fn ejected_route_cannot_eject_twice() {
    let (mut c, c01, c12, route) = setup();
    start_multihop(&mut c, route, c01, c12, 300);
    c.op_now(0, Command::Eject { route }).unwrap();
    assert!(c.op_now(0, Command::Eject { route }).is_err());
}
