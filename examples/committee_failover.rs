//! Fault tolerance (§6): committee chains survive a TEE crash, and
//! m-of-n thresholds defeat a *compromised* TEE trying to settle at a
//! stale state.
//!
//! Run with: `cargo run --example committee_failover`

use teechain::enclave::Command;
use teechain::msg::ProtocolMsg;
use teechain::testkit::{Cluster, Harness};
use teechain::Effect;

fn main() {
    // Alice (0) pays Bob (1); Alice's TEE is replicated to a committee
    // member (2) with a 2-of-2 deposit threshold.
    let mut net = Cluster::functional(3);
    net.attach_backup(0, 2);
    net.connect(0, 1);
    let chan = net.open_channel(0, 1, "alice-bob");
    let deposit = net.fund_deposit(0, 1_000, 2); // 2-of-2 committee.
    println!(
        "deposit committee: {}-of-{}",
        deposit.committee.m,
        deposit.committee.n()
    );
    net.approve_and_associate(0, 1, chan, &deposit);
    net.pay(0, chan, 400).unwrap();
    println!("honest state: {:?}", net.balances(0, chan));

    // --- Byzantine attempt -------------------------------------------
    // Alice's TEE is compromised (think Foreshadow): the attacker
    // extracts the channel and forges a settlement at the PRE-payment
    // state, trying to claw back the 400 already paid to Bob.
    let forged = {
        let (program, _) = net.node_mut(0).enclave.compromise().unwrap();
        let mut stale = program.channel(&chan).unwrap().clone();
        stale.my_bal = 1_000;
        stale.remote_bal = 0;
        teechain::settle::current_settlement_tx(&stale)
    };
    // The attacker asks the committee member to co-sign it over the
    // enclave's session, exactly as the head asks; the member checks it
    // against its replica and refuses.
    let member = net.ids[2];
    let wire = {
        let (program, _) = net.node_mut(0).enclave.compromise().unwrap();
        let ask = ProtocolMsg::SigRequest {
            req_id: 1,
            hops: 0,
            tx: forged.clone(),
        };
        match program.seal_to(&member, &ask) {
            Ok(Effect::Send { wire, .. }) => wire,
            other => panic!("a sealed request, got {other:?}"),
        }
    };
    net.op_now(2, Command::Deliver { wire, more: false })
        .expect("delivered");
    net.settle_network();
    let refused = net.node(2).registry().counter_value("repl.sigs_refused");
    println!("co-sign requests the committee member refused: {refused}");
    assert_eq!(refused, 1);
    assert!(
        net.chain.lock().submit(forged).is_err(),
        "1 of 2 signatures cannot spend the deposit"
    );

    // --- Crash failover ----------------------------------------------
    // Alice's machine dies entirely. The committee member holds the
    // replicated state: force-freeze, then settle at the TRUE balances.
    net.node_mut(0).enclave.crash();
    let replica = net.exec(2, Command::ReadReplica);
    println!("replica state before failover: {replica:?}");
    net.exec(2, Command::SettleFromReplica);
    net.mine(1);
    let alice_addr = {
        let p = net.node(2).enclave.program().unwrap();
        p.replica_channel(&chan).unwrap().my_settlement
    };
    println!(
        "after crash failover, Alice's settlement address holds {}",
        net.chain_balance(&alice_addr)
    );
    assert_eq!(net.chain_balance(&alice_addr), 600);
    println!("balance correctness held under crash AND compromise.");
}
