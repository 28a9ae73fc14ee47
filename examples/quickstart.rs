//! Quickstart: two parties open a Teechain channel, pay each other, and
//! settle — all with *asynchronous* blockchain access, driven through
//! the typed operation API: every call is a correlated operation whose
//! completion carries a typed result (or a typed error — nothing is
//! fire-and-forget).
//!
//! Run with: `cargo run --example quickstart`

use teechain::ops::SettleKind;
use teechain::testkit::{Cluster, Harness};

fn main() {
    // Two nodes, each with an attested TEE, sharing a simulated Bitcoin-
    // like blockchain. Identities are exchanged out-of-band.
    let mut net = Cluster::functional(2);
    println!("Alice  = {}", net.ids[0].fingerprint());
    println!("Bob    = {}", net.ids[1].fingerprint());

    // 1. Secure channel: mutual remote attestation + authenticated DH.
    //    `handle(i)` submits a correlated operation; `wait` resolves its
    //    typed completion.
    let session = net.handle(0).connect(1);
    let bob = net.wait(session).expect("attestation");
    println!(
        "\n[1] attested session established with {}",
        bob.fingerprint()
    );

    // 2. Payment channel: created instantly — no blockchain write.
    let open = net.handle(0).open_channel(1, "alice-bob");
    let chan = net.wait(open).expect("channel open");
    println!(
        "[2] payment channel open ({}) — zero on-chain writes",
        chan.short()
    );

    // 3. Fund deposit: Alice mints 1,000 on chain into a TEE-controlled
    //    address, Bob's host verifies it on chain and his TEE approves,
    //    then the deposit is associated with the channel dynamically.
    let fund = net.handle(0).fund_deposit(1_000, 1);
    let deposit = net.wait(fund).expect("funding");
    net.approve_and_associate(0, 1, chan, &deposit);
    println!(
        "[3] deposit {} (1,000) approved and associated",
        deposit.outpoint.txid.short()
    );

    // 4. Payments: single message + ack; the completion IS the ack, with
    //    per-operation latency stamped on it.
    for amount in [250, 100, 50] {
        let receipt = net.pay(0, chan, amount).expect("payment");
        assert_eq!(receipt.amount, amount);
    }
    net.pay(1, chan, 150).expect("payment back"); // Bob pays some back.
    let (alice, bob_bal) = net.balances(0, chan);
    println!("[4] after payments: Alice={alice} Bob={bob_bal}");
    assert_eq!((alice, bob_bal), (750, 250));

    // 5. Settlement: one transaction carrying the final balances. The
    //    blockchain is only now involved — and only eventually. The
    //    typed completion says HOW the channel terminated.
    let alice_addr = {
        let p = net.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    let s = net.settle_channel(0, chan).expect("settle");
    assert!(matches!(s.kind, SettleKind::OnChain(_)));
    net.mine(1);
    println!(
        "[5] settled on chain: Alice's settlement address holds {}",
        net.chain_balance(&alice_addr)
    );
    assert_eq!(net.chain_balance(&alice_addr), 750);
    println!("\nDone: 4 payments, 2 on-chain transactions total (funding + settlement).");
}
