//! The paper's e-commerce motivation (§2.2): Alice buys from Carol via a
//! payment processor, without a direct channel — a multi-hop payment with
//! consistent termination guarantees.
//!
//! Run with: `cargo run --example multihop_commerce`

use teechain::enclave::Command;
use teechain::testkit::{Cluster, Harness};
use teechain::RouteId;

fn main() {
    let mut net = Cluster::functional(3);
    let (alice, processor, carol) = (0, 1, 2);

    // Channels: Alice ↔ Processor ↔ Carol, each funded with 1,000.
    let c1 = net.standard_channel(alice, processor, "alice-pp", 1_000, 1);
    let c2 = net.standard_channel(processor, carol, "pp-carol", 1_000, 1);
    println!(
        "channels open: alice-pp ({}), pp-carol ({})",
        c1.short(),
        c2.short()
    );

    // A multi-hop purchase: 420 flows Alice → Processor → Carol, with all
    // channels updating atomically (lock → sign τ → preUpdate → update →
    // postUpdate → release).
    let delivered = net
        .pay_multihop(&[alice, processor, carol], &[c1, c2], 420, "order-1")
        .unwrap();
    assert_eq!(delivered.amount, 420);
    println!(
        "purchase complete: Alice {:?}, Carol {:?}",
        net.balances(alice, c1),
        net.balances(carol, c2)
    );
    assert_eq!(net.balances(carol, c2).0, 420);

    // Now the adversarial case: a second purchase starts, but Carol
    // prematurely terminates mid-protocol. Thanks to the intermediate
    // settlement transaction τ and proofs of premature termination, every
    // channel settles at a CONSISTENT state — nobody loses funds.
    let route = RouteId([7; 32]);
    let hops = vec![net.ids[alice], net.ids[processor], net.ids[carol]];
    // Submit without resolving: the purchase is deliberately frozen
    // mid-protocol (its completion will carry the failure).
    net.submit(
        alice,
        Command::PayMultihop {
            route,
            hops,
            channels: vec![c1, c2],
            amount: 100,
        },
    );
    // Run only lock+sign: everyone holds τ; balances not yet updated.
    net.sim.run_to_idle(4);
    println!("\nsecond purchase locked; Carol ejects prematurely...");
    net.op_now(carol, Command::Eject { route }).unwrap();
    net.mine(1);

    // Alice's host sees the conflicting settlement on chain and presents
    // it to her TEE as a proof of premature termination.
    let popt = {
        let p = net.node(carol).enclave.program().unwrap();
        let dep = p.channel(&c2).unwrap().all_deposits()[0];
        net.chain.lock().find_spender(&dep).unwrap().clone()
    };
    net.op_now(alice, Command::EjectWithPopt { route, popt })
        .unwrap();
    net.mine(1);
    let alice_addr = {
        let p = net.node(alice).enclave.program().unwrap();
        p.channel(&c1).unwrap().my_settlement
    };
    // Alice settled at pre-payment state of the SECOND purchase: she keeps
    // the 580 she had after the first one. The 100 was never lost.
    println!(
        "Alice settled consistently at pre-payment state: {} on chain",
        net.chain_balance(&alice_addr)
    );
    assert_eq!(net.chain_balance(&alice_addr), 580);
}
