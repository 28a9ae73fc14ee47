//! The motivating attack (§1, §2.2): blockchains only offer best-effort
//! write latency, so any protocol that needs a transaction confirmed
//! "within τ" can be robbed. The Lightning baseline falls; Teechain, which
//! never needs timely writes, does not care.
//!
//! Run with: `cargo run --example delay_attack`

use teechain::testkit::{Cluster, Harness};
use teechain_baselines::attack::delay_attack_on_ln;
use teechain_blockchain::AdversaryPolicy;

fn main() {
    println!("=== Lightning Network under a transaction-delay attack ===\n");
    let tau = 10; // Reaction window in blocks.
    for censor in [5, 10, 11, 20] {
        let out = delay_attack_on_ln(1_000, 600, tau, censor);
        println!(
            "censor {censor:>2} blocks (tau = {tau}): cheater={:>4} victim={:>4}  theft={}",
            out.cheater_balance, out.victim_balance, out.theft_succeeded
        );
    }
    println!("\n→ once the adversary delays the justice transaction past τ, the\n  cheater rolls back the channel and keeps the victim's 600.\n");

    println!("=== The same adversary against Teechain ===\n");
    let mut net = Cluster::functional(2);
    let chan = net.standard_channel(0, 1, "a-b", 1_000, 1);
    net.pay(0, chan, 600).unwrap();
    // The adversary delays EVERY transaction by 50 blocks. Teechain does
    // not monitor the chain and has no reaction window: the settlement
    // simply confirms whenever it confirms.
    net.chain
        .lock()
        .set_policy(AdversaryPolicy::DelayAll { blocks: 50 });
    let bob_addr = {
        let p = net.node(1).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    net.settle_channel(1, chan).unwrap();
    net.mine(49);
    println!(
        "after 49 censored blocks Bob has {} on chain (settlement delayed, not defeated)",
        net.chain_balance(&bob_addr)
    );
    net.mine(2);
    println!(
        "after the delay expires Bob has {} — the full amount he was owed",
        net.chain_balance(&bob_addr)
    );
    assert_eq!(net.chain_balance(&bob_addr), 600);
    println!("\n→ Teechain loses liveness during censorship, never safety:\n  there is no stale state an attacker could confirm instead.");
}
