//! Property-based test of the paper's central security property
//! (Definition A.1, *balance correctness*): after ANY sequence of
//! payments — and regardless of whether the counterparty cooperates — a
//! well-behaved user can unilaterally reclaim at least their perceived
//! balance on the blockchain.

use proptest::prelude::*;
use teechain::enclave::Command;
use teechain::testkit::{Cluster, Harness};

/// Operations the adversary/schedule may interleave.
#[derive(Debug, Clone)]
enum Op {
    /// Node 0 pays node 1.
    Pay01(u64),
    /// Node 1 pays node 0.
    Pay10(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..200).prop_map(Op::Pay01),
            (1u64..200).prop_map(Op::Pay10),
        ],
        0..25,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random payment interleavings, unilateral settlement yields
    /// exactly the perceived balance for both parties, and value is
    /// conserved on chain.
    #[test]
    fn prop_balance_correctness(ops in arb_ops(), settle_by_zero in any::<bool>()) {
        let mut net = Cluster::functional(2);
        let chan = net.standard_channel(0, 1, "prop", 10_000, 1);
        // Node 1 funds its side too, so both directions can pay.
        let dep = net.fund_deposit(1, 10_000, 1);
        net.approve_and_associate(1, 0, chan, &dep);

        let mut bal0: u64 = 10_000;
        let mut bal1: u64 = 10_000;
        for op in &ops {
            match *op {
                Op::Pay01(v) => {
                    if bal0 >= v {
                        net.pay(0, chan, v).unwrap();
                        bal0 -= v;
                        bal1 += v;
                    }
                }
                Op::Pay10(v) => {
                    if bal1 >= v {
                        net.pay(1, chan, v).unwrap();
                        bal1 -= v;
                        bal0 += v;
                    }
                }
            }
        }
        // The perceived balances must match the enclave state exactly
        // (Proposition 1 of the paper's proof).
        prop_assert_eq!(net.balances(0, chan), (bal0, bal1));

        // Settlement, then full reclamation — the paper's balance
        // correctness algorithm (Definition A.4): settle every channel,
        // then release every free deposit. With neutral balances the
        // settle terminates OFF-chain (deposits dissociate and become
        // free); otherwise a settlement transaction carries the balances.
        let settler = if settle_by_zero { 0 } else { 1 };
        let (addr0, addr1) = {
            let p = net.node(settler).enclave.program().unwrap();
            let c = p.channel(&chan).unwrap();
            (c.my_settlement, c.remote_settlement)
        };
        net.settle_channel(settler, chan).unwrap();
        net.mine(1);
        // OPS3: both parties release any deposits the termination freed.
        for party in [0usize, 1] {
            let frees = net
                .node(party)
                .enclave
                .program()
                .unwrap()
                .book_ref()
                .free_deposits();
            let target = if party == settler { addr0 } else { addr1 };
            for dep in frees {
                net.op(
                    party,
                    Command::ReleaseDeposit {
                        outpoint: dep.outpoint,
                        to: target,
                    },
                )
                .unwrap();
            }
        }
        net.settle_network();
        net.mine(1);
        let (mine, theirs) = if settle_by_zero {
            (bal0, bal1)
        } else {
            (bal1, bal0)
        };
        prop_assert_eq!(net.chain_balance(&addr0), mine);
        prop_assert_eq!(net.chain_balance(&addr1), theirs);
        // Chain-level value conservation.
        let chain = net.chain.lock();
        prop_assert_eq!(chain.utxo_total() + chain.total_fees(), chain.total_minted());
    }

    /// Multi-hop payments preserve every participant's total balance sum
    /// across their channels (intermediaries never gain or lose).
    #[test]
    fn prop_multihop_conservation(amounts in proptest::collection::vec(1u64..100, 1..6)) {
        let mut net = Cluster::functional(3);
        let c01 = net.standard_channel(0, 1, "c01", 5_000, 1);
        let c12 = net.standard_channel(1, 2, "c12", 5_000, 1);
        let mut sent = 0u64;
        for (k, v) in amounts.iter().enumerate() {
            net.pay_multihop(&[0, 1, 2], &[c01, c12], *v, &format!("p{k}")).unwrap();
            sent += v;
        }
        // Intermediary node 1: inbound gains exactly offset outbound losses.
        let (in_my, _) = net.balances(1, c01);
        let (out_my, _) = net.balances(1, c12);
        prop_assert_eq!(in_my, sent);
        prop_assert_eq!(out_my, 5_000 - sent);
        // Receiver got exactly the sum.
        prop_assert_eq!(net.balances(2, c12).0, sent);
    }
}
