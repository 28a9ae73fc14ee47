//! The blockchain-cost metric of §7.5.
//!
//! The paper abstracts from any particular blockchain and "approximate\[s\]
//! cost by counting the pairs of public keys and signatures that must be
//! placed onto the blockchain: a cost of 1 means one public key and one
//! signature". A transaction's cost is therefore
//! `(public keys placed + signatures placed) / 2`.

use crate::tx::Transaction;

/// Number of public keys a transaction places on the chain (in its output
/// scripts: one for pay-to-public-key, `n` for m-of-n multisig).
pub fn pubkeys_placed(tx: &Transaction) -> usize {
    tx.outputs.iter().map(|o| o.script.pubkey_count()).sum()
}

/// Number of signatures a transaction places on the chain (its witnesses).
pub fn signatures_placed(tx: &Transaction) -> usize {
    tx.inputs.iter().map(|i| i.witness.len()).sum()
}

/// The §7.5 cost of one transaction.
pub fn tx_cost(tx: &Transaction) -> f64 {
    (pubkeys_placed(tx) + signatures_placed(tx)) as f64 / 2.0
}

/// The aggregate (transaction count, cost) of a set of transactions.
pub fn footprint<'a>(txs: impl IntoIterator<Item = &'a Transaction>) -> (usize, f64) {
    let mut count = 0;
    let mut cost = 0.0;
    for tx in txs {
        count += 1;
        cost += tx_cost(tx);
    }
    (count, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::ScriptPubKey;
    use crate::tx::{OutPoint, TxId, TxIn, TxOut};
    use teechain_crypto::schnorr::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    #[test]
    fn p2pk_spend_costs_one() {
        // One signature in, one pubkey out: cost (1+1)/2 = 1.
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(OutPoint {
                txid: TxId([1; 32]),
                vout: 0,
            })],
            outputs: vec![TxOut {
                value: 5,
                script: ScriptPubKey::P2pk(kp(1).pk),
            }],
        };
        tx.sign_input(0, &kp(2));
        assert_eq!(tx_cost(&tx), 1.0);
    }

    #[test]
    fn deposit_cost_matches_paper_formula() {
        // A Teechain funding deposit into an m-of-n address: one signature
        // and one pubkey to spend in (1), plus n committee pubkeys (n/2).
        // Paper (§7.5): cost = 1 + n/2.
        for n in 1..=4u8 {
            let committee: Vec<_> = (1..=n).map(|i| kp(i).pk).collect();
            let mut tx = Transaction {
                inputs: vec![TxIn::spend(OutPoint {
                    txid: TxId([1; 32]),
                    vout: 0,
                })],
                outputs: vec![TxOut {
                    value: 5,
                    // The change output is omitted in the paper's accounting;
                    // we also count only the multisig output here. The "1"
                    // in the formula is the spending (sig, pubkey) pair: the
                    // signature below plus the P2PK pubkey of the *source*
                    // output, which the source tx already placed. To match
                    // the paper we count sig=1 here, pubkey=1 attributed.
                    script: ScriptPubKey::multisig(1, committee.clone()),
                }],
            };
            tx.sign_input(0, &kp(9));
            // tx places n pubkeys + 1 sig => (n+1)/2; the paper's extra 1/2
            // (the source pubkey) lives in the funding tx. The analytic
            // Table 4 model in `teechain-baselines` accounts for it.
            assert_eq!(tx_cost(&tx), (n as f64 + 1.0) / 2.0);
        }
    }

    #[test]
    fn footprint_sums() {
        let mk = |v: u64| Transaction {
            inputs: vec![],
            outputs: vec![TxOut {
                value: v,
                script: ScriptPubKey::P2pk(kp(1).pk),
            }],
        };
        let txs = [mk(1), mk(2)];
        let (count, cost) = footprint(txs.iter());
        assert_eq!(count, 2);
        assert_eq!(cost, 1.0); // Two pubkeys, zero signatures.
    }
}
