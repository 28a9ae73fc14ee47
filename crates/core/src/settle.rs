//! Settlement transaction construction and signing.
//!
//! All settlement transactions for a channel spend the *same* deposit
//! outpoints, so at most one can ever confirm — the conflict property that
//! proofs of premature termination build on (§5.1).
//!
//! Transactions are built canonically (inputs and outputs sorted) so that
//! both channel endpoints — and every TEE along a multi-hop route —
//! derive bit-identical transactions and can compare them by txid.

use crate::channel::Channel;
use crate::deposit::{keypair_in, DepositBook};
use crate::types::Deposit;
use teechain_blockchain::{OutPoint, ScriptPubKey, Transaction, TxIn, TxOut};
use teechain_crypto::schnorr::{Keypair, PublicKey};
use teechain_util::codec::Encode;

/// Builds the unsigned settlement transaction for a channel at explicit
/// balances (callers pass pre- or post-payment balances as needed).
pub fn settlement_tx(chan: &Channel, my_bal: u64, remote_bal: u64) -> Transaction {
    let inputs = chan.all_deposits().into_iter().map(TxIn::spend).collect();
    let mut outputs = Vec::new();
    if my_bal > 0 {
        outputs.push(TxOut {
            value: my_bal,
            script: ScriptPubKey::P2pk(chan.my_settlement),
        });
    }
    if remote_bal > 0 {
        outputs.push(TxOut {
            value: remote_bal,
            script: ScriptPubKey::P2pk(chan.remote_settlement),
        });
    }
    canonicalize(Transaction { inputs, outputs })
}

/// Builds the settlement transaction at the channel's current balances.
pub fn current_settlement_tx(chan: &Channel) -> Transaction {
    settlement_tx(chan, chan.my_bal, chan.remote_bal)
}

/// Builds a release transaction spending a free deposit to `to`.
pub fn release_tx(dep: &Deposit, to: PublicKey) -> Transaction {
    Transaction {
        inputs: vec![TxIn::spend(dep.outpoint)],
        outputs: vec![TxOut {
            value: dep.value,
            script: ScriptPubKey::P2pk(to),
        }],
    }
}

/// Sorts inputs by outpoint and outputs by (script bytes, value) so both
/// endpoints derive identical transactions.
pub fn canonicalize(mut tx: Transaction) -> Transaction {
    tx.inputs.sort_by_key(|i| i.prevout);
    tx.outputs
        .sort_by_cached_key(|a| (a.script.encode_to_vec(), a.value));
    tx
}

#[cfg(test)]
thread_local! {
    /// Signatures and sighashes [`sign_inputs`] computed on this thread.
    pub(crate) static SIGN_WORK: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Adds to [`SIGN_WORK`].
#[cfg(test)]
fn count_work(signatures: usize, sighashes: usize) {
    SIGN_WORK.with(|w| {
        let (s, h) = w.get();
        w.set((s + signatures, h + sighashes));
    });
}

#[cfg(not(test))]
fn count_work(_: usize, _: usize) {}

/// Signs every input whose deposit committee includes a key we hold,
/// until the input carries its committee threshold `m`. Returns the
/// number of signatures added. `keypair_of` resolves a committee member's
/// public key to its signing handle, `deposit_of` an outpoint to its
/// committee.
///
/// An input that already carries `m` witnesses gets no more: the chain
/// checks a spend's signatures only up to `m`. This trusts witness counts
/// exactly as [`threshold_met`] does: the witnesses came from attested
/// enclaves over authenticated sessions, and the chain verifies them at
/// broadcast. So on a multi-hop τ, a hop skips the 1-of-1 deposit inputs
/// that the next hop, which holds the same key (Alg. 1 line 72), already
/// signed. The sighash is computed only if some input still needs a
/// signature.
pub fn sign_inputs<'a>(
    tx: &mut Transaction,
    keypair_of: impl Fn(&PublicKey) -> Option<Keypair>,
    deposit_of: impl Fn(&OutPoint) -> Option<&'a Deposit>,
) -> usize {
    let mut sighash = None;
    let mut added = 0;
    for i in 0..tx.inputs.len() {
        let Some(dep) = deposit_of(&tx.inputs[i].prevout) else {
            continue;
        };
        let m = dep.committee.m as usize;
        for pk in &dep.committee.member_keys {
            if tx.inputs[i].witness.len() >= m {
                break;
            }
            let Some(key) = keypair_of(pk) else {
                continue;
            };
            let digest = *sighash.get_or_insert_with(|| {
                count_work(0, 1);
                tx.sighash()
            });
            count_work(1, 0);
            let sig = teechain_crypto::schnorr::sign(&key, &digest);
            let witness = &mut tx.inputs[i].witness;
            if !witness.contains(&sig) {
                witness.push(sig);
                added += 1;
            }
        }
    }
    added
}

/// Signs using a [`DepositBook`]'s keys and deposit records.
pub fn sign_with_book(tx: &mut Transaction, book: &DepositBook) -> usize {
    sign_inputs(
        tx,
        |pk| keypair_in(&book.keys, pk),
        |op| book.deposit_of(op),
    )
}

/// True if every input carries at least its committee threshold of
/// signatures (validity against scripts is checked by the chain; this is
/// the enclave-side sufficiency check before broadcasting).
pub fn threshold_met<'a>(
    tx: &Transaction,
    deposit_of: impl Fn(&OutPoint) -> Option<&'a Deposit>,
) -> bool {
    tx.inputs.iter().all(|input| {
        deposit_of(&input.prevout)
            .map(|d| input.witness.len() >= d.committee.m as usize)
            .unwrap_or(false)
    })
}

/// True if `tx` spends one of `book`'s own deposits with fewer witnesses
/// than its committee threshold: only the committee's other members can
/// sign it further (§6.1).
pub(crate) fn needs_co_signs(book: &DepositBook, tx: &Transaction) -> bool {
    tx.inputs.iter().any(|input| {
        book.mine
            .get(&input.prevout)
            .is_some_and(|(dep, _)| input.witness.len() < dep.committee.m as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableState;
    use crate::msg::StateDelta;
    use crate::types::{ChannelId, CommitteeSpec};
    use teechain_blockchain::{Chain, TxId};

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    fn channel_with_deposit() -> (Channel, DepositBook, Chain) {
        let mut chain = Chain::new();
        let mut state = DurableState::default();
        let dep_key = kp(10);
        state.apply(&StateDelta::Key(dep_key.pk, dep_key.sk.to_bytes()));
        let committee = CommitteeSpec::single(dep_key.pk);
        let op = chain.mint(
            ScriptPubKey::multisig(committee.m, committee.member_keys.clone()),
            100,
        );
        let dep = Deposit {
            outpoint: op,
            value: 100,
            committee,
        };
        let key = state.book.check_new_mine(&dep).unwrap().to_bytes();
        state.apply(&StateDelta::Deposit {
            dep,
            key: Some(key),
            mine: true,
        });
        let mut chan = Channel::new(
            ChannelId::from_label("c"),
            kp(1).pk,
            kp(2).pk, // my settlement
            kp(3).pk, // remote settlement
        );
        chan.is_open = true;
        chan.my_deps = vec![op];
        chan.my_bal = 100;
        (chan, state.book, chain)
    }

    #[test]
    fn settlement_pays_both_sides() {
        let (mut chan, _, _) = channel_with_deposit();
        chan.my_bal = 60;
        chan.remote_bal = 40;
        let tx = current_settlement_tx(&chan);
        assert_eq!(tx.inputs.len(), 1);
        assert_eq!(tx.output_value(), 100);
        assert_eq!(tx.outputs.len(), 2);
    }

    #[test]
    fn zero_balance_omitted() {
        let (chan, _, _) = channel_with_deposit();
        let tx = current_settlement_tx(&chan);
        assert_eq!(tx.outputs.len(), 1); // remote_bal == 0
    }

    #[test]
    fn both_perspectives_agree_on_txid() {
        let (mut chan, _, _) = channel_with_deposit();
        chan.my_bal = 70;
        chan.remote_bal = 30;
        let mine = current_settlement_tx(&chan);
        let theirs = current_settlement_tx(&chan.flipped());
        assert_eq!(mine.txid(), theirs.txid());
    }

    #[test]
    fn signed_settlement_validates_on_chain() {
        let (mut chan, book, mut chain) = channel_with_deposit();
        chan.my_bal = 55;
        chan.remote_bal = 45;
        let mut tx = current_settlement_tx(&chan);
        let added = sign_with_book(&mut tx, &book);
        assert_eq!(added, 1);
        assert!(threshold_met(&tx, |op| book.deposit_of(op)));
        chain.submit(tx).unwrap();
        chain.mine_block();
        assert_eq!(chain.balance_p2pk(&kp(2).pk), 55);
        assert_eq!(chain.balance_p2pk(&kp(3).pk), 45);
    }

    #[test]
    fn settlements_at_different_states_conflict() {
        let (mut chan, _, _) = channel_with_deposit();
        chan.my_bal = 50;
        chan.remote_bal = 50;
        let pre = current_settlement_tx(&chan);
        let post = settlement_tx(&chan, 40, 60);
        assert_ne!(pre.txid(), post.txid());
        assert!(pre.conflicts_with(&post));
    }

    #[test]
    fn release_tx_spends_to_target() {
        let dep = Deposit {
            outpoint: OutPoint {
                txid: TxId([1; 32]),
                vout: 0,
            },
            value: 77,
            committee: CommitteeSpec::single(kp(1).pk),
        };
        let tx = release_tx(&dep, kp(5).pk);
        assert_eq!(tx.output_value(), 77);
        assert!(tx.spends(&dep.outpoint));
    }

    #[test]
    fn threshold_respects_committee_m() {
        let mut book = DepositBook::default();
        let a = kp(20);
        let b = kp(21);
        let pk_a = book.insert_key(a.sk);
        let dep = Deposit {
            outpoint: OutPoint {
                txid: TxId([2; 32]),
                vout: 0,
            },
            value: 10,
            committee: CommitteeSpec {
                m: 2,
                member_keys: vec![pk_a, b.pk],
            },
        };
        book.mine.insert(
            dep.outpoint,
            (dep.clone(), crate::deposit::DepositStatus::Free),
        );
        let mut tx = release_tx(&dep, kp(5).pk);
        // We hold only one of the two required keys.
        sign_with_book(&mut tx, &book);
        assert!(!threshold_met(&tx, |op| book.deposit_of(op)));
        // Add the second committee signature.
        let sighash = tx.sighash();
        tx.inputs[0]
            .witness
            .push(teechain_crypto::schnorr::sign(&b, &sighash));
        assert!(threshold_met(&tx, |op| book.deposit_of(op)));
    }
}
