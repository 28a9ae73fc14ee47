//! The chain state: blocks, the UTXO set, validation and mining.

use crate::block::Block;
use crate::mempool::{AdversaryPolicy, Mempool};
use crate::script::ScriptPubKey;
use crate::tx::{OutPoint, Transaction, TxId, TxOut};
use std::collections::{HashMap, HashSet};
use teechain_crypto::schnorr::PublicKey;

/// Stateless and stateful transaction validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Transaction has no inputs (only the genesis/mint path may).
    NoInputs,
    /// Transaction has no outputs.
    NoOutputs,
    /// An input references an unknown or already-spent output.
    UnknownInput(OutPoint),
    /// A timelocked output was spent before its delay elapsed.
    TimelockNotMet(OutPoint),
    /// The same outpoint appears twice within the transaction.
    DuplicateInput(OutPoint),
    /// Output value exceeds input value.
    OutputsExceedInputs {
        /// Total value consumed.
        input: u64,
        /// Total value created.
        output: u64,
    },
    /// A witness does not satisfy its output's script.
    BadWitness(OutPoint),
    /// Value arithmetic overflowed `u64`.
    ValueOverflow,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::NoInputs => write!(f, "transaction has no inputs"),
            ValidationError::NoOutputs => write!(f, "transaction has no outputs"),
            ValidationError::UnknownInput(op) => {
                write!(f, "unknown or spent input {}:{}", op.txid.short(), op.vout)
            }
            ValidationError::TimelockNotMet(op) => {
                write!(f, "timelock not met for {}:{}", op.txid.short(), op.vout)
            }
            ValidationError::DuplicateInput(op) => {
                write!(f, "duplicate input {}:{}", op.txid.short(), op.vout)
            }
            ValidationError::OutputsExceedInputs { input, output } => {
                write!(f, "outputs {output} exceed inputs {input}")
            }
            ValidationError::BadWitness(op) => {
                write!(
                    f,
                    "witness fails script for {}:{}",
                    op.txid.short(),
                    op.vout
                )
            }
            ValidationError::ValueOverflow => write!(f, "value overflow"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Submission failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The transaction is invalid against current chain state.
    Invalid(ValidationError),
    /// A pending mempool transaction already spends one of the inputs.
    MempoolConflict,
    /// The transaction is already pending or confirmed.
    Duplicate,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(e) => write!(f, "invalid transaction: {e}"),
            SubmitError::MempoolConflict => write!(f, "conflicts with pending transaction"),
            SubmitError::Duplicate => write!(f, "duplicate transaction"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A single-node simulated blockchain.
///
/// There is no proof of work and no reorgs: the simulation models an
/// abstract append-only ledger with adjustable *write latency* (via the
/// [`AdversaryPolicy`] on the mempool), which is the only property the
/// Teechain protocols interact with.
#[derive(Debug, Default)]
pub struct Chain {
    blocks: Vec<Block>,
    utxo: HashMap<OutPoint, (TxOut, u64)>,
    tx_index: HashMap<TxId, (u64, Transaction)>,
    spender: HashMap<OutPoint, TxId>,
    mempool: Mempool,
    total_minted: u64,
    total_fees: u64,
}

impl Chain {
    /// Creates an empty chain with an empty genesis block.
    pub fn new() -> Self {
        let mut chain = Chain::default();
        chain.push_block(vec![]);
        chain
    }

    /// Mints `value` directly to `script`, confirmed immediately in a fresh
    /// block. This is the test/benchmark faucet; it is the only way value
    /// enters the system.
    pub fn mint(&mut self, script: ScriptPubKey, value: u64) -> OutPoint {
        let tx = Transaction {
            inputs: vec![],
            outputs: vec![TxOut { value, script }],
        };
        let outpoint = tx.outpoint(0);
        self.total_minted += value;
        self.apply_tx(&tx);
        self.push_block(vec![tx]);
        outpoint
    }

    /// Convenience: mints a pay-to-public-key output.
    pub fn mint_p2pk(&mut self, pk: &PublicKey, value: u64) -> OutPoint {
        self.mint(ScriptPubKey::P2pk(*pk), value)
    }

    /// Validates `tx` against the current UTXO set.
    pub fn validate(&self, tx: &Transaction) -> Result<(), ValidationError> {
        if tx.inputs.is_empty() {
            return Err(ValidationError::NoInputs);
        }
        if tx.outputs.is_empty() {
            return Err(ValidationError::NoOutputs);
        }
        let mut seen = HashSet::new();
        let sighash = tx.sighash();
        let mut input_value: u64 = 0;
        for input in &tx.inputs {
            if !seen.insert(input.prevout) {
                return Err(ValidationError::DuplicateInput(input.prevout));
            }
            let (prev, created_at) = self
                .utxo
                .get(&input.prevout)
                .ok_or(ValidationError::UnknownInput(input.prevout))?;
            let confirmations = self.height().saturating_sub(*created_at) + 1;
            let timelocked = matches!(
                &prev.script,
                ScriptPubKey::Revocable { .. } | ScriptPubKey::Htlc { .. }
            );
            if !prev.script.verify_spend_at(
                &sighash,
                &input.witness,
                &input.preimage,
                confirmations,
            ) {
                // Distinguish "too early" from "bad signature" for
                // diagnosability: retry with no timelock.
                return if timelocked
                    && prev.script.verify_spend_at(
                        &sighash,
                        &input.witness,
                        &input.preimage,
                        u64::MAX,
                    ) {
                    Err(ValidationError::TimelockNotMet(input.prevout))
                } else {
                    Err(ValidationError::BadWitness(input.prevout))
                };
            }
            input_value = input_value
                .checked_add(prev.value)
                .ok_or(ValidationError::ValueOverflow)?;
        }
        let mut output_value: u64 = 0;
        for out in &tx.outputs {
            output_value = output_value
                .checked_add(out.value)
                .ok_or(ValidationError::ValueOverflow)?;
        }
        if output_value > input_value {
            return Err(ValidationError::OutputsExceedInputs {
                input: input_value,
                output: output_value,
            });
        }
        Ok(())
    }

    /// Submits a transaction to the mempool. Validation happens now (against
    /// confirmed state) and again at mining time.
    pub fn submit(&mut self, tx: Transaction) -> Result<TxId, SubmitError> {
        let txid = tx.txid();
        if self.tx_index.contains_key(&txid) || self.mempool.contains(&txid) {
            return Err(SubmitError::Duplicate);
        }
        self.validate(&tx).map_err(SubmitError::Invalid)?;
        if self.mempool.has_conflict(&tx) {
            return Err(SubmitError::MempoolConflict);
        }
        Ok(self.mempool.insert(tx, self.height()))
    }

    /// Mines one block from eligible mempool transactions. Transactions that
    /// became invalid (e.g. their inputs were spent by an earlier tx in the
    /// same block) are silently dropped, as a real miner would.
    pub fn mine_block(&mut self) -> &Block {
        let height = self.height() + 1;
        let candidates = self.mempool.drain_eligible(height);
        let mut included = Vec::new();
        for tx in candidates {
            if self.validate(&tx).is_ok() {
                self.apply_tx(&tx);
                self.mempool.evict_conflicts(&tx);
                included.push(tx);
            }
        }
        self.push_block(included);
        self.blocks.last().expect("just pushed")
    }

    /// Mines `k` blocks.
    pub fn mine_blocks(&mut self, k: u64) {
        for _ in 0..k {
            self.mine_block();
        }
    }

    fn apply_tx(&mut self, tx: &Transaction) {
        let txid = tx.txid();
        let mut input_value = 0u64;
        for input in &tx.inputs {
            if let Some((prev, _)) = self.utxo.remove(&input.prevout) {
                input_value += prev.value;
            }
            self.spender.insert(input.prevout, txid);
        }
        let height = self.blocks.len() as u64;
        let mut output_value = 0u64;
        for (vout, out) in tx.outputs.iter().enumerate() {
            self.utxo.insert(
                OutPoint {
                    txid,
                    vout: vout as u32,
                },
                (out.clone(), height),
            );
            output_value += out.value;
        }
        if !tx.inputs.is_empty() {
            self.total_fees += input_value - output_value;
        }
    }

    fn push_block(&mut self, txs: Vec<Transaction>) {
        let height = self.blocks.len() as u64;
        let prev = self.blocks.last().map(|b| b.hash()).unwrap_or([0; 32]);
        for tx in &txs {
            self.tx_index.insert(tx.txid(), (height, tx.clone()));
        }
        self.blocks.push(Block { height, prev, txs });
    }

    /// Current tip height.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64 - 1
    }

    /// Number of confirmations of `txid` (0 if unconfirmed).
    pub fn confirmations(&self, txid: &TxId) -> u64 {
        match self.tx_index.get(txid) {
            Some((h, _)) => self.height() - h + 1,
            None => 0,
        }
    }

    /// Looks up a confirmed transaction.
    pub fn get_tx(&self, txid: &TxId) -> Option<&Transaction> {
        self.tx_index.get(txid).map(|(_, tx)| tx)
    }

    /// Looks up an unspent output.
    pub fn utxo(&self, outpoint: &OutPoint) -> Option<&TxOut> {
        self.utxo.get(outpoint).map(|(o, _)| o)
    }

    /// Confirmations of the block that created an unspent output.
    pub fn utxo_confirmations(&self, outpoint: &OutPoint) -> Option<u64> {
        self.utxo
            .get(outpoint)
            .map(|(_, h)| self.height().saturating_sub(*h) + 1)
    }

    /// Finds an unspent output locking exactly `value` under `script`,
    /// lowest outpoint first (deterministic under rescans). This is the
    /// wallet-rescan primitive: a host that crashed after funding an
    /// HTLC re-discovers its own lock instead of minting a second one.
    pub fn find_utxo_by_script(&self, script: &ScriptPubKey, value: u64) -> Option<OutPoint> {
        self.utxo
            .iter()
            .filter(|(_, (o, _))| o.value == value && o.script == *script)
            .map(|(op, _)| *op)
            .min()
    }

    /// Returns the confirmed transaction that spent `outpoint`, if any.
    /// This is how a Teechain participant discovers a settlement placed by
    /// a counterparty and obtains a proof of premature termination (§5.1).
    pub fn find_spender(&self, outpoint: &OutPoint) -> Option<&Transaction> {
        let txid = self.spender.get(outpoint)?;
        self.get_tx(txid)
    }

    /// Total value of unspent P2PK outputs controlled by `pk` — the
    /// "balance on the ledger" `L_t(u)` from the balance-correctness
    /// definition (Appendix A.1).
    pub fn balance_p2pk(&self, pk: &PublicKey) -> u64 {
        self.utxo
            .values()
            .filter(|(o, _)| matches!(&o.script, ScriptPubKey::P2pk(k) if k == pk))
            .map(|(o, _)| o.value)
            .sum()
    }

    /// Sum of all unspent outputs.
    pub fn utxo_total(&self) -> u64 {
        self.utxo.values().map(|(o, _)| o.value).sum()
    }

    /// Total value ever minted.
    pub fn total_minted(&self) -> u64 {
        self.total_minted
    }

    /// Total fees burned by confirmed transactions.
    pub fn total_fees(&self) -> u64 {
        self.total_fees
    }

    /// Installs an adversarial mining policy.
    pub fn set_policy(&mut self, policy: AdversaryPolicy) {
        self.mempool.set_policy(policy);
    }

    /// Number of transactions waiting in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// All blocks (read-only).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Count of confirmed non-mint transactions and their §7.5 cost — used
    /// by the Table 4 experiment to measure Teechain's on-chain footprint.
    pub fn confirmed_footprint(&self) -> (usize, f64) {
        let mut count = 0usize;
        let mut cost = 0f64;
        for block in &self.blocks {
            for tx in &block.txs {
                if !tx.inputs.is_empty() {
                    count += 1;
                    cost += crate::cost::tx_cost(tx);
                }
            }
        }
        (count, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TxIn;
    use teechain_crypto::schnorr::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    fn spend(
        chain: &Chain,
        from: OutPoint,
        key: &Keypair,
        to: &PublicKey,
        value: u64,
    ) -> Transaction {
        let _ = chain;
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(from)],
            outputs: vec![TxOut {
                value,
                script: ScriptPubKey::P2pk(*to),
            }],
        };
        tx.sign_input(0, key);
        tx
    }

    #[test]
    fn mint_and_spend() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let bob = kp(2);
        let op = chain.mint_p2pk(&alice.pk, 100);
        assert_eq!(chain.balance_p2pk(&alice.pk), 100);
        let tx = spend(&chain, op, &alice, &bob.pk, 90);
        let txid = chain.submit(tx).unwrap();
        assert_eq!(chain.confirmations(&txid), 0);
        chain.mine_block();
        assert_eq!(chain.confirmations(&txid), 1);
        chain.mine_blocks(5);
        assert_eq!(chain.confirmations(&txid), 6);
        assert_eq!(chain.balance_p2pk(&bob.pk), 90);
        assert_eq!(chain.balance_p2pk(&alice.pk), 0);
        assert_eq!(chain.total_fees(), 10);
    }

    #[test]
    fn double_spend_rejected_in_mempool() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx1 = spend(&chain, op, &alice, &kp(2).pk, 100);
        let tx2 = spend(&chain, op, &alice, &kp(3).pk, 100);
        chain.submit(tx1).unwrap();
        assert_eq!(chain.submit(tx2), Err(SubmitError::MempoolConflict));
    }

    #[test]
    fn double_spend_rejected_after_confirmation() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx1 = spend(&chain, op, &alice, &kp(2).pk, 100);
        let tx2 = spend(&chain, op, &alice, &kp(3).pk, 100);
        chain.submit(tx1).unwrap();
        chain.mine_block();
        match chain.submit(tx2) {
            Err(SubmitError::Invalid(ValidationError::UnknownInput(_))) => {}
            other => panic!("expected unknown input, got {other:?}"),
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let mallory = kp(9);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx = spend(&chain, op, &mallory, &mallory.pk, 100);
        match chain.submit(tx) {
            Err(SubmitError::Invalid(ValidationError::BadWitness(_))) => {}
            other => panic!("expected bad witness, got {other:?}"),
        }
    }

    #[test]
    fn overspend_rejected() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx = spend(&chain, op, &alice, &kp(2).pk, 101);
        assert!(matches!(
            chain.submit(tx),
            Err(SubmitError::Invalid(
                ValidationError::OutputsExceedInputs { .. }
            ))
        ));
    }

    #[test]
    fn duplicate_input_rejected() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(op), TxIn::spend(op)],
            outputs: vec![TxOut {
                value: 150,
                script: ScriptPubKey::P2pk(kp(2).pk),
            }],
        };
        tx.sign_all_inputs(&alice);
        assert!(matches!(
            chain.submit(tx),
            Err(SubmitError::Invalid(ValidationError::DuplicateInput(_)))
        ));
    }

    #[test]
    fn multisig_deposit_spend() {
        let mut chain = Chain::new();
        let committee: Vec<Keypair> = (1..=4).map(kp).collect();
        let script = ScriptPubKey::multisig(2, committee.iter().map(|k| k.pk).collect());
        let op = chain.mint(script, 1000);
        // Spend with 2 of 4 signatures.
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(op)],
            outputs: vec![TxOut {
                value: 1000,
                script: ScriptPubKey::P2pk(kp(7).pk),
            }],
        };
        tx.sign_input(0, &committee[1]);
        tx.sign_input(0, &committee[3]);
        chain.submit(tx).unwrap();
        chain.mine_block();
        assert_eq!(chain.balance_p2pk(&kp(7).pk), 1000);
    }

    #[test]
    fn multisig_below_threshold_rejected() {
        let mut chain = Chain::new();
        let committee: Vec<Keypair> = (1..=3).map(kp).collect();
        let script = ScriptPubKey::multisig(2, committee.iter().map(|k| k.pk).collect());
        let op = chain.mint(script, 1000);
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(op)],
            outputs: vec![TxOut {
                value: 1000,
                script: ScriptPubKey::P2pk(kp(7).pk),
            }],
        };
        tx.sign_input(0, &committee[0]);
        assert!(matches!(
            chain.submit(tx),
            Err(SubmitError::Invalid(ValidationError::BadWitness(_)))
        ));
    }

    #[test]
    fn find_spender_returns_conflicting_settlement() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx = spend(&chain, op, &alice, &kp(2).pk, 100);
        let txid = chain.submit(tx).unwrap();
        chain.mine_block();
        assert_eq!(chain.find_spender(&op).unwrap().txid(), txid);
        let other = OutPoint {
            txid: TxId([9; 32]),
            vout: 0,
        };
        assert!(chain.find_spender(&other).is_none());
    }

    #[test]
    fn censored_tx_stays_pending() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx = spend(&chain, op, &alice, &kp(2).pk, 100);
        let txid = tx.txid();
        chain.set_policy(AdversaryPolicy::Censor {
            targets: [txid].into(),
        });
        chain.submit(tx).unwrap();
        chain.mine_blocks(100);
        assert_eq!(chain.confirmations(&txid), 0);
        assert_eq!(chain.mempool_len(), 1);
    }

    fn htlc_script(secret: &[u8], claim: &Keypair, refund: &Keypair, timeout: u64) -> ScriptPubKey {
        ScriptPubKey::Htlc {
            hash: teechain_crypto::sha256::sha256(secret),
            claim_key: claim.pk,
            refund_key: refund.pk,
            timeout_blocks: timeout,
        }
    }

    fn htlc_spend(from: OutPoint, key: &Keypair, preimage: &[u8], value: u64) -> Transaction {
        let mut input = TxIn::spend(from);
        input.preimage = preimage.to_vec();
        let mut tx = Transaction {
            inputs: vec![input],
            outputs: vec![TxOut {
                value,
                script: ScriptPubKey::P2pk(key.pk),
            }],
        };
        tx.sign_input(0, key);
        tx
    }

    #[test]
    fn htlc_claim_with_preimage() {
        let mut chain = Chain::new();
        let (claim, refund) = (kp(1), kp(2));
        let op = chain.mint(htlc_script(b"swap-secret", &claim, &refund, 10), 500);
        let tx = htlc_spend(op, &claim, b"swap-secret", 500);
        chain.submit(tx).unwrap();
        chain.mine_block();
        assert_eq!(chain.balance_p2pk(&claim.pk), 500);
        // The confirmed spender carries the revealed preimage: this is how
        // a swap counterparty learns the secret from the chain.
        let spender = chain.find_spender(&op).unwrap();
        assert_eq!(spender.inputs[0].preimage, b"swap-secret".to_vec());
    }

    #[test]
    fn htlc_wrong_preimage_rejected() {
        let mut chain = Chain::new();
        let (claim, refund) = (kp(1), kp(2));
        let op = chain.mint(htlc_script(b"swap-secret", &claim, &refund, 10), 500);
        let tx = htlc_spend(op, &claim, b"not-the-secret", 500);
        assert!(matches!(
            chain.submit(tx),
            Err(SubmitError::Invalid(ValidationError::BadWitness(_)))
        ));
    }

    #[test]
    fn htlc_refund_respects_timeout() {
        let mut chain = Chain::new();
        let (claim, refund) = (kp(1), kp(2));
        let op = chain.mint(htlc_script(b"swap-secret", &claim, &refund, 5), 500);
        // Refund before the timelock matures is "too early", not "bad sig".
        let early = htlc_spend(op, &refund, &[], 500);
        assert!(matches!(
            chain.submit(early.clone()),
            Err(SubmitError::Invalid(ValidationError::TimelockNotMet(_)))
        ));
        chain.mine_blocks(5);
        chain.submit(early).unwrap();
        chain.mine_block();
        assert_eq!(chain.balance_p2pk(&refund.pk), 500);
    }

    #[test]
    fn value_conservation() {
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx = spend(&chain, op, &alice, &kp(2).pk, 60);
        chain.submit(tx).unwrap();
        chain.mine_block();
        assert_eq!(
            chain.utxo_total() + chain.total_fees(),
            chain.total_minted()
        );
    }

    #[test]
    fn mempool_conflict_dropped_at_mining() {
        // Two conflicting txs can both enter if the second is submitted
        // after the first confirms is impossible; but a conflict can arise
        // inside one block when the policy delays differently. Simulate by
        // inserting directly.
        let mut chain = Chain::new();
        let alice = kp(1);
        let op = chain.mint_p2pk(&alice.pk, 100);
        let tx1 = spend(&chain, op, &alice, &kp(2).pk, 100);
        chain.submit(tx1.clone()).unwrap();
        chain.mine_block();
        // tx1 confirmed; a conflicting submission is invalid.
        let tx2 = spend(&chain, op, &alice, &kp(3).pk, 100);
        assert!(chain.submit(tx2).is_err());
        assert_eq!(chain.balance_p2pk(&kp(2).pk), 100);
    }
}
