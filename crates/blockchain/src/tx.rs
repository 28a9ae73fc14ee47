//! Transactions: inputs, outputs, identifiers, signature hashes.

use crate::script::ScriptPubKey;
use teechain_crypto::schnorr::{sign, Keypair, Signature};
use teechain_crypto::sha256::sha256;
use teechain_util::codec::{Decode, Encode, Reader, WireError};
use teechain_util::hex;

/// A transaction identifier: the SHA-256 of the transaction with witnesses
/// stripped (so the id commits to *what* is spent and created, and signing
/// the id preimage cannot be circular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub [u8; 32]);

impl TxId {
    /// Short printable form (first 8 hex digits).
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", hex::encode(&self.0))
    }
}

impl Encode for TxId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for TxId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(TxId(r.read()?))
    }
}

/// A reference to a transaction output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OutPoint {
    /// The funding transaction.
    pub txid: TxId,
    /// Output index within that transaction.
    pub vout: u32,
}

teechain_util::impl_wire_struct!(OutPoint { txid, vout });

/// A transaction output: an amount locked under a spending condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxOut {
    /// Amount in base units ("satoshis").
    pub value: u64,
    /// The spending condition.
    pub script: ScriptPubKey,
}

teechain_util::impl_wire_struct!(TxOut { value, script });

/// A transaction input: an outpoint plus the witness satisfying its script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxIn {
    /// The output being spent.
    pub prevout: OutPoint,
    /// Signatures over the transaction's sighash.
    pub witness: Vec<Signature>,
    /// Hashlock preimage for [`ScriptPubKey::Htlc`] claim spends; empty for
    /// every other script. Stripped (like witnesses) from the txid/sighash
    /// preimage, so signing and preimage attachment commute.
    pub preimage: Vec<u8>,
}

impl TxIn {
    /// An input spending `prevout` with no witness or preimage attached yet.
    pub fn spend(prevout: OutPoint) -> Self {
        TxIn {
            prevout,
            witness: Vec::new(),
            preimage: Vec::new(),
        }
    }
}

teechain_util::impl_wire_struct!(TxIn {
    prevout,
    witness,
    preimage
});

/// A transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Spent outputs with witnesses. Empty for the genesis transaction.
    pub inputs: Vec<TxIn>,
    /// Created outputs.
    pub outputs: Vec<TxOut>,
}

teechain_util::impl_wire_struct!(Transaction { inputs, outputs });

impl Transaction {
    /// Serializes the transaction with witnesses stripped. This is both the
    /// txid preimage and the message every input signs.
    fn strip_witnesses(&self) -> Vec<u8> {
        let mut stripped = self.clone();
        for input in &mut stripped.inputs {
            input.witness.clear();
            input.preimage.clear();
        }
        stripped.encode_to_vec()
    }

    /// The transaction identifier.
    pub fn txid(&self) -> TxId {
        TxId(sha256(&self.strip_witnesses()))
    }

    /// The digest that each input's witness signs.
    pub fn sighash(&self) -> [u8; 32] {
        // The txid already commits to all inputs and outputs.
        self.txid().0
    }

    /// Appends a signature from `key` to input `index`. `key` is a
    /// [`Keypair`]; a bare `PrivateKey` is also accepted and converted, which
    /// derives its public half (as costly as the signature), so a caller
    /// that signs more than once should hold the `Keypair`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn sign_input(&mut self, index: usize, key: &(impl Copy + Into<Keypair>)) {
        let digest = self.sighash();
        self.inputs[index]
            .witness
            .push(sign(&(*key).into(), &digest));
    }

    /// Appends a signature from `key` to every input (the common case for
    /// Teechain settlement transactions, where one enclave holds all keys).
    pub fn sign_all_inputs(&mut self, key: &Keypair) {
        let digest = self.sighash();
        let sig = sign(key, &digest);
        for input in &mut self.inputs {
            input.witness.push(sig);
        }
    }

    /// The outpoint of output `vout` of this transaction.
    pub fn outpoint(&self, vout: u32) -> OutPoint {
        OutPoint {
            txid: self.txid(),
            vout,
        }
    }

    /// Total value of all outputs.
    pub fn output_value(&self) -> u64 {
        self.outputs.iter().map(|o| o.value).sum()
    }

    /// True if this transaction spends `outpoint`.
    pub fn spends(&self, outpoint: &OutPoint) -> bool {
        self.inputs.iter().any(|i| i.prevout == *outpoint)
    }

    /// True if the two transactions conflict (spend at least one common
    /// outpoint) — the mechanism behind the paper's proofs of premature
    /// termination (§5.1, "Enforcing transaction conflicts").
    pub fn conflicts_with(&self, other: &Transaction) -> bool {
        self.inputs.iter().any(|i| other.spends(&i.prevout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_crypto::schnorr::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    fn dummy_outpoint(n: u8) -> OutPoint {
        OutPoint {
            txid: TxId([n; 32]),
            vout: 0,
        }
    }

    fn p2pk_out(value: u64, seed: u8) -> TxOut {
        TxOut {
            value,
            script: ScriptPubKey::P2pk(kp(seed).pk),
        }
    }

    #[test]
    fn txid_ignores_witness() {
        let k = kp(1);
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(dummy_outpoint(1))],
            outputs: vec![p2pk_out(50, 2)],
        };
        let before = tx.txid();
        tx.sign_input(0, &k);
        assert_eq!(tx.txid(), before);
    }

    #[test]
    fn txid_commits_to_inputs_and_outputs() {
        let base = Transaction {
            inputs: vec![TxIn::spend(dummy_outpoint(1))],
            outputs: vec![p2pk_out(50, 2)],
        };
        let mut other_input = base.clone();
        other_input.inputs[0].prevout = dummy_outpoint(2);
        assert_ne!(base.txid(), other_input.txid());
        let mut other_value = base.clone();
        other_value.outputs[0].value = 51;
        assert_ne!(base.txid(), other_value.txid());
    }

    #[test]
    fn signature_satisfies_script() {
        let k = kp(3);
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(dummy_outpoint(1))],
            outputs: vec![p2pk_out(10, 4)],
        };
        tx.sign_input(0, &k);
        let script = ScriptPubKey::P2pk(k.pk);
        assert!(script.verify_witness(&tx.sighash(), &tx.inputs[0].witness));
    }

    #[test]
    fn conflict_detection() {
        let shared = dummy_outpoint(7);
        let a = Transaction {
            inputs: vec![TxIn::spend(shared)],
            outputs: vec![p2pk_out(1, 1)],
        };
        let b = Transaction {
            inputs: vec![TxIn::spend(dummy_outpoint(8)), TxIn::spend(shared)],
            outputs: vec![p2pk_out(2, 2)],
        };
        let c = Transaction {
            inputs: vec![TxIn::spend(dummy_outpoint(9))],
            outputs: vec![p2pk_out(3, 3)],
        };
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
        assert!(!a.conflicts_with(&c));
    }

    #[test]
    fn codec_roundtrip() {
        let k = kp(5);
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(dummy_outpoint(1))],
            outputs: vec![
                p2pk_out(10, 1),
                TxOut {
                    value: 20,
                    script: ScriptPubKey::multisig(2, vec![kp(1).pk, kp(2).pk, kp(3).pk]),
                },
            ],
        };
        tx.sign_input(0, &k);
        let decoded = Transaction::decode_exact(&tx.encode_to_vec()).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.txid(), tx.txid());
    }

    #[test]
    fn sign_all_inputs_covers_every_input() {
        let k = kp(6);
        let mut tx = Transaction {
            inputs: vec![
                TxIn::spend(dummy_outpoint(1)),
                TxIn::spend(dummy_outpoint(2)),
            ],
            outputs: vec![p2pk_out(5, 1)],
        };
        tx.sign_all_inputs(&k);
        let script = ScriptPubKey::P2pk(k.pk);
        for input in &tx.inputs {
            assert!(script.verify_witness(&tx.sighash(), &input.witness));
        }
    }
}
