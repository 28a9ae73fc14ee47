//! Transactions: inputs, outputs, identifiers, signature hashes.

use crate::script::ScriptPubKey;
use teechain_crypto::schnorr::{sign, Keypair, Signature};
use teechain_crypto::sha256::sha256;
use teechain_util::codec::Encode;
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

teechain_util::impl_wire_struct!(TxId { 0 });

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
    /// Appends the transaction's encoding with every witness and preimage
    /// empty, without copying the transaction. This is both the txid
    /// preimage and the message every input signs.
    fn encode_stripped(&self, out: &mut Vec<u8>) {
        (self.inputs.len() as u32).encode(out);
        for input in &self.inputs {
            TxIn::spend(input.prevout).encode(out);
        }
        self.outputs.encode(out);
    }

    /// The transaction identifier.
    pub fn txid(&self) -> TxId {
        // A stripped input is 44 bytes; a P2PK output is 73.
        let mut buf = Vec::with_capacity(8 + 44 * self.inputs.len() + 80 * self.outputs.len());
        self.encode_stripped(&mut buf);
        TxId(sha256(&buf))
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
    use teechain_crypto::schnorr::{Keypair, PublicKey};
    use teechain_util::codec::Decode;
    use teechain_util::rng::Xoshiro256;

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

    /// Transactions whose witnesses and preimages the txid must ignore: a
    /// τ-shaped one (3 signed inputs, one with a preimage, 6 outputs of
    /// every script kind), a claim spend, and one with no inputs.
    fn witnessed_transactions() -> Vec<Transaction> {
        let mut tau = Transaction {
            inputs: (1..=3).map(|n| TxIn::spend(dummy_outpoint(n))).collect(),
            outputs: vec![
                p2pk_out(100, 1),
                p2pk_out(200, 2),
                TxOut {
                    value: 300,
                    script: ScriptPubKey::multisig(2, vec![kp(3).pk, kp(4).pk, kp(5).pk]),
                },
                TxOut {
                    value: 400,
                    script: ScriptPubKey::Htlc {
                        hash: sha256(b"swap secret"),
                        claim_key: kp(6).pk,
                        refund_key: kp(7).pk,
                        timeout_blocks: 144,
                    },
                },
                TxOut {
                    value: 500,
                    script: ScriptPubKey::Revocable {
                        owner: kp(8).pk,
                        delay_blocks: 6,
                        revocation: kp(9).pk,
                    },
                },
                p2pk_out(600, 10),
            ],
        };
        for (i, seed) in [(0, 11), (1, 12), (1, 13), (2, 14)] {
            tau.sign_input(i, &kp(seed));
        }
        tau.inputs[2].preimage = b"swap secret".to_vec();
        let mut claim = Transaction {
            inputs: vec![TxIn::spend(OutPoint {
                txid: tau.txid(),
                vout: 3,
            })],
            outputs: vec![p2pk_out(400, 6)],
        };
        claim.sign_input(0, &kp(6));
        claim.inputs[0].preimage = vec![0xee; 40];
        let no_inputs = Transaction {
            inputs: vec![],
            outputs: vec![p2pk_out(1, 1), p2pk_out(2, 2)],
        };
        vec![tau, claim, no_inputs]
    }

    /// The txids of [`witnessed_transactions`], as the clone-and-strip
    /// encoder that the direct one replaced computed them.
    #[test]
    fn txids_of_witnessed_transactions_are_pinned() {
        let want = [
            "6f0bff964a7c9eff768af2a9b2bfe6978527adb4be510ae413bea9f01560616d",
            "2b25229f7ca168c3f02b3d754f8b43c59fa1231ec028bc3ed9aa538bdfd254a6",
            "ac5fd374a4e9e3750574f84258a60ef863c564719b4e7842b0f3f9ae97f7ff5f",
        ];
        for (tx, want) in witnessed_transactions().iter().zip(want) {
            assert_eq!(tx.txid().to_string(), want);
        }
    }

    /// The reference the direct encoder replaced: clone the transaction,
    /// empty every witness and preimage, encode the clone.
    fn clone_strip_txid(tx: &Transaction) -> TxId {
        let mut stripped = tx.clone();
        for input in &mut stripped.inputs {
            input.witness.clear();
            input.preimage.clear();
        }
        TxId(sha256(&stripped.encode_to_vec()))
    }

    /// Keys and signatures for [`random_transaction`], derived once.
    fn fixture() -> &'static (Vec<PublicKey>, Vec<Signature>) {
        static FIXTURE: std::sync::OnceLock<(Vec<PublicKey>, Vec<Signature>)> =
            std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let keys = (1..=8).map(|n| kp(n).pk).collect();
            let sigs = (1..=4).map(|n| kp(n).sign(&[n; 32])).collect();
            (keys, sigs)
        })
    }

    /// A transaction of random shape drawn from `seed`: up to 6 inputs
    /// with up to 3 signatures and up to 40 preimage bytes each, up to 8
    /// outputs of every script kind.
    fn random_transaction(seed: u64) -> Transaction {
        let (keys, sigs) = fixture();
        let mut rng = Xoshiro256::new(seed);
        let pick = |rng: &mut Xoshiro256, n: usize| rng.next_below(n as u64) as usize;
        let inputs = (0..rng.next_below(7))
            .map(|_| TxIn {
                prevout: OutPoint {
                    txid: TxId(rng.next_bytes32()),
                    vout: rng.next_u64() as u32,
                },
                witness: (0..rng.next_below(4))
                    .map(|_| sigs[pick(&mut rng, sigs.len())])
                    .collect(),
                preimage: {
                    let mut bytes = vec![0; rng.next_below(41) as usize];
                    rng.fill_bytes(&mut bytes);
                    bytes
                },
            })
            .collect();
        let outputs = (0..rng.next_below(9))
            .map(|_| {
                let key = |rng: &mut Xoshiro256| keys[pick(rng, keys.len())];
                let script = match rng.next_below(4) {
                    0 => ScriptPubKey::P2pk(key(&mut rng)),
                    1 => ScriptPubKey::Multisig {
                        m: rng.next_range(1, 3) as u8,
                        keys: (0..rng.next_range(1, 3)).map(|_| key(&mut rng)).collect(),
                    },
                    2 => ScriptPubKey::Revocable {
                        owner: key(&mut rng),
                        delay_blocks: rng.next_u64(),
                        revocation: key(&mut rng),
                    },
                    _ => ScriptPubKey::Htlc {
                        hash: rng.next_bytes32(),
                        claim_key: key(&mut rng),
                        refund_key: key(&mut rng),
                        timeout_blocks: rng.next_u64(),
                    },
                };
                TxOut {
                    value: rng.next_u64(),
                    script,
                }
            })
            .collect();
        Transaction { inputs, outputs }
    }

    proptest::proptest! {
        /// The direct encoder hashes the bytes the clone-and-strip
        /// reference hashes, for transactions of any shape.
        #[test]
        fn txid_matches_the_clone_strip_reference(seed in proptest::prelude::any::<u64>()) {
            let tx = random_transaction(seed);
            proptest::prop_assert_eq!(tx.txid(), clone_strip_txid(&tx));
        }
    }
}
