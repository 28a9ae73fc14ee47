//! Deposit bookkeeping (Alg. 1's `allDeps`, `freeDeps`, `appDeps`,
//! `btcPrivs`).

use crate::types::{Deposit, ProtocolError};
use std::collections::{HashMap, HashSet};
use teechain_blockchain::OutPoint;
use teechain_crypto::schnorr::{Keypair, PrivateKey, PublicKey};

/// Where a deposit currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepositStatus {
    /// Known, unassociated, spendable by release (`freeDeps`).
    Free,
    /// Associated with a channel.
    Associated(crate::types::ChannelId),
    /// Released or spent; kept for audit.
    Spent,
}

/// All deposit state held by one enclave.
#[derive(Default)]
pub struct DepositBook {
    /// Every deposit we own (`allDeps`), with status.
    pub(crate) mine: HashMap<OutPoint, (Deposit, DepositStatus)>,
    /// Deposits owned by remote parties associated with our channels.
    pub(crate) remote: HashMap<OutPoint, Deposit>,
    /// Blockchain private keys we hold (`btcPrivs`), by public key.
    pub keys: HashMap<PublicKey, PrivateKey>,
    /// Our deposits approved by a given remote (`appDeps` seen from the
    /// owner side): set of (remote identity, outpoint).
    pub(crate) approved_by: HashSet<(PublicKey, OutPoint)>,
    /// Remote deposits we have approved (`appDeps` at the verifier).
    pub(crate) i_approved: HashSet<(PublicKey, OutPoint)>,
    /// Remote deposits offered to us for approval. Like the two approval
    /// sets, a handshake's volatile state: never sealed, never replicated.
    pub(crate) offered: HashMap<OutPoint, Deposit>,
}

/// The signing handle for `pk`, if `keys` holds its private half. The map
/// key *is* the public half, so nothing is derived.
pub(crate) fn keypair_in(keys: &HashMap<PublicKey, PrivateKey>, pk: &PublicKey) -> Option<Keypair> {
    keys.get(pk).map(|&sk| Keypair { sk, pk: *pk })
}

impl DepositBook {
    /// Registers a private key; returns its public key (derived here, once
    /// per key, never per signature).
    pub fn insert_key(&mut self, sk: PrivateKey) -> PublicKey {
        let pk = sk.public_key();
        self.keys.insert(pk, sk);
        pk
    }

    /// Adds a new owned deposit (Alg. 1 `newDeposit`). The enclave must
    /// hold the key for the first committee slot (our slot).
    pub fn add_mine(&mut self, dep: Deposit) -> Result<(), ProtocolError> {
        self.check_new_mine(&dep)?;
        self.mine.insert(dep.outpoint, (dep, DepositStatus::Free));
        Ok(())
    }

    /// What [`Self::add_mine`] requires of `dep`: it is new, and we hold
    /// the key of its first committee slot (ours), which is returned.
    pub(crate) fn check_new_mine(&self, dep: &Deposit) -> Result<&PrivateKey, ProtocolError> {
        let ours = dep.committee.member_keys.first();
        match ours.and_then(|pk| self.keys.get(pk)) {
            Some(sk) if !self.mine.contains_key(&dep.outpoint) => Ok(sk),
            _ => Err(ProtocolError::BadDeposit),
        }
    }

    /// Looks up an owned deposit.
    pub fn get_mine(&self, op: &OutPoint) -> Option<&(Deposit, DepositStatus)> {
        self.mine.get(op)
    }

    /// Requires an owned deposit to be free; returns it.
    pub fn require_free(&self, op: &OutPoint) -> Result<&Deposit, ProtocolError> {
        match self.mine.get(op) {
            Some((dep, DepositStatus::Free)) => Ok(dep),
            _ => Err(ProtocolError::BadDeposit),
        }
    }

    /// Transitions an owned deposit's status.
    pub fn set_status(&mut self, op: &OutPoint, status: DepositStatus) {
        if let Some(entry) = self.mine.get_mut(op) {
            entry.1 = status;
        }
    }

    /// Records that `remote` approved our deposit `op`.
    pub fn mark_approved_by(&mut self, remote: PublicKey, op: OutPoint) {
        self.approved_by.insert((remote, op));
    }

    /// True if `remote` approved our deposit `op` (precondition for
    /// association, Alg. 1 line 66).
    pub fn is_approved_by(&self, remote: &PublicKey, op: &OutPoint) -> bool {
        self.approved_by.contains(&(*remote, *op))
    }

    /// Records our approval of a remote deposit.
    pub fn approve_remote(&mut self, remote: PublicKey, dep: Deposit) {
        self.i_approved.insert((remote, dep.outpoint));
        self.offered.insert(dep.outpoint, dep);
    }

    /// True if we approved remote deposit `op` from `remote`.
    pub fn did_approve(&self, remote: &PublicKey, op: &OutPoint) -> bool {
        self.i_approved.contains(&(*remote, *op))
    }

    /// The value of a known (owned, remote or offered) deposit.
    pub fn value_of(&self, op: &OutPoint) -> Option<u64> {
        self.deposit_of(op).map(|d| d.value)
    }

    /// The full record of a known (owned, remote or offered) deposit.
    pub fn deposit_of(&self, op: &OutPoint) -> Option<&Deposit> {
        self.mine
            .get(op)
            .map(|(d, _)| d)
            .or_else(|| self.remote.get(op))
            .or_else(|| self.offered.get(op))
    }

    /// Drops a key (Alg. 1 line 104: destroy the copy after dissociation).
    pub fn destroy_key(&mut self, pk: &PublicKey) {
        self.keys.remove(pk);
    }

    /// All free owned deposits (for release on freeze/settle-all).
    pub fn free_deposits(&self) -> Vec<Deposit> {
        self.mine
            .values()
            .filter(|(_, s)| *s == DepositStatus::Free)
            .map(|(d, _)| d.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ChannelId, CommitteeSpec};
    use teechain_blockchain::TxId;
    use teechain_crypto::schnorr::Keypair;

    fn op(n: u8) -> OutPoint {
        OutPoint {
            txid: TxId([n; 32]),
            vout: 0,
        }
    }

    fn dep(book: &mut DepositBook, n: u8, value: u64) -> Deposit {
        let kp = Keypair::from_seed(&[n; 32]);
        let pk = book.insert_key(kp.sk);
        Deposit {
            outpoint: op(n),
            value,
            committee: CommitteeSpec::single(pk),
        }
    }

    #[test]
    fn add_and_release_lifecycle() {
        let mut book = DepositBook::default();
        let d = dep(&mut book, 1, 100);
        book.add_mine(d.clone()).unwrap();
        assert!(book.require_free(&op(1)).is_ok());
        book.set_status(
            &op(1),
            DepositStatus::Associated(ChannelId::from_label("c")),
        );
        assert_eq!(book.require_free(&op(1)), Err(ProtocolError::BadDeposit));
        book.set_status(&op(1), DepositStatus::Free);
        book.set_status(&op(1), DepositStatus::Spent);
        assert!(book.require_free(&op(1)).is_err());
    }

    #[test]
    fn duplicate_deposit_rejected() {
        let mut book = DepositBook::default();
        let d = dep(&mut book, 1, 100);
        book.add_mine(d.clone()).unwrap();
        assert_eq!(book.add_mine(d), Err(ProtocolError::BadDeposit));
    }

    #[test]
    fn deposit_without_key_rejected() {
        let mut book = DepositBook::default();
        let foreign = Keypair::from_seed(&[9; 32]).pk;
        let d = Deposit {
            outpoint: op(1),
            value: 5,
            committee: CommitteeSpec::single(foreign),
        };
        assert_eq!(book.add_mine(d), Err(ProtocolError::BadDeposit));
    }

    #[test]
    fn approval_tracking() {
        let mut book = DepositBook::default();
        let remote = Keypair::from_seed(&[8; 32]).pk;
        let d = dep(&mut book, 1, 100);
        book.add_mine(d.clone()).unwrap();
        assert!(!book.is_approved_by(&remote, &op(1)));
        book.mark_approved_by(remote, op(1));
        assert!(book.is_approved_by(&remote, &op(1)));
        // Approving remote deposits is tracked separately.
        let rd = Deposit {
            outpoint: op(2),
            value: 50,
            committee: CommitteeSpec::single(remote),
        };
        book.approve_remote(remote, rd);
        assert!(book.did_approve(&remote, &op(2)));
        assert_eq!(book.value_of(&op(2)), Some(50));
    }

    #[test]
    fn key_destruction() {
        let mut book = DepositBook::default();
        let kp = Keypair::from_seed(&[3; 32]);
        let pk = book.insert_key(kp.sk);
        assert!(book.keys.contains_key(&pk));
        book.destroy_key(&pk);
        assert!(!book.keys.contains_key(&pk));
    }
}
