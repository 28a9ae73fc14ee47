//! Deposit bookkeeping (Alg. 1's `allDeps`, `freeDeps`, `appDeps`,
//! `btcPrivs`), and the handlers that register, release, approve,
//! associate and dissociate deposits.

use crate::enclave::{Effect, HostEvent, Outcome, TeechainEnclave};
use crate::msg::{ProtocolMsg, StateDelta};
use crate::ops::{MatchKey, OpOutput, SettleKind};
use crate::settle;
use crate::types::{ChannelId, Deposit, ProtocolError};
use std::collections::{HashMap, HashSet};
use teechain_blockchain::{OutPoint, TxId};
use teechain_crypto::schnorr::{Keypair, PrivateKey, PublicKey};
use teechain_tee::EnclaveEnv;

/// Where a deposit currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepositStatus {
    /// Known, unassociated, spendable by release (`freeDeps`).
    Free,
    /// Associated with a channel.
    Associated(crate::types::ChannelId),
    /// Spent by its channel's settlement; kept for audit.
    Spent,
    /// Released by the transaction with this id (witnesses excluded):
    /// the one release a committee member co-signs for it.
    Released(TxId),
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
    pub(crate) fn insert_key(&mut self, sk: PrivateKey) -> PublicKey {
        let pk = sk.public_key();
        self.keys.insert(pk, sk);
        pk
    }

    /// What a new owned deposit (Alg. 1 `newDeposit`) requires of `dep`:
    /// it is new, and we hold the key of its first committee slot (ours),
    /// which is returned.
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
    pub(crate) fn set_status(&mut self, op: &OutPoint, status: DepositStatus) {
        if let Some(entry) = self.mine.get_mut(op) {
            entry.1 = status;
        }
    }

    /// Records that `remote` approved our deposit `op`.
    pub(crate) fn mark_approved_by(&mut self, remote: PublicKey, op: OutPoint) {
        self.approved_by.insert((remote, op));
    }

    /// True if `remote` approved our deposit `op` (precondition for
    /// association, Alg. 1 line 66).
    pub fn is_approved_by(&self, remote: &PublicKey, op: &OutPoint) -> bool {
        self.approved_by.contains(&(*remote, *op))
    }

    /// Records our approval of a remote deposit.
    pub(crate) fn approve_remote(&mut self, remote: PublicKey, dep: Deposit) {
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
    pub(crate) fn destroy_key(&mut self, pk: &PublicKey) {
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

/// Deposit `outpoint` is associated with channel `chan` on our side.
fn associated(chan: ChannelId, outpoint: OutPoint) -> Effect {
    let out = OpOutput::DepositAssociated { chan, outpoint };
    Effect::done(MatchKey::DepositAssociated(chan, outpoint), out)
}

impl TeechainEnclave {
    pub(crate) fn cmd_new_deposit(&mut self, deposit: Deposit) -> Outcome {
        let key = self.state.book.check_new_mine(&deposit)?.to_bytes();
        self.commit(StateDelta::Deposit {
            dep: deposit,
            key: Some(key),
            mine: true,
        });
        Ok(vec![])
    }

    pub(crate) fn cmd_release_deposit(
        &mut self,
        outpoint: teechain_blockchain::OutPoint,
        to: PublicKey,
    ) -> Outcome {
        let tx = settle::release_tx(self.state.book.require_free(&outpoint)?, to);
        // The chain's replicas record this release, and their members
        // co-sign it and nothing else of this deposit.
        self.commit(StateDelta::ReleaseDeposit {
            op: outpoint,
            txid: tx.txid(),
        });
        let mut effects = Vec::new();
        // Release uses the same signing/co-signing path as settlements.
        self.finish_settlement(ChannelId([0; 32]), tx, false, &mut effects);
        Ok(effects)
    }

    pub(crate) fn cmd_approve_deposit(
        &mut self,
        remote: PublicKey,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let dep = self.state.book.require_free(&outpoint)?.clone();
        if self.state.book.is_approved_by(&remote, &outpoint) {
            return Err(ProtocolError::BadDeposit); // Already approved.
        }
        let msg = ProtocolMsg::ApproveDeposit { deposit: dep };
        Ok(vec![self.seal_to(&remote, &msg)?])
    }

    pub(crate) fn on_approve_deposit(&mut self, from: PublicKey, deposit: Deposit) -> Outcome {
        if self.state.book.did_approve(&from, &deposit.outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        // Remember the offered deposit so DepositVerified can find it.
        let book = &mut self.state.book;
        book.offered.insert(deposit.outpoint, deposit.clone());
        // The enclave cannot read the blockchain (§4): the host must verify
        // inclusion and confirmations per its own security policy, then
        // answer with DepositVerified.
        Ok(vec![Effect::Event(HostEvent::VerifyDeposit {
            remote: from,
            deposit,
        })])
    }

    pub(crate) fn cmd_deposit_verified(
        &mut self,
        remote: PublicKey,
        outpoint: teechain_blockchain::OutPoint,
        valid: bool,
    ) -> Outcome {
        if !valid {
            return Ok(vec![]);
        }
        // The host re-presents the deposit body it verified; we keep the
        // copy from the pending approval. For simplicity the verify event
        // carried the full deposit; hosts echo only identity + outpoint, so
        // we require the deposit to have been offered before.
        let dep = match self.state.book.offered.get(&outpoint) {
            Some(d) => d.clone(),
            None => return Err(ProtocolError::BadDeposit),
        };
        self.state.book.approve_remote(remote, dep);
        let msg = ProtocolMsg::DepositApproved { outpoint };
        Ok(vec![self.seal_to(&remote, &msg)?])
    }

    pub(crate) fn on_deposit_approved(
        &mut self,
        from: PublicKey,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        self.state.book.require_free(&outpoint)?;
        self.state.book.mark_approved_by(from, outpoint);
        let approved = OpOutput::DepositApproved {
            remote: from,
            outpoint,
        };
        Ok(vec![Effect::done(
            MatchKey::DepositApproved(outpoint),
            approved,
        )])
    }

    pub(crate) fn cmd_associate(
        &mut self,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let chan = self.chan(&id)?;
        if !chan.usable() {
            return Err(ProtocolError::ChannelNotOpen);
        }
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        let remote = chan.remote;
        if !self.state.book.is_approved_by(&remote, &outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        let dep = self.state.book.require_free(&outpoint)?.clone();
        // For 1-of-1 deposits, share the private key so the remote can
        // settle unilaterally (Alg. 1 line 72). Committee deposits are
        // spendable via m-of-n signatures instead.
        let key = if dep.committee.n() == 1 {
            self.state
                .book
                .keys
                .get(&dep.committee.member_keys[0])
                .map(|k| k.to_bytes())
        } else {
            None
        };
        let msg = ProtocolMsg::AssociateDeposit {
            id,
            deposit: dep.clone(),
            key,
        };
        let eff = self.seal_to(&remote, &msg)?;
        self.commit_channel(&id, |c| {
            c.my_deps.push(outpoint);
            c.my_deps.sort();
            c.my_bal += dep.value;
        })?;
        self.commit(StateDelta::Deposit {
            dep,
            key,
            mine: true,
        });
        Ok(vec![eff, associated(id, outpoint)])
    }

    pub(crate) fn on_associate(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        deposit: Deposit,
        key: Option<[u8; 32]>,
    ) -> Outcome {
        if !self.state.book.did_approve(&from, &deposit.outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        let chan = self.chan(&id)?;
        if chan.remote != from || !chan.usable() {
            return Err(ProtocolError::BadMessage);
        }
        let outpoint = deposit.outpoint;
        self.commit_channel(&id, |c| {
            c.remote_deps.push(outpoint);
            c.remote_deps.sort();
            c.remote_bal += deposit.value;
        })?;
        self.commit(StateDelta::Deposit {
            dep: deposit,
            key,
            mine: false,
        });
        Ok(vec![associated(id, outpoint)])
    }

    pub(crate) fn cmd_dissociate(
        &mut self,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let dep_value = self
            .state
            .book
            .value_of(&outpoint)
            .ok_or(ProtocolError::BadDeposit)?;
        let chan = self.chan(&id)?;
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        if !chan.my_deps.contains(&outpoint) {
            return Err(ProtocolError::BadDeposit);
        }
        // Double-spend guard (Alg. 1 line 92): our balance must cover the
        // deposit being withdrawn.
        if chan.my_bal < dep_value {
            return Err(ProtocolError::InsufficientBalance);
        }
        self.cmd_dissociate_unchecked(id, outpoint)
    }

    pub(crate) fn on_dissociate(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let dep_value = self
            .state
            .book
            .value_of(&outpoint)
            .ok_or(ProtocolError::BadDeposit)?;
        let chan = self.chan(&id)?;
        if chan.remote != from || !chan.remote_deps.contains(&outpoint) {
            return Err(ProtocolError::BadMessage);
        }
        if chan.remote_bal < dep_value {
            return Err(ProtocolError::InsufficientBalance);
        }
        let msg = ProtocolMsg::DissociateAck { id, outpoint };
        let mut effects = vec![self.seal_to(&from, &msg)?];
        self.commit_channel(&id, |c| {
            c.remote_deps.retain(|d| *d != outpoint);
            c.remote_bal -= dep_value;
        })?;
        // Destroy our copy of the key (Alg. 1 line 104).
        let book = &self.state.book;
        if let Some(dep) = book.remote.get(&outpoint) {
            let key0 = dep.committee.member_keys[0];
            if book.keys.contains_key(&key0) {
                self.commit(StateDelta::DestroyKey(key0));
            }
        }
        self.maybe_finish_offchain_settle(&id, &mut effects);
        Ok(effects)
    }

    /// Terminal check for a cooperative off-chain settlement we initiated
    /// (Alg. 1 line 106): once every deposit on both sides has
    /// dissociated and no dissociation ack is outstanding, the
    /// termination is complete and exactly one `SettledOffChain`
    /// notification resolves the initiator's settle operation. (The
    /// responder reports its own side in `on_settle_request`.)
    fn maybe_finish_offchain_settle(&mut self, id: &ChannelId, effects: &mut Vec<Effect>) {
        let done = self.chan(id).is_ok_and(|c| {
            c.settling
                && c.my_deps.is_empty()
                && c.remote_deps.is_empty()
                && c.pending_dissoc.is_empty()
        });
        if done && self.commit_channel(id, |c| c.settling = false).is_ok() {
            effects.push(Effect::settled(*id, SettleKind::OffChain));
        }
    }

    pub(crate) fn on_dissociate_ack(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let dep_value = self
            .state
            .book
            .value_of(&outpoint)
            .ok_or(ProtocolError::BadDeposit)?;
        let chan = self.chan(&id)?;
        if chan.remote != from || !chan.pending_dissoc.contains(&outpoint) {
            return Err(ProtocolError::BadMessage);
        }
        // Leaving the channel frees the deposit (`DurableState::apply`).
        self.commit_channel(&id, |c| {
            c.pending_dissoc.retain(|d| *d != outpoint);
            c.my_deps.retain(|d| *d != outpoint);
            c.my_bal -= dep_value;
        })?;
        let dissociated = OpOutput::DepositDissociated { chan: id, outpoint };
        let key = MatchKey::DepositDissociated(id, outpoint);
        let mut effects = vec![Effect::done(key, dissociated)];
        self.maybe_finish_offchain_settle(&id, &mut effects);
        Ok(effects)
    }

    /// Dissociation without the balance checks, which `cmd_dissociate` and
    /// cooperative settlement passed.
    pub(crate) fn cmd_dissociate_unchecked(
        &mut self,
        id: ChannelId,
        outpoint: teechain_blockchain::OutPoint,
    ) -> Outcome {
        let remote = self.chan(&id)?.remote;
        let msg = ProtocolMsg::DissociateDeposit { id, outpoint };
        let eff = self.seal_to(&remote, &msg)?;
        self.commit_channel(&id, |c| c.pending_dissoc.push(outpoint))?;
        Ok(vec![eff])
    }

    /// Hands out a fresh blockchain key (Alg. 1 `newAddr`) in the outcome
    /// `announce` makes of its address, committed first. The address goes
    /// out with the key's update, not after the chain's ack, so a
    /// composite can use it at once; any use of the key commits later.
    pub(crate) fn hand_out_key(
        &mut self,
        env: &mut EnclaveEnv,
        announce: impl FnOnce(PublicKey) -> Result<Effect, ProtocolError>,
    ) -> Outcome {
        let kp = Keypair::from_seed(&env.random_bytes32());
        let announced = announce(kp.pk)?;
        self.commit(StateDelta::Key(kp.pk, kp.sk.to_bytes()));
        let mut effects = self.finalize(env, Vec::new())?;
        effects.push(announced);
        Ok(effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::durable::DurableState;
    use crate::types::CommitteeSpec;

    fn op(n: u8) -> OutPoint {
        OutPoint {
            txid: TxId([n; 32]),
            vout: 0,
        }
    }

    /// Commits deposit `n`'s key to `state`; returns the deposit paying
    /// into it.
    fn dep(state: &mut DurableState, n: u8, value: u64) -> Deposit {
        let kp = Keypair::from_seed(&[n; 32]);
        state.apply(&StateDelta::Key(kp.pk, kp.sk.to_bytes()));
        Deposit {
            outpoint: op(n),
            value,
            committee: CommitteeSpec::single(kp.pk),
        }
    }

    /// Alg. 1 `newDeposit` as `cmd_new_deposit` runs it: the check, then
    /// the commit.
    fn new_deposit(state: &mut DurableState, dep: &Deposit) -> Result<(), ProtocolError> {
        let key = state.book.check_new_mine(dep)?.to_bytes();
        state.apply(&StateDelta::Deposit {
            dep: dep.clone(),
            key: Some(key),
            mine: true,
        });
        Ok(())
    }

    #[test]
    fn add_and_release_lifecycle() {
        let mut state = DurableState::default();
        let d = dep(&mut state, 1, 100);
        new_deposit(&mut state, &d).unwrap();
        assert!(state.book.require_free(&op(1)).is_ok());
        // A channel listing the deposit holds it, and a release of it then
        // changes nothing; leaving the channel frees it, and releasing it
        // records the release.
        let pk = Keypair::from_seed(&[2; 32]).pk;
        let mut chan = Channel::new(ChannelId::from_label("c"), pk, pk, pk);
        chan.my_deps = vec![op(1)];
        state.apply(&StateDelta::Channel(Box::new(chan.clone())));
        assert_eq!(
            state.book.require_free(&op(1)),
            Err(ProtocolError::BadDeposit)
        );
        let release = StateDelta::ReleaseDeposit {
            op: op(1),
            txid: TxId([1; 32]),
        };
        let status = |state: &DurableState| state.book.get_mine(&op(1)).map(|(_, s)| *s);
        state.apply(&release);
        assert_eq!(status(&state), Some(DepositStatus::Associated(chan.id)));
        chan.my_deps.clear();
        state.apply(&StateDelta::Channel(Box::new(chan)));
        assert!(state.book.require_free(&op(1)).is_ok());
        state.apply(&release);
        assert_eq!(status(&state), Some(DepositStatus::Released(TxId([1; 32]))));
        assert!(state.book.require_free(&op(1)).is_err());
    }

    #[test]
    fn duplicate_deposit_rejected() {
        let mut state = DurableState::default();
        let d = dep(&mut state, 1, 100);
        new_deposit(&mut state, &d).unwrap();
        assert_eq!(new_deposit(&mut state, &d), Err(ProtocolError::BadDeposit));
    }

    #[test]
    fn deposit_without_key_rejected() {
        let book = DepositBook::default();
        let foreign = Keypair::from_seed(&[9; 32]).pk;
        let d = Deposit {
            outpoint: op(1),
            value: 5,
            committee: CommitteeSpec::single(foreign),
        };
        assert_eq!(
            book.check_new_mine(&d).err(),
            Some(ProtocolError::BadDeposit)
        );
    }

    #[test]
    fn approval_tracking() {
        let mut state = DurableState::default();
        let remote = Keypair::from_seed(&[8; 32]).pk;
        let d = dep(&mut state, 1, 100);
        new_deposit(&mut state, &d).unwrap();
        let book = &mut state.book;
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
        let mut state = DurableState::default();
        let kp = Keypair::from_seed(&[3; 32]);
        state.apply(&StateDelta::Key(kp.pk, kp.sk.to_bytes()));
        assert!(state.book.keys.contains_key(&kp.pk));
        state.apply(&StateDelta::DestroyKey(kp.pk));
        assert!(!state.book.keys.contains_key(&kp.pk));
    }
}
