//! Force-freeze chain replication (Alg. 3) and committee chains (§6.1).
//!
//! Every state mutation on a primary is a [`StateDelta`]. Before any
//! externally visible effect of the mutation is released, the deltas must
//! propagate down the backup chain and be acknowledged (Alg. 3 line 24) —
//! this is what makes a backup's state authoritative on failover, and what
//! adds one chain traversal of latency per operation (Tables 1 and 2). A
//! backup's replica is a `DurableState` that the deltas change through
//! the same `apply` the primary ran.
//!
//! *Force-freeze*: reading state from a backup (failover) freezes the whole
//! chain — every member stops accepting updates, so the primary cannot
//! continue executing payments against a state the backup has already
//! exposed (the roll-back/forking attack the paper defends against, §6).
//!
//! *Committees*: each backup contributes a blockchain key; deposits pay
//! into m-of-n multisig addresses over those keys, so spending requires m
//! committee signatures — tolerating up to `m-1` compromised TEEs.

use crate::channel::Channel;
use crate::durable::DurableState;
use crate::enclave::{Effect, HostEvent, Outcome, Peer, TeechainEnclave};
use crate::msg::{ProtocolMsg, StateDelta};
use crate::settle;
use crate::types::{ChannelId, ProtocolError};
use std::collections::BTreeMap;
use teechain_blockchain::Transaction;
use teechain_crypto::schnorr::{Keypair, PublicKey};
use teechain_tee::EnclaveEnv;

/// A settlement awaiting committee co-signatures.
pub(crate) struct SigCollect {
    /// Context channel id (zeroed for deposit releases).
    pub id: ChannelId,
    /// The partially signed transaction.
    pub tx: Transaction,
    /// True if it settles the replica (failover), not our own state.
    pub replica: bool,
}

/// Replication role state for one enclave.
#[derive(Default)]
pub(crate) struct Replication {
    /// The node we replicate *to* (our backup / downstream).
    pub(crate) backup: Option<Peer>,
    /// The node we replicate *from* (our primary / upstream).
    pub(crate) upstream: Option<Peer>,
    /// A backup we asked to attach but which has not acked yet.
    pub(crate) pending_backup: Option<Peer>,
    /// Blockchain keys of chain members below us (committee candidates).
    pub chain_keys: Vec<PublicKey>,
    /// Our own committee (blockchain) key when acting as a backup.
    pub member: Option<Keypair>,
    /// Next update sequence to send downstream.
    pub send_seq: u64,
    /// Effects gated on downstream acknowledgement, keyed by sequence.
    pub pending: BTreeMap<u64, Vec<Effect>>,
    /// Deltas staged by the currently executing handler.
    pub staged: Vec<StateDelta>,
    /// Replica of our upstream's durable state, changed only by
    /// [`DurableState::apply`] of the updates it sends.
    pub(crate) replica: DurableState,
    /// Highest update sequence applied to the replica.
    pub applied_seq: u64,
}

impl TeechainEnclave {
    pub(crate) fn cmd_attach_backup(&mut self, backup: PublicKey) -> Outcome {
        self.require_unfrozen()?;
        let backup = self.session_peer(&backup)?;
        if self.rep.backup.is_some() || self.rep.pending_backup.is_some() {
            return Err(ProtocolError::ReplicationError); // Chain tail only.
        }
        self.rep.pending_backup = Some(backup);
        let msg = ProtocolMsg::RepAssign;
        Ok(vec![self.seal_at(backup.slot, &msg)?])
    }

    pub(crate) fn on_rep_assign(&mut self, env: &mut EnclaveEnv, from: Peer) -> Outcome {
        self.require_unfrozen()?;
        if self.rep.upstream.is_some() {
            return Err(ProtocolError::ReplicationError); // Already a backup.
        }
        self.rep.upstream = Some(from);
        // Generate our committee (blockchain) key inside the TEE.
        let member_key = self
            .rep
            .member
            .get_or_insert_with(|| Keypair::from_seed(&env.random_bytes32()))
            .pk;
        let msg = ProtocolMsg::RepAssignAck { member_key };
        Ok(vec![self.seal_at(from.slot, &msg)?])
    }

    pub(crate) fn on_rep_assign_ack(&mut self, from: Peer, member_key: PublicKey) -> Outcome {
        // Either our pending backup confirmed, or a new member deeper in
        // the chain is propagating its key upward.
        if self.rep.pending_backup == Some(from) {
            self.rep.pending_backup = None;
            self.rep.backup = Some(from);
        } else if self.rep.backup != Some(from) {
            return Err(ProtocolError::ReplicationError);
        }
        self.rep.chain_keys.push(member_key);
        let mut effects = Vec::new();
        if let Some(up) = self.rep.upstream {
            // Propagate the new member's key to the chain head.
            let msg = ProtocolMsg::RepAssignAck { member_key };
            effects.push(self.seal_at(up.slot, &msg)?);
        }
        effects.push(Effect::Event(HostEvent::BackupAttached(from.pk)));
        Ok(effects)
    }

    /// The committee for a new deposit: a fresh per-deposit key plus the
    /// blockchain keys of every chain member, threshold `m`.
    pub(crate) fn cmd_new_committee(&mut self, env: &mut EnclaveEnv, m: u8) -> Outcome {
        let chain_keys = self.rep.chain_keys.clone();
        self.hand_out_key(env, |own| {
            let member_keys: Vec<_> = std::iter::once(own).chain(chain_keys).collect();
            if m == 0 || (m as usize) > member_keys.len() {
                return Err(ProtocolError::ReplicationError);
            }
            let spec = crate::types::CommitteeSpec { m, member_keys };
            Ok(HostEvent::CommitteeAddress(spec))
        })
    }

    pub(crate) fn on_rep_update(
        &mut self,
        from: Peer,
        seq: u64,
        deltas: Vec<StateDelta>,
    ) -> Outcome {
        if self.rep.upstream != Some(from) {
            return Err(ProtocolError::ReplicationError);
        }
        if self.frozen {
            // A frozen backup accepts no further updates (force-freeze):
            // the primary's effects stay gated forever, which is the point.
            return Err(ProtocolError::Frozen);
        }
        for d in &deltas {
            self.rep.replica.apply(d);
        }
        self.rep.applied_seq = seq;
        match self.rep.backup {
            // Forward down the chain; ack upstream only when the tail has
            // applied (handled in on_rep_ack).
            Some(backup) => {
                let msg = ProtocolMsg::RepUpdate { seq, deltas };
                Ok(vec![self.seal_at(backup.slot, &msg)?])
            }
            None => {
                let msg = ProtocolMsg::RepAck { seq };
                Ok(vec![self.seal_at(from.slot, &msg)?])
            }
        }
    }

    pub(crate) fn on_rep_ack(&mut self, from: Peer, seq: u64) -> Outcome {
        if self.rep.backup != Some(from) {
            return Err(ProtocolError::ReplicationError);
        }
        if let Some(up) = self.rep.upstream {
            // Intermediate chain member: pass the ack toward the head.
            let msg = ProtocolMsg::RepAck { seq };
            return Ok(vec![self.seal_at(up.slot, &msg)?]);
        }
        // Chain head: release all effects gated at or below `seq`
        // (acks are cumulative because the chain is FIFO).
        let released: Vec<u64> = self.rep.pending.range(..=seq).map(|(k, _)| *k).collect();
        let mut out = Vec::new();
        for k in released {
            if let Some(effects) = self.rep.pending.remove(&k) {
                out.extend(effects);
            }
        }
        Ok(out)
    }

    pub(crate) fn on_rep_freeze(&mut self, from: Peer) -> Outcome {
        if self.rep.upstream != Some(from) && self.rep.backup != Some(from) {
            return Err(ProtocolError::ReplicationError);
        }
        self.propagate_freeze(Some(from))
    }

    fn propagate_freeze(&mut self, except: Option<Peer>) -> Outcome {
        if self.frozen {
            return Ok(vec![]);
        }
        self.frozen = true;
        let mut effects = Vec::new();
        for peer in [self.rep.upstream, self.rep.backup].into_iter().flatten() {
            if Some(peer) != except {
                effects.push(self.seal_at(peer.slot, &ProtocolMsg::RepFreeze)?);
            }
        }
        effects.push(Effect::Event(HostEvent::Frozen));
        Ok(effects)
    }

    pub(crate) fn cmd_read_replica(&mut self) -> Outcome {
        if self.rep.upstream.is_none() {
            return Err(ProtocolError::ReplicationError);
        }
        // Reading a backup breaks the chain: everything freezes (§6).
        let mut effects = self.propagate_freeze(None)?;
        let book = &self.rep.replica.book;
        effects.push(Effect::Event(HostEvent::ReplicaState {
            channels: self.rep.replica.channels.len(),
            deposits: book.mine.len() + book.remote.len(),
            applied_seq: self.rep.applied_seq,
        }));
        Ok(effects)
    }

    pub(crate) fn cmd_settle_from_replica(&mut self) -> Outcome {
        if self.rep.upstream.is_none() {
            return Err(ProtocolError::ReplicationError);
        }
        if !self.frozen {
            // Settling from a replica is a read: it must freeze first.
            let _ = self.propagate_freeze(None)?;
        }
        // Slot order is the upstream's creation order, so two runs of one
        // schedule settle — and number co-sign requests — identically.
        let channels: Vec<Channel> = self
            .rep
            .replica
            .channels
            .values()
            .filter(|c| !c.closed)
            .cloned()
            .collect();
        let mut effects = Vec::new();
        for chan in channels {
            let tx = settle::current_settlement_tx(&chan);
            self.finish_settlement(chan.id, tx, true, &mut effects);
        }
        Ok(effects)
    }

    pub(crate) fn cmd_co_sign(&mut self, req_id: u64, tx: Transaction) -> Outcome {
        // Byzantine guard (§6.1): only sign settlements that exactly match
        // replicated state — a compromised primary cannot obtain committee
        // signatures for a stale or inflated settlement.
        let txid = tx.txid();
        let replica = &self.rep.replica;
        // (1) Current settlement of a replicated channel, (2) a
        // replicated multi-hop intermediate settlement τ, or (3) release
        // of a deposit that is free in the replica.
        let valid = replica
            .channels
            .values()
            .any(|c| settle::current_settlement_tx(c).txid() == txid)
            || replica
                .routes
                .values()
                .any(|r| r.tau.as_ref().is_some_and(|t| t.txid() == txid))
            || (tx.inputs.len() == 1 && replica.book.require_free(&tx.inputs[0].prevout).is_ok());
        let sighash = tx.sighash();
        let mut sigs = Vec::new();
        for (idx, input) in tx.inputs.iter().enumerate().filter(|_| valid) {
            let Some(dep) = replica.book.deposit_of(&input.prevout) else {
                continue;
            };
            for member in &dep.committee.member_keys {
                if let Some(key) = self.signer(replica, member) {
                    sigs.push((idx as u32, teechain_crypto::schnorr::sign(&key, &sighash)));
                }
            }
        }
        Ok(vec![Effect::Event(HostEvent::CoSignResult {
            req_id,
            sigs,
            refused: !valid,
        })])
    }

    pub(crate) fn cmd_add_co_sigs(
        &mut self,
        req_id: u64,
        sigs: Vec<(u32, teechain_crypto::schnorr::Signature)>,
    ) -> Outcome {
        let Some(collect) = self.sig_collects.get_mut(&req_id) else {
            return Err(ProtocolError::BadMessage);
        };
        for (idx, sig) in sigs {
            if let Some(input) = collect.tx.inputs.get_mut(idx as usize) {
                if !input.witness.contains(&sig) {
                    input.witness.push(sig);
                }
            }
        }
        let (tx, id, replica) = (collect.tx.clone(), collect.id, collect.replica);
        let book = if replica {
            &self.rep.replica.book
        } else {
            &self.state.book
        };
        if settle::threshold_met(&tx, |op| book.deposit_of(op)) {
            self.sig_collects.remove(&req_id);
            Ok(vec![
                Effect::Event(HostEvent::SettlementBroadcast {
                    id,
                    txid: tx.txid(),
                }),
                Effect::Broadcast(tx),
            ])
        } else {
            Ok(vec![])
        }
    }
}
