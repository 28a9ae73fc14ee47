//! Force-freeze chain replication (Alg. 3) and committee chains (§6.1).
//!
//! Every state mutation on a primary produces [`StateDelta`]s. Before any
//! externally visible effect of the mutation is released, the deltas must
//! propagate down the backup chain and be acknowledged (Alg. 3 line 24) —
//! this is what makes a backup's state authoritative on failover, and what
//! adds one chain traversal of latency per operation (Tables 1 and 2).
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
use crate::enclave::{Effect, HostEvent, Outcome, Peer, TeechainEnclave};
use crate::msg::{ProtocolMsg, StateDelta};
use crate::settle;
use crate::slots::SlotMap;
use crate::types::{ChannelId, Deposit, ProtocolError, RouteId};
use std::collections::{BTreeMap, HashMap};
use teechain_blockchain::{OutPoint, Transaction};
use teechain_crypto::schnorr::{PrivateKey, PublicKey};
use teechain_tee::EnclaveEnv;

/// State replicated from our upstream (the node we back up).
#[derive(Default)]
pub(crate) struct ReplicaState {
    /// Replicated channels (upstream's perspective), in the order their
    /// first update arrived — the upstream's creation order.
    pub(crate) channels: SlotMap<ChannelId, Channel>,
    /// Replicated deposits.
    pub(crate) deposits: HashMap<OutPoint, Deposit>,
    /// Replicated deposit keys (1-of-1 deposits and shared keys).
    pub(crate) keys: HashMap<PublicKey, PrivateKey>,
    /// Replicated multi-hop intermediate settlements.
    pub(crate) taus: HashMap<RouteId, Transaction>,
    /// Highest update sequence applied.
    pub applied_seq: u64,
}

/// A settlement awaiting committee co-signatures.
pub(crate) struct SigCollect {
    /// Context channel id (zeroed for deposit releases).
    pub id: ChannelId,
    /// The partially signed transaction.
    pub tx: Transaction,
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
    pub my_member_key: Option<PublicKey>,
    /// Next update sequence to send downstream.
    pub send_seq: u64,
    /// Effects gated on downstream acknowledgement, keyed by sequence.
    pub pending: BTreeMap<u64, Vec<Effect>>,
    /// Deltas staged by the currently executing handler.
    pub staged: Vec<StateDelta>,
    /// Replica of our upstream's state.
    pub replica: ReplicaState,
}

impl ReplicaState {
    fn apply(&mut self, delta: StateDelta) {
        match delta {
            StateDelta::Channel(c) => {
                self.channels.insert(c.id, *c);
            }
            StateDelta::Pay {
                id,
                my_delta,
                remote_delta,
            } => {
                if let Some(c) = self.channels.get_mut(&id) {
                    c.my_bal = c.my_bal.wrapping_add_signed(my_delta);
                    c.remote_bal = c.remote_bal.wrapping_add_signed(remote_delta);
                }
            }
            StateDelta::Stage { id, stage } => {
                if let Some(c) = self.channels.get_mut(&id) {
                    c.stage = stage;
                }
            }
            StateDelta::Deposit { dep, key, mine: _ } => {
                if let Some(bytes) = key {
                    if let Some(sk) = PrivateKey::from_bytes(&bytes) {
                        self.keys.insert(sk.public_key(), sk);
                    }
                }
                self.deposits.insert(dep.outpoint, dep);
            }
            StateDelta::RemoveDeposit(op) => {
                self.deposits.remove(&op);
            }
            StateDelta::Tau { route, tau } => match tau {
                Some(tx) => {
                    self.taus.insert(route, tx);
                }
                None => {
                    self.taus.remove(&route);
                }
            },
            StateDelta::CloseChannel(id) => {
                if let Some(c) = self.channels.get_mut(&id) {
                    c.closed = true;
                }
            }
            StateDelta::Swap(_) => {
                // Swap progress is not needed to settle replicated
                // channels: the balance movement of a redeem arrives as
                // its own `Pay` delta in the same update, and the HTLC
                // side lives on the alternate chain under the primary's
                // identity key, which backups do not hold.
            }
        }
    }

    /// True if no replicated channel currently contains `op` (i.e. the
    /// deposit is free and may be released by its owner).
    pub fn deposit_is_free(&self, op: &OutPoint) -> bool {
        !self
            .channels
            .values()
            .any(|c| !c.closed && (c.my_deps.contains(op) || c.remote_deps.contains(op)))
    }
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
        let member_key = match self.rep.my_member_key {
            Some(k) => k,
            None => {
                let sk = PrivateKey::from_seed(&env.random_bytes32());
                let pk = self.book.insert_key(sk);
                self.rep.my_member_key = Some(pk);
                pk
            }
        };
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
        self.require_unfrozen()?;
        let seed = env.random_bytes32();
        let own = self.book.insert_key(PrivateKey::from_seed(&seed));
        let mut member_keys = vec![own];
        member_keys.extend(self.rep.chain_keys.iter().copied());
        if m == 0 || (m as usize) > member_keys.len() {
            return Err(ProtocolError::ReplicationError);
        }
        let spec = crate::types::CommitteeSpec { m, member_keys };
        Ok(vec![Effect::Event(HostEvent::CommitteeAddress(spec))])
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
        if self.rep.backup.is_some() {
            // Forward down the chain first; ack upstream only when the
            // tail has applied (handled in on_rep_ack).
            for d in &deltas {
                self.rep.replica.apply(d.clone());
            }
            self.rep.replica.applied_seq = seq;
            let backup = self.rep.backup.expect("checked");
            let msg = ProtocolMsg::RepUpdate { seq, deltas };
            Ok(vec![self.seal_at(backup.slot, &msg)?])
        } else {
            for d in deltas {
                self.rep.replica.apply(d);
            }
            self.rep.replica.applied_seq = seq;
            let msg = ProtocolMsg::RepAck { seq };
            Ok(vec![self.seal_at(from.slot, &msg)?])
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
        effects.push(Effect::Event(HostEvent::ReplicaState {
            channels: self.rep.replica.channels.len(),
            deposits: self.rep.replica.deposits.len(),
            applied_seq: self.rep.replica.applied_seq,
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
            self.finish_settlement(chan.id, tx, &mut effects);
        }
        Ok(effects)
    }

    pub(crate) fn cmd_co_sign(&mut self, req_id: u64, tx: Transaction) -> Outcome {
        // Byzantine guard (§6.1): only sign settlements that exactly match
        // replicated state — a compromised primary cannot obtain committee
        // signatures for a stale or inflated settlement.
        let txid = tx.txid();
        let mut valid = false;
        // (1) Current settlement of a replicated channel.
        for chan in self.rep.replica.channels.values() {
            if settle::current_settlement_tx(chan).txid() == txid {
                valid = true;
                break;
            }
        }
        // (2) A replicated multi-hop intermediate settlement τ.
        if !valid {
            valid = self.rep.replica.taus.values().any(|t| t.txid() == txid);
        }
        // (3) Release of a deposit that is free in the replica.
        if !valid && tx.inputs.len() == 1 {
            let op = tx.inputs[0].prevout;
            if self.rep.replica.deposits.contains_key(&op) && self.rep.replica.deposit_is_free(&op)
            {
                valid = true;
            }
        }
        if !valid {
            return Ok(vec![Effect::Event(HostEvent::CoSignResult {
                req_id,
                sigs: vec![],
                refused: true,
            })]);
        }
        let sighash = tx.sighash();
        let mut sigs = Vec::new();
        for (idx, input) in tx.inputs.iter().enumerate() {
            let Some(dep) = self.known_deposit(&input.prevout) else {
                continue;
            };
            for member in &dep.committee.member_keys {
                if let Some(key) = self.signing_key(member) {
                    sigs.push((idx as u32, teechain_crypto::schnorr::sign(&key, &sighash)));
                }
            }
        }
        Ok(vec![Effect::Event(HostEvent::CoSignResult {
            req_id,
            sigs,
            refused: false,
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
        let tx = collect.tx.clone();
        let id = collect.id;
        let deposit_of = |op: &OutPoint| {
            self.book
                .deposit_of(op)
                .or_else(|| self.rep.replica.deposits.get(op))
        };
        if settle::threshold_met(&tx, deposit_of) {
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
