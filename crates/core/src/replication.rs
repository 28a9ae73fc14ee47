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
//! *Coalescing*: the chain passes on only what is already queued, on one
//! signal, the host's input hint (`Command::Deliver::more`). The head
//! holds the deltas of a delivery with more messages behind it that
//! produced no output, folding consecutive payments on one channel, and
//! commits them as one update at its next ecall of another kind, or the
//! [`ACK_EVERY`]-th held one; a command commits at once. Below the head,
//! the tail acknowledges, and a middle member forwards, every update it
//! applied with one message, at most [`ACK_EVERY`] head updates apart. The
//! one place all of it is released is `TeechainEnclave::handle`.
//!
//! *Owed pays*: a head's submitted payments are not sealed when made. Each
//! waits, unsealed, on its ecall's pending entry (`Gated`), and the
//! chain ack that releases the entry seals each run of consecutive
//! payments on one channel as one wire `Pay` (`on_rep_ack`). So no
//! payment waits longer than it did sealed, and one ack's worth leaves
//! as one message per channel. Before anything else is sealed to a peer
//! that is owed pays, `TeechainEnclave::seal_at` seals those pays first,
//! which keeps each session's sequence order its send order.
//!
//! *Force-freeze*: reading state from a backup (failover) freezes the whole
//! chain — every member stops accepting updates, so the primary cannot
//! continue executing payments against a state the backup has already
//! exposed (the roll-back/forking attack the paper defends against, §6).
//!
//! *Committees*: each backup contributes a blockchain key; deposits pay
//! into m-of-n multisig addresses over those keys, so spending requires m
//! committee signatures — tolerating up to `m-1` compromised TEEs. The
//! chain co-signs over its own sealed sessions: a request walks down from
//! its origin, each member signs what matches its replica, and the answer
//! retraces the walk.

use crate::channel::{Channel, OwedPay, OwedPays};
use crate::deposit::{keypair_in, DepositBook, DepositStatus};
use crate::durable::DurableState;
use crate::enclave::{Effect, Gate, Outcome, Peer, TeechainEnclave};
use crate::msg::{ProtocolMsg, SettleDigest, StateDelta};
use crate::ops::{MatchKey, OpError, OpOutput, SettleKind};
use crate::settle;
use crate::types::{ChannelId, Deposit, ProtocolError, RouteId};
use std::collections::BTreeMap;
use teechain_blockchain::Transaction;
use teechain_crypto::schnorr::{self, Keypair, PublicKey, Signature};
use teechain_tee::EnclaveEnv;

/// Head updates a chain member below the head applies before it must pass
/// them on, even while more input is waiting: the tail acknowledges them,
/// a middle member forwards them to its backup as one update. Without a
/// bound a member drains its whole backlog first, which holds back the
/// head's effects for that long; with one, an ack releases, and a forward
/// carries, at most this many head updates. The head itself holds the
/// deltas of at most this many deliveries before it commits them.
pub const ACK_EVERY: u64 = 64;

/// Per-member replication counters, surfaced through the node registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RepStats {
    /// Updates this node sealed to its backup as a chain head: one per
    /// ecall that commits, where a run of held deliveries is one.
    pub updates_sent: u64,
    /// Head updates applied to this member's replica: a forwarded update
    /// counts every head update it covers.
    pub updates_applied: u64,
    /// Acknowledgements sealed toward the head: as the tail, one per
    /// [`ACK_EVERY`] head updates or per drained input; in the middle of
    /// the chain, one per ack forwarded.
    pub acks_sent: u64,
    /// Of those, the tail's acks sent because its input drained before
    /// [`ACK_EVERY`] updates were owed.
    pub ack_flushes: u64,
    /// Updates a middle member sealed to its backup: one per
    /// [`ACK_EVERY`] head updates or per drained input.
    pub forwards_sent: u64,
    /// Of those, the forwards sent because its input drained before
    /// [`ACK_EVERY`] head updates were owed.
    pub forward_flushes: u64,
    /// Co-sign requests this member refused: they matched nothing in its
    /// replica.
    pub sigs_refused: u64,
}

/// A transaction awaiting committee co-signatures.
pub(crate) struct SigCollect {
    /// The partially signed transaction.
    pub tx: Transaction,
    /// What happens once its thresholds are met.
    pub then: CoSigned,
    /// `(input index, member key)` of every co-signature kept: a member
    /// counts once per input, however many signatures it sends.
    pub cosigners: Vec<(u32, PublicKey)>,
}

/// What a [`SigCollect`] does with its transaction once co-signed.
pub(crate) enum CoSigned {
    /// Broadcast a settlement.
    Broadcast {
        /// Context channel id (zeroed for deposit releases).
        id: ChannelId,
        /// True if it settles the replica (failover), not our own state.
        replica: bool,
    },
    /// Pass a multi-hop route's τ on in the sign pass
    /// ([`TeechainEnclave::pass_signed_tau`]).
    SignPass {
        /// The route.
        route: RouteId,
        /// Its settlement digests, as the sign pass carries them.
        digests: Vec<SettleDigest>,
        /// Committee metadata of every deposit τ spends.
        deposits: Vec<Deposit>,
    },
}

/// What one head update holds back until the chain acknowledges it:
/// its ecall's sealed output, in order, and the payments it owes, not yet
/// sealed ([`OwedPay`]).
#[derive(Debug, Default)]
pub(crate) struct Gated {
    /// The ecall's output, sealed.
    pub(crate) effects: Vec<Effect>,
    /// Its outbound payments, in order.
    pub(crate) owed_pays: Vec<OwedPay>,
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
    /// What each head update holds back until the chain acknowledges it,
    /// keyed by sequence.
    pub pending: BTreeMap<u64, Gated>,
    /// A chain head's owed pays that no pending entry holds yet, and the
    /// counts of all of them.
    pub(crate) owed_pays: OwedPays,
    /// Deltas staged by the currently executing handler.
    pub staged: Vec<StateDelta>,
    /// A chain head's deltas not yet committed: those of deliveries with
    /// more messages queued behind them that produced no output, with
    /// consecutive payments on one channel folded into one. The next
    /// ecall that is not such a delivery, or the [`ACK_EVERY`]-th held
    /// one, commits them first in its update; only
    /// `TeechainEnclave::handle` takes them
    /// (`scripts/check-one-drain.sh`).
    pub(crate) held: Vec<StateDelta>,
    /// Deliveries whose deltas `held` keeps.
    pub(crate) held_runs: u64,
    /// Co-sign requests the currently executing handler opened, by
    /// request id: sealed to the backup behind its update
    /// ([`TeechainEnclave::finalize`]).
    pub asks: Vec<(u64, Transaction)>,
    /// Replica of our upstream's durable state, changed only by
    /// [`DurableState::apply`] of the updates it sends.
    pub(crate) replica: DurableState,
    /// The head update sequence the replica expects next: it covers every
    /// one below.
    pub next_seq: u64,
    /// Head updates applied and not yet passed on: acknowledged, as the
    /// tail, or forwarded, in the middle of the chain.
    owed: u64,
    /// Sequence of the newest of them (what the next ack or forward
    /// names).
    owed_seq: u64,
    /// A middle member's deltas of the owed updates, in order.
    owed_deltas: Vec<StateDelta>,
    /// Counters for the node registry.
    pub(crate) stats: RepStats,
}

impl TeechainEnclave {
    pub(crate) fn cmd_attach_backup(&mut self, backup: PublicKey) -> Outcome {
        // Replication and persistent storage are alternative backends: a
        // persisting enclave takes no backup.
        if self.cfg.persist() {
            return Err(ProtocolError::ReplicationError);
        }
        let backup = self.session_peer(&backup)?;
        if self.rep.backup.is_some() || self.rep.pending_backup.is_some() {
            return Err(ProtocolError::ReplicationError); // Chain tail only.
        }
        self.rep.pending_backup = Some(backup);
        let msg = ProtocolMsg::RepAssign;
        Ok(vec![self.seal_at(backup.slot, &msg)?])
    }

    pub(crate) fn on_rep_assign(&mut self, env: &mut EnclaveEnv, from: Peer) -> Outcome {
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
        let attached = OpOutput::BackupAttached(from.pk);
        effects.push(Effect::done(MatchKey::BackupAttached(from.pk), attached));
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
            Ok(Effect::done(MatchKey::Committee, OpOutput::Committee(spec)))
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
        // Sequences are consecutive from the head, so an update names
        // every head update since the one before it.
        let covered = seq + 1 - self.rep.next_seq;
        self.rep.next_seq = seq + 1;
        self.rep.stats.updates_applied += covered;
        // The chain is FIFO and the head releases cumulatively, so one
        // message for the newest update covers every one before it: the
        // tail owes one ack, a middle member one forward of all their
        // deltas. It goes out once `ACK_EVERY` head updates are owed, or
        // at the first ecall that is not a delivery with more messages
        // queued behind it (`Command::Deliver::more`).
        if self.rep.backup.is_some() {
            // The first owed update's vector is kept, not copied.
            if self.rep.owed_deltas.is_empty() {
                self.rep.owed_deltas = deltas;
            } else {
                self.rep.owed_deltas.extend(deltas);
            }
        }
        self.rep.owed += covered;
        self.rep.owed_seq = seq;
        if self.rep.owed >= ACK_EVERY {
            return Ok(vec![self.seal_owed()?]);
        }
        Ok(vec![])
    }

    /// Seals what this member owes once its input has drained, if it owes
    /// anything. A member that cannot seal it (no session) drops it: the
    /// head's effects stay held, as if the message were lost.
    pub(crate) fn flush_owed(&mut self) -> Option<Effect> {
        if self.rep.owed == 0 {
            return None;
        }
        if self.rep.backup.is_some() {
            self.rep.stats.forward_flushes += 1;
        } else {
            self.rep.stats.ack_flushes += 1;
        }
        self.seal_owed().ok()
    }

    /// Passes every owed update on with one message for the newest: a
    /// middle member forwards their deltas to its backup, the tail
    /// acknowledges them upstream.
    fn seal_owed(&mut self) -> Result<Effect, ProtocolError> {
        self.rep.owed = 0;
        let seq = self.rep.owed_seq;
        if let Some(backup) = self.rep.backup {
            self.rep.stats.forwards_sent += 1;
            let deltas = std::mem::take(&mut self.rep.owed_deltas);
            return self.seal_at(backup.slot, &ProtocolMsg::RepUpdate { seq, deltas });
        }
        let up = self.rep.upstream.ok_or(ProtocolError::ReplicationError)?;
        self.rep.stats.acks_sent += 1;
        self.seal_at(up.slot, &ProtocolMsg::RepAck { seq })
    }

    pub(crate) fn on_rep_ack(&mut self, from: Peer, seq: u64) -> Outcome {
        if self.rep.backup != Some(from) {
            return Err(ProtocolError::ReplicationError);
        }
        if let Some(up) = self.rep.upstream {
            // Intermediate chain member: pass the ack toward the head.
            self.rep.stats.acks_sent += 1;
            let msg = ProtocolMsg::RepAck { seq };
            return Ok(vec![self.seal_at(up.slot, &msg)?]);
        }
        // Chain head: release all effects gated at or below `seq`
        // (acks are cumulative because the chain is FIFO), then the pays
        // they owe, each run on one channel as one `Pay`: nothing was
        // sealed to a peer after a pay still owed to it.
        let kept = seq
            .checked_add(1)
            .map(|next| self.rep.pending.split_off(&next))
            .unwrap_or_default();
        let released = std::mem::replace(&mut self.rep.pending, kept);
        let (mut effects, mut pays) = (Vec::new(), Vec::new());
        for mut entry in released.into_values() {
            effects.append(&mut entry.effects);
            pays.append(&mut entry.owed_pays);
        }
        self.seal_owed_pays(pays, |pay| effects.push(pay));
        Ok(effects)
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
        Ok(effects)
    }

    pub(crate) fn cmd_read_replica(&mut self) -> Outcome {
        if self.rep.upstream.is_none() {
            return Err(ProtocolError::ReplicationError);
        }
        // Reading a backup breaks the chain: everything freezes (§6).
        let mut effects = self.propagate_freeze(None)?;
        let book = &self.rep.replica.book;
        let state = OpOutput::ReplicaState {
            channels: self.rep.replica.channels.len(),
            deposits: book.mine.len() + book.remote.len(),
            applied_seq: self.rep.next_seq.saturating_sub(1),
        };
        effects.push(Effect::done(MatchKey::Replica, state));
        Ok(effects)
    }

    pub(crate) fn cmd_settle_from_replica(&mut self) -> Outcome {
        if self.rep.upstream.is_none() {
            return Err(ProtocolError::ReplicationError);
        }
        // Settling from a replica is a read: it must freeze first.
        let mut effects = self.propagate_freeze(None)?;
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
        for chan in channels {
            let tx = settle::current_settlement_tx(&chan);
            self.finish_settlement(chan.id, tx, true, &mut effects);
        }
        Ok(effects)
    }

    /// A co-sign request from our upstream peer. We sign only what
    /// matches our replica (the Byzantine guard of §6.1: a compromised
    /// primary gets no committee signature for a stale or inflated
    /// settlement), then answer upstream once every input spending one of
    /// the replica's deposits meets its threshold or we are the tail, and
    /// otherwise pass the request on to our backup, behind whatever
    /// updates we still owe it.
    pub(crate) fn on_sig_request(
        &mut self,
        from: Peer,
        req_id: u64,
        hops: u8,
        mut tx: Transaction,
    ) -> Outcome {
        if self.rep.upstream != Some(from) {
            return Err(ProtocolError::ReplicationError);
        }
        let replica = &self.rep.replica;
        if !matches_replica(replica, &tx) {
            self.rep.stats.sigs_refused += 1;
            let msg = ProtocolMsg::SigResponse {
                req_id,
                hops,
                sigs: Vec::new(),
                refused: true,
            };
            return Ok(vec![self.seal_at(from.slot, &msg)?]);
        }
        settle::sign_inputs(
            &mut tx,
            |pk| self.signer(replica, pk),
            |op| replica.book.deposit_of(op),
        );
        match self.rep.backup.zip(hops.checked_add(1)) {
            Some((backup, hops)) if settle::needs_co_signs(&replica.book, &tx) => {
                let mut effects = Vec::new();
                if self.rep.owed > 0 && !self.frozen {
                    effects.push(self.seal_owed()?);
                }
                let msg = ProtocolMsg::SigRequest { req_id, hops, tx };
                effects.push(self.seal_at(backup.slot, &msg)?);
                Ok(effects)
            }
            _ => {
                let msg = ProtocolMsg::SigResponse {
                    req_id,
                    hops,
                    sigs: committee_witnesses(&replica.book, &tx),
                    refused: false,
                };
                Ok(vec![self.seal_at(from.slot, &msg)?])
            }
        }
    }

    /// A co-sign answer from our backup: relayed upstream until its count
    /// reaches 0, at the request's origin, which merges its signatures.
    pub(crate) fn on_sig_response(
        &mut self,
        env: &mut EnclaveEnv,
        from: Peer,
        req_id: u64,
        hops: u8,
        sigs: Vec<(u32, Signature)>,
        refused: bool,
    ) -> Outcome {
        if self.rep.backup != Some(from) {
            return Err(ProtocolError::ReplicationError);
        }
        let Some(hops) = hops.checked_sub(1) else {
            return self.merge_co_sigs(env, req_id, sigs);
        };
        let up = self.rep.upstream.ok_or(ProtocolError::ReplicationError)?;
        let msg = ProtocolMsg::SigResponse {
            req_id,
            hops,
            sigs,
            refused,
        };
        Ok(vec![self.seal_at(up.slot, &msg)?])
    }

    /// Merges a committee's co-signatures into a pending settlement, which
    /// it broadcasts when thresholds are met, or into a route's τ, whose
    /// sign pass then continues.
    fn merge_co_sigs(
        &mut self,
        env: &mut EnclaveEnv,
        req_id: u64,
        sigs: Vec<(u32, Signature)>,
    ) -> Outcome {
        let Some(collect) = self.sig_collects.get_mut(&req_id) else {
            return Err(ProtocolError::BadMessage);
        };
        let state = match collect.then {
            CoSigned::Broadcast { replica: true, .. } => &self.rep.replica,
            _ => &self.state,
        };
        // Keep only the signatures a committee member of the input's
        // deposit made over this transaction, and at most one per member
        // and input, so that witness counts (`threshold_met`,
        // `needs_co_signs`) count distinct signers, as the chain's
        // multisig does. A key we hold signed here already.
        let sighash = collect.tx.sighash();
        for (idx, sig) in sigs {
            let Some(input) = collect.tx.inputs.get_mut(idx as usize) else {
                continue;
            };
            let Some(dep) = state.book.deposit_of(&input.prevout) else {
                continue;
            };
            let members = &dep.committee.member_keys;
            let Some(&pk) = members
                .iter()
                .find(|pk| schnorr::verify(pk, &sighash, &sig))
            else {
                continue;
            };
            let ours = keypair_in(&state.book.keys, &pk).is_some()
                || self.rep.member.is_some_and(|k| k.pk == pk);
            if !ours && !collect.cosigners.contains(&(idx, pk)) {
                collect.cosigners.push((idx, pk));
                input.witness.push(sig);
            }
        }
        let SigCollect { tx, then, .. } = &self.sig_collects[&req_id];
        match *then {
            CoSigned::Broadcast { id, .. } => {
                if !settle::threshold_met(tx, |op| state.book.deposit_of(op)) {
                    // The request walked the whole chain and this is its
                    // one answer: nothing more will come, so the
                    // settlement fails instead of waiting forever.
                    self.sig_collects.remove(&req_id);
                    let short = OpError::Remote(ProtocolError::ReplicationError);
                    return Ok(vec![Effect::failed(MatchKey::Settle(id), short)]);
                }
                let tx = self.sig_collects.remove(&req_id).expect("present").tx;
                let settled = Effect::settled(id, SettleKind::OnChain(tx.txid()));
                Ok(vec![settled, Effect::Broadcast(tx)])
            }
            CoSigned::SignPass { .. } => {
                if settle::needs_co_signs(&self.state.book, tx) {
                    // A short sign pass keeps waiting, as it always has:
                    // ejecting the route ends it (`terminate_route`).
                    return Ok(vec![]);
                }
                // The sign pass commits: this is a step of the protocol.
                self.pass(env, Gate::Mutating)?;
                let Some(SigCollect {
                    tx,
                    then:
                        CoSigned::SignPass {
                            route,
                            digests,
                            deposits,
                        },
                    ..
                }) = self.sig_collects.remove(&req_id)
                else {
                    unreachable!("a sign-pass collection")
                };
                self.pass_signed_tau(route, tx, digests, deposits)
            }
        }
    }

    /// Opens a co-sign collection for `tx` and asks the committee chain
    /// for its signatures. The request goes to our backup behind this
    /// ecall's replication update, so every member it reaches holds the
    /// state it is checked against.
    pub(crate) fn ask_committee(&mut self, tx: Transaction, then: CoSigned) {
        let req_id = self.next_req_id();
        self.rep.asks.push((req_id, tx.clone()));
        let collect = SigCollect {
            tx,
            then,
            cosigners: Vec::new(),
        };
        self.sig_collects.insert(req_id, collect);
    }

    fn next_req_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    /// The signing handle for `pk`: a key `state` holds, or our committee
    /// key.
    pub(crate) fn signer(&self, state: &DurableState, pk: &PublicKey) -> Option<Keypair> {
        keypair_in(&state.book.keys, pk).or(self.rep.member.filter(|k| k.pk == *pk))
    }

    /// Finishes a settlement of our own state, or of the replica: signs
    /// with every key we hold; broadcasts if thresholds are met, otherwise
    /// asks the committee chain to co-sign.
    pub(crate) fn finish_settlement(
        &mut self,
        id: ChannelId,
        mut tx: teechain_blockchain::Transaction,
        replica: bool,
        effects: &mut Vec<Effect>,
    ) {
        // Sign every input with every key we can resolve: the state's
        // deposit keys and our committee chain key — a backup settling
        // for a crashed primary needs both (§6.1).
        let state = if replica {
            &self.rep.replica
        } else {
            &self.state
        };
        settle::sign_inputs(
            &mut tx,
            |pk| self.signer(state, pk),
            |op| state.book.deposit_of(op),
        );
        if settle::threshold_met(&tx, |op| state.book.deposit_of(op)) {
            effects.push(Effect::settled(id, SettleKind::OnChain(tx.txid())));
            effects.push(Effect::Broadcast(tx));
        } else {
            self.ask_committee(tx, CoSigned::Broadcast { id, replica });
        }
    }
}

/// True if `tx` is one a committee member may co-sign (§6.1): the current
/// settlement of a replicated channel, a replicated multi-hop
/// intermediate settlement τ, or the release of a deposit that the
/// replica recorded, by this very transaction.
fn matches_replica(replica: &DurableState, tx: &Transaction) -> bool {
    let txid = tx.txid();
    replica
        .channels
        .values()
        .any(|c| settle::current_settlement_tx(c).txid() == txid)
        || replica
            .routes
            .values()
            .any(|r| r.tau.as_ref().is_some_and(|t| t.txid() == txid))
        || tx.inputs.len() == 1
            && matches!(replica.book.get_mine(&tx.inputs[0].prevout),
                Some((_, DepositStatus::Released(id))) if *id == txid)
}

/// Every witness on an input of `tx` that spends one of `book`'s own
/// deposits: what its committee signed. The origin's merge drops the
/// ones it made itself.
fn committee_witnesses(book: &DepositBook, tx: &Transaction) -> Vec<(u32, Signature)> {
    tx.inputs
        .iter()
        .enumerate()
        .filter(|(_, input)| book.mine.contains_key(&input.prevout))
        .flat_map(|(idx, input)| input.witness.iter().map(move |sig| (idx as u32, *sig)))
        .collect()
}

#[cfg(test)]
mod tests;
