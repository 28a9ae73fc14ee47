//! Payment channels (Alg. 1): the per-channel variables, and the handlers
//! that open a channel, pay over it and settle it.

use crate::admit::{
    AckEntry, DeferredMsg, QueueEntry, QueuedOp, ADMIT_DEADLINE_NS, ADMIT_QUEUE_CAP,
    DEFER_DEADLINE_NS,
};
use crate::enclave::{Effect, HostEvent, Outcome, Peer, TeechainEnclave};
use crate::msg::{ProtocolMsg, StateDelta};
use crate::ops::{MatchKey, OpError, OpOutput, Payment, SettleKind};
use crate::settle;
use crate::types::{ChannelId, MultihopStage, ProtocolError, RouteId};
use teechain_blockchain::OutPoint;
use teechain_crypto::schnorr::{PrivateKey, PublicKey};
use teechain_tee::EnclaveEnv;

/// The state of one bidirectional payment channel, as held inside a TEE.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Channel identifier.
    pub id: ChannelId,
    /// Remote TEE identity key (`c_remote_K`).
    pub remote: PublicKey,
    /// Our on-chain settlement address (`c_my_add`).
    pub my_settlement: PublicKey,
    /// Remote's settlement address (`c_remote_add`).
    pub remote_settlement: PublicKey,
    /// `c_is_open`: both sides acknowledged.
    pub is_open: bool,
    /// Our balance (`c_my_bal`).
    pub my_bal: u64,
    /// Remote balance (`c_remote_bal`).
    pub remote_bal: u64,
    /// Our associated deposits (`c_my_deps`), sorted.
    pub my_deps: Vec<OutPoint>,
    /// Remote associated deposits (`c_remote_deps`), sorted.
    pub remote_deps: Vec<OutPoint>,
    /// Multi-hop stage of this channel (Alg. 2's `c_stage`).
    pub stage: MultihopStage,
    /// The in-flight route locking this channel, if any.
    pub route: Option<RouteId>,
    /// Deposits we proposed to dissociate and await the remote's ack for.
    pub pending_dissoc: Vec<OutPoint>,
    /// True once settled/closed (terminal).
    pub closed: bool,
    /// True while we (as initiator) are driving a cooperative off-chain
    /// settlement: once every deposit on both sides has dissociated, the
    /// enclave emits the terminal `SettledOffChain` notification that
    /// resolves the initiator's settle operation.
    pub settling: bool,
}

impl Channel {
    /// Creates a fresh, not-yet-open channel.
    pub fn new(
        id: ChannelId,
        remote: PublicKey,
        my_settlement: PublicKey,
        remote_settlement: PublicKey,
    ) -> Self {
        Channel {
            id,
            remote,
            my_settlement,
            remote_settlement,
            is_open: false,
            my_bal: 0,
            remote_bal: 0,
            my_deps: Vec::new(),
            remote_deps: Vec::new(),
            stage: MultihopStage::Idle,
            route: None,
            pending_dissoc: Vec::new(),
            closed: false,
            settling: false,
        }
    }

    /// True if the channel can process payments and deposit operations.
    pub fn usable(&self) -> bool {
        self.is_open && !self.closed
    }

    /// True if a multi-hop payment currently locks this channel.
    pub fn locked(&self) -> bool {
        self.stage != MultihopStage::Idle
    }

    /// Total value of all associated deposits, by the invariant
    /// `my_bal + remote_bal == Σ deposits` (Proposition 2 of the paper's
    /// proof, maintained by construction here).
    pub fn total_balance(&self) -> u64 {
        self.my_bal + self.remote_bal
    }

    /// All deposit outpoints in deterministic order (ours then remote's).
    pub fn all_deposits(&self) -> Vec<OutPoint> {
        let mut all: Vec<OutPoint> = self
            .my_deps
            .iter()
            .chain(self.remote_deps.iter())
            .copied()
            .collect();
        all.sort();
        all
    }

    /// The view of this channel from the remote's perspective (used by
    /// committee members replicating a peer's state in tests).
    pub fn flipped(&self) -> Channel {
        Channel {
            id: self.id,
            remote: self.remote, // Identity of the counterparty is contextual.
            my_settlement: self.remote_settlement,
            remote_settlement: self.my_settlement,
            is_open: self.is_open,
            my_bal: self.remote_bal,
            remote_bal: self.my_bal,
            my_deps: self.remote_deps.clone(),
            remote_deps: self.my_deps.clone(),
            stage: self.stage,
            route: self.route,
            pending_dissoc: Vec::new(),
            closed: self.closed,
            settling: false,
        }
    }
}

// Wire form: `route: Option<RouteId>` and `stage` included so replicas see
// multi-hop context; `pending_dissoc` included for exact failover.
teechain_util::impl_wire_struct!(Channel {
    id,
    remote,
    my_settlement,
    remote_settlement,
    is_open,
    my_bal,
    remote_bal,
    my_deps,
    remote_deps,
    stage,
    route,
    pending_dissoc,
    closed,
    settling,
});

/// Channel `id` is open on our side.
fn opened(id: ChannelId) -> Effect {
    Effect::done(MatchKey::ChannelOpen(id), OpOutput::ChannelOpen(id))
}

impl TeechainEnclave {
    pub(crate) fn cmd_new_channel(
        &mut self,
        id: ChannelId,
        remote: PublicKey,
        my_settlement: PublicKey,
    ) -> Outcome {
        let peer = self.session_peer(&remote)?;
        if self.state.channels.contains_key(&id) {
            return Err(ProtocolError::ChannelExists);
        }
        let msg = ProtocolMsg::NewChannel {
            id,
            settlement: my_settlement,
        };
        let eff = self.seal_at(peer.slot, &msg)?;
        // Remote settlement arrives in the ack.
        let chan = Channel::new(id, remote, my_settlement, my_settlement);
        self.commit(StateDelta::Channel(Box::new(chan)));
        Ok(vec![eff])
    }

    pub(crate) fn on_new_channel(
        &mut self,
        from: Peer,
        id: ChannelId,
        settlement: PublicKey,
    ) -> Outcome {
        if self.state.channels.contains_key(&id) {
            return Err(ProtocolError::ChannelExists);
        }
        // As responder we auto-accept with a fresh settlement address
        // derived from the channel id and our identity.
        let sk = self.responder_settlement(&id);
        let my_settlement = sk.public_key();
        let msg = ProtocolMsg::NewChannelAck {
            id,
            settlement: my_settlement,
        };
        let eff = self.seal_at(from.slot, &msg)?;
        let mut chan = Channel::new(id, from.pk, my_settlement, settlement);
        chan.is_open = true;
        self.commit(StateDelta::Key(my_settlement, sk.to_bytes()));
        self.commit(StateDelta::Channel(Box::new(chan)));
        Ok(vec![eff, opened(id)])
    }

    /// Deterministic responder settlement key: derived inside the TEE from
    /// our identity and the channel id.
    fn responder_settlement(&self, id: &ChannelId) -> PrivateKey {
        let me = self.identity.as_ref().expect("session exists").sk;
        let seed = teechain_crypto::sha256::tagged_hash(
            "teechain/responder-settlement",
            &[&me.to_bytes(), &id.0],
        );
        PrivateKey::from_seed(&seed)
    }

    pub(crate) fn on_new_channel_ack(
        &mut self,
        from: PublicKey,
        id: ChannelId,
        settlement: PublicKey,
    ) -> Outcome {
        let chan = self.chan(&id)?;
        if chan.remote != from || chan.is_open {
            return Err(ProtocolError::BadMessage);
        }
        self.commit_channel(&id, |c| {
            c.remote_settlement = settlement;
            c.is_open = true;
        })?;
        Ok(vec![opened(id)])
    }

    /// Lock-aware channel selection (admission's second tool besides
    /// queueing): when `id` is locked, another open, unlocked channel to
    /// the *same counterparty* with enough balance can carry the payment
    /// instead — that is exactly what the paper's parallel temporary
    /// channels (§7.4, Fig. 7) exist for. Deterministic pick: highest
    /// spendable balance, largest id as tie-break, so every engine
    /// configuration chooses the same sibling regardless of map order.
    pub(crate) fn sibling_unlocked(&self, id: &ChannelId, amount: u64) -> Option<ChannelId> {
        let want = self.state.channels.get(id)?.remote;
        self.state
            .channels
            .values()
            .filter(|c| {
                c.id != *id && c.remote == want && c.usable() && !c.locked() && c.my_bal >= amount
            })
            .max_by_key(|c| (c.my_bal, c.id))
            .map(|c| c.id)
    }

    pub(crate) fn cmd_pay(
        &mut self,
        env: &mut EnclaveEnv,
        id: ChannelId,
        amount: u64,
        count: u32,
    ) -> Outcome {
        // One look-up serves the checks, the seal and the debit; only a
        // locked channel goes back to the map, for its sibling.
        let mut wire = id;
        let (mut slot, chan) = self
            .state
            .channels
            .find(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        if !chan.usable() {
            return Err(ProtocolError::ChannelNotOpen);
        }
        // Lock-aware selection: a locked channel does not park the payment
        // when a parallel channel to the same peer can carry it right now.
        // The op stays correlated to the channel it was *submitted* on —
        // the inflight group records that id, so the ack fans back out
        // under the caller's key.
        if chan.locked() {
            match self.sibling_unlocked(&id, amount) {
                Some(sib) => {
                    self.admit.stats.rerouted += 1;
                    wire = sib;
                    slot = self
                        .state
                        .channels
                        .slot(&sib)
                        .ok_or(ProtocolError::UnknownChannel)?;
                }
                None => {
                    // Admission (vs the old `Err(ChannelLocked)` retry
                    // storm): park the op on the channel's FIFO; the
                    // unlock drain batches it with its queue neighbours
                    // into one commit. Only a full queue still pushes
                    // back on the caller.
                    let q = self.admit.queues.entry(id).or_default();
                    if q.len() >= ADMIT_QUEUE_CAP {
                        return Err(ProtocolError::ChannelLocked);
                    }
                    let deadline_ns = env.now_ns() + ADMIT_DEADLINE_NS;
                    q.push_back(QueueEntry {
                        op: QueuedOp::Pay { amount, count },
                        deadline_ns,
                        ready_ns: 0,
                    });
                    let depth = q.len();
                    self.admit.stats.enqueued += 1;
                    self.admit.stats.note_queue_depth(depth);
                    return Ok(vec![Effect::Event(HostEvent::PumpAt(deadline_ns))]);
                }
            }
        }
        let chan = self
            .state
            .channels
            .at(slot)
            .expect("a slot the table handed out");
        if chan.my_bal < amount {
            return Err(ProtocolError::InsufficientBalance);
        }
        let msg = ProtocolMsg::Pay {
            id: wire,
            amount,
            count,
        };
        let eff = self.seal_at(self.chan_peers[slot as usize], &msg)?;
        self.commit_at(
            slot,
            StateDelta::Pay {
                id: wire,
                my_delta: -(amount as i64),
                remote_delta: amount as i64,
            },
        );
        // Every outbound wire `Pay` registers an ack fan-out group so
        // `PayAck`/`PayNack` resolve ops strictly in send order, keyed by
        // the channel each op was submitted on.
        self.admit
            .inflight
            .entry(wire)
            .or_default()
            .push_back(AckEntry {
                id,
                amount,
                count,
                more: false,
            });
        Ok(vec![eff])
    }

    pub(crate) fn on_pay(
        &mut self,
        env: &mut EnclaveEnv,
        from: Peer,
        id: ChannelId,
        amount: u64,
        count: u32,
    ) -> Outcome {
        let (slot, chan) = self
            .state
            .channels
            .find(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        if chan.remote != from.pk || !chan.usable() {
            return Err(ProtocolError::BadMessage);
        }
        if chan.locked() {
            // The channel was locked for a multi-hop payment after the
            // peer sent this pay (racing in the other direction). Defer
            // the decrypted message; the unlock drain re-delivers it. A
            // full deferral queue falls back to the old nack-and-rollback.
            let dq = self.admit.deferred.entry(id).or_default();
            if dq.len() >= ADMIT_QUEUE_CAP {
                let msg = ProtocolMsg::PayNack {
                    id,
                    amount,
                    count,
                    reason: ProtocolError::ChannelLocked.abort_code(),
                };
                return Ok(vec![self.seal_at(from.slot, &msg)?]);
            }
            let deadline_ns = env.now_ns() + DEFER_DEADLINE_NS;
            dq.push_back(DeferredMsg {
                from: from.pk,
                msg: ProtocolMsg::Pay { id, amount, count },
                deadline_ns,
            });
            let depth = dq.len();
            self.admit.stats.deferred += 1;
            self.admit.stats.note_defer_depth(depth);
            return Ok(vec![Effect::Event(HostEvent::PumpAt(deadline_ns))]);
        }
        if chan.remote_bal < amount {
            return Err(ProtocolError::BadMessage); // Peer violated protocol.
        }
        let ack = ProtocolMsg::PayAck { id, amount, count };
        let eff = self.seal_at(from.slot, &ack)?;
        self.commit_at(
            slot,
            StateDelta::Pay {
                id,
                my_delta: amount as i64,
                remote_delta: -(amount as i64),
            },
        );
        Ok(vec![eff])
    }

    pub(crate) fn on_pay_ack(
        &mut self,
        from: Peer,
        id: ChannelId,
        amount: u64,
        count: u32,
    ) -> Outcome {
        if self.chan(&id)?.remote != from.pk {
            return Err(ProtocolError::BadMessage);
        }
        // One wire ack covers a whole drain batch: fan it back out to one
        // outcome per merged op, in queue order (the op layer matches
        // per-channel FIFO). A missing group (pre-crash send) degrades to
        // the single aggregate outcome.
        let paid = |chan, amount, count| {
            let payment = Payment {
                chan,
                amount,
                count,
            };
            Effect::done(MatchKey::Payment(chan), OpOutput::PaymentApplied(payment))
        };
        let mut acked = self
            .admit
            .take_acked(&id, |op| paid(op.id, op.amount, op.count));
        if acked.is_empty() {
            acked.push(paid(id, amount, count));
        }
        Ok(acked)
    }

    pub(crate) fn on_pay_nack(
        &mut self,
        from: Peer,
        id: ChannelId,
        amount: u64,
        reason: u8,
    ) -> Outcome {
        let (slot, chan) = self
            .state
            .channels
            .find(&id)
            .ok_or(ProtocolError::UnknownChannel)?;
        if chan.remote != from.pk {
            return Err(ProtocolError::BadMessage);
        }
        // Roll back the optimistic debit (covers the whole wire batch).
        self.commit_at(
            slot,
            StateDelta::Pay {
                id,
                my_delta: amount as i64,
                remote_delta: -(amount as i64),
            },
        );
        let reason = ProtocolError::from_abort_code(reason);
        // The remote's typed refusal, carried on the wire.
        let refused =
            |chan| Effect::failed(MatchKey::Payment(chan), OpError::Remote(reason.clone()));
        let mut nacked = self.admit.take_acked(&id, |op| refused(op.id));
        if nacked.is_empty() {
            nacked.push(refused(id));
        }
        Ok(nacked)
    }

    pub(crate) fn cmd_settle(&mut self, id: ChannelId) -> Outcome {
        let chan = self.chan(&id)?;
        if chan.closed {
            return Err(ProtocolError::ChannelNotOpen);
        }
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        // Anti-griefing: a settlement freezing the channel mid-swap could
        // strand the counterparty's HTLC (it locked on-chain funds against
        // a channel credit that would never land). The swap resolves
        // first — redeem or refund — then the channel may settle.
        if self.swap_pending_on(&id) {
            return Err(ProtocolError::SwapPending);
        }
        let chan = self.state.channels.get(&id).expect("checked");
        let remote = chan.remote;
        // Off-chain termination (Alg. 1 line 106): if balances are neutral
        // (every deposit's value equals its owner's share), dissociating
        // all deposits closes the channel with zero blockchain writes.
        let my_total: u64 = chan
            .my_deps
            .iter()
            .filter_map(|d| self.state.book.value_of(d))
            .sum();
        let remote_total: u64 = chan
            .remote_deps
            .iter()
            .filter_map(|d| self.state.book.value_of(d))
            .sum();
        if chan.my_bal == my_total && chan.remote_bal == remote_total {
            if chan.my_deps.is_empty() && chan.remote_deps.is_empty() {
                // Nothing funds the channel: the off-chain termination is
                // already complete on our side. Still ask the remote (so
                // its host gets its own SettledOffChain notification, as
                // in the deposit-carrying path), and report our terminal
                // state immediately — the initiator's settle operation
                // resolves on this notification.
                let msg = ProtocolMsg::SettleRequest { id };
                let eff = self.seal_to(&remote, &msg)?;
                return Ok(vec![eff, Effect::settled(id, SettleKind::OffChain)]);
            }
            let my_deps = chan.my_deps.clone();
            let mut effects = Vec::new();
            for &outpoint in &my_deps {
                let msg = ProtocolMsg::DissociateDeposit { id, outpoint };
                effects.push(self.seal_to(&remote, &msg)?);
            }
            // Ask the remote to dissociate its deposits too, and remember
            // that we are driving this settlement: the terminal
            // `SettledOffChain` fires once both deposit lists drain.
            let msg = ProtocolMsg::SettleRequest { id };
            effects.push(self.seal_to(&remote, &msg)?);
            self.commit_channel(&id, |c| {
                c.pending_dissoc.extend(my_deps);
                c.settling = true;
            })?;
            return Ok(effects);
        }
        // On-chain settlement.
        let tx = settle::current_settlement_tx(chan);
        self.commit(StateDelta::CloseChannel(id));
        let mut effects = Vec::new();
        // Defensive: settle rejects locked channels, so the admission
        // queues are empty in practice — but flush so nothing can linger
        // behind a closed channel.
        self.flush_admission(id, ProtocolError::ChannelClosed, &mut effects);
        // Best-effort courtesy notification: unilateral settlement must
        // work with no session (e.g. after a crash-restore, §6.2).
        let notify = ProtocolMsg::ChannelClosed { id };
        if let Ok(eff) = self.seal_to(&remote, &notify) {
            effects.push(eff);
        }
        self.finish_settlement(id, tx, false, &mut effects);
        Ok(effects)
    }

    pub(crate) fn on_settle_request(&mut self, from: PublicKey, id: ChannelId) -> Outcome {
        // Mirror of the guard in `cmd_settle`: refuse to cooperate with a
        // peer settling out from under a pending swap.
        if self.swap_pending_on(&id) {
            return Err(ProtocolError::SwapPending);
        }
        let chan = self.chan(&id)?;
        if chan.remote != from {
            return Err(ProtocolError::BadMessage);
        }
        let my_deps = chan.my_deps.clone();
        let mut effects = Vec::new();
        for outpoint in my_deps {
            // Reuse the dissociation path; each will complete via acks.
            let sub = self.cmd_dissociate_unchecked(id, outpoint)?;
            effects.extend(sub);
        }
        // If we had no deposits, the channel is fully neutral on our side.
        effects.push(Effect::settled(id, SettleKind::OffChain));
        Ok(effects)
    }

    pub(crate) fn on_channel_closed(&mut self, from: PublicKey, id: ChannelId) -> Outcome {
        if self.chan(&id)?.remote != from {
            return Err(ProtocolError::BadMessage);
        }
        // Our deposits in this channel are now spent by the settlement.
        self.commit(StateDelta::CloseChannel(id));
        // Anything still queued behind the (remotely settled) channel is
        // terminal now.
        let mut effects = Vec::new();
        self.flush_admission(id, ProtocolError::ChannelClosed, &mut effects);
        Ok(effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_blockchain::TxId;
    use teechain_crypto::schnorr::Keypair;
    use teechain_util::codec::{Decode, Encode};

    fn chan() -> Channel {
        let r = Keypair::from_seed(&[1; 32]).pk;
        let a = Keypair::from_seed(&[2; 32]).pk;
        let b = Keypair::from_seed(&[3; 32]).pk;
        Channel::new(ChannelId::from_label("t"), r, a, b)
    }

    fn op(n: u8) -> OutPoint {
        OutPoint {
            txid: TxId([n; 32]),
            vout: 0,
        }
    }

    #[test]
    fn fresh_channel_not_usable() {
        let c = chan();
        assert!(!c.usable());
        assert!(!c.locked());
        assert_eq!(c.total_balance(), 0);
    }

    #[test]
    fn deposits_sorted_deterministically() {
        let mut c = chan();
        c.my_deps = vec![op(9), op(1)];
        c.remote_deps = vec![op(5)];
        let all = c.all_deposits();
        assert_eq!(all, vec![op(1), op(5), op(9)]);
    }

    #[test]
    fn flipped_swaps_perspective() {
        let mut c = chan();
        c.my_bal = 10;
        c.remote_bal = 20;
        c.my_deps = vec![op(1)];
        let f = c.flipped();
        assert_eq!(f.my_bal, 20);
        assert_eq!(f.remote_bal, 10);
        assert_eq!(f.remote_deps, vec![op(1)]);
    }

    #[test]
    fn codec_roundtrip() {
        let mut c = chan();
        c.my_bal = 7;
        c.stage = MultihopStage::Lock;
        c.route = Some(RouteId([4; 32]));
        c.my_deps = vec![op(2)];
        let d = Channel::decode_exact(&c.encode_to_vec()).unwrap();
        assert_eq!(d.my_bal, 7);
        assert_eq!(d.stage, MultihopStage::Lock);
        assert_eq!(d.route, Some(RouteId([4; 32])));
        assert_eq!(d.my_deps, vec![op(2)]);
    }
}
