//! Multi-hop payments (Alg. 2): lock → sign → preUpdate → update →
//! postUpdate → release, with proofs of premature termination (PoPT).
//!
//! The intermediate settlement transaction τ spends *every* deposit of
//! *every* channel on the path and pays every participant its post-payment
//! balance. Because τ and the per-channel pre-/post-payment settlements all
//! spend the same deposits, the blockchain accepts exactly one of them —
//! so whatever any participant manages to confirm, all others can present
//! it (as a PoPT) and settle their own channels *consistently* at the same
//! logical state.
//!
//! Deviation (also listed in `docs/ARCHITECTURE.md`, *Substitutions and
//! deviations*): the mapping from a confirmed conflicting
//! transaction to "pre" or "post" state is implemented by distributing the
//! txids of every channel's two candidate settlements along the path
//! during lock/sign (the `digests`), rather than by inspecting transaction
//! structure. This is equivalent (settlements are canonical and
//! deterministic) and keeps verification exact.

use crate::enclave::{Effect, HostEvent, Outcome, TeechainEnclave};
use crate::msg::{MhLock, ProtocolMsg, SettleDigest, StateDelta};
use crate::ops::SettleKind;
use crate::replication::CoSigned;
use crate::settle;
use crate::types::{ChannelId, MultihopStage, ProtocolError, RouteId};
use std::collections::BTreeMap;
use teechain_blockchain::{Transaction, TxIn};
use teechain_crypto::schnorr::{PublicKey, Signature};
use teechain_tee::EnclaveEnv;

/// Per-route state at one TEE. Durable: installed by
/// [`StateDelta::Route`] at lock, τ and the digests added by
/// [`StateDelta::RouteSigned`], so eject and a PoPT work after a crash.
#[derive(Debug, Clone)]
pub struct RouteState {
    /// Route instance id.
    pub id: RouteId,
    /// Payment amount.
    pub amount: u64,
    /// Path identities p1..pn.
    pub hops: Vec<PublicKey>,
    /// Path channels.
    pub channels: Vec<ChannelId>,
    /// Our index in `hops`.
    pub pos: u32,
    /// τ (partially signed during sign, full after preUpdate).
    pub tau: Option<Transaction>,
    /// txid → state map for PoPT classification.
    pub digests: Vec<SettleDigest>,
    /// Pre-payment balances of our route channels (for pre-state
    /// settlement reconstruction after balances were updated).
    pub pre_balances: BTreeMap<ChannelId, (u64, u64)>,
    /// Admission deadline of the *origination* (absolute ns). Carried
    /// across in-enclave contention requeues so a payment cannot orbit
    /// the admission queue forever: once past this instant the next
    /// abort surfaces to the host instead of re-parking. Zero on
    /// non-origin hops (they never requeue).
    pub deadline_ns: u64,
}

teechain_util::impl_wire_struct!(RouteState {
    id,
    amount,
    hops,
    channels,
    pos,
    tau,
    digests,
    pre_balances,
    deadline_ns,
});

impl RouteState {
    /// The channel toward the previous hop, if any.
    pub fn in_chan(&self) -> Option<ChannelId> {
        (self.pos > 0).then(|| self.channels[self.pos as usize - 1])
    }

    /// The channel toward the next hop, if any.
    pub fn out_chan(&self) -> Option<ChannelId> {
        (self.pos as usize + 1 < self.hops.len()).then(|| self.channels[self.pos as usize])
    }

    /// Our route channels (one or two).
    pub fn my_channels(&self) -> Vec<ChannelId> {
        self.in_chan().into_iter().chain(self.out_chan()).collect()
    }

    fn prev_hop(&self) -> Option<PublicKey> {
        self.in_chan().map(|_| self.hops[self.pos as usize - 1])
    }

    fn next_hop(&self) -> Option<PublicKey> {
        self.out_chan().map(|_| self.hops[self.pos as usize + 1])
    }
}

impl TeechainEnclave {
    fn set_route_stage(&mut self, route: &RouteId, stage: MultihopStage) {
        self.commit(StateDelta::RouteStage {
            route: *route,
            stage,
        });
    }

    /// Validates and snapshots a channel for route participation.
    fn prepare_route_channel(
        &mut self,
        route: &mut RouteState,
        id: ChannelId,
        must_cover: Option<u64>,
    ) -> Result<(), ProtocolError> {
        let chan = self.chan(&id)?;
        if !chan.usable() {
            return Err(ProtocolError::ChannelNotOpen);
        }
        if chan.locked() {
            return Err(ProtocolError::ChannelLocked);
        }
        if let Some(amount) = must_cover {
            if chan.my_bal < amount {
                return Err(ProtocolError::InsufficientBalance);
            }
        }
        route
            .pre_balances
            .insert(id, (chan.my_bal, chan.remote_bal));
        Ok(())
    }

    /// Appends our *outgoing* channel's deposits and post-payment outputs
    /// to τ, and its two settlement digests to the map.
    fn extend_tau(
        &self,
        route: &RouteState,
        tau: &mut Transaction,
        digests: &mut Vec<SettleDigest>,
        deposits: &mut Vec<crate::types::Deposit>,
    ) {
        let id = route.out_chan().expect("only non-terminal hops extend τ");
        let chan = self.state.channels.get(&id).expect("checked");
        for prevout in chan.all_deposits() {
            tau.inputs.push(TxIn::spend(prevout));
            if let Some(dep) = self.state.book.deposit_of(&prevout) {
                deposits.push(dep.clone());
            }
        }
        let post = settle::settlement_tx(
            chan,
            chan.my_bal - route.amount,
            chan.remote_bal + route.amount,
        );
        for out in &post.outputs {
            tau.outputs.push(out.clone());
        }
        let pre = settle::current_settlement_tx(chan);
        digests.push(SettleDigest {
            txid: pre.txid(),
            post: false,
        });
        digests.push(SettleDigest {
            txid: post.txid(),
            post: true,
        });
    }

    /// Signs every τ input whose deposit keys we hold.
    fn sign_tau(&self, tau: &mut Transaction) {
        let mut tx = std::mem::replace(
            tau,
            Transaction {
                inputs: vec![],
                outputs: vec![],
            },
        );
        settle::sign_with_book(&mut tx, &self.state.book);
        *tau = tx;
    }

    // ---- Alg. 2 handlers ----

    pub(crate) fn cmd_pay_multihop(
        &mut self,
        env: &mut EnclaveEnv,
        route_id: RouteId,
        hops: Vec<PublicKey>,
        channels: Vec<ChannelId>,
        amount: u64,
    ) -> Outcome {
        if hops.len() < 2 || channels.len() != hops.len() - 1 {
            return Err(ProtocolError::BadStage);
        }
        let me = self.identity(env).pk;
        // A member of a shared route, queued or in flight, holds its id
        // as a live route does.
        let member = |m: &crate::admit::Member| m.route == route_id;
        if hops[0] != me
            || self.state.routes.contains_key(&route_id)
            || self.admit.shared.values().flatten().any(member)
        {
            return Err(ProtocolError::BadStage);
        }
        // Admission: if our outgoing channel is busy with another route
        // (locked, or unlocked but reserved for an older deferred lock),
        // first try a free parallel channel to the same first hop
        // (lock-aware selection over temporary channels); only when every
        // sibling is busy too, queue the origination — the unlock drain
        // re-runs it.
        let deadline_ns = env.now_ns() + crate::admit::ADMIT_DEADLINE_NS;
        let mut channels = channels;
        let out_busy = self
            .state
            .channels
            .get(&channels[0])
            .is_some_and(|c| c.usable() && c.locked())
            || self.reserved_for_older(channels[0], route_id);
        if out_busy {
            if let Some(sib) = self
                .sibling_unlocked(&channels[0], amount)
                .filter(|s| !self.reserved_for_older(*s, route_id))
            {
                self.admit.stats.rerouted += 1;
                channels[0] = sib;
                return self.pay_multihop_inner(route_id, hops, channels, amount, deadline_ns);
            }
            let q = self.admit.queues.entry(channels[0]).or_default();
            if q.len() >= crate::admit::ADMIT_QUEUE_CAP {
                return Err(ProtocolError::ChannelLocked);
            }
            q.push_back(crate::admit::QueueEntry {
                op: crate::admit::QueuedOp::Multihop {
                    route: route_id,
                    hops,
                    channels,
                    amount,
                    alone: false,
                },
                deadline_ns,
                ready_ns: 0,
            });
            let depth = q.len();
            self.admit.stats.enqueued += 1;
            self.admit.stats.note_queue_depth(depth);
            return Ok(vec![Effect::Event(HostEvent::PumpAt(deadline_ns))]);
        }
        self.pay_multihop_inner(route_id, hops, channels, amount, deadline_ns)
    }

    /// True when a [`MhLock`] deferred at this node belongs to a route
    /// older than `than` and needs channel `id` to advance. A deferred
    /// lock waits keyed on ONE locked channel, but an intermediate hop
    /// needs BOTH of its hop channels free at the same instant. If
    /// younger lock acquisitions may grab whichever channel is currently
    /// free, the waiter's two channels free up alternately — never
    /// together — and the oldest route starves while younger locals
    /// rotate the locks (a livelock observed on hub nodes). Treating an
    /// unlocked-but-needed channel as *reserved* for the older waiter
    /// extends wait-die's age order to channels the waiter does not hold
    /// yet, restoring its progress guarantee.
    pub(crate) fn reserved_for_older(&self, id: ChannelId, than: RouteId) -> bool {
        let Some(me) = self.identity.as_ref().map(|k| k.pk) else {
            return false;
        };
        self.admit.deferred.values().flatten().any(|d| {
            let ProtocolMsg::MhLock(m) = &d.msg else {
                return false;
            };
            if m.route >= than {
                return false;
            }
            let Some(pos) = m.hops.iter().position(|h| *h == me) else {
                return false;
            };
            (pos > 0 && m.channels[pos - 1] == id)
                || (pos + 1 < m.hops.len() && m.channels[pos] == id)
        })
    }

    /// Origination body, shared by the direct path and the admission
    /// queue's drain (which re-runs a parked origination once the
    /// outgoing channel unlocks). Preconditions (unfrozen, counter
    /// ready, shape checks, fresh route id) hold at both call sites.
    pub(crate) fn pay_multihop_inner(
        &mut self,
        route_id: RouteId,
        hops: Vec<PublicKey>,
        channels: Vec<ChannelId>,
        amount: u64,
        deadline_ns: u64,
    ) -> Outcome {
        if self.state.routes.contains_key(&route_id) {
            return Err(ProtocolError::BadStage);
        }
        let mut route = RouteState {
            id: route_id,
            amount,
            hops: hops.clone(),
            channels: channels.clone(),
            pos: 0,
            tau: None,
            digests: Vec::new(),
            pre_balances: BTreeMap::new(),
            deadline_ns,
        };
        self.prepare_route_channel(&mut route, channels[0], Some(amount))?;
        let mut tau = Transaction {
            inputs: vec![],
            outputs: vec![],
        };
        let mut digests = Vec::new();
        let mut deposits = Vec::new();
        self.extend_tau(&route, &mut tau, &mut digests, &mut deposits);
        let next = hops[1];
        let lock = MhLock {
            route: route_id,
            amount,
            hops: hops.clone(),
            channels,
            tau,
            digests,
            deposits,
        };
        let eff = self.seal_to(&next, &ProtocolMsg::MhLock(lock))?;
        self.commit(StateDelta::Route(Box::new(route)));
        self.set_route_stage(&route_id, MultihopStage::Lock);
        Ok(vec![eff])
    }

    pub(crate) fn on_mh_lock(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        m: MhLock,
    ) -> Outcome {
        let me = self.identity.as_ref().ok_or(ProtocolError::NoSession)?.pk;
        let pos = m
            .hops
            .iter()
            .position(|h| *h == me)
            .ok_or(ProtocolError::BadStage)?;
        if pos == 0 || m.hops[pos - 1] != from || self.state.routes.contains_key(&m.route) {
            return Err(ProtocolError::BadStage);
        }
        let n = m.hops.len();
        // Lock-aware selection on our *outgoing* hop: the originator named
        // a channel per edge, but which of an edge's parallel temporary
        // channels carries the route is this hop's choice — τ has not been
        // extended with it yet. Swapping in an unlocked sibling here (and
        // in the forwarded lock message) keeps the route moving instead of
        // deferring behind another route's 6-pass lock hold. The incoming
        // channel cannot be swapped: the previous hop already extended τ
        // over it.
        let mut m = m;
        if pos + 1 < n
            && self
                .state
                .channels
                .get(&m.channels[pos])
                .is_some_and(|c| c.usable() && c.locked())
        {
            if let Some(sib) = self
                .sibling_unlocked(&m.channels[pos], m.amount)
                .filter(|s| !self.reserved_for_older(*s, m.route))
            {
                self.admit.stats.rerouted += 1;
                m.channels[pos] = sib;
            }
        }
        let mut route = RouteState {
            id: m.route,
            amount: m.amount,
            hops: m.hops.clone(),
            channels: m.channels.clone(),
            pos: pos as u32,
            tau: None,
            digests: Vec::new(),
            pre_balances: BTreeMap::new(),
            deadline_ns: 0,
        };
        // Validate our channels; on failure, abort backward so upstream
        // hops unlock (payments then retry, §7.4). An unlocked channel
        // reserved for an older deferred lock counts as busy: taking it
        // would starve that waiter (see `reserved_for_older`), and with
        // nothing actually locked there is no holder to defer behind, so
        // the younger route aborts — plain wait-die.
        let check = (|| -> Result<(), ProtocolError> {
            for cid in route.my_channels() {
                if self.reserved_for_older(cid, m.route) {
                    return Err(ProtocolError::ChannelLocked);
                }
            }
            self.prepare_route_channel(&mut route, m.channels[pos - 1], None)?;
            if pos + 1 < n {
                self.prepare_route_channel(&mut route, m.channels[pos], Some(m.amount))?;
            }
            Ok(())
        })();
        if let Err(reason) = check {
            // Admission: a route channel merely busy with another in-flight
            // multihop is a *wait*, not a refusal — defer the whole lock
            // message behind that channel; the unlock drain re-delivers
            // it. Deadlines bound the hold-and-wait chains this forms
            // (the previous hop keeps its channel locked while we wait).
            if reason == ProtocolError::ChannelLocked {
                let locked_id = route.my_channels().into_iter().find(|cid| {
                    self.state
                        .channels
                        .get(cid)
                        .is_some_and(|c| c.usable() && c.locked())
                });
                // Wait-die: deferring here is hold-and-wait (our upstream
                // hops keep their channels locked while we wait), so a
                // route may only wait behind routes that order *above* it
                // — the current holder and every multihop already parked
                // in the queue. Wait-for edges then always point from the
                // smaller route id to a larger one, the graph is acyclic,
                // and admission can never deadlock. Routes that lose the
                // comparison abort immediately; the originator retries
                // with a fresh id (a fresh priority draw).
                let may_wait = locked_id.is_some_and(|lid| {
                    let holder_ok = self
                        .state
                        .channels
                        .get(&lid)
                        .and_then(|c| c.route)
                        .is_some_and(|holder| m.route < holder);
                    let queue_ok = self.admit.deferred.get(&lid).is_none_or(|q| {
                        q.iter().all(|d| match &d.msg {
                            ProtocolMsg::MhLock(x) => m.route < x.route,
                            _ => true, // Deferred Pays hold no locks.
                        })
                    });
                    holder_ok && queue_ok
                });
                if let (Some(lid), true) = (locked_id, may_wait) {
                    let dq = self.admit.deferred.entry(lid).or_default();
                    if dq.len() < crate::admit::ADMIT_QUEUE_CAP {
                        let deadline_ns = env.now_ns() + crate::admit::DEFER_DEADLINE_NS;
                        dq.push_back(crate::admit::DeferredMsg {
                            from,
                            msg: ProtocolMsg::MhLock(m),
                            deadline_ns,
                        });
                        let depth = dq.len();
                        self.admit.stats.deferred += 1;
                        self.admit.stats.note_defer_depth(depth);
                        return Ok(vec![Effect::Event(HostEvent::PumpAt(deadline_ns))]);
                    }
                }
            }
            // Unwind with the real refusal reason so the originator's
            // operation completes with a typed error.
            let abort = ProtocolMsg::MhAbort {
                route: m.route,
                reason: reason.abort_code(),
            };
            return Ok(vec![self.seal_to(&from, &abort)?]);
        }
        if pos + 1 < n {
            // Intermediate hop: extend τ with our outgoing channel, lock,
            // forward.
            let mut tau = m.tau;
            let mut digests = m.digests;
            let mut deposits = m.deposits;
            self.extend_tau(&route, &mut tau, &mut digests, &mut deposits);
            let next = m.hops[pos + 1];
            let lock = MhLock {
                route: m.route,
                amount: m.amount,
                hops: m.hops,
                channels: m.channels,
                tau,
                digests,
                deposits,
            };
            let eff = self.seal_to(&next, &ProtocolMsg::MhLock(lock))?;
            self.commit(StateDelta::Route(Box::new(route)));
            self.set_route_stage(&m.route, MultihopStage::Lock);
            Ok(vec![eff])
        } else {
            // Terminal hop pn: τ is complete; canonicalize, sign, send the
            // sign pass backward (Alg. 2 line 13).
            let mut tau = settle::canonicalize(m.tau);
            self.sign_tau(&mut tau);
            route.tau = Some(tau.clone());
            route.digests = m.digests.clone();
            self.commit(StateDelta::Route(Box::new(route)));
            self.set_route_stage(&m.route, MultihopStage::Sign);
            if settle::needs_co_signs(&self.state.book, &tau) {
                let then = CoSigned::SignPass {
                    route: m.route,
                    digests: m.digests,
                    deposits: m.deposits,
                };
                self.ask_committee(tau, then);
                return Ok(vec![]);
            }
            let msg = ProtocolMsg::MhSign {
                route: m.route,
                tau,
                digests: m.digests,
                deposits: m.deposits,
            };
            Ok(vec![self.seal_to(&from, &msg)?])
        }
    }

    pub(crate) fn on_mh_sign(
        &mut self,
        from: PublicKey,
        route_id: RouteId,
        tau: Transaction,
        digests: Vec<SettleDigest>,
        deposits: Vec<crate::types::Deposit>,
    ) -> Outcome {
        let route = self.route(&route_id)?;
        if route.next_hop() != Some(from) {
            return Err(ProtocolError::BadMessage);
        }
        let stage = self.route_stage(&route_id);
        if stage != MultihopStage::Lock {
            return Err(ProtocolError::BadStage);
        }
        let mut tau = tau;
        self.sign_tau(&mut tau);
        self.pass_signed_tau(route_id, tau, digests, deposits)
    }

    /// Commits τ, signed by this hop (and, once co-signed, its
    /// committee), and passes it on in the sign pass: backward to the
    /// previous hop, or from p1, once every input carries its threshold,
    /// forward as the PreUpdate's witnesses. While τ spends one of our
    /// deposits short of its threshold, the pass waits for the committee
    /// instead ([`Self::ask_committee`]): no other hop holds a committee
    /// member's key. `on_mh_lock` makes the same choice for pn, whose
    /// route is new.
    pub(crate) fn pass_signed_tau(
        &mut self,
        route_id: RouteId,
        tau: Transaction,
        digests: Vec<SettleDigest>,
        deposits: Vec<crate::types::Deposit>,
    ) -> Outcome {
        let route = self.route(&route_id)?;
        let co_sign = settle::needs_co_signs(&self.state.book, &tau);
        // p1: τ must now be fully signed — verify before distributing.
        // Deposits of other hops' channels are known via the metadata
        // accumulated during lock.
        let deposit_of = |op: &teechain_blockchain::OutPoint| {
            self.state
                .book
                .deposit_of(op)
                .or_else(|| deposits.iter().find(|d| d.outpoint == *op))
        };
        if route.pos == 0 && !co_sign && !settle::threshold_met(&tau, deposit_of) {
            return Err(ProtocolError::BadStage);
        }
        let (prev, next) = (route.prev_hop(), route.hops[1]);
        self.commit(StateDelta::RouteSigned(
            route_id,
            tau.clone(),
            digests.clone(),
        ));
        self.set_route_stage(&route_id, MultihopStage::Sign);
        if co_sign {
            let then = CoSigned::SignPass {
                route: route_id,
                digests,
                deposits,
            };
            self.ask_committee(tau, then);
            return Ok(vec![]);
        }
        if let Some(prev) = prev {
            let msg = ProtocolMsg::MhSign {
                route: route_id,
                tau,
                digests,
                deposits,
            };
            Ok(vec![self.seal_to(&prev, &msg)?])
        } else {
            self.set_route_stage(&route_id, MultihopStage::PreUpdate);
            let msg = ProtocolMsg::MhPreUpdate {
                route: route_id,
                witnesses: tau.inputs.into_iter().map(|i| i.witness).collect(),
            };
            Ok(vec![self.seal_to(&next, &msg)?])
        }
    }

    fn route(&self, id: &RouteId) -> Result<&RouteState, ProtocolError> {
        self.state.routes.get(id).ok_or(ProtocolError::BadStage)
    }

    fn route_stage(&self, route: &RouteId) -> MultihopStage {
        self.state
            .routes
            .get(route)
            .and_then(|r| r.in_chan().or(r.out_chan()))
            .and_then(|id| self.state.channels.get(&id))
            .map(|c| c.stage)
            .unwrap_or(MultihopStage::Idle)
    }

    /// Attaches the fully signed τ's `witnesses` to the τ this hop
    /// stored in the sign pass, and forwards them. A list that does not
    /// match τ's inputs one for one is refused, and nothing changes: the
    /// eject τ keeps the inputs and outputs this hop signed.
    pub(crate) fn on_mh_pre_update(
        &mut self,
        from: PublicKey,
        route_id: RouteId,
        witnesses: Vec<Vec<Signature>>,
    ) -> Outcome {
        let route = self.route(&route_id)?;
        if route.prev_hop() != Some(from) {
            return Err(ProtocolError::BadMessage);
        }
        let (next, prev) = (route.next_hop(), route.prev_hop());
        if self.route_stage(&route_id) != MultihopStage::Sign {
            return Err(ProtocolError::BadStage);
        }
        let mut tau = route.tau.clone().ok_or(ProtocolError::BadStage)?;
        if witnesses.len() != tau.inputs.len() {
            return Err(ProtocolError::BadMessage);
        }
        let mut effects = Vec::new();
        if let Some(next) = next {
            let msg = ProtocolMsg::MhPreUpdate {
                route: route_id,
                witnesses: witnesses.clone(),
            };
            effects.push(self.seal_to(&next, &msg)?);
        }
        for (input, witness) in tau.inputs.iter_mut().zip(witnesses) {
            input.witness = witness;
        }
        self.set_route_stage(&route_id, MultihopStage::PreUpdate);
        self.commit(StateDelta::Tau {
            route: route_id,
            tau: Some(tau),
        });
        if next.is_none() {
            // pn: apply our credit and start the update pass backward.
            self.apply_route_balances(&route_id);
            self.set_route_stage(&route_id, MultihopStage::Update);
            let prev = prev.expect("pn has a predecessor");
            let msg = ProtocolMsg::MhUpdate { route: route_id };
            effects.push(self.seal_to(&prev, &msg)?);
        }
        Ok(effects)
    }

    /// Applies post-payment balances to our route channels.
    fn apply_route_balances(&mut self, route_id: &RouteId) {
        let Some(route) = self.state.routes.get(route_id) else {
            return;
        };
        let amount = route.amount as i64;
        let (in_chan, out_chan) = (route.in_chan(), route.out_chan());
        if let Some(id) = in_chan {
            self.commit(StateDelta::Pay {
                id,
                my_delta: amount,
                remote_delta: -amount,
            });
        }
        if let Some(id) = out_chan {
            self.commit(StateDelta::Pay {
                id,
                my_delta: -amount,
                remote_delta: amount,
            });
        }
    }

    pub(crate) fn on_mh_update(&mut self, from: PublicKey, route_id: RouteId) -> Outcome {
        let route = self.route(&route_id)?;
        if route.next_hop() != Some(from) {
            return Err(ProtocolError::BadMessage);
        }
        let (prev, next) = (route.prev_hop(), route.hops[1]);
        if self.route_stage(&route_id) != MultihopStage::PreUpdate {
            return Err(ProtocolError::BadStage);
        }
        self.apply_route_balances(&route_id);
        if let Some(prev) = prev {
            self.set_route_stage(&route_id, MultihopStage::Update);
            let msg = ProtocolMsg::MhUpdate { route: route_id };
            Ok(vec![self.seal_to(&prev, &msg)?])
        } else {
            // p1: discard τ (Alg. 2 line 42) and start postUpdate forward.
            self.commit(StateDelta::Tau {
                route: route_id,
                tau: None,
            });
            self.set_route_stage(&route_id, MultihopStage::PostUpdate);
            let msg = ProtocolMsg::MhPostUpdate { route: route_id };
            Ok(vec![self.seal_to(&next, &msg)?])
        }
    }

    pub(crate) fn on_mh_post_update(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        route_id: RouteId,
    ) -> Outcome {
        let route = self.route(&route_id)?;
        if route.prev_hop() != Some(from) {
            return Err(ProtocolError::BadMessage);
        }
        let (next, prev, unlocked) = (route.next_hop(), route.prev_hop(), route.my_channels());
        if self.route_stage(&route_id) != MultihopStage::Update {
            return Err(ProtocolError::BadStage);
        }
        self.commit(StateDelta::Tau {
            route: route_id,
            tau: None,
        });
        if let Some(next) = next {
            self.set_route_stage(&route_id, MultihopStage::PostUpdate);
            let msg = ProtocolMsg::MhPostUpdate { route: route_id };
            Ok(vec![self.seal_to(&next, &msg)?])
        } else {
            // pn: unlock and send release backward (Alg. 2 line 53).
            self.set_route_stage(&route_id, MultihopStage::Idle);
            let prev = prev.expect("pn has a predecessor");
            let msg = ProtocolMsg::MhRelease { route: route_id };
            let mut effects = vec![self.seal_to(&prev, &msg)?];
            for id in unlocked {
                self.drain_admission(env, id, &mut effects);
            }
            Ok(effects)
        }
    }

    pub(crate) fn on_mh_release(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        route_id: RouteId,
    ) -> Outcome {
        let route = self.route(&route_id)?;
        if route.next_hop() != Some(from) {
            return Err(ProtocolError::BadMessage);
        }
        let (prev, amount, unlocked) = (route.prev_hop(), route.amount, route.my_channels());
        if self.route_stage(&route_id) != MultihopStage::PostUpdate {
            return Err(ProtocolError::BadStage);
        }
        self.set_route_stage(&route_id, MultihopStage::Idle);
        let mut effects = match prev {
            Some(prev) => {
                let msg = ProtocolMsg::MhRelease { route: route_id };
                vec![self.seal_to(&prev, &msg)?]
            }
            None => {
                let mut effects = Vec::new();
                self.end_route(route_id, amount, Ok(()), &mut effects);
                effects
            }
        };
        // The drain is the tentpole's fast path: an intermediate hop that
        // just released re-admits its deferred locks and queued payments
        // inside this same ecall — one commit covers release + batch.
        for id in unlocked {
            self.drain_admission(env, id, &mut effects);
        }
        Ok(effects)
    }

    pub(crate) fn on_mh_abort(
        &mut self,
        env: &mut EnclaveEnv,
        from: PublicKey,
        route_id: RouteId,
        reason: u8,
    ) -> Outcome {
        let Some(route) = self.state.routes.get(&route_id) else {
            return Err(ProtocolError::BadStage);
        };
        if route.next_hop() != Some(from) {
            return Err(ProtocolError::BadMessage);
        }
        // Abort is only legal before any balances moved.
        let stage = self.route_stage(&route_id);
        if stage != MultihopStage::Lock && stage != MultihopStage::Sign {
            return Err(ProtocolError::BadStage);
        }
        let route = route.clone();
        self.set_route_stage(&route_id, MultihopStage::Idle);
        let unlocked = route.my_channels();
        let mut effects = if route.pos > 0 {
            let msg = ProtocolMsg::MhAbort {
                route: route_id,
                reason,
            };
            vec![self.seal_to(&route.prev_hop().expect("pos > 0"), &msg)?]
        } else {
            let mut effects = Vec::new();
            match ProtocolError::from_abort_code(reason) {
                // The origin's in-enclave retry: a downstream hop lost the
                // wait-die comparison, which is contention, not failure.
                // Park the originations back on our outgoing channel's
                // queue with a short deterministic backoff; the ops stay
                // pending and the host never sees a ChannelLocked
                // completion. The route id is kept, so the payment's
                // wait-die age (and thus its priority) keeps improving
                // with every round, and a shared route keeps its members.
                ProtocolError::ChannelLocked => self.requeue_origination(env, &route, &mut effects),
                // A hop could not cover a shared route's sum, which it
                // may have covered member by member: each runs alone.
                ProtocolError::InsufficientBalance if self.admit.shared.contains_key(&route_id) => {
                    let members = self.take_members(route_id, route.amount, route.deadline_ns);
                    self.split_shared(members, &route.hops, &route.channels);
                }
                e => self.end_route(route_id, route.amount, Err(e), &mut effects),
            }
            effects
        };
        for id in unlocked {
            self.drain_admission(env, id, &mut effects);
        }
        Ok(effects)
    }

    /// Re-queues the originations of an aborted route (contention only)
    /// on its first channel with a deterministic ~100–200 ms backoff, and
    /// arms the retry with a `PumpAt`. An origination whose admission
    /// deadline comes before the retry fails with `ChannelLocked`, and so
    /// does every one when the queue is full. The deadline is the one
    /// fixed at first admission, NOT refreshed per round: a payment that
    /// cannot win its locks within the admission window must fail
    /// visibly rather than orbit the queue forever.
    fn requeue_origination(
        &mut self,
        env: &EnclaveEnv,
        route: &RouteState,
        effects: &mut Vec<Effect>,
    ) {
        // Deterministic jitter from the route id spreads synchronized
        // losers without an RNG in the enclave.
        let jitter = u64::from(route.id.0[19]) % 100 * 1_000_000;
        let ready_ns = env.now_ns() + 100_000_000 + jitter;
        let mut members = self.take_members(route.id, route.amount, route.deadline_ns);
        let full = self
            .admit
            .queues
            .get(&route.channels[0])
            .is_some_and(|q| q.len() >= crate::admit::ADMIT_QUEUE_CAP);
        let cutoff = if full { u64::MAX } else { ready_ns };
        crate::admit::fail_late(&mut members, cutoff, effects);
        let (hops, channels) = (route.hops.clone(), route.channels.clone());
        let Some(entry) = self.shared_entry(members, hops, channels, false, ready_ns) else {
            return;
        };
        let q = self.admit.queues.entry(route.channels[0]).or_default();
        q.push_back(entry);
        let depth = q.len();
        self.admit.stats.enqueued += 1;
        self.admit.stats.requeued += 1;
        self.admit.stats.note_queue_depth(depth);
        effects.push(Effect::Event(HostEvent::PumpAt(ready_ns)));
    }

    // ---- Eject and PoPT (Alg. 2 lines 60–72) ----

    pub(crate) fn cmd_eject(&mut self, route_id: RouteId) -> Outcome {
        let stage = self.route_stage(&route_id);
        let route = self.route(&route_id)?;
        let my_channels = route.my_channels();
        let mut settlements = Vec::new();
        let mut tau = None;
        match stage {
            MultihopStage::Lock
            | MultihopStage::Sign
            | MultihopStage::PostUpdate
            | MultihopStage::Release
            | MultihopStage::Idle => {
                // Current-state settlements (pre-payment before update,
                // post-payment after).
                for id in &my_channels {
                    let chan = self.chan(id)?;
                    settlements.push((*id, settle::current_settlement_tx(chan)));
                }
            }
            // Only τ may settle in the intermediate states.
            MultihopStage::PreUpdate | MultihopStage::Update => {
                tau = Some(route.tau.clone().ok_or(ProtocolError::BadStage)?);
            }
            MultihopStage::Terminated => return Err(ProtocolError::BadStage),
        }
        let mut effects = self.terminate_route(&route_id, &my_channels, settlements);
        if let Some(tau) = tau {
            let kind = SettleKind::OnChain(tau.txid());
            effects.push(Effect::settled(ChannelId(route_id.0), kind));
            effects.push(Effect::Broadcast(tau));
        }
        Ok(effects)
    }

    /// Ends a route by eject or PoPT: closes the route channels we hold,
    /// terminally refusing everything queued or deferred behind them, and
    /// finishes their `settlements`.
    fn terminate_route(
        &mut self,
        route_id: &RouteId,
        channels: &[ChannelId],
        settlements: Vec<(ChannelId, Transaction)>,
    ) -> Vec<Effect> {
        self.set_route_stage(route_id, MultihopStage::Terminated);
        // Its members' ops, like a route's own, are left to the host.
        self.admit.shared.remove(route_id);
        // A sign pass still waiting for co-signatures ends here too.
        self.sig_collects.retain(
            |_, c| !matches!(c.then, CoSigned::SignPass { route, .. } if route == *route_id),
        );
        let mut effects = Vec::new();
        for id in channels {
            self.flush_admission(*id, ProtocolError::ChannelClosed, &mut effects);
            if self.state.channels.contains_key(id) {
                self.commit(StateDelta::CloseChannel(*id));
            }
        }
        for (id, tx) in settlements {
            self.finish_settlement(id, tx, false, &mut effects);
        }
        effects
    }

    pub(crate) fn cmd_eject_popt(&mut self, route_id: RouteId, popt: Transaction) -> Outcome {
        let stage = self.route_stage(&route_id);
        let route = self.route(&route_id)?;
        let tau = route.tau.as_ref().ok_or(ProtocolError::BadPopt)?;
        let txid = popt.txid();
        // The PoPT must genuinely conflict with this route's τ — i.e. spend
        // at least one of the path's deposits.
        if !popt.conflicts_with(tau) {
            return Err(ProtocolError::BadPopt);
        }
        let my_channels = route.my_channels();
        let mut settlements = Vec::new();
        if txid != tau.txid() {
            // Otherwise τ itself confirmed: our channels are settled by
            // it, and ejecting only closes them.
            let post = route
                .digests
                .iter()
                .find(|d| d.txid == txid)
                .ok_or(ProtocolError::BadPopt)?
                .post;
            let valid = if post {
                matches!(
                    stage,
                    MultihopStage::PreUpdate
                        | MultihopStage::Update
                        | MultihopStage::PostUpdate
                        | MultihopStage::Release
                )
            } else {
                matches!(
                    stage,
                    MultihopStage::Lock
                        | MultihopStage::Sign
                        | MultihopStage::PreUpdate
                        | MultihopStage::Update
                )
            };
            if !valid {
                return Err(ProtocolError::BadPopt);
            }
            for id in &my_channels {
                let (pre_my, pre_remote) = route
                    .pre_balances
                    .get(id)
                    .copied()
                    .ok_or(ProtocolError::BadPopt)?;
                let chan = self.chan(id)?;
                // Settle at the state matching the PoPT, in this
                // channel's payment direction.
                let (my_bal, remote_bal) = match (post, route.out_chan() == Some(*id)) {
                    (false, _) => (pre_my, pre_remote),
                    (true, true) => (pre_my - route.amount, pre_remote + route.amount),
                    (true, false) => (pre_my + route.amount, pre_remote - route.amount),
                };
                settlements.push((*id, settle::settlement_tx(chan, my_bal, remote_bal)));
            }
        }
        Ok(self.terminate_route(&route_id, &my_channels, settlements))
    }
}

#[cfg(test)]
mod tests;
