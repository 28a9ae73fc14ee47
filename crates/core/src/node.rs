//! The untrusted host: wraps a Teechain enclave, performs network and
//! blockchain I/O, and stores sealed blobs. Nothing here is trusted — a
//! malicious host can only delay or drop traffic, which the protocol
//! tolerates by construction.

use crate::enclave::{Command, Effect, EnclaveConfig, HostEvent, PeerSlot, TeechainEnclave};
use crate::msg::WireView;
use crate::ops::{
    accepted_output, Completion, OpError, OpId, OpOutput, OpResult, OpTracker, Request,
};
use crate::swap::SwapPhase;
use crate::types::{CommitteeSpec, Deposit, ProtocolError, SwapId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use teechain_blockchain::Chain;
use teechain_crypto::schnorr::PublicKey;
use teechain_net::{Ctx, NodeId};
use teechain_persist::SharedStore;
use teechain_tee::{DeviceIdentity, Enclave, Measurement};
use teechain_trace::{span, EventKind, Histogram, Tracer};

/// A shared handle to the simulated blockchain.
pub type SharedChain = Arc<Mutex<Chain>>;

/// A Teechain node: enclave + host logic.
pub struct TeechainNode {
    /// The TEE.
    pub enclave: Enclave<TeechainEnclave>,
    /// Cached enclave identity (after first `GetIdentity`).
    pub identity: Option<PublicKey>,
    /// Identity key → simulator node directory (out-of-band knowledge).
    /// A send consults it once per enclave peer slot; `routes` serves the
    /// rest.
    directory: HashMap<PublicKey, NodeId>,
    /// By enclave peer slot: the identity the slot held when the host
    /// resolved it, and the node that identity lives on.
    routes: Vec<Option<(PublicKey, NodeId)>>,
    /// The blockchain this node reads and writes asynchronously.
    pub chain: SharedChain,
    /// The *alternate* blockchain used by cross-chain atomic swaps
    /// ([`crate::swap`]): HTLCs are locked, claimed and refunded here
    /// while the Teechain channel side moves on `chain`. Freshly created
    /// per node; clusters share one instance via
    /// [`TeechainNode::attach_alt_chain`].
    pub chain2: SharedChain,
    /// Confirmations this host requires before approving a deposit
    /// (the per-participant security parameter of §4.1).
    pub required_confirmations: u64,
    /// Durable WAL + snapshot storage (persistent mode). Owned jointly
    /// with the harness: it models the disk, so it survives enclave and
    /// host crashes.
    pub store: Option<SharedStore>,
    /// Launch configuration, kept to rebuild the program on restart.
    pub cfg: EnclaveConfig,
    /// Terminal completions of submitted operations, in resolution order.
    /// Exactly one entry per [`TeechainNode::submit_op`] call eventually
    /// appears here; harness layers drain or scan it.
    pub completions: Vec<Completion>,
    /// In-flight operation correlation state.
    pub(crate) ops: OpTracker,
    /// Transactions this node broadcast (txids, for assertions).
    pub broadcasts: Vec<teechain_blockchain::TxId>,
    /// Transactions this node broadcast to the *alternate* chain (swap
    /// claims and refunds; txids, for assertions).
    pub alt_broadcasts: Vec<teechain_blockchain::TxId>,
    /// Adversarial knob: ignore [`HostEvent::VerifySwapHtlc`] requests,
    /// so the enclave never verifies the counterparty's HTLC and never
    /// reveals the swap secret (an initiator withholding past timeout).
    pub swap_withhold_verify: bool,
    /// Adversarial knob: ignore [`HostEvent::SwapFundingNeeded`], so a
    /// responder never locks the HTLC on the alternate chain.
    pub swap_withhold_funding: bool,
    /// Errors surfaced while delivering messages (protocol violations by
    /// peers are dropped, as a real implementation logs-and-drops).
    pub delivery_errors: Vec<ProtocolError>,
    /// Host-side flight recorder: causal spans + ring buffer. Disabled
    /// by default (one branch per instrumentation site); compiled out
    /// entirely without the `trace-record` feature.
    pub tracer: Tracer,
    /// What the counter refused ([`ProtocolError::CounterThrottled`]),
    /// awaiting a re-run on the next admission pump: a FIFO gate (see
    /// `pump`).
    throttled: VecDeque<Parked>,
    /// Entries into `throttled`: first parks and re-parks alike.
    throttle_parked: u64,
    /// Re-runs the pump issued from `throttled`.
    throttle_redispatched: u64,
    /// Earliest outstanding pump-timer deadline (0 = none armed). The
    /// enclave asks for pumps via [`HostEvent::PumpAt`]; arming tracks
    /// the earliest request so redundant timers are not set.
    pump_armed_until: u64,
    /// The trace cause of the ecall whose [`HostEvent::PumpAt`] armed the
    /// pump timer: the pump's own ecall descends from it.
    pump_cause: u64,
    /// The last successful ecall was a [`Command::Deliver`] with `more`:
    /// the enclave may hold what it owes for its input until its next
    /// ecall (see [`TeechainNode::message_done`]).
    enclave_holds: bool,
    /// Outstanding swap chain-watch timers: token low bits → the swap to
    /// tick when the timer fires.
    swap_timers: HashMap<u64, SwapId>,
    /// Next swap timer sequence number (48-bit token space).
    swap_timer_seq: u64,
    /// Swap phases entered on this node, indexed by phase discriminant
    /// (Init, Locked, Redeemed, Refunded); feeds the metrics registry.
    swap_phase_counts: [u64; 4],
    /// `SwapResolved` events this node's enclave emitted.
    swap_resolved: u64,
    /// When each swap not yet terminal entered `Init` and `Locked`.
    swap_entered: BTreeMap<SwapId, [Option<u64>; 2]>,
    /// Swap phase latencies, by [`SWAP_LATENCIES`] name.
    swap_latency: [Histogram; 3],
}

/// An entry of the host's park queue: something the counter refused,
/// re-run by the pump in FIFO order.
enum Parked {
    /// A pending operation, by seq.
    Op(u64),
    /// A host reaction (`SwapFunded`, `SwapHtlcVerified`).
    Reaction(Command),
}

/// Timer token the node uses for admission-pump wakeups (queued-op
/// deadlines, counter-throttle expiry, deferred-message drains).
pub const PUMP_TOKEN: u64 = 0x7EE_C8A1_4E57;

/// The registry histograms of [`TeechainNode::swap_phase_latencies`]:
/// `Init` to `Locked`, `Locked` to the terminal phase, and end to end.
const SWAP_LATENCIES: [&str; 3] = [
    "swap.latency.init_to_locked",
    "swap.latency.locked_to_terminal",
    "swap.latency.total",
];

/// High-16-bit timer-token tag for operation deadline timers (low 48
/// bits carry the operation sequence number).
const OP_DEADLINE_TAG: u64 = 0x4F44 << 48;
/// High-16-bit timer-token tag for swap chain-watch timers (low
/// 48 bits carry the swap timer sequence number).
const SWAP_TIMER_TAG: u64 = 0x5357 << 48;
/// Mask selecting a token's tag bits.
const OP_TAG_MASK: u64 = 0xFFFF << 48;

impl TeechainNode {
    /// Creates a node with a freshly launched enclave.
    pub fn new(device: DeviceIdentity, cfg: EnclaveConfig, seed: u64, chain: SharedChain) -> Self {
        let measurement = cfg.measurement;
        let program = TeechainEnclave::new(cfg.clone());
        TeechainNode {
            enclave: Enclave::launch(device, measurement, seed, program),
            identity: None,
            directory: HashMap::new(),
            routes: Vec::new(),
            chain,
            chain2: Arc::new(Mutex::new(Chain::new())),
            required_confirmations: 1,
            store: None,
            cfg,
            completions: Vec::new(),
            ops: OpTracker::default(),
            broadcasts: Vec::new(),
            alt_broadcasts: Vec::new(),
            swap_withhold_verify: false,
            swap_withhold_funding: false,
            delivery_errors: Vec::new(),
            tracer: Tracer::default(),
            throttled: VecDeque::new(),
            throttle_parked: 0,
            throttle_redispatched: 0,
            pump_armed_until: 0,
            pump_cause: 0,
            enclave_holds: false,
            swap_timers: HashMap::new(),
            swap_timer_seq: 0,
            swap_phase_counts: [0; 4],
            swap_resolved: 0,
            swap_entered: BTreeMap::new(),
            swap_latency: Default::default(),
        }
    }

    /// Replaces the alternate (swap) chain with a shared instance so
    /// every node in the cluster observes the same second ledger.
    pub fn attach_alt_chain(&mut self, chain2: SharedChain) {
        self.chain2 = chain2;
    }

    /// Attaches durable storage (persistent mode). The store should be
    /// shared with the harness so it outlives crashes of this node.
    pub fn attach_store(&mut self, store: SharedStore) {
        self.store = Some(store);
    }

    /// Crashes the enclave: volatile state is lost; hardware counters,
    /// the sealing key and the durable store survive.
    pub fn crash_enclave(&mut self) {
        self.enclave.crash();
        // Throttled dispatches target the dead program; the ops stay
        // pending and resolve as dead at quiescence.
        self.throttled.clear();
        self.pump_armed_until = 0;
        self.enclave_holds = false;
        // Armed swap timers target the dead program; recovery re-arms
        // fresh checks for every swap that still needs driving.
        self.swap_timers.clear();
        // The restarted program hands out its peer slots afresh.
        self.routes.clear();
    }

    /// The standard measurement for this build of the enclave program.
    pub fn measurement() -> Measurement {
        Measurement::of_program("teechain-enclave", 1)
    }

    /// Registers where a peer identity lives on the network.
    pub fn register_peer(&mut self, pk: PublicKey, node: NodeId) {
        self.directory.insert(pk, node);
        // Routes were resolved against the old directory.
        self.routes.clear();
    }

    /// Fetches (and caches) the enclave identity.
    pub fn identity(&mut self, now_ns: u64) -> PublicKey {
        if let Some(pk) = self.identity {
            return pk;
        }
        let effects = self
            .ecall(now_ns, Command::GetIdentity)
            .expect("a live enclave tells its identity");
        for e in &effects {
            if let Effect::Done {
                outcome: Ok(OpOutput::Identity(pk)),
                ..
            } = e
            {
                self.identity = Some(*pk);
            }
        }
        self.identity.expect("identity outcome")
    }

    /// The one path into the enclave: records the ecall's trace span, and
    /// a crashed enclave refuses as [`ProtocolError::Frozen`].
    fn ecall(&mut self, now_ns: u64, cmd: Command) -> Result<Vec<Effect>, ProtocolError> {
        let holds = matches!(cmd, Command::Deliver { more: true, .. });
        let t = self.trace_ecall_begin(now_ns);
        let outcome = self.enclave.call(now_ns, cmd);
        self.trace_ecall_end(now_ns, t);
        let effects = outcome.map_err(|_| ProtocolError::Frozen)??;
        self.enclave_holds = holds;
        Ok(effects)
    }

    /// Issues an operation's command and performs the resulting effects.
    fn command(&mut self, ctx: &mut Ctx<'_>, cmd: Command) -> Result<(), ProtocolError> {
        let effects = self.ecall(ctx.now_ns(), cmd)?;
        self.perform(ctx, effects);
        Ok(())
    }

    /// Issues a host reaction under the host's one refusal policy:
    /// - the counter refusing `Deliver` or `PumpAdmission` arms the pump,
    ///   since the enclave kept the input;
    /// - the counter refusing any other command parks it (at the front of
    ///   the queue when `front`, for the pump's own re-run);
    /// - a crashed enclave drops the call;
    /// - any other refusal goes to [`TeechainNode::delivery_errors`].
    ///
    /// Returns the effects for the caller to perform.
    fn reaction(
        &mut self,
        ctx: &mut Ctx<'_>,
        cmd: Command,
        front: bool,
    ) -> Result<Vec<Effect>, ProtocolError> {
        let kept_by_enclave = matches!(cmd, Command::Deliver { .. } | Command::PumpAdmission);
        let rerun = (!kept_by_enclave).then(|| cmd.clone());
        let result = self.ecall(ctx.now_ns(), cmd);
        match (&result, rerun) {
            (Ok(_), _) => {}
            (Err(ProtocolError::CounterThrottled { ready_at }), None) => {
                self.schedule_pump(ctx, *ready_at);
            }
            (Err(ProtocolError::CounterThrottled { ready_at }), Some(cmd)) => {
                self.park(ctx, Parked::Reaction(cmd), *ready_at, front);
            }
            (Err(_), _) if self.enclave.is_crashed() => {}
            (Err(e), _) => self.delivery_errors.push(e.clone()),
        }
        result
    }

    /// A host reaction whose effects are performed at once.
    fn respond(&mut self, ctx: &mut Ctx<'_>, cmd: Command) {
        if let Ok(effects) = self.reaction(ctx, cmd, false) {
            self.perform(ctx, effects);
        }
    }

    /// Handles an incoming network message. The buffer that arrived goes
    /// to the enclave as it is: the enclave opens a sealed message where it
    /// lies, and refuses anything else.
    pub fn handle_wire(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, wire: Vec<u8>) {
        self.trace_wire_recv(ctx.now_ns(), &wire);
        let more = ctx.more_messages();
        self.respond(ctx, Command::Deliver { wire, more });
        self.message_done(ctx);
    }

    /// Ends the handling of a message. When no other message for this
    /// node is queued and the enclave may still hold what it owes for its
    /// input (this message made no successful ecall: the enclave refused
    /// it, garbage included), the host pumps the enclave at once, which
    /// releases it.
    fn message_done(&mut self, ctx: &mut Ctx<'_>) {
        if self.enclave_holds && !ctx.more_messages() {
            self.respond(ctx, Command::PumpAdmission);
        }
    }

    /// Arms (or keeps) a pump timer no later than `at`; true if it armed
    /// one. Stale timers fire harmlessly: the pump is idempotent.
    fn schedule_pump(&mut self, ctx: &mut Ctx<'_>, at: u64) -> bool {
        if self.pump_armed_until != 0 && self.pump_armed_until <= at {
            return false;
        }
        self.pump_armed_until = at;
        let delay = at.saturating_sub(ctx.now_ns()).max(1);
        ctx.set_timer(delay, PUMP_TOKEN);
        true
    }

    /// Fires node timers: admission pumps and operation deadlines.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token & OP_TAG_MASK == OP_DEADLINE_TAG {
            let seq = token & !OP_TAG_MASK;
            if let Some(c) = self.ops.cancel(seq, ctx.now_ns()) {
                self.tracer.set_cause(0); // A deadline firing has no cause.
                self.push_completion(ctx.now_ns(), c);
            }
            return;
        }
        if token & OP_TAG_MASK == SWAP_TIMER_TAG {
            if let Some(swap) = self.swap_timers.remove(&(token & !OP_TAG_MASK)) {
                self.swap_tick(ctx, swap);
            }
            return;
        }
        if token != PUMP_TOKEN {
            return;
        }
        self.pump_armed_until = 0;
        self.pump(ctx);
    }

    /// Arms a chain-watch timer for `swap` firing at absolute time `at`.
    fn arm_swap_timer(&mut self, ctx: &mut Ctx<'_>, at: u64, swap: SwapId) {
        let seq = self.swap_timer_seq;
        self.swap_timer_seq = self.swap_timer_seq.wrapping_add(1) & !OP_TAG_MASK;
        self.swap_timers.insert(seq, swap);
        let delay = at.saturating_sub(ctx.now_ns()).max(1);
        ctx.set_timer(delay, SWAP_TIMER_TAG | seq);
    }

    /// Observes the alternate chain on a swap-check timer and feeds the
    /// observation to the enclave ([`Command::SwapTick`]), which alone
    /// decides what it means.
    fn swap_tick(&mut self, ctx: &mut Ctx<'_>, swap: SwapId) {
        let Some(state) = self
            .enclave
            .program()
            .and_then(|p| p.swap_state(&swap).cloned())
        else {
            return;
        };
        let (spent_preimage, confirmations, claim_confirmed) = match state.htlc_outpoint {
            None => (None, 0, false),
            Some(outpoint) => {
                let mut chain = self.chain2.lock();
                // Block production while a reclaimable HTLC waits out its
                // timelock: the alternate chain grows regardless of
                // anything Teechain does, and the responder's on-chain
                // refund is gated on real confirmations. One block per
                // chain-watch tick — past the swap deadline in Locked, or
                // whenever an aborted swap still owns an unspent HTLC
                // (the stranded-funding race) — keeps that path reachable
                // without an external miner while leaving pre-deadline
                // pacing to the harness.
                let reclaim_pending = !state.initiator
                    && match state.phase {
                        SwapPhase::Locked => ctx.now_ns() >= state.deadline_ns,
                        SwapPhase::Refunded => true,
                        _ => false,
                    };
                if reclaim_pending && chain.find_spender(&outpoint).is_none() {
                    chain.mine_blocks(1);
                }
                let spender = chain.find_spender(&outpoint);
                let preimage = spender
                    .and_then(|tx| tx.inputs.iter().find(|i| i.prevout == outpoint))
                    .map(|i| i.preimage.clone())
                    .filter(|p| !p.is_empty());
                // The claim (or refund) counts once the spender is mined.
                let claimed = spender.map(|tx| tx.txid());
                let confirmed = claimed.is_some_and(|txid| chain.confirmations(&txid) >= 1);
                (preimage, chain.confirmations(&outpoint.txid), confirmed)
            }
        };
        self.respond(
            ctx,
            Command::SwapTick {
                swap,
                spent_preimage,
                confirmations,
                claim_confirmed,
            },
        );
    }

    /// Pumps the enclave admission layer (expires deadline-passed queued
    /// ops, drains unlocked channels, re-dispatches counter-stashed
    /// messages) and then opens the host's park queue as a FIFO gate:
    /// parked operations and reactions re-run in order until the counter
    /// refuses one again.
    ///
    /// Stopping there loses nothing. Everything parked was refused by the
    /// counter, and every counter-gated handler checks the counter before
    /// it mutates anything (a composite parks as the command that remains,
    /// see `dispatch_op`). So once the counter refuses one, it would refuse
    /// each one behind it the same way, with no state change: they stay
    /// parked untouched instead of costing an ecall each per counter
    /// window.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        // The pump ecall descends from the ecall that asked for it.
        self.tracer.set_cause(std::mem::take(&mut self.pump_cause));
        let result = self.reaction(ctx, Command::PumpAdmission, false);
        let pump_span = self.tracer.cause();
        match result {
            Ok(effects) => self.perform(ctx, effects),
            // The counter gates the parked entries too.
            Err(ProtocolError::CounterThrottled { .. }) => return,
            Err(_) => {}
        }
        while let Some(parked) = self.throttled.pop_front() {
            let refused = match parked {
                Parked::Op(seq) => {
                    if !self.ops.is_pending(seq) {
                        continue; // Resolved while parked (deadline): drop it.
                    }
                    if self.tracer.enabled() {
                        // Un-park: the op leaves the host park queue,
                        // causally released by this pump.
                        let s = span::op_span(ctx.self_id().0, seq);
                        self.tracer
                            .record(ctx.now_ns(), EventKind::QueueExit, s, pump_span, 0, 0);
                    }
                    self.throttle_redispatched += 1;
                    self.dispatch_op(ctx, seq, true)
                }
                Parked::Reaction(cmd) => {
                    self.throttle_redispatched += 1;
                    match self.reaction(ctx, cmd, true) {
                        Ok(effects) => {
                            self.perform(ctx, effects);
                            false
                        }
                        Err(e) => matches!(e, ProtocolError::CounterThrottled { .. }),
                    }
                }
            };
            if refused {
                break; // Back at the head, ahead of everything parked after it.
            }
        }
    }

    /// Puts what the counter refused on the park queue — at the front for
    /// a re-run by the pump, at the back for a first refusal — and arms a
    /// pump for when the counter is ready.
    fn park(&mut self, ctx: &mut Ctx<'_>, parked: Parked, ready_at: u64, front: bool) {
        if let (true, Parked::Op(seq)) = (self.tracer.enabled(), &parked) {
            let s = span::op_span(ctx.self_id().0, *seq);
            self.trace(ctx.now_ns(), EventKind::QueueEnter, s, 0);
        }
        if front {
            self.throttled.push_front(parked);
        } else {
            self.throttled.push_back(parked);
        }
        self.throttle_parked += 1;
        self.schedule_pump(ctx, ready_at);
    }

    /// Carries out enclave effects: sends, broadcasts, chain checks,
    /// persistence, event collection.
    pub fn perform(&mut self, ctx: &mut Ctx<'_>, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, peer, wire } => {
                    if let Some(node) = self.route(&to, peer) {
                        self.trace_wire_send(ctx.now_ns(), &to, &wire);
                        ctx.send(node, wire);
                    }
                }
                Effect::Broadcast(tx) => {
                    self.broadcasts.push(tx.txid());
                    // Asynchronous access: submission may fail (conflict)
                    // or linger unconfirmed arbitrarily long; the protocol
                    // never depends on when this lands.
                    let _ = self.chain.lock().submit(tx);
                }
                Effect::BroadcastAlt(tx) => {
                    self.alt_broadcasts.push(tx.txid());
                    // Duplicate re-drives after recovery are rejected
                    // here harmlessly. The alternate chain confirms
                    // eagerly: its miners extend it independently of
                    // anything Teechain does, and no swap path depends
                    // on *when* a valid spend lands — only on the HTLC
                    // script's own rules.
                    let mut chain = self.chain2.lock();
                    if chain.submit(tx).is_ok() {
                        chain.mine_blocks(1);
                    }
                }
                Effect::AppendLog(blob) => {
                    // Durability barrier before anything else in this
                    // batch becomes visible: effects are performed in
                    // order and the enclave emits AppendLog first. A
                    // failed append is fatal — the enclave has already
                    // spent the counter increment, so continuing would
                    // turn the lost commit into an undetectable-until-
                    // restart roll-back.
                    if let Some(store) = &self.store {
                        store
                            .lock()
                            .append_commit(&blob)
                            .expect("durable WAL append failed; node cannot continue");
                        let cause = self.tracer.cause();
                        self.trace(ctx.now_ns(), EventKind::WalAppend, cause, blob.len());
                    }
                }
                Effect::Persist(blob) => {
                    if let Some(store) = &self.store {
                        store
                            .lock()
                            .install_snapshot(&blob)
                            .expect("durable snapshot install failed; node cannot continue");
                    }
                    let cause = self.tracer.cause();
                    self.trace(ctx.now_ns(), EventKind::WalSnapshot, cause, blob.len());
                }
                Effect::Event(request) => self.react(ctx, &request),
                // An outcome completes the oldest operation waiting on its
                // key, if any.
                Effect::Done { key, outcome } => {
                    if let Ok(OpOutput::Swap(_)) = outcome {
                        self.swap_resolved += 1;
                    }
                    if let Some(c) = self.ops.observe(key, outcome, ctx.now_ns()) {
                        self.push_completion(ctx.now_ns(), c);
                    }
                }
            }
        }
    }

    /// The node `to` lives on. A send that names the enclave's peer slot
    /// for `to` resolves through the slot's cached route while the slot
    /// still holds `to`, so the directory is consulted once per slot — and
    /// once more only after a restart renumbered the slots. A send with no
    /// slot (a handshake opening) asks the directory.
    fn route(&mut self, to: &PublicKey, peer: Option<PeerSlot>) -> Option<NodeId> {
        let Some(slot) = peer else {
            return self.directory.get(to).copied();
        };
        let i = slot.0 as usize;
        if let Some(Some((pk, node))) = self.routes.get(i) {
            if pk == to {
                return Some(*node);
            }
        }
        let node = *self.directory.get(to)?;
        if self.routes.len() <= i {
            self.routes.resize(i + 1, None);
        }
        self.routes[i] = Some((*to, node));
        Some(node)
    }

    /// The host's answers to the enclave's requests.
    fn react(&mut self, ctx: &mut Ctx<'_>, request: &HostEvent) {
        match request {
            // The pump it arms runs under the asking ecall's cause.
            HostEvent::PumpAt(at) => {
                if self.schedule_pump(ctx, *at) {
                    self.pump_cause = self.tracer.cause();
                }
            }
            HostEvent::VerifyDeposit { remote, deposit } => {
                // The host checks the chain per its own policy and answers.
                let valid = self.verify_deposit_on_chain(deposit);
                let cmd = Command::DepositVerified {
                    remote: *remote,
                    outpoint: deposit.outpoint,
                    valid,
                };
                self.respond(ctx, cmd);
            }
            HostEvent::SwapFundingNeeded {
                swap,
                script,
                value,
            } => {
                if self.swap_withhold_funding {
                    return; // Adversary: leave the initiator hanging.
                }
                // Idempotent funding: recovery replays this request if the
                // crash fell inside the funding window, so re-offer an
                // existing matching lock instead of minting a second one.
                let outpoint = {
                    let mut chain = self.chain2.lock();
                    match chain.find_utxo_by_script(script, *value) {
                        Some(existing) => existing,
                        None => chain.mint((**script).clone(), *value),
                    }
                };
                let swap = *swap;
                self.respond(ctx, Command::SwapFunded { swap, outpoint });
            }
            HostEvent::VerifySwapHtlc {
                swap,
                outpoint,
                script,
                value,
            } => {
                if self.swap_withhold_verify {
                    return; // Adversary: never verify, never reveal.
                }
                // The host vouches for script/value and reports the raw
                // confirmation count; the maturity policy (enough headroom
                // before the refund timelock) is enforced in the enclave,
                // which is the party at risk of a late, already-refundable
                // lock.
                let (valid, confirmations) = {
                    let chain = self.chain2.lock();
                    let valid = chain
                        .utxo(outpoint)
                        .is_some_and(|out| out.value == *value && out.script == **script);
                    (valid, chain.confirmations(&outpoint.txid))
                };
                let swap = *swap;
                self.respond(
                    ctx,
                    Command::SwapHtlcVerified {
                        swap,
                        valid,
                        confirmations,
                    },
                );
            }
            HostEvent::SwapCheckAt { swap, at } => self.arm_swap_timer(ctx, *at, *swap),
            HostEvent::SwapPhaseEntered { swap, phase } => {
                self.swap_phase(ctx.now_ns(), *swap, *phase);
            }
        }
    }

    fn verify_deposit_on_chain(&self, deposit: &Deposit) -> bool {
        let chain = self.chain.lock();
        let Some(out) = chain.utxo(&deposit.outpoint) else {
            return false;
        };
        if out.value != deposit.value {
            return false;
        }
        // The on-chain script must match the claimed committee.
        let expected = teechain_blockchain::ScriptPubKey::multisig(
            deposit.committee.m,
            deposit.committee.member_keys.clone(),
        );
        if out.script != expected {
            return false;
        }
        chain.confirmations(&deposit.outpoint.txid) >= self.required_confirmations
    }

    /// Counts a swap's phase and times it: `Init` and `Locked` are
    /// stamped once each, and a terminal phase records the latencies and
    /// forgets the swap.
    fn swap_phase(&mut self, now_ns: u64, swap: SwapId, phase: SwapPhase) {
        self.swap_phase_counts[phase as usize] += 1;
        let record = |h: &mut Histogram, since: Option<u64>| {
            if let Some(t) = since {
                h.record(now_ns.saturating_sub(t));
            }
        };
        match phase {
            SwapPhase::Init => {
                self.swap_entered.entry(swap).or_default()[0].get_or_insert(now_ns);
            }
            SwapPhase::Locked => {
                let [init, locked] = self.swap_entered.entry(swap).or_default();
                if locked.is_none() {
                    *locked = Some(now_ns);
                    record(&mut self.swap_latency[0], *init);
                }
            }
            SwapPhase::Redeemed | SwapPhase::Refunded => {
                let [init, locked] = self.swap_entered.remove(&swap).unwrap_or_default();
                record(&mut self.swap_latency[1], locked);
                record(&mut self.swap_latency[2], init);
            }
        }
    }

    // ---- Trace instrumentation (host-side flight recorder) ----
    //
    // Every helper early-returns unless the tracer is enabled, and
    // `Tracer::enabled` is a compile-time `false` without the
    // `trace-record` feature — the span derivation below (decoding wire
    // headers, cloning admission stats) folds away entirely.

    /// Marks an enclave entry: mints the node's next deterministic ecall
    /// span, records it parented to the current cause, makes it the new
    /// cause (so effects performed during the call chain under it), and
    /// snapshots admission stats for [`TeechainNode::trace_ecall_end`]'s
    /// delta events. Returns `None` (and records nothing) when disabled.
    fn trace_ecall_begin(&mut self, now_ns: u64) -> Option<crate::admit::AdmitStats> {
        if !self.tracer.enabled() {
            return None;
        }
        let parent = self.tracer.cause();
        let span = self.tracer.next_ecall_span();
        self.tracer
            .record(now_ns, EventKind::Ecall, span, parent, 0, 0);
        self.tracer.set_cause(span);
        self.enclave.program().map(|p| p.admit_stats().clone())
    }

    /// Emits admission-layer events for whatever the ecall did to the
    /// in-enclave queues, derived host-side from the stats delta — the
    /// enclave itself records nothing (its sealed state and effect
    /// vocabulary stay trace-free).
    fn trace_ecall_end(&mut self, now_ns: u64, before: Option<crate::admit::AdmitStats>) {
        let Some(before) = before else {
            return;
        };
        let Some(after) = self.enclave.program().map(|p| p.admit_stats().clone()) else {
            return;
        };
        let cause = self.tracer.cause();
        // Saturating: a crash-restart inside the window resets the stats.
        let d = u64::saturating_sub;
        let deltas = [
            (EventKind::QueueEnter, d(after.enqueued, before.enqueued), 0),
            (EventKind::AdmitDefer, d(after.deferred, before.deferred), 0),
            (
                EventKind::AdmitBatch,
                d(after.batches, before.batches),
                d(after.batched_payments, before.batched_payments),
            ),
            (
                EventKind::AdmitReroute,
                d(after.rerouted, before.rerouted),
                0,
            ),
            (EventKind::AdmitExpire, d(after.expired, before.expired), 0),
        ];
        for (kind, a, b) in deltas {
            if a > 0 {
                self.tracer.record(now_ns, kind, cause, cause, a, b);
            }
        }
    }

    /// Records an inbound sealed frame and makes its span — the same id
    /// the sender minted from the `(from, to, seq)` header — the current
    /// cause, stitching the cross-node causal edge with zero wire bytes.
    fn trace_wire_recv(&mut self, now_ns: u64, wire: &[u8]) {
        if !self.tracer.enabled() {
            return;
        }
        let Some(me) = self.identity else {
            return;
        };
        if let Ok(WireView::Sealed { from, seq, .. }) = WireView::parse(wire) {
            self.trace_recv(
                now_ns,
                span::wire_span(from, &me.to_bytes(), seq),
                wire.len(),
            );
        }
    }

    /// Records an inbound frame of `len` bytes with no parent, and makes
    /// its span the current cause.
    fn trace_recv(&mut self, now_ns: u64, span: u64, len: usize) {
        self.tracer
            .record(now_ns, EventKind::WireRecv, span, 0, len as u64, 0);
        self.tracer.set_cause(span);
    }

    /// Records an event about `span` under the current cause.
    fn trace(&mut self, now_ns: u64, kind: EventKind, span: u64, a: usize) {
        let cause = self.tracer.cause();
        self.tracer.record(now_ns, kind, span, cause, a as u64, 0);
    }

    /// Records an outbound sealed frame, parented to the emitting ecall.
    fn trace_wire_send(&mut self, now_ns: u64, to: &PublicKey, wire: &[u8]) {
        if !self.tracer.enabled() {
            return;
        }
        if let Ok(WireView::Sealed { from, seq, .. }) = WireView::parse(wire) {
            let s = span::wire_span(from, &to.to_bytes(), seq);
            self.trace(now_ns, EventKind::WireSend, s, wire.len());
        }
    }

    /// Records an operation's terminal completion, traced against the
    /// op's root span.
    fn push_completion(&mut self, now_ns: u64, c: Completion) {
        if self.tracer.enabled() {
            let s = span::op_span(c.op.node, c.op.seq);
            self.trace(now_ns, EventKind::OpComplete, s, c.outcome.is_ok().into());
        }
        self.completions.push(c);
    }

    /// Snapshots this node's metrics into a fresh registry: host-level
    /// counters, admission totals and the queue-depth/defer-age
    /// high-watermarks as gauges. Mergeable across nodes (counters add,
    /// gauges take the max).
    pub fn registry(&self) -> teechain_trace::Registry {
        let mut r = teechain_trace::Registry::new();
        r.counter("node.completions", self.completions.len() as u64);
        r.counter("node.broadcasts", self.broadcasts.len() as u64);
        r.counter("node.alt_broadcasts", self.alt_broadcasts.len() as u64);
        r.counter("node.delivery_errors", self.delivery_errors.len() as u64);
        r.counter("node.throttle.parked", self.throttle_parked);
        r.counter("node.throttle.redispatched", self.throttle_redispatched);
        if let Some(rep) = self.enclave.program().map(|p| p.rep_stats()) {
            r.counter("repl.updates_sent", rep.updates_sent);
            r.counter("repl.updates_applied", rep.updates_applied);
            r.counter("repl.acks_sent", rep.acks_sent);
            r.counter("repl.ack_flushes", rep.ack_flushes);
            r.counter("repl.forwards_sent", rep.forwards_sent);
            r.counter("repl.forward_flushes", rep.forward_flushes);
            r.counter("repl.sigs_refused", rep.sigs_refused);
        }
        if let Some(pay) = self.enclave.program().map(|p| p.pay_stats()) {
            r.counter("pay.pays_sent", pay.pays_sent);
            r.counter("pay.acks_sent", pay.acks_sent);
            r.counter("pay.ack_flushes", pay.ack_flushes);
        }
        r.counter("swap.phase.init", self.swap_phase_counts[0]);
        r.counter("swap.phase.locked", self.swap_phase_counts[1]);
        r.counter("swap.phase.redeemed", self.swap_phase_counts[2]);
        r.counter("swap.phase.refunded", self.swap_phase_counts[3]);
        r.counter("swap.resolved", self.swap_resolved);
        if let Some(p) = self.enclave.program() {
            // Swaps still pending on this node: the "stuck" gauge the
            // bench trend gate asserts is zero at quiescence.
            r.gauge_max("swap.pending", p.pending_swaps() as u64);
        }
        r.counter("trace.dropped", self.tracer.dropped());
        r.counter("trace.buffered", self.tracer.len() as u64);
        if let Some(a) = self.enclave.program().map(|p| p.admit_stats()) {
            r.counter("admit.enqueued", a.enqueued);
            r.counter("admit.deferred", a.deferred);
            r.counter("admit.batches", a.batches);
            r.counter("admit.batched_payments", a.batched_payments);
            r.counter("admit.expired", a.expired);
            r.counter("admit.flushed", a.flushed);
            r.counter("admit.requeued", a.requeued);
            r.counter("admit.rerouted", a.rerouted);
            r.gauge_max("admit.queue_depth_hwm", a.queue_depth_hwm);
            r.gauge_max("admit.defer_depth_hwm", a.defer_depth_hwm);
            r.gauge_max("admit.defer_age_max_ns", a.defer_age_max_ns);
            r.gauge_max("admit.max_batch", a.max_batch);
        }
        for (name, h) in self.swap_phase_latencies() {
            r.hist_merge(&name, &h);
        }
        r
    }

    /// Per-phase swap latency histograms, from the times at which this
    /// host saw each swap enter a phase (`SwapPhaseEntered`): `Init` to
    /// `Locked`, `Locked` to the terminal phase, and end to end. Only the
    /// non-empty ones. Sample-exact and mergeable across nodes, like every
    /// registry histogram.
    pub fn swap_phase_latencies(&self) -> BTreeMap<String, Histogram> {
        SWAP_LATENCIES
            .iter()
            .zip(&self.swap_latency)
            .filter(|(_, h)| !h.is_empty())
            .map(|(name, h)| (name.to_string(), h.clone()))
            .collect()
    }

    // ---- Correlated operations (the `ops` layer) ----

    /// Submits `cmd` as a correlated operation: the returned [`OpId`]'s
    /// terminal [`Completion`] eventually appears in
    /// [`TeechainNode::completions`] — exactly once.
    ///
    /// * `deadline_ns`: absolute simulated time at which a still-pending
    ///   operation is declared dead with [`OpError::Timeout`] (via an
    ///   in-simulation timer, so the timeout is part of the deterministic
    ///   event stream). `None` leaves resolution to the harness's
    ///   quiescence check. Deadlines are for presumed-dead paths (a
    ///   crashed or unreachable peer): the wire protocol carries no
    ///   per-operation correlation ids, so if a deadline shorter than
    ///   the round trip expires on a *live* path, the late response
    ///   FIFO-matches the next same-key operation. Pick deadlines above
    ///   the path RTT.
    ///
    /// When the enclave's monotonic counter is throttled (persistent
    /// mode), the operation parks on the host's park queue and is
    /// re-dispatched in FIFO order by the admission pump — callers never
    /// see `CounterThrottled`.
    pub fn submit_op(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: impl Into<Request>,
        deadline_ns: Option<u64>,
    ) -> OpId {
        let op = self.ops.register(ctx.self_id().0, req.into());
        if self.tracer.enabled() {
            // Root of the operation's causal tree (parent 0).
            let s = span::op_span(op.node, op.seq);
            self.tracer
                .record(ctx.now_ns(), EventKind::OpSubmit, s, 0, op.seq, 0);
        }
        if let Some(deadline) = deadline_ns {
            let delay = deadline.saturating_sub(ctx.now_ns()).max(1);
            ctx.set_timer(delay, OP_DEADLINE_TAG | op.seq);
        }
        self.dispatch_op(ctx, op.seq, false);
        op
    }

    /// Executes (or, from the park queue, re-executes) a pending
    /// operation: runs its host step, issues the command that remains and
    /// decides — here and nowhere else — whether the op ends now and with
    /// what. A counter refusal parks the op (at the front of the queue
    /// when `front`, for the pump's own re-run) and returns true.
    fn dispatch_op(&mut self, ctx: &mut Ctx<'_>, seq: u64, front: bool) -> bool {
        let Some(req) = self.ops.request(seq) else {
            return false;
        };
        if self.tracer.enabled() {
            // Whatever the dispatch does (ecalls, sends) descends from
            // the operation's root span.
            self.tracer.set_cause(span::op_span(ctx.self_id().0, seq));
        }
        let result = self.host_step(ctx, seq, req).and_then(|cmd| {
            let accepted = accepted_output(&cmd);
            self.command(ctx, cmd).map(|()| accepted)
        });
        let now = ctx.now_ns();
        let outcome = match result {
            Ok(Some(out)) => Ok(out),
            // The terminal event either already resolved the operation
            // (it was in this call's own effects) or will arrive over the
            // network.
            Ok(None) => return false,
            // The counter refused it before anything changed.
            Err(ProtocolError::CounterThrottled { ready_at }) => {
                self.park(ctx, Parked::Op(seq), ready_at, front);
                return true;
            }
            Err(e) => Err(OpError::Rejected(e)),
        };
        if let Some(c) = self.ops.complete(seq, now, outcome) {
            self.push_completion(now, c);
        }
        false
    }

    /// A request's host part, returning the command that remains. Once a
    /// composite's host step succeeds the op is rewritten into that
    /// command, so a re-run after a counter refusal issues only it: a
    /// deposit is minted once, a settlement address drawn once.
    fn host_step(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: u64,
        req: Request,
    ) -> Result<Command, ProtocolError> {
        let rest = match req {
            Request::Cmd(cmd) => return Ok(cmd),
            Request::Recover => return self.restart_from_store(),
            Request::FundDeposit { value, m } => Command::NewDeposit {
                deposit: self.mint_committee_deposit(ctx, value, m)?,
            },
            Request::OpenChannel { id, remote } => Command::NewChannel {
                id,
                remote,
                my_settlement: self.hand_out(ctx, Command::NewAddress)?,
            },
        };
        self.ops.rewrite(seq, rest.clone());
        Ok(rest)
    }

    /// Restarts a crashed enclave with a fresh program; returns the
    /// command that replays the durable store into it. The replay fails
    /// with [`ProtocolError::StaleState`] if the store was rolled back.
    fn restart_from_store(&mut self) -> Result<Command, ProtocolError> {
        let store = self.store.clone().ok_or(ProtocolError::BadMessage)?;
        let recovery = store
            .lock()
            .recover()
            .map_err(|_| ProtocolError::BadMessage)?;
        self.enclave.restart(TeechainEnclave::new(self.cfg.clone()));
        Ok(Command::Recover {
            snapshot: recovery.snapshot,
            log: recovery.log,
        })
    }

    /// A composite's hand-out step: carries out every effect of the ecall
    /// (the key's commit) except the last, the address outcome, which it
    /// reads as a `T`, so it cannot be taken for a user-submitted
    /// operation's response.
    fn hand_out<T: OpResult>(
        &mut self,
        ctx: &mut Ctx<'_>,
        cmd: Command,
    ) -> Result<T, ProtocolError> {
        let mut effects = self.ecall(ctx.now_ns(), cmd)?;
        let last = effects.pop();
        self.perform(ctx, effects);
        match last {
            Some(Effect::Done {
                outcome: Ok(out), ..
            }) => T::from_output(out).ok_or(ProtocolError::BadMessage),
            _ => Err(ProtocolError::BadMessage),
        }
    }

    /// Declares a still-pending operation dead (harness quiescence
    /// resolution): records and returns its [`OpError::Timeout`]
    /// completion. `None` if the operation already completed.
    pub fn resolve_dead_op(&mut self, op: OpId, now_ns: u64) -> Option<Completion> {
        let c = self.ops.cancel(op.seq, now_ns)?;
        self.tracer.set_cause(0); // Quiescence resolution has no cause.
        self.push_completion(now_ns, c.clone());
        Some(c)
    }

    /// Declares EVERY still-pending operation dead: the harness calls
    /// this when the network reaches quiescence, at which point no
    /// terminal response can arrive anymore. Guarantees exactly-once
    /// completion delivery even for operations nobody waits on (a stale
    /// pending operation would otherwise poison the per-key FIFO and
    /// steal a later operation's response). Returns how many were
    /// resolved.
    pub fn resolve_all_dead(&mut self, now_ns: u64) -> usize {
        let dead = self.ops.cancel_all(now_ns);
        let n = dead.len();
        self.tracer.set_cause(0); // Quiescence resolution has no cause.
        for c in dead {
            self.push_completion(now_ns, c);
        }
        n
    }

    /// The fund-deposit composite's first steps: a fresh m-of-n committee
    /// address (n = chain length + 1; with `m = 1` and no backups, Alg.
    /// 1's 1-of-1 deposit), `value` minted to it, and the host's required
    /// confirmations. The enclave registers the deposit afterwards
    /// (`NewDeposit`).
    fn mint_committee_deposit(
        &mut self,
        ctx: &mut Ctx<'_>,
        value: u64,
        m: u8,
    ) -> Result<Deposit, ProtocolError> {
        let spec: CommitteeSpec = self.hand_out(ctx, Command::NewCommitteeAddress { m })?;
        let outpoint = {
            let mut chain = self.chain.lock();
            let script =
                teechain_blockchain::ScriptPubKey::multisig(spec.m, spec.member_keys.clone());
            let op = chain.mint(script, value);
            // Ensure our own confirmation policy is met.
            if self.required_confirmations > 1 {
                chain.mine_blocks(self.required_confirmations - 1);
            }
            op
        };
        Ok(Deposit {
            outpoint,
            value,
            committee: spec,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries `node` keeps per operation: its op tracker's, and its
    /// enclave's ack fan-out, owed-ack list and held replication output.
    fn per_op_entries(node: &TeechainNode) -> [usize; 4] {
        let p = node.enclave.program().expect("running");
        let inflight = p.admit.inflight.values().map(VecDeque::len).sum();
        [
            node.ops.entries(),
            inflight,
            p.acks.dirty_len(),
            p.rep.pending.len(),
        ]
    }

    #[test]
    fn per_op_tables_are_empty_at_quiescence_after_many_bursts() {
        use crate::testkit::{Cluster, ClusterConfig};
        use crate::DurabilityBackend;
        const BURSTS: usize = 200;
        let replicated = DurabilityBackend::Replication { backups: 2 };
        for durability in [DurabilityBackend::None, replicated] {
            let mut c = Cluster::new(ClusterConfig {
                durability,
                ..ClusterConfig::default()
            });
            let id = c.standard_channel(0, 1, "tables", 1 << 40, 1);
            for _ in 0..BURSTS {
                for _ in 0..64 {
                    let pay = Command::Pay {
                        id,
                        amount: 1,
                        count: 1,
                    };
                    c.submit(0, pay);
                }
                c.settle_network();
                c.node_mut(0).completions.clear();
            }
            assert_eq!(c.balances(1, id).0, BURSTS as u64 * 64);
            for i in [0, 1] {
                let entries = per_op_entries(c.node(i));
                assert_eq!(entries, [0; 4], "node {i}, {durability:?}");
            }
        }
    }
}
