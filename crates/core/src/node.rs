//! The untrusted host: wraps a Teechain enclave, performs network and
//! blockchain I/O, stores sealed blobs, and coordinates committee
//! co-signing. Nothing here is trusted — a malicious host can only delay
//! or drop traffic, which the protocol tolerates by construction.

use crate::enclave::{Command, Effect, EnclaveConfig, HostEvent, PeerSlot, TeechainEnclave};
use crate::msg::WireView;
use crate::ops::{Completion, OpError, OpId, OpOutput, OpTracker, Progress, Request};
use crate::types::{Deposit, ProtocolError, SwapId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use teechain_blockchain::{Chain, Transaction};
use teechain_crypto::schnorr::{PublicKey, Signature};
use teechain_net::{Ctx, NodeId};
use teechain_persist::SharedStore;
use teechain_tee::{DeviceIdentity, Enclave, Measurement};
use teechain_trace::{span, EventKind, Tracer};
use teechain_util::codec::{Decode, Encode, Reader, WireError};

/// Node-to-node wire wrapper: enclave traffic plus host-level committee
/// signing coordination (signatures are not confidential; only
/// authenticity matters, and that is enforced *inside* the enclave by
/// checking the transaction against replicated state).
pub enum NodeWire {
    /// Enclave-to-enclave message (encoded [`crate::msg::WireMsg`]).
    Enclave(Vec<u8>),
    /// Co-signing request for a settlement.
    SigRequest {
        /// Correlates response with request at the origin.
        req_id: u64,
        /// The origin enclave identity (route the response back).
        origin: PublicKey,
        /// The transaction to co-sign.
        tx: Transaction,
    },
    /// Co-signing response.
    SigResponse {
        /// Correlates with the request.
        req_id: u64,
        /// Granted signatures.
        sigs: Vec<(u32, Signature)>,
        /// True if the member refused.
        refused: bool,
    },
}

impl Encode for NodeWire {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeWire::Enclave(b) => {
                0u8.encode(out);
                b.encode(out);
            }
            NodeWire::SigRequest { req_id, origin, tx } => {
                1u8.encode(out);
                req_id.encode(out);
                origin.encode(out);
                tx.encode(out);
            }
            NodeWire::SigResponse {
                req_id,
                sigs,
                refused,
            } => {
                2u8.encode(out);
                req_id.encode(out);
                sigs.encode(out);
                refused.encode(out);
            }
        }
    }
}

impl Decode for NodeWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read::<u8>()? {
            0 => NodeWire::Enclave(r.read()?),
            1 => NodeWire::SigRequest {
                req_id: r.read()?,
                origin: r.read()?,
                tx: r.read()?,
            },
            2 => NodeWire::SigResponse {
                req_id: r.read()?,
                sigs: r.read()?,
                refused: r.read()?,
            },
            _ => return Err(WireError::InvalidValue("node wire tag")),
        })
    }
}

/// Length of the host's envelope around an enclave message: the
/// [`NodeWire::Enclave`] tag and the message's `u32` length.
const ENVELOPE: usize = 1 + 4;

/// [`NodeWire::Enclave`]`(wire).encode_to_vec()` without the second buffer:
/// the envelope goes in front of the message where it is (a sealed frame
/// arrives with the room to spare).
fn enclave_frame(mut wire: Vec<u8>) -> Vec<u8> {
    let mut envelope = [0u8; ENVELOPE];
    envelope[1..].copy_from_slice(&(wire.len() as u32).to_le_bytes());
    wire.splice(..0, envelope);
    wire
}

/// A received frame read where it lies: enclave traffic — all of it but
/// the co-signing of a settlement — is located, not copied out; the two
/// co-signing messages are decoded. `parse` accepts exactly the frames
/// [`NodeWire::decode_exact`] accepts.
pub(crate) enum NodeWireView {
    /// [`NodeWire::Enclave`]: the encoded [`crate::msg::WireMsg`] runs from
    /// offset `at` to the end of the frame.
    Enclave {
        /// Where the enclave message starts.
        at: usize,
    },
    /// [`NodeWire::SigRequest`] or [`NodeWire::SigResponse`], decoded.
    CoSign(NodeWire),
}

impl NodeWireView {
    pub(crate) fn parse(frame: &[u8]) -> Result<Self, WireError> {
        if frame.first() != Some(&0) {
            return NodeWire::decode_exact(frame).map(NodeWireView::CoSign);
        }
        let mut r = Reader::new(&frame[1..]);
        r.take_prefixed()?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(NodeWireView::Enclave { at: ENVELOPE })
    }
}

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
    /// Committee peers to ask for co-signatures (our chain members).
    pub committee_peers: Vec<PublicKey>,
    /// Host-side sealed storage: the latest full snapshot (persistent
    /// mode). Kept alongside [`TeechainNode::store`] for direct
    /// snapshot-only restores via [`Command::RestoreSealed`].
    pub sealed_store: Option<Vec<u8>>,
    /// Durable WAL + snapshot storage (persistent mode). Owned jointly
    /// with the harness: it models the disk, so it survives enclave and
    /// host crashes.
    pub store: Option<SharedStore>,
    /// Launch configuration, kept to rebuild the program on restart.
    pub cfg: EnclaveConfig,
    /// Events produced by the enclave, in order, with timestamps. This is
    /// the host's *internal* notification stream (unsolicited events such
    /// as `VerifyDeposit` callbacks land here); external callers consume
    /// [`TeechainNode::completions`] instead. Bounded: once the log
    /// reaches [`EVENT_LOG_CAP`] entries the oldest half is dropped, so a
    /// long or pathological run keeps recent history without growing RSS
    /// without bound.
    pub events: Vec<(u64, HostEvent)>,
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
    /// Operations whose dispatch hit [`ProtocolError::CounterThrottled`],
    /// awaiting re-dispatch on the next admission pump: a FIFO gate (see
    /// `pump`).
    throttled: std::collections::VecDeque<u64>,
    /// Entries into `throttled`: first parks and re-parks alike.
    throttle_parked: u64,
    /// Re-dispatches the pump issued from `throttled`.
    throttle_redispatched: u64,
    /// Earliest outstanding pump-timer deadline (0 = none armed). The
    /// enclave asks for pumps via [`HostEvent::PumpAt`]; arming tracks
    /// the earliest request so redundant timers are not set.
    pump_armed_until: u64,
    /// Outstanding swap timers: token low bits → the action to run when
    /// the timer fires (a chain-watch tick, or a counter-throttled swap
    /// command retry).
    swap_timers: HashMap<u64, SwapTimerAction>,
    /// Next swap timer sequence number (48-bit token space).
    swap_timer_seq: u64,
    /// Swap phases entered on this node, indexed by phase discriminant
    /// (Init, Locked, Redeemed, Refunded); feeds the metrics registry.
    swap_phase_counts: [u64; 4],
}

/// What a fired swap timer should do.
enum SwapTimerAction {
    /// Observe the alternate chain and tick the swap state machine.
    Tick(SwapId),
    /// Re-issue a swap command that was counter-throttled.
    Retry(Command),
}

/// Timer token the node uses for admission-pump wakeups (queued-op
/// deadlines, counter-throttle expiry, deferred-message drains).
pub const PUMP_TOKEN: u64 = 0x7EE_C8A1_4E57;

/// Cap on [`TeechainNode::events`]: reaching it drops the oldest half. An
/// entry is 264 bytes, so the log tops out near 4 MiB per node; under a
/// simulated load nothing drains it, and it — not protocol state — is what
/// a long run's resident set measures.
pub const EVENT_LOG_CAP: usize = 16_384;

/// High-16-bit timer-token tag for operation deadline timers (low 48
/// bits carry the operation sequence number).
const OP_DEADLINE_TAG: u64 = 0x4F44 << 48;
/// High-16-bit timer-token tag for swap chain-watch/retry timers (low
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
            committee_peers: Vec::new(),
            sealed_store: None,
            store: None,
            cfg,
            events: Vec::new(),
            completions: Vec::new(),
            ops: OpTracker::default(),
            broadcasts: Vec::new(),
            alt_broadcasts: Vec::new(),
            swap_withhold_verify: false,
            swap_withhold_funding: false,
            delivery_errors: Vec::new(),
            tracer: Tracer::default(),
            throttled: std::collections::VecDeque::new(),
            throttle_parked: 0,
            throttle_redispatched: 0,
            pump_armed_until: 0,
            swap_timers: HashMap::new(),
            swap_timer_seq: 0,
            swap_phase_counts: [0; 4],
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
        // Armed swap timers target the dead program; recovery re-arms
        // fresh checks for every swap that still needs driving.
        self.swap_timers.clear();
        // The restarted program hands out its peer slots afresh.
        self.routes.clear();
    }

    /// Restarts a crashed enclave with a fresh program and replays the
    /// durable store ([`Command::Recover`]). Fails with
    /// [`ProtocolError::StaleState`] if the store was rolled back.
    pub fn recover_from_store(&mut self, ctx: &mut Ctx<'_>) -> Result<(), ProtocolError> {
        let store = self.store.clone().ok_or(ProtocolError::BadMessage)?;
        let recovery = store
            .lock()
            .recover()
            .map_err(|_| ProtocolError::BadMessage)?;
        self.enclave.restart(TeechainEnclave::new(self.cfg.clone()));
        let outcome = self
            .enclave
            .call(
                ctx.now_ns(),
                Command::Recover {
                    snapshot: recovery.snapshot,
                    log: recovery.log,
                },
            )
            .map_err(|_| ProtocolError::Frozen)?;
        // Recovery produces host events only — no network I/O — but the
        // events may ask for swap-check timers, so perform them fully.
        let effects = outcome?;
        self.perform(ctx, effects);
        Ok(())
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
            .enclave
            .call(now_ns, Command::GetIdentity)
            .expect("enclave alive")
            .expect("GetIdentity is infallible");
        for e in &effects {
            if let Effect::Event(HostEvent::Identity(pk)) = e {
                self.identity = Some(*pk);
            }
        }
        self.identity.expect("identity event")
    }

    /// Issues a command to the enclave and performs the resulting effects.
    pub fn command(&mut self, ctx: &mut Ctx<'_>, cmd: Command) -> Result<(), ProtocolError> {
        let t = self.trace_ecall_begin(ctx.now_ns());
        let outcome = self
            .enclave
            .call(ctx.now_ns(), cmd)
            .map_err(|_| ProtocolError::Frozen)?;
        self.trace_ecall_end(ctx.now_ns(), t);
        let effects = outcome?;
        self.perform(ctx, effects);
        Ok(())
    }

    /// Handles an incoming network message.
    pub fn handle_wire(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, bytes: Vec<u8>) {
        let Ok(view) = NodeWireView::parse(&bytes) else {
            return; // Garbage from the network: drop.
        };
        self.handle_frame(ctx, bytes, view);
    }

    /// [`TeechainNode::handle_wire`] for a frame the caller has already
    /// parsed (the simulator host reads the cost class off the same view).
    pub(crate) fn handle_frame(&mut self, ctx: &mut Ctx<'_>, bytes: Vec<u8>, view: NodeWireView) {
        match view {
            NodeWireView::Enclave { at } => {
                self.trace_wire_recv(ctx.now_ns(), &bytes[at..]);
                let t = self.trace_ecall_begin(ctx.now_ns());
                // The buffer that arrived goes in whole: the enclave opens
                // the message where it lies.
                let result = self
                    .enclave
                    .call(ctx.now_ns(), Command::Deliver { wire: bytes, at });
                self.trace_ecall_end(ctx.now_ns(), t);
                match result {
                    Err(_) => {} // Crashed enclave drops traffic.
                    Ok(Ok(effects)) => self.perform(ctx, effects),
                    Ok(Err(ProtocolError::CounterThrottled { ready_at })) => {
                        // Persistent mode backpressure: the enclave stashed
                        // the message; pump once the counter is ready.
                        self.schedule_pump(ctx, ready_at);
                    }
                    Ok(Err(e)) => self.delivery_errors.push(e),
                }
            }
            NodeWireView::CoSign(NodeWire::SigRequest { req_id, origin, tx }) => {
                if self.tracer.enabled() {
                    let s = span::sig_span(req_id, &origin.to_bytes(), 0);
                    self.tracer.record(
                        ctx.now_ns(),
                        EventKind::WireRecv,
                        s,
                        0,
                        bytes.len() as u64,
                        0,
                    );
                    self.tracer.set_cause(s);
                }
                let t = self.trace_ecall_begin(ctx.now_ns());
                let result = self
                    .enclave
                    .call(ctx.now_ns(), Command::CoSign { req_id, tx });
                self.trace_ecall_end(ctx.now_ns(), t);
                if let Ok(Ok(effects)) = result {
                    // CoSignResult events answer back to the origin node.
                    for e in effects {
                        if let Effect::Event(HostEvent::CoSignResult {
                            req_id,
                            sigs,
                            refused,
                        }) = e
                        {
                            if let Some(&node) = self.directory.get(&origin) {
                                let resp = NodeWire::SigResponse {
                                    req_id,
                                    sigs,
                                    refused,
                                };
                                let enc = resp.encode_to_vec();
                                if self.tracer.enabled() {
                                    let s = span::sig_span(req_id, &origin.to_bytes(), 1);
                                    self.tracer.record(
                                        ctx.now_ns(),
                                        EventKind::WireSend,
                                        s,
                                        self.tracer.cause(),
                                        enc.len() as u64,
                                        0,
                                    );
                                }
                                ctx.send(node, enc);
                            }
                        } else {
                            self.perform(ctx, vec![e]);
                        }
                    }
                }
            }
            NodeWireView::CoSign(NodeWire::SigResponse { req_id, sigs, .. }) => {
                if self.tracer.enabled() {
                    // We are the origin the request named, so both ends
                    // derive the response span from our identity.
                    if let Some(me) = self.identity {
                        let s = span::sig_span(req_id, &me.to_bytes(), 1);
                        self.tracer.record(
                            ctx.now_ns(),
                            EventKind::WireRecv,
                            s,
                            0,
                            bytes.len() as u64,
                            0,
                        );
                        self.tracer.set_cause(s);
                    }
                }
                let t = self.trace_ecall_begin(ctx.now_ns());
                let result = self
                    .enclave
                    .call(ctx.now_ns(), Command::AddCoSigs { req_id, sigs });
                self.trace_ecall_end(ctx.now_ns(), t);
                if let Ok(Ok(effects)) = result {
                    self.perform(ctx, effects);
                }
            }
            // `parse` locates enclave traffic; it never decodes it.
            NodeWireView::CoSign(NodeWire::Enclave(_)) => {}
        }
    }

    /// Arms (or keeps) a pump timer no later than `at`. Stale timers
    /// fire harmlessly: the pump is idempotent.
    fn schedule_pump(&mut self, ctx: &mut Ctx<'_>, at: u64) {
        if self.pump_armed_until != 0 && self.pump_armed_until <= at {
            return;
        }
        self.pump_armed_until = at;
        let delay = at.saturating_sub(ctx.now_ns()).max(1);
        ctx.set_timer(delay, PUMP_TOKEN);
    }

    /// Fires node timers: admission pumps and operation deadlines.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token & OP_TAG_MASK == OP_DEADLINE_TAG {
            let seq = token & !OP_TAG_MASK;
            if let Some(c) = self.ops.cancel(seq, ctx.now_ns()) {
                self.tracer.set_cause(0); // A deadline firing has no cause.
                self.trace_completion(ctx.now_ns(), &c);
                self.completions.push(c);
            }
            return;
        }
        if token & OP_TAG_MASK == SWAP_TIMER_TAG {
            let seq = token & !OP_TAG_MASK;
            match self.swap_timers.remove(&seq) {
                Some(SwapTimerAction::Tick(swap)) => self.swap_tick(ctx, swap),
                Some(SwapTimerAction::Retry(cmd)) => self.swap_call(ctx, cmd),
                None => {}
            }
            return;
        }
        if token != PUMP_TOKEN {
            return;
        }
        self.pump_armed_until = 0;
        self.pump(ctx);
    }

    /// Arms a swap timer firing at absolute time `at`.
    fn arm_swap_timer(&mut self, ctx: &mut Ctx<'_>, at: u64, action: SwapTimerAction) {
        let seq = self.swap_timer_seq;
        self.swap_timer_seq = self.swap_timer_seq.wrapping_add(1) & !OP_TAG_MASK;
        self.swap_timers.insert(seq, action);
        let delay = at.saturating_sub(ctx.now_ns()).max(1);
        ctx.set_timer(delay, SWAP_TIMER_TAG | seq);
    }

    /// Issues a swap command to the enclave; a counter-throttled
    /// rejection re-arms the command itself as a retry timer (swap
    /// commands are host reactions, not tracked operations, so the
    /// admission pump cannot re-dispatch them).
    fn swap_call(&mut self, ctx: &mut Ctx<'_>, cmd: Command) {
        let t = self.trace_ecall_begin(ctx.now_ns());
        let result = self.enclave.call(ctx.now_ns(), cmd.clone());
        self.trace_ecall_end(ctx.now_ns(), t);
        match result {
            Err(_) => {} // Crashed enclave: recovery re-drives swaps.
            Ok(Ok(effects)) => self.perform(ctx, effects),
            Ok(Err(ProtocolError::CounterThrottled { ready_at })) => {
                self.arm_swap_timer(ctx, ready_at, SwapTimerAction::Retry(cmd));
            }
            Ok(Err(e)) => self.delivery_errors.push(e),
        }
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
                        crate::swap::SwapPhase::Locked => ctx.now_ns() >= state.deadline_ns,
                        crate::swap::SwapPhase::Refunded => true,
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
        self.swap_call(
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
    /// messages) and then opens the host's throttle queue as a FIFO gate:
    /// parked operations are re-dispatched in order until the counter
    /// refuses one again.
    ///
    /// Stopping there loses nothing. An operation is parked only after
    /// the counter refused it, and every counter-gated handler checks the
    /// counter before it mutates anything (the composites resume past
    /// their completed steps, see `dispatch_op`). So once the counter
    /// refuses one parked operation, it would refuse each one behind it
    /// the same way, with no state change: they stay parked untouched
    /// instead of costing an ecall each per counter window.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        self.tracer.set_cause(0); // Timer-driven: the pump ecall is a root.
        let t = self.trace_ecall_begin(ctx.now_ns());
        let result = self.enclave.call(ctx.now_ns(), Command::PumpAdmission);
        self.trace_ecall_end(ctx.now_ns(), t);
        let pump_span = self.tracer.cause();
        match result {
            Ok(Ok(effects)) => self.perform(ctx, effects),
            Ok(Err(ProtocolError::CounterThrottled { ready_at })) => {
                self.schedule_pump(ctx, ready_at);
                return; // The counter gates the throttled ops too.
            }
            _ => {}
        }
        while let Some(seq) = self.throttled.pop_front() {
            if !self.ops.is_pending(seq) {
                continue; // Resolved while parked (deadline): drop it.
            }
            if self.tracer.enabled() {
                // Un-park: the op leaves the host throttle queue,
                // causally released by this pump.
                let s = span::op_span(ctx.self_id().0, seq);
                self.tracer
                    .record(ctx.now_ns(), EventKind::QueueExit, s, pump_span, 0, 0);
            }
            self.throttle_redispatched += 1;
            if let Some(ready_at) = self.dispatch_op(ctx, seq) {
                // Back at the head, ahead of everything parked after it.
                self.park(ctx, seq, ready_at, true);
                break;
            }
        }
    }

    /// Puts a counter-throttled operation on the throttle queue — at the
    /// front for one the pump re-dispatched, at the back for a new
    /// submission — and arms a pump for when the counter is ready.
    fn park(&mut self, ctx: &mut Ctx<'_>, seq: u64, ready_at: u64, front: bool) {
        if self.tracer.enabled() {
            let s = span::op_span(ctx.self_id().0, seq);
            self.tracer.record(
                ctx.now_ns(),
                EventKind::QueueEnter,
                s,
                self.tracer.cause(),
                0,
                0,
            );
        }
        if front {
            self.throttled.push_front(seq);
        } else {
            self.throttled.push_back(seq);
        }
        self.throttle_parked += 1;
        self.schedule_pump(ctx, ready_at);
    }

    /// Carries out enclave effects: sends, broadcasts, chain checks,
    /// co-sign fan-out, persistence, event collection.
    pub fn perform(&mut self, ctx: &mut Ctx<'_>, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, peer, wire } => {
                    if let Some(node) = self.route(&to, peer) {
                        self.trace_wire_send(ctx.now_ns(), &to, &wire);
                        ctx.send(node, enclave_frame(wire));
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
                        if self.tracer.enabled() {
                            let cause = self.tracer.cause();
                            self.tracer.record(
                                ctx.now_ns(),
                                EventKind::WalAppend,
                                cause,
                                cause,
                                blob.len() as u64,
                                0,
                            );
                        }
                    }
                }
                Effect::Persist(blob) => {
                    if let Some(store) = &self.store {
                        store
                            .lock()
                            .install_snapshot(&blob)
                            .expect("durable snapshot install failed; node cannot continue");
                    }
                    if self.tracer.enabled() {
                        let cause = self.tracer.cause();
                        self.tracer.record(
                            ctx.now_ns(),
                            EventKind::WalSnapshot,
                            cause,
                            cause,
                            blob.len() as u64,
                            0,
                        );
                    }
                    self.sealed_store = Some(blob);
                }
                Effect::Event(event) => {
                    self.react(ctx, &event);
                    self.note_event(ctx.now_ns(), event);
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

    /// Automatic host reactions to enclave events.
    fn react(&mut self, ctx: &mut Ctx<'_>, event: &HostEvent) {
        match event {
            HostEvent::VerifyDeposit { remote, deposit } => {
                // The host checks the chain per its own policy and answers.
                let valid = self.verify_deposit_on_chain(deposit);
                let outpoint = deposit.outpoint;
                let remote = *remote;
                let result = self.enclave.call(
                    ctx.now_ns(),
                    Command::DepositVerified {
                        remote,
                        outpoint,
                        valid,
                    },
                );
                if let Ok(Ok(effects)) = result {
                    self.perform(ctx, effects);
                }
            }
            HostEvent::PumpAt(at) => {
                let at = *at;
                self.schedule_pump(ctx, at);
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
                        None => chain.mint(script.clone(), *value),
                    }
                };
                let swap = *swap;
                self.swap_call(ctx, Command::SwapFunded { swap, outpoint });
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
                        .is_some_and(|out| out.value == *value && out.script == *script);
                    (valid, chain.confirmations(&outpoint.txid))
                };
                let swap = *swap;
                self.swap_call(
                    ctx,
                    Command::SwapHtlcVerified {
                        swap,
                        valid,
                        confirmations,
                    },
                );
            }
            HostEvent::SwapCheckAt { swap, at } => {
                let (swap, at) = (*swap, *at);
                self.arm_swap_timer(ctx, at, SwapTimerAction::Tick(swap));
            }
            HostEvent::SwapPhaseEntered { phase, .. } => {
                self.swap_phase_counts[*phase as usize] += 1;
            }
            HostEvent::NeedCoSign { req_id, tx } => {
                let me = self.identity.expect("identity known by now");
                for peer in self.committee_peers.clone() {
                    if let Some(&node) = self.directory.get(&peer) {
                        let req = NodeWire::SigRequest {
                            req_id: *req_id,
                            origin: me,
                            tx: tx.clone(),
                        };
                        let enc = req.encode_to_vec();
                        if self.tracer.enabled() {
                            // One span for the whole fan-out: every
                            // receiver derives the same id from
                            // (req_id, origin).
                            let s = span::sig_span(*req_id, &me.to_bytes(), 0);
                            self.tracer.record(
                                ctx.now_ns(),
                                EventKind::WireSend,
                                s,
                                self.tracer.cause(),
                                enc.len() as u64,
                                0,
                            );
                        }
                        ctx.send(node, enc);
                    }
                }
            }
            _ => {}
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

    /// Routes a host event through the operation tracker (which may
    /// resolve a pending operation into a completion), then records it on
    /// the internal notification stream.
    fn note_event(&mut self, now_ns: u64, event: HostEvent) {
        if let Some(c) = self.ops.observe(&event, now_ns) {
            self.trace_completion(now_ns, &c);
            self.completions.push(c);
        }
        if self.events.len() >= EVENT_LOG_CAP {
            self.events.drain(..EVENT_LOG_CAP / 2);
        }
        self.events.push((now_ns, event));
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
            let s = span::wire_span(from, &me.to_bytes(), seq);
            self.tracer
                .record(now_ns, EventKind::WireRecv, s, 0, wire.len() as u64, 0);
            self.tracer.set_cause(s);
        }
    }

    /// Records an outbound sealed frame, parented to the emitting ecall.
    fn trace_wire_send(&mut self, now_ns: u64, to: &PublicKey, wire: &[u8]) {
        if !self.tracer.enabled() {
            return;
        }
        if let Ok(WireView::Sealed { from, seq, .. }) = WireView::parse(wire) {
            let s = span::wire_span(from, &to.to_bytes(), seq);
            self.tracer.record(
                now_ns,
                EventKind::WireSend,
                s,
                self.tracer.cause(),
                wire.len() as u64,
                0,
            );
        }
    }

    /// Records an operation's terminal completion against its root span.
    fn trace_completion(&mut self, now_ns: u64, c: &Completion) {
        if !self.tracer.enabled() {
            return;
        }
        let s = span::op_span(c.op.node, c.op.seq);
        self.tracer.record(
            now_ns,
            EventKind::OpComplete,
            s,
            self.tracer.cause(),
            c.outcome.is_ok() as u64,
            0,
        );
    }

    /// Snapshots this node's metrics into a fresh registry: host-level
    /// counters, admission totals and the queue-depth/defer-age
    /// high-watermarks as gauges. Mergeable across nodes (counters add,
    /// gauges take the max).
    pub fn registry(&self) -> teechain_trace::Registry {
        let mut r = teechain_trace::Registry::new();
        r.counter("node.completions", self.completions.len() as u64);
        r.counter("node.events", self.events.len() as u64);
        r.counter("node.broadcasts", self.broadcasts.len() as u64);
        r.counter("node.alt_broadcasts", self.alt_broadcasts.len() as u64);
        r.counter("node.delivery_errors", self.delivery_errors.len() as u64);
        r.counter("node.throttle.parked", self.throttle_parked);
        r.counter("node.throttle.redispatched", self.throttle_redispatched);
        r.counter("swap.phase.init", self.swap_phase_counts[0]);
        r.counter("swap.phase.locked", self.swap_phase_counts[1]);
        r.counter("swap.phase.redeemed", self.swap_phase_counts[2]);
        r.counter("swap.phase.refunded", self.swap_phase_counts[3]);
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

    /// Per-phase swap latency histograms, computed from this node's host
    /// event log (`SwapPhaseEntered` timestamps): time from `Init` to
    /// `Locked`, from `Locked` to the terminal phase, and end to end.
    /// Sample-exact and mergeable across nodes, like every registry
    /// histogram.
    pub fn swap_phase_latencies(
        &self,
    ) -> std::collections::BTreeMap<String, teechain_trace::Histogram> {
        use crate::swap::SwapPhase;
        let mut entered: std::collections::BTreeMap<SwapId, [Option<u64>; 4]> =
            std::collections::BTreeMap::new();
        for (ts, e) in &self.events {
            if let HostEvent::SwapPhaseEntered { swap, phase } = e {
                let slots = entered.entry(*swap).or_default();
                let slot = &mut slots[*phase as usize];
                if slot.is_none() {
                    *slot = Some(*ts);
                }
            }
        }
        let mut out: std::collections::BTreeMap<String, teechain_trace::Histogram> =
            std::collections::BTreeMap::new();
        for slots in entered.values() {
            let init = slots[SwapPhase::Init as usize];
            let locked = slots[SwapPhase::Locked as usize];
            let terminal =
                slots[SwapPhase::Redeemed as usize].or(slots[SwapPhase::Refunded as usize]);
            if let (Some(a), Some(b)) = (init, locked) {
                out.entry("swap.latency.init_to_locked".into())
                    .or_default()
                    .record(b.saturating_sub(a));
            }
            if let (Some(a), Some(b)) = (locked, terminal) {
                out.entry("swap.latency.locked_to_terminal".into())
                    .or_default()
                    .record(b.saturating_sub(a));
            }
            if let (Some(a), Some(b)) = (init, terminal) {
                out.entry("swap.latency.total".into())
                    .or_default()
                    .record(b.saturating_sub(a));
            }
        }
        out
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
    /// mode), the operation parks on the host's throttle queue and is
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
        if let Some(ready_at) = self.dispatch_op(ctx, op.seq) {
            self.park(ctx, op.seq, ready_at, false);
        }
        op
    }

    /// Executes (or re-executes, once the counter throttle lifts) a
    /// pending operation's job and resolves what can be resolved
    /// synchronously. Returns when the counter is ready again if it
    /// refused the operation, which the caller then parks.
    ///
    /// A composite's first step hands out a key and its last registers
    /// it; both are counter-gated. When the last one is throttled, what
    /// the earlier steps produced is kept with the op ([`Progress`]) and
    /// the re-dispatch starts there: a deposit is minted once, a
    /// settlement address drawn once.
    fn dispatch_op(&mut self, ctx: &mut Ctx<'_>, seq: u64) -> Option<u64> {
        let (req, progress) = self.ops.request(seq)?;
        if self.tracer.enabled() {
            // Whatever the dispatch does (ecalls, sends) descends from
            // the operation's root span.
            self.tracer.set_cause(span::op_span(ctx.self_id().0, seq));
        }
        let result: Result<Option<OpOutput>, ProtocolError> = match req {
            Request::Cmd(cmd) => self.command(ctx, cmd).map(|()| None),
            Request::FundDeposit { value, m } => {
                let minted = match progress {
                    Some(Progress::Minted(deposit)) => Ok(deposit),
                    _ => self.mint_committee_deposit(ctx, value, m),
                };
                minted.and_then(|deposit| {
                    let cmd = Command::NewDeposit {
                        deposit: deposit.clone(),
                    };
                    self.gated_step(ctx, seq, cmd, Progress::Minted(deposit.clone()))
                        .map(|()| Some(OpOutput::DepositFunded(deposit)))
                })
            }
            Request::OpenChannel { id, remote } => {
                let address = match progress {
                    Some(Progress::Settlement(pk)) => Ok(pk),
                    _ => self.hand_out(ctx, Command::NewAddress, |e| match e {
                        HostEvent::NewAddress(pk) => Some(pk),
                        _ => None,
                    }),
                };
                address.and_then(|my_settlement| {
                    let cmd = Command::NewChannel {
                        id,
                        remote,
                        my_settlement,
                    };
                    self.gated_step(ctx, seq, cmd, Progress::Settlement(my_settlement))
                        .map(|()| None)
                })
            }
            Request::Recover => self.recover_from_store(ctx).map(|()| None),
        };
        match result {
            Ok(output) => {
                if let Some(out) = output {
                    self.finish_op(seq, ctx.now_ns(), Ok(out));
                } else if self.ops.expects_nothing(seq) {
                    // No asynchronous terminal event: accepted == done.
                    self.finish_op(seq, ctx.now_ns(), Ok(OpOutput::Done));
                }
                // Otherwise the terminal event either already resolved
                // the operation (it was in this call's own effects) or
                // will arrive over the network.
            }
            // The counter refused it before anything changed: the caller
            // parks it for the pump.
            Err(ProtocolError::CounterThrottled { ready_at }) => return Some(ready_at),
            Err(e) => self.finish_op(seq, ctx.now_ns(), Err(OpError::Rejected(e))),
        }
        None
    }

    /// Runs a composite's last step; if the counter refuses it, records
    /// `done` (what the steps before it produced) with the op.
    fn gated_step(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: u64,
        cmd: Command,
        done: Progress,
    ) -> Result<(), ProtocolError> {
        let result = self.command(ctx, cmd);
        if let Err(ProtocolError::CounterThrottled { .. }) = result {
            self.ops.set_progress(seq, done);
        }
        result
    }

    /// A composite's hand-out step: carries out every effect of the ecall
    /// (the key's commit) except the last, the address event: `pick` reads
    /// it, so it cannot be taken for a user-submitted operation's response.
    fn hand_out<T>(
        &mut self,
        ctx: &mut Ctx<'_>,
        cmd: Command,
        pick: impl Fn(HostEvent) -> Option<T>,
    ) -> Result<T, ProtocolError> {
        let mut effects = self
            .enclave
            .call(ctx.now_ns(), cmd)
            .map_err(|_| ProtocolError::Frozen)??;
        let last = effects.pop();
        self.perform(ctx, effects);
        match last {
            Some(Effect::Event(event)) => pick(event).ok_or(ProtocolError::BadMessage),
            _ => Err(ProtocolError::BadMessage),
        }
    }

    fn finish_op(&mut self, seq: u64, now_ns: u64, outcome: Result<OpOutput, OpError>) {
        if let Some(c) = self.ops.complete(seq, now_ns, outcome) {
            self.trace_completion(now_ns, &c);
            self.completions.push(c);
        }
    }

    /// Declares a still-pending operation dead (harness quiescence
    /// resolution): records and returns its [`OpError::Timeout`]
    /// completion. `None` if the operation already completed.
    pub fn resolve_dead_op(&mut self, op: OpId, now_ns: u64) -> Option<Completion> {
        let c = self.ops.cancel(op.seq, now_ns)?;
        self.tracer.set_cause(0); // Quiescence resolution has no cause.
        self.trace_completion(now_ns, &c);
        self.completions.push(c.clone());
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
        for c in &dead {
            self.trace_completion(now_ns, c);
        }
        self.completions.extend(dead);
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
        let spec = self.hand_out(ctx, Command::NewCommitteeAddress { m }, |e| match e {
            HostEvent::CommitteeAddress(spec) => Some(spec),
            _ => None,
        })?;
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
    use crate::msg::ProtocolMsg;
    use crate::session::Session;
    use crate::types::ChannelId;
    use teechain_blockchain::{OutPoint, ScriptPubKey, TxId, TxIn, TxOut};
    use teechain_crypto::schnorr::Keypair;

    /// One encoded frame of each `NodeWire` variant.
    fn one_of_each_node_wire() -> Vec<Vec<u8>> {
        let kp = Keypair::from_seed(&[5; 32]);
        let mut tx = Transaction {
            inputs: vec![TxIn::spend(OutPoint {
                txid: TxId([9; 32]),
                vout: 1,
            })],
            outputs: vec![TxOut {
                value: 3,
                script: ScriptPubKey::P2pk(kp.pk),
            }],
        };
        tx.sign_input(0, &kp);
        vec![
            NodeWire::Enclave((0..100).collect()).encode_to_vec(),
            NodeWire::Enclave(vec![]).encode_to_vec(),
            NodeWire::SigRequest {
                req_id: 7,
                origin: kp.pk,
                tx,
            }
            .encode_to_vec(),
            NodeWire::SigResponse {
                req_id: 7,
                sigs: vec![(0, kp.sign(b"a")), (4, kp.sign(b"b"))],
                refused: false,
            }
            .encode_to_vec(),
        ]
    }

    /// The view of `frame`, rendered as the owned message it stands for.
    fn view_as_owned(frame: &[u8]) -> Result<NodeWire, WireError> {
        Ok(match NodeWireView::parse(frame)? {
            NodeWireView::Enclave { at } => NodeWire::Enclave(frame[at..].to_vec()),
            NodeWireView::CoSign(msg) => {
                assert!(!matches!(msg, NodeWire::Enclave(_)));
                msg
            }
        })
    }

    #[test]
    fn the_view_reads_what_the_decoder_decodes() {
        for frame in one_of_each_node_wire() {
            assert_eq!(view_as_owned(&frame).unwrap().encode_to_vec(), frame);
            assert_eq!(
                NodeWire::decode_exact(&frame).unwrap().encode_to_vec(),
                frame
            );
            for len in 0..frame.len() {
                assert!(NodeWire::decode_exact(&frame[..len]).is_err());
                assert!(NodeWireView::parse(&frame[..len]).is_err(), "cut at {len}");
            }
            let mut longer = frame.clone();
            longer.push(0);
            assert!(NodeWire::decode_exact(&longer).is_err());
            assert!(NodeWireView::parse(&longer).is_err());
            // Every bit of the tag and of the envelope's length field.
            for bit in 0..8 * ENVELOPE {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let (owned, viewed) = (NodeWire::decode_exact(&bad), view_as_owned(&bad));
                assert_eq!(owned.is_ok(), viewed.is_ok(), "bit {bit}");
                if let (Ok(o), Ok(v)) = (owned, viewed) {
                    assert_eq!(o.encode_to_vec(), v.encode_to_vec());
                }
            }
        }
        assert!(NodeWireView::parse(&[]).is_err());
        assert!(NodeWireView::parse(&[0]).is_err());
        assert!(NodeWireView::parse(&[0, 0xff, 0xff, 0xff, 0xff, 1]).is_err());
        assert!(NodeWireView::parse(&[3; 64]).is_err());
    }

    #[test]
    fn the_envelope_goes_around_a_sealed_frame_where_it_is() {
        let (a, b) = (
            Keypair::from_seed(&[1; 32]).pk,
            Keypair::from_seed(&[2; 32]).pk,
        );
        let mut session = Session::derive(&[9; 32], &a, &b);
        let pay = ProtocolMsg::Pay {
            id: ChannelId::from_label("frame"),
            amount: u64::MAX,
            count: u32::MAX,
        };
        let wire = session.seal_frame(&a, &pay);
        let (expect, buffer) = (
            NodeWire::Enclave(wire.clone()).encode_to_vec(),
            wire.as_ptr(),
        );
        let frame = enclave_frame(wire);
        assert_eq!(frame, expect);
        // A payment's frame was allocated with the envelope's room to
        // spare: same buffer, shifted, not a second one.
        assert_eq!(frame.as_ptr(), buffer);
        // Any other message is wrapped the same way, room or no room.
        for wire in [vec![], vec![1], (0..=255).collect::<Vec<u8>>()] {
            assert_eq!(
                enclave_frame(wire.clone()),
                NodeWire::Enclave(wire).encode_to_vec()
            );
        }
    }
}
