//! The Teechain enclave program: its state, the ecall interface, and the
//! dispatcher that passes every command and delivered message through its
//! row of the gate table (`Gate`) before the handler runs.
//!
//! The enclave is a *sans-io* state machine: every command or delivered
//! message produces a list of [`Effect`]s (messages to send, transactions
//! to broadcast, notifications for the host). The host performs all actual
//! I/O — it is untrusted, so nothing it does with the effects can violate
//! balance correctness; at worst it loses liveness, which the settlement
//! path recovers from.
//!
//! The handlers live next to the state they change: payment channels
//! (Alg. 1) in [`crate::channel`] and [`crate::deposit`], multi-hop
//! payments (Alg. 2) in [`crate::multihop`], chain replication and
//! committees (Alg. 3, §6) in [`crate::replication`], atomic swaps in
//! [`crate::swap`], admission in [`crate::admit`], the handshake in
//! [`crate::session`], and the state image and recovery in
//! `crate::durable`.

use crate::admit::AdmitState;
use crate::channel::{self, Channel, OwedAcks};
use crate::deposit::DepositBook;
use crate::durability::DurabilityBackend;
use crate::durable::DurableState;
use crate::msg::{ProtocolMsg, StateDelta, WireView};
use crate::ops::{MatchKey, OpError, OpOutput, SettleKind, Settlement};
use crate::replication::{Gated, Replication, SigCollect, ACK_EVERY};
use crate::session::Session;
use crate::slots::SlotMap;
use crate::swap::{SwapPhase, SwapState};
use crate::types::{ChannelId, Deposit, ProtocolError, RouteId, SwapId};
use std::collections::HashMap;
use teechain_crypto::schnorr::{Keypair, PrivateKey, PublicKey};
use teechain_tee::{EnclaveEnv, EnclaveProgram, Measurement};
use teechain_util::codec::Encode;

/// Static enclave configuration, fixed at launch.
#[derive(Clone)]
pub struct EnclaveConfig {
    /// Manufacturer root key for verifying peer attestation quotes.
    pub trust_root: PublicKey,
    /// The measurement peers must present (same build of this program).
    pub measurement: Measurement,
    /// Fault-tolerance backend (§6). Under
    /// [`DurabilityBackend::Persist`], every state change requires a
    /// (throttled) monotonic counter increment and emits a sealed WAL
    /// record, plus a periodic sealed snapshot per the policy.
    pub durability: DurabilityBackend,
}

impl EnclaveConfig {
    /// True in §6.2 persistent-storage mode.
    pub fn persist(&self) -> bool {
        self.durability.is_persist()
    }

    /// Commits between full sealed snapshots (1 when not persisting).
    fn snapshot_every(&self) -> u64 {
        self.durability
            .persist_policy()
            .map(|p| p.snapshot_every.max(1) as u64)
            .unwrap_or(1)
    }
}

/// Ecalls accepted by the Teechain enclave.
#[derive(Clone)]
pub enum Command {
    /// Returns this enclave's identity key; as an operation it completes
    /// with [`OpOutput::Identity`].
    GetIdentity,
    /// Initiates a secure session with a remote enclave (identity key
    /// exchanged out-of-band, §4.1).
    StartSession {
        /// Remote enclave identity.
        remote: PublicKey,
    },
    /// Delivers a raw network message.
    Deliver {
        /// The buffer that arrived from the network, as it arrived: an
        /// encoded [`WireMsg`](crate::msg::WireMsg), which the enclave
        /// opens where it lies. Anything else is refused with
        /// [`ProtocolError::BadMessage`].
        wire: Vec<u8>,
        /// The host's word that another message for this node is queued
        /// behind this one, due now
        /// ([`teechain_net::Ctx::more_messages`]). The enclave then keeps
        /// what it owes for its queued input: a payee the acknowledgements
        /// of the payments it applies, a committee chain member the
        /// updates it applies, and a chain head the deltas of a delivery
        /// that produced no output. It releases them, as one cumulative
        /// `PayAck` per channel, one ack or forward of the chain and one
        /// head update, at the next ecall that is not such a delivery, or
        /// once [`ACK_EVERY`] are owed. The
        /// message behind makes that ecall, or its host pumps
        /// ([`Command::PumpAdmission`]) when it does not. A host that lies
        /// only delays what is owed: false on every delivery passes each
        /// payment and update on alone.
        more: bool,
    },
    /// Generates a fresh blockchain address inside the TEE (Alg. 1
    /// `newAddr`); as an operation it completes with
    /// [`OpOutput::Address`].
    NewAddress,
    /// Builds an m-of-n committee spec for a new deposit: a fresh
    /// per-deposit key plus every chain member's blockchain key (§6.1).
    /// As an operation it completes with
    /// [`OpOutput::Committee`].
    NewCommitteeAddress {
        /// Signature threshold `m` (1 ≤ m ≤ chain length + 1).
        m: u8,
    },
    /// Opens a payment channel (Alg. 1 `newPayChannel`).
    NewChannel {
        /// Channel id (unique per peer pair).
        id: ChannelId,
        /// Remote enclave identity.
        remote: PublicKey,
        /// Our on-chain settlement address.
        my_settlement: PublicKey,
    },
    /// Registers an on-chain deposit paying into an address (set) whose
    /// first committee key this enclave controls (Alg. 1 `newDeposit`).
    NewDeposit {
        /// The deposit.
        deposit: Deposit,
    },
    /// Releases a free deposit back to an address (Alg. 1
    /// `releaseDeposit`).
    ReleaseDeposit {
        /// The deposit to release.
        outpoint: teechain_blockchain::OutPoint,
        /// Payout address.
        to: PublicKey,
    },
    /// Asks `remote` to approve our deposit (Alg. 1 `approveMyDeposit`).
    ApproveDeposit {
        /// The counterparty.
        remote: PublicKey,
        /// Our free deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Host's answer to [`HostEvent::VerifyDeposit`]: the deposit is (not)
    /// confirmed on chain with the host's required confirmations.
    DepositVerified {
        /// The deposit owner.
        remote: PublicKey,
        /// The deposit.
        outpoint: teechain_blockchain::OutPoint,
        /// Whether the host found it valid.
        valid: bool,
    },
    /// Associates an approved free deposit with a channel (Alg. 1
    /// `associateMyDeposit`).
    AssociateDeposit {
        /// The channel.
        id: ChannelId,
        /// Our deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Starts dissociating a deposit (Alg. 1 `dissociateDeposit`).
    DissociateDeposit {
        /// The channel.
        id: ChannelId,
        /// The deposit.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Sends a payment (Alg. 1 `pay`); `count` logical payments may be
    /// batched into one message (§7 client-side batching).
    Pay {
        /// The channel.
        id: ChannelId,
        /// Total amount.
        amount: u64,
        /// Batched logical payment count (≥1).
        count: u32,
    },
    /// Settles a channel (Alg. 1 `settle`): off-chain if balances are
    /// neutral, otherwise generates a settlement transaction.
    Settle {
        /// The channel.
        id: ChannelId,
    },
    /// Issues a multi-hop payment (Alg. 2 `payMultihop`); this enclave is
    /// p1, `hops` are p1..pn identities, `channels` the path's channels.
    PayMultihop {
        /// Route instance id (fresh).
        route: RouteId,
        /// Path identities p1..pn (including ourselves first).
        hops: Vec<PublicKey>,
        /// Path channels (len = hops-1).
        channels: Vec<ChannelId>,
        /// Amount.
        amount: u64,
    },
    /// Prematurely terminates a multi-hop payment (Alg. 2 `eject`).
    Eject {
        /// The route.
        route: RouteId,
    },
    /// Ejects with a proof of premature termination: a *confirmed*
    /// conflicting settlement placed by another participant (Alg. 2
    /// `eject(popt)`). The host asserts confirmation; the enclave verifies
    /// the conflict structure.
    EjectWithPopt {
        /// The route.
        route: RouteId,
        /// The confirmed conflicting transaction.
        popt: teechain_blockchain::Transaction,
    },
    /// Attaches a backup TEE: we become its replication upstream
    /// (Alg. 3 `assignAsBackupFor`, inverted: command goes to the chain
    /// member gaining a backup). Requires an established session.
    AttachBackup {
        /// The backup's identity key.
        backup: PublicKey,
    },
    /// Force-freeze read of replicated state (issued on a backup, §6):
    /// freezes the chain; as an operation it completes with the replica
    /// summary ([`OpOutput::ReplicaState`]).
    ReadReplica,
    /// Generates settlement transactions for every replicated channel (the
    /// failover path after the primary crashed).
    SettleFromReplica,
    /// Full crash recovery from durable storage (§6.2): the latest
    /// sealed snapshot (if any) plus every sealed WAL record appended
    /// after it, oldest first. The enclave verifies that commit counters
    /// form an unbroken chain ending at the hardware monotonic counter;
    /// any gap — a rolled-back snapshot, a dropped log suffix, a torn
    /// tail — is rejected with [`ProtocolError::StaleState`].
    Recover {
        /// Sealed snapshot from [`Effect::Persist`], if one was taken.
        snapshot: Option<Vec<u8>>,
        /// Sealed WAL records from [`Effect::AppendLog`], oldest first.
        log: Vec<Vec<u8>>,
    },
    /// Pumps the enclave: expires queued/deferred ops past their
    /// deadline, drains any unlocked channel with a backlog, and
    /// re-dispatches messages stashed while the monotonic counter was
    /// throttled (persistent mode, §6.2). The host calls this at the time
    /// given by [`HostEvent::PumpAt`]. Like every ecall but a
    /// [`Command::Deliver`] with `more`, it also releases what the enclave
    /// owes for its input.
    PumpAdmission,
    /// Initiates a cross-chain atomic swap: trades `amount` of our
    /// balance on `channel` for `alt_amount` locked for us on the
    /// alternate chain behind an HTLC hashed to a secret drawn inside
    /// this enclave. As an operation it completes with [`OpOutput::Swap`]
    /// once the swap resolves (redeemed or refunded) — a stuck swap is a
    /// protocol bug.
    Swap {
        /// Host-chosen swap instance id (operation correlation).
        swap: SwapId,
        /// The channel whose balance is traded.
        channel: ChannelId,
        /// Channel balance moved to the counterparty on redeem.
        amount: u64,
        /// Alternate-chain value the counterparty must lock for us.
        alt_amount: u64,
        /// HTLC refund timelock in alternate-chain confirmations.
        timeout_blocks: u64,
    },
    /// Host's answer to [`HostEvent::SwapFundingNeeded`]: the HTLC
    /// output was funded on the alternate chain at `outpoint`.
    SwapFunded {
        /// The swap.
        swap: SwapId,
        /// The funded HTLC output.
        outpoint: teechain_blockchain::OutPoint,
    },
    /// Host's answer to [`HostEvent::VerifySwapHtlc`]: whether the
    /// counterparty's HTLC is live on the alternate chain with the
    /// expected script and value.
    SwapHtlcVerified {
        /// The swap.
        swap: SwapId,
        /// True if the HTLC checked out (script and value match a live
        /// confirmed output).
        valid: bool,
        /// Confirmations of the HTLC output as observed by the host. The
        /// enclave — not the host — enforces the maturity policy: it
        /// redeems only while the refund timelock still has headroom
        /// (`confirmations + SWAP_REFUND_SAFETY_BLOCKS < timeout_blocks`),
        /// so a lock delivered late cannot extract the secret.
        confirmations: u64,
    },
    /// Host timer report for a swap (armed by
    /// [`HostEvent::SwapCheckAt`]): the current alternate-chain view of
    /// the HTLC output. Drives deadline aborts, timeout refunds, and the
    /// chain-watch redeem fallback (learning the preimage from a
    /// confirmed claim spend instead of a lost `SwapSecret` message).
    SwapTick {
        /// The swap.
        swap: SwapId,
        /// Preimage carried by a confirmed spend of the HTLC, if any.
        spent_preimage: Option<Vec<u8>>,
        /// Confirmations of the HTLC output (0 if unfunded/spent).
        confirmations: u64,
        /// True once our own claim spend is confirmed.
        claim_confirmed: bool,
    },
}

/// Requests from the enclave to its host: check the chain, fund or
/// verify a lock, call back at a time, or record a swap's phase. No
/// operation's outcome travels here: that leaves the enclave as
/// [`Effect::Done`].
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// The host must check that a remote deposit is confirmed on chain and
    /// answer with [`Command::DepositVerified`].
    VerifyDeposit {
        /// Deposit owner.
        remote: PublicKey,
        /// The deposit to verify.
        deposit: Deposit,
    },
    /// The enclave wants a pump: call [`Command::PumpAdmission`] at the
    /// given time (ns) — a queued-op deadline, a contention backoff or
    /// the monotonic counter's `ready_at`, each in the future. Hosts keep
    /// the earliest outstanding time.
    PumpAt(u64),
    /// The responder host must fund this HTLC script with `value` on the
    /// alternate chain and answer with [`Command::SwapFunded`].
    SwapFundingNeeded {
        /// The swap.
        swap: SwapId,
        /// The HTLC script to fund (boxed: it would set the size of every
        /// effect).
        script: Box<teechain_blockchain::ScriptPubKey>,
        /// The value to lock.
        value: u64,
    },
    /// The initiator host must check that the counterparty's HTLC is
    /// live on the alternate chain — exactly `script` with `value` at
    /// `outpoint` — and answer with [`Command::SwapHtlcVerified`],
    /// reporting the output's confirmation count so the enclave can
    /// refuse a lock whose refund timelock is already (near) mature.
    VerifySwapHtlc {
        /// The swap.
        swap: SwapId,
        /// Where the counterparty claims to have funded it.
        outpoint: teechain_blockchain::OutPoint,
        /// The script the output must carry (boxed, as above).
        script: Box<teechain_blockchain::ScriptPubKey>,
        /// The value the output must carry.
        value: u64,
    },
    /// The swap wants a chain/deadline check: call [`Command::SwapTick`]
    /// with the alternate-chain view at the given time (ns).
    SwapCheckAt {
        /// The swap.
        swap: SwapId,
        /// When to tick (ns).
        at: u64,
    },
    /// A swap entered a new phase (metrics; non-terminal).
    SwapPhaseEntered {
        /// The swap.
        swap: SwapId,
        /// The phase just entered.
        phase: SwapPhase,
    },
}

/// A remote enclave's slot in this enclave's peer table: a dense index
/// handed out when the enclave first meets the identity — in a handshake,
/// or as a channel's counterparty — and never reused while the enclave
/// instance lives. Slots are volatile: never sealed, never on the wire; a
/// recovered enclave hands them out afresh in replay order, so a host
/// keying its own state by slot checks the identity next to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerSlot(pub u32);

/// Effects the host must carry out.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Send `wire` to the node operating the enclave with identity `to`.
    Send {
        /// Destination enclave identity.
        to: PublicKey,
        /// The slot `to` holds in this enclave's peer table (`None` for a
        /// handshake opening, which precedes the session). The host may
        /// key its own per-peer state by it, checking `to`.
        peer: Option<PeerSlot>,
        /// Encoded [`WireMsg`](crate::msg::WireMsg).
        wire: Vec<u8>,
    },
    /// Broadcast a transaction to the blockchain.
    Broadcast(teechain_blockchain::Transaction),
    /// Broadcast a transaction to the *alternate* chain (cross-chain
    /// atomic swaps: HTLC claim and refund spends).
    BroadcastAlt(teechain_blockchain::Transaction),
    /// A request to the host.
    Event(HostEvent),
    /// The terminal outcome of the operation waiting on `key`: the host
    /// completes the oldest pending operation under `key` with it, and
    /// drops it when none waits (a responder's outcome).
    Done {
        /// The operation's correlation key.
        key: MatchKey,
        /// Its typed result.
        outcome: Result<OpOutput, OpError>,
    },
    /// Persist this sealed full-state snapshot, superseding the WAL so
    /// far — the host should compact (persistent-storage mode, §6.2).
    Persist(Vec<u8>),
    /// Append this sealed commit record to the write-ahead log and make
    /// it durable before releasing the accompanying effects
    /// (persistent-storage mode, §6.2). One record carries a whole
    /// group-committed batch of state deltas.
    AppendLog(Vec<u8>),
}

// Every effect of the payment path is moved through the host by value:
// an outcome or a rare request must not make each of them larger. These
// are the sizes on a 64-bit target; `Effect::Done` sets the first.
const _: () = assert!(std::mem::size_of::<Effect>() <= 176);
const _: () = assert!(std::mem::size_of::<HostEvent>() <= 144);

impl Effect {
    /// The operation under `key` succeeded with `out`.
    pub(crate) fn done(key: MatchKey, out: OpOutput) -> Effect {
        Effect::Done {
            key,
            outcome: Ok(out),
        }
    }

    /// The settlement of channel `chan` (zeroed for a deposit release)
    /// reached `kind`.
    pub(crate) fn settled(chan: ChannelId, kind: SettleKind) -> Effect {
        let out = OpOutput::Settled(Settlement { chan, kind });
        Effect::done(MatchKey::Settle(chan), out)
    }

    /// The operation under `key` failed with `err`.
    pub(crate) fn failed(key: MatchKey, err: OpError) -> Effect {
        Effect::Done {
            key,
            outcome: Err(err),
        }
    }
}

/// Result of an ecall.
pub type Outcome = Result<Vec<Effect>, ProtocolError>;

/// What a command or a sealed message must pass before its handler runs.
/// Two rules guard every state change: a frozen enclave changes nothing
/// (Alg. 3's force-freeze, §6.1), and in persistent mode a change happens
/// only if the monotonic counter can be incremented now (§6.2), so no
/// state mutates before a commit that would be refused. [`Gate::of`] and
/// [`Gate::of_msg`] give every command and message its row, and
/// [`TeechainEnclave::pass`] checks it; no handler checks either rule
/// itself.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Gate {
    /// Unfrozen, then the counter: the handler commits.
    Mutating,
    /// Unfrozen only: the handler commits nothing, or (a delivered
    /// message) `cmd_deliver` passed the counter before dispatch.
    Unfrozen,
    /// The counter only. Ejecting is the way out, so a frozen enclave may
    /// still settle and eject — but the commit must be possible before
    /// the channels close, or a refused commit would close them with the
    /// settlement thrown away. Delivery, the admission pump and the swap
    /// tick pass this row themselves before they commit.
    Exit,
    /// No gate, or the handler gates itself: `Deliver`, `PumpAdmission`
    /// and `SwapTick` re-arm instead of failing, and a `SigResponse` at
    /// its origin passes `Mutating` only when it continues a route's sign
    /// pass.
    Own,
}

impl Gate {
    /// A command's row.
    fn of(cmd: &Command) -> Gate {
        match cmd {
            Command::NewAddress
            | Command::NewCommitteeAddress { .. }
            | Command::NewChannel { .. }
            | Command::NewDeposit { .. }
            | Command::ReleaseDeposit { .. }
            | Command::AssociateDeposit { .. }
            | Command::DissociateDeposit { .. }
            | Command::Pay { .. }
            | Command::PayMultihop { .. }
            | Command::Swap { .. }
            | Command::SwapFunded { .. }
            | Command::SwapHtlcVerified { .. } => Gate::Mutating,
            Command::ApproveDeposit { .. }
            | Command::DepositVerified { .. }
            | Command::StartSession { .. }
            | Command::AttachBackup { .. } => Gate::Unfrozen,
            Command::Settle { .. } | Command::Eject { .. } | Command::EjectWithPopt { .. } => {
                Gate::Exit
            }
            Command::Deliver { .. }
            | Command::PumpAdmission
            | Command::SwapTick { .. }
            | Command::GetIdentity
            | Command::Recover { .. }
            | Command::ReadReplica
            | Command::SettleFromReplica => Gate::Own,
        }
    }

    /// A sealed message's row. `cmd_deliver` passed the counter for every
    /// one of them; a message that starts or advances a protocol step is
    /// refused by a frozen enclave, while acknowledgements and the
    /// replication stream are not (a frozen backup refuses `RepUpdate` in
    /// its handler, after checking the sender).
    fn of_msg(msg: &ProtocolMsg) -> Gate {
        match msg {
            ProtocolMsg::NewChannel { .. }
            | ProtocolMsg::ApproveDeposit { .. }
            | ProtocolMsg::AssociateDeposit { .. }
            | ProtocolMsg::DissociateDeposit { .. }
            | ProtocolMsg::Pay { .. }
            | ProtocolMsg::SettleRequest { .. }
            | ProtocolMsg::MhLock(_)
            | ProtocolMsg::MhSign { .. }
            | ProtocolMsg::MhPreUpdate { .. }
            | ProtocolMsg::MhUpdate { .. }
            | ProtocolMsg::MhPostUpdate { .. }
            | ProtocolMsg::MhRelease { .. }
            | ProtocolMsg::RepAssign
            | ProtocolMsg::SwapInit { .. }
            | ProtocolMsg::SwapLocked { .. }
            | ProtocolMsg::SwapSecret { .. }
            | ProtocolMsg::SwapNack { .. } => Gate::Unfrozen,
            ProtocolMsg::NewChannelAck { .. }
            | ProtocolMsg::DepositApproved { .. }
            | ProtocolMsg::DissociateAck { .. }
            | ProtocolMsg::PayAck { .. }
            | ProtocolMsg::PayNack { .. }
            | ProtocolMsg::ChannelClosed { .. }
            | ProtocolMsg::MhAbort { .. }
            | ProtocolMsg::RepAssignAck { .. }
            | ProtocolMsg::RepUpdate { .. }
            | ProtocolMsg::RepAck { .. }
            | ProtocolMsg::RepFreeze
            | ProtocolMsg::SigRequest { .. }
            | ProtocolMsg::SigResponse { .. } => Gate::Own,
        }
    }

    fn unfrozen(self) -> bool {
        matches!(self, Gate::Mutating | Gate::Unfrozen)
    }

    fn counter(self) -> bool {
        matches!(self, Gate::Mutating | Gate::Exit)
    }
}

/// Remote enclaves by the identity key *as encoded on the wire*, each with
/// its session once a handshake with it completed. A peer gets its slot in
/// a handshake, or as the counterparty of a channel we hold (restored from
/// sealed state before any session exists). A sealed envelope names its
/// sender in 64 raw bytes, and the look-up takes them as they are. Only
/// validated identities are ever inserted — from completed handshakes, or
/// from our own sealed state — so bytes that are not a curve point find
/// nothing.
pub(crate) type PeerTable = SlotMap<[u8; 64], Option<Session>>;

/// The sender of a delivered message, as its handler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Peer {
    /// The sender's identity, as authenticated by the session.
    pub(crate) pk: PublicKey,
    /// Its slot in the peer table.
    pub(crate) slot: u32,
}

/// The established session with the peer in `slot`.
pub(crate) fn established(peers: &mut PeerTable, slot: u32) -> Result<&mut Session, ProtocolError> {
    match peers.at_mut(slot).and_then(Option::as_mut) {
        Some(s) if s.established => Ok(s),
        _ => Err(ProtocolError::NoSession),
    }
}

/// The Teechain enclave program state.
pub struct TeechainEnclave {
    pub(crate) cfg: EnclaveConfig,
    pub(crate) identity: Option<Keypair>,
    /// Known peers and their sessions, by slot (see [`PeerTable`]).
    pub(crate) peers: PeerTable,
    /// Our ephemeral private keys for in-flight handshakes.
    pub(crate) pending_eph: HashMap<PublicKey, PrivateKey>,
    /// Channels, deposits, keys, routes and swaps: changed only by
    /// [`Self::commit`] (see [`crate::durable`]).
    pub(crate) state: DurableState,
    /// `chan_peers[s]`: the peer slot of the counterparty of the channel
    /// in channel slot `s`, so a handler holding a channel seals to its
    /// peer without a look-up.
    pub(crate) chan_peers: Vec<u32>,
    pub(crate) rep: Replication,
    pub(crate) sig_collects: HashMap<u64, SigCollect>,
    pub(crate) next_req_id: u64,
    pub(crate) frozen: bool,
    pub(crate) counter_id: Option<usize>,
    /// True from the moment this ecall passed the counter gate until its
    /// commit spent the counter: in persistent mode a commit is legal only
    /// then (checked in debug builds).
    counter_open: bool,
    /// Decrypted messages stashed while the counter was throttled.
    pub(crate) pending_msgs: std::collections::VecDeque<(Peer, ProtocolMsg)>,
    /// Durable commits performed (persistent mode); drives the snapshot
    /// cadence. Restored during recovery.
    pub(crate) commits: u64,
    /// Admission layer: per-channel queues of local ops and deferred
    /// inbound messages waiting on a locked channel, plus the ack
    /// fan-out bookkeeping for batched payments. Volatile (§6.2): queued
    /// ops that never committed simply vanish on crash.
    pub(crate) admit: AdmitState,
    /// Acknowledgements owed for applied `Pay`s, per channel. Volatile:
    /// a crash loses them, and the payer's operations time out.
    pub(crate) acks: OwedAcks,
}

impl TeechainEnclave {
    /// Creates the program (state is empty until first ecall).
    pub fn new(cfg: EnclaveConfig) -> Self {
        TeechainEnclave {
            cfg,
            identity: None,
            peers: PeerTable::default(),
            pending_eph: HashMap::new(),
            state: DurableState::default(),
            chan_peers: Vec::new(),
            rep: Replication::default(),
            sig_collects: HashMap::new(),
            next_req_id: 0,
            frozen: false,
            counter_id: None,
            counter_open: false,
            pending_msgs: std::collections::VecDeque::new(),
            commits: 0,
            admit: AdmitState::default(),
            acks: OwedAcks::default(),
        }
    }

    pub(crate) fn identity(&mut self, env: &mut EnclaveEnv) -> Keypair {
        if self.identity.is_none() {
            let seed = env.random_bytes32();
            self.identity = Some(Keypair::from_seed(&seed));
        }
        *self.identity.as_ref().expect("just set")
    }

    /// Passes `gate`: the one place the freeze and counter rules are
    /// checked (see [`Gate`]), the freeze first.
    pub(crate) fn pass(&mut self, env: &mut EnclaveEnv, gate: Gate) -> Result<(), ProtocolError> {
        if gate.unfrozen() {
            self.require_unfrozen()?;
        }
        if gate.counter() {
            self.require_counter_ready(env)?;
            self.counter_open = true;
        }
        Ok(())
    }

    fn require_unfrozen(&self) -> Result<(), ProtocolError> {
        if self.frozen {
            Err(ProtocolError::Frozen)
        } else {
            Ok(())
        }
    }

    /// Our monotonic counter id, reusing the device counter across enclave
    /// restarts (hardware counters outlive the program, §6.2).
    pub(crate) fn ensure_counter(&mut self, env: &mut EnclaveEnv) -> usize {
        if let Some(id) = self.counter_id {
            return id;
        }
        let id = if env.counter_count() > 0 {
            0
        } else {
            env.create_counter(teechain_tee::counter::DEFAULT_THROTTLE_NS)
        };
        self.counter_id = Some(id);
        id
    }

    /// In persistent mode, mutating operations must be able to increment
    /// the monotonic counter *now*; otherwise they are rejected up front
    /// so no state mutates (the host retries at `ready_at`). This is what
    /// caps stable-storage throughput at 10 tx/s (Table 1).
    fn require_counter_ready(&mut self, env: &mut EnclaveEnv) -> Result<(), ProtocolError> {
        if !self.cfg.persist() {
            return Ok(());
        }
        let id = self.ensure_counter(env);
        let ready_at = env.counter_ready_at(id);
        if env.now_ns() < ready_at {
            return Err(ProtocolError::CounterThrottled { ready_at });
        }
        Ok(())
    }

    /// The peer `remote`, if we hold an established session with it.
    pub(crate) fn session_peer(&mut self, remote: &PublicKey) -> Result<Peer, ProtocolError> {
        let slot = self
            .peers
            .slot(&remote.to_bytes())
            .ok_or(ProtocolError::NoSession)?;
        established(&mut self.peers, slot)?;
        Ok(Peer { pk: *remote, slot })
    }

    /// The peer slot of `pk`, handing out a new one if it has none.
    pub(crate) fn peer_slot(&mut self, pk: &PublicKey) -> u32 {
        self.peers.slot_or_insert_with(pk.to_bytes(), || None)
    }

    /// Gives every channel that has no peer slot yet (a commit or a
    /// replay added it) its counterparty's.
    pub(crate) fn index_new_channels(&mut self) {
        while let Some(c) = self.state.channels.at(self.chan_peers.len() as u32) {
            let peer = self.peers.slot_or_insert_with(c.remote.to_bytes(), || None);
            self.chan_peers.push(peer);
        }
    }

    /// Seals `msg` for `remote` into a `Send` effect: one look-up of the
    /// identity. A handler that knows the peer's slot seals with
    /// `seal_at`. Public for compromised-TEE modelling: an
    /// attacker holding a compromised enclave's memory
    /// ([`teechain_tee::Enclave::compromise`]) seals what it likes under
    /// its sessions, and §6.1's committee guard must hold against that.
    pub fn seal_to(
        &mut self,
        remote: &PublicKey,
        msg: &ProtocolMsg,
    ) -> Result<Effect, ProtocolError> {
        let slot = self
            .peers
            .slot(&remote.to_bytes())
            .ok_or(ProtocolError::NoSession)?;
        self.seal_at(slot, msg)
    }

    /// Seals `msg` for the peer in `slot` into a `Send` effect. The pays
    /// a chain head owes that peer are sealed first, each run into the
    /// pending entry it waits on (or, made by this ecall, to the front of
    /// its output): a session's sequence order is its send order,
    /// and an owed pay goes out no later than what is sealed after it.
    pub(crate) fn seal_at(
        &mut self,
        slot: u32,
        msg: &ProtocolMsg,
    ) -> Result<Effect, ProtocolError> {
        if self.rep.owed_pays.owed_to(slot) {
            let mut pending = std::mem::take(&mut self.rep.pending);
            for entry in pending.values_mut() {
                let pays = channel::take_owed_to(&mut entry.owed_pays, slot);
                self.seal_owed_pays(pays, |pay| entry.effects.push(pay));
            }
            self.rep.pending = pending;
            let pays = channel::take_owed_to(&mut self.rep.owed_pays.staged, slot);
            let mut presealed = std::mem::take(&mut self.rep.owed_pays.presealed);
            self.seal_owed_pays(pays, |pay| presealed.push(pay));
            self.rep.owed_pays.presealed = presealed;
        }
        self.seal_frame(slot, msg)
    }

    /// Seals `msg` for the peer in `slot`, whatever is owed to it.
    pub(crate) fn seal_frame(
        &mut self,
        slot: u32,
        msg: &ProtocolMsg,
    ) -> Result<Effect, ProtocolError> {
        let me = self.identity.as_ref().ok_or(ProtocolError::NoSession)?.pk;
        let session = established(&mut self.peers, slot)?;
        let wire = session.seal_frame(&me, msg);
        Ok(Effect::Send {
            to: session.remote,
            peer: Some(PeerSlot(slot)),
            wire,
        })
    }

    pub(crate) fn chan(&self, id: &ChannelId) -> Result<&Channel, ProtocolError> {
        self.state
            .channels
            .get(id)
            .ok_or(ProtocolError::UnknownChannel)
    }

    /// Commits a state change: applies `delta` to our durable state and
    /// stages it for the WAL record or the replication update.
    pub(crate) fn commit(&mut self, delta: StateDelta) {
        self.state.apply(&delta);
        self.stage(delta);
        self.index_new_channels();
    }

    /// [`Self::commit`] of a delta to the channel in `slot`.
    pub(crate) fn commit_at(&mut self, slot: u32, delta: StateDelta) {
        self.state.apply_at(slot, &delta);
        self.stage(delta);
    }

    /// Stages an applied delta for the WAL record or the replication
    /// update.
    fn stage(&mut self, delta: StateDelta) {
        debug_assert!(
            self.counter_open || !self.cfg.persist(),
            "a commit without a passed counter gate"
        );
        self.rep.staged.push(delta);
    }

    /// Commits an edit of channel `id`: `edit` changes a copy, which the
    /// commit installs whole.
    pub(crate) fn commit_channel(
        &mut self,
        id: &ChannelId,
        edit: impl FnOnce(&mut Channel),
    ) -> Result<(), ProtocolError> {
        let mut chan = self.chan(id)?.clone();
        edit(&mut chan);
        self.commit(StateDelta::Channel(Box::new(chan)));
        Ok(())
    }

    // ---- Dispatch ----

    /// Runs the handler of a delivered message that passed its gate.
    pub(crate) fn dispatch_protocol(
        &mut self,
        env: &mut EnclaveEnv,
        peer: Peer,
        msg: ProtocolMsg,
    ) -> Outcome {
        self.pass(env, Gate::of_msg(&msg))?;
        let from = peer.pk;
        match msg {
            ProtocolMsg::NewChannel { id, settlement } => self.on_new_channel(peer, id, settlement),
            ProtocolMsg::NewChannelAck { id, settlement } => {
                self.on_new_channel_ack(from, id, settlement)
            }
            ProtocolMsg::ApproveDeposit { deposit } => self.on_approve_deposit(from, deposit),
            ProtocolMsg::DepositApproved { outpoint } => self.on_deposit_approved(from, outpoint),
            ProtocolMsg::AssociateDeposit { id, deposit, key } => {
                self.on_associate(from, id, deposit, key)
            }
            ProtocolMsg::DissociateDeposit { id, outpoint } => {
                self.on_dissociate(from, id, outpoint)
            }
            ProtocolMsg::DissociateAck { id, outpoint } => {
                self.on_dissociate_ack(from, id, outpoint)
            }
            ProtocolMsg::Pay { id, amount, count } => self.on_pay(env, peer, id, amount, count),
            ProtocolMsg::PayAck { id, amount, count } => self.on_pay_ack(peer, id, amount, count),
            ProtocolMsg::PayNack {
                id, amount, reason, ..
            } => self.on_pay_nack(peer, id, amount, reason),
            ProtocolMsg::SettleRequest { id } => self.on_settle_request(from, id),
            ProtocolMsg::ChannelClosed { id } => self.on_channel_closed(from, id),
            ProtocolMsg::MhLock(m) => self.on_mh_lock(env, from, m),
            ProtocolMsg::MhSign {
                route,
                tau,
                digests,
                deposits,
            } => self.on_mh_sign(from, route, tau, digests, deposits),
            ProtocolMsg::MhPreUpdate { route, witnesses } => {
                self.on_mh_pre_update(from, route, witnesses)
            }
            ProtocolMsg::MhUpdate { route } => self.on_mh_update(from, route),
            ProtocolMsg::MhPostUpdate { route } => self.on_mh_post_update(env, from, route),
            ProtocolMsg::MhRelease { route } => self.on_mh_release(env, from, route),
            ProtocolMsg::MhAbort { route, reason } => self.on_mh_abort(env, from, route, reason),
            ProtocolMsg::RepAssign => self.on_rep_assign(env, peer),
            ProtocolMsg::RepAssignAck { member_key } => self.on_rep_assign_ack(peer, member_key),
            ProtocolMsg::RepUpdate { seq, deltas } => self.on_rep_update(peer, seq, deltas),
            ProtocolMsg::RepAck { seq } => self.on_rep_ack(peer, seq),
            ProtocolMsg::RepFreeze => self.on_rep_freeze(peer),
            ProtocolMsg::SwapInit {
                swap,
                channel,
                amount,
                alt_amount,
                hash,
                timeout_blocks,
            } => self.on_swap_init(
                env,
                from,
                swap,
                channel,
                amount,
                alt_amount,
                hash,
                timeout_blocks,
            ),
            ProtocolMsg::SwapLocked { swap, outpoint } => self.on_swap_locked(from, swap, outpoint),
            ProtocolMsg::SwapSecret { swap, secret } => self.on_swap_secret(from, swap, secret),
            ProtocolMsg::SwapNack { swap, reason } => self.on_swap_nack(from, swap, reason),
            ProtocolMsg::SigRequest { req_id, hops, tx } => {
                self.on_sig_request(peer, req_id, hops, tx)
            }
            ProtocolMsg::SigResponse {
                req_id,
                hops,
                sigs,
                refused,
            } => self.on_sig_response(env, peer, req_id, hops, sigs, refused),
        }
    }

    /// Runs the handler of a command that passed its gate.
    fn dispatch_command(&mut self, env: &mut EnclaveEnv, cmd: Command) -> Outcome {
        match cmd {
            Command::GetIdentity => {
                let kp = self.identity(env);
                Ok(vec![Effect::done(
                    MatchKey::Identity,
                    OpOutput::Identity(kp.pk),
                )])
            }
            Command::StartSession { remote } => self.cmd_start_session(env, remote),
            Command::Deliver { wire, .. } => self.cmd_deliver(env, wire),
            Command::NewAddress => self.hand_out_key(env, |pk| {
                Ok(Effect::done(MatchKey::Address, OpOutput::Address(pk)))
            }),
            Command::NewCommitteeAddress { m } => self.cmd_new_committee(env, m),
            Command::NewChannel {
                id,
                remote,
                my_settlement,
            } => self.cmd_new_channel(id, remote, my_settlement),
            Command::NewDeposit { deposit } => self.cmd_new_deposit(deposit),
            Command::ReleaseDeposit { outpoint, to } => self.cmd_release_deposit(outpoint, to),
            Command::ApproveDeposit { remote, outpoint } => {
                self.cmd_approve_deposit(remote, outpoint)
            }
            Command::DepositVerified {
                remote,
                outpoint,
                valid,
            } => self.cmd_deposit_verified(remote, outpoint, valid),
            Command::AssociateDeposit { id, outpoint } => self.cmd_associate(id, outpoint),
            Command::DissociateDeposit { id, outpoint } => self.cmd_dissociate(id, outpoint),
            Command::Pay { id, amount, count } => self.cmd_pay(env, id, amount, count),
            Command::Settle { id } => self.cmd_settle(id),
            Command::PayMultihop {
                route,
                hops,
                channels,
                amount,
            } => self.cmd_pay_multihop(env, route, hops, channels, amount),
            Command::Eject { route } => self.cmd_eject(route),
            Command::EjectWithPopt { route, popt } => self.cmd_eject_popt(route, popt),
            Command::AttachBackup { backup } => self.cmd_attach_backup(backup),
            Command::ReadReplica => self.cmd_read_replica(),
            Command::SettleFromReplica => self.cmd_settle_from_replica(),
            Command::Recover { snapshot, log } => self.cmd_recover(env, snapshot, log),
            Command::PumpAdmission => self.cmd_pump_admission(env),
            Command::Swap {
                swap,
                channel,
                amount,
                alt_amount,
                timeout_blocks,
            } => self.cmd_swap(env, swap, channel, amount, alt_amount, timeout_blocks),
            Command::SwapFunded { swap, outpoint } => self.cmd_swap_funded(env, swap, outpoint),
            Command::SwapHtlcVerified {
                swap,
                valid,
                confirmations,
            } => self.cmd_swap_htlc_verified(swap, valid, confirmations),
            Command::SwapTick {
                swap,
                spent_preimage,
                confirmations,
                claim_confirmed,
            } => self.cmd_swap_tick(env, swap, spent_preimage, confirmations, claim_confirmed),
        }
    }
}

impl EnclaveProgram for TeechainEnclave {
    type Cmd = Command;
    type Resp = Outcome;

    fn handle(&mut self, env: &mut EnclaveEnv, cmd: Command) -> Outcome {
        debug_assert!(self.rep.staged.is_empty(), "staged deltas leaked");
        self.rep.staged.clear();
        self.counter_open = false;
        self.acks.sealed_in_handler = false;
        // Only a delivery with more messages queued behind it keeps what
        // a payee or a chain member owes, or a chain head's update (see
        // `Command::Deliver::more`).
        let more = matches!(cmd, Command::Deliver { more: true, .. });
        // A chain head's held deltas go first in what this ecall commits.
        let held = self.rep.held.len();
        std::mem::swap(&mut self.rep.staged, &mut self.rep.held);
        let send_seq = self.rep.send_seq;
        let result = self
            .pass(env, Gate::of(&cmd))
            .and_then(|()| self.dispatch_command(env, cmd));
        if let Ok(effects) = &result {
            // A chain head holds the deltas of a delivery with more
            // messages behind it that produced no output, up to
            // `ACK_EVERY` of them: one update then carries the whole run.
            let silent =
                effects.is_empty() && self.rep.asks.is_empty() && !self.acks.sealed_in_handler;
            if more && silent && self.rep.backup.is_some() {
                self.rep.held_runs += u64::from(self.rep.staged.len() > held);
                if self.rep.held_runs < ACK_EVERY {
                    self.rep.staged.dedup_by(StateDelta::absorb);
                    std::mem::swap(&mut self.rep.staged, &mut self.rep.held);
                    return result;
                }
            }
            self.rep.held_runs = 0;
        }
        let result =
            result.and_then(|effects| self.commit_and_release(env, effects, more, held, send_seq));
        if result.is_err() {
            // A failed ecall drops what it staged and the co-sign requests
            // it opened, never what was held before it (unless an update
            // took that already).
            self.rep.staged.truncate(held);
            if self.rep.send_seq == send_seq {
                std::mem::swap(&mut self.rep.staged, &mut self.rep.held);
            }
            self.rep.staged.clear();
            self.rep.asks.clear();
            self.rep.owed_pays.drop_staged();
        }
        result
    }
}

impl TeechainEnclave {
    /// Commits what a handled ecall staged, behind the `held` deltas taken
    /// at its start, and releases what the input hint lets go.
    fn commit_and_release(
        &mut self,
        env: &mut EnclaveEnv,
        mut effects: Vec<Effect>,
        more: bool,
        held: usize,
        mut send_seq: u64,
    ) -> Outcome {
        let mut update = Vec::new();
        if held > 0 && self.rep.staged.len() == held && self.rep.send_seq == send_seq {
            // The ecall committed nothing itself: the held deltas go as
            // their own update, and its output (what a `RepAck` released)
            // is not held behind them. If that update cannot be sealed,
            // the output waits behind it, as a committing ecall's would.
            update = match self.commit_staged(env, Vec::new()) {
                Ok(update) => update,
                Err(e) => {
                    if let Some(entry) = self.rep.pending.last_entry() {
                        entry.into_mut().effects.append(&mut effects);
                    }
                    return Err(e);
                }
            };
            send_seq = self.rep.send_seq;
        } else if held > 0 {
            self.rep.staged.dedup_by(StateDelta::absorb);
        }
        // A frozen enclave releases nothing.
        let keep = more || self.frozen;
        self.release_pay_acks(&mut effects, keep, send_seq);
        if !keep {
            effects.extend(self.flush_owed());
        }
        let mut effects = self.finalize(env, effects)?;
        if !update.is_empty() {
            // The update first: a co-sign request sealed to the backup
            // after it must not overtake it.
            effects.splice(..0, update);
        }
        Ok(effects)
    }

    fn cmd_deliver(&mut self, env: &mut EnclaveEnv, mut wire: Vec<u8>) -> Outcome {
        let (from, seq, ct) = match WireView::parse(&wire).map_err(|_| ProtocolError::BadMessage)? {
            WireView::Hello(hs) => {
                self.pass(env, Gate::Unfrozen)?;
                return self.on_hello(env, *hs);
            }
            WireView::HelloAck(hs) => return self.on_hello_ack(env, *hs),
            WireView::Sealed { from, seq, ct, .. } => (from, seq, ct),
        };
        // `from` only finds the session: the bytes are not checked to be a
        // curve point because the table holds validated identities only,
        // so anything else finds nothing. Who the message is from is what
        // the session it authenticates under says.
        let slot = self.peers.slot(from).ok_or(ProtocolError::NoSession)?;
        let session = established(&mut self.peers, slot)?;
        let msg = session.open_in_place(seq, &mut wire[ct])?;
        let from = Peer {
            pk: session.remote,
            slot,
        };
        // Persistent mode gates *before* dispatch: handlers mutate state and
        // the commit in `finalize` must never fail after the fact. Stashed
        // messages keep FIFO order behind anything already waiting.
        if !self.pending_msgs.is_empty() {
            self.pending_msgs.push_back((from, msg));
            let id = self.ensure_counter(env);
            return Err(ProtocolError::CounterThrottled {
                ready_at: env.counter_ready_at(id),
            });
        }
        if let Err(e) = self.pass(env, Gate::Exit) {
            self.pending_msgs.push_back((from, msg));
            return Err(e);
        }
        // The message is handed over, not copied.
        self.dispatch_protocol(env, from, msg)
    }

    /// Commits what the ecall staged, then seals the co-sign requests it
    /// opened to our backup: behind the update, and not held with the
    /// effects, since the chain itself answers them. A request that
    /// cannot be sealed is dropped, and its collection waits.
    pub(crate) fn finalize(&mut self, env: &mut EnclaveEnv, effects: Vec<Effect>) -> Outcome {
        let asks = std::mem::take(&mut self.rep.asks);
        let mut effects = self.commit_staged(env, effects)?;
        if let Some(backup) = self.rep.backup {
            for (req_id, tx) in asks {
                let msg = ProtocolMsg::SigRequest {
                    req_id,
                    hops: 0,
                    tx,
                };
                effects.extend(self.seal_at(backup.slot, &msg).ok());
            }
        }
        Ok(effects)
    }

    fn commit_staged(&mut self, env: &mut EnclaveEnv, mut effects: Vec<Effect>) -> Outcome {
        if self.rep.staged.is_empty() {
            return Ok(effects);
        }
        let mut durable = None;
        if self.cfg.persist() {
            let id = self.ensure_counter(env);
            // Guaranteed ready: the ecall passed the counter gate.
            let counter = match env.increment_counter(id) {
                Ok(counter) => counter,
                Err(teechain_tee::CounterError::Throttled { ready_at }) => {
                    self.rep.staged.clear();
                    return Err(ProtocolError::CounterThrottled { ready_at });
                }
            };
            self.counter_open = false;
            self.commits = counter;
            durable = Some(if counter % self.cfg.snapshot_every() == 0 {
                // Snapshot commit: the sealed full-state image carries
                // this commit by itself (the host compacts the WAL), so
                // no log record is needed — sealing the deltas too
                // would only double the write.
                Effect::Persist(env.seal(counter, &self.state_image()))
            } else {
                // One sealed WAL record carries the whole delta batch:
                // a single counter increment and durability barrier per
                // group commit, no matter how many payments are inside.
                let mut record = Vec::new();
                counter.encode(&mut record);
                self.identity
                    .as_ref()
                    .map(|k| k.sk.to_bytes())
                    .encode(&mut record);
                self.rep.staged.encode(&mut record);
                Effect::AppendLog(env.seal(counter, &record))
            });
        }
        // The durable write goes first: the host performs effects in order.
        if let Some(backup) = self.rep.backup {
            // Force-freeze chain replication (Alg. 3 line 21): hold the
            // visible effects until the chain acknowledges the update.
            let seq = self.rep.send_seq;
            self.rep.send_seq += 1;
            self.rep.stats.updates_sent += 1;
            // The pay this ecall sealed early goes first, where it made it.
            effects.splice(..0, std::mem::take(&mut self.rep.owed_pays.presealed));
            let owed_pays = std::mem::take(&mut self.rep.owed_pays.staged);
            self.rep.pending.insert(seq, Gated { effects, owed_pays });
            let deltas = std::mem::take(&mut self.rep.staged);
            let send = self.seal_at(backup.slot, &ProtocolMsg::RepUpdate { seq, deltas })?;
            Ok(durable.into_iter().chain([send]).collect())
        } else {
            debug_assert!(
                self.rep.owed_pays.none_staged(),
                "owed pays without a backup"
            );
            self.rep.staged.clear();
            effects.splice(..0, durable);
            Ok(effects)
        }
    }

    // Test/host introspection helpers (read-only; a real enclave would not
    // expose these, but the *untrusted host* can always observe its own
    // command stream, so nothing here grants extra power).

    /// Our channel view (None if unknown).
    pub fn channel(&self, id: &ChannelId) -> Option<&Channel> {
        self.state.channels.get(id)
    }

    /// Number of established sessions.
    pub fn session_count(&self) -> usize {
        self.peers
            .values()
            .filter(|p| p.as_ref().is_some_and(|s| s.established))
            .count()
    }

    /// The identity public key, if generated.
    pub fn identity_pk(&self) -> Option<PublicKey> {
        self.identity.as_ref().map(|k| k.pk)
    }

    /// Whether this enclave is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// A replicated channel's state (this enclave as a backup).
    pub fn replica_channel(&self, id: &ChannelId) -> Option<&Channel> {
        self.rep.replica.channels.get(id)
    }

    /// Read-only deposit book access (tests and compromised-TEE modelling).
    pub fn book_ref(&self) -> &DepositBook {
        &self.state.book
    }

    /// The replica's deposit book (this enclave as a backup).
    #[cfg(test)]
    pub(crate) fn replica_book(&self) -> &DepositBook {
        &self.rep.replica.book
    }

    /// Replication counters: updates applied, acks sent, acks flushed.
    pub(crate) fn rep_stats(&self) -> crate::replication::RepStats {
        self.rep.stats
    }

    /// Payment-acknowledgement counters: acks sealed, acks flushed.
    pub(crate) fn pay_stats(&self) -> crate::channel::PayStats {
        self.acks.stats
    }

    /// Admission-layer counters: enqueues, deferrals, batch sizes.
    pub fn admit_stats(&self) -> &crate::admit::AdmitStats {
        &self.admit.stats
    }

    /// Entries currently parked in the admission layer (tests).
    pub fn admit_backlog(&self) -> usize {
        self.admit.backlog()
    }

    /// A swap's full state (tests and host chain-watch wiring).
    pub fn swap_state(&self, id: &SwapId) -> Option<&SwapState> {
        self.state.swaps.get(id)
    }

    /// Number of swaps that can still go either way.
    pub fn pending_swaps(&self) -> usize {
        self.state
            .swaps
            .values()
            .filter(|s| s.phase.pending())
            .count()
    }
}

#[cfg(test)]
mod tests;
