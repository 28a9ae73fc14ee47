//! Wire messages exchanged between Teechain enclaves.
//!
//! Two layers:
//!
//! * [`WireMsg`] — what actually travels on the network: plaintext
//!   handshake messages (carrying attestation quotes) and AEAD-sealed
//!   envelopes for everything after.
//! * [`ProtocolMsg`] — the protocol payload inside a sealed envelope:
//!   channel operations (Alg. 1), multi-hop stages (Alg. 2), replication
//!   (Alg. 3) and committee signing traffic.
//!
//! Freshness (the paper's "nonces or monotonic counters for message
//! freshness", §7.1) is provided by strictly increasing per-session
//! sequence numbers used as AEAD nonces: replayed, reordered or dropped
//! messages fail authentication.

use crate::channel::Channel;
use crate::multihop::RouteState;
use crate::swap::SwapState;
use crate::types::{ChannelId, Deposit, MultihopStage, RouteId, SwapId};
use teechain_blockchain::{OutPoint, Transaction, TxId};
use teechain_crypto::schnorr::{PublicKey, Signature};
use teechain_tee::Quote;
use teechain_util::codec::{Decode, Encode, Reader, WireError};

/// A network-visible message.
#[derive(Debug, Clone)]
pub enum WireMsg {
    /// Handshake initiation: attested identity + ephemeral DH key.
    Hello(Handshake),
    /// Handshake response.
    HelloAck(Handshake),
    /// An encrypted protocol message.
    Sealed {
        /// Sender's enclave identity key (routing hint; authenticity comes
        /// from the AEAD, not this field).
        from: PublicKey,
        /// Per-direction sequence number (AEAD nonce).
        seq: u64,
        /// Coarse message class (see [`CostClass`]) — visible to the host
        /// so the simulator can charge CPU service time per message kind.
        /// Leaks no more than message sizes already do.
        class: u8,
        /// AEAD ciphertext of an encoded [`ProtocolMsg`].
        ct: Vec<u8>,
    },
}

/// Coarse, host-visible message classes for CPU cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// Control traffic (handshakes, channel management, settlement).
    Control = 0,
    /// Payments and their acks (the hot path).
    Payment = 1,
    /// Replication state updates (apply + forward).
    Replication = 2,
    /// Multi-hop stage messages.
    Multihop = 3,
    /// Replication acknowledgements (cheap bookkeeping).
    ReplicationAck = 4,
}

impl CostClass {
    /// Classifies a protocol message.
    pub fn of(msg: &ProtocolMsg) -> CostClass {
        match msg {
            ProtocolMsg::Pay { .. } | ProtocolMsg::PayAck { .. } | ProtocolMsg::PayNack { .. } => {
                CostClass::Payment
            }
            ProtocolMsg::RepUpdate { .. } => CostClass::Replication,
            ProtocolMsg::RepAck { .. } => CostClass::ReplicationAck,
            ProtocolMsg::MhLock(_)
            | ProtocolMsg::MhSign { .. }
            | ProtocolMsg::MhPreUpdate { .. }
            | ProtocolMsg::MhUpdate { .. }
            | ProtocolMsg::MhPostUpdate { .. }
            | ProtocolMsg::MhRelease { .. }
            | ProtocolMsg::MhAbort { .. } => CostClass::Multihop,
            _ => CostClass::Control,
        }
    }

    /// Decodes from the wire byte (unknown values collapse to control).
    pub fn from_byte(b: u8) -> CostClass {
        match b {
            1 => CostClass::Payment,
            2 => CostClass::Replication,
            3 => CostClass::Multihop,
            4 => CostClass::ReplicationAck,
            _ => CostClass::Control,
        }
    }
}

/// Handshake payload (both directions).
#[derive(Debug, Clone)]
pub struct Handshake {
    /// Sender's enclave identity public key.
    pub identity: PublicKey,
    /// Sender's ephemeral DH public key.
    pub eph: PublicKey,
    /// Attestation quote binding `H(identity || eph)`.
    pub quote: Quote,
    /// Identity signature over the transcript (binds the intended peer,
    /// preventing relay/state-forking across enclaves, §4.1).
    pub sig: Signature,
}

teechain_util::impl_wire_struct!(Handshake {
    identity,
    eph,
    quote,
    sig,
});

impl Encode for WireMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireMsg::Hello(h) => {
                0u8.encode(out);
                h.encode(out);
            }
            WireMsg::HelloAck(h) => {
                1u8.encode(out);
                h.encode(out);
            }
            WireMsg::Sealed {
                from,
                seq,
                class,
                ct,
            } => {
                2u8.encode(out);
                from.encode(out);
                seq.encode(out);
                class.encode(out);
                ct.encode(out);
            }
        }
    }
}

impl Decode for WireMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read::<u8>()? {
            0 => WireMsg::Hello(r.read()?),
            1 => WireMsg::HelloAck(r.read()?),
            2 => WireMsg::Sealed {
                from: r.read()?,
                seq: r.read()?,
                class: r.read()?,
                ct: r.read()?,
            },
            _ => return Err(WireError::InvalidValue("wire tag")),
        })
    }
}

/// Bytes of an encoded [`WireMsg::Sealed`] in front of its ciphertext: the
/// tag, `from`, `seq`, `class` and the ciphertext's `u32` length.
pub(crate) const SEALED_HEADER: usize = 1 + 64 + 8 + 1 + 4;

/// Starts an encoded [`WireMsg::Sealed`] in the empty `out`: everything in
/// front of the ciphertext, which the caller appends before it calls
/// [`finish_sealed`]. The session seals into this buffer, so an envelope is
/// never built as a value and then encoded.
pub(crate) fn begin_sealed(out: &mut Vec<u8>, from: &[u8; 64], seq: u64, class: u8) {
    debug_assert!(out.is_empty());
    out.push(2);
    out.extend_from_slice(from);
    seq.encode(out);
    out.push(class);
    0u32.encode(out);
}

/// Writes the length of the ciphertext now behind the header into it.
pub(crate) fn finish_sealed(out: &mut [u8]) {
    let ct_len = (out.len() - SEALED_HEADER) as u32;
    out[SEALED_HEADER - 4..SEALED_HEADER].copy_from_slice(&ct_len.to_le_bytes());
}

/// An encoded [`WireMsg`] read where it lies. A sealed envelope — every
/// message after the handshake — yields its header fields and the place of
/// its ciphertext, and nothing is copied; the two handshake messages are
/// rare and are decoded whole.
///
/// `parse` accepts exactly the inputs [`WireMsg::decode_exact`] accepts, with
/// one exception: `from` stays the 64 bytes that arrived and is *not* checked
/// to be a curve point. It is a routing hint; whoever uses it as more than a
/// look-up key has to validate it.
#[derive(Debug)]
pub(crate) enum WireView<'a> {
    /// [`WireMsg::Hello`].
    Hello(Box<Handshake>),
    /// [`WireMsg::HelloAck`].
    HelloAck(Box<Handshake>),
    /// [`WireMsg::Sealed`].
    Sealed {
        /// The sender's identity key as encoded.
        from: &'a [u8; 64],
        /// Per-direction sequence number.
        seq: u64,
        /// Host-visible cost class.
        class: u8,
        /// Where the ciphertext (with its tag) lies in the parsed bytes.
        ct: std::ops::Range<usize>,
    },
}

impl<'a> WireView<'a> {
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let view = match r.read::<u8>()? {
            0 => WireView::Hello(Box::new(r.read()?)),
            1 => WireView::HelloAck(Box::new(r.read()?)),
            2 => {
                let from = r.take(64)?.try_into().expect("took 64 bytes");
                let (seq, class) = (r.read()?, r.read()?);
                let ct = r.take_prefixed()?;
                WireView::Sealed {
                    from,
                    seq,
                    class,
                    ct: r.position() - ct.len()..r.position(),
                }
            }
            _ => return Err(WireError::InvalidValue("wire tag")),
        };
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(view)
    }
}

/// A replicated state mutation (force-freeze chain replication, §6).
#[derive(Debug, Clone)]
pub enum StateDelta {
    /// Install or overwrite full channel state (rare path).
    Channel(Box<Channel>),
    /// Hot path: a payment's balance movement on one channel.
    Pay {
        /// The channel.
        id: ChannelId,
        /// Signed delta to our balance.
        my_delta: i64,
        /// Signed delta to the remote balance.
        remote_delta: i64,
    },
    /// A multi-hop stage transition of one channel. No longer written
    /// (`RouteStage` moves a route's channels together); still applied
    /// from WAL records that carry it.
    Stage {
        /// The channel.
        id: ChannelId,
        /// New stage.
        stage: MultihopStage,
    },
    /// Install a deposit (and, if present, the member's private key for it).
    Deposit {
        /// The deposit.
        dep: Deposit,
        /// Serialized private key, if this member holds one.
        key: Option<[u8; 32]>,
        /// True if the staging enclave owns this deposit (it entered via
        /// `NewDeposit`/association of *our* deposit rather than a
        /// counterparty's): it files the deposit on the own or the
        /// remote side of the book.
        mine: bool,
    },
    /// Release a deposit: our own is marked spent, a remote one dropped.
    RemoveDeposit(OutPoint),
    /// Store or clear a route's intermediate settlement transaction τ.
    Tau {
        /// The route.
        route: RouteId,
        /// The (possibly partially signed) τ, or `None` to discard.
        tau: Option<Transaction>,
    },
    /// Close a settled channel; the settlement spends its own deposits.
    CloseChannel(ChannelId),
    /// Install or overwrite a cross-chain swap's state — one record per
    /// phase transition, so WAL replay recovers a crashed enclave to the
    /// exact committed phase.
    Swap(Box<SwapState>),
    /// Install or overwrite a multi-hop route's state: what eject and a
    /// proof of premature termination read after a crash.
    Route(Box<RouteState>),
    /// Move every channel of a route to a multi-hop stage; `Idle` unlocks
    /// them and ends the route.
    RouteStage {
        /// The route.
        route: RouteId,
        /// New stage.
        stage: MultihopStage,
    },
    /// Install a key pair we hand out (an address, a settlement key): the
    /// public key and the serialized private key.
    Key(PublicKey, [u8; 32]),
    /// Destroy a blockchain key (Alg. 1 line 104, after dissociation).
    DestroyKey(PublicKey),
    /// A route's sign pass: τ, signed by this hop and those after it, and
    /// the path's settlement digests (a PoPT is read against them).
    RouteSigned(RouteId, Transaction, Vec<SettleDigest>),
}

impl Encode for StateDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StateDelta::Channel(c) => {
                0u8.encode(out);
                c.as_ref().encode(out);
            }
            StateDelta::Pay {
                id,
                my_delta,
                remote_delta,
            } => {
                1u8.encode(out);
                id.encode(out);
                my_delta.encode(out);
                remote_delta.encode(out);
            }
            StateDelta::Stage { id, stage } => {
                2u8.encode(out);
                id.encode(out);
                stage.encode(out);
            }
            StateDelta::Deposit { dep, key, mine } => {
                3u8.encode(out);
                dep.encode(out);
                key.encode(out);
                mine.encode(out);
            }
            StateDelta::RemoveDeposit(op) => {
                4u8.encode(out);
                op.encode(out);
            }
            StateDelta::Tau { route, tau } => {
                5u8.encode(out);
                route.encode(out);
                tau.encode(out);
            }
            StateDelta::CloseChannel(id) => {
                6u8.encode(out);
                id.encode(out);
            }
            StateDelta::Swap(s) => {
                7u8.encode(out);
                s.as_ref().encode(out);
            }
            StateDelta::Route(route) => {
                8u8.encode(out);
                route.as_ref().encode(out);
            }
            StateDelta::RouteStage { route, stage } => {
                9u8.encode(out);
                route.encode(out);
                stage.encode(out);
            }
            StateDelta::Key(pk, sk) => {
                10u8.encode(out);
                pk.encode(out);
                sk.encode(out);
            }
            StateDelta::DestroyKey(pk) => {
                11u8.encode(out);
                pk.encode(out);
            }
            StateDelta::RouteSigned(route, tau, digests) => {
                12u8.encode(out);
                route.encode(out);
                tau.encode(out);
                digests.encode(out);
            }
        }
    }
}

impl Decode for StateDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read::<u8>()? {
            0 => StateDelta::Channel(Box::new(r.read()?)),
            1 => StateDelta::Pay {
                id: r.read()?,
                my_delta: r.read()?,
                remote_delta: r.read()?,
            },
            2 => StateDelta::Stage {
                id: r.read()?,
                stage: r.read()?,
            },
            3 => StateDelta::Deposit {
                dep: r.read()?,
                key: r.read()?,
                mine: r.read()?,
            },
            4 => StateDelta::RemoveDeposit(r.read()?),
            5 => StateDelta::Tau {
                route: r.read()?,
                tau: r.read()?,
            },
            6 => StateDelta::CloseChannel(r.read()?),
            7 => StateDelta::Swap(Box::new(r.read()?)),
            8 => StateDelta::Route(Box::new(r.read()?)),
            9 => StateDelta::RouteStage {
                route: r.read()?,
                stage: r.read()?,
            },
            10 => StateDelta::Key(r.read()?, r.read()?),
            11 => StateDelta::DestroyKey(r.read()?),
            12 => StateDelta::RouteSigned(r.read()?, r.read()?, r.read()?),
            _ => return Err(WireError::InvalidValue("delta tag")),
        })
    }
}

/// A settlement digest entry shared along a multi-hop route: the txid of a
/// channel's settlement at pre- or post-payment state. Confirmed
/// transactions matching these digests act as proofs of premature
/// termination (§5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettleDigest {
    /// Settlement transaction id.
    pub txid: TxId,
    /// True for the post-payment settlement.
    pub post: bool,
}

teechain_util::impl_wire_struct!(SettleDigest { txid, post });

/// Multi-hop lock message (Alg. 2 line 5): travels p1 → pn accumulating
/// the intermediate settlement transaction τ and the settlement digests.
#[derive(Debug, Clone)]
pub struct MhLock {
    /// Route instance id.
    pub route: RouteId,
    /// Payment amount.
    pub amount: u64,
    /// Identity keys of p1..pn.
    pub hops: Vec<PublicKey>,
    /// Channel ids along the path (`hops.len() - 1` of them).
    pub channels: Vec<ChannelId>,
    /// τ under construction: inputs/outputs appended by each hop.
    pub tau: Transaction,
    /// Settlement digests accumulated so far.
    pub digests: Vec<SettleDigest>,
    /// Committee metadata for every deposit τ spends (accumulated along
    /// the path so every TEE can check τ's signature thresholds).
    pub deposits: Vec<Deposit>,
}

teechain_util::impl_wire_struct!(MhLock {
    route,
    amount,
    hops,
    channels,
    tau,
    digests,
    deposits,
});

/// The protocol payload of a sealed envelope.
#[derive(Debug, Clone)]
pub enum ProtocolMsg {
    // ---- Payment channels (Alg. 1) ----
    /// Channel proposal (carries the initiator's settlement address).
    NewChannel {
        /// Proposed channel id.
        id: ChannelId,
        /// Initiator's on-chain settlement key.
        settlement: PublicKey,
    },
    /// Channel acknowledgement (Alg. 1 line 26).
    NewChannelAck {
        /// Channel id.
        id: ChannelId,
        /// Responder's on-chain settlement key.
        settlement: PublicKey,
    },
    /// "Please approve my deposit" (Alg. 1 line 52).
    ApproveDeposit {
        /// The deposit to validate against the blockchain.
        deposit: Deposit,
    },
    /// Deposit approved (Alg. 1 line 58).
    DepositApproved {
        /// The approved deposit's outpoint.
        outpoint: OutPoint,
    },
    /// Associate an approved deposit with a channel (Alg. 1 line 73).
    AssociateDeposit {
        /// Channel.
        id: ChannelId,
        /// The deposit.
        deposit: Deposit,
        /// For 1-of-1 deposits: the deposit private key, shared so the
        /// remote can settle unilaterally (Alg. 1 line 72). Already
        /// confidential under the session AEAD.
        key: Option<[u8; 32]>,
    },
    /// Dissociate request (Alg. 1 line 93).
    DissociateDeposit {
        /// Channel.
        id: ChannelId,
        /// Deposit being freed.
        outpoint: OutPoint,
    },
    /// Dissociation acknowledged; receiver destroys its key copy
    /// (Alg. 1 line 99).
    DissociateAck {
        /// Channel.
        id: ChannelId,
        /// Deposit.
        outpoint: OutPoint,
    },
    /// A payment (Alg. 1 line 86). May carry `count` batched logical
    /// payments (client-side batching, §7).
    Pay {
        /// Channel.
        id: ChannelId,
        /// Total amount.
        amount: u64,
        /// Number of logical payments merged into this message.
        count: u32,
    },
    /// Payment acknowledgement (defines the paper's latency metric).
    PayAck {
        /// Channel.
        id: ChannelId,
        /// Amount acknowledged.
        amount: u64,
        /// Batched count acknowledged.
        count: u32,
    },
    /// Payment refused; the sender rolls its optimistic debit back.
    /// `reason` carries the refusing side's [`ProtocolError::abort_code`](crate::types::ProtocolError::abort_code)
    /// (e.g. a deferred payment expiring behind a lock, or arriving on a
    /// channel that closed) so the sender's host sees a typed failure.
    PayNack {
        /// Channel.
        id: ChannelId,
        /// Amount to roll back.
        amount: u64,
        /// Batched count.
        count: u32,
        /// Refusal reason ([`ProtocolError::abort_code`](crate::types::ProtocolError::abort_code)).
        reason: u8,
    },
    /// Request cooperative (off-chain) termination (Alg. 1 line 108).
    SettleRequest {
        /// Channel.
        id: ChannelId,
    },
    /// Channel closed notification (Alg. 1 line 120).
    ChannelClosed {
        /// Channel.
        id: ChannelId,
    },

    // ---- Multi-hop payments (Alg. 2) ----
    /// Stage 1: lock (forward).
    MhLock(MhLock),
    /// Stage 2: sign τ (backward); τ accumulates witnesses.
    MhSign {
        /// Route.
        route: RouteId,
        /// τ with signatures collected so far.
        tau: Transaction,
        /// Complete digest map (filled at pn).
        digests: Vec<SettleDigest>,
        /// Committee metadata of every deposit τ spends.
        deposits: Vec<Deposit>,
    },
    /// Stage 3: distribute τ's signatures (forward). Every hop already
    /// holds τ's inputs and outputs from the sign pass, so only the
    /// witnesses travel.
    MhPreUpdate {
        /// Route.
        route: RouteId,
        /// The fully signed τ's witness list of each input, in input order.
        witnesses: Vec<Vec<Signature>>,
    },
    /// Stage 4: apply post-payment balances (backward).
    MhUpdate {
        /// Route.
        route: RouteId,
    },
    /// Stage 5: discard τ (forward).
    MhPostUpdate {
        /// Route.
        route: RouteId,
    },
    /// Stage 6: unlock (backward).
    MhRelease {
        /// Route.
        route: RouteId,
    },
    /// Lock failed downstream; unwind (backward) and unlock. Carries the
    /// refusing hop's failure reason ([`crate::types::ProtocolError::abort_code`])
    /// so the originator's operation completes with the *real* error
    /// instead of an anonymous failure.
    MhAbort {
        /// Route.
        route: RouteId,
        /// Failure reason wire code.
        reason: u8,
    },

    // ---- Replication (Alg. 3) and committees (§6.1) ----
    /// Backup assignment request (after attestation).
    RepAssign,
    /// Backup assignment accepted; carries the backup's blockchain key so
    /// upstream members can include it in deposit committees (§6.1).
    RepAssignAck {
        /// The backup's committee (blockchain) public key.
        member_key: PublicKey,
    },
    /// A state update propagating down the chain: from the head, one
    /// commit; from a middle member, every head update after the last one
    /// it forwarded, up to `seq`.
    RepUpdate {
        /// Sequence number of the newest head update it carries.
        seq: u64,
        /// The mutations, in order.
        deltas: Vec<StateDelta>,
    },
    /// Acknowledgement that `seq` reached the chain tail.
    RepAck {
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Force-freeze: stop accepting updates (a backup was read, §6).
    RepFreeze,
    /// Request partial signatures over a settlement transaction.
    SigRequest {
        /// Request id (matches the response).
        req_id: u64,
        /// The transaction to co-sign.
        tx: Transaction,
    },
    /// Partial signatures from a committee member.
    SigResponse {
        /// Request id.
        req_id: u64,
        /// `(input index, signature)` pairs.
        sigs: Vec<(u32, Signature)>,
        /// True if the member refused (state mismatch — Byzantine guard).
        refused: bool,
    },

    // ---- Cross-chain atomic swaps (see `crate::swap`) ----
    /// Swap proposal from the initiator: trade `amount` of channel
    /// balance for `alt_amount` locked under `hash` on the other chain.
    SwapInit {
        /// Swap instance id.
        swap: SwapId,
        /// Channel whose balance is traded.
        channel: ChannelId,
        /// Channel amount (initiator → responder on redeem).
        amount: u64,
        /// Alternate-chain amount the responder must lock.
        alt_amount: u64,
        /// SHA-256 commitment to the initiator's secret.
        hash: [u8; 32],
        /// HTLC refund timelock in alternate-chain confirmations.
        timeout_blocks: u64,
    },
    /// Responder's HTLC is funded and confirmed on the alternate chain.
    SwapLocked {
        /// Swap instance id.
        swap: SwapId,
        /// The HTLC output.
        outpoint: OutPoint,
    },
    /// The secret, revealed after the initiator's claim is broadcast —
    /// the fast path for the responder's channel credit (the slow path
    /// extracts the preimage from the confirmed claim spend).
    SwapSecret {
        /// Swap instance id.
        swap: SwapId,
        /// The preimage of `hash`.
        secret: [u8; 32],
    },
    /// Swap refused or unilaterally aborted; carries the refusing side's
    /// [`ProtocolError::abort_code`](crate::types::ProtocolError::abort_code).
    SwapNack {
        /// Swap instance id.
        swap: SwapId,
        /// Failure reason wire code.
        reason: u8,
    },
}

macro_rules! tagged {
    ($out:ident, $tag:expr, $($v:expr),*) => {{
        ($tag as u8).encode($out);
        $($v.encode($out);)*
    }};
}

impl Encode for ProtocolMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        use ProtocolMsg::*;
        match self {
            NewChannel { id, settlement } => tagged!(out, 0, id, settlement),
            NewChannelAck { id, settlement } => tagged!(out, 1, id, settlement),
            ApproveDeposit { deposit } => tagged!(out, 2, deposit),
            DepositApproved { outpoint } => tagged!(out, 3, outpoint),
            AssociateDeposit { id, deposit, key } => tagged!(out, 4, id, deposit, key),
            DissociateDeposit { id, outpoint } => tagged!(out, 5, id, outpoint),
            DissociateAck { id, outpoint } => tagged!(out, 6, id, outpoint),
            Pay { id, amount, count } => tagged!(out, 7, id, amount, count),
            PayAck { id, amount, count } => tagged!(out, 8, id, amount, count),
            SettleRequest { id } => tagged!(out, 9, id),
            ChannelClosed { id } => tagged!(out, 10, id),
            MhLock(m) => tagged!(out, 11, m),
            MhSign {
                route,
                tau,
                digests,
                deposits,
            } => tagged!(out, 12, route, tau, digests, deposits),
            MhPreUpdate { route, witnesses } => tagged!(out, 13, route, witnesses),
            MhUpdate { route } => tagged!(out, 14, route),
            MhPostUpdate { route } => tagged!(out, 15, route),
            MhRelease { route } => tagged!(out, 16, route),
            RepAssign => tagged!(out, 17,),
            RepAssignAck { member_key } => tagged!(out, 18, member_key),
            RepUpdate { seq, deltas } => tagged!(out, 19, seq, deltas),
            RepAck { seq } => tagged!(out, 20, seq),
            RepFreeze => tagged!(out, 21,),
            SigRequest { req_id, tx } => tagged!(out, 22, req_id, tx),
            SigResponse {
                req_id,
                sigs,
                refused,
            } => tagged!(out, 23, req_id, sigs, refused),
            PayNack {
                id,
                amount,
                count,
                reason,
            } => tagged!(out, 24, id, amount, count, reason),
            MhAbort { route, reason } => tagged!(out, 25, route, reason),
            SwapInit {
                swap,
                channel,
                amount,
                alt_amount,
                hash,
                timeout_blocks,
            } => tagged!(
                out,
                26,
                swap,
                channel,
                amount,
                alt_amount,
                hash,
                timeout_blocks
            ),
            SwapLocked { swap, outpoint } => tagged!(out, 27, swap, outpoint),
            SwapSecret { swap, secret } => tagged!(out, 28, swap, secret),
            SwapNack { swap, reason } => tagged!(out, 29, swap, reason),
        }
    }
}

impl Decode for ProtocolMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        use ProtocolMsg::*;
        Ok(match r.read::<u8>()? {
            0 => NewChannel {
                id: r.read()?,
                settlement: r.read()?,
            },
            1 => NewChannelAck {
                id: r.read()?,
                settlement: r.read()?,
            },
            2 => ApproveDeposit { deposit: r.read()? },
            3 => DepositApproved {
                outpoint: r.read()?,
            },
            4 => AssociateDeposit {
                id: r.read()?,
                deposit: r.read()?,
                key: r.read()?,
            },
            5 => DissociateDeposit {
                id: r.read()?,
                outpoint: r.read()?,
            },
            6 => DissociateAck {
                id: r.read()?,
                outpoint: r.read()?,
            },
            7 => Pay {
                id: r.read()?,
                amount: r.read()?,
                count: r.read()?,
            },
            8 => PayAck {
                id: r.read()?,
                amount: r.read()?,
                count: r.read()?,
            },
            9 => SettleRequest { id: r.read()? },
            10 => ChannelClosed { id: r.read()? },
            11 => MhLock(r.read()?),
            12 => MhSign {
                route: r.read()?,
                tau: r.read()?,
                digests: r.read()?,
                deposits: r.read()?,
            },
            13 => MhPreUpdate {
                route: r.read()?,
                witnesses: r.read()?,
            },
            14 => MhUpdate { route: r.read()? },
            15 => MhPostUpdate { route: r.read()? },
            16 => MhRelease { route: r.read()? },
            17 => RepAssign,
            18 => RepAssignAck {
                member_key: r.read()?,
            },
            19 => RepUpdate {
                seq: r.read()?,
                deltas: r.read()?,
            },
            20 => RepAck { seq: r.read()? },
            21 => RepFreeze,
            22 => SigRequest {
                req_id: r.read()?,
                tx: r.read()?,
            },
            23 => SigResponse {
                req_id: r.read()?,
                sigs: r.read()?,
                refused: r.read()?,
            },
            24 => PayNack {
                id: r.read()?,
                amount: r.read()?,
                count: r.read()?,
                reason: r.read()?,
            },
            25 => MhAbort {
                route: r.read()?,
                reason: r.read()?,
            },
            26 => SwapInit {
                swap: r.read()?,
                channel: r.read()?,
                amount: r.read()?,
                alt_amount: r.read()?,
                hash: r.read()?,
                timeout_blocks: r.read()?,
            },
            27 => SwapLocked {
                swap: r.read()?,
                outpoint: r.read()?,
            },
            28 => SwapSecret {
                swap: r.read()?,
                secret: r.read()?,
            },
            29 => SwapNack {
                swap: r.read()?,
                reason: r.read()?,
            },
            _ => return Err(WireError::InvalidValue("protocol tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_crypto::schnorr::Keypair;

    #[test]
    fn protocol_msg_roundtrip() {
        let id = ChannelId::from_label("c");
        let pk = Keypair::from_seed(&[1; 32]).pk;
        let msgs = vec![
            ProtocolMsg::NewChannel { id, settlement: pk },
            ProtocolMsg::Pay {
                id,
                amount: 42,
                count: 3,
            },
            ProtocolMsg::PayNack {
                id,
                amount: 42,
                count: 3,
                reason: 4,
            },
            ProtocolMsg::RepAck { seq: 7 },
            ProtocolMsg::MhUpdate {
                route: RouteId([9; 32]),
            },
            ProtocolMsg::RepAssign,
        ];
        for m in msgs {
            let bytes = m.encode_to_vec();
            let decoded = ProtocolMsg::decode_exact(&bytes).unwrap();
            // Spot-check via re-encoding (ProtocolMsg has no PartialEq on
            // purpose — transactions inside are compared by txid).
            assert_eq!(decoded.encode_to_vec(), bytes);
        }
    }

    #[test]
    fn junk_rejected() {
        assert!(ProtocolMsg::decode_exact(&[200]).is_err());
        assert!(WireMsg::decode_exact(&[9]).is_err());
    }

    #[test]
    fn wire_sealed_roundtrip() {
        let pk = Keypair::from_seed(&[2; 32]).pk;
        let m = WireMsg::Sealed {
            from: pk,
            seq: 5,
            class: 1,
            ct: vec![1, 2, 3],
        };
        let bytes = m.encode_to_vec();
        match WireMsg::decode_exact(&bytes).unwrap() {
            WireMsg::Sealed {
                from,
                seq,
                class,
                ct,
            } => {
                assert_eq!(from, pk);
                assert_eq!(seq, 5);
                assert_eq!(class, 1);
                assert_eq!(ct, vec![1, 2, 3]);
            }
            _ => panic!("wrong variant"),
        }
    }

    /// One encoded message of each `WireMsg` variant.
    fn one_of_each_wire_msg() -> Vec<Vec<u8>> {
        use teechain_tee::{Measurement, TrustRoot};
        let id = Keypair::from_seed(&[1; 32]);
        let eph = Keypair::from_seed(&[2; 32]);
        let quote = TrustRoot::new(9)
            .issue_device(1)
            .quote(Measurement::of_program("teechain", 1), [7; 64]);
        let hs = Handshake {
            identity: id.pk,
            eph: eph.pk,
            quote,
            sig: id.sign(b"transcript"),
        };
        vec![
            WireMsg::Hello(hs.clone()).encode_to_vec(),
            WireMsg::HelloAck(hs).encode_to_vec(),
            WireMsg::Sealed {
                from: id.pk,
                seq: 0x0102_0304_0506_0708,
                class: 3,
                ct: (0..61).collect(),
            }
            .encode_to_vec(),
            WireMsg::Sealed {
                from: eph.pk,
                seq: 0,
                class: 0,
                ct: vec![],
            }
            .encode_to_vec(),
        ]
    }

    /// The view of `bytes`, rendered as the owned message it stands for.
    fn view_as_owned(bytes: &[u8]) -> Result<WireMsg, WireError> {
        Ok(match WireView::parse(bytes)? {
            WireView::Hello(hs) => WireMsg::Hello(*hs),
            WireView::HelloAck(hs) => WireMsg::HelloAck(*hs),
            WireView::Sealed {
                from,
                seq,
                class,
                ct,
            } => WireMsg::Sealed {
                from: PublicKey::from_bytes(from).expect("test keys are curve points"),
                seq,
                class,
                ct: bytes[ct].to_vec(),
            },
        })
    }

    #[test]
    fn the_view_reads_what_the_decoder_decodes() {
        for bytes in one_of_each_wire_msg() {
            let owned = WireMsg::decode_exact(&bytes).unwrap();
            let viewed = view_as_owned(&bytes).unwrap();
            assert_eq!(viewed.encode_to_vec(), bytes);
            assert_eq!(owned.encode_to_vec(), bytes);
            // Every truncation fails both, and so does a byte too many.
            for len in 0..bytes.len() {
                assert!(WireMsg::decode_exact(&bytes[..len]).is_err());
                assert!(WireView::parse(&bytes[..len]).is_err(), "cut at {len}");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(WireMsg::decode_exact(&longer).is_err());
            assert!(WireView::parse(&longer).is_err());
        }
    }

    #[test]
    fn the_view_rejects_the_tags_and_lengths_the_decoder_rejects() {
        for bytes in one_of_each_wire_msg() {
            // The tag byte and, on a sealed envelope, the four bytes of the
            // ciphertext's length: the fields that say where things are.
            let mut fields = vec![0];
            if bytes[0] == 2 {
                fields.extend(SEALED_HEADER - 4..SEALED_HEADER);
            }
            for at in fields {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[at] ^= 1 << bit;
                    let owned = WireMsg::decode_exact(&bad);
                    let viewed = view_as_owned(&bad);
                    assert_eq!(owned.is_ok(), viewed.is_ok(), "byte {at} bit {bit}");
                    if let (Ok(o), Ok(v)) = (owned, viewed) {
                        // A handshake tag flipped to the other handshake.
                        assert_eq!(o.encode_to_vec(), v.encode_to_vec());
                    }
                }
            }
        }
        // Short, unknown and oversized inputs index nothing out of range.
        assert!(WireView::parse(&[]).is_err());
        assert!(WireView::parse(&[2]).is_err());
        assert!(WireView::parse(&[3; 200]).is_err());
        let mut huge = one_of_each_wire_msg().remove(2);
        huge[SEALED_HEADER - 4..SEALED_HEADER].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(WireView::parse(&huge).is_err());
        assert!(WireMsg::decode_exact(&huge).is_err());
    }

    #[test]
    fn the_view_leaves_the_routing_hint_unvalidated() {
        // The one documented difference: bytes that are no curve point.
        let mut bytes = one_of_each_wire_msg().remove(2);
        bytes[1..65].copy_from_slice(&[3; 64]);
        assert!(WireMsg::decode_exact(&bytes).is_err());
        assert!(matches!(
            WireView::parse(&bytes),
            Ok(WireView::Sealed { from, .. }) if from == &[3; 64]
        ));
    }

    #[test]
    fn cost_class_mapping() {
        let id = ChannelId::from_label("c");
        assert_eq!(
            CostClass::of(&ProtocolMsg::Pay {
                id,
                amount: 1,
                count: 1
            }),
            CostClass::Payment
        );
        assert_eq!(
            CostClass::of(&ProtocolMsg::RepAck { seq: 1 }),
            CostClass::ReplicationAck
        );
        assert_eq!(
            CostClass::of(&ProtocolMsg::MhUpdate {
                route: RouteId([1; 32])
            }),
            CostClass::Multihop
        );
        assert_eq!(
            CostClass::of(&ProtocolMsg::SettleRequest { id }),
            CostClass::Control
        );
        assert_eq!(CostClass::from_byte(99), CostClass::Control);
    }
}
