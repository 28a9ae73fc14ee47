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
use teechain_util::codec::{Encode, Reader, WireError};

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

teechain_util::impl_wire_enum!(WireMsg, "wire tag" {
    Hello = 0 (h),
    HelloAck = 1 (h),
    Sealed = 2 { from, seq, class, ct },
});

/// Bytes of an encoded [`WireMsg::Sealed`] in front of its ciphertext: the
/// tag, `from`, `seq`, `class` and the ciphertext's `u32` length.
pub(crate) const SEALED_HEADER: usize = 1 + 64 + 8 + 1 + 4;

/// Starts an encoded [`WireMsg::Sealed`] in the empty `out`: everything in
/// front of the ciphertext, which the caller appends before it calls
/// [`finish_sealed`]. The session seals into this buffer, so an envelope is
/// never built as a value and then encoded.
// Hand-written: the session seals into this buffer, so no value exists to encode.
pub(crate) fn begin_sealed(out: &mut Vec<u8>, from: &[u8; 64], seq: u64, class: u8) {
    debug_assert!(out.is_empty());
    out.push(2);
    out.extend_from_slice(from);
    seq.encode(out);
    out.push(class);
    0u32.encode(out);
}

/// Writes the length of the ciphertext now behind the header into it.
// Hand-written: patches the length in place once the ciphertext is sealed.
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
    // Hand-written: borrows the ciphertext where it lies instead of copying it out.
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
    /// Release a deposit by the transaction `txid`: our own, if free, is
    /// marked released by it; a remote one is dropped.
    ReleaseDeposit {
        /// The deposit.
        op: OutPoint,
        /// The releasing transaction's id (witnesses excluded).
        txid: TxId,
    },
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

teechain_util::impl_wire_enum!(StateDelta, "delta tag" {
    Channel = 0 (c),
    Pay = 1 { id, my_delta, remote_delta },
    Stage = 2 { id, stage },
    Deposit = 3 { dep, key, mine },
    ReleaseDeposit = 4 { op, txid },
    Tau = 5 { route, tau },
    CloseChannel = 6 (id),
    Swap = 7 (s),
    Route = 8 (route),
    RouteStage = 9 { route, stage },
    Key = 10 (pk, sk),
    DestroyKey = 11 (pk),
    RouteSigned = 12 (route, tau, digests),
});

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
    /// Asks the committee chain to co-sign a settlement, a route's τ or
    /// a release; it walks down the chain until its thresholds are met.
    SigRequest {
        /// The origin's request id (matches the response).
        req_id: u64,
        /// Forwards so far: 0 from the origin, one more per member that
        /// passed it on.
        hops: u8,
        /// The transaction, with every signature added so far.
        tx: Transaction,
    },
    /// The committee's answer, retracing the request's path upstream.
    SigResponse {
        /// The origin's request id.
        req_id: u64,
        /// Relays left before the origin: the request's count where it
        /// was answered, one less per member that relayed it.
        hops: u8,
        /// `(input index, signature)` pairs.
        sigs: Vec<(u32, Signature)>,
        /// True if a member refused (state mismatch — Byzantine guard).
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

teechain_util::impl_wire_enum!(ProtocolMsg, "protocol tag" {
    NewChannel = 0 { id, settlement },
    NewChannelAck = 1 { id, settlement },
    ApproveDeposit = 2 { deposit },
    DepositApproved = 3 { outpoint },
    AssociateDeposit = 4 { id, deposit, key },
    DissociateDeposit = 5 { id, outpoint },
    DissociateAck = 6 { id, outpoint },
    Pay = 7 { id, amount, count },
    PayAck = 8 { id, amount, count },
    SettleRequest = 9 { id },
    ChannelClosed = 10 { id },
    MhLock = 11 (m),
    MhSign = 12 { route, tau, digests, deposits },
    MhPreUpdate = 13 { route, witnesses },
    MhUpdate = 14 { route },
    MhPostUpdate = 15 { route },
    MhRelease = 16 { route },
    RepAssign = 17,
    RepAssignAck = 18 { member_key },
    RepUpdate = 19 { seq, deltas },
    RepAck = 20 { seq },
    RepFreeze = 21,
    SigRequest = 22 { req_id, hops, tx },
    SigResponse = 23 { req_id, hops, sigs, refused },
    PayNack = 24 { id, amount, count, reason },
    MhAbort = 25 { route, reason },
    SwapInit = 26 { swap, channel, amount, alt_amount, hash, timeout_blocks },
    SwapLocked = 27 { swap, outpoint },
    SwapSecret = 28 { swap, secret },
    SwapNack = 29 { swap, reason },
});

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_crypto::schnorr::Keypair;
    use teechain_util::codec::Decode;

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
