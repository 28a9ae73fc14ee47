//! Core identifier and configuration types.

use teechain_blockchain::OutPoint;
use teechain_crypto::schnorr::PublicKey;
use teechain_util::hex;

/// Identifies a payment channel. Chosen by the opening party; must be
/// unique between a pair of TEEs (it is namespaced by the session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub [u8; 32]);

impl ChannelId {
    /// Derives a channel id from a human-readable label (tests, examples).
    pub fn from_label(label: &str) -> Self {
        ChannelId(teechain_crypto::sha256::tagged_hash(
            "teechain/channel-id",
            &[label.as_bytes()],
        ))
    }

    /// Short printable form.
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

teechain_util::impl_wire_struct!(ChannelId { 0 });

/// Identifies a multi-hop payment route instance. The `Ord` impl is the
/// admission layer's wait-die priority: route ids are totally ordered,
/// so "defer only behind a greater id" makes the cross-enclave wait-for
/// graph acyclic (see `admit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(pub [u8; 32]);

impl RouteId {
    /// Derives a route id from a human-readable label (tests, examples).
    pub fn from_label(label: &str) -> Self {
        RouteId(teechain_crypto::sha256::tagged_hash(
            "teechain/route",
            &[label.as_bytes()],
        ))
    }
}

teechain_util::impl_wire_struct!(RouteId { 0 });

/// Identifies a cross-chain atomic swap instance (see [`crate::swap`]).
/// Chosen by the initiating host (like [`RouteId`] for multi-hop routes)
/// so the operation layer can correlate the eventual completion; the swap
/// *secret* is generated inside the enclave and is unrelated to this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwapId(pub [u8; 32]);

impl SwapId {
    /// Derives a swap id from a human-readable label (tests, examples).
    pub fn from_label(label: &str) -> Self {
        SwapId(teechain_crypto::sha256::tagged_hash(
            "teechain/swap-id",
            &[label.as_bytes()],
        ))
    }

    /// Short printable form.
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

teechain_util::impl_wire_struct!(SwapId { 0 });

/// The committee configuration of a deposit: the deposit pays into an
/// `m`-of-`members.len()` multisignature address over the committee TEEs'
/// blockchain keys (§6.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitteeSpec {
    /// Signature threshold `m`.
    pub m: u8,
    /// The blockchain public keys of the committee members, in chain order
    /// (index 0 = the deposit owner's primary TEE).
    pub member_keys: Vec<PublicKey>,
}

teechain_util::impl_wire_struct!(CommitteeSpec { m, member_keys });

impl CommitteeSpec {
    /// A 1-out-of-1 deposit secured by a single TEE key (Alg. 1's
    /// simplified form).
    pub fn single(key: PublicKey) -> Self {
        CommitteeSpec {
            m: 1,
            member_keys: vec![key],
        }
    }

    /// Committee size `n`.
    pub fn n(&self) -> usize {
        self.member_keys.len()
    }
}

/// A fund deposit (§4.1): an on-chain transaction output whose keys are
/// held by TEEs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deposit {
    /// The on-chain output.
    pub outpoint: OutPoint,
    /// Its value.
    pub value: u64,
    /// Committee securing it.
    pub committee: CommitteeSpec,
}

teechain_util::impl_wire_struct!(Deposit {
    outpoint,
    value,
    committee,
});

/// The stage of a channel's participation in a multi-hop payment (Alg. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultihopStage {
    /// No multi-hop payment in progress.
    Idle,
    /// Channel locked; balances are pre-payment.
    Lock,
    /// τ is being signed along the path.
    Sign,
    /// Fully signed τ held; only τ-settlement allowed.
    PreUpdate,
    /// Balances updated to post-payment; τ still authoritative.
    Update,
    /// τ discarded; individual post-payment settlement allowed.
    PostUpdate,
    /// Unlocking.
    Release,
    /// Prematurely terminated.
    Terminated,
}

teechain_util::impl_wire_enum!(MultihopStage, "multihop stage" {
    Idle = 0,
    Lock = 1,
    Sign = 2,
    PreUpdate = 3,
    Update = 4,
    PostUpdate = 5,
    Release = 6,
    Terminated = 7,
});

/// Protocol-level failures surfaced to the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// No established session with the remote TEE.
    NoSession,
    /// Unknown channel id.
    UnknownChannel,
    /// The channel already exists.
    ChannelExists,
    /// The channel is not open (ack outstanding or already settled).
    ChannelNotOpen,
    /// The channel is locked by an in-flight multi-hop payment (§5.1).
    ChannelLocked,
    /// The channel was settled, ejected or closed while the operation
    /// was still queued behind its lock (admission queue flush).
    ChannelClosed,
    /// Balance too low for the requested payment or dissociation.
    InsufficientBalance,
    /// Deposit unknown, not free, or not approved by the counterparty.
    BadDeposit,
    /// Message failed authentication / freshness checks.
    BadMessage,
    /// Remote attestation failed.
    AttestationFailed,
    /// Operation illegal in the current multi-hop stage.
    BadStage,
    /// This enclave is frozen (force-freeze replication tripped, §6).
    Frozen,
    /// Replication backup did not match expectations.
    ReplicationError,
    /// The presented proof of premature termination is not valid.
    BadPopt,
    /// Monotonic counter is throttled; retry at the given time (ns).
    CounterThrottled {
        /// Earliest retry time.
        ready_at: u64,
    },
    /// Crash recovery presented storage older than the hardware
    /// monotonic counter proves must exist — a roll-back attack or a
    /// lost WAL suffix. The enclave refuses to run on stale state
    /// (§6.2).
    StaleState {
        /// Highest commit counter the presented storage reaches.
        found: u64,
        /// The hardware counter value (commits that must be present).
        expected: u64,
    },
    /// A cross-chain atomic swap is pending on the channel: settlement
    /// and further swaps are refused until it resolves (the anti-griefing
    /// guard — settling mid-swap would strand the counterparty's on-chain
    /// lock).
    SwapPending,
}

impl ProtocolError {
    /// Short stable variant name (used for `op_errors` accounting in the
    /// bench artifacts and for [`crate::ops::OpError::label`]).
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolError::NoSession => "NoSession",
            ProtocolError::UnknownChannel => "UnknownChannel",
            ProtocolError::ChannelExists => "ChannelExists",
            ProtocolError::ChannelNotOpen => "ChannelNotOpen",
            ProtocolError::ChannelLocked => "ChannelLocked",
            ProtocolError::ChannelClosed => "ChannelClosed",
            ProtocolError::InsufficientBalance => "InsufficientBalance",
            ProtocolError::BadDeposit => "BadDeposit",
            ProtocolError::BadMessage => "BadMessage",
            ProtocolError::AttestationFailed => "AttestationFailed",
            ProtocolError::BadStage => "BadStage",
            ProtocolError::Frozen => "Frozen",
            ProtocolError::ReplicationError => "ReplicationError",
            ProtocolError::BadPopt => "BadPopt",
            ProtocolError::CounterThrottled { .. } => "CounterThrottled",
            ProtocolError::StaleState { .. } => "StaleState",
            ProtocolError::SwapPending => "SwapPending",
        }
    }

    /// Wire code for carrying a failure *reason* inside a protocol
    /// message (multi-hop abort unwinding). Only payload-free variants
    /// travel; the payload-carrying ones collapse to their tag and decode
    /// to a zeroed payload.
    pub fn abort_code(&self) -> u8 {
        match self {
            ProtocolError::NoSession => 0,
            ProtocolError::UnknownChannel => 1,
            ProtocolError::ChannelExists => 2,
            ProtocolError::ChannelNotOpen => 3,
            ProtocolError::ChannelLocked => 4,
            ProtocolError::InsufficientBalance => 5,
            ProtocolError::BadDeposit => 6,
            ProtocolError::BadMessage => 7,
            ProtocolError::AttestationFailed => 8,
            ProtocolError::BadStage => 9,
            ProtocolError::Frozen => 10,
            ProtocolError::ReplicationError => 11,
            ProtocolError::BadPopt => 12,
            ProtocolError::CounterThrottled { .. } => 13,
            ProtocolError::StaleState { .. } => 14,
            ProtocolError::ChannelClosed => 15,
            ProtocolError::SwapPending => 16,
        }
    }

    /// Inverse of [`ProtocolError::abort_code`] (unknown codes collapse
    /// to [`ProtocolError::BadStage`], the generic multi-hop failure).
    pub fn from_abort_code(code: u8) -> ProtocolError {
        match code {
            0 => ProtocolError::NoSession,
            1 => ProtocolError::UnknownChannel,
            2 => ProtocolError::ChannelExists,
            3 => ProtocolError::ChannelNotOpen,
            4 => ProtocolError::ChannelLocked,
            5 => ProtocolError::InsufficientBalance,
            6 => ProtocolError::BadDeposit,
            7 => ProtocolError::BadMessage,
            8 => ProtocolError::AttestationFailed,
            10 => ProtocolError::Frozen,
            11 => ProtocolError::ReplicationError,
            12 => ProtocolError::BadPopt,
            13 => ProtocolError::CounterThrottled { ready_at: 0 },
            14 => ProtocolError::StaleState {
                found: 0,
                expected: 0,
            },
            15 => ProtocolError::ChannelClosed,
            16 => ProtocolError::SwapPending,
            _ => ProtocolError::BadStage,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtocolError::NoSession => "no session with remote TEE",
            ProtocolError::UnknownChannel => "unknown channel",
            ProtocolError::ChannelExists => "channel already exists",
            ProtocolError::ChannelNotOpen => "channel not open",
            ProtocolError::ChannelLocked => "channel locked by multi-hop payment",
            ProtocolError::ChannelClosed => "channel closed while operation queued",
            ProtocolError::InsufficientBalance => "insufficient balance",
            ProtocolError::BadDeposit => "deposit unknown, unapproved or not free",
            ProtocolError::BadMessage => "message failed authentication",
            ProtocolError::AttestationFailed => "remote attestation failed",
            ProtocolError::BadStage => "operation illegal in current multi-hop stage",
            ProtocolError::Frozen => "enclave frozen by force-freeze replication",
            ProtocolError::ReplicationError => "replication error",
            ProtocolError::BadPopt => "invalid proof of premature termination",
            ProtocolError::CounterThrottled { .. } => "monotonic counter throttled",
            ProtocolError::SwapPending => "atomic swap pending on channel",
            ProtocolError::StaleState { found, expected } => {
                return write!(
                    f,
                    "stale durable state: storage reaches commit {found}, hardware counter proves {expected}"
                );
            }
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_crypto::schnorr::Keypair;
    use teechain_util::codec::{Decode, Encode};

    #[test]
    fn channel_id_deterministic() {
        assert_eq!(ChannelId::from_label("c1"), ChannelId::from_label("c1"));
        assert_ne!(ChannelId::from_label("c1"), ChannelId::from_label("c2"));
    }

    #[test]
    fn committee_spec_roundtrip() {
        let spec = CommitteeSpec {
            m: 2,
            member_keys: (1..=3u8).map(|i| Keypair::from_seed(&[i; 32]).pk).collect(),
        };
        let decoded = CommitteeSpec::decode_exact(&spec.encode_to_vec()).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(decoded.n(), 3);
    }

    #[test]
    fn stage_roundtrip() {
        for stage in [
            MultihopStage::Idle,
            MultihopStage::Lock,
            MultihopStage::Sign,
            MultihopStage::PreUpdate,
            MultihopStage::Update,
            MultihopStage::PostUpdate,
            MultihopStage::Release,
            MultihopStage::Terminated,
        ] {
            let decoded = MultihopStage::decode_exact(&stage.encode_to_vec()).unwrap();
            assert_eq!(decoded, stage);
        }
    }
}
