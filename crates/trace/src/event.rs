//! The compact binary trace event — the only thing the flight recorder
//! stores.
//!
//! One event is a fixed 45-byte little-endian record; a drained trace is
//! just the concatenation ([`encode_all`]), so "byte-identical traces"
//! is a meaningful, testable property (the determinism suite compares
//! these bytes across reruns and shard counts).

/// What happened. The discriminant is the wire byte.
///
/// Three kinds *define* a span's position in the causal tree (their
/// `parent` field is the span's tree parent): [`EventKind::OpSubmit`],
/// [`EventKind::Ecall`] and [`EventKind::WireSend`]. Every other kind is
/// an *annotation inside* an existing span — its `parent` field carries
/// the recording site's current cause for flow rendering, but does not
/// re-parent the span (see [`crate::span::SpanTree`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// An operation was submitted; `span` is its root span, `a` the op
    /// sequence number.
    OpSubmit = 1,
    /// An operation resolved; `span` is its root span, `a` is 1 for
    /// success / 0 for a typed error, `parent` the resolving cause.
    OpComplete = 2,
    /// An enclave entry (command, delivery, pump); `parent` is the
    /// triggering span (op root, inbound wire frame, or 0 for a timer).
    Ecall = 3,
    /// A wire frame left this node; `span` is the frame span (derived
    /// from the sealed header both endpoints see), `a` the frame bytes.
    WireSend = 4,
    /// A wire frame arrived; same `span` as the sender's
    /// [`EventKind::WireSend`] — this is the cross-node causal stitch.
    WireRecv = 5,
    /// Work entered a wait queue (host throttle park, or `a` ops entered
    /// the in-enclave admission queues during the annotated ecall).
    QueueEnter = 6,
    /// Work left a wait queue (host throttle re-dispatch).
    QueueExit = 7,
    /// `a` inbound messages were deferred behind a locked channel.
    AdmitDefer = 8,
    /// `a` admission drain batches started, carrying `b` operations.
    AdmitBatch = 9,
    /// `a` ops were rerouted over an unlocked sibling channel.
    AdmitReroute = 10,
    /// `a` queued/deferred entries expired at their admission deadline.
    AdmitExpire = 11,
    /// A WAL commit record of `a` bytes was appended durably.
    WalAppend = 12,
    /// A sealed snapshot of `a` bytes was installed.
    WalSnapshot = 13,
    /// Free-form marker (tests, harnesses).
    Mark = 14,
}

impl EventKind {
    /// Decodes the wire byte.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::OpSubmit,
            2 => EventKind::OpComplete,
            3 => EventKind::Ecall,
            4 => EventKind::WireSend,
            5 => EventKind::WireRecv,
            6 => EventKind::QueueEnter,
            7 => EventKind::QueueExit,
            8 => EventKind::AdmitDefer,
            9 => EventKind::AdmitBatch,
            10 => EventKind::AdmitReroute,
            11 => EventKind::AdmitExpire,
            12 => EventKind::WalAppend,
            13 => EventKind::WalSnapshot,
            14 => EventKind::Mark,
            _ => return None,
        })
    }

    /// True if this kind's `parent` field defines its span's position in
    /// the causal tree (rather than annotating an existing span).
    pub fn defines_span(self) -> bool {
        matches!(
            self,
            EventKind::OpSubmit | EventKind::Ecall | EventKind::WireSend
        )
    }

    /// Stable display name (also the chrome://tracing event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::OpSubmit => "op_submit",
            EventKind::OpComplete => "op_complete",
            EventKind::Ecall => "ecall",
            EventKind::WireSend => "wire_send",
            EventKind::WireRecv => "wire_recv",
            EventKind::QueueEnter => "queue_enter",
            EventKind::QueueExit => "queue_exit",
            EventKind::AdmitDefer => "admit_defer",
            EventKind::AdmitBatch => "admit_batch",
            EventKind::AdmitReroute => "admit_reroute",
            EventKind::AdmitExpire => "admit_expire",
            EventKind::WalAppend => "wal_append",
            EventKind::WalSnapshot => "wal_snapshot",
            EventKind::Mark => "mark",
        }
    }
}

/// One flight-recorder record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When: simulated ns under the engines, monotonic ns since the
    /// cluster epoch under the live runtime.
    pub ts_ns: u64,
    /// Which node recorded it.
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
    /// The span this event belongs to (0 = uncorrelated).
    pub span: u64,
    /// Tree parent (defining kinds) or causal annotation (others).
    pub parent: u64,
    /// Kind-specific payload (counts, byte sizes, sequence numbers).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

impl TraceEvent {
    /// Fixed encoded size: ts(8) + node(4) + kind(1) + span(8) +
    /// parent(8) + a(8) + b(8).
    pub const ENCODED_LEN: usize = 45;

    /// Appends the fixed little-endian encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ts_ns.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
        out.push(self.kind as u8);
        out.extend_from_slice(&self.span.to_le_bytes());
        out.extend_from_slice(&self.parent.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
    }

    /// Decodes one record from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Option<TraceEvent> {
        if bytes.len() < Self::ENCODED_LEN {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        Some(TraceEvent {
            ts_ns: u64_at(0),
            node: u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            kind: EventKind::from_u8(bytes[12])?,
            span: u64_at(13),
            parent: u64_at(21),
            a: u64_at(29),
            b: u64_at(37),
        })
    }
}

/// Encodes a whole event stream as the concatenation of fixed records —
/// the byte string the determinism suite compares.
pub fn encode_all(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(events.len() * TraceEvent::ENCODED_LEN);
    for e in events {
        e.encode_into(&mut out);
    }
    out
}

/// Decodes a concatenated stream; `None` on truncation or an unknown
/// kind byte.
pub fn decode_all(bytes: &[u8]) -> Option<Vec<TraceEvent>> {
    if !bytes.len().is_multiple_of(TraceEvent::ENCODED_LEN) {
        return None;
    }
    bytes
        .chunks_exact(TraceEvent::ENCODED_LEN)
        .map(TraceEvent::decode)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: EventKind) -> TraceEvent {
        TraceEvent {
            ts_ns: 123_456_789,
            node: 7,
            kind: k,
            span: 0xDEAD_BEEF_0102_0304,
            parent: 42,
            a: u64::MAX,
            b: 9,
        }
    }

    #[test]
    fn round_trips_every_kind() {
        for byte in 0..=u8::MAX {
            let Some(kind) = EventKind::from_u8(byte) else {
                continue;
            };
            let e = sample(kind);
            let mut buf = Vec::new();
            e.encode_into(&mut buf);
            assert_eq!(buf.len(), TraceEvent::ENCODED_LEN);
            assert_eq!(TraceEvent::decode(&buf), Some(e));
        }
    }

    #[test]
    fn stream_round_trip_and_truncation() {
        let events = vec![sample(EventKind::OpSubmit), sample(EventKind::WireRecv)];
        let bytes = encode_all(&events);
        assert_eq!(decode_all(&bytes), Some(events));
        assert_eq!(decode_all(&bytes[..bytes.len() - 1]), None);
        let mut bad = bytes.clone();
        bad[12] = 0xFF; // Unknown kind byte.
        assert_eq!(decode_all(&bad), None);
        assert_eq!(decode_all(&[]), Some(Vec::new()));
    }

    #[test]
    fn defining_kinds_are_exactly_the_tree_edges() {
        let defining: Vec<EventKind> = (0..=u8::MAX)
            .filter_map(EventKind::from_u8)
            .filter(|k| k.defines_span())
            .collect();
        assert_eq!(
            defining,
            vec![EventKind::OpSubmit, EventKind::Ecall, EventKind::WireSend]
        );
    }
}
