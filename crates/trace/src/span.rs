//! Span-id derivation and offline causal-tree reconstruction.
//!
//! Span ids are 64-bit FNV-1a hashes of protocol state that *both*
//! endpoints of a causal edge already observe — an op's `(node, seq)`,
//! a sealed wire frame's `(from, to, seq)` header, a co-signing
//! request's `(req_id, origin)` — so the sender and the receiver of a
//! frame derive the same span id independently and no trace context
//! ever needs to ride on the wire (message bytes feed the simulator's
//! bandwidth model; envelope bytes would change timing).
//!
//! Collisions: 64-bit FNV over short structured keys; domain-separation
//! tags keep the key spaces disjoint. A collision would only smudge one
//! trace rendering, never protocol behaviour — acceptable for an
//! observability layer.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::TraceEvent;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `tag || data`, remapped away from 0 (0 means "no span").
pub fn span_id(tag: u8, data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    h ^= tag as u64;
    h = h.wrapping_mul(FNV_PRIME);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Root span of an operation: the submitting node and its op sequence
/// number (the `OpId` the typed API hands back).
pub fn op_span(node: u32, seq: u64) -> u64 {
    let mut key = [0u8; 12];
    key[..4].copy_from_slice(&node.to_le_bytes());
    key[4..].copy_from_slice(&seq.to_le_bytes());
    span_id(b'o', &key)
}

/// Span of one sealed wire frame, derived from the `(from, to, seq)`
/// header fields: the sender knows all three at send time, the receiver
/// at decode time, so both ends mint the same id with zero extra bytes
/// on the wire.
pub fn wire_span(from_pk: &[u8; 64], to_pk: &[u8; 64], seq: u64) -> u64 {
    let mut key = [0u8; 136];
    key[..64].copy_from_slice(from_pk);
    key[64..128].copy_from_slice(to_pk);
    key[128..].copy_from_slice(&seq.to_le_bytes());
    span_id(b'w', &key)
}

/// Span grouping all hops of one multihop route.
pub fn route_span(route_id: u64) -> u64 {
    span_id(b'r', &route_id.to_le_bytes())
}

/// Span of the `n`-th enclave entry on `node`. The counter is
/// deterministic per node (incremented once per ecall in execution
/// order), so sim reruns mint identical ids.
pub fn ecall_span(node: u32, n: u64) -> u64 {
    let mut key = [0u8; 12];
    key[..4].copy_from_slice(&node.to_le_bytes());
    key[4..].copy_from_slice(&n.to_le_bytes());
    span_id(b'e', &key)
}

/// The causal tree reconstructed from a drained event stream.
///
/// Only span-*defining* events ([`crate::event::EventKind::defines_span`]: OpSubmit,
/// Ecall, WireSend) contribute parent edges; annotation events
/// (WireRecv, OpComplete, queue and admission markers) carry their
/// cause informationally but never re-parent a span. The first defining
/// event for a span wins — later defining events for the same span are
/// ignored (a frame span is defined once, at its send site).
#[derive(Debug, Default)]
pub struct SpanTree {
    parent: BTreeMap<u64, u64>,
}

impl SpanTree {
    /// Builds the tree from a merged event stream.
    pub fn build(events: &[TraceEvent]) -> SpanTree {
        let mut parent = BTreeMap::new();
        for e in events {
            if e.kind.defines_span() && e.span != 0 {
                parent.entry(e.span).or_insert(e.parent);
            }
        }
        SpanTree { parent }
    }

    /// The recorded tree parent of `span` (0 = root), or `None` if the
    /// span was never defined in the stream.
    pub fn parent(&self, span: u64) -> Option<u64> {
        self.parent.get(&span).copied()
    }

    /// Number of defined spans.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if no spans were defined.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// All spans whose parent chain reaches `root` (including `root`
    /// itself if defined). Walks each chain with a visited set, so
    /// cycles and dangling parents terminate.
    pub fn reachable_from(&self, root: u64) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        for &span in self.parent.keys() {
            let mut cur = span;
            let mut hops = 0;
            while cur != 0 && hops <= self.parent.len() {
                if cur == root {
                    out.insert(span);
                    break;
                }
                match self.parent.get(&cur) {
                    Some(&p) => cur = p,
                    None => break,
                }
                hops += 1;
            }
        }
        out
    }

    /// True if every defined span's parent chain terminates at `root`
    /// (the single-rooted-tree property the causality suite asserts for
    /// a traced multihop payment).
    pub fn single_rooted_at(&self, root: u64) -> bool {
        !self.parent.is_empty() && self.reachable_from(root).len() == self.parent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn defining(span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: 0,
            node: 0,
            kind: EventKind::Ecall,
            span,
            parent,
            a: 0,
            b: 0,
        }
    }

    fn annotation(span: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: 0,
            node: 0,
            kind: EventKind::OpComplete,
            span,
            parent,
            a: 1,
            b: 0,
        }
    }

    #[test]
    fn span_ids_are_stable_distinct_and_nonzero() {
        assert_eq!(op_span(3, 7), op_span(3, 7));
        assert_ne!(op_span(3, 7), op_span(7, 3));
        // Domain separation: same key bytes, different kind.
        assert_ne!(op_span(1, 2), ecall_span(1, 2));
        let a = [0u8; 64];
        let b = [1u8; 64];
        assert_ne!(wire_span(&a, &b, 5), wire_span(&b, &a, 5));
        for id in [op_span(0, 0), route_span(0), ecall_span(0, 0)] {
            assert_ne!(id, 0);
        }
    }

    #[test]
    fn tree_follows_defining_events_only() {
        // root(10) <- 20 <- 30, plus an annotation claiming 20's cause
        // is 99 — which must not re-parent 20.
        let events = vec![
            defining(10, 0),
            defining(20, 10),
            annotation(20, 99),
            defining(30, 20),
        ];
        let t = SpanTree::build(&events);
        assert_eq!(t.len(), 3);
        assert_eq!(t.parent(20), Some(10));
        assert!(t.single_rooted_at(10));
        assert_eq!(t.reachable_from(10).len(), 3);
    }

    #[test]
    fn first_definition_wins() {
        let events = vec![defining(20, 10), defining(20, 55)];
        let t = SpanTree::build(&events);
        assert_eq!(t.parent(20), Some(10));
    }

    #[test]
    fn detects_forests_and_survives_cycles() {
        let forest = SpanTree::build(&[defining(10, 0), defining(20, 0), defining(30, 20)]);
        assert!(!forest.single_rooted_at(10));
        assert_eq!(forest.reachable_from(10), BTreeSet::from([10]));
        // A (corrupt) cyclic stream must not hang reconstruction.
        let cyclic = SpanTree::build(&[defining(1, 2), defining(2, 1)]);
        assert!(!cyclic.single_rooted_at(3));
    }
}
