//! The engine's event key and heap.
//!
//! Events are ordered by `LaneKey` `(time, origin node, per-origin
//! seq)`. A global creation counter would be a shared point shards race
//! for; instead each node allocates sequence numbers from its own lane,
//! and since any one node's actions are applied in a deterministic
//! order, the key of every event is independent of how nodes are
//! partitioned into shards.

use super::EventKind;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event ordering key: `(time, origin, per-origin seq)`.
/// Globally unique (a lane never reuses a sequence number), so heap
/// insertion order can never influence pop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LaneKey {
    pub(crate) time: u64,
    pub(crate) origin: u32,
    pub(crate) oseq: u64,
}

/// An event with its lane key and its body stored inline, so the heap
/// needs no side table.
pub(crate) struct Ev {
    pub(crate) key: LaneKey,
    pub(crate) kind: EventKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest key
        // on top without wrapping every element in `Reverse`.
        other.key.cmp(&self.key)
    }
}

/// A min-heap of [`Ev`]s (earliest [`LaneKey`] first).
#[derive(Default)]
pub(crate) struct LaneQueue {
    heap: BinaryHeap<Ev>,
}

impl LaneQueue {
    pub(crate) fn push(&mut self, ev: Ev) {
        self.heap.push(ev);
    }

    pub(crate) fn extend(&mut self, evs: impl IntoIterator<Item = Ev>) {
        self.heap.extend(evs);
    }

    /// Earliest queued event time, if any.
    pub(crate) fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|ev| ev.key.time)
    }

    /// Pops the earliest event if it is scheduled strictly before
    /// `bound` — the window-processing primitive.
    pub(crate) fn pop_before(&mut self, bound: u64) -> Option<Ev> {
        if self.heap.peek()?.key.time < bound {
            self.heap.pop()
        } else {
            None
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn ev(time: u64, origin: u32, oseq: u64) -> Ev {
        Ev {
            key: LaneKey { time, origin, oseq },
            kind: EventKind::Timer {
                node: NodeId(origin),
                token: oseq,
            },
        }
    }

    #[test]
    fn pops_in_time_origin_seq_order() {
        let mut q = LaneQueue::default();
        q.push(ev(5, 2, 0));
        q.push(ev(5, 1, 9));
        q.push(ev(3, 7, 4));
        q.push(ev(5, 1, 3));
        let mut keys = Vec::new();
        while let Some(e) = q.pop_before(u64::MAX) {
            keys.push((e.key.time, e.key.origin, e.key.oseq));
        }
        assert_eq!(keys, vec![(3, 7, 4), (5, 1, 3), (5, 1, 9), (5, 2, 0)]);
    }

    #[test]
    fn pop_before_respects_bound() {
        let mut q = LaneQueue::default();
        q.push(ev(10, 0, 0));
        q.push(ev(20, 0, 1));
        assert!(q.pop_before(10).is_none());
        assert!(q.pop_before(11).is_some());
        assert_eq!(q.next_time(), Some(20));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn insertion_order_never_matters() {
        // Keys are unique, so any permutation of pushes pops identically.
        let evs = [(4u64, 1u32, 0u64), (4, 0, 1), (2, 9, 9), (4, 0, 0)];
        let expect = vec![(2, 9, 9), (4, 0, 0), (4, 0, 1), (4, 1, 0)];
        // Try a few rotations of the insertion order.
        for rot in 0..evs.len() {
            let mut q = LaneQueue::default();
            for i in 0..evs.len() {
                let (t, o, s) = evs[(i + rot) % evs.len()];
                q.push(ev(t, o, s));
            }
            let mut got = Vec::new();
            while let Some(e) = q.pop_before(u64::MAX) {
                got.push((e.key.time, e.key.origin, e.key.oseq));
            }
            assert_eq!(got, expect);
        }
    }
}
