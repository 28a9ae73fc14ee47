//! Dense per-node slots: one keyed look-up where a wire identity enters a
//! node, `Vec` indexing after it.
//!
//! A [`SlotMap`] hands every key a `u32` slot when it is first inserted and
//! keeps the values in a `Vec` in insertion order. The key-to-slot index is
//! the only hashed structure; a caller that holds a slot reaches the value
//! by indexing. Slots are never freed or reused within one instance, so a
//! slot means the same key for as long as the table lives, and iterating
//! the values is iterating in creation order — a pure function of the
//! operations applied, never of a hasher's random state.
//!
//! Slots are volatile: nothing seals them or sends them. A table rebuilt
//! from sealed state or a replayed log hands out slots in replay order.

use std::collections::HashMap;
use std::hash::Hash;

/// Values in creation order, by key through one look-up and by slot
/// through none.
pub(crate) struct SlotMap<K, V> {
    index: HashMap<K, u32>,
    values: Vec<V>,
}

impl<K, V> Default for SlotMap<K, V> {
    fn default() -> Self {
        SlotMap {
            index: HashMap::new(),
            values: Vec::new(),
        }
    }
}

impl<K: Hash + Eq, V> SlotMap<K, V> {
    /// The slot `key` holds, if it was ever inserted.
    pub(crate) fn slot(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// The slot `key` holds, with the value in it.
    pub(crate) fn find(&self, key: &K) -> Option<(u32, &V)> {
        let s = self.slot(key)?;
        Some((s, &self.values[s as usize]))
    }

    /// The value under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.slot(key).map(|s| &self.values[s as usize])
    }

    /// The value under `key`, mutably.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let s = self.slot(key)?;
        Some(&mut self.values[s as usize])
    }

    /// True if `key` holds a slot.
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The value in `slot`, if the slot was handed out.
    pub(crate) fn at(&self, slot: u32) -> Option<&V> {
        self.values.get(slot as usize)
    }

    /// The value in `slot`, mutably.
    pub(crate) fn at_mut(&mut self, slot: u32) -> Option<&mut V> {
        self.values.get_mut(slot as usize)
    }

    /// Stores `value` under `key`: in the key's slot if it has one (the
    /// old value is dropped), in a new last slot otherwise. Returns the
    /// slot.
    pub(crate) fn insert(&mut self, key: K, value: V) -> u32 {
        match self.index.get(&key) {
            Some(&s) => {
                self.values[s as usize] = value;
                s
            }
            None => self.push(key, value),
        }
    }

    /// The slot of `key`, inserting `make()` in a new last slot if the key
    /// has none.
    pub(crate) fn slot_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> u32 {
        match self.index.get(&key) {
            Some(&s) => s,
            None => self.push(key, make()),
        }
    }

    fn push(&mut self, key: K, value: V) -> u32 {
        let s = u32::try_from(self.values.len()).expect("fewer than 2^32 slots");
        self.index.insert(key, s);
        self.values.push(value);
        s
    }

    /// Every value, in slot (creation) order.
    pub(crate) fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }

    /// Number of slots handed out.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no slot was handed out.
    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Any sequence of inserts: every key finds, by key and by slot,
        /// what a `BTreeMap` finds, slots are dense and stable, and values
        /// iterate in first-insertion order.
        #[test]
        fn prop_agrees_with_a_btreemap(ops in proptest::collection::vec(any::<u16>(), 0..64)) {
            let mut t: SlotMap<u8, u16> = SlotMap::default();
            let mut reference = BTreeMap::new();
            let mut order = Vec::new();
            let mut slots = BTreeMap::new();
            for op in ops {
                let (k, v) = ((op % 16) as u8, op >> 4);
                let s = t.insert(k, v);
                if reference.insert(k, v).is_none() {
                    order.push(k);
                }
                prop_assert_eq!(*slots.entry(k).or_insert(s), s);
            }
            prop_assert_eq!(t.len(), reference.len());
            for k in 0u8..16 {
                prop_assert_eq!(t.get(&k), reference.get(&k));
                prop_assert_eq!(t.slot(&k).and_then(|s| t.at(s)), reference.get(&k));
            }
            let by_slot: Vec<u16> = t.values().copied().collect();
            let want: Vec<u16> = order.iter().map(|k| reference[k]).collect();
            prop_assert_eq!(by_slot, want);
            prop_assert!(t.at(t.len() as u32).is_none());
        }
    }
}
