//! Pluggable fault-tolerance backends (§6 of the paper).
//!
//! Teechain survives TEE crashes through one of two interchangeable
//! mechanisms, chosen per node:
//!
//! * **Replication** — force-freeze committee chains (Alg. 3,
//!   [`crate::replication`]): state deltas propagate down a chain of
//!   backup TEEs before any effect becomes visible. Fast (tens of
//!   thousands of tx/s; the replication message dominates) but requires
//!   extra machines in distinct failure domains.
//! * **Persist** — §6.2 persistent storage: every commit seals its state
//!   deltas, binds them to a hardware monotonic-counter increment and
//!   appends them to a host-side write-ahead log
//!   ([`teechain_persist`]); periodic sealed snapshots compact the log.
//!   No extra machines, but the SGX counter throttle (~10 increments/s)
//!   caps unbatched throughput at ~10 tx/s (Table 1) — group commit
//!   amortizes one increment over a whole batch of deltas.
//! * **None** — no fault tolerance: a crashed TEE strands its channels
//!   until its deposits are reclaimed by settlement from the
//!   counterparty side.
//!
//! [`DurabilityBackend`] is consumed in two places: the enclave config
//! ([`crate::enclave::EnclaveConfig`]) reads the persistence policy, and
//! the cluster harness wires up the rest — every cluster's nodes get
//! their harness-owned stores from one node factory, and the simulated
//! [`crate::testkit::Cluster`] alone chains backups
//! ([`crate::live::LiveCluster`] rejects replication).

/// Tuning for the persistent-storage backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistPolicy {
    /// Install a full sealed snapshot (and compact the WAL) every this
    /// many commits. `1` reproduces the paper's naive full-state sealing
    /// (every state change seals everything); larger values amortize
    /// snapshot cost over WAL appends.
    pub snapshot_every: u32,
}

impl Default for PersistPolicy {
    fn default() -> Self {
        PersistPolicy { snapshot_every: 8 }
    }
}

/// Which fault-tolerance mechanism a node runs (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityBackend {
    /// No fault tolerance (Table 1 row 2).
    #[default]
    None,
    /// Committee-chain replication with this many backups per node
    /// (§6.1). The enclave itself treats this like `None` — replication
    /// state flows through `AttachBackup` — but cluster builders use the
    /// count to spawn and chain backup TEEs.
    Replication {
        /// Backups per primary (chain length minus one).
        backups: usize,
    },
    /// §6.2 persistent storage with monotonic counters.
    Persist(PersistPolicy),
}

impl DurabilityBackend {
    /// Persistent storage with the default policy.
    pub fn persistent() -> Self {
        DurabilityBackend::Persist(PersistPolicy::default())
    }

    /// Persistent storage that seals a full snapshot on every commit —
    /// the paper's §6.2 behaviour, with the WAL degenerating to empty.
    pub fn eager_persist() -> Self {
        DurabilityBackend::Persist(PersistPolicy { snapshot_every: 1 })
    }

    /// True for the persistent-storage backend.
    pub fn is_persist(&self) -> bool {
        matches!(self, DurabilityBackend::Persist(_))
    }

    /// The persistence policy, if this backend has one.
    pub fn persist_policy(&self) -> Option<PersistPolicy> {
        match self {
            DurabilityBackend::Persist(p) => Some(*p),
            _ => None,
        }
    }

    /// Backups each primary should get from a cluster builder.
    pub fn auto_backups(&self) -> usize {
        match self {
            DurabilityBackend::Replication { backups } => *backups,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_accessors() {
        assert!(!DurabilityBackend::None.is_persist());
        assert!(DurabilityBackend::persistent().is_persist());
        assert_eq!(
            DurabilityBackend::eager_persist().persist_policy(),
            Some(PersistPolicy { snapshot_every: 1 })
        );
        assert_eq!(
            DurabilityBackend::Replication { backups: 2 }.auto_backups(),
            2
        );
        assert_eq!(DurabilityBackend::persistent().auto_backups(), 0);
    }
}
