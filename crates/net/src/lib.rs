//! The network substrate: a deterministic discrete-event simulator and a
//! live runtime over real threads and sockets.
//!
//! The paper's evaluation runs on a 33-machine testbed spanning the UK, the
//! US and Israel (Fig. 3). This crate reproduces that substrate twice —
//! once in simulation, once for real:
//!
//! * [`engine`] — the event loop: message delivery, timers, and a
//!   per-node single-server CPU model (a node busy processing one message
//!   queues the next), which is what turns per-operation costs into
//!   throughput limits. One engine, [`ShardedEngine`] (also named
//!   [`AnyEngine`]): a sequential loop at one shard, conservative-parallel
//!   at more, with results identical for any shard count.
//! * [`live`] — the real substrate: the non-blocking reactor transport
//!   ([`ReactorNet`]) the live runtime runs on, the [`Transport`]
//!   abstraction with an in-process channel backend ([`ThreadNet`]) and a
//!   localhost TCP backend ([`TcpNet`]), plus the [`live::drive`] bridge
//!   that runs the unmodified node handlers outside any engine so a live
//!   scheduler can perform their actions as actual I/O.
//! * [`link`] — per-link latency, jitter and bandwidth (simulation only;
//!   live links are as fast as the kernel and the wire).
//! * [`topology`] — the Fig. 3 WAN testbed, complete graphs and the Fig. 5
//!   hub-and-spoke overlay (including generated large-scale variants).
//! * [`stats`] — latency histograms (mean / p50 / p99, as reported in the
//!   paper's tables), mergeable across shards and runs.
//!
//! Simulation is deterministic given a seed: two runs of the same scenario
//! produce identical traces. Live runs race like any real system; they
//! promise only per-connection FIFO delivery, and the sim-vs-live
//! equivalence suite in `crates/core` checks that protocol *outcomes*
//! agree across both substrates.

pub mod engine;
pub mod link;
pub mod live;
pub mod stats;
pub mod topology;

pub use engine::{AnyEngine, Ctx, EngineKind, NodeId, ShardedEngine, SimNode, SimStats};
pub use link::LinkSpec;
pub use live::{
    NodeAction, ReactorNet, TcpNet, ThreadNet, Transport, TransportError, TransportRx, TransportTx,
};
pub use stats::Histogram;

/// Nanoseconds per microsecond.
pub const US: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const MS: u64 = 1_000_000;
/// Nanoseconds per second.
pub const SEC: u64 = 1_000_000_000;
