//! # Teechain
//!
//! A from-scratch Rust reproduction of *Teechain: A Secure Payment Network
//! with Asynchronous Blockchain Access* (Lind et al., SOSP 2019).
//!
//! Teechain is a layer-two payment network that — unlike Lightning-style
//! designs — never needs to write to the blockchain within a bounded time.
//! Funds are controlled by trusted execution environments (TEEs); payment
//! channels update by exchanging a single authenticated message; deposits
//! are created independently of channels and assigned to them dynamically;
//! and TEE crash/compromise is tolerated by force-freeze chain replication
//! combined with m-of-n multisignature committee chains.
//!
//! Layering:
//!
//! * [`enclave`] — the TEE-resident program: [`enclave::TeechainEnclave`]
//!   (a sans-io state machine), its [`enclave::Command`] ecalls and
//!   [`enclave::Effect`] outputs. Payment channels (Alg. 1) live here.
//! * [`multihop`] — multi-hop payments with proofs of premature
//!   termination (Alg. 2).
//! * [`replication`] — force-freeze chain replication and committees
//!   (Alg. 3, §6).
//! * [`node`] — the untrusted host: wraps the enclave, performs network
//!   and blockchain I/O, gathers committee co-signatures.
//! * [`ops`] — the correlated-operation layer: every submitted command
//!   gets an [`ops::OpId`] and resolves to exactly one typed
//!   [`ops::Completion`] (success payload or [`ops::OpError`], including
//!   remote rejections and timeouts).
//! * [`driver`] — runs hosts inside the deterministic network simulator
//!   with the calibrated CPU cost model (reproduces §7).
//! * [`live`] — runs the *same* hosts as a real concurrent system:
//!   per-node OS threads, wall-clock timers and a real transport
//!   (in-process channels or localhost TCP) instead of the simulator —
//!   or, for 1,000+ nodes per box, the internal run-queue scheduler
//!   (`live_sched`) over the non-blocking reactor transport.
//! * [`routing`] — shortest-path and k-path route selection for payment
//!   networks (§7.4 dynamic routing).
//!
//! # Quickstart
//!
//! Applications drive a cluster through typed operations — submit via a
//! [`testkit::NodeHandle`], resolve the [`ops::Pending`] token; raw
//! commands and `HostEvent` scraping never appear. The same
//! [`testkit::Harness`] calls drive a simulated or a live cluster:
//!
//! ```
//! use teechain::testkit::{Cluster, Harness};
//!
//! let mut net = Cluster::functional(2);
//! let session = net.handle(0).connect(1);
//! net.wait(session).unwrap();
//! let open = net.handle(0).open_channel(1, "demo");
//! let chan = net.wait(open).unwrap();
//! let fund = net.handle(0).fund_deposit(1_000, 1);
//! let deposit = net.wait(fund).unwrap();
//! net.approve_and_associate(0, 1, chan, &deposit);
//! let receipt = net.pay(0, chan, 250).unwrap(); // The completion IS the ack.
//! assert_eq!((receipt.amount, net.balances(0, chan)), (250, (750, 250)));
//! ```
//!
//! See `examples/quickstart.rs` for the full end-to-end tour (funding,
//! settlement kinds, typed error paths).

//! # Fault-tolerance backends (§6)
//!
//! TEEs crash (losing volatile state) and can be compromised; §6 of the
//! paper offers two interchangeable defences, both implemented here and
//! selected per node via [`durability::DurabilityBackend`]:
//!
//! * **Committee-chain replication** ([`replication`], Alg. 3): every
//!   state delta propagates down a chain of backup TEEs — deployed in
//!   *different failure domains* — and is acknowledged before any effect
//!   of the mutation becomes visible (force-freeze). Throughput stays in
//!   the tens of thousands of tx/s because only one replication message
//!   per payment traverses the chain, but each committee member is an
//!   extra machine. Use when machines are available and latency across
//!   failure domains is acceptable (Table 1 rows 3–5).
//! * **Persistent storage** ([`durability`] + the `teechain-persist`
//!   crate, §6.2): every commit seals its state deltas, binds them to a
//!   hardware monotonic-counter increment and appends them to a
//!   host-side write-ahead log; periodic sealed snapshots compact the
//!   log. A restarted enclave replays snapshot + log and verifies the
//!   commit counters form an unbroken chain ending at the hardware
//!   counter, so rolled-back storage is detected and refused
//!   ([`ProtocolError::StaleState`]). No extra machines, but the SGX
//!   counter throttle (~10 increments/s) caps unbatched throughput at
//!   ~10 tx/s (Table 1 row 6) — group commit amortizes one increment
//!   over a whole batch of deltas, recovering throughput when clients
//!   batch (§7).
//!
//! With neither backend, a crashed TEE strands its channels until the
//! counterparty settles unilaterally; funds are safe (balance
//! correctness never depends on liveness), only availability is lost.

pub mod admit;
pub mod channel;
pub mod deposit;
pub mod driver;
pub mod durability;
mod durable;
pub mod enclave;
pub mod live;
pub(crate) mod live_sched;
pub mod msg;
pub mod multihop;
pub mod node;
pub mod ops;
pub mod replication;
pub mod routing;
pub mod session;
pub mod settle;
mod slots;
pub mod swap;
pub mod testkit;
pub mod types;

pub use durability::{DurabilityBackend, PersistPolicy};
pub use enclave::{Command, Effect, EnclaveConfig, HostEvent, Outcome, PeerSlot, TeechainEnclave};
pub use live::{LiveBackend, LiveCluster, LiveConfig};
pub use node::TeechainNode;
pub use ops::{Completion, OpError, OpId, OpOutput, Pending, SettleKind};
pub use swap::{SwapOutcome, SwapPhase, SwapState};
pub use types::{ChannelId, CommitteeSpec, Deposit, MultihopStage, ProtocolError, RouteId, SwapId};
