//! Live execution: real threads, real sockets, real clocks.
//!
//! Everything else in this crate *simulates* a network; this module runs
//! one. The protocol state machines stay byte-identical — a node is still
//! driven through the same handler signatures and the same [`Ctx`]
//! surface — but the substrate is an operating system instead of an event
//! heap:
//!
//! * [`Transport`] — the abstraction over a real message substrate: an
//!   endpoint per node, split into an independently-owned sending half
//!   ([`TransportTx`]) and receiving half ([`TransportRx`]) so a node's
//!   event loop can send while a pump thread blocks on receive.
//! * [`thread`] — the in-process backend: one `std::sync::mpsc` channel
//!   per node, endpoints wired into a full mesh ([`ThreadNet`]). Delivery
//!   is reliable and FIFO per (source, destination) pair, which is the
//!   same per-connection ordering contract the simulated links enforce.
//! * [`tcp`] — the localhost socket backend ([`TcpNet`]): one TCP
//!   listener per node, lazily-established peer connections, frames
//!   encoded with the workspace wire codec (`teechain_util::codec`). TCP
//!   gives the FIFO-per-connection guarantee for free.
//! * [`reactor`] — the non-blocking backend ([`ReactorNet`]): every
//!   (source, destination) flow multiplexed over a small fixed pool of
//!   nonblocking sockets swept by a single poller thread, so transport
//!   thread count is O(1) in cluster size instead of O(N²). Same codec
//!   framing, extended with the destination id.
//! * [`drive`] — runs a node handler *outside* any engine, returning the
//!   [`NodeAction`]s it emitted so a live event loop can perform them as
//!   real I/O (send on the transport, arm a wall-clock timer) instead of
//!   scheduling simulated events.
//!
//! `teechain::live::LiveCluster` runs only on the reactor's sink mode
//! ([`ReactorNet::localhost_sink`]). [`ThreadNet`], [`TcpNet`] and the
//! reactor's [`Transport`] mode stay because the repo benchmark's
//! transport probes (`benchmark/src/probes.rs`) measure them; they can go
//! once that benchmark stops naming them.
//!
//! What deliberately does **not** carry over from the simulation: link
//! latency models (the kernel and the wire provide the real thing), the
//! single-server CPU queue ([`NodeAction::Busy`] is accounting advice a
//! live loop ignores — real handlers burn real CPU), and global
//! determinism (threads race; only per-connection FIFO is promised).
//! Protocol *outcomes* remain comparable across substrates — the
//! sim-vs-live equivalence suite in `crates/core` asserts exactly that.

mod framing;
pub mod reactor;
pub mod tcp;
pub mod thread;

pub use reactor::{InboundSink, ReactorHandle, ReactorNet, ReactorTx};
pub use tcp::TcpNet;
pub use thread::ThreadNet;

use super::engine::{Action, Ctx, NodeId};
use std::time::Duration;
use teechain_util::rng::Xoshiro256;

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination endpoint is gone (its receiver was dropped or its
    /// socket closed) — the live analogue of sending to a crashed node.
    Disconnected(NodeId),
    /// The receiving half is closed: every peer endpoint has shut down,
    /// so no further message can ever arrive.
    Closed,
    /// An OS-level I/O failure (socket backend), flattened to a string so
    /// the error stays `Clone` + `PartialEq`.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected(id) => write!(f, "endpoint {id} is disconnected"),
            TransportError::Closed => write!(f, "transport closed: no senders remain"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One node's endpoint on a real message substrate.
///
/// An endpoint is created by a network constructor ([`ThreadNet::mesh`],
/// [`TcpNet::localhost`]) and then [`split`](Transport::split) into its
/// two halves: the event loop owns the sender, a pump thread owns the
/// receiver. Both backends promise reliable, FIFO-per-(source,
/// destination) delivery while the destination endpoint is alive — the
/// ordering contract the Teechain session layer requires and the
/// simulated links also enforce.
pub trait Transport: Send + 'static {
    /// The independently-owned sending half.
    type Tx: TransportTx;
    /// The independently-owned receiving half.
    type Rx: TransportRx;

    /// This endpoint's node id.
    fn local_id(&self) -> NodeId;

    /// Number of endpoints in the network this endpoint belongs to.
    fn len(&self) -> usize;

    /// True for a degenerate zero-endpoint network.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits the endpoint into its sending and receiving halves.
    fn split(self) -> (Self::Tx, Self::Rx);
}

/// The sending half of a [`Transport`] endpoint.
pub trait TransportTx: Send + 'static {
    /// Queues `msg` for delivery to `to`. Returns
    /// [`TransportError::Disconnected`] once the destination endpoint is
    /// gone; messages to live endpoints are delivered reliably and in
    /// FIFO order per (source, destination) pair.
    fn send(&mut self, to: NodeId, msg: Vec<u8>) -> Result<(), TransportError>;
}

/// The receiving half of a [`Transport`] endpoint.
pub trait TransportRx: Send + 'static {
    /// Blocks up to `timeout` for the next inbound message. `Ok(None)`
    /// means the timeout elapsed with nothing to deliver;
    /// [`TransportError::Closed`] means every sender is gone and no
    /// message can ever arrive again.
    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(NodeId, Vec<u8>)>, TransportError>;
}

/// An action emitted by a node handler, in emission order — the public
/// mirror of the engine-internal action list, returned by [`drive`] so a
/// live event loop can perform real I/O where an engine would schedule
/// simulated events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeAction {
    /// Deliver `msg` to `to` (live loops: [`TransportTx::send`]).
    Send {
        /// Destination node.
        to: NodeId,
        /// Payload bytes.
        msg: Vec<u8>,
    },
    /// Invoke the node's timer handler with `token` after `delay_ns`
    /// (live loops: arm a wall-clock timer).
    Timer {
        /// Nanoseconds from the handler's `now`.
        delay_ns: u64,
        /// Token passed back to the timer handler.
        token: u64,
    },
    /// CPU service-time accounting. Meaningful only under the simulated
    /// single-server queue; live handlers burn real CPU, so live loops
    /// ignore it.
    Busy {
        /// Accounted nanoseconds.
        ns: u64,
    },
}

/// Runs `f` on `node` with a live [`Ctx`] *outside* any engine and
/// returns `f`'s result together with the actions the handler emitted.
///
/// This is the bridge a live runtime uses to execute the unmodified
/// protocol state machines: `now_ns` is the caller's clock (a real
/// monotonic clock in live loops, where engines would pass simulated
/// time), `rng` is the caller's deterministic stream (per-node, like the
/// sharded engine's lanes), and the returned [`NodeAction`]s are the
/// sends, timers and busy-accounting the handler produced, in order.
///
/// The handler's [`Ctx::more_messages`] reads false: every call stands
/// alone. A loop draining a queue of inputs passes its own hint with
/// [`drive_input`].
pub fn drive<N, R>(
    node: &mut N,
    self_id: NodeId,
    now_ns: u64,
    rng: &mut Xoshiro256,
    f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R,
) -> (R, Vec<NodeAction>) {
    drive_input(node, self_id, now_ns, false, rng, f)
}

/// [`drive`] for one input taken off a queue: `more` is what the
/// handler's [`Ctx::more_messages`] reads — true when another message
/// for the node is already queued behind this one.
pub fn drive_input<N, R>(
    node: &mut N,
    self_id: NodeId,
    now_ns: u64,
    more: bool,
    rng: &mut Xoshiro256,
    f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R,
) -> (R, Vec<NodeAction>) {
    let mut actions = Vec::new();
    let r = {
        let mut ctx = Ctx {
            now: now_ns,
            self_id,
            more,
            actions: &mut actions,
            rng,
        };
        f(node, &mut ctx)
    };
    let actions = actions
        .into_iter()
        .map(|a| match a {
            Action::Send { to, msg } => NodeAction::Send { to, msg },
            Action::Timer { delay_ns, token } => NodeAction::Timer { delay_ns, token },
            Action::Busy { ns } => NodeAction::Busy { ns },
        })
        .collect();
    (r, actions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_collects_actions_in_order() {
        let mut rng = Xoshiro256::new(1);
        let mut node = (); // The "node" can be any state the closure drives.
        let (out, actions) = drive(&mut node, NodeId(3), 42, &mut rng, |_, ctx| {
            assert_eq!(ctx.now_ns(), 42);
            assert_eq!(ctx.self_id(), NodeId(3));
            assert!(!ctx.more_messages());
            ctx.busy(10);
            ctx.send(NodeId(1), b"hi".to_vec());
            ctx.set_timer(5, 77);
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(
            actions,
            vec![
                NodeAction::Busy { ns: 10 },
                NodeAction::Send {
                    to: NodeId(1),
                    msg: b"hi".to_vec()
                },
                NodeAction::Timer {
                    delay_ns: 5,
                    token: 77
                },
            ]
        );
    }

    #[test]
    fn drive_input_passes_the_hint() {
        let mut rng = Xoshiro256::new(1);
        for more in [false, true] {
            let (seen, _) = drive_input(&mut (), NodeId(0), 0, more, &mut rng, |_, ctx| {
                ctx.more_messages()
            });
            assert_eq!(seen, more);
        }
    }

    #[test]
    fn transport_error_display() {
        assert_eq!(
            TransportError::Disconnected(NodeId(4)).to_string(),
            "endpoint n4 is disconnected"
        );
        assert_eq!(
            TransportError::Closed.to_string(),
            "transport closed: no senders remain"
        );
        assert!(TransportError::Io("boom".into())
            .to_string()
            .contains("boom"));
    }
}
