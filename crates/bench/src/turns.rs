//! One direct payment, one handler call at a time.
//!
//! A funded two-node [`Cluster`] is stepped by hand through
//! [`teechain_net::live::drive_input`]: submit at the payer, deliver at the
//! payee, deliver the acknowledgement back. Each of the three turns is
//! timed and its heap traffic counted on its own, with no engine queue,
//! transport or scheduler in the measured region. A burst delivers its
//! payments as one run of queued input instead, so the payee holds every
//! ack but the last delivery's. `benches/micro.rs` prints the rows;
//! `tests/alloc_budget.rs` holds the allocation counts to a budget.

use crate::alloc_count::{measure, AllocCounts};
use std::time::Instant;
use teechain::enclave::Command;
use teechain::testkit::Cluster;
use teechain::{ChannelId, TeechainNode};
use teechain_net::live::drive_input;
use teechain_net::{Ctx, NodeAction, NodeId};
use teechain_util::rng::Xoshiro256;

/// What one handler call cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct TurnCost {
    /// Wall-clock time inside the handler.
    pub ns: u64,
    /// Heap traffic inside the handler (zeros unless the binary installed
    /// [`crate::alloc_count::CountingAlloc`]).
    pub heap: AllocCounts,
}

/// The three turns of a direct payment, in order.
pub const PAY_TURNS: [&str; 3] = ["pay_submit", "pay_deliver", "pay_ack"];

/// A funded channel between node 0 (payer) and node 1, cranked by hand.
pub struct PayCrank {
    cluster: Cluster,
    chan: ChannelId,
    rng: Xoshiro256,
    now_ns: u64,
}

impl PayCrank {
    /// Two nodes, one channel, funded far beyond what a bench can spend.
    pub fn new() -> Self {
        let mut cluster = Cluster::functional(2);
        let chan = cluster.standard_channel(0, 1, "turns", u64::MAX / 4, 1);
        cluster.node_mut(0).completions.clear();
        let now_ns = cluster.sim.now_ns();
        PayCrank {
            cluster,
            chan,
            rng: Xoshiro256::new(0x7075),
            now_ns,
        }
    }

    /// One handler call on node `i`, with `more` as its input hint: its
    /// cost, the frames it sent and the timers it set.
    fn turn(
        &mut self,
        i: usize,
        more: bool,
        f: impl FnOnce(&mut TeechainNode, &mut Ctx<'_>),
    ) -> (TurnCost, Vec<Vec<u8>>, Vec<u64>) {
        let node = self.cluster.node_mut(i);
        let id = NodeId(i as u32);
        let start = Instant::now();
        let (((), actions), heap) =
            measure(|| drive_input(node, id, self.now_ns, more, &mut self.rng, f));
        let ns = start.elapsed().as_nanos() as u64;
        let (mut sent, mut timers) = (Vec::new(), Vec::new());
        for action in actions {
            match action {
                NodeAction::Send { msg, .. } => sent.push(msg),
                NodeAction::Timer { token, .. } => timers.push(token),
                NodeAction::Busy { .. } => {}
            }
        }
        (TurnCost { ns, heap }, sent, timers)
    }

    /// Submits a payment of `amount` at the payer: the frame it sent.
    fn submit(&mut self, amount: u64) -> (TurnCost, Vec<u8>) {
        let cmd = Command::Pay {
            id: self.chan,
            amount,
            count: 1,
        };
        let (cost, mut sent, _) = self.turn(0, false, |n, ctx| {
            n.submit_op(ctx, cmd, None);
        });
        let pay = sent.pop().expect("the submit turn sends the payment");
        assert!(sent.is_empty(), "the submit turn sends one frame");
        (cost, pay)
    }

    /// Delivers the payee's `ack` to the payer, and checks that it
    /// completes `payments` payments.
    fn complete(&mut self, ack: Vec<u8>, payments: usize) -> TurnCost {
        let (acked, sent, _) = self.turn(0, false, |n, ctx| n.handle_wire(ctx, NodeId(1), ack));
        assert!(sent.is_empty(), "the ack turn sends nothing");
        let done = &mut self.cluster.node_mut(0).completions;
        assert!(
            done.len() == payments && done.iter().all(|d| d.outcome.is_ok()),
            "payments did not complete: {done:?}"
        );
        done.clear();
        acked
    }

    /// One payment of `amount`, submit to completion: the cost of each of
    /// its [`PAY_TURNS`]. Panics unless each turn sends exactly the one
    /// frame the next one consumes and the payment completes successfully.
    pub fn pay(&mut self, amount: u64) -> [TurnCost; 3] {
        self.now_ns += 1_000;
        let (submit, pay) = self.submit(amount);
        let (deliver, mut sent, _) =
            self.turn(1, false, |n, ctx| n.handle_wire(ctx, NodeId(0), pay));
        let ack = sent.pop().expect("the deliver turn sends the ack");
        assert!(sent.is_empty(), "the deliver turn sends one frame");
        let acked = self.complete(ack, 1);
        [submit, deliver, acked]
    }

    /// A burst of `k` payments of 1 (at least two), delivered to the payee
    /// as one run of queued input: every delivery but the last passes
    /// "more messages", so the payee holds its ack, and the last one sends
    /// a single ack for the burst. Returns the cost of each held delivery.
    /// Panics unless the held deliveries send nothing, no delivery sets a
    /// timer, and one ack completes the whole burst.
    pub fn held_deliveries(&mut self, k: usize) -> Vec<TurnCost> {
        assert!((2..=64).contains(&k), "a burst under the ack bound");
        self.now_ns += 1_000;
        let pays: Vec<Vec<u8>> = (0..k).map(|_| self.submit(1).1).collect();
        let mut held = Vec::with_capacity(k - 1);
        let mut ack = None;
        for (i, pay) in pays.into_iter().enumerate() {
            let more = i + 1 < k;
            let (cost, mut sent, timers) =
                self.turn(1, more, |n, ctx| n.handle_wire(ctx, NodeId(0), pay));
            assert!(timers.is_empty(), "a delivery sets no timer: {timers:?}");
            if more {
                assert!(sent.is_empty(), "a held delivery sends nothing");
                held.push(cost);
            } else {
                ack = sent.pop();
                assert!(sent.is_empty(), "the last delivery sends one frame");
            }
        }
        self.complete(ack.expect("the last delivery sends the ack"), k);
        held
    }
}

impl Default for PayCrank {
    fn default() -> Self {
        Self::new()
    }
}
