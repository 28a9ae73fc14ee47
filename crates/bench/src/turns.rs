//! One direct payment, one handler call at a time.
//!
//! A funded two-node [`Cluster`] is stepped by hand through
//! [`teechain_net::live::drive`]: submit at the payer, deliver at the payee,
//! deliver the acknowledgement back. Each of the three turns is timed and
//! its heap traffic counted on its own, with no engine queue, transport or
//! scheduler in the measured region. `benches/micro.rs` prints the rows;
//! `tests/alloc_budget.rs` holds the allocation counts to a budget.

use crate::alloc_count::{measure, AllocCounts};
use std::time::Instant;
use teechain::enclave::Command;
use teechain::testkit::Cluster;
use teechain::{ChannelId, TeechainNode};
use teechain_net::live::drive;
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

    /// One handler call on node `i`: its cost and the frames it sent.
    fn turn(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut TeechainNode, &mut Ctx<'_>),
    ) -> (TurnCost, Vec<Vec<u8>>) {
        let node = self.cluster.node_mut(i);
        let start = Instant::now();
        let (((), actions), heap) =
            measure(|| drive(node, NodeId(i as u32), self.now_ns, &mut self.rng, f));
        let ns = start.elapsed().as_nanos() as u64;
        let sent = actions
            .into_iter()
            .filter_map(|a| match a {
                NodeAction::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        (TurnCost { ns, heap }, sent)
    }

    /// One payment of `amount`, submit to completion: the cost of each of
    /// its [`PAY_TURNS`]. Panics unless each turn sends exactly the one
    /// frame the next one consumes and the payment completes successfully.
    pub fn pay(&mut self, amount: u64) -> [TurnCost; 3] {
        self.now_ns += 1_000;
        let cmd = Command::Pay {
            id: self.chan,
            amount,
            count: 1,
        };
        let (submit, mut sent) = self.turn(0, |n, ctx| {
            n.submit_op(ctx, cmd, None);
        });
        let pay = sent.pop().expect("the submit turn sends the payment");
        assert!(sent.is_empty(), "the submit turn sends one frame");
        let (deliver, mut sent) = self.turn(1, |n, ctx| n.handle_wire(ctx, NodeId(0), pay));
        let ack = sent.pop().expect("the deliver turn sends the ack");
        assert!(sent.is_empty(), "the deliver turn sends one frame");
        let (acked, sent) = self.turn(0, |n, ctx| n.handle_wire(ctx, NodeId(1), ack));
        assert!(sent.is_empty(), "the ack turn sends nothing");
        let done = &mut self.cluster.node_mut(0).completions;
        assert!(
            done.len() == 1 && done[0].outcome.is_ok(),
            "payment did not complete: {done:?}"
        );
        done.clear();
        [submit, deliver, acked]
    }
}

impl Default for PayCrank {
    fn default() -> Self {
        Self::new()
    }
}
