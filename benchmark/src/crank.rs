//! Hand-cranked node turns: the protocol's own CPU, with nothing else.
//!
//! A [`World`] is set up the usual way, then its nodes are stepped one
//! handler call at a time through `teechain_net::live::drive`: the bench
//! carries each emitted message to its destination and fires timers on a
//! virtual clock. Only the time inside `drive` is counted, so there is no
//! engine queue, transport or scheduler in the timed region. A simulator
//! workload's `1e9 / tx_s` minus its shape's `turn_ns_per_tx` is what the
//! engine and the harness cost; `cpu_us_per_tx` of a live workload minus the
//! pay shape's is what the live runtime costs.

use crate::sim::{self, SimKind, World};
use crate::stats::percentile_of;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;
use teechain::enclave::Command;
use teechain::TeechainNode;
use teechain_net::live::drive;
use teechain_net::{Ctx, NodeAction, NodeId};
use teechain_util::rng::Xoshiro256;

/// Result of cranking one shape.
pub struct Cranked {
    /// Time inside node handlers per successful operation.
    pub turn_ns_per_tx: f64,
    /// Handler calls (submits, deliveries, timer fires) per operation.
    pub turns_per_tx: f64,
    /// Median handler time by role: submit at the payer, delivery at the
    /// next node of the path, delivery back at the payer.
    pub submit_turn_ns: f64,
    pub deliver_turn_ns: f64,
    pub ack_turn_ns: f64,
}

struct Crank<'w> {
    world: &'w mut World,
    rng: Xoshiro256,
    now_ns: u64,
    /// `(to, from, bytes)`, in emission order.
    inbox: VecDeque<(usize, usize, Vec<u8>)>,
    /// `(fire at, node, token)`, earliest first.
    timers: BinaryHeap<Reverse<(u64, usize, u64)>>,
    turn_ns: u64,
    turns: u64,
}

impl Crank<'_> {
    /// One handler call on node `i`; returns its result and duration.
    fn turn<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut TeechainNode, &mut Ctx<'_>) -> R,
    ) -> (R, u64) {
        let node = self.world.cluster.node_mut(i);
        let t = Instant::now();
        let (r, actions) = drive(node, NodeId(i as u32), self.now_ns, &mut self.rng, f);
        let ns = t.elapsed().as_nanos() as u64;
        self.turn_ns += ns;
        self.turns += 1;
        for a in actions {
            match a {
                NodeAction::Send { to, msg } => self.inbox.push_back((to.0 as usize, i, msg)),
                NodeAction::Timer { delay_ns, token } => {
                    self.timers
                        .push(Reverse((self.now_ns + delay_ns, i, token)));
                }
                NodeAction::Busy { .. } => {}
            }
        }
        (r, ns)
    }
}

/// Bursts cranked per shape: enough that the medians settle, and a few
/// tenths of a second at most.
pub fn bursts_for(kind: SimKind, shrink: usize) -> usize {
    let full = match kind {
        SimKind::Pay | SimKind::Wal => 32,
        SimKind::Repl => 16,
        SimKind::Multihop => 25,
    };
    (full / shrink).max(1)
}

/// Cranks `bursts` bursts of the shape's burst size.
pub fn crank(kind: SimKind, seed: u64, bursts: usize) -> Result<Cranked, String> {
    let mut world = sim::build(kind, seed);
    let payer = world.path[0];
    let next_hop = world.path[1];
    world.cluster.node_mut(payer).completions.clear();
    let now_ns = world.cluster.sim.now_ns();
    let mut c = Crank {
        world: &mut world,
        rng: Xoshiro256::new(seed ^ 0xC4A9),
        now_ns,
        inbox: VecDeque::new(),
        timers: BinaryHeap::new(),
        turn_ns: 0,
        turns: 0,
    };
    let mut amounts = Xoshiro256::new(seed ^ 0xA407);
    let (mut submits, mut delivers, mut acks) = (Vec::new(), Vec::new(), Vec::new());
    let mut ok = 0u64;
    let mut unresolved = 0u64;
    let mut total = 0u64;
    for _ in 0..bursts {
        for _ in 0..kind.burst() {
            let amount = 1 + amounts.next_below(8);
            let cmd = if kind == SimKind::Multihop {
                let ids = &c.world.cluster.ids;
                Command::PayMultihop {
                    route: teechain::RouteId(teechain_crypto::sha256::tagged_hash(
                        "teechain/route",
                        &[format!("crank{total}").as_bytes()],
                    )),
                    hops: c.world.path.iter().map(|&i| ids[i]).collect(),
                    channels: c.world.chans.clone(),
                    amount,
                }
            } else {
                Command::Pay {
                    id: c.world.chans[0],
                    amount,
                    count: 1,
                }
            };
            let (_, ns) = c.turn(payer, |n, ctx| n.submit_op(ctx, cmd, None));
            submits.push(ns);
            unresolved += 1;
            total += 1;
        }
        loop {
            while let Some((to, from, msg)) = c.inbox.pop_front() {
                let (_, ns) = c.turn(to, |n, ctx| n.handle_wire(ctx, NodeId(from as u32), msg));
                if to == payer {
                    acks.push(ns);
                } else if to == next_hop && from == payer {
                    delivers.push(ns);
                }
            }
            let done = &mut c.world.cluster.node_mut(payer).completions;
            ok += done.iter().filter(|d| d.outcome.is_ok()).count() as u64;
            let resolved = done.len() as u64;
            done.clear();
            unresolved -= resolved.min(unresolved);
            if unresolved == 0 {
                break;
            }
            // Work is pending and nothing is in flight: a timer holds it.
            let Some(Reverse((at, i, token))) = c.timers.pop() else {
                return Err(format!(
                    "{}: crank stalled with {unresolved} operations unresolved",
                    kind.name()
                ));
            };
            c.now_ns = c.now_ns.max(at);
            c.turn(i, |n, ctx| n.handle_timer(ctx, token));
        }
    }
    let want = (bursts * kind.burst()) as u64;
    if ok != want {
        return Err(format!(
            "{}: cranked {ok} of {want} operations",
            kind.name()
        ));
    }
    Ok(Cranked {
        turn_ns_per_tx: c.turn_ns as f64 / ok as f64,
        turns_per_tx: c.turns as f64 / ok as f64,
        submit_turn_ns: percentile_of(&mut submits, 0.5) as f64,
        deliver_turn_ns: percentile_of(&mut delivers, 0.5) as f64,
        ack_turn_ns: percentile_of(&mut acks, 0.5) as f64,
    })
}
