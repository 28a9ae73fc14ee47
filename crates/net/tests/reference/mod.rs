//! A naive reference engine: the definition of correct event order that
//! `teechain_net::ShardedEngine` is checked against. One `BinaryHeap`, no
//! shards or windows, only the crate's public API. Its rules: an event
//! reaching a busy node, or one with a non-empty inbox, waits in the
//! inbox for a wake at the end of the busy period; a message leaves when
//! its sender is free, takes the link's sampled delay (at least 1 ns,
//! jitter from the sender's RNG lane) and never overtakes an earlier one
//! to the same node; traffic and timers reaching an offline node are
//! dropped, and going offline discards the inbox. Not modelled: per-link
//! overrides and `SimNode::on_start`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use teechain_net::live::{drive, NodeAction};
use teechain_net::{Ctx, LinkSpec, NodeId, SimNode, SimStats};
use teechain_util::rng::{SplitMix64, Xoshiro256};

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Deliver(NodeId, Vec<u8>),
    Timer(u64),
    Wake,
}

#[derive(Default)]
struct Slot {
    seq: u64,
    busy_until: u64,
    inbox: VecDeque<Event>,
    wake_scheduled: bool,
    offline: bool,
    last_arrival: HashMap<u32, u64>,
}

pub struct RefEngine<N> {
    pub nodes: Vec<N>,
    now: u64,
    pub stats: SimStats,
    rngs: Vec<Xoshiro256>,
    slots: Vec<Slot>,
    link: LinkSpec,
    /// Keyed on `(time, origin, origin's seq)`, which is unique.
    #[allow(clippy::type_complexity)]
    heap: BinaryHeap<Reverse<((u64, u32, u64), NodeId, Event)>>,
}

impl<N: SimNode> RefEngine<N> {
    pub fn new(nodes: Vec<N>, link: LinkSpec, seed: u64) -> Self {
        let lane = |i: u64| SplitMix64::new(seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        RefEngine {
            rngs: (0..nodes.len() as u64)
                .map(|i| Xoshiro256::new(lane(i).next_u64()))
                .collect(),
            slots: nodes.iter().map(|_| Slot::default()).collect(),
            nodes,
            now: 0,
            stats: SimStats::default(),
            link,
            heap: BinaryHeap::new(),
        }
    }

    pub fn set_offline(&mut self, id: NodeId, offline: bool) {
        let slot = &mut self.slots[id.0 as usize];
        if offline {
            self.stats.dropped += slot.inbox.drain(..).count() as u64;
        }
        slot.offline = offline;
    }

    fn push(&mut self, time: u64, origin: NodeId, target: NodeId, event: Event) {
        let key = (time, origin.0, self.slots[origin.0 as usize].seq);
        self.slots[origin.0 as usize].seq += 1;
        self.heap.push(Reverse((key, target, event)));
    }

    pub fn call<R>(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Ctx<'_>) -> R) -> R {
        let (i, now) = (id.0 as usize, self.now);
        let (r, actions) = drive(&mut self.nodes[i], id, now, &mut self.rngs[i], f);
        for action in actions {
            let slot = &mut self.slots[i];
            match action {
                NodeAction::Send { to, msg } => {
                    let delay = self.link.sample_delay(msg.len(), &mut self.rngs[i]).max(1);
                    let last = slot.last_arrival.entry(to.0).or_insert(0);
                    *last = (now.max(slot.busy_until) + delay).max(*last);
                    let time = *last;
                    self.push(time, id, to, Event::Deliver(id, msg));
                }
                NodeAction::Timer { delay_ns, token } => {
                    self.push(now + delay_ns, id, id, Event::Timer(token))
                }
                NodeAction::Busy { ns } => slot.busy_until = slot.busy_until.max(now) + ns,
            }
        }
        r
    }

    /// Handles the earliest event if it is due by `until`.
    fn step(&mut self, until: u64) -> Option<()> {
        self.heap.peek().filter(|Reverse((k, ..))| k.0 <= until)?;
        let Reverse(((time, ..), id, event)) = self.heap.pop()?;
        self.now = self.now.max(time);
        let slot = &mut self.slots[id.0 as usize];
        slot.wake_scheduled &= !matches!(event, Event::Wake);
        let busy = slot.busy_until > self.now;
        let ready = match event {
            Event::Wake if slot.offline || busy => None,
            Event::Wake => slot.inbox.pop_front(),
            _ if slot.offline => {
                self.stats.dropped += 1;
                None
            }
            _ if busy || !slot.inbox.is_empty() => {
                slot.inbox.push_back(event);
                None
            }
            _ => Some(event),
        };
        if let Some(event) = ready {
            self.stats.events += 1;
            match event {
                Event::Deliver(from, msg) => {
                    self.stats.messages += 1;
                    self.stats.bytes += msg.len() as u64;
                    self.call(id, |n, ctx| n.on_message(ctx, from, msg));
                }
                Event::Timer(token) => self.call(id, |n, ctx| n.on_timer(ctx, token)),
                Event::Wake => unreachable!("a wake is never queued in an inbox"),
            }
        }
        let slot = &mut self.slots[id.0 as usize];
        if !slot.offline && !slot.wake_scheduled && !slot.inbox.is_empty() {
            slot.wake_scheduled = true;
            let at = slot.busy_until.max(self.now);
            self.push(at, id, id, Event::Wake);
        }
        Some(())
    }

    pub fn run_until(&mut self, deadline_ns: u64) {
        while self.step(deadline_ns).is_some() {}
        self.now = self.now.max(deadline_ns);
    }

    pub fn run_to_idle(&mut self) {
        while self.step(u64::MAX).is_some() {}
    }
}
