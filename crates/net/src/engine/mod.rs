//! The discrete-event engine.
//!
//! One engine, [`ShardedEngine`], runs every simulation:
//!
//! * [`sharded`] — nodes are partitioned into shards, each with its own
//!   event heap, deferred inboxes and per-node RNG lanes, synchronized by
//!   lookahead windows derived from the minimum cross-shard link latency.
//!   One shard (the default) is a plain sequential event loop: one heap,
//!   one unbounded window, no threads.
//! * `queue` (private) — the event key and the heap.
//!
//! [`AnyEngine`] is the name harnesses hold; the shard count is chosen at
//! construction ([`EngineKind`], also readable from the `TEECHAIN_ENGINE`
//! / `TEECHAIN_SHARDS` environment) and can be changed on a quiescent
//! simulation ([`ShardedEngine::repartition`] — build a large topology
//! once, then measure several shard counts on it).
//!
//! # Determinism
//!
//! Events are ordered by `(time, origin node, per-origin seq)`, and the
//! results are bit-for-bit identical *for any shard count* — see the
//! [`sharded`] module docs for the argument. What that order is, is
//! defined independently of this code by a small reference engine in
//! `crates/net/tests/reference`, which the property suite compares with
//! this one trace for trace at one and three shards.

mod queue;
pub mod sharded;

use teechain_util::rng::Xoshiro256;

pub use sharded::ShardedEngine;

/// The engine harnesses hold: an alias of the one engine, kept so call
/// sites written against the runtime-selected engine keep compiling.
pub type AnyEngine<N> = ShardedEngine<N>;

/// Identifies a node within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Behaviour of a simulated node.
pub trait SimNode {
    /// Called once at simulation start (time 0).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Vec<u8>);

    /// Called when a timer set with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

pub(crate) enum Action {
    Send { to: NodeId, msg: Vec<u8> },
    Timer { delay_ns: u64, token: u64 },
    Busy { ns: u64 },
}

/// Handler context: lets a node observe time, send messages, set timers and
/// account CPU service time.
pub struct Ctx<'a> {
    pub(crate) now: u64,
    pub(crate) self_id: NodeId,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) rng: &'a mut Xoshiro256,
}

impl Ctx<'_> {
    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now
    }

    /// This node's id.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Sends `msg` to `to`; it will be delivered after the link delay.
    pub fn send(&mut self, to: NodeId, msg: Vec<u8>) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Schedules [`SimNode::on_timer`] with `token` after `delay_ns`.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.actions.push(Action::Timer { delay_ns, token });
    }

    /// Accounts `ns` of CPU service time for handling the current event:
    /// the node will not process further events before `now + ns`. This is
    /// the single-server queue that converts per-operation costs into
    /// throughput ceilings.
    pub fn busy(&mut self, ns: u64) {
        self.actions.push(Action::Busy { ns });
    }

    /// Deterministic randomness: this node's own lane, which is what
    /// makes results independent of shard count.
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        self.rng
    }
}

pub(crate) enum EventKind {
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Vec<u8>,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    /// Internal: a busy node re-checks its inbox.
    Wake {
        node: NodeId,
    },
}

impl EventKind {
    pub(crate) fn target(&self) -> NodeId {
        match self {
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { node, .. } | EventKind::Wake { node } => *node,
        }
    }
}

/// Aggregate simulation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Messages delivered.
    pub messages: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
    /// Events processed (messages + timers).
    pub events: u64,
    /// Messages and timers dropped because the target node was down
    /// (crash fault injection).
    pub dropped: u64,
}

impl SimStats {
    /// Folds another counter set into this one. Shards accumulate their
    /// own counters during a window; the engine merges them on demand, so
    /// the aggregate is identical for any shard count.
    pub fn merge(&mut self, other: &SimStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.events += other.events;
        self.dropped += other.dropped;
    }

    /// [`SimStats::merge`] as an expression.
    pub fn merged(mut self, other: &SimStats) -> SimStats {
        self.merge(other);
        self
    }
}

/// How many shards a simulation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Nodes partitioned round-robin into this many shards (the shards
    /// of a large window are processed by a pool of worker threads).
    Sharded {
        /// Number of shards (at least 1).
        shards: usize,
    },
}

impl EngineKind {
    /// One shard: a plain sequential event loop. The name of the default
    /// configuration; it is `Sharded { shards: 1 }`, not a separate
    /// engine.
    #[allow(non_upper_case_globals)]
    pub const Seq: EngineKind = EngineKind::Sharded { shards: 1 };

    /// Parses `"seq"` (one shard), `"sharded"` (8 shards, clamped to the
    /// node count at construction) or `"sharded:<n>"`, ignoring case.
    pub fn parse(s: &str) -> Option<EngineKind> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("seq") {
            return Some(EngineKind::Seq);
        }
        if s.eq_ignore_ascii_case("sharded") {
            return Some(EngineKind::Sharded { shards: 8 });
        }
        let prefix = s.get(..8).filter(|p| p.eq_ignore_ascii_case("sharded:"))?;
        Some(EngineKind::Sharded {
            shards: parse_count(&s[prefix.len()..])?,
        })
    }

    /// Reads `TEECHAIN_ENGINE` (`seq` / `sharded` / `sharded:<n>`) and
    /// `TEECHAIN_SHARDS` (a shard count that overrides the engine's);
    /// one shard when neither is set. This is how CI runs the whole
    /// protocol suite at several shard counts without code changes.
    ///
    /// # Panics
    ///
    /// Panics on a value it cannot parse, so a misspelt variable fails
    /// the run instead of silently testing the default.
    pub fn from_env() -> EngineKind {
        EngineKind::from_vars(
            std::env::var("TEECHAIN_ENGINE").ok().as_deref(),
            std::env::var("TEECHAIN_SHARDS").ok().as_deref(),
        )
    }

    fn from_vars(engine: Option<&str>, shards: Option<&str>) -> EngineKind {
        let base = engine.map(|v| {
            EngineKind::parse(v).unwrap_or_else(|| {
                panic!("TEECHAIN_ENGINE={v:?}: expected seq, sharded or sharded:<n>")
            })
        });
        let shards = shards.map(|v| {
            parse_count(v).unwrap_or_else(|| {
                panic!("TEECHAIN_SHARDS={v:?}: expected a shard count of at least 1")
            })
        });
        match (base, shards) {
            (_, Some(shards)) => EngineKind::Sharded { shards },
            (Some(kind), None) => kind,
            (None, None) => EngineKind::Seq,
        }
    }

    /// Shard count of this kind (at least 1).
    pub fn shards(&self) -> usize {
        let EngineKind::Sharded { shards } = *self;
        shards.max(1)
    }
}

/// A shard count: a positive integer.
fn parse_count(s: &str) -> Option<usize> {
    s.trim().parse().ok().filter(|&n: &usize| n > 0)
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let EngineKind::Sharded { shards } = self;
        write!(f, "sharded:{shards}")
    }
}

/// A recording node and engine builders shared by the engine's tests.
#[cfg(test)]
mod testutil {
    use super::{Ctx, EngineKind, NodeId, ShardedEngine, SimNode};
    use crate::link::LinkSpec;
    use crate::MS;

    /// Echoes messages, records receipts and timers, optionally burns
    /// CPU.
    pub(super) struct Echo {
        pub(super) received: Vec<(u64, NodeId, Vec<u8>)>,
        pub(super) timers: Vec<(u64, u64)>,
        pub(super) echo: bool,
        pub(super) cost_ns: u64,
    }

    impl Echo {
        pub(super) fn new(echo: bool) -> Self {
            Echo {
                received: Vec::new(),
                timers: Vec::new(),
                echo,
                cost_ns: 0,
            }
        }
    }

    impl SimNode for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Vec<u8>) {
            self.received.push((ctx.now_ns(), from, msg.clone()));
            if self.cost_ns > 0 {
                ctx.busy(self.cost_ns);
            }
            if self.echo {
                ctx.send(from, msg);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.timers.push((ctx.now_ns(), token));
        }
    }

    pub(super) fn engine(
        shards: usize,
        nodes: Vec<Echo>,
        link: LinkSpec,
        seed: u64,
    ) -> ShardedEngine<Echo> {
        ShardedEngine::new(EngineKind::Sharded { shards }, nodes, link, seed)
    }

    pub(super) fn fixed(latency_ns: u64) -> LinkSpec {
        LinkSpec {
            latency_ns,
            jitter_frac: 0.0,
            bandwidth_bps: None,
        }
    }

    /// Node 0 records, node 1 records and echoes; jitter-free links.
    pub(super) fn two_nodes(latency_ms: u64, shards: usize) -> ShardedEngine<Echo> {
        let nodes = vec![Echo::new(false), Echo::new(true)];
        engine(shards, nodes, fixed(latency_ms * MS), 1)
    }
}

/// Tests of the default configuration, [`EngineKind::Seq`]: one shard,
/// which runs as a plain sequential event loop.
#[cfg(test)]
mod seq {
    mod tests {
        use super::super::sharded::MIN_DELAY_NS;
        use super::super::testutil::{engine, two_nodes, Echo};
        use super::super::{EngineKind, NodeId};
        use crate::link::LinkSpec;
        use crate::MS;

        /// The shard count of [`EngineKind::Seq`].
        const SEQ: usize = 1;

        #[test]
        fn busy_node_queues_messages() {
            let mut sim = two_nodes(0, SEQ);
            sim.node_mut(NodeId(1)).cost_ns = 10 * MS;
            // Three back-to-back messages reach a node with a 10 ms
            // service time at the 1 ns minimum delay: served 10 ms apart.
            sim.call(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), b"a".to_vec());
                ctx.send(NodeId(1), b"b".to_vec());
                ctx.send(NodeId(1), b"c".to_vec());
            });
            sim.run_to_idle(100);
            let times: Vec<u64> = sim.node(NodeId(1)).received.iter().map(|r| r.0).collect();
            let d = MIN_DELAY_NS;
            assert_eq!(times, vec![d, 10 * MS + d, 20 * MS + d]);
        }

        #[test]
        fn deterministic_given_seed() {
            // Jitter draws from the sender's RNG lane, so the trace
            // depends on the seed and on nothing else.
            let link = LinkSpec {
                latency_ns: 3 * MS,
                jitter_frac: 0.2,
                bandwidth_bps: None,
            };
            let run = |seed| {
                let mut sim = engine(SEQ, vec![Echo::new(false), Echo::new(true)], link, seed);
                sim.call(NodeId(0), |_, ctx| {
                    for i in 0..10u8 {
                        ctx.send(NodeId(1), vec![i]);
                    }
                });
                sim.run_to_idle(1000);
                sim.node(NodeId(0)).received.clone()
            };
            assert_eq!(run(1), run(1));
            assert_ne!(run(1), run(2));
        }

        #[test]
        fn run_until_respects_deadline() {
            let mut sim = two_nodes(10, SEQ);
            sim.call(NodeId(0), |_, ctx| {
                ctx.set_timer(5 * MS, 1);
                ctx.set_timer(50 * MS, 2);
            });
            sim.run_until(20 * MS);
            assert_eq!(sim.node(NodeId(0)).timers.len(), 1);
            assert_eq!(sim.now_ns(), 20 * MS);
            sim.run_to_idle(10);
            assert_eq!(sim.node(NodeId(0)).timers.len(), 2);
        }

        #[test]
        fn state_roundtrip_preserves_nodes_and_clock() {
            let mut sim = two_nodes(2, SEQ);
            sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), b"x".to_vec()));
            sim.run_to_idle(100);
            let stats = sim.stats();
            let now = sim.now_ns();
            sim.set_offline(NodeId(1), true);
            // Out to two shards and back to one, at quiescence.
            sim.repartition(EngineKind::Sharded { shards: 2 });
            sim.repartition(EngineKind::Seq);
            assert_eq!(sim.kind(), EngineKind::Seq);
            assert_eq!(sim.now_ns(), now);
            assert_eq!(sim.stats(), stats);
            assert!(sim.is_offline(NodeId(1)));
            assert_eq!(sim.node(NodeId(1)).received.len(), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_stats_merge_sums_fields() {
        let a = SimStats {
            messages: 3,
            bytes: 100,
            events: 7,
            dropped: 1,
        };
        let b = SimStats {
            messages: 2,
            bytes: 50,
            events: 4,
            dropped: 0,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            SimStats {
                messages: 5,
                bytes: 150,
                events: 11,
                dropped: 1
            }
        );
        // merged() is merge() as an expression.
        assert_eq!(a.merged(&b), m);
        // Identity element.
        assert_eq!(a.merged(&SimStats::default()), a);
    }

    #[test]
    fn engine_kind_parse() {
        let sharded = |shards| Some(EngineKind::Sharded { shards });
        assert_eq!(EngineKind::parse(" SEQ "), Some(EngineKind::Seq));
        assert_eq!(EngineKind::parse("sharded"), sharded(8));
        assert_eq!(EngineKind::parse("sharded:4"), sharded(4));
        for bad in ["sharded:0", "parallel", "shard:4", "shardé:4"] {
            assert_eq!(EngineKind::parse(bad), None, "{bad:?}");
        }
        // `Seq` is a name for one shard, not a second engine.
        assert_eq!(EngineKind::Seq, EngineKind::Sharded { shards: 1 });
        assert_eq!(EngineKind::Seq.to_string(), "sharded:1");
    }

    #[test]
    fn engine_kind_prefix_ignores_case() {
        for s in ["SHARDED:4", "Sharded:4", "sHaRdEd: 4 "] {
            assert_eq!(
                EngineKind::parse(s),
                Some(EngineKind::Sharded { shards: 4 }),
                "{s:?}"
            );
        }
    }

    #[test]
    fn engine_kind_from_vars() {
        let sharded = |shards| EngineKind::Sharded { shards };
        assert_eq!(EngineKind::from_vars(None, None), EngineKind::Seq);
        assert_eq!(EngineKind::from_vars(Some("sharded:4"), None), sharded(4));
        // The shard count overrides whatever the engine variable says.
        assert_eq!(
            EngineKind::from_vars(Some("sharded:4"), Some("2")),
            sharded(2)
        );
        assert_eq!(EngineKind::from_vars(None, Some(" 8 ")), sharded(8));
    }

    #[test]
    #[should_panic(expected = "TEECHAIN_ENGINE=\"shraded:8\"")]
    fn misspelt_engine_variable_panics() {
        EngineKind::from_vars(Some("shraded:8"), None);
    }

    #[test]
    #[should_panic(expected = "TEECHAIN_SHARDS=\"1,2\"")]
    fn unparseable_shard_count_panics() {
        EngineKind::from_vars(Some("sharded:2"), Some("1,2"));
    }
}
