//! Shared experiment scenario builders.

use crate::harness::{BenchCluster, Job};
use crate::workload::Workload;
use std::collections::HashMap;
use teechain::driver::CostModel;
use teechain::ops::{OpId, OpResult, Request};
use teechain::routing::ChannelGraph;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::types::ChannelId;
use teechain::{Command, Deposit};
use teechain_crypto::schnorr::PublicKey;
use teechain_net::topology::{fig3_link, fig3_regions, HubSpoke, Region};
use teechain_net::{LinkSpec, NodeId, MS};

/// Fault-tolerance strategies of Table 1 / Fig. 4 / Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtMode {
    /// Committee chain length 1 (just the primary).
    None,
    /// `k` additional committee members (replication chain length k+1).
    Replicas(usize),
    /// §6.2 persistent storage with monotonic counters, sealing the full
    /// state on every commit (the paper's configuration).
    StableStorage,
    /// §6.2 persistent storage in WAL mode: sealed delta records with
    /// group commit, snapshot + compaction every few commits.
    StableStorageWal,
}

impl FtMode {
    /// Number of backups to attach.
    pub fn backups(&self) -> usize {
        match self {
            FtMode::Replicas(k) => *k,
            _ => 0,
        }
    }

    /// Whether persistent mode is enabled.
    pub fn persist(&self) -> bool {
        matches!(self, FtMode::StableStorage | FtMode::StableStorageWal)
    }

    /// The per-node durability backend this mode implies. Replication
    /// chains are wired explicitly by the scenario (the backup *placement*
    /// matters), so `Replicas` maps to `None` here.
    pub fn durability(&self) -> teechain::DurabilityBackend {
        match self {
            FtMode::StableStorage => teechain::DurabilityBackend::eager_persist(),
            FtMode::StableStorageWal => teechain::DurabilityBackend::persistent(),
            _ => teechain::DurabilityBackend::None,
        }
    }
}

/// Builds the Fig. 3 two-party setup: node 0 = US, node 1 = UK1, plus
/// enough backup nodes for both parties' committee chains, placed in the
/// paper's failure domains (IL, then UK/US).
///
/// Returns (cluster, channel). Node layout: 0 = US (payer), 1 = UK1
/// (payee), 2.. = backups of node 0 then backups of node 1.
pub fn fig3_pair(ft: FtMode, seed: u64) -> (BenchCluster, ChannelId) {
    let backups = ft.backups();
    // Regions: replicas live in different failure domains (IL first, then
    // the other side of the Atlantic), as in §7.2.
    let domains = [Region::Il, Region::Uk, Region::Us];
    let mut regions = vec![Region::Us, Region::Uk];
    for b in 0..backups {
        regions.push(domains[b % domains.len()]); // Backups of node 0.
    }
    for b in 0..backups {
        let alt = [Region::Il, Region::Us, Region::Il];
        regions.push(alt[b % alt.len()]); // Backups of node 1.
    }
    let mut cluster = BenchCluster::new(ClusterConfig {
        n: regions.len(),
        costs: CostModel::default(),
        default_link: fig3_link(Region::Uk, Region::Uk),
        durability: ft.durability(),
        seed,
        ..ClusterConfig::default()
    });
    for i in 0..regions.len() {
        for j in (i + 1)..regions.len() {
            cluster.sim.set_link(
                NodeId(i as u32),
                NodeId(j as u32),
                fig3_link(regions[i], regions[j]),
            );
        }
    }
    // Committee chains: node 0 → 2 → 3 → ..; node 1 → (2+backups) → ..
    for b in 0..backups {
        let tail = if b == 0 { 0 } else { 2 + b - 1 };
        cluster.attach_backup(tail, 2 + b);
    }
    for b in 0..backups {
        let tail = if b == 0 { 1 } else { 2 + backups + b - 1 };
        cluster.attach_backup(tail, 2 + backups + b);
    }
    let chan = cluster.standard_channel(0, 1, "us-uk", u64::MAX / 4, 1);
    (cluster, chan)
}

/// A one-burst run on a two-node channel shaped like the repo
/// benchmark's simulator workloads: free CPU, ideal links, one shard,
/// `durability` on both nodes and an `m`-of-n deposit (`sim_pay`: no
/// fault tolerance, 1; `sim_repl`: two backups each, 2). Submits `burst`
/// payments of 1 from node 0, runs them to quiescence, and returns the
/// engine's `(events, messages)` over the burst.
pub fn sim_burst(durability: teechain::DurabilityBackend, m: u8, burst: u64) -> (u64, u64) {
    let mut c = Cluster::new(ClusterConfig {
        durability,
        engine: teechain_net::EngineKind::Seq,
        ..ClusterConfig::default()
    });
    let id = c.standard_channel(0, 1, "sim-burst", 1 << 40, m);
    c.node_mut(0).completions.clear();
    let pay = Command::Pay {
        id,
        amount: 1,
        count: 1,
    };
    let before = c.sim.stats();
    for _ in 0..burst {
        c.submit(0, pay.clone());
    }
    c.settle_network();
    let done = &c.node(0).completions;
    assert!(done.len() as u64 == burst && done.iter().all(|d| d.outcome.is_ok()));
    let after = c.sim.stats();
    let events = after.events - before.events;
    (events, after.messages - before.messages)
}

/// Builds the §7.3 multi-hop chain over `hops` channels with `backups`
/// committee members per node, on transatlantic links (UK→US→IL→UK…).
/// Node layout: 0..=hops are path nodes; backups follow.
pub fn transatlantic_chain(
    hops: usize,
    backups: usize,
    seed: u64,
) -> (BenchCluster, Vec<ChannelId>) {
    let path_nodes = hops + 1;
    let n = path_nodes * (1 + backups);
    let region_of = |i: usize| match i % 3 {
        0 => Region::Uk,
        1 => Region::Us,
        _ => Region::Il,
    };
    // Path nodes rotate UK→US→IL; each backup lives in a *different*
    // failure domain than its primary (§7.3: "committee members are
    // deployed in different failure domains").
    let mut regions: Vec<Region> = (0..path_nodes).map(region_of).collect();
    for i in 0..path_nodes {
        for b in 0..backups {
            regions.push(region_of(i + 1 + b));
        }
    }
    let mut cluster = BenchCluster::new(ClusterConfig {
        n,
        costs: CostModel::default(),
        default_link: fig3_link(Region::Uk, Region::Us),
        durability: teechain::DurabilityBackend::None,
        seed,
        ..ClusterConfig::default()
    });
    for i in 0..n {
        for j in (i + 1)..n {
            cluster.sim.set_link(
                NodeId(i as u32),
                NodeId(j as u32),
                fig3_link(regions[i], regions[j]),
            );
        }
    }
    // Committee chains: path node i gets backups at path_nodes + i*backups ...
    for i in 0..path_nodes {
        for b in 0..backups {
            let backup = path_nodes + i * backups + b;
            debug_assert!(backup < n);
            let tail = if b == 0 {
                i
            } else {
                path_nodes + i * backups + b - 1
            };
            cluster.attach_backup(tail, backup);
        }
    }
    let mut chans = Vec::new();
    for i in 0..hops {
        chans.push(cluster.standard_channel(i, i + 1, &format!("hop{i}"), u64::MAX / 8, 1));
    }
    (cluster, chans)
}

/// A payment-network deployment: node count, channel edges (possibly with
/// several parallel channels per edge), and a channel graph for routing.
pub struct Network {
    /// The cluster.
    pub cluster: BenchCluster,
    /// Channels per undirected edge.
    pub channels: HashMap<(NodeId, NodeId), Vec<ChannelId>>,
    /// Routing graph.
    pub graph: ChannelGraph,
}

impl Network {
    /// All channels between a and b (canonical order).
    pub fn edge_channels(&self, a: NodeId, b: NodeId) -> &[ChannelId] {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.channels.get(&key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Builds a multihop job for a payment along `path` (node ids),
    /// choosing channel `variant` on each edge (temporary channels).
    pub fn multihop_job(&self, path: &[NodeId], amount: u64, variant: usize) -> Option<Job> {
        let hops: Vec<_> = path
            .iter()
            .map(|n| self.cluster.ids[n.0 as usize])
            .collect();
        let mut channels = Vec::new();
        for w in path.windows(2) {
            let chans = self.edge_channels(w[0], w[1]);
            if chans.is_empty() {
                return None;
            }
            channels.push(chans[variant % chans.len()]);
        }
        Some(Job::Multihop {
            paths: vec![(hops, channels)],
            next_path: 0,
            amount,
        })
    }
}

/// Builds a network over explicit edges, `parallel` channels per edge,
/// each funded on both sides. `backups` committee members per node.
pub fn build_network(
    n: usize,
    edges: &[(NodeId, NodeId)],
    parallel: usize,
    backups: usize,
    link: LinkSpec,
    seed: u64,
) -> Network {
    let mut cluster = BenchCluster::new(ClusterConfig {
        n: n * (1 + backups),
        costs: CostModel::default(),
        default_link: link,
        durability: teechain::DurabilityBackend::None,
        seed,
        ..ClusterConfig::default()
    });
    // Backups of node i live at n + i*backups + b, on the same default link.
    for i in 0..n {
        for b in 0..backups {
            let backup = n + i * backups + b;
            let tail = if b == 0 { i } else { n + i * backups + b - 1 };
            cluster.attach_backup(tail, backup);
        }
    }
    let mut channels: HashMap<(NodeId, NodeId), Vec<ChannelId>> = HashMap::new();
    for &(a, b) in edges {
        let (a_i, b_i) = (a.0 as usize, b.0 as usize);
        for p in 0..parallel {
            let label = format!("e{}-{}-{}", a.0, b.0, p);
            let chan = cluster.standard_channel(a_i, b_i, &label, 1_000_000_000, 1);
            // Fund the reverse direction too so payments flow both ways.
            let dep = cluster.fund_deposit(b_i, 1_000_000_000, 1);
            cluster.approve_and_associate(b_i, a_i, chan, &dep);
            channels
                .entry(if a <= b { (a, b) } else { (b, a) })
                .or_default()
                .push(chan);
        }
    }
    let graph = ChannelGraph::from_pairs(edges);
    Network {
        cluster,
        channels,
        graph,
    }
}

/// Which of an edge's parallel (temporary) channels a payment uses.
/// Derived from the value bucket and the endpoints: raw workload values
/// are multiples of `MAX_VALUE/100`, so a bare `value % G` would always
/// pick channel 0 and leave temporary channels idle.
fn channel_variant(p: &crate::workload::Payment) -> usize {
    (p.value / (crate::workload::MAX_VALUE / 100).max(1) + p.from.0 as u64 * 7 + p.to.0 as u64 * 13)
        as usize
}

/// Generates hub-and-spoke multihop jobs per machine from the §7.4
/// skewed workload, with `alternatives` routing paths (1 = static
/// shortest, >1 = dynamic routing).
pub fn hub_spoke_jobs(
    net: &Network,
    hs: &HubSpoke,
    payments: usize,
    alternatives: usize,
    seed: u64,
) -> HashMap<usize, Vec<Job>> {
    let mut wl = Workload::hub_spoke(hs, seed);
    let mut jobs: HashMap<usize, Vec<Job>> = HashMap::new();
    for p in wl.take(payments) {
        let paths_nodes = net.graph.k_paths(p.from, p.to, alternatives);
        if paths_nodes.is_empty() {
            continue;
        }
        let mut paths = Vec::new();
        for path in &paths_nodes {
            let hops: Vec<_> = path.iter().map(|n| net.cluster.ids[n.0 as usize]).collect();
            let mut channels = Vec::new();
            let mut ok = true;
            for w in path.windows(2) {
                let chans = net.edge_channels(w[0], w[1]);
                if chans.is_empty() {
                    ok = false;
                    break;
                }
                // Spread load over parallel (temporary) channels.
                let pick = channel_variant(&p) % chans.len();
                channels.push(chans[pick]);
            }
            if ok {
                paths.push((hops, channels));
            }
        }
        if paths.is_empty() {
            continue;
        }
        jobs.entry(p.from.0 as usize)
            .or_default()
            .push(Job::Multihop {
                paths,
                next_path: 0,
                amount: p.value,
            });
    }
    jobs
}

/// The Fig. 3 region list for reuse in binaries.
pub fn fig3_region_list() -> Vec<Region> {
    fig3_regions()
}

/// A convenient 100 ms symmetric WAN link (§7.4 emulation).
pub fn wan_100ms() -> LinkSpec {
    LinkSpec {
        latency_ns: 50 * MS,
        jitter_frac: 0.06,
        bandwidth_bps: Some(1_000_000_000),
    }
}

/// Builds a large sparse hub-and-spoke network for generated topologies
/// (the `scale` bench bin): channels funded on both sides, **peer
/// directories populated along edges only** — O(edges) instead of the
/// O(n²) full mesh — and no committee backups. Upper-tier edges (both
/// endpoints in tiers 1–2) get `upper_parallel` parallel channels, the
/// Fig. 7 temporary channels that relieve hub lock contention; leaf
/// edges get one.
///
/// Construction is **streamed in phase batches**: a chunk of edges
/// submits one whole wave of independent operations per protocol phase
/// (sessions → channel opens → deposits → approvals → associations) and
/// the cluster settles once per phase
/// instead of once per operation. The per-op `wait` this replaces cost
/// O(nodes) per settle, making topology construction O(nodes ·
/// channels) — the difference between 100k-node overlays building in
/// seconds and in hours. Chunking bounds in-flight operations (and
/// their event-queue footprint), so memory stays proportional to the
/// chunk, not the overlay.
pub fn build_sparse_network(
    hs: &HubSpoke,
    link: LinkSpec,
    seed: u64,
    upper_parallel: usize,
) -> Network {
    let n = hs.total() as usize;
    let edges = hs.channel_pairs();
    let peer_edges: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(a, b)| (a.0 as usize, b.0 as usize))
        .collect();
    let cfg = ClusterConfig {
        n,
        costs: CostModel::default(),
        default_link: link,
        durability: teechain::DurabilityBackend::None,
        seed,
        ..ClusterConfig::default()
    };
    let mut cluster = BenchCluster(Cluster::build(cfg, Some(&peer_edges)));
    let mut channels: HashMap<(NodeId, NodeId), Vec<ChannelId>> = HashMap::new();
    // Keep roughly this many channel instances in flight per phase
    // batch (edges stay whole, so a batch can exceed it by one edge's
    // parallel channels).
    const CHUNK_CHANNELS: usize = 4_096;
    let mut batch: Vec<(NodeId, NodeId, usize)> = Vec::new();
    let mut batched_channels = 0usize;
    let flush = |cluster: &mut BenchCluster,
                 channels: &mut HashMap<(NodeId, NodeId), Vec<ChannelId>>,
                 batch: &mut Vec<(NodeId, NodeId, usize)>| {
        if batch.is_empty() {
            return;
        }
        build_channel_batch(cluster, channels, batch);
        batch.clear();
    };
    for &(a, b) in &edges {
        let parallel = if hs.tier_of(a) <= 2 && hs.tier_of(b) <= 2 {
            upper_parallel.max(1)
        } else {
            1
        };
        batch.push((a, b, parallel));
        batched_channels += parallel;
        if batched_channels >= CHUNK_CHANNELS {
            flush(&mut cluster, &mut channels, &mut batch);
            batched_channels = 0;
        }
    }
    flush(&mut cluster, &mut channels, &mut batch);
    let graph = ChannelGraph::from_pairs(&edges);
    Network {
        cluster,
        channels,
        graph,
    }
}

/// One streamed construction batch: every edge in `batch` gets its
/// sessions, parallel channels and double-sided funding, with exactly
/// one cluster settle per protocol phase (operations within a phase are
/// independent across edges; phases order the per-channel protocol
/// steps exactly as [`Harness::standard_channel`] does serially).
fn build_channel_batch(
    cluster: &mut BenchCluster,
    channels: &mut HashMap<(NodeId, NodeId), Vec<ChannelId>>,
    batch: &[(NodeId, NodeId, usize)],
) {
    let ids = cluster.ids.clone();
    let id = |n: NodeId| ids[n.0 as usize];

    // Phase 1: one session per edge (parallel channels share it).
    let sessions = batch
        .iter()
        .map(|&(a, b, _)| (a, Command::StartSession { remote: id(b) }.into()))
        .collect();
    wave::<PublicKey>(cluster, sessions, "session");

    // Channel instances of this batch, in deterministic edge order.
    let insts: Vec<(NodeId, NodeId, ChannelId)> = batch
        .iter()
        .flat_map(|&(a, b, parallel)| {
            (0..parallel).map(move |p| {
                let label = format!("e{}-{}-{}", a.0, b.0, p);
                (a, b, ChannelId::from_label(&label))
            })
        })
        .collect();

    // Phase 2: open every channel.
    let opens = insts
        .iter()
        .map(|&(a, b, chan)| {
            (
                a,
                Request::OpenChannel {
                    id: chan,
                    remote: id(b),
                },
            )
        })
        .collect();
    wave::<ChannelId>(cluster, opens, "channel open");

    // Phase 3: fund a deposit on both sides of every channel.
    let sides: Vec<(NodeId, NodeId, ChannelId)> = insts
        .iter()
        .flat_map(|&(a, b, chan)| [(a, b, chan), (b, a, chan)])
        .collect();
    let fund = Request::FundDeposit {
        value: 1_000_000_000,
        m: 1,
    };
    let funds = sides.iter().map(|&(me, _, _)| (me, fund.clone())).collect();
    let deposits = wave::<Deposit>(cluster, funds, "deposit");

    // Phase 4: each side approves its deposit toward its peer.
    let approvals = sides
        .iter()
        .zip(&deposits)
        .map(|(&(me, peer, _), dep)| {
            let approve = Command::ApproveDeposit {
                remote: id(peer),
                outpoint: dep.outpoint,
            };
            (me, approve.into())
        })
        .collect();
    wave::<()>(cluster, approvals, "approve");

    // Phase 5: associate each deposit with its channel.
    let assocs = sides
        .iter()
        .zip(&deposits)
        .map(|(&(me, _, chan), dep)| {
            let associate = Command::AssociateDeposit {
                id: chan,
                outpoint: dep.outpoint,
            };
            (me, associate.into())
        })
        .collect();
    wave::<()>(cluster, assocs, "associate");

    for &(a, b, id) in &insts {
        channels
            .entry(if a <= b { (a, b) } else { (b, a) })
            .or_default()
            .push(id);
    }
}

/// Submits one wave of independent requests, settles the network once,
/// and returns each typed outcome in submission order.
fn wave<T: OpResult>(
    cluster: &mut BenchCluster,
    reqs: Vec<(NodeId, Request)>,
    what: &str,
) -> Vec<T> {
    let ops: Vec<OpId> = reqs
        .into_iter()
        .map(|(node, req)| cluster.submit(node.0 as usize, req))
        .collect();
    cluster.settle_network();
    ops.into_iter()
        .map(|op| {
            let out = cluster
                .outcome(op)
                .expect("every operation resolves at quiescence");
            let out = out.unwrap_or_else(|e| panic!("{what} failed: {e}"));
            T::from_output(out).expect("output matches the request")
        })
        .collect()
}

/// The static route between two nodes of a hub-and-spoke overlay,
/// computed from the tier structure instead of a graph search (BFS per
/// payment does not scale to 10k-node topologies): climb `from` to a
/// deterministic hub, descend to `to`, then cut any revisit loop (e.g.
/// two leaves sharing a parent route leaf→parent→leaf, not through the
/// hub). Returns `None` when `from == to`.
pub fn hub_spoke_path(hs: &HubSpoke, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return None;
    }
    // The transit hub: an endpoint that already is a hub, otherwise a
    // deterministic pick (tier-2 nodes connect to every hub).
    let hub = if hs.tier_of(from) == 1 {
        from
    } else if hs.tier_of(to) == 1 {
        to
    } else {
        NodeId((from.0 + to.0) % hs.tier1)
    };
    let parent_of = |id: NodeId| -> NodeId {
        match hs.tier_of(id) {
            3 => {
                let k = id.0 - hs.tier1 - hs.tier2;
                NodeId(hs.tier1 + (k % hs.tier2))
            }
            2 => hub,
            _ => id,
        }
    };
    // Climb to the hub tier.
    let mut up = vec![from];
    while hs.tier_of(*up.last().expect("nonempty")) != 1 {
        let next = parent_of(*up.last().expect("nonempty"));
        up.push(next);
    }
    let mut down = vec![to];
    while hs.tier_of(*down.last().expect("nonempty")) != 1 {
        let next = parent_of(*down.last().expect("nonempty"));
        down.push(next);
    }
    // Join, shortcutting at the first shared node: whenever the next
    // descending node is already on the path, truncate back to it.
    let mut path = up;
    for &node in down.iter().rev() {
        if let Some(pos) = path.iter().position(|&p| p == node) {
            path.truncate(pos + 1);
        } else {
            path.push(node);
        }
    }
    debug_assert!(path.len() >= 2);
    Some(path)
}

/// Generates per-machine jobs for a generated hub-and-spoke overlay
/// using the §7.4 skewed workload and [`hub_spoke_path`] static routes.
/// Adjacent pairs pay directly; everything else goes multi-hop.
pub fn scale_jobs(
    net: &Network,
    hs: &HubSpoke,
    payments: usize,
    seed: u64,
) -> HashMap<usize, Vec<Job>> {
    let mut wl = Workload::hub_spoke(hs, seed);
    let mut jobs: HashMap<usize, Vec<Job>> = HashMap::new();
    for p in wl.take(payments) {
        let Some(path) = hub_spoke_path(hs, p.from, p.to) else {
            continue;
        };
        let amount = p.value.max(1);
        // Spread load across parallel (temporary) channels.
        let variant = channel_variant(&p);
        let job = if path.len() == 2 {
            let chans = net.edge_channels(path[0], path[1]);
            Job::Direct {
                chan: chans[variant % chans.len()],
                amount,
            }
        } else {
            let Some(job) = net.multihop_job(&path, amount, variant) else {
                continue;
            };
            job
        };
        jobs.entry(p.from.0 as usize).or_default().push(job);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_spoke_paths_follow_channel_edges() {
        let hs = HubSpoke::scaled(1_000);
        let edges: std::collections::HashSet<(u32, u32)> = hs
            .channel_pairs()
            .iter()
            .map(|(a, b)| (a.0.min(b.0), a.0.max(b.0)))
            .collect();
        let n = hs.total();
        // A deterministic spread of pairs including same-parent leaves,
        // cross-tier and hub-to-hub routes.
        for i in 0..60u32 {
            let from = NodeId((i * 37) % n);
            let to = NodeId((i * 101 + 13) % n);
            let Some(path) = hub_spoke_path(&hs, from, to) else {
                assert_eq!(from, to);
                continue;
            };
            assert_eq!(path[0], from);
            assert_eq!(*path.last().expect("nonempty"), to);
            assert!(path.len() <= 5, "paths stay short: {path:?}");
            // No node repeats.
            let mut seen = std::collections::HashSet::new();
            assert!(path.iter().all(|p| seen.insert(p.0)), "loop in {path:?}");
            // Every hop is a real channel edge.
            for w in path.windows(2) {
                let key = (w[0].0.min(w[1].0), w[0].0.max(w[1].0));
                assert!(edges.contains(&key), "no channel for hop {key:?}");
            }
        }
    }

    #[test]
    fn same_parent_leaves_shortcut_through_parent() {
        let hs = HubSpoke::paper_default();
        // Leaves k and k + tier2 share parent tier1 + k.
        let a = NodeId(hs.tier1 + hs.tier2);
        let b = NodeId(hs.tier1 + hs.tier2 + hs.tier2);
        let path = hub_spoke_path(&hs, a, b).expect("distinct");
        assert_eq!(path, vec![a, NodeId(hs.tier1), b]);
    }
}
