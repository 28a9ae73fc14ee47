//! Table 2: latency of payment channel operations.
//!
//! Measures, on the Fig. 3 testbed: channel creation (attested handshake +
//! channel open), replica creation (attested handshake + chain
//! assignment), and deposit association/dissociation across committee
//! chain lengths. LN channel creation is six Bitcoin blocks.

use teechain::driver::CostModel;
use teechain::testkit::{ClusterConfig, Harness};
use teechain_bench::harness::BenchCluster;
use teechain_bench::report::{BenchJson, Table};
use teechain_bench::scenarios::{fig3_pair, FtMode};
use teechain_bench::trace_out::TraceSink;
use teechain_net::topology::{fig3_link, Region};
use teechain_net::NodeId;

/// Measures one operation's simulated latency via a closure that drives
/// the cluster and returns (start, end can be read from sim clock).
fn timed(cluster: &mut BenchCluster, f: impl FnOnce(&mut BenchCluster)) -> f64 {
    let start = cluster.sim.now_ns();
    f(cluster);
    (cluster.sim.now_ns() - start) as f64 / 1e6
}

/// A bench cluster of `n` nodes on the US↔UK link.
fn fresh(n: usize) -> BenchCluster {
    BenchCluster::new(ClusterConfig {
        n,
        costs: CostModel::default(),
        default_link: fig3_link(Region::Us, Region::Uk),
        seed: 11,
        ..ClusterConfig::default()
    })
}

fn main() {
    let mut table = Table::new(
        "Table 2: payment channel operations — latency (ms)",
        &["Operation", "Latency (ms)"],
    );
    table.row(&[
        "LN channel creation (6 Bitcoin blocks)".into(),
        format!("{:.0}", teechain_baselines::ln::perf::channel_creation_ms()),
    ]);

    // Teechain channel creation: attested session + channel open. This
    // is the run --trace-out records (handshake, open and deposit ecalls
    // make a compact, readable flight recording).
    let sink = TraceSink::from_args();
    let mut c = fresh(2);
    if sink.active() {
        c.set_tracing(true);
    }
    let ms = timed(&mut c, |c| {
        c.connect(0, 1);
        c.open_channel(0, 1, "t2");
    });
    table.row(&["Teechain channel creation".into(), format!("{ms:.0}")]);
    sink.write(&c.drain_trace());

    // Outsourced channel creation: the client additionally attests the
    // remote TEE it outsources to (one extra attested handshake from IL).
    let mut c = fresh(3);
    c.sim
        .set_link(NodeId(0), NodeId(2), fig3_link(Region::Us, Region::Il));
    c.sim
        .set_link(NodeId(1), NodeId(2), fig3_link(Region::Uk, Region::Il));
    let ms = timed(&mut c, |c| {
        // The IL client (node 2) attests its outsourced TEE (node 0)...
        c.connect(2, 0);
        // ...which then opens the channel to UK1 as usual.
        let _ = c.standard_channel(0, 1, "outsourced", 1000, 1);
    });
    table.row(&[
        "Teechain outsourced channel creation".into(),
        format!("{ms:.0}"),
    ]);

    // Replica creation: attested session + chain assignment.
    let mut c = fresh(2);
    let ms = timed(&mut c, |c| c.attach_backup(0, 1));
    table.row(&["Teechain replica creation".into(), format!("{ms:.0}")]);

    // Associate/dissociate deposit per committee chain length.
    for (label, ft) in [
        ("Associate/dissociate, no fault tolerance", FtMode::None),
        ("Associate/dissociate, one backup (IL)", FtMode::Replicas(1)),
        (
            "Associate/dissociate, two backups (IL & UK)",
            FtMode::Replicas(2),
        ),
        (
            "Associate/dissociate, three backups (IL, US & UK)",
            FtMode::Replicas(3),
        ),
    ] {
        let (mut c, chan) = fig3_pair(ft, 77);
        // Fund a spare deposit, then time the associate round trip.
        let dep = c.fund_deposit(0, 500, 1);
        let p = c.handle(0).approve_deposit(1, dep.outpoint);
        c.wait(p).expect("approve deposit failed");
        let ms = timed(&mut c, |c| {
            let p = c.handle(0).associate_deposit(chan, dep.outpoint);
            c.wait(p).expect("associate deposit failed");
        });
        table.row(&[label.into(), format!("{ms:.0}")]);
    }
    table.print();
    let mut doc = BenchJson::new("table2");
    doc.table(&table).write().expect("bench json");
    println!(
        "\nPaper: LN 3,600,000; creation 2,810 (4,322 outsourced); replica 2,765;\n\
         associate/dissociate 101 / 289 / 422 / 677; stable storage 302."
    );
}
