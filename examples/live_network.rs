//! Live network: the same Teechain protocol that runs in the simulator,
//! now on real OS threads, real localhost TCP sockets and real clocks.
//!
//! Three nodes — Alice, Bob, Carol — each run their enclave + host on a
//! dedicated thread. The first act uses the in-process channel
//! transport; the second act repeats the flow over TCP sockets, byte-
//! identical wire format and all; the third act runs it on the sharded
//! reactor runtime, where the nodes share a fixed worker pool instead
//! of owning threads. Every interaction is still a correlated operation
//! (`OpId` → typed `Completion`); only the substrate changed.
//!
//! Run with: `cargo run --release --example live_network`

use std::time::Instant;
use teechain::live::{LiveCluster, LiveConfig};
use teechain::ops::SettleKind;
use teechain::testkit::Harness;

fn tour(mut net: &LiveCluster, transport: &str) {
    println!("== {transport} ==");
    println!("Alice  = {}", net.ids[0].fingerprint());
    println!("Bob    = {}", net.ids[1].fingerprint());
    println!("Carol  = {}", net.ids[2].fingerprint());

    // 1. Channels along the line Alice - Bob - Carol. Attestation,
    //    channel opening and deposit funding all cross the real wire.
    let ab = net.standard_channel(0, 1, &format!("{transport}-ab"), 10_000, 1);
    let bc = net.standard_channel(1, 2, &format!("{transport}-bc"), 10_000, 1);
    println!(
        "[1] channels open+funded: {} and {}",
        ab.short(),
        bc.short()
    );

    // 2. Direct payments, timed on the wall clock.
    let t0 = Instant::now();
    let count = 500;
    for _ in 0..count {
        net.pay(0, ab, 2).expect("payment");
    }
    let elapsed = t0.elapsed();
    println!(
        "[2] {count} sequential payments in {:.1} ms ({:.0} tx/s round-trip)",
        elapsed.as_secs_f64() * 1e3,
        count as f64 / elapsed.as_secs_f64()
    );

    // 3. A multi-hop payment Alice -> Bob -> Carol: locks on both
    //    channels, delivery, unlock — all real messages.
    let d = net
        .pay_multihop(&[0, 1, 2], &[ab, bc], 250, &format!("{transport}-mh"))
        .expect("multihop");
    println!("[3] multi-hop delivered {} to Carol", d.amount);

    // 4. Typed failure: overspending is refused by Alice's own enclave.
    let err = net.pay(0, ab, 1_000_000).expect_err("overspend refused");
    println!("[4] typed refusal: {err}");

    // 5. Settle Bob-Carol on chain (balances are non-neutral after the
    //    multi-hop delivery).
    let s = net.settle_channel(1, bc).expect("settle");
    match s.kind {
        SettleKind::OnChain(txid) => println!("[5] settled on chain: {}", txid.short()),
        SettleKind::OffChain => println!("[5] settled off chain"),
    }
    println!();
}

fn main() {
    // Act I: in-process channels — every node a thread, zero kernel I/O.
    let net = LiveCluster::over_threads(LiveConfig {
        n: 3,
        seed: 2026,
        ..LiveConfig::default()
    });
    tour(&net, "threads");
    net.shutdown();

    // Act II: localhost TCP — same protocol bytes, now framed with the
    // wire codec and pushed through real sockets.
    let net = LiveCluster::over_tcp(LiveConfig {
        n: 3,
        seed: 2026,
        ..LiveConfig::default()
    })
    .expect("bind localhost listeners");
    tour(&net, "tcp");
    net.shutdown();

    // Act III: the reactor runtime — same three nodes, but scheduled
    // onto a fixed worker pool over the non-blocking multiplexed
    // transport (the configuration that scales to 1,000+ nodes).
    let net = LiveCluster::over_reactor(LiveConfig {
        n: 3,
        seed: 2026,
        ..LiveConfig::default()
    })
    .expect("bind reactor listener");
    tour(&net, "reactor");
    let history = net.completion_log();
    let threads = net.runtime_threads();
    let nodes = net.shutdown();
    println!(
        "Done: {} live nodes wound down cleanly; {} operations completed over the reactor ({} runtime threads), every one exactly once.",
        nodes.len(),
        history.len(),
        threads
    );
}
