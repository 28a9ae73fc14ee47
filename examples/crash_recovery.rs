//! Crash recovery with persistent storage (§6.2): kill a node
//! mid-payment, recover it from the sealed WAL + snapshot, and watch a
//! roll-back attack get refused by the monotonic counter.
//!
//! Run with: `cargo run --release --example crash_recovery`

use teechain::enclave::Command;
use teechain::ops::OpError;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{DurabilityBackend, PersistPolicy, ProtocolError};

fn main() {
    // Two nodes in §6.2 persistent-storage mode: every commit seals its
    // state deltas into a host-side WAL; every 4th commit also seals a
    // full snapshot and compacts the log.
    let mut net = Cluster::new(ClusterConfig {
        n: 2,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every: 4 }),
        ..ClusterConfig::default()
    });
    let chan = net.standard_channel(0, 1, "demo", 10_000, 1);
    println!("channel open, Alice funded with 10,000");

    for i in 1..=5 {
        net.pay(0, chan, 100).unwrap();
        println!("payment {i}: Alice -> Bob 100");
    }
    let (bob, _) = net.balances(1, chan);
    let stats = net.store(1).unwrap().lock().stats();
    println!(
        "Bob holds {bob}; his store saw {} commits, {} snapshots, {} WAL bytes",
        stats.commits, stats.compactions, stats.wal_bytes
    );

    // A malicious host copies Bob's storage now — it will try to replay
    // this stale state later to erase payments.
    let (stale_snapshot, stale_log) = net.store(1).unwrap().lock().raw_dump().unwrap();

    net.pay(0, chan, 100).unwrap(); // Payment 6 commits durably.

    // Power failure: Bob dies with payment 7 on the wire. The payment
    // operation never resolves with an ack — it is typed-dead instead of
    // silently vanishing.
    let inflight = net.submit(
        0,
        Command::Pay {
            id: chan,
            amount: 100,
            count: 1,
        },
    );
    net.crash_node(1);
    let p7: Result<teechain::ops::Payment, _> = net.wait(net.pending(inflight));
    assert!(matches!(p7, Err(OpError::Timeout { .. })));
    println!("\nBob crashed mid-payment (payment 7 was in flight: {p7:?})");

    // Honest recovery: replay snapshot + WAL, counters check out. The
    // recovery operation's typed completion reports what was replayed.
    let recovered = net.recover_node(1).unwrap();
    println!(
        "recovered: {} channel(s), {} deposit(s), {} durable commits replayed",
        recovered.channels, recovered.deposits, recovered.commits
    );
    let (bob, _) = net.balances(1, chan);
    println!("Bob's balance after recovery: {bob} (payments 1-6 intact, 7 was never applied)");
    assert_eq!(bob, 600);

    // Sessions are volatile; Bob re-handshakes and payments resume.
    net.connect(1, 0);
    net.pay(0, chan, 100).unwrap();
    println!(
        "payments flow again: Bob now holds {}",
        net.balances(1, chan).0
    );

    // Roll-back attack: crash Bob again and restore the stale copy.
    net.crash_node(1);
    net.store(1)
        .unwrap()
        .lock()
        .restore_raw(stale_snapshot, stale_log)
        .unwrap();
    match net.recover_node(1) {
        Err(OpError::Rejected(ProtocolError::StaleState { found, expected })) => println!(
            "\nroll-back attack refused: storage reaches commit {found}, \
             hardware counter proves {expected} exist"
        ),
        other => panic!("stale state must be refused, got {other:?}"),
    }
    println!("the enclave froze itself; stale state can sign nothing");
}
