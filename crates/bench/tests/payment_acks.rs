//! The payee's cumulative `PayAck`s: wherever `Pay`s queue at the payee
//! (a burst, or Table 1's pipelined no-FT load, whose payee falls behind
//! the payer), one ack covers up to `ACK_EVERY` of them, plus one per
//! drained input; where the payee sits idle between payments (Table 1's
//! window-1 latency load), every payment is acknowledged alone, as before
//! acks were cumulative.

use teechain::replication::ACK_EVERY;
use teechain::testkit::ClusterConfig;
use teechain_bench::harness::{BenchCluster, Job, RunStats};
use teechain_bench::scenarios::{fig3_pair, sim_burst, FtMode};

const PAYMENTS: u64 = 2_000;

/// The payee's `(acks sealed, of them flushed)` over `load`.
fn payee_acks(cluster: &mut BenchCluster, load: impl FnOnce(&mut BenchCluster)) -> (u64, u64) {
    let counts = |cluster: &BenchCluster| {
        let snap = cluster.node(1).registry().snapshot();
        let get = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        (get("pay.acks_sent"), get("pay.ack_flushes"))
    };
    let before = counts(cluster);
    load(cluster);
    let (acks, flushes) = counts(cluster);
    (acks - before.0, flushes - before.1)
}

/// Runs `PAYMENTS` direct payments from node 0 with at most `window`
/// in flight.
fn run_payments(cluster: &mut BenchCluster, chan: teechain::ChannelId, window: usize) -> RunStats {
    let jobs = (0..PAYMENTS)
        .map(|_| Job::Direct { chan, amount: 1 })
        .collect();
    cluster.load(0, jobs, window);
    let stats = cluster.run(300_000_000);
    assert_eq!(stats.completed, PAYMENTS);
    stats
}

/// Wire `Pay`s behind `stats`: each payment alone, or a batch as one.
fn wire_pays(stats: &RunStats) -> u64 {
    stats.completed - stats.batched_payments + stats.batches
}

/// No ack covers more than the bound, every other one is a drained
/// input, and something coalesced.
fn assert_coalesced(stats: &RunStats, (acks, flushes): (u64, u64)) {
    let pays = wire_pays(stats);
    assert!(acks * ACK_EVERY >= pays, "{acks} acks for {pays} pays");
    assert!(
        acks <= pays / ACK_EVERY + flushes,
        "{acks} acks, {flushes} flushes, {pays} pays"
    );
    assert!(acks < pays, "nothing coalesced");
}

#[test]
fn a_burst_is_acked_at_most_every_bound_plus_once_per_drained_input() {
    // Free CPU and ideal links: the whole window leaves the payer at one
    // instant and queues at the payee.
    let mut cluster = BenchCluster::new(ClusterConfig::default());
    let chan = cluster.standard_channel(0, 1, "burst", u64::MAX / 4, 1);
    let mut stats = None;
    let acks = payee_acks(&mut cluster, |c| {
        stats = Some(run_payments(c, chan, 1_000_000))
    });
    assert_coalesced(&stats.unwrap(), acks);
}

#[test]
fn table1_no_ft_throughput_load_coalesces_what_queues_at_the_payee() {
    let (mut cluster, chan) = fig3_pair(FtMode::None, 1234);
    let mut stats = None;
    let acks = payee_acks(&mut cluster, |c| {
        stats = Some(run_payments(c, chan, 1_000_000))
    });
    assert_coalesced(&stats.unwrap(), acks);
}

#[test]
fn table1_no_ft_latency_load_acks_every_payment_alone() {
    // One payment in flight: the payee handles each `Pay` with nothing
    // queued behind it.
    let (mut cluster, chan) = fig3_pair(FtMode::None, 1235);
    let mut stats = None;
    let acks = payee_acks(&mut cluster, |c| stats = Some(run_payments(c, chan, 1)));
    assert_eq!(wire_pays(&stats.unwrap()), PAYMENTS);
    assert_eq!(acks, (PAYMENTS, PAYMENTS));
}

#[test]
fn a_burst_on_the_sim_pay_shape_processes_one_event_per_message() {
    // Every delivery but the last is held, and the last releases the
    // ack: no timer joins the messages.
    let (events, messages) = sim_burst(teechain::DurabilityBackend::None, 1, 64);
    assert_eq!(messages, 64 + 1, "64 pays and one ack");
    assert_eq!(events, messages);
}
