//! The load generator: one thread, closed loop or open loop, against
//! anything that can take an operation and later say it completed.
//!
//! The generator never looks at a wall clock itself — the [`Target`] owns the
//! clock — so the unit tests run it on a fake clock.

use crate::stats::percentile_of;

/// One completed operation.
pub struct Done {
    /// The index `submit` was given.
    pub idx: u64,
    /// Completion time on the target's clock.
    pub at_ns: u64,
    /// False for a failed, refused or timed-out operation.
    pub ok: bool,
}

/// What the generator drives.
pub trait Target {
    /// The clock everything is timed on.
    fn now_ns(&mut self) -> u64;
    /// Sends operation `idx` on channel `chan`.
    fn submit(&mut self, idx: u64, chan: usize);
    /// Appends every operation that completed since the last call.
    fn poll(&mut self, out: &mut Vec<Done>);
    /// Nothing to do before `until_ns`: wait, at most that long.
    fn idle(&mut self, until_ns: u64);
}

/// How long the generator naps when it has nothing to send or collect.
const NAP_NS: u64 = 50_000;

/// At most this many back-to-back submits before completions are collected.
const SUBMIT_BURST: usize = 256;

/// What one generator run saw.
#[derive(Default)]
pub struct Step {
    /// Length of the sending window.
    pub window_ns: u64,
    /// Operations due within the window (open loop; equals `sent` otherwise).
    pub due: u64,
    /// Operations sent.
    pub sent: u64,
    /// Operations that completed successfully, each once.
    pub ok: u64,
    /// Successful completions stamped within the sending window.
    pub ok_in_window: u64,
    /// Operations that completed with an error, plus those still unresolved
    /// when the drain timeout passed.
    pub failed: u64,
    /// Completions for an operation that had already completed, or that was
    /// never sent: any is an exactly-once violation.
    pub spurious: u64,
    /// Due time (open loop) or send time (closed loop) to completion, per
    /// successful operation.
    pub lat_ns: Vec<u64>,
    /// Due time to the moment the generator started sending (open loop).
    pub late_ns: Vec<u64>,
    /// Time spent inside each `Target::submit` call.
    pub submit_ns: Vec<u64>,
    /// Time spent inside each `Target::poll` call.
    pub poll_ns: Vec<u64>,
}

impl Step {
    /// Successful operations per second of the sending window.
    pub fn tx_s(&self) -> f64 {
        self.ok_in_window as f64 / (self.window_ns as f64 / 1e9)
    }

    pub fn lat_percentile_ms(&mut self, q: f64) -> f64 {
        percentile_of(&mut self.lat_ns, q) as f64 / 1e6
    }

    /// True if every sent operation resolved exactly once, successfully.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.spurious == 0 && self.ok == self.sent
    }
}

/// Book-keeping shared by both loops: per-operation start time, channel and
/// whether it has resolved.
struct Ledger {
    start_ns: Vec<u64>,
    chan: Vec<u32>,
    resolved: Vec<bool>,
    inflight: Vec<usize>,
    done: Vec<Done>,
}

impl Ledger {
    fn new(channels: usize) -> Ledger {
        Ledger {
            start_ns: Vec::new(),
            chan: Vec::new(),
            resolved: Vec::new(),
            inflight: vec![0; channels],
            done: Vec::new(),
        }
    }

    fn total_inflight(&self) -> usize {
        self.inflight.iter().sum()
    }

    /// Sends the next operation; `start_ns` is what its latency counts from.
    fn send(&mut self, t: &mut impl Target, step: &mut Step, chan: usize, start_ns: u64) {
        let idx = self.start_ns.len() as u64;
        self.start_ns.push(start_ns);
        self.chan.push(chan as u32);
        self.resolved.push(false);
        self.inflight[chan] += 1;
        let s = t.now_ns();
        t.submit(idx, chan);
        step.submit_ns.push(t.now_ns().saturating_sub(s));
        step.sent += 1;
    }

    /// Collects completions; returns how many arrived.
    fn collect(&mut self, t: &mut impl Target, step: &mut Step, window_end_ns: u64) -> usize {
        let s = t.now_ns();
        t.poll(&mut self.done);
        step.poll_ns.push(t.now_ns().saturating_sub(s));
        let n = self.done.len();
        for d in self.done.drain(..) {
            let i = d.idx as usize;
            if i >= self.resolved.len() || self.resolved[i] {
                step.spurious += 1;
                continue;
            }
            self.resolved[i] = true;
            self.inflight[self.chan[i] as usize] -= 1;
            if d.ok {
                step.ok += 1;
                step.ok_in_window += u64::from(d.at_ns <= window_end_ns);
                step.lat_ns.push(d.at_ns.saturating_sub(self.start_ns[i]));
            } else {
                step.failed += 1;
            }
        }
        n
    }
}

/// Open loop: operation `i` is due at `start + i / rate`, whatever the
/// target is doing, round-robin over `channels`. Latency counts from the due
/// time, so a stall shows in every operation that was due during it. Sending
/// stops at the end of the window; what was due and not sent by then is
/// missing from `sent`. Then waits up to `drain_ns` for the rest.
pub fn open_loop(
    t: &mut impl Target,
    channels: usize,
    rate: f64,
    window_ns: u64,
    drain_ns: u64,
) -> Step {
    let due_total = (window_ns as f64 / 1e9 * rate) as u64;
    let mut step = Step {
        window_ns,
        due: due_total,
        ..Step::default()
    };
    let mut ledger = Ledger::new(channels);
    let t0 = t.now_ns();
    let end = t0 + window_ns;
    let due_at = |i: u64| t0 + (i as f64 * 1e9 / rate) as u64;
    let mut next = 0u64;
    loop {
        let mut now = t.now_ns();
        let mut burst = 0;
        while next < due_total && now < end && due_at(next) <= now && burst < SUBMIT_BURST {
            step.late_ns.push(now - due_at(next));
            ledger.send(
                t,
                &mut step,
                (next % channels as u64) as usize,
                due_at(next),
            );
            next += 1;
            burst += 1;
            now = t.now_ns();
        }
        let sending = next < due_total && now < end;
        let got = ledger.collect(t, &mut step, end);
        if !sending && (ledger.total_inflight() == 0 || now >= end + drain_ns) {
            break;
        }
        if burst == 0 && got == 0 {
            let wake = if sending { due_at(next) } else { u64::MAX };
            t.idle(wake.min(now + NAP_NS));
        }
    }
    step.failed += ledger.total_inflight() as u64;
    step
}

/// Closed loop: keeps `window` operations in flight on each channel for
/// `window_ns`, then waits up to `drain_ns` for the rest. Latency counts
/// from the send.
pub fn closed_loop(
    t: &mut impl Target,
    channels: usize,
    window: usize,
    window_ns: u64,
    drain_ns: u64,
) -> Step {
    let mut step = Step {
        window_ns,
        ..Step::default()
    };
    let mut ledger = Ledger::new(channels);
    let end = t.now_ns() + window_ns;
    loop {
        let mut now = t.now_ns();
        let mut sent = 0;
        for chan in 0..channels {
            while now < end && ledger.inflight[chan] < window {
                ledger.send(t, &mut step, chan, now);
                sent += 1;
                now = t.now_ns();
            }
        }
        let got = ledger.collect(t, &mut step, end);
        if now >= end && (ledger.total_inflight() == 0 || now >= end + drain_ns) {
            break;
        }
        if sent == 0 && got == 0 {
            t.idle(now + NAP_NS);
        }
    }
    step.due = step.sent;
    step.failed += ledger.total_inflight() as u64;
    step
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A target on a fake clock: a submit costs `submit_ns`, an operation
    /// completes `service_ns` after it was sent, and sending operation
    /// `stall_at` first blocks the generator for `stall_ns`.
    struct Fake {
        now: u64,
        submit_ns: u64,
        service_ns: u64,
        stall_at: u64,
        stall_ns: u64,
        pending: Vec<Done>,
        fail_idx: Option<u64>,
    }

    impl Fake {
        fn new() -> Fake {
            Fake {
                now: 1_000,
                submit_ns: 1_000,
                service_ns: 200_000,
                stall_at: u64::MAX,
                stall_ns: 0,
                pending: Vec::new(),
                fail_idx: None,
            }
        }
    }

    impl Target for Fake {
        fn now_ns(&mut self) -> u64 {
            self.now
        }
        fn submit(&mut self, idx: u64, _chan: usize) {
            if idx == self.stall_at {
                self.now += self.stall_ns;
            }
            self.now += self.submit_ns;
            self.pending.push(Done {
                idx,
                at_ns: self.now + self.service_ns,
                ok: self.fail_idx != Some(idx),
            });
        }
        fn poll(&mut self, out: &mut Vec<Done>) {
            let now = self.now;
            let (ready, rest) = self.pending.drain(..).partition(|d| d.at_ns <= now);
            self.pending = rest;
            out.extend::<Vec<Done>>(ready);
        }
        fn idle(&mut self, until_ns: u64) {
            self.now = self.now.max(until_ns);
        }
    }

    #[test]
    fn open_loop_sends_on_schedule() {
        let mut t = Fake::new();
        // 1,000 ops/s for 1 s.
        let mut s = open_loop(&mut t, 3, 1_000.0, 1_000_000_000, 1_000_000_000);
        assert_eq!((s.due, s.sent, s.ok), (1_000, 1_000, 1_000));
        assert!(s.clean());
        assert_eq!(s.ok_in_window, 1_000);
        // Nothing stalls: every latency is the service time plus at most one
        // nap of lateness and one submit.
        assert!(
            s.lat_percentile_ms(1.0) < 0.3,
            "{}",
            s.lat_percentile_ms(1.0)
        );
        assert!(percentile_of(&mut s.late_ns, 0.99) < 60_000);
    }

    #[test]
    fn a_stall_lengthens_later_requests_latency() {
        let mut t = Fake::new();
        t.stall_at = 100;
        t.stall_ns = 50_000_000; // 50 ms: fifty operations fall due meanwhile.
        let mut s = open_loop(&mut t, 1, 1_000.0, 1_000_000_000, 1_000_000_000);
        assert_eq!((s.sent, s.ok), (1_000, 1_000));
        // Timed from the due time, every operation due during the stall
        // carries the part of the stall it waited through: latencies of
        // 50, 49, 48 … ms, not one slow request and 49 fast ones.
        let slow = s.lat_ns.iter().filter(|&&l| l > 10_000_000).count();
        assert!((38..=42).contains(&slow), "{slow} slow operations");
        let very_slow = s.lat_ns.iter().filter(|&&l| l > 40_000_000).count();
        assert!((9..=12).contains(&very_slow), "{very_slow}");
        assert!(percentile_of(&mut s.late_ns, 0.99) > 35_000_000);
    }

    #[test]
    fn open_loop_cuts_off_at_the_window() {
        let mut t = Fake::new();
        t.submit_ns = 2_000_000; // Can send 500/s, is asked for 1,000/s.
        let s = open_loop(&mut t, 1, 1_000.0, 1_000_000_000, 1_000_000_000);
        assert_eq!(s.due, 1_000);
        assert!((495..=505).contains(&s.sent), "{}", s.sent);
    }

    #[test]
    fn closed_loop_keeps_the_window_full() {
        let mut t = Fake::new();
        // Window 4 on 2 channels, 200 µs service: 8 ops per ~208 µs.
        let s = closed_loop(&mut t, 2, 4, 100_000_000, 1_000_000_000);
        assert!(s.clean());
        let expect = 8.0 / 208e-6;
        assert!(
            (s.tx_s() / expect - 1.0).abs() < 0.3,
            "{} vs {expect}",
            s.tx_s()
        );
        assert!(s.lat_ns.iter().all(|&l| l >= 200_000));
    }

    #[test]
    fn failures_and_lost_operations_are_counted() {
        let mut t = Fake::new();
        t.fail_idx = Some(5);
        let s = open_loop(&mut t, 1, 1_000.0, 100_000_000, 1_000_000_000);
        assert_eq!((s.sent, s.ok, s.failed), (100, 99, 1));
        assert!(!s.clean());
        // An operation that never completes is failed once the drain times out.
        let mut t = Fake::new();
        t.service_ns = u64::MAX / 2;
        let s = open_loop(&mut t, 1, 1_000.0, 10_000_000, 5_000_000);
        assert_eq!((s.sent, s.ok, s.failed), (10, 0, 10));
    }
}
