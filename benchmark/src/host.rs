//! What the host tells us: CPU time, peak memory, and how fast it is today.

use std::hint::black_box;
use std::time::Instant;
use teechain_crypto::sha256::sha256;

/// On-CPU nanoseconds of every live thread of this process, from
/// `/proc/self/task/*/schedstat` (nanosecond resolution, where
/// `/proc/self/stat` counts 10 ms ticks). A thread that has exited no longer
/// contributes, so take differences only while the thread set is stable.
pub fn cpu_ns_all_threads() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The calibration kernel: nanoseconds for a fixed SHA-256 loop (best of
/// three). Timed at the start and the end of a run; a host that got busier
/// or throttled in between shows as a difference.
pub fn calib_ns() -> u64 {
    let mut buf = [0x5au8; 4096];
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..256 {
                let d = sha256(black_box(&buf));
                buf[..32].copy_from_slice(&d);
            }
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0)
}

/// A Linux `cpu_set_t`: one bit per CPU, 1,024 of them.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// While it lives, the calling thread and every thread spawned meanwhile run
/// on one CPU: the highest-numbered one the thread was allowed before (CPU 0
/// takes most of a VM's interrupts). Dropping it gives the calling thread its
/// CPUs back.
///
/// The live workloads run under it. Their runtime has four threads and the
/// generator is a fifth; on a host with fewer CPUs than that, which threads
/// share a CPU changes every few hundred milliseconds, and on a VM a wake-up
/// that crosses vCPUs costs ten times one that stays (18 µs against under
/// 2 µs here). A closed loop on one cluster then reads anywhere from 12k to
/// 56k tx/s from one 100 ms slice to the next, and ten runs of one commit
/// spread by 16–34 %: the scheduler is measured, not the program. On one CPU
/// every hand-off is a context switch, and ten runs of the same closed loop
/// spread by 3 %. What is given up is the runtime's parallel speed-up, which
/// a host this small cannot show steadily anyway. Failure is harmless: the
/// pass runs unpinned.
pub struct OneCpu {
    before: Option<CpuSet>,
}

impl OneCpu {
    pub fn pin() -> OneCpu {
        OneCpu {
            before: pin_to_last_allowed_cpu(),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(before) = &self.before {
            // SAFETY: as in `pin_to_last_allowed_cpu`; the mask is one the
            // kernel handed out for this thread.
            unsafe {
                sched_setaffinity(0, std::mem::size_of::<CpuSet>(), before);
            }
        }
    }
}

/// Returns the mask the thread had, or `None` if nothing changed.
fn pin_to_last_allowed_cpu() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut before: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread. The kernel writes at most
        // `cpusetsize` bytes into `before`, which is exactly that large, and
        // only reads `one`, of the same size; both outlive the calls. The
        // declarations match libc's
        // `int sched_{get,set}affinity(pid_t, size_t, cpu_set_t *)`.
        unsafe {
            let size = std::mem::size_of::<CpuSet>();
            if sched_getaffinity(0, size, &mut before) != 0 {
                return None;
            }
            let (word, bits) = before.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
            let mut one: CpuSet = [0; 16];
            one[word] = 1 << (63 - bits.leading_zeros());
            (sched_setaffinity(0, size, &one) == 0).then_some(before)
        }
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Asks the kernel to wake this thread's timed sleeps on time (`true`), or
/// puts the default back (`false`). By default Linux may delay a wake-up by
/// 50 µs of "timer slack" to batch timers; a 50 µs nap then takes 130 µs,
/// which the open-loop generator would report as latency. With a slack of
/// 1 ns the same nap takes 66 µs here. Threads inherit the slack of the
/// thread that spawns them, so the generator tightens its own only after the
/// cluster under test exists. Failure is harmless: the generator's lateness
/// is reported either way.
pub fn tight_timer_slack(tight: bool) {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // 0 resets the slack to the thread's default.
        let slack_ns: std::ffi::c_ulong = if tight { 1 } else { 0 };
        // SAFETY: `prctl(PR_SET_TIMERSLACK, unsigned long)` reads its
        // argument by value and changes only this thread's timer slack; it
        // touches no memory of this process. The declaration matches libc's
        // variadic `int prctl(int, ...)`, and the argument has the type the
        // option expects.
        unsafe {
            prctl(PR_SET_TIMERSLACK, slack_ns);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn one_cpu_while_pinned_and_all_of_them_after() {
        let before = nproc();
        let pin = OneCpu::pin();
        assert_eq!(nproc(), 1);
        // Threads spawned meanwhile inherit the one CPU.
        assert_eq!(std::thread::spawn(nproc).join().unwrap(), 1);
        drop(pin);
        assert_eq!(nproc(), before);
    }
}
