//! The operating-system calls the benchmark needs that `std` does not
//! offer: CPU-time clocks, a lower scheduling class for the server, and
//! the process's resident set size.

/// Reads a CPU-time clock, ns.
fn cpu_clock_ns(clock: i32) -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return None;
    }
    Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// User + system CPU time of the whole process so far, ms
/// (`CLOCK_PROCESS_CPUTIME_ID`: every thread, ns resolution).
pub fn cpu_ms() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID).map_or(f64::NAN, |ns| ns as f64 / 1e6)
}

/// CPU time of the calling thread so far, ns (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID).unwrap_or(0)
}

/// Moves the calling thread to `SCHED_IDLE`; threads it spawns inherit
/// the policy. An idle-policy thread is preempted as soon as a normal
/// thread wakes, so a server started from such a thread never delays the
/// generator's sends, yet still gets every cycle the generator leaves.
/// Lowering priority needs no privilege; if the call fails anyway the
/// server simply runs at the generator's priority.
pub fn lower_priority() {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` that outlives the
    // call, which only reads it; pid 0 names the calling thread.
    let _ = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .strip_prefix(':')?
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resident set size of the process now (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Peak resident set size (`VmHWM`) since the process started or since
/// the last [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Resets the process's peak resident set size to its current one
/// (writes `5` to `/proc/self/clear_refs`, Linux 4.0 and later).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", b"5")
}
