//! Host-cost probes taken from outside the program: process CPU time,
//! context switches and peak resident memory (`getrusage`; its `ru_maxrss`
//! is the high-water mark `/proc/self/status` shows as `VmHWM`) and
//! per-thread CPU time (`clock_gettime`).
//!
//! The declarations are local `extern "C"` items against the C library the
//! standard library already links, so no crate is added. The struct layouts
//! are those of 64-bit Linux.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench's host probes assume 64-bit Linux struct layouts");

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage_self() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a writable, properly aligned `struct rusage` for
    // 64-bit Linux (checked by the `compile_error!` above), which is all
    // getrusage(2) writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with valid args");
    r
}
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Process-wide CPU time and context switches at one instant.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub vol_ctx_switches: u64,
    pub invol_ctx_switches: u64,
}

impl Usage {
    /// `getrusage(RUSAGE_SELF)`: every thread of the process, live or joined.
    pub fn now() -> Usage {
        let r = rusage_self();
        let tv = |t: Timeval| Duration::new(t.sec as u64, (t.usec * 1000) as u32);
        Usage {
            user: tv(r.utime),
            sys: tv(r.stime),
            vol_ctx_switches: r.nvcsw as u64,
            invol_ctx_switches: r.nivcsw as u64,
        }
    }

    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }
}

/// CPU time consumed so far by the calling thread, in nanoseconds. Unlike
/// wall-clock, it excludes the turns other ranks take while this rank is
/// parked by the deterministic scheduler.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a writable `struct timespec` for 64-bit Linux, the
    // only thing clock_gettime(2) writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage_self().maxrss as f64 / 1024.0
}
