//! Host-side probes: the client thread's CPU clock, worker-thread CPU from
//! `/proc/self/task/*/schedstat`, `/proc/self/io` counters, VmRSS, and a
//! counting global allocator for live heap bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// Wraps the system allocator and keeps a running count of live heap
/// bytes, so "bytes retained per swap" is the heap growth of the measured
/// phase rather than an RSS figure that depends on what earlier trials in
/// the same process already faulted in.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter update touches only an
// atomic and never the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        out
    }
}

/// Live heap bytes right now.
pub fn live_heap_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Sum of on-CPU time (seconds) of every thread of this process except
/// the calling client thread: the worker pool's busy time, read from
/// `/proc/self/task/*/schedstat` (first field, nanoseconds).
pub fn worker_cpu_s() -> f64 {
    let me = client_tid();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        if task.file_name().to_string_lossy() == me {
            continue;
        }
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        }
    }
    ns as f64 * 1e-9
}

/// The calling thread's kernel thread id, as the name of its
/// `/proc/self/task` entry.
fn client_tid() -> String {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_default()
}

/// `/proc/self/io` write counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Bytes passed to `write`-family system calls.
    pub wchar: u64,
    /// `write`-family system calls.
    pub syscw: u64,
}

/// Reads the process's `/proc/self/io` write counters (zero if the file is
/// unreadable).
pub fn io_counters() -> IoCounters {
    let mut out = IoCounters::default();
    if let Ok(text) = std::fs::read_to_string("/proc/self/io") {
        for line in text.lines() {
            let mut parts = line.split(':');
            let (Some(key), Some(value)) = (parts.next(), parts.next()) else { continue };
            let value = value.trim().parse().unwrap_or(0);
            match key {
                "wchar" => out.wchar = value,
                "syscw" => out.syscw = value,
                _ => {}
            }
        }
    }
    out
}

/// Resident set size in bytes (VmRSS from `/proc/self/status`).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<u64>().ok()))
        })
        .map_or(0, |kb| kb * 1024)
}

/// Everything read at a phase boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Host instant.
    pub at: Instant,
    /// Client-thread CPU seconds.
    pub client_cpu: f64,
    /// Worker-thread CPU seconds.
    pub worker_cpu: f64,
    /// Live heap bytes.
    pub heap: i64,
    /// Resident set size.
    pub rss: u64,
    /// `/proc/self/io` write counters.
    pub io: IoCounters,
}

impl Mark {
    /// Reads every probe, then the clocks: the mark that opens a phase,
    /// so the probes' own cost falls before it.
    pub fn start() -> Mark {
        let (worker_cpu, io, rss) = (worker_cpu_s(), io_counters(), rss_bytes());
        let heap = live_heap_bytes();
        Mark { client_cpu: thread_cpu_s(), at: Instant::now(), worker_cpu, heap, rss, io }
    }

    /// Reads the clocks, then every probe: the mark that closes a phase.
    pub fn end() -> Mark {
        let (at, client_cpu, heap) = (Instant::now(), thread_cpu_s(), live_heap_bytes());
        Mark {
            at,
            client_cpu,
            heap,
            worker_cpu: worker_cpu_s(),
            io: io_counters(),
            rss: rss_bytes(),
        }
    }
}
