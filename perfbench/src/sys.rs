//! Process resources read from procfs, and the allocation counter the
//! traced run switches on.
//!
//! CPU time comes from the `utime` + `stime` fields of `/proc/self/stat`,
//! which cover every thread of the process, threads that have already
//! exited included, so a solve's CPU counts its worker and socket
//! threads. Linux reports those fields in `USER_HZ` ticks, which is 100
//! per second on every architecture the kernel exports to user space;
//! the resolution is therefore 10 ms. Peak memory is `VmHWM` from
//! `/proc/self/status`.
//!
//! `/proc/self/io` is deliberately not read: its `syscr`/`syscw`
//! counters count `read`/`write` system calls only, while Rust's
//! `TcpStream` uses `send`/`recv`. Across a 420-round tcp:2 APSP solve
//! they moved by 13 and 1, and say nothing about socket traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const USER_HZ: f64 = 100.0;

fn stat_cpu_s(path: &str) -> f64 {
    let text = std::fs::read_to_string(path).expect("procfs stat is readable");
    // Fields after the parenthesised command name, starting at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &text[text.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / USER_HZ
}

/// User + system CPU seconds of the whole process so far.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// User + system CPU seconds of the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("procfs status is readable");
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Counts heap allocations (`alloc`, `alloc_zeroed`, `realloc`) once
/// [`start_counting`] has been called; until then a pass-through to
/// [`System`]. The benchmark binary is the only user, and this is its
/// only `unsafe`.
pub struct CountingAlloc;

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) && !EXEMPT.try_with(Cell::get).unwrap_or(true) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The added bookkeeping is a relaxed
// atomic increment and a read of a const-initialised, destructor-free
// thread-local; neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Switch allocation counting on, for the rest of the (traced) run.
pub fn start_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Leave the calling thread's allocations out of the count, or count
/// them again (the update writer of `serve_swap`, whose recompute is not
/// query work).
pub fn set_exempt(on: bool) {
    EXEMPT.with(|e| e.set(on));
}
