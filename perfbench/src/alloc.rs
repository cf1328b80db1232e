//! A counting global allocator and a peak-memory probe.
//!
//! [`CountingAlloc`] forwards to the system allocator. While counting is
//! switched on for a thread ([`count`]), it tallies that thread's
//! allocations and requested bytes — exact, repeatable counts, since
//! the engine is deterministic given its seed. Only the benchmark binary
//! installs it as `#[global_allocator]`; elsewhere the counts stay 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether any thread may be counting: one relaxed load per allocation
/// when nobody is (it publishes no other data).
static ANY_COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator (see the module documentation).
pub struct CountingAlloc;

fn tally(bytes: usize) {
    if !ANY_COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // `try_with`: the thread-locals have no destructors and const
    // initialisers, so this neither allocates nor recurses; during
    // thread teardown it simply skips counting.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the tally touches only
// const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with this thread's allocations counted; returns its result
/// and the `(allocations, bytes)` it made.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ANY_COUNTING.store(true, Ordering::Relaxed);
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (result, a1 - a0, b1 - b0)
}

/// Peak resident memory of this process so far, in MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_self_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then 14 longs
/// starting with `ru_maxrss`.
#[cfg(target_os = "linux")]
#[repr(C)]
#[allow(dead_code)] // only `maxrss` is read; the rest fixes the layout
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident memory of the largest terminated, waited-for child
/// process (descendants included when every intermediate parent waited
/// for its own children), in MB; 0 when unavailable.
pub fn peak_rss_children_mb() -> f64 {
    #[cfg(target_os = "linux")]
    {
        const RUSAGE_CHILDREN: i32 = -1;
        let mut usage = RUsage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable `struct rusage` with Linux's
        // layout, and `getrusage` writes only within it.
        let status = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
        if status == 0 {
            return usage.maxrss as f64 / 1024.0;
        }
    }
    0.0
}
