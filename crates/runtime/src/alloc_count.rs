//! Counting global allocator, for the e2e benchmark's traced run.
//!
//! A thin wrapper over [`std::alloc::System`] that counts every
//! allocation and requested byte with relaxed atomics, so the e2e
//! benchmark's traced run (`crates/bench/src/bin/e2e`, `--trace 1`) can
//! report *steady-state allocations per operation* for a whole
//! request/reply path — client encode, both socket ends, server decode,
//! verify, and reply, all threads included.
//!
//! Defining the type registers nothing: `proxy-bench` installs it as
//! the `#[global_allocator]` only under its `alloc-count` feature (and
//! re-exports this module as `proxy_bench::alloc_count`), because a
//! global allocator is process-wide — every other binary keeps the
//! plain system allocator.
//!
//! The second module of this crate that contains `unsafe` code, beside
//! [`crate::sys`]: two blocks. The audit argument is local and total:
//! `alloc` and `dealloc` delegate verbatim to `System`, which carries
//! the actual safety contract, and the wrapper adds only two relaxed
//! atomic `fetch_add`s and never inspects or fabricates a pointer.
//! `alloc_zeroed` and `realloc` are `GlobalAlloc`'s provided methods,
//! which allocate through `alloc`: a zeroed allocation or a realloc
//! counts once, with the bytes it asks for.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative allocation calls (alloc, and the realloc and
/// alloc_zeroed that go through it) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes requested by those calls.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. `proxy-bench` registers it as
/// `#[global_allocator]` when its `alloc-count` feature is on.
pub struct CountingAlloc;

// SAFETY: both methods forward their arguments unchanged to `System`,
// whose `GlobalAlloc` impl upholds the contract; the atomic counters
// neither read nor write through any pointer. The provided
// `alloc_zeroed` and `realloc` build on these two.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller gave us, forwarded once.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (i.e. by System)
        // with this `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A point-in-time reading of the process-wide counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    /// Allocation calls so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Reads the counters. Subtract two snapshots to attribute allocations
/// to the work between them (all threads included).
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}
