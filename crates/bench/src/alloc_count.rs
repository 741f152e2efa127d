//! Counting global allocator (feature `alloc-count` only).
//!
//! A thin wrapper over [`std::alloc::System`] that counts every
//! allocation and requested byte with relaxed atomics, so the e2e
//! benchmark's traced run (`crates/bench/src/bin/e2e`, `--trace 1`) can
//! report *steady-state allocations per operation* for a whole
//! request/reply path — client encode, both socket ends, server decode,
//! verify, and reply, all threads included.
//!
//! This is the only module in the `proxy-bench` crate (and, with
//! `proxy-runtime`'s audited syscall shims, one of two places in the
//! workspace) that contains `unsafe` code. The audit argument is local
//! and total: every method delegates verbatim to `System`, which
//! carries the actual safety contract; the wrapper adds only two
//! relaxed atomic `fetch_add`s and never inspects or fabricates a
//! pointer. The module is feature-gated because a global allocator is
//! process-wide: regular test and bench binaries keep the plain system
//! allocator and the workspace-wide `forbid(unsafe_code)` posture.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative allocation calls (alloc + realloc + alloc_zeroed) since
/// process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Cumulative bytes requested by those calls.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Registered as `#[global_allocator]` by the
/// crate root when the `alloc-count` feature is on.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` impl upholds the contract; the atomic counters
// neither read nor write through any pointer.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller gave us, forwarded once.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller gave us, forwarded once.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (i.e. by System)
        // with this `layout`, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that grows is a fresh allocation from the hot path's
        // point of view: count it like one.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller guarantees `ptr`/`layout`
        // describe a live allocation from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
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
