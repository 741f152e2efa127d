//! Durable-journal harness (DESIGN.md §15): what does durability cost,
//! and how much of it does group commit buy back?
//!
//! **Append amortization** — stage-and-wait of 256-byte records against
//! four set-ups: in-memory, WAL without fsync, and the group-commit WAL
//! driven by one writer and by 16. A lone writer over the group-commit
//! store *is* the fsync-per-record baseline by construction: a leader
//! alone in the buffer flushes at once, so every record pays its own
//! write + fsync. The gate: 16 concurrent writers must deliver at least
//! 3× the lone writer's throughput. The fsync itself is the honest
//! price of durability; the batcher's job is to spread one platter
//! flush over a whole convoy of writers.
//!
//! What durability costs a whole deposit is the repository benchmark's
//! business (`BENCHMARK.json` `fig5_mem`, and `fig5_wal` by hand; see
//! `crates/bench/src/bin/e2e/README.md`), not this harness's.
//!
//! Timing uses min-of-rounds with the variants interleaved inside each
//! round (the `ablate-crypto` discipline), so shared-host noise cancels
//! out of the ratio the gate checks.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use proxy_storage::{FsyncMode, MemStorage, Storage, WalOptions, WalStorage};

use crate::{host_parallelism, value_of, Row};

/// Writer threads in the contended rows.
const THREADS: usize = 16;
/// Records each of them appends per round.
const APPENDS_PER_THREAD: usize = 150;
/// Payload bytes per appended record.
const RECORD_BYTES: usize = 256;
/// Interleaved rounds; every variant keeps its fastest.
const ROUNDS: usize = 4;
/// Required speedup of 16 writers over one on the group-commit store:
/// low enough that a noisy shared host cannot flake the build, while a
/// real regression (group commit degrading toward one fsync per record)
/// still trips it.
const REQUIRED_SPEEDUP: f64 = 3.0;

/// A unique scratch directory for one WAL instance, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "proxy-aa-walbench-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One timed round: `threads` writers each stage-and-wait `per_thread`
/// records against `store`. Returns sustained total appends/s.
fn append_round(store: &dyn Storage, threads: usize, per_thread: usize, record: &[u8]) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                for _ in 0..per_thread {
                    let ticket = store.stage(record).expect("stage");
                    store.wait_durable(ticket).expect("durable");
                }
            });
        }
    });
    let total = (threads * per_thread) as f64;
    total / started.elapsed().as_secs_f64()
}

/// The append sweep, interleaved per round, in sweep order: the
/// in-memory backend (ordering only, the ceiling); the WAL without fsync
/// (the write path alone); the group-commit WAL under one writer (one
/// write + fsync per record) and under all of them (the contended
/// durable fast path); then `group-commit-speedup`, the last over the
/// one before, and `host-parallelism`. `x` is the number of writers.
fn sweep(threads: usize, per_thread: usize, record_bytes: usize, rounds: usize) -> Vec<Row> {
    let record = vec![0xA5u8; record_bytes];
    let open = |dir: &Scratch, fsync| WalStorage::open(&dir.0, WalOptions { fsync }).expect("open");
    let mut rows = [
        ("append-mem", threads),
        ("append-wal-nofsync", threads),
        ("append-wal-lone-writer", 1),
        ("append-wal-group-commit", threads),
    ]
    .map(|(series, writers)| Row::new("W", series, writers as u64, 0.0, "ops/s"));
    for _ in 0..rounds {
        // Fresh stores (and scratch dirs) each round: every variant
        // starts from an empty log, so file length never favors the
        // later rounds.
        let dirs = [Scratch::new(), Scratch::new(), Scratch::new()];
        let mem = MemStorage::new();
        let no_fsync = open(&dirs[0], FsyncMode::NoFsync);
        let lone = open(&dirs[1], FsyncMode::GroupCommit);
        let group = open(&dirs[2], FsyncMode::GroupCommit);
        let stores: [&dyn Storage; 4] = [&mem, &no_fsync, &lone, &group];
        for (row, store) in rows.iter_mut().zip(stores) {
            // Every log grows to the same length: the lone writer
            // appends all the records itself.
            let writers = row.x as usize;
            let each = threads * per_thread / writers;
            row.value = row.value.max(append_round(store, writers, each, &record));
        }
    }
    let (speedup, x) = (rows[3].value / rows[2].value, threads as u64);
    let mut rows = rows.to_vec();
    rows.push(Row::new("W", "group-commit-speedup", x, speedup, "x"));
    rows.push(host_parallelism("W"));
    rows
}

/// Runs the harness, prints its rows and asserts its gate: 16 writers
/// on the group-commit store at least 3× (`REQUIRED_SPEEDUP`) a lone
/// one.
///
/// # Panics
///
/// When group commit falls short of the gate.
pub fn run() -> Vec<Row> {
    let rows = sweep(THREADS, APPENDS_PER_THREAD, RECORD_BYTES, ROUNDS);
    rows.iter().for_each(Row::print);
    let speedup = value_of(&rows, "group-commit-speedup");
    assert!(
        speedup >= REQUIRED_SPEEDUP,
        "group-commit fsync batching regressed: {speedup:.2}x over a lone writer's \
         fsync-per-record (required >= {REQUIRED_SPEEDUP:.1}x)",
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_every_row() {
        let rows = sweep(2, 20, 64, 1);
        let writers: Vec<u64> = rows.iter().map(|row| row.x).collect();
        assert_eq!(writers, [2, 2, 1, 2, 2, 1]);
        assert!(rows.iter().all(|row| row.value > 0.0));
    }
}
