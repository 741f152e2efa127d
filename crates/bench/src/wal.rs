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
pub const REQUIRED_SPEEDUP: f64 = 3.0;

/// One set-up of the sweep and its best round.
#[derive(Clone, Copy, Debug)]
pub struct AppendRow {
    /// The series name `figures --wal` prints.
    pub series: &'static str,
    /// Concurrent writer threads.
    pub writers: usize,
    /// Best-round sustained appends per second across all writers.
    pub ops_per_sec: f64,
}

/// Everything the harness measured.
#[derive(Clone, Debug)]
pub struct WalReport {
    /// Hardware threads the host exposes (context for readers).
    pub host_parallelism: usize,
    /// In sweep order: the in-memory backend (ordering only, the
    /// ceiling); the WAL without fsync (the write path alone); the
    /// group-commit WAL under one writer (one write + fsync per record)
    /// and under all of them (the contended durable fast path).
    pub rows: [AppendRow; 4],
}

impl WalReport {
    /// All writers over the lone writer, both on the group-commit store.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.rows[3].ops_per_sec / self.rows[2].ops_per_sec
    }

    /// Asserts the amortization gate.
    ///
    /// # Panics
    ///
    /// When group commit falls short of [`REQUIRED_SPEEDUP`].
    pub fn check_gates(&self) {
        assert!(
            self.speedup() >= REQUIRED_SPEEDUP,
            "group-commit fsync batching regressed: {:.2}x over a lone writer's \
             fsync-per-record (required >= {REQUIRED_SPEEDUP:.1}x)",
            self.speedup(),
        );
    }
}

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

/// The append sweep, interleaved per round.
fn sweep(threads: usize, per_thread: usize, record_bytes: usize, rounds: usize) -> WalReport {
    let record = vec![0xA5u8; record_bytes];
    let open = |dir: &Scratch, fsync| WalStorage::open(&dir.0, WalOptions { fsync }).expect("open");
    let mut rows = [
        ("append-mem", threads),
        ("append-wal-nofsync", threads),
        ("append-wal-lone-writer", 1),
        ("append-wal-group-commit", threads),
    ]
    .map(|(series, writers)| AppendRow {
        series,
        writers,
        ops_per_sec: 0.0,
    });
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
            let each = threads * per_thread / row.writers;
            row.ops_per_sec = row
                .ops_per_sec
                .max(append_round(store, row.writers, each, &record));
        }
    }
    WalReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        rows,
    }
}

/// Runs the harness. The caller applies the gate via
/// [`WalReport::check_gates`].
#[must_use]
pub fn run() -> WalReport {
    sweep(THREADS, APPENDS_PER_THREAD, RECORD_BYTES, ROUNDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_measures_every_row() {
        let report = sweep(2, 20, 64, 1);
        assert_eq!(report.rows.map(|row| row.writers), [2, 2, 1, 2]);
        assert!(report.rows.iter().all(|row| row.ops_per_sec > 0.0));
        assert!(report.speedup() > 0.0);
    }
}
