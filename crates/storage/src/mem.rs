//! In-memory [`Storage`](crate::Storage): today's volatile behavior,
//! made explicit.
//!
//! A [`MemStorage`] keeps the record log and snapshot in process memory.
//! It exists for three reasons: netsim/bench determinism (no filesystem
//! in the timed path), as the semantic reference the WAL backend is
//! tested against, and for in-process "restart" tests — the store is
//! shared by `Arc`, so a test can drop a server and reopen a new one
//! from the same store, exercising the recovery path without touching
//! disk. Like a [`crate::WalStorage`], it is fail-stop: once its
//! injected crash point fires, every call but `load` refuses.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{Latch, Latched, Recovered, StorageError, Ticket};

#[derive(Debug, Default)]
struct MemInner {
    snapshot: Option<Vec<u8>>,
    records: Vec<Vec<u8>>,
    staged: u64,
    crash_after: Option<u64>,
}

/// An in-memory [`Storage`](crate::Storage) backend. Every staged record
/// is immediately "durable" (it lives exactly as long as the store).
#[derive(Debug, Default)]
pub struct MemStorage {
    inner: Mutex<MemInner>,
    /// The fail-stop latch, set (under `inner`'s lock) by the stage that
    /// fires the crash point. `wait_durable` reads it without the lock.
    latch: Latch,
}

impl MemStorage {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the injected crash point: the `n`-th staged record from now
    /// is recorded durably but its `stage` call returns
    /// [`StorageError::Crashed`], simulating a kill between the WAL
    /// append and the reply. At `n == 0` the next stage fails and
    /// records nothing. Either way the store latches: every later
    /// `stage`, `wait_durable` and `install_snapshot` returns `Crashed`,
    /// while `load` still returns what was recorded.
    pub fn crash_after_stages(&self, n: u64) {
        let mut inner = self.lock();
        let at = inner.staged.saturating_add(n);
        inner.crash_after = Some(at);
    }

    /// Number of records currently in the log (post-snapshot).
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.lock().records.len()
    }

    fn lock(&self) -> MutexGuard<'_, MemInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl crate::Backend for MemStorage {
    fn stage(&self, record: &[u8]) -> Latched<Ticket> {
        let mut inner = self.lock();
        self.latch.run(|| {
            if inner.crash_after == Some(inner.staged) {
                // Armed at `n == 0`: nothing is recorded.
                return Err(StorageError::Crashed);
            }
            inner.staged += 1;
            inner.records.push(record.to_vec());
            if inner.crash_after == Some(inner.staged) {
                // The record is in the log — the client just never hears
                // back. (Durable-then-dead, the exactly-once crash window.)
                return Err(StorageError::Crashed);
            }
            Ok(Ticket(inner.staged))
        })
    }

    fn wait_durable(&self, _ticket: Ticket) -> Latched<()> {
        self.latch.run(|| Ok(()))
    }

    fn install_snapshot(&self, state: &[u8]) -> Latched<()> {
        let mut inner = self.lock();
        self.latch.run(|| {
            // The buffer is reused: a fresh one of a snapshot's size
            // page-faults in on every install.
            let snapshot = inner.snapshot.get_or_insert_with(Vec::new);
            snapshot.clear();
            snapshot.extend_from_slice(state);
            inner.records.clear();
            Ok(())
        })
    }

    fn load(&self) -> Result<Recovered, StorageError> {
        let inner = self.lock();
        Ok(Recovered {
            snapshot: inner.snapshot.clone(),
            records: inner.records.clone(),
            torn_tail: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Storage;

    #[test]
    fn append_load_round_trip() {
        let s = MemStorage::new();
        s.append(b"one").unwrap();
        s.append(b"two").unwrap();
        let r = s.load().unwrap();
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(r.snapshot.is_none());
        assert!(!r.torn_tail);
    }

    #[test]
    fn snapshot_truncates_log() {
        let s = MemStorage::new();
        s.append(b"folded").unwrap();
        s.install_snapshot(b"state").unwrap();
        s.append(b"fresh").unwrap();
        let r = s.load().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"state".as_slice()));
        assert_eq!(r.records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn crash_point_records_then_reports_death() {
        let s = MemStorage::new();
        s.append(b"before").unwrap();
        s.crash_after_stages(1);
        // The doomed append: durable but unacknowledged.
        assert_eq!(s.append(b"doomed"), Err(StorageError::Crashed));
        // Everything after is gone with the process.
        assert_eq!(s.append(b"lost"), Err(StorageError::Crashed));
        let r = s.load().unwrap();
        assert_eq!(r.records, vec![b"before".to_vec(), b"doomed".to_vec()]);
    }

    #[test]
    fn crash_point_latches_every_call_but_load() {
        let s = MemStorage::new();
        let before = s.stage(b"before").unwrap();
        s.crash_after_stages(1);
        assert_eq!(s.stage(b"doomed"), Err(StorageError::Crashed));
        // A record staged before the crash is not acknowledged after it.
        assert_eq!(s.wait_durable(before), Err(StorageError::Crashed));
        assert_eq!(s.stage(b"lost"), Err(StorageError::Crashed));
        assert_eq!(s.install_snapshot(b"state"), Err(StorageError::Crashed));
        let r = s.load().unwrap();
        assert!(r.snapshot.is_none());
        assert_eq!(r.records, vec![b"before".to_vec(), b"doomed".to_vec()]);
    }

    #[test]
    fn crash_point_at_zero_refuses_the_next_stage_unrecorded() {
        let s = MemStorage::new();
        s.append(b"before").unwrap();
        s.crash_after_stages(0);
        assert_eq!(s.stage(b"never"), Err(StorageError::Crashed));
        assert_eq!(s.record_count(), 1);
        assert_eq!(s.wait_durable(Ticket(1)), Err(StorageError::Crashed));
    }

    /// The former L6 fixture `l6_blocking_under_shard_guard`: a durable
    /// wait inside a `ShardMap` closure trips the lock-rank witness.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Storage::wait_durable entered holding")]
    fn a_durable_wait_under_a_shard_guard_trips_the_witness() {
        use restricted_proxy::shard::ShardMap;
        let store = MemStorage::new();
        let ticket = store.stage(b"record").unwrap();
        let accounts: ShardMap<u64, u64> = ShardMap::new();
        accounts.insert(1, 0);
        accounts.update(&1, |_| store.wait_durable(ticket)).unwrap();
    }
}
