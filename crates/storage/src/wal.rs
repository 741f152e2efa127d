//! The durable [`Storage`](crate::Storage) backend: an append-only,
//! CRC-framed write-ahead log with group-commit fsync and snapshot
//! rotation.
//!
//! ## On-disk layout
//!
//! A store is a directory holding one *generation* of files:
//!
//! ```text
//! wal.<gen>    append-only record log (frames, see crate::log)
//! snap.<gen>   compacted snapshot: one frame holding the state blob
//! ```
//!
//! [`Storage::install_snapshot`](crate::Storage::install_snapshot)
//! rotates generations: it writes `snap.<gen+1>.tmp`, fsyncs,
//! atomically renames it to `snap.<gen+1>` (the commit point), fsyncs
//! the directory, creates an empty
//! `wal.<gen+1>`, and only then deletes the old generation. Recovery
//! after a crash at *any* point in that sequence converges: the current
//! generation is the highest `snap.<g>` on disk (generation 0 has no
//! snapshot), a missing `wal.<g>` is an empty log, and every other file
//! — `.tmp` residue, superseded generations — is deleted at open.
//!
//! ## Group-commit fsync
//!
//! [`Storage::stage`](crate::Storage::stage) only frames the record into a memory buffer and
//! hands out a ticket; the device is touched in
//! [`Storage::wait_durable`](crate::Storage::wait_durable) (and [`Storage::install_snapshot`](crate::Storage::install_snapshot)), never
//! under a caller's lock. `fsync` dominates the append path (~100µs+ on
//! common filesystems), so the waiters amortize it with a
//! leader/follower protocol over that buffer: the first waiter that
//! finds the flush slot free becomes the **leader**, takes everything
//! staged so far and flushes it under one fsync. Whatever is staged
//! while that fsync runs is the next leader's batch, so the batch is as
//! large as the traffic makes it and a lone writer pays one fsync per
//! record, with nothing waited for. **Followers** park until the leader
//! publishes. A follower sleeps only while its own ticket is not yet
//! durable *and* a flush is running: waiting on the flush alone would
//! leave a follower that the last flush already covered asleep behind
//! the next leader's fsync. No timer backs this up: the slot is freed
//! only by the publish that ends a flush, and that publish wakes every
//! waiter.
//!
//! ## Failure policy
//!
//! Torn tails at open — the residue of dying between `write` and `fsync`
//! — are truncated (the torn record was never acknowledged durable).
//! Any structurally complete defect is [`StorageError::Corrupt`],
//! fail-closed at the exact record. After any I/O failure the store
//! *poisons*: every later call returns the original error, so a durable
//! server stops rather than diverge from its log (fail-stop).

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use restricted_proxy::encode::Bounded;
use restricted_proxy::shard::rank;

use crate::log::{frame_into, scan_segment};
use crate::{CorruptKind, Latch, Latched, Recovered, StorageError, Ticket};

/// Whether a flush must actually reach the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// Never fsync: durability limited to OS page-cache survival. The
    /// honest upper bound for WAL throughput (write cost, no flush),
    /// and what tests of ordering and recovery run on.
    NoFsync,
    /// Batched fsync via the leader/follower protocol (module docs).
    #[default]
    GroupCommit,
}

/// Tuning for [`WalStorage`].
#[derive(Debug, Clone, Default)]
pub struct WalOptions {
    /// Durability policy for flushed batches.
    pub fsync: FsyncMode,
}

/// Mutable append state, under one lock. The file handle lives in a
/// separate lock ([`WalFile`]) so the leader can write and fsync without
/// blocking staging; lock order is state → file, never the reverse.
#[derive(Debug, Default)]
struct WalState {
    /// Framed records staged but not yet written.
    buf: Vec<u8>,
    /// Tickets issued.
    staged: u64,
    /// Highest ticket durable under the store's fsync policy.
    durable: u64,
    /// A leader (or snapshot installer) currently owns the file.
    flushing: bool,
    /// Injected crash points (tests): absolute ticket numbers.
    crash_after: Option<u64>,
    crash_before: Option<u64>,
}

#[derive(Debug)]
struct WalFile {
    file: File,
    gen: u64,
}

/// The write-ahead-log [`Storage`](crate::Storage) backend; see the
/// module docs.
#[derive(Debug)]
pub struct WalStorage {
    dir: PathBuf,
    opts: WalOptions,
    state: Mutex<WalState>,
    /// First failure; once set, every call returns it (fail-stop). Set
    /// only under the `state` lock, which the followers' wait reads it
    /// under, and followed by a wake of `completed`.
    latch: Latch,
    /// Wakes followers when a flush publishes.
    completed: Condvar,
    file: Mutex<WalFile>,
    /// A torn tail was found (and truncated) when this store opened.
    torn_at_open: bool,
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> StorageError {
    move |e| StorageError::Io {
        op,
        detail: e.to_string(),
    }
}

fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal.{gen}"))
}

fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap.{gen}"))
}

/// Fsyncs the directory itself so renames/creates/unlinks are durable.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_err("directory fsync"))
}

/// Parses `prefix.<gen>` file names.
fn parse_gen(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

impl WalStorage {
    /// Opens (creating if needed) the store rooted at `dir`, recovering
    /// from any crash state: `.tmp` residue and superseded generations
    /// are deleted, a torn log tail is truncated, and a structurally
    /// corrupt log refuses to open.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failure;
    /// [`StorageError::Corrupt`] (fail-closed) when the surviving log or
    /// snapshot fails its integrity scan.
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> Result<Self, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err("create storage dir"))?;

        // Inventory the directory: the current generation is the highest
        // committed snapshot (the rename is the commit point); with no
        // snapshot yet we are still in generation 0.
        let mut snaps: Vec<u64> = Vec::new();
        let mut wals: Vec<u64> = Vec::new();
        let mut stale: Vec<PathBuf> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(io_err("list storage dir"))?;
        for entry in entries {
            let entry = entry.map_err(io_err("list storage dir"))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                stale.push(entry.path());
            } else if let Some(g) = parse_gen(name, "snap.") {
                snaps.push(g);
            } else if let Some(g) = parse_gen(name, "wal.") {
                wals.push(g);
            }
        }
        let gen = snaps.iter().copied().max().unwrap_or(0);
        for g in snaps {
            if g != gen {
                stale.push(snap_path(&dir, g));
            }
        }
        for g in wals {
            if g != gen {
                stale.push(wal_path(&dir, g));
            }
        }
        let had_stale = !stale.is_empty();
        for path in stale {
            fs::remove_file(&path).map_err(io_err("remove stale file"))?;
        }
        if had_stale {
            sync_dir(&dir)?;
        }

        // Open the current log, scanning it now so a torn tail is
        // truncated before anything is appended after it.
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(wal_path(&dir, gen))
            .map_err(io_err("open wal"))?;
        let mut bytes = Vec::new();
        (&file)
            .read_to_end(&mut bytes)
            .map_err(io_err("read wal"))?;
        let scan = scan_segment(&bytes)?;
        if scan.torn_tail {
            file.set_len(scan.valid_len)
                .map_err(io_err("truncate torn tail"))?;
            file.sync_data().map_err(io_err("wal fsync"))?;
        }

        Ok(Self {
            dir,
            opts,
            state: Mutex::new(WalState::default()),
            latch: Latch::default(),
            completed: Condvar::new(),
            file: Mutex::new(WalFile { file, gen }),
            torn_at_open: scan.torn_tail,
        })
    }

    /// The generation currently live (increments per installed
    /// snapshot); exposed for rotation tests.
    #[must_use]
    pub fn current_gen(&self) -> u64 {
        self.file_guard().gen
    }

    /// Arms the injected crash point: the `n`-th record staged from now
    /// is made durable, but the flush that covers it — and every call
    /// after — returns [`StorageError::Crashed`], and nothing can be
    /// staged behind it. Models a kill between the WAL append and the
    /// client reply.
    pub fn crash_after_appends(&self, n: u64) {
        let mut st = self.state_guard();
        st.crash_after = Some(st.staged.saturating_add(n));
    }

    /// Arms the other side of the crash window: the `n`-th record staged
    /// from now is **not** written at all before the simulated death.
    pub fn crash_before_appends(&self, n: u64) {
        let mut st = self.state_guard();
        st.crash_before = Some(st.staged.saturating_add(n));
    }

    /// The state carries monotone counters and a byte buffer with no
    /// cross-field invariant a panic could tear; recover a poisoned lock
    /// rather than wedging every worker. (I/O failures have their own
    /// fail-stop latch, `WalStorage::latch`.)
    fn state_guard(&self) -> MutexGuard<'_, WalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn file_guard(&self) -> MutexGuard<'_, WalFile> {
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes (and per policy fsyncs) one taken batch. Called with the
    /// state lock *released*; state → file is the only lock order used.
    fn write_batch(&self, batch: &[u8]) -> Result<(), StorageError> {
        rank::assert_unheld("the WAL leader's flush");
        if batch.is_empty() {
            return Ok(());
        }
        let wf = self.file_guard();
        (&wf.file).write_all(batch).map_err(io_err("wal append"))?;
        if self.opts.fsync != FsyncMode::NoFsync {
            wf.file.sync_data().map_err(io_err("wal fsync"))?;
        }
        Ok(())
    }

    /// Publishes the outcome of a flush (a leader's batch or a snapshot
    /// rotation) that covered every ticket up to `upto`, and frees the
    /// flush slot. A flush that covered the record doomed by
    /// [`Self::crash_after_appends`] did make it durable — and is where
    /// the store "dies": nothing it covered may be acknowledged.
    fn publish(&self, upto: u64, res: Result<(), StorageError>) -> MutexGuard<'_, WalState> {
        let mut st = self.state_guard();
        st.flushing = false;
        let crashed = st.crash_after.is_some_and(|at| upto >= at);
        let published = self.latch.run(|| match res {
            Ok(()) if crashed => Err(StorageError::Crashed),
            other => other,
        });
        if published.into_result().is_ok() {
            st.durable = st.durable.max(upto);
        }
        self.completed.notify_all();
        st
    }
}

impl crate::Backend for WalStorage {
    fn stage(&self, record: &[u8]) -> Latched<Ticket> {
        let mut st = self.state_guard();
        self.latch.run(|| {
            let ticket = st.staged + 1;
            if st.crash_before.is_some_and(|at| ticket >= at) {
                // Died before the write hit the log: the record is simply
                // gone, and so (fail-stop) is the server. The latch is set
                // before this lock is released: the wake reaches followers
                // that will see it.
                self.completed.notify_all();
                return Err(StorageError::Crashed);
            }
            st.staged = ticket;
            if st.crash_after.is_some_and(|at| ticket > at) {
                // Behind the doomed record: staged in memory only, and
                // lost with the process when the flush that covers the
                // doomed record dies (`publish`), which its wait then
                // reports. Refusing here would latch the store before
                // that flush made the doomed record durable.
                return Ok(Ticket(ticket));
            }
            frame_into(&mut st.buf, record)?;
            Ok(Ticket(ticket))
        })
    }

    fn wait_durable(&self, ticket: Ticket) -> Latched<()> {
        let mut st = self.state_guard();
        self.latch.run(move || loop {
            // Even if the record itself reached the platter, a latched
            // store is dead: no acknowledgement may go out.
            self.latch.check()?;
            if st.durable >= ticket.0 {
                return Ok(());
            }
            if !st.flushing {
                // Lead: flush everything staged so far.
                st.flushing = true;
                let batch = std::mem::take(&mut st.buf);
                let upto = st.staged;
                drop(st);
                st = self.publish(upto, self.write_batch(&batch));
                continue;
            }
            // Follow: park until the running flush publishes, or until a
            // failure latches; the flush that ends may cover this ticket.
            st = self
                .completed
                .wait_while(st, |st| {
                    st.durable < ticket.0 && st.flushing && self.latch.check().is_ok()
                })
                .unwrap_or_else(PoisonError::into_inner);
        })
    }

    fn install_snapshot(&self, state: &[u8]) -> Latched<()> {
        self.latch.run(|| {
            // Claim the flush slot so no leader owns the file mid-rotation.
            let mut st = self
                .completed
                .wait_while(self.state_guard(), |st| {
                    st.flushing && self.latch.check().is_ok()
                })
                .unwrap_or_else(PoisonError::into_inner);
            self.latch.check()?;
            st.flushing = true;
            let pending = std::mem::take(&mut st.buf);
            let upto = st.staged;
            drop(st);

            // Every record staged so far is either folded into the
            // snapshot or (the pending tail) flushed by the rotation.
            drop(self.publish(upto, self.rotate(state, &pending)));
            self.latch.check()
        })
    }

    fn load(&self) -> Result<Recovered, StorageError> {
        let wf = self.file_guard();
        let snap = snap_path(&self.dir, wf.gen);
        let snapshot = match fs::read(&snap) {
            Ok(bytes) => {
                let scan = scan_segment(&bytes)?;
                if scan.torn_tail || scan.records.len() != 1 {
                    return Err(StorageError::Corrupt {
                        record: 0,
                        offset: 0,
                        reason: CorruptKind::BadSnapshot,
                    });
                }
                scan.records.into_iter().next()
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read snapshot")(e)),
        };
        let mut bytes = Vec::new();
        (&wf.file)
            .seek(SeekFrom::Start(0))
            .map_err(io_err("seek wal"))?;
        (&wf.file)
            .read_to_end(&mut bytes)
            .map_err(io_err("read wal"))?;
        let scan = scan_segment(&bytes)?;
        if scan.torn_tail {
            // Appends since open are whole frames; a torn tail here
            // means the file changed under us.
            return Err(StorageError::Corrupt {
                record: scan.records.len() as u64,
                offset: scan.valid_len,
                reason: CorruptKind::BadSnapshot,
            });
        }
        Ok(Recovered {
            snapshot,
            records: scan.records,
            torn_tail: self.torn_at_open,
        })
    }
}

impl WalStorage {
    /// The rotation sequence (module docs): complete the old log, commit
    /// the new snapshot by atomic rename, open the next log, then retire
    /// the old generation. A crash anywhere in here is recovered by
    /// [`WalStorage::open`].
    fn rotate(&self, state: &[u8], pending: &[u8]) -> Result<(), StorageError> {
        let mut wf = self.file_guard();
        // Leave the old generation internally consistent first: if the
        // rotation dies before its commit point, recovery falls back to
        // the old snapshot + a complete old log.
        if !pending.is_empty() {
            (&wf.file)
                .write_all(pending)
                .map_err(io_err("wal append"))?;
            wf.file.sync_data().map_err(io_err("wal fsync"))?;
        }

        let next = wf.gen + 1;
        let mut framed = Bounded::len_of(state)
            .plus(Bounded::fixed::<{ crate::log::FRAME_HEADER }>())
            .vec();
        frame_into(&mut framed, state)?;
        let tmp = self.dir.join(format!("snap.{next}.tmp"));
        let mut f = File::create(&tmp).map_err(io_err("create snapshot tmp"))?;
        f.write_all(&framed).map_err(io_err("write snapshot"))?;
        f.sync_data().map_err(io_err("snapshot fsync"))?;
        drop(f);
        // Commit point: after this rename (made durable by the directory
        // fsync) recovery selects generation `next`.
        fs::rename(&tmp, snap_path(&self.dir, next)).map_err(io_err("commit snapshot"))?;
        sync_dir(&self.dir)?;

        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(wal_path(&self.dir, next))
            .map_err(io_err("open wal"))?;
        file.sync_data().map_err(io_err("wal fsync"))?;
        sync_dir(&self.dir)?;

        let old = wf.gen;
        wf.file = file;
        wf.gen = next;
        drop(wf);

        // Retiring the old generation is not load-bearing: open()
        // deletes superseded files, so a failure here only wastes disk.
        let _ = fs::remove_file(wal_path(&self.dir, old));
        let _ = fs::remove_file(snap_path(&self.dir, old));
        let _ = sync_dir(&self.dir);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Storage, MAX_RECORD};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let p = std::env::temp_dir().join(format!(
            "proxy-storage-wal-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn no_fsync() -> WalOptions {
        // Unit tests exercise logic, not the platter.
        WalOptions {
            fsync: FsyncMode::NoFsync,
        }
    }

    #[test]
    fn reopen_round_trip() {
        let dir = tmpdir("reopen");
        {
            let w = WalStorage::open(&dir, no_fsync()).unwrap();
            w.append(b"a").unwrap();
            w.append(b"bb").unwrap();
            w.append(b"ccc").unwrap();
        }
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        let r = w.load().unwrap();
        assert_eq!(
            r.records,
            vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]
        );
        assert!(r.snapshot.is_none());
        assert!(!r.torn_tail);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = tmpdir("torn");
        {
            let w = WalStorage::open(&dir, no_fsync()).unwrap();
            w.append(b"whole-1").unwrap();
            w.append(b"whole-2").unwrap();
        }
        // Simulate a crash mid-append: half a frame at the tail.
        let mut tail = Vec::new();
        frame_into(&mut tail, b"torn-by-the-crash").unwrap();
        tail.truncate(tail.len() - 7);
        let path = wal_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&tail).unwrap();
        drop(f);

        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        let r = w.load().unwrap();
        assert_eq!(r.records, vec![b"whole-1".to_vec(), b"whole-2".to_vec()]);
        assert!(r.torn_tail, "the truncated tail must be reported");
        // The tail is gone from disk: appending and reopening is clean.
        w.append(b"after-recovery").unwrap();
        drop(w);
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        let r = w.load().unwrap();
        assert_eq!(r.records.len(), 3);
        assert!(!r.torn_tail);
    }

    #[test]
    fn bit_flip_refuses_to_open_at_exact_record() {
        let dir = tmpdir("flip");
        {
            let w = WalStorage::open(&dir, no_fsync()).unwrap();
            w.append(b"first").unwrap();
            w.append(b"second").unwrap();
            w.append(b"third").unwrap();
        }
        let path = wal_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit inside record 1's payload.
        let r1 = crate::log::FRAME_HEADER + 5;
        bytes[r1 + crate::log::FRAME_HEADER + 1] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let err = WalStorage::open(&dir, no_fsync()).expect_err("must fail closed");
        assert_eq!(
            err,
            StorageError::Corrupt {
                record: 1,
                offset: r1 as u64,
                reason: CorruptKind::CrcMismatch
            }
        );
    }

    #[test]
    fn snapshot_rotates_generation_and_truncates_log() {
        let dir = tmpdir("snap");
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        w.append(b"folded-1").unwrap();
        w.append(b"folded-2").unwrap();
        w.install_snapshot(b"the-state").unwrap();
        assert_eq!(w.current_gen(), 1);
        w.append(b"fresh").unwrap();
        drop(w);

        assert!(!wal_path(&dir, 0).exists(), "old log retired");
        assert!(!snap_path(&dir, 0).exists());
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        let r = w.load().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"the-state".as_slice()));
        assert_eq!(r.records, vec![b"fresh".to_vec()]);
    }

    #[test]
    fn aborted_rotation_recovers_to_committed_snapshot() {
        let dir = tmpdir("aborted");
        {
            let w = WalStorage::open(&dir, no_fsync()).unwrap();
            w.append(b"old-log-record").unwrap();
        }
        // Crash window: snap.1 renamed in, but wal.1 never created and
        // the old generation never deleted.
        let mut framed = Vec::new();
        frame_into(&mut framed, b"committed-state").unwrap();
        fs::write(snap_path(&dir, 1), &framed).unwrap();

        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        assert_eq!(w.current_gen(), 1);
        let r = w.load().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"committed-state".as_slice()));
        assert!(r.records.is_empty(), "old generation's log is retired");
        assert!(!wal_path(&dir, 0).exists());
    }

    #[test]
    fn tmp_residue_is_cleaned_at_open() {
        let dir = tmpdir("tmp");
        {
            let w = WalStorage::open(&dir, no_fsync()).unwrap();
            w.append(b"keep").unwrap();
        }
        // Crash during snapshot write: a partial tmp file.
        fs::write(dir.join("snap.1.tmp"), b"partial-garbage").unwrap();
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        assert!(!dir.join("snap.1.tmp").exists());
        assert_eq!(w.load().unwrap().records, vec![b"keep".to_vec()]);
    }

    #[test]
    fn group_commit_concurrent_appends_all_become_durable() {
        let dir = tmpdir("group");
        let w = Arc::new(WalStorage::open(&dir, WalOptions::default()).unwrap());
        let threads: Vec<_> = (0..8u8)
            .map(|i| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for round in 0..20u8 {
                        w.append(&[i, round]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(w);
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        let r = w.load().unwrap();
        assert_eq!(r.records.len(), 8 * 20);
        let mut seen: Vec<[u8; 2]> = r.records.iter().map(|b| [b[0], b[1]]).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8 * 20, "every append exactly once");
    }

    #[test]
    fn per_thread_order_is_preserved() {
        let dir = tmpdir("order");
        let w = Arc::new(WalStorage::open(&dir, no_fsync()).unwrap());
        let threads: Vec<_> = (0..4u8)
            .map(|i| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for round in 0..50u8 {
                        w.append(&[i, round]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let r = w.load().unwrap();
        // Stage order is the durable order: each thread's rounds appear
        // monotonically.
        let mut last = [0u8; 4];
        for rec in &r.records {
            let (thread, round) = (rec[0] as usize, rec[1]);
            assert!(round >= last[thread]);
            last[thread] = round;
        }
    }

    #[test]
    fn crash_after_appends_keeps_the_doomed_record() {
        let dir = tmpdir("crash-after");
        {
            let w = WalStorage::open(&dir, no_fsync()).unwrap();
            w.append(b"acked").unwrap();
            w.crash_after_appends(1);
            assert_eq!(w.append(b"doomed"), Err(StorageError::Crashed));
            assert_eq!(w.append(b"lost"), Err(StorageError::Crashed));
        }
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        let r = w.load().unwrap();
        assert_eq!(r.records, vec![b"acked".to_vec(), b"doomed".to_vec()]);
    }

    #[test]
    fn crash_before_appends_drops_the_record() {
        let dir = tmpdir("crash-before");
        {
            let w = WalStorage::open(&dir, no_fsync()).unwrap();
            w.append(b"acked").unwrap();
            w.crash_before_appends(1);
            assert_eq!(w.append(b"never-written"), Err(StorageError::Crashed));
        }
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        assert_eq!(w.load().unwrap().records, vec![b"acked".to_vec()]);
    }

    #[test]
    fn poisoned_store_refuses_every_later_call() {
        let dir = tmpdir("poison");
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        w.crash_after_appends(1);
        assert_eq!(w.append(b"doomed"), Err(StorageError::Crashed));
        assert_eq!(w.append(b"x"), Err(StorageError::Crashed));
        assert_eq!(w.wait_durable(Ticket(1)), Err(StorageError::Crashed));
        assert_eq!(w.install_snapshot(b"s"), Err(StorageError::Crashed));
    }

    #[test]
    fn stage_never_touches_the_file() {
        let dir = tmpdir("stage-only");
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        w.stage(b"one").unwrap();
        w.stage(b"two").unwrap();
        let last = w.stage(b"three").unwrap();
        assert_eq!(fs::read(wal_path(&dir, 0)).unwrap(), b"", "memory-only");
        w.wait_durable(last).unwrap();
        let mut framed = Vec::new();
        for rec in [b"one".as_slice(), b"two", b"three"] {
            frame_into(&mut framed, rec).unwrap();
        }
        assert_eq!(fs::read(wal_path(&dir, 0)).unwrap(), framed);
    }

    #[test]
    fn crash_after_appends_dies_in_the_covering_flush() {
        let dir = tmpdir("crash-flush");
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        w.crash_after_appends(1);
        // The doomed record is staged like any other, in memory; what is
        // staged behind it dies with it.
        let doomed = w.stage(b"doomed").unwrap();
        let behind = w.stage(b"behind").unwrap();
        assert_eq!(fs::read(wal_path(&dir, 0)).unwrap(), b"");
        // The flush that covers it makes it durable, then dies.
        assert_eq!(w.wait_durable(doomed), Err(StorageError::Crashed));
        assert_eq!(w.wait_durable(behind), Err(StorageError::Crashed));
        assert_eq!(w.load().unwrap().records, vec![b"doomed".to_vec()]);
    }

    #[test]
    fn waiters_parked_behind_a_rotation_are_released_by_its_publish() {
        let dir = tmpdir("rotation-waiters");
        let w = Arc::new(WalStorage::open(&dir, no_fsync()).unwrap());
        let covered = w.stage(b"folded").unwrap();
        // Holding the file stalls the rotation inside the flush slot.
        let file = w.file_guard();
        let installer = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.install_snapshot(b"state"))
        };
        while !w.state_guard().flushing {
            std::thread::yield_now();
        }
        // One waiter on a record the rotation covers, one on a record
        // staged behind it, which the rotation's publish hands the lead.
        let behind = w.stage(b"behind").unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        for ticket in [covered, behind] {
            let (w, done) = (Arc::clone(&w), done.clone());
            std::thread::spawn(move || done.send(w.wait_durable(ticket)).unwrap());
        }
        drop(file);
        for _ in 0..2 {
            let released = finished.recv_timeout(std::time::Duration::from_secs(10));
            assert_eq!(released, Ok(Ok(())), "a waiter missed the publish");
        }
        assert_eq!(installer.join().unwrap(), Ok(()));
        let r = w.load().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(b"state".as_slice()));
        assert_eq!(r.records, vec![b"behind".to_vec()]);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let dir = tmpdir("oversize");
        let w = WalStorage::open(&dir, no_fsync()).unwrap();
        let big = vec![0u8; MAX_RECORD + 1];
        assert_eq!(w.stage(&big), Err(StorageError::TooLarge(MAX_RECORD + 1)));
        assert_eq!(w.load().unwrap().records.len(), 0);
    }
}
