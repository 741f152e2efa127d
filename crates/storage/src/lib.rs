//! # proxy-storage
//!
//! Durable state for the accounting layer (DESIGN.md §15). The paper's
//! accounting server clears checks and maintains currency balances;
//! losing that state on restart forges or destroys money and silently
//! resets the fail-closed replay guard. This crate provides the
//! [`Storage`] trait — an ordered, durably-flushed record log plus a
//! compacted snapshot slot — and two backends:
//!
//! * [`MemStorage`] — everything in memory, shared by `Arc`: today's
//!   behavior for netsim/bench determinism, plus in-process "restart"
//!   tests (drop the server, reopen from the same store).
//! * [`WalStorage`] — an append-only, CRC-framed write-ahead log with
//!   group-commit fsync batching (leader/follower flush), periodic
//!   compacted snapshots installed by atomic rename with log rotation,
//!   and deterministic replay on startup. Torn tails (the residue of a
//!   crash mid-write) are truncated; any other framing or CRC defect is
//!   rejected **fail-closed** at the exact corrupted record.
//!
//! The record log is opaque bytes at this layer: the accounting journal
//! (`proxy_accounting::journal`) defines the record semantics on top,
//! and [`artifacts::ArtifactStore`] persists signed revocation /
//! membership artifacts for directory mirrors through the same trait.
//!
//! ## Staging vs. durability
//!
//! [`Storage::stage`] places a record into the global durable order and
//! returns a [`Ticket`]; [`Storage::wait_durable`] blocks until that
//! record is durable under the backend's policy. The split exists so a
//! server can *stage* a record inside the same critical section that
//! commits the in-memory mutation (making log order agree with memory
//! order for non-commuting operations) and then pay the fsync wait
//! outside the lock, where the group-commit batcher amortizes it across
//! concurrent requests. That makes `stage` **enqueue-only by contract**:
//! called under shard guards, it copies the record into memory and never
//! writes to, syncs or waits on a device (`wait_durable` and
//! `install_snapshot` do). `proxy-lint` L6 holds backends to this: an
//! fsync reachable from `stage` is reported at every journal `stage`
//! site under a shard guard.

// L1, panic-free decode (DESIGN.md §11): this crate reads bytes a peer
// or a disk chose, so outside test code a reachable panic is a remote
// crash. Index with `get`, narrow with `try_from`, return typed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::disallowed_macros,
    )
)]

pub mod artifacts;
pub mod log;
pub mod mem;
pub mod wal;

pub use artifacts::ArtifactStore;
pub use mem::MemStorage;
pub use wal::{FsyncMode, WalOptions, WalStorage};

use std::fmt;

/// Largest record a backend accepts, matching the artifact decode bound
/// (a journal record may carry a full revocation snapshot artifact).
pub const MAX_RECORD: usize = 64 << 20;

/// A claim ticket for a staged record: pass it to
/// [`Storage::wait_durable`] to block until the record is durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(pub u64);

/// Why recovery or an append failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An I/O error, with the operation that failed.
    Io {
        /// What the backend was doing.
        op: &'static str,
        /// The OS error rendered as text (io::Error is not `Clone`).
        detail: String,
    },
    /// A log record failed its integrity check. Recovery refuses to
    /// proceed past it: silently skipping a corrupted record could
    /// resurrect spent checks or destroy settled balances.
    Corrupt {
        /// Zero-based index of the corrupted record in its segment.
        record: u64,
        /// Byte offset of the record's frame header in the segment.
        offset: u64,
        /// What was wrong.
        reason: CorruptKind,
    },
    /// The injected crash point fired (tests only): the backend behaves
    /// as if the process died here — nothing staged after this point is
    /// written, and no reply should reach a client.
    Crashed,
    /// A record exceeded [`MAX_RECORD`].
    TooLarge(usize),
    /// A prior I/O failure poisoned the backend; a durable server must
    /// stop accepting state-changing requests rather than diverge from
    /// its log (fail-stop).
    Poisoned,
}

/// The specific integrity defect of a [`StorageError::Corrupt`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// The stored CRC did not match the payload (bit rot / tampering).
    CrcMismatch,
    /// The length prefix exceeded [`MAX_RECORD`] — not producible by a
    /// torn write, so it is corruption, not a crash artifact.
    ImplausibleLength(u64),
    /// A snapshot file failed its integrity check.
    BadSnapshot,
    /// A CRC-valid stored record did not decode as an envelope this
    /// layer could have written (see [`artifacts::ArtifactStore`]).
    BadEnvelope,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, detail } => {
                write!(f, "storage i/o failure during {op}: {detail}")
            }
            StorageError::Corrupt {
                record,
                offset,
                reason,
            } => write!(
                f,
                "log corrupt at record {record} (offset {offset}): {reason}"
            ),
            StorageError::Crashed => write!(f, "injected crash point fired"),
            StorageError::TooLarge(n) => write!(f, "record of {n} bytes exceeds MAX_RECORD"),
            StorageError::Poisoned => write!(f, "storage poisoned by a prior i/o failure"),
        }
    }
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::CrcMismatch => write!(f, "crc mismatch"),
            CorruptKind::ImplausibleLength(n) => write!(f, "implausible length prefix {n}"),
            CorruptKind::BadSnapshot => write!(f, "snapshot integrity check failed"),
            CorruptKind::BadEnvelope => write!(f, "stored record envelope does not decode"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Everything a backend recovered at open time.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// The most recent compacted snapshot, if one was installed.
    pub snapshot: Option<Vec<u8>>,
    /// Records appended after that snapshot, in durable order.
    pub records: Vec<Vec<u8>>,
    /// True when a torn tail (an incomplete final record — the normal
    /// residue of a crash mid-append) was found and truncated. The
    /// truncated record was never acknowledged durable, so dropping it
    /// is exactly-once-safe.
    pub torn_tail: bool,
}

/// An ordered, durably-flushed record log plus a compacted snapshot
/// slot. All methods take `&self`; backends are shared across server
/// worker threads via `Arc<dyn Storage>`.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Places `record` into the durable order and returns its ticket.
    /// Enqueue-only: callers hold shard guards across this call, so an
    /// implementation copies the record into memory and returns — it
    /// must not write to, sync, or wait on a device. The record is
    /// *not* durable until [`Storage::wait_durable`] says so.
    ///
    /// # Errors
    ///
    /// [`StorageError`] for oversized records, a poisoned backend, or
    /// an injected crash point.
    fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError>;

    /// Blocks until the ticketed record is durable under the backend's
    /// fsync policy. For [`WalStorage`] this is where the
    /// leader/follower flush — every write and fsync of the record log
    /// — happens.
    ///
    /// # Errors
    ///
    /// [`StorageError`] if the flush failed or a crash point fired; the
    /// caller must not acknowledge the operation to its client.
    fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError>;

    /// Stages `record` and waits for durability: the convenience path
    /// for administrative (non-hot-path) writes.
    ///
    /// # Errors
    ///
    /// The union of [`Storage::stage`] and [`Storage::wait_durable`].
    fn append(&self, record: &[u8]) -> Result<(), StorageError> {
        let t = self.stage(record)?;
        self.wait_durable(t)
    }

    /// Atomically replaces the snapshot with `state` and truncates the
    /// record log: every record staged so far is assumed to be folded
    /// into `state`. Callers must exclude concurrent staging (the
    /// accounting journal holds its compaction gate in write mode).
    ///
    /// # Errors
    ///
    /// [`StorageError`] on I/O failure; the previous snapshot/log pair
    /// stays in effect.
    fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError>;

    /// Reads back the snapshot and post-snapshot records, verifying
    /// integrity. Fail-closed: a corrupted record is an error naming
    /// the exact record, never a silent skip.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] at the first bad record, or an I/O
    /// error.
    fn load(&self) -> Result<Recovered, StorageError>;
}

/// `Arc<S>` (including `Arc<dyn Storage>`) is itself a backend, so a
/// server and its side stores (e.g. [`ArtifactStore`]) can share one
/// underlying log handle.
impl<T: Storage + ?Sized> Storage for std::sync::Arc<T> {
    fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError> {
        (**self).stage(record)
    }

    fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError> {
        (**self).wait_durable(ticket)
    }

    fn append(&self, record: &[u8]) -> Result<(), StorageError> {
        (**self).append(record)
    }

    fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
        (**self).install_snapshot(state)
    }

    fn load(&self) -> Result<Recovered, StorageError> {
        (**self).load()
    }
}
