//! The durable accounting journal (DESIGN.md §15).
//!
//! Every state-changing operation of [`crate::server::AccountingServer`]
//! writes a [`JournalRecord`] to a [`proxy_storage`] backend *no later
//! than* the moment its in-memory effect becomes visible: records are
//! staged inside the same shard-lock critical section that validates and
//! applies the mutation, so the log's record order agrees with memory
//! order for non-commuting operations. The fsync wait happens after the
//! lock is released, where [`proxy_storage::WalStorage`]'s group-commit
//! batcher amortizes it across concurrent requests. That choreography
//! is written once, as `Journal::run`: the operation's body stages
//! under the shard lock, and `run` waits outside it before it hands the
//! body's reply back. A server with no backend owns a *detached* journal
//! ([`Journal::detached`]) and runs the same code; its stage and wait
//! touch nothing.
//!
//! The order is carried by types, not by convention: the state changes
//! only through a `Logged` record, which only a stage and the recovery
//! loop (`Journal::recover`) make; an accept-once mark a settlement took
//! is a `Taken` that gives itself back unless a built record keeps it;
//! and no reply leaves a scope before its records are durable.
//!
//! This module is the log: the record kinds, their bytes, and the
//! choreography. What a record *does* to the state is written once, in
//! `crate::ledger`, and runs the same live, on replay and out of a
//! snapshot.
//!
//! Records are **redo records of committed mutations, not request
//! inputs**: recovery re-applies balance movements and replay-guard
//! marks without re-running any cryptography. A check that failed
//! verification (or bounced on insufficient funds) never reaches the
//! log — no money moved and no success was acknowledged, so losing its
//! in-memory replay mark on restart is safe.
//!
//! A snapshot is not a second format: it is a log that rebuilds the
//! state ([`encode_snapshot`]), which the journal periodically installs
//! ([`Journal::compact`]) so recovery replays a bounded suffix. The
//! ledger builds its bytes from what changed since the last one
//! (DESIGN.md §15.3). Compaction excludes concurrent operations with a
//! reader-writer gate: operations hold the gate in read mode for their
//! whole critical path (`Journal::run`), compaction takes it in write
//! mode while it builds and installs.
//!
//! The journal is **fail-stop**: the first storage failure (or injected
//! crash point) poisons it, and every later operation returns
//! [`AcctError::Storage`] rather than letting memory diverge from the
//! log.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use proxy_storage::{Latch, Latched, Storage, StorageError, Ticket};
use restricted_proxy::encode::{Decoder, Encoder};
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::replay::{ReplayCache, ReplayGuard};
use restricted_proxy::restriction::Currency;
use restricted_proxy::shard::rank;
use restricted_proxy::time::Timestamp;

use crate::account::Account;
use crate::error::AcctError;

/// One consumed accept-once identifier, journaled with the settlement
/// that consumed it so the replay guard's memory survives restart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayMark {
    /// The grantor whose proxy carried the identifier.
    pub grantor: PrincipalId,
    /// The accept-once identifier (check number or endorsement serial).
    pub id: u64,
    /// When the identifier's retention window ends.
    pub expires: Timestamp,
}

/// A redo record of one committed state mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// An account was opened.
    OpenAccount {
        /// The new account's name.
        name: String,
        /// Principals who may debit it.
        owners: Vec<PrincipalId>,
    },
    /// An administrative mutation replaced the account's full state
    /// (credit, quota ops, … via `account_mut`).
    AdminAccount {
        /// The account's complete post-mutation state.
        account: Account,
    },
    /// A check drawn here settled: the payor was debited (from a hold
    /// when the check was certified) and, for a same-server deposit,
    /// the payee credited.
    Settle {
        /// The debited account.
        payor_account: String,
        /// The settled check's number.
        check_no: u64,
        /// Currency moved.
        currency: Currency,
        /// Amount moved.
        amount: u64,
        /// True when the debit consumed an outstanding certified-check
        /// hold rather than the balance.
        from_hold: bool,
        /// The payee account credited in the same operation (same-server
        /// deposits), if any.
        credit_to: Option<String>,
        /// Accept-once identifiers consumed while verifying the chain.
        replay: Vec<ReplayMark>,
    },
    /// A cross-server deposit was recorded as uncollected and the check
    /// endorsed onward with `serial`.
    DepositPending {
        /// The payor named by the deposited check.
        payor: PrincipalId,
        /// The deposited check's number.
        check_no: u64,
        /// The local account awaiting the funds.
        to_account: String,
        /// Currency of the deposit.
        currency: Currency,
        /// Amount of the deposit.
        amount: u64,
        /// The endorsement serial this server issued.
        serial: u64,
    },
    /// An intermediate clearing hop consumed an endorsement serial.
    Forward {
        /// The endorsement serial this server issued.
        serial: u64,
    },
    /// A returned payment finalized the matching uncollected deposit.
    PaymentApplied {
        /// The payor the payment names.
        payor: PrincipalId,
        /// The cleared check number.
        check_no: u64,
    },
    /// An uncollected deposit was reversed (the check bounced).
    Bounced {
        /// The payor the bounced check named.
        payor: PrincipalId,
        /// The bounced check's number.
        check_no: u64,
    },
    /// A cashier's check was purchased: funds moved from the purchaser's
    /// account into the cashier pool.
    CashierPurchase {
        /// The purchaser's debited account.
        from_account: String,
        /// Currency moved.
        currency: Currency,
        /// Amount moved.
        amount: u64,
    },
    /// A check was certified: a hold was placed and a certification
    /// proxy issued under `serial`.
    Certified {
        /// The account the hold was placed on.
        account: String,
        /// The certified check's number.
        check_no: u64,
        /// Held currency.
        currency: Currency,
        /// Held amount.
        amount: u64,
        /// The certified check's payee.
        payee: PrincipalId,
        /// The serial of the issued certification proxy.
        serial: u64,
    },
    /// Accept-once identifiers already consumed. Only snapshots write
    /// it: live, a mark reaches the log inside the [`Self::Settle`]
    /// that consumed it.
    Marks {
        /// The consumed identifiers.
        replay: Vec<ReplayMark>,
    },
}

const TAG_OPEN_ACCOUNT: u8 = 1;
const TAG_ADMIN_ACCOUNT: u8 = 2;
const TAG_SETTLE: u8 = 3;
const TAG_DEPOSIT_PENDING: u8 = 4;
const TAG_FORWARD: u8 = 5;
const TAG_PAYMENT_APPLIED: u8 = 6;
const TAG_BOUNCED: u8 = 7;
const TAG_CASHIER_PURCHASE: u8 = 8;
const TAG_CERTIFIED: u8 = 9;
const TAG_MARKS: u8 = 10;

/// Version byte leading every snapshot ([`encode_snapshot`]). Version 1
/// was a format of its own (counted collections, not records).
const SNAPSHOT_VERSION: u8 = 2;

fn enc_marks(e: &mut Encoder, marks: &[ReplayMark]) {
    e.count(marks.len());
    for m in marks {
        e.str(m.grantor.as_str());
        e.u64(m.id);
        e.u64(m.expires.0);
    }
}

fn dec_marks(d: &mut Decoder<'_>) -> Result<Vec<ReplayMark>, AcctError> {
    let mut marks = Vec::new();
    for _ in 0..d.counted(18)?.get() {
        marks.push(ReplayMark {
            grantor: d.principal()?,
            id: d.u64()?,
            expires: Timestamp(d.u64()?),
        });
    }
    Ok(marks)
}

impl JournalRecord {
    /// Encodes the record for the storage log.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            JournalRecord::OpenAccount { name, owners } => {
                e.u8(TAG_OPEN_ACCOUNT).str(name).count(owners.len());
                for o in owners {
                    e.str(o.as_str());
                }
            }
            JournalRecord::AdminAccount { account } => {
                e.u8(TAG_ADMIN_ACCOUNT);
                account.encode_onto(&mut e);
            }
            JournalRecord::Settle {
                payor_account,
                check_no,
                currency,
                amount,
                from_hold,
                credit_to,
                replay,
            } => {
                e.u8(TAG_SETTLE)
                    .str(payor_account)
                    .u64(*check_no)
                    .str(currency.as_str())
                    .u64(*amount)
                    .u8(u8::from(*from_hold));
                match credit_to {
                    Some(to) => {
                        e.u8(1).str(to);
                    }
                    None => {
                        e.u8(0);
                    }
                }
                enc_marks(&mut e, replay);
            }
            JournalRecord::DepositPending {
                payor,
                check_no,
                to_account,
                currency,
                amount,
                serial,
            } => {
                e.u8(TAG_DEPOSIT_PENDING)
                    .str(payor.as_str())
                    .u64(*check_no)
                    .str(to_account)
                    .str(currency.as_str())
                    .u64(*amount)
                    .u64(*serial);
            }
            JournalRecord::Forward { serial } => {
                e.u8(TAG_FORWARD).u64(*serial);
            }
            JournalRecord::PaymentApplied { payor, check_no } => {
                e.u8(TAG_PAYMENT_APPLIED).str(payor.as_str()).u64(*check_no);
            }
            JournalRecord::Bounced { payor, check_no } => {
                e.u8(TAG_BOUNCED).str(payor.as_str()).u64(*check_no);
            }
            JournalRecord::CashierPurchase {
                from_account,
                currency,
                amount,
            } => {
                e.u8(TAG_CASHIER_PURCHASE)
                    .str(from_account)
                    .str(currency.as_str())
                    .u64(*amount);
            }
            JournalRecord::Certified {
                account,
                check_no,
                currency,
                amount,
                payee,
                serial,
            } => {
                e.u8(TAG_CERTIFIED)
                    .str(account)
                    .u64(*check_no)
                    .str(currency.as_str())
                    .u64(*amount)
                    .str(payee.as_str())
                    .u64(*serial);
            }
            JournalRecord::Marks { replay } => {
                e.u8(TAG_MARKS);
                enc_marks(&mut e, replay);
            }
        }
        e.finish()
    }

    /// Decodes a record read back from the storage log. Fail-closed:
    /// trailing bytes, truncation, and unknown tags are all errors.
    ///
    /// # Errors
    ///
    /// [`AcctError::BadJournal`] on any malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, AcctError> {
        let mut d = Decoder::new(buf);
        let rec = Self::decode_from(&mut d)?;
        d.finish()
            .map_err(|_| AcctError::BadJournal("trailing bytes after record"))?;
        Ok(rec)
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, AcctError> {
        Ok(match d.u8()? {
            TAG_OPEN_ACCOUNT => {
                let name = d.str()?.to_string();
                let mut owners = Vec::new();
                for _ in 0..d.counted(2)?.get() {
                    owners.push(d.principal()?);
                }
                JournalRecord::OpenAccount { name, owners }
            }
            TAG_ADMIN_ACCOUNT => JournalRecord::AdminAccount {
                account: Account::decode_from(d)
                    .map_err(|_| AcctError::BadJournal("admin account state"))?,
            },
            TAG_SETTLE => {
                let payor_account = d.str()?.to_string();
                let check_no = d.u64()?;
                let currency = Currency::new(d.str()?);
                let amount = d.u64()?;
                let from_hold = match d.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(AcctError::BadJournal("settle hold flag")),
                };
                let credit_to = match d.u8()? {
                    0 => None,
                    1 => Some(d.str()?.to_string()),
                    _ => return Err(AcctError::BadJournal("settle credit flag")),
                };
                let replay = dec_marks(d)?;
                JournalRecord::Settle {
                    payor_account,
                    check_no,
                    currency,
                    amount,
                    from_hold,
                    credit_to,
                    replay,
                }
            }
            TAG_DEPOSIT_PENDING => JournalRecord::DepositPending {
                payor: d.principal()?,
                check_no: d.u64()?,
                to_account: d.str()?.to_string(),
                currency: Currency::new(d.str()?),
                amount: d.u64()?,
                serial: d.u64()?,
            },
            TAG_FORWARD => JournalRecord::Forward { serial: d.u64()? },
            TAG_PAYMENT_APPLIED => JournalRecord::PaymentApplied {
                payor: d.principal()?,
                check_no: d.u64()?,
            },
            TAG_BOUNCED => JournalRecord::Bounced {
                payor: d.principal()?,
                check_no: d.u64()?,
            },
            TAG_CASHIER_PURCHASE => JournalRecord::CashierPurchase {
                from_account: d.str()?.to_string(),
                currency: Currency::new(d.str()?),
                amount: d.u64()?,
            },
            TAG_CERTIFIED => JournalRecord::Certified {
                account: d.str()?.to_string(),
                check_no: d.u64()?,
                currency: Currency::new(d.str()?),
                amount: d.u64()?,
                payee: d.principal()?,
                serial: d.u64()?,
            },
            TAG_MARKS => JournalRecord::Marks {
                replay: dec_marks(d)?,
            },
            _ => return Err(AcctError::BadJournal("unknown record tag")),
        })
    }
}

/// Encodes a snapshot: the version byte, then `records` back to back
/// (a record is self-delimiting). No count prefix and no per-record
/// frame — either would put a bound on what can be read back
/// ([`Decoder::count`], [`Decoder::bytes`]) that nothing enforces on
/// what is written.
#[must_use]
pub fn encode_snapshot(records: &[JournalRecord]) -> Vec<u8> {
    let mut snapshot = SnapshotBuf::new();
    for rec in records {
        snapshot.push(rec);
    }
    snapshot.0
}

/// A snapshot being written in [`encode_snapshot`]'s format, a record
/// at a time: what the ledger keeps its runs of marks in between
/// compactions (DESIGN.md §15.3), so that it can drop a record and
/// append others without decoding any.
#[derive(Debug)]
pub(crate) struct SnapshotBuf(Vec<u8>);

impl SnapshotBuf {
    /// A snapshot of no records.
    pub(crate) fn new() -> Self {
        Self(vec![SNAPSHOT_VERSION])
    }

    /// Appends `rec`; returns its encoded length.
    pub(crate) fn push(&mut self, rec: &JournalRecord) -> usize {
        let bytes = rec.encode();
        self.0.extend_from_slice(&bytes);
        bytes.len()
    }

    /// Appends the [`JournalRecord::Marks`] of `marks`, without building
    /// the record; returns its encoded length.
    pub(crate) fn push_marks(&mut self, marks: &[ReplayMark]) -> usize {
        let mut e = Encoder::new();
        e.u8(TAG_MARKS);
        enc_marks(&mut e, marks);
        let bytes = e.finish();
        self.0.extend_from_slice(&bytes);
        bytes.len()
    }

    /// The encoded length, version byte included: where the next record
    /// starts.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Takes off every record from byte `len` on, which a record starts
    /// at ([`Self::len`] read before pushing it).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.0.truncate(len.max(1));
    }

    /// Keeps, of the records `records` walks from the first on (each
    /// its encoded length, and whether it stays), those that stay,
    /// moving the later ones down in place. Records past the last one
    /// walked stay.
    pub(crate) fn retain(&mut self, records: impl IntoIterator<Item = (usize, bool)>) {
        let (mut from, mut to) = (1, 1);
        for (len, keep) in records {
            if keep {
                if from != to {
                    self.0.copy_within(from..from + len, to);
                }
                to += len;
            }
            from += len;
        }
        self.0.drain(to..from);
    }
}

impl AsRef<[u8]> for SnapshotBuf {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Decodes a snapshot previously written by [`encode_snapshot`].
///
/// # Errors
///
/// [`AcctError::BadJournal`] on any malformed input, including an
/// unknown version byte.
pub fn decode_snapshot(buf: &[u8]) -> Result<Vec<JournalRecord>, AcctError> {
    let mut d = Decoder::new(buf);
    if d.u8()? != SNAPSHOT_VERSION {
        return Err(AcctError::BadJournal("unknown snapshot version"));
    }
    let mut records = Vec::new();
    while d.remaining() > 0 {
        records.push(JournalRecord::decode_from(&mut d)?);
    }
    Ok(records)
}

/// A record that is in the durable order: what `Ledger::apply` takes,
/// so nothing changes the state before its record is staged. Two places
/// make one: [`OpGuard::stage`], live, and [`Journal::recover`], for the
/// records a store already holds.
#[derive(Debug)]
pub(crate) struct Logged(JournalRecord);

impl Deref for Logged {
    type Target = JournalRecord;

    fn deref(&self) -> &JournalRecord {
        &self.0
    }
}

/// One operation's scope over the journal, inside [`Journal::run`]: it
/// holds the compaction gate in read mode for the operation's whole
/// durable critical path, and [`Self::stage`] (called inside the
/// shard-lock critical section) remembers the last ticket, which `run`
/// waits on after the body returns. On a detached journal `stage` and
/// that wait touch nothing.
#[derive(Debug)]
pub(crate) struct OpGuard<'a> {
    journal: &'a Journal,
    /// Excludes compaction, which needs the write side. `None` on a
    /// detached journal: there is nothing to compact.
    _gate: Option<RwLockReadGuard<'a, ()>>,
    /// Ticket of the last record staged; durability is in ticket order,
    /// so waiting on it covers every earlier one.
    last: Option<Ticket>,
    /// Whether a record was staged, on a detached journal too: a body
    /// that fails after it poisons the journal.
    staged: bool,
}

impl OpGuard<'_> {
    /// Stages `rec` into the durable order and hands it back as the
    /// proof the ledger applies. Call inside the shard-lock critical
    /// section that applies the matching mutation, after validation. A
    /// detached journal does not encode it.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] on failure; the journal is then poisoned
    /// and the caller cannot apply the mutation.
    pub(crate) fn stage(&mut self, rec: JournalRecord) -> Result<Logged, AcctError> {
        if let Some(store) = &self.journal.store {
            let ticket = self
                .journal
                .latch
                .run(|| store.stage(&rec.encode()))
                .into_result()?;
            self.journal.staged.fetch_add(1, Ordering::Relaxed);
            self.last = Some(ticket);
        }
        self.staged = true;
        Ok(Logged(rec))
    }

    /// Blocks until everything this operation staged is durable, then
    /// releases the compaction gate. Runs after the body, so after the
    /// shard lock is released; only the *reply* waits on the device, not
    /// the other operations on the shard.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] on failure; the journal is then poisoned
    /// and no success reply may be sent.
    fn wait(self) -> Latched<()> {
        rank::assert_unheld("the journal's durable wait");
        self.journal
            .latch
            .run(|| match (&self.journal.store, self.last) {
                (Some(store), Some(ticket)) => store.wait_durable(ticket),
                _ => Ok(()),
            })
    }
}

/// The accounting journal: a [`Storage`] backend (or none — a
/// *detached* journal, which is what a memory-only server owns) plus
/// the compaction gate and the fail-stop poison latch.
#[derive(Debug)]
pub struct Journal {
    /// `None` when detached: nothing is encoded, staged, awaited or
    /// compacted, and no lock is taken.
    store: Option<Arc<dyn Storage>>,
    /// Operations read, compaction writes (lock order: gate → shard
    /// locks → storage internals).
    gate: RwLock<()>,
    /// First storage failure, replayed to every later caller.
    latch: Latch,
    /// Records staged since the last snapshot install.
    staged: AtomicU64,
}

impl Journal {
    /// Records staged between automatic snapshot installs.
    pub const SNAPSHOT_EVERY: u64 = 1024;

    /// A journal with no storage behind it: operations run their scope
    /// for free and nothing survives the process.
    #[must_use]
    pub fn detached() -> Self {
        Self {
            store: None,
            gate: RwLock::new(()),
            latch: Latch::default(),
            staged: AtomicU64::new(0),
        }
    }

    /// The recovery loop: reads `store` back, hands `apply` the
    /// snapshot's records and then the log's, and attaches the store.
    /// No cryptography runs.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the backend fails or refuses a
    /// corrupted log, [`AcctError::BadJournal`] when a stored record
    /// does not decode, and whatever `apply` refuses with.
    pub(crate) fn recover(
        store: Arc<dyn Storage>,
        mut apply: impl FnMut(&Logged) -> Result<(), AcctError>,
    ) -> Result<Self, AcctError> {
        let recovered = store.load()?;
        if let Some(snap) = &recovered.snapshot {
            for rec in decode_snapshot(snap)? {
                apply(&Logged(rec))?;
            }
        }
        for rec in &recovered.records {
            apply(&Logged(JournalRecord::decode(rec)?))?;
        }
        Ok(Self {
            store: Some(store),
            ..Self::detached()
        })
    }

    /// The one scope of a state-changing operation. Installs a compacted
    /// snapshot (the bytes `snapshot` builds) if
    /// [`Self::SNAPSHOT_EVERY`] records have accumulated, checks the
    /// poison latch, takes the compaction gate in read mode, runs `body`
    /// (validate, then `Ledger::post*`), waits until what it staged is
    /// durable and only then returns its value — the reply. Compaction
    /// runs first, between operations: a failed install refuses an
    /// operation that has not happened yet instead of turning one that
    /// is already durable into an error reply.
    ///
    /// A body that fails after it staged a record poisons the journal:
    /// the record may reach the log, and recovery would replay what the
    /// caller was told failed. Every fallible step precedes the record.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the journal is poisoned or the
    /// snapshot install, a stage or the wait fails; otherwise what
    /// `body` refuses with.
    pub(crate) fn run<T, S: AsRef<[u8]>>(
        &self,
        snapshot: impl FnOnce() -> S,
        body: impl FnOnce(&mut OpGuard<'_>) -> Result<T, AcctError>,
    ) -> Result<T, AcctError> {
        if self.staged.load(Ordering::Relaxed) >= Self::SNAPSHOT_EVERY {
            self.install(Self::SNAPSHOT_EVERY, snapshot)?;
        }
        self.latch.check()?;
        let mut op = OpGuard {
            journal: self,
            _gate: self
                .store
                .is_some()
                .then(|| self.gate.read().unwrap_or_else(PoisonError::into_inner)),
            last: None,
            staged: false,
        };
        match body(&mut op) {
            Ok(reply) => {
                op.wait().into_result()?;
                Ok(reply)
            }
            Err(why) => {
                if op.staged {
                    let _ = self.latch.run(|| Err::<(), _>(StorageError::Poisoned));
                }
                Err(why)
            }
        }
    }

    /// Installs a compacted snapshot: takes the gate in write mode
    /// (excluding every concurrent operation), calls `build` for the
    /// encoded snapshot ([`encode_snapshot`]'s format) that rebuilds the
    /// now-quiescent state, and replaces the backend's snapshot + log
    /// with it. A no-op on a detached journal.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] on failure (the journal is poisoned —
    /// fail-stop — even though the backend kept its previous state).
    pub fn compact<S: AsRef<[u8]>>(&self, build: impl FnOnce() -> S) -> Result<(), AcctError> {
        self.install(0, build)
    }

    /// [`Self::compact`], unless fewer than `due` records were staged
    /// since the last install. The count is read again under the write
    /// gate: of the operations that saw a compaction due, the first to
    /// get the gate installs and the rest find the count reset.
    fn install<S: AsRef<[u8]>>(
        &self,
        due: u64,
        build: impl FnOnce() -> S,
    ) -> Result<(), AcctError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        let _excl = self.gate.write().unwrap_or_else(PoisonError::into_inner);
        self.latch.check()?;
        if self.staged.load(Ordering::Relaxed) < due {
            return Ok(());
        }
        self.latch
            .run(|| store.install_snapshot(build().as_ref()))
            .into_result()?;
        self.staged.store(0, Ordering::Relaxed);
        Ok(())
    }
}

/// The accept-once marks one settlement takes while its chain is
/// verified: a [`ReplayGuard`] over the server's [`ReplayCache`] that
/// records every *fresh* mark. A mark is the settlement's to keep only
/// once [`Self::keep`] moves it into the built `Settle` record, which
/// carries it into the journal so recovery rebuilds the replay memory;
/// dropping a `Taken` gives every mark it still holds back to the cache,
/// so a refused check may be presented again, live as after a restart.
/// It drops after the shard lock its record was built under is released.
#[derive(Debug)]
pub(crate) struct Taken<'a> {
    cache: &'a ReplayCache,
    marks: Vec<ReplayMark>,
}

impl<'a> Taken<'a> {
    /// Takes marks from the server's shared replay cache for one
    /// verification.
    pub(crate) fn new(cache: &'a ReplayCache) -> Self {
        Self {
            cache,
            marks: Vec::new(),
        }
    }

    /// Moves the marks taken so far, in taking order, into the record
    /// being built: from here they are the record's.
    pub(crate) fn keep(&mut self) -> Vec<ReplayMark> {
        std::mem::take(&mut self.marks)
    }
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        for mark in &self.marks {
            self.cache.forget(&mark.grantor, mark.id);
        }
    }
}

impl ReplayGuard for Taken<'_> {
    fn accept_once(
        &mut self,
        grantor: &PrincipalId,
        id: u64,
        now: Timestamp,
        expires: Timestamp,
    ) -> bool {
        let fresh = self.cache.check_and_mark(grantor, id, now, expires);
        if fresh {
            self.marks.push(ReplayMark {
                grantor: grantor.clone(),
                id,
                expires,
            });
        }
        fresh
    }

    fn expire(&mut self, now: Timestamp) {
        self.cache.sweep(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxy_storage::MemStorage;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn usd() -> Currency {
        Currency::new("USD")
    }

    fn sample_records() -> Vec<JournalRecord> {
        let mut acct = Account::new("carol-acct", vec![p("carol")]);
        acct.credit(usd(), 500);
        vec![
            JournalRecord::OpenAccount {
                name: "carol-acct".into(),
                owners: vec![p("carol"), p("c2")],
            },
            JournalRecord::AdminAccount { account: acct },
            JournalRecord::Settle {
                payor_account: "carol-acct".into(),
                check_no: 7,
                currency: usd(),
                amount: 100,
                from_hold: true,
                credit_to: Some("shop-acct".into()),
                replay: vec![ReplayMark {
                    grantor: p("carol"),
                    id: 7,
                    expires: Timestamp(90),
                }],
            },
            JournalRecord::Settle {
                payor_account: "carol-acct".into(),
                check_no: 8,
                currency: usd(),
                amount: 1,
                from_hold: false,
                credit_to: None,
                replay: Vec::new(),
            },
            JournalRecord::DepositPending {
                payor: p("carol"),
                check_no: 9,
                to_account: "shop-acct".into(),
                currency: usd(),
                amount: 75,
                serial: 3,
            },
            JournalRecord::Forward { serial: 4 },
            JournalRecord::PaymentApplied {
                payor: p("carol"),
                check_no: 9,
            },
            JournalRecord::Bounced {
                payor: p("carol"),
                check_no: 10,
            },
            JournalRecord::CashierPurchase {
                from_account: "carol-acct".into(),
                currency: usd(),
                amount: 200,
            },
            JournalRecord::Certified {
                account: "carol-acct".into(),
                check_no: 11,
                currency: usd(),
                amount: 50,
                payee: p("shop"),
                serial: 5,
            },
            JournalRecord::Marks {
                replay: vec![
                    ReplayMark {
                        grantor: p("bank"),
                        id: 2,
                        expires: Timestamp(80),
                    },
                    ReplayMark {
                        grantor: p("carol"),
                        id: 9,
                        expires: Timestamp(90),
                    },
                ],
            },
        ]
    }

    #[test]
    fn every_record_variant_round_trips() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let back = JournalRecord::decode(&bytes).unwrap();
            // Account lacks PartialEq; compare via re-encoding.
            assert_eq!(back.encode(), bytes, "round trip for {rec:?}");
        }
    }

    #[test]
    fn hostile_record_bytes_fail_closed() {
        // Unknown tag.
        assert!(JournalRecord::decode(&[0xEE]).is_err());
        // Truncated mid-field.
        let bytes = sample_records()[2].encode();
        for cut in 1..bytes.len() {
            assert!(
                JournalRecord::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(JournalRecord::decode(&padded).is_err());
        // A bare tag with its fields missing.
        assert!(JournalRecord::decode(&[TAG_FORWARD]).is_err());
    }

    #[test]
    fn a_snapshot_is_records_back_to_back_and_fails_closed() {
        let records = sample_records();
        let bytes = encode_snapshot(&records);
        let whole: Vec<u8> = records.iter().flat_map(JournalRecord::encode).collect();
        assert_eq!(bytes[0], SNAPSHOT_VERSION);
        assert_eq!(bytes[1..], whole[..], "no count, no frames");
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back.len(), records.len());
        assert_eq!(encode_snapshot(&back), bytes, "canonical re-encode");
        assert!(decode_snapshot(&[SNAPSHOT_VERSION]).unwrap().is_empty());

        // A wrong version byte, an unknown tag, one byte short.
        let mut wrong = bytes.clone();
        wrong[0] = 99;
        assert!(decode_snapshot(&wrong).is_err());
        let mut unknown = bytes.clone();
        unknown.push(0xEE);
        assert!(decode_snapshot(&unknown).is_err());
        assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_snapshot(&[]).is_err());
    }

    /// Stages `serial`'s `Forward` record in one scope.
    fn forward(journal: &Journal, serial: u64) -> Result<(), AcctError> {
        journal.run(Vec::new, |op| {
            op.stage(JournalRecord::Forward { serial })?;
            Ok(())
        })
    }

    /// An attached journal over an empty store.
    fn attached(store: Arc<dyn Storage>) -> Journal {
        Journal::recover(store, |rec| panic!("an empty store held {rec:?}")).unwrap()
    }

    #[test]
    fn journal_commits_then_compacts_and_poisons_fail_stop() {
        let store = Arc::new(MemStorage::new());
        let journal = attached(Arc::clone(&store) as Arc<dyn Storage>);
        forward(&journal, 1).unwrap();
        assert_eq!(store.record_count(), 1);

        journal
            .compact(|| encode_snapshot(&[JournalRecord::Forward { serial: 1 }]))
            .unwrap();
        assert_eq!(store.record_count(), 0, "log truncated by snapshot");
        let recovered = store.load().unwrap();
        let snap = decode_snapshot(&recovered.snapshot.unwrap()).unwrap();
        assert_eq!(snap, [JournalRecord::Forward { serial: 1 }]);

        // A crash point fires on the next stage: the journal poisons and
        // every later call replays the failure.
        store.crash_after_stages(1);
        let err = forward(&journal, 3).unwrap_err();
        assert!(matches!(err, AcctError::Storage(_)), "got {err:?}");
        assert!(matches!(
            journal.run(Vec::new, |_| Ok(())).unwrap_err(),
            AcctError::Storage(_)
        ));
        assert!(matches!(forward(&journal, 4), Err(AcctError::Storage(_))));
    }

    #[test]
    fn detached_journal_stages_nothing_and_never_fails() {
        let journal = Journal::detached();
        let reply = journal.run(
            || -> Vec<u8> { unreachable!("no snapshot") },
            |op| {
                let rec = op.stage(JournalRecord::Forward { serial: 1 })?;
                Ok(rec.clone())
            },
        );
        assert_eq!(reply.unwrap(), JournalRecord::Forward { serial: 1 });
        journal
            .compact(|| -> Vec<u8> { unreachable!("no snapshot") })
            .unwrap();
    }

    #[test]
    fn a_scope_that_fails_after_its_stage_poisons_the_journal() {
        for journal in [Journal::detached(), attached(Arc::new(MemStorage::new()))] {
            let refused = journal.run(Vec::new, |_| Err::<(), _>(AcctError::NoRoute(p("x"))));
            assert_eq!(refused, Err(AcctError::NoRoute(p("x"))));
            forward(&journal, 1).unwrap();
            let after = journal.run(Vec::new, |op| {
                op.stage(JournalRecord::Forward { serial: 2 })?;
                Err::<(), _>(AcctError::NoRoute(p("x")))
            });
            assert_eq!(after, Err(AcctError::NoRoute(p("x"))), "its own error");
            let err = forward(&journal, 3).unwrap_err();
            assert!(matches!(err, AcctError::Storage(_)), "fail-stop: {err:?}");
        }
    }

    /// A [`MemStorage`] that counts snapshot installs and holds each
    /// one long enough for a racing operation to reach the gate.
    #[derive(Debug, Default)]
    struct SlowInstalls {
        inner: MemStorage,
        installs: AtomicU64,
    }

    impl Storage for SlowInstalls {
        fn stage(&self, record: &[u8]) -> Result<Ticket, StorageError> {
            self.inner.stage(record)
        }

        fn wait_durable(&self, ticket: Ticket) -> Result<(), StorageError> {
            self.inner.wait_durable(ticket)
        }

        fn install_snapshot(&self, state: &[u8]) -> Result<(), StorageError> {
            self.installs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(50));
            self.inner.install_snapshot(state)
        }

        fn load(&self) -> Result<proxy_storage::Recovered, StorageError> {
            self.inner.load()
        }
    }

    #[test]
    fn a_due_compaction_installs_once_under_racing_operations() {
        let store = Arc::new(SlowInstalls::default());
        let journal = attached(store.clone());
        journal
            .staged
            .store(Journal::SNAPSHOT_EVERY, Ordering::Relaxed);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    journal.run(Vec::new, |_| Ok(())).unwrap();
                });
            }
        });
        assert_eq!(store.installs.load(Ordering::Relaxed), 1);
        // An explicit compaction is never skipped.
        journal.compact(Vec::new).unwrap();
        assert_eq!(store.installs.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn taken_marks_are_kept_by_the_record_or_given_back() {
        let cache = ReplayCache::new();
        let (now, expires) = (Timestamp(1), Timestamp(90));
        {
            let mut taken = Taken::new(&cache);
            assert!(taken.accept_once(&p("carol"), 7, now, expires));
            assert!(
                !taken.accept_once(&p("carol"), 7, now, expires),
                "replay refused"
            );
            assert!(taken.accept_once(&p("bank"), 7, now, expires));
            let kept = taken.keep();
            assert_eq!(kept.len(), 2, "the replayed mark is not re-recorded");
            assert_eq!(kept[0].grantor, p("carol"));
            assert_eq!(kept[1].grantor, p("bank"));
            assert!(taken.accept_once(&p("dave"), 1, now, expires));
        }
        assert!(!cache.check_and_mark(&p("carol"), 7, now, expires), "kept");
        assert!(!cache.check_and_mark(&p("bank"), 7, now, expires), "kept");
        assert!(
            cache.check_and_mark(&p("dave"), 1, now, expires),
            "given back on drop"
        );
    }
}
