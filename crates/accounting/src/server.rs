//! The accounting server (§4): accounts, check collection, certification.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::RngCore;

use proxy_storage::artifacts::StoredArtifact;
use proxy_storage::{ArtifactStore, Storage};
use restricted_proxy::cache::VerifiedCertCache;
use restricted_proxy::context::RequestContext;
use restricted_proxy::key::{GrantAuthority, GrantorVerifier, KeyResolver, MapResolver};
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::proxy::{grant, Proxy};
use restricted_proxy::replay::ReplayCache;
use restricted_proxy::restriction::{
    AuthorizedEntry, Currency, ObjectName, Operation, Restriction, RestrictionSet,
};
use restricted_proxy::revocation::{ArtifactError, RevocationArtifact, RevocationDirectory};
use restricted_proxy::shard::ShardMap;
use restricted_proxy::time::{Timestamp, Validity};
use restricted_proxy::verify::Verifier;

use crate::account::Account;
use crate::check::{account_object, debit_op, Check, CheckInfo};
use crate::error::AcctError;
use crate::journal::{
    Journal, JournalRecord, JournaledReplay, OpGuard, PendingDeposit, ReplayMark, SnapshotState,
};

/// The reserved account cashier's checks are drawn from.
pub const CASHIER_ACCOUNT: &str = "__cashier";

/// A settled payment, sent back along the clearing path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payment {
    /// The payor whose account was debited.
    pub payor: PrincipalId,
    /// The cleared check number.
    pub check_no: u64,
    /// Currency paid.
    pub currency: Currency,
    /// Amount paid.
    pub amount: u64,
}

/// Outcome of depositing a check.
#[derive(Clone, Debug)]
pub enum DepositOutcome {
    /// The check was drawn on this server and settled immediately.
    Settled(Payment),
    /// The check is drawn elsewhere: funds were credited as uncollected
    /// and the endorsed check must be forwarded to the returned next hop.
    Forwarded {
        /// The endorsed check to send onward.
        check: Check,
        /// Where to send it.
        next_hop: PrincipalId,
    },
}

#[derive(Clone, Debug)]
struct Uncollected {
    account: String,
    currency: Currency,
    amount: u64,
}

/// An accounting server: accounts plus the check-clearing machinery of
/// Fig. 5.
///
/// The money-moving paths ([`Self::collect`], [`Self::deposit`],
/// [`Self::forward`], [`Self::certify`], …) take `&self`: accounts and
/// uncollected records live in lock-striped [`ShardMap`]s and the replay
/// guard is a lock-striped [`ReplayCache`], so one server instance is
/// shared across worker threads. Per-account steps (ownership check +
/// hold-taking + debit; crediting) each run atomically under the owning
/// shard's lock — no double-spend is admitted under contention — and
/// multi-account flows acquire locks strictly one at a time (DESIGN.md
/// §9). Administrative setup ([`Self::open_account`],
/// [`Self::register_grantor`], [`Self::account_mut`]) remains `&mut
/// self`.
#[derive(Debug)]
pub struct AccountingServer {
    name: PrincipalId,
    authority: GrantAuthority,
    /// Persistent verifier: holds the grantor directory, batches each
    /// chain's Ed25519 seal checks, and caches positive results so a check
    /// re-presented along a clearing path costs no signature work.
    verifier: Verifier<MapResolver>,
    accounts: ShardMap<String, Account>,
    replay: ReplayCache,
    uncollected: ShardMap<(PrincipalId, u64), Uncollected>,
    next_serial: AtomicU64,
    /// Local mirror of issuers' revoked check/endorsement serials,
    /// consulted by the verifier on every deposited chain.
    revocations: Arc<RevocationDirectory>,
    /// The durable redo journal, when this server was opened on a
    /// storage backend ([`Self::with_storage`]). `None` keeps every
    /// path exactly as before — memory-only, no fsync.
    journal: Option<Journal>,
    /// Persisted revocation artifacts ([`Self::with_artifact_store`]):
    /// verified artifacts are re-recorded here so a restart re-enforces
    /// the same revocation state without refetching from issuers.
    artifacts: Option<ArtifactStore<Arc<dyn Storage>>>,
}

impl AccountingServer {
    /// Capacity of the verified-seal cache.
    pub const SEAL_CACHE_CAPACITY: usize = 1024;

    /// Creates an accounting server signing endorsements and
    /// certifications with `authority`.
    #[must_use]
    pub fn new(name: PrincipalId, authority: GrantAuthority) -> Self {
        // The server must be able to verify its own seals (cashier's
        // checks, own endorsements on re-presented chains).
        let self_verifier = match &authority {
            GrantAuthority::SharedKey(k) => GrantorVerifier::SharedKey(k.clone()),
            GrantAuthority::Keypair(sk) => GrantorVerifier::PublicKey(sk.verifying_key()),
        };
        let directory = MapResolver::new().with(name.clone(), self_verifier);
        let revocations = Arc::new(RevocationDirectory::new());
        Self {
            verifier: Verifier::new(name.clone(), directory)
                .with_seal_cache(Self::SEAL_CACHE_CAPACITY)
                .with_revocation(revocations.clone()),
            name,
            authority,
            accounts: ShardMap::new(),
            replay: ReplayCache::new(),
            uncollected: ShardMap::new(),
            next_serial: AtomicU64::new(1),
            revocations,
            journal: None,
            artifacts: None,
        }
    }

    /// Opens this server on a durable storage backend: recovers the
    /// compacted snapshot plus the journaled record suffix (rebuilding
    /// accounts, uncollected deposits, the serial counter, and the
    /// replay guard's accept-once memory), then journals every later
    /// state-changing operation through `store`.
    ///
    /// Call after [`Self::with_replay_capacity`] (recovered marks land
    /// in the final guard) and before opening accounts, so a fresh
    /// boot's setup is journaled too. The TCP/event-loop paths are
    /// unchanged: durability is purely a constructor option.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the backend fails or refuses a
    /// corrupted log (fail-closed), [`AcctError::BadJournal`] when a
    /// stored record does not decode, and any replay-application error
    /// (a log inconsistent with itself).
    pub fn with_storage(mut self, store: Arc<dyn Storage>) -> Result<Self, AcctError> {
        let recovered = store.load()?;
        if let Some(snap) = &recovered.snapshot {
            let state = SnapshotState::decode(snap)?;
            self.install_snapshot_state(state);
        }
        for rec in &recovered.records {
            let rec = JournalRecord::decode(rec)?;
            self.replay_record(rec)?;
        }
        self.journal = Some(Journal::new(store));
        Ok(self)
    }

    /// Adjusts how many journal records accumulate between automatic
    /// snapshot installs (0 disables auto-compaction; explicit
    /// [`Self::compact`] still works). No effect without
    /// [`Self::with_storage`].
    #[must_use]
    pub fn with_compaction_every(mut self, every: u64) -> Self {
        if let Some(j) = self.journal.as_mut() {
            j.set_snapshot_every(every);
        }
        self
    }

    /// Attaches a persisted revocation-artifact store: every artifact it
    /// holds is seal-verified and re-applied (restoring the revocation
    /// mirror without issuer round trips), and every artifact later
    /// accepted by [`Self::apply_revocation`] is recorded to it.
    ///
    /// Call after registering grantors: an artifact whose issuer is
    /// unknown is refused fail-closed, not skipped. Storage CRC protects
    /// against bit rot, not substitution — re-verification on the way in
    /// is what makes the store trustworthy.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] on backend failure, and the
    /// [`Self::apply_revocation`] errors for any stored artifact.
    pub fn with_artifact_store(mut self, store: Arc<dyn Storage>) -> Result<Self, AcctError> {
        let artifacts = ArtifactStore::new(store);
        for stored in artifacts.load()? {
            match stored {
                StoredArtifact::Revocation(bytes) => {
                    let artifact = RevocationArtifact::decode(&bytes)
                        .map_err(|_| AcctError::BadJournal("stored revocation artifact"))?;
                    self.apply_revocation(&artifact)?;
                }
                StoredArtifact::Membership(_) => {
                    // The store format is shared with authorization
                    // servers; an accounting server keeps no membership
                    // mirror, so such entries are not for us.
                }
            }
        }
        self.artifacts = Some(artifacts);
        Ok(self)
    }

    /// The local revocation mirror, for instrumentation and epoch sync.
    #[must_use]
    pub fn revocation_directory(&self) -> &Arc<RevocationDirectory> {
        &self.revocations
    }

    /// Verifies and applies a revocation artifact: a revoked check or
    /// endorsement serial is then refused at deposit with no issuer
    /// round trip. Fail-closed like the end-server path — bad seals,
    /// unknown issuers, epoch regressions, and delta-base mismatches all
    /// leave the last good state enforced. With an artifact store
    /// attached ([`Self::with_artifact_store`]), the verified artifact
    /// is durably recorded so a restart re-enforces it.
    ///
    /// # Errors
    ///
    /// [`AcctError::Artifact`] on unknown issuer, bad seal, epoch
    /// regression, or delta-base mismatch; [`AcctError::Storage`] when
    /// durable recording fails (the revocation is applied in memory, but
    /// the server must treat the store as failed).
    pub fn apply_revocation(&self, artifact: &RevocationArtifact) -> Result<(), AcctError> {
        let verifier = self
            .verifier
            .resolver()
            .grantor_verifier(&artifact.issuer)
            .ok_or_else(|| {
                AcctError::Artifact(ArtifactError::UnknownIssuer(artifact.issuer.clone()))
            })?;
        if !artifact.verify_seal(&verifier) {
            return Err(AcctError::Artifact(ArtifactError::BadSeal));
        }
        self.revocations
            .apply_verified(artifact)
            .map_err(AcctError::Artifact)?;
        if let Some(store) = &self.artifacts {
            store.record(&StoredArtifact::Revocation(artifact.encode()))?;
        }
        Ok(())
    }

    fn take_serial(&self) -> u64 {
        self.next_serial.fetch_add(1, Ordering::Relaxed)
    }

    /// Raises the serial counter to at least `floor` (recovery only).
    fn bump_serial(&self, floor: u64) {
        self.next_serial.fetch_max(floor, Ordering::Relaxed);
    }

    /// Opens the journal's per-operation guard, or `None` when this
    /// server is memory-only.
    fn op_guard(&self) -> Result<Option<OpGuard<'_>>, AcctError> {
        self.journal.as_ref().map(Journal::begin).transpose()
    }

    /// Installs a compacted snapshot of the whole server state,
    /// truncating the journal. Called automatically every
    /// `with_compaction_every` records; a no-op without a journal.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the install fails (the journal is
    /// then poisoned — fail-stop).
    pub fn compact(&self) -> Result<(), AcctError> {
        let Some(j) = &self.journal else {
            return Ok(());
        };
        j.compact(|| self.snapshot_state())
    }

    fn maybe_compact(&self) -> Result<(), AcctError> {
        match &self.journal {
            Some(j) if j.compaction_due() => self.compact(),
            _ => Ok(()),
        }
    }

    /// Enumerates the whole server state in canonical order. Callers
    /// must exclude concurrent mutation (the journal's compaction gate,
    /// or `&mut self`).
    fn snapshot_state(&self) -> SnapshotState {
        let mut state = SnapshotState {
            next_serial: self.next_serial.load(Ordering::Relaxed),
            ..SnapshotState::default()
        };
        self.accounts
            .for_each(|_, a| state.accounts.push(a.clone()));
        self.uncollected.for_each(|(payor, check_no), u| {
            state.pending.push(PendingDeposit {
                payor: payor.clone(),
                check_no: *check_no,
                account: u.account.clone(),
                currency: u.currency.clone(),
                amount: u.amount,
            });
        });
        self.replay.for_each_entry(|grantor, id, expires| {
            state.replay.push(ReplayMark {
                grantor: grantor.clone(),
                id,
                expires,
            });
        });
        state.normalize();
        state
    }

    fn install_snapshot_state(&mut self, state: SnapshotState) {
        for account in state.accounts {
            self.accounts.insert(account.name().to_string(), account);
        }
        for p in state.pending {
            self.uncollected.insert(
                (p.payor, p.check_no),
                Uncollected {
                    account: p.account,
                    currency: p.currency,
                    amount: p.amount,
                },
            );
        }
        for m in &state.replay {
            self.replay.rehydrate(&m.grantor, m.id, m.expires);
        }
        self.bump_serial(state.next_serial);
    }

    /// Re-applies one journaled mutation during recovery. No
    /// cryptography runs here: records describe committed state changes,
    /// and a record that cannot be applied means the log disagrees with
    /// itself — an error, never a silent skip.
    fn replay_record(&mut self, rec: JournalRecord) -> Result<(), AcctError> {
        match rec {
            JournalRecord::OpenAccount { name, owners } => {
                self.accounts
                    .insert(name.clone(), Account::new(name, owners));
            }
            JournalRecord::AdminAccount { account } => {
                self.accounts.insert(account.name().to_string(), account);
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
                self.accounts.update(&payor_account, |acct| {
                    let acct =
                        acct.ok_or(AcctError::BadJournal("settle names a missing account"))?;
                    if from_hold {
                        acct.take_hold(check_no)
                            .ok_or(AcctError::BadJournal("settle names a missing hold"))?;
                    } else {
                        acct.debit(&currency, amount)
                            .map_err(|_| AcctError::BadJournal("settle exceeds the balance"))?;
                    }
                    Ok::<(), AcctError>(())
                })?;
                if let Some(to) = credit_to {
                    self.accounts.update(&to, |acct| {
                        if let Some(acct) = acct {
                            acct.credit(currency.clone(), amount);
                        }
                    });
                }
                for m in &replay {
                    self.replay.rehydrate(&m.grantor, m.id, m.expires);
                }
            }
            JournalRecord::DepositPending {
                payor,
                check_no,
                to_account,
                currency,
                amount,
                serial,
            } => {
                self.uncollected.insert(
                    (payor, check_no),
                    Uncollected {
                        account: to_account,
                        currency,
                        amount,
                    },
                );
                self.bump_serial(serial + 1);
            }
            JournalRecord::Forward { serial } => self.bump_serial(serial + 1),
            JournalRecord::PaymentApplied { payor, check_no } => {
                if let Some(u) = self.uncollected.remove(&(payor, check_no)) {
                    self.accounts.update(&u.account, |acct| {
                        if let Some(acct) = acct {
                            acct.credit(u.currency.clone(), u.amount);
                        }
                    });
                }
            }
            JournalRecord::Bounced { payor, check_no } => {
                self.uncollected.remove(&(payor, check_no));
            }
            JournalRecord::CashierPurchase {
                from_account,
                currency,
                amount,
            } => {
                self.accounts.update(&from_account, |acct| {
                    let acct = acct.ok_or(AcctError::BadJournal(
                        "cashier purchase names a missing account",
                    ))?;
                    acct.debit(&currency, amount)
                        .map_err(|_| AcctError::BadJournal("cashier purchase exceeds the balance"))
                })?;
                let pool_name = CASHIER_ACCOUNT.to_string();
                self.accounts.upsert(
                    pool_name.clone(),
                    || Account::new(pool_name, vec![self.name.clone()]),
                    |pool| pool.credit(currency, amount),
                );
            }
            JournalRecord::Certified {
                account,
                check_no,
                currency,
                amount,
                payee,
                serial,
            } => {
                self.accounts.update(&account, |acct| {
                    let acct =
                        acct.ok_or(AcctError::BadJournal("certify names a missing account"))?;
                    acct.place_hold(check_no, currency.clone(), amount, payee.clone())
                        .map_err(|_| AcctError::BadJournal("certify exceeds the balance"))
                })?;
                self.bump_serial(serial + 1);
            }
        }
        Ok(())
    }

    /// The server's principal name.
    #[must_use]
    pub fn name(&self) -> &PrincipalId {
        &self.name
    }

    /// Registers verification material for a principal whose checks or
    /// endorsements this server must verify (payors and peer servers).
    pub fn register_grantor(&mut self, principal: PrincipalId, verifier: GrantorVerifier) {
        self.verifier.resolver_mut().insert(principal, verifier);
    }

    /// The verifier's seal cache, for instrumentation.
    #[must_use]
    pub fn seal_cache(&self) -> Option<&VerifiedCertCache> {
        self.verifier.seal_cache()
    }

    /// Sizes the accept-once replay guard for this server's expected
    /// check volume. The guard is bounded fail-closed
    /// ([`ReplayCache`]): once full of unexpired identifiers it denies
    /// further deposits rather than forgetting a spent check, so a
    /// deployment (or benchmark) that clears more than
    /// [`ReplayCache::DEFAULT_CAPACITY`] live checks must provision it
    /// explicitly.
    #[must_use]
    pub fn with_replay_capacity(mut self, capacity: usize) -> Self {
        self.replay = ReplayCache::with_capacity(capacity, ReplayCache::DEFAULT_SHARDS);
        self
    }

    /// Opens an account. With a journal attached the opening is durable;
    /// if the journal write fails the account is *not* created and the
    /// server is fail-stop (the journal poisons, and every later durable
    /// operation reports [`AcctError::Storage`]).
    pub fn open_account(&mut self, name: impl Into<String>, owners: Vec<PrincipalId>) {
        let name = name.into();
        if let Some(j) = &self.journal {
            if j.commit(&JournalRecord::OpenAccount {
                name: name.clone(),
                owners: owners.clone(),
            })
            .is_err()
            {
                // `commit` already poisoned the journal; keep memory in
                // agreement with the log by not creating the account.
                return;
            }
        }
        self.accounts
            .insert(name.clone(), Account::new(name, owners));
    }

    /// A snapshot of an account's current state. (Accounts live behind
    /// shard locks, so reads return a clone rather than a reference.)
    #[must_use]
    pub fn account(&self, name: &str) -> Option<Account> {
        self.accounts.get_cloned(&name.to_string())
    }

    /// Mutable access to an account (administrative credit, quota ops).
    /// `&mut self` guarantees exclusivity, so no shard lock is held.
    /// With a journal attached, the guard journals the account's full
    /// post-mutation state when dropped — `Drop` cannot report failure,
    /// so a journal write error poisons the journal (fail-stop) instead.
    pub fn account_mut(&mut self, name: &str) -> Result<AccountMut<'_>, AcctError> {
        let AccountingServer {
            accounts, journal, ..
        } = self;
        let account = accounts
            .get_mut(&name.to_string())
            .ok_or_else(|| AcctError::UnknownAccount(name.to_string()))?;
        Ok(AccountMut {
            account,
            journal: journal.as_ref(),
        })
    }

    /// Verifies a check's chain and restrictions as presented by
    /// `presenter`, consuming the check number on success. Also returns
    /// the accept-once marks consumed, so a durable settlement can
    /// journal them (the replay guard's memory must survive restart).
    fn verify_check(
        &self,
        check: &Check,
        presenter: &PrincipalId,
        now: Timestamp,
    ) -> Result<(CheckInfo, Vec<ReplayMark>), AcctError> {
        let info = check.info()?;
        if info.drawn_on != self.name {
            return Err(AcctError::WrongServer {
                drawn_on: info.drawn_on,
                received_by: self.name.clone(),
            });
        }
        let mut ctx = RequestContext::new(
            self.name.clone(),
            debit_op(),
            account_object(&info.payor_account),
        )
        .at(now)
        .consuming(info.currency.clone(), info.amount);
        // The presenter is authenticated; the server trivially knows its
        // own identity (the final endorsement in a clearing chain names
        // this server as the collector).
        ctx.authenticated = vec![presenter.clone()];
        if *presenter != self.name {
            ctx.authenticated.push(self.name.clone());
        }
        let mut replay = JournaledReplay::new(&self.replay);
        self.verifier
            .verify(&check.proxy.present_delegate(), &ctx, &mut replay)
            .map_err(AcctError::Verify)?;
        Ok((info, replay.into_marks()))
    }

    /// Collects a check drawn on this server, presented by `presenter`
    /// (the payee, or the last server in an endorsement chain). Debits the
    /// payor's account — from an outstanding hold when the check was
    /// certified, from the balance otherwise.
    ///
    /// # Errors
    ///
    /// Verification failures (including duplicate check numbers, §7.7),
    /// [`AcctError::NotAuthorized`] when the payor does not own the
    /// account, and [`AcctError::InsufficientFunds`] for uncovered,
    /// uncertified checks.
    pub fn collect(
        &self,
        check: &Check,
        presenter: &PrincipalId,
        now: Timestamp,
    ) -> Result<Payment, AcctError> {
        let guard = self.op_guard()?;
        let payment = self.settle(check, presenter, now, None)?;
        drop(guard);
        self.maybe_compact()?;
        Ok(payment)
    }

    /// Settles a check drawn here: verify, debit the payor (hold or
    /// balance), and optionally credit `credit_to` (the same-server
    /// deposit path). The caller holds the journal's [`OpGuard`].
    fn settle(
        &self,
        check: &Check,
        presenter: &PrincipalId,
        now: Timestamp,
        credit_to: Option<&str>,
    ) -> Result<Payment, AcctError> {
        let (info, marks) = self.verify_check(check, presenter, now)?;
        // Ownership check, hold-taking, and debit are one atomic step
        // under the payor account's shard lock: racing presenters cannot
        // interleave between the balance check and the debit. With a
        // journal attached, the Settle record is staged inside the same
        // critical section — after validation, before the mutation — so
        // log order agrees with memory order; the fsync wait happens
        // after the lock is released.
        let mut ticket = None;
        self.accounts.update(&info.payor_account, |account| {
            let account =
                account.ok_or_else(|| AcctError::UnknownAccount(info.payor_account.clone()))?;
            if !account.is_owner(&info.payor) {
                return Err(AcctError::NotAuthorized(info.payor.clone()));
            }
            let from_hold = match account.hold(info.check_no) {
                Some(hold) => {
                    // Certified check: settle from the hold.
                    debug_assert_eq!(hold.amount, info.amount);
                    true
                }
                None => {
                    let available = account.balance(&info.currency);
                    if available < info.amount {
                        return Err(AcctError::InsufficientFunds {
                            currency: info.currency.clone(),
                            requested: info.amount,
                            available,
                        });
                    }
                    false
                }
            };
            if let Some(j) = &self.journal {
                ticket = Some(j.stage(&JournalRecord::Settle {
                    payor_account: info.payor_account.clone(),
                    check_no: info.check_no,
                    currency: info.currency.clone(),
                    amount: info.amount,
                    from_hold,
                    credit_to: credit_to.map(str::to_string),
                    replay: marks.clone(),
                })?);
            }
            if from_hold {
                account.take_hold(info.check_no);
            } else {
                account.debit(&info.currency, info.amount)?;
            }
            Ok(())
        })?;
        if let Some(to) = credit_to {
            // The payor's shard lock is released before the payee's is
            // taken — locks strictly one at a time (DESIGN.md §9). The
            // credit rides in the Settle record, so recovery replays both
            // halves or neither.
            self.accounts.update(&to.to_string(), |acct| {
                acct.ok_or_else(|| AcctError::UnknownAccount(to.to_string()))
                    .map(|a| a.credit(info.currency.clone(), info.amount))
            })?;
        }
        if let (Some(t), Some(j)) = (ticket, &self.journal) {
            j.wait(t)?;
        }
        Ok(Payment {
            payor: info.payor,
            check_no: info.check_no,
            currency: info.currency,
            amount: info.amount,
        })
    }

    /// Deposits a check into `to_account`. If drawn on this server it
    /// settles immediately; otherwise the deposit is credited as
    /// *uncollected*, the check is endorsed (deposit-only) toward
    /// `next_hop`, and the caller forwards it (Fig. 5's E1).
    ///
    /// # Errors
    ///
    /// [`AcctError::UnknownAccount`] and, for same-server settlement, the
    /// errors of [`collect`](Self::collect).
    pub fn deposit<R: RngCore>(
        &self,
        check: &Check,
        depositor: &PrincipalId,
        to_account: &str,
        next_hop: PrincipalId,
        now: Timestamp,
        rng: &mut R,
    ) -> Result<DepositOutcome, AcctError> {
        if !self.accounts.contains_key(&to_account.to_string()) {
            return Err(AcctError::UnknownAccount(to_account.to_string()));
        }
        let info = check.info()?;
        // A check payable to this server would satisfy its own grantee
        // restriction during chain-walking (the server trivially counts as
        // authenticated); only the server itself may negotiate such a
        // check, or any depositor could route its funds anywhere.
        if info.payee == self.name && *depositor != self.name {
            return Err(AcctError::NotAuthorized(depositor.clone()));
        }
        let guard = self.op_guard()?;
        if info.drawn_on == self.name {
            // `settle` debits the payor under that account's shard lock
            // and releases it before crediting the payee — locks are
            // acquired strictly one at a time (DESIGN.md §9).
            let payment = self.settle(check, depositor, now, Some(to_account))?;
            drop(guard);
            self.maybe_compact()?;
            return Ok(DepositOutcome::Settled(payment));
        }
        // Credit as uncollected and endorse toward the drawee. The
        // DepositPending record is staged *before* the uncollected entry
        // becomes visible: any dependent record (the payment's return)
        // can only stage after the insert, so log order is safe.
        let serial = self.take_serial();
        let window = check
            .proxy
            .effective_validity()
            .ok_or(AcctError::MalformedCheck("validity"))?;
        let mut ticket = None;
        if let Some(j) = &self.journal {
            ticket = Some(j.stage(&JournalRecord::DepositPending {
                payor: info.payor.clone(),
                check_no: info.check_no,
                to_account: to_account.to_string(),
                currency: info.currency.clone(),
                amount: info.amount,
                serial,
            })?);
        }
        self.uncollected.insert(
            (info.payor.clone(), info.check_no),
            Uncollected {
                account: to_account.to_string(),
                currency: info.currency.clone(),
                amount: info.amount,
            },
        );
        let endorsed = check.endorse(
            &self.name,
            &self.authority,
            next_hop.clone(),
            Some(to_account),
            window,
            serial,
            rng,
        )?;
        if let (Some(t), Some(j)) = (ticket, &self.journal) {
            j.wait(t)?;
        }
        drop(guard);
        self.maybe_compact()?;
        Ok(DepositOutcome::Forwarded {
            check: endorsed,
            next_hop,
        })
    }

    /// An intermediate clearing hop (Fig. 5 repeated endorsements): this
    /// server endorses the check onward to `next_hop`.
    ///
    /// # Errors
    ///
    /// [`AcctError::MalformedCheck`] for degenerate validity windows.
    pub fn forward<R: RngCore>(
        &self,
        check: &Check,
        next_hop: PrincipalId,
        rng: &mut R,
    ) -> Result<Check, AcctError> {
        let guard = self.op_guard()?;
        let serial = self.take_serial();
        let window = check
            .proxy
            .effective_validity()
            .ok_or(AcctError::MalformedCheck("validity"))?;
        // Endorse before committing: signing is the fallible step, and
        // once Forward{serial} is durable the operation must not fail —
        // recovery replays the serial advance whether or not the caller
        // ever saw the endorsed check. A failed endorsement before the
        // commit merely wastes an in-memory serial, which is safe: the
        // accept-once property only matters for serials on issued checks.
        let endorsed = check.endorse(
            &self.name,
            &self.authority,
            next_hop,
            None,
            window,
            serial,
            rng,
        )?;
        if let Some(j) = &self.journal {
            // Endorsement serials are accept-once identifiers at peer
            // servers; persisting the counter's high-water mark keeps a
            // restarted server from re-issuing a consumed serial.
            j.commit(&JournalRecord::Forward { serial })?;
        }
        drop(guard);
        self.maybe_compact()?;
        Ok(endorsed)
    }

    /// Applies a returned payment: marks the matching uncollected deposit
    /// as collected (the funds are final).
    ///
    /// Returns `true` when a matching uncollected record existed.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the journal refuses the record; the
    /// uncollected entry is then left untouched.
    pub fn apply_payment(&self, payment: &Payment) -> Result<bool, AcctError> {
        let guard = self.op_guard()?;
        // The gated atomic remove is the linearization point: exactly one
        // of two racing duplicate payments takes the entry (and stages
        // the journal record); the loser finds nothing and credits
        // nothing. The deposit was credited as uncollected at deposit
        // time; finality means it stays. (A bounced check would instead
        // reverse it — see `bounce`.)
        let mut ticket = None;
        let taken =
            self.uncollected
                .remove_if(&(payment.payor.clone(), payment.check_no), |u| {
                    debug_assert_eq!(u.amount, payment.amount);
                    if let Some(j) = &self.journal {
                        ticket = Some(j.stage(&JournalRecord::PaymentApplied {
                            payor: payment.payor.clone(),
                            check_no: payment.check_no,
                        })?);
                    }
                    Ok::<(), AcctError>(())
                })?;
        let applied = match taken {
            Some(u) => {
                let Uncollected {
                    account,
                    currency,
                    amount,
                } = u;
                self.accounts.update(&account, |acct| {
                    if let Some(acct) = acct {
                        acct.credit(currency, amount);
                    }
                });
                true
            }
            None => false,
        };
        if let (Some(t), Some(j)) = (ticket, &self.journal) {
            j.wait(t)?;
        }
        drop(guard);
        self.maybe_compact()?;
        Ok(applied)
    }

    /// Reverses an uncollected deposit whose check bounced (insufficient
    /// funds at the drawee — the out-of-band path §4 mentions).
    ///
    /// Returns `true` when a matching uncollected record existed.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the journal refuses the record; the
    /// uncollected entry is then left untouched.
    pub fn bounce(&self, payor: &PrincipalId, check_no: u64) -> Result<bool, AcctError> {
        let guard = self.op_guard()?;
        let mut ticket = None;
        let taken = self
            .uncollected
            .remove_if(&(payor.clone(), check_no), |_| {
                if let Some(j) = &self.journal {
                    ticket = Some(j.stage(&JournalRecord::Bounced {
                        payor: payor.clone(),
                        check_no,
                    })?);
                }
                Ok::<(), AcctError>(())
            })?;
        if let (Some(t), Some(j)) = (ticket, &self.journal) {
            j.wait(t)?;
        }
        drop(guard);
        self.maybe_compact()?;
        Ok(taken.is_some())
    }

    /// Amount of `currency` pending collection into `account`
    /// (quiescently consistent across shards).
    #[must_use]
    pub fn uncollected_total(&self, account: &str, currency: &Currency) -> u64 {
        self.uncollected.fold(0u64, |acc, _, u| {
            if u.account == account && u.currency == *currency {
                acc + u.amount
            } else {
                acc
            }
        })
    }

    /// Issues a cashier's check (§4 leaves these "as an exercise"): the
    /// purchaser pays immediately, the funds move into the server's
    /// cashier pool, and the returned check is drawn *by the server on
    /// itself* — it cannot bounce.
    ///
    /// # Errors
    ///
    /// [`AcctError::NotAuthorized`] unless `purchaser` owns
    /// `from_account`; [`AcctError::InsufficientFunds`] when the purchase
    /// cannot be covered.
    #[allow(clippy::too_many_arguments)]
    pub fn cashiers_check<R: RngCore>(
        &self,
        purchaser: &PrincipalId,
        from_account: &str,
        payee: PrincipalId,
        check_no: u64,
        currency: Currency,
        amount: u64,
        validity: Validity,
        rng: &mut R,
    ) -> Result<Check, AcctError> {
        // Ownership check + debit: atomic under the purchaser's shard
        // lock, released before the cashier pool is touched. The journal
        // record is staged inside the same critical section, after
        // validation.
        let guard = self.op_guard()?;
        let mut ticket = None;
        self.accounts.update(&from_account.to_string(), |acct| {
            let acct = acct.ok_or_else(|| AcctError::UnknownAccount(from_account.to_string()))?;
            if !acct.is_owner(purchaser) {
                return Err(AcctError::NotAuthorized(purchaser.clone()));
            }
            let available = acct.balance(&currency);
            if available < amount {
                return Err(AcctError::InsufficientFunds {
                    currency: currency.clone(),
                    requested: amount,
                    available,
                });
            }
            if let Some(j) = &self.journal {
                ticket = Some(j.stage(&JournalRecord::CashierPurchase {
                    from_account: from_account.to_string(),
                    currency: currency.clone(),
                    amount,
                })?);
            }
            acct.debit(&currency, amount)
        })?;
        // Funds wait in the cashier pool until the check is collected.
        let pool_name = CASHIER_ACCOUNT.to_string();
        self.accounts.upsert(
            pool_name.clone(),
            || Account::new(pool_name, vec![self.name.clone()]),
            |pool| pool.credit(currency.clone(), amount),
        );
        if let (Some(t), Some(j)) = (ticket, &self.journal) {
            j.wait(t)?;
        }
        drop(guard);
        self.maybe_compact()?;
        // The server can verify its own signature at collection time: its
        // verifier registered the self-key at construction.
        Ok(crate::check::write_check(
            &self.name,
            &self.authority,
            &self.name,
            CASHIER_ACCOUNT,
            payee,
            check_no,
            currency,
            amount,
            validity,
            rng,
        ))
    }

    /// Certifies a check (§4's second mechanism): places a hold on the
    /// payor's funds and returns an authorization proxy "certifying that
    /// the client has sufficient resources to cover the check".
    ///
    /// # Errors
    ///
    /// [`AcctError::NotAuthorized`] unless `requester` owns the account;
    /// [`AcctError::InsufficientFunds`] when the hold cannot be covered.
    #[allow(clippy::too_many_arguments)]
    pub fn certify<R: RngCore>(
        &self,
        requester: &PrincipalId,
        account: &str,
        check_no: u64,
        currency: Currency,
        amount: u64,
        payee: PrincipalId,
        validity: Validity,
        rng: &mut R,
    ) -> Result<Proxy, AcctError> {
        // Ownership check + hold placement: one atomic step under the
        // account's shard lock, so concurrent certifications cannot
        // over-commit the balance. The journal record is staged inside
        // the same critical section, after validation.
        let guard = self.op_guard()?;
        let serial = self.take_serial();
        let mut ticket = None;
        self.accounts.update(&account.to_string(), |acct| {
            let acct = acct.ok_or_else(|| AcctError::UnknownAccount(account.to_string()))?;
            if !acct.is_owner(requester) {
                return Err(AcctError::NotAuthorized(requester.clone()));
            }
            let available = acct.balance(&currency);
            if available < amount {
                return Err(AcctError::InsufficientFunds {
                    currency: currency.clone(),
                    requested: amount,
                    available,
                });
            }
            if let Some(j) = &self.journal {
                ticket = Some(j.stage(&JournalRecord::Certified {
                    account: account.to_string(),
                    check_no,
                    currency: currency.clone(),
                    amount,
                    payee: payee.clone(),
                    serial,
                })?);
            }
            acct.place_hold(check_no, currency.clone(), amount, payee.clone())
        })?;
        if let (Some(t), Some(j)) = (ticket, &self.journal) {
            j.wait(t)?;
        }
        drop(guard);
        self.maybe_compact()?;
        let restrictions = RestrictionSet::new()
            .with(Restriction::Authorized {
                entries: vec![AuthorizedEntry::ops(
                    ObjectName::new(format!("certified-check:{check_no}")),
                    vec![Operation::new("certify")],
                )],
            })
            .with(Restriction::Quota {
                currency,
                limit: amount,
            });
        Ok(grant(
            &self.name,
            &self.authority,
            restrictions,
            validity,
            serial,
            rng,
        ))
    }
}

/// Exclusive administrative access to one account
/// ([`AccountingServer::account_mut`]). Dereferences to [`Account`];
/// when the server has a journal, dropping the guard journals the
/// account's full post-mutation state as an `AdminAccount` record.
#[derive(Debug)]
pub struct AccountMut<'a> {
    account: &'a mut Account,
    journal: Option<&'a Journal>,
}

impl Deref for AccountMut<'_> {
    type Target = Account;

    fn deref(&self) -> &Account {
        self.account
    }
}

impl DerefMut for AccountMut<'_> {
    fn deref_mut(&mut self) -> &mut Account {
        self.account
    }
}

impl Drop for AccountMut<'_> {
    fn drop(&mut self) {
        if let Some(j) = self.journal {
            // `Drop` cannot report failure; `commit` poisons the journal
            // on error, so the server goes fail-stop rather than letting
            // memory diverge from the log.
            let _ = j.commit(&JournalRecord::AdminAccount {
                account: self.account.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::write_check;
    use proxy_crypto::ed25519::SigningKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn usd() -> Currency {
        Currency::new("USD")
    }

    fn window() -> Validity {
        Validity::new(Timestamp(0), Timestamp(1000))
    }

    struct Fixture {
        rng: StdRng,
        bank: AccountingServer,
        carol_auth: GrantAuthority,
    }

    /// One bank holding both carol's and the shop's accounts.
    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(1);
        let bank_key = SigningKey::generate(&mut rng);
        let carol_key = SigningKey::generate(&mut rng);
        let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key));
        bank.register_grantor(
            p("carol"),
            GrantorVerifier::PublicKey(carol_key.verifying_key()),
        );
        bank.open_account("carol-acct", vec![p("carol")]);
        bank.open_account("shop-acct", vec![p("shop")]);
        bank.account_mut("carol-acct").unwrap().credit(usd(), 500);
        Fixture {
            rng,
            bank,
            carol_auth: GrantAuthority::Keypair(carol_key),
        }
    }

    fn carol_check(f: &mut Fixture, check_no: u64, amount: u64) -> Check {
        write_check(
            &p("carol"),
            &f.carol_auth,
            &p("bank"),
            "carol-acct",
            p("shop"),
            check_no,
            usd(),
            amount,
            window(),
            &mut f.rng,
        )
    }

    #[test]
    fn same_server_deposit_settles_immediately() {
        let mut f = fixture();
        let check = carol_check(&mut f, 1, 100);
        let outcome = f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap();
        assert!(matches!(outcome, DepositOutcome::Settled(_)));
        assert_eq!(f.bank.account("carol-acct").unwrap().balance(&usd()), 400);
        assert_eq!(f.bank.account("shop-acct").unwrap().balance(&usd()), 100);
    }

    #[test]
    fn check_verification_goes_through_the_seal_cache() {
        let mut f = fixture();
        let check = carol_check(&mut f, 21, 10);
        f.bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap();
        let cache = f.bank.seal_cache().unwrap();
        let (_, misses) = cache.stats();
        assert!(misses >= 1, "seal checks routed through the cache");
        assert!(!cache.is_empty(), "positive results cached");
        // A second, distinct check re-pays only its own seal, not a
        // rebuilt verifier (the cache and directory persist).
        let check2 = carol_check(&mut f, 22, 10);
        f.bank
            .deposit(
                &check2,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(2),
                &mut f.rng,
            )
            .unwrap();
        assert!(f.bank.seal_cache().unwrap().len() >= 2);
    }

    #[test]
    fn duplicate_check_number_rejected() {
        let mut f = fixture();
        let check = carol_check(&mut f, 7, 50);
        assert!(f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng
            )
            .is_ok());
        // The same check (same number) again: rejected by accept-once.
        let err = f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(2),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Verify(_)), "got {err:?}");
        // Balance unchanged by the replay.
        assert_eq!(f.bank.account("carol-acct").unwrap().balance(&usd()), 450);
    }

    #[test]
    fn replay_guard_capacity_is_provisionable_and_fail_closed() {
        // Undersized guard (~one slot per stripe): a burst of distinct
        // checks must see denials once the stripes fill — the guard
        // fails closed rather than forgetting a spent check — and every
        // deposit that does settle moves exactly its face value.
        let mut f = fixture();
        f.bank = f.bank.with_replay_capacity(1);
        let mut settled = 0u64;
        for no in 1..=40 {
            let check = carol_check(&mut f, no, 1);
            if f.bank
                .deposit(
                    &check,
                    &p("shop"),
                    "shop-acct",
                    p("bank"),
                    Timestamp(1),
                    &mut f.rng,
                )
                .is_ok()
            {
                settled += 1;
            }
        }
        assert!(settled < 40, "undersized accept-once guard fails closed");
        assert_eq!(
            f.bank.account("shop-acct").unwrap().balance(&usd()),
            settled
        );

        // Provisioned for the volume, the same burst settles completely.
        let mut f = fixture();
        f.bank = f.bank.with_replay_capacity(4096);
        for no in 1..=40 {
            let check = carol_check(&mut f, no, 1);
            f.bank
                .deposit(
                    &check,
                    &p("shop"),
                    "shop-acct",
                    p("bank"),
                    Timestamp(1),
                    &mut f.rng,
                )
                .expect("provisioned guard admits distinct checks");
        }
        assert_eq!(f.bank.account("shop-acct").unwrap().balance(&usd()), 40);
    }

    #[test]
    fn insufficient_funds_bounce() {
        let mut f = fixture();
        let check = carol_check(&mut f, 2, 9_999);
        let err = f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::InsufficientFunds { .. }));
    }

    #[test]
    fn only_payee_can_negotiate() {
        let mut f = fixture();
        f.bank.open_account("mallory-acct", vec![p("mallory")]);
        let check = carol_check(&mut f, 3, 100);
        // Mallory found the check on the wire and tries to cash it.
        let err = f
            .bank
            .deposit(
                &check,
                &p("mallory"),
                "mallory-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Verify(_)));
    }

    #[test]
    fn forged_check_rejected() {
        let mut f = fixture();
        // Mallory forges a check "from carol" with her own key.
        let mallory_key = SigningKey::generate(&mut f.rng);
        let forged = write_check(
            &p("carol"),
            &GrantAuthority::Keypair(mallory_key),
            &p("bank"),
            "carol-acct",
            p("shop"),
            4,
            usd(),
            100,
            window(),
            &mut f.rng,
        );
        let err = f
            .bank
            .deposit(
                &forged,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Verify(_)));
    }

    #[test]
    fn check_amount_tampering_rejected() {
        let mut f = fixture();
        let check = carol_check(&mut f, 5, 10);
        // Attacker rewrites the quota limit upward in the certificate.
        let mut tampered = check.clone();
        let mut new_set = RestrictionSet::new();
        for r in tampered.proxy.certs[0].restrictions.iter() {
            new_set.push(match r {
                Restriction::Quota { currency, .. } => Restriction::Quota {
                    currency: currency.clone(),
                    limit: 400,
                },
                other => other.clone(),
            });
        }
        tampered.proxy.certs[0].restrictions = new_set;
        let err = f
            .bank
            .deposit(
                &tampered,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Verify(_)));
    }

    #[test]
    fn certified_check_settles_from_hold() {
        let mut f = fixture();
        // Carol certifies check 9 for 200.
        let cert_proxy = f
            .bank
            .certify(
                &p("carol"),
                "carol-acct",
                9,
                usd(),
                200,
                p("shop"),
                window(),
                &mut f.rng,
            )
            .unwrap();
        assert_eq!(f.bank.account("carol-acct").unwrap().balance(&usd()), 300);
        assert_eq!(f.bank.account("carol-acct").unwrap().held(&usd()), 200);
        assert!(!cert_proxy.is_delegate(), "certification is a bearer proxy");
        // Carol then spends her whole remaining balance.
        f.bank
            .account_mut("carol-acct")
            .unwrap()
            .debit(&usd(), 300)
            .unwrap();
        // The certified check still clears — that is the guarantee.
        let check = carol_check(&mut f, 9, 200);
        let outcome = f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap();
        assert!(matches!(outcome, DepositOutcome::Settled(_)));
        assert_eq!(f.bank.account("shop-acct").unwrap().balance(&usd()), 200);
        assert_eq!(f.bank.account("carol-acct").unwrap().held(&usd()), 0);
    }

    #[test]
    fn certify_requires_ownership_and_funds() {
        let mut f = fixture();
        assert!(matches!(
            f.bank.certify(
                &p("mallory"),
                "carol-acct",
                9,
                usd(),
                10,
                p("shop"),
                window(),
                &mut f.rng
            ),
            Err(AcctError::NotAuthorized(_))
        ));
        assert!(matches!(
            f.bank.certify(
                &p("carol"),
                "carol-acct",
                9,
                usd(),
                10_000,
                p("shop"),
                window(),
                &mut f.rng
            ),
            Err(AcctError::InsufficientFunds { .. })
        ));
    }

    #[test]
    fn cross_server_deposit_forwards_endorsed_check() {
        let mut f = fixture();
        // A second bank holds the shop's account; carol's check is drawn
        // on f.bank.
        let mut rng = StdRng::seed_from_u64(5);
        let bank1_key = SigningKey::generate(&mut rng);
        let mut bank1 = AccountingServer::new(p("bank1"), GrantAuthority::Keypair(bank1_key));
        bank1.open_account("shop-acct", vec![p("shop")]);
        let check = carol_check(&mut f, 11, 75);
        let outcome = bank1
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut rng,
            )
            .unwrap();
        let DepositOutcome::Forwarded {
            check: endorsed,
            next_hop,
        } = outcome
        else {
            panic!("expected forward");
        };
        assert_eq!(next_hop, p("bank"));
        assert_eq!(endorsed.endorsement_count(), 1);
        // Funds are pending, not final.
        assert_eq!(bank1.uncollected_total("shop-acct", &usd()), 75);
        assert_eq!(bank1.account("shop-acct").unwrap().balance(&usd()), 0);
    }

    #[test]
    fn cashiers_check_cannot_bounce() {
        let mut f = fixture();
        // Carol buys a cashier's check for 200.
        let check = f
            .bank
            .cashiers_check(
                &p("carol"),
                "carol-acct",
                p("shop"),
                77,
                usd(),
                200,
                window(),
                &mut f.rng,
            )
            .unwrap();
        assert_eq!(f.bank.account("carol-acct").unwrap().balance(&usd()), 300);
        assert_eq!(
            f.bank.account(CASHIER_ACCOUNT).unwrap().balance(&usd()),
            200
        );
        // Carol goes broke; the cashier's check still clears.
        f.bank
            .account_mut("carol-acct")
            .unwrap()
            .debit(&usd(), 300)
            .unwrap();
        let outcome = f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap();
        assert!(matches!(outcome, DepositOutcome::Settled(_)));
        assert_eq!(f.bank.account("shop-acct").unwrap().balance(&usd()), 200);
        assert_eq!(f.bank.account(CASHIER_ACCOUNT).unwrap().balance(&usd()), 0);
    }

    #[test]
    fn cashiers_check_requires_funds_and_ownership() {
        let mut f = fixture();
        assert!(matches!(
            f.bank.cashiers_check(
                &p("mallory"),
                "carol-acct",
                p("shop"),
                1,
                usd(),
                10,
                window(),
                &mut f.rng
            ),
            Err(AcctError::NotAuthorized(_))
        ));
        assert!(matches!(
            f.bank.cashiers_check(
                &p("carol"),
                "carol-acct",
                p("shop"),
                1,
                usd(),
                10_000,
                window(),
                &mut f.rng
            ),
            Err(AcctError::InsufficientFunds { .. })
        ));
        // No partial state change on failure.
        assert_eq!(f.bank.account("carol-acct").unwrap().balance(&usd()), 500);
    }

    #[test]
    fn cashiers_check_only_payee_negotiates() {
        let mut f = fixture();
        f.bank.open_account("mallory-acct", vec![p("mallory")]);
        let check = f
            .bank
            .cashiers_check(
                &p("carol"),
                "carol-acct",
                p("shop"),
                78,
                usd(),
                50,
                window(),
                &mut f.rng,
            )
            .unwrap();
        let err = f
            .bank
            .deposit(
                &check,
                &p("mallory"),
                "mallory-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Verify(_)));
    }

    /// Builds the standard fixture on a durable (in-memory) store:
    /// every account opening and credit is journaled through `store`.
    fn durable_fixture(store: Arc<dyn Storage>) -> Fixture {
        let mut rng = StdRng::seed_from_u64(1);
        let bank_key = SigningKey::generate(&mut rng);
        let carol_key = SigningKey::generate(&mut rng);
        let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
            .with_storage(store)
            .unwrap();
        bank.register_grantor(
            p("carol"),
            GrantorVerifier::PublicKey(carol_key.verifying_key()),
        );
        bank.open_account("carol-acct", vec![p("carol")]);
        bank.open_account("shop-acct", vec![p("shop")]);
        bank.account_mut("carol-acct").unwrap().credit(usd(), 500);
        Fixture {
            rng,
            bank,
            carol_auth: GrantAuthority::Keypair(carol_key),
        }
    }

    /// "Restarts" the bank: a fresh server recovered from `store` with
    /// the same keys (regenerated from the fixture's fixed seed).
    fn restart(store: Arc<dyn Storage>) -> AccountingServer {
        let mut rng = StdRng::seed_from_u64(1);
        let bank_key = SigningKey::generate(&mut rng);
        let carol_key = SigningKey::generate(&mut rng);
        let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
            .with_storage(store)
            .unwrap();
        bank.register_grantor(
            p("carol"),
            GrantorVerifier::PublicKey(carol_key.verifying_key()),
        );
        bank
    }

    #[test]
    fn recovery_rebuilds_accounts_and_rejects_replayed_checks() {
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let mut f = durable_fixture(Arc::clone(&store));
        let check = carol_check(&mut f, 1, 100);
        f.bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap();
        drop(f.bank);

        let bank = restart(Arc::clone(&store));
        assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 400);
        assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 100);
        // Exactly-once across restart: the spent check number was
        // journaled with the settlement, so re-presenting the same check
        // after recovery is refused — no double credit.
        let mut rng = StdRng::seed_from_u64(99);
        let err = bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(2),
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Verify(_)), "got {err:?}");
        assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 100);
    }

    #[test]
    fn recovery_rebuilds_uncollected_holds_and_serials() {
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let mut f = durable_fixture(Arc::clone(&store));
        // A cross-server deposit leaves an uncollected entry here (this
        // bank is not the drawee for this synthetic check).
        let mut rng2 = StdRng::seed_from_u64(7);
        let other_key = SigningKey::generate(&mut rng2);
        let foreign = write_check(
            &p("carol"),
            &GrantAuthority::Keypair(other_key),
            &p("other-bank"),
            "carol-acct",
            p("shop"),
            31,
            usd(),
            75,
            window(),
            &mut f.rng,
        );
        let outcome = f
            .bank
            .deposit(
                &foreign,
                &p("shop"),
                "shop-acct",
                p("other-bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap();
        assert!(matches!(outcome, DepositOutcome::Forwarded { .. }));
        // And a certified check places a hold.
        f.bank
            .certify(
                &p("carol"),
                "carol-acct",
                9,
                usd(),
                200,
                p("shop"),
                window(),
                &mut f.rng,
            )
            .unwrap();
        let serial_before = f.bank.next_serial.load(Ordering::Relaxed);
        drop(f.bank);

        let bank = restart(Arc::clone(&store));
        assert_eq!(bank.uncollected_total("shop-acct", &usd()), 75);
        assert_eq!(bank.account("carol-acct").unwrap().held(&usd()), 200);
        assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 300);
        assert!(
            bank.next_serial.load(Ordering::Relaxed) >= serial_before,
            "endorsement serials never rewind across restart"
        );
        // The payment's return trip still finds its uncollected entry.
        assert!(bank
            .apply_payment(&Payment {
                payor: p("carol"),
                check_no: 31,
                currency: usd(),
                amount: 75,
            })
            .unwrap());
        assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 75);
        // The certified hold still clears after restart.
        let mut rng = StdRng::seed_from_u64(55);
        let carol_key = {
            let mut r = StdRng::seed_from_u64(1);
            let _bank = SigningKey::generate(&mut r);
            SigningKey::generate(&mut r)
        };
        let check = write_check(
            &p("carol"),
            &GrantAuthority::Keypair(carol_key),
            &p("bank"),
            "carol-acct",
            p("shop"),
            9,
            usd(),
            200,
            window(),
            &mut rng,
        );
        let outcome = bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(2),
                &mut rng,
            )
            .unwrap();
        assert!(matches!(outcome, DepositOutcome::Settled(_)));
        assert_eq!(bank.account("carol-acct").unwrap().held(&usd()), 0);
    }

    #[test]
    fn compaction_preserves_recovered_state() {
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let mut f = durable_fixture(Arc::clone(&store));
        for no in 1..=5 {
            let check = carol_check(&mut f, no, 10);
            f.bank
                .deposit(
                    &check,
                    &p("shop"),
                    "shop-acct",
                    p("bank"),
                    Timestamp(1),
                    &mut f.rng,
                )
                .unwrap();
        }
        f.bank.compact().unwrap();
        // More activity lands after the snapshot.
        let check = carol_check(&mut f, 6, 10);
        f.bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap();
        drop(f.bank);

        let bank = restart(Arc::clone(&store));
        assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 440);
        assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 60);
        // The snapshot carried the replay marks too.
        let mut rng = StdRng::seed_from_u64(77);
        let carol_key = {
            let mut r = StdRng::seed_from_u64(1);
            let _bank = SigningKey::generate(&mut r);
            SigningKey::generate(&mut r)
        };
        let replayed = write_check(
            &p("carol"),
            &GrantAuthority::Keypair(carol_key),
            &p("bank"),
            "carol-acct",
            p("shop"),
            3,
            usd(),
            10,
            window(),
            &mut rng,
        );
        assert!(bank
            .deposit(
                &replayed,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(2),
                &mut rng,
            )
            .is_err());
    }

    #[test]
    fn crash_point_poisons_the_server_fail_stop() {
        let mem = Arc::new(proxy_storage::MemStorage::new());
        let store: Arc<dyn Storage> = Arc::clone(&mem) as Arc<dyn Storage>;
        let mut f = durable_fixture(store);
        // The next staged record "crashes" the backend: the deposit must
        // report failure (no acknowledgement), and the server must
        // refuse all later durable work rather than diverge from its log.
        mem.crash_after_stages(1);
        let check = carol_check(&mut f, 1, 100);
        let err = f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Storage(_)), "got {err:?}");
        let check2 = carol_check(&mut f, 2, 10);
        let err = f
            .bank
            .deposit(
                &check2,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(2),
                &mut f.rng,
            )
            .unwrap_err();
        assert!(
            matches!(err, AcctError::Storage(_)),
            "poisoned server stays fail-stop: {err:?}"
        );
    }

    #[test]
    fn revocations_survive_restart_through_the_artifact_store() {
        use restricted_proxy::revocation::{ArtifactKind, RevocationArtifact};
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let mut f = {
            let mut rng = StdRng::seed_from_u64(1);
            let bank_key = SigningKey::generate(&mut rng);
            let carol_key = SigningKey::generate(&mut rng);
            let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key));
            bank.register_grantor(
                p("carol"),
                GrantorVerifier::PublicKey(carol_key.verifying_key()),
            );
            let mut bank = bank.with_artifact_store(Arc::clone(&store)).unwrap();
            bank.open_account("carol-acct", vec![p("carol")]);
            bank.open_account("shop-acct", vec![p("shop")]);
            bank.account_mut("carol-acct").unwrap().credit(usd(), 500);
            Fixture {
                rng,
                bank,
                carol_auth: GrantAuthority::Keypair(carol_key),
            }
        };
        // Carol revokes check serial 5 (say the check was stolen).
        let kill = RevocationArtifact::seal(
            p("carol"),
            1,
            ArtifactKind::Snapshot,
            [5u64].into_iter().collect(),
            &f.carol_auth,
        );
        f.bank.apply_revocation(&kill).unwrap();
        let check = carol_check(&mut f, 5, 50);
        assert!(f
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .is_err());
        drop(f.bank);

        // Restart: the revocation is re-enforced from the store with no
        // issuer round trip — the stolen check still bounces.
        let mut rng = StdRng::seed_from_u64(1);
        let bank_key = SigningKey::generate(&mut rng);
        let carol_key = SigningKey::generate(&mut rng);
        let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key));
        bank.register_grantor(
            p("carol"),
            GrantorVerifier::PublicKey(carol_key.verifying_key()),
        );
        let mut bank = bank.with_artifact_store(Arc::clone(&store)).unwrap();
        bank.open_account("carol-acct", vec![p("carol")]);
        bank.open_account("shop-acct", vec![p("shop")]);
        bank.account_mut("carol-acct").unwrap().credit(usd(), 500);
        assert_eq!(bank.revocation_directory().epoch_of(&p("carol")), 1);
        let mut f2 = Fixture {
            rng,
            bank,
            carol_auth: GrantAuthority::Keypair(carol_key),
        };
        let check = carol_check(&mut f2, 5, 50);
        let err = f2
            .bank
            .deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f2.rng,
            )
            .unwrap_err();
        assert!(matches!(err, AcctError::Verify(_)), "got {err:?}");
    }

    #[test]
    fn check_payable_to_the_bank_cannot_be_hijacked() {
        // Carol writes a check payable to the bank itself (e.g. a fee).
        // Mallory intercepts it and tries to deposit it into her account;
        // the bank must refuse, since the grantee is the bank, not her.
        let mut f = fixture();
        f.bank.open_account("mallory-acct", vec![p("mallory")]);
        let check = write_check(
            &p("carol"),
            &f.carol_auth,
            &p("bank"),
            "carol-acct",
            p("bank"),
            91,
            usd(),
            50,
            window(),
            &mut f.rng,
        );
        let err = f
            .bank
            .deposit(
                &check,
                &p("mallory"),
                "mallory-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
            .unwrap_err();
        assert_eq!(err, AcctError::NotAuthorized(p("mallory")));
        assert_eq!(f.bank.account("carol-acct").unwrap().balance(&usd()), 500);
    }
}
