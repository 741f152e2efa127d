//! The accounting server (§4): accounts, check collection, certification.
//!
//! A handler here does what is a request's own: it verifies the check,
//! validates against the state it would change, builds the
//! [`JournalRecord`] that says what changes, and replies. The change
//! itself — and its order against the journal — belongs to
//! `crate::ledger`, which applies a record the same way live as at
//! recovery; this module cannot reach the state any other way.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use rand::RngCore;

use proxy_storage::artifacts::{apply_and_record, StoredArtifact};
use proxy_storage::{ArtifactStore, Storage};
use restricted_proxy::cache::VerifiedCertCache;
use restricted_proxy::context::RequestContext;
use restricted_proxy::error::VerifyError;
use restricted_proxy::key::{GrantAuthority, GrantorVerifier, MapResolver};
use restricted_proxy::present::{Presentation, Proof};
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::proxy::{grant, Proxy};
use restricted_proxy::restriction::{
    AuthorizedEntry, Currency, ObjectName, Operation, Restriction, RestrictionSet,
};
use restricted_proxy::revocation::{RevocationArtifact, RevocationDirectory};
use restricted_proxy::shard::rank;
use restricted_proxy::time::{Timestamp, Validity};
use restricted_proxy::verify::{Prepared, Verifier};

use crate::account::Account;
use crate::check::{account_object, debit_op, Check, CheckInfo};
use crate::error::AcctError;
use crate::journal::{Journal, JournalRecord, OpGuard, Taken};
use crate::ledger::Ledger;

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

/// A check deposit as it arrives: what [`AccountingServer::deposit`]
/// takes, owned, so that [`AccountingServer::deposit_all`] can present
/// the check without copying its certificates.
#[derive(Clone, Debug)]
pub struct Deposit {
    /// The check, endorsed to the depositor.
    pub check: Check,
    /// Who deposits it: the payee, or the last endorsee.
    pub depositor: PrincipalId,
    /// The account to credit.
    pub to_account: String,
    /// Where to forward a check drawn on another server.
    pub next_hop: PrincipalId,
    /// The time the deposit is decided at.
    pub now: Timestamp,
}

/// The scratch of [`AccountingServer::deposit_all`]. A caller that
/// deposits group after group keeps one, so that its vectors keep their
/// capacity.
#[derive(Debug, Default)]
pub struct DepositGroup {
    staged: Vec<Result<Staged, AcctError>>,
    /// One per `Staged::Settle`, in order.
    prepared: Vec<Prepared>,
}

/// A deposit between its pure part and its finish.
#[derive(Debug)]
enum Staged {
    /// Drawn here: its check, presented.
    Settle {
        presentation: Presentation,
        info: CheckInfo,
        depositor: PrincipalId,
        to_account: String,
        now: Timestamp,
    },
    /// Drawn elsewhere: credited as uncollected and endorsed onward.
    Forward {
        check: Check,
        info: CheckInfo,
        to_account: String,
        next_hop: PrincipalId,
    },
}

/// An accounting server: accounts plus the check-clearing machinery of
/// Fig. 5.
///
/// The money-moving paths ([`Self::collect`], [`Self::deposit`],
/// [`Self::forward`], [`Self::certify`], …) take `&self`: accounts and
/// uncollected records live in lock-striped maps and the replay guard
/// is lock-striped too, so one server instance is shared across worker
/// threads. Per-account steps (ownership check +
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
    /// chain's Ed25519 seal checks, and caches positive results. Only
    /// the drawee verifies a chain (a hop that forwards endorses it
    /// unverified), so what the cache saves is the seal work of a check
    /// presented again after it was refused or replayed.
    verifier: Verifier<MapResolver>,
    /// Everything the journal covers; changed only by applying a
    /// [`JournalRecord`] to it.
    pub(crate) ledger: Ledger,
    /// Local mirror of issuers' revoked check/endorsement serials,
    /// consulted by the verifier on every deposited chain.
    revocations: Arc<RevocationDirectory>,
    /// The redo journal every state-changing operation goes through:
    /// attached to a storage backend by [`Self::with_storage`], detached
    /// (memory-only, every step a no-op) until then.
    journal: Journal,
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
        let directory = MapResolver::new().with(name.clone(), authority.verifier());
        let revocations = Arc::new(RevocationDirectory::new());
        Self {
            verifier: Verifier::new(name.clone(), directory)
                .with_seal_cache(Self::SEAL_CACHE_CAPACITY)
                .with_revocation(revocations.clone()),
            ledger: Ledger::new(name.clone()),
            name,
            authority,
            revocations,
            journal: Journal::detached(),
            artifacts: None,
        }
    }

    /// Opens this server on a durable storage backend: applies the
    /// compacted snapshot's records and then the journaled suffix
    /// (rebuilding accounts, uncollected deposits, the serial counter,
    /// and the replay guard's accept-once memory), then journals every
    /// later state-changing operation through `store`.
    ///
    /// Call before opening accounts, so a fresh boot's setup is
    /// journaled too. The TCP/event-loop paths are unchanged:
    /// durability is purely a constructor option.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the backend fails or refuses a
    /// corrupted log (fail-closed), [`AcctError::BadJournal`] when a
    /// stored record does not decode or cannot be applied (a log
    /// inconsistent with itself).
    pub fn with_storage(mut self, store: Arc<dyn Storage>) -> Result<Self, AcctError> {
        self.ledger.keep_runs();
        self.journal = Journal::recover(store, |rec| self.ledger.apply(rec))?;
        Ok(self)
    }

    /// Attaches a persisted artifact store and restores the revocation
    /// mirror from it ([`ArtifactStore::restore`]: every seal
    /// re-verified, zero issuer round trips); every artifact
    /// [`Self::apply_revocation`] later accepts is recorded to it. Call
    /// after registering grantors: a stored artifact of an unknown
    /// issuer is refused, not skipped.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] on backend failure; [`AcctError::Artifact`]
    /// for a stored artifact that does not decode, verify or apply.
    pub fn with_artifact_store(mut self, store: Arc<dyn Storage>) -> Result<Self, AcctError> {
        let artifacts = ArtifactStore::new(store);
        // The store format is shared with end-servers; an accounting
        // server keeps no membership mirror, so their records are skipped.
        artifacts.restore::<AcctError>(self.verifier.resolver(), &self.revocations, None)?;
        self.artifacts = Some(artifacts);
        Ok(self)
    }

    /// The local revocation mirror, for instrumentation and epoch sync.
    #[must_use]
    pub fn revocation_directory(&self) -> &Arc<RevocationDirectory> {
        &self.revocations
    }

    /// Verifies and applies a revocation artifact, then records it in
    /// the attached store ([`apply_and_record`]): a revoked check or
    /// endorsement serial is then refused at deposit with no issuer
    /// round trip, and a refused artifact leaves the last good state
    /// enforced.
    ///
    /// # Errors
    ///
    /// [`AcctError::Artifact`] on unknown issuer, bad seal, epoch
    /// regression, or delta-base mismatch; [`AcctError::Storage`] when
    /// durable recording fails (the revocation is applied in memory, but
    /// the server must treat the store as failed).
    pub fn apply_revocation(&self, artifact: &RevocationArtifact) -> Result<(), AcctError> {
        let (resolver, store) = (self.verifier.resolver(), self.artifacts.as_ref());
        apply_and_record(
            &self.revocations,
            artifact,
            resolver,
            store,
            StoredArtifact::Revocation,
        )
    }

    /// Runs `body` as one state-changing operation ([`Journal::run`],
    /// with this server's state as the snapshot a due compaction
    /// installs): its records are durable before its reply returns.
    fn run<T>(
        &self,
        body: impl FnOnce(&mut OpGuard<'_>) -> Result<T, AcctError>,
    ) -> Result<T, AcctError> {
        self.journal.run(|| self.ledger.snapshot(), body)
    }

    /// Installs a compacted snapshot of the whole server state,
    /// truncating the journal. Runs by itself every
    /// [`Journal::SNAPSHOT_EVERY`] records; a no-op without storage.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] when the install fails (the journal is
    /// then poisoned — fail-stop).
    pub fn compact(&self) -> Result<(), AcctError> {
        self.journal.compact(|| self.ledger.snapshot())
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
    ///
    /// [`ReplayCache`]: restricted_proxy::replay::ReplayCache
    /// [`ReplayCache::DEFAULT_CAPACITY`]: restricted_proxy::replay::ReplayCache::DEFAULT_CAPACITY
    ///
    /// Marks already in the guard — recovered by an earlier
    /// [`Self::with_storage`] — carry over, past the new bound if need
    /// be: forgetting a spent check is never the safe direction.
    #[must_use]
    pub fn with_replay_capacity(mut self, capacity: usize) -> Self {
        self.ledger.resize_replay(capacity);
        self
    }

    /// Opens an account. With storage attached the opening is durable;
    /// if the journal write fails the account is *not* created and the
    /// server is fail-stop (the journal poisons, and every later durable
    /// operation reports [`AcctError::Storage`]). An account already
    /// open is left as it is, its funds and holds with it, and nothing
    /// is journaled.
    pub fn open_account(&mut self, name: impl Into<String>, owners: Vec<PrincipalId>) {
        let name = name.into();
        if self.ledger.has_account(&name) {
            return;
        }
        // A failed scope has poisoned the journal; memory stays in
        // agreement with the log by not creating the account.
        let _ = self.run(|op| {
            self.ledger
                .post(op, JournalRecord::OpenAccount { name, owners })
        });
    }

    /// A snapshot of an account's current state. (Accounts live behind
    /// shard locks, so reads return a clone rather than a reference.)
    #[must_use]
    pub fn account(&self, name: &str) -> Option<Account> {
        self.ledger.account(name)
    }

    /// Mutable access to a copy of an account (administrative credit,
    /// quota ops); `&mut self` keeps every other operation out until the
    /// guard drops. Dropping it journals the copy's full state and only
    /// then installs it, as [`Self::open_account`] does — `Drop` cannot
    /// report failure, so a journal write error poisons the journal
    /// (fail-stop) and the account keeps the state the log holds.
    pub fn account_mut(&mut self, name: &str) -> Result<AccountMut<'_>, AcctError> {
        let account = self
            .ledger
            .account(name)
            .ok_or_else(|| AcctError::UnknownAccount(name.to_string()))?;
        Ok(AccountMut {
            account,
            server: self,
        })
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
    /// account, [`AcctError::Verify`] (the number already accepted) for a
    /// check whose number holds funds certified for another currency,
    /// amount or payee, and
    /// [`AcctError::InsufficientFunds`] for uncovered, uncertified checks.
    pub fn collect(
        &self,
        check: &Check,
        presenter: &PrincipalId,
        now: Timestamp,
    ) -> Result<Payment, AcctError> {
        let info = check.info()?;
        if info.drawn_on != self.name {
            return Err(AcctError::WrongServer {
                drawn_on: info.drawn_on.clone(),
                received_by: self.name.clone(),
            });
        }
        let presentation = check.proxy.present_delegate();
        let mut group = [self.verifier.prepare(&presentation, now)];
        self.verifier.settle(&mut group);
        let [prepared] = &group;
        self.settle(prepared, &presentation, info, presenter, now, None)
    }

    /// Settles a check drawn here (its fields are `info`), presented by
    /// `presenter` as `presentation`, which was `prepared` and has
    /// settled. In one journal scope: the verdict and the check's
    /// restrictions, its check number taken; then the debit of the
    /// payor (hold or balance) and, with `credit_to`, the credit (the
    /// same-server deposit path), as one `Settle` record that keeps the
    /// accept-once marks taken — the replay guard's memory must survive
    /// restart. A refusal builds no record, so the marks give themselves
    /// back (`Taken`): a bounced check may be presented again, live as
    /// after a restart.
    fn settle(
        &self,
        prepared: &Prepared,
        presentation: &Presentation,
        info: CheckInfo,
        presenter: &PrincipalId,
        now: Timestamp,
        credit_to: Option<&str>,
    ) -> Result<Payment, AcctError> {
        self.run(|op| {
            let mut ctx = RequestContext::new(
                self.name.clone(),
                debit_op(),
                account_object(&info.payor_account),
            )
            .at(now)
            .consuming(info.currency.clone(), info.amount);
            // The presenter is authenticated; the server trivially knows
            // its own identity (the final endorsement in a clearing chain
            // names this server as the collector).
            ctx.authenticated = vec![presenter.clone()];
            if *presenter != self.name {
                ctx.authenticated.push(self.name.clone());
            }
            let mut taken = Taken::new(self.ledger.replay_guard());
            self.verifier
                .finish(prepared, presentation, &ctx, &mut taken)
                .map_err(AcctError::Verify)?;
            // Ownership and funds are checked under the payor account's
            // shard lock, where the record is staged and the debit made:
            // racing presenters cannot interleave between the balance
            // check and the debit. The payee is credited with that lock
            // released. The record keeps the marks; a refusal before it
            // leaves them in `taken`, which gives them back as the body
            // returns, the shard lock released.
            self.ledger.post_on(op, &info.payor_account, |account| {
                if !account.is_owner(&info.payor) {
                    return Err(AcctError::NotAuthorized(info.payor.clone()));
                }
                let from_hold = match account.hold(info.check_no) {
                    // Certified check: settle from the hold, which pays
                    // the check it was placed for and no other.
                    Some(hold)
                        if hold.currency == info.currency
                            && hold.amount == info.amount
                            && hold.payee == info.payee =>
                    {
                        true
                    }
                    Some(_) => return Err(AcctError::held_number(info.check_no)),
                    None => {
                        account.covers(&info.currency, info.amount)?;
                        false
                    }
                };
                Ok(JournalRecord::Settle {
                    payor_account: info.payor_account.clone(),
                    check_no: info.check_no,
                    currency: info.currency.clone(),
                    amount: info.amount,
                    from_hold,
                    credit_to: credit_to.map(str::to_string),
                    replay: taken.keep(),
                })
            })?;
            Ok(Payment {
                payor: info.payor,
                check_no: info.check_no,
                currency: info.currency,
                amount: info.amount,
            })
        })
    }

    /// Deposits a check into `to_account`. If drawn on this server it
    /// settles immediately; otherwise the deposit is credited as
    /// *uncollected*, the check is endorsed (deposit-only) toward
    /// `next_hop`, and the caller forwards it (Fig. 5's E1). The group
    /// of one of [`Self::deposit_all`].
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
        let mut prepared = Vec::new();
        let staged = self.stage(
            Deposit {
                check: check.clone(),
                depositor: depositor.clone(),
                to_account: to_account.to_string(),
                next_hop,
                now,
            },
            &mut prepared,
        )?;
        self.verifier.settle(&mut prepared);
        self.finish_deposit(staged, prepared.first(), rng)
    }

    /// Deposits `deposits` as a group and hands each outcome, in order,
    /// to `decided` with its index. Every deposit runs its pure part
    /// first — the checks that need no state a deposit changes, and the
    /// pure part of verifying a check drawn here — then one settle step
    /// decides all their Ed25519 checks together ([`Verifier::settle`]:
    /// the checks of one payor share one equation), and only then is
    /// each deposit finished in order: its journal scope opened, its
    /// check number consumed, its record staged and awaited. Each outcome
    /// is the one [`Self::deposit`] gives when the deposits arrive one by
    /// one. `group` is scratch, left empty with its capacity kept.
    pub fn deposit_all<R: RngCore>(
        &self,
        deposits: impl IntoIterator<Item = Deposit>,
        group: &mut DepositGroup,
        rng: &mut R,
        mut decided: impl FnMut(usize, Result<DepositOutcome, AcctError>),
    ) {
        rank::assert_unheld("AccountingServer::deposit_all");
        let DepositGroup { staged, prepared } = group;
        staged.clear();
        prepared.clear();
        for deposit in deposits {
            staged.push(self.stage(deposit, prepared));
        }
        self.verifier.settle(prepared);
        let mut settled = prepared.iter();
        for (i, staged) in staged.drain(..).enumerate() {
            let prepared = match staged {
                Ok(Staged::Settle { .. }) => settled.next(),
                Ok(Staged::Forward { .. }) | Err(_) => None,
            };
            decided(
                i,
                staged.and_then(|s| self.finish_deposit(s, prepared, rng)),
            );
        }
        prepared.clear();
    }

    /// The pure part of `deposit`: the checks that read no state a
    /// deposit changes, the first of them to fail refusing it, and, for a
    /// check drawn here, the pure part of its verification, onto
    /// `prepared`. The check's certificates move into its presentation.
    fn stage(&self, deposit: Deposit, prepared: &mut Vec<Prepared>) -> Result<Staged, AcctError> {
        let Deposit {
            check,
            depositor,
            to_account,
            next_hop,
            now,
        } = deposit;
        if !self.ledger.has_account(&to_account) {
            return Err(AcctError::UnknownAccount(to_account));
        }
        let info = check.info()?;
        // A check payable to this server would satisfy its own grantee
        // restriction during chain-walking (the server trivially counts as
        // authenticated); only the server itself may negotiate such a
        // check, or any depositor could route its funds anywhere.
        if info.payee == self.name && depositor != self.name {
            return Err(AcctError::NotAuthorized(depositor));
        }
        if info.drawn_on != self.name {
            return Ok(Staged::Forward {
                check,
                info,
                to_account,
                next_hop,
            });
        }
        let presentation = Presentation {
            certs: check.proxy.certs,
            proof: Proof::Identity,
        };
        prepared.push(self.verifier.prepare(&presentation, now));
        Ok(Staged::Settle {
            presentation,
            info,
            depositor,
            to_account,
            now,
        })
    }

    /// The stateful finish of a staged deposit, in its own journal scope;
    /// `prepared` is its check's, settled.
    fn finish_deposit<R: RngCore>(
        &self,
        staged: Staged,
        prepared: Option<&Prepared>,
        rng: &mut R,
    ) -> Result<DepositOutcome, AcctError> {
        match staged {
            Staged::Settle {
                presentation,
                info,
                depositor,
                to_account,
                now,
            } => {
                // Never `None`: a check drawn here was prepared.
                let prepared = prepared.ok_or(AcctError::Verify(VerifyError::EmptyChain))?;
                self.settle(
                    prepared,
                    &presentation,
                    info,
                    &depositor,
                    now,
                    Some(&to_account),
                )
                .map(DepositOutcome::Settled)
            }
            Staged::Forward {
                check,
                info,
                to_account,
                next_hop,
            } => self.forward_deposit(&check, info, &to_account, next_hop, rng),
        }
    }

    /// Credits a check drawn elsewhere as uncollected and endorses it
    /// (deposit-only) toward `next_hop`.
    fn forward_deposit<R: RngCore>(
        &self,
        check: &Check,
        info: CheckInfo,
        to_account: &str,
        next_hop: PrincipalId,
        rng: &mut R,
    ) -> Result<DepositOutcome, AcctError> {
        self.run(|op| {
            let (serial, endorsed) =
                self.endorse(check, next_hop.clone(), Some(to_account), rng)?;
            let pending = JournalRecord::DepositPending {
                payor: info.payor,
                check_no: info.check_no,
                to_account: to_account.to_string(),
                currency: info.currency,
                amount: info.amount,
                serial,
            };
            self.ledger.post(op, pending)?;
            Ok(DepositOutcome::Forwarded {
                check: endorsed,
                next_hop,
            })
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
        self.run(|op| {
            let (serial, endorsed) = self.endorse(check, next_hop, None, rng)?;
            // Endorsement serials are accept-once identifiers at peer
            // servers; persisting the counter's high-water mark keeps a
            // restarted server from re-issuing a consumed serial.
            self.ledger.post(op, JournalRecord::Forward { serial })?;
            Ok(endorsed)
        })
    }

    /// The step both forwarding paths take before their record: endorse
    /// `check` toward `next_hop` (deposit-only into `deposit_to` when
    /// given) under the next serial. Signing is the fallible step, and
    /// every fallible step precedes the record: once the record is
    /// durable the operation must not fail, since recovery replays the
    /// serial advance whether or not the caller ever saw the endorsed
    /// check. A failed endorsement merely wastes an in-memory serial,
    /// which is safe: the accept-once property only matters for serials
    /// on issued checks.
    fn endorse<R: RngCore>(
        &self,
        check: &Check,
        next_hop: PrincipalId,
        deposit_to: Option<&str>,
        rng: &mut R,
    ) -> Result<(u64, Check), AcctError> {
        let serial = self.ledger.take_serial();
        let window = check
            .proxy
            .effective_validity()
            .ok_or(AcctError::MalformedCheck("validity"))?;
        let endorsed = check.endorse(
            &self.name,
            &self.authority,
            next_hop,
            deposit_to,
            window,
            serial,
            rng,
        )?;
        Ok((serial, endorsed))
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
        // The deposit was credited as uncollected at deposit time;
        // finality moves it into the balance. (A bounced check would
        // instead drop it — see `bounce`.) Of two racing duplicate
        // payments exactly one takes the entry.
        self.run(|op| {
            let rec = JournalRecord::PaymentApplied {
                payor: payment.payor.clone(),
                check_no: payment.check_no,
            };
            self.ledger.post_taking(op, rec)
        })
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
        self.run(|op| {
            let payor = payor.clone();
            self.ledger
                .post_taking(op, JournalRecord::Bounced { payor, check_no })
        })
    }

    /// Amount of `currency` pending collection into `account`
    /// (quiescently consistent across shards).
    #[must_use]
    pub fn uncollected_total(&self, account: &str, currency: &Currency) -> u64 {
        self.ledger.uncollected_total(account, currency)
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
        // lock, released before the funds reach the cashier pool.
        self.run(|op| {
            self.ledger.post_on(op, from_account, |acct| {
                if !acct.is_owner(purchaser) {
                    return Err(AcctError::NotAuthorized(purchaser.clone()));
                }
                acct.covers(&currency, amount)?;
                Ok(JournalRecord::CashierPurchase {
                    from_account: from_account.to_string(),
                    currency: currency.clone(),
                    amount,
                })
            })?;
            // The server can verify its own signature at collection
            // time: its verifier registered the self-key at construction.
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
        })
    }

    /// Certifies a check (§4's second mechanism): places a hold on the
    /// payor's funds and returns an authorization proxy "certifying that
    /// the client has sufficient resources to cover the check".
    ///
    /// # Errors
    ///
    /// [`AcctError::NotAuthorized`] unless `requester` owns the account;
    /// [`AcctError::Verify`] (the number already accepted) when
    /// `check_no` is already certified;
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
        // over-commit the balance.
        self.run(|op| {
            let serial = self.ledger.take_serial();
            self.ledger.post_on(op, account, |acct| {
                if !acct.is_owner(requester) {
                    return Err(AcctError::NotAuthorized(requester.clone()));
                }
                acct.can_hold(check_no, &currency, amount)?;
                Ok(JournalRecord::Certified {
                    account: account.to_string(),
                    check_no,
                    currency: currency.clone(),
                    amount,
                    payee,
                    serial,
                })
            })?;
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
        })
    }
}

/// Exclusive administrative access to one account
/// ([`AccountingServer::account_mut`]). Dereferences to a copy of the
/// [`Account`]; dropping the guard records the copy's full state as an
/// `AdminAccount` record, then applies that record.
#[derive(Debug)]
pub struct AccountMut<'a> {
    account: Account,
    server: &'a AccountingServer,
}

impl Deref for AccountMut<'_> {
    type Target = Account;

    fn deref(&self) -> &Account {
        &self.account
    }
}

impl DerefMut for AccountMut<'_> {
    fn deref_mut(&mut self) -> &mut Account {
        &mut self.account
    }
}

impl Drop for AccountMut<'_> {
    fn drop(&mut self) {
        let rec = JournalRecord::AdminAccount {
            account: self.account.clone(),
        };
        // A failed scope has poisoned the journal; memory stays in
        // agreement with the log by not applying the record.
        let ledger = &self.server.ledger;
        let _ = self.server.run(|op| ledger.post(op, rec));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::check::write_check;
    use proxy_crypto::ed25519::SigningKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub(crate) fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    pub(crate) fn usd() -> Currency {
        Currency::new("USD")
    }

    pub(crate) fn window() -> Validity {
        Validity::new(Timestamp(0), Timestamp(1000))
    }

    pub(crate) struct Fixture {
        pub(crate) rng: StdRng,
        pub(crate) bank: AccountingServer,
        pub(crate) carol_auth: GrantAuthority,
    }

    /// A bank that knows carol's key, as `build` finishes it; no
    /// accounts yet.
    pub(crate) fn boot(build: impl FnOnce(AccountingServer) -> AccountingServer) -> Fixture {
        let mut rng = StdRng::seed_from_u64(1);
        let bank_key = SigningKey::generate(&mut rng);
        let carol_key = SigningKey::generate(&mut rng);
        let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key));
        bank.register_grantor(
            p("carol"),
            GrantorVerifier::PublicKey(carol_key.verifying_key()),
        );
        Fixture {
            rng,
            bank: build(bank),
            carol_auth: GrantAuthority::Keypair(carol_key),
        }
    }

    /// One bank holding both carol's and the shop's accounts.
    pub(crate) fn fixture_with(
        build: impl FnOnce(AccountingServer) -> AccountingServer,
    ) -> Fixture {
        let mut f = boot(build);
        f.bank.open_account("carol-acct", vec![p("carol")]);
        f.bank.open_account("shop-acct", vec![p("shop")]);
        f.bank.account_mut("carol-acct").unwrap().credit(usd(), 500);
        f
    }

    fn fixture() -> Fixture {
        fixture_with(|bank| bank)
    }

    pub(crate) fn carol_check(f: &mut Fixture, check_no: u64, amount: u64) -> Check {
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

    /// Every unit of `currency` the bank holds: the balances, holds and
    /// allocations of each account the tests below open, and the cashier
    /// pool.
    fn total(f: &Fixture, currency: &Currency) -> u64 {
        ["carol-acct", "shop-acct", "mallory-acct", CASHIER_ACCOUNT]
            .into_iter()
            .filter_map(|name| f.bank.account(name))
            .map(|a| a.balance(currency) + a.held(currency) + a.allocated(currency))
            .sum()
    }

    #[test]
    fn a_hold_pays_only_the_check_it_was_certified_for() {
        let eur = Currency::new("EUR");
        // Checks numbered #9 against a hold of 10 USD payable to the shop:
        // more than was held, another currency, another payee. Each is
        // refused and gives its number back, so the certified #9 pays.
        for (currency, amount, payee) in [
            (usd(), 400, "shop"),
            (eur.clone(), 10, "shop"),
            (usd(), 10, "mallory"),
        ] {
            let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
            let journaled = |bank: AccountingServer| bank.with_storage(Arc::clone(&store)).unwrap();
            let mut f = fixture_with(journaled);
            f.bank.open_account("mallory-acct", vec![p("mallory")]);
            f.bank
                .certify(
                    &p("carol"),
                    "carol-acct",
                    9,
                    usd(),
                    10,
                    p("shop"),
                    window(),
                    &mut f.rng,
                )
                .unwrap();
            let check = write_check(
                &p("carol"),
                &f.carol_auth,
                &p("bank"),
                "carol-acct",
                p(payee),
                9,
                currency.clone(),
                amount,
                window(),
                &mut f.rng,
            );
            let err = f
                .bank
                .deposit(
                    &check,
                    &p(payee),
                    &format!("{payee}-acct"),
                    p("bank"),
                    Timestamp(1),
                    &mut f.rng,
                )
                .unwrap_err();
            let what = format!("{amount} {currency} to {payee}");
            assert_eq!(err, AcctError::held_number(9), "{what}");
            assert_eq!(total(&f, &usd()), 500, "{what}: USD conserved");
            assert_eq!(total(&f, &eur), 0, "{what}: no EUR minted");
            let carol = f.bank.account("carol-acct").unwrap();
            assert_eq!(carol.held(&usd()), 10, "{what}: the hold stands");

            let certified = carol_check(&mut f, 9, 10);
            let paid = f.bank.deposit(
                &certified,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            );
            assert!(
                matches!(paid, Ok(DepositOutcome::Settled(_))),
                "{what}: then the certified #9: {paid:?}"
            );
            let carol = f.bank.account("carol-acct").unwrap();
            assert_eq!(carol.held(&usd()), 0, "{what}: the hold is paid out");
            let shop = f.bank.account("shop-acct").unwrap();
            assert_eq!(shop.balance(&usd()), 10, "{what}: to the shop");
            assert_eq!(total(&f, &usd()), 500, "{what}: USD conserved");
            let recovered = boot(journaled);
            assert_eq!(
                crate::ledger::tests::canonical(&recovered.bank.ledger),
                crate::ledger::tests::canonical(&f.bank.ledger),
                "{what}: the journal rebuilds accounts, holds and marks"
            );
        }
    }

    #[test]
    fn a_check_refused_past_its_number_gives_the_number_back() {
        use restricted_proxy::restriction::Denial;
        let shop_key = SigningKey::generate(&mut StdRng::seed_from_u64(2));
        let mut f = fixture();
        f.bank.register_grantor(
            p("shop"),
            GrantorVerifier::PublicKey(shop_key.verifying_key()),
        );
        let check = carol_check(&mut f, 9, 50);
        // The shop endorses the check to mallory and presents it itself:
        // the head certificate takes #9, then the endorsement refuses.
        let astray = check
            .endorse(
                &p("shop"),
                &GrantAuthority::Keypair(shop_key),
                p("mallory"),
                None,
                window(),
                1,
                &mut f.rng,
            )
            .unwrap();
        let deposit = |f: &mut Fixture, check: &Check| {
            f.bank.deposit(
                check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut f.rng,
            )
        };
        let err = deposit(&mut f, &astray).unwrap_err();
        assert!(
            matches!(
                err,
                AcctError::Verify(VerifyError::Denied(Denial::GranteeNotPresent { .. }))
            ),
            "{err:?}"
        );
        assert!(matches!(
            deposit(&mut f, &check),
            Ok(DepositOutcome::Settled(_))
        ));
        assert_eq!(
            deposit(&mut f, &check).unwrap_err(),
            AcctError::held_number(9),
            "the number is taken once it pays"
        );
        let shop = f.bank.account("shop-acct").unwrap();
        assert_eq!(shop.balance(&usd()), 50);
    }

    #[test]
    fn a_check_number_is_certified_once() {
        let mut f = fixture();
        let certify = |f: &mut Fixture| {
            f.bank.certify(
                &p("carol"),
                "carol-acct",
                9,
                usd(),
                100,
                p("shop"),
                window(),
                &mut f.rng,
            )
        };
        certify(&mut f).unwrap();
        assert_eq!(certify(&mut f).unwrap_err(), AcctError::held_number(9));
        let carol = f.bank.account("carol-acct").unwrap();
        assert_eq!((carol.balance(&usd()), carol.held(&usd())), (400, 100));
        assert_eq!(total(&f, &usd()), 500);
    }

    #[test]
    fn opening_an_open_account_keeps_its_funds() {
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let journaled = |bank: AccountingServer| bank.with_storage(Arc::clone(&store)).unwrap();
        let mut f = fixture_with(journaled);
        f.bank.open_account("carol-acct", vec![p("carol")]);
        let carol = f.bank.account("carol-acct").unwrap();
        assert_eq!(carol.balance(&usd()), 500, "live");
        let recovered = boot(journaled).bank.account("carol-acct").unwrap();
        assert_eq!(recovered.balance(&usd()), 500, "after recovery");
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

    #[test]
    fn revocations_survive_restart_through_the_artifact_store() {
        use restricted_proxy::revocation::{ArtifactKind, RevocationArtifact};
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let boot = || fixture_with(|bank| bank.with_artifact_store(Arc::clone(&store)).unwrap());
        let mut f = boot();
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
        let mut f2 = boot();
        assert_eq!(f2.bank.revocation_directory().epoch_of(&p("carol")), 1);
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
    fn an_undecodable_stored_artifact_is_the_same_fault_on_both_servers() {
        let garbage = b"not an artifact";
        use restricted_proxy::revocation::ArtifactError;
        let fault = ArtifactError::Decode(RevocationArtifact::decode(garbage).unwrap_err());
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        ArtifactStore::new(Arc::clone(&store))
            .record(&StoredArtifact::Revocation(garbage.to_vec()))
            .unwrap();
        let bank_key = SigningKey::generate(&mut StdRng::seed_from_u64(1));
        let bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
            .with_artifact_store(Arc::clone(&store));
        assert_eq!(bank.err(), Some(AcctError::Artifact(fault.clone())));
        let end =
            proxy_authz::EndServer::new(p("fs"), MapResolver::new()).with_artifact_store(store);
        assert_eq!(end.err(), Some(proxy_authz::AuthzError::Artifact(fault)));
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
