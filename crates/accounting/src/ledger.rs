//! The ledger: the accounting state, and the one place a
//! [`JournalRecord`] is turned into a change of it (DESIGN.md §15.3).
//!
//! [`Ledger::apply`] is what a record *means*. Recovery feeds it the
//! snapshot's records and then the log's; a live handler in
//! [`crate::server`] reaches the same code through one of three entry
//! points that put validation and [`OpGuard::stage`] in front of it, in
//! the critical section the record's kind calls for:
//!
//! * [`Ledger::post_on`] — a record that names an account (`Settle`,
//!   `CashierPurchase`, `Certified`): validate, build the record, stage
//!   it and change that account, all under the account's shard lock;
//!   then the rest of the effect, that lock released.
//! * [`Ledger::post_taking`] — a record that takes a pending deposit
//!   (`PaymentApplied`, `Bounced`): staged inside the gated remove that
//!   is its linearization point.
//! * [`Ledger::post`] — a record with neither (`DepositPending`,
//!   `Forward`): staged, then applied.
//!
//! So a handler validates and replies, and cannot apply a record any
//! other way than recovery will: the state's fields are private to this
//! module. Locks are taken strictly one at a time (DESIGN.md §9).
//!
//! [`Ledger::snapshot`] is the inverse: the shortest log that rebuilds
//! the state, in canonical order.

use std::sync::atomic::{AtomicU64, Ordering};

use restricted_proxy::principal::PrincipalId;
use restricted_proxy::replay::ReplayCache;
use restricted_proxy::restriction::Currency;
use restricted_proxy::shard::ShardMap;

use crate::account::Account;
use crate::error::AcctError;
use crate::journal::{JournalRecord, OpGuard, ReplayMark};
use crate::server::CASHIER_ACCOUNT;

/// Marks per [`JournalRecord::Marks`] of a snapshot: far below what one
/// record's decoder reads back (2^20), and ~100 KiB encoded.
const MARKS_PER_RECORD: usize = 4096;

/// A cross-server deposit credited but not yet collected.
#[derive(Clone, Debug)]
struct Uncollected {
    account: String,
    currency: Currency,
    amount: u64,
}

/// Everything an accounting server journals: accounts, uncollected
/// deposits, the accept-once memory and the serial counter.
#[derive(Debug)]
pub(crate) struct Ledger {
    /// The server's name: the owner of its cashier pool.
    server: PrincipalId,
    accounts: ShardMap<String, Account>,
    uncollected: ShardMap<(PrincipalId, u64), Uncollected>,
    replay: ReplayCache,
    next_serial: AtomicU64,
}

/// The account whose shard lock the first step of `rec` runs under.
fn account_of(rec: &JournalRecord) -> Option<&str> {
    match rec {
        JournalRecord::Settle { payor_account, .. } => Some(payor_account),
        JournalRecord::CashierPurchase { from_account, .. } => Some(from_account),
        JournalRecord::Certified { account, .. } => Some(account),
        JournalRecord::OpenAccount { .. }
        | JournalRecord::AdminAccount { .. }
        | JournalRecord::DepositPending { .. }
        | JournalRecord::Forward { .. }
        | JournalRecord::PaymentApplied { .. }
        | JournalRecord::Bounced { .. }
        | JournalRecord::Marks { .. } => None,
    }
}

/// The pending deposit `rec` takes.
fn pending_of(rec: &JournalRecord) -> Option<(PrincipalId, u64)> {
    match rec {
        JournalRecord::PaymentApplied { payor, check_no }
        | JournalRecord::Bounced { payor, check_no } => Some((payor.clone(), *check_no)),
        JournalRecord::OpenAccount { .. }
        | JournalRecord::AdminAccount { .. }
        | JournalRecord::Settle { .. }
        | JournalRecord::DepositPending { .. }
        | JournalRecord::Forward { .. }
        | JournalRecord::CashierPurchase { .. }
        | JournalRecord::Certified { .. }
        | JournalRecord::Marks { .. } => None,
    }
}

/// The part of `rec` on the account it names ([`account_of`]): take the
/// hold, debit, or place the hold. Runs under that account's shard lock.
fn apply_on_account(rec: &JournalRecord, acct: &mut Account) -> Result<(), AcctError> {
    match rec {
        JournalRecord::Settle {
            check_no,
            currency,
            amount,
            from_hold: true,
            ..
        } => match acct.hold(*check_no) {
            None => Err(AcctError::BadJournal("settle names a missing hold")),
            Some(hold) if hold.currency != *currency || hold.amount != *amount => {
                Err(AcctError::BadJournal("settle differs from its hold"))
            }
            Some(_) => {
                acct.take_hold(*check_no);
                Ok(())
            }
        },
        JournalRecord::Settle {
            currency, amount, ..
        }
        | JournalRecord::CashierPurchase {
            currency, amount, ..
        } => acct
            .debit(currency, *amount)
            .map_err(|_| AcctError::BadJournal("debit exceeds the balance")),
        JournalRecord::Certified {
            check_no,
            currency,
            amount,
            payee,
            ..
        } => acct
            .place_hold(*check_no, currency.clone(), *amount, payee.clone())
            .map_err(|e| {
                AcctError::BadJournal(match e {
                    AcctError::InsufficientFunds { .. } => "certify exceeds the balance",
                    AcctError::Verify(_)
                    | AcctError::UnknownAccount(_)
                    | AcctError::MalformedCheck(_)
                    | AcctError::WrongServer { .. }
                    | AcctError::NotAuthorized(_)
                    | AcctError::NoRoute(_)
                    | AcctError::NoHold { .. }
                    | AcctError::Storage(_)
                    | AcctError::BadJournal(_)
                    | AcctError::Artifact(_) => "certify names a held check number",
                })
            }),
        // No step on an account: `account_of` names none for these.
        JournalRecord::OpenAccount { .. }
        | JournalRecord::AdminAccount { .. }
        | JournalRecord::DepositPending { .. }
        | JournalRecord::Forward { .. }
        | JournalRecord::PaymentApplied { .. }
        | JournalRecord::Bounced { .. }
        | JournalRecord::Marks { .. } => Ok(()),
    }
}

impl Ledger {
    pub(crate) fn new(server: PrincipalId) -> Self {
        Self {
            server,
            accounts: ShardMap::new(),
            uncollected: ShardMap::new(),
            replay: ReplayCache::new(),
            next_serial: AtomicU64::new(1),
        }
    }

    /// Applies one record: the whole of what it means, with no
    /// cryptography and no journal. A record that cannot be applied
    /// means the log disagrees with itself — an error, never a silent
    /// skip.
    ///
    /// # Errors
    ///
    /// [`AcctError::BadJournal`] naming what the record asks for that
    /// the state does not hold.
    pub(crate) fn apply(&self, rec: &JournalRecord) -> Result<(), AcctError> {
        if let Some(key) = pending_of(rec) {
            let taken = self.uncollected.remove(&key);
            let taken = taken.ok_or(AcctError::BadJournal("record names no pending deposit"))?;
            return self.apply_taken(rec, taken);
        }
        if let Some(name) = account_of(rec) {
            self.accounts.update(&name.to_string(), |acct| {
                let acct = acct.ok_or(AcctError::BadJournal("record names a missing account"))?;
                apply_on_account(rec, acct)
            })?;
        }
        self.apply_rest(rec)
    }

    /// What `rec` does besides its step on the account it names and its
    /// taking of a pending deposit: for most kinds, everything.
    fn apply_rest(&self, rec: &JournalRecord) -> Result<(), AcctError> {
        match rec {
            JournalRecord::OpenAccount { name, owners } => {
                let account = Account::new(name.clone(), owners.clone());
                self.accounts.insert(name.clone(), account);
            }
            JournalRecord::AdminAccount { account } => {
                self.accounts
                    .insert(account.name().to_string(), account.clone());
            }
            JournalRecord::Settle {
                currency,
                amount,
                credit_to,
                replay,
                ..
            } => {
                // The credit rides in the Settle record, so recovery
                // replays both halves or neither.
                if let Some(to) = credit_to {
                    self.credit(to, currency, *amount)?;
                }
                // Live, verification has already made these marks, and
                // making one twice changes nothing.
                self.rehydrate(replay);
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
                    (payor.clone(), *check_no),
                    Uncollected {
                        account: to_account.clone(),
                        currency: currency.clone(),
                        amount: *amount,
                    },
                );
                self.raise_serial(*serial);
            }
            JournalRecord::Forward { serial } | JournalRecord::Certified { serial, .. } => {
                self.raise_serial(*serial);
            }
            JournalRecord::CashierPurchase {
                currency, amount, ..
            } => {
                // Funds wait in the cashier pool until the check is
                // collected.
                let pool = CASHIER_ACCOUNT.to_string();
                self.accounts.upsert(
                    pool.clone(),
                    || Account::new(pool, vec![self.server.clone()]),
                    |pool| pool.credit(currency.clone(), *amount),
                );
            }
            JournalRecord::Marks { replay } => self.rehydrate(replay),
            // Nothing besides the taking: see `apply_taken`.
            JournalRecord::PaymentApplied { .. } | JournalRecord::Bounced { .. } => {}
        }
        Ok(())
    }

    /// What becomes of the pending deposit `rec` took: a payment makes
    /// the funds final, a bounce drops them.
    fn apply_taken(&self, rec: &JournalRecord, taken: Uncollected) -> Result<(), AcctError> {
        match rec {
            JournalRecord::PaymentApplied { .. } => {
                self.credit(&taken.account, &taken.currency, taken.amount)
            }
            // A bounce only drops the deposit; the rest take none
            // (`pending_of`).
            JournalRecord::Bounced { .. }
            | JournalRecord::OpenAccount { .. }
            | JournalRecord::AdminAccount { .. }
            | JournalRecord::Settle { .. }
            | JournalRecord::DepositPending { .. }
            | JournalRecord::Forward { .. }
            | JournalRecord::CashierPurchase { .. }
            | JournalRecord::Certified { .. }
            | JournalRecord::Marks { .. } => Ok(()),
        }
    }

    fn credit(&self, account: &str, currency: &Currency, amount: u64) -> Result<(), AcctError> {
        self.accounts.update(&account.to_string(), |acct| {
            acct.map(|acct| acct.credit(currency.clone(), amount))
                .ok_or(AcctError::BadJournal("record credits a missing account"))
        })
    }

    fn rehydrate(&self, marks: &[ReplayMark]) {
        for m in marks {
            self.replay.rehydrate(&m.grantor, m.id, m.expires);
        }
    }

    /// Raises the serial counter past `issued`.
    fn raise_serial(&self, issued: u64) {
        self.next_serial
            .fetch_max(issued.saturating_add(1), Ordering::Relaxed);
    }

    /// Live entry point for a record that names `account`. Under that
    /// account's shard lock: `validate` checks the request against the
    /// account and builds the record, the record is staged, and the
    /// account is changed — racing operations cannot interleave between the check
    /// and the change, and log order agrees with memory order. The rest
    /// of the effect follows with the lock released; the caller waits
    /// on `op` after that.
    ///
    /// # Errors
    ///
    /// [`AcctError::UnknownAccount`], whatever `validate` refuses with,
    /// and [`AcctError::Storage`] from the stage; nothing has changed
    /// then.
    /// A refusal by the apply step after the stage poisons the journal.
    #[expect(
        clippy::disallowed_macros,
        reason = "the `assert_eq!` inside `debug_assert_eq!`, compiled out of release builds: it checks that `validate` built a record naming the account it locked, an invariant of local code, not of input"
    )]
    pub(crate) fn post_on(
        &self,
        op: &mut OpGuard<'_>,
        account: &str,
        validate: impl FnOnce(&Account) -> Result<JournalRecord, AcctError>,
    ) -> Result<(), AcctError> {
        let rec = self.accounts.update(&account.to_string(), |acct| {
            let acct = acct.ok_or_else(|| AcctError::UnknownAccount(account.to_string()))?;
            let rec = validate(acct)?;
            debug_assert_eq!(account_of(&rec), Some(account));
            op.stage(&rec)?;
            apply_on_account(&rec, acct).map_err(|e| op.poison_refused(e))?;
            Ok::<_, AcctError>(rec)
        })?;
        self.apply_rest(&rec).map_err(|e| op.poison_refused(e))
    }

    /// Live entry point for a record that takes a pending deposit. The
    /// gated atomic remove is the linearization point: exactly one of
    /// two racing duplicates takes the entry and stages the record; the
    /// loser finds nothing, stages nothing and gets `false`.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] from the stage; the entry is then left
    /// untouched.
    pub(crate) fn post_taking(
        &self,
        op: &mut OpGuard<'_>,
        rec: &JournalRecord,
    ) -> Result<bool, AcctError> {
        let key = pending_of(rec).ok_or(AcctError::BadJournal("record takes no deposit"))?;
        match self.uncollected.remove_if(&key, |_| op.stage(rec))? {
            Some(taken) => {
                self.apply_taken(rec, taken)
                    .map_err(|e| op.poison_refused(e))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Live entry point for a record with no critical section of its
    /// own. Staged *before* its effect becomes visible: a dependent
    /// record (a payment's return) can only stage after it.
    ///
    /// # Errors
    ///
    /// [`AcctError::Storage`] from the stage.
    pub(crate) fn post(&self, op: &mut OpGuard<'_>, rec: &JournalRecord) -> Result<(), AcctError> {
        op.stage(rec)?;
        self.apply(rec).map_err(|e| op.poison_refused(e))
    }

    /// The shortest log that rebuilds this state, in canonical order
    /// (equal states give equal bytes, whatever the hash maps' order):
    /// the serial floor, every account by name, every pending deposit
    /// by key, every live mark by `(grantor, id)`. Callers must exclude
    /// concurrent mutation (the journal's compaction gate, or `&mut`).
    pub(crate) fn snapshot(&self) -> Vec<JournalRecord> {
        let last_issued = self.serial_floor().saturating_sub(1);
        let mut accounts = Vec::new();
        self.accounts.for_each(|_, a| accounts.push(a.clone()));
        accounts.sort_by(|a, b| a.name().cmp(b.name()));
        let mut pending = Vec::new();
        self.uncollected
            .for_each(|key, u| pending.push((key.clone(), u.clone())));
        pending.sort_by(|a, b| a.0.cmp(&b.0));
        let mut marks = Vec::new();
        self.replay.for_each_entry(|grantor, id, expires| {
            marks.push(ReplayMark {
                grantor: grantor.clone(),
                id,
                expires,
            });
        });
        marks.sort_by(|a, b| (&a.grantor, a.id).cmp(&(&b.grantor, b.id)));

        let mut records = vec![JournalRecord::Forward {
            serial: last_issued,
        }];
        for account in accounts {
            records.push(JournalRecord::AdminAccount { account });
        }
        for ((payor, check_no), u) in pending {
            records.push(JournalRecord::DepositPending {
                payor,
                check_no,
                to_account: u.account,
                currency: u.currency,
                amount: u.amount,
                serial: last_issued,
            });
        }
        // One `Marks` of everything would outgrow what its decoder
        // reads back; so would any count of them, hence no count.
        let mut marks = marks.into_iter().peekable();
        while marks.peek().is_some() {
            let replay = marks.by_ref().take(MARKS_PER_RECORD).collect();
            records.push(JournalRecord::Marks { replay });
        }
        records
    }

    /// Issues the next endorsement / certification serial.
    pub(crate) fn take_serial(&self) -> u64 {
        self.next_serial.fetch_add(1, Ordering::Relaxed)
    }

    /// The next serial to issue: every issued one lies below it.
    pub(crate) fn serial_floor(&self) -> u64 {
        self.next_serial.load(Ordering::Relaxed)
    }

    /// The accept-once memory, for chain verification to consume from.
    pub(crate) fn replay_guard(&self) -> &ReplayCache {
        &self.replay
    }

    /// Re-sizes the accept-once memory; the marks it holds carry over,
    /// past the new bound if need be.
    pub(crate) fn resize_replay(&mut self, capacity: usize) {
        let resized = ReplayCache::with_capacity(capacity, ReplayCache::DEFAULT_SHARDS);
        self.replay
            .for_each_entry(|grantor, id, expires| resized.rehydrate(grantor, id, expires));
        self.replay = resized;
    }

    pub(crate) fn has_account(&self, name: &str) -> bool {
        self.accounts.contains_key(&name.to_string())
    }

    /// A copy of an account's current state.
    pub(crate) fn account(&self, name: &str) -> Option<Account> {
        self.accounts.get_cloned(&name.to_string())
    }

    /// Amount of `currency` pending collection into `account`
    /// (quiescently consistent across shards).
    pub(crate) fn uncollected_total(&self, account: &str, currency: &Currency) -> u64 {
        self.uncollected.fold(0u64, |acc, _, u| {
            if u.account == account && u.currency == *currency {
                acc + u.amount
            } else {
                acc
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proxy_crypto::ed25519::SigningKey;
    use proxy_storage::Storage;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::key::GrantAuthority;
    use restricted_proxy::time::Timestamp;

    use super::*;
    use crate::check::write_check;
    use crate::journal::{decode_snapshot, encode_snapshot, Journal};
    use crate::server::tests::{boot, carol_check, fixture_with, p, usd, window, Fixture};
    use crate::server::{AccountingServer, DepositOutcome, Payment};

    /// Builds the standard fixture on a durable (in-memory) store:
    /// every account opening and credit is journaled through `store`.
    fn durable_fixture(store: Arc<dyn Storage>) -> Fixture {
        fixture_with(|bank| bank.with_storage(store).unwrap())
    }

    /// "Restarts" the bank: a fresh server recovered from `store` with
    /// the same keys (regenerated from the fixture's fixed seed).
    fn restart(store: Arc<dyn Storage>) -> AccountingServer {
        boot(|bank| bank.with_storage(store).unwrap()).bank
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
    fn spent_checks_stay_spent_in_either_builder_order() {
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let mut f = durable_fixture(Arc::clone(&store));
        let check = carol_check(&mut f, 1, 100);
        let mut deposit = |bank: &AccountingServer| {
            let (shop, now) = (p("shop"), Timestamp(1));
            bank.deposit(&check, &shop, "shop-acct", p("bank"), now, &mut f.rng)
        };
        deposit(&f.bank).unwrap();

        // Resizing the guard after recovery must not empty it.
        let (s1, s2) = (Arc::clone(&store), Arc::clone(&store));
        let first = boot(|bank| bank.with_replay_capacity(4096).with_storage(s1).unwrap());
        let last = boot(|bank| bank.with_storage(s2).unwrap().with_replay_capacity(4096));
        for (order, bank) in [("capacity first", first.bank), ("capacity last", last.bank)] {
            let err = deposit(&bank).unwrap_err();
            assert!(matches!(err, AcctError::Verify(_)), "{order}: {err:?}");
            let shop = bank.account("shop-acct").unwrap().balance(&usd());
            assert_eq!(shop, 100, "{order}: the shop is credited once");
        }
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
        let serial_before = f.bank.ledger.serial_floor();
        drop(f.bank);

        let bank = restart(Arc::clone(&store));
        assert_eq!(bank.uncollected_total("shop-acct", &usd()), 75);
        assert_eq!(bank.account("carol-acct").unwrap().held(&usd()), 200);
        assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 300);
        assert!(
            bank.ledger.serial_floor() >= serial_before,
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

    fn mark(grantor: &str, id: u64) -> ReplayMark {
        ReplayMark {
            grantor: p(grantor),
            id,
            expires: Timestamp(90),
        }
    }

    /// What the table below looks at, in USD.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Seen {
        carol: u64,
        held: u64,
        shop: u64,
        pool: u64,
        pending: u64,
        floor: u64,
        marks: usize,
    }

    fn see(ledger: &Ledger) -> Seen {
        let balance = |name| ledger.account(name).map_or(0, |a| a.balance(&usd()));
        Seen {
            carol: balance("carol-acct"),
            held: ledger.account("carol-acct").unwrap().held(&usd()),
            shop: balance("shop-acct"),
            pool: balance(CASHIER_ACCOUNT),
            pending: ledger.uncollected_total("shop-acct", &usd()),
            floor: ledger.serial_floor(),
            marks: ledger.replay_guard().len(),
        }
    }

    /// Carol has 500 with 50 of it held for check 11; the shop has
    /// nothing but awaits 75 on Carol's check 9.
    const FIXTURE: Seen = Seen {
        carol: 450,
        held: 50,
        shop: 0,
        pool: 0,
        pending: 75,
        floor: 5,
        marks: 0,
    };

    fn fixture_ledger() -> Ledger {
        let mut carol = Account::new("carol-acct", vec![p("carol")]);
        carol.credit(usd(), 500);
        let ledger = Ledger::new(p("bank"));
        for rec in [
            JournalRecord::AdminAccount { account: carol },
            JournalRecord::OpenAccount {
                name: "shop-acct".into(),
                owners: vec![p("shop")],
            },
            JournalRecord::Certified {
                account: "carol-acct".into(),
                check_no: 11,
                currency: usd(),
                amount: 50,
                payee: p("shop"),
                serial: 3,
            },
            JournalRecord::DepositPending {
                payor: p("carol"),
                check_no: 9,
                to_account: "shop-acct".into(),
                currency: usd(),
                amount: 75,
                serial: 4,
            },
        ] {
            ledger.apply(&rec).unwrap();
        }
        ledger
    }

    /// The state `snapshot()` describes, rebuilt from its bytes.
    fn reopened(ledger: &Ledger) -> Ledger {
        let rebuilt = Ledger::new(p("bank"));
        for rec in decode_snapshot(&encode_snapshot(&ledger.snapshot())).unwrap() {
            rebuilt.apply(&rec).unwrap();
        }
        rebuilt
    }

    #[test]
    fn each_kind_applies_once_and_every_state_snapshots_canonically() {
        let mut shop = Account::new("shop-acct", vec![p("shop")]);
        shop.credit(usd(), 7);
        let table = [
            (
                JournalRecord::OpenAccount {
                    name: "dave-acct".into(),
                    owners: vec![p("dave")],
                },
                FIXTURE,
            ),
            (
                JournalRecord::AdminAccount { account: shop },
                Seen { shop: 7, ..FIXTURE },
            ),
            (
                JournalRecord::Settle {
                    payor_account: "carol-acct".into(),
                    check_no: 11,
                    currency: usd(),
                    amount: 50,
                    from_hold: true,
                    credit_to: Some("shop-acct".into()),
                    replay: vec![mark("carol", 11)],
                },
                Seen {
                    held: 0,
                    shop: 50,
                    marks: 1,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::Settle {
                    payor_account: "carol-acct".into(),
                    check_no: 12,
                    currency: usd(),
                    amount: 20,
                    from_hold: false,
                    credit_to: None,
                    replay: Vec::new(),
                },
                Seen {
                    carol: 430,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::DepositPending {
                    payor: p("dave"),
                    check_no: 1,
                    to_account: "shop-acct".into(),
                    currency: usd(),
                    amount: 5,
                    serial: 9,
                },
                Seen {
                    pending: 80,
                    floor: 10,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::Forward { serial: 20 },
                Seen {
                    floor: 21,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::PaymentApplied {
                    payor: p("carol"),
                    check_no: 9,
                },
                Seen {
                    shop: 75,
                    pending: 0,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::Bounced {
                    payor: p("carol"),
                    check_no: 9,
                },
                Seen {
                    pending: 0,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::CashierPurchase {
                    from_account: "carol-acct".into(),
                    currency: usd(),
                    amount: 100,
                },
                Seen {
                    carol: 350,
                    pool: 100,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::Certified {
                    account: "carol-acct".into(),
                    check_no: 13,
                    currency: usd(),
                    amount: 30,
                    payee: p("shop"),
                    serial: 6,
                },
                Seen {
                    carol: 420,
                    held: 80,
                    floor: 7,
                    ..FIXTURE
                },
            ),
            (
                JournalRecord::Marks {
                    replay: vec![mark("carol", 1), mark("bank", 2)],
                },
                Seen {
                    marks: 2,
                    ..FIXTURE
                },
            ),
        ];
        assert_eq!(see(&fixture_ledger()), FIXTURE);
        // One ledger takes every row in turn as well, so the last
        // snapshot holds a cashier pool and a certified hold at once.
        let all = fixture_ledger();
        all.apply(&JournalRecord::DepositPending {
            payor: p("carol"),
            check_no: 10,
            to_account: "shop-acct".into(),
            currency: usd(),
            amount: 75,
            serial: 4,
        })
        .unwrap();
        for (rec, expected) in &table {
            let ledger = fixture_ledger();
            ledger.apply(rec).unwrap();
            assert_eq!(see(&ledger), *expected, "after {rec:?}");
            if !matches!(rec, JournalRecord::Bounced { .. }) {
                all.apply(rec).unwrap();
            }
            for ledger in [&ledger, &all] {
                let rebuilt = reopened(ledger);
                assert_eq!(see(&rebuilt), see(ledger), "reopened after {rec:?}");
                assert_eq!(
                    encode_snapshot(&rebuilt.snapshot()),
                    encode_snapshot(&ledger.snapshot()),
                    "canonical after {rec:?}"
                );
            }
        }
        let last = see(&all);
        assert!(
            last.pool > 0 && last.held > 0 && last.pending > 0,
            "{last:?}"
        );
        assert!(all.account("dave-acct").is_some());
    }

    #[test]
    fn a_record_the_state_cannot_take_is_never_skipped() {
        let open = |name: &str| JournalRecord::OpenAccount {
            name: name.into(),
            owners: vec![p("carol")],
        };
        let mut funded = Account::new("carol-acct", vec![p("carol")]);
        funded.credit(usd(), 500);
        let funded = JournalRecord::AdminAccount { account: funded };
        let pending = |to: &str| JournalRecord::DepositPending {
            payor: p("carol"),
            check_no: 9,
            to_account: to.into(),
            currency: usd(),
            amount: 75,
            serial: 1,
        };
        let paid = JournalRecord::PaymentApplied {
            payor: p("carol"),
            check_no: 9,
        };
        let certified = JournalRecord::Certified {
            account: "carol-acct".into(),
            check_no: 9,
            currency: usd(),
            amount: 10,
            payee: p("shop"),
            serial: 2,
        };
        let logs: [(&str, Vec<JournalRecord>); 6] = [
            (
                "a settle from a hold of another amount",
                vec![
                    funded.clone(),
                    certified.clone(),
                    JournalRecord::Settle {
                        payor_account: "carol-acct".into(),
                        check_no: 9,
                        currency: usd(),
                        amount: 400,
                        from_hold: true,
                        credit_to: None,
                        replay: Vec::new(),
                    },
                ],
            ),
            (
                "a second hold on one check number",
                vec![funded.clone(), certified.clone(), certified],
            ),
            (
                "a settle crediting a missing account",
                vec![
                    funded,
                    JournalRecord::Settle {
                        payor_account: "carol-acct".into(),
                        check_no: 1,
                        currency: usd(),
                        amount: 10,
                        from_hold: false,
                        credit_to: Some("nobody".into()),
                        replay: Vec::new(),
                    },
                ],
            ),
            (
                "a payment into a missing account",
                vec![pending("nobody"), paid.clone()],
            ),
            (
                "a payment naming no pending deposit",
                vec![open("shop-acct"), paid],
            ),
            (
                "a bounce naming no pending deposit",
                vec![
                    open("shop-acct"),
                    pending("shop-acct"),
                    JournalRecord::Bounced {
                        payor: p("carol"),
                        check_no: 10,
                    },
                ],
            ),
        ];
        for (what, log) in logs {
            let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
            for rec in &log {
                store.append(&rec.encode()).unwrap();
            }
            let key = SigningKey::generate(&mut StdRng::seed_from_u64(1));
            let bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(key));
            let err = bank.with_storage(store).err();
            assert!(
                matches!(err, Some(AcctError::BadJournal(_))),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn a_refusal_after_the_stage_poisons_the_journal() {
        let store = Arc::new(proxy_storage::MemStorage::new());
        let journal = Journal::new(Arc::clone(&store) as Arc<dyn Storage>);
        let ledger = fixture_ledger();
        // A handler whose validation lets through what `apply` refuses.
        let overdraft = JournalRecord::CashierPurchase {
            from_account: "carol-acct".into(),
            currency: usd(),
            amount: 451,
        };
        let mut op = journal.begin(Vec::new).unwrap();
        let err = ledger
            .post_on(&mut op, "carol-acct", |_| Ok(overdraft))
            .unwrap_err();
        assert!(matches!(err, AcctError::BadJournal(_)), "got {err:?}");
        drop(op);
        assert_eq!(store.record_count(), 1, "the record was staged");
        assert_eq!(see(&ledger), FIXTURE, "and nothing applied");
        let err = journal.begin(Vec::new).unwrap_err();
        assert!(matches!(err, AcctError::Storage(_)), "fail-stop: {err:?}");
    }

    /// One more mark than a counted collection can be read back with:
    /// the parent wrote such a snapshot and could not boot from it.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "26 MB snapshot; run in release (ci.sh)")]
    fn a_snapshot_of_more_than_a_million_marks_reopens() {
        const MARKS: u64 = (1 << 20) + 1;
        let store: Arc<dyn Storage> = Arc::new(proxy_storage::MemStorage::new());
        let f = durable_fixture(Arc::clone(&store));
        for id in 0..MARKS {
            f.bank
                .ledger
                .replay_guard()
                .rehydrate(&p("carol"), id, Timestamp(90));
        }
        f.bank.compact().unwrap();
        drop(f.bank);

        let bank = restart(store);
        let guard = bank.ledger.replay_guard();
        assert_eq!(guard.len() as u64, MARKS);
        for id in [0, 4095, 4096, MARKS / 2, MARKS - 1] {
            assert!(
                !guard.check_and_mark(&p("carol"), id, Timestamp(1), Timestamp(90)),
                "mark {id} survived"
            );
        }
        assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 500);
    }
}
