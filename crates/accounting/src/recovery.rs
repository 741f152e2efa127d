//! Recovery: the whole-server snapshot and the redo of one journaled
//! record — the inverse of what the handlers in [`crate::server`] stage.
//!
//! Each [`JournalRecord`] kind is applied in two places: live, by the
//! handler that staged it, and here, by [`AccountingServer::replay_record`]
//! (both through the same [`Account`] primitives). The tests below and
//! `tests/journal_equivalence.rs` hold the two to the same state.

use std::sync::atomic::Ordering;

use crate::account::Account;
use crate::error::AcctError;
use crate::journal::{JournalRecord, PendingDeposit, ReplayMark, SnapshotState};
use crate::server::{AccountingServer, Uncollected, CASHIER_ACCOUNT};

impl AccountingServer {
    /// Raises the serial counter to at least `floor`.
    fn bump_serial(&self, floor: u64) {
        self.next_serial.fetch_max(floor, Ordering::Relaxed);
    }

    /// Enumerates the whole server state in canonical order. Callers
    /// must exclude concurrent mutation (the journal's compaction gate,
    /// or `&mut self`).
    pub(crate) fn snapshot_state(&self) -> SnapshotState {
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

    pub(crate) fn install_snapshot_state(&mut self, state: SnapshotState) {
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
    pub(crate) fn replay_record(&mut self, rec: JournalRecord) -> Result<(), AcctError> {
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
                    || Account::new(pool_name, vec![self.name().clone()]),
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
    use crate::server::tests::{boot, carol_check, fixture_with, p, usd, window, Fixture};
    use crate::server::{DepositOutcome, Payment};

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
}
