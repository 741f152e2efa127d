//! Live state == recovered state, whatever the journal is attached to.
//!
//! A record's mutation is written once (`Ledger::apply`), so this pins
//! results and reopening rather than two spellings of it. One seeded
//! generator of operation sequences runs here against a detached
//! server, a `MemStorage` one and a `WalStorage` one. Every call must
//! return the same thing on all three, the final states must agree, and
//! a server reopened from each store must agree with its live twin —
//! including its refusal of every check that already settled.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use proxy_accounting::server::{Payment, CASHIER_ACCOUNT};
use proxy_accounting::{write_check, AccountingServer, Check, DepositOutcome, Journal};
use proxy_crypto::ed25519::SigningKey;
use proxy_storage::{FsyncMode, MemStorage, Storage, WalOptions, WalStorage};
use restricted_proxy::key::{GrantAuthority, GrantorVerifier};
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::Currency;
use restricted_proxy::time::{Timestamp, Validity};

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

/// The bank's, Carol's and Dave's keys; the same for every server.
fn keys() -> [SigningKey; 3] {
    let mut rng = StdRng::seed_from_u64(0xACC7);
    [(); 3].map(|()| SigningKey::generate(&mut rng))
}

/// A bank over `store` (detached when `None`), recovered from whatever
/// the store holds; the accounts are opened and funded on first boot.
fn boot(store: Option<Arc<dyn Storage>>) -> AccountingServer {
    let [bank_key, carol_key, dave_key] = keys();
    let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key));
    if let Some(store) = store {
        bank = bank.with_storage(store).expect("recovery");
    }
    for (who, key) in [("carol", carol_key), ("dave", dave_key)] {
        bank.register_grantor(p(who), GrantorVerifier::PublicKey(key.verifying_key()));
    }
    if bank.account("shop-acct").is_none() {
        bank.open_account("carol-acct", vec![p("carol")]);
        bank.open_account("dave-acct", vec![p("dave")]);
        bank.open_account("shop-acct", vec![p("shop")]);
        bank.account_mut("carol-acct").unwrap().credit(usd(), 2_000);
        bank.account_mut("dave-acct").unwrap().credit(usd(), 500);
    }
    bank
}

/// Balance and holds of every account, and what the shop still awaits.
fn state(bank: &AccountingServer) -> Vec<u64> {
    let mut out = vec![bank.uncollected_total("shop-acct", &usd())];
    for name in ["carol-acct", "dave-acct", "shop-acct", CASHIER_ACCOUNT] {
        let account = bank.account(name);
        out.push(account.as_ref().map_or(0, |a| a.balance(&usd())));
        out.push(account.as_ref().map_or(0, |a| a.held(&usd())));
    }
    out
}

/// A check payable to the shop.
fn draw(
    (payor, auth): (&str, &GrantAuthority),
    (drawn_on, account): (&str, &str),
    (no, amount): (u64, u64),
    rng: &mut StdRng,
) -> Check {
    let (payor, drawn_on, payee) = (p(payor), p(drawn_on), p("shop"));
    write_check(
        &payor,
        auth,
        &drawn_on,
        account,
        payee,
        no,
        usd(),
        amount,
        window(),
        rng,
    )
}

/// One server and the record of its run: what every call returned, and
/// the checks that settled.
struct World {
    bank: AccountingServer,
    sign: StdRng,
    trace: Vec<String>,
    settled: Vec<Check>,
}

impl World {
    /// The shop deposits `check`; returns whether the bank took it.
    fn deposit(&mut self, what: &str, check: Check) -> bool {
        let (shop, hop, now) = (p("shop"), p("other-bank"), Timestamp(1));
        let r = self
            .bank
            .deposit(&check, &shop, "shop-acct", hop, now, &mut self.sign);
        let told = r.as_ref().map(|outcome| match outcome {
            DepositOutcome::Settled(payment) => format!("settled {payment:?}"),
            DepositOutcome::Forwarded { check, .. } => {
                format!("forwarded x{}", check.endorsement_count())
            }
        });
        self.trace.push(format!("{what}: {told:?}"));
        if matches!(r, Ok(DepositOutcome::Settled(_))) {
            self.settled.push(check);
        }
        r.is_ok()
    }
}

/// Drives `ops` generated operations against `bank`. The generator's
/// choices depend only on `seed` and on what earlier calls returned, so
/// two banks that behave alike see the same sequence.
fn drive(bank: AccountingServer, seed: u64, ops: u64) -> World {
    let [_, carol, dave] = keys().map(GrantAuthority::Keypair);
    let (carol, dave) = (("carol", &carol), ("dave", &dave));
    let (here, elsewhere) = (("bank", "carol-acct"), ("other-bank", "carol-elsewhere"));
    let mut gen = StdRng::seed_from_u64(seed);
    let mut w = World {
        bank,
        sign: StdRng::seed_from_u64(!seed),
        trace: Vec::new(),
        settled: Vec::new(),
    };
    let mut pending: Vec<Payment> = Vec::new();
    let mut certified: Option<(u64, u64)> = None;
    for no in 1..=ops {
        let amount = gen.gen_range(1u64..120);
        let owed = |check_no| Payment {
            payor: p("carol"),
            check_no,
            currency: usd(),
            amount,
        };
        match gen.gen_range(0u32..12) {
            // Drawn here, deposited here; an overdraft is refused.
            0..=2 => {
                let check = draw(carol, here, (no, amount), &mut w.sign);
                w.deposit("deposit", check);
            }
            // A settled check presented again.
            3 if !w.settled.is_empty() => {
                let again = w.settled[gen.gen_range(0..w.settled.len())].clone();
                w.deposit("replay", again);
            }
            // Dave draws on Carol's account.
            4 => {
                let check = draw(dave, here, (no, amount), &mut w.sign);
                w.deposit("wrong owner", check);
            }
            // Drawn elsewhere: uncollected until paid or bounced.
            5 | 6 => {
                let check = draw(carol, elsewhere, (no, amount), &mut w.sign);
                if w.deposit("foreign", check) {
                    pending.push(owed(no));
                }
            }
            // The payment comes back, or the check bounces — a quarter
            // of the time for a check nobody deposited.
            7 => {
                let payment = if pending.is_empty() || gen.gen_range(0u32..4) == 0 {
                    owed(no)
                } else {
                    pending.swap_remove(gen.gen_range(0..pending.len()))
                };
                w.trace.push(if gen.gen() {
                    format!("payment: {:?}", w.bank.apply_payment(&payment))
                } else {
                    let r = w.bank.bounce(&payment.payor, payment.check_no);
                    format!("bounce: {r:?}")
                });
            }
            // Certify a check; next time round, collect it from its hold.
            8 => match certified.take() {
                Some(certified) => {
                    let check = draw(carol, here, certified, &mut w.sign);
                    w.deposit("collect certified", check);
                }
                None => {
                    let (who, to, rng) = (p("carol"), p("shop"), &mut w.sign);
                    let r =
                        w.bank
                            .certify(&who, "carol-acct", no, usd(), amount, to, window(), rng);
                    certified = r.is_ok().then_some((no, amount));
                    let told = r.map(|proxy| proxy.certs.len());
                    w.trace.push(format!("certify: {told:?}"));
                }
            },
            // A cashier's check, bought and deposited.
            9 => {
                let (who, to, rng) = (p("dave"), p("shop"), &mut w.sign);
                let r =
                    w.bank
                        .cashiers_check(&who, "dave-acct", to, no, usd(), amount, window(), rng);
                match r {
                    Ok(check) => drop(w.deposit("cashier's", check)),
                    Err(e) => w.trace.push(format!("cashier's: {e:?}")),
                }
            }
            // An intermediate clearing hop.
            10 => {
                let check = draw(carol, elsewhere, (no, amount), &mut w.sign);
                let r = w.bank.forward(&check, p("other-bank"), &mut w.sign);
                let told = r.map(|endorsed| endorsed.endorsement_count());
                w.trace.push(format!("forward: {told:?}"));
            }
            // Administrative credit.
            _ => {
                let mut account = w.bank.account_mut("dave-acct").unwrap();
                account.credit(usd(), amount);
            }
        }
    }
    w
}

/// Runs one seed on all three servers; returns whether the journaled
/// ones crossed an automatic compaction.
fn live_equals_recovered(seed: u64, ops: u64) -> bool {
    let reference = drive(boot(None), seed, ops);
    let want = state(&reference.bank);
    // The generator must reach every record kind and every refusal.
    for told in [
        "deposit: Ok",
        "foreign: Ok",
        "payment: Ok(true)",
        "bounce: Ok(true)",
        "bounce: Ok(false)",
        "certify: Ok",
        "collect certified: Ok",
        "cashier's: Ok",
        "forward: Ok",
        "replay: Err(Verify",
        "wrong owner: Err(NotAuthorized",
        ": Err(InsufficientFunds",
    ] {
        assert!(
            reference.trace.iter().any(|line| line.contains(told)),
            "seed {seed}: no call was told `{told}`"
        );
    }

    let dir = std::env::temp_dir().join(format!("proxy-aa-equiv-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mem: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let wal = || -> Arc<dyn Storage> {
        let fsync = FsyncMode::NoFsync;
        Arc::new(WalStorage::open(&dir, WalOptions { fsync }).expect("open wal"))
    };
    let on = |name: &str, open: &dyn Fn() -> Arc<dyn Storage>| {
        let live = drive(boot(Some(open())), seed, ops);
        assert_eq!(live.trace, reference.trace, "{name}: per-call results");
        assert_eq!(state(&live.bank), want, "{name}: live state");
        drop(live.bank);

        let bank = boot(Some(open()));
        let mut reopened = World { bank, ..live };
        assert_eq!(state(&reopened.bank), want, "{name}: recovered state");
        for check in std::mem::take(&mut reopened.settled) {
            reopened.deposit("after restart", check);
        }
        let refusals = &reopened.trace[reference.trace.len()..];
        assert!(
            refusals.iter().all(|line| line.contains("Err(Verify")),
            "{name}: a settled check got past the recovered replay guard: {refusals:?}"
        );
        assert_eq!(state(&reopened.bank), want, "{name}: refusals move nothing");
    };
    on("MemStorage", &|| Arc::clone(&mem));
    on("WalStorage", &wal);
    let _ = std::fs::remove_dir_all(&dir);
    mem.load().expect("load").snapshot.is_some()
}

#[test]
fn live_state_equals_recovered_state_on_every_backend() {
    for seed in 1..=4 {
        assert!(!live_equals_recovered(seed, 300), "replayed from record 0");
    }
}

/// Long enough to cross the automatic compaction, so recovery starts
/// from an installed snapshot and replays only the suffix behind it.
#[test]
fn live_state_equals_recovered_state_across_a_compaction() {
    let ops = 2 * Journal::SNAPSHOT_EVERY;
    assert!(live_equals_recovered(5, ops), "replayed from a snapshot");
}
