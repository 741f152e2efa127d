//! A group of deposits decides what the same deposits decide one by one.
//!
//! `AccountingServer::deposit_all` runs the pure part of every deposit,
//! one settle step for all their checks (the checks of one payor share
//! one equation), then finishes each deposit in order. Here it runs
//! against `deposit` called in order on an identically seeded second
//! bank, over groups of 1–16 deposits under one or two payors with
//! faults mixed in: every outcome, balance, hold and journal record must
//! agree, and every check number must be consumed exactly once.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use proxy_accounting::{
    write_check, AccountingServer, Check, Deposit, DepositGroup, DepositOutcome,
};
use proxy_crypto::ed25519::SigningKey;
use proxy_storage::{MemStorage, Storage};
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

/// The bank's, Carol's, Dave's and a forger's keys.
fn keys() -> [SigningKey; 4] {
    let mut rng = StdRng::seed_from_u64(0xD3_9051);
    [(); 4].map(|()| SigningKey::generate(&mut rng))
}

/// The check number Carol has certified, and its amount.
const CERTIFIED: (u64, u64) = (77, 40);

/// A bank that knows Carol and Dave, on its own journal: Carol is rich,
/// Dave runs dry after a few checks, Carol's check 77 is certified, and
/// the shop and the bank's own float have accounts.
fn bank() -> (AccountingServer, Arc<MemStorage>) {
    let [bank_key, carol, dave, _] = keys();
    let store = Arc::new(MemStorage::new());
    let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
        .with_storage(Arc::clone(&store) as Arc<dyn Storage>)
        .unwrap();
    bank.register_grantor(
        p("carol"),
        GrantorVerifier::PublicKey(carol.verifying_key()),
    );
    bank.register_grantor(p("dave"), GrantorVerifier::PublicKey(dave.verifying_key()));
    for (account, owner, funds) in [
        ("carol-acct", "carol", 100_000),
        ("dave-acct", "dave", 45),
        ("shop-acct", "shop", 0),
        ("float", "bank", 0),
    ] {
        bank.open_account(account, vec![p(owner)]);
        bank.account_mut(account).unwrap().credit(usd(), funds);
    }
    let (check_no, amount) = CERTIFIED;
    bank.certify(
        &p("carol"),
        "carol-acct",
        check_no,
        usd(),
        amount,
        p("shop"),
        window(),
        &mut StdRng::seed_from_u64(7),
    )
    .unwrap();
    (bank, store)
}

/// Writes the deposits of one group: 1–16 checks to the shop under
/// Carol, or under Carol and Dave, with faults at random places.
struct Writer {
    rng: StdRng,
    keys: [SigningKey; 4],
    next_no: u64,
    /// Every check that went into a deposit, for the replay at the end.
    written: Vec<Deposit>,
    /// Which faults have appeared.
    faults: [usize; 8],
}

impl Writer {
    fn check(&mut self, payor: usize, drawn_on: &str, payee: &str, amount: u64) -> Check {
        self.next_no += 1;
        let (name, account) = [("carol", "carol-acct"), ("dave", "dave-acct")][payor];
        write_check(
            &p(name),
            &GrantAuthority::Keypair(self.keys[1 + payor].clone()),
            &p(drawn_on),
            account,
            p(payee),
            self.next_no,
            usd(),
            amount,
            window(),
            &mut self.rng,
        )
    }

    fn group(&mut self, round: u64) -> Vec<Deposit> {
        let size = self.rng.gen_range(1..17);
        let payors = if self.rng.gen() { 1 } else { 2 };
        let mut group: Vec<Deposit> = Vec::with_capacity(size);
        while group.len() < size {
            let payor = self.rng.gen_range(0..payors);
            let amount = self.rng.gen_range(1..20);
            let mut deposit = Deposit {
                check: self.check(payor, "bank", "shop", amount),
                depositor: p("shop"),
                to_account: "shop-acct".to_string(),
                next_hop: p("bank2"),
                now: Timestamp(10 + round),
            };
            let fault = self.rng.gen_range(0..24);
            match fault {
                // A forged check: Carol's name, someone else's key.
                0 => {
                    self.next_no += 1;
                    deposit.check = write_check(
                        &p("carol"),
                        &GrantAuthority::Keypair(self.keys[3].clone()),
                        &p("bank"),
                        "carol-acct",
                        p("shop"),
                        self.next_no,
                        usd(),
                        5,
                        window(),
                        &mut self.rng,
                    );
                }
                // The same check number twice in one group.
                1 if !group.is_empty() => {
                    let i = self.rng.gen_range(0..group.len());
                    deposit.check = group[i].check.clone();
                }
                // No such account to credit.
                2 => deposit.to_account = "nobody".to_string(),
                // A check drawn on an account this bank does not keep.
                3 => {
                    let info = deposit.check.info().unwrap();
                    deposit.check = write_check(
                        &info.payor,
                        &GrantAuthority::Keypair(self.keys[1 + payor].clone()),
                        &info.drawn_on,
                        "closed-acct",
                        info.payee,
                        info.check_no,
                        info.currency,
                        info.amount,
                        window(),
                        &mut self.rng,
                    );
                }
                // Drawn on another bank: this one is the wrong server to
                // settle it, so it is credited and forwarded.
                4 => deposit.check = self.check(payor, "bank2", "shop", 3),
                // Payable to the bank, deposited by the shop.
                5 => deposit.check = self.check(payor, "bank", "bank", 3),
                // Dave overdraws: his account holds 45.
                6 => deposit.check = self.check(1, "bank", "shop", 20),
                // Carol's certified check, settled from its hold.
                7 => {
                    let (check_no, amount) = CERTIFIED;
                    deposit.check = write_check(
                        &p("carol"),
                        &GrantAuthority::Keypair(self.keys[1].clone()),
                        &p("bank"),
                        "carol-acct",
                        p("shop"),
                        check_no,
                        usd(),
                        amount,
                        window(),
                        &mut self.rng,
                    );
                }
                _ => {}
            }
            if fault < 8 {
                self.faults[fault] += 1;
            }
            self.written.push(deposit.clone());
            group.push(deposit);
        }
        group
    }
}

/// What a deposit answered, comparable across the two banks.
fn answer(outcome: &Result<DepositOutcome, proxy_accounting::AcctError>) -> String {
    format!("{outcome:?}")
}

/// Everything the two banks must agree on after a group.
fn state(bank: &AccountingServer, store: &MemStorage) -> (Vec<String>, u64, Vec<Vec<u8>>) {
    let accounts = ["carol-acct", "dave-acct", "shop-acct", "float"]
        .map(|name| format!("{:?}", bank.account(name)))
        .to_vec();
    let records = store.load().unwrap().records;
    (
        accounts,
        bank.uncollected_total("shop-acct", &usd()),
        records,
    )
}

#[test]
fn a_group_of_deposits_answers_as_sequential_deposits() {
    let (mut grouped, grouped_store) = bank();
    let (mut sequential, sequential_store) = bank();
    let (mut grouped_rng, mut sequential_rng) =
        (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
    let mut writer = Writer {
        rng: StdRng::seed_from_u64(10),
        keys: keys(),
        next_no: 1000,
        written: Vec::new(),
        faults: [0; 8],
    };
    let mut scratch = DepositGroup::default();
    let mut answers = std::collections::BTreeMap::<String, usize>::new();
    // Dave's checks a group refused for want of funds, by check number.
    let mut overdrafts = std::collections::BTreeMap::new();
    for round in 0..50 {
        let group = writer.group(round);
        let sent = group.clone();
        let expect: Vec<String> = group
            .iter()
            .map(|d| {
                answer(&sequential.deposit(
                    &d.check,
                    &d.depositor,
                    &d.to_account,
                    d.next_hop.clone(),
                    d.now,
                    &mut sequential_rng,
                ))
            })
            .collect();
        let mut got = Vec::new();
        grouped.deposit_all(group, &mut scratch, &mut grouped_rng, |i, outcome| {
            assert_eq!(i, got.len());
            got.push(answer(&outcome));
        });
        assert_eq!(got, expect, "round {round}");
        assert_eq!(
            state(&grouped, &grouped_store),
            state(&sequential, &sequential_store),
            "round {round}"
        );
        for (deposit, a) in sent.into_iter().zip(&got) {
            if a.contains("InsufficientFunds") {
                let check_no = deposit.check.info().unwrap().check_no;
                overdrafts.insert(check_no, deposit);
            }
        }
        for a in got {
            let kind = a[..a.find([' ', '(']).unwrap_or(a.len())].to_string();
            let kind = match a.split_once("Err(") {
                Some((_, e)) => e[..e.find([' ', '(', '{']).unwrap_or(e.len())].to_string(),
                None => kind,
            };
            *answers.entry(kind).or_default() += 1;
        }
    }
    // Every fault came up, and so did every kind of answer.
    assert!(writer.faults.iter().all(|&n| n > 0), "{:?}", writer.faults);
    for kind in [
        "Ok",
        "Verify",
        "UnknownAccount",
        "NotAuthorized",
        "InsufficientFunds",
    ] {
        assert!(answers.contains_key(kind), "no {kind} among {answers:?}");
    }
    // Accept-once was consumed exactly once: every check presented again,
    // as a group and one by one, settles nothing more.
    let before = state(&grouped, &grouped_store).0;
    let again = std::mem::take(&mut writer.written);
    let expect: Vec<String> = again
        .iter()
        .map(|d| {
            answer(&sequential.deposit(
                &d.check,
                &d.depositor,
                &d.to_account,
                d.next_hop.clone(),
                d.now,
                &mut sequential_rng,
            ))
        })
        .collect();
    let mut got = Vec::new();
    grouped.deposit_all(again, &mut scratch, &mut grouped_rng, |_, outcome| {
        got.push(answer(&outcome));
    });
    assert_eq!(got, expect);
    assert!(got
        .iter()
        .all(|a| a.starts_with("Err(") || a.starts_with("Ok(Forwarded")));
    assert_eq!(
        state(&grouped, &grouped_store),
        state(&sequential, &sequential_store)
    );
    let after = state(&grouped, &grouped_store).0;
    assert_eq!(before[..2], after[..2], "no payor paid twice");

    // A refusal inside a group gave each overdraft's number back: once
    // Dave can cover them, those checks settle as one more group, each
    // exactly once on both banks.
    assert!(!overdrafts.is_empty());
    let left = grouped.account("dave-acct").unwrap().balance(&usd());
    let owed = overdrafts
        .values()
        .map(|d: &Deposit| d.check.info().unwrap().amount)
        .sum();
    for bank in [&mut grouped, &mut sequential] {
        bank.account_mut("dave-acct").unwrap().credit(usd(), owed);
    }
    let overdrafts: Vec<Deposit> = overdrafts.into_values().collect();
    for round in ["when covered", "once more"] {
        let expect: Vec<String> = overdrafts
            .iter()
            .map(|d| {
                answer(&sequential.deposit(
                    &d.check,
                    &d.depositor,
                    &d.to_account,
                    d.next_hop.clone(),
                    d.now,
                    &mut sequential_rng,
                ))
            })
            .collect();
        let mut got = Vec::new();
        let group = overdrafts.clone();
        grouped.deposit_all(group, &mut scratch, &mut grouped_rng, |_, outcome| {
            got.push(answer(&outcome));
        });
        assert_eq!(got, expect, "{round}");
        let prefix = match round {
            "when covered" => "Ok(Settled",
            _ => "Err(Verify",
        };
        assert!(
            got.iter().all(|a| a.starts_with(prefix)),
            "{round}: {got:?}"
        );
        assert_eq!(
            state(&grouped, &grouped_store),
            state(&sequential, &sequential_store),
            "{round}"
        );
    }
    let dave = grouped.account("dave-acct").unwrap();
    assert_eq!(dave.balance(&usd()), left, "each overdraft paid once");
}
