//! Journal compaction harness (DESIGN.md §15.3): does a compaction cost
//! what changed since the last one, or what the server remembers?
//!
//! An accounting server journals to [`MemStorage`] and takes deposits
//! the way `fig5_mem` sends them: [`AccountingServer::deposit_all`] over
//! groups of 16 checks under one payor, each check leaving one
//! accept-once mark, the journal compacting every
//! [`Journal::SNAPSHOT_EVERY`] records.
//!
//! * **`journal-compact`** — with checks that never expire, every mark
//!   stays live. At x = 6 144, 24 576 and 98 304 live marks (6k, 24k,
//!   96k) the due compaction, one period of deposits after the last,
//!   is timed: the fastest of `SAMPLES` consecutive ones ending there.
//!   The 6k and the 96k ones run in the same stretch (below). Gate: the
//!   96k row at most `COMPACT_RATIO_CEILING`× the 6k row.
//! * **`deposits-first-decile` / `-last-decile`** — throughput over the
//!   first and the last tenth of `DEPOSITS` deposits: a period's
//!   deposits and the compaction due after them, the fastest of the ten
//!   periods in each tenth. The last tenth of the run runs period by
//!   period against the first tenth of a second bank's, so a slow
//!   window of the host does not pass for a slow state. Gate: the last
//!   decile within `DECILE_TOLERANCE` of the first.
//! * **`snapshot-bytes`** — a second server whose checks stay valid for
//!   `LIFETIME` ticks, two periods to a tick: the installed snapshot's
//!   size after periods 25, 50 and 100, and `snapshot-growth`, the
//!   largest over periods 51–100 against the largest over 26–50. Gate:
//!   at most `GROWTH_CEILING`.
//!
//! Checks are written before a stretch is timed; the clock sees only
//! deposits and compactions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proxy_accounting::{write_check, AccountingServer, Deposit, DepositGroup, DepositOutcome};
use proxy_accounting::{AcctError, Journal};
use proxy_crypto::ed25519::SigningKey;
use proxy_storage::{MemStorage, Storage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use restricted_proxy::prelude::*;

use crate::{host_parallelism, value_of, Row};

/// Deposits in the never-expiring run, a whole number of periods.
const DEPOSITS: u64 = 100 * PERIOD;
/// Deposits between two due compactions: every deposit is one record.
const PERIOD: u64 = Journal::SNAPSHOT_EVERY;
/// Deposits in one `deposit_all` call, as `fig5_mem`'s pipeline sends.
const GROUP: u64 = 16;
/// Live marks at which a compaction is timed, in periods.
const COMPACT_AT: [u64; 3] = [6, 24, 96];
/// Due compactions timed per row, ending at its size.
const SAMPLES: u64 = 3;
/// Ticks a check of the flat-size run stays valid.
const LIFETIME: u64 = 8;
/// Periods of the flat-size run.
const PERIODS: u64 = 100;
/// Most the 96k compaction may cost against the 6k one. It reads
/// 4.7–7.3×, above the 2× a compaction in proportion to change would
/// read, because the install still copies every run (16× the bytes);
/// the ceiling catches the enumerate-and-sort compaction (31–32×).
const COMPACT_RATIO_CEILING: f64 = 12.0;
/// Most the last decile's throughput may fall short of the first's.
const DECILE_TOLERANCE: f64 = 0.10;
/// Most the snapshot may grow from the run's middle to its end.
const GROWTH_CEILING: f64 = 1.10;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

/// A bank on `store` with room for every mark of the run, a funded
/// payor and the shop's account, and the payor's signing authority.
fn bank(store: Arc<dyn Storage>) -> (AccountingServer, GrantAuthority) {
    let mut rng = StdRng::seed_from_u64(0x10C);
    let (bank_key, payor_key) = (
        SigningKey::generate(&mut rng),
        SigningKey::generate(&mut rng),
    );
    let capacity = usize::try_from(2 * DEPOSITS).expect("fits");
    let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
        .with_replay_capacity(capacity)
        .with_storage(store)
        .expect("an empty store recovers");
    bank.register_grantor(
        p("payor"),
        GrantorVerifier::PublicKey(payor_key.verifying_key()),
    );
    bank.open_account("shop", vec![p("shop")]);
    bank.open_account("acct", vec![p("payor")]);
    bank.account_mut("acct")
        .expect("just opened")
        .credit(usd(), 1 << 40);
    // Periods start here: every later install follows a whole period.
    bank.compact().expect("install");
    (bank, GrantAuthority::Keypair(payor_key))
}

/// Checks `first..first + n` of the payor, valid over `validity`, as
/// deposits at `now`.
fn deposits(
    payor: &GrantAuthority,
    first: u64,
    n: u64,
    validity: Validity,
    now: Timestamp,
    rng: &mut StdRng,
) -> Vec<Deposit> {
    (first..first + n)
        .map(|check_no| Deposit {
            check: write_check(
                &p("payor"),
                payor,
                &p("bank"),
                "acct",
                p("shop"),
                check_no,
                usd(),
                1,
                validity,
                rng,
            ),
            depositor: p("shop"),
            to_account: "shop".to_owned(),
            next_hop: p("bank"),
            now,
        })
        .collect()
}

/// Deposits `batch` in groups of [`GROUP`] and returns how long that
/// took.
///
/// # Panics
///
/// When a deposit does not settle.
fn deposit(bank: &AccountingServer, batch: Vec<Deposit>, rng: &mut StdRng) -> Duration {
    let mut group = DepositGroup::default();
    let mut batch = batch.into_iter().peekable();
    let started = Instant::now();
    while batch.peek().is_some() {
        let chunk = batch.by_ref().take(GROUP as usize);
        bank.deposit_all(chunk, &mut group, rng, |_, outcome| {
            if !matches!(outcome, Ok(DepositOutcome::Settled(_))) {
                panic!("a deposit did not settle: {outcome:?}");
            }
        });
    }
    started.elapsed()
}

/// Times a compaction that is due: the one the next deposit would run.
fn due_compaction(bank: &AccountingServer) -> Result<Duration, AcctError> {
    let started = Instant::now();
    bank.compact()?;
    Ok(started.elapsed())
}

/// One period of never-expiring checks into `bank`, numbered from
/// `period`'s: the deposits' time and the due compaction's.
fn one_period(
    bank: &AccountingServer,
    payor: &GrantAuthority,
    period: u64,
    rng: &mut StdRng,
) -> (Duration, Duration) {
    let forever = Validity::new(Timestamp(0), Timestamp(u64::MAX));
    let batch = deposits(payor, period * PERIOD, PERIOD, forever, Timestamp(1), rng);
    let deposits = deposit(bank, batch, rng);
    (deposits, due_compaction(bank).expect("install"))
}

/// The never-expiring run: the compaction rows and the two deciles.
/// The grown bank's last tenth runs period by period against a second
/// bank's first tenth, so that a slow window of the host falls on both.
fn growing() -> Vec<Row> {
    let (grown, payor) = bank(Arc::new(MemStorage::new()));
    let (fresh, _) = bank(Arc::new(MemStorage::new()));
    let mut rng = StdRng::seed_from_u64(0xDEC);
    let (periods, tenth) = (DEPOSITS / PERIOD, DEPOSITS / PERIOD / 10);
    let mut compact = COMPACT_AT.map(|_| f64::INFINITY);
    let mut timed = |period: u64, took: Duration| {
        for (at, best) in COMPACT_AT.iter().zip(&mut compact) {
            if period <= *at && period + SAMPLES > *at {
                *best = best.min(took.as_secs_f64() * 1e6);
            }
        }
    };
    let (mut first, mut last) = (Duration::MAX, Duration::MAX);
    for period in 1..=periods {
        let (deposits, took) = one_period(&grown, &payor, period, &mut rng);
        if period + tenth <= periods {
            // The 6k row comes from the second bank, beside the 96k one.
            if period > COMPACT_AT[0] {
                timed(period, took);
            }
            continue;
        }
        timed(period, took);
        last = last.min(deposits + took);
        let early = period + tenth - periods;
        let (deposits, took) = one_period(&fresh, &payor, early, &mut rng);
        timed(early, took);
        first = first.min(deposits + took);
    }
    let per_s = |d: Duration| PERIOD as f64 / d.as_secs_f64();
    let mut rows: Vec<Row> = COMPACT_AT
        .iter()
        .zip(compact)
        .map(|(at, us)| Row::new("J", "journal-compact", at * PERIOD, us, "µs"))
        .collect();
    rows.push(Row::new(
        "J",
        "deposits-first-decile",
        DEPOSITS,
        per_s(first),
        "ops/s",
    ));
    rows.push(Row::new(
        "J",
        "deposits-last-decile",
        DEPOSITS,
        per_s(last),
        "ops/s",
    ));
    rows
}

/// The bounded run: the snapshot's size as periods go by.
fn bounded() -> Vec<Row> {
    let store = Arc::new(MemStorage::new());
    let (bank, payor) = bank(store.clone());
    let mut rng = StdRng::seed_from_u64(0xF1A7);
    let mut sizes = Vec::new();
    for period in 1..=PERIODS {
        // Two periods to a tick, as `fig5_mem` deposits 2 048 a tick.
        let now = Timestamp(1 + period / 2);
        let validity = Validity::starting_at(now, LIFETIME);
        let batch = deposits(&payor, period * PERIOD, PERIOD, validity, now, &mut rng);
        deposit(&bank, batch, &mut rng);
        bank.compact().expect("install");
        let snapshot = store.load().expect("load").snapshot.expect("installed");
        sizes.push(snapshot.len() as f64);
    }
    let largest = |from: u64, to: u64| {
        sizes[from as usize - 1..to as usize]
            .iter()
            .fold(0.0f64, |a, b| a.max(*b))
    };
    let mut rows: Vec<Row> = [25, 50, PERIODS]
        .iter()
        .map(|at| Row::new("J", "snapshot-bytes", *at, sizes[*at as usize - 1], "B"))
        .collect();
    let growth = largest(51, PERIODS) / largest(26, 50);
    rows.push(Row::new("J", "snapshot-growth", PERIODS, growth, "x"));
    rows
}

/// Runs the harness, prints its rows and asserts its three gates.
///
/// # Panics
///
/// When a deposit does not settle, or a gate is not met.
pub fn run() -> Vec<Row> {
    let mut rows = growing();
    rows.extend(bounded());
    rows.push(host_parallelism("J"));
    rows.iter().for_each(Row::print);
    let compact = |at: u64| {
        rows.iter()
            .find(|row| row.series == "journal-compact" && row.x == at * PERIOD)
            .map_or(f64::NAN, |row| row.value)
    };
    let ratio = compact(COMPACT_AT[2]) / compact(COMPACT_AT[0]);
    assert!(
        ratio <= COMPACT_RATIO_CEILING,
        "a compaction at 96k live marks cost {ratio:.2}x one at 6k \
         (ceiling {COMPACT_RATIO_CEILING:.1}x): it scales with what is remembered",
    );
    let decline =
        1.0 - value_of(&rows, "deposits-last-decile") / value_of(&rows, "deposits-first-decile");
    assert!(
        decline <= DECILE_TOLERANCE,
        "deposits ran {:.1} % slower over the last decile than the first (tolerance {:.0} %)",
        decline * 100.0,
        DECILE_TOLERANCE * 100.0,
    );
    let growth = value_of(&rows, "snapshot-growth");
    assert!(
        growth <= GROWTH_CEILING,
        "the snapshot grew {growth:.2}x from the run's middle to its end \
         (ceiling {GROWTH_CEILING:.2}x) though every check expires",
    );
    rows
}
