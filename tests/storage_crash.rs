//! Crash-injection and corruption tests for the durable accounting
//! path (DESIGN.md §15): kills in the window between the WAL append and
//! the client reply, torn log tails, flipped bits, and multi-restart
//! money conservation — plus revocation/membership mirrors resuming
//! their epochs from the artifact store with zero issuer round trips.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::accounting::{write_check, AccountingServer, AcctError, Check, DepositOutcome};
use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::proxy::prelude::*;
use proxy_aa::storage::{CorruptKind, FsyncMode, Storage, StorageError, WalOptions, WalStorage};

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

/// A unique scratch directory per test invocation; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "proxy-aa-crash-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// No-fsync options: these tests exercise ordering and recovery, not
/// the platter, and page-cache durability keeps them fast.
fn fast() -> WalOptions {
    WalOptions {
        fsync: FsyncMode::NoFsync,
    }
}

/// (Re)opens the bank on `dir`: deterministic keys, carol's and the
/// shop's accounts, 500 USD initial float credited only on first boot.
fn boot(dir: &PathBuf) -> (AccountingServer, GrantAuthority, StdRng) {
    let store = Arc::new(WalStorage::open(dir, fast()).expect("open wal"));
    boot_on(store)
}

fn boot_on(store: Arc<WalStorage>) -> (AccountingServer, GrantAuthority, StdRng) {
    let mut rng = StdRng::seed_from_u64(1);
    let bank_key = SigningKey::generate(&mut rng);
    let carol_key = SigningKey::generate(&mut rng);
    let mut bank = AccountingServer::new(p("bank"), GrantAuthority::Keypair(bank_key))
        .with_storage(store as Arc<dyn Storage>)
        .expect("recovery");
    bank.register_grantor(
        p("carol"),
        GrantorVerifier::PublicKey(carol_key.verifying_key()),
    );
    if bank.account("carol-acct").is_none() {
        bank.open_account("carol-acct", vec![p("carol")]);
        bank.open_account("shop-acct", vec![p("shop")]);
        bank.account_mut("carol-acct").unwrap().credit(usd(), 500);
    }
    (bank, GrantAuthority::Keypair(carol_key), rng)
}

fn carol_check(auth: &GrantAuthority, rng: &mut StdRng, no: u64, amount: u64) -> Check {
    write_check(
        &p("carol"),
        auth,
        &p("bank"),
        "carol-acct",
        p("shop"),
        no,
        usd(),
        amount,
        window(),
        rng,
    )
}

fn total_usd(bank: &AccountingServer) -> u64 {
    ["carol-acct", "shop-acct"]
        .iter()
        .filter_map(|a| bank.account(a))
        .map(|a| a.balance(&usd()) + a.held(&usd()))
        .sum::<u64>()
        + bank.uncollected_total("shop-acct", &usd())
}

#[test]
fn crash_between_append_and_reply_is_exactly_once() {
    let dir = Scratch::new("append-reply");
    let store = Arc::new(WalStorage::open(&dir.0, fast()).expect("open wal"));
    let (bank, auth, mut rng) = boot_on(Arc::clone(&store));
    let check = carol_check(&auth, &mut rng, 1, 100);

    // The settle record reaches the log, then the server dies before
    // any reply: the client sees an error, not an acknowledgement.
    store.crash_after_appends(1);
    let err = bank
        .deposit(
            &check,
            &p("shop"),
            "shop-acct",
            p("bank"),
            Timestamp(1),
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, AcctError::Storage(_)), "got {err:?}");
    drop(bank);
    drop(store);

    // Recovery replays the durable settle exactly once...
    let (bank, _auth, _) = boot(&dir.0);
    assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 400);
    assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 100);
    assert_eq!(total_usd(&bank), 500, "conservation");

    // ...and the client's retry of the unacknowledged deposit is a
    // replay of a spent check number, not a second credit.
    let mut rng = StdRng::seed_from_u64(9);
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
fn crash_before_append_loses_nothing_and_retry_succeeds() {
    let dir = Scratch::new("before-append");
    let store = Arc::new(WalStorage::open(&dir.0, fast()).expect("open wal"));
    let (bank, auth, mut rng) = boot_on(Arc::clone(&store));
    let check = carol_check(&auth, &mut rng, 1, 100);

    // Death on the other side of the window: the record never reached
    // the log, so recovery must show the deposit never happened.
    store.crash_before_appends(1);
    let err = bank
        .deposit(
            &check,
            &p("shop"),
            "shop-acct",
            p("bank"),
            Timestamp(1),
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, AcctError::Storage(_)), "got {err:?}");
    drop(bank);
    drop(store);

    let (bank, _auth, _) = boot(&dir.0);
    assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 500);
    assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 0);

    // Unlike the post-append crash, the retry now goes through: no
    // durable replay mark exists because no money durably moved.
    let mut rng = StdRng::seed_from_u64(9);
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
    assert_eq!(total_usd(&bank), 500, "conservation");
}

#[test]
fn an_admin_credit_the_log_refused_never_reaches_the_account() {
    let dir = Scratch::new("admin-credit");
    let store = Arc::new(WalStorage::open(&dir.0, fast()).expect("open wal"));
    let (mut bank, auth, mut rng) = boot_on(Arc::clone(&store));
    let check = carol_check(&auth, &mut rng, 1, 100);

    // The credit's record dies before the append: what the account
    // reports must be what the log holds.
    store.crash_before_appends(1);
    bank.account_mut("carol-acct").unwrap().credit(usd(), 5);
    assert_eq!(bank.account("carol-acct").unwrap().balance(&usd()), 500);

    // The failed commit left the server fail-stop.
    let err = bank
        .deposit(
            &check,
            &p("shop"),
            "shop-acct",
            p("bank"),
            Timestamp(1),
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, AcctError::Storage(_)), "got {err:?}");
}

#[test]
fn torn_tail_is_truncated_and_the_valid_prefix_replays() {
    let dir = Scratch::new("torn-tail");
    {
        let (bank, auth, mut rng) = boot(&dir.0);
        for no in 1..=2 {
            let check = carol_check(&auth, &mut rng, no, 50);
            bank.deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut rng,
            )
            .unwrap();
        }
    }
    // A write died mid-record: a frame header promising more bytes than
    // the file holds.
    let wal = dir.0.join("wal.0");
    let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
    drop(f);

    let (bank, _auth, _) = boot(&dir.0);
    assert_eq!(
        bank.account("carol-acct").unwrap().balance(&usd()),
        400,
        "both complete settles replayed"
    );
    assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 100);
    assert_eq!(total_usd(&bank), 500, "conservation");
}

#[test]
fn bit_flip_refuses_recovery_at_the_exact_record() {
    let dir = Scratch::new("bit-flip");
    {
        let (bank, auth, mut rng) = boot(&dir.0);
        for no in 1..=3 {
            let check = carol_check(&auth, &mut rng, no, 50);
            bank.deposit(
                &check,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut rng,
            )
            .unwrap();
        }
    }
    // Flip one payload bit in the middle of the log (well past the
    // first records, well before the end).
    let wal = dir.0.join("wal.0");
    let mut bytes = Vec::new();
    OpenOptions::new()
        .read(true)
        .open(&wal)
        .unwrap()
        .read_to_end(&mut bytes)
        .unwrap();
    let mid = bytes.len() / 2;
    let mut f = OpenOptions::new().write(true).open(&wal).unwrap();
    f.seek(SeekFrom::Start(mid as u64)).unwrap();
    f.write_all(&[bytes[mid] ^ 0x01]).unwrap();
    drop(f);

    // Fail closed: the store refuses to open rather than replaying a
    // log it cannot vouch for, and it names the record that failed.
    let err = WalStorage::open(&dir.0, fast()).unwrap_err();
    match err {
        StorageError::Corrupt { record, reason, .. } => {
            assert!(
                matches!(
                    reason,
                    CorruptKind::CrcMismatch | CorruptKind::ImplausibleLength(_)
                ),
                "got {reason:?}"
            );
            assert!(record >= 1, "corruption is past the first record");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn money_is_conserved_across_repeated_restarts() {
    let dir = Scratch::new("conserve");
    let mut next_no = 1;
    for round in 0..3 {
        let (bank, auth, mut rng) = boot(&dir.0);
        assert_eq!(total_usd(&bank), 500, "conservation at boot {round}");
        // A settled deposit, a certified hold, and a bounced attempt
        // per round.
        let check = carol_check(&auth, &mut rng, next_no, 20);
        bank.deposit(
            &check,
            &p("shop"),
            "shop-acct",
            p("bank"),
            Timestamp(1),
            &mut rng,
        )
        .unwrap();
        bank.certify(
            &p("carol"),
            "carol-acct",
            next_no + 1,
            usd(),
            10,
            p("shop"),
            window(),
            &mut rng,
        )
        .unwrap();
        let too_big = carol_check(&auth, &mut rng, next_no + 2, 1_000_000);
        assert!(bank
            .deposit(
                &too_big,
                &p("shop"),
                "shop-acct",
                p("bank"),
                Timestamp(1),
                &mut rng,
            )
            .is_err());
        next_no += 3;
        assert_eq!(total_usd(&bank), 500, "conservation after round {round}");
    }
    let (bank, _auth, _) = boot(&dir.0);
    assert_eq!(total_usd(&bank), 500, "conservation at final boot");
    assert_eq!(
        bank.account("carol-acct").unwrap().held(&usd()),
        30,
        "three rounds of certified holds survive"
    );
    assert_eq!(bank.account("shop-acct").unwrap().balance(&usd()), 60);
}

#[test]
fn revoked_serial_stays_revoked_across_restart_without_refetch() {
    use proxy_aa::authz::EndServer;
    use proxy_aa::crypto::keys::SymmetricKey;
    use proxy_aa::proxy::membership::{member_digest, MembershipArtifact};
    use proxy_aa::proxy::revocation::{ArtifactKind, RevocationArtifact};

    let dir = Scratch::new("artifacts");
    let mut rng = StdRng::seed_from_u64(3);
    let alice_key = SymmetricKey::generate(&mut rng);
    let gs_key = SymmetricKey::generate(&mut rng);
    let resolver = || {
        MapResolver::new()
            .with(p("alice"), GrantorVerifier::SharedKey(alice_key.clone()))
            .with(p("gs"), GrantorVerifier::SharedKey(gs_key.clone()))
    };
    let staff = GroupName::new(p("gs"), "staff");

    {
        let store = Arc::new(WalStorage::open(&dir.0, fast()).expect("open wal"));
        let server = EndServer::new(p("fs"), resolver())
            .with_artifact_store(store as Arc<dyn Storage>)
            .expect("empty store");
        // Alice kills serial 7; the group server posts its staff roster.
        let kill = RevocationArtifact::seal(
            p("alice"),
            1,
            ArtifactKind::Snapshot,
            [7u64].into_iter().collect(),
            &GrantAuthority::SharedKey(alice_key.clone()),
        );
        server.apply_revocation(&kill).expect("revocation applies");
        let roster = MembershipArtifact::seal(
            staff.clone(),
            1,
            ArtifactKind::Snapshot,
            vec![member_digest(&p("bob"))],
            vec![],
            &GrantAuthority::SharedKey(gs_key.clone()),
        );
        server.apply_membership(&roster).expect("roster applies");
        assert!(server.revocation_directory().is_revoked(&p("alice"), 7));
    }

    // Restart: both mirrors resume their epochs purely from local
    // storage — no issuer or group server is consulted.
    let store = Arc::new(WalStorage::open(&dir.0, fast()).expect("reopen wal"));
    let server = EndServer::new(p("fs"), resolver())
        .with_artifact_store(store as Arc<dyn Storage>)
        .expect("recovery");
    assert!(
        server.revocation_directory().is_revoked(&p("alice"), 7),
        "revoked serial stays revoked with the issuer offline"
    );
    assert_eq!(server.revocation_directory().epoch_of(&p("alice")), 1);
    use proxy_aa::proxy::membership::MembershipAnswer;
    assert_eq!(
        server.membership_directory().assert(&staff, &p("bob")),
        MembershipAnswer::Member,
        "membership roster survives too"
    );
}
