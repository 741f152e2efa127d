//! Integration: accounting flows across crates, including balance
//! conservation under many concurrent-ish clearings and quota interplay
//! with authorization.

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::accounting::{write_check, AccountingServer, ClearingHouse};
use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::netsim::Network;
use proxy_aa::proxy::prelude::*;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn usd() -> Currency {
    Currency::new("USD")
}

fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

struct Market {
    rng: StdRng,
    house: ClearingHouse,
    carol_auth: GrantAuthority,
    shop_auth: GrantAuthority,
}

fn market(seed: u64) -> Market {
    let mut rng = StdRng::seed_from_u64(seed);
    let carol_key = SigningKey::generate(&mut rng);
    let shop_key = SigningKey::generate(&mut rng);
    let b1 = SigningKey::generate(&mut rng);
    let b2 = SigningKey::generate(&mut rng);
    let mut bank1 = AccountingServer::new(p("$1"), GrantAuthority::Keypair(b1.clone()));
    bank1.open_account("shop", vec![p("shop")]);
    let mut bank2 = AccountingServer::new(p("$2"), GrantAuthority::Keypair(b2));
    bank2.open_account("carol", vec![p("carol")]);
    bank2.account_mut("carol").unwrap().credit(usd(), 10_000);
    bank2.register_grantor(
        p("carol"),
        GrantorVerifier::PublicKey(carol_key.verifying_key()),
    );
    bank2.register_grantor(
        p("shop"),
        GrantorVerifier::PublicKey(shop_key.verifying_key()),
    );
    bank2.register_grantor(p("$1"), GrantorVerifier::PublicKey(b1.verifying_key()));
    let mut house = ClearingHouse::new();
    house.add_server(bank1);
    house.add_server(bank2);
    Market {
        rng,
        house,
        carol_auth: GrantAuthority::Keypair(carol_key),
        shop_auth: GrantAuthority::Keypair(shop_key),
    }
}

fn total_money(m: &Market) -> u64 {
    let carol = m.house.server(&p("$2")).unwrap().account("carol").unwrap();
    let shop = m.house.server(&p("$1")).unwrap().account("shop").unwrap();
    carol.balance(&usd()) + carol.held(&usd()) + shop.balance(&usd())
}

#[test]
fn money_is_conserved_across_many_clearings() {
    let mut m = market(1);
    let start = total_money(&m);
    let mut cleared = 0u64;
    for check_no in 1..=40u64 {
        let amount = (check_no % 7) * 10 + 5;
        let check = write_check(
            &p("carol"),
            &m.carol_auth,
            &p("$2"),
            "carol",
            p("shop"),
            check_no,
            usd(),
            amount,
            window(),
            &mut m.rng,
        );
        let report = m
            .house
            .deposit_and_clear(
                &check,
                &p("shop"),
                &m.shop_auth,
                &p("$1"),
                "shop",
                Timestamp(check_no),
                &mut m.rng,
                None,
            )
            .expect("clears");
        cleared += report.payment.amount;
    }
    assert_eq!(total_money(&m), start, "conservation");
    let shop = m.house.server(&p("$1")).unwrap().account("shop").unwrap();
    assert_eq!(shop.balance(&usd()), cleared);
}

#[test]
fn check_numbers_are_scoped_per_payor() {
    // Two different payors may use the same check number (§7.7 scopes
    // accept-once per grantor).
    let mut m = market(2);
    let dave_key = SigningKey::generate(&mut m.rng);
    {
        let bank2 = m.house.server_mut(&p("$2")).unwrap();
        bank2.open_account("dave", vec![p("dave")]);
        bank2.account_mut("dave").unwrap().credit(usd(), 100);
        bank2.register_grantor(
            p("dave"),
            GrantorVerifier::PublicKey(dave_key.verifying_key()),
        );
    }
    let c1 = write_check(
        &p("carol"),
        &m.carol_auth,
        &p("$2"),
        "carol",
        p("shop"),
        7,
        usd(),
        10,
        window(),
        &mut m.rng,
    );
    let c2 = write_check(
        &p("dave"),
        &GrantAuthority::Keypair(dave_key),
        &p("$2"),
        "dave",
        p("shop"),
        7,
        usd(),
        10,
        window(),
        &mut m.rng,
    );
    assert!(m
        .house
        .deposit_and_clear(
            &c1,
            &p("shop"),
            &m.shop_auth,
            &p("$1"),
            "shop",
            Timestamp(1),
            &mut m.rng,
            None
        )
        .is_ok());
    assert!(m
        .house
        .deposit_and_clear(
            &c2,
            &p("shop"),
            &m.shop_auth,
            &p("$1"),
            "shop",
            Timestamp(2),
            &mut m.rng,
            None
        )
        .is_ok());
}

#[test]
fn clearing_message_shape_matches_fig5() {
    let mut m = market(3);
    let check = write_check(
        &p("carol"),
        &m.carol_auth,
        &p("$2"),
        "carol",
        p("shop"),
        1,
        usd(),
        10,
        window(),
        &mut m.rng,
    );
    let mut net = Network::new(0);
    net.set_default_latency(10);
    let report = m
        .house
        .deposit_and_clear(
            &check,
            &p("shop"),
            &m.shop_auth,
            &p("$1"),
            "shop",
            Timestamp(1),
            &mut m.rng,
            Some(&mut net),
        )
        .expect("clears");
    // Fig. 5: deposit (S→$1), endorsement E2 ($1→$2), payment back.
    assert_eq!(report.messages, 3);
    assert_eq!(net.now(), 30, "3 messages x 10 ticks");
}

#[test]
fn quota_allocate_release_cycle() {
    // §4: quotas are transfers out of and back into an account.
    let mut m = market(4);
    let bank2 = m.house.server_mut(&p("$2")).unwrap();
    let blocks = Currency::new("disk-blocks");
    bank2
        .account_mut("carol")
        .unwrap()
        .credit(blocks.clone(), 100);
    let mut acct = bank2.account_mut("carol").unwrap();
    acct.allocate(blocks.clone(), 80).unwrap();
    assert_eq!(acct.balance(&blocks), 20);
    // Cannot allocate past the quota.
    assert!(acct.allocate(blocks.clone(), 21).is_err());
    acct.release(&blocks, 80).unwrap();
    assert_eq!(acct.balance(&blocks), 100);
}

#[test]
fn quota_restriction_limits_spend_per_presentation() {
    // A proxy carrying `quota` bounds the resources a single request may
    // claim — checked by the verifier before any account is touched.
    let mut m = market(5);
    let proxy = grant(
        &p("carol"),
        &m.carol_auth,
        RestrictionSet::new().with(Restriction::Quota {
            currency: usd(),
            limit: 50,
        }),
        window(),
        1,
        &mut m.rng,
    );
    let resolver = match &m.carol_auth {
        GrantAuthority::Keypair(k) => {
            MapResolver::new().with(p("carol"), GrantorVerifier::PublicKey(k.verifying_key()))
        }
        GrantAuthority::SharedKey(_) => unreachable!(),
    };
    let verifier = Verifier::new(p("printer"), resolver);
    let mut guard = ReplayCache::new();
    let ok_ctx = RequestContext::new(
        p("printer"),
        Operation::new("print"),
        ObjectName::new("job"),
    )
    .at(Timestamp(1))
    .consuming(usd(), 50);
    assert!(verifier
        .verify(
            &proxy.present_bearer([1u8; 32], &p("printer")),
            &ok_ctx,
            &mut guard
        )
        .is_ok());
    let over_ctx = RequestContext::new(
        p("printer"),
        Operation::new("print"),
        ObjectName::new("job"),
    )
    .at(Timestamp(1))
    .consuming(usd(), 51);
    assert!(matches!(
        verifier.verify(
            &proxy.present_bearer([2u8; 32], &p("printer")),
            &over_ctx,
            &mut guard
        ),
        Err(VerifyError::Denied(Denial::QuotaExceeded { .. }))
    ));
}

#[test]
fn bounced_check_reverses_pending_credit_only() {
    let mut m = market(6);
    // Drain carol first so the check bounces.
    m.house
        .server_mut(&p("$2"))
        .unwrap()
        .account_mut("carol")
        .unwrap()
        .debit(&usd(), 10_000)
        .unwrap();
    let check = write_check(
        &p("carol"),
        &m.carol_auth,
        &p("$2"),
        "carol",
        p("shop"),
        9,
        usd(),
        100,
        window(),
        &mut m.rng,
    );
    let err = m
        .house
        .deposit_and_clear(
            &check,
            &p("shop"),
            &m.shop_auth,
            &p("$1"),
            "shop",
            Timestamp(1),
            &mut m.rng,
            None,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        proxy_aa::accounting::AcctError::InsufficientFunds { .. }
    ));
    let bank1 = m.house.server_mut(&p("$1")).unwrap();
    assert_eq!(
        bank1.uncollected_total("shop", &usd()),
        100,
        "pending, not final"
    );
    assert!(bank1.bounce(&p("carol"), 9).unwrap());
    assert_eq!(bank1.uncollected_total("shop", &usd()), 0);
    assert_eq!(
        bank1.account("shop").unwrap().balance(&usd()),
        0,
        "never credited"
    );
}
