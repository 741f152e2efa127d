//! Property-based tests for the Kerberos substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use kerberos_sim::{Authenticator, Client, EncPart, Kdc, Ticket};
use proxy_crypto::keys::SymmetricKey;
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::{Restriction, RestrictionSet};
use restricted_proxy::time::{Timestamp, Validity};

fn restriction_strategy() -> impl Strategy<Value = Restriction> {
    prop_oneof![
        (0u64..100).prop_map(|id| Restriction::AcceptOnce { id }),
        proptest::collection::vec(prop_oneof![Just("s1"), Just("s2")], 1..3).prop_map(|names| {
            Restriction::IssuedFor {
                servers: names.into_iter().map(PrincipalId::new).collect(),
            }
        }),
        (1u64..1000).prop_map(|limit| Restriction::Quota {
            currency: restricted_proxy::restriction::Currency::new("USD"),
            limit,
        }),
    ]
}

fn set_strategy() -> impl Strategy<Value = RestrictionSet> {
    proptest::collection::vec(restriction_strategy(), 0..4).prop_map(RestrictionSet::from_vec)
}

proptest! {
    /// Tickets round-trip through sealing for arbitrary restriction sets,
    /// and the wrong key never opens them.
    #[test]
    fn ticket_seal_round_trips(authdata in set_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service_key = SymmetricKey::generate(&mut rng);
        let ticket = Ticket {
            client: PrincipalId::new("alice"),
            service: PrincipalId::new("fs"),
            session_key: SymmetricKey::generate(&mut rng),
            validity: Validity::new(Timestamp(0), Timestamp(100)),
            authdata,
        };
        let blob = ticket.seal(&service_key, &mut rng);
        // Keys have no `==`: compare the plaintexts by resealing both
        // under one nonce.
        let reseal = |t: &Ticket| t.seal(&service_key, &mut StdRng::seed_from_u64(0));
        prop_assert_eq!(reseal(&Ticket::unseal(&blob, &service_key).unwrap()), reseal(&ticket));
        let wrong = SymmetricKey::generate(&mut rng);
        prop_assert!(Ticket::unseal(&blob, &wrong).is_err());
    }

    /// Authenticators round-trip, proxy or fresh.
    #[test]
    fn authenticator_round_trips(authdata in set_strategy(),
                                 timestamp in any::<u64>(),
                                 proxy in any::<bool>(),
                                 seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let session = SymmetricKey::generate(&mut rng);
        let auth = Authenticator {
            client: PrincipalId::new("alice"),
            timestamp,
            subkey: proxy.then(|| SymmetricKey::generate(&mut rng)),
            authdata,
            proxy_validity: proxy.then(|| Validity::new(Timestamp(0), Timestamp(10))),
        };
        let blob = auth.seal(&session, &mut rng);
        let reseal = |a: &Authenticator| a.seal(&session, &mut StdRng::seed_from_u64(0));
        prop_assert_eq!(reseal(&Authenticator::unseal(&blob, &session).unwrap()), reseal(&auth));
    }

    /// TGS authorization-data is a superset of the TGT's: restrictions
    /// placed at login are never lost downstream (additivity, §6.2).
    #[test]
    fn tgs_never_drops_login_restrictions(login_set in set_strategy(),
                                          request_set in set_strategy(),
                                          seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kdc = Kdc::new(&mut rng);
        let alice_key = kdc.register(PrincipalId::new("alice"), &mut rng);
        kdc.register(PrincipalId::new("fs"), &mut rng);
        let mut alice = Client::new(PrincipalId::new("alice"), alice_key);
        let tgt = alice.login(&kdc, login_set.clone(), 500, 0, &mut rng).unwrap();
        let creds = alice
            .get_service_ticket(&kdc, &tgt, PrincipalId::new("fs"), request_set.clone(), 100, 1, &mut rng)
            .unwrap();
        for r in login_set.iter().chain(request_set.iter()) {
            prop_assert!(creds.authdata.iter().any(|x| x == r), "lost {r:?}");
        }
    }

    /// Corrupting any byte of a sealed ticket makes it unreadable.
    #[test]
    fn corrupted_tickets_never_open(seed in any::<u64>(), pos in any::<usize>(), bit in 0u8..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service_key = SymmetricKey::generate(&mut rng);
        let ticket = Ticket {
            client: PrincipalId::new("alice"),
            service: PrincipalId::new("fs"),
            session_key: SymmetricKey::generate(&mut rng),
            validity: Validity::new(Timestamp(0), Timestamp(100)),
            authdata: RestrictionSet::new(),
        };
        let mut blob = ticket.seal(&service_key, &mut rng);
        let idx = pos % blob.len();
        blob[idx] ^= 1 << bit;
        prop_assert!(Ticket::unseal(&blob, &service_key).is_err());
    }

    /// EncPart nonces bind replies to requests.
    #[test]
    fn enc_part_round_trips(nonce in any::<u64>(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = SymmetricKey::generate(&mut rng);
        let part = EncPart {
            session_key: SymmetricKey::generate(&mut rng),
            service: PrincipalId::new("fs"),
            validity: Validity::new(Timestamp(0), Timestamp(10)),
            nonce,
            authdata: RestrictionSet::new(),
        };
        let blob = part.seal(&key, &mut rng);
        prop_assert_eq!(EncPart::unseal(&blob, &key).unwrap().nonce, nonce);
    }
}
