//! Application-server side: the AP exchange and proxy acceptance.

use std::collections::HashMap;

use proxy_crypto::keys::SymmetricKey;

use restricted_proxy::key::{GrantorVerifier, KeyResolver};
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::replay::ReplayCache;
use restricted_proxy::restriction::RestrictionSet;
use restricted_proxy::time::Timestamp;

use crate::client::KrbProxy;
use crate::error::KrbError;
use crate::ticket::{Authenticator, Ticket};

/// The result of accepting a ticket: who the peer is, under what session
/// key, and with which restrictions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Accepted {
    /// The authenticated client (or the grantor, for a proxy).
    pub client: PrincipalId,
    /// Established session key.
    pub session_key: SymmetricKey,
    /// Combined restrictions (ticket ∪ authenticator).
    pub restrictions: RestrictionSet,
    /// The subkey, when the authenticator carried one.
    pub subkey: Option<SymmetricKey>,
}

/// An application server that accepts Kerberos tickets.
#[derive(Debug)]
pub struct ApServer {
    name: PrincipalId,
    key: SymmetricKey,
    /// Permitted clock skew for fresh authenticators.
    pub skew: u64,
    /// Replay cache: (client, authenticator timestamp) pairs seen, each
    /// kept until two skews past its acceptance.
    replay: ReplayCache,
    /// Session keys established by successful AP exchanges, by client.
    sessions: HashMap<PrincipalId, SymmetricKey>,
}

impl ApServer {
    /// Creates a server named `name` holding the long-term key it shares
    /// with the KDC.
    #[must_use]
    pub fn new(name: PrincipalId, key: SymmetricKey) -> Self {
        Self {
            name,
            key,
            skew: 10,
            replay: ReplayCache::new(),
            sessions: HashMap::new(),
        }
    }

    /// The server's principal name.
    #[must_use]
    pub fn name(&self) -> &PrincipalId {
        &self.name
    }

    fn open_ticket(&self, ticket_blob: &[u8], now: u64) -> Result<Ticket, KrbError> {
        let ticket = Ticket::unseal(ticket_blob, &self.key)?;
        if ticket.service != self.name {
            return Err(KrbError::WrongService {
                expected: ticket.service.clone(),
                actual: self.name.clone(),
            });
        }
        if !ticket.validity.contains(Timestamp(now)) {
            return Err(KrbError::Expired);
        }
        Ok(ticket)
    }

    /// The AP exchange: accepts `ticket + fresh authenticator`, enforcing
    /// clock skew and the replay cache, and records the session key.
    ///
    /// # Errors
    ///
    /// See [`KrbError`].
    pub fn accept(
        &mut self,
        ticket_blob: &[u8],
        authenticator_blob: &[u8],
        now: u64,
    ) -> Result<Accepted, KrbError> {
        let ticket = self.open_ticket(ticket_blob, now)?;
        let auth = Authenticator::unseal(authenticator_blob, &ticket.session_key)?;
        if auth.client != ticket.client {
            return Err(KrbError::WrongClient);
        }
        if auth.proxy_validity.is_some() {
            // Proxy authenticators go through `accept_proxy`.
            return Err(KrbError::BadPossession);
        }
        if now.abs_diff(auth.timestamp) > self.skew {
            return Err(KrbError::SkewExceeded {
                timestamp: auth.timestamp,
                now,
            });
        }
        // A cache full of live entries refuses a fresh authenticator too:
        // it fails closed, as accept-once does.
        let retain = now.saturating_add(self.skew.saturating_mul(2));
        if !self.replay.check_and_mark(
            &auth.client,
            auth.timestamp,
            Timestamp(now),
            Timestamp(retain),
        ) {
            return Err(KrbError::ReplayDetected);
        }
        // The authenticator was opened under this key, so the stored
        // clone — and every clone `SessionResolver` hands out — shares
        // its derived schedule.
        self.sessions
            .insert(ticket.client.clone(), ticket.session_key.clone());
        Ok(Accepted {
            client: ticket.client,
            session_key: ticket.session_key,
            restrictions: ticket.authdata.union(&auth.authdata),
            subkey: auth.subkey,
        })
    }

    /// Accepts a Kerberos-carried proxy (§6.2): `ticket + proxy
    /// authenticator`, where the presenter proves possession of the subkey
    /// by answering `challenge`.
    ///
    /// On success the returned [`Accepted::client`] is the *grantor* — the
    /// presenter wields the grantor's rights under the combined
    /// restrictions.
    ///
    /// # Errors
    ///
    /// See [`KrbError`].
    pub fn accept_proxy(
        &mut self,
        proxy: &KrbProxy,
        challenge: &[u8],
        possession: &[u8],
        now: u64,
    ) -> Result<Accepted, KrbError> {
        let ticket = self.open_ticket(&proxy.ticket_blob, now)?;
        let auth = Authenticator::unseal(&proxy.authenticator_blob, &ticket.session_key)?;
        if auth.client != ticket.client {
            return Err(KrbError::WrongClient);
        }
        let window = auth.proxy_validity.ok_or(KrbError::BadPossession)?;
        if !window.contains(Timestamp(now)) {
            return Err(KrbError::Expired);
        }
        let subkey = auth.subkey.clone().ok_or(KrbError::NoSubkey)?;
        if !subkey.verify_mac(challenge, possession) {
            return Err(KrbError::BadPossession);
        }
        Ok(Accepted {
            client: ticket.client,
            session_key: ticket.session_key,
            restrictions: ticket.authdata.union(&auth.authdata),
            subkey: Some(subkey),
        })
    }

    /// Evicts expired replay-cache entries. The cache also sweeps itself
    /// as it marks, so a long-lived server need not call this.
    pub fn expire_replay_cache(&mut self, now: u64) {
        self.replay.sweep(Timestamp(now));
    }

    /// The session key most recently established with `client`, if any.
    #[must_use]
    pub fn session_key(&self, client: &PrincipalId) -> Option<&SymmetricKey> {
        self.sessions.get(client)
    }

    /// Number of live replay-cache entries.
    #[must_use]
    pub fn replay_cache_len(&self) -> usize {
        self.replay.len()
    }
}

/// [`KeyResolver`] over an [`ApServer`]'s established sessions: once a
/// grantor has authenticated, the server can verify restricted-proxy
/// certificates the grantor seals under that session key. This is the
/// bridge between the Kerberos substrate (§6.2) and the core proxy model.
#[derive(Debug)]
pub struct SessionResolver<'a>(pub &'a ApServer);

impl KeyResolver for SessionResolver<'_> {
    fn grantor_verifier(&self, grantor: &PrincipalId) -> Option<GrantorVerifier> {
        self.0
            .session_key(grantor)
            .map(|k| GrantorVerifier::SharedKey(k.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::kdc::Kdc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    struct Fixture {
        rng: StdRng,
        kdc: Kdc,
        alice: Client,
        fs: ApServer,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(2);
        let mut kdc = Kdc::new(&mut rng);
        let alice_key = kdc.register(p("alice"), &mut rng);
        let fs_key = kdc.register(p("fs"), &mut rng);
        Fixture {
            rng,
            kdc,
            alice: Client::new(p("alice"), alice_key),
            fs: ApServer::new(p("fs"), fs_key),
        }
    }

    fn service_creds(f: &mut Fixture, now: u64) -> crate::client::Credentials {
        let tgt = f
            .alice
            .login(&f.kdc, RestrictionSet::new(), 500, now, &mut f.rng)
            .unwrap();
        f.alice
            .get_service_ticket(
                &f.kdc,
                &tgt,
                p("fs"),
                RestrictionSet::new(),
                200,
                now,
                &mut f.rng,
            )
            .unwrap()
    }

    #[test]
    fn ap_exchange_accepts_valid_ticket() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let auth = f.alice.make_authenticator(&creds, 1, &mut f.rng);
        let accepted = f.fs.accept(&creds.ticket_blob, &auth, 1).unwrap();
        assert_eq!(accepted.client, p("alice"));
        assert_eq!(
            accepted.session_key.as_bytes(),
            creds.session_key.as_bytes(),
            "both sides agree on the session key"
        );
        assert!(f.fs.session_key(&p("alice")).is_some());
    }

    #[test]
    fn session_resolver_clones_share_the_stored_keys_schedule() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let auth = f.alice.make_authenticator(&creds, 1, &mut f.rng);
        f.fs.accept(&creds.ticket_blob, &auth, 1).unwrap();
        let clones = [(); 2].map(|()| SessionResolver(&f.fs).grantor_verifier(&p("alice")));
        let [Some(GrantorVerifier::SharedKey(a)), Some(GrantorVerifier::SharedKey(b))] = clones
        else {
            panic!("alice has a session");
        };
        assert!(a.shares_schedule_with(&b));
    }

    #[test]
    fn replayed_authenticator_rejected() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let auth = f.alice.make_authenticator(&creds, 1, &mut f.rng);
        assert!(f.fs.accept(&creds.ticket_blob, &auth, 1).is_ok());
        assert_eq!(
            f.fs.accept(&creds.ticket_blob, &auth, 2),
            Err(KrbError::ReplayDetected)
        );
    }

    #[test]
    fn replay_cache_expires() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let auth = f.alice.make_authenticator(&creds, 1, &mut f.rng);
        assert!(f.fs.accept(&creds.ticket_blob, &auth, 1).is_ok());
        assert_eq!(f.fs.replay_cache_len(), 1);
        f.fs.expire_replay_cache(100);
        assert_eq!(f.fs.replay_cache_len(), 0);
    }

    #[test]
    fn a_long_lived_server_forgets_lapsed_authenticators_on_its_own() {
        let mut f = fixture();
        let mut creds = service_creds(&mut f, 0);
        for now in 0..40_000u64 {
            if now > 0 && now % 150 == 0 {
                creds = service_creds(&mut f, now);
            }
            let auth = f.alice.make_authenticator(&creds, now, &mut f.rng);
            assert!(f.fs.accept(&creds.ticket_blob, &auth, now).is_ok());
        }
        // No `expire_replay_cache` call: each authenticator lapses two
        // skews after it is accepted, and the cache sweeps itself.
        assert!(
            f.fs.replay_cache_len() < 20_000,
            "{} authenticators remembered",
            f.fs.replay_cache_len()
        );
    }

    #[test]
    fn stale_authenticator_rejected() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let auth = f.alice.make_authenticator(&creds, 1, &mut f.rng);
        assert_eq!(
            f.fs.accept(&creds.ticket_blob, &auth, 50),
            Err(KrbError::SkewExceeded {
                timestamp: 1,
                now: 50
            })
        );
    }

    #[test]
    fn ticket_for_other_service_rejected() {
        let mut f = fixture();
        let mut rng = StdRng::seed_from_u64(9);
        let mail_key = f.kdc.register(p("mail"), &mut rng);
        let mut mail = ApServer::new(p("mail"), mail_key);
        let creds = service_creds(&mut f, 0); // ticket for fs
        let auth = f.alice.make_authenticator(&creds, 1, &mut f.rng);
        assert!(matches!(
            mail.accept(&creds.ticket_blob, &auth, 1),
            // Sealed under fs's key: mail can't even open it.
            Err(KrbError::BadSeal)
        ));
    }

    #[test]
    fn proxy_acceptance_round_trip() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let (proxy, proxy_key) = f
            .alice
            .derive_proxy(
                &creds,
                RestrictionSet::new(),
                restricted_proxy::time::Validity::new(Timestamp(0), Timestamp(150)),
                0,
                &mut f.rng,
            )
            .unwrap();
        // Grantee (bob) presents the proxy, answering the server challenge.
        let challenge = b"fs-challenge-001";
        let possession = proxy_key.prove(challenge);
        let accepted =
            f.fs.accept_proxy(&proxy, challenge, &possession, 5)
                .unwrap();
        assert_eq!(accepted.client, p("alice"), "grantee acts as the grantor");
        // Wrong possession proof fails.
        assert_eq!(
            f.fs.accept_proxy(&proxy, b"other-challenge", &possession, 5),
            Err(KrbError::BadPossession)
        );
    }

    #[test]
    fn proxy_outside_window_rejected() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let (proxy, proxy_key) = f
            .alice
            .derive_proxy(
                &creds,
                RestrictionSet::new(),
                restricted_proxy::time::Validity::new(Timestamp(0), Timestamp(50)),
                0,
                &mut f.rng,
            )
            .unwrap();
        let possession = proxy_key.prove(b"c");
        assert_eq!(
            f.fs.accept_proxy(&proxy, b"c", &possession, 60),
            Err(KrbError::Expired)
        );
    }

    #[test]
    fn proxy_authenticator_rejected_on_fresh_path() {
        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let (proxy, _key) = f
            .alice
            .derive_proxy(
                &creds,
                RestrictionSet::new(),
                restricted_proxy::time::Validity::new(Timestamp(0), Timestamp(150)),
                0,
                &mut f.rng,
            )
            .unwrap();
        // A proxy authenticator must not pass as a fresh login.
        assert_eq!(
            f.fs.accept(&proxy.ticket_blob, &proxy.authenticator_blob, 1),
            Err(KrbError::BadPossession)
        );
    }

    #[test]
    fn session_resolver_bridges_to_restricted_proxy() {
        use rand::rngs::StdRng as Rng2;
        use restricted_proxy::prelude::*;

        let mut f = fixture();
        let creds = service_creds(&mut f, 0);
        let auth = f.alice.make_authenticator(&creds, 1, &mut f.rng);
        f.fs.accept(&creds.ticket_blob, &auth, 1).unwrap();

        // Alice now grants a restricted-proxy certificate under the session
        // key; the file server verifies it through the SessionResolver.
        let mut rng = Rng2::seed_from_u64(77);
        let proxy = restricted_proxy::proxy::grant(
            &p("alice"),
            &GrantAuthority::SharedKey(creds.session_key.clone()),
            RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        let verifier = Verifier::new(p("fs"), SessionResolver(&f.fs));
        let ctx = RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("x"))
            .at(Timestamp(2));
        let mut guard = ReplayCache::new();
        let verified = verifier.verify(&pres, &ctx, &mut guard).unwrap();
        assert_eq!(verified.grantor, p("alice"));
    }
}
