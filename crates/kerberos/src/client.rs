//! Client-side credential handling: login, service tickets, and proxy
//! derivation (§6.2).

use rand::RngCore;

use proxy_crypto::keys::SymmetricKey;

use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::RestrictionSet;
use restricted_proxy::time::Validity;

use crate::error::KrbError;
use crate::kdc::{AsRequest, Kdc, TgsRequest};
use crate::ticket::{Authenticator, EncPart};

/// Credentials as held by a client: the opaque ticket blob plus the
/// client's copy of the session key ("Credentials consist of a ticket, and
/// a session key").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Credentials {
    /// The service these credentials speak to.
    pub service: PrincipalId,
    /// Sealed ticket (opaque to the client).
    pub ticket_blob: Vec<u8>,
    /// The client's copy of the session key.
    pub session_key: SymmetricKey,
    /// Ticket validity.
    pub validity: Validity,
    /// The restrictions baked into the ticket.
    pub authdata: RestrictionSet,
}

/// A Kerberos-carried restricted proxy (§6.2): "The ticket and
/// authenticator are treated as the new proxy and provided with the new
/// proxy key to the grantee."
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KrbProxy {
    /// The underlying (sealed) ticket.
    pub ticket_blob: Vec<u8>,
    /// The proxy authenticator: subkey + added restrictions, sealed under
    /// the session key (so only the end-server can open it).
    pub authenticator_blob: Vec<u8>,
    /// The proxy's validity window.
    pub validity: Validity,
}

/// The proxy key handed to the grantee along with a [`KrbProxy`].
#[derive(Clone)]
pub struct KrbProxyKey(pub SymmetricKey);

impl std::fmt::Debug for KrbProxyKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KrbProxyKey(<redacted>)")
    }
}

impl KrbProxyKey {
    /// Answers a server challenge, proving possession of the proxy key.
    #[must_use]
    pub fn prove(&self, challenge: &[u8]) -> Vec<u8> {
        self.0.mac(challenge).to_vec()
    }
}

/// A Kerberos client.
#[derive(Debug)]
pub struct Client {
    name: PrincipalId,
    key: SymmetricKey,
    next_nonce: u64,
}

impl Client {
    /// Creates a client for `name` holding its long-term key.
    #[must_use]
    pub fn new(name: PrincipalId, key: SymmetricKey) -> Self {
        Self {
            name,
            key,
            next_nonce: 1,
        }
    }

    /// The client's principal name.
    #[must_use]
    pub fn name(&self) -> &PrincipalId {
        &self.name
    }

    fn nonce(&mut self) -> u64 {
        let n = self.next_nonce;
        self.next_nonce += 1;
        n
    }

    /// AS exchange: obtains a TGT, optionally restricted from the start
    /// (§6.3: "restrictions can be placed on the credentials based on the
    /// characteristics of the initial exchange").
    ///
    /// # Errors
    ///
    /// KDC errors, [`KrbError::NonceMismatch`] on reply substitution, and
    /// [`KrbError::BadSeal`] when the reply was not meant for this client.
    pub fn login<R: RngCore>(
        &mut self,
        kdc: &Kdc,
        restrictions: RestrictionSet,
        lifetime: u64,
        now: u64,
        rng: &mut R,
    ) -> Result<Credentials, KrbError> {
        let nonce = self.nonce();
        let req = AsRequest {
            client: self.name.clone(),
            nonce,
            restrictions,
            lifetime,
        };
        let reply = kdc.authentication_service(&req, now, rng)?;
        let enc = EncPart::unseal(&reply.enc_part, &self.key)?;
        if enc.nonce != nonce {
            return Err(KrbError::NonceMismatch);
        }
        Ok(Credentials {
            service: enc.service,
            ticket_blob: reply.ticket_blob,
            session_key: enc.session_key,
            validity: enc.validity,
            authdata: enc.authdata,
        })
    }

    /// TGS exchange: converts a TGT into a service ticket, optionally
    /// adding restrictions.
    ///
    /// # Errors
    ///
    /// KDC errors and [`KrbError::NonceMismatch`] on reply substitution.
    #[allow(clippy::too_many_arguments)]
    pub fn get_service_ticket<R: RngCore>(
        &mut self,
        kdc: &Kdc,
        tgt: &Credentials,
        service: PrincipalId,
        additional_restrictions: RestrictionSet,
        lifetime: u64,
        now: u64,
        rng: &mut R,
    ) -> Result<Credentials, KrbError> {
        let nonce = self.nonce();
        let authenticator = Authenticator {
            client: self.name.clone(),
            timestamp: now,
            subkey: None,
            authdata: RestrictionSet::new(),
            proxy_validity: None,
        }
        .seal(&tgt.session_key, rng);
        let req = TgsRequest {
            tgt_blob: tgt.ticket_blob.clone(),
            authenticator_blob: authenticator,
            service,
            nonce,
            additional_restrictions,
            lifetime,
            proxy_possession: None,
        };
        let reply = kdc.ticket_granting_service(&req, now, rng)?;
        let enc = EncPart::unseal(&reply.enc_part, &tgt.session_key)?;
        if enc.nonce != nonce {
            return Err(KrbError::NonceMismatch);
        }
        Ok(Credentials {
            service: enc.service,
            ticket_blob: reply.ticket_blob,
            session_key: enc.session_key,
            validity: enc.validity,
            authdata: enc.authdata,
        })
    }

    /// Builds a fresh authenticator for presenting `creds` to its service
    /// (the AP exchange).
    pub fn make_authenticator<R: RngCore>(
        &self,
        creds: &Credentials,
        now: u64,
        rng: &mut R,
    ) -> Vec<u8> {
        Authenticator {
            client: self.name.clone(),
            timestamp: now,
            subkey: None,
            authdata: RestrictionSet::new(),
            proxy_validity: None,
        }
        .seal(&creds.session_key, rng)
    }

    /// Derives a restricted proxy from existing credentials (§6.2): a new
    /// proxy key goes into the authenticator's subkey field, additional
    /// restrictions into its authorization-data, and the pair
    /// (ticket, authenticator) becomes the proxy.
    ///
    /// # Errors
    ///
    /// [`KrbError::Expired`] when `window` does not overlap the ticket's
    /// validity.
    pub fn derive_proxy<R: RngCore>(
        &self,
        creds: &Credentials,
        additional: RestrictionSet,
        window: Validity,
        now: u64,
        rng: &mut R,
    ) -> Result<(KrbProxy, KrbProxyKey), KrbError> {
        let window = window.intersect(&creds.validity).ok_or(KrbError::Expired)?;
        let subkey = SymmetricKey::generate(rng);
        let authenticator = Authenticator {
            client: self.name.clone(),
            timestamp: now,
            subkey: Some(subkey.clone()),
            authdata: additional,
            proxy_validity: Some(window),
        }
        .seal(&creds.session_key, rng);
        Ok((
            KrbProxy {
                ticket_blob: creds.ticket_blob.clone(),
                authenticator_blob: authenticator,
                validity: window,
            },
            KrbProxyKey(subkey),
        ))
    }
}

/// A grantee's use of a TGS proxy (§6.3): mint a service ticket for a new
/// end-server, carrying the proxy's restrictions, without ever learning the
/// grantor's TGT session key.
///
/// # Errors
///
/// KDC errors; [`KrbError::NonceMismatch`] on reply substitution.
#[allow(clippy::too_many_arguments)]
pub fn redeem_tgs_proxy<R: RngCore>(
    kdc: &Kdc,
    proxy: &KrbProxy,
    proxy_key: &KrbProxyKey,
    service: PrincipalId,
    additional_restrictions: RestrictionSet,
    lifetime: u64,
    now: u64,
    rng: &mut R,
) -> Result<Credentials, KrbError> {
    let nonce = u64::from_le_bytes({
        let mut b = [0u8; 8];
        rng.fill_bytes(&mut b);
        b
    });
    let possession = proxy_key.0.mac(&nonce.to_le_bytes()).to_vec();
    let req = TgsRequest {
        tgt_blob: proxy.ticket_blob.clone(),
        authenticator_blob: proxy.authenticator_blob.clone(),
        service,
        nonce,
        additional_restrictions,
        lifetime,
        proxy_possession: Some(possession),
    };
    let reply = kdc.ticket_granting_service(&req, now, rng)?;
    // The reply is sealed under the proxy subkey — exactly what the
    // grantee holds.
    let enc = EncPart::unseal(&reply.enc_part, &proxy_key.0)?;
    if enc.nonce != nonce {
        return Err(KrbError::NonceMismatch);
    }
    Ok(Credentials {
        service: enc.service,
        ticket_blob: reply.ticket_blob,
        session_key: enc.session_key,
        validity: enc.validity,
        authdata: enc.authdata,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::restriction::Restriction;
    use restricted_proxy::time::Timestamp;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    struct Fixture {
        rng: StdRng,
        kdc: Kdc,
        alice: Client,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(1);
        let mut kdc = Kdc::new(&mut rng);
        let alice_key = kdc.register(p("alice"), &mut rng);
        kdc.register(p("fs"), &mut rng);
        kdc.register(p("mail"), &mut rng);
        Fixture {
            rng,
            kdc,
            alice: Client::new(p("alice"), alice_key),
        }
    }

    #[test]
    fn login_then_service_ticket() {
        let mut f = fixture();
        let tgt = f
            .alice
            .login(&f.kdc, RestrictionSet::new(), 500, 0, &mut f.rng)
            .unwrap();
        assert_eq!(tgt.service, p("krbtgt"));
        let st = f
            .alice
            .get_service_ticket(
                &f.kdc,
                &tgt,
                p("fs"),
                RestrictionSet::new(),
                100,
                5,
                &mut f.rng,
            )
            .unwrap();
        assert_eq!(st.service, p("fs"));
        assert!(st.validity.contains(Timestamp(50)));
    }

    #[test]
    fn wrong_key_client_cannot_login() {
        let mut f = fixture();
        let mut eve = Client::new(p("alice"), SymmetricKey::generate(&mut f.rng));
        assert_eq!(
            eve.login(&f.kdc, RestrictionSet::new(), 500, 0, &mut f.rng),
            Err(KrbError::BadSeal)
        );
    }

    #[test]
    fn derive_proxy_clips_to_ticket_window() {
        let mut f = fixture();
        let tgt = f
            .alice
            .login(&f.kdc, RestrictionSet::new(), 500, 0, &mut f.rng)
            .unwrap();
        let (proxy, _key) = f
            .alice
            .derive_proxy(
                &tgt,
                RestrictionSet::new(),
                Validity::new(Timestamp(0), Timestamp(10_000)),
                0,
                &mut f.rng,
            )
            .unwrap();
        assert!(proxy.validity.until <= tgt.validity.until);
    }

    #[test]
    fn tgs_proxy_mints_restricted_tickets_for_grantee() {
        let mut f = fixture();
        let tgt = f
            .alice
            .login(&f.kdc, RestrictionSet::new(), 500, 0, &mut f.rng)
            .unwrap();
        let restriction = Restriction::issued_for_one(p("fs"));
        let (proxy, proxy_key) = f
            .alice
            .derive_proxy(
                &tgt,
                RestrictionSet::new().with(restriction.clone()),
                Validity::new(Timestamp(0), Timestamp(300)),
                0,
                &mut f.rng,
            )
            .unwrap();
        // The grantee (who is NOT alice and has no long-term key relation)
        // redeems the proxy for a service ticket.
        let creds = redeem_tgs_proxy(
            &f.kdc,
            &proxy,
            &proxy_key,
            p("fs"),
            RestrictionSet::new(),
            100,
            10,
            &mut f.rng,
        )
        .unwrap();
        assert_eq!(creds.service, p("fs"));
        // The restriction followed the proxy into the new ticket.
        assert!(creds.authdata.iter().any(|r| *r == restriction));
        // And the ticket cannot outlive the proxy window.
        assert!(creds.validity.until <= Timestamp(300));
    }

    #[test]
    fn tgs_proxy_redeem_fails_without_key() {
        let mut f = fixture();
        let tgt = f
            .alice
            .login(&f.kdc, RestrictionSet::new(), 500, 0, &mut f.rng)
            .unwrap();
        let (proxy, _real_key) = f
            .alice
            .derive_proxy(
                &tgt,
                RestrictionSet::new(),
                Validity::new(Timestamp(0), Timestamp(300)),
                0,
                &mut f.rng,
            )
            .unwrap();
        let wrong = KrbProxyKey(SymmetricKey::generate(&mut f.rng));
        assert_eq!(
            redeem_tgs_proxy(
                &f.kdc,
                &proxy,
                &wrong,
                p("fs"),
                RestrictionSet::new(),
                100,
                10,
                &mut f.rng,
            ),
            Err(KrbError::BadPossession)
        );
    }

    #[test]
    fn expired_proxy_cannot_be_redeemed() {
        let mut f = fixture();
        let tgt = f
            .alice
            .login(&f.kdc, RestrictionSet::new(), 500, 0, &mut f.rng)
            .unwrap();
        let (proxy, key) = f
            .alice
            .derive_proxy(
                &tgt,
                RestrictionSet::new(),
                Validity::new(Timestamp(0), Timestamp(50)),
                0,
                &mut f.rng,
            )
            .unwrap();
        assert_eq!(
            redeem_tgs_proxy(
                &f.kdc,
                &proxy,
                &key,
                p("fs"),
                RestrictionSet::new(),
                100,
                60,
                &mut f.rng,
            ),
            Err(KrbError::Expired)
        );
    }
}
