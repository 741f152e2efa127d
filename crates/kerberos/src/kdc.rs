//! The key distribution center: AS and TGS exchanges.
//!
//! Restrictions ride in `authorization-data`. The TGS *unions* restrictions
//! from the presented TGT, the authenticator, and the request — it can add
//! but never remove them (§6.2), which is what makes an initial login
//! "itself … the granting of a proxy" (§6.3).

use std::collections::HashMap;

use rand::RngCore;

use proxy_crypto::keys::SymmetricKey;

use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::RestrictionSet;
use restricted_proxy::time::{Timestamp, Validity};

use crate::error::KrbError;
use crate::ticket::{Authenticator, EncPart, Ticket};

/// The well-known name of the ticket-granting service.
#[must_use]
pub fn tgs_principal() -> PrincipalId {
    PrincipalId::new("krbtgt")
}

/// An AS request (login).
#[derive(Clone, Debug)]
pub struct AsRequest {
    /// The client logging in.
    pub client: PrincipalId,
    /// Fresh nonce binding the reply to this request.
    pub nonce: u64,
    /// Restrictions to bake into the TGT (restricting one's own initial
    /// credentials, §6.3).
    pub restrictions: RestrictionSet,
    /// Requested ticket lifetime in ticks.
    pub lifetime: u64,
}

/// An AS reply: a TGT plus the encrypted part for the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsReply {
    /// TGT sealed under the TGS key (opaque to the client).
    pub ticket_blob: Vec<u8>,
    /// [`EncPart`] sealed under the client's long-term key.
    pub enc_part: Vec<u8>,
}

/// A TGS request (get a service ticket using a TGT).
#[derive(Clone, Debug)]
pub struct TgsRequest {
    /// The TGT blob from the AS exchange.
    pub tgt_blob: Vec<u8>,
    /// Authenticator sealed under the TGT session key (fresh path) — or a
    /// *proxy* authenticator when exercising a TGS proxy (§6.3).
    pub authenticator_blob: Vec<u8>,
    /// The service a ticket is requested for.
    pub service: PrincipalId,
    /// Fresh nonce binding the reply to this request.
    pub nonce: u64,
    /// Additional restrictions for the issued ticket (additive).
    pub additional_restrictions: RestrictionSet,
    /// Requested ticket lifetime in ticks.
    pub lifetime: u64,
    /// Proof of subkey possession when the authenticator is a proxy:
    /// `HMAC(subkey, challenge)` where `challenge = nonce (LE bytes)`.
    pub proxy_possession: Option<Vec<u8>>,
}

/// A TGS reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TgsReply {
    /// Service ticket sealed under the service's long-term key.
    pub ticket_blob: Vec<u8>,
    /// [`EncPart`] sealed under the authenticator subkey if present,
    /// otherwise under the TGT session key.
    pub enc_part: Vec<u8>,
}

/// The key distribution center.
#[derive(Debug)]
pub struct Kdc {
    principals: HashMap<PrincipalId, SymmetricKey>,
    tgs_key: SymmetricKey,
    /// Maximum ticket lifetime the KDC will issue.
    pub max_lifetime: u64,
    /// Permitted authenticator clock skew.
    pub skew: u64,
}

impl Kdc {
    /// Creates a KDC with a fresh TGS key.
    pub fn new<R: RngCore>(rng: &mut R) -> Self {
        Self {
            principals: HashMap::new(),
            tgs_key: SymmetricKey::generate(rng),
            max_lifetime: 1_000,
            skew: 10,
        }
    }

    /// Registers a principal, generating and returning its long-term key
    /// (in a real deployment: derived from a password or set up by an
    /// administrator).
    pub fn register<R: RngCore>(&mut self, name: PrincipalId, rng: &mut R) -> SymmetricKey {
        let key = SymmetricKey::generate(rng);
        self.principals.insert(name, key.clone());
        key
    }

    /// Number of registered principals.
    #[must_use]
    pub fn principal_count(&self) -> usize {
        self.principals.len()
    }

    fn principal_key(&self, name: &PrincipalId) -> Result<&SymmetricKey, KrbError> {
        self.principals
            .get(name)
            .ok_or_else(|| KrbError::UnknownPrincipal(name.clone()))
    }

    /// The AS exchange: authenticates `req.client` (by the ability to
    /// decrypt the reply) and issues a TGT.
    ///
    /// # Errors
    ///
    /// [`KrbError::UnknownPrincipal`] when the client is not registered.
    pub fn authentication_service<R: RngCore>(
        &self,
        req: &AsRequest,
        now: u64,
        rng: &mut R,
    ) -> Result<AsReply, KrbError> {
        let client_key = self.principal_key(&req.client)?;
        let session_key = SymmetricKey::generate(rng);
        let validity = Validity::new(
            Timestamp(now),
            Timestamp(now + req.lifetime.min(self.max_lifetime)),
        );
        let ticket = Ticket {
            client: req.client.clone(),
            service: tgs_principal(),
            session_key: session_key.clone(),
            validity,
            authdata: req.restrictions.clone(),
        };
        let enc = EncPart {
            session_key,
            service: tgs_principal(),
            validity,
            nonce: req.nonce,
            authdata: req.restrictions.clone(),
        };
        Ok(AsReply {
            ticket_blob: ticket.seal(&self.tgs_key, rng),
            enc_part: enc.seal(client_key, rng),
        })
    }

    /// The TGS exchange: validates the TGT and authenticator, then issues
    /// a service ticket whose `authorization-data` is the *union* of the
    /// TGT's, the authenticator's, and the request's restrictions.
    ///
    /// When the presented authenticator is a proxy authenticator (§6.3 TGS
    /// proxy), the presenter must prove possession of the proxy subkey via
    /// `req.proxy_possession`, and the reply's encrypted part is sealed
    /// under that subkey (the grantee never learns the TGT session key).
    ///
    /// # Errors
    ///
    /// See [`KrbError`]; every validation failure maps to a variant.
    pub fn ticket_granting_service<R: RngCore>(
        &self,
        req: &TgsRequest,
        now: u64,
        rng: &mut R,
    ) -> Result<TgsReply, KrbError> {
        let tgt = Ticket::unseal(&req.tgt_blob, &self.tgs_key)?;
        if tgt.service != tgs_principal() {
            return Err(KrbError::WrongService {
                expected: tgt.service.clone(),
                actual: tgs_principal(),
            });
        }
        if !tgt.validity.contains(Timestamp(now)) {
            return Err(KrbError::Expired);
        }
        let auth = Authenticator::unseal(&req.authenticator_blob, &tgt.session_key)?;
        if auth.client != tgt.client {
            return Err(KrbError::WrongClient);
        }
        let reply_key = match &auth.proxy_validity {
            None => {
                // Fresh path: timestamp within skew.
                if now.abs_diff(auth.timestamp) > self.skew {
                    return Err(KrbError::SkewExceeded {
                        timestamp: auth.timestamp,
                        now,
                    });
                }
                tgt.session_key.clone()
            }
            Some(window) => {
                // Proxy path: window valid and possession of the subkey.
                if !window.contains(Timestamp(now)) {
                    return Err(KrbError::Expired);
                }
                let subkey = auth.subkey.clone().ok_or(KrbError::NoSubkey)?;
                let proof = req
                    .proxy_possession
                    .as_ref()
                    .ok_or(KrbError::BadPossession)?;
                if !subkey.verify_mac(&req.nonce.to_le_bytes(), proof) {
                    return Err(KrbError::BadPossession);
                }
                subkey
            }
        };
        let service_key = self.principal_key(&req.service)?;
        // Additive authorization-data: never remove, only union.
        let authdata = tgt
            .authdata
            .union(&auth.authdata)
            .union(&req.additional_restrictions);
        let session_key = SymmetricKey::generate(rng);
        let mut until = Timestamp(now + req.lifetime.min(self.max_lifetime));
        // A ticket derived from a proxy must not outlive the proxy window.
        if let Some(window) = &auth.proxy_validity {
            until = until.min(window.until);
        }
        until = until.min(tgt.validity.until);
        if Timestamp(now) >= until {
            return Err(KrbError::Expired);
        }
        let validity = Validity::new(Timestamp(now), until);
        let ticket = Ticket {
            client: tgt.client.clone(),
            service: req.service.clone(),
            session_key: session_key.clone(),
            validity,
            authdata: authdata.clone(),
        };
        let enc = EncPart {
            session_key,
            service: req.service.clone(),
            validity,
            nonce: req.nonce,
            authdata,
        };
        Ok(TgsReply {
            ticket_blob: ticket.seal(service_key, rng),
            enc_part: enc.seal(&reply_key, rng),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::restriction::Restriction;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    struct Fixture {
        rng: StdRng,
        kdc: Kdc,
        alice_key: SymmetricKey,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(0);
        let mut kdc = Kdc::new(&mut rng);
        let alice_key = kdc.register(p("alice"), &mut rng);
        kdc.register(p("fs"), &mut rng);
        Fixture {
            rng,
            kdc,
            alice_key,
        }
    }

    fn login(f: &mut Fixture, now: u64) -> (Vec<u8>, EncPart) {
        let req = AsRequest {
            client: p("alice"),
            nonce: 1,
            restrictions: RestrictionSet::new(),
            lifetime: 500,
        };
        let reply = f.kdc.authentication_service(&req, now, &mut f.rng).unwrap();
        let enc = EncPart::unseal(&reply.enc_part, &f.alice_key).unwrap();
        (reply.ticket_blob, enc)
    }

    #[test]
    fn as_exchange_issues_decryptable_tgt() {
        let mut f = fixture();
        let (_tgt, enc) = login(&mut f, 100);
        assert_eq!(enc.service, tgs_principal());
        assert_eq!(enc.nonce, 1);
        assert!(enc.validity.contains(Timestamp(100)));
    }

    #[test]
    fn as_exchange_rejects_unknown_client() {
        let mut f = fixture();
        let req = AsRequest {
            client: p("mallory"),
            nonce: 1,
            restrictions: RestrictionSet::new(),
            lifetime: 500,
        };
        assert_eq!(
            f.kdc.authentication_service(&req, 0, &mut f.rng),
            Err(KrbError::UnknownPrincipal(p("mallory")))
        );
    }

    fn fresh_auth(enc: &EncPart, now: u64, rng: &mut StdRng) -> Vec<u8> {
        Authenticator {
            client: p("alice"),
            timestamp: now,
            subkey: None,
            authdata: RestrictionSet::new(),
            proxy_validity: None,
        }
        .seal(&enc.session_key, rng)
    }

    #[test]
    fn tgs_exchange_issues_service_ticket() {
        let mut f = fixture();
        let (tgt, enc) = login(&mut f, 100);
        let req = TgsRequest {
            tgt_blob: tgt,
            authenticator_blob: fresh_auth(&enc, 105, &mut f.rng),
            service: p("fs"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 200,
            proxy_possession: None,
        };
        let reply = f
            .kdc
            .ticket_granting_service(&req, 105, &mut f.rng)
            .unwrap();
        let enc2 = EncPart::unseal(&reply.enc_part, &enc.session_key).unwrap();
        assert_eq!(enc2.service, p("fs"));
        assert_eq!(enc2.nonce, 2);
    }

    #[test]
    fn tgs_rejects_stale_authenticator() {
        let mut f = fixture();
        let (tgt, enc) = login(&mut f, 100);
        let req = TgsRequest {
            tgt_blob: tgt,
            authenticator_blob: fresh_auth(&enc, 105, &mut f.rng),
            service: p("fs"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 200,
            proxy_possession: None,
        };
        // 30 ticks later: outside the default skew of 10.
        assert_eq!(
            f.kdc.ticket_granting_service(&req, 135, &mut f.rng),
            Err(KrbError::SkewExceeded {
                timestamp: 105,
                now: 135
            })
        );
    }

    #[test]
    fn tgs_rejects_expired_tgt() {
        let mut f = fixture();
        let (tgt, enc) = login(&mut f, 100); // valid until 600
        let req = TgsRequest {
            tgt_blob: tgt,
            authenticator_blob: fresh_auth(&enc, 700, &mut f.rng),
            service: p("fs"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 200,
            proxy_possession: None,
        };
        assert_eq!(
            f.kdc.ticket_granting_service(&req, 700, &mut f.rng),
            Err(KrbError::Expired)
        );
    }

    #[test]
    fn tgs_unions_restrictions_additively() {
        let mut f = fixture();
        let r_tgt = Restriction::AcceptOnce { id: 1 };
        let req = AsRequest {
            client: p("alice"),
            nonce: 1,
            restrictions: RestrictionSet::new().with(r_tgt.clone()),
            lifetime: 500,
        };
        let reply = f.kdc.authentication_service(&req, 0, &mut f.rng).unwrap();
        let enc = EncPart::unseal(&reply.enc_part, &f.alice_key).unwrap();
        let r_auth = Restriction::AcceptOnce { id: 2 };
        let auth = Authenticator {
            client: p("alice"),
            timestamp: 5,
            subkey: None,
            authdata: RestrictionSet::new().with(r_auth.clone()),
            proxy_validity: None,
        }
        .seal(&enc.session_key, &mut f.rng);
        let r_req = Restriction::AcceptOnce { id: 3 };
        let treq = TgsRequest {
            tgt_blob: reply.ticket_blob,
            authenticator_blob: auth,
            service: p("fs"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new().with(r_req.clone()),
            lifetime: 100,
            proxy_possession: None,
        };
        let treply = f.kdc.ticket_granting_service(&treq, 5, &mut f.rng).unwrap();
        let enc2 = EncPart::unseal(&treply.enc_part, &enc.session_key).unwrap();
        for r in [&r_tgt, &r_auth, &r_req] {
            assert!(enc2.authdata.iter().any(|x| x == r), "missing {r:?}");
        }
    }

    #[test]
    fn tgs_rejects_forged_tgt() {
        let mut f = fixture();
        let (_real_tgt, enc) = login(&mut f, 0);
        // Mallory forges a TGT sealed under a key she invents.
        let fake_key = SymmetricKey::generate(&mut f.rng);
        let forged = Ticket {
            client: p("alice"),
            service: tgs_principal(),
            session_key: enc.session_key.clone(),
            validity: Validity::new(Timestamp(0), Timestamp(500)),
            authdata: RestrictionSet::new(),
        }
        .seal(&fake_key, &mut f.rng);
        let req = TgsRequest {
            tgt_blob: forged,
            authenticator_blob: fresh_auth(&enc, 0, &mut f.rng),
            service: p("fs"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 100,
            proxy_possession: None,
        };
        assert_eq!(
            f.kdc.ticket_granting_service(&req, 0, &mut f.rng),
            Err(KrbError::BadSeal)
        );
    }

    #[test]
    fn service_ticket_never_outlives_tgt() {
        let mut f = fixture();
        let (tgt, enc) = login(&mut f, 0); // TGT until 500
        let req = TgsRequest {
            tgt_blob: tgt,
            authenticator_blob: fresh_auth(&enc, 450, &mut f.rng),
            service: p("fs"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 1000,
            proxy_possession: None,
        };
        let reply = f
            .kdc
            .ticket_granting_service(&req, 450, &mut f.rng)
            .unwrap();
        let enc2 = EncPart::unseal(&reply.enc_part, &enc.session_key).unwrap();
        assert!(enc2.validity.until <= Timestamp(500));
    }

    #[test]
    fn tgs_rejects_unknown_target_service() {
        let mut f = fixture();
        let (tgt, enc) = login(&mut f, 0);
        let req = TgsRequest {
            tgt_blob: tgt,
            authenticator_blob: fresh_auth(&enc, 0, &mut f.rng),
            service: p("ghost-service"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 100,
            proxy_possession: None,
        };
        assert_eq!(
            f.kdc.ticket_granting_service(&req, 0, &mut f.rng),
            Err(KrbError::UnknownPrincipal(p("ghost-service")))
        );
    }

    #[test]
    fn service_ticket_rejected_at_tgs() {
        // A ticket for fs (not krbtgt) cannot drive the TGS.
        let mut f = fixture();
        let (tgt, enc) = login(&mut f, 0);
        let req = TgsRequest {
            tgt_blob: tgt,
            authenticator_blob: fresh_auth(&enc, 0, &mut f.rng),
            service: p("fs"),
            nonce: 2,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 100,
            proxy_possession: None,
        };
        let reply = f.kdc.ticket_granting_service(&req, 0, &mut f.rng).unwrap();
        // Feed the *service* ticket back as if it were a TGT: sealed under
        // fs's key, not the TGS key, so the KDC cannot even open it.
        let req2 = TgsRequest {
            tgt_blob: reply.ticket_blob,
            authenticator_blob: fresh_auth(&enc, 0, &mut f.rng),
            service: p("fs"),
            nonce: 3,
            additional_restrictions: RestrictionSet::new(),
            lifetime: 100,
            proxy_possession: None,
        };
        assert_eq!(
            f.kdc.ticket_granting_service(&req2, 0, &mut f.rng),
            Err(KrbError::BadSeal)
        );
    }
}
