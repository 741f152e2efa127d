//! Tickets and authenticators (paper §6.2).
//!
//! A Version-5-style ticket names the authenticated client, carries a
//! session key, and has an `authorization-data` field holding a
//! [`RestrictionSet`] — the field through which restricted proxies ride on
//! Kerberos. Tickets travel sealed under the key the end-server shares
//! with the KDC; authenticators travel sealed under the session key.

use rand::RngCore;

use proxy_crypto::keys::SymmetricKey;
use proxy_crypto::seal;

use restricted_proxy::encode::{Decoder, Encoder};
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::restriction::RestrictionSet;
use restricted_proxy::time::{Timestamp, Validity};

use crate::error::KrbError;

const TICKET_AAD: &[u8] = b"krb5-sim ticket v1";
const AUTHENTICATOR_AAD: &[u8] = b"krb5-sim authenticator v1";
const ENCPART_AAD: &[u8] = b"krb5-sim enc-part v1";

/// The plaintext contents of a ticket.
#[derive(Clone, Debug)]
pub struct Ticket {
    /// The authenticated client the ticket speaks for.
    pub client: PrincipalId,
    /// The service the ticket is issued for.
    pub service: PrincipalId,
    /// Session key shared between client and service.
    pub session_key: SymmetricKey,
    /// Validity window.
    pub validity: Validity,
    /// `authorization-data`: additive restrictions on use of the ticket.
    pub authdata: RestrictionSet,
}

impl Ticket {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(self.client.as_str());
        e.str(self.service.as_str());
        e.raw(self.session_key.as_bytes());
        e.u64(self.validity.from.0);
        e.u64(self.validity.until.0);
        self.authdata.encode_into(&mut e);
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Ticket, KrbError> {
        let mut d = Decoder::new(bytes);
        let inner = || -> Result<Ticket, restricted_proxy::encode::DecodeError> {
            let client = d.principal()?;
            let service = d.principal()?;
            let key_bytes: [u8; 32] = d
                .raw(32)?
                .try_into()
                .map_err(|_| restricted_proxy::encode::DecodeError::UnexpectedEnd)?;
            let from = Timestamp(d.u64()?);
            let until = Timestamp(d.u64()?);
            let authdata = RestrictionSet::decode_from(&mut d)?;
            d.finish()?;
            if from >= until {
                return Err(restricted_proxy::encode::DecodeError::BadLength(until.0));
            }
            Ok(Ticket {
                client,
                service,
                session_key: SymmetricKey::from_bytes(key_bytes),
                validity: Validity { from, until },
                authdata,
            })
        };
        inner().map_err(|_| KrbError::Malformed)
    }

    /// Seals the ticket under the service's long-term key.
    pub fn seal<R: RngCore>(&self, service_key: &SymmetricKey, rng: &mut R) -> Vec<u8> {
        seal::seal(service_key, TICKET_AAD, &self.encode(), rng)
    }

    /// Unseals a ticket blob with the service's long-term key.
    ///
    /// # Errors
    ///
    /// [`KrbError::BadSeal`] on integrity failure, [`KrbError::Malformed`]
    /// on decode failure.
    pub fn unseal(blob: &[u8], service_key: &SymmetricKey) -> Result<Ticket, KrbError> {
        let bytes = seal::open(service_key, TICKET_AAD, blob).map_err(|_| KrbError::BadSeal)?;
        Ticket::decode(&bytes)
    }
}

/// The plaintext contents of an authenticator.
///
/// A *fresh* authenticator (`proxy_validity == None`) proves liveness with
/// a timestamp and is replay-cached. A *proxy* authenticator
/// (`proxy_validity == Some`) is the §6.2 construction: it carries a
/// subkey (the proxy key) and additional `authorization-data`, and together
/// with the ticket *is* the proxy handed to a grantee.
#[derive(Clone, Debug)]
pub struct Authenticator {
    /// The client (must match the ticket).
    pub client: PrincipalId,
    /// Creation time (fresh path: checked against clock skew).
    pub timestamp: u64,
    /// Optional subkey; for proxies this is the proxy key.
    pub subkey: Option<SymmetricKey>,
    /// Additional restrictions, additive with the ticket's.
    pub authdata: RestrictionSet,
    /// `Some(window)` marks a proxy authenticator valid for that window.
    pub proxy_validity: Option<Validity>,
}

impl Authenticator {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(self.client.as_str());
        e.u64(self.timestamp);
        match &self.subkey {
            None => {
                e.u8(0);
            }
            Some(k) => {
                e.u8(1).raw(k.as_bytes());
            }
        }
        self.authdata.encode_into(&mut e);
        match &self.proxy_validity {
            None => {
                e.u8(0);
            }
            Some(v) => {
                e.u8(1).u64(v.from.0).u64(v.until.0);
            }
        }
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Authenticator, KrbError> {
        let mut d = Decoder::new(bytes);
        let inner = || -> Result<Authenticator, restricted_proxy::encode::DecodeError> {
            let client = d.principal()?;
            let timestamp = d.u64()?;
            let subkey = match d.u8()? {
                0 => None,
                1 => {
                    let kb: [u8; 32] = d
                        .raw(32)?
                        .try_into()
                        .map_err(|_| restricted_proxy::encode::DecodeError::UnexpectedEnd)?;
                    Some(SymmetricKey::from_bytes(kb))
                }
                t => return Err(restricted_proxy::encode::DecodeError::BadTag(t)),
            };
            let authdata = RestrictionSet::decode_from(&mut d)?;
            let proxy_validity = match d.u8()? {
                0 => None,
                1 => {
                    let from = Timestamp(d.u64()?);
                    let until = Timestamp(d.u64()?);
                    if from >= until {
                        return Err(restricted_proxy::encode::DecodeError::BadLength(until.0));
                    }
                    Some(Validity { from, until })
                }
                t => return Err(restricted_proxy::encode::DecodeError::BadTag(t)),
            };
            d.finish()?;
            Ok(Authenticator {
                client,
                timestamp,
                subkey,
                authdata,
                proxy_validity,
            })
        };
        inner().map_err(|_| KrbError::Malformed)
    }

    /// Seals the authenticator under the session key.
    pub fn seal<R: RngCore>(&self, session_key: &SymmetricKey, rng: &mut R) -> Vec<u8> {
        seal::seal(session_key, AUTHENTICATOR_AAD, &self.encode(), rng)
    }

    /// Unseals an authenticator blob with the session key.
    ///
    /// # Errors
    ///
    /// [`KrbError::BadSeal`] on integrity failure, [`KrbError::Malformed`]
    /// on decode failure.
    pub fn unseal(blob: &[u8], session_key: &SymmetricKey) -> Result<Authenticator, KrbError> {
        let bytes =
            seal::open(session_key, AUTHENTICATOR_AAD, blob).map_err(|_| KrbError::BadSeal)?;
        Authenticator::decode(&bytes)
    }
}

/// The encrypted part of a KDC reply: the client's copy of the session key
/// and ticket metadata, sealed under the client's long-term key (AS) or the
/// prior session/sub key (TGS).
#[derive(Clone, Debug)]
pub struct EncPart {
    /// Session key for the issued ticket.
    pub session_key: SymmetricKey,
    /// The service the ticket is for.
    pub service: PrincipalId,
    /// Ticket validity.
    pub validity: Validity,
    /// The nonce from the request (binds reply to request).
    pub nonce: u64,
    /// The `authorization-data` placed in the ticket.
    pub authdata: RestrictionSet,
}

impl EncPart {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.raw(self.session_key.as_bytes());
        e.str(self.service.as_str());
        e.u64(self.validity.from.0);
        e.u64(self.validity.until.0);
        e.u64(self.nonce);
        self.authdata.encode_into(&mut e);
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Result<EncPart, KrbError> {
        let mut d = Decoder::new(bytes);
        let inner = || -> Result<EncPart, restricted_proxy::encode::DecodeError> {
            let kb: [u8; 32] = d
                .raw(32)?
                .try_into()
                .map_err(|_| restricted_proxy::encode::DecodeError::UnexpectedEnd)?;
            let service = d.principal()?;
            let from = Timestamp(d.u64()?);
            let until = Timestamp(d.u64()?);
            let nonce = d.u64()?;
            let authdata = RestrictionSet::decode_from(&mut d)?;
            d.finish()?;
            if from >= until {
                return Err(restricted_proxy::encode::DecodeError::BadLength(until.0));
            }
            Ok(EncPart {
                session_key: SymmetricKey::from_bytes(kb),
                service,
                validity: Validity { from, until },
                nonce,
                authdata,
            })
        };
        inner().map_err(|_| KrbError::Malformed)
    }

    /// Seals the encrypted part under `key`.
    pub fn seal<R: RngCore>(&self, key: &SymmetricKey, rng: &mut R) -> Vec<u8> {
        seal::seal(key, ENCPART_AAD, &self.encode(), rng)
    }

    /// Unseals an encrypted part with `key`.
    ///
    /// # Errors
    ///
    /// [`KrbError::BadSeal`] on integrity failure, [`KrbError::Malformed`]
    /// on decode failure.
    pub fn unseal(blob: &[u8], key: &SymmetricKey) -> Result<EncPart, KrbError> {
        let bytes = seal::open(key, ENCPART_AAD, blob).map_err(|_| KrbError::BadSeal)?;
        EncPart::decode(&bytes)
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

    #[test]
    fn ticket_seal_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let service_key = SymmetricKey::generate(&mut rng);
        let ticket = Ticket {
            client: p("alice"),
            service: p("fs"),
            session_key: SymmetricKey::generate(&mut rng),
            validity: Validity::new(Timestamp(0), Timestamp(100)),
            authdata: RestrictionSet::new().with(Restriction::AcceptOnce { id: 3 }),
        };
        let blob = ticket.seal(&service_key, &mut rng);
        let reseal = |t: &Ticket| t.seal(&service_key, &mut StdRng::seed_from_u64(0));
        assert_eq!(
            reseal(&Ticket::unseal(&blob, &service_key).unwrap()),
            reseal(&ticket)
        );
        // The wrong service key cannot open it.
        let other = SymmetricKey::generate(&mut rng);
        assert_eq!(Ticket::unseal(&blob, &other).err(), Some(KrbError::BadSeal));
    }

    #[test]
    fn ticket_blob_hides_session_key() {
        let mut rng = StdRng::seed_from_u64(2);
        let service_key = SymmetricKey::generate(&mut rng);
        let session = SymmetricKey::generate(&mut rng);
        let ticket = Ticket {
            client: p("alice"),
            service: p("fs"),
            session_key: session.clone(),
            validity: Validity::new(Timestamp(0), Timestamp(100)),
            authdata: RestrictionSet::new(),
        };
        let blob = ticket.seal(&service_key, &mut rng);
        let key = session.as_bytes();
        assert!(!blob.windows(key.len()).any(|w| w == key));
    }

    #[test]
    fn authenticator_round_trip_fresh_and_proxy() {
        let mut rng = StdRng::seed_from_u64(3);
        let session = SymmetricKey::generate(&mut rng);
        let fresh = Authenticator {
            client: p("alice"),
            timestamp: 42,
            subkey: None,
            authdata: RestrictionSet::new(),
            proxy_validity: None,
        };
        // Keys have no `==`: compare plaintexts resealed under one nonce.
        let reseal = |a: &Authenticator| a.seal(&session, &mut StdRng::seed_from_u64(0));
        let blob = fresh.seal(&session, &mut rng);
        assert_eq!(
            reseal(&Authenticator::unseal(&blob, &session).unwrap()),
            reseal(&fresh)
        );

        let proxy = Authenticator {
            client: p("alice"),
            timestamp: 42,
            subkey: Some(SymmetricKey::generate(&mut rng)),
            authdata: RestrictionSet::new().with(Restriction::AcceptOnce { id: 1 }),
            proxy_validity: Some(Validity::new(Timestamp(40), Timestamp(90))),
        };
        let blob = proxy.seal(&session, &mut rng);
        assert_eq!(
            reseal(&Authenticator::unseal(&blob, &session).unwrap()),
            reseal(&proxy)
        );
    }

    #[test]
    fn enc_part_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let client_key = SymmetricKey::generate(&mut rng);
        let part = EncPart {
            session_key: SymmetricKey::generate(&mut rng),
            service: p("krbtgt"),
            validity: Validity::new(Timestamp(0), Timestamp(500)),
            nonce: 777,
            authdata: RestrictionSet::new(),
        };
        let blob = part.seal(&client_key, &mut rng);
        let reseal = |e: &EncPart| e.seal(&client_key, &mut StdRng::seed_from_u64(0));
        assert_eq!(
            reseal(&EncPart::unseal(&blob, &client_key).unwrap()),
            reseal(&part)
        );
    }

    #[test]
    fn tampered_blobs_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = SymmetricKey::generate(&mut rng);
        let ticket = Ticket {
            client: p("alice"),
            service: p("fs"),
            session_key: SymmetricKey::generate(&mut rng),
            validity: Validity::new(Timestamp(0), Timestamp(100)),
            authdata: RestrictionSet::new(),
        };
        let mut blob = ticket.seal(&key, &mut rng);
        let mid = blob.len() / 2;
        blob[mid] ^= 1;
        assert_eq!(Ticket::unseal(&blob, &key).err(), Some(KrbError::BadSeal));
    }
}
