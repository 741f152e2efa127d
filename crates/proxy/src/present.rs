//! Presenting a proxy to an end-server (§2).
//!
//! *Bearer* presentation: send the certificate chain and prove possession
//! of the proxy key by answering a server challenge — the full proxy never
//! crosses the wire, so "an attacker can not obtain such a capability by
//! tapping the network" (§3.1).
//!
//! *Delegate* presentation: send the chain and authenticate under one's own
//! identity; the end-server checks the authenticated identity against the
//! `grantee` restriction.

use proxy_crypto::sha256::Sha256;

use crate::cert::Certificate;
use crate::encode::{Bounded, DecodeError, Decoder, Encoder};
use crate::principal::PrincipalId;
use crate::proxy::Proxy;

/// How the presenter ties itself to the presented chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Proof {
    /// Bearer proof: a response over the server's challenge computed with
    /// the final proxy key.
    Possession {
        /// The server-issued challenge being answered.
        challenge: [u8; 32],
        /// MAC or signature over the possession message.
        response: Vec<u8>,
    },
    /// Delegate proof: the presenter authenticated under its own identity
    /// through the authentication substrate; the verifier receives those
    /// identities via the request context.
    Identity,
}

/// A proxy presentation as it crosses the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Presentation {
    /// The certificate chain (head first). Note: no proxy key here — the
    /// key never leaves the grantee.
    pub certs: Vec<Certificate>,
    /// The accompanying proof.
    pub proof: Proof,
}

/// The context-binding bytes covered by a possession proof: the server's
/// name plus a digest of the final certificate, so a response is useless at
/// any other server or for any other proxy.
#[must_use]
pub fn presentation_binding(server: &PrincipalId, final_cert: &Certificate) -> Vec<u8> {
    let mut out = Vec::new();
    let digest = Sha256::digest(&final_cert.body_bytes());
    append_presentation_binding(&mut out, server, &digest);
    out
}

/// Appends [`presentation_binding`] to `out`, given the SHA-256 digest of
/// the final certificate's body.
pub(crate) fn append_presentation_binding(
    out: &mut Vec<u8>,
    server: &PrincipalId,
    final_body_digest: &[u8; 32],
) {
    out.extend_from_slice(server.as_str().as_bytes());
    out.push(0);
    out.extend_from_slice(final_body_digest);
}

impl Proxy {
    /// Builds a bearer presentation answering `challenge` for `server`.
    #[must_use]
    pub fn present_bearer(&self, challenge: [u8; 32], server: &PrincipalId) -> Presentation {
        let binding = presentation_binding(server, self.final_cert());
        let response = self.key.prove_possession(&challenge, &binding);
        Presentation {
            certs: self.certs.clone(),
            proof: Proof::Possession {
                challenge,
                response,
            },
        }
    }

    /// Builds a delegate presentation (certificates only; the presenter
    /// authenticates separately under its own identity).
    #[must_use]
    pub fn present_delegate(&self) -> Presentation {
        Presentation {
            certs: self.certs.clone(),
            proof: Proof::Identity,
        }
    }
}

impl Presentation {
    /// Appends the wire encoding to `e`, encoding each certificate in
    /// place (no per-certificate temporaries).
    pub fn encode_onto(&self, e: &mut Encoder) {
        e.count(self.certs.len());
        for cert in &self.certs {
            e.nested(|e| cert.encode_onto(e));
        }
        match &self.proof {
            Proof::Possession {
                challenge,
                response,
            } => {
                e.u8(0).raw(challenge).bytes(response);
            }
            Proof::Identity => {
                e.u8(1);
            }
        }
    }

    /// Wire encoding.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(
            Bounded::len_of(&self.certs)
                .times(Certificate::ENCODE_CAPACITY_HINT)
                .plus(Bounded::fixed::<64>()),
        );
        self.encode_onto(&mut e);
        e.finish()
    }

    /// Decodes a wire presentation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn decode(input: &[u8]) -> Result<Presentation, DecodeError> {
        let mut d = Decoder::new(input);
        let n = d.counted(4)?;
        let mut certs = n.vec();
        for _ in 0..n.get() {
            certs.push(Certificate::decode(d.bytes()?)?);
        }
        let proof = match d.u8()? {
            0 => {
                let challenge: [u8; 32] = d
                    .raw(32)?
                    .try_into()
                    .map_err(|_| DecodeError::UnexpectedEnd)?;
                let response = d.bytes()?.to_vec();
                Proof::Possession {
                    challenge,
                    response,
                }
            }
            1 => Proof::Identity,
            t => return Err(DecodeError::BadTag(t)),
        };
        d.finish()?;
        Ok(Presentation { certs, proof })
    }

    /// Total wire size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::GrantAuthority;
    use crate::proxy::grant;
    use crate::restriction::RestrictionSet;
    use crate::time::{Timestamp, Validity};
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_proxy(rng: &mut StdRng) -> Proxy {
        let auth = GrantAuthority::SharedKey(SymmetricKey::generate(rng));
        grant(
            &PrincipalId::new("alice"),
            &auth,
            RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            rng,
        )
    }

    #[test]
    fn bearer_presentation_round_trips_on_wire() {
        let mut rng = StdRng::seed_from_u64(1);
        let proxy = sample_proxy(&mut rng);
        let pres = proxy.present_bearer([5u8; 32], &PrincipalId::new("fs"));
        let decoded = Presentation::decode(&pres.encode()).unwrap();
        assert_eq!(decoded, pres);
    }

    #[test]
    fn delegate_presentation_round_trips_on_wire() {
        let mut rng = StdRng::seed_from_u64(2);
        let proxy = sample_proxy(&mut rng);
        let pres = proxy.present_delegate();
        assert_eq!(pres.proof, Proof::Identity);
        let decoded = Presentation::decode(&pres.encode()).unwrap();
        assert_eq!(decoded, pres);
    }

    #[test]
    fn presentation_never_contains_proxy_key() {
        // The symmetric proxy key must not appear in the wire bytes: it is
        // sealed (encrypted) inside the certificate.
        let mut rng = StdRng::seed_from_u64(3);
        let proxy = sample_proxy(&mut rng);
        let crate::key::GrantAuthority::SharedKey(k) = &proxy.key else {
            unreachable!()
        };
        let wire = proxy
            .present_bearer([0u8; 32], &PrincipalId::new("fs"))
            .encode();
        let key_bytes = k.as_bytes();
        assert!(
            !wire.windows(key_bytes.len()).any(|w| w == key_bytes),
            "raw proxy key leaked into presentation"
        );
    }

    #[test]
    fn binding_differs_per_server_and_per_cert() {
        let mut rng = StdRng::seed_from_u64(4);
        let proxy = sample_proxy(&mut rng);
        let b1 = presentation_binding(&PrincipalId::new("s1"), proxy.final_cert());
        let b2 = presentation_binding(&PrincipalId::new("s2"), proxy.final_cert());
        assert_ne!(b1, b2);
        let other = sample_proxy(&mut rng);
        let b3 = presentation_binding(&PrincipalId::new("s1"), other.final_cert());
        assert_ne!(b1, b3);
    }

    #[test]
    fn decode_rejects_bad_proof_tag() {
        let mut rng = StdRng::seed_from_u64(5);
        let proxy = sample_proxy(&mut rng);
        let mut bytes = proxy.present_delegate().encode();
        let last = bytes.len() - 1;
        bytes[last] = 9;
        assert!(Presentation::decode(&bytes).is_err());
    }
}
