//! Proxy certificates (Fig. 1: `[restrictions, K_proxy]_grantor`).
//!
//! A certificate binds a grantor, a validity window, a restriction set, and
//! proxy-key material under a seal the end-server can check. Chains of
//! certificates implement cascaded authorization (Fig. 4).

use proxy_crypto::ed25519::{Signature, SIGNATURE_LEN};

use crate::encode::{DecodeError, Decoder, Encoder};
use crate::key::KeyMaterial;
use crate::principal::PrincipalId;
use crate::restriction::RestrictionSet;
use crate::time::{Timestamp, Validity};

/// Who sealed a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigningAuthorityKind {
    /// Sealed by the named grantor's own authority (shared key or identity
    /// key): the head of every chain, and delegate-cascade links, which the
    /// intermediate signs directly so the chain leaves an audit trail
    /// (§3.4).
    Grantor,
    /// Sealed with the proxy key of the previous certificate in the chain:
    /// bearer-cascade links (Fig. 4).
    PriorProxyKey,
}

/// The cryptographic seal on a certificate body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertSeal {
    /// HMAC-SHA-256 tag (conventional cryptosystem).
    Hmac([u8; 32]),
    /// Ed25519 signature (public-key cryptosystem).
    Ed25519(Signature),
}

impl CertSeal {
    /// What a sealed structure holds while its body is being built, until
    /// [`GrantAuthority::seal`](crate::key::GrantAuthority::seal) replaces
    /// it.
    pub(crate) const UNSEALED: CertSeal = CertSeal::Hmac([0u8; 32]);

    /// The wire form, wherever a seal is written or hashed: a flavour
    /// tag, then the tag's fixed number of bytes (0 and 32, 1 and 64).
    pub(crate) fn wire(&self) -> (u8, &[u8]) {
        match self {
            CertSeal::Hmac(tag) => (0, tag),
            CertSeal::Ed25519(sig) => (1, sig.as_bytes()),
        }
    }

    /// Appends [`wire`](Self::wire) to `e`.
    pub(crate) fn encode_onto(&self, e: &mut Encoder) {
        let (tag, bytes) = self.wire();
        e.u8(tag).raw(bytes);
    }

    /// Reads a seal written by [`encode_onto`](Self::encode_onto).
    pub(crate) fn decode_from(d: &mut Decoder<'_>) -> Result<CertSeal, DecodeError> {
        match d.u8()? {
            0 => Ok(CertSeal::Hmac(d.raw_array::<32>()?)),
            1 => Signature::try_from_slice(d.raw(SIGNATURE_LEN)?)
                .map(CertSeal::Ed25519)
                .map_err(|_| DecodeError::UnexpectedEnd),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A restricted-proxy certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The principal whose authority seals this certificate: the original
    /// grantor at the chain head, or the intermediate server on a
    /// delegate-cascade link.
    pub grantor: PrincipalId,
    /// Grantor-chosen serial number (distinguishes proxies from the same
    /// grantor; checks reuse it as the check number).
    pub serial: u64,
    /// Validity window.
    pub validity: Validity,
    /// The restrictions this certificate adds (additive along a chain).
    pub restrictions: RestrictionSet,
    /// Proxy-key material (sealed symmetric key or public key).
    pub key_material: KeyMaterial,
    /// Who sealed the certificate.
    pub authority: SigningAuthorityKind,
    /// The seal itself, over [`Certificate::body_bytes`].
    pub seal: CertSeal,
}

impl Certificate {
    /// Generous pre-size for a typical single-certificate encode; bigger
    /// certificates just grow the buffer once.
    pub(crate) const ENCODE_CAPACITY_HINT: usize = 384;

    /// Appends the canonical seal-covered byte string (every field except
    /// the seal itself) to `e` — the scratch-buffer form of
    /// [`body_bytes`](Self::body_bytes).
    pub fn body_bytes_onto(&self, e: &mut Encoder) {
        e.raw(b"proxy-aa cert v1");
        e.str(self.grantor.as_str());
        e.u64(self.serial);
        e.u64(self.validity.from.0);
        e.u64(self.validity.until.0);
        self.restrictions.encode_into(e);
        match &self.key_material {
            KeyMaterial::SealedSymmetric(sealed) => {
                e.u8(0).bytes(sealed);
            }
            KeyMaterial::PublicKey(vk) => {
                e.u8(1).raw(vk.as_bytes());
            }
        }
        e.u8(match self.authority {
            SigningAuthorityKind::Grantor => 0,
            SigningAuthorityKind::PriorProxyKey => 1,
        });
    }

    /// The canonical byte string covered by the seal: every field except
    /// the seal itself.
    #[must_use]
    pub fn body_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(Self::ENCODE_CAPACITY_HINT);
        self.body_bytes_onto(&mut e);
        e.finish()
    }

    /// Expiration instant.
    #[must_use]
    pub fn expires(&self) -> Timestamp {
        self.validity.until
    }

    /// Appends the full wire encoding (length-prefixed body + seal) to
    /// `e`, encoding the body in place — no temporary body buffer.
    pub fn encode_onto(&self, e: &mut Encoder) {
        e.nested(|e| self.body_bytes_onto(e));
        self.seal.encode_onto(e);
    }

    /// Full wire encoding (body + seal).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(Self::ENCODE_CAPACITY_HINT);
        self.encode_onto(&mut e);
        e.finish()
    }

    /// Size of the wire encoding in bytes (the F1 experiment series).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }

    /// Decodes a certificate from its wire encoding.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input. A decoded certificate is
    /// *unverified*: its seal must still be checked against the body.
    pub fn decode(input: &[u8]) -> Result<Certificate, DecodeError> {
        let mut d = Decoder::new(input);
        let body = d.bytes()?;
        let seal = CertSeal::decode_from(&mut d)?;
        d.finish()?;
        Self::decode_body(body, seal)
    }

    fn decode_body(body: &[u8], seal: CertSeal) -> Result<Certificate, DecodeError> {
        let mut d = Decoder::new(body);
        let magic = d.raw(16)?;
        if magic != b"proxy-aa cert v1" {
            return Err(DecodeError::BadTag(magic[0]));
        }
        let grantor = d.principal()?;
        let serial = d.u64()?;
        let from = Timestamp(d.u64()?);
        let until = Timestamp(d.u64()?);
        if from >= until {
            return Err(DecodeError::BadLength(until.0));
        }
        let restrictions = RestrictionSet::decode_from(&mut d)?;
        let key_material = match d.u8()? {
            0 => KeyMaterial::SealedSymmetric(
                d.bytes()?
                    .try_into()
                    .map_err(|_| DecodeError::InvalidValue("sealed proxy key length"))?,
            ),
            1 => {
                let bytes: [u8; 32] = d
                    .raw(32)?
                    .try_into()
                    .map_err(|_| DecodeError::UnexpectedEnd)?;
                KeyMaterial::PublicKey(proxy_crypto::ed25519::VerifyingKey::from_bytes(bytes))
            }
            t => return Err(DecodeError::BadTag(t)),
        };
        let authority = match d.u8()? {
            0 => SigningAuthorityKind::Grantor,
            1 => SigningAuthorityKind::PriorProxyKey,
            t => return Err(DecodeError::BadTag(t)),
        };
        d.finish()?;
        Ok(Certificate {
            grantor,
            serial,
            validity: Validity { from, until },
            restrictions,
            key_material,
            authority,
            seal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restriction::Restriction;
    use proxy_crypto::ed25519::SigningKey;

    fn sample_cert() -> Certificate {
        Certificate {
            grantor: PrincipalId::new("alice"),
            serial: 7,
            validity: Validity::new(Timestamp(0), Timestamp(100)),
            restrictions: RestrictionSet::new()
                .with(Restriction::issued_for_one(PrincipalId::new("fs"))),
            key_material: KeyMaterial::SealedSymmetric([3u8; crate::key::SEALED_PROXY_KEY_LEN]),
            authority: SigningAuthorityKind::Grantor,
            seal: CertSeal::Hmac([9u8; 32]),
        }
    }

    #[test]
    fn body_bytes_is_deterministic_and_seal_free() {
        let mut a = sample_cert();
        let body1 = a.body_bytes();
        a.seal = CertSeal::Hmac([1u8; 32]);
        assert_eq!(a.body_bytes(), body1, "seal must not affect body");
        let mut b = sample_cert();
        b.serial = 8;
        assert_ne!(b.body_bytes(), body1, "serial must affect body");
    }

    #[test]
    fn wire_round_trip_hmac() {
        let cert = sample_cert();
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn wire_round_trip_ed25519() {
        let sk = SigningKey::from_seed(&[1u8; 32]);
        let mut cert = sample_cert();
        cert.key_material = KeyMaterial::PublicKey(sk.verifying_key());
        cert.authority = SigningAuthorityKind::PriorProxyKey;
        cert.seal = CertSeal::Ed25519(sk.sign(b"body"));
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Certificate::decode(b"").is_err());
        assert!(Certificate::decode(b"random junk bytes here").is_err());
        // Valid prefix, corrupted magic.
        let mut bytes = sample_cert().encode();
        bytes[5] ^= 0xff;
        assert!(Certificate::decode(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_empty_validity() {
        let mut cert = sample_cert();
        // Manually build an encoding with from == until by editing body.
        cert.validity = Validity {
            from: Timestamp(50),
            until: Timestamp(50),
        };
        let encoded = cert.encode();
        assert!(Certificate::decode(&encoded).is_err());
    }

    #[test]
    fn encoded_len_grows_with_restrictions() {
        let small = sample_cert();
        let mut big = sample_cert();
        let mut rs = big.restrictions.clone();
        for i in 0..10 {
            rs.push(Restriction::AcceptOnce { id: i });
        }
        big.restrictions = rs;
        assert!(big.encoded_len() > small.encoded_len());
    }
}
