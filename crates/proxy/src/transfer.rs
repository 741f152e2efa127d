//! Secure transfer of a proxy (certificates + proxy key) to a grantee.
//!
//! §2: "When a restricted proxy is transferred from the grantor to the
//! grantee, care must be taken to protect the proxy key from disclosure."
//! This module packages a [`Proxy`] for the wire, sealing the secret proxy
//! key under a key shared with the grantee (e.g. the session key from the
//! grantor–grantee authentication exchange, or Fig. 3's
//! `{K_proxy}K_session`).

use rand::RngCore;

use proxy_crypto::keys::SymmetricKey;
use proxy_crypto::seal::{self, SealError};

use crate::cert::Certificate;
use crate::encode::{DecodeError, Decoder, Encoder};
use crate::key::GrantAuthority;
use crate::proxy::Proxy;

const TRANSFER_AAD: &[u8] = b"proxy-aa proxy transfer v1";

/// Errors unpacking a transferred proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// The wire structure was malformed.
    Decode(DecodeError),
    /// The sealed proxy key failed to open (wrong transfer key or
    /// tampering).
    Seal(SealError),
    /// The transfer carried no certificates.
    Empty,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::Decode(e) => write!(f, "malformed proxy transfer: {e}"),
            TransferError::Seal(e) => write!(f, "proxy key unsealing failed: {e}"),
            TransferError::Empty => write!(f, "proxy transfer carries no certificates"),
        }
    }
}

impl std::error::Error for TransferError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransferError::Decode(e) => Some(e),
            TransferError::Seal(e) => Some(e),
            TransferError::Empty => None,
        }
    }
}

impl From<DecodeError> for TransferError {
    fn from(e: DecodeError) -> Self {
        TransferError::Decode(e)
    }
}

impl From<SealError> for TransferError {
    fn from(e: SealError) -> Self {
        TransferError::Seal(e)
    }
}

impl Proxy {
    /// Packages the proxy for transfer to a grantee: certificates in the
    /// clear (they are protected by their seals), proxy key sealed under
    /// `transfer_key`.
    pub fn seal_for_transfer<R: RngCore>(
        &self,
        transfer_key: &SymmetricKey,
        rng: &mut R,
    ) -> Vec<u8> {
        let mut e = Encoder::new();
        e.count(self.certs.len());
        for cert in &self.certs {
            e.bytes(&cert.encode());
        }
        let key_plain = match &self.key {
            GrantAuthority::SharedKey(k) => {
                let mut p = vec![0u8];
                p.extend_from_slice(k.as_bytes());
                p
            }
            // Private Ed25519 scalars never travel: a public-key proxy is
            // handed off by deriving a fresh key pair for the grantee
            // instead (`Proxy::derive`). The flavor marker alone is
            // encoded so the receiver gets a clear error.
            GrantAuthority::Keypair(_) => vec![1u8],
        };
        e.bytes(&seal::seal(transfer_key, TRANSFER_AAD, &key_plain, rng));
        e.finish()
    }

    /// Unpacks a transferred proxy using the shared `transfer_key`.
    ///
    /// # Errors
    ///
    /// [`TransferError`] on malformed input, seal failure, or an empty
    /// chain. Ed25519-flavored transfers are rejected with
    /// [`TransferError::Decode`] — public-key proxies hand off by
    /// *deriving* a fresh key pair for the grantee instead (see
    /// [`Proxy::derive`]), which avoids moving private scalars at all.
    pub fn unseal_transfer(
        bytes: &[u8],
        transfer_key: &SymmetricKey,
    ) -> Result<Proxy, TransferError> {
        let mut d = Decoder::new(bytes);
        let n = d.count()?;
        if n == 0 {
            return Err(TransferError::Empty);
        }
        let mut certs = Vec::with_capacity(n);
        for _ in 0..n {
            certs.push(Certificate::decode(d.bytes()?)?);
        }
        let sealed = d.bytes()?.to_vec();
        d.finish()?;
        let plain = seal::open(transfer_key, TRANSFER_AAD, &sealed)?;
        match plain.split_first() {
            Some((0, key_bytes)) => {
                let key = SymmetricKey::try_from_slice(key_bytes)
                    .map_err(|_| TransferError::Decode(DecodeError::UnexpectedEnd))?;
                Ok(Proxy {
                    certs,
                    key: GrantAuthority::SharedKey(key),
                })
            }
            Some((1, _)) => Err(TransferError::Decode(DecodeError::BadTag(1))),
            _ => Err(TransferError::Decode(DecodeError::UnexpectedEnd)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::GrantAuthority;
    use crate::principal::PrincipalId;
    use crate::proxy::grant;
    use crate::restriction::RestrictionSet;
    use crate::time::{Timestamp, Validity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(rng: &mut StdRng) -> (Proxy, SymmetricKey) {
        let shared = SymmetricKey::generate(rng);
        let proxy = grant(
            &PrincipalId::new("alice"),
            &GrantAuthority::SharedKey(shared.clone()),
            RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            rng,
        );
        (proxy, shared)
    }

    #[test]
    fn transfer_round_trips_and_grantee_can_present() {
        let mut rng = StdRng::seed_from_u64(1);
        let (proxy, shared) = sample(&mut rng);
        let grantor_grantee_key = SymmetricKey::generate(&mut rng);
        let wire = proxy.seal_for_transfer(&grantor_grantee_key, &mut rng);
        let received = Proxy::unseal_transfer(&wire, &grantor_grantee_key).unwrap();
        assert_eq!(received.certs, proxy.certs);
        // The grantee can answer challenges with the recovered key.
        use crate::key::{GrantorVerifier, MapResolver};
        use crate::verify::Verifier;
        let verifier = Verifier::new(
            PrincipalId::new("fs"),
            MapResolver::new().with(
                PrincipalId::new("alice"),
                GrantorVerifier::SharedKey(shared),
            ),
        );
        let pres = received.present_bearer([9u8; 32], &PrincipalId::new("fs"));
        let ctx = crate::context::RequestContext::new(
            PrincipalId::new("fs"),
            crate::restriction::Operation::new("read"),
            crate::restriction::ObjectName::new("x"),
        )
        .at(Timestamp(5));
        let mut guard = crate::replay::MemoryReplayGuard::new();
        assert!(verifier.verify(&pres, &ctx, &mut guard).is_ok());
    }

    #[test]
    fn eavesdropper_cannot_extract_the_key() {
        let mut rng = StdRng::seed_from_u64(2);
        let (proxy, _shared) = sample(&mut rng);
        let transfer_key = SymmetricKey::generate(&mut rng);
        let wire = proxy.seal_for_transfer(&transfer_key, &mut rng);
        let GrantAuthority::SharedKey(k) = &proxy.key else {
            unreachable!()
        };
        assert!(
            !wire.windows(32).any(|w| w == k.as_bytes()),
            "raw proxy key on the transfer wire"
        );
        // Without the transfer key, unsealing fails.
        let other = SymmetricKey::generate(&mut rng);
        assert!(matches!(
            Proxy::unseal_transfer(&wire, &other),
            Err(TransferError::Seal(_))
        ));
    }

    #[test]
    fn tampered_transfer_never_yields_a_usable_proxy() {
        // Certificates travel in the clear (their seals protect them), so
        // a flip there may decode — but the result must never verify.
        use crate::key::{GrantorVerifier, MapResolver};
        use crate::verify::Verifier;
        let mut rng = StdRng::seed_from_u64(3);
        let (proxy, shared) = sample(&mut rng);
        let transfer_key = SymmetricKey::generate(&mut rng);
        let wire = proxy.seal_for_transfer(&transfer_key, &mut rng);
        let verifier = Verifier::new(
            PrincipalId::new("fs"),
            MapResolver::new().with(
                PrincipalId::new("alice"),
                GrantorVerifier::SharedKey(shared),
            ),
        );
        let ctx = crate::context::RequestContext::new(
            PrincipalId::new("fs"),
            crate::restriction::Operation::new("read"),
            crate::restriction::ObjectName::new("x"),
        )
        .at(Timestamp(5));
        for i in (0..wire.len()).step_by(3) {
            let mut bad = wire.clone();
            bad[i] ^= 0x10;
            let Ok(received) = Proxy::unseal_transfer(&bad, &transfer_key) else {
                continue;
            };
            if received.certs == proxy.certs {
                continue; // flip landed in sealing randomness? impossible, but safe
            }
            let pres = received.present_bearer([1u8; 32], &PrincipalId::new("fs"));
            let mut guard = crate::replay::MemoryReplayGuard::new();
            assert!(
                verifier.verify(&pres, &ctx, &mut guard).is_err(),
                "byte {i}: tampered transfer produced a verifiable proxy"
            );
        }
    }

    #[test]
    fn ed25519_transfer_is_refused() {
        // Public-key proxies hand off via derive(), never by moving the
        // private scalar.
        let mut rng = StdRng::seed_from_u64(4);
        let proxy = grant(
            &PrincipalId::new("alice"),
            &GrantAuthority::Keypair(proxy_crypto::ed25519::SigningKey::generate(&mut rng)),
            RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        let transfer_key = SymmetricKey::generate(&mut rng);
        let wire = proxy.seal_for_transfer(&transfer_key, &mut rng);
        assert!(Proxy::unseal_transfer(&wire, &transfer_key).is_err());
    }
}
