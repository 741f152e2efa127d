//! Proxy keys, grant authorities, and key resolution.
//!
//! A restricted proxy is a certificate plus a *proxy key* (Fig. 1). The
//! paper supports two cryptosystems (§6):
//!
//! * **Conventional** (§6.2, Kerberos-style): the grantor shares a
//!   (session) key with the end-server. Certificates are sealed with HMAC
//!   under that key, and the symmetric proxy key travels inside the
//!   certificate, encrypted so only the end-server can recover it.
//! * **Public-key** (§6.1, Fig. 6): certificates are signed with the
//!   grantor's Ed25519 key; the proxy key is a key pair whose public half
//!   is embedded in the certificate and whose private half goes to the
//!   grantee.
//!
//! Both flavors flow through the same types here so the rest of the system
//! is agnostic to the cryptosystem in use.

use std::collections::HashMap;

use rand::RngCore;

use proxy_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use proxy_crypto::keys::SymmetricKey;
use proxy_crypto::seal;

use crate::principal::PrincipalId;

/// Domain-separation label for possession proofs.
const POSSESSION_LABEL: &[u8] = b"proxy-aa possession v1";
/// Domain-separation label for sealed proxy keys.
pub(crate) const PROXY_KEY_AAD: &[u8] = b"proxy-aa sealed proxy key v1";

/// The secret half of a proxy key, held by the grantee.
#[derive(Clone)]
pub enum ProxyKey {
    /// Conventional flavor: a fresh symmetric key.
    Symmetric(SymmetricKey),
    /// Public-key flavor: a fresh Ed25519 key pair (private half).
    Ed25519(SigningKey),
}

impl std::fmt::Debug for ProxyKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProxyKey::Symmetric(_) => write!(f, "ProxyKey::Symmetric(<redacted>)"),
            ProxyKey::Ed25519(k) => write!(f, "ProxyKey::Ed25519({:?})", k.verifying_key()),
        }
    }
}

impl ProxyKey {
    /// Generates a fresh symmetric proxy key.
    pub fn generate_symmetric<R: RngCore>(rng: &mut R) -> Self {
        ProxyKey::Symmetric(SymmetricKey::generate(rng))
    }

    /// Generates a fresh Ed25519 proxy key pair.
    pub fn generate_ed25519<R: RngCore>(rng: &mut R) -> Self {
        ProxyKey::Ed25519(SigningKey::generate(rng))
    }

    /// Produces a possession proof over `challenge` bound to the
    /// presentation context (end-server name and final certificate body
    /// digest), preventing a response from being replayed elsewhere.
    #[must_use]
    pub fn prove_possession(&self, challenge: &[u8; 32], binding: &[u8]) -> Vec<u8> {
        let msg = possession_message(challenge, binding);
        match self {
            ProxyKey::Symmetric(k) => k.mac(&msg).to_vec(),
            ProxyKey::Ed25519(k) => k.sign(&msg).as_bytes().to_vec(),
        }
    }
}

/// The message a possession proof covers: label, challenge, binding.
pub(crate) fn possession_message(challenge: &[u8; 32], binding: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(POSSESSION_LABEL.len() + 32 + binding.len());
    append_possession_prefix(&mut msg, challenge);
    msg.extend_from_slice(binding);
    msg
}

/// Appends to `out` everything of [`possession_message`] that comes
/// before the binding.
pub(crate) fn append_possession_prefix(out: &mut Vec<u8>, challenge: &[u8; 32]) {
    out.extend_from_slice(POSSESSION_LABEL);
    out.extend_from_slice(challenge);
}

/// The verifier-side view of a proxy key, recovered while walking a chain.
#[derive(Clone, Debug)]
pub enum ProxyKeyVerifier {
    /// The unsealed symmetric proxy key (only the end-server can produce
    /// this, since the key was sealed for it).
    Symmetric(SymmetricKey),
    /// The embedded public half of the proxy key pair.
    Ed25519(VerifyingKey),
}

impl ProxyKeyVerifier {
    /// Checks a possession proof produced by [`ProxyKey::prove_possession`].
    #[must_use]
    pub fn check_possession(&self, challenge: &[u8; 32], binding: &[u8], proof: &[u8]) -> bool {
        let msg = possession_message(challenge, binding);
        match self {
            ProxyKeyVerifier::Symmetric(k) => k.verify_mac(&msg, proof),
            ProxyKeyVerifier::Ed25519(vk) => {
                Signature::try_from_slice(proof).is_ok_and(|sig| vk.verify(&msg, &sig).is_ok())
            }
        }
    }
}

/// Wire length of the sealed symmetric proxy key embedded in a
/// certificate: always the seal of exactly one 32-byte key.
pub const SEALED_PROXY_KEY_LEN: usize = seal::SEALED_KEY32_LEN;

/// The key material embedded in a certificate (Fig. 1's `K_proxy` field).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyMaterial {
    /// The symmetric proxy key, sealed under the grantor↔end-server shared
    /// key (chain head) or under the previous proxy key (cascade link), so
    /// an eavesdropper observing the certificate cannot use the proxy.
    /// Fixed-width (a sealed 32-byte key), kept inline so grants and
    /// decodes never box it.
    SealedSymmetric([u8; SEALED_PROXY_KEY_LEN]),
    /// The public half of an Ed25519 proxy key pair (needs no secrecy).
    PublicKey(VerifyingKey),
}

impl KeyMaterial {
    /// Seals a symmetric proxy key under `sealing_key`.
    pub fn seal_symmetric<R: RngCore>(
        proxy_key: &SymmetricKey,
        sealing_key: &SymmetricKey,
        rng: &mut R,
    ) -> KeyMaterial {
        KeyMaterial::SealedSymmetric(seal::seal_key32(
            sealing_key,
            PROXY_KEY_AAD,
            proxy_key.as_bytes(),
            rng,
        ))
    }

    /// Recovers the proxy-key verifier, unsealing with `unseal_key` when
    /// the material is symmetric.
    ///
    /// # Errors
    ///
    /// Returns `None` on seal integrity failure or malformed key bytes.
    #[must_use]
    pub fn unseal(&self, unseal_key: Option<&SymmetricKey>) -> Option<ProxyKeyVerifier> {
        match self {
            KeyMaterial::SealedSymmetric(sealed) => {
                let key = unseal_key?;
                let bytes = seal::open(key, PROXY_KEY_AAD, sealed).ok()?;
                SymmetricKey::try_from_slice(&bytes)
                    .ok()
                    .map(ProxyKeyVerifier::Symmetric)
            }
            KeyMaterial::PublicKey(vk) => Some(ProxyKeyVerifier::Ed25519(*vk)),
        }
    }
}

/// The credential with which a grantor signs proxy certificates.
#[derive(Clone)]
pub enum GrantAuthority {
    /// Conventional flavor: a key shared with the end-server (in the full
    /// system, the Kerberos session key from the grantor's ticket for that
    /// server).
    SharedKey(SymmetricKey),
    /// Public-key flavor: the grantor's Ed25519 identity key.
    Keypair(SigningKey),
}

impl std::fmt::Debug for GrantAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrantAuthority::SharedKey(_) => write!(f, "GrantAuthority::SharedKey(<redacted>)"),
            GrantAuthority::Keypair(k) => {
                write!(f, "GrantAuthority::Keypair({:?})", k.verifying_key())
            }
        }
    }
}

/// The verifier-side counterpart of a [`GrantAuthority`].
#[derive(Clone)]
pub enum GrantorVerifier {
    /// Shared key between the named grantor and this end-server.
    SharedKey(SymmetricKey),
    /// The grantor's public key (obtained from a name/authentication
    /// server in the full system).
    PublicKey(VerifyingKey),
}

impl std::fmt::Debug for GrantorVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrantorVerifier::SharedKey(_) => write!(f, "GrantorVerifier::SharedKey(<redacted>)"),
            GrantorVerifier::PublicKey(k) => write!(f, "GrantorVerifier::PublicKey({k:?})"),
        }
    }
}

/// Maps grantor names to verification material — the end-server's view of
/// the authentication infrastructure (paper §2: "The description assumes
/// that the infrastructure needed to authenticate the original grantor of a
/// proxy is in place").
pub trait KeyResolver {
    /// Verification material for certificates signed by `grantor`, or
    /// `None` when the grantor is unknown to this server.
    fn grantor_verifier(&self, grantor: &PrincipalId) -> Option<GrantorVerifier>;
}

/// A simple in-memory [`KeyResolver`].
#[derive(Clone, Debug, Default)]
pub struct MapResolver {
    entries: HashMap<PrincipalId, GrantorVerifier>,
}

impl MapResolver {
    /// Creates an empty resolver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers verification material for `grantor`.
    ///
    /// A shared key derives its MAC and seal schedule here, on the copy
    /// the resolver stores: every [`grantor_verifier`] clone then shares
    /// it, where clones of an underived key would each derive their own.
    ///
    /// [`grantor_verifier`]: KeyResolver::grantor_verifier
    pub fn insert(&mut self, grantor: PrincipalId, verifier: GrantorVerifier) {
        if let GrantorVerifier::SharedKey(key) = &verifier {
            key.prepare();
        }
        self.entries.insert(grantor, verifier);
    }

    /// Builder-style [`insert`](Self::insert).
    #[must_use]
    pub fn with(mut self, grantor: PrincipalId, verifier: GrantorVerifier) -> Self {
        self.insert(grantor, verifier);
        self
    }
}

impl KeyResolver for MapResolver {
    fn grantor_verifier(&self, grantor: &PrincipalId) -> Option<GrantorVerifier> {
        self.entries.get(grantor).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn symmetric_possession_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let key = ProxyKey::generate_symmetric(&mut rng);
        let challenge = [7u8; 32];
        let proof = key.prove_possession(&challenge, b"binding");
        let ProxyKey::Symmetric(k) = &key else {
            unreachable!()
        };
        let verifier = ProxyKeyVerifier::Symmetric(k.clone());
        assert!(verifier.check_possession(&challenge, b"binding", &proof));
        assert!(!verifier.check_possession(&[8u8; 32], b"binding", &proof));
        assert!(!verifier.check_possession(&challenge, b"other", &proof));
    }

    #[test]
    fn ed25519_possession_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let key = ProxyKey::generate_ed25519(&mut rng);
        let challenge = [9u8; 32];
        let proof = key.prove_possession(&challenge, b"ctx");
        let ProxyKey::Ed25519(k) = &key else {
            unreachable!()
        };
        let verifier = ProxyKeyVerifier::Ed25519(k.verifying_key());
        assert!(verifier.check_possession(&challenge, b"ctx", &proof));
        assert!(!verifier.check_possession(&challenge, b"ctx", &proof[..63]));
    }

    #[test]
    fn sealed_key_material_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let proxy_key = SymmetricKey::generate(&mut rng);
        let session = SymmetricKey::generate(&mut rng);
        let material = KeyMaterial::seal_symmetric(&proxy_key, &session, &mut rng);
        match material.unseal(Some(&session)) {
            Some(ProxyKeyVerifier::Symmetric(k)) => assert_eq!(k.as_bytes(), proxy_key.as_bytes()),
            other => panic!("unexpected: {other:?}"),
        }
        // Wrong key or no key: unrecoverable.
        let wrong = SymmetricKey::generate(&mut rng);
        assert!(material.unseal(Some(&wrong)).is_none());
        assert!(material.unseal(None).is_none());
    }

    #[test]
    fn public_key_material_needs_no_unsealing() {
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SigningKey::generate(&mut rng);
        let material = KeyMaterial::PublicKey(sk.verifying_key());
        assert!(matches!(
            material.unseal(None),
            Some(ProxyKeyVerifier::Ed25519(_))
        ));
    }

    #[test]
    fn map_resolver_lookups() {
        let mut rng = StdRng::seed_from_u64(5);
        let resolver = MapResolver::new().with(
            PrincipalId::new("alice"),
            GrantorVerifier::SharedKey(SymmetricKey::generate(&mut rng)),
        );
        assert!(resolver
            .grantor_verifier(&PrincipalId::new("alice"))
            .is_some());
        assert!(resolver
            .grantor_verifier(&PrincipalId::new("mallory"))
            .is_none());
    }
}
