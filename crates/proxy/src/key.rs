//! Grant authorities, their verifiers, and key resolution.
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
//! Under either, a cascade is recursive (§3.4, Fig. 4): the grantor seals
//! the first certificate with its own key, and every later link is sealed
//! with the proxy key of the one before, used exactly as the grantor's
//! key was. So there is one signer, [`GrantAuthority`], and one verifier,
//! [`GrantorVerifier`]: a proxy key *is* the authority to grant the next
//! link, and the key recovered from a certificate *is* the verifier of
//! the link after it. Which seal goes with which key is decided in
//! `GrantorVerifier::check_seal` and nowhere else.

use std::collections::HashMap;

use rand::RngCore;

use proxy_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use proxy_crypto::keys::SymmetricKey;
use proxy_crypto::seal;

use crate::cert::CertSeal;
use crate::principal::PrincipalId;

/// Domain-separation label for possession proofs.
const POSSESSION_LABEL: &[u8] = b"proxy-aa possession v1";
/// Domain-separation label for sealed proxy keys.
const PROXY_KEY_AAD: &[u8] = b"proxy-aa sealed proxy key v1";

/// Appends to `out` everything a possession proof covers that comes
/// before the binding: label, then challenge.
pub(crate) fn append_possession_prefix(out: &mut Vec<u8>, challenge: &[u8; 32]) {
    out.extend_from_slice(POSSESSION_LABEL);
    out.extend_from_slice(challenge);
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
    /// Recovers the verifier of the next link from a certificate whose
    /// seal is checked under `sealer`: a sealed symmetric key opens under
    /// the sealer's shared key, a public key stands as it is.
    ///
    /// # Errors
    ///
    /// Returns `None` when the material is sealed and `sealer` holds no
    /// shared key, on seal integrity failure, or on malformed key bytes.
    #[must_use]
    pub fn unseal(&self, sealer: &GrantorVerifier) -> Option<GrantorVerifier> {
        match (self, sealer) {
            (KeyMaterial::SealedSymmetric(sealed), GrantorVerifier::SharedKey(key)) => {
                let bytes = seal::open(key, PROXY_KEY_AAD, sealed).ok()?;
                SymmetricKey::try_from_slice(&bytes)
                    .ok()
                    .map(GrantorVerifier::SharedKey)
            }
            (KeyMaterial::SealedSymmetric(_), GrantorVerifier::PublicKey(_)) => None,
            (KeyMaterial::PublicKey(vk), _) => Some(GrantorVerifier::PublicKey(*vk)),
        }
    }
}

/// The key that seals a certificate: a grantor's own credential at the
/// head of a chain, and — the same thing one link on — the secret proxy
/// key a grantee holds, which is the authority to grant the next link
/// ([`Proxy::derive`](crate::proxy::Proxy::derive)) and what a bearer
/// proves possession of.
#[derive(Clone)]
pub enum GrantAuthority {
    /// Conventional flavor: a key shared with the end-server (in the full
    /// system, the Kerberos session key from the grantor's ticket for that
    /// server), or a symmetric proxy key the end-server recovers from the
    /// certificate before.
    SharedKey(SymmetricKey),
    /// Public-key flavor: the grantor's Ed25519 identity key, or the
    /// private half of an Ed25519 proxy key pair.
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

impl GrantAuthority {
    /// Seals `body`: an HMAC tag under a shared key, a signature under a
    /// key pair.
    #[must_use]
    pub fn seal(&self, body: &[u8]) -> CertSeal {
        match self {
            GrantAuthority::SharedKey(key) => CertSeal::Hmac(key.mac(body)),
            GrantAuthority::Keypair(key) => CertSeal::Ed25519(key.sign(body)),
        }
    }

    /// The verifier that accepts what this authority seals.
    #[must_use]
    pub fn verifier(&self) -> GrantorVerifier {
        match self {
            GrantAuthority::SharedKey(key) => GrantorVerifier::SharedKey(key.clone()),
            GrantAuthority::Keypair(key) => GrantorVerifier::PublicKey(key.verifying_key()),
        }
    }

    /// Mints the proxy key of the next link, of this authority's flavour,
    /// and the [`KeyMaterial`] that certifies it: a fresh symmetric key
    /// sealed under this one, or a fresh key pair's public half. The
    /// fresh key is drawn from `rng` before the sealing nonce; a seeded
    /// grant reproduces its bytes only in that order.
    pub fn mint_next<R: RngCore>(&self, rng: &mut R) -> (GrantAuthority, KeyMaterial) {
        match self {
            GrantAuthority::SharedKey(sealing_key) => {
                let fresh = SymmetricKey::generate(rng);
                let sealed = seal::seal_key32(sealing_key, PROXY_KEY_AAD, fresh.as_bytes(), rng);
                (
                    GrantAuthority::SharedKey(fresh),
                    KeyMaterial::SealedSymmetric(sealed),
                )
            }
            GrantAuthority::Keypair(_) => {
                let fresh = SigningKey::generate(rng);
                let material = KeyMaterial::PublicKey(fresh.verifying_key());
                (GrantAuthority::Keypair(fresh), material)
            }
        }
    }

    /// Produces a possession proof over `challenge` bound to the
    /// presentation context (end-server name and final certificate body
    /// digest), preventing a response from being replayed elsewhere: the
    /// bare bytes of this key's seal over label, challenge and binding.
    #[must_use]
    pub fn prove_possession(&self, challenge: &[u8; 32], binding: &[u8]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(POSSESSION_LABEL.len() + 32 + binding.len());
        append_possession_prefix(&mut msg, challenge);
        msg.extend_from_slice(binding);
        self.seal(&msg).wire().1.to_vec()
    }
}

/// What [`GrantorVerifier::check_seal`] found.
pub(crate) enum SealCheck {
    /// An HMAC tag that verifies.
    Valid,
    /// An HMAC tag that does not.
    Invalid,
    /// A seal of the flavour this key is not. Fails closed: a chain
    /// cannot be moved onto a weaker or different check by swapping the
    /// seal's tag.
    FlavorMismatch,
    /// An Ed25519 signature under this public key, not yet verified:
    /// curve work is for the caller to batch or settle.
    Deferred(VerifyingKey, Signature),
}

/// The verifier-side counterpart of a [`GrantAuthority`]: what an
/// end-server resolves for a named grantor, and what it recovers from a
/// certificate ([`KeyMaterial::unseal`]) to check the next link and the
/// bearer's possession proof.
#[derive(Clone)]
pub enum GrantorVerifier {
    /// A key shared between the named grantor and this end-server, or an
    /// unsealed symmetric proxy key (only the end-server can produce
    /// that, since the key was sealed for it).
    SharedKey(SymmetricKey),
    /// The grantor's public key (obtained from a name/authentication
    /// server in the full system), or the embedded public half of a
    /// proxy key pair.
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

impl GrantorVerifier {
    /// Pairs `seal` with this key — HMAC tag with shared key, Ed25519
    /// signature with public key, anything else a mismatch — and checks
    /// what is cheap to check. The one place the pairing is written.
    pub(crate) fn check_seal(&self, body: &[u8], seal: &CertSeal) -> SealCheck {
        match (self, seal) {
            (GrantorVerifier::SharedKey(key), CertSeal::Hmac(tag)) => {
                if key.verify_mac(body, tag) {
                    SealCheck::Valid
                } else {
                    SealCheck::Invalid
                }
            }
            (GrantorVerifier::PublicKey(vk), CertSeal::Ed25519(sig)) => {
                SealCheck::Deferred(*vk, *sig)
            }
            (GrantorVerifier::SharedKey(_), CertSeal::Ed25519(_))
            | (GrantorVerifier::PublicKey(_), CertSeal::Hmac(_)) => SealCheck::FlavorMismatch,
        }
    }

    /// True when `seal` is this key's seal over `body`, settled here and
    /// now; a seal of the other flavour is simply not.
    #[must_use]
    pub fn verify_seal(&self, body: &[u8], seal: &CertSeal) -> bool {
        match self.check_seal(body, seal) {
            SealCheck::Valid => true,
            SealCheck::Deferred(vk, sig) => vk.verify(body, &sig).is_ok(),
            SealCheck::Invalid | SealCheck::FlavorMismatch => false,
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
    fn possession_proofs_bind_challenge_and_context_under_either_flavour() {
        let mut rng = StdRng::seed_from_u64(1);
        for key in [
            GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
            GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
        ] {
            // A proof is the key's seal over label, challenge, binding,
            // without the flavour tag.
            let holds = |challenge: &[u8; 32], binding: &[u8], proof: &[u8]| {
                let mut msg = Vec::new();
                append_possession_prefix(&mut msg, challenge);
                msg.extend_from_slice(binding);
                let seal = match &key {
                    GrantAuthority::SharedKey(_) => proof.try_into().map(CertSeal::Hmac).ok(),
                    GrantAuthority::Keypair(_) => {
                        Signature::try_from_slice(proof).map(CertSeal::Ed25519).ok()
                    }
                };
                seal.is_some_and(|seal| key.verifier().verify_seal(&msg, &seal))
            };
            let proof = key.prove_possession(&[7u8; 32], b"binding");
            assert!(holds(&[7u8; 32], b"binding", &proof));
            assert!(!holds(&[8u8; 32], b"binding", &proof));
            assert!(!holds(&[7u8; 32], b"other", &proof));
            assert!(!holds(&[7u8; 32], b"binding", &proof[..proof.len() - 1]));
        }
    }

    #[test]
    fn a_minted_symmetric_key_is_recovered_only_under_the_key_that_minted_it() {
        let mut rng = StdRng::seed_from_u64(3);
        let session = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
        let (proxy_key, material) = session.mint_next(&mut rng);
        let GrantAuthority::SharedKey(proxy_key) = proxy_key else {
            panic!("a shared key mints a shared key");
        };
        match material.unseal(&session.verifier()) {
            Some(GrantorVerifier::SharedKey(k)) => assert_eq!(k.as_bytes(), proxy_key.as_bytes()),
            other => panic!("unexpected: {other:?}"),
        }
        // Wrong key or a public key: unrecoverable.
        let wrong = GrantorVerifier::SharedKey(SymmetricKey::generate(&mut rng));
        assert!(material.unseal(&wrong).is_none());
        let public = GrantAuthority::Keypair(SigningKey::generate(&mut rng)).verifier();
        assert!(material.unseal(&public).is_none());
    }

    #[test]
    fn public_key_material_needs_no_unsealing() {
        let mut rng = StdRng::seed_from_u64(4);
        let grantor = GrantAuthority::Keypair(SigningKey::generate(&mut rng));
        let (proxy_key, material) = grantor.mint_next(&mut rng);
        let GrantorVerifier::PublicKey(expected) = proxy_key.verifier() else {
            panic!("a key pair mints a key pair");
        };
        assert_eq!(material, KeyMaterial::PublicKey(expected));
        for sealer in [
            grantor.verifier(),
            GrantorVerifier::SharedKey(SymmetricKey::generate(&mut rng)),
        ] {
            assert!(matches!(
                material.unseal(&sealer),
                Some(GrantorVerifier::PublicKey(vk)) if vk == expected
            ));
        }
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
