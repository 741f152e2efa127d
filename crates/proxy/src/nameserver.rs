//! A name server for public-key proxies (§6.1).
//!
//! "The end-server decrypts the proxy using the public key of the grantor
//! (obtained from an authentication/name server)." This module provides
//! that directory: the name server signs *key bindings* — (principal,
//! public key, validity) triples — and end-servers install verified
//! bindings into a [`CertifiedResolver`], which then serves as the
//! [`KeyResolver`] for proxy verification.

use std::collections::HashMap;

use proxy_crypto::ed25519::{Signature, SigningKey, VerifyingKey};

use crate::encode::{DecodeError, Decoder, Encoder};
use crate::key::{GrantorVerifier, KeyResolver};
use crate::principal::PrincipalId;
use crate::time::{Timestamp, Validity};

/// A signed (principal → public key) binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyBinding {
    /// The principal being bound.
    pub principal: PrincipalId,
    /// The principal's public key.
    pub key: VerifyingKey,
    /// How long the binding may be relied upon.
    pub validity: Validity,
    /// The name server's signature over the binding body.
    pub signature: Signature,
}

fn binding_body(principal: &PrincipalId, key: &VerifyingKey, validity: &Validity) -> Vec<u8> {
    let mut e = Encoder::new();
    e.raw(b"proxy-aa key binding v1");
    e.str(principal.as_str());
    e.raw(key.as_bytes());
    e.u64(validity.from.0);
    e.u64(validity.until.0);
    e.finish()
}

impl KeyBinding {
    /// Wire encoding.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.str(self.principal.as_str());
        e.raw(self.key.as_bytes());
        e.u64(self.validity.from.0);
        e.u64(self.validity.until.0);
        e.raw(self.signature.as_bytes());
        e.finish()
    }

    /// Decodes a wire binding (unverified until installed).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input.
    pub fn decode(input: &[u8]) -> Result<KeyBinding, DecodeError> {
        let mut d = Decoder::new(input);
        let principal = d.principal()?;
        let key_bytes: [u8; 32] = d
            .raw(32)?
            .try_into()
            .map_err(|_| DecodeError::UnexpectedEnd)?;
        let from = Timestamp(d.u64()?);
        let until = Timestamp(d.u64()?);
        if from >= until {
            return Err(DecodeError::BadLength(until.0));
        }
        let signature =
            Signature::try_from_slice(d.raw(64)?).map_err(|_| DecodeError::UnexpectedEnd)?;
        d.finish()?;
        Ok(KeyBinding {
            principal,
            key: VerifyingKey::from_bytes(key_bytes),
            validity: Validity { from, until },
            signature,
        })
    }
}

/// The name server: registers principals' public keys and issues signed
/// bindings on demand.
#[derive(Debug)]
pub struct NameServer {
    name: PrincipalId,
    key: SigningKey,
    directory: HashMap<PrincipalId, VerifyingKey>,
    /// Lifetime of issued bindings, in ticks.
    pub binding_lifetime: u64,
}

impl NameServer {
    /// Creates a name server with signing key `key`.
    #[must_use]
    pub fn new(name: PrincipalId, key: SigningKey) -> Self {
        Self {
            name,
            key,
            directory: HashMap::new(),
            binding_lifetime: 10_000,
        }
    }

    /// The name server's principal name.
    #[must_use]
    pub fn name(&self) -> &PrincipalId {
        &self.name
    }

    /// The key end-servers use to verify bindings (distributed out of
    /// band, like a root of trust).
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Registers (or replaces) a principal's public key.
    pub fn register(&mut self, principal: PrincipalId, key: VerifyingKey) {
        self.directory.insert(principal, key);
    }

    /// Removes a principal (key revocation at the directory).
    pub fn unregister(&mut self, principal: &PrincipalId) {
        self.directory.remove(principal);
    }

    /// Issues a signed binding for `principal`, valid from `now`.
    #[must_use]
    pub fn lookup(&self, principal: &PrincipalId, now: Timestamp) -> Option<KeyBinding> {
        let key = *self.directory.get(principal)?;
        let validity = Validity::new(now, now.plus(self.binding_lifetime));
        let signature = self.key.sign(&binding_body(principal, &key, &validity));
        Some(KeyBinding {
            principal: principal.clone(),
            key,
            validity,
            signature,
        })
    }
}

/// Errors installing a binding into a [`CertifiedResolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingError {
    /// The name server's signature did not verify.
    BadSignature,
    /// The binding is outside its validity window.
    Expired,
}

impl std::fmt::Display for BindingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindingError::BadSignature => write!(f, "key binding signature invalid"),
            BindingError::Expired => write!(f, "key binding outside validity window"),
        }
    }
}

impl std::error::Error for BindingError {}

/// An end-server-side resolver populated from verified name-server
/// bindings. Implements [`KeyResolver`] for public-key proxy verification.
#[derive(Clone, Debug)]
pub struct CertifiedResolver {
    authority: VerifyingKey,
    cache: HashMap<PrincipalId, (VerifyingKey, Validity)>,
    now: Timestamp,
}

impl CertifiedResolver {
    /// Creates a resolver trusting bindings signed by `authority`.
    #[must_use]
    pub fn new(authority: VerifyingKey) -> Self {
        Self {
            authority,
            cache: HashMap::new(),
            now: Timestamp::ZERO,
        }
    }

    /// Advances the resolver's clock (expired cache entries stop
    /// resolving).
    pub fn set_now(&mut self, now: Timestamp) {
        self.now = now;
    }

    /// Verifies and caches a binding.
    ///
    /// # Errors
    ///
    /// [`BindingError::BadSignature`] or [`BindingError::Expired`].
    pub fn install(&mut self, binding: &KeyBinding) -> Result<(), BindingError> {
        let body = binding_body(&binding.principal, &binding.key, &binding.validity);
        self.authority
            .verify(&body, &binding.signature)
            .map_err(|_| BindingError::BadSignature)?;
        if !binding.validity.contains(self.now) {
            return Err(BindingError::Expired);
        }
        self.cache
            .insert(binding.principal.clone(), (binding.key, binding.validity));
        Ok(())
    }

    /// Number of cached bindings.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

impl KeyResolver for CertifiedResolver {
    fn grantor_verifier(&self, grantor: &PrincipalId) -> Option<GrantorVerifier> {
        let (key, validity) = self.cache.get(grantor)?;
        validity
            .contains(self.now)
            .then_some(GrantorVerifier::PublicKey(*key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn setup() -> (NameServer, SigningKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let ns_key = SigningKey::generate(&mut rng);
        let alice_key = SigningKey::generate(&mut rng);
        let mut ns = NameServer::new(p("ns"), ns_key);
        ns.register(p("alice"), alice_key.verifying_key());
        (ns, alice_key, rng)
    }

    #[test]
    fn lookup_install_resolve() {
        let (ns, alice_key, _rng) = setup();
        let binding = ns.lookup(&p("alice"), Timestamp(10)).unwrap();
        let mut resolver = CertifiedResolver::new(ns.verifying_key());
        resolver.set_now(Timestamp(10));
        resolver.install(&binding).unwrap();
        match resolver.grantor_verifier(&p("alice")) {
            Some(GrantorVerifier::PublicKey(k)) => {
                assert_eq!(k.as_bytes(), alice_key.verifying_key().as_bytes());
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(resolver.grantor_verifier(&p("bob")).is_none());
    }

    #[test]
    fn forged_binding_rejected() {
        let (ns, _alice_key, mut rng) = setup();
        let mut binding = ns.lookup(&p("alice"), Timestamp(0)).unwrap();
        // Mallory swaps in her own key.
        let mallory = SigningKey::generate(&mut rng);
        binding.key = mallory.verifying_key();
        let mut resolver = CertifiedResolver::new(ns.verifying_key());
        assert_eq!(resolver.install(&binding), Err(BindingError::BadSignature));
    }

    #[test]
    fn expired_binding_rejected_and_cache_expires() {
        let (ns, _alice_key, _rng) = setup();
        let binding = ns.lookup(&p("alice"), Timestamp(0)).unwrap();
        let mut resolver = CertifiedResolver::new(ns.verifying_key());
        // Installing after expiry fails.
        resolver.set_now(Timestamp(20_000));
        assert_eq!(resolver.install(&binding), Err(BindingError::Expired));
        // Installing in time, then advancing past expiry, stops resolution.
        resolver.set_now(Timestamp(5));
        resolver.install(&binding).unwrap();
        assert!(resolver.grantor_verifier(&p("alice")).is_some());
        resolver.set_now(Timestamp(20_000));
        assert!(resolver.grantor_verifier(&p("alice")).is_none());
    }

    #[test]
    fn binding_round_trips_on_wire() {
        let (ns, _alice_key, _rng) = setup();
        let binding = ns.lookup(&p("alice"), Timestamp(3)).unwrap();
        let decoded = KeyBinding::decode(&binding.encode()).unwrap();
        assert_eq!(decoded, binding);
    }

    #[test]
    fn unregister_stops_new_lookups() {
        let (mut ns, _alice_key, _rng) = setup();
        assert!(ns.lookup(&p("alice"), Timestamp(0)).is_some());
        ns.unregister(&p("alice"));
        assert!(ns.lookup(&p("alice"), Timestamp(0)).is_none());
    }

    #[test]
    fn end_to_end_with_public_key_proxy() {
        // The §6.1 flow: the end-server learns alice's key from the name
        // server, then verifies her proxy offline.
        let (ns, alice_key, mut rng) = setup();
        let proxy = crate::proxy::grant(
            &p("alice"),
            &crate::key::GrantAuthority::Keypair(alice_key),
            crate::restriction::RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        let binding = ns.lookup(&p("alice"), Timestamp(0)).unwrap();
        let mut resolver = CertifiedResolver::new(ns.verifying_key());
        resolver.set_now(Timestamp(5));
        resolver.install(&binding).unwrap();
        let verifier = crate::verify::Verifier::new(p("fs"), resolver);
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        let ctx = crate::context::RequestContext::new(
            p("fs"),
            crate::restriction::Operation::new("read"),
            crate::restriction::ObjectName::new("x"),
        )
        .at(Timestamp(5));
        let mut guard = crate::replay::ReplayCache::new();
        assert!(verifier.verify(&pres, &ctx, &mut guard).is_ok());
    }
}
