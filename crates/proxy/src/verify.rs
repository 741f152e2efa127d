//! End-server verification of presented proxies.
//!
//! The verifier walks the certificate chain (Fig. 4) entirely offline —
//! the efficiency difference from Sollins's cascaded authentication, where
//! the end-server must contact the authentication server (§3.4) — then
//! evaluates the additive union of restrictions and checks the presenter's
//! proof (possession for bearer proxies, authenticated identity for
//! delegate proxies).

use std::ops::Range;
use std::sync::Arc;

use proxy_crypto::ed25519::{self, Signature, VerifyingKey};
use proxy_crypto::sha256::Sha256;

use crate::cache::{SealKey, VerifiedCertCache};
use crate::cert::{Certificate, SigningAuthorityKind};
use crate::context::RequestContext;
use crate::encode::Encoder;
use crate::error::VerifyError;
use crate::key::{append_possession_prefix, GrantorVerifier, KeyResolver, SealCheck};
use crate::keytable::KeyTable;
use crate::present::{append_presentation_binding, Presentation, Proof};
use crate::principal::PrincipalId;
use crate::replay::ReplayGuard;
use crate::restriction::RestrictionSet;
use crate::revocation::RevocationDirectory;
use crate::time::Timestamp;

/// Appends `cert`'s canonical body to `out` and returns where it lies.
fn append_body(cert: &Certificate, out: &mut Vec<u8>) -> Range<usize> {
    let start = out.len();
    let mut e = Encoder::from_vec(std::mem::take(out));
    cert.body_bytes_onto(&mut e);
    *out = e.finish();
    start..out.len()
}

/// An Ed25519 check postponed so that everything one presentation asks
/// of the curve — its uncached seals and its possession proof — is
/// settled as one equation.
struct PendingCheck {
    /// The signed bytes, as a range of the presentation's one scratch
    /// buffer.
    message: Range<usize>,
    sig: Signature,
    vk: VerifyingKey,
    subject: Subject,
}

/// What a [`PendingCheck`] decides.
enum Subject {
    /// The seal of the certificate at chain position `index`.
    Seal {
        index: usize,
        /// The body's digest — with the check's signature and key, the
        /// cache entry — and the expiry to cache it until; `None`
        /// without a cache.
        cache_entry: Option<([u8; 32], Timestamp)>,
    },
    /// The presenter's possession proof. Queued after every seal.
    Possession,
}

impl PendingCheck {
    /// The error a failure of this check is reported as.
    fn blame(&self) -> VerifyError {
        match self.subject {
            Subject::Seal { index, .. } => VerifyError::BadSeal { index },
            Subject::Possession => VerifyError::BadPossession,
        }
    }
}

/// The outcome of successful verification: what the proxy conveys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedProxy {
    /// The original grantor, whose rights (as limited by the restrictions)
    /// the request now carries.
    pub grantor: PrincipalId,
    /// The additive union of all restrictions along the chain.
    pub restrictions: RestrictionSet,
    /// Earliest expiry along the chain.
    pub expires: Timestamp,
    /// Chain length (1 = direct proxy, >1 = cascaded).
    pub chain_len: usize,
}

/// An end-server's proxy verifier.
#[derive(Clone, Debug)]
pub struct Verifier<R> {
    server: PrincipalId,
    resolver: R,
    /// Optional cache of positive Ed25519 seal checks; see
    /// [`VerifiedCertCache`] for what is (and is deliberately not)
    /// memoized. Shared across clones so every handle benefits.
    cache: Option<Arc<VerifiedCertCache>>,
    /// Optional local revocation mirror ([`RevocationDirectory`]); when
    /// attached, every certificate's (grantor, serial) is checked against
    /// the mirrored revoked sets — an O(1) local probe, no round trips.
    revocations: Option<Arc<RevocationDirectory>>,
    /// What earlier checks computed about the Ed25519 keys they ran
    /// under; a presentation that needs exactly one check (the
    /// possession proof of a cached chain, the seal of a one-link
    /// delegate proxy) settles it through here. See [`crate::keytable`].
    /// Shared across clones, like the seal cache.
    keys: Arc<KeyTable>,
}

impl<R: KeyResolver> Verifier<R> {
    /// Creates a verifier for the end-server named `server`, resolving
    /// grantor keys through `resolver`.
    pub fn new(server: PrincipalId, resolver: R) -> Self {
        Self {
            server,
            resolver,
            cache: None,
            revocations: None,
            keys: Arc::new(KeyTable::new()),
        }
    }

    /// Attaches a bounded seal cache, making repeated presentations of the
    /// same chain O(1) in signature checks.
    #[must_use]
    pub fn with_seal_cache(mut self, capacity: usize) -> Self {
        self.cache = Some(Arc::new(VerifiedCertCache::new(capacity)));
        self
    }

    /// The attached seal cache, if any.
    #[must_use]
    pub fn seal_cache(&self) -> Option<&VerifiedCertCache> {
        self.cache.as_deref()
    }

    /// Attaches a (possibly shared) local revocation mirror. Every
    /// certificate in a presented chain is then checked against its
    /// grantor's mirrored revoked-serial set before anything else is
    /// spent on it — one hash probe per certificate, zero round trips.
    #[must_use]
    pub fn with_revocation(mut self, revocations: Arc<RevocationDirectory>) -> Self {
        self.revocations = Some(revocations);
        self
    }

    /// The attached revocation mirror, if any.
    #[must_use]
    pub fn revocation_directory(&self) -> Option<&Arc<RevocationDirectory>> {
        self.revocations.as_ref()
    }

    /// The end-server this verifier speaks for.
    #[must_use]
    pub fn server(&self) -> &PrincipalId {
        &self.server
    }

    /// The key resolver backing this verifier.
    #[must_use]
    pub fn resolver(&self) -> &R {
        &self.resolver
    }

    /// Mutable access to the resolver, so a long-lived verifier can learn
    /// new grantors without being rebuilt (and without discarding its seal
    /// cache).
    pub fn resolver_mut(&mut self) -> &mut R {
        &mut self.resolver
    }

    /// Verifies a presentation against a request context.
    ///
    /// Checks, in order: chain seals (offline), validity windows,
    /// presenter proof (possession or identity), and the additive
    /// restriction union.
    ///
    /// # Errors
    ///
    /// Every failure mode is a distinct [`VerifyError`]; see its docs.
    pub fn verify(
        &self,
        presentation: &Presentation,
        ctx: &RequestContext,
        replay: &mut dyn ReplayGuard,
    ) -> Result<VerifiedProxy, VerifyError> {
        let certs = &presentation.certs;
        if certs.is_empty() {
            return Err(VerifyError::EmptyChain);
        }

        // Pass 1: verify seals and recover proxy-key verifiers link by
        // link. Key recovery never depends on a seal being *valid* (only
        // on the recovered key of the prior link), so Ed25519 seal checks
        // are deferred — unless the seal cache already vouches for a
        // certificate — and settled in pass 3 together with the
        // possession proof. HMAC seals are cheaper than the cache digest
        // and are checked inline.
        let mut prev_key: Option<GrantorVerifier> = None;
        let mut expires = Timestamp::MAX;
        let mut pending: Vec<PendingCheck> = Vec::new();
        // One scratch buffer for every byte string the presentation's
        // checks read: the body of each certificate in turn, kept when
        // its seal is deferred and overwritten by the next body when not,
        // then the possession message.
        let mut scratch = Vec::with_capacity(Certificate::ENCODE_CAPACITY_HINT);
        let mut kept = 0;
        let mut final_body = 0..0;
        // The SHA-256 of the last body, when the seal cache was asked
        // about it: the possession proof binds the same digest.
        let mut final_digest = None;
        for (index, cert) in certs.iter().enumerate() {
            if !cert.validity.contains(ctx.now) {
                return Err(VerifyError::NotValidAt {
                    index,
                    now: ctx.now,
                });
            }
            if let Some(revocations) = &self.revocations {
                if revocations.is_revoked(&cert.grantor, cert.serial) {
                    return Err(VerifyError::Revoked {
                        index,
                        serial: cert.serial,
                    });
                }
            }
            expires = expires.min(cert.expires());
            scratch.truncate(kept);
            final_body = append_body(cert, &mut scratch);
            let body = &scratch[final_body.clone()];
            let sealer = match cert.authority {
                SigningAuthorityKind::Grantor => self
                    .resolver
                    .grantor_verifier(&cert.grantor)
                    .ok_or_else(|| VerifyError::UnknownGrantor(cert.grantor.clone()))?,
                SigningAuthorityKind::PriorProxyKey => {
                    prev_key.take().ok_or(VerifyError::HeadNotGrantorSealed)?
                }
            };
            let ed25519_seal = match sealer.check_seal(body, &cert.seal) {
                SealCheck::Valid => None,
                SealCheck::Deferred(vk, sig) => Some((vk, sig)),
                SealCheck::Invalid => return Err(VerifyError::BadSeal { index }),
                SealCheck::FlavorMismatch => return Err(VerifyError::FlavorMismatch { index }),
            };
            final_digest = None;
            if let Some((vk, sig)) = ed25519_seal {
                // Deferred, unless the cache already vouches for this
                // exact (body, seal, key) triple.
                let digest = self.cache.as_ref().map(|_| Sha256::digest(body));
                final_digest = digest;
                let vouched = self
                    .cache
                    .as_ref()
                    .zip(digest.as_ref())
                    .is_some_and(|(cache, d)| cache.contains(&SealKey::new(d, &sig, &vk), ctx.now));
                if !vouched {
                    if pending.is_empty() {
                        // Every later link may defer too, then the proof.
                        pending.reserve_exact(certs.len() - index + 1);
                    }
                    pending.push(PendingCheck {
                        message: final_body.clone(),
                        sig,
                        vk,
                        subject: Subject::Seal {
                            index,
                            cache_entry: digest.map(|d| (d, cert.expires())),
                        },
                    });
                    kept = scratch.len();
                }
            }
            prev_key = Some(
                cert.key_material
                    .unseal(&sealer)
                    .ok_or(VerifyError::KeyUnrecoverable { index })?,
            );
        }
        let final_key = prev_key.expect("chain non-empty");

        // Pass 2: resolve delegate cascades into an effective identity set.
        // A subordinate holding a cascade link from a named delegate may act
        // as that delegate (§2: "or by someone with a suitable additional
        // proxy issued by a named delegate").
        let mut effective = ctx.authenticated.clone();
        for cert in certs.iter().skip(1).rev() {
            if cert.authority == SigningAuthorityKind::Grantor
                && grantee_satisfied(&cert.restrictions, &effective)
                && !effective.contains(&cert.grantor)
            {
                effective.push(cert.grantor.clone());
            }
        }
        let mut eval_ctx = ctx.clone();
        eval_ctx.authenticated = effective;

        // Pass 3: the presenter's proof, then every deferred check at
        // once. An Ed25519 possession proof is one more pending check;
        // anything else about the proof is decided here and reported
        // only after the seals, so a bad seal is blamed before a bad
        // proof whichever the verifier happened to look at first.
        let combined = certs
            .iter()
            .fold(RestrictionSet::new(), |acc, c| acc.union(&c.restrictions));
        let mut proof_verdict = Ok(());
        match &presentation.proof {
            Proof::Possession {
                challenge,
                response,
            } => {
                let final_digest =
                    final_digest.unwrap_or_else(|| Sha256::digest(&scratch[final_body]));
                let start = scratch.len();
                append_possession_prefix(&mut scratch, challenge);
                append_presentation_binding(&mut scratch, &self.server, &final_digest);
                let message = start..scratch.len();
                match &final_key {
                    GrantorVerifier::SharedKey(k) => {
                        if !k.verify_mac(&scratch[message], response) {
                            proof_verdict = Err(VerifyError::BadPossession);
                        }
                    }
                    GrantorVerifier::PublicKey(vk) => match Signature::try_from_slice(response) {
                        Ok(sig) => pending.push(PendingCheck {
                            message,
                            sig,
                            vk: *vk,
                            subject: Subject::Possession,
                        }),
                        Err(_) => proof_verdict = Err(VerifyError::BadPossession),
                    },
                }
            }
            Proof::Identity => {
                // Only delegate proxies may be exercised without possession.
                if !combined.has_grantee() {
                    proof_verdict = Err(VerifyError::BearerRequiresPossession);
                }
            }
        }
        self.settle(&pending, &scratch, ctx.now)?;
        proof_verdict?;

        // Pass 4: evaluate every certificate's restrictions (additive).
        for cert in certs {
            cert.restrictions
                .evaluate(&eval_ctx, &cert.grantor, cert.expires(), replay)?;
        }

        Ok(VerifiedProxy {
            grantor: certs[0].grantor.clone(),
            restrictions: combined,
            expires,
            chain_len: certs.len(),
        })
    }

    /// Settles every pending check of one presentation: a lone check
    /// through the key table, two or more as one batched equation. When
    /// the batch fails, `first_failure` repeats each check on its own, in
    /// chain order with the proof last, up to the first that fails. If every seal
    /// holds the positive results enter the cache — even when the proof
    /// then fails: a seal's validity does not depend on who presents it —
    /// and if any seal fails nothing does. Only seal validity is ever
    /// cached, never a request-dependent decision.
    fn settle(
        &self,
        pending: &[PendingCheck],
        scratch: &[u8],
        now: Timestamp,
    ) -> Result<(), VerifyError> {
        let message = |check: &PendingCheck| &scratch[check.message.clone()];
        let failed = match pending {
            [] => None,
            [lone] => self
                .keys
                .verify(&lone.vk, message(lone), &lone.sig)
                .err()
                .map(|_| lone),
            many => {
                let items: Vec<(&[u8], &Signature, &VerifyingKey)> =
                    many.iter().map(|c| (message(c), &c.sig, &c.vk)).collect();
                ed25519::first_failure(&items).and_then(|i| many.get(i))
            }
        };
        let seal_failed = failed.is_some_and(|c| matches!(c.subject, Subject::Seal { .. }));
        if let (false, Some(cache)) = (seal_failed, &self.cache) {
            for check in pending {
                if let Subject::Seal {
                    cache_entry: Some((digest, expires)),
                    ..
                } = check.subject
                {
                    cache.insert(SealKey::new(&digest, &check.sig, &check.vk), expires, now);
                }
            }
        }
        failed.map_or(Ok(()), |check| Err(check.blame()))
    }
}

fn grantee_satisfied(restrictions: &RestrictionSet, authenticated: &[PrincipalId]) -> bool {
    use crate::restriction::Restriction;
    restrictions.iter().all(|r| match r {
        Restriction::Grantee {
            delegates,
            required,
        } => {
            delegates
                .iter()
                .filter(|d| authenticated.contains(d))
                .count() as u32
                >= *required
        }
        // This helper decides only the *grantee* question; the other
        // restrictions are enforced by `RestrictionSet::evaluate` during
        // chain verification. Enumerated (not `_`) so a new variant
        // forces an explicit decision here (§7.9).
        Restriction::ForUseByGroup { .. }
        | Restriction::IssuedFor { .. }
        | Restriction::Quota { .. }
        | Restriction::Authorized { .. }
        | Restriction::GroupMembership { .. }
        | Restriction::AcceptOnce { .. }
        | Restriction::LimitRestriction { .. } => true,
    }) && restrictions.has_grantee()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertSeal;
    use crate::key::{GrantAuthority, MapResolver};
    use crate::proxy::{delegate_cascade, grant};
    use crate::replay::MemoryReplayGuard;
    use crate::restriction::{ObjectName, Operation, Restriction};
    use crate::time::{Timestamp, Validity};
    use proxy_crypto::ed25519::SigningKey;
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn window() -> Validity {
        Validity::new(Timestamp(0), Timestamp(1000))
    }

    fn ctx() -> RequestContext {
        RequestContext::new(p("fs"), Operation::new("read"), ObjectName::new("file"))
            .at(Timestamp(10))
    }

    struct Setup {
        rng: StdRng,
        shared: SymmetricKey,
        verifier: Verifier<MapResolver>,
    }

    fn symmetric_setup(seed: u64) -> Setup {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared = SymmetricKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared.clone()));
        Setup {
            rng,
            shared,
            verifier: Verifier::new(p("fs"), resolver),
        }
    }

    #[test]
    fn bearer_symmetric_round_trip() {
        let mut s = symmetric_setup(1);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([7u8; 32], &p("fs"));
        let mut guard = MemoryReplayGuard::new();
        let verified = s.verifier.verify(&pres, &ctx(), &mut guard).unwrap();
        assert_eq!(verified.grantor, p("alice"));
        assert_eq!(verified.chain_len, 1);
    }

    #[test]
    fn two_presentations_under_one_resolver_derive_the_grantor_schedule_once() {
        let mut s = symmetric_setup(23);
        // The grantor's own copy of the key: nothing it derives can
        // reach the resolver's.
        let auth = GrantAuthority::SharedKey(SymmetricKey::from_bytes(*s.shared.as_bytes()));
        for serial in [1, 2] {
            let proxy = grant(
                &p("alice"),
                &auth,
                RestrictionSet::new(),
                window(),
                serial,
                &mut s.rng,
            );
            let pres = proxy.present_bearer([7u8; 32], &p("fs"));
            s.verifier
                .verify(&pres, &ctx(), &mut MemoryReplayGuard::new())
                .unwrap();
        }
        // Each verification worked under its own `grantor_verifier()`
        // clone. Two more clones hold one schedule between them only if
        // the stored key is the one that derived it.
        let clones = [(); 2].map(|()| s.verifier.resolver.grantor_verifier(&p("alice")));
        let [Some(GrantorVerifier::SharedKey(a)), Some(GrantorVerifier::SharedKey(b))] = clones
        else {
            panic!("alice is registered with a shared key");
        };
        assert!(a.shares_schedule_with(&b));
        assert!(!a.shares_schedule_with(&s.shared));
    }

    /// A two-link HMAC chain and its bearer presentation, recorded from
    /// the commit before keys kept their schedule (PR 22): the same
    /// seeded grant must produce these bytes (so what this build seals,
    /// that one verifies), and these bytes must verify here — HMAC seal,
    /// sealed proxy key and possession proof alike.
    #[test]
    fn a_chain_sealed_before_keys_kept_their_schedule_is_reproduced_and_verifies() {
        let golden: Vec<u8> = {
            let hex = "02000000a80000008300000070726f78792d6161206365727420763101000000\
             5229000000000000000a00000000000000e80300000000000000000000004c00\
             00003dfe4131b70896cd6fec6c98873fe062e619444cd25cdfb3089f76a7f2bf\
             2c7330053b2f2db16cad369fe9d2fa308f3792ea916f34ef6a39cdc292f6645b\
             c111972f8deeb545475b531598c80000d2ab525a68d754b3836b2749900add13\
             92bed0e563cc147aa1f7a6dc9f888ddaa80000008300000070726f78792d6161\
             206365727420763101000000522a000000000000000a00000000000000e80300\
             000000000000000000004c000000ac655bd0e8e6f6cde89b57b532aeabb13dab\
             f0f2a0624734da0b9bfc651ac6bdeb4c20bd5fdbf0352ff047773688c2fcf1db\
             5fcb06390781e8f652e4f1d4e2b852486a6d920eb731d42a30f3010036b18363\
             f64c0536d2aca9ba296ce6c57b09d7b2840328db4809c87e37d65ad500777777\
             7777777777777777777777777777777777777777777777777777777777200000\
             009c111b88c6efed6a93bbce31c347ddbdf349eb1104584eb1c5b0eb55a28abb\
             a1";
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        let key = SymmetricKey::from_bytes(std::array::from_fn(|i| {
            (i as u8).wrapping_mul(7).wrapping_add(3)
        }));
        let validity = Validity::new(Timestamp(10), Timestamp(1000));
        let mut rng = StdRng::seed_from_u64(0x5eed_0023);
        let proxy = grant(
            &p("R"),
            &GrantAuthority::SharedKey(key.clone()),
            RestrictionSet::new(),
            validity,
            41,
            &mut rng,
        )
        .derive(RestrictionSet::new(), validity, 42, &mut rng)
        .unwrap();
        assert_eq!(proxy.present_bearer([0x77; 32], &p("S")).encode(), golden);

        let verifier = Verifier::new(
            p("S"),
            MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(key)),
        );
        let ctx = RequestContext::new(p("S"), Operation::new("read"), ObjectName::new("file"))
            .at(Timestamp(10));
        let pres = Presentation::decode(&golden).unwrap();
        let verified = verifier
            .verify(&pres, &ctx, &mut MemoryReplayGuard::new())
            .unwrap();
        assert_eq!((verified.grantor, verified.chain_len), (p("R"), 2));
    }

    #[test]
    fn revoked_serial_rejected_unrevoked_accepted() {
        let mut s = symmetric_setup(77);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let dir = Arc::new(RevocationDirectory::new());
        let verifier = s.verifier.clone().with_revocation(dir.clone());
        let revoked = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            41,
            &mut s.rng,
        );
        let fine = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            42,
            &mut s.rng,
        );
        // Mirror a snapshot revoking serial 41 (seal already verified in
        // this unit's scope; directory applies verified artifacts).
        let artifact = crate::revocation::RevocationArtifact::seal(
            p("alice"),
            1,
            crate::revocation::ArtifactKind::Snapshot,
            [41u64].into_iter().collect(),
            &auth,
        );
        dir.apply_verified(&artifact).unwrap();
        let mut guard = MemoryReplayGuard::new();
        let pres = revoked.present_bearer([7u8; 32], &p("fs"));
        assert_eq!(
            verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::Revoked {
                index: 0,
                serial: 41
            })
        );
        let pres = fine.present_bearer([8u8; 32], &p("fs"));
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        // A verifier without the mirror still accepts the revoked serial —
        // revocation is strictly opt-in state, never ambient.
        let pres = revoked.present_bearer([9u8; 32], &p("fs"));
        assert!(s.verifier.verify(&pres, &ctx(), &mut guard).is_ok());
    }

    #[test]
    fn bearer_public_key_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        );
        let pres = proxy.present_bearer([7u8; 32], &p("fs"));
        let mut guard = MemoryReplayGuard::new();
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
    }

    #[test]
    fn unknown_grantor_rejected() {
        let mut s = symmetric_setup(3);
        let other_key = SymmetricKey::generate(&mut s.rng);
        let auth = GrantAuthority::SharedKey(other_key);
        let proxy = grant(
            &p("mallory"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([0u8; 32], &p("fs"));
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::UnknownGrantor(p("mallory")))
        );
    }

    #[test]
    fn forged_seal_rejected() {
        let mut s = symmetric_setup(4);
        // Mallory knows alice's name but not the shared key.
        let mallory_key = SymmetricKey::generate(&mut s.rng);
        let auth = GrantAuthority::SharedKey(mallory_key);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([0u8; 32], &p("fs"));
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
    }

    #[test]
    fn restriction_stripping_detected() {
        let mut s = symmetric_setup(5);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let restricted = RestrictionSet::new().with(Restriction::authorize_op(
            ObjectName::new("only-this"),
            Operation::new("read"),
        ));
        let proxy = grant(&p("alice"), &auth, restricted, window(), 1, &mut s.rng);
        let mut pres = proxy.present_bearer([0u8; 32], &p("fs"));
        // Attacker strips the restrictions from the certificate.
        pres.certs[0].restrictions = RestrictionSet::new();
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
    }

    #[test]
    fn expired_proxy_rejected() {
        let mut s = symmetric_setup(6);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            Validity::new(Timestamp(0), Timestamp(5)),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([0u8; 32], &p("fs"));
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard), // ctx.now = 10
            Err(VerifyError::NotValidAt {
                index: 0,
                now: Timestamp(10)
            })
        );
    }

    #[test]
    fn wrong_challenge_response_rejected() {
        let mut s = symmetric_setup(7);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let mut pres = proxy.present_bearer([1u8; 32], &p("fs"));
        // Server actually issued a different challenge: simulate by
        // swapping the challenge after the response was computed.
        if let Proof::Possession { challenge, .. } = &mut pres.proof {
            *challenge = [2u8; 32];
        }
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadPossession)
        );
    }

    #[test]
    fn presentation_bound_to_server() {
        // A response computed for server A must not verify at server B.
        let mut s = symmetric_setup(8);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres_for_other = proxy.present_bearer([1u8; 32], &p("other-server"));
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres_for_other, &ctx(), &mut guard),
            Err(VerifyError::BadPossession)
        );
    }

    #[test]
    fn bearer_without_possession_rejected() {
        let mut s = symmetric_setup(9);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_delegate(); // wrong: bearer needs PoP
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BearerRequiresPossession)
        );
    }

    #[test]
    fn delegate_requires_named_identity() {
        let mut s = symmetric_setup(10);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::grantee_one(p("bob"))),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_delegate();
        let mut guard = MemoryReplayGuard::new();
        // Unauthenticated: denied.
        assert!(matches!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::Denied(_))
        ));
        // Authenticated as carol: still denied.
        let carol_ctx = ctx().authenticated_as(p("carol"));
        assert!(matches!(
            s.verifier.verify(&pres, &carol_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
        // Authenticated as bob: accepted.
        let bob_ctx = ctx().authenticated_as(p("bob"));
        assert!(s.verifier.verify(&pres, &bob_ctx, &mut guard).is_ok());
    }

    #[test]
    fn bearer_cascade_verifies_and_restricts() {
        let mut s = symmetric_setup(11);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let child = parent
            .derive(
                RestrictionSet::new().with(Restriction::authorize_op(
                    ObjectName::new("file"),
                    Operation::new("read"),
                )),
                window(),
                2,
                &mut s.rng,
            )
            .unwrap();
        let mut guard = MemoryReplayGuard::new();
        // Allowed: matches the added restriction.
        let pres = child.present_bearer([3u8; 32], &p("fs"));
        let verified = s.verifier.verify(&pres, &ctx(), &mut guard).unwrap();
        assert_eq!(verified.chain_len, 2);
        // Denied: outside the added restriction.
        let mut write_ctx = ctx();
        write_ctx.operation = Operation::new("write");
        assert!(matches!(
            s.verifier.verify(&pres, &write_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
        // Crucially, the *parent* proxy still allows writes (restrictions
        // were added, not transformed).
        let parent_pres = parent.present_bearer([4u8; 32], &p("fs"));
        assert!(s
            .verifier
            .verify(&parent_pres, &write_ctx, &mut guard)
            .is_ok());
    }

    #[test]
    fn delegate_cascade_grants_subordinate_access() {
        let mut s = symmetric_setup(12);
        let alice_auth = GrantAuthority::SharedKey(s.shared.clone());
        // Alice grants a delegate proxy to the print server.
        let parent = grant(
            &p("alice"),
            &alice_auth,
            RestrictionSet::new().with(Restriction::grantee_one(p("print"))),
            window(),
            1,
            &mut s.rng,
        );
        // The print server passes it to the file server with its own
        // signature (audit trail).
        let print_shared = SymmetricKey::generate(&mut s.rng);
        let print_auth = GrantAuthority::SharedKey(print_shared.clone());
        let child = delegate_cascade(
            &parent.certs,
            &p("print"),
            &print_auth,
            p("fsworker"),
            RestrictionSet::new(),
            window(),
            2,
            &mut s.rng,
        )
        .unwrap();
        // End-server knows both alice's and print's keys.
        let resolver = MapResolver::new()
            .with(p("alice"), GrantorVerifier::SharedKey(s.shared.clone()))
            .with(p("print"), GrantorVerifier::SharedKey(print_shared));
        let verifier = Verifier::new(p("fs"), resolver);
        let pres = child.present_delegate();
        let mut guard = MemoryReplayGuard::new();
        // The subordinate authenticates as itself; the cascade makes it an
        // effective delegate of alice's proxy.
        let sub_ctx = ctx().authenticated_as(p("fsworker"));
        let verified = verifier.verify(&pres, &sub_ctx, &mut guard).unwrap();
        assert_eq!(verified.grantor, p("alice"));
        assert_eq!(verified.chain_len, 2);
        // Someone else authenticating cannot use the chain.
        let other_ctx = ctx().authenticated_as(p("intruder"));
        assert!(matches!(
            verifier.verify(&pres, &other_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
    }

    #[test]
    fn head_sealed_by_prior_key_rejected() {
        let mut s = symmetric_setup(13);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let child = parent
            .derive(RestrictionSet::new(), window(), 2, &mut s.rng)
            .unwrap();
        // Present only the tail link, pretending it is a whole chain.
        let mut pres = child.present_bearer([0u8; 32], &p("fs"));
        pres.certs.remove(0);
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::HeadNotGrantorSealed)
        );
    }

    #[test]
    fn empty_chain_rejected() {
        let s = symmetric_setup(14);
        let pres = Presentation {
            certs: vec![],
            proof: Proof::Identity,
        };
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::EmptyChain)
        );
    }

    #[test]
    fn eavesdropper_cannot_reuse_presentation() {
        // The attacker records a full presentation off the wire, then tries
        // to use the proxy with a *new* challenge from the server. Without
        // the proxy key it can only replay the old response, which fails.
        let mut s = symmetric_setup(15);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let recorded = proxy.present_bearer([10u8; 32], &p("fs"));
        let mut guard = MemoryReplayGuard::new();
        assert!(s.verifier.verify(&recorded, &ctx(), &mut guard).is_ok());
        // Fresh challenge from the server; attacker replays the old response.
        let Proof::Possession { response, .. } = &recorded.proof else {
            unreachable!()
        };
        let replayed = Presentation {
            certs: recorded.certs.clone(),
            proof: Proof::Possession {
                challenge: [11u8; 32],
                response: response.clone(),
            },
        };
        assert_eq!(
            s.verifier.verify(&replayed, &ctx(), &mut guard),
            Err(VerifyError::BadPossession)
        );
    }

    #[test]
    fn accept_once_enforced_through_verifier() {
        let mut s = symmetric_setup(16);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::AcceptOnce { id: 99 }),
            window(),
            1,
            &mut s.rng,
        );
        let mut guard = MemoryReplayGuard::new();
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(s.verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        // Second acceptance (even via a fresh presentation) is rejected.
        let pres2 = proxy.present_bearer([2u8; 32], &p("fs"));
        assert!(matches!(
            s.verifier.verify(&pres2, &ctx(), &mut guard),
            Err(VerifyError::Denied(
                crate::restriction::Denial::AlreadyAccepted { id: 99 }
            ))
        ));
    }

    #[test]
    fn public_key_cascade_round_trip() {
        let mut rng = StdRng::seed_from_u64(17);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let parent = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        );
        let child = parent
            .derive(
                RestrictionSet::new().with(Restriction::issued_for_one(p("fs"))),
                window(),
                2,
                &mut rng,
            )
            .unwrap();
        let grandchild = child
            .derive(RestrictionSet::new(), window(), 3, &mut rng)
            .unwrap();
        let pres = grandchild.present_bearer([5u8; 32], &p("fs"));
        let mut guard = MemoryReplayGuard::new();
        let verified = verifier.verify(&pres, &ctx(), &mut guard).unwrap();
        assert_eq!(verified.chain_len, 3);
    }

    #[test]
    fn issued_for_blocks_other_servers() {
        let mut rng = StdRng::seed_from_u64(18);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        // Same resolver at two servers (public keys are universal — exactly
        // the §7.3 concern).
        let fs = Verifier::new(p("fs"), resolver.clone());
        let mail = Verifier::new(p("mail"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::issued_for_one(p("fs"))),
            window(),
            1,
            &mut rng,
        );
        let mut guard = MemoryReplayGuard::new();
        let pres_fs = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(fs.verify(&pres_fs, &ctx(), &mut guard).is_ok());
        let pres_mail = proxy.present_bearer([1u8; 32], &p("mail"));
        let mut mail_ctx = ctx();
        mail_ctx.server = p("mail");
        assert!(matches!(
            mail.verify(&pres_mail, &mail_ctx, &mut guard),
            Err(VerifyError::Denied(_))
        ));
    }

    #[test]
    fn mismatched_seal_flavor_rejected() {
        let mut s = symmetric_setup(19);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        );
        let mut pres = proxy.present_bearer([1u8; 32], &p("fs"));
        // Replace the HMAC seal with an Ed25519 signature: the resolver
        // says alice uses a shared key, so the flavors cannot line up.
        let sk = SigningKey::generate(&mut s.rng);
        pres.certs[0].seal = CertSeal::Ed25519(sk.sign(b"x"));
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::FlavorMismatch { index: 0 })
        );
    }

    /// Seal flavour and key flavour must agree on every arm of the chain
    /// walk: a grantor's key at the head, the prior proxy key on a bearer
    /// cascade, an intermediate's key on a delegate cascade. The other
    /// flavour's seal is a mismatch at its own index, whatever it holds,
    /// and nothing about the chain reaches the seal cache.
    #[test]
    fn a_seal_of_the_other_flavour_is_a_mismatch_at_every_kind_of_link() {
        let mut rng = StdRng::seed_from_u64(28);
        let [alice_sk, print_sk, forger] = [(); 3].map(|()| SigningKey::generate(&mut rng));
        let [alice_k, print_k] = [(); 2].map(|()| SymmetricKey::generate(&mut rng));
        let flavours = [
            (
                GrantAuthority::Keypair(alice_sk.clone()),
                GrantAuthority::Keypair(print_sk.clone()),
                MapResolver::new()
                    .with(
                        p("alice"),
                        GrantorVerifier::PublicKey(alice_sk.verifying_key()),
                    )
                    .with(
                        p("print"),
                        GrantorVerifier::PublicKey(print_sk.verifying_key()),
                    ),
                CertSeal::Hmac([0u8; 32]),
            ),
            (
                GrantAuthority::SharedKey(alice_k.clone()),
                GrantAuthority::SharedKey(print_k.clone()),
                MapResolver::new()
                    .with(p("alice"), GrantorVerifier::SharedKey(alice_k))
                    .with(p("print"), GrantorVerifier::SharedKey(print_k)),
                CertSeal::Ed25519(forger.sign(b"x")),
            ),
        ];
        let sub_ctx = ctx().authenticated_as(p("fsworker"));
        for (alice, print, resolver, other_seal) in flavours {
            let head = grant(
                &p("alice"),
                &alice,
                RestrictionSet::new(),
                window(),
                1,
                &mut rng,
            );
            let bearer = head
                .derive(RestrictionSet::new(), window(), 2, &mut rng)
                .unwrap();
            let to_print = grant(
                &p("alice"),
                &alice,
                RestrictionSet::new().with(Restriction::grantee_one(p("print"))),
                window(),
                3,
                &mut rng,
            );
            let delegate = delegate_cascade(
                &to_print.certs,
                &p("print"),
                &print,
                p("fsworker"),
                RestrictionSet::new(),
                window(),
                4,
                &mut rng,
            )
            .unwrap();
            let cases = [
                (head.present_bearer([1u8; 32], &p("fs")), 0),
                (bearer.present_bearer([2u8; 32], &p("fs")), 1),
                (delegate.present_delegate(), 1),
            ];
            for (honest, index) in cases {
                let case = format!("{other_seal:?} at link {index} of {}", honest.certs.len());
                let verifier = || Verifier::new(p("fs"), resolver.clone()).with_seal_cache(64);
                let mut guard = MemoryReplayGuard::new();
                assert!(
                    verifier().verify(&honest, &sub_ctx, &mut guard).is_ok(),
                    "{case}"
                );
                let mut swapped = honest;
                swapped.certs[index].seal = other_seal.clone();
                let verifier = verifier();
                assert_eq!(
                    verifier.verify(&swapped, &sub_ctx, &mut guard),
                    Err(VerifyError::FlavorMismatch { index }),
                    "{case}"
                );
                assert_eq!(verifier.seal_cache().unwrap().len(), 0, "{case}");
            }
        }
    }

    #[test]
    fn verification_works_on_decoded_wire_presentations() {
        let mut s = symmetric_setup(20);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut s.rng,
        )
        .derive(RestrictionSet::new(), window(), 2, &mut s.rng)
        .unwrap();
        let wire = proxy.present_bearer([2u8; 32], &p("fs")).encode();
        let decoded = crate::present::Presentation::decode(&wire).unwrap();
        let mut guard = MemoryReplayGuard::new();
        assert!(s.verifier.verify(&decoded, &ctx(), &mut guard).is_ok());
    }

    #[test]
    fn grantee_concurrence_required_at_verification() {
        // required = 2 delegates must be authenticated together.
        let mut s = symmetric_setup(21);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::Grantee {
                delegates: vec![p("bob"), p("carol")],
                required: 2,
            }),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_delegate();
        let mut guard = MemoryReplayGuard::new();
        let one = ctx().authenticated_as(p("bob"));
        assert!(matches!(
            s.verifier.verify(&pres, &one, &mut guard),
            Err(VerifyError::Denied(_))
        ));
        let both = ctx()
            .authenticated_as(p("bob"))
            .authenticated_as(p("carol"));
        assert!(s.verifier.verify(&pres, &both, &mut guard).is_ok());
    }

    #[test]
    fn cached_verifier_round_trips_and_records_hits() {
        let mut rng = StdRng::seed_from_u64(23);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver).with_seal_cache(64);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        )
        .derive(RestrictionSet::new(), window(), 2, &mut rng)
        .unwrap();
        let mut guard = MemoryReplayGuard::new();
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        let cache = verifier.seal_cache().unwrap();
        assert_eq!(cache.len(), 2, "both chain links cached");
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (0, 2));
        // Re-presentation with a fresh challenge: both seals hit.
        let pres2 = proxy.present_bearer([2u8; 32], &p("fs"));
        assert!(verifier.verify(&pres2, &ctx(), &mut guard).is_ok());
        assert_eq!(cache.stats(), (2, 2));
    }

    #[test]
    fn cached_verifier_still_rejects_tampering() {
        let mut rng = StdRng::seed_from_u64(24);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver).with_seal_cache(64);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::authorize_op(
                ObjectName::new("file"),
                Operation::new("read"),
            )),
            window(),
            1,
            &mut rng,
        );
        let mut guard = MemoryReplayGuard::new();
        // Warm the cache with the honest certificate.
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        assert!(verifier.verify(&pres, &ctx(), &mut guard).is_ok());
        // A stripped variant is a different body, so a different digest:
        // the cache cannot vouch for it and the seal check fails.
        let mut stripped = proxy.present_bearer([2u8; 32], &p("fs"));
        stripped.certs[0].restrictions = RestrictionSet::new();
        assert_eq!(
            verifier.verify(&stripped, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
    }

    #[test]
    fn bad_link_in_batched_chain_blames_its_index() {
        let mut rng = StdRng::seed_from_u64(25);
        let sk = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let verifier = Verifier::new(p("fs"), resolver);
        let auth = GrantAuthority::Keypair(sk);
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        )
        .derive(RestrictionSet::new(), window(), 2, &mut rng)
        .unwrap()
        .derive(RestrictionSet::new(), window(), 3, &mut rng)
        .unwrap();
        let mut pres = proxy.present_bearer([3u8; 32], &p("fs"));
        // Corrupt the middle link's serial: the batched seal check must
        // fail and attribute the failure to index 1.
        pres.certs[1].serial ^= 1;
        let mut guard = MemoryReplayGuard::new();
        assert_eq!(
            verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::BadSeal { index: 1 })
        );
    }

    /// Every way a depth-4 Ed25519 cascade can fail its seals and its
    /// proof at once, cold and warm. The seals and the possession proof
    /// are settled as one equation, and none of that may show: a forged
    /// seal is blamed at its chain index before anything is said about
    /// the proof, and seals that hold are cached whatever the proof does.
    #[test]
    fn forged_seal_and_bad_proof_matrix_on_a_depth4_cascade() {
        let mut rng = StdRng::seed_from_u64(26);
        let sk = SigningKey::generate(&mut rng);
        let forger = SigningKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()));
        let auth = GrantAuthority::Keypair(sk);
        let mut proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new(),
            window(),
            1,
            &mut rng,
        );
        for serial in 2..=4 {
            proxy = proxy
                .derive(RestrictionSet::new(), window(), serial, &mut rng)
                .unwrap();
        }
        let honest = proxy.present_bearer([4u8; 32], &p("fs"));
        assert_eq!(honest.certs.len(), 4);
        let thief = crate::proxy::Proxy {
            certs: proxy.certs.clone(),
            key: GrantAuthority::Keypair(SigningKey::generate(&mut rng)),
        };
        let Proof::Possession {
            challenge,
            response,
        } = honest.proof.clone()
        else {
            unreachable!()
        };
        let proofs = [
            (honest.proof.clone(), Ok(())),
            (
                thief.present_bearer(challenge, &p("fs")).proof,
                Err(VerifyError::BadPossession),
            ),
            (
                Proof::Possession {
                    challenge,
                    response: response[..63].to_vec(),
                },
                Err(VerifyError::BadPossession),
            ),
            (Proof::Identity, Err(VerifyError::BearerRequiresPossession)),
        ];
        // Cold: every seal is pending when the proof arrives. Warm: the
        // honest links hit the seal cache, so a forged one is pending
        // alone or with the proof — the blame must still be its chain
        // index, not its place in the batch.
        for warm in [false, true] {
            for (proof, proof_verdict) in &proofs {
                for forged_at in [None, Some(0), Some(1), Some(2), Some(3)] {
                    let verifier = Verifier::new(p("fs"), resolver.clone()).with_seal_cache(64);
                    let cache = verifier.seal_cache().unwrap();
                    let mut guard = MemoryReplayGuard::new();
                    if warm {
                        assert!(verifier.verify(&honest, &ctx(), &mut guard).is_ok());
                    }
                    let cached_before = cache.len();
                    let mut pres = honest.clone();
                    pres.proof = proof.clone();
                    if let Some(k) = forged_at {
                        let body = pres.certs[k].body_bytes();
                        pres.certs[k].seal = CertSeal::Ed25519(forger.sign(&body));
                    }
                    let expect = match forged_at {
                        Some(index) => Err(VerifyError::BadSeal { index }),
                        None => proof_verdict.clone(),
                    };
                    let case = format!("warm={warm} proof={proof:?} forged_at={forged_at:?}");
                    assert_eq!(
                        verifier.verify(&pres, &ctx(), &mut guard).map(|_| ()),
                        expect,
                        "{case}"
                    );
                    // A forged seal caches nothing; four good seals are
                    // cached even under a proof that fails.
                    let cached = if forged_at.is_some() {
                        cached_before
                    } else {
                        4
                    };
                    assert_eq!(cache.len(), cached, "{case}");
                    let (hits, misses) = cache.stats();
                    let looked_up = if warm { 8 } else { 4 };
                    assert_eq!(hits + misses, looked_up, "{case}");
                }
            }
        }
    }

    #[test]
    fn symmetric_proof_failure_is_reported_after_a_forged_ed25519_seal() {
        // A chain may mix flavours: alice seals with Ed25519, and the
        // end-server shares a key with the delegate "print", whose cascade
        // link carries a symmetric proxy key. The HMAC proof is checked
        // while alice's seal is still pending; its failure must wait for
        // the seal's verdict.
        let mut rng = StdRng::seed_from_u64(27);
        let sk = SigningKey::generate(&mut rng);
        let forger = SigningKey::generate(&mut rng);
        let print_shared = SymmetricKey::generate(&mut rng);
        let resolver = MapResolver::new()
            .with(p("alice"), GrantorVerifier::PublicKey(sk.verifying_key()))
            .with(p("print"), GrantorVerifier::SharedKey(print_shared.clone()));
        let verifier = Verifier::new(p("fs"), resolver).with_seal_cache(64);
        let parent = grant(
            &p("alice"),
            &GrantAuthority::Keypair(sk),
            RestrictionSet::new().with(Restriction::grantee_one(p("print"))),
            window(),
            1,
            &mut rng,
        );
        let child = delegate_cascade(
            &parent.certs,
            &p("print"),
            &GrantAuthority::SharedKey(print_shared),
            p("fsworker"),
            RestrictionSet::new(),
            window(),
            2,
            &mut rng,
        )
        .unwrap();
        let sub_ctx = ctx().authenticated_as(p("fsworker"));
        let mut guard = MemoryReplayGuard::new();
        let mut pres = child.present_bearer([1u8; 32], &p("fs"));
        if let Proof::Possession { response, .. } = &mut pres.proof {
            response[0] ^= 1;
        }
        let mut forged = pres.clone();
        let body = forged.certs[0].body_bytes();
        forged.certs[0].seal = CertSeal::Ed25519(forger.sign(&body));
        assert_eq!(
            verifier.verify(&forged, &sub_ctx, &mut guard),
            Err(VerifyError::BadSeal { index: 0 })
        );
        assert_eq!(verifier.seal_cache().unwrap().len(), 0);
        assert_eq!(
            verifier.verify(&pres, &sub_ctx, &mut guard),
            Err(VerifyError::BadPossession)
        );
        assert_eq!(verifier.seal_cache().unwrap().len(), 1, "alice's seal held");
        let good = child.present_bearer([2u8; 32], &p("fs"));
        assert!(verifier.verify(&good, &sub_ctx, &mut guard).is_ok());
    }

    #[test]
    fn stateless_verifiers_refuse_accept_once_proxies() {
        // A verifier that cannot keep replay state must reject accept-once
        // proxies outright rather than accept them unsafely.
        let mut s = symmetric_setup(22);
        let auth = GrantAuthority::SharedKey(s.shared.clone());
        let proxy = grant(
            &p("alice"),
            &auth,
            RestrictionSet::new().with(Restriction::AcceptOnce { id: 1 }),
            window(),
            1,
            &mut s.rng,
        );
        let pres = proxy.present_bearer([1u8; 32], &p("fs"));
        let mut guard = crate::replay::RejectAcceptOnce;
        assert!(matches!(
            s.verifier.verify(&pres, &ctx(), &mut guard),
            Err(VerifyError::Denied(
                crate::restriction::Denial::AlreadyAccepted { .. }
            ))
        ));
    }
}
