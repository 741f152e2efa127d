//! End-server authorization decisions: local ACL + presented proxies
//! (§3.5: "application servers can easily combine the benefits of
//! access-control-lists and capability-based authorization mechanisms").

use std::sync::Arc;

use proxy_storage::artifacts::StoredArtifact;
use proxy_storage::{ArtifactStore, Storage};
use restricted_proxy::cache::VerifiedCertCache;
use restricted_proxy::context::RequestContext;
use restricted_proxy::key::KeyResolver;
use restricted_proxy::membership::{MembershipAnswer, MembershipArtifact, MembershipDirectory};
use restricted_proxy::present::Presentation;
use restricted_proxy::principal::{GroupName, PrincipalId};
use restricted_proxy::replay::ReplayCache;
use restricted_proxy::restriction::{Currency, ObjectName, Operation, Restriction};
use restricted_proxy::revocation::{ArtifactError, RevocationArtifact, RevocationDirectory};
use restricted_proxy::time::Timestamp;
use restricted_proxy::verify::{VerifiedProxy, Verifier};

use crate::acl::{AclEntry, AclStore, AclSubject, ClaimSet};
use crate::error::AuthzError;

/// A request as an end-server sees it.
#[derive(Clone, Debug)]
pub struct Request {
    /// Operation being requested.
    pub operation: Operation,
    /// Target object.
    pub object: ObjectName,
    /// Principals authenticated through the authentication substrate.
    pub authenticated: Vec<PrincipalId>,
    /// Proxies presented with the request (capabilities, authorization
    /// proxies, group proxies — any mix).
    pub presentations: Vec<Presentation>,
    /// Current time.
    pub now: Timestamp,
    /// Resources the operation would consume.
    pub amounts: Vec<(Currency, u64)>,
}

impl Request {
    /// A minimal request with no credentials attached.
    #[must_use]
    pub fn new(operation: Operation, object: ObjectName, now: Timestamp) -> Self {
        Self {
            operation,
            object,
            authenticated: Vec::new(),
            presentations: Vec::new(),
            now,
            amounts: Vec::new(),
        }
    }

    /// Adds an authenticated principal.
    #[must_use]
    pub fn authenticated_as(mut self, p: PrincipalId) -> Self {
        self.authenticated.push(p);
        self
    }

    /// Attaches a proxy presentation.
    #[must_use]
    pub fn with_presentation(mut self, pres: Presentation) -> Self {
        self.presentations.push(pres);
        self
    }

    /// Records a resource demand.
    #[must_use]
    pub fn consuming(mut self, currency: Currency, amount: u64) -> Self {
        self.amounts.push((currency, amount));
        self
    }
}

/// A successful authorization decision.
#[derive(Clone, Debug)]
pub struct Authorized {
    /// The claims that satisfied the ACL (authenticated identities plus
    /// verified proxy grantors, and proven groups).
    pub claims: ClaimSet,
    /// A copy of the entry that matched.
    pub entry: AclEntry,
}

/// An end-server combining a local ACL store with proxy verification.
///
/// The decision path ([`Self::authorize`]) takes `&self`: the verifier,
/// its lock-striped seal cache, and the lock-striped replay cache are all
/// shared-reference safe, so one `EndServer` serves every worker thread.
/// Policy edits go through the public [`Self::acls`] field and therefore
/// require `&mut self` — exclusive by construction (DESIGN.md §9).
#[derive(Debug)]
pub struct EndServer<R> {
    verifier: Verifier<R>,
    /// Per-object ACLs (public so operators can edit policy directly).
    pub acls: AclStore,
    replay: ReplayCache,
    /// Local mirror of issuers' revoked-serial sets; consulted on every
    /// certificate by the verifier (O(1) probe, zero round trips). Empty
    /// until artifacts are applied — absent data revokes nothing.
    revocations: Arc<RevocationDirectory>,
    /// Local mirror of group memberships; lets ACL `Group` entries be
    /// satisfied by an authenticated identity without a group proxy or a
    /// group-server round trip.
    memberships: Arc<MembershipDirectory>,
    /// Durable home for verified revocation/membership artifacts: the
    /// mirrors' epochs survive a restart without an issuer round trip.
    artifacts: Option<ArtifactStore<Arc<dyn Storage>>>,
}

impl<R: KeyResolver> EndServer<R> {
    /// Default capacity of the verified-seal cache: requests re-present the
    /// same proxy chains, so re-checking their Ed25519 seals is the first
    /// cost worth memoizing.
    pub const SEAL_CACHE_CAPACITY: usize = 1024;

    /// Creates an end-server named `name` that resolves grantor keys via
    /// `resolver`. Seal checks are cached ([`Self::SEAL_CACHE_CAPACITY`]
    /// entries); only signature validity is memoized — replay guards,
    /// validity windows, and possession proofs run on every request.
    pub fn new(name: PrincipalId, resolver: R) -> Self {
        let revocations = Arc::new(RevocationDirectory::new());
        Self {
            verifier: Verifier::new(name, resolver)
                .with_seal_cache(Self::SEAL_CACHE_CAPACITY)
                .with_revocation(revocations.clone()),
            acls: AclStore::new(),
            replay: ReplayCache::new(),
            revocations,
            memberships: Arc::new(MembershipDirectory::new()),
            artifacts: None,
        }
    }

    /// Attaches a durable artifact store and replays every artifact it
    /// holds through the normal verify-and-apply path, so the
    /// revocation and membership mirrors resume at their pre-restart
    /// epochs with zero issuer round trips. A revoked serial therefore
    /// stays revoked across a restart even when the issuer is offline.
    ///
    /// Stored artifacts get no trust from having been stored: each seal
    /// is re-verified on the way in, so a tampered store can only cause
    /// a refused artifact (fail closed), never a forged epoch.
    ///
    /// The resolver must already know the issuers whose artifacts were
    /// stored — construct the server with its full resolver first.
    ///
    /// # Errors
    ///
    /// [`AuthzError::Storage`] if the store cannot be read,
    /// [`AuthzError::Artifact`] if a stored artifact no longer decodes
    /// or verifies.
    pub fn with_artifact_store(mut self, store: Arc<dyn Storage>) -> Result<Self, AuthzError> {
        let artifacts = ArtifactStore::new(store);
        for stored in artifacts.load().map_err(AuthzError::Storage)? {
            // `self.artifacts` is still `None`, so replayed artifacts
            // are not re-recorded (the store would otherwise double on
            // every restart).
            match stored {
                StoredArtifact::Revocation(bytes) => {
                    let artifact = RevocationArtifact::decode(&bytes)
                        .map_err(|e| AuthzError::Artifact(ArtifactError::Decode(e)))?;
                    self.apply_revocation(&artifact)?;
                }
                StoredArtifact::Membership(bytes) => {
                    let artifact = MembershipArtifact::decode(&bytes)
                        .map_err(|e| AuthzError::Artifact(ArtifactError::Decode(e)))?;
                    self.apply_membership(&artifact)?;
                }
            }
        }
        self.artifacts = Some(artifacts);
        Ok(self)
    }

    /// The server's principal name.
    #[must_use]
    pub fn name(&self) -> &PrincipalId {
        self.verifier.server()
    }

    /// The verifier's seal cache, for instrumentation.
    #[must_use]
    pub fn seal_cache(&self) -> Option<&VerifiedCertCache> {
        self.verifier.seal_cache()
    }

    /// The local revocation mirror, for instrumentation and epoch sync.
    #[must_use]
    pub fn revocation_directory(&self) -> &Arc<RevocationDirectory> {
        &self.revocations
    }

    /// The local membership mirror, for instrumentation and epoch sync.
    #[must_use]
    pub fn membership_directory(&self) -> &Arc<MembershipDirectory> {
        &self.memberships
    }

    /// Verifies and applies a revocation artifact. The seal must check
    /// out under the claimed issuer's resolved key material and the
    /// epoch must advance (snapshot) or extend the exact mirrored epoch
    /// (delta); anything else is rejected and the last good state keeps
    /// being enforced.
    ///
    /// # Errors
    ///
    /// [`AuthzError::Artifact`] on unknown issuer, bad seal, epoch
    /// regression, or delta-base mismatch; [`AuthzError::Storage`] when
    /// the artifact verified and applied but could not be persisted.
    pub fn apply_revocation(&self, artifact: &RevocationArtifact) -> Result<(), AuthzError> {
        self.revocations
            .apply_sealed(artifact, self.verifier.resolver())?;
        if let Some(store) = &self.artifacts {
            store.record(&StoredArtifact::Revocation(artifact.encode()))?;
        }
        Ok(())
    }

    /// Verifies and applies a membership artifact; same fail-closed
    /// discipline as [`Self::apply_revocation`], with the group server
    /// (`artifact.group.server`) as the only acceptable sealer.
    ///
    /// # Errors
    ///
    /// [`AuthzError::Artifact`] on unknown issuer, bad seal, epoch
    /// regression, or delta-base mismatch; [`AuthzError::Storage`] when
    /// the artifact verified and applied but could not be persisted.
    pub fn apply_membership(&self, artifact: &MembershipArtifact) -> Result<(), AuthzError> {
        self.memberships
            .apply_sealed(artifact, self.verifier.resolver())?;
        if let Some(store) = &self.artifacts {
            store.record(&StoredArtifact::Membership(artifact.encode()))?;
        }
        Ok(())
    }

    /// Decides a request.
    ///
    /// Verification happens in two passes: group proxies first (their
    /// proven memberships feed `for-use-by-group` checks in the second
    /// pass), then everything else. Verified grantors become claimable
    /// identities; the local ACL then decides (§3.5).
    ///
    /// # Errors
    ///
    /// [`AuthzError::NotAuthorized`] when no entry matches; verification
    /// failures of *all* presented proxies surface as the last
    /// [`AuthzError::Verify`] only when nothing else matched.
    pub fn authorize(&self, req: &Request) -> Result<Authorized, AuthzError> {
        let mut replay = &self.replay;
        let mut ctx = RequestContext::new(
            self.verifier.server().clone(),
            req.operation.clone(),
            req.object.clone(),
        )
        .at(req.now);
        ctx.authenticated = req.authenticated.clone();
        ctx.amounts = req.amounts.clone();

        let mut claims = ClaimSet {
            principals: req.authenticated.clone(),
            groups: Vec::new(),
        };
        let mut last_error: Option<AuthzError> = None;

        // Pass 0: the local membership mirror proves groups for the
        // authenticated identities — zero group-server round trips. Only
        // groups this object's ACL actually names are probed, and only a
        // mirrored `Member` answer adds a claim (`Unknown` stays a
        // non-claim: the requester can still present a group proxy).
        // Running before proxy verification lets `for-use-by-group`
        // restrictions see mirror-proven groups too.
        let acl = self.acls.acl_for(&req.object);
        for entry in acl.iter() {
            let named: &[GroupName] = match &entry.subject {
                AclSubject::Group(g) => std::slice::from_ref(g),
                AclSubject::Principal(_) | AclSubject::Compound(_) | AclSubject::Anyone => &[],
            };
            for g in named {
                if claims.groups.contains(g) {
                    continue;
                }
                let proven = req.authenticated.iter().any(|principal| {
                    self.memberships.assert(g, principal) == MembershipAnswer::Member
                });
                if proven {
                    claims.groups.push(g.clone());
                    ctx.asserted_groups.push(g.clone());
                }
            }
        }

        // Pass 1: group proxies prove memberships.
        let (group_proxies, other_proxies): (Vec<_>, Vec<_>) = req
            .presentations
            .iter()
            .partition(|p| is_group_presentation(p));
        for pres in group_proxies {
            match self.verifier.verify(pres, &ctx, &mut replay) {
                Ok(verified) => claim_asserted_groups(&verified, &mut claims, &mut ctx),
                Err(e) => last_error = Some(e.into()),
            }
        }

        // Pass 2: remaining proxies confer their grantors' identities.
        for pres in other_proxies {
            match self.verifier.verify(pres, &ctx, &mut replay) {
                Ok(verified) => {
                    if !claims.principals.contains(&verified.grantor) {
                        claims.principals.push(verified.grantor);
                    }
                }
                Err(e) => last_error = Some(e.into()),
            }
        }

        // Local ACL decides.
        match acl.find_match(&claims, &req.operation) {
            Some(entry) => {
                // ACL-entry restrictions apply to the request too (§3.5).
                entry
                    .rights
                    .restrictions
                    .evaluate(&ctx, self.verifier.server(), Timestamp::MAX, &mut replay)
                    .map_err(restricted_proxy::error::VerifyError::Denied)?;
                Ok(Authorized {
                    claims,
                    entry: entry.clone(),
                })
            }
            None => Err(last_error.unwrap_or(AuthzError::NotAuthorized {
                operation: req.operation.clone(),
                object: req.object.clone(),
            })),
        }
    }
}

fn is_group_presentation(pres: &Presentation) -> bool {
    pres.certs.iter().any(|c| {
        c.restrictions
            .iter()
            .any(|r| matches!(r, Restriction::GroupMembership { .. }))
    })
}

/// Adds the groups `verified` asserts membership of to `claims` and to
/// `ctx`: those a `group-membership` restriction names on its grantor's
/// own server, and no others (§7.6).
pub(crate) fn claim_asserted_groups(
    verified: &VerifiedProxy,
    claims: &mut ClaimSet,
    ctx: &mut RequestContext,
) {
    for r in verified.restrictions.iter() {
        let groups = match r {
            Restriction::GroupMembership { groups } => groups,
            // No other restriction asserts membership. Enumerated (not
            // `_`) so a new Restriction variant forces an explicit
            // decision here (§7.9).
            Restriction::Grantee { .. }
            | Restriction::ForUseByGroup { .. }
            | Restriction::IssuedFor { .. }
            | Restriction::Quota { .. }
            | Restriction::Authorized { .. }
            | Restriction::AcceptOnce { .. }
            | Restriction::LimitRestriction { .. } => continue,
        };
        for g in groups.iter().filter(|g| g.server == verified.grantor) {
            if !claims.groups.contains(g) {
                claims.groups.push(g.clone());
                ctx.asserted_groups.push(g.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Acl, AclRights, AclSubject};
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::key::{GrantAuthority, GrantorVerifier, MapResolver};
    use restricted_proxy::proxy::grant;
    use restricted_proxy::restriction::RestrictionSet;
    use restricted_proxy::time::Validity;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn op(name: &str) -> Operation {
        Operation::new(name)
    }

    fn obj(name: &str) -> ObjectName {
        ObjectName::new(name)
    }

    #[test]
    fn local_acl_alone_authorizes() {
        let mut server = EndServer::new(p("fs"), MapResolver::new());
        server.acls.set(
            obj("file1"),
            Acl::new().with(
                AclSubject::Principal(p("alice")),
                AclRights::ops(vec![op("read")]),
            ),
        );
        let req = Request::new(op("read"), obj("file1"), Timestamp(1)).authenticated_as(p("alice"));
        assert!(server.authorize(&req).is_ok());
        let req =
            Request::new(op("write"), obj("file1"), Timestamp(1)).authenticated_as(p("alice"));
        assert!(matches!(
            server.authorize(&req),
            Err(AuthzError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn capability_proxy_confers_grantor_rights() {
        let mut rng = StdRng::seed_from_u64(1);
        let shared = SymmetricKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared.clone()));
        let mut server = EndServer::new(p("fs"), resolver);
        server.acls.set(
            obj("file1"),
            Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
        );
        // Alice issues a read capability; bob (not on the ACL) presents it.
        let cap = grant(
            &p("alice"),
            &GrantAuthority::SharedKey(shared),
            RestrictionSet::new().with(Restriction::authorize_op(obj("file1"), op("read"))),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        let pres = cap.present_bearer([1u8; 32], &p("fs"));
        let req = Request::new(op("read"), obj("file1"), Timestamp(1))
            .authenticated_as(p("bob"))
            .with_presentation(pres.clone());
        let authorized = server.authorize(&req).unwrap();
        assert!(authorized.claims.principals.contains(&p("alice")));
        // The capability does not allow writes.
        let req = Request::new(op("write"), obj("file1"), Timestamp(1))
            .authenticated_as(p("bob"))
            .with_presentation(pres);
        assert!(server.authorize(&req).is_err());
    }

    #[test]
    fn group_proxy_satisfies_group_entry() {
        let mut rng = StdRng::seed_from_u64(2);
        let gs_key = SymmetricKey::generate(&mut rng);
        let resolver = MapResolver::new().with(p("gs"), GrantorVerifier::SharedKey(gs_key.clone()));
        let mut server = EndServer::new(p("fs"), resolver);
        let staff = GroupName::new(p("gs"), "staff");
        server.acls.set(
            obj("wiki"),
            Acl::new().with(AclSubject::Group(staff.clone()), AclRights::all()),
        );
        // The group server grants bob a delegate membership proxy.
        let membership = grant(
            &p("gs"),
            &GrantAuthority::SharedKey(gs_key),
            RestrictionSet::new()
                .with(Restriction::grantee_one(p("bob")))
                .with(Restriction::GroupMembership {
                    groups: vec![staff],
                }),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        let req = Request::new(op("edit"), obj("wiki"), Timestamp(1))
            .authenticated_as(p("bob"))
            .with_presentation(membership.present_delegate());
        let authorized = server.authorize(&req).unwrap();
        assert_eq!(authorized.claims.groups.len(), 1);
        // Carol cannot use bob's delegate membership proxy.
        let req = Request::new(op("edit"), obj("wiki"), Timestamp(1))
            .authenticated_as(p("carol"))
            .with_presentation(membership.present_delegate());
        assert!(server.authorize(&req).is_err());
    }

    #[test]
    fn revoking_grantor_kills_capabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let shared = SymmetricKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared.clone()));
        let mut server = EndServer::new(p("fs"), resolver);
        server.acls.set(
            obj("file1"),
            Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
        );
        let cap = grant(
            &p("alice"),
            &GrantAuthority::SharedKey(shared),
            RestrictionSet::new().with(Restriction::authorize_op(obj("file1"), op("read"))),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        let pres = cap.present_bearer([1u8; 32], &p("fs"));
        let req =
            Request::new(op("read"), obj("file1"), Timestamp(1)).with_presentation(pres.clone());
        assert!(server.authorize(&req).is_ok());
        // §3.1: revoke by changing the access rights of the grantor.
        server
            .acls
            .acl_mut(obj("file1"))
            .remove_principal(&p("alice"));
        assert!(
            server.authorize(&req).is_err(),
            "capability revoked with grantor"
        );
    }

    #[test]
    fn applied_revocation_artifact_kills_capability() {
        use restricted_proxy::revocation::{ArtifactKind, RevocationArtifact};
        let mut rng = StdRng::seed_from_u64(21);
        let shared = SymmetricKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared.clone()));
        let mut server = EndServer::new(p("fs"), resolver);
        server.acls.set(
            obj("file1"),
            Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
        );
        let authority = GrantAuthority::SharedKey(shared);
        let cap = grant(
            &p("alice"),
            &authority,
            RestrictionSet::new().with(Restriction::authorize_op(obj("file1"), op("read"))),
            Validity::new(Timestamp(0), Timestamp(100)),
            7,
            &mut rng,
        );
        let req = Request::new(op("read"), obj("file1"), Timestamp(1))
            .with_presentation(cap.present_bearer([1u8; 32], &p("fs")));
        assert!(server.authorize(&req).is_ok());
        // Alice revokes serial 7 explicitly; the end-server applies the
        // sealed artifact and the capability dies mid-validity.
        let artifact = RevocationArtifact::seal(
            p("alice"),
            1,
            ArtifactKind::Snapshot,
            [7u64].into_iter().collect(),
            &authority,
        );
        server.apply_revocation(&artifact).unwrap();
        let req = Request::new(op("read"), obj("file1"), Timestamp(1))
            .with_presentation(cap.present_bearer([2u8; 32], &p("fs")));
        assert!(matches!(
            server.authorize(&req),
            Err(AuthzError::Verify(
                restricted_proxy::error::VerifyError::Revoked { serial: 7, .. }
            ))
        ));
    }

    #[test]
    fn membership_mirror_satisfies_group_acl_without_proxy() {
        use restricted_proxy::epoch::ArtifactKind;
        use restricted_proxy::membership::{member_digest, MembershipArtifact};
        let mut rng = StdRng::seed_from_u64(22);
        let gs_key = SymmetricKey::generate(&mut rng);
        let resolver = MapResolver::new().with(p("gs"), GrantorVerifier::SharedKey(gs_key.clone()));
        let mut server = EndServer::new(p("fs"), resolver);
        let staff = GroupName::new(p("gs"), "staff");
        server.acls.set(
            obj("wiki"),
            Acl::new().with(AclSubject::Group(staff.clone()), AclRights::all()),
        );
        // Bob is authenticated but presents no group proxy: denied while
        // no mirror exists (Unknown never grants).
        let req = Request::new(op("edit"), obj("wiki"), Timestamp(1)).authenticated_as(p("bob"));
        assert!(server.authorize(&req).is_err());
        // The group server's sealed snapshot lands; bob's assert is now
        // answered locally with zero round trips.
        let snapshot = MembershipArtifact::seal(
            staff.clone(),
            1,
            ArtifactKind::Snapshot,
            vec![member_digest(&p("bob"))],
            Vec::new(),
            &GrantAuthority::SharedKey(gs_key),
        );
        server.apply_membership(&snapshot).unwrap();
        let req = Request::new(op("edit"), obj("wiki"), Timestamp(1)).authenticated_as(p("bob"));
        let authorized = server.authorize(&req).unwrap();
        assert_eq!(authorized.claims.groups, vec![staff]);
        // Carol is mirrored-absent: still denied, also without round trips.
        let req = Request::new(op("edit"), obj("wiki"), Timestamp(1)).authenticated_as(p("carol"));
        assert!(server.authorize(&req).is_err());
    }

    #[test]
    fn forged_artifacts_rejected_by_apply() {
        use restricted_proxy::membership::{member_digest, MembershipArtifact};
        use restricted_proxy::revocation::{ArtifactKind, RevocationArtifact};
        let mut rng = StdRng::seed_from_u64(23);
        let shared = SymmetricKey::generate(&mut rng);
        let mallory_key = SymmetricKey::generate(&mut rng);
        let resolver =
            MapResolver::new().with(p("alice"), GrantorVerifier::SharedKey(shared.clone()));
        let server = EndServer::new(p("fs"), resolver);
        // Sealed under mallory's key but claiming alice as issuer.
        let forged = RevocationArtifact::seal(
            p("alice"),
            1,
            ArtifactKind::Snapshot,
            [7u64].into_iter().collect(),
            &GrantAuthority::SharedKey(mallory_key.clone()),
        );
        assert_eq!(
            server.apply_revocation(&forged),
            Err(AuthzError::Artifact(ArtifactError::BadSeal))
        );
        assert!(!server.revocation_directory().is_revoked(&p("alice"), 7));
        // Unknown issuer fails closed before any seal math.
        let unknown = RevocationArtifact::seal(
            p("nobody"),
            1,
            ArtifactKind::Snapshot,
            [7u64].into_iter().collect(),
            &GrantAuthority::SharedKey(mallory_key.clone()),
        );
        assert_eq!(
            server.apply_revocation(&unknown),
            Err(AuthzError::Artifact(ArtifactError::UnknownIssuer(p(
                "nobody"
            ))))
        );
        // Same for membership artifacts.
        let forged = MembershipArtifact::seal(
            GroupName::new(p("alice"), "staff"),
            1,
            ArtifactKind::Snapshot,
            vec![member_digest(&p("mallory"))],
            Vec::new(),
            &GrantAuthority::SharedKey(mallory_key),
        );
        assert_eq!(
            server.apply_membership(&forged),
            Err(AuthzError::Artifact(ArtifactError::BadSeal))
        );
    }

    #[test]
    fn compound_entry_satisfied_by_two_proxies() {
        let mut rng = StdRng::seed_from_u64(4);
        let ka = SymmetricKey::generate(&mut rng);
        let kb = SymmetricKey::generate(&mut rng);
        let resolver = MapResolver::new()
            .with(p("alice"), GrantorVerifier::SharedKey(ka.clone()))
            .with(p("bob"), GrantorVerifier::SharedKey(kb.clone()));
        let mut server = EndServer::new(p("vault"), resolver);
        server.acls.set(
            obj("gold"),
            Acl::new().with(
                AclSubject::Compound(vec![p("alice"), p("bob")]),
                AclRights::ops(vec![op("open")]),
            ),
        );
        let make = |name: &str, key: &SymmetricKey, rng: &mut StdRng| {
            grant(
                &p(name),
                &GrantAuthority::SharedKey(key.clone()),
                RestrictionSet::new().with(Restriction::authorize_op(obj("gold"), op("open"))),
                Validity::new(Timestamp(0), Timestamp(100)),
                1,
                rng,
            )
        };
        let pa = make("alice", &ka, &mut rng);
        let pb = make("bob", &kb, &mut rng);
        // One proxy is not enough — separation of privilege (§3.5).
        let req = Request::new(op("open"), obj("gold"), Timestamp(1))
            .with_presentation(pa.present_bearer([1u8; 32], &p("vault")));
        assert!(server.authorize(&req).is_err());
        // Proxies from both grantors together satisfy the compound entry.
        let req = Request::new(op("open"), obj("gold"), Timestamp(1))
            .with_presentation(pa.present_bearer([2u8; 32], &p("vault")))
            .with_presentation(pb.present_bearer([3u8; 32], &p("vault")));
        assert!(server.authorize(&req).is_ok());
    }

    #[test]
    fn repeated_requests_hit_the_seal_cache() {
        use proxy_crypto::ed25519::SigningKey;
        let mut rng = StdRng::seed_from_u64(6);
        let sk = SigningKey::generate(&mut rng);
        let resolver = MapResolver::new().with(
            p("alice"),
            restricted_proxy::key::GrantorVerifier::PublicKey(sk.verifying_key()),
        );
        let mut server = EndServer::new(p("fs"), resolver);
        server.acls.set(
            obj("file1"),
            Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
        );
        let cap = grant(
            &p("alice"),
            &GrantAuthority::Keypair(sk),
            RestrictionSet::new().with(Restriction::authorize_op(obj("file1"), op("read"))),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        // First presentation pays for the signature check; later requests
        // re-presenting the same chain (fresh challenges) hit the cache.
        for i in 0..3u8 {
            let req = Request::new(op("read"), obj("file1"), Timestamp(1))
                .with_presentation(cap.present_bearer([i + 1; 32], &p("fs")));
            assert!(server.authorize(&req).is_ok());
        }
        let (hits, misses) = server.seal_cache().unwrap().stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn for_use_by_group_needs_group_pass_first() {
        // A capability usable only by staff members: bob must present BOTH
        // the capability and a staff membership proxy.
        let mut rng = StdRng::seed_from_u64(5);
        let alice_key = SymmetricKey::generate(&mut rng);
        let gs_key = SymmetricKey::generate(&mut rng);
        let resolver = MapResolver::new()
            .with(p("alice"), GrantorVerifier::SharedKey(alice_key.clone()))
            .with(p("gs"), GrantorVerifier::SharedKey(gs_key.clone()));
        let mut server = EndServer::new(p("fs"), resolver);
        server.acls.set(
            obj("report"),
            Acl::new().with(AclSubject::Principal(p("alice")), AclRights::all()),
        );
        let staff = GroupName::new(p("gs"), "staff");
        let cap = grant(
            &p("alice"),
            &GrantAuthority::SharedKey(alice_key),
            RestrictionSet::new()
                .with(Restriction::authorize_op(obj("report"), op("read")))
                .with(Restriction::ForUseByGroup {
                    groups: vec![staff.clone()],
                    required: 1,
                }),
            Validity::new(Timestamp(0), Timestamp(100)),
            1,
            &mut rng,
        );
        let membership = grant(
            &p("gs"),
            &GrantAuthority::SharedKey(gs_key),
            RestrictionSet::new()
                .with(Restriction::grantee_one(p("bob")))
                .with(Restriction::GroupMembership {
                    groups: vec![staff],
                }),
            Validity::new(Timestamp(0), Timestamp(100)),
            2,
            &mut rng,
        );
        // Capability alone: denied (group requirement unmet).
        let req = Request::new(op("read"), obj("report"), Timestamp(1))
            .authenticated_as(p("bob"))
            .with_presentation(cap.present_bearer([1u8; 32], &p("fs")));
        assert!(server.authorize(&req).is_err());
        // Capability + membership proxy: allowed.
        let req = Request::new(op("read"), obj("report"), Timestamp(1))
            .authenticated_as(p("bob"))
            .with_presentation(membership.present_delegate())
            .with_presentation(cap.present_bearer([2u8; 32], &p("fs")));
        assert!(server.authorize(&req).is_ok());
    }
}
