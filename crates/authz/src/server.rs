//! The authorization server (§3.2, Fig. 3).
//!
//! The server "does not directly specify that a particular principal is
//! authorized to use a particular service … Instead, when requested by an
//! authorized client, the authorization server grants a restricted proxy
//! allowing the authorized client to act as the authorization server for
//! the purpose of asserting the client's rights to access particular
//! objects." End-servers delegate by naming the authorization server in
//! their local ACL (§3.5).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::RngCore;

use restricted_proxy::context::RequestContext;
use restricted_proxy::key::{GrantAuthority, KeyResolver};
use restricted_proxy::present::Presentation;
use restricted_proxy::principal::PrincipalId;
use restricted_proxy::proxy::{grant, Proxy};
use restricted_proxy::replay::ReplayCache;
use restricted_proxy::restriction::{
    AuthorizedEntry, ObjectName, Operation, Restriction, RestrictionSet,
};
use restricted_proxy::revocation::{RevocationArtifact, RevocationRegistry};
use restricted_proxy::time::{Timestamp, Validity};
use restricted_proxy::verify::Verifier;

use crate::acl::{AclStore, ClaimSet};
use crate::endserver::claim_asserted_groups;
use crate::error::AuthzError;

/// An authorization server holding per-end-server authorization databases.
///
/// The request path ([`Self::request_authorization`]) takes `&self`, so
/// one server instance can be shared across worker threads. Database
/// edits go through [`Self::database_mut`] (`&mut self`): admin
/// reconfiguration is exclusive, which lets the hot path read the
/// databases without any lock (see DESIGN.md §9).
#[derive(Debug)]
pub struct AuthorizationServer<R> {
    name: PrincipalId,
    authority: GrantAuthority,
    /// Authorization database: for each end-server, per-object ACLs.
    databases: HashMap<PrincipalId, AclStore>,
    verifier: Verifier<R>,
    replay: ReplayCache,
    next_serial: AtomicU64,
    /// Serials this server has explicitly revoked (§3.1 made explicit);
    /// published to end-servers as sealed epoch artifacts.
    revocations: RevocationRegistry,
}

impl<R: KeyResolver> AuthorizationServer<R> {
    /// Creates an authorization server.
    ///
    /// `authority` signs issued proxies (the end-servers must be able to
    /// verify this server as a grantor); `resolver` verifies group proxies
    /// presented *to* this server.
    pub fn new(name: PrincipalId, authority: GrantAuthority, resolver: R) -> Self {
        Self {
            name: name.clone(),
            authority,
            databases: HashMap::new(),
            verifier: Verifier::new(name.clone(), resolver),
            replay: ReplayCache::new(),
            next_serial: AtomicU64::new(1),
            revocations: RevocationRegistry::new(name),
        }
    }

    /// Revokes an issued proxy by serial; true when newly revoked. The
    /// revocation reaches end-servers through the next published
    /// artifact ([`Self::revocation_updates_since`]).
    pub fn revoke_serial(&self, serial: u64) -> bool {
        self.revocations.revoke(serial)
    }

    /// True when this server has revoked `serial`.
    #[must_use]
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revocations.is_revoked(serial)
    }

    /// Sealed artifacts bringing a mirror at `have_epoch` up to date
    /// (delta chain, or one snapshot when the mirror is too far behind).
    pub fn revocation_updates_since(&self, have_epoch: u64) -> Vec<RevocationArtifact> {
        self.revocations.updates_since(have_epoch, &self.authority)
    }

    /// The server's principal name.
    #[must_use]
    pub fn name(&self) -> &PrincipalId {
        &self.name
    }

    /// Mutable access to the database for `end_server` (admin interface).
    pub fn database_mut(&mut self, end_server: PrincipalId) -> &mut AclStore {
        self.databases.entry(end_server).or_default()
    }

    /// The Fig. 3 protocol, server side: an authenticated `client` asks
    /// for authorization to perform `operation` on `object` at
    /// `end_server`. Group proxies may accompany the request (§3.3's
    /// composition). On success the reply is a bearer proxy restricted to
    /// exactly that operation, usable only at that end-server, carrying the
    /// matching entry's restrictions (§3.5) and the propagated restrictions
    /// of any presented proxies (§7.9).
    ///
    /// # Errors
    ///
    /// [`AuthzError::NoRightsAt`] when the end-server is unknown;
    /// [`AuthzError::NotAuthorized`] when no database entry matches.
    #[allow(clippy::too_many_arguments)]
    pub fn request_authorization<G: RngCore>(
        &self,
        client: &PrincipalId,
        presentations: &[Presentation],
        end_server: &PrincipalId,
        operation: &Operation,
        object: &ObjectName,
        validity: Validity,
        now: Timestamp,
        rng: &mut G,
    ) -> Result<Proxy, AuthzError> {
        let store = self
            .databases
            .get(end_server)
            .ok_or_else(|| AuthzError::NoRightsAt(end_server.clone()))?;

        // Verify accompanying proxies (typically group proxies) against
        // this server.
        let mut ctx = RequestContext::new(self.name.clone(), operation.clone(), object.clone())
            .at(now)
            .authenticated_as(client.clone());
        let mut claims = ClaimSet::principal(client.clone());
        let mut propagated = RestrictionSet::new();
        let mut replay = &self.replay;
        for pres in presentations {
            let verified = self
                .verifier
                .verify(pres, &ctx, &mut replay)
                .map_err(AuthzError::Verify)?;
            claim_asserted_groups(&verified, &mut claims, &mut ctx);
            if !claims.principals.contains(&verified.grantor) {
                claims.principals.push(verified.grantor.clone());
            }
            // §7.9: rights-limiting restrictions on presented proxies
            // propagate into the proxy we issue (scoped to its target
            // server), so privileges cannot be laundered through this
            // server. Identity-binding restrictions (`grantee`,
            // `group-membership`) bind the *presented* credential's use
            // and were consumed here — the issued proxy gets its own
            // bindings.
            let transferable: RestrictionSet = verified
                .restrictions
                .iter()
                .filter(|r| {
                    !matches!(
                        r,
                        Restriction::Grantee { .. } | Restriction::GroupMembership { .. }
                    )
                })
                .cloned()
                .collect();
            propagated =
                propagated.union(&transferable.propagate(Some(std::slice::from_ref(end_server))));
        }

        let entry = store
            .acl_for(object)
            .find_match(&claims, operation)
            .ok_or_else(|| AuthzError::NotAuthorized {
                operation: operation.clone(),
                object: object.clone(),
            })?;

        // Build the authorization proxy: "[operation X only]R" of Fig. 3.
        // Assembled into one pre-sized set — chaining `union` here would
        // clone the accumulated set once per source, which dominated the
        // grant path's allocation profile.
        let mut restrictions =
            RestrictionSet::with_capacity(2 + entry.rights.restrictions.len() + propagated.len());
        restrictions.push(Restriction::Authorized {
            entries: vec![AuthorizedEntry::ops(
                object.clone(),
                vec![operation.clone()],
            )],
        });
        restrictions.push(Restriction::issued_for_one(end_server.clone()));
        // Entry-attached restrictions are copied in (§3.5)…
        for r in entry.rights.restrictions.iter() {
            restrictions.push(r.clone());
        }
        // …as are propagated restrictions from presented proxies (§7.9),
        // moved rather than cloned.
        for r in propagated {
            restrictions.push(r);
        }
        let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
        Ok(grant(
            &self.name,
            &self.authority,
            restrictions,
            validity,
            serial,
            rng,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::{Acl, AclRights, AclSubject};
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::key::{GrantorVerifier, MapResolver};
    use restricted_proxy::principal::GroupName;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn op(name: &str) -> Operation {
        Operation::new(name)
    }

    fn obj(name: &str) -> ObjectName {
        ObjectName::new(name)
    }

    fn window() -> Validity {
        Validity::new(Timestamp(0), Timestamp(1000))
    }

    #[test]
    fn fig3_protocol_end_to_end() {
        let mut rng = StdRng::seed_from_u64(1);
        // R signs proxies with a key shared with the end-server S (in the
        // full system this is R's session key at S).
        let r_key = SymmetricKey::generate(&mut rng);
        let mut authz = AuthorizationServer::new(
            p("R"),
            GrantAuthority::SharedKey(r_key.clone()),
            MapResolver::new(),
        );
        // Database: client C may read object X at server S.
        authz.database_mut(p("S")).set(
            obj("X"),
            Acl::new().with(
                AclSubject::Principal(p("C")),
                AclRights::ops(vec![op("read")]),
            ),
        );

        // Message 1-2: C requests and receives the authorization proxy.
        let proxy = authz
            .request_authorization(
                &p("C"),
                &[],
                &p("S"),
                &op("read"),
                &obj("X"),
                window(),
                Timestamp(1),
                &mut rng,
            )
            .unwrap();

        // Message 3: C presents the proxy to S. S's ACL names R.
        let mut end = crate::endserver::EndServer::new(
            p("S"),
            MapResolver::new().with(p("R"), GrantorVerifier::SharedKey(r_key)),
        );
        end.acls.set(
            obj("X"),
            Acl::new().with(AclSubject::Principal(p("R")), AclRights::all()),
        );
        let req = crate::endserver::Request::new(op("read"), obj("X"), Timestamp(2))
            .authenticated_as(p("C"))
            .with_presentation(proxy.present_bearer([7u8; 32], &p("S")));
        let authorized = end.authorize(&req).unwrap();
        assert!(authorized.claims.principals.contains(&p("R")));

        // The proxy is for reads only.
        let req = crate::endserver::Request::new(op("write"), obj("X"), Timestamp(2))
            .authenticated_as(p("C"))
            .with_presentation(proxy.present_bearer([8u8; 32], &p("S")));
        assert!(end.authorize(&req).is_err());
    }

    #[test]
    fn unknown_client_denied() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut authz = AuthorizationServer::new(
            p("R"),
            GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
            MapResolver::new(),
        );
        authz.database_mut(p("S")).set(
            obj("X"),
            Acl::new().with(AclSubject::Principal(p("C")), AclRights::all()),
        );
        let err = authz
            .request_authorization(
                &p("mallory"),
                &[],
                &p("S"),
                &op("read"),
                &obj("X"),
                window(),
                Timestamp(1),
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, AuthzError::NotAuthorized { .. }));
    }

    #[test]
    fn unknown_end_server_denied() {
        let mut rng = StdRng::seed_from_u64(3);
        let authz = AuthorizationServer::new(
            p("R"),
            GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
            MapResolver::new(),
        );
        let err = authz
            .request_authorization(
                &p("C"),
                &[],
                &p("S"),
                &op("read"),
                &obj("X"),
                window(),
                Timestamp(1),
                &mut rng,
            )
            .unwrap_err();
        assert_eq!(err, AuthzError::NoRightsAt(p("S")));
    }

    #[test]
    fn group_proxy_feeds_authorization_decision() {
        // §3.3 composition: the end-server's database lives on the authz
        // server and names a group; the client proves membership to the
        // authz server and receives an authorization proxy.
        let mut rng = StdRng::seed_from_u64(4);
        let gs_key = SymmetricKey::generate(&mut rng);
        let staff = GroupName::new(p("gs"), "staff");
        let resolver = MapResolver::new().with(p("gs"), GrantorVerifier::SharedKey(gs_key.clone()));
        let mut authz = AuthorizationServer::new(
            p("R"),
            GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
            resolver,
        );
        authz.database_mut(p("S")).set(
            obj("X"),
            Acl::new().with(
                AclSubject::Group(staff.clone()),
                AclRights::ops(vec![op("read")]),
            ),
        );
        // Group server issues bob a membership proxy.
        let membership = restricted_proxy::proxy::grant(
            &p("gs"),
            &GrantAuthority::SharedKey(gs_key),
            RestrictionSet::new()
                .with(Restriction::grantee_one(p("bob")))
                .with(Restriction::GroupMembership {
                    groups: vec![staff],
                }),
            window(),
            1,
            &mut rng,
        );
        let proxy = authz
            .request_authorization(
                &p("bob"),
                &[membership.present_delegate()],
                &p("S"),
                &op("read"),
                &obj("X"),
                window(),
                Timestamp(1),
                &mut rng,
            )
            .unwrap();
        assert!(proxy
            .combined_restrictions()
            .iter()
            .any(|r| matches!(r, Restriction::IssuedFor { .. })));
        // Without the membership proxy: denied.
        assert!(authz
            .request_authorization(
                &p("bob"),
                &[],
                &p("S"),
                &op("read"),
                &obj("X"),
                window(),
                Timestamp(1),
                &mut rng,
            )
            .is_err());
    }

    #[test]
    fn a_group_server_asserts_only_its_own_groups_on_either_path() {
        // §7.6: "gs" seals a membership proxy that also names a group of
        // "hs". Neither the authorization server nor the end-server may
        // take that as a claim on hs/staff.
        use crate::endserver::{EndServer, Request};
        let mut rng = StdRng::seed_from_u64(6);
        let gs_key = SymmetricKey::generate(&mut rng);
        let own = GroupName::new(p("gs"), "staff");
        let foreign = GroupName::new(p("hs"), "staff");
        let resolver = MapResolver::new().with(p("gs"), GrantorVerifier::SharedKey(gs_key.clone()));
        let mut authz = AuthorizationServer::new(
            p("R"),
            GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
            resolver.clone(),
        );
        let mut end = EndServer::new(p("S"), resolver);
        for (object, group) in [("ours", &own), ("theirs", &foreign)] {
            let acl = Acl::new().with(AclSubject::Group(group.clone()), AclRights::all());
            authz.database_mut(p("S")).set(obj(object), acl.clone());
            end.acls.set(obj(object), acl);
        }
        let membership = grant(
            &p("gs"),
            &GrantAuthority::SharedKey(gs_key),
            RestrictionSet::new()
                .with(Restriction::grantee_one(p("bob")))
                .with(Restriction::GroupMembership {
                    groups: vec![foreign, own.clone()],
                }),
            window(),
            1,
            &mut rng,
        );
        let mut ask_authz = |object: &str| {
            authz.request_authorization(
                &p("bob"),
                &[membership.present_delegate()],
                &p("S"),
                &op("read"),
                &obj(object),
                window(),
                Timestamp(1),
                &mut rng,
            )
        };
        assert!(ask_authz("ours").is_ok());
        assert!(matches!(
            ask_authz("theirs"),
            Err(AuthzError::NotAuthorized { .. })
        ));
        let ask_end = |object: &str| {
            let req = Request::new(op("read"), obj(object), Timestamp(1))
                .authenticated_as(p("bob"))
                .with_presentation(membership.present_delegate());
            end.authorize(&req)
        };
        assert_eq!(ask_end("ours").unwrap().claims.groups, vec![own]);
        assert!(matches!(
            ask_end("theirs"),
            Err(AuthzError::NotAuthorized { .. })
        ));
    }

    #[test]
    fn entry_restrictions_copied_into_proxy() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut authz = AuthorizationServer::new(
            p("R"),
            GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng)),
            MapResolver::new(),
        );
        let quota = Restriction::Quota {
            currency: restricted_proxy::restriction::Currency::new("pages"),
            limit: 5,
        };
        authz.database_mut(p("S")).set(
            obj("X"),
            Acl::new().with(
                AclSubject::Principal(p("C")),
                AclRights::all().with_restrictions(RestrictionSet::new().with(quota.clone())),
            ),
        );
        let proxy = authz
            .request_authorization(
                &p("C"),
                &[],
                &p("S"),
                &op("print"),
                &obj("X"),
                window(),
                Timestamp(1),
                &mut rng,
            )
            .unwrap();
        assert!(proxy.combined_restrictions().iter().any(|r| *r == quota));
    }
}
