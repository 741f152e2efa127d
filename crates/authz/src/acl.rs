//! Access-control lists with restriction-bearing entries (§3.5).
//!
//! "Since the same access-control-list abstraction should be used on the
//! authorization servers as on other servers, access-control-list entries
//! can support an associated list of restrictions." Entries can name local
//! principals, globally-named groups, proxy-granting servers (capability
//! issuers, authorization servers, group servers), compound principals
//! (requiring concurrence), or anyone.

use restricted_proxy::principal::{GroupName, PrincipalId};
use restricted_proxy::restriction::{ObjectName, Operation, RestrictionSet};

/// Who an ACL entry names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AclSubject {
    /// A specific principal (a local user, or a proxy grantor whose
    /// verified proxies confer this entry's rights — capability issuers
    /// and authorization servers appear this way, §3.5).
    Principal(PrincipalId),
    /// Members of a globally-named group, proven by a group proxy (§3.3).
    Group(GroupName),
    /// A compound principal: *all* listed principals must concur —
    /// separation of privilege, user+host requirements (§3.5).
    Compound(Vec<PrincipalId>),
    /// Any requester.
    Anyone,
}

/// The rights an entry grants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AclRights {
    /// Operations permitted (`None` = all).
    pub operations: Option<Vec<Operation>>,
    /// Restrictions attached to the entry; on an authorization server
    /// these are copied into issued proxies (§3.5).
    pub restrictions: RestrictionSet,
}

impl AclRights {
    /// Rights permitting every operation with no restrictions.
    #[must_use]
    pub fn all() -> Self {
        Self {
            operations: None,
            restrictions: RestrictionSet::new(),
        }
    }

    /// Rights permitting only the listed operations.
    #[must_use]
    pub fn ops(operations: Vec<Operation>) -> Self {
        Self {
            operations: Some(operations),
            restrictions: RestrictionSet::new(),
        }
    }

    /// Attaches restrictions to the rights.
    #[must_use]
    pub fn with_restrictions(mut self, restrictions: RestrictionSet) -> Self {
        self.restrictions = restrictions;
        self
    }

    fn permits(&self, operation: &Operation) -> bool {
        self.operations
            .as_ref()
            .is_none_or(|ops| ops.contains(operation))
    }
}

/// One ACL entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AclEntry {
    /// Who the entry names.
    pub subject: AclSubject,
    /// What it grants.
    pub rights: AclRights,
}

/// The identity evidence accompanying a request, after proxy verification:
/// which principals the requester may act as, and which group memberships
/// it proved.
#[derive(Clone, Debug, Default)]
pub struct ClaimSet {
    /// Principals the requester acts as (its own authenticated identity
    /// plus the grantors of verified proxies).
    pub principals: Vec<PrincipalId>,
    /// Groups whose membership was proven by group proxies.
    pub groups: Vec<GroupName>,
}

impl ClaimSet {
    /// A claim set holding a single authenticated principal.
    #[must_use]
    pub fn principal(p: PrincipalId) -> Self {
        Self {
            principals: vec![p],
            groups: Vec::new(),
        }
    }

    fn satisfies(&self, subject: &AclSubject) -> bool {
        match subject {
            AclSubject::Principal(p) => self.principals.contains(p),
            AclSubject::Group(g) => self.groups.contains(g),
            AclSubject::Compound(ps) => ps.iter().all(|p| self.principals.contains(p)),
            AclSubject::Anyone => true,
        }
    }
}

/// An access-control list: an ordered set of entries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Acl {
    entries: Vec<AclEntry>,
}

impl Acl {
    /// An empty ACL (denies everything).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry.
    pub fn push(&mut self, subject: AclSubject, rights: AclRights) {
        self.entries.push(AclEntry { subject, rights });
    }

    /// Builder-style [`push`](Self::push).
    #[must_use]
    pub fn with(mut self, subject: AclSubject, rights: AclRights) -> Self {
        self.push(subject, rights);
        self
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the list has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, AclEntry> {
        self.entries.iter()
    }

    /// Finds the first entry whose subject the claims satisfy and whose
    /// rights permit `operation`.
    #[must_use]
    pub fn find_match(&self, claims: &ClaimSet, operation: &Operation) -> Option<&AclEntry> {
        self.entries
            .iter()
            .find(|e| claims.satisfies(&e.subject) && e.rights.permits(operation))
    }

    /// Removes every entry naming `principal` directly — the revocation
    /// lever of §3.1: revoking the grantor's own access invalidates every
    /// capability issued on its authority.
    pub fn remove_principal(&mut self, principal: &PrincipalId) {
        self.entries.retain(|e| match &e.subject {
            AclSubject::Principal(p) => p != principal,
            AclSubject::Compound(ps) => !ps.contains(principal),
            AclSubject::Group(_) | AclSubject::Anyone => true,
        });
    }
}

/// A per-object ACL store, with an optional server-wide default.
#[derive(Clone, Debug, Default)]
pub struct AclStore {
    per_object: std::collections::HashMap<ObjectName, Acl>,
    default: Acl,
}

impl AclStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the server-wide default ACL.
    pub fn set_default(&mut self, acl: Acl) {
        self.default = acl;
    }

    /// Sets the ACL for one object.
    pub fn set(&mut self, object: ObjectName, acl: Acl) {
        self.per_object.insert(object, acl);
    }

    /// The ACL governing `object` (object-specific, else the default).
    #[must_use]
    pub fn acl_for(&self, object: &ObjectName) -> &Acl {
        self.per_object.get(object).unwrap_or(&self.default)
    }

    /// Mutable access to the ACL for `object`, creating an empty one if
    /// absent (for revocation edits).
    pub fn acl_mut(&mut self, object: ObjectName) -> &mut Acl {
        self.per_object.entry(object).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn op(name: &str) -> Operation {
        Operation::new(name)
    }

    #[test]
    fn principal_entry_matches() {
        let acl = Acl::new().with(
            AclSubject::Principal(p("alice")),
            AclRights::ops(vec![op("read")]),
        );
        let claims = ClaimSet::principal(p("alice"));
        assert!(acl.find_match(&claims, &op("read")).is_some());
        assert!(acl.find_match(&claims, &op("write")).is_none());
        let other = ClaimSet::principal(p("bob"));
        assert!(acl.find_match(&other, &op("read")).is_none());
    }

    #[test]
    fn group_entry_matches_proven_membership() {
        let staff = GroupName::new(p("gs"), "staff");
        let acl = Acl::new().with(AclSubject::Group(staff.clone()), AclRights::all());
        let mut claims = ClaimSet::principal(p("bob"));
        assert!(acl.find_match(&claims, &op("read")).is_none());
        claims.groups.push(staff);
        assert!(acl.find_match(&claims, &op("read")).is_some());
    }

    #[test]
    fn compound_entry_requires_all() {
        let acl = Acl::new().with(
            AclSubject::Compound(vec![p("alice"), p("host1")]),
            AclRights::all(),
        );
        let mut claims = ClaimSet::principal(p("alice"));
        assert!(
            acl.find_match(&claims, &op("read")).is_none(),
            "alice alone"
        );
        claims.principals.push(p("host1"));
        assert!(
            acl.find_match(&claims, &op("read")).is_some(),
            "user + host"
        );
    }

    #[test]
    fn anyone_matches_empty_claims() {
        let acl = Acl::new().with(AclSubject::Anyone, AclRights::ops(vec![op("ping")]));
        assert!(acl.find_match(&ClaimSet::default(), &op("ping")).is_some());
        assert!(acl.find_match(&ClaimSet::default(), &op("read")).is_none());
    }

    #[test]
    fn first_matching_entry_wins() {
        let acl = Acl::new()
            .with(
                AclSubject::Principal(p("alice")),
                AclRights::ops(vec![op("read")]),
            )
            .with(AclSubject::Anyone, AclRights::all());
        let claims = ClaimSet::principal(p("alice"));
        let entry = acl.find_match(&claims, &op("read")).unwrap();
        assert_eq!(entry.subject, AclSubject::Principal(p("alice")));
    }

    #[test]
    fn remove_principal_revokes() {
        let mut acl = Acl::new()
            .with(AclSubject::Principal(p("alice")), AclRights::all())
            .with(
                AclSubject::Compound(vec![p("alice"), p("bob")]),
                AclRights::all(),
            )
            .with(AclSubject::Principal(p("carol")), AclRights::all());
        acl.remove_principal(&p("alice"));
        assert_eq!(acl.len(), 1);
        assert!(acl
            .find_match(&ClaimSet::principal(p("alice")), &op("x"))
            .is_none());
        assert!(acl
            .find_match(&ClaimSet::principal(p("carol")), &op("x"))
            .is_some());
    }

    #[test]
    fn store_falls_back_to_default() {
        let mut store = AclStore::new();
        store.set_default(Acl::new().with(AclSubject::Anyone, AclRights::ops(vec![op("list")])));
        store.set(
            ObjectName::new("secret"),
            Acl::new().with(AclSubject::Principal(p("root")), AclRights::all()),
        );
        assert!(store
            .acl_for(&ObjectName::new("public"))
            .find_match(&ClaimSet::default(), &op("list"))
            .is_some());
        assert!(store
            .acl_for(&ObjectName::new("secret"))
            .find_match(&ClaimSet::default(), &op("list"))
            .is_none());
    }
}
