//! The typed restriction vocabulary of §7 and its additive algebra.
//!
//! A restriction never grants anything: it only *removes* authority from a
//! proxy (§6.2: "restrictions must be additive. Each subfield places
//! additional restrictions on the use of credentials, never removing
//! restrictions or granting additional privileges"). Accordingly
//! [`RestrictionSet`] supports union but deliberately exposes no removal
//! operation, and evaluation requires *every* restriction to pass.

use crate::context::RequestContext;
use crate::encode::{DecodeError, Decoder, Encoder};
use crate::principal::{GroupName, PrincipalId};
use crate::replay::ReplayGuard;
use crate::time::Timestamp;

/// A currency for quotas and accounting: monetary (`"USD"`) or
/// resource-specific (`"disk-blocks"`, `"printer-pages"`) per §4.
///
/// Backed by `Arc<str>` so clones on the accounting hot path are
/// allocation-free (see [`PrincipalId`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Currency(std::sync::Arc<str>);

impl Currency {
    /// Creates a currency label.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        let name = name.as_ref();
        assert!(!name.is_empty(), "currency name must be non-empty");
        Self(name.into())
    }

    /// Creates a currency label, returning `None` when empty (the
    /// fallible path for decoding untrusted bytes).
    #[must_use]
    pub fn try_new(name: impl AsRef<str>) -> Option<Self> {
        let name = name.as_ref();
        (!name.is_empty()).then(|| Self(name.into()))
    }

    /// The label as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Currency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// An operation name, interpreted by the end-server (§7.5: "There are no
/// constraints on the form … other than that the grantor and the
/// end-server must agree").
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Operation(std::sync::Arc<str>);

impl Operation {
    /// Creates an operation name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(name.as_ref().into())
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// An object name, interpreted by the end-server.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectName(std::sync::Arc<str>);

impl ObjectName {
    /// Creates an object name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(name.as_ref().into())
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ObjectName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One `authorized` entry: an object plus the operations allowed on it
/// (`None` = any operation on that object).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AuthorizedEntry {
    /// The object the proxy's rights extend to.
    pub object: ObjectName,
    /// Permitted operations; `None` allows all operations on the object.
    pub operations: Option<Vec<Operation>>,
}

impl AuthorizedEntry {
    /// Entry allowing any operation on `object`.
    #[must_use]
    pub fn any_op(object: ObjectName) -> Self {
        Self {
            object,
            operations: None,
        }
    }

    /// Entry allowing only `operations` on `object`.
    #[must_use]
    pub fn ops(object: ObjectName, operations: Vec<Operation>) -> Self {
        Self {
            object,
            operations: Some(operations),
        }
    }

    fn permits(&self, object: &ObjectName, op: &Operation) -> bool {
        self.object == *object && self.operations.as_ref().is_none_or(|ops| ops.contains(op))
    }
}

/// A single typed restriction (§7).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Restriction {
    /// §7.1 — the proxy may be exercised only with the credentials of (at
    /// least `required` of) the named delegates. Its presence makes the
    /// proxy a *delegate* proxy; its absence makes a *bearer* proxy.
    Grantee {
        /// Principals authorized to exercise the proxy.
        delegates: Vec<PrincipalId>,
        /// How many of them must concur (usually 1).
        required: u32,
    },
    /// §7.2 — usable only by members of (at least `required` of) the named
    /// groups, proven by accompanying group proxies.
    ForUseByGroup {
        /// Groups whose members may use the proxy.
        groups: Vec<GroupName>,
        /// How many group memberships must be proven.
        required: u32,
    },
    /// §7.3 — only the named end-servers may accept the proxy. Important
    /// for public-key proxies, which are otherwise verifiable everywhere.
    IssuedFor {
        /// Servers authorized to accept the proxy.
        servers: Vec<PrincipalId>,
    },
    /// §7.4 — limits the quantity of a resource that may be consumed.
    Quota {
        /// The limited currency.
        currency: Currency,
        /// Maximum quantity.
        limit: u64,
    },
    /// §7.5 — the complete list of objects (and optionally operations)
    /// accessible with the proxy; the restriction behind capabilities.
    Authorized {
        /// Accessible objects and their permitted operations.
        entries: Vec<AuthorizedEntry>,
    },
    /// §7.6 — the grantee is a member of *only* the listed groups; issued
    /// by group servers to scope membership assertions.
    GroupMembership {
        /// The only groups this proxy can assert membership of.
        groups: Vec<GroupName>,
    },
    /// §7.7 — the end-server must accept the proxy at most once per
    /// identifier within the validity window (e.g. a check number).
    AcceptOnce {
        /// Identifier deduplicating acceptance (a check number).
        id: u64,
    },
    /// §7.8 — restrictions that apply only at the named servers and are
    /// ignored elsewhere.
    LimitRestriction {
        /// Servers where the embedded restrictions are enforced.
        servers: Vec<PrincipalId>,
        /// The scoped restrictions.
        restrictions: Vec<Restriction>,
    },
}

/// Why a request was denied by restriction evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Denial {
    /// Too few of the named delegates were authenticated.
    GranteeNotPresent {
        /// How many delegates were required.
        required: u32,
        /// How many were actually authenticated.
        present: u32,
    },
    /// Too few of the required group memberships were proven.
    GroupRequirementNotMet {
        /// How many memberships were required.
        required: u32,
        /// How many were proven.
        present: u32,
    },
    /// The proxy was presented at a server it was not issued for.
    ServerNotAuthorized {
        /// The server that received the proxy.
        server: PrincipalId,
    },
    /// The request would exceed a quota.
    QuotaExceeded {
        /// The limited currency.
        currency: Currency,
        /// The quota limit.
        limit: u64,
        /// The amount requested.
        requested: u64,
    },
    /// The requested object/operation is outside the authorized list.
    NotAuthorized {
        /// Requested object.
        object: ObjectName,
        /// Requested operation.
        operation: Operation,
    },
    /// A group assertion was outside the proxy's `group-membership` list.
    GroupAssertionNotAllowed {
        /// The disallowed group.
        group: GroupName,
    },
    /// An `accept-once` identifier was replayed.
    AlreadyAccepted {
        /// The replayed identifier.
        id: u64,
    },
}

impl std::fmt::Display for Denial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Denial::GranteeNotPresent { required, present } => write!(
                f,
                "grantee restriction unmet: {present} of required {required} delegates authenticated"
            ),
            Denial::GroupRequirementNotMet { required, present } => write!(
                f,
                "for-use-by-group restriction unmet: {present} of required {required} groups proven"
            ),
            Denial::ServerNotAuthorized { server } => {
                write!(f, "proxy not issued for server {server}")
            }
            Denial::QuotaExceeded { currency, limit, requested } => {
                write!(f, "quota exceeded: requested {requested} {currency}, limit {limit}")
            }
            Denial::NotAuthorized { object, operation } => {
                write!(f, "operation {operation} on {object} not authorized")
            }
            Denial::GroupAssertionNotAllowed { group } => {
                write!(f, "proxy cannot assert membership in {group}")
            }
            Denial::AlreadyAccepted { id } => {
                write!(f, "accept-once identifier {id} already used")
            }
        }
    }
}

impl std::error::Error for Denial {}

impl Restriction {
    /// Convenience constructor: a single-delegate `grantee` restriction.
    #[must_use]
    pub fn grantee_one(delegate: PrincipalId) -> Restriction {
        Restriction::Grantee {
            delegates: vec![delegate],
            required: 1,
        }
    }

    /// Convenience constructor: `issued-for` a single server.
    #[must_use]
    pub fn issued_for_one(server: PrincipalId) -> Restriction {
        Restriction::IssuedFor {
            servers: vec![server],
        }
    }

    /// Convenience constructor: a single-object, single-operation
    /// `authorized` restriction (the classic read-capability).
    #[must_use]
    pub fn authorize_op(object: ObjectName, op: Operation) -> Restriction {
        Restriction::Authorized {
            entries: vec![AuthorizedEntry::ops(object, vec![op])],
        }
    }

    /// Evaluates this restriction against a request.
    ///
    /// `grantor` is the principal that signed the certificate carrying this
    /// restriction (group assertions are scoped to the grantor's groups);
    /// `expires` bounds how long the replay guard must remember
    /// `accept-once` identifiers.
    ///
    /// # Errors
    ///
    /// Returns the specific [`Denial`] when the request violates this
    /// restriction.
    pub fn evaluate(
        &self,
        ctx: &RequestContext,
        grantor: &PrincipalId,
        expires: Timestamp,
        replay: &mut dyn ReplayGuard,
    ) -> Result<(), Denial> {
        match self {
            Restriction::Grantee {
                delegates,
                required,
            } => {
                let present = delegates
                    .iter()
                    .filter(|d| ctx.authenticated.contains(d))
                    .count() as u32;
                if present >= *required {
                    Ok(())
                } else {
                    Err(Denial::GranteeNotPresent {
                        required: *required,
                        present,
                    })
                }
            }
            Restriction::ForUseByGroup { groups, required } => {
                let present = groups
                    .iter()
                    .filter(|g| ctx.asserted_groups.contains(g))
                    .count() as u32;
                if present >= *required {
                    Ok(())
                } else {
                    Err(Denial::GroupRequirementNotMet {
                        required: *required,
                        present,
                    })
                }
            }
            Restriction::IssuedFor { servers } => {
                if servers.contains(&ctx.server) {
                    Ok(())
                } else {
                    Err(Denial::ServerNotAuthorized {
                        server: ctx.server.clone(),
                    })
                }
            }
            Restriction::Quota { currency, limit } => {
                for (c, amount) in &ctx.amounts {
                    if c == currency && amount > limit {
                        return Err(Denial::QuotaExceeded {
                            currency: currency.clone(),
                            limit: *limit,
                            requested: *amount,
                        });
                    }
                }
                Ok(())
            }
            Restriction::Authorized { entries } => {
                if entries
                    .iter()
                    .any(|e| e.permits(&ctx.object, &ctx.operation))
                {
                    Ok(())
                } else {
                    Err(Denial::NotAuthorized {
                        object: ctx.object.clone(),
                        operation: ctx.operation.clone(),
                    })
                }
            }
            Restriction::GroupMembership { groups } => {
                // Assertions of the grantor's own groups must be listed.
                for g in &ctx.asserted_groups {
                    if g.server == *grantor && !groups.contains(g) {
                        return Err(Denial::GroupAssertionNotAllowed { group: g.clone() });
                    }
                }
                Ok(())
            }
            Restriction::AcceptOnce { id } => {
                if replay.accept_once(grantor, *id, ctx.now, expires) {
                    Ok(())
                } else {
                    Err(Denial::AlreadyAccepted { id: *id })
                }
            }
            Restriction::LimitRestriction {
                servers,
                restrictions,
            } => {
                if servers.contains(&ctx.server) {
                    for r in restrictions {
                        r.evaluate(ctx, grantor, expires, replay)?;
                    }
                }
                Ok(())
            }
        }
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            Restriction::Grantee {
                delegates,
                required,
            } => {
                e.u8(1).u32(*required).count(delegates.len());
                for d in delegates {
                    e.str(d.as_str());
                }
            }
            Restriction::ForUseByGroup { groups, required } => {
                e.u8(2).u32(*required).count(groups.len());
                for g in groups {
                    e.str(g.server.as_str()).str(&g.name);
                }
            }
            Restriction::IssuedFor { servers } => {
                e.u8(3).count(servers.len());
                for s in servers {
                    e.str(s.as_str());
                }
            }
            Restriction::Quota { currency, limit } => {
                e.u8(4).str(currency.as_str()).u64(*limit);
            }
            Restriction::Authorized { entries } => {
                e.u8(5).count(entries.len());
                for entry in entries {
                    e.str(entry.object.as_str());
                    match &entry.operations {
                        None => {
                            e.u8(0);
                        }
                        Some(ops) => {
                            e.u8(1).count(ops.len());
                            for op in ops {
                                e.str(op.as_str());
                            }
                        }
                    }
                }
            }
            Restriction::GroupMembership { groups } => {
                e.u8(6).count(groups.len());
                for g in groups {
                    e.str(g.server.as_str()).str(&g.name);
                }
            }
            Restriction::AcceptOnce { id } => {
                e.u8(7).u64(*id);
            }
            Restriction::LimitRestriction {
                servers,
                restrictions,
            } => {
                e.u8(8).count(servers.len());
                for s in servers {
                    e.str(s.as_str());
                }
                e.count(restrictions.len());
                for r in restrictions {
                    r.encode_into(e);
                }
            }
        }
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Restriction, DecodeError> {
        let tag = d.u8()?;
        Ok(match tag {
            1 => {
                let required = d.u32()?;
                let n = d.counted(4)?;
                let mut delegates = Vec::with_capacity(n);
                for _ in 0..n {
                    delegates.push(d.principal()?);
                }
                Restriction::Grantee {
                    delegates,
                    required,
                }
            }
            2 => {
                let required = d.u32()?;
                let n = d.counted(8)?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    let server = d.principal()?;
                    let name = d.str()?.to_string();
                    groups.push(GroupName { server, name });
                }
                Restriction::ForUseByGroup { groups, required }
            }
            3 => {
                let n = d.counted(4)?;
                let mut servers = Vec::with_capacity(n);
                for _ in 0..n {
                    servers.push(d.principal()?);
                }
                Restriction::IssuedFor { servers }
            }
            4 => Restriction::Quota {
                currency: Currency::try_new(d.str()?)
                    .ok_or(DecodeError::InvalidValue("empty currency"))?,
                limit: d.u64()?,
            },
            5 => {
                let n = d.counted(5)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let object = ObjectName::new(d.str()?);
                    let operations = match d.u8()? {
                        0 => None,
                        1 => {
                            let m = d.counted(4)?;
                            let mut ops = Vec::with_capacity(m);
                            for _ in 0..m {
                                ops.push(Operation::new(d.str()?));
                            }
                            Some(ops)
                        }
                        t => return Err(DecodeError::BadTag(t)),
                    };
                    entries.push(AuthorizedEntry { object, operations });
                }
                Restriction::Authorized { entries }
            }
            6 => {
                let n = d.counted(8)?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    let server = d.principal()?;
                    let name = d.str()?.to_string();
                    groups.push(GroupName { server, name });
                }
                Restriction::GroupMembership { groups }
            }
            7 => Restriction::AcceptOnce { id: d.u64()? },
            8 => {
                let n = d.counted(4)?;
                let mut servers = Vec::with_capacity(n);
                for _ in 0..n {
                    servers.push(d.principal()?);
                }
                // The nested restriction list recurses; the decoder's
                // depth guard bounds how far hostile input can push the
                // stack.
                d.descend()?;
                let m = d.counted(1)?;
                let mut restrictions = Vec::with_capacity(m);
                for _ in 0..m {
                    restrictions.push(Restriction::decode_from(d)?);
                }
                d.ascend();
                Restriction::LimitRestriction {
                    servers,
                    restrictions,
                }
            }
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

/// An additive collection of restrictions.
///
/// The set supports union (adding restrictions) but intentionally provides
/// no way to remove a restriction once present — the type-level embodiment
/// of §2's "it is not possible to remove restrictions".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestrictionSet(Vec<Restriction>);

impl RestrictionSet {
    /// The empty (unrestricted) set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with room for `n` restrictions — lets hot paths that
    /// assemble a set of known size pay exactly one allocation instead of
    /// a growth sequence.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self(Vec::with_capacity(n))
    }

    /// Builds a set from restrictions, dropping exact duplicates.
    #[must_use]
    pub fn from_vec(restrictions: Vec<Restriction>) -> Self {
        let mut set = Self::new();
        for r in restrictions {
            set.push(r);
        }
        set
    }

    /// Adds one restriction (no-op if an identical one is present).
    pub fn push(&mut self, restriction: Restriction) {
        if !self.0.contains(&restriction) {
            self.0.push(restriction);
        }
    }

    /// Builder-style [`push`](Self::push).
    #[must_use]
    pub fn with(mut self, restriction: Restriction) -> Self {
        self.push(restriction);
        self
    }

    /// Returns the additive union of two sets. The result denies anything
    /// either input denies.
    #[must_use]
    pub fn union(&self, other: &RestrictionSet) -> RestrictionSet {
        let mut out = self.clone();
        for r in &other.0 {
            out.push(r.clone());
        }
        out
    }

    /// Number of restrictions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when unrestricted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates the restrictions.
    pub fn iter(&self) -> std::slice::Iter<'_, Restriction> {
        self.0.iter()
    }

    /// True when a `grantee` restriction is present — i.e. the proxy is a
    /// *delegate* proxy (§7.1).
    #[must_use]
    pub fn has_grantee(&self) -> bool {
        self.0
            .iter()
            .any(|r| matches!(r, Restriction::Grantee { .. }))
    }

    /// The delegates named by `grantee` restrictions, if any.
    #[must_use]
    pub fn delegates(&self) -> Vec<&PrincipalId> {
        self.0
            .iter()
            .filter_map(|r| match r {
                Restriction::Grantee { delegates, .. } => Some(delegates.iter()),
                // Enumerated (not `_`) so a new Restriction variant forces
                // an explicit decision here (§7.9): only `grantee` names
                // delegates today.
                Restriction::ForUseByGroup { .. }
                | Restriction::IssuedFor { .. }
                | Restriction::Quota { .. }
                | Restriction::Authorized { .. }
                | Restriction::GroupMembership { .. }
                | Restriction::AcceptOnce { .. }
                | Restriction::LimitRestriction { .. } => None,
            })
            .flatten()
            .collect()
    }

    /// Evaluates every restriction; all must pass.
    ///
    /// # Errors
    ///
    /// Returns the first [`Denial`] encountered.
    pub fn evaluate(
        &self,
        ctx: &RequestContext,
        grantor: &PrincipalId,
        expires: Timestamp,
        replay: &mut dyn ReplayGuard,
    ) -> Result<(), Denial> {
        for r in &self.0 {
            r.evaluate(ctx, grantor, expires, replay)?;
        }
        Ok(())
    }

    /// §7.9 propagation: the restrictions to copy into a proxy that will be
    /// issued based on this one and usable only at `target_servers`.
    ///
    /// All unscoped restrictions propagate. A `limit-restriction` may be
    /// dropped only when it is guaranteed never to reach its servers —
    /// i.e. when its server list is disjoint from every target. With an
    /// unknown target (`None`), everything propagates.
    #[must_use]
    pub fn propagate(&self, target_servers: Option<&[PrincipalId]>) -> RestrictionSet {
        let Some(targets) = target_servers else {
            return self.clone();
        };
        let kept = self
            .0
            .iter()
            .filter(|r| match r {
                Restriction::LimitRestriction { servers, .. } => {
                    servers.iter().any(|s| targets.contains(s))
                }
                // Every unscoped restriction propagates (§7.9: restrictions
                // are additive and never silently shed). Enumerated (not
                // `_`) so a new variant forces a propagation decision.
                Restriction::Grantee { .. }
                | Restriction::ForUseByGroup { .. }
                | Restriction::IssuedFor { .. }
                | Restriction::Quota { .. }
                | Restriction::Authorized { .. }
                | Restriction::GroupMembership { .. }
                | Restriction::AcceptOnce { .. } => true,
            })
            .cloned()
            .collect();
        RestrictionSet(kept)
    }

    /// Canonical encoding (embedded in certificate bodies).
    pub fn encode_into(&self, e: &mut Encoder) {
        e.count(self.0.len());
        for r in &self.0 {
            r.encode_into(e);
        }
    }

    /// Decodes a set encoded by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeError`] from the codec.
    pub fn decode_from(d: &mut Decoder<'_>) -> Result<RestrictionSet, DecodeError> {
        let n = d.counted(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Restriction::decode_from(d)?);
        }
        Ok(RestrictionSet(out))
    }
}

impl FromIterator<Restriction> for RestrictionSet {
    fn from_iter<T: IntoIterator<Item = Restriction>>(iter: T) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a RestrictionSet {
    type Item = &'a Restriction;
    type IntoIter = std::slice::Iter<'a, Restriction>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for RestrictionSet {
    type Item = Restriction;
    type IntoIter = std::vec::IntoIter<Restriction>;
    /// Consumes the set, yielding its restrictions by value — lets callers
    /// that fold one set into another move the elements instead of cloning.
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RequestContext;
    use crate::replay::ReplayCache;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn base_ctx() -> RequestContext {
        RequestContext::new(
            p("fileserver"),
            Operation::new("read"),
            ObjectName::new("/etc/motd"),
        )
    }

    fn eval(r: &Restriction, ctx: &RequestContext) -> Result<(), Denial> {
        let mut guard = ReplayCache::new();
        r.evaluate(ctx, &p("grantor"), Timestamp(100), &mut guard)
    }

    #[test]
    fn grantee_requires_authenticated_delegate() {
        let r = Restriction::grantee_one(p("bob"));
        let mut ctx = base_ctx();
        assert_eq!(
            eval(&r, &ctx),
            Err(Denial::GranteeNotPresent {
                required: 1,
                present: 0
            })
        );
        ctx.authenticated.push(p("bob"));
        assert_eq!(eval(&r, &ctx), Ok(()));
    }

    #[test]
    fn grantee_multi_party_concurrence() {
        // Separation of privilege: two of three named delegates required.
        let r = Restriction::Grantee {
            delegates: vec![p("alice"), p("bob"), p("carol")],
            required: 2,
        };
        let mut ctx = base_ctx();
        ctx.authenticated.push(p("alice"));
        assert!(matches!(
            eval(&r, &ctx),
            Err(Denial::GranteeNotPresent { .. })
        ));
        ctx.authenticated.push(p("carol"));
        assert_eq!(eval(&r, &ctx), Ok(()));
    }

    #[test]
    fn issued_for_checks_server() {
        let r = Restriction::issued_for_one(p("fileserver"));
        assert_eq!(eval(&r, &base_ctx()), Ok(()));
        let mut ctx = base_ctx();
        ctx.server = p("mailserver");
        assert_eq!(
            eval(&r, &ctx),
            Err(Denial::ServerNotAuthorized {
                server: p("mailserver")
            })
        );
    }

    #[test]
    fn quota_limits_only_its_currency() {
        let r = Restriction::Quota {
            currency: Currency::new("pages"),
            limit: 10,
        };
        let mut ctx = base_ctx();
        ctx.amounts.push((Currency::new("pages"), 10));
        assert_eq!(eval(&r, &ctx), Ok(()));
        ctx.amounts[0].1 = 11;
        assert!(matches!(eval(&r, &ctx), Err(Denial::QuotaExceeded { .. })));
        // A different currency is untouched by this quota.
        ctx.amounts[0] = (Currency::new("bytes"), 1_000_000);
        assert_eq!(eval(&r, &ctx), Ok(()));
    }

    #[test]
    fn authorized_matches_object_and_operation() {
        let r = Restriction::authorize_op(ObjectName::new("/etc/motd"), Operation::new("read"));
        assert_eq!(eval(&r, &base_ctx()), Ok(()));
        let mut ctx = base_ctx();
        ctx.operation = Operation::new("write");
        assert!(matches!(eval(&r, &ctx), Err(Denial::NotAuthorized { .. })));
        let mut ctx = base_ctx();
        ctx.object = ObjectName::new("/etc/passwd");
        assert!(matches!(eval(&r, &ctx), Err(Denial::NotAuthorized { .. })));
    }

    #[test]
    fn authorized_any_op_entry() {
        let r = Restriction::Authorized {
            entries: vec![AuthorizedEntry::any_op(ObjectName::new("/etc/motd"))],
        };
        let mut ctx = base_ctx();
        ctx.operation = Operation::new("delete");
        assert_eq!(eval(&r, &ctx), Ok(()));
    }

    #[test]
    fn for_use_by_group_counts_assertions() {
        let g1 = GroupName::new(p("gs"), "staff");
        let g2 = GroupName::new(p("gs"), "admins");
        let r = Restriction::ForUseByGroup {
            groups: vec![g1.clone(), g2.clone()],
            required: 2,
        };
        let mut ctx = base_ctx();
        ctx.asserted_groups.push(g1);
        assert!(matches!(
            eval(&r, &ctx),
            Err(Denial::GroupRequirementNotMet { .. })
        ));
        ctx.asserted_groups.push(g2);
        assert_eq!(eval(&r, &ctx), Ok(()));
    }

    #[test]
    fn group_membership_scopes_assertions_to_grantor() {
        let listed = GroupName::new(p("grantor"), "staff");
        let unlisted = GroupName::new(p("grantor"), "admins");
        let foreign = GroupName::new(p("other-gs"), "admins");
        let r = Restriction::GroupMembership {
            groups: vec![listed.clone()],
        };
        let mut ctx = base_ctx();
        ctx.asserted_groups.push(listed);
        assert_eq!(eval(&r, &ctx), Ok(()));
        // Assertions about *other* group servers are not this proxy's business.
        ctx.asserted_groups.push(foreign);
        assert_eq!(eval(&r, &ctx), Ok(()));
        ctx.asserted_groups.push(unlisted.clone());
        assert_eq!(
            eval(&r, &ctx),
            Err(Denial::GroupAssertionNotAllowed { group: unlisted })
        );
    }

    #[test]
    fn accept_once_rejects_replay() {
        let r = Restriction::AcceptOnce { id: 42 };
        let ctx = base_ctx();
        let mut guard = ReplayCache::new();
        assert_eq!(
            r.evaluate(&ctx, &p("grantor"), Timestamp(100), &mut guard),
            Ok(())
        );
        assert_eq!(
            r.evaluate(&ctx, &p("grantor"), Timestamp(100), &mut guard),
            Err(Denial::AlreadyAccepted { id: 42 })
        );
        // Same id from a *different* grantor is fresh (§7.7: "from the same
        // grantor bearing the same identifier").
        assert_eq!(
            r.evaluate(&ctx, &p("other"), Timestamp(100), &mut guard),
            Ok(())
        );
    }

    #[test]
    fn limit_restriction_applies_only_at_named_servers() {
        let inner = Restriction::authorize_op(ObjectName::new("x"), Operation::new("op"));
        let r = Restriction::LimitRestriction {
            servers: vec![p("fileserver")],
            restrictions: vec![inner],
        };
        // At fileserver the inner restriction bites (ctx asks for /etc/motd read).
        assert!(matches!(
            eval(&r, &base_ctx()),
            Err(Denial::NotAuthorized { .. })
        ));
        // At another server it is ignored.
        let mut ctx = base_ctx();
        ctx.server = p("mailserver");
        assert_eq!(eval(&r, &ctx), Ok(()));
    }

    #[test]
    fn union_is_additive_and_dedups() {
        let a = RestrictionSet::new().with(Restriction::issued_for_one(p("s1")));
        let b = RestrictionSet::new()
            .with(Restriction::issued_for_one(p("s1")))
            .with(Restriction::AcceptOnce { id: 1 });
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        // Union never removes: every restriction of both inputs is present.
        for r in a.iter().chain(b.iter()) {
            assert!(u.iter().any(|x| x == r));
        }
    }

    #[test]
    fn union_of_quotas_is_most_restrictive() {
        let a = RestrictionSet::new().with(Restriction::Quota {
            currency: Currency::new("pages"),
            limit: 100,
        });
        let b = RestrictionSet::new().with(Restriction::Quota {
            currency: Currency::new("pages"),
            limit: 10,
        });
        let u = a.union(&b);
        let mut ctx = base_ctx();
        ctx.amounts.push((Currency::new("pages"), 50));
        let mut guard = ReplayCache::new();
        // 50 ≤ 100 but > 10: the union must deny.
        assert!(matches!(
            u.evaluate(&ctx, &p("g"), Timestamp(10), &mut guard),
            Err(Denial::QuotaExceeded { limit: 10, .. })
        ));
    }

    #[test]
    fn propagate_drops_unreachable_limit_restrictions() {
        let scoped_to_print = Restriction::LimitRestriction {
            servers: vec![p("printserver")],
            restrictions: vec![Restriction::AcceptOnce { id: 9 }],
        };
        let global = Restriction::issued_for_one(p("authz"));
        let set = RestrictionSet::new()
            .with(scoped_to_print.clone())
            .with(global.clone());
        // Issuing a proxy usable only at the mailserver: the print-scoped
        // restriction can be dropped, the global one cannot.
        let out = set.propagate(Some(&[p("mailserver")]));
        assert_eq!(out.len(), 1);
        assert!(out.iter().any(|r| *r == global));
        // Target includes printserver: everything propagates.
        let out = set.propagate(Some(&[p("printserver"), p("mailserver")]));
        assert_eq!(out.len(), 2);
        // Unknown target: everything propagates.
        assert_eq!(set.propagate(None).len(), 2);
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        let set = RestrictionSet::from_vec(vec![
            Restriction::Grantee {
                delegates: vec![p("a"), p("b")],
                required: 2,
            },
            Restriction::ForUseByGroup {
                groups: vec![GroupName::new(p("gs"), "staff")],
                required: 1,
            },
            Restriction::IssuedFor {
                servers: vec![p("s1"), p("s2")],
            },
            Restriction::Quota {
                currency: Currency::new("USD"),
                limit: 999,
            },
            Restriction::Authorized {
                entries: vec![
                    AuthorizedEntry::any_op(ObjectName::new("obj1")),
                    AuthorizedEntry::ops(
                        ObjectName::new("obj2"),
                        vec![Operation::new("read"), Operation::new("write")],
                    ),
                ],
            },
            Restriction::GroupMembership {
                groups: vec![GroupName::new(p("gs"), "g")],
            },
            Restriction::AcceptOnce { id: 77 },
            Restriction::LimitRestriction {
                servers: vec![p("s3")],
                restrictions: vec![Restriction::AcceptOnce { id: 5 }],
            },
        ]);
        let mut e = Encoder::new();
        set.encode_into(&mut e);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let decoded = RestrictionSet::decode_from(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(decoded, set);
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut e = Encoder::new();
        e.count(1).u8(99);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(
            RestrictionSet::decode_from(&mut d),
            Err(DecodeError::BadTag(99))
        );
    }

    #[test]
    fn unknown_restriction_nested_in_limit_restriction_is_rejected() {
        // §7.9: a verifier must never skip a restriction it does not
        // understand. The decode layer enforces this structurally —
        // including for restrictions smuggled *inside* a
        // limit-restriction's nested list, which is the spot a lazy
        // decoder would be most tempted to skip over.
        let mut e = Encoder::new();
        e.count(1); // one restriction in the set
        e.u8(8).count(1); // limit-restriction, one server
        e.str("s");
        e.count(1); // one nested restriction ...
        e.u8(99); // ... with an unknown tag
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(
            RestrictionSet::decode_from(&mut d),
            Err(DecodeError::BadTag(99))
        );
    }

    #[test]
    fn deeply_nested_limit_restriction_rejected_not_overflowed() {
        // 64 levels of limit-restriction nesting — well past the decoder's
        // depth bound; the encoder will happily produce it, the decoder
        // must refuse it instead of recursing toward stack exhaustion.
        let mut r = Restriction::AcceptOnce { id: 1 };
        for _ in 0..64 {
            r = Restriction::LimitRestriction {
                servers: vec![p("s")],
                restrictions: vec![r],
            };
        }
        let set = RestrictionSet::from_vec(vec![r]);
        let mut e = Encoder::new();
        set.encode_into(&mut e);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(
            RestrictionSet::decode_from(&mut d),
            Err(DecodeError::TooDeep(crate::encode::MAX_DECODE_DEPTH))
        );
    }

    #[test]
    fn restriction_count_bounded_by_input_size() {
        // A count prefix claiming 2^20 restrictions with 4 bytes behind it
        // must fail before any allocation proportional to the count.
        let mut e = Encoder::new();
        e.count(1 << 20).u32(0);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        assert_eq!(
            RestrictionSet::decode_from(&mut d),
            Err(DecodeError::BadLength(1 << 20))
        );
    }

    #[test]
    fn has_grantee_classifies_proxy_kind() {
        assert!(!RestrictionSet::new().has_grantee()); // bearer
        let delegate = RestrictionSet::new().with(Restriction::grantee_one(p("x")));
        assert!(delegate.has_grantee());
        assert_eq!(delegate.delegates(), vec![&p("x")]);
    }

    #[test]
    fn empty_set_allows_everything() {
        let set = RestrictionSet::new();
        let mut guard = ReplayCache::new();
        assert_eq!(
            set.evaluate(&base_ctx(), &p("g"), Timestamp(1), &mut guard),
            Ok(())
        );
    }
}
