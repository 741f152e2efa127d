//! The group server (§3.3): grants proxies that delegate the right to
//! assert membership in a group, and publishes sealed membership
//! artifacts so end-servers can answer asserts locally.
//!
//! Group proxies are *delegate* proxies (membership is not transferable)
//! and always carry an explicit `group-membership` restriction (§7.6) so a
//! proxy never accidentally asserts every group the server maintains.
//!
//! Every operation takes `&self`: per-group state lives in a lock-striped
//! [`ShardMap`] (one shard lock per touched group, never two — DESIGN.md
//! §9) and the proxy serial counter is an atomic, matching the PR-2
//! migration of the other three servers. Each group publishes its own
//! epoch feed ([`restricted_proxy::epoch`]): membership changes bump the
//! group's epoch only when published, and [`GroupServer::updates_since`]
//! hands a lagging mirror what it is missing.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::RngCore;

use restricted_proxy::encode::Bounded;
use restricted_proxy::epoch::{DeltaLog, Publisher, Taken};
use restricted_proxy::key::GrantAuthority;
use restricted_proxy::membership::{member_digest, MemberDigest, MembershipArtifact, RosterChange};
use restricted_proxy::principal::{GroupName, PrincipalId};
use restricted_proxy::proxy::{grant, Proxy};
use restricted_proxy::restriction::{Restriction, RestrictionSet};
use restricted_proxy::shard::ShardMap;
use restricted_proxy::time::Validity;

use crate::error::AuthzError;

/// Per-group state under one shard lock.
#[derive(Debug, Default)]
struct GroupState {
    members: BTreeSet<PrincipalId>,
    /// Digest changes since the last publication, sorted, so that a
    /// change cancelling a pending one costs a lookup, not a scan.
    pending_adds: BTreeSet<MemberDigest>,
    pending_removes: BTreeSet<MemberDigest>,
    /// The published epoch and the deltas lagging mirrors catch up from,
    /// shared out from under the stripe: its lock comes before the
    /// stripe's, never after.
    feed: Arc<DeltaLog<RosterChange>>,
}

/// Queues `digest` into `queue`, unless it cancels a pending change in
/// `other`: the mirror never saw the member join (or leave).
fn queue(
    other: &mut BTreeSet<MemberDigest>,
    queue: &mut BTreeSet<MemberDigest>,
    digest: MemberDigest,
) {
    if !other.remove(&digest) {
        queue.insert(digest);
    }
}

/// One group's publishes: the pending digests and the roster are taken
/// under the group's stripe, and the roster is digested after it is
/// released.
struct Roster<'a> {
    server: &'a GroupServer,
    group: &'a str,
}

impl Publisher for Roster<'_> {
    type Payload = RosterChange;
    type State = BTreeSet<PrincipalId>;

    fn subject(&self) -> GroupName {
        self.server.global_name(self.group)
    }

    fn authority(&self) -> &GrantAuthority {
        &self.server.authority
    }

    fn take(&self, copy_state: bool) -> Option<Taken<RosterChange, BTreeSet<PrincipalId>>> {
        self.server.groups.update(&self.group.to_string(), |state| {
            let state = state?;
            let pending = !(state.pending_adds.is_empty() && state.pending_removes.is_empty());
            let change = pending.then(|| RosterChange {
                adds: std::mem::take(&mut state.pending_adds)
                    .into_iter()
                    .collect(),
                removes: std::mem::take(&mut state.pending_removes)
                    .into_iter()
                    .collect(),
            });
            Some((change, copy_state.then(|| state.members.clone())))
        })
    }

    fn snapshot(members: BTreeSet<PrincipalId>) -> RosterChange {
        RosterChange::new(members.iter().map(member_digest).collect(), Vec::new())
    }
}

/// A group server maintaining one or more groups. All operations take
/// `&self` and are safe under concurrent use.
#[derive(Debug)]
pub struct GroupServer {
    name: PrincipalId,
    authority: GrantAuthority,
    groups: ShardMap<String, GroupState>,
    next_serial: AtomicU64,
}

impl GroupServer {
    /// Creates a group server signing proxies with `authority`.
    #[must_use]
    pub fn new(name: PrincipalId, authority: GrantAuthority) -> Self {
        Self {
            name,
            authority,
            groups: ShardMap::new(),
            next_serial: AtomicU64::new(1),
        }
    }

    /// The server's principal name.
    #[must_use]
    pub fn name(&self) -> &PrincipalId {
        &self.name
    }

    /// The global name of a group on this server.
    #[must_use]
    pub fn global_name(&self, group: &str) -> GroupName {
        GroupName::new(self.name.clone(), group)
    }

    /// Creates an (empty) group; no-op if it exists.
    pub fn create_group(&self, group: &str) {
        self.groups
            .upsert(group.to_string(), GroupState::default, |_| ());
    }

    /// Adds `member` to `group`, creating the group if needed.
    pub fn add_member(&self, group: &str, member: PrincipalId) {
        self.add_members(group, std::iter::once(member));
    }

    /// Adds every member of `members` to `group` in one shard-lock
    /// acquisition — the bulk path for populating large groups.
    pub fn add_members(&self, group: &str, members: impl IntoIterator<Item = PrincipalId>) {
        self.groups
            .upsert(group.to_string(), GroupState::default, |state| {
                for member in members {
                    let digest = member_digest(&member);
                    if state.members.insert(member) {
                        queue(&mut state.pending_removes, &mut state.pending_adds, digest);
                    }
                }
            });
    }

    /// Removes `member` from `group`.
    pub fn remove_member(&self, group: &str, member: &PrincipalId) {
        self.groups.update(&group.to_string(), |state| {
            if let Some(state) = state {
                if state.members.remove(member) {
                    let digest = member_digest(member);
                    queue(&mut state.pending_adds, &mut state.pending_removes, digest);
                }
            }
        });
    }

    /// True when `member` belongs to `group`.
    #[must_use]
    pub fn is_member(&self, group: &str, member: &PrincipalId) -> bool {
        self.groups.read(&group.to_string(), |state| {
            state.is_some_and(|s| s.members.contains(member))
        })
    }

    /// Number of groups maintained.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Members currently in `group` (None when the group does not exist).
    #[must_use]
    pub fn member_count(&self, group: &str) -> Option<usize> {
        self.groups
            .read(&group.to_string(), |state| state.map(|s| s.members.len()))
    }

    /// The last published epoch for `group` (0 when never published).
    #[must_use]
    pub fn epoch_of(&self, group: &str) -> u64 {
        self.feed(group).map_or(0, |feed| feed.published())
    }

    /// Publishes pending membership changes for `group` as a sealed
    /// delta, bumping the group's epoch. Returns `None` when the group
    /// does not exist or nothing is pending.
    pub fn publish_delta(&self, group: &str) -> Option<MembershipArtifact> {
        self.feed(group)?.publish_delta(&self.roster(group))
    }

    /// Publishes the complete membership of `group` as a sealed snapshot
    /// at the current epoch (pending changes are folded in first as a
    /// delta). Returns `None` when the group does not exist.
    pub fn publish_snapshot(&self, group: &str) -> Option<MembershipArtifact> {
        self.feed(group)?.publish_snapshot(&self.roster(group))
    }

    /// The artifacts that bring a mirror of `group` at `have_epoch` up to
    /// date: the contiguous delta chain when the log covers it, else one
    /// snapshot. Pending changes are published first. Empty when the
    /// mirror is already current or the group does not exist.
    pub fn updates_since(&self, group: &str, have_epoch: u64) -> Vec<MembershipArtifact> {
        self.feed(group).map_or_else(Vec::new, |feed| {
            feed.updates_since(have_epoch, &self.roster(group))
        })
    }

    fn roster<'a>(&'a self, group: &'a str) -> Roster<'a> {
        Roster {
            server: self,
            group,
        }
    }

    /// The feed of `group`, taken out from under its stripe, so that
    /// its lock is never taken with the stripe held.
    fn feed(&self, group: &str) -> Option<Arc<DeltaLog<RosterChange>>> {
        self.groups.read(&group.to_string(), |state| {
            state.map(|s| Arc::clone(&s.feed))
        })
    }

    /// Issues a membership proxy for `requester` covering `groups`.
    ///
    /// The requester must already be authenticated to the group server (the
    /// caller guarantees this, e.g. via a Kerberos AP exchange); this
    /// method checks membership and returns a delegate proxy carrying
    /// `grantee = requester` and `group-membership = groups`.
    ///
    /// # Errors
    ///
    /// [`AuthzError::UnknownGroup`] / [`AuthzError::NotAMember`].
    pub fn membership_proxy<R: RngCore>(
        &self,
        requester: &PrincipalId,
        groups: &[&str],
        validity: Validity,
        rng: &mut R,
    ) -> Result<Proxy, AuthzError> {
        let mut names = Bounded::len_of(groups).vec();
        for g in groups {
            let status = self.groups.read(&(*g).to_string(), |state| {
                state.map(|s| s.members.contains(requester))
            });
            match status {
                None => return Err(AuthzError::UnknownGroup((*g).to_string())),
                Some(false) => {
                    return Err(AuthzError::NotAMember {
                        group: (*g).to_string(),
                        principal: requester.clone(),
                    })
                }
                Some(true) => names.push(self.global_name(g)),
            }
        }
        let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
        let restrictions = RestrictionSet::new()
            .with(Restriction::grantee_one(requester.clone()))
            .with(Restriction::GroupMembership { groups: names });
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
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use restricted_proxy::epoch::{ArtifactKind, DELTA_LOG_DEPTH};
    use restricted_proxy::key::GrantorVerifier;
    use restricted_proxy::membership::{MembershipAnswer, MembershipDirectory};
    use restricted_proxy::time::Timestamp;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn server(rng: &mut StdRng) -> (GroupServer, GrantorVerifier) {
        let key = SymmetricKey::generate(rng);
        (
            GroupServer::new(p("gs"), GrantAuthority::SharedKey(key.clone())),
            GrantorVerifier::SharedKey(key),
        )
    }

    #[test]
    fn membership_management() {
        let mut rng = StdRng::seed_from_u64(1);
        let (gs, _) = server(&mut rng);
        gs.add_member("staff", p("bob"));
        assert!(gs.is_member("staff", &p("bob")));
        gs.remove_member("staff", &p("bob"));
        assert!(!gs.is_member("staff", &p("bob")));
        gs.create_group("empty");
        assert_eq!(gs.group_count(), 2);
    }

    #[test]
    fn proxy_issued_only_to_members() {
        let mut rng = StdRng::seed_from_u64(2);
        let (gs, _) = server(&mut rng);
        gs.add_member("staff", p("bob"));
        let window = Validity::new(Timestamp(0), Timestamp(100));
        let proxy = gs
            .membership_proxy(&p("bob"), &["staff"], window, &mut rng)
            .unwrap();
        assert!(proxy.is_delegate(), "membership is not transferable");
        assert_eq!(
            gs.membership_proxy(&p("carol"), &["staff"], window, &mut rng)
                .unwrap_err(),
            AuthzError::NotAMember {
                group: "staff".into(),
                principal: p("carol")
            }
        );
        assert_eq!(
            gs.membership_proxy(&p("bob"), &["nogroup"], window, &mut rng)
                .unwrap_err(),
            AuthzError::UnknownGroup("nogroup".into())
        );
    }

    #[test]
    fn proxy_lists_exactly_requested_groups() {
        let mut rng = StdRng::seed_from_u64(3);
        let (gs, _) = server(&mut rng);
        gs.add_member("staff", p("bob"));
        gs.add_member("admins", p("bob"));
        let window = Validity::new(Timestamp(0), Timestamp(100));
        let proxy = gs
            .membership_proxy(&p("bob"), &["staff"], window, &mut rng)
            .unwrap();
        let listed: Vec<_> = proxy
            .combined_restrictions()
            .iter()
            .filter_map(|r| match r {
                Restriction::GroupMembership { groups } => Some(groups.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        // §7.6: the proxy asserts only "staff", not everything bob is in.
        assert_eq!(listed, vec![gs.global_name("staff")]);
    }

    #[test]
    fn publishes_sealed_deltas_and_snapshots() {
        let mut rng = StdRng::seed_from_u64(4);
        let (gs, verifier) = server(&mut rng);
        assert!(gs.publish_delta("staff").is_none(), "unknown group");
        gs.add_member("staff", p("bob"));
        gs.add_member("staff", p("carol"));
        let d1 = gs.publish_delta("staff").unwrap();
        assert_eq!(d1.epoch, 1);
        assert_eq!(d1.kind, ArtifactKind::Delta { base_epoch: 0 });
        assert_eq!(d1.payload.adds.len(), 2);
        assert!(d1.verify_seal(&verifier));
        assert!(gs.publish_delta("staff").is_none(), "nothing pending");
        // Add+remove of the same member inside one window cancels out.
        gs.add_member("staff", p("dave"));
        gs.remove_member("staff", &p("dave"));
        gs.remove_member("staff", &p("carol"));
        let d2 = gs.publish_delta("staff").unwrap();
        assert_eq!(d2.epoch, 2);
        assert!(d2.payload.adds.is_empty());
        assert_eq!(d2.payload.removes, vec![member_digest(&p("carol"))]);
        let snap = gs.publish_snapshot("staff").unwrap();
        assert_eq!(snap.epoch, 2, "snapshot rides the current epoch");
        assert_eq!(snap.payload.adds, vec![member_digest(&p("bob"))]);
    }

    #[test]
    fn churn_that_cancels_out_publishes_no_delta() {
        let mut rng = StdRng::seed_from_u64(6);
        let (gs, _) = server(&mut rng);
        let people: Vec<PrincipalId> = (0..500).map(|i| p(&format!("u{i}"))).collect();
        gs.add_member("staff", p("keeper"));
        gs.publish_delta("staff").unwrap();
        gs.add_members("staff", people.iter().cloned());
        for who in people.iter().rev() {
            gs.remove_member("staff", who);
        }
        gs.remove_member("staff", &p("keeper"));
        gs.add_member("staff", p("keeper"));
        assert!(gs.publish_delta("staff").is_none(), "nothing net changed");
        assert_eq!(gs.epoch_of("staff"), 1);
    }

    #[test]
    fn mixed_churn_publishes_exactly_the_net_change() {
        let mut rng = StdRng::seed_from_u64(7);
        let (gs, _) = server(&mut rng);
        let people: Vec<PrincipalId> = (0..300).map(|i| p(&format!("u{i}"))).collect();
        // Published roster: u0..u199.
        gs.add_members("staff", people[..200].iter().cloned());
        gs.publish_delta("staff").unwrap();
        // Unpublished churn: u100..u299 join, then every third of
        // u0..u299 leaves, then every sixth comes back.
        gs.add_members("staff", people[100..].iter().cloned());
        for who in people.iter().step_by(3) {
            gs.remove_member("staff", who);
        }
        gs.add_members("staff", people.iter().step_by(6).cloned());
        let was = |i: usize| i < 200;
        let is = |i: usize| !i.is_multiple_of(3) || i.is_multiple_of(6);
        let digests = |keep: &dyn Fn(usize) -> bool| {
            let mut d: Vec<MemberDigest> = (0..300)
                .filter(|&i| keep(i))
                .map(|i| member_digest(&people[i]))
                .collect();
            d.sort_unstable();
            d
        };
        let delta = gs.publish_delta("staff").unwrap();
        assert_eq!(delta.payload.adds, digests(&|i| is(i) && !was(i)));
        assert_eq!(delta.payload.removes, digests(&|i| was(i) && !is(i)));
        let snapshot = gs.publish_snapshot("staff").unwrap();
        assert_eq!(snapshot.payload.adds, digests(&is));
    }

    #[test]
    fn mirror_syncs_via_updates_since() {
        let mut rng = StdRng::seed_from_u64(5);
        let (gs, verifier) = server(&mut rng);
        let dir = MembershipDirectory::new();
        let staff = gs.global_name("staff");
        gs.add_members("staff", (0..100).map(|i| p(&format!("u{i}"))));
        for artifact in gs.updates_since("staff", dir.epoch_of(&staff)) {
            assert!(artifact.verify_seal(&verifier));
            dir.apply_verified(&artifact).unwrap();
        }
        assert_eq!(dir.assert(&staff, &p("u42")), MembershipAnswer::Member);
        assert_eq!(
            dir.assert(&staff, &p("mallory")),
            MembershipAnswer::NotMember
        );
        // Incremental catch-up: one membership change → one delta.
        gs.remove_member("staff", &p("u42"));
        let updates = gs.updates_since("staff", dir.epoch_of(&staff));
        assert_eq!(updates.len(), 1);
        assert!(matches!(updates[0].kind, ArtifactKind::Delta { .. }));
        for artifact in updates {
            dir.apply_verified(&artifact).unwrap();
        }
        assert_eq!(dir.assert(&staff, &p("u42")), MembershipAnswer::NotMember);
        assert_eq!(dir.epoch_of(&staff), gs.epoch_of("staff"));
        // A mirror far behind a truncated log falls back to a snapshot.
        for i in 0..(DELTA_LOG_DEPTH as u64 + 4) {
            gs.add_member("staff", p(&format!("late{i}")));
            gs.publish_delta("staff");
        }
        let updates = gs.updates_since("staff", 1);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].kind, ArtifactKind::Snapshot);
    }
}
