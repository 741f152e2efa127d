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

use rand::RngCore;

use restricted_proxy::epoch::{ArtifactKind, DeltaLog};
use restricted_proxy::key::GrantAuthority;
use restricted_proxy::membership::{member_digest, MemberDigest, MembershipArtifact};
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
    /// Digest changes since the last publication.
    pending_adds: Vec<MemberDigest>,
    pending_removes: Vec<MemberDigest>,
    /// The published epoch and the deltas lagging mirrors catch up from.
    feed: DeltaLog<MembershipArtifact>,
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
        self.groups
            .upsert(group.to_string(), GroupState::default, |state| {
                let digest = member_digest(&member);
                if state.members.insert(member) {
                    // A pending remove cancels instead of queueing an add:
                    // the mirror never saw the member leave.
                    if state.pending_removes.contains(&digest) {
                        state.pending_removes.retain(|d| *d != digest);
                    } else {
                        state.pending_adds.push(digest);
                    }
                }
            });
    }

    /// Adds every member of `members` to `group` in one shard-lock
    /// acquisition — the bulk path for populating large groups.
    pub fn add_members(&self, group: &str, members: impl IntoIterator<Item = PrincipalId>) {
        self.groups
            .upsert(group.to_string(), GroupState::default, |state| {
                for member in members {
                    let digest = member_digest(&member);
                    if state.members.insert(member) {
                        if state.pending_removes.contains(&digest) {
                            state.pending_removes.retain(|d| *d != digest);
                        } else {
                            state.pending_adds.push(digest);
                        }
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
                    // A pending add cancels instead of queueing a remove:
                    // the mirror never saw the member join.
                    if state.pending_adds.contains(&digest) {
                        state.pending_adds.retain(|d| *d != digest);
                    } else {
                        state.pending_removes.push(digest);
                    }
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
        self.groups.read(&group.to_string(), |state| {
            state.map_or(0, |s| s.feed.published())
        })
    }

    /// Publishes pending membership changes for `group` as a sealed
    /// delta, bumping the group's epoch. Returns `None` when the group
    /// does not exist or nothing is pending.
    pub fn publish_delta(&self, group: &str) -> Option<MembershipArtifact> {
        let global = self.global_name(group);
        self.groups.update(&group.to_string(), |state| {
            let state = state?;
            if state.pending_adds.is_empty() && state.pending_removes.is_empty() {
                return None;
            }
            let adds = std::mem::take(&mut state.pending_adds);
            let removes = std::mem::take(&mut state.pending_removes);
            Some(state.feed.publish(|base_epoch, epoch| {
                MembershipArtifact::seal(
                    global,
                    epoch,
                    ArtifactKind::Delta { base_epoch },
                    adds,
                    removes,
                    &self.authority,
                )
            }))
        })
    }

    /// Publishes the complete membership of `group` as a sealed snapshot
    /// at the current epoch (pending changes are folded in first).
    /// Returns `None` when the group does not exist.
    pub fn publish_snapshot(&self, group: &str) -> Option<MembershipArtifact> {
        self.publish_delta(group);
        let global = self.global_name(group);
        self.groups.read(&group.to_string(), |state| {
            let state = state?;
            Some(MembershipArtifact::seal(
                global,
                state.feed.published(),
                ArtifactKind::Snapshot,
                state.members.iter().map(member_digest).collect(),
                Vec::new(),
                &self.authority,
            ))
        })
    }

    /// The artifacts that bring a mirror of `group` at `have_epoch` up to
    /// date: the contiguous delta chain when the log covers it, else one
    /// snapshot. Pending changes are published first. Empty when the
    /// mirror is already current or the group does not exist.
    pub fn updates_since(&self, group: &str, have_epoch: u64) -> Vec<MembershipArtifact> {
        self.publish_delta(group);
        let chain = self
            .groups
            .read(&group.to_string(), |state| state?.feed.since(have_epoch));
        match chain {
            Some(chain) => chain,
            None => self.publish_snapshot(group).into_iter().collect(),
        }
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
        let mut names = Vec::with_capacity(groups.len());
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
    use restricted_proxy::epoch::DELTA_LOG_DEPTH;
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
        assert_eq!(d1.adds.len(), 2);
        assert!(d1.verify_seal(&verifier));
        assert!(gs.publish_delta("staff").is_none(), "nothing pending");
        // Add+remove of the same member inside one window cancels out.
        gs.add_member("staff", p("dave"));
        gs.remove_member("staff", &p("dave"));
        gs.remove_member("staff", &p("carol"));
        let d2 = gs.publish_delta("staff").unwrap();
        assert_eq!(d2.epoch, 2);
        assert!(d2.adds.is_empty());
        assert_eq!(d2.removes, vec![member_digest(&p("carol"))]);
        let snap = gs.publish_snapshot("staff").unwrap();
        assert_eq!(snap.epoch, 2, "snapshot rides the current epoch");
        assert_eq!(snap.adds, vec![member_digest(&p("bob"))]);
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
