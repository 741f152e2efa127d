//! Signed group-membership snapshots with round-trip-free asserts.
//!
//! The paper's group server (§3.3) answers "is P a member of G?" per
//! query — a round trip on every cascade verify that names a group. This
//! module lets the group server publish its membership as sealed,
//! epoch-numbered artifacts (a payload of the [`crate::epoch`] feed,
//! like [`crate::revocation`]), so an end-server holding a current
//! mirror answers membership *locally*, in O(1), with zero round trips.
//!
//! Members travel as 16-byte truncated SHA-256 digests of the principal
//! name under a domain-separation label: canonical, fixed-size, and a
//! million-member group fits in 16 MB of sorted digests rather than an
//! unbounded list of strings. Digest truncation is safe here because the
//! artifact seal — not the digest — carries integrity; a digest only
//! selects a set slot.
//!
//! Three-valued answers keep the fallback honest: [`MembershipAnswer`]
//! distinguishes *mirrored and present*, *mirrored and absent*, and *no
//! mirror* — only the last forces the caller back to a query round trip
//! (or a membership proxy, the paper's own mechanism). An assert is one
//! digest, one shard read and one set lookup; there is no answer cache
//! in front of it that an update could leave stale.

// L1, panic-free decode (DESIGN.md §11): this module parses bytes a peer
// chose, so outside test code a reachable panic is a remote crash.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::disallowed_macros,
    )
)]

use std::collections::HashSet;

use proxy_crypto::sha256::Sha256;

use crate::encode::{DecodeError, Decoder, Encoder};
use crate::epoch::{Artifact, ArtifactKind, Directory, Payload};
use crate::principal::{GroupName, PrincipalId};

/// Domain-separation label for member digests.
const MEMBER_DIGEST_LABEL: &[u8] = b"proxy-aa member digest v1";

/// Bytes of a truncated member digest.
pub const MEMBER_DIGEST_LEN: usize = 16;

/// Most digests accepted in one artifact list (adds or removes). At 16
/// bytes each this bounds a hostile allocation to 32 MB for a claimed
/// 2M-entry list that must actually be present in the input.
pub const MAX_MEMBER_DIGESTS: usize = 1 << 21;

/// A 16-byte truncated, domain-separated SHA-256 digest of a principal
/// name — the unit of membership in artifacts and mirrors.
pub type MemberDigest = [u8; MEMBER_DIGEST_LEN];

/// Digest of `principal` for membership purposes.
#[must_use]
pub fn member_digest(principal: &PrincipalId) -> MemberDigest {
    let mut h = Sha256::new();
    h.update(MEMBER_DIGEST_LABEL);
    h.update(principal.as_str().as_bytes());
    let full = h.finalize();
    let mut out = [0u8; MEMBER_DIGEST_LEN];
    for (o, b) in out.iter_mut().zip(full.iter()) {
        *o = *b;
    }
    out
}

/// A membership artifact's payload: members added (for a snapshot, the
/// whole roster) and removed (empty in a snapshot), each list sorted
/// ascending without repeats — the one canonical form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RosterChange {
    /// Members added, or the full roster in a snapshot.
    pub adds: Vec<MemberDigest>,
    /// Members removed.
    pub removes: Vec<MemberDigest>,
}

impl RosterChange {
    /// A change of `adds` and `removes` in canonical form: each list
    /// sorted and deduplicated.
    #[must_use]
    pub fn new(mut adds: Vec<MemberDigest>, mut removes: Vec<MemberDigest>) -> Self {
        for list in [&mut adds, &mut removes] {
            list.sort_unstable();
            list.dedup();
        }
        Self { adds, removes }
    }
}

fn encode_digests(e: &mut Encoder, digests: &[MemberDigest]) {
    e.count(digests.len());
    for d in digests {
        e.raw(d);
    }
}

fn decode_digests(d: &mut Decoder<'_>) -> Result<Vec<MemberDigest>, DecodeError> {
    let n = d.counted(MEMBER_DIGEST_LEN)?;
    if n.get() > MAX_MEMBER_DIGESTS {
        return Err(DecodeError::BadLength(n.get() as u64));
    }
    let mut out = n.vec();
    let mut prev: Option<MemberDigest> = None;
    for _ in 0..n.get() {
        let digest: MemberDigest = d.raw_array::<MEMBER_DIGEST_LEN>()?;
        // Canonical form is strictly increasing: rejects duplicates and
        // unsorted lists, and makes the encoding unique per set.
        if prev.is_some_and(|p| p >= digest) {
            return Err(DecodeError::InvalidValue("member digests not increasing"));
        }
        prev = Some(digest);
        out.push(digest);
    }
    Ok(out)
}

impl Payload for RosterChange {
    const LABEL: &'static [u8] = b"proxy-aa membership artifact v1";
    type Subject = GroupName;
    type State = HashSet<MemberDigest>;

    fn issuer(group: &GroupName) -> &PrincipalId {
        &group.server
    }

    fn encode_subject(group: &GroupName, e: &mut Encoder) {
        e.str(group.server.as_str()).str(&group.name);
    }

    fn decode_subject(d: &mut Decoder<'_>) -> Result<GroupName, DecodeError> {
        let server = d.principal()?;
        Ok(GroupName::new(server, d.str()?))
    }

    fn encode_payload(&self, e: &mut Encoder) {
        encode_digests(e, &self.adds);
        encode_digests(e, &self.removes);
    }

    fn decode_payload(d: &mut Decoder<'_>, kind: ArtifactKind) -> Result<Self, DecodeError> {
        let adds = decode_digests(d)?;
        let removes = decode_digests(d)?;
        if kind == ArtifactKind::Snapshot && !removes.is_empty() {
            return Err(DecodeError::InvalidValue("snapshot with removals"));
        }
        Ok(Self { adds, removes })
    }

    fn replace(&self) -> HashSet<MemberDigest> {
        self.adds.iter().copied().collect()
    }

    fn extend(&self, current: &HashSet<MemberDigest>) -> HashSet<MemberDigest> {
        let mut next = current.clone();
        next.extend(&self.adds);
        for d in &self.removes {
            next.remove(d);
        }
        next
    }
}

/// A sealed, epoch-numbered membership announcement for one group;
/// `group.server` is the only principal whose authority may seal it.
pub type MembershipArtifact = Artifact<RosterChange>;

/// What a local membership mirror can say about an assert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipAnswer {
    /// Mirrored and present — grant the group claim.
    Member,
    /// Mirrored and absent — deny the group claim without a round trip.
    NotMember,
    /// No mirror for this group: the caller must fall back to a group
    /// server query or a membership proxy (never assume membership).
    Unknown,
}

/// The receiver side: per-group membership mirrors consulted on the
/// authorization hot path.
pub type MembershipDirectory = Directory<RosterChange>;

impl Directory<RosterChange> {
    /// Mirrored member count for `group`, when a mirror exists.
    #[must_use]
    pub fn member_count(&self, group: &GroupName) -> Option<usize> {
        self.read(group, |m| m.map(HashSet::len))
    }

    /// Answers a membership assert from the mirror alone — one digest,
    /// one shared shard read-lock, no round trips, and always the
    /// mirror's current answer.
    #[must_use]
    pub fn assert(&self, group: &GroupName, principal: &PrincipalId) -> MembershipAnswer {
        let digest = member_digest(principal);
        match self.read(group, |m| m.map(|m| m.contains(&digest))) {
            Some(true) => MembershipAnswer::Member,
            Some(false) => MembershipAnswer::NotMember,
            None => MembershipAnswer::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::ArtifactError;
    use crate::key::{GrantAuthority, GrantorVerifier};
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    fn g(name: &str) -> GroupName {
        GroupName::new(p("groups"), name)
    }

    fn auth_pair() -> (GrantAuthority, GrantorVerifier) {
        let mut rng = StdRng::seed_from_u64(7);
        let k = SymmetricKey::generate(&mut rng);
        (
            GrantAuthority::SharedKey(k.clone()),
            GrantorVerifier::SharedKey(k),
        )
    }

    #[test]
    fn digests_are_stable_and_distinct() {
        assert_eq!(member_digest(&p("alice")), member_digest(&p("alice")));
        assert_ne!(member_digest(&p("alice")), member_digest(&p("bob")));
    }

    #[test]
    fn artifact_round_trip_and_seal() {
        let (authority, verifier) = auth_pair();
        let adds = vec![member_digest(&p("alice")), member_digest(&p("bob"))];
        let artifact = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Snapshot,
            RosterChange::new(adds, Vec::new()),
            &authority,
        );
        assert!(artifact.verify_seal(&verifier));
        let back = MembershipArtifact::decode(&artifact.encode()).unwrap();
        assert_eq!(back, artifact);
        assert!(back.verify_seal(&verifier));
    }

    #[test]
    fn decode_rejects_unsorted_digests_and_snapshot_removals() {
        let (authority, _) = auth_pair();
        let mut artifact = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Snapshot,
            RosterChange::new(vec![[2u8; 16], [1u8; 16]], Vec::new()),
            &authority,
        );
        // seal() canonicalized; forge an unsorted body by hand.
        artifact.payload.adds = vec![[2u8; 16], [1u8; 16]];
        assert!(MembershipArtifact::decode(&artifact.encode()).is_err());
        // Snapshot with removals is malformed.
        let mut bad = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Delta { base_epoch: 0 },
            RosterChange::new(vec![[1u8; 16]], vec![[3u8; 16]]),
            &authority,
        );
        bad.kind = ArtifactKind::Snapshot;
        assert!(MembershipArtifact::decode(&bad.encode()).is_err());
    }

    #[test]
    fn directory_asserts_member_notmember_unknown() {
        let (authority, _) = auth_pair();
        let dir = MembershipDirectory::new();
        assert_eq!(
            dir.assert(&g("staff"), &p("alice")),
            MembershipAnswer::Unknown,
            "no mirror yet: must fall back, never assume"
        );
        let snap = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Snapshot,
            RosterChange::new(vec![member_digest(&p("alice"))], Vec::new()),
            &authority,
        );
        dir.apply_verified(&snap).unwrap();
        assert_eq!(
            dir.assert(&g("staff"), &p("alice")),
            MembershipAnswer::Member
        );
        assert_eq!(
            dir.assert(&g("staff"), &p("bob")),
            MembershipAnswer::NotMember
        );
        // Other groups are still unmirrored.
        assert_eq!(
            dir.assert(&g("faculty"), &p("alice")),
            MembershipAnswer::Unknown
        );
    }

    #[test]
    fn deltas_add_and_remove_members() {
        let (authority, _) = auth_pair();
        let dir = MembershipDirectory::new();
        let snap = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Snapshot,
            RosterChange::new(
                vec![member_digest(&p("alice")), member_digest(&p("bob"))],
                Vec::new(),
            ),
            &authority,
        );
        dir.apply_verified(&snap).unwrap();
        let delta = MembershipArtifact::seal(
            g("staff"),
            2,
            ArtifactKind::Delta { base_epoch: 1 },
            RosterChange::new(
                vec![member_digest(&p("carol"))],
                vec![member_digest(&p("bob"))],
            ),
            &authority,
        );
        dir.apply_verified(&delta).unwrap();
        assert_eq!(
            dir.assert(&g("staff"), &p("carol")),
            MembershipAnswer::Member
        );
        assert_eq!(
            dir.assert(&g("staff"), &p("bob")),
            MembershipAnswer::NotMember
        );
        assert_eq!(dir.member_count(&g("staff")), Some(2));
        // Epoch rollback and wrong-base deltas rejected, state kept.
        let rollback = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Snapshot,
            RosterChange::new(Vec::new(), Vec::new()),
            &authority,
        );
        assert!(matches!(
            dir.apply_verified(&rollback),
            Err(ArtifactError::EpochRegression { .. })
        ));
        let wrong_base = MembershipArtifact::seal(
            g("staff"),
            9,
            ArtifactKind::Delta { base_epoch: 7 },
            RosterChange::new(vec![member_digest(&p("mallory"))], Vec::new()),
            &authority,
        );
        assert!(matches!(
            dir.apply_verified(&wrong_base),
            Err(ArtifactError::BaseMismatch { .. })
        ));
        assert_eq!(
            dir.assert(&g("staff"), &p("mallory")),
            MembershipAnswer::NotMember
        );
    }

    #[test]
    fn a_denial_does_not_outlive_the_update_that_adds_the_member() {
        let (authority, _) = auth_pair();
        let dir = MembershipDirectory::new();
        let snap = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Snapshot,
            RosterChange::new(Vec::new(), Vec::new()),
            &authority,
        );
        dir.apply_verified(&snap).unwrap();
        assert_eq!(
            dir.assert(&g("staff"), &p("dave")),
            MembershipAnswer::NotMember
        );
        let delta = MembershipArtifact::seal(
            g("staff"),
            2,
            ArtifactKind::Delta { base_epoch: 1 },
            RosterChange::new(vec![member_digest(&p("dave"))], Vec::new()),
            &authority,
        );
        dir.apply_verified(&delta).unwrap();
        assert_eq!(
            dir.assert(&g("staff"), &p("dave")),
            MembershipAnswer::Member,
            "stale negative answer must not outlive the update"
        );
    }

    /// Seeded snapshots and deltas (with removals) interleaved with
    /// asserts: every answer is the one a plain `HashSet` model gives,
    /// and a group that never received an artifact stays `Unknown`.
    #[test]
    fn asserts_agree_with_a_set_model_across_seeded_updates() {
        use rand::Rng;
        use std::collections::HashMap;

        let (authority, _) = auth_pair();
        let people: Vec<PrincipalId> = (0..12).map(|i| p(&format!("u{i}"))).collect();
        // Group 3 never receives an artifact.
        let groups: Vec<GroupName> = (0..4).map(|i| g(&format!("g{i}"))).collect();
        let dir = MembershipDirectory::new();
        let mut model: HashMap<usize, (u64, HashSet<usize>)> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(26);
        let pick = |rng: &mut StdRng| -> Vec<usize> {
            (0..people.len())
                .filter(|_| rng.gen_range(0..10) < 3)
                .collect()
        };
        let digests = |who: &[usize]| -> Vec<MemberDigest> {
            who.iter().map(|&i| member_digest(&people[i])).collect()
        };
        for _ in 0..2_000 {
            let gi = rng.gen_range(0..3);
            match rng.gen_range(0..10) {
                0 => {
                    let epoch = model.get(&gi).map_or(0, |(e, _)| *e) + 1;
                    let members = pick(&mut rng);
                    let snap = MembershipArtifact::seal(
                        groups[gi].clone(),
                        epoch,
                        ArtifactKind::Snapshot,
                        RosterChange::new(digests(&members), Vec::new()),
                        &authority,
                    );
                    dir.apply_verified(&snap).unwrap();
                    model.insert(gi, (epoch, members.into_iter().collect()));
                }
                1 | 2 => {
                    let Some((epoch, set)) = model.get_mut(&gi) else {
                        continue;
                    };
                    let (adds, removes) = (pick(&mut rng), pick(&mut rng));
                    let delta = MembershipArtifact::seal(
                        groups[gi].clone(),
                        *epoch + 1,
                        ArtifactKind::Delta { base_epoch: *epoch },
                        RosterChange::new(digests(&adds), digests(&removes)),
                        &authority,
                    );
                    dir.apply_verified(&delta).unwrap();
                    *epoch += 1;
                    set.extend(adds);
                    for r in &removes {
                        set.remove(r);
                    }
                }
                _ => {
                    let gi = rng.gen_range(0..groups.len());
                    let who = rng.gen_range(0..people.len());
                    let expected = match model.get(&gi) {
                        None => MembershipAnswer::Unknown,
                        Some((_, set)) if set.contains(&who) => MembershipAnswer::Member,
                        Some(_) => MembershipAnswer::NotMember,
                    };
                    assert_eq!(dir.assert(&groups[gi], &people[who]), expected);
                }
            }
        }
        assert_eq!(model.len(), 3, "every updated group was mirrored");
        assert_eq!(
            dir.assert(&groups[3], &people[0]),
            MembershipAnswer::Unknown
        );
    }
}
