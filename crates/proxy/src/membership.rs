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

use crate::cert::CertSeal;
use crate::encode::{DecodeError, Decoder, Encoder};
use crate::epoch::{authenticate, decode_artifact_body, ArtifactError, ArtifactKind, EpochMirror};
use crate::key::{GrantAuthority, GrantorVerifier, KeyResolver};
use crate::principal::{GroupName, PrincipalId};

/// Domain-separation label for member digests.
const MEMBER_DIGEST_LABEL: &[u8] = b"proxy-aa member digest v1";

/// Domain-separation label sealed over by membership artifacts.
const ARTIFACT_LABEL: &[u8] = b"proxy-aa membership artifact v1";

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

/// A sealed, epoch-numbered membership announcement for one group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MembershipArtifact {
    /// The group this artifact describes; `group.server` is the only
    /// principal whose authority may seal it.
    pub group: GroupName,
    /// Monotone publication counter per group.
    pub epoch: u64,
    /// Snapshot or delta semantics.
    pub kind: ArtifactKind,
    /// Members added (or, for snapshots, the full set), sorted ascending.
    pub adds: Vec<MemberDigest>,
    /// Members removed; empty for snapshots, sorted ascending.
    pub removes: Vec<MemberDigest>,
    /// Seal over [`MembershipArtifact::body_bytes`] by the group server.
    pub seal: CertSeal,
}

fn encode_digests(e: &mut Encoder, digests: &[MemberDigest]) {
    e.count(digests.len());
    for d in digests {
        e.raw(d);
    }
}

fn decode_digests(d: &mut Decoder<'_>) -> Result<Vec<MemberDigest>, DecodeError> {
    let n = d.counted(MEMBER_DIGEST_LEN)?;
    if n > MAX_MEMBER_DIGESTS {
        return Err(DecodeError::BadLength(n as u64));
    }
    let mut out = Vec::with_capacity(n);
    let mut prev: Option<MemberDigest> = None;
    for _ in 0..n {
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

impl MembershipArtifact {
    /// The canonical byte string the seal covers.
    #[must_use]
    pub fn body_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(ARTIFACT_LABEL);
        e.str(self.group.server.as_str());
        e.str(&self.group.name);
        e.u64(self.epoch);
        self.kind.encode_onto(&mut e);
        encode_digests(&mut e, &self.adds);
        encode_digests(&mut e, &self.removes);
        e.finish()
    }

    /// Builds and seals an artifact under the group server's
    /// `authority`. Digest lists are sorted and deduplicated into
    /// canonical form before sealing.
    #[must_use]
    pub fn seal(
        group: GroupName,
        epoch: u64,
        kind: ArtifactKind,
        mut adds: Vec<MemberDigest>,
        mut removes: Vec<MemberDigest>,
        authority: &GrantAuthority,
    ) -> Self {
        adds.sort_unstable();
        adds.dedup();
        removes.sort_unstable();
        removes.dedup();
        let mut artifact = Self {
            group,
            epoch,
            kind,
            adds,
            removes,
            seal: CertSeal::UNSEALED,
        };
        artifact.seal = authority.seal(&artifact.body_bytes());
        artifact
    }

    /// Checks the seal against the group server's verification material;
    /// flavor mismatches fail closed.
    #[must_use]
    pub fn verify_seal(&self, verifier: &GrantorVerifier) -> bool {
        verifier.verify_seal(&self.body_bytes(), &self.seal)
    }

    /// Full wire encoding (body + seal).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_onto(&mut e);
        e.finish()
    }

    /// Appends the wire encoding to `e`.
    pub fn encode_onto(&self, e: &mut Encoder) {
        e.bytes(&self.body_bytes());
        self.seal.encode_onto(e);
    }

    /// Decodes one artifact from a decoder stream. The result is
    /// *unverified*: its seal must still be checked.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input, including unsorted or
    /// duplicate digests and snapshots carrying removals.
    pub fn decode_from(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let body = decode_artifact_body(d)?.to_vec();
        let seal = CertSeal::decode_from(d)?;
        let mut b = Decoder::new(&body);
        if b.bytes()? != ARTIFACT_LABEL {
            return Err(DecodeError::InvalidValue("membership artifact label"));
        }
        let server = b.principal()?;
        let name = b.str()?.to_string();
        let epoch = b.u64()?;
        let kind = ArtifactKind::decode_from(&mut b, epoch)?;
        let adds = decode_digests(&mut b)?;
        let removes = decode_digests(&mut b)?;
        if kind == ArtifactKind::Snapshot && !removes.is_empty() {
            return Err(DecodeError::InvalidValue("snapshot with removals"));
        }
        b.finish()?;
        Ok(Self {
            group: GroupName::new(server, name),
            epoch,
            kind,
            adds,
            removes,
            seal,
        })
    }

    /// Decodes [`MembershipArtifact::encode`] output, rejecting trailing
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input.
    pub fn decode(input: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(input);
        let artifact = Self::decode_from(&mut d)?;
        d.finish()?;
        Ok(artifact)
    }
}

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
/// authorization hot path. `assert` probes under one shared shard
/// read-lock; applying artifacts never blocks it (see [`crate::epoch`]).
#[derive(Debug, Default)]
pub struct MembershipDirectory {
    mirrors: EpochMirror<GroupName, HashSet<MemberDigest>>,
}

impl MembershipDirectory {
    /// An empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The mirrored epoch for `group` (0 when no artifact has applied).
    #[must_use]
    pub fn epoch_of(&self, group: &GroupName) -> u64 {
        self.mirrors.epoch_of(group)
    }

    /// Mirrored member count for `group`, when a mirror exists.
    #[must_use]
    pub fn member_count(&self, group: &GroupName) -> Option<usize> {
        self.mirrors.read(group, |m| m.map(HashSet::len))
    }

    /// Answers a membership assert from the mirror alone — no round
    /// trips, and always the mirror's current answer.
    #[must_use]
    pub fn assert(&self, group: &GroupName, principal: &PrincipalId) -> MembershipAnswer {
        let digest = member_digest(principal);
        match self.mirrors.read(group, |m| m.map(|m| m.contains(&digest))) {
            Some(true) => MembershipAnswer::Member,
            Some(false) => MembershipAnswer::NotMember,
            None => MembershipAnswer::Unknown,
        }
    }

    /// The intake of an artifact as received: its seal must verify
    /// under the key `resolver` holds for the group's server — the only
    /// acceptable sealer — and only then is it applied
    /// ([`Self::apply_verified`]).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnknownIssuer`] / [`ArtifactError::BadSeal`],
    /// and those of [`Self::apply_verified`].
    pub fn apply_sealed(
        &self,
        artifact: &MembershipArtifact,
        resolver: &impl KeyResolver,
    ) -> Result<(), ArtifactError> {
        let (issuer, body) = (&artifact.group.server, artifact.body_bytes());
        authenticate(resolver, issuer, &body, &artifact.seal)?;
        self.apply_verified(artifact)
    }

    /// Applies a *seal-verified* artifact. Snapshots must advance the
    /// epoch (or establish a first mirror); deltas must extend the exact
    /// current epoch. Rejections leave the last good state enforced.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::EpochRegression`] / [`ArtifactError::BaseMismatch`].
    pub fn apply_verified(&self, artifact: &MembershipArtifact) -> Result<(), ArtifactError> {
        self.mirrors.apply(
            artifact.group.clone(),
            artifact.epoch,
            artifact.kind,
            || artifact.adds.iter().copied().collect(),
            |current| {
                let mut next = current.clone();
                next.extend(&artifact.adds);
                for d in &artifact.removes {
                    next.remove(d);
                }
                next
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            adds,
            Vec::new(),
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
            vec![[2u8; 16], [1u8; 16]],
            Vec::new(),
            &authority,
        );
        // seal() canonicalized; forge an unsorted body by hand.
        artifact.adds = vec![[2u8; 16], [1u8; 16]];
        assert!(MembershipArtifact::decode(&artifact.encode()).is_err());
        // Snapshot with removals is malformed.
        let mut bad = MembershipArtifact::seal(
            g("staff"),
            1,
            ArtifactKind::Delta { base_epoch: 0 },
            vec![[1u8; 16]],
            vec![[3u8; 16]],
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
            vec![member_digest(&p("alice"))],
            Vec::new(),
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
            vec![member_digest(&p("alice")), member_digest(&p("bob"))],
            Vec::new(),
            &authority,
        );
        dir.apply_verified(&snap).unwrap();
        let delta = MembershipArtifact::seal(
            g("staff"),
            2,
            ArtifactKind::Delta { base_epoch: 1 },
            vec![member_digest(&p("carol"))],
            vec![member_digest(&p("bob"))],
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
            Vec::new(),
            Vec::new(),
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
            vec![member_digest(&p("mallory"))],
            Vec::new(),
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
            Vec::new(),
            Vec::new(),
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
            vec![member_digest(&p("dave"))],
            Vec::new(),
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
                        digests(&members),
                        Vec::new(),
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
                        digests(&adds),
                        digests(&removes),
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
