//! The epoch feed: a publisher numbers its announcements, and every
//! receiver mirrors them without ever moving backwards.
//!
//! Revocation lists ([`crate::revocation`]) and group rosters
//! ([`crate::membership`]) are two payloads of this one feed, and what
//! they share is written here, once (DESIGN.md §14.2):
//!
//! * [`ArtifactKind`] — snapshot or delta: the wire tags, and the rule
//!   that a delta's epoch lies strictly after its base.
//! * `EpochMirror` — the receiver. Its `apply` is the one place
//!   [`ArtifactError::EpochRegression`] and
//!   [`ArtifactError::BaseMismatch`] come from; a refusal leaves the
//!   last good state enforced (fail closed).
//! * [`DeltaLog`] — the publisher: the published epoch and the last
//!   [`DELTA_LOG_DEPTH`] deltas, for receivers that lag.
//! * `authenticate`, the intake check (the one place
//!   [`ArtifactError::UnknownIssuer`] and [`ArtifactError::BadSeal`]
//!   come from), and [`ArtifactError`]. The seal itself is a
//!   certificate's: [`CertSeal`] and the keys of [`crate::key`].
//!
//! A payload adds its body codec and what "replace" and "extend" mean
//! for its state: different in kind, so two concrete artifact structs.

use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::Arc;

use crate::cert::CertSeal;
use crate::encode::{DecodeError, Decoder, Encoder};
use crate::key::KeyResolver;
use crate::principal::PrincipalId;
use crate::shard::ShardMap;

/// Published deltas a [`DeltaLog`] retains for lagging receivers; a
/// receiver further behind falls back to a snapshot.
pub const DELTA_LOG_DEPTH: usize = 64;

/// Artifact kind tags on the wire.
const TAG_SNAPSHOT: u8 = 0;
const TAG_DELTA: u8 = 1;

/// Whether an artifact replaces state or extends an exact prior epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// The publisher's complete state as of the artifact's epoch.
    Snapshot,
    /// The changes between `base_epoch` and the artifact's epoch;
    /// applies only when the receiver is exactly at `base_epoch`.
    Delta {
        /// The epoch this delta extends.
        base_epoch: u64,
    },
}

impl ArtifactKind {
    /// Appends the kind tag (and a delta's base epoch) to `e`.
    pub fn encode_onto(self, e: &mut Encoder) {
        match self {
            ArtifactKind::Snapshot => e.u8(TAG_SNAPSHOT),
            ArtifactKind::Delta { base_epoch } => e.u8(TAG_DELTA).u64(base_epoch),
        };
    }

    /// Decodes the kind of an artifact whose (already decoded) epoch is
    /// `epoch`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadTag`] on an unknown tag;
    /// [`DecodeError::InvalidValue`] for a delta that does not advance
    /// past its own base — inconsistent in itself, so refused at the
    /// wire boundary, before any epoch bookkeeping.
    pub fn decode_from(d: &mut Decoder<'_>, epoch: u64) -> Result<Self, DecodeError> {
        match d.u8()? {
            TAG_SNAPSHOT => Ok(ArtifactKind::Snapshot),
            TAG_DELTA => {
                let base_epoch = d.u64()?;
                if epoch <= base_epoch {
                    return Err(DecodeError::InvalidValue("delta epoch not after its base"));
                }
                Ok(ArtifactKind::Delta { base_epoch })
            }
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Why an artifact was rejected (always fail-closed: the receiver keeps
/// its last good state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// The seal did not verify under the claimed issuer's material.
    BadSeal,
    /// No verification material for the claimed issuer.
    UnknownIssuer(PrincipalId),
    /// A snapshot (or delta target) at or below the receiver's epoch —
    /// a replayed or rolled-back artifact.
    EpochRegression {
        /// The receiver's current epoch.
        current: u64,
        /// The epoch the artifact offered.
        offered: u64,
    },
    /// A delta whose base is not the receiver's exact current epoch.
    BaseMismatch {
        /// The receiver's current epoch.
        current: u64,
        /// The base epoch the delta requires.
        base: u64,
    },
    /// The artifact failed wire decoding.
    Decode(DecodeError),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::BadSeal => write!(f, "artifact seal verification failed"),
            ArtifactError::UnknownIssuer(p) => {
                write!(f, "no verification material for artifact issuer {p}")
            }
            ArtifactError::EpochRegression { current, offered } => {
                write!(f, "artifact epoch {offered} not beyond current {current}")
            }
            ArtifactError::BaseMismatch { current, base } => {
                write!(
                    f,
                    "delta base epoch {base} does not match current {current}"
                )
            }
            ArtifactError::Decode(e) => write!(f, "malformed artifact: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<DecodeError> for ArtifactError {
    fn from(e: DecodeError) -> Self {
        ArtifactError::Decode(e)
    }
}

/// The receiver side of the feed: per subject `K`, the applied epoch and
/// the mirrored state `S`. Probes share a shard read-lock; an update
/// builds its successor off-lock and swaps one `Arc`, so never blocks them.
#[derive(Debug)]
pub(crate) struct EpochMirror<K, S> {
    mirrors: ShardMap<K, (u64, Arc<S>)>,
}

impl<K: Hash + Eq, S> Default for EpochMirror<K, S> {
    fn default() -> Self {
        Self {
            mirrors: ShardMap::new(),
        }
    }
}

impl<K: Hash + Eq, S: Default> EpochMirror<K, S> {
    /// The mirrored epoch for `subject` (0 when no artifact has applied).
    pub(crate) fn epoch_of(&self, subject: &K) -> u64 {
        self.mirrors.read(subject, |m| m.map_or(0, |m| m.0))
    }

    /// Runs `f` (a point probe) on the state mirrored for `subject`, if
    /// any, inside the shard read closure: shared lock, no refcount traffic.
    pub(crate) fn read<R>(&self, subject: &K, f: impl FnOnce(Option<&S>) -> R) -> R {
        self.mirrors.read(subject, |m| f(m.map(|m| &*m.1)))
    }

    /// Applies a *seal-verified* artifact of `kind` at `epoch`. A
    /// snapshot installs `replace()` if it advances the epoch, is the
    /// first, or restates epoch 0; a delta installs `extend(current)` if
    /// the mirror sits exactly at its base (no mirror counts as epoch 0
    /// of the empty state). The closures run outside every lock.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::EpochRegression`] / [`ArtifactError::BaseMismatch`];
    /// the mirror is then unchanged.
    pub(crate) fn apply(
        &self,
        subject: K,
        epoch: u64,
        kind: ArtifactKind,
        replace: impl FnOnce() -> S,
        extend: impl FnOnce(&S) -> S,
    ) -> Result<(), ArtifactError> {
        let (next, base) = match kind {
            ArtifactKind::Snapshot => (replace(), None),
            ArtifactKind::Delta { base_epoch: base } => {
                if epoch <= base {
                    return Err(ArtifactError::EpochRegression {
                        current: base,
                        offered: epoch,
                    });
                }
                let (current, state) = self
                    .mirrors
                    .read(&subject, |m| m.cloned())
                    .unwrap_or_default();
                if current != base {
                    return Err(ArtifactError::BaseMismatch { current, base });
                }
                (extend(&state), Some(base))
            }
        };
        let next = Arc::new(next);
        // The swap re-checks the epoch under the shard lock: a racing
        // update may have advanced it since the read above, and the
        // state built on the old one must then not land.
        self.mirrors.upsert(subject, Default::default, |m| {
            let current = m.0;
            match base {
                Some(base) if current != base => Err(ArtifactError::BaseMismatch { current, base }),
                None if epoch < current || (epoch == current && epoch != 0) => {
                    Err(ArtifactError::EpochRegression {
                        current,
                        offered: epoch,
                    })
                }
                _ => {
                    *m = (epoch, next);
                    Ok(())
                }
            }
        })
    }
}

/// The publisher side of the feed: the last published epoch (0 in a
/// [`Default`] log) and the most recent [`DELTA_LOG_DEPTH`] delta
/// artifacts `A`, oldest first. Every publish is the delta from the
/// previous epoch to the next, so the log is contiguous and
/// [`DeltaLog::since`] never needs to look inside an artifact.
#[derive(Debug)]
pub struct DeltaLog<A> {
    epoch: u64,
    log: VecDeque<A>,
}

impl<A> Default for DeltaLog<A> {
    fn default() -> Self {
        Self {
            epoch: 0,
            log: VecDeque::new(),
        }
    }
}

impl<A: Clone> DeltaLog<A> {
    /// The last published epoch (0 before the first publish).
    #[must_use]
    pub fn published(&self) -> u64 {
        self.epoch
    }

    /// Publishes the next delta: `seal(base_epoch, epoch)` builds the
    /// artifact from the current epoch to the next, which is logged
    /// (dropping the oldest past [`DELTA_LOG_DEPTH`]) and returned.
    pub fn publish(&mut self, seal: impl FnOnce(u64, u64) -> A) -> A {
        let artifact = seal(self.epoch, self.epoch + 1);
        self.epoch += 1;
        self.log.push_back(artifact.clone());
        if self.log.len() > DELTA_LOG_DEPTH {
            self.log.pop_front();
        }
        artifact
    }

    /// The deltas that bring a receiver at `have_epoch` up to date:
    /// empty when it is current (or ahead), the contiguous chain
    /// starting at `have_epoch + 1` when the log still holds it, and
    /// `None` when it does not — the caller must serve a snapshot.
    #[must_use]
    pub fn since(&self, have_epoch: u64) -> Option<Vec<A>> {
        let missing = usize::try_from(self.epoch.saturating_sub(have_epoch)).ok()?;
        let skip = self.log.len().checked_sub(missing)?;
        Some(self.log.iter().skip(skip).cloned().collect())
    }
}

/// Upper bound on a sealed artifact body. A 1M-serial revocation
/// snapshot encodes to ≈2 MB and a 1M-member roster snapshot to ≈16 MB
/// — both past the codec's general collection sanity bound — so the
/// artifact decoders read their body through this dedicated limit
/// instead of [`Decoder::bytes`]. The check runs before any copy, and
/// the borrow-then-`to_vec` shape keeps allocation bounded by the
/// actual input length, never by the declared one. (On the wire,
/// artifacts are further capped by the frame-body limit; bodies this
/// large travel as delta chains or out-of-band files.)
pub const MAX_ARTIFACT_BODY: usize = 32 << 20;

/// Reads a u32-length-prefixed artifact body bounded by
/// [`MAX_ARTIFACT_BODY`].
pub(crate) fn decode_artifact_body<'a>(d: &mut Decoder<'a>) -> Result<&'a [u8], DecodeError> {
    let len = d.u32()? as usize;
    if len > MAX_ARTIFACT_BODY {
        return Err(DecodeError::BadLength(len as u64));
    }
    d.raw(len)
}

/// The intake check of a sealed artifact: `seal` over `body` verifies
/// under the key `resolver` holds for `issuer`.
///
/// # Errors
///
/// [`ArtifactError::UnknownIssuer`] / [`ArtifactError::BadSeal`].
pub(crate) fn authenticate(
    resolver: &impl KeyResolver,
    issuer: &PrincipalId,
    body: &[u8],
    seal: &CertSeal,
) -> Result<(), ArtifactError> {
    let verifier = resolver
        .grantor_verifier(issuer)
        .ok_or_else(|| ArtifactError::UnknownIssuer(issuer.clone()))?;
    if verifier.verify_seal(body, seal) {
        Ok(())
    } else {
        Err(ArtifactError::BadSeal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A toy payload: replace installs the list, extend appends to it.
    type Toy = EpochMirror<&'static str, Vec<u64>>;
    type Outcome = Result<(), ArtifactError>;

    const SNAPSHOT: ArtifactKind = ArtifactKind::Snapshot;

    fn delta(base_epoch: u64) -> ArtifactKind {
        ArtifactKind::Delta { base_epoch }
    }

    fn regression(current: u64, offered: u64) -> Outcome {
        Err(ArtifactError::EpochRegression { current, offered })
    }

    fn mismatch(current: u64, base: u64) -> Outcome {
        Err(ArtifactError::BaseMismatch { current, base })
    }

    fn apply(m: &Toy, epoch: u64, kind: ArtifactKind, payload: &[u64]) -> Outcome {
        let extend = |current: &Vec<u64>| [current, payload].concat();
        m.apply("s", epoch, kind, || payload.to_vec(), extend)
    }

    fn state(m: &Toy) -> Option<(u64, Vec<u64>)> {
        m.read(&"s", |s| s.cloned()).map(|s| (m.epoch_of(&"s"), s))
    }

    #[test]
    fn snapshots_never_move_the_mirror_backwards() {
        let m = Toy::default();
        assert_eq!((state(&m), m.epoch_of(&"s")), (None, 0));
        // A first snapshot lands at whatever epoch it carries.
        assert_eq!(apply(&m, 7, SNAPSHOT, &[1, 2]), Ok(()));
        assert_eq!(apply(&m, 3, SNAPSHOT, &[]), regression(7, 3));
        assert_eq!(apply(&m, 7, SNAPSHOT, &[]), regression(7, 7));
        assert_eq!(state(&m), Some((7, vec![1, 2])), "last good state kept");
        assert_eq!(apply(&m, 8, SNAPSHOT, &[9]), Ok(()));
        assert_eq!(state(&m), Some((8, vec![9])));
        // Epoch 0 is the one epoch a snapshot may restate.
        let fresh = Toy::default();
        assert_eq!(apply(&fresh, 0, SNAPSHOT, &[1]), Ok(()));
        assert_eq!(apply(&fresh, 0, SNAPSHOT, &[2]), Ok(()));
        assert_eq!(state(&fresh), Some((0, vec![2])));
    }

    #[test]
    fn deltas_extend_only_their_exact_base() {
        let m = Toy::default();
        // No mirror counts as epoch 0 of the empty state, and as nothing else.
        assert_eq!(apply(&m, 4, delta(3), &[1]), mismatch(0, 3));
        assert_eq!(state(&m), None, "a refused delta creates no mirror");
        assert_eq!(apply(&m, 1, delta(0), &[1]), Ok(()));
        assert_eq!(apply(&m, 2, delta(1), &[2]), Ok(()));
        for wrong in [0, 1, 3] {
            assert_eq!(apply(&m, 9, delta(wrong), &[7]), mismatch(2, wrong));
        }
        // Hand-built (the decoder refuses it): a delta that does not advance.
        assert_eq!(apply(&m, 2, delta(2), &[7]), regression(2, 2));
        assert_eq!(state(&m), Some((2, vec![1, 2])), "state untouched");
        // A delta may skip epochs forward, as long as its base is exact.
        assert_eq!(apply(&m, 5, delta(2), &[3]), Ok(()));
        assert_eq!(state(&m), Some((5, vec![1, 2, 3])));
    }

    #[test]
    fn racing_appliers_of_one_delta_land_it_exactly_once() {
        let m = Toy::default();
        assert_eq!(apply(&m, 1, SNAPSHOT, &[1]), Ok(()));
        // Both threads are inside `extend` — past the off-lock base
        // check — before either swaps, so the loser is refused by the
        // re-check under the shard lock.
        let both_extending = Barrier::new(2);
        let racer = || {
            m.apply("s", 2, delta(1), Vec::new, |current| {
                both_extending.wait();
                [current.as_slice(), &[2]].concat()
            })
        };
        let outcomes = std::thread::scope(|scope| {
            let other = scope.spawn(racer);
            [racer(), other.join().expect("racer does not panic")]
        });
        assert!(outcomes.contains(&Ok(())) && outcomes.contains(&mismatch(2, 1)));
        assert_eq!(state(&m), Some((2, vec![1, 2])), "extended once");
    }

    #[test]
    fn delta_log_serves_the_exact_chain_or_nothing() {
        let mut log = DeltaLog::default();
        assert_eq!((log.published(), log.since(0)), (0, Some(Vec::new())));
        for epoch in 1..=5 {
            assert_eq!(log.publish(|base, epoch| (base, epoch)), (epoch - 1, epoch));
        }
        assert_eq!(log.since(5), Some(Vec::new()), "current");
        assert_eq!(log.since(9), Some(Vec::new()), "ahead");
        assert_eq!(log.since(3), Some(vec![(3, 4), (4, 5)]));
        // Trimming drops the oldest deltas; a receiver whose base went
        // with them must take a snapshot.
        let depth = DELTA_LOG_DEPTH as u64;
        for _ in 5..depth + 3 {
            log.publish(|base, epoch| (base, epoch));
        }
        assert_eq!(log.published(), depth + 3);
        assert_eq!(log.since(2), None);
        let chain = log.since(3).expect("the oldest base still held");
        assert_eq!(chain.len(), DELTA_LOG_DEPTH);
        assert_eq!(chain.first(), Some(&(3, 4)));
        assert_eq!(chain.last(), Some(&(depth + 2, depth + 3)));
    }

    /// Both payloads take their intake check from this module: a seal of
    /// the flavour the issuer's key is not fails closed as a bad seal,
    /// first artifact or later, and the mirror stays where it was.
    #[test]
    fn an_artifact_sealed_in_the_other_flavour_is_refused_and_moves_no_mirror() {
        use crate::key::{GrantAuthority, GrantorVerifier, MapResolver};
        use crate::membership::{member_digest, MembershipArtifact, MembershipDirectory};
        use crate::principal::GroupName;
        use crate::revocation::{RevocationArtifact, RevocationDirectory};
        use proxy_crypto::ed25519::SigningKey;
        use proxy_crypto::keys::SymmetricKey;
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(29);
        let [sk, forger] = [(); 2].map(|()| SigningKey::generate(&mut rng));
        let k = SymmetricKey::generate(&mut rng);
        let issuer = PrincipalId::new("gs");
        let group = GroupName::new(issuer.clone(), "staff");
        let alice = member_digest(&PrincipalId::new("alice"));
        let flavours = [
            (
                GrantAuthority::Keypair(sk.clone()),
                GrantorVerifier::PublicKey(sk.verifying_key()),
                CertSeal::Hmac([0u8; 32]),
            ),
            (
                GrantAuthority::SharedKey(k.clone()),
                GrantorVerifier::SharedKey(k),
                CertSeal::Ed25519(forger.sign(b"x")),
            ),
        ];
        for (authority, verifier, other_seal) in flavours {
            let resolver = MapResolver::new().with(issuer.clone(), verifier);
            let revocations = RevocationDirectory::new();
            let memberships = MembershipDirectory::new();
            for epoch in [1, 2] {
                let honest_revocation = RevocationArtifact::seal(
                    issuer.clone(),
                    epoch,
                    SNAPSHOT,
                    [41u64].into_iter().collect(),
                    &authority,
                );
                let honest_roster = MembershipArtifact::seal(
                    group.clone(),
                    epoch,
                    SNAPSHOT,
                    vec![alice],
                    Vec::new(),
                    &authority,
                );
                let mut revocation = honest_revocation.clone();
                revocation.seal = other_seal.clone();
                let mut roster = honest_roster.clone();
                roster.seal = other_seal.clone();
                assert_eq!(
                    revocations.apply_sealed(&revocation, &resolver),
                    Err(ArtifactError::BadSeal)
                );
                assert_eq!(
                    memberships.apply_sealed(&roster, &resolver),
                    Err(ArtifactError::BadSeal)
                );
                assert_eq!(revocations.epoch_of(&issuer), epoch - 1);
                assert_eq!(memberships.epoch_of(&group), epoch - 1);
                assert_eq!(revocations.is_revoked(&issuer, 41), epoch > 1);
                assert_eq!(
                    revocations.apply_sealed(&honest_revocation, &resolver),
                    Ok(())
                );
                assert_eq!(memberships.apply_sealed(&honest_roster, &resolver), Ok(()));
            }
        }
    }

    #[test]
    fn kind_codec_refuses_unknown_tags_and_deltas_not_after_their_base() {
        let decode =
            |bytes: &[u8], epoch| ArtifactKind::decode_from(&mut Decoder::new(bytes), epoch);
        let encode = |kind: ArtifactKind| {
            let mut e = Encoder::new();
            kind.encode_onto(&mut e);
            e.finish()
        };
        for kind in [SNAPSHOT, delta(0), delta(41)] {
            assert_eq!(decode(&encode(kind), 42), Ok(kind));
        }
        let not_after = Err(DecodeError::InvalidValue("delta epoch not after its base"));
        for epoch in [0, 4, 5] {
            assert_eq!(decode(&encode(delta(5)), epoch), not_after);
        }
        assert_eq!(decode(&encode(delta(5)), 6), Ok(delta(5)));
        assert_eq!(decode(&[2], 1), Err(DecodeError::BadTag(2)));
    }
}
