//! The epoch feed: a publisher numbers its announcements, and every
//! receiver mirrors them without ever moving backwards.
//!
//! Revocation lists ([`crate::revocation`]) and group rosters
//! ([`crate::membership`]) are two payloads of this one feed, and what
//! they share is written here, once (DESIGN.md §14.2):
//!
//! * [`Artifact`] — the sealed envelope: subject, epoch, [`ArtifactKind`]
//!   (snapshot or delta, and the rule that a delta's epoch lies strictly
//!   after its base), payload and seal. Its body, seal check and codec
//!   exist once, for every payload.
//! * [`Directory`] — the receiver. Its intake ([`Directory::apply_sealed`])
//!   is the one place [`ArtifactError::UnknownIssuer`] and
//!   [`ArtifactError::BadSeal`] come from, and its epoch rule the one
//!   place [`ArtifactError::EpochRegression`] and
//!   [`ArtifactError::BaseMismatch`] come from; a refusal leaves the last
//!   good state enforced (fail closed).
//! * [`DeltaLog`] — the publisher: the published epoch and the last
//!   [`DELTA_LOG_DEPTH`] deltas, for receivers that lag, behind the lock
//!   that orders publishers. It seals what an issuer's [`Publisher`]
//!   takes from its state.
//!
//! A [`Payload`] adds only what differs between the two: its label, the
//! codecs of its subject and of itself, and what "replace" and "extend"
//! mean for the mirrored state. The seal itself is a certificate's:
//! [`CertSeal`] and the keys of [`crate::key`].

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

use std::collections::VecDeque;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use crate::cert::CertSeal;
use crate::encode::{DecodeError, Decoder, Encoder};
use crate::key::{GrantAuthority, GrantorVerifier, KeyResolver};
use crate::principal::PrincipalId;
use crate::shard::{rank, ShardMap};

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
    fn encode_onto(self, e: &mut Encoder) {
        match self {
            ArtifactKind::Snapshot => e.u8(TAG_SNAPSHOT),
            ArtifactKind::Delta { base_epoch } => e.u8(TAG_DELTA).u64(base_epoch),
        };
    }

    /// Decodes the kind of an artifact at `epoch`: [`DecodeError::BadTag`]
    /// on an unknown tag, [`DecodeError::InvalidValue`] for a delta that
    /// does not advance past its own base — inconsistent in itself, so
    /// refused at the wire boundary, before any epoch bookkeeping.
    fn decode_from(d: &mut Decoder<'_>, epoch: u64) -> Result<Self, DecodeError> {
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

/// What one payload of the feed adds to the sealed envelope
/// [`Artifact`]: its label, the codecs of its subject and of itself,
/// and the fold of an artifact into a receiver's state.
pub trait Payload: Clone + fmt::Debug + Eq {
    /// Domain-separation label, the first field a seal covers.
    const LABEL: &'static [u8];
    /// What an artifact speaks for: an issuer, a group.
    type Subject: Clone + fmt::Debug + Eq + Hash;
    /// A receiver's mirrored state for one subject.
    type State: Default + fmt::Debug;

    /// The principal whose authority alone may seal artifacts about
    /// `subject`.
    fn issuer(subject: &Self::Subject) -> &PrincipalId;

    /// Appends `subject` to an artifact body.
    fn encode_subject(subject: &Self::Subject, e: &mut Encoder);

    /// Reads a subject back; [`DecodeError`] on malformed input.
    fn decode_subject(d: &mut Decoder<'_>) -> Result<Self::Subject, DecodeError>;

    /// Appends the payload to an artifact body, canonically: one
    /// payload, one byte string.
    fn encode_payload(&self, e: &mut Encoder);

    /// Reads a payload back: [`DecodeError`] on any encoding but the
    /// canonical one, and on a shape an artifact of `kind` may not carry.
    fn decode_payload(d: &mut Decoder<'_>, kind: ArtifactKind) -> Result<Self, DecodeError>;

    /// The state a snapshot carrying this payload installs.
    fn replace(&self) -> Self::State;

    /// The state a delta carrying this payload makes of `current`.
    fn extend(&self, current: &Self::State) -> Self::State;
}

/// A sealed, epoch-numbered announcement about one subject: a snapshot
/// of the publisher's state or a delta from an exact prior epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Artifact<P: Payload> {
    /// What the artifact speaks for; only [`Payload::issuer`] of it may
    /// seal it.
    pub subject: P::Subject,
    /// Monotone publication counter per subject; receivers never move
    /// backwards.
    pub epoch: u64,
    /// Snapshot or delta semantics.
    pub kind: ArtifactKind,
    /// The state (snapshot) or the change (delta).
    pub payload: P,
    /// Seal over [`Artifact::body_bytes`] by the issuer.
    pub seal: CertSeal,
}

impl<P: Payload> Artifact<P> {
    /// The canonical byte string the seal covers: every field but the
    /// seal, behind the payload's domain-separation label.
    #[must_use]
    pub fn body_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.bytes(P::LABEL);
        P::encode_subject(&self.subject, &mut e);
        e.u64(self.epoch);
        self.kind.encode_onto(&mut e);
        self.payload.encode_payload(&mut e);
        e.finish()
    }

    /// Builds and seals an artifact under `authority`, exactly as a
    /// certificate is sealed (HMAC or Ed25519).
    #[must_use]
    pub fn seal(
        subject: P::Subject,
        epoch: u64,
        kind: ArtifactKind,
        payload: P,
        authority: &GrantAuthority,
    ) -> Self {
        let mut artifact = Self {
            subject,
            epoch,
            kind,
            payload,
            seal: CertSeal::UNSEALED,
        };
        artifact.seal = authority.seal(&artifact.body_bytes());
        artifact
    }

    /// Checks the seal against the issuer's verification material.
    /// Flavor mismatches (HMAC seal, public-key verifier or vice versa)
    /// fail closed.
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

    /// Decodes one artifact from a decoder stream. Its body is read
    /// through [`MAX_ARTIFACT_BODY`], not the codec's general bound.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed input. The decoded artifact is
    /// *unverified*: its seal must still be checked.
    pub fn decode_from(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.u32()? as usize;
        if len > MAX_ARTIFACT_BODY {
            return Err(DecodeError::BadLength(len as u64));
        }
        let mut b = Decoder::new(d.raw(len)?);
        let seal = CertSeal::decode_from(d)?;
        if b.bytes()? != P::LABEL {
            return Err(DecodeError::InvalidValue("artifact label"));
        }
        let subject = P::decode_subject(&mut b)?;
        let epoch = b.u64()?;
        let kind = ArtifactKind::decode_from(&mut b, epoch)?;
        let payload = P::decode_payload(&mut b, kind)?;
        b.finish()?;
        Ok(Self {
            subject,
            epoch,
            kind,
            payload,
            seal,
        })
    }

    /// Decodes [`Artifact::encode`] output, rejecting trailing bytes.
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

/// The receiver side of one payload's feed: per subject, the applied
/// epoch and the mirrored state. Probes share a shard read-lock; an
/// update builds its successor off-lock and swaps one `Arc`, so never
/// blocks them.
#[derive(Debug)]
pub struct Directory<P: Payload> {
    mirrors: ShardMap<P::Subject, (u64, Arc<P::State>)>,
}

impl<P: Payload> Default for Directory<P> {
    fn default() -> Self {
        Self {
            mirrors: ShardMap::new(),
        }
    }
}

impl<P: Payload> Directory<P> {
    /// An empty directory: no subject is mirrored until an artifact
    /// about it applies.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The mirrored epoch for `subject` (0 when no artifact has applied).
    #[must_use]
    pub fn epoch_of(&self, subject: &P::Subject) -> u64 {
        self.mirrors.read(subject, |m| m.map_or(0, |m| m.0))
    }

    /// Runs `probe` on the state mirrored for `subject`, if any, inside
    /// the shard read closure: shared lock, no clone, no refcount traffic.
    pub(crate) fn read<R>(
        &self,
        subject: &P::Subject,
        probe: impl FnOnce(Option<&P::State>) -> R,
    ) -> R {
        self.mirrors.read(subject, |m| probe(m.map(|m| &*m.1)))
    }

    /// The intake of an artifact as received: its seal must verify
    /// under the key `resolver` holds for the subject's issuer — the only
    /// acceptable sealer — and only then is it applied
    /// ([`Self::apply_verified`]).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::UnknownIssuer`] / [`ArtifactError::BadSeal`],
    /// and those of [`Self::apply_verified`].
    pub fn apply_sealed(
        &self,
        artifact: &Artifact<P>,
        resolver: &impl KeyResolver,
    ) -> Result<(), ArtifactError> {
        let issuer = P::issuer(&artifact.subject);
        let verifier = resolver
            .grantor_verifier(issuer)
            .ok_or_else(|| ArtifactError::UnknownIssuer(issuer.clone()))?;
        if !artifact.verify_seal(&verifier) {
            return Err(ArtifactError::BadSeal);
        }
        self.apply_verified(artifact)
    }

    /// Applies a *seal-verified* artifact. Snapshots must advance the
    /// epoch (or establish a first mirror); deltas must extend the exact
    /// current epoch. Rejections leave the last good state enforced.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::EpochRegression`] / [`ArtifactError::BaseMismatch`].
    pub fn apply_verified(&self, artifact: &Artifact<P>) -> Result<(), ArtifactError> {
        let payload = &artifact.payload;
        self.apply(
            artifact.subject.clone(),
            artifact.epoch,
            artifact.kind,
            || payload.replace(),
            |current| payload.extend(current),
        )
    }

    /// The epoch rule, the one producer of its two refusals: a snapshot
    /// at `epoch` installs `replace()` if it advances the epoch, is the
    /// first, or restates epoch 0; a delta installs `extend(current)` if
    /// the mirror sits exactly at its base (no mirror counts as epoch 0
    /// of the empty state). The closures run outside every lock.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::EpochRegression`] / [`ArtifactError::BaseMismatch`];
    /// the mirror is then unchanged.
    fn apply(
        &self,
        subject: P::Subject,
        epoch: u64,
        kind: ArtifactKind,
        replace: impl FnOnce() -> P::State,
        extend: impl FnOnce(&P::State) -> P::State,
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

/// What [`Publisher::take`] takes in one critical section: the pending
/// change, if any, and a copy of the state, if asked for.
pub type Taken<P, S> = (Option<P>, Option<S>);

/// An issuer's side of its [`DeltaLog`]: what a publish takes out of
/// the issuer's state, and whose artifacts the log seals under which
/// authority.
///
/// The log calls [`Self::take`] under its own lock, and it takes the
/// issuer's lock once; [`Self::snapshot`]
/// and the seals run after the issuer's lock is released, so a mutation
/// never waits out a digest or a signature.
pub trait Publisher {
    /// What the issuer publishes.
    type Payload: Payload;
    /// A copy of the issuer's state, for a snapshot.
    type State;

    /// The subject the issuer publishes for.
    fn subject(&self) -> <Self::Payload as Payload>::Subject;

    /// The authority its artifacts are sealed under.
    fn authority(&self) -> &GrantAuthority;

    /// Takes the pending change out of the issuer's state (`None` when
    /// nothing is pending) and, when `copy_state`, a copy of the state,
    /// in one critical section; `None` when there is no state.
    fn take(&self, copy_state: bool) -> Option<Taken<Self::Payload, Self::State>>;

    /// The snapshot payload of a copied state.
    fn snapshot(state: Self::State) -> Self::Payload;
}

/// The publisher side of the feed: the last published epoch (0 in a
/// [`Default`] log) and the most recent [`DELTA_LOG_DEPTH`] delta
/// artifacts, oldest first. Every publish is the delta from the
/// previous epoch to the next, so the log is contiguous and
/// [`DeltaLog::since`] never needs to look inside an artifact.
///
/// The log's lock orders publishers: a publish holds it from taking the
/// issuer's pending change until its artifact is logged, so epochs are
/// handed out in the order changes were taken. It comes before the
/// issuer's own lock, never after (DESIGN.md §9).
#[derive(Debug)]
pub struct DeltaLog<P: Payload> {
    feed: Mutex<Feed<P>>,
}

#[derive(Debug)]
struct Feed<P: Payload> {
    epoch: u64,
    log: VecDeque<Artifact<P>>,
}

impl<P: Payload> Default for DeltaLog<P> {
    fn default() -> Self {
        Self {
            feed: Mutex::new(Feed {
                epoch: 0,
                log: VecDeque::new(),
            }),
        }
    }
}

impl<P: Payload> Feed<P> {
    /// Seals `change` as the next delta, logs it (dropping the oldest
    /// past [`DELTA_LOG_DEPTH`]) and returns it.
    fn append(&mut self, issuer: &impl Publisher<Payload = P>, change: P) -> Artifact<P> {
        rank::assert_unheld("sealing a feed delta");
        let kind = ArtifactKind::Delta {
            base_epoch: self.epoch,
        };
        let artifact = Artifact::seal(
            issuer.subject(),
            self.epoch + 1,
            kind,
            change,
            issuer.authority(),
        );
        self.epoch += 1;
        self.log.push_back(artifact.clone());
        if self.log.len() > DELTA_LOG_DEPTH {
            self.log.pop_front();
        }
        artifact
    }
}

impl<P: Payload> DeltaLog<P> {
    /// The last published epoch (0 before the first publish). A publish
    /// that panicked under the lock poisons it, and every publish after
    /// it is refused.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.feed.lock().map_or(0, |feed| feed.epoch)
    }

    /// Publishes `issuer`'s pending change as the next delta. `None`
    /// when nothing is pending (the epoch does not move), the issuer has
    /// no state, or the lock is poisoned.
    pub fn publish_delta(&self, issuer: &impl Publisher<Payload = P>) -> Option<Artifact<P>> {
        let mut feed = self.feed.lock().ok()?;
        let (change, _) = issuer.take(false)?;
        Some(feed.append(issuer, change?))
    }

    /// Publishes `issuer`'s complete state as a snapshot at the current
    /// epoch, folding any pending change in first as a delta. The
    /// change and the state come from one critical section, so the
    /// snapshot is exactly the fold of the deltas up to its epoch.
    pub fn publish_snapshot<I: Publisher<Payload = P>>(&self, issuer: &I) -> Option<Artifact<P>> {
        let mut feed = self.feed.lock().ok()?;
        let (change, state) = issuer.take(true)?;
        if let Some(change) = change {
            feed.append(issuer, change);
        }
        rank::assert_unheld("sealing a feed snapshot");
        Some(Artifact::seal(
            issuer.subject(),
            feed.epoch,
            ArtifactKind::Snapshot,
            I::snapshot(state?),
            issuer.authority(),
        ))
    }

    /// The artifacts that bring a receiver at `have_epoch` up to date:
    /// the contiguous delta chain when the log still covers it, else one
    /// snapshot. Pending changes are published first. Empty when the
    /// receiver is already current (or the issuer has no state).
    pub fn updates_since(
        &self,
        have_epoch: u64,
        issuer: &impl Publisher<Payload = P>,
    ) -> Vec<Artifact<P>> {
        self.publish_delta(issuer);
        match self.since(have_epoch) {
            Some(chain) => chain,
            None => self.publish_snapshot(issuer).into_iter().collect(),
        }
    }

    /// The deltas that bring a receiver at `have_epoch` up to date:
    /// empty when it is current (or ahead), the contiguous chain
    /// starting at `have_epoch + 1` when the log still holds it, and
    /// `None` when it does not — the caller must serve a snapshot.
    #[must_use]
    pub fn since(&self, have_epoch: u64) -> Option<Vec<Artifact<P>>> {
        let feed = self.feed.lock().ok()?;
        let missing = usize::try_from(feed.epoch.saturating_sub(have_epoch)).ok()?;
        let skip = feed.log.len().checked_sub(missing)?;
        Some(feed.log.iter().skip(skip).cloned().collect())
    }
}

/// Upper bound on a sealed artifact body. A 1M-serial revocation
/// snapshot encodes to ≈2 MB and a 1M-member roster snapshot to ≈16 MB
/// — both past the codec's general collection bound — so
/// [`Artifact::decode_from`] checks this limit instead, before any
/// read, and parses the body where it lies. (On the wire, artifacts are
/// further capped by the frame-body limit.)
pub const MAX_ARTIFACT_BODY: usize = 32 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revocation::SerialSet;
    use std::sync::Barrier;

    /// A toy payload: replace installs the list, extend appends to it.
    /// Only the epoch rule runs on it, so it is never sealed or coded.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct List;

    impl Payload for List {
        const LABEL: &'static [u8] = b"toy";
        type Subject = &'static str;
        type State = Vec<u64>;
        fn issuer<'a>(_: &'a &'static str) -> &'a PrincipalId {
            unimplemented!("a toy is never sealed")
        }
        fn encode_subject(_: &&'static str, _: &mut Encoder) {
            unimplemented!("a toy is never coded")
        }
        fn decode_subject(_: &mut Decoder<'_>) -> Result<&'static str, DecodeError> {
            unimplemented!("a toy is never coded")
        }
        fn encode_payload(&self, _: &mut Encoder) {
            unimplemented!("a toy is never coded")
        }
        fn decode_payload(_: &mut Decoder<'_>, _: ArtifactKind) -> Result<Self, DecodeError> {
            unimplemented!("a toy is never coded")
        }
        fn replace(&self) -> Vec<u64> {
            unimplemented!("the rule is driven by closures here")
        }
        fn extend(&self, _: &Vec<u64>) -> Vec<u64> {
            unimplemented!("the rule is driven by closures here")
        }
    }

    type Toy = Directory<List>;
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

    /// A publisher with a change pending on every delta, under a fixed
    /// key; [`span`] reads its artifacts as `(base, epoch)` and its
    /// snapshots as `(epoch, epoch)`.
    struct EveryCall(GrantAuthority);

    impl Publisher for EveryCall {
        type Payload = SerialSet;
        type State = ();
        fn subject(&self) -> PrincipalId {
            PrincipalId::new("toy")
        }
        fn authority(&self) -> &GrantAuthority {
            &self.0
        }
        fn take(&self, copy_state: bool) -> Option<Taken<SerialSet, ()>> {
            Some(((!copy_state).then(SerialSet::new), copy_state.then_some(())))
        }
        fn snapshot((): ()) -> SerialSet {
            SerialSet::new()
        }
    }

    fn every_call() -> EveryCall {
        let key = proxy_crypto::keys::SymmetricKey::from_bytes([3; 32]);
        EveryCall(GrantAuthority::SharedKey(key))
    }

    fn span(artifact: &Artifact<SerialSet>) -> (u64, u64) {
        match artifact.kind {
            ArtifactKind::Snapshot => (artifact.epoch, artifact.epoch),
            ArtifactKind::Delta { base_epoch } => (base_epoch, artifact.epoch),
        }
    }

    fn spans(chain: Option<Vec<Artifact<SerialSet>>>) -> Option<Vec<(u64, u64)>> {
        chain.map(|chain| chain.iter().map(span).collect())
    }

    #[test]
    fn delta_log_serves_the_exact_chain_or_nothing() {
        let every_call = every_call();
        let log = DeltaLog::default();
        assert_eq!(
            (log.published(), spans(log.since(0))),
            (0, Some(Vec::new()))
        );
        for epoch in 1..=5 {
            let published = log.publish_delta(&every_call);
            assert_eq!(published.as_ref().map(span), Some((epoch - 1, epoch)));
        }
        assert_eq!(spans(log.since(5)), Some(Vec::new()), "current");
        assert_eq!(spans(log.since(9)), Some(Vec::new()), "ahead");
        assert_eq!(spans(log.since(3)), Some(vec![(3, 4), (4, 5)]));
        // Trimming drops the oldest deltas; a receiver whose base went
        // with them must take a snapshot.
        let depth = DELTA_LOG_DEPTH as u64;
        for _ in 5..depth + 3 {
            log.publish_delta(&every_call);
        }
        assert_eq!(log.published(), depth + 3);
        assert_eq!(spans(log.since(2)), None);
        let chain = spans(log.since(3)).expect("the oldest base still held");
        assert_eq!(chain.len(), DELTA_LOG_DEPTH);
        assert_eq!(chain.first(), Some(&(3, 4)));
        assert_eq!(chain.last(), Some(&(depth + 2, depth + 3)));
        // A receiver past the log's reach gets the pending change as a
        // delta, then a snapshot at the epoch it reached.
        let depth = depth + 4;
        let updates = log.updates_since(2, &every_call);
        assert_eq!(spans(Some(updates)), Some(vec![(depth, depth)]));
        assert_eq!(log.published(), depth);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sealing a feed delta entered holding lock ranks")]
    fn a_feed_seals_with_no_stripe_held() {
        let (log, every_call) = (DeltaLog::default(), every_call());
        let map = ShardMap::new();
        map.upsert(
            1,
            || 0,
            |_| {
                log.publish_delta(&every_call);
            },
        );
    }

    /// Both payloads take their intake check from this module: a seal of
    /// the flavour the issuer's key is not fails closed as a bad seal,
    /// first artifact or later, and the mirror stays where it was.
    #[test]
    fn an_artifact_sealed_in_the_other_flavour_is_refused_and_moves_no_mirror() {
        use crate::key::MapResolver;
        use crate::membership::{
            member_digest, MembershipArtifact, MembershipDirectory, RosterChange,
        };
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
                    RosterChange::new(vec![alice], Vec::new()),
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
