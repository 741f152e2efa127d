//! Compressed revocation index and signed, diffable distribution.
//!
//! The paper handles revocation implicitly — proxies expire (§3.1) and a
//! grantor can be stripped from the ACL — which forces short lifetimes or
//! stale decisions at scale. This module adds *explicit* revocation by
//! serial number, answered locally in O(1) by every end-server:
//!
//! * [`SerialSet`] — a roaring-style compressed set of revoked `u64`
//!   serials: the high 48 bits pick a chunk, the low 16 bits live in an
//!   array, run, or bitmap container, whichever encodes smallest. A
//!   million sequential serials occupy 16 bitmap chunks (~128 KiB) and a
//!   `contains` check is one hash probe plus one container probe,
//!   independent of set size.
//! * [`RevocationArtifact`] — an epoch-numbered snapshot or delta of an
//!   issuer's revoked set, sealed under the issuer's [`GrantAuthority`]
//!   exactly like a certificate (HMAC in the conventional flavor,
//!   Ed25519 in the public-key flavor). It is one payload of the epoch
//!   feed: [`crate::epoch`] owns the snapshot/delta rule, the receiver's
//!   mirror and the publisher's delta log.
//! * [`RevocationRegistry`] — the issuer side: accumulate revocations,
//!   publish them as sealed deltas or snapshots.
//! * [`RevocationDirectory`] — the receiver side: per-issuer mirrors the
//!   verify hot path probes under a shared read lock.
//!
//! Decoding is part of the hostile-input surface (artifacts arrive over
//! the wire), so every path here is panic-free and fail-closed: typed
//! errors only, structural invariants (sorted arrays, non-overlapping
//! runs, strictly increasing chunk keys) enforced before a byte is
//! trusted, and allocation bounded by the input that justifies it.

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

use std::collections::HashMap;
use std::sync::RwLock;

use crate::encode::{DecodeError, Decoder, Encoder};
use crate::epoch::{Artifact, DeltaLog, Directory, Payload, Publisher, Taken};
pub use crate::epoch::{ArtifactError, ArtifactKind, DELTA_LOG_DEPTH, MAX_ARTIFACT_BODY};
use crate::key::GrantAuthority;
use crate::principal::PrincipalId;

/// Most values an array container may hold *on the wire* (the crossover
/// where 2 bytes/entry exceeds the fixed 8 KiB bitmap).
const ARRAY_MAX: usize = 4096;

/// In *memory*, an array container promotes to a bitmap past this
/// cardinality — well below [`ARRAY_MAX`]. A bitmap probe is one
/// branch-free bit test, while a binary search over a dense array is a
/// chain of data-dependent branches whose mispredictions serialize the
/// pipeline and defeat memory-level parallelism on large sets. The wire
/// format is unaffected: encoding always picks the smallest container
/// for the cardinality, whatever the in-memory representation. The
/// representation is a pure function of cardinality (containers only
/// ever grow), so structural equality stays content-deterministic.
const DENSE_PROBE_MIN: usize = 256;

/// Words in a bitmap container (65536 bits).
const BITMAP_WORDS: usize = 1024;

/// Most chunk containers accepted when decoding one serial set. 65536
/// chunks cover 2^32 serials densely; hostile inputs cannot go further.
pub const MAX_CONTAINERS: usize = 65536;

/// Container tags on the wire.
const TAG_ARRAY: u8 = 0;
const TAG_RUN: u8 = 1;
const TAG_BITMAP: u8 = 2;

fn low16(serial: u64) -> u16 {
    u16::try_from(serial & 0xFFFF).unwrap_or(0)
}

/// The bitmap container holding `vals`.
fn bitmap(vals: &[u16]) -> Box<[u64; BITMAP_WORDS]> {
    let mut words = Box::new([0u64; BITMAP_WORDS]);
    for &v in vals {
        if let Some(w) = words.get_mut(usize::from(v >> 6)) {
            *w |= 1u64 << (v & 63);
        }
    }
    words
}

/// One chunk's worth of low-16-bit values.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated values; at most [`ARRAY_MAX`] entries.
    Array(Vec<u16>),
    /// One bit per value.
    Bitmap(Box<[u64; BITMAP_WORDS]>),
}

impl Container {
    fn new() -> Self {
        Container::Array(Vec::new())
    }

    fn contains(&self, v: u16) -> bool {
        match self {
            Container::Array(vals) => vals.binary_search(&v).is_ok(),
            Container::Bitmap(words) => {
                let word = words.get(usize::from(v >> 6)).copied().unwrap_or(0);
                word & (1u64 << (v & 63)) != 0
            }
        }
    }

    /// Sorted, deduplicated values as a container in the canonical
    /// in-memory representation for their cardinality.
    fn from_sorted(vals: Vec<u16>) -> Self {
        if vals.len() > DENSE_PROBE_MIN {
            Container::Bitmap(bitmap(&vals))
        } else {
            Container::Array(vals)
        }
    }

    /// Inserts `v`; true when newly present. Arrays overflowing
    /// [`DENSE_PROBE_MIN`] convert to bitmaps.
    fn insert(&mut self, v: u16) -> bool {
        match self {
            Container::Array(vals) => match vals.binary_search(&v) {
                Ok(_) => false,
                Err(pos) => {
                    vals.insert(pos, v);
                    if vals.len() > DENSE_PROBE_MIN {
                        *self = Container::Bitmap(bitmap(vals));
                    }
                    true
                }
            },
            Container::Bitmap(words) => match words.get_mut(usize::from(v >> 6)) {
                Some(w) => {
                    let bit = 1u64 << (v & 63);
                    let fresh = *w & bit == 0;
                    *w |= bit;
                    fresh
                }
                None => false,
            },
        }
    }

    fn len(&self) -> usize {
        match self {
            Container::Array(vals) => vals.len(),
            Container::Bitmap(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Sorted values, as (start, length-1) runs of consecutive entries.
    fn runs(&self) -> Vec<(u16, u16)> {
        let mut runs: Vec<(u16, u16)> = Vec::new();
        self.for_each(|v| match runs.last_mut() {
            Some((start, span)) if u32::from(*start) + u32::from(*span) + 1 == u32::from(v) => {
                *span += 1;
            }
            _ => runs.push((v, 0)),
        });
        runs
    }

    fn for_each(&self, mut f: impl FnMut(u16)) {
        match self {
            Container::Array(vals) => {
                for &v in vals {
                    f(v);
                }
            }
            Container::Bitmap(words) => {
                for (i, &word) in words.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let bit = w.trailing_zeros();
                        let value = u32::try_from(i).unwrap_or(0) * 64 + bit;
                        f(u16::try_from(value).unwrap_or(u16::MAX));
                        w &= w - 1;
                    }
                }
            }
        }
    }

    /// Canonical encoding: the smallest of array (2 B/value), run
    /// (4 B/run), or bitmap (8 KiB); ties prefer the lower tag. Only a
    /// bitmap container can need the bitmap form: an array holds at
    /// most [`DENSE_PROBE_MIN`] values, so its run form is at most
    /// 1 KiB.
    fn encode_into(&self, e: &mut Encoder) {
        let n = self.len();
        let runs = self.runs();
        let array_bytes = 2usize.saturating_mul(n);
        let run_bytes = 4usize.saturating_mul(runs.len());
        let bitmap_bytes = BITMAP_WORDS * 8;
        if n <= ARRAY_MAX && array_bytes <= run_bytes && array_bytes <= bitmap_bytes {
            e.u8(TAG_ARRAY).count(n);
            self.for_each(|v| {
                e.u16(v);
            });
        } else {
            match self {
                Container::Bitmap(words) if run_bytes > bitmap_bytes => {
                    e.u8(TAG_BITMAP);
                    for &w in words.iter() {
                        e.u64(w);
                    }
                }
                Container::Array(_) | Container::Bitmap(_) => {
                    e.u8(TAG_RUN).count(runs.len());
                    for (start, span) in runs {
                        e.u16(start).u16(span);
                    }
                }
            }
        }
    }

    /// Decodes one container, enforcing structural invariants: arrays
    /// strictly increasing, runs sorted and non-overlapping, bitmaps
    /// complete. Violations fail closed.
    fn decode_from(d: &mut Decoder<'_>) -> Result<Container, DecodeError> {
        match d.u8()? {
            TAG_ARRAY => {
                let n = d.counted(2)?;
                if n.get() > ARRAY_MAX {
                    return Err(DecodeError::BadLength(n.get() as u64));
                }
                let mut vals = n.vec();
                let mut prev: Option<u16> = None;
                for _ in 0..n.get() {
                    let v = d.u16()?;
                    if prev.is_some_and(|p| p >= v) {
                        return Err(DecodeError::InvalidValue("array container not increasing"));
                    }
                    prev = Some(v);
                    vals.push(v);
                }
                Ok(Container::from_sorted(vals))
            }
            TAG_RUN => {
                let n = d.counted(4)?;
                let mut c = Container::new();
                // Next admissible start; None once 0xFFFF has been covered.
                let mut next: Option<u32> = Some(0);
                for _ in 0..n.get() {
                    let start = d.u16()?;
                    let span = d.u16()?;
                    let floor =
                        next.ok_or(DecodeError::InvalidValue("run container past end of chunk"))?;
                    if u32::from(start) < floor {
                        return Err(DecodeError::InvalidValue(
                            "run containers overlap or are unsorted",
                        ));
                    }
                    let end = u32::from(start) + u32::from(span);
                    next = end.checked_add(2);
                    for v in start..=u16::try_from(end).unwrap_or(u16::MAX) {
                        c.insert(v);
                    }
                }
                Ok(c)
            }
            TAG_BITMAP => {
                let mut words = Box::new([0u64; BITMAP_WORDS]);
                for w in words.iter_mut() {
                    *w = d.u64()?;
                }
                Ok(Container::Bitmap(words))
            }
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A compressed set of `u64` serial numbers (roaring-style).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SerialSet {
    chunks: HashMap<u64, Container>,
}

impl SerialSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `serial`; true when newly present.
    pub fn insert(&mut self, serial: u64) -> bool {
        self.chunks
            .entry(serial >> 16)
            .or_insert_with(Container::new)
            .insert(low16(serial))
    }

    /// True when `serial` is present — one hash probe plus one container
    /// probe, independent of set size.
    #[must_use]
    pub fn contains(&self, serial: u64) -> bool {
        self.chunks
            .get(&(serial >> 16))
            .is_some_and(|c| c.contains(low16(serial)))
    }

    /// Counts how many of `serials` are present. Equivalent to summing
    /// [`SerialSet::contains`] over the slice, but software-pipelined in
    /// blocks: the hash-table lookups for a block of probes all resolve
    /// first, then the container probes run as a tight branch-free
    /// micro-loop, so cache misses to distinct chunks overlap instead of
    /// serializing behind one another. This is the bulk primitive for
    /// batch reconciliation (and the figures harness); single-probe
    /// callers should keep using [`SerialSet::contains`].
    #[must_use]
    pub fn count_contained(&self, serials: &[u64]) -> u64 {
        const BLOCK: usize = 16;
        let mut resolved: [Option<(&Container, u16)>; BLOCK] = [None; BLOCK];
        let mut hits = 0u64;
        for block in serials.chunks(BLOCK) {
            for (slot, &s) in resolved.iter_mut().zip(block) {
                *slot = self.chunks.get(&(s >> 16)).map(|c| (c, low16(s)));
            }
            for (c, v) in resolved.iter().take(block.len()).flatten() {
                hits += u64::from(c.contains(*v));
            }
        }
        hits
    }

    /// Number of serials in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks.values().map(Container::len).sum()
    }

    /// True when no serial is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() || self.len() == 0
    }

    /// Adds every serial of `other` to `self`.
    pub fn union_with(&mut self, other: &SerialSet) {
        for (&key, container) in &other.chunks {
            let dst = self.chunks.entry(key).or_insert_with(Container::new);
            container.for_each(|v| {
                dst.insert(v);
            });
        }
    }

    /// Visits every serial (ascending within a chunk; chunk order is
    /// unspecified).
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        for (&key, container) in &self.chunks {
            container.for_each(|v| f((key << 16) | u64::from(v)));
        }
    }

    /// Canonical encoding as an owned byte vector: chunks sorted by
    /// key, each as its smallest container representation. One set, one
    /// byte string — artifacts are sealed over this.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_payload(&mut e);
        e.finish()
    }

    /// Decodes [`SerialSet::encode`] output, rejecting unsorted or
    /// duplicate chunk keys, oversized counts, malformed containers and
    /// trailing bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on any structural violation; no input panics.
    pub fn decode(input: &[u8]) -> Result<SerialSet, DecodeError> {
        let mut d = Decoder::new(input);
        let set = Self::decode_payload(&mut d, ArtifactKind::Snapshot)?;
        d.finish()?;
        Ok(set)
    }
}

impl FromIterator<u64> for SerialSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut set = SerialSet::new();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

/// A revocation artifact's payload is the serial set itself: the whole
/// revoked set in a snapshot, the newly revoked serials in a delta.
impl Payload for SerialSet {
    const LABEL: &'static [u8] = b"proxy-aa revocation artifact v1";
    type Subject = PrincipalId;
    type State = SerialSet;

    fn issuer(issuer: &PrincipalId) -> &PrincipalId {
        issuer
    }

    fn encode_subject(issuer: &PrincipalId, e: &mut Encoder) {
        e.str(issuer.as_str());
    }

    fn decode_subject(d: &mut Decoder<'_>) -> Result<PrincipalId, DecodeError> {
        d.principal()
    }

    fn encode_payload(&self, e: &mut Encoder) {
        let mut keys: Vec<u64> = self.chunks.keys().copied().collect();
        keys.sort_unstable();
        e.count(keys.len());
        for key in keys {
            if let Some(container) = self.chunks.get(&key) {
                e.u64(key);
                container.encode_into(e);
            }
        }
    }

    fn decode_payload(d: &mut Decoder<'_>, _: ArtifactKind) -> Result<Self, DecodeError> {
        // Each chunk costs at least key (8) + tag (1) + count (4) bytes.
        let n = d.counted(13)?;
        if n.get() > MAX_CONTAINERS {
            return Err(DecodeError::BadLength(n.get() as u64));
        }
        let mut chunks = n.map();
        let mut prev: Option<u64> = None;
        for _ in 0..n.get() {
            let key = d.u64()?;
            if prev.is_some_and(|p| p >= key) {
                return Err(DecodeError::InvalidValue("chunk keys not increasing"));
            }
            prev = Some(key);
            chunks.insert(key, Container::decode_from(d)?);
        }
        Ok(SerialSet { chunks })
    }

    fn replace(&self) -> SerialSet {
        self.clone()
    }

    fn extend(&self, current: &SerialSet) -> SerialSet {
        let mut next = current.clone();
        next.union_with(self);
        next
    }
}

/// A sealed, epoch-numbered revocation announcement from one issuer (the
/// artifact's subject, and the only principal whose authority may seal
/// it).
pub type RevocationArtifact = Artifact<SerialSet>;

struct RegistryState {
    set: SerialSet,
    /// Serials revoked since the last published artifact.
    pending: SerialSet,
}

impl RegistryState {
    fn revoke(&mut self, serial: u64) -> bool {
        let fresh = self.set.insert(serial);
        if fresh {
            self.pending.insert(serial);
        }
        fresh
    }
}

/// The issuer side: accumulates revocations and publishes sealed
/// artifacts. All operations take `&self`.
pub struct RevocationRegistry {
    issuer: PrincipalId,
    state: RwLock<RegistryState>,
    /// The published epoch and the deltas lagging receivers catch up
    /// from; its lock comes before `state`'s.
    feed: DeltaLog<SerialSet>,
}

impl std::fmt::Debug for RevocationRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RevocationRegistry")
            .field("issuer", &self.issuer)
            .finish_non_exhaustive()
    }
}

/// A registry's publishes under one authority: the pending serials and
/// the revoked set are taken under the registry's lock, and sealed after
/// it is released.
struct Sealing<'a>(&'a RevocationRegistry, &'a GrantAuthority);

impl Publisher for Sealing<'_> {
    type Payload = SerialSet;
    type State = SerialSet;

    fn subject(&self) -> PrincipalId {
        self.0.issuer.clone()
    }

    fn authority(&self) -> &GrantAuthority {
        self.1
    }

    fn take(&self, copy_state: bool) -> Option<Taken<SerialSet, SerialSet>> {
        let mut s = self.0.state.write().ok()?;
        let pending = (!s.pending.is_empty()).then(|| std::mem::take(&mut s.pending));
        Some((pending, copy_state.then(|| s.set.clone())))
    }

    fn snapshot(set: SerialSet) -> SerialSet {
        set
    }
}

impl RevocationRegistry {
    /// An empty registry for `issuer` at epoch 0.
    #[must_use]
    pub fn new(issuer: PrincipalId) -> Self {
        Self {
            issuer,
            state: RwLock::new(RegistryState {
                set: SerialSet::new(),
                pending: SerialSet::new(),
            }),
            feed: DeltaLog::default(),
        }
    }

    /// The issuer this registry revokes for.
    #[must_use]
    pub fn issuer(&self) -> &PrincipalId {
        &self.issuer
    }

    /// Marks `serial` revoked; true when newly revoked. Visible to
    /// artifact consumers only after the next publish.
    pub fn revoke(&self, serial: u64) -> bool {
        // A poisoned registry can no longer promise anything; drop the
        // revocation on the floor rather than panic — publishes from a
        // poisoned registry are refused too.
        self.state.write().is_ok_and(|mut s| s.revoke(serial))
    }

    /// Marks many serials revoked in one epoch-coherent batch.
    pub fn revoke_all(&self, serials: impl IntoIterator<Item = u64>) {
        if let Ok(mut s) = self.state.write() {
            for serial in serials {
                s.revoke(serial);
            }
        }
    }

    /// Current published epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.feed.published()
    }

    /// True when `serial` is revoked (including not-yet-published ones —
    /// the issuer itself always enforces immediately).
    #[must_use]
    pub fn is_revoked(&self, serial: u64) -> bool {
        // Poisoned state answers "revoked": fail closed.
        self.state.read().map_or(true, |s| s.set.contains(serial))
    }

    /// Publishes pending revocations as a sealed delta, bumping the
    /// epoch. Returns `None` when nothing is pending (the epoch does not
    /// move) or the registry is poisoned.
    pub fn publish_delta(&self, authority: &GrantAuthority) -> Option<RevocationArtifact> {
        self.feed.publish_delta(&Sealing(self, authority))
    }

    /// Publishes the complete revoked set as a sealed snapshot at the
    /// current epoch (pending revocations are folded in first as a
    /// delta). Returns `None` when poisoned.
    pub fn publish_snapshot(&self, authority: &GrantAuthority) -> Option<RevocationArtifact> {
        self.feed.publish_snapshot(&Sealing(self, authority))
    }

    /// The artifacts that bring a receiver at `have_epoch` up to date:
    /// the contiguous delta chain when the log still covers it, else one
    /// snapshot. Pending revocations are published first. An empty vec
    /// means the receiver is already current.
    pub fn updates_since(
        &self,
        have_epoch: u64,
        authority: &GrantAuthority,
    ) -> Vec<RevocationArtifact> {
        self.feed
            .updates_since(have_epoch, &Sealing(self, authority))
    }
}

/// The receiver side: per-issuer revocation mirrors consulted on the
/// verify hot path. An empty directory revokes nothing until an artifact
/// says so (absence of revocation data falls back to the paper's
/// expiry-based model).
pub type RevocationDirectory = Directory<SerialSet>;

impl Directory<SerialSet> {
    /// True when `issuer` has revoked `serial` per the mirrored state:
    /// one shared shard read-lock and a point probe, tens of
    /// nanoseconds; applying artifacts never blocks it.
    #[must_use]
    pub fn is_revoked(&self, issuer: &PrincipalId, serial: u64) -> bool {
        self.read(issuer, |set| set.is_some_and(|set| set.contains(serial)))
    }

    /// The position of the first `(issuer, serial)` of `probes` that
    /// [`Self::is_revoked`] answers true for, if any. A run of probes
    /// under one issuer — a cascade's links all name its grantor — takes
    /// that issuer's shard read once, not once per serial.
    #[must_use]
    pub fn first_revoked<'a>(
        &self,
        probes: impl IntoIterator<Item = (&'a PrincipalId, u64)>,
    ) -> Option<usize> {
        let mut probes = probes.into_iter().enumerate().peekable();
        while let Some((first, (issuer, serial))) = probes.next() {
            let found = self.read(issuer, |set| {
                let revoked = |serial| set.is_some_and(|set| set.contains(serial));
                if revoked(serial) {
                    return Some(first);
                }
                while let Some((at, (_, serial))) = probes.next_if(|(_, (i, _))| *i == issuer) {
                    if revoked(serial) {
                        return Some(at);
                    }
                }
                None
            });
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertSeal;
    use crate::key::GrantorVerifier;
    use proxy_crypto::ed25519::SigningKey;
    use proxy_crypto::keys::SymmetricKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    #[test]
    fn serial_set_insert_contains() {
        let mut s = SerialSet::new();
        assert!(!s.contains(7));
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(s.insert(7 + (1 << 16)));
        assert!(s.contains(7 + (1 << 16)));
        assert!(!s.contains(8));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn array_promotes_to_bitmap_past_threshold() {
        let mut s = SerialSet::new();
        for v in 0..(ARRAY_MAX as u64 + 10) {
            // Every other value, so runs stay short.
            s.insert(v * 2);
        }
        assert_eq!(s.len(), ARRAY_MAX + 10);
        for v in 0..(ARRAY_MAX as u64 + 10) {
            assert!(s.contains(v * 2));
            assert!(!s.contains(v * 2 + 1) || v * 2 + 1 == (ARRAY_MAX as u64 + 9) * 2);
        }
    }

    #[test]
    fn count_contained_matches_scalar_probes() {
        let s: SerialSet = (0..5_000u64).map(|i| i * 37).collect();
        let probes: Vec<u64> = (0..1_000u64).map(|i| i * 91).collect();
        let expected = probes.iter().filter(|&&p| s.contains(p)).count() as u64;
        assert_eq!(s.count_contained(&probes), expected);
        assert_eq!(s.count_contained(&[]), 0);
        // Shorter than the pipeline lookahead still answers correctly.
        assert_eq!(s.count_contained(&[0, 1, 37]), 2);
    }

    #[test]
    fn dense_chunks_round_trip_as_runs() {
        // 100k sequential serials: runs compress to a few bytes/chunk.
        let s: SerialSet = (0..100_000u64).collect();
        let bytes = s.encode();
        assert!(
            bytes.len() < 100,
            "sequential serials must run-compress, got {} bytes",
            bytes.len()
        );
        let back = SerialSet::decode(&bytes).unwrap();
        assert_eq!(back.len(), 100_000);
        assert!(back.contains(0) && back.contains(99_999) && !back.contains(100_000));
    }

    #[test]
    fn sparse_sets_round_trip_as_arrays() {
        let s: SerialSet = (0..100u64).map(|i| i * 1_000_003).collect();
        let back = SerialSet::decode(&s.encode()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn union_merges_everything() {
        let a: SerialSet = (0..1000u64).collect();
        let b: SerialSet = (500..1500u64).collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 1500);
    }

    #[test]
    fn decode_rejects_unsorted_chunks_and_arrays() {
        // Unsorted chunk keys.
        let mut e = Encoder::new();
        e.count(2);
        e.u64(5).u8(TAG_ARRAY).count(1).u16(1);
        e.u64(4).u8(TAG_ARRAY).count(1).u16(1);
        assert!(SerialSet::decode(&e.finish()).is_err());
        // Non-increasing array values.
        let mut e = Encoder::new();
        e.count(1);
        e.u64(0).u8(TAG_ARRAY).count(2).u16(9).u16(9);
        assert!(SerialSet::decode(&e.finish()).is_err());
    }

    #[test]
    fn decode_rejects_overlapping_runs() {
        let mut e = Encoder::new();
        e.count(1);
        e.u64(0).u8(TAG_RUN).count(2);
        e.u16(0).u16(10); // covers 0..=10
        e.u16(5).u16(3); // overlaps
        assert!(SerialSet::decode(&e.finish()).is_err());
        // Adjacent-but-merged runs are non-canonical too (next start must
        // leave a gap of at least one value).
        let mut e = Encoder::new();
        e.count(1);
        e.u64(0).u8(TAG_RUN).count(2);
        e.u16(0).u16(4); // 0..=4
        e.u16(5).u16(1); // touches: should have been one run
        assert!(SerialSet::decode(&e.finish()).is_err());
    }

    #[test]
    fn decode_rejects_truncated_bitmap() {
        let mut e = Encoder::new();
        e.count(1);
        e.u64(0).u8(TAG_BITMAP);
        for _ in 0..10 {
            e.u64(u64::MAX); // far fewer than 1024 words
        }
        assert_eq!(
            SerialSet::decode(&e.finish()),
            Err(DecodeError::UnexpectedEnd)
        );
    }

    #[test]
    fn decode_rejects_allocation_bombs() {
        let mut e = Encoder::new();
        e.count(1_000_000); // claims a million chunks, provides none
        assert!(matches!(
            SerialSet::decode(&e.finish()),
            Err(DecodeError::BadLength(_))
        ));
    }

    #[test]
    fn artifact_seal_round_trip_hmac_and_ed25519() {
        let mut rng = StdRng::seed_from_u64(1);
        let shared = SymmetricKey::generate(&mut rng);
        let sk = SigningKey::generate(&mut rng);
        for (authority, verifier) in [
            (
                GrantAuthority::SharedKey(shared.clone()),
                GrantorVerifier::SharedKey(shared.clone()),
            ),
            (
                GrantAuthority::Keypair(sk.clone()),
                GrantorVerifier::PublicKey(sk.verifying_key()),
            ),
        ] {
            let artifact = RevocationArtifact::seal(
                p("authz"),
                3,
                ArtifactKind::Delta { base_epoch: 2 },
                (0..50u64).collect(),
                &authority,
            );
            assert!(artifact.verify_seal(&verifier));
            let back = RevocationArtifact::decode(&artifact.encode()).unwrap();
            assert_eq!(back, artifact);
            assert!(back.verify_seal(&verifier));
        }
    }

    #[test]
    fn tampered_artifact_fails_seal() {
        let mut rng = StdRng::seed_from_u64(2);
        let shared = SymmetricKey::generate(&mut rng);
        let authority = GrantAuthority::SharedKey(shared.clone());
        let verifier = GrantorVerifier::SharedKey(shared);
        let mut artifact = RevocationArtifact::seal(
            p("authz"),
            1,
            ArtifactKind::Snapshot,
            (0..10u64).collect(),
            &authority,
        );
        artifact.payload.insert(11); // sneak one more serial in
        assert!(!artifact.verify_seal(&verifier));
        // Flavor mismatch also fails closed.
        let sk = SigningKey::generate(&mut rng);
        assert!(!artifact.verify_seal(&GrantorVerifier::PublicKey(sk.verifying_key())));
    }

    #[test]
    fn registry_publishes_deltas_then_snapshot_fallback() {
        let mut rng = StdRng::seed_from_u64(3);
        let authority = GrantAuthority::SharedKey(SymmetricKey::generate(&mut rng));
        let reg = RevocationRegistry::new(p("authz"));
        assert!(reg.publish_delta(&authority).is_none(), "nothing pending");
        reg.revoke(1);
        reg.revoke(2);
        let d1 = reg.publish_delta(&authority).unwrap();
        assert_eq!(d1.epoch, 1);
        assert_eq!(d1.kind, ArtifactKind::Delta { base_epoch: 0 });
        assert_eq!(d1.payload.len(), 2);
        reg.revoke(3);
        let updates = reg.updates_since(1, &authority);
        assert_eq!(updates.len(), 1, "one delta from epoch 1 to 2");
        assert_eq!(updates[0].epoch, 2);
        assert!(reg.updates_since(2, &authority).is_empty(), "current");
        // A receiver far behind a truncated log gets a snapshot.
        for i in 0..(DELTA_LOG_DEPTH as u64 + 4) {
            reg.revoke(100 + i);
            reg.publish_delta(&authority);
        }
        let updates = reg.updates_since(1, &authority);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].kind, ArtifactKind::Snapshot);
        assert_eq!(
            updates[0].payload.len(),
            reg.state.read().unwrap().set.len()
        );
    }

    #[test]
    fn directory_applies_snapshots_and_deltas_atomically() {
        let dir = RevocationDirectory::new();
        assert!(!dir.is_revoked(&p("authz"), 5));
        let snap = RevocationArtifact {
            subject: p("authz"),
            epoch: 3,
            kind: ArtifactKind::Snapshot,
            payload: (0..10u64).collect(),
            seal: CertSeal::Hmac([0u8; 32]),
        };
        dir.apply_verified(&snap).unwrap();
        assert!(dir.is_revoked(&p("authz"), 5));
        assert_eq!(dir.epoch_of(&p("authz")), 3);
        // Delta extending epoch 3.
        let delta = RevocationArtifact {
            subject: p("authz"),
            epoch: 4,
            kind: ArtifactKind::Delta { base_epoch: 3 },
            payload: (20..25u64).collect(),
            seal: CertSeal::Hmac([0u8; 32]),
        };
        dir.apply_verified(&delta).unwrap();
        assert!(dir.is_revoked(&p("authz"), 22) && dir.is_revoked(&p("authz"), 5));
        // Epoch rollback rejected; last good state kept.
        let rollback = RevocationArtifact {
            subject: p("authz"),
            epoch: 2,
            kind: ArtifactKind::Snapshot,
            payload: SerialSet::new(),
            seal: CertSeal::Hmac([0u8; 32]),
        };
        assert!(matches!(
            dir.apply_verified(&rollback),
            Err(ArtifactError::EpochRegression {
                current: 4,
                offered: 2
            })
        ));
        assert!(dir.is_revoked(&p("authz"), 5), "last good epoch enforced");
        // Delta against the wrong base rejected.
        let wrong_base = RevocationArtifact {
            subject: p("authz"),
            epoch: 9,
            kind: ArtifactKind::Delta { base_epoch: 7 },
            payload: (30..31u64).collect(),
            seal: CertSeal::Hmac([0u8; 32]),
        };
        assert!(matches!(
            dir.apply_verified(&wrong_base),
            Err(ArtifactError::BaseMismatch {
                current: 4,
                base: 7
            })
        ));
        assert!(!dir.is_revoked(&p("authz"), 30));
    }

    #[test]
    fn registry_end_to_end_into_directory() {
        let mut rng = StdRng::seed_from_u64(4);
        let shared = SymmetricKey::generate(&mut rng);
        let authority = GrantAuthority::SharedKey(shared.clone());
        let verifier = GrantorVerifier::SharedKey(shared);
        let reg = RevocationRegistry::new(p("authz"));
        let dir = RevocationDirectory::new();
        reg.revoke_all(0..1000);
        for artifact in reg.updates_since(dir.epoch_of(&p("authz")), &authority) {
            assert!(artifact.verify_seal(&verifier));
            dir.apply_verified(&artifact).unwrap();
        }
        assert!(dir.is_revoked(&p("authz"), 999));
        assert!(!dir.is_revoked(&p("authz"), 1000));
        // Incremental catch-up.
        reg.revoke(5000);
        for artifact in reg.updates_since(dir.epoch_of(&p("authz")), &authority) {
            dir.apply_verified(&artifact).unwrap();
        }
        assert!(dir.is_revoked(&p("authz"), 5000));
        assert_eq!(dir.epoch_of(&p("authz")), reg.epoch());
    }

    #[test]
    fn first_revoked_answers_what_is_revoked_answers_probe_by_probe() {
        let authority = GrantAuthority::SharedKey(SymmetricKey::from_bytes([3; 32]));
        let dir = RevocationDirectory::new();
        for (issuer, serial) in [("a", 5), ("b", 7)] {
            let reg = RevocationRegistry::new(p(issuer));
            reg.revoke(serial);
            for artifact in reg.updates_since(0, &authority) {
                dir.apply_verified(&artifact).unwrap();
            }
        }
        let (a, b, c) = (p("a"), p("b"), p("c"));
        let cases: [&[(&PrincipalId, u64)]; 6] = [
            &[],
            &[(&a, 1), (&a, 5), (&b, 7)],
            &[(&a, 1), (&b, 5), (&b, 7), (&a, 5)],
            &[(&a, 7), (&b, 5), (&c, 5), (&a, 1)],
            &[(&c, 5), (&a, 5)],
            &[(&b, 7), (&b, 7)],
        ];
        for probes in cases {
            let one_by_one = probes.iter().position(|(i, s)| dir.is_revoked(i, *s));
            assert_eq!(
                dir.first_revoked(probes.iter().copied()),
                one_by_one,
                "{probes:?}"
            );
        }
    }
}
