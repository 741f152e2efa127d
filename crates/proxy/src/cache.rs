//! A bounded, expiry-aware cache of certificate seal checks.
//!
//! Re-presentation is the common case in the paper's workloads: the same
//! proxy chain arrives at an end-server once per request, and at an
//! accounting server once per clearing hop. The expensive part of each
//! arrival is re-checking the Ed25519 seals; everything else (validity
//! windows, possession proofs, restriction evaluation, replay guards) is
//! cheap *and request-dependent*, so it must run every time.
//!
//! This cache therefore memoizes exactly one fact per entry: "this
//! certificate body, under this seal, checked against this verifying key,
//! carried a valid signature". The entry's key is the triple itself,
//! fixed-size — the SHA-256 digest of the body, the 64-byte signature and
//! the 32-byte key (`SealKey`) — so an entry can never vouch for
//! different bytes or a different grantor key, and the one digest a
//! verification takes per body serves the lookup and, for the final link,
//! the possession proof's binding too. What is deliberately **not**
//! cached:
//!
//! * validity windows — checked against `ctx.now` on every request;
//! * accept-once / replay decisions — the replay guard is consulted on
//!   every request;
//! * possession proofs — bound to a fresh challenge each time;
//! * restriction evaluation — context-dependent by definition.
//!
//! Entries carry the certificate's expiry, past which a lookup is a miss,
//! and the whole structure is bounded: at capacity, the oldest entry is
//! evicted (insertion order). A shard is a ring of at most its share of
//! the capacity in fixed-size slots — 64 for the servers' 1 024 — with
//! each slot's first eight key bytes in an array of their own: a lookup
//! scans that array and compares a whole key only where those match, and
//! an insert at capacity overwrites the oldest slot. Nothing is allocated
//! after construction, and a full cache is its slots and nothing more.
//! Negative results are never stored — a forged seal is re-checked (and
//! re-fails) on every presentation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proxy_crypto::ed25519::{Signature, VerifyingKey};

use crate::encode::Bounded;
use crate::time::Timestamp;

/// What one entry vouches for: a certificate body by its SHA-256 digest,
/// the Ed25519 seal over it, and the key the seal was checked against,
/// side by side and compared whole.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct SealKey([u8; 128]);

impl SealKey {
    pub(crate) fn new(body_digest: &[u8; 32], seal: &Signature, key: &VerifyingKey) -> SealKey {
        let mut bytes = [0u8; 128];
        bytes[..32].copy_from_slice(body_digest);
        bytes[32..96].copy_from_slice(seal.as_bytes());
        bytes[96..].copy_from_slice(key.as_bytes());
        SealKey(bytes)
    }

    /// The first eight bytes of the body digest: what a lookup scans, and
    /// what picks the shard.
    fn prefix(&self) -> u64 {
        let mut le = [0u8; 8];
        le.copy_from_slice(&self.0[..8]);
        u64::from_le_bytes(le)
    }
}

impl std::fmt::Debug for SealKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SealKey({:016x}…)", self.prefix())
    }
}

/// One shard: up to `capacity` slots, filled in insertion order and then
/// overwritten oldest first.
#[derive(Debug)]
struct Ring {
    /// Each slot's key prefix, scanned before a whole key is compared.
    prefixes: Vec<u64>,
    slots: Vec<(SealKey, Timestamp)>,
    /// Once the ring is full, the oldest slot: the next to be overwritten.
    next: usize,
}

impl Ring {
    fn with_capacity(capacity: Bounded) -> Ring {
        Ring {
            prefixes: capacity.vec(),
            slots: capacity.vec(),
            next: 0,
        }
    }

    /// The slot holding `key`.
    fn find(&self, key: &SealKey) -> Option<usize> {
        let prefix = key.prefix();
        self.prefixes
            .iter()
            .enumerate()
            .filter(|&(_, p)| *p == prefix)
            .map(|(i, _)| i)
            .find(|&i| self.slots.get(i).is_some_and(|(k, _)| k == key))
    }
}

/// Caches this large or larger are lock-striped across at least
/// [`VerifiedCertCache::STRIPES`] shards; smaller caches use one shard so
/// the capacity bound and FIFO eviction order stay globally exact.
const STRIPE_THRESHOLD: usize = 256;

/// The most slots one shard of a striped cache holds: past
/// `STRIPES × SHARD_SLOTS` entries a cache gets more shards, not longer
/// scans.
const SHARD_SLOTS: usize = 64;

/// Cache of positively-verified certificate seals. See the module docs for
/// the exact contract.
///
/// Interior-mutable so a shared [`crate::verify::Verifier`] can record
/// hits from `&self`; locks are held only for a shard scan or write,
/// never across any cryptography. Large caches are lock-striped: the body
/// digest's first eight bytes pick one of the shards, so concurrent
/// verifier threads rarely contend. SHA-256 digests spread uniformly, so
/// each shard's share of the capacity is enforced locally (total bound:
/// shards × ceil(capacity/shards)).
#[derive(Debug)]
pub struct VerifiedCertCache {
    shards: Box<[Mutex<Ring>]>,
    /// Per-shard entry bound.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerifiedCertCache {
    /// Lock-stripe count for caches of 256 to 1 024 entries; a larger
    /// cache has one stripe per 64.
    pub const STRIPES: usize = 16;

    /// Creates a cache holding at most ~`capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let stripes = if capacity >= STRIPE_THRESHOLD {
            Self::STRIPES.max(capacity.div_ceil(SHARD_SLOTS))
        } else {
            1
        };
        let per_shard = capacity.div_ceil(stripes);
        // Below the threshold one shard holds it all, above it no shard
        // holds more than `SHARD_SLOTS`.
        let room = Bounded::at_most(per_shard, STRIPE_THRESHOLD)
            .unwrap_or(Bounded::fixed::<SHARD_SLOTS>());
        Self {
            shards: (0..stripes)
                .map(|_| Mutex::new(Ring::with_capacity(room)))
                .collect(),
            capacity: per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &SealKey) -> &Mutex<Ring> {
        let index = key.prefix() % self.shards.len() as u64;
        &self.shards[index as usize]
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").slots.len())
            .sum()
    }

    /// True when no entries are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hits, misses) counters, for instrumentation and the
    /// benchmark ablation.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Every entry's key bytes, sorted: what a test compares two caches
    /// by.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<[u8; 128]> {
        let mut keys: Vec<[u8; 128]> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("cache lock").slots.clone())
            .map(|(key, _)| key.0)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// True when `key` holds a cached positive seal check that has not
    /// expired. Updates the hit/miss counters.
    pub(crate) fn contains(&self, key: &SealKey, now: Timestamp) -> bool {
        let ring = self.shard(key).lock().expect("cache lock");
        let hit = ring
            .find(key)
            .and_then(|i| ring.slots.get(i))
            .is_some_and(|(_, expires)| now <= *expires);
        drop(ring);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Records a positive seal check for a certificate expiring at
    /// `expires`. Entries already expired at `now` are not stored. At
    /// capacity the oldest entry (insertion order) is overwritten, expired
    /// or not: [`Self::contains`] already treats an expired entry as a
    /// miss, so it only occupies its slot until its turn comes.
    pub(crate) fn insert(&self, key: SealKey, expires: Timestamp, now: Timestamp) {
        if expires < now {
            return;
        }
        let mut guard = self.shard(&key).lock().expect("cache lock");
        let ring = &mut *guard;
        if let Some(i) = ring.find(&key) {
            // Keeps its place in the eviction order.
            if let Some(slot) = ring.slots.get_mut(i) {
                slot.1 = expires;
            }
            return;
        }
        if ring.slots.len() < self.capacity {
            ring.prefixes.push(key.prefix());
            ring.slots.push((key, expires));
            return;
        }
        let oldest = ring.next;
        if let (Some(prefix), Some(slot)) =
            (ring.prefixes.get_mut(oldest), ring.slots.get_mut(oldest))
        {
            *prefix = key.prefix();
            *slot = (key, expires);
        }
        ring.next = (oldest + 1) % self.capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8) -> SealKey {
        SealKey([tag; 128])
    }

    #[test]
    fn hit_then_miss_after_expiry() {
        let cache = VerifiedCertCache::new(8);
        cache.insert(key(1), Timestamp(100), Timestamp(10));
        assert!(cache.contains(&key(1), Timestamp(50)));
        assert!(cache.contains(&key(1), Timestamp(100)));
        assert!(!cache.contains(&key(1), Timestamp(101)));
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn never_stores_already_expired() {
        let cache = VerifiedCertCache::new(8);
        cache.insert(key(2), Timestamp(5), Timestamp(10));
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_is_first_in_first_out_whatever_has_expired() {
        let cache = VerifiedCertCache::new(2);
        cache.insert(key(1), Timestamp(1000), Timestamp(0));
        cache.insert(key(2), Timestamp(20), Timestamp(0));
        // At capacity and past key(2)'s expiry: the front goes all the
        // same, and the expired entry is a miss while it waits its turn.
        cache.insert(key(3), Timestamp(1000), Timestamp(30));
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&key(1), Timestamp(40)));
        assert!(!cache.contains(&key(2), Timestamp(40)));
        assert!(cache.contains(&key(3), Timestamp(40)));

        cache.insert(key(4), Timestamp(1000), Timestamp(40));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&key(3), Timestamp(40)));
        assert!(cache.contains(&key(4), Timestamp(40)));
    }

    #[test]
    fn ten_times_capacity_inserts_never_exceed_the_bound() {
        for capacity in [1usize, 7, 300] {
            let cache = VerifiedCertCache::new(capacity);
            let bound = cache.shards.len() * cache.capacity;
            assert!(bound >= capacity && bound < capacity + VerifiedCertCache::STRIPES);
            for i in 0..10 * capacity as u32 {
                let mut d = [0u8; 128];
                d[..4].copy_from_slice(&i.to_be_bytes());
                d[0] ^= d[3];
                // Every third entry is short-lived and expires while cached.
                let expires = if i % 3 == 0 { i + 1 } else { u32::MAX };
                cache.insert(SealKey(d), Timestamp(expires.into()), Timestamp(i.into()));
                assert!(
                    cache.len() <= bound,
                    "{} entries, bound {bound}",
                    cache.len()
                );
            }
            assert_eq!(cache.len(), bound);
        }
    }

    #[test]
    fn expired_entry_is_a_miss_and_is_replaced_on_reinsert() {
        let cache = VerifiedCertCache::new(2);
        cache.insert(key(1), Timestamp(10), Timestamp(0));
        assert!(!cache.contains(&key(1), Timestamp(11)));
        assert_eq!(cache.len(), 1, "expired, not yet evicted");
        cache.insert(key(1), Timestamp(100), Timestamp(11));
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&key(1), Timestamp(50)));
        assert_eq!(cache.stats(), (1, 1));
        // It kept its place: still the first to go.
        cache.insert(key(2), Timestamp(100), Timestamp(50));
        cache.insert(key(3), Timestamp(100), Timestamp(50));
        assert!(!cache.contains(&key(1), Timestamp(50)));
        assert!(cache.contains(&key(2), Timestamp(50)));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let cache = VerifiedCertCache::new(2);
        cache.insert(key(1), Timestamp(100), Timestamp(0));
        cache.insert(key(1), Timestamp(100), Timestamp(0));
        assert_eq!(cache.len(), 1);
        cache.insert(key(2), Timestamp(100), Timestamp(0));
        cache.insert(key(3), Timestamp(100), Timestamp(0));
        // key(1) was evicted exactly once despite the double insert.
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&key(3), Timestamp(0)));
    }

    #[test]
    fn an_entry_vouches_for_its_body_seal_and_key_only() {
        let signer = |tag| proxy_crypto::ed25519::SigningKey::from_seed(&[tag; 32]);
        let (alice, mallory) = (signer(1), signer(2));
        let body = [7u8; 32];
        let seal = alice.sign(b"body");
        let entry = SealKey::new(&body, &seal, &alice.verifying_key());
        let cache = VerifiedCertCache::new(1024);
        cache.insert(entry, Timestamp(100), Timestamp(0));
        assert!(cache.contains(&entry, Timestamp(0)));
        // One byte of any of the three is another entry, though the
        // first two keep the prefix the scan matches on.
        let mut other_body = body;
        other_body[31] ^= 1;
        for stranger in [
            SealKey::new(&other_body, &seal, &alice.verifying_key()),
            SealKey::new(&body, &mallory.sign(b"body"), &alice.verifying_key()),
            SealKey::new(&body, &seal, &mallory.verifying_key()),
        ] {
            assert_eq!(stranger.prefix(), entry.prefix());
            assert!(!cache.contains(&stranger, Timestamp(0)));
        }
    }

    #[test]
    fn a_full_ring_overwrites_oldest_first_round_after_round() {
        let cache = VerifiedCertCache::new(3);
        for tag in 0..12u8 {
            cache.insert(key(tag), Timestamp(100), Timestamp(0));
            assert_eq!(cache.len(), usize::from(tag + 1).min(3));
            // Exactly the last three survive.
            for old in 0..=tag {
                let live = old + 3 > tag;
                assert_eq!(
                    cache.contains(&key(old), Timestamp(0)),
                    live,
                    "{old} after {tag}"
                );
            }
        }
    }

    #[test]
    fn a_shard_never_scans_more_than_sixty_four_slots() {
        for (capacity, shards) in [(255, 1), (256, 16), (1024, 16), (4096, 64), (5000, 79)] {
            let cache = VerifiedCertCache::new(capacity);
            assert_eq!(cache.shards.len(), shards, "capacity {capacity}");
            assert!(shards == 1 || cache.capacity <= SHARD_SLOTS);
        }
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let cache = VerifiedCertCache::new(0);
        cache.insert(key(1), Timestamp(10), Timestamp(0));
        assert_eq!(cache.len(), 1);
        cache.insert(key(2), Timestamp(10), Timestamp(0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn striped_cache_spreads_and_stays_bounded() {
        // ≥ the stripe threshold → 16 shards; digests differing in their
        // first byte land on different stripes but behave as one cache.
        let cache = VerifiedCertCache::new(1024);
        for tag in 0..=255u8 {
            cache.insert(key(tag), Timestamp(1000), Timestamp(0));
        }
        assert_eq!(cache.len(), 256);
        for tag in 0..=255u8 {
            assert!(cache.contains(&key(tag), Timestamp(500)));
        }
        assert_eq!(cache.stats(), (256, 0));
    }

    #[test]
    fn striped_cache_is_safe_under_contention() {
        let cache = VerifiedCertCache::new(512);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..64u8 {
                        let d = key(t.wrapping_mul(64).wrapping_add(i));
                        cache.insert(d, Timestamp(1000), Timestamp(0));
                        assert!(cache.contains(&d, Timestamp(10)));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 256);
    }
}
