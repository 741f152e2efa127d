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
//! carried a valid signature". The key is a SHA-256 digest over all three
//! inputs, so an entry can never vouch for different bytes or a different
//! grantor key. What is deliberately **not** cached:
//!
//! * validity windows — checked against `ctx.now` on every request;
//! * accept-once / replay decisions — the replay guard is consulted on
//!   every request;
//! * possession proofs — bound to a fresh challenge each time;
//! * restriction evaluation — context-dependent by definition.
//!
//! Entries carry the certificate's expiry, past which a lookup is a miss,
//! and the whole structure is bounded: at capacity, the oldest entry is
//! evicted (insertion order), so lookup and insert are both O(1).
//! Negative results are never stored — a forged seal is re-checked (and
//! re-fails) on every presentation.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proxy_crypto::sha256::Sha256;

use crate::cert::Certificate;
use crate::time::Timestamp;

/// A digest naming one (certificate body, seal, verifying key) triple.
pub(crate) type SealDigest = [u8; 32];

/// Computes the cache key for a certificate checked against a particular
/// verifier, identified by `verifier_id` (the encoded public key).
/// `body` must be the certificate's [`Certificate::body_bytes`]; callers
/// pass it in so a verify pass can reuse one scratch encoding for both
/// the seal check and the cache key.
pub(crate) fn seal_digest(cert: &Certificate, body: &[u8], verifier_id: &[u8]) -> SealDigest {
    let mut h = Sha256::new();
    h.update(b"proxy-aa seal-cache v1");
    h.update(body);
    let (tag, seal) = cert.seal.wire();
    h.update(&[tag]);
    h.update(seal);
    h.update(verifier_id);
    h.finalize()
}

#[derive(Debug, Default)]
struct CacheInner {
    /// digest → certificate expiry.
    entries: HashMap<SealDigest, Timestamp>,
    /// Insertion order, for bounded eviction.
    order: VecDeque<SealDigest>,
}

/// Caches this large or larger are lock-striped across
/// [`VerifiedCertCache::STRIPES`] shards; smaller caches use one shard so
/// the capacity bound and FIFO eviction order stay globally exact.
const STRIPE_THRESHOLD: usize = 256;

/// Cache of positively-verified certificate seals. See the module docs for
/// the exact contract.
///
/// Interior-mutable so a shared [`crate::verify::Verifier`] can record
/// hits from `&self`; locks are held only for map operations, never
/// across any cryptography. Large caches are lock-striped: the digest's
/// first byte picks one of [`Self::STRIPES`] independent shards, so
/// concurrent verifier threads rarely contend. SHA-256 digests spread
/// uniformly, so each shard's share of the capacity is enforced locally
/// (total bound: stripes × ceil(capacity/stripes)).
#[derive(Debug)]
pub struct VerifiedCertCache {
    shards: Box<[Mutex<CacheInner>]>,
    /// Per-shard entry bound.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VerifiedCertCache {
    /// Lock-stripe count for caches of at least 256 entries.
    pub const STRIPES: usize = 16;

    /// Creates a cache holding at most ~`capacity` entries (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let stripes = if capacity >= STRIPE_THRESHOLD {
            Self::STRIPES
        } else {
            1
        };
        Self {
            shards: (0..stripes).map(|_| Mutex::default()).collect(),
            capacity: capacity.div_ceil(stripes),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, digest: &SealDigest) -> &Mutex<CacheInner> {
        &self.shards[usize::from(digest[0]) % self.shards.len()]
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock").entries.len())
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

    /// True when `digest` holds a cached positive seal check that has not
    /// expired. Updates the hit/miss counters.
    pub(crate) fn contains(&self, digest: &SealDigest, now: Timestamp) -> bool {
        let inner = self.shard(digest).lock().expect("cache lock");
        let hit = inner.entries.get(digest).is_some_and(|exp| now <= *exp);
        drop(inner);
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Records a positive seal check for a certificate expiring at
    /// `expires`. Entries already expired at `now` are not stored. At
    /// capacity the oldest entry (insertion order) is evicted, expired or
    /// not: [`Self::contains`] already treats an expired entry as a miss,
    /// so it only occupies its place until it reaches the front. O(1).
    pub(crate) fn insert(&self, digest: SealDigest, expires: Timestamp, now: Timestamp) {
        if expires < now {
            return;
        }
        let mut inner = self.shard(&digest).lock().expect("cache lock");
        if let Some(known) = inner.entries.get_mut(&digest) {
            // Keeps its place in the eviction order.
            *known = expires;
            return;
        }
        if inner.entries.len() >= self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.entries.remove(&oldest);
            }
        }
        inner.entries.insert(digest, expires);
        inner.order.push_back(digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(tag: u8) -> SealDigest {
        [tag; 32]
    }

    #[test]
    fn hit_then_miss_after_expiry() {
        let cache = VerifiedCertCache::new(8);
        cache.insert(digest(1), Timestamp(100), Timestamp(10));
        assert!(cache.contains(&digest(1), Timestamp(50)));
        assert!(cache.contains(&digest(1), Timestamp(100)));
        assert!(!cache.contains(&digest(1), Timestamp(101)));
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn never_stores_already_expired() {
        let cache = VerifiedCertCache::new(8);
        cache.insert(digest(2), Timestamp(5), Timestamp(10));
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_is_first_in_first_out_whatever_has_expired() {
        let cache = VerifiedCertCache::new(2);
        cache.insert(digest(1), Timestamp(1000), Timestamp(0));
        cache.insert(digest(2), Timestamp(20), Timestamp(0));
        // At capacity and past digest(2)'s expiry: the front goes all the
        // same, and the expired entry is a miss while it waits its turn.
        cache.insert(digest(3), Timestamp(1000), Timestamp(30));
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&digest(1), Timestamp(40)));
        assert!(!cache.contains(&digest(2), Timestamp(40)));
        assert!(cache.contains(&digest(3), Timestamp(40)));

        cache.insert(digest(4), Timestamp(1000), Timestamp(40));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&digest(3), Timestamp(40)));
        assert!(cache.contains(&digest(4), Timestamp(40)));
    }

    #[test]
    fn ten_times_capacity_inserts_never_exceed_the_bound() {
        for capacity in [1usize, 7, 300] {
            let cache = VerifiedCertCache::new(capacity);
            let bound = cache.shards.len() * cache.capacity;
            assert!(bound >= capacity && bound < capacity + VerifiedCertCache::STRIPES);
            for i in 0..10 * capacity as u32 {
                let mut d = [0u8; 32];
                d[..4].copy_from_slice(&i.to_be_bytes());
                d[0] ^= d[3];
                // Every third entry is short-lived and expires while cached.
                let expires = if i % 3 == 0 { i + 1 } else { u32::MAX };
                cache.insert(d, Timestamp(expires.into()), Timestamp(i.into()));
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
        cache.insert(digest(1), Timestamp(10), Timestamp(0));
        assert!(!cache.contains(&digest(1), Timestamp(11)));
        assert_eq!(cache.len(), 1, "expired, not yet evicted");
        cache.insert(digest(1), Timestamp(100), Timestamp(11));
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&digest(1), Timestamp(50)));
        assert_eq!(cache.stats(), (1, 1));
        // It kept its place: still the first to go.
        cache.insert(digest(2), Timestamp(100), Timestamp(50));
        cache.insert(digest(3), Timestamp(100), Timestamp(50));
        assert!(!cache.contains(&digest(1), Timestamp(50)));
        assert!(cache.contains(&digest(2), Timestamp(50)));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let cache = VerifiedCertCache::new(2);
        cache.insert(digest(1), Timestamp(100), Timestamp(0));
        cache.insert(digest(1), Timestamp(100), Timestamp(0));
        assert_eq!(cache.len(), 1);
        cache.insert(digest(2), Timestamp(100), Timestamp(0));
        cache.insert(digest(3), Timestamp(100), Timestamp(0));
        // digest(1) was evicted exactly once despite the double insert.
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&digest(3), Timestamp(0)));
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let cache = VerifiedCertCache::new(0);
        cache.insert(digest(1), Timestamp(10), Timestamp(0));
        assert_eq!(cache.len(), 1);
        cache.insert(digest(2), Timestamp(10), Timestamp(0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn striped_cache_spreads_and_stays_bounded() {
        // ≥ the stripe threshold → 16 shards; digests differing in their
        // first byte land on different stripes but behave as one cache.
        let cache = VerifiedCertCache::new(1024);
        for tag in 0..=255u8 {
            cache.insert(digest(tag), Timestamp(1000), Timestamp(0));
        }
        assert_eq!(cache.len(), 256);
        for tag in 0..=255u8 {
            assert!(cache.contains(&digest(tag), Timestamp(500)));
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
                        let d = digest(t.wrapping_mul(64).wrapping_add(i));
                        cache.insert(d, Timestamp(1000), Timestamp(0));
                        assert!(cache.contains(&d, Timestamp(10)));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 256);
    }
}
