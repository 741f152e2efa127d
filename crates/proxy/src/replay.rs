//! Replay protection: the one memory of consumed identifiers.
//!
//! "Once a check is paid, the accounting server keeps track of the check
//! number until the expiration time on the check. If, within that period,
//! another check with the same number is seen, it is rejected." (§4)
//!
//! The same rule guards an `accept-once` proxy's id (§7.7) and a Kerberos
//! authenticator inside its clock-skew window (§6.2), and [`ReplayCache`]
//! applies it to all three: a lock-striped, bounded, expiry-sweeping map
//! of `(principal, id)` to the time it may be forgotten, marked through
//! `&self` by every thread of a concurrent server. Per-key decisions are
//! made under one stripe lock, so exactly one of any number of racing
//! presenters wins a given `(grantor, id)`.
//!
//! The cache is **bounded fail-closed**: when a stripe is full and no
//! expired entry can be evicted, a *fresh* identifier is rejected rather
//! than admitted untracked — forgetting an identifier could admit a
//! replay, refusing a fresh proxy merely forces a retry.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::principal::PrincipalId;
use crate::shard::rank::{self, Rank};
use crate::time::Timestamp;

/// End-server-side memory of `accept-once` identifiers: [`ReplayCache`],
/// owned or shared, or a decorator around one.
pub trait ReplayGuard {
    /// Records `(grantor, id)` if fresh, remembering it until `expires`.
    /// `now` is the request's timestamp; implementations use it to sweep
    /// entries whose retention window has passed. Returns `true` when
    /// fresh (the proxy may be accepted), `false` when the identifier was
    /// already used — or when the guard is full and cannot safely track a
    /// new identifier.
    fn accept_once(
        &mut self,
        grantor: &PrincipalId,
        id: u64,
        now: Timestamp,
        expires: Timestamp,
    ) -> bool;

    /// Drops identifiers whose retention window has passed. Identifiers
    /// need only be remembered until the proxy carrying them expires —
    /// after that the proxy is unusable anyway.
    fn expire(&mut self, now: Timestamp);
}

/// One lock stripe of a [`ReplayCache`].
#[derive(Debug, Default)]
struct ReplayShard {
    seen: HashMap<(PrincipalId, u64), Timestamp>,
    /// Marks since the last amortized sweep of this shard.
    since_sweep: u32,
    /// The `now` of this shard's last sweep, which kept only marks
    /// expiring after it; `None` before the first (nothing was dropped).
    swept_at: Option<Timestamp>,
    /// The lowest expiry marked into this shard since that sweep.
    lowest: Option<Timestamp>,
    /// The marks a refused replay extended since the last
    /// [`ReplayCache::take_extended`], at the expiry they were extended
    /// to: no record carries an extension, so a journal takes them from
    /// here. Each is in `seen` at that expiry, and goes with it.
    extended: HashMap<(PrincipalId, u64), Timestamp>,
}

impl ReplayShard {
    /// Drops the marks whose retention ends at or before `now`.
    fn sweep(&mut self, now: Timestamp) {
        self.seen.retain(|_, exp| *exp > now);
        self.swept_at = Some(now);
        self.lowest = None;
        if !self.extended.is_empty() {
            self.extended.retain(|_, exp| *exp > now);
        }
    }

    /// Remembers `(grantor, id)` until `expires`, or until its prior
    /// retention if that is longer.
    fn insert(&mut self, key: (PrincipalId, u64), expires: Timestamp) {
        self.lowest = Some(self.lowest.map_or(expires, |low| low.min(expires)));
        self.seen
            .entry(key)
            .and_modify(|prior| *prior = expires.max(*prior))
            .or_insert(expires);
    }

    /// No mark this shard holds expires before the returned time.
    fn floor(&self) -> Timestamp {
        if self.seen.is_empty() {
            return Timestamp(u64::MAX);
        }
        let swept = self.swept_at.map_or(u64::MAX, |t| t.0.saturating_add(1));
        let lowest = self.lowest.map_or(u64::MAX, |t| t.0);
        Timestamp(swept.min(lowest))
    }
}

/// Amortized sweep period per shard: every this many marks, a shard drops
/// its expired entries even when it is nowhere near capacity, so a
/// long-lived server's memory tracks the *live* identifier population.
const SWEEP_PERIOD: u32 = 1024;

/// A concurrent, bounded replay cache: N lock stripes over the
/// `(grantor, id)` space, shared across server threads via `&self`.
///
/// The per-key check-and-mark is atomic under one shard lock, so when K
/// presenters race the same `accept-once` identifier exactly one is
/// admitted. The cache is bounded: per shard, at capacity, expired entries
/// are swept; if all entries are live, *fresh* identifiers are rejected
/// (fail-closed — see the module docs). Expired entries are additionally
/// swept every `SWEEP_PERIOD` (1024) marks per shard, keeping a long-lived
/// server's footprint proportional to its live proxies, not its history.
///
/// Each shard also keeps what its sweeps prove: the `now` of its last
/// sweep and the lowest expiry marked since. Over all shards that gives
/// [`Self::expiry_floor`], a time before which nothing remembered
/// expires, so a journal that keeps the marks it recorded (a snapshot's
/// runs, DESIGN.md §15.3) can drop those expiring before it without
/// reading the cache back: what it keeps is a superset of the cache.
/// The one change no record carries, a refused replay's longer
/// retention, waits in its shard until [`Self::take_extended`].
#[derive(Debug)]
pub struct ReplayCache {
    shards: Box<[Mutex<ReplayShard>]>,
    per_shard_capacity: usize,
    hasher: RandomState,
    /// Fresh identifiers rejected because a shard was full of live
    /// entries (fail-closed events) — an operational red flag.
    rejected_full: AtomicU64,
}

impl ReplayCache {
    /// Default total identifier capacity.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;
    /// Default lock-stripe count.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a cache with the default capacity and stripe count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY, Self::DEFAULT_SHARDS)
    }

    /// Creates a cache holding at most ~`capacity` identifiers across
    /// `shards` stripes (both minimum 1). The bound is enforced per
    /// stripe, so the effective total is `shards × ceil(capacity/shards)`.
    #[must_use]
    pub fn with_capacity(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            per_shard_capacity: per_shard,
            hasher: RandomState::new(),
            rejected_full: AtomicU64::new(0),
        }
    }

    fn shard(&self, grantor: &PrincipalId, id: u64) -> &Mutex<ReplayShard> {
        let h = self.hasher.hash_one((grantor, id));
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// The concurrent check-and-mark: records `(grantor, id)` if fresh,
    /// under the owning shard's lock. Semantics match
    /// [`ReplayGuard::accept_once`], from `&self`.
    pub fn check_and_mark(
        &self,
        grantor: &PrincipalId,
        id: u64,
        now: Timestamp,
        expires: Timestamp,
    ) -> bool {
        let _held = rank::hold(Rank::Replay);
        let mut guard = self.shard(grantor, id).lock().expect("replay shard");
        let shard = &mut *guard;
        shard.since_sweep += 1;
        if shard.since_sweep >= SWEEP_PERIOD {
            shard.since_sweep = 0;
            shard.sweep(now);
        }
        let key = (grantor.clone(), id);
        if let Some(prior) = shard.seen.get_mut(&key) {
            // Remember the longer of the two retention windows.
            if expires > *prior {
                *prior = expires;
                shard.extended.insert(key, expires);
            }
            return false;
        }
        if shard.seen.len() >= self.per_shard_capacity {
            // Entries past their retention window can no longer gate
            // anything (the proxies carrying them are expired).
            shard.sweep(now);
            if shard.seen.len() >= self.per_shard_capacity {
                // Fail closed: full of live entries — refusing a fresh
                // proxy is safe, silently forgetting a consumed
                // identifier is not.
                self.rejected_full.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        shard.insert(key, expires);
        true
    }

    /// Force-marks `(grantor, id)` as already consumed, *bypassing* the
    /// capacity bound: the durable-recovery path (`proxy-storage` WAL
    /// replay) restores the pre-crash replay set with this, and on
    /// recovery never-forget is the safe direction — an over-full cache
    /// rejects some fresh proxies until entries expire, while a dropped
    /// mark would admit a replayed check. No expiry judgement is made
    /// here (recovery takes no ambient clock); the normal sweeps trim
    /// stale marks as soon as the server starts serving.
    pub fn rehydrate(&self, grantor: &PrincipalId, id: u64, expires: Timestamp) {
        let _held = rank::hold(Rank::Replay);
        let mut shard = self.shard(grantor, id).lock().expect("replay shard");
        shard.insert((grantor.clone(), id), expires);
    }

    /// Forgets `(grantor, id)`: what a caller does with a mark it took
    /// through [`Self::check_and_mark`] when the operation that took it is
    /// refused before anything durable records the mark. A duplicate that
    /// arrived between the take and the forget was refused as a replay —
    /// the answer it would have had if the operation had gone through.
    pub fn forget(&self, grantor: &PrincipalId, id: u64) {
        let _held = rank::hold(Rank::Replay);
        let mut shard = self.shard(grantor, id).lock().expect("replay shard");
        let key = (grantor.clone(), id);
        shard.seen.remove(&key);
        if !shard.extended.is_empty() {
            shard.extended.remove(&key);
        }
    }

    /// Visits every remembered `(grantor, id, expires)` entry, one shard
    /// at a time — the durable snapshot writer enumerates the replay set
    /// with this. Entries within a shard come in hash-map order; callers
    /// needing a canonical order must sort.
    pub fn for_each_entry(&self, mut f: impl FnMut(&PrincipalId, u64, Timestamp)) {
        for shard in self.shards.iter() {
            let _held = rank::hold(Rank::Replay);
            let shard = shard.lock().expect("replay shard");
            for ((grantor, id), expires) in shard.seen.iter() {
                f(grantor, *id, *expires);
            }
        }
    }

    /// Sweeps every shard's expired entries.
    pub fn sweep(&self, now: Timestamp) {
        for shard in self.shards.iter() {
            let _held = rank::hold(Rank::Replay);
            let mut shard = shard.lock().expect("replay shard");
            shard.since_sweep = 0;
            shard.sweep(now);
        }
    }

    /// A time no remembered identifier expires before, proven by the
    /// cache's own sweeps: per shard, the lower of one past the `now` of
    /// its last sweep and the lowest expiry marked since (a clock that
    /// went backwards shows in the second), over every shard that holds
    /// anything; `Timestamp(u64::MAX)` when none does. A request's `now`
    /// the cache has not swept with never moves it. A journal that kept
    /// what it recorded may drop whatever expires before it, once it
    /// has also taken the extensions made up to the reading
    /// ([`Self::take_extended`]): an extended identifier is remembered
    /// past the expiry its record says.
    #[must_use]
    pub fn expiry_floor(&self) -> Timestamp {
        self.shards
            .iter()
            .map(|shard| {
                let _held = rank::hold(Rank::Replay);
                shard.lock().expect("replay shard").floor()
            })
            .min()
            .unwrap_or(Timestamp(u64::MAX))
    }

    /// Hands `f` every identifier whose retention a refused replay
    /// extended ([`Self::check_and_mark`]) since the last call, with the
    /// expiry it is remembered until, and forgets that it was extended.
    /// Only extensions of identifiers still remembered are kept (a sweep
    /// or [`Self::forget`] drops them with the identifier), so what waits
    /// here is bounded by the cache.
    pub fn take_extended(&self, mut f: impl FnMut(&PrincipalId, u64, Timestamp)) {
        for shard in self.shards.iter() {
            let _held = rank::hold(Rank::Replay);
            let mut shard = shard.lock().expect("replay shard");
            for ((grantor, id), expires) in shard.extended.drain() {
                f(&grantor, id, expires);
            }
        }
    }

    /// Number of identifiers currently remembered, across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _held = rank::hold(Rank::Replay);
                s.lock().expect("replay shard").seen.len()
            })
            .sum()
    }

    /// True when no identifiers are remembered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total identifier capacity (shards × per-shard bound).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Fail-closed events: fresh identifiers rejected because their shard
    /// was full of live entries.
    #[must_use]
    pub fn rejected_full(&self) -> u64 {
        self.rejected_full.load(Ordering::Relaxed)
    }
}

impl Default for ReplayCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The old name of [`ReplayCache`], kept only for the end-to-end
/// benchmark's sources, which are frozen.
pub type MemoryReplayGuard = ReplayCache;

impl ReplayGuard for ReplayCache {
    fn accept_once(
        &mut self,
        grantor: &PrincipalId,
        id: u64,
        now: Timestamp,
        expires: Timestamp,
    ) -> bool {
        self.check_and_mark(grantor, id, now, expires)
    }

    fn expire(&mut self, now: Timestamp) {
        self.sweep(now);
    }
}

/// A shared reference is itself a guard: concurrent servers pass
/// `&mut &cache` where the verifier wants `&mut dyn ReplayGuard`, keeping
/// the hot path `&self` end to end.
impl ReplayGuard for &ReplayCache {
    fn accept_once(
        &mut self,
        grantor: &PrincipalId,
        id: u64,
        now: Timestamp,
        expires: Timestamp,
    ) -> bool {
        self.check_and_mark(grantor, id, now, expires)
    }

    fn expire(&mut self, now: Timestamp) {
        self.sweep(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> PrincipalId {
        PrincipalId::new(name)
    }

    #[test]
    fn replay_cache_basic_round_trip() {
        let cache = ReplayCache::with_capacity(1024, 4);
        assert!(cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(10)));
        assert!(!cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(10)));
        assert!(cache.check_and_mark(&p("c"), 2, Timestamp(0), Timestamp(10)));
        assert!(cache.check_and_mark(&p("d"), 1, Timestamp(0), Timestamp(10)));
        assert_eq!(cache.len(), 3);
        cache.sweep(Timestamp(9));
        assert!(
            !cache.check_and_mark(&p("c"), 1, Timestamp(9), Timestamp(10)),
            "still remembered"
        );
        cache.sweep(Timestamp(10));
        assert!(cache.is_empty());
        // After the window the id may be seen again (a new check may
        // legitimately reuse a number after the old one expired).
        assert!(cache.check_and_mark(&p("c"), 1, Timestamp(11), Timestamp(20)));
    }

    #[test]
    fn replay_extends_retention() {
        let cache = ReplayCache::new();
        assert!(cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(10)));
        // A replay attempt carrying a longer expiry must extend retention.
        assert!(!cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(50)));
        cache.sweep(Timestamp(10));
        assert!(
            !cache.check_and_mark(&p("c"), 1, Timestamp(10), Timestamp(50)),
            "retention extended"
        );
    }

    #[test]
    fn a_forgotten_mark_is_fresh_again() {
        let cache = ReplayCache::new();
        assert!(cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(10)));
        assert!(cache.check_and_mark(&p("c"), 2, Timestamp(0), Timestamp(10)));
        cache.forget(&p("c"), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(10)));
        assert!(!cache.check_and_mark(&p("c"), 2, Timestamp(0), Timestamp(10)));
    }

    #[test]
    fn replay_cache_works_through_the_trait_by_reference() {
        let cache = ReplayCache::new();
        let mut guard: &ReplayCache = &cache;
        let replay: &mut dyn ReplayGuard = &mut guard;
        assert!(replay.accept_once(&p("c"), 7, Timestamp(0), Timestamp(10)));
        assert!(!replay.accept_once(&p("c"), 7, Timestamp(0), Timestamp(10)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn replay_cache_exactly_once_under_contention() {
        let cache = ReplayCache::with_capacity(1024, 8);
        let grantor = p("carol");
        let admitted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let grantor = &grantor;
                let admitted = &admitted;
                scope.spawn(move || {
                    for id in 0..200 {
                        if cache.check_and_mark(grantor, id, Timestamp(1), Timestamp(1000)) {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // 8 threads raced every one of 200 identifiers; each id was
        // admitted exactly once.
        assert_eq!(admitted.load(Ordering::Relaxed), 200);
        assert_eq!(cache.len(), 200);
    }

    #[test]
    fn replay_cache_bounded_and_fail_closed() {
        let cache = ReplayCache::with_capacity(64, 4);
        assert_eq!(cache.capacity(), 64);
        // Flood with live entries far beyond capacity.
        for id in 0..10_000 {
            cache.check_and_mark(&p("c"), id, Timestamp(0), Timestamp(u64::MAX));
        }
        assert!(cache.len() <= cache.capacity());
        let refused = cache.rejected_full();
        assert!(refused > 0, "fail-closed events recorded");
        // A consumed identifier is still refused when the cache is full,
        // and that refusal is a replay, not a fail-closed event.
        let mut consumed = None;
        cache.for_each_entry(|_, id, _| consumed = Some(id));
        let consumed = consumed.expect("the cache holds live entries");
        assert!(!cache.check_and_mark(&p("c"), consumed, Timestamp(0), Timestamp(u64::MAX)));
        assert_eq!(cache.rejected_full(), refused);
        // Expiring everything restores admission.
        cache.sweep(Timestamp(u64::MAX));
        assert!(cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(u64::MAX)));
    }

    #[test]
    fn rehydrated_marks_reject_replays_and_round_trip_enumeration() {
        let cache = ReplayCache::with_capacity(1024, 4);
        cache.rehydrate(&p("c"), 7, Timestamp(100));
        cache.rehydrate(&p("d"), 7, Timestamp(200));
        // A pre-crash consumed identifier stays consumed.
        assert!(!cache.check_and_mark(&p("c"), 7, Timestamp(0), Timestamp(100)));
        assert!(cache.check_and_mark(&p("c"), 8, Timestamp(0), Timestamp(100)));
        // Enumeration sees rehydrated and fresh marks alike.
        let mut seen = Vec::new();
        cache.for_each_entry(|g, id, exp| seen.push((g.clone(), id, exp)));
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (p("c"), 7, Timestamp(100)),
                (p("c"), 8, Timestamp(100)),
                (p("d"), 7, Timestamp(200)),
            ]
        );
    }

    #[test]
    fn rehydrate_bypasses_the_capacity_bound() {
        // Recovery must restore every pre-crash mark even into a cache
        // already full of live entries: forgetting admits a replay.
        let cache = ReplayCache::with_capacity(4, 1);
        for id in 0..4 {
            assert!(cache.check_and_mark(&p("c"), id, Timestamp(0), Timestamp(1000)));
        }
        cache.rehydrate(&p("c"), 99, Timestamp(1000));
        assert!(
            !cache.check_and_mark(&p("c"), 99, Timestamp(0), Timestamp(1000)),
            "rehydrated mark must hold despite the full cache"
        );
        // And rehydrating an existing key keeps the longer retention.
        cache.rehydrate(&p("c"), 0, Timestamp(5));
        let mut kept = None;
        cache.for_each_entry(|g, id, exp| {
            if g == &p("c") && id == 0 {
                kept = Some(exp);
            }
        });
        assert_eq!(kept, Some(Timestamp(1000)));
    }

    #[test]
    fn the_expiry_floor_moves_only_with_sweeps_and_never_passes_a_mark() {
        let cache = ReplayCache::with_capacity(1024, 1);
        assert_eq!(cache.expiry_floor(), Timestamp(u64::MAX), "empty");
        cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(10));
        cache.rehydrate(&p("c"), 2, Timestamp(20));
        assert_eq!(cache.expiry_floor(), Timestamp(10), "never swept");
        // A request's `now` the cache did not sweep with moves nothing.
        cache.check_and_mark(&p("c"), 3, Timestamp(90), Timestamp(99));
        assert_eq!(cache.expiry_floor(), Timestamp(10));
        cache.sweep(Timestamp(5));
        assert_eq!(cache.expiry_floor(), Timestamp(6), "one past the sweep");
        // A clock that went backwards marks below the last sweep.
        cache.check_and_mark(&p("c"), 4, Timestamp(1), Timestamp(3));
        assert_eq!(cache.expiry_floor(), Timestamp(3));
        cache.sweep(Timestamp(12));
        assert_eq!(cache.expiry_floor(), Timestamp(13));
        // A refused replay extends #2 from 20 to 50: the floor does not
        // wait for it, the extension is handed over instead.
        assert!(!cache.check_and_mark(&p("c"), 2, Timestamp(12), Timestamp(50)));
        cache.sweep(Timestamp(30));
        assert_eq!(cache.expiry_floor(), Timestamp(31));
        assert!(!cache.check_and_mark(&p("c"), 2, Timestamp(30), Timestamp(10)));
        cache.sweep(Timestamp(50));
        assert_eq!(cache.expiry_floor(), Timestamp(51), "#3 is left");
        cache.sweep(Timestamp(99));
        assert_eq!(cache.expiry_floor(), Timestamp(u64::MAX), "empty again");
        cache.rehydrate(&p("c"), 5, Timestamp(u64::MAX));
        assert_eq!(cache.expiry_floor(), Timestamp(100), "swept at 99");
    }

    fn extended(cache: &ReplayCache) -> Vec<(u64, Timestamp)> {
        let mut taken = Vec::new();
        cache.take_extended(|_, id, expires| taken.push((id, expires)));
        taken.sort();
        taken
    }

    #[test]
    fn a_refused_replay_hands_over_its_extension_once() {
        let cache = ReplayCache::with_capacity(1024, 4);
        for id in 1..=4 {
            assert!(cache.check_and_mark(&p("c"), id, Timestamp(0), Timestamp(10)));
        }
        assert!(!cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(5)));
        assert!(
            extended(&cache).is_empty(),
            "a shorter replay extends nothing"
        );
        cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(20));
        cache.check_and_mark(&p("c"), 1, Timestamp(0), Timestamp(30));
        cache.check_and_mark(&p("c"), 2, Timestamp(0), Timestamp(40));
        cache.check_and_mark(&p("c"), 3, Timestamp(0), Timestamp(50));
        cache.rehydrate(&p("c"), 4, Timestamp(60));
        cache.forget(&p("c"), 3);
        cache.sweep(Timestamp(35));
        // #1 expired at 30 and #3 was forgotten; a rehydrated expiry is
        // a record's, not an extension.
        assert_eq!(extended(&cache), [(2, Timestamp(40))]);
        assert!(extended(&cache).is_empty(), "handed over once");
    }

    #[test]
    fn replay_cache_long_lived_server_stays_bounded() {
        // Clock advances; identifiers expire shortly after issue. The
        // amortized sweep keeps the footprint near the live population
        // without any explicit expire() calls.
        let cache = ReplayCache::with_capacity(512, 4);
        for id in 0..100_000u64 {
            cache.check_and_mark(&p("c"), id, Timestamp(id), Timestamp(id + 64));
        }
        assert!(
            cache.len() <= cache.capacity(),
            "len {} exceeds cap {}",
            cache.len(),
            cache.capacity()
        );
        assert_eq!(
            cache.rejected_full(),
            0,
            "sweeping alone keeps a live-bounded workload under the cap"
        );
    }
}
