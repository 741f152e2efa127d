//! Lock-striped hash maps for the concurrent service cores.
//!
//! The servers of the paper (§3.2 authorization, §3.4 end-server, §4
//! accounting) keep per-principal and per-account state. A single
//! `Mutex<HashMap>` would serialize every request; [`ShardMap`] instead
//! stripes the key space over N independent `RwLock<HashMap>` shards
//! (key hash → shard index), so requests for different principals
//! proceed in parallel while operations on *one* key remain
//! linearizable under that key's shard lock.
//!
//! Lock discipline (see DESIGN.md §9): callers never hold two shard
//! locks at once — every closure passed to [`ShardMap::read`],
//! [`ShardMap::update`], or [`ShardMap::upsert`] runs under exactly one
//! shard lock and must not touch the same map again. Multi-key flows
//! (e.g. debit payor then credit payee) are sequences of single-key
//! atomic steps, which is exactly the paper's model: each is a separate
//! message to a possibly different server.
//!
//! Debug builds check that discipline at run time ([`rank`]).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::RwLock;

use rank::Rank;

pub mod rank {
    //! The lock-rank witness (DESIGN.md §11, L6), in debug builds only.
    //!
    //! Every lock of a [`ShardMap`](super::ShardMap), a
    //! [`ReplayCache`](crate::replay::ReplayCache) and the verifier's key
    //! table has a [`Rank`]. A thread records the ranks it holds, and
    //! taking a lock whose rank is not strictly above
    //! every rank it holds panics: an AB/BA pair of acquisitions trips on
    //! the descending one, and a closure that re-enters the map it runs
    //! under trips on its second stripe. [`assert_unheld`] guards what must
    //! run with no stripe held — verification, curve arithmetic, durable
    //! waits — since every request that hashes to a held stripe would wait
    //! behind it. The witness sees what the tests run. Release builds
    //! compile [`hold`] and [`assert_unheld`] to nothing.

    /// A lock's place in the one acquisition order: a lock may be taken
    /// only while every lock the thread holds ranks below it.
    #[derive(Clone, Copy, Debug)]
    pub enum Rank {
        /// A [`ShardMap`](super::ShardMap) stripe.
        Shard,
        /// A [`ReplayCache`](crate::replay::ReplayCache) shard.
        Replay,
        /// A slot of the verifier's key table.
        KeySlot,
    }

    #[cfg(debug_assertions)]
    thread_local! {
        /// Bit `r` is set while this thread holds a lock of rank `r`.
        static HELD: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
    }

    /// One held lock's rank, released when this drops.
    #[cfg(debug_assertions)]
    #[must_use]
    #[derive(Debug)]
    pub struct Held(Rank);

    #[cfg(debug_assertions)]
    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| held.set(held.get() & !(1 << self.0 as u8)));
        }
    }

    /// Records that this thread takes a lock of `rank`; bind the result
    /// for as long as the lock is held.
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread holds a lock of `rank` or above.
    #[cfg(debug_assertions)]
    pub fn hold(rank: Rank) -> Held {
        HELD.with(|held| {
            let bits = held.get();
            assert!(
                bits >> rank as u8 == 0,
                "lock rank {rank:?} taken while holding ranks {bits:#05b}"
            );
            held.set(bits | 1 << rank as u8);
        });
        Held(rank)
    }

    /// Release builds: nothing.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn hold(_rank: Rank) {}

    /// Asserts that this thread holds no ranked lock on entry to `what`.
    ///
    /// # Panics
    ///
    /// In debug builds, when it holds one.
    #[cfg(debug_assertions)]
    pub fn assert_unheld(what: &str) {
        let bits = HELD.with(std::cell::Cell::get);
        assert!(bits == 0, "{what} entered holding lock ranks {bits:#05b}");
    }

    /// Release builds: nothing.
    #[cfg(not(debug_assertions))]
    #[inline(always)]
    pub fn assert_unheld(_what: &str) {}
}

/// A hash map striped over N `RwLock`-protected shards.
///
/// All operations take `&self`; per-key operations are atomic (they run
/// under the owning shard's lock). Whole-map views (`len`, `for_each`)
/// visit shards one at a time and are only quiescently consistent.
#[derive(Debug)]
pub struct ShardMap<K, V> {
    shards: Box<[RwLock<HashMap<K, V>>]>,
    hasher: RandomState,
}

impl<K: Hash + Eq, V> ShardMap<K, V> {
    /// Default stripe count for server-sized maps.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates an empty map with [`Self::DEFAULT_SHARDS`] stripes.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Creates an empty map with `shards` stripes (minimum 1).
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| RwLock::default()).collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Inserts `value` under `key`, returning any previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let _held = rank::hold(Rank::Shard);
        self.shard(&key).write().expect("shard").insert(key, value)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let _held = rank::hold(Rank::Shard);
        self.shard(key).write().expect("shard").remove(key)
    }

    /// True when `key` is present.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        let _held = rank::hold(Rank::Shard);
        self.shard(key).read().expect("shard").contains_key(key)
    }

    /// Runs `f` on the value under `key` (or `None`) while holding the
    /// shard's read lock. `f` must not re-enter this map.
    pub fn read<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        let _held = rank::hold(Rank::Shard);
        f(self.shard(key).read().expect("shard").get(key))
    }

    /// Runs `f` on the mutable value under `key` (or `None`) while
    /// holding the shard's write lock — the per-key linearization point.
    /// `f` must not re-enter this map.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(Option<&mut V>) -> R) -> R {
        let _held = rank::hold(Rank::Shard);
        f(self.shard(key).write().expect("shard").get_mut(key))
    }

    /// Runs `f` on the value under `key`, inserting `default()` first if
    /// absent, all under one write-lock acquisition. `f` must not
    /// re-enter this map.
    pub fn upsert<R>(&self, key: K, default: impl FnOnce() -> V, f: impl FnOnce(&mut V) -> R) -> R {
        let _held = rank::hold(Rank::Shard);
        let mut shard = self.shard(&key).write().expect("shard");
        f(shard.entry(key).or_insert_with(default))
    }

    /// Removes `key` only when `gate` approves of (and possibly stages a
    /// side effect for) the present value, all under one write-lock
    /// acquisition — the check-stage-remove linearization point durable
    /// servers need (a plain `read` + `remove` pair would let a racing
    /// collector take the same entry twice). Returns `Ok(None)` when the
    /// key is absent; when `gate` errs the entry is left untouched.
    /// `gate` must not re-enter this map.
    pub fn remove_if<E>(
        &self,
        key: &K,
        gate: impl FnOnce(&V) -> Result<(), E>,
    ) -> Result<Option<V>, E> {
        let _held = rank::hold(Rank::Shard);
        let mut shard = self.shard(key).write().expect("shard");
        match shard.get(key) {
            None => Ok(None),
            Some(v) => {
                gate(v)?;
                Ok(shard.remove(key))
            }
        }
    }

    /// Clones the value under `key`.
    #[must_use]
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let _held = rank::hold(Rank::Shard);
        self.shard(key).read().expect("shard").get(key).cloned()
    }

    /// Total entries across all shards (quiescently consistent).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let _held = rank::hold(Rank::Shard);
                s.read().expect("shard").len()
            })
            .sum()
    }

    /// True when every shard is empty (quiescently consistent).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry, one shard read-lock at a time. `f` must not
    /// re-enter this map.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for shard in self.shards.iter() {
            let _held = rank::hold(Rank::Shard);
            for (k, v) in shard.read().expect("shard").iter() {
                f(k, v);
            }
        }
    }

    /// Folds over every entry, one shard read-lock at a time. `f` must
    /// not re-enter this map.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        let mut acc = init;
        for shard in self.shards.iter() {
            let _held = rank::hold(Rank::Shard);
            for (k, v) in shard.read().expect("shard").iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }
}

impl<K: Hash + Eq, V> Default for ShardMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> FromIterator<(K, V)> for ShardMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let map = Self::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn basic_map_operations() {
        let map: ShardMap<String, u64> = ShardMap::with_shards(4);
        assert!(map.is_empty());
        assert_eq!(map.insert("a".into(), 1), None);
        assert_eq!(map.insert("a".into(), 2), Some(1));
        assert!(map.contains_key(&"a".into()));
        assert_eq!(map.get_cloned(&"a".into()), Some(2));
        assert_eq!(map.read(&"a".into(), |v| v.copied()), Some(2));
        map.update(&"a".into(), |v| *v.unwrap() += 10);
        assert_eq!(map.get_cloned(&"a".into()), Some(12));
        map.upsert("b".into(), || 0, |v| *v += 5);
        map.upsert("b".into(), || 0, |v| *v += 5);
        assert_eq!(map.get_cloned(&"b".into()), Some(10));
        assert_eq!(map.len(), 2);
        assert_eq!(map.fold(0u64, |acc, _, v| acc + v), 22);
        assert_eq!(map.remove(&"a".into()), Some(12));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn remove_if_gates_and_takes_atomically() {
        let map: ShardMap<String, u64> = ShardMap::new();
        map.insert("a".into(), 7);
        // Gate rejects: entry stays.
        assert_eq!(map.remove_if(&"a".into(), |_| Err("no")), Err("no"));
        assert_eq!(map.get_cloned(&"a".into()), Some(7));
        // Gate approves: entry taken.
        assert_eq!(map.remove_if::<()>(&"a".into(), |_| Ok(())), Ok(Some(7)));
        assert_eq!(map.remove_if::<()>(&"a".into(), |_| Ok(())), Ok(None));
    }

    #[test]
    fn remove_if_admits_exactly_one_racing_taker() {
        let map: ShardMap<u64, u64> = ShardMap::new();
        for k in 0..64 {
            map.insert(k, k);
        }
        let taken = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let map = &map;
                let taken = &taken;
                scope.spawn(move || {
                    for k in 0..64 {
                        if let Ok(Some(_)) = map.remove_if::<()>(&k, |_| Ok(())) {
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Relaxed), 64, "each entry taken once");
        assert!(map.is_empty());
    }

    #[test]
    fn per_key_updates_are_atomic_under_contention() {
        let map: ShardMap<u64, u64> = ShardMap::new();
        for k in 0..8 {
            map.insert(k, 0);
        }
        let total = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let map = &map;
                let total = &total;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        let key = (t + i) % 8;
                        map.update(&key, |v| *v.unwrap() += 1);
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        // Every one of the 8000 increments landed exactly once.
        assert_eq!(map.fold(0u64, |acc, _, v| acc + v), 8000);
        assert_eq!(total.load(Ordering::Relaxed), 8000);
    }

    /// The former L6 fixture `l6_shard_reentry`: a closure that
    /// re-enters the map it runs under trips the witness on its second
    /// stripe, whichever stripe the second key lands on.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank Shard taken while holding")]
    fn a_closure_that_re_enters_its_map_trips_the_witness() {
        let accounts: ShardMap<u64, u64> = ShardMap::new();
        accounts.insert(1, 0);
        accounts.update(&1, |_| accounts.upsert(2, || 0, |v| *v += 1));
    }

    /// The former L6 fixtures `l6_lock_inversion` and
    /// `l6_consistent_order`: a replay mark taken under a stripe is the
    /// one order, and a stripe taken under a replay shard, its inverse,
    /// trips the witness.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock rank Shard taken while holding")]
    fn a_stripe_taken_under_a_replay_shard_trips_the_witness() {
        use crate::principal::PrincipalId;
        use crate::replay::ReplayCache;
        use crate::time::Timestamp;
        let accounts: ShardMap<u64, u64> = ShardMap::new();
        let replay = ReplayCache::new();
        let alice = PrincipalId::new("alice");
        accounts.upsert(
            1,
            || 0,
            |_| {
                replay.check_and_mark(&alice, 1, Timestamp(0), Timestamp(9));
            },
        );
        replay.for_each_entry(|_, _, _| accounts.read(&1, |_| ()));
    }
}
