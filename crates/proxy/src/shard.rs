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

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::RwLock;

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
        self.shard(&key).write().expect("shard").insert(key, value)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key).write().expect("shard").remove(key)
    }

    /// True when `key` is present.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard(key).read().expect("shard").contains_key(key)
    }

    /// Runs `f` on the value under `key` (or `None`) while holding the
    /// shard's read lock. `f` must not re-enter this map.
    pub fn read<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.shard(key).read().expect("shard").get(key))
    }

    /// Runs `f` on the mutable value under `key` (or `None`) while
    /// holding the shard's write lock — the per-key linearization point.
    /// `f` must not re-enter this map.
    pub fn update<R>(&self, key: &K, f: impl FnOnce(Option<&mut V>) -> R) -> R {
        f(self.shard(key).write().expect("shard").get_mut(key))
    }

    /// Runs `f` on the value under `key`, inserting `default()` first if
    /// absent, all under one write-lock acquisition. `f` must not
    /// re-enter this map.
    pub fn upsert<R>(&self, key: K, default: impl FnOnce() -> V, f: impl FnOnce(&mut V) -> R) -> R {
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
        self.shard(key).read().expect("shard").get(key).cloned()
    }

    /// Total entries across all shards (quiescently consistent).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard").len())
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
}
