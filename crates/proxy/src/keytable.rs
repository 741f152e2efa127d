//! The verifier's table of Ed25519 public keys it has seen.
//!
//! An end-server verifies chains offline under a grantor key it fetched
//! once (§3.4, §6.1), and a bank sees the same payor's key on every check
//! (§4): most of what one verification computes about the *key* — its
//! curve point, that point's tables — it computed for the previous
//! request too. The table keeps that work, in stages:
//!
//! * **first sighting** — verify as ever ([`DecompressedKey::verify`],
//!   the cold path) and keep the decompressed point;
//! * **second sighting** — build the key's [`PreparedKey`] from the kept
//!   point (three quarters of a verification, once) and verify with it;
//! * **later sightings** — [`PreparedKey::verify`]: no decompression, no
//!   table build, an eighth of the doubling chain.
//!
//! Promotion waits for the second sighting because most keys never come
//! back — the proxy key of a one-shot chain, say — and preparing costs
//! more than it saves on its first use (~30 µs against ~20).
//!
//! All paths evaluate the same equation and return the same verdict
//! (`proxy-crypto` tests them against each other), so the table changes
//! only what a check costs. What it holds is public and a function of
//! the key alone; no verdict is ever stored, so a forged signature is
//! refused on the prepared path exactly as on the cold one.
//!
//! The table is two-way set-associative: [`SLOTS`] slots of [`WAYS`]
//! tenants, the slot chosen by a hash of the key under a per-table random
//! seed (an outsider cannot aim keys at one slot). A first sighting takes
//! an empty way, else the way of a key seen only once, else the way of
//! the prepared key used longer ago. So two live keys that share a slot
//! both reach the prepared path, and a stream of one-shot keys through
//! the slot — each the proxy key of a chain presented once — displaces at
//! most one of them: the newcomers then replace each other in that way
//! and never touch the prepared key beside it. Three live keys in one
//! slot still evict each other. A way is a pointer to what its tenant
//! keeps, so an empty table is 10 KiB and memory is bounded at `SLOTS` ×
//! `WAYS` × (a [`PreparedKey`], ~10 KiB) ≈ 5 MiB, reached only by 512
//! keys that each came back. Each slot has its own lock, held to compare
//! two keys and clone or store an `Arc` — never across curve arithmetic.

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

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use proxy_crypto::ed25519::{
    DecompressedKey, PreparedKey, Signature, SignatureError, VerifyingKey,
};

/// Slots in a [`KeyTable`].
pub(crate) const SLOTS: usize = 256;

/// Tenants per slot.
pub(crate) const WAYS: usize = 2;

/// What a way keeps of its key.
#[derive(Clone)]
enum Seen {
    /// Seen once: the decompressed point.
    Once(Arc<DecompressedKey>),
    /// Seen again: the point's tables.
    Prepared(Arc<PreparedKey>),
}

impl Seen {
    fn key(&self) -> &VerifyingKey {
        match self {
            Seen::Once(key) => key.key(),
            Seen::Prepared(key) => key.key(),
        }
    }
}

/// The tenants of one slot, the most recently used first.
#[derive(Default)]
struct Ways([Option<Seen>; WAYS]);

impl Ways {
    fn way_of(&self, key: &VerifyingKey) -> Option<usize> {
        self.0
            .iter()
            .position(|tenant| tenant.as_ref().is_some_and(|seen| seen.key() == key))
    }

    /// Moves `way` to the front, the ways before it keeping their order.
    fn move_to_front(&mut self, way: usize) -> Option<&mut Option<Seen>> {
        let upto = self.0.get_mut(..=way)?;
        upto.rotate_right(1);
        upto.first_mut()
    }

    /// What the slot keeps of `key`, which counts as a use.
    fn find(&mut self, key: &VerifyingKey) -> Option<Seen> {
        let way = self.way_of(key)?;
        self.move_to_front(way)?.clone()
    }

    /// Stores `seen`: over what the slot already keeps of the same key,
    /// else in an empty way, else over a key seen once (the one used
    /// longer ago of two), else over the prepared key used longest ago.
    fn place(&mut self, seen: Seen) {
        let seen_once = |tenant: &Option<Seen>| matches!(tenant, Some(Seen::Once(_)));
        let way = self
            .way_of(seen.key())
            .or_else(|| self.0.iter().position(Option::is_none))
            .or_else(|| self.0.iter().rposition(seen_once))
            .unwrap_or(WAYS - 1);
        if let Some(front) = self.move_to_front(way) {
            *front = Some(seen);
        }
    }
}

#[derive(Default)]
struct Slot {
    ways: Mutex<Ways>,
}

impl Slot {
    /// The slot's tenants, locked. Every write to a way is one assignment
    /// of a whole value, so a slot is valid even if a holder of its lock
    /// panicked.
    fn tenants(&self) -> MutexGuard<'_, Ways> {
        self.ways.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// See the module docs.
pub(crate) struct KeyTable {
    slots: Box<[Slot]>,
    hasher: RandomState,
}

impl std::fmt::Debug for KeyTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyTable")
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl KeyTable {
    pub(crate) fn new() -> KeyTable {
        KeyTable::with_slots(SLOTS)
    }

    fn with_slots(slots: usize) -> KeyTable {
        KeyTable {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            hasher: RandomState::new(),
        }
    }

    /// The slot `key` maps to; `None` only for a table of no slots.
    fn slot(&self, key: &VerifyingKey) -> Option<&Slot> {
        let hash = self.hasher.hash_one(key.as_bytes());
        let index = hash.checked_rem(self.slots.len() as u64)?;
        self.slots.get(usize::try_from(index).ok()?)
    }

    /// Verifies `signature` over `message` under `key`, with whatever the
    /// table kept from earlier sightings of `key`, and keeps more.
    ///
    /// # Errors
    ///
    /// As [`VerifyingKey::verify`], on exactly the same inputs.
    pub(crate) fn verify(
        &self,
        key: &VerifyingKey,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), SignatureError> {
        let Some(slot) = self.slot(key) else {
            // A table without slots keeps nothing.
            return key.verify(message, signature);
        };
        let seen = {
            let mut ways = slot.tenants();
            ways.find(key)
        };
        match seen {
            Some(Seen::Prepared(prepared)) => prepared.verify(message, signature),
            Some(Seen::Once(decompressed)) => {
                let prepared = Arc::new(PreparedKey::new(&decompressed));
                slot.tenants().place(Seen::Prepared(Arc::clone(&prepared)));
                prepared.verify(message, signature)
            }
            None => {
                // A key with no curve point is never stored.
                let decompressed = Arc::new(key.decompress()?);
                slot.tenants().place(Seen::Once(Arc::clone(&decompressed)));
                decompressed.verify(message, signature)
            }
        }
    }

    /// The prepared key the table holds for `key`, which counts as a use
    /// of it; `None` for a key seen once or not at all, which this probe
    /// leaves as it is — it never prepares, and never stores.
    pub(crate) fn prepared(&self, key: &VerifyingKey) -> Option<Arc<PreparedKey>> {
        match self.slot(key)?.tenants().find(key)? {
            Seen::Prepared(prepared) => Some(prepared),
            Seen::Once(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxy_crypto::ed25519::SigningKey;

    impl KeyTable {
        /// `"once"` / `"prepared"` when `key` is a tenant of its slot.
        /// Reads without touching the slot's recency.
        pub(crate) fn stage_of(&self, key: &VerifyingKey) -> Option<&'static str> {
            let ways = self.slot(key)?.tenants();
            let seen = ways.0.get(ways.way_of(key)?)?.as_ref()?;
            Some(match seen {
                Seen::Once(_) => "once",
                Seen::Prepared(_) => "prepared",
            })
        }

        fn occupancy(&self) -> usize {
            self.slots
                .iter()
                .map(|s| s.tenants().0.iter().flatten().count())
                .sum()
        }
    }

    fn signer(tag: u8) -> SigningKey {
        SigningKey::from_seed(&[tag; 32])
    }

    #[test]
    fn second_sighting_promotes_and_every_stage_gives_the_same_verdicts() {
        let table = KeyTable::new();
        let sk = signer(1);
        let vk = sk.verifying_key();
        let good = sk.sign(b"body");
        let forged = signer(2).sign(b"body");
        assert_eq!(table.stage_of(&vk), None);
        for stage in ["once", "prepared", "prepared"] {
            assert!(table.verify(&vk, b"body", &good).is_ok());
            assert_eq!(table.stage_of(&vk), Some(stage));
            assert!(table.verify(&vk, b"other", &good).is_err());
            assert!(table.verify(&vk, b"body", &forged).is_err());
        }
        assert_eq!(table.occupancy(), 1);
    }

    #[test]
    fn the_prepared_probe_never_prepares_or_stores() {
        let table = KeyTable::new();
        let sk = signer(9);
        let vk = sk.verifying_key();
        assert!(table.prepared(&vk).is_none());
        assert_eq!(table.stage_of(&vk), None);
        sight(&table, &sk);
        for _ in 0..3 {
            assert!(table.prepared(&vk).is_none());
            assert_eq!(table.stage_of(&vk), Some("once"));
        }
        sight(&table, &sk);
        let prepared = table
            .prepared(&vk)
            .expect("prepared on its second sighting");
        assert_eq!(prepared.key(), &vk);
        assert_eq!(table.occupancy(), 1);
    }

    #[test]
    fn a_forged_first_sighting_leaves_nothing_negative_behind() {
        let table = KeyTable::new();
        let sk = signer(3);
        let vk = sk.verifying_key();
        assert!(table.verify(&vk, b"m", &signer(4).sign(b"m")).is_err());
        // The sighting counts (the key is a point); the verdict does not.
        assert_eq!(table.stage_of(&vk), Some("once"));
        assert!(table.verify(&vk, b"m", &sk.sign(b"m")).is_ok());
        assert_eq!(table.stage_of(&vk), Some("prepared"));
    }

    /// Verifies one honest signature under `sk`'s key.
    fn sight(table: &KeyTable, sk: &SigningKey) {
        assert!(table
            .verify(&sk.verifying_key(), b"x", &sk.sign(b"x"))
            .is_ok());
    }

    #[test]
    fn two_live_keys_in_one_slot_both_reach_prepared() {
        let table = KeyTable::with_slots(1);
        let (a, b) = (signer(5), signer(6));
        let (va, vb) = (a.verifying_key(), b.verifying_key());
        for stage in ["once", "prepared", "prepared"] {
            // Alternating, as two grantors' chains would arrive.
            sight(&table, &a);
            sight(&table, &b);
            assert_eq!(table.stage_of(&va), Some(stage));
            assert_eq!(table.stage_of(&vb), Some(stage));
            assert!(table.verify(&va, b"x", &b.sign(b"x")).is_err());
            assert!(table.verify(&vb, b"x", &a.sign(b"x")).is_err());
        }
        assert_eq!(table.occupancy(), 2);
    }

    #[test]
    fn a_thousand_one_shot_keys_leave_a_prepared_tenant_prepared() {
        let table = KeyTable::with_slots(1);
        let (returning, other) = (signer(20), signer(21));
        for _ in 0..2 {
            sight(&table, &returning);
            sight(&table, &other);
        }
        let (vr, vo) = (returning.verifying_key(), other.verifying_key());
        assert_eq!(table.stage_of(&vr), Some("prepared"));
        assert_eq!(table.stage_of(&vo), Some("prepared"));
        // `returning` is the one used longer ago: the first one-shot key
        // takes its way unless it comes back first.
        sight(&table, &returning);
        let sig = signer(8).sign(b"m");
        for i in 0..1_000u64 {
            // Distinct valid keys, cheaply: small multiples of the basepoint.
            let point = proxy_crypto::ed25519::edwards::Point::mul_basepoint(
                &proxy_crypto::ed25519::scalar::Scalar::from_u64(i + 1),
            );
            let one_shot = VerifyingKey::from_bytes(point.compress());
            assert!(table.verify(&one_shot, b"m", &sig).is_err());
            assert_eq!(table.stage_of(&one_shot), Some("once"));
            assert_eq!(table.stage_of(&vr), Some("prepared"), "after {i}");
        }
        // The stream cost the slot its other prepared key, once, and
        // nothing more; that key starts over when it returns.
        assert_eq!(table.stage_of(&vo), None);
        sight(&table, &other);
        assert_eq!(table.stage_of(&vo), Some("once"));
        assert_eq!(table.stage_of(&vr), Some("prepared"));
        assert_eq!(table.occupancy(), 2);
    }

    #[test]
    fn three_live_keys_in_one_slot_evict_the_one_used_longest_ago() {
        let table = KeyTable::with_slots(1);
        let signers = [signer(30), signer(31), signer(32)];
        let keys = signers.each_ref().map(SigningKey::verifying_key);
        for sk in &signers[..2] {
            sight(&table, sk);
            sight(&table, sk);
        }
        // Two prepared tenants, [0] used longer ago: [2] takes its way,
        // and every evicted key still verifies, as a first sighting.
        sight(&table, &signers[2]);
        assert_eq!(table.stage_of(&keys[0]), None);
        assert_eq!(table.stage_of(&keys[1]), Some("prepared"));
        assert_eq!(table.stage_of(&keys[2]), Some("once"));
        // [0] returns: it takes the way of the key seen once, though that
        // is the one used last, and leaves the prepared key alone.
        sight(&table, &signers[0]);
        assert_eq!(table.stage_of(&keys[0]), Some("once"));
        assert_eq!(table.stage_of(&keys[1]), Some("prepared"));
        assert_eq!(table.stage_of(&keys[2]), None);
        assert_eq!(table.occupancy(), 2);
    }

    #[test]
    fn a_key_that_is_no_point_is_never_stored() {
        let table = KeyTable::with_slots(1);
        let sk = signer(7);
        let sig = sk.sign(b"m");
        // y = 2 is on no curve point; −0 is no encoding.
        let mut minus_zero = [0u8; 32];
        minus_zero[0] = 1;
        minus_zero[31] = 0x80;
        for bytes in [[2u8; 32], minus_zero] {
            let bad = VerifyingKey::from_bytes(bytes);
            assert!(bad.decompress().is_err());
            for _ in 0..3 {
                assert!(table.verify(&bad, b"m", &sig).is_err());
                assert_eq!(table.occupancy(), 0);
            }
        }
        // Nor does it disturb a tenant.
        let vk = sk.verifying_key();
        assert!(table.verify(&vk, b"m", &sig).is_ok());
        assert!(table
            .verify(&VerifyingKey::from_bytes([2u8; 32]), b"m", &sig)
            .is_err());
        assert_eq!(table.stage_of(&vk), Some("once"));
    }

    #[test]
    fn occupancy_never_exceeds_slots_times_ways() {
        let table = KeyTable::new();
        let sig = signer(8).sign(b"m");
        for i in 0..4 * (SLOTS * WAYS) as u64 {
            // Distinct valid keys, cheaply: small multiples of the basepoint.
            let point = proxy_crypto::ed25519::edwards::Point::mul_basepoint(
                &proxy_crypto::ed25519::scalar::Scalar::from_u64(i + 1),
            );
            let vk = VerifyingKey::from_bytes(point.compress());
            assert!(table.verify(&vk, b"m", &sig).is_err());
            assert!(table.occupancy() <= SLOTS * WAYS);
        }
        assert!(table.occupancy() > SLOTS, "keys spread over the slots");
    }

    #[test]
    fn racing_threads_on_one_slot_get_only_correct_verdicts() {
        let table = KeyTable::with_slots(1);
        let signers: Vec<SigningKey> = (10..14).map(signer).collect();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let (table, signers, barrier) = (&table, &signers, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..200usize {
                        let sk = &signers[(t + i) % 4];
                        let other = &signers[(t + i + 1) % 4];
                        let msg = [t as u8, i as u8];
                        let vk = sk.verifying_key();
                        assert!(table.verify(&vk, &msg, &sk.sign(&msg)).is_ok());
                        assert!(table.verify(&vk, &msg, &other.sign(&msg)).is_err());
                    }
                });
            }
        });
        assert_eq!(table.occupancy(), WAYS);
    }
}
