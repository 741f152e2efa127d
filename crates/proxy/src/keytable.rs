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
//!   point (a third of a verification, once) and verify with it;
//! * **later sightings** — [`PreparedKey::verify`]: no decompression, no
//!   table build, half the doubling chain.
//!
//! Promotion waits for the second sighting because most keys never come
//! back — the proxy key of a one-shot chain, say — and preparing costs
//! more than it saves on its first use.
//!
//! All paths evaluate the same equation and return the same verdict
//! (`proxy-crypto` tests them against each other), so the table changes
//! only what a check costs. What it holds is public and a function of
//! the key alone; no verdict is ever stored, so a forged signature is
//! refused on the prepared path exactly as on the cold one.
//!
//! The table is direct-mapped: [`SLOTS`] slots, the slot chosen by a
//! hash of the key under a per-table random seed (an outsider cannot aim
//! keys at one slot), a colliding key overwriting the previous tenant.
//! Two live keys that share a slot therefore only ever meet the cold
//! path. Memory is bounded at `SLOTS` × (a [`PreparedKey`], ~2.6 KiB).
//! Each slot has its own lock, held to compare 32 bytes and copy a point
//! or clone an `Arc` — never across curve arithmetic.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use proxy_crypto::ed25519::{
    DecompressedKey, PreparedKey, Signature, SignatureError, VerifyingKey,
};

/// Slots in a [`KeyTable`].
pub(crate) const SLOTS: usize = 256;

/// What a slot keeps of its key.
#[derive(Clone)]
enum Seen {
    /// Seen once: the decompressed point.
    Once(DecompressedKey),
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

#[derive(Default)]
struct Slot {
    seen: Mutex<Option<Seen>>,
}

impl Slot {
    /// The slot's tenant, locked. Every write to a slot is one assignment
    /// of a whole value, so a slot is valid even if a holder of its lock
    /// panicked.
    fn tenant(&self) -> MutexGuard<'_, Option<Seen>> {
        self.seen.lock().unwrap_or_else(PoisonError::into_inner)
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
        self.slots.get(index as usize)
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
            let guard = slot.tenant();
            guard.as_ref().filter(|seen| seen.key() == key).cloned()
        };
        match seen {
            Some(Seen::Prepared(prepared)) => prepared.verify(message, signature),
            Some(Seen::Once(decompressed)) => {
                let prepared = Arc::new(PreparedKey::new(&decompressed));
                *slot.tenant() = Some(Seen::Prepared(Arc::clone(&prepared)));
                prepared.verify(message, signature)
            }
            None => {
                // A key with no curve point is never stored.
                let decompressed = key.decompress()?;
                *slot.tenant() = Some(Seen::Once(decompressed));
                decompressed.verify(message, signature)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxy_crypto::ed25519::SigningKey;

    impl KeyTable {
        /// `"once"` / `"prepared"` when `key` is its slot's tenant.
        fn stage_of(&self, key: &VerifyingKey) -> Option<&'static str> {
            let guard = self.slot(key)?.tenant();
            let seen = guard.as_ref().filter(|seen| seen.key() == key)?;
            Some(match seen {
                Seen::Once(_) => "once",
                Seen::Prepared(_) => "prepared",
            })
        }

        fn occupancy(&self) -> usize {
            self.slots.iter().filter(|s| s.tenant().is_some()).count()
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

    #[test]
    fn two_keys_in_one_slot_both_keep_verifying() {
        let table = KeyTable::with_slots(1);
        let (a, b) = (signer(5), signer(6));
        let (va, vb) = (a.verifying_key(), b.verifying_key());
        for round in 0..3 {
            // Alternating tenants evict each other: always a first sighting.
            assert!(table.verify(&va, b"x", &a.sign(b"x")).is_ok(), "{round}");
            assert_eq!(table.stage_of(&va), Some("once"));
            assert!(table.verify(&vb, b"x", &b.sign(b"x")).is_ok(), "{round}");
            assert_eq!(table.stage_of(&vb), Some("once"));
            assert_eq!(table.stage_of(&va), None);
            assert!(table.verify(&va, b"x", &b.sign(b"x")).is_err());
            assert!(table.verify(&vb, b"x", &a.sign(b"x")).is_err());
        }
        // Left alone, a tenant is promoted; the evicted key still verifies.
        assert!(table.verify(&vb, b"y", &b.sign(b"y")).is_ok());
        assert!(table.verify(&vb, b"y", &b.sign(b"y")).is_ok());
        assert_eq!(table.stage_of(&vb), Some("prepared"));
        assert!(table.verify(&va, b"y", &a.sign(b"y")).is_ok());
        assert_eq!(table.stage_of(&vb), None);
        assert_eq!(table.occupancy(), 1);
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
    fn occupancy_never_exceeds_the_slot_count() {
        let table = KeyTable::new();
        let sig = signer(8).sign(b"m");
        for i in 0..4 * SLOTS as u64 {
            // Distinct valid keys, cheaply: small multiples of the basepoint.
            let point = proxy_crypto::ed25519::edwards::Point::mul_basepoint(
                &proxy_crypto::ed25519::scalar::Scalar::from_u64(i + 1),
            );
            let vk = VerifyingKey::from_bytes(point.compress());
            assert!(table.verify(&vk, b"m", &sig).is_err());
            assert!(table.occupancy() <= SLOTS);
        }
        assert!(table.occupancy() > SLOTS / 2, "keys spread over the slots");
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
        assert_eq!(table.occupancy(), 1);
    }
}
