//! Persistence for signed directory artifacts (revocation lists,
//! membership certificates).
//!
//! The PR-7 directories (`restricted_proxy::revocation`,
//! `restricted_proxy::membership`) hold *mirrors* of grantor-signed
//! artifacts; on restart a bare directory would fail closed on every
//! serial until it refetched from the grantor. An [`ArtifactStore`]
//! keeps the last-good artifacts on the same [`Storage`] trait the
//! accounting journal uses, so a restarted server can re-apply them —
//! through the same `apply_sealed` seal checks a received artifact
//! passes — without a network round trip.
//!
//! The store is deliberately *byte-level*: it persists tagged, opaque
//! artifact encodings and leaves decoding, seal verification, and
//! epoch ordering to the consumer. Storage integrity (CRC framing) is
//! not a substitute for the seal check — a disk is not a trusted party —
//! which is why rehydration goes through that seal check, and a record
//! that fails to decode, to verify or to apply is an error:
//! `with_artifact_store` returns it, and the server refuses to start
//! rather than trust the record or drop it.
//!
//! Both servers that keep mirrors (the end-server and the accounting
//! server) take their artifacts through the two paths here:
//! [`apply_and_record`] for a received one and [`ArtifactStore::restore`]
//! at boot.

use restricted_proxy::encode::{Decoder, Encoder};
use restricted_proxy::epoch::{Artifact, ArtifactError, Directory, Payload};
use restricted_proxy::key::KeyResolver;
use restricted_proxy::membership::MembershipDirectory;
use restricted_proxy::revocation::RevocationDirectory;

use crate::{CorruptKind, Storage, StorageError};

/// Envelope tags for stored artifact records.
const TAG_REVOCATION: u8 = 1;
const TAG_MEMBERSHIP: u8 = 2;

/// One persisted artifact, still in its signed wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredArtifact {
    /// A `RevocationArtifact` encoding (snapshot or delta).
    Revocation(Vec<u8>),
    /// A `MembershipArtifact` encoding.
    Membership(Vec<u8>),
}

impl StoredArtifact {
    fn encode_onto(&self, e: &mut Encoder) {
        let (tag, bytes) = match self {
            StoredArtifact::Revocation(b) => (TAG_REVOCATION, b),
            StoredArtifact::Membership(b) => (TAG_MEMBERSHIP, b),
        };
        e.u8(tag).bytes(bytes);
    }

    fn decode_from(d: &mut Decoder<'_>) -> Option<StoredArtifact> {
        let tag = d.u8().ok()?;
        let bytes = d.bytes().ok()?.to_vec();
        match tag {
            TAG_REVOCATION => Some(StoredArtifact::Revocation(bytes)),
            TAG_MEMBERSHIP => Some(StoredArtifact::Membership(bytes)),
            _ => None,
        }
    }
}

/// A persistent log of directory artifacts over any [`Storage`]
/// backend; see the module docs.
#[derive(Debug)]
pub struct ArtifactStore<S: Storage> {
    store: S,
}

fn envelope_corrupt(record: u64) -> StorageError {
    StorageError::Corrupt {
        record,
        offset: 0,
        reason: CorruptKind::BadEnvelope,
    }
}

impl<S: Storage> ArtifactStore<S> {
    /// Wraps `store`; artifacts share it with nothing else (the
    /// accounting journal uses its own store/directory).
    pub fn new(store: S) -> Self {
        Self { store }
    }

    /// Durably appends one artifact in its signed encoding.
    ///
    /// # Errors
    ///
    /// Any [`StorageError`] from the backend; the artifact must not be
    /// considered persisted.
    pub fn record(&self, artifact: &StoredArtifact) -> Result<(), StorageError> {
        let mut e = Encoder::new();
        artifact.encode_onto(&mut e);
        self.store.append(&e.finish())
    }

    /// Replaces the whole history with `fulls` — the latest *full*
    /// (snapshot-kind) artifact per source — via the backend's atomic
    /// snapshot, so the log does not grow without bound under a steady
    /// drip of deltas.
    ///
    /// # Errors
    ///
    /// Any [`StorageError`] from the backend; the previous history
    /// stays in effect.
    pub fn compact(&self, fulls: &[StoredArtifact]) -> Result<(), StorageError> {
        let mut e = Encoder::new();
        e.count(fulls.len());
        for a in fulls {
            a.encode_onto(&mut e);
        }
        self.store.install_snapshot(&e.finish())
    }

    /// Loads every persisted artifact, oldest first (compacted set,
    /// then post-compaction records): the order [`Self::restore`]
    /// re-applies them in.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] (fail-closed) when a stored envelope
    /// does not decode — CRC-valid bytes we could not have written.
    pub fn load(&self) -> Result<Vec<StoredArtifact>, StorageError> {
        let recovered = self.store.load()?;
        let mut out = Vec::new();
        if let Some(blob) = &recovered.snapshot {
            let mut d = Decoder::new(blob);
            let n = d.counted(2).map_err(|_| envelope_corrupt(0))?;
            for _ in 0..n.get() {
                out.push(StoredArtifact::decode_from(&mut d).ok_or_else(|| envelope_corrupt(0))?);
            }
            d.finish().map_err(|_| envelope_corrupt(0))?;
        }
        for (i, rec) in recovered.records.iter().enumerate() {
            let mut d = Decoder::new(rec);
            let a =
                StoredArtifact::decode_from(&mut d).ok_or_else(|| envelope_corrupt(i as u64))?;
            d.finish().map_err(|_| envelope_corrupt(i as u64))?;
            out.push(a);
        }
        Ok(out)
    }

    /// Restores a server's mirrors: every stored artifact, oldest first,
    /// is decoded and goes through the intake of its feed's mirror
    /// ([`Directory::apply_sealed`]: the seal, then the epoch rule), and
    /// is not recorded again. Membership records are skipped when the
    /// server keeps no membership mirror (`memberships` is `None`).
    ///
    /// # Errors
    ///
    /// [`StorageError`] from [`Self::load`]; [`ArtifactError`] for the
    /// first stored artifact that does not decode, verify or apply.
    pub fn restore<E: From<StorageError> + From<ArtifactError>>(
        &self,
        resolver: &impl KeyResolver,
        revocations: &RevocationDirectory,
        memberships: Option<&MembershipDirectory>,
    ) -> Result<(), E> {
        for stored in self.load()? {
            match (stored, memberships) {
                (StoredArtifact::Revocation(bytes), _) => reapply(revocations, &bytes, resolver)?,
                (StoredArtifact::Membership(bytes), Some(memberships)) => {
                    reapply(memberships, &bytes, resolver)?;
                }
                (StoredArtifact::Membership(_), None) => {}
            }
        }
        Ok(())
    }
}

fn reapply<P: Payload>(
    directory: &Directory<P>,
    bytes: &[u8],
    resolver: &impl KeyResolver,
) -> Result<(), ArtifactError> {
    directory.apply_sealed(&Artifact::decode(bytes)?, resolver)
}

/// The one path from a received artifact to a server's mirror: the
/// intake of `directory` (the seal, then the epoch rule) and, once the
/// artifact landed, a durable record in `store` when one is attached,
/// under the record variant `stored`.
///
/// # Errors
///
/// [`ArtifactError`] when the intake refuses the artifact (the mirror
/// keeps its last good state); [`StorageError`] when it applied but
/// could not be recorded.
pub fn apply_and_record<P: Payload, E: From<ArtifactError> + From<StorageError>>(
    directory: &Directory<P>,
    artifact: &Artifact<P>,
    resolver: &impl KeyResolver,
    store: Option<&ArtifactStore<impl Storage>>,
    stored: fn(Vec<u8>) -> StoredArtifact,
) -> Result<(), E> {
    directory.apply_sealed(artifact, resolver)?;
    if let Some(store) = store {
        store.record(&stored(artifact.encode()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStorage;

    #[test]
    fn record_and_load_round_trip_in_order() {
        let s = ArtifactStore::new(MemStorage::new());
        let a = StoredArtifact::Revocation(b"rev-snap-epoch-1".to_vec());
        let b = StoredArtifact::Membership(b"members-epoch-1".to_vec());
        let c = StoredArtifact::Revocation(b"rev-delta-epoch-2".to_vec());
        s.record(&a).unwrap();
        s.record(&b).unwrap();
        s.record(&c).unwrap();
        assert_eq!(s.load().unwrap(), vec![a, b, c]);
    }

    #[test]
    fn compact_folds_history_and_later_records_follow() {
        let s = ArtifactStore::new(MemStorage::new());
        s.record(&StoredArtifact::Revocation(b"superseded".to_vec()))
            .unwrap();
        let full = StoredArtifact::Revocation(b"full-epoch-5".to_vec());
        let members = StoredArtifact::Membership(b"members-epoch-3".to_vec());
        s.compact(&[full.clone(), members.clone()]).unwrap();
        let delta = StoredArtifact::Revocation(b"delta-epoch-6".to_vec());
        s.record(&delta).unwrap();
        assert_eq!(s.load().unwrap(), vec![full, members, delta]);
    }

    #[test]
    fn unknown_tag_fails_closed() {
        let raw = MemStorage::new();
        let mut e = Encoder::new();
        e.u8(9).bytes(b"mystery");
        raw.append(&e.finish()).unwrap();
        let s = ArtifactStore::new(raw);
        assert_eq!(
            s.load(),
            Err(StorageError::Corrupt {
                record: 0,
                offset: 0,
                reason: CorruptKind::BadEnvelope
            })
        );
    }

    #[test]
    fn truncated_envelope_fails_closed() {
        let raw = MemStorage::new();
        raw.append(&[TAG_REVOCATION]).unwrap(); // tag with no body
        let s = ArtifactStore::new(raw);
        assert!(matches!(
            s.load(),
            Err(StorageError::Corrupt {
                reason: CorruptKind::BadEnvelope,
                ..
            })
        ));
    }
}
