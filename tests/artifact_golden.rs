//! Golden bytes of the epoch feed's sealed artifacts and of the artifact
//! store that keeps them (DESIGN.md §14.2, §15.4).
//!
//! Every artifact here is built from fixed keys and fixed contents, so
//! its wire encoding is one exact byte string: a revocation and a
//! membership artifact, each a delta and a snapshot, each sealed under a
//! shared HMAC key and under an Ed25519 key (whose signatures are
//! deterministic). The store's record and compacted-snapshot bytes are
//! pinned too, since a restarted server reads what an older one wrote.
//! A change to any of these encodings breaks peers and stored state, so
//! it fails here first.

use std::sync::Arc;

use proxy_aa::authz::GroupServer;
use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::proxy::prelude::*;
use proxy_aa::proxy::revocation::{ArtifactKind, RevocationArtifact};
use proxy_aa::storage::artifacts::StoredArtifact;
use proxy_aa::storage::{ArtifactStore, MemStorage, Storage};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The two sealing flavours, from fixed key bytes.
fn authorities() -> [(&'static str, GrantAuthority); 2] {
    [
        (
            "hmac",
            GrantAuthority::SharedKey(SymmetricKey::from_bytes([0x5a; 32])),
        ),
        (
            "ed25519",
            GrantAuthority::Keypair(SigningKey::from_seed(&[0xa5; 32])),
        ),
    ]
}

/// A revocation delta (epoch 4 over 3) and snapshot (epoch 5): a run
/// container, an array container and a second chunk.
fn revocation_artifacts(authority: &GrantAuthority) -> [RevocationArtifact; 2] {
    let issuer = PrincipalId::new("authz");
    let delta = RevocationArtifact::seal(
        issuer.clone(),
        4,
        ArtifactKind::Delta { base_epoch: 3 },
        [5u64, 6, 7, 8, 9, 70_000].into_iter().collect(),
        authority,
    );
    let snapshot = RevocationArtifact::seal(
        issuer,
        5,
        ArtifactKind::Snapshot,
        [1u64, 5, 6, 7, 8, 9, 41, 70_000, 1 << 40]
            .into_iter()
            .collect(),
        authority,
    );
    [delta, snapshot]
}

/// A roster delta with adds and removes (epoch 2 over 1) and the
/// snapshot at epoch 2, as a group server publishes them.
fn membership_artifacts(authority: &GrantAuthority) -> [MembershipArtifact; 2] {
    let gs = GroupServer::new(PrincipalId::new("gs"), authority.clone());
    gs.add_members("staff", ["alice", "bob", "carol"].map(PrincipalId::new));
    gs.publish_delta("staff").expect("a first delta");
    gs.add_member("staff", PrincipalId::new("dave"));
    gs.remove_member("staff", &PrincipalId::new("bob"));
    let delta = gs.publish_delta("staff").expect("a second delta");
    let snapshot = gs.publish_snapshot("staff").expect("a snapshot");
    [delta, snapshot]
}

/// Revocation delta and snapshot sealed under the hmac authority.
const REVOCATION_HMAC: [&str; 2] = [
    concat!(
        "610000001f00000070726f78792d6161207265766f636174696f6e2061727469",
        "6661637420763105000000617574687a04000000000000000103000000000000",
        "0002000000000000000000000001010000000500040001000000000000000001",
        "00000070110098e0edecda52806c0cde8f3e88d1599f0e304a9a7da680de6693",
        "bcdda963c117",
    ),
    concat!(
        "700000001f00000070726f78792d6161207265766f636174696f6e2061727469",
        "6661637420763105000000617574687a05000000000000000003000000000000",
        "0000000000010300000001000000050004002900000001000000000000000001",
        "0000007011000000010000000000010000000000005156123875e16c9bd51adc",
        "15c11a3a19255a2f105226a96a08522f0b0d4fbd85",
    ),
];

/// Revocation delta and snapshot sealed under the ed25519 authority.
const REVOCATION_ED25519: [&str; 2] = [
    concat!(
        "610000001f00000070726f78792d6161207265766f636174696f6e2061727469",
        "6661637420763105000000617574687a04000000000000000103000000000000",
        "0002000000000000000000000001010000000500040001000000000000000001",
        "000000701101f9e1fde129eecf3f7da85f260d71e667aac6de3fbd2a1bf3bdca",
        "f3eff31e9c4042d9312577521416c253bef548b5f491324dc2358055dc22d8a1",
        "2ce8569cef06",
    ),
    concat!(
        "700000001f00000070726f78792d6161207265766f636174696f6e2061727469",
        "6661637420763105000000617574687a05000000000000000003000000000000",
        "0000000000010300000001000000050004002900000001000000000000000001",
        "000000701100000001000000000001000000000001dda342b991a08a7af97364",
        "0a1bc53c1ea32581095e1a9c3b6fabb5e9df6ca313c82bd0b42505dd5adee45a",
        "d4d8f9cdc2a5fa5f9a28b7024fcc25381cec682204",
    ),
];

/// Membership delta and snapshot sealed under the hmac authority.
const MEMBERSHIP_HMAC: [&str; 2] = [
    concat!(
        "6b0000001f00000070726f78792d6161206d656d626572736869702061727469",
        "6661637420763102000000677305000000737461666602000000000000000101",
        "000000000000000100000073a3e5deeb8ac624520c60806a6caf060100000005",
        "6dfe904e07fee5eea125900ed7249b008fb0093acbdf77c2849dec920ea3476e",
        "1a0cd9691d7dd77667c8ec663ce98373",
    ),
    concat!(
        "730000001f00000070726f78792d6161206d656d626572736869702061727469",
        "6661637420763102000000677305000000737461666602000000000000000003",
        "000000702acf6dc782f220ee0b9f3a408a20a173a3e5deeb8ac624520c60806a",
        "6caf06a986b2a80cd54e8860788cd49ac5dcfd00000000000d20af883987527e",
        "182fe6c8a4b6d43de94783f63677d2a620d90ef3c1e9f3fe",
    ),
];

/// Membership delta and snapshot sealed under the ed25519 authority.
const MEMBERSHIP_ED25519: [&str; 2] = [
    concat!(
        "6b0000001f00000070726f78792d6161206d656d626572736869702061727469",
        "6661637420763102000000677305000000737461666602000000000000000101",
        "000000000000000100000073a3e5deeb8ac624520c60806a6caf060100000005",
        "6dfe904e07fee5eea125900ed7249b016df5f361e00bf1623914029c88d1836b",
        "22a2f403c982800e140df671a3c5a56f4adbca276dc70b82f59db3c6bce1f445",
        "af99157be1754a2dc4db5222c96beb00",
    ),
    concat!(
        "730000001f00000070726f78792d6161206d656d626572736869702061727469",
        "6661637420763102000000677305000000737461666602000000000000000003",
        "000000702acf6dc782f220ee0b9f3a408a20a173a3e5deeb8ac624520c60806a",
        "6caf06a986b2a80cd54e8860788cd49ac5dcfd0000000001f273fd6d4d0fea8b",
        "d181b5fe0a3479e4c889068ae07345e1fdf49289cec7f7fec21b759c35a6df3b",
        "4363f2a8e89ec3edc6246873d90bc138ca3ab447c5167f05",
    ),
];

/// One store record: the HMAC revocation delta, tagged.
const STORE_RECORD: &str = concat!(
    "0186000000610000001f00000070726f78792d6161207265766f636174696f6e",
    "20617274696661637420763105000000617574687a0400000000000000010300",
    "0000000000000200000000000000000000000101000000050004000100000000",
    "000000000100000070110098e0edecda52806c0cde8f3e88d1599f0e304a9a7d",
    "a680de6693bcdda963c117",
);

/// A compacted store snapshot: that record, then the Ed25519 roster
/// snapshot.
const STORE_SNAPSHOT: &str = concat!(
    "020000000186000000610000001f00000070726f78792d6161207265766f6361",
    "74696f6e20617274696661637420763105000000617574687a04000000000000",
    "0001030000000000000002000000000000000000000001010000000500040001",
    "00000000000000000100000070110098e0edecda52806c0cde8f3e88d1599f0e",
    "304a9a7da680de6693bcdda963c11702b8000000730000001f00000070726f78",
    "792d6161206d656d626572736869702061727469666163742076310200000067",
    "7305000000737461666602000000000000000003000000702acf6dc782f220ee",
    "0b9f3a408a20a173a3e5deeb8ac624520c60806a6caf06a986b2a80cd54e8860",
    "788cd49ac5dcfd0000000001f273fd6d4d0fea8bd181b5fe0a3479e4c889068a",
    "e07345e1fdf49289cec7f7fec21b759c35a6df3b4363f2a8e89ec3edc6246873",
    "d90bc138ca3ab447c5167f05",
);

#[test]
fn sealed_artifacts_encode_to_their_golden_bytes() {
    let pinned = [
        (REVOCATION_HMAC, MEMBERSHIP_HMAC),
        (REVOCATION_ED25519, MEMBERSHIP_ED25519),
    ];
    for ((flavour, authority), (revocation, membership)) in authorities().into_iter().zip(pinned) {
        for (artifact, golden) in revocation_artifacts(&authority).iter().zip(revocation) {
            let bytes = artifact.encode();
            assert_eq!(
                hex(&bytes),
                golden,
                "revocation {flavour} {:?}",
                artifact.kind
            );
            assert_eq!(RevocationArtifact::decode(&bytes).as_ref(), Ok(artifact));
        }
        for (artifact, golden) in membership_artifacts(&authority).iter().zip(membership) {
            let bytes = artifact.encode();
            assert_eq!(
                hex(&bytes),
                golden,
                "membership {flavour} {:?}",
                artifact.kind
            );
            assert_eq!(MembershipArtifact::decode(&bytes).as_ref(), Ok(artifact));
        }
    }
}

#[test]
fn the_artifact_store_writes_its_golden_bytes() {
    let [(_, hmac), (_, ed25519)] = authorities();
    let [delta, _] = revocation_artifacts(&hmac);
    let [_, roster] = membership_artifacts(&ed25519);
    let disk = Arc::new(MemStorage::new());
    let store = ArtifactStore::new(Arc::clone(&disk));
    store
        .record(&StoredArtifact::Revocation(delta.encode()))
        .expect("a memory store records");
    let recovered = disk.load().expect("a memory store loads");
    assert_eq!(
        recovered.records.iter().map(|r| hex(r)).collect::<Vec<_>>(),
        [STORE_RECORD]
    );
    store
        .compact(&[
            StoredArtifact::Revocation(delta.encode()),
            StoredArtifact::Membership(roster.encode()),
        ])
        .expect("a memory store compacts");
    let recovered = disk.load().expect("a memory store loads");
    assert_eq!(
        recovered.snapshot.as_deref().map(hex).as_deref(),
        Some(STORE_SNAPSHOT)
    );
    assert!(recovered.records.is_empty());
}
