//! §6.1 scenario: public-key proxies across organizations.
//!
//! With public-key cryptography a proxy is verifiable by *anyone* holding
//! the grantor's public key — no prior relationship between grantor and
//! end-server is needed. That is exactly what federation across
//! organizations wants, and exactly why §7.3's `issued-for` restriction
//! matters: otherwise one proxy would be exercisable everywhere. The
//! grantor's key travels as a signed binding from a name server.
//!
//! Run with: `cargo run --example public_key_federation`

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::crypto::ed25519::SigningKey;
use proxy_aa::proxy::nameserver::{CertifiedResolver, NameServer};
use proxy_aa::proxy::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(51);

    // --- A name server both organizations trust. -------------------------
    let ns_key = SigningKey::generate(&mut rng);
    let mut ns = NameServer::new(PrincipalId::new("nameserver"), ns_key);

    // --- Alice works at org A; the archive server runs at org B. --------
    let alice = PrincipalId::new("alice@org-a");
    let archive = PrincipalId::new("archive@org-b");
    let alice_key = SigningKey::generate(&mut rng);
    ns.register(alice.clone(), alice_key.verifying_key());
    println!("name server knows alice@org-a's public key.\n");

    // Alice grants a proxy for the archive server — no shared key, no
    // prior contact with org B at all.
    let proxy = grant(
        &alice,
        &GrantAuthority::Keypair(alice_key),
        RestrictionSet::new()
            .with(Restriction::authorize_op(
                ObjectName::new("dataset-7"),
                Operation::new("fetch"),
            ))
            .with(Restriction::issued_for_one(archive.clone())),
        Validity::new(Timestamp(0), Timestamp(1_000)),
        1,
        &mut rng,
    );
    println!(
        "alice granted a public-key proxy: fetch dataset-7 at {archive} only\n  ({} bytes, Ed25519-signed).\n",
        proxy.certs[0].encoded_len()
    );

    // --- Org B's archive server resolves alice's key via the name server.
    let binding = ns.lookup(&alice, Timestamp(5)).expect("registered");
    let mut resolver = CertifiedResolver::new(ns.verifying_key());
    resolver.set_now(Timestamp(5));
    resolver.install(&binding).expect("binding verifies");
    println!("archive@org-b fetched and verified alice's key binding from the name server.");

    let verifier = Verifier::new(archive.clone(), resolver.clone());
    let mut replay = ReplayCache::new();
    let pres = proxy.present_bearer([1u8; 32], &archive);
    let ctx = RequestContext::new(
        archive.clone(),
        Operation::new("fetch"),
        ObjectName::new("dataset-7"),
    )
    .at(Timestamp(5));
    let verified = verifier.verify(&pres, &ctx, &mut replay).expect("accepted");
    println!(
        "org B accepted the fetch, acting on {}'s authority.\n",
        verified.grantor
    );

    // --- The same proxy is useless at a third organization. --------------
    let mirror = PrincipalId::new("mirror@org-c");
    let mirror_verifier = Verifier::new(mirror.clone(), resolver);
    let mut ctx_c = ctx.clone();
    ctx_c.server = mirror.clone();
    let pres_c = proxy.present_bearer([2u8; 32], &mirror);
    let denied = mirror_verifier.verify(&pres_c, &ctx_c, &mut replay);
    println!(
        "org C tries to accept the same proxy: {}",
        denied.unwrap_err()
    );

    // --- Revocation at the directory. -------------------------------------
    ns.unregister(&alice);
    println!("\nname server unregistered alice (key revoked).");
    let gone = ns.lookup(&alice, Timestamp(6));
    println!(
        "new servers can no longer resolve her key: lookup = {:?}",
        gone.map(|_| "binding")
    );

    // --- A forged binding is rejected. -------------------------------------
    let mallory_key = SigningKey::generate(&mut rng);
    let mut forged = binding.clone();
    forged.key = mallory_key.verifying_key();
    let mut fresh = CertifiedResolver::new(ns.verifying_key());
    fresh.set_now(Timestamp(5));
    println!(
        "mallory substitutes her key into the binding: {}",
        fresh.install(&forged).unwrap_err()
    );
}
