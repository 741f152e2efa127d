//! Quickstart: grant, restrict, present, and verify a restricted proxy.
//!
//! This walks the core mechanism of the paper end-to-end in the
//! conventional-cryptography world: alice (who shares a session key with
//! the file server, as she would after a Kerberos AP exchange) grants bob
//! a read-only capability for one file; bob exercises it; every misuse is
//! rejected.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::proxy::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // --- Setup: alice shares a session key with the file server. --------
    let alice = PrincipalId::new("alice");
    let fileserver = PrincipalId::new("fileserver");
    let session = SymmetricKey::generate(&mut rng);
    println!("alice has authenticated to {fileserver}; a session key exists.\n");

    // --- Alice grants a restricted proxy (Fig. 1). ----------------------
    let restrictions = RestrictionSet::new()
        .with(Restriction::authorize_op(
            ObjectName::new("/doc/report.txt"),
            Operation::new("read"),
        ))
        .with(Restriction::issued_for_one(fileserver.clone()));
    let proxy = grant(
        &alice,
        &GrantAuthority::SharedKey(session.clone()),
        restrictions,
        Validity::new(Timestamp(0), Timestamp(1_000)),
        1,
        &mut rng,
    );
    println!(
        "alice granted a bearer proxy: read /doc/report.txt only, at {} only,\n  certificate = {} bytes, expires at t1000.\n",
        fileserver,
        proxy.certs[0].encoded_len()
    );

    // --- The file server's verifier. -------------------------------------
    let resolver = MapResolver::new().with(alice.clone(), GrantorVerifier::SharedKey(session));
    let verifier = Verifier::new(fileserver.clone(), resolver);
    let mut replay = ReplayCache::new();

    // --- Bob (holding the proxy) reads the file. ------------------------
    let challenge = [42u8; 32]; // the server's fresh challenge
    let presentation = proxy.present_bearer(challenge, &fileserver);
    let ctx = RequestContext::new(
        fileserver.clone(),
        Operation::new("read"),
        ObjectName::new("/doc/report.txt"),
    )
    .at(Timestamp(10));
    let verified = verifier
        .verify(&presentation, &ctx, &mut replay)
        .expect("the read is authorized");
    println!(
        "bob presented the proxy: ALLOWED, acting with {}'s rights (chain length {}).",
        verified.grantor, verified.chain_len
    );

    // --- Misuse is rejected. ---------------------------------------------
    let write_ctx = RequestContext::new(
        fileserver.clone(),
        Operation::new("write"),
        ObjectName::new("/doc/report.txt"),
    )
    .at(Timestamp(10));
    let denied = verifier.verify(&presentation, &write_ctx, &mut replay);
    println!("bob tried to WRITE: {}", denied.unwrap_err());

    let late_ctx = ctx.clone().at(Timestamp(2_000));
    let denied = verifier.verify(&presentation, &late_ctx, &mut replay);
    println!("bob tried after expiry: {}", denied.unwrap_err());

    // --- Bob narrows the proxy before passing it to carol (Fig. 4). -----
    let narrowed = proxy
        .derive(
            RestrictionSet::new().with(Restriction::AcceptOnce { id: 99 }),
            Validity::new(Timestamp(0), Timestamp(500)),
            2,
            &mut rng,
        )
        .expect("derivable");
    println!(
        "\nbob derived a single-use copy for carol (chain length {}).",
        narrowed.certs.len()
    );
    let pres = narrowed.present_bearer([43u8; 32], &fileserver);
    verifier
        .verify(&pres, &ctx, &mut replay)
        .expect("first use allowed");
    println!("carol's first use: ALLOWED");
    let pres2 = narrowed.present_bearer([44u8; 32], &fileserver);
    let denied = verifier.verify(&pres2, &ctx, &mut replay);
    println!("carol's second use: {}", denied.unwrap_err());
}
