//! §3.4 scenario: cascaded authorization through a print pipeline.
//!
//! Alice asks the print spooler to print one of her files. The spooler
//! must fetch the file from the file server *on alice's behalf* — but
//! alice does not fully trust the spooler, so she grants it a delegate
//! proxy restricted to reading exactly that file. The spooler passes the
//! task to a worker via a delegate cascade (§3.4), which leaves an audit
//! trail naming the spooler. The file server verifies the whole chain
//! offline.
//!
//! Run with: `cargo run --example print_pipeline`

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_aa::crypto::keys::SymmetricKey;
use proxy_aa::proxy::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    let alice = PrincipalId::new("alice");
    let spooler = PrincipalId::new("print-spooler");
    let worker = PrincipalId::new("print-worker-3");
    let fs = PrincipalId::new("fileserver");

    // Session keys with the file server (from the authentication layer).
    let alice_fs = SymmetricKey::generate(&mut rng);
    let spooler_fs = SymmetricKey::generate(&mut rng);
    let resolver = MapResolver::new()
        .with(alice.clone(), GrantorVerifier::SharedKey(alice_fs.clone()))
        .with(
            spooler.clone(),
            GrantorVerifier::SharedKey(spooler_fs.clone()),
        );
    let verifier = Verifier::new(fs.clone(), resolver);
    let mut replay = ReplayCache::new();

    // --- Alice grants the spooler a restricted delegate proxy. ----------
    let job_proxy = grant(
        &alice,
        &GrantAuthority::SharedKey(alice_fs),
        RestrictionSet::new()
            .with(Restriction::grantee_one(spooler.clone()))
            .with(Restriction::authorize_op(
                ObjectName::new("/home/alice/thesis.ps"),
                Operation::new("read"),
            ))
            .with(Restriction::issued_for_one(fs.clone())),
        Validity::new(Timestamp(0), Timestamp(500)),
        1,
        &mut rng,
    );
    println!("alice → spooler: delegate proxy (read thesis.ps at fileserver only).\n");

    // --- The spooler itself could fetch the file… ------------------------
    let ctx = RequestContext::new(
        fs.clone(),
        Operation::new("read"),
        ObjectName::new("/home/alice/thesis.ps"),
    )
    .at(Timestamp(10));
    let as_spooler = ctx.clone().authenticated_as(spooler.clone());
    let ok = verifier.verify(&job_proxy.present_delegate(), &as_spooler, &mut replay);
    println!("spooler fetches the file itself:    {}", verdict(&ok));

    // --- …but hands the job to a worker via a delegate cascade. ----------
    let cascaded = delegate_cascade(
        &job_proxy.certs,
        &spooler,
        &GrantAuthority::SharedKey(spooler_fs),
        worker.clone(),
        RestrictionSet::new(),
        Validity::new(Timestamp(0), Timestamp(200)), // narrower window
        2,
        &mut rng,
    )
    .expect("cascade");
    println!("spooler → worker: cascaded proxy. Audit trail:");
    print!("{}", cascaded.audit_trail());

    let as_worker = ctx.clone().authenticated_as(worker.clone());
    let verified = verifier
        .verify(&cascaded.present_delegate(), &as_worker, &mut replay)
        .expect("worker may read");
    println!(
        "worker fetches the file:            ALLOWED (acting as {}, expires {}).",
        verified.grantor, verified.expires
    );

    // --- The chain is not transferable to strangers. ----------------------
    let as_mallory = ctx.clone().authenticated_as(PrincipalId::new("mallory"));
    let ok = verifier.verify(&cascaded.present_delegate(), &as_mallory, &mut replay);
    println!("mallory replays the chain:          {}", verdict(&ok));

    // --- And it cannot reach other files. ---------------------------------
    let other = RequestContext::new(
        fs.clone(),
        Operation::new("read"),
        ObjectName::new("/home/alice/diary.txt"),
    )
    .at(Timestamp(10))
    .authenticated_as(worker.clone());
    let ok = verifier.verify(&cascaded.present_delegate(), &other, &mut replay);
    println!("worker tries alice's diary:         {}", verdict(&ok));

    // --- The cascade's narrower expiry wins. -------------------------------
    let late = ctx.at(Timestamp(300)).authenticated_as(worker);
    let ok = verifier.verify(&cascaded.present_delegate(), &late, &mut replay);
    println!("worker retries after t=200:         {}", verdict(&ok));
}

fn verdict<T, E: std::fmt::Display>(r: &Result<T, E>) -> String {
    match r {
        Ok(_) => "ALLOWED".to_string(),
        Err(e) => format!("DENIED ({e})"),
    }
}
