//! Regenerates every deterministic series from the experiment suite in a
//! few seconds, without Criterion. Useful for refreshing EXPERIMENTS.md.
//!
//! Run with: `cargo run -p proxy-bench --bin figures --release`
//!
//! With `--ablate-crypto`, instead emits the signature-engine ablation
//! (frozen seed kernels vs. the windowed/batched engine) as `report_row`
//! series, timed by interleaved min-of-rounds — robust to the load
//! spikes Criterion's mean-based quick mode folds in.

use netsim::{EndpointId, Network};
use proxy_accounting::{write_check, AccountingServer, ClearingHouse};
use proxy_baselines::grapevine::{query_membership, RegistrationServer};
use proxy_baselines::sollins::{verify_online, Passport, SollinsAuthServer};
use proxy_bench::{cascade, report_row, restrictions, symmetric_world, window};
use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::keys::SymmetricKey;
use restricted_proxy::prelude::*;

fn p(name: &str) -> PrincipalId {
    PrincipalId::new(name)
}

fn f1_sizes() {
    let world = symmetric_world(1);
    let mut rng = proxy_bench::rng(2);
    for n in [0usize, 1, 2, 4, 8, 16, 32] {
        let proxy = grant(
            &world.grantor,
            &world.authority,
            restrictions(n),
            window(),
            1,
            &mut rng,
        );
        report_row(
            "F1",
            "certificate-bytes",
            n,
            proxy.certs[0].encoded_len(),
            "bytes",
        );
    }
}

fn f3_amortization() {
    for k in [1u64, 2, 5, 10, 100] {
        let ours = 3 + (k - 1);
        let mut reg = RegistrationServer::new();
        reg.add_member("staff", p("C"));
        let mut net = Network::new(0);
        for _ in 0..k {
            net.transmit(&EndpointId::new("C"), &EndpointId::new("S"), b"op");
            query_membership(&p("S"), &reg, "staff", &p("C"), &mut net);
        }
        report_row("F3", "proxy-messages-per-k", k, ours, "messages");
        report_row(
            "F3",
            "grapevine-messages-per-k",
            k,
            net.total_messages(),
            "messages",
        );
    }
}

fn f4_chain_depth() {
    let mut rng = proxy_bench::rng(1);
    let auth = SollinsAuthServer::new(p("auth"), SymmetricKey::generate(&mut rng));
    let world = symmetric_world(2);
    for d in [1usize, 2, 4, 8, 16, 32] {
        report_row("F4", "proxy-messages", d, 1, "messages");
        let mut passport = Passport::default();
        for i in 0..d {
            passport = auth.extend(&passport, p(&format!("hop{i}")), RestrictionSet::new());
        }
        let mut net = Network::new(0);
        assert!(verify_online(&p("end"), &passport, &auth, &mut net).valid);
        report_row(
            "F4",
            "sollins-messages",
            d,
            1 + net.total_messages(),
            "messages",
        );
        let proxy = cascade(&world, d, 3);
        report_row("F4", "proxy-chain-bytes", d, proxy.encoded_len(), "bytes");
    }
}

fn f5_clearing() {
    for hops in [1usize, 2, 4, 8] {
        let mut rng = proxy_bench::rng(42);
        let carol_key = SigningKey::generate(&mut rng);
        let shop_key = SigningKey::generate(&mut rng);
        let n = hops + 1;
        let keys: Vec<SigningKey> = (0..n).map(|_| SigningKey::generate(&mut rng)).collect();
        let names: Vec<PrincipalId> = (0..n).map(|i| p(&format!("$b{i}"))).collect();
        let drawee = names[n - 1].clone();
        let mut house = ClearingHouse::new();
        for (i, name) in names.iter().enumerate() {
            let mut s =
                AccountingServer::new(name.clone(), GrantAuthority::Keypair(keys[i].clone()));
            if i == 0 {
                s.open_account("shop", vec![p("S")]);
            }
            if i == n - 1 {
                s.open_account("carol", vec![p("C")]);
                s.account_mut("carol")
                    .unwrap()
                    .credit(Currency::new("USD"), 10_000);
                s.register_grantor(
                    p("C"),
                    GrantorVerifier::PublicKey(carol_key.verifying_key()),
                );
                s.register_grantor(p("S"), GrantorVerifier::PublicKey(shop_key.verifying_key()));
                for (j, k) in keys.iter().enumerate().take(n - 1) {
                    s.register_grantor(
                        names[j].clone(),
                        GrantorVerifier::PublicKey(k.verifying_key()),
                    );
                }
            }
            house.add_server(s);
        }
        for i in 0..n.saturating_sub(2) {
            house.set_route(names[i].clone(), drawee.clone(), names[i + 1].clone());
        }
        let check = write_check(
            &p("C"),
            &GrantAuthority::Keypair(carol_key),
            &drawee,
            "carol",
            p("S"),
            1,
            Currency::new("USD"),
            10,
            Validity::new(Timestamp(0), Timestamp(1_000_000)),
            &mut rng,
        );
        let mut net = Network::new(0);
        let report = house
            .deposit_and_clear(
                &check,
                &p("S"),
                &GrantAuthority::Keypair(shop_key),
                &names[0],
                "shop",
                Timestamp(1),
                &mut rng,
                Some(&mut net),
            )
            .expect("clears");
        report_row("F5", "clearing-messages", hops, report.messages, "messages");
        report_row("F5", "clearing-latency", hops, net.now(), "ticks");
    }
}

fn a4_replay_cache() {
    use restricted_proxy::replay::ReplayGuard;
    for n in [100u64, 10_000, 100_000] {
        let mut guard = MemoryReplayGuard::new();
        let grantor = p("g");
        for id in 0..n {
            assert!(guard.accept_once(&grantor, id, Timestamp(0), Timestamp(id + 1)));
        }
        report_row("A4", "cache-entries-after-flood", n, guard.len(), "entries");
        guard.expire(Timestamp(n / 2));
        report_row(
            "A4",
            "cache-entries-after-expiry",
            n,
            guard.len(),
            "entries",
        );
    }
}

fn a5_tgs_proxy() {
    for k in [1u64, 5, 20] {
        report_row("A5", "tgs-proxy-grantor-messages", k, 1, "messages");
        report_row("A5", "direct-grant-grantor-messages", k, k, "messages");
    }
}

fn ablate_crypto() {
    use proxy_bench::seed_ed25519::{seed_verify, SeedPoint};
    use proxy_crypto::ed25519::edwards::Point;
    use proxy_crypto::ed25519::scalar::Scalar;
    use proxy_crypto::ed25519::{verify_batch, PreparedKey, Signature};
    use rand::RngCore;
    use std::hint::black_box;
    use std::time::Instant;

    fn scalar(rng: &mut impl RngCore) -> Scalar {
        let mut b = [0u8; 32];
        rng.fill_bytes(&mut b);
        Scalar::from_bytes_mod_order(&b)
    }

    /// A named timing variant: label plus the closure to measure.
    type Variant<'a> = (&'a str, Box<dyn FnMut() + 'a>);

    /// A C1 / C2 row: one kernel `f` alone, its result kept alive.
    fn kernel<'a, T>(name: &'a str, f: impl Fn() -> T + 'a) -> Variant<'a> {
        (
            name,
            Box::new(move || {
                black_box(f());
            }),
        )
    }

    /// Times every variant by round-robin interleaving and keeps each
    /// variant's fastest round. Minima from interleaved rounds see the
    /// same machine conditions, so the *ratios* between variants are
    /// stable even when a shared host is noisy.
    fn time_all<'a>(variants: &mut [Variant<'a>]) -> Vec<(&'a str, f64)> {
        const ROUNDS: usize = 15;
        const ITERS: u32 = 8;
        let mut best = vec![f64::INFINITY; variants.len()];
        for _ in 0..ROUNDS {
            for (i, (_, f)) in variants.iter_mut().enumerate() {
                let t = Instant::now();
                for _ in 0..ITERS {
                    f();
                }
                best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e6 / f64::from(ITERS));
            }
        }
        variants
            .iter()
            .zip(&best)
            .map(|((n, _), b)| (*n, *b))
            .collect()
    }

    let mut rng = proxy_bench::rng(7);
    let (s, k, ka) = (scalar(&mut rng), scalar(&mut rng), scalar(&mut rng));
    let b = Point::basepoint();
    let a = b.mul_scalar(&ka).neg();
    let seed_b = SeedPoint::basepoint();
    let seed_a = seed_b.mul_scalar(&ka).neg();
    let sk = SigningKey::generate(&mut rng);
    let vk = sk.verifying_key();
    let msg: &[u8] = b"ablation message";
    let sig = sk.sign(msg);

    // The largest batch timed; every smaller one is a prefix of it.
    const MAX_BATCH: usize = 33;
    let keys: Vec<SigningKey> = (0..MAX_BATCH)
        .map(|_| SigningKey::generate(&mut rng))
        .collect();
    let messages: Vec<Vec<u8>> = (0..MAX_BATCH)
        .map(|i| format!("message {i}").into_bytes())
        .collect();
    let sigs: Vec<Signature> = keys
        .iter()
        .zip(&messages)
        .map(|(key, m)| key.sign(m))
        .collect();
    let vks: Vec<_> = keys.iter().map(SigningKey::verifying_key).collect();
    let items: Vec<_> = messages
        .iter()
        .zip(&sigs)
        .zip(&vks)
        .map(|((m, sg), key)| (m.as_slice(), sg, key))
        .collect();
    let items = items.as_slice();

    // Mod-ℓ arithmetic is tens of nanoseconds: a thousand dependent
    // operations per call, reported per operation.
    const SCALAR_OPS: usize = 1000;
    let wide: [u8; 64] = std::array::from_fn(|i| 0xa5 ^ (i as u8).wrapping_mul(29));
    let (a_bytes, r_bytes) = (*vk.as_bytes(), {
        let mut r = [0u8; 32];
        r.copy_from_slice(&sig.as_bytes()[..32]);
        r
    });

    // The stages a public key is held in (DESIGN.md §8, "Prepared keys").
    let decompressed = vk.decompress().expect("a point");
    let prepared = PreparedKey::new(&decompressed);

    // C3: n signatures one at a time and as one equation. Every batch
    // size some row below reads is timed once, as `batch-n`.
    const BATCHES: [usize; 8] = [2, 3, 4, 5, 8, 9, 16, 32];
    const SEQUENTIAL: [usize; 5] = [2, 4, 8, 16, 32];
    // What the chain verifier chooses between when a possession proof
    // arrives with n seals pending: batch(n) then a lone cold check, or
    // batch(n + 1).
    const PLUS_LONE: [usize; 4] = [1, 2, 4, 8];
    // And what it could choose when the check that arrives is under a
    // key it holds prepared: batch(n) then that check alone through the
    // prepared key, or batch(n + 1).
    const PLUS_PREPARED: [usize; 4] = [1, 2, 3, 4];
    let batch_name = |n: usize| format!("batch-{n}");
    let batch_names = BATCHES.map(batch_name);
    let sequential_names = SEQUENTIAL.map(|n| format!("sequential-verify-{n}"));
    let plus_lone_names = PLUS_LONE.map(|n| format!("batch-{n}-plus-lone"));
    let plus_prepared_names = PLUS_PREPARED.map(|n| format!("batch-{n}-plus-prepared-lone"));
    let prepared_keys: Vec<PreparedKey> = vks
        .iter()
        .map(|key| PreparedKey::new(&key.decompress().expect("a point")))
        .collect();
    let prepared_keys = prepared_keys.as_slice();

    // C4: an 8-link public-key cascade through `Verifier::verify`, cold
    // (no cache: eight seals and the possession proof in one equation)
    // and re-presented to a warm seal cache (the proof alone).
    const DEPTH: usize = 8;
    let world = proxy_bench::public_key_world(4);
    let mut chain_rng = proxy_bench::rng(5);
    let mut proxy = grant(
        &world.grantor,
        &world.authority,
        RestrictionSet::new(),
        window(),
        0,
        &mut chain_rng,
    );
    for serial in 1..DEPTH as u64 {
        proxy = proxy
            .derive(RestrictionSet::new(), window(), serial, &mut chain_rng)
            .expect("window fixed");
    }
    let pres = proxy.present_bearer([1u8; 32], &world.server);
    let ctx = proxy_bench::matching_ctx(&world.server);
    let cached = world.verifier.clone().with_seal_cache(64);
    cached
        .verify(&pres, &ctx, &mut MemoryReplayGuard::new())
        .expect("ok");

    // The conventional half (DESIGN.md §8, "Conventional keys"): what a
    // key costs per message under its raw bytes, on its first use, and
    // once it holds its schedule. A thousand operations per call, in ns.
    const KEY_OPS: usize = 1000;
    let block = [0x5au8; proxy_crypto::sha256::BLOCK_LEN];
    let body = [0xc3u8; 87];
    let hmac_world = symmetric_world(11);
    let shared_bytes = *hmac_world.shared.as_bytes();
    let warm_key = SymmetricKey::from_bytes(shared_bytes);
    warm_key.prepare();
    let nonce = proxy_crypto::keys::Nonce::from_bytes([9; 12]);
    let hmac_pres = grant(
        &hmac_world.grantor,
        &hmac_world.authority,
        RestrictionSet::new(),
        window(),
        1,
        &mut proxy_bench::rng(12),
    )
    .present_bearer([2u8; 32], &hmac_world.server);
    let hmac_ctx = proxy_bench::matching_ctx(&hmac_world.server);
    let grant_under = |authority: &GrantAuthority, rng: &mut rand::rngs::StdRng| {
        black_box(grant(
            &hmac_world.grantor,
            authority,
            RestrictionSet::new(),
            window(),
            1,
            rng,
        ));
    };
    let (mut warm_rng, mut cold_rng) = (proxy_bench::rng(13), proxy_bench::rng(13));

    let mut variants: Vec<Variant> = vec![
        kernel("seed-double-and-add", || seed_b.mul_scalar(&k)),
        kernel("naive-double-and-add", || b.mul_scalar(&k)),
        kernel("wnaf5", || b.mul_wnaf(&k)),
        kernel("fixed-base-table", || Point::mul_basepoint(&k)),
        kernel("seed-straus", || {
            SeedPoint::double_scalar_mul(&s, &seed_b, &k, &seed_a)
        }),
        kernel("two-naive-ladders", || {
            b.mul_scalar(&s).add(&a.mul_scalar(&k))
        }),
        kernel("straus-two-dynamic-tables", || {
            Point::double_scalar_mul(&s, &b, &k, &a)
        }),
        kernel("straus-basepoint-table", || {
            Point::double_scalar_mul_basepoint(&s, &k, &a)
        }),
        (
            "seed-verify",
            Box::new(|| {
                assert!(seed_verify(vk.as_bytes(), msg, sig.as_bytes()));
            }),
        ),
        (
            "verify",
            Box::new(|| {
                vk.verify(msg, &sig).expect("valid");
            }),
        ),
        (
            "verify-decompressed",
            Box::new(|| {
                decompressed.verify(msg, &sig).expect("valid");
            }),
        ),
        (
            "verify-prepared",
            Box::new(|| {
                prepared.verify(msg, &sig).expect("valid");
            }),
        ),
        (
            "prepare-key",
            Box::new(|| {
                black_box(PreparedKey::new(black_box(&decompressed)));
            }),
        ),
        (
            "sign",
            Box::new(|| {
                black_box(sk.sign(black_box(msg)));
            }),
        ),
        (
            "scalar-mul-x1000",
            Box::new(|| {
                let mut acc = s;
                for _ in 0..SCALAR_OPS {
                    acc = acc.mul(k);
                }
                black_box(acc);
            }),
        ),
        (
            "scalar-wide-reduce-x1000",
            Box::new(|| {
                let mut bytes = wide;
                for _ in 0..SCALAR_OPS {
                    let reduced = Scalar::from_bytes_mod_order_wide(&bytes);
                    bytes[..32].copy_from_slice(&reduced.to_bytes());
                }
                black_box(bytes);
            }),
        ),
        (
            "decompress-one",
            Box::new(|| {
                black_box(Point::decompress(black_box(&a_bytes)).expect("a point"));
            }),
        ),
        (
            "decompress-pair",
            Box::new(|| {
                let [a, r] = Point::decompress_pair(black_box(&a_bytes), black_box(&r_bytes));
                black_box((a.expect("a point"), r.expect("a point")));
            }),
        ),
    ];
    for (n, name) in BATCHES.into_iter().zip(&batch_names) {
        variants.push((
            name,
            Box::new(move || verify_batch(&items[..n]).expect("valid")),
        ));
    }
    for (n, name) in SEQUENTIAL.into_iter().zip(&sequential_names) {
        variants.push((
            name,
            Box::new(move || {
                for (m, sg, key) in &items[..n] {
                    key.verify(m, sg).expect("valid");
                }
            }),
        ));
    }
    for (n, name) in PLUS_LONE.into_iter().zip(&plus_lone_names) {
        variants.push((
            name,
            Box::new(move || {
                verify_batch(&items[..n]).expect("valid");
                let (m, sg, key) = &items[n];
                key.verify(m, sg).expect("valid");
            }),
        ));
    }
    for (n, name) in PLUS_PREPARED.into_iter().zip(&plus_prepared_names) {
        variants.push((
            name,
            Box::new(move || {
                verify_batch(&items[..n]).expect("valid");
                let (m, sg, _) = &items[n];
                prepared_keys[n].verify(m, sg).expect("valid");
            }),
        ));
    }

    variants.extend([
        kernel("sha256-block-x1000", || {
            let mut h = proxy_crypto::sha256::Sha256::new();
            for _ in 0..KEY_OPS {
                h.update(black_box(&block));
            }
            h.finalize()
        }),
        kernel("hmac-87B-raw-key-x1000", || {
            for _ in 0..KEY_OPS {
                black_box(proxy_crypto::hmac::HmacSha256::mac(
                    black_box(&shared_bytes),
                    black_box(&body),
                ));
            }
        }),
        kernel("hmac-87B-keyed-context-x1000", || {
            for _ in 0..KEY_OPS {
                black_box(black_box(&warm_key).mac(black_box(&body)));
            }
        }),
        kernel("seal-key32-first-use-x1000", || {
            for _ in 0..KEY_OPS {
                let key = SymmetricKey::from_bytes(black_box(shared_bytes));
                black_box(proxy_crypto::seal::seal_key32_with_nonce(
                    &key, &nonce, b"aad", &[7; 32],
                ));
            }
        }),
        kernel("seal-key32-warm-x1000", || {
            for _ in 0..KEY_OPS {
                black_box(proxy_crypto::seal::seal_key32_with_nonce(
                    black_box(&warm_key),
                    &nonce,
                    b"aad",
                    &[7; 32],
                ));
            }
        }),
        (
            "grant-shared-key-first-use-x1000",
            Box::new(|| {
                for _ in 0..KEY_OPS {
                    let key = SymmetricKey::from_bytes(black_box(shared_bytes));
                    grant_under(&GrantAuthority::SharedKey(key), &mut cold_rng);
                }
            }),
        ),
        (
            "grant-shared-key-warm-x1000",
            Box::new(|| {
                for _ in 0..KEY_OPS {
                    grant_under(&hmac_world.authority, &mut warm_rng);
                }
            }),
        ),
        kernel("verify-hmac-link-warm-x1000", || {
            for _ in 0..KEY_OPS {
                let mut guard = MemoryReplayGuard::new();
                black_box(
                    hmac_world
                        .verifier
                        .verify(&hmac_pres, &hmac_ctx, &mut guard)
                        .expect("ok"),
                );
            }
        }),
    ]);

    variants.push((
        "cascade8-cold",
        Box::new(|| {
            let mut guard = MemoryReplayGuard::new();
            black_box(world.verifier.verify(&pres, &ctx, &mut guard).expect("ok"));
        }),
    ));
    variants.push((
        "cascade8-warm-seal-cache",
        Box::new(|| {
            let mut guard = MemoryReplayGuard::new();
            black_box(cached.verify(&pres, &ctx, &mut guard).expect("ok"));
        }),
    ));

    let timed = time_all(&mut variants);
    let us = |name: &str| {
        timed
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect("variant timed")
    };
    for (name, value) in &timed {
        match name.strip_suffix("-x1000") {
            // µs per thousand operations is ns per operation.
            Some(per_op) => report_row("C", per_op, 1, format!("{value:.0}"), "ns"),
            None => report_row("C", name, 1, format!("{value:.1}"), "µs"),
        }
    }
    let ratio = |num: &str, den: &str| format!("{:.2}", us(num) / us(den));
    report_row(
        "C",
        "fixed-base-speedup-vs-seed",
        1,
        ratio("seed-double-and-add", "fixed-base-table"),
        "x",
    );
    report_row(
        "C",
        "straus-speedup-vs-seed",
        1,
        ratio("seed-straus", "straus-basepoint-table"),
        "x",
    );
    report_row(
        "C",
        "verify-speedup-vs-seed",
        1,
        ratio("seed-verify", "verify"),
        "x",
    );
    report_row(
        "C",
        "decompress-pair-vs-two-alone",
        1,
        format!(
            "{:.2}",
            us("decompress-pair") / (2.0 * us("decompress-one"))
        ),
        "x",
    );
    report_row(
        "C",
        "grant-warm-vs-first-use",
        1,
        ratio(
            "grant-shared-key-warm-x1000",
            "grant-shared-key-first-use-x1000",
        ),
        "x",
    );
    for (n, sequential) in SEQUENTIAL.into_iter().zip(&sequential_names) {
        report_row(
            "C3",
            "batch-speedup-vs-sequential",
            n,
            ratio(sequential, &batch_name(n)),
            "x",
        );
    }
    for (n, plus_lone) in PLUS_LONE.into_iter().zip(&plus_lone_names) {
        report_row(
            "C3",
            "proof-joins-the-batch-vs-stands-alone",
            n,
            ratio(&batch_name(n + 1), plus_lone),
            "x",
        );
    }
    for (n, plus_prepared) in PLUS_PREPARED.into_iter().zip(&plus_prepared_names) {
        report_row(
            "C3",
            "prepared-check-joins-the-batch-vs-stands-alone",
            n,
            ratio(&batch_name(n + 1), plus_prepared),
            "x",
        );
    }
    report_row(
        "C3",
        "batch-marginal-signature",
        32,
        format!("{:.1}", (us("batch-32") - us("batch-16")) / 16.0),
        "µs",
    );
    let (hits, misses) = cached.seal_cache().expect("attached").stats();
    assert_eq!(misses as usize, DEPTH, "exactly one cold chain walk");
    assert_eq!(hits as usize % DEPTH, 0, "re-presentations hit every link");
}

/// Runs the C10k sweep (see `proxy_bench::c10k`): thousands of
/// concurrent pipelined loopback connections on the fig3 authz-query
/// path, served by the readiness-driven event-loop server.
///
/// In full mode (`--c10k`) the gated sweep is persisted to
/// `BENCH_c10k.json`. In smoke mode (`--c10k-smoke`, used by ci.sh) only
/// the reduced sweep runs and the recorded results are left untouched.
fn c10k(smoke: bool) {
    use proxy_bench::c10k::{run, C10kOptions};

    let opts = if smoke {
        C10kOptions::smoke()
    } else {
        C10kOptions::default()
    };
    let report = run(&opts);
    for pt in &report.event_loop {
        report_row(
            "C10K",
            "event-loop",
            pt.connections,
            format!(
                "{:.0} ops/s, burst p50 {} µs, p99 {} µs, connect {:.2}s",
                pt.ops_per_sec, pt.p50_us, pt.p99_us, pt.connect_secs
            ),
            "",
        );
    }

    // Flat-p99 gate: the most-loaded point within 2x of the least.
    let ratio = report.p99_ratio();
    let top = report.event_loop.last().expect("sweep not empty");
    println!(
        "c10k p99 ratio ({} conns vs {} conns): {ratio:.2}x (target <= 2x)",
        top.connections,
        report
            .event_loop
            .first()
            .expect("sweep not empty")
            .connections,
    );
    assert!(
        ratio <= 2.0,
        "p99 degraded more than 2x across the connection sweep"
    );
    if !smoke {
        assert!(
            top.connections >= 5000,
            "full c10k sweep must reach at least 5000 concurrent connections"
        );
        std::fs::write("BENCH_c10k.json", report.to_json()).expect("write BENCH_c10k.json");
        println!("wrote BENCH_c10k.json");
    }
}

/// Runs the revocation-index and membership-mirror harness (see
/// `proxy_bench::revocation`). In full mode (`--revocation`, 1M serials
/// and 1M members) the report is gated and persisted to
/// `BENCH_revocation.json`; in smoke mode (`--revocation-smoke`, used by
/// ci.sh, ~100k serials) the same gates run but the recorded results are
/// left untouched.
fn revocation(smoke: bool) {
    use proxy_bench::revocation::{run, Options};

    let opts = if smoke {
        Options::smoke()
    } else {
        Options::default()
    };
    let report = run(&opts);
    report_row(
        "R",
        "contains-small",
        report.small_serials,
        format!("{:.1} ns/probe", report.contains_small_ns),
        "",
    );
    report_row(
        "R",
        "contains-large",
        report.large_serials,
        format!(
            "{:.1} ns/probe ({:.2}x of small, gate <= 2x)",
            report.contains_large_ns, report.contains_ratio
        ),
        "",
    );
    report_row(
        "R",
        "revoke-one",
        report.large_serials,
        format!(
            "{:.1} ns ({:.2}x of {:.1} ns at {} serials, gate <= 8x)",
            report.revoke_large_ns,
            report.revoke_ratio,
            report.revoke_small_ns,
            report.small_serials
        ),
        "",
    );
    report_row(
        "R",
        "snapshot-artifact",
        report.large_serials,
        format!(
            "{} bytes, encode {:.0} MB/s, decode {:.0} MB/s",
            report.snapshot_bytes, report.encode_mb_per_s, report.decode_mb_per_s
        ),
        "",
    );
    report_row(
        "R",
        "delta-apply",
        opts.delta_size,
        format!(
            "{:.1} µs/delta onto a {}-serial mirror",
            report.delta_apply_us, report.large_serials
        ),
        "",
    );
    report_row(
        "R",
        "cascade-verify-off",
        opts.cascade_depth,
        format!(
            "p50 {:.2} µs, p99 {:.2} µs",
            report.verify_off_p50_us, report.verify_off_p99_us
        ),
        "",
    );
    report_row(
        "R",
        "cascade-verify-on",
        opts.cascade_depth,
        format!(
            "p50 {:.2} µs ({:+.2}%), p99 {:.2} µs ({:+.2}%), gate <= 5%",
            report.verify_on_p50_us,
            report.overhead_p50_pct,
            report.verify_on_p99_us,
            report.overhead_p99_pct
        ),
        "",
    );
    report_row(
        "R",
        "verify-under-churn",
        opts.cascade_depth,
        format!(
            "p50 {:.2} µs with deltas streaming in",
            report.verify_under_churn_p50_us
        ),
        "",
    );
    report_row(
        "R",
        "membership-mirror",
        report.members,
        format!(
            "{} roster bytes in, then {} asserts at {:.1} ns with {} network messages",
            report.roster_bytes, report.asserts, report.assert_ns, report.messages_during_asserts
        ),
        "",
    );
    report_row("R", "host-parallelism", 1, report.host_parallelism, "cpus");
    // Gate before persisting: a run that fails the acceptance checks
    // must not overwrite the recorded results with its own.
    report.check_gates();
    if !smoke {
        std::fs::write("BENCH_revocation.json", report.to_json())
            .expect("write BENCH_revocation.json");
        println!("wrote BENCH_revocation.json");
    }
}

/// Runs the durable-journal harness (see `proxy_bench::wal`): the four
/// append rows and the group-commit amortization gate. Used by ci.sh;
/// nothing is persisted.
fn wal() {
    use proxy_bench::wal::{run, REQUIRED_SPEEDUP};

    let report = run();
    for row in &report.rows {
        let value = format!("{:.0} ops/s", row.ops_per_sec);
        report_row("W", row.series, row.writers, value, "");
    }
    let speedup = format!(
        "{:.2}x of the lone writer, who pays one fsync per record (gate >= {REQUIRED_SPEEDUP:.0}x)",
        report.speedup()
    );
    report_row(
        "W",
        "group-commit-speedup",
        report.rows[3].writers,
        speedup,
        "",
    );
    report_row("W", "host-parallelism", 1, report.host_parallelism, "cpus");
    report.check_gates();
}

const USAGE: &str = "usage: figures [--ablate-crypto | --c10k | --c10k-smoke | \
--revocation | --revocation-smoke | --wal]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        [] => {
            f1_sizes();
            f3_amortization();
            f4_chain_depth();
            f5_clearing();
            a4_replay_cache();
            a5_tgs_proxy();
        }
        ["--ablate-crypto"] => ablate_crypto(),
        ["--c10k"] => c10k(false),
        ["--c10k-smoke"] => c10k(true),
        ["--revocation"] => revocation(false),
        ["--revocation-smoke"] => revocation(true),
        ["--wal"] => wal(),
        _ => {
            eprintln!("figures: unrecognized arguments {args:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
