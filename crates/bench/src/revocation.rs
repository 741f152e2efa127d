//! Revocation-index and membership-mirror harness.
//!
//! Quantifies the PR-7 claims end to end:
//!
//! * **O(1) contains** — point probes against a 1k-serial and a 1M-serial
//!   compressed index at equal density must cost the same (gate: within
//!   2×). Set size buys chunks, not probe work.
//! * **O(1) revoke** — a single `RevocationRegistry::revoke` mutates the
//!   issuer's set in place, so it too must cost the same against a small
//!   and a large registry (gate: within 8×; a registry that clones its
//!   set per call reads 100× and up).
//! * **Artifact throughput** — canonical encode / decode of a full
//!   snapshot and registry→directory delta application, reported as
//!   MB/s and µs/delta.
//! * **Hot-path overhead** — cascade-verify p50/p95/p99 with a
//!   1M-serial revocation mirror attached to the verifier vs. detached,
//!   the two timed in alternating pairs (gate: ≤5% at p50 and p95; p99
//!   is reported). The probe is one shard read + one container lookup
//!   against µs-scale seal work, so the budget is generous.
//! * **Round-trip-free membership** — a 1M-member group roster lands as
//!   one sealed snapshot over the simulated network; every subsequent
//!   assert is answered locally. The [`Network`] tally proves zero
//!   group-server messages during the assert storm.
//!
//! All timing uses interleaved min-of-rounds (the `ablate-crypto`
//! discipline): variants alternate within each round, and each keeps its
//! fastest round, so shared-host noise cancels out of the *ratios* the
//! gates check.

use std::sync::Arc;
use std::time::Instant;

use netsim::{EndpointId, Network};
use proxy_authz::GroupServer;
use rand::Rng;
use restricted_proxy::membership::{MembershipAnswer, MembershipDirectory};
use restricted_proxy::prelude::*;
use restricted_proxy::revocation::{
    RevocationArtifact, RevocationDirectory, RevocationRegistry, SerialSet,
};

use crate::{
    cascade, host_parallelism, matching_ctx, percentile, rng, symmetric_world, value_of, Row,
};

/// How large one run is. Two presets, [`FULL`] and [`SMOKE`], are
/// chosen by `figures`' flags.
struct Scale {
    /// Serials in the large index.
    large_serials: u64,
    /// Members in the mirrored group roster.
    members: u64,
    /// Contains-probes per round per index.
    probes: usize,
    /// Cascade verifications per round per variant.
    verify_iters: usize,
    /// Deltas applied for the delta-apply series.
    delta_batches: u64,
    /// Serials per delta.
    delta_size: u64,
    /// Membership asserts in the zero-round-trip storm.
    asserts: u64,
}

/// The headline configuration: 1M serials, 1M members.
const FULL: Scale = Scale {
    large_serials: 1_000_000,
    members: 1_000_000,
    probes: 20_000,
    verify_iters: 1_000,
    delta_batches: 32,
    delta_size: 1_000,
    asserts: 100_000,
};

/// The `ci.sh` configuration: ~100k serials, seconds not minutes.
const SMOKE: Scale = Scale {
    large_serials: 100_000,
    members: 100_000,
    probes: 5_000,
    verify_iters: 1_000,
    delta_batches: 8,
    delta_size: 500,
    asserts: 20_000,
};

/// Serials in the small comparison index.
const SMALL_SERIALS: u64 = 1_000;
/// Certificate-chain depth for the cascade-verify comparison.
const CASCADE_DEPTH: usize = 4;
/// Interleaved timing rounds (each variant keeps its fastest).
const ROUNDS: usize = 24;
/// Single `revoke` calls timed per round against each registry.
const REVOKES_PER_ROUND: u64 = 1_000;

/// `count` serials scattered at constant density (64 slots per serial),
/// so small and large indexes differ in chunk count, not in per-chunk
/// shape — a fair O(1) comparison.
fn scattered_serials(count: u64, seed: u64) -> Vec<u64> {
    let space = count.saturating_mul(64).max(64);
    let mut r = rng(seed);
    (0..count).map(|_| r.gen_range(0..space)).collect()
}

/// One bulk probe of `probes` against `set`, in ns per probe: the
/// pipelined path (overlapping misses, branchless accumulation) both
/// indexes go through.
fn contains_ns(set: &SerialSet, probes: &[u64]) -> f64 {
    let t = Instant::now();
    std::hint::black_box(set.count_contained(probes));
    t.elapsed().as_secs_f64() * 1e9 / probes.len() as f64
}

/// Runs the harness, full or smoke, prints its rows and asserts its
/// gates: contains and a single `revoke` at the large index within 2×
/// and 8× of the small one, the mirror's cascade-verify overhead within
/// 5 % at p50 and p95, and no network message during the membership
/// asserts.
///
/// # Panics
///
/// When a gate fails.
pub fn run(smoke: bool) -> Vec<Row> {
    let scale = if smoke { &SMOKE } else { &FULL };
    let rows = measure(scale);
    rows.iter().for_each(Row::print);
    let (large, small) = (scale.large_serials, SMALL_SERIALS);
    let contains = value_of(&rows, "contains-ratio");
    assert!(
        contains <= 2.0,
        "contains at {large} serials is {contains:.2}x the {small}-serial cost (gate: 2x) — the index is not O(1)",
    );
    let revoke = value_of(&rows, "revoke-one-ratio");
    assert!(
        revoke <= 8.0,
        "one revoke against {large} serials is {revoke:.1}x the {small}-serial cost (gate: 8x) — revoking is paying for the whole set",
    );
    let p50 = value_of(&rows, "cascade-verify-on-overhead-p50");
    let p95 = value_of(&rows, "cascade-verify-on-overhead-p95");
    assert!(
        p50 <= 5.0 && p95 <= 5.0,
        "revocation probe costs {p50:.2}% at p50 / {p95:.2}% at p95 on the verify path (gate: 5%)",
    );
    assert_eq!(
        value_of(&rows, "membership-mirror-messages"),
        0.0,
        "membership asserts must not touch the network"
    );
    rows
}

/// Measures every series at `scale`. The gates live in [`run`], so a
/// debug-mode unit run stays timing-insensitive.
fn measure(scale: &Scale) -> Vec<Row> {
    // ---- O(1) contains: small vs large at equal density ----
    let small_serials = scattered_serials(SMALL_SERIALS, 1);
    let small: SerialSet = small_serials.iter().copied().collect();
    let large_serials = scattered_serials(scale.large_serials, 2);
    let large: SerialSet = large_serials.iter().copied().collect();
    // Probe streams: half drawn from the set, half random misses.
    let probe_stream = |serials: &[u64], seed: u64| -> Vec<u64> {
        let space = serials.len() as u64 * 64;
        let mut r = rng(seed);
        (0..scale.probes)
            .map(|i| {
                if i % 2 == 0 {
                    serials[r.gen_range(0..serials.len())]
                } else {
                    r.gen_range(0..space.max(64))
                }
            })
            .collect()
    };
    let small_probes = probe_stream(&small_serials, 3);
    let large_probes = probe_stream(&large_serials, 4);
    // Interleave: alternate small/large each round, keep fastest rounds.
    let mut contains_small = f64::INFINITY;
    let mut contains_large = f64::INFINITY;
    for _ in 0..ROUNDS {
        contains_small = contains_small.min(contains_ns(&small, &small_probes));
        contains_large = contains_large.min(contains_ns(&large, &large_probes));
    }

    // ---- O(1) revoke: one call against a small vs a large registry ----
    let world = symmetric_world(11);
    let mut revoke_seed = rng(5);
    // One round: `REVOKES_PER_ROUND` single revokes of serials drawn from
    // the registry's own slot space (so each lands in a chunk of the
    // shape the registry already holds), then an untimed publish so the
    // next round starts with nothing pending.
    let mut revoke_round = |registry: &RevocationRegistry, held: u64| {
        let serials: Vec<u64> = (0..REVOKES_PER_ROUND)
            .map(|_| revoke_seed.gen_range(0..held.saturating_mul(64).max(64)))
            .collect();
        let t = Instant::now();
        for &serial in &serials {
            std::hint::black_box(registry.revoke(serial));
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / REVOKES_PER_ROUND as f64;
        registry.publish_delta(&world.authority);
        ns
    };
    let small_registry = RevocationRegistry::new(world.grantor.clone());
    small_registry.revoke_all(small_serials.iter().copied());
    let large_registry = RevocationRegistry::new(world.grantor.clone());
    large_registry.revoke_all(large_serials.iter().copied());
    let mut revoke_small = f64::INFINITY;
    let mut revoke_large = f64::INFINITY;
    for _ in 0..ROUNDS.min(6) {
        revoke_small = revoke_small.min(revoke_round(&small_registry, SMALL_SERIALS));
        revoke_large = revoke_large.min(revoke_round(&large_registry, scale.large_serials));
    }

    // ---- Artifact encode/decode throughput ----
    let snapshot = RevocationArtifact::seal(
        world.grantor.clone(),
        1,
        restricted_proxy::revocation::ArtifactKind::Snapshot,
        large.clone(),
        &world.authority,
    );
    let mut encoded = Vec::new();
    let mut encode_best = f64::INFINITY;
    let mut decode_best = f64::INFINITY;
    for _ in 0..ROUNDS.min(6) {
        let t = Instant::now();
        encoded = snapshot.encode();
        encode_best = encode_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let decoded = RevocationArtifact::decode(&encoded).expect("own encoding decodes");
        decode_best = decode_best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(decoded);
    }
    let snapshot_bytes = encoded.len();
    let mb = snapshot_bytes as f64 / 1e6;

    // ---- Delta apply against a full mirror ----
    let registry = RevocationRegistry::new(world.grantor.clone());
    registry.revoke_all(large_serials.iter().copied());
    let directory = Arc::new(RevocationDirectory::new());
    for artifact in registry.updates_since(0, &world.authority) {
        directory
            .apply_verified(&artifact)
            .expect("base mirror syncs");
    }
    let space = scale.large_serials * 64;
    let mut delta_seed = rng(21);
    let mut delta_total = 0.0;
    for _ in 0..scale.delta_batches {
        registry.revoke_all((0..scale.delta_size).map(|_| delta_seed.gen_range(0..space)));
        let have = directory.epoch_of(&world.grantor);
        for artifact in registry.updates_since(have, &world.authority) {
            let t = Instant::now();
            directory.apply_verified(&artifact).expect("delta applies");
            delta_total += t.elapsed().as_secs_f64();
        }
    }
    let delta_apply_us = delta_total * 1e6 / scale.delta_batches as f64;

    // ---- Cascade verify: mirror attached vs detached ----
    let chain = cascade(&world, CASCADE_DEPTH, 3);
    let pres = chain.present_bearer([1u8; 32], &world.server);
    let ctx = matching_ctx(&world.server);
    let resolver = MapResolver::new().with(
        world.grantor.clone(),
        GrantorVerifier::SharedKey(world.shared.clone()),
    );
    let verifier_on =
        Verifier::new(world.server.clone(), resolver).with_revocation(Arc::clone(&directory));
    let verifier_off = &world.verifier;
    let time_verify = |v: &Verifier<MapResolver>, samples: &mut Vec<f64>| {
        let mut guard = ReplayCache::new();
        let t = Instant::now();
        let ok = v.verify(&pres, &ctx, &mut guard).expect("verifies");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(ok);
    };
    // The variants alternate sample by sample (which goes first swaps
    // every pair), so the two samples of a pair share the host's state
    // and a noisy stretch lands in both variants alike. The overheads
    // compare quantiles of all pairs pooled, 24 000 a side in the smoke.
    // The gate reads p50 and p95: p95 sits below the host's interrupt
    // tail yet above the 1-in-16 verifies a probe that is slow one time
    // in 64 delays. p99 is a row, not a gate: it lies inside that
    // interrupt tail and read −7 to 17 % on unchanged code. The reported
    // absolute quantiles keep each variant's cleanest round, per the
    // usual min-of-rounds discipline.
    let mut best_on_p50 = f64::INFINITY;
    let mut best_on_p99 = f64::INFINITY;
    let mut best_off_p50 = f64::INFINITY;
    let mut best_off_p99 = f64::INFINITY;
    let (mut all_on, mut all_off) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut on_round = Vec::with_capacity(scale.verify_iters);
        let mut off_round = Vec::with_capacity(scale.verify_iters);
        for pair in 0..scale.verify_iters {
            if pair % 2 == 0 {
                time_verify(&verifier_on, &mut on_round);
                time_verify(verifier_off, &mut off_round);
            } else {
                time_verify(verifier_off, &mut off_round);
                time_verify(&verifier_on, &mut on_round);
            }
        }
        all_on.extend_from_slice(&on_round);
        all_off.extend_from_slice(&off_round);
        on_round.sort_by(f64::total_cmp);
        off_round.sort_by(f64::total_cmp);
        best_on_p50 = best_on_p50.min(percentile(&on_round, 50.0));
        best_on_p99 = best_on_p99.min(percentile(&on_round, 99.0));
        best_off_p50 = best_off_p50.min(percentile(&off_round, 50.0));
        best_off_p99 = best_off_p99.min(percentile(&off_round, 99.0));
    }
    all_on.sort_by(f64::total_cmp);
    all_off.sort_by(f64::total_cmp);
    let overhead = |q: f64| (percentile(&all_on, q) / percentile(&all_off, q) - 1.0) * 100.0;

    // ---- Verify while deltas stream in (informational) ----
    let mut churn_samples = Vec::new();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (registry, directory, authority, issuer) =
            (&registry, &directory, &world.authority, &world.grantor);
        let stop_ref = &stop;
        scope.spawn(move || {
            let mut r = rng(31);
            while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                registry.revoke_all((0..64).map(|_| r.gen_range(0..space)));
                let have = directory.epoch_of(issuer);
                for artifact in registry.updates_since(have, authority) {
                    let _ = directory.apply_verified(&artifact);
                }
            }
        });
        for _ in 0..ROUNDS.min(6) {
            time_verify(&verifier_on, &mut churn_samples);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    churn_samples.sort_by(f64::total_cmp);
    let churn_p50 = percentile(&churn_samples, 50.0);

    // ---- Membership: one snapshot in, zero round trips after ----
    let gs_world = symmetric_world(12);
    let gs = GroupServer::new(
        PrincipalId::new("GS"),
        GrantAuthority::SharedKey(gs_world.shared.clone()),
    );
    let gs_verifier = GrantorVerifier::SharedKey(gs_world.shared.clone());
    gs.create_group("everyone");
    gs.add_members(
        "everyone",
        (0..scale.members).map(|i| PrincipalId::new(format!("member-{i}"))),
    );
    let mirror = MembershipDirectory::new();
    let staff = GroupName::new(PrincipalId::new("GS"), "everyone");
    let net = Network::new(0);
    let mut roster_bytes = 0u64;
    for artifact in gs.updates_since("everyone", 0) {
        assert!(artifact.verify_seal(&gs_verifier), "roster seal verifies");
        let bytes = artifact.encode().len() as u64;
        roster_bytes += bytes;
        // The artifact is the only traffic this flow ever generates.
        net.record(&EndpointId::new("GS"), &EndpointId::new("S"), bytes);
        mirror.apply_verified(&artifact).expect("roster applies");
    }
    let messages_before = net.total_messages();
    let mut assert_best = f64::INFINITY;
    let per_round = scale.asserts / ROUNDS as u64;
    let mut hit = 0u64;
    for round in 0..ROUNDS as u64 {
        let t = Instant::now();
        for i in 0..per_round {
            // Mostly members, with a miss every 16 probes to exercise
            // the negative path too.
            let n = (round * per_round + i * 7) % (scale.members + scale.members / 16);
            let who = PrincipalId::new(format!("member-{n}"));
            if mirror.assert(&staff, &who) == MembershipAnswer::Member {
                hit += 1;
            }
        }
        assert_best = assert_best.min(t.elapsed().as_secs_f64() * 1e9 / per_round as f64);
    }
    std::hint::black_box(hit);
    let asserts = per_round * ROUNDS as u64;
    let messages = net.total_messages() - messages_before;

    let r = |series, x, value, unit| Row::new("R", series, x, value, unit);
    let (small, large) = (SMALL_SERIALS, scale.large_serials);
    let (depth, members) = (CASCADE_DEPTH as u64, scale.members);
    let (contains_ratio, revoke_ratio) =
        (contains_large / contains_small, revoke_large / revoke_small);
    vec![
        r("contains-small", small, contains_small, "ns/probe"),
        r("contains-large", large, contains_large, "ns/probe"),
        r("contains-ratio", large, contains_ratio, "x"),
        r("revoke-one-small", small, revoke_small, "ns"),
        r("revoke-one-large", large, revoke_large, "ns"),
        r("revoke-one-ratio", large, revoke_ratio, "x"),
        r("snapshot-artifact", large, snapshot_bytes as f64, "bytes"),
        r("snapshot-artifact-encode", large, mb / encode_best, "MB/s"),
        r("snapshot-artifact-decode", large, mb / decode_best, "MB/s"),
        r("delta-apply", scale.delta_size, delta_apply_us, "µs/delta"),
        r("cascade-verify-off-p50", depth, best_off_p50, "µs"),
        r("cascade-verify-off-p99", depth, best_off_p99, "µs"),
        r("cascade-verify-on-p50", depth, best_on_p50, "µs"),
        r("cascade-verify-on-p99", depth, best_on_p99, "µs"),
        r("cascade-verify-on-overhead-p50", depth, overhead(50.0), "%"),
        r("cascade-verify-on-overhead-p95", depth, overhead(95.0), "%"),
        r("cascade-verify-on-overhead-p99", depth, overhead(99.0), "%"),
        r("verify-under-churn-p50", depth, churn_p50, "µs"),
        r(
            "membership-mirror-roster",
            members,
            roster_bytes as f64,
            "bytes",
        ),
        r(
            "membership-mirror-asserts",
            members,
            asserts as f64,
            "asserts",
        ),
        r("membership-mirror-assert-cost", members, assert_best, "ns"),
        r(
            "membership-mirror-messages",
            members,
            messages as f64,
            "messages",
        ),
        host_parallelism("R"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_every_series() {
        let rows = measure(&Scale {
            large_serials: 5_000,
            members: 2_000,
            probes: 500,
            verify_iters: 10,
            delta_batches: 2,
            delta_size: 50,
            asserts: 900,
        });
        assert_eq!(rows.len(), 23);
        // Timing gates are checked only by the release-mode figures run;
        // under a debug build on a shared host they would be flaky. The
        // network tally is deterministic, so that gate holds even here.
        assert_eq!(value_of(&rows, "membership-mirror-messages"), 0.0);
        let zero_or_signed = ["overhead", "messages"];
        for row in &rows {
            let exempt = zero_or_signed.iter().any(|k| row.series.contains(k));
            assert!(row.value > 0.0 || exempt, "{row:?}");
        }
    }
}
