//! # proxy-bench
//!
//! Shared fixtures and reporting helpers for the `figures` harness
//! (`src/bin/figures.rs`), which regenerates every experiment of
//! `DESIGN.md` §4 — one per figure of the paper (F1–F6) plus the
//! ablations (A1–A5) — and whose results `EXPERIMENTS.md` records.
//!
//! The paper (ICDCS '93) has no quantitative tables — its figures are
//! protocol diagrams — so `figures` reconstructs each figure's protocol,
//! prints the deterministic protocol-shape series (message counts, bytes,
//! simulated latency), and times our implementation's flows with one
//! interleaved min-of-rounds stopwatch.

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod c10k;
pub mod revocation;
pub mod wal;

/// Process-wide allocation accounting for the e2e benchmark's traced
/// run: every allocation in the whole benchmark process — client
/// threads, server workers, event loops — flows through the counting
/// wrapper, so steady-state allocs/op readings cover the entire
/// wire→verify→reply path rather than one thread's view.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING_ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use proxy_crypto::ed25519::SigningKey;
use proxy_crypto::keys::SymmetricKey;
use restricted_proxy::prelude::*;

/// A deterministic RNG for fixtures.
#[must_use]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The standard validity window used across benches.
#[must_use]
pub fn window() -> Validity {
    Validity::new(Timestamp(0), Timestamp(1_000_000))
}

/// A conventional-cryptography world: one grantor sharing a session key
/// with one end-server.
pub struct SymmetricWorld {
    /// The grantor principal.
    pub grantor: PrincipalId,
    /// The end-server principal.
    pub server: PrincipalId,
    /// The shared (session) key.
    pub shared: SymmetricKey,
    /// Grant authority for the grantor.
    pub authority: GrantAuthority,
    /// Verifier for the end-server.
    pub verifier: Verifier<MapResolver>,
}

/// Builds a [`SymmetricWorld`].
#[must_use]
pub fn symmetric_world(seed: u64) -> SymmetricWorld {
    let mut r = rng(seed);
    let shared = SymmetricKey::generate(&mut r);
    let grantor = PrincipalId::new("alice");
    let server = PrincipalId::new("fs");
    let resolver =
        MapResolver::new().with(grantor.clone(), GrantorVerifier::SharedKey(shared.clone()));
    SymmetricWorld {
        grantor: grantor.clone(),
        server: server.clone(),
        shared: shared.clone(),
        authority: GrantAuthority::SharedKey(shared),
        verifier: Verifier::new(server, resolver),
    }
}

/// A public-key world: one grantor with an Ed25519 identity key known to
/// one end-server.
pub struct PublicKeyWorld {
    /// The grantor principal.
    pub grantor: PrincipalId,
    /// The end-server principal.
    pub server: PrincipalId,
    /// Grant authority for the grantor.
    pub authority: GrantAuthority,
    /// Verifier for the end-server.
    pub verifier: Verifier<MapResolver>,
}

/// Builds a [`PublicKeyWorld`].
#[must_use]
pub fn public_key_world(seed: u64) -> PublicKeyWorld {
    let mut r = rng(seed);
    let sk = SigningKey::generate(&mut r);
    let grantor = PrincipalId::new("alice");
    let server = PrincipalId::new("fs");
    let resolver = MapResolver::new().with(
        grantor.clone(),
        GrantorVerifier::PublicKey(sk.verifying_key()),
    );
    PublicKeyWorld {
        grantor: grantor.clone(),
        server: server.clone(),
        authority: GrantAuthority::Keypair(sk),
        verifier: Verifier::new(server, resolver),
    }
}

/// A restriction set with `n` entries, shaped like real capability
/// restrictions (mixed `authorized` and `accept-once`).
#[must_use]
pub fn restrictions(n: usize) -> RestrictionSet {
    let mut set = RestrictionSet::new();
    for i in 0..n {
        match i % 3 {
            // Authorized restrictions are additive (all must allow), so
            // each one also lists the benchmark object.
            0 => set.push(Restriction::Authorized {
                entries: vec![
                    AuthorizedEntry::ops(
                        ObjectName::new("object-0"),
                        vec![Operation::new("read"), Operation::new("write")],
                    ),
                    AuthorizedEntry::any_op(ObjectName::new(format!("object-{i}"))),
                ],
            }),
            1 => set.push(Restriction::AcceptOnce { id: i as u64 }),
            _ => set.push(Restriction::Quota {
                currency: Currency::new(format!("currency-{i}")),
                limit: 1_000,
            }),
        }
    }
    set
}

/// A request context matching [`restrictions`]' first `authorized` entry.
#[must_use]
pub fn matching_ctx(server: &PrincipalId) -> RequestContext {
    RequestContext::new(
        server.clone(),
        Operation::new("read"),
        ObjectName::new("object-0"),
    )
    .at(Timestamp(1))
}

/// Builds a bearer cascade of the given depth in the symmetric world.
///
/// # Panics
///
/// Panics if `depth` is zero.
#[must_use]
pub fn cascade(world: &SymmetricWorld, depth: usize, seed: u64) -> Proxy {
    assert!(depth >= 1);
    let mut r = rng(seed);
    let mut proxy = grant(
        &world.grantor,
        &world.authority,
        RestrictionSet::new(),
        window(),
        0,
        &mut r,
    );
    for i in 1..depth {
        proxy = proxy
            .derive(
                RestrictionSet::new().with(Restriction::AcceptOnce { id: i as u64 }),
                window(),
                i as u64,
                &mut r,
            )
            .expect("window is fixed");
    }
    proxy
}

/// Nearest-rank percentile `pct` (0–100) of an ascending sample: the
/// smallest value with at least `pct` % of the sample at or below it.
/// Zero for an empty sample.
#[must_use]
pub fn percentile<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (pct * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Prints one row of an experiment's series in a stable, greppable format.
pub fn report_row(
    experiment: &str,
    series: &str,
    x: impl std::fmt::Display,
    value: impl std::fmt::Display,
    unit: &str,
) {
    println!("[{experiment}] {series}: x={x} value={value} {unit}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_verifiable_proxies() {
        let world = symmetric_world(1);
        let proxy = cascade(&world, 4, 2);
        assert_eq!(proxy.certs.len(), 4);
        let pres = proxy.present_bearer([1u8; 32], &world.server);
        let mut guard = ReplayCache::new();
        assert!(world
            .verifier
            .verify(&pres, &matching_ctx(&world.server), &mut guard)
            .is_ok());
    }

    #[test]
    fn public_world_verifies_too() {
        let world = public_key_world(3);
        let mut r = rng(4);
        let proxy = grant(
            &world.grantor,
            &world.authority,
            restrictions(4),
            window(),
            1,
            &mut r,
        );
        let pres = proxy.present_bearer([1u8; 32], &world.server);
        let mut guard = ReplayCache::new();
        assert!(world
            .verifier
            .verify(&pres, &matching_ctx(&world.server), &mut guard)
            .is_ok());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 50);
        assert_eq!(percentile(&sample, 99.0), 99);
        assert_eq!(percentile(&sample, 100.0), 100);
        assert_eq!(percentile(&sample, 0.0), 1);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert_eq!(percentile::<f64>(&[], 50.0), 0.0);
    }

    #[test]
    fn restrictions_helper_counts() {
        assert_eq!(restrictions(0).len(), 0);
        assert_eq!(restrictions(7).len(), 7);
    }
}
