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

/// The counting allocator's counters (`proxy_runtime::alloc_count`),
/// read by the e2e benchmark's traced run.
#[cfg(feature = "alloc-count")]
pub use proxy_runtime::alloc_count;
pub mod c10k;
pub mod journal;
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

/// One measured number of a gated harness (`c10k`, `revocation`,
/// `wal`): what [`report_row`] prints and what [`write_json`] persists.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// The experiment's tag (`C10K`, `R`, `W`).
    pub experiment: &'static str,
    /// The series within it.
    pub series: &'static str,
    /// The series' parameter (connections, serials, writers, …).
    pub x: u64,
    /// The measured value, in `unit`.
    pub value: f64,
    /// The value's unit.
    pub unit: &'static str,
}

impl Row {
    /// A row of `experiment`'s `series` at `x`.
    #[must_use]
    pub fn new(
        experiment: &'static str,
        series: &'static str,
        x: u64,
        value: f64,
        unit: &'static str,
    ) -> Self {
        Self {
            experiment,
            series,
            x,
            value,
            unit,
        }
    }

    /// Prints the row through [`report_row`].
    pub fn print(&self) {
        report_row(
            self.experiment,
            self.series,
            self.x,
            number(self.value),
            self.unit,
        );
    }
}

/// The value of the first row of `series`.
///
/// # Panics
///
/// If no row has that series.
#[must_use]
pub fn value_of(rows: &[Row], series: &str) -> f64 {
    rows.iter()
        .find(|row| row.series == series)
        .unwrap_or_else(|| panic!("no {series} row"))
        .value
}

/// The row every gated harness ends with: the hardware threads the host
/// exposes, context for whoever reads its numbers.
#[must_use]
pub fn host_parallelism(experiment: &'static str) -> Row {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    Row::new(experiment, "host-parallelism", 1, cpus as f64, "cpus")
}

/// A value as rows print and persist it: a whole number without a
/// fraction, any other to two places.
fn number(value: f64) -> String {
    if value.fract() == 0.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.2}")
    }
}

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::from('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The rows as one JSON object, `{"rows": [...]}`, one row a line. A
/// non-finite value (a ratio over a zero) is `null`.
fn rows_json(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|row| {
            let value = if row.value.is_finite() {
                number(row.value)
            } else {
                "null".to_string()
            };
            format!(
                "    {{\"experiment\": {}, \"series\": {}, \"x\": {}, \"value\": {value}, \"unit\": {}}}",
                json_string(row.experiment),
                json_string(row.series),
                row.x,
                json_string(row.unit),
            )
        })
        .collect();
    format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", lines.join(",\n"))
}

/// Persists `rows` as JSON at `path` (`BENCH_*.json`).
///
/// # Errors
///
/// The error of writing the file.
pub fn write_json(path: impl AsRef<std::path::Path>, rows: &[Row]) -> std::io::Result<()> {
    std::fs::write(path, rows_json(rows))
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

    /// Whether `text` is one JSON value and nothing else (RFC 8259's
    /// grammar, without checking that a `\u` escape names a character).
    fn is_json(text: &str) -> bool {
        fn ws(b: &[u8], i: &mut usize) {
            while b.get(*i).is_some_and(|c| b" \t\n\r".contains(c)) {
                *i += 1;
            }
        }
        fn digits(b: &[u8], i: &mut usize) -> bool {
            let start = *i;
            while b.get(*i).is_some_and(u8::is_ascii_digit) {
                *i += 1;
            }
            *i > start
        }
        fn eat(b: &[u8], i: &mut usize, c: u8) -> bool {
            let hit = b.get(*i) == Some(&c);
            *i += usize::from(hit);
            hit
        }
        fn string(b: &[u8], i: &mut usize) -> bool {
            if !eat(b, i, b'"') {
                return false;
            }
            loop {
                match b.get(*i) {
                    Some(b'"') => {
                        *i += 1;
                        return true;
                    }
                    Some(b'\\') => *i += 2,
                    Some(&c) if c >= b' ' => *i += 1,
                    _ => return false,
                }
            }
        }
        fn value(b: &[u8], i: &mut usize) -> bool {
            ws(b, i);
            let ok = match b.get(*i) {
                Some(b'{') => {
                    *i += 1;
                    ws(b, i);
                    eat(b, i, b'}')
                        || loop {
                            ws(b, i);
                            if !(string(b, i)
                                && {
                                    ws(b, i);
                                    eat(b, i, b':')
                                }
                                && value(b, i))
                            {
                                break false;
                            }
                            if eat(b, i, b'}') {
                                break true;
                            }
                            if !eat(b, i, b',') {
                                break false;
                            }
                        }
                }
                Some(b'[') => {
                    *i += 1;
                    ws(b, i);
                    eat(b, i, b']')
                        || loop {
                            if !value(b, i) {
                                break false;
                            }
                            if eat(b, i, b']') {
                                break true;
                            }
                            if !eat(b, i, b',') {
                                break false;
                            }
                        }
                }
                Some(b'"') => string(b, i),
                Some(b'n') if b[*i..].starts_with(b"null") => {
                    *i += 4;
                    true
                }
                Some(_) => {
                    eat(b, i, b'-');
                    let int = eat(b, i, b'0') || digits(b, i);
                    let frac = !eat(b, i, b'.') || digits(b, i);
                    int && frac
                }
                None => false,
            };
            ws(b, i);
            ok
        }
        let b = text.as_bytes();
        let mut i = 0;
        value(b, &mut i) && i == b.len()
    }

    #[test]
    fn the_json_checker_refuses_what_is_not_json() {
        assert!(is_json(r#"{"a": [1, -2.5, null, "x\"y"], "b": {}}"#));
        for bad in [
            "",
            "{",
            r#"{"a": 1,}"#,
            "[1 2]",
            "NaN",
            "inf",
            "01",
            "1.",
            "{}x",
        ] {
            assert!(!is_json(bad), "{bad}");
        }
    }

    #[test]
    fn rows_persist_as_valid_json_with_null_for_non_finite_values() {
        let rows = [
            Row::new("W", "append-mem", 16, 2_744_416.0, "ops/s"),
            Row::new("C10K", "event-loop-p99-ratio", 512, f64::INFINITY, "x"),
            Row::new("R", "odd \"name\"\\\n", 1, -0.125, "µs"),
            Row::new("R", "nan", 1, f64::NAN, ""),
        ];
        let json = rows_json(&rows);
        assert!(is_json(&json), "{json}");
        assert!(json.starts_with("{\n  \"rows\": ["), "{json}");
        assert!(
            json.contains(r#""series": "append-mem", "x": 16, "value": 2744416, "unit": "ops/s""#)
        );
        assert!(json.contains(r#""x": 512, "value": null,"#), "{json}");
        assert!(json.contains(r#""value": -0.12"#) || json.contains(r#""value": -0.13"#));
        assert!(
            json.contains(r#""x": 1, "value": null, "unit": """#),
            "{json}"
        );
        assert_eq!(json.matches("\"experiment\"").count(), rows.len());
        assert!(is_json(&rows_json(&[])));
    }

    #[test]
    fn rows_print_whole_numbers_bare_and_the_rest_to_two_places() {
        assert_eq!(number(20_000.0), "20000");
        assert_eq!(number(1.234_5), "1.23");
        assert_eq!(number(f64::INFINITY), "inf");
        let rows = [
            Row::new("R", "a", 1, 2.0, "ns"),
            Row::new("R", "b", 1, 3.0, "ns"),
        ];
        assert_eq!(value_of(&rows, "b"), 3.0);
    }

    #[test]
    fn restrictions_helper_counts() {
        assert_eq!(restrictions(0).len(), 0);
        assert_eq!(restrictions(7).len(), 7);
    }
}
