//! Which files each rule family applies to.
//!
//! Scoping is by workspace-relative path, mirroring the trust-boundary
//! map in DESIGN.md §11: L1 guards the code that touches
//! attacker-controlled bytes, L2 the code that interprets restrictions,
//! L3 the code that holds secrets, L4 the crates the figure harnesses
//! replay deterministically, and L5 every crate root.

/// L1 — untrusted-input paths that must never panic: wire decode, the
/// canonical codec, the epoch / revocation / membership artifact decoders
/// (they parse peer-supplied seal, bitmap and digest structures), the
/// verifier's key table (it files keys a peer chose), the whole net
/// service layer, the authz / accounting request handlers that consume
/// wire-decoded values, and the storage decode paths (WAL framing, the
/// stored-artifact envelope, journal records — at recovery these parse
/// whatever bytes survived on disk, and a bit-rotted or tampered log
/// must surface a typed error, not a panic).
pub fn panic_free_applies(rel: &str) -> bool {
    rel.starts_with("crates/wire/src/")
        || rel.starts_with("crates/net/src/")
        || rel == "crates/proxy/src/encode.rs"
        || rel == "crates/proxy/src/epoch.rs"
        || rel == "crates/proxy/src/revocation.rs"
        || rel == "crates/proxy/src/membership.rs"
        || rel == "crates/proxy/src/keytable.rs"
        || rel == "crates/authz/src/server.rs"
        || rel == "crates/authz/src/endserver.rs"
        || rel == "crates/accounting/src/server.rs"
        || rel == "crates/accounting/src/ledger.rs"
        || rel == "crates/accounting/src/check.rs"
        || rel == "crates/accounting/src/clearing.rs"
        || rel == "crates/accounting/src/journal.rs"
        || rel == "crates/storage/src/log.rs"
        || rel == "crates/storage/src/artifacts.rs"
}

/// L2 — verifier modules where a `match` on `Restriction` must not
/// wildcard into an allow.
pub fn fail_closed_applies(rel: &str) -> bool {
    rel.starts_with("crates/proxy/src/")
        || rel.starts_with("crates/authz/src/")
        || rel.starts_with("crates/accounting/src/")
}

/// L3 — crates holding secret key/seal byte material. The `ct` module
/// itself is exempt: it is where the constant-time comparisons live.
pub fn const_time_applies(rel: &str) -> bool {
    (rel.starts_with("crates/crypto/src/") || rel.starts_with("crates/proxy/src/"))
        && rel != "crates/crypto/src/ct.rs"
}

/// L4 — deterministic crates: same inputs, same bytes, same decisions.
/// Clocks are injected `Timestamp` values; ambient time is forbidden.
pub fn determinism_applies(rel: &str) -> bool {
    [
        "crates/proxy/",
        "crates/authz/",
        "crates/accounting/",
        "crates/wire/",
        "crates/netsim/",
        "crates/kerberos/",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

/// L6 — lock-order analysis: the crates whose runtime takes
/// `ShardMap`/`RwLock`/`Mutex` guards on hot paths. Findings are only
/// attributed to files in this set; the call-graph itself is built over
/// the whole workspace.
pub fn lock_order_applies(rel: &str) -> bool {
    rel.starts_with("crates/proxy/src/")
        || rel.starts_with("crates/net/src/")
        || rel.starts_with("crates/accounting/src/")
        || rel.starts_with("crates/storage/src/")
}

/// L7 — durability-ordering: the journaled accounting mutations and the
/// storage engines that back them.
pub fn durability_applies(rel: &str) -> bool {
    rel == "crates/accounting/src/server.rs"
        || rel == "crates/accounting/src/ledger.rs"
        || rel == "crates/accounting/src/journal.rs"
        || rel.starts_with("crates/storage/src/")
}

/// L8 — untrusted-length taint: every decode path where a length or
/// count parsed out of attacker-controlled or disk-recovered bytes can
/// reach an allocation or indexing sink.
pub fn taint_applies(rel: &str) -> bool {
    rel.starts_with("crates/wire/src/")
        || rel.starts_with("crates/storage/src/")
        || rel == "crates/proxy/src/encode.rs"
        || rel == "crates/proxy/src/epoch.rs"
        || rel == "crates/proxy/src/revocation.rs"
        || rel == "crates/proxy/src/membership.rs"
}

/// L5 — crate roots that must carry the hygiene header.
pub fn hygiene_applies(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    let Some(rest) = rel
        .strip_prefix("crates/")
        .or_else(|| rel.strip_prefix("vendor/"))
    else {
        return false;
    };
    // `<crate>/src/lib.rs`, exactly one level deep.
    rest.split('/').collect::<Vec<_>>() == [rest.split('/').next().unwrap_or(""), "src", "lib.rs"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_covers_wire_and_handlers_not_verify() {
        assert!(panic_free_applies("crates/wire/src/frame.rs"));
        assert!(panic_free_applies("crates/net/src/event_loop.rs"));
        assert!(panic_free_applies("crates/proxy/src/encode.rs"));
        assert!(panic_free_applies("crates/proxy/src/epoch.rs"));
        assert!(panic_free_applies("crates/proxy/src/revocation.rs"));
        assert!(panic_free_applies("crates/proxy/src/membership.rs"));
        assert!(panic_free_applies("crates/proxy/src/keytable.rs"));
        assert!(panic_free_applies("crates/accounting/src/server.rs"));
        assert!(panic_free_applies("crates/accounting/src/ledger.rs"));
        assert!(panic_free_applies("crates/accounting/src/check.rs"));
        assert!(panic_free_applies("crates/accounting/src/journal.rs"));
        assert!(panic_free_applies("crates/storage/src/log.rs"));
        assert!(panic_free_applies("crates/storage/src/artifacts.rs"));
        assert!(!panic_free_applies("crates/proxy/src/verify.rs"));
        assert!(!panic_free_applies("crates/crypto/src/sha256.rs"));
        assert!(!panic_free_applies("crates/storage/src/wal.rs"));
    }

    /// A renamed file would otherwise leave its rules' scope, and the
    /// lint would pass because it had stopped looking.
    #[test]
    fn every_file_named_exactly_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rules = include_str!("scope.rs")
            .split("#[cfg(test)]")
            .next()
            .unwrap_or_default();
        let named: Vec<&str> = rules
            .split('"')
            .filter(|s| s.contains('/') && s.ends_with(".rs"))
            .collect();
        assert!(named.contains(&"crates/accounting/src/ledger.rs"));
        for rel in named {
            assert!(root.join(rel).is_file(), "scope.rs names {rel}");
        }
    }

    #[test]
    fn l3_exempts_ct_module() {
        assert!(const_time_applies("crates/crypto/src/keys.rs"));
        assert!(const_time_applies("crates/proxy/src/key.rs"));
        assert!(!const_time_applies("crates/crypto/src/ct.rs"));
        assert!(!const_time_applies("crates/net/src/event_loop.rs"));
    }

    #[test]
    fn l4_covers_deterministic_crates_only() {
        assert!(determinism_applies("crates/netsim/src/lib.rs"));
        assert!(determinism_applies("crates/kerberos/src/kdc.rs"));
        assert!(!determinism_applies("crates/net/src/client.rs"));
        assert!(!determinism_applies("crates/runtime/src/lib.rs"));
    }

    #[test]
    fn l6_covers_locking_runtime_crates() {
        assert!(lock_order_applies("crates/proxy/src/shard.rs"));
        assert!(lock_order_applies("crates/proxy/src/keytable.rs"));
        assert!(lock_order_applies("crates/accounting/src/server.rs"));
        assert!(lock_order_applies("crates/storage/src/wal.rs"));
        assert!(lock_order_applies("crates/net/src/event_loop.rs"));
        assert!(!lock_order_applies("crates/crypto/src/sha256.rs"));
        assert!(!lock_order_applies("crates/lint/src/lib.rs"));
    }

    #[test]
    fn l7_covers_journal_and_storage() {
        assert!(durability_applies("crates/accounting/src/server.rs"));
        assert!(durability_applies("crates/accounting/src/ledger.rs"));
        assert!(durability_applies("crates/accounting/src/journal.rs"));
        assert!(durability_applies("crates/storage/src/wal.rs"));
        assert!(durability_applies("crates/storage/src/mem.rs"));
        assert!(!durability_applies("crates/accounting/src/check.rs"));
        assert!(!durability_applies("crates/proxy/src/shard.rs"));
    }

    #[test]
    fn l8_covers_decode_paths() {
        assert!(taint_applies("crates/wire/src/frame.rs"));
        assert!(taint_applies("crates/storage/src/log.rs"));
        assert!(taint_applies("crates/storage/src/wal.rs"));
        assert!(taint_applies("crates/proxy/src/encode.rs"));
        assert!(taint_applies("crates/proxy/src/epoch.rs"));
        assert!(taint_applies("crates/proxy/src/revocation.rs"));
        assert!(taint_applies("crates/proxy/src/membership.rs"));
        assert!(!taint_applies("crates/proxy/src/verify.rs"));
        assert!(!taint_applies("crates/accounting/src/server.rs"));
    }

    #[test]
    fn l5_matches_crate_roots_only() {
        assert!(hygiene_applies("src/lib.rs"));
        assert!(hygiene_applies("crates/wire/src/lib.rs"));
        assert!(hygiene_applies("vendor/rand/src/lib.rs"));
        assert!(!hygiene_applies("crates/wire/src/frame.rs"));
        assert!(!hygiene_applies("examples/tcp_demo.rs"));
    }
}
