//! Which files each rule family applies to.
//!
//! Scoping is by workspace-relative path, mirroring the trust-boundary
//! map in DESIGN.md §11: L3 guards the code that holds secrets, L6 the
//! crates that lock on hot paths, L7 the journal and its storage, L8
//! the decode paths. (L1, L2, L4 and L5 are scoped by lint attributes
//! on the crate roots and files they guard; the journal's order is
//! carried by the accounting crate's types, which need no scope.)

/// L3 — crates holding secret key/seal byte material. The `ct` module
/// itself is exempt: it is where the constant-time comparisons live.
pub fn const_time_applies(rel: &str) -> bool {
    (rel.starts_with("crates/crypto/src/") || rel.starts_with("crates/proxy/src/"))
        && rel != "crates/crypto/src/ct.rs"
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

/// L7 — durability-ordering: the journal and the storage engines that
/// back it, whose durable entry points must poison.
pub fn durability_applies(rel: &str) -> bool {
    rel == "crates/accounting/src/journal.rs" || rel.starts_with("crates/storage/src/")
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(named.contains(&"crates/accounting/src/journal.rs"));
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
        assert!(durability_applies("crates/accounting/src/journal.rs"));
        assert!(durability_applies("crates/storage/src/wal.rs"));
        assert!(durability_applies("crates/storage/src/mem.rs"));
        assert!(!durability_applies("crates/accounting/src/server.rs"));
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
}
