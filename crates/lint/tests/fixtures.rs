//! The fixture corpus is the analyzer's own regression suite: every rule
//! family has at least one `fail/` snippet it must flag and one `pass/`
//! snippet it must stay silent on — and the live workspace must be clean
//! modulo the justified allowlist.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use proxy_lint::diag::Rule;
use proxy_lint::fixture::fixture_directive;
use proxy_lint::{analyze_source, analyze_workspace, load_allowlist, walk};

fn fixtures_dir(polarity: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(polarity)
}

fn fixture_files(polarity: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(fixtures_dir(polarity))
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no {polarity} fixtures found");
    files
}

#[test]
fn every_rule_family_has_both_polarities() {
    for polarity in ["pass", "fail"] {
        let mut rules = BTreeSet::new();
        for path in fixture_files(polarity) {
            let text = fs::read_to_string(&path).expect("read fixture");
            let d = fixture_directive(&text)
                .unwrap_or_else(|| panic!("{} lacks a lint-fixture directive", path.display()));
            rules.insert(d.rule.code());
        }
        for rule in [
            Rule::ConstTime,
            Rule::LockOrder,
            Rule::Durability,
            Rule::Taint,
        ] {
            assert!(
                rules.contains(rule.code()),
                "no {polarity} fixture exercises {}",
                rule.code()
            );
        }
    }
}

#[test]
fn flow_aware_families_have_deep_coverage() {
    // The flow-aware families (L6/L7/L8) lean on workspace-level
    // inference, so each needs several distinct shapes per polarity to
    // pin the analysis down — not just one smoke fixture.
    for polarity in ["pass", "fail"] {
        for rule in [Rule::LockOrder, Rule::Durability, Rule::Taint] {
            let n = fixture_files(polarity)
                .iter()
                .filter(|p| {
                    let text = fs::read_to_string(p).expect("read fixture");
                    fixture_directive(&text).is_some_and(|d| d.rule == rule)
                })
                .count();
            assert!(
                n >= 3,
                "only {n} {polarity} fixture(s) exercise {}; need at least 3",
                rule.code()
            );
        }
    }
}

#[test]
fn fail_fixtures_trip_exactly_their_rule() {
    for path in fixture_files("fail") {
        let text = fs::read_to_string(&path).expect("read fixture");
        let d = fixture_directive(&text).expect("directive");
        let findings = analyze_source(&d.path, text);
        assert!(
            !findings.is_empty(),
            "{} produced no findings",
            path.display()
        );
        for f in &findings {
            assert_eq!(
                f.rule,
                d.rule,
                "{} tripped {} at line {}, expected only {}",
                path.display(),
                f.rule.code(),
                f.line,
                d.rule.code()
            );
        }
    }
}

#[test]
fn pass_fixtures_are_silent() {
    for path in fixture_files("pass") {
        let text = fs::read_to_string(&path).expect("read fixture");
        let d = fixture_directive(&text).expect("directive");
        let findings = analyze_source(&d.path, text);
        assert!(
            findings.is_empty(),
            "{} should be clean but produced: {:?}",
            path.display(),
            findings
        );
    }
}

#[test]
fn live_workspace_is_clean_modulo_justified_allowlist() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let report = analyze_workspace(&root).expect("analyze");
    assert!(
        report.findings.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale.is_empty(),
        "stale allowlist entries: {:?}",
        report.stale
    );
    // Every suppression used by the clean run carries a justification
    // (the parser enforces non-empty, this pins the policy end to end).
    for (f, entry) in &report.suppressed {
        assert!(
            !entry.justification.trim().is_empty(),
            "unjustified suppression for {f}"
        );
    }
}

#[test]
fn allowlist_parses_and_every_entry_is_pinned() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let entries = load_allowlist(&root).expect("lint-allow.toml parses");
    assert!(!entries.is_empty(), "expected a checked-in allowlist");
    for e in &entries {
        assert!(!e.pattern.is_empty(), "entry for {} is unpinned", e.path);
    }
}

#[test]
fn cli_exit_codes_match_fixture_polarity() {
    let bin = env!("CARGO_BIN_EXE_proxy-lint");
    for path in fixture_files("fail") {
        let status = Command::new(bin)
            .arg(&path)
            .output()
            .expect("run proxy-lint")
            .status;
        assert_eq!(status.code(), Some(1), "{} should exit 1", path.display());
    }
    for path in fixture_files("pass") {
        let status = Command::new(bin)
            .arg(&path)
            .output()
            .expect("run proxy-lint")
            .status;
        assert_eq!(status.code(), Some(0), "{} should exit 0", path.display());
    }
}

#[test]
fn cli_workspace_run_is_clean() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let out = Command::new(env!("CARGO_BIN_EXE_proxy-lint"))
        .arg("--workspace")
        .arg("--explain")
        .current_dir(&root)
        .output()
        .expect("run proxy-lint --workspace");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint failed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // --explain wires the allowlist justifications into the output.
    assert!(stdout.contains("lint-allow.toml"));
    assert!(stdout.contains("allowed:"));
}

#[test]
fn cli_json_report_is_well_formed() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let json_path = std::env::temp_dir().join("proxy-lint-fixture-test.json");
    let out = Command::new(env!("CARGO_BIN_EXE_proxy-lint"))
        .arg("--workspace")
        .arg("--json")
        .arg(&json_path)
        .current_dir(&root)
        .output()
        .expect("run proxy-lint --workspace --json");
    assert_eq!(out.status.code(), Some(0));
    let json = fs::read_to_string(&json_path).expect("json artifact written");
    let _ = fs::remove_file(&json_path);
    // No JSON crate in the workspace, so pin the shape structurally: the
    // document must carry the report fields and a suppressed finding for
    // every allowlist hit of the clean run.
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    for field in [
        "\"findings\"",
        "\"stale_allow_entries\"",
        "\"files\"",
        "\"clean\": true",
        "\"suppressed\": true",
    ] {
        assert!(json.contains(field), "json report lacks {field}:\n{json}");
    }
}

#[test]
fn cli_audit_allows_reports_live_entries() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let out = Command::new(env!("CARGO_BIN_EXE_proxy-lint"))
        .arg("--audit-allows")
        .current_dir(&root)
        .output()
        .expect("run proxy-lint --audit-allows");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "allowlist has stale entries:\n{stdout}"
    );
    assert!(stdout.contains("allow-entry audit"));
    assert!(stdout.contains("0 stale"), "{stdout}");
}
