//! The fixture corpus is the analyzer's own regression suite: every rule
//! family has at least one `fail/` snippet it must flag and one `pass/`
//! snippet it must stay silent on — and the live workspace must be clean,
//! with nothing suppressed.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use proxy_lint::diag::Rule;
use proxy_lint::fixture::fixture_directive;
use proxy_lint::{analyze_source, analyze_workspace, walk};

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
fn live_workspace_is_clean() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let report = analyze_workspace(&root).expect("analyze");
    assert!(
        report.findings.is_empty(),
        "workspace has findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_seen > 0, "the walk found no sources");
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
        .current_dir(&root)
        .output()
        .expect("run proxy-lint --workspace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint failed:\n{stdout}"
    );
    assert!(stdout.contains(" 0 finding(s)"), "{stdout}");
}

#[test]
fn cli_removed_flags_are_usage_errors() {
    for args in [
        &["--json", "x"][..],
        &["--audit-allows"],
        &["--workspace", "--explain"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_proxy-lint"))
            .args(args)
            .output()
            .expect("run proxy-lint");
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: proxy-lint --workspace"),
            "{args:?} printed no usage"
        );
    }
}
