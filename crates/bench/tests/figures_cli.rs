//! `figures` command line: an argument it does not know is a usage
//! error, never a silent fall-through to the default series.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

#[test]
fn unknown_flags_print_usage_and_exit_2() {
    // `--net` and `--wal-smoke` named retired modes; `--bogus` never
    // existed.
    for flag in ["--net", "--wal-smoke", "--bogus"] {
        let out = figures(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag} must not run any series");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{flag}: {stderr}");
    }
}

#[test]
fn c10k_smoke_flag_still_selects_the_c10k_sweep() {
    let out = figures(&["--c10k-smoke"]);
    // The sweep's own p99 gate is timing-dependent and is asserted in
    // release mode by ci.sh; here only the dispatch is under test.
    assert_ne!(out.status.code(), Some(2), "flag must parse");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[C10K] event-loop"), "{stdout}");
    assert!(!stdout.contains("[F1]"), "default series must not run");
}
