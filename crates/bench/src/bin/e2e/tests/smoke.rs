//! Runs the built binary the way `run.sh` does, at reduced sizes.

use std::process::Command;

fn e2e() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_e2e"));
    // Scratch files (the WAL, span dumps) go under the test's own
    // target directory.
    command.env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"));
    command
}

/// All five workloads, traced and untraced, two slice pairs each: no
/// operation fails and every declared metric is printed (the binary
/// checks both and exits non-zero otherwise).
#[test]
fn smoke_run_passes_on_every_workload() {
    let output = e2e().arg("--smoke").output().expect("run e2e --smoke");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.trim_end().ends_with("smoke ok"), "{stdout}");
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.starts_with("{\"correct\": true"))
            .count(),
        10,
        "one result line per workload and mode:\n{stdout}"
    );
}

/// A run with bad arguments prints no result line and exits non-zero.
#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let output = e2e()
        .args([
            "--workload",
            "fig9_nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run e2e");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
