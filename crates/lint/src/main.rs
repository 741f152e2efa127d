//! The `proxy-lint` command-line interface.
//!
//! ```text
//! proxy-lint --workspace    lint every workspace .rs file
//! proxy-lint FILE...        lint specific files (fixtures ok)
//! ```
//!
//! Exit codes: `0` clean, `1` findings (or a workspace run slower than
//! its 10 s budget), `2` usage or filesystem error.

use std::env;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use proxy_lint::{analyze_source, analyze_workspace, fixture, walk};

/// The most a `--workspace` run may take: the flow passes must not
/// become the slowest CI step.
const BUDGET: Duration = Duration::from_secs(10);

const USAGE: &str = "usage: proxy-lint --workspace\n       proxy-lint FILE...\n";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut files = Vec::new();
    for arg in env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("proxy-lint: unknown flag {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }
    match (workspace, files.is_empty()) {
        (true, true) => run_workspace(),
        (false, false) => run_files(&files),
        _ => {
            eprintln!("proxy-lint: pass --workspace or file paths, not both\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Lints the whole workspace within [`BUDGET`].
fn run_workspace() -> ExitCode {
    let started = Instant::now();
    let cwd = match env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("proxy-lint: cannot read current directory: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match walk::find_workspace_root(&cwd) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("proxy-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("proxy-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "proxy-lint: {} file(s), {} finding(s)",
        report.files_seen,
        report.findings.len()
    );
    let elapsed = started.elapsed();
    if elapsed > BUDGET {
        eprintln!(
            "proxy-lint: analysis took {:.1}s, over the {}s budget",
            elapsed.as_secs_f64(),
            BUDGET.as_secs()
        );
        return ExitCode::from(1);
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Lints explicit files; fixture directives pick the effective path.
fn run_files(files: &[String]) -> ExitCode {
    let mut total = 0usize;
    for file in files {
        let text = match fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("proxy-lint: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let effective = fixture::fixture_directive(&text)
            .map(|d| d.path)
            .unwrap_or_else(|| normalize(file));
        let findings = analyze_source(&effective, text);
        for f in &findings {
            println!("{f}");
        }
        total += findings.len();
    }
    println!("proxy-lint: {} finding(s)", total);
    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Best-effort workspace-relative form of a CLI path argument.
fn normalize(file: &str) -> String {
    let path = Path::new(file);
    let cwd = env::current_dir().ok();
    let abs = if path.is_absolute() {
        path.to_path_buf()
    } else if let Some(cwd) = cwd {
        cwd.join(path)
    } else {
        path.to_path_buf()
    };
    if let Ok(root) = walk::find_workspace_root(&abs) {
        if let Ok(rel) = abs.strip_prefix(&root) {
            return rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
        }
    }
    file.replace('\\', "/")
}
