//! The `proxy-lint` command-line interface.
//!
//! ```text
//! proxy-lint --workspace [--explain] [--json PATH] [--budget-secs N]
//!                                      lint every workspace .rs file
//! proxy-lint --audit-allows            report allow-entry health; fail on rot
//! proxy-lint [--explain] FILE...       lint specific files (fixtures ok)
//! ```
//!
//! Exit codes: `0` clean, `1` findings (or stale allowlist entries, or
//! a blown time budget), `2` usage / filesystem / allowlist-parse error.

use std::env;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use proxy_lint::diag::{Finding, Rule};
use proxy_lint::{analyze_source, analyze_workspace, fixture, walk, WorkspaceReport};

/// What each rule family enforces, shown under `--explain`.
const RULE_NOTES: &[(Rule, &str)] = &[
    (
        Rule::ConstTime,
        "secret key/seal bytes are compared through ct_eq, never ==, so timing does \
         not leak how many bytes matched",
    ),
    (
        Rule::LockOrder,
        "the workspace lock-acquisition graph (ShardMap stripes, RwLock/Mutex guards) \
         must be acyclic, and nothing may block — fsync, socket write, wait — while a \
         shard guard is live",
    ),
    (
        Rule::Durability,
        "journaled mutations follow validate -> stage -> wait-durable -> infallible \
         apply: no shard write before the record is staged, no fallible statement \
         after the durable ack, and every durable entry point poisons on error",
    ),
    (
        Rule::Taint,
        "lengths decoded from wire/WAL/artifact bytes must pass a bound check before \
         reaching an allocation or indexing sink (the flow-sensitive side of clippy's \
         indexing_slicing)",
    ),
];

fn main() -> ExitCode {
    let mut explain = false;
    let mut workspace = false;
    let mut audit_allows = false;
    let mut json_path: Option<String> = None;
    let mut budget_secs: Option<u64> = None;
    let mut files = Vec::new();
    let args: Vec<String> = env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--explain" => explain = true,
            "--workspace" => workspace = true,
            "--audit-allows" => audit_allows = true,
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => json_path = Some(p.clone()),
                    None => {
                        eprintln!("proxy-lint: --json needs a path\n{}", usage());
                        return ExitCode::from(2);
                    }
                }
            }
            "--budget-secs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => budget_secs = Some(n),
                    None => {
                        eprintln!("proxy-lint: --budget-secs needs an integer\n{}", usage());
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("proxy-lint: unknown flag {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    let started = Instant::now();
    let code = match (workspace || audit_allows, files.is_empty()) {
        (true, true) => run_workspace(explain, audit_allows, json_path.as_deref()),
        (false, false) => run_files(&files, explain),
        _ => {
            eprintln!(
                "proxy-lint: pass --workspace/--audit-allows or file paths, not both\n{}",
                usage()
            );
            ExitCode::from(2)
        }
    };
    if let Some(budget) = budget_secs {
        let elapsed = started.elapsed();
        if elapsed.as_secs() >= budget {
            eprintln!(
                "proxy-lint: analysis took {:.1}s, over the {budget}s budget — the \
                 deeper passes must not become the slowest CI step",
                elapsed.as_secs_f64()
            );
            return ExitCode::from(1);
        }
    }
    code
}

fn usage() -> String {
    "usage: proxy-lint --workspace [--explain] [--json PATH] [--budget-secs N]\n       \
     proxy-lint --audit-allows\n       \
     proxy-lint [--explain] FILE...\n"
        .to_string()
}

/// Lints the whole workspace against the checked-in allowlist.
fn run_workspace(explain: bool, audit_allows: bool, json_path: Option<&str>) -> ExitCode {
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
            eprintln!("proxy-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json_path {
        if let Err(e) = fs::write(path, json_report(&report)) {
            eprintln!("proxy-lint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if audit_allows {
        return run_audit(&report);
    }

    if explain {
        println!("proxy-lint rule families:");
        for (rule, note) in RULE_NOTES {
            println!("  [{}/{}] {}", rule.code(), rule.name(), note);
        }
        println!();
        if report.suppressed.is_empty() {
            println!("no findings are suppressed.");
        } else {
            println!("suppressed findings (justified in lint-allow.toml):");
            for (f, entry) in &report.suppressed {
                println!(
                    "  {}:{}: [{}/{}] {}",
                    f.path,
                    f.line,
                    f.rule.code(),
                    f.rule.name(),
                    f.message
                );
                println!("      allowed: {}", entry.justification);
            }
        }
        println!();
    }

    for f in &report.findings {
        println!("{f}");
    }
    for entry in &report.stale {
        println!(
            "lint-allow.toml: stale entry matches no finding: {entry} ({})",
            entry.justification
        );
    }
    println!(
        "proxy-lint: {} file(s), {} finding(s), {} suppressed, {} stale allow entr{}",
        report.files_seen,
        report.findings.len(),
        report.suppressed.len(),
        report.stale.len(),
        if report.stale.len() == 1 { "y" } else { "ies" },
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Stale-allow rot check: every `lint-allow.toml` entry must still
/// suppress at least one finding, or the list is accumulating dead
/// exemptions that would silently cover future regressions.
fn run_audit(report: &WorkspaceReport) -> ExitCode {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for (_, entry) in &report.suppressed {
        let key = entry.to_string();
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    println!("proxy-lint allow-entry audit:");
    for (key, n) in &counts {
        println!("  {n:3}x {key}");
    }
    for entry in &report.stale {
        println!("    0x {entry}  <- STALE ({})", entry.justification);
    }
    println!(
        "proxy-lint: {} live entr{}, {} stale",
        counts.len(),
        if counts.len() == 1 { "y" } else { "ies" },
        report.stale.len()
    );
    if report.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Renders the machine-readable report: every finding (live, suppressed,
/// stale-entry) with file/line/rule, no external JSON crate.
fn json_report(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    let mut first = true;
    let push = |out: &mut String, f: &Finding, suppressed: bool, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"name\": \"{}\", \
             \"suppressed\": {}, \"message\": \"{}\"}}",
            json_escape(&f.path),
            f.line,
            f.rule.code(),
            f.rule.name(),
            suppressed,
            json_escape(&f.message),
        ));
    };
    for f in &report.findings {
        push(&mut out, f, false, &mut first);
    }
    for (f, _) in &report.suppressed {
        push(&mut out, f, true, &mut first);
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"stale_allow_entries\": {},\n  \"files\": {},\n  \"clean\": {}\n}}\n",
        report.stale.len(),
        report.files_seen,
        report.is_clean()
    ));
    out
}

/// Minimal JSON string escaping for paths and messages.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lints explicit files; fixture directives pick the effective path,
/// and the workspace allowlist is not applied (fixtures must stand on
/// their own).
fn run_files(files: &[String], explain: bool) -> ExitCode {
    if explain {
        println!("proxy-lint rule families:");
        for (rule, note) in RULE_NOTES {
            println!("  [{}/{}] {}", rule.code(), rule.name(), note);
        }
        println!();
    }
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
