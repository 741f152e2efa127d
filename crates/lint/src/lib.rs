//! `proxy-lint` — a workspace invariant analyzer for the proxy stack.
//!
//! The proxy model's security argument rests on invariants that neither
//! the type system nor clippy expresses: secret byte material must be
//! compared in constant time (L3), the lock-acquisition graph must be
//! acyclic with nothing blocking under a shard guard (L6), journaled
//! mutations must follow validate → stage → wait-durable → apply (L7),
//! and decoded lengths must be bounded before they size anything (L8).
//! This crate enforces them statically, with a hand-rolled lexer, a
//! light parse layer and a workspace call graph — no `syn`, no
//! dependencies beyond `std`. The token rules (panic-free decode,
//! fail-closed matches, no ambient time, crate-root hygiene) are stock
//! rustc and clippy lints (DESIGN.md §11).
//!
//! Pipeline: [`walk`] finds the sources, [`lexer`] tokenizes,
//! [`source`] masks test code, [`rules`] produce [`diag::Finding`]s
//! scoped by [`scope`], and [`allow`] applies the checked-in,
//! justification-bearing suppression list.

pub mod allow;
pub mod callgraph;
pub mod diag;
pub mod fixture;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scope;
pub mod source;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use allow::{AllowEntry, AllowParseError};
use diag::Finding;
use source::SourceFile;

/// Lints one file's text as if it lived at `rel_path` in the workspace.
/// The flow-aware families see only this file's declarations, so a
/// fixture must be self-contained.
#[must_use]
pub fn analyze_source(rel_path: &str, text: String) -> Vec<Finding> {
    analyze_sources(vec![SourceFile::new(rel_path, text)])
}

/// Lints a set of sources as one workspace: builds the call-graph model
/// once, then runs per-file rules plus the global lock-order pass.
#[must_use]
pub fn analyze_sources(files: Vec<SourceFile>) -> Vec<Finding> {
    let ws = callgraph::Workspace::build(&files);
    let mut all = Vec::new();
    for f in &files {
        all.extend(rules::check_all(f, &ws));
    }
    all.extend(rules::lock_order::check_global(&files, &ws));
    all.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.code()).cmp(&(b.path.as_str(), b.line, b.rule.code()))
    });
    all
}

/// Everything a workspace run produced, before exit-code policy.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Findings not covered by any allowlist entry — these fail the run.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an allowlist entry, with the entry.
    pub suppressed: Vec<(Finding, AllowEntry)>,
    /// Allowlist entries that matched nothing — stale, these also fail.
    pub stale: Vec<AllowEntry>,
    /// Number of files linted.
    pub files_seen: usize,
}

impl WorkspaceReport {
    /// Whether the run is clean: no live findings and no stale entries.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale.is_empty()
    }
}

/// A failure to run the analyzer at all (as opposed to findings).
#[derive(Debug)]
pub enum LintError {
    /// Filesystem error reading the tree.
    Io(io::Error),
    /// `lint-allow.toml` did not parse.
    Allow(AllowParseError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(e) => write!(out, "io error: {e}"),
            LintError::Allow(e) => write!(out, "{e}"),
        }
    }
}

impl From<io::Error> for LintError {
    fn from(e: io::Error) -> Self {
        LintError::Io(e)
    }
}

/// Lints every workspace source under `root`, applying the allowlist at
/// `root/lint-allow.toml` when present.
pub fn analyze_workspace(root: &Path) -> Result<WorkspaceReport, LintError> {
    let entries = load_allowlist(root)?;
    let files = walk::walk_workspace(root)?;
    let files_seen = files.len();
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let text = fs::read_to_string(&f.abs_path)?;
        sources.push(SourceFile::new(&f.rel_path, text));
    }
    let all = analyze_sources(sources);
    let (findings, suppressed, stale) = allow::apply_allowlist(all, &entries);
    Ok(WorkspaceReport {
        findings,
        suppressed: suppressed
            .into_iter()
            .map(|(f, e)| (f, e.clone()))
            .collect(),
        stale: stale.into_iter().cloned().collect(),
        files_seen,
    })
}

/// Reads and parses `lint-allow.toml` under `root`; absent file means
/// an empty list.
pub fn load_allowlist(root: &Path) -> Result<Vec<AllowEntry>, LintError> {
    let path = root.join("lint-allow.toml");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(path)?;
    allow::parse_allow_file(&text).map_err(LintError::Allow)
}
