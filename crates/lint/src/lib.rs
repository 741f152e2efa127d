//! `proxy-lint` — a workspace invariant analyzer for the proxy stack.
//!
//! The proxy model's security argument rests on invariants that neither
//! the type system nor clippy expresses: secret byte material must be
//! compared in constant time (L3), the lock-acquisition graph must be
//! acyclic with nothing blocking under a shard guard (L6), every durable
//! entry point of the journal and the storage engines must poison on a
//! storage error (L7), and decoded lengths must be bounded before they
//! size anything (L8).
//! This crate enforces them statically, with a hand-rolled lexer, a
//! light parse layer and a workspace call graph — no `syn`, no
//! dependencies beyond `std`. The token rules (panic-free decode,
//! fail-closed matches, no ambient time, crate-root hygiene) are stock
//! rustc and clippy lints (DESIGN.md §11), and the order of a journaled
//! mutation (validate → stage → apply, nothing fallible after the
//! durable ack) is carried by the accounting crate's types (§15.3).
//!
//! Pipeline: [`walk`] finds the sources, [`lexer`] tokenizes,
//! [`source`] masks test code, and [`rules`] produce [`diag::Finding`]s
//! scoped by [`scope`]. Nothing suppresses a finding: it is fixed in
//! code, or its rule is narrowed together with a fixture that shows the
//! narrowing.

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

/// What a workspace run found.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Every finding; any one fails the run.
    pub findings: Vec<Finding>,
    /// Number of files linted.
    pub files_seen: usize,
}

/// Lints every workspace source under `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let files = walk::walk_workspace(root)?;
    let files_seen = files.len();
    let mut sources = Vec::with_capacity(files.len());
    for f in &files {
        let text = fs::read_to_string(&f.abs_path)?;
        sources.push(SourceFile::new(&f.rel_path, text));
    }
    Ok(WorkspaceReport {
        findings: analyze_sources(sources),
        files_seen,
    })
}
