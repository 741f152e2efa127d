//! L7 — durability-ordering: every durable entry point of the journal
//! and the storage engines poisons on a storage error.
//!
//! **L7c — unpoisoned durable entry point.** `stage`, `wait`,
//! `wait_durable`, `install_snapshot`, and `compact` in the journal and
//! storage engines must latch the poison flag on their error paths. The
//! latch is any identifier containing `poison`. A fallible body
//! (contains `?` or `Err`) passes when one of two things holds:
//!
//! * it **writes** the latch — a `store` or `set` on it, an assignment
//!   to it, or a call to a function of the same file that writes it
//!   (directly or through further such calls), as `WalStorage::publish`
//!   and `Journal::poison` do;
//! * every `?` and `Err` in it sits inside an `if` whose condition
//!   **reads** the latch: the body only reports a failure the latch
//!   already holds, as `MemStorage::wait_durable` does.
//!
//! A body that reads the latch and then fails some other way passes
//! neither. Infallible bodies (the in-memory test double) are exempt by
//! construction.
//!
//! The order of a journaled mutation — validate, stage, then apply, and
//! nothing fallible after the durable ack — was L7a and L7b. The types
//! of `crates/accounting` carry it now (DESIGN.md §15.3): the ledger
//! applies only a `Logged` record, which a stage makes, and
//! `Journal::run` hands a reply back only after its wait.

use std::collections::BTreeSet;

use crate::callgraph::{FnInstance, Workspace};
use crate::diag::{Finding, Rule};
use crate::lexer::{Kind, Token};
use crate::source::{matching_close, SourceFile};

/// Function names that are durable entry points (L7c).
const DURABLE_ENTRY_POINTS: &[&str] = &[
    "stage",
    "wait",
    "wait_durable",
    "install_snapshot",
    "compact",
];

fn is_latch(t: &Token) -> bool {
    t.kind == Kind::Ident && t.text.contains("poison")
}

/// Whether tokens `open..close` write the latch themselves, or call a
/// function named in `writers`.
fn writes_latch(toks: &[Token], open: usize, close: usize, writers: &BTreeSet<&str>) -> bool {
    (open..close).any(|i| {
        let next = |k: usize| toks.get(i + k);
        let t = &toks[i];
        let stores = next(1).is_some_and(|d| d.is_punct("."))
            && next(2).is_some_and(|m| m.is_ident("store") || m.is_ident("set"));
        let assigns = next(1).is_some_and(|e| e.is_punct("="));
        let calls_writer = t.kind == Kind::Ident
            && writers.contains(t.text.as_str())
            && next(1).is_some_and(|p| p.is_punct("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"));
        (is_latch(t) && (stores || assigns)) || calls_writer
    })
}

/// The functions of one file that write the latch, directly or through
/// calls to each other: a fixed point over the file's bodies.
fn latch_writers<'a>(fns: &[&'a FnInstance], toks: &[Token]) -> BTreeSet<&'a str> {
    let mut writers = BTreeSet::new();
    loop {
        let before = writers.len();
        for inst in fns {
            if let Some((open, close)) = inst.def.body() {
                if writes_latch(toks, open + 1, close.min(toks.len()), &writers) {
                    writers.insert(inst.def.name.as_str());
                }
            }
        }
        if writers.len() == before {
            return writers;
        }
    }
}

/// The token ranges of `if` blocks in `open..close` whose condition
/// reads the latch.
fn latch_guarded_blocks(toks: &[Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    for i in open..close {
        if !toks[i].is_ident("if") {
            continue;
        }
        // The block opens at the first `{` outside the condition's own
        // parentheses and brackets.
        let mut depth = 0usize;
        let mut reads = false;
        for (k, t) in toks.iter().enumerate().take(close).skip(i + 1) {
            match t.text.as_str() {
                "(" | "[" if t.kind == Kind::Punct => depth += 1,
                ")" | "]" if t.kind == Kind::Punct => depth = depth.saturating_sub(1),
                "{" if t.kind == Kind::Punct && depth == 0 => {
                    if reads {
                        blocks.push((k, matching_close(toks, k)));
                    }
                    break;
                }
                _ => reads |= is_latch(t),
            }
        }
    }
    blocks
}

/// Runs the durability check over one file of the journal or a storage
/// engine ([`crate::scope::durability_applies`]).
#[must_use]
pub fn check_durability(file: &SourceFile, ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.tokens;
    let fns = ws.fns_in(&file.rel_path);
    let writers = latch_writers(&fns, toks);
    for inst in &fns {
        let Some((open, close)) = inst.def.body() else {
            continue;
        };
        if !DURABLE_ENTRY_POINTS.contains(&inst.def.name.as_str()) {
            continue;
        }
        let close = close.min(toks.len());
        let failures: Vec<usize> = (open + 1..close)
            .filter(|&i| {
                file.is_live(i)
                    && (toks[i].is_punct("?")
                        || (toks[i].kind == Kind::Ident && toks[i].text == "Err"))
            })
            .collect();
        if failures.is_empty() || writes_latch(toks, open + 1, close, &writers) {
            continue;
        }
        let guarded = latch_guarded_blocks(toks, open + 1, close);
        let reported = |i: &usize| guarded.iter().any(|&(b, e)| b < *i && *i < e);
        if failures.iter().all(reported) {
            continue;
        }
        findings.push(Finding {
            rule: Rule::Durability,
            path: file.rel_path.clone(),
            line: inst.def.line,
            message: format!(
                "durable entry point `{}` has a fallible body but never \
                 poisons — a storage error must latch the fail-stop flag, \
                 not leave the journal half-applied",
                inst.def.name
            ),
            snippet: file.line_text(inst.def.line).to_string(),
        });
    }
    findings.sort_by_key(|f| f.line);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpoisoned_durable_entry_point_is_flagged() {
        let files = vec![SourceFile::new(
            "crates/storage/src/wal.rs",
            "struct W { state: Mutex<u8> }\n\
             impl W { fn stage(&self, rec: &[u8]) -> Result<u64, E> {\n\
             let mut st = self.state.lock();\n\
             self.append(rec)?;\n\
             Ok(1) } }"
                .to_string(),
        )];
        let ws = Workspace::build(&files);
        let f = check_durability(&files[0], &ws);
        assert!(
            f.iter().any(|x| x.message.contains("never poisons")),
            "{f:?}"
        );
    }

    #[test]
    fn infallible_entry_point_needs_no_poison() {
        let files = vec![SourceFile::new(
            "crates/storage/src/mem.rs",
            "struct M { inner: Mutex<Vec<u8>> }\n\
             impl M { fn stage(&self, rec: &[u8]) -> u64 {\n\
             let mut g = self.inner.lock();\n\
             g.extend_from_slice(rec); 1 } }"
                .to_string(),
        )];
        let ws = Workspace::build(&files);
        let f = check_durability(&files[0], &ws);
        assert!(f.is_empty(), "{f:?}");
    }

    /// `stage` latches through two calls of its own file; once the
    /// innermost function only reads the flag, nothing writes it.
    #[test]
    fn a_latch_written_through_same_file_calls_counts_and_a_read_does_not() {
        let source = |latch: &str| {
            format!(
                "struct W {{ poisoned: AtomicBool }}\n\
                 impl W {{ fn stage(&self, rec: &[u8]) -> Result<u64, E> {{\n\
                 self.append(rec).map_err(|e| self.fail(e))?;\n\
                 Ok(1) }}\n\
                 fn fail(&self, e: E) -> E {{ self.mark(); e }}\n\
                 fn mark(&self) {{ {latch} }} }}"
            )
        };
        for (latch, flagged) in [
            ("self.poisoned.store(true, Ordering::Release);", false),
            ("let _ = self.poisoned.load(Ordering::Acquire);", true),
        ] {
            let files = vec![SourceFile::new("crates/storage/src/wal.rs", source(latch))];
            let ws = Workspace::build(&files);
            let f = check_durability(&files[0], &ws);
            assert_eq!(!f.is_empty(), flagged, "{latch}: {f:?}");
        }
    }
}
