//! L7 — durability-ordering: every durable entry point of the journal
//! and the storage engines poisons on a storage error.
//!
//! **L7c — unpoisoned durable entry point.** `stage`, `wait`,
//! `wait_durable`, `install_snapshot`, and `compact` in the journal and
//! storage engines must latch the poison flag on their error paths; a
//! fallible body (contains `?` or `Err`) with no poison reference fails.
//! Infallible bodies (the in-memory test double) are exempt by
//! construction.
//!
//! The order of a journaled mutation — validate, stage, then apply, and
//! nothing fallible after the durable ack — was L7a and L7b. The types
//! of `crates/accounting` carry it now (DESIGN.md §15.3): the ledger
//! applies only a `Logged` record, which a stage makes, and
//! `Journal::run` hands a reply back only after its wait.

use crate::callgraph::Workspace;
use crate::diag::{Finding, Rule};
use crate::lexer::Kind;
use crate::source::SourceFile;

/// Function names that are durable entry points (L7c).
const DURABLE_ENTRY_POINTS: &[&str] = &[
    "stage",
    "wait",
    "wait_durable",
    "install_snapshot",
    "compact",
];

/// Runs the durability check over one file of the journal or a storage
/// engine ([`crate::scope::durability_applies`]).
#[must_use]
pub fn check_durability(file: &SourceFile, ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.tokens;
    for inst in ws.fns_in(&file.rel_path) {
        let Some((open, close)) = inst.def.body() else {
            continue;
        };
        if !DURABLE_ENTRY_POINTS.contains(&inst.def.name.as_str()) {
            continue;
        }
        let close = close.min(toks.len());
        let fallible = (open + 1..close).any(|i| {
            file.is_live(i)
                && (toks[i].is_punct("?") || (toks[i].kind == Kind::Ident && toks[i].text == "Err"))
        });
        let poisons = (open + 1..close)
            .any(|i| toks[i].kind == Kind::Ident && toks[i].text.contains("poison"));
        if fallible && !poisons {
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
}
