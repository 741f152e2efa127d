//! The four rule families clippy cannot express (L3, L6–L8).
//!
//! L3 is a token-pattern rule over a single file. L6–L8 are
//! flow-aware: they query the [`crate::callgraph::Workspace`] model —
//! L7/L8 per file here, L6 as a global pass in
//! [`lock_order::check_global`]. L1, L2, L4 and L5 are stock rustc and
//! clippy lints (DESIGN.md §11).

mod const_time;
pub mod durability;
pub mod lock_order;
pub mod taint;

pub use const_time::check_const_time;
pub use durability::check_durability;
pub use taint::check_taint;

use crate::callgraph::Workspace;
use crate::diag::Finding;
use crate::scope;
use crate::source::SourceFile;

/// Runs every per-file rule whose scope covers `file`, returning all
/// findings. The global lock-order pass runs separately.
#[must_use]
pub fn check_all(file: &SourceFile, ws: &Workspace) -> Vec<Finding> {
    let rel = file.rel_path.as_str();
    let mut findings = Vec::new();
    if scope::const_time_applies(rel) {
        findings.extend(check_const_time(file));
    }
    if scope::durability_applies(rel) {
        findings.extend(check_durability(file, ws));
    }
    if scope::taint_applies(rel) {
        findings.extend(check_taint(file, ws));
    }
    findings.sort_by(|a, b| (a.line, a.rule.code()).cmp(&(b.line, b.rule.code())));
    findings
}
