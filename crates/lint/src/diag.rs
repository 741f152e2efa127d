//! Findings: named, file:line-reported diagnostics.

use std::fmt;

/// The enforced rule families. L1, L2, L4 and L5 are stock rustc and
/// clippy lints (DESIGN.md §11); their codes are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// L3 — constant-time discipline for secret byte material.
    ConstTime,
    /// L6 — lock-order: acyclic lock-acquisition graph, no blocking
    /// operations while a shard guard is live.
    LockOrder,
    /// L7 — durability-ordering: every durable entry point of the
    /// journal and the storage engines poisons on a storage error. (The
    /// order validate → stage → apply is carried by the accounting
    /// crate's types, DESIGN.md §15.3.)
    Durability,
    /// L8 — untrusted-length taint: decoded lengths must pass a bound
    /// check before reaching allocation or indexing sinks.
    Taint,
}

impl Rule {
    /// The short code used in reports and fixture directives (`"L3"`…).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Rule::ConstTime => "L3",
            Rule::LockOrder => "L6",
            Rule::Durability => "L7",
            Rule::Taint => "L8",
        }
    }

    /// The rule's human name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::ConstTime => "const-time",
            Rule::LockOrder => "lock-order",
            Rule::Durability => "durability-ordering",
            Rule::Taint => "untrusted-length-taint",
        }
    }

    /// Parses a rule code (`"L3"`, `"L6"`…`"L8"`).
    #[must_use]
    pub fn from_code(code: &str) -> Option<Rule> {
        match code {
            "L3" => Some(Rule::ConstTime),
            "L6" => Some(Rule::LockOrder),
            "L7" => Some(Rule::Durability),
            "L8" => Some(Rule::Taint),
            _ => None,
        }
    }
}

/// One diagnostic: a rule violated at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule family fired.
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// What went wrong and what to do instead.
    pub message: String,
    /// The trimmed offending source line, printed under the message.
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.path,
            self.line,
            self.rule.code(),
            self.rule.name(),
            self.message
        )?;
        if !self.snippet.is_empty() {
            write!(f, "\n    | {}", self.snippet)?;
        }
        Ok(())
    }
}
