//! The checked-in suppression list, `lint-allow.toml`.
//!
//! Findings may be suppressed only through this file, and every entry
//! must carry a human-readable justification — a suppression without a
//! recorded reason is itself an error. The format is a small TOML
//! subset, parsed here without dependencies:
//!
//! ```toml
//! [[allow]]
//! rule = "L7"
//! path = "crates/storage/src/mem.rs"
//! pattern = "fn stage("           # substring of the offending line
//! justification = "the crash-injection double keeps serving by design"
//! ```
//!
//! Each entry needs `rule`, `path`, `pattern` (a substring of the
//! flagged line) and `justification`. Entries that match no finding are
//! reported as stale and fail the run, so the list can only shrink as
//! real findings are fixed.

use crate::diag::{Finding, Rule};
use std::fmt;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule code the suppression applies to.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub path: String,
    /// Substring the flagged line must contain.
    pub pattern: String,
    /// Why this finding is acceptable. Required, surfaced by `--explain`.
    pub justification: String,
}

impl AllowEntry {
    /// Whether this entry suppresses `f`.
    #[must_use]
    pub fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule && self.path == f.path && f.snippet.contains(self.pattern.as_str())
    }
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            out,
            "{} {} pattern={:?}",
            self.rule.code(),
            self.path,
            self.pattern
        )
    }
}

/// A malformed `lint-allow.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowParseError {
    /// 1-based line in the allow file.
    pub line: u32,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for AllowParseError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(out, "lint-allow.toml:{}: {}", self.line, self.message)
    }
}

/// Parses the TOML subset described in the module docs.
pub fn parse_allow_file(text: &str) -> Result<Vec<AllowEntry>, AllowParseError> {
    let mut entries = Vec::new();
    let mut current: Option<PartialEntry> = None;
    let mut current_line = 0u32;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = u32::try_from(idx).unwrap_or(u32::MAX).saturating_add(1);
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(partial) = current.take() {
                entries.push(partial.finish(current_line)?);
            }
            current = Some(PartialEntry::default());
            current_line = lineno;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(AllowParseError {
                line: lineno,
                message: format!("expected `key = value` or `[[allow]]`, got {line:?}"),
            });
        };
        let Some(entry) = current.as_mut() else {
            return Err(AllowParseError {
                line: lineno,
                message: "key outside any [[allow]] table".to_string(),
            });
        };
        entry.set(key.trim(), value.trim(), lineno)?;
    }
    if let Some(partial) = current.take() {
        entries.push(partial.finish(current_line)?);
    }
    Ok(entries)
}

/// Splits `findings` into (kept, suppressed-with-entry) and returns the
/// stale entries that matched nothing.
#[must_use]
pub fn apply_allowlist(
    findings: Vec<Finding>,
    entries: &[AllowEntry],
) -> (Vec<Finding>, Vec<(Finding, &AllowEntry)>, Vec<&AllowEntry>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; entries.len()];
    for f in findings {
        match entries.iter().position(|e| e.matches(&f)) {
            Some(i) => {
                used[i] = true;
                suppressed.push((f, &entries[i]));
            }
            None => kept.push(f),
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(e, _)| e)
        .collect();
    (kept, suppressed, stale)
}

/// An `[[allow]]` table mid-parse.
#[derive(Default)]
struct PartialEntry {
    rule: Option<Rule>,
    path: Option<String>,
    pattern: Option<String>,
    justification: Option<String>,
}

impl PartialEntry {
    fn set(&mut self, key: &str, value: &str, lineno: u32) -> Result<(), AllowParseError> {
        let err = |message: String| AllowParseError {
            line: lineno,
            message,
        };
        match key {
            "rule" => {
                let code = unquote(value).ok_or_else(|| err("rule must be a string".into()))?;
                self.rule = Some(
                    Rule::from_code(code)
                        .ok_or_else(|| err(format!("unknown rule code {code:?}")))?,
                );
            }
            "path" => {
                self.path = Some(
                    unquote(value)
                        .ok_or_else(|| err("path must be a string".into()))?
                        .to_string(),
                );
            }
            "pattern" => {
                self.pattern = Some(
                    unquote(value)
                        .ok_or_else(|| err("pattern must be a string".into()))?
                        .to_string(),
                );
            }
            "justification" => {
                let j =
                    unquote(value).ok_or_else(|| err("justification must be a string".into()))?;
                if j.trim().is_empty() {
                    return Err(err("justification must not be empty".into()));
                }
                self.justification = Some(j.to_string());
            }
            other => return Err(err(format!("unknown key {other:?}"))),
        }
        Ok(())
    }

    fn finish(self, table_line: u32) -> Result<AllowEntry, AllowParseError> {
        let err = |message: &str| AllowParseError {
            line: table_line,
            message: message.to_string(),
        };
        Ok(AllowEntry {
            rule: self.rule.ok_or_else(|| err("entry is missing `rule`"))?,
            path: self.path.ok_or_else(|| err("entry is missing `path`"))?,
            pattern: self
                .pattern
                .ok_or_else(|| err("entry must pin a `pattern`"))?,
            justification: self
                .justification
                .ok_or_else(|| err("entry is missing `justification`"))?,
        })
    }
}

/// Strips a double-quoted string; no escape processing beyond `\"`.
fn unquote(value: &str) -> Option<&str> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .filter(|v| !v.contains('"'))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# the crash-injection double keeps serving after an injected crash
[[allow]]
rule = "L7"
path = "crates/storage/src/mem.rs"
pattern = "fn stage("
justification = "test double: crash simulation without fail-stop"

[[allow]]
rule = "L6"
path = "crates/netsim/src/lib.rs"
pattern = "rng.lock()"
justification = "per-declaration lock identity, acyclic in practice"
"#;

    fn finding(rule: Rule, path: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn parses_entries() {
        let entries = parse_allow_file(SAMPLE).expect("parse");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, Rule::Durability);
        assert_eq!(entries[0].pattern, "fn stage(");
        assert_eq!(entries[1].rule, Rule::LockOrder);
    }

    #[test]
    fn entry_without_justification_is_an_error() {
        let bad = "[[allow]]\nrule = \"L7\"\npath = \"x.rs\"\npattern = \"p\"\n";
        let e = parse_allow_file(bad).expect_err("must fail");
        assert!(e.message.contains("justification"));
    }

    #[test]
    fn entry_without_pin_is_an_error() {
        let bad = "[[allow]]\nrule = \"L7\"\npath = \"x.rs\"\njustification = \"why\"\n";
        let e = parse_allow_file(bad).expect_err("must fail");
        assert!(e.message.contains("pin"));
    }

    #[test]
    fn unknown_rule_and_key_are_errors() {
        assert!(parse_allow_file("[[allow]]\nrule = \"L9\"\n").is_err());
        // The codes of the rules clippy now carries are not reused.
        assert!(parse_allow_file("[[allow]]\nrule = \"L1\"\n").is_err());
        assert!(parse_allow_file("[[allow]]\nline = 1\n").is_err());
    }

    #[test]
    fn matching_and_staleness() {
        let entries = parse_allow_file(SAMPLE).expect("parse");
        let findings = vec![
            finding(
                Rule::Durability,
                "crates/storage/src/mem.rs",
                87,
                "fn stage(&self, record: &[u8])",
            ),
            finding(
                Rule::Durability,
                "crates/storage/src/mem.rs",
                118,
                "fn compact(",
            ),
        ];
        let (kept, suppressed, stale) = apply_allowlist(findings, &entries);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 118);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "crates/netsim/src/lib.rs");
    }
}
