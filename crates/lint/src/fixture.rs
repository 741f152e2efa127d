//! Self-describing lint fixtures.
//!
//! Fixture files under `tests/fixtures/{pass,fail}/` open with a
//! directive comment telling the analyzer where the snippet "lives" and
//! which rule it exercises:
//!
//! ```text
//! // lint-fixture: path=crates/wire/src/frame.rs rule=L8
//! ```
//!
//! `path` selects the scope (rules only fire where they apply), `rule`
//! is the family a `fail/` fixture must trip — and the only family a
//! `pass/` fixture is asserting silence for.

use crate::diag::Rule;

/// A parsed `// lint-fixture:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixtureDirective {
    /// The workspace-relative path the snippet should be linted as.
    pub path: String,
    /// The rule family the fixture exercises.
    pub rule: Rule,
}

/// Extracts the directive from the first line of `text`, if present and
/// well-formed.
#[must_use]
pub fn fixture_directive(text: &str) -> Option<FixtureDirective> {
    let first = text.lines().next()?;
    let rest = first.trim().strip_prefix("// lint-fixture:")?;
    let mut path = None;
    let mut rule = None;
    for field in rest.split_whitespace() {
        if let Some(v) = field.strip_prefix("path=") {
            path = Some(v.to_string());
        } else if let Some(v) = field.strip_prefix("rule=") {
            rule = Rule::from_code(v);
        }
    }
    Some(FixtureDirective {
        path: path?,
        rule: rule?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_directive() {
        let d = fixture_directive(
            "// lint-fixture: path=crates/wire/src/frame.rs rule=L8\nfn f() {}\n",
        )
        .expect("directive");
        assert_eq!(d.path, "crates/wire/src/frame.rs");
        assert_eq!(d.rule, Rule::Taint);
    }

    #[test]
    fn missing_or_malformed_directive_is_none() {
        assert_eq!(fixture_directive("fn f() {}\n"), None);
        assert_eq!(fixture_directive("// lint-fixture: rule=L8\n"), None);
        assert_eq!(
            fixture_directive("// lint-fixture: path=a.rs rule=L9\n"),
            None
        );
    }
}
