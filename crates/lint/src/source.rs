//! A lexed source file plus the structural facts every rule needs:
//! which tokens live inside `#[cfg(test)]` code, and brace matching.

use crate::lexer::{lex, Kind, Token};

/// A workspace source file prepared for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Raw text (used to report the offending line).
    pub text: String,
    /// Lexed tokens.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is true when token `i` is inside test-only code
    /// (a `#[cfg(test)]` module or item, or a `#[test]` function).
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Lexes and masks `text` as the file at `rel_path`.
    #[must_use]
    pub fn new(rel_path: &str, text: String) -> Self {
        let tokens = lex(&text);
        let test_mask = compute_test_mask(&tokens);
        Self {
            rel_path: rel_path.replace('\\', "/"),
            text,
            tokens,
            test_mask,
        }
    }

    /// The trimmed source line with 1-based number `line`, or "" when out
    /// of range.
    #[must_use]
    pub fn line_text(&self, line: u32) -> &str {
        self.text
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map_or("", str::trim)
    }

    /// True when token `i` is live (non-test) code.
    #[must_use]
    pub fn is_live(&self, i: usize) -> bool {
        !self.test_mask.get(i).copied().unwrap_or(false)
    }
}

/// Finds the index of the `}`/`]`/`)` matching the opener at `open`.
/// Counts all three bracket kinds together, which is sound for
/// well-formed Rust. Returns `tokens.len()` when unbalanced.
#[must_use]
pub fn matching_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" | "[" | "(" => depth += 1,
                "}" | "]" | ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len()
}

/// Marks every token inside test-only code. Handles the two shapes the
/// workspace uses: `#[cfg(test)] mod tests { … }` and `#[test] fn … { … }`
/// (plus `#[cfg(test)]` on a single item).
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some((attr_end, is_test)) = parse_attribute(tokens, i) {
            if is_test {
                let item_end = item_end_after(tokens, attr_end + 1);
                for m in mask.iter_mut().take(item_end + 1).skip(i) {
                    *m = true;
                }
                i = item_end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// If an outer attribute `#[…]` starts at `i`, returns its closing-`]`
/// index and whether it gates test code (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`, …).
fn parse_attribute(tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    if !tokens.get(i)?.is_punct("#") || !tokens.get(i + 1)?.is_punct("[") {
        return None;
    }
    let close = matching_close(tokens, i + 1);
    let body = &tokens[i + 2..close.min(tokens.len())];
    let is_test = match body.first() {
        Some(t) if t.is_ident("test") => true,
        Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
        _ => false,
    };
    Some((close, is_test))
}

/// Given the first token after an attribute, returns the index of the
/// last token of the annotated item: the matching `}` of its first
/// brace block, or the terminating `;` for braceless items. Skips any
/// further attributes in between.
fn item_end_after(tokens: &[Token], mut i: usize) -> usize {
    // Skip stacked attributes (`#[cfg(test)] #[allow(..)] mod t { .. }`).
    while let Some((attr_end, _)) = parse_attribute(tokens, i) {
        i = attr_end + 1;
    }
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("{") {
            return matching_close(tokens, j);
        }
        if t.is_punct(";") {
            return j;
        }
        // A parenthesized or bracketed group before the body (fn args,
        // generics with defaults…) is skipped as a unit.
        if t.is_punct("(") || t.is_punct("[") {
            j = matching_close(tokens, j) + 1;
            continue;
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_idents(src: &str) -> Vec<String> {
        let f = SourceFile::new("x.rs", src.to_string());
        f.tokens
            .iter()
            .enumerate()
            .filter(|(i, t)| f.is_live(*i) && t.kind == Kind::Ident)
            .map(|(_, t)| t.text.clone())
            .collect()
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn hidden() { x.unwrap(); }\n}\nfn tail() {}";
        let ids = live_idents(src);
        assert!(ids.contains(&"live".to_string()));
        assert!(ids.contains(&"tail".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"hidden".to_string()));
    }

    #[test]
    fn test_fn_is_masked() {
        let src = "#[test]\nfn check() { a.unwrap(); }\nfn live() {}";
        let ids = live_idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"live".to_string()));
    }

    #[test]
    fn stacked_attributes_before_test_mod() {
        let src =
            "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn f() { b.unwrap(); } }\nfn live() {}";
        let ids = live_idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"live".to_string()));
    }

    #[test]
    fn non_test_attributes_do_not_mask() {
        let src = "#[derive(Debug)]\nstruct S;\nfn live() { x.unwrap(); }";
        assert!(live_idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn cfg_all_test_is_masked() {
        let src = "#[cfg(all(test, unix))]\nfn f() { y.unwrap(); }\nfn live() {}";
        assert!(!live_idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn matching_close_finds_partner() {
        let toks = lex("{ a { b } [c] } d");
        assert_eq!(matching_close(&toks, 0), toks.len() - 2);
    }

    use crate::lexer::lex;
}
