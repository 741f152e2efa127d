//! L3 — constant-time discipline for secret byte material.
//!
//! Comparing secrets with `==` leaks how many leading bytes matched
//! through timing; every comparison of keys, MACs, seals, or possession
//! proofs must go through [`ct_eq`]. Two shapes are flagged in
//! `crates/crypto` and `crates/proxy` (the `ct` module itself is
//! exempt by scope):
//!
//! * `#[derive(PartialEq)]` on a type named like secret key material —
//!   the derived `==` is a variable-time byte compare;
//! * a `==` / `!=` whose operand window mentions secret-ish identifiers
//!   (`mac`, `tag`, `proof`, `secret`, `seed`, or an `as_bytes` call on
//!   them). Length checks are exempt: lengths are public in every
//!   protocol here, which is also `ct_eq`'s own contract.
//!
//! [`ct_eq`]: ../../proxy_crypto/ct/fn.ct_eq.html

use crate::diag::{Finding, Rule};
use crate::lexer::{Kind, Token};
use crate::source::{matching_close, SourceFile};

/// Type names that hold secret bytes; deriving `PartialEq` on them is a
/// timing leak.
const SECRET_TYPES: &[&str] = &["SymmetricKey", "SigningKey", "GrantAuthority", "SecretKey"];

/// Identifiers that mark an operand as secret material.
const SECRET_IDENTS: &[&str] = &["mac", "tag", "proof", "secret", "seed", "as_bytes"];

/// Identifiers that mark a comparison as being about public structure,
/// not secret bytes.
const PUBLIC_IDENTS: &[&str] = &["len", "is_empty", "count"];

/// How many tokens on each side of `==`/`!=` form the operand window.
const WINDOW: usize = 6;

/// Scans `file` for variable-time comparisons of secret material.
#[must_use]
pub fn check_const_time(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.tokens;
    let mut findings = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        if !file.is_live(i) {
            continue;
        }
        // Shape 1: #[derive(.. PartialEq ..)] on a secret type.
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            let close = matching_close(toks, i + 1);
            let body = &toks[i + 2..close.min(toks.len())];
            if body.first().is_some_and(|b| b.is_ident("derive"))
                && body.iter().any(|b| b.is_ident("PartialEq"))
            {
                if let Some(name) = declared_type_name(toks, close + 1) {
                    if SECRET_TYPES.contains(&name.text.as_str()) {
                        findings.push(Finding {
                            rule: Rule::ConstTime,
                            path: file.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "derive(PartialEq) on secret type `{}` is a variable-time byte \
                                 compare; implement PartialEq via ct_eq",
                                name.text
                            ),
                            snippet: file.line_text(t.line).to_string(),
                        });
                    }
                }
            }
        }
        // Shape 2: ==/!= with a secret operand window.
        if t.kind == Kind::Punct && (t.text == "==" || t.text == "!=") {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + 1 + WINDOW).min(toks.len());
            let window = &toks[lo..hi];
            let mentions = |names: &[&str]| {
                window
                    .iter()
                    .any(|w| w.kind == Kind::Ident && names.contains(&w.text.as_str()))
            };
            if mentions(SECRET_IDENTS) && !mentions(PUBLIC_IDENTS) {
                findings.push(Finding {
                    rule: Rule::ConstTime,
                    path: file.rel_path.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` on secret byte material leaks timing; compare through ct_eq",
                        t.text
                    ),
                    snippet: file.line_text(t.line).to_string(),
                });
            }
        }
    }
    findings
}

/// The name of the struct/enum declared right after an attribute, if
/// any — skipping further attributes, doc comments (already lexed
/// away), and visibility modifiers.
fn declared_type_name(toks: &[Token], mut i: usize) -> Option<&Token> {
    loop {
        let t = toks.get(i)?;
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            i = matching_close(toks, i + 1) + 1;
            continue;
        }
        if t.is_ident("pub") {
            // `pub` or `pub(crate)`.
            if toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                i = matching_close(toks, i + 1) + 1;
            } else {
                i += 1;
            }
            continue;
        }
        if t.is_ident("struct") || t.is_ident("enum") {
            return toks.get(i + 1);
        }
        return None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check_const_time(&SourceFile::new(
            "crates/crypto/src/keys.rs",
            src.to_string(),
        ))
    }

    #[test]
    fn derive_partial_eq_on_secret_type_fires() {
        let f = run("#[derive(Clone, PartialEq, Eq)]\npub struct SymmetricKey([u8; 32]);");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SymmetricKey"));
    }

    #[test]
    fn derive_on_public_type_is_fine() {
        let f = run("#[derive(Clone, PartialEq, Eq)]\npub struct VerifyingKey([u8; 32]);");
        assert_eq!(f, vec![]);
    }

    #[test]
    fn eq_on_mac_fires() {
        let f = run("fn verify(mac: &[u8], expected: &[u8]) -> bool { mac == expected }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn ne_on_proof_fires() {
        let f = run("fn bad(proof: &[u8], want: &[u8]) -> bool { proof != want }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn as_bytes_comparison_fires() {
        let f = run("fn same(a: &Key, b: &Key) -> bool { a.as_bytes() == b.as_bytes() }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn length_checks_are_public() {
        let f = run("fn ok(tag: &[u8]) -> bool { tag.len() == 32 }");
        assert_eq!(f, vec![]);
    }

    #[test]
    fn unrelated_comparisons_are_fine() {
        let f = run("fn ok(version: u8) -> bool { version == 3 }");
        assert_eq!(f, vec![]);
    }

    #[test]
    fn test_code_is_exempt() {
        let f = run("#[cfg(test)] mod t { fn f(mac: &[u8]) { assert!(mac == mac); } }");
        assert_eq!(f, vec![]);
    }
}
