//! L6 — lock-order: the workspace's lock-acquisition graph must be
//! acyclic, and no blocking operation may run while a shard guard is
//! live.
//!
//! Edges come from three shapes:
//!
//! 1. an acquisition nested inside another acquisition's live range
//!    (`outer.lock` → `inner.lock`);
//! 2. a call made while a guard is live, contributing an edge to every
//!    lock the callee transitively acquires;
//! 3. a closure passed to a lock-taking function (a `ShardMap` op, or
//!    `Journal::compact`): acquisitions and calls inside the closure
//!    text run under the callee's *direct* locks.
//!
//! Shape 3 deliberately uses direct (not transitive) callee locks: the
//! callee may take further locks strictly after the closure returns,
//! and charging those to the closure invents cycles that cannot happen.
//!
//! A cycle — including a self-edge, which is a stripe self-deadlock —
//! is reported at the edge that closes it. Blocking (fsync, socket
//! write, `wait_durable`, a signature verification, …) is reported at
//! the blocking site whenever it is reachable inside a shard-guard
//! range, a slot of the verifier's key table counting as a shard.
//! Journal `stage` calls sit inside shard closures by design and stay
//! clean only because `Storage::stage` is enqueue-only: an fsync that
//! became reachable from it would be reported at every one of them.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{AcqKind, Acquisition, Workspace};
use crate::diag::{Finding, Rule};
use crate::scope;
use crate::source::SourceFile;

/// One lock-order edge with its witness site.
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    why: String,
}

fn in_range(range: (usize, usize), tok: usize) -> bool {
    tok > range.0 && tok < range.1
}

/// `"crates/accounting/src/server.rs::accounts"` → `"server.rs::accounts"`.
fn short(lock: &str) -> String {
    let (file, field) = lock.rsplit_once("::").unwrap_or((lock, ""));
    let base = file.rsplit('/').next().unwrap_or(file);
    format!("{base}::{field}")
}

/// Whether holding this acquisition means holding a shard guard — the
/// latency-critical stripe locks blocking must never ride on: a
/// `ShardMap` stripe, or a slot of the verifier's key table.
fn shardish(a: &Acquisition) -> bool {
    a.kind == AcqKind::ShardClosure
        || a.lock.contains("shard.rs::")
        || a.lock.contains("keytable.rs::")
}

/// Runs the global lock-order analysis over every file of the run.
#[must_use]
pub fn check_global(files: &[SourceFile], ws: &Workspace) -> Vec<Finding> {
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let mut edges: Vec<Edge> = Vec::new();
    let mut findings = Vec::new();
    let mut seen = BTreeSet::new();

    for f in files {
        for inst in ws.fns_in(&f.rel_path) {
            // Shapes 1 and 2: nesting inside a live guard range.
            for a in &inst.acquisitions {
                for b in &inst.acquisitions {
                    if b.tok != a.tok && in_range(a.range, b.tok) {
                        edges.push(Edge {
                            from: a.lock.clone(),
                            to: b.lock.clone(),
                            file: inst.file.clone(),
                            line: b.line,
                            why: format!("`{}` while holding `{}`", b.method, short(&a.lock)),
                        });
                    }
                }
                for c in &inst.matched {
                    if !in_range(a.range, c.tok) {
                        continue;
                    }
                    for l in ws.call_locks(c) {
                        edges.push(Edge {
                            from: a.lock.clone(),
                            to: l,
                            file: inst.file.clone(),
                            line: c.line,
                            why: format!("call to `{}` while holding `{}`", c.name, short(&a.lock)),
                        });
                    }
                }
            }
            // Shape 3: closure arguments run under the callee's direct
            // locks. Only text *after* the closure's `|` counts —
            // ordinary arguments are evaluated before the call, with no
            // callee lock held.
            for c in &inst.matched {
                let direct: BTreeSet<String> = c
                    .targets
                    .iter()
                    .flat_map(|&t| ws.fn_by_id(t).acquisitions.iter().map(|a| a.lock.clone()))
                    .collect();
                if direct.is_empty() || c.args.0 >= c.args.1 {
                    continue;
                }
                let Some(closure) = crate::callgraph::closure_open(
                    &by_path[inst.file.as_str()].tokens,
                    c.args.0,
                    c.args.1,
                ) else {
                    continue;
                };
                let c_args = (closure, c.args.1);
                for b in &inst.acquisitions {
                    if in_range(c_args, b.tok) {
                        for l in &direct {
                            edges.push(Edge {
                                from: l.clone(),
                                to: b.lock.clone(),
                                file: inst.file.clone(),
                                line: b.line,
                                why: format!(
                                    "`{}` inside closure passed to `{}`",
                                    b.method, c.name
                                ),
                            });
                        }
                    }
                }
                for d in &inst.matched {
                    if d.tok == c.tok || !in_range(c_args, d.tok) {
                        continue;
                    }
                    for l in &direct {
                        for m in ws.call_locks(d) {
                            edges.push(Edge {
                                from: l.clone(),
                                to: m,
                                file: inst.file.clone(),
                                line: d.line,
                                why: format!(
                                    "call to `{}` inside closure passed to `{}`",
                                    d.name, c.name
                                ),
                            });
                        }
                    }
                }
            }
            // Blocking while a shard guard is live.
            for a in &inst.acquisitions {
                if !shardish(a) || !scope::lock_order_applies(&inst.file) {
                    continue;
                }
                for (name, tok, line) in &inst.blocking {
                    if in_range(a.range, *tok)
                        && seen.insert((inst.file.clone(), *line, name.clone()))
                    {
                        findings.push(finding(
                            &by_path,
                            &inst.file,
                            *line,
                            format!(
                                "blocking `{}` while shard guard `{}` is held; move the \
                                 blocking work outside the shard closure",
                                name,
                                short(&a.lock)
                            ),
                        ));
                    }
                }
                for c in &inst.matched {
                    if !in_range(a.range, c.tok) {
                        continue;
                    }
                    if let Some(desc) = ws.call_blocks(c) {
                        if seen.insert((inst.file.clone(), c.line, desc.clone())) {
                            findings.push(finding(
                                &by_path,
                                &inst.file,
                                c.line,
                                format!(
                                    "blocking operation ({desc}) reachable while shard \
                                     guard `{}` is held; move the blocking work outside \
                                     the shard closure",
                                    short(&a.lock)
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over the deduplicated edge relation.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let mut reported = BTreeSet::new();
    let mut ordered: Vec<&Edge> = edges.iter().collect();
    ordered.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for e in ordered {
        if !scope::lock_order_applies(&e.file) || !reported.insert((e.from.clone(), e.to.clone())) {
            continue;
        }
        if e.from == e.to {
            findings.push(finding(
                &by_path,
                &e.file,
                e.line,
                format!(
                    "lock `{}` re-acquired while already held ({}) — stripe self-deadlock",
                    short(&e.from),
                    e.why
                ),
            ));
        } else if reaches(&adj, &e.to, &e.from) {
            findings.push(finding(
                &by_path,
                &e.file,
                e.line,
                format!(
                    "lock-order cycle: `{}` taken before `{}` here ({}), but the reverse \
                     order exists elsewhere in the workspace; pick one global order",
                    short(&e.from),
                    short(&e.to),
                    e.why
                ),
            ));
        }
    }
    findings
}

/// DFS reachability `from → … → to` in the edge relation.
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from];
    let mut seen = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

fn finding(
    by_path: &BTreeMap<&str, &SourceFile>,
    file: &str,
    line: u32,
    message: String,
) -> Finding {
    Finding {
        rule: Rule::LockOrder,
        path: file.to_string(),
        line,
        message,
        snippet: by_path
            .get(file)
            .map(|f| f.line_text(line).to_string())
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::new(
            "crates/proxy/src/shard.rs",
            src.to_string(),
        )];
        let ws = Workspace::build(&files);
        check_global(&files, &ws)
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = run("struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { fn f(&self) { let x = self.a.lock(); let y = self.b.lock(); }\n\
             fn g(&self) { let x = self.a.lock(); let y = self.b.lock(); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn inverted_order_is_a_cycle() {
        let f = run("struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { fn f(&self) { let x = self.a.lock(); let y = self.b.lock(); }\n\
             fn g(&self) { let y = self.b.lock(); let x = self.a.lock(); } }");
        assert!(
            f.iter().any(|x| x.message.contains("lock-order cycle")),
            "{f:?}"
        );
    }

    #[test]
    fn cycle_through_a_call_is_found() {
        let f = run("struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { fn f(&self) { let x = self.a.lock(); self.takes_b(); }\n\
             fn takes_b(&self) { let y = self.b.lock(); }\n\
             fn g(&self) { let y = self.b.lock(); self.takes_a(); }\n\
             fn takes_a(&self) { let x = self.a.lock(); } }");
        assert!(
            f.iter().any(|x| x.message.contains("lock-order cycle")),
            "{f:?}"
        );
    }

    #[test]
    fn shard_self_reentry_is_a_self_deadlock() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S { fn f(&self) { self.accounts.update(&1, |a| { self.bump(); }); }\n\
             fn bump(&self) { self.accounts.upsert(&2, |a| {}); } }");
        assert!(
            f.iter().any(|x| x.message.contains("self-deadlock")),
            "{f:?}"
        );
    }

    #[test]
    fn blocking_inside_shard_closure_is_flagged() {
        let f = run("struct S { accounts: ShardMap<u64, u64> }\n\
             impl S { fn f(&self, file: &File) { self.accounts.update(&1, |a| { file.sync_data(); }); } }");
        assert!(f.iter().any(|x| x.message.contains("blocking")), "{f:?}");
    }

    #[test]
    fn curve_arithmetic_under_a_stripe_is_blocking_but_other_constructors_are_not() {
        let f = run("struct S { seen: Mutex<u8> }\n\
             impl S { fn f(&self, k: &K) { let g = self.seen.lock(); let a = Arc::new(1); }\n\
             fn g(&self, k: &K) { let g = self.seen.lock(); let p = PreparedKey::new(k); }\n\
             fn h(&self, k: &K) { let g = self.seen.lock(); k.verify(m, s); } }");
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [3, 4], "{f:?}");
        assert!(f[0].message.contains("PreparedKey::new"), "{f:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let f = run("struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S { fn f(&self) { let x = self.a.lock(); drop(x); let y = self.b.lock(); }\n\
             fn g(&self) { let y = self.b.lock(); drop(y); let x = self.a.lock(); } }");
        assert!(f.is_empty(), "{f:?}");
    }
}
