//! Workspace call graph: lock declarations, per-function summaries, and
//! the fixed-point propagation the flow-aware rules (L6–L8) query.
//!
//! The model is name-based, not type-based — a deliberate trade the
//! whole analyzer makes (DESIGN.md §16). What keeps it precise enough
//! for a clean calibrated run:
//!
//! * **Lock identity** is a declared struct field whose type text
//!   mentions `Mutex<`/`RwLock<`/`ShardMap<`, keyed `file::field`.
//!   Acquisition sites name the field (`self.state.lock()`), or reach a
//!   lock through a helper whose return type names the lock or a guard
//!   (`self.shard(&k).write()`, `self.begin()?`).
//! * **Call matching** is name + arity. Method calls with std-colliding
//!   names (`insert`, `len`, `read`, …) only match when the receiver is
//!   a declared `ShardMap` field, and calls chained onto a fresh guard
//!   (`.lock().…`, the inside of `ShardMap` itself) never match — both
//!   rules kill the false self-deadlocks a pure name match would
//!   invent.
//! * **Guard ranges** run from the acquisition to the *first*
//!   `drop(guard)` (under-approximate: an early-release branch must not
//!   leak the guard over lock-free code) or the enclosing block.

use std::collections::{BTreeMap, BTreeSet};

use crate::flow;
use crate::lexer::{Kind, Token};
use crate::parse::{self, CallExpr, FnDef};
use crate::source::SourceFile;

/// Names of `ShardMap` methods that run a caller closure under exactly
/// one shard lock.
pub const SHARD_CLOSURE_OPS: &[&str] =
    &["read", "update", "upsert", "remove_if", "for_each", "fold"];

/// Names of `ShardMap` methods that take and release the shard lock
/// internally (no caller code runs under it).
pub const SHARD_INSTANT_OPS: &[&str] = &[
    "insert",
    "remove",
    "get_cloned",
    "contains_key",
    "len",
    "is_empty",
];

/// Blocking primitives: filesystem syncs, socket syscalls, waits — and
/// signature verification, tens of microseconds of curve arithmetic. To
/// the thread queued on a stripe it makes no difference whether the
/// holder is in a syscall or in a scalar multiplication.
/// `batch_holds` is a group's settle equation alone,
/// `first_lone_failure` the one-by-one scan after it fails, and
/// `holds_all` a prepared key's one equation over a run of its
/// signatures.
/// `PreparedKey::new`, the other curve-arithmetic call, is matched by
/// its qualifier (`is_key_preparation`).
pub const BLOCKING_PRIMITIVES: &[&str] = &[
    "sync_all",
    "sync_data",
    "sync_dir",
    "fsync",
    "wait_durable",
    "wait_timeout",
    "wait_while",
    "park",
    "sleep",
    "join",
    "write_all",
    "write_vectored",
    "read_exact",
    "read_to_end",
    "accept",
    "connect",
    "verify",
    "verify_batch",
    "first_failure",
    "batch_holds",
    "first_lone_failure",
    "holds_all",
];

/// Whether `c` is `PreparedKey::new(..)`: building a key's tables, about
/// three quarters of a verification.
fn is_key_preparation(tokens: &[Token], c: &CallExpr) -> bool {
    c.callee == "new"
        && !c.is_method
        && c.callee_tok >= 2
        && tokens
            .get(c.callee_tok - 1)
            .is_some_and(|t| t.is_punct("::"))
        && tokens
            .get(c.callee_tok - 2)
            .is_some_and(|t| t.is_ident("PreparedKey"))
}

/// Method names that collide with std collections — plus the ubiquitous
/// constructor/conversion names (`new`, `from`, …) that appear on every
/// type in and out of the workspace. Matched only against a declared
/// `ShardMap` field receiver; for the constructors that means never,
/// which is the calibrated choice: `Arc::new` matching some workspace
/// `new` by arity manufactures lock and blocking chains out of thin
/// air.
const COLLIDING_NAMES: &[&str] = &[
    "new",
    "default",
    "from",
    "into",
    "contains",
    "append",
    "starts_with",
    "ends_with",
    "to_vec",
    "as_bytes",
    "len",
    "is_empty",
    "insert",
    "remove",
    "get",
    "get_mut",
    "get_cloned",
    "contains_key",
    "read",
    "write",
    "lock",
    "clone",
    "push",
    "flush",
    "drain",
    "clear",
    "take",
    "reserve",
    "resize",
    "extend",
    "iter",
    "next",
    "send",
    "recv",
];

/// A declared lock: a struct field with a lock type.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Stable identity: `"<file>::<field>"`.
    pub key: String,
    /// The field name.
    pub field: String,
    /// Declaring file (workspace-relative).
    pub file: String,
    /// Whether the type is a `ShardMap` (lock-striped map).
    pub shard_map: bool,
}

/// How a lock is held at an acquisition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqKind {
    /// A guard value: `.lock()`/`.read()`/`.write()` or a
    /// guard-returning helper.
    Guard,
    /// A `ShardMap` closure op: the closure argument runs under the
    /// shard lock.
    ShardClosure,
}

/// One lock-acquisition site inside a function body.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Key of the acquired lock.
    pub lock: String,
    /// Guard or closure-scoped.
    pub kind: AcqKind,
    /// Token index of the acquiring method name.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Token range over which the lock is held in this body.
    pub range: (usize, usize),
    /// The acquiring method (`lock`, `update`, …).
    pub method: String,
}

/// A call resolved to one or more workspace function instances.
#[derive(Debug, Clone)]
pub struct MatchedCall {
    /// Callee name.
    pub name: String,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// Argument token range `(open, close)`; `open >= close` for a
    /// bare path reference.
    pub args: (usize, usize),
    /// Global ids of the matching [`FnInstance`]s (dyn-dispatch union).
    pub targets: Vec<usize>,
}

/// One function instance with its local facts and propagated summary.
#[derive(Debug)]
pub struct FnInstance {
    /// Declaring file.
    pub file: String,
    /// Parsed signature/body spans.
    pub def: FnDef,
    /// Lock-acquisition sites in the body.
    pub acquisitions: Vec<Acquisition>,
    /// Calls resolved to workspace functions.
    pub matched: Vec<MatchedCall>,
    /// Blocking primitives called directly: `(name, token, line)`.
    pub blocking: Vec<(String, usize, u32)>,
    /// Locks acquired here or in any transitively matched callee.
    pub trans_locks: BTreeSet<String>,
    /// A blocking operation reachable from here, as a `"prim via f"`
    /// description — `None` when none is.
    pub trans_block: Option<String>,
    /// The lock whose guard this function returns, when it does.
    pub returns_guard: Option<String>,
    /// The lock this function returns a reference to, when it does.
    pub returns_lock: Option<String>,
}

/// The whole-workspace model the flow-aware rules query.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Every declared lock.
    pub locks: Vec<LockDecl>,
    fns: Vec<FnInstance>,
    by_file: BTreeMap<String, Vec<usize>>,
    shard_fields: BTreeSet<String>,
}

impl Workspace {
    /// The function instances declared in `rel_path`.
    #[must_use]
    pub fn fns_in(&self, rel_path: &str) -> Vec<&FnInstance> {
        self.by_file
            .get(rel_path)
            .map(|ids| ids.iter().map(|&i| &self.fns[i]).collect())
            .unwrap_or_default()
    }

    /// A function instance by global id.
    #[must_use]
    pub fn fn_by_id(&self, id: usize) -> &FnInstance {
        &self.fns[id]
    }

    /// Whether `field` is a declared `ShardMap` field anywhere.
    #[must_use]
    pub fn is_shard_field(&self, field: &str) -> bool {
        self.shard_fields.contains(field)
    }

    /// The union of `trans_locks` over a matched call's targets.
    #[must_use]
    pub fn call_locks(&self, call: &MatchedCall) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for &t in &call.targets {
            out.extend(self.fns[t].trans_locks.iter().cloned());
        }
        out
    }

    /// The first blocking description among a matched call's targets.
    #[must_use]
    pub fn call_blocks(&self, call: &MatchedCall) -> Option<String> {
        call.targets
            .iter()
            .filter_map(|&t| self.fns[t].trans_block.clone())
            .next()
    }

    /// Builds the model over every file of a run.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Workspace {
        let mut ws = Workspace::default();
        // Pass 1: structure — functions, structs, lock declarations.
        let mut raw_calls: Vec<Vec<CallExpr>> = Vec::new();
        for f in files {
            let fns = parse::parse_fns(&f.tokens);
            for s in parse::parse_structs(&f.tokens) {
                for field in &s.fields {
                    let shard_map = field.type_text.contains("ShardMap <");
                    if shard_map
                        || field.type_text.contains("Mutex <")
                        || field.type_text.contains("RwLock <")
                    {
                        ws.locks.push(LockDecl {
                            key: format!("{}::{}", f.rel_path, field.name),
                            field: field.name.clone(),
                            file: f.rel_path.clone(),
                            shard_map,
                        });
                        if shard_map {
                            ws.shard_fields.insert(field.name.clone());
                        }
                    }
                }
            }
            let mut ids = Vec::new();
            for def in fns {
                // Skip test-only functions entirely.
                if !live(f, def.fn_tok) {
                    continue;
                }
                let calls = def
                    .body()
                    .map(|(o, c)| parse::calls_in(&f.tokens, o + 1, c))
                    .unwrap_or_default();
                ids.push(ws.fns.len());
                raw_calls.push(calls);
                ws.fns.push(FnInstance {
                    file: f.rel_path.clone(),
                    def,
                    acquisitions: Vec::new(),
                    matched: Vec::new(),
                    blocking: Vec::new(),
                    trans_locks: BTreeSet::new(),
                    trans_block: None,
                    returns_guard: None,
                    returns_lock: None,
                });
            }
            ws.by_file.insert(f.rel_path.clone(), ids);
        }

        let file_of: BTreeMap<&str, &SourceFile> =
            files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
        let name_index = ws.name_index();

        // Pass 2: direct acquisitions, blocking primitives, and
        // `returns_lock` (helpers handing out a `&RwLock`/`&Mutex`).
        for id in 0..ws.fns.len() {
            let f = file_of[ws.fns[id].file.as_str()];
            let (acqs, blocking) = ws.direct_facts(f, &ws.fns[id].def, &raw_calls[id]);
            ws.fns[id].acquisitions = acqs;
            ws.fns[id].blocking = blocking;
            let inst = &ws.fns[id];
            if inst.def.ret_text.contains("RwLock") || inst.def.ret_text.contains("Mutex") {
                ws.fns[id].returns_lock = ws.lock_referenced_in_body(f, &ws.fns[id].def);
            }
        }

        // Pass 3: helper-mediated guard acquisitions need `returns_guard`,
        // which itself propagates through helpers (the server's `begin`
        // forwards `Journal::begin`), so iterate to a fixed point.
        loop {
            let mut changed = false;
            for id in 0..ws.fns.len() {
                if ws.fns[id].returns_guard.is_some() || !ws.fns[id].def.ret_text.contains("Guard")
                {
                    continue;
                }
                let direct = ws.fns[id]
                    .acquisitions
                    .iter()
                    .find(|a| a.kind == AcqKind::Guard)
                    .map(|a| a.lock.clone());
                let via_ref = direct.or_else(|| {
                    let f = file_of[ws.fns[id].file.as_str()];
                    referenced_names(f, &ws.fns[id].def)
                        .iter()
                        .filter_map(|n| name_index.get(n.as_str()))
                        .flatten()
                        .filter_map(|&t| ws.fns[t].returns_guard.clone())
                        .next()
                });
                if let Some(lock) = via_ref {
                    ws.fns[id].returns_guard = Some(lock);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Pass 4: lock-helper receivers (`self.shard(&k).write()`),
        // guard-helper calls (`self.begin()?`), and call matching.
        for id in 0..ws.fns.len() {
            let f = file_of[ws.fns[id].file.as_str()];
            let body_close = ws.fns[id].def.body_close;
            let mut extra_acqs = Vec::new();
            let mut matched = Vec::new();
            let acq_toks: BTreeSet<usize> = ws.fns[id].acquisitions.iter().map(|a| a.tok).collect();
            for c in &raw_calls[id] {
                if !live(f, c.callee_tok) || acq_toks.contains(&c.callee_tok) {
                    continue;
                }
                // `self.shard(&k).write()` — a lock reached via helper.
                if matches!(c.callee.as_str(), "lock" | "read" | "write")
                    && c.arg_count == 0
                    && c.is_method
                    && c.receiver_field(&f.tokens).is_none()
                {
                    if let Some(lock) = ws.receiver_helper_lock(f, c, &name_index) {
                        extra_acqs.push(Acquisition {
                            lock,
                            kind: AcqKind::Guard,
                            tok: c.callee_tok,
                            line: c.line,
                            range: flow::guard_range(&f.tokens, c.callee_tok, body_close),
                            method: c.callee.clone(),
                        });
                        continue;
                    }
                }
                if receiver_locked(f, c) {
                    continue;
                }
                let Some(cands) = name_index.get(c.callee.as_str()) else {
                    continue;
                };
                let shard_recv = c
                    .receiver_field(&f.tokens)
                    .is_some_and(|r| ws.shard_fields.contains(&r));
                if COLLIDING_NAMES.contains(&c.callee.as_str()) && !shard_recv {
                    continue;
                }
                let targets: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&t| t != id && ws.fns[t].def.param_count == c.arg_count)
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                // A call to a guard-returning helper acquires its lock
                // here, for the guard's live range.
                if let Some(lock) = targets
                    .iter()
                    .filter_map(|&t| ws.fns[t].returns_guard.clone())
                    .next()
                {
                    extra_acqs.push(Acquisition {
                        lock,
                        kind: AcqKind::Guard,
                        tok: c.callee_tok,
                        line: c.line,
                        range: flow::guard_range(&f.tokens, c.callee_tok, body_close),
                        method: c.callee.clone(),
                    });
                    continue;
                }
                matched.push(MatchedCall {
                    name: c.callee.clone(),
                    tok: c.callee_tok,
                    line: c.line,
                    args: (c.args_open, c.args_close),
                    targets,
                });
            }
            // Bare path references (`Journal::begin` passed as a value)
            // participate in propagation, pinned to their statement.
            for (name, tok, line) in path_refs(f, &ws.fns[id].def) {
                if let Some(cands) = name_index.get(name.as_str()) {
                    let targets: Vec<usize> = cands.iter().copied().filter(|&t| t != id).collect();
                    if !targets.is_empty() {
                        matched.push(MatchedCall {
                            name,
                            tok,
                            line,
                            args: (tok, tok),
                            targets,
                        });
                    }
                }
            }
            ws.fns[id].acquisitions.extend(extra_acqs);
            ws.fns[id].acquisitions.sort_by_key(|a| a.tok);
            ws.fns[id].matched = matched;
        }

        // Pass 5: fixed-point propagation of lock sets and blocking.
        for id in 0..ws.fns.len() {
            ws.fns[id].trans_locks = ws.fns[id]
                .acquisitions
                .iter()
                .map(|a| a.lock.clone())
                .collect();
            if let Some((name, _, _)) = ws.fns[id].blocking.first() {
                ws.fns[id].trans_block = Some(name.clone());
            }
        }
        loop {
            let mut changed = false;
            for id in 0..ws.fns.len() {
                let mut add_locks = Vec::new();
                let mut block = None;
                for c in &ws.fns[id].matched {
                    for &t in &c.targets {
                        for l in &ws.fns[t].trans_locks {
                            if !ws.fns[id].trans_locks.contains(l) {
                                add_locks.push(l.clone());
                            }
                        }
                        if block.is_none() && ws.fns[id].trans_block.is_none() {
                            if let Some(b) = &ws.fns[t].trans_block {
                                block = Some(format!("{b} via {}", c.name));
                            }
                        }
                    }
                }
                if !add_locks.is_empty() {
                    ws.fns[id].trans_locks.extend(add_locks);
                    changed = true;
                }
                if let Some(b) = block {
                    ws.fns[id].trans_block = Some(b);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        ws
    }

    fn name_index(&self) -> BTreeMap<String, Vec<usize>> {
        let mut idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            idx.entry(f.def.name.clone()).or_default().push(i);
        }
        idx
    }

    /// Direct acquisitions and blocking primitives in one body.
    fn direct_facts(
        &self,
        f: &SourceFile,
        def: &FnDef,
        calls: &[CallExpr],
    ) -> (Vec<Acquisition>, Vec<(String, usize, u32)>) {
        let mut acqs = Vec::new();
        let mut blocking = Vec::new();
        let Some((_, body_close)) = def.body() else {
            return (acqs, blocking);
        };
        for c in calls {
            if !live(f, c.callee_tok) {
                continue;
            }
            if BLOCKING_PRIMITIVES.contains(&c.callee.as_str()) {
                blocking.push((c.callee.clone(), c.callee_tok, c.line));
            } else if is_key_preparation(&f.tokens, c) {
                blocking.push(("PreparedKey::new".to_string(), c.callee_tok, c.line));
            }
            if !c.is_method {
                continue;
            }
            let recv_field = c.receiver_field(&f.tokens);
            // `.lock()` / `.read()` / `.write()` on a declared lock field.
            if matches!(c.callee.as_str(), "lock" | "read" | "write") && c.arg_count == 0 {
                if let Some(field) = &recv_field {
                    if let Some(lock) = self.resolve_lock(&f.rel_path, field) {
                        acqs.push(Acquisition {
                            lock,
                            kind: AcqKind::Guard,
                            tok: c.callee_tok,
                            line: c.line,
                            range: flow::guard_range(&f.tokens, c.callee_tok, body_close),
                            method: c.callee.clone(),
                        });
                        continue;
                    }
                }
            }
            // ShardMap closure ops: the closure runs under the shard
            // lock. Arguments before the closure (the key expression)
            // are evaluated lock-free, so the range starts at the
            // closure's first `|`.
            if SHARD_CLOSURE_OPS.contains(&c.callee.as_str()) && c.arg_count >= 1 {
                if let Some(field) = &recv_field {
                    if self.shard_fields.contains(field) {
                        if let Some(lock) = self.resolve_lock(&f.rel_path, field) {
                            let closure_start = closure_open(&f.tokens, c.args_open, c.args_close)
                                .unwrap_or(c.args_open);
                            acqs.push(Acquisition {
                                lock,
                                kind: AcqKind::ShardClosure,
                                tok: c.callee_tok,
                                line: c.line,
                                range: (closure_start, c.args_close),
                                method: c.callee.clone(),
                            });
                        }
                    }
                }
            }
        }
        (acqs, blocking)
    }

    /// Resolves a field name to a lock key, preferring the current file.
    fn resolve_lock(&self, rel_path: &str, field: &str) -> Option<String> {
        self.locks
            .iter()
            .find(|l| l.field == field && l.file == rel_path)
            .or_else(|| self.locks.iter().find(|l| l.field == field))
            .map(|l| l.key.clone())
    }

    /// A lock field referenced anywhere in the body (for helpers whose
    /// return type is the lock itself, like `ShardMap::shard`).
    fn lock_referenced_in_body(&self, f: &SourceFile, def: &FnDef) -> Option<String> {
        let (open, close) = def.body()?;
        for i in open + 1..close.min(f.tokens.len()) {
            let t = &f.tokens[i];
            if t.kind == Kind::Ident {
                if let Some(l) = self
                    .locks
                    .iter()
                    .find(|l| l.field == t.text && l.file == f.rel_path)
                {
                    return Some(l.key.clone());
                }
            }
        }
        None
    }

    /// A lock reached through a helper call in a receiver chain:
    /// `self.shard(&k).write()` → the lock `shard` returns.
    fn receiver_helper_lock(
        &self,
        f: &SourceFile,
        c: &CallExpr,
        name_index: &BTreeMap<String, Vec<usize>>,
    ) -> Option<String> {
        for (off, t) in c.receiver(&f.tokens).iter().enumerate() {
            if t.kind != Kind::Ident {
                continue;
            }
            let next_is_paren = f
                .tokens
                .get(c.recv_start + off + 1)
                .is_some_and(|n| n.is_punct("("));
            if !next_is_paren {
                continue;
            }
            if let Some(cands) = name_index.get(&t.text) {
                if let Some(lock) = cands
                    .iter()
                    .filter_map(|&i| self.fns[i].returns_lock.clone())
                    .next()
                {
                    return Some(lock);
                }
            }
        }
        None
    }
}

/// Is token `i` live (non-test) code in `f`?
fn live(f: &SourceFile, i: usize) -> bool {
    f.is_live(i)
}

/// The first closure delimiter `|` strictly inside an argument range —
/// the point where a closure argument begins and the callee's lock
/// discipline starts to apply to the caller's text.
#[must_use]
pub fn closure_open(tokens: &[Token], args_open: usize, args_close: usize) -> Option<usize> {
    (args_open + 1..args_close.min(tokens.len()))
        .find(|&i| tokens[i].kind == Kind::Punct && tokens[i].text == "|")
}

/// A call chained onto a freshly acquired guard (`….lock().insert(…)`,
/// `….write().expect(…)`) — excluded from call matching so the internals
/// of lock wrappers don't read as self-deadlocks.
fn receiver_locked(f: &SourceFile, c: &CallExpr) -> bool {
    let recv = c.receiver(&f.tokens);
    recv.iter().enumerate().any(|(off, t)| {
        matches!(t.text.as_str(), "lock" | "read" | "write")
            && t.kind == Kind::Ident
            && f.tokens
                .get(c.recv_start + off + 1)
                .is_some_and(|n| n.is_punct("("))
    })
}

/// Names referenced in a body as calls or `::` paths (for guard
/// propagation before full call matching exists).
fn referenced_names(f: &SourceFile, def: &FnDef) -> Vec<String> {
    let Some((open, close)) = def.body() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in open + 1..close.min(f.tokens.len()) {
        let t = &f.tokens[i];
        if t.kind == Kind::Ident && !crate::lexer::is_keyword(&t.text) {
            out.push(t.text.clone());
        }
    }
    out
}

/// `Path::name` references that are not immediately called — function
/// values passed along (`.map(Journal::begin)`).
fn path_refs(f: &SourceFile, def: &FnDef) -> Vec<(String, usize, u32)> {
    let Some((open, close)) = def.body() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in open + 1..close.min(f.tokens.len()) {
        let t = &f.tokens[i];
        if t.kind == Kind::Ident
            && !crate::lexer::is_keyword(&t.text)
            && i > 0
            && f.tokens[i - 1].is_punct("::")
            && !f.tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            && live(f, i)
        {
            out.push((t.text.clone(), i, t.line));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::build(&[SourceFile::new("crates/proxy/src/x.rs", src.to_string())])
    }

    #[test]
    fn lock_fields_are_declared() {
        let w = ws("struct J { gate: RwLock<()>, poisoned: Mutex<u8>, accounts: ShardMap<u64, u64>, n: u64 }");
        assert_eq!(w.locks.len(), 3);
        assert!(w.is_shard_field("accounts"));
        assert!(!w.is_shard_field("gate"));
    }

    #[test]
    fn direct_guard_acquisition_and_range() {
        let w = ws("struct S { state: Mutex<u8> }\n\
                    impl S { fn f(&self) { let st = self.state.lock(); use_it(&st); drop(st); after(); } }");
        let f = &w.fns_in("crates/proxy/src/x.rs")[0];
        assert_eq!(f.acquisitions.len(), 1);
        let a = &f.acquisitions[0];
        assert_eq!(a.lock, "crates/proxy/src/x.rs::state");
        assert_eq!(a.kind, AcqKind::Guard);
    }

    #[test]
    fn shard_closure_acquisition() {
        let w = ws("struct S { accounts: ShardMap<u64, u64> }\n\
                    impl S { fn f(&self) { self.accounts.update(&1, |a| { *a += 1; }); } }");
        let f = &w.fns_in("crates/proxy/src/x.rs")[0];
        assert_eq!(f.acquisitions.len(), 1);
        assert_eq!(f.acquisitions[0].kind, AcqKind::ShardClosure);
        assert_eq!(f.acquisitions[0].method, "update");
    }

    #[test]
    fn guard_helper_propagates() {
        let w = ws("struct J { gate: RwLock<()> }\n\
                    impl J { fn begin(&self) -> OpGuard<'_> { OpGuard { g: self.gate.read() } }\n\
                    fn op(&self) { let guard = self.begin(); work(); drop(guard); } }");
        let fns = w.fns_in("crates/proxy/src/x.rs");
        let begin = fns.iter().find(|f| f.def.name == "begin").unwrap();
        assert_eq!(
            begin.returns_guard.as_deref(),
            Some("crates/proxy/src/x.rs::gate")
        );
        let op = fns.iter().find(|f| f.def.name == "op").unwrap();
        assert_eq!(op.acquisitions.len(), 1);
        assert_eq!(op.acquisitions[0].lock, "crates/proxy/src/x.rs::gate");
    }

    #[test]
    fn lock_helper_receiver_resolves() {
        let w = ws("struct M { shards: Box<[RwLock<u8>]> }\n\
                    impl M { fn shard(&self, k: &u64) -> &RwLock<u8> { &self.shards[0] }\n\
                    fn put(&self, k: u64) { self.shard(&k).write(); } }");
        let fns = w.fns_in("crates/proxy/src/x.rs");
        let put = fns.iter().find(|f| f.def.name == "put").unwrap();
        assert_eq!(put.acquisitions.len(), 1);
        assert_eq!(put.acquisitions[0].lock, "crates/proxy/src/x.rs::shards");
    }

    #[test]
    fn trans_locks_and_blocking_propagate() {
        let w = ws("struct S { state: Mutex<u8> }\n\
                    impl S { fn inner(&self) { let g = self.state.lock(); file.sync_data(); }\n\
                    fn outer(&self) { self.inner(); } }");
        let fns = w.fns_in("crates/proxy/src/x.rs");
        let outer = fns.iter().find(|f| f.def.name == "outer").unwrap();
        assert!(outer.trans_locks.contains("crates/proxy/src/x.rs::state"));
        assert_eq!(outer.trans_block.as_deref(), Some("sync_data via inner"));
    }

    #[test]
    fn guard_chained_calls_do_not_match() {
        let w = ws("struct M { shards: Box<[RwLock<u8>]>, accounts: ShardMap<u64, u64> }\n\
                    impl M { fn insert(&self, k: u64) { self.shard(&k).write().expect(\"s\").insert(k); }\n\
                    fn shard(&self, k: &u64) -> &RwLock<u8> { &self.shards[0] } }");
        let fns = w.fns_in("crates/proxy/src/x.rs");
        let ins = fns.iter().find(|f| f.def.name == "insert").unwrap();
        // `.insert(k)` rides on the fresh guard — it must not match the
        // workspace `insert` and invent a self-deadlock.
        assert!(ins.matched.iter().all(|m| m.name != "insert"));
    }

    #[test]
    fn test_code_contributes_nothing() {
        let w = ws("struct S { state: Mutex<u8> }\n\
                    #[cfg(test)] mod t { fn f(&self) { let g = self.state.lock(); } }");
        assert!(w.fns_in("crates/proxy/src/x.rs").is_empty());
    }
}
