//! The brace-tree: function/impl scoping and the guard-tracking event
//! walker every structural rule (A006, A008, A009) runs on.
//!
//! [`functions`] finds every `fn` body in a file together with the impl
//! type it belongs to; [`events`] walks one body and emits a flat event
//! stream — lock acquisitions, method calls, `path::calls` — each carrying
//! a snapshot of the lock guards lexically live at that point.
//!
//! Guard tracking is deliberately conservative and mirrors the original
//! byte-walkers (`tests/differential.rs` keeps A006's as the reference): a `let`-bound guard from `.lock(…)` /
//! `.read()` / `.write()` is held until its enclosing block closes or a
//! `drop(<var>)` names it. Expression-position temporaries
//! (`self.write().table.flush()`) and non-`let` reassignments
//! (`st = self.lock()`) are *not* tracked — a documented under-approximation
//! (see DESIGN.md §14), never a source of false positives.

use crate::lexer::{Token, TokenKind};
use crate::scan::line_of;
use crate::SourceFile;

/// One `fn` body with its lexical context.
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` target type (`impl Engine`, `impl Display for X`
    /// → `X`), if any.
    pub impl_type: Option<String>,
    /// Token-index range of the body: first token after `{` .. index of
    /// the matching `}`.
    pub body: std::ops::Range<usize>,
}

/// A lock guard lexically live at an event.
#[derive(Clone, Debug)]
pub struct Held {
    /// Lock class ([`lock_class`]).
    pub class: String,
    /// Acquiring method: `lock`, `read`, or `write`.
    pub method: String,
    /// The `let`-bound variable name, when one could be parsed.
    pub var: Option<String>,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Brace depth the binding lives at (internal: release bookkeeping).
    depth: usize,
}

/// One event in a function body, with the guards held at that point.
#[derive(Debug)]
pub enum Event {
    /// A lock acquisition: `.lock(…)`, or empty-args `.read()`/`.write()`.
    /// `held` is the snapshot *before* this guard is added.
    Acquire {
        /// 1-based line.
        line: usize,
        /// Lock class ([`lock_class`]).
        class: String,
        /// `lock` / `read` / `write`.
        method: String,
        /// Whether the statement `let`-binds the guard (tracked past the
        /// statement) or drops it as a temporary.
        let_bound: bool,
        /// Guards live before this acquisition.
        held: Vec<Held>,
    },
    /// Any other method call `.name(…)`.
    Call {
        /// 1-based line.
        line: usize,
        /// Method name.
        name: String,
        /// Receiver tail identifier (`self.cond.wait(…)` → `cond`), when
        /// one could be resolved.
        recv_tail: Option<String>,
        /// `()` — no arguments.
        empty_args: bool,
        /// First argument when it is a bare identifier (`wait(st)` → `st`).
        first_arg_ident: Option<String>,
        /// Guards live at the call.
        held: Vec<Held>,
    },
    /// A `prefix::name` path mention (`thread::sleep`, `thread::scope`).
    PathCall {
        /// 1-based line.
        line: usize,
        /// `prefix::name` (last two path segments).
        path: String,
        /// Guards live at the mention.
        held: Vec<Held>,
    },
}

/// Names the lock class of an acquisition or channel endpoint from its
/// receiver tail: `self` resolves to the impl type (so `self.lock()`
/// helpers and their call sites unify), anything else is the tail
/// identifier depluralized (`slots[0]` and `slot` are one class).
#[must_use]
pub fn lock_class(tail: Option<&str>, impl_type: Option<&str>) -> String {
    match tail {
        Some("self") => impl_type.unwrap_or("self").to_owned(),
        Some(t) => depluralize(t),
        None => "<expr>".to_owned(),
    }
}

fn depluralize(s: &str) -> String {
    if s.len() > 3 && s.ends_with('s') && !s.ends_with("ss") {
        s[..s.len() - 1].to_owned()
    } else {
        s.to_owned()
    }
}

fn next_code(toks: &[Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !toks[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

fn prev_code(toks: &[Token], i: usize, lo: usize) -> Option<usize> {
    let mut j = i;
    while j > lo {
        j -= 1;
        if !toks[j].is_comment() {
            return Some(j);
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(toks: &[Token], src: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(src, b'{') {
            depth += 1;
        } else if t.is_punct(src, b'}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// From the token after `fn <name>`, the body's `{` index — skipping the
/// signature (parens balanced; a `;` at paren depth 0 means no body).
fn body_open(toks: &[Token], src: &str, from: usize) -> Option<usize> {
    let mut paren = 0i64;
    for (j, t) in toks.iter().enumerate().skip(from) {
        if t.is_comment() {
            continue;
        }
        if t.is_punct(src, b'(') {
            paren += 1;
        } else if t.is_punct(src, b')') {
            paren -= 1;
        } else if paren == 0 && t.is_punct(src, b'{') {
            return Some(j);
        } else if paren == 0 && t.is_punct(src, b';') {
            return None;
        }
    }
    None
}

/// The target type of an `impl` header starting after the `impl` keyword:
/// the last ident at angle-bracket depth 0 before the body `{` (so
/// `impl Trait for Type` → `Type`, `impl Engine<K>` → `Engine`), plus the
/// body-`{` token index.
fn impl_header(toks: &[Token], src: &str, from: usize) -> Option<(String, usize)> {
    let mut angle = 0i64;
    let mut ty: Option<String> = None;
    let mut j = from;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        match t.kind {
            TokenKind::Punct => match src.as_bytes()[t.start] {
                b'<' => angle += 1,
                // `->` inside an `impl Fn(…) -> T` bound must not close
                // a generic.
                b'>' if !(j > from && toks[j - 1].is_punct(src, b'-')) => angle -= 1,
                b'{' if angle <= 0 => return ty.map(|t| (t, j)),
                b';' if angle <= 0 => return None,
                _ => {}
            },
            TokenKind::Ident => {
                let text = t.text(src);
                if angle <= 0 && text == "where" {
                    // Type settled; skip the clause to the body brace.
                    let open = (j..toks.len()).find(|&k| toks[k].is_punct(src, b'{'))?;
                    return ty.map(|t| (t, open));
                }
                if angle <= 0 && !matches!(text, "for" | "dyn" | "mut" | "const" | "unsafe") {
                    ty = Some(text.to_owned());
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Every function body in the file, with nesting and `impl` context
/// resolved. `#[cfg(test)]` items are skipped (their tokens are masked).
#[must_use]
pub fn functions(f: &SourceFile) -> Vec<Function> {
    let toks = &f.tokens;
    let src = &f.raw;
    let mut out = Vec::new();
    // Stack of (end-token-index, impl target type).
    let mut impls: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while impls.last().is_some_and(|&(end, _)| i >= end) {
            impls.pop();
        }
        let t = &toks[i];
        if t.masked || t.is_comment() {
            i += 1;
            continue;
        }
        if t.is_ident(src, "impl") {
            if let Some((ty, open)) = impl_header(toks, src, i + 1) {
                if let Some(end) = match_brace(toks, src, open) {
                    impls.push((end, ty));
                }
                i = open + 1;
                continue;
            }
        }
        if t.is_ident(src, "fn") {
            if let Some(ni) = next_code(toks, i + 1) {
                if toks[ni].kind == TokenKind::Ident {
                    if let Some(open) = body_open(toks, src, ni + 1) {
                        if let Some(close) = match_brace(toks, src, open) {
                            out.push(Function {
                                name: toks[ni].text(src).to_owned(),
                                impl_type: impls.last().map(|(_, ty)| ty.clone()),
                                body: open + 1..close,
                            });
                        }
                    }
                    // Keep scanning from just past the name so nested fns
                    // inside this body are discovered too.
                    i = ni + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Receiver tail ident of a method call, backtracking from its `.` token:
/// `state.lock()` → `state`; `self.shard(key).lock()` → `shard` (balance
/// the call parens); `self.slots[0].read()` → `slots` (balance the index);
/// `self.0.drain()` → `self` (skip the tuple field).
fn recv_tail(toks: &[Token], src: &str, dot: usize, lo: usize) -> Option<String> {
    let mut j = prev_code(toks, dot, lo)?;
    loop {
        match toks[j].kind {
            TokenKind::Ident => return Some(toks[j].text(src).to_owned()),
            TokenKind::Num => {
                // Tuple field: `recv.0.send(…)` — hop over `.` and resolve
                // the receiver proper.
                j = prev_code(toks, j, lo)?;
                if !toks[j].is_punct(src, b'.') {
                    return None;
                }
                j = prev_code(toks, j, lo)?;
            }
            TokenKind::Punct => {
                let (close, open) = match src.as_bytes()[toks[j].start] {
                    b')' => (b')', b'('),
                    b']' => (b']', b'['),
                    _ => return None,
                };
                let mut depth = 0i64;
                loop {
                    let t = &toks[j];
                    if t.is_punct(src, close) {
                        depth += 1;
                    } else if t.is_punct(src, open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j = prev_code(toks, j, lo)?;
                }
                j = prev_code(toks, j, lo)?;
            }
            _ => return None,
        }
    }
}

/// `let [mut] <ident>` → the ident; destructuring patterns give `None`.
fn let_var(toks: &[Token], src: &str, after_let: usize) -> Option<String> {
    let mut j = next_code(toks, after_let)?;
    if toks[j].is_ident(src, "mut") {
        j = next_code(toks, j + 1)?;
    }
    (toks[j].kind == TokenKind::Ident).then(|| toks[j].text(src).to_owned())
}

/// Walks one function body and emits its event stream. Guards held are
/// tracked exactly as the legacy byte-walkers did (see module docs);
/// nested `fn` items are skipped (they get their own walk).
#[must_use]
pub fn events(f: &SourceFile, func: &Function) -> Vec<Event> {
    let src = &f.raw;
    let toks = &f.tokens;
    let lo = func.body.start;
    let mut out = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_is_let = false;
    let mut bound_var: Option<String> = None;
    let mut i = lo;
    while i < func.body.end {
        let t = &toks[i];
        if t.is_comment() || t.masked {
            i += 1;
            continue;
        }
        match t.kind {
            TokenKind::Punct => match src.as_bytes()[t.start] {
                b'{' => {
                    depth += 1;
                    stmt_is_let = false;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                    stmt_is_let = false;
                }
                b';' => {
                    stmt_is_let = false;
                    bound_var = None;
                }
                b'.' => {
                    if let Some(ev) =
                        method_call(toks, src, i, lo, &held, func, stmt_is_let)
                    {
                        // Guard bookkeeping for acquisitions.
                        if let Event::Acquire { line, class, method, let_bound: true, .. } = &ev
                        {
                            held.push(Held {
                                class: class.clone(),
                                method: method.clone(),
                                var: bound_var.clone(),
                                line: *line,
                                depth,
                            });
                        }
                        out.push(ev);
                    }
                }
                _ => {}
            },
            TokenKind::Ident => {
                let text = t.text(src);
                match text {
                    "let" => {
                        stmt_is_let = true;
                        bound_var = let_var(toks, src, i + 1);
                    }
                    "fn" => {
                        // Nested fn item: its body is not this function's
                        // critical section — skip it.
                        if let Some(ni) = next_code(toks, i + 1) {
                            if let Some(open) = body_open(toks, src, ni + 1) {
                                if let Some(close) = match_brace(toks, src, open) {
                                    i = close + 1;
                                    continue;
                                }
                            }
                        }
                    }
                    "drop" => {
                        // `drop(g)` releases the named guard early.
                        if let Some(p) = next_code(toks, i + 1) {
                            if toks[p].is_punct(src, b'(') {
                                if let Some(a) = next_code(toks, p + 1) {
                                    if toks[a].kind == TokenKind::Ident {
                                        if let Some(c) = next_code(toks, a + 1) {
                                            if toks[c].is_punct(src, b')') {
                                                let name = toks[a].text(src);
                                                held.retain(|h| {
                                                    h.var.as_deref() != Some(name)
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    _ => {
                        // `prefix::name` path mention.
                        if let Some(c2) = prev_code(toks, i, lo) {
                            if toks[c2].is_punct(src, b':') {
                                if let Some(c1) = prev_code(toks, c2, lo) {
                                    if toks[c1].is_punct(src, b':') {
                                        if let Some(pi) = prev_code(toks, c1, lo) {
                                            if toks[pi].kind == TokenKind::Ident {
                                                out.push(Event::PathCall {
                                                    line: line_of(src, t.start),
                                                    path: format!(
                                                        "{}::{}",
                                                        toks[pi].text(src),
                                                        text
                                                    ),
                                                    held: held.clone(),
                                                });
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Builds the event for the method call whose `.` is at token `dot`, if
/// `.` + ident + `(` is what follows. Acquisitions (`lock` with any args,
/// empty-args `read`/`write`) become [`Event::Acquire`]; everything else
/// is an [`Event::Call`].
fn method_call(
    toks: &[Token],
    src: &str,
    dot: usize,
    lo: usize,
    held: &[Held],
    func: &Function,
    stmt_is_let: bool,
) -> Option<Event> {
    let ni = next_code(toks, dot + 1)?;
    if toks[ni].kind != TokenKind::Ident {
        return None;
    }
    let oi = next_code(toks, ni + 1)?;
    if !toks[oi].is_punct(src, b'(') {
        return None;
    }
    let name = toks[ni].text(src).to_owned();
    let ai = next_code(toks, oi + 1)?;
    let empty_args = toks[ai].is_punct(src, b')');
    let first_arg_ident =
        (toks[ai].kind == TokenKind::Ident).then(|| toks[ai].text(src).to_owned());
    let line = line_of(src, toks[ni].start);
    let tail = recv_tail(toks, src, dot, lo);
    let acquires =
        name == "lock" || ((name == "read" || name == "write") && empty_args);
    if acquires {
        Some(Event::Acquire {
            line,
            class: lock_class(tail.as_deref(), func.impl_type.as_deref()),
            method: name,
            let_bound: stmt_is_let,
            held: held.to_vec(),
        })
    } else {
        Some(Event::Call {
            line,
            name,
            recv_tail: tail,
            empty_args,
            first_arg_ident,
            held: held.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs", src)
    }

    #[test]
    fn finds_functions_with_impl_context() {
        let f = file(
            "impl Engine {\n    fn write_op(&self) {}\n}\n\
             impl fmt::Display for Finding {\n    fn fmt(&self) {}\n}\n\
             fn free() {}\n",
        );
        let fns = functions(&f);
        let got: Vec<(String, Option<String>)> =
            fns.iter().map(|f| (f.name.clone(), f.impl_type.clone())).collect();
        assert_eq!(
            got,
            vec![
                ("write_op".into(), Some("Engine".into())),
                ("fmt".into(), Some("Finding".into())),
                ("free".into(), None),
            ]
        );
    }

    #[test]
    fn generic_impls_resolve_to_the_type() {
        let f = file(
            "impl<K: Ord> Engine<K> {\n    fn get(&self) {}\n}\n\
             impl<T> From<T> for Wrapper<T> where T: Clone {\n    fn from(_: T) {}\n}\n",
        );
        let fns = functions(&f);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Engine"));
        assert_eq!(fns[1].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn cfg_test_functions_are_skipped() {
        let f = file(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() {}\n}\n",
        );
        let fns = functions(&f);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    fn events_of(src: &str) -> Vec<Event> {
        let f = file(src);
        let fns = functions(&f);
        assert_eq!(fns.len(), 1, "test source must hold exactly one fn");
        events(&f, &fns[0])
    }

    #[test]
    fn let_bound_guard_is_held_until_block_close() {
        let evs = events_of(
            "fn f(&self) {\n    {\n        let g = self.state.lock().unwrap();\n        \
             self.file.sync_all();\n    }\n    self.file.sync_all();\n}\n",
        );
        let syncs: Vec<&Event> = evs
            .iter()
            .filter(|e| matches!(e, Event::Call { name, .. } if name == "sync_all"))
            .collect();
        assert_eq!(syncs.len(), 2);
        let held_at = |e: &Event| match e {
            Event::Call { held, .. } => held.len(),
            _ => 0,
        };
        assert_eq!(held_at(syncs[0]), 1, "inside the block the guard is live");
        assert_eq!(held_at(syncs[1]), 0, "after the block it is gone");
    }

    #[test]
    fn drop_releases_by_name() {
        let evs = events_of(
            "fn f(&self) {\n    let st = self.state.lock().unwrap();\n    drop(st);\n    \
             self.file.sync_all();\n}\n",
        );
        let sync = evs
            .iter()
            .find(|e| matches!(e, Event::Call { name, .. } if name == "sync_all"))
            .unwrap();
        match sync {
            Event::Call { held, .. } => assert!(held.is_empty(), "{held:?}"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn expression_temporaries_are_not_tracked() {
        let evs = events_of(
            "fn f(&self) {\n    self.state.lock().unwrap().push(1);\n    \
             self.file.sync_all();\n}\n",
        );
        let sync = evs
            .iter()
            .find(|e| matches!(e, Event::Call { name, .. } if name == "sync_all"))
            .unwrap();
        match sync {
            Event::Call { held, .. } => assert!(held.is_empty(), "{held:?}"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn receiver_tails_resolve_through_calls_indexes_and_tuples() {
        let evs = events_of(
            "fn f(&self) {\n    let a = self.shard(key).lock().unwrap();\n    \
             let b = self.slots[0].read();\n    self.0.send(x);\n}\n",
        );
        let classes: Vec<String> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { class, .. } => Some(class.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(classes, vec!["shard".to_owned(), "slot".to_owned()]);
        let send = evs
            .iter()
            .find(|e| matches!(e, Event::Call { name, .. } if name == "send"))
            .unwrap();
        match send {
            Event::Call { recv_tail, .. } => {
                assert_eq!(recv_tail.as_deref(), Some("self"));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn self_receiver_unifies_on_the_impl_type() {
        let f = file(
            "impl GroupCommit {\n    fn submit(&self) {\n        \
             let mut st = self.lock();\n        st.queue.push(1);\n    }\n}\n",
        );
        let fns = functions(&f);
        let evs = events(&f, &fns[0]);
        match &evs[0] {
            Event::Acquire { class, let_bound, .. } => {
                assert_eq!(class, "GroupCommit");
                assert!(let_bound);
            }
            other => panic!("expected acquire, got {other:?}"),
        }
    }

    #[test]
    fn path_calls_are_reported_with_held_guards() {
        let evs = events_of(
            "fn f(&self) {\n    let g = self.m.lock().unwrap();\n    \
             std::thread::sleep(d);\n    drop(g);\n}\n",
        );
        let sleep = evs
            .iter()
            .find(|e| matches!(e, Event::PathCall { path, .. } if path == "thread::sleep"))
            .expect("sleep path call");
        match sleep {
            Event::PathCall { held, .. } => assert_eq!(held.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nested_fn_bodies_are_skipped() {
        let f = file(
            "fn outer(&self) {\n    let g = self.m.lock().unwrap();\n    \
             fn helper(f: &File) { f.sync_all().ok(); }\n    let _ = g;\n}\n",
        );
        let fns = functions(&f);
        // Both the outer fn and the nested helper are discovered …
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "helper"]);
        // … but the helper's body is not part of the outer fn's walk, so
        // its sync_all never sees the outer guard.
        let evs = events(&f, &fns[0]);
        assert!(
            !evs.iter()
                .any(|e| matches!(e, Event::Call { name, .. } if name == "sync_all")),
            "{evs:?}"
        );
    }
}
