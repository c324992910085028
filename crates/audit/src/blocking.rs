//! CIND-A009: no blocking call while a lock guard is live.
//!
//! One engine-backed analysis over every lock in the workspace: every
//! function body in non-test library code is walked and every *blocking*
//! operation — file sync, socket/WAL writes, `Vfs` I/O, channel
//! send/recv, condvar waits, `thread::join`/`thread::sleep` — that is
//! lexically reachable while a `let`-bound lock guard is held becomes a
//! finding. A condvar `wait(st)`/`wait_timeout(st, …)` releases the guard
//! it is handed, so that guard is excluded from the held set at the call.
//!
//! The analysis is lexical, per function: a blocking call inside a callee
//! is not attributed to the caller's guard. That keeps it zero-surprise
//! and fast; the cross-function lock story is A008's graph.
//!
//! ## The allow contract
//!
//! A justified hold is annotated in a *comment* (never matched inside
//! strings — those are blanked):
//!
//! ```text
//! // audit:allow(RULE, why this hold is sound)
//! ```
//!
//! with `A009` or `CIND-A009` as the RULE. Placement decides scope: a
//! trailing comment covers its own line; a comment on its own line covers
//! the next code line — or, when that next item is a `fn`, the whole
//! function body. Every allow must be load-bearing: an allow without a
//! reason is a finding, and so is a stale allow that suppresses nothing —
//! the annotation cannot outlive the code it excuses.

use crate::scan::line_of;
use crate::syntax::{self, Event, Held};
use crate::{Finding, SourceFile};

const RULE: &str = "CIND-A009";

/// CIND-A009 entry point.
#[must_use]
pub fn blocking_in_critical_section(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        // Binaries (`main.rs`, `src/bin/`) are out of scope: the rule
        // protects code other crates link against.
        if f.path.ends_with("/main.rs") || f.path.contains("/src/bin/") {
            continue;
        }
        let allows = parse_allows(f);
        let mut used = vec![false; allows.len()];
        for finding in raw_findings(f) {
            let suppressed = allows.iter().enumerate().any(|(i, a)| {
                let hit = a.rule == RULE && a.has_reason && a.covers(finding.line);
                used[i] |= hit;
                hit
            });
            if !suppressed {
                out.push(finding);
            }
        }
        for (a, used) in allows.iter().zip(used) {
            if !a.has_reason {
                out.push(Finding {
                    file: f.path.clone(),
                    line: a.line,
                    rule: RULE,
                    message: format!(
                        "audit:allow({}) without a reason — every allow must say why \
                         the hold is sound",
                        a.short
                    ),
                });
            } else if !used {
                out.push(Finding {
                    file: f.path.clone(),
                    line: a.line,
                    rule: RULE,
                    message: format!(
                        "stale audit:allow({}) — it suppresses no finding; remove it",
                        a.short
                    ),
                });
            }
        }
    }
    out
}

/// Is a call with this name (and argument shape) blocking?
///
/// Names with argument-shape conditions: `flush`/`recv`/`join`/`drain`
/// only with empty parens (`slice.join(", ")` and `vec.drain(..)` are
/// not blocking), `read` only *with* arguments (empty-args `.read()` is a
/// `RwLock` acquisition, the walker's domain).
fn is_blocking(name: &str, empty_args: bool) -> bool {
    match name {
        "sync" | "sync_all" | "sync_data" | "write_all" | "flush_wal" | "snapshot_to"
        | "create" | "send" | "recv_timeout" | "wait" | "wait_timeout" | "wait_durable" => {
            true
        }
        "flush" | "recv" | "join" | "drain" => empty_args,
        "read" => !empty_args,
        _ => false,
    }
}

fn raw_findings(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for func in syntax::functions(f) {
        for ev in syntax::events(f, &func) {
            let (line, call, held) = match &ev {
                Event::Call { line, name, empty_args, first_arg_ident, held, .. }
                    if is_blocking(name, *empty_args) =>
                {
                    // A condvar wait releases the guard it consumes.
                    let held: Vec<&Held> = if name == "wait" || name == "wait_timeout" {
                        held.iter()
                            .filter(|h| h.var.as_deref() != first_arg_ident.as_deref())
                            .collect()
                    } else {
                        held.iter().collect()
                    };
                    (*line, format!(".{name}("), held)
                }
                Event::PathCall { line, path, held } if path == "thread::sleep" => {
                    (*line, path.clone(), held.iter().collect())
                }
                _ => continue,
            };
            if let Some(h) = held.last() {
                out.push(Finding {
                    file: f.path.clone(),
                    line,
                    rule: RULE,
                    message: format!(
                        "blocking `{call}` while holding lock guard on `{}` \
                         (acquired line {}) — move it outside the critical section \
                         or annotate why the hold is sound",
                        h.class, h.line
                    ),
                });
            }
        }
    }
    out
}

/// One parsed allow annotation and the line range it covers.
struct Allow {
    /// Normalized rule id, `CIND-Axxx`.
    rule: String,
    /// The rule exactly as written (for messages).
    short: String,
    /// Line of the annotation itself.
    line: usize,
    has_reason: bool,
    from: usize,
    to: usize,
}

impl Allow {
    fn covers(&self, line: usize) -> bool {
        self.from <= line && line <= self.to
    }
}

/// Extracts every `audit:allow(<rule>[, <reason>])` from the file's
/// comment tokens. Text whose rule is not `Annn`/`CIND-Annn` is prose,
/// not an annotation.
fn parse_allows(f: &SourceFile) -> Vec<Allow> {
    const NEEDLE: &str = "audit:allow(";
    let mut out = Vec::new();
    for (idx, tok) in f.tokens.iter().enumerate() {
        if !tok.is_comment() || tok.masked {
            continue;
        }
        let text = tok.text(&f.raw);
        let mut from = 0;
        while let Some(pos) = text[from..].find(NEEDLE) {
            let inner_start = from + pos + NEEDLE.len();
            from = inner_start;
            let Some(close) = text[inner_start..].find(')') else { break };
            let inner = &text[inner_start..inner_start + close];
            let (rule_txt, reason) = match inner.split_once(',') {
                Some((r, rest)) => (r.trim(), Some(rest.trim())),
                None => (inner.trim(), None),
            };
            let Some(rule) = normalize_rule(rule_txt) else { continue };
            let line = line_of(&f.raw, tok.start);
            let (scope_from, scope_to) = allow_scope(f, idx, line);
            out.push(Allow {
                rule,
                short: rule_txt.to_owned(),
                line,
                has_reason: reason.is_some_and(|r| !r.is_empty()),
                from: scope_from,
                to: scope_to,
            });
        }
    }
    out
}

/// `A9`/`A009`/`CIND-A009` → `CIND-A009`; anything else is not a rule id.
fn normalize_rule(s: &str) -> Option<String> {
    let digits = s.strip_prefix("CIND-").unwrap_or(s).strip_prefix('A')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(format!("CIND-A{:03}", digits.parse::<u32>().ok()?))
}

/// The line range an allow at comment-token `idx` covers (see module docs).
fn allow_scope(f: &SourceFile, idx: usize, comment_line: usize) -> (usize, usize) {
    let toks = &f.tokens;
    let src = &f.raw;
    // Trailing comment: code earlier on the same line.
    let trailing = toks[..idx].iter().any(|t| {
        !t.is_comment() && line_of(src, t.start) == comment_line
    });
    if trailing {
        return (comment_line, comment_line);
    }
    // Own line: find the next code token.
    let Some(next) = toks[idx + 1..]
        .iter()
        .position(|t| !t.is_comment() && !t.masked)
        .map(|p| idx + 1 + p)
    else {
        return (comment_line, comment_line);
    };
    // If a `fn` keyword appears before the first `{`, the allow covers the
    // whole function body (attributes between the comment and the fn are
    // fine — they carry no braces).
    let mut saw_fn = false;
    for (j, t) in toks.iter().enumerate().skip(next) {
        if t.is_comment() {
            continue;
        }
        if t.is_ident(src, "fn") {
            saw_fn = true;
        } else if t.is_punct(src, b'{') {
            if saw_fn {
                let mut depth = 0i64;
                for t2 in &toks[j..] {
                    if t2.is_punct(src, b'{') {
                        depth += 1;
                    } else if t2.is_punct(src, b'}') {
                        depth -= 1;
                        if depth == 0 {
                            return (comment_line, line_of(src, t2.start));
                        }
                    }
                }
            }
            break;
        } else if t.is_punct(src, b';') {
            break;
        }
    }
    let next_line = line_of(src, toks[next].start);
    (next_line, next_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::new("crates/x/src/lib.rs", src)
    }

    #[test]
    fn sync_under_guard_is_a_finding() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    \
             self.file.sync_all().unwrap();\n}\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "CIND-A009");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`.sync_all(`"), "{}", found[0].message);
        assert!(found[0].message.contains("acquired line 2"), "{}", found[0].message);
    }

    #[test]
    fn sync_without_guard_is_clean() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    drop(g);\n    \
             self.file.sync_all().unwrap();\n}\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn condvar_wait_releases_its_own_guard() {
        let clean = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let mut st = self.state.lock().unwrap();\n    \
             st = self.cond.wait(st).unwrap();\n    let _ = st;\n}\n",
        )]);
        assert!(clean.is_empty(), "{clean:?}");
        // But waiting while holding a *different* guard still blocks it.
        let dirty = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let other = self.io.lock().unwrap();\n    \
             let mut st = self.state.lock().unwrap();\n    \
             st = self.cond.wait(st).unwrap();\n}\n",
        )]);
        assert_eq!(dirty.len(), 1, "{dirty:?}");
        assert_eq!(dirty[0].line, 4);
    }

    #[test]
    fn argful_join_and_drain_are_not_blocking() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    \
             let s = parts.join(sep);\n    q.drain(range);\n}\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn socket_read_with_args_blocks_but_rwlock_read_does_not() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.slots[0].read();\n    \
             self.stream.read(buf).unwrap();\n}\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn trailing_allow_with_reason_suppresses_the_line() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.rx.lock().unwrap();\n    \
             g.recv_timeout(d) // audit:allow(A009, receiver usable only under its mutex)\n}\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn own_line_allow_covers_the_next_code_line() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.rx.lock().unwrap();\n    \
             // audit:allow(A009, bounded poll under the receiver mutex)\n    \
             let t = g.recv_timeout(d);\n}\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn fn_scoped_allow_covers_the_whole_body() {
        let found = blocking_in_critical_section(&[file(
            "// audit:allow(A009, shutdown-only: the write lock must span the I/O)\n\
             fn checkpoint(&self) {\n    let g = self.state.write();\n    \
             self.file.sync_all().unwrap();\n    self.vfs.create(p).unwrap();\n}\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn allow_without_reason_is_a_finding_and_does_not_suppress() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    \
             self.file.sync_all().unwrap(); // audit:allow(A009)\n}\n",
        )]);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|f| f.message.contains("without a reason")), "{found:?}");
        assert!(found.iter().any(|f| f.message.contains("`.sync_all(`")), "{found:?}");
    }

    #[test]
    fn stale_allow_is_a_finding() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    // audit:allow(A009, historical; the sync moved away)\n    \
             let x = 1;\n}\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("stale audit:allow(A009)"), "{}", found[0].message);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn prose_mentioning_the_format_is_not_an_annotation() {
        let found = blocking_in_critical_section(&[file(
            "// Write audit:allow(RULE, reason) to justify a hold.\nfn f() {}\n",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn strings_never_carry_allows() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    \
             let s = \"audit:allow(A009, nice try)\";\n    \
             self.file.sync_all().unwrap();\n}\n",
        )]);
        assert_eq!(found.len(), 1, "the string is not an annotation: {found:?}");
    }

    #[test]
    fn binaries_are_out_of_scope() {
        let f = SourceFile::new(
            "crates/x/src/main.rs",
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    \
             self.file.sync_all().unwrap();\n}\n",
        );
        assert!(blocking_in_critical_section(&[f]).is_empty());
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let f = file(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t(&self) {\n        \
             let g = self.state.lock().unwrap();\n        \
             self.file.sync_all().unwrap();\n    }\n}\n",
        );
        assert!(blocking_in_critical_section(&[f]).is_empty());
    }

    #[test]
    fn thread_sleep_under_guard_is_a_finding() {
        let found = blocking_in_critical_section(&[file(
            "fn f(&self) {\n    let g = self.state.lock().unwrap();\n    \
             std::thread::sleep(d);\n}\n",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("thread::sleep"), "{}", found[0].message);
    }
}
