//! The per-file audit rules (A001, A006). Each takes the loaded workspace
//! and returns machine-readable [`Finding`]s; each has a self-test seeding
//! the violation it exists to catch. A006 runs on the [`crate::syntax`]
//! event walker; the engine-backed workspace analyses live in
//! [`crate::locks`] (A008) and [`crate::blocking`] (A009).

use crate::{syntax, Finding, SourceFile};

/// The line every library crate root carries: clippy then enforces
/// CIND-A002 (no `unwrap`/`expect`/`panic!` in non-test library code).
const PANIC_LINTS: &str =
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]";

/// CIND-A001: every crate root (`src/lib.rs`, `src/main.rs`,
/// `src/bin/*.rs`) declares `#![forbid(unsafe_code)]`, and every library
/// root (`src/lib.rs`) also carries `PANIC_LINTS`.
///
/// `forbid` (not `deny`) so no inner module can re-allow it: the engine's
/// concurrency claims (sharded pool, parallel scan) rest on the borrow
/// checker, and this keeps that audit-enforced rather than convention.
/// The panic line is checked here so a new library crate cannot skip
/// CIND-A002; binaries are exempt from that rule. The toolchain cannot
/// check either line itself: a lint binds only the crates that declare it,
/// and a `[workspace.lints]` table only the members that opt in.
///
/// The attributes are read off the token stream, so one in a comment, a
/// string or a `#[cfg(test)]` region does not count, and rustfmt may wrap
/// or re-space one freely.
#[must_use]
pub fn crate_root_attributes(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| is_crate_root(&f.path)) {
        let attrs = inner_attributes(f);
        let has = |want: &str| attrs.contains(&want.replace(' ', ""));
        let finding = |message: &str| Finding {
            file: f.path.clone(),
            line: 1,
            rule: "CIND-A001",
            message: message.into(),
        };
        if !has("#![forbid(unsafe_code)]") {
            out.push(finding("crate root is missing #![forbid(unsafe_code)]"));
        }
        if is_library_root(&f.path) && !has(PANIC_LINTS) {
            out.push(finding(&format!("library crate root is missing {PANIC_LINTS}")));
        }
    }
    out
}

/// Every inner attribute (`#![…]`) among `f`'s live tokens, spelled as its
/// tokens joined without whitespace.
fn inner_attributes(f: &SourceFile) -> Vec<String> {
    let src = f.raw.as_str();
    let toks: Vec<_> = f.tokens.iter().filter(|t| !t.masked && !t.is_comment()).collect();
    let mut out = Vec::new();
    for (i, w) in toks.windows(3).enumerate() {
        if !(w[0].is_punct(src, b'#') && w[1].is_punct(src, b'!') && w[2].is_punct(src, b'[')) {
            continue;
        }
        let mut attr = String::new();
        let mut depth = 0usize;
        for t in &toks[i..] {
            attr.push_str(t.text(src));
            if t.is_punct(src, b'[') {
                depth += 1;
            } else if t.is_punct(src, b']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        out.push(attr);
    }
    out
}

fn is_library_root(path: &str) -> bool {
    path.ends_with("/src/lib.rs") || path == "src/lib.rs"
}

fn is_crate_root(path: &str) -> bool {
    is_library_root(path)
        || path.ends_with("/src/main.rs")
        || path == "src/main.rs"
        || (path.contains("/src/bin/") && path.ends_with(".rs"))
}

/// CIND-A006: no lock guard held across shard fan-out.
///
/// `ShardedEngine`'s slot locks exist only to swap an `Arc<Engine>` during
/// `reopen_shard`; every fan-out path (query fan-out, stats, validate,
/// flush/checkpoint/merge) must clone the engine handles first
/// (`engines()`) and run lock-free. A `let`-bound guard from
/// `.read()`/`.write()`/`.lock(` still live at a call that fans over every
/// shard — `.engines()`, a leg's hand-off to a standing worker
/// (`.offer(`), or the wait for the legs' answers (`.recv()`) — would
/// serialise the whole store behind one shard, the exact
/// global-writer-lock regression sharding removed. Temporary guards in
/// expression position drop within their own statement and are fine.
#[must_use]
pub fn shard_fanout_lock_freedom(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !f.path.ends_with("server/src/sharded.rs") {
            continue;
        }
        out.extend(fanout_findings(f));
    }
    out
}

/// Any guard (`.lock(`/`.read()`/`.write()`, `let`-bound) still live at a
/// fan-out call: `.engines()`, the hand-off `.offer(…)`, or the collect
/// `.recv()`.
fn fanout_findings(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for func in syntax::functions(f) {
        for ev in syntax::events(f, &func) {
            if let syntax::Event::Call { line, name, empty_args, held, .. } = &ev {
                let fans_out = match name.as_str() {
                    "engines" | "recv" => *empty_args,
                    "offer" => true,
                    _ => false,
                };
                if fans_out && !held.is_empty() {
                    out.push(Finding {
                        file: f.path.clone(),
                        line: *line,
                        rule: "CIND-A006",
                        message: "lock guard held across a shard fan-out call \
                                  (clone the engine handles first, then drop the guard)"
                            .into(),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, raw: &str) -> SourceFile {
        SourceFile::new(path, raw)
    }

    // ---- CIND-A001 -----------------------------------------------------

    const FORBID: &str = "#![forbid(unsafe_code)]\n";

    fn lib_root(attrs: &str) -> SourceFile {
        file("crates/x/src/lib.rs", &format!("{attrs}pub fn f() {{}}\n"))
    }

    #[test]
    fn a001_catches_missing_forbid_and_accepts_present() {
        let bad = lib_root(&format!("//! docs\n{PANIC_LINTS}\n"));
        let non_root = file("crates/x/src/inner.rs", "pub fn f() {}\n");
        let found = crate_root_attributes(&[bad, non_root]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "CIND-A001");
        assert_eq!(found[0].line, 1);
        assert!(found[0].message.contains("forbid(unsafe_code)"), "{found:?}");
        assert!(crate_root_attributes(&[lib_root(&format!("{FORBID}{PANIC_LINTS}\n"))])
            .is_empty());
    }

    #[test]
    fn a001_covers_bin_targets_and_root_package() {
        let bins = [
            file("crates/bench/src/bin/fig4.rs", "fn main() {}\n"),
            file("crates/cli/src/main.rs", "fn main() {}\n"),
            file("src/lib.rs", "pub mod x;\n"),
        ];
        let found = crate_root_attributes(&bins);
        let files: Vec<&str> = found.iter().map(|f| f.file.as_str()).collect();
        // Each root lacks the forbid; the library root lacks the panic line too.
        assert_eq!(
            files,
            ["crates/bench/src/bin/fig4.rs", "crates/cli/src/main.rs", "src/lib.rs", "src/lib.rs"],
            "{found:?}"
        );
    }

    #[test]
    fn a001_flags_a_library_root_without_the_panic_lints() {
        let found = crate_root_attributes(&[lib_root(FORBID)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "CIND-A001");
        assert!(found[0].message.contains(PANIC_LINTS), "{found:?}");
        // A narrower line (the `panic` lint dropped) does not pass for it.
        let narrower = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n";
        assert_eq!(crate_root_attributes(&[lib_root(&format!("{FORBID}{narrower}"))]).len(), 1);
    }

    #[test]
    fn a001_does_not_require_the_panic_lints_of_binaries() {
        let bins = [
            file("crates/cli/src/main.rs", &format!("{FORBID}fn main() {{}}\n")),
            file("crates/bench/src/bin/fig4.rs", &format!("{FORBID}fn main() {{}}\n")),
            file("src/main.rs", &format!("{FORBID}fn main() {{}}\n")),
        ];
        let found = crate_root_attributes(&bins);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn a001_accepts_the_exact_panic_lint_line() {
        let good = [
            lib_root(&format!("{FORBID}{PANIC_LINTS}\n")),
            file("src/lib.rs", &format!("//! Root.\n{FORBID}{PANIC_LINTS}\npub mod x;\n")),
        ];
        let found = crate_root_attributes(&good);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn a001_reads_attribute_tokens_not_comments_or_layout() {
        // rustfmt's wrapping of the long panic line still counts …
        let wrapped = "#![cfg_attr(\n    not(test),\n    deny(clippy::unwrap_used, \
                       clippy::expect_used, clippy::panic)\n)]\n";
        assert!(crate_root_attributes(&[lib_root(&format!("{FORBID}{wrapped}"))]).is_empty());
        // … but an attribute in a comment, a string or test code does not.
        for hidden in [
            format!("// {}", FORBID),
            format!("const S: &str = \"{}\";\n", FORBID.trim_end()),
            format!("#[cfg(test)]\nmod t {{\n{FORBID}}}\n"),
        ] {
            let found = crate_root_attributes(&[lib_root(&format!("{hidden}{PANIC_LINTS}\n"))]);
            assert_eq!(found.len(), 1, "{hidden}: {found:?}");
            assert!(found[0].message.contains("forbid(unsafe_code)"), "{found:?}");
        }
    }

    // ---- CIND-A006 -----------------------------------------------------

    #[test]
    fn a006_catches_guard_held_across_engines_fanout() {
        let bad = file(
            "crates/server/src/sharded.rs",
            "fn stats(&self) {\n    let guard = self.slots[0].read();\n    \
             for e in self.engines() { e.stats(); }\n    drop(guard);\n}\n",
        );
        let found = shard_fanout_lock_freedom(&[bad]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "CIND-A006");
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn a006_catches_guard_held_across_a_leg_hand_off_or_collect() {
        let bad = file(
            "crates/server/src/sharded.rs",
            "fn query(&self) {\n    let g = self.slots[1].write();\n    \
             self.legs.offer(|| job());\n    let _ = answers.recv();\n}\n",
        );
        let found = shard_fanout_lock_freedom(&[bad]);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 4], "{found:?}");
    }

    #[test]
    fn a006_accepts_the_lock_free_leg_fan_out() {
        let good = file(
            "crates/server/src/sharded.rs",
            "fn query_legs(&self) {\n    let engines = self.engines();\n    \
             let (answer, answers) = channel();\n    \
             for e in &engines[1..] { self.legs.offer(|| job(e, answer.clone())); }\n    \
             drop(answer);\n    let leg = engines[0].query_leg(attrs);\n    \
             while let Ok(leg) = answers.recv() { legs.push(leg); }\n}\n",
        );
        assert!(shard_fanout_lock_freedom(&[good]).is_empty());
    }

    #[test]
    fn a006_accepts_clone_first_then_lock_free_fanout() {
        let good = file(
            "crates/server/src/sharded.rs",
            "fn ok(&self) {\n    let engines = self.engines();\n    \
             for e in engines { e.flush(); }\n    \
             let mut guard = self.slots[0].write();\n    *guard = new_engine();\n}\n",
        );
        assert!(shard_fanout_lock_freedom(&[good]).is_empty());
    }

    #[test]
    fn a006_releases_guards_when_their_block_closes() {
        let good = file(
            "crates/server/src/sharded.rs",
            "fn ok(&self) {\n    {\n        let g = self.slots[0].read();\n        \
             drop(g);\n    }\n    for e in self.engines() { e.flush(); }\n}\n",
        );
        assert!(shard_fanout_lock_freedom(&[good]).is_empty());
    }

    #[test]
    fn a006_ignores_other_files() {
        let elsewhere = file(
            "crates/server/src/server.rs",
            "fn f(&self) { let g = self.lock.read(); self.engines(); drop(g); }\n",
        );
        assert!(shard_fanout_lock_freedom(&[elsewhere]).is_empty());
    }
}
