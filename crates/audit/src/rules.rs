//! The line-level audit rules (A001, A003, A004, A006, A007). Each takes
//! the loaded workspace and returns machine-readable [`Finding`]s; each has
//! a self-test seeding the violation it exists to catch. The structural
//! pieces of A003/A006 run on the [`crate::syntax`] event walker; the
//! engine-backed workspace analyses live in [`crate::locks`] (A008) and
//! [`crate::blocking`] (A009).

use crate::scan::lines;
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
/// CIND-A002; binaries are exempt from that rule.
#[must_use]
pub fn crate_root_attributes(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| is_crate_root(&f.path)) {
        let finding = |message: &str| Finding {
            file: f.path.clone(),
            line: 1,
            rule: "CIND-A001",
            message: message.into(),
        };
        if !f.code.contains("#![forbid(unsafe_code)]") {
            out.push(finding("crate root is missing #![forbid(unsafe_code)]"));
        }
        if is_library_root(&f.path) && !f.code.contains(PANIC_LINTS) {
            out.push(finding(&format!("library crate root is missing {PANIC_LINTS}")));
        }
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

/// CIND-A003: lock discipline in `cind-storage`'s buffer pool.
///
/// Two checks over `crates/storage/src/buffer.rs`:
///
/// 1. **The pool's mutex is never re-acquired under a pool guard.** The
///    pool is one `Mutex<Lru>`; a `let`-bound guard from `.lock(` is
///    considered held until its enclosing block closes, and any further
///    `.lock(` while one is held would self-deadlock (`std::sync::Mutex`
///    is not reentrant). Temporary guards (`self.lock().…` in expression
///    position) are checked against held guards but do not themselves
///    hold past their statement.
/// 2. **`IoStats` only via its atomic API.** A direct assignment
///    (`stats.<field> =`, `+=`, …) would need `&mut` and would un-share
///    the pool; the counters must go through `fetch_add`-style methods.
#[must_use]
pub fn lock_discipline(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !f.path.ends_with("storage/src/buffer.rs") {
            continue;
        }
        out.extend(nested_lock_findings(f));
        out.extend(stats_write_findings(f));
    }
    out
}

/// Walker-backed port of the original A003 byte-machine: a `.lock(`
/// acquisition while a `.lock(`-method guard is already held. Guards from
/// `.read()`/`.write()` are tracked by the walker but do not count as
/// pool guards here — exactly the legacy scope.
fn nested_lock_findings(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for func in syntax::functions(f) {
        for ev in syntax::events(f, &func) {
            if let syntax::Event::Acquire { line, method, held, .. } = &ev {
                if method == "lock" && held.iter().any(|h| h.method == "lock") {
                    out.push(Finding {
                        file: f.path.clone(),
                        line: *line,
                        rule: "CIND-A003",
                        message: "pool mutex acquired while a pool guard is held \
                                  (guards must drop before the next .lock())"
                            .into(),
                    });
                }
            }
        }
    }
    out
}

fn stats_write_findings(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (n, line) in lines(&f.code) {
        let mut from = 0;
        while let Some(pos) = line[from..].find("stats.") {
            let at = from + pos;
            let rest = &line[at + "stats.".len()..];
            let field_len =
                rest.bytes().take_while(|c| c.is_ascii_alphanumeric() || *c == b'_').count();
            let after = rest[field_len..].trim_start();
            let direct_write = (after.starts_with('=') && !after.starts_with("=="))
                || after.starts_with("+=")
                || after.starts_with("-=");
            if field_len > 0 && direct_write {
                out.push(Finding {
                    file: f.path.clone(),
                    line: n,
                    rule: "CIND-A003",
                    message: format!(
                        "IoStats field `{}` written directly; use the atomic API",
                        &rest[..field_len]
                    ),
                });
            }
            from = at + "stats.".len();
        }
    }
    out
}

/// CIND-A004: every field of a user-facing config struct —
/// `cinderella_core::Config` and the serving layer's `ServeConfig` — is
/// reachable from the CLI as `--kebab-case-name`. A field directly under
/// `#[doc(hidden)]` is not user-facing and is skipped. (That each field is
/// documented is `#![warn(missing_docs)]`'s job, an error under clippy's
/// `-D warnings`.)
///
/// The structs are parsed from their crate's raw text; the flag search
/// runs over the raw text of `crates/cli/src` so usage strings count as
/// wiring evidence alongside `args.get("…")` parsing.
#[must_use]
pub fn config_coverage(files: &[SourceFile]) -> Vec<Finding> {
    const CONFIGS: [(&str, &str); 2] = [
        ("core/src/config.rs", "Config"),
        ("server/src/config.rs", "ServeConfig"),
    ];
    let cli_text: String = files
        .iter()
        .filter(|f| f.path.contains("cli/src/"))
        .map(|f| f.raw.as_str())
        .collect();
    let mut out = Vec::new();
    for (path_suffix, struct_name) in CONFIGS {
        let Some(config) = files.iter().find(|f| f.path.ends_with(path_suffix)) else {
            continue; // synthetic trees without the crate: nothing to check
        };
        for field in config_fields(&config.raw, struct_name) {
            let flag = format!("--{}", field.name.replace('_', "-"));
            if !cli_text.contains(&flag) {
                out.push(Finding {
                    file: config.path.clone(),
                    line: field.line,
                    rule: "CIND-A004",
                    message: format!(
                        "{struct_name} field `{}` is not wired to a `{flag}` CLI flag",
                        field.name
                    ),
                });
            }
        }
    }
    out
}

struct ConfigField {
    name: String,
    line: usize,
}

/// Extracts `pub <name>:` fields of `pub struct <struct_name> { … }` with
/// their line numbers; fields a `#[doc(hidden)]` line directly precedes are
/// left out.
fn config_fields(raw: &str, struct_name: &str) -> Vec<ConfigField> {
    let mut out = Vec::new();
    let all: Vec<&str> = raw.lines().collect();
    let header = format!("pub struct {struct_name} {{");
    let Some(start) = all.iter().position(|l| l.trim_start().starts_with(&header)) else {
        return out;
    };
    let mut depth = 0usize;
    for (off, line) in all[start..].iter().enumerate() {
        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
        if off > 0 && depth == 0 {
            break;
        }
        let trimmed = line.trim_start();
        if off > 0 && depth == 1 && trimmed.starts_with("pub ") {
            if let Some(name) = trimmed
                .strip_prefix("pub ")
                .and_then(|r| r.split_once(':'))
                .map(|(n, _)| n.trim())
            {
                let above = all[start + off - 1].trim();
                if above != "#[doc(hidden)]"
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    out.push(ConfigField { name: name.to_owned(), line: start + off + 1 });
                }
            }
        }
    }
    out
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

/// CIND-A007: all durability decisions live in the commit coordinator.
///
/// The serving crate has exactly one place that is allowed to decide when
/// bytes become durable: `server/src/commit.rs`, the group-commit
/// coordinator. A stray `.sync_all()` on a file elsewhere would either
/// double-sync (silently eating the throughput the coordinator exists to
/// buy) or — worse — ack data the coordinator never sequenced, breaking
/// the "acked ⇒ replayable" contract the crash tests pin down. `.flush()`
/// is banned alongside the sync family: on files it is a durability
/// half-measure, and on sockets it hides buffering decisions that belong
/// to the batched writers. Everything outside `crates/server` (storage's
/// own sinks, the sim VFS, CLI stdout) is out of scope.
#[must_use]
pub fn commit_path_sync_discipline(files: &[SourceFile]) -> Vec<Finding> {
    const SYNCS: [&str; 4] = [".sync(", ".sync_all(", ".sync_data(", ".flush()"];
    let mut out = Vec::new();
    for f in files {
        if !f.path.contains("server/src/") || f.path.ends_with("server/src/commit.rs") {
            continue;
        }
        for (n, line) in lines(&f.code) {
            for t in SYNCS {
                if line.contains(t) {
                    out.push(Finding {
                        file: f.path.clone(),
                        line: n,
                        rule: "CIND-A007",
                        message: format!(
                            "`{t}` outside the group-commit coordinator — every \
                             sync/flush decision in the serving crate belongs to \
                             commit.rs"
                        ),
                    });
                }
            }
        }
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

    // ---- CIND-A003 -----------------------------------------------------

    #[test]
    fn a003_catches_nested_shard_lock() {
        let bad = file(
            "crates/storage/src/buffer.rs",
            "impl P {\n\
             fn steal(&self) {\n\
                 let mut g = self.shards[0].lock().unwrap();\n\
                 let other = self.shards[1].lock().unwrap();\n\
                 g.merge(other);\n\
             }\n\
             }\n",
        );
        let found = lock_discipline(&[bad]);
        let nested: Vec<_> =
            found.iter().filter(|f| f.message.starts_with("pool mutex")).collect();
        assert_eq!(nested.len(), 1, "{found:?}");
        assert_eq!(nested[0].line, 4);
        assert_eq!(nested[0].rule, "CIND-A003");
    }

    #[test]
    fn a003_allows_sequential_per_shard_locking() {
        let good = file(
            "crates/storage/src/buffer.rs",
            "impl P {\n\
             fn sweep(&self) {\n\
                 for shard in self.shards.iter() {\n\
                     let g = shard.lock().unwrap();\n\
                     g.touch();\n\
                 }\n\
             }\n\
             fn count(&self) -> usize {\n\
                 self.shards.iter().map(|s| s.lock().unwrap().len()).sum()\n\
             }\n\
             }\n",
        );
        let found = nested_lock_findings(&good);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn a003_catches_direct_stats_write_but_not_atomic_api() {
        let bad = file(
            "crates/storage/src/buffer.rs",
            "fn f(&self, hit: bool) {\n\
                 self.stats.logical_reads += 1;\n\
                 self.stats.evictions = 9;\n\
                 if self.stats.hits == 0 {}\n\
                 self.stats.record_access(hit, false);\n\
             }\n",
        );
        let found = stats_write_findings(&bad);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!((found[0].line, found[1].line), (2, 3));
        assert!(found[0].message.contains("logical_reads"));
    }

    #[test]
    fn a003_only_fires_on_the_buffer_pool() {
        let elsewhere = file(
            "crates/core/src/catalog.rs",
            "fn f(&self) { let a = x.lock().unwrap(); let b = y.lock().unwrap(); }\n",
        );
        assert!(lock_discipline(&[elsewhere]).is_empty());
    }

    // ---- CIND-A004 -----------------------------------------------------

    const CONFIG_SRC: &str = "pub struct Config {\n\
                              \x20   /// Weight w.\n\
                              \x20   pub weight: f64,\n\
                              \x20   /// Capacity B.\n\
                              \x20   pub max_size: u64,\n\
                              }\n";

    #[test]
    fn a004_catches_unwired_fields() {
        let config = file("crates/core/src/config.rs", CONFIG_SRC);
        let cli = file("crates/cli/src/main.rs", "const USAGE: &str = \"--max-size N\";\n");
        let found = config_coverage(&[config, cli]);
        // `weight` is unwired; `max_size` is wired.
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "CIND-A004");
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("--weight"), "{found:?}");
    }

    #[test]
    fn a004_accepts_wired_fields() {
        let config = file("crates/core/src/config.rs", CONFIG_SRC);
        let cli = file(
            "crates/cli/src/main.rs",
            "const USAGE: &str = \"--weight W --max-size N\";\n",
        );
        assert!(config_coverage(&[config, cli]).is_empty());
    }

    #[test]
    fn a004_covers_serve_config_too() {
        let serve = file(
            "crates/server/src/config.rs",
            "pub struct ServeConfig {\n\
             \x20   pub queue_depth: usize,\n\
             }\n",
        );
        let cli = file("crates/cli/src/main.rs", "const USAGE: &str = \"\";\n");
        let found = config_coverage(&[serve, cli]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("ServeConfig"), "{found:?}");
        assert!(found[0].message.contains("--queue-depth"), "{found:?}");
    }

    #[test]
    fn a004_skips_doc_hidden_fields_only() {
        let serve = |attr: &str| {
            file(
                "crates/server/src/config.rs",
                &format!(
                    "pub struct ServeConfig {{\n\
                     \x20   /// Accepted and ignored.\n\
                     {attr}\x20   pub query_threads: usize,\n\
                     }}\n"
                ),
            )
        };
        let cli = || file("crates/cli/src/main.rs", "const USAGE: &str = \"\";\n");
        assert!(config_coverage(&[serve("    #[doc(hidden)]\n"), cli()]).is_empty());
        // The same field without the attribute is user-facing: it needs a flag.
        let found = config_coverage(&[serve(""), cli()]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("--query-threads"), "{found:?}");
    }

    #[test]
    fn a004_accepts_wired_serve_config() {
        let serve = file(
            "crates/server/src/config.rs",
            "pub struct ServeConfig {\n\
             \x20   /// Queue bound.\n\
             \x20   pub queue_depth: usize,\n\
             }\n",
        );
        let cli = file(
            "crates/cli/src/main.rs",
            "const USAGE: &str = \"--queue-depth K\";\n",
        );
        assert!(config_coverage(&[serve, cli]).is_empty());
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

    // ---- CIND-A007 -----------------------------------------------------

    #[test]
    fn a007_catches_stray_sync_and_flush_in_serving_crate() {
        let bad = file(
            "crates/server/src/engine.rs",
            "fn persist(f: &mut std::fs::File) {\n    f.sync_all().unwrap();\n}\n\
             fn persist2(f: &mut std::fs::File) {\n    f.sync_data().unwrap();\n}\n\
             fn push(s: &mut std::net::TcpStream) {\n    s.flush().unwrap();\n}\n",
        );
        let found = commit_path_sync_discipline(&[bad]);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|f| f.rule == "CIND-A007"));
        assert_eq!(found[0].line, 2);
        assert_eq!(found[1].line, 5);
        assert_eq!(found[2].line, 8);
    }

    #[test]
    fn a007_catches_vfs_file_sync_outside_coordinator() {
        let bad = file(
            "crates/server/src/server.rs",
            "fn f(file: &mut Box<dyn VfsFile>) { file.sync().unwrap(); }\n",
        );
        assert_eq!(commit_path_sync_discipline(&[bad]).len(), 1);
    }

    #[test]
    fn a007_allows_the_coordinator_itself() {
        let coordinator = file(
            "crates/server/src/commit.rs",
            "fn group(file: &mut Box<dyn VfsFile>) { file.sync().unwrap(); }\n",
        );
        assert!(commit_path_sync_discipline(&[coordinator]).is_empty());
    }

    #[test]
    fn a007_ignores_other_crates_and_test_code() {
        let storage = file(
            "crates/storage/src/vfs.rs",
            "fn f(file: &mut std::fs::File) { file.sync_all().unwrap(); }\n",
        );
        let test_only = file(
            "crates/server/src/client.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn f(s: &mut std::net::TcpStream) { s.flush().unwrap(); }\n}\n",
        );
        assert!(commit_path_sync_discipline(&[storage, test_only]).is_empty());
    }
}
