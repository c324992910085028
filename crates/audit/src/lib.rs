#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
//! `cind-audit` — the workspace's own static pass.
//!
//! The workspace leans on the toolchain for every rule it can express:
//! CIND-A002 (panic-free library code) is one `deny(clippy::unwrap_used,
//! clippy::expect_used, clippy::panic)` line per library root, CIND-A005
//! (no wall clock in deterministic crates) and CIND-A007 (no sync/flush in
//! the serving crate outside the group-commit coordinator) are
//! `disallowed-methods` in a crate's `clippy.toml`, CIND-A004 (every config
//! knob reaches the CLI) is a struct pattern in `cind`'s flag parsing, the
//! buffer pool's `IoStats` counters are atomics behind `&self`, and
//! `missing_docs` documents every config field. This crate checks what only
//! this codebase knows: that every crate root forbids `unsafe` and every
//! library root carries the panic-lint line (a lint binds only the crates
//! that opt in), that no lock guard is held across the sharded engine's
//! fan-out calls, that lock acquisition order is acyclic and no mutex is
//! re-acquired under its own guard, and that no blocking call runs under a
//! lock guard.
//!
//! The pass is deliberately token-level, not AST-level: it has zero
//! dependencies, so it builds and runs even when the rest of the workspace
//! is mid-refactor, and its rules survive syntax the paper-reproduction
//! code does not use. A single lexer pass ([`lexer`]) yields the token
//! stream; tokens inside `#[cfg(test)]` regions are masked, and every rule
//! walks the unmasked tokens ([`syntax`] adds the brace-tree with
//! function/impl scoping that [`locks`], [`blocking`] and A006 run on).
//!
//! Rules:
//!
//! | id        | rule |
//! |-----------|------|
//! | CIND-A001 | every crate root starts with `#![forbid(unsafe_code)]`; every library root also carries CIND-A002's `deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)` line |
//! | CIND-A006 | no lock guard held across a shard fan-out call in the sharded engine |
//! | CIND-A008 | the workspace-wide lock acquisition-order graph is acyclic (witness chain on failure), and no `.lock()` is taken while a guard of the same class is live |
//! | CIND-A009 | no blocking call (I/O, channel, condvar, join) while a lock guard is live, unless `audit:allow`ed with a reason |
//!
//! Run as `cargo run -p cind-audit -- check`. Exit status is non-zero iff
//! findings remain.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod blocking;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod scan;
pub mod syntax;

/// One rule violation, machine-readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id, `CIND-Axxx`.
    pub rule: &'static str,
    /// Human explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// A workspace source file: raw text and its lexed tokens.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The file exactly as on disk.
    pub raw: String,
    /// The token stream; tokens inside `#[cfg(test)]` regions are
    /// `masked` and skipped by every rule.
    pub tokens: Vec<lexer::Token>,
}

impl SourceFile {
    /// Builds a file from its path and raw content, deriving the token
    /// stream and its test-region mask.
    #[must_use]
    pub fn new(path: impl Into<String>, raw: impl Into<String>) -> Self {
        let raw = raw.into();
        let (mut tokens, stripped) = lexer::lex(&raw);
        let ranges = scan::test_region_ranges(&stripped);
        for t in &mut tokens {
            t.masked = ranges.iter().any(|&(s, e)| t.start >= s && t.start < e);
        }
        Self { path: path.into(), raw, tokens }
    }
}

/// Loads every `.rs` under `crates/*/src` and the root package's `src`.
///
/// # Errors
/// I/O errors reading the tree.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let raw = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::new(rel, raw));
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Runs every rule over `files` and returns all findings sorted by
/// (file, line, rule).
#[must_use]
pub fn run_all(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(rules::crate_root_attributes(files));
    out.extend(rules::shard_fanout_lock_freedom(files));
    out.extend(locks::lock_order(files));
    out.extend(blocking::blocking_in_critical_section(files));
    out.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_renders_grep_friendly() {
        let f = Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: "CIND-A001",
            message: "missing #![forbid(unsafe_code)]".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7: CIND-A001 missing #![forbid(unsafe_code)]"
        );
    }

    /// The acceptance gate: the pass itself reports a clean tree. Seeded
    /// violations are covered per-rule in [`rules::tests`].
    #[test]
    fn real_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/audit has a workspace root two levels up");
        let files = load_workspace(root).expect("workspace readable");
        assert!(
            files.iter().any(|f| f.path.ends_with("core/src/catalog.rs")),
            "loader missed the core crate — looked under {}",
            root.display()
        );
        let findings = run_all(&files);
        assert!(
            findings.is_empty(),
            "audit found violations in the tree:\n{}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}
