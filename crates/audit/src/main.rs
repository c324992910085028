#![forbid(unsafe_code)]
//! `cind-audit` binary: `cargo run -p cind-audit -- check`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cind_audit::run_all;

const USAGE: &str = "\
cind-audit — workspace lint pass for the Cinderella codebase

USAGE:
  cind-audit check [--root DIR]

Exit status: 0 clean, 1 findings, 2 usage/IO error.";

fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    explicit.unwrap_or_else(|| {
        // crates/audit -> crates -> workspace root.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
    })
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut saw_check = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" => saw_check = true,
            "--root" => {
                root = Some(PathBuf::from(
                    it.next().ok_or_else(|| format!("--root needs a value\n\n{USAGE}"))?,
                ));
            }
            "help" | "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other}\n\n{USAGE}")),
        }
    }
    if !saw_check {
        return Err(USAGE.to_owned());
    }

    let root = workspace_root(root);
    let files = load(&root)?;
    let findings = run_all(&files);
    for f in &findings {
        println!("{f}");
    }
    eprintln!(
        "cind-audit: {} finding{} over {} files",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        files.len()
    );
    Ok(findings.is_empty())
}

fn load(root: &Path) -> Result<Vec<cind_audit::SourceFile>, String> {
    let files = cind_audit::load_workspace(root)
        .map_err(|e| format!("loading workspace at {}: {e}", root.display()))?;
    if files.is_empty() {
        return Err(format!("no sources under {} — wrong --root?", root.display()));
    }
    Ok(files)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
