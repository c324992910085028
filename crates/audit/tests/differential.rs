//! Differential test: the event-walker port of A006 is a drop-in
//! replacement for the retired byte-walker.
//!
//! `mod legacy` below is the pre-engine implementation, inlined verbatim
//! (blanking, test-region masking, and the A006 walker over the view they
//! make). Over the *real current workspace* the legacy walker must report
//! exactly the same `file:line` set as [`rules::shard_fanout_lock_freedom`].

use std::collections::BTreeSet;
use std::path::Path;

use cind_audit::{load_workspace, rules, SourceFile};

mod legacy {
    //! The pre-engine byte-walker, verbatim.

    use cind_audit::SourceFile;

    /// The view the walker reads: comments and literals blanked, then
    /// `#[cfg(test)]` regions masked.
    fn code_view(raw: &str) -> String {
        mask_test_regions(&strip_comments_and_strings(raw))
    }

    fn strip_comments_and_strings(src: &str) -> String {
        let b = src.as_bytes();
        let mut out = b.to_vec();
        let mut i = 0;
        while i < b.len() {
            match b[i] {
                b'/' if b.get(i + 1) == Some(&b'/') => {
                    while i < b.len() && b[i] != b'\n' {
                        out[i] = b' ';
                        i += 1;
                    }
                }
                b'/' if b.get(i + 1) == Some(&b'*') => {
                    let mut depth = 0usize;
                    while i < b.len() {
                        if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                            depth += 1;
                            out[i] = b' ';
                            out[i + 1] = b' ';
                            i += 2;
                        } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                            depth -= 1;
                            out[i] = b' ';
                            out[i + 1] = b' ';
                            i += 2;
                            if depth == 0 {
                                break;
                            }
                        } else {
                            if b[i] != b'\n' {
                                out[i] = b' ';
                            }
                            i += 1;
                        }
                    }
                }
                b'r' | b'b' if is_raw_string_start(b, i) => {
                    let mut j = i + 1;
                    if b[j] == b'r' {
                        j += 1;
                    }
                    let hash_start = j;
                    while j < b.len() && b[j] == b'#' {
                        j += 1;
                    }
                    let hashes = j - hash_start;
                    debug_assert_eq!(b[j], b'"');
                    j += 1;
                    while j < b.len() {
                        if b[j] == b'"'
                            && b[j + 1..].iter().take(hashes).filter(|&&c| c == b'#').count()
                                == hashes
                        {
                            j += 1 + hashes;
                            break;
                        }
                        j += 1;
                    }
                    for c in &mut out[i..j.min(b.len())] {
                        if *c != b'\n' {
                            *c = b' ';
                        }
                    }
                    i = j;
                }
                b'"' | b'b' if b[i] == b'"' || (b[i] == b'b' && b.get(i + 1) == Some(&b'"')) => {
                    if b[i] == b'b' {
                        out[i] = b' ';
                        i += 1;
                    }
                    out[i] = b' ';
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' {
                            out[i] = b' ';
                            if i + 1 < b.len() && b[i + 1] != b'\n' {
                                out[i + 1] = b' ';
                            }
                            i += 2;
                        } else if b[i] == b'"' {
                            out[i] = b' ';
                            i += 1;
                            break;
                        } else {
                            if b[i] != b'\n' {
                                out[i] = b' ';
                            }
                            i += 1;
                        }
                    }
                }
                b'\'' => {
                    if b.get(i + 1) == Some(&b'\\') {
                        out[i] = b' ';
                        i += 1;
                        while i < b.len() && b[i] != b'\'' {
                            out[i] = b' ';
                            i += 1;
                        }
                        if i < b.len() {
                            out[i] = b' ';
                            i += 1;
                        }
                    } else if b.get(i + 2) == Some(&b'\'') {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        out[i + 2] = b' ';
                        i += 3;
                    } else {
                        i += 1;
                    }
                }
                _ => i += 1,
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    fn is_raw_string_start(b: &[u8], i: usize) -> bool {
        let mut j = i;
        if b[j] == b'b' {
            j += 1;
            if b.get(j) != Some(&b'r') {
                return false;
            }
        }
        if b.get(j) != Some(&b'r') {
            return false;
        }
        j += 1;
        while b.get(j) == Some(&b'#') {
            j += 1;
        }
        b.get(j) == Some(&b'"')
            && (i == 0 || !b[i - 1].is_ascii_alphanumeric() && b[i - 1] != b'_')
    }

    fn mask_test_regions(stripped: &str) -> String {
        const ATTR: &str = "#[cfg(test)]";
        let mut out = stripped.as_bytes().to_vec();
        let mut from = 0;
        while let Some(pos) = stripped[from..].find(ATTR) {
            let start = from + pos;
            let bytes = stripped.as_bytes();
            let mut j = start + ATTR.len();
            let mut depth = 0usize;
            let mut end = bytes.len();
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            end = j + 1;
                            break;
                        }
                    }
                    b';' if depth == 0 => {
                        end = j + 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            for c in &mut out[start..end] {
                if *c != b'\n' {
                    *c = b' ';
                }
            }
            from = end;
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    fn line_of(text: &str, at: usize) -> usize {
        text.as_bytes()[..at.min(text.len())].iter().filter(|&&c| c == b'\n').count() + 1
    }

    fn prev_is_ident(code: &[u8], i: usize) -> bool {
        i > 0 && (code[i - 1].is_ascii_alphanumeric() || code[i - 1] == b'_')
    }

    /// Legacy A006 walker; returns 1-based finding lines.
    #[must_use]
    pub fn fanout_lines(f: &SourceFile) -> Vec<usize> {
        const GUARDS: [&str; 3] = [".read()", ".write()", ".lock("];
        const FANOUT: [&str; 2] = [".engines()", "thread::scope"];
        let mut out = Vec::new();
        let view = code_view(&f.raw);
        let code = view.as_bytes();
        let mut depth: usize = 0;
        let mut held: Vec<usize> = Vec::new();
        let mut stmt_is_let = false;
        let mut i = 0;
        while i < code.len() {
            match code[i] {
                b'{' => {
                    depth += 1;
                    stmt_is_let = false;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    held.retain(|&d| d <= depth);
                    stmt_is_let = false;
                }
                b';' => stmt_is_let = false,
                b'l' if view[i..].starts_with("let")
                    && !prev_is_ident(code, i)
                    && code.get(i + 3).is_some_and(|c| c.is_ascii_whitespace()) =>
                {
                    stmt_is_let = true;
                }
                b'.' if stmt_is_let && GUARDS.iter().any(|g| view[i..].starts_with(g)) => {
                    held.push(depth);
                }
                _ => {}
            }
            if (code[i] == b'.' || !prev_is_ident(code, i))
                && FANOUT.iter().any(|t| view[i..].starts_with(t))
                && !held.is_empty()
            {
                out.push(line_of(&view, i));
            }
            i += 1;
        }
        out
    }
}

fn workspace() -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    load_workspace(&root).expect("workspace loads")
}

/// A006 has since been re-keyed from `thread::scope` to the standing leg
/// workers' hand-off and collect calls; on the real tree both key sets
/// must still find the same (no) guard held across a fan-out.
#[test]
fn a006_walker_matches_legacy_on_the_real_tree() {
    let files = workspace();
    let legacy_set: BTreeSet<(String, usize)> = files
        .iter()
        .filter(|f| f.path.ends_with("server/src/sharded.rs"))
        .flat_map(|f| legacy::fanout_lines(f).into_iter().map(|l| (f.path.clone(), l)))
        .collect();
    let new_set: BTreeSet<(String, usize)> = rules::shard_fanout_lock_freedom(&files)
        .into_iter()
        .map(|f| (f.file, f.line))
        .collect();
    assert_eq!(legacy_set, new_set);
}
