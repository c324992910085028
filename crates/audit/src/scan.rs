//! Source positions for the token rules: where the `#[cfg(test)]` regions
//! are, and which line a byte offset sits on.
//!
//! The regions are found in the lexer's blanked view
//! ([`crate::lexer::lex`]), which replaces comments and literals with
//! spaces and keeps every byte offset, so a brace inside a string cannot
//! unbalance the walk and each range maps straight back onto the tokens.

/// Byte ranges of `#[cfg(test)]`-attributed items in already-blanked text:
/// from the attribute through the item's matching `}` (or `;` for non-block
/// items). Input must come from the lexer's blanked view so braces inside
/// strings cannot unbalance the walk.
#[must_use]
pub fn test_region_ranges(stripped: &str) -> Vec<(usize, usize)> {
    const ATTR: &str = "#[cfg(test)]";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(ATTR) {
        let start = from + pos;
        // Walk forward to the end of the attributed item: the matching `}`
        // of its first brace, or a `;` seen before any brace.
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
        out.push((start, end));
        from = end;
    }
    out
}

/// 1-based line number of byte offset `at`.
#[must_use]
pub fn line_of(text: &str, at: usize) -> usize {
    text.as_bytes()[..at.min(text.len())].iter().filter(|&&c| c == b'\n').count() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, SourceFile};

    fn strip(src: &str) -> String {
        lexer::lex(src).1
    }

    #[test]
    fn strips_line_and_doc_comments() {
        let s = strip("let x = 1; // c.unwrap()\n/// doc panic!\nlet y;");
        assert!(!s.contains("unwrap"), "{s}");
        assert!(!s.contains("panic"), "{s}");
        assert!(s.contains("let y;"));
        assert_eq!(s.lines().count(), 3, "line structure preserved");
    }

    #[test]
    fn strips_nested_block_comments_and_strings() {
        let s = strip("a /* outer /* inner */ still */ b \"str with } and \\\" quote\" c");
        assert!(!s.contains("inner") && !s.contains("still"), "{s}");
        assert!(!s.contains('}'), "{s}");
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
    }

    #[test]
    fn strips_raw_strings_and_char_literals() {
        let s = strip("r#\"raw \" panic!\"# '{' 'a' <'a, 'b> '\\n'");
        assert!(!s.contains("panic"), "{s}");
        assert!(!s.contains('{'), "{s}");
        assert!(s.contains("<'a, 'b>"), "lifetimes survive: {s}");
    }

    /// The unmasked identifiers of `src`, in order.
    fn live_idents(src: &str) -> Vec<String> {
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        f.tokens
            .iter()
            .filter(|t| !t.masked && t.kind == lexer::TokenKind::Ident)
            .map(|t| t.text(src).to_owned())
            .collect()
    }

    #[test]
    fn masks_cfg_test_mod_but_not_library_code() {
        let src = "\
fn real() { maybe.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); panic!(); }
}
fn also_real() {}
";
        let live = live_idents(src);
        assert_eq!(live, ["fn", "real", "maybe", "unwrap", "fn", "also_real"], "{live:?}");
    }

    #[test]
    fn masks_cfg_test_on_statement_without_eating_rest_of_file() {
        let live = live_idents("#[cfg(test)]\nuse foo::bar;\nfn real() {}\n");
        assert_eq!(live, ["fn", "real"], "{live:?}");
    }

    #[test]
    fn test_region_ranges_reports_spans() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn t() {} }\nfn b() {}\n";
        let stripped = strip(src);
        let ranges = test_region_ranges(&stripped);
        assert_eq!(ranges.len(), 1);
        let (s, e) = ranges[0];
        assert!(src[s..e].starts_with("#[cfg(test)]"));
        assert!(src[s..e].ends_with('}'));
    }

    #[test]
    fn line_of_counts_newlines() {
        let t = "a\nbb\nccc";
        assert_eq!(line_of(t, 0), 1);
        assert_eq!(line_of(t, 2), 2);
        assert_eq!(line_of(t, t.len() - 1), 3);
    }
}
