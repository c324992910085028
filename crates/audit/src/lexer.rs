//! The zero-dependency Rust lexer every audit rule runs on.
//!
//! One pass over the raw bytes yields two things at once:
//!
//! 1. a **token stream** ([`Token`]) with byte spans — identifiers,
//!    numbers, single-byte punctuation, comments, string/char literals,
//!    and lifetimes (the classic `'a`-vs-`'a'` disambiguation lives here,
//!    as does raw-string hash counting and block-comment nesting);
//! 2. the **blanked view**: the source with comments, string literals and
//!    char literals replaced by spaces, length- and newline-preserving, so
//!    a byte offset in the view is the same line/column in the file. Only
//!    [`crate::scan::test_region_ranges`] reads it.
//!
//! Tokens carry a `masked` flag, set by [`crate::SourceFile::new`] for
//! tokens inside `#[cfg(test)]` regions: every rule skips masked tokens.

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// `// …` through end of line (incl. `///` and `//!` doc comments).
    LineComment,
    /// `/* … */` with nesting, incl. `/** … */` doc comments.
    BlockComment,
    /// `"…"` or `b"…"`, escapes handled.
    Str,
    /// `r"…"`, `r#"…"#`, `br##"…"##`.
    RawStr,
    /// `'x'` or `'\n'` — a character (or byte-character) literal.
    CharLit,
    /// `'a` in `<'a>` — the quote plus its label.
    Lifetime,
    /// Identifier or keyword: `[A-Za-z_][A-Za-z0-9_]*`.
    Ident,
    /// Numeric literal, suffix included: `42`, `0xFF`, `1usize`.
    Num,
    /// Any other single non-whitespace byte: `{`, `.`, `(`, `;`, …
    Punct,
}

/// One lexed token: its kind and byte span in the raw source.
#[derive(Clone, Debug)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// Inside a `#[cfg(test)]` region (set after lexing by the loader).
    pub masked: bool,
}

impl Token {
    /// The token's text in `src` (the raw source it was lexed from).
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end.min(src.len())]
    }

    /// True for a [`TokenKind::Punct`] token equal to byte `c`.
    #[must_use]
    pub fn is_punct(&self, src: &str, c: u8) -> bool {
        self.kind == TokenKind::Punct && src.as_bytes().get(self.start) == Some(&c)
    }

    /// True for an [`TokenKind::Ident`] token spelling `name`.
    #[must_use]
    pub fn is_ident(&self, src: &str, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(src) == name
    }

    /// True for either comment kind.
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

fn tok(kind: TokenKind, start: usize, end: usize) -> Token {
    Token { kind, start, end, masked: false }
}

/// Lexes `src`, returning the token stream and the blanked view (comments,
/// strings, and char literals spaced out; newlines and length preserved).
#[must_use]
pub fn lex(src: &str) -> (Vec<Token>, String) {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut toks: Vec<Token> = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
                toks.push(tok(TokenKind::LineComment, start, i));
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
                toks.push(tok(TokenKind::BlockComment, start, i));
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                // r"…", r#"…"#, br#"…"#: count hashes, blank to the
                // matching `"#…#` terminator.
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
                // Find `"` followed by `hashes` hashes.
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
                toks.push(tok(TokenKind::RawStr, start, i.min(b.len())));
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
                toks.push(tok(TokenKind::Str, start, i.min(b.len())));
            }
            b'\'' => {
                // Char literal vs. lifetime: `'x'` / `'\n'` are literals,
                // `'a` in `<'a>` is not.
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char: blank through the closing quote.
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
                    toks.push(tok(TokenKind::CharLit, start, i));
                } else if b.get(i + 2) == Some(&b'\'') {
                    out[i] = b' ';
                    out[i + 1] = b' ';
                    out[i + 2] = b' ';
                    i += 3;
                    toks.push(tok(TokenKind::CharLit, start, i));
                } else {
                    // Lifetime: the quote plus its label; nothing blanked.
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    toks.push(tok(TokenKind::Lifetime, start, i));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(tok(TokenKind::Ident, start, i));
            }
            c if c.is_ascii_digit() => {
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(tok(TokenKind::Num, start, i));
            }
            c if c.is_ascii_whitespace() => i += 1,
            _ => {
                toks.push(tok(TokenKind::Punct, start, i + 1));
                i += 1;
            }
        }
    }
    (toks, String::from_utf8_lossy(&out).into_owned())
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"…" | r#"…" | br"…" | br#"…"
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
        // Reject identifiers like `for` / `expr` ending in r before a
        // string: require `r` to start a token.
        && (i == 0 || !b[i - 1].is_ascii_alphanumeric() && b[i - 1] != b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).0.into_iter().map(|t| (t.kind, t.text(src).to_owned())).collect()
    }

    #[test]
    fn tokenizes_idents_nums_puncts() {
        let got = kinds("let x2 = foo(41usize);");
        assert_eq!(
            got,
            vec![
                (TokenKind::Ident, "let".into()),
                (TokenKind::Ident, "x2".into()),
                (TokenKind::Punct, "=".into()),
                (TokenKind::Ident, "foo".into()),
                (TokenKind::Punct, "(".into()),
                (TokenKind::Num, "41usize".into()),
                (TokenKind::Punct, ")".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn comments_and_strings_become_single_tokens_and_blank() {
        let src = "a /* x /* y */ z */ \"s{\" // tail.unwrap()\nb";
        let (toks, view) = lex(src);
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Ident,
                TokenKind::BlockComment,
                TokenKind::Str,
                TokenKind::LineComment,
                TokenKind::Ident,
            ]
        );
        assert!(!view.contains('{'), "{view}");
        assert!(!view.contains("unwrap"), "{view}");
        assert_eq!(view.len(), src.len(), "length preserved");
        assert_eq!(view.lines().count(), 2, "newlines preserved");
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = "r#\"raw \" panic!\"# x br\"y\" z";
        let (toks, view) = lex(src);
        assert_eq!(toks[0].kind, TokenKind::RawStr);
        assert_eq!(toks[1].kind, TokenKind::Ident);
        assert_eq!(toks[2].kind, TokenKind::RawStr);
        assert!(!view.contains("panic"), "{view}");
        assert!(view.contains('x') && view.contains('z'), "{view}");
    }

    #[test]
    fn char_literal_vs_lifetime() {
        let src = "'{' <'a, 'static> '\\n' 'x'";
        let (toks, view) = lex(src);
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'static"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::CharLit).count(),
            3,
            "'{{', '\\n', 'x'"
        );
        assert!(!view.contains('{'), "{view}");
        assert!(view.contains("'a"), "lifetimes survive blanking: {view}");
    }

    #[test]
    fn method_chain_tokens_carry_positions() {
        let src = "self.slots[0].read()";
        let (toks, _) = lex(src);
        let texts: Vec<&str> = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(texts, vec!["self", ".", "slots", "[", "0", "]", ".", "read", "(", ")"]);
        assert_eq!(toks[7].start, src.find("read").unwrap());
    }

    #[test]
    fn byte_string_and_byte_char() {
        let src = "f(b\"bytes\", b'x')";
        let (toks, view) = lex(src);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
        assert!(!view.contains("bytes"), "{view}");
        // `b'x'`: the prefix stays an ident, the literal is blanked —
        // mirroring the legacy blanking pass exactly.
        assert!(toks.iter().any(|t| t.kind == TokenKind::CharLit));
        assert!(!view.contains("'x'"), "{view}");
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["\"open", "r#\"open", "/* open", "'\\", "b\"open"] {
            let (_, view) = lex(src);
            assert_eq!(view.len(), src.len());
        }
    }
}
