//! A small Rust lexer: turns source text into a line-numbered token
//! stream for the structural passes ([`crate::callgraph`],
//! [`crate::dataflow`]).
//!
//! No `syn`, no proc-macro expansion — the container is offline. The
//! lexer understands exactly what those passes need: identifiers,
//! punctuation, literals, and lifetimes, with comments discarded and
//! string/char contents opaque. Multi-character operators are left as
//! single punctuation tokens; the parser peeks at adjacent tokens when
//! it needs `::` or `->`.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap`, ...).
    Ident,
    /// One punctuation character (`{`, `.`, `<`, ...).
    Punct,
    /// String / byte-string literal. The text is kept (so the dataflow
    /// pass can see inline format captures like `"{ks:?}"`) but the
    /// token is structure-opaque: braces inside never nest.
    Str,
    /// Char literal (contents dropped).
    Char,
    /// Numeric literal (text kept, suffix included).
    Num,
    /// Lifetime (`'a`, text without the quote).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text (literal contents for [`TokKind::Str`], empty for
    /// [`TokKind::Char`]).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Is this the identifier `s`?
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this the punctuation character `c`?
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] as char == c
    }
}

/// Lex `src` into tokens. Comments vanish; strings and chars survive as
/// opaque placeholder tokens so expression structure is preserved.
pub(crate) fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::with_capacity(n / 4);
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($from:expr, $to:expr) => {
            line += chars[$from..$to].iter().filter(|&&c| c == '\n').count() as u32
        };
    }

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // line comment (also doc comments)
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // block comment, nested
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start = i;
            let mut level = 0usize;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    level += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    level -= 1;
                    i += 2;
                    if level == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            bump_lines!(start, i.min(n));
            continue;
        }
        // raw / byte strings: r"..", r#".."#, b"..", br#".."#
        if (c == 'r' || c == 'b') && raw_or_byte_string(&chars, i) {
            let start = i;
            // skip prefix letters
            while i < n && (chars[i] == 'r' || chars[i] == 'b') {
                i += 1;
            }
            let mut hashes = 0usize;
            while i < n && chars[i] == '#' {
                hashes += 1;
                i += 1;
            }
            i += 1; // opening quote
            while i < n {
                if chars[i] == '"' {
                    let mut k = i + 1;
                    let mut h = 0usize;
                    while k < n && chars[k] == '#' && h < hashes {
                        h += 1;
                        k += 1;
                    }
                    if h == hashes {
                        i = k;
                        break;
                    }
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[start..i.min(n)].iter().collect(),
                line,
            });
            bump_lines!(start, i.min(n));
            continue;
        }
        // plain string
        if c == '"' {
            let start = i;
            i += 1;
            while i < n {
                if chars[i] == '\\' {
                    i += 2;
                    continue;
                }
                if chars[i] == '"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[start..i.min(n)].iter().collect(),
                line,
            });
            bump_lines!(start, i.min(n));
            continue;
        }
        // char literal vs lifetime
        if c == '\'' {
            let is_char = if i + 1 < n && chars[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && chars[i + 2] == '\''
            };
            if is_char {
                i += 1;
                while i < n && chars[i] != '\'' {
                    if chars[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1; // closing quote
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                continue;
            }
            // lifetime
            let mut j = i + 1;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Lifetime,
                text: chars[i + 1..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // number (suffixes and hex digits ride along; `..` stays punct)
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            if j < n && chars[j] == '.' && j + 1 < n && chars[j + 1].is_ascii_digit() {
                j += 1;
                while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // identifier / keyword
        if c.is_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // single punctuation char
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

/// Does a raw/byte-string literal start at `i`? (`r"`, `r#`, `b"`,
/// `br"`, `br#`, `rb` is not a thing). Avoids eating identifiers that
/// merely start with `r`/`b`.
fn raw_or_byte_string(chars: &[char], i: usize) -> bool {
    let n = chars.len();
    let mut j = i;
    // at most `br` / `rb`-style two-letter prefix
    let mut letters = 0;
    while j < n && (chars[j] == 'r' || chars[j] == 'b') && letters < 2 {
        j += 1;
        letters += 1;
    }
    // identifier continues? then it's just an ident like `raw` or `buf`
    if j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
        return false;
    }
    let mut k = j;
    while k < n && chars[k] == '#' {
        k += 1;
    }
    k < n && chars[k] == '"' && (k > j || j > i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let src = "let x = \"a.unwrap()\"; // .unwrap()\n/* panic!() */ let y = 1;\n";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
    }

    #[test]
    fn lines_are_tracked_through_multiline_tokens() {
        let src = "let s = \"a\nb\nc\";\nfn f() {}\n";
        let toks = lex(src);
        let f = toks.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 4);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = lex("fn f<'a>(c: char) -> bool { c == '}' }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
        // the brace inside the char literal must not look like structure
        let opens = toks.iter().filter(|t| t.is_punct('{')).count();
        let closes = toks.iter().filter(|t| t.is_punct('}')).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn raw_strings_do_not_leak_tokens() {
        let ids = idents("let s = r#\"fn fake() { panic!() }\"#; let t = 2;");
        assert_eq!(ids, vec!["let", "s", "let", "t"]);
    }

    #[test]
    fn numbers_keep_suffixes_and_ranges_split() {
        let toks = lex("for i in 0..10u32 {}");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["0", "10u32"]);
    }
}
