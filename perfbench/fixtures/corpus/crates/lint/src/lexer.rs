//! A std-only token-stream lexer for Rust sources.
//!
//! hetlint rules operate on real tokens rather than per-line substring
//! matching: the lexer resolves exactly the ambiguities that made the
//! old scanner both miss violations (chains wrapped across three or
//! more lines, aliased imports) and report phantoms (double-counted
//! window boundaries, identifiers buried in nested generics). It
//! handles nested block comments, raw strings with any hash arity
//! (`r#"…"#`), byte and raw-byte strings, char literals vs lifetimes,
//! escapes, and numeric literals.
//!
//! Comment text is collected per line — that is where
//! `hetlint: allow(..)` annotations live — and never reaches the token
//! stream; string contents become single [`TokKind::Str`] tokens. No
//! rule can fire on a comment or inside a string by construction.

/// What a token is; the minimum vocabulary the rules need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `HashMap`, `iter`, …).
    Ident,
    /// A lifetime such as `'a` (text excludes the leading quote).
    Lifetime,
    /// Char or byte-char literal; the inner text is not preserved.
    Char,
    /// String literal of any flavor (cooked, raw, byte, raw-byte);
    /// `text` holds the literal's contents with simple escapes
    /// resolved, so rules can compare values (e.g. stream names).
    Str,
    /// Numeric literal (integer or float, any base).
    Num,
    /// Punctuation. `::`, `..`, and `..=` are single tokens; every
    /// other punctuation mark is one character.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Identifier/punctuation text, or a string literal's contents.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// A fully lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream in source order.
    pub tokens: Vec<Tok>,
    /// Comment text per line (index = line − 1); empty when none.
    pub comments: Vec<String>,
    /// True for lines holding at least part of a code token
    /// (multi-line string literals mark every line they span).
    pub has_code: Vec<bool>,
}

impl Lexed {
    fn ensure_line(&mut self, line: usize) {
        while self.comments.len() < line {
            self.comments.push(String::new());
        }
        while self.has_code.len() < line {
            self.has_code.push(false);
        }
    }

    fn push_tok(&mut self, kind: TokKind, text: String, line: usize) {
        self.ensure_line(line);
        self.has_code[line - 1] = true;
        self.tokens.push(Tok { kind, text, line });
    }

    fn push_comment(&mut self, line: usize, text: &str) {
        self.ensure_line(line);
        self.comments[line - 1].push_str(text);
    }

    fn mark_code(&mut self, line: usize) {
        self.ensure_line(line);
        self.has_code[line - 1] = true;
    }

    /// Comment text on a 1-based line (empty when out of range).
    pub fn comment_on(&self, line: usize) -> &str {
        match line.checked_sub(1).and_then(|i| self.comments.get(i)) {
            Some(s) => s.as_str(),
            None => "",
        }
    }

    /// True when the 1-based line carries any code token.
    pub fn code_on(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.has_code.get(i))
            .copied()
            .unwrap_or(false)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `source` into tokens plus per-line comment and code maps.
///
/// The lexer is forgiving: malformed input (an unterminated string, a
/// stray quote) never panics, it just degrades into punct tokens. That
/// keeps the tool usable on work-in-progress files.
pub fn lex(source: &str) -> Lexed {
    let c: Vec<char> = source.chars().collect();
    let n = c.len();
    let mut out = Lexed::default();
    let mut line = 1usize;
    out.ensure_line(1);
    let mut i = 0usize;

    while i < n {
        let ch = c[i];
        if ch == '\n' {
            line += 1;
            out.ensure_line(line);
            i += 1;
            continue;
        }
        if ch.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if ch == '/' && c.get(i + 1) == Some(&'/') {
            i += 2;
            let start = i;
            while i < n && c[i] != '\n' {
                i += 1;
            }
            let text: String = c[start..i].iter().collect();
            out.push_comment(line, &text);
            continue;
        }
        // Block comment (nested).
        if ch == '/' && c.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1u32;
            let mut buf = String::new();
            while i < n && depth > 0 {
                if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    continue;
                }
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                    continue;
                }
                if c[i] == '\n' {
                    out.push_comment(line, &buf);
                    buf.clear();
                    line += 1;
                    out.ensure_line(line);
                    i += 1;
                    continue;
                }
                buf.push(c[i]);
                i += 1;
            }
            out.push_comment(line, &buf);
            continue;
        }
        // Cooked string.
        if ch == '"' {
            i += 1;
            let (value, ni, nl) = cooked_string(&c, i, line, &mut out);
            out.push_tok(TokKind::Str, value, line);
            i = ni;
            line = nl;
            continue;
        }
        // Raw / byte string prefixes: r"…", r#"…"#, b"…", br#"…"#, b'x'.
        if ch == 'r' || ch == 'b' {
            if let Some((value, ni, nl, kind)) = string_with_prefix(&c, i, line, &mut out) {
                out.push_tok(kind, value, line);
                i = ni;
                line = nl;
                continue;
            }
        }
        // Char literal vs lifetime.
        if ch == '\'' {
            if c.get(i + 1) == Some(&'\\') {
                // Escaped char literal: skip to the closing quote.
                let mut j = i + 2;
                if j < n {
                    j += 1; // the escaped character itself
                }
                // \u{…} spans several chars.
                while j < n && c[j] != '\'' && c[j] != '\n' {
                    j += 1;
                }
                out.push_tok(TokKind::Char, String::new(), line);
                i = if j < n && c[j] == '\'' { j + 1 } else { j };
                continue;
            }
            if c.get(i + 2) == Some(&'\'') && c.get(i + 1) != Some(&'\'') {
                out.push_tok(TokKind::Char, String::new(), line);
                i += 3;
                continue;
            }
            if c.get(i + 1).copied().is_some_and(is_ident_start) {
                let mut j = i + 1;
                while j < n && is_ident_continue(c[j]) {
                    j += 1;
                }
                let text: String = c[i + 1..j].iter().collect();
                out.push_tok(TokKind::Lifetime, text, line);
                i = j;
                continue;
            }
            out.push_tok(TokKind::Punct, "'".to_string(), line);
            i += 1;
            continue;
        }
        // Number.
        if ch.is_ascii_digit() {
            let mut text = String::new();
            while i < n && (c[i].is_ascii_alphanumeric() || c[i] == '_') {
                text.push(c[i]);
                i += 1;
                if matches!(text.chars().next_back(), Some('e' | 'E'))
                    && !text.starts_with("0x")
                    && i < n
                    && (c[i] == '+' || c[i] == '-')
                {
                    text.push(c[i]);
                    i += 1;
                }
            }
            // A fractional part only when a digit follows the dot, so
            // `0..n` and tuple indexing `pair.0.len()` stay exact.
            if i < n && c[i] == '.' && c.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                text.push('.');
                i += 1;
                while i < n && (c[i].is_ascii_alphanumeric() || c[i] == '_') {
                    text.push(c[i]);
                    i += 1;
                    if matches!(text.chars().next_back(), Some('e' | 'E'))
                        && i < n
                        && (c[i] == '+' || c[i] == '-')
                    {
                        text.push(c[i]);
                        i += 1;
                    }
                }
            }
            out.push_tok(TokKind::Num, text, line);
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(ch) {
            let mut j = i;
            while j < n && is_ident_continue(c[j]) {
                j += 1;
            }
            let text: String = c[i..j].iter().collect();
            out.push_tok(TokKind::Ident, text, line);
            i = j;
            continue;
        }
        // Punctuation; join `::`, `..=`, `..`.
        if ch == ':' && c.get(i + 1) == Some(&':') {
            out.push_tok(TokKind::Punct, "::".to_string(), line);
            i += 2;
            continue;
        }
        if ch == '.' && c.get(i + 1) == Some(&'.') {
            let (text, adv) = if c.get(i + 2) == Some(&'=') { ("..=", 3) } else { ("..", 2) };
            out.push_tok(TokKind::Punct, text.to_string(), line);
            i += adv;
            continue;
        }
        out.push_tok(TokKind::Punct, ch.to_string(), line);
        i += 1;
    }
    out
}

/// Consumes a cooked (escaped) string body starting just after the
/// opening quote; returns (contents, next index, next line).
fn cooked_string(c: &[char], mut i: usize, mut line: usize, out: &mut Lexed) -> (String, usize, usize) {
    let n = c.len();
    let mut value = String::new();
    while i < n {
        match c[i] {
            '"' => return (value, i + 1, line),
            '\\' => {
                let esc = c.get(i + 1).copied();
                i += 2;
                match esc {
                    Some('n') => value.push('\n'),
                    Some('t') => value.push('\t'),
                    Some('r') => value.push('\r'),
                    Some('0') => value.push('\0'),
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('\'') => value.push('\''),
                    Some('\n') => {
                        // Line continuation: the newline and leading
                        // whitespace on the next line are skipped.
                        line += 1;
                        out.mark_code(line);
                        while i < n && c[i] != '\n' && c[i].is_whitespace() {
                            i += 1;
                        }
                    }
                    // \x.. and \u{..}: contents are irrelevant to any
                    // rule; swallow up to the escape's end heuristically.
                    Some('u') if c.get(i) == Some(&'{') => {
                        while i < n && c[i] != '}' && c[i] != '\n' {
                            i += 1;
                        }
                        if i < n && c[i] == '}' {
                            i += 1;
                        }
                    }
                    Some('x') => i += 2,
                    _ => {}
                }
            }
            '\n' => {
                value.push('\n');
                line += 1;
                out.mark_code(line);
                i += 1;
            }
            other => {
                value.push(other);
                i += 1;
            }
        }
    }
    (value, i, line)
}

/// Tries to lex a raw/byte string (or byte char) starting at `i`
/// (which holds `r` or `b`). Returns `None` when the prefix is just the
/// start of an ordinary identifier.
fn string_with_prefix(
    c: &[char],
    i: usize,
    line: usize,
    out: &mut Lexed,
) -> Option<(String, usize, usize, TokKind)> {
    let n = c.len();
    let mut j = i;
    let mut raw = false;
    if c[j] == 'b' {
        j += 1;
        if c.get(j) == Some(&'\'') {
            // Byte char b'x' / b'\n'.
            let mut k = j + 1;
            if c.get(k) == Some(&'\\') {
                k += 2;
            } else {
                k += 1;
            }
            while k < n && c[k] != '\'' && c[k] != '\n' {
                k += 1;
            }
            let end = if k < n && c[k] == '\'' { k + 1 } else { k };
            return Some((String::new(), end, line, TokKind::Char));
        }
    }
    if c.get(j) == Some(&'r') {
        raw = true;
        j += 1;
    } else if c[i] == 'r' {
        raw = true;
        j = i + 1;
    }
    if raw {
        let mut hashes = 0usize;
        while c.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        if c.get(j) != Some(&'"') {
            return None;
        }
        j += 1;
        // Raw body: ends at `"` followed by `hashes` `#`s.
        let mut value = String::new();
        let mut cur_line = line;
        while j < n {
            if c[j] == '"' {
                let mut all = true;
                for k in 0..hashes {
                    if c.get(j + 1 + k) != Some(&'#') {
                        all = false;
                        break;
                    }
                }
                if all {
                    return Some((value, j + 1 + hashes, cur_line, TokKind::Str));
                }
            }
            if c[j] == '\n' {
                cur_line += 1;
                out.mark_code(cur_line);
            }
            value.push(c[j]);
            j += 1;
        }
        return Some((value, j, cur_line, TokKind::Str));
    }
    // Cooked byte string b"…".
    if c[i] == 'b' && c.get(j) == Some(&'"') {
        let (value, ni, nl) = cooked_string(c, j + 1, line, out);
        return Some((value, ni, nl, TokKind::Str));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).tokens.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("let x = 1;\nlet y = x;\n");
        assert_eq!(l.tokens[0].text, "let");
        assert_eq!(l.tokens[0].line, 1);
        let y = l.tokens.iter().find(|t| t.text == "y").unwrap();
        assert_eq!(y.line, 2);
        assert!(l.code_on(1) && l.code_on(2));
    }

    #[test]
    fn line_comment_collected_not_tokenized() {
        let l = lex("call(); // HashMap.iter() in a comment\n");
        assert!(l.comment_on(1).contains("HashMap.iter()"));
        assert!(!l.tokens.iter().any(|t| t.text == "HashMap"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("x /* a /* b */ c */ y\n");
        let ids = l.tokens.iter().map(|t| t.text.clone()).collect::<Vec<_>>();
        assert_eq!(ids, vec!["x", "y"]);
        assert!(l.comment_on(1).contains('a'));
        assert!(l.comment_on(1).contains('c'));
    }

    #[test]
    fn doubly_nested_block_comment_spanning_lines() {
        let l = lex("a /* one /* two\nthree */ four */ b\n");
        let ids: Vec<_> = l.tokens.iter().map(|t| t.text.clone()).collect();
        assert_eq!(ids, vec!["a", "b"]);
        assert_eq!(l.tokens[1].line, 2);
        assert!(l.comment_on(1).contains("one"));
        assert!(l.comment_on(2).contains("four"));
    }

    #[test]
    fn cooked_string_is_one_token_with_value() {
        let toks = kinds("let s = \"Instant::now()\";\n");
        let s = toks.iter().find(|(k, _)| *k == TokKind::Str).unwrap();
        assert_eq!(s.1, "Instant::now()");
        assert!(!idents("let s = \"Instant::now()\";\n").contains(&"Instant".to_string()));
    }

    #[test]
    fn escaped_quotes_do_not_end_string() {
        let toks = kinds("let s = \"a\\\"b\"; next()\n");
        let s = toks.iter().find(|(k, _)| *k == TokKind::Str).unwrap();
        assert_eq!(s.1, "a\"b");
        assert!(kinds("let s = \"a\\\"b\"; next()\n")
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "next"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds("let s = r#\"thread::spawn \"quoted\"\"#; f()\n");
        let s = toks.iter().find(|(k, _)| *k == TokKind::Str).unwrap();
        assert_eq!(s.1, "thread::spawn \"quoted\"");
        assert!(!idents("let s = r#\"thread::spawn\"#; f()\n").contains(&"thread".to_string()));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds("let a = b\"OsRng\"; let c = br#\"x\"#;\n");
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].1, "OsRng");
        assert_eq!(strs[1].1, "x");
        assert!(!idents("let a = b\"OsRng\";\n").contains(&"OsRng".to_string()));
    }

    #[test]
    fn byte_char_literal() {
        let toks = kinds("let a = b'x'; let b = b'\\n';\n");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let l = lex("fn f<'a>(c: char) -> &'a str { if c == 'x' { s } else { t } }\n");
        let lifetimes: Vec<_> =
            l.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text.clone()).collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
        // 'x' must not leak an `x` identifier token.
        assert!(!l.tokens.iter().any(|t| t.kind == TokKind::Ident && t.text == "x"));
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex("let q = '\\''; let n = '\\n'; let u = '\\u{1F600}';\n");
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
    }

    #[test]
    fn static_lifetime() {
        let l = lex("const S: &'static str = \"x\";\n");
        assert!(l.tokens.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
    }

    #[test]
    fn numbers_and_ranges() {
        let toks = kinds("for i in 0..10 { let f = 1.5e-3; let h = 0xFF_u32; }\n");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "1.5e-3"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0xFF_u32"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Punct && t == ".."));
        // `0..10` splits into two numbers, not a malformed float.
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "10"));
    }

    #[test]
    fn tuple_indexing_keeps_dot_separate() {
        let toks = kinds("pair.0.len()\n");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Punct && t == "."));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Num && t == "0"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "len"));
    }

    #[test]
    fn double_colon_is_one_token() {
        let toks = kinds("std::thread::spawn(f)\n");
        assert_eq!(toks.iter().filter(|(k, t)| *k == TokKind::Punct && t == "::").count(), 2);
    }

    #[test]
    fn r_prefixed_identifier_is_not_a_raw_string() {
        let ids = idents("let result = r2d2 + rate;\n");
        assert!(ids.contains(&"result".to_string()));
        assert!(ids.contains(&"r2d2".to_string()));
        assert!(ids.contains(&"rate".to_string()));
    }

    #[test]
    fn multiline_string_marks_all_lines_as_code() {
        let l = lex("let s = \"one\ntwo\";\nnext();\n");
        assert!(l.code_on(1));
        assert!(l.code_on(2));
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn comment_inside_string_stays_in_string() {
        let l = lex("let s = \"// hetlint: allow(r1) — nope\";\n");
        assert!(l.comment_on(1).is_empty());
        let s = l.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains("hetlint"));
    }

    #[test]
    fn string_inside_comment_stays_in_comment() {
        let l = lex("// \"not code\" thread::spawn\nf();\n");
        assert!(l.comment_on(1).contains("thread::spawn"));
        assert!(!l.tokens.iter().any(|t| t.text == "thread"));
    }
}
