//! A lossless, dependency-free Rust token scanner.
//!
//! Line-oriented string matching cannot tell an `.expect()` *call*
//! from the same characters inside a string literal, a nested block
//! comment, or a doc example. This lexer produces the real token stream
//! the passes need, handling the parts of Rust's lexical grammar that
//! defeat greps:
//!
//! * raw strings with arbitrary hash fences (`r#"…"#`, `br##"…"##`,
//!   `cr"…"`) and raw identifiers (`r#fn`);
//! * nested block comments (`/* /* … */ */`);
//! * char-literal vs lifetime disambiguation (`'a'` vs `'a`,
//!   `'\u{1F600}'` vs `'static`);
//! * byte/char/C-string prefixes (`b"…"`, `b'x'`, `c"…"`);
//! * `#[cfg(test)]` / `#[test]` region tracking, so passes can skip
//!   test-only code structurally instead of "everything below the
//!   first matching line".
//!
//! It is *lossless*: comments are tokens too (the suppression and
//! justification machinery reads them), and every token carries its
//! byte span plus `line:col` for diagnostics. It does not attempt to
//! be a full lexer — numeric literal suffixes and multi-character
//! operators are not distinguished — but it never loses sync on any
//! code `rustc` accepts, which is the property the passes rely on.

#![expect(
    clippy::indexing_slicing,
    reason = "every index comes from `char_indices` on the string it indexes, so it lies on a char boundary"
)]

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw identifiers, without
    /// distinguishing them).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`), fence apostrophe
    /// included in the span.
    Lifetime,
    /// A character or byte literal (`'x'`, `b'\n'`).
    CharLit,
    /// A string literal of any flavor: plain, raw, byte, C, with any
    /// hash fence.
    StrLit,
    /// A numeric literal (integer or float, suffix included).
    NumLit,
    /// A single punctuation character (`.`, `(`, `<`, …). Multi-char
    /// operators appear as consecutive `Punct` tokens.
    Punct,
    /// A `//` comment, doc (`///`, `//!`) or plain, to end of line.
    LineComment,
    /// A `/* … */` comment, including arbitrarily nested ones.
    BlockComment,
}

/// One lexeme: kind, byte span, and 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The lexeme's kind.
    pub kind: TokenKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte, exclusive.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte within its line.
    pub col: u32,
}

impl Token {
    /// The token's text within the source it was lexed from. Returns
    /// an empty string if the span does not belong to `src`.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// Whether this token is a comment (line or block).
    #[must_use]
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Lexes `src` into its full token stream (whitespace dropped,
/// comments kept). Unterminated constructs (string, block comment) are
/// closed at end of input rather than reported — the passes analyze
/// code that already compiles.
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, maintaining line/col. Only called on ASCII
    /// or mid-char bytes; col counts bytes, which is fine for
    /// diagnostics.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn emit(&mut self, kind: TokenKind, start: usize, line: u32, col: u32) {
        self.out.push(Token {
            kind,
            start,
            end: self.pos,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            let (start, line, col) = (self.pos, self.line, self.col);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => {
                    while self.peek(0).is_some_and(|c| c != b'\n') {
                        self.bump();
                    }
                    self.emit(TokenKind::LineComment, start, line, col);
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    self.block_comment();
                    self.emit(TokenKind::BlockComment, start, line, col);
                }
                b'"' => {
                    self.escaped_string();
                    self.emit(TokenKind::StrLit, start, line, col);
                }
                b'\'' => {
                    let kind = self.char_or_lifetime();
                    self.emit(kind, start, line, col);
                }
                b'0'..=b'9' => {
                    self.number();
                    self.emit(TokenKind::NumLit, start, line, col);
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    let kind = self.ident_or_prefixed_literal();
                    self.emit(kind, start, line, col);
                }
                _ if b >= 0x80 => {
                    // Non-ASCII outside strings/comments: Rust allows
                    // unicode identifiers; treat the whole char run as
                    // an ident to stay in sync.
                    while self
                        .peek(0)
                        .is_some_and(|c| c >= 0x80 || c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.bump();
                    }
                    self.emit(TokenKind::Ident, start, line, col);
                }
                _ => {
                    self.bump();
                    self.emit(TokenKind::Punct, start, line, col);
                }
            }
        }
        self.out
    }

    /// Consumes a `/* … */` block comment with nesting.
    fn block_comment(&mut self) {
        self.bump_n(2); // "/*"
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break, // unterminated: close at EOF
            }
        }
    }

    /// Consumes a `"…"` string with `\` escapes (opening quote at
    /// `self.pos`).
    fn escaped_string(&mut self) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some(b'\\') => self.bump_n(2),
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
    }

    /// Consumes a raw string starting at `r`/`br`/`cr` whose fence is
    /// `hashes` `#` characters. `self.pos` is at the first `#` or the
    /// quote.
    fn raw_string(&mut self, hashes: usize) {
        self.bump_n(hashes); // fence hashes
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                Some(b'"') => {
                    let mut matched = true;
                    for k in 0..hashes {
                        if self.peek(1 + k) != Some(b'#') {
                            matched = false;
                            break;
                        }
                    }
                    if matched {
                        self.bump_n(1 + hashes);
                        break;
                    }
                    self.bump();
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
    }

    /// At a `'`: a char literal (`'x'`, `'\n'`, `'\u{…}'`) or a
    /// lifetime/label (`'a`, `'static`).
    fn char_or_lifetime(&mut self) -> TokenKind {
        // A quote directly followed by a backslash is always a char
        // literal escape.
        if self.peek(1) == Some(b'\\') {
            self.bump(); // '
            self.bump_n(2); // \x
                            // consume to the closing quote (handles '\u{10FFFF}')
            while self.peek(0).is_some_and(|c| c != b'\'') {
                self.bump();
            }
            self.bump(); // closing '
            return TokenKind::CharLit;
        }
        // Find the char after the quote and the byte after *that*
        // char: `'x'` closes immediately, a lifetime does not.
        let rest = &self.src[self.pos + 1..];
        let mut it = rest.char_indices();
        match it.next() {
            Some((_, c)) => {
                let after = self.pos + 1 + c.len_utf8();
                if self.bytes.get(after) == Some(&b'\'') {
                    // 'x' — a char literal (possibly multi-byte x).
                    self.bump(); // '
                    self.bump_n(c.len_utf8());
                    self.bump(); // closing '
                    TokenKind::CharLit
                } else {
                    // Lifetime or label: consume ident chars.
                    self.bump(); // '
                    while self
                        .peek(0)
                        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
                    {
                        self.bump();
                    }
                    TokenKind::Lifetime
                }
            }
            None => {
                self.bump();
                TokenKind::Punct // stray quote at EOF
            }
        }
    }

    /// Consumes a numeric literal, conservatively: digits, `_`,
    /// alphanumeric suffix chars, a `.` only when followed by a digit
    /// (so `0..n` stays three tokens), and a sign directly after an
    /// exponent `e`/`E`.
    fn number(&mut self) {
        let mut prev = 0u8;
        loop {
            match self.peek(0) {
                Some(c) if c.is_ascii_alphanumeric() || c == b'_' => {
                    prev = c;
                    self.bump();
                }
                Some(b'.') if self.peek(1).is_some_and(|d| d.is_ascii_digit()) => {
                    prev = b'.';
                    self.bump();
                }
                Some(c @ (b'+' | b'-'))
                    if (prev == b'e' || prev == b'E')
                        && self.peek(1).is_some_and(|d| d.is_ascii_digit()) =>
                {
                    prev = c;
                    self.bump();
                }
                _ => break,
            }
        }
    }

    /// Consumes an identifier, or reinterprets the `r`/`b`/`c`/`br`/
    /// `cr` prefixes as the start of a (raw/byte/C) string literal or
    /// raw identifier.
    fn ident_or_prefixed_literal(&mut self) -> TokenKind {
        let start = self.pos;
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        let ident = &self.src[start..self.pos];
        let raw_capable = matches!(ident, "r" | "br" | "cr");
        let plain_string_prefix = matches!(ident, "b" | "c") || raw_capable;
        match self.peek(0) {
            // b"…"  c"…"  r"…"  br"…"  cr"…"
            Some(b'"') if plain_string_prefix => {
                if raw_capable {
                    self.raw_string(0);
                } else {
                    self.escaped_string();
                }
                TokenKind::StrLit
            }
            // r#"…"#  br##"…"##  — or a raw identifier r#keyword.
            Some(b'#') if raw_capable => {
                let mut hashes = 0usize;
                while self.peek(hashes) == Some(b'#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some(b'"') {
                    self.raw_string(hashes);
                    TokenKind::StrLit
                } else if ident == "r" && hashes == 1 {
                    // raw identifier: consume `#ident`
                    self.bump();
                    while self
                        .peek(0)
                        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
                    {
                        self.bump();
                    }
                    TokenKind::Ident
                } else {
                    TokenKind::Ident
                }
            }
            // b'x' — byte char literal.
            Some(b'\'') if ident == "b" => self.char_or_lifetime(),
            _ => TokenKind::Ident,
        }
    }
}

/// Marks which tokens live inside test-only code: the item following
/// `#[test]`, `#[cfg(test)]`, or any `#[cfg(…)]` whose predicate
/// mentions `test` without `not` (e.g. `#[cfg(any(test, feature =
/// "audit"))]` — code that only runs under test or the opt-in audit
/// feature is held to test-code rules).
///
/// The "item" is everything from the attribute to the next `;` at the
/// attribute's depth, or the matching `}` of the first block opened.
/// An *inner* `#![cfg(test)]` marks the rest of the file. This is a
/// structural improvement over the old grep rule ("everything below
/// the first `#[cfg(test)]` line"), which silently exempted real code
/// placed after a test module.
#[must_use]
pub fn test_mask(src: &str, tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    // Indices of non-comment tokens, for structural scanning.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };
    let text = |ci: usize| -> &str { tok(ci).text(src) };

    let mut ci = 0usize;
    while ci < code.len() {
        if text(ci) != "#" {
            ci += 1;
            continue;
        }
        let inner = ci + 1 < code.len() && text(ci + 1) == "!";
        let open = ci + if inner { 2 } else { 1 };
        if open >= code.len() || text(open) != "[" {
            ci += 1;
            continue;
        }
        // Find the matching `]` of the attribute.
        let mut depth = 0usize;
        let mut close = open;
        while close < code.len() {
            match text(close) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        if close >= code.len() {
            break;
        }
        let attr_words: Vec<&str> = (open + 1..close).map(text).collect();
        let is_test_attr = match attr_words.first() {
            Some(&"test") => attr_words.len() == 1,
            Some(&"cfg") => attr_words.contains(&"test") && !attr_words.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            ci = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the enclosing scope (for our purposes,
            // the rest of the file) is test-only.
            for slot in mask.iter_mut().skip(code[ci]) {
                *slot = true;
            }
            return mask;
        }
        // Skip any further attributes on the same item.
        let mut after = close + 1;
        while after < code.len() && text(after) == "#" {
            let a_open = after + 1;
            if a_open >= code.len() || text(a_open) != "[" {
                break;
            }
            let mut d = 0usize;
            let mut j = a_open;
            while j < code.len() {
                match text(j) {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            after = j + 1;
        }
        // The item body: up to a `;` before any brace, or the
        // matching `}` of the first `{` opened.
        let mut j = after;
        let mut brace = 0usize;
        let mut end = code.len().saturating_sub(1);
        while j < code.len() {
            match text(j) {
                ";" if brace == 0 => {
                    end = j;
                    break;
                }
                "{" => brace += 1,
                "}" => {
                    brace = brace.saturating_sub(1);
                    if brace == 0 {
                        end = j;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // Mark every token (comments included) spanning the region.
        let from = tokens[code[ci]].start;
        let to = tokens[code[end.min(code.len() - 1)]].end;
        for (t, slot) in mask.iter_mut().enumerate() {
            if tokens[t].start >= from && tokens[t].end <= to {
                *slot = true;
            }
        }
        ci = end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = ".unwrap() /* not a comment */";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::StrLit && t.contains(".unwrap()")));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::BlockComment));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = "let s = r##\"quote \" and \"# inside\"##; x.lock()";
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::StrLit && t.contains("inside")));
        // Lexer stays in sync: the lock call after the raw string is
        // still seen as real tokens.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "lock"));
    }

    #[test]
    fn byte_and_c_strings() {
        let toks = kinds(r##"let a = b"bytes"; let b = c"c-str"; let c = br#"raw"#;"##);
        let strs: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::StrLit)
            .collect();
        assert_eq!(strs.len(), 3, "{toks:?}");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        let toks = kinds(src);
        assert_eq!(toks[0].0, TokenKind::BlockComment);
        assert!(toks[0].1.ends_with("comment */"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "fn"));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("let c: char = 'a'; fn f<'a>(x: &'a str) -> &'static str { x } '\\n'");
        let chars: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::CharLit)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(chars, vec!["'a'", "'\\n'"]);
        let lifes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(lifes, vec!["'a", "'a", "'static"]);
    }

    #[test]
    fn unicode_char_literal_stays_in_sync() {
        let toks = kinds("let c = '✓'; x.unwrap()");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::CharLit && t == "'✓'"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#fn = 1; r#type.lock()");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#fn"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "lock"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let toks = kinds("for i in 0..10 { let f = 1.5e-3; }");
        let nums: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::NumLit)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3"]);
    }

    #[test]
    fn line_and_col_are_one_based() {
        let src = "fn f() {\n    x.lock();\n}";
        let toks = lex(src);
        let lock = toks
            .iter()
            .find(|t| t.text(src) == "lock")
            .expect("test invariant: lock token present");
        assert_eq!((lock.line, lock.col), (2, 7));
    }

    #[test]
    fn cfg_test_region_covers_only_the_item() {
        let src = "fn live() { a.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }\n\
                   fn also_live() { c.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(src, &toks);
        let unwraps: Vec<bool> = toks
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.text(src) == "unwrap")
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(
            unwraps,
            vec![false, true, false],
            "only the cfg(test) mod is masked — code after it is live"
        );
    }

    #[test]
    fn cfg_any_test_audit_counts_as_test() {
        let src =
            "#[cfg(any(test, feature = \"audit\"))]\nfn audit() { x.unwrap(); }\nfn live() {}";
        let toks = lex(src);
        let mask = test_mask(src, &toks);
        let unwrap_masked = toks
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.text(src) == "unwrap")
            .map(|(_, &m)| m);
        assert_eq!(unwrap_masked, Some(true));
        let live_masked = toks
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.text(src) == "live")
            .map(|(_, &m)| m);
        assert_eq!(live_masked, Some(false));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }";
        let toks = lex(src);
        let mask = test_mask(src, &toks);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn test_attribute_marks_the_fn() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn live() { y.expect(\"m\"); }";
        let toks = lex(src);
        let mask = test_mask(src, &toks);
        let expect_masked = toks
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.text(src) == "expect")
            .map(|(_, &m)| m);
        assert_eq!(expect_masked, Some(false));
        let unwrap_masked = toks
            .iter()
            .zip(&mask)
            .find(|(t, _)| t.text(src) == "unwrap")
            .map(|(_, &m)| m);
        assert_eq!(unwrap_masked, Some(true));
    }
}
