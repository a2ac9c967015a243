//! A hand-rolled token-level Rust lexer.
//!
//! The workspace builds with no registry access, so `syn` is not an option;
//! the rules only need token streams anyway. The lexer understands the
//! parts of Rust's lexical grammar that matter for not producing false
//! positives: line and (nested) block comments, string/char/byte literals,
//! raw strings with arbitrary `#` fences, lifetimes vs char literals, and
//! numeric literals (so `0..n` does not eat the range dots). Everything
//! else is identifiers and single-character punctuation — rules that need
//! multi-character operators (`::`, `.await`-style paths) match adjacent
//! punctuation tokens.

/// What kind of token this is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// A lifetime such as `'a` (without the quote).
    Lifetime(String),
    /// Single punctuation character.
    Punct(char),
    /// String, raw string, byte string, char, or byte literal (content
    /// dropped — rules never look inside literals).
    Literal,
    /// Numeric literal (content dropped).
    Number,
    /// Comment text, including the `//` / `/*` markers.
    Comment(String),
}

/// One token plus the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Tokenize `src`. The lexer never fails: unterminated constructs consume
/// to end-of-input, which is the forgiving behaviour a linter wants (the
/// compiler is the authority on well-formedness, not us).
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        b: src.as_bytes(),
        src,
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    src: &'a str,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_cont(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.pos + ahead).copied()
    }

    /// Advance one byte, tracking line numbers.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn push(&mut self, kind: TokKind, line: u32) {
        self.out.push(Token { kind, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                b' ' | b'\t' | b'\r' | b'\n' => self.bump(),
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(line),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(line),
                b'r' | b'b' if self.raw_or_byte_literal(line) => {}
                b'"' => self.string(line),
                b'\'' => self.quote(line),
                c if c.is_ascii_digit() => self.number(line),
                c if is_ident_start(c) => self.ident(line),
                c => {
                    self.bump();
                    self.push(TokKind::Punct(c as char), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let start = self.pos;
        while self.peek(0).is_some_and(|c| c != b'\n') {
            self.bump();
        }
        let text = self.src[start..self.pos].to_string();
        self.push(TokKind::Comment(text), line);
    }

    fn block_comment(&mut self, line: u32) {
        let start = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        let text = self.src[start..self.pos].to_string();
        self.push(TokKind::Comment(text), line);
    }

    /// Handle `r"…"`, `r#"…"#`, `br"…"`, `b"…"`, `b'…'` starting at an `r`
    /// or `b`. Returns false if this is actually a plain identifier.
    fn raw_or_byte_literal(&mut self, line: u32) -> bool {
        let c0 = self.peek(0);
        // b'…' byte literal (possibly escaped).
        if c0 == Some(b'b') && self.peek(1) == Some(b'\'') {
            self.bump();
            self.bump();
            if self.peek(0) == Some(b'\\') {
                self.bump();
            }
            while self.peek(0).is_some_and(|c| c != b'\'') {
                self.bump();
            }
            self.bump(); // closing quote
            self.push(TokKind::Literal, line);
            return true;
        }
        // b"…": ordinary escaped byte string.
        if c0 == Some(b'b') && self.peek(1) == Some(b'"') {
            self.bump();
            self.string(line);
            return true;
        }
        // r / br followed by a fence or quote: raw (byte) string.
        let prefix = match (c0, self.peek(1), self.peek(2)) {
            (Some(b'r'), Some(b'"') | Some(b'#'), _) => 1,
            (Some(b'b'), Some(b'r'), Some(b'"') | Some(b'#')) => 2,
            _ => return false,
        };
        // A raw identifier (`r#match`) also starts `r#`; only commit after
        // confirming the fence run ends in a quote.
        let mut fences = 0usize;
        while self.peek(prefix + fences) == Some(b'#') {
            fences += 1;
        }
        if self.peek(prefix + fences) != Some(b'"') {
            return false;
        }
        for _ in 0..prefix + fences + 1 {
            self.bump();
        }
        loop {
            match self.peek(0) {
                None => break,
                Some(b'"') => {
                    self.bump();
                    let mut got = 0usize;
                    while got < fences && self.peek(0) == Some(b'#') {
                        got += 1;
                        self.bump();
                    }
                    if got == fences {
                        break;
                    }
                }
                Some(_) => self.bump(),
            }
        }
        self.push(TokKind::Literal, line);
        true
    }

    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
            }
        }
        self.push(TokKind::Literal, line);
    }

    /// A `'`: either a lifetime (`'a`) or a char literal (`'x'`, `'\n'`).
    fn quote(&mut self, line: u32) {
        self.bump(); // the quote
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal.
                self.bump();
                while self.peek(0).is_some_and(|c| c != b'\'') {
                    self.bump();
                }
                self.bump();
                self.push(TokKind::Literal, line);
            }
            Some(c) if is_ident_start(c) => {
                // Could be 'a' (char) or 'a (lifetime): a char literal has a
                // closing quote right after one scalar; a lifetime does not.
                let start = self.pos;
                while self.peek(0).is_some_and(is_ident_cont) {
                    self.bump();
                }
                if self.peek(0) == Some(b'\'') {
                    self.bump();
                    self.push(TokKind::Literal, line);
                } else {
                    let name = self.src[start..self.pos].to_string();
                    self.push(TokKind::Lifetime(name), line);
                }
            }
            Some(_) => {
                // Punctuation char literal like '(' or '0'.
                self.bump();
                if self.peek(0) == Some(b'\'') {
                    self.bump();
                }
                self.push(TokKind::Literal, line);
            }
            None => self.push(TokKind::Punct('\''), line),
        }
    }

    fn number(&mut self, line: u32) {
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.bump();
        }
        // Fraction only if `.` is followed by a digit (so `0..n` and
        // `1.sum()` leave the dot to punctuation).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.bump();
            }
            // Signed exponent (`1.5e-3`): the alnum scan above stops at the
            // sign, so stitch it back on.
            if matches!(self.peek(0), Some(b'+') | Some(b'-'))
                && self
                    .src
                    .as_bytes()
                    .get(self.pos.wrapping_sub(1))
                    .is_some_and(|c| *c == b'e' || *c == b'E')
            {
                self.bump();
                while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric()) {
                    self.bump();
                }
            }
        } else if matches!(self.peek(0), Some(b'+') | Some(b'-'))
            && self
                .src
                .as_bytes()
                .get(self.pos.wrapping_sub(1))
                .is_some_and(|c| *c == b'e' || *c == b'E')
        {
            self.bump();
            while self.peek(0).is_some_and(|c| c.is_ascii_alphanumeric()) {
                self.bump();
            }
        }
        self.push(TokKind::Number, line);
    }

    fn ident(&mut self, line: u32) {
        let start = self.pos;
        while self.peek(0).is_some_and(is_ident_cont) {
            self.bump();
        }
        let text = self.src[start..self.pos].to_string();
        self.push(TokKind::Ident(text), line);
    }
}

/// Line spans (1-based, inclusive) of `#[cfg(test)] mod … { … }` bodies.
/// Rules that only apply to production code subtract these.
pub fn test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    let mut i = 0;
    while i + 5 < code.len() {
        let window = &code[i..];
        let is_cfg_test = window[0].1.is_punct('#')
            && window[1].1.is_punct('[')
            && window[2].1.ident() == Some("cfg")
            && window[3].1.is_punct('(')
            && window[4].1.ident() == Some("test")
            && window[5].1.is_punct(')');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan forward (over further attributes) for `mod name {`; bail at
        // the first `;` — the attribute was on a `use` or out-of-line mod.
        let mut j = i + 6;
        let mut start_line = None;
        while j < code.len() {
            let t = code[j].1;
            if t.is_punct(';') {
                break;
            }
            if t.ident() == Some("mod") {
                start_line = Some(t.line);
            }
            if let (Some(start), true) = (start_line, t.is_punct('{')) {
                // Brace-match to the end of the module body.
                let mut depth = 1usize;
                let mut k = j + 1;
                let mut end_line = t.line;
                while k < code.len() && depth > 0 {
                    if code[k].1.is_punct('{') {
                        depth += 1;
                    } else if code[k].1.is_punct('}') {
                        depth -= 1;
                    }
                    end_line = code[k].1.line;
                    k += 1;
                }
                spans.push((start, end_line));
                j = k;
                break;
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let src = r##"
            // Instant::now() in a comment
            /* unwrap() in /* a nested */ block */
            let s = "Instant::now()";
            let r = r#"panic!("x")"#;
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<&Token> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Lifetime(_)))
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let lits = toks.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(lits, 2); // 'x' and '\n'
    }

    #[test]
    fn numbers_leave_range_and_method_dots() {
        let toks = lex("for i in 0..n { (1.5e-3).abs(); x.sum::<f64>(); }");
        // `0..n`: Number, '.', '.', Ident(n)
        let mut it = toks.iter();
        while let Some(t) = it.next() {
            if t.kind == TokKind::Number {
                let a = it.next().expect("dot");
                assert!(a.is_punct('.') || a.is_punct(')'));
                break;
            }
        }
        assert!(idents("x.sum::<f64>()").contains(&"sum".to_string()));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn raw_string_fences_nest() {
        let toks = lex(r####"let x = r##"has "# inside"## ; y"####);
        assert!(toks.iter().any(|t| t.ident() == Some("y")));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            1
        );
    }

    #[test]
    fn cfg_test_mod_spans_cover_the_body() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let spans = test_spans(&lex(src));
        assert_eq!(spans, vec![(3, 5)]);
    }

    #[test]
    fn cfg_test_on_use_is_not_a_span() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn a() {}\n";
        assert!(test_spans(&lex(src)).is_empty());
    }
}
