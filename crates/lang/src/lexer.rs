//! Tokenizer for the mini-C language.

use std::fmt;

/// A lexical token. `Hash` lets function-granularity diffing
/// fingerprint a token span cheaply (see `source::SourceProgram`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Punctuation and operators.
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{}", s),
            Token::Int(i) => write!(f, "{}", i),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::Semi => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Assign => write!(f, "="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::EqEq => write!(f, "=="),
            Token::Ne => write!(f, "!="),
        }
    }
}

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number (in bytes), starting at 1.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A tokenization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// The character.
    pub ch: char,
    /// Line/column of the offending character.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unexpected character {:?} at {}", self.ch, self.span)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes mini-C source. `//` line comments and `/* */` block
/// comments are skipped.
///
/// # Errors
///
/// Returns a [`LexError`] at the first unrecognized character or
/// unterminated block comment.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    lex_spanned(source).map(|(tokens, _)| tokens)
}

/// Like [`lex`], but also returns the 1-based line/column of each
/// token (same length as the token vector) so later stages can report
/// positions in the original text.
///
/// # Errors
///
/// Returns a [`LexError`] at the first unrecognized character or
/// unterminated block comment.
pub fn lex_spanned(source: &str) -> Result<(Vec<Token>, Vec<Span>), LexError> {
    let mut out = Lexed::default();
    lex_until(source, Cursor::default(), &mut out, |_| false)?;
    Ok((out.tokens, out.spans))
}

/// Tokens of a stretch of text, with each token's position.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub(crate) tokens: Vec<Token>,
    pub(crate) spans: Vec<Span>,
    /// Byte offset just past each token.
    pub(crate) ends: Vec<usize>,
}

/// Where a lexer paused between tokens, outside any comment: the only
/// state it carries there is its position, so lexing can resume from
/// a cursor, and two cursors over equal remaining bytes yield equal
/// tokens.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    pub(crate) offset: usize,
    line: u32,
    line_start: usize,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor {
            offset: 0,
            line: 1,
            line_start: 0,
        }
    }
}

impl Cursor {
    /// The cursor at byte `offset` of `source`, which must lie between
    /// tokens and outside any comment, on 1-based line `line`.
    pub(crate) fn at(source: &str, offset: usize, line: u32) -> Cursor {
        let line_start = source.as_bytes()[..offset]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |k| k + 1);
        Cursor {
            offset,
            line,
            line_start,
        }
    }

    /// The line the cursor is on.
    pub(crate) fn line(self) -> u32 {
        self.line
    }
}

/// Lexes `source` from `cur` into `out`, pausing at the first offset
/// between tokens for which `stop` holds, or at the end of the text.
/// Returns the cursor it paused at.
#[allow(clippy::too_many_lines)]
pub(crate) fn lex_until(
    source: &str,
    cur: Cursor,
    out: &mut Lexed,
    mut stop: impl FnMut(usize) -> bool,
) -> Result<Cursor, LexError> {
    let bytes = source.as_bytes();
    let mut i = cur.offset;
    // Current line number and the byte offset where it starts; every
    // consumed `\n` (including inside comments) advances them.
    let mut line = cur.line;
    let mut line_start = cur.line_start;
    macro_rules! span_at {
        ($off:expr) => {
            Span {
                line,
                col: ($off - line_start + 1) as u32,
            }
        };
    }
    macro_rules! push {
        ($tok:expr, $start:expr, $end:expr) => {{
            out.spans.push(span_at!($start));
            out.tokens.push($tok);
            out.ends.push($end);
        }};
    }
    let error = |i: usize, span: Span| LexError {
        offset: i,
        ch: source[i..].chars().next().unwrap_or('\0'),
        span,
    };
    while i < bytes.len() {
        if stop(i) {
            break;
        }
        let c = bytes[i] as char;
        match c {
            '\n' => {
                i += 1;
                line += 1;
                line_start = i;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let open = i;
                let open_span = span_at!(open);
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        // An unterminated comment is an error at its
                        // opening, not a comment up to the end of the
                        // text.
                        return Err(error(open, open_span));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        line_start = i + 1;
                    }
                    i += 1;
                }
                i += 2;
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let value = source[start..i].parse().unwrap_or(i64::MAX);
                push!(Token::Int(value), start, i);
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                push!(Token::Ident(source[start..i].to_owned()), start, i);
            }
            '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '+' | '-' | '*' | '/' | '%' => {
                let tok = match c {
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    '[' => Token::LBracket,
                    ']' => Token::RBracket,
                    ';' => Token::Semi,
                    ',' => Token::Comma,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '*' => Token::Star,
                    '/' => Token::Slash,
                    _ => Token::Percent,
                };
                push!(tok, i, i + 1);
                i += 1;
            }
            '<' | '>' | '=' | '!' => {
                let eq = bytes.get(i + 1) == Some(&b'=');
                let tok = match (c, eq) {
                    ('<', true) => Token::Le,
                    ('<', false) => Token::Lt,
                    ('>', true) => Token::Ge,
                    ('>', false) => Token::Gt,
                    ('=', true) => Token::EqEq,
                    ('=', false) => Token::Assign,
                    ('!', true) => Token::Ne,
                    _ => return Err(error(i, span_at!(i))),
                };
                let len = 1 + usize::from(eq);
                push!(tok, i, i + len);
                i += len;
            }
            _ => return Err(error(i, span_at!(i))),
        }
    }
    Ok(Cursor {
        offset: i,
        line,
        line_start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_numbers() {
        let toks = lex("int x = 42;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("int".into()),
                Token::Ident("x".into()),
                Token::Assign,
                Token::Int(42),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("< <= > >= == !=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::EqEq,
                Token::Ne
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("a // comment\n b /* block\n comment */ c").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("a".into()),
                Token::Ident("b".into()),
                Token::Ident("c".into())
            ]
        );
    }

    #[test]
    fn rejects_unknown() {
        let err = lex("a $ b").unwrap_err();
        assert_eq!(err.ch, '$');
        assert_eq!(err.offset, 2);
        assert!(lex("!x").is_err());
    }

    #[test]
    fn spans_are_line_and_column() {
        let (tokens, spans) = lex_spanned("int x;\n  x = 1; /* multi\nline */ x").unwrap();
        assert_eq!(tokens.len(), spans.len());
        assert_eq!(spans[0], Span { line: 1, col: 1 }); // int
        assert_eq!(spans[1], Span { line: 1, col: 5 }); // x
        assert_eq!(spans[3], Span { line: 2, col: 3 }); // x after newline
                                                        // Block comments advance line counting.
        assert_eq!(spans.last().unwrap().line, 3);
        let err = lex_spanned("int a;\n @").unwrap_err();
        assert_eq!(err.span, Span { line: 2, col: 2 });
        assert!(err.to_string().contains("at 2:2"));
    }

    #[test]
    fn error_reports_the_whole_character() {
        let err = lex("int \u{e9};").unwrap_err();
        assert_eq!((err.ch, err.offset), ('\u{e9}', 4));
        let err = lex("a \u{1f600}").unwrap_err();
        assert_eq!(err.ch, '\u{1f600}');
    }

    #[test]
    fn unterminated_block_comment_is_an_error_at_its_opening() {
        let err = lex_spanned("int f;\n  /* open\n x y").unwrap_err();
        assert_eq!((err.ch, err.offset), ('/', 9));
        assert_eq!(err.span, Span { line: 2, col: 3 });
        assert!(lex("a /*").is_err());
        assert!(lex("a /*/").is_err());
        assert_eq!(lex("a /**/ b").unwrap().len(), 2);
        assert_eq!(lex("a /* x */").unwrap().len(), 1);
    }

    #[test]
    fn lexing_resumes_from_a_cursor() {
        let src = "int a;\nint b; /* c */ int c;";
        let (whole, spans) = lex_spanned(src).unwrap();
        let mut out = Lexed::default();
        let paused = lex_until(src, Cursor::default(), &mut out, |i| i == 6).unwrap();
        assert_eq!((paused.offset, out.tokens.len()), (6, 3));
        let resumed = Cursor::at(src, 6, 1);
        assert_eq!(
            (resumed.line, resumed.line_start),
            (paused.line, paused.line_start)
        );
        lex_until(src, Cursor::at(src, 7, 2), &mut out, |_| false).unwrap();
        assert_eq!((out.tokens, out.spans), (whole, spans));
        assert_eq!(out.ends.last(), Some(&src.len()));
    }
}
