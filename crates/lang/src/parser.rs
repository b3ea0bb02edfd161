//! Recursive-descent parser for the mini-C language.

use std::cell::Cell;
use std::fmt;

use sra_ir::{CmpOp, Ty};

use crate::ast::{BinKind, Expr, FuncDecl, Program, Stmt};
use crate::lexer::{Span, Token};

/// Maximum nesting depth (expressions + blocks) before the parser
/// bails out with a structured error instead of risking stack
/// exhaustion on adversarial input. Debug-build parser frames are
/// large, so this stays comfortably inside a 2 MiB test-thread stack
/// (recursive lowering of the resulting AST is bounded by it too).
const MAX_DEPTH: usize = 64;

/// A grammar failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Index of the offending token.
    pub at: usize,
    /// What went wrong.
    pub message: String,
    /// Line/column of the offending token when the parser was given
    /// spans (see [`parse_spanned`]); `None` otherwise.
    pub span: Option<Span>,
    /// The function being parsed when the error occurred, if known.
    pub func: Option<String>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(span) => write!(f, "{} at {}", self.message, span)?,
            None => write!(f, "{} (at token {})", self.message, self.at)?,
        }
        if let Some(func) = &self.func {
            write!(f, " in function `{func}`")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// Parses a token stream into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] at the first violation of the grammar.
pub fn parse(tokens: &[Token]) -> Result<Program, ParseError> {
    parse_spanned(tokens, &[]).map(|(prog, _)| prog)
}

/// Like [`parse`], but takes the token spans from
/// [`crate::lexer::lex_spanned`] so errors carry line:col positions,
/// and additionally returns for each parsed function its half-open
/// token range `[start, end)` in the input stream (including a
/// leading `export`). The ranges drive function-granularity diffing.
///
/// `spans` may be empty (positions are then omitted from errors); if
/// non-empty it must be the same length as `tokens`.
///
/// # Errors
///
/// Returns a [`ParseError`] at the first violation of the grammar.
pub fn parse_spanned(
    tokens: &[Token],
    spans: &[Span],
) -> Result<(Program, Vec<(usize, usize)>), ParseError> {
    let items = parse_items(tokens, spans, 0).map_err(|(e, _)| e)?;
    let mut prog = Program::default();
    let mut ranges = Vec::new();
    let mut start = 0;
    for (item, end) in items {
        match item {
            TopItem::Global(name, size) => prog.globals.push((name, size)),
            TopItem::Func(decl) => {
                prog.funcs.push(decl);
                ranges.push((start, end));
            }
        }
        start = end;
    }
    Ok((prog, ranges))
}

/// A top-level item: a global array or a function definition.
#[derive(Debug)]
pub(crate) enum TopItem {
    Global(String, i64),
    Func(FuncDecl),
}

/// Parses the top-level items of `tokens`, each with the index just
/// past its last token. `tokens` may be a window of a longer stream
/// that starts at an item boundary, `base` tokens into it: errors then
/// report stream-wide token indices. Alongside an error comes whether
/// the parse looked past the end of `tokens` before failing, in which
/// case a longer window may parse where this one did not.
pub(crate) fn parse_items(
    tokens: &[Token],
    spans: &[Span],
    base: usize,
) -> Result<Vec<(TopItem, usize)>, (ParseError, bool)> {
    let mut p = Parser {
        tokens,
        spans,
        base,
        pos: 0,
        depth: 0,
        current_func: None,
        hit_end: Cell::new(false),
    };
    let mut items = Vec::new();
    while p.pos < tokens.len() {
        match p.item() {
            Ok(item) => items.push((item, p.pos)),
            Err(e) => return Err((e, p.hit_end.get())),
        }
    }
    Ok(items)
}

struct Parser<'a> {
    tokens: &'a [Token],
    spans: &'a [Span],
    /// Stream index of `tokens[0]`.
    base: usize,
    pos: usize,
    depth: usize,
    current_func: Option<String>,
    /// Set when a lookahead ran past the end of `tokens`.
    hit_end: Cell<bool>,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        // Clamp so "unexpected end of input" errors still point at
        // the last real token's position.
        let at = self.pos.min(self.spans.len().saturating_sub(1));
        Err(ParseError {
            at: self.base + self.pos,
            message: message.into(),
            span: self.spans.get(at).copied(),
            func: self.current_func.clone(),
        })
    }

    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err("too deeply nested");
        }
        Ok(())
    }

    /// The token `k` places ahead, noting a look past the end.
    fn look(&self, k: usize) -> Option<&'a Token> {
        let t = self.tokens.get(self.pos + k);
        if t.is_none() {
            self.hit_end.set(true);
        }
        t
    }

    fn peek(&self) -> Option<&'a Token> {
        self.look(0)
    }

    fn next(&mut self) -> Option<&'a Token> {
        let t = self.look(0);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Token) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`, found {:?}", want, self.peek()))
        }
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    fn ty(&mut self) -> Result<Ty, ParseError> {
        if self.is_kw("int") {
            self.pos += 1;
            Ok(Ty::Int)
        } else if self.is_kw("ptr") {
            self.pos += 1;
            Ok(Ty::Ptr)
        } else {
            self.err("expected type `int` or `ptr`")
        }
    }

    fn item(&mut self) -> Result<TopItem, ParseError> {
        let exported = if self.is_kw("export") {
            self.pos += 1;
            true
        } else {
            false
        };
        // Global: `int name [ N ] ;` — lookahead for `[` after name.
        if !exported && self.is_kw("int") && matches!(self.look(2), Some(Token::LBracket)) {
            self.pos += 1;
            let name = self.eat_ident()?;
            self.eat(&Token::LBracket)?;
            let size = match self.next().cloned() {
                Some(Token::Int(n)) => n,
                other => return self.err(format!("expected array size, found {other:?}")),
            };
            self.eat(&Token::RBracket)?;
            self.eat(&Token::Semi)?;
            return Ok(TopItem::Global(name, size));
        }
        self.function(exported).map(TopItem::Func)
    }

    fn function(&mut self, exported: bool) -> Result<FuncDecl, ParseError> {
        let ret = if self.is_kw("void") {
            self.pos += 1;
            None
        } else {
            Some(self.ty()?)
        };
        let name = self.eat_ident()?;
        self.current_func = Some(name.clone());
        self.eat(&Token::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                let ty = self.ty()?;
                let pname = self.eat_ident()?;
                params.push((pname, ty));
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.eat(&Token::RParen)?;
        let body = self.block()?;
        self.current_func = None;
        let exported = exported || name == "main";
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
            exported,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.descend()?;
        let r = self.block_inner();
        self.depth -= 1;
        r
    }

    fn block_inner(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat(&Token::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != Some(&Token::RBrace) {
            if self.peek().is_none() {
                return self.err("unterminated block");
            }
            stmts.push(self.stmt()?);
        }
        self.eat(&Token::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        // Declarations.
        if (self.is_kw("int") || self.is_kw("ptr")) && matches!(self.look(1), Some(Token::Ident(_)))
        {
            let ty = self.ty()?;
            let name = self.eat_ident()?;
            self.eat(&Token::Semi)?;
            return Ok(Stmt::Decl(name, ty));
        }
        if self.is_kw("if") {
            self.pos += 1;
            self.eat(&Token::LParen)?;
            let cond = self.expr()?;
            self.eat(&Token::RParen)?;
            let then = self.block()?;
            let els = if self.is_kw("else") {
                self.pos += 1;
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(cond, then, els));
        }
        if self.is_kw("while") {
            self.pos += 1;
            self.eat(&Token::LParen)?;
            let cond = self.expr()?;
            self.eat(&Token::RParen)?;
            let body = self.block()?;
            return Ok(Stmt::While(cond, body));
        }
        if self.is_kw("for") {
            // for (init; cond; step) body — sugar over while.
            self.pos += 1;
            self.eat(&Token::LParen)?;
            let init = self.simple_stmt()?;
            self.eat(&Token::Semi)?;
            let cond = self.expr()?;
            self.eat(&Token::Semi)?;
            let step = self.simple_stmt()?;
            self.eat(&Token::RParen)?;
            let mut body = self.block()?;
            body.push(step);
            return Ok(Stmt::If(
                Expr::Int(1),
                vec![init, Stmt::While(cond, body)],
                Vec::new(),
            ));
        }
        if self.is_kw("return") {
            self.pos += 1;
            if self.peek() == Some(&Token::Semi) {
                self.pos += 1;
                return Ok(Stmt::Return(None));
            }
            let e = self.expr()?;
            self.eat(&Token::Semi)?;
            return Ok(Stmt::Return(Some(e)));
        }
        let s = self.simple_stmt()?;
        self.eat(&Token::Semi)?;
        Ok(s)
    }

    /// Assignment, store, free or expression statement (no semicolon).
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.is_kw("free") && self.look(1) == Some(&Token::LParen) {
            self.pos += 2;
            let e = self.expr()?;
            self.eat(&Token::RParen)?;
            return Ok(Stmt::Free(e));
        }
        if self.is_kw("store_ptr") && self.look(1) == Some(&Token::LParen) {
            self.pos += 2;
            let addr = self.expr()?;
            self.eat(&Token::Comma)?;
            let val = self.expr()?;
            self.eat(&Token::RParen)?;
            return Ok(Stmt::StorePtr(addr, val));
        }
        // `*addr = e`
        if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            let addr = self.unary()?;
            self.eat(&Token::Assign)?;
            let val = self.expr()?;
            return Ok(Stmt::Store(addr, val));
        }
        // `name = e` | `name[i] = e` | expression statement
        if let Some(Token::Ident(name)) = self.peek().cloned() {
            match self.look(1) {
                Some(Token::Assign) => {
                    self.pos += 2;
                    let e = self.expr()?;
                    return Ok(Stmt::Assign(name, e));
                }
                Some(Token::LBracket) => {
                    // Could be `a[i] = e` or an expression `a[i]`;
                    // scan for `= ` after the matching bracket.
                    let save = self.pos;
                    self.pos += 2;
                    let idx = self.expr()?;
                    self.eat(&Token::RBracket)?;
                    if self.peek() == Some(&Token::Assign) {
                        self.pos += 1;
                        let val = self.expr()?;
                        let addr =
                            Expr::Bin(BinKind::Add, Box::new(Expr::Var(name)), Box::new(idx));
                        return Ok(Stmt::Store(addr, val));
                    }
                    self.pos = save;
                }
                _ => {}
            }
        }
        let e = self.expr()?;
        Ok(Stmt::ExprStmt(e))
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let r = self.comparison();
        self.depth -= 1;
        r
    }

    fn comparison(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::EqEq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.additive()?;
        Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let kind = match self.peek() {
                Some(Token::Plus) => BinKind::Add,
                Some(Token::Minus) => BinKind::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Bin(kind, Box::new(lhs), Box::new(rhs));
        }
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let kind = match self.peek() {
                Some(Token::Star) => BinKind::Mul,
                Some(Token::Slash) => BinKind::Div,
                Some(Token::Percent) => BinKind::Rem,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Bin(kind, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let r = self.unary_inner();
        self.depth -= 1;
        r
    }

    fn unary_inner(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Star) => {
                self.pos += 1;
                let e = self.unary()?;
                Ok(Expr::Load(Box::new(e)))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                let e = self.unary()?;
                Ok(Expr::Bin(BinKind::Sub, Box::new(Expr::Int(0)), Box::new(e)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.peek() == Some(&Token::LBracket) {
            self.pos += 1;
            let idx = self.expr()?;
            self.eat(&Token::RBracket)?;
            e = Expr::Index(Box::new(e), Box::new(idx));
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(n)) => {
                self.pos += 1;
                Ok(Expr::Int(n))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.eat(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Some(&Token::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Token::RParen)?;
                    return Ok(match name.as_str() {
                        "malloc" if args.len() == 1 => Expr::Malloc(Box::new(args.remove_first())),
                        "alloca" if args.len() == 1 => Expr::Alloca(Box::new(args.remove_first())),
                        "load_ptr" if args.len() == 1 => {
                            Expr::LoadPtr(Box::new(args.remove_first()))
                        }
                        _ => Expr::Call(name, args),
                    });
                }
                Ok(Expr::Var(name))
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

trait RemoveFirst<T> {
    fn remove_first(self) -> T;
}

impl<T> RemoveFirst<T> for Vec<T> {
    fn remove_first(mut self) -> T {
        self.remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Program {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_globals_and_functions() {
        let p = parse_src("int tab[8]; void f(ptr p, int n) { }");
        assert_eq!(p.globals, vec![("tab".to_owned(), 8)]);
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].params.len(), 2);
        assert_eq!(p.funcs[0].ret, None);
    }

    #[test]
    fn main_is_exported() {
        let p = parse_src("int main() { return 0; }");
        assert!(p.funcs[0].exported);
        let p = parse_src("int helper() { return 0; }");
        assert!(!p.funcs[0].exported);
        let p = parse_src("export int api() { return 0; }");
        assert!(p.funcs[0].exported);
    }

    #[test]
    fn precedence() {
        let p = parse_src("int f() { return 1 + 2 * 3; }");
        let Stmt::Return(Some(e)) = &p.funcs[0].body[0] else {
            panic!()
        };
        assert_eq!(
            *e,
            Expr::Bin(
                BinKind::Add,
                Box::new(Expr::Int(1)),
                Box::new(Expr::Bin(
                    BinKind::Mul,
                    Box::new(Expr::Int(2)),
                    Box::new(Expr::Int(3))
                ))
            )
        );
    }

    #[test]
    fn stores_and_loads() {
        let p = parse_src("void f(ptr p) { *p = 1; p[2] = 3; *(p + 4) = 5; }");
        assert!(matches!(p.funcs[0].body[0], Stmt::Store(_, _)));
        assert!(matches!(p.funcs[0].body[1], Stmt::Store(_, _)));
        assert!(matches!(p.funcs[0].body[2], Stmt::Store(_, _)));
        let p = parse_src("int f(ptr p) { return *p + p[1]; }");
        let Stmt::Return(Some(Expr::Bin(_, l, r))) = &p.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(**l, Expr::Load(_)));
        assert!(matches!(**r, Expr::Index(_, _)));
    }

    #[test]
    fn control_flow() {
        let p = parse_src(
            "void f(int n) { int i; i = 0; while (i < n) { i = i + 1; } \
             if (i == n) { i = 0; } else { i = 1; } }",
        );
        assert!(matches!(p.funcs[0].body[2], Stmt::While(_, _)));
        assert!(matches!(p.funcs[0].body[3], Stmt::If(_, _, _)));
    }

    #[test]
    fn for_sugar() {
        let p = parse_src("void f(int n) { int i; for (i = 0; i < n; i = i + 1) { } }");
        // Desugared into If(1) { init; while }
        assert!(matches!(p.funcs[0].body[1], Stmt::If(_, _, _)));
    }

    #[test]
    fn builtin_calls() {
        let p = parse_src("void f() { ptr p; p = malloc(4); free(p); int x; x = atoi(); }");
        assert!(matches!(
            p.funcs[0].body[1],
            Stmt::Assign(_, Expr::Malloc(_))
        ));
        assert!(matches!(p.funcs[0].body[2], Stmt::Free(_)));
        assert!(matches!(
            p.funcs[0].body[4],
            Stmt::Assign(_, Expr::Call(_, _))
        ));
    }

    #[test]
    fn errors_report_position() {
        let err = parse(&lex("void f( {").unwrap()).unwrap_err();
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn errors_carry_line_col_and_function() {
        let (tokens, spans) = crate::lexer::lex_spanned("void f() {\n  int x\n}").unwrap();
        let err = parse_spanned(&tokens, &spans).unwrap_err();
        // Missing `;` — reported at the `}` on line 3, inside `f`.
        assert_eq!(err.func.as_deref(), Some("f"));
        let span = err.span.expect("spans were provided");
        assert_eq!((span.line, span.col), (3, 1));
        assert!(err.to_string().contains("at 3:1"));
        assert!(err.to_string().contains("in function `f`"));
    }

    #[test]
    fn function_token_ranges_cover_each_unit() {
        let (tokens, spans) =
            crate::lexer::lex_spanned("int g[4]; void a() { } export int b() { return 0; }")
                .unwrap();
        let (prog, ranges) = parse_spanned(&tokens, &spans).unwrap();
        assert_eq!(prog.funcs.len(), 2);
        assert_eq!(ranges.len(), 2);
        // `a`'s unit starts after the global, `b`'s includes `export`.
        assert_eq!(tokens[ranges[0].0], Token::Ident("void".into()));
        assert_eq!(tokens[ranges[1].0], Token::Ident("export".into()));
        assert_eq!(ranges[1].1, tokens.len());
        assert_eq!(ranges[0].1, ranges[1].0);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let src = format!(
            "int f() {{ return {}1{}; }}",
            "(".repeat(5000),
            ")".repeat(5000)
        );
        let err = parse(&lex(&src).unwrap()).unwrap_err();
        assert!(err.message.contains("too deeply nested"), "{err}");
        // Unary self-recursion (`****…p`) is depth-limited too.
        let src = format!("int f(ptr p) {{ return {}p; }}", "*".repeat(5000));
        let err = parse(&lex(&src).unwrap()).unwrap_err();
        assert!(err.message.contains("too deeply nested"), "{err}");
        // Block nesting likewise.
        let src = format!(
            "void f() {{ {} {} }}",
            "if (1) {".repeat(5000),
            "}".repeat(5000)
        );
        let err = parse(&lex(&src).unwrap()).unwrap_err();
        assert!(err.message.contains("too deeply nested"), "{err}");
    }
}
