//! Recursive-descent parser for the OpenCL-C kernel subset.
//!
//! The grammar is a pragmatic C subset sufficient for the paper's
//! training and test kernels: `__kernel` functions with pointer/scalar
//! parameters, declarations, assignments (plain, compound, `++`/`--`),
//! `if`/`for`/`while`/`do`, and a conventional C expression grammar with
//! precedence climbing.
//!
//! Nesting is bounded: past [`MAX_NESTING`] levels the parser answers
//! with a [`ParseError`] instead of recursing further, so no input can
//! overflow the stack of the thread parsing it.

use crate::ast::*;
use crate::lexer::{lex, Keyword, LexError, Op, Span, Token, TokenKind};
use std::fmt;

/// Parse error with location information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at line {}: {}",
            self.span.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

/// Deepest nesting [`parse`] accepts. One level is one statement
/// inside another (a `{` block, an `if`/loop body), one parenthesized,
/// indexed or call-argument expression, one prefix operator or cast,
/// one more operator in a binary chain, or one more `[..]` in an index
/// chain. Every walk over the AST (lowering, analysis, drop) recurses
/// at most this deep, whatever the source.
pub const MAX_NESTING: usize = 128;

/// Parse a full translation unit (one or more kernels).
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut kernels = Vec::new();
    while !p.at_eof() {
        kernels.push(p.kernel_fn()?);
    }
    if kernels.is_empty() {
        return Err(ParseError {
            message: "source contains no kernels".into(),
            span: Span::DUMMY,
        });
    }
    Ok(Program { kernels })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }
    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }
    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }
    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }
    fn eat_op(&mut self, op: Op) -> bool {
        if *self.peek() == TokenKind::Op(op) {
            self.bump();
            true
        } else {
            false
        }
    }
    fn expect_op(&mut self, op: Op) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.err(format_args!("expected {:?}, found {:?}", op, self.peek())))
        }
    }
    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if *self.peek() == TokenKind::Kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }
    fn expect_kw(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format_args!(
                "expected keyword {:?}, found {:?}",
                kw,
                self.peek()
            )))
        }
    }
    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format_args!("expected identifier, found {other:?}"))),
        }
    }
    /// Go one nesting level deeper, or fail past [`MAX_NESTING`]. The
    /// caller restores `depth` when it leaves the level.
    fn deepen(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format_args!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deepen()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// An error at the current token. Kept out of line (and the message
    /// unformatted until here) so the recursive parse functions keep
    /// small stack frames.
    #[cold]
    #[inline(never)]
    fn err(&self, message: fmt::Arguments<'_>) -> ParseError {
        ParseError {
            message: message.to_string(),
            span: self.span(),
        }
    }

    // ---- declarations -------------------------------------------------

    fn kernel_fn(&mut self) -> Result<KernelFn, ParseError> {
        let span = self.span();
        self.expect_kw(Keyword::Kernel)?;
        self.expect_kw(Keyword::Void)?;
        let name = self.expect_ident()?;
        self.expect_op(Op::LParen)?;
        let mut params = Vec::new();
        if !self.eat_op(Op::RParen) {
            loop {
                params.push(self.param()?);
                if self.eat_op(Op::RParen) {
                    break;
                }
                self.expect_op(Op::Comma)?;
            }
        }
        self.expect_op(Op::LBrace)?;
        let body = self.block_body()?;
        Ok(KernelFn {
            name,
            params,
            body,
            span,
        })
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let mut space = AddressSpace::Private;
        let mut is_const = false;
        loop {
            if self.eat_kw(Keyword::Global) {
                space = AddressSpace::Global;
            } else if self.eat_kw(Keyword::Local) {
                space = AddressSpace::Local;
            } else if self.eat_kw(Keyword::Constant) {
                space = AddressSpace::Constant;
            } else if self.eat_kw(Keyword::Private) {
                space = AddressSpace::Private;
            } else if self.eat_kw(Keyword::Const) {
                is_const = true;
            } else {
                break;
            }
        }
        let scalar = self.scalar_type()?;
        // `const` may also follow the element type (e.g. `float const *`).
        if self.eat_kw(Keyword::Const) {
            is_const = true;
        }
        let pointer = self.eat_op(Op::Star);
        if pointer && self.eat_kw(Keyword::Const) {
            is_const = true;
        }
        let name = self.expect_ident()?;
        let ty = if pointer {
            Type {
                scalar,
                pointer: true,
                space,
            }
        } else {
            Type {
                scalar,
                pointer: false,
                space: AddressSpace::Private,
            }
        };
        Ok(Param { ty, name, is_const })
    }

    fn scalar_type(&mut self) -> Result<Scalar, ParseError> {
        let s = match self.peek() {
            TokenKind::Kw(Keyword::Void) => Scalar::Void,
            TokenKind::Kw(Keyword::Int) => Scalar::Int,
            TokenKind::Kw(Keyword::Uint) => Scalar::Uint,
            TokenKind::Kw(Keyword::Long) => Scalar::Long,
            TokenKind::Kw(Keyword::Ulong) => Scalar::Ulong,
            TokenKind::Kw(Keyword::Float) => Scalar::Float,
            TokenKind::Kw(Keyword::Bool) => Scalar::Bool,
            other => return Err(self.err(format_args!("expected type, found {other:?}"))),
        };
        self.bump();
        Ok(s)
    }

    fn starts_type(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Kw(
                Keyword::Int
                    | Keyword::Uint
                    | Keyword::Long
                    | Keyword::Ulong
                    | Keyword::Float
                    | Keyword::Bool
                    | Keyword::Const
                    | Keyword::Local
                    | Keyword::Private
            )
        )
    }

    // ---- statements ----------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !self.eat_op(Op::RBrace) {
            if self.at_eof() {
                return Err(self.err(format_args!("unexpected end of input inside block")));
            }
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Parser::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Op(Op::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?, span))
            }
            TokenKind::Kw(Keyword::If) => self.if_stmt(),
            TokenKind::Kw(Keyword::For) => self.for_stmt(),
            TokenKind::Kw(Keyword::While) => self.while_stmt(),
            TokenKind::Kw(Keyword::Do) => self.do_stmt(),
            TokenKind::Kw(Keyword::Return) => {
                self.bump();
                let e = if self.eat_op(Op::Semi) {
                    None
                } else {
                    let e = self.expr()?;
                    self.expect_op(Op::Semi)?;
                    Some(e)
                };
                Ok(Stmt::Return(e, span))
            }
            TokenKind::Kw(Keyword::Break) => {
                self.bump();
                self.expect_op(Op::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::Kw(Keyword::Continue) => {
                self.bump();
                self.expect_op(Op::Semi)?;
                Ok(Stmt::Continue(span))
            }
            _ if self.starts_type() => {
                let s = self.decl_stmt()?;
                self.expect_op(Op::Semi)?;
                Ok(s)
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_op(Op::Semi)?;
                Ok(s)
            }
        }
    }

    /// Declaration without trailing `;` (shared with `for` init).
    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        let mut space = AddressSpace::Private;
        loop {
            if self.eat_kw(Keyword::Local) {
                space = AddressSpace::Local;
            } else if self.eat_kw(Keyword::Private) {
                space = AddressSpace::Private;
            } else if self.eat_kw(Keyword::Const) {
                // const-ness of locals does not affect analysis
            } else {
                break;
            }
        }
        let scalar = self.scalar_type()?;
        let name = self.expect_ident()?;
        // Fixed-size array declaration (e.g. `__local float tile[256];`).
        if self.eat_op(Op::LBracket) {
            let len = match *self.peek() {
                TokenKind::IntLit(v, _) if v > 0 => v as u64,
                ref other => {
                    return Err(self.err(format_args!(
                        "expected array length literal, found {other:?}"
                    )))
                }
            };
            self.bump();
            self.expect_op(Op::RBracket)?;
            let ty = Type {
                scalar,
                pointer: true,
                space,
            };
            return Ok(Stmt::Decl {
                ty,
                name,
                array_len: Some(len),
                init: None,
                span,
            });
        }
        let init = if self.eat_op(Op::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            ty: Type {
                scalar,
                pointer: false,
                space,
            },
            name,
            array_len: None,
            init,
            span,
        })
    }

    /// Assignment / expression statement without trailing `;`
    /// (shared with `for` init/step).
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        // Pre-increment/decrement.
        if self.eat_op(Op::PlusPlus) {
            let name = self.expect_ident()?;
            return Ok(self.incdec(name, BinOp::Add, span));
        }
        if self.eat_op(Op::MinusMinus) {
            let name = self.expect_ident()?;
            return Ok(self.incdec(name, BinOp::Sub, span));
        }
        let e = self.expr()?;
        // Post-increment/decrement.
        if self.eat_op(Op::PlusPlus) {
            return self.expect_var(e, span, BinOp::Add);
        }
        if self.eat_op(Op::MinusMinus) {
            return self.expect_var(e, span, BinOp::Sub);
        }
        let assign_op = match self.peek() {
            TokenKind::Op(Op::Assign) => Some(None),
            TokenKind::Op(Op::PlusAssign) => Some(Some(BinOp::Add)),
            TokenKind::Op(Op::MinusAssign) => Some(Some(BinOp::Sub)),
            TokenKind::Op(Op::StarAssign) => Some(Some(BinOp::Mul)),
            TokenKind::Op(Op::SlashAssign) => Some(Some(BinOp::Div)),
            TokenKind::Op(Op::PercentAssign) => Some(Some(BinOp::Rem)),
            TokenKind::Op(Op::AmpAssign) => Some(Some(BinOp::BitAnd)),
            TokenKind::Op(Op::PipeAssign) => Some(Some(BinOp::BitOr)),
            TokenKind::Op(Op::CaretAssign) => Some(Some(BinOp::BitXor)),
            TokenKind::Op(Op::ShlAssign) => Some(Some(BinOp::Shl)),
            TokenKind::Op(Op::ShrAssign) => Some(Some(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = assign_op {
            self.bump();
            let target = match e {
                Expr::Var(name) => LValue::Var(name),
                Expr::Index { base, index } => LValue::Index { base, index },
                other => return Err(self.err(format_args!("invalid assignment target: {other:?}"))),
            };
            let value = self.expr()?;
            return Ok(Stmt::Assign {
                target,
                op,
                value,
                span,
            });
        }
        Ok(Stmt::Expr(e, span))
    }

    fn incdec(&self, name: String, op: BinOp, span: Span) -> Stmt {
        Stmt::Assign {
            target: LValue::Var(name.clone()),
            op: Some(op),
            value: Expr::IntLit(1),
            span,
        }
    }

    fn expect_var(&self, e: Expr, span: Span, op: BinOp) -> Result<Stmt, ParseError> {
        match e {
            Expr::Var(name) => Ok(self.incdec(name, op, span)),
            other => Err(ParseError {
                message: format!("++/-- requires a variable, found {other:?}"),
                span,
            }),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        self.expect_kw(Keyword::If)?;
        self.expect_op(Op::LParen)?;
        let cond = self.expr()?;
        self.expect_op(Op::RParen)?;
        let then = self.stmt_or_block()?;
        let other = if self.eat_kw(Keyword::Else) {
            self.stmt_or_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then,
            other,
            span,
        })
    }

    fn stmt_or_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat_op(Op::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        self.expect_kw(Keyword::For)?;
        self.expect_op(Op::LParen)?;
        let init = if self.eat_op(Op::Semi) {
            None
        } else {
            let s = if self.starts_type() {
                self.decl_stmt()?
            } else {
                self.simple_stmt()?
            };
            self.expect_op(Op::Semi)?;
            Some(Box::new(s))
        };
        let cond = if self.eat_op(Op::Semi) {
            None
        } else {
            let c = self.expr()?;
            self.expect_op(Op::Semi)?;
            Some(c)
        };
        let step = if *self.peek() == TokenKind::Op(Op::RParen) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect_op(Op::RParen)?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            span,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        self.expect_kw(Keyword::While)?;
        self.expect_op(Op::LParen)?;
        let cond = self.expr()?;
        self.expect_op(Op::RParen)?;
        let body = self.stmt_or_block()?;
        Ok(Stmt::While { cond, body, span })
    }

    /// `do body while (cond);` is desugared to `body; while(cond) body`
    /// for analysis purposes — the body executes at least once and the
    /// static trip-count model treats both forms identically.
    fn do_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.span();
        self.expect_kw(Keyword::Do)?;
        let body = self.stmt_or_block()?;
        self.expect_kw(Keyword::While)?;
        self.expect_op(Op::LParen)?;
        let cond = self.expr()?;
        self.expect_op(Op::RParen)?;
        self.expect_op(Op::Semi)?;
        Ok(Stmt::While { cond, body, span })
    }

    // ---- expressions (precedence climbing) ------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_op(Op::Question) {
            let then = self.expr()?;
            self.expect_op(Op::Colon)?;
            let other = self.expr()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                other: Box::new(other),
            })
        } else {
            Ok(cond)
        }
    }

    fn bin_op_prec(kind: &TokenKind) -> Option<(BinOp, u8)> {
        let (op, p) = match kind {
            TokenKind::Op(Op::OrOr) => (BinOp::LogOr, 1),
            TokenKind::Op(Op::AndAnd) => (BinOp::LogAnd, 2),
            TokenKind::Op(Op::Pipe) => (BinOp::BitOr, 3),
            TokenKind::Op(Op::Caret) => (BinOp::BitXor, 4),
            TokenKind::Op(Op::Amp) => (BinOp::BitAnd, 5),
            TokenKind::Op(Op::EqEq) => (BinOp::Eq, 6),
            TokenKind::Op(Op::Ne) => (BinOp::Ne, 6),
            TokenKind::Op(Op::Lt) => (BinOp::Lt, 7),
            TokenKind::Op(Op::Gt) => (BinOp::Gt, 7),
            TokenKind::Op(Op::Le) => (BinOp::Le, 7),
            TokenKind::Op(Op::Ge) => (BinOp::Ge, 7),
            TokenKind::Op(Op::Shl) => (BinOp::Shl, 8),
            TokenKind::Op(Op::Shr) => (BinOp::Shr, 8),
            TokenKind::Op(Op::Plus) => (BinOp::Add, 9),
            TokenKind::Op(Op::Minus) => (BinOp::Sub, 9),
            TokenKind::Op(Op::Star) => (BinOp::Mul, 10),
            TokenKind::Op(Op::Slash) => (BinOp::Div, 10),
            TokenKind::Op(Op::Percent) => (BinOp::Rem, 10),
            _ => return None,
        };
        Some((op, p))
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        let outer = self.depth;
        while let Some((op, prec)) = Self::bin_op_prec(self.peek()) {
            if prec < min_prec {
                break;
            }
            self.bump();
            // The loop builds a left-leaning tree: each operator nests
            // the chain so far one level deeper.
            self.deepen()?;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = if self.eat_op(Op::Minus) {
            Some(UnOp::Neg)
        } else if self.eat_op(Op::Bang) {
            Some(UnOp::Not)
        } else if self.eat_op(Op::Tilde) {
            Some(UnOp::BitNot)
        } else {
            None
        };
        if let Some(op) = op {
            return Ok(Expr::Unary {
                op,
                expr: Box::new(self.nested(Parser::unary)?),
            });
        }
        if self.eat_op(Op::Plus) {
            return self.nested(Parser::unary);
        }
        // Cast: `(type) expr` — look ahead for `(` followed by a type
        // keyword followed by `)`.
        if *self.peek() == TokenKind::Op(Op::LParen) {
            if let TokenKind::Kw(
                Keyword::Int | Keyword::Uint | Keyword::Long | Keyword::Ulong | Keyword::Float,
            ) = self.peek_at(1)
            {
                if *self.peek_at(2) == TokenKind::Op(Op::RParen) {
                    self.bump(); // (
                    let ty = self.scalar_type()?;
                    self.bump(); // )
                    let e = self.nested(Parser::unary)?;
                    return Ok(Expr::Cast {
                        ty,
                        expr: Box::new(e),
                    });
                }
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        let outer = self.depth;
        while self.eat_op(Op::LBracket) {
            // Like a binary chain, each index nests the base one level;
            // the index expression sits on that same level.
            self.deepen()?;
            let idx = self.ternary()?;
            self.expect_op(Op::RBracket)?;
            e = Expr::Index {
                base: Box::new(e),
                index: Box::new(idx),
            };
        }
        self.depth = outer;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match *self.peek() {
            TokenKind::IntLit(v, _) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v))
            }
            TokenKind::Kw(Keyword::True) => {
                self.bump();
                Ok(Expr::BoolLit(true))
            }
            TokenKind::Kw(Keyword::False) => {
                self.bump();
                Ok(Expr::BoolLit(false))
            }
            TokenKind::Ident(ref name) => {
                let name = name.clone();
                self.bump();
                if self.eat_op(Op::LParen) {
                    let mut args = Vec::new();
                    if !self.eat_op(Op::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat_op(Op::RParen) {
                                break;
                            }
                            self.expect_op(Op::Comma)?;
                        }
                    }
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            TokenKind::Op(Op::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_op(Op::RParen)?;
                Ok(e)
            }
            ref other => Err(self.err(format_args!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> KernelFn {
        parse(src).unwrap().kernels.into_iter().next().unwrap()
    }

    #[test]
    fn parse_minimal_kernel() {
        let k = parse_one("__kernel void k() { }");
        assert_eq!(k.name, "k");
        assert!(k.params.is_empty());
        assert!(k.body.is_empty());
    }

    #[test]
    fn parse_params() {
        let k = parse_one(
            "__kernel void k(__global const float* in, __global float* out, const int n) {}",
        );
        assert_eq!(k.params.len(), 3);
        assert!(k.params[0].is_const);
        assert!(k.params[0].ty.pointer);
        assert_eq!(k.params[0].ty.space, AddressSpace::Global);
        assert_eq!(k.params[2].ty.scalar, Scalar::Int);
        assert!(!k.params[2].ty.pointer);
    }

    #[test]
    fn parse_local_param() {
        let k = parse_one("__kernel void k(__local float* tile) {}");
        assert_eq!(k.params[0].ty.space, AddressSpace::Local);
    }

    #[test]
    fn parse_decl_and_assign() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                float x = 0.0f;
                x += a[i];
                a[i] = x * 2.0f;
            }",
        );
        assert_eq!(k.body.len(), 4);
        assert!(matches!(
            &k.body[2],
            Stmt::Assign {
                op: Some(BinOp::Add),
                ..
            }
        ));
        assert!(matches!(
            &k.body[3],
            Stmt::Assign {
                target: LValue::Index { .. },
                ..
            }
        ));
    }

    #[test]
    fn parse_for_loop() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                for (int i = 0; i < 16; i++) { a[i] = 0.0f; }
            }",
        );
        let Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } = &k.body[0]
        else {
            panic!("expected for")
        };
        assert!(init.is_some());
        assert!(cond.is_some());
        assert!(step.is_some());
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn parse_if_else() {
        let k = parse_one(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                if (i < 4) a[i] = 1; else { a[i] = 2; }
            }",
        );
        let Stmt::If { then, other, .. } = &k.body[1] else {
            panic!("expected if")
        };
        assert_eq!(then.len(), 1);
        assert_eq!(other.len(), 1);
    }

    #[test]
    fn parse_while_and_do() {
        let k = parse_one(
            "__kernel void k() {
                int i = 0;
                while (i < 8) { i = i + 1; }
                do { i = i - 1; } while (i > 0);
            }",
        );
        assert!(matches!(k.body[1], Stmt::While { .. }));
        assert!(matches!(k.body[2], Stmt::While { .. }));
    }

    #[test]
    fn parse_precedence() {
        let k = parse_one("__kernel void k(__global int* a) { a[0] = 1 + 2 * 3; }");
        let Stmt::Assign { value, .. } = &k.body[0] else {
            panic!()
        };
        // 1 + (2*3)
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = value
        else {
            panic!("got {value:?}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parse_ternary_and_cast() {
        let k = parse_one(
            "__kernel void k(__global float* a, const int n) {
                int i = get_global_id(0);
                a[i] = i < n ? (float)i : 0.0f;
            }",
        );
        let Stmt::Assign { value, .. } = &k.body[1] else {
            panic!()
        };
        assert!(matches!(value, Expr::Ternary { .. }));
    }

    #[test]
    fn parse_calls() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                int i = get_global_id(0);
                a[i] = sqrt(a[i]) + pow(a[i], 2.0f);
                barrier(CLK_LOCAL_MEM_FENCE);
            }",
        );
        assert!(matches!(&k.body[2], Stmt::Expr(Expr::Call { name, .. }, _) if name == "barrier"));
    }

    #[test]
    fn parse_local_array_decl() {
        let k = parse_one(
            "__kernel void k(__global float* a) {
                __local float tile[64];
                int l = get_local_id(0);
                tile[l] = a[l];
            }",
        );
        let Stmt::Decl { ty, array_len, .. } = &k.body[0] else {
            panic!()
        };
        assert_eq!(*array_len, Some(64));
        assert_eq!(ty.space, AddressSpace::Local);
        assert!(ty.pointer);
    }

    #[test]
    fn parse_multiple_kernels() {
        let p = parse("__kernel void a() {} __kernel void b() {}").unwrap();
        assert_eq!(p.kernels.len(), 2);
        assert!(p.kernel("b").is_some());
        assert!(p.kernel("c").is_none());
    }

    #[test]
    fn parse_error_on_garbage() {
        assert!(parse("void nope() {}").is_err());
        assert!(parse("__kernel void k( {").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_error_has_line() {
        let e = parse("__kernel void k() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(e.span.line, 2);
    }

    #[test]
    fn parse_compound_assignment_variants() {
        let k = parse_one(
            "__kernel void k() {
                int x = 1;
                x <<= 2; x >>= 1; x &= 3; x |= 4; x ^= 5; x %= 6; x *= 7; x /= 8; x -= 9;
            }",
        );
        assert_eq!(k.body.len(), 10);
    }

    #[test]
    fn parse_unary_ops() {
        let k = parse_one("__kernel void k(__global int* a) { a[0] = -a[1] + ~a[2]; a[3] = !0; }");
        assert_eq!(k.body.len(), 2);
    }
}
