//! Recursive-descent parser for mini-C.

use crate::ast::*;
use crate::error::CError;
use crate::token::{lex, Span, Tok, Token};

/// Parse a (preprocessed) mini-C source string into a translation unit.
pub fn parse(file: &str, src: &str) -> Result<TranslationUnit, CError> {
    let tokens = lex(file, src)?;
    let mut p = Parser { file: file.to_string(), toks: tokens, pos: 0 };
    p.translation_unit()
}

struct Parser {
    file: String,
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    /// Advance past the current token (never past the final `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// Move the current token out and advance. The parser never looks
    /// back at a token it has taken, and the final `Eof`, which it never
    /// advances past, is copied rather than taken.
    fn take(&mut self) -> Tok {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
            std::mem::replace(&mut self.toks[self.pos - 1].tok, Tok::Eof)
        } else {
            self.toks[self.pos].tok.clone()
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CError> {
        Err(CError::Parse { file: self.file.clone(), span: self.span(), msg: msg.into() })
    }

    fn expect(&mut self, t: Tok) -> Result<(), CError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, CError> {
        match self.peek() {
            Tok::Ident(_) => match self.take() {
                Tok::Ident(s) => Ok(s),
                _ => unreachable!("peeked an identifier"),
            },
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    // ----- types ------------------------------------------------------

    fn at_type_start(&self) -> bool {
        matches!(self.peek(), Tok::KwInt | Tok::KwChar | Tok::KwVoid | Tok::KwStruct)
    }

    /// Base type: `int`, `char`, `void`, `struct Name`.
    fn base_type(&mut self) -> Result<Type, CError> {
        match self.take() {
            Tok::KwInt => Ok(Type::Int),
            Tok::KwChar => Ok(Type::Char),
            Tok::KwVoid => Ok(Type::Void),
            Tok::KwStruct => {
                let name = self.ident()?;
                Ok(Type::Struct(name))
            }
            other => self.err(format!("expected type, found {other}")),
        }
    }

    /// Abstract type for casts and `sizeof`: base type plus `*`s.
    fn type_name(&mut self) -> Result<Type, CError> {
        let mut t = self.base_type()?;
        while self.eat(Tok::Star) {
            t = t.ptr();
        }
        Ok(t)
    }

    /// Parse a declarator after the base type. Returns (name, full type).
    /// Handles `*`s, plain names, array suffixes, function-pointer
    /// declarators `(*name)(params)`, and function declarators
    /// `name(params)` (the latter only when `allow_func`).
    fn declarator(&mut self, base: Type, allow_func: bool) -> Result<(String, Type), CError> {
        let mut t = base;
        while self.eat(Tok::Star) {
            t = t.ptr();
        }
        // Function pointer: ( * name ) ( params )
        if *self.peek() == Tok::LParen && *self.peek2() == Tok::Star {
            self.bump(); // (
            self.bump(); // *
            let name = self.ident()?;
            // optional array of function pointers: (*name[N])(params)
            let arr = if self.eat(Tok::LBracket) {
                let n = match self.take() {
                    Tok::Int(v) if v >= 0 => v as u64,
                    other => return self.err(format!("expected array size, found {other}")),
                };
                self.expect(Tok::RBracket)?;
                Some(n)
            } else {
                None
            };
            self.expect(Tok::RParen)?;
            self.expect(Tok::LParen)?;
            let (params, varargs) = self.param_types()?;
            self.expect(Tok::RParen)?;
            let fnty = Type::Func(Box::new(FuncType { ret: t, params, varargs }));
            let mut full = fnty.ptr();
            if let Some(n) = arr {
                full = Type::Array(Box::new(full), n);
            }
            return Ok((name, full));
        }
        let name = self.ident()?;
        // Array suffixes: name[N][M]… ; `[]` means incomplete (pointer for
        // params; size-from-initializer for globals, handled by caller).
        let mut dims: Vec<Option<u64>> = Vec::new();
        while self.eat(Tok::LBracket) {
            if self.eat(Tok::RBracket) {
                dims.push(None);
            } else {
                let n = match self.take() {
                    Tok::Int(v) if v >= 0 => v as u64,
                    other => return self.err(format!("expected array size, found {other}")),
                };
                self.expect(Tok::RBracket)?;
                dims.push(Some(n));
            }
        }
        for d in dims.into_iter().rev() {
            t = match d {
                Some(n) => Type::Array(Box::new(t), n),
                // incomplete array: callers adjust (param → pointer,
                // global → sized by initializer). Use size 0 as marker.
                None => Type::Array(Box::new(t), 0),
            };
        }
        if allow_func && *self.peek() == Tok::LParen {
            self.bump();
            let (params, varargs) = self.param_types()?;
            self.expect(Tok::RParen)?;
            let fnty = Type::Func(Box::new(FuncType { ret: t, params, varargs }));
            return Ok((name, fnty));
        }
        Ok((name, t))
    }

    /// Types only (for function-pointer signatures).
    fn param_types(&mut self) -> Result<(Vec<Type>, bool), CError> {
        let (params, varargs) = self.params()?;
        Ok((params.into_iter().map(|(_, t)| t).collect(), varargs))
    }

    /// Parameter list with optional names. `(void)` and `()` are empty.
    fn params(&mut self) -> Result<(Vec<(String, Type)>, bool), CError> {
        let mut out = Vec::new();
        let mut varargs = false;
        if *self.peek() == Tok::RParen {
            return Ok((out, varargs));
        }
        if *self.peek() == Tok::KwVoid && *self.peek2() == Tok::RParen {
            self.bump();
            return Ok((out, varargs));
        }
        loop {
            if self.eat(Tok::Ellipsis) {
                varargs = true;
                break;
            }
            let base = self.base_type()?;
            let mut t = base;
            while self.eat(Tok::Star) {
                t = t.ptr();
            }
            // Function-pointer param: (*name)(params)
            if *self.peek() == Tok::LParen && *self.peek2() == Tok::Star {
                self.bump();
                self.bump();
                let name =
                    if let Tok::Ident(_) = self.peek() { self.ident()? } else { String::new() };
                self.expect(Tok::RParen)?;
                self.expect(Tok::LParen)?;
                let (ps, va) = self.param_types()?;
                self.expect(Tok::RParen)?;
                let fnty = Type::Func(Box::new(FuncType { ret: t, params: ps, varargs: va }));
                out.push((name, fnty.ptr()));
            } else {
                let name =
                    if let Tok::Ident(_) = self.peek() { self.ident()? } else { String::new() };
                // array params decay to pointers
                while self.eat(Tok::LBracket) {
                    if !self.eat(Tok::RBracket) {
                        match self.take() {
                            Tok::Int(_) => {}
                            other => {
                                return self.err(format!("expected array size, found {other}"))
                            }
                        }
                        self.expect(Tok::RBracket)?;
                    }
                    t = t.ptr();
                }
                out.push((name, t));
            }
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        Ok((out, varargs))
    }

    // ----- top level ---------------------------------------------------

    fn translation_unit(&mut self) -> Result<TranslationUnit, CError> {
        let mut items = Vec::new();
        while *self.peek() != Tok::Eof {
            items.push(self.item()?);
        }
        Ok(TranslationUnit { file: self.file.clone(), items })
    }

    fn item(&mut self) -> Result<Item, CError> {
        let span = self.span();
        // struct definition: struct Name { … };
        // struct definition: lookahead `struct Name {`
        let third = self.toks.get(self.pos + 2).map(|t| &t.tok);
        if *self.peek() == Tok::KwStruct
            && matches!(self.peek2(), Tok::Ident(_))
            && third == Some(&Tok::LBrace)
        {
            self.bump();
            let name = self.ident()?;
            self.bump();
            let mut fields = Vec::new();
            while !self.eat(Tok::RBrace) {
                let base = self.base_type()?;
                let (fname, fty) = self.declarator(base, false)?;
                self.expect(Tok::Semi)?;
                fields.push((fname, fty));
            }
            self.expect(Tok::Semi)?;
            return Ok(Item::Struct(StructDef { name, fields, span }));
        }

        let storage = if self.eat(Tok::KwStatic) {
            Storage::Static
        } else if self.eat(Tok::KwExtern) {
            Storage::Extern
        } else {
            Storage::Public
        };

        let base = self.base_type()?;
        // `struct S;` forward declaration
        if let Type::Struct(name) = &base {
            if *self.peek() == Tok::Semi {
                self.bump();
                return Ok(Item::Struct(StructDef {
                    name: clone_name(name),
                    fields: vec![],
                    span,
                }));
            }
        }
        let mut t = base;
        while self.eat(Tok::Star) {
            t = t.ptr();
        }
        // Function-pointer global: `ret (*name)(params) [= init];`
        if *self.peek() == Tok::LParen && *self.peek2() == Tok::Star {
            let (name, ty) = self.declarator(t, false)?;
            let init = if self.eat(Tok::Assign) { Some(self.initializer()?) } else { None };
            self.expect(Tok::Semi)?;
            return Ok(Item::Global(GlobalDef { name, ty, init, storage, span }));
        }
        let name = self.ident()?;
        // Function prototype or definition: `ret name(params) {body}` / `;`
        if self.eat(Tok::LParen) {
            let (params, varargs) = self.params()?;
            self.expect(Tok::RParen)?;
            let body = if *self.peek() == Tok::LBrace {
                Some(self.block()?)
            } else {
                self.expect(Tok::Semi)?;
                None
            };
            return Ok(Item::Func(FuncDef { name, ret: t, params, varargs, body, storage, span }));
        }
        // Global variable with optional array suffixes and initializer.
        let ty = self.array_suffixes(t)?;
        let init = if self.eat(Tok::Assign) { Some(self.initializer()?) } else { None };
        self.expect(Tok::Semi)?;
        let ty = complete_array_type(ty, init.as_ref());
        Ok(Item::Global(GlobalDef { name, ty, init, storage, span }))
    }

    /// Trailing `[N]` (or `[]`, marked as size 0) suffixes for globals.
    fn array_suffixes(&mut self, mut t: Type) -> Result<Type, CError> {
        let mut dims: Vec<u64> = Vec::new();
        while self.eat(Tok::LBracket) {
            if self.eat(Tok::RBracket) {
                dims.push(0);
            } else {
                let n = match self.take() {
                    Tok::Int(v) if v >= 0 => v as u64,
                    other => return self.err(format!("expected array size, found {other}")),
                };
                self.expect(Tok::RBracket)?;
                dims.push(n);
            }
        }
        for d in dims.into_iter().rev() {
            t = Type::Array(Box::new(t), d);
        }
        Ok(t)
    }

    fn initializer(&mut self) -> Result<Init, CError> {
        if self.eat(Tok::LBrace) {
            let mut list = Vec::new();
            if !self.eat(Tok::RBrace) {
                loop {
                    list.push(self.initializer()?);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                    // allow trailing comma
                    if *self.peek() == Tok::RBrace {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
            }
            Ok(Init::List(list))
        } else {
            Ok(Init::Expr(self.assignment_expr()?))
        }
    }

    // ----- statements ---------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, CError> {
        self.expect(Tok::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(Tok::RBrace) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, CError> {
        let span = self.span();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_s = Box::new(self.stmt()?);
                let else_s =
                    if self.eat(Tok::KwElse) { Some(Box::new(self.stmt()?)) } else { None };
                Ok(Stmt::If { cond, then_s, else_s })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body })
            }
            Tok::KwDo => {
                self.bump();
                let body = Box::new(self.stmt()?);
                self.expect(Tok::KwWhile)?;
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if *self.peek() == Tok::Semi {
                    self.bump();
                    None
                } else if self.at_type_start() {
                    Some(Box::new(self.local_decl()?))
                } else {
                    let e = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if *self.peek() == Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen { None } else { Some(self.expr()?) };
                self.expect(Tok::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For { init, cond, step, body })
            }
            Tok::KwReturn => {
                self.bump();
                let v = if *self.peek() == Tok::Semi { None } else { Some(self.expr()?) };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return(v, span))
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Break(span))
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Continue(span))
            }
            Tok::KwInt | Tok::KwChar | Tok::KwVoid | Tok::KwStruct => self.local_decl(),
            _ => {
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// Local declaration, including the trailing `;`.
    fn local_decl(&mut self) -> Result<Stmt, CError> {
        let span = self.span();
        let base = self.base_type()?;
        let (name, ty) = self.declarator(base, false)?;
        let init = if self.eat(Tok::Assign) { Some(self.assignment_expr()?) } else { None };
        self.expect(Tok::Semi)?;
        // `char buf[] = "…"` sizes itself from the initializer
        let ty = match &init {
            Some(e) if matches!(ty, Type::Array(_, 0)) => {
                complete_array_type(ty, Some(&Init::Expr(e.clone())))
            }
            _ => ty,
        };
        Ok(Stmt::Decl { name, ty, init, span })
    }

    // ----- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CError> {
        self.assignment_expr()
    }

    fn assignment_expr(&mut self) -> Result<Expr, CError> {
        let span = self.span();
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            Tok::Assign => None,
            Tok::PlusAssign => Some(BinOp::Add),
            Tok::MinusAssign => Some(BinOp::Sub),
            Tok::StarAssign => Some(BinOp::Mul),
            Tok::SlashAssign => Some(BinOp::Div),
            Tok::PercentAssign => Some(BinOp::Rem),
            Tok::AmpAssign => Some(BinOp::And),
            Tok::PipeAssign => Some(BinOp::Or),
            Tok::CaretAssign => Some(BinOp::Xor),
            Tok::ShlAssign => Some(BinOp::Shl),
            Tok::ShrAssign => Some(BinOp::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.assignment_expr()?;
        Ok(Expr::new(ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span))
    }

    fn ternary_expr(&mut self) -> Result<Expr, CError> {
        let span = self.span();
        let cond = self.binary_expr(0)?;
        if self.eat(Tok::Question) {
            let t = self.expr()?;
            self.expect(Tok::Colon)?;
            let e = self.ternary_expr()?;
            Ok(Expr::new(
                ExprKind::Cond { cond: Box::new(cond), then_e: Box::new(t), else_e: Box::new(e) },
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing binary expression parser.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, CError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::PipePipe => (BinOp::LogOr, 1),
                Tok::AmpAmp => (BinOp::LogAnd, 2),
                Tok::Pipe => (BinOp::Or, 3),
                Tok::Caret => (BinOp::Xor, 4),
                Tok::Amp => (BinOp::And, 5),
                Tok::EqEq => (BinOp::Eq, 6),
                Tok::NotEq => (BinOp::Ne, 6),
                Tok::Lt => (BinOp::Lt, 7),
                Tok::Gt => (BinOp::Gt, 7),
                Tok::Le => (BinOp::Le, 7),
                Tok::Ge => (BinOp::Ge, 7),
                Tok::Shl => (BinOp::Shl, 8),
                Tok::Shr => (BinOp::Shr, 8),
                Tok::Plus => (BinOp::Add, 9),
                Tok::Minus => (BinOp::Sub, 9),
                Tok::Star => (BinOp::Mul, 10),
                Tok::Slash => (BinOp::Div, 10),
                Tok::Percent => (BinOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::new(ExprKind::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, CError> {
        let span = self.span();
        match self.peek() {
            Tok::Bang => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un { op: UnOp::Not, expr: Box::new(e) }, span))
            }
            Tok::Tilde => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un { op: UnOp::BitNot, expr: Box::new(e) }, span))
            }
            Tok::Minus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Un { op: UnOp::Neg, expr: Box::new(e) }, span))
            }
            Tok::Star => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Deref(Box::new(e)), span))
            }
            Tok::Amp => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::AddrOf(Box::new(e)), span))
            }
            Tok::PlusPlus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::IncDec { pre: true, inc: true, expr: Box::new(e) }, span))
            }
            Tok::MinusMinus => {
                self.bump();
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::IncDec { pre: true, inc: false, expr: Box::new(e) }, span))
            }
            Tok::KwSizeof => {
                self.bump();
                if *self.peek() == Tok::LParen && is_type_tok(self.peek2()) {
                    self.bump();
                    let t = self.type_name()?;
                    self.expect(Tok::RParen)?;
                    Ok(Expr::new(ExprKind::SizeofType(t), span))
                } else {
                    let e = self.unary_expr()?;
                    Ok(Expr::new(ExprKind::SizeofExpr(Box::new(e)), span))
                }
            }
            Tok::LParen if is_type_tok(self.peek2()) => {
                // cast
                self.bump();
                let t = self.type_name()?;
                self.expect(Tok::RParen)?;
                let e = self.unary_expr()?;
                Ok(Expr::new(ExprKind::Cast { ty: t, expr: Box::new(e) }, span))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, CError> {
        let mut e = self.primary_expr()?;
        loop {
            let span = self.span();
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(Tok::RParen) {
                        loop {
                            args.push(self.assignment_expr()?);
                            if !self.eat(Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(Tok::RParen)?;
                    }
                    // recognize the __vararg builtin
                    if let ExprKind::Ident(name) = &e.kind {
                        if name == "__vararg" {
                            if args.len() != 1 {
                                return self.err("__vararg takes exactly one argument");
                            }
                            e = Expr::new(
                                ExprKind::VarArg(Box::new(
                                    args.into_iter().next().expect("one arg"),
                                )),
                                span,
                            );
                            continue;
                        }
                    }
                    e = Expr::new(ExprKind::Call { callee: Box::new(e), args }, span);
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::new(
                        ExprKind::Index { base: Box::new(e), index: Box::new(idx) },
                        span,
                    );
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::new(
                        ExprKind::Member { base: Box::new(e), field: f, arrow: false },
                        span,
                    );
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::new(
                        ExprKind::Member { base: Box::new(e), field: f, arrow: true },
                        span,
                    );
                }
                Tok::PlusPlus => {
                    self.bump();
                    e = Expr::new(
                        ExprKind::IncDec { pre: false, inc: true, expr: Box::new(e) },
                        span,
                    );
                }
                Tok::MinusMinus => {
                    self.bump();
                    e = Expr::new(
                        ExprKind::IncDec { pre: false, inc: false, expr: Box::new(e) },
                        span,
                    );
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, CError> {
        let span = self.span();
        match self.take() {
            Tok::Int(v) => Ok(Expr::new(ExprKind::IntLit(v), span)),
            Tok::Char(c) => Ok(Expr::new(ExprKind::CharLit(c), span)),
            Tok::Str(s) => Ok(Expr::new(ExprKind::StrLit(s), span)),
            Tok::Ident(name) => Ok(Expr::new(ExprKind::Ident(name), span)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected expression, found {other}"))
            }
        }
    }
}

fn is_type_tok(t: &Tok) -> bool {
    matches!(t, Tok::KwInt | Tok::KwChar | Tok::KwVoid | Tok::KwStruct)
}

fn clone_name(n: &str) -> String {
    n.to_string()
}

/// Complete `T x[] = {…}` / `char s[] = "…"` array types from initializers.
fn complete_array_type(ty: Type, init: Option<&Init>) -> Type {
    match (&ty, init) {
        (Type::Array(elem, 0), Some(Init::List(items))) => {
            Type::Array(elem.clone(), items.len() as u64)
        }
        (Type::Array(elem, 0), Some(Init::Expr(e))) => {
            if let ExprKind::StrLit(s) = &e.kind {
                Type::Array(elem.clone(), s.len() as u64 + 1)
            } else {
                ty
            }
        }
        _ => ty,
    }
}

/// Parse helpers exposed for tests.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_function() {
        let tu = parse("t.c", "int add(int a, int b) { return a + b; }").unwrap();
        assert_eq!(tu.items.len(), 1);
        match &tu.items[0] {
            Item::Func(f) => {
                assert_eq!(f.name, "add");
                assert_eq!(f.params.len(), 2);
                assert_eq!(f.params[0].0, "a");
                assert!(f.body.is_some());
            }
            other => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parse_struct_and_globals() {
        let src = r#"
            struct point { int x; int y; };
            static int counter = 0;
            extern int debug_level;
            char msg[] = "hi";
            int table[4] = { 1, 2, 3, 4 };
        "#;
        let tu = parse("t.c", src).unwrap();
        assert_eq!(tu.items.len(), 5);
        match &tu.items[0] {
            Item::Struct(s) => assert_eq!(s.fields.len(), 2),
            _ => panic!(),
        }
        match &tu.items[3] {
            Item::Global(g) => assert_eq!(g.ty, Type::Array(Box::new(Type::Char), 3)),
            _ => panic!(),
        }
        match &tu.items[4] {
            Item::Global(g) => assert_eq!(g.ty, Type::Array(Box::new(Type::Int), 4)),
            _ => panic!(),
        }
    }

    #[test]
    fn parse_function_pointers() {
        let src = r#"
            struct ops { int (*push)(int, int); };
            int apply(int (*f)(int), int x) { return f(x); }
        "#;
        let tu = parse("t.c", src).unwrap();
        match &tu.items[0] {
            Item::Struct(s) => {
                assert!(
                    matches!(&s.fields[0].1, Type::Ptr(inner) if matches!(**inner, Type::Func(_)))
                );
            }
            _ => panic!(),
        }
        match &tu.items[1] {
            Item::Func(f) => {
                assert!(
                    matches!(&f.params[0].1, Type::Ptr(inner) if matches!(**inner, Type::Func(_)))
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_control_flow() {
        let src = r#"
            int f(int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) acc += i; else acc -= 1;
                }
                while (acc > 100) acc /= 2;
                do { acc++; } while (acc < 0);
                return acc;
            }
        "#;
        let tu = parse("t.c", src).unwrap();
        assert!(tu.find_func("f").is_some());
    }

    #[test]
    fn parse_expressions() {
        let src = r#"
            int g(char *p, int n) {
                int x = p[n] + *p;
                x = (int)p + sizeof(int) + sizeof x;
                x = x ? n : -n;
                x = a.b + c->d;
                return x << 2 | x & 3;
            }
            int a; int c;
        "#;
        // a.b / c->d won't typecheck, but must parse.
        assert!(parse("t.c", src).is_ok());
    }

    #[test]
    fn parse_varargs_and_builtin() {
        let src = r#"
            int printf(char *fmt, ...);
            int f() { return __vararg(0); }
        "#;
        let tu = parse("t.c", src).unwrap();
        match &tu.items[0] {
            Item::Func(f) => {
                assert!(f.varargs);
                assert!(f.body.is_none());
            }
            _ => panic!(),
        }
        match &tu.items[1] {
            Item::Func(f) => {
                let body = f.body.as_ref().unwrap();
                assert!(
                    matches!(&body[0], Stmt::Return(Some(e), _) if matches!(e.kind, ExprKind::VarArg(_)))
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_errors_have_positions() {
        let err = parse("t.c", "int f( { }").unwrap_err();
        match err {
            CError::Parse { span, .. } => assert_eq!(span.line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn precedence_is_c_like() {
        let tu = parse("t.c", "int f() { return 1 + 2 * 3; }").unwrap();
        let f = tu.find_func("f").unwrap();
        let body = f.body.as_ref().unwrap();
        match &body[0] {
            Stmt::Return(Some(e), _) => match &e.kind {
                ExprKind::Bin { op: BinOp::Add, rhs, .. } => {
                    assert!(matches!(rhs.kind, ExprKind::Bin { op: BinOp::Mul, .. }));
                }
                other => panic!("unexpected shape {other:?}"),
            },
            _ => panic!(),
        }
    }
}
