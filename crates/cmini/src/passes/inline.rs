//! Definition-before-use function inlining.
//!
//! This pass deliberately mimics the behaviour of gcc 2.95 that the paper's
//! flattening optimization exploits (§6): a call is only inlined when the
//! callee's **definition appears earlier in the same translation unit**.
//! Separate compilation therefore gets no cross-component inlining — but
//! after Knit merges the units of a flattened group into one file and sorts
//! definitions callee-before-caller, the very same pass suddenly fires
//! across what used to be component boundaries. That is the entire
//! mechanism of Table 1's "flattened" rows.
//!
//! Scope is conservative: a callee is inlinable if it has a body, is not
//! variadic, never has its address taken anywhere in the unit, does not
//! call itself, its body is at most `budget` statements, and either ends
//! with its only `return` or contains none at all. Call sites are rewritten
//! at statement level (`f(…);`, `x = f(…);`, `int x = f(…);`,
//! `return f(…);`).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::*;
use crate::token::Span;

/// Run the inliner over a translation unit.
///
/// `budget` bounds the callee body size in statements. Returns the number
/// of call sites inlined.
pub fn inline_tu(tu: &mut TranslationUnit, budget: usize) -> usize {
    // Direct-call-site counts: a function called exactly once is inlined
    // regardless of size (gcc's single-call-site heuristic — the function
    // body would exist exactly once either way).
    let call_counts = count_call_sites(tu);
    // Only a direct call to a function defined in this unit can be inlined,
    // and only inlining exposes new calls. Without one — the usual case
    // for a separately compiled unit — there is nothing to do.
    if !tu.items.iter().any(|item| {
        matches!(item, Item::Func(f) if f.body.is_some() && call_counts.contains_key(&f.name))
    }) {
        return 0;
    }
    let addr_taken = functions_with_address_taken(tu);
    // Candidate snapshot per function name, with its definition index.
    let mut defs: BTreeMap<String, (usize, FuncDef)> = BTreeMap::new();
    for (i, item) in tu.items.iter().enumerate() {
        if let Item::Func(f) = item {
            if f.body.is_some() && !defs.contains_key(&f.name) {
                defs.insert(f.name.clone(), (i, f.clone()));
            }
        }
    }
    let mut count = 0usize;
    let mut fresh = 0usize;
    for i in 0..tu.items.len() {
        let (name, mut body) = match &tu.items[i] {
            Item::Func(f) if f.body.is_some() => (f.name.clone(), f.body.clone().expect("body")),
            _ => continue,
        };
        // A few rounds so newly exposed calls get a chance.
        for _ in 0..4 {
            let mut ctx = InlineCtx {
                defs: &defs,
                addr_taken: &addr_taken,
                call_counts: &call_counts,
                budget,
                self_name: &name,
                self_index: i,
                fresh: &mut fresh,
                inlined: 0,
            };
            ctx.stmts(&mut body);
            count += ctx.inlined;
            if ctx.inlined == 0 {
                break;
            }
        }
        if let Item::Func(f) = &mut tu.items[i] {
            f.body = Some(body);
            // Refresh the snapshot: later callers splice the *expanded*
            // callee, so a whole single-call-site chain collapses in one
            // pass (processing order is source order, and flattening sorts
            // callees first).
            defs.insert(name.clone(), (i, f.clone()));
        }
    }
    if count > 0 {
        remove_dead_statics(tu);
    }
    count
}

/// Count direct call sites per function name across the unit.
fn count_call_sites(tu: &TranslationUnit) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut visit = |e: &Expr| {
        count_calls_expr(e, &mut counts);
    };
    for item in &tu.items {
        if let Item::Func(f) = item {
            if let Some(body) = &f.body {
                for s in body {
                    visit_stmt_exprs(s, &mut visit);
                }
            }
        }
    }
    counts
}

fn count_calls_expr(e: &Expr, counts: &mut BTreeMap<String, usize>) {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            if let ExprKind::Ident(n) = &callee.kind {
                *counts.entry(n.clone()).or_default() += 1;
            } else {
                count_calls_expr(callee, counts);
            }
            for a in args {
                count_calls_expr(a, counts);
            }
        }
        ExprKind::Bin { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            count_calls_expr(lhs, counts);
            count_calls_expr(rhs, counts);
        }
        ExprKind::Un { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Deref(expr)
        | ExprKind::AddrOf(expr)
        | ExprKind::SizeofExpr(expr)
        | ExprKind::IncDec { expr, .. }
        | ExprKind::VarArg(expr) => count_calls_expr(expr, counts),
        ExprKind::Cond { cond, then_e, else_e } => {
            count_calls_expr(cond, counts);
            count_calls_expr(then_e, counts);
            count_calls_expr(else_e, counts);
        }
        ExprKind::Index { base, index } => {
            count_calls_expr(base, counts);
            count_calls_expr(index, counts);
        }
        ExprKind::Member { base, .. } => count_calls_expr(base, counts),
        _ => {}
    }
}

/// Remove `static` functions no longer referenced anywhere (fully inlined
/// bodies): the file-local original would just be dead weight, and gcc
/// removes it the same way.
fn remove_dead_statics(tu: &mut TranslationUnit) {
    loop {
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        for item in &tu.items {
            match item {
                Item::Func(f) => {
                    if let Some(body) = &f.body {
                        for s in body {
                            visit_stmt_exprs(s, &mut |e| collect_idents(e, &mut referenced));
                        }
                    }
                }
                Item::Global(g) => {
                    if let Some(init) = &g.init {
                        collect_init_idents(init, &mut referenced);
                    }
                }
                _ => {}
            }
        }
        let before = tu.items.len();
        tu.items.retain(|item| match item {
            Item::Func(f) => {
                !(f.storage == Storage::Static && f.body.is_some() && !referenced.contains(&f.name))
            }
            _ => true,
        });
        if tu.items.len() == before {
            break;
        }
    }
}

fn collect_idents(e: &Expr, out: &mut BTreeSet<String>) {
    match &e.kind {
        ExprKind::Ident(n) => {
            out.insert(n.clone());
        }
        ExprKind::Call { callee, args } => {
            collect_idents(callee, out);
            for a in args {
                collect_idents(a, out);
            }
        }
        ExprKind::Bin { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            collect_idents(lhs, out);
            collect_idents(rhs, out);
        }
        ExprKind::Un { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Deref(expr)
        | ExprKind::AddrOf(expr)
        | ExprKind::SizeofExpr(expr)
        | ExprKind::IncDec { expr, .. }
        | ExprKind::VarArg(expr) => collect_idents(expr, out),
        ExprKind::Cond { cond, then_e, else_e } => {
            collect_idents(cond, out);
            collect_idents(then_e, out);
            collect_idents(else_e, out);
        }
        ExprKind::Index { base, index } => {
            collect_idents(base, out);
            collect_idents(index, out);
        }
        ExprKind::Member { base, .. } => collect_idents(base, out),
        _ => {}
    }
}

fn collect_init_idents(init: &Init, out: &mut BTreeSet<String>) {
    match init {
        Init::Expr(e) => collect_idents(e, out),
        Init::List(items) => {
            for i in items {
                collect_init_idents(i, out);
            }
        }
    }
}

/// Functions whose name appears outside of direct-call position (so their
/// address may escape; never inline or assume anything about those).
fn functions_with_address_taken(tu: &TranslationUnit) -> BTreeSet<String> {
    let mut func_names: BTreeSet<String> = BTreeSet::new();
    for item in &tu.items {
        if let Item::Func(f) = item {
            func_names.insert(f.name.clone());
        }
    }
    let mut out = BTreeSet::new();
    for item in &tu.items {
        match item {
            Item::Func(f) => {
                if let Some(body) = &f.body {
                    for s in body {
                        scan_stmt(s, &func_names, &mut out);
                    }
                }
            }
            Item::Global(g) => {
                if let Some(init) = &g.init {
                    scan_init(init, &func_names, &mut out);
                }
            }
            _ => {}
        }
    }
    out
}

fn scan_init(init: &Init, funcs: &BTreeSet<String>, out: &mut BTreeSet<String>) {
    match init {
        Init::Expr(e) => scan_expr(e, funcs, out, false),
        Init::List(items) => {
            for i in items {
                scan_init(i, funcs, out);
            }
        }
    }
}

fn scan_stmt(s: &Stmt, funcs: &BTreeSet<String>, out: &mut BTreeSet<String>) {
    visit_stmt_exprs(s, &mut |e| scan_expr_top(e, funcs, out));
}

fn scan_expr_top(e: &Expr, funcs: &BTreeSet<String>, out: &mut BTreeSet<String>) {
    scan_expr(e, funcs, out, false);
}

/// `in_call_callee` marks the callee slot of a call, where a bare function
/// name does NOT count as address-taken.
fn scan_expr(e: &Expr, funcs: &BTreeSet<String>, out: &mut BTreeSet<String>, in_call_callee: bool) {
    match &e.kind {
        ExprKind::Ident(n) if !in_call_callee && funcs.contains(n) => {
            out.insert(n.clone());
        }
        ExprKind::Call { callee, args } => {
            scan_expr(callee, funcs, out, true);
            for a in args {
                scan_expr(a, funcs, out, false);
            }
        }
        ExprKind::Bin { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            scan_expr(lhs, funcs, out, false);
            scan_expr(rhs, funcs, out, false);
        }
        ExprKind::Un { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Deref(expr)
        | ExprKind::AddrOf(expr)
        | ExprKind::SizeofExpr(expr)
        | ExprKind::IncDec { expr, .. }
        | ExprKind::VarArg(expr) => scan_expr(expr, funcs, out, false),
        ExprKind::Cond { cond, then_e, else_e } => {
            scan_expr(cond, funcs, out, false);
            scan_expr(then_e, funcs, out, false);
            scan_expr(else_e, funcs, out, false);
        }
        ExprKind::Index { base, index } => {
            scan_expr(base, funcs, out, false);
            scan_expr(index, funcs, out, false);
        }
        ExprKind::Member { base, .. } => scan_expr(base, funcs, out, false),
        _ => {}
    }
}

fn visit_stmt_exprs(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match s {
        Stmt::Expr(e) | Stmt::Return(Some(e), _) => f(e),
        Stmt::Decl { init: Some(e), .. } => f(e),
        Stmt::If { cond, then_s, else_s } => {
            f(cond);
            visit_stmt_exprs(then_s, f);
            if let Some(e) = else_s {
                visit_stmt_exprs(e, f);
            }
        }
        Stmt::While { cond, body } => {
            f(cond);
            visit_stmt_exprs(body, f);
        }
        Stmt::DoWhile { body, cond } => {
            visit_stmt_exprs(body, f);
            f(cond);
        }
        Stmt::For { init, cond, step, body } => {
            if let Some(i) = init {
                visit_stmt_exprs(i, f);
            }
            if let Some(c) = cond {
                f(c);
            }
            if let Some(s2) = step {
                f(s2);
            }
            visit_stmt_exprs(body, f);
        }
        Stmt::Block(ss) => {
            for s in ss {
                visit_stmt_exprs(s, f);
            }
        }
        _ => {}
    }
}

struct InlineCtx<'a> {
    defs: &'a BTreeMap<String, (usize, FuncDef)>,
    addr_taken: &'a BTreeSet<String>,
    call_counts: &'a BTreeMap<String, usize>,
    budget: usize,
    self_name: &'a str,
    self_index: usize,
    fresh: &'a mut usize,
    inlined: usize,
}

/// Shape of an inlinable body.
enum BodyShape {
    /// No `return` anywhere; result (if demanded) is 0.
    NoReturn,
    /// Exactly one `return`, as the final top-level statement.
    TailReturn,
    /// Early returns present: inline with the guarded (`__done` flag)
    /// transformation, the way gcc's inliner handles arbitrary control
    /// flow. Every `return e` becomes `{ __ret = e; __done = 1; }`,
    /// statements after a possibly-returning statement are guarded by
    /// `if (!__done)`, and loops containing returns get a trailing
    /// `if (__done) break;`.
    EarlyReturns,
}

impl<'a> InlineCtx<'a> {
    fn stmts(&mut self, ss: &mut Vec<Stmt>) {
        // recurse first
        for s in ss.iter_mut() {
            self.stmt(s);
        }
        // then rewrite call-sites at this level
        let old = std::mem::take(ss);
        for s in old {
            match self.try_rewrite(&s) {
                Some(mut replacement) => {
                    self.inlined += 1;
                    ss.append(&mut replacement);
                }
                None => ss.push(s),
            }
        }
    }

    fn stmt(&mut self, s: &mut Stmt) {
        match s {
            Stmt::Block(ss) => self.stmts(ss),
            Stmt::If { then_s, else_s, .. } => {
                self.stmt_boxed(then_s);
                if let Some(e) = else_s {
                    self.stmt_boxed(e);
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => self.stmt_boxed(body),
            Stmt::For { body, .. } => self.stmt_boxed(body),
            _ => {}
        }
    }

    /// Handle a statement that is the direct (non-block) body of a loop or
    /// `if` arm: recurse, then rewrite it in place if it is a call-site.
    fn stmt_boxed(&mut self, b: &mut Box<Stmt>) {
        self.stmt(b);
        if let Some(replacement) = self.try_rewrite(b) {
            self.inlined += 1;
            **b = Stmt::Block(replacement);
        }
    }

    /// If `s` is an inlinable call-site, produce replacement statements.
    fn try_rewrite(&mut self, s: &Stmt) -> Option<Vec<Stmt>> {
        match s {
            Stmt::Expr(e) => {
                // x = f(args);
                if let ExprKind::Assign { op: None, lhs, rhs } = &e.kind {
                    if let (ExprKind::Ident(var), ExprKind::Call { callee, args }) =
                        (&lhs.kind, &rhs.kind)
                    {
                        if let ExprKind::Ident(fname) = &callee.kind {
                            let callee_def = self.candidate(fname, args.len())?;
                            return Some(self.splice(
                                callee_def,
                                args,
                                e.span,
                                Consumer::AssignTo(var.clone(), e.span),
                            ));
                        }
                    }
                    return None;
                }
                // f(args);
                let (name, args, span) = as_direct_call(e)?;
                let callee = self.candidate(name, args.len())?;
                Some(self.splice(callee, args, span, Consumer::Discard))
            }
            _ => self.try_rewrite_other(s),
        }
    }

    fn try_rewrite_other(&mut self, s: &Stmt) -> Option<Vec<Stmt>> {
        match s {
            Stmt::Return(Some(e), span) => {
                let (name, args, _) = as_direct_call(e)?;
                let callee = self.candidate(name, args.len())?;
                Some(self.splice(callee, args, *span, Consumer::Return(*span)))
            }
            Stmt::Decl { name: var, ty, init: Some(e), span } => {
                let (fname, args, _) = as_direct_call(e)?;
                let callee = self.candidate(fname, args.len())?;
                let mut out =
                    vec![Stmt::Decl { name: var.clone(), ty: ty.clone(), init: None, span: *span }];
                out.extend(self.splice(
                    callee,
                    args,
                    *span,
                    Consumer::AssignTo(var.clone(), *span),
                ));
                Some(out)
            }
            _ => None,
        }
    }

    fn candidate(&self, name: &str, nargs: usize) -> Option<&'a FuncDef> {
        if name == self.self_name || self.addr_taken.contains(name) {
            return None;
        }
        let (def_index, f) = self.defs.get(name)?;
        // definition-before-use: only inline functions defined earlier
        if *def_index >= self.self_index {
            return None;
        }
        if f.varargs || f.params.len() != nargs {
            return None;
        }
        let body = f.body.as_ref()?;
        // size budget — waived for single-call-site functions (the body
        // exists exactly once either way, so inlining only removes the
        // call overhead)
        let single_site = self.call_counts.get(name).copied().unwrap_or(0) == 1;
        if !single_site && stmt_count(body) > self.budget {
            return None;
        }
        body_shape(body)?;
        // self-recursive callees never get smaller by inlining
        if calls_function(body, name) {
            return None;
        }
        Some(f)
    }

    /// Build the replacement statements for one inlined call.
    fn splice(
        &mut self,
        callee: &FuncDef,
        args: &[Expr],
        span: Span,
        consumer: Consumer,
    ) -> Vec<Stmt> {
        let k = *self.fresh;
        *self.fresh += 1;
        let body = callee.body.as_ref().expect("candidate has body");
        let shape = body_shape(body).expect("candidate validated");

        // rename map: params and all locals
        let mut map: BTreeMap<String, String> = BTreeMap::new();
        for (p, _) in &callee.params {
            map.insert(p.clone(), format!("__inl{k}_{p}"));
        }
        collect_locals(body, &mut |n| {
            map.entry(n.to_string()).or_insert_with(|| format!("__inl{k}_{n}"));
        });
        let ret_name = format!("__inl{k}_ret");

        let mut out: Vec<Stmt> = Vec::new();
        // argument bindings, in order
        for ((p, ty), a) in callee.params.iter().zip(args.iter()) {
            out.push(Stmt::Decl {
                name: map[p].clone(),
                ty: ty.clone(),
                init: Some(a.clone()),
                span,
            });
        }
        // result variable
        let needs_ret = !matches!(consumer, Consumer::Discard);
        if needs_ret {
            let ret_ty =
                if matches!(callee.ret, Type::Void) { Type::Int } else { callee.ret.clone() };
            out.push(Stmt::Decl {
                name: ret_name.clone(),
                ty: ret_ty,
                init: Some(Expr::int(0, span)),
                span,
            });
        }
        // the body, renamed, with returns rewritten per shape
        let mut inner: Vec<Stmt> = body.iter().map(|s| rename_stmt(s, &map)).collect();
        match shape {
            BodyShape::NoReturn => {}
            BodyShape::TailReturn => {
                let last = inner.pop().expect("tail return present");
                match last {
                    Stmt::Return(Some(e), rspan) => {
                        if needs_ret {
                            inner.push(Stmt::Expr(Expr::new(
                                ExprKind::Assign {
                                    op: None,
                                    lhs: Box::new(Expr::new(
                                        ExprKind::Ident(ret_name.clone()),
                                        rspan,
                                    )),
                                    rhs: Box::new(e),
                                },
                                rspan,
                            )));
                        } else {
                            inner.push(Stmt::Expr(e));
                        }
                    }
                    Stmt::Return(None, _) => {}
                    other => inner.push(other),
                }
            }
            BodyShape::EarlyReturns => {
                // Prefer the flag-free else-chain transform (guard-clause
                // bodies, the common case); fall back to the `__done` flag
                // for returns inside loops or partial branches.
                match chain_stmts(&inner, &ret_name, needs_ret) {
                    Some(chained) => inner = chained,
                    None => {
                        let done_name = format!("__inl{k}_done");
                        let guarded = guard_stmts(&inner, &done_name, &ret_name, needs_ret, span);
                        inner = vec![Stmt::Decl {
                            name: done_name,
                            ty: Type::Int,
                            init: Some(Expr::int(0, span)),
                            span,
                        }];
                        inner.extend(guarded);
                    }
                }
            }
        }
        out.push(Stmt::Block(inner));
        // consume the result
        match consumer {
            Consumer::Discard => {}
            Consumer::Return(rspan) => {
                out.push(Stmt::Return(Some(Expr::new(ExprKind::Ident(ret_name), rspan)), rspan));
            }
            Consumer::AssignTo(var, aspan) => {
                out.push(Stmt::Expr(Expr::new(
                    ExprKind::Assign {
                        op: None,
                        lhs: Box::new(Expr::new(ExprKind::Ident(var), aspan)),
                        rhs: Box::new(Expr::new(ExprKind::Ident(ret_name), aspan)),
                    },
                    aspan,
                )));
            }
        }
        vec![Stmt::Block(out)]
    }
}

enum Consumer {
    Discard,
    Return(Span),
    AssignTo(String, Span),
}

/// Does any statement in `ss` directly call `name`?
fn calls_function(ss: &[Stmt], name: &str) -> bool {
    let mut found = false;
    for s in ss {
        visit_stmt_exprs(s, &mut |e| {
            expr_calls(e, name, &mut found);
        });
    }
    found
}

fn expr_calls(e: &Expr, name: &str, found: &mut bool) {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            if let ExprKind::Ident(n) = &callee.kind {
                if n == name {
                    *found = true;
                }
            }
            expr_calls(callee, name, found);
            for a in args {
                expr_calls(a, name, found);
            }
        }
        ExprKind::Bin { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            expr_calls(lhs, name, found);
            expr_calls(rhs, name, found);
        }
        ExprKind::Un { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Deref(expr)
        | ExprKind::AddrOf(expr)
        | ExprKind::SizeofExpr(expr)
        | ExprKind::IncDec { expr, .. }
        | ExprKind::VarArg(expr) => expr_calls(expr, name, found),
        ExprKind::Cond { cond, then_e, else_e } => {
            expr_calls(cond, name, found);
            expr_calls(then_e, name, found);
            expr_calls(else_e, name, found);
        }
        ExprKind::Index { base, index } => {
            expr_calls(base, name, found);
            expr_calls(index, name, found);
        }
        ExprKind::Member { base, .. } => expr_calls(base, name, found),
        _ => {}
    }
}

/// Match `name(args)` where the callee is a bare identifier.
fn as_direct_call(e: &Expr) -> Option<(&str, &[Expr], Span)> {
    match &e.kind {
        ExprKind::Call { callee, args } => match &callee.kind {
            ExprKind::Ident(n) if n != "__vararg" => Some((n, args, e.span)),
            _ => None,
        },
        _ => None,
    }
}

fn stmt_count(ss: &[Stmt]) -> usize {
    let mut n = 0;
    for s in ss {
        n += 1;
        match s {
            Stmt::Block(inner) => n += stmt_count(inner),
            Stmt::If { then_s, else_s, .. } => {
                n += stmt_count(std::slice::from_ref(then_s));
                if let Some(e) = else_s {
                    n += stmt_count(std::slice::from_ref(e));
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                n += stmt_count(std::slice::from_ref(body));
            }
            _ => {}
        }
    }
    n
}

/// Classify the body. Every body is inlinable; the shape picks the
/// cheapest correct transformation.
fn body_shape(ss: &[Stmt]) -> Option<BodyShape> {
    let mut returns = 0usize;
    for s in ss {
        count_returns(s, &mut returns);
    }
    if returns == 0 {
        return Some(BodyShape::NoReturn);
    }
    if returns == 1 && matches!(ss.last(), Some(Stmt::Return(_, _))) {
        return Some(BodyShape::TailReturn);
    }
    Some(BodyShape::EarlyReturns)
}

/// Does this statement contain a `return` anywhere?
fn has_return(s: &Stmt) -> bool {
    let mut n = 0;
    count_returns(s, &mut n);
    n > 0
}

/// Does this statement return on every path?
fn always_returns(s: &Stmt) -> bool {
    match s {
        Stmt::Return(..) => true,
        Stmt::Block(ss) => ss.iter().any(always_returns),
        Stmt::If { then_s, else_s: Some(e), .. } => always_returns(then_s) && always_returns(e),
        _ => false,
    }
}

/// One `return e` rewritten as a result assignment (or a side-effect
/// evaluation when the value is unused).
fn return_as_assign(v: &Option<Expr>, rspan: Span, ret: &str, need_value: bool) -> Vec<Stmt> {
    match v {
        Some(e) if need_value => vec![Stmt::Expr(Expr::new(
            ExprKind::Assign {
                op: None,
                lhs: Box::new(Expr::new(ExprKind::Ident(ret.to_string()), rspan)),
                rhs: Box::new(e.clone()),
            },
            rspan,
        ))],
        Some(e) => vec![Stmt::Expr(e.clone())],
        None => vec![],
    }
}

/// Flag-free early-return transform: rewrite a statement sequence so every
/// `return` becomes a result assignment and the following statements move
/// into `else` arms. Returns `None` when a return hides inside a loop or a
/// branch that only sometimes returns (the flag fallback handles those).
fn chain_stmts(ss: &[Stmt], ret: &str, need_value: bool) -> Option<Vec<Stmt>> {
    let mut out: Vec<Stmt> = Vec::new();
    let mut i = 0usize;
    while i < ss.len() {
        let s = &ss[i];
        if !has_return(s) {
            out.push(s.clone());
            i += 1;
            continue;
        }
        match s {
            Stmt::Return(v, rspan) => {
                // rest is unreachable
                out.extend(return_as_assign(v, *rspan, ret, need_value));
                return Some(out);
            }
            Stmt::Block(inner) => {
                if always_returns(s) {
                    out.extend(chain_stmts(inner, ret, need_value)?);
                    return Some(out);
                }
                // a block that sometimes falls through: splice it into the
                // remaining sequence (declarations stay scoped correctly
                // only if none leak — conservatively bail when it declares)
                if inner.iter().any(|x| matches!(x, Stmt::Decl { .. })) {
                    return None;
                }
                let mut spliced: Vec<Stmt> = inner.clone();
                spliced.extend_from_slice(&ss[i + 1..]);
                out.extend(chain_stmts(&spliced, ret, need_value)?);
                return Some(out);
            }
            Stmt::If { cond, then_s, else_s } => {
                let rest = &ss[i + 1..];
                match else_s {
                    None if always_returns(then_s) => {
                        let t =
                            chain_stmts(std::slice::from_ref(then_s.as_ref()), ret, need_value)?;
                        let r = chain_stmts(rest, ret, need_value)?;
                        out.push(Stmt::If {
                            cond: cond.clone(),
                            then_s: Box::new(Stmt::Block(t)),
                            else_s: Some(Box::new(Stmt::Block(r))),
                        });
                        return Some(out);
                    }
                    Some(e) if always_returns(then_s) && always_returns(e) => {
                        let t =
                            chain_stmts(std::slice::from_ref(then_s.as_ref()), ret, need_value)?;
                        let el = chain_stmts(std::slice::from_ref(e.as_ref()), ret, need_value)?;
                        out.push(Stmt::If {
                            cond: cond.clone(),
                            then_s: Box::new(Stmt::Block(t)),
                            else_s: Some(Box::new(Stmt::Block(el))),
                        });
                        return Some(out); // rest unreachable
                    }
                    Some(e) if always_returns(then_s) && !has_return(e) => {
                        let t =
                            chain_stmts(std::slice::from_ref(then_s.as_ref()), ret, need_value)?;
                        let mut tail: Vec<Stmt> = vec![e.as_ref().clone()];
                        tail.extend_from_slice(rest);
                        let r = chain_stmts(&tail, ret, need_value)?;
                        out.push(Stmt::If {
                            cond: cond.clone(),
                            then_s: Box::new(Stmt::Block(t)),
                            else_s: Some(Box::new(Stmt::Block(r))),
                        });
                        return Some(out);
                    }
                    Some(e) if always_returns(e) && !has_return(then_s) => {
                        let el = chain_stmts(std::slice::from_ref(e.as_ref()), ret, need_value)?;
                        let mut tail: Vec<Stmt> = vec![then_s.as_ref().clone()];
                        tail.extend_from_slice(rest);
                        let r = chain_stmts(&tail, ret, need_value)?;
                        out.push(Stmt::If {
                            cond: cond.clone(),
                            then_s: Box::new(Stmt::Block(r)),
                            else_s: Some(Box::new(Stmt::Block(el))),
                        });
                        return Some(out);
                    }
                    _ => return None,
                }
            }
            _ => return None, // returns inside loops need the flag
        }
    }
    Some(out)
}

/// The guarded early-return transformation. `done` and `ret` are the
/// per-call-site flag and result variables; `need_value` controls whether
/// `return e` stores `e`.
fn guard_stmts(ss: &[Stmt], done: &str, ret: &str, need_value: bool, span: Span) -> Vec<Stmt> {
    let mut out: Vec<Stmt> = Vec::new();
    for (i, s) in ss.iter().enumerate() {
        if !has_return(s) {
            out.push(s.clone());
            continue;
        }
        out.push(guard_stmt(s, done, ret, need_value, span));
        let rest = &ss[i + 1..];
        if !rest.is_empty() {
            let guarded_rest = guard_stmts(rest, done, ret, need_value, span);
            out.push(Stmt::If {
                cond: Expr::new(
                    ExprKind::Un {
                        op: UnOp::Not,
                        expr: Box::new(Expr::new(ExprKind::Ident(done.to_string()), span)),
                    },
                    span,
                ),
                then_s: Box::new(Stmt::Block(guarded_rest)),
                else_s: None,
            });
        }
        break;
    }
    out
}

fn guard_stmt(s: &Stmt, done: &str, ret: &str, need_value: bool, span: Span) -> Stmt {
    match s {
        Stmt::Return(v, rspan) => {
            let mut stmts = Vec::new();
            if need_value {
                if let Some(e) = v {
                    stmts.push(Stmt::Expr(Expr::new(
                        ExprKind::Assign {
                            op: None,
                            lhs: Box::new(Expr::new(ExprKind::Ident(ret.to_string()), *rspan)),
                            rhs: Box::new(e.clone()),
                        },
                        *rspan,
                    )));
                }
            } else if let Some(e) = v {
                // evaluate for side effects
                stmts.push(Stmt::Expr(e.clone()));
            }
            stmts.push(Stmt::Expr(Expr::new(
                ExprKind::Assign {
                    op: None,
                    lhs: Box::new(Expr::new(ExprKind::Ident(done.to_string()), *rspan)),
                    rhs: Box::new(Expr::int(1, *rspan)),
                },
                *rspan,
            )));
            Stmt::Block(stmts)
        }
        Stmt::Block(ss) => Stmt::Block(guard_stmts(ss, done, ret, need_value, span)),
        Stmt::If { cond, then_s, else_s } => Stmt::If {
            cond: cond.clone(),
            then_s: Box::new(guard_stmt(then_s, done, ret, need_value, span)),
            else_s: else_s.as_ref().map(|e| Box::new(guard_stmt(e, done, ret, need_value, span))),
        },
        Stmt::While { cond, body } => Stmt::While {
            cond: cond.clone(),
            body: Box::new(loop_body(body, done, ret, need_value, span)),
        },
        Stmt::DoWhile { body, cond } => Stmt::DoWhile {
            body: Box::new(loop_body(body, done, ret, need_value, span)),
            cond: cond.clone(),
        },
        Stmt::For { init, cond, step, body } => Stmt::For {
            init: init.clone(),
            cond: cond.clone(),
            step: step.clone(),
            body: Box::new(loop_body(body, done, ret, need_value, span)),
        },
        other => other.clone(),
    }
}

/// Rewrite a loop body that contains returns: guard it, then break out of
/// the loop once the flag is set.
fn loop_body(body: &Stmt, done: &str, ret: &str, need_value: bool, span: Span) -> Stmt {
    let guarded = guard_stmt(body, done, ret, need_value, span);
    Stmt::Block(vec![
        guarded,
        Stmt::If {
            cond: Expr::new(ExprKind::Ident(done.to_string()), span),
            then_s: Box::new(Stmt::Break(span)),
            else_s: None,
        },
    ])
}

fn count_returns(s: &Stmt, n: &mut usize) {
    match s {
        Stmt::Return(..) => *n += 1,
        Stmt::Block(ss) => {
            for s in ss {
                count_returns(s, n);
            }
        }
        Stmt::If { then_s, else_s, .. } => {
            count_returns(then_s, n);
            if let Some(e) = else_s {
                count_returns(e, n);
            }
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
            count_returns(body, n);
        }
        _ => {}
    }
}

fn collect_locals(ss: &[Stmt], f: &mut impl FnMut(&str)) {
    for s in ss {
        match s {
            Stmt::Decl { name, .. } => f(name),
            Stmt::Block(inner) => collect_locals(inner, f),
            Stmt::If { then_s, else_s, .. } => {
                collect_locals(std::slice::from_ref(then_s), f);
                if let Some(e) = else_s {
                    collect_locals(std::slice::from_ref(e), f);
                }
            }
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => {
                collect_locals(std::slice::from_ref(body), f)
            }
            Stmt::For { init, body, .. } => {
                if let Some(i) = init {
                    collect_locals(std::slice::from_ref(i), f);
                }
                collect_locals(std::slice::from_ref(body), f);
            }
            _ => {}
        }
    }
}

fn rename_stmt(s: &Stmt, map: &BTreeMap<String, String>) -> Stmt {
    match s {
        Stmt::Expr(e) => Stmt::Expr(rename_expr(e, map)),
        Stmt::Decl { name, ty, init, span } => Stmt::Decl {
            name: map.get(name).cloned().unwrap_or_else(|| name.clone()),
            ty: ty.clone(),
            init: init.as_ref().map(|e| rename_expr(e, map)),
            span: *span,
        },
        Stmt::If { cond, then_s, else_s } => Stmt::If {
            cond: rename_expr(cond, map),
            then_s: Box::new(rename_stmt(then_s, map)),
            else_s: else_s.as_ref().map(|e| Box::new(rename_stmt(e, map))),
        },
        Stmt::While { cond, body } => {
            Stmt::While { cond: rename_expr(cond, map), body: Box::new(rename_stmt(body, map)) }
        }
        Stmt::DoWhile { body, cond } => {
            Stmt::DoWhile { body: Box::new(rename_stmt(body, map)), cond: rename_expr(cond, map) }
        }
        Stmt::For { init, cond, step, body } => Stmt::For {
            init: init.as_ref().map(|i| Box::new(rename_stmt(i, map))),
            cond: cond.as_ref().map(|c| rename_expr(c, map)),
            step: step.as_ref().map(|s2| rename_expr(s2, map)),
            body: Box::new(rename_stmt(body, map)),
        },
        Stmt::Return(v, span) => Stmt::Return(v.as_ref().map(|e| rename_expr(e, map)), *span),
        Stmt::Break(sp) => Stmt::Break(*sp),
        Stmt::Continue(sp) => Stmt::Continue(*sp),
        Stmt::Block(ss) => Stmt::Block(ss.iter().map(|s| rename_stmt(s, map)).collect()),
        Stmt::Empty => Stmt::Empty,
    }
}

fn rename_expr(e: &Expr, map: &BTreeMap<String, String>) -> Expr {
    let kind = match &e.kind {
        ExprKind::Ident(n) => ExprKind::Ident(map.get(n).cloned().unwrap_or_else(|| n.clone())),
        ExprKind::Bin { op, lhs, rhs } => ExprKind::Bin {
            op: *op,
            lhs: Box::new(rename_expr(lhs, map)),
            rhs: Box::new(rename_expr(rhs, map)),
        },
        ExprKind::Un { op, expr } => {
            ExprKind::Un { op: *op, expr: Box::new(rename_expr(expr, map)) }
        }
        ExprKind::Assign { op, lhs, rhs } => ExprKind::Assign {
            op: *op,
            lhs: Box::new(rename_expr(lhs, map)),
            rhs: Box::new(rename_expr(rhs, map)),
        },
        ExprKind::Cond { cond, then_e, else_e } => ExprKind::Cond {
            cond: Box::new(rename_expr(cond, map)),
            then_e: Box::new(rename_expr(then_e, map)),
            else_e: Box::new(rename_expr(else_e, map)),
        },
        ExprKind::Call { callee, args } => ExprKind::Call {
            // NB: direct-call callees are *not* renamed (they are function
            // names, which the map never contains).
            callee: Box::new(rename_expr(callee, map)),
            args: args.iter().map(|a| rename_expr(a, map)).collect(),
        },
        ExprKind::Index { base, index } => ExprKind::Index {
            base: Box::new(rename_expr(base, map)),
            index: Box::new(rename_expr(index, map)),
        },
        ExprKind::Member { base, field, arrow } => ExprKind::Member {
            base: Box::new(rename_expr(base, map)),
            field: field.clone(),
            arrow: *arrow,
        },
        ExprKind::Deref(inner) => ExprKind::Deref(Box::new(rename_expr(inner, map))),
        ExprKind::AddrOf(inner) => ExprKind::AddrOf(Box::new(rename_expr(inner, map))),
        ExprKind::Cast { ty, expr } => {
            ExprKind::Cast { ty: ty.clone(), expr: Box::new(rename_expr(expr, map)) }
        }
        ExprKind::SizeofExpr(inner) => ExprKind::SizeofExpr(Box::new(rename_expr(inner, map))),
        ExprKind::IncDec { pre, inc, expr } => {
            ExprKind::IncDec { pre: *pre, inc: *inc, expr: Box::new(rename_expr(expr, map)) }
        }
        ExprKind::VarArg(inner) => ExprKind::VarArg(Box::new(rename_expr(inner, map))),
        other => other.clone(),
    };
    Expr::new(kind, e.span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str, budget: usize) -> (TranslationUnit, usize) {
        let mut tu = parse("t.c", src).unwrap();
        let n = inline_tu(&mut tu, budget);
        (tu, n)
    }

    fn has_call_to(tu: &TranslationUnit, caller: &str, callee: &str) -> bool {
        let f = tu.find_func(caller).unwrap();
        let mut found = false;
        for s in f.body.as_ref().unwrap() {
            visit_stmt_exprs(s, &mut |e| {
                check_expr(e, callee, &mut found);
            });
        }
        found
    }

    fn check_expr(e: &Expr, callee: &str, found: &mut bool) {
        match &e.kind {
            ExprKind::Call { callee: c, args } => {
                if let ExprKind::Ident(n) = &c.kind {
                    if n == callee {
                        *found = true;
                    }
                }
                for a in args {
                    check_expr(a, callee, found);
                }
            }
            ExprKind::Bin { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                check_expr(lhs, callee, found);
                check_expr(rhs, callee, found);
            }
            ExprKind::Un { expr, .. } | ExprKind::Deref(expr) | ExprKind::AddrOf(expr) => {
                check_expr(expr, callee, found)
            }
            _ => {}
        }
    }

    #[test]
    fn inlines_definition_before_use() {
        let (tu, n) = run(
            "int double_it(int x) { return x + x; }\n\
             int f(int y) { return double_it(y); }",
            32,
        );
        assert_eq!(n, 1);
        assert!(!has_call_to(&tu, "f", "double_it"));
    }

    #[test]
    fn unit_without_an_inlinable_direct_call_comes_back_unchanged() {
        // Calls only to declared-elsewhere functions, a function pointer
        // call and a global initializer: the shape of a separately
        // compiled unit, which the early exit skips.
        let src = "int other(int x);\n\
                   static int k = 3;\n\
                   int (*hook)(int) = other;\n\
                   int f(int y) { int a = other(y); return hook(a) + k; }\n\
                   int g(int z) { return other(z + 1); }";
        let before = parse("t.c", src).unwrap();
        let (tu, n) = run(src, 32);
        assert_eq!(n, 0);
        assert_eq!(tu, before);
    }

    #[test]
    fn one_definition_before_use_call_is_inlined_as_before() {
        // Pinned output of the pass before the early exit existed: `sq`
        // has two call sites, so only the statement-level one in `f` is
        // spliced, and the static survives for `g`'s nested call.
        let (tu, n) = run(
            "static int sq(int x) { int y = x * x; return y; }\n\
             int f(int a) { int b = sq(a + 1); return b - 1; }\n\
             int g(int c) { return f(c) + sq(c); }",
            32,
        );
        assert_eq!(n, 1);
        assert_eq!(
            crate::printer::print_tu(&tu),
            "static int sq(int x) {\n    int y = (x * x);\n    return y;\n}\n\
             int f(int a) {\n    int b;\n    {\n        int __inl0_x = (a + 1);\n        \
             int __inl0_ret = 0;\n        {\n            int __inl0_y = (__inl0_x * __inl0_x);\n            \
             (__inl0_ret = __inl0_y);\n        }\n        (b = __inl0_ret);\n    }\n    \
             return (b - 1);\n}\n\
             int g(int c) {\n    return (f(c) + sq(c));\n}\n"
        );
    }

    #[test]
    fn does_not_inline_definition_after_use() {
        let (tu, n) = run(
            "int f(int y) { return double_it(y); }\n\
             int double_it(int x) { return x + x; }",
            32,
        );
        assert_eq!(n, 0);
        assert!(has_call_to(&tu, "f", "double_it"));
    }

    #[test]
    fn respects_budget_for_multi_site_callees() {
        // Two call sites: the single-call-site waiver does not apply, so
        // the size budget decides.
        let big = "int big(int x) { x = x + 1; x = x + 1; x = x + 1; x = x + 1; return x; }\n\
                   int f(int y) { int a = big(y); int b = big(a); return b; }";
        let (_, n) = run(big, 2);
        assert_eq!(n, 0);
        let (_, n) = run(big, 32);
        assert_eq!(n, 2);
    }

    #[test]
    fn single_call_site_waives_budget_and_removes_dead_static() {
        let big =
            "static int big(int x) { x = x + 1; x = x + 1; x = x + 1; x = x + 1; return x; }\n\
                   int f(int y) { return big(y); }";
        let (tu, n) = run(big, 2);
        assert_eq!(n, 1);
        // the fully-inlined static original is gone
        assert!(tu.find_func("big").is_none());
        assert!(tu.find_func("f").is_some());
    }

    #[test]
    fn skips_recursive_and_varargs() {
        let (_, n) = run(
            "int rec(int x) { return rec(x); }\n\
             int f(int y) { return rec(y); }",
            32,
        );
        assert_eq!(n, 0);
        let (_, n) = run(
            "int v(int x, ...) { return x; }\n\
             int f(int y) { return v(y, 1); }",
            32,
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn skips_address_taken_functions() {
        let (_, n) = run(
            "int g(int x) { return x; }\n\
             int (*fp)(int) = &g;\n\
             int f(int y) { return g(y); }",
            32,
        );
        assert_eq!(n, 0);
    }

    #[test]
    fn inlines_early_returns_with_guard() {
        let (tu, n) = run(
            "int g(int x) { if (x) { return 1; } return 2; }\n\
             int f(int y) { return g(y); }",
            32,
        );
        assert_eq!(n, 1);
        assert!(!has_call_to(&tu, "f", "g"));
    }

    #[test]
    fn inlines_returns_inside_loops_with_break_guard() {
        let (tu, n) = run(
            "int find(int x) { for (int i = 0; i < 10; i++) { if (i == x) return i * 2; } return -1; }\n\
             int f(int y) { return find(y); }",
            32,
        );
        assert_eq!(n, 1);
        assert!(!has_call_to(&tu, "f", "find"));
    }

    #[test]
    fn inlines_void_call_statement() {
        let (tu, n) = run(
            "int counter;\n\
             void bump() { counter = counter + 1; }\n\
             void f() { bump(); bump(); }",
            32,
        );
        assert_eq!(n, 2);
        assert!(!has_call_to(&tu, "f", "bump"));
    }

    #[test]
    fn chains_through_multiple_levels() {
        let (tu, n) = run(
            "int a(int x) { return x + 1; }\n\
             int b(int x) { return a(x) ; }\n\
             int f(int y) { return b(y); }",
            64,
        );
        // b inlines a; f inlines b (which now contains a's body inline).
        assert!(n >= 2);
        assert!(!has_call_to(&tu, "f", "b"));
        assert!(!has_call_to(&tu, "f", "a"));
    }

    #[test]
    fn renames_locals_apart() {
        let (tu, n) = run(
            "int g(int x) { int t = x * 2; return t; }\n\
             int f(int t) { return g(t) + t; }",
            32,
        );
        // This call site is `return g(t) + t` — not a whole-statement call,
        // so it must NOT be inlined (expression contexts are out of scope).
        assert_eq!(n, 0);
        let _ = tu;
    }

    #[test]
    fn inlines_decl_init_call() {
        let (tu, n) = run(
            "int g(int x) { int t = x * 2; return t; }\n\
             int f(int y) { int r = g(y); return r + 1; }",
            32,
        );
        assert_eq!(n, 1);
        assert!(!has_call_to(&tu, "f", "g"));
    }
}
