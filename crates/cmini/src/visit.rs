//! Read-only visitors over the mini-C AST.
//!
//! These walkers back cross-unit static analysis (`knit-core`'s
//! `analyze` module): identifier references, a direct call graph, and the
//! properties that make the flattening inliner bail — varargs definitions,
//! address-taken functions, self-recursion (see `passes/inline.rs` for the
//! bail conditions these mirror).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Expr, ExprKind, FuncDef, Init, Item, Stmt, Storage, TranslationUnit};

/// Walk every sub-expression of `e` (including `e` itself), preorder.
pub fn visit_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Ident(_)
        | ExprKind::SizeofType(_) => {}
        ExprKind::Bin { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        ExprKind::Un { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Deref(expr)
        | ExprKind::AddrOf(expr)
        | ExprKind::SizeofExpr(expr)
        | ExprKind::IncDec { expr, .. }
        | ExprKind::VarArg(expr) => visit_expr(expr, f),
        ExprKind::Cond { cond, then_e, else_e } => {
            visit_expr(cond, f);
            visit_expr(then_e, f);
            visit_expr(else_e, f);
        }
        ExprKind::Call { callee, args } => {
            visit_expr(callee, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::Index { base, index } => {
            visit_expr(base, f);
            visit_expr(index, f);
        }
        ExprKind::Member { base, .. } => visit_expr(base, f),
    }
}

/// Walk every top-level expression in `s` (and nested statements).
pub fn visit_stmt_exprs(s: &Stmt, f: &mut impl FnMut(&Expr)) {
    match s {
        Stmt::Expr(e) | Stmt::Return(Some(e), _) => f(e),
        Stmt::Decl { init: Some(e), .. } => f(e),
        Stmt::Decl { .. } | Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) => {}
        Stmt::If { cond, then_s, else_s } => {
            f(cond);
            visit_stmt_exprs(then_s, f);
            if let Some(e) = else_s {
                visit_stmt_exprs(e, f);
            }
        }
        Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
            f(cond);
            visit_stmt_exprs(body, f);
        }
        Stmt::For { init, cond, step, body } => {
            if let Some(i) = init {
                visit_stmt_exprs(i, f);
            }
            if let Some(c) = cond {
                f(c);
            }
            if let Some(st) = step {
                f(st);
            }
            visit_stmt_exprs(body, f);
        }
        Stmt::Block(ss) => {
            for s in ss {
                visit_stmt_exprs(s, f);
            }
        }
        Stmt::Empty => {}
    }
}

fn visit_init_exprs(init: &Init, f: &mut impl FnMut(&Expr)) {
    match init {
        Init::Expr(e) => f(e),
        Init::List(items) => {
            for i in items {
                visit_init_exprs(i, f);
            }
        }
    }
}

/// Identifier- and call-level facts about one translation unit, as used by
/// cross-unit lints. All sets are over C identifier names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TuUses {
    /// Every identifier referenced in any function body or global
    /// initializer (including direct-call callees).
    pub referenced: BTreeSet<String>,
    /// Direct call graph: defined function → names it calls directly
    /// (bare-identifier callees only; `__vararg` excluded).
    pub calls: BTreeMap<String, BTreeSet<String>>,
    /// Functions defined in this unit whose name is used outside the
    /// callee position of a direct call (address taken / stored).
    pub address_taken: BTreeSet<String>,
    /// Functions defined (with a body) in this unit.
    pub defined_funcs: BTreeSet<String>,
    /// Defined functions that take varargs.
    pub varargs_funcs: BTreeSet<String>,
    /// Defined functions that call themselves directly.
    pub self_recursive: BTreeSet<String>,
    /// `static` definitions (functions and globals) in this unit.
    pub statics: BTreeSet<String>,
}

/// Insert `n` into `set`, allocating only when it is new.
fn insert_str(set: &mut BTreeSet<String>, n: &str) {
    if !set.contains(n) {
        set.insert(n.to_string());
    }
}

/// One walk over a function body or global initializer: collects
/// identifier references and direct callees, and flags function names used
/// outside a direct-call callee position as address-taken.
struct Scan<'a> {
    funcs: &'a BTreeSet<String>,
    uses: &'a mut TuUses,
    /// Direct callees seen so far (bare-identifier callees, `__vararg`
    /// excluded).
    callees: BTreeSet<String>,
}

impl Scan<'_> {
    fn expr(&mut self, e: &Expr, in_callee: bool) {
        match &e.kind {
            ExprKind::Ident(n) => {
                insert_str(&mut self.uses.referenced, n);
                if !in_callee && self.funcs.contains(n) {
                    insert_str(&mut self.uses.address_taken, n);
                }
            }
            ExprKind::Call { callee, args } => {
                if let Some(n) = direct_callee(e) {
                    insert_str(&mut self.callees, n);
                }
                self.expr(callee, matches!(callee.kind, ExprKind::Ident(_)));
                for a in args {
                    self.expr(a, false);
                }
            }
            ExprKind::Bin { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                self.expr(lhs, false);
                self.expr(rhs, false);
            }
            ExprKind::Un { expr, .. }
            | ExprKind::Cast { expr, .. }
            | ExprKind::Deref(expr)
            | ExprKind::AddrOf(expr)
            | ExprKind::SizeofExpr(expr)
            | ExprKind::IncDec { expr, .. }
            | ExprKind::VarArg(expr) => self.expr(expr, false),
            ExprKind::Cond { cond, then_e, else_e } => {
                self.expr(cond, false);
                self.expr(then_e, false);
                self.expr(else_e, false);
            }
            ExprKind::Index { base, index } => {
                self.expr(base, false);
                self.expr(index, false);
            }
            ExprKind::Member { base, .. } => self.expr(base, false),
            ExprKind::IntLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::SizeofType(_) => {}
        }
    }
}

/// The direct-call callee name of `e`, if it is `name(args...)` and not the
/// `__vararg` builtin.
pub fn direct_callee(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Ident(n) if n != "__vararg" => Some(n),
            _ => None,
        },
        _ => None,
    }
}

/// Compute [`TuUses`] for one translation unit.
pub fn tu_uses(tu: &TranslationUnit) -> TuUses {
    let mut uses = TuUses::default();
    let mut funcs = BTreeSet::new();
    for item in &tu.items {
        match item {
            Item::Func(f) if f.body.is_some() => {
                funcs.insert(f.name.clone());
                if f.varargs {
                    uses.varargs_funcs.insert(f.name.clone());
                }
                if f.storage == Storage::Static {
                    uses.statics.insert(f.name.clone());
                }
            }
            Item::Global(g) if g.storage == Storage::Static => {
                uses.statics.insert(g.name.clone());
            }
            _ => {}
        }
    }
    for item in &tu.items {
        let mut scan = Scan { funcs: &funcs, uses: &mut uses, callees: BTreeSet::new() };
        match item {
            Item::Func(FuncDef { name, body: Some(body), .. }) => {
                for s in body {
                    visit_stmt_exprs(s, &mut |e| scan.expr(e, false));
                }
                let callees = scan.callees;
                if callees.contains(name) {
                    uses.self_recursive.insert(name.clone());
                }
                uses.calls.entry(name.clone()).or_default().extend(callees);
            }
            Item::Global(g) => {
                if let Some(init) = &g.init {
                    visit_init_exprs(init, &mut |e| scan.expr(e, false));
                }
            }
            Item::Func(_) | Item::Struct(_) => {}
        }
    }
    uses.defined_funcs = funcs;
    uses
}

/// Merge `other` into `acc` (for units spanning several files). Call
/// graphs union per function; `statics` keeps names defined in *either*
/// file, and the caller can detect cross-file collisions by intersecting
/// per-file results before merging. Sets are moved, not copied: merging
/// into an empty `acc` (a unit's first file) is a swap per set.
pub fn merge_uses(acc: &mut TuUses, mut other: TuUses) {
    acc.referenced.append(&mut other.referenced);
    if acc.calls.is_empty() {
        acc.calls = other.calls;
    } else {
        for (f, mut callees) in other.calls {
            acc.calls.entry(f).or_default().append(&mut callees);
        }
    }
    acc.address_taken.append(&mut other.address_taken);
    acc.defined_funcs.append(&mut other.defined_funcs);
    acc.varargs_funcs.append(&mut other.varargs_funcs);
    acc.self_recursive.append(&mut other.self_recursive);
    acc.statics.append(&mut other.statics);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend_expanded;

    fn uses(src: &str) -> TuUses {
        let tu = frontend_expanded("t.c", src).unwrap();
        tu_uses(&tu)
    }

    #[test]
    fn collects_references_and_call_graph() {
        let u = uses(
            "int helper(int x) { return x + 1; }\n\
             int imported(int x);\n\
             int top(int y) { return helper(imported(y)); }\n",
        );
        assert!(u.referenced.contains("helper"));
        assert!(u.referenced.contains("imported"));
        assert_eq!(u.calls["top"], ["helper", "imported"].iter().map(|s| s.to_string()).collect());
        assert!(u.defined_funcs.contains("top"));
        assert!(!u.defined_funcs.contains("imported"));
    }

    #[test]
    fn detects_inliner_hazards() {
        let u = uses(
            "int chatter(int n, ...) { return n; }\n\
             int add(int a, int b) { return a + b; }\n\
             int (*handler)(int, int) = &add;\n\
             int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }\n\
             static int counter;\n\
             static int bump() { counter += 1; return counter; }\n",
        );
        assert!(u.varargs_funcs.contains("chatter"));
        assert!(u.address_taken.contains("add"));
        assert!(u.self_recursive.contains("fact"));
        assert!(u.statics.contains("counter"));
        assert!(u.statics.contains("bump"));
        // a plain direct call is NOT address-taken
        assert!(!u.address_taken.contains("fact"));
    }

    #[test]
    fn global_initializers_count_as_references() {
        let u = uses("int imported_table;\nint *p = &imported_table;\n");
        assert!(u.referenced.contains("imported_table"));
    }
}
