//! Interprocedural lockset race analysis (Eraser/RacerX-style) over
//! parse-only cmini ASTs plus the elaborated instance graph.
//!
//! The analysis is two-phase, mirroring the per-unit memoization the rest
//! of the analyzer uses (PAPERS.md, "Local Reasoning about Parametric
//! Component-based Systems": analyze each unit once, instantiate the
//! verdict per instance):
//!
//! 1. **Per-unit summary** ([`RaceSummary`], computed inside
//!    `summarize_unit` and therefore memoized with the rest of
//!    [`super::UnitSummary`]): recognized spin-lock statics, and per
//!    function an ordered *lock skeleton* ([`LockOp`]) — acquires,
//!    releases, static accesses, calls, branches, and loops, with all
//!    other computation erased. A static `int L` is a lock iff the unit
//!    both spins on it (`while (L) ...` with a bare-identifier condition)
//!    and assigns it a nonzero constant (`L = 1`), the idiom of
//!    `sync_spin.c` and the Clack `SharedQueue`.
//!
//! 2. **Per-elaboration evaluation** ([`shared_races`]): each root
//!    export port of the composition is one concurrently-drivable entry
//!    closure (the multi-core harness drives `router0..routerN` round-
//!    robin). Statics of an instance reachable from ≥ 2 entries are
//!    *shared*; for those, locksets are propagated through the cross-
//!    instance call graph (imports resolved through the elaboration's
//!    wires, meet = set intersection over call sites) and every access is
//!    checked against the must-held set at that point.
//!
//! Verdicts:
//!
//! * **K1006 `unguarded-shared-write`** — a shared static is written on a
//!   path where the computed lockset is empty.
//! * **K1007 `inconsistent-lock`** — writes to the same shared static are
//!   guarded by disjoint (nonempty) locksets on different paths.
//! * **K1008 `lock-leak`** — a function can reach a `return` while still
//!   net-holding a lock it acquired locally (may-hold semantics; purely
//!   per-unit, so it also fires in single-core compositions). Lock
//!   *provider* units (`SpinLock`) leak by design and carry
//!   `#[allow(lock_leak)]`.
//! * **K1009 `atomicity-hint`** — every access to a shared static is
//!   lock-free and every write is a read-modify-write (`contended++`):
//!   racing increments lose updates but corrupt nothing else, so this is
//!   a softer verdict than K1006.
//!
//! Reads with an empty lockset do *not* report on their own (a stats
//! read like `count_value()` returning a monotonic counter is a staleness
//! hazard, not a corruption hazard); the dynamic oracle in
//! `machine::mesi` is stricter there, so the differential fuzz suite only
//! drives entry points whose read-only stats are not sampled.
//!
//! Known static blind spots, covered dynamically by the MESI-bus oracle:
//! writes through escaped pointers (the escape itself is recorded as a
//! write at the point the address leaves the static), function pointers,
//! and accesses in code only reachable from initializers.

use std::collections::{BTreeMap, BTreeSet};

use cmini::ast::{Expr, ExprKind, Item, Stmt, TranslationUnit, Type};

use crate::diag::Diagnostic;
use crate::driver::c_id;
use crate::elaborate::Wire;

use super::{emit, LintCx, UnitEntry};

/// One step of a function's lock-relevant skeleton, in evaluation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LockOp {
    /// `L = <nonzero>` on a recognized lock static.
    Acquire(String),
    /// `L = 0` on a recognized lock static.
    Release(String),
    /// A read, write, or read-modify-write of a unit static (never a
    /// lock). Address escapes are conservatively recorded as writes.
    Access { name: String, write: bool, rmw: bool },
    /// A direct call by name (local function or import C symbol).
    Call(String),
    /// Two-way branch (`if`/`else`, `?:`); either side runs.
    Branch(Vec<LockOp>, Vec<LockOp>),
    /// A loop body (plus its condition re-evaluation); runs zero or more
    /// times.
    Loop(Vec<LockOp>),
    /// A `return` site (the end of a body is an implicit one).
    Return,
}

/// The race-relevant facts of one unit, merged across its files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RaceSummary {
    /// Statics recognized as spin locks by the `while (L) ...; L = 1`
    /// idiom.
    pub(crate) locks: BTreeSet<String>,
    /// Lock skeleton per defined function (including file-local ones).
    pub(crate) funcs: BTreeMap<String, Vec<LockOp>>,
    /// Unit statics (excluding locks) with their array depth; depth 0 is
    /// a scalar.
    pub(crate) statics: BTreeMap<String, u32>,
}

fn array_depth(ty: &Type) -> u32 {
    match ty {
        Type::Array(inner, _) => 1 + array_depth(inner),
        _ => 0,
    }
}

/// Build the [`RaceSummary`] for one unit from its parsed files.
pub(crate) fn race_summary(tus: &[TranslationUnit]) -> RaceSummary {
    // Pass 1: statics, spin conditions, and nonzero constant assignments.
    //
    // Non-`extern` file-scope globals count as statics here whether or
    // not they carry the `static` keyword: the driver mangles every
    // defined-but-not-exported global instance-private (bundles wire
    // functions, not data), so a plain `int lock;` has the same sharing
    // structure as `static int lock;` — it is just also link-visible,
    // which is what lets the dynamic oracle locate lock words by name.
    let mut statics: BTreeMap<String, u32> = BTreeMap::new();
    for tu in tus {
        for item in &tu.items {
            if let Item::Global(g) = item {
                if g.storage != cmini::ast::Storage::Extern {
                    statics.insert(g.name.clone(), array_depth(&g.ty));
                }
            }
        }
    }
    let mut spin_conds: BTreeSet<String> = BTreeSet::new();
    let mut const_assigned: BTreeSet<String> = BTreeSet::new();
    // only a scalar static can be a lock: with none, skip the idiom scan
    if statics.values().any(|d| *d == 0) {
        for f in tus.iter().flat_map(|tu| tu.funcs()) {
            for s in f.body.iter().flatten() {
                scan_idiom(s, &mut spin_conds, &mut const_assigned);
            }
        }
    }
    let locks: BTreeSet<String> = statics
        .iter()
        .filter(|(n, d)| **d == 0 && spin_conds.contains(*n) && const_assigned.contains(*n))
        .map(|(n, _)| n.clone())
        .collect();
    for l in &locks {
        statics.remove(l);
    }

    // Pass 2: per-function skeletons.
    let ctx = SkelCtx { locks: &locks, statics: &statics };
    let mut funcs = BTreeMap::new();
    for tu in tus {
        for f in tu.funcs() {
            if let Some(body) = &f.body {
                let mut ops = Vec::new();
                for s in body {
                    ctx.stmt(&mut ops, s);
                }
                ops.push(LockOp::Return); // implicit end-of-body return
                funcs.insert(f.name.clone(), ops);
            }
        }
    }
    RaceSummary { locks, funcs, statics }
}

/// Collect the lock-idiom ingredients: bare-identifier loop conditions and
/// names assigned an integer constant. Zero constants count too, so a
/// spinlock whose acquire was (erroneously) deleted is still recognized
/// as a lock — the missing acquire then surfaces as K1006, not as a pile
/// of bogus findings on the lock word itself.
fn scan_idiom(s: &Stmt, conds: &mut BTreeSet<String>, nz: &mut BTreeSet<String>) {
    let mut note_cond = |e: &Expr| {
        if let ExprKind::Ident(n) = &e.kind {
            conds.insert(n.clone());
        }
    };
    match s {
        Stmt::While { cond, body } => {
            note_cond(cond);
            scan_idiom(body, conds, nz);
        }
        Stmt::DoWhile { body, cond } => {
            note_cond(cond);
            scan_idiom(body, conds, nz);
        }
        Stmt::For { init, cond, body, .. } => {
            if let Some(c) = cond {
                note_cond(c);
            }
            if let Some(i) = init {
                scan_idiom(i, conds, nz);
            }
            scan_idiom(body, conds, nz);
        }
        Stmt::If { then_s, else_s, .. } => {
            scan_idiom(then_s, conds, nz);
            if let Some(e) = else_s {
                scan_idiom(e, conds, nz);
            }
        }
        Stmt::Block(list) => {
            for s in list {
                scan_idiom(s, conds, nz);
            }
        }
        _ => {}
    }
    cmini::visit::visit_stmt_exprs(s, &mut |e: &Expr| {
        if let ExprKind::Assign { op: None, lhs, rhs } = &e.kind {
            if let (ExprKind::Ident(n), ExprKind::IntLit(_)) = (&lhs.kind, &rhs.kind) {
                nz.insert(n.clone());
            }
        }
    });
}

struct SkelCtx<'a> {
    locks: &'a BTreeSet<String>,
    statics: &'a BTreeMap<String, u32>,
}

/// `e` as an index chain over a static array: `(name, depth, indices)`.
fn index_chain(e: &Expr) -> Option<(&str, u32, Vec<&Expr>)> {
    match &e.kind {
        ExprKind::Ident(n) => Some((n, 0, Vec::new())),
        ExprKind::Index { base, index } => {
            let (n, d, mut idx) = index_chain(base)?;
            idx.push(index);
            Some((n, d + 1, idx))
        }
        _ => None,
    }
}

impl SkelCtx<'_> {
    fn is_lock(&self, n: &str) -> bool {
        self.locks.contains(n)
    }

    /// Emit ops for an lvalue position (`lhs` of an assignment or the
    /// operand of `++`/`--`); `rmw` marks compound assignments.
    fn lvalue(&self, out: &mut Vec<LockOp>, e: &Expr, rmw: bool) {
        if let Some((n, depth, indices)) = index_chain(e) {
            for i in &indices {
                self.expr(out, i);
            }
            if self.is_lock(n) {
                // Handled by the caller (Acquire/Release); a compound
                // update of a lock is treated as an acquire there.
                return;
            }
            if let Some(&adepth) = self.statics.get(n) {
                // Full-depth chains hit one element; partial-depth chains
                // (or a bare array name) produce a pointer — a write-side
                // escape.
                let full = depth == adepth;
                out.push(LockOp::Access { name: n.to_string(), write: true, rmw: rmw && full });
            }
            return;
        }
        match &e.kind {
            ExprKind::Deref(inner) => self.expr(out, inner),
            ExprKind::Member { base, .. } => self.lvalue(out, base, false),
            _ => self.expr(out, e),
        }
    }

    fn expr(&self, out: &mut Vec<LockOp>, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::SizeofType(_)
            | ExprKind::SizeofExpr(_) => {}
            ExprKind::Ident(n) => {
                if self.is_lock(n) {
                    return; // spinning on the lock word is not an access
                }
                if let Some(&depth) = self.statics.get(n) {
                    if depth == 0 {
                        out.push(LockOp::Access { name: n.clone(), write: false, rmw: false });
                    } else {
                        // A bare array name decays to a pointer: escape.
                        out.push(LockOp::Access { name: n.clone(), write: true, rmw: false });
                    }
                }
            }
            ExprKind::Bin { lhs, rhs, .. } => {
                self.expr(out, lhs);
                self.expr(out, rhs);
            }
            ExprKind::Un { expr, .. } | ExprKind::Cast { expr, .. } | ExprKind::VarArg(expr) => {
                self.expr(out, expr)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.expr(out, rhs);
                if let ExprKind::Ident(n) = &lhs.kind {
                    if self.is_lock(n) {
                        match (&op, &rhs.kind) {
                            (None, ExprKind::IntLit(0)) => out.push(LockOp::Release(n.clone())),
                            // Any other store to a lock word (nonzero
                            // constant, computed value, compound update)
                            // conservatively counts as an acquire.
                            _ => out.push(LockOp::Acquire(n.clone())),
                        }
                        return;
                    }
                }
                if op.is_some() {
                    // Compound assignment reads the old value too.
                    self.lvalue(out, lhs, true);
                } else {
                    self.lvalue(out, lhs, false);
                }
            }
            ExprKind::Cond { cond, then_e, else_e } => {
                self.expr(out, cond);
                let mut a = Vec::new();
                let mut b = Vec::new();
                self.expr(&mut a, then_e);
                self.expr(&mut b, else_e);
                out.push(LockOp::Branch(a, b));
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.expr(out, a);
                }
                if let ExprKind::Ident(n) = &callee.kind {
                    out.push(LockOp::Call(n.clone()));
                } else {
                    self.expr(out, callee);
                }
            }
            ExprKind::Index { .. } => {
                if let Some((n, depth, indices)) = index_chain(e) {
                    for i in &indices {
                        self.expr(out, i);
                    }
                    if self.is_lock(n) {
                        return;
                    }
                    if let Some(&adepth) = self.statics.get(n) {
                        // Partial-depth in value position yields a
                        // pointer into the array: a write-side escape.
                        let write = depth < adepth;
                        out.push(LockOp::Access { name: n.to_string(), write, rmw: false });
                    }
                } else if let ExprKind::Index { base, index } = &e.kind {
                    self.expr(out, base);
                    self.expr(out, index);
                }
            }
            ExprKind::Member { base, .. } => self.expr(out, base),
            ExprKind::Deref(inner) => self.expr(out, inner),
            ExprKind::AddrOf(inner) => {
                if let Some((n, _, indices)) = index_chain(inner) {
                    for i in &indices {
                        self.expr(out, i);
                    }
                    if !self.is_lock(n) && self.statics.contains_key(n) {
                        out.push(LockOp::Access { name: n.to_string(), write: true, rmw: false });
                    }
                } else {
                    self.expr(out, inner);
                }
            }
            ExprKind::IncDec { expr, .. } => {
                if let Some((n, _, _)) = index_chain(expr) {
                    if self.is_lock(n) {
                        out.push(LockOp::Acquire(n.to_string()));
                        return;
                    }
                }
                self.lvalue(out, expr, true);
            }
        }
    }

    fn stmt(&self, out: &mut Vec<LockOp>, s: &Stmt) {
        match s {
            Stmt::Expr(e) => self.expr(out, e),
            Stmt::Decl { init, .. } => {
                if let Some(e) = init {
                    self.expr(out, e);
                }
            }
            Stmt::If { cond, then_s, else_s } => {
                self.expr(out, cond);
                let mut a = Vec::new();
                self.stmt(&mut a, then_s);
                let mut b = Vec::new();
                if let Some(e) = else_s {
                    self.stmt(&mut b, e);
                }
                out.push(LockOp::Branch(a, b));
            }
            Stmt::While { cond, body } => {
                self.expr(out, cond);
                let mut inner = Vec::new();
                self.stmt(&mut inner, body);
                self.expr(&mut inner, cond);
                out.push(LockOp::Loop(inner));
            }
            Stmt::DoWhile { body, cond } => {
                // Runs at least once: body + cond, then the loop.
                let mut inner = Vec::new();
                self.stmt(&mut inner, body);
                self.expr(&mut inner, cond);
                out.extend(inner.iter().cloned());
                out.push(LockOp::Loop(inner));
            }
            Stmt::For { init, cond, step, body } => {
                if let Some(i) = init {
                    self.stmt(out, i);
                }
                if let Some(c) = cond {
                    self.expr(out, c);
                }
                let mut inner = Vec::new();
                self.stmt(&mut inner, body);
                if let Some(st) = step {
                    self.expr(&mut inner, st);
                }
                if let Some(c) = cond {
                    self.expr(&mut inner, c);
                }
                out.push(LockOp::Loop(inner));
            }
            Stmt::Return(e, _) => {
                if let Some(e) = e {
                    self.expr(out, e);
                }
                out.push(LockOp::Return);
            }
            // `break`/`continue` are approximated as straight-line flow;
            // the lockset meet over both loop outcomes stays sound for
            // the corpus idioms (no lock is acquired inside a loop).
            Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty => {}
            Stmt::Block(list) => {
                for s in list {
                    self.stmt(out, s);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Local (per-unit) evaluation: K1008 lock-leak.
// ---------------------------------------------------------------------

/// May-hold evaluation of `ops` for leak detection: `cur` is the set of
/// locally-held locks, `leaks` collects `(lock, at-return)` violations.
/// Intra-unit calls apply the callee's net effect (`xfer`).
fn eval_leak(
    ops: &[LockOp],
    cur: &mut BTreeSet<String>,
    xfer: &BTreeMap<String, (BTreeSet<String>, BTreeSet<String>)>,
    leaks: &mut BTreeSet<String>,
) {
    for op in ops {
        match op {
            LockOp::Acquire(l) => {
                cur.insert(l.clone());
            }
            LockOp::Release(l) => {
                cur.remove(l);
            }
            LockOp::Access { .. } => {}
            LockOp::Call(g) => {
                if let Some((acq, rel)) = xfer.get(g) {
                    for l in rel {
                        cur.remove(l);
                    }
                    cur.extend(acq.iter().cloned());
                }
            }
            LockOp::Branch(a, b) => {
                let mut ca = cur.clone();
                eval_leak(a, &mut ca, xfer, leaks);
                let mut cb = cur.clone();
                eval_leak(b, &mut cb, xfer, leaks);
                // May-hold: union of the two arms.
                *cur = ca.union(&cb).cloned().collect();
            }
            LockOp::Loop(body) => {
                let mut cb = cur.clone();
                eval_leak(body, &mut cb, xfer, leaks);
                *cur = cur.union(&cb).cloned().collect();
            }
            LockOp::Return => {
                leaks.extend(cur.iter().cloned());
            }
        }
    }
}

/// Per-function net lock effect `(acquires, releases)` under may-hold
/// semantics, iterated to a fixpoint over intra-unit calls.
fn local_transfers(race: &RaceSummary) -> BTreeMap<String, (BTreeSet<String>, BTreeSet<String>)> {
    let mut xfer: BTreeMap<String, (BTreeSet<String>, BTreeSet<String>)> =
        race.funcs.keys().map(|f| (f.clone(), (BTreeSet::new(), BTreeSet::new()))).collect();
    for _ in 0..8 {
        let mut changed = false;
        for (f, ops) in &race.funcs {
            let mut cur = BTreeSet::new();
            let mut sink = BTreeSet::new();
            eval_leak(ops, &mut cur, &xfer, &mut sink);
            let mut rel: BTreeSet<String> = race.locks.clone();
            rel.retain(|l| releases(ops, l, &xfer));
            let next = (cur, rel);
            if xfer[f] != next {
                xfer.insert(f.clone(), next);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    xfer
}

/// Whether `ops` contains a (possibly transitive) release of `l`.
fn releases(
    ops: &[LockOp],
    l: &str,
    xfer: &BTreeMap<String, (BTreeSet<String>, BTreeSet<String>)>,
) -> bool {
    ops.iter().any(|op| match op {
        LockOp::Release(x) => x == l,
        LockOp::Call(g) => xfer.get(g).is_some_and(|(_, rel)| rel.contains(l)),
        LockOp::Branch(a, b) => releases(a, l, xfer) || releases(b, l, xfer),
        LockOp::Loop(b) => releases(b, l, xfer),
        _ => false,
    })
}

/// K1008 findings for one unit: `(function, lock)` pairs where some path
/// reaches a return still holding the lock.
pub(crate) fn local_leaks(race: &RaceSummary) -> Vec<(String, String)> {
    if race.locks.is_empty() {
        return Vec::new();
    }
    let xfer = local_transfers(race);
    let mut found = Vec::new();
    for (f, ops) in &race.funcs {
        let mut cur = BTreeSet::new();
        let mut leaks = BTreeSet::new();
        eval_leak(ops, &mut cur, &xfer, &mut leaks);
        for l in leaks {
            found.push((f.clone(), l));
        }
    }
    found
}

// ---------------------------------------------------------------------
// Global (per-elaboration) evaluation: K1006 / K1007 / K1009.
// ---------------------------------------------------------------------

/// A lock instance: `(owning instance id, static name)`.
type LockId = (usize, String);
/// A function instance: `(instance id, function name)`.
type Node = (usize, String);

/// One recorded access to a shared static during the converged pass.
#[derive(Debug, Clone)]
struct Fact {
    write: bool,
    rmw: bool,
    /// The must-held lockset at the access; `None` encodes "unknown" (an
    /// unreachable context) and never occurs in recorded facts.
    lockset: BTreeSet<LockId>,
    func: String,
}

/// Call resolution and skeleton lookup for the instance graph.
struct Graph<'a> {
    cx: &'a LintCx<'a>,
    /// Per instance: import C symbol -> (provider instance, callee name).
    import_map: Vec<BTreeMap<String, Node>>,
}

impl<'a> Graph<'a> {
    fn new(cx: &'a LintCx<'a>) -> Graph<'a> {
        let mut import_map = Vec::with_capacity(cx.el.instances.len());
        for inst in &cx.el.instances {
            let u = cx.unit(inst.id);
            let mut map = BTreeMap::new();
            for p in &u.decl.imports {
                let Some(Wire::Export { instance: prov, port }) = inst.imports.get(p.name.as_str())
                else {
                    continue;
                };
                let prov_body = cx.unit(*prov).body;
                for m in cx.members_of(&p.bundle_type) {
                    let cid = c_id(u.body, &p.name, m);
                    map.insert(cid.to_string(), (*prov, c_id(prov_body, port, m).to_string()));
                }
            }
            import_map.push(map);
        }
        Graph { cx, import_map }
    }

    fn race_of(&self, inst: usize) -> &'a RaceSummary {
        &self.cx.unit(inst).summary.race
    }

    /// Resolve a `Call(name)` in `inst` to a node, if it lands on a
    /// function we have a skeleton for.
    fn resolve(&self, inst: usize, name: &str) -> Option<Node> {
        if self.race_of(inst).funcs.contains_key(name) {
            return Some((inst, name.to_string()));
        }
        let (prov, callee) = self.import_map[inst].get(name)?;
        self.race_of(*prov).funcs.contains_key(callee).then(|| (*prov, callee.clone()))
    }

    /// The entry nodes of each root export port: `port -> functions`.
    fn entries(&self) -> BTreeMap<String, Vec<Node>> {
        let mut out: BTreeMap<String, Vec<Node>> = BTreeMap::new();
        for (root_port, (inst, port)) in &self.cx.el.root_exports {
            let u = self.cx.unit(*inst);
            let mut nodes = Vec::new();
            for p in u.decl.exports.iter().filter(|p| &p.name == port) {
                for m in self.cx.members_of(&p.bundle_type) {
                    let f = c_id(u.body, port, m);
                    if self.race_of(*inst).funcs.contains_key(f) {
                        nodes.push((*inst, f.to_string()));
                    }
                }
            }
            out.insert(root_port.to_string(), nodes);
        }
        out
    }
}

/// Direct call names in a skeleton.
fn calls_in(ops: &[LockOp], out: &mut BTreeSet<String>) {
    for op in ops {
        match op {
            LockOp::Call(g) => {
                out.insert(g.clone());
            }
            LockOp::Branch(a, b) => {
                calls_in(a, out);
                calls_in(b, out);
            }
            LockOp::Loop(b) => calls_in(b, out),
            _ => {}
        }
    }
}

/// Static accesses in a skeleton (context-free, for shared
/// classification).
fn accesses_in(ops: &[LockOp], out: &mut BTreeSet<String>) {
    for op in ops {
        match op {
            LockOp::Access { name, .. } => {
                out.insert(name.clone());
            }
            LockOp::Branch(a, b) => {
                accesses_in(a, out);
                accesses_in(b, out);
            }
            LockOp::Loop(b) => accesses_in(b, out),
            _ => {}
        }
    }
}

/// `a ∩ b` where `None` is ⊤ (unknown, identity of the meet).
fn meet(a: Option<&BTreeSet<LockId>>, b: &BTreeSet<LockId>) -> BTreeSet<LockId> {
    match a {
        None => b.clone(),
        Some(a) => a.intersection(b).cloned().collect(),
    }
}

/// The fixpoint engine: per-node input locksets under meet-over-call-
/// sites, with a final fact-recording pass after convergence.
struct Eval<'a> {
    graph: &'a Graph<'a>,
    /// `None` = not yet reached.
    lockset_in: BTreeMap<Node, Option<BTreeSet<LockId>>>,
    worklist: Vec<Node>,
    facts: BTreeMap<(usize, String), Vec<Fact>>,
    recording: bool,
    /// Converged net `(acquire, release)` transformer per node.
    transformers: BTreeMap<Node, (BTreeSet<LockId>, BTreeSet<LockId>)>,
}

impl Eval<'_> {
    /// Evaluate `ops` in instance `inst` from lockset `cur`; propagates
    /// into callees and returns the exit lockset.
    fn eval(
        &mut self,
        inst: usize,
        func: &str,
        ops: &[LockOp],
        cur: BTreeSet<LockId>,
    ) -> BTreeSet<LockId> {
        let mut cur = cur;
        for op in ops {
            match op {
                LockOp::Acquire(l) => {
                    cur.insert((inst, l.clone()));
                }
                LockOp::Release(l) => {
                    cur.remove(&(inst, l.clone()));
                }
                LockOp::Access { name, write, rmw } => {
                    if self.recording {
                        self.facts.entry((inst, name.clone())).or_default().push(Fact {
                            write: *write,
                            rmw: *rmw,
                            lockset: cur.clone(),
                            func: func.to_string(),
                        });
                    }
                }
                LockOp::Call(g) => {
                    if let Some(node) = self.graph.resolve(inst, g) {
                        let new_in =
                            meet(self.lockset_in.get(&node).and_then(|s| s.as_ref()), &cur);
                        let prev = self.lockset_in.get(&node).cloned().flatten();
                        if prev.as_ref() != Some(&new_in) {
                            self.lockset_in.insert(node.clone(), Some(new_in));
                            if !self.recording {
                                self.worklist.push(node.clone());
                            }
                        }
                        // Apply the callee's net effect to the caller's
                        // set: recurse non-recursively via the callee's
                        // cached transformer below.
                        cur = self.apply_callee(&node, cur);
                    }
                }
                LockOp::Branch(a, b) => {
                    let ea = self.eval(inst, func, a, cur.clone());
                    let eb = self.eval(inst, func, b, cur.clone());
                    cur = ea.intersection(&eb).cloned().collect();
                }
                LockOp::Loop(body) => {
                    // Iterate to the must-hold fixpoint of the loop entry.
                    loop {
                        let exit = self.eval(inst, func, body, cur.clone());
                        let next: BTreeSet<LockId> = cur.intersection(&exit).cloned().collect();
                        if next == cur {
                            break;
                        }
                        cur = next;
                    }
                }
                LockOp::Return => {}
            }
        }
        cur
    }

    /// Apply callee `node`'s net lock effect to `cur` using its cached
    /// transformer.
    fn apply_callee(&self, node: &Node, cur: BTreeSet<LockId>) -> BTreeSet<LockId> {
        let Some(t) = self.transformers.get(node) else { return cur };
        let mut out: BTreeSet<LockId> = cur.difference(&t.1).cloned().collect();
        out.extend(t.0.iter().cloned());
        out
    }
}

/// K1008 lock-leak for one unit: purely per-unit, so it fires in any
/// composition.
pub(super) fn lock_leaks(cx: &LintCx<'_>, u: &UnitEntry<'_>, diags: &mut Vec<Diagnostic>) {
    let unit_name = &u.decl.name;
    for (func, lock) in local_leaks(&u.summary.race) {
        emit(
            diags,
            cx.config,
            "K1008",
            u.decl,
            u.span(),
            format!(
                "unit `{unit_name}`: function `{func}` can return while still holding \
                 lock `{lock}`"
            ),
            vec![format!(
                "release it (`{lock} = 0`) on every path to return, or \
                 `#[allow(lock_leak)]` the unit if it is a lock provider"
            )],
        );
    }
}

/// K1006/K1007/K1009 for this elaboration. They need ≥ 2 concurrently
/// drivable entries.
pub(super) fn shared_races(cx: &LintCx<'_>, diags: &mut Vec<Diagnostic>) {
    let el = cx.el;
    if el.root_exports.len() < 2 {
        return;
    }
    let graph = Graph::new(cx);
    let entries = graph.entries();

    // Reachability: which entries reach each node.
    let mut reached_by: BTreeMap<Node, BTreeSet<&str>> = BTreeMap::new();
    for (entry_name, nodes) in &entries {
        let mut stack: Vec<Node> = nodes.clone();
        while let Some(node) = stack.pop() {
            let set = reached_by.entry(node.clone()).or_default();
            if !set.insert(entry_name.as_str()) {
                continue;
            }
            let Some(ops) = graph.race_of(node.0).funcs.get(&node.1) else { continue };
            let mut callees = BTreeSet::new();
            calls_in(ops, &mut callees);
            for g in callees {
                if let Some(next) = graph.resolve(node.0, &g) {
                    stack.push(next);
                }
            }
        }
    }

    // Shared statics: (instance, static) accessed from ≥ 2 entries.
    let mut static_entries: BTreeMap<(usize, String), BTreeSet<&str>> = BTreeMap::new();
    for (node, ents) in &reached_by {
        let Some(ops) = graph.race_of(node.0).funcs.get(&node.1) else { continue };
        let mut names = BTreeSet::new();
        accesses_in(ops, &mut names);
        for n in names {
            static_entries.entry((node.0, n)).or_default().extend(ents.iter().copied());
        }
    }
    let shared: BTreeSet<(usize, String)> =
        static_entries.iter().filter(|(_, ents)| ents.len() >= 2).map(|(k, _)| k.clone()).collect();
    if shared.is_empty() {
        return;
    }

    // Interprocedural transformers: net (acquire, release) per node,
    // iterated to a fixpoint over the resolved call graph.
    let mut transformers: BTreeMap<Node, (BTreeSet<LockId>, BTreeSet<LockId>)> = BTreeMap::new();
    for node in reached_by.keys() {
        transformers.insert(node.clone(), (BTreeSet::new(), BTreeSet::new()));
    }
    for _ in 0..12 {
        let mut changed = false;
        for node in reached_by.keys() {
            let Some(ops) = graph.race_of(node.0).funcs.get(&node.1) else { continue };
            let next = xfer_of(ops, node.0, &graph, &transformers);
            if transformers.get(node) != Some(&next) {
                transformers.insert(node.clone(), next);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Lockset fixpoint from the entries, then one recording pass.
    let mut eval = Eval {
        graph: &graph,
        lockset_in: BTreeMap::new(),
        worklist: Vec::new(),
        facts: BTreeMap::new(),
        recording: false,
        transformers,
    };
    for nodes in entries.values() {
        for n in nodes {
            eval.lockset_in.insert(n.clone(), Some(BTreeSet::new()));
            eval.worklist.push(n.clone());
        }
    }
    let mut budget = 0usize;
    while let Some(node) = eval.worklist.pop() {
        budget += 1;
        if budget > 100_000 {
            break; // divergence backstop; meets only shrink, so unreachable
        }
        let Some(ops) = graph.race_of(node.0).funcs.get(&node.1) else { continue };
        let Some(Some(cur)) = eval.lockset_in.get(&node).cloned() else { continue };
        eval.eval(node.0, &node.1, ops, cur);
    }
    eval.recording = true;
    let nodes: Vec<Node> = eval.lockset_in.keys().cloned().collect();
    for node in nodes {
        let Some(ops) = graph.race_of(node.0).funcs.get(&node.1) else { continue };
        let Some(Some(cur)) = eval.lockset_in.get(&node).cloned() else { continue };
        eval.eval(node.0, &node.1, ops, cur);
    }

    // Verdicts, one diagnostic per (unit, static).
    #[derive(Default)]
    struct Verdict {
        k1006: Option<Fact>,
        k1007: Option<(Fact, Vec<BTreeSet<LockId>>)>,
        k1009: Option<Fact>,
        insts: BTreeSet<usize>,
        entries: BTreeSet<String>,
    }
    // keyed by unit index: unit-name order, like the units table
    let mut verdicts: BTreeMap<(usize, String), Verdict> = BTreeMap::new();
    for key in &shared {
        let Some(facts) = eval.facts.get(key) else { continue };
        let v = verdicts.entry((cx.unit_index(key.0), key.1.clone())).or_default();
        v.insts.insert(key.0);
        if let Some(ents) = static_entries.get(key) {
            v.entries.extend(ents.iter().map(|e| e.to_string()));
        }
        let unguarded: Vec<&Fact> =
            facts.iter().filter(|f| f.write && f.lockset.is_empty()).collect();
        if !unguarded.is_empty() {
            let all_unlocked = facts.iter().all(|f| f.lockset.is_empty());
            let all_rmw = unguarded.iter().all(|f| f.rmw);
            if all_unlocked && all_rmw {
                v.k1009.get_or_insert_with(|| (*unguarded[0]).clone());
            } else {
                let pick = unguarded.iter().find(|f| !f.rmw).unwrap_or(&unguarded[0]);
                v.k1006.get_or_insert_with(|| (**pick).clone());
            }
        } else {
            let writes: Vec<&Fact> = facts.iter().filter(|f| f.write).collect();
            if !writes.is_empty() {
                let mut inter: Option<BTreeSet<LockId>> = None;
                for f in &writes {
                    inter = Some(meet(inter.as_ref(), &f.lockset));
                }
                if inter.as_ref().is_some_and(|i| i.is_empty()) {
                    let mut sets: Vec<BTreeSet<LockId>> =
                        writes.iter().map(|f| f.lockset.clone()).collect();
                    sets.sort();
                    sets.dedup();
                    v.k1007.get_or_insert_with(|| (writes[0].clone(), sets));
                }
            }
        }
    }

    let lock_name = |l: &LockId| format!("{}.{}", el.instances[l.0].path, l.1);
    for ((ui, sname), v) in &verdicts {
        let u = &cx.units[*ui];
        let (unit_name, unit, span) = (&u.decl.name, u.decl, u.span());
        let inst_note = || {
            format!(
                "instances {{ {} }}, reachable from root exports {{ {} }}",
                v.insts
                    .iter()
                    .map(|i| el.instances[*i].path.clone())
                    .collect::<Vec<_>>()
                    .join(", "),
                v.entries.iter().cloned().collect::<Vec<_>>().join(", ")
            )
        };
        if let Some(f) = &v.k1006 {
            emit(
                diags,
                cx.config,
                "K1006",
                unit,
                span.clone(),
                format!(
                    "unit `{unit_name}`: shared static `{sname}` is written with no lock \
                     held in `{}`",
                    f.func
                ),
                vec![
                    inst_note(),
                    format!(
                        "guard every access with one spin lock \
                         (`while (L) {{ }} L = 1; ... L = 0;`)"
                    ),
                ],
            );
        } else if let Some((f, sets)) = &v.k1007 {
            let shown: Vec<String> = sets
                .iter()
                .map(|s| {
                    let names: Vec<String> = s.iter().map(&lock_name).collect();
                    format!("{{ {} }}", names.join(", "))
                })
                .collect();
            emit(
                diags,
                cx.config,
                "K1007",
                unit,
                span.clone(),
                format!(
                    "unit `{unit_name}`: shared static `{sname}` is guarded by different \
                     locks on different paths (first write in `{}`)",
                    f.func
                ),
                vec![inst_note(), format!("observed write locksets: {}", shown.join(" vs "))],
            );
        } else if let Some(f) = &v.k1009 {
            emit(
                diags,
                cx.config,
                "K1009",
                unit,
                span.clone(),
                format!(
                    "unit `{unit_name}`: read-modify-write of shared static `{sname}` \
                     outside any lock region in `{}`",
                    f.func
                ),
                vec![
                    inst_note(),
                    format!(
                        "racing `{sname}++` loses updates; guard it, or \
                         `#[allow(atomicity_hint)]` if approximate counts are acceptable"
                    ),
                ],
            );
        }
    }
}

/// The net `(acquire, release)` transformer of one skeleton given the
/// current estimates for its callees.
fn xfer_of(
    ops: &[LockOp],
    inst: usize,
    graph: &Graph<'_>,
    transformers: &BTreeMap<Node, (BTreeSet<LockId>, BTreeSet<LockId>)>,
) -> (BTreeSet<LockId>, BTreeSet<LockId>) {
    let mut acq: BTreeSet<LockId> = BTreeSet::new();
    let mut rel: BTreeSet<LockId> = BTreeSet::new();
    seq_xfer(ops, inst, graph, transformers, &mut acq, &mut rel);
    (acq, rel)
}

/// Sequentially compose `ops` into the running `(acq, rel)` transformer:
/// `T(S) = (S \ rel) ∪ acq`, must-acquire / may-release.
fn seq_xfer(
    ops: &[LockOp],
    inst: usize,
    graph: &Graph<'_>,
    transformers: &BTreeMap<Node, (BTreeSet<LockId>, BTreeSet<LockId>)>,
    acq: &mut BTreeSet<LockId>,
    rel: &mut BTreeSet<LockId>,
) {
    for op in ops {
        match op {
            LockOp::Acquire(l) => {
                let id = (inst, l.clone());
                acq.insert(id.clone());
                rel.remove(&id);
            }
            LockOp::Release(l) => {
                let id = (inst, l.clone());
                rel.insert(id.clone());
                acq.remove(&id);
            }
            LockOp::Call(g) => {
                if let Some(node) = graph.resolve(inst, g) {
                    if let Some((ga, gr)) = transformers.get(&node) {
                        for l in gr {
                            acq.remove(l);
                            rel.insert(l.clone());
                        }
                        for l in ga {
                            acq.insert(l.clone());
                            rel.remove(l);
                        }
                    }
                }
            }
            LockOp::Branch(a, b) => {
                let (mut aa, mut ar) = (acq.clone(), rel.clone());
                seq_xfer(a, inst, graph, transformers, &mut aa, &mut ar);
                let (mut ba, mut br) = (acq.clone(), rel.clone());
                seq_xfer(b, inst, graph, transformers, &mut ba, &mut br);
                *acq = aa.intersection(&ba).cloned().collect();
                *rel = ar.union(&br).cloned().collect();
            }
            LockOp::Loop(body) => {
                // Runs zero or more times: nothing is must-acquired, but
                // everything the body may release may be released.
                let (mut ba, mut br) = (acq.clone(), rel.clone());
                seq_xfer(body, inst, graph, transformers, &mut ba, &mut br);
                for l in br.difference(rel).cloned().collect::<Vec<_>>() {
                    rel.insert(l.clone());
                    acq.remove(&l);
                }
            }
            LockOp::Access { .. } | LockOp::Return => {}
        }
    }
}
