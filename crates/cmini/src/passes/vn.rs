//! Local value numbering and dead-instruction elimination on generated IR.
//!
//! This is the "conventional optimizing compiler" back half of the paper's
//! flattening story: after inlining turns call nests into straight-line
//! code, local value numbering removes the redundant address computations
//! and re-loads that inlining exposes ("eliminates redundant reads via
//! common subexpression elimination", §6), and dead-code elimination sweeps
//! the leftovers.
//!
//! The pass is *local*: value numbers live within one basic block. Stores
//! and calls conservatively kill all memorized loads (with store-to-load
//! forwarding for the stored address itself).

use cobj::fnv::FnvMap;
use cobj::ir::{BinOp, Instr, SymId, UnOp, Width};
use cobj::object::{FuncDef, ObjectFile};

/// Optimize every function in an object.
pub fn optimize_obj(obj: &mut ObjectFile) {
    for f in &mut obj.funcs {
        optimize_func(f);
    }
}

/// Run VN + DCE (two rounds) on one function.
pub fn optimize_func(f: &mut FuncDef) {
    for _ in 0..2 {
        let a = value_number(f);
        let b = dead_code(f);
        if !a && !b {
            break;
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(i64),
    Bin(BinOp, u32, u32),
    Un(UnOp, u32),
    Load(u32, i64, Width),
    FrameAddr(i64),
    Addr(SymId, i64),
    VarArg(u32),
}

fn commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
    )
}

/// Block leader set: instruction indices that start a basic block.
fn leaders(body: &[Instr]) -> Vec<bool> {
    let mut l = vec![false; body.len() + 1];
    if !body.is_empty() {
        l[0] = true;
    }
    for (i, ins) in body.iter().enumerate() {
        match ins {
            Instr::Jump { target } => {
                l[*target] = true;
                if i + 1 < l.len() {
                    l[i + 1] = true;
                }
            }
            Instr::Branch { then_to, else_to, .. } => {
                l[*then_to] = true;
                l[*else_to] = true;
                if i + 1 < l.len() {
                    l[i + 1] = true;
                }
            }
            Instr::Ret { .. } if i + 1 < l.len() => {
                l[i + 1] = true;
            }
            _ => {}
        }
    }
    l.truncate(body.len());
    l
}

#[derive(Clone)]
struct VnState {
    next_vn: u32,
    reg_vn: FnvMap<u32, u32>,
    expr_vn: FnvMap<Key, (u32, u32)>, // key -> (vn, holder reg)
    const_of: FnvMap<u32, i64>,       // vn -> known constant
}

impl VnState {
    fn new() -> Self {
        VnState {
            next_vn: 0,
            reg_vn: FnvMap::default(),
            expr_vn: FnvMap::default(),
            const_of: FnvMap::default(),
        }
    }

    fn fresh(&mut self) -> u32 {
        self.next_vn += 1;
        self.next_vn
    }

    fn vn_of(&mut self, reg: u32) -> u32 {
        if let Some(v) = self.reg_vn.get(&reg) {
            return *v;
        }
        let v = self.fresh();
        self.reg_vn.insert(reg, v);
        v
    }

    /// Remove memorized expressions held in `reg` (it is being redefined).
    fn invalidate_holder(&mut self, reg: u32) {
        self.expr_vn.retain(|_, (_, holder)| *holder != reg);
    }

    fn kill_loads(&mut self) {
        self.expr_vn.retain(|k, _| !matches!(k, Key::Load(..)));
    }
}

/// Returns true if anything changed.
///
/// Scope is *extended basic blocks*: a block with exactly one incoming
/// edge inherits the value table from that edge, so the long
/// single-predecessor else-chains produced by inlining keep their known
/// loads — the global-CSE effect the paper relies on ("eliminates
/// redundant reads via common subexpression elimination").
fn value_number(f: &mut FuncDef) -> bool {
    let lead = leaders(&f.body);
    // incoming edges per block leader (a target may be one past the end)
    let mut in_edges: Vec<u32> = vec![0; f.body.len() + 1];
    for (i, ins) in f.body.iter().enumerate() {
        match ins {
            Instr::Jump { target } => in_edges[*target] += 1,
            Instr::Branch { then_to, else_to, .. } => {
                in_edges[*then_to] += 1;
                in_edges[*else_to] += 1;
            }
            Instr::Ret { .. } => {}
            _ => {
                // fall-through into a leader
                if i + 1 < f.body.len() && lead[i + 1] {
                    in_edges[i + 1] += 1;
                }
            }
        }
    }
    // state captured at each edge into a single-pred block (by target
    // leader); only useful when the edge source was already processed
    // (forward edges).
    let mut edge_state: Vec<Option<VnState>> = vec![None; f.body.len() + 1];
    let capture = |target: usize, st: &VnState, edge_state: &mut Vec<Option<VnState>>| {
        if in_edges[target] == 1 {
            edge_state[target] = Some(st.clone());
        }
    };

    let mut st = VnState::new();
    let mut changed = false;

    for i in 0..f.body.len() {
        if lead[i] && i > 0 {
            st = edge_state[i].take().unwrap_or_else(VnState::new);
        }
        // Every field bound below is `Copy`: the match borrows nothing.
        match f.body[i] {
            Instr::Const { dst, value } => {
                let key = Key::Const(value);
                changed |= define(&mut st, &mut f.body[i], dst, key, Some(value));
            }
            Instr::Mov { dst, src } => {
                if dst == src {
                    f.body[i] = Instr::Nop;
                    changed = true;
                } else {
                    let v = st.vn_of(src);
                    st.invalidate_holder(dst);
                    st.reg_vn.insert(dst, v);
                }
            }
            Instr::Bin { op, dst, a, b } => {
                let (mut va, mut vb) = (st.vn_of(a), st.vn_of(b));
                // constant fold at IR level
                if let (Some(ca), Some(cb)) =
                    (st.const_of.get(&va).copied(), st.const_of.get(&vb).copied())
                {
                    if let Some(v) = op.eval(ca, cb) {
                        f.body[i] = Instr::Const { dst, value: v };
                        let key = Key::Const(v);
                        changed = true;
                        define(&mut st, &mut f.body[i], dst, key, Some(v));
                        continue;
                    }
                }
                if commutative(op) && va > vb {
                    std::mem::swap(&mut va, &mut vb);
                }
                let key = Key::Bin(op, va, vb);
                changed |= define(&mut st, &mut f.body[i], dst, key, None);
            }
            Instr::Un { op, dst, a } => {
                let va = st.vn_of(a);
                if let Some(ca) = st.const_of.get(&va).copied() {
                    let v = op.eval(ca);
                    f.body[i] = Instr::Const { dst, value: v };
                    let key = Key::Const(v);
                    changed = true;
                    define(&mut st, &mut f.body[i], dst, key, Some(v));
                    continue;
                }
                let key = Key::Un(op, va);
                changed |= define(&mut st, &mut f.body[i], dst, key, None);
            }
            Instr::Load { dst, addr, offset, width } => {
                let va = st.vn_of(addr);
                let key = Key::Load(va, offset, width);
                changed |= define(&mut st, &mut f.body[i], dst, key, None);
            }
            Instr::Store { addr, offset, src, width } => {
                let va = st.vn_of(addr);
                let vs = st.vn_of(src);
                st.kill_loads();
                // store-to-load forwarding
                st.expr_vn.insert(Key::Load(va, offset, width), (vs, src));
            }
            Instr::Addr { dst, sym, offset } => {
                let key = Key::Addr(sym, offset);
                changed |= define(&mut st, &mut f.body[i], dst, key, None);
            }
            Instr::FrameAddr { dst, offset } => {
                let key = Key::FrameAddr(offset);
                changed |= define(&mut st, &mut f.body[i], dst, key, None);
            }
            Instr::VarArg { dst, idx } => {
                let vi = st.vn_of(idx);
                let key = Key::VarArg(vi);
                changed |= define(&mut st, &mut f.body[i], dst, key, None);
            }
            Instr::Call { dst, .. } | Instr::CallInd { dst, .. } => {
                st.kill_loads();
                if let Some(d) = dst {
                    st.invalidate_holder(d);
                    let v = st.fresh();
                    st.reg_vn.insert(d, v);
                }
            }
            Instr::Branch { cond, then_to, else_to } => {
                let vc = st.vn_of(cond);
                if let Some(c) = st.const_of.get(&vc).copied() {
                    let target = if c != 0 { then_to } else { else_to };
                    f.body[i] = Instr::Jump { target };
                    changed = true;
                    capture(target, &st, &mut edge_state);
                } else {
                    capture(then_to, &st, &mut edge_state);
                    capture(else_to, &st, &mut edge_state);
                }
            }
            Instr::Jump { target } => {
                capture(target, &st, &mut edge_state);
            }
            Instr::Ret { .. } | Instr::Nop => {}
        }
        // fall-through edge into a following leader
        if i + 1 < f.body.len()
            && lead[i + 1]
            && !matches!(f.body[i], Instr::Jump { .. } | Instr::Branch { .. } | Instr::Ret { .. })
        {
            capture(i + 1, &st, &mut edge_state);
        }
    }
    changed
}

/// Handle a pure computation of `key` into `dst`. Replaces the instruction
/// with a Mov when the value is already available. Returns true on change.
fn define(st: &mut VnState, ins: &mut Instr, dst: u32, key: Key, const_val: Option<i64>) -> bool {
    if let Some((vn, holder)) = st.expr_vn.get(&key).copied() {
        // available — reuse holder (it is valid: invalidate_holder removes
        // stale entries whenever a register is redefined)
        st.invalidate_holder(dst);
        st.reg_vn.insert(dst, vn);
        if holder == dst {
            *ins = Instr::Nop;
        } else {
            *ins = Instr::Mov { dst, src: holder };
        }
        return true;
    }
    st.invalidate_holder(dst);
    let vn = st.fresh();
    st.reg_vn.insert(dst, vn);
    st.expr_vn.insert(key, (vn, dst));
    if let Some(v) = const_val {
        st.const_of.insert(vn, v);
    }
    false
}

/// Backward liveness + removal of pure instructions with dead results.
/// Returns true if anything was removed.
fn dead_code(f: &mut FuncDef) -> bool {
    let n = f.body.len();
    if n == 0 {
        return false;
    }
    let nregs = f.nregs as usize;
    // row i of `live` = registers live *after* instruction i
    let mut live = vec![false; (n + 1) * nregs];
    let mut out = vec![false; nregs];
    let mut lin = vec![false; nregs];

    // iterate to fixpoint
    let mut changed_liveness = true;
    while changed_liveness {
        changed_liveness = false;
        for i in (0..n).rev() {
            // out = union of live-in of successors
            out.fill(false);
            let succs = match f.body[i] {
                Instr::Jump { target } => [Some(target), None],
                Instr::Branch { then_to, else_to, .. } => [Some(then_to), Some(else_to)],
                Instr::Ret { .. } => [None, None],
                _ => [(i + 1 < n).then_some(i + 1), None],
            };
            for s in succs.into_iter().flatten() {
                // live-in of s = (out[s] - defs[s]) + uses[s]
                lin.copy_from_slice(&live[s * nregs..(s + 1) * nregs]);
                live_in(&f.body[s], &mut lin);
                for (o, v) in out.iter_mut().zip(&lin) {
                    *o |= *v;
                }
            }
            let row = &mut live[i * nregs..(i + 1) * nregs];
            if *row != *out {
                row.copy_from_slice(&out);
                changed_liveness = true;
            }
        }
    }

    let mut removed = false;
    for (i, ins) in f.body.iter_mut().enumerate() {
        let pure_dst = match &*ins {
            Instr::Const { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Addr { dst, .. }
            | Instr::FrameAddr { dst, .. }
            | Instr::VarArg { dst, .. }
            | Instr::Load { dst, .. } => Some(*dst),
            Instr::Bin { op, dst, .. } if !matches!(op, BinOp::Div | BinOp::Rem) => Some(*dst),
            _ => None,
        };
        if let Some(d) = pure_dst {
            if (d as usize) < nregs && !live[i * nregs + d as usize] {
                *ins = Instr::Nop;
                removed = true;
            }
        }
    }
    if removed {
        compact(f);
    }
    removed
}

/// Turn `l`, the registers live after `ins`, into those live before it.
fn live_in(ins: &Instr, l: &mut [bool]) {
    let nregs = l.len();
    // remove defs
    match ins {
        Instr::Const { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::Addr { dst, .. }
        | Instr::FrameAddr { dst, .. }
        | Instr::VarArg { dst, .. }
            if (*dst as usize) < nregs =>
        {
            l[*dst as usize] = false;
        }
        Instr::Call { dst: Some(d), .. } | Instr::CallInd { dst: Some(d), .. }
            if (*d as usize) < nregs =>
        {
            l[*d as usize] = false;
        }
        _ => {}
    }
    // add uses
    let mut use_reg = |r: u32| {
        if (r as usize) < nregs {
            l[r as usize] = true;
        }
    };
    match ins {
        Instr::Mov { src, .. } => use_reg(*src),
        Instr::Bin { a, b, .. } => {
            use_reg(*a);
            use_reg(*b);
        }
        Instr::Un { a, .. } => use_reg(*a),
        Instr::Load { addr, .. } => use_reg(*addr),
        Instr::Store { addr, src, .. } => {
            use_reg(*addr);
            use_reg(*src);
        }
        Instr::VarArg { idx, .. } => use_reg(*idx),
        Instr::Call { args, .. } => {
            for a in args {
                use_reg(*a);
            }
        }
        Instr::CallInd { target, args, .. } => {
            use_reg(*target);
            for a in args {
                use_reg(*a);
            }
        }
        Instr::Branch { cond, .. } => use_reg(*cond),
        Instr::Ret { value: Some(v) } => use_reg(*v),
        _ => {}
    }
}

/// Remove `Nop`s, remapping jump targets.
fn compact(f: &mut FuncDef) {
    let n = f.body.len();
    let mut new_index = vec![0usize; n + 1];
    let mut kept = 0usize;
    for (i, ins) in f.body.iter().enumerate() {
        new_index[i] = kept;
        if !matches!(ins, Instr::Nop) {
            kept += 1;
        }
    }
    new_index[n] = kept;
    let old = std::mem::take(&mut f.body);
    for mut ins in old {
        if matches!(ins, Instr::Nop) {
            continue;
        }
        match &mut ins {
            Instr::Jump { target } => *target = new_index[*target],
            Instr::Branch { then_to, else_to, .. } => {
                *then_to = new_index[*then_to];
                *else_to = new_index[*else_to];
            }
            _ => {}
        }
        f.body.push(ins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobj::object::Symbol;

    fn func(body: Vec<Instr>, params: u32, nregs: u32) -> FuncDef {
        FuncDef { sym: SymId(0), params, nregs, frame_size: 0, body }
    }

    fn wrap(f: FuncDef) -> ObjectFile {
        let mut o = ObjectFile::new("t.o");
        o.add_symbol(Symbol::func("f"));
        o.funcs.push(f);
        o
    }

    #[test]
    fn duplicate_constants_merge() {
        let mut f = func(
            vec![
                Instr::Const { dst: 1, value: 7 },
                Instr::Const { dst: 2, value: 7 },
                Instr::Bin { op: BinOp::Add, dst: 3, a: 1, b: 2 },
                Instr::Ret { value: Some(3) },
            ],
            0,
            4,
        );
        optimize_func(&mut f);
        // second const becomes a Mov (then DCE may restructure); at minimum
        // there is only one Const{7} left or the add folded entirely.
        let consts = f.body.iter().filter(|i| matches!(i, Instr::Const { value: 7, .. })).count();
        assert!(consts <= 1, "body: {:?}", f.body);
        assert!(wrap(f).validate().is_ok());
    }

    #[test]
    fn ir_constant_folding() {
        let mut f = func(
            vec![
                Instr::Const { dst: 1, value: 6 },
                Instr::Const { dst: 2, value: 7 },
                Instr::Bin { op: BinOp::Mul, dst: 3, a: 1, b: 2 },
                Instr::Ret { value: Some(3) },
            ],
            0,
            4,
        );
        optimize_func(&mut f);
        assert!(
            f.body.iter().any(|i| matches!(i, Instr::Const { value: 42, .. })),
            "body: {:?}",
            f.body
        );
    }

    #[test]
    fn redundant_load_eliminated() {
        // r1 = load [r0]; r2 = load [r0]  →  second becomes mov
        let mut f = func(
            vec![
                Instr::Load { dst: 1, addr: 0, offset: 0, width: Width::W8 },
                Instr::Load { dst: 2, addr: 0, offset: 0, width: Width::W8 },
                Instr::Bin { op: BinOp::Add, dst: 3, a: 1, b: 2 },
                Instr::Ret { value: Some(3) },
            ],
            1,
            4,
        );
        optimize_func(&mut f);
        let loads = f.body.iter().filter(|i| matches!(i, Instr::Load { .. })).count();
        assert_eq!(loads, 1, "body: {:?}", f.body);
    }

    #[test]
    fn store_kills_loads_but_forwards() {
        // load; store to same addr; load again → forwarded from store value
        let mut f = func(
            vec![
                Instr::Const { dst: 1, value: 5 },
                Instr::Store { addr: 0, offset: 0, src: 1, width: Width::W8 },
                Instr::Load { dst: 2, addr: 0, offset: 0, width: Width::W8 },
                Instr::Ret { value: Some(2) },
            ],
            1,
            3,
        );
        optimize_func(&mut f);
        let loads = f.body.iter().filter(|i| matches!(i, Instr::Load { .. })).count();
        assert_eq!(loads, 0, "store-to-load forwarding failed: {:?}", f.body);
    }

    #[test]
    fn call_kills_loads() {
        let mut f = func(
            vec![
                Instr::Load { dst: 1, addr: 0, offset: 0, width: Width::W8 },
                Instr::Call { dst: Some(2), target: SymId(0), args: vec![] },
                Instr::Load { dst: 3, addr: 0, offset: 0, width: Width::W8 },
                Instr::Bin { op: BinOp::Add, dst: 4, a: 1, b: 3 },
                Instr::Bin { op: BinOp::Add, dst: 4, a: 4, b: 2 },
                Instr::Ret { value: Some(4) },
            ],
            1,
            5,
        );
        optimize_func(&mut f);
        let loads = f.body.iter().filter(|i| matches!(i, Instr::Load { .. })).count();
        assert_eq!(loads, 2, "call must invalidate memory: {:?}", f.body);
    }

    #[test]
    fn dead_instructions_removed_and_targets_fixed() {
        let mut f = func(
            vec![
                Instr::Const { dst: 1, value: 999 }, // dead
                Instr::Const { dst: 2, value: 1 },
                Instr::Branch { cond: 0, then_to: 3, else_to: 4 },
                Instr::Ret { value: Some(2) },
                Instr::Ret { value: None },
            ],
            1,
            3,
        );
        optimize_func(&mut f);
        // dead const gone, branch targets remapped and still valid
        assert!(!f.body.iter().any(|i| matches!(i, Instr::Const { value: 999, .. })));
        assert!(wrap(f).validate().is_ok());
    }

    #[test]
    fn constant_branch_becomes_jump() {
        let mut f = func(
            vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::Branch { cond: 1, then_to: 2, else_to: 3 },
                Instr::Ret { value: None },
                Instr::Const { dst: 2, value: 9 },
                Instr::Ret { value: Some(2) },
            ],
            0,
            3,
        );
        optimize_func(&mut f);
        assert!(!f.body.iter().any(|i| matches!(i, Instr::Branch { .. })), "body: {:?}", f.body);
        assert!(wrap(f).validate().is_ok());
    }

    #[test]
    fn single_pred_blocks_inherit_values() {
        // Block 2 has exactly one incoming edge (the jump), so the repeated
        // computation is eliminated (extended-basic-block scope).
        let mut f = func(
            vec![
                Instr::Bin { op: BinOp::Add, dst: 1, a: 0, b: 0 },
                Instr::Jump { target: 2 },
                Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 0 },
                Instr::Bin { op: BinOp::Add, dst: 3, a: 1, b: 2 },
                Instr::Ret { value: Some(3) },
            ],
            1,
            4,
        );
        optimize_func(&mut f);
        let bins = f.body.iter().filter(|i| matches!(i, Instr::Bin { .. })).count();
        assert_eq!(bins, 2, "single-pred reuse should fire: {:?}", f.body);
    }

    #[test]
    fn values_not_reused_across_joins() {
        // Block at 4 has TWO incoming edges (branch targets converge), so
        // the recomputation there must stay.
        let mut f = func(
            vec![
                Instr::Bin { op: BinOp::Add, dst: 1, a: 0, b: 0 }, // 0
                Instr::Branch { cond: 0, then_to: 2, else_to: 3 }, // 1
                Instr::Jump { target: 4 },                         // 2
                Instr::Jump { target: 4 },                         // 3
                Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 0 }, // 4: join
                Instr::Store { addr: 0, offset: 0, src: 1, width: Width::W8 },
                Instr::Store { addr: 0, offset: 8, src: 2, width: Width::W8 },
                Instr::Ret { value: None },
            ],
            1,
            3,
        );
        optimize_func(&mut f);
        let bins = f.body.iter().filter(|i| matches!(i, Instr::Bin { .. })).count();
        assert_eq!(bins, 2, "join blocks start fresh: {:?}", f.body);
    }

    #[test]
    fn loop_headers_start_fresh() {
        // r1 = [r0]; loop body stores through r0 each iteration, so the
        // load inside the loop must not be satisfied by the preheader load.
        let mut f = func(
            vec![
                Instr::Load { dst: 1, addr: 0, offset: 0, width: Width::W8 }, // 0 preheader
                Instr::Load { dst: 2, addr: 0, offset: 0, width: Width::W8 }, // 1 loop head (2 preds)
                Instr::Bin { op: BinOp::Add, dst: 2, a: 2, b: 2 },            // 2
                Instr::Store { addr: 0, offset: 0, src: 2, width: Width::W8 }, // 3
                Instr::Bin { op: BinOp::Lt, dst: 2, a: 2, b: 1 },             // 4
                Instr::Branch { cond: 2, then_to: 1, else_to: 6 },            // 5
                Instr::Ret { value: Some(1) },                                // 6
            ],
            1,
            3,
        );
        optimize_func(&mut f);
        let loads = f.body.iter().filter(|i| matches!(i, Instr::Load { .. })).count();
        assert_eq!(loads, 2, "loop-carried load must stay: {:?}", f.body);
    }

    #[test]
    fn holder_invalidation_is_respected() {
        // r1 = r0 + r0; r1 = 5; r2 = r0 + r0  → r2 must NOT become mov r1
        let mut f = func(
            vec![
                Instr::Bin { op: BinOp::Add, dst: 1, a: 0, b: 0 },
                Instr::Store { addr: 0, offset: 0, src: 1, width: Width::W8 },
                Instr::Const { dst: 1, value: 5 },
                Instr::Store { addr: 0, offset: 8, src: 1, width: Width::W8 },
                Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 0 },
                Instr::Store { addr: 0, offset: 16, src: 2, width: Width::W8 },
                Instr::Ret { value: None },
            ],
            1,
            3,
        );
        optimize_func(&mut f);
        let bins = f.body.iter().filter(|i| matches!(i, Instr::Bin { .. })).count();
        assert_eq!(bins, 2, "stale holder reused: {:?}", f.body);
    }
}
