//! The shared micro-op IR and its decoder, plus the fast execute backend
//! that consumes it.
//!
//! Two execution tiers run guest code, observationally identical (same
//! results, same faults at the same `(func, pc)` sites, bit-identical
//! performance counters and profiles — differentially tested in
//! `tests/simperf.rs` and `tests/mc.rs`):
//!
//! * [`Machine::run_reference`] — the original one-instruction-at-a-time
//!   loop over [`cobj::image::RInstr`], kept verbatim in `cpu.rs` as the
//!   oracle. It is the *definition* of the counter semantics; the fast
//!   tier reproduces it.
//! * [`fast`] — the predecoded interpreter: one [`UOp`] load and one
//!   `match` per guest instruction.
//!
//! This module owns what the fast tier precomputes:
//!
//! * **The [`UOp`] IR.** Every [`RInstr`] is decoded once at `Machine`
//!   construction into a fixed-size micro-op: the opcode (with
//!   [`cobj::ir::BinOp`], [`cobj::ir::UnOp`] and [`cobj::ir::Width`]
//!   folded into the opcode byte), register operands, the immediate, the
//!   instruction's I-cache line metadata, *and* its static cycle cost.
//!   Call argument registers live in a per-function arena
//!   ([`CodePlan::call_args`]) instead of a `Vec` inside the instruction.
//! * **One counter-semantics definition.** [`static_cost`] computes, at
//!   decode time, every deterministic cycle an instruction charges (base
//!   cost plus operator/memory/call costs). The fast loop adds `op.cost`
//!   per instruction — identical totals at every observation point. Only
//!   two charges are dynamic and stay with the executor: branch direction
//!   cost and I-cache miss stalls.
//! * **Predecoded fetch.** The I-cache lines each instruction touches are
//!   a pure function of the (immutable) code layout and cache geometry,
//!   so [`CodePlan::build_all`] computes every `(set, tag)` pair up
//!   front. The first and the last line (the same one unless the
//!   instruction straddles) are inline in the `UOp`; lines between them
//!   live in an arena. Fetch is then [`crate::ICache::access_line`]
//!   calls, no division, no address arithmetic — and only where a line
//!   run starts (see [`fast`]): a [`UOp::check`] bit marks the
//!   instructions whose fetch is not certain to hit.
//! * **Frame and argument pooling.** `Call` in the reference loop
//!   allocates a fresh `Vec<i64>` for the arguments and `push_frame`
//!   another for the registers, every single call. The fast tier recycles
//!   them through `Machine::buf_pool` via [`Machine::make_frame`] /
//!   `Machine::reclaim_frame`, which persist across `call`s — a router
//!   `step()` makes hundreds of guest calls and, warm, allocates nothing.
//!
//! [`RInstr`]: cobj::image::RInstr

mod fast;

use cobj::image::{CallTarget, Image, RInstr};
use cobj::ir::{BinOp, Reg, UnOp, Width};

use crate::cache::ICacheParams;
use crate::costs::CostModel;
use crate::cpu::{Fault, Frame, Machine};

/// Micro-op opcodes. Binary/unary operators and access widths are folded
/// in so the fast tier dispatches exactly once per guest instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `a = imm`.
    Const,
    /// `a = b`.
    Mov,
    // `a = b <op> c`, one opcode per operator (semantics must mirror
    // `BinOp::eval` exactly; the differential proptests enforce this).
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // `a = <op> b`, mirroring `UnOp::eval`.
    Neg,
    Not,
    BitNot,
    // `a = mem[b + imm]`, one opcode per width.
    Load1,
    Load2,
    Load4,
    Load8,
    // `mem[a + imm] = b`, one opcode per width.
    Store1,
    Store2,
    Store4,
    Store8,
    /// `a = frame_base + imm`.
    FrameAddr,
    /// `a = varargs[b]`.
    VarArg,
    /// Direct call to image function `imm`; `b` args at `call_args[c..]`,
    /// result into register `a - 1` (0 = discarded).
    CallFunc,
    /// Direct call to intrinsic `imm`; operands as [`Op::CallFunc`].
    CallIntr,
    /// Indirect call through the pointer in register `imm`; operands as
    /// [`Op::CallFunc`].
    CallInd,
    /// `pc = imm`.
    Jump,
    /// `pc = (regs[a] != 0) ? b : c`.
    Branch,
    /// Return `regs[a - 1]` (0 = return 0).
    Ret,
    Nop,
}

/// One predecoded instruction: opcode, operands, immediate, static cycle
/// cost, and the instruction's I-cache fetch metadata (first and last
/// line inline, an arena reference for any lines between, and whether
/// the fetch needs a tag check at all).
#[derive(Debug, Clone)]
pub(crate) struct UOp {
    /// Immediate: constant, address offset, jump target, call target.
    pub(crate) imm: i64,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
    /// First I-cache line's `(set, tag)`.
    pub(crate) first: (u32, u32),
    /// Last I-cache line's `(set, tag)`: the first again unless the
    /// instruction straddles.
    pub(crate) last: (u32, u32),
    /// Start of the lines strictly between the first and the last in
    /// [`CodePlan::rest`].
    pub(crate) rest: u32,
    /// Deterministic cycles this instruction charges ([`static_cost`]);
    /// excludes the two dynamic charges (branch direction, fetch stalls).
    pub(crate) cost: u32,
    /// Number of additional lines this instruction straddles onto.
    pub(crate) extra: u16,
    pub(crate) code: Op,
    /// Fetch must consult the I-cache. Clear only inside a *line run*:
    /// the op is reached solely by falling through from a non-call op
    /// whose last line is this op's first and only line, so that line is
    /// resident and the fetch is a guaranteed hit (see [`CodePlan::build_all`]).
    pub(crate) check: bool,
}

// The inline last line and the line-run flag fit in the 48 bytes a `UOp`
// took before them. Tags are `u32`: text addresses would have to reach
// 2^32 cache sizes to overflow one.
const _: () = assert!(std::mem::size_of::<UOp>() <= 48);

/// Predecoded body of one function: the micro-op stream, the call-argument
/// register arena, and the fetch-straddle arena.
pub(crate) struct CodePlan {
    pub(crate) ops: Vec<UOp>,
    pub(crate) call_args: Vec<Reg>,
    pub(crate) rest: Vec<(u32, u32)>,
}

/// Encode an optional register so 0 means "none" (register `r` becomes
/// `r + 1`).
fn enc_opt(r: Option<Reg>) -> u32 {
    r.map(|r| r + 1).unwrap_or(0)
}

/// The single counter-semantics definition: every *deterministic* cycle
/// an instruction charges, mirroring [`Machine::run_reference`]'s
/// per-instruction accounting — the base cost charged at fetch plus the
/// per-operation costs its match arms add. Two charges are inherently
/// dynamic and remain with the executors: a `Branch`'s taken/not-taken
/// cost and I-cache miss stalls. Operation costs that precede a fault in
/// the reference (div, load, store) are *included*, so a faulting
/// instruction's full static cost is charged exactly when the reference
/// charges it.
fn static_cost(code: Op, argc: u32, costs: &CostModel) -> u64 {
    let extra = match code {
        Op::Mul => costs.mul,
        Op::Div | Op::Rem => costs.div,
        Op::Load1 | Op::Load2 | Op::Load4 | Op::Load8 => costs.load,
        Op::Store1 | Op::Store2 | Op::Store4 | Op::Store8 => costs.store,
        Op::CallFunc | Op::CallIntr => costs.call_overhead + costs.call_per_arg * argc as u64,
        Op::CallInd => {
            costs.call_overhead + costs.call_per_arg * argc as u64 + costs.indirect_call_penalty
        }
        Op::Jump => costs.jump,
        Op::Ret => costs.ret_overhead,
        _ => 0,
    };
    costs.base + extra
}

impl CodePlan {
    /// Decode every function in `image` under the given cache geometry and
    /// cost model.
    ///
    /// Fetch metadata mirrors [`crate::ICache::fetch`]'s line arithmetic:
    /// an instruction spans `addr / line ..= (addr + size.max(1) - 1) /
    /// line`, each line mapping to set `line % nlines` with tag
    /// `line / nlines`.
    ///
    /// An op's `check` flag is cleared only when its fetch is certain to
    /// hit in the direct-mapped cache: it is not at pc 0, not a `Jump` or
    /// `Branch` target, not a return point (the op after a call, whose
    /// callee may have evicted the line), does not straddle, and starts on
    /// the line its predecessor ended on — the line that predecessor's own
    /// fetch just left resident.
    pub(crate) fn build_all(image: &Image, costs: &CostModel) -> Vec<CodePlan> {
        let params: ICacheParams = costs.icache;
        let nlines = params.size / params.line;
        let set_tag = |line: u64| {
            ((line % nlines) as u32, u32::try_from(line / nlines).expect("I-cache tag fits u32"))
        };
        image
            .funcs
            .iter()
            .map(|f| {
                let mut ops = Vec::with_capacity(f.body.len());
                let mut call_args: Vec<Reg> = Vec::new();
                let mut rest = Vec::new();
                // Jump and branch targets; one past the end absorbs targets
                // that fall off the function.
                let mut targets = vec![false; f.body.len() + 1];
                for instr in &f.body {
                    let (t, e) = match *instr {
                        RInstr::Jump { target } => (target, target),
                        RInstr::Branch { then_to, else_to, .. } => (then_to, else_to),
                        _ => continue,
                    };
                    targets[t.min(f.body.len())] = true;
                    targets[e.min(f.body.len())] = true;
                }
                // The line the previous op's fetch left resident; none at
                // pc 0 and after a call.
                let mut resident = u64::MAX;
                for (i, instr) in f.body.iter().enumerate() {
                    let addr = f.instr_addrs[i];
                    let size = f.instr_sizes[i];
                    let first = addr / params.line;
                    let last = (addr + (size as u64).max(1) - 1) / params.line;
                    let check = targets[i] || first != resident || last != first;
                    let call = matches!(instr, RInstr::Call { .. } | RInstr::CallInd { .. });
                    resident = if call { u64::MAX } else { last };
                    let rstart = rest.len() as u32;
                    rest.extend((first + 1..last).map(set_tag));
                    let mut op = UOp {
                        imm: 0,
                        a: 0,
                        b: 0,
                        c: 0,
                        first: set_tag(first),
                        last: set_tag(last),
                        rest: rstart,
                        cost: 0,
                        extra: (last - first) as u16,
                        code: Op::Nop,
                        check,
                    };
                    let mut argc = 0u32;
                    match instr {
                        RInstr::Const { dst, value } => {
                            op.code = Op::Const;
                            op.a = *dst;
                            op.imm = *value;
                        }
                        RInstr::Mov { dst, src } => {
                            op.code = Op::Mov;
                            op.a = *dst;
                            op.b = *src;
                        }
                        RInstr::Bin { op: bop, dst, a, b } => {
                            op.code = match bop {
                                BinOp::Add => Op::Add,
                                BinOp::Sub => Op::Sub,
                                BinOp::Mul => Op::Mul,
                                BinOp::Div => Op::Div,
                                BinOp::Rem => Op::Rem,
                                BinOp::And => Op::And,
                                BinOp::Or => Op::Or,
                                BinOp::Xor => Op::Xor,
                                BinOp::Shl => Op::Shl,
                                BinOp::Shr => Op::Shr,
                                BinOp::Eq => Op::Eq,
                                BinOp::Ne => Op::Ne,
                                BinOp::Lt => Op::Lt,
                                BinOp::Le => Op::Le,
                                BinOp::Gt => Op::Gt,
                                BinOp::Ge => Op::Ge,
                            };
                            op.a = *dst;
                            op.b = *a;
                            op.c = *b;
                        }
                        RInstr::Un { op: uop, dst, a } => {
                            op.code = match uop {
                                UnOp::Neg => Op::Neg,
                                UnOp::Not => Op::Not,
                                UnOp::BitNot => Op::BitNot,
                            };
                            op.a = *dst;
                            op.b = *a;
                        }
                        RInstr::Load { dst, addr, offset, width } => {
                            op.code = match width {
                                Width::W1 => Op::Load1,
                                Width::W2 => Op::Load2,
                                Width::W4 => Op::Load4,
                                Width::W8 => Op::Load8,
                            };
                            op.a = *dst;
                            op.b = *addr;
                            op.imm = *offset;
                        }
                        RInstr::Store { addr, offset, src, width } => {
                            op.code = match width {
                                Width::W1 => Op::Store1,
                                Width::W2 => Op::Store2,
                                Width::W4 => Op::Store4,
                                Width::W8 => Op::Store8,
                            };
                            op.a = *addr;
                            op.b = *src;
                            op.imm = *offset;
                        }
                        RInstr::FrameAddr { dst, offset } => {
                            op.code = Op::FrameAddr;
                            op.a = *dst;
                            op.imm = *offset;
                        }
                        RInstr::VarArg { dst, idx } => {
                            op.code = Op::VarArg;
                            op.a = *dst;
                            op.b = *idx;
                        }
                        RInstr::Call { dst, target, args } => {
                            op.a = enc_opt(*dst);
                            op.b = args.len() as u32;
                            op.c = call_args.len() as u32;
                            argc = args.len() as u32;
                            call_args.extend_from_slice(args);
                            match target {
                                CallTarget::Func(tf) => {
                                    op.code = Op::CallFunc;
                                    op.imm = *tf as i64;
                                }
                                CallTarget::Intrinsic(id) => {
                                    op.code = Op::CallIntr;
                                    op.imm = *id as i64;
                                }
                            }
                        }
                        RInstr::CallInd { dst, target, args } => {
                            op.code = Op::CallInd;
                            op.a = enc_opt(*dst);
                            op.b = args.len() as u32;
                            op.c = call_args.len() as u32;
                            op.imm = *target as i64;
                            argc = args.len() as u32;
                            call_args.extend_from_slice(args);
                        }
                        RInstr::Jump { target } => {
                            op.code = Op::Jump;
                            op.imm = *target as i64;
                        }
                        RInstr::Branch { cond, then_to, else_to } => {
                            op.code = Op::Branch;
                            op.a = *cond;
                            op.b = *then_to as u32;
                            op.c = *else_to as u32;
                        }
                        RInstr::Ret { value } => {
                            op.code = Op::Ret;
                            op.a = enc_opt(*value);
                        }
                        RInstr::Nop => op.code = Op::Nop,
                    }
                    op.cost = u32::try_from(static_cost(op.code, argc, costs))
                        .expect("per-instruction static cost fits u32");
                    ops.push(op);
                }
                CodePlan { ops, call_args, rest }
            })
            .collect()
    }
}

impl Machine {
    /// Pop a recycled buffer from the pool (or allocate the first time).
    #[inline]
    pub(crate) fn take_buf(&mut self) -> Vec<i64> {
        self.buf_pool.pop().unwrap_or_default()
    }

    /// Return a frame's buffers to the pool, leaving the frame empty.
    #[inline]
    pub(crate) fn reclaim_frame(&mut self, fr: &mut Frame) {
        self.buf_pool.push(std::mem::take(&mut fr.regs));
        self.buf_pool.push(std::mem::take(&mut fr.args));
    }

    /// Build an activation record from pooled storage. `depth` is the
    /// number of frames already live (the reference loop's `frames.len()`
    /// at its `push_frame` check). On error the argument buffer is
    /// reclaimed and machine state is untouched.
    #[inline]
    pub(crate) fn make_frame(
        &mut self,
        image: &Image,
        fi: u32,
        mut args: Vec<i64>,
        ret_dst: Option<Reg>,
        depth: usize,
    ) -> Result<Frame, Fault> {
        if depth >= self.limits.max_call_depth {
            self.buf_pool.push(std::mem::take(&mut args));
            return Err(Fault::CallDepthExceeded);
        }
        let func = &image.funcs[fi as usize];
        let frame_bytes = ((func.frame_size as u64) + 15) & !15;
        if self.sp < self.stack_base + frame_bytes {
            self.buf_pool.push(std::mem::take(&mut args));
            return Err(Fault::StackOverflow { func: func.name.clone() });
        }
        let saved_sp = self.sp;
        self.sp -= frame_bytes;
        let frame_base = self.sp;
        let mut regs = self.take_buf();
        regs.clear();
        regs.resize(func.nregs as usize, 0);
        let n = (func.params as usize).min(args.len()).min(regs.len());
        regs[..n].copy_from_slice(&args[..n]);
        Ok(Frame { func: fi, pc: 0, regs, args, ret_dst, saved_sp, frame_base })
    }
}
