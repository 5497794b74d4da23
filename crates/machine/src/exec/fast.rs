//! The fast interpreter loop: one predecoded [`UOp`] load and one
//! `match` per guest instruction.
//!
//! Executes exactly the semantics of [`Machine::run_reference`] — same
//! results, same faults at the same `(func, pc)` sites, bit-identical
//! performance counters and profiles (differentially tested in
//! `tests/simperf.rs`) — but restructured for host throughput:
//!
//! * **Register file, program counter and I-cache in locals.** The
//!   reference loop re-fetches `frames.last_mut()` for nearly every
//!   operand access because the borrow checker can't see that
//!   `self.load(..)` leaves the frame stack alone. Here the running
//!   frame's registers are a local `Vec`, the pc is a local `usize`
//!   (synced to the [`Frame`] only across calls), and the I-cache is
//!   owned by the loop, so operand access and the hot counters compile
//!   to direct register/stack traffic.
//! * **Counters in registers.** The loop accumulates [`PerfCounters`] in
//!   a local and stores them back on exit (and around intrinsics, which
//!   may read the live cycle count via `__clock`), freeing LLVM to keep
//!   the hot counters in registers instead of memory.
//! * **One cycle charge per instruction.** Every deterministic cost is
//!   folded into [`UOp::cost`] at decode ([`super::static_cost`]), so
//!   the arms carry no accounting — only a taken/not-taken `Branch` and
//!   I-cache stalls charge dynamically.
//! * **One tag check per line run.** A *line run* is a stretch of
//!   straight-line instructions on one I-cache line, entered only at its
//!   first instruction. Only that first instruction has [`UOp::check`]
//!   set (as do all jump and branch targets, return points and
//!   line-straddling instructions; see [`super::CodePlan::build_all`]),
//!   so only it calls [`crate::ICache::access_line`]. The rest are hits
//!   by construction and only bump the cache's access count, so every
//!   counter stays exact.
//!
//! [`PerfCounters`]: crate::PerfCounters

use std::rc::Rc;

use crate::cpu::{Fault, Frame, Machine};
use crate::exec::{Op, UOp};

impl Machine {
    /// The fast interpreter loop. Observationally identical to
    /// [`Machine::run_reference`]; see the module docs for what changed.
    ///
    /// Dispatches to one of four monomorphized copies so the hot loop
    /// carries no per-instruction `profiling` / fetch-enabled branches.
    pub(crate) fn run_fast(&mut self, fi: u32, args: &[i64]) -> Result<i64, Fault> {
        match (self.profiling, self.costs.icache.miss_stall != 0) {
            (false, true) => self.run_fast_impl::<false, true>(fi, args),
            (false, false) => self.run_fast_impl::<false, false>(fi, args),
            (true, true) => self.run_fast_impl::<true, true>(fi, args),
            (true, false) => self.run_fast_impl::<true, false>(fi, args),
        }
    }

    fn run_fast_impl<const PROFILING: bool, const FETCH: bool>(
        &mut self,
        fi: u32,
        args: &[i64],
    ) -> Result<i64, Fault> {
        let image = Rc::clone(&self.image);
        let plans = Rc::clone(&self.fetch_plans);
        let costs = self.costs.clone();
        let miss_stall = costs.icache.miss_stall;
        let max_steps = self.limits.max_steps;
        let saved_sp = self.sp;

        let mut root_args = self.take_buf();
        root_args.clear();
        root_args.extend_from_slice(args);
        let mut fr = self.make_frame(&image, fi, root_args, None, 0)?;
        // The running frame's register file and program counter live in
        // locals; `fr` keeps the rest (VarArg storage, frame geometry,
        // return linkage). `fr.pc` is only synced at call sites (as the
        // return address) and `fr.regs` whenever the frame is suspended
        // or retired.
        let mut regs: Vec<i64> = std::mem::take(&mut fr.regs);
        let mut npc: usize = 0;
        let mut func = &image.funcs[fi as usize];
        let mut plan = &plans[fi as usize];
        let mut ops: &[UOp] = plan.ops.as_slice();
        // Suspended callers; the running frame is the local `fr`.
        let mut stack: Vec<Frame> = Vec::new();
        let mut ctr = self.counters;
        // Own the I-cache for the duration of the loop so its access/miss
        // counters live on the stack; restored after the loop (nothing
        // inside — loads, stores, intrinsics — reads it meanwhile).
        let mut icache =
            std::mem::replace(&mut self.icache, crate::ICache::placeholder(costs.icache));
        // Guest memory as a loop-owned local too: loads and stores then
        // compile to direct indexing off locals instead of round-tripping
        // through `self` (whose fields LLVM must conservatively reload).
        // Intrinsics do touch guest memory — packet and console I/O — so
        // the buffer is swapped back around each intrinsic call.
        let mut mem = std::mem::take(&mut self.mem);
        let mut mem_base = self.mem_base;
        let mut mem_top = self.mem_top;
        // Shared-bus handle in multi-core mode. A single predictable
        // `Option` branch in the Load/Store arms (always `None` on a
        // single-core machine) rather than doubling the monomorphized
        // combinations; in coherent mode `mem` is the empty placeholder
        // vector and every access goes through the bus.
        let coherence = self.coherence.clone();
        let mut steps: u64 = 0;

        let result = loop {
            steps += 1;
            if steps > max_steps {
                break Err(Fault::StepLimitExceeded);
            }
            let pc = npc;

            // Falling off the end of a function is an implicit `return 0`.
            let Some(op) = ops.get(pc) else {
                self.sp = fr.saved_sp;
                match stack.pop() {
                    Some(parent) => {
                        let dst = fr.ret_dst;
                        fr.regs = std::mem::take(&mut regs);
                        self.reclaim_frame(&mut fr);
                        fr = parent;
                        regs = std::mem::take(&mut fr.regs);
                        npc = fr.pc;
                        if let Some(d) = dst {
                            regs[d as usize] = 0;
                        }
                        func = &image.funcs[fr.func as usize];
                        plan = &plans[fr.func as usize];
                        ops = plan.ops.as_slice();
                    }
                    None => break Ok(0),
                }
                continue;
            };

            // Fetch: charge I-cache stalls off the predecoded line
            // metadata (skipped entirely when stalls are free, mirroring
            // `ICache::fetch`'s early return). Inside a line run the line
            // is resident: one access, no stall.
            if FETCH {
                if op.check {
                    let mut missed = icache.access_line(op.first);
                    if op.extra != 0 {
                        let start = op.rest as usize;
                        for &line in &plan.rest[start..start + op.extra as usize - 1] {
                            missed += icache.access_line(line);
                        }
                        missed += icache.access_line(op.last);
                    }
                    if missed != 0 {
                        let stall = missed * miss_stall;
                        ctr.icache_misses += missed;
                        ctr.ifetch_stall_cycles += stall;
                        ctr.cycles += stall;
                    }
                } else {
                    icache.count_hit();
                }
            }
            ctr.instructions += 1;
            // Every deterministic cycle this instruction charges (base +
            // operation costs), precomputed at decode.
            ctr.cycles += op.cost as u64;
            if PROFILING {
                self.prof_instrs[fr.func as usize] += 1;
            }

            npc = pc + 1;

            match op.code {
                Op::Const => regs[op.a as usize] = op.imm,
                Op::Mov => regs[op.a as usize] = regs[op.b as usize],
                Op::Add => {
                    regs[op.a as usize] = regs[op.b as usize].wrapping_add(regs[op.c as usize]);
                }
                Op::Sub => {
                    regs[op.a as usize] = regs[op.b as usize].wrapping_sub(regs[op.c as usize]);
                }
                Op::Mul => {
                    regs[op.a as usize] = regs[op.b as usize].wrapping_mul(regs[op.c as usize]);
                }
                Op::Div => {
                    let bv = regs[op.c as usize];
                    if bv == 0 {
                        break Err(Fault::DivByZero { func: func.name.clone(), at: pc });
                    }
                    regs[op.a as usize] = regs[op.b as usize].wrapping_div(bv);
                }
                Op::Rem => {
                    let bv = regs[op.c as usize];
                    if bv == 0 {
                        break Err(Fault::DivByZero { func: func.name.clone(), at: pc });
                    }
                    regs[op.a as usize] = regs[op.b as usize].wrapping_rem(bv);
                }
                Op::And => regs[op.a as usize] = regs[op.b as usize] & regs[op.c as usize],
                Op::Or => regs[op.a as usize] = regs[op.b as usize] | regs[op.c as usize],
                Op::Xor => regs[op.a as usize] = regs[op.b as usize] ^ regs[op.c as usize],
                Op::Shl => {
                    let bv = regs[op.c as usize];
                    regs[op.a as usize] = regs[op.b as usize].wrapping_shl((bv & 63) as u32);
                }
                Op::Shr => {
                    let bv = regs[op.c as usize];
                    regs[op.a as usize] = regs[op.b as usize].wrapping_shr((bv & 63) as u32);
                }
                Op::Eq => {
                    regs[op.a as usize] = (regs[op.b as usize] == regs[op.c as usize]) as i64;
                }
                Op::Ne => {
                    regs[op.a as usize] = (regs[op.b as usize] != regs[op.c as usize]) as i64;
                }
                Op::Lt => {
                    regs[op.a as usize] = (regs[op.b as usize] < regs[op.c as usize]) as i64;
                }
                Op::Le => {
                    regs[op.a as usize] = (regs[op.b as usize] <= regs[op.c as usize]) as i64;
                }
                Op::Gt => {
                    regs[op.a as usize] = (regs[op.b as usize] > regs[op.c as usize]) as i64;
                }
                Op::Ge => {
                    regs[op.a as usize] = (regs[op.b as usize] >= regs[op.c as usize]) as i64;
                }
                Op::Neg => regs[op.a as usize] = regs[op.b as usize].wrapping_neg(),
                Op::Not => regs[op.a as usize] = (regs[op.b as usize] == 0) as i64,
                Op::BitNot => regs[op.a as usize] = !regs[op.b as usize],
                Op::Load1 | Op::Load2 | Op::Load4 | Op::Load8 => {
                    // Inline `Machine::load` against the loop-local memory
                    // (bounds rule and widening exactly as `mem_index`).
                    let len = match op.code {
                        Op::Load1 => 1,
                        Op::Load2 => 2,
                        Op::Load4 => 4,
                        _ => 8,
                    };
                    let a = (regs[op.b as usize] as u64).wrapping_add_signed(op.imm);
                    if a < mem_base || a.saturating_add(len) > mem_top {
                        break Err(Fault::MemOutOfBounds {
                            addr: a,
                            func: func.name.clone(),
                            at: pc,
                        });
                    }
                    regs[op.a as usize] = if let Some(co) = &coherence {
                        let mut b = [0u8; 8];
                        let cost = co.bus.borrow_mut().read(co.core, a, &mut b[..len as usize]);
                        Machine::charge_access(&mut ctr, cost);
                        match op.code {
                            Op::Load1 => b[0] as i64,
                            Op::Load2 => u16::from_le_bytes([b[0], b[1]]) as i64,
                            Op::Load4 => i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as i64,
                            _ => i64::from_le_bytes(b),
                        }
                    } else {
                        let i = (a - mem_base) as usize;
                        match op.code {
                            Op::Load1 => mem[i] as i64,
                            Op::Load2 => u16::from_le_bytes([mem[i], mem[i + 1]]) as i64,
                            Op::Load4 => {
                                i32::from_le_bytes([mem[i], mem[i + 1], mem[i + 2], mem[i + 3]])
                                    as i64
                            }
                            _ => i64::from_le_bytes(mem[i..i + 8].try_into().expect("8 bytes")),
                        }
                    };
                }
                Op::Store1 | Op::Store2 | Op::Store4 | Op::Store8 => {
                    let len = match op.code {
                        Op::Store1 => 1,
                        Op::Store2 => 2,
                        Op::Store4 => 4,
                        _ => 8,
                    };
                    let a = (regs[op.a as usize] as u64).wrapping_add_signed(op.imm);
                    if a < mem_base || a.saturating_add(len) > mem_top {
                        break Err(Fault::MemOutOfBounds {
                            addr: a,
                            func: func.name.clone(),
                            at: pc,
                        });
                    }
                    let v = regs[op.b as usize];
                    if let Some(co) = &coherence {
                        let b = v.to_le_bytes();
                        let cost = co.bus.borrow_mut().write(co.core, a, &b[..len as usize]);
                        Machine::charge_access(&mut ctr, cost);
                    } else {
                        let i = (a - mem_base) as usize;
                        match op.code {
                            Op::Store1 => mem[i] = v as u8,
                            Op::Store2 => mem[i..i + 2].copy_from_slice(&(v as u16).to_le_bytes()),
                            Op::Store4 => mem[i..i + 4].copy_from_slice(&(v as u32).to_le_bytes()),
                            _ => mem[i..i + 8].copy_from_slice(&v.to_le_bytes()),
                        }
                    }
                }
                Op::FrameAddr => {
                    regs[op.a as usize] = fr.frame_base.wrapping_add_signed(op.imm) as i64;
                }
                Op::VarArg => {
                    let i = func.params as usize + regs[op.b as usize].max(0) as usize;
                    regs[op.a as usize] = fr.args.get(i).copied().unwrap_or(0);
                }
                Op::CallFunc => {
                    let argc = op.b as usize;
                    let start = op.c as usize;
                    let tf = op.imm as u32;
                    let dst = if op.a == 0 { None } else { Some(op.a - 1) };
                    ctr.calls += 1;
                    let mut argv = self.take_buf();
                    argv.clear();
                    argv.extend(
                        plan.call_args[start..start + argc].iter().map(|r| regs[*r as usize]),
                    );
                    if PROFILING {
                        *self.prof_edges.entry((fr.func, tf, false)).or_insert(0) += 1;
                    }
                    match self.make_frame(&image, tf, argv, dst, stack.len() + 1) {
                        Ok(mut callee) => {
                            fr.pc = npc;
                            fr.regs = std::mem::take(&mut regs);
                            regs = std::mem::take(&mut callee.regs);
                            stack.push(std::mem::replace(&mut fr, callee));
                            npc = 0;
                            func = &image.funcs[tf as usize];
                            plan = &plans[tf as usize];
                            ops = plan.ops.as_slice();
                        }
                        Err(e) => break Err(e),
                    }
                }
                Op::CallIntr => {
                    let argc = op.b as usize;
                    let start = op.c as usize;
                    let id = op.imm as u32;
                    let dst = op.a;
                    ctr.intrinsic_calls += 1;
                    let mut argv = self.take_buf();
                    argv.clear();
                    argv.extend(
                        plan.call_args[start..start + argc].iter().map(|r| regs[*r as usize]),
                    );
                    if PROFILING {
                        *self.prof_intrinsics.entry((fr.func, id, false)).or_insert(0) += 1;
                    }
                    let iop = self.intrinsic_ops[id as usize];
                    // Intrinsics observe (and charge) the live counters —
                    // `__clock` reads `cycles` — and touch guest memory,
                    // so sync the counters and swap both back around the
                    // call.
                    self.counters = ctr;
                    std::mem::swap(&mut self.mem, &mut mem);
                    let r = self.intrinsic(iop, &argv);
                    std::mem::swap(&mut self.mem, &mut mem);
                    mem_base = self.mem_base;
                    mem_top = self.mem_top;
                    ctr = self.counters;
                    self.buf_pool.push(argv);
                    match r {
                        Ok(v) => {
                            if dst != 0 {
                                regs[(dst - 1) as usize] = v;
                            }
                        }
                        Err(e) => break Err(e),
                    }
                }
                Op::CallInd => {
                    let argc = op.b as usize;
                    let start = op.c as usize;
                    let dst = if op.a == 0 { None } else { Some(op.a - 1) };
                    ctr.indirect_calls += 1;
                    let ptr = regs[op.imm as usize];
                    let mut argv = self.take_buf();
                    argv.clear();
                    argv.extend(
                        plan.call_args[start..start + argc].iter().map(|r| regs[*r as usize]),
                    );
                    if let Some(tf) = image.func_at_addr(ptr as u64) {
                        if PROFILING {
                            *self.prof_edges.entry((fr.func, tf, true)).or_insert(0) += 1;
                        }
                        match self.make_frame(&image, tf, argv, dst, stack.len() + 1) {
                            Ok(mut callee) => {
                                fr.pc = npc;
                                fr.regs = std::mem::take(&mut regs);
                                regs = std::mem::take(&mut callee.regs);
                                stack.push(std::mem::replace(&mut fr, callee));
                                npc = 0;
                                func = &image.funcs[tf as usize];
                                plan = &plans[tf as usize];
                                ops = plan.ops.as_slice();
                            }
                            Err(e) => break Err(e),
                        }
                    } else if let Some(id) = image.intrinsic_at_addr(ptr as u64) {
                        ctr.intrinsic_calls += 1;
                        if PROFILING {
                            *self.prof_intrinsics.entry((fr.func, id, true)).or_insert(0) += 1;
                        }
                        let iop = self.intrinsic_ops[id as usize];
                        self.counters = ctr;
                        std::mem::swap(&mut self.mem, &mut mem);
                        let r = self.intrinsic(iop, &argv);
                        std::mem::swap(&mut self.mem, &mut mem);
                        mem_base = self.mem_base;
                        mem_top = self.mem_top;
                        ctr = self.counters;
                        self.buf_pool.push(argv);
                        match r {
                            Ok(v) => {
                                if let Some(d) = dst {
                                    regs[d as usize] = v;
                                }
                            }
                            Err(e) => break Err(e),
                        }
                    } else {
                        self.buf_pool.push(argv);
                        break Err(Fault::BadFunctionPointer {
                            value: ptr,
                            func: func.name.clone(),
                            at: pc,
                        });
                    }
                }
                Op::Jump => {
                    npc = op.imm as usize;
                }
                Op::Branch => {
                    let taken = regs[op.a as usize] != 0;
                    // Model a simple not-taken-predicted branch.
                    ctr.cycles += if taken { costs.branch_taken } else { costs.branch_not_taken };
                    npc = if taken { op.b as usize } else { op.c as usize };
                }
                Op::Ret => {
                    let v = if op.a == 0 { 0 } else { regs[(op.a - 1) as usize] };
                    self.sp = fr.saved_sp;
                    match stack.pop() {
                        Some(parent) => {
                            let dst = fr.ret_dst;
                            fr.regs = std::mem::take(&mut regs);
                            self.reclaim_frame(&mut fr);
                            fr = parent;
                            regs = std::mem::take(&mut fr.regs);
                            npc = fr.pc;
                            if let Some(d) = dst {
                                regs[d as usize] = v;
                            }
                            func = &image.funcs[fr.func as usize];
                            plan = &plans[fr.func as usize];
                            ops = plan.ops.as_slice();
                        }
                        None => break Ok(v),
                    }
                }
                Op::Nop => {}
            }
        };

        // Store the counters, cache and memory back, recycle every
        // remaining frame (on fault the whole stack is abandoned), and
        // restore the stack pointer.
        self.counters = ctr;
        self.icache = icache;
        self.mem = mem;
        fr.regs = std::mem::take(&mut regs);
        self.reclaim_frame(&mut fr);
        for mut f in stack {
            self.reclaim_frame(&mut f);
        }
        self.sp = saved_sp;
        result
    }
}
