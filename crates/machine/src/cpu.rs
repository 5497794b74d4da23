//! The CPU interpreter.
//!
//! Executes a linked [`Image`] one instruction at a time, charging cycles
//! per the [`CostModel`] and instruction-fetch stalls per the I-cache
//! simulator. Guest code reaches the outside world only through the
//! runtime intrinsics listed in [`INTRINSIC_NAMES`].
//!
//! Two tiers ([`ExecMode`]) run the same image: the reference loop in
//! this file, the oracle that defines the counter semantics, and the
//! predecoded fast loop in `exec/fast.rs`, the default. They are
//! bit-identical in everything a guest or a measurement can observe.

use std::collections::BTreeMap;
use std::rc::Rc;

use cobj::image::{CallTarget, Image, RInstr};
use cobj::ir::{Reg, Width};

use crate::cache::ICache;
use crate::costs::CostModel;
use crate::dev::{Console, NetDev};
use crate::mesi::{AccessCost, Bus};
use crate::profile::{CallEdge, FuncCount, Profile};

/// A core's handle onto the shared coherent bus: when present, every
/// guest load/store goes through the bus's MESI protocol (and host
/// accesses use coherent-DMA semantics) instead of the machine-local
/// `mem` vector. Installed by [`crate::MultiMachine`]; `None` on a
/// single-core machine, whose direct memory path is untouched.
#[derive(Clone)]
pub(crate) struct Coherence {
    pub(crate) bus: std::rc::Rc<std::cell::RefCell<Bus>>,
    pub(crate) core: usize,
}

/// Sign/zero-extend little-endian bytes exactly as [`Machine::load`]
/// does against flat memory (W1/W2 zero-extend, W4 sign-extends).
#[inline]
pub(crate) fn widen(width: Width, b: &[u8; 8]) -> i64 {
    match width {
        Width::W1 => b[0] as i64,
        Width::W2 => u16::from_le_bytes([b[0], b[1]]) as i64,
        Width::W4 => i32::from_le_bytes([b[0], b[1], b[2], b[3]]) as i64,
        Width::W8 => i64::from_le_bytes(*b),
    }
}

/// Intrinsics provided by the runtime, by name. The id of an intrinsic in a
/// linked image is the index of its name in the image's own (sorted)
/// intrinsic table, so dispatch here is by name at `Machine` construction.
pub const INTRINSIC_NAMES: &[&str] = &[
    "__abort",
    "__brk",
    "__clock",
    "__con_getc",
    "__con_putc",
    "__halt",
    "__net_poll",
    "__net_rx",
    "__net_tx",
    "__serial_getc",
    "__serial_putc",
    "__trace",
];

/// Resolved intrinsic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intrinsic {
    Abort,
    Brk,
    Clock,
    ConGetc,
    ConPutc,
    Halt,
    NetPoll,
    NetRx,
    NetTx,
    SerialGetc,
    SerialPutc,
    Trace,
}

fn intrinsic_by_name(name: &str) -> Option<Intrinsic> {
    Some(match name {
        "__abort" => Intrinsic::Abort,
        "__brk" => Intrinsic::Brk,
        "__clock" => Intrinsic::Clock,
        "__con_getc" => Intrinsic::ConGetc,
        "__con_putc" => Intrinsic::ConPutc,
        "__halt" => Intrinsic::Halt,
        "__net_poll" => Intrinsic::NetPoll,
        "__net_rx" => Intrinsic::NetRx,
        "__net_tx" => Intrinsic::NetTx,
        "__serial_getc" => Intrinsic::SerialGetc,
        "__serial_putc" => Intrinsic::SerialPutc,
        "__trace" => Intrinsic::Trace,
        _ => return None,
    })
}

/// Execution faults. `Halted` is the normal outcome of `__halt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Memory access outside the data/heap/stack region.
    MemOutOfBounds { addr: u64, func: String, at: usize },
    /// Integer division or remainder by zero.
    DivByZero { func: String, at: usize },
    /// Indirect call through a value that is no function's address.
    BadFunctionPointer { value: i64, func: String, at: usize },
    /// The stack region was exhausted.
    StackOverflow { func: String },
    /// Too many nested calls.
    CallDepthExceeded,
    /// The step budget ran out (likely an infinite loop in guest code).
    StepLimitExceeded,
    /// Guest executed `__halt(code)`.
    Halted(i64),
    /// Guest executed `__abort(code)`.
    Aborted(i64),
    /// `Machine::call` was given an unknown function name.
    NoSuchFunction(String),
    /// `__brk` could not satisfy an allocation.
    OutOfHeap { requested: u64 },
    /// The image references a runtime symbol this machine does not provide.
    UnknownIntrinsic(String),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::MemOutOfBounds { addr, func, at } => {
                write!(f, "memory access at {addr:#x} out of bounds in `{func}` @{at}")
            }
            Fault::DivByZero { func, at } => write!(f, "division by zero in `{func}` @{at}"),
            Fault::BadFunctionPointer { value, func, at } => {
                write!(f, "indirect call through bad pointer {value:#x} in `{func}` @{at}")
            }
            Fault::StackOverflow { func } => write!(f, "stack overflow entering `{func}`"),
            Fault::CallDepthExceeded => write!(f, "call depth exceeded"),
            Fault::StepLimitExceeded => write!(f, "step limit exceeded"),
            Fault::Halted(c) => write!(f, "halted with code {c}"),
            Fault::Aborted(c) => write!(f, "aborted with code {c}"),
            Fault::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            Fault::OutOfHeap { requested } => {
                write!(f, "out of heap ({requested} bytes requested)")
            }
            Fault::UnknownIntrinsic(n) => write!(f, "unknown runtime symbol `{n}`"),
        }
    }
}

impl std::error::Error for Fault {}

/// Execution limits and memory-region sizes.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum instructions executed per `call`.
    pub max_steps: u64,
    /// Maximum call nesting.
    pub max_call_depth: usize,
    /// Bytes of heap available to `__brk`.
    pub heap_size: u64,
    /// Bytes of stack.
    pub stack_size: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_steps: 500_000_000,
            max_call_depth: 4096,
            heap_size: 8 << 20,
            stack_size: 1 << 20,
        }
    }
}

/// Performance counters — the simulated equivalents of the Pentium Pro
/// counters the paper reads for Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Total cycles, including fetch stalls.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Instruction-fetch stall cycles (the paper's "instr. fetch stall
    /// cycles" column).
    pub ifetch_stall_cycles: u64,
    /// I-cache line misses.
    pub icache_misses: u64,
    /// Direct calls executed.
    pub calls: u64,
    /// Indirect calls executed.
    pub indirect_calls: u64,
    /// Intrinsic (device) calls executed.
    pub intrinsic_calls: u64,
    /// D-cache line misses (multi-core coherent mode only; zero on a
    /// single-core machine, whose data accesses are flat-cost).
    pub dcache_misses: u64,
    /// D-cache misses served by snooping a Modified line out of another
    /// core's cache (a subset of `dcache_misses`).
    pub coherence_misses: u64,
    /// Copies in *other* caches invalidated by this core's writes.
    pub invalidations: u64,
    /// Cycles this core stalled on bus transactions (miss fills,
    /// upgrades, drained write-backs); included in `cycles`.
    pub bus_stall_cycles: u64,
}

impl PerfCounters {
    /// Counter-wise difference `self - earlier` (for per-packet deltas).
    pub fn delta_since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            ifetch_stall_cycles: self.ifetch_stall_cycles - earlier.ifetch_stall_cycles,
            icache_misses: self.icache_misses - earlier.icache_misses,
            calls: self.calls - earlier.calls,
            indirect_calls: self.indirect_calls - earlier.indirect_calls,
            intrinsic_calls: self.intrinsic_calls - earlier.intrinsic_calls,
            dcache_misses: self.dcache_misses - earlier.dcache_misses,
            coherence_misses: self.coherence_misses - earlier.coherence_misses,
            invalidations: self.invalidations - earlier.invalidations,
            bus_stall_cycles: self.bus_stall_cycles - earlier.bus_stall_cycles,
        }
    }
}

/// Which execution tier runs guest code. Both produce bit-identical
/// results, faults, performance counters, and profiles; they differ only
/// in host wall-clock (see DESIGN.md on interpreter internals, and
/// EXPERIMENTS.md "Simulator throughput" for the measured gap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The predecoded, frame-pooled hot loop (the default).
    #[default]
    Fast,
    /// The original one-instruction-at-a-time loop, retained verbatim as
    /// the differential-testing oracle.
    Reference,
}

impl ExecMode {
    /// The stable lowercase name used in JSON artifacts.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::Fast => "fast",
            ExecMode::Reference => "reference",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One activation record.
pub(crate) struct Frame {
    pub(crate) func: u32,
    pub(crate) pc: usize,
    pub(crate) regs: Vec<i64>,
    pub(crate) args: Vec<i64>,
    pub(crate) ret_dst: Option<Reg>,
    pub(crate) saved_sp: u64,
    /// Lowest address of this frame's stack storage; `FrameAddr` offsets
    /// are relative to this.
    pub(crate) frame_base: u64,
}

/// The simulated machine: one image, one CPU, memory, devices, counters.
pub struct Machine {
    pub(crate) image: Rc<Image>,
    pub(crate) costs: CostModel,
    pub(crate) limits: RunLimits,
    pub(crate) icache: ICache,
    pub(crate) counters: PerfCounters,
    /// Data + heap + stack, covering `[mem_base, mem_base + mem.len())`.
    pub(crate) mem: Vec<u8>,
    pub(crate) mem_base: u64,
    pub(crate) heap_next: u64,
    pub(crate) heap_end: u64,
    pub(crate) stack_base: u64,
    pub(crate) mem_top: u64,
    pub(crate) sp: u64,
    /// Shared-bus handle in multi-core mode; see [`Coherence`].
    pub(crate) coherence: Option<Coherence>,
    pub(crate) intrinsic_ops: Vec<Intrinsic>,
    /// Interpreter selection; see [`ExecMode`].
    pub(crate) exec_mode: ExecMode,
    /// Per-function predecoded fetch metadata for the fast loop (parallel
    /// to `image.funcs`); computed once at construction.
    pub(crate) fetch_plans: Rc<Vec<crate::exec::CodePlan>>,
    /// Recycled register/argument buffers for the fast loop's frames.
    pub(crate) buf_pool: Vec<Vec<i64>>,
    /// When true, every call edge and per-function instruction count is
    /// recorded (see [`Machine::profile`]). Off by default: profiling has
    /// zero effect on execution, counters, or images.
    pub(crate) profiling: bool,
    /// (caller func idx, callee func idx, indirect) → calls.
    pub(crate) prof_edges: BTreeMap<(u32, u32, bool), u64>,
    /// (caller func idx, intrinsic id, indirect) → calls.
    pub(crate) prof_intrinsics: BTreeMap<(u32, u32, bool), u64>,
    /// Instructions retired per image function (indexed by func idx).
    pub(crate) prof_instrs: Vec<u64>,
    /// Console device (the "VGA" screen).
    pub console: Console,
    /// Second console device (the "serial" line).
    pub serial: Console,
    /// Network devices, indexed by the `dev` argument of the net intrinsics.
    pub netdevs: Vec<NetDev>,
    /// Values recorded by `__trace`.
    pub trace: Vec<i64>,
}

impl Machine {
    /// Build a machine for `image` with default costs and limits.
    pub fn new(image: Image) -> Result<Machine, Fault> {
        Machine::with_costs(image, CostModel::default())
    }

    /// Build a machine with an explicit cost model.
    pub fn with_costs(image: Image, costs: CostModel) -> Result<Machine, Fault> {
        Machine::with_config(image, costs, RunLimits::default())
    }

    /// Build a machine with explicit costs and limits.
    pub fn with_config(
        image: Image,
        costs: CostModel,
        limits: RunLimits,
    ) -> Result<Machine, Fault> {
        let fetch_plans = Rc::new(crate::exec::CodePlan::build_all(&image, &costs));
        Machine::from_shared(Rc::new(image), fetch_plans, costs, limits)
    }

    /// Build a machine sharing an already-predecoded image (how
    /// [`crate::MultiMachine`] avoids redoing `CodePlan::build_all` per
    /// core). The plans must have been built for `image` under `costs`.
    pub(crate) fn from_shared(
        image: Rc<Image>,
        fetch_plans: Rc<Vec<crate::exec::CodePlan>>,
        costs: CostModel,
        limits: RunLimits,
    ) -> Result<Machine, Fault> {
        let mut intrinsic_ops = Vec::with_capacity(image.intrinsics.len());
        for name in &image.intrinsics {
            match intrinsic_by_name(name) {
                Some(op) => intrinsic_ops.push(op),
                None => return Err(Fault::UnknownIntrinsic(name.clone())),
            }
        }
        let mem_base = image.data_base;
        let heap_base = image.heap_base;
        let heap_end = heap_base + limits.heap_size;
        let stack_base = heap_end;
        let mem_top = stack_base + limits.stack_size;
        let mut mem = vec![0u8; (mem_top - mem_base) as usize];
        mem[..image.data.len()].copy_from_slice(&image.data);
        let icache = ICache::new(costs.icache);
        Ok(Machine {
            image,
            costs,
            limits,
            icache,
            counters: PerfCounters::default(),
            mem,
            mem_base,
            heap_next: heap_base,
            heap_end,
            stack_base,
            mem_top,
            sp: mem_top,
            coherence: None,
            intrinsic_ops,
            exec_mode: ExecMode::default(),
            fetch_plans,
            buf_pool: Vec::new(),
            profiling: false,
            prof_edges: BTreeMap::new(),
            prof_intrinsics: BTreeMap::new(),
            prof_instrs: Vec::new(),
            console: Console::default(),
            serial: Console::default(),
            netdevs: vec![NetDev::default(); 4],
            trace: Vec::new(),
        })
    }

    /// The linked image this machine executes.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Current counter values.
    pub fn counters(&self) -> PerfCounters {
        self.counters
    }

    /// Select which execution tier runs guest code. Both modes are
    /// observationally identical (results, faults, counters, profiles);
    /// [`ExecMode::Reference`] exists as the oracle of the differential
    /// tests (`tests/simperf.rs`, `tests/mc.rs` and the bench smoke tests).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The interpreter loop currently in use.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Zero the counters and I-cache statistics (cache contents stay warm).
    pub fn reset_counters(&mut self) {
        self.counters = PerfCounters::default();
        self.icache.reset_stats();
    }

    /// Cold-reset the I-cache (contents and statistics).
    pub fn flush_icache(&mut self) {
        self.icache.reset();
    }

    /// Enable or disable call-edge + instruction-count profiling. Counts
    /// accumulate across calls until [`Machine::clear_profile`]; turning
    /// profiling off keeps what was already recorded.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
        if on && self.prof_instrs.len() != self.image.funcs.len() {
            self.prof_instrs = vec![0; self.image.funcs.len()];
        }
    }

    /// Whether profiling is currently enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Discard all recorded profile data (profiling stays in its current
    /// enabled/disabled state).
    pub fn clear_profile(&mut self) {
        self.prof_edges.clear();
        self.prof_intrinsics.clear();
        for c in &mut self.prof_instrs {
            *c = 0;
        }
    }

    /// Snapshot the recorded profile: call edges (direct, indirect, and
    /// intrinsic callees) plus per-function instruction counts, keyed by
    /// link-level names. Same-named functions (e.g. `static`s kept apart
    /// by the linker) are aggregated under their shared name.
    pub fn profile(&self) -> Profile {
        let fname = |fi: u32| self.image.funcs[fi as usize].name.as_str();
        let mut edges: BTreeMap<(String, String, bool), u64> = BTreeMap::new();
        for (&(caller, callee, indirect), &n) in &self.prof_edges {
            *edges
                .entry((fname(caller).to_string(), fname(callee).to_string(), indirect))
                .or_insert(0) += n;
        }
        for (&(caller, id, indirect), &n) in &self.prof_intrinsics {
            *edges
                .entry((
                    fname(caller).to_string(),
                    self.image.intrinsics[id as usize].clone(),
                    indirect,
                ))
                .or_insert(0) += n;
        }
        let mut funcs: BTreeMap<String, u64> = BTreeMap::new();
        for (fi, &n) in self.prof_instrs.iter().enumerate() {
            if n > 0 {
                *funcs.entry(self.image.funcs[fi].name.clone()).or_insert(0) += n;
            }
        }
        Profile {
            edges: edges
                .into_iter()
                .map(|((caller, callee, indirect), count)| CallEdge {
                    caller,
                    callee,
                    indirect,
                    count,
                })
                .collect(),
            funcs: funcs
                .into_iter()
                .map(|(name, instructions)| FuncCount { name, instructions })
                .collect(),
        }
    }

    /// Read `len` bytes of guest memory. Host-side accesses use
    /// coherent-DMA semantics in multi-core mode (dirty cache lines are
    /// flushed so the bytes are current); no core is charged cycles.
    pub fn read_mem(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        let i = self.mem_index(addr, len as u64, "<host>", 0)?;
        if let Some(co) = &self.coherence {
            let mut out = vec![0u8; len];
            co.bus.borrow_mut().dma_read(addr, &mut out);
            return Ok(out);
        }
        Ok(self.mem[i..i + len].to_vec())
    }

    /// Write bytes into guest memory. In multi-core mode this is a
    /// coherent DMA write: cached copies of the touched lines are
    /// invalidated so every core observes the new bytes.
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Fault> {
        let i = self.mem_index(addr, bytes.len() as u64, "<host>", 0)?;
        if let Some(co) = &self.coherence {
            co.bus.borrow_mut().dma_write(addr, bytes);
            return Ok(());
        }
        self.mem[i..i + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Read a NUL-terminated guest string (at most `max` bytes).
    pub fn read_cstr(&self, addr: u64, max: usize) -> Result<String, Fault> {
        let mut out = Vec::new();
        for i in 0..max as u64 {
            let b = self.read_mem(addr + i, 1)?[0];
            if b == 0 {
                break;
            }
            out.push(b);
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }

    /// Allocate guest heap memory from the host side (for staging inputs).
    pub fn host_alloc(&mut self, len: u64) -> Result<u64, Fault> {
        self.brk(len)
    }

    #[inline]
    fn mem_index(&self, addr: u64, len: u64, func: &str, at: usize) -> Result<usize, Fault> {
        if addr < self.mem_base || addr.saturating_add(len) > self.mem_top {
            return Err(Fault::MemOutOfBounds { addr, func: func.to_string(), at });
        }
        Ok((addr - self.mem_base) as usize)
    }

    fn brk(&mut self, n: u64) -> Result<u64, Fault> {
        let aligned = (n + 15) & !15;
        if self.heap_next + aligned > self.heap_end {
            return Err(Fault::OutOfHeap { requested: n });
        }
        let addr = self.heap_next;
        self.heap_next += aligned;
        Ok(addr)
    }

    /// Call the image's entry function (as recorded at link time) with no
    /// arguments. A guest `__halt(code)` is reported as `Ok(code)`.
    pub fn run_entry(&mut self) -> Result<i64, Fault> {
        let entry = self.image.entry.ok_or_else(|| Fault::NoSuchFunction("<entry>".into()))?;
        match self.call_idx(entry, &[]) {
            Ok(v) => Ok(v),
            Err(Fault::Halted(c)) => Ok(c),
            Err(e) => Err(e),
        }
    }

    /// Call a function by link-level name.
    pub fn call(&mut self, name: &str, args: &[i64]) -> Result<i64, Fault> {
        let fi =
            self.image.func_by_name(name).ok_or_else(|| Fault::NoSuchFunction(name.to_string()))?;
        self.call_idx(fi, args)
    }

    /// Call a function by image index.
    pub fn call_idx(&mut self, fi: u32, args: &[i64]) -> Result<i64, Fault> {
        match self.exec_mode {
            ExecMode::Fast => self.run_fast(fi, args),
            ExecMode::Reference => self.run_reference(fi, args),
        }
    }

    /// The original interpreter loop, kept verbatim: the oracle every
    /// fast-path change is differentially tested against.
    pub(crate) fn run_reference(&mut self, fi: u32, args: &[i64]) -> Result<i64, Fault> {
        let image = Rc::clone(&self.image);
        let saved_sp = self.sp;
        let mut frames: Vec<Frame> = Vec::new();
        self.push_frame(&image, &mut frames, fi, args.to_vec(), None)?;
        let mut steps: u64 = 0;

        let result = loop {
            steps += 1;
            if steps > self.limits.max_steps {
                break Err(Fault::StepLimitExceeded);
            }
            let (func_idx, pc) = {
                let fr = frames.last().expect("frame stack never empty in loop");
                (fr.func, fr.pc)
            };
            let func = &image.funcs[func_idx as usize];

            // Falling off the end of a function is an implicit `return 0`.
            if pc >= func.body.len() {
                let v = 0;
                if !self.pop_frame(&mut frames, v) {
                    break Ok(v);
                }
                continue;
            }

            // Fetch: charge base cost + I-cache stalls.
            let misses_before = self.icache.misses();
            let stall = self.icache.fetch(func.instr_addrs[pc], func.instr_sizes[pc] as u64);
            self.counters.icache_misses += self.icache.misses() - misses_before;
            self.counters.ifetch_stall_cycles += stall;
            self.counters.cycles += stall;
            self.counters.instructions += 1;
            self.counters.cycles += self.costs.base;
            if self.profiling {
                self.prof_instrs[func_idx as usize] += 1;
            }

            let fr = frames.last_mut().expect("frame stack never empty in loop");
            fr.pc = pc + 1;

            match &func.body[pc] {
                RInstr::Const { dst, value } => fr.regs[*dst as usize] = *value,
                RInstr::Mov { dst, src } => fr.regs[*dst as usize] = fr.regs[*src as usize],
                RInstr::Bin { op, dst, a, b } => {
                    use cobj::ir::BinOp;
                    match op {
                        BinOp::Mul => self.counters.cycles += self.costs.mul,
                        BinOp::Div | BinOp::Rem => self.counters.cycles += self.costs.div,
                        _ => {}
                    }
                    let av = fr.regs[*a as usize];
                    let bv = fr.regs[*b as usize];
                    match op.eval(av, bv) {
                        Some(v) => fr.regs[*dst as usize] = v,
                        None => break Err(Fault::DivByZero { func: func.name.clone(), at: pc }),
                    }
                }
                RInstr::Un { op, dst, a } => {
                    fr.regs[*dst as usize] = op.eval(fr.regs[*a as usize]);
                }
                RInstr::Load { dst, addr, offset, width } => {
                    self.counters.cycles += self.costs.load;
                    let a = (fr.regs[*addr as usize] as u64).wrapping_add_signed(*offset);
                    let v = match self.load(a, *width, &func.name, pc) {
                        Ok(v) => v,
                        Err(e) => break Err(e),
                    };
                    frames.last_mut().expect("frame").regs[*dst as usize] = v;
                }
                RInstr::Store { addr, offset, src, width } => {
                    self.counters.cycles += self.costs.store;
                    let a = (fr.regs[*addr as usize] as u64).wrapping_add_signed(*offset);
                    let v = fr.regs[*src as usize];
                    if let Err(e) = self.store(a, *width, v, &func.name, pc) {
                        break Err(e);
                    }
                }
                RInstr::FrameAddr { dst, offset } => {
                    fr.regs[*dst as usize] = fr.frame_base.wrapping_add_signed(*offset) as i64;
                }
                RInstr::VarArg { dst, idx } => {
                    let i = func.params as usize + fr.regs[*idx as usize].max(0) as usize;
                    fr.regs[*dst as usize] = fr.args.get(i).copied().unwrap_or(0);
                }
                RInstr::Call { dst, target, args } => {
                    self.counters.cycles +=
                        self.costs.call_overhead + self.costs.call_per_arg * args.len() as u64;
                    let argv: Vec<i64> = args.iter().map(|r| fr.regs[*r as usize]).collect();
                    match target {
                        CallTarget::Func(tf) => {
                            self.counters.calls += 1;
                            let tf = *tf;
                            let dst = *dst;
                            if self.profiling {
                                *self.prof_edges.entry((func_idx, tf, false)).or_insert(0) += 1;
                            }
                            if let Err(e) = self.push_frame(&image, &mut frames, tf, argv, dst) {
                                break Err(e);
                            }
                        }
                        CallTarget::Intrinsic(id) => {
                            self.counters.intrinsic_calls += 1;
                            if self.profiling {
                                *self.prof_intrinsics.entry((func_idx, *id, false)).or_insert(0) +=
                                    1;
                            }
                            let op = self.intrinsic_ops[*id as usize];
                            let dst = *dst;
                            match self.intrinsic(op, &argv) {
                                Ok(v) => {
                                    if let Some(d) = dst {
                                        frames.last_mut().expect("frame").regs[d as usize] = v;
                                    }
                                }
                                Err(e) => break Err(e),
                            }
                        }
                    }
                }
                RInstr::CallInd { dst, target, args } => {
                    self.counters.cycles += self.costs.call_overhead
                        + self.costs.call_per_arg * args.len() as u64
                        + self.costs.indirect_call_penalty;
                    self.counters.indirect_calls += 1;
                    let ptr = fr.regs[*target as usize];
                    let argv: Vec<i64> = args.iter().map(|r| fr.regs[*r as usize]).collect();
                    let dst = *dst;
                    if let Some(tf) = image.func_at_addr(ptr as u64) {
                        if self.profiling {
                            *self.prof_edges.entry((func_idx, tf, true)).or_insert(0) += 1;
                        }
                        if let Err(e) = self.push_frame(&image, &mut frames, tf, argv, dst) {
                            break Err(e);
                        }
                    } else if let Some(id) = image.intrinsic_at_addr(ptr as u64) {
                        self.counters.intrinsic_calls += 1;
                        if self.profiling {
                            *self.prof_intrinsics.entry((func_idx, id, true)).or_insert(0) += 1;
                        }
                        let op = self.intrinsic_ops[id as usize];
                        match self.intrinsic(op, &argv) {
                            Ok(v) => {
                                if let Some(d) = dst {
                                    frames.last_mut().expect("frame").regs[d as usize] = v;
                                }
                            }
                            Err(e) => break Err(e),
                        }
                    } else {
                        break Err(Fault::BadFunctionPointer {
                            value: ptr,
                            func: func.name.clone(),
                            at: pc,
                        });
                    }
                }
                RInstr::Jump { target } => {
                    self.counters.cycles += self.costs.jump;
                    fr.pc = *target;
                }
                RInstr::Branch { cond, then_to, else_to } => {
                    let taken = fr.regs[*cond as usize] != 0;
                    // Model a simple not-taken-predicted branch.
                    self.counters.cycles +=
                        if taken { self.costs.branch_taken } else { self.costs.branch_not_taken };
                    fr.pc = if taken { *then_to } else { *else_to };
                }
                RInstr::Ret { value } => {
                    self.counters.cycles += self.costs.ret_overhead;
                    let v = value.map(|r| fr.regs[r as usize]).unwrap_or(0);
                    if !self.pop_frame(&mut frames, v) {
                        break Ok(v);
                    }
                }
                RInstr::Nop => {}
            }
        };

        // Unwind any remaining frames (on fault) and restore the stack.
        self.sp = saved_sp;
        result
    }

    fn push_frame(
        &mut self,
        image: &Image,
        frames: &mut Vec<Frame>,
        fi: u32,
        args: Vec<i64>,
        ret_dst: Option<Reg>,
    ) -> Result<(), Fault> {
        if frames.len() >= self.limits.max_call_depth {
            return Err(Fault::CallDepthExceeded);
        }
        let func = &image.funcs[fi as usize];
        let frame_bytes = ((func.frame_size as u64) + 15) & !15;
        if self.sp < self.stack_base + frame_bytes {
            return Err(Fault::StackOverflow { func: func.name.clone() });
        }
        let saved_sp = self.sp;
        self.sp -= frame_bytes;
        let frame_base = self.sp;
        let mut regs = vec![0i64; func.nregs as usize];
        for (i, a) in args.iter().take(func.params as usize).enumerate() {
            if i < regs.len() {
                regs[i] = *a;
            }
        }
        frames.push(Frame { func: fi, pc: 0, regs, args, ret_dst, saved_sp, frame_base });
        Ok(())
    }

    /// Pop the top frame, writing `v` into the caller's destination.
    /// Returns false when the root frame was popped.
    fn pop_frame(&mut self, frames: &mut Vec<Frame>, v: i64) -> bool {
        let fr = frames.pop().expect("pop_frame on empty stack");
        self.sp = fr.saved_sp;
        match frames.last_mut() {
            Some(caller) => {
                if let Some(d) = fr.ret_dst {
                    caller.regs[d as usize] = v;
                }
                true
            }
            None => false,
        }
    }

    /// Add one coherent access's costs to this core's counters. Shared
    /// verbatim (same arithmetic) with the fast loop's local-counter
    /// version so both modes stay bit-identical.
    #[inline]
    pub(crate) fn charge_access(counters: &mut PerfCounters, cost: AccessCost) {
        counters.cycles += cost.stall;
        counters.bus_stall_cycles += cost.stall;
        counters.dcache_misses += cost.dcache_misses;
        counters.coherence_misses += cost.coherence_misses;
        counters.invalidations += cost.invalidations;
    }

    #[inline]
    pub(crate) fn load(
        &mut self,
        addr: u64,
        width: Width,
        func: &str,
        at: usize,
    ) -> Result<i64, Fault> {
        let i = self.mem_index(addr, width.bytes(), func, at)?;
        if let Some(co) = &self.coherence {
            let mut b = [0u8; 8];
            let n = width.bytes() as usize;
            let cost = co.bus.borrow_mut().read(co.core, addr, &mut b[..n]);
            Machine::charge_access(&mut self.counters, cost);
            return Ok(widen(width, &b));
        }
        let m = &self.mem;
        Ok(match width {
            Width::W1 => m[i] as i64,
            Width::W2 => u16::from_le_bytes([m[i], m[i + 1]]) as i64,
            Width::W4 => i32::from_le_bytes([m[i], m[i + 1], m[i + 2], m[i + 3]]) as i64,
            Width::W8 => i64::from_le_bytes(m[i..i + 8].try_into().expect("8 bytes")),
        })
    }

    #[inline]
    pub(crate) fn store(
        &mut self,
        addr: u64,
        width: Width,
        v: i64,
        func: &str,
        at: usize,
    ) -> Result<(), Fault> {
        let i = self.mem_index(addr, width.bytes(), func, at)?;
        if let Some(co) = &self.coherence {
            let b = v.to_le_bytes();
            let n = width.bytes() as usize;
            let cost = co.bus.borrow_mut().write(co.core, addr, &b[..n]);
            Machine::charge_access(&mut self.counters, cost);
            return Ok(());
        }
        match width {
            Width::W1 => self.mem[i] = v as u8,
            Width::W2 => self.mem[i..i + 2].copy_from_slice(&(v as u16).to_le_bytes()),
            Width::W4 => self.mem[i..i + 4].copy_from_slice(&(v as u32).to_le_bytes()),
            Width::W8 => self.mem[i..i + 8].copy_from_slice(&v.to_le_bytes()),
        }
        Ok(())
    }

    pub(crate) fn intrinsic(&mut self, op: Intrinsic, args: &[i64]) -> Result<i64, Fault> {
        self.counters.cycles += self.costs.intrinsic;
        let arg = |i: usize| args.get(i).copied().unwrap_or(0);
        match op {
            Intrinsic::Abort => Err(Fault::Aborted(arg(0))),
            Intrinsic::Halt => Err(Fault::Halted(arg(0))),
            Intrinsic::Brk => self.brk(arg(0).max(0) as u64).map(|a| a as i64),
            Intrinsic::Clock => Ok(self.counters.cycles as i64),
            Intrinsic::ConGetc => Ok(self.console.getc().map(|c| c as i64).unwrap_or(-1)),
            Intrinsic::ConPutc => {
                self.console.putc(arg(0) as u8);
                Ok(0)
            }
            Intrinsic::NetPoll => {
                let dev = arg(0) as usize;
                Ok(self.netdevs.get(dev).map(|d| d.rx.len() as i64).unwrap_or(-1))
            }
            Intrinsic::NetRx => {
                let dev = arg(0) as usize;
                let buf = arg(1) as u64;
                let maxlen = arg(2).max(0) as usize;
                let pkt = match self.netdevs.get_mut(dev).and_then(|d| d.rx.pop_front()) {
                    Some(p) => p,
                    None => return Ok(-1),
                };
                let n = pkt.len().min(maxlen);
                if n < pkt.len() {
                    if let Some(d) = self.netdevs.get_mut(dev) {
                        d.rx_truncated += 1;
                    }
                }
                self.write_mem(buf, &pkt[..n])?;
                Ok(n as i64)
            }
            Intrinsic::NetTx => {
                let dev = arg(0) as usize;
                let buf = arg(1) as u64;
                let len = arg(2).max(0) as usize;
                let bytes = self.read_mem(buf, len)?;
                match self.netdevs.get_mut(dev) {
                    Some(d) => {
                        d.tx.push_back(bytes);
                        Ok(0)
                    }
                    None => Ok(-1),
                }
            }
            Intrinsic::SerialGetc => Ok(self.serial.getc().map(|c| c as i64).unwrap_or(-1)),
            Intrinsic::SerialPutc => {
                self.serial.putc(arg(0) as u8);
                Ok(0)
            }
            Intrinsic::Trace => {
                self.trace.push(arg(0));
                Ok(0)
            }
        }
    }

    /// Symbol table lookup helper for tests and harnesses.
    pub fn symbols(&self) -> &BTreeMap<String, cobj::image::SymbolLoc> {
        &self.image.symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ICacheParams;
    use cobj::ir::{BinOp, Instr};
    use cobj::object::{FuncDef, ObjectFile, Symbol};
    use cobj::{link, LinkInput, LinkOptions};

    fn link_one(obj: ObjectFile, entry: &str) -> Image {
        link(&[LinkInput::Object(obj)], &LinkOptions::new(entry, crate::runtime_symbols())).unwrap()
    }

    #[test]
    fn add_two_numbers() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("add"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 2,
            nregs: 3,
            frame_size: 0,
            body: vec![
                Instr::Bin { op: BinOp::Add, dst: 2, a: 0, b: 1 },
                Instr::Ret { value: Some(2) },
            ],
        });
        let mut m = Machine::new(link_one(o, "add")).unwrap();
        assert_eq!(m.call("add", &[30, 12]).unwrap(), 42);
        assert!(m.counters().cycles > 0);
        assert_eq!(m.counters().instructions, 2);
    }

    #[test]
    fn loop_and_branch() {
        // sum 1..=n
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("sum"));
        // r0=n, r1=acc, r2=i, r3=tmp
        o.funcs.push(FuncDef {
            sym: f,
            params: 1,
            nregs: 4,
            frame_size: 0,
            body: vec![
                Instr::Const { dst: 1, value: 0 },                 // 0 acc=0
                Instr::Const { dst: 2, value: 1 },                 // 1 i=1
                Instr::Bin { op: BinOp::Le, dst: 3, a: 2, b: 0 },  // 2 tmp = i<=n
                Instr::Branch { cond: 3, then_to: 4, else_to: 8 }, // 3
                Instr::Bin { op: BinOp::Add, dst: 1, a: 1, b: 2 }, // 4 acc+=i
                Instr::Const { dst: 3, value: 1 },                 // 5
                Instr::Bin { op: BinOp::Add, dst: 2, a: 2, b: 3 }, // 6 i+=1
                Instr::Jump { target: 2 },                         // 7
                Instr::Ret { value: Some(1) },                     // 8
            ],
        });
        let mut m = Machine::new(link_one(o, "sum")).unwrap();
        assert_eq!(m.call("sum", &[10]).unwrap(), 55);
    }

    #[test]
    fn intrinsics_console_and_halt() {
        let mut o = ObjectFile::new("t.o");
        let putc = o.add_symbol(Symbol::undef("__con_putc"));
        let halt = o.add_symbol(Symbol::undef("__halt"));
        let f = o.add_symbol(Symbol::func("main"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![
                Instr::Const { dst: 0, value: 'K' as i64 },
                Instr::Call { dst: None, target: putc, args: vec![0] },
                Instr::Const { dst: 0, value: 7 },
                Instr::Call { dst: None, target: halt, args: vec![0] },
            ],
        });
        let mut m = Machine::new(link_one(o, "main")).unwrap();
        assert_eq!(m.run_entry().unwrap(), 7);
        assert_eq!(m.console.output, "K");
    }

    #[test]
    fn net_round_trip() {
        // main: buf = brk(64); len = net_rx(0, buf, 64); net_tx(1, buf, len)
        let mut o = ObjectFile::new("t.o");
        let brk = o.add_symbol(Symbol::undef("__brk"));
        let rx = o.add_symbol(Symbol::undef("__net_rx"));
        let tx = o.add_symbol(Symbol::undef("__net_tx"));
        let f = o.add_symbol(Symbol::func("main"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 5,
            frame_size: 0,
            body: vec![
                Instr::Const { dst: 0, value: 64 },
                Instr::Call { dst: Some(1), target: brk, args: vec![0] }, // buf
                Instr::Const { dst: 0, value: 0 },                        // dev 0
                Instr::Const { dst: 2, value: 64 },
                Instr::Call { dst: Some(3), target: rx, args: vec![0, 1, 2] }, // len
                Instr::Const { dst: 0, value: 1 },                             // dev 1
                Instr::Call { dst: Some(4), target: tx, args: vec![0, 1, 3] },
                Instr::Ret { value: Some(3) },
            ],
        });
        let mut m = Machine::new(link_one(o, "main")).unwrap();
        m.netdevs[0].inject(vec![1, 2, 3, 4, 5]);
        assert_eq!(m.call("main", &[]).unwrap(), 5);
        assert_eq!(m.netdevs[1].collect(), Some(vec![1, 2, 3, 4, 5]));
    }

    #[test]
    fn frame_locals_are_addressable() {
        // f: local x at offset 0; store 99; load back.
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 3,
            frame_size: 16,
            body: vec![
                Instr::FrameAddr { dst: 0, offset: 0 },
                Instr::Const { dst: 1, value: 99 },
                Instr::Store { addr: 0, offset: 0, src: 1, width: Width::W8 },
                Instr::Load { dst: 2, addr: 0, offset: 0, width: Width::W8 },
                Instr::Ret { value: Some(2) },
            ],
        });
        let mut m = Machine::new(link_one(o, "f")).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 99);
    }

    #[test]
    fn varargs() {
        // sum3(n, ...) returns vararg(0)+vararg(1)
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("va"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 1,
            nregs: 4,
            frame_size: 0,
            body: vec![
                Instr::Const { dst: 1, value: 0 },
                Instr::VarArg { dst: 2, idx: 1 },
                Instr::Const { dst: 1, value: 1 },
                Instr::VarArg { dst: 3, idx: 1 },
                Instr::Bin { op: BinOp::Add, dst: 2, a: 2, b: 3 },
                Instr::Ret { value: Some(2) },
            ],
        });
        let mut m = Machine::new(link_one(o, "va")).unwrap();
        assert_eq!(m.call("va", &[9, 20, 22]).unwrap(), 42);
    }

    #[test]
    fn div_by_zero_faults() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 2,
            nregs: 3,
            frame_size: 0,
            body: vec![
                Instr::Bin { op: BinOp::Div, dst: 2, a: 0, b: 1 },
                Instr::Ret { value: Some(2) },
            ],
        });
        let mut m = Machine::new(link_one(o, "f")).unwrap();
        assert!(matches!(m.call("f", &[1, 0]), Err(Fault::DivByZero { .. })));
        // Machine remains usable afterwards.
        assert_eq!(m.call("f", &[10, 2]).unwrap(), 5);
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("spin"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 0,
            frame_size: 0,
            body: vec![Instr::Jump { target: 0 }],
        });
        let img = link_one(o, "spin");
        let mut m = Machine::with_config(
            img,
            CostModel::default(),
            RunLimits { max_steps: 1000, ..Default::default() },
        )
        .unwrap();
        assert_eq!(m.call("spin", &[]), Err(Fault::StepLimitExceeded));
    }

    #[test]
    fn bad_memory_access_faults() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 2,
            frame_size: 0,
            body: vec![
                Instr::Const { dst: 0, value: 0x10 }, // below data base
                Instr::Load { dst: 1, addr: 0, offset: 0, width: Width::W8 },
                Instr::Ret { value: Some(1) },
            ],
        });
        let mut m = Machine::new(link_one(o, "f")).unwrap();
        assert!(matches!(m.call("f", &[]), Err(Fault::MemOutOfBounds { .. })));
    }

    #[test]
    fn indirect_call_through_function_address() {
        let mut o = ObjectFile::new("t.o");
        let g = o.add_symbol(Symbol::func("g"));
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: g,
            params: 1,
            nregs: 2,
            frame_size: 0,
            body: vec![
                Instr::Const { dst: 1, value: 2 },
                Instr::Bin { op: BinOp::Mul, dst: 1, a: 0, b: 1 },
                Instr::Ret { value: Some(1) },
            ],
        });
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 2,
            frame_size: 0,
            body: vec![
                Instr::Addr { dst: 0, sym: g, offset: 0 },
                Instr::Const { dst: 1, value: 21 },
                Instr::CallInd { dst: Some(1), target: 0, args: vec![1] },
                Instr::Ret { value: Some(1) },
            ],
        });
        let mut m = Machine::new(link_one(o, "f")).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 42);
        assert_eq!(m.counters().indirect_calls, 1);
    }

    #[test]
    fn indirect_call_costs_more_than_direct() {
        // Same callee, called directly vs. indirectly.
        let build = |indirect: bool| {
            let mut o = ObjectFile::new("t.o");
            let g = o.add_symbol(Symbol::func("g"));
            let f = o.add_symbol(Symbol::func("f"));
            o.funcs.push(FuncDef {
                sym: g,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![Instr::Const { dst: 0, value: 1 }, Instr::Ret { value: Some(0) }],
            });
            let body = if indirect {
                vec![
                    Instr::Addr { dst: 0, sym: g, offset: 0 },
                    Instr::CallInd { dst: Some(0), target: 0, args: vec![] },
                    Instr::Ret { value: Some(0) },
                ]
            } else {
                vec![
                    Instr::Nop,
                    Instr::Call { dst: Some(0), target: g, args: vec![] },
                    Instr::Ret { value: Some(0) },
                ]
            };
            o.funcs.push(FuncDef { sym: f, params: 0, nregs: 1, frame_size: 0, body });
            let mut m = Machine::with_costs(link_one(o, "f"), CostModel::no_icache()).unwrap();
            m.call("f", &[]).unwrap();
            m.counters().cycles
        };
        assert!(build(true) > build(false));
    }

    /// The Fast tier skips the tag check inside line runs and only counts
    /// those fetches, so the I-cache's own statistics — not only the
    /// `PerfCounters` — must match the Reference tier's `ICache::fetch`.
    #[test]
    fn fast_and_reference_icache_statistics_agree() {
        // f(n) loops n times calling g, under caches that the 70-byte
        // loop and the call evict (one line, and 8-byte lines that
        // straddle often) and the default. As linked, the loop target
        // shares its 32-byte line with its predecessor, and it and the
        // return point each start a line run that ends on a line
        // boundary: a missing flag loses a miss no later check makes up.
        let mut o = ObjectFile::new("t.o");
        let g = o.add_symbol(Symbol::func("g"));
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: g,
            params: 1,
            nregs: 2,
            frame_size: 0,
            body: vec![
                Instr::Bin { op: BinOp::Mul, dst: 1, a: 0, b: 0 },
                Instr::Ret { value: Some(1) },
            ],
        });
        let mut body = vec![
            Instr::Const { dst: 1, value: 0 },
            Instr::Const { dst: 2, value: 1 },
            Instr::Bin { op: BinOp::Add, dst: 1, a: 1, b: 0 },
            Instr::Bin { op: BinOp::Sub, dst: 0, a: 0, b: 2 },
            Instr::Call { dst: Some(3), target: g, args: vec![1] },
            Instr::Bin { op: BinOp::Add, dst: 1, a: 1, b: 3 },
        ];
        let xor = Instr::Bin { op: BinOp::Xor, dst: 3, a: 3, b: 1 };
        body.extend(std::iter::repeat_n(xor.clone(), 6));
        body.extend(std::iter::repeat_n(Instr::Mov { dst: 3, src: 1 }, 2));
        body.extend(std::iter::repeat_n(xor, 6));
        body.push(Instr::Branch { cond: 0, then_to: 2, else_to: body.len() + 1 });
        body.push(Instr::Ret { value: Some(1) });
        o.funcs.push(FuncDef { sym: f, params: 1, nregs: 4, frame_size: 0, body });
        let image = link_one(o, "f");
        for icache in [
            ICacheParams { size: 32, line: 32, miss_stall: 9 },
            ICacheParams { size: 64, line: 8, miss_stall: 9 },
            ICacheParams::default(),
        ] {
            let run = |mode| {
                let costs = CostModel { icache, ..CostModel::default() };
                let mut m = Machine::with_costs(image.clone(), costs).unwrap();
                m.set_exec_mode(mode);
                let r = m.call("f", &[5]);
                (r, m.counters(), m.icache.accesses(), m.icache.misses())
            };
            let reference = run(ExecMode::Reference);
            assert!(reference.3 > 0, "{icache:?}: the loop must miss");
            assert_eq!(run(ExecMode::Fast), reference, "{icache:?}");
        }
        let m = Machine::new(image).unwrap();
        let runs = m.fetch_plans.iter().flat_map(|p| &p.ops).filter(|op| !op.check).count();
        assert!(runs > 0, "32-byte lines hold line runs that skip the tag check");
    }

    #[test]
    fn counters_reset_keeps_cache_warm() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![Instr::Const { dst: 0, value: 1 }, Instr::Ret { value: Some(0) }],
        });
        let mut m = Machine::new(link_one(o, "f")).unwrap();
        m.call("f", &[]).unwrap();
        let cold = m.counters().icache_misses;
        assert!(cold > 0);
        m.reset_counters();
        m.call("f", &[]).unwrap();
        assert_eq!(m.counters().icache_misses, 0, "cache stays warm across reset");
        m.flush_icache();
        m.reset_counters();
        m.call("f", &[]).unwrap();
        assert_eq!(m.counters().icache_misses, cold);
    }

    #[test]
    fn stack_overflow_on_infinite_recursion() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("rec"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 64,
            body: vec![
                Instr::Call { dst: Some(0), target: f, args: vec![] },
                Instr::Ret { value: Some(0) },
            ],
        });
        let mut m = Machine::new(link_one(o, "rec")).unwrap();
        let r = m.call("rec", &[]);
        assert!(
            matches!(r, Err(Fault::StackOverflow { .. }) | Err(Fault::CallDepthExceeded)),
            "got {r:?}"
        );
    }

    #[test]
    fn profiling_records_edges_and_instruction_counts() {
        // f calls g twice directly, calls h once indirectly, and halts.
        let mut o = ObjectFile::new("t.o");
        let g = o.add_symbol(Symbol::func("g"));
        let h = o.add_symbol(Symbol::func("h"));
        let halt = o.add_symbol(Symbol::undef("__halt"));
        let f = o.add_symbol(Symbol::func("f"));
        let leaf = |sym, v| FuncDef {
            sym,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![Instr::Const { dst: 0, value: v }, Instr::Ret { value: Some(0) }],
        };
        o.funcs.push(leaf(g, 1));
        o.funcs.push(leaf(h, 2));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 2,
            frame_size: 0,
            body: vec![
                Instr::Call { dst: Some(0), target: g, args: vec![] },
                Instr::Call { dst: Some(0), target: g, args: vec![] },
                Instr::Addr { dst: 1, sym: h, offset: 0 },
                Instr::CallInd { dst: Some(0), target: 1, args: vec![] },
                Instr::Const { dst: 0, value: 0 },
                Instr::Call { dst: None, target: halt, args: vec![0] },
            ],
        });
        let mut m = Machine::new(link_one(o, "f")).unwrap();
        m.set_profiling(true);
        assert_eq!(m.run_entry().unwrap(), 0);
        let p = m.profile();
        let edge = |caller: &str, callee: &str, indirect: bool| {
            p.edges
                .iter()
                .find(|e| e.caller == caller && e.callee == callee && e.indirect == indirect)
                .map(|e| e.count)
        };
        assert_eq!(edge("f", "g", false), Some(2));
        assert_eq!(edge("f", "h", true), Some(1));
        assert_eq!(edge("f", "__halt", false), Some(1));
        let instrs = |name: &str| p.funcs.iter().find(|x| x.name == name).map(|x| x.instructions);
        assert_eq!(instrs("g"), Some(4));
        assert_eq!(instrs("h"), Some(2));
        assert_eq!(instrs("f"), Some(6));
        // Round-trip through the serialized form.
        assert_eq!(Profile::from_json(&p.to_json()).unwrap(), p);
        // clear_profile drops everything.
        m.clear_profile();
        assert!(m.profile().is_empty());
    }

    #[test]
    fn profiling_off_records_nothing_and_changes_no_counters() {
        let build = |profiling: bool| {
            let mut o = ObjectFile::new("t.o");
            let g = o.add_symbol(Symbol::func("g"));
            let f = o.add_symbol(Symbol::func("f"));
            o.funcs.push(FuncDef {
                sym: g,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![Instr::Const { dst: 0, value: 1 }, Instr::Ret { value: Some(0) }],
            });
            o.funcs.push(FuncDef {
                sym: f,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![
                    Instr::Call { dst: Some(0), target: g, args: vec![] },
                    Instr::Ret { value: Some(0) },
                ],
            });
            let mut m = Machine::new(link_one(o, "f")).unwrap();
            m.set_profiling(profiling);
            m.call("f", &[]).unwrap();
            (m.counters(), m.profile())
        };
        let (on_counters, on_profile) = build(true);
        let (off_counters, off_profile) = build(false);
        assert_eq!(on_counters, off_counters, "profiling must not perturb counters");
        assert!(off_profile.is_empty());
        assert!(!on_profile.is_empty());
    }

    #[test]
    fn trace_and_clock() {
        let mut o = ObjectFile::new("t.o");
        let clock = o.add_symbol(Symbol::undef("__clock"));
        let trace = o.add_symbol(Symbol::undef("__trace"));
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![
                Instr::Call { dst: Some(0), target: clock, args: vec![] },
                Instr::Call { dst: None, target: trace, args: vec![0] },
                Instr::Ret { value: None },
            ],
        });
        let mut m = Machine::new(link_one(o, "f")).unwrap();
        m.call("f", &[]).unwrap();
        assert_eq!(m.trace.len(), 1);
        assert!(m.trace[0] > 0);
    }
}
