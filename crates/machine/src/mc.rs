//! The multi-core machine.
//!
//! N [`Machine`] cores executing one shared image over one shared guest
//! memory, connected by the snooping MESI bus of [`crate::mesi`]. Each
//! core keeps its own performance counters, I-cache, console/serial/trace
//! devices, and a private slice of the stack region; data, heap, and the
//! network devices are shared.
//!
//! Scheduling is deterministic round-robin at *call* granularity: the
//! harness runs one entry-point call on core 0, then core 1, and so on
//! (see [`MultiMachine::call_on`]). There is no preemption inside a call,
//! so guest-level locks (e.g. the Clack `SharedQueue` spinlock) never
//! spin — but every cross-core data structure still generates real
//! coherence traffic, because the cores' D-caches fight over its lines.
//! Determinism is what makes the lockstep differential harness work: both
//! [`ExecMode::Fast`] and [`ExecMode::Reference`] execute the identical
//! interleaving and must produce bit-identical results, counters, and
//! memory.

use std::cell::RefCell;
use std::rc::Rc;

use cobj::image::Image;

use crate::cpu::{Coherence, Fault, Machine};
use crate::mesi::{Bus, BusStats, RaceEvent};
use crate::{CostModel, ExecMode, NetDev, PerfCounters, RunLimits};

/// N coherent cores over one image and one shared guest memory.
pub struct MultiMachine {
    cores: Vec<Machine>,
    bus: Rc<RefCell<Bus>>,
    /// Shared network devices, swapped into whichever core is running.
    pub netdevs: Vec<NetDev>,
    /// Shared heap-allocation cursor (`__brk` is a global resource).
    heap_next: u64,
}

impl MultiMachine {
    /// Build an `ncores`-way machine with default costs and limits.
    pub fn new(image: Image, ncores: usize) -> Result<MultiMachine, Fault> {
        MultiMachine::with_config(image, CostModel::default(), RunLimits::default(), ncores)
    }

    /// Build an `ncores`-way machine with explicit costs and limits. The
    /// stack region is split evenly between the cores; everything else
    /// (data, heap) is shared through the bus.
    pub fn with_config(
        image: Image,
        costs: CostModel,
        limits: RunLimits,
        ncores: usize,
    ) -> Result<MultiMachine, Fault> {
        assert!(ncores >= 1, "a MultiMachine needs at least one core");
        let first = Machine::with_config(image, costs.clone(), limits)?;
        let image_rc = Rc::clone(&first.image);
        let plans = Rc::clone(&first.fetch_plans);
        let mut cores = vec![first];
        for _ in 1..ncores {
            cores.push(Machine::from_shared(
                Rc::clone(&image_rc),
                Rc::clone(&plans),
                costs.clone(),
                limits,
            )?);
        }

        // Core 0's freshly initialized memory becomes the bus's backing
        // store; every core's local vector is retired to a placeholder.
        let mem = std::mem::take(&mut cores[0].mem);
        let mem_base = cores[0].mem_base;
        let bus = Rc::new(RefCell::new(Bus::new(costs.dcache, mem, mem_base, ncores)));

        // Partition the stack region into per-core stacks (16-byte
        // aligned). `mem_top` stays global: stacks are ordinary shared
        // memory, only the allocation is per-core.
        let stack_base = cores[0].stack_base;
        let mem_top = cores[0].mem_top;
        let chunk = ((mem_top - stack_base) / ncores as u64) & !15;
        assert!(chunk >= 4096, "stack region too small for {ncores} cores");
        let heap_next = cores[0].heap_next;
        for (c, m) in cores.iter_mut().enumerate() {
            m.mem = Vec::new();
            m.coherence = Some(Coherence { bus: Rc::clone(&bus), core: c });
            m.stack_base = stack_base + c as u64 * chunk;
            m.sp = m.stack_base + chunk;
        }

        let netdevs = std::mem::take(&mut cores[0].netdevs);
        for m in cores.iter_mut() {
            m.netdevs = Vec::new();
        }
        Ok(MultiMachine { cores, bus, netdevs, heap_next })
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.cores.len()
    }

    /// Borrow one core (counters, console, trace, image, symbols).
    pub fn core(&self, c: usize) -> &Machine {
        &self.cores[c]
    }

    /// Mutably borrow one core.
    pub fn core_mut(&mut self, c: usize) -> &mut Machine {
        &mut self.cores[c]
    }

    /// One core's performance counters.
    pub fn counters(&self, c: usize) -> PerfCounters {
        self.cores[c].counters()
    }

    /// Sum of all cores' counters.
    pub fn counters_total(&self) -> PerfCounters {
        let mut total = PerfCounters::default();
        for m in &self.cores {
            let c = m.counters();
            total.cycles += c.cycles;
            total.instructions += c.instructions;
            total.ifetch_stall_cycles += c.ifetch_stall_cycles;
            total.icache_misses += c.icache_misses;
            total.calls += c.calls;
            total.indirect_calls += c.indirect_calls;
            total.intrinsic_calls += c.intrinsic_calls;
            total.dcache_misses += c.dcache_misses;
            total.coherence_misses += c.coherence_misses;
            total.invalidations += c.invalidations;
            total.bus_stall_cycles += c.bus_stall_cycles;
        }
        total
    }

    /// Select the execution tier on every core.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        for m in &mut self.cores {
            m.set_exec_mode(mode);
        }
    }

    /// The execution tier core 0 runs in.
    pub fn exec_mode(&self) -> ExecMode {
        self.cores[0].exec_mode()
    }

    /// Zero every core's counters and I-cache statistics plus the bus
    /// transaction counts (cache contents stay warm on all of them).
    pub fn reset_counters(&mut self) {
        for m in &mut self.cores {
            m.reset_counters();
        }
        self.bus.borrow_mut().reset_stats();
    }

    /// Bus-level transaction counts.
    pub fn bus_stats(&self) -> BusStats {
        self.bus.borrow().stats()
    }

    /// Arm the dynamic lockset race oracle over the watched address range
    /// with the given lock words (see [`Bus::race_check_enable`]). Charges
    /// no cycles; Fast/Reference bit-identity is unaffected.
    pub fn race_check_enable(&mut self, watch_base: u64, watch_len: usize, locks: &[(u64, u64)]) {
        self.bus.borrow_mut().race_check_enable(watch_base, watch_len, locks);
    }

    /// Exclude address ranges from the armed oracle (see
    /// [`Bus::race_exempt`]).
    pub fn race_exempt(&mut self, ranges: &[(u64, u64)]) {
        self.bus.borrow_mut().race_exempt(ranges);
    }

    /// Lockset violations the armed oracle has recorded so far.
    pub fn race_events(&self) -> Vec<RaceEvent> {
        self.bus.borrow().race_events()
    }

    /// Check the MESI protocol invariants across all cores.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.bus.borrow().check_invariants()
    }

    /// Grow the shared device array to at least `n` devices.
    pub fn ensure_netdevs(&mut self, n: usize) {
        if self.netdevs.len() < n {
            self.netdevs.resize(n, NetDev::default());
        }
    }

    /// Run one call on one core: the unit of the deterministic
    /// round-robin interleaving. The shared devices and heap cursor are
    /// handed to the core for the duration of the call.
    pub fn call_on(&mut self, core: usize, name: &str, args: &[i64]) -> Result<i64, Fault> {
        let fi = self.cores[core]
            .image
            .func_by_name(name)
            .ok_or_else(|| Fault::NoSuchFunction(name.to_string()))?;
        self.call_idx_on(core, fi, args)
    }

    /// [`MultiMachine::call_on`] by image function index.
    pub fn call_idx_on(&mut self, core: usize, fi: u32, args: &[i64]) -> Result<i64, Fault> {
        let m = &mut self.cores[core];
        m.heap_next = self.heap_next;
        std::mem::swap(&mut m.netdevs, &mut self.netdevs);
        let r = m.call_idx(fi, args);
        std::mem::swap(&mut m.netdevs, &mut self.netdevs);
        self.heap_next = m.heap_next;
        r
    }

    /// Guest-address memory read with coherent-DMA semantics (bounds
    /// checked like any host access).
    pub fn read_mem(&self, addr: u64, len: usize) -> Result<Vec<u8>, Fault> {
        self.cores[0].read_mem(addr, len)
    }

    /// Guest-address memory write with coherent-DMA semantics.
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Fault> {
        self.cores[0].write_mem(addr, bytes)
    }

    /// Allocate shared guest heap from the host side.
    pub fn host_alloc(&mut self, len: u64) -> Result<u64, Fault> {
        let m = &mut self.cores[0];
        m.heap_next = self.heap_next;
        let r = m.host_alloc(len);
        self.heap_next = m.heap_next;
        r
    }

    /// Snapshot of the entire shared memory with all dirty lines and
    /// pending write-backs applied — the canonical memory observation for
    /// the differential tests (non-mutating, unlike a DMA read).
    pub fn memory_synced(&self) -> Vec<u8> {
        self.bus.borrow().backing_synced()
    }

    /// Lowest guest address of the shared memory.
    pub fn mem_base(&self) -> u64 {
        self.bus.borrow().mem_base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobj::ir::{BinOp, Instr, Width};
    use cobj::object::{FuncDef, ObjectFile, Symbol};
    use cobj::{link, LinkInput, LinkOptions};

    /// An image with a shared counter in the data segment: `bump()` does
    /// a read-modify-write on it and returns the new value.
    fn bump_image() -> cobj::image::Image {
        let mut o = ObjectFile::new("t.o");
        let ctr = o.add_symbol(Symbol::data("ctr"));
        o.data.push(cobj::object::DataDef {
            sym: ctr,
            init: vec![0u8; 8],
            zeroed: 0,
            relocs: vec![],
            align: 8,
        });
        let f = o.add_symbol(Symbol::func("bump"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 3,
            frame_size: 0,
            body: vec![
                Instr::Addr { dst: 0, sym: ctr, offset: 0 },
                Instr::Load { dst: 1, addr: 0, offset: 0, width: Width::W8 },
                Instr::Const { dst: 2, value: 1 },
                Instr::Bin { op: BinOp::Add, dst: 1, a: 1, b: 2 },
                Instr::Store { addr: 0, offset: 0, src: 1, width: Width::W8 },
                Instr::Ret { value: Some(1) },
            ],
        });
        link(&[LinkInput::Object(o)], &LinkOptions::new("bump", crate::runtime_symbols())).unwrap()
    }

    #[test]
    fn cores_share_memory_coherently() {
        let mut mm = MultiMachine::new(bump_image(), 3).unwrap();
        let mut last = 0;
        for round in 0..4 {
            for c in 0..3 {
                last = mm.call_on(c, "bump", &[]).unwrap();
                assert_eq!(last, (round * 3 + c + 1) as i64);
            }
        }
        assert_eq!(last, 12);
        mm.check_invariants().unwrap();
        // Ping-ponging a written line across cores must show up as
        // coherence traffic on cores 1 and 2.
        assert!(mm.counters(1).coherence_misses > 0);
        assert!(mm.counters(1).invalidations > 0);
        assert!(mm.counters(1).bus_stall_cycles > 0);
    }

    #[test]
    fn fast_and_reference_are_identical_on_the_multimachine() {
        let run = |mode: ExecMode| {
            let mut mm = MultiMachine::new(bump_image(), 2).unwrap();
            mm.set_exec_mode(mode);
            let mut results = Vec::new();
            for _ in 0..5 {
                for c in 0..2 {
                    results.push(mm.call_on(c, "bump", &[]).unwrap());
                }
            }
            let counters: Vec<PerfCounters> = (0..2).map(|c| mm.counters(c)).collect();
            (results, counters, mm.bus_stats(), mm.memory_synced())
        };
        assert_eq!(run(ExecMode::Fast), run(ExecMode::Reference));
    }

    #[test]
    fn per_core_stacks_do_not_collide() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("probe"));
        // Write the core id into a frame local and read it back.
        o.funcs.push(FuncDef {
            sym: f,
            params: 1,
            nregs: 3,
            frame_size: 16,
            body: vec![
                Instr::FrameAddr { dst: 1, offset: 0 },
                Instr::Store { addr: 1, offset: 0, src: 0, width: Width::W8 },
                Instr::Load { dst: 2, addr: 1, offset: 0, width: Width::W8 },
                Instr::Ret { value: Some(2) },
            ],
        });
        let image =
            link(&[LinkInput::Object(o)], &LinkOptions::new("probe", crate::runtime_symbols()))
                .unwrap();
        let mut mm = MultiMachine::new(image, 4).unwrap();
        for c in 0..4 {
            assert_eq!(mm.call_on(c, "probe", &[c as i64 + 100]).unwrap(), c as i64 + 100);
        }
        // Distinct stack partitions.
        let bases: Vec<u64> = (0..4).map(|c| mm.core(c).stack_base).collect();
        for w in bases.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
