//! Differential tests: the fast interpreter against the reference oracle.
//!
//! `ExecMode::Fast` must be *observationally identical* to
//! `ExecMode::Reference` — same results, same faults at the same
//! `(func, pc)` sites, bit-identical performance counters, profiles,
//! memory images, device output, and traces. These tests drive both tiers
//! over randomly generated programs (which routinely divide by zero, read
//! wild addresses, recurse forever, and spin until the step limit —
//! including at pcs in the middle of a long straight-line run) and over
//! the real Clack router, comparing every observable after every call.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use knit_repro::clack;
use knit_repro::cobj::ir::{BinOp, Instr, Width};
use knit_repro::cobj::object::{FuncDef, ObjectFile, Symbol};
use knit_repro::cobj::{link, Image, LinkInput, LinkOptions};
use knit_repro::machine::{
    self, CostModel, ExecMode, Fault, ICacheParams, Machine, Profile, RunLimits,
};

mod common;
use common::{gen_image, override_seed, repro};

// ---------------------------------------------------------------------------
// observable machine state
// ---------------------------------------------------------------------------

/// Everything a guest execution can observe or produce, snapshot for
/// comparison. `PartialEq` over the lot is the bit-identity check.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<Result<i64, Fault>>,
    counters: machine::PerfCounters,
    profile: Profile,
    memory: Vec<u8>,
    console: String,
    serial: String,
    trace: Vec<i64>,
}

/// Run `calls` invocations of `f0` on a fresh machine in `mode`, snapshot
/// all observables. Tight limits keep runaway programs (infinite loops,
/// unbounded recursion) fast while still exercising the fault paths.
fn observe(image: &Image, mode: ExecMode, costs: CostModel, args: &[i64]) -> Observed {
    let limits =
        RunLimits { max_steps: 20_000, max_call_depth: 32, heap_size: 1 << 16, stack_size: 4096 };
    let mut m = Machine::with_config(image.clone(), costs, limits).unwrap();
    m.set_exec_mode(mode);
    m.set_profiling(true);
    // Two calls back-to-back: the second runs against warm caches and (in
    // fast mode) recycled frame buffers, so cross-call state is covered.
    let results = (0..2).map(|_| m.call("f0", args)).collect();
    let mem_len =
        (image.heap_base + limits.heap_size + limits.stack_size - image.data_base) as usize;
    Observed {
        results,
        counters: m.counters(),
        profile: m.profile(),
        memory: m.read_mem(image.data_base, mem_len).unwrap().to_vec(),
        console: m.console.output.clone(),
        serial: m.serial.output.clone(),
        trace: m.trace.clone(),
    }
}

fn assert_modes_agree(image: &Image, costs: CostModel, args: &[i64]) {
    let reference = observe(image, ExecMode::Reference, costs.clone(), args);
    let fast = observe(image, ExecMode::Fast, costs, args);
    assert_eq!(fast, reference, "fast vs reference");
}

// ---------------------------------------------------------------------------
// property: random programs behave identically under both tiers
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_tiers_match_reference_on_random_programs(seed in any::<u64>()) {
        let seed = override_seed(seed);
        let image = gen_image(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5f5f);
        let args: Vec<i64> = (0..rng.random_range(0usize..3))
            .map(|_| rng.random_range(-8i64..8))
            .collect();
        // Five cache geometries: the default, stalls disabled (the
        // `miss_stall == 0` early-return path), a tiny cache that thrashes
        // (conflict-eviction heavy), a one-line cache (every call, jump
        // and line change evicts: the line-run flags must be exact), and
        // 8-byte lines (most instructions straddle).
        let geometries = [
            ICacheParams::default(),
            ICacheParams { size: 128, line: 32, miss_stall: 0 },
            ICacheParams { size: 128, line: 32, miss_stall: 9 },
            ICacheParams { size: 32, line: 32, miss_stall: 9 },
            ICacheParams { size: 64, line: 8, miss_stall: 9 },
        ];
        let icache = geometries[rng.random_range(0..geometries.len())];
        let costs = CostModel { icache, ..CostModel::default() };

        let reference = observe(&image, ExecMode::Reference, costs.clone(), &args);
        let fast = observe(&image, ExecMode::Fast, costs, &args);
        prop_assert_eq!(&fast, &reference, "fast vs reference: {}", repro(seed));
    }
}

// ---------------------------------------------------------------------------
// deterministic fault-class cases (always in the suite, no seed luck needed)
// ---------------------------------------------------------------------------

fn link_one(o: ObjectFile, entry: &str) -> Image {
    link(&[LinkInput::Object(o)], &LinkOptions::new(entry, machine::runtime_symbols())).unwrap()
}

#[test]
fn div_by_zero_faults_at_identical_site() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
    o.funcs.push(FuncDef {
        sym: f,
        params: 2,
        nregs: 3,
        frame_size: 0,
        body: vec![
            Instr::Nop,
            Instr::Bin { op: BinOp::Div, dst: 2, a: 0, b: 1 },
            Instr::Ret { value: Some(2) },
        ],
    });
    let image = link_one(o, "f0");
    // The faulting call and a subsequent successful one: the machine must
    // stay usable after a fault in every mode.
    for (mode_args, want) in [
        (&[7i64, 0][..], Err(Fault::DivByZero { func: "f0".into(), at: 1 })),
        (&[42, 2][..], Ok(21)),
    ] {
        let mut reference = Machine::new(image.clone()).unwrap();
        reference.set_exec_mode(ExecMode::Reference);
        let rr = reference.call("f0", mode_args);
        assert_eq!(rr, want);
        let mut m = Machine::new(image.clone()).unwrap();
        m.set_exec_mode(ExecMode::Fast);
        let r = m.call("f0", mode_args);
        assert_eq!(r, rr, "fast result");
        assert_eq!(m.counters(), reference.counters(), "fast counters");
    }
    assert_modes_agree(&image, CostModel::default(), &[9, 0]);
}

#[test]
fn out_of_bounds_access_faults_identically() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
    o.funcs.push(FuncDef {
        sym: f,
        params: 0,
        nregs: 2,
        frame_size: 0,
        body: vec![
            Instr::Const { dst: 0, value: 0x10 }, // below the data base
            Instr::Load { dst: 1, addr: 0, offset: 0, width: Width::W8 },
            Instr::Ret { value: Some(1) },
        ],
    });
    let image = link_one(o, "f0");
    assert_modes_agree(&image, CostModel::default(), &[]);
    let got = observe(&image, ExecMode::Fast, CostModel::default(), &[]);
    assert!(
        matches!(got.results[0], Err(Fault::MemOutOfBounds { at: 1, .. })),
        "got {:?}",
        got.results[0]
    );
}

#[test]
fn step_limit_and_counters_agree_on_infinite_loop() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
    o.funcs.push(FuncDef {
        sym: f,
        params: 0,
        nregs: 1,
        frame_size: 0,
        body: vec![Instr::Const { dst: 0, value: 1 }, Instr::Jump { target: 0 }],
    });
    let image = link_one(o, "f0");
    assert_modes_agree(&image, CostModel::default(), &[]);
    let got = observe(&image, ExecMode::Fast, CostModel::default(), &[]);
    assert_eq!(got.results[0], Err(Fault::StepLimitExceeded));
    // Exactly max_steps instructions per call were charged.
    assert_eq!(got.counters.instructions, 40_000);
}

#[test]
fn unbounded_recursion_faults_identically() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
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
    let image = link_one(o, "f0");
    assert_modes_agree(&image, CostModel::default(), &[]);
    let got = observe(&image, ExecMode::Fast, CostModel::default(), &[]);
    assert!(
        matches!(got.results[0], Err(Fault::StackOverflow { .. }) | Err(Fault::CallDepthExceeded)),
        "got {:?}",
        got.results[0]
    );
}

#[test]
fn bad_function_pointer_faults_identically() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
    o.funcs.push(FuncDef {
        sym: f,
        params: 0,
        nregs: 1,
        frame_size: 0,
        body: vec![
            Instr::Const { dst: 0, value: 0x7777 },
            Instr::CallInd { dst: Some(0), target: 0, args: vec![] },
            Instr::Ret { value: Some(0) },
        ],
    });
    let image = link_one(o, "f0");
    assert_modes_agree(&image, CostModel::default(), &[]);
    let got = observe(&image, ExecMode::Fast, CostModel::default(), &[]);
    assert!(
        matches!(got.results[0], Err(Fault::BadFunctionPointer { value: 0x7777, at: 1, .. })),
        "got {:?}",
        got.results[0]
    );
}

/// Faults deep inside a long straight-line run: a fault several
/// instructions in must report the exact prefix state (instruction count,
/// cycles, I-cache traffic) the reference charged before it.
#[test]
fn mid_block_div_fault_materializes_exact_state() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
    o.funcs.push(FuncDef {
        sym: f,
        params: 2,
        nregs: 4,
        frame_size: 0,
        body: vec![
            // Five straight-line ops, then the div, faulting at pc 5.
            Instr::Const { dst: 2, value: 3 },
            Instr::Bin { op: BinOp::Add, dst: 3, a: 0, b: 2 },
            Instr::Bin { op: BinOp::Mul, dst: 3, a: 3, b: 2 },
            Instr::Un { op: knit_repro::cobj::ir::UnOp::Neg, dst: 3, a: 3 },
            Instr::Nop,
            Instr::Bin { op: BinOp::Div, dst: 3, a: 3, b: 1 },
            Instr::Ret { value: Some(3) },
        ],
    });
    let image = link_one(o, "f0");
    assert_modes_agree(&image, CostModel::default(), &[5, 0]);
    let got = observe(&image, ExecMode::Fast, CostModel::default(), &[5, 0]);
    assert!(
        matches!(got.results[0], Err(Fault::DivByZero { at: 5, .. })),
        "got {:?}",
        got.results[0]
    );
}

#[test]
fn mid_block_oob_store_materializes_exact_state() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
    o.funcs.push(FuncDef {
        sym: f,
        params: 1,
        nregs: 3,
        frame_size: 16,
        body: vec![
            Instr::FrameAddr { dst: 1, offset: 0 },
            Instr::Store { addr: 1, offset: 0, src: 0, width: Width::W8 },
            Instr::Load { dst: 2, addr: 1, offset: 0, width: Width::W8 },
            Instr::Const { dst: 1, value: 0x8 }, // far below the data base
            Instr::Store { addr: 1, offset: 0, src: 2, width: Width::W4 },
            Instr::Ret { value: Some(2) },
        ],
    });
    let image = link_one(o, "f0");
    assert_modes_agree(&image, CostModel::default(), &[11]);
    let got = observe(&image, ExecMode::Fast, CostModel::default(), &[11]);
    assert!(
        matches!(got.results[0], Err(Fault::MemOutOfBounds { at: 4, .. })),
        "got {:?}",
        got.results[0]
    );
}

/// The step limit trips in the middle of a long straight-line loop body
/// (20 000 steps mod 7-instruction loop body = mid-body) — including
/// across the warm second call.
#[test]
fn step_limit_mid_block_agrees_across_tiers() {
    let mut o = ObjectFile::new("t.o");
    let f = o.add_symbol(Symbol::func("f0"));
    o.funcs.push(FuncDef {
        sym: f,
        params: 0,
        nregs: 3,
        frame_size: 0,
        body: vec![
            Instr::Const { dst: 0, value: 1 },
            Instr::Bin { op: BinOp::Add, dst: 1, a: 1, b: 0 },
            Instr::Bin { op: BinOp::Mul, dst: 2, a: 1, b: 1 },
            Instr::Bin { op: BinOp::Sub, dst: 2, a: 2, b: 0 },
            Instr::Bin { op: BinOp::Xor, dst: 2, a: 2, b: 1 },
            Instr::Nop,
            Instr::Jump { target: 1 },
        ],
    });
    let image = link_one(o, "f0");
    assert_modes_agree(&image, CostModel::default(), &[]);
    let got = observe(&image, ExecMode::Fast, CostModel::default(), &[]);
    assert_eq!(got.results[0], Err(Fault::StepLimitExceeded));
    assert_eq!(got.counters.instructions, 40_000);
}

// ---------------------------------------------------------------------------
// the real thing: the Clack router, packet for packet
// ---------------------------------------------------------------------------

/// Drive the hand-built Clack router end to end in `mode` and snapshot
/// every observable: per-device output frames, counters, profile, console.
fn run_router(mode: ExecMode, costs: CostModel) -> (Vec<Vec<Vec<u8>>>, Observed) {
    let report = clack::build_hand_router(false).expect("router builds");
    let entry = report
        .exports
        .iter()
        .find(|(k, _)| k.ends_with(".router_step"))
        .map(|(_, v)| v.clone())
        .expect("router_step exported");
    let mut m = Machine::with_costs(report.image.clone(), costs).unwrap();
    m.set_exec_mode(mode);
    m.set_profiling(true);
    m.call("__knit_init", &[]).expect("init");
    let entry = m.image().func_by_name(&entry).expect("entry resolves");

    let work = clack::packets::workload(&clack::packets::WorkloadOptions {
        count: 96,
        ..Default::default()
    });
    let mut results = Vec::new();
    for (dev, pkt) in &work {
        m.netdevs[*dev].inject(pkt.clone());
        loop {
            match m.call_idx(entry, &[]) {
                Ok(0) => break,
                Ok(n) => results.push(Ok(n)),
                Err(e) => {
                    results.push(Err(e));
                    break;
                }
            }
        }
    }
    let outputs = (0..m.netdevs.len())
        .map(|d| {
            let mut frames = Vec::new();
            while let Some(fr) = m.netdevs[d].collect() {
                frames.push(fr);
            }
            frames
        })
        .collect();
    let obs = Observed {
        results,
        counters: m.counters(),
        profile: m.profile(),
        memory: Vec::new(), // router memory is huge; counters + frames suffice
        console: m.console.output.clone(),
        serial: m.serial.output.clone(),
        trace: m.trace.clone(),
    };
    (outputs, obs)
}

/// Under the default cache and under a 128-byte one, where calls and
/// loop back edges evict constantly, so a guaranteed-hit fetch that is
/// not guaranteed shows up as a missing miss.
#[test]
fn clack_router_is_bit_identical_across_modes() {
    let tiny = ICacheParams { size: 128, line: 32, miss_stall: 14 };
    for costs in [CostModel::default(), CostModel { icache: tiny, ..CostModel::default() }] {
        let (frames_ref, reference) = run_router(ExecMode::Reference, costs.clone());
        let (frames, obs) = run_router(ExecMode::Fast, costs.clone());
        assert_eq!(frames, frames_ref, "fast: routed frames must match under {:?}", costs.icache);
        assert_eq!(obs, reference, "fast: counters, profile, output under {:?}", costs.icache);
        assert!(reference.counters.cycles > 0);
    }
}
