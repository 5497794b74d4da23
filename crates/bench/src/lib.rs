//! # bench — experiment harnesses for every table and in-text measurement
//!
//! One function per experiment, shared by the printable binaries
//! (`cargo run -p bench --bin table1` etc.) and the smoke tests. Timings
//! of the interpreter and the composition server come from `perfbench/`.
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

pub mod mc;
pub mod spec;
pub mod synth;

use clack::click::{build_click_router, ClickOpts};
use clack::packets::{self, WorkloadOptions};
use clack::{build_clack_router, build_hand_router, ip_router, router_build_inputs, RouterHarness};
use knit::{build, BuildCache, BuildOptions, BuildSession, Program, SourceTree};
use machine::Machine;

/// A Table 1 / Table 2 packet workload of `count` forwardable IP frames,
/// both directions, deterministic. The binaries use
/// [`router_workload`]'s 512 packets; smoke tests pass something tiny.
pub fn router_workload_sized(count: usize) -> Vec<packets::WorkItem> {
    packets::workload(&WorkloadOptions { count, ..Default::default() })
}

/// The standard Table 1 / Table 2 packet workload: forwardable IP frames,
/// both directions, deterministic.
pub fn router_workload() -> Vec<packets::WorkItem> {
    router_workload_sized(512)
}

/// A router workload with explicit size and (optionally) a non-default
/// RNG seed — the `--packets` / `--seed` knobs of the table binaries.
/// `seed: None` keeps the standard deterministic stream, so the default
/// invocations stay byte-for-byte reproducible.
pub fn router_workload_seeded(count: usize, seed: Option<u64>) -> Vec<packets::WorkItem> {
    let mut opts = WorkloadOptions { count, ..Default::default() };
    if let Some(s) = seed {
        opts.seed = s;
    }
    packets::workload(&opts)
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The execution tier that produced the measurement (guest cycles are
    /// tier-independent; the label makes the JSON rows self-describing).
    pub exec: machine::ExecMode,
    /// Hand-optimized (2 components) instead of modular (24 components)?
    pub hand_optimized: bool,
    /// Built through a `flatten` boundary?
    pub flattened: bool,
    /// Cycles per packet, steady state.
    pub cycles: u64,
    /// Instruction-fetch stall cycles per packet.
    pub ifetch_stalls: u64,
    /// Text size in bytes.
    pub text_size: u64,
}

/// Run the four Clack configurations of Table 1.
pub fn table1() -> Vec<Table1Row> {
    table1_with(&router_workload())
}

/// [`table1`] over a caller-supplied workload (smoke tests use a tiny one).
pub fn table1_with(work: &[packets::WorkItem]) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for (hand, flat) in [(false, false), (true, false), (false, true), (true, true)] {
        let report = if hand {
            build_hand_router(flat).expect("hand router builds")
        } else {
            build_clack_router(&ip_router(), flat).expect("clack router builds")
        };
        let mut h = RouterHarness::new(&report).expect("harness");
        let m = h.measure(work).expect("measure");
        rows.push(Table1Row {
            exec: m.exec,
            hand_optimized: hand,
            flattened: flat,
            cycles: m.cycles_per_packet,
            ifetch_stalls: m.ifetch_stalls_per_packet,
            text_size: m.text_size,
        });
    }
    rows
}

/// One PGO row of the Table 1 extension: the same modular Clack router,
/// measured under profile-guided build decisions. (The paper had no PGO;
/// this extends its Table 1 with the reproduction's own pipeline.)
#[derive(Debug, Clone)]
pub struct PgoRow {
    /// The execution tier that produced the measurement.
    pub exec: machine::ExecMode,
    /// Configuration label (`"base"`, `"pgo layout"`, …).
    pub config: &'static str,
    /// Cycles per packet, steady state.
    pub cycles: u64,
    /// Instruction-fetch stall cycles per packet.
    pub ifetch_stalls: u64,
    /// Text size in bytes.
    pub text_size: u64,
}

/// Run `work` on a built router with call-edge profiling enabled and
/// return the measurement plus the collected profile. Recording does not
/// perturb the performance counters (pinned by a machine test), so the
/// instrumented run doubles as the measurement run.
pub fn profile_router(
    report: &knit::BuildReport,
    work: &[packets::WorkItem],
) -> (clack::RouterMeasurement, machine::Profile) {
    let mut h = RouterHarness::new(report).expect("harness");
    h.machine().set_profiling(true);
    let m = h.measure(work).expect("measure");
    (m, h.machine().profile())
}

/// The PGO rows of Table 1 (plus the advisor's report on the base run):
///
/// 1. `base` — modular router, input-order layout (= Table 1 row 1);
/// 2. `pgo layout` — same configuration rebuilt with the base run's
///    profile feeding the linker's Pettis–Hansen layout;
/// 3. `pgo flatten + layout` — the advisor's flatten suggestion applied
///    (the hot cross-instance edges cover the router core, so the applied
///    form is the flattened configuration), re-profiled, and re-laid-out.
///
/// Each configuration is profiled and laid out with *its own* profile:
/// flattening changes the link-level symbol names, so a base-router
/// profile does not transfer to the flattened image.
pub fn table1_pgo() -> (Vec<PgoRow>, knit::PgoReport) {
    table1_pgo_with(&router_workload())
}

/// [`table1_pgo`] over a caller-supplied workload.
pub fn table1_pgo_with(work: &[packets::WorkItem]) -> (Vec<PgoRow>, knit::PgoReport) {
    let row = |config: &'static str, m: &clack::RouterMeasurement| PgoRow {
        exec: m.exec,
        config,
        cycles: m.cycles_per_packet,
        ifetch_stalls: m.ifetch_stalls_per_packet,
        text_size: m.text_size,
    };
    let measure = |report: &knit::BuildReport| {
        RouterHarness::new(report).expect("harness").measure(work).expect("measure")
    };

    let (p, t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
    let base = build(&p, &t, &opts).expect("base router builds");
    let (mb, profile) = profile_router(&base, work);

    let mut pgo_opts = opts.clone();
    pgo_opts.profile = Some(std::sync::Arc::new(profile.layout_profile()));
    let laid = build(&p, &t, &pgo_opts).expect("pgo-layout router builds");
    let ml = measure(&laid);

    let advice = knit::pgo::suggest(&base, &profile);

    let (fp, ft, fopts) = router_build_inputs(&ip_router(), true).expect("flat router inputs");
    let flat = build(&fp, &ft, &fopts).expect("flat router builds");
    let (_, fprofile) = profile_router(&flat, work);
    let mut flat_pgo_opts = fopts.clone();
    flat_pgo_opts.profile = Some(std::sync::Arc::new(fprofile.layout_profile()));
    let flat_laid = build(&fp, &ft, &flat_pgo_opts).expect("flat pgo-layout router builds");
    let mf = measure(&flat_laid);

    (
        vec![
            row("base (input order)", &mb),
            row("pgo layout", &ml),
            row("pgo flatten + layout", &mf),
        ],
        advice,
    )
}

/// One boot of the deep-lock kernel, before vs after profile-guided
/// layout (see [`deep_lock_pgo`]).
pub struct DeepLockPgo {
    /// Linked text size in bytes (layout-invariant).
    pub text_size: u64,
    /// (cycles, ifetch stall cycles, icache misses) at input order.
    pub base: (u64, u64, u64),
    /// The same three counters after a profile-guided relink.
    pub pgo: (u64, u64, u64),
}

/// Profile-guided layout on the ~100-unit deep-lock kernel of
/// [`deep_lock_kernel_inputs`]: boot it once with edge profiling on,
/// relink with the collected profile, and boot the relaid image. The
/// kernel's text overflows the 4 KiB I-cache, so clustering the hot
/// boot path cuts fetch stalls without touching non-stall cycles.
pub fn deep_lock_pgo() -> DeepLockPgo {
    let boot = |image: cobj::Image, profiling: bool| {
        let mut m = Machine::new(image).expect("kernel machine");
        m.set_profiling(profiling);
        let r = m.run_entry().expect("kernel boots");
        assert_eq!(r, 3, "deep-lock kernel exit code");
        let c = m.counters();
        ((c.cycles, c.ifetch_stall_cycles, c.icache_misses), m.profile())
    };

    let (p, t, opts) = deep_lock_kernel_inputs();
    let report = build(&p, &t, &opts).expect("deep-lock kernel builds");
    let (base, profile) = boot(report.image.clone(), true);

    let mut pgo_opts = opts.clone();
    pgo_opts.profile = Some(std::sync::Arc::new(profile.layout_profile()));
    let laid = build(&p, &t, &pgo_opts).expect("pgo deep-lock kernel builds");
    let (pgo, _) = boot(laid.image.clone(), false);

    DeepLockPgo { text_size: report.image.text_size, base, pgo }
}

/// Table 2: Click unoptimized and optimized (plus the Clack base for the
/// paper's "approximately the same (3% slower)" comparison).
pub struct Table2 {
    /// Cycles/packet, Click with no optimizations.
    pub click_unoptimized: u64,
    /// Cycles/packet, Click with fast classifier + specializer + xform.
    pub click_optimized: u64,
    /// Cycles/packet for base Clack (modular, unflattened).
    pub clack_base: u64,
}

/// Run Table 2.
pub fn table2() -> Table2 {
    table2_with(&router_workload())
}

/// [`table2`] over a caller-supplied workload (smoke tests use a tiny one).
pub fn table2_with(work: &[packets::WorkItem]) -> Table2 {
    let measure_click = |opts: Option<ClickOpts>| {
        let img = build_click_router(&ip_router(), opts).expect("click builds");
        let mut h =
            RouterHarness::from_image(img, Some("click_init"), "router_step").expect("harness");
        h.measure(work).expect("measure").cycles_per_packet
    };
    let clack = build_clack_router(&ip_router(), false).expect("clack builds");
    let clack_base = RouterHarness::new(&clack)
        .expect("harness")
        .measure(work)
        .expect("measure")
        .cycles_per_packet;
    Table2 {
        click_unoptimized: measure_click(None),
        click_optimized: measure_click(Some(ClickOpts::all())),
        clack_base,
    }
}

/// Ablation over the three MIT Click optimizations (extends Table 2 the
/// way the Click paper itself reports them).
pub fn click_ablation() -> Vec<(&'static str, u64)> {
    let work = router_workload();
    let measure = |opts: Option<ClickOpts>| {
        let img = build_click_router(&ip_router(), opts).expect("click builds");
        let mut h =
            RouterHarness::from_image(img, Some("click_init"), "router_step").expect("harness");
        h.measure(&work).expect("measure").cycles_per_packet
    };
    vec![
        ("none", measure(None)),
        (
            "specializer only",
            measure(Some(ClickOpts { fast_classifier: false, specialize: true, xform: false })),
        ),
        (
            "specializer + fast classifier",
            measure(Some(ClickOpts { fast_classifier: true, specialize: true, xform: false })),
        ),
        ("all three", measure(Some(ClickOpts::all()))),
    ]
}

// ---------------------------------------------------------------------------
// §6 micro-benchmark: Knit-built vs traditionally-built unit-boundary code
// ---------------------------------------------------------------------------

/// Generate the Knit program for an `n`-stage call chain (the §6
/// "programs designed to spend most of their time traversing unit
/// boundaries"; critical path = n+1 unit boundaries).
fn chain_program(n: usize) -> (Program, SourceTree, String) {
    let mut units = String::from(
        r#"
bundletype Stage = { stage }
bundletype Chain = { run_chain }
unit ChainStage = {
    imports [ next : Stage ];
    exports [ this : Stage ];
    depends { exports needs imports; };
    files { "bench_chain.c" };
    rename { next.stage to next_stage; };
}
unit ChainFloor = {
    exports [ this : Stage ];
    files { "bench_floor.c" };
}
unit ChainDriver = {
    imports [ first : Stage ];
    exports [ chain : Chain ];
    depends { exports needs imports; };
    files { "bench_driver.c" };
    rename { first.stage to next_stage; };
}
unit ChainKernel = {
    exports [ chain : Chain ];
    link {
        floor : ChainFloor;
"#,
    );
    for i in 1..=n {
        let prev = if i == 1 { "floor".to_string() } else { format!("s{}", i - 1) };
        units.push_str(&format!("        s{i} : ChainStage [ next = {prev}.this ];\n"));
    }
    units.push_str(&format!(
        "        drv : ChainDriver [ first = s{n}.this ];\n        chain = drv.chain;\n    }};\n}}\n"
    ));
    let mut p = Program::new();
    p.load_str("chain.unit", &units).expect("generated chain units parse");
    let mut t = SourceTree::new();
    t.add(
        "bench_chain.c",
        "int next_stage(int x);\nint stage(int x) {\n    return next_stage(x + 1);\n}\n",
    );
    t.add("bench_floor.c", "int stage(int x) {\n    return x;\n}\n");
    t.add(
        "bench_driver.c",
        "int next_stage(int x);\nint run_chain(int iters) {\n    int acc = 0;\n    for (int i = 0; i < iters; i++) {\n        acc += next_stage(i);\n    }\n    return acc;\n}\n",
    );
    (p, t, "ChainKernel".to_string())
}

/// Cycles for the Knit-built chain.
pub fn chain_cycles_knit(n: usize, iters: i64) -> (u64, i64) {
    let (p, t, root) = chain_program(n);
    let mut opts = BuildOptions::new(root, machine::runtime_symbols());
    opts.entry = None;
    opts.flatten = false;
    let report = build(&p, &t, &opts).expect("chain builds");
    let entry = report.exports["chain.run_chain"].clone();
    let mut m = Machine::new(report.image).expect("machine");
    m.call("__knit_init", &[]).expect("init");
    // warm
    m.call(&entry, &[64]).expect("warm");
    m.reset_counters();
    let r = m.call(&entry, &[iters]).expect("run");
    (m.counters().cycles, r)
}

/// Cycles for the traditionally-built chain: hand-written per-stage sources
/// with globally unique names, compiled separately and linked with plain
/// `ld` — what an OSKit user would have written before Knit.
pub fn chain_cycles_traditional(n: usize, iters: i64) -> (u64, i64) {
    let copts = cmini::CompileOptions::from_flags(&["-O2"]).expect("flags");
    let mut inputs = Vec::new();
    // floor
    let floor = format!("int stage{}(int x) {{\n    return x;\n}}\n", 0);
    inputs.push(cobj::LinkInput::Object(
        cmini::compile("floor.c", &floor, &copts, &cmini::NoFiles).expect("floor compiles"),
    ));
    for i in 1..=n {
        let src = format!(
            "int stage{prev}(int x);\nint stage{i}(int x) {{\n    return stage{prev}(x + 1);\n}}\n",
            prev = i - 1
        );
        inputs.push(cobj::LinkInput::Object(
            cmini::compile(&format!("stage{i}.c"), &src, &copts, &cmini::NoFiles)
                .expect("stage compiles"),
        ));
    }
    let driver = format!(
        "int stage{n}(int x);\nint run_chain(int iters) {{\n    int acc = 0;\n    for (int i = 0; i < iters; i++) {{\n        acc += stage{n}(i);\n    }}\n    return acc;\n}}\n"
    );
    inputs.push(cobj::LinkInput::Object(
        cmini::compile("driver.c", &driver, &copts, &cmini::NoFiles).expect("driver compiles"),
    ));
    let image = cobj::link(
        &inputs,
        &cobj::LinkOptions {
            entry: None,
            runtime_symbols: machine::runtime_symbols().collect(),
            ..Default::default()
        },
    )
    .expect("traditional link");
    let mut m = Machine::new(image).expect("machine");
    m.call("run_chain", &[64]).expect("warm");
    m.reset_counters();
    let r = m.call("run_chain", &[iters]).expect("run");
    (m.counters().cycles, r)
}

/// One row of the §6 overhead experiment.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Units on the critical path (stages + floor + driver boundaries).
    pub chain_len: usize,
    /// Cycles, Knit build.
    pub knit: u64,
    /// Cycles, traditional build.
    pub traditional: u64,
    /// Percent difference ((knit - trad) / trad * 100).
    pub pct: f64,
}

/// Run the overhead sweep over chain lengths (critical paths of 3–8 units,
/// matching the paper's "number of units in the critical path ranged
/// between 3 and 8").
pub fn micro_overhead() -> Vec<OverheadRow> {
    let iters = 2000;
    (1..=6)
        .map(|n| {
            let (k, rk) = chain_cycles_knit(n, iters);
            let (t, rt) = chain_cycles_traditional(n, iters);
            assert_eq!(rk, rt, "both builds must compute the same result");
            OverheadRow {
                chain_len: n + 2,
                knit: k,
                traditional: t,
                pct: (k as f64 - t as f64) / t as f64 * 100.0,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §5.1 constraint statistics
// ---------------------------------------------------------------------------

/// Results of the constraint experiment.
#[derive(Debug, Clone)]
pub struct ConstraintStats {
    /// Units in the checked kernel configuration.
    pub units: usize,
    /// Units carrying constraints.
    pub annotated: usize,
    /// Of those, pure `context(exports) <= context(imports)` propagators.
    pub propagation_only: usize,
    /// Constraint variables and expanded constraints.
    pub vars: usize,
    pub constraints: usize,
    /// Whether the seeded-bug kernel (blocking mutex under interrupt
    /// context) was rejected.
    pub caught_seeded_bug: bool,
    /// Knit front-end time without constraint checking (µs).
    pub knit_time_unchecked_us: u128,
    /// Knit front-end time with constraint checking (µs).
    pub knit_time_checked_us: u128,
}

/// Inputs for the ~100-unit "deep lock kernel": the oskit kit plus
/// generated filter layers interposing on the Lock interface, 70% of
/// which carry only propagation constraints, like the paper's converted
/// components. Shared by [`constraint_stats`] and [`analyze_time`] so the
/// checker and the analyzer are measured on the same workload.
pub fn deep_lock_kernel_inputs() -> (Program, SourceTree, BuildOptions) {
    let (units, t, opts) = deep_lock_kernel_texts();
    let mut p = Program::new();
    for (file, text) in &units {
        p.load_str(file, text).expect("deep-lock unit files parse");
    }
    (p, t, opts)
}

/// The deep-lock kernel of [`deep_lock_kernel_inputs`] as raw text: the
/// unit files as `(file, text)` pairs plus the source tree — the form a
/// composition-server client ships over the wire (perfbench's
/// `serve-edit` workload and the bench smoke tests).
pub fn deep_lock_kernel_texts() -> (Vec<(String, String)>, SourceTree, BuildOptions) {
    let mut t = oskit::sources();
    // Generate a deep stack of interposing filter units over the Lock
    // interface — each one a real component with code.
    let layers = 94;
    let mut units = String::new();
    for i in 0..layers {
        let file = format!("filter{i}.c");
        t.add(
            &file,
            "int inner_acquire();\nint inner_release();\nstatic int uses;\nint lock_acquire() { uses++; return inner_acquire(); }\nint lock_release() { return inner_release(); }\n",
        );
        // Like the paper's corpus, only ~35% of units need constraints at
        // all; of those, ~70% are pure import-to-export propagation.
        let constraints = if i % 20 < 7 {
            let c = if i % 20 < 5 {
                "context(exports) <= context(imports);"
            } else {
                "context(exports) <= context(imports); context(lock) <= NoContext;"
            };
            format!(
                "    constraints {{ {c} }};
"
            )
        } else {
            String::new()
        };
        units.push_str(&format!(
            r#"
unit Filter{i} = {{
    imports [ inner : Lock ];
    exports [ lock : Lock ];
    depends {{ exports needs imports; }};
    files {{ "{file}" }};
    rename {{ inner.lock_acquire to inner_acquire; inner.lock_release to inner_release; }};
{constraints}}}
"#
        ));
    }
    // kernel: spinlock under all the filters, used by the lock app
    units.push_str(
        r#"
unit DeepLockKernel = {
    exports [ main : Main ];
    link {
        con : VgaConsole;
        out : Printf [ console = con.console ];
        base : SpinLock;
"#,
    );
    for i in 0..layers {
        let prev = if i == 0 { "base.lock".to_string() } else { format!("f{}.lock", i - 1) };
        units.push_str(&format!("        f{i} : Filter{i} [ inner = {prev} ];\n"));
    }
    units.push_str(&format!(
        "        m : LockMain [ stdout = out.stdout, lock = f{}.lock ];\n        main = m.main;\n    }};\n}}\n",
        layers - 1
    ));
    let mut unit_files: Vec<(String, String)> =
        oskit::unit_sources().iter().map(|(f, s)| (f.to_string(), s.to_string())).collect();
    unit_files.push(("filters.unit".to_string(), units));

    (unit_files, t, oskit::kernel_options("DeepLockKernel"))
}

/// Build the deep-lock kernel of [`deep_lock_kernel_inputs`] and gather
/// checker statistics.
pub fn constraint_stats() -> ConstraintStats {
    let (p, t, mut opts) = deep_lock_kernel_inputs();
    let report = build(&p, &t, &opts).expect("deep kernel builds and passes constraints");
    let cr = report.constraints.clone().expect("checked");

    // count annotations among the units actually linked into this kernel
    let used: std::collections::BTreeSet<String> =
        report.elaboration.instances.iter().map(|i| i.unit.to_string()).collect();
    let mut annotated = 0usize;
    let mut prop_only = 0usize;
    for name in &used {
        let u = &p.units[name];
        if u.constraints.is_empty() {
            continue;
        }
        annotated += 1;
        let pure = u.constraints.iter().all(|c| {
            use knit_lang::ast::{COp, CTarget, CTerm};
            matches!(
                (&c.lhs, &c.rhs, c.op),
                (
                    CTerm::Prop { target: CTarget::Exports, .. },
                    CTerm::Prop { target: CTarget::Imports, .. },
                    COp::Le
                )
            )
        });
        if pure {
            prop_only += 1;
        }
    }

    // seeded bug still caught in the big program
    let caught = oskit::build_kernel(oskit::KERNEL_IRQ_BAD).is_err();

    // Knit-only time, with and without constraint checking (compile
    // dominates total time; this isolates the front end the way the paper
    // reports "constraint-checking more than doubles the time taken to run
    // Knit").
    let mut knit_only = |check: bool| -> u128 {
        opts.check_constraints = check;
        let r = build(&p, &t, &opts).expect("builds");
        r.phases
            .iter()
            .filter(|(n, _)| {
                matches!(*n, "elaborate" | "constraints" | "schedule" | "objcopy" | "generate")
            })
            .map(|(_, d)| d.as_micros())
            .sum()
    };
    let unchecked = knit_only(false);
    let checked = knit_only(true);

    ConstraintStats {
        units: report.elaboration.instances.len(),
        annotated,
        propagation_only: prop_only,
        vars: cr.vars,
        constraints: cr.constraints,
        caught_seeded_bug: caught,
        knit_time_unchecked_us: unchecked,
        knit_time_checked_us: checked,
    }
}

// ---------------------------------------------------------------------------
// §6 build-time breakdown
// ---------------------------------------------------------------------------

/// One row of the serial / parallel / warm-cache / incremental build
/// comparison.
#[derive(Debug, Clone)]
pub struct BuildModeRow {
    /// `"serial"`, `"parallel"`, `"warm cache"`, `"incremental"`, or
    /// `"incr edit"`.
    pub mode: &'static str,
    /// `BuildOptions::jobs` used for the build.
    pub jobs: usize,
    /// Compile-phase wall-clock (ms).
    pub compile_ms: f64,
    /// Whole-pipeline wall-clock (ms).
    pub total_ms: f64,
    /// Units that went through the C compiler (cache misses).
    pub units_compiled: usize,
    /// Units reused without recompiling (cache hits + session memo).
    pub units_reused: usize,
    /// Units served from the compile cache.
    pub cache_hits: usize,
}

/// Build the modular Clack router five ways — serial cold (`jobs = 1`,
/// empty cache), parallel cold (`jobs = `[`knit::default_jobs`]` max 2`,
/// empty cache), warm (same jobs, through the cache the parallel build
/// just filled, so every unit should hit), incremental no-op (a
/// [`knit::BuildSession`] rebuilt with nothing changed — the full-reuse
/// fast path), and incremental edit (the same session after one `.c`
/// file changes — exactly one recompile) — and report per-mode timings.
/// Asserts the cold/warm/no-op images are byte-identical and that the
/// edited rebuild equals a cold build of the edited tree; the speedup of
/// the parallel row over the serial row is bounded by the machine's core
/// count (on one core the two rows measure the same work).
pub fn build_time_modes() -> Vec<BuildModeRow> {
    let (p, t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
    let compile_ms = |r: &knit::BuildReport| {
        r.phases
            .iter()
            .find(|(n, _)| *n == "compile")
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0)
    };
    let total_ms =
        |r: &knit::BuildReport| r.phases.iter().map(|(_, d)| d.as_secs_f64() * 1e3).sum::<f64>();
    let row = |mode: &'static str, r: &knit::BuildReport| BuildModeRow {
        mode,
        jobs: r.jobs,
        compile_ms: compile_ms(r),
        total_ms: total_ms(r),
        units_compiled: r.stats.units_compiled,
        units_reused: r.stats.units_reused,
        cache_hits: r.stats.cache_hits,
    };

    let mut serial_opts = opts.clone();
    serial_opts.jobs = 1;
    let serial = build(&p, &t, &serial_opts).expect("serial build");

    // The parallel and warm rows are two fresh sessions sharing one cache:
    // the second compiles nothing, but reruns every other phase.
    let mut par_opts = opts;
    par_opts.jobs = knit::default_jobs().max(2);
    let cache = BuildCache::new();
    let cached_build = || {
        BuildSession::from_parts(p.clone(), t.clone(), par_opts.clone())
            .with_cache(cache.clone())
            .build()
    };
    let parallel = cached_build().expect("parallel build");
    let warm = cached_build().expect("warm build");

    assert_eq!(serial.image, parallel.image, "jobs must not change the image");
    assert_eq!(parallel.image, warm.image, "the cache must not change the image");
    assert_eq!(warm.stats.cache_misses, 0, "warm rebuild must recompile nothing");

    // Incremental rows: a persistent session over the same inputs, sharing
    // the warm compile cache. The first build populates the session's memo
    // (all cache hits); the second is the unchanged fast path; then one
    // source edit invalidates exactly one unit.
    let mut session =
        BuildSession::from_parts(p.clone(), t.clone(), par_opts.clone()).with_cache(cache.clone());
    session.build().expect("session warm build");
    let noop = session.build().expect("incremental no-op build");
    assert_eq!(noop.image, warm.image, "no-op rebuild must not change the image");
    assert_eq!(noop.stats.units_compiled, 0, "no-op rebuild must recompile nothing");

    let edited = format!(
        "{}\nstatic int knit_bench_poke;\n",
        t.get("counter.c").expect("router uses counter.c")
    );
    session.update_source("counter.c", &edited);
    let incr = session.build().expect("incremental edit build");
    let mut t2 = t.clone();
    t2.add("counter.c", edited);
    let cold_edited = build(&p, &t2, &par_opts).expect("cold edited build");
    assert_eq!(incr.image, cold_edited.image, "incremental rebuild must match a cold build");
    assert_eq!(incr.stats.units_compiled, 1, "one edit must recompile exactly one unit");

    vec![
        row("serial", &serial),
        row("parallel", &parallel),
        row("warm cache", &warm),
        row("incremental", &noop),
        row("incr edit", &incr),
    ]
}

// ---------------------------------------------------------------------------
// cross-unit analyzer wall-time (DESIGN.md §3, `knit::analyze`)
// ---------------------------------------------------------------------------

/// Analyzer timings over the ~100-unit deep-lock kernel.
#[derive(Debug, Clone)]
pub struct AnalyzeTimeRow {
    /// Distinct units the analyzer summarized.
    pub units: usize,
    /// Diagnostics produced on the cold pass.
    pub diagnostics: usize,
    /// Cold full-program analysis wall-clock (ms).
    pub cold_ms: f64,
    /// Re-analysis wall-clock after a one-file edit (ms).
    pub incremental_ms: f64,
    /// Unit summaries rebuilt by the incremental pass.
    pub reanalyzed: usize,
}

/// Time [`knit::BuildSession::analyze`] cold and after a one-file edit on
/// the ~100-unit kernel of [`deep_lock_kernel_inputs`]. Asserts the
/// session's precision law: the edit resummarizes exactly one unit and
/// leaves the findings unchanged.
pub fn analyze_time() -> AnalyzeTimeRow {
    let (p, t, opts) = deep_lock_kernel_inputs();
    let edited = format!("{}\nstatic int bench_poke;\n", t.get("filter0.c").expect("filter0.c"));
    let config = knit::LintConfig::new();
    let mut session = knit::BuildSession::from_parts(p, t, opts);

    let start = std::time::Instant::now();
    let cold = session.analyze(&config).expect("kernel analyzes");
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let runs_cold = session.stats().analyze.runs;

    session.update_source("filter0.c", &edited);
    let start = std::time::Instant::now();
    let incr = session.analyze(&config).expect("kernel re-analyzes");
    let incremental_ms = start.elapsed().as_secs_f64() * 1e3;
    let reanalyzed = session.stats().analyze.runs - runs_cold;
    assert_eq!(reanalyzed, 1, "one edit must resummarize exactly one unit");
    assert_eq!(
        incr.diagnostics.len(),
        cold.diagnostics.len(),
        "an unused static must not change the findings"
    );

    AnalyzeTimeRow {
        units: cold.units_analyzed,
        diagnostics: cold.diagnostics.len(),
        cold_ms,
        incremental_ms,
        reanalyzed,
    }
}

/// Time the concurrency lints (K1006–K1009, DESIGN.md §11) on the 4-core
/// sharded router — the interprocedural lockset fixpoint runs inside
/// `analyze`, so this is the same memoized pipeline as [`analyze_time`]
/// but on the multi-core composition whose shared statics actually
/// exercise it. Asserts the smoke contract: the intact router is
/// concurrency-lint-clean and a one-file edit resummarizes one unit.
pub fn race_analyze_time() -> AnalyzeTimeRow {
    let (p, t, opts) = clack::mc_router_build_inputs(4, false).expect("mc inputs");
    let edited = format!("{}\n/* bench poke */\n", t.get("counter.c").expect("counter.c"));
    let config = knit::LintConfig::new();
    let mut session = knit::BuildSession::from_parts(p, t, opts);

    let start = std::time::Instant::now();
    let cold = session.analyze(&config).expect("router analyzes");
    let cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let runs_cold = session.stats().analyze.runs;
    let conc = |r: &knit::AnalysisReport| {
        r.diagnostics
            .iter()
            .filter(|d| ["K1006", "K1007", "K1008", "K1009"].contains(&d.code))
            .count()
    };
    assert_eq!(conc(&cold), 0, "the intact sharded router must be race-lint-clean");

    session.update_source("counter.c", &edited);
    let start = std::time::Instant::now();
    let incr = session.analyze(&config).expect("router re-analyzes");
    let incremental_ms = start.elapsed().as_secs_f64() * 1e3;
    let reanalyzed = session.stats().analyze.runs - runs_cold;
    assert_eq!(reanalyzed, 1, "one edit must resummarize exactly one unit");
    assert_eq!(conc(&incr), 0, "a comment edit must not change the race verdicts");

    AnalyzeTimeRow {
        units: cold.units_analyzed,
        diagnostics: cold.diagnostics.len(),
        cold_ms,
        incremental_ms,
        reanalyzed,
    }
}

/// Per-phase build times for a configuration.
pub fn build_time_breakdown() -> Vec<(String, f64)> {
    let report = build_clack_router(&ip_router(), false).expect("router builds");
    let total: f64 = report.phases.iter().map(|(_, d)| d.as_secs_f64()).sum();
    report.phases.iter().map(|(n, d)| (n.to_string(), d.as_secs_f64() / total * 100.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_builds_agree_for_every_length() {
        for n in 1..=4 {
            let (_, rk) = chain_cycles_knit(n, 100);
            let (_, rt) = chain_cycles_traditional(n, 100);
            assert_eq!(rk, rt, "n={n}");
        }
    }

    #[test]
    fn knit_overhead_is_small() {
        // the paper reports "from 2% slower to 3% faster"
        for row in micro_overhead() {
            assert!(
                row.pct.abs() < 5.0,
                "chain {} overhead {:.2}% out of band",
                row.chain_len,
                row.pct
            );
        }
    }

    #[test]
    fn table1_orderings_match_the_paper() {
        let rows = table1();
        let get = |hand: bool, flat: bool| {
            rows.iter().find(|r| r.hand_optimized == hand && r.flattened == flat).unwrap().cycles
        };
        let base = get(false, false);
        let hand = get(true, false);
        let flat = get(false, true);
        let both = get(true, true);
        assert!(hand < base, "hand optimization wins: {hand} vs {base}");
        assert!(flat < base, "flattening wins: {flat} vs {base}");
        assert!(both <= hand && both <= flat, "both is best: {both}");
    }

    /// The PGO acceptance criteria on the Clack base router: the layout
    /// derived from a profiled run strictly cuts instruction-fetch stalls
    /// while leaving the non-stall work untouched; the advisor names hot
    /// cross-unit edges; and applying its flatten suggestion (the
    /// flattened configuration) lowers cycles per packet.
    #[test]
    fn pgo_layout_cuts_stalls_and_advice_pays_off() {
        let work = router_workload_sized(128);
        let (p, t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
        let base = build(&p, &t, &opts).expect("base builds");
        let (mb, profile) = profile_router(&base, &work);
        assert!(mb.raw.ifetch_stall_cycles > 0, "base router must conflict-miss");

        let mut pgo_opts = opts.clone();
        pgo_opts.profile = Some(std::sync::Arc::new(profile.layout_profile()));
        let laid = build(&p, &t, &pgo_opts).expect("pgo build");
        let ml = RouterHarness::new(&laid).expect("harness").measure(&work).expect("measure");
        assert!(
            ml.raw.ifetch_stall_cycles < mb.raw.ifetch_stall_cycles,
            "pgo layout must cut stalls: {} vs {}",
            ml.raw.ifetch_stall_cycles,
            mb.raw.ifetch_stall_cycles
        );
        assert_eq!(
            ml.raw.cycles - ml.raw.ifetch_stall_cycles,
            mb.raw.cycles - mb.raw.ifetch_stall_cycles,
            "layout must not change the non-stall work"
        );

        let advice = knit::pgo::suggest(&base, &profile);
        assert!(!advice.hot_edges.is_empty(), "advisor must find hot cross-instance edges");
        let top = advice.suggestions.first().expect("advisor must suggest a flatten group");
        assert!(top.units.len() > 1, "the suggestion must span units: {:?}", top.units);

        // applying the suggestion = flattening the router core
        let flat = build_clack_router(&ip_router(), true).expect("flat builds");
        let mf = RouterHarness::new(&flat).expect("harness").measure(&work).expect("measure");
        assert!(
            mf.cycles_per_packet < mb.cycles_per_packet,
            "applied suggestion must lower cycles/packet: {} vs {}",
            mf.cycles_per_packet,
            mb.cycles_per_packet
        );
    }

    /// PGO must also pay off on the ~100-unit deep-lock kernel, the other
    /// half of the tentpole: fewer fetch stalls and I-cache misses, the
    /// same non-stall work, and a layout-invariant text size.
    #[test]
    fn pgo_layout_cuts_deep_lock_kernel_stalls() {
        let r = deep_lock_pgo();
        let (bc, bs, bm) = r.base;
        let (pc, ps, pm) = r.pgo;
        assert!(bs > 0, "kernel boot must conflict-miss at input order");
        assert!(ps < bs, "pgo layout must cut boot stalls: {ps} vs {bs}");
        assert!(pm < bm, "pgo layout must cut icache misses: {pm} vs {bm}");
        assert_eq!(pc - ps, bc - bs, "layout must not change the non-stall work");
    }

    #[test]
    fn table2_orderings_match_the_paper() {
        let t = table2();
        assert!(t.click_optimized < t.click_unoptimized);
        assert!(t.click_unoptimized > t.clack_base, "Click base is slower than Clack base");
    }

    #[test]
    fn constraint_stats_shape() {
        let s = constraint_stats();
        assert!(s.units >= 90, "around a hundred units: {}", s.units);
        assert!(s.annotated >= 30 && s.annotated <= s.units / 2, "paper-like fraction annotated");
        assert!(s.propagation_only * 100 / s.annotated >= 60, "~70% propagation-only");
        assert!(s.caught_seeded_bug);
        assert!(s.constraints >= 40);
    }
}
