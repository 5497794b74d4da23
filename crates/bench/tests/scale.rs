//! Identity and incrementality pins for the scaled composition engine.
//!
//! The interner/worklist/template work (DESIGN.md §13) is only admissible
//! if it is invisible: these tests pin byte-level golden image hashes and
//! diagnostics on the pre-existing corpora, hashes of the canonical
//! elaboration and schedule dumps (captured while the pre-interner engine
//! still produced the same bytes), `--jobs` determinism (as proptests),
//! and the one-edit incremental law on a 10k-unit [`knit::BuildSession`]
//! via exact [`knit::SessionStats`] counts and exact elaborator and
//! constraint-solver work counts. That the engine's output obeys the
//! paper's rules is checked separately, against the executable
//! specifications in `tests/spec.rs`.

use bench::spec::{dump_elaboration, dump_hash, dump_schedule};
use bench::synth::{generate, SynthCorpus, SynthParams, PACK_DEPTH};
use knit::proto::image_hash;
use knit::{BuildOptions, BuildSession};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// golden identity on the pre-existing corpora
// ---------------------------------------------------------------------------

/// `(root, image hash, schedule length, elaboration dump hash, schedule
/// dump hash)` captured on the pre-interner engine; the hashes of the
/// canonical dumps ([`dump_elaboration`], [`dump_schedule`]) were taken
/// while that engine's own dumps still matched them byte for byte. Any
/// drift means the scaling work changed observable output.
const GOLDEN_KERNELS: &[(&str, u64, usize, u64, u64)] = &[
    ("HelloKernel", 0x1981bda0f7b12d17, 0, 0xcdafe81bc0c81bc0, EMPTY),
    ("HelloSerialKernel", 0xce7afa023047bd4f, 0, 0x929093c6f36e2500, EMPTY),
    ("FsKernel", 0x6999f09bf3012eeb, 2, 0xa9a3d4b3284da5e7, 0x9ae1f15ff7ca233e),
    ("RedirectKernel", 0xed1297360fe45164, 0, 0xc4cf6d9dbbaf9a76, EMPTY),
    ("IrqKernelGood", 0x37c8246065e12178, 0, 0x5b6edbb3f23dfde1, EMPTY),
    ("LockKernel", 0x30d90b3244730370, 0, 0x4b27b6509d2aa175, EMPTY),
    ("LockKernelSpin", 0xdcbf23a4be4fd390, 0, 0x59dd1c8ec2aea9cf, EMPTY),
    ("NetEchoKernel", 0x8290da58cc6bd8b6, 0, 0x3addd2e7b849f558, EMPTY),
    ("UptimeKernel", 0x1f7ecfcde4c40920, 0, 0xdd9dd24e55f2bc0a, EMPTY),
    ("ChainKernel", 0x93b0a61cd96ca335, 0, 0x2456b03f36331013, EMPTY),
    ("ChainKernelFlat", 0x89d852eb451842cc, 0, 0xdeac0c1b5b65b053, EMPTY),
];

/// The hash of an empty dump (FNV-1a's offset basis).
const EMPTY: u64 = 0xcbf29ce484222325;

/// Image hash of the cold 10k build in
/// `one_edit_in_a_10k_unit_session_is_incremental` (seed `0xC0FFEE`). The
/// corpus instantiates the `Pack` units 625 times each, so this pins the
/// per-instance renaming of multiply-instantiated units end to end. Its
/// dump hashes follow.
const GOLDEN_10K: u64 = 0x66d4439bb58c3ca7;
const GOLDEN_10K_DUMPS: (u64, u64) = (0x79912d919e5a33cb, 0x585ddd7287415d19);

fn dump_hashes(program: &knit::Program, el: &knit::Elaboration) -> (u64, u64) {
    let s = knit::sched::schedule(program, el).expect("schedules");
    (dump_hash(&dump_elaboration(el)), dump_hash(&dump_schedule(&s)))
}

#[test]
fn oskit_images_byte_identical_to_pre_interner_engine() {
    assert_eq!(GOLDEN_KERNELS.len(), oskit::GOOD_KERNELS.len(), "golden table covers every kernel");
    let program = oskit::program();
    for &(root, hash, sched_len, el, sched) in GOLDEN_KERNELS {
        assert!(oskit::GOOD_KERNELS.contains(&root), "{root} is a known kernel");
        let r = oskit::build_kernel(root).expect("good kernel builds");
        assert_eq!(image_hash(&r.image), hash, "{root}: image drifted");
        assert_eq!(r.schedule.len(), sched_len, "{root}: schedule drifted");
        assert_eq!(dump_hashes(&program, &r.elaboration), (el, sched), "{root}: dumps drifted");
    }
}

#[test]
fn clack_images_byte_identical_to_pre_interner_engine() {
    for (flatten, hash, el, sched) in [
        (false, 0xf51a1bee14d00a92u64, 0x98768751e6b967ff, 0xf025916c50bcef13),
        (true, 0xb076a43278c4462d, 0x07ff0954935a5647, 0xf025916c50bcef13),
    ] {
        let r = clack::build_clack_router(&clack::ip_router(), flatten).expect("router builds");
        assert_eq!(image_hash(&r.image), hash, "clack flatten={flatten}: image drifted");
        let (program, _, _) =
            clack::router_build_inputs(&clack::ip_router(), flatten).expect("router generates");
        assert_eq!(dump_hashes(&program, &r.elaboration), (el, sched), "flatten={flatten}");
    }
}

/// Dump hashes of the 300-unit synthetic corpus (seed `0xFEED`), captured
/// the same way as the kernels' above.
#[test]
fn synthetic_corpus_dumps_are_pinned() {
    let corpus = generate(&SynthParams::sized(300, 0xFEED));
    let program = corpus.load_program(1).expect("corpus parses");
    let el = knit::elaborate::elaborate(&program, &corpus.root).expect("elaborates");
    assert_eq!(dump_hashes(&program, &el), (0x05e298a4513b9319, 0xcf93e57346b89ff8));
}

/// Structured diagnostics must also survive byte-for-byte: the constraint
/// solver's lazily-materialized provenance chains have to render exactly
/// the strings the eager pre-worklist solver produced.
#[test]
fn diagnostics_byte_identical_to_pre_interner_engine() {
    let err = oskit::build_kernel(oskit::KERNEL_IRQ_BAD).unwrap_err();
    let diags: Vec<String> = err.diagnostics().iter().map(|d| d.json()).collect();
    assert_eq!(
        diags,
        vec!["{\"code\":\"K0011\",\"severity\":\"error\",\"message\":\"constraint violation on \
             property `context`\",\"span\":{\"file\":\"components.unit\",\"line\":108,\"col\":9},\
             \"notes\":[\"blame: requires at least `NoContext` (unit `IrqDispatch` at \
             `IrqKernelBad/d`: context(irq) = NoContext (via unit `IrqDispatch` at \
             `IrqKernelBad/d`: context(irq) <= context(handler)) (via unit `IrqHandlerSpin` at \
             `IrqKernelBad/h`: context(exports) <= context(imports))) but at most \
             `ProcessContext` (unit `BlockingMutex` at `IrqKernelBad/lock`: context(lock) = \
             ProcessContext)\"]}"
            .to_string()]
    );

    let mut p = knit::Program::new();
    p.load_str(
        "x.unit",
        r#"
        bundletype IO = { get }
        unit A = {
            imports [ inp : IO ];
            exports [ out : IO ];
            files { "a.c" };
        }
        unit Root = {
            exports [ out : IO ];
            link {
                a : A [];
                out = a.out;
            };
        }
        "#,
    )
    .unwrap();
    let t = knit::SourceTree::new();
    let err = knit::build(&p, &t, &BuildOptions::new("Root", Vec::<String>::new())).unwrap_err();
    let diags: Vec<String> = err.diagnostics().iter().map(|d| d.json()).collect();
    assert_eq!(
        diags,
        vec!["{\"code\":\"K0004\",\"severity\":\"error\",\"message\":\"instance `Root/a`: import \
             `inp` is not wired to anything\",\"span\":{\"file\":\"x.unit\",\"line\":11,\
             \"col\":17},\"notes\":[]}"
            .to_string()]
    );
}

// ---------------------------------------------------------------------------
// determinism proptests: seeds and --jobs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generator is a pure function of its parameters: the same seed
    /// yields byte-identical `.unit` and `.c` sources.
    #[test]
    fn same_seed_same_corpus(seed in any::<u64>()) {
        let a = generate(&SynthParams::sized(80, seed));
        let b = generate(&SynthParams::sized(80, seed));
        prop_assert_eq!(&a.units, &b.units);
        for (path, text) in a.tree.iter() {
            prop_assert_eq!(b.tree.get(path), Some(text));
        }
        // adjacent seeds must not collide (scrambled stream)
        let c = generate(&SynthParams::sized(80, seed.wrapping_add(1)));
        prop_assert_ne!(&a.units, &c.units);
    }

    /// Parallel parsing merges in deterministic order: elaboration is
    /// byte-identical for every `--jobs`.
    #[test]
    fn elaboration_identical_for_every_jobs(seed in any::<u64>()) {
        let corpus = generate(&SynthParams::sized(90, seed));
        let base = dump_elaboration(
            &knit::elaborate::elaborate(
                &corpus.load_program(1).expect("parses"), &corpus.root,
            ).expect("elaborates"),
        );
        for jobs in [2usize, 4, 8] {
            let program = corpus.load_program(jobs).expect("parses");
            let el = knit::elaborate::elaborate(&program, &corpus.root).expect("elaborates");
            prop_assert_eq!(&dump_elaboration(&el), &base, "jobs={}", jobs);
        }
    }
}

/// Every parallel phase of a cold build — parsing and interning, compiles,
/// constraints next to the schedule, rename plans, stamping and objcopy,
/// flattening, and the link's validation, symbol scan and function
/// resolution — merges in a fixed order: the image is byte-identical for
/// every `jobs`.
#[test]
fn images_identical_for_every_jobs() {
    let corpus = generate(&SynthParams::sized(300, 0xBEEF));
    let images: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|jobs| {
            let program = corpus.load_program(jobs).expect("parses");
            let opts = BuildOptions::root(&corpus.root).jobs(jobs).build();
            (jobs, knit::build(&program, &corpus.tree, &opts).expect("builds").image)
        })
        .collect();
    for (jobs, image) in &images[1..] {
        assert!(*image == images[0].1, "image at jobs={jobs} differs from jobs=1");
    }
}

/// Rename plans are made on `jobs` workers, but a build where two units
/// fail planning still reports the failing unit instantiated first — not
/// the first by name, nor the first to finish — in the same human and
/// JSON bytes for every `jobs`.
#[test]
fn rename_plan_errors_identical_for_every_jobs() {
    let params = SynthParams::sized(300, 0x5EED);
    let mut corpus = generate(&params);
    let el = knit::elaborate::elaborate(&corpus.load_program(1).expect("parses"), &corpus.root)
        .expect("elaborates");
    // Two layer units whose name order and instantiation order disagree.
    let layer: Vec<(usize, usize)> =
        (1..params.depth).flat_map(|l| (0..params.fanout).map(move |k| (l, k))).collect();
    let name = |(l, k): (usize, usize)| format!("U{l}_{k}");
    let first = |u: (usize, usize)| el.instances_of(&name(u))[0];
    let (later, earlier) = layer
        .iter()
        .flat_map(|&a| layer.iter().map(move |&b| (a, b)))
        .find(|&(a, b)| name(a) < name(b) && first(a) > first(b))
        .expect("instantiation order is shuffled against name order");
    // `later` references a symbol nothing provides; `earlier` no longer
    // defines its export member `f0`.
    let path = SynthCorpus::c_file(later.0, later.1);
    let text = corpus.tree.get(&path).expect("layer source").to_string();
    corpus.tree.add(&path, format!("{text}int ghost();\nint extra() {{ return ghost(); }}\n"));
    let path = SynthCorpus::c_file(earlier.0, earlier.1);
    let prefix = format!("u{}_{}", earlier.0, earlier.1);
    let text = corpus.tree.get(&path).expect("layer source").to_string();
    let renamed = text.replace(&format!("int {prefix}_f0() {{"), &format!("int {prefix}_g0() {{"));
    assert_ne!(renamed, text, "the export definition was renamed away");
    corpus.tree.add(&path, renamed);

    let rendered: Vec<(String, String)> = [1usize, 2, 4]
        .into_iter()
        .map(|jobs| {
            let program = corpus.load_program(jobs).expect("parses");
            let opts = BuildOptions::root(&corpus.root).jobs(jobs).build();
            let err = knit::build(&program, &corpus.tree, &opts).expect_err("planning fails");
            let diags = err.diagnostics();
            let human: Vec<String> = diags.iter().map(|d| d.human()).collect();
            let json: Vec<String> = diags.iter().map(|d| d.json()).collect();
            (human.join("\n"), json.join("\n"))
        })
        .collect();
    let (human, json) = &rendered[0];
    assert!(
        human.contains(&format!("unit `{}`", name(earlier)))
            && human.contains(&format!("`out.{prefix}_f0`")),
        "blames the unit instantiated first: {human}"
    );
    assert!(!human.contains("ghost"), "not the first unit by name: {human}");
    assert!(
        json.contains(&format!("\"file\":\"{}\"", SynthCorpus::unit_file(earlier.0, earlier.1)))
    );
    for (jobs, r) in [2, 4].iter().zip(&rendered[1..]) {
        assert_eq!(r, &rendered[0], "diagnostics at jobs={jobs} differ from jobs=1");
    }
}

// ---------------------------------------------------------------------------
// the 10k-unit incremental session law
// ---------------------------------------------------------------------------

/// One edit in a 10k-unit session must rerun exactly the phases that can
/// observe it — everything else is answered from the session memo. Each
/// step pins the *exact* [`knit::SessionStats`] deltas.
#[test]
fn one_edit_in_a_10k_unit_session_is_incremental() {
    let params = SynthParams::sized(10_000, 0xC0FFEE);
    let corpus = generate(&params);
    let program = corpus.load_program(knit::default_jobs()).expect("corpus parses");
    let opts = BuildOptions::new(&corpus.root, Vec::<String>::new());
    let mut session = BuildSession::from_parts(program, corpus.tree.clone(), opts);

    // Cold build: every phase runs once.
    let report = session.build().expect("cold build");
    assert_eq!(report.elaboration.instances.len(), corpus.expected_instances);
    assert_eq!(image_hash(&report.image), GOLDEN_10K, "10k cold image drifted");
    // The 625 Pack replicas elaborate once: the first builds the template,
    // the rest are stamped — the "clean subgraph" the session never
    // revisits, pinned exactly.
    assert_eq!(report.elaboration.stats.template_copies, params.replicas - 1);
    assert_eq!(report.elaboration.stats.instances_stamped, (params.replicas - 1) * PACK_DEPTH);
    // Exact work counts of the elaborator and the constraint solver: every
    // unit declaration is built once, and the worklist converges in a
    // pinned number of rounds over a pinned number of variables.
    assert_eq!(report.elaboration.stats.nodes_built, corpus.unit_decls);
    let c = report.constraints.as_ref().expect("constraints checked");
    assert_eq!((c.vars, c.constraints, c.iterations), (14_945, 14_945, 48));
    assert_eq!(dump_hashes(session.program(), &report.elaboration), GOLDEN_10K_DUMPS);
    let cold = session.stats().clone();
    assert_eq!(cold.elaborate.runs, 1);
    assert_eq!(cold.constraints.runs, 1);
    assert_eq!(cold.schedule.runs, 1);
    assert!(cold.unit_compiles.runs > 0);
    let compiles = cold.unit_compiles.runs;

    // 1. Body edit: touch one layer unit's C file. Exactly one recompile;
    //    elaborate/constraints/schedule are all reused.
    let path = SynthCorpus::c_file(1, 0);
    let body = session.tree().get(&path).expect("layer source exists").to_string();
    session.update_source(&path, &format!("{body}\n/* tweak */\n"));
    session.build().expect("incremental rebuild");
    let s = session.stats().clone();
    assert_eq!(s.elaborate.runs, 1, "body edit must not re-elaborate");
    assert_eq!(s.elaborate.reuses, cold.elaborate.reuses + 1);
    assert_eq!(s.constraints.runs, 1);
    assert_eq!(s.schedule.runs, 1);
    assert_eq!(s.unit_compiles.runs, compiles + 1, "one edit, one recompile");
    assert_eq!(s.unit_compiles.reuses, cold.unit_compiles.reuses + compiles - 1);

    // 2. Comment-only `.unit` edit: fingerprints are span-free, so
    //    re-registering the file reruns nothing at all.
    let ufile = SynthCorpus::unit_file(1, 0);
    let decl = corpus
        .units
        .iter()
        .find(|(f, _)| *f == ufile)
        .map(|(_, text)| text.clone())
        .expect("layer unit file exists");
    session.update_unit(&ufile, &format!("// cosmetic\n{decl}")).expect("re-registers");
    session.build().expect("no-op rebuild");
    let s2 = session.stats().clone();
    assert_eq!(s2.elaborate.runs, 1, "comment edit must not re-elaborate");
    assert_eq!(s2.unit_compiles.runs, compiles + 1, "comment edit must not recompile");

    // 3. Schedule-only `.unit` edit: dropping a `depends` clause reruns
    //    the initializer schedule but reuses the elaboration and the
    //    constraint check (phase fingerprints see disjoint inputs).
    let without_dep = decl.replace("    depends { exports needs imports; };\n", "");
    assert_ne!(without_dep, decl, "layer unit carries the depends clause");
    session.update_unit(&ufile, &without_dep).expect("re-registers");
    session.build().expect("schedule-only rebuild");
    let s3 = session.stats().clone();
    assert_eq!(s3.elaborate.runs, 1, "depends edit must not re-elaborate");
    assert_eq!(s3.constraints.runs, 1, "depends edit must not re-check");
    assert_eq!(s3.schedule.runs, 2, "depends edit rebuilds the schedule");

    // 4. Interface edit: restoring the clause plus re-registering the
    //    original text flips the schedule fingerprint back; then an
    //    interface-level change (toggling `flatten` on one group) does
    //    force re-elaboration — which again stamps all replicas instead
    //    of rebuilding their subtrees.
    session.update_unit(&ufile, &decl).expect("restores");
    let flat0 = corpus
        .units
        .iter()
        .find(|(f, _)| f == "flat0.unit")
        .map(|(_, text)| text.clone())
        .expect("flatten group exists");
    let unflattened = flat0.replace("    flatten;\n", "");
    assert_ne!(unflattened, flat0, "group 0 carries the flatten marker");
    session.update_unit("flat0.unit", &unflattened).expect("re-registers");
    let report = session.build().expect("interface rebuild");
    let s4 = session.stats().clone();
    assert_eq!(s4.elaborate.runs, 2, "interface edit re-elaborates");
    assert_eq!(report.elaboration.stats.template_copies, params.replicas - 1);
    assert_eq!(report.elaboration.stats.instances_stamped, (params.replicas - 1) * PACK_DEPTH);

    // 5. Code edit: change the constant `u1_0_f0` (unit `U1_0`) returns. Unlike step 1's
    //    comment, this changes object code: exactly that unit recompiles,
    //    exactly its instances rerun objcopy, and the link reruns once (a
    //    same-shape relink) — to the image a cold build of the tree makes.
    let text = session.tree().get(&path).expect("layer source exists").to_string();
    let body = text.find("_f0() { return ").expect("layer unit defines f0");
    let end = body + text[body..].find("; }").expect("f0 body ends");
    let start = text[..end].rfind(|c: char| !c.is_ascii_digit()).expect("f0 has a body") + 1;
    let old: u64 = text[start..end].parse().expect("f0 ends in a constant");
    session.update_source(&path, &format!("{}{}{}", &text[..start], old + 1, &text[end..]));
    let report = session.build().expect("code-edit rebuild");
    let s5 = session.stats().clone();
    let instances =
        report.elaboration.instances.iter().filter(|i| i.unit.as_str() == "U1_0").count();
    assert!(instances > 0, "the edited unit is instantiated");
    assert_eq!(s5.unit_compiles.runs, s4.unit_compiles.runs + 1, "one edit, one recompile");
    assert_eq!(s5.objcopy.runs, s4.objcopy.runs + instances, "objcopy reruns per instance");
    assert_eq!(s5.link.runs, s4.link.runs + 1, "one relink");
    assert_eq!(s5.elaborate.runs, s4.elaborate.runs);
    assert_eq!(s5.schedule.runs, s4.schedule.runs);
    assert_eq!(s5.generate.runs, s4.generate.runs);
    let cold =
        knit::build(session.program(), session.tree(), session.options()).expect("cold build");
    assert_eq!(
        image_hash(&report.image),
        image_hash(&cold.image),
        "incremental image == cold image"
    );
}
