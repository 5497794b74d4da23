//! The executable specifications in `bench::spec` hold on every corpus,
//! and each rejects its class of mutant: data mutations of a real
//! elaboration, schedule or constraint text, made inside the test.

use bench::spec::{self, Site};
use bench::synth::{generate, SynthCorpus, SynthParams};
use knit::sched::Schedule;
use knit::{Elaboration, KnitError, Program, Wire};

/// Whether the engine's constraint check passes, after asserting that the
/// naive fixpoint gives the same verdict and contains the engine's blame.
fn constraints_hold(program: &Program, el: &Elaboration, what: &str) -> bool {
    let conflicts = spec::check_constraints(program, el).expect("annotations resolve");
    let Err(e) = knit::constraints::check(program, el) else {
        assert!(conflicts.is_empty(), "{what}: the spec finds conflicts {conflicts:?}");
        return true;
    };
    let property = match e.root() {
        KnitError::ConstraintViolation { property, .. } | KnitError::NoMeet { property, .. } => {
            property.clone()
        }
        other => panic!("{what}: not a constraint error: {other}"),
    };
    let (file, line, col) = e.span().expect("a constraint error has a site");
    let blamed: Site = (property, file, line, col);
    assert!(conflicts.contains(&blamed), "{what}: {blamed:?} is not in {conflicts:?}");
    false
}

/// Elaborate and schedule `root`, and check all three specs.
fn check_specs(program: &Program, root: &str) -> (Elaboration, Schedule, bool) {
    let el = knit::elaborate::elaborate(program, root).expect("elaborates");
    spec::check_wiring(program, &el).unwrap_or_else(|e| panic!("{root}: wiring: {e}"));
    let s = knit::sched::schedule(program, &el).expect("schedules");
    spec::check_schedule(program, &el, &s).unwrap_or_else(|e| panic!("{root}: schedule: {e}"));
    let holds = constraints_hold(program, &el, root);
    (el, s, holds)
}

/// A text edit of a corpus file: `(file, from, to)`.
type Edit<'a> = (&'a str, &'a str, &'a str);

/// The 300-unit corpus (seed `0xFEED`) with text edits.
fn corpus_300(edits: &[Edit]) -> (Program, Elaboration) {
    let mut corpus = generate(&SynthParams::sized(300, 0xFEED));
    for (file, from, to) in edits {
        let text = &mut corpus.units.iter_mut().find(|(f, _)| f == file).expect("unit file").1;
        assert!(text.contains(from), "{file} contains `{from}`");
        *text = text.replacen(from, to, 1);
    }
    let program = corpus.load_program(1).expect("corpus parses");
    let el = knit::elaborate::elaborate(&program, &corpus.root).expect("elaborates");
    (program, el)
}

#[test]
fn specs_hold_on_every_oskit_kernel() {
    let program = oskit::program();
    for root in oskit::GOOD_KERNELS {
        assert!(check_specs(&program, root).2, "{root}: constraints hold");
    }
    // §4's example: an interrupt handler reaching a blocking lock.
    assert!(!check_specs(&program, oskit::KERNEL_IRQ_BAD).2, "IrqKernelBad violates `context`");
}

#[test]
fn specs_hold_on_both_router_builds() {
    for flatten in [false, true] {
        let (program, _, opts) =
            clack::router_build_inputs(&clack::ip_router(), flatten).expect("router generates");
        assert!(check_specs(&program, &opts.root).2, "flatten={flatten}: constraints hold");
    }
}

#[test]
fn specs_hold_on_synthetic_corpora() {
    for seed in [0xFEED, 0xBEEF] {
        let corpus = generate(&SynthParams::sized(300, seed));
        let program = corpus.load_program(1).expect("corpus parses");
        let (el, s, holds) = check_specs(&program, &corpus.root);
        assert!(holds && el.stats.template_copies > 0 && !s.inits.is_empty(), "seed {seed:#x}");
    }
}

/// None of the corpora above declares a finalizer. `IoUnit` has no
/// initializer, so only the finalizer rule, not the reverse of
/// initialization order, puts `log_close` before `io_fini`.
#[test]
fn specs_hold_with_finalizers() {
    let mut program = Program::new();
    let text = r#"
        bundletype Io = { put }
        bundletype Log = { log }
        bundletype Main = { main }
        unit IoUnit = { exports [ io : Io ]; finalizer io_fini for io; files { "io.c" }; }
        unit LogUnit = {
            imports [ out : Io ]; exports [ log : Log ]; files { "log.c" };
            initializer log_open for log; finalizer log_close for log;
            depends { log_open needs out; log_close needs out; log needs out; };
        }
        unit App = {
            imports [ lg : Log ]; exports [ main : Main ]; files { "app.c" };
            initializer app_init for main; finalizer app_fini for main;
            depends { app_init needs lg; app_fini needs lg; };
        }
        unit Sys = {
            exports [ main : Main ];
            link { a : App [ lg = l.log ]; l : LogUnit [ out = io.io ]; io : IoUnit; main = a.main; };
        }
    "#;
    program.load_str("f.unit", text).expect("parses");
    let (_, s, _) = check_specs(&program, "Sys");
    assert_eq!((s.inits.len(), s.finis.len()), (2, 3));
}

/// Each case edits constraint text of the corpus. The naive fixpoint and
/// the worklist solver must agree on the verdict and blame, and flipping
/// one `<=` or one poset relation of a consistent case flips both.
#[test]
fn constraint_edits_flip_both_verdicts_together() {
    const FLOW: &str = "grade(inp) <= grade(out);";
    let poset = ("base.unit", "type GTop\ntype GBot < GTop", "type GBot\ntype GTop < GBot");
    let depth = SynthParams::sized(300, 0xFEED).depth;
    let (u1, top) = (SynthCorpus::unit_file(1, 0), SynthCorpus::unit_file(depth - 1, 3));
    let bounded = format!("{FLOW} grade(inp) <= GTop;");
    let flipped = format!("{FLOW} GTop <= grade(inp);");
    let trapped = format!("{FLOW} grade(out) <= GBot; GTop <= grade(inp);");
    let cases: [(Vec<Edit>, bool); 6] = [
        // consistent: an upper bound every lower bound meets
        (vec![(&u1, FLOW, &bounded)], true),
        // its `<=` flipped: a lower bound against `U0_*`'s `= GBot`
        (vec![(&u1, FLOW, &flipped)], false),
        // its poset relation flipped
        (vec![(&u1, FLOW, &bounded), poset], false),
        // a lower bound nothing bounds from above, at the top layer
        (vec![(&top, FLOW, &flipped)], true),
        // both bounds in one unit, meeting after one propagation
        (vec![(&top, FLOW, &trapped)], false),
        // the unedited corpus under the flipped poset
        (vec![poset], true),
    ];
    for (edits, holds) in cases {
        let (program, el) = corpus_300(&edits);
        assert_eq!(constraints_hold(&program, &el, &format!("{edits:?}")), holds, "{edits:?}");
    }
}

/// Swapping the providers of two instances of one unit keeps every wire
/// well-typed; only the binding rule can tell.
#[test]
fn wiring_spec_rejects_two_swapped_wires() {
    let (program, mut el) = corpus_300(&[]);
    let id = |path: &str| el.instances.iter().position(|i| i.path == path).expect("instance");
    let (a, b, inp) = (id("SynthSys/p0/s1"), id("SynthSys/p1/s1"), knit::Sym::new("inp"));
    let (wa, wb) = (el.instances[a].imports[&inp].clone(), el.instances[b].imports[&inp].clone());
    assert_ne!(wa, wb, "the two replicas have their own providers");
    el.instances[a].imports.insert(inp, wb);
    el.instances[b].imports.insert(inp, wa);
    assert!(spec::check_wiring(&program, &el).expect_err("rejected").contains("wired to"));
}

/// Moving an initializer ahead of the provider initializer it needs keeps
/// every call exactly once; only the ordering rule can tell.
#[test]
fn schedule_spec_rejects_an_initializer_ahead_of_its_provider() {
    let (program, el) = corpus_300(&[]);
    let mut s = knit::sched::schedule(&program, &el).expect("schedules");
    // A layer unit's `uL_K_init needs inp`, wired to an instance with an
    // initializer for the wired export.
    let init_of = |inst: usize| s.inits.iter().position(|(i, _)| *i == inst);
    let (dependent, provider) = (0..el.instances.len())
        .find_map(|i| match el.instances[i].imports.get("inp")? {
            Wire::Export { instance, .. } => Some((init_of(i)?, init_of(*instance)?)),
            Wire::External { .. } => None,
        })
        .expect("an initializer that needs another");
    assert!(provider < dependent, "the real schedule runs the provider first");
    let moved = s.inits.remove(dependent);
    s.inits.insert(provider, moved);
    let err = spec::check_schedule(&program, &el, &s).expect_err("rejected");
    assert!(err.contains("must run before"), "{err}");
}
