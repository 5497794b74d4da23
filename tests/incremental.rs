//! Incremental-build correctness and precision tests for
//! [`knit::BuildSession`] (DESIGN.md §3): a session rebuild must always
//! produce the byte-identical image a cold build of the same inputs
//! would, and — the precision half — each kind of edit must rerun
//! *exactly* the phases whose inputs changed, counted by
//! [`knit::SessionStats`].

use std::sync::Arc;

use proptest::prelude::*;

use knit_repro::clack::{ip_router, router_build_inputs};
use knit_repro::cobj::Image;
use knit_repro::knit::{build, BuildCache, BuildOptions, BuildSession, KnitError, SessionStats};
use knit_repro::machine;

// ---------------------------------------------------------------------------
// fixture: a three-unit program with an initializer, a dependency, and
// constraints, so every pipeline phase has real work to memoize
// ---------------------------------------------------------------------------

/// The `.unit` source, parameterized the way the edit tests (and the
/// random-edit proptest) mutate it: `strict` toggles App's constraint
/// annotation, `comment` appends a comment-only line (which must change
/// no fingerprint at all).
fn unit_src(strict: bool, comment: bool) -> String {
    let ctx = if strict { "ProcessContext" } else { "NoContext" };
    let mut s = format!(
        r#"
property context
type NoContext
type ProcessContext < NoContext
bundletype Main = {{ main }}
bundletype Val = {{ value }}
unit Value = {{
    exports [ v : Val ];
    files {{ "value.c" }};
    initializer value_init for v;
    constraints {{ context(v) = NoContext; }};
}}
unit App = {{
    imports [ v : Val ];
    exports [ m : Main ];
    depends {{ exports needs imports; }};
    files {{ "app.c" }};
    constraints {{ context(m) = {ctx}; context(m) <= context(v); }};
}}
unit Top = {{
    exports [ m : Main ];
    link {{
        val : Value;
        app : App [ v = val.v ];
        m = app.m;
    }};
}}
"#
    );
    if comment {
        s.push_str("// comment-only edit: no fingerprint may change\n");
    }
    s
}

fn value_c(ret: i64) -> String {
    format!("static int base;\nvoid value_init() {{\n    base = {ret};\n}}\nint value() {{\n    return base;\n}}\n")
}

fn app_c(boost: i64) -> String {
    format!("int value();\nint main() {{\n    return value() + {boost};\n}}\n")
}

fn session() -> BuildSession {
    let mut s = BuildSession::new(
        BuildOptions::root("Top").runtime_symbols(machine::runtime_symbols()).jobs(1).build(),
    );
    s.load_units("inc.unit", &unit_src(false, false)).expect("fixture parses");
    s.update_source("value.c", &value_c(40));
    s.update_source("app.c", &app_c(2));
    s
}

fn run_to_exit(image: knit_repro::cobj::Image) -> i64 {
    let mut m = machine::Machine::new(image).expect("machine");
    m.run_entry().expect("runs")
}

/// Phase `runs` deltas between two stats snapshots, for precision asserts.
fn run_deltas(before: &SessionStats, after: &SessionStats) -> [(String, usize); 8] {
    let d = |n: &str, b: knit_repro::knit::PhaseCount, a: knit_repro::knit::PhaseCount| {
        (n.to_string(), a.runs - b.runs)
    };
    [
        d("elaborate", before.elaborate, after.elaborate),
        d("constraints", before.constraints, after.constraints),
        d("schedule", before.schedule, after.schedule),
        d("unit_compiles", before.unit_compiles, after.unit_compiles),
        d("objcopy", before.objcopy, after.objcopy),
        d("flatten", before.flatten, after.flatten),
        d("generate", before.generate, after.generate),
        d("link", before.link, after.link),
    ]
}

fn assert_deltas(got: &[(String, usize)], want: &[(&str, usize)]) {
    for (name, runs) in got {
        let expect = want.iter().find(|(n, _)| n == name).map(|(_, r)| *r).unwrap_or(0);
        assert_eq!(*runs, expect, "phase `{name}` reran {runs} times, expected {expect}");
    }
}

// ---------------------------------------------------------------------------
// precision: exactly the invalidated phases rerun
// ---------------------------------------------------------------------------

/// An unchanged session rebuild runs nothing at all — not even a phase
/// fingerprint recomputation is visible in the stats.
#[test]
fn unchanged_rebuild_is_fully_memoized() {
    let mut s = session();
    let cold = s.build().expect("cold build");
    assert_eq!(run_to_exit(cold.image.clone()), 42);

    let before = s.stats().clone();
    let again = s.build().expect("no-op rebuild");
    assert_eq!(s.stats().full_reuse_builds, 1, "second build must take the fast path");
    assert_deltas(&run_deltas(&before, s.stats()), &[]);
    assert_eq!(again.stats.units_compiled, 0);
    assert_eq!(again.image, cold.image, "fast path must return the same image");
    // ... and shares its storage rather than deep-copying it.
    let shared = |a: &Image, b: &Image| {
        a.funcs.iter().zip(&b.funcs).all(|(f, g)| Arc::ptr_eq(f, g))
            && Arc::ptr_eq(&a.symbols, &b.symbols)
            && Arc::ptr_eq(&a.addr_to_func, &b.addr_to_func)
    };
    assert!(shared(&again.image, &cold.image), "fast path deep-copied the image");
    assert!(Arc::ptr_eq(&again.elaboration, &cold.elaboration), "fast path copied the elaboration");
}

/// Editing one C body reruns exactly that unit's compile, its instances'
/// objcopy, and the final link — elaboration, constraints, the schedule,
/// and the boot object are all reused.
#[test]
fn c_body_edit_recompiles_one_unit_and_relinks() {
    let mut s = session();
    s.build().expect("cold build");

    let before = s.stats().clone();
    s.update_source("value.c", &value_c(41));
    let report = s.build().expect("incremental build");
    assert_deltas(
        &run_deltas(&before, s.stats()),
        &[("unit_compiles", 1), ("objcopy", 1), ("link", 1)],
    );
    assert_eq!(report.stats.units_compiled, 1, "only Value recompiles");
    assert_eq!(run_to_exit(report.image), 43, "the edit is visible in the program");
}

/// A comment-only edit to the `.unit` file reruns nothing: fingerprints
/// are span-free.
#[test]
fn comment_only_unit_edit_reruns_nothing() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    s.update_unit("inc.unit", &unit_src(false, true)).expect("reparse");
    let report = s.build().expect("rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[]);
    assert_eq!(report.stats.units_compiled, 0);
    assert_eq!(report.image, cold.image);
}

/// Renaming a link instance is an interface-level edit: elaboration (and
/// everything downstream of the instance names — symbol maps, objcopy,
/// the boot object, the link) rerun, but no unit is recompiled.
#[test]
fn interface_edit_reelaborates_without_recompiling() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    let renamed = unit_src(false, false)
        .replace("val : Value", "core : Value")
        .replace("app : App [ v = val.v ]", "app : App [ v = core.v ]");
    s.update_unit("inc.unit", &renamed).expect("reparse");
    let report = s.build().expect("rebuild");
    let deltas = run_deltas(&before, s.stats());
    let get = |n: &str| deltas.iter().find(|(m, _)| m == n).unwrap().1;
    assert_eq!(get("elaborate"), 1, "instance names are elaboration inputs");
    assert_eq!(get("unit_compiles"), 0, "unit bodies are untouched — no recompiles");
    assert_eq!(report.stats.units_compiled, 0);
    assert_eq!(run_to_exit(report.image.clone()), 42);
    // mangled symbols are keyed by instance *index*, so the rename leaves
    // the image untouched — and a cold build of the same inputs agrees
    let cold2 = build(s.program(), s.tree(), s.options()).expect("cold rebuild");
    assert_eq!(report.image, cold2.image);
    assert_eq!(report.image, cold.image);
}

/// Editing only a `constraints { … }` clause reruns the constraint check
/// and nothing else — the image is untouched.
#[test]
fn constraint_edit_reruns_only_the_checker() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    s.update_unit("inc.unit", &unit_src(true, false)).expect("reparse");
    let report = s.build().expect("rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("constraints", 1)]);
    assert_eq!(report.image, cold.image, "constraints don't shape the image");
}

/// Changing the entry option reruns boot-object generation and the link;
/// compiles and elaboration are reused.
#[test]
fn entry_option_change_reruns_generate_and_link() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    let opts = BuildOptions::root("Top")
        .runtime_symbols(machine::runtime_symbols())
        .jobs(1)
        .entry("main")
        .build();
    s.set_options(opts);
    let report = s.build().expect("rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("generate", 1), ("link", 1)]);
    // `entry main` resolves to the same symbol the default picks
    assert_eq!(report.image, cold.image);
}

/// Changing only the worker count is not a semantic edit: the session
/// answers from the fast path.
#[test]
fn jobs_change_hits_the_fast_path() {
    let mut s = session();
    s.build().expect("cold build");

    let mut opts = s.options().clone();
    opts.jobs = 3;
    s.set_options(opts);
    let report = s.build().expect("rebuild");
    assert_eq!(s.stats().full_reuse_builds, 1, "jobs is not a build input");
    assert_eq!(report.jobs, 3, "but the report reflects the new setting");
}

/// Swapping a layout profile in (or out) invalidates exactly the link
/// phase: the objects are unchanged, only function placement moves. The
/// same profile again is a full-reuse no-op, and dropping the profile
/// restores the historical input-order image byte for byte.
#[test]
fn profile_swap_relinks_and_nothing_else() {
    let mut s = session();
    let cold = s.build().expect("cold build");
    assert_eq!(run_to_exit(cold.image.clone()), 42);

    // collect a real profile by running the built image instrumented
    let mut m = machine::Machine::new(cold.image.clone()).expect("machine");
    m.set_profiling(true);
    m.run_entry().expect("runs");
    let profile = std::sync::Arc::new(m.profile().layout_profile());

    let before = s.stats().clone();
    s.set_profile(Some(profile.clone()));
    let laid = s.build().expect("pgo rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("link", 1)]);
    assert_eq!(run_to_exit(laid.image.clone()), 42, "layout is a semantic permutation");

    // the same profile again is not a change at all
    let before = s.stats().clone();
    s.set_profile(Some(profile));
    s.build().expect("same-profile rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[]);

    // dropping the profile relinks back to the historical placement
    let before = s.stats().clone();
    s.set_profile(None);
    let back = s.build().expect("unprofiled rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("link", 1)]);
    assert_eq!(back.image, cold.image, "no profile must restore input-order placement");
}

/// An edit supersedes the edited unit's compiled artifact. Once no
/// session holds it, it leaves the shared compile cache, so a long-lived
/// session (or server) keeps one entry per live artifact, not one per
/// edit. An artifact another session still holds stays cached and is a
/// hit for it.
#[test]
fn superseded_artifacts_leave_the_shared_cache() {
    let cache = BuildCache::new();
    let mut a = session().with_cache(cache.clone());
    let mut b = session().with_cache(cache.clone());
    a.build().expect("cold build");
    assert_eq!(b.build().expect("warm build").stats.cache_hits, 2, "b shares a's artifacts");
    let units = cache.len();

    a.update_source("value.c", &value_c(41));
    a.build().expect("a's edit");
    assert_eq!(cache.len(), units + 1, "b still holds Value's first artifact");
    b.update_source("value.c", &value_c(41));
    assert_eq!(b.build().expect("b's edit").stats.cache_hits, 1, "b reuses a's edit");
    assert_eq!(cache.len(), units, "nobody holds Value's first artifact now");

    for n in 0..5 {
        a.update_source("value.c", &value_c(50 + n));
        a.build().expect("a's edits");
    }
    assert_eq!(cache.len(), units + 1, "one entry per live artifact, not per edit");
}

// ---------------------------------------------------------------------------
// diagnostics: session build errors blame the offending `.unit` line
// ---------------------------------------------------------------------------

/// A build rejected mid-pipeline surfaces a [`knit::Diagnostic`] whose
/// span points at the `.unit` declaration at fault (here: `Wrap` on
/// line 3 needs a `rename`).
#[test]
fn session_error_diagnostics_blame_the_unit_line() {
    let mut s = BuildSession::new(
        BuildOptions::root("Sys").runtime_symbols(machine::runtime_symbols()).build(),
    );
    s.load_units(
        "inc.unit",
        r#"
bundletype T = { f }
unit Wrap = { imports [ i : T ]; exports [ o : T ]; files { "w.c" }; }
unit Base = { exports [ o : T ]; files { "b.c" }; }
unit Sys = { exports [ o : T ]; link { b : Base; w : Wrap [ i = b.o ]; o = w.o; }; }
"#,
    )
    .expect("parses");
    s.update_source("w.c", "int f() { return 1; }");
    s.update_source("b.c", "int f() { return 2; }");
    let err = s.build().expect_err("Wrap exports and imports the same C name");
    assert!(matches!(err.root(), KnitError::NeedsRename { .. }), "got {err}");
    let diags = err.diagnostics();
    let span = diags[0].span.as_ref().expect("diagnostic carries a span");
    assert_eq!(span.0, "inc.unit");
    assert_eq!(span.1, 3, "span must blame unit Wrap's declaration line");
    // a failed build must not poison the session: fixing the unit builds
    let fixed = r#"
bundletype T = { f }
unit Wrap = { imports [ i : T ]; exports [ o : T ]; files { "w.c" }; rename { i.f to inner_f; }; }
unit Base = { exports [ o : T ]; files { "b.c" }; }
unit Sys = { exports [ o : T ]; link { b : Base; w : Wrap [ i = b.o ]; o = w.o; }; }
"#;
    s.update_unit("inc.unit", fixed).expect("reparse");
    s.update_source("w.c", "int inner_f();\nint f() { return inner_f(); }");
    s.build().expect("fixed program builds");
}

// ---------------------------------------------------------------------------
// equivalence: any session state builds the image a cold build would
// ---------------------------------------------------------------------------

/// The full Clack router through a session: one `.c` edit recompiles
/// exactly one of its ~25 units, and the image matches a cold build of
/// the edited tree.
#[test]
fn clack_router_incremental_edit_is_minimal_and_exact() {
    let (p, t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
    let mut s = BuildSession::from_parts(p, t, opts);
    let cold = s.build().expect("cold build");
    assert!(cold.stats.units_compiled > 10, "the router is a real program");

    let edited =
        format!("{}\nstatic int incr_poke;\n", s.tree().get("counter.c").expect("counter.c"));
    s.update_source("counter.c", &edited);
    let incr = s.build().expect("incremental build");
    assert_eq!(incr.stats.units_compiled, 1, "only Counter recompiles");
    assert_eq!(incr.stats.units_reused, cold.stats.units_compiled - 1);

    let cold2 = build(s.program(), s.tree(), s.options()).expect("cold build of edited tree");
    assert_eq!(incr.image, cold2.image, "incremental image must equal a cold build");
}

/// The C sources the random-edit proptest evolves. Besides small
/// constant edits (which keep every object's shape, so the session
/// patches the previous link in place), it makes edits that change an
/// object's shape and must take the full relink: a constant beyond `i32`
/// (its encoded `Const` grows from 5 to 10 bytes), an added `static`
/// function, an added global, and a new call to an import.
#[derive(Clone, Copy, Default)]
struct Sources {
    ret: i64,
    boost: i64,
    statics: usize,
    globals: usize,
    putc: bool,
}

impl Sources {
    fn value_c(&self) -> String {
        let mut src = value_c(self.ret);
        for k in 0..self.statics {
            src.push_str(&format!("static int helper{k}() {{ return {k}; }}\n"));
        }
        for k in 0..self.globals {
            src.push_str(&format!("int extra{k} = {k};\n"));
        }
        src
    }

    fn app_c(&self) -> String {
        if self.putc {
            format!(
                "int value();\nint __con_putc(int c);\nint main() {{\n    __con_putc(33);\n    return value() + {};\n}}\n",
                self.boost
            )
        } else {
            app_c(self.boost)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Apply a random sequence of edits (C bodies, comment-only `.unit`
    /// tweaks, constraint changes, shape-changing C edits, and body edits
    /// under a fixed PGO profile) to one session; after every single edit
    /// the session image must be byte-identical to a cold build of the
    /// session's current program/tree/options.
    #[test]
    fn random_edit_sequences_match_cold_builds(edits in prop::collection::vec(0usize..10, 1..7)) {
        let mut s = session();
        let first = s.build().expect("cold build");
        let (mut strict, mut comment) = (false, false);
        let mut src = Sources { ret: 40, boost: 2, ..Sources::default() };
        for (i, e) in edits.into_iter().enumerate() {
            let n = i as i64 + 1;
            match e {
                0 => src.ret = 40 + n,
                1 => src.boost = 2 + n,
                2 => { comment = !comment; s.update_unit("inc.unit", &unit_src(strict, comment)).expect("reparse"); }
                3 => { strict = !strict; s.update_unit("inc.unit", &unit_src(strict, comment)).expect("reparse"); }
                4 => src.ret = 40,
                5 => src.ret = (1 << 40) + n,
                6 => src.statics += 1,
                7 => src.globals += 1,
                8 => src.putc = !src.putc,
                _ => {
                    // Fix a profile of the first image, then edit a body under it.
                    if s.options().profile.is_none() {
                        let mut m = machine::Machine::new(first.image.clone()).expect("machine");
                        m.set_profiling(true);
                        m.run_entry().expect("runs");
                        s.set_profile(Some(Arc::new(m.profile().layout_profile())));
                    }
                    src.boost += n;
                }
            }
            s.update_source("value.c", &src.value_c());
            s.update_source("app.c", &src.app_c());
            let incr = s.build().expect("incremental build");
            let cold = build(s.program(), s.tree(), s.options()).expect("cold build");
            prop_assert_eq!(&incr.image, &cold.image, "divergence after edit #{}", i);
            prop_assert_eq!(run_to_exit(incr.image), run_to_exit(cold.image));
        }
    }
}
