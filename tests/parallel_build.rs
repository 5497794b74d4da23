//! Sessions that share one compile cache: determinism and cache
//! correctness for the parallel, cache-aware build pipeline (DESIGN.md §3).
//! `BuildOptions::jobs` must never change the produced image, and the
//! content-addressed [`knit::BuildCache`] must hit exactly when unit
//! content is unchanged — also for a fresh session whose only link to an
//! earlier build is the cache they share.

use proptest::prelude::*;

use knit_repro::clack::{ip_router, router_build_inputs};
use knit_repro::knit::{
    BuildCache, BuildOptions, BuildReport, BuildSession, KnitError, Program, SourceTree,
};
use knit_repro::machine;

/// Build `p`/`t` in a fresh session that compiles through `cache`.
fn build_through(
    p: &Program,
    t: &SourceTree,
    opts: &BuildOptions,
    cache: &BuildCache,
) -> Result<BuildReport, KnitError> {
    BuildSession::from_parts(p.clone(), t.clone(), opts.clone()).with_cache(cache.clone()).build()
}

// ---------------------------------------------------------------------------
// determinism: jobs = 1 vs jobs = N
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Building the modular Clack router with any worker count yields the
    /// byte-identical image and identical (timing-free) statistics as the
    /// strictly serial build.
    #[test]
    fn parallel_build_is_deterministic(jobs in 2usize..9) {
        let (p, t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
        let mut serial = opts.clone();
        serial.jobs = 1;
        let mut parallel = opts;
        parallel.jobs = jobs;
        let r1 = build_through(&p, &t, &serial, &BuildCache::new()).expect("serial");
        let rn = build_through(&p, &t, &parallel, &BuildCache::new()).expect("parallel");
        prop_assert_eq!(&r1.image, &rn.image, "image differs at jobs={}", jobs);
        prop_assert_eq!(&r1.stats, &rn.stats);
        prop_assert_eq!(&r1.exports, &rn.exports);
        prop_assert_eq!(&r1.schedule, &rn.schedule);
    }
}

/// Flattened builds take the parallel group-recompile path; it must be
/// just as deterministic.
#[test]
fn parallel_flattened_build_is_deterministic() {
    let (p, t, opts) = router_build_inputs(&ip_router(), true).expect("router inputs");
    let mut serial = opts.clone();
    serial.jobs = 1;
    let mut parallel = opts;
    parallel.jobs = 8;
    let r1 = build_through(&p, &t, &serial, &BuildCache::new()).expect("serial");
    let rn = build_through(&p, &t, &parallel, &BuildCache::new()).expect("parallel");
    assert_eq!(r1.image, rn.image);
    assert_eq!(r1.stats, rn.stats);
}

// ---------------------------------------------------------------------------
// cache correctness: warm rebuilds and precise invalidation
// ---------------------------------------------------------------------------

/// A warm rebuild of unchanged inputs compiles nothing and reproduces the
/// cold image byte for byte.
#[test]
fn warm_rebuild_compiles_nothing_and_matches_cold() {
    let (p, t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
    let cache = BuildCache::new();
    let cold = build_through(&p, &t, &opts, &cache).expect("cold");
    assert_eq!(cold.stats.cache_hits, 0, "cold build starts from an empty cache");
    assert_eq!(cold.stats.cache_misses, cold.stats.units_compiled);
    let warm = build_through(&p, &t, &opts, &cache).expect("warm");
    assert_eq!(warm.stats.cache_misses, 0, "warm rebuild must not run cmini");
    assert_eq!(warm.stats.cache_hits, cold.stats.units_compiled);
    assert_eq!(warm.image, cold.image, "cache must reproduce the image exactly");
    assert!(warm.unit_compiles.iter().all(|u| u.cache_hit));
}

/// Editing one C file invalidates exactly the unit that compiles it; every
/// other unit still hits.
#[test]
fn editing_one_source_invalidates_exactly_its_unit() {
    let (p, mut t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
    let cache = BuildCache::new();
    let cold = build_through(&p, &t, &opts, &cache).expect("cold");
    let total = cold.stats.units_compiled;

    // counter.c belongs to the Counter unit alone (nothing includes it)
    let counter = t.get("counter.c").expect("counter.c in the tree").to_string();
    t.add("counter.c", format!("{counter}\nstatic int cache_poke;\n"));

    let rebuilt = build_through(&p, &t, &opts, &cache).expect("rebuild");
    assert_eq!(rebuilt.stats.cache_misses, 1, "only Counter should recompile");
    assert_eq!(rebuilt.stats.cache_hits, total - 1);
    let miss: Vec<&str> =
        rebuilt.unit_compiles.iter().filter(|u| !u.cache_hit).map(|u| u.unit.as_str()).collect();
    assert_eq!(miss, ["Counter"]);
}

/// Editing a shared header invalidates every unit that (transitively)
/// includes it — the hash is over *preprocessed* text, so `#include`
/// changes are seen — while units that don't include it still hit.
#[test]
fn editing_a_shared_header_invalidates_every_includer() {
    let (p, mut t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
    let cache = BuildCache::new();
    let cold = build_through(&p, &t, &opts, &cache).expect("cold");
    let total = cold.stats.units_compiled;

    let header = t.get("include/clack.h").expect("clack.h in the tree").to_string();
    t.add("include/clack.h", format!("{header}\n#define CLACK_POKE 1\n"));

    let rebuilt = build_through(&p, &t, &opts, &cache).expect("rebuild");
    // every element unit includes clack.h; the 13 generated parameter
    // units and the merge shims don't
    assert!(
        rebuilt.stats.cache_misses >= 10,
        "all element units include clack.h: {} misses of {total}",
        rebuilt.stats.cache_misses
    );
    assert!(
        rebuilt.stats.cache_hits >= 10,
        "generated parameter units don't include clack.h and must still hit: {} hits",
        rebuilt.stats.cache_hits
    );
    assert_eq!(rebuilt.stats.cache_hits + rebuilt.stats.cache_misses, total);
}

// ---------------------------------------------------------------------------
// flag invalidation, on a small self-contained program
// ---------------------------------------------------------------------------

fn tiny_program(flags: &str) -> (Program, SourceTree, BuildOptions) {
    let units = format!(
        r#"
bundletype Main = {{ main }}
bundletype Val = {{ value }}
flags FastFlags = {{ {flags} }}
unit Value = {{
    exports [ v : Val ];
    files {{ "value.c" }} with flags FastFlags;
}}
unit App = {{
    imports [ v : Val ];
    exports [ m : Main ];
    depends {{ exports needs imports; }};
    files {{ "app.c" }};
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
    let mut p = Program::new();
    p.load_str("tiny.unit", &units).expect("tiny program parses");
    let mut t = SourceTree::new();
    t.add(
        "value.c",
        "#ifdef BUMP\nint value() { return 41; }\n#else\nint value() { return 40; }\n#endif\n",
    );
    t.add("app.c", "int value();\nint main() { return value() + 2; }\n");
    (p, t, BuildOptions::new("Top", machine::runtime_symbols()))
}

/// Changing one unit's compiler flags invalidates that unit's cache entry
/// and no other — and the recompile actually picks up the new flags.
#[test]
fn changing_unit_flags_invalidates_exactly_that_unit() {
    let cache = BuildCache::new();
    let (p, t, opts) = tiny_program(r#""-O2""#);
    let cold = build_through(&p, &t, &opts, &cache).expect("cold");
    assert_eq!(cold.stats.units_compiled, 2);
    assert_eq!(run_to_exit(cold.image), 42);

    // same sources, but Value now compiles with -DBUMP
    let (p2, t2, opts2) = tiny_program(r#""-O2", "-DBUMP""#);
    let rebuilt = build_through(&p2, &t2, &opts2, &cache).expect("rebuild");
    assert_eq!(rebuilt.stats.cache_misses, 1, "only Value saw a flag change");
    assert_eq!(rebuilt.stats.cache_hits, 1, "App is untouched and must hit");
    let miss: Vec<&str> =
        rebuilt.unit_compiles.iter().filter(|u| !u.cache_hit).map(|u| u.unit.as_str()).collect();
    assert_eq!(miss, ["Value"]);
    assert_eq!(run_to_exit(rebuilt.image), 43, "the recompile honours the new define");
}

fn run_to_exit(image: knit_repro::cobj::Image) -> i64 {
    let mut m = machine::Machine::new(image).expect("machine");
    m.run_entry().expect("runs")
}
