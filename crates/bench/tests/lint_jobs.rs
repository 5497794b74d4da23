//! Analysis is the same for every `jobs` value: `BuildSession::analyze`
//! fans unit summaries and the lint passes out over `BuildOptions::jobs`
//! workers, and its diagnostic stream (human and JSON bytes) and
//! `SessionStats::analyze` counts must not depend on how many there are.
//!
//! Inputs: the 300-unit synthetic corpus at two seeds, with one fault per
//! lint family injected after generation so that every family fires across
//! worker boundaries (their per-code counts and stream hashes are pinned);
//! the intentionally dirty `examples/lints` programs; and the oskit kernels.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use bench::spec::dump_hash;
use bench::synth::{generate, SynthCorpus, SynthParams};
use knit::{BuildOptions, BuildSession, LintConfig, PhaseCount, Program, SourceTree};

const JOBS: [usize; 3] = [1, 2, 4];

/// What one `analyze` run produced: the diagnostics rendered both ways,
/// and the session's analysis counts after it.
#[derive(Debug, PartialEq)]
struct Run {
    human: String,
    json: String,
    stats: PhaseCount,
}

fn run(session: &mut BuildSession) -> Run {
    let report = session.analyze(&LintConfig::new()).expect("analysis runs");
    Run {
        human: report.diagnostics.iter().map(|d| d.human() + "\n").collect(),
        json: report.diagnostics.iter().map(|d| d.json() + "\n").collect(),
        stats: session.stats().analyze,
    }
}

/// Analyze cold, then again after rewriting `edit` (if any), at every
/// `jobs` value; both runs must match the `jobs = 1` ones exactly.
/// Returns the cold run.
fn same_for_every_jobs(
    what: &str,
    program: &Program,
    tree: &SourceTree,
    opts: &BuildOptions,
    edit: Option<(&str, &str)>,
) -> Run {
    let mut runs: Vec<(Run, Run)> = Vec::new();
    for jobs in JOBS {
        let mut opts = opts.clone();
        opts.jobs = jobs;
        let mut session = BuildSession::from_parts(program.clone(), tree.clone(), opts);
        let cold = run(&mut session);
        if let Some((path, text)) = edit {
            session.update_source(path, text);
        }
        let warm = run(&mut session);
        if let Some((first_cold, first_warm)) = runs.first() {
            assert_eq!(&cold, first_cold, "{what}: cold analysis differs at jobs = {jobs}");
            assert_eq!(&warm, first_warm, "{what}: re-analysis differs at jobs = {jobs}");
        }
        runs.push((cold, warm));
    }
    runs.swap_remove(0).0
}

/// Diagnostics per code, in code order.
fn counts(run: &Run) -> Vec<(String, usize)> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for line in run.human.lines() {
        let head = line.strip_prefix("warning[").or_else(|| line.strip_prefix("error["));
        if let Some(code) = head.and_then(|h| h.get(..5)) {
            *counts.entry(code.to_string()).or_default() += 1;
        }
    }
    counts.into_iter().collect()
}

/// Replace the one occurrence of `from` in `text`.
fn replace_once(text: &str, from: &str, to: &str) -> String {
    assert_eq!(text.matches(from).count(), 1, "expected one `{from}` in:\n{text}");
    text.replacen(from, to, 1)
}

/// The 300-unit corpus with faults injected after generation, one per
/// family: an unused import (K1002), an undefined export (K1001), an
/// initializer that calls its import with no `needs` clause while the
/// provider's initializer waits on its own import (K1004), a self-recursive
/// function in a flatten group (K1005), and a static written from the
/// closures of two root exports (K1006). K1003 fires unprompted on the
/// corpus's unused layer exports.
fn faulty_corpus(seed: u64) -> (Program, SourceTree, BuildOptions) {
    let params = SynthParams::sized(300, seed);
    let SynthCorpus { mut units, mut tree, root, .. } = generate(&params);
    let unit_text = |units: &[(String, String)], file: &str| -> String {
        units.iter().find(|(f, _)| f == file).expect("unit file exists").1.clone()
    };
    let set_unit = |units: &mut Vec<(String, String)>, file: &str, text: String| {
        units.iter_mut().find(|(f, _)| f == file).expect("unit file exists").1 = text;
    };
    let edit_c = |tree: &mut SourceTree, path: &str, from: &str, to: &str| {
        let text = replace_once(tree.get(path).expect("source exists"), from, to);
        tree.add(path, text);
    };
    // the provider feeding layer unit (l, k): the `k` of `B{l-1}_{k}`
    let provider = |units: &[(String, String)], l: usize, k: usize| -> usize {
        let text = unit_text(units, &SynthCorpus::unit_file(l, k));
        let from = format!("inp : B{}_", l - 1);
        let at = text.find(&from).expect("layer unit imports") + from.len();
        text[at..].split(' ').next().and_then(|n| n.parse().ok()).expect("provider index")
    };

    // K1002: u1_0's f0 stops calling its import
    let par = provider(&units, 1, 0);
    edit_c(&mut tree, "c/u1_0.c", &format!("return u0_{par}_f0() + "), "return ");
    // K1001: u2_0 no longer defines f3
    let c = tree.get("c/u2_0.c").expect("source exists").to_string();
    let kept: String =
        c.lines().filter(|l| !l.starts_with("int u2_0_f3()")).map(|l| format!("{l}\n")).collect();
    tree.add("c/u2_0.c", kept);
    // K1004: the first layer-2+ initializer whose provider has one too
    // calls its import with no `needs` clause, and the provider's own
    // feed gets an initializer if it has none, so the provider's
    // initializer is scheduled after the consumer's
    let has_init = |units: &[(String, String)], l: usize, k: usize| {
        unit_text(units, &SynthCorpus::unit_file(l, k)).contains("initializer")
    };
    let (l, k, par) = (2..params.depth)
        .flat_map(|l| (0..params.fanout).map(move |k| (l, k)))
        .map(|(l, k)| (l, k, provider(&units, l, k)))
        .find(|&(l, k, par)| has_init(&units, l, k) && has_init(&units, l - 1, par))
        .expect("an initializer fed by an initialized provider");
    let file = SynthCorpus::unit_file(l, k);
    let text = unit_text(&units, &file);
    let text = replace_once(&text, &format!("depends {{ u{l}_{k}_init needs inp; }};"), "");
    set_unit(&mut units, &file, text);
    edit_c(
        &mut tree,
        &SynthCorpus::c_file(l, k),
        &format!("u{l}_{k}_ready = 1;"),
        &format!("u{l}_{k}_ready = u{}_{par}_f0();", l - 1),
    );
    let (fl, fk) = (l - 2, provider(&units, l - 1, par));
    if !has_init(&units, fl, fk) {
        let file = SynthCorpus::unit_file(fl, fk);
        let text = unit_text(&units, &file);
        let init = format!("    initializer u{fl}_{fk}_init for out;\n    files {{");
        set_unit(&mut units, &file, replace_once(&text, "    files {", &init));
        let path = SynthCorpus::c_file(fl, fk);
        let c = tree.get(&path).expect("source exists").to_string();
        tree.add(&path, c + &format!("void u{fl}_{fk}_init() {{ }}\n"));
    }
    // K1005: a self-recursive function in the first flatten group
    let c = tree.get("c/flat0a.c").expect("source exists").to_string();
    tree.add(
        "c/flat0a.c",
        c + "int flat0a_spin(int n) { if (n) { return flat0a_spin(n - 1); } return 0; }\n",
    );
    // K1006: the top layer's first unit, exported at the root as well as
    // reached from `main`, writes a static with no lock held
    let top = params.depth - 1;
    edit_c(
        &mut tree,
        &SynthCorpus::c_file(top, 0),
        &format!("int u{top}_0_f0() {{ return "),
        &format!("static int shared_hits;\nint u{top}_0_f0() {{ shared_hits = 1; return "),
    );
    let text = unit_text(&units, "root.unit");
    let text = replace_once(
        &text,
        "exports [ main : Main ];",
        &format!("exports [ main : Main, aux : B{top}_0 ];"),
    );
    let text = replace_once(
        &text,
        "main = m.main;",
        &format!("main = m.main;\n        aux = i{top}_0.out;"),
    );
    set_unit(&mut units, "root.unit", text);

    let mut program = Program::new();
    program.load_many(&units, 1).expect("faulty corpus still parses");
    (program, tree, BuildOptions::new(&root, Vec::<String>::new()))
}

#[test]
fn faulty_synthetic_corpora_lint_the_same_for_every_jobs() {
    // (seed, K1003 count, FNV-1a hash of the human stream)
    for (seed, dead_exports, stream_hash) in
        [(0xFEED, 132, 0xac4b6fa06865e959), (0xBEEF, 136, 0x706e84820b15a086)]
    {
        let (program, tree, opts) = faulty_corpus(seed);
        // the re-analysis re-summarizes the one unit whose source changed
        let path = SynthCorpus::c_file(0, 0);
        let edited = format!("{}// edited\n", tree.get(&path).expect("source exists"));
        let what = format!("seed {seed:#x}");
        let cold = same_for_every_jobs(&what, &program, &tree, &opts, Some((&path, &edited)));
        // K1002 fires twice: the deleted `u2_0_f3` was also the only use
        // of its import's `f3`
        let want: Vec<(String, usize)> = [
            ("K1001", 1),
            ("K1002", 2),
            ("K1003", dead_exports),
            ("K1004", 1),
            ("K1005", 1),
            ("K1006", 1),
        ]
        .map(|(code, n)| (code.to_string(), n))
        .into();
        assert_eq!(counts(&cold), want, "{what}: per-code counts");
        assert_eq!(dump_hash(&cold.human), stream_hash, "{what}: diagnostic stream drifted");
    }
}

#[test]
fn example_programs_lint_the_same_for_every_jobs() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lints");
    for (unit_file, root, sources) in [
        ("lints.unit", "LintDemo", &["dirty.c", "extra.c", "logger.c", "boot.c", "appmain.c"][..]),
        ("races.unit", "RaceDemo", &["race_log.c", "race_worker.c"][..]),
    ] {
        let mut program = Program::new();
        let path = format!("examples/lints/{unit_file}");
        program.load_str(&path, &fs::read_to_string(dir.join(unit_file)).unwrap()).unwrap();
        let mut tree = SourceTree::new();
        for file in sources {
            tree.add(*file, fs::read_to_string(dir.join(file)).unwrap());
        }
        let opts = BuildOptions::new(root, machine::runtime_symbols());
        let edit = (sources[0], format!("{}// edited\n", tree.get(sources[0]).unwrap()));
        let cold = same_for_every_jobs(root, &program, &tree, &opts, Some((edit.0, &edit.1)));
        assert!(!cold.human.is_empty(), "{root} is lint-dirty by design");
    }
}

#[test]
fn oskit_kernels_lint_the_same_for_every_jobs() {
    let (program, tree) = oskit::setup();
    for root in oskit::GOOD_KERNELS {
        same_for_every_jobs(root, &program, &tree, &oskit::kernel_options(root), None);
    }
}
