//! Composition-engine scaling table: units-vs-wall-time curves on the
//! synthetic corpus, new engine vs the pre-interner legacy path.
//!
//! ```text
//! cargo run --release -p bench --bin table_scale [-- --smoke] [--seed N]
//!     [--jobs N] [--json <path>] [--baseline <BENCH_scale.json>]
//! ```
//!
//! For each corpus size the table reports parse, elaborate,
//! constraint-check, lint, and full-build wall time, plus the combined
//! elaborate+check time of the legacy (String-keyed, full-re-pass) engine
//! on the same corpus and the resulting speedup. Gates, all enforced on
//! exit code:
//!
//! * elaboration must produce exactly the corpus's expected instance count;
//! * new and legacy engines must agree byte-for-byte on the canonical
//!   elaboration + schedule dumps wherever legacy runs;
//! * full runs: ≥ 5× speedup over legacy at the 10k row and single-digit
//!   seconds for cold elaborate+check;
//! * `--baseline`: current speedup at the largest shared size must stay
//!   above a generous fraction of the committed curve (regression gate —
//!   dimensionless, so it is enforced on `--smoke` CI runs too).
//!
//! `--smoke` runs the 100- and 1000-unit rows only (CI configuration).

use std::process::ExitCode;
use std::time::Instant;

use bench::legacy;
use bench::synth::{generate, SynthParams};
use knit::{BuildOptions, LintConfig};
use machine::json::Json;

struct Args {
    smoke: bool,
    seed: u64,
    jobs: usize,
    json: Option<String>,
    baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        smoke: false,
        seed: 0xC0FFEE,
        jobs: knit::default_jobs(),
        json: None,
        baseline: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => {
                out.seed =
                    args.next().expect("--seed needs a value").parse().expect("--seed is a number")
            }
            "--jobs" => {
                out.jobs =
                    args.next().expect("--jobs needs a value").parse().expect("--jobs is a number")
            }
            "--json" => out.json = Some(args.next().expect("--json needs a path")),
            other if other.starts_with("--json=") => {
                out.json = Some(other["--json=".len()..].to_string());
            }
            "--baseline" => out.baseline = Some(args.next().expect("--baseline needs a path")),
            other if other.starts_with("--baseline=") => {
                out.baseline = Some(other["--baseline=".len()..].to_string());
            }
            other => panic!(
                "unknown argument `{other}` (expected --smoke, --seed N, --jobs N, --json <path>, --baseline <path>)"
            ),
        }
    }
    out
}

struct Row {
    units: usize,
    unit_decls: usize,
    instances: usize,
    template_copies: usize,
    parse_ms: f64,
    elaborate_ms: f64,
    check_ms: f64,
    lint_ms: f64,
    full_build_ms: f64,
    legacy_ms: Option<f64>,
    speedup: Option<f64>,
    identical_to_legacy: Option<bool>,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn measure(n: usize, seed: u64, jobs: usize, run_legacy: bool) -> Row {
    let corpus = generate(&SynthParams::sized(n, seed));
    let opts = BuildOptions::new(&corpus.root, Vec::<String>::new());

    let t = Instant::now();
    let program = corpus.load_program(jobs).expect("synthetic corpus parses");
    let parse_ms = ms(t);

    let t = Instant::now();
    let el = knit::elaborate::elaborate(&program, &corpus.root).expect("corpus elaborates");
    let elaborate_ms = ms(t);

    let t = Instant::now();
    let report = knit::constraints::check(&program, &el).expect("constraints satisfiable");
    let check_ms = ms(t);
    assert!(report.constraints > 0, "corpus must exercise the constraint solver");

    let t = Instant::now();
    knit::lint(&program, &corpus.tree, &opts, &LintConfig::new()).expect("lint runs");
    let lint_ms = ms(t);

    let t = Instant::now();
    knit::build(&program, &corpus.tree, &opts).expect("corpus builds");
    let full_build_ms = ms(t);

    let (legacy_ms, identical) = if run_legacy {
        let sched = knit::sched::schedule(&program, &el).expect("schedulable");
        let t = Instant::now();
        let lel = legacy::elaborate(&program, &corpus.root).expect("legacy elaborates");
        legacy::check(&program, &lel).expect("legacy constraints satisfiable");
        let lm = ms(t);
        let lsched = legacy::schedule(&program, &lel).expect("legacy schedulable");
        let same = legacy::dump_elaboration(&lel) == legacy::dump_new_elaboration(&el)
            && legacy::dump_schedule(&lsched) == legacy::dump_new_schedule(&sched);
        (Some(lm), Some(same))
    } else {
        (None, None)
    };
    let new_ms = elaborate_ms + check_ms;
    Row {
        units: n,
        unit_decls: corpus.unit_decls,
        instances: el.instances.len(),
        template_copies: el.stats.template_copies,
        parse_ms,
        elaborate_ms,
        check_ms,
        lint_ms,
        full_build_ms,
        legacy_ms,
        speedup: legacy_ms.map(|l| l / new_ms.max(1e-6)),
        identical_to_legacy: identical,
    }
}

/// The `"speedup_vs_legacy"` of the `units`-sized row in a committed
/// `BENCH_scale.json`.
fn baseline_speedup(text: &str, units: usize) -> Option<f64> {
    let doc = Json::parse(text).ok()?;
    let rows = doc.get("rows")?.as_array()?;
    let row = rows.iter().find(|r| r.get("units").and_then(Json::as_u64) == Some(units as u64))?;
    row.get("speedup_vs_legacy")?.as_f64()
}

/// A run's speedup may legitimately wobble with CI load; regress only when
/// it falls below this fraction of the committed curve.
const BASELINE_GATE_RATIO: f64 = 0.35;

fn main() -> ExitCode {
    let args = parse_args();
    let sizes: &[usize] = if args.smoke { &[100, 1000] } else { &[100, 1000, 10_000] };
    println!("table_scale: composition-engine scaling on the synthetic corpus");
    println!("  (seed {:#x}, jobs {}, sizes {:?})\n", args.seed, args.jobs, sizes);

    let mut rows = Vec::new();
    for &n in sizes {
        rows.push(measure(n, args.seed, args.jobs, true));
    }

    println!(
        "  {:>6} | {:>6} {:>6} {:>6} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>10} {:>8} | parity",
        "target",
        "decls",
        "insts",
        "copies",
        "parse ms",
        "elab ms",
        "check ms",
        "lint ms",
        "build ms",
        "legacy ms",
        "speedup"
    );
    let mut failures: Vec<String> = Vec::new();
    for r in &rows {
        println!(
            "  {:>6} | {:>6} {:>6} {:>6} | {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} | {:>10} {:>8} | {}",
            r.units,
            r.unit_decls,
            r.instances,
            r.template_copies,
            r.parse_ms,
            r.elaborate_ms,
            r.check_ms,
            r.lint_ms,
            r.full_build_ms,
            r.legacy_ms.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
            r.speedup.map(|v| format!("{v:.2}x")).unwrap_or_else(|| "-".into()),
            match r.identical_to_legacy {
                Some(true) => "identical",
                Some(false) => "DIVERGED",
                None => "-",
            },
        );
        if r.identical_to_legacy == Some(false) {
            failures
                .push(format!("{} units: new/legacy elaboration or schedule diverged", r.units));
        }
        if r.units >= 10_000 {
            let cold = r.elaborate_ms + r.check_ms;
            if cold > 9_999.0 {
                failures.push(format!(
                    "{} units: cold elaborate+check took {cold:.0} ms (gate: single-digit seconds)",
                    r.units
                ));
            }
            if let Some(s) = r.speedup {
                if s < 5.0 {
                    failures
                        .push(format!("{} units: speedup {s:.2}x vs legacy (gate: ≥5x)", r.units));
                }
            }
        }
    }

    // --baseline: dimensionless speedup regression gate at the largest
    // size both runs share.
    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("table_scale: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(text) => {
                let shared = rows
                    .iter()
                    .rev()
                    .find_map(|r| Some((r, baseline_speedup(&text, r.units)?, r.speedup?)));
                match shared {
                    None => {
                        eprintln!(
                            "table_scale: baseline {path} shares no sized row with this run (schema v1 expected)"
                        );
                        return ExitCode::FAILURE;
                    }
                    Some((r, base, cur)) => {
                        let floor = base * BASELINE_GATE_RATIO;
                        println!(
                            "\n  baseline gate at {} units: speedup {cur:.2}x vs committed {base:.2}x (floor {floor:.2}x)",
                            r.units
                        );
                        if cur < floor {
                            failures.push(format!(
                                "{} units: speedup {cur:.2}x fell below {floor:.2}x ({BASELINE_GATE_RATIO} x baseline {base:.2}x)",
                                r.units
                            ));
                        }
                    }
                }
            }
        }
    }

    if let Some(path) = &args.json {
        let mut out = String::new();
        out.push_str("{\n  \"version\": 1,\n");
        out.push_str(&format!("  \"seed\": {},\n", args.seed));
        out.push_str(&format!("  \"smoke\": {},\n", args.smoke));
        out.push_str(&format!("  \"jobs\": {},\n", args.jobs));
        out.push_str("  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"units\": {}, \"unit_decls\": {}, \"instances\": {}, \"template_copies\": {}, \"parse_ms\": {:.2}, \"elaborate_ms\": {:.2}, \"check_ms\": {:.2}, \"lint_ms\": {:.2}, \"full_build_ms\": {:.2}, \"legacy_elaborate_check_ms\": {}, \"speedup_vs_legacy\": {}, \"identical_to_legacy\": {}}}{}\n",
                r.units,
                r.unit_decls,
                r.instances,
                r.template_copies,
                r.parse_ms,
                r.elaborate_ms,
                r.check_ms,
                r.lint_ms,
                r.full_build_ms,
                r.legacy_ms.map(|v| format!("{v:.2}")).unwrap_or_else(|| "null".into()),
                r.speedup.map(|v| format!("{v:.2}")).unwrap_or_else(|| "null".into()),
                r.identical_to_legacy.map(|b| b.to_string()).unwrap_or_else(|| "null".into()),
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("table_scale: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n  wrote {path}");
    }

    if !failures.is_empty() {
        eprintln!("table_scale: SCALING GATE FAILURE: {failures:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_the_committed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
        let text = std::fs::read_to_string(path).expect("BENCH_scale.json");
        assert_eq!(super::baseline_speedup(&text, 10_000), Some(5.32));
    }
}
