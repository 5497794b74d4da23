//! Measure host-side simulator throughput: the two execution tiers (fast
//! predecoded loop, retained reference loop) on the Clack router, the
//! deep-lock kernel boot, and the demo web server.
//!
//! ```text
//! cargo run --release -p bench --bin simperf [-- --packets N] [--seed S]
//!     [--smoke] [--json <path>] [--baseline <path>]
//! ```
//!
//! Reports guest MIPS (millions of simulated instructions per host
//! second), packets/sec, and the fast tier's speedup over reference.
//! Exits nonzero if the fast tier's performance counters or guest-visible
//! output diverge from the reference interpreter — the CI gate that pins
//! it to the reference semantics. With `--baseline <BENCH_simperf.json>`
//! it additionally gates the fast tier's Clack-router MIPS against the
//! committed schema-v2 baseline (fails below [`MIPS_GATE_RATIO`] of
//! baseline; skipped on `--smoke` runs, whose tiny workloads make
//! wall-clock noise dominate). `--smoke` is the small CI configuration;
//! `--packets 1000000` reproduces the EXPERIMENTS.md million-packet run.

use std::process::ExitCode;

use bench::simperf::{self, SimperfOptions};
use machine::json::Json;
use machine::ExecMode;

/// A full run's fast tier must reach this fraction of the committed
/// baseline's MIPS, or the `--baseline` gate fails. Generous because CI
/// machines vary; a real regression (losing predecoded fetch or frame
/// pooling) costs far more than 40%.
const MIPS_GATE_RATIO: f64 = 0.6;

struct Args {
    opts: SimperfOptions,
    smoke: bool,
    json: Option<String>,
    baseline: Option<String>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut opts = SimperfOptions::default();
    let mut smoke = false;
    let mut json = None;
    let mut baseline = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().expect("--json needs a path")),
            other if other.starts_with("--json=") => {
                json = Some(other["--json=".len()..].to_string());
            }
            "--baseline" => baseline = Some(args.next().expect("--baseline needs a path")),
            other if other.starts_with("--baseline=") => {
                baseline = Some(other["--baseline=".len()..].to_string());
            }
            "--packets" => {
                opts.packets = args
                    .next()
                    .expect("--packets needs a count")
                    .parse()
                    .expect("--packets takes a number");
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed takes a number");
            }
            "--smoke" => {
                smoke = true;
                opts.packets = SimperfOptions::smoke().packets;
            }
            other => {
                panic!(
                    "unknown argument `{other}` (expected --packets N, --seed S, --smoke, \
                     --json <path>, --baseline <path>)"
                )
            }
        }
    }
    Args { opts, smoke, json, baseline }
}

/// `clack-router`'s fast-tier MIPS in a committed schema-v2
/// `BENCH_simperf.json`.
fn baseline_fast_mips(text: &str) -> Option<f64> {
    fn row<'a>(rows: &'a Json, key: &str, want: &str) -> Option<&'a Json> {
        rows.as_array()?.iter().find(|r| r.get(key).and_then(Json::as_str) == Some(want))
    }
    let doc = Json::parse(text).ok()?;
    let workload = row(doc.get("workloads")?, "name", "clack-router")?;
    row(workload.get("tiers")?, "exec", "fast")?.get("mips")?.as_f64()
}

fn main() -> ExitCode {
    let args = parse_args();
    let tier_names = [ExecMode::Fast.as_str(), ExecMode::Reference.as_str()];
    println!("simperf: interpreter throughput, tiers [{}]", tier_names.join(", "));
    println!("  ({} router packets, workload seed {:#x})\n", args.opts.packets, args.opts.seed);

    let report = simperf::run(args.opts.clone());

    println!(
        "  {:16} {:10} | {:>12} {:>10} {:>10} {:>8} {:>12} | gate",
        "workload", "exec", "guest instrs", "wall s", "MIPS", "speedup", "packets/s"
    );
    for w in &report.workloads {
        for t in &w.tiers {
            println!(
                "  {:16} {:10} | {:>12} {:>10.3} {:>10.1} {:>7.2}x {:>12} | {}",
                w.name,
                t.exec.as_str(),
                t.counters.instructions,
                t.wall_s,
                t.mips(),
                w.speedup_vs_reference(t.exec).unwrap_or(1.0),
                w.packets_per_sec(t.exec)
                    .filter(|_| w.packets > 0)
                    .map(|p| format!("{p:.0}"))
                    .unwrap_or_else(|| "-".into()),
                if t.identical { "identical" } else { "DIVERGED" },
            );
        }
    }
    if report.workloads.iter().all(|w| w.name != "demo-webserver") {
        println!("  (demo/ not present; demo-webserver workload skipped)");
    }

    // --baseline: fast-tier MIPS regression gate (full runs only).
    let mut mips_gate_failed = false;
    if let Some(path) = &args.baseline {
        let fast = report
            .workloads
            .iter()
            .find(|w| w.name == "clack-router")
            .and_then(|w| w.tier(ExecMode::Fast))
            .expect("clack-router always has a fast row");
        match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("simperf: cannot read baseline {path}: {e}");
                mips_gate_failed = true;
            }
            Ok(text) => match baseline_fast_mips(&text) {
                None => {
                    eprintln!("simperf: no fast clack-router MIPS in baseline {path} (schema v2 expected)");
                    mips_gate_failed = true;
                }
                Some(base) if args.smoke => {
                    println!(
                        "  (smoke run: fast {:.1} MIPS vs baseline {base:.1}, gate not enforced)",
                        fast.mips()
                    );
                }
                Some(base) => {
                    let floor = base * MIPS_GATE_RATIO;
                    if fast.mips() < floor {
                        eprintln!(
                            "simperf: FAST-TIER MIPS REGRESSION: {:.1} < {floor:.1} \
                             ({MIPS_GATE_RATIO} x baseline {base:.1})",
                            fast.mips()
                        );
                        mips_gate_failed = true;
                    } else {
                        println!(
                            "  (MIPS gate: fast {:.1} >= {floor:.1} = {MIPS_GATE_RATIO} x baseline {base:.1})",
                            fast.mips()
                        );
                    }
                }
            },
        }
    }

    if let Some(path) = &args.json {
        let mut out = format!(
            "{{\n  \"version\": 2,\n  \"packets\": {},\n  \"seed\": {},\n  \"exec\": [{}],\n  \"workloads\": [\n",
            report.options.packets,
            report.options.seed,
            tier_names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", "),
        );
        for (i, w) in report.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"packets\": {}, \"tiers\": [\n",
                w.name, w.packets
            ));
            for (j, t) in w.tiers.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"exec\": \"{}\", \"guest_instructions\": {}, \"wall_s\": {:.6}, \"mips\": {:.1}, \"speedup_vs_reference\": {:.2}, \"packets_per_sec\": {:.0}, \"identical_to_reference\": {}}}{}\n",
                    t.exec.as_str(),
                    t.counters.instructions,
                    t.wall_s,
                    t.mips(),
                    w.speedup_vs_reference(t.exec).unwrap_or(1.0),
                    w.packets_per_sec(t.exec).unwrap_or(0.0),
                    t.identical,
                    if j + 1 < w.tiers.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if i + 1 < report.workloads.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("simperf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n  wrote {path}");
    }

    let diverged = report.divergences();
    if !diverged.is_empty() {
        eprintln!(
            "simperf: TIER DIVERGENCE on {diverged:?}: counters or output differ from the reference interpreter"
        );
        return ExitCode::FAILURE;
    }
    if mips_gate_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_the_committed_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simperf.json");
        let text = std::fs::read_to_string(path).expect("BENCH_simperf.json");
        assert_eq!(super::baseline_fast_mips(&text), Some(145.1));
    }
}
