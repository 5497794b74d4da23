//! Multi-core scaling table: the RSS-sharded Clack router on 1/2/4
//! MESI-coherent cores.
//!
//! ```text
//! cargo run --release -p bench --bin table_mc [-- --packets N] [--seed S]
//!     [--smoke] [--json <path>]
//! ```
//!
//! Reports wall cycles per packet (slowest core — the throughput number),
//! a packets/s proxy at a nominal 1 GHz guest clock, scaling versus one
//! core, total summed cycles per packet (the work metric, which rises with
//! coherence overhead), and the coherence columns (bus stall cycles per
//! packet, coherence misses and invalidations per 1000 packets). Exits
//! nonzero if either multi-core correctness gate fails on any row: the
//! bit-identity replay of the `fast` tier against `reference`, or the
//! sharded-vs-single-core output-multiset comparison. The measurement run
//! uses the fast tier; each JSON row records it in `"exec"`. `--smoke` is
//! the small CI configuration.

use std::process::ExitCode;

use bench::mc::{table_mc, McOptions};
use machine::ExecMode;

struct Args {
    opts: McOptions,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut opts = McOptions::default();
    let mut json = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = Some(args.next().expect("--json needs a path")),
            other if other.starts_with("--json=") => {
                json = Some(other["--json=".len()..].to_string());
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
            "--smoke" => opts.packets = McOptions::smoke().packets,
            other => {
                panic!("unknown argument `{other}` (expected --packets N, --seed S, --smoke, --json <path>)")
            }
        }
    }
    Args { opts, json }
}

fn main() -> ExitCode {
    let args = parse_args();
    println!("table_mc: sharded Clack router scaling on MESI-coherent cores");
    println!(
        "  ({} workload frames, seed {:#x}, tiers [{}, {}])\n",
        args.opts.packets,
        args.opts.seed,
        ExecMode::Fast,
        ExecMode::Reference
    );

    let report = table_mc(&args.opts);

    println!(
        "  {:>5} {:>9} | {:>9} {:>11} {:>7} | {:>9} {:>9} | {:>9} {:>9} | gates",
        "cores",
        "exec",
        "wall c/p",
        "pkts/s@1G",
        "scaling",
        "total c/p",
        "stall c/p",
        "cohmiss/k",
        "inval/k"
    );
    for r in &report.rows {
        println!(
            "  {:>5} {:>9} | {:>9} {:>11.0} {:>6.2}x | {:>9} {:>9} | {:>9} {:>9} | {}",
            r.ncores,
            r.exec.as_str(),
            r.wall_cycles_per_packet,
            r.packets_per_sec,
            r.scaling,
            r.total_cycles_per_packet,
            r.coherence_stalls_per_packet,
            r.coherence_misses_per_kpkt,
            r.invalidations_per_kpkt,
            match (r.modes_identical, r.multiset_ok) {
                (true, true) => "modes identical, multiset ok",
                (false, true) => "MODES DIVERGED",
                (true, false) => "MULTISET MISMATCH",
                (false, false) => "MODES DIVERGED, MULTISET MISMATCH",
            },
        );
    }

    if let Some(path) = &args.json {
        let mut out = format!(
            "{{\n  \"version\": 2,\n  \"packets\": {},\n  \"seed\": {},\n  \"exec\": [\"{}\", \"{}\"],\n  \"rows\": [\n",
            report.options.packets,
            report.options.seed,
            ExecMode::Fast,
            ExecMode::Reference,
        );
        for (i, r) in report.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"ncores\": {}, \"exec\": \"{}\", \"packets\": {}, \"wall_cycles_per_packet\": {}, \"total_cycles_per_packet\": {}, \"packets_per_sec\": {:.0}, \"scaling\": {:.2}, \"coherence_stalls_per_packet\": {}, \"coherence_misses_per_kpkt\": {}, \"invalidations_per_kpkt\": {}, \"bus_rd\": {}, \"bus_rdx\": {}, \"bus_upgr\": {}, \"writebacks\": {}, \"modes_identical\": {}, \"multiset_ok\": {}}}{}\n",
                r.ncores,
                r.exec.as_str(),
                r.packets,
                r.wall_cycles_per_packet,
                r.total_cycles_per_packet,
                r.packets_per_sec,
                r.scaling,
                r.coherence_stalls_per_packet,
                r.coherence_misses_per_kpkt,
                r.invalidations_per_kpkt,
                r.bus.bus_rd,
                r.bus.bus_rdx,
                r.bus.bus_upgr,
                r.bus.writebacks,
                r.modes_identical,
                r.multiset_ok,
                if i + 1 < report.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("table_mc: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n  wrote {path}");
    }

    let failures = report.failures();
    if !failures.is_empty() {
        eprintln!("table_mc: MULTI-CORE GATE FAILURE: {failures:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
