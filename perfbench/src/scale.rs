//! `scale-10k`: the seeded 10k-unit synthetic corpus, built in-process on
//! a fresh `BuildSession` with two compile jobs. Cold parse + build, then
//! `analyze()`, then a seeded sequence of one-`.c`-file body edits, each
//! followed by `build()`.
//!
//! The cold build spends its time in compile, objcopy, link and schedule;
//! an edit recompiles one unit and then relinks all 10k, so the same
//! objcopy and link layers are used very differently. A cold-path gain
//! that makes memo checks costlier shows up in the edit numbers.

use std::time::{Duration, Instant};

use bench::synth::{self, SynthCorpus, SynthParams};
use knit::{proto, BuildOptions, BuildSession};

use crate::trace::Tracer;
use crate::{cold_session, ColdSamples, PhaseSums, Rng, Rounds, StatDeltas};
use crate::{median, millis, overhead, percentile, secs, timed, Config, Metrics, Outcome};

/// Compile jobs for every build (the container's two cores).
const JOBS: usize = 2;
/// Rounds per run. Each round generates the corpus (a `setup_s` sample),
/// cold-builds and analyzes it on a fresh session (`cold_build_s`,
/// `lint_s`), then edits that session for its share of the run, so every
/// metric samples the whole run, not only its start.
const ROUNDS: usize = 6;

fn options(corpus: &SynthCorpus) -> BuildOptions {
    let mut opts = BuildOptions::new(&corpus.root, Vec::<String>::new());
    opts.jobs = JOBS;
    opts
}

/// Change the constant `u<l>_<k>_f0` returns: a body edit that changes
/// object code (unlike a comment edit, which rebuilds nothing).
fn edit_body(text: &str, rng: &mut Rng) -> String {
    let body = text.find("_f0() { return ").expect("layer unit defines f0");
    let end = body + text[body..].find("; }").expect("f0 body ends");
    let start = text[..end].rfind(|c: char| !c.is_ascii_digit()).map_or(0, |i| i + 1);
    let old: u64 = text[start..end].parse().expect("f0 returns a constant");
    format!("{}{}{}", &text[..start], old + 1 + rng.below(97) as u64, &text[end..])
}

pub fn run(cfg: &Config) -> Outcome {
    let units = if cfg.smoke { 300 } else { 10_000 };
    let params = SynthParams::sized(units, cfg.seed);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, cfg.trace);
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rng = Rng::new(cfg.seed, 0xED17);

    let mut setup = Vec::new();
    let mut cold = ColdSamples::default();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut rounds = Rounds::default();
    let mut edit_phases = PhaseSums::default();
    let mut compiled = 0usize;
    let mut deltas = StatDeltas::default();
    let mut session: Option<BuildSession> = None;
    for _ in 0..ROUNDS {
        // Set-up: generate the corpus.
        let (corpus, d) = timed(|| synth::generate(&params));
        setup.push(d);

        // Cold: parse + first build() on a fresh session, then analyze().
        tracer.span("bench", "drop session", || drop(session.take()));
        let tree = tracer.span("bench", "clone tree", || corpus.tree.clone());
        attempted += 1;
        let parse = || Ok((corpus.load_program(JOBS)?, tree, options(&corpus)));
        let Some((mut s, report)) = cold_session(&mut tracer, &mut cold, &mut m, parse) else {
            failed += 1;
            continue;
        };
        if report.stats.instances != corpus.expected_instances {
            eprintln!(
                "scale-10k: {} instances, expected {}",
                report.stats.instances, corpus.expected_instances
            );
            failed += 1;
        }
        drop(report);

        // This round's share of the edits: seeded one-file body edits.
        let stats0 = s.stats().clone();
        let mut round_ops = Vec::new();
        let start = Instant::now();
        let mut last = start;
        while last - start < cfg.seconds / ROUNDS as u32 {
            let path = SynthCorpus::c_file(rng.below(params.depth), rng.below(params.fanout));
            let text = edit_body(s.tree().get(&path).expect("layer source exists"), &mut rng);
            // The traced run alternates tracing per edit to measure its cost.
            if cfg.trace {
                tracer.set_enabled(on.len() <= off.len());
            }
            let t0 = Instant::now();
            tracer.span("core", "update_source", || s.update_source(&path, &text));
            let (built, id) = tracer.span_id("core", "build", || s.build());
            last = Instant::now();
            tracer.window(t0, last);
            attempted += 1;
            let Ok(report) = built else {
                failed += 1;
                continue;
            };
            tracer.phases(id, report.phases.iter().map(|(n, d)| (*n, *d)));
            edit_phases.add(report.phases.iter().map(|(n, d)| (*n, *d)), last - t0);
            if report.stats.units_compiled != 1 {
                eprintln!(
                    "scale-10k: a one-file edit compiled {} units",
                    report.stats.units_compiled
                );
                failed += 1;
            }
            compiled += report.stats.units_compiled;
            if tracer.enabled() { &mut on } else { &mut off }.push(last - t0);
            round_ops.push(last - t0);
        }
        let done = round_ops.len() as f64;
        rounds.add(round_ops, done, last - start);
        tracer.set_enabled(cfg.trace);
        deltas.add(s.stats(), &stats0);
        session = Some(s);
    }
    m.set("setup_s", median(&secs(&setup)));
    cold.set(&mut m);

    let edits = on.len() + off.len();
    let all: Vec<Duration> = on.iter().chain(&off).copied().collect();
    m.set("op_p50_ms", rounds.best_median_ms());
    m.set("ops_per_s", rounds.best_rate());
    m.set("op.p99_ms", percentile(&millis(&all), 0.99));
    m.set("op.samples", edits as f64);
    m.set("trace.overhead_share", overhead(&on, &off));
    m.set_phases("edit", &edit_phases, edits);
    m.set("edit.units_compiled", compiled as f64 / edits.max(1) as f64);
    deltas.set(&mut m, edits);
    let Some(mut s) = session else {
        return Outcome {
            attempted: attempted.max(1),
            failed: failed.max(1),
            metrics: m,
            tracers: vec![tracer],
        };
    };

    // Cold-versus-incremental oracle: the edited session's image equals a
    // one-shot cold build of the final tree.
    attempted += 1;
    let session_hash = s.build().map(|r| proto::image_hash(&r.image));
    let cold_hash =
        knit::build(s.program(), s.tree(), s.options()).map(|r| proto::image_hash(&r.image));
    match (session_hash, cold_hash) {
        (Ok(a), Ok(b)) if a == b => {}
        _ => {
            eprintln!("scale-10k: incremental image differs from a cold build of the same tree");
            failed += 1;
        }
    }
    Outcome { attempted, failed, metrics: m, tracers: vec![tracer] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_edit_changes_only_the_f0_constant() {
        let mut rng = Rng::new(1, 2);
        let text = "int u0_1_f0();\nint u1_2_f0() { return u0_1_f0() + 42; }\n";
        let edited = edit_body(text, &mut rng);
        assert_ne!(edited, text);
        assert!(edited.starts_with("int u0_1_f0();\nint u1_2_f0() { return u0_1_f0() + "));
        assert!(edited.ends_with("; }\n"));
    }
}
