//! The repository benchmark: one command, three workloads, every metric
//! by name and unit, outputs checked against oracles.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale-10k|serve-edit|router-sim> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, derived from spans
//! the benchmark records around each call into a layer, and the spans are
//! written as Chrome trace-event JSON under `.perfbench-out/`. Every
//! workload emits every metric: a layer a workload does not exercise reads
//! 0. `perfbench/README.md` defines each metric per workload.

mod router;
mod scale;
mod serve;
mod trace;

use std::time::{Duration, Instant};

use knit::{BuildOptions, BuildReport, BuildSession, KnitError, LintConfig, Program, SourceTree};
use trace::Tracer;

/// End-to-end metrics, in output order, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_build_s", "s"),
    ("lint_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// The build phases `BuildReport.phases` reports, in pipeline order.
pub const PHASES: [&str; 8] =
    ["elaborate", "constraints", "schedule", "compile", "objcopy", "flatten", "generate", "link"];

/// Per-layer metrics, in output order, with units.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("cold.knit_lang.parse_ms", "ms"),
    ("cold.core.elaborate_ms", "ms"),
    ("cold.core.constraints_ms", "ms"),
    ("cold.core.schedule_ms", "ms"),
    ("cold.cmini.compile_ms", "ms"),
    ("cold.cobj.objcopy_ms", "ms"),
    ("cold.flatten.flatten_ms", "ms"),
    ("cold.core.generate_ms", "ms"),
    ("cold.cobj.link_ms", "ms"),
    ("cold.core.unattributed_ms", "ms"),
    ("cold.instances", "count"),
    ("cold.units_compiled", "count"),
    ("cold.objects", "count"),
    ("cold.template_copies", "count"),
    ("edit.core.elaborate_ms", "ms"),
    ("edit.core.constraints_ms", "ms"),
    ("edit.core.schedule_ms", "ms"),
    ("edit.cmini.compile_ms", "ms"),
    ("edit.cobj.objcopy_ms", "ms"),
    ("edit.flatten.flatten_ms", "ms"),
    ("edit.core.generate_ms", "ms"),
    ("edit.cobj.link_ms", "ms"),
    ("edit.core.unattributed_ms", "ms"),
    ("edit.units_compiled", "count"),
    ("edit.unit_compile_runs", "count"),
    ("edit.objcopy_runs", "count"),
    ("edit.objcopy_reuses", "count"),
    ("edit.link_runs", "count"),
    ("op.p99_ms", "ms"),
    ("op.samples", "count"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.core.engine_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.contention_ms", "ms"),
    ("machine.mips", "MIPS"),
    ("machine.no_icache_mips", "MIPS"),
    ("machine.fetch_accounting_share", "share"),
    ("machine.predecode_ms", "ms"),
    ("machine.cycles_per_pkt", "cycles"),
    ("machine.instrs_per_pkt", "count"),
    ("machine.icache_misses_per_pkt", "count"),
    ("machine.ifetch_stall_cycles_per_pkt", "cycles"),
    ("machine.calls_per_pkt", "count"),
    ("machine.indirect_calls_per_pkt", "count"),
    ("self.knit_lang_share", "share"),
    ("self.core_share", "share"),
    ("self.cmini_share", "share"),
    ("self.cobj_share", "share"),
    ("self.flatten_share", "share"),
    ("self.machine_share", "share"),
    ("self.server_share", "share"),
    ("self.bench_share", "share"),
    ("trace.coverage", "share"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// Where runs write trace files and sockets, relative to the working
/// directory.
pub const OUT_DIR: &str = ".perfbench-out";

/// Command-line settings shared by every workload.
pub struct Config {
    pub seed: u64,
    /// Length of the timed operation loop.
    pub seconds: Duration,
    /// The traced run: spans on, per-layer metrics out.
    pub trace: bool,
    /// Small inputs, for the benchmark's own smoke test.
    pub smoke: bool,
}

/// What a workload measured.
pub struct Outcome {
    /// Operations attempted: builds, requests and packets.
    pub attempted: u64,
    /// Operations that failed or whose output an oracle rejected.
    pub failed: u64,
    pub metrics: Metrics,
    /// One tracer per thread that recorded spans.
    pub tracers: Vec<Tracer>,
}

/// Named metric values; only names in [`END_TO_END`] or [`PER_LAYER`]
/// may be set, and unset per-layer metrics read 0.
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            values: END_TO_END.iter().chain(PER_LAYER.iter()).map(|&(n, u)| (n, u, 0.0)).collect(),
        }
    }
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric `{name}`"));
        slot.2 = if value.is_finite() { value } else { 0.0 };
    }

    /// Set `<prefix>.<layer>.<phase>_ms` from per-phase totals over `n`
    /// operations, plus `<prefix>.core.unattributed_ms` from the total
    /// wall of the calls that produced them.
    pub fn set_phases(&mut self, prefix: &str, phases: &PhaseSums, n: usize) {
        let n = n.max(1) as f64;
        let mut sum = Duration::ZERO;
        for (name, d) in PHASES.iter().zip(phases.phases) {
            sum += d;
            self.set(&format!("{prefix}.{}_ms", trace::phase_metric(name)), ms(d) / n);
        }
        self.set(
            &format!("{prefix}.core.unattributed_ms"),
            ms(phases.wall.saturating_sub(sum)) / n,
        );
    }

    fn json(&self, names: &[(&str, &str)]) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|(name, _)| {
                let (n, u, v) = self.values.iter().find(|(n, _, _)| n == name).expect("listed");
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Per-phase time totals and the wall of the calls that reported them.
#[derive(Default, Clone, Copy)]
pub struct PhaseSums {
    pub phases: [Duration; 8],
    pub wall: Duration,
}

impl PhaseSums {
    /// Add one call's phases (name → duration) and its wall time.
    pub fn add<'a>(
        &mut self,
        phases: impl IntoIterator<Item = (&'a str, Duration)>,
        wall: Duration,
    ) {
        for (name, d) in phases {
            if let Some(i) = PHASES.iter().position(|p| *p == name) {
                self.phases[i] += d;
            }
        }
        self.wall += wall;
    }

    pub fn merge(&mut self, other: &PhaseSums) {
        for (a, b) in self.phases.iter_mut().zip(other.phases) {
            *a += b;
        }
        self.wall += other.wall;
    }
}

/// Summed `SessionStats` deltas over a run's edit rebuilds.
#[derive(Default)]
pub struct StatDeltas {
    unit_compile_runs: usize,
    objcopy_runs: usize,
    objcopy_reuses: usize,
    link_runs: usize,
}

impl StatDeltas {
    pub fn add(&mut self, after: &knit::SessionStats, before: &knit::SessionStats) {
        self.unit_compile_runs += after.unit_compiles.runs - before.unit_compiles.runs;
        self.objcopy_runs += after.objcopy.runs - before.objcopy.runs;
        self.objcopy_reuses += after.objcopy.reuses - before.objcopy.reuses;
        self.link_runs += after.link.runs - before.link.runs;
    }

    /// Set the `edit.*` stat metrics, per edit over `edits` edits.
    pub fn set(&self, m: &mut Metrics, edits: usize) {
        let n = edits.max(1) as f64;
        m.set("edit.unit_compile_runs", self.unit_compile_runs as f64 / n);
        m.set("edit.objcopy_runs", self.objcopy_runs as f64 / n);
        m.set("edit.objcopy_reuses", self.objcopy_reuses as f64 / n);
        m.set("edit.link_runs", self.link_runs as f64 / n);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[((p * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// Seconds of each duration, as floats.
pub fn secs(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(Duration::as_secs_f64).collect()
}

/// Milliseconds of each duration, as floats.
pub fn millis(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|d| ms(*d)).collect()
}

/// Per-round samples of a run. The host's speed shifts by up to 2x for
/// stretches of seconds to minutes, so one round's median moves with it;
/// the fastest round is the figure that repeats from run to run (the
/// best-of-N the repository's other benchmarks report).
#[derive(Default)]
pub struct Rounds {
    /// Operation times, one list per round.
    ops: Vec<Vec<Duration>>,
    /// Work units completed per second of each round's loop.
    rates: Vec<f64>,
}

impl Rounds {
    /// Record one round: its operation times, and `units` of work done in
    /// `wall` of loop time.
    pub fn add(&mut self, ops: Vec<Duration>, units: f64, wall: Duration) {
        self.ops.push(ops);
        if wall > Duration::ZERO {
            self.rates.push(units / wall.as_secs_f64());
        }
    }

    /// The fastest round's median operation time, in ms.
    pub fn best_median_ms(&self) -> f64 {
        self.ops
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| median(&millis(r)))
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// The fastest round's rate.
    pub fn best_rate(&self) -> f64 {
        self.rates.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0)
    }
}

/// The fastest of one-per-round samples (cold build, lint), in seconds.
pub fn fastest_s(xs: &[Duration]) -> f64 {
    xs.iter().min().map_or(0.0, Duration::as_secs_f64)
}

/// Samples of a workload's cold builds: the parse, the parse plus first
/// build, the lint right after it, and the build's phases.
#[derive(Default)]
pub struct ColdSamples {
    pub parse: Vec<Duration>,
    pub build: Vec<Duration>,
    pub lint: Vec<Duration>,
    pub phases: PhaseSums,
}

impl ColdSamples {
    /// Set `cold_build_s`, `lint_s` and the `cold.*` times.
    pub fn set(&self, m: &mut Metrics) {
        m.set("cold_build_s", fastest_s(&self.build));
        m.set("lint_s", fastest_s(&self.lint));
        m.set("cold.knit_lang.parse_ms", median(&millis(&self.parse)));
        m.set_phases("cold", &self.phases, self.build.len());
    }
}

/// The in-process cold path: `parse` the inputs, build them on a fresh
/// `BuildSession`, then `analyze()` it. `None` if any step failed.
pub fn cold_session(
    tracer: &mut Tracer,
    cold: &mut ColdSamples,
    m: &mut Metrics,
    parse: impl FnOnce() -> Result<(Program, SourceTree, BuildOptions), KnitError>,
) -> Option<(BuildSession, BuildReport)> {
    let t0 = Instant::now();
    let (program, tree, opts) = tracer.span("knit_lang", "parse", parse).ok()?;
    let parsed = t0.elapsed();
    let mut session = BuildSession::from_parts(program, tree, opts);
    let t1 = Instant::now();
    let (built, id) = tracer.span_id("core", "build", || session.build());
    let end = Instant::now();
    tracer.window(t0, end);
    let report = built.ok()?;
    tracer.phases(id, report.phases.iter().map(|(n, d)| (*n, *d)));
    cold.phases.add(report.phases.iter().map(|(n, d)| (*n, *d)), end - t1);
    cold.parse.push(parsed);
    cold.build.push(end - t0);
    m.set("cold.instances", report.stats.instances as f64);
    m.set("cold.units_compiled", report.stats.units_compiled as f64);
    m.set("cold.objects", report.stats.objects as f64);
    m.set("cold.template_copies", report.elaboration.stats.template_copies as f64);

    let t2 = Instant::now();
    let analyzed = tracer.span("core", "analyze", || session.analyze(&LintConfig::new()));
    let end = Instant::now();
    tracer.window(t2, end);
    analyzed.ok()?;
    cold.lint.push(end - t2);
    Some((session, report))
}

/// `traced / untraced - 1` of the operation medians: the tracing overhead.
pub fn overhead(traced: &[Duration], untraced: &[Duration]) -> f64 {
    let u = median(&secs(untraced));
    if u > 0.0 {
        median(&secs(traced)) / u - 1.0
    } else {
        0.0
    }
}

/// A deterministic stream for workload inputs (splitmix64), so a seed
/// fixes every generated input and nothing else does.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <scale-10k|serve-edit|router-sim> --seed <n> \
         --seconds <s> --trace <0|1> [--smoke]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut cfg = Config { seed: 1, seconds: Duration::from_secs(10), trace: false, smoke: false };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 600.0) {
                    usage();
                }
                cfg.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                cfg.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => cfg.smoke = true,
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    let run: fn(&Config) -> Outcome = match workload.as_str() {
        "scale-10k" => scale::run,
        "serve-edit" => serve::run,
        "router-sim" => router::run,
        _ => usage(),
    };
    let out = run(&cfg);
    let mut metrics = out.metrics;
    metrics.set("peak_rss_mb", peak_rss_mb());
    let names: &[(&str, &str)] = if cfg.trace {
        let summary = trace::summarize(&out.tracers);
        for (layer, share) in &summary.self_share {
            metrics.set(&format!("self.{layer}_share"), *share);
        }
        metrics.set("trace.coverage", summary.coverage);
        metrics.set("trace.spans", summary.spans as f64);
        let spans = trace::chrome_json(&out.tracers, &workload, cfg.seed);
        let dir = std::path::Path::new(OUT_DIR);
        let path = dir.join(format!("trace-{workload}-{}.json", cfg.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        } else {
            eprintln!("perfbench: spans written to {}", path.display());
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics.json(names)
    );
}

/// Time `f`, returning its result and duration.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}
