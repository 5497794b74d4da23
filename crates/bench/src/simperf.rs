//! Simulator-throughput benchmark: host wall-clock speed of the two
//! execution tiers ([`machine::ExecMode::Fast`] and
//! [`machine::ExecMode::Reference`]) on real workloads.
//!
//! Every workload runs end to end in both tiers and the fast tier's final
//! [`PerfCounters`] and guest-visible output are compared against the
//! reference tier — any divergence means the fast tier changed
//! guest-visible behaviour, which is the CI gate (`simperf --json` exits
//! nonzero on divergence). The reference tier is the oracle the identity
//! verdicts and the `speedup_vs_reference` column are computed against.
//! Absolute throughput (guest MIPS, packets/sec) is reported per tier;
//! the committed `BENCH_simperf.json` (schema v2) additionally gates the
//! fast tier's MIPS against its committed baseline on full (non-smoke)
//! runs.

use std::time::Instant;

use clack::packets::{self, WorkloadOptions};
use clack::{build_clack_router, ip_router};
use knit::build;
use machine::{ExecMode, Machine, PerfCounters};

/// Workload sizing for a simperf run.
#[derive(Debug, Clone)]
pub struct SimperfOptions {
    /// Packets blasted through the Clack router.
    pub packets: usize,
    /// Workload RNG seed (forwarded to [`WorkloadOptions::seed`]).
    pub seed: u64,
}

impl Default for SimperfOptions {
    fn default() -> Self {
        SimperfOptions { packets: 2048, seed: WorkloadOptions::default().seed }
    }
}

impl SimperfOptions {
    /// The tiny configuration CI's smoke run uses.
    pub fn smoke() -> Self {
        SimperfOptions { packets: 48, ..Default::default() }
    }
}

/// One tier's end-to-end execution of a workload.
#[derive(Debug, Clone, Copy)]
pub struct TierRun {
    /// Which execution tier produced this row.
    pub exec: ExecMode,
    /// Host wall-clock seconds for the guest execution.
    pub wall_s: f64,
    /// Final counters (init + full workload).
    pub counters: PerfCounters,
    /// Whether this tier finished with bit-identical counters *and*
    /// identical guest-visible output vs the reference tier (the gate;
    /// trivially true for the reference row itself).
    pub identical: bool,
}

impl TierRun {
    /// Guest millions-of-instructions per host second.
    pub fn mips(&self) -> f64 {
        self.counters.instructions as f64 / self.wall_s.max(1e-9) / 1e6
    }
}

/// Both tiers' runs of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload label (stable across runs; part of the JSON schema).
    pub name: &'static str,
    /// Packets processed (0 for non-packet workloads).
    pub packets: u64,
    /// One row per tier: fast, then reference.
    pub tiers: Vec<TierRun>,
}

impl WorkloadResult {
    /// This workload's row for `exec`.
    pub fn tier(&self, exec: ExecMode) -> Option<&TierRun> {
        self.tiers.iter().find(|t| t.exec == exec)
    }

    /// Host wall-clock speedup of `exec` over the reference tier.
    pub fn speedup_vs_reference(&self, exec: ExecMode) -> Option<f64> {
        let r = self.tier(ExecMode::Reference)?;
        Some(r.wall_s / self.tier(exec)?.wall_s.max(1e-9))
    }

    /// Packets per host second in `exec` (0 for non-packet workloads).
    pub fn packets_per_sec(&self, exec: ExecMode) -> Option<f64> {
        Some(self.packets as f64 / self.tier(exec)?.wall_s.max(1e-9))
    }
}

/// A full simperf run.
#[derive(Debug, Clone)]
pub struct SimperfReport {
    pub options: SimperfOptions,
    pub workloads: Vec<WorkloadResult>,
}

impl SimperfReport {
    /// `(workload, tier)` pairs that diverged from the reference tier
    /// (empty = gate passes).
    pub fn divergences(&self) -> Vec<(&'static str, ExecMode)> {
        self.workloads
            .iter()
            .flat_map(|w| w.tiers.iter().filter(|t| !t.identical).map(move |t| (w.name, t.exec)))
            .collect()
    }
}

/// Drive the modular Clack router over `work` in `mode`: init, then inject
/// and step each packet to completion. Returns wall-clock + counters, the
/// processed-packet count, and the forwarded frames (guest-visible
/// output, compared across tiers).
fn run_router(
    report: &knit::BuildReport,
    mode: ExecMode,
    work: &[packets::WorkItem],
) -> (f64, PerfCounters, u64, Vec<Vec<Vec<u8>>>) {
    let entry = report
        .exports
        .iter()
        .find(|(k, _)| k.ends_with(".router_step"))
        .map(|(_, v)| v.clone())
        .expect("router_step exported");
    let mut m = Machine::new(report.image.clone()).expect("router machine");
    m.set_exec_mode(mode);
    let start = Instant::now();
    m.call("__knit_init", &[]).expect("init");
    let entry = m.image().func_by_name(&entry).expect("entry resolves");
    let mut processed = 0u64;
    for (dev, pkt) in work {
        m.netdevs[*dev].inject(pkt.clone());
        loop {
            match m.call_idx(entry, &[]) {
                Ok(0) => break,
                Ok(n) => processed += n as u64,
                Err(e) => panic!("router fault: {e}"),
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let frames = (0..m.netdevs.len())
        .map(|d| {
            let mut out = Vec::new();
            while let Some(f) = m.netdevs[d].collect() {
                out.push(f);
            }
            out
        })
        .collect();
    (wall_s, m.counters(), processed, frames)
}

/// The Clack-router throughput workload: the paper's Table 1 router
/// (modular, unflattened) forwarding `opts.packets` frames.
pub fn router_throughput(opts: &SimperfOptions) -> WorkloadResult {
    let report = build_clack_router(&ip_router(), false).expect("clack router builds");
    let work = packets::workload(&WorkloadOptions {
        count: opts.packets,
        seed: opts.seed,
        ..Default::default()
    });
    let (ref_wall, ref_ctr, ref_n, ref_frames) = run_router(&report, ExecMode::Reference, &work);
    let (wall_s, counters, n, frames) = run_router(&report, ExecMode::Fast, &work);
    let fast = TierRun {
        exec: ExecMode::Fast,
        wall_s,
        counters,
        identical: counters == ref_ctr && n == ref_n && frames == ref_frames,
    };
    let reference =
        TierRun { exec: ExecMode::Reference, wall_s: ref_wall, counters: ref_ctr, identical: true };
    WorkloadResult { name: "clack-router", packets: ref_n, tiers: vec![fast, reference] }
}

/// Boot an image in `mode`, expecting exit code `want`.
fn run_boot(image: &cobj::Image, mode: ExecMode, want: i64) -> (f64, PerfCounters, String) {
    let mut m = Machine::new(image.clone()).expect("machine");
    m.set_exec_mode(mode);
    let start = Instant::now();
    let code = m.run_entry().expect("image boots");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(code, want, "unexpected exit code");
    (wall_s, m.counters(), m.console.output.clone())
}

/// Boot `image` in both tiers and compare fast against reference.
fn boot_both(name: &'static str, image: &cobj::Image, want: i64) -> WorkloadResult {
    let (ref_wall, ref_ctr, ref_out) = run_boot(image, ExecMode::Reference, want);
    let (wall_s, counters, out) = run_boot(image, ExecMode::Fast, want);
    let fast = TierRun {
        exec: ExecMode::Fast,
        wall_s,
        counters,
        identical: counters == ref_ctr && out == ref_out,
    };
    let reference =
        TierRun { exec: ExecMode::Reference, wall_s: ref_wall, counters: ref_ctr, identical: true };
    WorkloadResult { name, packets: 0, tiers: vec![fast, reference] }
}

/// The deep-lock kernel boot (~100 units, the constraint/analyzer/PGO
/// workload) as a throughput workload.
pub fn kernel_boot() -> WorkloadResult {
    let (p, t, opts) = crate::deep_lock_kernel_inputs();
    let report = build(&p, &t, &opts).expect("deep-lock kernel builds");
    boot_both("deep-lock-kernel", &report.image, 3)
}

/// The on-disk `demo/` web server (the paper's Figure 5 configuration),
/// booted in both tiers — the "demo image" leg of the CI divergence gate.
/// Returns `None` when the demo directory is not present (e.g. a pruned
/// checkout); callers should note the skip.
pub fn demo_boot() -> Option<WorkloadResult> {
    let demo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let unit = std::fs::read_to_string(demo.join("webserver.unit")).ok()?;
    let mut p = knit::Program::new();
    p.load_str("webserver.unit", &unit).expect("demo units parse");
    let mut t = knit::SourceTree::new();
    for entry in std::fs::read_dir(&demo).ok()? {
        let path = entry.ok()?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("c") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            t.add(&name, std::fs::read_to_string(&path).expect("demo source reads"));
        }
    }
    let opts = knit::BuildOptions::new("WebServer", machine::runtime_symbols());
    let report = build(&p, &t, &opts).expect("demo builds");
    Some(boot_both("demo-webserver", &report.image, 0))
}

/// Run the full suite: Clack router, deep-lock kernel boot, and (when
/// present) the demo web server.
pub fn run(opts: SimperfOptions) -> SimperfReport {
    let mut workloads = vec![router_throughput(&opts), kernel_boot()];
    if let Some(demo) = demo_boot() {
        workloads.push(demo);
    }
    SimperfReport { options: opts, workloads }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_identical_across_tiers() {
        let report = run(SimperfOptions { packets: 24, ..Default::default() });
        assert!(report.divergences().is_empty(), "tiers diverged on {:?}", report.divergences());
        let router = &report.workloads[0];
        assert_eq!(router.name, "clack-router");
        assert!(router.packets >= 24);
        assert_eq!(router.tiers.len(), 2);
        for t in &router.tiers {
            assert!(t.counters.instructions > 0, "{} ran no instructions", t.exec);
        }
    }
}
