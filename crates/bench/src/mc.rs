//! The `table_mc` experiment: sharded-router throughput scaling from one
//! to N coherent cores, with the two multi-core correctness gates.
//!
//! Each row builds the RSS-sharded Clack router for a core count, measures
//! steady-state per-packet cost on the [`machine::MultiMachine`] (wall
//! cycles = slowest core, total cycles = summed work, coherence stalls
//! from the MESI bus), and then runs the CI gates:
//!
//! 1. **mode identity** — the same workload replayed under
//!    `ExecMode::Fast` must produce bit-identical output frames, per-core
//!    counters, and bus transaction counts versus `ExecMode::Reference`
//!    (the multi-core extension of the single-core fast-versus-Reference
//!    tests);
//! 2. **multiset identity** — the sharded router must emit exactly the
//!    single-core router's output multiset per port (sharding may reorder
//!    packets, never alter or drop them).
//!
//! `cargo run --release -p bench --bin table_mc` prints the table and
//! exits nonzero if either gate fails on any row.

use clack::packets::{self, WorkItem, WorkloadOptions};
use clack::{build_clack_router, build_mc_router, ip_router, MultiRouterHarness, RouterHarness};
use machine::{BusStats, ExecMode, PerfCounters};

/// Core counts measured by the table.
pub const CORE_COUNTS: &[usize] = &[1, 2, 4];

/// Knobs for the multi-core scaling experiment.
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Frames in the workload (a quarter, clamped to [8, 64], warms up).
    pub packets: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions { packets: 512, seed: WorkloadOptions::default().seed }
    }
}

impl McOptions {
    /// The small CI configuration.
    pub fn smoke() -> Self {
        McOptions { packets: 128, ..Default::default() }
    }
}

/// The mixed workload: mostly forwardable frames plus every anomaly class,
/// so the discard paths (and their shared Discard counters) see traffic.
pub fn mc_workload(opts: &McOptions) -> Vec<WorkItem> {
    packets::workload(&WorkloadOptions {
        count: opts.packets,
        seed: opts.seed,
        pct_non_ip: 10,
        pct_ttl_expired: 5,
        pct_no_route: 5,
        ..Default::default()
    })
}

/// One row of the scaling table.
#[derive(Debug, Clone)]
pub struct McRow {
    /// Simulated cores sharing the bus.
    pub ncores: usize,
    /// The execution tier that produced the measurement run (always
    /// `ExecMode::Fast`; guest-visible numbers are tier-independent).
    pub exec: ExecMode,
    /// Packets in the timed batch.
    pub packets: u64,
    /// Slowest core's cycles per packet — the number whose inverse is
    /// throughput (cores run concurrently in the machine model).
    pub wall_cycles_per_packet: u64,
    /// Cycles per packet summed over every core — the work metric.
    pub total_cycles_per_packet: u64,
    /// Throughput proxy: packets per second at a nominal 1 GHz guest
    /// clock (`1e9 / wall_cycles_per_packet`).
    pub packets_per_sec: f64,
    /// Throughput scaling versus the 1-core row (wall-cycle ratio).
    pub scaling: f64,
    /// Bus stall cycles (coherence protocol + write-backs) per packet.
    pub coherence_stalls_per_packet: u64,
    /// Coherence misses per 1000 packets (lines fetched from another
    /// core's cache or after an invalidation).
    pub coherence_misses_per_kpkt: u64,
    /// Invalidations per 1000 packets (lines snooped away from a core).
    pub invalidations_per_kpkt: u64,
    /// Bus transaction counts over the timed batch.
    pub bus: BusStats,
    /// Gate 1: the Fast run was bit-identical to Reference.
    pub modes_identical: bool,
    /// Gate 2: output multiset matched the single-core router.
    pub multiset_ok: bool,
}

/// Everything a sharded-router run can observe, for the mode-identity
/// gate. Derived `PartialEq` over the lot is the bit-identity check.
#[derive(Debug, PartialEq)]
struct ShardedRun {
    outputs: Vec<Vec<Vec<u8>>>,
    counters: Vec<PerfCounters>,
    bus: BusStats,
}

/// Replay `work` through a fresh harness in `mode` and snapshot the
/// observables.
fn run_sharded(
    report: &knit::BuildReport,
    ncores: usize,
    mode: ExecMode,
    work: &[WorkItem],
) -> ShardedRun {
    let mut h = MultiRouterHarness::new(report, ncores).expect("sharded harness");
    h.set_exec_mode(mode);
    for (_, pkt) in work {
        h.inject(pkt.clone());
    }
    h.run_until_idle();
    let outputs = (0..2).map(|p| h.collect(p)).collect();
    let mm = h.machine();
    mm.check_invariants().expect("MESI invariants hold");
    ShardedRun {
        outputs,
        counters: (0..ncores).map(|c| mm.counters(c)).collect(),
        bus: mm.bus_stats(),
    }
}

/// The single-core router's per-port output multiset (sorted) — the
/// routing oracle the sharded rows are compared against.
fn single_core_multisets(work: &[WorkItem]) -> Vec<Vec<Vec<u8>>> {
    let report = build_clack_router(&ip_router(), false).expect("single-core router builds");
    let mut h = RouterHarness::new(&report).expect("single-core harness");
    for (dev, pkt) in work {
        h.inject(*dev, pkt.clone());
    }
    h.run_until_idle();
    (0..2)
        .map(|p| {
            let mut frames = h.collect(p);
            frames.sort();
            frames
        })
        .collect()
}

/// The full multi-core report.
#[derive(Debug, Clone)]
pub struct McReport {
    pub options: McOptions,
    pub rows: Vec<McRow>,
}

impl McReport {
    /// Row labels whose correctness gates failed (empty = CI passes).
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for r in &self.rows {
            if !r.modes_identical {
                out.push(format!("{}-core tier divergence from reference", r.ncores));
            }
            if !r.multiset_ok {
                out.push(format!("{}-core output multiset mismatch", r.ncores));
            }
        }
        out
    }
}

/// Run the scaling table over [`CORE_COUNTS`].
pub fn table_mc(opts: &McOptions) -> McReport {
    let work = mc_workload(opts);
    let oracle = single_core_multisets(&work);
    let mut rows: Vec<McRow> = Vec::new();
    for &ncores in CORE_COUNTS {
        let report = build_mc_router(ncores, false).expect("sharded router builds");

        // The measurement run, on the fast tier. `measure` injects the
        // whole workload (warmup included), so draining the tx queues
        // afterwards yields the full run's outputs for gate 2.
        let mut h = MultiRouterHarness::new(&report, ncores).expect("sharded harness");
        h.set_exec_mode(ExecMode::Fast);
        let m = h.measure(&work).expect("sharded router measures");
        let multiset_ok = (0..2).all(|p| {
            let mut got = h.collect(p);
            got.sort();
            got == oracle[p]
        });

        // Gate 1: fresh harnesses, the fast tier versus the reference
        // loop, bit-identity.
        let modes_identical = run_sharded(&report, ncores, ExecMode::Fast, &work)
            == run_sharded(&report, ncores, ExecMode::Reference, &work);

        let kpkt = |n: u64| n * 1000 / m.packets.max(1);
        let wall_base = rows
            .first()
            .map(|r: &McRow| r.wall_cycles_per_packet)
            .unwrap_or(m.wall_cycles_per_packet);
        rows.push(McRow {
            ncores,
            exec: m.exec,
            packets: m.packets,
            wall_cycles_per_packet: m.wall_cycles_per_packet,
            total_cycles_per_packet: m.total_cycles_per_packet,
            packets_per_sec: 1e9 / m.wall_cycles_per_packet.max(1) as f64,
            scaling: wall_base as f64 / m.wall_cycles_per_packet.max(1) as f64,
            coherence_stalls_per_packet: m.coherence_stalls_per_packet,
            coherence_misses_per_kpkt: kpkt(m.raw_total.coherence_misses),
            invalidations_per_kpkt: kpkt(m.raw_total.invalidations),
            bus: m.bus,
            modes_identical,
            multiset_ok,
        });
    }
    McReport { options: opts.clone(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI gates and the scaling shape, on the smoke workload: both
    /// gates pass on every row, multi-core rows pay real coherence
    /// stalls, and sharding across 4 cores beats one core on wall cycles.
    #[test]
    fn table_mc_smoke_passes_both_gates_and_scales() {
        let r = table_mc(&McOptions { packets: 96, ..McOptions::default() });
        assert_eq!(r.failures(), Vec::<String>::new());
        assert_eq!(r.rows.len(), CORE_COUNTS.len());
        let one = &r.rows[0];
        let four = r.rows.last().unwrap();
        assert_eq!(one.coherence_misses_per_kpkt, 0, "one core never snoops a dirty copy");
        assert_eq!(one.invalidations_per_kpkt, 0, "one core never gets invalidated");
        assert!(four.coherence_stalls_per_packet > 0, "shared queue must ping-pong");
        assert!(four.coherence_misses_per_kpkt > 0 && four.invalidations_per_kpkt > 0);
        // Sharding must actually scale: the slowest of 4 cores finishes
        // well before the single core (perfect would be 4.00x).
        assert!(
            four.wall_cycles_per_packet < one.wall_cycles_per_packet,
            "4-core wall {} must beat 1-core wall {}",
            four.wall_cycles_per_packet,
            one.wall_cycles_per_packet
        );
    }
}
