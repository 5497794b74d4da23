//! The multi-core router: build and drive the RSS-sharded Clack router
//! on a [`MultiMachine`].
//!
//! The sharded configuration (see [`crate::clackgen::generate_mc`]) gives
//! every simulated core its own input pipeline over its own input device;
//! the pipelines converge on two `SharedQueue` elements whose spinlock,
//! ring, and counters live in shared guest memory, so cores genuinely
//! contend for cache lines on the egress path. [`MultiRouterHarness`]
//! shards incoming frames RSS-style (`rss_hash(frame) % ncores` picks the
//! input device) and drives the cores in the deterministic round-robin
//! order that both interpreter loops must reproduce bit-identically —
//! that determinism is what the lockstep differential tests in
//! `tests/mc.rs` lean on.

use knit::{build, BuildOptions, BuildReport, KnitError, Program, SourceTree};
use machine::{BusStats, ExecMode, Fault, MultiMachine, PerfCounters};

use crate::clackgen;
use crate::packets::{rss_hash, WorkItem};

/// Build inputs for the sharded `ncores`-way router (cf.
/// [`crate::router_build_inputs`]).
pub fn mc_router_build_inputs(
    ncores: usize,
    flatten: bool,
) -> Result<(Program, SourceTree, BuildOptions), KnitError> {
    let kernel = if flatten { "McRouterFlat" } else { "McRouter" };
    let generated = clackgen::generate_mc(ncores, kernel, flatten)
        .map_err(|e| KnitError::BadDeclaration { unit: kernel.into(), what: e })?;
    let mut p = crate::program();
    p.load_str("generated_mc.unit", &generated.unit_text)?;
    let mut t = crate::sources();
    clackgen::install(&generated, &mut t);
    let mut o = BuildOptions::new(kernel, machine::runtime_symbols());
    o.entry = None; // the harness drives router0..routerN-1 directly
    Ok((p, t, o))
}

/// Build the sharded multi-core Clack router for `ncores` cores.
pub fn build_mc_router(ncores: usize, flatten: bool) -> Result<BuildReport, KnitError> {
    let (p, t, o) = mc_router_build_inputs(ncores, flatten)?;
    build(&p, &t, &o)
}

/// One multi-core measurement (a `table_mc` row).
#[derive(Debug, Clone)]
pub struct McMeasurement {
    /// The execution tier the cores ran in. Guest-visible numbers are
    /// tier-independent; the label
    /// makes benchmark artifacts self-describing.
    pub exec: ExecMode,
    /// Packets processed in the timed batch.
    pub packets: u64,
    /// Wall-clock cycles per packet: the *slowest core's* cycle delta over
    /// the batch. Cores run concurrently in the machine model (the
    /// round-robin serialization is a simulation artifact), so this is the
    /// number whose inverse scales with core count.
    pub wall_cycles_per_packet: u64,
    /// Total cycles per packet summed over every core — the work metric;
    /// coherence overhead makes it rise with core count.
    pub total_cycles_per_packet: u64,
    /// Bus stall cycles (coherence + write-back) per packet, all cores.
    pub coherence_stalls_per_packet: u64,
    /// Summed counter deltas over the timed batch.
    pub raw_total: PerfCounters,
    /// Per-core counter deltas over the timed batch.
    pub per_core: Vec<PerfCounters>,
    /// Bus transaction counts over the timed batch.
    pub bus: BusStats,
}

/// Drives a built sharded router image on N coherent cores.
pub struct MultiRouterHarness {
    mm: MultiMachine,
    /// Per-core `router{c}.router_step` image function indices, resolved
    /// once so the per-round dispatch is a direct `call_idx_on`.
    entries: Vec<u32>,
}

impl MultiRouterHarness {
    /// Build a harness from a Knit build report (expects root exports
    /// `router0..router{ncores-1}` providing `router_step`).
    pub fn new(report: &BuildReport, ncores: usize) -> Result<MultiRouterHarness, Fault> {
        MultiRouterHarness::with_machine(MultiMachine::new(report.image.clone(), ncores)?, report)
    }

    /// Build a harness over a preconfigured [`MultiMachine`] (custom cost
    /// model or run limits). Runs `__knit_init` on core 0; shared memory
    /// makes the initialized state visible to every core.
    pub fn with_machine(
        mut mm: MultiMachine,
        report: &BuildReport,
    ) -> Result<MultiRouterHarness, Fault> {
        mm.call_on(0, "__knit_init", &[])?;
        let ncores = mm.ncores();
        // input devices 0..ncores-1 (rx side), output ports on devices
        // 0 and 1 (tx side; rx and tx queues are independent)
        mm.ensure_netdevs(ncores.max(2));
        let mut entries = Vec::with_capacity(ncores);
        for c in 0..ncores {
            let key = format!("router{c}.router_step");
            let sym = report
                .exports
                .iter()
                .find(|(k, _)| k.as_str() == key)
                .map(|(_, v)| v.clone())
                .ok_or(Fault::NoSuchFunction(key))?;
            let fi = mm.core(0).image().func_by_name(&sym).ok_or(Fault::NoSuchFunction(sym))?;
            entries.push(fi);
        }
        Ok(MultiRouterHarness { mm, entries })
    }

    /// Number of cores.
    pub fn ncores(&self) -> usize {
        self.entries.len()
    }

    /// Select the interpreter loop on every core.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mm.set_exec_mode(mode);
    }

    /// Shard a frame to its core by RSS hash; returns the chosen device.
    pub fn inject(&mut self, frame: Vec<u8>) -> usize {
        let dev = rss_hash(&frame) as usize % self.ncores();
        self.mm.netdevs[dev].inject(frame);
        dev
    }

    /// Queue a frame on a specific input device (bypasses the RSS hash).
    pub fn inject_to(&mut self, dev: usize, frame: Vec<u8>) {
        self.mm.netdevs[dev].inject(frame);
    }

    /// One scheduling round: each core runs `router_step` once, in core
    /// order — the unit of the deterministic interleaving. Returns the
    /// number of packets processed across all cores.
    pub fn step_round(&mut self) -> Result<i64, Fault> {
        let mut n = 0;
        for c in 0..self.entries.len() {
            n += self.mm.call_idx_on(c, self.entries[c], &[])?;
        }
        Ok(n)
    }

    /// Step rounds until every input device is drained.
    pub fn run_until_idle(&mut self) {
        loop {
            match self.step_round() {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => panic!("sharded router fault: {e}"),
            }
        }
    }

    /// Drain transmitted frames from output port `port` (device `port`'s
    /// tx queue).
    pub fn collect(&mut self, port: usize) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = self.mm.netdevs[port].collect() {
            out.push(f);
        }
        out
    }

    /// Direct access to the underlying machine (counters, bus, memory).
    pub fn machine(&mut self) -> &mut MultiMachine {
        &mut self.mm
    }

    /// Measure steady-state per-packet cost over `work`. The workload's
    /// device assignment is ignored — frames are sharded by RSS hash, as
    /// the NIC would. The first quarter (at least 8 frames) warms caches
    /// on every core; the rest is injected as one batch and drained in
    /// round-robin rounds so the cores genuinely interleave.
    pub fn measure(&mut self, work: &[WorkItem]) -> Result<McMeasurement, Fault> {
        let warmup = (work.len() / 4).clamp(8, 64).min(work.len().saturating_sub(1)).max(1);
        let (warm, timed) = work.split_at(warmup.min(work.len()));
        for (_, pkt) in warm {
            self.inject(pkt.clone());
        }
        while self.step_round()? > 0 {}

        let ncores = self.ncores();
        let before: Vec<PerfCounters> = (0..ncores).map(|c| self.mm.counters(c)).collect();
        let bus_before = self.mm.bus_stats();
        for (_, pkt) in timed {
            self.inject(pkt.clone());
        }
        let mut processed = 0u64;
        loop {
            let n = self.step_round()?;
            if n == 0 {
                break;
            }
            processed += n as u64;
        }

        let per_core: Vec<PerfCounters> =
            (0..ncores).map(|c| self.mm.counters(c).delta_since(&before[c])).collect();
        let mut raw_total = PerfCounters::default();
        let mut wall = 0u64;
        for d in &per_core {
            raw_total.cycles += d.cycles;
            raw_total.instructions += d.instructions;
            raw_total.ifetch_stall_cycles += d.ifetch_stall_cycles;
            raw_total.icache_misses += d.icache_misses;
            raw_total.calls += d.calls;
            raw_total.indirect_calls += d.indirect_calls;
            raw_total.intrinsic_calls += d.intrinsic_calls;
            raw_total.dcache_misses += d.dcache_misses;
            raw_total.coherence_misses += d.coherence_misses;
            raw_total.invalidations += d.invalidations;
            raw_total.bus_stall_cycles += d.bus_stall_cycles;
            wall = wall.max(d.cycles);
        }
        let bus_after = self.mm.bus_stats();
        let packets = processed.max(1);
        Ok(McMeasurement {
            exec: self.mm.exec_mode(),
            packets: processed,
            wall_cycles_per_packet: wall / packets,
            total_cycles_per_packet: raw_total.cycles / packets,
            coherence_stalls_per_packet: raw_total.bus_stall_cycles / packets,
            raw_total,
            per_core,
            bus: bus_after.delta_since(&bus_before),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::{self, WorkloadOptions};

    #[test]
    fn sharded_router_matches_single_core_oracle() {
        // The sharded 2-core router must emit the same multiset of frames
        // per output port as the canonical single-core router, anomalies
        // included — sharding may only change interleaving, never routing.
        let work = packets::workload(&WorkloadOptions {
            count: 96,
            pct_non_ip: 10,
            pct_ttl_expired: 10,
            pct_no_route: 10,
            ..Default::default()
        });
        let single = crate::build_clack_router(&crate::ip_router(), false).unwrap();
        let mut hs = crate::RouterHarness::new(&single).unwrap();
        for (dev, pkt) in &work {
            hs.inject(*dev, pkt.clone());
        }
        hs.run_until_idle();

        let mc = build_mc_router(2, false).unwrap();
        let mut hm = MultiRouterHarness::new(&mc, 2).unwrap();
        for (_, pkt) in &work {
            hm.inject(pkt.clone());
        }
        hm.run_until_idle();

        for port in 0..2 {
            let mut a = hs.collect(port);
            let mut b = hm.collect(port);
            a.sort();
            b.sort();
            assert_eq!(a, b, "port {port} multiset differs from the single-core oracle");
        }
        hm.machine().check_invariants().unwrap();
    }

    #[test]
    fn sharded_router_generates_coherence_traffic() {
        let mc = build_mc_router(2, false).unwrap();
        let mut h = MultiRouterHarness::new(&mc, 2).unwrap();
        let work = packets::workload(&WorkloadOptions { count: 64, ..Default::default() });
        let m = h.measure(&work).unwrap();
        assert!(m.packets >= 32);
        // both cores did real work
        assert!(m.per_core.iter().all(|c| c.instructions > 0), "{:?}", m.per_core);
        // the SharedQueue lines ping-pong between cores
        let total = h.machine().counters_total();
        assert!(total.coherence_misses > 0, "no coherence misses: {total:?}");
        assert!(total.invalidations > 0, "no invalidations: {total:?}");
        assert!(total.bus_stall_cycles > 0);
        h.machine().check_invariants().unwrap();
    }
}
