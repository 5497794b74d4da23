//! Lockstep differential tests for the multi-core machine.
//!
//! The `MultiMachine` schedules cores round-robin at call granularity, so
//! a trace is a deterministic interleaving — the same interleaving in
//! `ExecMode::Fast` and `ExecMode::Reference`. Everything observable must
//! then be bit-identical across the two tiers: per-call
//! results and faults, per-core performance counters (including the new
//! coherence counters), bus transaction counts, per-core device output,
//! and the synced shared memory image. These tests drive that contract
//! over random multi-core programs (which fault, recurse, and race on
//! shared data on purpose) and over the real sharded Clack router, and
//! close with the sharded-vs-single-core output-multiset oracle.
//!
//! Failures print the generated seed; replay one trace with
//! `SIMPERF_SEED=<n> cargo test --test mc`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use knit_repro::clack::{self, packets};
use knit_repro::machine::{
    BusStats, CostModel, DCacheParams, ExecMode, Fault, Machine, MultiMachine, PerfCounters,
    RunLimits,
};

mod common;
use common::{gen_image, override_seed, repro};

// ---------------------------------------------------------------------------
// random multi-core programs
// ---------------------------------------------------------------------------

/// Everything a multi-core execution can observe, snapshot for the
/// bit-identity comparison.
#[derive(Debug, PartialEq)]
struct McObserved {
    /// Call results in interleaving order (core-major round-robin).
    results: Vec<Result<i64, Fault>>,
    /// Per-core performance counters (coherence fields included).
    counters: Vec<PerfCounters>,
    /// Bus transaction counts.
    bus: BusStats,
    /// The shared memory with dirty lines and pending write-backs folded
    /// in — the canonical memory observation.
    memory: Vec<u8>,
    /// Per-core console output.
    consoles: Vec<String>,
    /// Per-core trace buffers.
    traces: Vec<Vec<i64>>,
}

/// Run `rounds` round-robin rounds of `f0` on an `ncores` machine and
/// snapshot every observable.
fn observe_mc(
    image: &knit_repro::cobj::Image,
    mode: ExecMode,
    ncores: usize,
    rounds: usize,
    args: &[i64],
    dcache: DCacheParams,
) -> McObserved {
    // The stack region is split across cores, so it must be big enough
    // for every core to get a useful slice.
    let limits = RunLimits {
        max_steps: 20_000,
        max_call_depth: 32,
        heap_size: 1 << 16,
        stack_size: 16 * 4096,
    };
    let costs = CostModel { dcache, ..CostModel::default() };
    let mut mm = MultiMachine::with_config(image.clone(), costs, limits, ncores).unwrap();
    mm.set_exec_mode(mode);
    let mut results = Vec::new();
    for _ in 0..rounds {
        for c in 0..ncores {
            results.push(mm.call_on(c, "f0", args));
        }
    }
    mm.check_invariants().expect("MESI invariants hold after the trace");
    McObserved {
        results,
        counters: (0..ncores).map(|c| mm.counters(c)).collect(),
        bus: mm.bus_stats(),
        memory: mm.memory_synced(),
        consoles: (0..ncores).map(|c| mm.core(c).console.output.clone()).collect(),
        traces: (0..ncores).map(|c| mm.core(c).trace.clone()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lockstep differential property: random programs racing on
    /// shared globals behave bit-identically under both execution tiers,
    /// for 2–4 cores and three D-cache geometries.
    #[test]
    fn all_tiers_match_reference_on_random_multicore_programs(seed in any::<u64>()) {
        let seed = override_seed(seed);
        let image = gen_image(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d63); // "mc"
        let ncores = rng.random_range(2usize..5);
        let rounds = rng.random_range(1usize..4);
        let args: Vec<i64> = (0..rng.random_range(0usize..3))
            .map(|_| rng.random_range(-8i64..8))
            .collect();
        // Tiny caches force evictions, write-backs, and snoop traffic.
        let geometries = [
            DCacheParams::default(),
            DCacheParams { size: 128, line: 32, ..DCacheParams::default() },
            DCacheParams { size: 64, line: 16, ..DCacheParams::default() },
        ];
        let dcache = geometries[rng.random_range(0usize..3)];

        let reference = observe_mc(&image, ExecMode::Reference, ncores, rounds, &args, dcache);
        let fast = observe_mc(&image, ExecMode::Fast, ncores, rounds, &args, dcache);
        prop_assert_eq!(&fast, &reference, "fast vs reference: {}", repro(seed));
    }
}

/// A multi-core machine must agree with a single-core machine about
/// guest-visible semantics: the same calls on core 0 of an N-core
/// machine return the same results as on a plain `Machine` (costs differ
/// — the D-cache charges stalls — but values may not).
#[test]
fn core_zero_results_match_the_single_core_machine() {
    for seed in [3u64, 17, 4242, 0xdead] {
        let image = gen_image(seed);
        let limits = RunLimits {
            max_steps: 20_000,
            max_call_depth: 32,
            heap_size: 1 << 16,
            stack_size: 16 * 4096,
        };
        let mut single = Machine::with_config(image.clone(), CostModel::default(), limits).unwrap();
        let mut multi = MultiMachine::with_config(image, CostModel::default(), limits, 2).unwrap();
        for _ in 0..3 {
            let a = single.call("f0", &[1, 2]);
            let b = multi.call_on(0, "f0", &[1, 2]);
            assert_eq!(a, b, "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------------
// the real thing: the sharded Clack router
// ---------------------------------------------------------------------------

/// Drive the sharded router end to end in `mode` over the canonical
/// workload and snapshot every observable, per-packet outputs included.
fn run_sharded(ncores: usize, mode: ExecMode) -> (Vec<Vec<Vec<u8>>>, McObserved) {
    let report = clack::build_mc_router(ncores, false).expect("sharded router builds");
    let mut h = clack::MultiRouterHarness::new(&report, ncores).unwrap();
    h.set_exec_mode(mode);
    let work = packets::workload(&packets::WorkloadOptions {
        count: 80,
        pct_non_ip: 10,
        pct_ttl_expired: 5,
        pct_no_route: 5,
        ..Default::default()
    });
    let mut results = Vec::new();
    for (_, pkt) in &work {
        h.inject(pkt.clone());
    }
    loop {
        match h.step_round() {
            Ok(0) => break,
            other => results.push(other),
        }
    }
    let outputs = (0..2).map(|p| h.collect(p)).collect();
    let mm = h.machine();
    mm.check_invariants().unwrap();
    let obs = McObserved {
        results,
        counters: (0..ncores).map(|c| mm.counters(c)).collect(),
        bus: mm.bus_stats(),
        memory: mm.memory_synced(),
        consoles: (0..ncores).map(|c| mm.core(c).console.output.clone()).collect(),
        traces: (0..ncores).map(|c| mm.core(c).trace.clone()).collect(),
    };
    (outputs, obs)
}

#[test]
fn sharded_router_is_bit_identical_across_modes() {
    for ncores in [2usize, 4] {
        let (frames_ref, reference) = run_sharded(ncores, ExecMode::Reference);
        let (frames, obs) = run_sharded(ncores, ExecMode::Fast);
        assert_eq!(frames, frames_ref, "{ncores}-core fast routed frames must match");
        assert_eq!(obs, reference, "{ncores}-core fast counters/bus/memory must match");
        // and the run did real multi-core work
        assert!(reference.counters.iter().all(|c| c.instructions > 0));
        assert!(reference.counters.iter().map(|c| c.coherence_misses).sum::<u64>() > 0);
    }
}

/// The tentpole oracle: the sharded router on N cores emits exactly the
/// same multiset of output frames per port as the single-core router on
/// the same input trace — RSS sharding and the coherent SharedQueue may
/// reorder packets, never alter or drop them.
#[test]
fn sharded_router_matches_single_core_output_multiset() {
    let work = packets::workload(&packets::WorkloadOptions {
        count: 120,
        pct_non_ip: 10,
        pct_ttl_expired: 10,
        pct_no_route: 10,
        ..Default::default()
    });
    let single = clack::build_clack_router(&clack::ip_router(), false).unwrap();
    let mut hs = clack::RouterHarness::new(&single).unwrap();
    for (dev, pkt) in &work {
        hs.inject(*dev, pkt.clone());
    }
    hs.run_until_idle();
    let mut oracle: Vec<Vec<Vec<u8>>> = (0..2).map(|p| hs.collect(p)).collect();
    oracle.iter_mut().for_each(|v| v.sort());

    for ncores in [1usize, 2, 4] {
        let report = clack::build_mc_router(ncores, false).unwrap();
        let mut h = clack::MultiRouterHarness::new(&report, ncores).unwrap();
        for (_, pkt) in &work {
            h.inject(pkt.clone());
        }
        h.run_until_idle();
        for (port, want) in oracle.iter().enumerate() {
            let mut got = h.collect(port);
            got.sort();
            assert_eq!(
                &got, want,
                "{ncores}-core port {port} output multiset diverged from the single-core oracle"
            );
        }
        h.machine().check_invariants().unwrap();
    }
}
