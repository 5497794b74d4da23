//! `router-sim`: the modular Clack router image on `ExecMode::Fast` with
//! exact I-cache accounting, forwarding a seeded packet stream.
//!
//! Composition runs only in set-up, so the timed loop isolates the
//! machine's interpreter and fetch accounting. Its simulated counters are
//! exact, so they also catch any change to generated code or layout.

use std::time::{Duration, Instant};

use clack::packets::{self, WorkItem, WorkloadOptions};
use clack::{ip_router, router_build_inputs};
use cobj::Image;
use machine::{CostModel, ExecMode, Machine, PerfCounters};

use crate::trace::Tracer;
use crate::{cold_session, ColdSamples, Rng, Rounds};
use crate::{median, millis, overhead, percentile, secs, timed, Config, Metrics, Outcome};

/// Rounds per run. Each round sets up (parse, cold build and lint,
/// `Machine::new`, packet generation: one sample of each set-up metric) and
/// runs its share of the timed loop, so every metric samples the whole
/// run, not only its start.
const ROUNDS: usize = 40;
/// Packets per pass. Every pass runs the same stream on a fresh machine,
/// so every pass must end with the same counters.
const PACKETS: usize = 4096;
/// Packets per timed batch (one operation sample).
const BATCH: usize = 64;

/// One pass of the packet stream through a fresh machine.
struct Pass {
    /// Forwarding time of each batch.
    batches: Vec<Duration>,
    /// Counters after init to the end of the stream.
    counters: PerfCounters,
    /// Transmitted frames per output device.
    frames: Vec<Vec<Vec<u8>>>,
}

fn pass(
    image: &Image,
    entry: &str,
    costs: CostModel,
    mode: ExecMode,
    work: &[WorkItem],
    tracer: &mut Tracer,
) -> Option<Pass> {
    let mut m = tracer.span("machine", "new", || Machine::with_costs(image.clone(), costs)).ok()?;
    m.set_exec_mode(mode);
    tracer.span("machine", "init", || m.call("__knit_init", &[])).ok()?;
    let entry = m.image().func_by_name(entry)?;
    let start = m.counters();
    let mut batches = Vec::with_capacity(work.len() / BATCH + 1);
    for batch in work.chunks(BATCH) {
        let t0 = Instant::now();
        let ok = tracer.span("machine", "forward", || {
            for (dev, pkt) in batch {
                m.netdevs[*dev].inject(pkt.clone());
                loop {
                    match m.call_idx(entry, &[]) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) => {
                            eprintln!("router-sim: fault: {e}");
                            return false;
                        }
                    }
                }
            }
            true
        });
        let end = Instant::now();
        tracer.window(t0, end);
        if !ok {
            return None;
        }
        batches.push(end - t0);
    }
    let counters = m.counters().delta_since(&start);
    let frames = (0..m.netdevs.len())
        .map(|d| std::iter::from_fn(|| m.netdevs[d].collect()).collect())
        .collect();
    Some(Pass { batches, counters, frames })
}

pub fn run(cfg: &Config) -> Outcome {
    let packets = if cfg.smoke { 256 } else { PACKETS };
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, cfg.trace);
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let fail = |m: Metrics, tracer: Tracer, attempted: u64| Outcome {
        attempted: attempted.max(1),
        failed: 1,
        metrics: m,
        tracers: vec![tracer],
    };

    let (mut setup_t, mut predecode_t) = (Vec::new(), Vec::new());
    let mut cold = ColdSamples::default();
    let mut first: Option<Pass> = None;
    let mut built: Option<(Image, Vec<WorkItem>, String)> = None;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut rounds = Rounds::default();
    for _ in 0..ROUNDS {
        // Set-up: parse + cold build (with its lint), Machine::new, packets.
        attempted += 1;
        let parse = || {
            let (program, tree, mut opts) = router_build_inputs(&ip_router(), false)?;
            opts.jobs = 1;
            Ok((program, tree, opts))
        };
        let Some((_, report)) = cold_session(&mut tracer, &mut cold, &mut m, parse) else {
            return fail(m, tracer, attempted);
        };
        let cold_build = *cold.build.last().expect("just pushed");

        let (machine, predecode) =
            timed(|| tracer.span("machine", "new", || Machine::new(report.image.clone())));
        if machine.is_err() {
            return fail(m, tracer, attempted);
        }
        drop(machine);
        predecode_t.push(predecode);
        let mut rng = Rng::new(cfg.seed, 0x9ACE);
        let (work, gen) = timed(|| {
            packets::workload(&WorkloadOptions {
                count: packets,
                seed: rng.next_u64(),
                ..Default::default()
            })
        });
        setup_t.push(cold_build + predecode + gen);
        let Some(entry) = report
            .exports
            .iter()
            .find(|(k, _)| k.ends_with(".router_step"))
            .map(|(_, v)| v.clone())
        else {
            return fail(m, tracer, attempted);
        };
        let (image, work, entry) = built.insert((report.image, work, entry));

        // This round's share of the timed loop: whole passes.
        let mut round_ops = Vec::new();
        let (mut forwarded, mut sent) = (Duration::ZERO, 0usize);
        let start = Instant::now();
        while start.elapsed() < cfg.seconds / ROUNDS as u32 {
            if cfg.trace {
                tracer.set_enabled(on.len() <= off.len());
            }
            attempted += packets as u64;
            let Some(p) =
                pass(image, entry, CostModel::default(), ExecMode::Fast, work, &mut tracer)
            else {
                failed += packets as u64;
                continue;
            };
            forwarded += p.batches.iter().sum::<Duration>();
            sent += packets;
            if tracer.enabled() { &mut on } else { &mut off }.extend(&p.batches);
            round_ops.extend(p.batches.iter().map(|b| *b / BATCH as u32));
            match &first {
                None => first = Some(p),
                Some(f) if f.counters == p.counters && f.frames == p.frames => {}
                Some(_) => {
                    eprintln!("router-sim: a pass's counters or frames differ from the first pass");
                    failed += 1;
                }
            }
        }
        tracer.set_enabled(cfg.trace);
        rounds.add(round_ops, sent as f64, forwarded);
    }
    m.set("setup_s", median(&secs(&setup_t)));
    cold.set(&mut m);
    m.set("machine.predecode_ms", median(&millis(&predecode_t)));
    let Some((image, work, entry)) = built else { return fail(m, tracer, attempted) };
    let Some(first) = first else { return fail(m, tracer, attempted) };
    let per_pkt =
        |b: &[Duration]| millis(b).into_iter().map(|x| x / BATCH as f64).collect::<Vec<_>>();
    let all: Vec<Duration> = on.iter().chain(&off).copied().collect();
    m.set("op_p50_ms", rounds.best_median_ms());
    m.set("ops_per_s", rounds.best_rate());
    m.set("op.p99_ms", percentile(&per_pkt(&all), 0.99));
    m.set("op.samples", all.len() as f64);
    m.set("trace.overhead_share", overhead(&on, &off));
    let c = first.counters;
    let n = packets as f64;
    m.set("machine.mips", rounds.best_rate() * c.instructions as f64 / n / 1e6);
    m.set("machine.cycles_per_pkt", c.cycles as f64 / n);
    m.set("machine.instrs_per_pkt", c.instructions as f64 / n);
    m.set("machine.icache_misses_per_pkt", c.icache_misses as f64 / n);
    m.set("machine.ifetch_stall_cycles_per_pkt", c.ifetch_stall_cycles as f64 / n);
    m.set("machine.calls_per_pkt", c.calls as f64 / n);
    m.set("machine.indirect_calls_per_pkt", c.indirect_calls as f64 / n);

    if cfg.trace {
        // Passes with fetch stalls free, alternated with exact ones: the
        // host time exact I-cache accounting costs.
        let mut quiet = Tracer::new(epoch, false);
        let (mut exact, mut walls) = (Vec::new(), Vec::new());
        let t = Instant::now();
        while t.elapsed() < cfg.seconds / 2 {
            for (costs, out) in
                [(CostModel::default(), &mut exact), (CostModel::no_icache(), &mut walls)]
            {
                match pass(&image, &entry, costs, ExecMode::Fast, &work, &mut quiet) {
                    Some(p) if p.counters.instructions == c.instructions => {
                        out.push(p.batches.iter().sum::<Duration>())
                    }
                    _ => failed += 1,
                }
            }
        }
        let base = median(&secs(&exact));
        let free = median(&secs(&walls));
        m.set("machine.no_icache_mips", c.instructions as f64 / free.max(1e-12) / 1e6);
        m.set("machine.fetch_accounting_share", 1.0 - free / base.max(1e-12));
    }

    // Oracle: the Reference tier gives the same counters and frames.
    attempted += 1;
    let mut quiet = Tracer::new(epoch, false);
    match pass(&image, &entry, CostModel::default(), ExecMode::Reference, &work, &mut quiet) {
        Some(r) if r.counters == first.counters && r.frames == first.frames => {}
        _ => {
            eprintln!("router-sim: Fast differs from the Reference tier");
            failed += 1;
        }
    }
    Outcome { attempted, failed, metrics: m, tracers: vec![tracer] }
}
