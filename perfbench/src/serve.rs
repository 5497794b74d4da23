//! `serve-edit`: a `Server` on a Unix socket with a closed loop of two
//! editor clients, one session each, `jobs = 1`, no think time, driving
//! the 98-unit deep-lock kernel. Each operation is `UpdateSource` of the
//! client's own filter file, then `Build`.
//!
//! This is the only workload that runs `core::proto` and `core::server`,
//! with two sessions sharing one `BuildCache`. Its link is small, so
//! server overhead and contention dominate.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use knit::proto::{self, BuildOutcome, LintOptions, Request, Response, SessionOptions};
use knit::server::{Conn, Engine, Server, ServerHandle};
use knit::{BuildOptions, SessionHandle, SourceTree};

use crate::trace::Tracer;
use crate::{median, millis, overhead, percentile, secs, Config, Metrics, Outcome};
use crate::{ColdSamples, PhaseSums, Rng, Rounds, StatDeltas};

/// Concurrent editor clients.
const CLIENTS: usize = 2;
/// Rounds per run. Each round sets up a fresh server (one `setup_s`,
/// `cold_build_s` and `lint_s` sample) and runs its share of the closed
/// loop, so every metric samples the whole run, not only its start.
const ROUNDS: usize = 20;

/// Kernel inputs as a client ships them.
struct Kernel {
    units: Vec<(String, String)>,
    tree: SourceTree,
    opts: BuildOptions,
}

impl Kernel {
    /// The requests that open `session` and load the kernel into it:
    /// `Open`, then `LoadUnits` per unit file (the parse), then
    /// `UpdateSource` per C file.
    fn seeding(&self, session: &str) -> (Request, Vec<Request>, Vec<Request>) {
        let mut options = SessionOptions::new("DeepLockKernel");
        options.jobs = Some(1);
        let open = Request::Open { session: session.into(), options };
        let units = self.units.iter().map(|(file, text)| Request::LoadUnits {
            session: session.into(),
            file: file.clone(),
            text: text.clone(),
        });
        let sources = self.tree.iter().map(|(path, text)| Request::UpdateSource {
            session: session.into(),
            path: path.to_string(),
            text: text.to_string(),
        });
        (open, units.collect(), sources.collect())
    }
}

fn session_name(client: usize) -> String {
    format!("client{client}")
}

fn filter_path(client: usize) -> String {
    format!("filter{client}.c")
}

/// The client's filter source with a seeded constant: every value gives
/// different object code, and clients never share a value, so no edit is
/// served from the other client's cache entries.
fn filter_text(client: usize, value: u64) -> String {
    format!(
        "int inner_acquire();\nint inner_release();\nstatic int uses;\n\
         int lock_acquire() {{ uses += {}; return inner_acquire(); }}\n\
         int lock_release() {{ return inner_release(); }}\n",
        value * CLIENTS as u64 + client as u64 + 2
    )
}

/// Send `req`; a transport error or an `Error` response is `None`.
fn call(conn: &mut Conn, req: &Request) -> Option<Response> {
    match conn.call(req) {
        Ok(Response::Error { diagnostics }) => {
            eprintln!("serve-edit: {}", diagnostics.first().map(|d| d.human()).unwrap_or_default());
            None
        }
        Ok(resp) => Some(resp),
        Err(e) => {
            eprintln!("serve-edit: {e}");
            None
        }
    }
}

fn outcome(resp: Option<Response>) -> Option<BuildOutcome> {
    match resp {
        Some(Response::Built { outcome, .. }) => Some(outcome),
        _ => None,
    }
}

fn phases_of(o: &BuildOutcome) -> impl Iterator<Item = (&str, Duration)> {
    o.phases.iter().map(|(n, us)| (n.as_str(), Duration::from_micros(*us)))
}

/// Counts of requests attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check<T>(&mut self, r: Option<T>) -> Option<T> {
        self.attempted += 1;
        if r.is_none() {
            self.failed += 1;
        }
        r
    }
}

/// A Unix socket inside the working directory. (Loopback TCP would add
/// Nagle and delayed-ACK stalls to every request, since `Conn` writes a
/// request and its newline separately.)
fn socket_spec(round: usize) -> Option<String> {
    std::fs::create_dir_all(crate::OUT_DIR).ok()?;
    Some(format!("unix:{}/serve-{}-{round}.sock", crate::OUT_DIR, std::process::id()))
}

/// A running server with every client's session seeded and cold-built.
struct Live {
    handle: ServerHandle,
    conns: Vec<Conn>,
    /// Client 0's `LoadUnits` round trips (the parse).
    parse: Duration,
    /// Client 0's first `Build` round trip.
    build: Duration,
    cold: BuildOutcome,
}

fn set_up(kernel: &Kernel, round: usize, tracer: &mut Tracer, tally: &mut Tally) -> Option<Live> {
    let server = Server::bind(Engine::new(), &socket_spec(round)?).ok()?;
    let addr = server.addr().to_string();
    let handle = server.spawn();
    let mut conns = Vec::new();
    let mut cold = None;
    for c in 0..CLIENTS {
        let session = session_name(c);
        let mut conn = Conn::connect(&addr).ok()?;
        let (open, units, sources) = kernel.seeding(&session);
        tally.check(call(&mut conn, &open))?;
        let t0 = Instant::now();
        for req in &units {
            tally.check(tracer.span("server", "load_units", || call(&mut conn, req)))?;
        }
        let parsed = Instant::now();
        for req in &sources {
            tally.check(tracer.span("server", "update_source", || call(&mut conn, req)))?;
        }
        let t1 = Instant::now();
        let req = Request::Build { session, want_image: false };
        let (resp, id) = tracer.span_id("server", "build", || call(&mut conn, &req));
        let end = Instant::now();
        let o = tally.check(outcome(resp))?;
        tracer.phases(id, phases_of(&o));
        if c == 0 {
            tracer.window(t0, parsed);
            tracer.window(t1, end);
            cold = Some((parsed - t0, end - t1, o));
        }
        conns.push(conn);
    }
    let (parse, build, cold) = cold?;
    Some(Live { handle, conns, parse, build, cold })
}

fn shut_down(mut live: Live) {
    let _ = live.conns[0].call(&Request::Shutdown);
    drop(live.conns);
    if let Err(e) = live.handle.join() {
        eprintln!("serve-edit: server exit: {e}");
    }
}

/// How a closed loop runs.
#[derive(Clone, Copy)]
struct LoopPlan {
    seed: u64,
    /// Edit values start above `base`, so a later loop on the same server
    /// never repeats an earlier loop's text (which the cache would serve
    /// without compiling).
    base: u64,
    /// Alternate tracing per operation (the traced run's overhead check).
    alternate: bool,
    seconds: Duration,
}

/// What one client's closed loop measured.
struct ClientRun {
    conn: Conn,
    tracer: Tracer,
    /// Operation times with tracing on and off.
    on: Vec<Duration>,
    off: Vec<Duration>,
    phases: PhaseSums,
    compiled: usize,
    tally: Tally,
    /// The last source sent and the image hash built from it.
    last: Option<(String, u64)>,
    end: Instant,
}

fn client_loop(
    client: usize,
    mut conn: Conn,
    mut tracer: Tracer,
    plan: LoopPlan,
    barrier: &Barrier,
) -> ClientRun {
    let session = session_name(client);
    let mut rng = Rng::new(plan.seed, 0x5E7E + client as u64);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut phases, mut compiled, mut tally) = (PhaseSums::default(), 0, Tally::default());
    let mut last = None;
    let mut value = plan.base + rng.next_u64() % 1000;
    barrier.wait();
    let mut end = Instant::now();
    let deadline = end + plan.seconds;
    while Instant::now() < deadline {
        value += 1 + rng.next_u64() % 7;
        let text = filter_text(client, value);
        if plan.alternate {
            tracer.set_enabled(on.len() <= off.len());
        }
        let t0 = Instant::now();
        let edit = Request::UpdateSource {
            session: session.clone(),
            path: filter_path(client),
            text: text.clone(),
        };
        let edited = tracer.span("server", "update_source", || call(&mut conn, &edit));
        if tally.check(edited).is_none() {
            continue;
        }
        let build = Request::Build { session: session.clone(), want_image: false };
        let (resp, id) = tracer.span_id("server", "build", || call(&mut conn, &build));
        end = Instant::now();
        tracer.window(t0, end);
        let Some(o) = tally.check(outcome(resp)) else { continue };
        tracer.phases(id, phases_of(&o));
        phases.add(phases_of(&o), end - t0);
        if o.units_compiled != 1 {
            eprintln!("serve-edit: a one-file edit compiled {} units", o.units_compiled);
            tally.failed += 1;
        }
        compiled += o.units_compiled;
        if tracer.enabled() { &mut on } else { &mut off }.push(end - t0);
        last = Some((text, o.image_hash));
    }
    ClientRun { conn, tracer, on, off, phases, compiled, tally, last, end }
}

/// Run one client loop per connection concurrently; returns each client's
/// results, in client order, and the loop's wall time.
fn closed_loop(
    conns: Vec<Conn>,
    tracers: Vec<Tracer>,
    plan: LoopPlan,
) -> (Vec<ClientRun>, Duration) {
    let barrier = Barrier::new(conns.len() + 1);
    std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .into_iter()
            .zip(tracers)
            .enumerate()
            .map(|(c, (conn, tracer))| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(c, conn, tracer, plan, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun> =
            threads.into_iter().map(|t| t.join().expect("client thread")).collect();
        let end = runs.iter().map(|r| r.end).max().unwrap_or(start);
        let wall = end.saturating_duration_since(start);
        (runs, wall)
    })
}

/// `Engine::handle` of the same `UpdateSource` + `Build` sequence with no
/// socket, plus the `to_json`/`from_json` cost of those messages.
/// Returns per-operation medians: (engine ms, encode us, decode us).
fn engine_only(kernel: &Kernel, seed: u64, seconds: Duration) -> Option<(f64, f64, f64)> {
    let engine = Engine::new();
    let session = session_name(0);
    let (open, units, sources) = kernel.seeding(&session);
    let build = Request::Build { session: session.clone(), want_image: false };
    for req in std::iter::once(&open).chain(&units).chain(&sources).chain([&build]) {
        if let Response::Error { .. } = engine.handle(req) {
            return None;
        }
    }
    let mut rng = Rng::new(seed, 0xE9);
    let mut value = rng.next_u64() % 1000;
    let (mut handle, mut encode, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + seconds;
    while Instant::now() < deadline {
        value += 1 + rng.next_u64() % 7;
        let edit = Request::UpdateSource {
            session: session.clone(),
            path: filter_path(0),
            text: filter_text(0, value),
        };
        let t0 = Instant::now();
        let edited = engine.handle(&edit);
        let built = engine.handle(&build);
        handle.push(t0.elapsed());
        if !matches!(built, Response::Built { .. }) {
            return None;
        }
        let (mut enc, mut dec) = (Duration::ZERO, Duration::ZERO);
        for req in [&edit, &build] {
            let t = Instant::now();
            let text = std::hint::black_box(req.to_json());
            enc += t.elapsed();
            let t = Instant::now();
            std::hint::black_box(Request::from_json(&text).ok()?);
            dec += t.elapsed();
        }
        for resp in [&edited, &built] {
            let t = Instant::now();
            let text = std::hint::black_box(resp.to_json());
            enc += t.elapsed();
            let t = Instant::now();
            std::hint::black_box(Response::from_json(&text).ok()?);
            dec += t.elapsed();
        }
        encode.push(enc);
        decode.push(dec);
    }
    let us = |ds: &[Duration]| median(&millis(ds)) * 1e3;
    Some((median(&millis(&handle)), us(&encode), us(&decode)))
}

/// The image hash of a direct in-process build of `client`'s inputs.
fn direct_hash(kernel: &Kernel, client: usize, text: &str) -> Option<u64> {
    let mut opts = kernel.opts.clone();
    opts.jobs = 1;
    let direct = SessionHandle::new(opts);
    for (file, units) in &kernel.units {
        direct.load_units(file, units).ok()?;
    }
    for (path, src) in kernel.tree.iter() {
        direct.update_source(path, src);
    }
    direct.update_source(&filter_path(client), text);
    direct.build().ok().map(|r| proto::image_hash(&r.image))
}

pub fn run(cfg: &Config) -> Outcome {
    let (units, tree, opts) = bench::deep_lock_kernel_texts();
    let kernel = Kernel { units, tree, opts };
    let epoch = Instant::now();
    // tracers[0] records set-up; tracers[1..] one per client thread.
    let mut tracers: Vec<Tracer> = (0..=CLIENTS).map(|_| Tracer::new(epoch, cfg.trace)).collect();
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    let mut setup_t = Vec::new();
    let mut cold = ColdSamples::default();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let mut rounds = Rounds::default();
    let mut phases = PhaseSums::default();
    let mut compiled = 0;
    let mut deltas = StatDeltas::default();
    let stats = |live: &Live| -> Vec<knit::SessionStats> {
        (0..CLIENTS)
            .filter_map(|c| live.handle.engine().session(&session_name(c)).map(|s| s.stats()))
            .collect()
    };
    for round in 0..ROUNDS {
        // Set-up: a fresh server, every client seeded and cold-built.
        let t0 = Instant::now();
        let Some(mut live) = set_up(&kernel, round, &mut tracers[0], &mut tally) else {
            tally.failed += 1;
            break;
        };
        setup_t.push(t0.elapsed());
        cold.build.push(live.parse + live.build);
        cold.parse.push(live.parse);
        cold.phases.add(phases_of(&live.cold), live.build);
        m.set("cold.instances", live.cold.instances as f64);
        m.set("cold.units_compiled", live.cold.units_compiled as f64);
        m.set("cold.objects", live.cold.objects as f64);
        let t1 = Instant::now();
        let lint = Request::Lint { session: session_name(0), config: LintOptions::default() };
        let linted = tracers[0].span("server", "lint", || call(&mut live.conns[0], &lint));
        let end = Instant::now();
        tracers[0].window(t1, end);
        if matches!(tally.check(linted), Some(Response::Linted { .. })) {
            cold.lint.push(end - t1);
        }

        // This round's share of the closed loop.
        let before = stats(&live);
        let plan = LoopPlan {
            seed: cfg.seed,
            base: 0,
            alternate: cfg.trace,
            seconds: cfg.seconds / ROUNDS as u32,
        };
        let (runs, wall) = closed_loop(std::mem::take(&mut live.conns), tracers.split_off(1), plan);
        for (after, before) in stats(&live).iter().zip(&before) {
            deltas.add(after, before);
        }
        let mut round_ops = Vec::new();
        let mut finals = Vec::new();
        for r in runs {
            round_ops.extend(r.on.iter().chain(&r.off));
            on.extend(r.on);
            off.extend(r.off);
            phases.merge(&r.phases);
            compiled += r.compiled;
            tally.attempted += r.tally.attempted;
            tally.failed += r.tally.failed;
            finals.push(r.last);
            live.conns.push(r.conn);
            tracers.push(r.tracer);
        }
        let contention_base = median(&millis(&round_ops));
        let done = round_ops.len() as f64;
        rounds.add(round_ops, done, wall);

        if cfg.trace && round + 1 == ROUNDS {
            // Client 0 alone, then the engine with no socket: this round's
            // p50 splits into engine, transport and contention.
            let half = cfg.seconds / 2;
            let rest = live.conns.split_off(1);
            let quiet = vec![Tracer::new(epoch, false)];
            let solo_plan = LoopPlan { base: 1 << 40, alternate: false, seconds: half, ..plan };
            let (mut solo, _) = closed_loop(std::mem::take(&mut live.conns), quiet, solo_plan);
            let solo = solo.pop().expect("one client");
            tally.attempted += solo.tally.attempted;
            tally.failed += solo.tally.failed;
            finals[0] = solo.last;
            live.conns.push(solo.conn);
            live.conns.extend(rest);
            let solo_p50 = median(&millis(&solo.off));
            m.set("serve.contention_ms", contention_base - solo_p50);
            match engine_only(&kernel, cfg.seed, half) {
                Some((engine, encode, decode)) => {
                    m.set("serve.core.engine_ms", engine);
                    m.set("serve.transport_ms", solo_p50 - engine);
                    m.set("serve.proto.encode_us", encode);
                    m.set("serve.proto.decode_us", decode);
                }
                None => tally.failed += 1,
            }
        }
        shut_down(live);

        // Oracle: each client's last wire image hash equals a direct
        // in-process build of the same inputs.
        for (c, last) in finals.into_iter().enumerate() {
            tally.attempted += 1;
            let ok = last.is_some_and(|(text, hash)| direct_hash(&kernel, c, &text) == Some(hash));
            if !ok {
                eprintln!("serve-edit: client {c}'s wire image differs from a direct build");
                tally.failed += 1;
            }
        }
    }
    m.set("setup_s", median(&secs(&setup_t)));
    cold.set(&mut m);

    let ops = on.len() + off.len();
    let all: Vec<Duration> = on.iter().chain(&off).copied().collect();
    m.set("op_p50_ms", rounds.best_median_ms());
    m.set("ops_per_s", rounds.best_rate());
    m.set("op.p99_ms", percentile(&millis(&all), 0.99));
    m.set("op.samples", ops as f64);
    m.set("trace.overhead_share", overhead(&on, &off));
    m.set_phases("edit", &phases, ops);
    m.set("edit.units_compiled", compiled as f64 / ops.max(1) as f64);
    deltas.set(&mut m, ops);
    if ops == 0 {
        tally.failed += 1;
    }
    Outcome { attempted: tally.attempted.max(1), failed: tally.failed, metrics: m, tracers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_never_share_a_filter_text() {
        for v in 0..50 {
            for w in 0..50 {
                assert_ne!(filter_text(0, v), filter_text(1, w));
            }
        }
    }
}
