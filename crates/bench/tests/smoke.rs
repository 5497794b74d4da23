//! Smoke tests for the experiment binaries' underlying harnesses, on tiny
//! packet workloads so they run inside `cargo test` in seconds. The full
//! 512-packet runs (and the paper-ordering assertions) live in the crate's
//! unit tests and in the binaries themselves. Also here: the fast tier
//! against the Reference interpreter on every bootable image, and the
//! composition server against direct builds on the deep-lock kernel.

use bench::{
    analyze_time, build_time_breakdown, build_time_modes, deep_lock_kernel_inputs,
    deep_lock_kernel_texts, router_workload_sized, table1_with, table2_with,
};
use knit::proto::{self, Request, Response, SessionOptions};
use knit::server::{Conn, Engine, Server};
use knit::{build, BuildOptions, BuildSession, Program, SourceTree};
use machine::{CostModel, ExecMode, ICacheParams, Machine, PerfCounters};

#[test]
fn table1_smoke() {
    let rows = table1_with(&router_workload_sized(32));
    assert_eq!(rows.len(), 4, "four Clack configurations");
    for r in &rows {
        assert!(r.cycles > 0, "row {:?} measured nothing", (r.hand_optimized, r.flattened));
        assert!(r.text_size > 0);
    }
}

#[test]
fn table2_smoke() {
    let t = table2_with(&router_workload_sized(32));
    assert!(t.click_unoptimized > 0);
    assert!(t.click_optimized > 0);
    assert!(t.clack_base > 0);
}

#[test]
fn build_time_modes_smoke() {
    // build_time_modes itself asserts byte-identical images across modes,
    // a zero-recompile warm rebuild, and the one-edit-one-recompile law
    let rows = build_time_modes();
    assert_eq!(rows.len(), 5);
    let (serial, parallel, warm) = (&rows[0], &rows[1], &rows[2]);
    let (incremental, incr_edit) = (&rows[3], &rows[4]);
    assert_eq!(serial.mode, "serial");
    assert_eq!(serial.jobs, 1);
    assert_eq!(serial.cache_hits, 0);
    assert_eq!(parallel.mode, "parallel");
    assert!(parallel.jobs >= 2, "parallel row must exercise the threaded path");
    assert_eq!(parallel.units_compiled, serial.units_compiled);
    assert_eq!(warm.mode, "warm cache");
    assert_eq!(warm.units_compiled, 0, "warm rebuild recompiles nothing");
    assert_eq!(warm.cache_hits, serial.units_compiled);
    assert_eq!(incremental.mode, "incremental");
    assert_eq!(incremental.units_compiled, 0, "no-op rebuild recompiles nothing");
    assert_eq!(incremental.units_reused, warm.units_compiled + warm.units_reused);
    assert!(
        incremental.total_ms < warm.total_ms,
        "incremental no-op ({:.3} ms) must beat the warm rebuild ({:.3} ms)",
        incremental.total_ms,
        warm.total_ms
    );
    assert_eq!(incr_edit.mode, "incr edit");
    assert_eq!(incr_edit.units_compiled, 1, "one edit, one recompile");
    assert!(incr_edit.units_reused > 0, "every other unit is reused");
    for r in &rows {
        assert!(r.compile_ms >= 0.0 && r.total_ms >= r.compile_ms);
    }
}

#[test]
fn analyze_time_smoke() {
    // analyze_time itself asserts the one-edit-one-resummary precision law
    let row = analyze_time();
    assert!(row.units >= 90, "around a hundred units: {}", row.units);
    assert_eq!(row.reanalyzed, 1);
    assert!(
        row.incremental_ms < row.cold_ms,
        "re-analyzing one of {} units ({:.3} ms) must beat the cold pass ({:.3} ms)",
        row.units,
        row.incremental_ms,
        row.cold_ms
    );
}

#[test]
fn build_time_breakdown_smoke() {
    let phases = build_time_breakdown();
    let total: f64 = phases.iter().map(|(_, pct)| pct).sum();
    assert!((total - 100.0).abs() < 1e-6, "percentages sum to 100, got {total}");
    for name in ["elaborate", "compile", "link"] {
        assert!(phases.iter().any(|(n, _)| n == name), "phase {name} missing");
    }
}

/// Boot `image` on `mode` under `costs`: exit code, final counters,
/// console and serial output.
fn boot(
    image: &cobj::Image,
    mode: ExecMode,
    costs: &CostModel,
) -> (i64, PerfCounters, String, String) {
    let mut m = Machine::with_costs(image.clone(), costs.clone()).expect("machine");
    m.set_exec_mode(mode);
    let code = m.run_entry().expect("image boots");
    (code, m.counters(), m.console.output.clone(), m.serial.output.clone())
}

/// The on-disk `demo/` web server (the paper's Figure 5 configuration).
fn demo_image() -> cobj::Image {
    let demo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../demo");
    let unit = std::fs::read_to_string(demo.join("webserver.unit")).expect("demo unit file");
    let mut p = Program::new();
    p.load_str("webserver.unit", &unit).expect("demo units parse");
    let mut t = SourceTree::new();
    for entry in std::fs::read_dir(&demo).expect("demo directory") {
        let path = entry.expect("demo entry").path();
        if path.extension().and_then(|e| e.to_str()) == Some("c") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            t.add(&name, std::fs::read_to_string(&path).expect("demo source reads"));
        }
    }
    let opts = BuildOptions::new("WebServer", machine::runtime_symbols());
    build(&p, &t, &opts).expect("demo builds").image
}

/// The fast tier is the Reference interpreter, only faster: booting the
/// deep-lock kernel, the demo web server and every oskit kernel with a
/// `main` gives the same exit code, counters and device output on both.
/// Each boot runs under the default costs, without I-cache modelling (the
/// fast loop's fetch-free variant), and with a 128-byte I-cache whose
/// constant evictions make every line an instruction straddles show in
/// the miss count. (The Clack router half is `tests/simperf.rs`.)
#[test]
fn kernel_boots_are_identical_across_exec_modes() {
    let (p, t, opts) = deep_lock_kernel_inputs();
    let mut images = vec![
        ("deep-lock kernel".to_string(), build(&p, &t, &opts).expect("builds").image, Some(3)),
        ("demo web server".to_string(), demo_image(), Some(0)),
    ];
    for k in oskit::GOOD_KERNELS {
        let report = oskit::build_kernel(k).unwrap_or_else(|e| panic!("{k}: {e}"));
        if report.exports.keys().any(|e| e.ends_with(".main")) {
            images.push((k.to_string(), report.image, None));
        }
    }
    let tiny = ICacheParams { size: 128, ..ICacheParams::default() };
    let costs = [
        ("default costs", CostModel::default()),
        ("no I-cache", CostModel::no_icache()),
        ("128-byte I-cache", CostModel { icache: tiny, ..CostModel::default() }),
    ];
    for (name, image, want) in &images {
        for (model, costs) in &costs {
            let reference = boot(image, ExecMode::Reference, costs);
            if let Some(want) = want {
                assert_eq!(reference.0, *want, "{name}: exit code");
            }
            assert!(reference.1.instructions > 0, "{name} ran no instructions");
            let fast = boot(image, ExecMode::Fast, costs);
            assert_eq!(fast, reference, "{name}, {model}: fast diverges from reference");
        }
    }
}

/// `call` with both transport and protocol errors unwrapped.
fn call(conn: &mut Conn, req: &Request) -> Response {
    match conn.call(req).expect("server connection") {
        Response::Error { diagnostics } => panic!("server error: {}", diagnostics[0].human()),
        resp => resp,
    }
}

/// Two clients ship the deep-lock kernel into their own sessions on one
/// server. Each wire image is byte-identical to a direct `BuildSession`
/// build, and the second client's cold build compiles nothing: every unit
/// dedupes against the first client's through the shared cache.
#[test]
fn served_kernel_images_match_direct_builds_and_dedupe_across_clients() {
    let (units, tree, mut opts) = deep_lock_kernel_texts();
    opts.jobs = 1;
    let mut direct = BuildSession::new(opts);
    for (file, text) in &units {
        direct.load_units(file, text).expect("units parse");
    }
    for (path, text) in tree.iter() {
        direct.update_source(path, text);
    }
    let direct = proto::encode_image(&direct.build().expect("direct build").image);

    let server = Server::bind(Engine::new(), "auto").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();
    let mut outcomes = Vec::new();
    for client in 0..2 {
        let session = format!("client{client}");
        let mut conn = Conn::connect(&addr).expect("connects");
        let mut options = SessionOptions::new("DeepLockKernel");
        options.jobs = Some(1);
        call(&mut conn, &Request::Open { session: session.clone(), options });
        for (file, text) in &units {
            let (file, text) = (file.clone(), text.clone());
            call(&mut conn, &Request::LoadUnits { session: session.clone(), file, text });
        }
        for (path, text) in tree.iter() {
            let (path, text) = (path.to_string(), text.to_string());
            call(&mut conn, &Request::UpdateSource { session: session.clone(), path, text });
        }
        match call(&mut conn, &Request::Build { session, want_image: true }) {
            Response::Built { outcome, image } => {
                assert!(image.as_deref() == Some(direct.as_str()), "client {client}: wire image");
                outcomes.push(outcome);
            }
            other => panic!("unexpected build response {other:?}"),
        }
    }
    assert!(outcomes[0].units_compiled >= 98, "the first build compiles the whole kernel");
    assert_eq!(outcomes[1].cache_misses, 0, "the second client compiles nothing");
    assert_eq!(outcomes[1].cache_hits, outcomes[0].cache_misses);

    let mut conn = Conn::connect(&addr).expect("connects");
    call(&mut conn, &Request::Shutdown);
    handle.join().expect("clean shutdown");
}
