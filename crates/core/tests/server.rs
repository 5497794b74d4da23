//! Concurrent-client integration tests for the composition server
//! (`knit::server`): many clients over a real local socket, byte-identity
//! against direct sessions, cross-session compile dedupe, gap-free watch
//! events, and a shutdown that drains in-flight work.

use std::io::{BufRead, BufReader, Write};

use knit::proto::{self, Request, Response, SessionOptions};
use knit::server::{Conn, Engine, Server, MAX_REQUEST_LINE};

/// A three-unit program whose `value.c` is parameterized per client —
/// `App` and `Top` have identical content in every variant, so their
/// compiles dedupe across sessions while `Value` stays distinct.
const UNITS: &str = r#"
bundletype Main = { main }
bundletype Val = { value }
unit Value = {
    exports [ v : Val ];
    files { "value.c" };
}
unit App = {
    imports [ v : Val ];
    exports [ m : Main ];
    depends { exports needs imports; };
    files { "app.c" };
}
unit Top = {
    exports [ m : Main ];
    link {
        val : Value;
        app : App [ v = val.v ];
        m = app.m;
    };
}
"#;

const APP_C: &str = "int value();\nint main() { return value(); }\n";

fn value_c(n: i32) -> String {
    format!("int value() {{ return {n}; }}\n")
}

fn options() -> SessionOptions {
    let mut o = SessionOptions::new("Top");
    o.jobs = Some(1);
    o
}

/// `call` + unwrap both transport and protocol errors.
fn ok(conn: &mut Conn, req: &Request) -> Response {
    match conn.call(req).expect("transport") {
        Response::Error { diagnostics } => {
            panic!("server error: {}", diagnostics[0].human())
        }
        resp => resp,
    }
}

/// Feed a session its full input set over `conn`.
fn seed_session(conn: &mut Conn, session: &str, value: i32) {
    let s = session.to_string();
    ok(conn, &Request::Open { session: s.clone(), options: options() });
    ok(conn, &Request::LoadUnits { session: s.clone(), file: "t.unit".into(), text: UNITS.into() });
    ok(
        conn,
        &Request::UpdateSource { session: s.clone(), path: "app.c".into(), text: APP_C.into() },
    );
    ok(conn, &Request::UpdateSource { session: s, path: "value.c".into(), text: value_c(value) });
}

fn build_image(conn: &mut Conn, session: &str) -> (proto::BuildOutcome, cobj::Image) {
    match ok(conn, &Request::Build { session: session.into(), want_image: true }) {
        Response::Built { outcome, image } => {
            let image = proto::decode_image(&image.expect("image requested")).expect("decodes");
            assert_eq!(proto::image_hash(&image), outcome.image_hash, "hash matches bytes");
            (outcome, image)
        }
        other => panic!("unexpected build response {other:?}"),
    }
}

/// What the server must match: the same inputs through a direct
/// (in-process, lock-guarded) session.
fn direct_image(value: i32) -> cobj::Image {
    let engine = Engine::new();
    let (handle, created) = engine.open_session("direct", &options()).expect("opens");
    assert!(created);
    handle.load_units("t.unit", UNITS).expect("units parse");
    handle.update_source("app.c", APP_C);
    handle.update_source("value.c", &value_c(value));
    handle.build().expect("builds").image
}

/// Four clients on four sessions, concurrently: every wire image is
/// byte-identical to a direct build of the same inputs, and a fifth
/// session with repeated content compiles nothing — the shared cache
/// dedupes across sessions.
#[test]
fn concurrent_clients_build_byte_identical_images() {
    let server = Server::bind(Engine::new(), "auto").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr).expect("connects");
                let session = format!("s{i}");
                let value = 10 + i;
                seed_session(&mut conn, &session, value);
                let (outcome, image) = build_image(&mut conn, &session);
                assert_eq!(outcome.units_compiled + outcome.units_reused, 2);
                (value, image)
            })
        })
        .collect();
    for t in threads {
        let (value, image) = t.join().expect("client thread");
        assert_eq!(image, direct_image(value), "server image differs for value {value}");
    }

    // Same content as s0, fresh session: every unit hits the shared cache.
    let mut conn = Conn::connect(&addr).expect("connects");
    seed_session(&mut conn, "repeat", 10);
    let (outcome, image) = build_image(&mut conn, "repeat");
    assert_eq!(outcome.cache_misses, 0, "all compiles deduped across sessions");
    assert!(outcome.cache_hits > 0);
    assert_eq!(image, direct_image(10));

    ok(&mut conn, &Request::Shutdown);
    handle.join().expect("clean shutdown");
}

/// Four clients hammer the *same* session (sessions are addressed by
/// name, not by connection). Every interleaving must serialize on the
/// session lock: all builds succeed, and once the dust settles a final
/// deterministic edit rebuilds to the byte-exact direct image.
#[test]
fn overlapping_edits_on_a_shared_session_stay_consistent() {
    let server = Server::bind(Engine::new(), "auto").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let mut conn = Conn::connect(&addr).expect("connects");
    seed_session(&mut conn, "shared", 0);

    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr).expect("connects");
                for round in 0..4 {
                    ok(
                        &mut conn,
                        &Request::UpdateSource {
                            session: "shared".into(),
                            path: "value.c".into(),
                            text: value_c(100 * i + round),
                        },
                    );
                    // Must always be a successful build of *some*
                    // client's edit — never a torn source tree.
                    let (outcome, _) = build_image(&mut conn, "shared");
                    assert_eq!(outcome.root, "Top");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    ok(
        &mut conn,
        &Request::UpdateSource {
            session: "shared".into(),
            path: "value.c".into(),
            text: value_c(77),
        },
    );
    let (_, image) = build_image(&mut conn, "shared");
    assert_eq!(image, direct_image(77));

    ok(&mut conn, &Request::Shutdown);
    handle.join().expect("clean shutdown");
}

/// A subscriber sees every build event exactly once, in order, with a
/// gap-free per-session sequence — no lost or reordered notifications.
#[test]
fn watch_events_stream_gap_free() {
    let server = Server::bind(Engine::new(), "auto").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let mut builder = Conn::connect(&addr).expect("connects");
    seed_session(&mut builder, "watched", 1);

    let mut subscriber = Conn::connect(&addr).expect("connects");
    match ok(&mut subscriber, &Request::Watch { session: "watched".into() }) {
        Response::Subscribed { session } => assert_eq!(session, "watched"),
        other => panic!("unexpected watch response {other:?}"),
    }

    let mut hashes = Vec::new();
    for n in 0..5 {
        ok(
            &mut builder,
            &Request::UpdateSource {
                session: "watched".into(),
                path: "value.c".into(),
                text: value_c(n),
            },
        );
        let (outcome, _) = build_image(&mut builder, "watched");
        hashes.push(outcome.image_hash);
    }

    for (i, hash) in hashes.iter().enumerate() {
        let event = subscriber.recv_event().expect("event arrives");
        assert_eq!(event.session, "watched");
        assert_eq!(event.seq, i as u64 + 1, "sequence must be gap-free");
        assert!(event.ok);
        assert_eq!(event.image_hash, *hash, "event {i} carries its build's hash");
    }
    // No sixth build, so no sixth event: under a read deadline the wait
    // fails instead of hanging.
    subscriber.set_read_timeout(Some(std::time::Duration::from_millis(100))).expect("sets");
    assert!(subscriber.recv_event().is_err(), "no event without a build");

    ok(&mut builder, &Request::Shutdown);
    handle.join().expect("clean shutdown");
}

/// A client may pipeline `shutdown` right behind real work on one
/// connection: the server answers everything already submitted — in
/// order, completely — before going down. (Deterministic because one
/// connection's requests are processed sequentially.)
#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::bind(Engine::new(), "tcp:0").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let tcp = addr.strip_prefix("tcp:").expect("tcp spec");
    let mut stream = std::net::TcpStream::connect(tcp).expect("connects");
    let mut burst = String::new();
    for req in [
        Request::Hello { version: proto::VERSION },
        Request::Open { session: "drain".into(), options: options() },
        Request::LoadUnits { session: "drain".into(), file: "t.unit".into(), text: UNITS.into() },
        Request::UpdateSource { session: "drain".into(), path: "app.c".into(), text: APP_C.into() },
        Request::UpdateSource { session: "drain".into(), path: "value.c".into(), text: value_c(5) },
        Request::Build { session: "drain".into(), want_image: false },
        Request::Shutdown,
    ] {
        burst.push_str(&req.to_json());
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).expect("writes");
    stream.flush().expect("flushes");

    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        Response::from_json(line.trim_end()).expect("parses")
    };
    assert_eq!(next(), Response::Hello { version: proto::VERSION });
    assert_eq!(next(), Response::Opened { created: true });
    assert_eq!(next(), Response::Ok);
    assert_eq!(next(), Response::Ok);
    assert_eq!(next(), Response::Ok);
    match next() {
        Response::Built { outcome, image } => {
            assert_eq!(outcome.units_compiled, 2);
            assert!(image.is_none());
        }
        other => panic!("expected the drained build, got {other:?}"),
    }
    assert_eq!(next(), Response::Bye);
    handle.join().expect("clean shutdown");
}

/// A hostile line — 200,000 nested `[` — costs the client one `K0017`,
/// not the server: the same connection keeps serving afterwards.
#[test]
fn hostile_nesting_is_k0017_and_the_connection_survives() {
    let server = Server::bind(Engine::new(), "tcp:0").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let tcp = addr.strip_prefix("tcp:").expect("tcp spec");
    let mut stream = std::net::TcpStream::connect(tcp).expect("connects");
    let hostile = "[".repeat(200_000);
    let burst = format!(
        "{}\n{hostile}\n{}\n{}\n",
        Request::Hello { version: proto::VERSION }.to_json(),
        Request::Ping.to_json(),
        Request::Shutdown.to_json()
    );
    stream.write_all(burst.as_bytes()).expect("writes");
    stream.flush().expect("flushes");

    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        Response::from_json(line.trim_end()).expect("parses")
    };
    assert_eq!(next(), Response::Hello { version: proto::VERSION });
    match next() {
        Response::Error { diagnostics } => assert_eq!(diagnostics[0].code, "K0017"),
        other => panic!("expected a K0017 rejection, got {other:?}"),
    }
    assert_eq!(next(), Response::Pong);
    assert_eq!(next(), Response::Bye);
    handle.join().expect("clean shutdown");
}

/// A request line that never ends is cut off at the cap: the client gets
/// one `K0017` and its connection is closed, so the server's memory stays
/// bounded — and the server keeps serving fresh connections.
#[test]
fn overlong_request_line_is_k0017_and_the_server_survives() {
    let server = Server::bind(Engine::new(), "tcp:0").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let tcp = addr.strip_prefix("tcp:").expect("tcp spec");
    let mut stream = std::net::TcpStream::connect(tcp).expect("connects");
    let hello = format!("{}\n", Request::Hello { version: proto::VERSION }.to_json());
    stream.write_all(hello.as_bytes()).expect("writes");
    // One byte past the cap, and no newline.
    let chunk = vec![b'x'; 1 << 16];
    let mut left = MAX_REQUEST_LINE + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        stream.write_all(&chunk[..n]).expect("writes");
        left -= n;
    }
    stream.flush().expect("flushes");

    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        line
    };
    let hello = next();
    assert_eq!(
        Response::from_json(hello.trim_end()),
        Ok(Response::Hello { version: proto::VERSION })
    );
    match Response::from_json(next().trim_end()).expect("parses") {
        Response::Error { diagnostics } => assert_eq!(diagnostics[0].code, "K0017"),
        other => panic!("expected a K0017 rejection, got {other:?}"),
    }
    assert_eq!(next(), "", "the connection is closed after the rejection");

    let mut conn = Conn::connect(&addr).expect("a fresh connection is served");
    assert_eq!(ok(&mut conn, &Request::Ping), Response::Pong);
    assert_eq!(ok(&mut conn, &Request::Shutdown), Response::Bye);
    handle.join().expect("clean shutdown");
}

/// `knitc lint --connect` semantics: the same racy example produces a
/// byte-identical diagnostic stream over a real socket and through a
/// direct in-process session, and the per-session analyze memo survives
/// the server round-trip — a repeat lint reuses every unit summary, and
/// a one-file edit re-summarizes exactly the unit that reads it.
#[test]
fn lint_over_the_wire_is_byte_identical_and_memoized() {
    let dir = "../../examples/lints";
    let unit = std::fs::read_to_string(format!("{dir}/races.unit")).expect("races.unit");
    let log = std::fs::read_to_string(format!("{dir}/race_log.c")).expect("race_log.c");
    let worker = std::fs::read_to_string(format!("{dir}/race_worker.c")).expect("race_worker.c");
    let mut options = SessionOptions::new("RaceDemo");
    options.jobs = Some(1);

    // the reference: a direct in-process session over the same inputs
    let direct = Engine::new();
    let (h, _) = direct.open_session("direct", &options).expect("opens");
    h.load_units("examples/lints/races.unit", &unit).expect("units parse");
    h.update_source("race_log.c", &log);
    h.update_source("race_worker.c", &worker);
    let local = h.analyze(&knit::LintConfig::new()).expect("analyzes");
    let render = |ds: &[knit::Diagnostic]| ds.iter().map(|d| d.json()).collect::<Vec<_>>();

    // Engine is Arc-shared: keep a clone so the server-side session's
    // stats stay observable after the wire requests.
    let engine = Engine::new();
    let server = Server::bind(engine.clone(), "auto").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();
    let mut conn = Conn::connect(&addr).expect("connects");
    let sid = || "race".to_string();
    ok(&mut conn, &Request::Open { session: sid(), options: options.clone() });
    ok(
        &mut conn,
        &Request::LoadUnits {
            session: sid(),
            file: "examples/lints/races.unit".into(),
            text: unit.clone(),
        },
    );
    ok(&mut conn, &Request::UpdateSource { session: sid(), path: "race_log.c".into(), text: log });
    ok(
        &mut conn,
        &Request::UpdateSource {
            session: sid(),
            path: "race_worker.c".into(),
            text: worker.clone(),
        },
    );
    let lint = |conn: &mut Conn| match ok(
        conn,
        &Request::Lint { session: sid(), config: proto::LintOptions::default() },
    ) {
        Response::Linted { units_analyzed, warnings, errors, diagnostics } => {
            assert_eq!((units_analyzed, warnings, errors), (2, 4, 0));
            diagnostics
        }
        other => panic!("unexpected lint response {other:?}"),
    };

    let wire = lint(&mut conn);
    assert_eq!(render(&wire), render(&local.diagnostics), "wire lint differs from local");
    assert_eq!(render(&lint(&mut conn)), render(&wire), "repeat lint must be stable");

    let (h, created) = engine.open_session("race", &options).expect("reopens");
    assert!(!created, "must observe the server's session, not a fresh one");
    let stats = h.stats();
    assert_eq!(
        (stats.analyze.runs, stats.analyze.reuses),
        (2, 2),
        "first lint summarizes both units, the repeat reuses both"
    );

    ok(
        &mut conn,
        &Request::UpdateSource {
            session: sid(),
            path: "race_worker.c".into(),
            text: format!("{worker}\n"),
        },
    );
    lint(&mut conn);
    let stats = h.stats();
    assert_eq!(
        (stats.analyze.runs, stats.analyze.reuses),
        (3, 3),
        "a worker edit re-summarizes exactly RaceWorker"
    );

    ok(&mut conn, &Request::Shutdown);
    handle.join().expect("clean shutdown");
}

/// Open file descriptors of this process.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

/// A closed connection gives its descriptors back: after 200 sequential
/// connect–ping–drop cycles the server holds no more descriptors than
/// before them, give or take a few. Other tests in this binary open and
/// close descriptors concurrently, so the count is polled to a deadline.
#[test]
fn closed_connections_release_their_descriptors() {
    let server = Server::bind(Engine::new(), "auto").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();
    let before = open_fds();
    for _ in 0..200 {
        let mut conn = Conn::connect(&addr).expect("connects");
        assert_eq!(ok(&mut conn, &Request::Ping), Response::Pong);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut now = open_fds();
    while now > before + 16 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        now = open_fds();
    }
    assert!(now <= before + 16, "{before} descriptors before 200 connections, {now} after");

    let mut conn = Conn::connect(&addr).expect("connects");
    assert_eq!(ok(&mut conn, &Request::Shutdown), Response::Bye);
    handle.join().expect("clean shutdown");
}

/// Threads of this process, from the `Threads:` line of its status.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("Threads:")).expect("Threads line");
    line["Threads:".len()..].trim().parse().expect("thread count")
}

/// A connection that subscribes and then drops takes its subscription
/// with it: after 50 connect–hello–watch–drop cycles with no build in
/// between, the server is back to its descriptor and thread counts from
/// before them, give or take a few. Polled to a deadline, like
/// [`closed_connections_release_their_descriptors`].
#[test]
fn dropped_watchers_release_their_threads_and_descriptors() {
    let server = Server::bind(Engine::new(), "auto").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();
    let mut owner = Conn::connect(&addr).expect("connects");
    seed_session(&mut owner, "watched", 1);
    let (fds_before, threads_before) = (open_fds(), threads());
    for _ in 0..50 {
        let mut conn = Conn::connect(&addr).expect("connects");
        match ok(&mut conn, &Request::Watch { session: "watched".into() }) {
            Response::Subscribed { .. } => {}
            other => panic!("unexpected watch response {other:?}"),
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let settled = || open_fds() <= fds_before + 16 && threads() <= threads_before + 16;
    while !settled() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let (fds, threads) = (open_fds(), threads());
    assert!(fds <= fds_before + 16, "{fds_before} descriptors before 50 watchers, {fds} after");
    assert!(
        threads <= threads_before + 16,
        "{threads_before} threads before 50 watchers, {threads} after"
    );

    ok(&mut owner, &Request::Shutdown);
    handle.join().expect("clean shutdown");
}

/// A request line that is not UTF-8 costs the client one `K0017`, like
/// malformed JSON: the same connection keeps serving afterwards.
#[test]
fn non_utf8_request_is_k0017_and_the_connection_survives() {
    let server = Server::bind(Engine::new(), "tcp:0").expect("binds");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    let tcp = addr.strip_prefix("tcp:").expect("tcp spec");
    let mut stream = std::net::TcpStream::connect(tcp).expect("connects");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("sets timeout");
    let mut burst =
        format!("{}\n", Request::Hello { version: proto::VERSION }.to_json()).into_bytes();
    burst.extend_from_slice(b"\xff\xfe\n");
    burst.extend_from_slice(format!("{}\n", Request::Ping.to_json()).as_bytes());
    stream.write_all(&burst).expect("writes");
    stream.flush().expect("flushes");

    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads");
        Response::from_json(line.trim_end()).expect("parses")
    };
    assert_eq!(next(), Response::Hello { version: proto::VERSION });
    match next() {
        Response::Error { diagnostics } => assert_eq!(diagnostics[0].code, "K0017"),
        other => panic!("expected a K0017 rejection, got {other:?}"),
    }
    assert_eq!(next(), Response::Pong);

    let mut conn = Conn::connect(&addr).expect("connects");
    assert_eq!(ok(&mut conn, &Request::Shutdown), Response::Bye);
    handle.join().expect("clean shutdown");
}
