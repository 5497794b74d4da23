//! `knitc` — the Knit compiler as a command-line tool.
//!
//! Mirrors the prototype the paper released ("Source and documentation for
//! our Knit prototype is available…"): point it at `.unit` files and a
//! source directory, name a root unit, and it builds the configuration and
//! (optionally) runs it on the simulated machine.
//!
//! ```text
//! knitc --root WebServer --src ./demo demo/webserver.unit
//! knitc --root WebServer --src ./demo --run demo/webserver.unit
//! knitc --root WebServer --src ./demo --no-flatten --no-check ...
//! knitc --root WebServer --src ./demo --watch demo/webserver.unit
//! knitc serve                      # the composition server
//! knitc --connect unix:/tmp/knit.sock --root WebServer ...
//! ```
//!
//! Every `.c`/`.h` file under `--src` (recursively) becomes available to
//! `files { … }` clauses under its path relative to the source directory.
//!
//! **Every subcommand is a protocol client.** Each invocation reduces the
//! command line to [`proto::Request`]s and renders the
//! [`proto::Response`]s; the requests are answered either by an in-process
//! [`Engine`] (the default) or by a running `knitc serve` daemon
//! (`--connect <addr>`) — same requests, same handler code, byte-identical
//! images. `--watch` polls only the paths the session's dependency ledger
//! says the build actually read, and debounces editor save-storms into one
//! rebuild.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, SystemTime};

use knit::proto::{self, BuildOutcome, LintOptions, Request, Response, SessionOptions};
use knit::server::{Conn, Engine, Server};
use knit::{Diagnostic, LintLevel, SourceTree};
use machine::Profile;

#[derive(Clone, Copy, PartialEq)]
enum ErrorFormat {
    Human,
    Json,
}

/// What a command line asks for beyond loading the session.
enum Command {
    /// Build (and optionally run or watch) the root unit.
    Build,
    /// `knitc lint`, with its per-run lint levels.
    Lint(LintOptions),
    /// `knitc pgo-suggest`.
    PgoSuggest,
}

struct Args {
    command: Command,
    /// The session the command line configures: root, entry, flatten,
    /// constraint checking and jobs.
    options: SessionOptions,
    src_dirs: Vec<PathBuf>,
    unit_files: Vec<PathBuf>,
    run: bool,
    verbose: bool,
    timings: bool,
    cache: bool,
    watch: bool,
    error_format: ErrorFormat,
    profile_gen: Option<PathBuf>,
    profile_use: Option<PathBuf>,
    connect: Option<String>,
    session: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: knitc --root <Unit> [--src <dir>]... [--run] [--entry <member>]\n\
         \x20             [--no-flatten] [--no-check] [--jobs <N>] [--cache]\n\
         \x20             [--watch] [--error-format <human|json>]\n\
         \x20             [--connect <addr>] [--session <name>]\n\
         \x20             [-v] <file.unit>...\n\
         \x20      knitc lint --root <Unit> [--src <dir>]... [--allow <lint>]\n\
         \x20             [--warn <lint>] [--deny <lint>|warnings] [--jobs <N>]\n\
         \x20             [--error-format <human|json>] <file.unit>...\n\
         \x20      knitc pgo-suggest --root <Unit> [--src <dir>]...\n\
         \x20             [--profile-use <file>] <file.unit>...\n\
         \x20      knitc serve [--socket <unix:path|tcp:port|auto>] [--once]\n\
         \x20      knitc explain <code>\n\
         \n\
         builds the root unit from the given .unit files, with C sources\n\
         resolved from the --src directories; --run executes the image on\n\
         the simulated machine and prints its console output\n\
         \n\
         --jobs <N>  compile, or for `lint` analyze, up to N units\n\
         \x20            concurrently (default: all cores; the image and the\n\
         \x20            diagnostics are identical for every N)\n\
         --cache     rebuild once through a warm compile cache and report\n\
         \x20            the hit rate (demonstrates incremental rebuilds)\n\
         --watch     keep running: poll the .unit files and exactly the\n\
         \x20            sources the last build read (the dependency ledger)\n\
         \x20            and incrementally rebuild whenever one changes\n\
         --timings   print a per-phase wall-clock table for the build\n\
         --error-format <human|json>\n\
         \x20            render build errors as human-readable diagnostics\n\
         \x20            (default) or as one JSON object per line\n\
         --connect <addr>\n\
         \x20            send all requests to a running `knitc serve` at\n\
         \x20            unix:<path> or tcp:<host>:<port> instead of\n\
         \x20            building in-process (images are byte-identical)\n\
         --session <name>\n\
         \x20            the server-side session to use (default: the root\n\
         \x20            unit's name)\n\
         --profile-gen <file>\n\
         \x20            run the built image with call-edge profiling on and\n\
         \x20            write the collected profile as JSON (implies --run)\n\
         --profile-use <file>\n\
         \x20            feed a previously collected profile into the linker:\n\
         \x20            hot code is clustered first, cold code moved behind\n\
         \n\
         `knitc lint` runs the cross-unit static analyzer (no build):\n\
         --allow/--warn/--deny <lint>  set a lint's level for this run\n\
         --deny warnings               exit nonzero on any surviving warning\n\
         \n\
         `knitc pgo-suggest` ranks hot cross-instance call edges and\n\
         suggests flatten groups; with --profile-use it reads the given\n\
         profile, otherwise it builds, runs instrumented, and profiles\n\
         \n\
         `knitc serve` runs the composition server: a daemon owning many\n\
         named build sessions, deduping compiles across clients through a\n\
         shared cache; --once runs a self-test build through a loopback\n\
         connection, verifies byte-identity against a direct session, and\n\
         exits (for CI)\n\
         \n\
         `knitc explain <code>` describes a diagnostic code (K0001…, K1001…)"
    );
    std::process::exit(2);
}

fn parse_args(argv: Vec<String>) -> Args {
    let mut it = argv.into_iter().peekable();
    let command = match it.peek().map(String::as_str) {
        Some("lint") => Command::Lint(LintOptions::default()),
        Some("pgo-suggest") => Command::PgoSuggest,
        _ => Command::Build,
    };
    if !matches!(command, Command::Build) {
        it.next();
    }
    let mut args = Args {
        command,
        options: SessionOptions::new(String::new()),
        src_dirs: Vec::new(),
        unit_files: Vec::new(),
        run: false,
        verbose: false,
        timings: false,
        cache: false,
        watch: false,
        error_format: ErrorFormat::Human,
        profile_gen: None,
        profile_use: None,
        connect: None,
        session: None,
    };
    let mut root = None;
    let set_format = |args: &mut Args, v: &str| match v {
        "human" => args.error_format = ErrorFormat::Human,
        "json" => args.error_format = ErrorFormat::Json,
        other => {
            eprintln!("knitc: --error-format must be `human` or `json`, got `{other}`");
            usage();
        }
    };
    while let Some(a) = it.next() {
        if let (Command::Lint(lint), "--allow" | "--warn" | "--deny") =
            (&mut args.command, a.as_str())
        {
            let name = it.next().unwrap_or_else(|| usage());
            if name == "warnings" {
                if a == "--deny" {
                    lint.deny_warnings = true;
                } else {
                    eprintln!("knitc: `warnings` is only valid with --deny");
                    usage();
                }
            } else {
                let level = match a.as_str() {
                    "--allow" => LintLevel::Allow,
                    "--warn" => LintLevel::Warn,
                    _ => LintLevel::Deny,
                };
                lint.overrides.push((name, level));
            }
            continue;
        }
        match a.as_str() {
            "--root" => root = Some(it.next().unwrap_or_else(|| usage())),
            "--src" => args.src_dirs.push(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--entry" => args.options.entry = Some(it.next().unwrap_or_else(|| usage())),
            "--jobs" => {
                let n = it.next().unwrap_or_else(|| usage());
                match n.parse::<usize>() {
                    Ok(n) if n >= 1 => args.options.jobs = Some(n),
                    _ => {
                        eprintln!("knitc: --jobs needs a positive integer, got `{n}`");
                        usage();
                    }
                }
            }
            "--error-format" => {
                let v = it.next().unwrap_or_else(|| usage());
                set_format(&mut args, &v);
            }
            other if other.starts_with("--error-format=") => {
                let v = other["--error-format=".len()..].to_string();
                set_format(&mut args, &v);
            }
            "--profile-gen" => {
                args.profile_gen = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--profile-use" => {
                args.profile_use = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            other if other.starts_with("--profile-gen=") => {
                args.profile_gen = Some(PathBuf::from(&other["--profile-gen=".len()..]));
            }
            other if other.starts_with("--profile-use=") => {
                args.profile_use = Some(PathBuf::from(&other["--profile-use=".len()..]));
            }
            "--connect" => args.connect = Some(it.next().unwrap_or_else(|| usage())),
            "--session" => args.session = Some(it.next().unwrap_or_else(|| usage())),
            "--cache" => args.cache = true,
            "--run" => args.run = true,
            "--watch" => args.watch = true,
            "--no-flatten" => args.options.flatten = false,
            "--no-check" => args.options.check_constraints = false,
            "--timings" => args.timings = true,
            "-v" | "--verbose" => args.verbose = true,
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("knitc: unknown flag `{other}`");
                usage();
            }
            other => args.unit_files.push(PathBuf::from(other)),
        }
    }
    match root {
        Some(root) if !args.unit_files.is_empty() => args.options.root = root,
        _ => usage(),
    }
    args
}

// ---------------------------------------------------------------------------
// the transport: one call path, in-process or over the socket
// ---------------------------------------------------------------------------

/// Where requests go: an in-process [`Engine`] (the default) or a [`Conn`]
/// to a running `knitc serve`. Every subcommand talks *only* through
/// [`Transport::call`], so both paths exercise identical handler code.
enum Transport {
    Local(Engine),
    Remote(Conn),
}

impl Transport {
    fn open(args: &Args) -> Result<Transport, ExitCode> {
        match &args.connect {
            None => Ok(Transport::Local(Engine::new())),
            Some(addr) => match Conn::connect(addr) {
                Ok(conn) => Ok(Transport::Remote(conn)),
                Err(e) => {
                    eprintln!("knitc: cannot connect to {addr}: {e}");
                    Err(ExitCode::FAILURE)
                }
            },
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ExitCode> {
        match self {
            Transport::Local(engine) => Ok(engine.handle(req)),
            Transport::Remote(conn) => conn.call(req).map_err(|e| {
                eprintln!("knitc: server connection lost: {e}");
                ExitCode::FAILURE
            }),
        }
    }
}

/// Print a failed response's diagnostics (the same shapes as
/// `--error-format=json`) and fail. Non-error responses are protocol bugs.
fn expect_ok(resp: Response, format: ErrorFormat) -> Result<Response, ExitCode> {
    match resp {
        Response::Error { diagnostics } => {
            print_diags(&diagnostics, format);
            Err(ExitCode::FAILURE)
        }
        other => Ok(other),
    }
}

/// Report a response of the wrong kind (a protocol bug) and fail.
fn unexpected(what: &str, resp: &Response) -> ExitCode {
    eprintln!("knitc: internal error: unexpected {what} response {resp:?}");
    ExitCode::FAILURE
}

/// Build `session`, with its wire image when `want_image`; a failed build's
/// diagnostics are printed.
fn build(
    transport: &mut Transport,
    session: &str,
    want_image: bool,
    format: ErrorFormat,
) -> Result<(BuildOutcome, Option<String>), ExitCode> {
    let req = Request::Build { session: session.to_string(), want_image };
    match expect_ok(transport.call(&req)?, format)? {
        Response::Built { outcome, image } => Ok((outcome, image)),
        other => Err(unexpected("build", &other)),
    }
}

fn print_diags(diags: &[Diagnostic], format: ErrorFormat) {
    for d in diags {
        match format {
            ErrorFormat::Human => eprintln!("knitc: {}", d.human()),
            ErrorFormat::Json => eprintln!("{}", d.json()),
        }
    }
}

fn print_report(root: &str, outcome: &BuildOutcome, verbose: bool, timings: bool) {
    println!(
        "knitc: built `{}`: {} instances from {} units, {} objects, {} bytes of text ({} jobs)",
        root,
        outcome.instances,
        outcome.units_compiled + outcome.units_reused,
        outcome.objects,
        outcome.text_size,
        outcome.jobs
    );
    if verbose {
        println!("initializer schedule:");
        for s in &outcome.schedule {
            println!("  {s}");
        }
        if let Some((constraints, vars, annotated)) = outcome.constraints {
            println!(
                "constraints: {constraints} checked over {vars} variables ({annotated} annotated units)"
            );
        }
        println!("exports:");
        for (port, sym) in &outcome.exports {
            println!("  {port} -> {sym}");
        }
        println!("unit compiles ({} hit / {} miss):", outcome.cache_hits, outcome.cache_misses);
        for (unit, us, reused) in &outcome.unit_compiles {
            println!(
                "  {:24} {:>9.3} ms  {}",
                unit,
                *us as f64 / 1e3,
                if *reused { "cached" } else { "compiled" }
            );
        }
    }
    if verbose || timings {
        let total: u64 = outcome.phases.iter().map(|(_, us)| *us).sum();
        println!("phases:");
        for (name, us) in &outcome.phases {
            let pct = if total > 0 { *us as f64 * 100.0 / total as f64 } else { 0.0 };
            println!("  {name:12} {:>9.3} ms  {pct:>5.1}%", *us as f64 / 1e3);
        }
        println!("  {:12} {:>9.3} ms", "total", total as f64 / 1e3);
    }
}

/// Run the image on the simulated machine, forwarding console output to
/// stdout and the serial port to stderr. With `profiling`, call-edge
/// recording is enabled and the collected [`Profile`] is returned.
fn run_image(image: &cobj::Image, profiling: bool) -> Result<(i64, Option<Profile>), ExitCode> {
    let mut m = match machine::Machine::new(image.clone()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("knitc: machine: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    m.set_profiling(profiling);
    match m.run_entry() {
        Ok(code) => {
            if !m.console.output.is_empty() {
                print!("{}", m.console.output);
            }
            if !m.serial.output.is_empty() {
                eprint!("{}", m.serial.output);
            }
            println!("knitc: program exited with code {code}");
            Ok((code, profiling.then(|| m.profile())))
        }
        Err(e) => {
            eprintln!("knitc: runtime fault: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Decode a wire image from a `built` response, or fail loudly — the
/// commands that need to run or compare images always request one.
fn expect_image(image: Option<String>) -> Result<cobj::Image, ExitCode> {
    let hex = image.ok_or_else(|| {
        eprintln!("knitc: internal error: server omitted the requested image");
        ExitCode::FAILURE
    })?;
    proto::decode_image(&hex).map_err(|e| {
        eprintln!("knitc: internal error: bad wire image: {e}");
        ExitCode::FAILURE
    })
}

/// Read and parse a `--profile-use` JSON file.
fn load_profile(path: &Path) -> Result<Profile, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("knitc: cannot read profile {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    Profile::from_json(&text).map_err(|e| {
        eprintln!("knitc: bad profile {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// Recursively load `.c`/`.h` files under `dir` into `tree`, keyed by path
/// relative to `base`.
fn load_sources(tree: &mut SourceTree, base: &Path, dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            load_sources(tree, base, &path)?;
        } else if matches!(path.extension().and_then(|e| e.to_str()), Some("c" | "h")) {
            let rel = path.strip_prefix(base).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            let text = std::fs::read_to_string(&path)?;
            tree.add(rel, text);
        }
    }
    Ok(())
}

/// Open `session` with the command line's options and feed it the `.unit`
/// files and every source under the `--src` directories. A fresh session
/// gets `load_units` (duplicate declarations across files are K0002
/// errors, as in a one-shot build); an existing server-side session gets
/// `update_unit` (transactional redefine).
fn load_session(transport: &mut Transport, session: &str, args: &Args) -> Result<(), ExitCode> {
    let open = Request::Open { session: session.to_string(), options: args.options.clone() };
    let created = match expect_ok(transport.call(&open)?, args.error_format)? {
        Response::Opened { created } => created,
        other => return Err(unexpected("open", &other)),
    };
    for f in &args.unit_files {
        let text = std::fs::read_to_string(f).map_err(|e| {
            eprintln!("knitc: cannot read {}: {e}", f.display());
            ExitCode::FAILURE
        })?;
        let (session, file) = (session.to_string(), f.to_string_lossy().into_owned());
        let req = if created {
            Request::LoadUnits { session, file, text }
        } else {
            Request::UpdateUnit { session, file, text }
        };
        expect_ok(transport.call(&req)?, args.error_format)?;
    }
    for dir in &args.src_dirs {
        let mut tree = SourceTree::new();
        load_sources(&mut tree, dir, dir).map_err(|e| {
            eprintln!("knitc: reading sources under {}: {e}", dir.display());
            ExitCode::FAILURE
        })?;
        for (path, text) in tree.iter() {
            let req = Request::UpdateSource {
                session: session.to_string(),
                path: path.to_string(),
                text: text.to_string(),
            };
            expect_ok(transport.call(&req)?, args.error_format)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// subcommands (thin protocol clients)
// ---------------------------------------------------------------------------

/// `knitc explain <code>` — routed through the same protocol as everything
/// else (an in-process engine; there is no session to address).
fn explain_cmd(code: &str) -> ExitCode {
    let engine = Engine::new();
    match engine.handle(&Request::Explain { code: code.to_string() }) {
        Response::Explained { code, summary, example, lint } => {
            match lint {
                Some((name, level)) => {
                    let level = match level {
                        LintLevel::Allow => "allow",
                        LintLevel::Warn => "warn",
                        LintLevel::Deny => "deny",
                    };
                    println!("{code}: {name} (lint, default {level})");
                }
                None => println!("{code}: error"),
            }
            println!("  {summary}");
            println!("  example:");
            for line in example.lines() {
                println!("    {line}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "knitc: unknown diagnostic code `{code}` \
                 (errors are K0001–K0017, lints K1001–K1009)"
            );
            ExitCode::FAILURE
        }
    }
}

/// `knitc lint`: request the analyzer's diagnostics, print them, and fail
/// on error-severity findings.
fn lint_cmd(
    transport: &mut Transport,
    session: &str,
    args: &Args,
    config: &LintOptions,
) -> Result<ExitCode, ExitCode> {
    let req = Request::Lint { session: session.to_string(), config: config.clone() };
    let (units_analyzed, warnings, errors, diagnostics) =
        match expect_ok(transport.call(&req)?, args.error_format)? {
            Response::Linted { units_analyzed, warnings, errors, diagnostics } => {
                (units_analyzed, warnings, errors, diagnostics)
            }
            other => return Err(unexpected("lint", &other)),
        };
    print_diags(&diagnostics, args.error_format);
    if args.error_format == ErrorFormat::Human {
        println!(
            "knitc: lint `{}`: {} units analyzed, {} warning{}, {} error{}",
            args.options.root,
            units_analyzed,
            warnings,
            if warnings == 1 { "" } else { "s" },
            errors,
            if errors == 1 { "" } else { "s" },
        );
    }
    Ok(if errors > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `knitc pgo-suggest`: build, obtain a profile (from `--profile-use` or by
/// running the image instrumented), and print the flatten advisor's report.
fn pgo_suggest_cmd(
    transport: &mut Transport,
    session: &str,
    args: &Args,
) -> Result<ExitCode, ExitCode> {
    let (_, image) = build(transport, session, args.profile_use.is_none(), args.error_format)?;
    let profile = match &args.profile_use {
        Some(path) => load_profile(path)?,
        None => run_image(&expect_image(image)?, true)?.1.expect("profiling was requested"),
    };
    let req = Request::PgoSuggest { session: session.to_string(), profile: profile.to_json() };
    match expect_ok(transport.call(&req)?, args.error_format)? {
        Response::Suggested { text } => {
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(unexpected("pgo", &other)),
    }
}

fn mtime(path: &Path) -> Option<SystemTime> {
    std::fs::metadata(path).and_then(|m| m.modified()).ok()
}

/// One file the watch loop polls: a `.unit` file (`rel == None`) or a C
/// source/header keyed into the source tree at `rel`.
struct WatchEntry {
    path: PathBuf,
    rel: Option<String>,
    mtime: Option<SystemTime>,
}

/// Compute the current watch set from the last build's dependency ledger:
/// all `.unit` files, plus — for each ledger path — every candidate
/// location under the `--src` roots. Ledger *misses* are watched too, so
/// creating a previously-missing header triggers a rebuild.
fn watch_set(args: &Args, watched: &[String]) -> Vec<WatchEntry> {
    let mut entries: Vec<WatchEntry> = Vec::new();
    for f in &args.unit_files {
        entries.push(WatchEntry { path: f.clone(), rel: None, mtime: mtime(f) });
    }
    let mut seen = BTreeSet::new();
    for rel in watched {
        for dir in &args.src_dirs {
            let path = dir.join(rel);
            if seen.insert(path.clone()) {
                entries.push(WatchEntry { mtime: mtime(&path), path, rel: Some(rel.clone()) });
            }
        }
    }
    entries
}

/// Scan for changed files, feeding edits into the session over the
/// transport. Returns whether anything changed (or `Err` on a dead
/// connection).
fn scan_edits(
    transport: &mut Transport,
    session: &str,
    args: &Args,
    entries: &mut [WatchEntry],
) -> Result<bool, ExitCode> {
    let mut changed = false;
    for e in entries.iter_mut() {
        let now = mtime(&e.path);
        if e.mtime == now {
            continue;
        }
        e.mtime = now;
        let text = match std::fs::read_to_string(&e.path) {
            Ok(t) => t,
            Err(err) => {
                if e.path.exists() {
                    eprintln!("knitc: cannot read {}: {err}", e.path.display());
                }
                continue;
            }
        };
        let req = match &e.rel {
            None => Request::UpdateUnit {
                session: session.to_string(),
                file: e.path.to_string_lossy().into_owned(),
                text,
            },
            Some(rel) => {
                Request::UpdateSource { session: session.to_string(), path: rel.clone(), text }
            }
        };
        match transport.call(&req)? {
            Response::Ok => changed = true,
            Response::Error { diagnostics } => {
                // A broken .unit edit: program unchanged (redefine is
                // transactional); report and keep watching.
                print_diags(&diagnostics, args.error_format);
            }
            other => {
                eprintln!("knitc: internal error: unexpected edit response {other:?}");
            }
        }
    }
    Ok(changed)
}

/// Poll the `.unit` files and the ledger-derived source set, feed edits
/// into the session, and incrementally rebuild. Edit bursts (editor save
/// storms) are debounced: scanning continues at a short interval until a
/// scan comes back quiet, then one rebuild covers the whole burst. Runs
/// until interrupted.
fn watch_loop(
    transport: &mut Transport,
    session: &str,
    args: &Args,
    initial_watched: &[String],
) -> Result<ExitCode, ExitCode> {
    const POLL: Duration = Duration::from_millis(300);
    const DEBOUNCE: Duration = Duration::from_millis(50);
    let root = &args.options.root;
    let mut entries = watch_set(args, initial_watched);
    eprintln!("knitc: watching {} files for `{}` (Ctrl-C to stop)", entries.len(), root);
    loop {
        std::thread::sleep(POLL);
        let mut changed = scan_edits(transport, session, args, &mut entries)?;
        if !changed {
            continue;
        }
        // Debounce: keep scanning until the burst settles, then rebuild
        // once for the whole batch.
        while changed {
            std::thread::sleep(DEBOUNCE);
            changed = scan_edits(transport, session, args, &mut entries)?;
        }
        let req = Request::Build { session: session.to_string(), want_image: args.run };
        match transport.call(&req)? {
            Response::Built { outcome, image } => {
                println!(
                    "knitc: rebuilt `{}`: {} recompiled, {} reused, {} bytes of text",
                    root, outcome.units_compiled, outcome.units_reused, outcome.text_size
                );
                if args.verbose {
                    print_report(root, &outcome, true, args.timings);
                }
                if args.run {
                    let _ = run_image(&expect_image(image)?, false);
                }
                // Re-derive the watch set from this build's ledger: new
                // includes start being polled, dropped ones stop.
                entries = watch_set(args, &outcome.watched);
            }
            Response::Error { diagnostics } => print_diags(&diagnostics, args.error_format),
            other => {
                unexpected("build", &other);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// knitc serve
// ---------------------------------------------------------------------------

/// The tiny built-in program `knitc serve --once` self-tests with.
const SELFTEST_UNIT: &str = r#"
    bundletype Main = { main }
    unit SelfTest = { exports [ main : Main ]; files { "selftest.c" }; }
"#;
const SELFTEST_C: &str = "int main() { return 42; }";

/// How long the self-test waits for any one response or watch event.
const SELFTEST_DEADLINE: Duration = Duration::from_secs(30);

/// `knitc serve --once`: bind, build a built-in program through a real
/// loopback connection, verify the wire image is byte-identical to a
/// direct in-process session, check watch events arrive in order, shut
/// down. Exit code reports the verdict — CI needs no background-process
/// management. Every read has a deadline and every exit path sends
/// `Shutdown`, so a failing self-test reports instead of hanging.
fn serve_once(server: Server) -> ExitCode {
    let addr = server.addr().to_string();
    let handle = server.spawn();
    let connect = || -> Result<Conn, String> {
        let conn = Conn::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        conn.set_read_timeout(Some(SELFTEST_DEADLINE)).map_err(|e| format!("connect: {e}"))?;
        Ok(conn)
    };
    let verdict = (|| -> Result<(), String> {
        let mut conn = connect()?;
        let mut options = SessionOptions::new("SelfTest");
        options.jobs = Some(1);
        let call = |conn: &mut Conn, req: &Request| -> Result<Response, String> {
            match conn.call(req).map_err(|e| format!("call: {e}"))? {
                Response::Error { diagnostics } => Err(format!(
                    "server error: {}",
                    diagnostics.first().map(|d| d.human()).unwrap_or_default()
                )),
                resp => Ok(resp),
            }
        };
        call(&mut conn, &Request::Open { session: "selftest".into(), options: options.clone() })?;
        call(
            &mut conn,
            &Request::LoadUnits {
                session: "selftest".into(),
                file: "selftest.unit".into(),
                text: SELFTEST_UNIT.into(),
            },
        )?;
        call(
            &mut conn,
            &Request::UpdateSource {
                session: "selftest".into(),
                path: "selftest.c".into(),
                text: SELFTEST_C.into(),
            },
        )?;
        call(&mut conn, &Request::Watch { session: "selftest".into() })?;
        let built =
            call(&mut conn, &Request::Build { session: "selftest".into(), want_image: true })?;
        let Response::Built { outcome, image } = built else {
            return Err(format!("unexpected build response {built:?}"));
        };
        let wire_image = proto::decode_image(&image.ok_or("server omitted image")?)?;

        // The safety net: the same request stream through a direct
        // session must produce the byte-identical image.
        let engine = Engine::new();
        let (direct, _) = engine.open_session("direct", &options).map_err(|r| format!("{r:?}"))?;
        direct.load_units("selftest.unit", SELFTEST_UNIT).map_err(|e| e.to_string())?;
        direct.update_source("selftest.c", SELFTEST_C);
        let direct_report = direct.build().map_err(|e| e.to_string())?;
        if direct_report.image != wire_image {
            return Err("server image differs from direct session image".into());
        }
        if proto::image_hash(&direct_report.image) != outcome.image_hash {
            return Err("image hash on the wire differs from the local hash".into());
        }

        // Watch events: an edit + rebuild must stream seq 2 (seq 1 was
        // the cold build above, emitted after our subscription).
        call(
            &mut conn,
            &Request::UpdateSource {
                session: "selftest".into(),
                path: "selftest.c".into(),
                text: "int main() { return 7; }".into(),
            },
        )?;
        call(&mut conn, &Request::Build { session: "selftest".into(), want_image: false })?;
        // An event line may trail its build's response: wait for both.
        let mut seqs = Vec::new();
        while seqs.len() < 2 {
            seqs.push(conn.recv_event().map_err(|e| format!("watch event: {e}"))?.seq);
        }
        seqs.extend(std::iter::from_fn(|| conn.poll_event()).map(|e| e.seq));
        if seqs != vec![1, 2] {
            return Err(format!("expected watch events [1, 2], got {seqs:?}"));
        }
        Ok(())
    })();
    // Shut down on a fresh connection whatever the verdict: the test's own
    // connection may be mid-response after a failure. Join only a server
    // that acknowledged, so a wedged one fails the test instead of hanging.
    let joined =
        match connect().and_then(|mut c| c.call(&Request::Shutdown).map_err(|e| e.to_string())) {
            Ok(Response::Bye) => handle.join().map_err(|e| e.to_string()),
            Ok(other) => Err(format!("unexpected shutdown response {other:?}")),
            Err(e) => Err(format!("shutdown: {e}")),
        };
    match (verdict, joined) {
        (Ok(()), Ok(())) => {
            println!(
                "knitc: serve self-test passed (image byte-identical, watch events in order, clean shutdown)"
            );
            ExitCode::SUCCESS
        }
        (Err(e), _) => {
            eprintln!("knitc: serve self-test failed: {e}");
            ExitCode::FAILURE
        }
        (_, Err(e)) => {
            eprintln!("knitc: serve self-test failed: server did not shut down cleanly: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `knitc serve [--socket <spec>] [--once]`.
fn serve_cmd(argv: &[String]) -> ExitCode {
    let mut socket = "auto".to_string();
    let mut once = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(s) => socket = s.clone(),
                None => usage(),
            },
            other if other.starts_with("--socket=") => {
                socket = other["--socket=".len()..].to_string();
            }
            "--once" => once = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("knitc: serve: unknown argument `{other}`");
                usage();
            }
        }
    }
    let server = match Server::bind(Engine::new(), &socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("knitc: cannot bind {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if once {
        return serve_once(server);
    }
    println!("knitc: serving on {} (protocol v{})", server.addr(), proto::VERSION);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("knitc: server error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("explain") {
        return match argv.get(1) {
            Some(code) if argv.len() == 2 => explain_cmd(code),
            _ => usage(),
        };
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_cmd(&argv[1..]);
    }
    match run(parse_args(argv)) {
        Ok(code) | Err(code) => code,
    }
}

/// Load the session a build, lint or pgo-suggest command line describes,
/// then run the command.
fn run(mut args: Args) -> Result<ExitCode, ExitCode> {
    let session = args.session.clone().unwrap_or_else(|| args.options.root.clone());
    // The layout profile is validated client-side (for the conventional
    // error message) and shipped as its canonical JSON.
    if !matches!(args.command, Command::PgoSuggest) {
        if let Some(path) = &args.profile_use {
            args.options.profile = Some(load_profile(path)?.to_json());
        }
    }
    let mut transport = Transport::open(&args)?;
    load_session(&mut transport, &session, &args)?;
    match &args.command {
        Command::Build => {}
        Command::Lint(config) => return lint_cmd(&mut transport, &session, &args, config),
        Command::PgoSuggest => return pgo_suggest_cmd(&mut transport, &session, &args),
    }

    // The build itself. The image rides back over the wire only when
    // something client-side needs its bytes.
    let want_image = args.run || args.profile_gen.is_some();
    let (cold, cold_image) = build(&mut transport, &session, want_image, args.error_format)?;
    let outcome = if args.cache {
        // Rebuild in a *second* session sharing the server's compile
        // cache: every unit whose content is unchanged (here: all of
        // them) is served from the cache, deduped across sessions —
        // the same mechanism that dedupes across concurrent clients.
        let warm_session = format!("{session}#warm");
        load_session(&mut transport, &warm_session, &args)?;
        let (warm, _) = build(&mut transport, &warm_session, false, args.error_format)?;
        let _ = transport.call(&Request::Close { session: warm_session });
        let compile_ms = |o: &BuildOutcome| {
            o.phases
                .iter()
                .find(|(n, _)| n == "compile")
                .map(|(_, us)| *us as f64 / 1e3)
                .unwrap_or(0.0)
        };
        println!(
            "knitc: warm rebuild: {} cache hits, {} recompiles; compile phase {:.3} ms (cold: {:.3} ms)",
            warm.cache_hits,
            warm.cache_misses,
            compile_ms(&warm),
            compile_ms(&cold)
        );
        if warm.image_hash != cold.image_hash {
            eprintln!("knitc: internal error: warm rebuild produced a different image");
            return Err(ExitCode::FAILURE);
        }
        warm
    } else {
        cold
    };

    print_report(&args.options.root, &outcome, args.verbose, args.timings);

    if want_image {
        let (code, profile) = run_image(&expect_image(cold_image)?, args.profile_gen.is_some())?;
        if let (Some(path), Some(profile)) = (&args.profile_gen, profile) {
            std::fs::write(path, profile.to_json()).map_err(|e| {
                eprintln!("knitc: cannot write profile {}: {e}", path.display());
                ExitCode::FAILURE
            })?;
            println!(
                "knitc: wrote profile to {} ({} edges, {} calls)",
                path.display(),
                profile.edges.len(),
                profile.total_calls()
            );
        }
        if code != 0 {
            return Ok(ExitCode::from((code & 0xff) as u8));
        }
    }

    if args.watch {
        return watch_loop(&mut transport, &session, &args, &outcome.watched);
    }
    Ok(ExitCode::SUCCESS)
}
