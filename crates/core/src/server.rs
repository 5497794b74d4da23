//! The composition server: `knitc serve`.
//!
//! Three layers, each usable on its own:
//!
//! * [`Engine`] — the transport-agnostic request handler. It owns the
//!   registry of named sessions (each a [`SessionHandle`]) plus one shared
//!   [`BuildCache`], and answers any [`Request`] with a [`Response`]. The
//!   `knitc` CLI runs every subcommand through an in-process `Engine` when
//!   no `--connect` address is given — the daemon and the CLI are the same
//!   code path, which is what keeps them byte-identical.
//! * [`Server`] — the daemon: binds a local socket (Unix domain socket, or
//!   TCP loopback), accepts connections, and runs one worker thread per
//!   connection against a shared `Engine`. Connections open with a
//!   [`Request::Hello`] version handshake; `watch` subscriptions stream
//!   [`Response::Event`] lines asynchronously on the same connection.
//! * [`Conn`] — the client: connect, handshake, [`Conn::call`] requests,
//!   collect streamed events.
//!
//! **Threading model / lock order.** The engine's session registry lock is
//! outermost and held only for map lookups and `open`/`close`; each
//! session's own lock (inside [`SessionHandle`]) is held for the duration
//! of one build or lint of *that* session; [`BuildCache`]'s internal lock
//! is a leaf acquired by compiles. So: registry → session → cache, no
//! cycles — two clients building *different* sessions run fully in
//! parallel and dedupe identical unit compiles through the shared cache,
//! while two clients hammering the *same* session serialize on its lock
//! (the second usually hits the session memo).
//!
//! **Graceful shutdown.** [`Request::Shutdown`] flips the engine's flag
//! and wakes the acceptor; the server then half-closes (read side) every
//! connection so idle workers see EOF, and joins all workers — a worker
//! mid-build finishes the build and writes its response before exiting, so
//! in-flight requests are drained, never dropped.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown as NetShutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::analyze::LintConfig;
use crate::cache::BuildCache;
use crate::driver::{default_jobs, BuildOptions};
use crate::proto::{self, BuildEvent, BuildOutcome, Request, Response, SessionOptions, VERSION};
use crate::session::{BuildSession, SessionHandle};

// ---------------------------------------------------------------------------
// the engine
// ---------------------------------------------------------------------------

/// One named session plus its event machinery.
#[derive(Clone)]
struct SessionEntry {
    handle: SessionHandle,
    /// Build sequence counter backing [`BuildEvent::seq`].
    seq: Arc<AtomicU64>,
    /// Live watch subscriptions by id; pruned when a receiver hangs up or
    /// its [`Subscription`] is dropped.
    watchers: Watchers,
}

type Watchers = Arc<Mutex<Vec<(u64, mpsc::Sender<BuildEvent>)>>>;

/// A session's registration of one watch subscription (see
/// [`Engine::subscribe`]). Dropping it unsubscribes: the sender leaves the
/// session, so the paired receiver's `recv` fails once the events already
/// queued are drained.
pub struct Subscription {
    id: u64,
    watchers: Watchers,
}

impl Drop for Subscription {
    fn drop(&mut self) {
        let mut watchers = self.watchers.lock().unwrap_or_else(|e| e.into_inner());
        watchers.retain(|(id, _)| *id != self.id);
    }
}

struct Shared {
    cache: BuildCache,
    sessions: Mutex<BTreeMap<String, SessionEntry>>,
    shutdown: AtomicBool,
}

/// The transport-agnostic composition engine: a thread-safe registry of
/// named [`SessionHandle`]s sharing one [`BuildCache`], answering
/// [`Request`]s. Clones share all state — hand one clone per thread.
///
/// ```
/// use knit::proto::{Request, Response, SessionOptions};
/// use knit::server::Engine;
///
/// let engine = Engine::new();
/// let mut opts = SessionOptions::new("App");
/// opts.jobs = Some(1);
/// assert_eq!(
///     engine.handle(&Request::Open { session: "s".into(), options: opts }),
///     Response::Opened { created: true },
/// );
/// let r = engine.handle(&Request::LoadUnits {
///     session: "s".into(),
///     file: "app.unit".into(),
///     text: r#"
///         bundletype Main = { main }
///         unit App = { exports [ main : Main ]; files { "app.c" }; }
///     "#.into(),
/// });
/// assert_eq!(r, Response::Ok);
/// engine.handle(&Request::UpdateSource {
///     session: "s".into(),
///     path: "app.c".into(),
///     text: "int main() { return 7; }".into(),
/// });
/// let built = engine.handle(&Request::Build { session: "s".into(), want_image: false });
/// assert!(matches!(built, Response::Built { .. }));
/// ```
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine with a fresh shared compile cache.
    pub fn new() -> Engine {
        Engine::with_cache(BuildCache::new())
    }

    /// An engine whose sessions all compile through `cache` ([`BuildCache`]
    /// clones share storage, so this also wires the engine into caches
    /// owned elsewhere).
    pub fn with_cache(cache: BuildCache) -> Engine {
        Engine {
            shared: Arc::new(Shared {
                cache,
                sessions: Mutex::new(BTreeMap::new()),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// The engine's shared compile cache.
    pub fn cache(&self) -> &BuildCache {
        &self.shared.cache
    }

    /// True once [`Request::Shutdown`] has been handled (or
    /// [`Engine::begin_shutdown`] called).
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and disconnect every watch subscription (so
    /// event-pusher threads blocked on their channels exit).
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let sessions = self.lock_sessions();
        for entry in sessions.values() {
            entry.watchers.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    fn lock_sessions(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, SessionEntry>> {
        self.shared.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn entry(&self, name: &str) -> Option<SessionEntry> {
        self.lock_sessions().get(name).cloned()
    }

    /// Create the named session (or reconfigure an existing one) and
    /// return its handle plus whether it was freshly created — the
    /// in-process equivalent of [`Request::Open`], and the blessed way to
    /// get a [`SessionHandle`] that shares the engine's cache.
    ///
    /// The `Err` side is the ready-to-send rejection [`Response`] (bad
    /// profile, etc.). Rejections are rare and immediately serialized,
    /// so the large `Err` variant costs nothing on the happy path.
    #[allow(clippy::result_large_err)]
    pub fn open_session(
        &self,
        name: &str,
        options: &SessionOptions,
    ) -> Result<(SessionHandle, bool), Response> {
        let opts = build_options(options)?;
        let mut sessions = self.lock_sessions();
        match sessions.get(name) {
            Some(entry) => {
                entry.handle.set_options(opts);
                Ok((entry.handle.clone(), false))
            }
            None => {
                let handle = SessionHandle::from_session(
                    BuildSession::new(opts).with_cache(self.shared.cache.clone()),
                );
                sessions.insert(
                    name.to_string(),
                    SessionEntry {
                        handle: handle.clone(),
                        seq: Arc::new(AtomicU64::new(0)),
                        watchers: Arc::new(Mutex::new(Vec::new())),
                    },
                );
                Ok((handle, true))
            }
        }
    }

    /// Look up an existing session's handle.
    pub fn session(&self, name: &str) -> Option<SessionHandle> {
        self.entry(name).map(|e| e.handle)
    }

    /// Subscribe to a session's build events (the in-process equivalent of
    /// [`Request::Watch`]). Returns `None` for an unknown session. Every
    /// build *through the engine* emits one event to every subscriber, in
    /// `seq` order, on the returned receiver for as long as the returned
    /// [`Subscription`] lives.
    pub fn subscribe(&self, name: &str) -> Option<(Subscription, mpsc::Receiver<BuildEvent>)> {
        static WATCH_IDS: AtomicU64 = AtomicU64::new(0);
        let entry = self.entry(name)?;
        let id = WATCH_IDS.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        entry.watchers.lock().unwrap_or_else(|e| e.into_inner()).push((id, tx));
        Some((Subscription { id, watchers: entry.watchers }, rx))
    }

    fn emit(&self, entry: &SessionEntry, event: BuildEvent) {
        let mut watchers = entry.watchers.lock().unwrap_or_else(|e| e.into_inner());
        watchers.retain(|(_, tx)| tx.send(event.clone()).is_ok());
    }

    /// Answer one request. This is the single semantic entry point shared
    /// by the daemon's connection workers and the CLI's in-process
    /// transport — byte-identical behavior on both paths by construction.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::Hello { version } => {
                if *version == VERSION {
                    Response::Hello { version: VERSION }
                } else {
                    Response::version_mismatch(*version)
                }
            }
            Request::Open { session, options } => match self.open_session(session, options) {
                Ok((_, created)) => Response::Opened { created },
                Err(resp) => resp,
            },
            Request::LoadUnits { session, file, text } => match self.entry(session) {
                None => unknown_session(session),
                Some(entry) => match entry.handle.load_units(file, text) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error { diagnostics: e.diagnostics() },
                },
            },
            Request::UpdateUnit { session, file, text } => match self.entry(session) {
                None => unknown_session(session),
                Some(entry) => match entry.handle.update_unit(file, text) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error { diagnostics: e.diagnostics() },
                },
            },
            Request::UpdateSource { session, path, text } => match self.entry(session) {
                None => unknown_session(session),
                Some(entry) => {
                    entry.handle.update_source(path, text);
                    Response::Ok
                }
            },
            Request::Build { session, want_image } => match self.entry(session) {
                None => unknown_session(session),
                Some(entry) => {
                    // One lock hold for build + ledger read, so the
                    // outcome's `watched` list is from exactly this build.
                    let result = entry.handle.with(|s| {
                        let r = s.build();
                        let watched = s.watched_paths();
                        (r, watched)
                    });
                    let seq = entry.seq.fetch_add(1, Ordering::SeqCst) + 1;
                    match result {
                        (Ok(report), watched) => {
                            let outcome = BuildOutcome::from_report(&report, watched);
                            self.emit(
                                &entry,
                                BuildEvent {
                                    session: session.clone(),
                                    seq,
                                    ok: true,
                                    units_compiled: outcome.units_compiled,
                                    units_reused: outcome.units_reused,
                                    text_size: outcome.text_size,
                                    image_hash: outcome.image_hash,
                                },
                            );
                            let image = want_image.then(|| proto::encode_image(&report.image));
                            Response::Built { outcome, image }
                        }
                        (Err(e), _) => {
                            self.emit(
                                &entry,
                                BuildEvent {
                                    session: session.clone(),
                                    seq,
                                    ok: false,
                                    units_compiled: 0,
                                    units_reused: 0,
                                    text_size: 0,
                                    image_hash: 0,
                                },
                            );
                            Response::Error { diagnostics: e.diagnostics() }
                        }
                    }
                }
            },
            Request::Lint { session, config } => match self.entry(session) {
                None => unknown_session(session),
                Some(entry) => {
                    let mut lc = LintConfig::new();
                    lc.deny_warnings(config.deny_warnings);
                    for (name, level) in &config.overrides {
                        if let Err(e) = lc.set(name, *level) {
                            return Response::Error { diagnostics: e.diagnostics() };
                        }
                    }
                    match entry.handle.analyze(&lc) {
                        Ok(report) => Response::Linted {
                            units_analyzed: report.units_analyzed,
                            warnings: report.warnings(),
                            errors: report.errors(),
                            diagnostics: report.diagnostics,
                        },
                        Err(e) => Response::Error { diagnostics: e.diagnostics() },
                    }
                }
            },
            Request::Explain { code } => match crate::diag::explain(code) {
                Some(e) => Response::Explained {
                    code: e.code.to_string(),
                    summary: e.summary.to_string(),
                    example: e.example.to_string(),
                    lint: crate::analyze::LINTS
                        .iter()
                        .find(|l| l.code == e.code)
                        .map(|l| (l.name.to_string(), l.default_level)),
                },
                None => Response::malformed(format!("unknown diagnostic code `{code}`")),
            },
            Request::PgoSuggest { session, profile } => match self.entry(session) {
                None => unknown_session(session),
                Some(entry) => {
                    let profile = match machine::Profile::from_json(profile) {
                        Ok(p) => p,
                        Err(e) => return Response::malformed(format!("bad profile: {e}")),
                    };
                    match entry.handle.build() {
                        Ok(report) => Response::Suggested {
                            text: crate::pgo::suggest(&report, &profile).render(),
                        },
                        Err(e) => Response::Error { diagnostics: e.diagnostics() },
                    }
                }
            },
            Request::Watch { session } => match self.entry(session) {
                // The transport layer attaches the actual stream (see
                // `Server`'s worker; in-process callers use
                // `Engine::subscribe`); the engine only validates.
                None => unknown_session(session),
                Some(_) => Response::Subscribed { session: session.clone() },
            },
            Request::Close { session } => {
                if self.lock_sessions().remove(session).is_some() {
                    Response::Ok
                } else {
                    unknown_session(session)
                }
            }
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                self.begin_shutdown();
                Response::Bye
            }
        }
    }
}

fn unknown_session(name: &str) -> Response {
    Response::malformed(format!("unknown session `{name}` (open it first)"))
}

/// Lower wire-level [`SessionOptions`] onto [`BuildOptions`], applying the
/// documented defaults for omitted fields.
#[allow(clippy::result_large_err)]
fn build_options(o: &SessionOptions) -> Result<BuildOptions, Response> {
    let mut opts = BuildOptions::new(o.root.clone(), machine::runtime_symbols());
    opts.entry = o.entry.clone();
    opts.check_constraints = o.check_constraints;
    opts.flatten = o.flatten;
    if let Some(jobs) = o.jobs {
        opts.jobs = jobs.max(1);
    } else {
        opts.jobs = default_jobs();
    }
    if !o.default_flags.is_empty() {
        opts.default_flags = o.default_flags.clone();
    }
    if !o.runtime_symbols.is_empty() {
        opts.runtime_symbols = o.runtime_symbols.iter().cloned().collect();
    }
    if let Some(text) = &o.profile {
        let profile = machine::Profile::from_json(text)
            .map_err(|e| Response::malformed(format!("bad profile: {e}")))?;
        opts.profile = Some(std::sync::Arc::new(profile.layout_profile()));
    }
    Ok(opts)
}

// ---------------------------------------------------------------------------
// streams and listeners
// ---------------------------------------------------------------------------

/// One bidirectional local-socket stream (Unix or TCP loopback).
#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self, how: NetShutdown) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    fn connect(addr: &str) -> io::Result<Stream> {
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(Stream::Unix(UnixStream::connect(path)?))
        } else if let Some(hostport) = addr.strip_prefix("tcp:") {
            // A bare port means loopback, mirroring `Server::bind`'s
            // `tcp:<port>` spec so the printed serve address round-trips.
            if hostport.contains(':') {
                Ok(Stream::Tcp(TcpStream::connect(hostport)?))
            } else {
                let port = hostport.parse::<u16>().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("bad tcp port `{hostport}`"),
                    )
                })?;
                Ok(Stream::Tcp(TcpStream::connect(("127.0.0.1", port))?))
            }
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address must start with `unix:` or `tcp:`, got `{addr}`"),
            ))
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => Ok(Stream::Unix(l.accept()?.0)),
            Listener::Tcp(l) => Ok(Stream::Tcp(l.accept()?.0)),
        }
    }
}

// ---------------------------------------------------------------------------
// the server
// ---------------------------------------------------------------------------

/// The `knitc serve` daemon: a bound local socket plus a shared
/// [`Engine`]. Create with [`Server::bind`], then either [`Server::run`]
/// on the current thread or [`Server::spawn`] a background thread; both
/// return after a [`Request::Shutdown`] drains all connections.
pub struct Server {
    engine: Engine,
    listener: Listener,
    addr: String,
}

impl Server {
    /// Bind a listening socket. `spec` is `"unix:<path>"`, `"tcp:<port>"`
    /// (loopback only), or `"auto"` — a Unix socket at a fresh path under
    /// the system temp directory, falling back to an ephemeral TCP
    /// loopback port where Unix sockets are unavailable.
    pub fn bind(engine: Engine, spec: &str) -> io::Result<Server> {
        if let Some(path) = spec.strip_prefix("unix:") {
            let path = PathBuf::from(path);
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            let addr = format!("unix:{}", path.display());
            return Ok(Server { engine, listener: Listener::Unix(listener, path), addr });
        }
        if let Some(port) = spec.strip_prefix("tcp:") {
            let listener = TcpListener::bind((
                "127.0.0.1",
                port.parse::<u16>().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, format!("bad tcp port `{port}`"))
                })?,
            ))?;
            let addr = format!("tcp:{}", listener.local_addr()?);
            return Ok(Server { engine, listener: Listener::Tcp(listener), addr });
        }
        if spec != "auto" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("socket spec must be `unix:<path>`, `tcp:<port>`, or `auto`, got `{spec}`"),
            ));
        }
        static AUTO_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "knitc-serve-{}-{}.sock",
            std::process::id(),
            AUTO_SEQ.fetch_add(1, Ordering::SeqCst),
        ));
        let _ = std::fs::remove_file(&path);
        match UnixListener::bind(&path) {
            Ok(listener) => {
                let addr = format!("unix:{}", path.display());
                Ok(Server { engine, listener: Listener::Unix(listener, path), addr })
            }
            Err(_) => {
                let listener = TcpListener::bind(("127.0.0.1", 0))?;
                let addr = format!("tcp:{}", listener.local_addr()?);
                Ok(Server { engine, listener: Listener::Tcp(listener), addr })
            }
        }
    }

    /// The bound address, in the form [`Conn::connect`] accepts.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's engine (e.g. to open sessions in-process before any
    /// client connects).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Accept and serve connections until a client sends
    /// [`Request::Shutdown`]; then drain: half-close every connection,
    /// join every worker (letting in-flight requests complete and answer),
    /// and clean up the socket.
    pub fn run(self) -> io::Result<()> {
        // Live connections by id. A worker drops its own entry when its
        // connection ends, so a closed connection holds no descriptor, and
        // finished workers' handles are dropped at the next accept.
        let live: Arc<Mutex<BTreeMap<u64, Stream>>> = Arc::default();
        let mut workers: Vec<JoinHandle<()>> = Vec::new();
        for id in 0u64.. {
            let stream = match self.listener.accept() {
                Ok(s) => s,
                Err(e) => {
                    if self.engine.is_shutdown() {
                        break;
                    }
                    return Err(e);
                }
            };
            if self.engine.is_shutdown() {
                break; // the shutdown wake-up connection
            }
            workers.retain(|w| !w.is_finished());
            if let Ok(track) = stream.try_clone() {
                live.lock().unwrap_or_else(|e| e.into_inner()).insert(id, track);
            }
            let engine = self.engine.clone();
            let addr = self.addr.clone();
            let live = Arc::clone(&live);
            workers.push(std::thread::spawn(move || {
                serve_connection(engine, addr, stream);
                live.lock().unwrap_or_else(|e| e.into_inner()).remove(&id);
            }));
        }
        // Drain: unblock idle readers (writes still flow, so workers
        // mid-request finish and respond), then wait for every worker.
        for s in live.lock().unwrap_or_else(|e| e.into_inner()).values() {
            let _ = s.shutdown(NetShutdown::Read);
        }
        for w in workers {
            let _ = w.join();
        }
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    /// Run on a background thread; the returned handle carries the bound
    /// address and joins the server.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr.clone();
        let engine = self.engine.clone();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, engine, thread }
    }
}

/// Handle to a [`Server`] running on a background thread
/// (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: String,
    engine: Engine,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address, in the form [`Conn::connect`] accepts.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The running server's engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Wait for the server to shut down.
    pub fn join(self) -> io::Result<()> {
        self.thread.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// The longest request line a connection may send, newline excluded —
/// and so the most a client can make the server buffer. The largest real
/// requests, `load_units` and `update_source` carrying a source file, are
/// kilobytes.
pub const MAX_REQUEST_LINE: usize = 8 << 20;

/// One connection's request loop: handshake, then requests in order, with
/// `watch` attaching an event-pusher thread that shares the write side.
/// The connection owns its subscriptions, so when it ends they are
/// dropped and every pusher's `recv` fails and its thread exits. A
/// line that is not UTF-8 or not a request is answered with `K0017` and
/// the connection keeps serving; a line longer than [`MAX_REQUEST_LINE`]
/// is answered with `K0017` and closes the connection.
fn serve_connection(engine: Engine, addr: String, stream: Stream) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = reader;
    let mut line: Vec<u8> = Vec::new();
    let mut hello_done = false;
    let mut subscriptions = Vec::new();
    loop {
        line.clear();
        match (&mut reader).take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break, // EOF or torn connection
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let what = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            send(&writer, &Response::malformed(what));
            let _ = writer.lock().unwrap_or_else(|e| e.into_inner()).shutdown(NetShutdown::Both);
            break;
        }
        let text = match std::str::from_utf8(&line) {
            Ok(text) => Ok(text.trim_end_matches(['\r', '\n'])),
            Err(_) => Err("request line is not UTF-8".to_string()),
        };
        if text == Ok("") {
            continue;
        }
        let mut stop = false;
        let resp = match text.and_then(Request::from_json) {
            Err(e) => Response::malformed(e),
            Ok(req @ Request::Hello { .. }) => {
                let resp = engine.handle(&req);
                hello_done |= matches!(resp, Response::Hello { .. });
                resp
            }
            Ok(_) if !hello_done => Response::malformed("connection must open with `hello`"),
            Ok(Request::Watch { session }) => match engine.subscribe(&session) {
                None => unknown_session(&session),
                Some((subscription, rx)) => {
                    subscriptions.push(subscription);
                    let writer = Arc::clone(&writer);
                    std::thread::spawn(move || {
                        while let Ok(event) = rx.recv() {
                            if !send(&writer, &Response::Event(event)) {
                                break;
                            }
                        }
                    });
                    Response::Subscribed { session }
                }
            },
            Ok(Request::Shutdown) => {
                stop = true;
                engine.handle(&Request::Shutdown)
            }
            Ok(req) => engine.handle(&req),
        };
        if !send(&writer, &resp) {
            break;
        }
        if stop {
            // Wake the acceptor so `Server::run` notices the flag.
            let _ = Stream::connect(&addr);
            break;
        }
    }
}

/// Write `resp` as one line on a connection's shared write side; false
/// when the connection is gone.
fn send(writer: &Mutex<Stream>, resp: &Response) -> bool {
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    let line = resp.to_json();
    w.write_all(line.as_bytes()).is_ok() && w.write_all(b"\n").is_ok() && w.flush().is_ok()
}

// ---------------------------------------------------------------------------
// the client
// ---------------------------------------------------------------------------

/// A client connection to a running composition server. [`Conn::connect`]
/// performs the [`Request::Hello`] handshake; [`Conn::call`] then sends
/// one request and returns its response, transparently queueing any
/// [`Response::Event`] lines that arrive in between (drain them with
/// [`Conn::poll_event`] / [`Conn::recv_event`]).
pub struct Conn {
    reader: BufReader<Stream>,
    writer: Stream,
    events: VecDeque<BuildEvent>,
}

impl Conn {
    /// Connect to `addr` (`"unix:<path>"`, `"tcp:<host>:<port>"`, or
    /// `"tcp:<port>"` for loopback) and
    /// perform the version handshake. A version mismatch surfaces as an
    /// [`io::Error`] carrying the server's `K0016` diagnostic text.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let writer = Stream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut conn = Conn { reader, writer, events: VecDeque::new() };
        match conn.call(&Request::Hello { version: VERSION })? {
            Response::Hello { .. } => Ok(conn),
            Response::Error { diagnostics } => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                diagnostics
                    .first()
                    .map(|d| d.human())
                    .unwrap_or_else(|| "handshake rejected".to_string()),
            )),
            other => Err(bad_wire(format!("unexpected handshake response {other:?}"))),
        }
    }

    /// Send one request and return its response. Events that arrive first
    /// are queued, not lost.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.writer.write_all(req.to_json().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        loop {
            match self.read_response()? {
                Response::Event(e) => self.events.push_back(e),
                resp => return Ok(resp),
            }
        }
    }

    /// Bound every later read ([`Conn::call`]'s response,
    /// [`Conn::recv_event`]) to `dur`; a read that times out is an
    /// [`io::Error`]. `None` (the default) waits indefinitely.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(dur)
    }

    /// Pop an already-received watch event, if any (non-blocking).
    pub fn poll_event(&mut self) -> Option<BuildEvent> {
        self.events.pop_front()
    }

    /// Wait for the next watch event (queued or from the wire).
    pub fn recv_event(&mut self) -> io::Result<BuildEvent> {
        if let Some(e) = self.events.pop_front() {
            return Ok(e);
        }
        match self.read_response()? {
            Response::Event(e) => Ok(e),
            other => Err(bad_wire(format!("expected event, got {other:?}"))),
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::from_json(line.trim_end_matches(['\r', '\n'])).map_err(bad_wire)
    }
}

fn bad_wire(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_and_handles_are_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Engine>();
        check::<SessionHandle>();
        check::<BuildSession>();
    }

    #[test]
    fn handshake_is_enforced_per_connection() {
        let server = Server::bind(Engine::new(), "auto").unwrap();
        let addr = server.addr().to_string();
        let handle = server.spawn();

        // A correct handshake succeeds...
        let mut conn = Conn::connect(&addr).unwrap();
        assert_eq!(conn.call(&Request::Ping).unwrap(), Response::Pong);

        // ...a raw connection that skips `hello` is rejected with K0017...
        let mut raw = Stream::connect(&addr).unwrap();
        raw.write_all(b"{\"req\":\"ping\"}\n").unwrap();
        let mut r = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let resp = Response::from_json(line.trim_end()).unwrap();
        let Response::Error { diagnostics } = resp else { panic!("expected error: {line}") };
        assert_eq!(diagnostics[0].code, "K0017");

        // ...and a version mismatch with K0016.
        let mut raw = Stream::connect(&addr).unwrap();
        raw.write_all(b"{\"req\":\"hello\",\"version\":999}\n").unwrap();
        let mut r = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        let resp = Response::from_json(line.trim_end()).unwrap();
        let Response::Error { diagnostics } = resp else { panic!("expected error: {line}") };
        assert_eq!(diagnostics[0].code, "K0016");

        assert_eq!(conn.call(&Request::Shutdown).unwrap(), Response::Bye);
        handle.join().unwrap();
    }
}
