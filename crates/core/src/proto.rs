//! The composition-server wire protocol: one request/response surface
//! shared by the `knitc` CLI, in-process [`SessionHandle`]s, and the
//! [`server`](crate::server) daemon.
//!
//! Every `knitc` subcommand — build, lint, explain, pgo-suggest, watch —
//! reduces to a sequence of [`Request`]s and renders the resulting
//! [`Response`]s; whether those requests are handled by an in-process
//! [`Engine`](crate::server::Engine) or travel over a socket to a running
//! `knitc serve` daemon is invisible to the command logic. The wire format
//! is newline-delimited JSON: one request per line, one response per line,
//! plus asynchronous [`Response::Event`] lines on watch-subscribed
//! connections.
//!
//! The writers here fix key order — so `crates/core/tests/proto.rs` can pin
//! request and response bytes — and escape strings with the shared
//! [`machine::json::write_str`]. Decoding goes through
//! [`machine::json::Json::parse`], which keeps unsigned integers as exact
//! `u64`s (session fingerprints and image hashes do not survive an `f64`
//! round trip), runs in linear time, and rejects hostile nesting with an
//! `Err` — so a bad line is a `K0017`, never a dead server.
//!
//! Versioning: every connection opens with [`Request::Hello`] carrying
//! [`VERSION`]; a mismatch is rejected with a `K0016` diagnostic before any
//! other request is honored. Malformed or unknown requests are `K0017`.
//!
//! [`SessionHandle`]: crate::session::SessionHandle

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cobj::image::{CallTarget, RInstr, SymbolLoc};
use cobj::ir::{BinOp, Reg, UnOp, Width};
use cobj::{Image, ImageFunc};
use machine::json::{self, write_str, Json, Object};

use crate::analyze::LintLevel;
use crate::diag::{Diagnostic, Severity};
use crate::driver::BuildReport;

/// Protocol version. Bumped on any incompatible change to the wire types;
/// the [`Request::Hello`] handshake rejects mismatches with a `K0016`
/// diagnostic.
pub const VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// wire types
// ---------------------------------------------------------------------------

/// Build options as they travel over the wire — a plain-data mirror of
/// [`BuildOptions`](crate::BuildOptions) (the layout profile rides along as
/// its JSON encoding, [`BuildOptions::jobs`](crate::BuildOptions) as
/// `None` = "server default").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionOptions {
    /// Name of the root unit.
    pub root: String,
    /// Entry member ([`BuildOptions::entry`](crate::BuildOptions)).
    pub entry: Option<String>,
    /// Run the constraint checker.
    pub check_constraints: bool,
    /// Honor `flatten` markers.
    pub flatten: bool,
    /// Compile parallelism; `None` leaves the handler's default.
    pub jobs: Option<usize>,
    /// Compiler flags for units that name no `flags` declaration.
    /// Empty = keep the handler's default (`-O2`).
    pub default_flags: Vec<String>,
    /// Names the runtime provides. Empty = the handler's default
    /// (`machine::runtime_symbols()`).
    pub runtime_symbols: Vec<String>,
    /// A `machine::Profile` JSON document driving profile-guided layout.
    pub profile: Option<String>,
}

impl SessionOptions {
    /// Options for building `root` with every knob at its default.
    pub fn new(root: impl Into<String>) -> SessionOptions {
        SessionOptions {
            root: root.into(),
            entry: None,
            check_constraints: true,
            flatten: true,
            jobs: None,
            default_flags: Vec::new(),
            runtime_symbols: Vec::new(),
            profile: None,
        }
    }
}

/// Lint configuration as it travels over the wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintOptions {
    /// Per-lint level overrides, `(lint name, level)`, applied in order.
    /// Unknown names are rejected by the handler with `K0003`.
    pub overrides: Vec<(String, LintLevel)>,
    /// Promote surviving warnings to errors (`--deny warnings`).
    pub deny_warnings: bool,
}

/// One request on the composition-server protocol.
///
/// Every variant that touches a session names it explicitly — connections
/// are stateless beyond the version handshake, so any client can address
/// any session and requests from different connections interleave freely
/// (the server serializes per-session work on the session's own lock).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first request on a connection.
    Hello {
        /// The client's [`VERSION`].
        version: u32,
    },
    /// Create (or reconfigure) the named session.
    Open {
        /// Session name; creates it if absent.
        session: String,
        /// Build options to (re)configure the session with.
        options: SessionOptions,
    },
    /// Register a `.unit` file's declarations (duplicates are errors).
    LoadUnits {
        /// Target session.
        session: String,
        /// `.unit` file name (becomes the diagnostic span file).
        file: String,
        /// File contents.
        text: String,
    },
    /// Re-register a `.unit` file, replacing same-named declarations.
    UpdateUnit {
        /// Target session.
        session: String,
        /// `.unit` file name.
        file: String,
        /// File contents.
        text: String,
    },
    /// Add or replace one C source or header.
    UpdateSource {
        /// Target session.
        session: String,
        /// Source-tree path.
        path: String,
        /// File contents.
        text: String,
    },
    /// Build (or incrementally rebuild) the session's image.
    Build {
        /// Target session.
        session: String,
        /// Ship the full image back ([`Response::Built`]'s `image`), for
        /// clients that run or inspect it. Off by default: the
        /// [`BuildOutcome`] (with its stable image hash) is usually
        /// enough, and images are large.
        want_image: bool,
    },
    /// Run the cross-unit lints over the session.
    Lint {
        /// Target session.
        session: String,
        /// Lint level configuration.
        config: LintOptions,
    },
    /// Describe a diagnostic code (errors and lints alike).
    Explain {
        /// The code, e.g. `K0011`.
        code: String,
    },
    /// Build and run the PGO flatten advisor over the given profile.
    PgoSuggest {
        /// Target session.
        session: String,
        /// A `machine::Profile` JSON document.
        profile: String,
    },
    /// Subscribe this connection to the session's build events.
    Watch {
        /// Session whose builds to stream.
        session: String,
    },
    /// Drop the named session (its memoized artifacts are freed; the
    /// shared compile cache keeps its entries).
    Close {
        /// Session to drop.
        session: String,
    },
    /// Liveness probe.
    Ping,
    /// Stop the server after draining in-flight requests.
    Shutdown,
}

/// Everything a build produced, minus the image itself: the plain-data
/// mirror of [`BuildReport`] that travels over the wire. The image is
/// identified by `image_hash` (and optionally shipped alongside, see
/// [`Request::Build`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BuildOutcome {
    /// Root unit that was built.
    pub root: String,
    /// Atomic unit instances linked.
    pub instances: usize,
    /// Distinct units that ran the compiler this build.
    pub units_compiled: usize,
    /// Distinct units whose objects were reused (cache or session memo).
    pub units_reused: usize,
    /// Objects handed to the final link.
    pub objects: usize,
    /// Flatten groups merged.
    pub flatten_groups: usize,
    /// Total text bytes of the image.
    pub text_size: u64,
    /// Units served from the shared compile cache.
    pub cache_hits: usize,
    /// Units that went through the compiler.
    pub cache_misses: usize,
    /// Parallelism the build ran with.
    pub jobs: usize,
    /// Stable hash of the produced image (see [`image_hash`]) — equal
    /// exactly when the images are byte-identical.
    pub image_hash: u64,
    /// Per-phase wall-clock times, `(phase, microseconds)`.
    pub phases: Vec<(String, u64)>,
    /// The initializer schedule, as `path.func` strings.
    pub schedule: Vec<String>,
    /// Constraint totals when checking ran:
    /// `(constraints, vars, annotated_units)`.
    pub constraints: Option<(usize, usize, usize)>,
    /// Root export members: `"port.member"` → link-level symbol.
    pub exports: Vec<(String, String)>,
    /// Per-unit compile record: `(unit, microseconds, reused)`.
    pub unit_compiles: Vec<(String, u64, bool)>,
    /// Every source-tree path the session's compiles consulted (the
    /// dependency ledger union) — what a file watcher needs to poll.
    pub watched: Vec<String>,
}

impl BuildOutcome {
    /// Project a [`BuildReport`] onto its wire form. `watched` is the
    /// session's dependency-ledger union
    /// ([`SessionHandle::watched_paths`](crate::session::SessionHandle::watched_paths)).
    pub fn from_report(report: &BuildReport, watched: Vec<String>) -> BuildOutcome {
        let micros = |d: &Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        BuildOutcome {
            root: report.elaboration.root.clone(),
            instances: report.stats.instances,
            units_compiled: report.stats.units_compiled,
            units_reused: report.stats.units_reused,
            objects: report.stats.objects,
            flatten_groups: report.stats.flatten_groups,
            text_size: report.stats.text_size,
            cache_hits: report.stats.cache_hits,
            cache_misses: report.stats.cache_misses,
            jobs: report.jobs,
            image_hash: image_hash(&report.image),
            phases: report.phases.iter().map(|(n, d)| (n.to_string(), micros(d))).collect(),
            schedule: report.schedule.clone(),
            constraints: report
                .constraints
                .as_ref()
                .map(|c| (c.constraints, c.vars, c.annotated_units)),
            exports: report.exports.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            unit_compiles: report
                .unit_compiles
                .iter()
                .map(|u| (u.unit.clone(), micros(&u.duration), u.cache_hit))
                .collect(),
            watched,
        }
    }
}

/// One streamed build notification (see [`Request::Watch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildEvent {
    /// Session that built.
    pub session: String,
    /// Per-session sequence number, starting at 1 and gap-free — a
    /// subscriber that sees `seq` jump has lost events.
    pub seq: u64,
    /// Whether the build succeeded.
    pub ok: bool,
    /// Units recompiled (successful builds).
    pub units_compiled: usize,
    /// Units reused (successful builds).
    pub units_reused: usize,
    /// Image text bytes (successful builds).
    pub text_size: u64,
    /// Stable image hash (successful builds; 0 on failure).
    pub image_hash: u64,
}

/// One response on the composition-server protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted; carries the server's [`VERSION`].
    Hello {
        /// The server's protocol version.
        version: u32,
    },
    /// Generic success for state-changing requests.
    Ok,
    /// A session was opened ([`Request::Open`]): `created` distinguishes a
    /// fresh session from reconfiguring an existing one (clients use this
    /// to pick [`Request::LoadUnits`] — duplicate-detecting — vs
    /// [`Request::UpdateUnit`] — redefining).
    Opened {
        /// True when the session did not exist before this request.
        created: bool,
    },
    /// A build completed ([`Request::Build`]).
    Built {
        /// The build's wire-level report.
        outcome: BuildOutcome,
        /// Hex encoding of the image ([`encode_image`]) when the request
        /// set `want_image`.
        image: Option<String>,
    },
    /// Lints ran ([`Request::Lint`]).
    Linted {
        /// Distinct units analyzed.
        units_analyzed: usize,
        /// Warning-severity count (after level configuration).
        warnings: usize,
        /// Error-severity count (after level configuration).
        errors: usize,
        /// The diagnostics, in canonical order.
        diagnostics: Vec<Diagnostic>,
    },
    /// A diagnostic code was resolved ([`Request::Explain`]).
    Explained {
        /// The code.
        code: String,
        /// One-line summary.
        summary: String,
        /// Minimal triggering example.
        example: String,
        /// `(name, default level)` when the code is a lint.
        lint: Option<(String, LintLevel)>,
    },
    /// The PGO advisor ran ([`Request::PgoSuggest`]); carries its
    /// rendered report.
    Suggested {
        /// `PgoReport::render()` output.
        text: String,
    },
    /// The connection is now subscribed to a session's build events.
    Subscribed {
        /// The watched session.
        session: String,
    },
    /// An asynchronous build notification on a watch-subscribed
    /// connection.
    Event(BuildEvent),
    /// The request failed; diagnostics in canonical order.
    Error {
        /// Structured diagnostics (same shapes as `--error-format=json`).
        diagnostics: Vec<Diagnostic>,
    },
    /// Liveness reply.
    Pong,
    /// The server acknowledged [`Request::Shutdown`] and is draining.
    Bye,
}

impl Response {
    /// Build the canonical rejection for a request kind this endpoint
    /// cannot serve: a single spanless diagnostic with the given code.
    pub fn error(code: &'static str, message: impl Into<String>, notes: Vec<String>) -> Response {
        Response::Error {
            diagnostics: vec![Diagnostic {
                code,
                severity: Severity::Error,
                message: message.into(),
                span: None,
                notes,
            }],
        }
    }

    /// The version-mismatch rejection mandated by the handshake.
    pub fn version_mismatch(client: u32) -> Response {
        Response::error(
            "K0016",
            format!(
                "protocol version mismatch: client speaks v{client}, server speaks v{}",
                VERSION
            ),
            vec![format!("upgrade so both ends speak protocol v{}", VERSION)],
        )
    }

    /// The malformed-request rejection.
    pub fn malformed(what: impl std::fmt::Display) -> Response {
        Response::error(
            "K0017",
            format!("malformed protocol request: {what}"),
            vec!["see docs/protocol.md for the wire format".to_string()],
        )
    }
}

// ---------------------------------------------------------------------------
// serialization: stable writers
// ---------------------------------------------------------------------------

fn lint_level_str(l: LintLevel) -> &'static str {
    match l {
        LintLevel::Allow => "allow",
        LintLevel::Warn => "warn",
        LintLevel::Deny => "deny",
    }
}

fn lint_level_parse(s: &str) -> Result<LintLevel, String> {
    match s {
        "allow" => Ok(LintLevel::Allow),
        "warn" => Ok(LintLevel::Warn),
        "deny" => Ok(LintLevel::Deny),
        other => Err(format!("bad lint level `{other}`")),
    }
}

/// Open a wire object: `{"<tag>":"<kind>"`, then `,"<key>":<string>` for
/// each field. The caller appends any further fields and the closing `}`.
fn head(tag: &str, kind: &str, fields: &[(&str, &str)]) -> String {
    let mut out = format!("{{\"{tag}\":\"{kind}\"");
    for (key, value) in fields {
        out.push_str(&format!(",\"{key}\":"));
        write_str(&mut out, value);
    }
    out
}

fn write_opt_str(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => write_str(out, s),
        None => out.push_str("null"),
    }
}

fn write_strs<S: AsRef<str>>(out: &mut String, items: &[S]) {
    json::write_array(out, items, |out, s| write_str(out, s.as_ref()));
}

fn write_options(out: &mut String, o: &SessionOptions) {
    out.push_str("{\"root\":");
    write_str(out, &o.root);
    out.push_str(",\"entry\":");
    write_opt_str(out, o.entry.as_deref());
    out.push_str(&format!(
        ",\"check_constraints\":{},\"flatten\":{}",
        o.check_constraints, o.flatten
    ));
    match o.jobs {
        Some(j) => out.push_str(&format!(",\"jobs\":{j}")),
        None => out.push_str(",\"jobs\":null"),
    }
    out.push_str(",\"default_flags\":");
    write_strs(out, &o.default_flags);
    out.push_str(",\"runtime_symbols\":");
    write_strs(out, &o.runtime_symbols);
    out.push_str(",\"profile\":");
    write_opt_str(out, o.profile.as_deref());
    out.push('}');
}

fn write_outcome(out: &mut String, o: &BuildOutcome) {
    out.push_str("{\"root\":");
    write_str(out, &o.root);
    out.push_str(&format!(
        ",\"instances\":{},\"units_compiled\":{},\"units_reused\":{},\"objects\":{}",
        o.instances, o.units_compiled, o.units_reused, o.objects
    ));
    out.push_str(&format!(
        ",\"flatten_groups\":{},\"text_size\":{},\"cache_hits\":{},\"cache_misses\":{}",
        o.flatten_groups, o.text_size, o.cache_hits, o.cache_misses
    ));
    out.push_str(&format!(",\"jobs\":{},\"image_hash\":{}", o.jobs, o.image_hash));
    out.push_str(",\"phases\":");
    json::write_array(out, &o.phases, |out, (name, us)| {
        out.push('[');
        write_str(out, name);
        out.push_str(&format!(",{us}]"));
    });
    out.push_str(",\"schedule\":");
    write_strs(out, &o.schedule);
    out.push_str(",\"constraints\":");
    match o.constraints {
        Some((c, v, a)) => {
            out.push_str(&format!("{{\"constraints\":{c},\"vars\":{v},\"annotated_units\":{a}}}"))
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"exports\":");
    json::write_array(out, &o.exports, |out, (k, v)| write_strs(out, &[k, v]));
    out.push_str(",\"unit_compiles\":");
    json::write_array(out, &o.unit_compiles, |out, (unit, us, reused)| {
        out.push('[');
        write_str(out, unit);
        out.push_str(&format!(",{us},{reused}]"));
    });
    out.push_str(",\"watched\":");
    write_strs(out, &o.watched);
    out.push('}');
}

impl Request {
    /// Serialize to the canonical single-line JSON wire form (no trailing
    /// newline; the transport adds framing).
    pub fn to_json(&self) -> String {
        let obj = |kind, fields: &[(&str, &str)]| head("req", kind, fields) + "}";
        match self {
            Request::Hello { version } => format!("{{\"req\":\"hello\",\"version\":{version}}}"),
            Request::Open { session, options } => {
                let mut out = head("req", "open", &[("session", session)]);
                out.push_str(",\"options\":");
                write_options(&mut out, options);
                out + "}"
            }
            Request::LoadUnits { session, file, text } => {
                obj("load_units", &[("session", session), ("file", file), ("text", text)])
            }
            Request::UpdateUnit { session, file, text } => {
                obj("update_unit", &[("session", session), ("file", file), ("text", text)])
            }
            Request::UpdateSource { session, path, text } => {
                obj("update_source", &[("session", session), ("path", path), ("text", text)])
            }
            Request::Build { session, want_image } => {
                head("req", "build", &[("session", session)])
                    + &format!(",\"want_image\":{want_image}}}")
            }
            Request::Lint { session, config } => {
                let mut out = head("req", "lint", &[("session", session)]);
                out.push_str(",\"config\":{\"overrides\":");
                json::write_array(&mut out, &config.overrides, |out, (name, level)| {
                    write_strs(out, &[name, lint_level_str(*level)])
                });
                out + &format!(",\"deny_warnings\":{}}}}}", config.deny_warnings)
            }
            Request::Explain { code } => obj("explain", &[("code", code)]),
            Request::PgoSuggest { session, profile } => {
                obj("pgo_suggest", &[("session", session), ("profile", profile)])
            }
            Request::Watch { session } => obj("watch", &[("session", session)]),
            Request::Close { session } => obj("close", &[("session", session)]),
            Request::Ping => obj("ping", &[]),
            Request::Shutdown => obj("shutdown", &[]),
        }
    }

    /// Parse a request from its wire form.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let v = Json::parse(text)?;
        let obj = v.as_object().ok_or("request must be a JSON object")?;
        let field = |key: &str| json::str_field(obj, "request", key);
        let session = || field("session");
        Ok(match &*field("req")? {
            "hello" => Request::Hello {
                version: json::u64_field(obj, "hello", "version")?
                    .try_into()
                    .map_err(|_| "hello: version out of range")?,
            },
            "open" => {
                let oo = json::object_field(obj, "open", "options")?;
                let str_list = |key: &str| match oo.get(key) {
                    None | Some(Json::Null) => Ok(Vec::new()),
                    Some(v) => strings(
                        v.as_array().ok_or_else(|| format!("options.{key} must be an array"))?,
                        "options",
                        key,
                    ),
                };
                Request::Open {
                    session: session()?,
                    options: SessionOptions {
                        root: json::str_field(oo, "options", "root")?,
                        entry: oo.get("entry").and_then(Json::as_str).map(str::to_string),
                        check_constraints: oo
                            .get("check_constraints")
                            .and_then(Json::as_bool)
                            .unwrap_or(true),
                        flatten: oo.get("flatten").and_then(Json::as_bool).unwrap_or(true),
                        jobs: oo.get("jobs").and_then(Json::as_u64).map(|j| j as usize),
                        default_flags: str_list("default_flags")?,
                        runtime_symbols: str_list("runtime_symbols")?,
                        profile: oo.get("profile").and_then(Json::as_str).map(str::to_string),
                    },
                }
            }
            "load_units" => Request::LoadUnits {
                session: session()?,
                file: field("file")?,
                text: field("text")?,
            },
            "update_unit" => Request::UpdateUnit {
                session: session()?,
                file: field("file")?,
                text: field("text")?,
            },
            "update_source" => Request::UpdateSource {
                session: session()?,
                path: field("path")?,
                text: field("text")?,
            },
            "build" => Request::Build {
                session: session()?,
                want_image: obj.get("want_image").and_then(Json::as_bool).unwrap_or(false),
            },
            "lint" => {
                let co = json::object_field(obj, "lint", "config")?;
                let mut overrides = Vec::new();
                for o in co.get("overrides").and_then(Json::as_array).unwrap_or(&[]) {
                    let (name, level) = match o.as_array() {
                        Some([n, l]) => (
                            n.as_str().ok_or("lint override name must be a string")?,
                            l.as_str().ok_or("lint override level must be a string")?,
                        ),
                        _ => return Err("lint override must be [name, level]".to_string()),
                    };
                    overrides.push((name.to_string(), lint_level_parse(level)?));
                }
                Request::Lint {
                    session: session()?,
                    config: LintOptions {
                        overrides,
                        deny_warnings: co
                            .get("deny_warnings")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                    },
                }
            }
            "explain" => Request::Explain { code: field("code")? },
            "pgo_suggest" => {
                Request::PgoSuggest { session: session()?, profile: field("profile")? }
            }
            "watch" => Request::Watch { session: session()? },
            "close" => Request::Close { session: session()? },
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request kind `{other}`")),
        })
    }
}

/// `items` as strings; a non-string element is `"{ctx}.{key} must hold
/// strings"`.
fn strings(items: &[Json], ctx: &str, key: &str) -> Result<Vec<String>, String> {
    items
        .iter()
        .map(|s| {
            s.as_str().map(str::to_string).ok_or_else(|| format!("{ctx}.{key} must hold strings"))
        })
        .collect()
}

fn usize_field(obj: &Object, ctx: &str, key: &str) -> Result<usize, String> {
    json::u64_field(obj, ctx, key).map(|n| n as usize)
}

/// A span's line or column, which must fit a `u32`.
fn span_number(span: &Object, key: &str) -> Result<u32, String> {
    u32::try_from(json::u64_field(span, "span", key)?)
        .map_err(|_| format!("span `{key}` out of range"))
}

fn parse_diag(v: &Json) -> Result<Diagnostic, String> {
    let o = v.as_object().ok_or("diagnostic must be an object")?;
    let code = json::str_field(o, "diagnostic", "code")?;
    let code = crate::diag::static_code(&code)
        .ok_or_else(|| format!("unknown diagnostic code `{code}`"))?;
    let severity = match o.get("severity").and_then(Json::as_str) {
        Some("error") => Severity::Error,
        Some("warning") => Severity::Warning,
        Some("note") => Severity::Note,
        other => return Err(format!("bad diagnostic severity {other:?}")),
    };
    let message = json::str_field(o, "diagnostic", "message")?;
    let span = match o.get("span") {
        None | Some(Json::Null) => None,
        Some(s) => {
            let so = s.as_object().ok_or("diagnostic span must be an object")?;
            Some((
                json::str_field(so, "span", "file")?,
                span_number(so, "line")?,
                span_number(so, "col")?,
            ))
        }
    };
    let mut notes = Vec::new();
    for n in o.get("notes").and_then(Json::as_array).unwrap_or(&[]) {
        notes.push(n.as_str().ok_or("notes must be strings")?.to_string());
    }
    Ok(Diagnostic { code, severity, message, span, notes })
}

fn parse_diags(obj: &Object, ctx: &str) -> Result<Vec<Diagnostic>, String> {
    json::array_field(obj, ctx, "diagnostics")?.iter().map(parse_diag).collect()
}

fn write_diags(out: &mut String, diags: &[Diagnostic]) {
    // The wire format for diagnostics IS the `--error-format=json` format.
    json::write_array(out, diags, |out, d| out.push_str(&d.json()));
}

impl Response {
    /// Serialize to the canonical single-line JSON wire form.
    pub fn to_json(&self) -> String {
        let obj = |kind, fields: &[(&str, &str)]| head("resp", kind, fields) + "}";
        match self {
            Response::Hello { version } => format!("{{\"resp\":\"hello\",\"version\":{version}}}"),
            Response::Ok => obj("ok", &[]),
            Response::Opened { created } => format!("{{\"resp\":\"opened\",\"created\":{created}}}"),
            Response::Built { outcome, image } => {
                let mut out = head("resp", "built", &[]);
                out.push_str(",\"outcome\":");
                write_outcome(&mut out, outcome);
                out.push_str(",\"image\":");
                write_opt_str(&mut out, image.as_deref());
                out + "}"
            }
            Response::Linted { units_analyzed, warnings, errors, diagnostics } => {
                let mut out = head("resp", "linted", &[]);
                out.push_str(&format!(
                    ",\"units_analyzed\":{units_analyzed},\"warnings\":{warnings},\"errors\":{errors},\"diagnostics\":"
                ));
                write_diags(&mut out, diagnostics);
                out + "}"
            }
            Response::Explained { code, summary, example, lint } => {
                let fields = [("code", code.as_str()), ("summary", summary), ("example", example)];
                let mut out = head("resp", "explained", &fields);
                out.push_str(",\"lint\":");
                match lint {
                    Some((name, level)) => {
                        out.push_str("{\"name\":");
                        write_str(&mut out, name);
                        out.push_str(&format!(",\"default_level\":\"{}\"}}", lint_level_str(*level)));
                    }
                    None => out.push_str("null"),
                }
                out + "}"
            }
            Response::Suggested { text } => obj("suggested", &[("text", text)]),
            Response::Subscribed { session } => obj("subscribed", &[("session", session)]),
            Response::Event(e) => {
                head("resp", "event", &[("session", &e.session)])
                    + &format!(
                        ",\"seq\":{},\"ok\":{},\"units_compiled\":{},\"units_reused\":{},\"text_size\":{},\"image_hash\":{}}}",
                        e.seq, e.ok, e.units_compiled, e.units_reused, e.text_size, e.image_hash
                    )
            }
            Response::Error { diagnostics } => {
                let mut out = head("resp", "error", &[]);
                out.push_str(",\"diagnostics\":");
                write_diags(&mut out, diagnostics);
                out + "}"
            }
            Response::Pong => obj("pong", &[]),
            Response::Bye => obj("bye", &[]),
        }
    }

    /// Parse a response from its wire form.
    pub fn from_json(text: &str) -> Result<Response, String> {
        let v = Json::parse(text)?;
        let obj = v.as_object().ok_or("response must be a JSON object")?;
        Ok(match &*json::str_field(obj, "response", "resp")? {
            "hello" => Response::Hello {
                version: json::u64_field(obj, "hello", "version")?
                    .try_into()
                    .map_err(|_| "hello: version out of range")?,
            },
            "ok" => Response::Ok,
            "opened" => Response::Opened { created: json::bool_field(obj, "opened", "created")? },
            "built" => {
                let oo = json::object_field(obj, "built", "outcome")?;
                let str_list =
                    |key| strings(json::array_field(oo, "outcome", key)?, "outcome", key);
                let n = |key| usize_field(oo, "outcome", key);
                let mut outcome = BuildOutcome {
                    root: json::str_field(oo, "outcome", "root")?,
                    instances: n("instances")?,
                    units_compiled: n("units_compiled")?,
                    units_reused: n("units_reused")?,
                    objects: n("objects")?,
                    flatten_groups: n("flatten_groups")?,
                    text_size: json::u64_field(oo, "outcome", "text_size")?,
                    cache_hits: n("cache_hits")?,
                    cache_misses: n("cache_misses")?,
                    jobs: n("jobs")?,
                    image_hash: json::u64_field(oo, "outcome", "image_hash")?,
                    schedule: str_list("schedule")?,
                    watched: str_list("watched")?,
                    ..BuildOutcome::default()
                };
                for p in oo.get("phases").and_then(Json::as_array).unwrap_or(&[]) {
                    match p.as_array() {
                        Some([name, us]) => outcome.phases.push((
                            name.as_str().ok_or("phase name must be a string")?.to_string(),
                            us.as_u64().ok_or("phase time must be a number")?,
                        )),
                        _ => return Err("phase must be [name, micros]".to_string()),
                    }
                }
                outcome.constraints = match oo.get("constraints") {
                    None | Some(Json::Null) => None,
                    Some(c) => {
                        let co = c.as_object().ok_or("constraints must be an object")?;
                        Some((
                            usize_field(co, "response", "constraints")?,
                            usize_field(co, "response", "vars")?,
                            usize_field(co, "response", "annotated_units")?,
                        ))
                    }
                };
                for e in oo.get("exports").and_then(Json::as_array).unwrap_or(&[]) {
                    match e.as_array() {
                        Some([k, v]) => outcome.exports.push((
                            k.as_str().ok_or("export key must be a string")?.to_string(),
                            v.as_str().ok_or("export value must be a string")?.to_string(),
                        )),
                        _ => return Err("export must be [port.member, symbol]".to_string()),
                    }
                }
                for c in oo.get("unit_compiles").and_then(Json::as_array).unwrap_or(&[]) {
                    match c.as_array() {
                        Some([unit, us, reused]) => outcome.unit_compiles.push((
                            unit.as_str().ok_or("unit name must be a string")?.to_string(),
                            us.as_u64().ok_or("unit time must be a number")?,
                            reused.as_bool().ok_or("unit reuse must be a bool")?,
                        )),
                        _ => return Err("unit compile must be [unit, micros, reused]".to_string()),
                    }
                }
                Response::Built {
                    outcome,
                    image: obj.get("image").and_then(Json::as_str).map(str::to_string),
                }
            }
            "linted" => {
                let diagnostics = parse_diags(obj, "linted")?;
                Response::Linted {
                    units_analyzed: usize_field(obj, "response", "units_analyzed")?,
                    warnings: usize_field(obj, "response", "warnings")?,
                    errors: usize_field(obj, "response", "errors")?,
                    diagnostics,
                }
            }
            "explained" => {
                let lint = match obj.get("lint") {
                    None | Some(Json::Null) => None,
                    Some(l) => {
                        let lo = l.as_object().ok_or("lint must be an object")?;
                        let name = json::str_field(lo, "lint", "name")?;
                        Some((
                            name,
                            lint_level_parse(&json::str_field(lo, "lint", "default_level")?)?,
                        ))
                    }
                };
                Response::Explained {
                    code: json::str_field(obj, "explained", "code")?,
                    summary: json::str_field(obj, "explained", "summary")?,
                    example: json::str_field(obj, "explained", "example")?,
                    lint,
                }
            }
            "suggested" => Response::Suggested { text: json::str_field(obj, "suggested", "text")? },
            "subscribed" => {
                Response::Subscribed { session: json::str_field(obj, "subscribed", "session")? }
            }
            "event" => Response::Event(BuildEvent {
                session: json::str_field(obj, "event", "session")?,
                seq: json::u64_field(obj, "event", "seq")?,
                ok: json::bool_field(obj, "event", "ok")?,
                units_compiled: usize_field(obj, "response", "units_compiled")?,
                units_reused: usize_field(obj, "response", "units_reused")?,
                text_size: json::u64_field(obj, "event", "text_size")?,
                image_hash: json::u64_field(obj, "event", "image_hash")?,
            }),
            "error" => Response::Error { diagnostics: parse_diags(obj, "error")? },
            "pong" => Response::Pong,
            "bye" => Response::Bye,
            other => return Err(format!("unknown response kind `{other}`")),
        })
    }
}

// ---------------------------------------------------------------------------
// image codec: stable binary encoding, shipped as hex
// ---------------------------------------------------------------------------

const IMAGE_MAGIC: &[u8; 5] = b"KIMG1";

struct ByteWriter(Vec<u8>);

impl ByteWriter {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn opt_u32(&mut self, r: Option<u32>) {
        match r {
            Some(r) => {
                self.u8(1);
                self.u32(r);
            }
            None => self.u8(0),
        }
    }
    fn regs(&mut self, rs: &[Reg]) {
        self.u32(rs.len() as u32);
        for &r in rs {
            self.u32(r);
        }
    }
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("image: truncated at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "image: bad utf-8".to_string())
    }
    /// An optional `u32`: tag 0 is `None`, tag 1 is followed by the value.
    fn opt_u32(&mut self) -> Result<Option<u32>, String> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(self.u32()?),
            other => return Err(format!("image: bad option tag {other}")),
        })
    }
    fn regs(&mut self) -> Result<Vec<Reg>, String> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.u32()).collect()
    }
}

fn width_tag(w: Width) -> u8 {
    match w {
        Width::W1 => 1,
        Width::W2 => 2,
        Width::W4 => 4,
        Width::W8 => 8,
    }
}

fn width_untag(t: u8) -> Result<Width, String> {
    Ok(match t {
        1 => Width::W1,
        2 => Width::W2,
        4 => Width::W4,
        8 => Width::W8,
        other => return Err(format!("image: bad width tag {other}")),
    })
}

const BIN_OPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

const UN_OPS: [UnOp; 3] = [UnOp::Neg, UnOp::Not, UnOp::BitNot];

fn write_instr(w: &mut ByteWriter, i: &RInstr) {
    match i {
        RInstr::Const { dst, value } => {
            w.u8(0);
            w.u32(*dst);
            w.i64(*value);
        }
        RInstr::Mov { dst, src } => {
            w.u8(1);
            w.u32(*dst);
            w.u32(*src);
        }
        RInstr::Bin { op, dst, a, b } => {
            w.u8(2);
            w.u8(BIN_OPS.iter().position(|o| o == op).expect("known binop") as u8);
            w.u32(*dst);
            w.u32(*a);
            w.u32(*b);
        }
        RInstr::Un { op, dst, a } => {
            w.u8(3);
            w.u8(UN_OPS.iter().position(|o| o == op).expect("known unop") as u8);
            w.u32(*dst);
            w.u32(*a);
        }
        RInstr::Load { dst, addr, offset, width } => {
            w.u8(4);
            w.u32(*dst);
            w.u32(*addr);
            w.i64(*offset);
            w.u8(width_tag(*width));
        }
        RInstr::Store { addr, offset, src, width } => {
            w.u8(5);
            w.u32(*addr);
            w.i64(*offset);
            w.u32(*src);
            w.u8(width_tag(*width));
        }
        RInstr::FrameAddr { dst, offset } => {
            w.u8(6);
            w.u32(*dst);
            w.i64(*offset);
        }
        RInstr::VarArg { dst, idx } => {
            w.u8(7);
            w.u32(*dst);
            w.u32(*idx);
        }
        RInstr::Call { dst, target, args } => {
            w.u8(8);
            w.opt_u32(*dst);
            match target {
                CallTarget::Func(f) => {
                    w.u8(0);
                    w.u32(*f);
                }
                CallTarget::Intrinsic(i) => {
                    w.u8(1);
                    w.u32(*i);
                }
            }
            w.regs(args);
        }
        RInstr::CallInd { dst, target, args } => {
            w.u8(9);
            w.opt_u32(*dst);
            w.u32(*target);
            w.regs(args);
        }
        RInstr::Jump { target } => {
            w.u8(10);
            w.u64(*target as u64);
        }
        RInstr::Branch { cond, then_to, else_to } => {
            w.u8(11);
            w.u32(*cond);
            w.u64(*then_to as u64);
            w.u64(*else_to as u64);
        }
        RInstr::Ret { value } => {
            w.u8(12);
            w.opt_u32(*value);
        }
        RInstr::Nop => w.u8(13),
    }
}

fn read_instr(r: &mut ByteReader) -> Result<RInstr, String> {
    Ok(match r.u8()? {
        0 => RInstr::Const { dst: r.u32()?, value: r.i64()? },
        1 => RInstr::Mov { dst: r.u32()?, src: r.u32()? },
        2 => {
            let op = *BIN_OPS.get(r.u8()? as usize).ok_or("image: bad binop tag")?;
            RInstr::Bin { op, dst: r.u32()?, a: r.u32()?, b: r.u32()? }
        }
        3 => {
            let op = *UN_OPS.get(r.u8()? as usize).ok_or("image: bad unop tag")?;
            RInstr::Un { op, dst: r.u32()?, a: r.u32()? }
        }
        4 => RInstr::Load {
            dst: r.u32()?,
            addr: r.u32()?,
            offset: r.i64()?,
            width: width_untag(r.u8()?)?,
        },
        5 => RInstr::Store {
            addr: r.u32()?,
            offset: r.i64()?,
            src: r.u32()?,
            width: width_untag(r.u8()?)?,
        },
        6 => RInstr::FrameAddr { dst: r.u32()?, offset: r.i64()? },
        7 => RInstr::VarArg { dst: r.u32()?, idx: r.u32()? },
        8 => {
            let dst = r.opt_u32()?;
            let target = match r.u8()? {
                0 => CallTarget::Func(r.u32()?),
                1 => CallTarget::Intrinsic(r.u32()?),
                other => return Err(format!("image: bad call target tag {other}")),
            };
            RInstr::Call { dst, target, args: r.regs()? }
        }
        9 => RInstr::CallInd { dst: r.opt_u32()?, target: r.u32()?, args: r.regs()? },
        10 => RInstr::Jump { target: r.u64()? as usize },
        11 => RInstr::Branch {
            cond: r.u32()?,
            then_to: r.u64()? as usize,
            else_to: r.u64()? as usize,
        },
        12 => RInstr::Ret { value: r.opt_u32()? },
        13 => RInstr::Nop,
        other => return Err(format!("image: bad instruction tag {other}")),
    })
}

/// Encode an [`Image`] into the stable binary form used on the wire (and
/// by [`image_hash`]). Two images encode identically exactly when they are
/// `==` — every function, instruction, address, and data byte is covered.
pub fn encode_image_bytes(img: &Image) -> Vec<u8> {
    let mut w = ByteWriter(Vec::with_capacity(4096));
    w.0.extend_from_slice(IMAGE_MAGIC);
    w.u32(img.funcs.len() as u32);
    for f in &img.funcs {
        w.str(&f.name);
        w.u64(f.addr);
        w.u64(f.size);
        w.u32(f.params);
        w.u32(f.nregs);
        w.u32(f.frame_size);
        w.u32(f.body.len() as u32);
        for i in &f.body {
            write_instr(&mut w, i);
        }
        for &a in &f.instr_addrs {
            w.u64(a);
        }
        for &s in &f.instr_sizes {
            w.u16(s);
        }
    }
    w.u32(img.addr_to_func.len() as u32);
    for (&addr, &idx) in img.addr_to_func.iter() {
        w.u64(addr);
        w.u32(idx);
    }
    w.u32(img.data.len() as u32);
    w.0.extend_from_slice(&img.data);
    w.u64(img.data_base);
    w.u64(img.heap_base);
    w.u32(img.symbols.len() as u32);
    for (name, loc) in img.symbols.iter() {
        w.str(name);
        match loc {
            SymbolLoc::Func(i) => {
                w.u8(0);
                w.u64(u64::from(*i));
            }
            SymbolLoc::Data(a) => {
                w.u8(1);
                w.u64(*a);
            }
        }
    }
    w.u32(img.intrinsics.len() as u32);
    for s in &img.intrinsics {
        w.str(s);
    }
    w.u64(img.text_size);
    w.opt_u32(img.entry);
    w.0
}

/// Decode an image from its stable binary form.
pub fn decode_image_bytes(bytes: &[u8]) -> Result<Image, String> {
    let mut r = ByteReader { bytes, pos: 0 };
    if r.take(IMAGE_MAGIC.len())? != IMAGE_MAGIC {
        return Err("image: bad magic".to_string());
    }
    // Counts are untrusted: nothing is reserved ahead of the bytes read.
    let mut funcs = Vec::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let addr = r.u64()?;
        let size = r.u64()?;
        let params = r.u32()?;
        let nregs = r.u32()?;
        let frame_size = r.u32()?;
        let nbody = r.u32()? as usize;
        let body = (0..nbody).map(|_| read_instr(&mut r)).collect::<Result<Vec<_>, _>>()?;
        let instr_addrs = (0..nbody).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
        let instr_sizes = (0..nbody).map(|_| r.u16()).collect::<Result<Vec<_>, _>>()?;
        funcs.push(Arc::new(ImageFunc {
            name,
            addr,
            size,
            params,
            nregs,
            frame_size,
            body,
            instr_addrs,
            instr_sizes,
        }));
    }
    // Map keys are encoded in ascending order; anything else would not
    // re-encode to the same bytes.
    let mut addr_to_func = BTreeMap::new();
    for _ in 0..r.u32()? {
        let addr = r.u64()?;
        if addr_to_func.last_key_value().is_some_and(|(&prev, _)| prev >= addr) {
            return Err(format!("image: function address {addr:#x} out of order"));
        }
        addr_to_func.insert(addr, r.u32()?);
    }
    let ndata = r.u32()? as usize;
    let data = r.take(ndata)?.to_vec();
    let data_base = r.u64()?;
    let heap_base = r.u64()?;
    let mut symbols = BTreeMap::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        if symbols.last_key_value().is_some_and(|(prev, _)| *prev >= name) {
            return Err(format!("image: symbol `{name}` out of order"));
        }
        let loc = match r.u8()? {
            0 => SymbolLoc::Func(
                u32::try_from(r.u64()?).map_err(|_| "image: function index out of range")?,
            ),
            1 => SymbolLoc::Data(r.u64()?),
            other => return Err(format!("image: bad symbol tag {other}")),
        };
        symbols.insert(name, loc);
    }
    let nintr = r.u32()? as usize;
    let intrinsics = (0..nintr).map(|_| r.str()).collect::<Result<Vec<_>, _>>()?;
    let text_size = r.u64()?;
    let entry = r.opt_u32()?;
    if r.pos != bytes.len() {
        return Err(format!("image: trailing garbage at byte {}", r.pos));
    }
    Ok(Image {
        funcs,
        addr_to_func: Arc::new(addr_to_func),
        data,
        data_base,
        heap_base,
        symbols: Arc::new(symbols),
        intrinsics,
        text_size,
        entry,
    })
}

/// Encode an image as a lowercase-hex string for the JSON wire.
pub fn encode_image(img: &Image) -> String {
    let bytes = encode_image_bytes(img);
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decode an image from [`encode_image`]'s hex form.
pub fn decode_image(hex: &str) -> Result<Image, String> {
    if !hex.len().is_multiple_of(2) {
        return Err("image: odd hex length".to_string());
    }
    let bytes = hex
        .as_bytes()
        .chunks_exact(2)
        .map(|c| {
            u8::from_str_radix(std::str::from_utf8(c).map_err(|_| "image: bad hex")?, 16)
                .map_err(|_| "image: bad hex".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    decode_image_bytes(&bytes)
}

/// Stable 64-bit FNV-1a hash of an image's binary encoding. Two images
/// hash equal exactly when they are byte-identical, so a client can check
/// server builds against local ones without shipping the image.
pub fn image_hash(img: &Image) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in encode_image_bytes(img) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// generated protocol documentation
// ---------------------------------------------------------------------------

/// Render the protocol reference as markdown — the generator for
/// `docs/protocol.md` (a test pins the file to this output, the same
/// mechanism as `docs/diagnostics.md`).
pub fn protocol_markdown() -> String {
    let mut out = String::new();
    out.push_str("# The `knitc serve` wire protocol\n\n");
    out.push_str("Generated by `knit::proto::protocol_markdown()`; do not edit by hand.\n\n");
    out.push_str(&format!("Protocol version: **{VERSION}**.\n\n"));
    out.push_str(
        "Transport: newline-delimited JSON over a local socket (Unix domain \
         socket, TCP loopback fallback). One request per line, one response \
         per line, in order; a connection that issued `watch` additionally \
         receives asynchronous `event` lines. Every connection must open \
         with `hello`; a version mismatch is rejected with a `K0016` \
         diagnostic, a malformed request with `K0017`. Diagnostics use the \
         exact `--error-format=json` object shape.\n\n",
    );
    out.push_str("## Requests\n\n");
    let reqs: &[(&str, Request)] = &[
        ("version handshake (must be first)", Request::Hello { version: VERSION }),
        (
            "create or reconfigure a named session",
            Request::Open { session: "ci".to_string(), options: SessionOptions::new("App") },
        ),
        (
            "register a `.unit` file (duplicates are errors)",
            Request::LoadUnits {
                session: "ci".to_string(),
                file: "app.unit".to_string(),
                text: "unit App = { ... }".to_string(),
            },
        ),
        (
            "re-register a `.unit` file (replaces same-named declarations)",
            Request::UpdateUnit {
                session: "ci".to_string(),
                file: "app.unit".to_string(),
                text: "unit App = { ... }".to_string(),
            },
        ),
        (
            "add or replace one C source or header",
            Request::UpdateSource {
                session: "ci".to_string(),
                path: "app.c".to_string(),
                text: "int main() { return 0; }".to_string(),
            },
        ),
        (
            "build (incrementally); `want_image` ships the image back as hex",
            Request::Build { session: "ci".to_string(), want_image: false },
        ),
        (
            "run the cross-unit lints",
            Request::Lint {
                session: "ci".to_string(),
                config: LintOptions {
                    overrides: vec![("unused-import".to_string(), LintLevel::Deny)],
                    deny_warnings: false,
                },
            },
        ),
        ("describe a diagnostic code", Request::Explain { code: "K0011".to_string() }),
        (
            "run the PGO flatten advisor over a `machine::Profile` JSON document",
            Request::PgoSuggest { session: "ci".to_string(), profile: "{ ... }".to_string() },
        ),
        (
            "subscribe this connection to a session's build events",
            Request::Watch { session: "ci".to_string() },
        ),
        ("drop a session", Request::Close { session: "ci".to_string() }),
        ("liveness probe", Request::Ping),
        ("stop the server after draining in-flight requests", Request::Shutdown),
    ];
    for (desc, req) in reqs {
        out.push_str(&format!("- {desc}:\n\n  ```json\n  {}\n  ```\n\n", req.to_json()));
    }
    out.push_str("## Responses\n\n");
    let resps: &[(&str, Response)] = &[
        ("handshake accepted", Response::Hello { version: VERSION }),
        ("generic success", Response::Ok),
        (
            "a session was opened; `created` distinguishes fresh from \
             reconfigured",
            Response::Opened { created: true },
        ),
        (
            "a build completed; `outcome.image_hash` is the stable FNV-1a hash \
             of the image's binary encoding (equal exactly when images are \
             byte-identical), `outcome.watched` the dependency-ledger paths a \
             file watcher needs to poll",
            Response::Built {
                outcome: BuildOutcome {
                    root: "App".to_string(),
                    instances: 1,
                    units_reused: 1,
                    objects: 2,
                    text_size: 64,
                    cache_hits: 1,
                    jobs: 1,
                    image_hash: 7,
                    phases: vec![("elaborate".to_string(), 10)],
                    schedule: vec!["App.init".to_string()],
                    exports: vec![("main.main".to_string(), "main_main_i0".to_string())],
                    unit_compiles: vec![("App".to_string(), 3, true)],
                    watched: vec!["app.c".to_string()],
                    ..BuildOutcome::default()
                },
                image: None,
            },
        ),
        (
            "lints ran; diagnostics use the `--error-format=json` shape",
            Response::Linted { units_analyzed: 4, warnings: 1, errors: 0, diagnostics: vec![] },
        ),
        (
            "a diagnostic code resolved",
            Response::Explained {
                code: "K1002".to_string(),
                summary: "an imported bundle member is never referenced".to_string(),
                example: "imports [ log : Log ];".to_string(),
                lint: Some(("unused-import".to_string(), LintLevel::Warn)),
            },
        ),
        (
            "the PGO advisor's rendered report",
            Response::Suggested { text: "suggestion #1: ...".to_string() },
        ),
        ("watch subscription accepted", Response::Subscribed { session: "ci".to_string() }),
        (
            "asynchronous build notification; `seq` is per-session and \
             gap-free",
            Response::Event(BuildEvent {
                session: "ci".to_string(),
                seq: 3,
                ok: true,
                units_compiled: 1,
                units_reused: 11,
                text_size: 4096,
                image_hash: 7,
            }),
        ),
        ("a request failed", Response::error("K0016", "protocol version mismatch: ...", vec![])),
        ("liveness reply", Response::Pong),
        ("shutdown acknowledged", Response::Bye),
    ];
    for (desc, resp) in resps {
        out.push_str(&format!("- {desc}:\n\n  ```json\n  {}\n  ```\n\n", resp.to_json()));
    }
    out.push_str("## Byte identity\n\n");
    out.push_str(
        "An image built through the server is byte-identical to the image a \
         direct `BuildSession` produces for the same request stream — the \
         server is a concurrency and caching layer, never a semantic one. \
         `tests/server.rs` enforces this end to end (decode the wire image, \
         compare `==` against a local build); the bench smoke test \
         `served_kernel_images_match_direct_builds_and_dedupe_across_clients` \
         compares the deep-lock kernel's wire bytes with a direct build's, \
         and perfbench's `serve-edit` oracle compares each client's last \
         image hash with a direct build's.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_json_round_trips() {
        let reqs = vec![
            Request::Hello { version: VERSION },
            Request::Open {
                session: "s".to_string(),
                options: SessionOptions {
                    root: "R\"x".to_string(),
                    entry: Some("main".to_string()),
                    check_constraints: false,
                    flatten: true,
                    jobs: Some(3),
                    default_flags: vec!["-O2".to_string()],
                    runtime_symbols: vec!["__print".to_string()],
                    profile: Some("{}\n".to_string()),
                },
            },
            Request::UpdateSource {
                session: "s".to_string(),
                path: "a.c".to_string(),
                text: "int x;\n\t\"quoted\"".to_string(),
            },
            Request::Build { session: "s".to_string(), want_image: true },
            Request::Lint {
                session: "s".to_string(),
                config: LintOptions {
                    overrides: vec![("unused-import".to_string(), LintLevel::Allow)],
                    deny_warnings: true,
                },
            },
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            let j = r.to_json();
            assert!(!j.contains('\n'), "wire form must be one line: {j}");
            assert_eq!(Request::from_json(&j).unwrap(), r, "{j}");
        }
    }

    #[test]
    fn response_json_round_trips_with_exact_u64() {
        let outcome = BuildOutcome {
            root: "R".to_string(),
            image_hash: u64::MAX - 1,
            text_size: 1 << 60,
            phases: vec![("link".to_string(), 123)],
            unit_compiles: vec![("U".to_string(), 5, false)],
            watched: vec!["a.c".to_string()],
            ..BuildOutcome::default()
        };
        let r = Response::Built { outcome: outcome.clone(), image: Some("00ff".to_string()) };
        let j = r.to_json();
        assert_eq!(Response::from_json(&j).unwrap(), r, "{j}");

        // A 1 MiB image string: decoding is linear in the line length.
        let image = "0123456789abcdef".repeat(1 << 16);
        let r = Response::Built { outcome, image: Some(image) };
        assert_eq!(Response::from_json(&r.to_json()).unwrap(), r);

        for created in [false, true] {
            let o = Response::Opened { created };
            assert_eq!(Response::from_json(&o.to_json()).unwrap(), o);
        }

        let e = Response::Event(BuildEvent {
            session: "s".to_string(),
            seq: u64::MAX,
            ok: false,
            units_compiled: 0,
            units_reused: 0,
            text_size: 0,
            image_hash: 0x8000_0000_0000_0001,
        });
        let j = e.to_json();
        assert_eq!(Response::from_json(&j).unwrap(), e, "{j}");
    }

    #[test]
    fn handshake_mismatch_is_k0016_and_malformed_is_k0017() {
        let v = Response::version_mismatch(99);
        let Response::Error { diagnostics } = &v else { panic!("not an error") };
        assert_eq!(diagnostics[0].code, "K0016");
        let j = v.to_json();
        assert_eq!(Response::from_json(&j).unwrap(), v);

        let m = Response::malformed("nope");
        let Response::Error { diagnostics } = &m else { panic!("not an error") };
        assert_eq!(diagnostics[0].code, "K0017");
    }
}
