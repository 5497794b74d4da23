//! Golden wire-format tests for the composition-server protocol
//! (`knit::proto`). Every verb's canonical JSON bytes are pinned here —
//! a byte-level change to any of these lines is a protocol break and must
//! bump [`knit::proto::VERSION`].

use knit::proto::{self, BuildEvent, BuildOutcome, LintOptions, Request, Response, SessionOptions};
use knit::{BuildOptions, Diagnostic, LintLevel, SessionHandle, Severity};
use proptest::prelude::*;

/// Serialize, pin the exact bytes, and confirm the bytes parse back to the
/// same request.
fn pin_request(req: Request, golden: &str) {
    assert_eq!(req.to_json(), golden, "wire bytes changed for {req:?}");
    assert_eq!(Request::from_json(golden).expect("golden parses"), req);
}

fn pin_response(resp: Response, golden: &str) {
    assert_eq!(resp.to_json(), golden, "wire bytes changed for {resp:?}");
    assert_eq!(Response::from_json(golden).expect("golden parses"), resp);
}

#[test]
fn request_wire_bytes_are_pinned() {
    pin_request(Request::Hello { version: 1 }, r#"{"req":"hello","version":1}"#);
    pin_request(
        Request::Open { session: "web".into(), options: SessionOptions::new("WebServer") },
        r#"{"req":"open","session":"web","options":{"root":"WebServer","entry":null,"check_constraints":true,"flatten":true,"jobs":null,"default_flags":[],"runtime_symbols":[],"profile":null}}"#,
    );
    let mut options = SessionOptions::new("App");
    options.entry = Some("boot".into());
    options.check_constraints = false;
    options.flatten = false;
    options.jobs = Some(4);
    options.default_flags = vec!["-O1".into()];
    options.runtime_symbols = vec!["printk".into()];
    options.profile = Some(r#"{"version":1}"#.into());
    pin_request(
        Request::Open { session: "s".into(), options },
        r#"{"req":"open","session":"s","options":{"root":"App","entry":"boot","check_constraints":false,"flatten":false,"jobs":4,"default_flags":["-O1"],"runtime_symbols":["printk"],"profile":"{\"version\":1}"}}"#,
    );
    pin_request(
        Request::LoadUnits {
            session: "s".into(),
            file: "a.unit".into(),
            text: "unit A = {}".into(),
        },
        r#"{"req":"load_units","session":"s","file":"a.unit","text":"unit A = {}"}"#,
    );
    pin_request(
        Request::UpdateUnit { session: "s".into(), file: "a.unit".into(), text: "x\ny".into() },
        r#"{"req":"update_unit","session":"s","file":"a.unit","text":"x\ny"}"#,
    );
    pin_request(
        Request::UpdateSource { session: "s".into(), path: "app.c".into(), text: "int x;".into() },
        r#"{"req":"update_source","session":"s","path":"app.c","text":"int x;"}"#,
    );
    pin_request(
        Request::Build { session: "s".into(), want_image: true },
        r#"{"req":"build","session":"s","want_image":true}"#,
    );
    pin_request(
        Request::Lint {
            session: "s".into(),
            config: LintOptions {
                overrides: vec![("dead-unit".into(), LintLevel::Deny)],
                deny_warnings: true,
            },
        },
        r#"{"req":"lint","session":"s","config":{"overrides":[["dead-unit","deny"]],"deny_warnings":true}}"#,
    );
    pin_request(Request::Explain { code: "K0016".into() }, r#"{"req":"explain","code":"K0016"}"#);
    pin_request(
        Request::PgoSuggest { session: "s".into(), profile: "{}".into() },
        r#"{"req":"pgo_suggest","session":"s","profile":"{}"}"#,
    );
    pin_request(Request::Watch { session: "s".into() }, r#"{"req":"watch","session":"s"}"#);
    pin_request(Request::Close { session: "s".into() }, r#"{"req":"close","session":"s"}"#);
    pin_request(Request::Ping, r#"{"req":"ping"}"#);
    pin_request(Request::Shutdown, r#"{"req":"shutdown"}"#);
}

#[test]
fn response_wire_bytes_are_pinned() {
    pin_response(Response::Hello { version: 1 }, r#"{"resp":"hello","version":1}"#);
    pin_response(Response::Ok, r#"{"resp":"ok"}"#);
    pin_response(Response::Opened { created: true }, r#"{"resp":"opened","created":true}"#);
    pin_response(Response::Opened { created: false }, r#"{"resp":"opened","created":false}"#);
    pin_response(
        Response::Linted {
            units_analyzed: 4,
            warnings: 1,
            errors: 0,
            diagnostics: vec![Diagnostic {
                code: "K1001",
                severity: Severity::Warning,
                message: "unit `Dead` is never instantiated".into(),
                span: Some(("a.unit".into(), 3, 5)),
                notes: vec!["remove it".into()],
            }],
        },
        r#"{"resp":"linted","units_analyzed":4,"warnings":1,"errors":0,"diagnostics":[{"code":"K1001","severity":"warning","message":"unit `Dead` is never instantiated","span":{"file":"a.unit","line":3,"col":5},"notes":["remove it"]}]}"#,
    );
    pin_response(
        Response::Explained {
            code: "K1004".into(),
            summary: "an initializer uses an import before it".into(),
            example: "init f depends on g".into(),
            lint: Some(("init-order-use".into(), LintLevel::Warn)),
        },
        r#"{"resp":"explained","code":"K1004","summary":"an initializer uses an import before it","example":"init f depends on g","lint":{"name":"init-order-use","default_level":"warn"}}"#,
    );
    pin_response(
        Response::Suggested { text: "suggestion #1\n".into() },
        r#"{"resp":"suggested","text":"suggestion #1\n"}"#,
    );
    pin_response(
        Response::Subscribed { session: "web".into() },
        r#"{"resp":"subscribed","session":"web"}"#,
    );
    pin_response(
        Response::Event(BuildEvent {
            session: "web".into(),
            seq: 7,
            ok: true,
            units_compiled: 1,
            units_reused: 5,
            text_size: 718,
            image_hash: u64::MAX,
        }),
        r#"{"resp":"event","session":"web","seq":7,"ok":true,"units_compiled":1,"units_reused":5,"text_size":718,"image_hash":18446744073709551615}"#,
    );
    pin_response(Response::Pong, r#"{"resp":"pong"}"#);
    pin_response(Response::Bye, r#"{"resp":"bye"}"#);
}

/// The handshake rejections are part of the wire contract: old clients
/// must be able to parse them forever.
#[test]
fn handshake_rejections_are_pinned() {
    pin_response(
        Response::version_mismatch(999),
        r#"{"resp":"error","diagnostics":[{"code":"K0016","severity":"error","message":"protocol version mismatch: client speaks v999, server speaks v1","span":null,"notes":["upgrade so both ends speak protocol v1"]}]}"#,
    );
    pin_response(
        Response::malformed("request must be a JSON object"),
        r#"{"resp":"error","diagnostics":[{"code":"K0017","severity":"error","message":"malformed protocol request: request must be a JSON object","span":null,"notes":["see docs/protocol.md for the wire format"]}]}"#,
    );
}

/// A `built` response round-trips a fully-populated outcome, including
/// exact u64 extremes in the hash and micros fields.
#[test]
fn built_outcome_wire_bytes_are_pinned() {
    let outcome = BuildOutcome {
        root: "App".into(),
        instances: 2,
        units_compiled: 1,
        units_reused: 1,
        objects: 3,
        flatten_groups: 0,
        text_size: 99,
        cache_hits: 1,
        cache_misses: 1,
        jobs: 2,
        image_hash: u64::MAX,
        phases: vec![("compile".into(), 1234)],
        schedule: vec!["init app".into()],
        constraints: Some((3, 2, 1)),
        exports: vec![("m".into(), "main_m_i0".into())],
        unit_compiles: vec![("App".into(), 1000, false)],
        watched: vec!["app.c".into()],
    };
    let resp = Response::Built { outcome, image: None };
    pin_response(
        resp,
        r#"{"resp":"built","outcome":{"root":"App","instances":2,"units_compiled":1,"units_reused":1,"objects":3,"flatten_groups":0,"text_size":99,"cache_hits":1,"cache_misses":1,"jobs":2,"image_hash":18446744073709551615,"phases":[["compile",1234]],"schedule":["init app"],"constraints":{"constraints":3,"vars":2,"annotated_units":1},"exports":[["m","main_m_i0"]],"unit_compiles":[["App",1000,false]],"watched":["app.c"]},"image":null}"#,
    );
}

/// Schema-level decode errors are part of the contract too: clients and
/// logs show them verbatim inside K0017 diagnostics. Each malformed line
/// maps to its exact message.
#[test]
fn schema_errors_are_pinned() {
    let requests: &[(&str, &str)] = &[
        (r#"[]"#, "request must be a JSON object"),
        (r#"{}"#, "request missing `req`"),
        (r#"{"req":3}"#, "request missing `req`"),
        (r#"{"req":"frobnicate"}"#, "unknown request kind `frobnicate`"),
        (r#"{"req":"hello"}"#, "hello missing `version`"),
        (r#"{"req":"hello","version":4294967296}"#, "hello: version out of range"),
        (r#"{"req":"build"}"#, "request missing `session`"),
        (r#"{"req":"load_units","session":"s","file":"f"}"#, "request missing `text`"),
        (r#"{"req":"update_source","session":"s","path":3,"text":""}"#, "request missing `path`"),
        (r#"{"req":"explain"}"#, "request missing `code`"),
        (r#"{"req":"pgo_suggest","session":"s"}"#, "request missing `profile`"),
        (r#"{"req":"open","session":"s"}"#, "open missing `options`"),
        (r#"{"req":"open","options":{"root":"R"}}"#, "request missing `session`"),
        (r#"{"req":"open","session":"s","options":{}}"#, "options missing `root`"),
        (
            r#"{"req":"open","session":"s","options":{"root":"R","default_flags":"-O2"}}"#,
            "options.default_flags must be an array",
        ),
        (
            r#"{"req":"open","session":"s","options":{"root":"R","runtime_symbols":[1]}}"#,
            "options.runtime_symbols must hold strings",
        ),
        (r#"{"req":"lint","session":"s"}"#, "lint missing `config`"),
        (
            r#"{"req":"lint","session":"s","config":{"overrides":[["unused-import","loud"]]}}"#,
            "bad lint level `loud`",
        ),
        (
            r#"{"req":"lint","config":{"overrides":[["unused-import","loud"]]}}"#,
            "bad lint level `loud`",
        ),
        (
            r#"{"req":"lint","session":"s","config":{"overrides":[["a"]]}}"#,
            "lint override must be [name, level]",
        ),
        (
            r#"{"req":"lint","session":"s","config":{"overrides":[3]}}"#,
            "lint override must be [name, level]",
        ),
        (
            r#"{"req":"lint","session":"s","config":{"overrides":[[1,"warn"]]}}"#,
            "lint override name must be a string",
        ),
        (
            r#"{"req":"lint","session":"s","config":{"overrides":[["a",1]]}}"#,
            "lint override level must be a string",
        ),
        // JSON syntax errors keep the protocol codec's wording.
        (r#"{"req":"#, "json: unexpected byte 7"),
        (r#"{"req":"ping"} x"#, "json: trailing garbage at byte 15"),
        (r#"{"req":"ping""#, "json: expected `,` or `}` at byte 13"),
        (r#"{"req":"\ud835"}"#, "json: lone surrogate"),
    ];
    for (line, want) in requests {
        assert_eq!(Request::from_json(line).unwrap_err(), *want, "request {line}");
    }

    let mut built = Response::Built { outcome: BuildOutcome::default(), image: None }.to_json();
    built = built.replace(r#""phases":[]"#, r#""phases":[["a"]]"#);
    let responses: &[(&str, &str)] = &[
        (r#"3"#, "response must be a JSON object"),
        (r#"{}"#, "response missing `resp`"),
        (r#"{"resp":"nope"}"#, "unknown response kind `nope`"),
        (r#"{"resp":"hello","version":1.5}"#, "hello missing `version`"),
        (r#"{"resp":"opened"}"#, "opened missing `created`"),
        (r#"{"resp":"opened","created":1}"#, "opened missing `created`"),
        (r#"{"resp":"built"}"#, "built missing `outcome`"),
        (r#"{"resp":"built","outcome":{}}"#, "outcome missing `root`"),
        (r#"{"resp":"built","outcome":{"root":"R"}}"#, "outcome missing `instances`"),
        (&built, "phase must be [name, micros]"),
        (
            r#"{"resp":"linted","units_analyzed":1,"warnings":0,"errors":0}"#,
            "linted missing `diagnostics`",
        ),
        (r#"{"resp":"linted","diagnostics":[]}"#, "response missing `units_analyzed`"),
        (r#"{"resp":"error"}"#, "error missing `diagnostics`"),
        (r#"{"resp":"error","diagnostics":[3]}"#, "diagnostic must be an object"),
        (r#"{"resp":"error","diagnostics":[{}]}"#, "diagnostic missing `code`"),
        (r#"{"resp":"error","diagnostics":[{"code":"K9999"}]}"#, "unknown diagnostic code `K9999`"),
        (
            r#"{"resp":"error","diagnostics":[{"code":"K0017","severity":"fatal"}]}"#,
            r#"bad diagnostic severity Some("fatal")"#,
        ),
        (r#"{"resp":"error","diagnostics":[{"code":"K0017"}]}"#, "bad diagnostic severity None"),
        (
            r#"{"resp":"error","diagnostics":[{"code":"K0017","severity":"error"}]}"#,
            "diagnostic missing `message`",
        ),
        (
            r#"{"resp":"error","diagnostics":[{"code":"K0017","severity":"error","message":"m","span":3}]}"#,
            "diagnostic span must be an object",
        ),
        (
            r#"{"resp":"error","diagnostics":[{"code":"K0017","severity":"error","message":"m","span":{"file":"f","line":1}}]}"#,
            "span missing `col`",
        ),
        (
            r#"{"resp":"error","diagnostics":[{"code":"K0017","severity":"error","message":"m","span":{"file":"f","line":4294967296,"col":1}}]}"#,
            "span `line` out of range",
        ),
        (
            r#"{"resp":"error","diagnostics":[{"code":"K0017","severity":"error","message":"m","notes":[1]}]}"#,
            "notes must be strings",
        ),
        (r#"{"resp":"explained","code":"K1002","summary":"s"}"#, "explained missing `example`"),
        (
            r#"{"resp":"explained","code":"K1002","summary":"s","example":"e","lint":{"name":"n","default_level":"loud"}}"#,
            "bad lint level `loud`",
        ),
        (r#"{"resp":"explained","lint":{"default_level":"warn"}}"#, "lint missing `name`"),
        (r#"{"resp":"suggested"}"#, "suggested missing `text`"),
        (r#"{"resp":"subscribed","session":null}"#, "subscribed missing `session`"),
        (r#"{"resp":"event","session":"s","seq":-1}"#, "event missing `seq`"),
        (
            r#"{"resp":"event","session":"s","seq":1,"ok":true,"units_compiled":1,"units_reused":0,"text_size":1}"#,
            "event missing `image_hash`",
        ),
    ];
    for (line, want) in responses {
        assert_eq!(Response::from_json(line).unwrap_err(), *want, "response {line}");
    }

    let profiles: &[(&str, &str)] = &[
        (r#"[]"#, "profile: top level must be an object"),
        (r#"{"edges": 3}"#, "profile: `edges` must be an array"),
        (r#"{"edges": [3]}"#, "profile: edge 0 must be an object"),
        (r#"{"edges": [{"caller": "a"}]}"#, "profile: edge 0 missing `callee`"),
        (r#"{"edges": [{"callee": "b", "count": 1}]}"#, "profile: edge 0 missing `caller`"),
        (r#"{"edges": [{"caller": "a", "callee": "b"}]}"#, "profile: edge 0 missing `count`"),
        (r#"{"funcs": {}}"#, "profile: `funcs` must be an array"),
        (r#"{"funcs": [{"name": "f"}]}"#, "profile: func 0 missing `instructions`"),
        (
            r#"{"funcs": [{"name": "f", "instructions": 1}, {"instructions": 1}]}"#,
            "profile: func 1 missing `name`",
        ),
    ];
    for (line, want) in profiles {
        assert_eq!(machine::Profile::from_json(line).unwrap_err(), *want, "profile {line}");
    }
}

/// Hostile nesting is a decode error, not a stack overflow: every decoder
/// that reads untrusted JSON rejects a line of 100,000 `[` on a thread
/// with the 2 MiB stack a server connection thread gets.
#[test]
fn deep_nesting_is_rejected_on_a_connection_sized_stack() {
    let line = "[".repeat(100_000);
    for what in ["request", "response", "profile"] {
        let line = line.clone();
        let rejected = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || match what {
                "request" => Request::from_json(&line).is_err(),
                "response" => Response::from_json(&line).is_err(),
                _ => machine::Profile::from_json(&line).is_err(),
            })
            .expect("spawns")
            .join()
            .expect("decoder thread survives");
        assert!(rejected, "{what} decoder accepted 100,000 `[`");
    }
}

// ---------------------------------------------------------------------------
// the image codec
// ---------------------------------------------------------------------------

fn tiny_image() -> cobj::Image {
    let handle = SessionHandle::new(BuildOptions::root("App").jobs(1).build());
    handle
        .load_units(
            "app.unit",
            r#"
            bundletype Main = { main }
            unit App = { exports [ main : Main ]; files { "app.c" }; }
            "#,
        )
        .unwrap();
    handle.update_source("app.c", "int main() { return 42; }");
    handle.build().unwrap().image
}

/// The wire image decodes back to a `==` image (and `PartialEq` on
/// `Image` compares every byte — this is the byte-identity safety net).
#[test]
fn image_codec_round_trips_byte_identically() {
    let image = tiny_image();
    let wire = proto::encode_image(&image);
    let decoded = proto::decode_image(&wire).expect("decodes");
    assert_eq!(decoded, image);
    assert_eq!(proto::image_hash(&decoded), proto::image_hash(&image));
}

/// A KIMG1 image written field by field: `func` (if any) is one function
/// `g` at 0x100 whose body is the one encoded instruction, `addrs` the
/// address-to-function entries, `symbols` the encoded locations of
/// symbols all named `f`, and `entry` the encoded entry point.
fn raw_image(func: Option<&[u8]>, addrs: &[u64], symbols: &[&[u8]], entry: &[u8]) -> Vec<u8> {
    let mut b = b"KIMG1".to_vec();
    b.extend(u32::from(func.is_some()).to_le_bytes());
    if let Some(instr) = func {
        b.extend(1u32.to_le_bytes());
        b.push(b'g');
        b.extend(0x100u64.to_le_bytes()); // addr
        b.extend(4u64.to_le_bytes()); // size
        b.extend([0u8; 12]); // params, nregs, frame size
        b.extend(1u32.to_le_bytes());
        b.extend(instr);
        b.extend(0x100u64.to_le_bytes());
        b.extend(4u16.to_le_bytes());
    }
    b.extend((addrs.len() as u32).to_le_bytes());
    for a in addrs {
        b.extend(a.to_le_bytes());
        b.extend(0u32.to_le_bytes());
    }
    b.extend(0u32.to_le_bytes()); // data
    b.extend([0u8; 16]); // data and heap bases
    b.extend((symbols.len() as u32).to_le_bytes());
    for loc in symbols {
        b.extend(1u32.to_le_bytes());
        b.push(b'f');
        b.extend(*loc);
    }
    b.extend(0u32.to_le_bytes()); // intrinsics
    b.extend(4u64.to_le_bytes()); // text size
    b.extend(entry);
    b
}

#[test]
fn image_codec_rejects_corruption() {
    let image = tiny_image();
    let mut bytes = proto::encode_image_bytes(&image);
    assert!(proto::decode_image_bytes(&bytes[..bytes.len() - 1]).is_err(), "truncation");
    bytes.push(0);
    assert!(proto::decode_image_bytes(&bytes).is_err(), "trailing garbage");
    assert!(proto::decode_image_bytes(b"not an image").is_err(), "bad magic");
    assert!(proto::decode_image("zz").is_err(), "bad hex");
    // A huge function count is read against the bytes, not reserved.
    assert_eq!(
        proto::decode_image_bytes(b"KIMG1\xff\xff\xff\xff").unwrap_err(),
        "image: truncated at byte 9"
    );

    // The hand-written image is valid; each case below changes one field
    // to bytes the encoder never writes.
    let func0: &[u8] = &[0, 0, 0, 0, 0, 0, 0, 0, 0];
    let ret_none: &[u8] = &[12, 0];
    let good = raw_image(Some(ret_none), &[0x100], &[func0], &[1, 0, 0, 0, 0]);
    let decoded = proto::decode_image_bytes(&good).expect("hand-written image decodes");
    assert_eq!(proto::encode_image_bytes(&decoded), good, "and re-encodes to its bytes");
    let wide: &[u8] = &[0, 0, 0, 0, 0, 1, 0, 0, 0];
    let bad: &[(Vec<u8>, &str)] = &[
        (raw_image(None, &[], &[wide], &[0]), "image: function index out of range"),
        (raw_image(Some(&[12, 2, 0, 0, 0, 0]), &[], &[], &[0]), "image: bad option tag 2"),
        (raw_image(None, &[], &[], &[2, 0, 0, 0, 0]), "image: bad option tag 2"),
        (raw_image(None, &[0x100, 0x100], &[], &[0]), "image: function address 0x100 out of order"),
        (raw_image(None, &[0x200, 0x100], &[], &[0]), "image: function address 0x100 out of order"),
        (raw_image(None, &[], &[func0, func0], &[0]), "image: symbol `f` out of order"),
    ];
    for (bytes, want) in bad {
        assert_eq!(proto::decode_image_bytes(bytes).unwrap_err(), *want, "{bytes:?}");
    }
}

/// The encoded Clack IP router, built once.
fn router_image_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let r = clack::build_clack_router(&clack::ip_router(), false).expect("router builds");
        proto::encode_image_bytes(&r.image)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A truncated or corrupted image is rejected or decodes to an image
    /// that encodes back to exactly the bytes given, and never panics.
    #[test]
    fn image_decoder_rejects_or_round_trips_corruptions(
        at in any::<prop::sample::Index>(),
        flip in 1u8..255,
        truncate in any::<bool>(),
    ) {
        let mut bytes = router_image_bytes().to_vec();
        let at = at.index(bytes.len());
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= flip;
        }
        if let Ok(image) = proto::decode_image_bytes(&bytes) {
            prop_assert!(proto::encode_image_bytes(&image) == bytes, "byte {} re-encodes", at);
        }
    }
}

// ---------------------------------------------------------------------------
// docs/protocol.md is generated from the wire types and must stay in sync
// ---------------------------------------------------------------------------

#[test]
fn protocol_doc_is_in_sync_with_the_wire_types() {
    let want = proto::protocol_markdown();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/protocol.md");
    if std::env::var_os("UPDATE_PROTOCOL_MD").is_some() {
        std::fs::write(path, &want).unwrap();
    }
    let got = std::fs::read_to_string(path).expect(
        "docs/protocol.md missing; regenerate with \
         UPDATE_PROTOCOL_MD=1 cargo test -p knit --test proto",
    );
    assert_eq!(
        got, want,
        "docs/protocol.md is stale; regenerate with \
         UPDATE_PROTOCOL_MD=1 cargo test -p knit --test proto"
    );
}
