//! Diagnostic-quality tests: Knit's value over raw `ld` is largely in its
//! error messages — every rejection must name the unit, the port, or the
//! conflicting annotations involved.

use knit::{build, BuildOptions, KnitError, Program, SourceTree};

fn runtime() -> impl Iterator<Item = String> {
    machine::runtime_symbols()
}

fn try_build(units: &str, files: &[(&str, &str)], root: &str) -> Result<(), String> {
    let mut p = Program::new();
    p.load_str("t.unit", units).map_err(|e| e.to_string())?;
    let mut t = SourceTree::new();
    for (path, src) in files {
        t.add(*path, *src);
    }
    build(&p, &t, &BuildOptions::new(root, runtime())).map(|_| ()).map_err(|e| e.to_string())
}

#[test]
fn unbound_import_names_instance_and_port() {
    let err = try_build(
        r#"
        bundletype T = { f }
        unit Needy = { imports [ fuel : T ]; exports [ out : T ]; files { "n.c" }; }
        unit Sys = { exports [ o : T ]; link { n : Needy; o = n.out; }; }
        "#,
        &[("n.c", "int f() { return 1; }")],
        "Sys",
    )
    .unwrap_err();
    assert!(err.contains("fuel"), "{err}");
    assert!(err.contains("Sys/n"), "{err}");
}

#[test]
fn bundle_mismatch_names_both_types() {
    let err = try_build(
        r#"
        bundletype T = { f }
        bundletype U = { g }
        unit P = { exports [ y : U ]; files { "p.c" }; }
        unit C = { imports [ x : T ]; exports [ o : T ]; files { "c.c" }; }
        unit Sys = { exports [ o : T ]; link { p : P; c : C [ x = p.y ]; o = c.o; }; }
        "#,
        &[("p.c", "int g() { return 1; }"), ("c.c", "int f() { return 2; }")],
        "Sys",
    )
    .unwrap_err();
    assert!(err.contains('T') && err.contains('U'), "{err}");
}

#[test]
fn missing_source_names_unit_and_path() {
    let err = try_build(
        r#"
        bundletype T = { f }
        unit Ghost = { exports [ o : T ]; files { "missing.c" }; }
        unit Sys = { exports [ o : T ]; link { g : Ghost; o = g.o; }; }
        "#,
        &[],
        "Sys",
    )
    .unwrap_err();
    assert!(err.contains("Ghost") && err.contains("missing.c"), "{err}");
}

#[test]
fn compile_errors_carry_file_and_line() {
    let err = try_build(
        r#"
        bundletype T = { f }
        unit Broken = { exports [ o : T ]; files { "b.c" }; }
        unit Sys = { exports [ o : T ]; link { b : Broken; o = b.o; }; }
        "#,
        &[("b.c", "int f() {\n    return oops;\n}")],
        "Sys",
    )
    .unwrap_err();
    assert!(err.contains("b.c:2"), "position missing: {err}");
    assert!(err.contains("oops"), "{err}");
}

#[test]
fn unknown_root_is_reported() {
    let err = try_build("bundletype T = { f }", &[], "Nowhere").unwrap_err();
    assert!(err.contains("Nowhere"), "{err}");
}

#[test]
fn constraint_violation_names_both_annotations() {
    let err = try_build(
        r#"
        property ctx
        type Any
        type Proc < Any
        bundletype T = { f }
        unit Strict = {
            exports [ o : T ];
            files { "s.c" };
            constraints { ctx(o) = Proc; };
        }
        unit Demands = {
            imports [ i : T ];
            exports [ o : T ];
            files { "d.c" };
            rename { i.f to inner_f; };
            constraints { ctx(o) = Any; ctx(o) <= ctx(i); };
        }
        unit Sys = { exports [ o : T ]; link { s : Strict; d : Demands [ i = s.o ]; o = d.o; }; }
        "#,
        &[
            ("s.c", "int f() { return 1; }"),
            ("d.c", "int inner_f();\nint f() { return inner_f(); }"),
        ],
        "Sys",
    )
    .unwrap_err();
    // the blame chain names both conflicting units and values
    assert!(err.contains("Strict") && err.contains("Demands"), "{err}");
    assert!(err.contains("Proc") && err.contains("Any"), "{err}");
}

#[test]
fn needs_rename_explains_the_conflict() {
    let mut p = Program::new();
    p.load_str(
        "t.unit",
        r#"
        bundletype T = { f }
        unit Wrap = { imports [ i : T ]; exports [ o : T ]; files { "w.c" }; }
        unit Base = { exports [ o : T ]; files { "b.c" }; }
        unit Sys = { exports [ o : T ]; link { b : Base; w : Wrap [ i = b.o ]; o = w.o; }; }
        "#,
    )
    .unwrap();
    let mut t = SourceTree::new();
    t.add("w.c", "int f() { return 1; }");
    t.add("b.c", "int f() { return 2; }");
    let err = build(&p, &t, &BuildOptions::new("Sys", runtime())).unwrap_err();
    match err.root() {
        KnitError::NeedsRename { unit, c_name } => {
            assert_eq!(unit, "Wrap");
            assert_eq!(c_name, "f");
        }
        other => panic!("expected NeedsRename, got {other}"),
    }
    // the location wrapper blames the `.unit` declaration
    let (file, line, _col) = err.span().expect("NeedsRename should carry a span");
    assert_eq!(file, "t.unit");
    assert_eq!(line, 3, "span should point at unit Wrap's declaration");
    // and the Display output cites §3.2's remedy
    let msg = KnitError::NeedsRename { unit: "Wrap".into(), c_name: "f".into() }.to_string();
    assert!(msg.contains("rename"), "{msg}");
}

#[test]
fn duplicate_unit_rejected_at_load() {
    let mut p = Program::new();
    p.load_str(
        "a.unit",
        "bundletype T = { f }\nunit U = { exports [ o : T ]; files { \"u.c\" }; }",
    )
    .unwrap();
    let err =
        p.load_str("b.unit", "unit U = { exports [ o : T ]; files { \"u2.c\" }; }").unwrap_err();
    assert!(err.to_string().contains("duplicate unit `U`"), "{err}");
}

// ---------------------------------------------------------------------------
// canonical diagnostic ordering (knit::diag::sort_dedupe)
// ---------------------------------------------------------------------------

#[test]
fn sort_dedupe_orders_by_file_span_code_and_drops_duplicates() {
    use knit::diag::{sort_dedupe, Severity};
    use knit::Diagnostic;

    let d = |code: &'static str, span: Option<(&str, u32, u32)>, msg: &str| Diagnostic {
        code,
        severity: Severity::Warning,
        message: msg.to_string(),
        span: span.map(|(f, l, c)| (f.to_string(), l, c)),
        notes: vec![],
    };

    let mut diags = vec![
        d("K1003", None, "spanless comes last"),
        d("K1003", Some(("b.unit", 2, 1)), "later file"),
        d("K1002", Some(("a.unit", 9, 1)), "later line"),
        d("K1005", Some(("a.unit", 3, 7)), "later column"),
        d("K1004", Some(("a.unit", 3, 2)), "same spot, later code"),
        d("K1001", Some(("a.unit", 3, 2)), "same spot, earlier code"),
        d("K1001", Some(("a.unit", 3, 2)), "same spot, earlier code"), // duplicate
    ];
    sort_dedupe(&mut diags);

    let order: Vec<(&str, &str)> = diags.iter().map(|d| (d.code, d.message.as_str())).collect();
    assert_eq!(
        order,
        [
            ("K1001", "same spot, earlier code"),
            ("K1004", "same spot, later code"),
            ("K1005", "later column"),
            ("K1002", "later line"),
            ("K1003", "later file"),
            ("K1003", "spanless comes last"),
        ]
    );
}

// ---------------------------------------------------------------------------
// docs/diagnostics.md is generated from the registries and must stay in sync
// ---------------------------------------------------------------------------

#[test]
fn diagnostics_doc_is_in_sync_with_the_registries() {
    let want = knit::diag::diagnostics_markdown();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/diagnostics.md");
    if std::env::var_os("UPDATE_DIAGNOSTICS_MD").is_some() {
        std::fs::write(path, &want).unwrap();
    }
    let got = std::fs::read_to_string(path).expect(
        "docs/diagnostics.md missing; regenerate with \
         UPDATE_DIAGNOSTICS_MD=1 cargo test -p knit --test diagnostics",
    );
    assert_eq!(
        got, want,
        "docs/diagnostics.md is stale; regenerate with \
         UPDATE_DIAGNOSTICS_MD=1 cargo test -p knit --test diagnostics"
    );
}

// ---------------------------------------------------------------------------
// symbol surgery: pinned rendered text and `--error-format=json` bytes
// ---------------------------------------------------------------------------

/// Build `units` rooted at `Sys` and render the error the way `knitc`
/// prints it: every diagnostic's human text, and its JSON line.
fn surgery_error(units: &str, files: &[(&str, &str)]) -> (String, String) {
    let mut p = Program::new();
    p.load_str("t.unit", units).expect("units parse");
    let mut t = SourceTree::new();
    for (path, src) in files {
        t.add(*path, *src);
    }
    let err = build(&p, &t, &BuildOptions::new("Sys", runtime())).expect_err("build must fail");
    let diags = err.diagnostics();
    let human: Vec<String> = diags.iter().map(|d| d.human()).collect();
    let json: Vec<String> = diags.iter().map(|d| d.json()).collect();
    (human.join("\n"), json.join("\n"))
}

#[test]
fn undefined_export_symbol_is_pinned() {
    let (human, json) = surgery_error(
        r#"
        bundletype T = { f }
        unit Hollow = { exports [ o : T ]; files { "h.c" }; }
        unit Sys = { exports [ o : T ]; link { h : Hollow; o = h.o; }; }
        "#,
        &[("h.c", "int g() { return 1; }")],
    );
    assert_eq!(human, "error[K0009]: t.unit:3:9: unit `Hollow`: export `o.f` should be defined as C symbol `f`, but no file defines it");
    assert_eq!(
        json,
        r#"{"code":"K0009","severity":"error","message":"unit `Hollow`: export `o.f` should be defined as C symbol `f`, but no file defines it","span":{"file":"t.unit","line":3,"col":9},"notes":[]}"#
    );
}

#[test]
fn undefined_initializer_is_pinned() {
    let (human, json) = surgery_error(
        r#"
        bundletype T = { f }
        unit Lazy = { exports [ o : T ]; initializer boot for o; files { "l.c" }; }
        unit Sys = { exports [ o : T ]; link { l : Lazy; o = l.o; }; }
        "#,
        &[("l.c", "int f() { return 1; }")],
    );
    assert_eq!(human, "error[K0009]: t.unit:3:9: unit `Lazy`: initializer/finalizer `boot` is not defined by the unit");
    assert_eq!(
        json,
        r#"{"code":"K0009","severity":"error","message":"unit `Lazy`: initializer/finalizer `boot` is not defined by the unit","span":{"file":"t.unit","line":3,"col":9},"notes":[]}"#
    );
}

#[test]
fn import_export_clash_is_pinned() {
    let (human, json) = surgery_error(
        r#"
        bundletype T = { f }
        unit Wrap = { imports [ i : T ]; exports [ o : T ]; files { "w.c" }; }
        unit Base = { exports [ o : T ]; files { "b.c" }; }
        unit Sys = { exports [ o : T ]; link { b : Base; w : Wrap [ i = b.o ]; o = w.o; }; }
        "#,
        &[("w.c", "int f() { return 1; }"), ("b.c", "int f() { return 2; }")],
    );
    assert_eq!(human, "error[K0007]: t.unit:3:9: unit `Wrap`: C identifier `f` is both imported and exported\n  note: add `rename { <port>.<member> to <other_name>; }` in unit `Wrap` (§3.2)");
    assert_eq!(
        json,
        r#"{"code":"K0007","severity":"error","message":"unit `Wrap`: C identifier `f` is both imported and exported","span":{"file":"t.unit","line":3,"col":9},"notes":["add `rename { <port>.<member> to <other_name>; }` in unit `Wrap` (§3.2)"]}"#
    );
}

/// A unit instantiated twice fails the same way in both instances; the
/// error blames the first instance in instance order.
#[test]
fn unbound_symbol_blames_the_first_instance() {
    let (human, json) = surgery_error(
        r#"
        bundletype T = { f }
        unit Leaky = { exports [ o : T ]; files { "k.c" }; }
        unit Pair = { exports [ o : T ]; link { a : Leaky; b : Leaky; o = b.o; }; }
        unit Sys = { exports [ o : T ]; link { p : Pair; o = p.o; }; }
        "#,
        &[("k.c", "int ghost();\nint f() { return ghost(); }")],
    );
    assert_eq!(human, "error[K0006]: t.unit:3:9: instance `Sys/p/a`: code references `ghost`, which is neither defined, imported, nor a runtime symbol\n  note: either import a bundle providing it, define it, or rename the reference");
    assert_eq!(
        json,
        r#"{"code":"K0006","severity":"error","message":"instance `Sys/p/a`: code references `ghost`, which is neither defined, imported, nor a runtime symbol","span":{"file":"t.unit","line":3,"col":9},"notes":["either import a bundle providing it, define it, or rename the reference"]}"#
    );
}

/// An import wired to its own unit's export renames a reference onto the
/// instance's own definition; objcopy rejects the collision.
#[test]
fn objcopy_rename_collision_is_pinned() {
    let (human, json) = surgery_error(
        r#"
        bundletype T = { f }
        unit Loop = {
            imports [ i : T ]; exports [ o : T ];
            rename { i.f to g; };
            files { "l.c" };
        }
        unit Sys = { exports [ o : T ]; link { l : Loop [ i = l.o ]; o = l.o; }; }
        "#,
        &[("l.c", "int g();\nint f() { return g(); }")],
    );
    assert_eq!(
        human,
        "error[K0009]: unit `Loop`: objcopy: objcopy: l.o: rename collides on `f_o_i0`"
    );
    assert_eq!(
        json,
        r#"{"code":"K0009","severity":"error","message":"unit `Loop`: objcopy: objcopy: l.o: rename collides on `f_o_i0`","span":null,"notes":[]}"#
    );
}

// ---------------------------------------------------------------------------
// unit front end: the same errors from build, lint and a session's analyze
// ---------------------------------------------------------------------------

/// Render `err` the way `knitc` prints it: every diagnostic's human text,
/// and its JSON line.
fn rendered(err: &KnitError) -> (String, String) {
    let diags = err.diagnostics();
    let human: Vec<String> = diags.iter().map(|d| d.human()).collect();
    let json: Vec<String> = diags.iter().map(|d| d.json()).collect();
    (human.join("\n"), json.join("\n"))
}

/// The error each of the three front-end paths gives on `units` rooted at
/// `Sys`: a one-shot build, a one-shot lint, and a session's analyze.
fn front_end_errors(units: &str, files: &[(&str, &str)]) -> [(String, String); 3] {
    let mut p = Program::new();
    p.load_str("t.unit", units).expect("units parse");
    let mut t = SourceTree::new();
    for (path, src) in files {
        t.add(*path, *src);
    }
    let opts = BuildOptions::new("Sys", runtime());
    let config = knit::LintConfig::new();
    let built = build(&p, &t, &opts).expect_err("build must fail");
    let linted = knit::lint(&p, &t, &opts, &config).expect_err("lint must fail");
    let mut session = knit::BuildSession::from_parts(p, t, opts);
    let analyzed = session.analyze(&config).expect_err("analyze must fail");
    [rendered(&built), rendered(&linted), rendered(&analyzed)]
}

fn assert_front_end_error(units: &str, files: &[(&str, &str)], human: &str, json: &str) {
    for (path, got) in ["build", "lint", "analyze"].iter().zip(front_end_errors(units, files)) {
        assert_eq!(got.0, human, "{path}: human text");
        assert_eq!(got.1, json, "{path}: JSON");
    }
}

#[test]
fn missing_files_entry_is_pinned_on_every_path() {
    assert_front_end_error(
        r#"
        bundletype T = { f }
        unit Ghost = { exports [ o : T ]; files { "missing.c" }; }
        unit Sys = { exports [ o : T ]; link { g : Ghost; o = g.o; }; }
        "#,
        &[],
        "error[K0015]: unit `Ghost`: source file `missing.c` not found",
        r#"{"code":"K0015","severity":"error","message":"unit `Ghost`: source file `missing.c` not found","span":null,"notes":[]}"#,
    );
}

#[test]
fn invalid_flag_in_a_flags_declaration_is_pinned_on_every_path() {
    assert_front_end_error(
        r#"
        bundletype T = { f }
        flags Odd = { "-fbogus" }
        unit Flagged = { exports [ o : T ]; files { "f.c" } with flags Odd; }
        unit Sys = { exports [ o : T ]; link { f : Flagged; o = f.o; }; }
        "#,
        &[("f.c", "int f() { return 1; }")],
        "error[K0009]: unit `Flagged`: unknown compiler flag `-fbogus`",
        r#"{"code":"K0009","severity":"error","message":"unit `Flagged`: unknown compiler flag `-fbogus`","span":null,"notes":[]}"#,
    );
}

#[test]
fn missing_include_is_pinned_on_every_path() {
    assert_front_end_error(
        r#"
        bundletype T = { f }
        unit Inc = { exports [ o : T ]; files { "i.c" }; }
        unit Sys = { exports [ o : T ]; link { i : Inc; o = i.o; }; }
        "#,
        &[("i.c", "#include \"nowhere.h\"\nint f() { return 1; }")],
        r#"error[K0013]: compile: i.c:1: preprocessor: cannot find include "nowhere.h""#,
        r#"{"code":"K0013","severity":"error","message":"compile: i.c:1: preprocessor: cannot find include \"nowhere.h\"","span":null,"notes":[]}"#,
    );
}
