//! Golden tests for the `knitc` CLI surface added with the analyzer:
//! `knitc lint --error-format=json` must emit one machine-parseable JSON
//! object per line on stderr (pinned byte-for-byte here for an error run,
//! a warning run, and a clean run), `--deny warnings` must flip the exit
//! code, and `knitc explain` must resolve every documented code.
//!
//! Integration tests run with the package directory as cwd, so the
//! example trees live under `../../`.

use std::process::{Command, Output};

fn knitc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_knitc")).args(args).output().expect("knitc runs")
}

const LINTS_UNIT: &str = "../../examples/lints/lints.unit";
const LINTS_SRC: &str = "../../examples/lints";

/// The eight diagnostics of `examples/lints/`, as JSON lines, with `{file}`
/// standing in for the unit-file path (which depends on how knitc was
/// invoked). Same canonical order as the human output.
const JSON_TEMPLATE: [&str; 8] = [
    r#"{"code":"K1005","severity":"warning","message":"unit `Dirty` (in a flatten group): function `chatter` takes varargs","span":{"file":"{file}","line":19,"col":1},"notes":["the flattening inliner never inlines vararg functions"]}"#,
    r#"{"code":"K1005","severity":"warning","message":"unit `Dirty` (in a flatten group): static `counter` is defined in more than one file of the unit","span":{"file":"{file}","line":19,"col":1},"notes":["flattening merges the unit's files; same-named statics are collision-prone under source merging"]}"#,
    r#"{"code":"K1005","severity":"warning","message":"unit `Dirty` (in a flatten group): the address of function `add` is taken","span":{"file":"{file}","line":19,"col":1},"notes":["calls through a function pointer defeat cross-unit inlining"]}"#,
    r#"{"code":"K1002","severity":"warning","message":"unit `Dirty`: imported symbol `log.log_msg` (C `log_msg`) is never referenced","span":{"file":"{file}","line":20,"col":15},"notes":["drop the import `log` or use `log_msg`"]}"#,
    r#"{"code":"K1001","severity":"warning","message":"unit `Dirty`: export `x.extra_op` resolves to C symbol `extra_op`, but no file of the unit defines it","span":{"file":"{file}","line":21,"col":28},"notes":["define `extra_op` in one of { dirty.c, extra.c } or rename the member"]}"#,
    r#"{"code":"K1003","severity":"warning","message":"instance `LintDemo/d`: export `x` is never imported by any instance and is not a root export","span":{"file":"{file}","line":21,"col":28},"notes":["remove the instance or wire something to the export"]}"#,
    r#"{"code":"K1003","severity":"warning","message":"instance `LintDemo/spare`: export `log` is never imported by any instance and is not a root export","span":{"file":"{file}","line":26,"col":15},"notes":["remove the instance or wire something to the export"]}"#,
    r#"{"code":"K1004","severity":"warning","message":"instance `LintDemo/b`: initializer `boot_init` reaches a call to imported `log.log_msg` (C `log_msg`), but provider `LintDemo/l`'s initializer `log_open` is scheduled later","span":{"file":"{file}","line":38,"col":35},"notes":["add `depends { boot_init needs (log); }` to unit `Boot` so the scheduler runs `log_open` first"]}"#,
];

fn expected_json_lines() -> Vec<String> {
    JSON_TEMPLATE.iter().map(|t| t.replace("{file}", LINTS_UNIT)).collect()
}

const RACES_UNIT: &str = "../../examples/lints/races.unit";

/// The four diagnostics of the intentionally racy `examples/lints/races.unit`
/// composition — one per concurrency lint — in canonical order.
const RACE_JSON_TEMPLATE: [&str; 4] = [
    r#"{"code":"K1006","severity":"warning","message":"unit `RaceLog`: shared static `events` is written with no lock held in `log_event`","span":{"file":"{file}","line":21,"col":1},"notes":["instances { RaceDemo/log }, reachable from root exports { w0, w1 }","guard every access with one spin lock (`while (L) { } L = 1; ... L = 0;`)"]}"#,
    r#"{"code":"K1007","severity":"warning","message":"unit `RaceLog`: shared static `depth` is guarded by different locks on different paths (first write in `log_pop`)","span":{"file":"{file}","line":21,"col":1},"notes":["instances { RaceDemo/log }, reachable from root exports { w0, w1 }","observed write locksets: { RaceDemo/log.lock_a } vs { RaceDemo/log.lock_b }"]}"#,
    r#"{"code":"K1008","severity":"warning","message":"unit `RaceLog`: function `log_begin` can return while still holding lock `lock_a`","span":{"file":"{file}","line":21,"col":1},"notes":["release it (`lock_a = 0`) on every path to return, or `#[allow(lock_leak)]` the unit if it is a lock provider"]}"#,
    r#"{"code":"K1009","severity":"warning","message":"unit `RaceLog`: read-modify-write of shared static `hits` outside any lock region in `log_event`","span":{"file":"{file}","line":21,"col":1},"notes":["instances { RaceDemo/log }, reachable from root exports { w0, w1 }","racing `hits++` loses updates; guard it, or `#[allow(atomicity_hint)]` if approximate counts are acceptable"]}"#,
];

fn expected_race_json_lines() -> Vec<String> {
    RACE_JSON_TEMPLATE.iter().map(|t| t.replace("{file}", RACES_UNIT)).collect()
}

#[test]
fn json_race_run_is_golden() {
    let out = knitc(&[
        "lint",
        "--error-format=json",
        "--root",
        "RaceDemo",
        "--src",
        LINTS_SRC,
        RACES_UNIT,
    ]);
    assert!(out.status.success(), "warnings alone must not fail the run");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "", "JSON mode prints no summary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines, expected_race_json_lines(), "pinned race-lint JSON output drifted");
}

#[test]
fn json_warning_run_is_golden() {
    let out = knitc(&[
        "lint",
        "--error-format=json",
        "--root",
        "LintDemo",
        "--src",
        LINTS_SRC,
        LINTS_UNIT,
    ]);
    assert!(out.status.success(), "warnings alone must not fail the run");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "", "JSON mode prints no summary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines, expected_json_lines(), "pinned JSON lint output drifted");
}

#[test]
fn json_error_run_is_golden() {
    let out =
        knitc(&["lint", "--error-format=json", "--root", "Nope", "--src", LINTS_SRC, LINTS_UNIT]);
    assert!(!out.status.success(), "an unknown root is an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end(),
        r#"{"code":"K0003","severity":"error","message":"unknown unit `Nope` (in analysis root)","span":null,"notes":[]}"#,
    );
}

#[test]
fn json_clean_run_is_silent() {
    let out = knitc(&[
        "lint",
        "--error-format=json",
        "--root",
        "WebServer",
        "--src",
        "../../demo",
        "../../demo/webserver.unit",
    ]);
    assert!(out.status.success(), "demo must stay lint-clean: {:?}", out);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
}

#[test]
fn human_mode_prints_summary_and_deny_warnings_fails() {
    let out = knitc(&["lint", "--root", "LintDemo", "--src", LINTS_SRC, LINTS_UNIT]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, "knitc: lint `LintDemo`: 4 units analyzed, 8 warnings, 0 errors\n");

    let denied = knitc(&[
        "lint", "--deny", "warnings", "--root", "LintDemo", "--src", LINTS_SRC, LINTS_UNIT,
    ]);
    assert!(!denied.status.success(), "--deny warnings must flip the exit code");
    let stdout = String::from_utf8_lossy(&denied.stdout);
    assert_eq!(stdout, "knitc: lint `LintDemo`: 4 units analyzed, 0 warnings, 8 errors\n");
    let stderr = String::from_utf8_lossy(&denied.stderr);
    assert!(stderr.contains("error[K1001]"), "{stderr}");
}

#[test]
fn per_lint_cli_overrides_change_levels() {
    let out = knitc(&[
        "lint",
        "--allow",
        "flatten-hazard",
        "--allow",
        "dead-export",
        "--allow",
        "unused-import",
        "--allow",
        "init-order-use",
        "--deny",
        "undefined-export",
        "--root",
        "LintDemo",
        "--src",
        LINTS_SRC,
        LINTS_UNIT,
    ]);
    assert!(!out.status.success(), "denied K1001 must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout, "knitc: lint `LintDemo`: 4 units analyzed, 0 warnings, 1 error\n");

    let bad = knitc(&["lint", "--deny", "no-such-lint", "--root", "LintDemo", LINTS_UNIT]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("K0003"), "unknown lint name is K0003");
}

#[test]
fn explain_resolves_lint_and_error_codes() {
    let out = knitc(&["explain", "K1004"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("K1004: init-order-use (lint, default warn)\n"), "{stdout}");

    let out = knitc(&["explain", "K0011"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("K0011: error\n"));

    let out = knitc(&["explain", "K9999"]);
    assert!(!out.status.success(), "unknown codes must fail");
}

const DEMO_UNIT: &str = "../../demo/webserver.unit";
const DEMO_SRC: &str = "../../demo";

/// The two-phase PGO workflow end to end: `--profile-gen` writes a JSON
/// call-edge profile from an instrumented run, `--profile-use` feeds it
/// back into the linker, and `pgo-suggest` renders the flatten advisor's
/// report from it.
#[test]
fn pgo_workflow_roundtrips_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("knitc-pgo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let profile = dir.join("web.profile.json");
    let profile_s = profile.to_str().expect("utf-8 temp path");

    let out =
        knitc(&["--root", "WebServer", "--src", DEMO_SRC, "--profile-gen", profile_s, DEMO_UNIT]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote profile to"), "{stdout}");
    let text = std::fs::read_to_string(&profile).expect("profile written");
    assert!(text.contains("\"edges\"") && text.contains("\"count\""), "{text}");

    let out = knitc(&[
        "--root",
        "WebServer",
        "--src",
        DEMO_SRC,
        "--run",
        "--profile-use",
        profile_s,
        DEMO_UNIT,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("exited with code 0"),
        "pgo layout must not change behaviour: {stdout}"
    );

    let out = knitc(&[
        "pgo-suggest",
        "--root",
        "WebServer",
        "--src",
        DEMO_SRC,
        "--profile-use",
        profile_s,
        DEMO_UNIT,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hot cross-instance edge"), "{stdout}");
    assert!(stdout.contains("suggestion #1"), "{stdout}");
    assert!(stdout.contains("flatten"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--cache` rebuilds in a second session sharing the compile cache: every
/// unit is a cache hit, and the report line is the cold build's.
#[test]
fn cache_flag_reports_a_fully_warm_rebuild() {
    let out =
        knitc(&["--root", "WebServer", "--src", DEMO_SRC, "--jobs", "2", "--cache", DEMO_UNIT]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    // the compile-phase timings that end the line vary run to run
    assert!(
        lines[0].starts_with("knitc: warm rebuild: 6 cache hits, 0 recompiles; compile phase "),
        "{stdout}"
    );
    assert_eq!(
        lines[1],
        "knitc: built `WebServer`: 6 instances from 6 units, 7 objects, 718 bytes of text (2 jobs)"
    );
}

/// Bad command lines fail with one `knitc: …` line, then the usage text,
/// and exit code 2 — before anything is built.
#[test]
fn bad_flags_print_one_error_line_and_exit_2() {
    let cases: [(&[&str], &str); 3] = [
        (&["--jobs", "0"], "knitc: --jobs needs a positive integer, got `0`"),
        (&["--jobs", "banana"], "knitc: --jobs needs a positive integer, got `banana`"),
        (&["--bogus"], "knitc: unknown flag `--bogus`"),
    ];
    for (flags, want) in cases {
        let mut args = vec!["--root", "WebServer", "--src", DEMO_SRC];
        args.extend_from_slice(flags);
        args.push(DEMO_UNIT);
        let out = knitc(&args);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let mut lines = stderr.lines();
        assert_eq!(lines.next(), Some(want), "{flags:?}");
        assert!(lines.next().is_some_and(|l| l.starts_with("usage: knitc ")), "{stderr}");
    }
}
