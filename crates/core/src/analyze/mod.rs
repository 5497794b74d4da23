//! Cross-unit static analysis: lints over the instance graph and ASTs.
//!
//! The analyzer runs after elaboration and scheduling but *before*
//! compilation — it parses each unit's preprocessed sources with
//! [`cmini::frontend_expanded`] (a pure frontend pass) and never invokes
//! the backend, so a lint-dirty program can still be analyzed even when a
//! full build would abort (e.g. on an undefined export, which the build
//! pipeline hard-errors as `K0009`).
//!
//! Lints live in the [`LINTS`] registry under stable `K1xxx` codes. Each
//! has a default level that can be overridden per run with [`LintConfig`]
//! (the `knitc lint --allow/--warn/--deny` flags) and per unit with
//! `#[allow(...)]` / `#[warn(...)]` / `#[deny(...)]` pragmas on the unit
//! declaration. Results come back as ordinary
//! [`Diagnostic`]s in the canonical deterministic
//! order ([`crate::diag::sort_dedupe`]).
//!
//! The four shipped lints:
//!
//! * **K1001 `undefined-export`** — a bundle the unit claims to export has
//!   a member no source file defines; the build would fail later, the lint
//!   points at the port.
//! * **K1002 `unused-import`** — an imported symbol no C body or global
//!   initializer ever references; dead wiring in the link block.
//! * **K1003 `dead-export`** — an instance export no other instance
//!   imports and the root does not re-export; dead code the linker drags
//!   in anyway.
//! * **K1004 `init-order-use`** — code reachable from an initializer calls
//!   an imported function whose provider initializes *later* in the
//!   computed schedule (§3.2); the fix is a fine-grained `depends` clause.
//! * **K1005 `flatten-hazard`** — constructs the flattening inliner (§6)
//!   bails on inside a `flatten` group: varargs, address-taken functions,
//!   self-recursion, and same-named statics across the unit's files.
//! * **K1006–K1009** — the concurrency lints of the cross-unit lockset
//!   race analysis (the `race` submodule): unguarded shared writes, inconsistent
//!   locks, lock leaks, and lock-free read-modify-writes of shared
//!   statics, for compositions whose root exports two or more
//!   concurrently-drivable ports.
//!
//! [`BuildSession::analyze`](crate::session::BuildSession::analyze)
//! memoizes per-unit summaries by declaration fingerprint and source
//! reads, so an incremental session re-analyzes exactly the units an edit
//! touched. The one-shot entry point is [`lint`].

pub(crate) mod race;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cmini::ast::{Item, Storage};
use cmini::visit::{merge_uses, tu_uses, TuUses};
use cobj::fnv::FnvMap;
use knit_lang::ast::{AtomicBody, PragmaLevel, UnitDecl};
use knit_lang::token::Span;

use crate::diag::{self, Diagnostic, Severity};
use crate::driver::{atomic_body, c_id, read_unit, BuildOptions, FileInput};
use crate::elaborate::{elaborate, Elaboration, Wire};
use crate::error::KnitError;
use crate::intern::Sym;
use crate::model::Program;
use crate::sched::{self, Schedule};
use crate::session::{fp_unit_decl, PhaseCount};
use crate::vfs::SourceTree;

/// How a lint's findings are reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintLevel {
    /// Suppress the lint entirely.
    Allow,
    /// Report as a warning (does not fail `knitc lint`).
    Warn,
    /// Report as an error (`knitc lint` exits nonzero).
    Deny,
}

/// One registered lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable diagnostic code (`K1001`…).
    pub code: &'static str,
    /// Human name, hyphenated (`unused-import`). Pragmas and CLI flags
    /// accept either `-` or `_` as the separator.
    pub name: &'static str,
    /// Level applied when neither a pragma nor the CLI overrides it.
    pub default_level: LintLevel,
    /// One-line summary for `knitc explain` and the docs table.
    pub summary: &'static str,
    /// A minimal example that triggers it.
    pub example: &'static str,
}

/// The lint registry. Ordered by code; every entry defaults to
/// [`LintLevel::Warn`] so `knitc lint` is advisory unless `--deny` is
/// given.
pub const LINTS: &[Lint] = &[
    Lint {
        code: "K1001",
        name: "undefined-export",
        default_level: LintLevel::Warn,
        summary: "a bundle export has a member no source file of the unit defines",
        example: "exports [ m : Math ];  // but no file defines `add`, Math's only member",
    },
    Lint {
        code: "K1002",
        name: "unused-import",
        default_level: LintLevel::Warn,
        summary: "an imported symbol is never referenced in any C body or global initializer",
        example: "imports [ log : Log ];  // but `log_msg` never appears in the unit's files",
    },
    Lint {
        code: "K1003",
        name: "dead-export",
        default_level: LintLevel::Warn,
        summary: "an instance export no other instance imports and the root does not re-export",
        example: "link { spare : Logger; }  // nothing wires an import to spare.log",
    },
    Lint {
        code: "K1004",
        name: "init-order-use",
        default_level: LintLevel::Warn,
        summary: "an initializer reaches a call to an import whose provider initializes later",
        example: "initializer boot for runp;  // boot() calls log_msg, Logger's init runs later",
    },
    Lint {
        code: "K1005",
        name: "flatten-hazard",
        default_level: LintLevel::Warn,
        summary: "a flattened unit uses constructs the cross-unit inliner bails on",
        example: "int chatter(int n, ...) { ... }  // varargs are never inlined (§6)",
    },
    Lint {
        code: "K1006",
        name: "unguarded-shared-write",
        default_level: LintLevel::Warn,
        summary: "a static reachable from two or more root export closures is written with no lock held",
        example: "sq_copy(ring[slot], p->data, n);  // called from router0 and router1, no `lock = 1` first",
    },
    Lint {
        code: "K1007",
        name: "inconsistent-lock",
        default_level: LintLevel::Warn,
        summary: "the same shared static is guarded by different locks on different paths",
        example: "while (lock_a) { } lock_a = 1; n++;  // but pop() guards `n` with lock_b",
    },
    Lint {
        code: "K1008",
        name: "lock-leak",
        default_level: LintLevel::Warn,
        summary: "a function can return while still holding a spin lock it acquired",
        example: "lock = 1; if (fault) return -1;  // the early return skips `lock = 0`",
    },
    Lint {
        code: "K1009",
        name: "atomicity-hint",
        default_level: LintLevel::Warn,
        summary: "a read-modify-write of a shared static happens outside any lock region",
        example: "contended++;  // racing increments from two cores lose updates",
    },
];

/// Whether two lint names are equal once `-` and `_` are identified:
/// pragmas use `_` (the `.unit` lexer has no `-` token), the CLI and
/// registry use `-`; both spellings resolve.
fn same_lint_name(a: &str, b: &str) -> bool {
    let sep = |c: u8| c == b'-' || c == b'_';
    a.len() == b.len() && a.bytes().zip(b.bytes()).all(|(x, y)| x == y || (sep(x) && sep(y)))
}

/// Look up a lint by name, accepting either separator style.
pub fn lint_by_name(name: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| same_lint_name(l.name, name))
}

/// Per-run lint configuration: CLI-level overrides plus `--deny warnings`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    levels: BTreeMap<&'static str, LintLevel>,
    deny_warnings: bool,
}

impl LintConfig {
    /// A configuration with every lint at its default level.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Override `name`'s level for this run (strongest override: beats
    /// both the default and unit pragmas). Unknown names are a `K0003`
    /// error so CLI typos don't silently configure nothing.
    pub fn set(&mut self, name: &str, level: LintLevel) -> Result<(), KnitError> {
        let lint = lint_by_name(name).ok_or_else(|| KnitError::Unknown {
            kind: "lint",
            name: name.to_string(),
            context: "lint level flag".to_string(),
        })?;
        self.levels.insert(lint.code, level);
        Ok(())
    }

    /// Promote surviving warnings to errors (`--deny warnings`). An
    /// `allow` still suppresses.
    pub fn deny_warnings(&mut self, on: bool) {
        self.deny_warnings = on;
    }

    /// Resolve the effective level of `lint` for `unit`: registry default,
    /// then the unit's pragmas in declaration order, then CLI overrides.
    fn level_for(&self, lint: &Lint, unit: &UnitDecl) -> LintLevel {
        let mut level = lint.default_level;
        for p in &unit.pragmas {
            if p.lints.iter().any(|n| same_lint_name(n, lint.name)) {
                level = match p.level {
                    PragmaLevel::Allow => LintLevel::Allow,
                    PragmaLevel::Warn => LintLevel::Warn,
                    PragmaLevel::Deny => LintLevel::Deny,
                };
            }
        }
        if let Some(&l) = self.levels.get(lint.code) {
            level = l;
        }
        level
    }
}

/// What the analyzer learned about one unit's sources: merged identifier
/// and call-graph facts, link-visible definitions, and cross-file static
/// collisions. Cached per unit by the session engine.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitSummary {
    /// Merged [`TuUses`] across the unit's files.
    pub(crate) uses: TuUses,
    /// Link-visible symbols the unit defines (non-static functions with
    /// bodies, public globals, and exports of pre-compiled objects).
    pub(crate) defined: BTreeSet<String>,
    /// `static` names defined in more than one of the unit's files.
    pub(crate) static_collisions: BTreeSet<String>,
    /// Source-tree paths read while summarizing (files plus includes);
    /// the session evicts the summary when any of them changes.
    pub(crate) reads: BTreeSet<String>,
    /// Lock-skeleton facts for the race lints (K1006–K1009).
    pub(crate) race: race::RaceSummary,
}

/// Parse (but do not compile) every file of `unit_name` and summarize it.
pub(crate) fn summarize_unit(
    program: &Program,
    tree: &SourceTree,
    unit_name: &str,
    opts: &BuildOptions,
) -> Result<UnitSummary, KnitError> {
    let inputs = read_unit(program, tree, unit_name, opts)?;
    let mut summary = UnitSummary::default();
    let mut statics_seen: BTreeSet<String> = BTreeSet::new();
    let mut parsed: Vec<cmini::ast::TranslationUnit> = Vec::new();
    for input in &inputs.files {
        let (file, expanded) = match input {
            FileInput::Object(obj) => {
                summary.defined.extend(obj.exported_names().iter().map(|s| s.to_string()));
                // an object's undefined references count as uses of imports
                summary.uses.referenced.extend(obj.undefined_names().iter().map(|s| s.to_string()));
                continue;
            }
            FileInput::Source { file, expanded } => (file, expanded),
        };
        let tu = cmini::frontend_expanded(file, expanded)?;
        for item in &tu.items {
            match item {
                Item::Func(f) if f.body.is_some() && f.storage != Storage::Static => {
                    summary.defined.insert(f.name.clone());
                }
                Item::Global(g) if g.storage == Storage::Public => {
                    summary.defined.insert(g.name.clone());
                }
                _ => {}
            }
        }
        let uses = tu_uses(&tu);
        for s in &uses.statics {
            if !statics_seen.insert(s.clone()) {
                summary.static_collisions.insert(s.clone());
            }
        }
        merge_uses(&mut summary.uses, uses);
        parsed.push(tu);
    }
    summary.race = race::race_summary(&parsed);
    summary.reads = inputs.reads;
    Ok(summary)
}

/// The result of one analysis run.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All emitted diagnostics, in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// Distinct units whose sources were analyzed.
    pub units_analyzed: usize,
}

impl AnalysisReport {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Whether any diagnostic is an error (drives `knitc lint`'s exit
    /// status).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }
}

/// A memoized per-unit summary, keyed by the unit's declaration
/// fingerprint; the session evicts it when any of `summary.reads` is
/// dirtied.
#[derive(Debug)]
pub(crate) struct AnalysisMemo {
    pub(crate) decl_fp: u64,
    pub(crate) summary: Arc<UnitSummary>,
}

/// The session's memoized summaries, by unit name.
pub(crate) type AnalysisMemos = FnvMap<Sym, AnalysisMemo>;

/// One distinct unit of an elaboration, with what the lint passes read
/// of it.
pub(crate) struct UnitEntry<'a> {
    pub(crate) decl: &'a UnitDecl,
    pub(crate) body: &'a AtomicBody,
    /// Where the unit is declared: `(file, position)`.
    pub(crate) site: Option<(&'a str, Span)>,
    pub(crate) summary: Arc<UnitSummary>,
}

impl UnitEntry<'_> {
    /// The span of the unit declaration itself.
    pub(crate) fn span(&self) -> Option<(String, u32, u32)> {
        self.site.map(|(f, s)| (f.to_string(), s.line, s.col))
    }

    /// The span of a port or initializer of the unit.
    fn span_at(&self, s: Span) -> Option<(String, u32, u32)> {
        self.site.map(|(f, _)| (f.to_string(), s.line, s.col))
    }
}

/// The indexed tables every lint pass reads: `units` in the order of
/// [`Elaboration::by_unit`] (unit-name order), and `unit_of` mapping each
/// instance id to its unit's index, so no pass looks a unit up by name.
pub(crate) struct LintCx<'a> {
    pub(crate) el: &'a Elaboration,
    pub(crate) config: &'a LintConfig,
    pub(crate) units: Vec<UnitEntry<'a>>,
    unit_of: Vec<usize>,
    /// Bundle type name -> members: [`Program::members_of`] as a hash
    /// table, probed once per port by the per-unit and per-instance
    /// passes.
    members: FnvMap<&'a str, &'a [String]>,
}

impl<'a> LintCx<'a> {
    /// The index in `units` of instance `id`'s unit.
    pub(crate) fn unit_index(&self, id: usize) -> usize {
        self.unit_of[id]
    }

    /// The unit of instance `id`.
    pub(crate) fn unit(&self, id: usize) -> &UnitEntry<'a> {
        &self.units[self.unit_of[id]]
    }

    /// The members of a port's bundle type (none if it is unknown).
    pub(crate) fn members_of(&self, bundle_type: &str) -> &'a [String] {
        self.members.get(bundle_type).copied().unwrap_or_default()
    }
}

/// Summarize every instantiated unit (through `memo`) and run the lint
/// passes. `counts` tallies per-unit summary runs vs reuses.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_analysis(
    program: &Program,
    tree: &SourceTree,
    opts: &BuildOptions,
    config: &LintConfig,
    el: &Elaboration,
    schedule: &Schedule,
    memo: &mut AnalysisMemos,
    counts: &mut PhaseCount,
) -> Result<AnalysisReport, KnitError> {
    let names: Vec<Sym> = el.by_unit.keys().copied().collect();
    // fingerprint each unit on up to `opts.jobs` scoped threads, reusing
    // its memoized summary on a match and summarizing it otherwise (a
    // fresh summary comes back with its fingerprint); merging by index
    // keeps the result (and the first reported error) identical to the
    // serial name-order loop
    let seen = &*memo;
    let found = crate::driver::run_indexed(opts.jobs, names.len(), |i| {
        let name = names[i].as_str();
        let decl_fp = fp_unit_decl(program, name, opts);
        let (fresh, summary) = match seen.get(name) {
            Some(m) if m.decl_fp == decl_fp => (None, Arc::clone(&m.summary)),
            _ => (Some(decl_fp), Arc::new(summarize_unit(program, tree, name, opts)?)),
        };
        let decl = &program.units[name];
        let site = program.unit_site(name);
        Ok((fresh, UnitEntry { decl, body: atomic_body(decl), site, summary }))
    });
    let mut units = Vec::with_capacity(names.len());
    let mut first_err = None;
    memo.reserve(names.len().saturating_sub(memo.len()));
    for (name, found) in names.into_iter().zip(found) {
        match found {
            Ok((None, unit)) => {
                counts.reuses += 1;
                units.push(unit);
            }
            _ if first_err.is_some() => {}
            Ok((Some(decl_fp), unit)) => {
                counts.runs += 1;
                memo.insert(name, AnalysisMemo { decl_fp, summary: Arc::clone(&unit.summary) });
                units.push(unit);
            }
            Err(e) => {
                counts.runs += 1;
                first_err = Some(e);
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let mut unit_of = vec![0; el.instances.len()];
    for (i, ids) in el.by_unit.values().enumerate() {
        for &id in ids {
            unit_of[id] = i;
        }
    }
    let members =
        program.bundletypes.iter().map(|(name, ms)| (name.as_str(), ms.as_slice())).collect();
    let cx = LintCx { el, config, units, unit_of, members };
    let mut diagnostics = run_lints(&cx, schedule, opts);
    diag::sort_dedupe(&mut diagnostics);
    Ok(AnalysisReport { diagnostics, units_analyzed: cx.units.len() })
}

/// One-shot analysis: elaborate, schedule, and lint `opts.root`.
pub fn lint(
    program: &Program,
    tree: &SourceTree,
    opts: &BuildOptions,
    config: &LintConfig,
) -> Result<AnalysisReport, KnitError> {
    let el = elaborate(program, &opts.root)?;
    let schedule = sched::schedule(program, &el)?;
    let mut memo = AnalysisMemos::default();
    let mut counts = PhaseCount::default();
    run_analysis(program, tree, opts, config, &el, &schedule, &mut memo, &mut counts)
}

/// Emit one finding at the level `config` resolves for (`lint`, `unit`).
#[allow(clippy::too_many_arguments)]
fn emit(
    diags: &mut Vec<Diagnostic>,
    config: &LintConfig,
    lint_code: &str,
    unit: &UnitDecl,
    span: Option<(String, u32, u32)>,
    message: String,
    notes: Vec<String>,
) {
    let lint = LINTS.iter().find(|l| l.code == lint_code).expect("registered lint");
    let severity = match config.level_for(lint, unit) {
        LintLevel::Allow => return,
        LintLevel::Warn if !config.deny_warnings => Severity::Warning,
        _ => Severity::Error,
    };
    diags.push(Diagnostic { code: lint.code, severity, message, span, notes });
}

/// Names of every function transitively reachable from `start` through
/// the direct-call graph (including undefined callees — those are the
/// imports we care about).
fn reachable_calls<'a>(
    calls: &'a BTreeMap<String, BTreeSet<String>>,
    start: &str,
) -> BTreeSet<&'a str> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut work = vec![start];
    while let Some(f) = work.pop() {
        if let Some(callees) = calls.get(f) {
            for c in callees {
                if seen.insert(c) {
                    work.push(c);
                }
            }
        }
    }
    seen
}

/// Run every lint pass in one fan-out over `opts.jobs`: task 0 is the
/// cross-instance race evaluation (the largest single task, so it is
/// claimed first), then one task per unit (K1001, K1002, K1005, K1008)
/// and one per instance (K1003, K1004). Tasks come back in index order,
/// so the findings of each code keep the serial passes' unit and
/// instance order; [`diag::sort_dedupe`]'s key includes the code and its
/// sort is stable, so the canonical stream is the serial one.
fn run_lints(cx: &LintCx<'_>, schedule: &Schedule, opts: &BuildOptions) -> Vec<Diagnostic> {
    let el = cx.el;
    // K1003: the exports of each instance that an import or the root uses
    let mut used: Vec<Vec<Sym>> = vec![Vec::new(); el.instances.len()];
    for inst in &el.instances {
        for w in inst.imports.values() {
            if let Wire::Export { instance, port } = w {
                used[*instance].push(*port);
            }
        }
    }
    for (inst, port) in el.root_exports.values() {
        used[*inst].push(*port);
    }
    // K1004: each instance's initializers, with their schedule positions
    let mut init_pos: Vec<Vec<(&str, usize)>> = vec![Vec::new(); el.instances.len()];
    for (i, (id, f)) in schedule.inits.iter().enumerate() {
        init_pos[*id].push((f, i));
    }
    // K1005: the units with an instance in a flatten group
    let mut flat = vec![false; cx.units.len()];
    if opts.flatten {
        for id in el.flatten_groups.iter().flatten() {
            flat[cx.unit_of[*id]] = true;
        }
    }
    let nu = cx.units.len();
    let found = crate::driver::run_indexed(opts.jobs, 1 + nu + el.instances.len(), |t| {
        let mut out = Vec::new();
        if t == 0 {
            race::shared_races(cx, &mut out);
        } else if t <= nu {
            unit_lints(cx, &cx.units[t - 1], flat[t - 1], &mut out);
        } else {
            instance_lints(cx, t - 1 - nu, &used, &init_pos, &mut out);
        }
        out
    });
    found.into_iter().flatten().collect()
}

/// The per-unit passes: K1001 undefined-export, K1002 unused-import,
/// K1005 flatten-hazard when the unit is flattened, and K1008 lock-leak.
fn unit_lints(cx: &LintCx<'_>, u: &UnitEntry<'_>, flat: bool, out: &mut Vec<Diagnostic>) {
    let (config, unit, body) = (cx.config, u.decl, u.body);
    let unit_name = &unit.name;
    let summary = &*u.summary;
    for p in &unit.exports {
        for m in cx.members_of(&p.bundle_type) {
            let cid = c_id(body, &p.name, m);
            if !summary.defined.contains(cid) {
                emit(
                    out,
                    config,
                    "K1001",
                    unit,
                    u.span_at(p.span),
                    format!(
                        "unit `{unit_name}`: export `{}.{m}` resolves to C symbol \
                         `{cid}`, but no file of the unit defines it",
                        p.name
                    ),
                    vec![format!(
                        "define `{cid}` in one of {{ {} }} or rename the member",
                        body.files.join(", ")
                    )],
                );
            }
        }
    }
    for p in &unit.imports {
        for m in cx.members_of(&p.bundle_type) {
            let cid = c_id(body, &p.name, m);
            if !summary.uses.referenced.contains(cid) {
                emit(
                    out,
                    config,
                    "K1002",
                    unit,
                    u.span_at(p.span),
                    format!(
                        "unit `{unit_name}`: imported symbol `{}.{m}` (C `{cid}`) is \
                         never referenced",
                        p.name
                    ),
                    vec![format!("drop the import `{}` or use `{cid}`", p.name)],
                );
            }
        }
    }

    // K1005 flatten-hazard: inliner bail conditions in flatten groups
    if flat {
        let mut hazard = |what: String, why: &str| {
            emit(
                out,
                config,
                "K1005",
                unit,
                u.span(),
                format!("unit `{unit_name}` (in a flatten group): {what}"),
                vec![why.to_string()],
            );
        };
        for f in &summary.uses.varargs_funcs {
            hazard(
                format!("function `{f}` takes varargs"),
                "the flattening inliner never inlines vararg functions",
            );
        }
        for f in &summary.uses.address_taken {
            hazard(
                format!("the address of function `{f}` is taken"),
                "calls through a function pointer defeat cross-unit inlining",
            );
        }
        for f in &summary.uses.self_recursive {
            hazard(
                format!("function `{f}` is self-recursive"),
                "the inliner bails on recursive calls",
            );
        }
        for s in &summary.static_collisions {
            hazard(
                format!("static `{s}` is defined in more than one file of the unit"),
                "flattening merges the unit's files; same-named statics are \
                 collision-prone under source merging",
            );
        }
    }

    race::lock_leaks(cx, u, out);
}

/// The per-instance passes: K1003 dead-export (graph-level liveness of
/// the instance's exports) and K1004 init-order-use (its initializers'
/// call graphs against the schedule).
fn instance_lints(
    cx: &LintCx<'_>,
    id: usize,
    used: &[Vec<Sym>],
    init_pos: &[Vec<(&str, usize)>],
    out: &mut Vec<Diagnostic>,
) {
    let (el, config) = (cx.el, cx.config);
    let inst = &el.instances[id];
    let u = cx.unit(id);
    let (unit, body) = (u.decl, u.body);
    for p in &unit.exports {
        if !used[id].iter().any(|port| *port == p.name) {
            emit(
                out,
                config,
                "K1003",
                unit,
                u.span_at(p.span),
                format!(
                    "instance `{}`: export `{}` is never imported by any instance \
                     and is not a root export",
                    inst.path, p.name
                ),
                vec!["remove the instance or wire something to the export".to_string()],
            );
        }
    }

    let pos = |id: usize, func: &str| init_pos[id].iter().rfind(|(f, _)| *f == func).map(|p| p.1);
    for init in &body.initializers {
        let Some(my_pos) = pos(id, &init.func) else { continue };
        let reach = reachable_calls(&u.summary.uses.calls, &init.func);
        for p in &unit.imports {
            let Some(Wire::Export { instance: prov, port }) = inst.imports.get(p.name.as_str())
            else {
                continue;
            };
            for m in cx.members_of(&p.bundle_type) {
                let cid = c_id(body, &p.name, m);
                if !reach.contains(cid) {
                    continue;
                }
                let prov_inst = &el.instances[*prov];
                for pi in cx.unit(*prov).body.initializers.iter().filter(|pi| &pi.bundle == port) {
                    if pos(*prov, &pi.func).is_some_and(|ppos| ppos > my_pos) {
                        emit(
                            out,
                            config,
                            "K1004",
                            unit,
                            u.span_at(init.span),
                            format!(
                                "instance `{}`: initializer `{}` reaches a call to \
                                 imported `{}.{m}` (C `{cid}`), but provider `{}`'s \
                                 initializer `{}` is scheduled later",
                                inst.path, init.func, p.name, prov_inst.path, pi.func
                            ),
                            vec![format!(
                                "add `depends {{ {} needs ({}); }}` to unit `{}` so \
                                 the scheduler runs `{}` first",
                                init.func, p.name, inst.unit, pi.func
                            )],
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_resolve_with_either_separator() {
        assert_eq!(lint_by_name("unused-import").unwrap().code, "K1002");
        assert_eq!(lint_by_name("unused_import").unwrap().code, "K1002");
        assert!(lint_by_name("no-such-lint").is_none());
    }

    #[test]
    fn unknown_lint_name_errors_k0003() {
        let mut cfg = LintConfig::new();
        let err = cfg.set("not-a-lint", LintLevel::Deny).unwrap_err();
        assert_eq!(err.code(), "K0003");
        assert!(cfg.set("flatten-hazard", LintLevel::Allow).is_ok());
    }

    #[test]
    fn every_diagnostic_code_has_an_explain_entry() {
        // every error code issued by KnitError…
        for i in 1..=15 {
            let code = format!("K{i:04}");
            let e = crate::diag::explain(&code)
                .unwrap_or_else(|| panic!("no explain entry for {code}"));
            assert_eq!(e.code, code);
            assert!(!e.summary.is_empty() && !e.example.is_empty());
        }
        // …and every registered lint.
        for l in LINTS {
            let e = crate::diag::explain(l.code)
                .unwrap_or_else(|| panic!("no explain entry for {}", l.code));
            assert_eq!(e.summary, l.summary);
        }
        // the generated markdown table mentions every code
        let md = crate::diag::diagnostics_markdown();
        for i in 1..=15 {
            assert!(md.contains(&format!("| K{i:04} |")), "K{i:04} missing from markdown");
        }
        for l in LINTS {
            assert!(md.contains(&format!("| {} |", l.code)), "{} missing from markdown", l.code);
        }
    }

    #[test]
    fn pragma_and_cli_levels_compose() {
        let src = r#"
            bundletype T = { f }
            #[allow(unused_import)]
            #[deny(dead_export)]
            unit U = {
                imports [ a : T ];
                files { "u.c" };
            }
        "#;
        let kf = knit_lang::parser::parse("t.unit", src).unwrap();
        let unit = kf
            .decls
            .iter()
            .find_map(|d| match d {
                knit_lang::ast::Decl::Unit(u) => Some((**u).clone()),
                _ => None,
            })
            .unwrap();
        let cfg = LintConfig::new();
        let unused = lint_by_name("unused-import").unwrap();
        let dead = lint_by_name("dead-export").unwrap();
        let undef = lint_by_name("undefined-export").unwrap();
        assert_eq!(cfg.level_for(unused, &unit), LintLevel::Allow);
        assert_eq!(cfg.level_for(dead, &unit), LintLevel::Deny);
        assert_eq!(cfg.level_for(undef, &unit), LintLevel::Warn);
        // CLI overrides beat pragmas
        let mut cli = LintConfig::new();
        cli.set("unused-import", LintLevel::Deny).unwrap();
        assert_eq!(cli.level_for(unused, &unit), LintLevel::Deny);
    }
}
