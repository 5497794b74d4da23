//! Incremental build sessions with fine-grained invalidation.
//!
//! A [`BuildSession`] is a persistent handle that owns the parsed
//! [`Program`], the [`SourceTree`], a [`BuildCache`], and — the part
//! one-shot [`build`](crate::driver::build) calls cannot have — memoized
//! per-phase artifacts from the previous build. Edits flow in through
//! [`BuildSession::update_source`] / [`BuildSession::update_unit`] /
//! [`BuildSession::set_options`], and the next
//! [`BuildSession::build`] reruns exactly the phases whose *inputs*
//! changed:
//!
//! * every phase's inputs are reduced to a stable fingerprint (a span-free
//!   hash, so comment and whitespace edits to `.unit` files change
//!   nothing);
//! * the compile phase additionally keeps a **dependency ledger**: the set
//!   of source-tree paths each unit's compile consulted (including
//!   misses), so editing one `.c` file re-runs exactly that unit's
//!   compile, the objcopy of its instances, and the final link;
//! * an unchanged session returns a fully cached [`BuildReport`] without
//!   rerunning anything at all.
//!
//! The memoization is *correctness-first*: every reuse is keyed by a
//! fingerprint of the complete phase input, so a session build and a cold
//! [`build`](crate::driver::build) of the same program/sources/options
//! always produce byte-identical images (`tests/incremental.rs` checks
//! this property over randomized edit sequences). [`SessionStats`] counts
//! per-phase reruns vs reuses, which is what the precision tests pin down.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cobj::object::ObjectFile;
use cobj::{Layout, LinkOptions, Linked};
use knit_lang::ast::{
    COp, CTarget, CTerm, Constraint, DepAtom, DepSide, PathRef, UnitBody, UnitDecl,
};

use crate::analyze::{self, AnalysisMemos, AnalysisReport, LintConfig};
use crate::cache::{BuildCache, StableHasher};
use crate::constraints::{self, ConstraintReport};
use crate::driver::{
    atomic_body, boot_object, compile_unit_cached, flatten_opts, group_externals, join,
    rename_plan, root_exports_map, run_indexed, unit_flags, unit_tus, BuildOptions, BuildReport,
    BuildStats, CompiledUnit, InstanceSyms, RenamePlan, UnitCompile,
};
use crate::elaborate::{elaborate, Elaboration};
use crate::error::KnitError;
use crate::model::Program;
use crate::sched::{self, Schedule};
use crate::vfs::SourceTree;

/// How often one pipeline phase actually ran vs was served from a
/// session's memo (or, for the compile phase, the [`BuildCache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCount {
    /// Times the phase's work actually executed.
    pub runs: usize,
    /// Times a memoized (or cached) result was reused instead.
    pub reuses: usize,
}

/// Cumulative per-phase rerun/reuse counts for one [`BuildSession`].
///
/// `unit_compiles`, `objcopy`, and `flatten` count per-unit / per-instance
/// / per-group work items; the other phases count whole-phase executions.
/// A [`BuildCache`] hit counts as a *reuse* — `runs` always means "the
/// expensive thing actually happened".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Builds requested through [`BuildSession::build`].
    pub builds: usize,
    /// Builds answered entirely from the memoized previous report.
    pub full_reuse_builds: usize,
    /// Elaboration phase executions/reuses.
    pub elaborate: PhaseCount,
    /// Constraint-check phase executions/reuses.
    pub constraints: PhaseCount,
    /// Initializer-schedule phase executions/reuses.
    pub schedule: PhaseCount,
    /// Per-unit compile executions/reuses (`runs` = `cmini` ran).
    pub unit_compiles: PhaseCount,
    /// Per-instance objcopy executions/reuses.
    pub objcopy: PhaseCount,
    /// Per-group flatten recompile executions/reuses.
    pub flatten: PhaseCount,
    /// Boot-object generation executions/reuses.
    pub generate: PhaseCount,
    /// Final link executions/reuses.
    pub link: PhaseCount,
    /// Per-unit analysis summaries ([`BuildSession::analyze`])
    /// executions/reuses.
    pub analyze: PhaseCount,
}

/// Memoized compile artifact for one distinct unit, plus the ledger needed
/// to decide whether it is still valid.
#[derive(Debug)]
struct UnitMemo {
    /// Fingerprint of the unit's *declaration-level* compile inputs
    /// (files list, effective flags, renames) — source *contents* are
    /// covered by `reads` + the session dirty set instead, so deciding
    /// reuse never re-hashes (or re-preprocesses) unchanged sources.
    decl_fp: u64,
    /// The unit's [`BuildCache`] content key from when it was built.
    key: u64,
    /// The compiled artifact.
    cu: Arc<CompiledUnit>,
    /// Every source-tree path the compile consulted (hits and misses).
    reads: BTreeSet<String>,
    /// The unit's symbol-surgery plan, with the elaboration and schedule
    /// fingerprints it was made under: beyond `cu` and the declaration, a
    /// plan reads the unit's ports, their bundle types and its
    /// initializer/finalizer names, which those two fingerprints cover.
    plan: Option<([u64; 2], Arc<RenamePlan>)>,
}

/// Work-item counts from the last completed build, used to keep
/// [`SessionStats`] honest on the fully-memoized fast path.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    units: usize,
    objcopy: usize,
    groups: usize,
}

/// Memoized boot artifact: the generated boot object plus the resolved
/// root export map.
type BootArtifact = (Arc<ObjectFile>, BTreeMap<String, String>);

/// One instance's memoized symbol surgery.
#[derive(Debug)]
struct MapMemo {
    /// Everything the plan and the stamped names read: the elaboration
    /// and schedule fingerprints, and the unit's declaration fingerprint
    /// and compile key.
    key: [u64; 4],
    syms: Arc<InstanceSyms>,
    /// [`InstanceSyms::hash`], computed once with it; the objcopy and
    /// flatten fingerprints hash this instead of the names.
    hash: u64,
}

/// One instance's symbol surgery in a build: its newly stamped names
/// (`None`: the memoized ones still hold) and, unless the instance is
/// flattened, its objcopy fingerprint and newly renamed objects (`None`:
/// the memoized ones still hold).
type Surgery = (Option<MapMemo>, Option<(u64, Option<Vec<Arc<ObjectFile>>>)>);

/// Memoized per-phase artifacts of the previous build. Every entry is
/// keyed by a fingerprint of that phase's complete input; `run_build`
/// reuses an entry only when the fingerprint matches exactly. Artifacts
/// are shared (`Arc`), never copied: a reuse is a reference-count bump,
/// and the report's image shares its functions with `link`'s.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    elaborate: Option<(u64, Arc<Elaboration>)>,
    constraints: Option<(u64, Option<ConstraintReport>)>,
    schedule: Option<(u64, Arc<Schedule>)>,
    units: BTreeMap<String, UnitMemo>,
    /// By instance id.
    maps: Vec<Option<MapMemo>>,
    /// By instance id.
    objcopy: Vec<Option<(u64, Vec<Arc<ObjectFile>>)>>,
    flatten: BTreeMap<usize, (u64, Arc<ObjectFile>)>,
    boot: Option<(u64, BootArtifact)>,
    link: Option<(u64, Linked)>,
    report: Option<BuildReport>,
    opts_fp: Option<u64>,
    counts: Counts,
    analysis: AnalysisMemos,
}

// ---------------------------------------------------------------------------
// fingerprints
//
// All fingerprints are span-free: AST nodes are hashed field by field,
// skipping source positions, so shifting a declaration down a line (or
// editing a comment) invalidates nothing.
// ---------------------------------------------------------------------------

fn hash_pathref(h: &mut StableHasher, p: &PathRef) {
    match p {
        PathRef::Name(n) => {
            h.write_str("name");
            h.write_str(n);
        }
        PathRef::Dotted(a, b) => {
            h.write_str("dot");
            h.write_str(a);
            h.write_str(b);
        }
    }
}

/// Hash the parts of a unit declaration that elaboration can observe: the
/// import/export interface, the compound wiring, and the flatten marker.
/// Atomic bodies contribute only their discriminant — file lists, flags,
/// renames, and schedules feed later phases' fingerprints instead.
fn hash_unit_interface(h: &mut StableHasher, unit: &UnitDecl) {
    h.write_str("unit");
    h.write_str(&unit.name);
    h.write_str(if unit.flatten { "flatten" } else { "plain" });
    for p in &unit.imports {
        h.write_str("import");
        h.write_str(&p.name);
        h.write_str(&p.bundle_type);
    }
    for p in &unit.exports {
        h.write_str("export");
        h.write_str(&p.name);
        h.write_str(&p.bundle_type);
    }
    match &unit.body {
        UnitBody::Atomic(_) => h.write_str("atomic"),
        UnitBody::Compound(c) => {
            h.write_str("compound");
            for inst in &c.instances {
                h.write_str("inst");
                h.write_str(&inst.name);
                h.write_str(&inst.unit);
                for (port, pr) in &inst.bindings {
                    h.write_str("bind");
                    h.write_str(port);
                    hash_pathref(h, pr);
                }
            }
            for eb in &c.export_bindings {
                h.write_str("eb");
                h.write_str(&eb.export);
                h.write_str(&eb.instance);
                h.write_str(&eb.port);
            }
        }
    }
}

/// Fingerprint of everything `elaborate(program, root)` can observe.
fn fp_elaborate(program: &Program, root: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("elaborate");
    h.write_str(root);
    for (name, members) in &program.bundletypes {
        h.write_str("bt");
        h.write_str(name);
        for m in members {
            h.write_str(m);
        }
    }
    for unit in program.units.values() {
        hash_unit_interface(&mut h, unit);
    }
    h.finish()
}

fn hash_cterm(h: &mut StableHasher, t: &CTerm) {
    match t {
        CTerm::Prop { prop, target } => {
            h.write_str("prop");
            h.write_str(prop);
            match target {
                CTarget::Imports => h.write_str("@imports"),
                CTarget::Exports => h.write_str("@exports"),
                CTarget::Name(n) => {
                    h.write_str("@name");
                    h.write_str(n);
                }
            }
        }
        CTerm::Value(v) => {
            h.write_str("value");
            h.write_str(v);
        }
    }
}

fn hash_constraint(h: &mut StableHasher, c: &Constraint) {
    h.write_str("c");
    hash_cterm(h, &c.lhs);
    h.write_str(match c.op {
        COp::Eq => "=",
        COp::Le => "<=",
    });
    hash_cterm(h, &c.rhs);
}

/// Fingerprint of everything the constraint checker can observe: the
/// elaboration, the property posets, value→property bindings, every unit's
/// constraint declarations, and whether checking is enabled at all.
fn fp_constraints(program: &Program, el_fp: u64, opts: &BuildOptions) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("constraints");
    h.write_u64(el_fp);
    h.write_str(if opts.check_constraints { "check" } else { "skip" });
    for (prop, poset) in &program.properties {
        h.write_str("prop");
        h.write_str(prop);
        let values = poset.values();
        for a in values {
            h.write_str(a);
            for b in values {
                if poset.leq(a, b) {
                    h.write_str(b);
                }
            }
        }
    }
    for (value, prop) in &program.value_property {
        h.write_str("vp");
        h.write_str(value);
        h.write_str(prop);
    }
    for unit in program.units.values() {
        h.write_str("u");
        h.write_str(&unit.name);
        for c in &unit.constraints {
            hash_constraint(&mut h, c);
        }
    }
    h.finish()
}

/// Fingerprint of everything the initializer scheduler can observe beyond
/// the elaboration: each instantiated unit's `depends`, `initializer`, and
/// `finalizer` declarations.
fn fp_schedule(program: &Program, el: &Elaboration, el_fp: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("schedule");
    h.write_u64(el_fp);
    let distinct: BTreeSet<&str> = el.instances.iter().map(|i| i.unit.as_str()).collect();
    for name in distinct {
        let body = atomic_body(&program.units[name]);
        h.write_str("u");
        h.write_str(name);
        for d in &body.depends {
            h.write_str("dep");
            match &d.lhs {
                DepSide::Exports => h.write_str("@exports"),
                DepSide::Name(n) => {
                    h.write_str("@name");
                    h.write_str(n);
                }
            }
            for a in &d.rhs {
                match a {
                    DepAtom::Imports => h.write_str("@imports"),
                    DepAtom::Name(n) => {
                        h.write_str("@name");
                        h.write_str(n);
                    }
                }
            }
        }
        for i in &body.initializers {
            h.write_str("init");
            h.write_str(&i.func);
            h.write_str(&i.bundle);
        }
        for f in &body.finalizers {
            h.write_str("fini");
            h.write_str(&f.func);
            h.write_str(&f.bundle);
        }
    }
    h.finish()
}

/// Fingerprint of a unit's declaration-level compile inputs: its files
/// list, effective flags, and renames — deliberately *not* the source
/// contents, which the dependency ledger covers. (Also keys the
/// analyzer's per-unit summaries; lint *pragmas* are deliberately
/// excluded — they change which diagnostics are reported, not what the
/// sources mean, and are applied at emit time.)
pub(crate) fn fp_unit_decl(program: &Program, unit_name: &str, opts: &BuildOptions) -> u64 {
    let body = atomic_body(&program.units[unit_name]);
    let mut h = StableHasher::new();
    h.write_str("unitdecl");
    h.write_str(unit_name);
    for f in &body.files {
        h.write_str("file");
        h.write_str(f);
    }
    for f in unit_flags(program, body, opts) {
        h.write_str("flag");
        h.write_str(f);
    }
    for r in &body.renames {
        h.write_str("rename");
        h.write_str(&r.port);
        h.write_str(&r.member);
        h.write_str(&r.to);
    }
    h.finish()
}

/// Fingerprint of every build-relevant option. [`BuildOptions::jobs`] is
/// deliberately excluded: parallelism never changes the produced image, so
/// changing it must not invalidate anything.
fn fp_options(opts: &BuildOptions) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("opts");
    h.write_str(&opts.root);
    match &opts.entry {
        Some(e) => {
            h.write_str("entry");
            h.write_str(e);
        }
        None => h.write_str("noentry"),
    }
    h.write_str(if opts.check_constraints { "check" } else { "nocheck" });
    h.write_str(if opts.flatten { "flatten" } else { "noflatten" });
    for f in &opts.default_flags {
        h.write_str("flag");
        h.write_str(f);
    }
    for s in &opts.runtime_symbols {
        h.write_str("rt");
        h.write_str(s);
    }
    match &opts.profile {
        Some(p) => {
            h.write_str("profile");
            h.write_u64(p.stable_hash());
        }
        None => h.write_str("noprofile"),
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// the phase-split build
// ---------------------------------------------------------------------------

impl UnitMemo {
    /// Unit `name`'s rename plan and whether it is new: the memoized one
    /// when it was made under the same elaboration and schedule
    /// fingerprints (`fps`), else a new one for the caller to memoize. An
    /// unbound-symbol error blames `first_instance`, the unit's first
    /// instance.
    fn plan(
        &self,
        program: &Program,
        name: &str,
        first_instance: &str,
        fps: [u64; 2],
    ) -> Result<(Arc<RenamePlan>, bool), KnitError> {
        if let Some((made, plan)) = &self.plan {
            if *made == fps {
                return Ok((Arc::clone(plan), false));
            }
        }
        let plan =
            rename_plan(program, name, &self.cu, first_instance).map_err(|e| {
                match program.unit_site(name) {
                    Some((file, span)) => e.at(file, span),
                    None => e,
                }
            })?;
        Ok((Arc::new(plan), true))
    }
}

/// Instance `path` (of unit `unit`)'s copies of its unit's compiled
/// objects, renamed by `syms` and named after the instance.
fn objcopy_instance(
    cu: &CompiledUnit,
    path: &str,
    unit: &str,
    syms: &InstanceSyms,
) -> Result<Vec<Arc<ObjectFile>>, KnitError> {
    let mut objs = Vec::with_capacity(cu.objects.len());
    for (j, obj) in cu.objects.iter().enumerate() {
        let mut renamed = cobj::objcopy::rename(obj, &syms.renames(j)).map_err(|e| {
            KnitError::BadDeclaration { unit: unit.to_string(), what: format!("objcopy: {e}") }
        })?;
        renamed.name = format!("{path}:{}", obj.name);
        objs.push(Arc::new(renamed));
    }
    Ok(objs)
}

impl Memo {
    /// The elaboration of `root` and its fingerprint: the memoized one when
    /// the fingerprint matches, else a new one, memoized in turn. `count`
    /// tallies the run or reuse.
    fn elaboration(
        &mut self,
        program: &Program,
        root: &str,
        count: &mut PhaseCount,
    ) -> Result<(u64, Arc<Elaboration>), KnitError> {
        let fp = fp_elaborate(program, root);
        if let Some((memo_fp, el)) = &self.elaborate {
            if *memo_fp == fp {
                count.reuses += 1;
                return Ok((fp, Arc::clone(el)));
            }
        }
        count.runs += 1;
        let el = Arc::new(elaborate(program, root)?);
        self.elaborate = Some((fp, Arc::clone(&el)));
        Ok((fp, el))
    }

    /// The initializer schedule of `el` (fingerprinted `el_fp`) and its
    /// fingerprint, memoized like [`Memo::elaboration`].
    fn schedule(
        &mut self,
        program: &Program,
        el: &Elaboration,
        el_fp: u64,
        count: &mut PhaseCount,
    ) -> Result<(u64, Arc<Schedule>), KnitError> {
        let step = find_schedule(&self.schedule, program, el, el_fp);
        self.commit_schedule(step, count)
    }

    /// Count and memoize a [`find_schedule`] result.
    fn commit_schedule(
        &mut self,
        step: Result<ScheduleStep, KnitError>,
        count: &mut PhaseCount,
    ) -> Result<(u64, Arc<Schedule>), KnitError> {
        match step {
            Ok((fp, true, s)) => {
                count.runs += 1;
                self.schedule = Some((fp, Arc::clone(&s)));
                Ok((fp, s))
            }
            Ok((fp, false, s)) => {
                count.reuses += 1;
                Ok((fp, s))
            }
            Err(e) => {
                count.runs += 1;
                Err(e)
            }
        }
    }
}

/// A schedule, its fingerprint, and whether it was made anew (`true`) or
/// is the memoized one.
type ScheduleStep = (u64, bool, Arc<Schedule>);

/// The schedule of `el` (fingerprinted `el_fp`): `memo`'s when the
/// fingerprint matches, else a new one. Writes nothing, so it can run next
/// to other phases.
fn find_schedule(
    memo: &Option<(u64, Arc<Schedule>)>,
    program: &Program,
    el: &Elaboration,
    el_fp: u64,
) -> Result<ScheduleStep, KnitError> {
    let fp = fp_schedule(program, el, el_fp);
    match memo {
        Some((memo_fp, s)) if *memo_fp == fp => Ok((fp, false, Arc::clone(s))),
        _ => sched::schedule(program, el).map(|s| (fp, true, Arc::new(s))),
    }
}

/// Run the eight-phase pipeline over `memo`, rerunning exactly the phases
/// whose fingerprints changed (and, for compiles, the units whose ledger
/// intersects `dirty`). With a fresh [`Memo`] this is a cold one-shot
/// build ([`build`](crate::driver::build)); a [`BuildSession`] passes its
/// persistent memo to make rebuilds incremental.
pub(crate) fn run_build(
    program: &Program,
    tree: &SourceTree,
    opts: &BuildOptions,
    cache: &BuildCache,
    memo: &mut Memo,
    stats: &mut SessionStats,
    dirty: &BTreeSet<String>,
) -> Result<BuildReport, KnitError> {
    stats.builds += 1;
    let mut phases: Vec<(&'static str, Duration)> = Vec::new();
    let mut timer = Instant::now();
    macro_rules! phase {
        ($name:literal) => {{
            phases.push(($name, timer.elapsed()));
            timer = Instant::now();
        }};
    }

    if !program.units.contains_key(&opts.root) {
        return Err(KnitError::Unknown {
            kind: "unit",
            name: opts.root.clone(),
            context: "build root".to_string(),
        });
    }

    // Evict unit memos that consulted an edited path — including units not
    // reached by this build's root, which would otherwise go stale
    // silently and resurface if the root later changes back. Their
    // artifacts go back to the cache after the compile phase.
    let mut superseded: Vec<UnitMemo> = Vec::new();
    if !dirty.is_empty() {
        let stale: Vec<String> = memo
            .units
            .iter()
            .filter(|(_, m)| !m.reads.is_disjoint(dirty))
            .map(|(name, _)| name.clone())
            .collect();
        superseded.extend(stale.iter().filter_map(|name| memo.units.remove(name)));
    }

    // --- elaborate ---
    let (el_fp, el) = memo.elaboration(program, &opts.root, &mut stats.elaborate)?;
    phase!("elaborate");

    // --- constraints and schedule ---
    // Independent of each other, so each is fingerprinted and, on a memo
    // miss, worked out — concurrently when `opts.jobs > 1`, writing
    // nothing — then both are committed in pipeline order: a constraint
    // error still wins, and stats and memos are what the serial steps
    // leave.
    let (c_memo, s_memo) = (&memo.constraints, &memo.schedule);
    let ((c_step, c_took), s_step) = join(
        opts.jobs,
        || {
            let start = Instant::now();
            let c_fp = fp_constraints(program, el_fp, opts);
            let step = match c_memo {
                Some((fp, rep)) if *fp == c_fp => Ok((c_fp, false, rep.clone())),
                _ if opts.check_constraints => {
                    constraints::check(program, &el).map(|rep| (c_fp, true, Some(rep)))
                }
                _ => Ok((c_fp, true, None)),
            };
            (step, start.elapsed())
        },
        || find_schedule(s_memo, program, &el, el_fp),
    );
    let constraint_report = match c_step {
        Ok((c_fp, true, rep)) => {
            if opts.check_constraints {
                stats.constraints.runs += 1;
            }
            memo.constraints = Some((c_fp, rep.clone()));
            rep
        }
        Ok((_, false, rep)) => {
            stats.constraints.reuses += 1;
            rep
        }
        Err(e) => {
            stats.constraints.runs += 1;
            return Err(e);
        }
    };
    let (s_fp, schedule) = memo.commit_schedule(s_step, &mut stats.schedule)?;
    // The constraints phase is its own step's time; the schedule phase is
    // the rest, which overlaps it when the two ran concurrently.
    let both = timer.elapsed();
    phases.push(("constraints", c_took.min(both)));
    phases.push(("schedule", both.saturating_sub(c_took)));
    timer = Instant::now();

    // --- compile each distinct unit once (instances share the result) ---
    // A memoized unit is reused iff its declaration fingerprint matches
    // and none of the paths it read were edited (the ledger was pruned
    // above); everything else goes through the content-hash cache,
    // concurrently under `opts.jobs`.
    // Distinct units in name order, and each instance's index into them:
    // the per-unit tables below are vectors over that index.
    let distinct: Vec<&str> = el.by_unit.keys().map(|u| u.as_str()).collect();
    let mut unit_ix: Vec<usize> = vec![0; el.instances.len()];
    for (u, ids) in el.by_unit.values().enumerate() {
        for &id in ids {
            unit_ix[id] = u;
        }
    }
    let mut decl_fps: Vec<u64> = Vec::with_capacity(distinct.len());
    let mut to_compile: Vec<usize> = Vec::new();
    for (u, &name) in distinct.iter().enumerate() {
        let decl_fp = fp_unit_decl(program, name, opts);
        let reusable = matches!(memo.units.get(name), Some(m) if m.decl_fp == decl_fp);
        decl_fps.push(decl_fp);
        if !reusable {
            to_compile.push(u);
        }
    }
    let compile_results = run_indexed(opts.jobs, to_compile.len(), |i| {
        let start = Instant::now();
        let r = compile_unit_cached(program, tree, distinct[to_compile[i]], opts, cache);
        (r, start.elapsed())
    });
    let mut fresh: Vec<Option<_>> = (0..distinct.len()).map(|_| None).collect();
    for (&u, (result, duration)) in to_compile.iter().zip(compile_results) {
        fresh[u] = Some((result?, duration));
    }
    let mut compiled: Vec<Arc<CompiledUnit>> = Vec::with_capacity(distinct.len());
    let mut unit_keys: Vec<u64> = Vec::with_capacity(distinct.len());
    let mut unit_compiles: Vec<UnitCompile> = Vec::with_capacity(distinct.len());
    let (mut cache_hits, mut cache_misses, mut ledger_reuses) = (0usize, 0usize, 0usize);
    for (u, &name) in distinct.iter().enumerate() {
        if let Some((ub, duration)) = fresh[u].take() {
            if ub.cache_hit {
                cache_hits += 1;
                stats.unit_compiles.reuses += 1;
            } else {
                cache_misses += 1;
                stats.unit_compiles.runs += 1;
            }
            unit_compiles.push(UnitCompile {
                unit: name.to_string(),
                duration,
                cache_hit: ub.cache_hit,
            });
            compiled.push(Arc::clone(&ub.cu));
            unit_keys.push(ub.key);
            let unit_memo = UnitMemo {
                decl_fp: decl_fps[u],
                key: ub.key,
                cu: ub.cu,
                reads: ub.reads,
                plan: None,
            };
            superseded.extend(memo.units.insert(name.to_string(), unit_memo));
        } else {
            let m = &memo.units[name];
            ledger_reuses += 1;
            stats.unit_compiles.reuses += 1;
            unit_compiles.push(UnitCompile {
                unit: name.to_string(),
                duration: Duration::ZERO,
                cache_hit: true,
            });
            compiled.push(Arc::clone(&m.cu));
            unit_keys.push(m.key);
        }
    }
    // Only now, with this build's artifacts held, can the cache tell which
    // superseded ones nobody uses any more.
    for m in superseded {
        cache.release(m.key, m.cu);
    }
    phase!("compile");

    // --- symbol surgery: a rename plan once per distinct unit (memoized
    //     next to its compile), then per instance the stamped target names
    //     (memoized on everything they read) and the objcopy by symbol
    //     index ---
    // Only instances with source translation units can be merged; units
    // built from pre-compiled objects stay on the objcopy path even when
    // inside a flatten group.
    let flattened: BTreeSet<usize> = if opts.flatten {
        el.flatten_groups
            .iter()
            .flatten()
            .copied()
            .filter(|&id| compiled[unit_ix[id]].has_sources)
            .collect()
    } else {
        BTreeSet::new()
    };
    memo.maps.resize_with(el.instances.len(), || None);
    memo.objcopy.resize_with(el.instances.len(), || None);
    let map_key = |id: usize| [el_fp, s_fp, decl_fps[unit_ix[id]], unit_keys[unit_ix[id]]];
    let mut stale: Vec<bool> = vec![false; distinct.len()];
    for id in 0..el.instances.len() {
        if !matches!(&memo.maps[id], Some(m) if m.key == map_key(id)) {
            stale[unit_ix[id]] = true;
        }
    }
    // Plans of the units with a stale instance, on `opts.jobs` workers and
    // merged in unit-name order. The error reported is that of the failing
    // unit instantiated first.
    let first_ids: Vec<usize> = el.by_unit.values().map(|ids| ids[0]).collect();
    let stale_units: Vec<usize> = (0..distinct.len()).filter(|&u| stale[u]).collect();
    let planned = run_indexed(opts.jobs, stale_units.len(), |i| {
        let (u, name) = (stale_units[i], distinct[stale_units[i]]);
        let first_instance = &el.instances[first_ids[u]].path;
        memo.units[name].plan(program, name, first_instance, [el_fp, s_fp])
    });
    let mut plans: Vec<Option<Arc<RenamePlan>>> = vec![None; distinct.len()];
    let mut failed: Option<(usize, KnitError)> = None;
    for (&u, result) in stale_units.iter().zip(planned) {
        match result {
            Ok((plan, fresh)) => {
                if fresh {
                    let unit_memo = memo.units.get_mut(distinct[u]).expect("compiled above");
                    unit_memo.plan = Some(([el_fp, s_fp], Arc::clone(&plan)));
                }
                plans[u] = Some(plan);
            }
            Err(e) if failed.as_ref().is_none_or(|(first, _)| first_ids[u] < *first) => {
                failed = Some((first_ids[u], e));
            }
            Err(_) => {}
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
    }
    // Stamp and objcopy every instance on `opts.jobs` workers, reading the
    // memo, then merge in instance order (the link's input order),
    // memoizing what ran.
    let surgery = run_indexed(opts.jobs, el.instances.len(), |id| -> Result<Surgery, KnitError> {
        let (inst, u) = (&el.instances[id], unit_ix[id]);
        let key = map_key(id);
        let stamped = match &memo.maps[id] {
            Some(m) if m.key == key => None,
            _ => {
                let syms = InstanceSyms::stamp(plans[u].as_ref().expect("planned above"), &el, id);
                Some(MapMemo { key, hash: syms.hash(), syms: Arc::new(syms) })
            }
        };
        if flattened.contains(&id) {
            return Ok((stamped, None));
        }
        let m = stamped.as_ref().or(memo.maps[id].as_ref()).expect("stamped or memoized");
        let fp = {
            let mut h = StableHasher::new();
            h.write_str("objcopy");
            h.write_u64(unit_keys[u]);
            h.write_str(&inst.path);
            h.write_u64(m.hash);
            h.finish()
        };
        let copied = match &memo.objcopy[id] {
            Some((f, _)) if *f == fp => None,
            _ => Some(objcopy_instance(&compiled[u], &inst.path, &inst.unit, &m.syms)?),
        };
        Ok((stamped, Some((fp, copied))))
    });
    let mut maps: Vec<Arc<InstanceSyms>> = Vec::with_capacity(el.instances.len());
    let mut map_hashes: Vec<u64> = Vec::with_capacity(el.instances.len());
    let mut linked_objects: Vec<Arc<ObjectFile>> = Vec::with_capacity(el.instances.len());
    let mut objcopy_fps: Vec<(usize, u64)> = Vec::with_capacity(el.instances.len());
    for (id, result) in surgery.into_iter().enumerate() {
        let (stamped, objcopy) = result?;
        if stamped.is_some() {
            memo.maps[id] = stamped;
        }
        let m = memo.maps[id].as_ref().expect("stamped above");
        maps.push(Arc::clone(&m.syms));
        map_hashes.push(m.hash);
        let Some((fp, copied)) = objcopy else { continue };
        match copied {
            None => {
                stats.objcopy.reuses += 1;
                let (_, objs) = memo.objcopy[id].as_ref().expect("memoized");
                linked_objects.extend(objs.iter().cloned());
            }
            Some(objs) => {
                stats.objcopy.runs += 1;
                linked_objects.extend(objs.iter().cloned());
                memo.objcopy[id] = Some((fp, objs));
            }
        }
        objcopy_fps.push((id, fp));
    }
    phase!("objcopy");

    // --- flatten groups (§6): source-merge + recompile, one job per group ---
    let mut n_groups = 0usize;
    let mut group_fps: Vec<(usize, u64)> = Vec::new();
    if opts.flatten {
        let copts = flatten_opts(opts);
        // Decide reuse per group, then recompile the missed groups
        // concurrently (each parsing its members' sources again) and splice
        // everything back in group order so link order never depends on
        // cache warmth.
        let mut pending: Vec<(usize, BTreeSet<usize>, BTreeSet<String>)> = Vec::new();
        let mut order: Vec<(usize, u64, Option<Arc<ObjectFile>>)> = Vec::new();
        for (gi, group) in el.flatten_groups.iter().enumerate() {
            let group_set: BTreeSet<usize> =
                group.iter().copied().filter(|id| flattened.contains(id)).collect();
            if group_set.is_empty() {
                continue;
            }
            let external = group_externals(program, &el, &group_set, &schedule, &maps);
            let fp = {
                let mut h = StableHasher::new();
                h.write_str("flatten");
                for &id in &group_set {
                    h.write_u64(id as u64);
                    h.write_u64(unit_keys[unit_ix[id]]);
                    h.write_u64(map_hashes[id]);
                }
                for e in &external {
                    h.write_str("ext");
                    h.write_str(e);
                }
                for f in &opts.default_flags {
                    h.write_str("flag");
                    h.write_str(f);
                }
                h.finish()
            };
            group_fps.push((gi, fp));
            n_groups += 1;
            match memo.flatten.get(&gi) {
                Some((f, obj)) if *f == fp => {
                    stats.flatten.reuses += 1;
                    order.push((gi, fp, Some(obj.clone())));
                }
                _ => {
                    stats.flatten.runs += 1;
                    order.push((gi, fp, None));
                    pending.push((gi, group_set, external));
                }
            }
        }
        let flat_results = run_indexed(opts.jobs, pending.len(), |i| {
            let (gi, group_set, external) = &pending[i];
            let mut inputs = Vec::with_capacity(group_set.len());
            for &id in group_set {
                inputs.push(flatten::FlattenInput {
                    tag: format!("k{id}"),
                    tus: unit_tus(program, tree, &el.instances[id].unit, opts)?,
                    symbol_map: maps[id].to_map(),
                });
            }
            flatten::flatten_group(&format!("flat{gi}"), &inputs, &copts, external)
                .map_err(KnitError::Compile)
        });
        let mut flat_iter = flat_results.into_iter();
        for (gi, fp, reused) in order {
            let obj = match reused {
                Some(obj) => obj,
                None => {
                    let mut obj = flat_iter.next().expect("one result per pending group")?;
                    obj.name = format!("flatten-group-{gi}.o");
                    let obj = Arc::new(obj);
                    memo.flatten.insert(gi, (fp, Arc::clone(&obj)));
                    obj
                }
            };
            linked_objects.push(obj);
        }
    }
    phase!("flatten");

    // --- boot object ---
    let exports_map = root_exports_map(program, &el);
    let link_name = |(inst, func): &(usize, String)| -> String {
        maps[*inst].get(func).unwrap_or(func).to_string()
    };
    let inits: Vec<String> = schedule.inits.iter().map(link_name).collect();
    let finis: Vec<String> = schedule.finis.iter().map(link_name).collect();
    let boot_fp = {
        let mut h = StableHasher::new();
        h.write_str("boot");
        for name in &inits {
            h.write_str("init");
            h.write_str(name);
        }
        for name in &finis {
            h.write_str("fini");
            h.write_str(name);
        }
        for (k, v) in &exports_map {
            h.write_str(k);
            h.write_str(v);
        }
        match &opts.entry {
            Some(e) => {
                h.write_str("entry");
                h.write_str(e);
            }
            None => h.write_str("noentry"),
        }
        h.finish()
    };
    let (boot, exports) = match &memo.boot {
        Some((fp, v)) if *fp == boot_fp => {
            stats.generate.reuses += 1;
            v.clone()
        }
        _ => {
            stats.generate.runs += 1;
            let boot = boot_object(&inits, &finis, &exports_map, opts)?;
            let v = (Arc::new(boot), exports_map);
            memo.boot = Some((boot_fp, v.clone()));
            v
        }
    };
    phase!("generate");

    // --- final link ---
    let n_objects = linked_objects.len() + 1;
    let link_fp = {
        let mut h = StableHasher::new();
        h.write_str("link");
        h.write_u64(boot_fp);
        for (id, fp) in &objcopy_fps {
            h.write_u64(*id as u64);
            h.write_u64(*fp);
        }
        for (gi, fp) in &group_fps {
            h.write_str("g");
            h.write_u64(*gi as u64);
            h.write_u64(*fp);
        }
        for s in &opts.runtime_symbols {
            h.write_str("rt");
            h.write_str(s);
        }
        // The profile only affects placement, which only the linker
        // observes — hashing it here (and nowhere else) is what makes a
        // profile swap invalidate exactly the link phase.
        match &opts.profile {
            Some(p) => {
                h.write_str("profile");
                h.write_u64(p.stable_hash());
            }
            None => h.write_str("noprofile"),
        }
        h.finish()
    };
    // A changed fingerprint relinks against the previous link, which
    // patches the changed objects in place when they kept their shape
    // (`Linked::relink`) and links from scratch otherwise.
    match &mut memo.link {
        Some((fp, _)) if *fp == link_fp => stats.link.reuses += 1,
        prev => {
            stats.link.runs += 1;
            let mut objects: Vec<Arc<ObjectFile>> = Vec::with_capacity(n_objects);
            objects.push(boot);
            objects.extend(linked_objects);
            let layout = match &opts.profile {
                Some(p) => Layout::ProfileGuided(p.as_ref().clone()),
                None => Layout::InputOrder,
            };
            let lopts = LinkOptions {
                entry: Some("__start".to_string()),
                runtime_symbols: opts.runtime_symbols.clone(),
                layout,
                jobs: opts.jobs,
            };
            match prev {
                Some((fp, linked)) => {
                    linked.relink(objects, &lopts)?;
                    *fp = link_fp;
                }
                None => *prev = Some((link_fp, Linked::link(objects, &lopts)?)),
            }
        }
    }
    let image = memo.link.as_ref().expect("linked above").1.image.clone();
    phase!("link");
    let _ = timer;

    let build_stats = BuildStats {
        instances: el.instances.len(),
        units_compiled: cache_misses,
        units_reused: cache_hits + ledger_reuses,
        objects: n_objects,
        flatten_groups: n_groups,
        text_size: image.text_size,
        cache_hits,
        cache_misses,
    };
    let report = BuildReport {
        image,
        phases,
        schedule: schedule.describe(&el),
        constraints: constraint_report,
        exports,
        stats: build_stats,
        unit_compiles,
        jobs: opts.jobs.max(1),
        elaboration: el,
    };
    memo.counts = Counts { units: distinct.len(), objcopy: objcopy_fps.len(), groups: n_groups };
    memo.report = Some(report.clone());
    Ok(report)
}

// ---------------------------------------------------------------------------
// the session
// ---------------------------------------------------------------------------

/// A persistent, incremental build handle.
///
/// A session owns the program, sources, options, compile cache, and the
/// memoized artifacts of its previous build. Feed edits in, call
/// [`BuildSession::build`], and exactly the invalidated work reruns:
///
/// ```
/// use knit::{BuildOptions, BuildSession};
///
/// let mut s = BuildSession::new(BuildOptions::root("App").jobs(1).build());
/// s.load_units("app.unit", r#"
///     bundletype Main = { main }
///     unit App = { exports [ main : Main ]; files { "app.c" }; }
/// "#).unwrap();
/// s.update_source("app.c", "int main() { return 41; }");
///
/// let cold = s.build().unwrap();
/// let warm = s.build().unwrap(); // nothing changed: fully memoized
/// assert_eq!(cold.image, warm.image);
/// assert_eq!(s.stats().full_reuse_builds, 1);
///
/// s.update_source("app.c", "int main() { return 42; }");
/// let incr = s.build().unwrap(); // exactly one recompile
/// assert_eq!(incr.stats.units_compiled, 1);
/// ```
///
/// **Invalidation granularity.** Editing a `.c`/`.h` file re-runs exactly
/// the compiles whose dependency ledger contains that path (plus their
/// instances' objcopy and the final link). Editing a `.unit` file via
/// [`BuildSession::update_unit`] re-runs a phase only when the part of the
/// declaration that phase actually reads changed — re-elaboration needs an
/// *interface* change (imports/exports/wiring/flatten), not a body or
/// comment edit. Changing options invalidates only the phases that observe
/// the changed field; [`BuildOptions::jobs`] invalidates nothing.
#[derive(Debug)]
pub struct BuildSession {
    program: Program,
    tree: SourceTree,
    opts: BuildOptions,
    cache: BuildCache,
    memo: Memo,
    stats: SessionStats,
    dirty: BTreeSet<String>,
    analysis_dirty: BTreeSet<String>,
    program_dirty: bool,
}

/// Short alias for [`BuildSession`], re-exported by [`crate::prelude`].
pub type Session = BuildSession;

impl BuildSession {
    /// An empty session building with `opts`. Register `.unit` sources
    /// with [`BuildSession::load_units`] and C sources with
    /// [`BuildSession::update_source`].
    pub fn new(opts: BuildOptions) -> BuildSession {
        BuildSession::from_parts(Program::new(), SourceTree::new(), opts)
    }

    /// A session over an existing program and source tree.
    pub fn from_parts(program: Program, tree: SourceTree, opts: BuildOptions) -> BuildSession {
        BuildSession {
            program,
            tree,
            opts,
            cache: BuildCache::new(),
            memo: Memo::default(),
            stats: SessionStats::default(),
            dirty: BTreeSet::new(),
            analysis_dirty: BTreeSet::new(),
            program_dirty: false,
        }
    }

    /// Use `cache` for compiles. [`BuildCache`] clones share storage, so
    /// sessions can warm each other through a shared cache.
    #[must_use]
    pub fn with_cache(mut self, cache: BuildCache) -> BuildSession {
        self.cache = cache;
        self
    }

    /// Parse `src` (a `.unit` file) and register its declarations.
    /// Duplicate declarations are errors — use
    /// [`BuildSession::update_unit`] to *replace* a file's declarations.
    pub fn load_units(&mut self, file: &str, src: &str) -> Result<(), KnitError> {
        self.program.load_str(file, src)?;
        self.program_dirty = true;
        Ok(())
    }

    /// Re-parse `src` and redefine the declarations it contains
    /// (transactionally: on error the program is unchanged). The next
    /// build re-runs only the phases whose fingerprint actually changed —
    /// a comment or body-whitespace edit reruns nothing.
    pub fn update_unit(&mut self, file: &str, src: &str) -> Result<(), KnitError> {
        self.program.update_str(file, src)?;
        self.program_dirty = true;
        Ok(())
    }

    /// Add or replace one C source or header. A no-op when `text` matches
    /// the current contents; otherwise the next build recompiles exactly
    /// the units whose dependency ledger contains `path`.
    pub fn update_source(&mut self, path: &str, text: &str) {
        if self.tree.get(path) == Some(text) {
            return;
        }
        self.tree.add(path, text);
        self.dirty.insert(path.to_string());
        self.analysis_dirty.insert(path.to_string());
    }

    /// Replace the build options. Only phases that observe a changed field
    /// rerun; changing [`BuildOptions::jobs`] alone invalidates nothing.
    pub fn set_options(&mut self, opts: BuildOptions) {
        self.opts = opts;
    }

    /// Replace the layout profile ([`BuildOptions::profile`]). Placement
    /// is a link-time decision, so the next [`BuildSession::build`] reruns
    /// exactly the link phase — every compile, objcopy, and flatten
    /// artifact is reused.
    pub fn set_profile(&mut self, profile: Option<Arc<cobj::LayoutProfile>>) {
        self.opts.profile = profile;
    }

    /// The registered program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The session's source tree.
    pub fn tree(&self) -> &SourceTree {
        &self.tree
    }

    /// The current build options.
    pub fn options(&self) -> &BuildOptions {
        &self.opts
    }

    /// The session's compile cache.
    pub fn cache(&self) -> &BuildCache {
        &self.cache
    }

    /// Cumulative per-phase rerun/reuse counts.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Run the cross-unit lints (see [`crate::analyze`]) over the current
    /// program and sources.
    ///
    /// Analysis shares the session's memoized elaboration and schedule,
    /// and keeps its own per-unit summary memo: a summary is reused
    /// unless the unit's declaration fingerprint changed or one of the
    /// paths it read (sources and includes) was edited since the last
    /// `analyze` call — so a one-file edit re-summarizes exactly the
    /// units that read that file ([`SessionStats::analyze`] pins this).
    /// The lint passes themselves are recomputed every call. Both halves
    /// run on up to [`BuildOptions::jobs`] threads: one fan-out
    /// fingerprints each unit and summarizes the misses, a second runs
    /// the lint passes per unit and per instance. On a cold 10k-unit
    /// session summarizing takes about four fifths of the call and the
    /// lint passes about a fifth. The report and the stats are the same
    /// for every `jobs` value.
    pub fn analyze(&mut self, config: &LintConfig) -> Result<AnalysisReport, KnitError> {
        if !self.program.units.contains_key(&self.opts.root) {
            return Err(KnitError::Unknown {
                kind: "unit",
                name: self.opts.root.clone(),
                context: "analysis root".to_string(),
            });
        }
        let dirty = std::mem::take(&mut self.analysis_dirty);
        if !dirty.is_empty() {
            self.memo.analysis.retain(|_, m| m.summary.reads.is_disjoint(&dirty));
        }
        let (program, memo, stats) = (&self.program, &mut self.memo, &mut self.stats);
        let result = (|| {
            let (el_fp, el) = memo.elaboration(program, &self.opts.root, &mut stats.elaborate)?;
            let (_, schedule) = memo.schedule(program, &el, el_fp, &mut stats.schedule)?;
            analyze::run_analysis(
                program,
                &self.tree,
                &self.opts,
                config,
                &el,
                &schedule,
                &mut memo.analysis,
                &mut stats.analyze,
            )
        })();
        if result.is_err() {
            // keep the paths dirty so a later analyze (or the same one,
            // retried) still re-summarizes everything the edit touched
            self.analysis_dirty.extend(dirty);
        }
        result
    }

    /// Build (or incrementally rebuild) the image.
    ///
    /// When nothing changed since the last successful build, the previous
    /// [`BuildReport`] is returned directly (with timings zeroed and the
    /// reuse stats updated) without touching any pipeline phase.
    pub fn build(&mut self) -> Result<BuildReport, KnitError> {
        let opts_fp = fp_options(&self.opts);
        if !self.program_dirty && self.dirty.is_empty() && self.memo.opts_fp == Some(opts_fp) {
            if let Some(report) = &self.memo.report {
                self.stats.builds += 1;
                self.stats.full_reuse_builds += 1;
                self.stats.elaborate.reuses += 1;
                self.stats.constraints.reuses += 1;
                self.stats.schedule.reuses += 1;
                self.stats.unit_compiles.reuses += self.memo.counts.units;
                self.stats.objcopy.reuses += self.memo.counts.objcopy;
                self.stats.flatten.reuses += self.memo.counts.groups;
                self.stats.generate.reuses += 1;
                self.stats.link.reuses += 1;
                let mut r = report.clone();
                for p in &mut r.phases {
                    p.1 = Duration::ZERO;
                }
                for uc in &mut r.unit_compiles {
                    uc.cache_hit = true;
                    uc.duration = Duration::ZERO;
                }
                r.stats.cache_hits = 0;
                r.stats.cache_misses = 0;
                r.stats.units_compiled = 0;
                r.stats.units_reused = self.memo.counts.units;
                r.jobs = self.opts.jobs.max(1);
                return Ok(r);
            }
        }
        let dirty = std::mem::take(&mut self.dirty);
        let result = run_build(
            &self.program,
            &self.tree,
            &self.opts,
            &self.cache,
            &mut self.memo,
            &mut self.stats,
            &dirty,
        );
        match &result {
            Ok(_) => {
                self.program_dirty = false;
                self.memo.opts_fp = Some(opts_fp);
            }
            Err(_) => {
                // Keep the paths dirty: the failed build may have evicted
                // nothing, and the fast path must stay blocked until a
                // build actually succeeds.
                self.dirty = dirty;
            }
        }
        result
    }

    /// Every source-tree path the last build's compiles consulted — the
    /// union of the per-unit dependency ledgers, *including misses* (a
    /// header probed but absent is still watched, so creating it triggers
    /// a rebuild). This is what a file watcher should poll instead of the
    /// whole source tree; `knitc --watch` does exactly that.
    pub fn watched_paths(&self) -> Vec<String> {
        let mut all = BTreeSet::new();
        for memo in self.memo.units.values() {
            all.extend(memo.reads.iter().cloned());
        }
        all.into_iter().collect()
    }
}

// ---------------------------------------------------------------------------
// the thread-safe session facade
// ---------------------------------------------------------------------------

/// A cloneable, thread-safe handle to a [`BuildSession`] — the blessed
/// entry point for everything that outlives one function call: the
/// `knitc serve` daemon hands these out
/// ([`Server::open_session`](crate::server::Engine::open_session)), and
/// standalone tools hold one instead of a bare session when more than one
/// thread is involved.
///
/// Clones share the same underlying session (state edits through one are
/// visible through all). All methods serialize on the session's own lock,
/// so two handles to *different* sessions build in parallel while two
/// handles to the *same* session queue up — and a shared [`BuildCache`]
/// (see [`BuildSession::with_cache`]) dedupes identical unit compiles
/// across sessions either way.
///
/// Lock order (for code holding more than one lock): server session
/// registry → session handle → `BuildCache` shard (a leaf; never held
/// across a callback).
///
/// ```
/// use knit::{BuildOptions, SessionHandle};
///
/// let h = SessionHandle::new(BuildOptions::root("App").jobs(1).build());
/// h.load_units("app.unit", r#"
///     bundletype Main = { main }
///     unit App = { exports [ main : Main ]; files { "app.c" }; }
/// "#).unwrap();
/// h.update_source("app.c", "int main() { return 7; }");
/// let clone = h.clone();
/// let report = std::thread::spawn(move || clone.build().unwrap()).join().unwrap();
/// assert_eq!(report.stats.units_compiled, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SessionHandle {
    inner: Arc<std::sync::Mutex<BuildSession>>,
}

impl SessionHandle {
    /// A handle to a fresh empty session building with `opts`.
    pub fn new(opts: BuildOptions) -> SessionHandle {
        SessionHandle::from_session(BuildSession::new(opts))
    }

    /// Wrap an existing session (e.g. one pre-loaded with units).
    pub fn from_session(session: BuildSession) -> SessionHandle {
        SessionHandle { inner: Arc::new(std::sync::Mutex::new(session)) }
    }

    /// Run `f` with the locked session. The one primitive everything else
    /// is sugar for; use it for multi-step edits that must be atomic with
    /// respect to other handles (e.g. edit two sources, then build,
    /// without another client's build landing in between).
    pub fn with<R>(&self, f: impl FnOnce(&mut BuildSession) -> R) -> R {
        // A panic mid-build poisons the lock but leaves the session
        // consistent: the memo only ever holds completed artifacts, and
        // `dirty` is restored on the error paths. Keep serving.
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    /// [`BuildSession::load_units`] under the lock.
    pub fn load_units(&self, file: &str, src: &str) -> Result<(), KnitError> {
        self.with(|s| s.load_units(file, src))
    }

    /// [`BuildSession::update_unit`] under the lock.
    pub fn update_unit(&self, file: &str, src: &str) -> Result<(), KnitError> {
        self.with(|s| s.update_unit(file, src))
    }

    /// [`BuildSession::update_source`] under the lock.
    pub fn update_source(&self, path: &str, text: &str) {
        self.with(|s| s.update_source(path, text))
    }

    /// [`BuildSession::set_options`] under the lock.
    pub fn set_options(&self, opts: BuildOptions) {
        self.with(|s| s.set_options(opts))
    }

    /// [`BuildSession::set_profile`] under the lock.
    pub fn set_profile(&self, profile: Option<Arc<cobj::LayoutProfile>>) {
        self.with(|s| s.set_profile(profile))
    }

    /// [`BuildSession::build`] under the lock — held for the whole build,
    /// so concurrent builds of the *same* session serialize (and the
    /// second one usually returns the memoized report).
    pub fn build(&self) -> Result<BuildReport, KnitError> {
        self.with(|s| s.build())
    }

    /// [`BuildSession::analyze`] under the lock.
    pub fn analyze(&self, config: &LintConfig) -> Result<AnalysisReport, KnitError> {
        self.with(|s| s.analyze(config))
    }

    /// [`BuildSession::stats`], cloned out from under the lock.
    pub fn stats(&self) -> SessionStats {
        self.with(|s| s.stats().clone())
    }

    /// [`BuildSession::watched_paths`] under the lock.
    pub fn watched_paths(&self) -> Vec<String> {
        self.with(|s| s.watched_paths())
    }
}
