//! The Knit compiler pipeline.
//!
//! Mirrors §6 of the paper: *"In a typical use, the Knit compiler reads the
//! linking specification and unit files, generates initialization and
//! finalization code, runs the C compiler or assembler when necessary, and
//! ultimately produces object files. The object files are then processed by
//! a slightly modified version of GNU's objcopy, which handles renaming
//! symbols and duplicating object code for multiply-instantiated units.
//! Finally, these object files are linked together using ld to produce the
//! program."*
//!
//! Phases (each timed in [`BuildReport::phases`], reproducing the paper's
//! ">95% of build time is spent in the C compiler and linker" claim):
//!
//! 1. elaborate — compound units dissolve into an instance graph;
//! 2. constraints — architectural checks (§4), optional;
//! 3. schedule — initializer/finalizer order (§3.2);
//! 4. compile — each unit's C files through `cmini` (cached per unit:
//!    multiple instances share one compile);
//! 5. objcopy — per-instance symbol renaming and duplication;
//! 6. flatten — groups marked `flatten` are source-merged and recompiled
//!    (§6), replacing their per-instance objects;
//! 7. generate — the `__knit_boot` object with `__knit_init`,
//!    `__knit_fini`, and `__start`;
//! 8. link — everything through the same bag-of-objects `ld` as the
//!    baseline, now collision-free by construction.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use cmini::CompileOptions;
use cobj::ir::Instr;
use cobj::object::{FuncDef, ObjectFile, SymDef, Symbol};
use cobj::{Image, LayoutProfile, SymId};
use knit_lang::ast::{AtomicBody, UnitBody, UnitDecl};

use crate::cache::{BuildCache, StableHasher};
use crate::constraints::ConstraintReport;
use crate::elaborate::{Elaboration, Wire};
use crate::error::KnitError;
use crate::model::Program;
use crate::sched::Schedule;
use crate::vfs::SourceTree;

/// Options for one build.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Name of the root unit.
    pub root: String,
    /// Bundle member of a root export to call from `__start` (after
    /// `__knit_init`, before `__knit_fini`). Defaults to `main`, silently
    /// skipped when absent; a member named here explicitly must exist.
    pub entry: Option<String>,
    /// Run the constraint checker (§4). Default true.
    pub check_constraints: bool,
    /// Honor `flatten` markers (§6). Default true.
    pub flatten: bool,
    /// Compiler flags for units that name no `flags` declaration.
    pub default_flags: Vec<String>,
    /// Names the runtime provides (undefined references to these become
    /// intrinsics; see `machine::runtime_symbols`).
    pub runtime_symbols: BTreeSet<String>,
    /// Worker threads for the per-unit and per-instance work of a build:
    /// unit compiles, rename plans, per-instance stamping and objcopy,
    /// flatten-group recompiles, and the link's per-object validation and
    /// symbol scan and per-function resolution (and, through
    /// [`Program::load_many`], parsing `.unit` files). With more than one
    /// worker the constraint check also runs next to the schedule.
    /// Elaborate and boot-object generation stay serial. Defaults to the
    /// host's available parallelism; `1` gives a strictly serial build.
    /// Parallelism never changes the produced image or the error reported:
    /// results are merged in unit, instance or pipeline order, so symbol
    /// mangling, link order and the first error are identical for every
    /// `jobs` value.
    pub jobs: usize,
    /// Execution profile driving the linker's profile-guided code layout
    /// (Pettis–Hansen-style hot/cold placement; see `cobj::layout`).
    /// `None` (the default) keeps the historical input-order placement
    /// byte-for-byte. In a session, swapping the profile invalidates
    /// exactly the link phase: compiles, objcopy, and flattening all
    /// reuse.
    pub profile: Option<Arc<LayoutProfile>>,
}

/// The host's available parallelism (the default for
/// [`BuildOptions::jobs`]).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl BuildOptions {
    /// Options for building `root` with the given runtime symbols.
    pub fn new(root: impl Into<String>, runtime: impl IntoIterator<Item = String>) -> Self {
        BuildOptions {
            root: root.into(),
            entry: None,
            check_constraints: true,
            flatten: true,
            default_flags: vec!["-O2".to_string()],
            runtime_symbols: runtime.into_iter().collect(),
            jobs: default_jobs(),
            profile: None,
        }
    }

    /// Start a fluent [`BuildOptionsBuilder`] for building `root`.
    ///
    /// ```
    /// use knit::BuildOptions;
    /// let opts = BuildOptions::root("Main").entry("main").jobs(4).flatten(false).build();
    /// assert_eq!(opts.root, "Main");
    /// assert_eq!(opts.entry.as_deref(), Some("main"));
    /// assert_eq!(opts.jobs, 4);
    /// assert!(!opts.flatten);
    /// ```
    pub fn root(root: impl Into<String>) -> BuildOptionsBuilder {
        BuildOptionsBuilder { opts: BuildOptions::new(root, Vec::new()) }
    }
}

/// Fluent builder for [`BuildOptions`], started by [`BuildOptions::root`].
/// Every setter has the field's default (documented on [`BuildOptions`])
/// until called.
#[derive(Debug, Clone)]
pub struct BuildOptionsBuilder {
    opts: BuildOptions,
}

impl BuildOptionsBuilder {
    /// Call this root export member from `__start` (it must exist).
    #[must_use]
    pub fn entry(mut self, member: impl Into<String>) -> Self {
        self.opts.entry = Some(member.into());
        self
    }

    /// Worker threads for the build ([`BuildOptions::jobs`]).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.opts.jobs = jobs;
        self
    }

    /// Honor (or ignore) `flatten` markers (§6).
    #[must_use]
    pub fn flatten(mut self, on: bool) -> Self {
        self.opts.flatten = on;
        self
    }

    /// Run (or skip) the constraint checker (§4).
    #[must_use]
    pub fn check_constraints(mut self, on: bool) -> Self {
        self.opts.check_constraints = on;
        self
    }

    /// Compiler flags for units that name no `flags` declaration.
    #[must_use]
    pub fn default_flags(mut self, flags: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.opts.default_flags = flags.into_iter().map(Into::into).collect();
        self
    }

    /// Names the runtime provides (see `machine::runtime_symbols`).
    #[must_use]
    pub fn runtime_symbols(mut self, syms: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.opts.runtime_symbols = syms.into_iter().map(Into::into).collect();
        self
    }

    /// Drive code layout from an execution profile
    /// ([`BuildOptions::profile`]).
    #[must_use]
    pub fn profile(mut self, profile: impl Into<Option<Arc<LayoutProfile>>>) -> Self {
        self.opts.profile = profile.into();
        self
    }

    /// Finish, yielding the [`BuildOptions`].
    pub fn build(self) -> BuildOptions {
        self.opts
    }
}

/// Aggregate statistics about a build. Everything here is a deterministic
/// function of the program, sources, options, and cache warmth — never of
/// timing or of [`BuildOptions::jobs`] — so two builds of the same inputs
/// compare equal regardless of parallelism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Atomic unit instances linked.
    pub instances: usize,
    /// Distinct units that actually went through `cmini` this build.
    /// Units whose objects were reused — from the [`BuildCache`] or from a
    /// session's memoized artifacts — count in
    /// [`BuildStats::units_reused`] instead.
    pub units_compiled: usize,
    /// Distinct units whose compiled objects were reused without running
    /// the compiler (cache hits plus incremental-session reuses).
    pub units_reused: usize,
    /// Objects handed to the final link.
    pub objects: usize,
    /// Flatten groups merged.
    pub flatten_groups: usize,
    /// Total text bytes of the image.
    pub text_size: u64,
    /// Units whose compiled objects came from the [`BuildCache`].
    pub cache_hits: usize,
    /// Units that went through `cmini` this build.
    pub cache_misses: usize,
}

/// Timing record for one distinct unit's compile step.
#[derive(Debug, Clone)]
pub struct UnitCompile {
    /// Unit name.
    pub unit: String,
    /// Wall-clock time spent (hashing + compiling, or hashing only on a
    /// cache hit).
    pub duration: Duration,
    /// Whether the compiled objects came from the cache.
    pub cache_hit: bool,
}

/// The result of a successful build.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// The linked, runnable image (entry = `__start`).
    pub image: Image,
    /// Per-phase wall-clock times, in pipeline order.
    pub phases: Vec<(&'static str, Duration)>,
    /// The initializer schedule, as `path.func` strings.
    pub schedule: Vec<String>,
    /// Constraint report, when checking ran.
    pub constraints: Option<ConstraintReport>,
    /// Mangled link-level name of each root export member
    /// (`"port.member"` → symbol), for harnesses that call into the image.
    pub exports: BTreeMap<String, String>,
    /// Build statistics.
    pub stats: BuildStats,
    /// Per-unit compile timings, sorted by unit name.
    pub unit_compiles: Vec<UnitCompile>,
    /// The parallelism this build ran with.
    pub jobs: usize,
    /// The elaboration (instance graph), for tools and tests — shared with
    /// the session memo, not copied.
    pub elaboration: Arc<Elaboration>,
}

/// Mangled link-level name for an instance's export member.
pub fn mangle_export(inst: usize, port: &str, member: &str) -> String {
    let mut s = String::new();
    push_export_prefix(&mut s, port, member);
    push_index(&mut s, inst);
    s
}

/// Mangled link-level name for an instance-private global.
pub fn mangle_private(inst: usize, name: &str) -> String {
    let mut s = String::new();
    push_private_prefix(&mut s, name);
    push_index(&mut s, inst);
    s
}

/// [`mangle_export`] up to its instance id.
fn push_export_prefix(s: &mut String, port: &str, member: &str) {
    s.push_str(member);
    s.push('_');
    s.push_str(port);
    s.push_str("_i");
}

/// [`mangle_private`] up to its instance id.
fn push_private_prefix(s: &mut String, name: &str) {
    s.push_str(name);
    s.push_str("_p");
}

/// Append `inst` in decimal.
fn push_index(s: &mut String, inst: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = inst;
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Build `opts.root` from `program` and `tree` into a runnable image,
/// with a cold (single-use) compile cache. For rebuilds, or to share a
/// cache, use a [`BuildSession`](crate::BuildSession).
pub fn build(
    program: &Program,
    tree: &SourceTree,
    opts: &BuildOptions,
) -> Result<BuildReport, KnitError> {
    crate::session::run_build(
        program,
        tree,
        opts,
        &BuildCache::new(),
        &mut crate::session::Memo::default(),
        &mut crate::session::SessionStats::default(),
        &BTreeSet::new(),
    )
}

/// Fan-out helpers, results in a fixed order (see [`cobj::par`]).
pub(crate) use cobj::par::{join, run_indexed};

/// Compile options for flattened groups: always optimize (that is the
/// point), with a generous inline budget.
pub(crate) fn flatten_opts(opts: &BuildOptions) -> CompileOptions {
    let mut c = CompileOptions::from_flags(&opts.default_flags).unwrap_or_default();
    c.opt = cmini::OptLevel::O2;
    c.inline_budget = 48;
    c
}

/// A unit compiled once, shared by all its instances — and, through the
/// [`BuildCache`], by every later build of the same content.
#[derive(Debug)]
pub struct CompiledUnit {
    /// Whether any file is a C source: only those units can be flattened
    /// (their translation units are parsed again then, see [`unit_tus`]).
    pub(crate) has_sources: bool,
    /// Compiled objects, one per source file.
    pub(crate) objects: Vec<ObjectFile>,
    /// All link-visible names defined across the objects.
    pub(crate) defined: BTreeSet<String>,
    /// All undefined references across the objects.
    pub(crate) undefined: BTreeSet<String>,
}

/// One resolved `files { … }` entry, ready to hash, compile or parse.
pub(crate) enum FileInput<'a> {
    /// A registered pre-compiled object (used as-is).
    Object(&'a ObjectFile),
    /// A C source, already preprocessed (so the hash sees through
    /// `#include`, and a cache miss does not preprocess twice).
    Source { file: &'a str, expanded: String },
}

/// A unit's front end: its effective flags, the compile options they
/// parse to, every `files` entry resolved in order, and every source-tree
/// path consulted on the way (hits and misses — a header that did not
/// exist yet must still invalidate the unit when it appears).
pub(crate) struct UnitInputs<'a> {
    pub(crate) flags: &'a [String],
    pub(crate) copts: CompileOptions,
    pub(crate) files: Vec<FileInput<'a>>,
    pub(crate) reads: BTreeSet<String>,
}

/// The compiler flags of a unit: its `flags` declaration's, else
/// [`BuildOptions::default_flags`].
pub(crate) fn unit_flags<'a>(
    program: &'a Program,
    body: &AtomicBody,
    opts: &'a BuildOptions,
) -> &'a [String] {
    match &body.flags {
        Some(name) => &program.flags[name],
        None => &opts.default_flags,
    }
}

/// Read `unit_name`'s front end, the one path both compiling and linting
/// take: parse its flags, then resolve each `files` entry to a registered
/// object or a preprocessed source. Fails on a bad flag, then on the first
/// file that is missing or does not preprocess.
pub(crate) fn read_unit<'a>(
    program: &'a Program,
    tree: &'a SourceTree,
    unit_name: &str,
    opts: &'a BuildOptions,
) -> Result<UnitInputs<'a>, KnitError> {
    let body = atomic_body(&program.units[unit_name]);
    let flags = unit_flags(program, body, opts);
    let copts = CompileOptions::from_flags(flags)
        .map_err(|e| KnitError::BadDeclaration { unit: unit_name.to_string(), what: e })?;
    let recorder = RecordingTree::new(tree);
    let mut files = Vec::with_capacity(body.files.len());
    for file in &body.files {
        recorder.note(file);
        // pre-compiled objects: "Knit can actually work with C, assembly,
        // and object code" (§3.2); registered objects are used as-is
        if let Some(obj) = tree.get_object(file) {
            files.push(FileInput::Object(obj));
            continue;
        }
        let src = tree.get(file).ok_or_else(|| KnitError::MissingSource {
            unit: unit_name.to_string(),
            path: file.clone(),
        })?;
        let expanded = cmini::pp::preprocess(file, src, &copts.pp, &recorder)?;
        files.push(FileInput::Source { file, expanded });
    }
    Ok(UnitInputs { flags, copts, files, reads: recorder.reads.into_inner() })
}

/// The result of pushing one unit through [`compile_unit_cached`]: the
/// shared compiled artifact, its content-hash cache key, whether the cache
/// supplied it, and every source-tree path the compile consulted.
pub(crate) struct UnitBuild {
    /// The compiled unit (possibly shared with the cache and other memos).
    pub(crate) cu: Arc<CompiledUnit>,
    /// The [`BuildCache`] content key — a fingerprint of everything that
    /// can change the compiled objects.
    pub(crate) key: u64,
    /// Whether `cu` came out of the cache without running `cmini`.
    pub(crate) cache_hit: bool,
    /// Every source-tree path consulted (sources, headers, objects; hits
    /// and misses) — the dependency ledger for incremental invalidation.
    pub(crate) reads: BTreeSet<String>,
}

/// A [`SourceTree`] view that records every path consulted, hit or miss.
struct RecordingTree<'a> {
    tree: &'a SourceTree,
    reads: RefCell<BTreeSet<String>>,
}

impl<'a> RecordingTree<'a> {
    fn new(tree: &'a SourceTree) -> RecordingTree<'a> {
        RecordingTree { tree, reads: RefCell::new(BTreeSet::new()) }
    }

    fn note(&self, path: &str) {
        self.reads.borrow_mut().insert(path.to_string());
    }
}

impl cmini::FileProvider for RecordingTree<'_> {
    fn read_file(&self, path: &str) -> Option<String> {
        self.note(path);
        self.tree.get(path).map(str::to_string)
    }
}

/// Compile `unit_name` through the cache.
///
/// The key hashes everything that can change the compiled objects — the
/// preprocessed text of every source, the structure of every pre-compiled
/// object, the effective flags (in order), and the unit's renames — and
/// nothing else, so unrelated edits leave entries valid. Runs concurrently
/// with other units under [`BuildOptions::jobs`]; `cmini`'s entry points
/// are pure functions of their arguments, which is what makes both the
/// parallelism and the caching sound.
pub(crate) fn compile_unit_cached(
    program: &Program,
    tree: &SourceTree,
    unit_name: &str,
    opts: &BuildOptions,
    cache: &BuildCache,
) -> Result<UnitBuild, KnitError> {
    let body = atomic_body(&program.units[unit_name]);
    let inputs = read_unit(program, tree, unit_name, opts)?;
    let mut h = StableHasher::new();
    for f in inputs.flags {
        h.write_str("flag");
        h.write_str(f);
    }
    for r in &body.renames {
        h.write_str("rename");
        h.write_str(&r.port);
        h.write_str(&r.member);
        h.write_str(&r.to);
    }
    for input in &inputs.files {
        match input {
            FileInput::Object(obj) => {
                h.write_str("obj");
                h.write_str(&format!("{obj:?}"));
            }
            FileInput::Source { file, expanded } => {
                h.write_str("src");
                h.write_str(file);
                h.write_str(expanded);
            }
        }
    }
    let key = h.finish();
    let reads = inputs.reads;
    if let Some(cu) = cache.lookup(key) {
        return Ok(UnitBuild { cu, key, cache_hit: true, reads });
    }

    // --- miss: run the compiler over the preprocessed inputs ---
    let mut has_sources = false;
    let mut objects = Vec::new();
    let mut defined = BTreeSet::new();
    let mut undefined = BTreeSet::new();
    for input in inputs.files {
        let obj = match input {
            FileInput::Object(obj) => {
                obj.validate().map_err(|e| KnitError::BadDeclaration {
                    unit: unit_name.to_string(),
                    what: format!("pre-compiled object `{}` is invalid: {e}", obj.name),
                })?;
                obj.clone()
            }
            FileInput::Source { file, expanded } => {
                has_sources = true;
                cmini::backend(cmini::frontend_expanded(file, &expanded)?, &inputs.copts)?
            }
        };
        defined.extend(obj.exported_names().iter().map(|s| s.to_string()));
        undefined.extend(obj.undefined_names().iter().map(|s| s.to_string()));
        objects.push(obj);
    }
    // cross-file references inside the unit are not "undefined"
    undefined.retain(|n| !defined.contains(n));
    let cu = Arc::new(CompiledUnit { has_sources, objects, defined, undefined });
    cache.insert(key, Arc::clone(&cu));
    Ok(UnitBuild { cu, key, cache_hit: false, reads })
}

/// The translation units of `unit_name`'s C sources, for flattening. A
/// compiled unit keeps only its objects, so the few units in a flatten
/// group run the front end again: on the same preprocessed text as their
/// compile (the group's fingerprint covers the unit's content key), hence
/// the same ASTs.
pub(crate) fn unit_tus(
    program: &Program,
    tree: &SourceTree,
    unit_name: &str,
    opts: &BuildOptions,
) -> Result<Vec<cmini::ast::TranslationUnit>, KnitError> {
    let mut tus = Vec::new();
    for input in read_unit(program, tree, unit_name, opts)?.files {
        if let FileInput::Source { file, expanded } = input {
            tus.push(cmini::frontend_expanded(file, &expanded)?);
        }
    }
    Ok(tus)
}

pub(crate) fn atomic_body(unit: &UnitDecl) -> &AtomicBody {
    match &unit.body {
        UnitBody::Atomic(a) => a,
        UnitBody::Compound(_) => unreachable!("instances are atomic by construction"),
    }
}

/// The C identifier of a port member, after the unit's `rename` clauses.
pub(crate) fn c_id<'a>(body: &'a AtomicBody, port: &str, member: &'a str) -> &'a str {
    body.renames
        .iter()
        .find(|r| r.port == port && r.member == member)
        .map_or(member, |r| r.to.as_str())
}

/// One instance's renaming: C identifier → link-level symbol.
pub(crate) type SymbolMap = BTreeMap<String, String>;

/// A string stored in a [`RenamePlan`]'s text: `start..end`.
#[derive(Debug, Clone, Copy)]
struct TextRange(u32, u32);

impl TextRange {
    /// Append `s` to `text`, returning where it landed.
    fn push(text: &mut String, s: &str) -> TextRange {
        let start = text.len() as u32;
        text.push_str(s);
        TextRange(start, text.len() as u32)
    }

    fn get(self, text: &str) -> &str {
        &text[self.0 as usize..self.1 as usize]
    }
}

/// What one link-visible C symbol of a unit becomes in each instance.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// An export member or an instance-private global: `prefix` followed
    /// by the instance id ([`mangle_export`], [`mangle_private`]).
    Own { prefix: TextRange },
    /// Member `member` of import port `port`: the wired provider's
    /// [`mangle_export`], or the bare member name when the port is wired
    /// to the external world.
    Import { port: TextRange, member: TextRange },
}

/// A unit's symbol surgery, worked out once per distinct unit and shared
/// by all its instances: every link-visible C symbol the unit renames,
/// with its role, and for each compiled object the symbol-table entries
/// to rename. An instance only formats the target names
/// ([`InstanceSyms::stamp`]).
#[derive(Debug)]
pub(crate) struct RenamePlan {
    /// Every string the plan names, back to back.
    text: String,
    /// `(C identifier, role)`, sorted by C identifier.
    syms: Vec<(TextRange, Role)>,
    /// Per compiled object: `(symbol-table entry, index into syms)`.
    objects: Vec<Vec<(SymId, u32)>>,
    /// Content hash of the C identifiers and their roles.
    hash: u64,
}

impl RenamePlan {
    /// Index of C identifier `cid` in `syms`.
    fn find(&self, cid: &str) -> Option<usize> {
        self.syms.binary_search_by(|(c, _)| c.get(&self.text).cmp(cid)).ok()
    }
}

/// Plan the symbol surgery of `unit_name`, compiled as `cu`. Every check
/// Knit makes on a unit's symbols depends on the unit alone, so it runs
/// here, once: missing export definitions, import/export C-identifier
/// conflicts (→ rename), undefined initializers/finalizers, and references
/// to symbols that are neither imported nor defined — the last reported
/// against `first_instance`, the unit's first instance in instance order.
pub(crate) fn rename_plan(
    program: &Program,
    unit_name: &str,
    cu: &CompiledUnit,
    first_instance: &str,
) -> Result<RenamePlan, KnitError> {
    /// A role whose strings still live in the program or the compiled unit.
    enum Src<'a> {
        Export { port: &'a str, member: &'a str },
        Import { port: &'a str, member: &'a str },
        Private,
    }
    let unit = &program.units[unit_name];
    let body = atomic_body(unit);
    let mut roles: BTreeMap<&str, Src<'_>> = BTreeMap::new();

    // exports (while `roles` holds only exports, a repeat is a clash
    // between two export members)
    for p in &unit.exports {
        for member in program.members_of(&p.bundle_type).expect("validated") {
            let cid = c_id(body, &p.name, member);
            if roles.contains_key(cid) {
                return Err(KnitError::NeedsRename {
                    unit: unit.name.clone(),
                    c_name: cid.to_string(),
                });
            }
            if !cu.defined.contains(cid) {
                return Err(KnitError::BadDeclaration {
                    unit: unit.name.clone(),
                    what: format!(
                        "export `{}.{member}` should be defined as C symbol `{cid}`, but no file defines it",
                        p.name
                    ),
                });
            }
            roles.insert(cid, Src::Export { port: &p.name, member });
        }
    }
    // imports
    for p in &unit.imports {
        for member in program.members_of(&p.bundle_type).expect("validated") {
            let cid = c_id(body, &p.name, member);
            if roles.contains_key(cid) {
                return Err(KnitError::NeedsRename {
                    unit: unit.name.clone(),
                    c_name: cid.to_string(),
                });
            }
            roles.insert(cid, Src::Import { port: &p.name, member });
        }
    }
    // initializers/finalizers must be defined
    for d in body.initializers.iter().chain(body.finalizers.iter()) {
        if !cu.defined.contains(&d.func) && !roles.contains_key(d.func.as_str()) {
            return Err(KnitError::BadDeclaration {
                unit: unit.name.clone(),
                what: format!("initializer/finalizer `{}` is not defined by the unit", d.func),
            });
        }
    }
    // remaining defined globals become instance-private
    for name in &cu.defined {
        if !roles.contains_key(name.as_str()) && !name.starts_with("__") {
            roles.insert(name, Src::Private);
        }
    }
    // remaining undefined references must be runtime symbols
    for name in &cu.undefined {
        if !roles.contains_key(name.as_str()) && !name.starts_with("__") {
            return Err(KnitError::UnboundSymbol {
                instance: first_instance.to_string(),
                symbol: name.clone(),
            });
        }
    }

    let mut text = String::with_capacity(256);
    let mut h = StableHasher::new();
    let syms: Vec<(TextRange, Role)> = roles
        .into_iter()
        .map(|(cid, src)| {
            let c = TextRange::push(&mut text, cid);
            let start = text.len() as u32;
            let role = match src {
                Src::Export { port, member } => {
                    push_export_prefix(&mut text, port, member);
                    Role::Own { prefix: TextRange(start, text.len() as u32) }
                }
                Src::Private => {
                    push_private_prefix(&mut text, cid);
                    Role::Own { prefix: TextRange(start, text.len() as u32) }
                }
                Src::Import { port, member } => Role::Import {
                    port: TextRange::push(&mut text, port),
                    member: TextRange::push(&mut text, member),
                },
            };
            h.write_str(c.get(&text));
            match role {
                Role::Own { prefix } => h.write_str(prefix.get(&text)),
                Role::Import { port, member } => {
                    h.write_str(port.get(&text));
                    h.write_str(member.get(&text));
                }
            }
            (c, role)
        })
        .collect();
    let mut plan = RenamePlan { text, syms, objects: Vec::new(), hash: h.finish() };
    plan.objects = cu
        .objects
        .iter()
        .map(|obj| {
            obj.symbols
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s.def, SymDef::Defined { local: true, .. }))
                .filter_map(|(si, s)| Some((SymId(si as u32), plan.find(&s.name)? as u32)))
                .collect()
        })
        .collect();
    Ok(plan)
}

/// One instance's symbol surgery: its unit's [`RenamePlan`] and the
/// link-level name of each planned symbol.
#[derive(Debug)]
pub(crate) struct InstanceSyms {
    plan: Arc<RenamePlan>,
    /// Every target name, back to back, in plan order.
    text: String,
    /// Where each target name ends in `text`.
    ends: Vec<u32>,
}

impl InstanceSyms {
    /// Format the target names of instance `inst_id` from its unit's plan.
    pub(crate) fn stamp(plan: &Arc<RenamePlan>, el: &Elaboration, inst_id: usize) -> InstanceSyms {
        let inst = &el.instances[inst_id];
        let mut text = String::with_capacity(plan.text.len() + 8 * plan.syms.len());
        let mut ends = Vec::with_capacity(plan.syms.len());
        for (_, role) in &plan.syms {
            match *role {
                Role::Own { prefix } => {
                    text.push_str(prefix.get(&plan.text));
                    push_index(&mut text, inst_id);
                }
                Role::Import { port, member } => {
                    let member = member.get(&plan.text);
                    match inst
                        .imports
                        .get(port.get(&plan.text))
                        .expect("elaboration wired every import")
                    {
                        Wire::Export { instance, port } => {
                            push_export_prefix(&mut text, port, member);
                            push_index(&mut text, *instance);
                        }
                        Wire::External { .. } => text.push_str(member),
                    }
                }
            }
            ends.push(text.len() as u32);
        }
        InstanceSyms { plan: Arc::clone(plan), text, ends }
    }

    /// Target name `i`, in plan order.
    fn target(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The link-level name of C symbol `cid`, when the plan renames it.
    pub(crate) fn get(&self, cid: &str) -> Option<&str> {
        Some(self.target(self.plan.find(cid)?))
    }

    /// The renames of the unit's compiled object `obj`, by symbol index.
    pub(crate) fn renames(&self, obj: usize) -> Vec<(SymId, &str)> {
        self.plan.objects[obj].iter().map(|&(id, ix)| (id, self.target(ix as usize))).collect()
    }

    /// The whole renaming as a map, for flattening.
    pub(crate) fn to_map(&self) -> SymbolMap {
        let plan = &self.plan;
        plan.syms
            .iter()
            .enumerate()
            .map(|(i, (cid, _))| (cid.get(&plan.text).to_string(), self.target(i).to_string()))
            .collect()
    }

    /// Content hash of the renaming: the plan's hash and every target.
    pub(crate) fn hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.plan.hash);
        for i in 0..self.ends.len() {
            h.write_str(self.target(i));
        }
        h.finish()
    }
}

/// Link-visible names a flatten group must keep: exports wired to
/// instances outside the group, root exports provided by the group, and
/// the group's initializers/finalizers (called by the boot object).
pub(crate) fn group_externals(
    program: &Program,
    el: &Elaboration,
    group: &BTreeSet<usize>,
    schedule: &Schedule,
    maps: &[Arc<InstanceSyms>],
) -> BTreeSet<String> {
    let mut ext: BTreeSet<String> = BTreeSet::new();
    fn add_port(
        ext: &mut BTreeSet<String>,
        program: &Program,
        el: &Elaboration,
        inst: usize,
        port: &str,
    ) {
        let unit = &program.units[el.instances[inst].unit.as_str()];
        if let Some(p) = unit.exports.iter().find(|p| p.name == port) {
            for member in program.members_of(&p.bundle_type).expect("validated") {
                ext.insert(mangle_export(inst, port, member));
            }
        }
    }
    // imports of outside instances wired into the group
    for inst in &el.instances {
        if group.contains(&inst.id) {
            continue;
        }
        for wire in inst.imports.values() {
            if let Wire::Export { instance, port } = wire {
                if group.contains(instance) {
                    add_port(&mut ext, program, el, *instance, port);
                }
            }
        }
    }
    // root exports provided by the group
    for (inst, port) in el.root_exports.values() {
        if group.contains(inst) {
            add_port(&mut ext, program, el, *inst, port);
        }
    }
    // initializers/finalizers of group members
    for (inst, func) in schedule.inits.iter().chain(schedule.finis.iter()) {
        if group.contains(inst) {
            if let Some(m) = maps[*inst].get(func) {
                ext.insert(m.to_string());
            }
        }
    }
    ext
}

/// Mangled link-level name of each root export member
/// (`"port.member"` → symbol) — the image's public call surface.
pub(crate) fn root_exports_map(program: &Program, el: &Elaboration) -> BTreeMap<String, String> {
    let mut exports = BTreeMap::new();
    let root_unit = &program.units[&el.root];
    for p in &root_unit.exports {
        let (inst, eport) = &el.root_exports[p.name.as_str()];
        for member in program.members_of(&p.bundle_type).expect("validated") {
            exports.insert(format!("{}.{member}", p.name), mangle_export(*inst, eport, member));
        }
    }
    exports
}

/// Generate the `__knit_boot` object: `__knit_init` and `__knit_fini`
/// calling the link-level names `inits` and `finis` in order, and
/// `__start` (init → optional entry call → fini → return), whose entry is
/// looked up in the root export map `exports`.
pub(crate) fn boot_object(
    inits: &[String],
    finis: &[String],
    exports: &BTreeMap<String, String>,
    opts: &BuildOptions,
) -> Result<ObjectFile, KnitError> {
    let mut obj = ObjectFile::new("__knit_boot.o");
    let init_sym = obj.add_symbol(Symbol::func("__knit_init"));
    let fini_sym = obj.add_symbol(Symbol::func("__knit_fini"));
    let start_sym = obj.add_symbol(Symbol::func("__start"));

    // __knit_init
    let mut body = Vec::new();
    for name in inits {
        let target = obj.add_symbol(Symbol::undef(name.as_str()));
        body.push(Instr::Call { dst: None, target, args: vec![] });
    }
    body.push(Instr::Ret { value: None });
    obj.funcs.push(FuncDef { sym: init_sym, params: 0, nregs: 0, frame_size: 0, body });

    // __knit_fini
    let mut body = Vec::new();
    for name in finis {
        let target = obj.add_symbol(Symbol::undef(name.as_str()));
        body.push(Instr::Call { dst: None, target, args: vec![] });
    }
    body.push(Instr::Ret { value: None });
    obj.funcs.push(FuncDef { sym: fini_sym, params: 0, nregs: 0, frame_size: 0, body });

    // __start
    let entry_member = opts.entry.clone().unwrap_or_else(|| "main".to_string());
    let entry_symbol = exports
        .iter()
        .find(|(k, _)| k.ends_with(&format!(".{entry_member}")))
        .map(|(_, v)| v.clone());
    if opts.entry.is_some() && entry_symbol.is_none() {
        return Err(KnitError::Unknown {
            kind: "entry member",
            name: entry_member,
            context: "root unit exports".to_string(),
        });
    }
    let mut body = Vec::new();
    body.push(Instr::Call { dst: None, target: init_sym, args: vec![] });
    let ret_reg = match entry_symbol {
        Some(sym) => {
            let target = obj.add_symbol(Symbol::undef(sym));
            body.push(Instr::Call { dst: Some(0), target, args: vec![] });
            Some(0)
        }
        None => None,
    };
    body.push(Instr::Call { dst: None, target: fini_sym, args: vec![] });
    body.push(Instr::Ret { value: ret_reg });
    obj.funcs.push(FuncDef { sym: start_sym, params: 0, nregs: 1, frame_size: 0, body });

    Ok(obj)
}
