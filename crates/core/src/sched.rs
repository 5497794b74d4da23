//! Automatic scheduling of initializers and finalizers (§3.2).
//!
//! Each atomic unit declares `initializer f for bundle;` plus fine-grained
//! dependencies:
//!
//! * `serveLog needs stdio` — *export-level*: stdio must be initialized
//!   before any function of the `serveLog` bundle is **called** (but this
//!   alone does not order the two components' initializers);
//! * `open_log needs stdio` — *initializer-level*: stdio must be
//!   initialized before `open_log` itself **runs**.
//!
//! The paper calls this distinction "crucial to avoid over-constraining the
//! initialization order". We reproduce it exactly: for every instance
//! export port we compute the set of initializers that must complete before
//! the port is usable (a fixpoint, since import graphs may be cyclic), and
//! only *initializer-level* dependencies induce ordering edges between
//! initializers. A cycle among initializers is a configuration error,
//! reported with the cycle path — the fix, per the paper, is finer-grained
//! dependency declarations.
//!
//! # Scaling (DESIGN.md §13)
//!
//! Everything here runs on dense indices: per-unit dependency info is
//! extracted once per distinct unit (not per instance) as port and
//! function positions, initializers and export ports get integer ids,
//! each instance's import wires resolve once to provider port ids, the
//! usable-set fixpoint is a worklist over wire edges instead of repeated
//! full passes, and the topological sorts are layered counting Kahn
//! rounds. The produced schedule — and
//! every error, including reported cycle paths — is identical to the
//! original map-of-strings implementation; only the asymptotics changed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use knit_lang::ast::{DepAtom, DepSide, UnitBody, UnitDecl};

use crate::elaborate::{Elaboration, Wire};
use crate::error::KnitError;
use crate::intern::Sym;
use crate::model::Program;

/// One scheduled call: (instance id, C function name).
pub type InitKey = (usize, String);

/// The computed schedule.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Initializers, in call order.
    pub inits: Vec<InitKey>,
    /// Finalizers, in call order (consumers before providers).
    pub finis: Vec<InitKey>,
}

impl Schedule {
    /// Human-readable rendering (`path.func`), for logs and tests.
    pub fn describe(&self, el: &Elaboration) -> Vec<String> {
        self.inits.iter().map(|(i, f)| format!("{}.{}", el.instances[*i].path, f)).collect()
    }
}

/// An initializer or finalizer while scheduling: (instance id, C
/// function name), borrowed from the program.
type Key<'p> = (usize, &'p str);

/// Where an import is wired: the providing instance, and the dense id of
/// its export port.
type Provider = (usize, Option<usize>);

/// Per-unit dependency info extracted from the unit declaration (shared by
/// every instance of the unit). Ports and functions are positions: export
/// and import ports in declaration order, initializers and finalizers in
/// declaration order.
struct UnitDeps<'p> {
    /// `(export, declared import deps)`, each dep list sorted and unique
    port_deps: Vec<(u32, Vec<u32>)>,
    /// per initializer: the declared import deps of its function
    init_deps: Vec<Vec<u32>>,
    /// per finalizer: the declared import deps of its function
    fini_deps: Vec<Vec<u32>>,
    /// `(export, initializers registered for it)`, declaration order
    inits_for: Vec<(u32, Vec<u32>)>,
    /// initializer function names
    inits: Vec<&'p str>,
    /// finalizer function names
    finis: Vec<&'p str>,
    /// per finalizer: the last finalizer of the same name — a function
    /// named twice is looked up by name, and names resolve to their last
    /// declaration
    fini_last: Vec<u32>,
    /// import port names, in declaration order
    imports: &'p [(Sym, Sym)],
    /// export port names, in declaration order
    exports: &'p [(Sym, Sym)],
}

/// The last position of each name in `names`, by position.
fn last_of(names: &[&str]) -> Vec<u32> {
    let mut last: BTreeMap<&str, u32> = BTreeMap::new();
    for (i, n) in names.iter().enumerate() {
        last.insert(n, i as u32);
    }
    names.iter().map(|n| last[n]).collect()
}

fn extract<'p>(program: &'p Program, unit: &'p UnitDecl) -> UnitDeps<'p> {
    let syms = &program.syms[&unit.name];
    let mut d = UnitDeps {
        port_deps: Vec::new(),
        init_deps: Vec::new(),
        fini_deps: Vec::new(),
        inits_for: Vec::new(),
        inits: Vec::new(),
        finis: Vec::new(),
        fini_last: Vec::new(),
        imports: &syms.imports,
        exports: &syms.exports,
    };
    let a = match &unit.body {
        UnitBody::Atomic(a) => a,
        UnitBody::Compound(_) => return d,
    };
    let import_pos = |n: &str| unit.imports.iter().position(|p| p.name == n).map(|i| i as u32);
    let export_pos = |n: &str| unit.exports.iter().position(|p| p.name == n).map(|i| i as u32);
    let init_names: BTreeSet<&str> =
        a.initializers.iter().chain(a.finalizers.iter()).map(|i| i.func.as_str()).collect();

    // declared deps, by export position and by function name
    let mut port_deps: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut func_deps: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
    for dep in &a.depends {
        let mut rhs: BTreeSet<u32> = BTreeSet::new();
        for atom in &dep.rhs {
            match atom {
                DepAtom::Imports => rhs.extend(0..unit.imports.len() as u32),
                DepAtom::Name(n) => rhs.extend(import_pos(n)),
            }
        }
        match &dep.lhs {
            DepSide::Exports => {
                for p in 0..unit.exports.len() as u32 {
                    port_deps.entry(p).or_default().extend(&rhs);
                }
            }
            DepSide::Name(n) => {
                if init_names.contains(n.as_str()) {
                    func_deps.entry(n).or_default().extend(&rhs);
                } else if let Some(p) = export_pos(n) {
                    port_deps.entry(p).or_default().extend(&rhs);
                }
            }
        }
    }
    d.port_deps = port_deps.into_iter().map(|(p, deps)| (p, deps.into_iter().collect())).collect();
    let deps_of = |f: &str| -> Vec<u32> {
        func_deps.get(f).map(|s| s.iter().copied().collect()).unwrap_or_default()
    };
    d.inits = a.initializers.iter().map(|i| i.func.as_str()).collect();
    d.finis = a.finalizers.iter().map(|f| f.func.as_str()).collect();
    d.init_deps = d.inits.iter().map(|f| deps_of(f)).collect();
    d.fini_deps = d.finis.iter().map(|f| deps_of(f)).collect();
    d.fini_last = last_of(&d.finis);
    // an initializer registered by name resolves to its name's last
    // declaration
    let init_last = last_of(&d.inits);
    let mut inits_for: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (i, init) in a.initializers.iter().enumerate() {
        if let Some(p) = export_pos(&init.bundle) {
            inits_for.entry(p).or_default().push(init_last[i]);
        }
    }
    d.inits_for = inits_for.into_iter().collect();
    d
}

/// Compute the initialization and finalization schedule.
pub fn schedule(program: &Program, el: &Elaboration) -> Result<Schedule, KnitError> {
    // Dependency info once per distinct unit; instances share it.
    let unit_deps: BTreeMap<Sym, UnitDeps<'_>> =
        el.by_unit.keys().map(|&u| (u, extract(program, &program.units[u.as_str()]))).collect();
    let deps: Vec<&UnitDeps> = el.instances.iter().map(|i| &unit_deps[&i.unit]).collect();

    // Dense export-port and initializer/finalizer ids: per-instance
    // offset + declaration position. Initializers are numbered in
    // (instance order, declaration order) — the stable "pos" order the
    // topological sorts break ties by.
    let n_insts = el.instances.len();
    let (mut port_off, mut init_off, mut fini_off) =
        (Vec::with_capacity(n_insts), Vec::with_capacity(n_insts), Vec::with_capacity(n_insts));
    let (mut n_ports, mut n_inits, mut n_finis) = (0usize, 0usize, 0usize);
    for d in &deps {
        port_off.push(n_ports);
        init_off.push(n_inits as u32);
        fini_off.push(n_finis as u32);
        n_ports += d.exports.len();
        n_inits += d.inits.len();
        n_finis += d.finis.len();
    }
    let mut keys: Vec<Key> = Vec::with_capacity(n_inits);
    let mut fini_keys: Vec<Key> = Vec::with_capacity(n_finis);
    for (inst, d) in deps.iter().enumerate() {
        keys.extend(d.inits.iter().map(|&f| (inst, f)));
        fini_keys.extend(d.finis.iter().map(|&f| (inst, f)));
    }

    // Each instance's import wires, by import position: the providing
    // instance and its export port's dense id.
    let wires: Vec<Vec<Option<Provider>>> = el
        .instances
        .iter()
        .map(|inst| {
            deps[inst.id]
                .imports
                .iter()
                .map(|(port, _)| match inst.imports.get(port)? {
                    Wire::Export { instance, port } => {
                        let p = deps[*instance].exports.iter().position(|(e, _)| e == port);
                        Some((*instance, p.map(|p| port_off[*instance] + p)))
                    }
                    Wire::External { .. } => None,
                })
                .collect()
        })
        .collect();
    let port_of = |inst: usize, import: u32| wires[inst][import as usize].and_then(|(_, g)| g);

    // --- fixpoint: usable(inst, port) = initializers needed before the
    // functions of that export port may be called ---
    let mut usable: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n_ports];
    for (inst, d) in deps.iter().enumerate() {
        for (p, fs) in &d.inits_for {
            usable[port_off[inst] + *p as usize].extend(fs.iter().map(|f| init_off[inst] + f));
        }
    }
    // Wire edges: srcs[t] = provider ports feeding target port t;
    // consumers[g] = target ports reading provider port g.
    let mut srcs: Vec<Vec<usize>> = vec![Vec::new(); n_ports];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n_ports];
    for (inst, d) in deps.iter().enumerate() {
        for (p, dports) in &d.port_deps {
            let t = port_off[inst] + *p as usize;
            for g in dports.iter().filter_map(|&ip| port_of(inst, ip)) {
                srcs[t].push(g);
                consumers[g].push(t);
            }
        }
    }
    // Worklist: recompute a port's set when one of its sources grew. Sets
    // only grow, so the fixpoint (a pure union) is order-independent.
    let mut queue: VecDeque<usize> = (0..n_ports).filter(|&t| !srcs[t].is_empty()).collect();
    let mut queued: Vec<bool> = vec![false; n_ports];
    for &t in &queue {
        queued[t] = true;
    }
    while let Some(t) = queue.pop_front() {
        queued[t] = false;
        let before = usable[t].len();
        let mut add: BTreeSet<u32> = BTreeSet::new();
        for &g in &srcs[t] {
            add.extend(usable[g].iter().copied());
        }
        usable[t].extend(add);
        if usable[t].len() != before {
            for &c in &consumers[t] {
                if !queued[c] {
                    queued[c] = true;
                    queue.push_back(c);
                }
            }
        }
    }

    // --- ordering edges between initializers: preds[f] = inits that must
    // run before f (initializer-level deps only) ---
    let mut preds: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n_inits];
    for (id, &(inst, _)) in keys.iter().enumerate() {
        let pos = id - init_off[inst] as usize;
        for g in deps[inst].init_deps[pos].iter().filter_map(|&ip| port_of(inst, ip)) {
            preds[id].extend(usable[g].iter().copied());
        }
        // self-dependency through a chain is a cycle; drop the self edge
        preds[id].remove(&(id as u32));
    }
    // detect chains where f transitively requires itself
    check_cycles(&preds, &keys, el)?;

    // --- deterministic layered Kahn topological sort ---
    // Each round releases every initializer whose predecessors all
    // completed in earlier rounds, in stable (instance, declaration) order.
    let order_ids = kahn_layers(
        &preds,
        n_inits,
        |id| id as usize,
        |ids| {
            let mut v: Vec<String> =
                ids.iter().map(|&u| describe_key(keys[u as usize], el)).collect();
            v.sort();
            v
        },
    )?;
    let order: Vec<InitKey> =
        order_ids.iter().map(|&u| (keys[u as usize].0, keys[u as usize].1.to_string())).collect();

    // --- finalizers: consumers before providers ---
    // A finalizer f (for port P, with deps D) must run BEFORE the
    // finalizers of the providers it depends on (they stay alive until f is
    // done). We order by the reverse of the provider relation; where no
    // relation exists, reverse of init order of the owning instances keeps
    // intuitive symmetry.
    // instance -> earliest init position (for the symmetry heuristic)
    let mut init_pos: Vec<Option<usize>> = vec![None; n_insts];
    for (p, &u) in order_ids.iter().enumerate() {
        let inst = keys[u as usize].0;
        if init_pos[inst].is_none() {
            init_pos[inst] = Some(p);
        }
    }
    let mut heuristic: Vec<u32> = (0..n_finis as u32).collect();
    heuristic.sort_by_key(|&f| {
        std::cmp::Reverse(init_pos[fini_keys[f as usize].0].unwrap_or(usize::MAX))
    });
    let mut fpos: Vec<usize> = vec![0; n_finis];
    for (p, &f) in heuristic.iter().enumerate() {
        fpos[f as usize] = p;
    }
    // refine with explicit fini deps: f before providers' finis
    let mut fini_preds: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n_finis];
    for (id, &(inst, _)) in fini_keys.iter().enumerate() {
        // providers this fini depends on: their finis must come AFTER key,
        // i.e. key is a predecessor of those finis.
        let pos = id - fini_off[inst] as usize;
        for &ip in &deps[inst].fini_deps[pos] {
            if let Some((provider_inst, _)) = wires[inst][ip as usize] {
                for &pf in &deps[provider_inst].fini_last {
                    let provider = fini_off[provider_inst] + pf;
                    if provider != id as u32 {
                        fini_preds[provider as usize].insert(id as u32);
                    }
                }
            }
        }
    }
    // topo-sort finis with the heuristic order as tiebreak
    let forder_ids = kahn_layers(
        &fini_preds,
        n_finis,
        |id| fpos[id as usize],
        |ids| {
            let mut v: Vec<String> =
                ids.iter().map(|&u| describe_key(fini_keys[u as usize], el)).collect();
            v.sort();
            v
        },
    )?;
    let forder: Vec<InitKey> = forder_ids
        .iter()
        .map(|&u| (fini_keys[u as usize].0, fini_keys[u as usize].1.to_string()))
        .collect();

    Ok(Schedule { inits: order, finis: forder })
}

fn describe_key((inst, func): Key, el: &Elaboration) -> String {
    format!("{}.{}", el.instances[inst].path, func)
}

/// Layered counting Kahn sort: round *r* emits — ordered by `rank` — every
/// node whose predecessors all completed in rounds before *r*. Returns the
/// emitted ids, or an [`KnitError::InitCycle`] listing the stuck nodes
/// (rendered by `cycle_names`) if some never become ready.
fn kahn_layers(
    preds: &[BTreeSet<u32>],
    n: usize,
    rank: impl Fn(u32) -> usize,
    cycle_names: impl Fn(&[u32]) -> Vec<String>,
) -> Result<Vec<u32>, KnitError> {
    let mut indeg: Vec<usize> = preds.iter().map(|s| s.len()).collect();
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, ps) in preds.iter().enumerate() {
        for &p in ps {
            succ[p as usize].push(u as u32);
        }
    }
    let mut layer: Vec<u32> = (0..n as u32).filter(|&u| indeg[u as usize] == 0).collect();
    layer.sort_by_key(|&u| rank(u));
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while !layer.is_empty() {
        let mut next: Vec<u32> = Vec::new();
        for &u in &layer {
            order.push(u);
            for &s in &succ[u as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    next.push(s);
                }
            }
        }
        next.sort_by_key(|&u| rank(u));
        layer = next;
    }
    if order.len() < n {
        // cycle — normally caught by check_cycles first
        let done: BTreeSet<u32> = order.iter().copied().collect();
        let stuck: Vec<u32> = (0..n as u32).filter(|u| !done.contains(u)).collect();
        return Err(KnitError::InitCycle { cycle: cycle_names(&stuck) });
    }
    Ok(order)
}

/// DFS cycle check over initializer predecessor edges, with path reporting.
/// Nodes and edge targets are visited in `InitKey` order — the order the
/// original `BTreeMap<InitKey, BTreeSet<InitKey>>` implementation used —
/// so the same cycle is found and reported first.
fn check_cycles(preds: &[BTreeSet<u32>], keys: &[Key], el: &Elaboration) -> Result<(), KnitError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = keys.len();
    // rank ids by their InitKey's sort order
    let mut by_key: Vec<u32> = (0..n as u32).collect();
    by_key.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let mut rank: Vec<usize> = vec![0; n];
    for (r, &u) in by_key.iter().enumerate() {
        rank[u as usize] = r;
    }
    let preds_by_key: Vec<Vec<u32>> = preds
        .iter()
        .map(|s| {
            let mut v: Vec<u32> = s.iter().copied().collect();
            v.sort_by_key(|&p| rank[p as usize]);
            v
        })
        .collect();
    let mut marks = vec![Mark::White; n];
    let mut stack: Vec<u32> = Vec::new();

    fn dfs(
        u: u32,
        preds_by_key: &[Vec<u32>],
        keys: &[Key],
        marks: &mut [Mark],
        stack: &mut Vec<u32>,
        el: &Elaboration,
    ) -> Result<(), KnitError> {
        marks[u as usize] = Mark::Grey;
        stack.push(u);
        for &v in &preds_by_key[u as usize] {
            match marks[v as usize] {
                Mark::Grey => {
                    let start = stack.iter().position(|&s| s == v).unwrap_or(0);
                    let mut cycle: Vec<String> = stack[start..]
                        .iter()
                        .map(|&s| describe_key(keys[s as usize], el))
                        .collect();
                    cycle.push(describe_key(keys[v as usize], el));
                    return Err(KnitError::InitCycle { cycle });
                }
                Mark::White => dfs(v, preds_by_key, keys, marks, stack, el)?,
                Mark::Black => {}
            }
        }
        stack.pop();
        marks[u as usize] = Mark::Black;
        Ok(())
    }

    for &u in &by_key {
        if marks[u as usize] == Mark::White {
            dfs(u, &preds_by_key, keys, &mut marks, &mut stack, el)?;
        }
    }
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;

    fn build(src: &str, root: &str) -> (Program, Elaboration) {
        let mut p = Program::new();
        p.load_str("t.unit", src).unwrap();
        let el = elaborate(&p, root).unwrap();
        (p, el)
    }

    /// The paper's exact scenario: open_log needs stdio orders the two
    /// components; serveLog needs stdio alone would not.
    #[test]
    fn initializer_level_dep_orders_components() {
        let src = r#"
            bundletype Serve = { serve_web }
            bundletype Stdio = { fopen }
            unit StdioU = {
                exports [ stdio : Stdio ];
                initializer stdio_init for stdio;
                files { "s.c" };
            }
            unit Log = {
                imports [ stdio : Stdio ];
                exports [ serveLog : Serve ];
                initializer open_log for serveLog;
                depends { open_log needs stdio; serveLog needs stdio; };
                files { "l.c" };
            }
            unit Sys = {
                exports [ out : Serve ];
                link {
                    s : StdioU;
                    l : Log [ stdio = s.stdio ];
                    out = l.serveLog;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        let names = sched.describe(&el);
        let pos = |n: &str| names.iter().position(|x| x.ends_with(n)).unwrap();
        assert!(pos("stdio_init") < pos("open_log"), "{names:?}");
    }

    /// Export-level deps alone must NOT order the initializers (§3.2:
    /// "this declaration alone does not constrain the order").
    #[test]
    fn export_level_dep_does_not_overconstrain() {
        let src = r#"
            bundletype A = { fa }
            bundletype B = { fb }
            unit UA = {
                imports [ b : B ];
                exports [ a : A ];
                initializer ia for a;
                depends { a needs b; };
                files { "a.c" };
            }
            unit UB = {
                imports [ a : A ];
                exports [ b : B ];
                initializer ib for b;
                depends { b needs a; };
                files { "b.c" };
            }
            unit Sys = {
                exports [ out : A ];
                link {
                    ua : UA [ b = ub.b ];
                    ub : UB [ a = ua.a ];
                    out = ua.a;
                };
            }
        "#;
        // mutual *export-level* deps form no initializer cycle
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        assert_eq!(sched.inits.len(), 2);
    }

    /// Initializer-level mutual deps DO form a cycle and must be reported.
    #[test]
    fn init_cycle_detected_with_path() {
        let src = r#"
            bundletype A = { fa }
            bundletype B = { fb }
            unit UA = {
                imports [ b : B ];
                exports [ a : A ];
                initializer ia for a;
                depends { ia needs b; };
                files { "a.c" };
            }
            unit UB = {
                imports [ a : A ];
                exports [ b : B ];
                initializer ib for b;
                depends { ib needs a; };
                files { "b.c" };
            }
            unit Sys = {
                exports [ out : A ];
                link {
                    ua : UA [ b = ub.b ];
                    ub : UB [ a = ua.a ];
                    out = ua.a;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        match schedule(&p, &el) {
            Err(KnitError::InitCycle { cycle }) => {
                assert!(cycle.len() >= 2, "{cycle:?}");
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    /// Transitive ordering through a middle unit with no initializer.
    #[test]
    fn transitive_ordering_through_uninitialized_unit() {
        let src = r#"
            bundletype A = { fa }
            bundletype B = { fb }
            bundletype C = { fc }
            unit Base = {
                exports [ c : C ];
                initializer ic for c;
                files { "c.c" };
            }
            unit Middle = {
                imports [ c : C ];
                exports [ b : B ];
                depends { b needs c; };
                files { "m.c" };
            }
            unit Top = {
                imports [ b : B ];
                exports [ a : A ];
                initializer ia for a;
                depends { ia needs b; };
                files { "t.c" };
            }
            unit Sys = {
                exports [ out : A ];
                link {
                    base : Base;
                    mid : Middle [ c = base.c ];
                    top : Top [ b = mid.b ];
                    out = top.a;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        let names = sched.describe(&el);
        let pos = |n: &str| names.iter().position(|x| x.ends_with(n)).unwrap();
        // ia needs b; b (middle) needs c; so ic must run before ia even
        // though the middle unit has no initializer of its own.
        assert!(pos("ic") < pos("ia"), "{names:?}");
    }

    #[test]
    fn finalizers_run_in_reverse_dependency_order() {
        let src = r#"
            bundletype S = { fs }
            bundletype L = { fl }
            unit StdioU = {
                exports [ s : S ];
                initializer is for s;
                finalizer fs_close for s;
                files { "s.c" };
            }
            unit Log = {
                imports [ s : S ];
                exports [ l : L ];
                initializer il for l;
                finalizer fl_close for l;
                depends { il needs s; fl_close needs s; };
                files { "l.c" };
            }
            unit Sys = {
                exports [ out : L ];
                link {
                    s : StdioU;
                    l : Log [ s = s.s ];
                    out = l.l;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        let inits = sched.describe(&el);
        let finis: Vec<String> =
            sched.finis.iter().map(|(i, f)| format!("{}.{}", el.instances[*i].path, f)).collect();
        let ipos = |n: &str| inits.iter().position(|x| x.ends_with(n)).unwrap();
        let fpos = |n: &str| finis.iter().position(|x| x.ends_with(n)).unwrap();
        assert!(ipos("is") < ipos("il"));
        // log's finalizer uses stdio, so it must run BEFORE stdio's.
        assert!(fpos("fl_close") < fpos("fs_close"), "{finis:?}");
    }

    #[test]
    fn schedule_is_deterministic() {
        let src = r#"
            bundletype T = { f }
            unit Leaf = {
                exports [ o : T ];
                initializer boot for o;
                files { "l.c" };
            }
            unit Sys = {
                exports [ a : T, b : T, c : T ];
                link {
                    x : Leaf; y : Leaf; z : Leaf;
                    a = x.o; b = y.o; c = z.o;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let s1 = schedule(&p, &el).unwrap();
        let s2 = schedule(&p, &el).unwrap();
        assert_eq!(s1.inits, s2.inits);
        assert_eq!(s1.inits.len(), 3);
    }
}
