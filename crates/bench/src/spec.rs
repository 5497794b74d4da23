//! Executable specifications of Knit's composition rules, checked against
//! the engine's own output, plus canonical dumps of that output.
//!
//! The engine elaborates with interned names, template stamping and
//! worklists (DESIGN.md §13). Each checker here restates one rule as
//! directly as the paper does: [`check_wiring`] §2, [`check_schedule`]
//! §3.2 and [`check_constraints`] §4. The code is naive on purpose:
//! string keys, recursion over the declarations, and repeated full passes
//! instead of worklists. It is a test oracle, never a build path.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

use knit::elaborate::NodeInfo;
use knit::sched::Schedule;
use knit::{Elaboration, Program, Wire};
use knit_lang::ast::{COp, CTarget, CTerm, DepAtom, DepSide, PathRef, Port, UnitBody, UnitDecl};

/// Canonical text rendering of an elaboration: every instance with its
/// wires, the root's ports, the flatten groups and every tree node.
pub fn dump_elaboration(el: &Elaboration) -> String {
    let mut out = String::new();
    out.push_str(&format!("root {}\n", el.root));
    for i in &el.instances {
        out.push_str(&format!("inst {} {} {}\n", i.id, i.path, i.unit));
        for (p, w) in &i.imports {
            out.push_str(&format!("  imp {p} = "));
            dump_wire(&mut out, w);
            out.push('\n');
        }
    }
    for (p, (i, q)) in &el.root_exports {
        out.push_str(&format!("rootexp {p} = {i} {q}\n"));
    }
    for p in &el.root_imports {
        out.push_str(&format!("rootimp {p}\n"));
    }
    for g in &el.flatten_groups {
        let ids: Vec<String> = g.iter().map(|i| i.to_string()).collect();
        out.push_str(&format!("flatten {}\n", ids.join(",")));
    }
    for n in &el.nodes {
        out.push_str(&format!("node {} {}\n", n.path, n.unit));
        for (p, w) in &n.imports {
            out.push_str(&format!("  imp {p} = "));
            dump_wire(&mut out, w);
            out.push('\n');
        }
        for (p, (i, q)) in &n.exports {
            out.push_str(&format!("  exp {p} = {i} {q}\n"));
        }
    }
    out
}

fn dump_wire(out: &mut String, w: &Wire) {
    match w {
        Wire::Export { instance, port } => out.push_str(&format!("export {instance} {port}")),
        Wire::External { port } => out.push_str(&format!("external {port}")),
    }
}

/// Canonical text rendering of a schedule: initializers, then
/// finalizers, in call order.
pub fn dump_schedule(s: &Schedule) -> String {
    let mut out = String::new();
    for (i, f) in &s.inits {
        out.push_str(&format!("init {i} {f}\n"));
    }
    for (i, f) in &s.finis {
        out.push_str(&format!("fini {i} {f}\n"));
    }
    out
}

/// 64-bit FNV-1a of a dump, for pinning it in a test.
pub fn dump_hash(dump: &str) -> u64 {
    let mut h = cobj::fnv::FnvHasher::default();
    h.write(dump.as_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// wiring (§2)
// ---------------------------------------------------------------------------

/// The unit declared at each path of the instantiation tree.
type Decls<'a> = BTreeMap<&'a str, &'a UnitDecl>;

/// Where a port's implementation comes from: the export `(path, port)`
/// of an atomic instance, or an import of the root.
#[derive(Debug, PartialEq, Eq)]
enum Source {
    Export(String, String),
    External(String),
}

/// Follow import `port` of the node at `path` through the enclosing link
/// block: a binding to a compound's own import renames the port one level
/// up; a binding to a sibling's export ends at that export.
fn import_source(decls: &Decls, path: &str, port: &str) -> Result<Source, String> {
    let Some((parent, name)) = path.rsplit_once('/') else {
        return Ok(Source::External(port.to_string()));
    };
    let UnitBody::Compound(c) = &decls[parent].body else { unreachable!("parents are compound") };
    let inst = c.instances.iter().find(|i| i.name == name).ok_or(format!("no `{path}`"))?;
    match inst.bindings.iter().find(|(p, _)| p == port) {
        None => Err(format!("`{path}`: import `{port}` is unbound")),
        Some((_, PathRef::Name(q))) => import_source(decls, parent, q),
        Some((_, PathRef::Dotted(sibling, q))) => {
            export_source(decls, &format!("{parent}/{sibling}"), q)
        }
    }
}

/// Follow export `port` of the node at `path` down through compound
/// export bindings to an atomic instance.
fn export_source(decls: &Decls, path: &str, port: &str) -> Result<Source, String> {
    match &decls.get(path).ok_or(format!("no `{path}`"))?.body {
        UnitBody::Atomic(_) => Ok(Source::Export(path.to_string(), port.to_string())),
        UnitBody::Compound(c) => {
            let b = c.export_bindings.iter().find(|b| b.export == port);
            let b = b.ok_or(format!("`{path}` binds no export `{port}`"))?;
            export_source(decls, &format!("{path}/{}", b.instance), &b.port)
        }
    }
}

fn port_type<'a>(ports: &'a [Port], name: &str) -> Option<&'a str> {
    ports.iter().find(|p| p.name == name).map(|p| p.bundle_type.as_str())
}

/// Check an elaboration against §2: instance paths are distinct (so each
/// instantiation of a unit is its own instance); every import of every
/// instance has exactly one wire, to the source its link-block bindings
/// name, whose bundle type matches the import's; and flatten groups list
/// only existing instances.
pub fn check_wiring(program: &Program, el: &Elaboration) -> Result<(), String> {
    let decls: Decls =
        el.nodes.iter().map(|n| (n.path.as_str(), &program.units[n.unit.as_str()])).collect();
    let mut paths = BTreeSet::new();
    for (id, inst) in el.instances.iter().enumerate() {
        if inst.id != id || !paths.insert(inst.path.as_str()) {
            return Err(format!("instance {id} at `{}` is not unique", inst.path));
        }
        let decl = decls.get(inst.path.as_str()).ok_or(format!("no node `{}`", inst.path))?;
        if inst.imports.len() != decl.imports.len() {
            return Err(format!("`{}`: wires and imports differ", inst.path));
        }
        for import in &decl.imports {
            let got = match inst.imports.get(import.name.as_str()) {
                None => return Err(format!("`{}`: `{}` has no wire", inst.path, import.name)),
                Some(Wire::Export { instance, port }) => {
                    let p = el.instances.get(*instance).ok_or("wire to no instance")?;
                    Source::Export(p.path.clone(), port.to_string())
                }
                Some(Wire::External { port }) => Source::External(port.to_string()),
            };
            let want = import_source(&decls, &inst.path, &import.name)?;
            let ty = match &want {
                Source::Export(path, port) => port_type(&decls[path.as_str()].exports, port),
                Source::External(port) => port_type(&decls[el.root.as_str()].imports, port),
            };
            if got != want || ty != Some(&import.bundle_type) {
                return Err(format!("`{}`: `{}` wired to {got:?}", inst.path, import.name));
            }
        }
    }
    match el.flatten_groups.iter().flatten().find(|&&id| id >= el.instances.len()) {
        Some(id) => Err(format!("flatten group lists no instance {id}")),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// scheduling (§3.2)
// ---------------------------------------------------------------------------

/// An initializer or finalizer call: (instance id, C function name).
type Call = (usize, String);

/// The wired provider `(instance, export)` of import `p` of `inst`.
fn provider(el: &Elaboration, inst: usize, p: &str) -> Option<(usize, String)> {
    match el.instances[inst].imports.get(p)? {
        Wire::Export { instance, port } => Some((*instance, port.to_string())),
        Wire::External { .. } => None,
    }
}

/// Check a schedule against §3.2. Every declared initializer and
/// finalizer is called exactly once. The *usable set* of an export is its
/// own initializers plus the usable sets of the exports that its
/// export-level dependencies (`e needs p`, `exports needs imports`) are
/// wired to. An initializer-level `f needs p` runs `f` after the usable
/// set of the export `p` is wired to. A finalizer-level `f needs p` runs
/// `f` before every finalizer of the instance `p` is wired to.
pub fn check_schedule(program: &Program, el: &Elaboration, s: &Schedule) -> Result<(), String> {
    let (mut units, mut inits, mut finis) = (Vec::new(), Vec::new(), Vec::new());
    for (i, inst) in el.instances.iter().enumerate() {
        let decl: &UnitDecl = &program.units[inst.unit.as_str()];
        let UnitBody::Atomic(a) = &decl.body else { return Err("compound instance".into()) };
        inits.extend(a.initializers.iter().map(|f| (i, f.func.clone())));
        finis.extend(a.finalizers.iter().map(|f| (i, f.func.clone())));
        units.push((decl, a));
    }
    let sorted = |calls: &[Call]| -> Vec<Call> {
        let mut v = calls.to_vec();
        v.sort();
        v
    };
    if sorted(&inits) != sorted(&s.inits) || sorted(&finis) != sorted(&s.finis) {
        return Err("the calls are not the declared initializers and finalizers".into());
    }

    // `(instance, lhs, import)` for each `lhs needs import`.
    let mut needs: Vec<(usize, String, String)> = Vec::new();
    for (i, (decl, a)) in units.iter().enumerate() {
        let names = |ps: &[Port]| ps.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        for d in &a.depends {
            let lhs = match &d.lhs {
                DepSide::Exports => names(&decl.exports),
                DepSide::Name(n) => vec![n.clone()],
            };
            for atom in &d.rhs {
                let rhs = match atom {
                    DepAtom::Imports => names(&decl.imports),
                    DepAtom::Name(n) => vec![n.clone()],
                };
                needs
                    .extend(lhs.iter().flat_map(|l| rhs.iter().map(|r| (i, l.clone(), r.clone()))));
            }
        }
    }

    let mut usable: BTreeMap<(usize, String), BTreeSet<Call>> = BTreeMap::new();
    for (i, (decl, a)) in units.iter().enumerate() {
        for e in &decl.exports {
            let own = a.initializers.iter().filter(|f| f.bundle == e.name);
            usable.insert((i, e.name.clone()), own.map(|f| (i, f.func.clone())).collect());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (i, e, p) in &needs {
            let (Some(src), true) = (provider(el, *i, p), usable.contains_key(&(*i, e.clone())))
            else {
                continue; // `e` is a function, or `p` is open at the root
            };
            let add = usable.get(&src).cloned().unwrap_or_default();
            let set = usable.get_mut(&(*i, e.clone())).expect("an export");
            let before = set.len();
            set.extend(add);
            changed |= set.len() != before;
        }
    }

    // A function declared twice is called twice: compare first calls of
    // initializers and last calls of finalizers.
    let mut first: BTreeMap<&Call, usize> = BTreeMap::new();
    for (pos, c) in s.inits.iter().enumerate() {
        first.entry(c).or_insert(pos);
    }
    let last: BTreeMap<&Call, usize> = s.finis.iter().enumerate().map(|(p, c)| (c, p)).collect();
    for (i, f, p) in &needs {
        let call = (*i, f.clone());
        let Some((j, port)) = provider(el, *i, p) else { continue };
        if units[*i].1.initializers.iter().any(|d| &d.func == f) {
            for g in usable.get(&(j, port)).into_iter().flatten() {
                if *g != call && first[g] >= first[&call] {
                    return Err(format!("initializer {g:?} must run before {call:?}"));
                }
            }
        }
        if units[*i].1.finalizers.iter().any(|d| &d.func == f) {
            for h in &units[j].1.finalizers {
                let later = (j, h.func.clone());
                if later != call && last[&later] <= last[&call] {
                    return Err(format!("finalizer {call:?} must run before {later:?}"));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// constraints (§4)
// ---------------------------------------------------------------------------

/// A constraint annotation: its property and `.unit` file, line, column.
pub type Site = (String, String, u32, u32);

/// A side of a `lo <= hi` constraint: a port's property value (named
/// `instance/export` or `external/import`; an import has no value of its
/// own, linking makes it the export it is wired to) or a constant.
#[derive(Clone)]
enum Term {
    Var(String),
    Const(String),
}

fn wire_var(w: &Wire) -> String {
    match w {
        Wire::Export { instance, port } => format!("{instance}/{port}"),
        Wire::External { port } => format!("external/{port}"),
    }
}

/// The property of a constraint term at tree node `node`, and the terms
/// it expands to: `imports`/`exports` name every such port, a member name
/// the one port whose bundle type has it.
fn terms(program: &Program, node: &NodeInfo, t: &CTerm) -> Result<(String, Vec<Term>), String> {
    let (prop, target) = match t {
        CTerm::Value(v) => {
            let prop = program.value_property.get(v).ok_or(format!("no value `{v}`"))?;
            return Ok((prop.clone(), vec![Term::Const(v.clone())]));
        }
        CTerm::Prop { prop, target } if program.properties.contains_key(prop) => (prop, target),
        CTerm::Prop { prop, .. } => return Err(format!("no property `{prop}`")),
    };
    let (imports, exports) = (&node.imports, &node.exports);
    let export = |&(i, p): &(usize, knit::Sym)| format!("{i}/{p}");
    let vars: Vec<String> = match target {
        CTarget::Imports => imports.values().map(wire_var).collect(),
        CTarget::Exports => exports.values().map(export).collect(),
        CTarget::Name(x) if imports.contains_key(x.as_str()) => vec![wire_var(&imports[&**x])],
        CTarget::Name(x) if exports.contains_key(x.as_str()) => vec![export(&exports[&**x])],
        CTarget::Name(x) => {
            let decl = &program.units[node.unit.as_str()];
            let has = |p: &&Port| program.bundletypes[&p.bundle_type].contains(x);
            let hits: Vec<String> = (decl.imports.iter().filter(has))
                .map(|p| wire_var(&imports[p.name.as_str()]))
                .chain(decl.exports.iter().filter(has).map(|p| export(&exports[p.name.as_str()])))
                .collect();
            if hits.len() != 1 {
                return Err(format!("`{}`: `{x}` names {} ports", node.path, hits.len()));
            }
            hits
        }
    };
    Ok((prop.clone(), vars.into_iter().map(Term::Var).collect()))
}

/// Check the property annotations of an elaboration against §4, by a
/// naive least fixpoint. Every constraint becomes `lo <= hi` edges (an
/// `=` gives both directions). A constant lower bound `c <= x` reaches
/// every variable above `x` along the edges, and a constant upper bound
/// every variable below; each pass re-applies every edge to the sets of
/// bounds reaching its ends, until no set grows. A variable conflicts if
/// a lower bound reaching it is not below an upper bound reaching it; a
/// constant-only constraint conflicts if it does not hold. (Pairwise
/// comparison is the whole rule when each property's values form a
/// lattice, as in every corpus here; the engine also rejects two values
/// without a meet or join, K0012.)
///
/// Returns the site of every annotation in a conflict (none when the
/// annotations are consistent), or `Err` when one names no property,
/// value or port.
pub fn check_constraints(program: &Program, el: &Elaboration) -> Result<BTreeSet<Site>, String> {
    let mut edges: Vec<(Term, Term, Site)> = Vec::new();
    for n in &el.nodes {
        let file = program.unit_site(n.unit.as_str()).map_or("", |(f, _)| f);
        for c in &program.units[n.unit.as_str()].constraints {
            let ((prop, lhs), (rprop, rhs)) =
                (terms(program, n, &c.lhs)?, terms(program, n, &c.rhs)?);
            if prop != rprop {
                return Err(format!("`{}`: constraint mixes `{prop}` and `{rprop}`", n.path));
            }
            let site: Site = (prop, file.to_string(), c.span.line, c.span.col);
            for (l, r) in lhs.iter().flat_map(|l| rhs.iter().map(move |r| (l, r))) {
                edges.push((l.clone(), r.clone(), site.clone()));
                if c.op == COp::Eq {
                    edges.push((r.clone(), l.clone(), site.clone()));
                }
            }
        }
    }

    // The constant bounds (by edge index) reaching each (property, var).
    type Reach = BTreeMap<(String, String), BTreeSet<usize>>;
    let (mut lower, mut upper) = (Reach::new(), Reach::new());
    let mut conflicts = BTreeSet::new();
    for (i, (lo, hi, site)) in edges.iter().enumerate() {
        let reach = match (lo, hi) {
            (Term::Const(a), Term::Const(b)) => {
                if !program.properties[&site.0].leq(a, b) {
                    conflicts.insert(site.clone());
                }
                continue;
            }
            (Term::Const(_), Term::Var(v)) => lower.entry((site.0.clone(), v.clone())),
            (Term::Var(v), Term::Const(_)) => upper.entry((site.0.clone(), v.clone())),
            (Term::Var(_), Term::Var(_)) => continue,
        };
        reach.or_default().insert(i);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (lo, hi, site) in &edges {
            let (Term::Var(lo), Term::Var(hi)) = (lo, hi) else { continue };
            let (lo, hi) = ((site.0.clone(), lo.clone()), (site.0.clone(), hi.clone()));
            for (from, to, reach) in [(&lo, &hi, &mut lower), (&hi, &lo, &mut upper)] {
                let add = reach.get(from).cloned().unwrap_or_default();
                let set = reach.entry(to.clone()).or_default();
                let before = set.len();
                set.extend(add);
                changed |= set.len() != before;
            }
        }
    }

    let constant = |i: usize| match &edges[i] {
        (Term::Const(c), _, _) | (_, Term::Const(c), _) => c.as_str(),
        _ => unreachable!("a bound has a constant side"),
    };
    for (key, los) in &lower {
        let Some(ups) = upper.get(key) else { continue };
        let poset = &program.properties[&key.0];
        for (&l, &u) in los.iter().flat_map(|l| ups.iter().map(move |u| (l, u))) {
            if !poset.leq(constant(l), constant(u)) {
                conflicts.extend([edges[l].2.clone(), edges[u].2.clone()]);
            }
        }
    }
    Ok(conflicts)
}
