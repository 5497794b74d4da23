//! Elaboration: from a hierarchy of compound units to a flat graph of
//! atomic unit instances.
//!
//! Compound units are pure wiring — during elaboration they dissolve,
//! leaving atomic instances whose import ports are wired either to another
//! instance's export port or to the outside world (an import of the root
//! unit, satisfied by the runtime). Because our link blocks name every
//! instance, the same unit can be instantiated any number of times; each
//! instantiation becomes its own [`ElabInstance`] and, later in the
//! pipeline, its own `objcopy`-duplicated object code — the paper's
//! mechanism for, e.g., two independent `printf`s.
//!
//! Cyclic imports between sibling instances are fully supported (§3.2:
//! "cyclic imports are common"): resolution of an import chases *bindings*
//! (up through parents) and *export aliases* (down through children), never
//! through another import, so it always terminates.
//!
//! # Scaling (DESIGN.md §13)
//!
//! Three things keep this pass fast at 10k+ units:
//!
//! * **Interned names.** Ports, units, and bundle types are [`Sym`]s —
//!   `Copy`, pointer-equality, string-ordered — so the maps below never
//!   clone or re-compare full strings. Iteration order (and therefore
//!   every downstream image byte and diagnostic) is unchanged.
//! * **Per-unit index maps.** Port → bundle-type lookups that used to be
//!   linear scans over declaration vectors are `HashMap` hits, built once
//!   per distinct unit per elaboration (`UnitInfo`).
//! * **Replicated-subgraph memoization.** The first instantiation of a
//!   compound unit builds its subtree normally and registers it as a
//!   *template*; every later instantiation becomes a `NodeKind::Copy`
//!   that stamps out instances and node info by translating the
//!   template's relative wiring, re-resolving only the wires that escape
//!   through the template root's import ports. N structurally identical
//!   service groups elaborate once and stamp N−1 times — the "verify
//!   replicated subgraphs once, instantiate N times" idea from the local
//!   reasoning literature. Instance ids, node order, error selection, and
//!   blame sites are identical to a full build; [`ElabStats`] counts how
//!   much work was stamped instead of built, and a copy falls back to a
//!   normal build whenever the template is not eligible (unit already on
//!   the instantiation stack, or interior `flatten` roots).

use std::collections::{BTreeMap, BTreeSet};

use cobj::fnv::FnvMap;
use knit_lang::ast::{UnitBody, UnitDecl};
use knit_lang::token::Span;

use crate::error::KnitError;
use crate::intern::Sym;
use crate::model::{BindSyms, Program, UnitSyms};

/// Where an import port gets its implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// Wired to `instances[instance]`'s export port `port`.
    Export {
        /// Index of the providing instance.
        instance: usize,
        /// The provider's export port.
        port: Sym,
    },
    /// Left open at the root: satisfied by the runtime (external world).
    External {
        /// The open root import port.
        port: Sym,
    },
}

/// One atomic unit instance in the elaborated graph.
#[derive(Debug, Clone)]
pub struct ElabInstance {
    /// Dense id; index into [`Elaboration::instances`].
    pub id: usize,
    /// Hierarchical path, e.g. `"logserve/log"`.
    pub path: String,
    /// Name of the atomic unit this instantiates.
    pub unit: Sym,
    /// Wiring for each import port.
    pub imports: BTreeMap<Sym, Wire>,
}

/// A node of the instantiation tree (kept for constraint checking, which
/// must resolve compound-level annotations too).
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Unit name.
    pub unit: Sym,
    /// Hierarchical path.
    pub path: String,
    /// Resolution of each import port.
    pub imports: BTreeMap<Sym, Wire>,
    /// Resolution of each export port to an atomic (instance, port).
    pub exports: BTreeMap<Sym, (usize, Sym)>,
}

/// How much elaboration work was memoized (template stamping) versus
/// built from scratch — counters the 10k-unit session test in
/// `crates/bench/tests/scale.rs` pins exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElabStats {
    /// Instantiation-tree nodes built by full recursive descent.
    pub nodes_built: usize,
    /// Template copies stamped (each replaces a whole subtree build).
    pub template_copies: usize,
    /// Instances materialized by stamping rather than recursion.
    pub instances_stamped: usize,
}

/// The result of elaboration.
#[derive(Debug, Clone)]
pub struct Elaboration {
    /// All atomic instances, densely numbered.
    pub instances: Vec<ElabInstance>,
    /// The root unit's exports, resolved to atomic instances.
    pub root_exports: BTreeMap<Sym, (usize, Sym)>,
    /// The root unit's import ports (these are the build's externals).
    pub root_imports: Vec<Sym>,
    /// Sets of instance ids under each outermost `flatten`-marked compound.
    pub flatten_groups: Vec<Vec<usize>>,
    /// Every node of the instantiation tree (atomic and compound).
    pub nodes: Vec<NodeInfo>,
    /// Name of the root unit.
    pub root: String,
    /// Instance ids per unit name, ascending — the index that replaces
    /// linear `instances.iter().find(…)` scans.
    pub by_unit: BTreeMap<Sym, Vec<usize>>,
    /// Build-vs-stamp counters.
    pub stats: ElabStats,
}

impl Elaboration {
    /// The unit declaration of an instance.
    pub fn unit_of<'p>(&self, program: &'p Program, id: usize) -> &'p UnitDecl {
        &program.units[self.instances[id].unit.as_str()]
    }

    /// Ids of all instances of `unit`, ascending (empty if none).
    pub fn instances_of(&self, unit: &str) -> &[usize] {
        self.by_unit.get(unit).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The first (lowest-id) instance of `unit`, if any.
    pub fn first_instance(&self, unit: &str) -> Option<&ElabInstance> {
        self.instances_of(unit).first().map(|&id| &self.instances[id])
    }
}

/// Elaborate `root` against the program.
pub fn elaborate(program: &Program, root: &str) -> Result<Elaboration, KnitError> {
    let mut infos: FnvMap<Sym, UnitInfo<'_>> =
        FnvMap::with_capacity_and_hasher(program.units.len(), Default::default());
    for (name, decl) in &program.units {
        let syms = &program.syms[name.as_str()];
        infos.insert(syms.name, UnitInfo { decl, syms });
    }

    let mut el = Elaborator {
        infos,
        nodes: Vec::new(),
        instances: Vec::new(),
        stack: Vec::new(),
        flatten_roots: Vec::new(),
        templates: FnvMap::default(),
        pub_count: 0,
        stats: ElabStats::default(),
    };
    let root_sym = Sym::new(root);
    let root_id = el.build(root_sym, root.to_string(), None, BTreeMap::new(), None)?;

    // Pass 2: resolve every atomic instance's imports, in public node
    // order (template copies expand to their interior atomics in place).
    for node_id in 0..el.nodes.len() {
        match el.nodes[node_id].kind {
            NodeKind::Atomic { inst } => {
                let syms = el.infos[&el.nodes[node_id].unit].syms;
                let site = el.nodes[node_id].site;
                for &(port, ty) in &syms.imports {
                    let wire =
                        el.resolve_import(node_id, port).map_err(|e| e.at(&site.0, site.1))?;
                    el.check_wire_type(&wire, ty, node_id, port)
                        .map_err(|e| e.at(&site.0, site.1))?;
                    let inst_ref = &mut el.instances[inst];
                    inst_ref.imports.insert(port, wire);
                }
            }
            NodeKind::Copy { .. } => el.stamp_copy_wires(node_id)?,
            NodeKind::Compound { .. } => {}
        }
    }

    // Root exports.
    let root_syms = el.infos[&root_sym].syms;
    let root_site = el.nodes[root_id].site;
    let root_export_ports: Vec<Sym> = root_syms.exports.iter().map(|&(p, _)| p).collect();
    let root_imports: Vec<Sym> = root_syms.imports.iter().map(|&(p, _)| p).collect();
    let mut root_exports = BTreeMap::new();
    for p in root_export_ports {
        let (inst, port) =
            el.resolve_export(root_id, p).map_err(|e| e.at(&root_site.0, root_site.1))?;
        root_exports.insert(p, (inst, port));
    }

    // Flatten groups: outermost flatten-marked compounds.
    let mut flatten_groups = Vec::new();
    for i in 0..el.flatten_roots.len() {
        let fr = el.flatten_roots[i];
        if !el.has_flatten_ancestor(fr) {
            let mut group = Vec::new();
            el.collect_atomics(fr, &mut group);
            if !group.is_empty() {
                flatten_groups.push(group);
            }
        }
    }

    // Pass 3: public node info, in public node order.
    let mut nodes: Vec<NodeInfo> = Vec::with_capacity(el.pub_count);
    for id in 0..el.nodes.len() {
        if let NodeKind::Copy { .. } = el.nodes[id].kind {
            el.expand_copy_nodes(id, &mut nodes)?;
            continue;
        }
        let syms = el.infos[&el.nodes[id].unit].syms;
        let site = el.nodes[id].site;
        // Atomic nodes re-use the wires pass 2 already resolved (and
        // type-checked) for their instance — identical by construction.
        let imports = match &el.nodes[id].kind {
            NodeKind::Atomic { inst } => el.instances[*inst].imports.clone(),
            _ => {
                let mut m = BTreeMap::new();
                for &(p, _) in &syms.imports {
                    m.insert(p, el.resolve_import(id, p).map_err(|e| e.at(&site.0, site.1))?);
                }
                m
            }
        };
        let mut exports = BTreeMap::new();
        for &(p, _) in &syms.exports {
            exports.insert(p, el.resolve_export(id, p).map_err(|e| e.at(&site.0, site.1))?);
        }
        nodes.push(NodeInfo {
            unit: el.nodes[id].unit,
            path: el.nodes[id].path.clone(),
            imports,
            exports,
        });
    }

    // Name → ids index (satellite: replaces linear instance scans).
    let mut by_unit: BTreeMap<Sym, Vec<usize>> = BTreeMap::new();
    for inst in &el.instances {
        by_unit.entry(inst.unit).or_default().push(inst.id);
    }

    Ok(Elaboration {
        instances: el.instances,
        root_exports,
        root_imports,
        flatten_groups,
        nodes,
        root: root.to_string(),
        by_unit,
        stats: el.stats,
    })
}

/// Per-unit view for elaboration: the AST declaration plus the interned
/// symbol table the [`Program`] built at registration — no `Sym::new`
/// calls (global-table probes) happen on the per-elaboration hot path.
struct UnitInfo<'p> {
    decl: &'p UnitDecl,
    syms: &'p UnitSyms,
}

impl UnitInfo<'_> {
    /// Bundle type of an import port. Linear scan: unit port lists are a
    /// handful of entries, and `Sym` equality is a pointer compare.
    fn import_type(&self, port: Sym) -> Option<Sym> {
        self.syms.imports.iter().find(|&&(p, _)| p == port).map(|&(_, t)| t)
    }

    /// Bundle type of an export port.
    fn export_type(&self, port: Sym) -> Option<Sym> {
        self.syms.exports.iter().find(|&&(p, _)| p == port).map(|&(_, t)| t)
    }
}

enum NodeKind {
    Atomic {
        inst: usize,
    },
    Compound {
        children: BTreeMap<Sym, usize>,
        exports: BTreeMap<Sym, (Sym, Sym)>,
    },
    /// A stamped copy of an earlier, structurally identical subtree.
    Copy {
        /// Internal node id of the template source root.
        src: usize,
        /// First instance id of this copy's stamped range.
        inst_base: usize,
    },
}

struct Node {
    unit: Sym,
    path: String,
    parent: Option<usize>,
    bindings: BTreeMap<Sym, BindSyms>,
    kind: NodeKind,
    flatten: bool,
    /// `(file, position)` of the instantiation that created this node (the
    /// `inst : Unit [ … ]` line, or the unit declaration for the root) —
    /// the blame location for wiring errors involving this node.
    site: (Sym, Span),
    /// Public node id (copies reserve a whole contiguous range).
    pub_id: usize,
}

/// A wire expressed relative to a template subtree.
#[derive(Clone, Copy)]
enum RelWire {
    /// Provider is inside the subtree: (instance id − subtree base, port).
    Internal(usize, Sym),
    /// Escapes through the template root's import port — re-resolve per
    /// copy in the copy's context.
    ViaRoot(Sym),
}

/// One import use inside a template, in full-build resolution order.
struct RelUse {
    /// Node id relative to the subtree's public base (0 = the root).
    rel_node: usize,
    port: Sym,
    wire: RelWire,
    /// Expected bundle type (only re-checked for `ViaRoot` wires).
    expected: Sym,
    /// Importing instance id relative to the subtree instance base
    /// (`usize::MAX` for compound nodes, which carry no instance).
    rel_inst: usize,
    /// Blame site of the instantiation line (identical across copies).
    site: (Sym, Span),
    is_atomic: bool,
}

/// Per-rel-node export resolutions for pass-3 stamping.
struct RelNodeInfo {
    unit: Sym,
    /// Path suffix after the template root's path ("" for the root).
    rel_path: String,
    imports: Vec<(Sym, RelWire)>,
    exports: Vec<(Sym, (usize, Sym))>,
}

struct Template {
    /// Internal node id of the source subtree root.
    src: usize,
    inst_base: usize,
    inst_count: usize,
    /// Public node count of the subtree.
    node_count: usize,
    /// Unit names instantiated anywhere inside (for the stack check).
    units_inside: BTreeSet<Sym>,
    /// False if the subtree contains interior flatten roots — copies then
    /// fall back to a full build so flatten grouping stays identical.
    clean: bool,
    /// `(unit, rel path suffix)` per stamped instance, in id order.
    stamp: Vec<(Sym, String)>,
    /// Lazily extracted wiring info (needs pass-2 results for the src).
    uses: Option<Vec<RelUse>>,
    /// Lazily extracted pass-3 node info skeletons.
    rel_nodes: Option<Vec<RelNodeInfo>>,
    /// Atomic instance rel ids in `collect_atomics` (name) order.
    name_order: Option<Vec<usize>>,
}

struct Elaborator<'p> {
    infos: FnvMap<Sym, UnitInfo<'p>>,
    nodes: Vec<Node>,
    instances: Vec<ElabInstance>,
    stack: Vec<Sym>,
    flatten_roots: Vec<usize>,
    templates: FnvMap<Sym, Template>,
    pub_count: usize,
    stats: ElabStats,
}

impl<'p> Elaborator<'p> {
    /// Instantiate `unit_name`, wrapping any error with `site` — the
    /// `.unit` position of the instantiation (or of the root unit's
    /// declaration). Inner (more precise) locations win, so a failure deep
    /// in a sub-compound blames the innermost offending line.
    fn build(
        &mut self,
        unit_name: Sym,
        path: String,
        parent: Option<usize>,
        bindings: BTreeMap<Sym, BindSyms>,
        site: Option<(Sym, Span)>,
    ) -> Result<usize, KnitError> {
        let site = site
            .or_else(|| self.infos.get(&unit_name).map(|i| i.syms.site))
            .unwrap_or((Sym::new(""), Span::default()));
        self.build_inner(unit_name, path, parent, bindings, site).map_err(|e| e.at(&site.0, site.1))
    }

    fn build_inner(
        &mut self,
        unit_name: Sym,
        path: String,
        parent: Option<usize>,
        bindings: BTreeMap<Sym, BindSyms>,
        site: (Sym, Span),
    ) -> Result<usize, KnitError> {
        let Some(info) = self.infos.get(&unit_name) else {
            return Err(KnitError::Unknown {
                kind: "unit",
                name: unit_name.to_string(),
                context: format!("instantiating `{path}`"),
            });
        };
        if self.stack.contains(&unit_name) {
            return Err(KnitError::BadDeclaration {
                unit: unit_name.to_string(),
                what: format!(
                    "recursive instantiation: {} -> {unit_name}",
                    self.stack.iter().map(|s| s.as_str()).collect::<Vec<_>>().join(" -> ")
                ),
            });
        }
        // every import of a non-root instantiation must be bound
        if parent.is_some() {
            for &(p, _) in &info.syms.imports {
                if !bindings.contains_key(&p) {
                    return Err(KnitError::UnboundImport {
                        instance: path.clone(),
                        port: p.to_string(),
                    });
                }
            }
            for bound in bindings.keys() {
                if info.import_type(*bound).is_none() {
                    return Err(KnitError::Unknown {
                        kind: "import port",
                        name: bound.to_string(),
                        context: format!("binding for `{path}`"),
                    });
                }
            }
        }

        // A registered template can be stamped instead of rebuilt, as long
        // as nothing on the instantiation stack would have changed how the
        // subtree builds (recursion is an error, reported by the fallback)
        // and flatten grouping inside is trivial.
        if parent.is_some() {
            if let Some(t) = self.templates.get(&unit_name) {
                if t.clean && !t.units_inside.iter().any(|u| self.stack.contains(u)) {
                    return Ok(self.stamp_copy(unit_name, path, parent, bindings, site));
                }
            }
        }

        let node_id = self.nodes.len();
        let pub_id = self.pub_count;
        self.pub_count += 1;
        self.stats.nodes_built += 1;
        let decl = info.decl;
        let syms = info.syms;
        let flatten = decl.flatten;
        match &decl.body {
            UnitBody::Atomic(_) => {
                let inst_id = self.instances.len();
                self.instances.push(ElabInstance {
                    id: inst_id,
                    path: path.clone(),
                    unit: unit_name,
                    imports: BTreeMap::new(),
                });
                self.nodes.push(Node {
                    unit: unit_name,
                    path,
                    parent,
                    bindings,
                    kind: NodeKind::Atomic { inst: inst_id },
                    flatten,
                    site,
                    pub_id,
                });
                Ok(node_id)
            }
            UnitBody::Compound(_) => {
                let decl_file = syms.site.0;
                self.nodes.push(Node {
                    unit: unit_name,
                    path: path.clone(),
                    parent,
                    bindings,
                    kind: NodeKind::Compound {
                        children: BTreeMap::new(),
                        exports: BTreeMap::new(),
                    },
                    flatten,
                    site,
                    pub_id,
                });
                if flatten {
                    self.flatten_roots.push(node_id);
                }
                let inst_base = self.instances.len();
                let flatten_before = self.flatten_roots.len();
                let copies_before = self.stats.template_copies;
                self.stack.push(unit_name);
                let mut children = BTreeMap::new();
                for inst in &syms.insts {
                    let child_bindings: BTreeMap<Sym, BindSyms> =
                        inst.bindings.iter().copied().collect();
                    let child = self.build(
                        inst.unit,
                        format!("{path}/{}", inst.name),
                        Some(node_id),
                        child_bindings,
                        Some((decl_file, inst.span)),
                    )?;
                    children.insert(inst.name, child);
                }
                self.stack.pop();
                let mut exports = BTreeMap::new();
                for &(export, inst_sym, port) in &syms.export_binds {
                    if !children.contains_key(&inst_sym) {
                        return Err(KnitError::Unknown {
                            kind: "instance",
                            name: inst_sym.to_string(),
                            context: format!("export binding in `{unit_name}`"),
                        });
                    }
                    exports.insert(export, (inst_sym, port));
                }
                if let NodeKind::Compound { children: ch, exports: ex } =
                    &mut self.nodes[node_id].kind
                {
                    *ch = children;
                    *ex = exports;
                }
                // Register this subtree as a template for later repeats.
                if !self.templates.contains_key(&unit_name) {
                    let inst_count = self.instances.len() - inst_base;
                    let node_count = self.pub_count - pub_id;
                    let clean = self.flatten_roots.len() == flatten_before
                        && self.stats.template_copies == copies_before;
                    let root_path_len = self.nodes[node_id].path.len();
                    let stamp: Vec<(Sym, String)> = self.instances[inst_base..]
                        .iter()
                        .map(|i| (i.unit, i.path[root_path_len..].to_string()))
                        .collect();
                    let mut units_inside = BTreeSet::new();
                    self.collect_units(node_id, &mut units_inside);
                    units_inside.remove(&unit_name);
                    self.templates.insert(
                        unit_name,
                        Template {
                            src: node_id,
                            inst_base,
                            inst_count,
                            node_count,
                            units_inside,
                            clean,
                            stamp,
                            uses: None,
                            rel_nodes: None,
                            name_order: None,
                        },
                    );
                }
                Ok(node_id)
            }
        }
    }

    /// Materialize a template copy: one internal node, a stamped range of
    /// instances, and a reserved range of public node ids. Wiring is
    /// filled in during pass 2 ([`Self::stamp_copy_wires`]).
    fn stamp_copy(
        &mut self,
        unit_name: Sym,
        path: String,
        parent: Option<usize>,
        bindings: BTreeMap<Sym, BindSyms>,
        site: (Sym, Span),
    ) -> usize {
        let t = &self.templates[&unit_name];
        let (src, node_count) = (t.src, t.node_count);
        let inst_base = self.instances.len();
        let node_id = self.nodes.len();
        let pub_id = self.pub_count;
        self.pub_count += node_count;
        self.stats.template_copies += 1;
        self.stats.instances_stamped += t.inst_count;
        let stamped: Vec<ElabInstance> = t
            .stamp
            .iter()
            .enumerate()
            .map(|(i, (unit, rel))| ElabInstance {
                id: inst_base + i,
                path: format!("{path}{rel}"),
                unit: *unit,
                imports: BTreeMap::new(),
            })
            .collect();
        self.instances.extend(stamped);
        let flatten = self.infos[&unit_name].decl.flatten;
        self.nodes.push(Node {
            unit: unit_name,
            path,
            parent,
            bindings,
            kind: NodeKind::Copy { src, inst_base },
            flatten,
            site,
            pub_id,
        });
        if flatten {
            self.flatten_roots.push(node_id);
        }
        node_id
    }

    /// Pass-2 work for one template copy: translate the template's import
    /// uses, re-resolving (and re-type-checking) only the wires that
    /// escape through the template root — in exactly the order a full
    /// build would have processed them.
    fn stamp_copy_wires(&mut self, node_id: usize) -> Result<(), KnitError> {
        let unit = self.nodes[node_id].unit;
        let NodeKind::Copy { inst_base, .. } = self.nodes[node_id].kind else { unreachable!() };
        self.extract_uses(unit)?;
        let uses =
            self.templates.get_mut(&unit).expect("registered").uses.take().expect("just extracted");
        let result = (|| {
            for u in &uses {
                if !u.is_atomic {
                    continue;
                }
                let wire = match u.wire {
                    RelWire::Internal(rel, port) => {
                        Wire::Export { instance: inst_base + rel, port }
                    }
                    RelWire::ViaRoot(r) => {
                        let wire = self
                            .resolve_import(node_id, r)
                            .map_err(|e| e.at(&u.site.0, u.site.1))?;
                        self.check_wire_type_at(&wire, u.expected, inst_base + u.rel_inst, u.port)
                            .map_err(|e| e.at(&u.site.0, u.site.1))?;
                        wire
                    }
                };
                self.instances[inst_base + u.rel_inst].imports.insert(u.port, wire);
            }
            Ok(())
        })();
        self.templates.get_mut(&unit).expect("registered").uses = Some(uses);
        result
    }

    /// Extract a template's relative wiring from its (already resolved)
    /// source subtree. Idempotent; runs once per template.
    fn extract_uses(&mut self, unit: Sym) -> Result<(), KnitError> {
        if self.templates[&unit].uses.is_some() {
            return Ok(());
        }
        let t = &self.templates[&unit];
        let (src, inst_base) = (t.src, t.inst_base);
        let mut uses = Vec::new();
        self.extract_node_uses(src, src, inst_base, 0, &mut uses)?;
        self.templates.get_mut(&unit).expect("registered").uses = Some(uses);
        Ok(())
    }

    /// Walk one internal node of a template source subtree, emitting
    /// [`RelUse`]s for it (and, recursively, its descendants) in public
    /// node order. `root` is the template root; `rel_pub` is this node's
    /// public id relative to the root's.
    fn extract_node_uses(
        &self,
        node: usize,
        root: usize,
        inst_base: usize,
        rel_pub: usize,
        out: &mut Vec<RelUse>,
    ) -> Result<(), KnitError> {
        let n = &self.nodes[node];
        let info = &self.infos[&n.unit];
        match &n.kind {
            NodeKind::Atomic { inst } => {
                for &(port, expected) in &info.syms.imports {
                    let wire = self.resolve_import_rel(node, port, root)?;
                    out.push(RelUse {
                        rel_node: rel_pub,
                        port,
                        wire,
                        expected,
                        rel_inst: *inst - inst_base,
                        site: n.site,
                        is_atomic: true,
                    });
                }
            }
            NodeKind::Compound { children, .. } => {
                for &(port, expected) in &info.syms.imports {
                    let wire = self.resolve_import_rel(node, port, root)?;
                    out.push(RelUse {
                        rel_node: rel_pub,
                        port,
                        wire,
                        expected,
                        rel_inst: usize::MAX,
                        site: n.site,
                        is_atomic: false,
                    });
                }
                // Children in build (declaration) order = ascending
                // internal id = ascending public id.
                let mut kids: Vec<usize> = children.values().copied().collect();
                kids.sort_unstable();
                for k in kids {
                    let child_rel = self.nodes[k].pub_id - self.nodes[root].pub_id;
                    self.extract_node_uses(k, root, inst_base, child_rel, out)?;
                }
            }
            NodeKind::Copy { src: inner_src, inst_base: inner_base } => {
                // The copy node's own imports: its bindings resolve in the
                // outer subtree.
                for &(port, expected) in &info.syms.imports {
                    let wire = self.resolve_import_rel(node, port, root)?;
                    out.push(RelUse {
                        rel_node: rel_pub,
                        port,
                        wire,
                        expected,
                        rel_inst: usize::MAX,
                        site: n.site,
                        is_atomic: false,
                    });
                }
                // Interior: compose the inner template's uses with this
                // copy's position inside the outer subtree. (Entries for
                // the inner root itself are skipped — the loop above
                // already emitted this node's own ports.)
                let inner_unit = self.nodes[*inner_src].unit;
                let inner = &self.templates[&inner_unit];
                let inner_uses = inner.uses.as_ref().expect(
                    "inner template extracted before outer (its first copy precedes in node order)",
                );
                for u in inner_uses.iter().filter(|u| u.rel_node != 0) {
                    let wire = match u.wire {
                        RelWire::Internal(rel, port) => {
                            RelWire::Internal(*inner_base - inst_base + rel, port)
                        }
                        RelWire::ViaRoot(r) => self.resolve_import_rel(node, r, root)?,
                    };
                    out.push(RelUse {
                        rel_node: rel_pub + u.rel_node,
                        port: u.port,
                        wire,
                        expected: u.expected,
                        rel_inst: if u.is_atomic {
                            *inner_base - inst_base + u.rel_inst
                        } else {
                            usize::MAX
                        },
                        site: u.site,
                        is_atomic: u.is_atomic,
                    });
                }
            }
        }
        Ok(())
    }

    /// Like [`Self::resolve_import`], but stops at `root`: a chase that
    /// reaches one of the template root's own import ports returns
    /// [`RelWire::ViaRoot`] instead of escaping the subtree.
    fn resolve_import_rel(
        &self,
        node: usize,
        port: Sym,
        root: usize,
    ) -> Result<RelWire, KnitError> {
        if node == root {
            return Ok(RelWire::ViaRoot(port));
        }
        let n = &self.nodes[node];
        let parent = n.parent.expect("template interior nodes have parents");
        let binding = *n.bindings.get(&port).ok_or_else(|| KnitError::UnboundImport {
            instance: n.path.clone(),
            port: port.to_string(),
        })?;
        match binding {
            BindSyms::Name(x) => {
                let parent_info = &self.infos[&self.nodes[parent].unit];
                if parent_info.import_type(x).is_none() {
                    return Err(KnitError::Unknown {
                        kind: "import port",
                        name: x.to_string(),
                        context: format!(
                            "binding `{port}` of `{}` in `{}`",
                            n.path, self.nodes[parent].path
                        ),
                    });
                }
                self.resolve_import_rel(parent, x, root)
            }
            BindSyms::Dotted(inst, p) => {
                let siblings = match &self.nodes[parent].kind {
                    NodeKind::Compound { children, .. } => children,
                    _ => unreachable!("parent is a link block"),
                };
                let sib = *siblings.get(&inst).ok_or_else(|| KnitError::Unknown {
                    kind: "instance",
                    name: inst.to_string(),
                    context: format!("binding `{port}` of `{}`", n.path),
                })?;
                let (i, p2) = self.resolve_export(sib, p)?;
                let base = self.templates[&self.nodes[root].unit].inst_base;
                Ok(RelWire::Internal(i - base, p2))
            }
        }
    }

    /// Pass-3 stamping: emit the public [`NodeInfo`]s for a copy's whole
    /// subtree by translating the template's skeleton.
    fn expand_copy_nodes(
        &mut self,
        node_id: usize,
        out: &mut Vec<NodeInfo>,
    ) -> Result<(), KnitError> {
        let unit = self.nodes[node_id].unit;
        let NodeKind::Copy { inst_base, .. } = self.nodes[node_id].kind else { unreachable!() };
        self.extract_rel_nodes(unit)?;
        let rel_nodes = self
            .templates
            .get_mut(&unit)
            .expect("registered")
            .rel_nodes
            .take()
            .expect("just extracted");
        let copy_path = self.nodes[node_id].path.clone();
        let site = self.nodes[node_id].site;
        let result = (|| {
            // The copy root re-resolves every root port in its own
            // context — including ports no interior atomic uses, which can
            // surface errors exactly where a full build would.
            let mut root_imports = BTreeMap::new();
            let info = &self.infos[&unit];
            for &(p, _) in &info.syms.imports {
                root_imports
                    .insert(p, self.resolve_import(node_id, p).map_err(|e| e.at(&site.0, site.1))?);
            }
            for (rel, rn) in rel_nodes.iter().enumerate() {
                if rel == 0 {
                    let mut exports = BTreeMap::new();
                    for &(p, (ri, q)) in &rn.exports {
                        exports.insert(p, (inst_base + ri, q));
                    }
                    out.push(NodeInfo {
                        unit,
                        path: copy_path.clone(),
                        imports: root_imports.clone(),
                        exports,
                    });
                    continue;
                }
                let mut imports = BTreeMap::new();
                for &(p, w) in &rn.imports {
                    let wire = match w {
                        RelWire::Internal(ri, q) => {
                            Wire::Export { instance: inst_base + ri, port: q }
                        }
                        RelWire::ViaRoot(r) => {
                            root_imports.get(&r).expect("root ports resolved above").clone()
                        }
                    };
                    imports.insert(p, wire);
                }
                let mut exports = BTreeMap::new();
                for &(p, (ri, q)) in &rn.exports {
                    exports.insert(p, (inst_base + ri, q));
                }
                out.push(NodeInfo {
                    unit: rn.unit,
                    path: format!("{copy_path}{}", rn.rel_path),
                    imports,
                    exports,
                });
            }
            Ok(())
        })();
        self.templates.get_mut(&unit).expect("registered").rel_nodes = Some(rel_nodes);
        result
    }

    /// Extract per-node import/export skeletons for pass-3 stamping.
    /// Idempotent; needs [`Self::extract_uses`] to have run (it shares the
    /// per-port wire classification).
    fn extract_rel_nodes(&mut self, unit: Sym) -> Result<(), KnitError> {
        if self.templates[&unit].rel_nodes.is_some() {
            return Ok(());
        }
        self.extract_uses(unit)?;
        let t = &self.templates[&unit];
        let (src, inst_base, node_count) = (t.src, t.inst_base, t.node_count);
        let root_path_len = self.nodes[src].path.len();
        let src_pub = self.nodes[src].pub_id;
        let mut rel_nodes: Vec<RelNodeInfo> = (0..node_count)
            .map(|_| RelNodeInfo {
                unit,
                rel_path: String::new(),
                imports: Vec::new(),
                exports: Vec::new(),
            })
            .collect();
        // Imports come from the extracted uses (they are in public node
        // order, one entry per port).
        let uses = self.templates[&unit].uses.as_ref().expect("extracted above");
        for u in uses {
            rel_nodes[u.rel_node].imports.push((u.port, u.wire));
        }
        // Units, paths, and exports come from walking the subtree.
        self.extract_rel_exports(src, src_pub, root_path_len, inst_base, &mut rel_nodes)?;
        self.templates.get_mut(&unit).expect("registered").rel_nodes = Some(rel_nodes);
        Ok(())
    }

    fn extract_rel_exports(
        &self,
        node: usize,
        src_pub: usize,
        root_path_len: usize,
        inst_base: usize,
        out: &mut Vec<RelNodeInfo>,
    ) -> Result<(), KnitError> {
        let n = &self.nodes[node];
        let rel = n.pub_id - src_pub;
        out[rel].unit = n.unit;
        out[rel].rel_path = n.path[root_path_len..].to_string();
        let info = &self.infos[&n.unit];
        for &(p, _) in &info.syms.exports {
            let (i, q) = self.resolve_export(node, p)?;
            out[rel].exports.push((p, (i - inst_base, q)));
        }
        match &n.kind {
            NodeKind::Atomic { .. } => {}
            NodeKind::Compound { children, .. } => {
                let mut kids: Vec<usize> = children.values().copied().collect();
                kids.sort_unstable();
                for k in kids {
                    self.extract_rel_exports(k, src_pub, root_path_len, inst_base, out)?;
                }
            }
            NodeKind::Copy { src: inner_src, inst_base: inner_base } => {
                // Interior of a nested copy: translate the inner
                // template's skeleton (already extracted — its first copy
                // precedes this subtree in node order). The copy node's own
                // slot was fully handled by the generic code above
                // (`resolve_export` delegates through `Copy` nodes).
                let inner_unit = self.nodes[*inner_src].unit;
                let inner = &self.templates[&inner_unit];
                let inner_nodes =
                    inner.rel_nodes.as_ref().expect("inner template expanded before outer");
                let inner_rel_base = *inner_base - inst_base;
                let copy_rel_path = &n.path[root_path_len..];
                for (j, irn) in inner_nodes.iter().enumerate().skip(1) {
                    let slot = &mut out[rel + j];
                    slot.unit = irn.unit;
                    slot.rel_path = format!("{copy_rel_path}{}", irn.rel_path);
                    for &(p, (ri, q)) in &irn.exports {
                        slot.exports.push((p, (inner_rel_base + ri, q)));
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve one of `node`'s own import ports to a wire.
    fn resolve_import(&self, node: usize, port: Sym) -> Result<Wire, KnitError> {
        let n = &self.nodes[node];
        match n.parent {
            None => Ok(Wire::External { port }),
            Some(parent) => {
                let binding = *n.bindings.get(&port).ok_or_else(|| KnitError::UnboundImport {
                    instance: n.path.clone(),
                    port: port.to_string(),
                })?;
                match binding {
                    BindSyms::Name(x) => {
                        // parent's own import
                        let parent_info = &self.infos[&self.nodes[parent].unit];
                        if parent_info.import_type(x).is_none() {
                            return Err(KnitError::Unknown {
                                kind: "import port",
                                name: x.to_string(),
                                context: format!(
                                    "binding `{port}` of `{}` in `{}`",
                                    n.path, self.nodes[parent].path
                                ),
                            });
                        }
                        self.resolve_import(parent, x)
                    }
                    BindSyms::Dotted(inst, p) => {
                        let siblings = match &self.nodes[parent].kind {
                            NodeKind::Compound { children, .. } => children,
                            _ => unreachable!("parent is a link block"),
                        };
                        let sib = *siblings.get(&inst).ok_or_else(|| KnitError::Unknown {
                            kind: "instance",
                            name: inst.to_string(),
                            context: format!("binding `{port}` of `{}`", n.path),
                        })?;
                        let (i, p2) = self.resolve_export(sib, p)?;
                        Ok(Wire::Export { instance: i, port: p2 })
                    }
                }
            }
        }
    }

    /// Resolve one of `node`'s export ports to an atomic (instance, port).
    fn resolve_export(&self, node: usize, port: Sym) -> Result<(usize, Sym), KnitError> {
        let n = &self.nodes[node];
        let info = &self.infos[&n.unit];
        if info.export_type(port).is_none() {
            return Err(KnitError::Unknown {
                kind: "export port",
                name: port.to_string(),
                context: format!("unit `{}` (at `{}`)", n.unit, n.path),
            });
        }
        match &n.kind {
            NodeKind::Atomic { inst } => Ok((*inst, port)),
            NodeKind::Compound { children, exports } => {
                let (child_name, child_port) =
                    exports.get(&port).expect("validated at registration");
                let child = children[child_name];
                self.resolve_export(child, *child_port)
            }
            NodeKind::Copy { src, inst_base } => {
                let (src_inst, p) = self.resolve_export(*src, port)?;
                let t_base = self.templates[&n.unit].inst_base;
                Ok((inst_base + (src_inst - t_base), p))
            }
        }
    }

    /// Bundle-type check for a resolved wire against the importing port.
    fn check_wire_type(
        &self,
        wire: &Wire,
        expected: Sym,
        node: usize,
        port: Sym,
    ) -> Result<(), KnitError> {
        let NodeKind::Atomic { inst } = self.nodes[node].kind else { unreachable!() };
        self.check_wire_type_at(wire, expected, inst, port)
    }

    fn check_wire_type_at(
        &self,
        wire: &Wire,
        expected: Sym,
        inst: usize,
        port: Sym,
    ) -> Result<(), KnitError> {
        let found = match wire {
            Wire::External { port: root_port } => {
                let root_info = &self.infos[&self.nodes[0].unit];
                root_info.import_type(*root_port).unwrap_or(expected)
            }
            Wire::Export { instance, port: export_port } => {
                let provider = &self.infos[&self.instances[*instance].unit];
                provider.export_type(*export_port).expect("resolved export exists")
            }
        };
        if found != expected {
            return Err(KnitError::BundleTypeMismatch {
                instance: self.instances[inst].path.clone(),
                port: port.to_string(),
                expected: expected.to_string(),
                found: found.to_string(),
            });
        }
        Ok(())
    }

    fn has_flatten_ancestor(&self, node: usize) -> bool {
        let mut cur = self.nodes[node].parent;
        while let Some(p) = cur {
            if self.nodes[p].flatten {
                return true;
            }
            cur = self.nodes[p].parent;
        }
        false
    }

    fn collect_atomics(&mut self, node: usize, out: &mut Vec<usize>) {
        match &self.nodes[node].kind {
            NodeKind::Atomic { inst } => out.push(*inst),
            NodeKind::Compound { children, .. } => {
                let kids: Vec<usize> = children.values().copied().collect();
                for c in kids {
                    self.collect_atomics(c, out);
                }
            }
            NodeKind::Copy { src, inst_base } => {
                let (src, inst_base) = (*src, *inst_base);
                let unit = self.nodes[src].unit;
                if self.templates[&unit].name_order.is_none() {
                    let mut rel = Vec::new();
                    let base = self.templates[&unit].inst_base;
                    self.collect_atomics_src(src, base, &mut rel);
                    self.templates.get_mut(&unit).expect("registered").name_order = Some(rel);
                }
                let order = self.templates[&unit].name_order.clone().expect("set above");
                out.extend(order.iter().map(|&r| inst_base + r));
            }
        }
    }

    /// `collect_atomics` over a template source subtree, emitting ids
    /// relative to the template's instance base.
    fn collect_atomics_src(&self, node: usize, base: usize, out: &mut Vec<usize>) {
        match &self.nodes[node].kind {
            NodeKind::Atomic { inst } => out.push(*inst - base),
            NodeKind::Compound { children, .. } => {
                for &c in children.values() {
                    self.collect_atomics_src(c, base, out);
                }
            }
            NodeKind::Copy { src, inst_base } => {
                let unit = self.nodes[*src].unit;
                // Nested copies: the inner template's name order, shifted.
                let inner_base = self.templates[&unit].inst_base;
                let mut rel = Vec::new();
                self.collect_atomics_src(*src, inner_base, &mut rel);
                out.extend(rel.iter().map(|&r| *inst_base - base + r));
            }
        }
    }

    /// All unit names instantiated anywhere under `node` (for template
    /// eligibility against the instantiation stack).
    fn collect_units(&self, node: usize, out: &mut BTreeSet<Sym>) {
        let n = &self.nodes[node];
        out.insert(n.unit);
        match &n.kind {
            NodeKind::Atomic { .. } => {}
            NodeKind::Compound { children, .. } => {
                for &c in children.values() {
                    self.collect_units(c, out);
                }
            }
            NodeKind::Copy { src, .. } => {
                let unit = self.nodes[*src].unit;
                out.insert(unit);
                out.extend(self.templates[&unit].units_inside.iter().copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        let mut p = Program::new();
        p.load_str("t.unit", src).unwrap();
        p
    }

    const FIG5: &str = r#"
        bundletype Serve = { serve_web }
        bundletype Stdio = { fopen, fprintf }
        unit Web = {
            imports [ serveFile : Serve, serveCGI : Serve ];
            exports [ serveWeb : Serve ];
            files { "web.c" };
        }
        unit Log = {
            imports [ serveWeb : Serve, stdio : Stdio ];
            exports [ serveLog : Serve ];
            files { "log.c" };
        }
        unit LogServe = {
            imports [ serveFile : Serve, serveCGI : Serve, stdio : Stdio ];
            exports [ serveLog : Serve ];
            link {
                web : Web [ serveFile = serveFile, serveCGI = serveCGI ];
                log : Log [ serveWeb = web.serveWeb, stdio = stdio ];
                serveLog = log.serveLog;
            };
        }
    "#;

    #[test]
    fn elaborates_figure5() {
        let p = program(FIG5);
        let el = elaborate(&p, "LogServe").unwrap();
        assert_eq!(el.instances.len(), 2);
        let web = el.first_instance("Web").unwrap();
        let log = el.first_instance("Log").unwrap();
        // web's imports are external (root imports)
        assert_eq!(web.imports["serveFile"], Wire::External { port: "serveFile".into() });
        // log's serveWeb is wired to web's export
        assert_eq!(
            log.imports["serveWeb"],
            Wire::Export { instance: web.id, port: "serveWeb".into() }
        );
        // root export resolves through the compound to log
        assert_eq!(el.root_exports["serveLog"], (log.id, Sym::new("serveLog")));
        assert_eq!(el.root_imports.len(), 3);
    }

    #[test]
    fn multiple_instantiation_gets_distinct_instances() {
        let src = r#"
            bundletype T = { f }
            unit Leaf = { exports [ out : T ]; files { "leaf.c" }; }
            unit Two = {
                exports [ a : T, b : T ];
                link {
                    one : Leaf;
                    two : Leaf;
                    a = one.out;
                    b = two.out;
                };
            }
        "#;
        let el = elaborate(&program(src), "Two").unwrap();
        assert_eq!(el.instances.len(), 2);
        assert_ne!(el.root_exports["a"], el.root_exports["b"]);
    }

    #[test]
    fn cyclic_sibling_imports_are_fine() {
        // a imports from b and b imports from a — §3.2 says cycles are
        // common and must work.
        let src = r#"
            bundletype T = { f }
            unit A = { imports [ x : T ]; exports [ y : T ]; files { "a.c" }; }
            unit B = { imports [ x : T ]; exports [ y : T ]; files { "b.c" }; }
            unit Cycle = {
                exports [ out : T ];
                link {
                    a : A [ x = b.y ];
                    b : B [ x = a.y ];
                    out = a.y;
                };
            }
        "#;
        let el = elaborate(&program(src), "Cycle").unwrap();
        assert_eq!(el.instances.len(), 2);
        let a = el.first_instance("A").unwrap();
        let b = el.first_instance("B").unwrap();
        assert_eq!(a.imports["x"], Wire::Export { instance: b.id, port: "y".into() });
        assert_eq!(b.imports["x"], Wire::Export { instance: a.id, port: "y".into() });
    }

    #[test]
    fn nested_compounds_resolve_through_aliases() {
        let src = r#"
            bundletype T = { f }
            unit Leaf = { exports [ out : T ]; files { "leaf.c" }; }
            unit Mid = {
                exports [ mout : T ];
                link { l : Leaf; mout = l.out; };
            }
            unit Top = {
                exports [ tout : T ];
                link { m : Mid; tout = m.mout; };
            }
        "#;
        let el = elaborate(&program(src), "Top").unwrap();
        assert_eq!(el.instances.len(), 1);
        assert_eq!(el.root_exports["tout"], (0, Sym::new("out")));
        assert_eq!(el.instances[0].path, "Top/m/l");
    }

    #[test]
    fn interposition_figure_1c() {
        // The logger wraps the worker: same bundle type on both sides —
        // impossible with ld, trivial with units.
        let src = r#"
            bundletype T = { f }
            unit Worker = { exports [ out : T ]; files { "w.c" }; }
            unit Wrap = { imports [ inner : T ]; exports [ out : T ]; files { "wrap.c" }; }
            unit Sys = {
                exports [ svc : T ];
                link {
                    w : Worker;
                    i : Wrap [ inner = w.out ];
                    svc = i.out;
                };
            }
        "#;
        let el = elaborate(&program(src), "Sys").unwrap();
        let wrap = el.first_instance("Wrap").unwrap();
        let worker = el.first_instance("Worker").unwrap();
        assert_eq!(wrap.imports["inner"], Wire::Export { instance: worker.id, port: "out".into() });
        assert_eq!(el.root_exports["svc"], (wrap.id, Sym::new("out")));
    }

    #[test]
    fn errors_unbound_import() {
        let src = r#"
            bundletype T = { f }
            unit N = { imports [ x : T ]; exports [ y : T ]; files { "n.c" }; }
            unit Bad = { exports [ out : T ]; link { n : N; out = n.y; }; }
        "#;
        let err = elaborate(&program(src), "Bad").unwrap_err();
        assert!(matches!(err.root(), KnitError::UnboundImport { .. }), "{err:?}");
        // the location wrapper points at the `n : N;` instantiation line
        assert!(err.span().is_some(), "wiring errors carry a span: {err:?}");
    }

    #[test]
    fn errors_bundle_type_mismatch() {
        let src = r#"
            bundletype T = { f }
            bundletype U = { g }
            unit P = { exports [ y : U ]; files { "p.c" }; }
            unit N = { imports [ x : T ]; exports [ y : T ]; files { "n.c" }; }
            unit Bad = {
                exports [ out : T ];
                link { p : P; n : N [ x = p.y ]; out = n.y; };
            }
        "#;
        let err = elaborate(&program(src), "Bad").unwrap_err();
        assert!(matches!(err.root(), KnitError::BundleTypeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn errors_recursive_instantiation() {
        let src = r#"
            bundletype T = { f }
            unit Selfish = {
                exports [ out : T ];
                link { s : Selfish; out = s.out; };
            }
        "#;
        assert!(elaborate(&program(src), "Selfish").is_err());
    }

    #[test]
    fn errors_unknown_unit_and_instance() {
        let src = r#"
            bundletype T = { f }
            unit Bad = { exports [ out : T ]; link { n : Nope; out = n.y; }; }
        "#;
        let err = elaborate(&program(src), "Bad").unwrap_err();
        assert!(matches!(err.root(), KnitError::Unknown { .. }), "{err:?}");
        let src2 = r#"
            bundletype T = { f }
            unit Leaf = { exports [ out : T ]; files { "l.c" }; }
            unit Bad2 = { exports [ o : T ]; link { l : Leaf; o = ghost.out; }; }
        "#;
        let err2 = elaborate(&program(src2), "Bad2").unwrap_err();
        assert!(matches!(err2.root(), KnitError::Unknown { .. }), "{err2:?}");
    }

    #[test]
    fn flatten_groups_collect_outermost() {
        let src = r#"
            bundletype T = { f }
            unit Leaf = { exports [ out : T ]; files { "l.c" }; }
            unit Inner = {
                exports [ o : T ];
                link { l : Leaf; o = l.out; };
                flatten;
            }
            unit Outer = {
                exports [ o : T ];
                link { i : Inner; l2 : Leaf; o = i.o; };
                flatten;
            }
            unit Top = {
                exports [ o : T ];
                link { x : Outer; o = x.o; };
            }
        "#;
        let el = elaborate(&program(src), "Top").unwrap();
        // only the outermost group (Outer) is kept, containing both leaves
        assert_eq!(el.flatten_groups.len(), 1);
        assert_eq!(el.flatten_groups[0].len(), 2);
    }

    /// A compound with a whole interior chain, instantiated three times
    /// with different root wiring: copies 2 and 3 are stamped from the
    /// template, yet every instance/node/wire must match what a full
    /// build produces.
    const GROUPS: &str = r#"
        bundletype T = { f }
        unit Src = { exports [ out : T ]; files { "s.c" }; }
        unit Stage = { imports [ inp : T ]; exports [ out : T ]; files { "st.c" }; }
        unit Group = {
            imports [ feed : T ];
            exports [ svc : T ];
            link {
                a : Stage [ inp = feed ];
                b : Stage [ inp = a.out ];
                svc = b.out;
            };
        }
        unit Sys = {
            exports [ m : T ];
            link {
                s1 : Src;
                s2 : Src;
                g1 : Group [ feed = s1.out ];
                g2 : Group [ feed = s2.out ];
                g3 : Group [ feed = g1.svc ];
                m = g3.svc;
            };
        }
    "#;

    #[test]
    fn template_copies_are_stamped() {
        let el = elaborate(&program(GROUPS), "Sys").unwrap();
        assert_eq!(el.stats.template_copies, 2, "{:?}", el.stats);
        assert_eq!(el.stats.instances_stamped, 4, "{:?}", el.stats);
        assert_eq!(el.instances.len(), 8);
        // Paths and per-copy wiring: g1 feeds from s1, g2 from s2, g3
        // from g1's exit stage.
        let ids = el.instances_of("Stage");
        assert_eq!(ids.len(), 6);
        let by_path = |p: &str| el.instances.iter().find(|i| i.path == p).unwrap();
        let s1 = by_path("Sys/s1");
        let s2 = by_path("Sys/s2");
        let g1a = by_path("Sys/g1/a");
        let g1b = by_path("Sys/g1/b");
        let g2a = by_path("Sys/g2/a");
        let g3a = by_path("Sys/g3/a");
        assert_eq!(g1a.imports["inp"], Wire::Export { instance: s1.id, port: "out".into() });
        assert_eq!(g2a.imports["inp"], Wire::Export { instance: s2.id, port: "out".into() });
        assert_eq!(g3a.imports["inp"], Wire::Export { instance: g1b.id, port: "out".into() });
        // Interior wiring of a stamped copy.
        let g2b = by_path("Sys/g2/b");
        assert_eq!(g2b.imports["inp"], Wire::Export { instance: g2a.id, port: "out".into() });
        // Public nodes cover every copy interior, in path order per subtree.
        assert_eq!(el.nodes.len(), 1 + 2 + 3 * 3);
        let g2_node = el.nodes.iter().find(|n| n.path == "Sys/g2").unwrap();
        assert_eq!(g2_node.unit, "Group");
        assert_eq!(g2_node.exports["svc"], (g2b.id, Sym::new("out")));
        // Root export chases through a stamped copy (g3).
        let g3b = by_path("Sys/g3/b");
        assert_eq!(el.root_exports["m"], (g3b.id, Sym::new("out")));
    }

    #[test]
    fn template_copy_errors_match_full_build() {
        // A copy whose root binding is bad must produce the same error a
        // full build would (discovered when the interior wire resolves).
        let src = r#"
            bundletype T = { f }
            unit Src = { exports [ out : T ]; files { "s.c" }; }
            unit Box = {
                imports [ feed : T ];
                exports [ svc : T ];
                link { a : Src; svc = a.out; };
            }
            unit Sys = {
                exports [ m : T ];
                link {
                    s : Src;
                    b1 : Box [ feed = s.out ];
                    b2 : Box [ feed = ghost.out ];
                    m = b1.svc;
                };
            }
        "#;
        let err = elaborate(&program(src), "Sys").unwrap_err();
        assert!(matches!(err.root(), KnitError::Unknown { .. }), "{err:?}");
    }

    #[test]
    fn flatten_inside_template_falls_back() {
        // Interior flatten roots make a template ineligible: repeats are
        // rebuilt so flatten grouping stays exact.
        let src = r#"
            bundletype T = { f }
            unit Leaf = { exports [ out : T ]; files { "l.c" }; }
            unit FlatBox = {
                exports [ o : T ];
                link { l : Leaf; o = l.out; };
                flatten;
            }
            unit Wrap = {
                exports [ o : T ];
                link { f1 : FlatBox; o = f1.o; };
            }
            unit Sys = {
                exports [ m : T ];
                link { w1 : Wrap; w2 : Wrap; m = w1.o; };
            }
        "#;
        let el = elaborate(&program(src), "Sys").unwrap();
        // Wrap is never stamped (its subtree registers a flatten root), so
        // w2 is rebuilt in full — but the interior FlatBox *is* cleanly
        // stampable, so exactly its one leaf instance is stamped.
        assert_eq!(el.stats.template_copies, 1, "{:?}", el.stats);
        assert_eq!(el.stats.instances_stamped, 1, "{:?}", el.stats);
        assert_eq!(el.flatten_groups.len(), 2);
        assert_eq!(el.flatten_groups[0].len(), 1);
        assert_eq!(el.flatten_groups[1].len(), 1);
        assert_ne!(el.flatten_groups[0], el.flatten_groups[1]);
        // But a flatten root *as* the template unit itself is fine.
        let src2 = r#"
            bundletype T = { f }
            unit Leaf = { exports [ out : T ]; files { "l.c" }; }
            unit FlatBox = {
                exports [ o : T ];
                link { l : Leaf; x : Leaf; o = l.out; };
                flatten;
            }
            unit Sys = {
                exports [ m : T ];
                link { w1 : FlatBox; w2 : FlatBox; m = w1.o; };
            }
        "#;
        let el2 = elaborate(&program(src2), "Sys").unwrap();
        assert_eq!(el2.stats.template_copies, 1, "{:?}", el2.stats);
        assert_eq!(el2.flatten_groups.len(), 2);
        assert_eq!(el2.flatten_groups[0].len(), 2);
        assert_eq!(el2.flatten_groups[1].len(), 2);
        assert_ne!(el2.flatten_groups[0], el2.flatten_groups[1]);
    }

    #[test]
    fn nested_template_copies_compose() {
        // Pair contains two copies of Group; Sys contains two copies of
        // Pair — the second Pair stamps a template whose interior itself
        // contains a stamped copy.
        let src = r#"
            bundletype T = { f }
            unit Src = { exports [ out : T ]; files { "s.c" }; }
            unit Stage = { imports [ inp : T ]; exports [ out : T ]; files { "st.c" }; }
            unit Group = {
                imports [ feed : T ];
                exports [ svc : T ];
                link { a : Stage [ inp = feed ]; svc = a.out; };
            }
            unit Pair = {
                imports [ feed : T ];
                exports [ svc : T ];
                link {
                    g1 : Group [ feed = feed ];
                    g2 : Group [ feed = g1.svc ];
                    svc = g2.svc;
                };
            }
            unit Sys = {
                exports [ m : T ];
                link {
                    s : Src;
                    p1 : Pair [ feed = s.out ];
                    p2 : Pair [ feed = p1.svc ];
                    m = p2.svc;
                };
            }
        "#;
        let el = elaborate(&program(src), "Sys").unwrap();
        assert_eq!(el.instances.len(), 5);
        assert!(el.stats.template_copies >= 2, "{:?}", el.stats);
        let by_path = |p: &str| el.instances.iter().find(|i| i.path == p).unwrap();
        let p1g2a = by_path("Sys/p1/g2/a");
        let p2g1a = by_path("Sys/p2/g1/a");
        let p2g2a = by_path("Sys/p2/g2/a");
        // The nested copy inside the stamped Pair wires to its sibling
        // inside the same Pair, not to p1's.
        assert_eq!(p2g2a.imports["inp"], Wire::Export { instance: p2g1a.id, port: "out".into() });
        // And p2's feed chases back to p1's exit.
        assert_eq!(p2g1a.imports["inp"], Wire::Export { instance: p1g2a.id, port: "out".into() });
        assert_eq!(el.root_exports["m"], (p2g2a.id, Sym::new("out")));
        // Node info covers all interiors with correct paths.
        assert_eq!(el.nodes.len(), 1 + 1 + 2 * 5);
        assert!(el.nodes.iter().any(|n| n.path == "Sys/p2/g2" && n.unit == "Group"));
    }
}
