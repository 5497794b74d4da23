//! The semantic model: a program is the set of declarations visible to one
//! build — bundle types, flag sets, properties with their value posets, and
//! unit definitions.

use std::collections::{BTreeMap, BTreeSet};

use knit_lang::ast::{Decl, KnitFile, UnitDecl};
use knit_lang::token::Span;

use crate::error::KnitError;
use crate::intern::Sym;

/// A partial order over a property's declared values.
///
/// `type ProcessContext < NoContext` declares ProcessContext strictly below
/// NoContext ("NoContext is more general", §4). The order is the reflexive
/// transitive closure of the declared edges.
#[derive(Debug, Clone, Default)]
pub struct Poset {
    values: Vec<String>,
    /// `leq[a]` = the set of values `b` with `a <= b` (including `a`).
    leq: BTreeMap<String, BTreeSet<String>>,
}

impl Poset {
    /// Declare a value, optionally below existing values.
    pub fn add_value(&mut self, name: &str, below: &[String]) -> Result<(), KnitError> {
        if self.leq.contains_key(name) {
            return Err(KnitError::Duplicate { kind: "property value", name: name.to_string() });
        }
        let mut ups: BTreeSet<String> = BTreeSet::new();
        ups.insert(name.to_string());
        for b in below {
            let b_ups = self.leq.get(b).ok_or_else(|| KnitError::Unknown {
                kind: "property value",
                name: b.clone(),
                context: format!("declaring `{name}`"),
            })?;
            ups.extend(b_ups.iter().cloned());
        }
        self.values.push(name.to_string());
        self.leq.insert(name.to_string(), ups);
        Ok(())
    }

    /// Is `a <= b`?
    pub fn leq(&self, a: &str, b: &str) -> bool {
        self.leq.get(a).map(|ups| ups.contains(b)).unwrap_or(false)
    }

    /// Whether `v` is a declared value.
    pub fn contains(&self, v: &str) -> bool {
        self.leq.contains_key(v)
    }

    /// All declared values, in declaration order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Greatest lower bound of `a` and `b`, if a unique one exists.
    pub fn meet(&self, a: &str, b: &str) -> Option<String> {
        if self.leq(a, b) {
            return Some(a.to_string());
        }
        if self.leq(b, a) {
            return Some(b.to_string());
        }
        // maximal common lower bounds
        let lowers: Vec<&String> =
            self.values.iter().filter(|v| self.leq(v, a) && self.leq(v, b)).collect();
        let maximal: Vec<&&String> =
            lowers.iter().filter(|v| !lowers.iter().any(|w| *w != **v && self.leq(v, w))).collect();
        if maximal.len() == 1 {
            Some((**maximal[0]).clone())
        } else {
            None
        }
    }

    /// Least upper bound of `a` and `b`, if a unique one exists.
    pub fn join(&self, a: &str, b: &str) -> Option<String> {
        if self.leq(a, b) {
            return Some(b.to_string());
        }
        if self.leq(b, a) {
            return Some(a.to_string());
        }
        let uppers: Vec<&String> =
            self.values.iter().filter(|v| self.leq(a, v) && self.leq(b, v)).collect();
        let minimal: Vec<&&String> =
            uppers.iter().filter(|v| !uppers.iter().any(|w| *w != **v && self.leq(w, v))).collect();
        if minimal.len() == 1 {
            Some((**minimal[0]).clone())
        } else {
            None
        }
    }
}

/// All declarations visible to one build.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Bundle types: name → member names.
    pub bundletypes: BTreeMap<String, Vec<String>>,
    /// Flag sets: name → flags.
    pub flags: BTreeMap<String, Vec<String>>,
    /// Properties: name → value poset.
    pub properties: BTreeMap<String, Poset>,
    /// Which property each value belongs to.
    pub value_property: BTreeMap<String, String>,
    /// Unit declarations by name.
    pub units: BTreeMap<String, UnitDecl>,
    /// Where each unit was declared: name → (file, position). Used to
    /// attach source spans to elaboration and constraint diagnostics.
    pub unit_sites: BTreeMap<String, (String, Span)>,
    /// Interned per-unit symbol tables, built once at registration and
    /// reused by every elaboration (DESIGN.md §13). Keyed like `units`.
    pub syms: BTreeMap<String, UnitSyms>,
}

/// The interned names of one unit declaration: ports, link-block
/// instantiations, and export bindings, in declaration order. Building
/// these once per registered unit keeps `Sym::new` (a global-table probe)
/// off the per-elaboration hot path — a session re-elaborating a 10k-unit
/// program pays for interning once, not once per rebuild.
#[derive(Debug, Clone)]
pub struct UnitSyms {
    /// The unit's own name.
    pub name: Sym,
    /// `(port, bundle type)` for each import, declaration order.
    pub imports: Vec<(Sym, Sym)>,
    /// `(port, bundle type)` for each export, declaration order.
    pub exports: Vec<(Sym, Sym)>,
    /// Link-block instantiations (empty for atomic units).
    pub insts: Vec<InstSyms>,
    /// Compound export bindings: `(export, instance, port)`.
    pub export_binds: Vec<(Sym, Sym, Sym)>,
    /// Where the unit was declared: `(file, position)`.
    pub site: (Sym, Span),
}

/// One interned `name : Unit [ bindings ]` instantiation.
#[derive(Debug, Clone)]
pub struct InstSyms {
    /// Instance name, local to the link block.
    pub name: Sym,
    /// The unit being instantiated.
    pub unit: Sym,
    /// Bindings for the instantiated unit's imports.
    pub bindings: Vec<(Sym, BindSyms)>,
    /// Source span of the instantiation, for diagnostics.
    pub span: Span,
}

/// An interned [`knit_lang::ast::PathRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindSyms {
    /// A bare name: one of the compound unit's own imports.
    Name(Sym),
    /// `instance.port`: an export of a sibling instance.
    Dotted(Sym, Sym),
}

impl UnitSyms {
    fn build(u: &UnitDecl, file: &str) -> UnitSyms {
        let ports = |ps: &[knit_lang::ast::Port]| {
            ps.iter().map(|p| (Sym::new(&p.name), Sym::new(&p.bundle_type))).collect()
        };
        let mut insts = Vec::new();
        let mut export_binds = Vec::new();
        if let knit_lang::ast::UnitBody::Compound(c) = &u.body {
            for i in &c.instances {
                let bindings = i
                    .bindings
                    .iter()
                    .map(|(port, r)| {
                        let t = match r {
                            knit_lang::ast::PathRef::Name(x) => BindSyms::Name(Sym::new(x)),
                            knit_lang::ast::PathRef::Dotted(inst, p) => {
                                BindSyms::Dotted(Sym::new(inst), Sym::new(p))
                            }
                        };
                        (Sym::new(port), t)
                    })
                    .collect();
                insts.push(InstSyms {
                    name: Sym::new(&i.name),
                    unit: Sym::new(&i.unit),
                    bindings,
                    span: i.span,
                });
            }
            for e in &c.export_bindings {
                export_binds.push((Sym::new(&e.export), Sym::new(&e.instance), Sym::new(&e.port)));
            }
        }
        UnitSyms {
            name: Sym::new(&u.name),
            imports: ports(&u.imports),
            exports: ports(&u.exports),
            insts,
            export_binds,
            site: (Sym::new(file), u.span),
        }
    }
}

/// The interned symbol tables of `kf`'s unit declarations, in order.
fn file_syms(kf: &KnitFile) -> Vec<UnitSyms> {
    kf.decls
        .iter()
        .filter_map(|d| match d {
            Decl::Unit(u) => Some(UnitSyms::build(u, &kf.file)),
            _ => None,
        })
        .collect()
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Parse and register a `.unit` source string.
    pub fn load_str(&mut self, file: &str, src: &str) -> Result<(), KnitError> {
        let kf = knit_lang::parse(file, src)?;
        self.register(kf)
    }

    /// Parse many `.unit` sources and intern their units' names on up to
    /// `jobs` scoped threads, then register them serially in input order.
    /// Equivalent to calling [`Program::load_str`] on each `(file, src)`
    /// pair in order — same declarations, same first error — but parsing
    /// and interning (the dominant costs on large corpora) run in parallel
    /// with a deterministic merge.
    pub fn load_many(&mut self, files: &[(String, String)], jobs: usize) -> Result<(), KnitError> {
        let parsed = crate::driver::run_indexed(jobs, files.len(), |i| {
            knit_lang::parse(&files[i].0, &files[i].1)
        });
        // A second pass, so the symbol tables do not interleave with the
        // ASTs in memory: every later fingerprint walks the ASTs.
        let syms = crate::driver::run_indexed(jobs, parsed.len(), |i| match &parsed[i] {
            Ok(kf) => file_syms(kf),
            Err(_) => Vec::new(),
        });
        for (kf, syms) in parsed.into_iter().zip(syms) {
            self.register_impl(kf?, false, syms)?;
        }
        Ok(())
    }

    /// Parse and **re**-register a `.unit` source string: declarations
    /// whose names already exist *replace* the old ones instead of raising
    /// a duplicate error. See [`Program::redefine`].
    pub fn update_str(&mut self, file: &str, src: &str) -> Result<(), KnitError> {
        let kf = knit_lang::parse(file, src)?;
        self.redefine(kf)
    }

    /// Register a parsed file's declarations. Names that already exist are
    /// duplicate errors.
    pub fn register(&mut self, kf: KnitFile) -> Result<(), KnitError> {
        let syms = file_syms(&kf);
        self.register_impl(kf, false, syms)
    }

    /// Re-register a parsed file's declarations, replacing same-named
    /// existing ones (units, bundletypes, flag sets; redefining a
    /// `property` replaces the property and all its values). Removing a
    /// declaration is not supported — start a fresh [`Program`] for that.
    ///
    /// The change is transactional: every unit in the program is
    /// re-validated against the updated declarations, and on any error the
    /// program is left unchanged.
    pub fn redefine(&mut self, kf: KnitFile) -> Result<(), KnitError> {
        let mut next = self.clone();
        let syms = file_syms(&kf);
        next.register_impl(kf, true, syms)?;
        for u in next.units.values() {
            next.validate_unit(u)?;
        }
        *self = next;
        Ok(())
    }

    /// Register `kf`'s declarations; `syms` holds [`file_syms`] of `kf`,
    /// one table per unit declaration in order.
    fn register_impl(
        &mut self,
        kf: KnitFile,
        replace: bool,
        syms: Vec<UnitSyms>,
    ) -> Result<(), KnitError> {
        let file = kf.file.clone();
        let mut syms = syms.into_iter();
        let mut current_property: Option<String> = None;
        for d in kf.decls {
            match d {
                Decl::BundleType(b) => {
                    if !replace && self.bundletypes.contains_key(&b.name) {
                        return Err(KnitError::Duplicate { kind: "bundletype", name: b.name });
                    }
                    let mut seen = BTreeSet::new();
                    for m in &b.members {
                        if !seen.insert(m.as_str()) {
                            return Err(KnitError::Duplicate {
                                kind: "bundle member",
                                name: format!("{}.{}", b.name, m),
                            });
                        }
                    }
                    self.bundletypes.insert(b.name, b.members);
                }
                Decl::Flags(f) => {
                    if !replace && self.flags.contains_key(&f.name) {
                        return Err(KnitError::Duplicate { kind: "flags", name: f.name });
                    }
                    self.flags.insert(f.name, f.flags);
                }
                Decl::Property(p) => {
                    if self.properties.contains_key(&p.name) {
                        if !replace {
                            return Err(KnitError::Duplicate { kind: "property", name: p.name });
                        }
                        // redefinition replaces the property wholesale
                        self.properties.remove(&p.name);
                        self.value_property.retain(|_, prop| prop != &p.name);
                    }
                    self.properties.insert(p.name.clone(), Poset::default());
                    current_property = Some(p.name);
                }
                Decl::PropValue(v) => {
                    let prop = current_property.clone().ok_or(KnitError::Unknown {
                        kind: "property",
                        name: "<none>".to_string(),
                        context: format!("`type {}` before any `property`", v.name),
                    })?;
                    if self.value_property.contains_key(&v.name) {
                        return Err(KnitError::Duplicate { kind: "property value", name: v.name });
                    }
                    self.properties
                        .get_mut(&prop)
                        .expect("current property registered")
                        .add_value(&v.name, &v.below)?;
                    self.value_property.insert(v.name, prop);
                }
                Decl::Unit(u) => {
                    let unit_syms = syms.next().expect("one symbol table per unit");
                    if !replace && self.units.contains_key(&u.name) {
                        return Err(KnitError::Duplicate { kind: "unit", name: u.name });
                    }
                    self.validate_unit(&u)?;
                    self.unit_sites.insert(u.name.clone(), (file.clone(), u.span));
                    self.syms.insert(u.name.clone(), unit_syms);
                    self.units.insert(u.name.clone(), *u);
                }
            }
        }
        Ok(())
    }

    /// Where `unit` was declared: `(file, position)`, when it was
    /// registered through [`Program::load_str`]/[`Program::register`].
    pub fn unit_site(&self, unit: &str) -> Option<(&str, Span)> {
        self.unit_sites.get(unit).map(|(f, s)| (f.as_str(), *s))
    }

    /// Members of a port's bundle type.
    pub fn members_of(&self, bundletype: &str) -> Option<&[String]> {
        self.bundletypes.get(bundletype).map(|v| v.as_slice())
    }

    /// Structural validation of a unit against registered declarations.
    fn validate_unit(&self, u: &UnitDecl) -> Result<(), KnitError> {
        use knit_lang::ast::{DepAtom, DepSide, UnitBody};
        let mut port_names: BTreeSet<&str> = BTreeSet::new();
        for p in u.imports.iter().chain(u.exports.iter()) {
            if !self.bundletypes.contains_key(&p.bundle_type) {
                return Err(KnitError::Unknown {
                    kind: "bundletype",
                    name: p.bundle_type.clone(),
                    context: format!("unit `{}` port `{}`", u.name, p.name),
                });
            }
            if !port_names.insert(&p.name) {
                return Err(KnitError::Duplicate {
                    kind: "port",
                    name: format!("{}.{}", u.name, p.name),
                });
            }
        }
        let import_names: BTreeSet<&str> = u.imports.iter().map(|p| p.name.as_str()).collect();
        let export_names: BTreeSet<&str> = u.exports.iter().map(|p| p.name.as_str()).collect();

        match &u.body {
            UnitBody::Atomic(a) => {
                if let Some(fl) = &a.flags {
                    if !self.flags.contains_key(fl) {
                        return Err(KnitError::Unknown {
                            kind: "flags",
                            name: fl.clone(),
                            context: format!("unit `{}`", u.name),
                        });
                    }
                }
                let init_funcs: BTreeSet<&str> = a
                    .initializers
                    .iter()
                    .chain(a.finalizers.iter())
                    .map(|i| i.func.as_str())
                    .collect();
                for i in a.initializers.iter().chain(a.finalizers.iter()) {
                    if !export_names.contains(i.bundle.as_str()) {
                        return Err(KnitError::BadDeclaration {
                            unit: u.name.clone(),
                            what: format!(
                                "initializer/finalizer `{}` is for `{}`, which is not an export port",
                                i.func, i.bundle
                            ),
                        });
                    }
                }
                for d in &a.depends {
                    if let DepSide::Name(n) = &d.lhs {
                        if !export_names.contains(n.as_str()) && !init_funcs.contains(n.as_str()) {
                            return Err(KnitError::BadDeclaration {
                                unit: u.name.clone(),
                                what: format!(
                                    "depends: `{n}` is neither an export port nor an initializer/finalizer"
                                ),
                            });
                        }
                    }
                    for atom in &d.rhs {
                        if let DepAtom::Name(n) = atom {
                            if !import_names.contains(n.as_str()) {
                                return Err(KnitError::BadDeclaration {
                                    unit: u.name.clone(),
                                    what: format!("depends: `{n}` is not an import port"),
                                });
                            }
                        }
                    }
                }
                for r in &a.renames {
                    let port = u
                        .imports
                        .iter()
                        .chain(u.exports.iter())
                        .find(|p| p.name == r.port)
                        .ok_or_else(|| KnitError::BadRename {
                            unit: u.name.clone(),
                            port: r.port.clone(),
                            member: r.member.clone(),
                        })?;
                    let members = self.members_of(&port.bundle_type).expect("checked above");
                    if !members.contains(&r.member) {
                        return Err(KnitError::BadRename {
                            unit: u.name.clone(),
                            port: r.port.clone(),
                            member: r.member.clone(),
                        });
                    }
                }
            }
            UnitBody::Compound(c) => {
                let mut inst_names: BTreeSet<&str> = BTreeSet::new();
                for i in &c.instances {
                    if !inst_names.insert(&i.name) {
                        return Err(KnitError::Duplicate {
                            kind: "instance",
                            name: format!("{}.{}", u.name, i.name),
                        });
                    }
                    // the instantiated unit may be declared later or in
                    // another file; resolved during elaboration
                }
                for e in &c.export_bindings {
                    if !export_names.contains(e.export.as_str()) {
                        return Err(KnitError::BadDeclaration {
                            unit: u.name.clone(),
                            what: format!("export binding `{}` names no export port", e.export),
                        });
                    }
                }
                for p in &u.exports {
                    if !c.export_bindings.iter().any(|e| e.export == p.name) {
                        return Err(KnitError::BadDeclaration {
                            unit: u.name.clone(),
                            what: format!(
                                "export port `{}` has no binding in the link block",
                                p.name
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(src: &str) -> Result<Program, KnitError> {
        let mut p = Program::new();
        p.load_str("t.unit", src)?;
        Ok(p)
    }

    #[test]
    fn poset_chain() {
        let mut p = Poset::default();
        p.add_value("NoContext", &[]).unwrap();
        p.add_value("ProcessContext", &["NoContext".to_string()]).unwrap();
        assert!(p.leq("ProcessContext", "NoContext"));
        assert!(!p.leq("NoContext", "ProcessContext"));
        assert!(p.leq("NoContext", "NoContext"));
        assert_eq!(p.meet("ProcessContext", "NoContext").as_deref(), Some("ProcessContext"));
        assert_eq!(p.join("ProcessContext", "NoContext").as_deref(), Some("NoContext"));
    }

    #[test]
    fn poset_diamond() {
        // top; a < top; b < top; bottom < a, b
        let mut p = Poset::default();
        p.add_value("Top", &[]).unwrap();
        p.add_value("A", &["Top".to_string()]).unwrap();
        p.add_value("B", &["Top".to_string()]).unwrap();
        p.add_value("Bot", &["A".to_string(), "B".to_string()]).unwrap();
        assert!(p.leq("Bot", "Top"));
        assert_eq!(p.meet("A", "B").as_deref(), Some("Bot"));
        assert_eq!(p.join("A", "B").as_deref(), Some("Top"));
    }

    #[test]
    fn poset_incomparable_without_bounds() {
        let mut p = Poset::default();
        p.add_value("A", &[]).unwrap();
        p.add_value("B", &[]).unwrap();
        assert_eq!(p.meet("A", "B"), None);
        assert_eq!(p.join("A", "B"), None);
    }

    #[test]
    fn register_and_duplicate_detection() {
        assert!(prog("bundletype T = { f }\nbundletype T = { g }").is_err());
        assert!(prog("bundletype T = { f, f }").is_err());
        assert!(prog("property p\ntype A\ntype A").is_err());
        assert!(prog("type Orphan").is_err());
        let p = prog("property context\ntype NoContext\ntype ProcessContext < NoContext").unwrap();
        assert!(p.properties["context"].leq("ProcessContext", "NoContext"));
        assert_eq!(p.value_property["NoContext"], "context");
    }

    #[test]
    fn unit_validation_catches_bad_references() {
        let base = "bundletype T = { f }\n";
        // unknown bundletype
        assert!(prog("unit U = { imports [ a : Missing ]; files { \"u.c\" }; }").is_err());
        // initializer for non-export
        assert!(prog(&format!(
            "{base}unit U = {{ imports [ a : T ]; initializer i for a; files {{ \"u.c\" }}; }}"
        ))
        .is_err());
        // depends on unknown import
        assert!(prog(&format!(
            "{base}unit U = {{ exports [ b : T ]; depends {{ b needs nope; }}; files {{ \"u.c\" }}; }}"
        ))
        .is_err());
        // bad rename member
        assert!(prog(&format!(
            "{base}unit U = {{ exports [ b : T ]; files {{ \"u.c\" }}; rename {{ b.nope to x; }}; }}"
        ))
        .is_err());
        // export port without binding in compound
        assert!(prog(&format!("{base}unit U = {{ exports [ b : T ]; link {{ }}; }}")).is_err());
        // ok case
        assert!(prog(&format!(
            "{base}unit U = {{ imports [ a : T ]; exports [ b : T ]; depends {{ b needs a; }}; files {{ \"u.c\" }}; rename {{ b.f to g; }}; }}"
        ))
        .is_ok());
    }

    #[test]
    fn flags_must_exist() {
        let src = "bundletype T = { f }\nunit U = { exports [ b : T ]; files { \"u.c\" } with flags Nope; }";
        assert!(prog(src).is_err());
    }
}
