//! `objcopy`-style symbol surgery.
//!
//! Knit's implementation (paper, Section 6) post-processes compiled objects
//! with "a slightly modified version of GNU's objcopy, which handles
//! renaming symbols and duplicating object code for multiply-instantiated
//! units". This module provides those two operations:
//!
//! * [`rename`] — rewrite global symbol names (both definitions and
//!   undefined references), addressed by symbol-table index. This is how
//!   Knit wires an import of one unit instance to the (mangled) export of
//!   another without any global-namespace collisions. [`rename_symbols`]
//!   is the same operation addressed by name.
//! * [`duplicate`] — clone an object while renaming *every* global symbol,
//!   producing an independent copy for a second instantiation of the same
//!   unit (e.g. the paper's two-`printf` output-redirection example).

use std::collections::BTreeMap;

use crate::error::ObjectError;
use crate::fnv::FnvMap;
use crate::object::{ObjectFile, SymDef, Symbol};

fn is_local(s: &Symbol) -> bool {
    matches!(s.def, SymDef::Defined { local: true, .. })
}

/// Rename link-visible symbols of `obj` by symbol-table index: entry `id`
/// of each `(id, new)` pair is renamed to `new`. Entries not listed keep
/// their names.
///
/// Local (static) symbols are never touched: like real `objcopy
/// --redefine-sym`, renaming operates on the link-visible namespace only,
/// so naming a local entry is a [`ObjectError::NoSuchSymbol`]. Returns an
/// error if the rename would make two distinct link-visible symbols
/// collide.
pub fn rename(obj: &ObjectFile, renames: &[(SymId, &str)]) -> Result<ObjectFile, ObjectError> {
    let mut names: Vec<Option<&str>> = vec![None; obj.symbols.len()];
    for &(id, new) in renames {
        let Some(sym) = obj.symbols.get(id.0 as usize) else {
            return Err(ObjectError::BadSymbolIndex {
                object: obj.name.clone(),
                index: id.0,
                context: "rename".to_string(),
            });
        };
        if is_local(sym) {
            return Err(ObjectError::NoSuchSymbol {
                object: obj.name.clone(),
                name: sym.name.clone(),
            });
        }
        names[id.0 as usize] = Some(new);
    }
    let symbols: Vec<Symbol> = obj
        .symbols
        .iter()
        .zip(&names)
        .map(|(s, new)| Symbol {
            name: new.map_or_else(|| s.name.clone(), str::to_string),
            def: s.def,
        })
        .collect();

    // Detect collisions among link-visible names: a defined symbol may not
    // share its new name with any other defined symbol; a defined and an
    // undefined entry with the same name would silently self-satisfy, so we
    // reject that too (Knit wiring never needs it — self-links are resolved
    // before objcopy).
    let mut seen: FnvMap<&str, SymDef> =
        FnvMap::with_capacity_and_hasher(symbols.len(), Default::default());
    for s in symbols.iter().filter(|s| !is_local(s)) {
        if let Some(prev) = seen.insert(s.name.as_str(), s.def) {
            if prev != SymDef::Undefined || s.def != SymDef::Undefined {
                return Err(ObjectError::RenameCollision {
                    object: obj.name.clone(),
                    name: s.name.clone(),
                });
            }
        }
    }
    Ok(ObjectFile {
        name: obj.name.clone(),
        symbols,
        funcs: obj.funcs.clone(),
        data: obj.data.clone(),
    })
}

/// [`rename`] addressed by name: every link-visible entry named by a key
/// of `map` (old name → new name) is renamed. Every key must name an
/// existing link-visible symbol.
pub fn rename_symbols(
    obj: &ObjectFile,
    map: &BTreeMap<String, String>,
) -> Result<ObjectFile, ObjectError> {
    for old in map.keys() {
        if !obj.symbols.iter().any(|s| s.name == *old && !is_local(s)) {
            return Err(ObjectError::NoSuchSymbol { object: obj.name.clone(), name: old.clone() });
        }
    }
    let renames: Vec<(SymId, &str)> = obj
        .symbols
        .iter()
        .enumerate()
        .filter(|(_, s)| !is_local(s))
        .filter_map(|(i, s)| map.get(&s.name).map(|new| (SymId(i as u32), new.as_str())))
        .collect();
    rename(obj, &renames)
}

/// Clone `obj` with `suffix` appended to every link-visible symbol name,
/// both defined and undefined.
///
/// This is Knit's multiple-instantiation mechanism: each instance of a unit
/// gets its own copy of the code and data, living under fresh names, so two
/// `printf` instances (say, one wired to the serial console and one to the
/// VGA console) coexist in one program.
pub fn duplicate(obj: &ObjectFile, suffix: &str) -> ObjectFile {
    let mut out = obj.clone();
    out.name = format!("{}{}", obj.name, suffix);
    for sym in out.symbols.iter_mut().filter(|s| !is_local(s)) {
        sym.name = format!("{}{}", sym.name, suffix);
    }
    out
}

/// Demote global definitions to local (like `objcopy --localize-symbol`),
/// keeping only `keep_global` names link-visible.
pub fn localize_except(obj: &mut ObjectFile, keep_global: &std::collections::BTreeSet<String>) {
    for s in &mut obj.symbols {
        if let SymDef::Defined { kind, local: false } = s.def {
            if !keep_global.contains(&s.name) && !s.name.starts_with("__") {
                s.def = SymDef::Defined { kind, local: true };
            }
        }
    }
}

/// Garbage-collect unreachable local definitions (like `ld --gc-sections`
/// over a single object): local functions and data not reachable from any
/// global definition are dropped, and the symbol table is compacted.
pub fn gc(obj: &ObjectFile) -> ObjectFile {
    use std::collections::{BTreeMap, BTreeSet};

    // symbol id -> definition body
    let mut func_of: BTreeMap<u32, usize> = BTreeMap::new();
    for (fi, f) in obj.funcs.iter().enumerate() {
        func_of.insert(f.sym.0, fi);
    }
    let mut data_of: BTreeMap<u32, usize> = BTreeMap::new();
    for (di, d) in obj.data.iter().enumerate() {
        data_of.insert(d.sym.0, di);
    }

    // reachability from global definitions
    let mut reach: BTreeSet<u32> = BTreeSet::new();
    let mut work: Vec<u32> = obj
        .symbols
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_global_def())
        .map(|(i, _)| i as u32)
        .collect();
    while let Some(id) = work.pop() {
        if !reach.insert(id) {
            continue;
        }
        if let Some(&fi) = func_of.get(&id) {
            for instr in &obj.funcs[fi].body {
                if let Some(s) = instr.sym_ref() {
                    work.push(s.0);
                }
            }
        }
        if let Some(&di) = data_of.get(&id) {
            for r in &obj.data[di].relocs {
                work.push(r.sym.0);
            }
        }
    }

    // keep reachable symbols; remap ids
    let mut remap: BTreeMap<u32, u32> = BTreeMap::new();
    let mut out = ObjectFile::new(obj.name.clone());
    for (i, s) in obj.symbols.iter().enumerate() {
        if reach.contains(&(i as u32)) {
            let new_id = out.add_symbol(s.clone());
            remap.insert(i as u32, new_id.0);
        }
    }
    for f in &obj.funcs {
        if !reach.contains(&f.sym.0) {
            continue;
        }
        let mut nf = f.clone();
        nf.sym = SymId(remap[&f.sym.0]);
        for instr in &mut nf.body {
            instr.map_sym(|SymId(s)| SymId(remap[&s]));
        }
        out.funcs.push(nf);
    }
    for d in &obj.data {
        if !reach.contains(&d.sym.0) {
            continue;
        }
        let mut nd = d.clone();
        nd.sym = SymId(remap[&d.sym.0]);
        for r in &mut nd.relocs {
            r.sym = SymId(remap[&r.sym.0]);
        }
        out.data.push(nd);
    }
    out
}

use crate::ir::SymId;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;
    use crate::object::{FuncDef, Symbol};

    fn obj() -> ObjectFile {
        let mut o = ObjectFile::new("log.o");
        let def = o.add_symbol(Symbol::func("serve_logged"));
        let undef = o.add_symbol(Symbol::undef("serve_unlogged"));
        let stat = o.add_symbol(Symbol::local_data("log"));
        o.funcs.push(FuncDef {
            sym: def,
            params: 2,
            nregs: 3,
            frame_size: 0,
            body: vec![
                Instr::Call { dst: Some(2), target: undef, args: vec![0, 1] },
                Instr::Ret { value: Some(2) },
            ],
        });
        o.data.push(crate::object::DataDef {
            sym: stat,
            init: vec![],
            zeroed: 8,
            relocs: vec![],
            align: 8,
        });
        o
    }

    #[test]
    fn rename_rewrites_defs_and_refs() {
        let o = obj();
        let mut map = BTreeMap::new();
        map.insert("serve_logged".to_string(), "serve_web__u1".to_string());
        map.insert("serve_unlogged".to_string(), "serve_web__u0".to_string());
        let r = rename_symbols(&o, &map).unwrap();
        assert!(r.exported_names().contains("serve_web__u1"));
        assert!(r.undefined_names().contains("serve_web__u0"));
        assert!(!r.exported_names().contains("serve_logged"));
        // instruction still references the same SymId; only the table changed
        assert_eq!(r.funcs[0].body, o.funcs[0].body);
    }

    #[test]
    fn rename_by_index_matches_rename_by_name() {
        let o = obj();
        let by_index = rename(&o, &[(SymId(0), "serve_web__u1"), (SymId(1), "serve_web__u0")]);
        let mut map = BTreeMap::new();
        map.insert("serve_logged".to_string(), "serve_web__u1".to_string());
        map.insert("serve_unlogged".to_string(), "serve_web__u0".to_string());
        assert_eq!(by_index.unwrap(), rename_symbols(&o, &map).unwrap());
        // a local entry is not link-visible; an index past the table is bad
        assert!(matches!(rename(&o, &[(SymId(2), "x")]), Err(ObjectError::NoSuchSymbol { .. })));
        assert!(matches!(rename(&o, &[(SymId(9), "x")]), Err(ObjectError::BadSymbolIndex { .. })));
    }

    #[test]
    fn rename_skips_locals() {
        let o = obj();
        let mut map = BTreeMap::new();
        map.insert("log".to_string(), "log2".to_string());
        // "log" is local, so renaming it is an error (objcopy would not see it
        // as a link-visible symbol either).
        assert!(matches!(rename_symbols(&o, &map), Err(ObjectError::NoSuchSymbol { .. })));
    }

    #[test]
    fn rename_missing_symbol_errors() {
        let o = obj();
        let mut map = BTreeMap::new();
        map.insert("nope".to_string(), "x".to_string());
        assert!(matches!(rename_symbols(&o, &map), Err(ObjectError::NoSuchSymbol { .. })));
    }

    #[test]
    fn rename_collision_detected() {
        let o = obj();
        let mut map = BTreeMap::new();
        // Make the definition collide with the (renamed) undefined reference.
        map.insert("serve_logged".to_string(), "same".to_string());
        map.insert("serve_unlogged".to_string(), "same".to_string());
        assert!(matches!(rename_symbols(&o, &map), Err(ObjectError::RenameCollision { .. })));
    }

    #[test]
    fn localize_and_gc_drop_dead_code() {
        use std::collections::BTreeSet;
        let mut o = ObjectFile::new("t.o");
        let keep = o.add_symbol(Symbol::func("keep"));
        let used = o.add_symbol(Symbol::func("used_helper"));
        let dead = o.add_symbol(Symbol::func("dead_helper"));
        let deaddata = o.add_symbol(Symbol::data("dead_data"));
        for (sym, calls) in [(keep, Some(used)), (used, None), (dead, None)] {
            let mut body = Vec::new();
            if let Some(c) = calls {
                body.push(Instr::Call { dst: None, target: c, args: vec![] });
            }
            body.push(Instr::Ret { value: None });
            o.funcs.push(FuncDef { sym, params: 0, nregs: 0, frame_size: 0, body });
        }
        o.data.push(crate::object::DataDef {
            sym: deaddata,
            init: vec![0; 8],
            zeroed: 0,
            relocs: vec![],
            align: 8,
        });
        let mut keep_set = BTreeSet::new();
        keep_set.insert("keep".to_string());
        localize_except(&mut o, &keep_set);
        let g = gc(&o);
        assert!(g.validate().is_ok());
        let names: Vec<&str> = g.symbols.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"keep"));
        assert!(names.contains(&"used_helper"));
        assert!(!names.contains(&"dead_helper"));
        assert!(!names.contains(&"dead_data"));
        assert_eq!(g.exported_names().len(), 1);
    }

    #[test]
    fn gc_keeps_data_referenced_from_data() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("root"));
        let table = o.add_symbol(Symbol::local_data("table"));
        let target = o.add_symbol(Symbol::local_func("pointee"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![
                Instr::Addr { dst: 0, sym: table, offset: 0 },
                Instr::Ret { value: Some(0) },
            ],
        });
        o.funcs.push(FuncDef {
            sym: target,
            params: 0,
            nregs: 0,
            frame_size: 0,
            body: vec![Instr::Ret { value: None }],
        });
        o.data.push(crate::object::DataDef {
            sym: table,
            init: vec![0; 8],
            zeroed: 0,
            relocs: vec![crate::object::DataReloc { offset: 0, sym: target, addend: 0 }],
            align: 8,
        });
        let g = gc(&o);
        assert!(g.validate().is_ok());
        assert_eq!(g.funcs.len(), 2, "pointee reachable through data reloc");
    }

    #[test]
    fn duplicate_renames_everything_global() {
        let o = obj();
        let d = duplicate(&o, "__i2");
        assert!(d.exported_names().contains("serve_logged__i2"));
        assert!(d.undefined_names().contains("serve_unlogged__i2"));
        // local data untouched
        assert!(d.symbols.iter().any(|s| s.name == "log"));
        assert!(d.validate().is_ok());
    }
}
