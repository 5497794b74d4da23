//! Property tests over the object-file layer.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use cobj::ir::{BinOp, Instr, SymId};
use cobj::object::{DataDef, DataReloc, FuncDef, ObjectFile, SymDef, SymKind, Symbol};
use cobj::{link, objcopy, Archive, Layout, LayoutProfile, LinkInput, LinkOptions, Linked, Relink};

/// A generated object: `nfuncs` functions named f0..fn, a call chain
/// between consecutive ones, and one undefined external per object.
fn gen_object(tag: usize, nfuncs: usize) -> ObjectFile {
    let mut o = ObjectFile::new(format!("gen{tag}.o"));
    let ext = o.add_symbol(Symbol::undef(format!("ext{tag}")));
    let mut syms = Vec::new();
    for i in 0..nfuncs {
        syms.push(o.add_symbol(Symbol::func(format!("g{tag}_f{i}"))));
    }
    for i in 0..nfuncs {
        let mut body = Vec::new();
        if i + 1 < nfuncs {
            body.push(Instr::Call { dst: Some(0), target: syms[i + 1], args: vec![] });
        } else {
            body.push(Instr::Call { dst: Some(0), target: ext, args: vec![] });
        }
        body.push(Instr::Ret { value: Some(0) });
        o.funcs.push(FuncDef { sym: syms[i], params: 0, nregs: 1, frame_size: 0, body });
    }
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_objects_validate_and_link(nobjs in 1usize..5, nfuncs in 1usize..6) {
        let mut inputs = Vec::new();
        for t in 0..nobjs {
            let o = gen_object(t, nfuncs);
            prop_assert!(o.validate().is_ok());
            inputs.push(LinkInput::Object(o));
        }
        // provide the externals
        let mut provider = ObjectFile::new("ext.o");
        let mut bodies = Vec::new();
        for t in 0..nobjs {
            let s = provider.add_symbol(Symbol::func(format!("ext{t}")));
            bodies.push(s);
        }
        for s in bodies {
            provider.funcs.push(FuncDef {
                sym: s,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![Instr::Const { dst: 0, value: 1 }, Instr::Ret { value: Some(0) }],
            });
        }
        inputs.push(LinkInput::Object(provider));
        let img = link(&inputs, &LinkOptions::default()).expect("links");
        prop_assert_eq!(img.funcs.len(), nobjs * nfuncs + nobjs);
        // layout invariants: addresses strictly increase and never overlap
        for w in img.funcs.windows(2) {
            prop_assert!(w[0].addr + w[0].size <= w[1].addr);
        }
        prop_assert!(img.data_base >= img.funcs.last().map(|f| f.addr + f.size).unwrap_or(0));
    }

    #[test]
    fn rename_then_inverse_is_identity(nfuncs in 1usize..6) {
        let o = gen_object(0, nfuncs);
        let mut fwd = BTreeMap::new();
        let mut back = BTreeMap::new();
        for i in 0..nfuncs {
            fwd.insert(format!("g0_f{i}"), format!("renamed_{i}"));
            back.insert(format!("renamed_{i}"), format!("g0_f{i}"));
        }
        let renamed = objcopy::rename_symbols(&o, &fwd).expect("rename ok");
        prop_assert!(renamed.validate().is_ok());
        let restored = objcopy::rename_symbols(&renamed, &back).expect("inverse ok");
        prop_assert_eq!(restored.symbols, o.symbols);
        prop_assert_eq!(restored.funcs, o.funcs);
    }

    #[test]
    fn gc_is_idempotent_and_sound(nfuncs in 2usize..7) {
        let mut o = gen_object(0, nfuncs);
        // localize everything but the entry; the chain keeps all reachable
        let mut keep = std::collections::BTreeSet::new();
        keep.insert("g0_f0".to_string());
        objcopy::localize_except(&mut o, &keep);
        let g1 = objcopy::gc(&o);
        let g2 = objcopy::gc(&g1);
        prop_assert!(g1.validate().is_ok());
        prop_assert_eq!(g1.funcs.len(), g2.funcs.len());
        prop_assert_eq!(g1.symbols.len(), g2.symbols.len());
        // the chain is fully reachable from f0
        prop_assert_eq!(g1.funcs.len(), nfuncs);
    }

    #[test]
    fn archive_pull_set_is_minimal(extra in 1usize..5) {
        // main needs exactly one member; `extra` others must stay out
        let mut main = ObjectFile::new("main.o");
        let need = main.add_symbol(Symbol::undef("needed"));
        let m = main.add_symbol(Symbol::func("main"));
        main.funcs.push(FuncDef {
            sym: m,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![Instr::Call { dst: Some(0), target: need, args: vec![] }, Instr::Ret { value: Some(0) }],
        });
        let mut members = Vec::new();
        for i in 0..extra {
            let mut o = ObjectFile::new(format!("x{i}.o"));
            let s = o.add_symbol(Symbol::func(format!("unneeded{i}")));
            o.funcs.push(FuncDef { sym: s, params: 0, nregs: 0, frame_size: 0, body: vec![Instr::Ret { value: None }] });
            members.push(o);
        }
        let mut o = ObjectFile::new("needed.o");
        let s = o.add_symbol(Symbol::func("needed"));
        o.funcs.push(FuncDef { sym: s, params: 0, nregs: 0, frame_size: 0, body: vec![Instr::Ret { value: None }] });
        members.push(o);
        let img = link(
            &[LinkInput::Object(main), LinkInput::Archive(Archive::from_members("lib.a", members))],
            &LinkOptions::new("main", []),
        ).expect("links");
        prop_assert_eq!(img.funcs.len(), 2, "exactly main + needed");
    }
}

/// A small deterministic generator for the relink property: one seed
/// drives every choice, so a failing case reproduces from its seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// The runtime symbol every generated set may call.
const RT: &str = "__rt";

/// A symbol of `o` named `name`, added as an undefined reference if `o`
/// does not have it yet.
fn sym(o: &mut ObjectFile, name: &str) -> SymId {
    o.find_symbol(name).unwrap_or_else(|| o.add_symbol(Symbol::undef(name)))
}

/// `n` objects. Object `t` defines global functions `o{t}_f{i}` and data
/// `o{t}_d{j}`, plus statics named alike in every object (`s_f0`, `s_d0`)
/// so local resolution is exercised. Bodies call and take the address of
/// random own and foreign symbols; data carries function and data
/// pointers. Every object but `target` also calls `target`'s first function
/// and points at each of its globals, so mutating `target` moves code that
/// other objects' code and relocations reach into.
fn gen_set(g: &mut Gen, n: usize, target: usize) -> Vec<ObjectFile> {
    let mut objs: Vec<ObjectFile> = Vec::new();
    let mut globals: Vec<(String, SymKind)> = Vec::new();
    for t in 0..n {
        let mut o = ObjectFile::new(format!("o{t}.o"));
        for i in 0..1 + g.below(3) {
            o.add_symbol(if i > 0 && g.coin() {
                Symbol::local_func(format!("s_f{i}"))
            } else {
                globals.push((format!("o{t}_f{i}"), SymKind::Func));
                Symbol::func(format!("o{t}_f{i}"))
            });
        }
        for j in 0..g.below(3) {
            o.add_symbol(if g.coin() {
                Symbol::local_data(format!("s_d{j}"))
            } else {
                globals.push((format!("o{t}_d{j}"), SymKind::Data));
                Symbol::data(format!("o{t}_d{j}"))
            });
        }
        objs.push(o);
    }
    let target_globals: Vec<(String, SymKind)> =
        globals.iter().filter(|(n, _)| n.starts_with(&format!("o{target}_"))).cloned().collect();
    for (t, o) in objs.iter_mut().enumerate() {
        let defs: Vec<(SymId, SymKind)> = (0..o.symbols.len())
            .filter_map(|i| match o.symbols[i].def {
                SymDef::Defined { kind, .. } => Some((SymId(i as u32), kind)),
                SymDef::Undefined => None,
            })
            .collect();
        // Something to reference: an own definition or a foreign global.
        let pick = |g: &mut Gen, o: &mut ObjectFile, kind: Option<SymKind>| -> SymId {
            loop {
                if g.coin() {
                    let (id, k) = defs[g.below(defs.len())];
                    if kind.is_none_or(|want| want == k) {
                        return id;
                    }
                } else {
                    let (name, k) = &globals[g.below(globals.len())];
                    if kind.is_none_or(|want| want == *k) {
                        return sym(o, name);
                    }
                }
            }
        };
        for &(id, kind) in &defs {
            if kind == SymKind::Func {
                let mut body = vec![Instr::Const { dst: 0, value: g.below(1000) as i64 }];
                if id.0 == 0 && t != target {
                    let callee = sym(o, &target_globals[0].0);
                    body.push(Instr::Call { dst: Some(1), target: callee, args: vec![0] });
                }
                for _ in 0..g.below(4) {
                    body.push(match g.below(5) {
                        0 => Instr::Const { dst: 1, value: g.below(1 << 20) as i64 - 1000 },
                        1 => Instr::Bin { op: BinOp::Add, dst: 0, a: 0, b: 1 },
                        2 => Instr::Call {
                            dst: Some(1),
                            target: pick(g, o, Some(SymKind::Func)),
                            args: vec![0],
                        },
                        3 => Instr::Call { dst: None, target: sym(o, RT), args: vec![] },
                        _ => Instr::Addr { dst: 1, sym: pick(g, o, None), offset: 0 },
                    });
                }
                body.push(Instr::Ret { value: Some(0) });
                o.funcs.push(FuncDef { sym: id, params: 1, nregs: 2, frame_size: 0, body });
            } else {
                let words = 1 + g.below(3);
                let mut relocs = Vec::new();
                for w in 0..words {
                    if g.coin() {
                        let sym = pick(g, o, None);
                        relocs.push(DataReloc {
                            offset: 8 * w as u64,
                            sym,
                            addend: g.below(16) as i64,
                        });
                    }
                }
                o.data.push(DataDef {
                    sym: id,
                    init: (0..8 * words).map(|_| g.next() as u8).collect(),
                    zeroed: g.below(3) as u64 * 8,
                    relocs,
                    align: 1 << g.below(4),
                });
            }
        }
        if t != target {
            let ptrs = o.add_symbol(Symbol::data(format!("o{t}_ptrs")));
            let relocs: Vec<DataReloc> = target_globals
                .iter()
                .enumerate()
                .map(|(w, (name, _))| DataReloc {
                    offset: 8 * w as u64,
                    sym: sym(o, name),
                    addend: 0,
                })
                .collect();
            o.data.push(DataDef {
                sym: ptrs,
                init: vec![0; 8 * relocs.len()],
                zeroed: 0,
                relocs,
                align: 8,
            });
        }
    }
    objs
}

/// Mutate `o` in place, returning whether the mutation changes its shape.
/// Kinds 0-3 keep the shape (a constant of the same width, a data byte, a
/// relocation, a symbol operand); kinds 4-9 change it (a constant crossing
/// the `i32` boundary, which changes its encoded size; an added
/// function, an added datum, a call to a new import, a longer datum, a
/// different alignment). Retargeting a call may pick a data symbol, which
/// both links must reject alike.
fn mutate(g: &mut Gen, o: &mut ObjectFile, foreign: &[String]) -> bool {
    let nsyms = o.symbols.len() as u32;
    let fi = g.below(o.funcs.len());
    let Instr::Const { value: old, .. } = o.funcs[fi].body[0] else {
        unreachable!("generated bodies start with a constant")
    };
    let wide = i32::try_from(old).is_err();
    match g.below(10) {
        0 => {
            let value = g.below(1 << 30) as i64 + if wide { 1 << 40 } else { 0 };
            o.funcs[fi].body[0] = Instr::Const { dst: 0, value };
            false
        }
        1 => {
            if let Some(d) = o.data.first_mut() {
                let at = g.below(d.init.len());
                d.init[at] = d.init[at].wrapping_add(1);
            }
            false
        }
        2 => {
            if let Some(r) = o.data.iter_mut().flat_map(|d| d.relocs.iter_mut()).next() {
                r.addend += 8;
                r.sym = SymId(g.below(nsyms as usize) as u32);
            }
            false
        }
        3 => {
            for instr in o.funcs[fi].body.iter_mut() {
                if let Instr::Addr { sym, .. } | Instr::Call { target: sym, .. } = instr {
                    *sym = SymId(g.below(nsyms as usize) as u32);
                }
            }
            false
        }
        4 => {
            o.funcs[fi].body[0] = Instr::Const { dst: 0, value: if wide { 1 } else { 1 << 40 } };
            true
        }
        5 => {
            let s = o.add_symbol(Symbol::func(format!("{}_added{nsyms}", o.name)));
            o.funcs.push(FuncDef {
                sym: s,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![Instr::Const { dst: 0, value: 0 }, Instr::Ret { value: Some(0) }],
            });
            true
        }
        6 => {
            let s = o.add_symbol(Symbol::data(format!("{}_added{nsyms}", o.name)));
            o.data.push(DataDef { sym: s, init: vec![7; 8], zeroed: 8, relocs: vec![], align: 8 });
            true
        }
        7 => match foreign.iter().find(|n| o.find_symbol(n).is_none()) {
            Some(name) => {
                let s = o.add_symbol(Symbol::undef(name.as_str()));
                let body = &mut o.funcs[fi].body;
                body.insert(1, Instr::Call { dst: None, target: s, args: vec![] });
                true
            }
            None => false,
        },
        8 => match o.data.first_mut() {
            Some(d) => {
                d.init.extend([0; 8]);
                true
            }
            None => false,
        },
        _ => match o.data.first_mut() {
            Some(d) => {
                d.align = if d.align == 32 { 64 } else { 32 };
                true
            }
            None => false,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Linked::relink` equals a full `link` of the mutated objects, byte
    /// for byte (or fails with the same error and leaves the previous
    /// image in place), and patches in place exactly when every mutated
    /// object kept its shape.
    #[test]
    fn relink_matches_a_full_link(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let n = 2 + g.below(4);
        let target = g.below(n);
        let objs = gen_set(&mut g, n, target);
        let names: Vec<String> = objs
            .iter()
            .flat_map(|o| o.symbols.iter().filter(|s| s.is_global_def()).map(|s| s.name.clone()))
            .collect();
        let mut opts = LinkOptions::new("o0_f0", [RT.to_string()]);
        if g.coin() {
            let mut p = LayoutProfile::default();
            for _ in 0..4 {
                let (a, b) = (&names[g.below(names.len())], &names[g.below(names.len())]);
                p.record_edge(a.as_str(), b.as_str(), 1 + g.below(100) as u64);
                p.record_func(a.as_str(), 1 + g.below(100) as u64);
            }
            opts = opts.with_layout(Layout::ProfileGuided(p));
        }
        let mut current: Vec<Arc<ObjectFile>> = objs.into_iter().map(Arc::new).collect();
        let mut linked = Linked::link(current.clone(), &opts).expect("generated sets link");
        for _round in 0..3 {
            let mut next = current.clone();
            let mut reshaped = false;
            let mutated =
                if g.coin() { vec![target] } else { vec![target, (target + 1 + g.below(n - 1)) % n] };
            for &m in &mutated {
                let mut o = next[m].as_ref().clone();
                reshaped |= mutate(&mut g, &mut o, &names);
                next[m] = Arc::new(o);
            }
            let inputs: Vec<LinkInput> =
                next.iter().map(|o| LinkInput::Object(o.as_ref().clone())).collect();
            let full = link(&inputs, &opts);
            let before = linked.image.clone();
            let path = linked.relink(next.clone(), &opts);
            match (full, path) {
                (Ok(image), Ok(path)) => {
                    prop_assert!(image == linked.image, "relinked image differs from a full link");
                    let expected =
                        if reshaped { Relink::Full } else { Relink::Patched { objects: mutated.len() } };
                    prop_assert_eq!(path, expected);
                    current = next;
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a, b);
                    prop_assert!(linked.image == before, "a failed relink changed the image");
                }
                (full, path) => {
                    return Err(TestCaseError::Fail(format!("full link {full:?}, relink {path:?}")));
                }
            }
        }
    }
}

/// A name from a pool of `pool` names whose lexicographic order differs
/// from pool order (and from any hash order).
fn pool_name(k: usize) -> String {
    const STEMS: [&str; 5] = ["zeta", "a", "mid_", "Q", "a_"];
    format!("{}{}", STEMS[k % STEMS.len()], (k * 7919) % 1009)
}

/// `n` objects over a shared name pool. Each defines a few distinct
/// global functions and references a few names it does not define; with
/// `dups` a name may be defined by several objects.
fn gen_namespace(g: &mut Gen, n: usize, pool: usize, dups: bool) -> Vec<ObjectFile> {
    let mut taken = vec![false; pool];
    let mut objs = Vec::new();
    for t in 0..n {
        let mut o = ObjectFile::new(format!("ns{t}.o"));
        for _ in 0..1 + g.below(4) {
            let k = g.below(pool);
            let name = pool_name(k);
            if o.find_symbol(&name).is_some() || (taken[k] && !dups) {
                continue;
            }
            taken[k] = true;
            let s = o.add_symbol(Symbol::func(name));
            o.funcs.push(FuncDef {
                sym: s,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![Instr::Const { dst: 0, value: t as i64 }, Instr::Ret { value: Some(0) }],
            });
        }
        for _ in 0..g.below(5) {
            let name = if g.below(8) == 0 { RT.to_string() } else { pool_name(g.below(pool)) };
            if o.find_symbol(&name).is_none() {
                o.add_symbol(Symbol::undef(name));
            }
        }
        objs.push(o);
    }
    objs
}

/// What `ld` must report for `objs`, computed naively: the first
/// duplicate definition in include order, else the lexicographically
/// smallest missing name with its referencing objects in include order.
fn naive_link_error(objs: &[ObjectFile]) -> Option<cobj::LinkError> {
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    for o in objs {
        for s in o.symbols.iter().filter(|s| s.is_global_def()) {
            if let Some(f) = first.get(s.name.as_str()) {
                return Some(cobj::LinkError::MultipleDefinition {
                    name: s.name.clone(),
                    first: f.to_string(),
                    second: o.name.clone(),
                });
            }
            first.insert(&s.name, &o.name);
        }
    }
    let missing = objs
        .iter()
        .flat_map(|o| o.symbols.iter())
        .filter(|s| {
            s.def == SymDef::Undefined && s.name != RT && !first.contains_key(s.name.as_str())
        })
        .map(|s| s.name.as_str())
        .min()?;
    let referenced_from = objs
        .iter()
        .filter(|o| o.undefined_names().contains(missing))
        .map(|o| o.name.clone())
        .collect();
    Some(cobj::LinkError::UndefinedReference { name: missing.to_string(), referenced_from })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Link errors and the image symbol table never depend on hash
    /// iteration order: with many missing and many duplicate names, `ld`
    /// reports exactly what a naive in-order scan finds, and
    /// `Image.symbols` lists every global definition in name order.
    #[test]
    fn link_errors_and_symbols_are_deterministic(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let n = 4 + g.below(40);
        let pool = 8 + g.below(120);
        // Three shapes: duplicates allowed, missing names, or complete
        // (a last object defines every name still missing).
        let shape = g.below(3);
        let mut objs = gen_namespace(&mut g, n, pool, shape == 0);
        if shape == 2 {
            let defined: BTreeSet<String> = objs.iter().flat_map(|o| o.exported_names()).map(str::to_string).collect();
            let mut provider = ObjectFile::new("provider.o");
            for k in 0..pool {
                let name = pool_name(k);
                if !defined.contains(&name) {
                    let s = provider.add_symbol(Symbol::func(name));
                    let body = vec![Instr::Ret { value: None }];
                    provider.funcs.push(FuncDef { sym: s, params: 0, nregs: 0, frame_size: 0, body });
                }
            }
            objs.push(provider);
        }
        let opts = LinkOptions { runtime_symbols: [RT.to_string()].into(), ..Default::default() };
        let inputs: Vec<LinkInput> = objs.iter().cloned().map(LinkInput::Object).collect();
        let got = link(&inputs, &opts);
        let arcs: Vec<Arc<ObjectFile>> = objs.iter().cloned().map(Arc::new).collect();
        let kept = Linked::link(arcs, &opts);
        match naive_link_error(&objs) {
            Some(want) => {
                prop_assert!(shape != 2, "a complete set must link");
                prop_assert_eq!(got.unwrap_err(), want.clone());
                prop_assert_eq!(kept.unwrap_err(), want);
            }
            None => {
                let image = got.expect("no duplicate and nothing missing: links");
                prop_assert!(image == kept.expect("links").image);
                let mut names: Vec<&str> = objs
                    .iter()
                    .flat_map(|o| o.symbols.iter().filter(|s| s.is_global_def()))
                    .map(|s| s.name.as_str())
                    .collect();
                names.sort_unstable();
                let listed: Vec<&str> = image.symbols.keys().map(String::as_str).collect();
                prop_assert_eq!(listed, names);
                for (name, loc) in image.symbols.iter() {
                    match loc {
                        cobj::SymbolLoc::Func(fi) => prop_assert_eq!(&image.funcs[*fi as usize].name, name),
                        other => return Err(TestCaseError::Fail(format!("{name}: {other:?}"))),
                    }
                }
            }
        }
    }
}
