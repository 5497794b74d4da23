//! The bag-of-objects linker.
//!
//! This is a faithful model of classic Unix `ld` semantics as the paper
//! describes them (Section 2.1 and 5.1):
//!
//! * Inputs are processed **in order**; explicit objects are always
//!   included.
//! * An archive member is included only if it defines a symbol that is
//!   currently undefined; an archive is re-scanned until no more members
//!   are pulled in. This is what made "override by careful ordering of
//!   ld's arguments" work in the pre-Knit OSKit.
//! * All resolution happens in a single global namespace: two included
//!   definitions of one name are a hard error, and there is no way to link
//!   the same undefined name to two different providers — which is exactly
//!   why `ld` cannot express the interposition of Figure 1(c). (The Knit
//!   pipeline avoids the limitation by `objcopy`-renaming symbols *before*
//!   calling this same linker.)
//!
//! Undefined names listed in [`LinkOptions::runtime_symbols`] are satisfied
//! by the runtime (the `machine` crate's intrinsics) rather than by objects.
//!
//! [`Linked`] keeps what one link decided — every symbol's resolution and
//! every function's address — so that relinking after a few objects
//! changed *without changing their shape* (see [`ObjectFile::same_shape`])
//! re-resolves only those objects' code and data. Both paths run the same
//! two helpers, `resolve_func` and `write_data`.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::archive::Archive;
use crate::error::LinkError;
use crate::fnv::FnvMap;
use crate::image::{
    align_up, CallTarget, Image, ImageFunc, RInstr, SymbolLoc, FUNC_ALIGN, TEXT_BASE,
};
use crate::ir::Instr;
use crate::layout::{FuncMeta, Layout};
use crate::object::{FuncDef, ObjectFile, SymDef};
use crate::par::{join, run_indexed};

/// One linker command-line argument.
#[derive(Debug, Clone)]
pub enum LinkInput {
    /// An explicit object file — always included.
    Object(ObjectFile),
    /// An archive — members included on demand.
    Archive(Archive),
}

/// Linker configuration.
#[derive(Debug, Clone, Default)]
pub struct LinkOptions {
    /// Entry symbol to record in the image (must be a defined function if
    /// given).
    pub entry: Option<String>,
    /// Names provided by the runtime; undefined references to these resolve
    /// to intrinsics instead of failing.
    pub runtime_symbols: BTreeSet<String>,
    /// Text-placement strategy. [`Layout::InputOrder`] (the default) keeps
    /// the historical placement byte-for-byte.
    pub layout: Layout,
    /// Worker threads for a full link: validating and scanning objects,
    /// resolving function bodies (next to the symbol map) — `0` and `1`
    /// both mean serial. The image, and the first error reported, are the
    /// same for every value, so equality ignores this field: changing it
    /// alone never turns a [`Linked::relink`] into a full link.
    pub jobs: usize,
}

impl PartialEq for LinkOptions {
    fn eq(&self, other: &LinkOptions) -> bool {
        self.entry == other.entry
            && self.runtime_symbols == other.runtime_symbols
            && self.layout == other.layout
    }
}

impl LinkOptions {
    /// Options with an entry point and a set of runtime symbols.
    pub fn new(entry: impl Into<String>, runtime: impl IntoIterator<Item = String>) -> Self {
        LinkOptions {
            entry: Some(entry.into()),
            runtime_symbols: runtime.into_iter().collect(),
            layout: Layout::InputOrder,
            jobs: 1,
        }
    }

    /// Replace the text-placement strategy.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }
}

/// Link `inputs` into an executable [`Image`].
pub fn link(inputs: &[LinkInput], opts: &LinkOptions) -> Result<Image, LinkError> {
    let explicit: usize = inputs
        .iter()
        .map(|i| match i {
            LinkInput::Object(o) => o.symbols.len(),
            LinkInput::Archive(_) => 0,
        })
        .sum();
    let mut sel = Selection::with_capacity(explicit);
    for input in inputs {
        match input {
            LinkInput::Object(o) => sel.include(o, opts)?,
            LinkInput::Archive(a) => sel.pull(a, opts)?,
        }
    }
    Ok(layout(&sel.finish()?, opts)?.0)
}

/// What the link's one name table knows about a link-visible name.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Defined by entry `sym` of included object `obj`.
    Defined { obj: u32, sym: u32 },
    /// Referenced but not (yet) defined. Runtime-satisfied names never
    /// get a slot, so they do not pull archive members.
    Undefined,
}

/// Phase 1: decide which objects participate, applying archive semantics.
///
/// `names` is a hash table, so nothing here may observe its iteration
/// order: a duplicate is reported as it is met in include order, and the
/// missing name reported is the smallest one.
struct Selection<'a> {
    included: Vec<&'a ObjectFile>,
    names: FnvMap<&'a str, Slot>,
    /// How many `names` entries are [`Slot::Undefined`].
    undefined: usize,
}

impl<'a> Selection<'a> {
    /// An empty selection with room for `names` names.
    fn with_capacity(names: usize) -> Selection<'a> {
        Selection {
            included: Vec::new(),
            names: FnvMap::with_capacity_and_hasher(names, Default::default()),
            undefined: 0,
        }
    }

    fn include(&mut self, obj: &'a ObjectFile, opts: &LinkOptions) -> Result<(), LinkError> {
        obj.validate()?;
        self.add(obj, opts)
    }

    /// [`Selection::include`] for an object already validated.
    fn add(&mut self, obj: &'a ObjectFile, opts: &LinkOptions) -> Result<(), LinkError> {
        let idx = self.included.len() as u32;
        for (si, s) in obj.symbols.iter().enumerate() {
            if !s.is_global_def() {
                continue;
            }
            let slot = Slot::Defined { obj: idx, sym: si as u32 };
            match self.names.entry(&s.name) {
                Entry::Occupied(mut e) => {
                    if let Slot::Defined { obj: first, .. } = *e.get() {
                        return Err(LinkError::MultipleDefinition {
                            name: s.name.clone(),
                            first: self.included[first as usize].name.clone(),
                            second: obj.name.clone(),
                        });
                    }
                    e.insert(slot);
                    self.undefined -= 1;
                }
                Entry::Vacant(e) => {
                    e.insert(slot);
                }
            }
        }
        for s in &obj.symbols {
            if s.def == SymDef::Undefined
                && !self.names.contains_key(s.name.as_str())
                && !opts.runtime_symbols.contains(&s.name)
            {
                self.names.insert(&s.name, Slot::Undefined);
                self.undefined += 1;
            }
        }
        self.included.push(obj);
        Ok(())
    }

    fn is_undefined(&self, name: &str) -> bool {
        matches!(self.names.get(name), Some(Slot::Undefined))
    }

    fn pull(&mut self, a: &'a Archive, opts: &LinkOptions) -> Result<(), LinkError> {
        let mut pulled_members: BTreeSet<usize> = BTreeSet::new();
        loop {
            let mut pulled = false;
            for (mi, m) in a.members.iter().enumerate() {
                if pulled_members.contains(&mi) {
                    continue;
                }
                if m.exported_names().iter().any(|n| self.is_undefined(n)) {
                    self.include(m, opts)?;
                    pulled_members.insert(mi);
                    pulled = true;
                }
            }
            if !pulled {
                return Ok(());
            }
        }
    }

    fn finish(self) -> Result<Self, LinkError> {
        if self.undefined > 0 {
            // Report the smallest missing name, with every object that
            // references it, for a useful diagnostic.
            let name = self
                .names
                .iter()
                .filter(|(_, slot)| matches!(slot, Slot::Undefined))
                .map(|(name, _)| *name)
                .min()
                .expect("`undefined` counts undefined slots");
            let refs: Vec<String> = self
                .included
                .iter()
                .filter(|o| o.symbols.iter().any(|s| s.def == SymDef::Undefined && s.name == name))
                .map(|o| o.name.clone())
                .collect();
            return Err(LinkError::UndefinedReference {
                name: name.to_string(),
                referenced_from: refs,
            });
        }
        Ok(self)
    }
}

/// Resolution of one symbol-table entry of one included object.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    Func(u32),
    Data(u64),
    Intrinsic(u32),
}

/// Where a link put everything: the resolution of every symbol-table entry
/// of every included object (dense, by `SymId`) and every function's
/// address. Unchanged by a same-shape relink.
#[derive(Debug)]
struct Placement {
    tables: Vec<Vec<Resolved>>,
    func_addrs: Vec<u64>,
}

impl Placement {
    fn value(&self, r: Resolved) -> u64 {
        match r {
            Resolved::Func(fi) => self.func_addrs[fi as usize],
            Resolved::Data(a) => a,
            Resolved::Intrinsic(id) => Image::intrinsic_addr(id),
        }
    }
}

/// Phase 2: lay out text and data, apply relocations, resolve operands.
fn layout(sel: &Selection<'_>, opts: &LinkOptions) -> Result<(Image, Placement), LinkError> {
    let included = &sel.included;
    // --- intrinsic table ---
    let intrinsics: Vec<String> = opts.runtime_symbols.iter().cloned().collect();
    let intrinsic_ids: BTreeMap<&str, u32> =
        intrinsics.iter().enumerate().map(|(i, n)| (n.as_str(), i as u32)).collect();

    // --- per object, on `opts.jobs` workers: function sizes, and where
    // each undefined entry resolves — the selection's name table (every
    // non-local definition) or the intrinsics ---
    let scans =
        run_indexed(opts.jobs, included.len(), |oi| scan(included[oi], sel, &intrinsic_ids))
            .into_iter()
            .collect::<Result<Vec<ObjScan>, LinkError>>()?;

    // --- assign text addresses ---
    // Gather candidates in input order, then let the layout strategy pick
    // the placement order. `InputOrder` keeps input order, reproducing the
    // historical images byte-for-byte, and needs no names.
    let mut raw: Vec<(usize, &FuncDef, u64)> = Vec::new();
    for (oi, (obj, scan)) in included.iter().zip(&scans).enumerate() {
        raw.extend(obj.funcs.iter().zip(&scan.sizes).map(|(f, &size)| (oi, f, size)));
    }
    let order: Vec<usize> = match &opts.layout {
        Layout::InputOrder => (0..raw.len()).collect(),
        layout => {
            let metas: Vec<FuncMeta> = raw
                .iter()
                .map(|&(oi, f, size)| FuncMeta {
                    name: included[oi].symbol(f.sym).name.clone(),
                    size,
                })
                .collect();
            layout.order(&metas)
        }
    };
    debug_assert_eq!(order.len(), raw.len());
    let mut tables: Vec<Vec<Resolved>> =
        included.iter().map(|o| vec![Resolved::Intrinsic(u32::MAX); o.symbols.len()]).collect();
    let mut slots: Vec<(usize, &FuncDef)> = Vec::with_capacity(raw.len());
    let mut func_addrs: Vec<u64> = Vec::with_capacity(raw.len());
    let mut cursor = TEXT_BASE;
    for &ri in &order {
        let (oi, f, size) = raw[ri];
        cursor = align_up(cursor, FUNC_ALIGN);
        tables[oi][f.sym.0 as usize] = Resolved::Func(slots.len() as u32);
        slots.push((oi, f));
        func_addrs.push(cursor);
        cursor += size;
    }
    let text_end = cursor;
    let text_size: u64 = raw.iter().map(|r| r.2).sum();

    // --- assign data addresses ---
    let data_base = align_up(text_end, 0x1000);
    let mut data_cursor = data_base;
    for (oi, obj) in included.iter().enumerate() {
        for d in &obj.data {
            data_cursor = align_up(data_cursor, d.align.max(1));
            tables[oi][d.sym.0 as usize] = Resolved::Data(data_cursor);
            data_cursor += d.size_bytes();
        }
    }
    let heap_base = align_up(data_cursor.max(data_base + 1), 0x1000);

    // --- undefined entries take their definition's resolution ---
    for (oi, scan) in scans.iter().enumerate() {
        for &(si, target) in &scan.undefined {
            tables[oi][si as usize] = match target {
                Target::Def { obj, sym } => tables[obj as usize][sym as usize],
                Target::Intrinsic(id) => Resolved::Intrinsic(id),
            };
        }
    }
    let placement = Placement { tables, func_addrs };

    // --- build image functions with resolved bodies, on `opts.jobs`
    // workers; collected in placement order, so the first error is the
    // serial one (boxed meanwhile, keeping the per-function results
    // small). The symbol map is made next to them. ---
    let (symbols, funcs) = join(
        opts.jobs,
        || symbol_map(sel, &placement),
        || {
            run_indexed(opts.jobs, slots.len(), |fi| {
                let (oi, def) = slots[fi];
                resolve_func(included[oi], def, fi, oi, &placement).map(Arc::new).map_err(Box::new)
            })
        },
    );
    let funcs = funcs
        .into_iter()
        .collect::<Result<Vec<Arc<ImageFunc>>, Box<LinkError>>>()
        .map_err(|e| *e)?;

    // --- build and relocate the data segment ---
    let mut data = vec![0u8; (data_cursor - data_base) as usize];
    for (oi, obj) in included.iter().enumerate() {
        write_data(&mut data, data_base, obj, oi, &placement);
    }

    // --- entry ---
    let entry = match &opts.entry {
        Some(name) => match symbols.get(name) {
            Some(SymbolLoc::Func(fi)) => Some(*fi),
            _ => return Err(LinkError::NoEntry { name: name.clone() }),
        },
        None => None,
    };

    let addr_to_func =
        funcs.iter().enumerate().map(|(i, f)| (f.addr, i as u32)).collect::<BTreeMap<_, _>>();

    let image = Image {
        funcs,
        addr_to_func: Arc::new(addr_to_func),
        data,
        data_base,
        heap_base,
        symbols: Arc::new(symbols),
        intrinsics,
        text_size,
        entry,
    };
    Ok((image, placement))
}

/// The image's symbol map: every name the selection defines, by where it
/// was placed (built from a name-sorted list).
fn symbol_map(sel: &Selection<'_>, placement: &Placement) -> BTreeMap<String, SymbolLoc> {
    let mut defs: Vec<(&str, SymbolLoc)> = Vec::with_capacity(sel.names.len());
    for (name, slot) in &sel.names {
        if let Slot::Defined { obj, sym } = *slot {
            let loc = match placement.tables[obj as usize][sym as usize] {
                Resolved::Func(fi) => SymbolLoc::Func(fi),
                Resolved::Data(a) => SymbolLoc::Data(a),
                Resolved::Intrinsic(_) => continue,
            };
            defs.push((name, loc));
        }
    }
    defs.sort_unstable_by_key(|d| d.0);
    defs.into_iter().map(|(name, loc)| (name.to_string(), loc)).collect()
}

/// Where an undefined symbol-table entry resolves.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Entry `sym` of included object `obj` defines the name.
    Def { obj: u32, sym: u32 },
    /// The runtime provides the name, as this intrinsic.
    Intrinsic(u32),
}

/// What [`layout`] needs of one included object before it places
/// anything.
struct ObjScan {
    /// Encoded size of each function, in `funcs` order.
    sizes: Vec<u64>,
    /// `(symbol-table entry, target)` of each undefined entry.
    undefined: Vec<(u32, Target)>,
}

/// Scan included object `obj` for [`layout`].
fn scan(
    obj: &ObjectFile,
    sel: &Selection<'_>,
    intrinsic_ids: &BTreeMap<&str, u32>,
) -> Result<ObjScan, LinkError> {
    let mut undefined = Vec::new();
    for (si, s) in obj.symbols.iter().enumerate() {
        if s.def != SymDef::Undefined {
            continue;
        }
        let target = match sel.names.get(s.name.as_str()) {
            Some(&Slot::Defined { obj, sym }) => Target::Def { obj, sym },
            _ => match intrinsic_ids.get(s.name.as_str()) {
                Some(&id) => Target::Intrinsic(id),
                // Selection guarantees this cannot happen
                None => {
                    return Err(LinkError::UndefinedReference {
                        name: s.name.clone(),
                        referenced_from: vec![obj.name.clone()],
                    })
                }
            },
        };
        undefined.push((si as u32, target));
    }
    Ok(ObjScan { sizes: obj.funcs.iter().map(FuncDef::size_bytes).collect(), undefined })
}

/// Resolve function `def` of object `oi` (`obj`), placed as image function
/// `fi`: symbolic operands become addresses and call targets.
fn resolve_func(
    obj: &ObjectFile,
    def: &FuncDef,
    fi: usize,
    oi: usize,
    placement: &Placement,
) -> Result<ImageFunc, LinkError> {
    let table = &placement.tables[oi];
    let resolve = |sym: crate::ir::SymId| table[sym.0 as usize];
    let addr = placement.func_addrs[fi];
    let mut body = Vec::with_capacity(def.body.len());
    let mut instr_addrs = Vec::with_capacity(def.body.len());
    let mut instr_sizes = Vec::with_capacity(def.body.len());
    let mut pc = addr;
    for instr in &def.body {
        let size = instr.size_bytes();
        instr_addrs.push(pc);
        instr_sizes.push(size as u16);
        pc += size;
        let r = match instr {
            Instr::Const { dst, value } => RInstr::Const { dst: *dst, value: *value },
            Instr::Mov { dst, src } => RInstr::Mov { dst: *dst, src: *src },
            Instr::Bin { op, dst, a, b } => RInstr::Bin { op: *op, dst: *dst, a: *a, b: *b },
            Instr::Un { op, dst, a } => RInstr::Un { op: *op, dst: *dst, a: *a },
            Instr::Load { dst, addr, offset, width } => {
                RInstr::Load { dst: *dst, addr: *addr, offset: *offset, width: *width }
            }
            Instr::Store { addr, offset, src, width } => {
                RInstr::Store { addr: *addr, offset: *offset, src: *src, width: *width }
            }
            Instr::Addr { dst, sym, offset } => {
                let base = placement.value(resolve(*sym));
                RInstr::Const { dst: *dst, value: base.wrapping_add_signed(*offset) as i64 }
            }
            Instr::FrameAddr { dst, offset } => RInstr::FrameAddr { dst: *dst, offset: *offset },
            Instr::VarArg { dst, idx } => RInstr::VarArg { dst: *dst, idx: *idx },
            Instr::Call { dst, target, args } => {
                let tgt = match resolve(*target) {
                    Resolved::Func(fi) => CallTarget::Func(fi),
                    Resolved::Intrinsic(id) => CallTarget::Intrinsic(id),
                    Resolved::Data(_) => {
                        return Err(LinkError::KindMismatch {
                            name: obj.symbol(*target).name.clone(),
                            from: obj.name.clone(),
                        })
                    }
                };
                RInstr::Call { dst: *dst, target: tgt, args: args.clone() }
            }
            Instr::CallInd { dst, target, args } => {
                RInstr::CallInd { dst: *dst, target: *target, args: args.clone() }
            }
            Instr::Jump { target } => RInstr::Jump { target: *target },
            Instr::Branch { cond, then_to, else_to } => {
                RInstr::Branch { cond: *cond, then_to: *then_to, else_to: *else_to }
            }
            Instr::Ret { value } => RInstr::Ret { value: *value },
            Instr::Nop => RInstr::Nop,
        };
        body.push(r);
    }
    Ok(ImageFunc {
        name: obj.symbol(def.sym).name.clone(),
        addr,
        size: pc - addr,
        params: def.params,
        nregs: def.nregs,
        frame_size: def.frame_size,
        body,
        instr_addrs,
        instr_sizes,
    })
}

/// Copy object `oi`'s (`obj`'s) initialized data into the data segment
/// `data` (based at `data_base`) and patch its relocations. Zeroed tails
/// are left as they are.
fn write_data(data: &mut [u8], data_base: u64, obj: &ObjectFile, oi: usize, placement: &Placement) {
    let table = &placement.tables[oi];
    for d in &obj.data {
        let Resolved::Data(addr) = table[d.sym.0 as usize] else {
            unreachable!("a data definition resolves to its own address")
        };
        let off = (addr - data_base) as usize;
        data[off..off + d.init.len()].copy_from_slice(&d.init);
        for reloc in &d.relocs {
            let value =
                placement.value(table[reloc.sym.0 as usize]).wrapping_add_signed(reloc.addend);
            let at = off + reloc.offset as usize;
            data[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
    }
}

/// How [`Linked::relink`] produced its image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relink {
    /// Every replaced object kept its shape: only those objects' function
    /// bodies and data bytes were re-resolved, into the previous layout.
    Patched {
        /// Objects re-resolved.
        objects: usize,
    },
    /// The object list or the options changed, or some replaced object
    /// changed shape: a full link.
    Full,
}

/// The result of linking a list of explicit objects, kept so the next
/// link of a slightly different list can reuse it.
///
/// [`Linked::relink`] compares the new list with the one linked last. An
/// entry that is the same [`Arc`] is unchanged. When the lists have the
/// same length, the options are equal, and every other entry has the
/// [shape](ObjectFile::same_shape) of the object it replaces, then every
/// address and every symbol resolution is unchanged: only the replaced
/// objects' code and data are resolved again. Any other change runs the
/// full link. Either way the image equals what [`link`] makes of the same
/// objects.
#[derive(Debug)]
pub struct Linked {
    /// The linked image.
    pub image: Image,
    objects: Vec<Arc<ObjectFile>>,
    opts: LinkOptions,
    placement: Placement,
}

impl Linked {
    /// Link `objects`, all explicitly included, in order.
    pub fn link(objects: Vec<Arc<ObjectFile>>, opts: &LinkOptions) -> Result<Linked, LinkError> {
        // Validate on `opts.jobs` workers; an invalid object still reports
        // only once every earlier one is added, as `include` would.
        let invalid = run_indexed(opts.jobs, objects.len(), |i| objects[i].validate().err());
        let mut sel = Selection::with_capacity(objects.iter().map(|o| o.symbols.len()).sum());
        for (o, invalid) in objects.iter().zip(invalid) {
            if let Some(e) = invalid {
                return Err(e.into());
            }
            sel.add(o, opts)?;
        }
        let (image, placement) = layout(&sel.finish()?, opts)?;
        Ok(Linked { image, objects, opts: opts.clone(), placement })
    }

    /// Relink with `objects` and `opts` in place of the last link's. On an
    /// error `self` is left as it was.
    pub fn relink(
        &mut self,
        objects: Vec<Arc<ObjectFile>>,
        opts: &LinkOptions,
    ) -> Result<Relink, LinkError> {
        let Some(changed) = self.replaced_same_shape(&objects, opts) else {
            *self = Linked::link(objects, opts)?;
            return Ok(Relink::Full);
        };
        for &oi in &changed {
            objects[oi].validate()?;
        }
        // Resolve in placement order, as the full link does, so the first
        // error reported is the same one.
        let mut slots: Vec<(usize, usize, &FuncDef)> = Vec::new();
        for &oi in &changed {
            for def in &objects[oi].funcs {
                let Resolved::Func(fi) = self.placement.tables[oi][def.sym.0 as usize] else {
                    unreachable!("a function definition resolves to its own slot")
                };
                slots.push((fi as usize, oi, def));
            }
        }
        slots.sort_unstable_by_key(|s| s.0);
        let mut funcs = Vec::with_capacity(slots.len());
        for &(fi, oi, def) in &slots {
            funcs.push((fi, resolve_func(&objects[oi], def, fi, oi, &self.placement)?));
        }
        for (fi, f) in funcs {
            self.image.funcs[fi] = Arc::new(f);
        }
        for &oi in &changed {
            write_data(
                &mut self.image.data,
                self.image.data_base,
                &objects[oi],
                oi,
                &self.placement,
            );
        }
        self.objects = objects;
        Ok(Relink::Patched { objects: changed.len() })
    }

    /// Indices of the entries of `objects` that replace an object of the
    /// last link, or `None` when a relink would not keep the placement.
    fn replaced_same_shape(
        &self,
        objects: &[Arc<ObjectFile>],
        opts: &LinkOptions,
    ) -> Option<Vec<usize>> {
        if objects.len() != self.objects.len() || *opts != self.opts {
            return None;
        }
        let mut changed = Vec::new();
        for (oi, (new, old)) in objects.iter().zip(&self.objects).enumerate() {
            if Arc::ptr_eq(new, old) {
                continue;
            }
            if !new.same_shape(old) {
                return None;
            }
            changed.push(oi);
        }
        Some(changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;
    use crate::object::{DataDef, DataReloc, Symbol};

    /// Object defining `name` as a function that returns `ret`, optionally
    /// calling `calls` first.
    fn func_obj(objname: &str, name: &str, ret: i64, calls: &[&str]) -> ObjectFile {
        let mut o = ObjectFile::new(objname);
        let f = o.add_symbol(Symbol::func(name));
        let mut body = Vec::new();
        for c in calls {
            let cs = o.find_symbol(c).unwrap_or_else(|| o.add_symbol(Symbol::undef(*c)));
            body.push(Instr::Call { dst: None, target: cs, args: vec![] });
        }
        body.push(Instr::Const { dst: 0, value: ret });
        body.push(Instr::Ret { value: Some(0) });
        o.funcs.push(FuncDef { sym: f, params: 0, nregs: 1, frame_size: 0, body });
        o
    }

    #[test]
    fn simple_link_resolves_calls() {
        let a = func_obj("main.o", "main", 1, &["helper"]);
        let b = func_obj("help.o", "helper", 2, &[]);
        let img =
            link(&[LinkInput::Object(a), LinkInput::Object(b)], &LinkOptions::new("main", []))
                .unwrap();
        assert_eq!(img.funcs.len(), 2);
        let main = &img.funcs[img.entry.unwrap() as usize];
        assert!(matches!(
            main.body[0],
            RInstr::Call { target: CallTarget::Func(fi), .. } if img.funcs[fi as usize].name == "helper"
        ));
    }

    #[test]
    fn undefined_reference_is_an_error() {
        let a = func_obj("main.o", "main", 1, &["missing"]);
        let err = link(&[LinkInput::Object(a)], &LinkOptions::new("main", [])).unwrap_err();
        match err {
            LinkError::UndefinedReference { name, referenced_from } => {
                assert_eq!(name, "missing");
                assert_eq!(referenced_from, vec!["main.o".to_string()]);
            }
            other => panic!("expected undefined reference, got {other}"),
        }
    }

    #[test]
    fn multiple_definition_is_an_error() {
        let a = func_obj("a.o", "f", 1, &[]);
        let b = func_obj("b.o", "f", 2, &[]);
        let err = link(&[LinkInput::Object(a), LinkInput::Object(b)], &LinkOptions::default())
            .unwrap_err();
        assert!(matches!(err, LinkError::MultipleDefinition { .. }));
    }

    #[test]
    fn archive_member_pulled_only_on_demand() {
        let main = func_obj("main.o", "main", 1, &["used"]);
        let lib = Archive::from_members(
            "lib.a",
            vec![func_obj("used.o", "used", 2, &[]), func_obj("unused.o", "unused", 3, &[])],
        );
        let img = link(
            &[LinkInput::Object(main), LinkInput::Archive(lib)],
            &LinkOptions::new("main", []),
        )
        .unwrap();
        // `unused.o` must not be included.
        assert_eq!(img.funcs.len(), 2);
        assert!(img.func_by_name("unused").is_none());
    }

    #[test]
    fn archive_pull_reaches_fixpoint() {
        // main -> a, a -> b, both in the same archive, b appearing first:
        // requires the re-scan loop.
        let main = func_obj("main.o", "main", 1, &["a"]);
        let lib = Archive::from_members(
            "lib.a",
            vec![func_obj("b.o", "b", 2, &[]), func_obj("a.o", "a", 3, &["b"])],
        );
        let img = link(
            &[LinkInput::Object(main), LinkInput::Archive(lib)],
            &LinkOptions::new("main", []),
        )
        .unwrap();
        assert_eq!(img.funcs.len(), 3);
    }

    #[test]
    fn override_by_ordering_works_like_the_oskit_used_it() {
        // Paper §5.1: placing a replacement object before the original
        // library overrides the component.
        let main = func_obj("main.o", "main", 1, &["console_putc"]);
        let replacement = func_obj("serial.o", "console_putc", 42, &[]);
        let lib = Archive::from_members("libc.a", vec![func_obj("vga.o", "console_putc", 7, &[])]);
        let img = link(
            &[LinkInput::Object(main), LinkInput::Object(replacement), LinkInput::Archive(lib)],
            &LinkOptions::new("main", []),
        )
        .unwrap();
        // The archive member is skipped because the symbol is already
        // defined; the replacement wins.
        assert_eq!(img.funcs.len(), 2);
        let f = img.func_by_name("console_putc").unwrap();
        assert!(matches!(img.funcs[f as usize].body[0], RInstr::Const { value: 42, .. }));
    }

    #[test]
    fn interposition_is_impossible_with_ld() {
        // Figure 1(c): we want logger between main and serve, but all three
        // pieces speak the same symbol `serve`. Including both providers of
        // `serve` is a multiple-definition error — ld cannot build the
        // three-piece puzzle.
        let main = func_obj("main.o", "main", 1, &["serve"]);
        let real = func_obj("serve.o", "serve", 2, &[]);
        // logger exports `serve` and imports `serve` (impossible to express
        // in one object without renaming — we must split the name, which is
        // precisely the problem).
        let logger = func_obj("log.o", "serve", 3, &[]);
        let err = link(
            &[LinkInput::Object(main), LinkInput::Object(logger), LinkInput::Object(real)],
            &LinkOptions::new("main", []),
        )
        .unwrap_err();
        assert!(matches!(err, LinkError::MultipleDefinition { .. }));
    }

    #[test]
    fn runtime_symbols_become_intrinsics() {
        let main = func_obj("main.o", "main", 1, &["__halt"]);
        let img =
            link(&[LinkInput::Object(main)], &LinkOptions::new("main", ["__halt".to_string()]))
                .unwrap();
        assert_eq!(img.intrinsics, vec!["__halt".to_string()]);
        assert!(matches!(
            img.funcs[0].body[0],
            RInstr::Call { target: CallTarget::Intrinsic(0), .. }
        ));
    }

    #[test]
    fn object_definition_overrides_runtime_symbol() {
        let main = func_obj("main.o", "main", 1, &["__halt"]);
        let own = func_obj("halt.o", "__halt", 9, &[]);
        let img = link(
            &[LinkInput::Object(main), LinkInput::Object(own)],
            &LinkOptions::new("main", ["__halt".to_string()]),
        )
        .unwrap();
        assert!(matches!(img.funcs[0].body[0], RInstr::Call { target: CallTarget::Func(_), .. }));
    }

    #[test]
    fn data_relocation_patches_function_address() {
        // A vtable-like data object holding a function pointer.
        let mut o = ObjectFile::new("vt.o");
        let f = o.add_symbol(Symbol::func("handler"));
        let v = o.add_symbol(Symbol::data("vtable"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![Instr::Const { dst: 0, value: 5 }, Instr::Ret { value: Some(0) }],
        });
        o.data.push(DataDef {
            sym: v,
            init: vec![0; 8],
            zeroed: 0,
            relocs: vec![DataReloc { offset: 0, sym: f, addend: 0 }],
            align: 8,
        });
        let img = link(&[LinkInput::Object(o)], &LinkOptions::default()).unwrap();
        let vaddr = img.data_by_name("vtable").unwrap();
        let off = (vaddr - img.data_base) as usize;
        let ptr = u64::from_le_bytes(img.data[off..off + 8].try_into().unwrap());
        assert_eq!(img.func_at_addr(ptr), Some(0));
    }

    #[test]
    fn text_layout_is_aligned_and_sized() {
        let a = func_obj("a.o", "f", 1, &[]);
        let b = func_obj("b.o", "g", 2, &[]);
        let img =
            link(&[LinkInput::Object(a), LinkInput::Object(b)], &LinkOptions::default()).unwrap();
        for f in &img.funcs {
            assert_eq!(f.addr % FUNC_ALIGN, 0);
            assert_eq!(f.size, f.instr_sizes.iter().map(|&s| s as u64).sum::<u64>());
            // instruction addresses are contiguous
            for i in 1..f.body.len() {
                assert_eq!(f.instr_addrs[i], f.instr_addrs[i - 1] + f.instr_sizes[i - 1] as u64);
            }
        }
        assert_eq!(img.text_size, 6 + 6);
        assert!(img.data_base >= TEXT_BASE);
        assert!(img.heap_base >= img.data_base);
    }

    #[test]
    fn default_layout_pins_historical_input_order_placement() {
        // Pin the exact placement the pre-strategy linker produced: input
        // order, each function aligned to FUNC_ALIGN. Each func_obj body
        // (Const + Ret) encodes to 6 bytes, so with 16-byte alignment the
        // three functions land at fixed, known addresses.
        let objs = [
            func_obj("a.o", "f", 1, &[]),
            func_obj("b.o", "g", 2, &[]),
            func_obj("c.o", "h", 3, &[]),
        ];
        let inputs: Vec<LinkInput> = objs.iter().cloned().map(LinkInput::Object).collect();
        let img = link(&inputs, &LinkOptions::default()).unwrap();
        let names: Vec<&str> = img.funcs.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["f", "g", "h"], "input order preserved");
        assert_eq!(
            img.funcs.iter().map(|f| f.addr).collect::<Vec<_>>(),
            vec![TEXT_BASE, TEXT_BASE + 16, TEXT_BASE + 32],
        );
        // An explicit InputOrder strategy is the same image, byte for byte
        // (Image's PartialEq compares every function body, address, datum,
        // and symbol).
        let explicit =
            link(&inputs, &LinkOptions::default().with_layout(crate::layout::Layout::InputOrder))
                .unwrap();
        assert_eq!(img, explicit);
    }

    #[test]
    fn profile_guided_layout_moves_cold_code_behind_hot() {
        use crate::layout::{Layout, LayoutProfile};
        // main calls hot; cold is linked between them in input order.
        let objs = [
            func_obj("main.o", "main", 1, &["hot"]),
            func_obj("cold.o", "cold", 2, &[]),
            func_obj("hot.o", "hot", 3, &[]),
        ];
        let inputs: Vec<LinkInput> = objs.iter().cloned().map(LinkInput::Object).collect();
        let mut p = LayoutProfile::default();
        p.record_edge("main", "hot", 100);
        p.record_func("main", 10);
        p.record_func("hot", 10);
        let img =
            link(&inputs, &LinkOptions::new("main", []).with_layout(Layout::ProfileGuided(p)))
                .unwrap();
        let names: Vec<&str> = img.funcs.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["main", "hot", "cold"], "hot pair adjacent, cold tail");
        // Same function set and sizes as the default layout, different order.
        let base = link(&inputs, &LinkOptions::new("main", [])).unwrap();
        let mut a: Vec<(String, u64)> =
            base.funcs.iter().map(|f| (f.name.clone(), f.size)).collect();
        let mut b: Vec<(String, u64)> =
            img.funcs.iter().map(|f| (f.name.clone(), f.size)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The call still resolves to the right function.
        let main = img.entry.unwrap() as usize;
        assert!(matches!(
            img.funcs[main].body[0],
            RInstr::Call { target: CallTarget::Func(fi), .. }
                if img.funcs[fi as usize].name == "hot"
        ));
    }

    #[test]
    fn entry_must_be_defined_function() {
        let a = func_obj("a.o", "f", 1, &[]);
        let err = link(&[LinkInput::Object(a)], &LinkOptions::new("main", [])).unwrap_err();
        assert!(matches!(err, LinkError::NoEntry { .. }));
    }

    #[test]
    fn local_symbols_do_not_clash_across_objects() {
        // Two objects both defining a local (static) `helper` and a global
        // calling it: legal under ld, each resolves to its own copy.
        fn with_static(objname: &str, global: &str, ret: i64) -> ObjectFile {
            let mut o = ObjectFile::new(objname);
            let h = o.add_symbol(Symbol::local_func("helper"));
            let g = o.add_symbol(Symbol::func(global));
            o.funcs.push(FuncDef {
                sym: h,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![Instr::Const { dst: 0, value: ret }, Instr::Ret { value: Some(0) }],
            });
            o.funcs.push(FuncDef {
                sym: g,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![
                    Instr::Call { dst: Some(0), target: h, args: vec![] },
                    Instr::Ret { value: Some(0) },
                ],
            });
            o
        }
        let img = link(
            &[
                LinkInput::Object(with_static("a.o", "fa", 10)),
                LinkInput::Object(with_static("b.o", "fb", 20)),
            ],
            &LinkOptions::default(),
        )
        .unwrap();
        assert_eq!(img.funcs.len(), 4);
        // fa's call goes to a.o's helper, fb's to b.o's.
        let fa = img.func_by_name("fa").unwrap() as usize;
        let fb = img.func_by_name("fb").unwrap() as usize;
        let target_of = |fi: usize| match img.funcs[fi].body[0] {
            RInstr::Call { target: CallTarget::Func(t), .. } => t as usize,
            _ => panic!("expected call"),
        };
        let ha = target_of(fa);
        let hb = target_of(fb);
        assert_ne!(ha, hb);
        assert!(matches!(img.funcs[ha].body[0], RInstr::Const { value: 10, .. }));
        assert!(matches!(img.funcs[hb].body[0], RInstr::Const { value: 20, .. }));
    }
}
