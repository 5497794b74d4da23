//! Relocatable object files.
//!
//! An [`ObjectFile`] is the unit of linking: a symbol table plus function
//! (text) and data definitions. This mirrors the paper's world, where every
//! component ultimately becomes one or more `.o` files — "puzzle pieces"
//! whose *tabs* are defined global symbols and whose *notches* are
//! undefined references (Figure 1 of the paper).

use std::collections::BTreeSet;

use crate::error::ObjectError;
use crate::fnv::FnvMap;
use crate::ir::{Instr, SymId};

/// What a defined symbol names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymKind {
    /// A function in the text section.
    Func,
    /// An object in the data/bss section.
    Data,
}

/// Definition state of a symbol table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymDef {
    /// Defined in this object. `local` symbols (C `static`) are invisible
    /// to cross-object resolution — the "tabs" that are really private,
    /// which the paper calls out as a source of confusion under `ld`.
    Defined { kind: SymKind, local: bool },
    /// Referenced here, defined elsewhere (a "notch").
    Undefined,
}

/// A symbol table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// The symbol's name in the (global, for non-local symbols) namespace.
    pub name: String,
    /// Whether and how the symbol is defined.
    pub def: SymDef,
}

impl Symbol {
    /// A defined global function symbol.
    pub fn func(name: impl Into<String>) -> Self {
        Symbol { name: name.into(), def: SymDef::Defined { kind: SymKind::Func, local: false } }
    }

    /// A defined local (static) function symbol.
    pub fn local_func(name: impl Into<String>) -> Self {
        Symbol { name: name.into(), def: SymDef::Defined { kind: SymKind::Func, local: true } }
    }

    /// A defined global data symbol.
    pub fn data(name: impl Into<String>) -> Self {
        Symbol { name: name.into(), def: SymDef::Defined { kind: SymKind::Data, local: false } }
    }

    /// A defined local (static) data symbol.
    pub fn local_data(name: impl Into<String>) -> Self {
        Symbol { name: name.into(), def: SymDef::Defined { kind: SymKind::Data, local: true } }
    }

    /// An undefined reference.
    pub fn undef(name: impl Into<String>) -> Self {
        Symbol { name: name.into(), def: SymDef::Undefined }
    }

    /// True if the symbol is defined in its object.
    pub fn is_defined(&self) -> bool {
        matches!(self.def, SymDef::Defined { .. })
    }

    /// True if the symbol is defined and visible to other objects.
    pub fn is_global_def(&self) -> bool {
        matches!(self.def, SymDef::Defined { local: false, .. })
    }
}

/// A function definition in an object's text section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDef {
    /// Symbol table entry this function defines.
    pub sym: SymId,
    /// Number of named parameters; by convention they arrive in registers
    /// `0..params`.
    pub params: u32,
    /// Number of virtual registers the body uses.
    pub nregs: u32,
    /// Bytes of stack frame for address-taken locals and arrays.
    pub frame_size: u32,
    /// The instruction stream. Jump targets are indices into this vector.
    pub body: Vec<Instr>,
}

impl FuncDef {
    /// Encoded size of the function in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.body.iter().map(Instr::size_bytes).sum()
    }
}

/// An absolute 8-byte relocation within a data definition (e.g. a function
/// pointer in a vtable, or a pointer to a string literal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataReloc {
    /// Byte offset within the data definition where the 8-byte little-endian
    /// address is written.
    pub offset: u64,
    /// The symbol whose address is taken.
    pub sym: SymId,
    /// Constant added to the symbol's address.
    pub addend: i64,
}

/// A data definition (initialized bytes plus a zeroed tail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataDef {
    /// Symbol table entry this data defines.
    pub sym: SymId,
    /// Initialized bytes.
    pub init: Vec<u8>,
    /// Additional zeroed bytes after `init` (bss).
    pub zeroed: u64,
    /// Relocations patching addresses into `init`.
    pub relocs: Vec<DataReloc>,
    /// Required alignment in bytes (power of two).
    pub align: u64,
}

impl DataDef {
    /// Total size (initialized + zeroed) in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.init.len() as u64 + self.zeroed
    }
}

/// A relocatable object file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObjectFile {
    /// Name for diagnostics (e.g. `"log.o"` or a unit instance path).
    pub name: String,
    /// The symbol table. Instructions and relocations index into this.
    pub symbols: Vec<Symbol>,
    /// Function definitions (the text section).
    pub funcs: Vec<FuncDef>,
    /// Data definitions (the data/bss sections).
    pub data: Vec<DataDef>,
}

impl ObjectFile {
    /// Create an empty object with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ObjectFile { name: name.into(), ..Default::default() }
    }

    /// Add a symbol, returning its id. Does not check for duplicates; use
    /// [`ObjectFile::validate`] after construction.
    pub fn add_symbol(&mut self, sym: Symbol) -> SymId {
        let id = SymId(self.symbols.len() as u32);
        self.symbols.push(sym);
        id
    }

    /// Find a symbol id by name.
    pub fn find_symbol(&self, name: &str) -> Option<SymId> {
        self.symbols.iter().position(|s| s.name == name).map(|i| SymId(i as u32))
    }

    /// Look up a symbol entry.
    pub fn symbol(&self, id: SymId) -> &Symbol {
        &self.symbols[id.0 as usize]
    }

    /// Names of globally visible definitions (the "tabs").
    pub fn exported_names(&self) -> BTreeSet<&str> {
        self.symbols.iter().filter(|s| s.is_global_def()).map(|s| s.name.as_str()).collect()
    }

    /// Names of undefined references (the "notches").
    pub fn undefined_names(&self) -> BTreeSet<&str> {
        self.symbols
            .iter()
            .filter(|s| s.def == SymDef::Undefined)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Total text bytes in this object.
    pub fn text_size(&self) -> u64 {
        self.funcs.iter().map(FuncDef::size_bytes).sum()
    }

    /// True when `self` and `other` have the same *shape*: equal symbol
    /// tables (names and definitions, in order), functions with the same
    /// symbols and encoded sizes, and data with the same symbols, initialized
    /// lengths, zeroed tails and alignments. Swapping an object for one of
    /// the same shape moves no address and no symbol resolution in a link,
    /// which is what lets [`crate::ld::Linked::relink`] patch it in place.
    pub fn same_shape(&self, other: &ObjectFile) -> bool {
        self.symbols == other.symbols
            && self.funcs.len() == other.funcs.len()
            && self.data.len() == other.data.len()
            && self
                .funcs
                .iter()
                .zip(&other.funcs)
                .all(|(a, b)| a.sym == b.sym && a.size_bytes() == b.size_bytes())
            && self.data.iter().zip(&other.data).all(|(a, b)| {
                a.sym == b.sym
                    && a.init.len() == b.init.len()
                    && a.zeroed == b.zeroed
                    && a.align == b.align
            })
    }

    /// Structural validation: every symbol reference is in range, every
    /// defined func/data symbol has exactly one body, jump targets are in
    /// range, and no two symbols share a name unless both are local or one
    /// is the undefined twin of nothing.
    pub fn validate(&self) -> Result<(), ObjectError> {
        let nsyms = self.symbols.len() as u32;
        let check = |id: SymId, what: &str| -> Result<(), ObjectError> {
            if id.0 >= nsyms {
                return Err(ObjectError::BadSymbolIndex {
                    object: self.name.clone(),
                    index: id.0,
                    context: what.to_string(),
                });
            }
            Ok(())
        };

        // name -> whether the latest entry of that name defines it
        let mut seen_names: FnvMap<&str, bool> =
            FnvMap::with_capacity_and_hasher(self.symbols.len(), Default::default());
        for s in &self.symbols {
            // Two entries with the same name are only legal if at most
            // one of them defines it (an object may both reference and
            // define a name through separate entries only by mistake).
            if seen_names.insert(s.name.as_str(), s.is_defined()) == Some(true) && s.is_defined() {
                return Err(ObjectError::DuplicateSymbol {
                    object: self.name.clone(),
                    name: s.name.clone(),
                });
            }
        }

        // by symbol id: whether a function or data body defines it
        let mut defined_bodies: Vec<bool> = vec![false; self.symbols.len()];
        for f in &self.funcs {
            check(f.sym, "function definition")?;
            let sym = self.symbol(f.sym);
            match sym.def {
                SymDef::Defined { kind: SymKind::Func, .. } => {}
                _ => {
                    return Err(ObjectError::SymbolKindMismatch {
                        object: self.name.clone(),
                        name: sym.name.clone(),
                        expected: "defined function".to_string(),
                    })
                }
            }
            if std::mem::replace(&mut defined_bodies[f.sym.0 as usize], true) {
                return Err(ObjectError::DuplicateSymbol {
                    object: self.name.clone(),
                    name: sym.name.clone(),
                });
            }
            let n = f.body.len();
            for (i, instr) in f.body.iter().enumerate() {
                if let Some(id) = instr.sym_ref() {
                    check(id, "instruction operand")?;
                }
                let bad_target = match instr {
                    Instr::Jump { target } => *target >= n,
                    Instr::Branch { then_to, else_to, .. } => *then_to >= n || *else_to >= n,
                    _ => false,
                };
                if bad_target {
                    return Err(ObjectError::BadJumpTarget {
                        object: self.name.clone(),
                        func: sym.name.clone(),
                        at: i,
                    });
                }
            }
        }
        for d in &self.data {
            check(d.sym, "data definition")?;
            let sym = self.symbol(d.sym);
            match sym.def {
                SymDef::Defined { kind: SymKind::Data, .. } => {}
                _ => {
                    return Err(ObjectError::SymbolKindMismatch {
                        object: self.name.clone(),
                        name: sym.name.clone(),
                        expected: "defined data".to_string(),
                    })
                }
            }
            if std::mem::replace(&mut defined_bodies[d.sym.0 as usize], true) {
                return Err(ObjectError::DuplicateSymbol {
                    object: self.name.clone(),
                    name: sym.name.clone(),
                });
            }
            if !d.align.is_power_of_two() {
                return Err(ObjectError::BadAlignment {
                    object: self.name.clone(),
                    name: sym.name.clone(),
                    align: d.align,
                });
            }
            for r in &d.relocs {
                check(r.sym, "data relocation")?;
                if r.offset + 8 > d.init.len() as u64 {
                    return Err(ObjectError::RelocOutOfRange {
                        object: self.name.clone(),
                        name: sym.name.clone(),
                        offset: r.offset,
                    });
                }
            }
        }
        // Every defined symbol must have a body.
        for (i, s) in self.symbols.iter().enumerate() {
            if s.is_defined() && !defined_bodies[i] {
                return Err(ObjectError::MissingBody {
                    object: self.name.clone(),
                    name: s.name.clone(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Instr, Width};

    fn obj_with_func() -> ObjectFile {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("f"));
        let g = o.add_symbol(Symbol::undef("g"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![
                Instr::Call { dst: Some(0), target: g, args: vec![] },
                Instr::Ret { value: Some(0) },
            ],
        });
        o
    }

    #[test]
    fn tabs_and_notches() {
        let o = obj_with_func();
        assert!(o.exported_names().contains("f"));
        assert!(o.undefined_names().contains("g"));
        assert!(o.validate().is_ok());
    }

    #[test]
    fn local_symbols_are_not_exported() {
        let mut o = ObjectFile::new("t.o");
        let s = o.add_symbol(Symbol::local_func("helper"));
        o.funcs.push(FuncDef {
            sym: s,
            params: 0,
            nregs: 0,
            frame_size: 0,
            body: vec![Instr::Ret { value: None }],
        });
        assert!(o.exported_names().is_empty());
        assert!(o.validate().is_ok());
    }

    #[test]
    fn validate_rejects_missing_body() {
        let mut o = ObjectFile::new("t.o");
        o.add_symbol(Symbol::func("f"));
        assert!(matches!(o.validate(), Err(ObjectError::MissingBody { .. })));
    }

    #[test]
    fn validate_rejects_bad_jump() {
        let mut o = ObjectFile::new("t.o");
        let f = o.add_symbol(Symbol::func("f"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 0,
            frame_size: 0,
            body: vec![Instr::Jump { target: 5 }],
        });
        assert!(matches!(o.validate(), Err(ObjectError::BadJumpTarget { .. })));
    }

    #[test]
    fn validate_rejects_duplicate_definition() {
        let mut o = ObjectFile::new("t.o");
        o.add_symbol(Symbol::func("f"));
        o.add_symbol(Symbol::func("f"));
        assert!(matches!(o.validate(), Err(ObjectError::DuplicateSymbol { .. })));
    }

    #[test]
    fn validate_rejects_reloc_out_of_range() {
        let mut o = ObjectFile::new("t.o");
        let d = o.add_symbol(Symbol::data("v"));
        let f = o.add_symbol(Symbol::undef("f"));
        o.data.push(DataDef {
            sym: d,
            init: vec![0; 8],
            zeroed: 0,
            relocs: vec![DataReloc { offset: 4, sym: f, addend: 0 }],
            align: 8,
        });
        assert!(matches!(o.validate(), Err(ObjectError::RelocOutOfRange { .. })));
    }

    #[test]
    fn validate_rejects_bad_alignment() {
        let mut o = ObjectFile::new("t.o");
        let d = o.add_symbol(Symbol::data("v"));
        o.data.push(DataDef { sym: d, init: vec![], zeroed: 8, relocs: vec![], align: 3 });
        assert!(matches!(o.validate(), Err(ObjectError::BadAlignment { .. })));
    }

    #[test]
    fn sizes_sum() {
        let o = obj_with_func();
        assert_eq!(o.text_size(), 5 + 1);
        let d = DataDef { sym: SymId(0), init: vec![1, 2], zeroed: 6, relocs: vec![], align: 1 };
        assert_eq!(d.size_bytes(), 8);
        let _ = Width::W4; // silence unused import in some cfgs
    }
}
