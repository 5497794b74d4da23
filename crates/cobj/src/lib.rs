//! # cobj — object-file substrate
//!
//! This crate models the object-file layer that Knit (OSDI 2000) builds on:
//! relocatable object files produced by a C compiler, archives (`.a`
//! libraries), an `objcopy`-style symbol rename/duplicate pass, and a
//! bag-of-objects `ld` with classic Unix semantics (archive member pull-in,
//! order-dependent override, global namespace).
//!
//! The paper's Knit pipeline is: *Knit compiler → C compiler → modified
//! `objcopy` (renaming + duplication for multiply-instantiated units) → `ld`*.
//! We reproduce that pipeline over a simulated instruction set:
//!
//! * [`ir`] — the instruction set that "compiled" code is made of, with a
//!   byte-size model (the source of the paper's *text size* column).
//! * [`object`] — relocatable object files: symbols, function and data
//!   definitions, relocations.
//! * [`archive`] — ordered collections of objects with ld's member-inclusion
//!   rule.
//! * [`objcopy`] — symbol renaming and whole-object duplication, the
//!   mechanism behind Knit's wiring and multiple instantiation.
//! * [`ld`] — the baseline linker (Section 2.1 of the paper): a faithful
//!   reproduction of the "bag of objects" semantics, including its inability
//!   to express interposition (Figure 1c).
//! * [`fnv`] — the FNV-1a hasher behind every hot string-keyed table.
//! * [`par`] — deterministic index-ordered fan-out over scoped threads.
//! * [`image`] — fully linked, relocated program images with a byte-accurate
//!   text layout, executed by the `machine` crate.

pub mod archive;
pub mod error;
pub mod fnv;
pub mod image;
pub mod ir;
pub mod layout;
pub mod ld;
pub mod objcopy;
pub mod object;
pub mod par;

pub use archive::Archive;
pub use error::{LinkError, ObjectError};
pub use image::{CallTarget, Image, ImageFunc, RInstr, SymbolLoc};
pub use ir::{BinOp, Instr, SymId, UnOp, Width};
pub use layout::{Layout, LayoutProfile};
pub use ld::{link, LinkInput, LinkOptions, Linked, Relink};
pub use object::{DataDef, DataReloc, FuncDef, ObjectFile, SymDef, SymKind, Symbol};
