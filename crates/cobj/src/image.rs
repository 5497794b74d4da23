//! Fully linked program images.
//!
//! An [`Image`] is what `ld` produces: all included functions laid out at
//! byte addresses in a text segment, all data placed and relocated in a data
//! segment, and every symbolic operand resolved. The byte layout is real in
//! the sense that the `machine` crate's I-cache simulator indexes cache sets
//! by these addresses — so code locality effects (the I-fetch stall column
//! of the paper's Table 1) emerge from layout, exactly as on hardware.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ir::{BinOp, Reg, UnOp, Width};

/// Base virtual address of the text segment.
pub const TEXT_BASE: u64 = 0x10000;

/// Base of the reserved range where runtime intrinsics get fake addresses,
/// so that the address of an intrinsic can be taken and called indirectly.
pub const INTRINSIC_BASE: u64 = 0x100;

/// Spacing between intrinsic fake addresses.
pub const INTRINSIC_STRIDE: u64 = 16;

/// Alignment of each function's entry point.
pub const FUNC_ALIGN: u64 = 16;

/// Where a resolved call lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallTarget {
    /// An image function, by index into [`Image::funcs`].
    Func(u32),
    /// A runtime intrinsic, by index into [`Image::intrinsics`].
    Intrinsic(u32),
}

/// Location of a linked symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolLoc {
    /// A function, by image function index.
    Func(u32),
    /// A data object, by absolute address.
    Data(u64),
}

/// A resolved instruction. Identical to [`crate::ir::Instr`] except that
/// symbolic operands have been replaced: `Addr` became a constant, and
/// direct calls carry a [`CallTarget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RInstr {
    /// `dst = value` (also carries resolved `Addr` results).
    Const { dst: Reg, value: i64 },
    /// `dst = src`.
    Mov { dst: Reg, src: Reg },
    /// `dst = a <op> b`.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst = <op> a`.
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst = mem[addr + offset]`.
    Load { dst: Reg, addr: Reg, offset: i64, width: Width },
    /// `mem[addr + offset] = src`.
    Store { addr: Reg, offset: i64, src: Reg, width: Width },
    /// `dst = frame_pointer + offset`.
    FrameAddr { dst: Reg, offset: i64 },
    /// `dst = varargs[idx]`.
    VarArg { dst: Reg, idx: Reg },
    /// Direct call to a resolved target.
    Call { dst: Option<Reg>, target: CallTarget, args: Vec<Reg> },
    /// Indirect call through a register holding a code address.
    CallInd { dst: Option<Reg>, target: Reg, args: Vec<Reg> },
    /// Unconditional jump (instruction index within this function).
    Jump { target: usize },
    /// Conditional branch.
    Branch { cond: Reg, then_to: usize, else_to: usize },
    /// Return.
    Ret { value: Option<Reg> },
    /// No operation.
    Nop,
}

/// A function placed in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageFunc {
    /// Link-level name (post-`objcopy`, so possibly mangled).
    pub name: String,
    /// Entry address in the text segment.
    pub addr: u64,
    /// Encoded size in bytes.
    pub size: u64,
    /// Number of named parameters.
    pub params: u32,
    /// Number of virtual registers.
    pub nregs: u32,
    /// Stack frame size in bytes.
    pub frame_size: u32,
    /// Resolved body.
    pub body: Vec<RInstr>,
    /// Byte address of each instruction (parallel to `body`).
    pub instr_addrs: Vec<u64>,
    /// Encoded byte size of each instruction (parallel to `body`).
    pub instr_sizes: Vec<u16>,
}

/// A linked, executable program image. `PartialEq` compares every byte of
/// layout and code — two images are `==` exactly when they are
/// byte-identical, which the parallel/cached build pipeline's determinism
/// tests rely on.
///
/// The bulk of an image is shared, not owned: each function and the two
/// lookup maps sit behind an [`Arc`], so `clone` copies one pointer per
/// function plus the data segment, and a relink
/// ([`crate::ld::Linked::relink`]) replaces only the functions it
/// re-resolved. Equality still compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// All functions, laid out in link order starting at [`TEXT_BASE`].
    pub funcs: Vec<Arc<ImageFunc>>,
    /// Map from function entry address to function index (for indirect
    /// calls through function pointers).
    pub addr_to_func: Arc<BTreeMap<u64, u32>>,
    /// The data segment contents (initialized + zeroed), based at
    /// [`Image::data_base`].
    pub data: Vec<u8>,
    /// Base address of the data segment.
    pub data_base: u64,
    /// First address past the data segment; the machine's heap starts here.
    pub heap_base: u64,
    /// Link-visible symbols by (post-rename) name.
    pub symbols: Arc<BTreeMap<String, SymbolLoc>>,
    /// Runtime intrinsic names, in id order. `CallTarget::Intrinsic(i)`
    /// refers to `intrinsics[i]`.
    pub intrinsics: Vec<String>,
    /// Total text bytes (the paper's "text size" column).
    pub text_size: u64,
    /// Entry function index, if an entry symbol was requested.
    pub entry: Option<u32>,
}

impl Image {
    /// Look up a function index by link-level name.
    pub fn func_by_name(&self, name: &str) -> Option<u32> {
        match self.symbols.get(name) {
            Some(SymbolLoc::Func(i)) => Some(*i),
            _ => None,
        }
    }

    /// Look up a data symbol's address by name.
    pub fn data_by_name(&self, name: &str) -> Option<u64> {
        match self.symbols.get(name) {
            Some(SymbolLoc::Data(a)) => Some(*a),
            _ => None,
        }
    }

    /// Resolve a code address to a function index (indirect calls).
    pub fn func_at_addr(&self, addr: u64) -> Option<u32> {
        self.addr_to_func.get(&addr).copied()
    }

    /// The fake address assigned to intrinsic `id`.
    pub fn intrinsic_addr(id: u32) -> u64 {
        INTRINSIC_BASE + INTRINSIC_STRIDE * id as u64
    }

    /// Reverse of [`Image::intrinsic_addr`]: which intrinsic, if any, lives
    /// at `addr`.
    pub fn intrinsic_at_addr(&self, addr: u64) -> Option<u32> {
        if addr < INTRINSIC_BASE {
            return None;
        }
        let off = addr - INTRINSIC_BASE;
        if !off.is_multiple_of(INTRINSIC_STRIDE) {
            return None;
        }
        let id = (off / INTRINSIC_STRIDE) as u32;
        if (id as usize) < self.intrinsics.len() && addr < TEXT_BASE {
            Some(id)
        } else {
            None
        }
    }
}

/// Align `v` up to `align` (a power of two).
pub fn align_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (v + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 16), 0);
        assert_eq!(align_up(1, 16), 16);
        assert_eq!(align_up(16, 16), 16);
        assert_eq!(align_up(17, 8), 24);
    }

    #[test]
    fn intrinsic_addresses_round_trip() {
        let img = Image {
            funcs: vec![],
            addr_to_func: Arc::default(),
            data: vec![],
            data_base: 0x20000,
            heap_base: 0x30000,
            symbols: Arc::default(),
            intrinsics: vec!["__con_putc".into(), "__halt".into()],
            text_size: 0,
            entry: None,
        };
        for id in 0..2u32 {
            let a = Image::intrinsic_addr(id);
            assert_eq!(img.intrinsic_at_addr(a), Some(id));
        }
        assert_eq!(img.intrinsic_at_addr(Image::intrinsic_addr(2)), None);
        assert_eq!(img.intrinsic_at_addr(0x7), None);
        assert_eq!(img.intrinsic_at_addr(INTRINSIC_BASE + 3), None);
    }
}
