//! Shared plumbing for the differential test suites (`simperf.rs`,
//! `mc.rs`): reproducible-seed handling and the random program generator.
//!
//! The vendored proptest has no shrinking, so a failing case is reproduced
//! by the *generated* seed, not a shrunk one. Every differential proptest
//! therefore (a) routes its seed through [`override_seed`], so
//! `SIMPERF_SEED=<n> cargo test …` replays one specific trace from the
//! CLI, and (b) tags its assertion messages with [`repro`], so a failure
//! prints the exact command that replays it.

#![allow(dead_code)] // each integration test binary uses a subset

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use knit_repro::cobj::ir::{BinOp, Instr, UnOp, Width};
use knit_repro::cobj::object::{FuncDef, ObjectFile, Symbol};
use knit_repro::cobj::{link, Image, LinkInput, LinkOptions};
use knit_repro::machine;

/// Env var naming a seed to replay (decimal u64).
pub const SEED_ENV: &str = "SIMPERF_SEED";

/// Replace a generated seed with `SIMPERF_SEED` when set: every case of
/// the sweep then runs the requested trace, replaying a printed failure
/// directly from the CLI.
pub fn override_seed(generated: u64) -> u64 {
    match std::env::var(SEED_ENV) {
        Ok(s) => s.trim().parse().unwrap_or(generated),
        Err(_) => generated,
    }
}

/// The standard repro suffix for failure messages: a copy-pasteable
/// replay command for the failing seed.
pub fn repro(seed: u64) -> String {
    format!("replay with `{SEED_ENV}={seed} cargo test`")
}

/// Intrinsics random programs may call (a mix of pure, device, faulting,
/// and counter-observing operations — `__clock` reads live cycle counts,
/// which is exactly the kind of thing a buggy fast path would skew).
pub const INTRINSICS: &[&str] = &["__brk", "__clock", "__con_putc", "__halt", "__trace"];

/// Ten-byte constants in the random programs' `leaf`: 160 bytes of text,
/// more than any of the small I-cache geometries the tests pick.
const LEAF_SWEEP: usize = 16;

/// Generate a linked image from `seed`: a handful of functions with random
/// bodies that call each other (directly and through function pointers)
/// and a long leaf that always returns, touch frame and heap memory, and
/// hit every fault class.
pub fn gen_image(seed: u64) -> Image {
    let mut rng = StdRng::seed_from_u64(seed);
    let nfuncs = rng.random_range(2usize..5);
    let mut o = ObjectFile::new("diff.o");
    let intr_syms: Vec<_> = INTRINSICS.iter().map(|n| o.add_symbol(Symbol::undef(*n))).collect();
    let shapes: Vec<(u32, u32, u32)> = (0..nfuncs)
        .map(|_| {
            let params = rng.random_range(0u32..3);
            let nregs = rng.random_range(4u32..8);
            let frame = [0u32, 16, 32][rng.random_range(0usize..3)];
            (params, nregs, frame)
        })
        .collect();
    let func_syms: Vec<_> =
        (0..nfuncs).map(|i| o.add_symbol(Symbol::func(format!("f{i}")))).collect();
    // A leaf that always returns, after sweeping more text than the small
    // test caches hold: its caller resumes on a line the call evicted,
    // which only a fetch check at the return point accounts for.
    let leaf = o.add_symbol(Symbol::func("leaf"));

    for (i, &(params, nregs, frame)) in shapes.iter().enumerate() {
        let len = rng.random_range(4usize..14);
        let mut body = Vec::with_capacity(len);
        let reg = |rng: &mut StdRng| rng.random_range(0u32..nregs);
        for _ in 0..len {
            let ins = match rng.random_range(0u32..20) {
                0 | 1 => Instr::Const {
                    dst: reg(&mut rng),
                    // Mostly small values (zeros make natural div-by-zero
                    // divisors); occasionally a wild one for OOB addresses.
                    value: if rng.random_bool(0.15) {
                        rng.random::<i64>() >> 16
                    } else {
                        rng.random_range(-64i64..64)
                    },
                },
                2 => Instr::Mov { dst: reg(&mut rng), src: reg(&mut rng) },
                3..=5 => {
                    const OPS: &[BinOp] = &[
                        BinOp::Add,
                        BinOp::Sub,
                        BinOp::Mul,
                        BinOp::Div,
                        BinOp::Rem,
                        BinOp::And,
                        BinOp::Xor,
                        BinOp::Shl,
                        BinOp::Eq,
                        BinOp::Lt,
                    ];
                    Instr::Bin {
                        op: OPS[rng.random_range(0usize..OPS.len())],
                        dst: reg(&mut rng),
                        a: reg(&mut rng),
                        b: reg(&mut rng),
                    }
                }
                6 => Instr::Un {
                    op: [UnOp::Neg, UnOp::Not, UnOp::BitNot][rng.random_range(0usize..3)],
                    dst: reg(&mut rng),
                    a: reg(&mut rng),
                },
                7 | 8 if frame > 0 => Instr::FrameAddr {
                    dst: reg(&mut rng),
                    offset: rng.random_range(0i64..frame as i64),
                },
                9 => Instr::Load {
                    dst: reg(&mut rng),
                    addr: reg(&mut rng),
                    offset: rng.random_range(-4i64..12),
                    width: [Width::W1, Width::W2, Width::W4, Width::W8]
                        [rng.random_range(0usize..4)],
                },
                10 => Instr::Store {
                    addr: reg(&mut rng),
                    offset: rng.random_range(-4i64..12),
                    src: reg(&mut rng),
                    width: [Width::W1, Width::W2, Width::W4, Width::W8]
                        [rng.random_range(0usize..4)],
                },
                11 => Instr::VarArg { dst: reg(&mut rng), idx: reg(&mut rng) },
                12 | 13 => {
                    // Direct call: the leaf, another function (recursion
                    // allowed — the depth limit is itself under test) or an
                    // intrinsic.
                    let target = if rng.random_bool(0.5) {
                        leaf
                    } else if rng.random_bool(0.6) {
                        func_syms[rng.random_range(0usize..nfuncs)]
                    } else {
                        intr_syms[rng.random_range(0usize..intr_syms.len())]
                    };
                    let nargs = rng.random_range(0usize..3);
                    Instr::Call {
                        dst: if rng.random_bool(0.7) { Some(reg(&mut rng)) } else { None },
                        target,
                        args: (0..nargs).map(|_| reg(&mut rng)).collect(),
                    }
                }
                14 => Instr::Addr {
                    dst: reg(&mut rng),
                    sym: if rng.random_bool(0.7) {
                        func_syms[rng.random_range(0usize..nfuncs)]
                    } else {
                        intr_syms[rng.random_range(0usize..intr_syms.len())]
                    },
                    offset: 0,
                },
                15 => {
                    // Often a garbage pointer → BadFunctionPointer; after an
                    // `Addr`, a live one → real indirect call.
                    let nargs = rng.random_range(0usize..3);
                    Instr::CallInd {
                        dst: if rng.random_bool(0.7) { Some(reg(&mut rng)) } else { None },
                        target: reg(&mut rng),
                        args: (0..nargs).map(|_| reg(&mut rng)).collect(),
                    }
                }
                16 => Instr::Jump { target: rng.random_range(0usize..len) },
                17 => Instr::Branch {
                    cond: reg(&mut rng),
                    then_to: rng.random_range(0usize..len),
                    else_to: rng.random_range(0usize..len),
                },
                18 => Instr::Ret {
                    value: if rng.random_bool(0.8) { Some(reg(&mut rng)) } else { None },
                },
                _ => Instr::Nop,
            };
            body.push(ins);
        }
        o.funcs.push(FuncDef { sym: func_syms[i], params, nregs, frame_size: frame, body });
    }
    let mut body = vec![Instr::Const { dst: 0, value: i64::MAX }; LEAF_SWEEP];
    body.push(Instr::Ret { value: Some(0) });
    o.funcs.push(FuncDef { sym: leaf, params: 0, nregs: 1, frame_size: 0, body });
    link(&[LinkInput::Object(o)], &LinkOptions::new("f0", machine::runtime_symbols()))
        .expect("generated object links")
}
