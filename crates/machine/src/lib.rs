//! # machine — execution substrate with a cost model
//!
//! The paper evaluates Knit on a 200 MHz Pentium Pro, reporting three
//! metrics per configuration (Table 1): **cycles** per routed packet,
//! **instruction-fetch stall cycles** (from the Pentium Pro performance
//! counters), and **text size**. We have no Pentium Pro; this crate is the
//! substitute documented in DESIGN.md. It executes linked [`cobj::Image`]s
//! under an explicit, deterministic cost model:
//!
//! * every instruction has a cycle cost ([`costs::CostModel`]);
//! * direct calls pay per-argument push costs and a fixed overhead, and
//!   indirect calls (the Click/COM style) pay an extra indirect-branch
//!   penalty;
//! * instruction fetch goes through a direct-mapped I-cache simulator
//!   ([`cache::ICache`]) indexed by the *real byte addresses* the linker
//!   assigned, so code layout and inlining genuinely change the stall
//!   count — the mechanism behind the paper's observation that flattening
//!   *improves* I-cache behaviour.
//!
//! Devices (console, network devices with rx/tx queues, a cycle clock) are
//! exposed to guest code as runtime intrinsics, replacing the paper's
//! DEC Tulip NICs and VGA/serial consoles.

pub mod cache;
pub mod costs;
pub mod cpu;
pub mod dev;
pub(crate) mod exec;
pub mod json;
pub mod mc;
pub mod mesi;
pub mod profile;

pub use cache::{ICache, ICacheParams};
pub use costs::CostModel;
pub use cpu::{ExecMode, Fault, Machine, PerfCounters, RunLimits};
pub use dev::{Console, NetDev};
pub use mc::MultiMachine;
pub use mesi::{AccessCost, Bus, BusStats, DCacheParams, LineState, RaceEvent};
pub use profile::{CallEdge, FuncCount, Profile};

/// Names of all runtime intrinsics the machine provides, for use as
/// [`cobj::LinkOptions::runtime_symbols`].
pub fn runtime_symbols() -> impl Iterator<Item = String> {
    cpu::INTRINSIC_NAMES.iter().map(|s| s.to_string())
}
