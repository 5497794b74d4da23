//! # knit — component composition for systems software
//!
//! A from-scratch reproduction of the system described in *Knit: Component
//! Composition for Systems Software* (Reid, Flatt, Stoller, Lepreau, Eide —
//! OSDI 2000). Knit is a component definition and linking language for C
//! code: *atomic units* wrap C files behind explicit import/export bundles,
//! *compound units* wire units together (hierarchically, with renaming and
//! multiple instantiation), and the Knit compiler turns a configuration
//! into a linked program. On top of the linking model the system provides:
//!
//! * **automatic scheduling of initializers and finalizers** ([`sched`]),
//!   driven by per-export and per-initializer dependency declarations,
//!   correct even when the import graph is cyclic;
//! * **architectural constraint checking** ([`constraints`]): user-defined
//!   properties with partially-ordered values, propagated across the
//!   linking graph, catching errors like process-context code called from
//!   interrupt context;
//! * **flattening** (the `flatten` crate): merging the C sources of a
//!   subtree of units into one translation unit so an ordinary C compiler
//!   inlines across component boundaries (§6 of the paper).
//!
//! The pipeline mirrors the paper's implementation — "the Knit compiler
//! reads the linking specification and unit files, generates initialization
//! and finalization code, runs the C compiler … the object files are then
//! processed by a slightly modified version of GNU's objcopy, which handles
//! renaming symbols and duplicating object code for multiply-instantiated
//! units. Finally, these object files are linked together using ld":
//!
//! ```text
//! .unit files ──parse──▶ Program ──elaborate──▶ instance graph
//!     ──check──▶ constraints ✓   ──schedule──▶ init/fini order
//!     ──cmini──▶ .o per unit  ──objcopy──▶ renamed per instance
//!     ──ld──▶ executable Image (run it on the `machine` crate)
//! ```
//!
//! Entry points: [`Program`] to register `.unit` sources, [`SourceTree`]
//! for the C sources, and [`driver::build`] (one-shot) or a
//! [`BuildSession`] (incremental) to produce a runnable image. Errors
//! render to span-carrying [`Diagnostic`]s via
//! [`KnitError::diagnostics`]. `use knit::prelude::*` pulls in the whole
//! common surface.

#![warn(missing_docs)]

pub mod analyze;
pub mod cache;
pub mod constraints;
pub mod diag;
pub mod driver;
pub mod elaborate;
pub mod error;
pub mod intern;
pub mod model;
pub mod pgo;
pub mod proto;
pub mod sched;
pub mod server;
pub mod session;
pub mod vfs;

pub use analyze::{lint, lint_by_name, AnalysisReport, Lint, LintConfig, LintLevel, LINTS};
pub use cache::BuildCache;
pub use diag::{Diagnostic, Severity};
pub use driver::{
    build, default_jobs, BuildOptions, BuildOptionsBuilder, BuildReport, BuildStats, UnitCompile,
};
pub use elaborate::{ElabStats, Elaboration, Wire};
pub use error::KnitError;
pub use intern::Sym;
pub use model::Program;
pub use pgo::{FlattenSuggestion, HotEdge, PgoReport};
pub use proto::{Request, Response, SessionOptions};
pub use server::{Conn, Engine, Server, ServerHandle};
pub use session::{BuildSession, PhaseCount, Session, SessionHandle, SessionStats};
pub use vfs::SourceTree;

/// One import for the common API surface:
///
/// ```
/// use knit::prelude::*;
///
/// let mut s = Session::new(BuildOptions::root("App").jobs(1).build());
/// s.load_units("app.unit", r#"
///     bundletype Main = { main }
///     unit App = { exports [ main : Main ]; files { "app.c" }; }
/// "#).unwrap();
/// s.update_source("app.c", "int main() { return 7; }");
/// let report: BuildReport = s.build().unwrap();
/// assert_eq!(report.stats.units_compiled, 1);
/// ```
pub mod prelude {
    pub use crate::analyze::{lint, AnalysisReport, LintConfig, LintLevel};
    pub use crate::cache::BuildCache;
    pub use crate::diag::{Diagnostic, Severity};
    pub use crate::driver::{build, BuildOptions, BuildOptionsBuilder, BuildReport, BuildStats};
    pub use crate::error::KnitError;
    pub use crate::model::Program;
    pub use crate::pgo::{FlattenSuggestion, HotEdge, PgoReport};
    pub use crate::proto::{Request, Response, SessionOptions};
    pub use crate::server::{Conn, Engine, Server};
    pub use crate::session::{BuildSession, PhaseCount, Session, SessionHandle, SessionStats};
    pub use crate::vfs::SourceTree;
}
