//! Generating extensions and the specialisation engine.
//!
//! A *generating extension* (§2, §4.2) is a specialiser specialised to
//! one program: run it on (some of) the program's inputs and it produces
//! a residual program. Here a module's generating extension is a compiled
//! form of its binding-time-annotated definitions — variables resolved to
//! environment slots, every symbolic binding time compiled to a bitmask
//! test ([`gexp::BtCode`]) — executed by an [`engine::Engine`] that
//! provides the paper's "common code": the `mk_*` operations, `mk_resid`
//! memoisation with its pending list, coercions (including eta-expansion
//! of static closures), residual-module placement (§5) and two-pass
//! module emission.
//!
//! Contents:
//!
//! * [`value`] — partial values: static data, static closures carrying
//!   their generating function, and residual code; plus the
//!   static/dynamic *splitting* used by `mk_resid` (dynamic leaves inside
//!   static skeletons become extra residual formals — the paper's
//!   `map_g z ys` case),
//! * [`gexp`] — the compiled generating-extension representation
//!   (`GExp`, `GenFn`, `GenModule`, `GenProgram`), serialisable to `.gx`
//!   files so library genexts can be shipped without source,
//! * [`engine`] — the specialisation engine with breadth-first (pending
//!   list) and depth-first strategies and space accounting,
//! * [`budget`] — resource governance: budgets for step fuel,
//!   specialisation count, pending/suspension depth and residual size,
//!   with a configurable exhaustion policy (structured error or
//!   generalising fallback),
//! * [`placement`] — the residual-module placement algorithm of §5,
//! * [`emit`] — module sinks: in-memory assembly and the paper's
//!   two-pass temporary-file emission; residual import computation and
//!   acyclicity checking,
//! * [`error`] — specialisation-time errors.

pub mod budget;
pub mod emit;
pub mod engine;
pub mod error;
pub mod gexp;
pub mod placement;
pub mod value;

pub use budget::{BudgetResource, CancelToken, OnExhaustion, SpecBudget};
pub use emit::{FileSink, MemorySink, ModuleSink, ResidualProgram};
pub use engine::{Engine, EngineOptions, Provenance, SpecArg, SpecStats, Strategy};
pub use error::SpecError;
pub use gexp::{BtCode, FnUnit, GExp, GenFn, GenModule, GenProgram, LinkUnit};
pub use value::{Closure, PKey, PVal};
