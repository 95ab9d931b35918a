//! Module-sensitive program specialisation — the end-to-end pipeline.
//!
//! This crate is the front door of the reproduction of *Module-Sensitive
//! Program Specialisation* (Dussart, Heldal & Hughes, PLDI 1997). It
//! wires together the stages the paper describes:
//!
//! 1. parse and resolve the modular source program (`mspec-lang`),
//! 2. Hindley–Milner type checking (`mspec-types`),
//! 3. polymorphic, module-at-a-time binding-time analysis (`mspec-bta`),
//! 4. cogen: each module becomes its generating extension
//!    (`mspec-cogen`),
//! 5. link the generating extensions and run them on a specialisation
//!    request (`mspec-genext`), yielding a *residual program* split into
//!    modules derived from the source structure (§5).
//!
//! Steps 2–4 and the link run one module at a time, in import order,
//! through the one front end every path shares,
//! [`mspec_cogen::build_program`].
//!
//! # Quick start
//!
//! ```
//! use mspec_core::{Pipeline, SpecArg};
//! use mspec_lang::eval::Value;
//!
//! # fn main() -> Result<(), mspec_core::PipelineError> {
//! let pipeline = Pipeline::from_source(
//!     "module Power where\n\
//!      power n x = if n == 1 then x else x * power (n - 1) x\n",
//! )?;
//! // Specialise power to n = 3 (static), x unknown (dynamic):
//! let spec = pipeline.specialise("Power", "power",
//!     vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic])?;
//! // The residual program computes cubes:
//! assert_eq!(spec.run(vec![Value::nat(5)])?, Value::nat(125));
//! // …and its code is the paper's x * (x * x):
//! assert!(spec.source().contains("x * (x * x)"));
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod pipeline;

pub use error::PipelineError;
pub use mspec_bta::division::ParamBt;
pub use mspec_genext::{
    BudgetResource, EngineOptions, OnExhaustion, SpecArg, SpecBudget, SpecStats, Strategy,
};
pub use mspec_lang::vm::{Runner, VmOpt};
pub use mspec_telemetry as telemetry;
pub use mspec_telemetry::{ModuleOutcome, Recorder};
pub use pipeline::{run_source, write_residual, ExecStatus, Pipeline, Specialised};
