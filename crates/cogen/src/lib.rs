//! The compiler generator (cogen).
//!
//! "It is a simple matter now to write cogen by hand" (§4.2) — the cogen
//! proper turns one binding-time-annotated module into its generating
//! extension, by pure syntax manipulation, once and for all,
//! independently of every other module:
//!
//! * [`compile`] — [`AnnModule`](mspec_bta::AnnModule) →
//!   [`GenModule`](mspec_genext::GenModule): variables become environment
//!   slots, lambdas get their captured slots and free function names,
//!   symbolic binding times become bitmask codes,
//! * [`textual`] — the same module as readable `mk_…` source in the
//!   style of the paper's Figure 3, used for the genext-size experiments
//!   and for documentation,
//! * [`files`] — write/read `.bti` (binding-time interface) and `.gx`
//!   (compiled genext) files, so that specialising a program needs *no
//!   source code* for its libraries,
//! * [`build`](crate::build) — the builds: [`build_program`], the one
//!   in-memory front end (typecheck, BTA and cogen per module in import
//!   order, fault-isolated, then link), and an incremental, `make`-style
//!   build of a directory of `.mspec` files: modules are
//!   rebuilt only when their source or an import's *interface* changed
//!   (§9's "analysed and tailored once and for all").

pub mod build;
pub mod compile;
pub mod files;
pub mod textual;

pub use build::{
    build, build_program, build_traced, link_dir, link_dir_traced, BuildOptions, BuildReport,
};
pub use mspec_telemetry::ModuleOutcome;
pub use compile::{compile_module, compile_program};
pub use files::{
    atomic_write, bti_fingerprint, fnv64, load_bti, load_bti_full, load_gx, load_gx_full,
    load_gx_unit, store_bti, store_gx, store_gx_with, CogenError, GxUnit, ARTEFACT_MAGIC,
    ARTEFACT_VERSION, GX_VERSION_SEEKABLE,
};
pub use textual::textual_genext;
