//! The object language of *Module-Sensitive Program Specialisation*
//! (Dussart, Heldal & Hughes, PLDI 1997).
//!
//! This crate implements the paper's Figure 1 language — a small
//! higher-order, polymorphically typed functional language with a simple
//! module system — together with everything needed to *work with* programs
//! in that language:
//!
//! * [`ast`] — the abstract syntax (programs, modules, definitions,
//!   expressions, primitives),
//! * [`lexer`] / [`parser`] — concrete syntax in the style of the paper
//!   (`module M where`, `import`, `\x -> e`, `e @ e`, fully applied named
//!   calls),
//! * [`resolve`] — name/arity resolution turning parsed modules into a
//!   [`resolve::ResolvedProgram`] with fully qualified calls,
//! * [`modgraph`] — the import graph: acyclicity checking, topological
//!   order, reachability (used both for analysis order and for residual
//!   module placement),
//! * [`pretty`] — a pretty-printer producing parseable source (used to
//!   emit residual modules and to measure program sizes),
//! * [`eval`] — a reference interpreter with a fuel limit, used to check
//!   that specialisation preserves semantics,
//! * [`bytecode`] / [`vm`] — the compiled fast path: closure conversion
//!   to a flat instruction stream and an explicit-stack VM with no host
//!   recursion, fuel-metered to the same totals as [`eval`]; the
//!   [`vm::Runner`] enum selects between the two execution engines,
//! * [`fuse`] — the tier-1 peephole superinstruction pass: dominant
//!   dyads/triads fused into single instructions with dedicated VM
//!   dispatch arms, fuel- and value-identical to unfused execution
//!   (selected by [`vm::VmOpt`]),
//! * [`builder`] — an ergonomic API for constructing programs in Rust
//!   (used by tests, examples and workload generators).
//!
//! # Example
//!
//! ```
//! use mspec_lang::parser::parse_module;
//! use mspec_lang::resolve::resolve_program;
//! use mspec_lang::eval::{Evaluator, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let m = parse_module(
//!     "module Power where\n\
//!      power n x = if n == 1 then x else x * power (n - 1) x\n",
//! )?;
//! let program = resolve_program(vec![m])?;
//! let mut ev = Evaluator::new(&program);
//! let v = ev.call_by_name("Power", "power", vec![Value::nat(3), Value::nat(2)])?;
//! assert_eq!(v, Value::nat(8));
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod builder;
pub mod bytecode;
pub mod error;
pub mod eval;
pub mod fuse;
pub mod intern;
pub mod json;
pub mod lexer;
pub mod modgraph;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod span;
pub mod vm;

pub use ast::{CallName, Def, Expr, Ident, ModName, Module, PrimOp, Program, QualName};
pub use fuse::FuseStats;
pub use vm::{Runner, VmOpt, VmStats};
pub use error::LangError;
pub use intern::Sym;
pub use json::{FromJson, Json, JsonError, ToJson};
