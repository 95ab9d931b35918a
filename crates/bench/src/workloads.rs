//! The benchmark workloads.

use mspec_core::Pipeline;
use mspec_lang::eval::Value;
use mspec_testkit::{library_program, LibraryShape};

/// The paper's `power` module.
pub const POWER: &str = "module Power where\n\
    power n x = if n == 1 then x else x * power (n - 1) x\n";

/// The interpreter workload (first Futamura projection; see the
/// `futamura` example).
pub const INTERP: &str = "module ListLib where\n\
    drop n xs = if n == 0 then xs else drop (n - 1) (tail xs)\n\
    module Interp where\n\
    import ListLib\n\
    size p = if head p == 0 then 2 else if head p == 1 then 1 else 1 + size (tail p) + size (drop (size (tail p)) (tail p))\n\
    run p x = if head p == 0 then head (tail p) else if head p == 1 then x else if head p == 2 then run (tail p) x + run (drop (size (tail p)) (tail p)) x else run (tail p) x * run (drop (size (tail p)) (tail p)) x\n";

/// A balanced encoded expression of the given depth for the interpreter
/// (size grows as 2^depth).
pub fn encoded_expr(depth: u32) -> Value {
    fn go(depth: u32, out: &mut Vec<Value>) {
        if depth == 0 {
            out.push(Value::nat(1)); // the variable
        } else {
            out.push(Value::nat(if depth.is_multiple_of(2) { 2 } else { 3 }));
            go(depth - 1, out);
            go(depth - 1, out);
        }
    }
    let mut out = Vec::new();
    go(depth, &mut out);
    Value::list(out)
}

/// A synthetic library workload: `(source-text, program, entry)` for a
/// library of `modules × fns_per_module` functions of which `Main` uses
/// three.
pub fn library_source(modules: usize, fns_per_module: usize) -> (String, LibraryShape) {
    let shape = LibraryShape {
        modules,
        fns_per_module,
        used_fns: 3,
        exponent: 6,
        cross_module: true,
    };
    let (program, _) = library_program(&shape);
    (mspec_lang::pretty::pretty_program(&program), shape)
}

/// Prepares the genext pipeline for a library workload (the once-per-
/// library cost the paper amortises away).
pub fn prepared_library(modules: usize, fns_per_module: usize) -> Pipeline {
    let (src, _) = library_source(modules, fns_per_module);
    Pipeline::from_source(&src).expect("library workload is well-formed")
}
