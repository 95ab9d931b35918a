//! Golden residual-program tests.
//!
//! Every engine rewrite must be observationally identical to the engine
//! it replaced: residual programs are compared *byte for byte* against
//! pretty-printed snapshots captured before the first rewrite
//! (`tests/golden/*.txt`). A drift in naming, ordering, placement or
//! layout fails these tests even when the residual program still
//! computes the right values.

use mspec_core::{Pipeline, SpecArg, Specialised};
use mspec_lang::builder;
use mspec_lang::eval::Value;
use mspec_lang::QualName;
use std::collections::BTreeSet;

const POWER: &str =
    "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

fn spec(pipeline: &Pipeline, module: &str, name: &str, args: Vec<SpecArg>) -> Specialised {
    pipeline.specialise(module, name, args).unwrap()
}

/// §2 `power {S,D}` with n = 3: fully unfolds to the cube expression.
#[test]
fn golden_power_s3_unfolded() {
    let p = Pipeline::from_source(POWER).unwrap();
    let s = spec(
        &p,
        "Power",
        "power",
        vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic],
    );
    assert_eq!(s.source(), include_str!("golden/power_s3.txt"));
}

/// §2/§5 `power` forced non-unfoldable: the polyvariant chain
/// power → power_1 → power_2, with deterministic residual names.
#[test]
fn golden_power_s3_forced_chain() {
    let forced: BTreeSet<QualName> = [QualName::new("Power", "power")].into();
    let p = Pipeline::from_source_with(POWER, &forced).unwrap();
    let s = spec(
        &p,
        "Power",
        "power",
        vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic],
    );
    assert_eq!(s.source(), include_str!("golden/power_s3_forced.txt"));
}

/// §5's Power/Twice/Main worked example, all definitions forced
/// residual: placement, import synthesis and naming all frozen byte for
/// byte.
#[test]
fn golden_section5_placement() {
    let forced: BTreeSet<QualName> = [
        QualName::new("Power", "power"),
        QualName::new("Twice", "twice"),
        QualName::new("Main", "main"),
    ]
    .into();
    let p = Pipeline::from_program_with(builder::paper_section5_program(), &forced).unwrap();
    let s = spec(&p, "Main", "main", vec![SpecArg::Dynamic]);
    assert_eq!(s.source(), include_str!("golden/section5_placement.txt"));
}

/// Memo counters under repeated `{D,S}` requests: two call sites ask
/// for the same specialisation of `power`, whose body re-requests
/// itself recursively. The first request misses and creates the
/// residual; the self-recursive probe and the second call site's probe
/// both hit.
#[test]
fn memo_counters_for_repeated_requests() {
    let src = "module Power where\n\
               power n x = if n == 1 then x else x * power (n - 1) x\n\
               module Main where\n\
               import Power\n\
               main n = Power.power n 2 + Power.power n 2\n";
    let p = Pipeline::from_source(src).unwrap();
    let s = spec(&p, "Main", "main", vec![SpecArg::Dynamic]);
    assert_eq!(s.stats.memo_probes, 3);
    assert_eq!(s.stats.memo_hits, 2);
    // One residual function materialised despite three requests.
    let power = s.residual.program.module("Power").unwrap();
    assert_eq!(power.defs.len(), 1);
    assert_eq!(s.run(vec![Value::nat(5)]).unwrap(), Value::nat(64));
}

/// A fresh session over the same pipeline starts with fresh counters —
/// stats are per-request, not accumulated in the pipeline.
#[test]
fn memo_counters_reset_per_session() {
    let p = Pipeline::from_source(POWER).unwrap();
    let args = || vec![SpecArg::Dynamic, SpecArg::Static(Value::nat(2))];
    let first = p.specialise("Power", "power", args()).unwrap();
    let second = p.specialise("Power", "power", args()).unwrap();
    assert_eq!(first.stats.memo_probes, second.stats.memo_probes);
    assert_eq!(first.stats.memo_hits, second.stats.memo_hits);
    assert!(first.stats.memo_hits >= 1, "self-recursion must hit the memo");
}

/// `entry`'s scheme in the residual program `text`, typechecked from the
/// text alone: parse, resolve, then `infer_program`.
fn residual_scheme(text: &str, entry: &str) -> String {
    let program = mspec_lang::parser::parse_program(text).unwrap();
    let resolved = mspec_lang::resolve::resolve(program).unwrap();
    let types = mspec_types::infer_program(&resolved).unwrap();
    source_scheme(&types, entry)
}

fn source_scheme(types: &mspec_types::ProgramTypes, entry: &str) -> String {
    let (module, name) = entry.split_once('.').unwrap();
    types.scheme(&QualName::new(module, name)).unwrap().to_string()
}

/// Residuals are well-typed programs of their own: every golden
/// residual, and the list library's `App.weighted` at `S:3,D`,
/// re-typechecks, and the residual entry's scheme is the source's with
/// the static parameters dropped.
#[test]
fn residuals_retypecheck_with_static_parameters_dropped() {
    let power = Pipeline::from_source(POWER).unwrap();
    assert_eq!(source_scheme(power.types(), "Power.power"), "Nat -> Nat -> Nat");
    let goldens = [include_str!("golden/power_s3.txt"), include_str!("golden/power_s3_forced.txt")];
    for golden in goldens {
        assert_eq!(residual_scheme(golden, "Power.power"), "Nat -> Nat", "{golden}");
    }

    // §5's `main` has one parameter, dynamic: its scheme survives whole.
    let section5 = Pipeline::from_program(builder::paper_section5_program()).unwrap();
    assert_eq!(source_scheme(section5.types(), "Main.main"), "Nat -> Nat");
    let placed = include_str!("golden/section5_placement.txt");
    assert_eq!(residual_scheme(placed, "Main.main"), "Nat -> Nat");

    let lists = Pipeline::from_source(include_str!("../examples/programs/lists.mspec")).unwrap();
    assert_eq!(source_scheme(lists.types(), "App.weighted"), "Nat -> [Nat] -> Nat");
    let weighted = spec(
        &lists,
        "App",
        "weighted",
        vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic],
    );
    assert_eq!(residual_scheme(&weighted.source(), "App.weighted"), "[Nat] -> Nat");
}
