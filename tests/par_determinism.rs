//! PR6 determinism matrix: the threaded specialisation engine must
//! produce *byte-identical* residual programs — and identical stats and
//! provenance — at every thread count, for every workload.
//!
//! The threaded engine evaluates bodies concurrently under placeholder
//! names and replays memo claims sequentially on the driver thread, so
//! canonical residual names, placement, gensym suffixes, provenance
//! order and event gauges are all assigned in breadth-first order
//! regardless of which worker got there first. These tests are the
//! oracle for that contract.

use std::collections::BTreeSet;
use std::num::NonZeroUsize;

use mspec_core::{EngineOptions, Pipeline, PipelineError, Recorder, SpecArg, Specialised};
use mspec_genext::{BudgetResource, SpecBudget, SpecError};
use mspec_lang::eval::Value;
use mspec_lang::QualName;
use mspec_testkit::{library_program, LibraryShape};

const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// The interpreter workload (E3): prefix-encoded expressions over
/// naturals, specialised to the program `(x + 3) * (x * x)`.
const INTERP: &str = "module ListLib where\n\
    drop n xs = if n == 0 then xs else drop (n - 1) (tail xs)\n\
    module Interp where\n\
    import ListLib\n\
    size p = if head p == 0 then 2 else if head p == 1 then 1 else 1 + size (tail p) + size (drop (size (tail p)) (tail p))\n\
    run p x = if head p == 0 then head (tail p) else if head p == 1 then x else if head p == 2 then run (tail p) x + run (drop (size (tail p)) (tail p)) x else run (tail p) x * run (drop (size (tail p)) (tail p)) x\n";

/// Encodes (x + 3) * (x * x).
fn sample_program() -> Value {
    Value::list([3u64, 2, 1, 0, 3, 3, 1, 1].into_iter().map(Value::nat).collect())
}

/// A skewed frontier: one deep forced-residual chain (`walk 40`) next to
/// a fan of short chains whose tails the deep chain later *rejoins*
/// through the shared memo table (walk 9, 8, … are claimed first by the
/// short chains, then memo-hit by the long one — cross-round,
/// cross-worker memo traffic).
const SKEWED: &str = "module Deep where\n\
    walk n x = if n == 1 then x else x + walk (n - 1) x\n\
    module Main where\n\
    import Deep\n\
    main x = walk 40 x + (walk 3 (x + 1) + (walk 4 (x + 2) + (walk 5 (x + 3) + (walk 6 (x + 4) + (walk 7 (x + 5) + (walk 8 (x + 6) + walk 9 (x + 7)))))))\n";

/// Specialises sequentially, then at each matrix thread count, and
/// asserts byte-identical source plus identical stats and provenance.
fn assert_matrix(
    p: &Pipeline,
    module: &str,
    name: &str,
    args: &[SpecArg],
    options: EngineOptions,
) -> Specialised {
    let seq = p
        .specialise_opts(module, name, args.to_vec(), options)
        .unwrap_or_else(|e| panic!("sequential {module}.{name} failed: {e}"));
    for t in THREAD_MATRIX {
        let par = p
            .specialise_threaded(
                module,
                name,
                args.to_vec(),
                options,
                nz(t),
                &Recorder::disabled(),
            )
            .unwrap_or_else(|e| panic!("threaded({t}) {module}.{name} failed: {e}"));
        assert_eq!(
            seq.source(),
            par.source(),
            "residual source differs from sequential at {t} thread(s)"
        );
        assert_eq!(seq.stats, par.stats, "stats differ at {t} thread(s)");
        assert_eq!(seq.provenance, par.provenance, "provenance differs at {t} thread(s)");
    }
    seq
}

/// E3: the interpreter, first Futamura projection. The residual program
/// must be byte-identical at 1, 2 and 8 threads and still compute
/// (x + 3) * (x * x).
#[test]
fn interp_matrix_is_byte_identical() {
    let p = Pipeline::from_source(INTERP).unwrap();
    let args = [SpecArg::Static(sample_program()), SpecArg::Dynamic];
    let s = assert_matrix(&p, "Interp", "run", &args, EngineOptions::default());
    // (4 + 3) * (4 * 4) = 112.
    assert_eq!(s.run(vec![Value::nat(4)]).unwrap(), Value::nat(112));
}

/// A static `head []` in a branch of a dynamic conditional, after the
/// branch has already requested a residual definition: every engine
/// turns the branch into failing residual code and still builds the
/// requested definition, byte for byte alike.
#[test]
fn dead_branch_static_error_matrix_is_byte_identical() {
    let p = Pipeline::from_source(
        "module M where\nh d = if d == 0 then 0 else h (d - 1)\ng xs d = if d == 0 then d else h d + head xs\n",
    )
    .unwrap();
    let args = [SpecArg::Static(Value::list(vec![])), SpecArg::Dynamic];
    let s = assert_matrix(&p, "M", "g", &args, EngineOptions::default());
    assert!(s.source().contains("else head []"), "{}", s.source());
    assert_eq!(s.run(vec![Value::nat(0)]).unwrap(), Value::nat(0));
}

/// E5: the synthetic multi-module library the scaling benches use.
#[test]
fn library_matrix_is_byte_identical() {
    let shape = LibraryShape {
        modules: 5,
        fns_per_module: 6,
        used_fns: 5,
        exponent: 9,
        cross_module: true,
    };
    let (program, entry) = library_program(&shape);
    let p = Pipeline::from_program(program).unwrap();
    let s = assert_matrix(
        &p,
        entry.module.as_str(),
        entry.name.as_str(),
        &[SpecArg::Dynamic],
        EngineOptions::default(),
    );
    assert!(s.stats.specialisations >= 1);
}

/// The skewed forced-residual graph: a 40-deep chain races a fan of
/// short ones for the shared memo table. Polyvariant residualisation at
/// its most race-prone — still byte-identical.
#[test]
fn skewed_forced_residual_matrix_is_byte_identical() {
    let forced: BTreeSet<QualName> = [QualName::new("Deep", "walk")].into();
    let p = Pipeline::from_source_with(SKEWED, &forced).unwrap();
    let s = assert_matrix(&p, "Main", "main", &[SpecArg::Dynamic], EngineOptions::default());
    // 40 distinct static arguments for walk, plus the entry.
    assert!(
        s.stats.specialisations > 40,
        "expected >40 residual defs, got {}",
        s.stats.specialisations
    );
    // walk k x == k*x with walk 1 x == x ... check the whole sum at x=1:
    // 40 + (3+1·3 ... ) — just compare against the source evaluator.
    let direct = mspec_core::run_source(SKEWED, "Main", "main", vec![Value::nat(1)]).unwrap();
    assert_eq!(s.run(vec![Value::nat(1)]).unwrap(), direct);
}

/// A `max_specialisations` breach is attributed during the sequential
/// replay of claims in breadth-first order, so the structured error is
/// identical at every thread count — same witness, same chain.
#[test]
fn specialisation_budget_breach_is_deterministic_at_every_thread_count() {
    let forced: BTreeSet<QualName> = [QualName::new("Deep", "walk")].into();
    let p = Pipeline::from_source_with(SKEWED, &forced).unwrap();
    let options = EngineOptions {
        budget: SpecBudget { max_specialisations: 5, ..SpecBudget::default() },
        ..EngineOptions::default()
    };
    let seq = p
        .specialise_opts("Main", "main", vec![SpecArg::Dynamic], options)
        .unwrap_err();
    assert!(matches!(
        seq,
        PipelineError::Spec(SpecError::BudgetExhausted {
            resource: BudgetResource::Specialisations,
            ..
        })
    ));
    for t in THREAD_MATRIX {
        let par = p
            .specialise_threaded(
                "Main",
                "main",
                vec![SpecArg::Dynamic],
                options,
                nz(t),
                &Recorder::disabled(),
            )
            .unwrap_err();
        assert_eq!(seq, par, "budget error differs at {t} thread(s)");
    }
}

/// At one thread the engine admits steps in exactly the sequential
/// order, so even *fuel* breaches — inherently racy at higher thread
/// counts — match the sequential error exactly.
#[test]
fn fuel_breach_matches_sequential_at_one_thread() {
    let p = Pipeline::from_source(INTERP).unwrap();
    let args = vec![SpecArg::Static(sample_program()), SpecArg::Dynamic];
    let options = EngineOptions {
        budget: SpecBudget::with_steps(120),
        ..EngineOptions::default()
    };
    let seq = p
        .specialise_opts("Interp", "run", args.clone(), options)
        .unwrap_err();
    assert!(matches!(
        seq,
        PipelineError::Spec(SpecError::BudgetExhausted { resource: BudgetResource::Steps, .. })
    ));
    let par = p
        .specialise_threaded("Interp", "run", args, options, nz(1), &Recorder::disabled())
        .unwrap_err();
    assert_eq!(seq, par, "threads=1 fuel breach must replicate the sequential error");
}

/// Options outside the concurrent engine's supported envelope (a
/// generalising exhaustion policy) fall back to the sequential engine
/// in-process and still agree with `specialise_opts`.
#[test]
fn unsupported_options_fall_back_to_sequential() {
    use mspec_genext::OnExhaustion;
    let p = Pipeline::from_source(INTERP).unwrap();
    let args = vec![SpecArg::Static(sample_program()), SpecArg::Dynamic];
    let options = EngineOptions {
        budget: SpecBudget::with_steps(400),
        on_exhaustion: OnExhaustion::Generalise,
        ..EngineOptions::default()
    };
    let seq = p
        .specialise_opts("Interp", "run", args.clone(), options)
        .unwrap();
    let par = p
        .specialise_threaded("Interp", "run", args, options, nz(4), &Recorder::disabled())
        .unwrap();
    assert_eq!(seq.source(), par.source());
    assert_eq!(seq.stats, par.stats);
}

/// The traced spec-event stream (decision events only) is identical
/// between the sequential and threaded engines: placeholders never leak
/// into events, gauges (fuel left, pending depth, specs left) are
/// reconstructed in breadth-first order, and seq numbers line up.
#[test]
fn traced_spec_events_match_sequential() {
    let spec_lines = |rec: &Recorder| -> Vec<String> {
        mspec_testkit::scrub_timestamps(&rec.snapshot().to_jsonl())
            .lines()
            .filter(|l| l.contains("\"ev\":\"spec\""))
            .map(str::to_string)
            .collect()
    };

    let forced: BTreeSet<QualName> = [QualName::new("Deep", "walk")].into();
    let p = Pipeline::from_source_with(SKEWED, &forced).unwrap();

    let seq_rec = Recorder::enabled();
    p.specialise_traced("Main", "main", vec![SpecArg::Dynamic], EngineOptions::default(), &seq_rec)
        .unwrap();
    let seq_events = spec_lines(&seq_rec);
    assert!(!seq_events.is_empty());

    for t in [2usize, 8] {
        let par_rec = Recorder::enabled();
        p.specialise_threaded(
            "Main",
            "main",
            vec![SpecArg::Dynamic],
            EngineOptions::default(),
            nz(t),
            &par_rec,
        )
        .unwrap();
        assert_eq!(seq_events, spec_lines(&par_rec), "spec events differ at {t} thread(s)");
    }
}
