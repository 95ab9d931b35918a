//! End-to-end pipeline coverage beyond the paper's worked examples:
//! a first-Futamura-projection interpreter workload, multi-module list
//! libraries, strategy equivalence, baseline agreement, the file
//! emission round trip, and one answer from every front end (library,
//! CLI, daemon, artefact builds) on an ill-typed program.

use std::collections::BTreeSet;

use mspec_core::{
    BudgetResource, EngineOptions, Pipeline, PipelineError, Runner, SpecArg, SpecBudget, Strategy,
};
use mspec_genext::SpecError;
use mspec_lang::eval::Value;
use mspec_lang::QualName;
use mspec_mix::{mix_specialise, MixOptions};

/// A tiny expression interpreter written in the object language, over
/// programs encoded as prefix lists of naturals:
/// `0 n` literal, `1` the input variable, `2 e1 e2` addition,
/// `3 e1 e2` multiplication.
const INTERP: &str = "module ListLib where\n\
    drop n xs = if n == 0 then xs else drop (n - 1) (tail xs)\n\
    module Interp where\n\
    import ListLib\n\
    size p = if head p == 0 then 2 else if head p == 1 then 1 else 1 + size (tail p) + size (drop (size (tail p)) (tail p))\n\
    run p x = if head p == 0 then head (tail p) else if head p == 1 then x else if head p == 2 then run (tail p) x + run (drop (size (tail p)) (tail p)) x else run (tail p) x * run (drop (size (tail p)) (tail p)) x\n";

/// Encodes (x + 3) * (x * x).
fn sample_program() -> Value {
    Value::list(
        [3u64, 2, 1, 0, 3, 3, 1, 1]
            .into_iter()
            .map(Value::nat)
            .collect(),
    )
}

/// First Futamura projection: specialising the interpreter to a static
/// program compiles it — the residual is straight-line arithmetic with
/// no trace of the interpreter.
#[test]
fn futamura_interpreter_specialisation() {
    let p = Pipeline::from_source(INTERP).unwrap();
    let s = p
        .specialise(
            "Interp",
            "run",
            vec![SpecArg::Static(sample_program()), SpecArg::Dynamic],
        )
        .unwrap();
    let src = s.source();
    // Fully unfolded: one residual definition, no list operations left.
    assert_eq!(s.stats.specialisations, 1, "{src}");
    assert!(!src.contains("head"), "{src}");
    assert!(!src.contains("drop"), "{src}");
    assert!(src.contains('*'), "{src}");
    // (x+3)*(x*x) at x = 4: 7 * 16.
    assert_eq!(s.run(vec![Value::nat(4)]).unwrap(), Value::nat(112));
    assert_eq!(s.run(vec![Value::nat(1)]).unwrap(), Value::nat(4));
}

/// The interpreter agrees with direct interpretation on dynamic programs
/// too (second input static instead).
#[test]
fn interpreter_source_oracle() {
    let p = Pipeline::from_source(INTERP).unwrap();
    let direct = p
        .run_source("Interp", "run", vec![sample_program(), Value::nat(4)])
        .unwrap();
    assert_eq!(direct, Value::nat(112));
}

/// A multi-module list library with a polymorphic `map`/`sum` pipeline.
const LISTS: &str = "module Lib where\n\
    map f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n\
    sum xs = if null xs then 0 else head xs + sum (tail xs)\n\
    upto n = if n == 0 then [] else n : upto (n - 1)\n\
    module App where\n\
    import Lib\n\
    sumsquares n = sum (map (\\x -> x * x) (upto n))\n\
    weighted w xs = sum (map (\\x -> x * w) xs)\n";

#[test]
fn static_pipeline_computes_at_spec_time() {
    let p = Pipeline::from_source(LISTS).unwrap();
    // Everything static: the residual is a constant.
    let s = p
        .specialise("App", "sumsquares", vec![SpecArg::Static(Value::nat(4))])
        .unwrap();
    let src = s.source();
    assert!(src.contains("30"), "{src}"); // 16+9+4+1
    assert_eq!(s.run(vec![]).unwrap(), Value::nat(30));
}

#[test]
fn dynamic_weight_static_spine() {
    let p = Pipeline::from_source(LISTS).unwrap();
    let s = p
        .specialise(
            "App",
            "weighted",
            vec![SpecArg::Dynamic, SpecArg::StaticSpine(3)],
        )
        .unwrap();
    let src = s.source();
    // The spine unfolds: no residual recursion.
    assert!(!src.contains("sum_"), "{src}");
    assert!(!src.contains("map_"), "{src}");
    let got = s
        .run(vec![Value::nat(2), Value::nat(1), Value::nat(2), Value::nat(3)])
        .unwrap();
    assert_eq!(got, Value::nat(12));
}

#[test]
fn fully_dynamic_lists_residualise_recursions() {
    let p = Pipeline::from_source(LISTS).unwrap();
    let s = p
        .specialise("App", "weighted", vec![SpecArg::Dynamic, SpecArg::Dynamic])
        .unwrap();
    let src = s.source();
    assert!(src.contains("map_") || src.contains("sum_"), "{src}");
    let xs = Value::list(vec![Value::nat(1), Value::nat(2), Value::nat(3)]);
    assert_eq!(s.run(vec![Value::nat(2), xs]).unwrap(), Value::nat(12));
}

/// Breadth-first and depth-first produce semantically identical residual
/// programs (the paper: "Both techniques lead to equivalent residual
/// programs"), with the expected space profile difference.
#[test]
fn breadth_first_and_depth_first_agree() {
    let forced = [mspec_lang::QualName::new("Power", "power")]
        .into_iter()
        .collect();
    let p = Pipeline::from_source_with(
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n",
        &forced,
    )
    .unwrap();
    let args = || vec![SpecArg::Static(Value::nat(12)), SpecArg::Dynamic];
    let bf = p
        .specialise_opts(
            "Power",
            "power",
            args(),
            EngineOptions { strategy: Strategy::BreadthFirst, ..EngineOptions::default() },
        )
        .unwrap();
    let df = p
        .specialise_opts(
            "Power",
            "power",
            args(),
            EngineOptions { strategy: Strategy::DepthFirst, ..EngineOptions::default() },
        )
        .unwrap();
    assert_eq!(bf.stats.specialisations, df.stats.specialisations);
    for x in [1u64, 2, 3] {
        assert_eq!(
            bf.run(vec![Value::nat(x)]).unwrap(),
            df.run(vec![Value::nat(x)]).unwrap()
        );
    }
    // The space claim (§5): breadth-first keeps ONE specialisation open;
    // depth-first suspends a chain as deep as the request graph.
    assert_eq!(bf.stats.peak_open, 1);
    assert!(df.stats.peak_open >= 11, "depth {}", df.stats.peak_open);
    // Breadth-first pays with a pending list instead.
    assert!(bf.stats.peak_pending >= 1);
}

/// The monolithic mix baseline produces semantically equivalent residual
/// programs (they are *structured* differently: one module).
#[test]
fn mix_and_genext_agree_semantically() {
    let src = "module Power where\n\
               power n x = if n == 1 then x else x * power (n - 1) x\n\
               module Main where\n\
               import Power\n\
               main a b = power 3 a + power b 2\n";
    let p = Pipeline::from_source(src).unwrap();
    let spec = p
        .specialise("Main", "main", vec![SpecArg::Dynamic, SpecArg::Dynamic])
        .unwrap();
    let mix = mix_specialise(
        src,
        "Main",
        "main",
        vec![SpecArg::Dynamic, SpecArg::Dynamic],
        MixOptions::default(),
    )
    .unwrap();
    let mix_resolved = mspec_lang::resolve::resolve(mix.residual.program.clone()).unwrap();
    for (a, b) in [(2u64, 3u64), (5, 1), (0, 4)] {
        let want = p
            .run_source("Main", "main", vec![Value::nat(a), Value::nat(b)])
            .unwrap();
        assert_eq!(spec.run(vec![Value::nat(a), Value::nat(b)]).unwrap(), want);
        let mut ev = mspec_lang::eval::Evaluator::new(&mix_resolved);
        assert_eq!(
            ev.call(&mix.residual.entry, vec![Value::nat(a), Value::nat(b)])
                .unwrap(),
            want
        );
    }
    // Structure differs: genext output follows the module structure,
    // mix's is monolithic.
    assert!(spec.residual.program.modules.len() > 1);
    assert_eq!(mix.residual.program.modules.len(), 1);
}

/// Residual programs survive the two-pass file emission and parse back
/// to the same behaviour.
#[test]
fn residual_file_emission_roundtrip() {
    let forced = [
        mspec_lang::QualName::new("Power", "power"),
        mspec_lang::QualName::new("Twice", "twice"),
        mspec_lang::QualName::new("Main", "main"),
    ]
    .into_iter()
    .collect();
    let p =
        Pipeline::from_program_with(mspec_lang::builder::paper_section5_program(), &forced)
            .unwrap();
    let s = p.specialise("Main", "main", vec![SpecArg::Dynamic]).unwrap();

    let dir = std::env::temp_dir().join(format!("mspec-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let files = mspec_core::write_residual(&dir, &s.residual).unwrap();
    assert_eq!(files.len(), 3);

    // Read every file back, parse, resolve, run.
    let mut text = String::new();
    for f in &files {
        text.push_str(&std::fs::read_to_string(f).unwrap());
        text.push('\n');
    }
    let reparsed = mspec_lang::parser::parse_program(&text).unwrap();
    let resolved = mspec_lang::resolve::resolve(reparsed).unwrap();
    let mut ev = mspec_lang::eval::Evaluator::new(&resolved);
    let got = ev.call(&s.residual.entry, vec![Value::nat(2)]).unwrap();
    assert_eq!(got, Value::nat(512));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Specialisation-time errors surface cleanly: a program that diverges
/// on its static data exhausts fuel instead of hanging.
#[test]
fn divergent_static_computation_exhausts_fuel() {
    // Unfolding 10k calls deep needs more stack than the default debug
    // test thread provides.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let p = Pipeline::from_source(
                "module M where\nloop n = loop (n + 1)\nmain x = loop 0 + x\n",
            )
            .unwrap();
            let err = p
                .specialise_opts(
                    "M",
                    "main",
                    vec![SpecArg::Dynamic],
                    EngineOptions {
                        budget: SpecBudget::with_steps(10_000),
                        ..EngineOptions::default()
                    },
                )
                .unwrap_err();
            assert!(err.to_string().contains("fuel"), "{err}");
        })
        .unwrap()
        .join()
        .unwrap();
}

/// Unbounded polyvariance — a static counter growing towards a dynamic
/// bound — is caught by the specialisation limit instead of exhausting
/// memory (the known hazard of offline polyvariant specialisation).
#[test]
fn unbounded_polyvariance_is_caught() {
    let p = Pipeline::from_source(
        "module M where\nupto a b = if b <= a then [] else a : upto (a + 1) b\nmain n = upto 1 n\n",
    )
    .unwrap();
    let err = p
        .specialise_opts(
            "M",
            "main",
            vec![SpecArg::Dynamic],
            EngineOptions {
                budget: SpecBudget { max_specialisations: 500, ..SpecBudget::default() },
                ..EngineOptions::default()
            },
        )
        .unwrap_err();
    assert!(err.to_string().contains("polyvariance"), "{err}");
}

/// A skewed forced-residual graph: one 40-deep `walk` chain next to a
/// fan of short chains whose tails the deep chain meets again in the
/// memo table.
const SKEWED: &str = "module Deep where\n\
    walk n x = if n == 1 then x else x + walk (n - 1) x\n\
    module Main where\n\
    import Deep\n\
    main x = walk 40 x + (walk 3 (x + 1) + (walk 4 (x + 2) + (walk 5 (x + 3) + (walk 6 (x + 4) + (walk 7 (x + 5) + (walk 8 (x + 6) + walk 9 (x + 7)))))))\n";

/// Forcing `walk` residual makes one residual definition per distinct
/// static argument, and the residual still computes what the source
/// does.
#[test]
fn forced_residual_chain_is_polyvariant_and_correct() {
    let forced: BTreeSet<QualName> = [QualName::new("Deep", "walk")].into();
    let p = Pipeline::from_source_with(SKEWED, &forced).unwrap();
    let s = p.specialise("Main", "main", vec![SpecArg::Dynamic]).unwrap();
    // 40 distinct static arguments for walk, plus the entry.
    assert!(
        s.stats.specialisations > 40,
        "expected >40 residual defs, got {}",
        s.stats.specialisations
    );
    let direct = mspec_core::run_source(SKEWED, "Main", "main", vec![Value::nat(1)]).unwrap();
    assert_eq!(s.run(vec![Value::nat(1)]).unwrap(), direct);
}

/// The same chain under a five-specialisation budget fails with a
/// structured budget error naming the resource.
#[test]
fn forced_residual_chain_breaches_the_specialisation_budget() {
    let forced: BTreeSet<QualName> = [QualName::new("Deep", "walk")].into();
    let p = Pipeline::from_source_with(SKEWED, &forced).unwrap();
    let options = EngineOptions {
        budget: SpecBudget { max_specialisations: 5, ..SpecBudget::default() },
        ..EngineOptions::default()
    };
    let err = p.specialise_opts("Main", "main", vec![SpecArg::Dynamic], options).unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::Spec(SpecError::BudgetExhausted {
                resource: BudgetResource::Specialisations,
                ..
            })
        ),
        "{err:?}"
    );
}

/// Static errors in the static computation are detected at
/// specialisation time (running the source would fail the same way).
#[test]
fn static_division_by_zero_is_caught() {
    let p = Pipeline::from_source("module M where\nmain x = 1 / 0 + x\n").unwrap();
    let err = p.specialise("M", "main", vec![SpecArg::Dynamic]).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// A static run-time error under a conditional the analysis made
/// dynamic may sit in dead code: `head (tail [17])` is only reached when
/// `tail [17]` is non-empty. Specialisation must not fail, and the
/// residual must agree with the source under both runners. In the
/// second input the error comes after the branch has requested a
/// residual definition (`h d`): the branch becomes `head []` and the
/// requested definition is still built.
#[test]
fn static_error_in_a_dead_dynamic_branch_does_not_abort() {
    let cases = [
        (
            "module M where\nf p0 p1 = if null (tail (if true then (if false then p0 else p0) else p1 : p0)) then p1 else head (tail (if true then (if false then p0 else p0) else p1 : p0))\n",
            "f",
            Value::list(vec![Value::nat(17)]),
            5,
            None,
        ),
        (
            "module M where\nh d = if d == 0 then 0 else h (d - 1)\ng xs d = if d == 0 then d else h d + head xs\n",
            "g",
            Value::list(vec![]),
            0,
            Some("else head []"),
        ),
    ];
    for (src, f, p0, d, fragment) in cases {
        let p = Pipeline::from_source(src).unwrap();
        for strategy in [Strategy::BreadthFirst, Strategy::DepthFirst] {
            let options = EngineOptions { strategy, ..EngineOptions::default() };
            let args = vec![SpecArg::Static(p0.clone()), SpecArg::Dynamic];
            let s = p.specialise_opts("M", f, args, options).unwrap();
            if let Some(fragment) = fragment {
                assert!(s.source().contains(fragment), "{}", s.source());
            }
            for runner in [Runner::Tree, Runner::Vm] {
                let want = p.run_source_with(runner, "M", f, vec![p0.clone(), Value::nat(d)]);
                assert_eq!(want.unwrap(), Value::nat(d));
                assert_eq!(s.run_with(runner, vec![Value::nat(d)]).unwrap(), Value::nat(d));
            }
        }
    }
}

/// `mix` applies the engine's rule to a dynamic conditional's branches:
/// a static `head []` in the dead branch becomes residual code raising
/// the same error, so both specialisers answer, with the same body.
#[test]
fn mix_and_genext_agree_on_a_static_error_in_a_dead_branch() {
    let src = "module M where\nf p0 p1 = if null (tail (if true then (if false then p0 else p0) else p1 : p0)) then p1 else head (tail (if true then (if false then p0 else p0) else p1 : p0))\n";
    let args = || vec![SpecArg::Static(Value::list(vec![Value::nat(17)])), SpecArg::Dynamic];
    let spec = Pipeline::from_source(src).unwrap().specialise("M", "f", args()).unwrap();
    let mix = mix_specialise(src, "M", "f", args(), MixOptions::default()).unwrap();
    let pretty = mspec_lang::pretty::pretty_program;
    assert_eq!(
        pretty(&spec.residual.program),
        "module M where\nf p1 = if null tail (17 : []) then p1 else head []\n"
    );
    assert_eq!(
        pretty(&mix.residual.program),
        "module Spec where\nf p1 = if null tail (17 : []) then p1 else head []\n"
    );
}

/// The engine unfolds on an explicit stack, not in host frames: E3's
/// `power` at n = 20,000 (19,999 nested unfolds) specialises on a
/// 16 MiB thread, where one host frame per unfold overflowed between
/// 4,000 and 4,500 unfolds. At n = 200,000 the chain passes the
/// unfold-depth budget: `error` gives the typed budget error, and
/// `generalise` demotes the call past the limit to a residual call and
/// stays correct. Residuals run on the VM (its frames are on the heap)
/// after `resolve`, which recurses once per level, on a big stack.
#[test]
fn deep_unfold_chains_need_no_host_stack() {
    use mspec_core::OnExhaustion;
    use mspec_genext::{Engine, ResidualProgram, SpecStats};
    use mspec_lang::bytecode::compile;
    use mspec_lang::eval::with_big_stack;
    use mspec_lang::resolve::resolve;
    use mspec_lang::vm::Vm;

    const POWER: &str =
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";
    let power = QualName::new("Power", "power");
    let specialise = |n: u64, on_exhaustion| {
        std::thread::Builder::new()
            .stack_size(16 << 20)
            .spawn(move || {
                let p = Pipeline::from_source(POWER).unwrap();
                let options = EngineOptions { on_exhaustion, ..EngineOptions::default() };
                let mut engine = Engine::new(p.genext(), options);
                let args = vec![SpecArg::Static(Value::nat(n)), SpecArg::Dynamic];
                let residual = engine.specialise(&QualName::new("Power", "power"), args);
                residual.map(|r| (r, *engine.stats()))
            })
            .unwrap()
            .join()
            .unwrap()
    };
    // The residual is as deep as the unfold chain: it is compared, and
    // dropped, on a big stack too.
    let check = move |(r, stats): (ResidualProgram, SpecStats), n: u64| {
        with_big_stack(move || {
            let source = resolve(mspec_lang::parser::parse_program(POWER).unwrap()).unwrap();
            let (source, residual) = (compile(&source).unwrap(), compile(&resolve(r.program).unwrap()).unwrap());
            for x in [1, 3] {
                let want = Vm::new(&source).call(&power, vec![Value::nat(n), Value::nat(x)]);
                let got = Vm::new(&residual).call(&r.entry, vec![Value::nat(x)]);
                assert_eq!(got.unwrap(), want.unwrap(), "n={n} x={x}");
            }
        });
        stats
    };

    let stats = check(specialise(20_000, OnExhaustion::Error).unwrap(), 20_000);
    assert_eq!(stats.unfolds, 19_999);
    assert_eq!(stats.residual_nodes, 39_999);

    match specialise(200_000, OnExhaustion::Error) {
        Err(SpecError::BudgetExhausted { resource, witness, .. }) => {
            assert_eq!(resource, BudgetResource::UnfoldDepth);
            assert_eq!(witness, power);
        }
        other => panic!("expected the unfold-depth error, got {:?}", other.map(|(_, s)| s)),
    }
    let stats = check(specialise(200_000, OnExhaustion::Generalise).unwrap(), 200_000);
    assert_eq!(stats.generalised, 1);
    assert_eq!(stats.unfolds, SpecBudget::default().max_unfold_depth);
}

/// Deep unfold chains and long static spines fail on the CLI with the
/// typed budget error (exit 1), never a stack overflow (exit 134).
#[test]
fn cli_refuses_deep_unfolds_and_long_spines_with_a_typed_error() {
    let dir = temp_dir("deep-cli");
    let power = format!("{dir}/power.mspec");
    std::fs::write(&power, "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n")
        .unwrap();
    let id = format!("{dir}/id.mspec");
    std::fs::write(&id, "module M where\nf xs = xs\n").unwrap();
    let (ok, out, _) = mspec(&["spec", &power, "--entry", "Power.power", "--args", "S:20000,D"]);
    assert!(ok && out.starts_with("module Power where\npower x =") && out.contains("x * (x * "));
    for args in [
        ["spec", &power, "--entry", "Power.power", "--args", "S:200000,D"],
        ["spec", &id, "--entry", "M.f", "--args", "P:3000000"],
    ] {
        let err = mspec_error(&args);
        assert!(err.starts_with("unfold depth budget exhausted at `"), "{err}");
    }
}

/// When the branch holding a static error *is* taken, the residual
/// fails at run time exactly as the source does; the other branch
/// still computes. Covers `head []`, `tail []` and division by zero.
#[test]
fn static_error_in_a_taken_dynamic_branch_fails_at_run_time() {
    let src = "module M where\n\
        hd xs d = if d == 0 then head xs else d\n\
        tl xs d = if d == 0 then head (tail xs) + 1 else d\n\
        dv n d = if d == 0 then [1 / n] else [d]\n";
    let p = Pipeline::from_source(src).unwrap();
    for (f, arg) in [
        ("hd", Value::list(vec![])),
        ("tl", Value::list(vec![])),
        ("dv", Value::nat(0)),
    ] {
        let s = p.specialise("M", f, vec![SpecArg::Static(arg.clone()), SpecArg::Dynamic]).unwrap();
        for runner in [Runner::Tree, Runner::Vm] {
            let source = |d| p.run_source_with(runner, "M", f, vec![arg.clone(), Value::nat(d)]);
            let residual = |d| s.run_with(runner, vec![Value::nat(d)]);
            assert_eq!(residual(3).unwrap(), source(3).unwrap(), "{f} under {runner:?}");
            let (want, got) = (source(0).unwrap_err(), residual(0).unwrap_err());
            assert_eq!(got.to_string(), want.to_string(), "{f} under {runner:?}");
        }
    }
}

/// Residual programs are themselves valid pipeline inputs — the residual
/// of a residual is consistent (idempotence of full dynamisation).
#[test]
fn residual_programs_re_enter_the_pipeline() {
    let p = Pipeline::from_source(
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n",
    )
    .unwrap();
    let s = p
        .specialise("Power", "power", vec![SpecArg::Static(Value::nat(4)), SpecArg::Dynamic])
        .unwrap();
    let p2 = Pipeline::from_program(s.residual.program.clone()).unwrap();
    let s2 = p2
        .specialise(
            s.residual.entry.module.as_str(),
            s.residual.entry.name.as_str(),
            vec![SpecArg::Dynamic],
        )
        .unwrap();
    assert_eq!(s2.run(vec![Value::nat(3)]).unwrap(), Value::nat(81));
}

/// Three modules: `B` adds a boolean to a natural, `C` imports `B`.
const ILL_TYPED: [(&str, &str); 3] = [
    ("A", "module A where\na1 x = x + 1\n"),
    ("B", "module B where\nimport A\nb1 x = a1 x + (1 < 2)\n"),
    ("C", "module C where\nimport B\nc1 x = b1 x\n"),
];

/// A fresh temporary directory for one test, as a string path.
fn temp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("mspec-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.to_str().unwrap().to_string()
}

/// Writes `modules` to `dir` as one source file, returning its path.
fn write_program(dir: &str, modules: &[(&str, &str)]) -> String {
    let file = format!("{dir}/all.mspec");
    std::fs::write(&file, modules.iter().map(|(_, src)| *src).collect::<String>()).unwrap();
    file
}

/// Runs the `mspec` binary, returning (success, stdout, stderr).
fn mspec(args: &[&str]) -> (bool, String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mspec")).args(args).output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.success(), text(out.stdout), text(out.stderr))
}

/// The error a failing `mspec` command prints, without its prefix.
fn mspec_error(args: &[&str]) -> String {
    let (ok, _, stderr) = mspec(args);
    assert!(!ok, "expected failure: {stderr}");
    let line = stderr.trim_end();
    line.strip_prefix("mspec: ").unwrap_or(line).to_string()
}

/// Every front end builds through `build_program`, so an ill-typed import
/// gets one answer: `mspec check`, `mspec spec` with and without
/// telemetry, and a daemon inline `spec` (class `compile`). The failed
/// traced run still writes its telemetry, which shows the failure.
#[test]
fn every_front_end_reports_an_ill_typed_import_alike() {
    let dir = temp_dir("ill-typed-text");
    let file = write_program(&dir, &ILL_TYPED);
    let log = format!("{dir}/events.jsonl");
    let trace = format!("{dir}/trace.json");
    let want = "staged build: 1 failed, 1 skipped, 1 built; \
                B: type mismatch in B.b1: expected Bool, found Nat; \
                C: skipped (import B did not build)";
    let spec = ["spec", &file, "--entry", "C.c1", "--args", "D"];
    assert_eq!(mspec_error(&["check", &file]), want);
    assert_eq!(mspec_error(&spec), want);
    let traced = [&spec[..], &["--metrics", &log, "--trace", &trace]].concat();
    assert_eq!(mspec_error(&traced), want);
    for written in [&log, &trace] {
        let text = std::fs::read_to_string(written).unwrap();
        mspec_core::telemetry::validate(&text).unwrap();
    }
    let events = std::fs::read_to_string(&log).unwrap();
    let snap = mspec_core::telemetry::Snapshot::parse_jsonl(&events).unwrap();
    assert!(
        snap.events.iter().any(|e| matches!(
            &e.kind,
            mspec_core::telemetry::EventKind::SpanBegin { name, detail, .. }
                if name == "build-module" && detail == "B"
        )),
        "the log holds no build-module span for B:\n{events}"
    );

    let source: String = ILL_TYPED.iter().map(|(_, src)| *src).collect();
    let e = mspec_serve::Resident::new()
        .execute_spec(
            &mspec_serve::SpecRequest::inline(&source, "C.c1", "D"),
            mspec_genext::CancelToken::new(),
            &mspec_core::Recorder::disabled(),
        )
        .unwrap_err();
    assert_eq!(e.class, mspec_serve::ErrorClass::Compile);
    assert_eq!(e.message, want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The artefact build typechecks before analysing, from a source tree
/// and from one multi-module file alike: `cogen::build` and `mspec
/// build` refuse the ill-typed module with a type error naming `B.b1`,
/// and no residual can be linked from what they left.
#[test]
fn artefact_builds_refuse_an_ill_typed_module() {
    let dir = temp_dir("ill-typed-artefacts");
    let src = format!("{dir}/src");
    std::fs::create_dir_all(&src).unwrap();
    for (name, text) in ILL_TYPED {
        std::fs::write(format!("{src}/{name}.mspec"), text).unwrap();
    }
    let built = format!("{dir}/built");
    let err = mspec_cogen::build(&src, &built, &mspec_cogen::BuildOptions::default()).unwrap_err();
    assert!(matches!(err, mspec_cogen::CogenError::Type(_)), "{err}");
    assert!(err.to_string().contains("type mismatch in B.b1"), "{err}");
    let (ok, _, stderr) = mspec(&["build", &src, "--out", &built]);
    assert!(!ok && stderr.contains("type mismatch in B.b1"), "{stderr}");

    let file = write_program(&dir, &ILL_TYPED);
    let from_file = format!("{dir}/from-file");
    let err = mspec_error(&["build", &file, "--out", &from_file]);
    assert!(err.contains("type mismatch in B.b1"), "{err}");

    for out in [&built, &from_file] {
        let (ok, stdout, _) = mspec(&["link-spec", out, "--entry", "C.c1", "--args", "D"]);
        assert!(!ok, "a residual was linked from {out}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mspec build` takes one multi-module source file as well as a
/// module-per-file tree, and writes the same artefact bytes from either.
#[test]
fn build_from_one_file_writes_the_tree_build_artefacts() {
    let modules = [
        ("Power", "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n"),
        ("Sq", "module Sq where\nimport Power\nsq x = power 2 x\n"),
        ("Main", "module Main where\nimport Sq\nimport Power\nmain x y = sq x + power 3 y\n"),
    ];
    let dir = temp_dir("build-file");
    let src = format!("{dir}/src");
    std::fs::create_dir_all(&src).unwrap();
    for (name, text) in modules {
        std::fs::write(format!("{src}/{name}.mspec"), text).unwrap();
    }
    let file = write_program(&dir, &modules);
    let (tree, one) = (format!("{dir}/tree"), format!("{dir}/one"));
    let build = |from: &str, out: &str| {
        let (ok, stdout, stderr) =
            mspec(&["build", from, "--out", out, "--force-residual", "Power.power"]);
        assert!(ok, "{stderr}");
        stdout
    };
    let (tree_out, file_out) = (build(&src, &tree), build(&file, &one));
    assert_eq!(tree_out, file_out);
    assert!(file_out.ends_with("3 rebuilt, 0 up to date\n"), "{file_out}");
    let listing = |d: &str| {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let names = listing(&tree);
    assert_eq!(names, listing(&one));
    assert_eq!(names.len(), 12, "a .bti, .sig, .gx and genext text per module: {names:?}");
    for name in &names {
        let read = |d: &str| std::fs::read(format!("{d}/{name}")).unwrap();
        assert!(read(&tree) == read(&one), "{name} differs between the two builds");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every command refuses a flag its body does not read: it exits 1 with
/// `unknown option --X` instead of running as if the flag were absent.
#[test]
fn every_command_refuses_a_flag_it_does_not_read() {
    let dir = temp_dir("unknown-flags");
    let file = write_program(
        &dir,
        &[("Power", "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n")],
    );
    let metrics = format!("{dir}/m.jsonl");
    let spec = ["--entry", "Power.power", "--args", "S:3,D"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        ([&["check", &file][..], &["--fuel", "5"]].concat(), "--fuel"),
        (vec!["analyse", &file, "--cache-dir", &dir], "--cache-dir"),
        (vec!["build", &file, "--out", &dir, "--strategy", "df"], "--strategy"),
        ([&["spec", &file][..], &spec, &["--runner", "vm"]].concat(), "--runner"),
        ([&["link-spec", &dir][..], &spec, &["--force-residual", "Power.power"]].concat(),
            "--force-residual"),
        ([&["mix", &file][..], &spec, &["--strategy", "df"]].concat(), "--strategy"),
        (vec!["run", &file, "--entry", "Power.power", "--args", "3,2", "--metrics", &metrics],
            "--metrics"),
        (vec!["explain", "Power.power", "--log", &metrics, "--fuel", "5"], "--fuel"),
        (vec!["trace-check", &file, "--entry", "M.f"], "--entry"),
        (vec!["trace", "flame", &file, "--trace", &metrics], "--trace"),
        (vec!["cache", "gc", "--cache-dir", &dir, "--entry", "M.f"], "--entry"),
        (vec!["serve", "--stdio", "--entry", "M.f"], "--entry"),
        (vec!["client", "health", "--spawn", "--out", &dir], "--out"),
        (vec!["top", "--connect", "127.0.0.1:1", "--once", "--fuel", "1"], "--fuel"),
    ];
    for (args, flag) in cases {
        let out =
            std::process::Command::new(env!("CARGO_BIN_EXE_mspec")).args(&args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("mspec: unknown option {flag}\n"), "{args:?}");
    }
    assert!(!std::path::Path::new(&metrics).exists(), "a refused run wrote {metrics}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mspec analyse` lists modules in topological order, the order the
/// front end builds them: `B` (importing `A`) before the independent `C`.
#[test]
fn analyse_lists_modules_in_import_order() {
    let dir = temp_dir("analyse-order");
    let file = write_program(
        &dir,
        &[
            ("A", "module A where\na1 x = x + 1\n"),
            ("B", "module B where\nimport A\nb1 x = a1 x * 2\n"),
            ("C", "module C where\nc1 x = x\n"),
        ],
    );
    let (ok, stdout, stderr) = mspec(&["analyse", &file]);
    assert!(ok, "{stderr}");
    let modules: Vec<&str> = stdout.lines().filter(|l| l.starts_with("-- module ")).collect();
    assert_eq!(modules, ["-- module A", "-- module B", "-- module C"]);
    let _ = std::fs::remove_dir_all(&dir);
}
