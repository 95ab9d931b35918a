//! The paper's full library workflow over the real prelude: cogen the
//! library once with the incremental build driver, then specialise
//! client programs against the pre-built `.gx` artefacts.

use mspec_cogen::build::{build, link_dir, BuildOptions};
use mspec_core::{Pipeline, SpecArg};
use mspec_lang::eval::Value;
use mspec_stdlib::{with_prelude, write_prelude};

fn nats(xs: &[u64]) -> Value {
    Value::list(xs.iter().copied().map(Value::nat).collect())
}

/// The prelude passes the whole pipeline (typecheck, BTA, cogen).
#[test]
fn prelude_passes_the_whole_pipeline() {
    let program = with_prelude("module Main where\nmain = 0\n").unwrap();
    let pipeline = Pipeline::from_program(program).unwrap();
    // Spot-check a couple of interesting schemes.
    let map_sig = pipeline
        .annotated()
        .signature(&mspec_lang::QualName::new("Lists", "map"))
        .unwrap();
    assert!(map_sig.vars >= 3, "{map_sig}");
    let pow_ty = pipeline
        .types()
        .scheme(&mspec_lang::QualName::new("Nat", "pow"))
        .unwrap();
    assert_eq!(pow_ty.to_string(), "Nat -> Nat -> Nat");
}

/// Specialising `pow` from the prelude: static exponent unfolds.
#[test]
fn prelude_pow_specialises_like_power() {
    let program = with_prelude(
        "module Main where\nimport Nat\nmain x = pow 4 x\n",
    )
    .unwrap();
    let pipeline = Pipeline::from_program(program).unwrap();
    let s = pipeline.specialise("Main", "main", vec![SpecArg::Dynamic]).unwrap();
    let src = s.source();
    assert!(!src.contains("pow_"), "fully unfolded expected:\n{src}");
    assert_eq!(s.run(vec![Value::nat(3)]).unwrap(), Value::nat(81));
}

/// Insertion sort over a static-spine list unrolls into a comparison
/// network (every residual recursion eliminated).
#[test]
fn isort_on_static_spine_unrolls() {
    let program = with_prelude(
        "module Main where\nimport Sort\nmain xs = isort xs\n",
    )
    .unwrap();
    let pipeline = Pipeline::from_program(program).unwrap();
    let s = pipeline
        .specialise("Main", "main", vec![SpecArg::StaticSpine(3)])
        .unwrap();
    let got = s
        .run(vec![Value::nat(3), Value::nat(1), Value::nat(2)])
        .unwrap();
    assert_eq!(got, nats(&[1, 2, 3]));
    // All permutations, since the network must be input-independent.
    for perm in [[1u64, 2, 3], [2, 1, 3], [3, 2, 1], [2, 3, 1]] {
        let got = s
            .run(perm.iter().map(|&n| Value::nat(n)).collect())
            .unwrap();
        assert_eq!(got, nats(&[1, 2, 3]), "perm {perm:?}");
    }
}

/// The library is built ONCE into `.gx` files; two different client
/// programs are then specialised against those artefacts.
#[test]
fn prebuilt_prelude_serves_multiple_clients() {
    let base = std::env::temp_dir().join(format!("mspec-prelude-gx-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let src_dir = base.join("src");
    let out_dir = base.join("out");
    write_prelude(&src_dir).unwrap();
    let report = build(&src_dir, &out_dir, &BuildOptions::default()).unwrap();
    assert_eq!(report.rebuilt(), 4);
    // Second build: all up to date.
    for (name, _) in mspec_stdlib::PRELUDE_SOURCES {
        let p = src_dir.join(format!("{name}.mspec"));
        let f = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        f.set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(60))
            .unwrap();
    }
    let again = build(&src_dir, &out_dir, &BuildOptions::default()).unwrap();
    assert_eq!(again.rebuilt(), 0);

    for (client, arg, expect) in [
        ("module Main where\nimport Nat\nmain x = pow 3 x\n", 2u64, Value::nat(8)),
        (
            // NB: `range 1 n` with dynamic n would be unbounded
            // polyvariance (see SpecBudget::max_specialisations);
            // a dynamic list is the well-behaved shape.
            "module Main where\nimport Lists\nimport Nat\nmain n = sum (map (\\x -> pow 2 x) (range 0 4)) + n\n",
            3,
            Value::nat(17),
        ),
    ] {
        // Cogen the client against the library interfaces. The rewrite
        // often lands in the same file-time tick as the previous client's
        // build, which `build` counts as stale.
        std::fs::write(src_dir.join("Main.mspec"), client).unwrap();
        build(&src_dir, &out_dir, &BuildOptions::default()).unwrap();
        let linked = link_dir(&out_dir).unwrap();
        let mut engine =
            mspec_genext::Engine::new(&linked, mspec_genext::EngineOptions::default());
        let residual = engine
            .specialise(
                &mspec_lang::QualName::new("Main", "main"),
                vec![SpecArg::Dynamic],
            )
            .unwrap();
        let rp = mspec_lang::resolve::resolve(residual.program.clone()).unwrap();
        let mut ev = mspec_lang::eval::Evaluator::new(&rp);
        assert_eq!(ev.call(&residual.entry, vec![Value::nat(arg)]).unwrap(), expect);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Residual placement with prelude modules: a closure over `Nat.pow`
/// passed to `Lists.map` lands in a combination module (Lists and Nat
/// are unrelated).
#[test]
fn prelude_combination_module() {
    let program = with_prelude(
        "module Main where\nimport Lists\nimport Nat\nmain xs = map (\\x -> pow x 2) xs\n",
    )
    .unwrap();
    let pipeline = Pipeline::from_program(program).unwrap();
    let s = pipeline.specialise("Main", "main", vec![SpecArg::Dynamic]).unwrap();
    let names = s.module_names();
    assert!(
        names.contains(&"ListsNat".to_string()),
        "{names:?}\n{}",
        s.source()
    );
    let got = s.run(vec![nats(&[1, 2, 3])]).unwrap();
    assert_eq!(got, nats(&[2, 4, 8]));
}
