//! E7/E8 table: residual-program *quality* measured as evaluation steps:
//! the fuel the VM spends, which equals the tree evaluator's step count
//! (deterministic, machine-independent).
//!
//! Run: `cargo run --release -p mspec-bench --bin quality_table`

use mspec_core::{Pipeline, SpecArg};
use mspec_lang::bytecode::compile;
use mspec_lang::eval::{with_big_stack, Value};
use mspec_lang::resolve::{resolve, ResolvedProgram};
use mspec_lang::vm::Vm;
use mspec_lang::QualName;
use mspec_mix::{mix_specialise, similix_specialise, MixOptions};

const SRC: &str = "module Power where\n\
    power n x = if n == 1 then x else x * power (n - 1) x\n\
    module Main where\n\
    import Power\n\
    main a b = power 12 a + power b 2\n";

/// VM fuel spent running `entry` of a resolved program on `args`.
fn vm_steps(rp: &ResolvedProgram, entry: &QualName, args: Vec<Value>) -> u64 {
    let bc = compile(rp).expect("program compiles");
    let budget = 1_000_000_000u64;
    let mut vm = Vm::with_fuel(&bc, budget);
    vm.call(entry, args).expect("program runs");
    budget - vm.fuel_left()
}

fn steps(program: &mspec_lang::Program, entry: &QualName, args: Vec<Value>) -> (u64, usize) {
    let rp = resolve(program.clone()).expect("residual resolves");
    (vm_steps(&rp, entry, args), mspec_lang::pretty::source_lines(program))
}

fn main() {
    with_big_stack(run);
}

fn run() {
    println!("E7/E8: residual program quality on `main a b = power 12 a + power b 2`");
    println!("(steps = VM fuel per run at a=3, b=9; lines = residual size)");
    println!("{:<34} {:>8} {:>8}", "specialiser", "steps", "lines");
    let args = vec![Value::nat(3), Value::nat(9)];

    // Source program, unspecialised (the baseline of baselines).
    {
        let rp = resolve(mspec_lang::parser::parse_program(SRC).unwrap()).unwrap();
        println!(
            "{:<34} {:>8} {:>8}",
            "source (no specialisation)",
            vm_steps(&rp, &QualName::new("Main", "main"), args.clone()),
            mspec_lang::pretty::source_lines(rp.program())
        );
    }

    // Module-sensitive genext pipeline.
    {
        let p = Pipeline::from_source(SRC).unwrap();
        let s = p
            .specialise("Main", "main", vec![SpecArg::Dynamic, SpecArg::Dynamic])
            .unwrap();
        let (st, lines) = steps(&s.residual.program, &s.residual.entry, args.clone());
        println!("{:<34} {:>8} {:>8}", "module-sensitive (this paper)", st, lines);
    }

    // Mix, polyvariant (monolithic but same binding-time power).
    for (label, polyvariant) in [
        ("mix, polyvariant BTA", true),
        ("mix, monovariant BTA (E8)", false),
    ] {
        let out = mix_specialise(
            SRC,
            "Main",
            "main",
            vec![SpecArg::Dynamic, SpecArg::Dynamic],
            MixOptions { polyvariant, ..MixOptions::default() },
        )
        .unwrap();
        let (st, lines) = steps(&out.residual.program, &out.residual.entry, args.clone());
        println!("{:<34} {:>8} {:>8}", label, st, lines);
    }

    // Similix-style extern handling (E7).
    {
        let out = similix_specialise(
            SRC,
            "Main",
            "main",
            vec![SpecArg::Dynamic, SpecArg::Dynamic],
            MixOptions::default(),
        )
        .unwrap();
        let (st, lines) = steps(&out.residual.program, &out.residual.entry, args.clone());
        println!("{:<34} {:>8} {:>8}", "similix externs (E7)", st, lines);
    }
    println!("\n(lower steps = better residual; the paper's approach specialises across");
    println!(" module boundaries, similix leaves imported calls untouched, monovariant");
    println!(" BTA merges {{S,D}} and {{D,S}} uses of power into {{D,D}} and loses everything)");
}
