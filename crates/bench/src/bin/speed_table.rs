//! E3 table: specialisation-session cost, mix vs generating extensions —
//! plus the PR 4 residual-runner table (tree evaluator vs bytecode VM),
//! which is also printed as one machine-readable JSON record, in the
//! format of the kept `BENCH_pr4.json`.
//!
//! Run: `cargo run --release -p mspec-bench --bin speed_table`

use mspec_bench::workloads::{encoded_expr, library_source, prepared_library, INTERP, POWER};
use mspec_bench::{cores, time_min, us};
use mspec_core::{Pipeline, SpecArg};
use mspec_lang::bytecode::compile;
use mspec_lang::eval::{with_big_stack, Evaluator, Value, DEFAULT_FUEL};
use mspec_lang::resolve::resolve;
use mspec_lang::vm::Vm;
use mspec_lang::Json;
use mspec_mix::{mix_specialise, MixOptions};
use std::time::Duration;

fn main() {
    with_big_stack(run);
}

fn run() {
    println!("E3: genext vs mix — per-session specialisation cost (min of 5, us)");
    println!(
        "{:<24} {:>10} {:>10} {:>8}",
        "workload", "mix", "genext", "speedup"
    );

    let row = |name: &str, mix_us: std::time::Duration, gx_us: std::time::Duration| {
        println!(
            "{:<24} {} {} {:>7.1}x",
            name,
            us(mix_us),
            us(gx_us),
            mix_us.as_secs_f64() / gx_us.as_secs_f64()
        );
    };

    // power, static exponent.
    {
        let args = || vec![SpecArg::Static(Value::nat(20)), SpecArg::Dynamic];
        let pipeline = Pipeline::from_source(POWER).unwrap();
        let (mix_t, _) = time_min(5, || {
            mix_specialise(POWER, "Power", "power", args(), MixOptions::default()).unwrap()
        });
        let (gx_t, _) = time_min(5, || pipeline.specialise("Power", "power", args()).unwrap());
        row("power n=20", mix_t, gx_t);
    }

    // interpreter at two program sizes.
    for depth in [5u32, 8] {
        let prog = encoded_expr(depth);
        let args = || vec![SpecArg::Static(prog.clone()), SpecArg::Dynamic];
        let pipeline = Pipeline::from_source(INTERP).unwrap();
        let (mix_t, _) = time_min(5, || {
            mix_specialise(INTERP, "Interp", "run", args(), MixOptions::default()).unwrap()
        });
        let (gx_t, _) = time_min(5, || pipeline.specialise("Interp", "run", args()).unwrap());
        row(&format!("interp depth={depth}"), mix_t, gx_t);
    }

    // libraries of growing size (the §4 motivation).
    for modules in [2usize, 4, 8, 16] {
        let (src, _) = library_source(modules, 8);
        let pipeline = prepared_library(modules, 8);
        let (mix_t, _) = time_min(5, || {
            mix_specialise(&src, "Main", "main", vec![SpecArg::Dynamic], MixOptions::default())
                .unwrap()
        });
        let (gx_t, _) = time_min(5, || {
            pipeline
                .specialise("Main", "main", vec![SpecArg::Dynamic])
                .unwrap()
        });
        row(&format!("library {}x8 defs", modules), mix_t, gx_t);
    }
    println!("\n(genext = run pre-built generating extensions; mix = parse+typecheck+BTA+interpretive spec per session)");

    runner_table();
}

/// One residual-runner measurement: tree-walk vs bytecode VM execution
/// of the same residual program, plus the one-off compile cost.
struct RunnerRow {
    name: &'static str,
    tree: Duration,
    vm: Duration,
    compile: Duration,
}

impl RunnerRow {
    fn ratio(&self) -> f64 {
        self.tree.as_secs_f64() / self.vm.as_secs_f64()
    }

    fn to_json(&self) -> (String, Json) {
        (
            self.name.replace([' ', '='], "_"),
            Json::obj([
                ("tree_ns", Json::Num(self.tree.as_nanos())),
                ("vm_ns", Json::Num(self.vm.as_nanos())),
                ("compile_ns", Json::Num(self.compile.as_nanos())),
                ("ratio_milli", Json::Num((self.ratio() * 1000.0).round().max(0.0) as u128)),
            ]),
        )
    }
}

/// Times one residual program under both runners. The residual is
/// resolved once and compiled once (the bytecode is reusable across
/// calls, like the tree evaluator's resolved program); the compile cost
/// is reported separately.
fn runner_row(
    name: &'static str,
    residual: &mspec_core::Specialised,
    args: Vec<Value>,
    iters: usize,
) -> RunnerRow {
    let rp = resolve(residual.residual.program.clone()).expect("residual resolves");
    let entry = &residual.residual.entry;
    let (tree, tree_v) = time_min(iters, || {
        Evaluator::with_fuel(&rp, DEFAULT_FUEL).call(entry, args.clone()).expect("tree run")
    });
    let (compile_t, bc) = time_min(iters, || compile(&rp).expect("residual compiles"));
    let (vm, vm_v) = time_min(iters, || {
        Vm::with_fuel(&bc, DEFAULT_FUEL).call(entry, args.clone()).expect("vm run")
    });
    assert_eq!(tree_v, vm_v, "runners disagree on {name}");
    RunnerRow { name, tree, vm, compile: compile_t }
}

/// PR 4 table: executing residual programs, tree evaluator vs bytecode
/// VM, on the E3 and E5 residuals, then the same rows as one JSON record
/// on stdout. Nothing is written to disk.
fn runner_table() {
    let cores = cores();
    println!();
    println!("PR 4: residual execution — tree evaluator vs bytecode VM (min of N, us; cores = {cores})");
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>8}",
        "residual workload", "tree", "vm", "compile", "tree/vm"
    );

    // E3 power: a large fully-unfolded residual (one 20 000-deep
    // multiplication chain) — pure expression evaluation.
    let power = Pipeline::from_source(POWER)
        .unwrap()
        .specialise(
            "Power",
            "power",
            vec![SpecArg::Static(Value::nat(20_000)), SpecArg::Dynamic],
        )
        .unwrap();
    let power_row = runner_row("power n=20000", &power, vec![Value::nat(3)], 20);

    // E3 interp: the first Futamura projection's residual for a
    // depth-8 encoded expression (~2^8 operations after specialisation).
    let interp = Pipeline::from_source(INTERP)
        .unwrap()
        .specialise(
            "Interp",
            "run",
            vec![SpecArg::Static(encoded_expr(8)), SpecArg::Dynamic],
        )
        .unwrap();
    let interp_row = runner_row("interp depth=8", &interp, vec![Value::nat(7)], 20);

    // E5 library 16×8: the canonical library residual (everything
    // static unfolds; what remains is the used functions' arithmetic).
    let library = prepared_library(16, 8)
        .specialise("Main", "main", vec![SpecArg::Dynamic])
        .unwrap();
    let library_row = runner_row("library 16x8 defs", &library, vec![Value::nat(2)], 50);

    let rows = [power_row, interp_row, library_row];
    for r in &rows {
        println!(
            "{:<24} {} {} {} {:>7.2}x",
            r.name,
            us(r.tree),
            us(r.vm),
            us(r.compile),
            r.ratio()
        );
    }
    println!("(tree = recursive reference interpreter; vm = flat-bytecode VM; compile = one-off closure conversion, amortised across calls)");

    let mut fields = vec![
        ("pr".to_string(), Json::str("pr4")),
        ("cores".to_string(), Json::Num(cores as u128)),
    ];
    fields.extend(rows.iter().map(RunnerRow::to_json));
    println!();
    println!("{}", Json::Obj(fields).write_pretty());
}
