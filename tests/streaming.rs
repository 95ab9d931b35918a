//! The low-memory streaming mode: residual definitions flow to a sink
//! the moment they are constructed, and the two-pass file emission
//! writes headers from the engine's accumulated import map.

use mspec_cogen::compile::compile_program;
use mspec_genext::emit::{FileSink, ModuleSink, NullSink};
use mspec_genext::{Engine, EngineOptions, SpecArg};
use mspec_lang::ast::{Def, ModName};
use mspec_lang::eval::Value;
use mspec_lang::QualName;
use std::collections::BTreeSet;

fn engine_input() -> mspec_genext::GenProgram {
    let src = "module Power where\n\
               power n x = if n == 1 then x else x * power (n - 1) x\n\
               module Main where\n\
               import Power\n\
               main y = power y 2 + y\n";
    let rp = mspec_lang::resolve::resolve(mspec_lang::parser::parse_program(src).unwrap())
        .unwrap();
    let ann = mspec_bta::analyse::analyse_program(&rp).unwrap();
    compile_program(&ann).unwrap()
}

/// A sink that records arrival order.
#[derive(Default)]
struct OrderSink {
    seen: Vec<(ModName, String)>,
}

impl ModuleSink for OrderSink {
    fn emit(&mut self, module: ModName, def: Def) -> Result<(), mspec_genext::SpecError> {
        self.seen.push((module, def.name.to_string()));
        Ok(())
    }
}

#[test]
fn definitions_stream_in_construction_order() {
    let gp = engine_input();
    let mut engine = Engine::new(&gp, EngineOptions::default());
    let mut sink = OrderSink::default();
    let entry = engine
        .specialise_streaming(
            &QualName::new("Main", "main"),
            vec![SpecArg::Dynamic],
            &mut sink,
        )
        .unwrap();
    assert_eq!(entry, QualName::new("Main", "main"));
    // Breadth-first: the entry body finishes first, then power's variant.
    assert_eq!(sink.seen[0].1, "main");
    assert!(sink.seen.iter().any(|(m, d)| m.as_str() == "Power" && d == "power_1"));
    // Imports were accumulated for the second pass.
    let imports = engine.residual_imports();
    assert!(imports[&ModName::new("Main")].contains(&ModName::new("Power")));
}

#[test]
fn file_sink_streams_and_finishes_from_engine_imports() {
    let dir = std::env::temp_dir().join(format!("mspec-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gp = engine_input();
    let mut engine = Engine::new(&gp, EngineOptions::default());
    let mut sink = FileSink::new(&dir).unwrap();
    let entry = engine
        .specialise_streaming(
            &QualName::new("Main", "main"),
            vec![SpecArg::Dynamic],
            &mut sink,
        )
        .unwrap();
    let files = sink.finish(engine.residual_imports()).unwrap();
    assert_eq!(files.len(), 2);
    // Concatenate, parse, run.
    let mut text = String::new();
    for f in &files {
        text.push_str(&std::fs::read_to_string(f).unwrap());
    }
    let rp = mspec_lang::resolve::resolve(mspec_lang::parser::parse_program(&text).unwrap())
        .unwrap();
    let mut ev = mspec_lang::eval::Evaluator::new(&rp);
    // main y = power y 2 + y = 2^y + y
    assert_eq!(ev.call(&entry, vec![Value::nat(5)]).unwrap(), Value::nat(37));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn null_sink_measures_pure_specialisation() {
    let gp = engine_input();
    let mut engine = Engine::new(&gp, EngineOptions::default());
    let mut sink = NullSink;
    engine
        .specialise_streaming(
            &QualName::new("Main", "main"),
            vec![SpecArg::Dynamic],
            &mut sink,
        )
        .unwrap();
    assert!(engine.stats().specialisations >= 2);
    assert_eq!(engine.provenance().len(), engine.stats().specialisations);
}

#[test]
fn forced_residual_streams_every_chain_element() {
    let src = "module Power where\n\
               power n x = if n == 1 then x else x * power (n - 1) x\n";
    let rp = mspec_lang::resolve::resolve(mspec_lang::parser::parse_program(src).unwrap())
        .unwrap();
    let forced: BTreeSet<QualName> = [QualName::new("Power", "power")].into();
    let ann = mspec_bta::analyse::analyse_program_with(&rp, &forced).unwrap();
    let gp = compile_program(&ann).unwrap();
    let mut engine = Engine::new(&gp, EngineOptions::default());
    let mut sink = OrderSink::default();
    engine
        .specialise_streaming(
            &QualName::new("Power", "power"),
            vec![SpecArg::Static(Value::nat(5)), SpecArg::Dynamic],
            &mut sink,
        )
        .unwrap();
    // Five residual definitions (n = 5, 4, 3, 2, 1), streamed in
    // breadth-first request order.
    assert_eq!(sink.seen.len(), 5);
    assert_eq!(sink.seen[0].1, "power");
    assert_eq!(sink.seen[1].1, "power_1");
    assert_eq!(sink.seen[4].1, "power_4");
}
