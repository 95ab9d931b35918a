//! The paper's headline workflow (§4): modules are analysed and
//! converted to generating extensions one at a time, through interface
//! files; specialising a program needs only `.gx` files — never library
//! source.

use mspec_cogen::files::{cogen_module, load_gx};
use mspec_core::{Pipeline, SpecArg};
use mspec_genext::{Engine, EngineOptions, GenProgram};
use mspec_lang::eval::Value;
use mspec_lang::parser::parse_program;
use mspec_lang::resolve::resolve;
use mspec_lang::QualName;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

const SRC: &str = "module Power where\n\
    power n x = if n == 1 then x else x * power (n - 1) x\n\
    module Twice where\n\
    twice f x = f @ (f @ x)\n\
    module Main where\n\
    import Power\n\
    import Twice\n\
    main y = twice (\\x -> Power.power 3 x) y\n";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mspec-sep-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Module-by-module cogen through `.bti` files, then linking `.gx` files
/// alone reproduces exactly what the whole-program pipeline produces.
#[test]
fn separate_cogen_matches_whole_program_pipeline() {
    let dir = tmpdir("match");
    let resolved = resolve(parse_program(SRC).unwrap()).unwrap();

    // Phase 1: per-module cogen in dependency order — as a build system
    // would run it, writing interface and genext files.
    for name in resolved.graph().topo_order() {
        let module = resolved.program().module(name.as_str()).unwrap();
        cogen_module(module, &dir, &BTreeSet::new()).unwrap();
    }

    // Phase 2: SOURCE IS GONE. Link the .gx files and specialise.
    let gx_modules = ["Power", "Twice", "Main"]
        .iter()
        .map(|m| load_gx(dir.join(format!("{m}.gx"))).unwrap())
        .collect();
    let linked = GenProgram::link(gx_modules).unwrap();
    let mut engine = Engine::new(&linked, EngineOptions::default());
    let residual = engine
        .specialise(&QualName::new("Main", "main"), vec![SpecArg::Dynamic])
        .unwrap();

    // Whole-program pipeline for comparison.
    let pipeline = Pipeline::from_source(SRC).unwrap();
    let spec = pipeline
        .specialise("Main", "main", vec![SpecArg::Dynamic])
        .unwrap();
    assert_eq!(
        mspec_lang::pretty::pretty_program(&residual.program),
        spec.source()
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Library genexts are reusable across programs: one `.gx` of the
/// library serves two different client programs, and the clients are
/// processed with NO library source whatsoever — resolution uses the
/// `.sig` files, analysis the `.bti` files, linking the `.gx` files.
#[test]
fn library_genext_reused_by_two_programs() {
    let dir = tmpdir("reuse");
    let lib_src = "module Power where\n\
                   power n x = if n == 1 then x else x * power (n - 1) x\n";
    let lib = resolve(parse_program(lib_src).unwrap()).unwrap();
    cogen_module(lib.program().module("Power").unwrap(), &dir, &BTreeSet::new()).unwrap();
    drop(lib); // the library source is gone from here on

    for (client_src, expect) in [
        (
            "module Main where\nimport Power\nmain y = power 3 y\n",
            Value::nat(8),
        ),
        (
            "module Main where\nimport Power\nmain y = power 5 y + 1\n",
            Value::nat(33),
        ),
    ] {
        mspec_cogen::files::cogen_source(client_src, &dir, &BTreeSet::new()).unwrap();
        let linked = GenProgram::link(vec![
            load_gx(dir.join("Power.gx")).unwrap(),
            load_gx(dir.join("Main.gx")).unwrap(),
        ])
        .unwrap();
        let mut engine = Engine::new(&linked, EngineOptions::default());
        let residual = engine
            .specialise(&QualName::new("Main", "main"), vec![SpecArg::Dynamic])
            .unwrap();
        let rp = resolve(residual.program.clone()).unwrap();
        let mut ev = mspec_lang::eval::Evaluator::new(&rp);
        assert_eq!(ev.call(&residual.entry, vec![Value::nat(2)]).unwrap(), expect);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The `.sig` sidecars make even *resolution* source-free: a client of a
/// transitive import chain resolves from signature stubs alone.
#[test]
fn sig_files_resolve_transitive_clients() {
    let dir = tmpdir("sig");
    let libs = "module A where\nbase x = x + 1\nmodule B where\nimport A\nuse y = base y * 2\n";
    let resolved = resolve(parse_program(libs).unwrap()).unwrap();
    for name in resolved.graph().topo_order() {
        cogen_module(resolved.program().module(name.as_str()).unwrap(), &dir, &BTreeSet::new())
            .unwrap();
    }
    drop(resolved);
    // The client imports B only; B's stub pulls in A's stub transitively.
    let out = mspec_cogen::files::cogen_source(
        "module Main where\nimport B\nmain y = use y\n",
        &dir,
        &BTreeSet::new(),
    )
    .unwrap();
    assert!(out.sig.exists());
    let linked = GenProgram::link(vec![
        load_gx(dir.join("A.gx")).unwrap(),
        load_gx(dir.join("B.gx")).unwrap(),
        load_gx(dir.join("Main.gx")).unwrap(),
    ])
    .unwrap();
    let mut engine = Engine::new(&linked, EngineOptions::default());
    let residual = engine
        .specialise(&QualName::new("Main", "main"), vec![SpecArg::Dynamic])
        .unwrap();
    let rp = resolve(residual.program.clone()).unwrap();
    let mut ev = mspec_lang::eval::Evaluator::new(&rp);
    assert_eq!(
        ev.call(&residual.entry, vec![Value::nat(4)]).unwrap(),
        Value::nat(10)
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The `.bti` interface file of a module contains exactly its qualified
/// binding-time schemes, and analysing a client against the file gives
/// the same result as whole-program analysis.
#[test]
fn interface_files_carry_qualified_schemes() {
    let dir = tmpdir("bti");
    let resolved = resolve(parse_program(SRC).unwrap()).unwrap();
    for name in resolved.graph().topo_order() {
        let module = resolved.program().module(name.as_str()).unwrap();
        cogen_module(module, &dir, &BTreeSet::new()).unwrap();
    }
    let iface = mspec_cogen::files::load_bti(dir.join("Power.bti")).unwrap();
    let sig = iface.get(&mspec_lang::Ident::new("power")).unwrap();
    assert_eq!(sig.vars, 2);
    assert_eq!(sig.unfold.to_string(), "t0");
    let _ = fs::remove_dir_all(&dir);
}

/// Genext files honestly round-trip: load + link + run equals
/// compile-in-memory + run, at the binary level of residual programs.
#[test]
fn gx_files_are_faithful() {
    let dir = tmpdir("faithful");
    fs::create_dir_all(&dir).unwrap();
    let resolved = resolve(parse_program(SRC).unwrap()).unwrap();
    let ann = mspec_bta::analyse::analyse_program(&resolved).unwrap();
    for m in &ann.modules {
        let gx = mspec_cogen::compile::compile_module(m);
        mspec_cogen::files::store_gx(dir.join(format!("{}.gx", m.name)), &gx).unwrap();
        let back = load_gx(dir.join(format!("{}.gx", m.name))).unwrap();
        assert_eq!(gx, back);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Seekable `.gx` files decode lazily: linking a 24-module library and
/// specialising an entry that uses 3 of its 192 functions decodes fewer
/// payload bytes (offset tables at load, then the functions the engine
/// looks up) than an eager parse of every artefact's payload would.
#[test]
fn linking_a_library_decodes_less_than_an_eager_parse() {
    let dir = tmpdir("seekable");
    let src = dir.join("src");
    fs::create_dir_all(&src).unwrap();
    let shape = mspec_testkit::LibraryShape {
        modules: 24,
        fns_per_module: 8,
        used_fns: 3,
        exponent: 6,
        cross_module: true,
    };
    let (program, entry) = mspec_testkit::library_program(&shape);
    for module in &program.modules {
        let text = mspec_lang::pretty::pretty_module(module);
        fs::write(src.join(format!("{}.mspec", module.name)), text).unwrap();
    }
    let out = dir.join("gx");
    mspec_cogen::build(&src, &out, &mspec_cogen::BuildOptions::default()).unwrap();

    // An eager parse decodes each artefact's whole payload: everything
    // after the header line.
    let mut eager = 0;
    for file in fs::read_dir(&out).unwrap() {
        let path = file.unwrap().path();
        if path.extension().is_some_and(|e| e == "gx") {
            let text = fs::read_to_string(&path).unwrap();
            eager += (text.len() - text.find('\n').unwrap() - 1) as u64;
        }
    }
    let rec = mspec_core::Recorder::enabled();
    let linked = mspec_cogen::link_dir_traced(&out, &rec).unwrap();
    Engine::new(&linked, EngineOptions::default())
        .specialise(&entry, vec![SpecArg::Dynamic])
        .unwrap();
    let at_load = rec
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "io.gx_bytes_decoded")
        .map(|&(_, n)| n)
        .unwrap();
    let lazy = at_load + linked.lazy_decoded_bytes();
    assert!(lazy < eager, "lazy decoding read {lazy} bytes, an eager parse {eager}");
    let _ = fs::remove_dir_all(&dir);
}
