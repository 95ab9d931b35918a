//! Observability integration tests: traces are deterministic modulo
//! timestamps, the power example's event log matches a golden file,
//! emitted logs pass `telemetry::validate`, and `telemetry::explain`
//! reconstructs the request chain of residual functions.

use std::collections::BTreeSet;

use mspec_core::telemetry::{self, EventKind, Snapshot};
use mspec_core::{EngineOptions, Pipeline, Recorder, SpecArg};
use mspec_lang::eval::Value;
use mspec_lang::parser::parse_program;
use mspec_lang::QualName;
use mspec_testkit::{
    library_program, random_program, scrub_timestamps, GenConfig, LibraryShape,
};

const POWER: &str =
    "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

/// The interpreter workload from `examples/programs/interp.mspec` /
/// `pipeline_end_to_end.rs`: prefix-encoded expressions over naturals.
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

/// One fully traced sequential run: pipeline build + specialisation,
/// with `Power.power` forced residual so the event log contains the
/// polyvariant Entry → Residualise → MemoHit chain.
fn traced_power_run() -> Snapshot {
    let rec = Recorder::enabled();
    let forced: BTreeSet<QualName> = [QualName::new("Power", "power")].into();
    let program = parse_program(POWER).unwrap();
    let p = Pipeline::from_program_traced(program, &forced, &rec).unwrap();
    let s = p
        .specialise_traced(
            "Power",
            "power",
            vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic],
            EngineOptions::default(),
            &rec,
        )
        .unwrap();
    assert_eq!(s.run(vec![Value::nat(2)]).unwrap(), Value::nat(8));
    rec.snapshot()
}

#[test]
fn traced_jsonl_is_deterministic_modulo_timestamps() {
    let a = scrub_timestamps(&traced_power_run().to_jsonl());
    let b = scrub_timestamps(&traced_power_run().to_jsonl());
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// A fixed-seed `TestRng` workload traces identically across runs —
/// the generator is deterministic per seed and the staged build orders
/// events deterministically.
#[test]
fn random_program_trace_is_deterministic() {
    let run = || {
        let rec = Recorder::enabled();
        let generated = random_program(&GenConfig { seed: 7, ..GenConfig::default() });
        Pipeline::from_program_traced(generated.program, &BTreeSet::new(), &rec).unwrap();
        scrub_timestamps(&rec.snapshot().to_jsonl())
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// Full build + specialise of a synthetic multi-module library is
/// trace-deterministic too (this is the workload the scaling benches
/// use, so its trace stability matters most).
#[test]
fn library_trace_is_deterministic() {
    let shape = LibraryShape {
        modules: 2,
        fns_per_module: 3,
        used_fns: 2,
        exponent: 4,
        cross_module: true,
    };
    let run = || {
        let rec = Recorder::enabled();
        let (program, entry) = library_program(&shape);
        let p = Pipeline::from_program_traced(program, &BTreeSet::new(), &rec).unwrap();
        p.specialise_traced(
            entry.module.as_str(),
            entry.name.as_str(),
            vec![SpecArg::Dynamic],
            EngineOptions::default(),
            &rec,
        )
        .unwrap();
        scrub_timestamps(&rec.snapshot().to_jsonl())
    };
    assert_eq!(run(), run());
}

/// `mspec spec --metrics` builds one module at a time, as an untraced
/// `spec` does: the log records the build but no scheduler counters.
#[test]
fn traced_cli_spec_builds_sequentially() {
    let dir = std::env::temp_dir().join(format!("mspec-traced-spec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("two.mspec");
    std::fs::write(&src, format!("{POWER}module Main where\nimport Power\nmain y = power 3 y\n"))
        .unwrap();
    let log = dir.join("events.jsonl");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mspec"))
        .arg("spec")
        .arg(&src)
        .args(["--entry", "Main.main", "--args", "D", "--metrics"])
        .arg(&log)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let events = std::fs::read_to_string(&log).unwrap();
    assert!(events.contains("\"build.modules_built\""), "the build is traced: {events}");
    assert!(!events.contains("\"sched."), "a scheduler ran: {events}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The power example's scrubbed event log matches the checked-in golden
/// file byte for byte. Regenerate with
/// `MSPEC_BLESS=1 cargo test -p mspec-core --test telemetry_trace`.
#[test]
fn golden_power_event_log() {
    let got = scrub_timestamps(&traced_power_run().to_jsonl());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/events_power.jsonl");
    if std::env::var_os("MSPEC_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    assert_eq!(got, want, "golden event log drifted; bless with MSPEC_BLESS=1");
}

/// Every pipeline phase shows up as a span, and the spec engine records
/// one decision event per request.
#[test]
fn trace_covers_every_phase() {
    let snap = traced_power_run();
    let span_names: BTreeSet<&str> = snap
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanBegin { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for phase in [
        "resolve",
        "build",
        "build-module",
        "typecheck",
        "bta",
        "cogen",
        "link",
        "specialise",
    ] {
        assert!(span_names.contains(phase), "missing span {phase:?} in {span_names:?}");
    }
    let specs = snap
        .events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Spec(_)))
        .count();
    // Forced power 3: entry + two residual requests, plus memo traffic.
    assert!(specs >= 3, "only {specs} spec events");
}

/// Both emitted formats pass the schema checker; corrupt input does not.
#[test]
fn emitted_logs_pass_validation() {
    let snap = traced_power_run();

    let jsonl = snap.to_jsonl();
    let report = telemetry::validate(&jsonl).unwrap();
    assert_eq!(report.format, "jsonl");
    assert!(report.spec_events >= 3, "{report:?}");
    assert!(report.spans > 0);

    let chrome = snap.to_chrome().write_compact();
    let report = telemetry::validate(&chrome).unwrap();
    assert_eq!(report.format, "chrome");
    assert!(report.events > 0);

    assert!(telemetry::validate("{\"ev\":\"nonsense\"}\n").is_err());
    assert!(telemetry::validate("not json at all").is_err());
}

/// The JSONL emitter round-trips: parsing its own output and re-emitting
/// reproduces the text (modulo nothing — timestamps survive the trip).
#[test]
fn jsonl_round_trips_through_parse() {
    let jsonl = traced_power_run().to_jsonl();
    let reparsed = Snapshot::parse_jsonl(&jsonl).unwrap();
    assert_eq!(reparsed.to_jsonl(), jsonl);
}

/// `explain` reconstructs the forced power chain from a parsed log:
/// three residual versions, each requested from its parent.
#[test]
fn explain_reconstructs_power_chain() {
    let jsonl = traced_power_run().to_jsonl();
    let snap = Snapshot::parse_jsonl(&jsonl).unwrap();
    let text = telemetry::explain(&snap, "power").unwrap();
    assert!(text.contains("residual version(s)"), "{text}");
    assert!(text.contains("requested from:"), "{text}");
    assert!(text.contains("<session entry>"), "{text}");
    // The deepest residual's chain walks back through its ancestors.
    assert!(text.contains(" <- "), "{text}");
}

/// `explain` on the interpreter example: the entry is residualised once
/// (the first Futamura projection), while the library's `drop` is fully
/// unfolded at static call sites and reported as such.
#[test]
fn explain_interpreter_example() {
    let rec = Recorder::enabled();
    let program = parse_program(INTERP).unwrap();
    let p = Pipeline::from_program_traced(program, &BTreeSet::new(), &rec).unwrap();
    p.specialise_traced(
        "Interp",
        "run",
        vec![SpecArg::Static(sample_program()), SpecArg::Dynamic],
        EngineOptions::default(),
        &rec,
    )
    .unwrap();
    let snap = Snapshot::parse_jsonl(&rec.snapshot().to_jsonl()).unwrap();

    let run = telemetry::explain(&snap, "run").unwrap();
    assert!(run.contains("1 residual version(s)"), "{run}");
    assert!(run.contains("<session entry>"), "{run}");

    let drop = telemetry::explain(&snap, "drop").unwrap();
    assert!(drop.contains("no residual versions"), "{drop}");
    assert!(drop.contains("unfolded"), "{drop}");

    assert!(telemetry::explain(&snap, "no_such_fn").is_none());
}

/// A disabled recorder threaded through the whole pipeline records
/// nothing and emits empty documents.
#[test]
fn disabled_recorder_emits_nothing() {
    let rec = Recorder::disabled();
    let program = parse_program(POWER).unwrap();
    let p = Pipeline::from_program_traced(program, &BTreeSet::new(), &rec).unwrap();
    p.specialise_traced(
        "Power",
        "power",
        vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic],
        EngineOptions::default(),
        &rec,
    )
    .unwrap();
    let snap = rec.snapshot();
    assert!(snap.events.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.hists.is_empty());
    assert!(snap.to_jsonl().is_empty());
}
