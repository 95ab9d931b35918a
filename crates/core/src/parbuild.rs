//! The staged pipeline build.
//!
//! The paper's module system requires acyclic imports, so each
//! per-module stage (typecheck, binding-time analysis, cogen) needs only
//! the interfaces of the module's imports. The driver groups the module
//! graph into topological levels ([`module_levels`]) and builds one
//! module at a time, level by level, handing each finished module's type
//! and binding-time interfaces to the levels above it.
//!
//! Builds are *fault-isolated*: a module whose stages fail — or panic —
//! does not abort the build. The panic is caught
//! ([`std::panic::catch_unwind`]), everything not depending on the
//! module still builds, modules depending on it are skipped (naming the
//! culprit import), and the driver returns an aggregated
//! [`BuildReport`] listing every failure rather than dying on the
//! first. The report lists modules in topological order.

use crate::error::PipelineError;
use mspec_bta::analyse::analyse_module_with_traced;
use mspec_bta::{AnnModule, AnnProgram, BtInterface, BtaError};
use mspec_cogen::compile::compile_module;
use mspec_genext::{GenModule, GenProgram};
use mspec_lang::ast::{Ident, ModName, QualName};
use mspec_lang::modgraph::ModGraph;
use mspec_lang::resolve::ResolvedProgram;
use mspec_telemetry::{ModuleOutcome, Recorder};
use mspec_types::{infer_module_traced, ProgramTypes, TypeInterface};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Wall-clock accounting for a pipeline build.
///
/// The per-stage fields are summed over modules; `total` is the
/// wall-clock time of the whole build including linking.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Hindley–Milner inference, summed across modules.
    pub typecheck: Duration,
    /// Binding-time analysis, summed across modules.
    pub bta: Duration,
    /// Cogen (module to generating extension), summed across modules.
    pub cogen: Duration,
    /// Linking the generating extensions.
    pub link: Duration,
    /// Wall-clock time for the whole build.
    pub total: Duration,
    /// Number of levels in the module graph.
    pub levels: usize,
}

/// Groups the module graph into topological levels: level 0 has no
/// imports, and every module's imports live at strictly lower levels.
///
/// Concatenating the levels yields a valid dependency order, and the
/// modules within one level are mutually independent.
pub fn module_levels(graph: &ModGraph) -> Vec<Vec<ModName>> {
    let mut level_of: BTreeMap<ModName, usize> = BTreeMap::new();
    let mut levels: Vec<Vec<ModName>> = Vec::new();
    for m in graph.topo_order() {
        let l = graph
            .direct_imports(m)
            .iter()
            .map(|d| level_of[d] + 1)
            .max()
            .unwrap_or(0);
        level_of.insert(*m, l);
        if levels.len() <= l {
            levels.push(Vec::new());
        }
        levels[l].push(*m);
    }
    levels
}

/// How one module's build ended when it did not succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleBuildError {
    /// A stage returned an error.
    Failed(PipelineError),
    /// A stage panicked; the payload message is preserved.
    Panicked(String),
}

impl fmt::Display for ModuleBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleBuildError::Failed(e) => write!(f, "{e}"),
            ModuleBuildError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

/// The aggregated outcome of a fault-isolated staged build: the
/// canonical [`mspec_telemetry::BuildReport`] instantiated at this
/// crate's typed [`ModuleBuildError`] (the same report shape
/// `mspec_cogen::build` uses for incremental artefact builds).
pub type BuildReport = mspec_telemetry::BuildReport<ModuleBuildError>;

/// Runs `f` once per module of a level, in order, capturing per-module
/// panics so one bad module cannot take down the level (or the
/// process).
fn run_level<'a, T>(
    level: &'a [ModName],
    f: impl Fn(&'a ModName) -> Result<T, PipelineError>,
) -> Vec<(ModName, Result<T, ModuleBuildError>)> {
    level
        .iter()
        .map(|m| {
            let r = match catch_unwind(AssertUnwindSafe(|| f(m))) {
                Ok(Ok(out)) => Ok(out),
                Ok(Err(e)) => Err(ModuleBuildError::Failed(e)),
                Err(payload) => Err(ModuleBuildError::Panicked(panic_message(payload.as_ref()))),
            };
            (*m, r)
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The output of the three per-module stages for one module.
struct ModuleBuild {
    name: ModName,
    ty: TypeInterface,
    ann: AnnModule,
    gen: GenModule,
    t_type: Duration,
    t_bta: Duration,
    t_cogen: Duration,
}

/// Runs typecheck, BTA and cogen for one module against the interfaces
/// of everything at lower levels.
fn build_module(
    resolved: &ResolvedProgram,
    name: &ModName,
    type_ifaces: &BTreeMap<ModName, TypeInterface>,
    bt_ifaces: &BTreeMap<ModName, BtInterface>,
    force_residual: &BTreeSet<QualName>,
    rec: &Recorder,
) -> Result<ModuleBuild, PipelineError> {
    let _span = rec.span_with("build-module", name.as_str());
    // Debug-build fault hook for the fault-injection suite: a panic
    // injected inside a module's stage run must be isolated
    // (`tests/fault_injection.rs`).
    #[cfg(debug_assertions)]
    if std::env::var("MSPEC_FAULT_PANIC_MODULE").as_deref() == Ok(name.as_str()) {
        panic!("injected fault in {name}");
    }
    let module = resolved
        .program()
        .module(name.as_str())
        .expect("levels list only program modules");
    let forced: BTreeSet<Ident> = force_residual
        .iter()
        .filter(|q| q.module == *name)
        .map(|q| q.name)
        .collect();
    let t0 = Instant::now();
    let ty = infer_module_traced(module, type_ifaces, rec)?;
    let t1 = Instant::now();
    let ann = analyse_module_with_traced(module, bt_ifaces, &forced, rec)?;
    let t2 = Instant::now();
    let gen = {
        let _cogen = rec.span_with("cogen", name.as_str());
        compile_module(&ann)
    };
    let t3 = Instant::now();
    Ok(ModuleBuild {
        name: *name,
        ty,
        ann,
        gen,
        t_type: t1 - t0,
        t_bta: t2 - t1,
        t_cogen: t3 - t2,
    })
}

/// Runs the post-resolution stages (typecheck, BTA, cogen, link) over a
/// resolved program, fault-isolated: every module that *can* build
/// does, even when siblings fail or panic.
///
/// # Errors
///
/// [`PipelineError::Build`] carrying the aggregated [`BuildReport`] if
/// any module failed, panicked, or was skipped because an import did;
/// [`PipelineError::Spec`] if linking the (complete) set of generating
/// extensions fails.
pub(crate) fn build_stages(
    resolved: &ResolvedProgram,
    force_residual: &BTreeSet<QualName>,
    rec: &Recorder,
) -> Result<(ProgramTypes, AnnProgram, GenProgram, StageTimes), PipelineError> {
    // Overrides naming a function in no module must error no matter
    // which modules exist at which level, so check up front (the
    // whole-program driver in `mspec-bta` checks after its loop).
    for q in force_residual {
        if resolved.def(q).is_none() {
            return Err(BtaError::UnknownOverride { module: q.module, name: q.name }.into());
        }
    }

    let t_start = Instant::now();
    let levels = module_levels(resolved.graph());
    let build_span = if rec.is_enabled() {
        // The detail names the strategy, as recorded traces have it.
        rec.span_with(
            "build",
            &format!("{} modules, Sequential", resolved.program().modules.len()),
        )
    } else {
        rec.span("build")
    };
    let mut times = StageTimes { levels: levels.len(), ..StageTimes::default() };

    let mut types = ProgramTypes::default();
    let mut ann_modules: Vec<AnnModule> = Vec::new();
    let mut gen_modules: Vec<GenModule> = Vec::new();
    let mut report = BuildReport::default();

    let mut type_ifaces: BTreeMap<ModName, TypeInterface> = BTreeMap::new();
    let mut bt_ifaces: BTreeMap<ModName, BtInterface> = BTreeMap::new();
    let mut dead: BTreeSet<ModName> = BTreeSet::new();
    for (depth, level) in levels.iter().enumerate() {
        let _level_span = if rec.is_enabled() {
            rec.span_with(&format!("level{depth}"), &format!("{} modules", level.len()))
        } else {
            rec.span("level")
        };
        // A module whose import failed (or was itself skipped) cannot
        // build — its interfaces are missing. Skip it, naming the
        // culprit, and keep the rest of the level.
        let mut runnable: Vec<ModName> = Vec::with_capacity(level.len());
        for m in level {
            match resolved.graph().direct_imports(m).iter().find(|d| dead.contains(d)) {
                Some(culprit) => {
                    dead.insert(*m);
                    report.push(*m, ModuleOutcome::Skipped { import: *culprit });
                }
                None => runnable.push(*m),
            }
        }
        let results = run_level(&runnable, |m| {
            build_module(resolved, m, &type_ifaces, &bt_ifaces, force_residual, rec)
        });
        for (name, r) in results {
            let mb = match r {
                Ok(mb) => mb,
                Err(e) => {
                    dead.insert(name);
                    report.push(name, ModuleOutcome::Failed(e));
                    continue;
                }
            };
            times.typecheck += mb.t_type;
            times.bta += mb.t_bta;
            times.cogen += mb.t_cogen;
            for (fn_name, scheme) in mb.ty.iter() {
                types.insert(QualName { module: mb.name, name: *fn_name }, scheme.clone());
            }
            bt_ifaces.insert(mb.name, mb.ann.interface.clone());
            type_ifaces.insert(mb.name, mb.ty);
            ann_modules.push(mb.ann);
            report.push(mb.name, ModuleOutcome::Built);
            gen_modules.push(mb.gen);
        }
    }

    if !report.is_clean() {
        return Err(PipelineError::Build(Box::new(report)));
    }

    let t_link = Instant::now();
    let gen = {
        let _link_span = rec.span("link");
        GenProgram::link(gen_modules).map_err(PipelineError::Spec)?
    };
    times.link = t_link.elapsed();
    drop(build_span);
    times.total = t_start.elapsed();
    rec.count("build.modules_built", report.rebuilt() as u64);
    rec.count("build.levels", times.levels as u64);
    Ok((types, AnnProgram { modules: ann_modules }, gen, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use mspec_core_test_support::*;

    fn build(
        src: &str,
        forced: &BTreeSet<QualName>,
    ) -> Result<(Pipeline, StageTimes), PipelineError> {
        let p = mspec_lang::parser::parse_program(src).unwrap();
        Pipeline::from_program_traced(p, forced, &Recorder::disabled())
    }

    #[test]
    fn diamond_graph_levels() {
        let src = DIAMOND;
        let p = mspec_lang::parser::parse_program(src).unwrap();
        let rp = mspec_lang::resolve::resolve(p).unwrap();
        let levels = module_levels(rp.graph());
        let names: Vec<Vec<&str>> = levels
            .iter()
            .map(|l| l.iter().map(|m| m.as_str()).collect())
            .collect();
        assert_eq!(names, vec![vec!["A"], vec!["B", "C"], vec!["D"]]);
    }

    #[test]
    fn staged_build_matches_whole_program_residual() {
        let (p, times) = build(DIAMOND, &BTreeSet::new()).unwrap();
        assert_eq!(times.levels, 3);
        let args = || vec![mspec_genext::SpecArg::Dynamic];
        let s = p.specialise("D", "d1", args()).unwrap();
        assert_eq!(
            s.run(vec![mspec_lang::eval::Value::nat(5)]).unwrap(),
            mspec_lang::eval::Value::nat(21)
        );
        let whole = Pipeline::from_source(DIAMOND).unwrap();
        assert_eq!(s.source(), whole.specialise("D", "d1", args()).unwrap().source());
    }

    #[test]
    fn panicking_module_is_captured_not_fatal() {
        let mods = [ModName::new("A"), ModName::new("B"), ModName::new("C")];
        let results = run_level(&mods, |m| -> Result<u32, PipelineError> {
            if m.as_str() == "B" {
                panic!("injected fault in {m}");
            }
            Ok(7)
        });
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].1, Ok(7));
        match &results[1].1 {
            Err(ModuleBuildError::Panicked(msg)) => {
                assert!(msg.contains("injected fault in B"), "{msg}");
            }
            other => panic!("expected a captured panic, got {other:?}"),
        }
        assert_eq!(results[2].1, Ok(7), "C must still build after B panics");
    }

    #[test]
    fn failing_module_reports_aggregate_and_skips_dependents() {
        // B has a type error (boolean + nat); C is independent and must
        // still build; D imports B and must be skipped, naming B.
        let src = "module A where\n\
            a1 x = x + 1\n\
            module B where\n\
            import A\n\
            b1 x = a1 x + (1 < 2)\n\
            module C where\n\
            import A\n\
            c1 x = a1 x + 3\n\
            module D where\n\
            import B\n\
            import C\n\
            d1 x = b1 x + c1 x\n";
        let err = build(src, &BTreeSet::new()).unwrap_err();
        let PipelineError::Build(report) = err else {
            panic!("expected an aggregated build report, got {err:?}");
        };
        let failed = report.failed();
        assert_eq!(failed.len(), 1, "{report}");
        assert_eq!(failed[0].0.as_str(), "B");
        assert!(matches!(
            failed[0].1,
            ModuleBuildError::Failed(PipelineError::Type(_))
        ));
        assert_eq!(report.skipped(), vec![(ModName::new("D"), ModName::new("B"))]);
        let built_mods = report.built();
        let built: Vec<&str> = built_mods.iter().map(|m| m.as_str()).collect();
        assert_eq!(built, vec!["A", "C"], "siblings of a failed module still build");
        let text = report.to_string();
        assert!(text.contains("1 failed, 1 skipped, 2 built"), "{text}");
    }

    #[test]
    fn staged_build_reports_unknown_override() {
        let forced: BTreeSet<QualName> = [QualName::new("D", "ghost")].into();
        let err = build(DIAMOND, &forced).unwrap_err();
        assert!(matches!(err, PipelineError::Bta(BtaError::UnknownOverride { .. })));
    }

    /// A 4-module, 3-level diamond: `d1 x = (2(x+1)) + ((x+1)+3)`.
    mod mspec_core_test_support {
        pub const DIAMOND: &str = "module A where\n\
            a1 x = x + 1\n\
            module B where\n\
            import A\n\
            b1 x = a1 x * 2\n\
            module C where\n\
            import A\n\
            c1 x = a1 x + 3\n\
            module D where\n\
            import B\n\
            import C\n\
            d1 x = b1 x + c1 x\n";
    }
}
