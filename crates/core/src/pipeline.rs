//! The pipeline facade: source text to residual program.

use crate::error::PipelineError;
use mspec_bta::AnnProgram;
use mspec_cogen::build_program;
use mspec_genext::emit::FileSink;
use mspec_genext::{Engine, EngineOptions, GenProgram, ResidualProgram, SpecArg, SpecStats};
use mspec_lang::ast::{Program, QualName};
use mspec_lang::eval::{Evaluator, Value, DEFAULT_FUEL};
use mspec_lang::parser::parse_program;
use mspec_lang::pretty::pretty_program;
use mspec_lang::bytecode::{compile as compile_bytecode, BcProgram};
use mspec_lang::fuse::{fuse_chunks, FuseStats};
use mspec_lang::resolve::{resolve, ResolvedProgram};
use mspec_lang::vm::{bc_error, Runner, Vm, VmOpt};
use mspec_telemetry::Recorder;
use mspec_types::ProgramTypes;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A fully prepared program: resolved, typed, binding-time analysed and
/// converted to linked generating extensions. Cheap to specialise many
/// times (the whole point of the generating-extension approach).
#[derive(Debug)]
pub struct Pipeline {
    resolved: ResolvedProgram,
    types: ProgramTypes,
    ann: AnnProgram,
    gen: GenProgram,
}

impl Pipeline {
    /// Builds the pipeline from source text containing one or more
    /// modules.
    ///
    /// # Errors
    ///
    /// A parse or resolution error, or the [`PipelineError::Build`]
    /// report of a module that failed to typecheck, analyse or cogen.
    pub fn from_source(src: &str) -> Result<Pipeline, PipelineError> {
        Pipeline::from_source_with(src, &BTreeSet::new())
    }

    /// Like [`Pipeline::from_source`], forcing the given functions to be
    /// residualised (the paper's §5 hand annotation).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::from_source`]; an override naming no function
    /// fails the build.
    pub fn from_source_with(
        src: &str,
        force_residual: &BTreeSet<QualName>,
    ) -> Result<Pipeline, PipelineError> {
        Pipeline::from_program_with(parse_program(src)?, force_residual)
    }

    /// Builds the pipeline from an already-constructed program.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::from_source`].
    pub fn from_program(program: Program) -> Result<Pipeline, PipelineError> {
        Pipeline::from_program_with(program, &BTreeSet::new())
    }

    /// [`Pipeline::from_program`] with forced-residual overrides.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::from_source_with`].
    pub fn from_program_with(
        program: Program,
        force_residual: &BTreeSet<QualName>,
    ) -> Result<Pipeline, PipelineError> {
        Pipeline::from_program_traced(program, force_residual, &Recorder::disabled())
    }

    /// [`Pipeline::from_program_with`] recording build telemetry: a
    /// `resolve` span, then the spans and counters of the front end,
    /// [`mspec_cogen::build_program`], which builds one module at a
    /// time in import order.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::from_source_with`].
    pub fn from_program_traced(
        program: Program,
        force_residual: &BTreeSet<QualName>,
        rec: &Recorder,
    ) -> Result<Pipeline, PipelineError> {
        let resolved = {
            let _span = rec.span("resolve");
            resolve(program)?
        };
        let (types, ann, gen) = build_program(&resolved, force_residual, rec)
            .map_err(|report| PipelineError::Build(Box::new(report)))?;
        Ok(Pipeline { resolved, types, ann, gen })
    }

    /// The resolved source program.
    pub fn resolved(&self) -> &ResolvedProgram {
        &self.resolved
    }

    /// The inferred Hindley–Milner types.
    pub fn types(&self) -> &ProgramTypes {
        &self.types
    }

    /// The binding-time-annotated program (with interfaces).
    pub fn annotated(&self) -> &AnnProgram {
        &self.ann
    }

    /// The linked generating extensions.
    pub fn genext(&self) -> &GenProgram {
        &self.gen
    }

    /// Specialises `module.function` with respect to `args`, using the
    /// default (breadth-first) engine.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoSuchFunction`] or any specialisation error.
    pub fn specialise(
        &self,
        module: &str,
        function: &str,
        args: Vec<SpecArg>,
    ) -> Result<Specialised, PipelineError> {
        self.specialise_opts(module, function, args, EngineOptions::default())
    }

    /// [`Pipeline::specialise`] with explicit engine options (strategy,
    /// fuel).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::specialise`].
    pub fn specialise_opts(
        &self,
        module: &str,
        function: &str,
        args: Vec<SpecArg>,
        options: EngineOptions,
    ) -> Result<Specialised, PipelineError> {
        self.specialise_traced(module, function, args, options, &Recorder::disabled())
    }

    /// [`Pipeline::specialise_opts`] recording engine telemetry: a
    /// `specialise` span plus one decision event per specialisation
    /// request (see `mspec_telemetry::SpecEvent`).
    ///
    /// # Errors
    ///
    /// As [`Pipeline::specialise`].
    pub fn specialise_traced(
        &self,
        module: &str,
        function: &str,
        args: Vec<SpecArg>,
        options: EngineOptions,
        rec: &Recorder,
    ) -> Result<Specialised, PipelineError> {
        let entry = QualName::new(module, function);
        if self.gen.function(&entry).is_none() {
            return Err(PipelineError::NoSuchFunction {
                module: module.to_string(),
                name: function.to_string(),
            });
        }
        let _span = if rec.is_enabled() {
            rec.span_with("specialise", &format!("{module}.{function}"))
        } else {
            rec.span("specialise")
        };
        let mut engine = Engine::with_recorder(&self.gen, options, rec.clone());
        let residual = engine.specialise(&entry, args)?;
        Ok(Specialised {
            residual,
            stats: *engine.stats(),
            provenance: engine.provenance().to_vec(),
            exec: Arc::default(),
        })
    }

    /// Runs the *source* program directly (the correctness oracle).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Eval`] on run-time errors.
    pub fn run_source(
        &self,
        module: &str,
        function: &str,
        args: Vec<Value>,
    ) -> Result<Value, PipelineError> {
        let mut ev = Evaluator::new(&self.resolved);
        Ok(ev.call_by_name(module, function, args)?)
    }

    /// Runs the *source* program under the given execution engine
    /// (e.g. the VM for deeply recursive programs the tree evaluator's
    /// depth limit would reject).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Eval`] on run-time errors.
    pub fn run_source_with(
        &self,
        runner: Runner,
        module: &str,
        function: &str,
        args: Vec<Value>,
    ) -> Result<Value, PipelineError> {
        self.run_source_opt(runner, VmOpt::None, module, function, args)
    }

    /// [`Pipeline::run_source_with`] at an explicit tier-1 optimisation
    /// level ([`VmOpt::Fuse`] runs the superinstruction pass before
    /// dispatch; the tree runner ignores the level).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Eval`] on run-time errors.
    pub fn run_source_opt(
        &self,
        runner: Runner,
        opt: VmOpt,
        module: &str,
        function: &str,
        args: Vec<Value>,
    ) -> Result<Value, PipelineError> {
        let entry = QualName::new(module, function);
        Ok(runner.run_opt(&self.resolved, &entry, args, DEFAULT_FUEL, opt)?)
    }
}

/// A function is considered hot — and its chunk handed to the fusion
/// pass — once the profiling run attributes at least this many
/// fuel-charging instructions to it. Low on purpose: fusion is cheap
/// and semantics-preserving, so the threshold only exists to skip
/// functions that barely execute.
const FUSE_HOT_MIN: u64 = 32;

/// Where a [`Specialised`]'s tiered execution state currently stands
/// (see [`Specialised::exec_status`]). Purely observational — used by
/// telemetry and the cache tests; never consulted for control flow
/// outside the cache itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStatus {
    /// The residual has been resolved (and the resolution cached).
    pub resolved: bool,
    /// Bytecode has been compiled (and cached).
    pub compiled: bool,
    /// The profile-guided fused program has been built (and cached).
    pub fused: bool,
    /// Fusion-pass counters, all zero until `fused`.
    pub fuse_stats: FuseStats,
}

/// Cached execution artefacts of one residual program — the per-residual
/// state of the tiered execution layer. Shared across clones of the
/// owning [`Specialised`] (behind an `Arc`), so a clone handed to
/// another thread reuses, rather than redoes, the resolve/compile/fuse
/// work. Each stage is a `OnceLock` filled on first success; errors are
/// never cached (they are terminal for the caller anyway, and a
/// residual that fails to resolve once will fail identically again).
#[derive(Debug, Default)]
struct ExecCache {
    /// Stage 1: the resolved residual (kills the per-call
    /// `clone`+`resolve` this method historically did).
    resolved: OnceLock<Arc<ResolvedProgram>>,
    /// Stage 2: compiled flat bytecode, shared with tier-0 fuel
    /// semantics.
    compiled: OnceLock<Arc<BcProgram>>,
    /// Per-chunk instruction counts from the first (profiling) VM run.
    profile: OnceLock<Vec<u64>>,
    /// Stage 3: the superinstruction-fused program, built from the
    /// profile (hot chunks only) before the second VM run.
    fused: OnceLock<(Arc<BcProgram>, FuseStats)>,
}

impl ExecCache {
    fn resolved(&self, residual: &ResidualProgram) -> Result<Arc<ResolvedProgram>, PipelineError> {
        if let Some(rp) = self.resolved.get() {
            return Ok(Arc::clone(rp));
        }
        let rp = Arc::new(resolve(residual.program.clone())?);
        // A concurrent first call may have won the race; use whichever
        // value landed (both are resolutions of the same program).
        Ok(Arc::clone(self.resolved.get_or_init(|| rp)))
    }

    fn compiled(&self, rp: &ResolvedProgram) -> Result<Arc<BcProgram>, PipelineError> {
        if let Some(bc) = self.compiled.get() {
            return Ok(Arc::clone(bc));
        }
        let bc = Arc::new(compile_bytecode(rp).map_err(bc_error)?);
        Ok(Arc::clone(self.compiled.get_or_init(|| bc)))
    }

    /// One VM execution at the current tier, advancing the tier state:
    /// the first run executes unfused with profiling on and banks the
    /// per-chunk counters; the next run spends them on a profile-guided
    /// fusion pass; every run after that dispatches the cached fused
    /// program directly.
    fn run_vm(
        &self,
        residual: &ResidualProgram,
        entry: &QualName,
        args: Vec<Value>,
        fuel: u64,
    ) -> Result<Value, PipelineError> {
        let rp = self.resolved(residual)?;
        if let Some((fused, _)) = self.fused.get() {
            return Ok(Vm::with_fuel(fused, fuel).call(entry, args)?);
        }
        let bc = self.compiled(&rp)?;
        if let Some(profile) = self.profile.get() {
            let (fused, _) = self.fused.get_or_init(|| {
                let (prog, stats) =
                    fuse_chunks(&bc, |k| profile.get(k).is_some_and(|n| *n >= FUSE_HOT_MIN));
                (Arc::new(prog), stats)
            });
            return Ok(Vm::with_fuel(fused, fuel).call(entry, args)?);
        }
        // First run: profile it. The counters survive even an erroring
        // run (modulo the segment after the last frame transition), so
        // a fuel-exhausted first run still seeds a useful profile.
        let mut vm = Vm::with_fuel(&bc, fuel);
        vm.enable_profiling();
        let out = vm.call(entry, args);
        if let Some(p) = vm.profile() {
            let _ = self.profile.set(p.to_vec());
        }
        Ok(out?)
    }

    fn status(&self) -> ExecStatus {
        let (fused, fuse_stats) = match self.fused.get() {
            Some((_, s)) => (true, *s),
            None => (false, FuseStats::default()),
        };
        ExecStatus {
            resolved: self.resolved.get().is_some(),
            compiled: self.compiled.get().is_some(),
            fused,
            fuse_stats,
        }
    }
}

/// The result of a specialisation: a residual program plus run counters.
#[derive(Debug, Clone)]
pub struct Specialised {
    /// The residual program (modules, imports, entry).
    pub residual: ResidualProgram,
    /// Engine counters.
    pub stats: SpecStats,
    /// Per-residual-definition provenance (source function and mask), in
    /// creation order.
    pub provenance: Vec<mspec_genext::Provenance>,
    /// Tiered execution cache (resolve/compile/fuse once, run many);
    /// shared across clones.
    exec: Arc<ExecCache>,
}

impl Specialised {
    /// Runs the residual program on the dynamic inputs under the default
    /// execution engine ([`Runner::Vm`] — the compiled fast path; the
    /// tree evaluator remains available as ground truth via
    /// [`Specialised::run_with`]).
    ///
    /// Repeat calls are the fast path by design: the residual is
    /// resolved and compiled once (cached behind the shared
    /// [`ExecCache`]), the first VM run profiles per-function
    /// instruction counts, and later runs dispatch a profile-guided
    /// superinstruction-fused program — all tiers value-, error- and
    /// fuel-identical (see `mspec_lang::fuse`).
    ///
    /// # Errors
    ///
    /// Resolution errors (never for engine-produced programs) or
    /// run-time evaluation errors.
    pub fn run(&self, dynamic_args: Vec<Value>) -> Result<Value, PipelineError> {
        self.run_with(Runner::default(), dynamic_args)
    }

    /// Runs the residual program under an explicit execution engine.
    ///
    /// # Errors
    ///
    /// As [`Specialised::run`].
    pub fn run_with(
        &self,
        runner: Runner,
        dynamic_args: Vec<Value>,
    ) -> Result<Value, PipelineError> {
        self.run_with_fuel(runner, dynamic_args, DEFAULT_FUEL)
    }

    /// [`Specialised::run_with`] under an explicit fuel budget (a budget
    /// of `n` admits exactly `n` charges, identically at every tier).
    ///
    /// # Errors
    ///
    /// As [`Specialised::run`].
    pub fn run_with_fuel(
        &self,
        runner: Runner,
        dynamic_args: Vec<Value>,
        fuel: u64,
    ) -> Result<Value, PipelineError> {
        match runner {
            Runner::Tree => {
                let rp = self.exec.resolved(&self.residual)?;
                Ok(Evaluator::with_fuel(&rp, fuel).call(&self.residual.entry, dynamic_args)?)
            }
            Runner::Vm => self
                .exec
                .run_vm(&self.residual, &self.residual.entry, dynamic_args, fuel),
        }
    }

    /// Where the tiered execution cache stands: what has been resolved,
    /// compiled and fused so far, plus the fusion-pass counters (the
    /// `vm.fused_*` telemetry feed).
    pub fn exec_status(&self) -> ExecStatus {
        self.exec.status()
    }

    /// Runs the residual program on the VM, returning the result and the
    /// fuel it spent — the residual-quality metric of the ablation
    /// experiments, identical to the tree evaluator's step count. Uses
    /// the cached bytecode; budget: [`DEFAULT_FUEL`], the constant every
    /// other runner shares.
    ///
    /// # Errors
    ///
    /// As [`Specialised::run`].
    pub fn run_compiled(&self, dynamic_args: Vec<Value>) -> Result<(Value, u64), PipelineError> {
        self.run_compiled_with(dynamic_args, DEFAULT_FUEL)
    }

    /// [`Specialised::run_compiled`] under an explicit fuel budget.
    ///
    /// # Errors
    ///
    /// As [`Specialised::run`].
    pub fn run_compiled_with(
        &self,
        dynamic_args: Vec<Value>,
        budget: u64,
    ) -> Result<(Value, u64), PipelineError> {
        let rp = self.exec.resolved(&self.residual)?;
        let bc = self.exec.compiled(&rp)?;
        let mut vm = Vm::with_fuel(&bc, budget);
        let v = vm.call(&self.residual.entry, dynamic_args)?;
        Ok((v, budget - vm.fuel_left()))
    }

    /// The residual program as concrete syntax.
    pub fn source(&self) -> String {
        pretty_program(&self.residual.program)
    }

    /// A human-readable table of which source function each residual
    /// definition specialises, at which binding-time mask.
    pub fn provenance_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for p in &self.provenance {
            let _ = writeln!(
                out,
                "{} <- {} {}",
                p.residual,
                p.source,
                p.mask.render(p.vars)
            );
        }
        out
    }

    /// Names of the residual modules, in deterministic order.
    pub fn module_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .residual
            .program
            .modules
            .iter()
            .map(|m| m.name.as_str().to_string())
            .collect();
        names.sort();
        names
    }
}

/// Parses, resolves and runs a source program in one step (used by tests
/// and examples as the semantic oracle).
///
/// # Errors
///
/// Any parse/resolution/evaluation error.
pub fn run_source(
    src: &str,
    module: &str,
    function: &str,
    args: Vec<Value>,
) -> Result<Value, PipelineError> {
    let rp = resolve(parse_program(src)?)?;
    let mut ev = Evaluator::new(&rp);
    Ok(ev.call_by_name(module, function, args)?)
}

/// Writes a residual program to `dir` using the paper's two-pass file
/// emission (bodies to temporaries, then headers + imports). Returns the
/// written file paths.
///
/// # Errors
///
/// I/O errors.
pub fn write_residual(
    dir: impl AsRef<Path>,
    residual: &ResidualProgram,
) -> Result<Vec<PathBuf>, PipelineError> {
    let mut sink = FileSink::new(dir.as_ref()).map_err(PipelineError::Spec)?;
    for m in &residual.program.modules {
        for d in &m.defs {
            use mspec_genext::ModuleSink as _;
            sink.emit(m.name, d.clone()).map_err(PipelineError::Spec)?;
        }
    }
    sink.finish(&residual.imports).map_err(PipelineError::Spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const POWER: &str =
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

    #[test]
    fn power_static_exponent_unfolds_to_paper_code() {
        let p = Pipeline::from_source(POWER).unwrap();
        let s = p
            .specialise("Power", "power", vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic])
            .unwrap();
        // §2: power3 x = x * (x * x)
        let src = s.source();
        assert!(src.contains("x * (x * x)"), "{src}");
        assert_eq!(s.run(vec![Value::nat(2)]).unwrap(), Value::nat(8));
        assert_eq!(s.run(vec![Value::nat(5)]).unwrap(), Value::nat(125));
    }

    #[test]
    fn power_dynamic_exponent_builds_polyvariant_chain() {
        // §2: power {D,S} with x = 2 — polyvariant specialisation would
        // need n static to unfold; with n dynamic the function is
        // residualised once and recursion becomes a residual self-call.
        let p = Pipeline::from_source(POWER).unwrap();
        let s = p
            .specialise("Power", "power", vec![SpecArg::Dynamic, SpecArg::Static(Value::nat(2))])
            .unwrap();
        let src = s.source();
        // One residual function in module Power, self-recursive, with
        // the static 2 inlined.
        assert!(src.contains("module Power"), "{src}");
        assert!(src.contains('2'), "{src}");
        assert_eq!(s.run(vec![Value::nat(10)]).unwrap(), Value::nat(1024));
    }

    #[test]
    fn fully_dynamic_specialisation_preserves_semantics() {
        let p = Pipeline::from_source(POWER).unwrap();
        let s = p
            .specialise("Power", "power", vec![SpecArg::Dynamic, SpecArg::Dynamic])
            .unwrap();
        assert_eq!(
            s.run(vec![Value::nat(4), Value::nat(3)]).unwrap(),
            Value::nat(81)
        );
    }

    #[test]
    fn no_such_function_is_reported() {
        let p = Pipeline::from_source(POWER).unwrap();
        assert!(matches!(
            p.specialise("Power", "ghost", vec![]),
            Err(PipelineError::NoSuchFunction { .. })
        ));
    }

    #[test]
    fn run_source_oracle_matches() {
        assert_eq!(
            run_source(POWER, "Power", "power", vec![Value::nat(3), Value::nat(2)]).unwrap(),
            Value::nat(8)
        );
    }

    #[test]
    fn repeat_runs_tier_up_through_the_exec_cache() {
        let p = Pipeline::from_source(POWER).unwrap();
        let s = p
            .specialise(
                "Power",
                "power",
                vec![SpecArg::Static(Value::nat(64)), SpecArg::Dynamic],
            )
            .unwrap();
        assert_eq!(s.exec_status(), ExecStatus::default());

        // Run 1: resolve + compile cached, profiling run.
        assert_eq!(s.run(vec![Value::nat(1)]).unwrap(), Value::nat(1));
        let st = s.exec_status();
        assert!(st.resolved && st.compiled && !st.fused, "{st:?}");

        // Run 2: profile spent on the fusion pass; a residual this
        // multiplication-heavy must fuse something.
        assert_eq!(s.run(vec![Value::nat(1)]).unwrap(), Value::nat(1));
        let st = s.exec_status();
        assert!(st.fused, "{st:?}");
        assert!(st.fuse_stats.total() > 0, "{st:?}");

        // Run 3: fused dispatch, same values as ground truth.
        assert_eq!(
            s.run(vec![Value::nat(2)]).unwrap(),
            s.run_with(Runner::Tree, vec![Value::nat(2)]).unwrap()
        );

        // Clones share the cache: no re-resolve/-compile/-fuse.
        let clone = s.clone();
        assert!(clone.exec_status().fused);
    }

    #[test]
    fn explicit_fuel_budget_is_shared_across_tiers() {
        let p = Pipeline::from_source(POWER).unwrap();
        let s = p
            .specialise("Power", "power", vec![SpecArg::Dynamic, SpecArg::Dynamic])
            .unwrap();
        // Find the exact VM spend out-of-band, then check the breach
        // point is the same budget at every tier (runs 1..3 walk the
        // tier ladder).
        let args = || vec![Value::nat(6), Value::nat(2)];
        let rp = resolve(s.residual.program.clone()).unwrap();
        let bc = compile_bytecode(&rp).unwrap();
        let mut vm = Vm::with_fuel(&bc, DEFAULT_FUEL);
        vm.call(&s.residual.entry, args()).unwrap();
        let spent = DEFAULT_FUEL - vm.fuel_left();
        for _ in 0..3 {
            assert!(s.run_with_fuel(Runner::Vm, args(), spent).is_ok());
            assert!(matches!(
                s.run_with_fuel(Runner::Vm, args(), spent - 1),
                Err(PipelineError::Eval(mspec_lang::eval::EvalError::FuelExhausted))
            ));
        }
    }

    #[test]
    fn run_compiled_uses_the_shared_default_budget() {
        let p = Pipeline::from_source(POWER).unwrap();
        let s = p
            .specialise("Power", "power", vec![SpecArg::Dynamic, SpecArg::Dynamic])
            .unwrap();
        let (v, steps) = s.run_compiled(vec![Value::nat(3), Value::nat(2)]).unwrap();
        assert_eq!(v, Value::nat(8));
        assert!(steps > 0 && steps < DEFAULT_FUEL);
        // The count is the tree evaluator's fuel spend.
        let rp = resolve(s.residual.program.clone()).unwrap();
        let mut tree = Evaluator::new(&rp);
        tree.call(&s.residual.entry, vec![Value::nat(3), Value::nat(2)]).unwrap();
        assert_eq!(steps, DEFAULT_FUEL - tree.fuel_left());
        // The explicit-budget variant breaches exactly below the spend.
        assert!(s
            .run_compiled_with(vec![Value::nat(3), Value::nat(2)], steps)
            .is_ok());
        assert!(s
            .run_compiled_with(vec![Value::nat(3), Value::nat(2)], steps - 1)
            .is_err());
    }

    #[test]
    fn accessors_expose_stages() {
        let p = Pipeline::from_source(POWER).unwrap();
        assert_eq!(p.resolved().program().modules.len(), 1);
        assert_eq!(p.types().len(), 1);
        assert_eq!(p.annotated().modules.len(), 1);
        assert_eq!(p.genext().fn_count(), 1);
    }
}
