//! The monolithic interpretive specialiser.
//!
//! A [`mix_specialise`] session re-does everything from scratch — parse,
//! resolve, type check, binding-time analyse — and then specialises by
//! *interpreting* the annotated program: environments are name-keyed
//! maps, binding times are evaluated by walking symbolic terms, and the
//! whole program (libraries included) must be in hand as source. The
//! output is one monolithic residual module. This is the cost model the
//! paper's generating extensions are measured against.

use crate::error::MixError;
use mspec_bta::analyse::analyse_program;
use mspec_bta::division::{Division, ParamBt};
use mspec_bta::{AnnDef, AnnExpr, AnnProgram, BtMask, CoerceSpec, SigShape};
use mspec_genext::budget::{BudgetResource, Fuel, SpecBudget};
use mspec_genext::emit::{assemble, imports_of};
use mspec_genext::engine::failing_code;
use mspec_genext::{ResidualProgram, SpecArg, SpecError};
use mspec_lang::ast::{CallName, Def, Expr, Ident, ModName, PrimOp, Program, QualName};
use mspec_lang::eval::Value;
use mspec_lang::parser::parse_program;
use mspec_lang::resolve::{resolve, ResolvedProgram};
use mspec_lang::vm::Runner;
use mspec_telemetry::{Decision, Recorder, SpecEvent};
use mspec_types::infer_program;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

/// Options for a mix session.
#[derive(Debug, Clone, Copy)]
pub struct MixOptions {
    /// `true` (default): polyvariant binding times — a function may be
    /// specialised at several different masks. `false`: monovariant —
    /// all uses of a function are merged into one mask first (§4.1's
    /// "rather unrealistic" baseline).
    pub polyvariant: bool,
    /// Resource limits, shared with the genext engine ([`SpecBudget`]).
    /// Mix enforces step fuel, the specialisation-count cap and the
    /// pending cap; exhaustion is always a structured error (the
    /// baseline has no generalising fallback — that is an engine
    /// feature).
    pub budget: SpecBudget,
}

impl Default for MixOptions {
    fn default() -> MixOptions {
        MixOptions { polyvariant: true, budget: SpecBudget::default() }
    }
}

/// Counters from a mix session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixStats {
    /// Residual definitions constructed.
    pub specialisations: usize,
    /// Memoisation hits.
    pub memo_hits: usize,
    /// Calls unfolded.
    pub unfolds: usize,
    /// Interpretation steps.
    pub steps: u64,
}

impl MixStats {
    /// These counters as the shared CLI summary (mix has no memo-probe
    /// or generalisation accounting; those fields stay zero).
    pub fn summary(&self, entry: impl Into<String>) -> mspec_telemetry::SpecSummary {
        mspec_telemetry::SpecSummary {
            entry: entry.into(),
            specialisations: self.specialisations as u64,
            memo_hits: self.memo_hits as u64,
            unfolds: self.unfolds as u64,
            steps: self.steps,
            ..mspec_telemetry::SpecSummary::default()
        }
    }
}

/// Where a mix session spent its time — the per-session overhead the
/// generating-extension approach pays only once per module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixPhases {
    /// Parsing, in nanoseconds.
    pub parse_ns: u64,
    /// Resolution + type checking.
    pub check_ns: u64,
    /// Whole-program binding-time analysis.
    pub bta_ns: u64,
    /// The specialisation proper.
    pub spec_ns: u64,
}

/// The result of a mix session.
#[derive(Debug, Clone)]
pub struct MixOutcome {
    /// The (monolithic) residual program.
    pub residual: ResidualProgram,
    /// Session counters.
    pub stats: MixStats,
    /// Phase timings of this session.
    pub phases: MixPhases,
}

impl MixOutcome {
    /// Runs the residual program on the dynamic inputs under the given
    /// execution engine (the same [`Runner`] selection as
    /// `Specialised::run_with`, so mix-baseline and genext residuals are
    /// measured on equal footing).
    ///
    /// # Errors
    ///
    /// Resolution errors (never for mix-produced programs) or run-time
    /// evaluation errors.
    pub fn run_with(
        &self,
        runner: Runner,
        dynamic_args: Vec<Value>,
    ) -> Result<Value, MixError> {
        let rp = resolve(self.residual.program.clone())?;
        runner
            .run(&rp, &self.residual.entry, dynamic_args, mspec_lang::eval::DEFAULT_FUEL)
            .map_err(MixError::from)
    }
}

/// A full mix session from source text: parse + resolve + typecheck +
/// whole-program BTA + interpretive specialisation.
///
/// # Errors
///
/// Any stage's error.
pub fn mix_specialise(
    src: &str,
    module: &str,
    function: &str,
    args: Vec<SpecArg>,
    options: MixOptions,
) -> Result<MixOutcome, MixError> {
    mix_specialise_traced(src, module, function, args, options, &Recorder::disabled())
}

/// [`mix_specialise`] with telemetry: a span per phase (`mix-parse`,
/// `mix-check`, `mix-bta`, `mix-spec`) and one decision event per
/// specialisation request, mirroring the genext engine's events so the
/// two cost models can be compared trace-to-trace.
///
/// # Errors
///
/// Any stage's error.
pub fn mix_specialise_traced(
    src: &str,
    module: &str,
    function: &str,
    args: Vec<SpecArg>,
    options: MixOptions,
    rec: &Recorder,
) -> Result<MixOutcome, MixError> {
    let t0 = std::time::Instant::now();
    let program = {
        let _span = rec.span("mix-parse");
        parse_program(src)?
    };
    let parse_ns = t0.elapsed().as_nanos() as u64;
    let mut outcome =
        mix_specialise_program_traced(program, module, function, args, options, rec)?;
    outcome.phases.parse_ns = parse_ns;
    Ok(outcome)
}

/// As [`mix_specialise`] but starting from an already-parsed program
/// (still re-resolves, re-typechecks and re-analyses — that is the
/// point of the baseline).
///
/// # Errors
///
/// Any stage's error.
pub fn mix_specialise_program(
    program: Program,
    module: &str,
    function: &str,
    args: Vec<SpecArg>,
    options: MixOptions,
) -> Result<MixOutcome, MixError> {
    mix_specialise_program_traced(program, module, function, args, options, &Recorder::disabled())
}

/// As [`mix_specialise_traced`] but starting from an already-parsed
/// program.
///
/// # Errors
///
/// Any stage's error.
pub fn mix_specialise_program_traced(
    program: Program,
    module: &str,
    function: &str,
    args: Vec<SpecArg>,
    options: MixOptions,
    rec: &Recorder,
) -> Result<MixOutcome, MixError> {
    let t0 = std::time::Instant::now();
    let resolved = {
        let _span = rec.span("mix-check");
        let resolved = resolve(program)?;
        let _types = infer_program(&resolved)?;
        resolved
    };
    let check_ns = t0.elapsed().as_nanos() as u64;
    let t1 = std::time::Instant::now();
    let ann = {
        let _span = rec.span("mix-bta");
        analyse_program(&resolved)?
    };
    let bta_ns = t1.elapsed().as_nanos() as u64;
    let entry = QualName::new(module, function);
    let t2 = std::time::Instant::now();
    let _span = if rec.is_enabled() {
        rec.span_with("mix-spec", &format!("{module}.{function}"))
    } else {
        rec.span("mix-spec")
    };
    let mut interp = MixInterp::new(&ann, &resolved, options, false).with_recorder(rec.clone());
    let mut outcome = interp.specialise(&entry, args)?;
    outcome.phases = MixPhases {
        parse_ns: 0,
        check_ns,
        bta_ns,
        spec_ns: t2.elapsed().as_nanos() as u64,
    };
    Ok(outcome)
}

// ---------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------

/// A mix-side partial value (interpretive twin of the engine's `PVal`).
#[derive(Debug, Clone)]
pub(crate) enum MVal {
    Nat(u64),
    Bool(bool),
    Nil,
    Cons(Rc<MVal>, Rc<MVal>),
    Clo(Rc<MClo>),
    Code(Expr),
}

#[derive(Debug)]
pub(crate) struct MClo {
    param: Ident,
    body: Rc<AnnExpr>,
    env: BTreeMap<Ident, MVal>,
    mask: BtMask,
    home: ModName,
    site: usize,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MKey {
    Nat(u64),
    Bool(bool),
    Nil,
    Cons(Box<MKey>, Box<MKey>),
    Clo { site: usize, mask: u128, env: Vec<MKey> },
    Hole,
}

fn msplit(v: &MVal, leaves: &mut Vec<Expr>) -> MKey {
    match v {
        MVal::Nat(n) => MKey::Nat(*n),
        MVal::Bool(b) => MKey::Bool(*b),
        MVal::Nil => MKey::Nil,
        MVal::Cons(h, t) => {
            let hk = msplit(h, leaves);
            let tk = msplit(t, leaves);
            MKey::Cons(Box::new(hk), Box::new(tk))
        }
        MVal::Clo(c) => MKey::Clo {
            site: c.site,
            mask: c.mask.0,
            env: c.env.values().map(|e| msplit(e, leaves)).collect(),
        },
        MVal::Code(e) => {
            leaves.push(e.clone());
            MKey::Hole
        }
    }
}

fn mrebuild(v: &MVal, names: &[Ident], next: &mut usize) -> MVal {
    match v {
        MVal::Nat(_) | MVal::Bool(_) | MVal::Nil => v.clone(),
        MVal::Cons(h, t) => {
            let h2 = mrebuild(h, names, next);
            let t2 = mrebuild(t, names, next);
            MVal::Cons(Rc::new(h2), Rc::new(t2))
        }
        MVal::Clo(c) => {
            let env = c
                .env
                .iter()
                .map(|(k, e)| (*k, mrebuild(e, names, next)))
                .collect();
            MVal::Clo(Rc::new(MClo {
                param: c.param,
                body: Rc::clone(&c.body),
                env,
                mask: c.mask,
                home: c.home,
                site: c.site,
            }))
        }
        MVal::Code(_) => {
            let name = names[*next];
            *next += 1;
            MVal::Code(Expr::Var(name))
        }
    }
}

fn fully_static(v: &MVal) -> bool {
    match v {
        MVal::Nat(_) | MVal::Bool(_) | MVal::Nil => true,
        MVal::Cons(h, t) => fully_static(h) && fully_static(t),
        MVal::Clo(c) => c.env.values().all(fully_static),
        MVal::Code(_) => false,
    }
}

fn to_value(v: &MVal) -> Option<Value> {
    match v {
        MVal::Nat(n) => Some(Value::Nat(*n)),
        MVal::Bool(b) => Some(Value::Bool(*b)),
        MVal::Nil => Some(Value::Nil),
        MVal::Cons(h, t) => Some(Value::Cons(Rc::new(to_value(h)?), Rc::new(to_value(t)?))),
        MVal::Clo(_) | MVal::Code(_) => None,
    }
}

fn from_value(v: &Value) -> Option<MVal> {
    match v {
        Value::Nat(n) => Some(MVal::Nat(*n)),
        Value::Bool(b) => Some(MVal::Bool(*b)),
        Value::Nil => Some(MVal::Nil),
        Value::Cons(h, t) => {
            Some(MVal::Cons(Rc::new(from_value(h)?), Rc::new(from_value(t)?)))
        }
        Value::Closure(_) => None,
    }
}

// ---------------------------------------------------------------------
// The interpreter
// ---------------------------------------------------------------------

struct MPending {
    target: QualName,
    mask: BtMask,
    env: BTreeMap<Ident, MVal>,
    resid_name: Ident,
    formals: Vec<Ident>,
}

pub(crate) struct MixInterp<'a> {
    resolved: &'a ResolvedProgram,
    index: BTreeMap<QualName, &'a AnnDef>,
    bodies: BTreeMap<QualName, Rc<AnnExpr>>,
    options: MixOptions,
    extern_mode: bool,
    fuel: Fuel,
    /// Stack of specialisation/unfold requests currently being served
    /// (for [`SpecError::BudgetExhausted`] diagnostics).
    chain: Vec<QualName>,
    stats: MixStats,
    memo: HashMap<(QualName, u128, Vec<MKey>), Ident>,
    pending: VecDeque<MPending>,
    counters: BTreeMap<QualName, u32>,
    gensym: u64,
    defs_out: Vec<Def>,
    mono_masks: HashMap<QualName, BtMask>,
    pub(crate) extern_needed: Vec<QualName>,
    out_module: ModName,
    recorder: Recorder,
    /// Residual names currently under construction, innermost last —
    /// the parent attributed to decision events (same scheme as the
    /// genext engine's `resid_stack`).
    resid_stack: Vec<Ident>,
}

impl<'a> MixInterp<'a> {
    pub(crate) fn new(
        ann: &'a AnnProgram,
        resolved: &'a ResolvedProgram,
        options: MixOptions,
        extern_mode: bool,
    ) -> MixInterp<'a> {
        let mut index = BTreeMap::new();
        let mut bodies = BTreeMap::new();
        for m in &ann.modules {
            for d in &m.defs {
                let q = QualName { module: m.name, name: d.name };
                index.insert(q, d);
                bodies.insert(q, Rc::new(d.body.clone()));
            }
        }
        let _ = ann; // the index borrows the same data
        MixInterp {
            resolved,
            index,
            bodies,
            options,
            extern_mode,
            fuel: Fuel::new(options.budget.steps),
            chain: Vec::new(),
            stats: MixStats::default(),
            memo: HashMap::new(),
            pending: VecDeque::new(),
            counters: BTreeMap::new(),
            gensym: 0,
            defs_out: Vec::new(),
            mono_masks: HashMap::new(),
            extern_needed: Vec::new(),
            out_module: ModName::new("Spec"),
            recorder: Recorder::disabled(),
            resid_stack: Vec::new(),
        }
    }

    /// Attaches a telemetry recorder (decision events only; stats and
    /// step accounting are unchanged).
    pub(crate) fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    /// Emits one decision event; a no-op (no formatting, no allocation)
    /// when the recorder is disabled.
    #[allow(clippy::too_many_arguments)]
    fn record_decision(
        &self,
        decision: Decision,
        target: &QualName,
        mask: BtMask,
        vars: u32,
        skeleton_hash: u64,
        probe: bool,
        residual: Option<&Ident>,
        witness: String,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let mut ev = SpecEvent::request(target.to_string(), mask.render(vars));
        ev.decision = decision;
        ev.skeleton_hash = skeleton_hash;
        ev.probe = probe;
        ev.residual = residual
            .map(|r| format!("{}.{r}", self.out_module))
            .unwrap_or_default();
        ev.witness = witness;
        ev.parent = self
            .resid_stack
            .last()
            .map(|r| format!("{}.{r}", self.out_module))
            .unwrap_or_default();
        ev.chain_depth = self.chain.len() as u64;
        ev.pending = self.pending.len() as u64;
        ev.fuel_left = self.fuel.remaining();
        ev.specs_left =
            self.options.budget.max_specialisations.saturating_sub(self.memo.len()) as u64;
        self.recorder.spec(ev);
    }

    /// Exports session counters onto the recorder (once, at session end).
    fn flush_counters(&self) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.recorder.count("mix.specialisations", self.stats.specialisations as u64);
        self.recorder.count("mix.memo_hits", self.stats.memo_hits as u64);
        self.recorder.count("mix.unfolds", self.stats.unfolds as u64);
        self.recorder.count("mix.steps", self.stats.steps);
    }

    pub(crate) fn specialise(
        &mut self,
        entry: &QualName,
        args: Vec<SpecArg>,
    ) -> Result<MixOutcome, MixError> {
        let def = *self
            .index
            .get(entry)
            .ok_or(MixError::Spec(SpecError::UnknownEntry(*entry)))?;
        if def.params.len() != args.len() {
            return Err(MixError::Spec(SpecError::EntryArity {
                entry: *entry,
                expected: def.params.len(),
                found: args.len(),
            }));
        }
        let division = Division(
            args.iter()
                .map(|a| match a {
                    SpecArg::Static(_) => ParamBt::Static,
                    SpecArg::Dynamic => ParamBt::Dynamic,
                    SpecArg::StaticSpine(_) => ParamBt::StaticSpine,
                })
                .collect(),
        );
        let mask = division.mask_for(&def.sig)?;
        if !self.options.polyvariant {
            self.compute_mono_masks(entry, mask);
        }
        let mask = if self.options.polyvariant {
            mask
        } else {
            self.mono_masks.get(entry).copied().unwrap_or(mask)
        };

        let mut vals = Vec::with_capacity(args.len());
        for (a, p) in args.iter().zip(&def.params) {
            vals.push(match a {
                SpecArg::Static(v) => from_value(v).ok_or_else(|| {
                    MixError::Spec(SpecError::TypeConfusion(
                        "closure inputs are not supported".into(),
                    ))
                })?,
                SpecArg::Dynamic => MVal::Code(Expr::Var(*p)),
                SpecArg::StaticSpine(n) => {
                    let mut list = MVal::Nil;
                    for i in (0..*n).rev() {
                        list = MVal::Cons(
                            Rc::new(MVal::Code(Expr::Var(Ident::new(format!("{p}{i}"))))),
                            Rc::new(list),
                        );
                    }
                    list
                }
            });
        }
        // Under a merged monovariant mask, some requested-static inputs
        // may have to be treated dynamically; lift them.
        let vals = if self.options.polyvariant {
            vals
        } else {
            let shapes = def.sig.params.clone();
            vals.into_iter()
                .zip(shapes)
                .map(|(v, shape)| self.lift_to_shape(v, &shape, mask))
                .collect::<Result<Vec<_>, _>>()?
        };

        let mut leaves = Vec::new();
        let keys: Vec<MKey> = vals.iter().map(|v| msplit(v, &mut leaves)).collect();
        let formals: Vec<Ident> = leaves
            .iter()
            .enumerate()
            .map(|(i, l)| match l {
                Expr::Var(x) => *x,
                _ => Ident::new(format!("d{i}")),
            })
            .collect();
        let skel = if self.recorder.is_enabled() { mkey_hash(&keys) } else { 0 };
        self.memo
            .insert((*entry, mask.0, keys), entry.name);
        self.record_decision(
            Decision::Entry,
            entry,
            mask,
            def.sig.vars,
            skel,
            false,
            Some(&entry.name),
            String::new(),
        );
        let mut next = 0;
        let env: BTreeMap<Ident, MVal> = def
            .params
            .iter()
            .cloned()
            .zip(vals.iter().map(|v| mrebuild(v, &formals, &mut next)))
            .collect();
        let spec = MPending {
            target: *entry,
            mask,
            env,
            resid_name: entry.name,
            formals,
        };
        self.construct(spec)?;
        while let Some(spec) = self.pending.pop_front() {
            self.construct(spec)?;
        }
        self.flush_counters();

        let residual = self.assemble(entry)?;
        Ok(MixOutcome { residual, stats: self.stats, phases: MixPhases::default() })
    }

    fn assemble(&mut self, entry: &QualName) -> Result<ResidualProgram, MixError> {
        let mut modules: BTreeMap<ModName, Vec<Def>> = BTreeMap::new();
        modules.insert(self.out_module, std::mem::take(&mut self.defs_out));
        // Similix extern mode: copy the original definitions reachable
        // from extern calls, verbatim, in their original modules.
        if self.extern_mode && !self.extern_needed.is_empty() {
            let mut todo: Vec<QualName> = self.extern_needed.clone();
            let mut seen: Vec<QualName> = Vec::new();
            while let Some(q) = todo.pop() {
                if seen.contains(&q) {
                    continue;
                }
                seen.push(q);
                if let Some(d) = self.resolved.def(&q) {
                    modules.entry(q.module).or_default().push(d.clone());
                    for callee in d.body.called_functions() {
                        todo.push(callee);
                    }
                }
            }
        }
        let entry_resid = QualName { module: self.out_module, name: entry.name };
        let imports = imports_of(&modules);
        Ok(assemble(modules, imports, entry_resid)?)
    }

    fn compute_mono_masks(&mut self, entry: &QualName, entry_mask: BtMask) {
        let mut todo = vec![*entry];
        self.mono_masks.insert(*entry, entry_mask);
        while let Some(q) = todo.pop() {
            let mask = self.mono_masks[&q];
            let Some(def) = self.index.get(&q) else { continue };
            let mut sites = Vec::new();
            collect_calls(&def.body, &mut sites);
            for (target, inst) in sites {
                let mut callee_mask = BtMask::all_static();
                for (i, term) in inst.iter().enumerate() {
                    if mask.eval(term).is_dynamic() {
                        callee_mask = callee_mask.set_dynamic(i as u32);
                    }
                }
                if let Some(callee) = self.index.get(&target) {
                    callee_mask = callee.sig.complete_mask(callee_mask);
                }
                let merged = match self.mono_masks.get(&target) {
                    Some(old) => BtMask(old.0 | callee_mask.0),
                    None => callee_mask,
                };
                let merged = match self.index.get(&target) {
                    Some(callee) => callee.sig.complete_mask(merged),
                    None => merged,
                };
                if self.mono_masks.get(&target) != Some(&merged) {
                    self.mono_masks.insert(target, merged);
                    todo.push(target);
                }
            }
        }
    }

    fn construct(&mut self, spec: MPending) -> Result<(), MixError> {
        let body = Rc::clone(&self.bodies[&spec.target]);
        let home = spec.target.module;
        let mut env = spec.env;
        self.chain.push(spec.target);
        self.resid_stack.push(spec.resid_name);
        let result = self.eval(&body, &mut env, spec.mask, &home)?;
        let body_expr = self.lift(result)?;
        self.stats.specialisations += 1;
        self.defs_out.push(Def::new(spec.resid_name, spec.formals, body_expr));
        self.resid_stack.pop();
        self.chain.pop();
        Ok(())
    }

    /// Spends one unit of step fuel: a budget of `n` admits exactly `n`
    /// steps and errors exactly once, on step `n + 1`.
    fn step(&mut self) -> Result<(), MixError> {
        self.stats.steps += 1;
        if !self.fuel.spend() {
            return Err(self.budget_error(BudgetResource::Steps, None));
        }
        Ok(())
    }

    fn budget_error(&self, resource: BudgetResource, at: Option<(QualName, u64)>) -> MixError {
        let (witness, skeleton_hash) = at
            .or_else(|| self.chain.last().map(|q| (*q, 0)))
            .unwrap_or((QualName::new("?", "?"), 0));
        const CHAIN_LIMIT: usize = 16;
        let start = self.chain.len().saturating_sub(CHAIN_LIMIT);
        MixError::Spec(SpecError::BudgetExhausted {
            resource,
            witness,
            skeleton_hash,
            chain: self.chain[start..].to_vec(),
        })
    }

    fn fresh(&mut self, base: &str) -> Ident {
        self.gensym += 1;
        Ident::new(format!("{base}'{}", self.gensym))
    }

    fn eval(
        &mut self,
        e: &AnnExpr,
        env: &mut BTreeMap<Ident, MVal>,
        mask: BtMask,
        home: &ModName,
    ) -> Result<MVal, MixError> {
        self.step()?;
        match e {
            AnnExpr::Nat(n) => Ok(MVal::Nat(*n)),
            AnnExpr::Bool(b) => Ok(MVal::Bool(*b)),
            AnnExpr::Nil => Ok(MVal::Nil),
            AnnExpr::Var(x) => env.get(x).cloned().ok_or_else(|| {
                MixError::Spec(SpecError::TypeConfusion(format!("unbound `{x}` in mix")))
            }),
            AnnExpr::Prim(op, t, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env, mask, home)?);
                }
                if mask.eval(t).is_dynamic() {
                    let mut lifted = Vec::with_capacity(vals.len());
                    for v in vals {
                        lifted.push(self.lift(v)?);
                    }
                    Ok(MVal::Code(Expr::Prim(*op, lifted)))
                } else {
                    mix_static_prim(*op, &vals)
                }
            }
            AnnExpr::If(t, c, th, el) => {
                let cv = self.eval(c, env, mask, home)?;
                if mask.eval(t).is_dynamic() {
                    let tv = self.eval_branch(th, env, mask, home)?;
                    let ev = self.eval_branch(el, env, mask, home)?;
                    Ok(MVal::Code(Expr::If(
                        Box::new(self.lift(cv)?),
                        Box::new(self.lift(tv)?),
                        Box::new(self.lift(ev)?),
                    )))
                } else {
                    match cv {
                        MVal::Bool(true) => self.eval(th, env, mask, home),
                        MVal::Bool(false) => self.eval(el, env, mask, home),
                        other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
                            "static conditional on {other:?}"
                        )))),
                    }
                }
            }
            AnnExpr::Call { target, inst, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env, mask, home)?);
                }
                let mut callee_mask = BtMask::all_static();
                for (i, term) in inst.iter().enumerate() {
                    if mask.eval(term).is_dynamic() {
                        callee_mask = callee_mask.set_dynamic(i as u32);
                    }
                }
                self.call(target, callee_mask, vals, home)
            }
            AnnExpr::Lam(x, b) => Ok(MVal::Clo(Rc::new(MClo {
                param: *x,
                body: Rc::new((**b).clone()),
                env: env.clone(),
                mask,
                home: *home,
                site: (&**b) as *const AnnExpr as usize,
            }))),
            AnnExpr::App(t, f, a) => {
                let fv = self.eval(f, env, mask, home)?;
                let av = self.eval(a, env, mask, home)?;
                if mask.eval(t).is_dynamic() {
                    Ok(MVal::Code(Expr::App(
                        Box::new(self.lift(fv)?),
                        Box::new(self.lift(av)?),
                    )))
                } else {
                    match fv {
                        MVal::Clo(c) => self.apply(&c, av),
                        other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
                            "static application of {other:?}"
                        )))),
                    }
                }
            }
            AnnExpr::Let(x, rhs, b) => {
                let v = self.eval(rhs, env, mask, home)?;
                let shadowed = env.insert(*x, v);
                let r = self.eval(b, env, mask, home);
                match shadowed {
                    Some(old) => {
                        env.insert(*x, old);
                    }
                    None => {
                        env.remove(x);
                    }
                }
                r
            }
            AnnExpr::Coerce(spec, inner) => {
                let v = self.eval(inner, env, mask, home)?;
                self.coerce(spec, v, mask)
            }
        }
    }

    /// Evaluates one branch of a dynamic conditional under the engine's
    /// rule: which branch runs is decided only at run time, so a static
    /// run-time error raised in the branch becomes residual code that
    /// raises the same error if the branch is taken ([`failing_code`]).
    /// Every other error propagates. `mix` constructs breadth-first
    /// only, so no definition is open inside a branch.
    fn eval_branch(
        &mut self,
        e: &AnnExpr,
        env: &mut BTreeMap<Ident, MVal>,
        mask: BtMask,
        home: &ModName,
    ) -> Result<MVal, MixError> {
        let chain = self.chain.len();
        match self.eval(e, env, mask, home) {
            Err(MixError::Spec(err)) => match failing_code(&err) {
                Some(code) => {
                    // Unfolds cut short by the error leave their chain
                    // entries; the environment is restored on the way out.
                    self.chain.truncate(chain);
                    Ok(MVal::Code(code))
                }
                None => Err(MixError::Spec(err)),
            },
            r => r,
        }
    }

    fn apply(&mut self, c: &MClo, arg: MVal) -> Result<MVal, MixError> {
        let mut env = c.env.clone();
        env.insert(c.param, arg);
        let body = Rc::clone(&c.body);
        let home = c.home;
        self.eval(&body, &mut env, c.mask, &home)
    }

    fn call(
        &mut self,
        target: &QualName,
        derived_mask: BtMask,
        args: Vec<MVal>,
        home: &ModName,
    ) -> Result<MVal, MixError> {
        // Similix extern handling: a call into another module is a
        // primitive — fully reduce or leave residual, never specialise.
        if self.extern_mode && target.module != *home {
            if args.iter().all(fully_static) && args.iter().all(|a| to_value(a).is_some()) {
                let values: Vec<Value> = args.iter().map(|a| to_value(a).unwrap()).collect();
                let mut ev = mspec_lang::eval::Evaluator::new(self.resolved);
                let out = ev.call(target, values).map_err(|e| {
                    MixError::Spec(SpecError::TypeConfusion(format!(
                        "extern reduction of {target} failed: {e}"
                    )))
                })?;
                return from_value(&out).ok_or_else(|| {
                    MixError::Spec(SpecError::TypeConfusion(
                        "extern call returned a function".into(),
                    ))
                });
            }
            if !self.extern_needed.contains(target) {
                self.extern_needed.push(*target);
            }
            let mut lifted = Vec::with_capacity(args.len());
            for a in args {
                lifted.push(self.lift(a)?);
            }
            return Ok(MVal::Code(Expr::Call(CallName::from(*target), lifted)));
        }

        let def = *self
            .index
            .get(target)
            .ok_or(MixError::Spec(SpecError::UnknownFunction(*target)))?;
        let (mask, args) = if self.options.polyvariant {
            (derived_mask, args)
        } else {
            let mask = self.mono_masks.get(target).copied().unwrap_or(derived_mask);
            let shapes = def.sig.params.clone();
            let args = args
                .into_iter()
                .zip(shapes)
                .map(|(v, shape)| self.lift_to_shape(v, &shape, mask))
                .collect::<Result<Vec<_>, _>>()?;
            (mask, args)
        };

        if def.sig.unfoldable_under(mask) {
            self.stats.unfolds += 1;
            if self.recorder.is_enabled() {
                self.record_decision(
                    Decision::Unfold,
                    target,
                    mask,
                    def.sig.vars,
                    0,
                    false,
                    None,
                    format!(
                        "unfold term {} = S under {}",
                        def.sig.unfold,
                        mask.render(def.sig.vars)
                    ),
                );
            }
            let body = Rc::clone(&self.bodies[target]);
            let mut env: BTreeMap<Ident, MVal> =
                def.params.iter().cloned().zip(args).collect();
            let home = target.module;
            self.chain.push(*target);
            let r = self.eval(&body, &mut env, mask, &home)?;
            self.chain.pop();
            return Ok(r);
        }

        let mut leaves = Vec::new();
        let mut keys = Vec::with_capacity(args.len());
        let mut names: Vec<Ident> = Vec::new();
        for (arg, p) in args.iter().zip(&def.params) {
            let before = leaves.len();
            keys.push(msplit(arg, &mut leaves));
            let count = leaves.len() - before;
            for j in 0..count {
                names.push(if count == 1 {
                    *p
                } else {
                    Ident::new(format!("{p}_{j}"))
                });
            }
        }
        let memo_key = (*target, mask.0, keys);
        if let Some(name) = self.memo.get(&memo_key).copied() {
            self.stats.memo_hits += 1;
            if self.recorder.is_enabled() {
                self.record_decision(
                    Decision::MemoHit,
                    target,
                    mask,
                    def.sig.vars,
                    mkey_hash(&memo_key.2),
                    true,
                    Some(&name),
                    String::new(),
                );
            }
            return Ok(MVal::Code(Expr::Call(
                CallName::resolved(self.out_module.as_str(), name.as_str()),
                leaves,
            )));
        }
        if self.memo.len() >= self.options.budget.max_specialisations {
            let hash = mkey_hash(&memo_key.2);
            return Err(
                self.budget_error(BudgetResource::Specialisations, Some((*target, hash)))
            );
        }
        if self.pending.len() >= self.options.budget.max_pending {
            let hash = mkey_hash(&memo_key.2);
            return Err(self.budget_error(BudgetResource::Pending, Some((*target, hash))));
        }
        let counter = self.counters.entry(*target).or_insert(0);
        *counter += 1;
        let resid_name = Ident::new(format!("{}_{}", target.name, counter));
        let skel = if self.recorder.is_enabled() { mkey_hash(&memo_key.2) } else { 0 };
        self.memo.insert(memo_key, resid_name);
        if self.recorder.is_enabled() {
            self.record_decision(
                Decision::Residualise,
                target,
                mask,
                def.sig.vars,
                skel,
                true,
                Some(&resid_name),
                format!(
                    "unfold term {} = D under {}",
                    def.sig.unfold,
                    mask.render(def.sig.vars)
                ),
            );
        }
        let formals = dedupe(names);
        let mut next = 0;
        let env: BTreeMap<Ident, MVal> = def
            .params
            .iter()
            .cloned()
            .zip(args.iter().map(|a| mrebuild(a, &formals, &mut next)))
            .collect();
        self.pending.push_back(MPending {
            target: *target,
            mask,
            env,
            resid_name,
            formals,
        });
        self.recorder.observe("mix.pending_depth", self.pending.len() as u64);
        Ok(MVal::Code(Expr::Call(
            CallName::resolved(self.out_module.as_str(), resid_name.as_str()),
            leaves,
        )))
    }

    fn coerce(&mut self, spec: &CoerceSpec, v: MVal, mask: BtMask) -> Result<MVal, MixError> {
        match spec {
            CoerceSpec::Id | CoerceSpec::Var { .. } => Ok(v),
            CoerceSpec::Base { from, to } | CoerceSpec::Fun { from, to } => {
                if !mask.eval(from).is_dynamic() && mask.eval(to).is_dynamic() {
                    Ok(MVal::Code(self.lift(v)?))
                } else {
                    Ok(v)
                }
            }
            CoerceSpec::List { from, to, elem } => {
                if mask.eval(from).is_dynamic() {
                    Ok(v)
                } else if mask.eval(to).is_dynamic() {
                    Ok(MVal::Code(self.lift(v)?))
                } else {
                    self.coerce_spine(elem, v, mask)
                }
            }
        }
    }

    fn coerce_spine(
        &mut self,
        elem: &CoerceSpec,
        v: MVal,
        mask: BtMask,
    ) -> Result<MVal, MixError> {
        match v {
            MVal::Nil => Ok(MVal::Nil),
            MVal::Cons(h, t) => {
                let h2 = self.coerce(elem, (*h).clone(), mask)?;
                let t2 = self.coerce_spine(elem, (*t).clone(), mask)?;
                Ok(MVal::Cons(Rc::new(h2), Rc::new(t2)))
            }
            other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
                "spine coercion of {other:?}"
            )))),
        }
    }

    /// Lifts a value so that it matches `shape` under `mask` (needed in
    /// monovariant mode, where the merged mask can be more dynamic than
    /// the value).
    fn lift_to_shape(
        &mut self,
        v: MVal,
        shape: &SigShape,
        mask: BtMask,
    ) -> Result<MVal, MixError> {
        let top_dynamic = mask.eval(shape.top()).is_dynamic();
        match (top_dynamic, &v) {
            (false, _) => match (shape, v) {
                (SigShape::List(elem, _), MVal::Cons(h, t)) => {
                    let h2 = self.lift_to_shape((*h).clone(), elem, mask)?;
                    let t2 =
                        self.lift_to_shape(MVal::clone(&t), &SigShape::List(elem.clone(), shape.top().clone()), mask)?;
                    Ok(MVal::Cons(Rc::new(h2), Rc::new(t2)))
                }
                (_, v) => Ok(v),
            },
            (true, MVal::Code(_)) => Ok(v),
            (true, _) => Ok(MVal::Code(self.lift(v)?)),
        }
    }

    fn lift(&mut self, v: MVal) -> Result<Expr, MixError> {
        match v {
            MVal::Code(e) => Ok(e),
            MVal::Nat(n) => Ok(Expr::Nat(n)),
            MVal::Bool(b) => Ok(Expr::Bool(b)),
            MVal::Nil => Ok(Expr::Nil),
            MVal::Cons(h, t) => {
                let h2 = self.lift((*h).clone())?;
                let t2 = self.lift((*t).clone())?;
                Ok(Expr::Prim(PrimOp::Cons, vec![h2, t2]))
            }
            MVal::Clo(c) => {
                let x = self.fresh(c.param.as_str());
                let body = self.apply(&c, MVal::Code(Expr::Var(x)))?;
                let body = self.lift(body)?;
                Ok(Expr::Lam(x, Box::new(body)))
            }
        }
    }
}

/// Structural hash of a split skeleton (for budget diagnostics; mix has
/// no incremental skeleton hashing like the engine's `split_hashed`).
fn mkey_hash(keys: &[MKey]) -> u64 {
    use std::hash::{Hash as _, Hasher as _};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    keys.hash(&mut h);
    h.finish()
}

fn dedupe(names: Vec<Ident>) -> Vec<Ident> {
    let mut seen: Vec<Ident> = Vec::new();
    let mut out = Vec::with_capacity(names.len());
    for n in names {
        if !seen.contains(&n) {
            seen.push(n);
            out.push(n);
            continue;
        }
        let mut k = 2;
        loop {
            let cand = Ident::new(format!("{n}'{k}"));
            if !seen.contains(&cand) {
                seen.push(cand);
                out.push(cand);
                break;
            }
            k += 1;
        }
    }
    out
}

/// Collects every call site (target, instantiation) in an annotated
/// expression, including under lambdas.
fn collect_calls(e: &AnnExpr, out: &mut Vec<(QualName, Vec<mspec_bta::BtTerm>)>) {
    match e {
        AnnExpr::Nat(_) | AnnExpr::Bool(_) | AnnExpr::Nil | AnnExpr::Var(_) => {}
        AnnExpr::Prim(_, _, args) => args.iter().for_each(|a| collect_calls(a, out)),
        AnnExpr::Call { target, inst, args } => {
            out.push((*target, inst.clone()));
            args.iter().for_each(|a| collect_calls(a, out));
        }
        AnnExpr::If(_, c, t, f) => {
            collect_calls(c, out);
            collect_calls(t, out);
            collect_calls(f, out);
        }
        AnnExpr::Lam(_, b) => collect_calls(b, out),
        AnnExpr::App(_, f, a) => {
            collect_calls(f, out);
            collect_calls(a, out);
        }
        AnnExpr::Let(_, rhs, b) => {
            collect_calls(rhs, out);
            collect_calls(b, out);
        }
        AnnExpr::Coerce(_, inner) => collect_calls(inner, out),
    }
}

fn mix_static_prim(op: PrimOp, vals: &[MVal]) -> Result<MVal, MixError> {
    use PrimOp::*;
    let nat = |v: &MVal| match v {
        MVal::Nat(n) => Ok(*n),
        other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
            "static {} on {other:?}",
            op.symbol()
        )))),
    };
    let boolean = |v: &MVal| match v {
        MVal::Bool(b) => Ok(*b),
        other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
            "static {} on {other:?}",
            op.symbol()
        )))),
    };
    match op {
        Add => Ok(MVal::Nat(nat(&vals[0])?.wrapping_add(nat(&vals[1])?))),
        Sub => Ok(MVal::Nat(nat(&vals[0])?.saturating_sub(nat(&vals[1])?))),
        Mul => Ok(MVal::Nat(nat(&vals[0])?.wrapping_mul(nat(&vals[1])?))),
        Div => {
            let n0 = nat(&vals[0])?;
            match n0.checked_div(nat(&vals[1])?) {
                Some(q) => Ok(MVal::Nat(q)),
                None => Err(MixError::Spec(SpecError::DivByZero)),
            }
        }
        Eq => Ok(MVal::Bool(nat(&vals[0])? == nat(&vals[1])?)),
        Lt => Ok(MVal::Bool(nat(&vals[0])? < nat(&vals[1])?)),
        Leq => Ok(MVal::Bool(nat(&vals[0])? <= nat(&vals[1])?)),
        And => Ok(MVal::Bool(boolean(&vals[0])? && boolean(&vals[1])?)),
        Or => Ok(MVal::Bool(boolean(&vals[0])? || boolean(&vals[1])?)),
        Not => Ok(MVal::Bool(!boolean(&vals[0])?)),
        Cons => Ok(MVal::Cons(Rc::new(vals[0].clone()), Rc::new(vals[1].clone()))),
        Head => match &vals[0] {
            MVal::Cons(h, _) => Ok((**h).clone()),
            MVal::Nil => Err(MixError::Spec(SpecError::EmptyList("head"))),
            other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
                "static head of {other:?}"
            )))),
        },
        Tail => match &vals[0] {
            MVal::Cons(_, t) => Ok((**t).clone()),
            MVal::Nil => Err(MixError::Spec(SpecError::EmptyList("tail"))),
            other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
                "static tail of {other:?}"
            )))),
        },
        Null => match &vals[0] {
            MVal::Nil => Ok(MVal::Bool(true)),
            MVal::Cons(..) => Ok(MVal::Bool(false)),
            other => Err(MixError::Spec(SpecError::TypeConfusion(format!(
                "static null of {other:?}"
            )))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspec_lang::eval::Evaluator;

    const POWER: &str =
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

    fn run_residual(outcome: &MixOutcome, args: Vec<Value>) -> Value {
        let rp = resolve(outcome.residual.program.clone()).unwrap();
        let mut ev = Evaluator::new(&rp);
        ev.call(&outcome.residual.entry, args).unwrap()
    }

    #[test]
    fn mix_power_static_exponent() {
        let out = mix_specialise(
            POWER,
            "Power",
            "power",
            vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic],
            MixOptions::default(),
        )
        .unwrap();
        assert_eq!(run_residual(&out, vec![Value::nat(2)]), Value::nat(8));
        // Monolithic: a single residual module.
        assert_eq!(out.residual.program.modules.len(), 1);
        assert_eq!(out.residual.program.modules[0].name.as_str(), "Spec");
    }

    #[test]
    fn mix_power_dynamic_exponent() {
        let out = mix_specialise(
            POWER,
            "Power",
            "power",
            vec![SpecArg::Dynamic, SpecArg::Static(Value::nat(2))],
            MixOptions::default(),
        )
        .unwrap();
        assert_eq!(run_residual(&out, vec![Value::nat(8)]), Value::nat(256));
    }

    #[test]
    fn polyvariant_creates_two_variants() {
        // One function used at two different binding times.
        let src = "module M where\n\
                   f a b = if a == 0 then b else a + b\n\
                   main x y = f 1 x + f y 2\n";
        let out = mix_specialise(
            src,
            "M",
            "main",
            vec![SpecArg::Dynamic, SpecArg::Dynamic],
            MixOptions::default(),
        )
        .unwrap();
        assert_eq!(
            run_residual(&out, vec![Value::nat(10), Value::nat(0)]),
            Value::nat(13)
        );
    }

    #[test]
    fn monovariant_merges_and_stays_correct() {
        let src = "module M where\n\
                   f a b = if a == 0 then b else a + b\n\
                   main x y = f 1 x + f y 2\n";
        let out = mix_specialise(
            src,
            "M",
            "main",
            vec![SpecArg::Dynamic, SpecArg::Dynamic],
            MixOptions { polyvariant: false, ..MixOptions::default() },
        )
        .unwrap();
        assert_eq!(
            run_residual(&out, vec![Value::nat(10), Value::nat(0)]),
            Value::nat(13)
        );
        // Monovariant merging yields at most one variant of f.
        let defs = &out.residual.program.modules[0].defs;
        let f_variants = defs.iter().filter(|d| d.name.as_str().starts_with("f_")).count();
        assert!(f_variants <= 1, "{defs:?}");
    }

    #[test]
    fn mix_handles_higher_order_code() {
        let src = "module M where\n\
                   twice f x = f @ (f @ x)\n\
                   main y = twice (\\v -> v + 3) y\n";
        let out = mix_specialise(
            src,
            "M",
            "main",
            vec![SpecArg::Dynamic],
            MixOptions::default(),
        )
        .unwrap();
        assert_eq!(run_residual(&out, vec![Value::nat(1)]), Value::nat(7));
    }

    #[test]
    fn unknown_entry_is_reported() {
        let r = mix_specialise(POWER, "Power", "nope", vec![], MixOptions::default());
        assert!(matches!(r, Err(MixError::Spec(SpecError::UnknownEntry(_)))));
    }

    #[test]
    fn fuel_budget_admits_exactly_the_steps_taken() {
        let args = || vec![SpecArg::Static(Value::nat(3)), SpecArg::Dynamic];
        let out =
            mix_specialise(POWER, "Power", "power", args(), MixOptions::default()).unwrap();
        let steps = out.stats.steps;
        // A budget of exactly the steps the session takes succeeds...
        let exact = mix_specialise(POWER, "Power", "power", args(), MixOptions {
            budget: SpecBudget::with_steps(steps),
            ..MixOptions::default()
        });
        assert!(exact.is_ok(), "budget == steps must suffice: {exact:?}");
        // ...while one unit less fails, naming the function that was
        // being specialised.
        let short = mix_specialise(POWER, "Power", "power", args(), MixOptions {
            budget: SpecBudget::with_steps(steps - 1),
            ..MixOptions::default()
        })
        .unwrap_err();
        match short {
            MixError::Spec(SpecError::BudgetExhausted {
                resource: BudgetResource::Steps,
                witness,
                chain,
                ..
            }) => {
                assert_eq!(witness.module.as_str(), "Power");
                assert!(!chain.is_empty());
            }
            other => panic!("expected a step-budget error, got {other:?}"),
        }
    }

    #[test]
    fn diverging_static_recursion_exhausts_fuel_cleanly() {
        // Unfolding hundreds of calls deep needs more stack than the
        // default debug test thread provides.
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(diverging_static_recursion_body)
            .unwrap()
            .join()
            .unwrap();
    }

    fn diverging_static_recursion_body() {
        let src = "module M where\nloop n = loop (n + 1)\nmain x = loop 0 + x\n";
        let err = mix_specialise(src, "M", "main", vec![SpecArg::Dynamic], MixOptions {
            budget: SpecBudget::with_steps(5_000),
            ..MixOptions::default()
        })
        .unwrap_err();
        match err {
            MixError::Spec(SpecError::BudgetExhausted {
                resource: BudgetResource::Steps,
                witness,
                chain,
                ..
            }) => {
                assert_eq!(witness.name.as_str(), "loop");
                // The unfold chain shows the diverging cycle.
                assert!(chain.iter().filter(|q| q.name.as_str() == "loop").count() >= 2);
            }
            other => panic!("expected a step-budget error, got {other:?}"),
        }
    }
}
