//! The specialisation engine: the "common code" every generating
//! extension links against (§6 reports ~300 lines of Haskell; this is
//! the grown-up Rust version).
//!
//! The engine provides:
//!
//! * the `mk_*` operations — each [`GExp`] node consults its compiled
//!   binding time against the call's mask and either computes or builds
//!   residual code,
//! * `mk_resid` — memoised polyvariant specialisation of named
//!   functions: arguments are split into static skeletons and dynamic
//!   leaves, the skeleton (plus mask) is the memo key, leaves become the
//!   residual function's formal parameters,
//! * coercions, including lifting static data to code and eta-expanding
//!   static closures,
//! * residual-module placement at first-call time (§5) and streamed
//!   emission of finished definitions,
//! * breadth-first (pending list — the paper's choice, "considerably
//!   more space efficient") and depth-first strategies, with the
//!   accounting needed to reproduce that comparison.
//!
//! Evaluation is a loop over an explicit continuation stack (`Kont`):
//! one turn enters an expression or hands a value to the top
//! continuation. An unfold, a closure application and a depth-first
//! construction push a frame and a continuation instead of a host call,
//! so an unfold chain costs no host stack; the unfold depth is a budget
//! resource instead ([`SpecBudget::max_unfold_depth`]). Calls reach
//! their callee by the dense index linking gave them.
//!
//! Performance notes: a step that builds no data allocates nothing.
//! Scalars travel inline in [`PVal`], so a literal, a variable lookup or
//! a static primitive is a copy or one refcount bump. Every frame — a
//! residual body under construction, an unfolded call, an applied
//! closure — is a window of one value stack the engine owns, and `let`
//! pushes onto its top; operands and call arguments wait on a second
//! reusable stack until their siblings are evaluated. The memo table is
//! probed by a structural hash computed during splitting
//! ([`split_hashed`]); the full [`PKey`] skeletons are only compared on a
//! hash collision. A finished definition is measured in one walk and
//! moved into the sink.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::budget::{BudgetResource, CancelToken, Fuel, OnExhaustion, SpecBudget};
use crate::emit::{assemble, MemorySink, ModuleSink, ResidualProgram};
use crate::error::SpecError;
use crate::gexp::{BtCode, FnId, GCoerce, GenFn, GenProgram, GExp};
use crate::placement::Placer;
use crate::value::{
    all_holes_hash, hash_fold, rebuild, split_hashed, Closure, PKey, PVal, SKELETON_SEED,
};
use mspec_bta::division::{Division, ParamBt};
use mspec_bta::BtMask;
use mspec_lang::ast::{CallName, Def, Expr, Ident, ModName, PrimOp, QualName};
use mspec_lang::eval::Value;
use mspec_lang::{FromJson, Json, JsonError, ToJson};
use mspec_telemetry::{Decision, Recorder, SpecEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

/// Order in which discovered specialisations are constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The paper's choice: queue requests in a pending list; exactly one
    /// specialisation is under construction at any time and finished
    /// bodies stream out immediately.
    BreadthFirst,
    /// Construct requested specialisations immediately, suspending the
    /// current one — simpler, but the suspended partial bodies pile up.
    DepthFirst,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Specialisation order.
    pub strategy: Strategy,
    /// Resource limits for the session (step fuel, specialisation count,
    /// pending/suspension depth, residual size). See [`SpecBudget`].
    pub budget: SpecBudget,
    /// What happens when a budget resource runs out: a structured
    /// [`SpecError::BudgetExhausted`], or generalising fallback — demote
    /// the offending call to a fully-dynamic residual call so the
    /// session always terminates with a correct program.
    pub on_exhaustion: OnExhaustion,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            strategy: Strategy::BreadthFirst,
            budget: SpecBudget::default(),
            on_exhaustion: OnExhaustion::Error,
        }
    }
}

/// One entry-function argument in a specialisation request.
#[derive(Debug, Clone)]
pub enum SpecArg {
    /// A known value (becomes static data).
    Static(Value),
    /// Unknown until run time (becomes a formal parameter of the
    /// residual entry function).
    Dynamic,
    /// A list of `n` unknown elements with a known spine (partially
    /// static; becomes `n` formal parameters).
    StaticSpine(usize),
}

/// Counters describing a specialisation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Residual definitions constructed.
    pub specialisations: usize,
    /// `mk_resid` memo-table lookups performed.
    pub memo_probes: usize,
    /// `mk_resid` requests answered from the memo table.
    pub memo_hits: usize,
    /// Named calls unfolded instead of residualised.
    pub unfolds: usize,
    /// Evaluation steps performed.
    pub steps: u64,
    /// Peak length of the pending list (breadth-first).
    pub peak_pending: usize,
    /// Peak number of simultaneously open (under-construction) bodies —
    /// always 1 for breadth-first, the suspension depth for depth-first.
    /// This is the paper's space argument in one number.
    pub peak_open: usize,
    /// Total AST nodes across all residual definitions.
    pub residual_nodes: usize,
    /// Residual modules touched.
    pub residual_modules: usize,
    /// Calls demoted to fully-dynamic residual calls by the
    /// generalising fallback ([`OnExhaustion::Generalise`]).
    pub generalised: usize,
}

impl SpecStats {
    /// Presentation form for the CLI's unified stats formatter.
    pub fn summary(&self, entry: impl Into<String>) -> mspec_telemetry::SpecSummary {
        mspec_telemetry::SpecSummary {
            entry: entry.into(),
            specialisations: self.specialisations as u64,
            memo_probes: self.memo_probes as u64,
            memo_hits: self.memo_hits as u64,
            unfolds: self.unfolds as u64,
            steps: self.steps,
            peak_pending: self.peak_pending as u64,
            residual_nodes: self.residual_nodes as u64,
            generalised: self.generalised as u64,
        }
    }
}

impl ToJson for SpecStats {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("specialisations", Json::Num(self.specialisations as u128)),
            ("memo_probes", Json::Num(self.memo_probes as u128)),
            ("memo_hits", Json::Num(self.memo_hits as u128)),
            ("unfolds", Json::Num(self.unfolds as u128)),
            ("steps", Json::Num(u128::from(self.steps))),
            ("peak_pending", Json::Num(self.peak_pending as u128)),
            ("peak_open", Json::Num(self.peak_open as u128)),
            ("residual_nodes", Json::Num(self.residual_nodes as u128)),
            ("residual_modules", Json::Num(self.residual_modules as u128)),
            ("generalised", Json::Num(self.generalised as u128)),
        ])
    }
}

impl FromJson for SpecStats {
    fn from_json_value(j: &Json) -> Result<SpecStats, JsonError> {
        Ok(SpecStats {
            specialisations: j.get("specialisations")?.as_usize()?,
            memo_probes: j.get("memo_probes")?.as_usize()?,
            memo_hits: j.get("memo_hits")?.as_usize()?,
            unfolds: j.get("unfolds")?.as_usize()?,
            steps: j.get("steps")?.as_u64()?,
            peak_pending: j.get("peak_pending")?.as_usize()?,
            peak_open: j.get("peak_open")?.as_usize()?,
            residual_nodes: j.get("residual_nodes")?.as_usize()?,
            residual_modules: j.get("residual_modules")?.as_usize()?,
            generalised: j.get("generalised")?.as_usize()?,
        })
    }
}

/// Hash-first memo key: the structural hash of the split skeletons
/// stands in for the skeletons themselves, so a probe compares three
/// machine words. Full [`PKey`] vectors are kept in the bucket and only
/// compared when hashes collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SpecKey {
    target: QualName,
    mask: u128,
    hash: u64,
}

/// Where one residual definition came from: the paper's relationship
/// between source functions and their polyvariant specialisations, made
/// inspectable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The source function that was specialised.
    pub source: QualName,
    /// The binding-time mask of this variant.
    pub mask: BtMask,
    /// Width of the mask (the source signature's variable count).
    pub vars: u32,
    /// The residual definition (module + name).
    pub residual: QualName,
    /// Number of formal parameters of the residual definition (its
    /// dynamic leaves).
    pub formals: usize,
}

struct PendingSpec<'p> {
    target: QualName,
    callee: FnId,
    mask: BtMask,
    env: Vec<PVal<'p>>,
    resid: QualName,
    formals: Vec<Ident>,
    /// Structural hash of the request's static skeleton (for budget
    /// diagnostics).
    hash: u64,
}

/// The frame an expression is evaluated in: its window of the value
/// stack starts at `base`, its binding-time codes are read under `mask`,
/// and `module` is the module its source occurs in (for closure
/// identity).
#[derive(Debug, Clone, Copy)]
struct Frame {
    base: usize,
    mask: BtMask,
    module: ModName,
}

/// What the engine does with the value of the expression it is
/// evaluating: the continuation stack holds one per unfinished node.
/// Operands that wait for a sibling are parked on the `temps` stack.
enum Kont<'p> {
    /// A unary primitive's operand returned.
    Prim1 { op: PrimOp, code: &'p BtCode },
    /// A binary primitive's first operand returned; evaluate `right`.
    PrimLeft { op: PrimOp, code: &'p BtCode, right: &'p GExp },
    /// A binary primitive's second operand returned.
    PrimRight { op: PrimOp, code: &'p BtCode },
    /// A conditional's test returned.
    IfCond { code: &'p BtCode, then: &'p GExp, els: &'p GExp },
    /// A dynamic conditional's then-branch returned; evaluate `els`.
    IfThen { els: &'p GExp },
    /// A dynamic conditional's else-branch returned.
    IfElse,
    /// Argument `next - 1` of a `GExp::Call` returned.
    CallArg { call: &'p GExp, next: usize },
    /// An application's function returned; evaluate `arg`.
    AppFun { code: &'p BtCode, arg: &'p GExp },
    /// An application's argument returned.
    AppArg { code: &'p BtCode },
    /// A `let`'s right-hand side returned; evaluate `body` over it.
    LetRhs { body: &'p GExp },
    /// A `let`'s body returned; its slot starts at `top`.
    LetEnd { top: usize },
    /// A coercion's operand returned.
    Coerce { spec: &'p GCoerce },
    /// An unfolded function's or an applied closure's body returned.
    Return { caller: Frame, unfold: bool },
    /// A dynamic conditional's branch returned; its [`Mark`] is the top
    /// of the mark stack.
    Branch,
    /// The body of the innermost definition under construction returned.
    Construct,
}

/// The state a dynamic branch returns to when an error raised in its
/// body becomes failing code.
struct Mark {
    /// The position of the branch's [`Kont::Branch`].
    kont: usize,
    frame: Frame,
    chain: usize,
    stack: usize,
    temps: usize,
    depth: usize,
    open: usize,
}

/// A residual definition whose body is being evaluated.
struct Building<'p> {
    target: QualName,
    resid: QualName,
    formals: Vec<Ident>,
    hash: u64,
    /// The frame the construction was started from.
    caller: Frame,
    /// The call expression to continue with once the definition is
    /// emitted (depth-first), or `None` for a top-level construction.
    result: Option<PVal<'p>>,
}

/// The engine's next move: evaluate an expression in the current frame,
/// or hand a value to the top continuation.
enum Step<'p> {
    Eval(&'p GExp),
    Value(PVal<'p>),
}

/// The specialisation engine over a linked [`GenProgram`].
pub struct Engine<'p> {
    program: &'p GenProgram,
    options: EngineOptions,
    memo: HashMap<SpecKey, Vec<(Vec<PKey>, QualName)>>,
    pending: VecDeque<PendingSpec<'p>>,
    placer: Placer,
    name_counters: HashMap<QualName, u32>,
    gensym: u64,
    open: usize,
    fuel: Fuel,
    /// The stack of specialisation/unfold requests currently being
    /// served: `(target, skeleton hash)`, outermost first. Snapshotted
    /// into [`SpecError::BudgetExhausted`] so a diverging cycle is
    /// visible in the error.
    chain: Vec<(QualName, u64)>,
    /// Unfolds currently nested (bounded by
    /// [`SpecBudget::max_unfold_depth`]).
    depth: usize,
    stats: SpecStats,
    imports: BTreeMap<ModName, BTreeSet<ModName>>,
    provenance: Vec<Provenance>,
    recorder: Recorder,
    /// External cancellation handle (a request deadline carried by the
    /// token itself, a disconnecting client); polled at the loop head.
    /// `None` = never cancelled.
    cancel: Option<CancelToken>,
    /// Residual definitions currently under construction, innermost
    /// last — the *parent* attribution for decision events (which
    /// residual body a request arose inside).
    resid_stack: Vec<QualName>,
    /// The value stack: every frame is a window of it.
    stack: Vec<PVal<'p>>,
    /// Evaluated operands and call arguments waiting for their siblings.
    temps: Vec<PVal<'p>>,
    /// The continuation stack.
    konts: Vec<Kont<'p>>,
    /// One [`Mark`] per [`Kont::Branch`] on the continuation stack.
    marks: Vec<Mark>,
    /// One entry per [`Kont::Construct`] on the continuation stack.
    building: Vec<Building<'p>>,
    /// The frame the current expression is evaluated in.
    frame: Frame,
}

impl<'p> Engine<'p> {
    /// Creates an engine with the given options.
    pub fn new(program: &'p GenProgram, options: EngineOptions) -> Engine<'p> {
        Engine::with_recorder(program, options, Recorder::disabled())
    }

    /// [`Engine::new`] with a telemetry recorder: the engine emits one
    /// decision event per specialisation request (entry, unfold, memo
    /// hit, residualise, generalise) plus session counters and a
    /// pending-depth histogram.
    pub fn with_recorder(
        program: &'p GenProgram,
        options: EngineOptions,
        recorder: Recorder,
    ) -> Engine<'p> {
        Engine {
            program,
            options,
            memo: HashMap::new(),
            pending: VecDeque::new(),
            placer: Placer::new(program.graph()),
            name_counters: HashMap::new(),
            gensym: 0,
            open: 0,
            fuel: Fuel::new(options.budget.steps),
            chain: Vec::new(),
            depth: 0,
            stats: SpecStats::default(),
            imports: BTreeMap::new(),
            provenance: Vec::new(),
            recorder,
            cancel: None,
            resid_stack: Vec::new(),
            stack: Vec::new(),
            temps: Vec::new(),
            konts: Vec::new(),
            marks: Vec::new(),
            building: Vec::new(),
            frame: Frame { base: 0, mask: BtMask::all_static(), module: ModName::new("") },
        }
    }

    /// Attaches a [`CancelToken`]: when some other thread fires it, or
    /// the deadline it carries ([`CancelToken::with_deadline`]) passes,
    /// the session aborts with [`SpecError::Cancelled`] at the next
    /// check point (at most [`CancelToken::CHECK_MASK`]` + 1` steps
    /// later). The engine reads the clock only there.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// One decision event, fully attributed: what was requested, what
    /// was decided and why, where the request arose, and how much
    /// budget headroom was left. No-op (and no formatting) when the
    /// recorder is disabled.
    #[allow(clippy::too_many_arguments)]
    fn record_decision(
        &self,
        decision: Decision,
        target: &QualName,
        mask: BtMask,
        vars: u32,
        skeleton_hash: u64,
        probe: bool,
        residual: Option<&QualName>,
        witness: String,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let mut ev = SpecEvent::request(target.to_string(), mask.render(vars));
        ev.decision = decision;
        ev.skeleton_hash = skeleton_hash;
        ev.probe = probe;
        ev.residual = residual.map(QualName::to_string).unwrap_or_default();
        ev.witness = witness;
        ev.parent = self.resid_stack.last().map(QualName::to_string).unwrap_or_default();
        ev.chain_depth = self.chain.len() as u64;
        ev.pending = self.pending.len() as u64;
        ev.fuel_left = self.fuel.remaining();
        ev.specs_left = self
            .options
            .budget
            .max_specialisations
            .saturating_sub(self.provenance.len()) as u64;
        self.recorder.spec(ev);
    }

    /// Counters for the run so far.
    pub fn stats(&self) -> &SpecStats {
        &self.stats
    }

    /// The imports each residual module has accumulated (for
    /// [`crate::emit::FileSink::finish`]).
    pub fn residual_imports(&self) -> &BTreeMap<ModName, BTreeSet<ModName>> {
        &self.imports
    }

    /// The provenance of every residual definition created so far, in
    /// creation order (the entry first).
    pub fn provenance(&self) -> &[Provenance] {
        &self.provenance
    }

    /// Specialises `entry` with respect to the given arguments and
    /// returns the assembled residual program.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`]; notably [`SpecError::BudgetExhausted`] when
    /// the source program diverges on the static inputs and the policy
    /// is [`OnExhaustion::Error`].
    pub fn specialise(
        &mut self,
        entry: &QualName,
        args: Vec<SpecArg>,
    ) -> Result<ResidualProgram, SpecError> {
        let mut sink = MemorySink::new();
        let entry_resid = self.specialise_streaming(entry, args, &mut sink)?;
        assemble(sink.into_modules(), self.imports.clone(), entry_resid)
    }

    /// Specialises `entry`, streaming every finished residual definition
    /// to `sink` the moment it is constructed (the paper's low-memory
    /// mode). Returns the residual entry function; imports for the
    /// second emission pass are available from
    /// [`Engine::residual_imports`].
    ///
    /// # Errors
    ///
    /// Any [`SpecError`].
    pub fn specialise_streaming(
        &mut self,
        entry: &QualName,
        args: Vec<SpecArg>,
        sink: &mut dyn ModuleSink,
    ) -> Result<QualName, SpecError> {
        let program = self.program;
        let callee = program.fn_id(entry).ok_or(SpecError::UnknownEntry(*entry))?;
        let f = program.function_at(callee).ok_or(SpecError::UnknownEntry(*entry))?;
        let (mask, vals) = entry_values(f, entry, &args, self.options.budget.max_unfold_depth)?;
        // A session that failed leaves its frames behind.
        self.stack.clear();
        self.temps.clear();
        self.konts.clear();
        self.marks.clear();
        self.building.clear();
        self.depth = 0;

        // The entry is always residualised (it is the program we are
        // generating), keeping its original name.
        let mut leaves = Vec::new();
        let mut keys = Vec::with_capacity(vals.len());
        let mut hash = SKELETON_SEED;
        for v in &vals {
            let (k, h) = split_hashed(v, &mut leaves);
            hash = hash_fold(hash, h);
            keys.push(k);
        }
        let formals: Vec<Ident> = uniquify(
            leaves
                .iter()
                .enumerate()
                .map(|(i, l)| match l {
                    Expr::Var(x) => *x,
                    _ => Ident::new(format!("d{i}")),
                })
                .collect(),
        );
        let mut free = vec![*entry];
        for v in &vals {
            v.free_fns(&mut free);
        }
        let module = self.placer.place(&free, self.program.graph());
        let resid = QualName { module, name: entry.name };
        self.memo_insert(*entry, mask, keys, hash, resid);
        self.provenance.push(Provenance {
            source: *entry,
            mask,
            vars: f.sig.vars,
            residual: resid,
            formals: formals.len(),
        });
        self.record_decision(
            Decision::Entry,
            entry,
            mask,
            f.sig.vars,
            hash,
            false,
            Some(&resid),
            String::new(),
        );
        let mut next = 0;
        let env = vals.iter().map(|v| rebuild(v, &formals, &mut next)).collect();
        let spec = PendingSpec { target: *entry, callee, mask, env, resid, formals, hash };
        self.construct(spec, sink)?;
        while let Some(spec) = self.pending.pop_front() {
            self.construct(spec, sink)?;
        }
        self.flush_counters();
        Ok(resid)
    }

    /// Exports the session counters and the peak gauges once, at the
    /// end of a successful specialisation.
    fn flush_counters(&self) {
        if !self.recorder.is_enabled() {
            return;
        }
        let s = &self.stats;
        self.recorder.count("genext.specialisations", s.specialisations as u64);
        self.recorder.count("genext.memo_probes", s.memo_probes as u64);
        self.recorder.count("genext.memo_hits", s.memo_hits as u64);
        self.recorder.count("genext.unfolds", s.unfolds as u64);
        self.recorder.count("genext.steps", s.steps);
        self.recorder.count("genext.residual_nodes", s.residual_nodes as u64);
        self.recorder.count("genext.residual_modules", s.residual_modules as u64);
        self.recorder.count("genext.generalised", s.generalised as u64);
        self.recorder.count_max("genext.peak_pending", s.peak_pending as u64);
        self.recorder.count_max("genext.peak_open", s.peak_open as u64);
    }

    /// Constructs one residual definition from the top level (and,
    /// depth-first, everything it transitively requests).
    fn construct(
        &mut self,
        spec: PendingSpec<'p>,
        sink: &mut dyn ModuleSink,
    ) -> Result<(), SpecError> {
        let kbase = self.konts.len();
        let body = self.begin_construct(spec, None)?;
        self.run(Step::Eval(body), kbase, sink).map(drop)
    }

    /// Opens a residual definition: its body is evaluated next, in a
    /// frame holding `spec.env`, and [`Kont::Construct`] finishes it.
    fn begin_construct(
        &mut self,
        spec: PendingSpec<'p>,
        result: Option<PVal<'p>>,
    ) -> Result<&'p GExp, SpecError> {
        self.open += 1;
        self.stats.peak_open = self.stats.peak_open.max(self.open);
        if self.options.on_exhaustion == OnExhaustion::Error
            && self.open > self.options.budget.max_pending
        {
            return Err(
                self.budget_error(BudgetResource::Pending, Some((spec.target, spec.hash)))
            );
        }
        let program = self.program;
        let f = program
            .function_at(spec.callee)
            .ok_or(SpecError::UnknownFunction(spec.target))?;
        self.chain.push((spec.target, spec.hash));
        self.resid_stack.push(spec.resid);
        let base = self.stack.len();
        self.stack.extend(spec.env);
        self.building.push(Building {
            target: spec.target,
            resid: spec.resid,
            formals: spec.formals,
            hash: spec.hash,
            caller: self.frame,
            result,
        });
        self.konts.push(Kont::Construct);
        self.frame = Frame { base, mask: spec.mask, module: spec.target.module };
        Ok(&f.body)
    }

    /// Finishes the innermost open definition with its body's value:
    /// measures it (size and imports in one walk) and emits it.
    fn finish_construct(
        &mut self,
        body: PVal<'p>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Step<'p>, SpecError> {
        let b = self.building.pop().ok_or_else(|| internal("no definition under construction"))?;
        self.stack.truncate(self.frame.base);
        self.frame = b.caller;
        let body = self.lift_owned(body, sink)?;
        let imports = self.imports.entry(b.resid.module).or_default();
        let size = measure(&body, b.resid.module, imports);
        self.stats.specialisations += 1;
        self.stats.residual_nodes += size;
        if self.options.on_exhaustion == OnExhaustion::Error
            && self.stats.residual_nodes > self.options.budget.max_residual_nodes
        {
            return Err(
                self.budget_error(BudgetResource::ResidualNodes, Some((b.target, b.hash)))
            );
        }
        sink.emit(b.resid.module, Def::new(b.resid.name, b.formals, body))?;
        self.stats.residual_modules = self.imports.len();
        self.resid_stack.pop();
        self.chain.pop();
        self.open -= 1;
        Ok(Step::Value(b.result.unwrap_or(PVal::Nil)))
    }

    /// Runs the engine from `next` until the continuation stack is back
    /// at `kbase`, returning the last value. An error raised inside a
    /// dynamic branch opened above `kbase` may become failing code
    /// there ([`Engine::catch`]); any other error leaves the stack at
    /// `kbase`.
    fn run(
        &mut self,
        mut next: Step<'p>,
        kbase: usize,
        sink: &mut dyn ModuleSink,
    ) -> Result<PVal<'p>, SpecError> {
        loop {
            match self.steps(next, kbase, sink) {
                Ok(v) => return Ok(v),
                Err(err) => match self.catch(err, kbase) {
                    Ok(v) => next = Step::Value(v),
                    Err(err) => {
                        self.konts.truncate(kbase);
                        while self.marks.last().is_some_and(|m| m.kont >= kbase) {
                            self.marks.pop();
                        }
                        return Err(err);
                    }
                },
            }
        }
    }

    /// The loop: one turn per expression entered or continuation
    /// resumed, until the first error.
    fn steps(
        &mut self,
        mut next: Step<'p>,
        kbase: usize,
        sink: &mut dyn ModuleSink,
    ) -> Result<PVal<'p>, SpecError> {
        loop {
            next = match next {
                Step::Eval(e) => {
                    self.tick()?;
                    self.enter(e, sink)?
                }
                Step::Value(v) => {
                    if self.konts.len() == kbase {
                        return Ok(v);
                    }
                    match self.konts.pop() {
                        Some(k) => self.resume(k, v, sink)?,
                        None => return Err(internal("continuation stack underflow")),
                    }
                }
            };
        }
    }

    /// The loop head: spends one unit of step fuel, polls the cancel
    /// token and checks the unfold depth. Under
    /// [`OnExhaustion::Generalise`] neither an empty meter nor the depth
    /// is an error here: evaluation between named calls is structural
    /// and terminates on its own, and the next call checks the budget
    /// and demotes. Erroring mid-evaluation would leave no call site to
    /// generalise.
    #[inline]
    fn tick(&mut self) -> Result<(), SpecError> {
        self.stats.steps += 1;
        if self.stats.steps & CancelToken::CHECK_MASK == 0 {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(self.cancel_error());
                }
            }
        }
        if !self.fuel.spend() && self.options.on_exhaustion == OnExhaustion::Error {
            return Err(self.budget_error(BudgetResource::Steps, None));
        }
        if self.depth > self.options.budget.max_unfold_depth {
            return Err(self.budget_error(BudgetResource::UnfoldDepth, None));
        }
        Ok(())
    }

    /// Turns an error raised in a dynamic branch's body into the failing
    /// code that branch stands for, and restores the state the branch
    /// started from. Which branch runs is decided only at run time, so a
    /// static run-time error — `head []`, division by zero — may sit in
    /// dead code: the branch becomes residual code that raises the same
    /// error if it is ever taken. Only the innermost branch above
    /// `kbase` can catch, and only if no definition it requested
    /// depth-first is still open (that definition would stay
    /// unfinished, so the session fails); every other error propagates.
    fn catch(&mut self, err: SpecError, kbase: usize) -> Result<PVal<'p>, SpecError> {
        match self.marks.last() {
            Some(m) if m.kont >= kbase && m.open == self.open => {}
            _ => return Err(err),
        }
        let Some(code) = failing_code(&err) else {
            return Err(err);
        };
        let mark = self.marks.pop().ok_or_else(|| internal("branch without a mark"))?;
        self.konts.truncate(mark.kont);
        self.chain.truncate(mark.chain);
        self.stack.truncate(mark.stack);
        self.temps.truncate(mark.temps);
        self.depth = mark.depth;
        self.frame = mark.frame;
        Ok(PVal::code(code))
    }

    /// A [`SpecError::Cancelled`] naming the innermost in-flight request
    /// (mirrors [`Engine::budget_error`]'s witness choice for fuel).
    fn cancel_error(&self) -> SpecError {
        let witness = self
            .chain
            .last()
            .map(|(q, _)| *q)
            .unwrap_or(QualName::new("?", "?"));
        SpecError::Cancelled { witness, steps: self.stats.steps }
    }

    /// The first breached budget resource, if any. Checked at every
    /// `mk_resid`/unfold decision point: all recursion in the object
    /// language flows through named calls, so this catches every
    /// divergence.
    fn budget_breached(&self) -> Option<BudgetResource> {
        let b = &self.options.budget;
        if self.fuel.is_empty() {
            Some(BudgetResource::Steps)
        } else if self.provenance.len() >= b.max_specialisations {
            Some(BudgetResource::Specialisations)
        } else if self.pending.len() >= b.max_pending || self.open > b.max_pending {
            Some(BudgetResource::Pending)
        } else if self.stats.residual_nodes >= b.max_residual_nodes {
            Some(BudgetResource::ResidualNodes)
        } else if self.depth >= b.max_unfold_depth {
            Some(BudgetResource::UnfoldDepth)
        } else {
            None
        }
    }

    /// Builds a [`SpecError::BudgetExhausted`] from the current request
    /// chain. `at` names the offending call; when the breach is detected
    /// mid-evaluation (step fuel, unfold depth), the innermost chain
    /// frame stands in.
    fn budget_error(
        &self,
        resource: BudgetResource,
        at: Option<(QualName, u64)>,
    ) -> SpecError {
        let (witness, skeleton_hash) = at
            .or_else(|| self.chain.last().copied())
            .unwrap_or((QualName::new("?", "?"), 0));
        const CHAIN_LIMIT: usize = 16;
        let start = self.chain.len().saturating_sub(CHAIN_LIMIT);
        let chain = self.chain[start..].iter().map(|(q, _)| *q).collect();
        SpecError::BudgetExhausted { resource, witness, skeleton_hash, chain }
    }

    fn fresh(&mut self, base: Ident) -> Ident {
        self.gensym += 1;
        Ident::new(format!("{base}'{}", self.gensym))
    }

    /// Slot `i` of the current frame: a copy or a refcount bump.
    #[inline]
    fn slot(&self, i: u32) -> Result<PVal<'p>, SpecError> {
        self.stack
            .get(self.frame.base + i as usize)
            .cloned()
            .ok_or_else(|| internal("environment slot outside the value stack"))
    }

    /// Memo lookup: an O(1) probe on `(target, mask, hash)` plus a
    /// collision-checked skeleton compare within the bucket.
    fn memo_find(
        &mut self,
        target: QualName,
        mask: BtMask,
        keys: &[PKey],
        hash: u64,
    ) -> Option<QualName> {
        self.stats.memo_probes += 1;
        let bucket = self.memo.get(&SpecKey { target, mask: mask.0, hash })?;
        bucket.iter().find(|(k, _)| k.as_slice() == keys).map(|(_, r)| *r)
    }

    fn memo_insert(
        &mut self,
        target: QualName,
        mask: BtMask,
        keys: Vec<PKey>,
        hash: u64,
        resid: QualName,
    ) {
        self.memo.entry(SpecKey { target, mask: mask.0, hash }).or_default().push((keys, resid));
    }

    /// Starts evaluating `e` in the current frame: a leaf gives its
    /// value; any other node pushes the continuation that waits for its
    /// first operand and names that operand.
    fn enter(&mut self, e: &'p GExp, sink: &mut dyn ModuleSink) -> Result<Step<'p>, SpecError> {
        Ok(match e {
            GExp::Nat(n) => Step::Value(PVal::Nat(*n)),
            GExp::Bool(b) => Step::Value(PVal::Bool(*b)),
            GExp::Nil => Step::Value(PVal::Nil),
            GExp::Var(i) => Step::Value(self.slot(*i)?),
            GExp::Prim(op, code, args) => match args.as_slice() {
                [a] => {
                    self.konts.push(Kont::Prim1 { op: *op, code });
                    Step::Eval(a)
                }
                [a, right] => {
                    self.konts.push(Kont::PrimLeft { op: *op, code, right });
                    Step::Eval(a)
                }
                _ => return Err(internal("primitive with neither one nor two operands")),
            },
            GExp::If(code, c, then, els) => {
                self.konts.push(Kont::IfCond { code, then, els });
                Step::Eval(c)
            }
            GExp::Call { args, .. } => match args.first() {
                Some(a) => {
                    self.konts.push(Kont::CallArg { call: e, next: 1 });
                    Step::Eval(a)
                }
                None => self.call(e, sink)?,
            },
            GExp::Lam { param, body, captured, free_fns, lam_id } => {
                let env = captured.iter().map(|s| self.slot(*s)).collect::<Result<Vec<_>, _>>()?;
                Step::Value(PVal::Clo(Rc::new(Closure {
                    param: *param,
                    body,
                    env,
                    free_fns,
                    lam_id: *lam_id,
                    module: self.frame.module,
                    mask: self.frame.mask,
                })))
            }
            GExp::App(code, f, arg) => {
                self.konts.push(Kont::AppFun { code, arg });
                Step::Eval(f)
            }
            GExp::Let(rhs, body) => {
                self.konts.push(Kont::LetRhs { body });
                Step::Eval(rhs)
            }
            GExp::Coerce(spec, inner) => {
                self.konts.push(Kont::Coerce { spec });
                Step::Eval(inner)
            }
        })
    }

    /// Hands `v` to the continuation `k`.
    fn resume(
        &mut self,
        k: Kont<'p>,
        v: PVal<'p>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Step<'p>, SpecError> {
        let mask = self.frame.mask;
        Ok(match k {
            Kont::Prim1 { op, code } => Step::Value(self.prim(op, *code, v, None, sink)?),
            Kont::PrimLeft { op, code, right } => {
                self.temps.push(v);
                self.konts.push(Kont::PrimRight { op, code });
                Step::Eval(right)
            }
            Kont::PrimRight { op, code } => {
                let a = self.park_pop()?;
                Step::Value(self.prim(op, *code, a, Some(v), sink)?)
            }
            Kont::IfCond { code, then, els } => {
                if code.is_dynamic(mask) {
                    self.temps.push(v);
                    self.konts.push(Kont::IfThen { els });
                    self.open_branch();
                    Step::Eval(then)
                } else {
                    match v {
                        PVal::Bool(true) => Step::Eval(then),
                        PVal::Bool(false) => Step::Eval(els),
                        other => {
                            return Err(SpecError::TypeConfusion(format!(
                                "static conditional on non-boolean {other:?}"
                            )))
                        }
                    }
                }
            }
            Kont::IfThen { els } => {
                self.temps.push(v);
                self.konts.push(Kont::IfElse);
                self.open_branch();
                Step::Eval(els)
            }
            Kont::IfElse => {
                let tv = self.park_pop()?;
                let cv = self.park_pop()?;
                Step::Value(PVal::code(Expr::If(
                    Box::new(self.lift_owned(cv, sink)?),
                    Box::new(self.lift_owned(tv, sink)?),
                    Box::new(self.lift_owned(v, sink)?),
                )))
            }
            Kont::Branch => {
                self.marks.pop();
                Step::Value(v)
            }
            Kont::CallArg { call, next } => {
                self.temps.push(v);
                match call {
                    GExp::Call { args, .. } if next < args.len() => {
                        self.konts.push(Kont::CallArg { call, next: next + 1 });
                        Step::Eval(&args[next])
                    }
                    _ => self.call(call, sink)?,
                }
            }
            Kont::AppFun { code, arg } => {
                self.temps.push(v);
                self.konts.push(Kont::AppArg { code });
                Step::Eval(arg)
            }
            Kont::AppArg { code } => {
                let fv = self.park_pop()?;
                if code.is_dynamic(mask) {
                    Step::Value(PVal::code(Expr::App(
                        Box::new(self.lift_owned(fv, sink)?),
                        Box::new(self.lift_owned(v, sink)?),
                    )))
                } else {
                    match &fv {
                        PVal::Clo(c) => Step::Eval(self.enter_closure(c, v)),
                        other => {
                            return Err(SpecError::TypeConfusion(format!(
                                "static application of non-closure {other:?}"
                            )))
                        }
                    }
                }
            }
            Kont::LetRhs { body } => {
                let top = self.stack.len();
                self.stack.push(v);
                self.konts.push(Kont::LetEnd { top });
                Step::Eval(body)
            }
            Kont::LetEnd { top } => {
                self.stack.truncate(top);
                Step::Value(v)
            }
            Kont::Coerce { spec } => Step::Value(self.coerce(spec, v, mask, sink)?),
            Kont::Return { caller, unfold } => {
                self.stack.truncate(self.frame.base);
                self.frame = caller;
                if unfold {
                    self.chain.pop();
                    self.depth -= 1;
                }
                Step::Value(v)
            }
            Kont::Construct => self.finish_construct(v, sink)?,
        })
    }

    /// The most recently parked operand.
    fn park_pop(&mut self) -> Result<PVal<'p>, SpecError> {
        self.temps.pop().ok_or_else(|| internal("operand stack underflow"))
    }

    /// Opens a dynamic branch: errors raised before it returns may
    /// become failing code ([`Engine::catch`]).
    fn open_branch(&mut self) {
        self.marks.push(Mark {
            kont: self.konts.len(),
            frame: self.frame,
            chain: self.chain.len(),
            stack: self.stack.len(),
            temps: self.temps.len(),
            depth: self.depth,
            open: self.open,
        });
        self.konts.push(Kont::Branch);
    }

    /// `mk_op`: performs a static primitive, or builds residual code
    /// when its binding time is dynamic. `b` is a binary primitive's
    /// second operand.
    fn prim(
        &mut self,
        op: PrimOp,
        code: BtCode,
        a: PVal<'p>,
        b: Option<PVal<'p>>,
        sink: &mut dyn ModuleSink,
    ) -> Result<PVal<'p>, SpecError> {
        if code.is_dynamic(self.frame.mask) {
            let mut lifted = Vec::with_capacity(1 + usize::from(b.is_some()));
            lifted.push(self.lift_owned(a, sink)?);
            if let Some(b) = b {
                lifted.push(self.lift_owned(b, sink)?);
            }
            Ok(PVal::code(Expr::Prim(op, lifted)))
        } else {
            static_prim(op, a, b)
        }
    }

    /// `mk_resid` plus the unfold decision: the call side of §4.2. The
    /// call's arguments are the top of the operand stack; an unfold
    /// moves them onto the value stack as the callee's frame and goes on
    /// with the callee's body.
    fn call(&mut self, call: &'p GExp, sink: &mut dyn ModuleSink) -> Result<Step<'p>, SpecError> {
        let GExp::Call { target, callee, inst, args } = call else {
            return Err(internal("call continuation on a non-call"));
        };
        let mut mask = BtMask::all_static();
        for (i, code) in inst.iter().enumerate() {
            if code.is_dynamic(self.frame.mask) {
                mask = mask.set_dynamic(i as u32);
            }
        }
        let program = self.program;
        let f = program.function_at(*callee).ok_or(SpecError::UnknownFunction(*target))?;
        debug_assert!(f.sig.satisfies(mask), "instantiation violated {target}'s constraints");
        let start = self
            .temps
            .len()
            .checked_sub(args.len())
            .ok_or_else(|| internal("argument stack underflow"))?;
        // Budget gate: every divergence passes through here (recursion
        // in the object language is only via named calls), so this one
        // check point suffices to demote the offending call.
        if self.options.on_exhaustion == OnExhaustion::Generalise
            && self.budget_breached().is_some()
        {
            let args = self.temps.split_off(start);
            return self.generalise(target, *callee, f, args, sink);
        }
        if !f.unfold.is_dynamic(mask) {
            self.stats.unfolds += 1;
            if self.recorder.is_enabled() {
                let witness = format!(
                    "unfold term {} = S under {}",
                    f.sig.unfold,
                    mask.render(f.sig.vars)
                );
                self.record_decision(
                    Decision::Unfold,
                    target,
                    mask,
                    f.sig.vars,
                    0,
                    false,
                    None,
                    witness,
                );
            }
            let base = self.stack.len();
            self.stack.extend(self.temps.drain(start..));
            self.chain.push((*target, 0));
            self.depth += 1;
            self.konts.push(Kont::Return { caller: self.frame, unfold: true });
            self.frame = Frame { base, mask, module: target.module };
            return Ok(Step::Eval(&f.body));
        }

        let args = self.temps.split_off(start);
        self.residualise(target, *callee, f, mask, args)
    }

    /// `mk_resid` for a call that is not unfolded: split the arguments
    /// and memoise on the static skeleton. A memo hit is a residual call;
    /// a new specialisation is queued (breadth-first) or started
    /// (depth-first).
    fn residualise(
        &mut self,
        target: &QualName,
        callee: FnId,
        f: &'p GenFn,
        mask: BtMask,
        args: Vec<PVal<'p>>,
    ) -> Result<Step<'p>, SpecError> {
        let mut leaves = Vec::new();
        let mut keys = Vec::with_capacity(args.len());
        let mut leaf_names: Vec<Ident> = Vec::new();
        let mut hash = SKELETON_SEED;
        for (arg, p) in args.iter().zip(&f.params) {
            let before = leaves.len();
            let (k, h) = split_hashed(arg, &mut leaves);
            hash = hash_fold(hash, h);
            keys.push(k);
            let count = leaves.len() - before;
            for j in 0..count {
                // Prefer the leaf's own variable name (the paper's
                // `map_g z ys` keeps the captured `z` recognisable),
                // falling back to the parameter name.
                leaf_names.push(match &leaves[before + j] {
                    Expr::Var(x) => *x,
                    _ if count == 1 => *p,
                    _ => Ident::new(format!("{p}_{j}")),
                });
            }
        }
        if let Some(resid) = self.memo_find(*target, mask, &keys, hash) {
            self.stats.memo_hits += 1;
            self.record_decision(
                Decision::MemoHit,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                String::new(),
            );
            return Ok(Step::Value(PVal::code(Expr::Call(CallName::from(resid), leaves))));
        }

        // New specialisation: name it, place it (§5: at first call,
        // before the body exists), then queue or construct it.
        if self.provenance.len() >= self.options.budget.max_specialisations {
            return Err(
                self.budget_error(BudgetResource::Specialisations, Some((*target, hash)))
            );
        }
        let counter = self.name_counters.entry(*target).or_insert(0);
        *counter += 1;
        let resid_name = Ident::new(format!("{}_{}", target.name, counter));
        let mut free = vec![*target];
        for a in &args {
            a.free_fns(&mut free);
        }
        let module = self.placer.place(&free, self.program.graph());
        let resid = QualName { module, name: resid_name };
        self.memo_insert(*target, mask, keys, hash, resid);

        let formals = uniquify(leaf_names);
        self.provenance.push(Provenance {
            source: *target,
            mask,
            vars: f.sig.vars,
            residual: resid,
            formals: formals.len(),
        });
        let mut next = 0;
        let env = args.iter().map(|a| rebuild(a, &formals, &mut next)).collect();
        let spec = PendingSpec {
            target: *target,
            callee,
            mask,
            env,
            resid,
            formals,
            hash,
        };
        if self.recorder.is_enabled() {
            self.record_decision(
                Decision::Residualise,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                format!(
                    "unfold term {} = D under {}",
                    f.sig.unfold,
                    mask.render(f.sig.vars)
                ),
            );
        }
        let code = PVal::code(Expr::Call(CallName::from(resid), leaves));
        match self.options.strategy {
            Strategy::BreadthFirst => {
                if self.pending.len() >= self.options.budget.max_pending {
                    return Err(
                        self.budget_error(BudgetResource::Pending, Some((*target, hash)))
                    );
                }
                self.pending.push_back(spec);
                self.stats.peak_pending = self.stats.peak_pending.max(self.pending.len());
                self.recorder.observe("genext.pending_depth", self.pending.len() as u64);
                Ok(Step::Value(code))
            }
            Strategy::DepthFirst => Ok(Step::Eval(self.begin_construct(spec, Some(code))?)),
        }
    }

    /// Generalising fallback: demote `target` to a fully-dynamic
    /// residual call. The static skeleton is abandoned — every argument
    /// is lifted to code, so the memo key is all [`PKey::Hole`]s and at
    /// most one generalised variant per source function ever exists.
    /// With finitely many functions, each body finite and evaluated
    /// under a breached budget that keeps every further call on this
    /// path, the session terminates; the residual program is correct,
    /// merely less specialised (the classic generalisation move of
    /// offline partial evaluation, applied on demand instead of by
    /// reannotation).
    ///
    /// Note the unfold decision is deliberately skipped: a recursive
    /// function without static conditionals is unfoldable under *every*
    /// mask and would unfold forever.
    fn generalise(
        &mut self,
        target: &QualName,
        callee: FnId,
        f: &'p GenFn,
        args: Vec<PVal<'p>>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Step<'p>, SpecError> {
        let mask = BtMask::all_dynamic(f.sig.vars);
        let mut leaves = Vec::with_capacity(args.len());
        for a in args {
            leaves.push(self.lift_owned(a, sink)?);
        }
        let keys = vec![PKey::Hole; leaves.len()];
        let hash = all_holes_hash(leaves.len());
        if let Some(resid) = self.memo_find(*target, mask, &keys, hash) {
            self.stats.memo_hits += 1;
            self.record_decision(
                Decision::MemoHit,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                String::new(),
            );
            return Ok(Step::Value(PVal::code(Expr::Call(CallName::from(resid), leaves))));
        }
        self.stats.generalised += 1;
        let counter = self.name_counters.entry(*target).or_insert(0);
        *counter += 1;
        let resid_name = Ident::new(format!("{}_{}", target.name, counter));
        let module = self.placer.place(&[*target], self.program.graph());
        let resid = QualName { module, name: resid_name };
        self.memo_insert(*target, mask, keys, hash, resid);
        let formals = uniquify(
            leaves
                .iter()
                .zip(&f.params)
                .map(|(l, p)| match l {
                    Expr::Var(x) => *x,
                    _ => *p,
                })
                .collect(),
        );
        self.provenance.push(Provenance {
            source: *target,
            mask,
            vars: f.sig.vars,
            residual: resid,
            formals: formals.len(),
        });
        if self.recorder.is_enabled() {
            let resource = self.budget_breached();
            self.record_decision(
                Decision::Generalise,
                target,
                mask,
                f.sig.vars,
                hash,
                true,
                Some(&resid),
                match resource {
                    Some(r) => format!("budget breached ({r:?}): demoted to all-dynamic variant"),
                    None => "demoted to all-dynamic variant".to_string(),
                },
            );
        }
        let env = formals.iter().map(|x| PVal::code(Expr::Var(*x))).collect();
        let spec = PendingSpec { target: *target, callee, mask, env, resid, formals, hash };
        let code = PVal::code(Expr::Call(CallName::from(resid), leaves));
        match self.options.strategy {
            Strategy::BreadthFirst => {
                self.pending.push_back(spec);
                self.stats.peak_pending = self.stats.peak_pending.max(self.pending.len());
                self.recorder.observe("genext.pending_depth", self.pending.len() as u64);
                Ok(Step::Value(code))
            }
            Strategy::DepthFirst => Ok(Step::Eval(self.begin_construct(spec, Some(code))?)),
        }
    }

    /// Enters a static closure's body: a frame of the captured values
    /// followed by the argument, under the closure's *origin* mask (its
    /// binding times refer to the signature variables of the function it
    /// was written in). The body's value returns through
    /// [`Kont::Return`].
    fn enter_closure(&mut self, c: &Closure<'p>, arg: PVal<'p>) -> &'p GExp {
        self.konts.push(Kont::Return { caller: self.frame, unfold: false });
        let base = self.stack.len();
        self.stack.extend(c.env.iter().cloned());
        self.stack.push(arg);
        self.frame = Frame { base, mask: c.mask, module: c.module };
        c.body
    }

    /// Applies a static closure outside the loop (eta-expansion while
    /// lifting): runs the engine until its body has returned.
    fn apply_closure(
        &mut self,
        c: &Closure<'p>,
        arg: PVal<'p>,
        sink: &mut dyn ModuleSink,
    ) -> Result<PVal<'p>, SpecError> {
        let kbase = self.konts.len();
        let body = self.enter_closure(c, arg);
        self.run(Step::Eval(body), kbase, sink)
    }

    /// Applies a compiled coercion to a value.
    fn coerce(
        &mut self,
        spec: &GCoerce,
        v: PVal<'p>,
        mask: BtMask,
        sink: &mut dyn ModuleSink,
    ) -> Result<PVal<'p>, SpecError> {
        match spec {
            GCoerce::Id => Ok(v),
            GCoerce::Base { from, to } | GCoerce::Fun { from, to } => {
                if !from.is_dynamic(mask) && to.is_dynamic(mask) {
                    Ok(PVal::code(self.lift_owned(v, sink)?))
                } else {
                    Ok(v)
                }
            }
            GCoerce::List { from, to, elem, elem_identity } => {
                if from.is_dynamic(mask) {
                    Ok(v) // already code
                } else if to.is_dynamic(mask) {
                    Ok(PVal::code(self.lift_owned(v, sink)?))
                } else if *elem_identity || elem.is_noop(mask) {
                    Ok(v)
                } else {
                    self.coerce_spine(elem, v, mask, sink)
                }
            }
        }
    }

    /// Coerces every element of a static spine, walking it in a loop.
    fn coerce_spine(
        &mut self,
        elem: &GCoerce,
        v: PVal<'p>,
        mask: BtMask,
        sink: &mut dyn ModuleSink,
    ) -> Result<PVal<'p>, SpecError> {
        let mut heads = Vec::new();
        let mut rest = v;
        loop {
            match rest {
                PVal::Nil => break,
                PVal::Cons(c) => {
                    let (h, t) = Rc::try_unwrap(c).unwrap_or_else(|c| (c.0.clone(), c.1.clone()));
                    heads.push(self.coerce(elem, h, mask, sink)?);
                    rest = t;
                }
                other => {
                    return Err(SpecError::TypeConfusion(format!(
                        "static-spine coercion applied to {other:?}"
                    )))
                }
            }
        }
        Ok(heads.into_iter().rev().fold(PVal::Nil, |tail, h| PVal::cons(h, tail)))
    }

    /// Lifts an owned value, reclaiming the inner expression without a
    /// copy when this reference is the last one (the common case for
    /// freshly built code).
    fn lift_owned(
        &mut self,
        v: PVal<'p>,
        sink: &mut dyn ModuleSink,
    ) -> Result<Expr, SpecError> {
        match v {
            PVal::Code(e) => Ok(Rc::try_unwrap(e).unwrap_or_else(|e| (*e).clone())),
            other => self.lift(&other, sink),
        }
    }

    /// Lifts a value to residual code: literals for data (a spine in a
    /// loop), eta-expansion for static closures (specialising the
    /// closure body with a fresh dynamic variable).
    fn lift(&mut self, v: &PVal<'p>, sink: &mut dyn ModuleSink) -> Result<Expr, SpecError> {
        match v {
            PVal::Code(e) => Ok((**e).clone()),
            PVal::Nat(n) => Ok(Expr::Nat(*n)),
            PVal::Bool(b) => Ok(Expr::Bool(*b)),
            PVal::Nil => Ok(Expr::Nil),
            PVal::Cons(_) => {
                let mut heads = Vec::new();
                let mut rest = v;
                while let PVal::Cons(c) = rest {
                    heads.push(self.lift(&c.0, sink)?);
                    rest = &c.1;
                }
                let tail = self.lift(rest, sink)?;
                Ok(heads
                    .into_iter()
                    .rev()
                    .fold(tail, |tail, h| Expr::Prim(PrimOp::Cons, vec![h, tail])))
            }
            PVal::Clo(c) => {
                let x = self.fresh(c.param);
                let body = self.apply_closure(c, PVal::code(Expr::Var(x)), sink)?;
                let body = self.lift_owned(body, sink)?;
                Ok(Expr::Lam(x, Box::new(body)))
            }
        }
    }
}

/// The number of nodes in a residual body; adds the module of every
/// function it calls, other than `home`, to `imports`. One walk, in a
/// loop: a residual is as deep as the unfold chain that built it.
fn measure(body: &Expr, home: ModName, imports: &mut BTreeSet<ModName>) -> usize {
    let mut size = 0;
    let mut todo = vec![body];
    while let Some(e) = todo.pop() {
        size += 1;
        match e {
            Expr::Nat(_) | Expr::Bool(_) | Expr::Nil | Expr::Var(_) => {}
            Expr::Prim(_, args) => todo.extend(args),
            Expr::Call(target, args) => {
                if let Some(q) = target.qualified_opt() {
                    if q.module != home {
                        imports.insert(q.module);
                    }
                }
                todo.extend(args);
            }
            Expr::If(c, t, f) => todo.extend([&**c, &**t, &**f]),
            Expr::Lam(_, b) => todo.push(b),
            Expr::App(a, b) | Expr::Let(_, a, b) => todo.extend([&**a, &**b]),
        }
    }
    size
}

/// The entry function's argument values and the binding-time mask the
/// request induces. Dynamic positions reference the residual entry's
/// formal parameters by their original names; a static spine of `n`
/// elements becomes `n` formals named after the parameter. A static
/// argument nesting cons cells deeper than `max_depth`, or a static
/// spine longer, is refused before it is converted: every walk over a
/// partial value, and over the residual it becomes, recurses once per
/// cell.
fn entry_values<'p>(
    f: &GenFn,
    entry: &QualName,
    args: &[SpecArg],
    max_depth: usize,
) -> Result<(BtMask, Vec<PVal<'p>>), SpecError> {
    if f.params.len() != args.len() {
        return Err(SpecError::EntryArity {
            entry: *entry,
            expected: f.params.len(),
            found: args.len(),
        });
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
    let mask = division
        .mask_for(&f.sig)
        .map_err(|e| SpecError::TypeConfusion(e.to_string()))?;
    let too_deep = || SpecError::BudgetExhausted {
        resource: BudgetResource::UnfoldDepth,
        witness: *entry,
        skeleton_hash: 0,
        chain: Vec::new(),
    };
    let mut vals = Vec::with_capacity(args.len());
    for (a, p) in args.iter().zip(&f.params) {
        vals.push(match a {
            SpecArg::Static(v) => {
                if cons_depth_exceeds(v, max_depth) {
                    return Err(too_deep());
                }
                PVal::from_value(v).ok_or_else(|| {
                    SpecError::TypeConfusion(format!(
                        "closure values cannot be specialisation inputs (parameter {p})"
                    ))
                })?
            }
            SpecArg::Dynamic => PVal::code(Expr::Var(*p)),
            SpecArg::StaticSpine(n) => {
                if *n > max_depth {
                    return Err(too_deep());
                }
                let mut list = PVal::Nil;
                for i in (0..*n).rev() {
                    let name = Ident::new(format!("{p}{i}"));
                    list = PVal::cons(PVal::code(Expr::Var(name)), list);
                }
                list
            }
        });
    }
    Ok((mask, vals))
}

/// Whether some path through `v`'s cons cells, heads and tails alike,
/// is longer than `limit`. Walks in a loop and stops at the first such
/// cell.
fn cons_depth_exceeds(v: &Value, limit: usize) -> bool {
    let mut todo = vec![(v, 0usize)];
    while let Some((v, depth)) = todo.pop() {
        if let Value::Cons(h, t) = v {
            if depth == limit {
                return true;
            }
            todo.push((h, depth + 1));
            todo.push((t, depth + 1));
        }
    }
    false
}

/// An engine invariant broken, e.g. by a malformed generating extension.
fn internal(what: &str) -> SpecError {
    SpecError::TypeConfusion(format!("engine internal error: {what}"))
}

/// Residual code of any type that fails at run time with the error a
/// static primitive raised at specialisation time: `head []`,
/// `head (tail [])` or `head (if 0 / 0 == 0 then [] else [])`. `None`
/// for every other error. The engine and the `mix` baseline put it in
/// place of a dynamic branch whose body raised such an error.
pub fn failing_code(err: &SpecError) -> Option<Expr> {
    let prim = |op, arg| Expr::Prim(op, vec![arg]);
    let list = match err {
        SpecError::EmptyList("head") => Expr::Nil,
        SpecError::EmptyList(_) => prim(PrimOp::Tail, Expr::Nil),
        SpecError::DivByZero => {
            let zero = Expr::Prim(PrimOp::Div, vec![Expr::Nat(0), Expr::Nat(0)]);
            let test = Expr::Prim(PrimOp::Eq, vec![zero, Expr::Nat(0)]);
            Expr::If(Box::new(test), Box::new(Expr::Nil), Box::new(Expr::Nil))
        }
        _ => return None,
    };
    Some(prim(PrimOp::Head, list))
}

/// Performs a static primitive on partial values: `b` is the second
/// operand of a binary primitive, `None` for a unary one.
fn static_prim<'p>(op: PrimOp, a: PVal<'p>, b: Option<PVal<'p>>) -> Result<PVal<'p>, SpecError> {
    use PrimOp::*;
    let nat = |v: &PVal<'p>| match v {
        PVal::Nat(n) => Ok(*n),
        other => Err(SpecError::TypeConfusion(format!(
            "static {} on non-natural {other:?}",
            op.symbol()
        ))),
    };
    let boolean = |v: &PVal<'p>| match v {
        PVal::Bool(b) => Ok(*b),
        other => Err(SpecError::TypeConfusion(format!(
            "static {} on non-boolean {other:?}",
            op.symbol()
        ))),
    };
    let second = || b.ok_or_else(|| internal("binary primitive with one operand"));
    match op {
        Add => Ok(PVal::Nat(nat(&a)?.wrapping_add(nat(&second()?)?))),
        Sub => Ok(PVal::Nat(nat(&a)?.saturating_sub(nat(&second()?)?))),
        Mul => Ok(PVal::Nat(nat(&a)?.wrapping_mul(nat(&second()?)?))),
        Div => match nat(&a)?.checked_div(nat(&second()?)?) {
            Some(q) => Ok(PVal::Nat(q)),
            None => Err(SpecError::DivByZero),
        },
        Eq => Ok(PVal::Bool(nat(&a)? == nat(&second()?)?)),
        Lt => Ok(PVal::Bool(nat(&a)? < nat(&second()?)?)),
        Leq => Ok(PVal::Bool(nat(&a)? <= nat(&second()?)?)),
        And => Ok(PVal::Bool(boolean(&a)? && boolean(&second()?)?)),
        Or => Ok(PVal::Bool(boolean(&a)? || boolean(&second()?)?)),
        Not => Ok(PVal::Bool(!boolean(&a)?)),
        Cons => Ok(PVal::cons(a, second()?)),
        Head => match a {
            PVal::Cons(c) => Ok(c.0.clone()),
            PVal::Nil => Err(SpecError::EmptyList("head")),
            other => Err(SpecError::TypeConfusion(format!("static head of {other:?}"))),
        },
        Tail => match a {
            PVal::Cons(c) => Ok(c.1.clone()),
            PVal::Nil => Err(SpecError::EmptyList("tail")),
            other => Err(SpecError::TypeConfusion(format!("static tail of {other:?}"))),
        },
        Null => match a {
            PVal::Nil => Ok(PVal::Bool(true)),
            PVal::Cons(..) => Ok(PVal::Bool(false)),
            other => Err(SpecError::TypeConfusion(format!("static null of {other:?}"))),
        },
    }
}

/// Makes names unique by appending primed counters to duplicates.
fn uniquify(names: Vec<Ident>) -> Vec<Ident> {
    let mut seen: BTreeSet<Ident> = BTreeSet::new();
    let mut out = Vec::with_capacity(names.len());
    for n in names {
        if seen.insert(n) {
            out.push(n);
            continue;
        }
        let mut k = 2;
        loop {
            let candidate = Ident::new(format!("{n}'{k}"));
            if seen.insert(candidate) {
                out.push(candidate);
                break;
            }
            k += 1;
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn uniquify_keeps_distinct_names() {
        let names = vec![Ident::new("a"), Ident::new("b")];
        assert_eq!(uniquify(names.clone()), names);
    }

    #[test]
    fn uniquify_renames_duplicates() {
        let names = vec![Ident::new("a"), Ident::new("a"), Ident::new("a")];
        let out = uniquify(names);
        assert_eq!(out[0].as_str(), "a");
        assert_eq!(out[1].as_str(), "a'2");
        assert_eq!(out[2].as_str(), "a'3");
    }

    #[test]
    fn static_prim_arithmetic() {
        let add = static_prim(PrimOp::Add, PVal::Nat(2), Some(PVal::Nat(3))).unwrap();
        assert!(matches!(add, PVal::Nat(5)));
        let sub = static_prim(PrimOp::Sub, PVal::Nat(2), Some(PVal::Nat(3))).unwrap();
        assert!(matches!(sub, PVal::Nat(0)));
        assert!(matches!(
            static_prim(PrimOp::Div, PVal::Nat(1), Some(PVal::Nat(0))),
            Err(SpecError::DivByZero)
        ));
    }

    #[test]
    fn static_prim_lists_allow_dynamic_elements() {
        // A partially static list: static cons with a code head.
        let code = PVal::code(Expr::Var(Ident::new("x")));
        let cons = static_prim(PrimOp::Cons, code, Some(PVal::Nil)).unwrap();
        let head = static_prim(PrimOp::Head, cons.clone(), None).unwrap();
        assert!(matches!(head, PVal::Code(_)));
        let null = static_prim(PrimOp::Null, cons, None).unwrap();
        assert!(matches!(null, PVal::Bool(false)));
    }

    #[test]
    fn static_prim_type_confusion_is_reported() {
        assert!(matches!(
            static_prim(PrimOp::Add, PVal::Bool(true), Some(PVal::Nat(1))),
            Err(SpecError::TypeConfusion(_))
        ));
        assert!(matches!(
            static_prim(PrimOp::Head, PVal::Nat(1), None),
            Err(SpecError::TypeConfusion(_))
        ));
        assert!(matches!(
            static_prim(PrimOp::Add, PVal::Nat(1), None),
            Err(SpecError::TypeConfusion(_))
        ));
    }

    // Engine-level behaviour is exercised end-to-end in the cogen crate
    // (which can build GenPrograms from source) and the integration
    // tests; here we cover the pure helpers.
}
