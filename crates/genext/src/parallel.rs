//! The concurrent specialisation driver: sharded memoisation, worker
//! engines with placeholder naming, and a deterministic sequential
//! replay that makes the residual program **byte-identical** to the
//! sequential engine's output at every thread count.
//!
//! # How determinism is preserved
//!
//! The breadth-first pending list is processed in *rounds*. Each round's
//! frontier (residual definitions whose canonical names, formals and
//! placement were fixed by the previous round) is distributed over a
//! work-stealing pool ([`mspec_sched`]); each worker evaluates bodies
//! with its own [`Engine`] in *worker mode*:
//!
//! * child `mk_resid` requests probe the [`SharedMemo`] (claims settled
//!   in earlier rounds) and the body's own earlier claims; a miss
//!   returns a **placeholder** call name from the worker's disjoint
//!   range and records a [`ChildRequest`],
//! * fresh identifiers (closure eta-expansion) are placeholders too,
//!   with the requested base name logged,
//! * decision events are buffered as templates, not emitted,
//! * step fuel is claimed in chunks from a pool shared by the workers.
//!
//! At the round barrier the driver *replays* the finished bodies in
//! breadth-first order on one thread: claims are resolved against the
//! shared memo in first-encounter order (exactly the sequential memo
//! semantics), canonical `{name}_{n}` residual names, §5 placement,
//! `{base}'{n}` gensyms, provenance, statistics, budget checks and
//! telemetry events are produced in the sequential order, and the
//! placeholders are renamed away before the definition is emitted.
//! Placeholders contain `~` (not lexable in source identifiers), so they
//! can never collide with real names — and never survive the replay.
//!
//! With one thread the only deviation from the sequential engine is the
//! round barrier itself, which reorders no decision; budget breaches
//! with *multiple* threads may attribute the breach to a different
//! definition than the sequential run (fuel is consumed concurrently),
//! but successful runs are byte-identical at every thread count.

use crate::budget::{BudgetResource, OnExhaustion};
use crate::emit::{assemble, MemorySink, ModuleSink, NullSink, ResidualProgram};
use crate::engine::{
    entry_values, uniquify, Engine, EngineOptions, Provenance, SpecArg, SpecKey,
    SpecStats, Strategy,
};
use crate::error::SpecError;
use crate::gexp::{GenProgram, GExp};
use crate::value::{hash_fold, split_hashed, Closure, PKey, PVal, SKELETON_SEED};
use mspec_bta::BtMask;
use mspec_lang::ast::{CallName, Def, Expr, Ident, ModName, QualName};
use mspec_telemetry::{Decision, Recorder, SpecEvent};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::num::NonZeroUsize;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Module namespace of placeholder call names. `~` cannot appear in a
/// lexed identifier, so no source or residual module can collide.
const PAR_MOD: &str = "~par";

/// Steps a worker claims from the shared fuel pool at a time. Large
/// enough that pool contention is negligible, small enough that the
/// total over-claim at a breach is invisible next to the default budget.
const FUEL_CHUNK: u64 = 4096;

/// Snapshot depth for budget-error chains (mirrors the engine's limit).
const CHAIN_LIMIT: usize = 16;

// ---------------------------------------------------------------------
// Send-able partial values
// ---------------------------------------------------------------------

/// A [`PVal`] with the `Rc` sharing flattened out, so frontier items can
/// cross threads. Structure (and therefore splitting, hashing and
/// rebuilding) is preserved exactly; only sharing is lost, which no
/// engine decision observes.
#[derive(Debug, Clone)]
pub(crate) enum SendPVal {
    Nat(u64),
    Bool(bool),
    Nil,
    Cons(Box<SendPVal>, Box<SendPVal>),
    Clo(Box<SendClosure>),
    /// A dynamic leaf. The leaf expression itself is not carried: it
    /// lives at the *call site*; inside the new definition the leaf is
    /// always rebuilt as a reference to the matching formal.
    Code,
}

/// [`Closure`] without `Rc`-shared environment slots.
#[derive(Debug, Clone)]
pub(crate) struct SendClosure {
    param: Ident,
    body: Arc<GExp>,
    env: Vec<SendPVal>,
    free_fns: Arc<Vec<QualName>>,
    lam_id: u32,
    module: ModName,
    mask: BtMask,
}

impl SendPVal {
    pub(crate) fn from_pval(v: &PVal) -> SendPVal {
        match v {
            PVal::Nat(n) => SendPVal::Nat(*n),
            PVal::Bool(b) => SendPVal::Bool(*b),
            PVal::Nil => SendPVal::Nil,
            PVal::Cons(c) => {
                SendPVal::Cons(Box::new(Self::from_pval(&c.0)), Box::new(Self::from_pval(&c.1)))
            }
            PVal::Clo(c) => SendPVal::Clo(Box::new(SendClosure {
                param: c.param,
                body: Arc::clone(&c.body),
                env: c.env.iter().map(Self::from_pval).collect(),
                free_fns: Arc::clone(&c.free_fns),
                lam_id: c.lam_id,
                module: c.module,
                mask: c.mask,
            })),
            PVal::Code(_) => SendPVal::Code,
        }
    }

    /// Mirrors [`crate::value::rebuild`]: every dynamic leaf becomes a
    /// reference to the definition's corresponding formal, in the same
    /// left-to-right traversal order as splitting.
    pub(crate) fn rebuild(&self, names: &[Ident], next: &mut usize) -> PVal {
        match self {
            SendPVal::Nat(n) => PVal::Nat(*n),
            SendPVal::Bool(b) => PVal::Bool(*b),
            SendPVal::Nil => PVal::Nil,
            SendPVal::Cons(h, t) => {
                let h2 = h.rebuild(names, next);
                let t2 = t.rebuild(names, next);
                PVal::cons(h2, t2)
            }
            SendPVal::Clo(c) => {
                let env = c.env.iter().map(|e| e.rebuild(names, next)).collect();
                PVal::Clo(Rc::new(Closure {
                    param: c.param,
                    body: Arc::clone(&c.body),
                    env,
                    free_fns: Arc::clone(&c.free_fns),
                    lam_id: c.lam_id,
                    module: c.module,
                    mask: c.mask,
                }))
            }
            SendPVal::Code => {
                let name = names[*next];
                *next += 1;
                PVal::code(Expr::Var(name))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared state: memo table and fuel pool
// ---------------------------------------------------------------------

const SHARDS: usize = 16;

/// One memo shard: specialisation key → residual-name buckets, each
/// bucket keyed by the full per-argument key vector.
type MemoShard = RwLock<HashMap<SpecKey, Vec<(Vec<PKey>, QualName)>>>;

/// The concurrent memo table: [`SpecKey`]-sharded by skeleton hash,
/// read-mostly. Workers only *read* (mid-round); the replay — which runs
/// while every worker is parked at the round barrier — is the sole
/// writer, so insertions happen in deterministic breadth-first order.
pub(crate) struct SharedMemo {
    shards: [MemoShard; SHARDS],
}

impl SharedMemo {
    fn new() -> SharedMemo {
        SharedMemo { shards: std::array::from_fn(|_| RwLock::new(HashMap::new())) }
    }

    fn shard(&self, key: &SpecKey) -> &MemoShard {
        &self.shards[(key.hash as usize) & (SHARDS - 1)]
    }

    fn find(&self, key: &SpecKey, keys: &[PKey]) -> Option<QualName> {
        let guard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        let bucket = guard.get(key)?;
        bucket.iter().find(|(k, _)| k.as_slice() == keys).map(|(_, r)| *r)
    }

    fn insert(&self, key: SpecKey, keys: Vec<PKey>, resid: QualName) {
        let mut guard = self.shard(&key).write().unwrap_or_else(|e| e.into_inner());
        guard.entry(key).or_default().push((keys, resid));
    }
}

/// The step-fuel pool shared by a round's workers. Claimed in chunks so
/// the hot path (one decrement per evaluation step) stays thread-local.
pub(crate) struct FuelPool(AtomicU64);

impl FuelPool {
    fn new(steps: u64) -> FuelPool {
        FuelPool(AtomicU64::new(steps))
    }

    fn claim(&self, want: u64) -> u64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            match self.0.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(c) => cur = c,
            }
        }
    }

    fn refund(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::AcqRel);
        }
    }
}

// ---------------------------------------------------------------------
// Worker-side records
// ---------------------------------------------------------------------

/// One unresolved `mk_resid` miss: everything the replay needs to either
/// resolve it against the shared memo or mint the canonical new
/// specialisation exactly as the sequential engine would have.
pub(crate) struct ChildRequest {
    key: SpecKey,
    keys: Vec<PKey>,
    target: QualName,
    mask: BtMask,
    vars: u32,
    hash: u64,
    leaf_names: Vec<Ident>,
    free: Vec<QualName>,
    args: Vec<SendPVal>,
    placeholder: Ident,
    chain_depth: u64,
    steps_at: u64,
    /// Request-chain snapshot for deterministic budget-error reporting.
    chain: Vec<QualName>,
}

/// A buffered decision event, emitted at replay with the sequential
/// budget gauges reconstructed from the replay state.
pub(crate) struct EvTpl {
    decision: Decision,
    target: QualName,
    mask: BtMask,
    vars: u32,
    hash: u64,
    probe: bool,
    /// Known at buffer time for shared-memo hits; `None` for hits on
    /// this body's own claims (resolved at replay).
    residual: Option<QualName>,
    /// Request index of the original claim, for local hits.
    local_claim: Option<usize>,
    witness: String,
    chain_depth: u64,
    /// Evaluation steps into this definition's body when the decision
    /// was taken (global step count is reconstructed at replay).
    steps_at: u64,
}

/// The ordered log of naming-relevant operations inside one body.
pub(crate) enum ParOp {
    /// A memo miss: `requests[req]` claims a (possibly new) residual.
    Claim { req: usize },
    /// A buffered decision event (unfold, shared hit, local hit).
    Event(Box<EvTpl>),
}

/// One finished worker evaluation: the definition body (with
/// placeholders), the side-effect log, and the statistics deltas.
pub(crate) struct WorkerDef {
    def: Def,
    requests: Vec<ChildRequest>,
    ops: Vec<ParOp>,
    /// `(placeholder, requested base)` in generation order.
    fresh_log: Vec<(Ident, Ident)>,
    d_steps: u64,
    d_unfolds: usize,
    d_probes: usize,
    d_hits: usize,
}

/// A frontier item: a residual definition whose identity (canonical
/// name, placement, formals) is already fixed; only its body remains to
/// be evaluated.
pub(crate) struct ParPending {
    target: QualName,
    mask: BtMask,
    resid: QualName,
    formals: Vec<Ident>,
    args: Vec<SendPVal>,
    hash: u64,
}

/// Per-worker context hung off an [`Engine`] in worker mode.
pub(crate) struct ParCtx {
    shared: Arc<SharedMemo>,
    pool: Arc<FuelPool>,
    local_fuel: u64,
    worker: usize,
    par_mod: ModName,
    call_seq: u64,
    ident_seq: u64,
    def_start_steps: u64,
    requests: Vec<ChildRequest>,
    ops: Vec<ParOp>,
    fresh_log: Vec<(Ident, Ident)>,
    local_claims: HashMap<SpecKey, Vec<(Vec<PKey>, usize)>>,
}

impl ParCtx {
    fn new(
        shared: Arc<SharedMemo>,
        pool: Arc<FuelPool>,
        worker: usize,
        par_mod: ModName,
    ) -> ParCtx {
        ParCtx {
            shared,
            pool,
            local_fuel: 0,
            worker,
            par_mod,
            call_seq: 0,
            ident_seq: 0,
            def_start_steps: 0,
            requests: Vec::new(),
            ops: Vec::new(),
            fresh_log: Vec::new(),
            local_claims: HashMap::new(),
        }
    }

    /// Spends one step from the shared pool (chunked locally).
    pub(crate) fn spend_fuel(&mut self) -> bool {
        if self.local_fuel == 0 {
            self.local_fuel = self.pool.claim(FUEL_CHUNK);
            if self.local_fuel == 0 {
                return false;
            }
        }
        self.local_fuel -= 1;
        true
    }

    /// A placeholder identifier from this worker's disjoint range; the
    /// replay assigns the canonical `{base}'{gensym}` name.
    pub(crate) fn fresh_placeholder(&mut self, base: Ident) -> Ident {
        self.ident_seq += 1;
        let ph = Ident::new(format!("~g{}x{}", self.worker, self.ident_seq));
        self.fresh_log.push((ph, base));
        ph
    }

    fn local_find(&self, key: &SpecKey, keys: &[PKey]) -> Option<usize> {
        let bucket = self.local_claims.get(key)?;
        bucket.iter().find(|(k, _)| k.as_slice() == keys).map(|(_, i)| *i)
    }
}

impl Drop for ParCtx {
    fn drop(&mut self) {
        // Unspent chunk fuel returns to the pool when the session's
        // worker states are dropped, keeping the total admitted step
        // count exactly `budget.steps`. (Workers now live for the whole
        // session, so a worker may carry up to one chunk of unspent
        // fuel across round barriers — part of the documented budget
        // slack at `threads > 1`.)
        self.pool.refund(self.local_fuel);
    }
}

// ---------------------------------------------------------------------
// Engine worker-mode entry points (called from `engine.rs`)
// ---------------------------------------------------------------------

impl<'p> Engine<'p> {
    /// Buffers an unfold decision event for replay-time emission.
    pub(crate) fn buffer_unfold_event(
        &mut self,
        target: &QualName,
        mask: BtMask,
        vars: u32,
        witness: String,
    ) {
        let chain_depth = self.chain.len() as u64;
        let steps_now = self.stats.steps;
        if let Some(par) = self.par.as_mut() {
            par.ops.push(ParOp::Event(Box::new(EvTpl {
                decision: Decision::Unfold,
                target: *target,
                mask,
                vars,
                hash: 0,
                probe: false,
                residual: None,
                local_claim: None,
                witness,
                chain_depth,
                steps_at: steps_now - par.def_start_steps,
            })));
        }
    }

    /// Worker-mode `mk_resid`: probe shared memo, then this body's own
    /// claims; on a miss, claim a placeholder and record the request.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn residualise_par(
        &mut self,
        target: &QualName,
        vars: u32,
        mask: BtMask,
        args: &[PVal],
        keys: Vec<PKey>,
        leaves: Vec<Expr>,
        leaf_names: Vec<Ident>,
        hash: u64,
    ) -> Result<PVal, SpecError> {
        self.stats.memo_probes += 1;
        let enabled = self.recorder.is_enabled();
        let chain_depth = self.chain.len() as u64;
        let key = SpecKey { target: *target, mask: mask.0, hash };
        let steps_now = self.stats.steps;
        let Some(par) = self.par.as_mut() else {
            return Err(SpecError::TypeConfusion(
                "residualise_par outside worker mode".to_string(),
            ));
        };
        let steps_at = steps_now - par.def_start_steps;

        // Settled in an earlier round (or the entry): a plain memo hit.
        if let Some(found) = par.shared.find(&key, &keys) {
            self.stats.memo_hits += 1;
            if enabled {
                par.ops.push(ParOp::Event(Box::new(EvTpl {
                    decision: Decision::MemoHit,
                    target: *target,
                    mask,
                    vars,
                    hash,
                    probe: true,
                    residual: Some(found),
                    local_claim: None,
                    witness: String::new(),
                    chain_depth,
                    steps_at,
                })));
            }
            return Ok(PVal::code(Expr::Call(CallName::from(found), leaves)));
        }

        // Claimed earlier in this very body: reuse its placeholder (the
        // replay resolves both occurrences to the same canonical name,
        // hitting whatever the first claim settled to).
        if let Some(req_idx) = par.local_find(&key, &keys) {
            self.stats.memo_hits += 1;
            let ph = par.requests[req_idx].placeholder;
            let pm = par.par_mod;
            if enabled {
                par.ops.push(ParOp::Event(Box::new(EvTpl {
                    decision: Decision::MemoHit,
                    target: *target,
                    mask,
                    vars,
                    hash,
                    probe: true,
                    residual: None,
                    local_claim: Some(req_idx),
                    witness: String::new(),
                    chain_depth,
                    steps_at,
                })));
            }
            return Ok(PVal::code(Expr::Call(CallName { module: Some(pm), name: ph }, leaves)));
        }

        // A genuinely new request: claim a placeholder.
        let mut free = vec![*target];
        for a in args {
            a.free_fns(&mut free);
        }
        par.call_seq += 1;
        let ph = Ident::new(format!("~c{}x{}", par.worker, par.call_seq));
        let start = self.chain.len().saturating_sub(CHAIN_LIMIT);
        let chain_tail: Vec<QualName> = self.chain[start..].iter().map(|(q, _)| *q).collect();
        let req_idx = par.requests.len();
        par.local_claims.entry(key).or_default().push((keys.clone(), req_idx));
        par.requests.push(ChildRequest {
            key,
            keys,
            target: *target,
            mask,
            vars,
            hash,
            leaf_names,
            free,
            args: args.iter().map(SendPVal::from_pval).collect(),
            placeholder: ph,
            chain_depth,
            steps_at,
            chain: chain_tail,
        });
        par.ops.push(ParOp::Claim { req: req_idx });
        let pm = par.par_mod;
        Ok(PVal::code(Expr::Call(CallName { module: Some(pm), name: ph }, leaves)))
    }

    /// Evaluates one frontier definition in worker mode, returning the
    /// body (with placeholders) plus the replay log.
    pub(crate) fn construct_par(&mut self, item: &ParPending) -> Result<WorkerDef, SpecError> {
        let before = *self.stats();
        if let Some(par) = self.par.as_mut() {
            par.def_start_steps = before.steps;
            // Clear rather than rely on end-of-def takes: a previous
            // definition may have errored out mid-body on this worker.
            par.requests.clear();
            par.ops.clear();
            par.fresh_log.clear();
            par.local_claims.clear();
        }
        let program = self.program;
        let f = program
            .function(&item.target)
            .ok_or(SpecError::UnknownFunction(item.target))?;
        // The frames of a definition that errored out are left behind.
        self.stack.clear();
        self.args.clear();
        let mut next = 0usize;
        self.stack.extend(item.args.iter().map(|a| a.rebuild(&item.formals, &mut next)));
        self.chain.push((item.target, item.hash));
        self.resid_stack.push(item.resid);
        let mut sink = NullSink;
        let result = self
            .eval(&f.body, 0, item.mask, item.target.module, &mut sink)
            .and_then(|v| {
                self.stack.clear();
                self.lift_owned(v, &mut sink)
            });
        self.resid_stack.pop();
        self.chain.pop();
        let body_expr = result?;
        let def = Def::new(item.resid.name, item.formals.clone(), body_expr);
        let d_steps = self.stats.steps - before.steps;
        let d_unfolds = self.stats.unfolds - before.unfolds;
        let d_probes = self.stats.memo_probes - before.memo_probes;
        let d_hits = self.stats.memo_hits - before.memo_hits;
        let Some(par) = self.par.as_mut() else {
            return Err(SpecError::TypeConfusion(
                "construct_par outside worker mode".to_string(),
            ));
        };
        Ok(WorkerDef {
            def,
            requests: std::mem::take(&mut par.requests),
            ops: std::mem::take(&mut par.ops),
            fresh_log: std::mem::take(&mut par.fresh_log),
            d_steps,
            d_unfolds,
            d_probes,
            d_hits,
        })
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn emit_event(
    rec: &Recorder,
    decision: Decision,
    target: QualName,
    mask: BtMask,
    vars: u32,
    hash: u64,
    probe: bool,
    residual: Option<QualName>,
    witness: String,
    parent: QualName,
    chain_depth: u64,
    pending: usize,
    fuel_left: u64,
    specs_left: u64,
) {
    let mut ev = SpecEvent::request(target.to_string(), mask.render(vars));
    ev.decision = decision;
    ev.skeleton_hash = hash;
    ev.probe = probe;
    ev.residual = residual.map(|q| q.to_string()).unwrap_or_default();
    ev.witness = witness;
    ev.parent = parent.to_string();
    ev.chain_depth = chain_depth;
    ev.pending = pending as u64;
    ev.fuel_left = fuel_left;
    ev.specs_left = specs_left;
    rec.spec(ev);
}

/// Renames placeholder call targets (module `~par`) and placeholder
/// fresh identifiers to their canonical replay-assigned names.
fn rename_expr(
    e: &mut Expr,
    calls: &HashMap<Ident, QualName>,
    idents: &HashMap<Ident, Ident>,
    par_mod: ModName,
) {
    match e {
        Expr::Nat(_) | Expr::Bool(_) | Expr::Nil => {}
        Expr::Var(x) => {
            if let Some(n) = idents.get(x) {
                *x = *n;
            }
        }
        Expr::Prim(_, args) => {
            for a in args {
                rename_expr(a, calls, idents, par_mod);
            }
        }
        Expr::If(c, t, f) => {
            rename_expr(c, calls, idents, par_mod);
            rename_expr(t, calls, idents, par_mod);
            rename_expr(f, calls, idents, par_mod);
        }
        Expr::Call(c, args) => {
            if c.module == Some(par_mod) {
                if let Some(q) = calls.get(&c.name) {
                    *c = CallName::from(*q);
                }
            }
            for a in args {
                rename_expr(a, calls, idents, par_mod);
            }
        }
        Expr::Lam(x, b) => {
            if let Some(n) = idents.get(x) {
                *x = *n;
            }
            rename_expr(b, calls, idents, par_mod);
        }
        Expr::App(f, a) => {
            rename_expr(f, calls, idents, par_mod);
            rename_expr(a, calls, idents, par_mod);
        }
        Expr::Let(x, r, b) => {
            if let Some(n) = idents.get(x) {
                *x = *n;
            }
            rename_expr(r, calls, idents, par_mod);
            rename_expr(b, calls, idents, par_mod);
        }
    }
}

fn request_budget_error(resource: BudgetResource, r: &mut ChildRequest) -> SpecError {
    SpecError::BudgetExhausted {
        resource,
        witness: r.target,
        skeleton_hash: r.hash,
        chain: std::mem::take(&mut r.chain),
    }
}

/// Replays one worker-evaluated definition on the driver thread: claim
/// resolution, canonical naming/placement/gensyms, statistics, budget
/// checks, telemetry and emission — in exact sequential order.
#[allow(clippy::too_many_arguments)]
fn replay_def(
    eng: &mut Engine<'_>,
    wd: WorkerDef,
    target: QualName,
    hash: u64,
    resid: QualName,
    shared: &SharedMemo,
    vpending: &mut usize,
    next: &mut Vec<ParPending>,
    sink: &mut dyn ModuleSink,
    par_mod: ModName,
) -> Result<(), SpecError> {
    let enabled = eng.recorder.is_enabled();
    let b = eng.options.budget;
    eng.stats.peak_open = eng.stats.peak_open.max(1);
    // Sequential `construct` checks `open > max_pending` before pushing
    // the chain frame; breadth-first `open` is always exactly 1 here.
    if 1 > b.max_pending {
        return Err(eng.budget_error(BudgetResource::Pending, Some((target, hash))));
    }
    eng.chain.push((target, hash));
    eng.resid_stack.push(resid);
    let base_steps = eng.stats.steps;
    eng.stats.steps += wd.d_steps;
    eng.stats.unfolds += wd.d_unfolds;
    eng.stats.memo_probes += wd.d_probes;
    eng.stats.memo_hits += wd.d_hits;
    let program = eng.program;
    let mut requests = wd.requests;
    let mut rename_calls: HashMap<Ident, QualName> = HashMap::new();
    for op in wd.ops {
        match op {
            ParOp::Claim { req } => {
                let r = &mut requests[req];
                if let Some(found) = shared.find(&r.key, &r.keys) {
                    // Another definition earlier in breadth-first order
                    // got there first: the sequential run would have
                    // hit the memo here.
                    eng.stats.memo_hits += 1;
                    rename_calls.insert(r.placeholder, found);
                    if enabled {
                        emit_event(
                            &eng.recorder,
                            Decision::MemoHit,
                            r.target,
                            r.mask,
                            r.vars,
                            r.hash,
                            true,
                            Some(found),
                            String::new(),
                            resid,
                            r.chain_depth,
                            *vpending,
                            b.steps.saturating_sub(base_steps + r.steps_at),
                            b.max_specialisations.saturating_sub(eng.provenance.len()) as u64,
                        );
                    }
                } else {
                    if eng.provenance.len() >= b.max_specialisations {
                        return Err(request_budget_error(BudgetResource::Specialisations, r));
                    }
                    let counter = eng.name_counters.entry(r.target).or_insert(0);
                    *counter += 1;
                    let name = Ident::new(format!("{}_{}", r.target.name, counter));
                    let module = eng.placer.place(&r.free, program.graph());
                    let new_resid = QualName { module, name };
                    shared.insert(r.key, r.keys.clone(), new_resid);
                    let formals = uniquify(std::mem::take(&mut r.leaf_names));
                    eng.provenance.push(Provenance {
                        source: r.target,
                        mask: r.mask,
                        vars: r.vars,
                        residual: new_resid,
                        formals: formals.len(),
                    });
                    if enabled {
                        let witness = match program.function(&r.target) {
                            Some(f) => format!(
                                "unfold term {} = D under {}",
                                f.sig.unfold,
                                r.mask.render(r.vars)
                            ),
                            None => String::new(),
                        };
                        emit_event(
                            &eng.recorder,
                            Decision::Residualise,
                            r.target,
                            r.mask,
                            r.vars,
                            r.hash,
                            true,
                            Some(new_resid),
                            witness,
                            resid,
                            r.chain_depth,
                            *vpending,
                            b.steps.saturating_sub(base_steps + r.steps_at),
                            b.max_specialisations.saturating_sub(eng.provenance.len()) as u64,
                        );
                    }
                    if *vpending >= b.max_pending {
                        return Err(request_budget_error(BudgetResource::Pending, r));
                    }
                    *vpending += 1;
                    eng.stats.peak_pending = eng.stats.peak_pending.max(*vpending);
                    eng.recorder.observe("genext.pending_depth", *vpending as u64);
                    rename_calls.insert(r.placeholder, new_resid);
                    next.push(ParPending {
                        target: r.target,
                        mask: r.mask,
                        resid: new_resid,
                        formals,
                        args: std::mem::take(&mut r.args),
                        hash: r.hash,
                    });
                }
            }
            ParOp::Event(tpl) => {
                if !enabled {
                    continue;
                }
                let residual = match tpl.residual {
                    Some(q) => Some(q),
                    None => tpl
                        .local_claim
                        .and_then(|i| rename_calls.get(&requests[i].placeholder).copied()),
                };
                emit_event(
                    &eng.recorder,
                    tpl.decision,
                    tpl.target,
                    tpl.mask,
                    tpl.vars,
                    tpl.hash,
                    tpl.probe,
                    residual,
                    tpl.witness,
                    resid,
                    tpl.chain_depth,
                    *vpending,
                    b.steps.saturating_sub(base_steps + tpl.steps_at),
                    b.max_specialisations.saturating_sub(eng.provenance.len()) as u64,
                );
            }
        }
    }
    // Canonical gensyms in the worker's generation order (which is the
    // sequential evaluation order of this body).
    let mut rename_idents: HashMap<Ident, Ident> = HashMap::new();
    for (ph, base) in wd.fresh_log {
        eng.gensym += 1;
        rename_idents.insert(ph, Ident::new(format!("{base}'{}", eng.gensym)));
    }
    let mut def = wd.def;
    if !(rename_calls.is_empty() && rename_idents.is_empty()) {
        rename_expr(&mut def.body, &rename_calls, &rename_idents, par_mod);
    }
    eng.stats.specialisations += 1;
    eng.stats.residual_nodes += def.body.size();
    if eng.stats.residual_nodes > b.max_residual_nodes {
        return Err(eng.budget_error(BudgetResource::ResidualNodes, Some((target, hash))));
    }
    let imports = eng.imports.entry(resid.module).or_default();
    for q in def.body.called_functions() {
        if q.module != resid.module {
            imports.insert(q.module);
        }
    }
    sink.emit(&resid.module, &def)?;
    eng.stats.residual_modules = eng.imports.len();
    eng.resid_stack.pop();
    eng.chain.pop();
    Ok(())
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Everything a threaded specialisation session produced besides the
/// emitted definitions themselves.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The residual entry function.
    pub entry: QualName,
    /// Session counters (identical to the sequential engine's).
    pub stats: SpecStats,
    /// Per-definition provenance, in creation (breadth-first) order.
    pub provenance: Vec<Provenance>,
    /// Residual-module import sets (for two-pass file emission).
    pub imports: BTreeMap<ModName, BTreeSet<ModName>>,
}

/// Specialises `entry` on `threads` worker threads, streaming finished
/// definitions to `sink` in breadth-first order. Residual output is
/// byte-identical to [`Engine::specialise_streaming`] at every thread
/// count.
///
/// Falls back to the sequential engine in-process when the options
/// demand orderings the round-based driver does not reproduce
/// (depth-first strategy, generalising fallback) —
/// and when `threads` is 1: a single synchronous worker consuming the
/// frontier in breadth-first order *is* the sequential engine, so the
/// placeholder/replay decomposition would only add overhead. Routing
/// the degenerate case there keeps `--threads 1` within noise of the
/// sequential path (the `par_table` bench's acceptance row).
///
/// # Errors
///
/// Any [`SpecError`]. Which definition a *budget* breach is attributed
/// to can differ from the sequential run when `threads > 1` (fuel is
/// consumed concurrently, and workers hold unspent chunks across
/// rounds); all other errors, and all successful runs, are
/// deterministic.
pub fn specialise_streaming_threaded(
    program: &GenProgram,
    entry: &QualName,
    args: Vec<SpecArg>,
    options: EngineOptions,
    threads: NonZeroUsize,
    recorder: Recorder,
    sink: &mut dyn ModuleSink,
) -> Result<ParallelOutcome, SpecError> {
    let parallelisable = threads.get() > 1
        && options.strategy == Strategy::BreadthFirst
        && options.on_exhaustion == OnExhaustion::Error;
    if !parallelisable {
        let mut eng = Engine::with_recorder(program, options, recorder);
        let resid = eng.specialise_streaming(entry, args, sink)?;
        return Ok(ParallelOutcome {
            entry: resid,
            stats: *eng.stats(),
            provenance: eng.provenance().to_vec(),
            imports: eng.residual_imports().clone(),
        });
    }

    // The replay engine: owns the canonical naming state (name counters,
    // gensym, placer), provenance, imports and statistics. Its own memo,
    // pending list and fuel meter stay untouched — the shared memo and
    // fuel pool replace them.
    let mut eng = Engine::with_recorder(program, options, recorder.clone());
    let f = program.function(entry).ok_or(SpecError::UnknownEntry(*entry))?;
    let (mask, vals) = entry_values(f, entry, &args)?;
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
    let module = eng.placer.place(&free, program.graph());
    let resid = QualName { module, name: entry.name };
    let entry_resid = resid;

    let shared = Arc::new(SharedMemo::new());
    shared.insert(SpecKey { target: *entry, mask: mask.0, hash }, keys, resid);
    eng.provenance.push(Provenance {
        source: *entry,
        mask,
        vars: f.sig.vars,
        residual: resid,
        formals: formals.len(),
    });
    eng.record_decision(
        Decision::Entry,
        entry,
        mask,
        f.sig.vars,
        hash,
        false,
        Some(&resid),
        String::new(),
    );

    let pool = Arc::new(FuelPool::new(options.budget.steps));
    let par_mod = ModName::new(PAR_MOD);
    let mut frontier: Vec<ParPending> = vec![ParPending {
        target: *entry,
        mask,
        resid,
        formals,
        args: vals.iter().map(SendPVal::from_pval).collect(),
        hash,
    }];
    let mut vpending: usize = 0;
    let mut entry_def = true;
    let mut sched_tasks = 0u64;
    let mut sched_steals = 0u64;
    let mut sched_idle_parks = 0u64;

    // One scheduler session for the whole specialisation: the worker
    // threads *and* their engines are built once and reused round after
    // round. (Spawning threads and constructing engines per round made a
    // deep, narrow frontier — one definition per round — pay the setup
    // cost once per definition.) Worker engines survive rounds safely:
    // `construct_par` clears every per-definition buffer at entry and
    // the placeholder counters are monotone per worker.
    let eng = &mut eng;
    let frontier = &mut frontier;
    mspec_sched::run_rounds(
        threads,
        |worker| {
            let mut w = Engine::with_recorder(program, options, recorder.clone());
            w.par = Some(Box::new(ParCtx::new(
                Arc::clone(&shared),
                Arc::clone(&pool),
                worker,
                par_mod,
            )));
            w
        },
        |w: &mut Engine<'_>,
         (idx, item): (usize, ParPending),
         _h: &mspec_sched::WorkerHandle<'_, (usize, ParPending)>| {
            (idx, w.construct_par(&item))
        },
        |round| -> Result<(), SpecError> {
            while !frontier.is_empty() {
                let meta: Vec<(QualName, u64, QualName)> =
                    frontier.iter().map(|it| (it.target, it.hash, it.resid)).collect();
                let mut seeds: Vec<(usize, ParPending)> =
                    frontier.drain(..).enumerate().collect();
                // Workers pop their own deque from the back: reversing
                // the seed order makes a worker that drains the round
                // alone consume it in breadth-first order, matching the
                // sequential engine's fuel-spending order.
                seeds.reverse();
                let outcome = round(seeds);
                sched_tasks += outcome.stats.tasks;
                sched_steals += outcome.stats.steals;
                sched_idle_parks += outcome.stats.idle_parks;
                let mut results = outcome.results;
                results.sort_by_key(|(i, _)| *i);
                let mut next: Vec<ParPending> = Vec::new();
                for (idx, r) in results {
                    if entry_def {
                        // The entry was never on the pending list.
                        entry_def = false;
                    } else {
                        vpending -= 1;
                    }
                    let wd = r?;
                    let (target, hash, resid) = meta[idx];
                    replay_def(
                        eng,
                        wd,
                        target,
                        hash,
                        resid,
                        &shared,
                        &mut vpending,
                        &mut next,
                        sink,
                        par_mod,
                    )?;
                }
                *frontier = next;
            }
            Ok(())
        },
    )?;

    eng.flush_counters();
    if recorder.is_enabled() {
        recorder.count("sched.tasks", sched_tasks);
        recorder.count("sched.steals", sched_steals);
        recorder.count("sched.idle_parks", sched_idle_parks);
    }
    Ok(ParallelOutcome {
        entry: entry_resid,
        stats: *eng.stats(),
        provenance: eng.provenance().to_vec(),
        imports: eng.residual_imports().clone(),
    })
}

/// [`specialise_streaming_threaded`] into an in-memory sink, returning
/// the assembled residual program.
///
/// # Errors
///
/// Any [`SpecError`].
pub fn specialise_threaded(
    program: &GenProgram,
    entry: &QualName,
    args: Vec<SpecArg>,
    options: EngineOptions,
    threads: NonZeroUsize,
    recorder: Recorder,
) -> Result<(ResidualProgram, ParallelOutcome), SpecError> {
    let mut sink = MemorySink::new();
    let out =
        specialise_streaming_threaded(program, entry, args, options, threads, recorder, &mut sink)?;
    let residual = assemble(sink.into_modules(), out.entry)?;
    Ok((residual, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuel_pool_claims_exactly_budget() {
        let pool = FuelPool::new(10_000);
        let mut total = 0;
        loop {
            let got = pool.claim(FUEL_CHUNK);
            if got == 0 {
                break;
            }
            total += got;
        }
        assert_eq!(total, 10_000);
        pool.refund(123);
        assert_eq!(pool.claim(FUEL_CHUNK), 123);
    }

    #[test]
    fn shared_memo_collision_checks_skeletons() {
        let memo = SharedMemo::new();
        let key = SpecKey { target: QualName::new("M", "f"), mask: 0, hash: 42 };
        let k1 = vec![PKey::Nat(1)];
        let k2 = vec![PKey::Nat(2)];
        memo.insert(key, k1.clone(), QualName::new("S", "f_1"));
        assert_eq!(memo.find(&key, &k1), Some(QualName::new("S", "f_1")));
        assert_eq!(memo.find(&key, &k2), None);
        memo.insert(key, k2.clone(), QualName::new("S", "f_2"));
        assert_eq!(memo.find(&key, &k2), Some(QualName::new("S", "f_2")));
    }

    #[test]
    fn send_pval_rebuild_matches_sequential_rebuild() {
        let v = PVal::cons(
            PVal::code(Expr::Nat(7)),
            PVal::cons(PVal::Nat(3), PVal::code(Expr::Nil)),
        );
        let names = vec![Ident::new("a"), Ident::new("b")];
        let mut n1 = 0;
        let seq = crate::value::rebuild(&v, &names, &mut n1);
        let mut n2 = 0;
        let par = SendPVal::from_pval(&v).rebuild(&names, &mut n2);
        assert_eq!(n1, n2);
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn rename_expr_rewrites_placeholders_only() {
        let par_mod = ModName::new(PAR_MOD);
        let ph = Ident::new("~c0x1");
        let fresh_ph = Ident::new("~g0x1");
        let mut e = Expr::Lam(
            fresh_ph,
            Box::new(Expr::Call(
                CallName { module: Some(par_mod), name: ph },
                vec![Expr::Var(fresh_ph), Expr::Call(CallName::resolved("M", "g"), vec![])],
            )),
        );
        let mut calls = HashMap::new();
        calls.insert(ph, QualName::new("S", "f_1"));
        let mut idents = HashMap::new();
        idents.insert(fresh_ph, Ident::new("x'1"));
        rename_expr(&mut e, &calls, &idents, par_mod);
        match &e {
            Expr::Lam(x, b) => {
                assert_eq!(x.as_str(), "x'1");
                match &**b {
                    Expr::Call(c, args) => {
                        assert_eq!(c.module, Some(ModName::new("S")));
                        assert_eq!(c.name.as_str(), "f_1");
                        assert!(matches!(&args[0], Expr::Var(v) if v.as_str() == "x'1"));
                        assert!(
                            matches!(&args[1], Expr::Call(c2, _) if c2.name.as_str() == "g")
                        );
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
