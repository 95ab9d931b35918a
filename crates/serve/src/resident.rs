//! Resident state: what stays warm between requests.
//!
//! The paper's economics are "build the generating extension once,
//! specialise many times" — a daemon realises them only if the built
//! artefacts actually survive between requests. Three caches do:
//!
//! * **programs** — inline source parsed, resolved and built by the
//!   front end every path shares ([`mspec_cogen::build_program`]: per
//!   module typecheck → BTA → cogen, then link), keyed by the FNV-1a
//!   hash of the source text;
//! * **artefact sets** — `.gx` directories linked with
//!   [`mspec_cogen::link_dir`], keyed by directory path and
//!   *revalidated on every reuse* against the directory's
//!   [`dir_identity`] taken when it was linked: a rewritten, added or
//!   removed `.bti` or `.gx` forces a re-link (which itself re-checks
//!   the genexts and can fail `stale-interface`), so the daemon never
//!   serves residual code from artefacts that have since changed on
//!   disk;
//! * **memo** — finished specialisations keyed by
//!   (program *identity*, entry, args, budget, strategy), so a repeated
//!   request is answered without running the engine at all
//!   (`memo_hit: true` in the reply). The identity component is the
//!   source hash for inline programs and the [`dir_identity`] for
//!   artefact directories — and the memo is consulted only *after* the
//!   program loads and revalidates, so an artefact change on disk
//!   invalidates memoised residuals exactly when it forces a re-link;
//! * **compiled residuals** — for `run` requests, the residual's
//!   bytecode (optionally superinstruction-fused, see
//!   [`mspec_lang::fuse`]), keyed by `(vm-opt, memo key)`. A warm `run`
//!   request therefore skips parse, resolve, compile *and* fusion and
//!   goes straight to VM dispatch; and because the key embeds the memo
//!   identity, compiled code is invalidated exactly when the memoised
//!   residual is.
//!
//! Each cache is **bounded** ([`ResidentOptions::memo_cap`], the
//! `--memo-cap` knob): past the cap the oldest-inserted entry is
//! evicted (counted in `serve.cache.evictions`), so a daemon fed an
//! endless stream of distinct requests holds steady instead of growing
//! without bound. Below the in-memory tiers sits an optional
//! **persistent disk cache** ([`mspec_cache::DiskCache`], the
//! `--cache-dir` knob): memo misses probe it and finished residuals are
//! stored to it, so a *restarted* daemon — or a CLI run sharing the
//! directory — answers warm (`memo_hit: true`) without running the
//! engine. Keys are derived in `mspec-cache` (identical to the memo's),
//! so staleness is the same story: the key embeds the directory
//! identity, and entries for superseded artefacts are simply
//! unreachable.

use crate::proto::{parse_division, parse_values, ErrorClass, ErrorInfo, RunRequest, SpecRequest};
use mspec_cache::{
    dir_identity, dir_source_key, inline_source_key, spec_key, CacheEntry, DiskCache,
};
use mspec_cogen::{build_program, fnv64, link_dir, CogenError};
use mspec_genext::{
    CancelToken, Engine, EngineOptions, GenProgram, SpecBudget, SpecError, SpecStats,
};
use mspec_lang::ast::QualName;
use mspec_lang::bytecode::{compile as compile_bytecode, BcProgram};
use mspec_lang::eval::{EvalError, DEFAULT_FUEL};
use mspec_lang::fuse::fuse;
use mspec_lang::parser::parse_program;
use mspec_lang::pretty::pretty_program;
use mspec_lang::resolve::resolve;
use mspec_lang::vm::{Vm, VmOpt};
use mspec_telemetry::Recorder;
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// A successfully executed (or memoised) specialisation.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// Residual entry function, `Module.function`.
    pub entry: String,
    /// Residual program concrete syntax (byte-identical to the
    /// sequential CLI path: both are [`pretty_program`] of the engine's
    /// residual). Rendered exactly once, when the engine run finishes;
    /// shared behind an `Arc` so a memo hit costs a refcount bump, not
    /// a copy of the source text.
    pub residual: Arc<str>,
    /// Engine counters (the original run's, for a memo hit).
    pub stats: SpecStats,
    /// Whether the cross-request memo answered.
    pub memo_hit: bool,
}

/// A successfully executed residual run (`run` requests).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Residual entry function, `Module.function`.
    pub entry: String,
    /// The computed value, rendered with `Value`'s `Display`.
    pub value: String,
    /// Whether the specialisation was answered by the memo.
    pub memo_hit: bool,
    /// Whether the compiled bytecode was answered by the resident
    /// compiled-program cache.
    pub compiled_hit: bool,
    /// Fuel-charging VM instructions the run executed.
    pub instructions: u64,
    /// The specialisation stage's engine counters (the original run's,
    /// for a memo hit) — not on the wire, but the server refunds unused
    /// admission fuel from them exactly as for `spec` replies.
    pub spec_stats: SpecStats,
}

/// A residual compiled to (optionally fused) bytecode, resident across
/// requests. Keyed by the same memo identity as the specialisation that
/// produced it, so a `.bti` change invalidates residual *executions*
/// exactly when it invalidates residual *source*.
struct CompiledResidual {
    entry: QualName,
    bc: Arc<BcProgram>,
}

/// A linked artefact directory plus its identity when it was linked.
struct ArtefactSet {
    gen: Arc<GenProgram>,
    /// The directory's [`dir_identity`], taken just before linking —
    /// the set's identity in memo keys, so a re-link against changed
    /// artefacts orphans the old entries.
    identity: u64,
}

/// Counters describing cache behaviour, surfaced via `stats` replies.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResidentStats {
    /// Inline programs compiled (cache misses).
    pub programs_built: u64,
    /// Inline-program cache hits.
    pub program_hits: u64,
    /// Artefact directories (re)linked.
    pub artefact_links: u64,
    /// Artefact reuses whose directory identity revalidated clean.
    pub artefact_revalidations: u64,
    /// Cross-request memo hits.
    pub memo_hits: u64,
    /// Residuals compiled to bytecode (`run` cache misses).
    pub residuals_compiled: u64,
    /// Compiled-residual cache hits (`run` requests that skipped
    /// straight to dispatch).
    pub compiled_hits: u64,
    /// Entries evicted from any resident cache at its `--memo-cap`.
    pub evictions: u64,
    /// Specialisations answered by the on-disk residual cache
    /// (`--cache-dir`) — warm-restart memo hits.
    pub disk_hits: u64,
    /// Finished residuals persisted to the on-disk cache.
    pub disk_stores: u64,
}

/// A FIFO-bounded map: at most `cap` live entries, oldest-inserted
/// evicted first. Re-inserting an existing key refreshes its value but
/// not its age; `remove`/`retain` leave stale order slots behind, which
/// the eviction loop skips (each is visited at most once, so the order
/// queue cannot grow past inserts).
struct Bounded<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V> Bounded<K, V> {
    fn new(cap: usize) -> Bounded<K, V> {
        Bounded { map: HashMap::new(), order: VecDeque::new(), cap: cap.max(1) }
    }

    fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(k)
    }

    /// Inserts, evicting oldest entries past the cap. Returns how many
    /// entries were evicted (0 or 1 in steady state).
    fn insert(&mut self, k: K, v: V) -> u64 {
        if self.map.insert(k.clone(), v).is_none() {
            self.order.push_back(k);
        }
        let mut evicted = 0;
        while self.map.len() > self.cap {
            let Some(old) = self.order.pop_front() else { break };
            if self.map.remove(&old).is_some() {
                evicted += 1;
            }
        }
        evicted
    }

    fn remove<Q>(&mut self, k: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.remove(k)
    }

    fn retain(&mut self, f: impl FnMut(&K, &mut V) -> bool) {
        self.map.retain(f);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// Construction options for [`Resident`].
#[derive(Debug, Clone)]
pub struct ResidentOptions {
    /// Entry cap applied to each resident cache (programs, artefact
    /// sets, memo, compiled residuals); oldest entries are evicted
    /// first. The `--memo-cap` serve knob.
    pub memo_cap: usize,
    /// Optional persistent residual cache (`--cache-dir`): memo misses
    /// probe it, finished specialisations are stored to it, so a
    /// restarted daemon pointed at the same directory answers warm.
    pub disk: Option<DiskCache>,
}

impl Default for ResidentOptions {
    fn default() -> ResidentOptions {
        ResidentOptions { memo_cap: 1024, disk: None }
    }
}

/// The resident cache shared by all workers.
pub struct Resident {
    programs: Mutex<Bounded<u64, Arc<GenProgram>>>,
    artefacts: Mutex<Bounded<String, Arc<ArtefactSet>>>,
    memo: Mutex<Bounded<String, SpecOutcome>>,
    compiled: Mutex<Bounded<String, Arc<CompiledResidual>>>,
    disk: Option<DiskCache>,
    stats: Mutex<ResidentStats>,
}

impl Default for Resident {
    fn default() -> Resident {
        Resident::new()
    }
}

impl Resident {
    /// An empty cache with default options.
    pub fn new() -> Resident {
        Resident::with_options(ResidentOptions::default())
    }

    /// An empty cache with an explicit entry cap and optional
    /// persistent disk tier.
    pub fn with_options(opts: ResidentOptions) -> Resident {
        Resident {
            programs: Mutex::new(Bounded::new(opts.memo_cap)),
            artefacts: Mutex::new(Bounded::new(opts.memo_cap)),
            memo: Mutex::new(Bounded::new(opts.memo_cap)),
            compiled: Mutex::new(Bounded::new(opts.memo_cap)),
            disk: opts.disk,
            stats: Mutex::new(ResidentStats::default()),
        }
    }

    fn note_evictions(&self, n: u64, rec: &Recorder) {
        if n > 0 {
            lock(&self.stats).evictions += n;
            rec.count("serve.cache.evictions", n);
        }
    }

    /// Cache-behaviour counters.
    pub fn stats(&self) -> ResidentStats {
        *lock(&self.stats)
    }

    /// Current entry counts of each resident cache tier, in a fixed
    /// order: `(programs, artefact sets, memo, compiled residuals)`.
    /// Cheap (four lock/len pairs) — health and metrics replies call
    /// this on the connection thread.
    pub fn cache_sizes(&self) -> (usize, usize, usize, usize) {
        (
            lock(&self.programs).map.len(),
            lock(&self.artefacts).map.len(),
            lock(&self.memo).map.len(),
            lock(&self.compiled).map.len(),
        )
    }

    /// Executes one specialisation request against the resident caches.
    /// `cancel` is polled by the engine every
    /// [`CancelToken::CHECK_MASK`]`+1` steps — the request's deadline
    /// rides in it.
    ///
    /// # Errors
    ///
    /// A typed [`ErrorInfo`] for every failure mode; `deadline` and
    /// `budget` errors carry the partial-progress engine counters.
    pub fn execute_spec(
        &self,
        req: &SpecRequest,
        cancel: CancelToken,
        rec: &Recorder,
    ) -> Result<SpecOutcome, ErrorInfo> {
        self.execute_spec_keyed(req, cancel, rec).map(|(outcome, _)| outcome)
    }

    /// [`Resident::execute_spec`] plus the memo key the outcome was
    /// stored (or found) under — the identity the compiled-residual
    /// cache reuses so residual *executions* are invalidated exactly
    /// when residual *source* is.
    fn execute_spec_keyed(
        &self,
        req: &SpecRequest,
        cancel: CancelToken,
        rec: &Recorder,
    ) -> Result<(SpecOutcome, String), ErrorInfo> {
        let args = parse_division(&req.args)
            .map_err(|e| ErrorInfo::new(ErrorClass::BadRequest, format!("bad args: {e}")))?;
        // Load (and for artefact dirs, revalidate) *before* the memo
        // lookup: the memo key carries the loaded program's identity,
        // so a stale memo entry can never shadow a changed artefact.
        let (gen, source_key) = self.load_program(req, rec)?;
        let memo_key = memo_key(req, &source_key);
        if let Some(hit) = lock(&self.memo).get(memo_key.as_str()) {
            lock(&self.stats).memo_hits += 1;
            // `residual` is an `Arc<str>`: this clone is a refcount
            // bump, not a copy of the rendered source.
            let outcome = SpecOutcome { memo_hit: true, ..hit.clone() };
            return Ok((outcome, memo_key));
        }
        // Persistent tier: a finished residual stored by an earlier
        // process (CLI run or pre-restart daemon) under the same key.
        // Safe to serve for the same reason the memo is — the program
        // already loaded and revalidated above, and the key embeds its
        // identity. Corrupt or torn entries read as `None` (a miss) and
        // are rewritten below.
        if let Some(disk) = &self.disk {
            if let Some(hit) = disk.get(&memo_key) {
                let outcome = SpecOutcome {
                    entry: hit.entry,
                    residual: hit.residual.into(),
                    stats: hit.stats,
                    memo_hit: false,
                };
                let evicted = lock(&self.memo).insert(memo_key.clone(), outcome.clone());
                self.note_evictions(evicted, rec);
                lock(&self.stats).disk_hits += 1;
                rec.count("serve.cache.disk_hits", 1);
                return Ok((SpecOutcome { memo_hit: true, ..outcome }, memo_key));
            }
        }

        let (module, function) = req.entry.split_once('.').ok_or_else(|| {
            ErrorInfo::new(
                ErrorClass::BadRequest,
                format!("entry `{}` is not of the form Module.function", req.entry),
            )
        })?;
        let entry = QualName::new(module, function);
        if gen.function(&entry).is_none() {
            return Err(ErrorInfo::new(
                ErrorClass::NoSuchEntry,
                format!("no function `{}` in the program", req.entry),
            ));
        }

        let mut budget = SpecBudget::default();
        if let Some(fuel) = req.fuel {
            budget.steps = fuel;
        }
        if let Some(m) = req.max_spec {
            budget.max_specialisations = m;
        }
        let options =
            EngineOptions { strategy: req.strategy, budget, on_exhaustion: req.on_exhaustion };

        let mut engine = Engine::with_recorder(&gen, options, rec.clone());
        engine.set_cancel_token(cancel);
        match engine.specialise(&entry, args) {
            Ok(residual) => {
                let outcome = SpecOutcome {
                    entry: format!("{}", residual.entry),
                    residual: pretty_program(&residual.program).into(),
                    stats: *engine.stats(),
                    memo_hit: false,
                };
                let evicted = lock(&self.memo).insert(memo_key.clone(), outcome.clone());
                self.note_evictions(evicted, rec);
                if let Some(disk) = &self.disk {
                    let entry = CacheEntry {
                        key: memo_key.clone(),
                        entry: outcome.entry.clone(),
                        residual: outcome.residual.to_string(),
                        stats: outcome.stats,
                    };
                    // A failed store is not a request failure: the
                    // cache is an accelerator, the residual is in hand.
                    if disk.put(&entry).is_ok() {
                        lock(&self.stats).disk_stores += 1;
                        rec.count("serve.cache.disk_stores", 1);
                    }
                }
                Ok((outcome, memo_key))
            }
            Err(e) => Err(spec_error_info(e, *engine.stats())),
        }
    }

    /// Executes a `run` request: specialise (through the memo), compile
    /// the residual to bytecode (through the compiled-residual cache),
    /// then run it on the VM. With [`VmOpt::Fuse`] the bytecode goes
    /// through the superinstruction pass before caching, so every warm
    /// request skips straight to fused dispatch.
    ///
    /// The VM has no cancellation hook; the run itself is bounded by
    /// its fuel budget (`run_fuel`, default [`DEFAULT_FUEL`]) rather
    /// than by `cancel`, which covers the specialisation stage only.
    ///
    /// # Errors
    ///
    /// Everything [`Resident::execute_spec`] can fail with, plus
    /// `bad-request` for malformed values or a residual evaluation
    /// error and `budget` when the run exhausts its fuel.
    pub fn execute_run(
        &self,
        req: &RunRequest,
        cancel: CancelToken,
        rec: &Recorder,
        opt: VmOpt,
    ) -> Result<RunOutcome, ErrorInfo> {
        let values = parse_values(&req.values)
            .map_err(|e| ErrorInfo::new(ErrorClass::BadRequest, format!("bad values: {e}")))?;
        let (outcome, memo_key) = self.execute_spec_keyed(&req.spec, cancel, rec)?;
        // Unfused and fused programs are distinct residents: a daemon
        // restarted with another `--vm-opt` must not serve stale tiers.
        let compiled_key = format!("{}|{memo_key}", opt.name());
        let cached = lock(&self.compiled).get(compiled_key.as_str()).cloned();
        let (compiled, compiled_hit) = match cached {
            Some(c) => {
                lock(&self.stats).compiled_hits += 1;
                rec.count("serve.run.compiled_hits", 1);
                (c, true)
            }
            None => {
                let c = {
                    let _span = rec.span("serve.run.compile");
                    Arc::new(compile_residual(&outcome, opt, rec)?)
                };
                lock(&self.stats).residuals_compiled += 1;
                let evicted = lock(&self.compiled).insert(compiled_key, Arc::clone(&c));
                self.note_evictions(evicted, rec);
                (c, false)
            }
        };
        let fuel = req.run_fuel.unwrap_or(DEFAULT_FUEL);
        let mut vm = Vm::with_fuel(&compiled.bc, fuel);
        match vm.call(&compiled.entry, values) {
            Ok(v) => Ok(RunOutcome {
                entry: outcome.entry.clone(),
                value: format!("{v}"),
                memo_hit: outcome.memo_hit,
                compiled_hit,
                instructions: vm.stats().instructions,
                spec_stats: outcome.stats,
            }),
            Err(EvalError::FuelExhausted) => Err(ErrorInfo::new(
                ErrorClass::Budget,
                format!("residual run exhausted its fuel budget of {fuel}"),
            )),
            Err(e) => Err(ErrorInfo::new(
                ErrorClass::BadRequest,
                format!("residual run failed: {e}"),
            )),
        }
    }

    /// Evicts everything (used by tests to measure cold-path cost).
    pub fn clear(&self) {
        lock(&self.programs).clear();
        lock(&self.artefacts).clear();
        lock(&self.memo).clear();
        lock(&self.compiled).clear();
    }

    /// Loads the requested program and returns it together with its
    /// memo identity: `src:<hash>` for inline source, `dir:<path>@<id>`
    /// for artefact directories (where `<id>` is the [`dir_identity`]
    /// the set was linked under).
    fn load_program(
        &self,
        req: &SpecRequest,
        rec: &Recorder,
    ) -> Result<(Arc<GenProgram>, String), ErrorInfo> {
        if let Some(src) = &req.program {
            let gen = self.load_inline(src, rec)?;
            return Ok((gen, inline_source_key(src)));
        }
        if let Some(dir) = &req.dir {
            return self.load_artefacts(dir, rec);
        }
        Err(ErrorInfo::new(
            ErrorClass::BadRequest,
            "spec needs exactly one of `program` or `dir`",
        ))
    }

    fn load_inline(&self, src: &str, rec: &Recorder) -> Result<Arc<GenProgram>, ErrorInfo> {
        let key = fnv64(src.as_bytes());
        if let Some(gen) = lock(&self.programs).get(&key) {
            lock(&self.stats).program_hits += 1;
            return Ok(Arc::clone(gen));
        }
        let _span = rec.span("serve.compile");
        let resolved = parse_program(src)
            .and_then(resolve)
            .map_err(|e| ErrorInfo::new(ErrorClass::Compile, e.to_string()))?;
        let (_, _, gen) = build_program(&resolved, &BTreeSet::new(), rec).map_err(|report| {
            // A panic in the front end is the daemon's fault, not the
            // program's: re-raise it, so the request's containment
            // answers `internal` and writes a crash dump.
            for (_, e) in report.failed() {
                if let CogenError::Panicked(msg) = e {
                    std::panic::resume_unwind(Box::new(msg.clone()));
                }
            }
            ErrorInfo::new(ErrorClass::Compile, report.to_string())
        })?;
        let gen = Arc::new(gen);
        lock(&self.stats).programs_built += 1;
        let evicted = lock(&self.programs).insert(key, Arc::clone(&gen));
        self.note_evictions(evicted, rec);
        Ok(gen)
    }

    fn load_artefacts(
        &self,
        dir: &str,
        rec: &Recorder,
    ) -> Result<(Arc<GenProgram>, String), ErrorInfo> {
        // The identity is taken before `link_dir`, and serves both to
        // revalidate a resident set and to key a fresh one. Were it
        // taken after linking, a rebuild landing in between would file
        // residuals of the old genexts under the new identity, in the
        // memo and on disk, and serve them for as long as the
        // directory stays unchanged. Taken before, such residuals sit
        // under the identity the directory has just left, and the next
        // request re-links.
        let identity = dir_identity(dir);
        // Bind the cached set outside the `if let`: a guard temporary
        // in the scrutinee would stay locked for the whole block and
        // self-deadlock on the `remove` below.
        let cached = lock(&self.artefacts).get(dir).cloned();
        if let Some(set) = cached {
            if set.identity == identity {
                lock(&self.stats).artefact_revalidations += 1;
                return Ok((Arc::clone(&set.gen), dir_source_key(dir, identity)));
            }
            // An artefact changed underneath us: drop and re-link, and
            // purge memoised residuals for every earlier version of
            // this directory (their keys can never match again, so
            // keeping them would only leak).
            lock(&self.artefacts).remove(dir);
            let stale_prefix = format!("dir:{dir}@");
            lock(&self.memo).retain(|k, _| !k.starts_with(&stale_prefix));
        }
        let gen = link_dir(dir).map_err(cogen_error_info)?;
        let set = Arc::new(ArtefactSet { gen: Arc::new(gen), identity });
        lock(&self.stats).artefact_links += 1;
        let evicted = lock(&self.artefacts).insert(dir.to_string(), Arc::clone(&set));
        self.note_evictions(evicted, rec);
        Ok((Arc::clone(&set.gen), dir_source_key(dir, identity)))
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The memo key of one request, derived in `mspec-cache` so the CLI's
/// persistent cache and the daemon's memo address the same entries.
fn memo_key(req: &SpecRequest, source: &str) -> String {
    spec_key(
        source,
        &req.entry,
        &req.args,
        req.fuel,
        req.max_spec,
        req.on_exhaustion,
        req.strategy,
    )
}

/// Compiles a specialisation outcome's rendered residual to bytecode,
/// fusing superinstructions when `opt` asks for it (and emitting the
/// `vm.fused_*` and `vm.tier_up` counters on that path).
///
/// The residual text is our own pretty-printer's output, so parse or
/// resolve failures here are server bugs, not client errors — they map
/// to `internal`.
fn compile_residual(
    outcome: &SpecOutcome,
    opt: VmOpt,
    rec: &Recorder,
) -> Result<CompiledResidual, ErrorInfo> {
    fn internal<E: std::fmt::Display>(stage: &'static str) -> impl Fn(E) -> ErrorInfo {
        move |e| ErrorInfo::new(ErrorClass::Internal, format!("residual {stage} failed: {e}"))
    }
    let (module, function) = outcome.entry.split_once('.').ok_or_else(|| {
        ErrorInfo::new(
            ErrorClass::Internal,
            format!("residual entry `{}` is not of the form Module.function", outcome.entry),
        )
    })?;
    let entry = QualName::new(module, function);
    let program = parse_program(&outcome.residual).map_err(internal("parse"))?;
    let resolved = resolve(program).map_err(internal("resolve"))?;
    let bc = compile_bytecode(&resolved).map_err(internal("compile"))?;
    let bc = match opt {
        VmOpt::None => bc,
        VmOpt::Fuse => {
            let (fused, stats) = fuse(&bc);
            for (name, n) in stats.pairs() {
                rec.count(name, n);
            }
            rec.count("vm.tier_up", 1);
            fused
        }
    };
    Ok(CompiledResidual { entry, bc: Arc::new(bc) })
}

fn spec_error_info(e: SpecError, stats: SpecStats) -> ErrorInfo {
    match e {
        SpecError::Cancelled { witness, steps } => ErrorInfo::with_stats(
            ErrorClass::Deadline,
            format!("cancelled at `{witness}` after {steps} steps"),
            stats,
        ),
        SpecError::BudgetExhausted { .. } => {
            ErrorInfo::with_stats(ErrorClass::Budget, format!("{e}"), stats)
        }
        SpecError::UnknownEntry(q) => {
            ErrorInfo::new(ErrorClass::NoSuchEntry, format!("no function `{q}` in the program"))
        }
        other => ErrorInfo::new(ErrorClass::Compile, format!("specialisation failed: {other}")),
    }
}

fn cogen_error_info(e: CogenError) -> ErrorInfo {
    match e {
        CogenError::StaleInterface { module, import } => ErrorInfo::new(
            ErrorClass::StaleInterface,
            format!(
                "genext for `{}` was generated against an older interface of `{}`; rebuild",
                module.as_str(),
                import.as_str()
            ),
        ),
        other => ErrorInfo::new(ErrorClass::Artefact, format!("artefact load failed: {other}")),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use mspec_cogen::bti_fingerprint;

    const POWER: &str =
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

    fn spec_req(entry: &str, args: &str) -> SpecRequest {
        SpecRequest::inline(POWER, entry, args)
    }

    #[test]
    fn specialises_and_memoises() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        let req = spec_req("Power.power", "S:3,D");
        let first = r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(!first.memo_hit);
        assert!(first.residual.contains("x * (x * x)"), "{}", first.residual);
        let second = r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(second.memo_hit);
        assert_eq!(first.residual, second.residual);
        assert_eq!(r.stats().memo_hits, 1);
        assert_eq!(r.stats().programs_built, 1);
    }

    #[test]
    fn program_cache_hits_across_distinct_requests() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        r.execute_spec(&spec_req("Power.power", "S:2,D"), CancelToken::new(), &rec).unwrap();
        r.execute_spec(&spec_req("Power.power", "S:3,D"), CancelToken::new(), &rec).unwrap();
        let s = r.stats();
        assert_eq!(s.programs_built, 1);
        assert_eq!(s.program_hits, 1);
        assert_eq!(s.memo_hits, 0);
    }

    /// An empty artefact directory unique to `tag`, and a cogen into it.
    fn artefact_dir(
        tag: &str,
    ) -> (std::path::PathBuf, impl Fn(&str) -> mspec_cogen::files::CogenOutput) {
        let dir = std::env::temp_dir().join(format!("mspec-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let into = dir.clone();
        let cogen = move |src: &str| {
            let rp = resolve(parse_program(src).unwrap()).unwrap();
            let m = rp.program().modules[0].clone();
            mspec_cogen::files::cogen_module(&m, &into, &BTreeSet::new()).unwrap()
        };
        (dir, cogen)
    }

    fn dir_req(dir: &std::path::Path, entry: &str) -> SpecRequest {
        SpecRequest {
            program: None,
            dir: Some(dir.to_string_lossy().into_owned()),
            ..SpecRequest::inline("", entry, "D")
        }
    }

    #[test]
    fn dir_memo_is_invalidated_when_interfaces_change() {
        let (dir, cogen) = artefact_dir("memo");
        let out1 = cogen("module M where\nf x = x + 1\n");
        let fp1 = bti_fingerprint(&out1.bti).unwrap();

        let r = Resident::new();
        let rec = Recorder::disabled();
        let req = dir_req(&dir, "M.f");
        let first = r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(!first.memo_hit);
        assert!(first.residual.contains("x + 1"), "{}", first.residual);
        let second = r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(second.memo_hit, "unchanged artefacts serve from the memo");

        // Re-cogen with a changed interface (and a changed body for
        // the entry): the identical request must be answered from the
        // fresh artefacts, not the pre-change memo entry.
        let out2 = cogen("module M where\nf x = x + 2\ng y = y\n");
        let fp2 = bti_fingerprint(&out2.bti).unwrap();
        assert_ne!(fp1, fp2, "interface change must alter the fingerprint");
        let third = r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(!third.memo_hit, "memo must not survive an artefact change");
        assert!(third.residual.contains("x + 2"), "{}", third.residual);
        assert_eq!(r.stats().artefact_links, 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A re-cogen that changes only a body leaves the `.bti` fingerprint
    /// alone but rewrites the `.gx`: the memo must still miss.
    #[test]
    fn dir_memo_is_invalidated_when_only_a_body_changes() {
        let (dir, cogen) = artefact_dir("memo-body");
        let out1 = cogen("module M where\nf x = x + 1\n");
        let fp1 = bti_fingerprint(&out1.bti).unwrap();
        let r = Resident::new();
        let rec = Recorder::disabled();
        let req = dir_req(&dir, "M.f");
        let first = r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(first.residual.contains("x + 1"), "{}", first.residual);
        assert!(r.execute_spec(&req, CancelToken::new(), &rec).unwrap().memo_hit);

        let out2 = cogen("module M where\nf x = 1 + x\n");
        assert_eq!(bti_fingerprint(&out2.bti).unwrap(), fp1, "same interface");
        let again = r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(!again.memo_hit, "memo must not survive a genext change");
        assert!(again.residual.contains("1 + x"), "{}", again.residual);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A module cogen'd into a directory after the daemon linked it is
    /// found by the next request, as `mspec link-spec` would find it.
    #[test]
    fn artefacts_added_after_linking_are_linked() {
        let (dir, cogen) = artefact_dir("added");
        cogen("module M where\nf x = x + 1\n");
        let r = Resident::new();
        let rec = Recorder::disabled();
        r.execute_spec(&dir_req(&dir, "M.f"), CancelToken::new(), &rec).unwrap();

        cogen("module N where\ng y = y * 2\n");
        let added = r.execute_spec(&dir_req(&dir, "N.g"), CancelToken::new(), &rec).unwrap();
        assert!(added.residual.contains("y * 2"), "{}", added.residual);
        assert_eq!(r.stats().artefact_links, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_executes_and_caches_compiled_residuals() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        let req = RunRequest {
            spec: spec_req("Power.power", "S:5,D"),
            values: "3".to_string(),
            run_fuel: None,
        };
        for opt in [VmOpt::None, VmOpt::Fuse] {
            r.clear();
            let cold = r.execute_run(&req, CancelToken::new(), &rec, opt).unwrap();
            assert_eq!(cold.value, "243", "3^5 under {opt}");
            assert!(!cold.compiled_hit);
            assert!(cold.instructions > 0);
            let warm = r.execute_run(&req, CancelToken::new(), &rec, opt).unwrap();
            assert_eq!(warm.value, "243");
            assert!(warm.memo_hit, "spec answered from the memo");
            assert!(warm.compiled_hit, "bytecode answered from the compiled cache");
            assert_eq!(
                warm.instructions, cold.instructions,
                "cached and fresh bytecode run the same instruction count"
            );
        }
    }

    #[test]
    fn fused_and_unfused_runs_agree_on_value_and_fuel() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        let req = RunRequest {
            spec: spec_req("Power.power", "S:8,D"),
            values: "2".to_string(),
            run_fuel: None,
        };
        let plain = r.execute_run(&req, CancelToken::new(), &rec, VmOpt::None).unwrap();
        let fused = r.execute_run(&req, CancelToken::new(), &rec, VmOpt::Fuse).unwrap();
        assert_eq!(plain.value, "256");
        assert_eq!(fused.value, plain.value);
        assert_eq!(fused.instructions, plain.instructions, "fusion preserves the fuel contract");
        // Distinct vm-opts are distinct cache entries, not hits.
        assert!(!fused.compiled_hit);
        assert_eq!(r.stats().residuals_compiled, 2);
    }

    #[test]
    fn run_maps_fuel_exhaustion_to_budget_and_bad_values_to_bad_request() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        let starved = RunRequest {
            spec: spec_req("Power.power", "S:6,D"),
            values: "2".to_string(),
            run_fuel: Some(1),
        };
        let e = r.execute_run(&starved, CancelToken::new(), &rec, VmOpt::Fuse).unwrap_err();
        assert_eq!(e.class, ErrorClass::Budget);
        let malformed = RunRequest {
            spec: spec_req("Power.power", "S:6,D"),
            values: "2,oops".to_string(),
            run_fuel: None,
        };
        let e = r.execute_run(&malformed, CancelToken::new(), &rec, VmOpt::None).unwrap_err();
        assert_eq!(e.class, ErrorClass::BadRequest);
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        let e = r
            .execute_spec(&spec_req("Power.ghost", "S:3,D"), CancelToken::new(), &rec)
            .unwrap_err();
        assert_eq!(e.class, ErrorClass::NoSuchEntry);
        let e = r
            .execute_spec(&spec_req("nodots", "S:3,D"), CancelToken::new(), &rec)
            .unwrap_err();
        assert_eq!(e.class, ErrorClass::BadRequest);
        let e = r
            .execute_spec(&spec_req("Power.power", "Q:9"), CancelToken::new(), &rec)
            .unwrap_err();
        assert_eq!(e.class, ErrorClass::BadRequest);
        let e = r
            .execute_spec(
                &SpecRequest::inline("module Broken where\nf x = y\n", "Broken.f", "D"),
                CancelToken::new(),
                &rec,
            )
            .unwrap_err();
        assert_eq!(e.class, ErrorClass::Compile);
        assert!(!e.retryable);
    }

    #[test]
    fn cancelled_runs_report_deadline_with_partial_stats() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        // Pre-cancelled token: the engine notices at the first check.
        let token = CancelToken::new();
        token.cancel();
        // A deep static unfold chain guarantees the run reaches the
        // engine's first cancellation check (every 1024 steps).
        let req = SpecRequest {
            fuel: Some(u64::MAX),
            ..spec_req("Power.power", "S:2000,D")
        };
        let e = r.execute_spec(&req, token, &rec).unwrap_err();
        assert_eq!(e.class, ErrorClass::Deadline);
        assert!(!e.retryable);
        let stats = e.stats.expect("partial stats");
        assert!(stats.steps > 0);
    }

    #[test]
    fn memo_cap_bounds_the_cache_and_counts_evictions() {
        let r = Resident::with_options(ResidentOptions { memo_cap: 2, disk: None });
        let rec = Recorder::disabled();
        for n in 2..=5 {
            let req = spec_req("Power.power", &format!("S:{n},D"));
            r.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        }
        // Four distinct memo entries through a cap of two: two evicted.
        assert_eq!(r.stats().evictions, 2);
        assert_eq!(lock(&r.memo).map.len(), 2);
        // The freshest entry is still memoised; the oldest re-runs.
        let warm = r.execute_spec(&spec_req("Power.power", "S:5,D"), CancelToken::new(), &rec);
        assert!(warm.unwrap().memo_hit);
        let cold = r.execute_spec(&spec_req("Power.power", "S:2,D"), CancelToken::new(), &rec);
        assert!(!cold.unwrap().memo_hit, "evicted entries must re-run the engine");
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut b: Bounded<String, u32> = Bounded::new(2);
        assert_eq!(b.insert("a".into(), 1), 0);
        assert_eq!(b.insert("b".into(), 2), 0);
        assert_eq!(b.insert("a".into(), 3), 0, "refresh is not growth");
        assert_eq!(b.get("a"), Some(&3));
        assert_eq!(b.insert("c".into(), 4), 1, "third distinct key evicts the oldest");
        assert!(b.get("a").is_none());
        // Stale order slots (from remove) are skipped, not counted.
        b.remove("b");
        assert_eq!(b.insert("d".into(), 5), 0);
        assert_eq!(b.insert("e".into(), 6), 1);
    }

    #[test]
    fn disk_cache_survives_a_daemon_restart() {
        let dir = std::env::temp_dir().join(format!("mspec-serve-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Recorder::disabled();
        let req = spec_req("Power.power", "S:4,D");

        let opts = || ResidentOptions {
            memo_cap: 64,
            disk: DiskCache::open(&dir).ok(),
        };
        let first = Resident::with_options(opts());
        let cold = first.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(!cold.memo_hit);
        assert_eq!(first.stats().disk_stores, 1);

        // A fresh Resident over the same directory is a daemon restart:
        // empty in-memory caches, warm disk.
        let second = Resident::with_options(opts());
        let warm = second.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(warm.memo_hit, "restart answers from the persistent cache");
        assert_eq!(warm.residual, cold.residual, "byte-identical residual");
        assert_eq!(warm.stats, cold.stats, "original run's counters travel with the entry");
        let s = second.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.memo_hits, 0, "the in-memory memo was empty");
        // The disk hit warmed the memo: a repeat is a memo hit, not a
        // second disk read.
        let third = second.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(third.memo_hit);
        assert_eq!(second.stats().memo_hits, 1);
        assert_eq!(second.stats().disk_hits, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_rerun_the_engine_and_are_rewritten() {
        let dir = std::env::temp_dir().join(format!("mspec-serve-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = Recorder::disabled();
        let req = spec_req("Power.power", "S:7,D");
        let opts = || ResidentOptions {
            memo_cap: 64,
            disk: DiskCache::open(&dir).ok(),
        };

        let first = Resident::with_options(opts());
        let cold = first.execute_spec(&req, CancelToken::new(), &rec).unwrap();

        // Tear every cache entry on disk down to a prefix.
        for f in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            let bytes = std::fs::read(f.path()).unwrap();
            std::fs::write(f.path(), &bytes[..bytes.len() / 2]).unwrap();
        }

        let second = Resident::with_options(opts());
        let redone = second.execute_spec(&req, CancelToken::new(), &rec).unwrap();
        assert!(!redone.memo_hit, "a torn entry is a miss, never served");
        assert_eq!(redone.residual, cold.residual);
        let s = second.stats();
        assert_eq!(s.disk_hits, 0);
        assert_eq!(s.disk_stores, 1, "the engine run rewrote the torn entry");

        // And the rewrite repaired the slot for the next restart.
        let third = Resident::with_options(opts());
        assert!(third.execute_spec(&req, CancelToken::new(), &rec).unwrap().memo_hit);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_breach_reports_budget_class() {
        let r = Resident::new();
        let rec = Recorder::disabled();
        let req = SpecRequest { fuel: Some(10), ..spec_req("Power.power", "S:40,D") };
        let e = r.execute_spec(&req, CancelToken::new(), &rec).unwrap_err();
        assert_eq!(e.class, ErrorClass::Budget);
        assert!(e.stats.is_some());
    }
}
