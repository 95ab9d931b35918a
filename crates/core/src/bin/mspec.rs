//! The `mspec` command-line driver.
//!
//! ```text
//! mspec check   FILE                      parse, resolve, typecheck
//! mspec analyse FILE [--force-residual M.f,...]
//!                                         print annotated defs + BT schemes
//! mspec cogen   FILE --out DIR            write .bti/.gx/GenM.txt per module
//! mspec spec    FILE --entry M.f --args DIVISION
//!               [--strategy bf|df] [--out DIR] [--force-residual M.f,...]
//!                                         specialise and print the residual
//! mspec mix     FILE --entry M.f --args DIVISION
//!                                         monolithic-mix baseline specialiser
//! mspec run     FILE --entry M.f --args VALUES
//!               [--runner tree|vm] [--vm-opt none|fuse]
//!                                         interpret the source program
//! mspec explain FN --log FILE [--req ID]  provenance of FN's residual
//!                                         versions from a --metrics log
//!                                         (--req: one request's stream)
//! mspec trace-check FILE                  validate a trace/metrics file
//! mspec trace flame FILE [--req ID]       fold a JSONL trace into
//!                                         collapsed stacks (flamegraph)
//! mspec cache gc --cache-dir DIR          prune the residual cache
//!               [--max-age-secs N] [--max-bytes N]
//! mspec top     --connect HOST:PORT       live daemon dashboard
//!               [--interval-ms N] [--once]
//! mspec serve   [--stdio | --port N]      specialisation-as-a-service daemon
//!               [--max-clients N] [--queue-depth N] [--deadline-ms N]
//!               [--client-fuel N] [--threads N] [--chaos] [--trace FILE]
//!               [--vm-opt none|fuse] [--memo-cap N] [--cache-dir DIR]
//!               [--cache-gc-bytes N] [--crash-dir DIR]
//! mspec client  ACTION [FILE]             talk to a daemon (ACTION: spec,
//!               (--connect HOST:PORT | --spawn)   run, health, stats, metrics,
//!               [--entry M.f --args DIV] [--deadline-ms N]  fault, shutdown)
//!               [--values VALS] [--run-fuel N]    (run: specialise then
//!               [--retries N] [--backoff-ms N]     execute the residual)
//! ```
//!
//! Every pipeline command additionally accepts `--trace FILE` (Chrome
//! `trace_event` JSON, loadable in Perfetto / `chrome://tracing`) and
//! `--metrics FILE` (flat JSONL event log, the input of `mspec
//! explain`); either flag enables the telemetry recorder for the run.
//!
//! `DIVISION` is a comma-separated list, one entry per parameter:
//! `S:<value>` (static, with the value), `D` (dynamic), `P:<n>`
//! (a list with static spine of length n, dynamic elements).
//! `VALUES` are comma-separated literals: naturals, `true`/`false`, or
//! `[v;v;…]` lists (semicolon-separated to avoid clashing with the
//! argument separator).

use mspec_core::telemetry::{self, Snapshot};
use mspec_core::{
    write_residual, EngineOptions, ModuleOutcome, OnExhaustion, Pipeline, Recorder, Runner,
    SpecBudget, Strategy, VmOpt,
};
use mspec_lang::eval::with_big_stack;
use mspec_lang::QualName;
use mspec_serve::{parse_division, parse_values, ServeConfig, ServeKnob};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    with_big_stack(move || match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mspec: {msg}");
            ExitCode::FAILURE
        }
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "check" => check(&args[1..]),
        "build" => with_telemetry(&args[1..], build_cmd),
        "link-spec" => with_telemetry(&args[1..], link_spec),
        "analyse" => analyse(&args[1..]),
        "cogen" => cogen(&args[1..]),
        "spec" => with_telemetry(&args[1..], spec),
        "mix" => with_telemetry(&args[1..], mix_cmd),
        "run" => run_program(&args[1..]),
        "explain" => explain_cmd(&args[1..]),
        "trace-check" => trace_check_cmd(&args[1..]),
        "trace" => trace_cmd(&args[1..]),
        "cache" => cache_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "client" => client_cmd(&args[1..]),
        "top" => top_cmd(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: mspec <check|analyse|cogen|spec|mix|run|build|link-spec|explain|trace-check|trace|cache|serve|client|top> FILE [options]\n\
     \n\
     check   FILE                          typecheck, print schemes\n\
     analyse FILE [--force-residual M.f,…] print BT schemes + annotations\n\
     cogen   FILE --out DIR                write .bti/.gx per module\n\
     spec    FILE --entry M.f --args DIV   specialise (DIV: S:<v>,D,P:<n>)\n\
             [--strategy bf|df] [--out DIR] [--force-residual M.f,…]\n\
             [--fuel N] [--max-spec N] [--on-exhaustion error|generalise]\n\
     mix     FILE --entry M.f --args DIV   monolithic-mix baseline specialiser\n\
     run     FILE --entry M.f --args VALS  run the source program\n\
             [--runner tree|vm] [--vm-opt none|fuse]\n\
     build   SRCDIR --out DIR              incremental cogen of a module tree\n\
     link-spec DIR --entry M.f --args DIV  specialise from .gx files (no source)\n\
     explain FN --log FILE [--req ID]      provenance of FN from a --metrics\n\
                                           log (--req: one request's stream)\n\
     trace-check FILE                      validate a --trace/--metrics/\n\
                                           metrics-exposition file\n\
     trace flame FILE [--req ID]           fold a JSONL trace into collapsed\n\
                                           stacks (flamegraph.pl/speedscope)\n\
     cache gc --cache-dir DIR              prune the residual cache by age\n\
             [--max-age-secs N] [--max-bytes N]   and/or size, oldest first\n\
     serve   [--stdio | --port N]          long-lived specialisation daemon\n\
             [--max-clients N] [--queue-depth N] [--deadline-ms N]\n\
             [--client-fuel N] [--threads N] [--chaos] [--trace FILE]\n\
             [--vm-opt none|fuse] [--memo-cap N] [--cache-dir DIR]\n\
             [--cache-gc-bytes N] [--crash-dir DIR]\n\
     client  ACTION [FILE]                 talk to a daemon; ACTION is one of\n\
             (--connect HOST:PORT|--spawn)  spec, run, health, stats, metrics,\n\
             [--entry M.f --args DIV]       fault, shutdown; run also takes\n\
             [--dir DIR] [--deadline-ms N]  [--values VALS] [--run-fuel N]\n\
             [--retries N] [--backoff-ms N] [--fuel N] [--max-spec N]\n\
     top     --connect HOST:PORT           live dashboard over the daemon's\n\
             [--interval-ms N] [--once]     health + metrics endpoints\n\
     \n\
     spec, mix, build and link-spec also accept --trace FILE (Chrome\n\
     trace_event JSON) and --metrics FILE (JSONL event log).\n\
     spec, link-spec and serve accept --cache-dir DIR (fallback: the\n\
     MSPEC_CACHE_DIR env var), a persistent residual cache: a warm run\n\
     with an unchanged program and request serves the stored residual\n\
     byte-identically with zero engine steps.\n\
     serve --threads N sets the daemon's worker count (fallback: the\n\
     MSPEC_THREADS env var, then 2)"
        .to_string()
}

struct Opts {
    file: String,
    entry: Option<(String, String)>,
    args: Option<String>,
    out: Option<String>,
    strategy: Strategy,
    force_residual: BTreeSet<QualName>,
    fuel: Option<u64>,
    max_spec: Option<usize>,
    on_exhaustion: OnExhaustion,
    runner: Runner,
    vm_opt: VmOpt,
    trace: Option<String>,
    metrics: Option<String>,
    log: Option<String>,
    cache_dir: Option<String>,
    /// Request-scoped trace id filter (`--req`, for `explain` and
    /// `trace flame` over daemon traces).
    req: Option<u64>,
}

impl Opts {
    /// Engine options assembled from the budget flags; unset flags keep
    /// the [`SpecBudget`] defaults.
    fn engine_options(&self) -> EngineOptions {
        let mut budget = SpecBudget::default();
        if let Some(steps) = self.fuel {
            budget.steps = steps;
        }
        if let Some(n) = self.max_spec {
            budget.max_specialisations = n;
        }
        EngineOptions { strategy: self.strategy, budget, on_exhaustion: self.on_exhaustion }
    }

    /// The run's persistent residual cache (see [`cache_dir`]);
    /// `Ok(None)` when no directory is configured.
    fn disk_cache(&self) -> Result<Option<mspec_cache::DiskCache>, String> {
        let Some(dir) = cache_dir(self.cache_dir.clone()) else { return Ok(None) };
        mspec_cache::DiskCache::open(&dir)
            .map(Some)
            .map_err(|e| format!("cannot open cache dir {dir}: {e}"))
    }

    /// The run's recorder: enabled iff an output was requested, so
    /// untraced runs pay only a null-pointer check per telemetry call.
    fn recorder(&self) -> Recorder {
        if self.trace.is_some() || self.metrics.is_some() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Drains the recorder and writes the requested trace/metrics files
    /// whatever the command's `outcome`. A successful run then reports
    /// the files and a one-paragraph summary on stderr; a failed run
    /// prints nothing more, so its one-line error reads the same with
    /// and without telemetry.
    fn finish_telemetry(&self, rec: &Recorder, outcome: Result<(), String>) -> Result<(), String> {
        if !rec.is_enabled() {
            return outcome;
        }
        let snap = rec.snapshot();
        let report = outcome.is_ok();
        let written = (|| -> Result<(), String> {
            if let Some(path) = &self.trace {
                std::fs::write(path, snap.to_chrome().write_compact())
                    .map_err(|e| format!("cannot write trace {path}: {e}"))?;
                if report {
                    eprintln!("wrote trace {path}");
                }
            }
            if let Some(path) = &self.metrics {
                std::fs::write(path, snap.to_jsonl())
                    .map_err(|e| format!("cannot write metrics {path}: {e}"))?;
                if report {
                    eprintln!("wrote metrics {path}");
                }
            }
            Ok(())
        })();
        outcome.and(written)?;
        eprint!("{}", snap.summary());
        Ok(())
    }
}

/// Runs a command that accepts `--trace`/`--metrics`, writing the
/// requested files on every exit, failed runs included.
fn with_telemetry(
    args: &[String],
    cmd: impl FnOnce(&Opts, &Recorder) -> Result<(), String>,
) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let rec = opts.recorder();
    let outcome = cmd(&opts, &rec);
    opts.finish_telemetry(&rec, outcome)
}

/// The persistent residual cache directory: the `--cache-dir` value,
/// then the `MSPEC_CACHE_DIR` environment variable.
fn cache_dir(flag: Option<String>) -> Option<String> {
    flag.or_else(|| std::env::var(mspec_cache::CACHE_DIR_ENV).ok())
}

/// One `spec`/`link-spec` request's slot in the persistent residual
/// cache.
struct ResidualCache {
    cache: mspec_cache::DiskCache,
    key: String,
}

impl ResidualCache {
    /// Opens the run's cache and keys the request on the program's
    /// `source_key` (computed only when a cache is configured) plus
    /// every flag that shapes the residual; `Ok(None)` without a cache.
    fn open(
        opts: &Opts,
        entry: &str,
        division: &str,
        source_key: impl FnOnce() -> Result<String, String>,
    ) -> Result<Option<ResidualCache>, String> {
        let Some(cache) = opts.disk_cache()? else { return Ok(None) };
        let key = mspec_cache::spec_key(
            &source_key()?,
            entry,
            division,
            opts.fuel,
            opts.max_spec,
            opts.on_exhaustion,
            opts.strategy,
        );
        Ok(Some(ResidualCache { cache, key }))
    }

    /// Prints a stored residual as a fresh run would, plus the hit
    /// report; `false` on a miss.
    fn serve(&self) -> bool {
        let Some(hit) = self.cache.get(&self.key) else { return false };
        println!("{}", hit.residual);
        eprintln!("{}", hit.stats.summary(hit.entry.clone()));
        eprintln!(
            "cache hit: residual served from {} (0 engine steps this run)",
            self.cache.root().display()
        );
        true
    }

    /// Stores a fresh run's residual under the request's key; a failed
    /// store is a warning, never an error.
    fn store(&self, entry: String, residual: String, stats: mspec_core::SpecStats) {
        let entry = mspec_cache::CacheEntry { key: self.key.clone(), entry, residual, stats };
        match self.cache.put(&entry) {
            Ok(path) => eprintln!("cached residual at {}", path.display()),
            Err(e) => eprintln!("warning: could not store cache entry: {e}"),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        file: String::new(),
        entry: None,
        args: None,
        out: None,
        strategy: Strategy::BreadthFirst,
        force_residual: BTreeSet::new(),
        fuel: None,
        max_spec: None,
        on_exhaustion: OnExhaustion::default(),
        runner: Runner::default(),
        vm_opt: VmOpt::default(),
        trace: None,
        metrics: None,
        log: None,
        cache_dir: None,
        req: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => {
                let v = it.next().ok_or("--entry needs M.f")?;
                let (m, f) = v
                    .split_once('.')
                    .ok_or_else(|| format!("entry `{v}` must be Module.function"))?;
                opts.entry = Some((m.to_string(), f.to_string()));
            }
            "--args" => {
                opts.args = Some(it.next().ok_or("--args needs a value")?.clone());
            }
            "--out" => {
                opts.out = Some(it.next().ok_or("--out needs a directory")?.clone());
            }
            "--strategy" => {
                opts.strategy = match it.next().map(String::as_str) {
                    Some("bf") => Strategy::BreadthFirst,
                    Some("df") => Strategy::DepthFirst,
                    other => return Err(format!("--strategy must be bf or df, got {other:?}")),
                };
            }
            "--fuel" => {
                let v = it.next().ok_or("--fuel needs a step count")?;
                opts.fuel =
                    Some(v.parse::<u64>().map_err(|_| format!("bad --fuel value `{v}`"))?);
            }
            "--max-spec" => {
                let v = it.next().ok_or("--max-spec needs a count")?;
                opts.max_spec =
                    Some(v.parse::<usize>().map_err(|_| format!("bad --max-spec value `{v}`"))?);
            }
            "--on-exhaustion" => {
                opts.on_exhaustion = match it.next().map(String::as_str) {
                    Some("error") => OnExhaustion::Error,
                    Some("generalise") => OnExhaustion::Generalise,
                    other => {
                        return Err(format!(
                            "--on-exhaustion must be error or generalise, got {other:?}"
                        ))
                    }
                };
            }
            "--runner" => {
                let v = it.next().ok_or("--runner needs tree or vm")?;
                opts.runner = Runner::parse(v)
                    .ok_or_else(|| format!("--runner must be tree or vm, got `{v}`"))?;
            }
            "--vm-opt" => {
                let v = it.next().ok_or("--vm-opt needs none or fuse")?;
                opts.vm_opt = VmOpt::parse(v)
                    .ok_or_else(|| format!("--vm-opt must be none or fuse, got `{v}`"))?;
            }
            "--trace" => {
                opts.trace = Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            "--metrics" => {
                opts.metrics = Some(it.next().ok_or("--metrics needs a file")?.clone());
            }
            "--log" => {
                opts.log = Some(it.next().ok_or("--log needs a file")?.clone());
            }
            "--cache-dir" => {
                opts.cache_dir = Some(it.next().ok_or("--cache-dir needs a directory")?.clone());
            }
            "--req" => {
                let v = it.next().ok_or("--req needs a request trace id")?;
                // Daemon trace ids are fnv64 hashes printed in hex by
                // `trace-check`; accept decimal and 0x-prefixed hex.
                let parsed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse::<u64>(), |h| u64::from_str_radix(h, 16));
                opts.req = Some(parsed.map_err(|_| format!("bad --req value `{v}`"))?);
            }
            "--force-residual" => {
                let v = it.next().ok_or("--force-residual needs M.f[,M.g…]")?;
                for part in v.split(',') {
                    let (m, f) = part
                        .split_once('.')
                        .ok_or_else(|| format!("`{part}` must be Module.function"))?;
                    opts.force_residual.insert(QualName::new(m, f));
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => {
                if opts.file.is_empty() {
                    opts.file = other.to_string();
                } else {
                    return Err(format!("unexpected argument `{other}`"));
                }
            }
        }
    }
    if opts.file.is_empty() {
        return Err("missing FILE".to_string());
    }
    Ok(opts)
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn build_pipeline(opts: &Opts) -> Result<Pipeline, String> {
    build_pipeline_traced(opts, &Recorder::disabled())
}

fn build_pipeline_traced(opts: &Opts, rec: &Recorder) -> Result<Pipeline, String> {
    let src = read_source(&opts.file)?;
    let program = {
        let _span = rec.span("parse");
        mspec_lang::parser::parse_program(&src).map_err(|e| e.to_string())?
    };
    Pipeline::from_program_traced(program, &opts.force_residual, rec).map_err(|e| e.to_string())
}

fn build_cmd(opts: &Opts, rec: &Recorder) -> Result<(), String> {
    let out = opts.out.as_deref().ok_or("build needs --out DIR")?;
    let mut bopts = mspec_cogen::build::BuildOptions::default();
    for q in &opts.force_residual {
        bopts
            .force_residual
            .entry(q.module)
            .or_default()
            .insert(q.name);
    }
    let report = mspec_cogen::build::build_traced(&opts.file, out, &bopts, rec)
        .map_err(|e| e.to_string())?;
    for (name, outcome) in &report.outcomes {
        println!(
            "{name}: {}",
            match outcome {
                ModuleOutcome::Built => "rebuilt",
                ModuleOutcome::UpToDate => "up to date",
                // cogen builds abort on the first error, so these two
                // never reach a printed report; keep them total anyway.
                ModuleOutcome::Failed(_) => "failed",
                ModuleOutcome::Skipped { .. } => "skipped",
            }
        );
    }
    println!("{} rebuilt, {} up to date", report.rebuilt(), report.up_to_date());
    Ok(())
}

fn link_spec(opts: &Opts, rec: &Recorder) -> Result<(), String> {
    let (m, f) = opts.entry.clone().ok_or("link-spec needs --entry M.f")?;
    let division = opts.args.clone().ok_or("link-spec needs --args DIVISION")?;
    let spec_args = parse_division(&division)?;
    // Persistent residual cache. The key embeds the directory's current
    // identity, the checksums of all its `.bti` and `.gx` files —
    // recomputing it from disk *is* the staleness check (the same
    // identity the daemon's memo uses), so a rebuilt interface or
    // genext simply misses and re-links. It is taken before linking,
    // so a rebuild racing this run can never key old genexts' residual
    // under the new identity.
    let cache = ResidualCache::open(opts, &format!("{m}.{f}"), &division, || {
        Ok(mspec_cache::dir_source_key(&opts.file, mspec_cache::dir_identity(&opts.file)))
    })?;
    if opts.out.is_none() && cache.as_ref().is_some_and(ResidualCache::serve) {
        return Ok(());
    }
    let linked =
        mspec_cogen::build::link_dir_traced(&opts.file, rec).map_err(|e| e.to_string())?;
    let entry = QualName::new(m.as_str(), f.as_str());
    let mut engine =
        mspec_genext::Engine::with_recorder(&linked, opts.engine_options(), rec.clone());
    let residual = engine.specialise(&entry, spec_args).map_err(|e| e.to_string())?;
    let stats = *engine.stats();
    // Bytes of `.gx` function payload decoded on demand during the
    // run; together with the load-time count in `link_dir_traced` this
    // is the seekable format's total decode cost.
    rec.count("io.gx_bytes_decoded", linked.lazy_decoded_bytes());
    let residual_text = mspec_lang::pretty::pretty_program(&residual.program);
    println!("{residual_text}");
    eprintln!("{}", stats.summary(residual.entry.to_string()));
    if let Some(dir) = &opts.out {
        let files = write_residual(dir, &residual).map_err(|e| e.to_string())?;
        for f in files {
            eprintln!("wrote {}", f.display());
        }
    }
    if let Some(c) = &cache {
        c.store(residual.entry.to_string(), residual_text, stats);
    }
    Ok(())
}

fn check(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let pipeline = build_pipeline(&opts)?;
    println!("ok: {} modules, {} functions", pipeline.resolved().program().modules.len(),
        pipeline.types().len());
    for (q, scheme) in pipeline.types().iter() {
        println!("  {q} : {scheme}");
    }
    Ok(())
}

fn analyse(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let pipeline = build_pipeline(&opts)?;
    for module in &pipeline.annotated().modules {
        println!("-- module {}", module.name);
        for def in &module.defs {
            println!("  {}.{} : {}", module.name, def.name, def.sig);
            println!("    {def}");
        }
    }
    Ok(())
}

fn cogen(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let dir = opts.out.as_deref().ok_or("cogen needs --out DIR")?;
    let src = read_source(&opts.file)?;
    let resolved = mspec_lang::resolve::resolve(
        mspec_lang::parser::parse_program(&src).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    // `cogen_module` sees only its imports' `.bti` and `.sig` files,
    // which carry no types: typecheck each module here first.
    let mut types = BTreeMap::new();
    for name in resolved.graph().topo_order() {
        let module = resolved.program().module(name.as_str()).unwrap();
        types.insert(
            *name,
            mspec_types::infer_module(module, &types).map_err(|e| e.to_string())?,
        );
        let forced: BTreeSet<mspec_lang::Ident> = opts
            .force_residual
            .iter()
            .filter(|q| q.module == *name)
            .map(|q| q.name)
            .collect();
        let out = mspec_cogen::files::cogen_module(module, dir, &forced)
            .map_err(|e| e.to_string())?;
        println!("cogen {name}: {} {} {}", out.bti.display(), out.gx.display(),
            out.gen_text.display());
    }
    Ok(())
}

fn spec(opts: &Opts, rec: &Recorder) -> Result<(), String> {
    let (m, f) = opts.entry.clone().ok_or("spec needs --entry M.f")?;
    let division = opts.args.clone().ok_or("spec needs --args DIVISION")?;
    let spec_args = parse_division(&division)?;
    // Persistent residual cache, probed before the pipeline is even
    // built: a warm run skips parse, BTA, cogen *and* the engine.
    // `--force-residual` perturbs the residual without being part of
    // the shared key (the daemon has no such knob), and `--out` needs
    // the typed residual — both opt out.
    let cache = if opts.force_residual.is_empty() && opts.out.is_none() {
        ResidualCache::open(opts, &format!("{m}.{f}"), &division, || {
            Ok(mspec_cache::inline_source_key(&read_source(&opts.file)?))
        })?
    } else {
        None
    };
    if cache.as_ref().is_some_and(ResidualCache::serve) {
        return Ok(());
    }
    let pipeline = build_pipeline_traced(opts, rec)?;
    let spec = pipeline
        .specialise_traced(&m, &f, spec_args, opts.engine_options(), rec)
        .map_err(|e| e.to_string())?;
    println!("{}", spec.source());
    eprintln!("{}", spec.stats.summary(spec.residual.entry.to_string()));
    eprint!("{}", spec.provenance_report());
    if let Some(dir) = &opts.out {
        let files = write_residual(dir, &spec.residual).map_err(|e| e.to_string())?;
        for f in files {
            eprintln!("wrote {}", f.display());
        }
    }
    if let Some(c) = &cache {
        c.store(spec.residual.entry.to_string(), spec.source().to_string(), spec.stats);
    }
    Ok(())
}

fn mix_cmd(opts: &Opts, rec: &Recorder) -> Result<(), String> {
    let (m, f) = opts.entry.clone().ok_or("mix needs --entry M.f")?;
    let division = opts.args.clone().ok_or("mix needs --args DIVISION")?;
    let spec_args = parse_division(&division)?;
    let src = read_source(&opts.file)?;
    let mix_opts =
        mspec_mix::MixOptions { budget: opts.engine_options().budget, ..Default::default() };
    let outcome = mspec_mix::mix_specialise_traced(&src, &m, &f, spec_args, mix_opts, rec)
        .map_err(|e| e.to_string())?;
    println!("{}", mspec_lang::pretty::pretty_program(&outcome.residual.program));
    eprintln!("{}", outcome.stats.summary(outcome.residual.entry.to_string()));
    if let Some(dir) = &opts.out {
        let files = write_residual(dir, &outcome.residual).map_err(|e| e.to_string())?;
        for f in files {
            eprintln!("wrote {}", f.display());
        }
    }
    Ok(())
}

fn explain_cmd(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let log = opts
        .log
        .as_deref()
        .ok_or("explain needs --log FILE (a JSONL event log written by --metrics)")?;
    let text = read_source(log)?;
    let snap = Snapshot::parse_jsonl(&text).map_err(|e| format!("{log}: {e}"))?;
    match telemetry::explain_req(&snap, &opts.file, opts.req) {
        Some(report) => {
            println!("{report}");
            Ok(())
        }
        None => {
            let scope = opts.req.map_or(String::new(), |r| format!(" for request {r:#x}"));
            Err(format!("no specialisation events for `{}`{scope} in {log}", opts.file))
        }
    }
}

/// `mspec trace flame FILE [--req ID]`: fold a JSONL trace's span tree
/// into collapsed-stack lines (`frame;frame value`), the input format
/// of `flamegraph.pl` and speedscope. The value is self time in µs.
fn trace_cmd(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("trace needs a subcommand: flame".to_string());
    };
    if sub != "flame" {
        return Err(format!("trace: unknown subcommand `{sub}` (expected flame)"));
    }
    let opts = parse_opts(&args[1..])?;
    let text = read_source(&opts.file)?;
    let snap = Snapshot::parse_jsonl(&text).map_err(|e| format!("{}: {e}", opts.file))?;
    let folded = telemetry::collapsed_stacks(&snap, opts.req);
    if folded.is_empty() {
        let scope = opts.req.map_or(String::new(), |r| format!(" for request {r:#x}"));
        return Err(format!("no spans{scope} in {}", opts.file));
    }
    print!("{folded}");
    Ok(())
}

/// `mspec cache gc`: prune a persistent residual cache by age and/or
/// total size (oldest entries first). Safe against concurrent readers —
/// a pruned entry is a future cache miss, nothing more.
fn cache_cmd(args: &[String]) -> Result<(), String> {
    let Some(sub) = args.first() else {
        return Err("cache needs a subcommand: gc".to_string());
    };
    if sub != "gc" {
        return Err(format!("cache: unknown subcommand `{sub}` (expected gc)"));
    }
    let mut dir: Option<String> = None;
    let mut max_age_secs: Option<u64> = None;
    let mut max_bytes: Option<u64> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => dir = Some(it.next().ok_or("--cache-dir needs a directory")?.clone()),
            "--max-age-secs" => {
                let v = it.next().ok_or("--max-age-secs needs a value")?;
                max_age_secs = Some(v.parse().map_err(|_| format!("bad --max-age-secs `{v}`"))?);
            }
            "--max-bytes" => {
                let v = it.next().ok_or("--max-bytes needs a value")?;
                max_bytes = Some(v.parse().map_err(|_| format!("bad --max-bytes `{v}`"))?);
            }
            other => return Err(format!("cache gc: unknown option `{other}`")),
        }
    }
    let dir = cache_dir(dir).ok_or("cache gc needs --cache-dir DIR (or MSPEC_CACHE_DIR)")?;
    let cache = mspec_cache::DiskCache::open(&dir)
        .map_err(|e| format!("cannot open cache dir {dir}: {e}"))?;
    let r = cache
        .gc(max_age_secs, max_bytes)
        .map_err(|e| format!("cache gc failed in {dir}: {e}"))?;
    println!(
        "{dir}: {} entr{} scanned, {} removed, {} bytes freed, {} bytes kept",
        r.scanned,
        if r.scanned == 1 { "y" } else { "ies" },
        r.removed,
        r.bytes_removed,
        r.bytes_after
    );
    Ok(())
}

fn trace_check_cmd(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let text = read_source(&opts.file)?;
    let report = telemetry::validate(&text).map_err(|e| format!("{}: {e}", opts.file))?;
    println!("{report}");
    Ok(())
}

fn run_program(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let (m, f) = opts.entry.clone().ok_or("run needs --entry M.f")?;
    let values = parse_values(opts.args.as_deref().unwrap_or(""))?;
    let pipeline = build_pipeline(&opts)?;
    let v = pipeline
        .run_source_opt(opts.runner, opts.vm_opt, &m, &f, values)
        .map_err(|e| e.to_string())?;
    println!("{v}");
    Ok(())
}

/// `mspec serve`: run the specialisation daemon over stdio or TCP.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut pinned: Vec<ServeKnob> = Vec::new();
    let mut stdio = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let knob = match arg.as_str() {
            "--stdio" => {
                stdio = true;
                continue;
            }
            "--chaos" => {
                cfg.chaos = true;
                continue;
            }
            "--vm-opt" => {
                let v = it.next().ok_or("--vm-opt needs none or fuse")?;
                cfg.vm_opt = VmOpt::parse(v)
                    .ok_or_else(|| format!("--vm-opt must be none or fuse, got `{v}`"))?;
                continue;
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                cfg.trace_path = Some(v.clone());
                continue;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a directory")?;
                cfg.cache_dir = Some(v.clone());
                continue;
            }
            "--crash-dir" => {
                let v = it.next().ok_or("--crash-dir needs a directory")?;
                cfg.crash_dir = Some(v.clone());
                continue;
            }
            "--port" => ServeKnob::Port,
            "--max-clients" => ServeKnob::MaxClients,
            "--queue-depth" => ServeKnob::QueueDepth,
            "--deadline-ms" => ServeKnob::DeadlineMs,
            "--client-fuel" => ServeKnob::ClientFuel,
            "--threads" => ServeKnob::Workers,
            "--memo-cap" => ServeKnob::MemoCap,
            "--cache-gc-bytes" => ServeKnob::CacheGcBytes,
            other => return Err(format!("serve: unknown option `{other}`")),
        };
        let v = it.next().ok_or_else(|| format!("{} needs a value", knob.flag()))?;
        cfg.set_flag(knob, v).map_err(|e| e.to_string())?;
        pinned.push(knob);
    }
    cfg.apply_env(&pinned).map_err(|e| e.to_string())?;
    cfg.cache_dir = cache_dir(cfg.cache_dir.take());
    // Validate the cache directory up front so a bad path is a startup
    // error, not a silently cold daemon.
    if let Some(dir) = &cfg.cache_dir {
        mspec_cache::DiskCache::open(dir)
            .map_err(|e| format!("serve: cannot open cache dir {dir}: {e}"))?;
    }
    let rec = if cfg.trace_path.is_some() {
        telemetry::Recorder::enabled()
    } else {
        telemetry::Recorder::disabled()
    };
    let server = mspec_serve::Server::new(cfg.clone(), rec);
    if stdio {
        server.serve_stdio().map_err(|e| format!("serve: {e}"))
    } else {
        let handle = server.start_tcp().map_err(|e| format!("serve: {e}"))?;
        // Scripts read the bound port from stdout (important with --port 0).
        println!("mspecd listening on 127.0.0.1:{}", handle.port);
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        eprintln!(
            "mspecd: {} workers, queue depth {}, deadline {}ms, client fuel {}",
            cfg.workers, cfg.queue_depth, cfg.deadline_ms, cfg.client_fuel
        );
        handle.join();
        Ok(())
    }
}

/// `mspec client`: issue one request against a daemon, with retries.
fn client_cmd(args: &[String]) -> Result<(), String> {
    let mut action: Option<String> = None;
    let mut file: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut spawn = false;
    let mut chaos = false;
    let mut entry: Option<String> = None;
    let mut division = String::new();
    let mut values = String::new();
    let mut run_fuel: Option<u64> = None;
    let mut fuel: Option<u64> = None;
    let mut max_spec: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut policy = mspec_serve::RetryPolicy::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(it.next().ok_or("--connect needs HOST:PORT")?.clone()),
            "--spawn" => spawn = true,
            "--chaos" => chaos = true,
            "--entry" => entry = Some(it.next().ok_or("--entry needs M.f")?.clone()),
            "--args" => division = it.next().ok_or("--args needs a division")?.clone(),
            "--values" => values = it.next().ok_or("--values needs literals")?.clone(),
            "--run-fuel" => {
                let v = it.next().ok_or("--run-fuel needs a value")?;
                run_fuel = Some(v.parse().map_err(|_| format!("bad --run-fuel `{v}`"))?);
            }
            "--dir" => dir = Some(it.next().ok_or("--dir needs a directory")?.clone()),
            "--fuel" => {
                let v = it.next().ok_or("--fuel needs a value")?;
                fuel = Some(v.parse().map_err(|_| format!("bad --fuel `{v}`"))?);
            }
            "--max-spec" => {
                let v = it.next().ok_or("--max-spec needs a value")?;
                max_spec = Some(v.parse().map_err(|_| format!("bad --max-spec `{v}`"))?);
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                deadline_ms = Some(v.parse().map_err(|_| format!("bad --deadline-ms `{v}`"))?);
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                policy.max_attempts = v.parse().map_err(|_| format!("bad --retries `{v}`"))?;
            }
            "--backoff-ms" => {
                let v = it.next().ok_or("--backoff-ms needs a value")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --backoff-ms `{v}`"))?;
                policy.base_backoff = std::time::Duration::from_millis(ms);
            }
            other if other.starts_with("--") => {
                return Err(format!("client: unknown option `{other}`"));
            }
            positional => {
                if action.is_none() {
                    action = Some(positional.to_string());
                } else if file.is_none() {
                    file = Some(positional.to_string());
                } else {
                    return Err(format!("client: unexpected argument `{positional}`"));
                }
            }
        }
    }
    let action =
        action.ok_or("client needs an ACTION: spec, run, health, stats, fault or shutdown")?;
    let mut client = if let Some(addr) = connect {
        mspec_serve::Client::tcp(addr)
    } else if spawn {
        let exe = std::env::current_exe().map_err(|e| format!("client: {e}"))?;
        let mut serve_args = vec!["serve".to_string(), "--stdio".to_string()];
        if chaos {
            serve_args.push("--chaos".to_string());
        }
        mspec_serve::Client::spawn(exe.display().to_string(), serve_args)
    } else {
        return Err("client needs --connect HOST:PORT or --spawn".into());
    }
    .with_policy(policy);
    let build_spec_request = |action: &str| -> Result<mspec_serve::SpecRequest, String> {
        let entry = entry
            .as_deref()
            .ok_or_else(|| format!("client {action} needs --entry M.f"))?;
        let mut req = match (&file, &dir) {
            (Some(f), None) => {
                mspec_serve::SpecRequest::inline(&read_source(f)?, entry, &division)
            }
            (None, Some(d)) => {
                let mut r = mspec_serve::SpecRequest::inline("", entry, &division);
                r.program = None;
                r.dir = Some(d.clone());
                r
            }
            (None, None) => return Err(format!("client {action} needs FILE or --dir DIR")),
            (Some(_), Some(_)) => {
                return Err(format!("client {action} takes FILE or --dir, not both"))
            }
        };
        req.fuel = fuel;
        req.max_spec = max_spec;
        req.deadline_ms = deadline_ms;
        Ok(req)
    };
    let kind = match action.as_str() {
        "spec" => mspec_serve::RequestKind::Spec(build_spec_request("spec")?),
        "run" => mspec_serve::RequestKind::Run(mspec_serve::RunRequest {
            spec: build_spec_request("run")?,
            values: values.clone(),
            run_fuel,
        }),
        "health" => mspec_serve::RequestKind::Health,
        "stats" => mspec_serve::RequestKind::Stats,
        "metrics" => mspec_serve::RequestKind::Metrics,
        "fault" => mspec_serve::RequestKind::Fault,
        "shutdown" => mspec_serve::RequestKind::Shutdown,
        other => return Err(format!("client: unknown action `{other}`")),
    };
    let reply = client
        .request(kind)
        .map_err(|e| format!("client: {e} (after {} attempt(s))", client.last_attempts))?;
    match reply.body {
        mspec_serve::ResponseBody::Spec {
            entry,
            residual,
            stats,
            memo_hit,
        } => {
            // Byte-identical to `mspec spec` output on stdout.
            println!("{residual}");
            let hit = if memo_hit { " [memo hit]" } else { "" };
            eprintln!("{}{hit}", stats.summary(entry.as_str()));
            Ok(())
        }
        mspec_serve::ResponseBody::Run { entry, value, memo_hit, compiled_hit, instructions } => {
            println!("{value}");
            let memo = if memo_hit { " [memo hit]" } else { "" };
            let warm = if compiled_hit { " [compiled hit]" } else { "" };
            eprintln!("{entry}: {instructions} vm instructions{memo}{warm}");
            Ok(())
        }
        mspec_serve::ResponseBody::Health { uptime_ms, counters } => {
            println!("uptime_ms = {uptime_ms}");
            for (k, v) in counters {
                println!("{k} = {v}");
            }
            Ok(())
        }
        mspec_serve::ResponseBody::Stats { counters } => {
            for (k, v) in counters {
                println!("{k} = {v}");
            }
            Ok(())
        }
        mspec_serve::ResponseBody::Metrics { text } => {
            // The raw exposition, scrapeable as-is.
            print!("{text}");
            Ok(())
        }
        mspec_serve::ResponseBody::Ok => {
            println!("ok");
            Ok(())
        }
        mspec_serve::ResponseBody::Error(info) => {
            let kind = if info.retryable { "retryable" } else { "terminal" };
            let msg = format!(
                "daemon error: {} ({kind}): {} (after {} attempt(s))",
                info.class.as_str(),
                info.message,
                client.last_attempts
            );
            if action == "fault" {
                // An injected fault answered with a typed error *is* the
                // expected outcome; report it and exit cleanly.
                eprintln!("{msg}");
                Ok(())
            } else {
                Err(msg)
            }
        }
    }
}

/// `mspec top`: a live TTY dashboard over the daemon's read-only
/// `metrics` endpoint. Each frame is one `metrics` round-trip —
/// answered inline by the daemon, so the view keeps refreshing while
/// the worker pool is saturated. `--once` prints a single frame and
/// exits (scriptable smoke check); otherwise the screen is cleared and
/// redrawn every `--interval-ms` (default 1000) until interrupted.
fn top_cmd(args: &[String]) -> Result<(), String> {
    let mut connect: Option<String> = None;
    let mut interval_ms: u64 = 1_000;
    let mut once = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => connect = Some(it.next().ok_or("--connect needs HOST:PORT")?.clone()),
            "--interval-ms" => {
                let v = it.next().ok_or("--interval-ms needs a value")?;
                interval_ms = v.parse().map_err(|_| format!("bad --interval-ms `{v}`"))?;
            }
            "--once" => once = true,
            other => return Err(format!("top: unknown option `{other}`")),
        }
    }
    let addr = connect.ok_or("top needs --connect HOST:PORT")?;
    let mut client = mspec_serve::Client::tcp(addr.clone());
    loop {
        let reply = client.metrics().map_err(|e| format!("top: {e}"))?;
        let mspec_serve::ResponseBody::Metrics { text } = reply.body else {
            return Err("top: daemon did not answer the metrics request".to_string());
        };
        let frame = render_top(&addr, &text);
        if once {
            print!("{frame}");
            return Ok(());
        }
        // ANSI clear + home, then the refreshed frame. Plain escape
        // codes keep this zero-dependency.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

/// One `mspec top` frame, rendered from a metrics exposition. Pure
/// text-in/text-out (unit-tested); unknown or missing samples render
/// as `-` so a newer/older daemon degrades gracefully.
fn render_top(addr: &str, metrics: &str) -> String {
    let mut samples = std::collections::BTreeMap::new();
    for line in metrics.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            samples.insert(name.to_string(), value.to_string());
        }
    }
    let get = |k: &str| samples.get(k).cloned().unwrap_or_else(|| "-".to_string());
    let uptime = samples
        .get("mspecd_uptime_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map_or_else(|| "-".to_string(), |ms| format!("{}.{:01}s", ms / 1000, (ms % 1000) / 100));
    let mut out = String::new();
    out.push_str(&format!("mspecd @ {addr}   up {uptime}\n\n"));
    out.push_str(&format!(
        "  req/s {:<8} shed/s {:<8} memo-hit {}\n",
        get("mspecd_req_rate"),
        get("mspecd_shed_rate"),
        get("mspecd_memo_hit_ratio"),
    ));
    out.push_str(&format!(
        "  requests {:<7} ok {:<7} errors {:<5} shed {:<5} panics {:<4} deadline {}\n",
        get("mspecd_requests_total"),
        get("mspecd_ok_total"),
        get("mspecd_errors_total"),
        get("mspecd_shed_total"),
        get("mspecd_panics_total"),
        get("mspecd_deadline_expired_total"),
    ));
    out.push_str(&format!(
        "  queue {:<4} in-flight {:<4} clients {}\n",
        get("mspecd_queue_depth"),
        get("mspecd_in_flight"),
        get("mspecd_clients"),
    ));
    out.push_str(&format!(
        "  latency-us p50 {:<8} p90 {:<8} p99 {:<8} (n={})\n",
        get("mspecd_latency_us{quantile=\"0.5\"}"),
        get("mspecd_latency_us{quantile=\"0.9\"}"),
        get("mspecd_latency_us{quantile=\"0.99\"}"),
        get("mspecd_latency_us_count"),
    ));
    out.push_str(&format!(
        "  cache: programs {} artefacts {} memo {} compiled {} evictions {}\n",
        get("mspecd_cache_programs"),
        get("mspecd_cache_artefacts"),
        get("mspecd_cache_memo"),
        get("mspecd_cache_compiled"),
        get("mspecd_cache_evictions_total"),
    ));
    out.push_str(&format!(
        "  disk: hits {} stores {}   flight events {}\n",
        get("mspecd_cache_disk_hits_total"),
        get("mspecd_cache_disk_stores_total"),
        get("mspecd_flight_recorded_total"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspec_core::SpecArg;
    use mspec_lang::eval::Value;
    use mspec_serve::parse_value;

    #[test]
    fn parses_values() {
        assert_eq!(parse_value("42").unwrap(), Value::nat(42));
        assert_eq!(parse_value("true").unwrap(), Value::bool_(true));
        assert_eq!(parse_value("[]").unwrap(), Value::Nil);
        assert_eq!(
            parse_value("[1;2;3]").unwrap(),
            Value::list(vec![Value::nat(1), Value::nat(2), Value::nat(3)])
        );
        assert_eq!(
            parse_value("[[1];[]]").unwrap(),
            Value::list(vec![Value::list(vec![Value::nat(1)]), Value::Nil])
        );
        assert!(parse_value("nope").is_err());
    }

    #[test]
    fn parses_divisions() {
        let d = parse_division("S:3,D,P:4").unwrap();
        assert_eq!(d.len(), 3);
        assert!(matches!(d[0], SpecArg::Static(Value::Nat(3))));
        assert!(matches!(d[1], SpecArg::Dynamic));
        assert!(matches!(d[2], SpecArg::StaticSpine(4)));
        assert!(parse_division("X").is_err());
        assert!(parse_division("").unwrap().is_empty());
    }

    #[test]
    fn parses_options() {
        let args: Vec<String> = [
            "prog.mspec",
            "--entry",
            "M.f",
            "--args",
            "S:1,D",
            "--strategy",
            "df",
            "--force-residual",
            "M.f,M.g",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(opts.file, "prog.mspec");
        assert_eq!(opts.entry, Some(("M".into(), "f".into())));
        assert!(matches!(opts.strategy, Strategy::DepthFirst));
        assert_eq!(opts.force_residual.len(), 2);
    }

    #[test]
    fn rejects_bad_options() {
        let args: Vec<String> = ["--bogus".to_string()].into();
        assert!(parse_opts(&args).is_err());
        assert!(parse_opts(&[]).is_err());
    }

    #[test]
    fn parses_budget_options() {
        let args: Vec<String> = [
            "prog.mspec",
            "--fuel",
            "5000",
            "--max-spec",
            "4",
            "--on-exhaustion",
            "generalise",
            "--runner",
            "tree",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(opts.fuel, Some(5000));
        assert_eq!(opts.max_spec, Some(4));
        assert!(matches!(opts.on_exhaustion, OnExhaustion::Generalise));
        assert!(matches!(opts.runner, Runner::Tree));
        let eo = opts.engine_options();
        assert_eq!(eo.budget.steps, 5000);
        assert_eq!(eo.budget.max_specialisations, 4);
        assert!(matches!(eo.on_exhaustion, OnExhaustion::Generalise));
    }

    #[test]
    fn budget_options_default_to_engine_defaults() {
        let args: Vec<String> = ["prog.mspec".to_string()].into();
        let opts = parse_opts(&args).unwrap();
        assert_eq!(opts.fuel, None);
        assert_eq!(opts.max_spec, None);
        assert!(matches!(opts.on_exhaustion, OnExhaustion::Error));
        assert!(matches!(opts.runner, Runner::Vm));
        let eo = opts.engine_options();
        let defaults = EngineOptions::default();
        assert_eq!(eo.budget.steps, defaults.budget.steps);
        assert_eq!(eo.budget.max_specialisations, defaults.budget.max_specialisations);
    }

    #[test]
    fn threads_is_a_serve_option_only() {
        let args: Vec<String> =
            ["p.mspec", "--threads", "2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_opts(&args).err().unwrap(), "unknown option --threads");
    }

    #[test]
    fn parses_req_filter_in_decimal_and_hex() {
        let dec: Vec<String> =
            ["t.jsonl", "--req", "12345"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_opts(&dec).unwrap().req, Some(12345));
        let hex: Vec<String> =
            ["t.jsonl", "--req", "0xdeadbeef"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_opts(&hex).unwrap().req, Some(0xdead_beef));
        let bad: Vec<String> =
            ["t.jsonl", "--req", "nope"].iter().map(|s| s.to_string()).collect();
        assert!(parse_opts(&bad).is_err());
    }

    #[test]
    fn top_frame_renders_known_samples_and_degrades_on_missing_ones() {
        let metrics = "# HELP mspecd_uptime_ms x\n# TYPE mspecd_uptime_ms gauge\n\
                       mspecd_uptime_ms 12345\n\
                       # TYPE mspecd_requests_total counter\n\
                       mspecd_requests_total 42\n\
                       # TYPE mspecd_req_rate gauge\n\
                       mspecd_req_rate 4.200\n\
                       # TYPE mspecd_latency_us summary\n\
                       mspecd_latency_us{quantile=\"0.5\"} 210\n\
                       mspecd_latency_us_count 7\n";
        let frame = render_top("127.0.0.1:9", metrics);
        assert!(frame.contains("mspecd @ 127.0.0.1:9"), "{frame}");
        assert!(frame.contains("up 12.3s"), "{frame}");
        assert!(frame.contains("requests 42"), "{frame}");
        assert!(frame.contains("req/s 4.200"), "{frame}");
        assert!(frame.contains("p50 210"), "{frame}");
        assert!(frame.contains("(n=7)"), "{frame}");
        // Samples the daemon did not send render as "-", not a panic.
        assert!(frame.contains("p90 -"), "{frame}");
        assert!(frame.contains("queue -"), "{frame}");
    }

    #[test]
    fn rejects_bad_budget_values() {
        for bad in [
            vec!["p.mspec", "--fuel", "lots"],
            vec!["p.mspec", "--max-spec", "-1"],
            vec!["p.mspec", "--on-exhaustion", "panic"],
            vec!["p.mspec", "--runner", "jit"],
            vec!["p.mspec", "--fuel"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_opts(&args).is_err(), "expected error for {args:?}");
        }
    }
}
