//! The `mspec` command-line driver. `mspec help` prints every command
//! with its flags (see [`USAGE`]).
//!
//! One parser reads every command line, in one pass: [`COMMANDS`] pairs
//! each command's body with the flags it reads, [`parse`] parses each
//! flag in one place, and any flag a command does not read is refused as
//! `unknown option`. Flags are the only configuration: no environment
//! variable changes what a command does.

use mspec_core::telemetry::{self, Snapshot};
use mspec_core::{
    write_residual, EngineOptions, ModuleOutcome, OnExhaustion, Pipeline, Recorder, Runner,
    Strategy, VmOpt,
};
use mspec_lang::eval::with_big_stack;
use mspec_lang::QualName;
use mspec_serve::{parse_division, parse_values, RetryPolicy, ServeConfig};
use std::collections::BTreeSet;
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

/// A command's body, run on its parsed command line.
type Body = fn(&Opts) -> Result<(), String>;

/// Every command: its name, how many positional arguments it takes, the
/// flags its body reads, and the body. Any other flag is an `unknown
/// option`.
const COMMANDS: &[(&str, usize, &[&str], Body)] = &[
    ("check", 1, &[], check),
    ("analyse", 1, &["--force-residual"], analyse),
    (
        "build",
        1,
        &["--out", "--force-residual", "--trace", "--metrics"],
        |o| with_telemetry(o, build_cmd),
    ),
    (
        "spec",
        1,
        &[
            "--entry", "--args", "--strategy", "--out", "--force-residual", "--fuel",
            "--max-spec", "--on-exhaustion", "--cache-dir", "--trace", "--metrics",
        ],
        |o| with_telemetry(o, spec),
    ),
    (
        "link-spec",
        1,
        &[
            "--entry", "--args", "--strategy", "--out", "--fuel", "--max-spec",
            "--on-exhaustion", "--cache-dir", "--trace", "--metrics",
        ],
        |o| with_telemetry(o, link_spec),
    ),
    (
        "mix",
        1,
        &["--entry", "--args", "--out", "--fuel", "--max-spec", "--trace", "--metrics"],
        |o| with_telemetry(o, mix_cmd),
    ),
    ("run", 1, &["--entry", "--args", "--runner", "--vm-opt"], run_program),
    ("explain", 1, &["--log", "--req"], explain_cmd),
    ("trace-check", 1, &[], trace_check_cmd),
    ("trace flame", 1, &["--req"], trace_flame),
    ("cache gc", 0, &["--cache-dir", "--max-age-secs", "--max-bytes"], cache_gc),
    (
        "serve",
        0,
        &[
            "--stdio", "--port", "--max-clients", "--queue-depth", "--deadline-ms",
            "--client-fuel", "--threads", "--chaos", "--trace", "--vm-opt", "--memo-cap",
            "--cache-dir", "--cache-gc-bytes", "--crash-dir",
        ],
        serve_cmd,
    ),
    (
        "client",
        2,
        &[
            "--connect", "--spawn", "--chaos", "--entry", "--args", "--dir", "--values",
            "--run-fuel", "--fuel", "--max-spec", "--deadline-ms", "--retries", "--backoff-ms",
        ],
        client_cmd,
    ),
    ("top", 0, &["--connect", "--interval-ms", "--once"], top_cmd),
];

fn run(args: &[String]) -> Result<(), String> {
    let Some(word) = args.first() else {
        return Err(USAGE.to_string());
    };
    let rest = &args[1..];
    let (name, rest) = match word.as_str() {
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return Ok(());
        }
        "cache" => ("cache gc", second_word("cache", "gc", rest)?),
        "trace" => ("trace flame", second_word("trace", "flame", rest)?),
        other => (other, rest),
    };
    let (body, o) = parse(name, rest)?;
    body(&o)
}

/// The arguments after a two-word command's second word (`cache gc`,
/// `trace flame`).
fn second_word<'a>(cmd: &str, word: &str, args: &'a [String]) -> Result<&'a [String], String> {
    match args.first() {
        None => Err(format!("{cmd} needs a subcommand: {word}")),
        Some(w) if w == word => Ok(&args[1..]),
        Some(other) => Err(format!("{cmd}: unknown subcommand `{other}` (expected {word})")),
    }
}

/// `mspec help`: every command with the flags it reads.
const USAGE: &str = "\
usage: mspec COMMAND [ARG] [options]

check   FILE                          typecheck, print schemes
analyse FILE [--force-residual M.f,…] print BT schemes + annotations
build   SRC --out DIR                 incremental cogen: write .bti/.gx per
        [--force-residual M.f,…]      module (SRC: a module-per-file
                                      directory or one multi-module file)
spec    FILE --entry M.f --args DIV   specialise (DIV: S:<v>,D,P:<n>)
        [--strategy bf|df] [--out DIR] [--force-residual M.f,…]
        [--fuel N] [--max-spec N] [--on-exhaustion error|generalise]
        [--cache-dir DIR]
link-spec DIR --entry M.f --args DIV  specialise from .gx files (no source)
        [--strategy bf|df] [--out DIR] [--fuel N] [--max-spec N]
        [--on-exhaustion error|generalise] [--cache-dir DIR]
mix     FILE --entry M.f --args DIV   monolithic-mix baseline specialiser
        [--out DIR] [--fuel N] [--max-spec N]
run     FILE --entry M.f --args VALS  run the source program
        [--runner tree|vm] [--vm-opt none|fuse]
explain FN --log FILE [--req ID]      provenance of FN from a --metrics
                                      log (--req: one request's stream)
trace-check FILE                      validate a --trace/--metrics/
                                      metrics-exposition file
trace flame FILE [--req ID]           fold a JSONL trace into collapsed
                                      stacks (flamegraph.pl/speedscope)
cache gc --cache-dir DIR              prune the residual cache by age
        [--max-age-secs N]            and/or size, oldest first
        [--max-bytes N]
serve   [--stdio | --port N]          long-lived specialisation daemon
        [--max-clients N] [--queue-depth N] [--deadline-ms N]
        [--client-fuel N] [--threads N] [--chaos] [--trace FILE]
        [--vm-opt none|fuse] [--memo-cap N] [--cache-dir DIR]
        [--cache-gc-bytes N] [--crash-dir DIR]
client  ACTION [FILE]                 one request to a daemon; ACTION is
        (--connect HOST:PORT          spec, run, health, stats, metrics,
         | --spawn [--chaos])         fault or shutdown
        [--retries N] [--backoff-ms N]
        spec, run: --entry M.f --args DIV, FILE or --dir DIR,
        [--fuel N] [--max-spec N] [--deadline-ms N]
        run: [--values VALS] [--run-fuel N]
top     --connect HOST:PORT           live dashboard over the daemon's
        [--interval-ms N] [--once]    health + metrics endpoints

spec, mix, build and link-spec also accept --trace FILE (Chrome
trace_event JSON) and --metrics FILE (JSONL event log).
spec and link-spec accept --cache-dir DIR, a persistent residual
cache: a warm run with an unchanged program and request serves the
stored residual byte-identically with zero engine steps.
serve --threads N sets the daemon's worker count (default 2).
DIV is one entry per parameter: S:<value> static, D dynamic, P:<n>
a static spine of n dynamic elements. VALS are naturals, true/false
or [v;v;…] lists, comma-separated.";

/// One parsed command line: the positional arguments in order, and the
/// value of every flag. A field keeps its default unless the command
/// reads that flag and the user set it.
#[derive(Default)]
struct Opts {
    positional: Vec<String>,
    entry: Option<QualName>,
    args: Option<String>,
    out: Option<String>,
    force_residual: BTreeSet<QualName>,
    /// `--fuel` and `--max-spec` as given: residual-cache keys and
    /// daemon requests carry them unset when the user left them unset.
    fuel: Option<u64>,
    max_spec: Option<usize>,
    /// Strategy, budget and exhaustion policy for the engine, with
    /// `--fuel` and `--max-spec` applied.
    engine: EngineOptions,
    runner: Runner,
    vm_opt: VmOpt,
    trace: Option<String>,
    metrics: Option<String>,
    log: Option<String>,
    cache_dir: Option<String>,
    /// Request-scoped trace id filter (`--req`, for `explain` and
    /// `trace flame` over daemon traces).
    req: Option<u64>,
    max_age_secs: Option<u64>,
    max_bytes: Option<u64>,
    deadline_ms: Option<u64>,
    chaos: bool,
    /// The daemon's own settings (`serve`); `--chaos`, `--trace`,
    /// `--vm-opt`, `--cache-dir` and `--deadline-ms` are shared with other
    /// commands and join it in [`Opts::serve_config`].
    serve: ServeConfig,
    stdio: bool,
    connect: Option<String>,
    spawn: bool,
    dir: Option<String>,
    values: Option<String>,
    run_fuel: Option<u64>,
    retry: RetryPolicy,
    interval_ms: Option<u64>,
    once: bool,
}

/// Parses `cmd`'s arguments in one pass, returning its body with them.
///
/// # Errors
///
/// `unknown command` for a command not in [`COMMANDS`], `unknown option
/// --X` for a flag `cmd` does not read, `unexpected argument` past the
/// command's positional arguments, and a message naming the flag for a
/// missing or malformed value.
fn parse(cmd: &str, args: &[String]) -> Result<(Body, Opts), String> {
    let Some(&(_, positional, flags, body)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        return Err(format!("unknown command `{cmd}`\n{USAGE}"));
    };
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            if o.positional.len() == positional {
                return Err(format!("unexpected argument `{arg}`"));
            }
            o.positional.push(arg.clone());
            continue;
        }
        if !flags.contains(&flag) {
            return Err(format!("unknown option {flag}"));
        }
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--stdio" => o.stdio = true,
            "--spawn" => o.spawn = true,
            "--chaos" => o.chaos = true,
            "--once" => o.once = true,
            "--entry" => o.entry = Some(qual_name(&value()?)?),
            "--force-residual" => {
                for part in value()?.split(',') {
                    o.force_residual.insert(qual_name(part)?);
                }
            }
            "--strategy" => {
                o.engine.strategy = match value()?.as_str() {
                    "bf" => Strategy::BreadthFirst,
                    "df" => Strategy::DepthFirst,
                    v => return Err(format!("--strategy must be bf or df, got `{v}`")),
                };
            }
            "--on-exhaustion" => {
                o.engine.on_exhaustion = match value()?.as_str() {
                    "error" => OnExhaustion::Error,
                    "generalise" => OnExhaustion::Generalise,
                    v => {
                        return Err(format!("--on-exhaustion must be error or generalise, got `{v}`"))
                    }
                };
            }
            "--runner" => {
                let v = value()?;
                o.runner = Runner::parse(&v)
                    .ok_or_else(|| format!("--runner must be tree or vm, got `{v}`"))?;
            }
            "--vm-opt" => {
                let v = value()?;
                o.vm_opt = VmOpt::parse(&v)
                    .ok_or_else(|| format!("--vm-opt must be none or fuse, got `{v}`"))?;
            }
            "--req" => {
                // Daemon trace ids are fnv64 hashes printed in hex by
                // `trace-check`; accept decimal and 0x-prefixed hex.
                let v = value()?;
                let parsed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse::<u64>(), |h| u64::from_str_radix(h, 16));
                o.req = Some(parsed.map_err(|_| format!("bad --req value `{v}`"))?);
            }
            "--fuel" => {
                let n = number(flag, &value()?, 0)?;
                o.engine.budget.steps = n;
                o.fuel = Some(n);
            }
            "--max-spec" => {
                let n = number(flag, &value()?, 0)?;
                o.engine.budget.max_specialisations = n;
                o.max_spec = Some(n);
            }
            "--args" => o.args = Some(value()?),
            "--out" => o.out = Some(value()?),
            "--trace" => o.trace = Some(value()?),
            "--metrics" => o.metrics = Some(value()?),
            "--log" => o.log = Some(value()?),
            "--cache-dir" => o.cache_dir = Some(value()?),
            "--crash-dir" => o.serve.crash_dir = Some(value()?),
            "--connect" => o.connect = Some(value()?),
            "--dir" => o.dir = Some(value()?),
            "--values" => o.values = Some(value()?),
            "--max-age-secs" => o.max_age_secs = Some(number(flag, &value()?, 0)?),
            "--max-bytes" => o.max_bytes = Some(number(flag, &value()?, 0)?),
            "--deadline-ms" => o.deadline_ms = Some(number(flag, &value()?, 1)?),
            "--port" => o.serve.port = number(flag, &value()?, 0)?,
            "--max-clients" => o.serve.max_clients = number(flag, &value()?, 1)?,
            "--queue-depth" => o.serve.queue_depth = number(flag, &value()?, 1)?,
            "--client-fuel" => o.serve.client_fuel = number(flag, &value()?, 1)?,
            "--threads" => o.serve.workers = number(flag, &value()?, 1)?,
            "--memo-cap" => o.serve.memo_cap = number(flag, &value()?, 1)?,
            "--cache-gc-bytes" => o.serve.cache_gc_bytes = Some(number(flag, &value()?, 1)?),
            "--run-fuel" => o.run_fuel = Some(number(flag, &value()?, 0)?),
            "--retries" => o.retry.max_attempts = number(flag, &value()?, 0)?,
            "--backoff-ms" => {
                let ms = number(flag, &value()?, 0)?;
                o.retry.base_backoff = std::time::Duration::from_millis(ms);
            }
            "--interval-ms" => o.interval_ms = Some(number(flag, &value()?, 0)?),
            _ => unreachable!("{flag} is listed in COMMANDS but has no parser"),
        }
    }
    Ok((body, o))
}

fn qual_name(v: &str) -> Result<QualName, String> {
    let (m, f) = v.split_once('.').ok_or_else(|| format!("`{v}` must be Module.function"))?;
    Ok(QualName::new(m, f))
}

/// Parses `flag`'s value as a whole number of at least `min` that fits
/// `T`. Every numeric flag goes through here, so every error names the
/// flag that carried the bad value.
fn number<T: TryFrom<u64>>(flag: &str, v: &str, min: u64) -> Result<T, String> {
    let v = v.trim();
    match v.parse::<u64>().ok().and_then(|n| Some((n, T::try_from(n).ok()?))) {
        None => Err(format!("{flag} expects a positive integer, got `{v}`")),
        Some((n, _)) if n < min => Err(format!("{flag} requires at least {min} (got {n})")),
        Some((_, t)) => Ok(t),
    }
}

impl Opts {
    /// The `i`th positional argument, named `what` in the error when it
    /// is missing.
    fn positional(&self, i: usize, what: &str) -> Result<&str, String> {
        self.positional.get(i).map(String::as_str).ok_or_else(|| format!("missing {what}"))
    }

    fn file(&self) -> Result<&str, String> {
        self.positional(0, "FILE")
    }

    /// The daemon's configuration: the daemon-only settings, joined by
    /// the flags `serve` shares with other commands.
    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            chaos: self.chaos,
            trace_path: self.trace.clone(),
            vm_opt: self.vm_opt,
            cache_dir: self.cache_dir.clone(),
            deadline_ms: self.deadline_ms.unwrap_or(self.serve.deadline_ms),
            ..self.serve.clone()
        }
    }

    fn entry(&self, cmd: &str) -> Result<QualName, String> {
        self.entry.ok_or_else(|| format!("{cmd} needs --entry M.f"))
    }

    /// `--entry` and `--args DIVISION`, both required by `cmd`.
    fn entry_and_division(&self, cmd: &str) -> Result<(QualName, &str), String> {
        let entry = self.entry(cmd)?;
        Ok((entry, self.args.as_deref().ok_or_else(|| format!("{cmd} needs --args DIVISION"))?))
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
    o: &Opts,
    cmd: impl FnOnce(&Opts, &Recorder) -> Result<(), String>,
) -> Result<(), String> {
    let rec = o.recorder();
    let outcome = cmd(o, &rec);
    o.finish_telemetry(&rec, outcome)
}

fn open_cache(dir: &str) -> Result<mspec_cache::DiskCache, String> {
    mspec_cache::DiskCache::open(dir).map_err(|e| format!("cannot open cache dir {dir}: {e}"))
}

/// One `spec`/`link-spec` request's slot in the persistent residual
/// cache.
struct ResidualCache {
    cache: mspec_cache::DiskCache,
    key: String,
}

impl ResidualCache {
    /// Opens `--cache-dir` and keys the request on the program's
    /// `source_key` (computed only when a cache is configured) plus
    /// every flag that shapes the residual; `Ok(None)` without a cache.
    fn open(
        o: &Opts,
        entry: &str,
        division: &str,
        source_key: impl FnOnce() -> Result<String, String>,
    ) -> Result<Option<ResidualCache>, String> {
        let Some(dir) = &o.cache_dir else { return Ok(None) };
        let cache = open_cache(dir)?;
        let key = mspec_cache::spec_key(
            &source_key()?,
            entry,
            division,
            o.fuel,
            o.max_spec,
            o.engine.on_exhaustion,
            o.engine.strategy,
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

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn build_pipeline(o: &Opts, rec: &Recorder) -> Result<Pipeline, String> {
    let src = read_source(o.file()?)?;
    let program = {
        let _span = rec.span("parse");
        mspec_lang::parser::parse_program(&src).map_err(|e| e.to_string())?
    };
    Pipeline::from_program_traced(program, &o.force_residual, rec).map_err(|e| e.to_string())
}

fn build_cmd(o: &Opts, rec: &Recorder) -> Result<(), String> {
    let out = o.out.as_deref().ok_or("build needs --out DIR")?;
    let mut bopts = mspec_cogen::build::BuildOptions::default();
    for q in &o.force_residual {
        bopts.force_residual.entry(q.module).or_default().insert(q.name);
    }
    let report =
        mspec_cogen::build::build_traced(o.file()?, out, &bopts, rec).map_err(|e| e.to_string())?;
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

fn link_spec(o: &Opts, rec: &Recorder) -> Result<(), String> {
    let dir = o.file()?;
    let (entry, division) = o.entry_and_division("link-spec")?;
    let spec_args = parse_division(division)?;
    // Persistent residual cache. The key embeds the directory's current
    // identity, the checksums of all its `.bti` and `.gx` files —
    // recomputing it from disk *is* the staleness check (the same
    // identity the daemon's memo uses), so a rebuilt interface or
    // genext simply misses and re-links. It is taken before linking,
    // so a rebuild racing this run can never key old genexts' residual
    // under the new identity.
    let cache = ResidualCache::open(o, &entry.to_string(), division, || {
        Ok(mspec_cache::dir_source_key(dir, mspec_cache::dir_identity(dir)))
    })?;
    if o.out.is_none() && cache.as_ref().is_some_and(ResidualCache::serve) {
        return Ok(());
    }
    let linked = mspec_cogen::build::link_dir_traced(dir, rec).map_err(|e| e.to_string())?;
    let mut engine = mspec_genext::Engine::with_recorder(&linked, o.engine, rec.clone());
    let residual = engine.specialise(&entry, spec_args).map_err(|e| e.to_string())?;
    let stats = *engine.stats();
    // Bytes of `.gx` function payload decoded on demand during the
    // run; together with the load-time count in `link_dir_traced` this
    // is the seekable format's total decode cost.
    rec.count("io.gx_bytes_decoded", linked.lazy_decoded_bytes());
    let residual_text = mspec_lang::pretty::pretty_program(&residual.program);
    println!("{residual_text}");
    eprintln!("{}", stats.summary(residual.entry.to_string()));
    write_out(o, &residual)?;
    if let Some(c) = &cache {
        c.store(residual.entry.to_string(), residual_text, stats);
    }
    Ok(())
}

/// Writes the residual's module files under `--out`, if given.
fn write_out(o: &Opts, residual: &mspec_genext::ResidualProgram) -> Result<(), String> {
    if let Some(dir) = &o.out {
        for f in write_residual(dir, residual).map_err(|e| e.to_string())? {
            eprintln!("wrote {}", f.display());
        }
    }
    Ok(())
}

fn check(o: &Opts) -> Result<(), String> {
    let pipeline = build_pipeline(o, &Recorder::disabled())?;
    println!("ok: {} modules, {} functions", pipeline.resolved().program().modules.len(),
        pipeline.types().len());
    for (q, scheme) in pipeline.types().iter() {
        println!("  {q} : {scheme}");
    }
    Ok(())
}

fn analyse(o: &Opts) -> Result<(), String> {
    let pipeline = build_pipeline(o, &Recorder::disabled())?;
    for module in &pipeline.annotated().modules {
        println!("-- module {}", module.name);
        for def in &module.defs {
            println!("  {}.{} : {}", module.name, def.name, def.sig);
            println!("    {def}");
        }
    }
    Ok(())
}

fn spec(o: &Opts, rec: &Recorder) -> Result<(), String> {
    let (entry, division) = o.entry_and_division("spec")?;
    let spec_args = parse_division(division)?;
    // Persistent residual cache, probed before the pipeline is even
    // built: a warm run skips parse, BTA, cogen *and* the engine.
    // `--force-residual` perturbs the residual without being part of
    // the shared key (the daemon has no such knob), and `--out` needs
    // the typed residual — both opt out.
    let cache = if o.force_residual.is_empty() && o.out.is_none() {
        ResidualCache::open(o, &entry.to_string(), division, || {
            Ok(mspec_cache::inline_source_key(&read_source(o.file()?)?))
        })?
    } else {
        None
    };
    if cache.as_ref().is_some_and(ResidualCache::serve) {
        return Ok(());
    }
    let pipeline = build_pipeline(o, rec)?;
    let (m, f) = (entry.module.as_str(), entry.name.as_str());
    let spec =
        pipeline.specialise_traced(m, f, spec_args, o.engine, rec).map_err(|e| e.to_string())?;
    println!("{}", spec.source());
    eprintln!("{}", spec.stats.summary(spec.residual.entry.to_string()));
    eprint!("{}", spec.provenance_report());
    write_out(o, &spec.residual)?;
    if let Some(c) = &cache {
        c.store(spec.residual.entry.to_string(), spec.source().to_string(), spec.stats);
    }
    Ok(())
}

fn mix_cmd(o: &Opts, rec: &Recorder) -> Result<(), String> {
    let (entry, division) = o.entry_and_division("mix")?;
    let spec_args = parse_division(division)?;
    let src = read_source(o.file()?)?;
    let mix_opts = mspec_mix::MixOptions { budget: o.engine.budget, ..Default::default() };
    let (m, f) = (entry.module.as_str(), entry.name.as_str());
    let outcome = mspec_mix::mix_specialise_traced(&src, m, f, spec_args, mix_opts, rec)
        .map_err(|e| e.to_string())?;
    println!("{}", mspec_lang::pretty::pretty_program(&outcome.residual.program));
    eprintln!("{}", outcome.stats.summary(outcome.residual.entry.to_string()));
    write_out(o, &outcome.residual)
}

fn explain_cmd(o: &Opts) -> Result<(), String> {
    let function = o.positional(0, "FN")?;
    let log = o
        .log
        .as_deref()
        .ok_or("explain needs --log FILE (a JSONL event log written by --metrics)")?;
    let text = read_source(log)?;
    let snap = Snapshot::parse_jsonl(&text).map_err(|e| format!("{log}: {e}"))?;
    match telemetry::explain_req(&snap, function, o.req) {
        Some(report) => {
            println!("{report}");
            Ok(())
        }
        None => {
            let scope = o.req.map_or(String::new(), |r| format!(" for request {r:#x}"));
            Err(format!("no specialisation events for `{function}`{scope} in {log}"))
        }
    }
}

/// `mspec trace flame FILE [--req ID]`: fold a JSONL trace's span tree
/// into collapsed-stack lines (`frame;frame value`), the input format
/// of `flamegraph.pl` and speedscope. The value is self time in µs.
fn trace_flame(o: &Opts) -> Result<(), String> {
    let file = o.file()?;
    let text = read_source(file)?;
    let snap = Snapshot::parse_jsonl(&text).map_err(|e| format!("{file}: {e}"))?;
    let folded = telemetry::collapsed_stacks(&snap, o.req);
    if folded.is_empty() {
        let scope = o.req.map_or(String::new(), |r| format!(" for request {r:#x}"));
        return Err(format!("no spans{scope} in {file}"));
    }
    print!("{folded}");
    Ok(())
}

/// `mspec cache gc`: prune a persistent residual cache by age and/or
/// total size (oldest entries first). Safe against concurrent readers —
/// a pruned entry is a future cache miss, nothing more.
fn cache_gc(o: &Opts) -> Result<(), String> {
    let dir = o.cache_dir.as_deref().ok_or("cache gc needs --cache-dir DIR")?;
    let r = open_cache(dir)?
        .gc(o.max_age_secs, o.max_bytes)
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

fn trace_check_cmd(o: &Opts) -> Result<(), String> {
    let file = o.file()?;
    let text = read_source(file)?;
    let report = telemetry::validate(&text).map_err(|e| format!("{file}: {e}"))?;
    println!("{report}");
    Ok(())
}

fn run_program(o: &Opts) -> Result<(), String> {
    let entry = o.entry("run")?;
    let values = parse_values(o.args.as_deref().unwrap_or(""))?;
    let pipeline = build_pipeline(o, &Recorder::disabled())?;
    let (m, f) = (entry.module.as_str(), entry.name.as_str());
    let v = pipeline.run_source_opt(o.runner, o.vm_opt, m, f, values).map_err(|e| e.to_string())?;
    println!("{v}");
    Ok(())
}

/// `mspec serve`: run the specialisation daemon over stdio or TCP.
fn serve_cmd(o: &Opts) -> Result<(), String> {
    let cfg = o.serve_config();
    // Validate the cache directory up front so a bad path is a startup
    // error, not a silently cold daemon.
    if let Some(dir) = &cfg.cache_dir {
        open_cache(dir).map_err(|e| format!("serve: {e}"))?;
    }
    let rec = if cfg.trace_path.is_some() { Recorder::enabled() } else { Recorder::disabled() };
    let server = mspec_serve::Server::new(cfg.clone(), rec);
    if o.stdio {
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
fn client_cmd(o: &Opts) -> Result<(), String> {
    let action =
        o.positional(0, "ACTION: spec, run, health, stats, metrics, fault or shutdown")?;
    let file = o.positional.get(1);
    let mut client = if let Some(addr) = &o.connect {
        mspec_serve::Client::tcp(addr.clone())
    } else if o.spawn {
        let exe = std::env::current_exe().map_err(|e| format!("client: {e}"))?;
        let mut serve_args = vec!["serve".to_string(), "--stdio".to_string()];
        if o.chaos {
            serve_args.push("--chaos".to_string());
        }
        mspec_serve::Client::spawn(exe.display().to_string(), serve_args)
    } else {
        return Err("client needs --connect HOST:PORT or --spawn".into());
    }
    .with_policy(o.retry);
    let spec_request = |action: &str| -> Result<mspec_serve::SpecRequest, String> {
        let entry = o.entry(&format!("client {action}"))?.to_string();
        let program = match (file, &o.dir) {
            (Some(f), None) => Some(read_source(f)?),
            (None, Some(_)) => None,
            (None, None) => return Err(format!("client {action} needs FILE or --dir DIR")),
            (Some(_), Some(_)) => {
                return Err(format!("client {action} takes FILE or --dir, not both"))
            }
        };
        Ok(mspec_serve::SpecRequest {
            program,
            dir: o.dir.clone(),
            fuel: o.fuel,
            max_spec: o.max_spec,
            deadline_ms: o.deadline_ms,
            ..mspec_serve::SpecRequest::inline("", &entry, o.args.as_deref().unwrap_or(""))
        })
    };
    let kind = match action {
        "spec" => mspec_serve::RequestKind::Spec(spec_request("spec")?),
        "run" => mspec_serve::RequestKind::Run(mspec_serve::RunRequest {
            spec: spec_request("run")?,
            values: o.values.clone().unwrap_or_default(),
            run_fuel: o.run_fuel,
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
        mspec_serve::ResponseBody::Spec { entry, residual, stats, memo_hit } => {
            // Byte-identical to `mspec spec` output on stdout.
            println!("{residual}");
            let hit = if memo_hit { " [memo hit]" } else { "" };
            eprintln!("{}{hit}", stats.summary(entry.as_str()));
        }
        mspec_serve::ResponseBody::Run { entry, value, memo_hit, compiled_hit, instructions } => {
            println!("{value}");
            let memo = if memo_hit { " [memo hit]" } else { "" };
            let warm = if compiled_hit { " [compiled hit]" } else { "" };
            eprintln!("{entry}: {instructions} vm instructions{memo}{warm}");
        }
        mspec_serve::ResponseBody::Health { uptime_ms, counters } => {
            println!("uptime_ms = {uptime_ms}");
            for (k, v) in counters {
                println!("{k} = {v}");
            }
        }
        mspec_serve::ResponseBody::Stats { counters } => {
            for (k, v) in counters {
                println!("{k} = {v}");
            }
        }
        // The raw exposition, scrapeable as-is.
        mspec_serve::ResponseBody::Metrics { text } => print!("{text}"),
        mspec_serve::ResponseBody::Ok => println!("ok"),
        mspec_serve::ResponseBody::Error(info) => {
            let kind = if info.retryable { "retryable" } else { "terminal" };
            let msg = format!(
                "daemon error: {} ({kind}): {} (after {} attempt(s))",
                info.class.as_str(),
                info.message,
                client.last_attempts
            );
            // An injected fault answered with a typed error *is* the
            // expected outcome; report it and exit cleanly.
            if action != "fault" {
                return Err(msg);
            }
            eprintln!("{msg}");
        }
    }
    Ok(())
}

/// `mspec top`: a live TTY dashboard over the daemon's read-only
/// `metrics` endpoint. Each frame is one `metrics` round-trip —
/// answered inline by the daemon, so the view keeps refreshing while
/// the worker pool is saturated. `--once` prints a single frame and
/// exits (scriptable smoke check); otherwise the screen is cleared and
/// redrawn every `--interval-ms` (default 1000) until interrupted.
fn top_cmd(o: &Opts) -> Result<(), String> {
    let addr = o.connect.as_deref().ok_or("top needs --connect HOST:PORT")?;
    let interval_ms = o.interval_ms.unwrap_or(1_000).max(100);
    let mut client = mspec_serve::Client::tcp(addr);
    loop {
        let reply = client.metrics().map_err(|e| format!("top: {e}"))?;
        let mspec_serve::ResponseBody::Metrics { text } = reply.body else {
            return Err("top: daemon did not answer the metrics request".to_string());
        };
        let frame = render_top(addr, &text);
        if o.once {
            print!("{frame}");
            return Ok(());
        }
        // ANSI clear + home, then the refreshed frame. Plain escape
        // codes keep this zero-dependency.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
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

    fn parse_line(cmd: &str, args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(cmd, &args).map(|(_, o)| o)
    }

    fn serve_error(args: &[&str]) -> String {
        parse_line("serve", args).err().unwrap()
    }

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
        let opts = parse_line(
            "spec",
            &["prog.mspec", "--entry", "M.f", "--args", "S:1,D", "--strategy", "df",
              "--force-residual", "M.f,M.g"],
        )
        .unwrap();
        assert_eq!(opts.file().unwrap(), "prog.mspec");
        assert_eq!(opts.entry, Some(QualName::new("M", "f")));
        assert!(matches!(opts.engine.strategy, Strategy::DepthFirst));
        assert_eq!(opts.force_residual.len(), 2);
    }

    #[test]
    fn rejects_bad_options() {
        assert_eq!(parse_line("spec", &["--bogus"]).err().unwrap(), "unknown option --bogus");
        assert_eq!(parse_line("check", &[]).unwrap().file().unwrap_err(), "missing FILE");
        assert_eq!(
            parse_line("check", &["a.mspec", "b.mspec"]).err().unwrap(),
            "unexpected argument `b.mspec`"
        );
        assert!(parse_line("frobnicate", &[]).err().unwrap().starts_with("unknown command"));
    }

    #[test]
    fn parses_budget_options() {
        let opts = parse_line(
            "spec",
            &["prog.mspec", "--fuel", "5000", "--max-spec", "4", "--on-exhaustion", "generalise"],
        )
        .unwrap();
        assert_eq!(opts.fuel, Some(5000));
        assert_eq!(opts.max_spec, Some(4));
        assert_eq!(opts.engine.budget.steps, 5000);
        assert_eq!(opts.engine.budget.max_specialisations, 4);
        assert!(matches!(opts.engine.on_exhaustion, OnExhaustion::Generalise));
        let run = parse_line("run", &["prog.mspec", "--runner", "tree"]).unwrap();
        assert!(matches!(run.runner, Runner::Tree));
    }

    #[test]
    fn budget_options_default_to_engine_defaults() {
        let opts = parse_line("spec", &["prog.mspec"]).unwrap();
        assert_eq!(opts.fuel, None);
        assert_eq!(opts.max_spec, None);
        assert!(matches!(opts.engine.on_exhaustion, OnExhaustion::Error));
        assert!(matches!(opts.runner, Runner::Vm));
        let defaults = EngineOptions::default();
        assert_eq!(opts.engine.budget.steps, defaults.budget.steps);
        assert_eq!(opts.engine.budget.max_specialisations, defaults.budget.max_specialisations);
    }

    #[test]
    fn threads_is_a_serve_option_only() {
        for cmd in ["spec", "link-spec", "build"] {
            let err = parse_line(cmd, &["p.mspec", "--threads", "2"]).err().unwrap();
            assert_eq!(err, "unknown option --threads", "{cmd}");
        }
        assert_eq!(parse_line("serve", &["--threads", "2"]).unwrap().serve.workers, 2);
    }

    #[test]
    fn parses_req_filter_in_decimal_and_hex() {
        let req = |v: &str| parse_line("trace flame", &["t.jsonl", "--req", v]).map(|o| o.req);
        assert_eq!(req("12345").unwrap(), Some(12345));
        assert_eq!(req("0xdeadbeef").unwrap(), Some(0xdead_beef));
        assert!(req("nope").is_err());
    }

    #[test]
    fn rejects_bad_budget_values() {
        for (cmd, bad) in [
            ("spec", vec!["p.mspec", "--fuel", "lots"]),
            ("spec", vec!["p.mspec", "--max-spec", "-1"]),
            ("spec", vec!["p.mspec", "--on-exhaustion", "panic"]),
            ("run", vec!["p.mspec", "--runner", "jit"]),
            ("spec", vec!["p.mspec", "--fuel"]),
        ] {
            assert!(parse_line(cmd, &bad).is_err(), "expected error for {cmd} {bad:?}");
        }
        assert_eq!(
            parse_line("spec", &["p.mspec", "--fuel", "lots"]).err().unwrap(),
            "--fuel expects a positive integer, got `lots`"
        );
        let missing = parse_line("spec", &["p.mspec", "--fuel"]).err().unwrap();
        assert_eq!(missing, "--fuel needs a value");
    }

    #[test]
    fn errors_name_the_flag() {
        assert_eq!(
            serve_error(&["--queue-depth", "0"]),
            "--queue-depth requires at least 1 (got 0)"
        );
        assert_eq!(
            serve_error(&["--deadline-ms", "soon"]),
            "--deadline-ms expects a positive integer, got `soon`"
        );
        assert_eq!(
            serve_error(&["--max-clients", "-3"]),
            "--max-clients expects a positive integer, got `-3`"
        );
    }

    #[test]
    fn port_zero_means_os_assigned() {
        assert_eq!(parse_line("serve", &["--port", "0"]).unwrap().serve.port, 0);
        assert_eq!(
            serve_error(&["--port", "70000"]),
            "--port expects a positive integer, got `70000`"
        );
    }

    #[test]
    fn memo_cap_knob_applies_and_rejects_zero() {
        assert_eq!(parse_line("serve", &[]).unwrap().serve_config().memo_cap, 1024);
        assert_eq!(parse_line("serve", &["--memo-cap", "8"]).unwrap().serve_config().memo_cap, 8);
        assert_eq!(serve_error(&["--memo-cap", "0"]), "--memo-cap requires at least 1 (got 0)");
    }

    #[test]
    fn workers_knob_applies_and_rejects_zero() {
        assert_eq!(parse_line("serve", &[]).unwrap().serve_config().workers, 2);
        assert_eq!(parse_line("serve", &["--threads", "4"]).unwrap().serve_config().workers, 4);
        assert_eq!(serve_error(&["--threads", "0"]), "--threads requires at least 1 (got 0)");
    }

    #[test]
    fn cache_gc_bytes_knob_applies() {
        assert_eq!(parse_line("serve", &[]).unwrap().serve_config().cache_gc_bytes, None);
        let cfg = parse_line("serve", &["--cache-gc-bytes", "65536"]).unwrap().serve_config();
        assert_eq!(cfg.cache_gc_bytes, Some(65_536));
        assert_eq!(
            serve_error(&["--cache-gc-bytes", "0"]),
            "--cache-gc-bytes requires at least 1 (got 0)"
        );
    }

    #[test]
    fn flags_apply_and_values_land() {
        let cfg = parse_line(
            "serve",
            &["--queue-depth", "7", "--deadline-ms", " 250 ", "--client-fuel", "123456",
              "--max-clients", "3", "--chaos", "--vm-opt", "fuse", "--cache-dir", "c",
              "--trace", "t.jsonl", "--crash-dir", "d"],
        )
        .unwrap()
        .serve_config();
        assert_eq!(cfg.queue_depth, 7);
        assert_eq!(cfg.deadline_ms, 250);
        assert_eq!(cfg.client_fuel, 123_456);
        assert_eq!(cfg.max_clients, 3);
        assert!(cfg.chaos);
        assert_eq!(cfg.vm_opt, VmOpt::Fuse);
        assert_eq!(cfg.cache_dir.as_deref(), Some("c"));
        assert_eq!(cfg.trace_path.as_deref(), Some("t.jsonl"));
        assert_eq!(cfg.crash_dir.as_deref(), Some("d"));
        assert_eq!(parse_line("serve", &[]).unwrap().serve_config().deadline_ms, 30_000);
    }

    /// Every flag a command lists has a parser: a listed flag that fell
    /// through to the `unreachable!` arm would panic here.
    #[test]
    fn every_listed_flag_has_a_parser_and_a_usage_line() {
        for (cmd, _, flags, _) in COMMANDS {
            for flag in *flags {
                let _ = parse_line(cmd, &[flag, "1"]);
                assert!(USAGE.contains(flag), "USAGE does not mention {flag}");
            }
        }
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
}
