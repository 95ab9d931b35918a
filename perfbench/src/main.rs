//! The mspec benchmark: one seeded runner for every path users take.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-run|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up and measures all three paths, so every end-to-end
//! metric exists on every workload:
//!
//! * `lib-build` — `mspec build` + `mspec link-spec --cache-dir`
//!   (cold builds, cold and warm link-specs) on one thread;
//! * `spec-run` — `Pipeline::specialise_opts`, `source()` and
//!   `Specialised::run` in process on one thread, nothing repeated;
//! * `serve-mix` — an in-process `mspecd` on loopback TCP, two
//!   persistent closed-loop client connections, skewed keys.
//!
//! The workloads are `spec-run` and `serve-mix`: the named path gets
//! half of the run's time ([`PRIMARY_SHARE`]), the other two a quarter
//! each. `lib-build` is measured on a quarter of every run but is not a
//! workload of its own: given half of each run, the storage-bound path
//! spread from run to run beyond the bounds on a small shared machine.
//!
//! All inputs derive from `--seed`. Outputs are checked against oracles
//! (tree-evaluated source, whole-program residuals, batch
//! specialisation) outside the timed regions; every wrong output is
//! printed with its seed and request and counted in `failed`. Each
//! metric is printed as a `row` line (unit, sample count, cores, git
//! rev, seed); with `--trace 0` the last stdout line carries the gated
//! end-to-end metrics ([`E2E`]), with `--trace 1` a separate traced run
//! records spans around each layer call (written to `.bench_out/`) and
//! the last line carries the per-layer metrics. Scratch files live
//! under `.bench_work/` and are removed on exit. The runner's own tests:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod inputs;
mod lib_build;
mod serve_mix;
mod spec_run;
mod stats;
mod trace;

use crate::lib_build::LibPath;
use crate::serve_mix::ServePath;
use crate::spec_run::SpecPath;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Share of `--seconds` given to the workload's own path; the other two
/// paths split the rest evenly.
pub const PRIMARY_SHARE: f64 = 0.5;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Untraced runs interleave the paths in this many time slices.
const SLICES: usize = 8;

/// The paths, in the order a run measures them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Separate compilation: build + link-spec (a path of every run,
    /// not a `--workload` value).
    LibBuild,
    /// In-process specialise + run.
    SpecRun,
    /// The daemon under closed-loop load.
    ServeMix,
}

impl Workload {
    /// What `--workload` accepts.
    const RUNNABLE: [Workload; 2] = [Workload::SpecRun, Workload::ServeMix];

    fn name(self) -> &'static str {
        match self {
            Workload::LibBuild => "lib-build",
            Workload::SpecRun => "spec-run",
            Workload::ServeMix => "serve-mix",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::RUNNABLE.into_iter().find(|w| w.name() == s)
    }
}

/// Run parameters shared by the paths.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// Everything a run reports.
pub struct Results {
    seed: u64,
    /// Ops attempted in the measured phases.
    pub attempted: u64,
    wrong: u64,
    e2e: BTreeMap<String, Metric>,
    layers: BTreeMap<String, Metric>,
}

impl Results {
    fn new(seed: u64) -> Results {
        Results {
            seed,
            attempted: 0,
            wrong: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples: samples as u64,
            },
        );
    }

    /// Records a per-layer metric of one path.
    pub fn layer(&mut self, path: &str, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.layers.insert(
            format!("{path}.{name}"),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Reports a wrong output (or a failed op) with the run's seed.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        println!("wrong seed={} {what}", self.seed);
    }

    /// An informational line.
    pub fn info(&self, what: String) {
        println!("info {what}");
    }

    fn failed(&self) -> u64 {
        self.wrong.min(self.attempted)
    }
}

/// Flushes pending file-system work (`sync`), so that blocks freed by
/// an earlier run's clean-up are reclaimed before anything is timed
/// rather than during it. A missing `sync` program is not an error.
pub fn settle() {
    let _ = std::process::Command::new("sync").status();
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision when `.git` is present, else `none`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// FNV-1a over the library sources (`crates/*/src/**.rs`, sorted): the
/// code under test, identified even where the checkout is not a git
/// repository.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    out.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut acc = Vec::new();
    for f in &files {
        if let Ok(b) = std::fs::read(f) {
            acc.extend_from_slice(f.to_string_lossy().as_bytes());
            acc.extend_from_slice(&mspec_cogen::files::fnv64(&b).to_le_bytes());
        }
    }
    format!("{:016x}", mspec_cogen::files::fnv64(&acc))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!(
        "unknown workload `{workload}` (spec-run or serve-mix)"
    ))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or_else(|_| "0".into()).as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The three paths after set-up.
struct Paths {
    lib: LibPath,
    spec: SpecPath,
    serve: ServePath,
}

/// Sets up the three paths; also returns each one's seconds.
fn setup(ctx: &Ctx, root: &Path) -> Result<(Paths, [f64; 3]), String> {
    let t = Instant::now();
    let lib = LibPath::setup(ctx, &root.join("lib"))?;
    let lib_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let spec = SpecPath::setup(ctx)?;
    let spec_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let serve = ServePath::setup(ctx, &root.join("serve"))?;
    let serve_s = t.elapsed().as_secs_f64();
    Ok((Paths { lib, spec, serve }, [lib_s, spec_s, serve_s]))
}

fn run(args: &Args, work: &Path) -> Result<Results, String> {
    let origin = Instant::now();
    let ctx = Ctx { seed: args.seed };
    let mut res = Results::new(args.seed);

    // Set-up, several times; the last one is kept.
    let mut setup_s = Vec::new();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut paths: Option<Paths> = None;
    for rep in 0..SETUP_REPS {
        let root = work.join(format!("setup{rep}"));
        let t = Instant::now();
        let (p, secs) = setup(&ctx, &root)?;
        setup_s.push(t.elapsed().as_secs_f64());
        for (v, s) in parts.iter_mut().zip(secs) {
            v.push(s);
        }
        // Earlier set-ups' files stay until the run ends (see `settle`).
        if let Some(old) = paths.replace(p) {
            old.serve.shutdown();
        }
    }
    let mut p = paths.ok_or("no set-up ran")?;
    res.info(format!("setup_s reps {setup_s:?}"));
    res.info(format!(
        "setup_s median by path: lib-build {:.4} spec-run {:.4} serve-mix {:.4}",
        median(&parts[0]),
        median(&parts[1]),
        median(&parts[2])
    ));
    p.serve.prime();
    settle();

    let share = |w: Workload| {
        let s = if w == args.workload {
            PRIMARY_SHARE
        } else {
            (1.0 - PRIMARY_SHARE) / 2.0
        };
        Duration::from_secs_f64(args.seconds * s)
    };
    if args.trace {
        let mut tr = Tracer::new(origin);
        p.lib
            .run_traced(share(Workload::LibBuild), &mut res, &mut tr);
        let lib_spans = std::mem::replace(&mut tr, Tracer::new(origin));
        p.spec
            .run_traced(share(Workload::SpecRun), &mut res, &mut tr);
        let spec_spans = std::mem::replace(&mut tr, Tracer::new(origin));
        p.serve
            .run_traced(share(Workload::ServeMix), &mut res, &mut tr, origin);
        let mut out = String::new();
        out.push_str(&trace::to_jsonl(lib_spans.spans(), "lib-build"));
        out.push_str(&trace::to_jsonl(spec_spans.spans(), "spec-run"));
        out.push_str(&trace::to_jsonl(tr.spans(), "serve-mix"));
        let dir = Path::new(".bench_out");
        let file = dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, out))
            .is_ok()
        {
            res.info(format!("spans written to {}", file.display()));
        }
    } else {
        // Time slices round-robin over the paths, so a disturbance of
        // the machine lasting part of a run is shared by every path
        // instead of landing on whichever one was running.
        let slice = |w: Workload| share(w) / SLICES as u32;
        for _ in 0..SLICES {
            p.lib.run(slice(Workload::LibBuild), &mut res);
            settle();
            p.spec.run(slice(Workload::SpecRun), &mut res);
            p.serve.run(slice(Workload::ServeMix), &mut res);
            settle();
        }
        p.lib.report(&mut res);
        p.spec.report(&mut res);
        p.serve.report(&mut res);
    }
    res.e2e("setup_s", median(&setup_s), "s", setup_s.len());
    res.e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    if !args.trace {
        let nodes = p.spec.residual_nodes(&mut res);
        res.e2e("residual_nodes", nodes, "count", spec_run::NODE_PASS);
    }
    p.lib.verify(&mut res);
    p.serve.verify(&mut res);
    p.serve.shutdown();
    let frac = res.failed() as f64 / res.attempted.max(1) as f64;
    res.e2e("fail_frac", frac, "fraction", res.attempted as usize);
    Ok(res)
}

/// End-to-end metrics the final line carries. Three more are reported
/// as rows only: `fail_frac` is 0 on a correct run (a 0 median has no
/// relative spread; `attempted`/`failed` carry it), and the cold
/// link-spec and daemon-latency p99s move between runs of one seed by
/// more than any usable bound on a small shared machine.
const E2E: [&str; 11] = [
    "setup_s",
    "peak_rss_mb",
    "build_ms_p50",
    "link_spec_ms_p50",
    "warm_link_spec_ms_p50",
    "spec_ms_p50",
    "spec_ms_p99",
    "run_ms_p50",
    "residual_nodes",
    "req_per_s",
    "lat_ms_p50",
];

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn report(args: &Args, res: &Results) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (rev, src) = (git_rev(), source_fingerprint());
    let wl = args.workload.name();
    let rows: Vec<(&String, &Metric)> = if args.trace {
        res.layers.iter().collect()
    } else {
        res.e2e.iter().collect()
    };
    for (name, m) in &rows {
        println!(
            "row {{\"workload\":\"{wl}\",\"trace\":{},\"metric\":\"{name}\",\"value\":{},\"unit\":\"{}\",\"samples\":{},\"cores\":{cores},\"rev\":\"{rev}\",\"src\":\"{src}\",\"seed\":{}}}",
            u8::from(args.trace),
            json_num(m.value),
            m.unit,
            m.samples,
            args.seed
        );
    }
    let mut metrics = String::new();
    let chosen: Vec<(&String, &Metric)> = if args.trace {
        rows
    } else {
        rows.into_iter()
            .filter(|(n, _)| E2E.contains(&n.as_str()))
            .collect()
    };
    for (i, (name, m)) in chosen.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_num(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        res.wrong == 0,
        res.attempted.max(1),
        res.failed()
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    settle();
    let work2 = work.clone();
    // The engine, evaluator and pretty-printer recurse on deep residuals;
    // run on a roomy stack (virtual, committed lazily).
    let worker = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(1 << 29)
        .spawn(move || {
            let out = run(&args, &work2).map(|res| report(&args, &res));
            (args, out)
        });
    let joined = worker.map_err(|e| e.to_string()).and_then(|h| {
        h.join()
            .map_err(|_| "benchmark thread panicked".to_string())
    });
    let _ = std::fs::remove_dir_all(&work);
    settle();
    match joined {
        Ok((_, Ok(line))) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok((_, Err(e))) | Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
