//! `spec-run`: in-process library use — `Pipeline::specialise_opts`,
//! `source()` and several `Specialised::run` calls per op, on requests
//! that never repeat.

use crate::inputs::{
    interp_tree, merge_args, nat_list, power_library, random_division, random_source,
    wire_division, INTERP, LISTS,
};
use crate::lib_build::ctx_line;
use crate::stats::{median, Summary};
use crate::trace::{Layers, Tracer};
use crate::{ms, Ctx, Results};
use mspec_bta::analyse::analyse_program_with;
use mspec_cogen::compile::compile_program;
use mspec_cogen::files::fnv64;
use mspec_core::{EngineOptions, Pipeline, Runner, SpecArg, SpecStats, Strategy};
use mspec_genext::{Engine, GenProgram};
use mspec_lang::ast::QualName;
use mspec_lang::bytecode::compile as compile_bytecode;
use mspec_lang::eval::{Value, DEFAULT_FUEL};
use mspec_lang::fuse::fuse_chunks;
use mspec_lang::parser::parse_program;
use mspec_lang::pretty::pretty_program;
use mspec_lang::resolve::resolve;
use mspec_lang::vm::Vm;
use mspec_testkit::{LibraryShape, TestRng};
use std::collections::{BTreeSet, HashSet};
use std::time::{Duration, Instant};

/// `Specialised::run` calls per op: the first profiles, the second
/// fuses, the rest run the settled (warm) tier. List clients, whose
/// runs cost 0.1–1 ms, run more often than the cheap residuals, so the
/// warm-run median sits inside the list-run cluster.
const RUNS: usize = 3;
/// Runs per op for the list clients.
const LIST_RUNS: usize = 8;
/// Requests per stratified round (see [`request`]).
const ROUND: usize = 12;
/// `residual_nodes` sums the first `NODE_PASS` requests.
pub const NODE_PASS: usize = 600;
/// Mirrors `mspec_core`'s fusion threshold, so the decomposed run
/// fuses exactly the chunks the facade fuses.
const FUSE_HOT_MIN: u64 = 32;
/// The untraced loop also ends after this many budgets of wall time,
/// so ops that fail before adding op time cannot keep it running.
const WALL_CAP: u32 = 4;

/// Operator-node ranges of the interpreter's expression trees: small,
/// mid-size and large.
const INTERP_OPS: [(usize, usize); 3] = [(4, 16), (16, 32), (32, 48)];
/// One round in `LARGE_EVERY` draws its third tree from the large
/// stratum, the others from the mid-size one.
const LARGE_EVERY: usize = 4;
/// Length range of the list clients' inputs.
const LIST_LEN: (usize, usize) = (100, 600);
/// The chain library whose power-like functions `f n x` the power
/// requests pick from besides `Power.power`: 96 functions, so the
/// forced chains alone have about 17,000 (function, exponent) pairs —
/// several times what a run draws — without widening the exponent
/// ranges, which set the requests' cost.
const POWER_LIB: LibraryShape = LibraryShape {
    modules: 8,
    fns_per_module: 12,
    used_fns: 1,
    exponent: 2,
    cross_module: true,
};
/// Static exponents of the two power slots.
const POWER_N: [(u64, u64); 2] = [(100, 600), (600, 1500)];
/// Static exponents of the forced-residual chains.
const CHAIN_N: (u64, u64) = (20, 200);
/// Static weights of the list clients.
const WEIGHT: (u64, u64) = (1, 1_000_000);
/// Draws of one slot before the stream gives up on finding a request no
/// earlier one has and moves on (the key spaces above make that
/// practically unreachable; `Stream::skipped` counts it).
const ATTEMPTS: u32 = 64;

/// A program in the pipeline set.
struct Prog {
    source: String,
    forced: BTreeSet<QualName>,
}

/// The pipeline set — the power library plain and with every
/// power-like function forced residual, the interpreter and the list
/// clients — and the power-like functions.
fn programs() -> (Vec<Prog>, Vec<QualName>) {
    let (power, targets) = power_library(&POWER_LIB);
    let plain = |s: &str| Prog {
        source: s.to_string(),
        forced: BTreeSet::new(),
    };
    let progs = vec![
        plain(&power),
        Prog {
            source: power,
            forced: targets.iter().copied().collect(),
        },
        plain(INTERP),
        plain(LISTS),
    ];
    (progs, targets)
}

/// Where a request's program comes from.
enum Src {
    /// Index into the pipeline set.
    Set(usize),
    /// A fresh seeded random program (testkit's generator); its
    /// pipeline is built when the request is taken, untimed.
    Fresh(String),
}

/// A specialisation request, materialised just before its op (values
/// are single-threaded `Rc` data).
struct Req {
    /// The stratified round it was drawn in.
    round: usize,
    /// The request's kind, for the per-kind report.
    kind: &'static str,
    src: Src,
    entry: QualName,
    division: Vec<SpecArg>,
    strategy: Strategy,
    inputs: Vec<Vec<Value>>,
    what: String,
}

impl Req {
    /// What the stream keeps distinct: program, entry and division. The
    /// strategy is left out, so no two requests share a division of one
    /// function even under different strategies.
    fn key(&self) -> u64 {
        let prog = match &self.src {
            Src::Set(k) => format!("set{k}"),
            Src::Fresh(s) => format!("src{:016x}", fnv64(s.as_bytes())),
        };
        let division = wire_division(&self.division);
        fnv64(format!("{prog}|{}|{division}", self.entry).as_bytes())
    }
}

/// Draw `draw` of the seeded stream; `attempt` > 0 redraws it after a
/// collision. Rounds of [`ROUND`] draws hold a fixed mix — two small
/// interpreter trees and a mid-size or large one, two power-like
/// requests at large exponents, forced-residual chains breadth- and
/// depth-first, three list-client requests and two fresh random
/// programs — so every seed sees the same shape of work. Seven of the
/// twelve are cheap (random, lists, small trees), so `spec_ms_p50` falls
/// inside the small-tree cluster rather than on the gap between the
/// cheap and the dear requests, where it would swing with either edge.
fn request(seed: u64, draw: usize, attempt: u32, targets: &[QualName]) -> Req {
    let mut rng = TestRng::seed_from_u64(fnv64(format!("{seed}:{draw}:{attempt}").as_bytes()));
    let (round, slot) = (draw / ROUND, draw % ROUND);
    let bf = Strategy::BreadthFirst;
    let nats = |rng: &mut TestRng, hi: u64| -> Vec<Vec<Value>> {
        (0..RUNS)
            .map(|_| vec![Value::nat(rng.gen_range(0..hi))])
            .collect()
    };
    let power_like = |rng: &mut TestRng, (lo, hi): (u64, u64)| {
        let f = targets[rng.gen_range(0..targets.len())];
        let n = rng.gen_range(lo..hi);
        (f, n, vec![SpecArg::Static(Value::nat(n)), SpecArg::Dynamic])
    };
    match slot {
        0..=2 => {
            // The largest trees come once every `LARGE_EVERY` rounds, so
            // they make up about 2% of requests and `spec_ms_p99` sits
            // near their median rather than in their tail.
            let stratum = match slot {
                0 | 1 => 0,
                _ if round.is_multiple_of(LARGE_EVERY) => 2,
                _ => 1,
            };
            let (lo, hi) = INTERP_OPS[stratum];
            let ops = rng.gen_range(lo..hi);
            let tree = interp_tree(&mut rng, ops);
            Req {
                round,
                kind: ["interp-small", "interp-mid", "interp-large"][stratum],
                src: Src::Set(2),
                entry: QualName::new("Interp", "run"),
                division: vec![SpecArg::Static(tree), SpecArg::Dynamic],
                strategy: bf,
                inputs: nats(&mut rng, 10),
                what: format!("interp ops={ops}"),
            }
        }
        3 | 4 => {
            let (entry, n, division) = power_like(&mut rng, POWER_N[slot - 3]);
            Req {
                round,
                kind: "power",
                src: Src::Set(0),
                entry,
                division,
                strategy: bf,
                inputs: nats(&mut rng, 4),
                what: format!("power {entry} n={n}"),
            }
        }
        5 | 6 => {
            let (entry, n, division) = power_like(&mut rng, CHAIN_N);
            let strategy = if slot == 5 { bf } else { Strategy::DepthFirst };
            Req {
                round,
                kind: "forced",
                src: Src::Set(1),
                entry,
                division,
                strategy,
                inputs: nats(&mut rng, 4),
                what: format!("forced {entry} n={n} {strategy:?}"),
            }
        }
        7..=9 => {
            let w = rng.gen_range(WEIGHT.0..WEIGHT.1);
            let inputs = (0..LIST_RUNS)
                .map(|_| {
                    let len = rng.gen_range(LIST_LEN.0..LIST_LEN.1);
                    vec![nat_list(&mut rng, len)]
                })
                .collect();
            Req {
                round,
                kind: "lists",
                src: Src::Set(3),
                entry: QualName::new("App", "weighted"),
                division: vec![SpecArg::Static(Value::nat(w)), SpecArg::Dynamic],
                strategy: bf,
                inputs,
                what: format!("weighted w={w}"),
            }
        }
        _ => {
            let r = random_source(rng.next_u64(), 3, 3);
            let (entry, params) = r.functions[rng.gen_range(0..r.functions.len())].clone();
            let (division, inputs) = random_division(&mut rng, &params, RUNS);
            let strategy = if slot == 10 { bf } else { Strategy::DepthFirst };
            Req {
                round,
                kind: "random",
                src: Src::Fresh(r.source),
                entry,
                division,
                strategy,
                inputs,
                what: format!("random draw={draw}.{attempt} {entry} {strategy:?}"),
            }
        }
    }
}

/// The request stream without repeats: position `k` holds the `k`-th
/// draw whose [`Req::key`] no earlier position has; a draw that
/// collides is redrawn in its slot. It is a pure function of the seed.
struct Stream {
    seed: u64,
    targets: Vec<QualName>,
    /// `(draw, attempt)` of every position generated so far.
    picks: Vec<(usize, u32)>,
    seen: HashSet<u64>,
    draws: usize,
    /// Draws given up after [`ATTEMPTS`] collisions.
    skipped: usize,
}

impl Stream {
    fn new(seed: u64, targets: Vec<QualName>) -> Stream {
        Stream {
            seed,
            targets,
            picks: Vec::new(),
            seen: HashSet::new(),
            draws: 0,
            skipped: 0,
        }
    }

    /// The request at position `k`.
    fn get(&mut self, k: usize) -> Req {
        if let Some(&(draw, attempt)) = self.picks.get(k) {
            return request(self.seed, draw, attempt, &self.targets);
        }
        loop {
            let draw = self.draws;
            self.draws += 1;
            let fresh = (0..ATTEMPTS).find_map(|attempt| {
                let r = request(self.seed, draw, attempt, &self.targets);
                self.seen.insert(r.key()).then_some((attempt, r))
            });
            match fresh {
                Some((attempt, r)) => {
                    self.picks.push((draw, attempt));
                    if self.picks.len() > k {
                        return r;
                    }
                }
                None => self.skipped += 1,
            }
        }
    }
}

fn options(strategy: Strategy) -> EngineOptions {
    EngineOptions {
        strategy,
        ..EngineOptions::default()
    }
}

/// One untraced op through the facade: specialise, render, run every
/// input. Returns the residual text, the values and the engine counters.
fn facade_op(pl: &Pipeline, req: &Req) -> Result<(String, Vec<Value>, SpecStats), String> {
    let s = pl
        .specialise_opts(
            req.entry.module.as_str(),
            req.entry.name.as_str(),
            req.division.clone(),
            options(req.strategy),
        )
        .map_err(|e| e.to_string())?;
    let text = s.source();
    let vals = req
        .inputs
        .iter()
        .map(|x| s.run(x.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((text, vals, s.stats))
}

/// What a traced op produced and measured.
struct TracedOp {
    text: String,
    values: Vec<Value>,
    stats: SpecStats,
    engine_ms: f64,
    first_run_ms: f64,
    fuse_windows: u64,
    /// `(ms, instructions)` of each warm VM call.
    warm_vm: Vec<(f64, u64)>,
}

/// One op made of the public calls the facade makes, in its order, each
/// inside a span: `Engine::specialise`, `pretty_program`, then
/// `Specialised::run` decomposed into resolve, bytecode compile, a
/// profiling VM call, profile-guided fusion and VM calls on the fused
/// program.
fn traced_op(gen: &GenProgram, req: &Req, tr: &mut Tracer) -> Result<TracedOp, String> {
    let root = tr.enter("spec-op");
    let out = (|| {
        let mut engine = Engine::new(gen, options(req.strategy));
        let te = Instant::now();
        let residual = tr
            .span("specialise", || {
                engine.specialise(&req.entry, req.division.clone())
            })
            .map_err(|e| e.to_string())?;
        let engine_ms = ms(te.elapsed());
        let text = tr.span("emit", || pretty_program(&residual.program));
        let mut values = Vec::with_capacity(req.inputs.len());
        let r = tr.enter("run");
        let rp = tr
            .span("resolve", || resolve(residual.program.clone()))
            .map_err(|e| e.to_string())?;
        let bc = tr
            .span("bytecode", || compile_bytecode(&rp))
            .map_err(|e| format!("{e:?}"))?;
        let mut vm = Vm::with_fuel(&bc, DEFAULT_FUEL);
        vm.enable_profiling();
        values.push(
            tr.span("vm", || vm.call(&residual.entry, req.inputs[0].clone()))
                .map_err(|e| e.to_string())?,
        );
        let profile = vm.profile().map(<[u64]>::to_vec).unwrap_or_default();
        tr.exit(r);
        let first_run_ms = tr.spans()[r].dur() as f64 / 1e6;
        let r = tr.enter("run");
        let (fused, fs) = tr.span("fuse", || {
            fuse_chunks(&bc, |k| profile.get(k).is_some_and(|n| *n >= FUSE_HOT_MIN))
        });
        let mut vm = Vm::with_fuel(&fused, DEFAULT_FUEL);
        values.push(
            tr.span("vm", || vm.call(&residual.entry, req.inputs[1].clone()))
                .map_err(|e| e.to_string())?,
        );
        tr.exit(r);
        let mut warm_vm = Vec::new();
        for input in &req.inputs[2..] {
            let r = tr.enter("run");
            let mut vm = Vm::with_fuel(&fused, DEFAULT_FUEL);
            let tv = Instant::now();
            let v = tr
                .span("vm", || vm.call(&residual.entry, input.clone()))
                .map_err(|e| e.to_string())?;
            warm_vm.push((ms(tv.elapsed()), vm.stats().instructions));
            tr.exit(r);
            values.push(v);
        }
        Ok(TracedOp {
            text,
            values,
            stats: *engine.stats(),
            engine_ms,
            first_run_ms,
            fuse_windows: fs.total(),
            warm_vm,
        })
    })();
    tr.exit(root);
    out
}

/// Set-up state.
pub struct SpecPath {
    progs: Vec<Prog>,
    pipelines: Vec<Pipeline>,
    stream: Stream,
    next: usize,
    nodes: Vec<Option<usize>>,
    acc: SpecSamples,
}

/// A request taken from the stream, with its fresh program's pipeline.
struct Op {
    pos: usize,
    req: Req,
    fresh: Option<Pipeline>,
}

/// Untimed-run samples, accumulated across the run's time slices.
#[derive(Default)]
struct SpecSamples {
    spec_ms: Vec<f64>,
    /// `spec_ms` by request kind.
    by_kind: std::collections::BTreeMap<&'static str, Vec<f64>>,
    run_ms: Vec<f64>,
    spent: Duration,
    wall: Duration,
}

impl SpecPath {
    /// Builds a pipeline per program (the once-per-library cost).
    pub fn setup(ctx: &Ctx) -> Result<SpecPath, String> {
        let (progs, targets) = programs();
        let pipelines = progs
            .iter()
            .map(|p| Pipeline::from_source_with(&p.source, &p.forced).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SpecPath {
            progs,
            pipelines,
            stream: Stream::new(ctx.seed, targets),
            next: 0,
            nodes: vec![None; NODE_PASS],
            acc: SpecSamples::default(),
        })
    }

    /// Stream position `pos`; a fresh program's pipeline is built here,
    /// outside the timed region.
    fn op(&mut self, pos: usize) -> Result<Op, String> {
        let req = self.stream.get(pos);
        let fresh = match &req.src {
            Src::Set(_) => None,
            Src::Fresh(src) => Some(
                Pipeline::from_source_with(src, &BTreeSet::new())
                    .map_err(|e| ctx_line("spec-run", pos, &req.what, &format!("pipeline: {e}")))?,
            ),
        };
        Ok(Op { pos, req, fresh })
    }

    /// The next request of the stream.
    fn take(&mut self) -> Result<Op, String> {
        let pos = self.next;
        self.next += 1;
        self.op(pos)
    }

    /// The pipeline an op runs on.
    fn pipeline<'a>(&'a self, op: &'a Op) -> &'a Pipeline {
        match (&op.req.src, &op.fresh) {
            (Src::Set(k), _) => &self.pipelines[*k],
            (Src::Fresh(_), Some(p)) => p,
            (Src::Fresh(_), None) => unreachable!("fresh programs get a pipeline in `op`"),
        }
    }

    /// The tree-evaluated source on run input `k` (the oracle).
    fn oracle(&self, op: &Op, k: usize) -> Result<Value, String> {
        let req = &op.req;
        self.pipeline(op)
            .run_source_with(
                Runner::Tree,
                req.entry.module.as_str(),
                req.entry.name.as_str(),
                merge_args(&req.division, &req.inputs[k]),
            )
            .map_err(|e| e.to_string())
    }

    /// Checks an op's values against the oracle: one run per op,
    /// rotating through the runs so the profiling, fusing and warm
    /// tiers are all checked across a run (the tree evaluator costs far
    /// more than the runs it checks).
    fn check_values(&self, op: &Op, got: &[Value], res: &mut Results) {
        let k = op.pos % op.req.inputs.len();
        match (self.oracle(op, k), got.get(k)) {
            (Ok(w), Some(g)) if w == *g => {}
            (w, g) => res.wrong(ctx_line(
                "spec-run",
                op.pos,
                &op.req.what,
                &format!("run {k}: got {g:?}, source evaluates to {w:?}"),
            )),
        }
    }

    fn note_nodes(&mut self, i: usize, stats: &SpecStats) {
        if i < NODE_PASS {
            self.nodes[i] = Some(stats.residual_nodes);
        }
    }

    /// Runs untraced ops for `budget` of op time (one time slice).
    pub fn run(&mut self, budget: Duration, res: &mut Results) {
        let (mut spec_ms, mut run_ms) = (Vec::new(), Vec::new());
        // The budget counts op time only: the oracle checks between ops
        // are not part of the measurement.
        let mut spent = Duration::ZERO;
        let wall = Instant::now();
        while spent < budget && wall.elapsed() < budget * WALL_CAP {
            res.attempted += 1;
            let op = match self.take() {
                Ok(op) => op,
                Err(e) => {
                    res.wrong(e);
                    continue;
                }
            };
            let (i, req) = (op.pos, &op.req);
            let t = Instant::now();
            let spec = self.pipeline(&op).specialise_opts(
                req.entry.module.as_str(),
                req.entry.name.as_str(),
                req.division.clone(),
                options(req.strategy),
            );
            let spec = match spec {
                Ok(s) => {
                    std::hint::black_box(s.source());
                    let el = t.elapsed();
                    spent += el;
                    spec_ms.push(ms(el));
                    self.acc.by_kind.entry(req.kind).or_default().push(ms(el));
                    s
                }
                Err(e) => {
                    spent += t.elapsed();
                    res.wrong(ctx_line("spec-run", i, &req.what, &e.to_string()));
                    continue;
                }
            };
            let mut values = Vec::with_capacity(req.inputs.len());
            for (k, input) in req.inputs.iter().enumerate() {
                let input = input.clone();
                let t = Instant::now();
                let v = spec.run(input);
                let el = t.elapsed();
                spent += el;
                if k >= 2 {
                    run_ms.push(ms(el));
                }
                match v {
                    Ok(v) => values.push(v),
                    Err(e) => {
                        res.wrong(ctx_line("spec-run", i, &req.what, &format!("run {k}: {e}")));
                        break;
                    }
                }
            }
            self.note_nodes(i, &spec.stats);
            if values.len() == req.inputs.len() {
                self.check_values(&op, &values, res);
            }
        }
        self.acc.spec_ms.extend(spec_ms);
        self.acc.run_ms.extend(run_ms);
        self.acc.spent += spent;
        self.acc.wall += wall.elapsed();
    }

    /// Reports the untimed-run metrics over every slice.
    pub fn report(&self, res: &mut Results) {
        let (s, r) = (
            Summary::new(self.acc.spec_ms.clone()),
            Summary::new(self.acc.run_ms.clone()),
        );
        res.info(format!(
            "spec-run op time {:?} of wall {:?}",
            self.acc.spent, self.acc.wall
        ));
        res.info(format!(
            "spec-run stream: {} distinct requests from {} draws, {} draws skipped",
            self.stream.picks.len(),
            self.stream.draws,
            self.stream.skipped
        ));
        res.info(format!("spec-run spec_ms {}", s.describe()));
        for (k, v) in &self.acc.by_kind {
            let s = Summary::new(v.clone());
            res.info(format!(
                "spec-run kind {k} n={} p50={:.3} p99={:.3}",
                s.n(),
                s.p50(),
                s.pct(99.0)
            ));
        }
        res.info(format!("spec-run run_ms(warm) {}", r.describe()));
        res.e2e("spec_ms_p50", s.p50(), "ms", s.n());
        res.e2e("spec_ms_p99", s.pct(99.0), "ms", s.n());
        res.e2e("run_ms_p50", r.p50(), "ms", r.n());
    }

    /// Residual nodes over one pass of the first [`NODE_PASS`] requests;
    /// requests the timed phase did not reach are specialised here,
    /// untimed.
    pub fn residual_nodes(&mut self, res: &mut Results) -> f64 {
        let mut total = 0usize;
        for i in 0..NODE_PASS {
            if let Some(n) = self.nodes[i] {
                total += n;
                continue;
            }
            let spec = self.op(i).and_then(|op| {
                let req = &op.req;
                self.pipeline(&op)
                    .specialise_opts(
                        req.entry.module.as_str(),
                        req.entry.name.as_str(),
                        req.division.clone(),
                        options(req.strategy),
                    )
                    .map(|s| s.stats.residual_nodes)
                    .map_err(|e| ctx_line("spec-run", i, &req.what, &e.to_string()))
            });
            match spec {
                Ok(n) => total += n,
                Err(e) => res.wrong(e),
            }
        }
        total as f64
    }

    /// Traced run: set-up's five pipeline calls, then ops alternating
    /// traced (decomposed into the facade's public calls) and untraced.
    pub fn run_traced(&mut self, budget: Duration, res: &mut Results, tr: &mut Tracer) {
        let p = "spec-run";
        // Set-up, decomposed: the five calls `Pipeline::from_source_with` makes.
        let mut gens: Vec<GenProgram> = Vec::new();
        for (k, prog) in self.progs.iter().enumerate() {
            tr.set_op(u64::MAX - k as u64);
            let root = tr.enter("setup");
            let built = (|| -> Result<GenProgram, String> {
                let program = tr
                    .span("parse", || parse_program(&prog.source))
                    .map_err(|e| e.to_string())?;
                let rp = tr
                    .span("resolve", || resolve(program))
                    .map_err(|e| e.to_string())?;
                tr.span("typecheck", || mspec_types::infer_program(&rp))
                    .map_err(|e| e.to_string())?;
                let ann = tr
                    .span("bta", || analyse_program_with(&rp, &prog.forced))
                    .map_err(|e| e.to_string())?;
                tr.span("cogen", || compile_program(&ann))
                    .map_err(|e| e.to_string())
            })();
            tr.exit(root);
            match built {
                Ok(g) => gens.push(g),
                Err(e) => {
                    res.wrong(format!("path=spec-run setup program {k}: {e}"));
                    return;
                }
            }
        }
        let setup = Layers::new(tr.spans());
        let setup_sum = |name: &str| setup.self_sum_ns(name) as f64 / 1e6;
        res.layer(
            p,
            "setup.lang.parse_ms",
            setup_sum("parse"),
            "ms",
            gens.len() as u64,
        );
        res.layer(
            p,
            "setup.lang.resolve_ms",
            setup_sum("resolve"),
            "ms",
            gens.len() as u64,
        );
        res.layer(
            p,
            "setup.types.infer_ms",
            setup_sum("typecheck"),
            "ms",
            gens.len() as u64,
        );
        res.layer(
            p,
            "setup.bta.analyse_ms",
            setup_sum("bta"),
            "ms",
            gens.len() as u64,
        );
        res.layer(
            p,
            "setup.cogen.compile_ms",
            setup_sum("cogen"),
            "ms",
            gens.len() as u64,
        );

        let (mut plain_op, mut traced_op_ms) = (Vec::new(), Vec::new());
        let (mut steps, mut engine_ns) = (0u64, 0u64);
        let (mut specs, mut unfolds, mut probes, mut mhits) =
            (Vec::new(), Vec::new(), 0usize, 0usize);
        let (mut peak_pending, mut peak_open_bf, mut peak_open_df) = (0usize, 0usize, 0usize);
        let (mut first_run, mut vm_ms, mut windows) = (Vec::new(), Vec::new(), Vec::new());
        let (mut instrs, mut vm_ns) = (0u64, 0u64);
        let (mut eval_ms, mut mix_ms, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
        let mut step_counts = Vec::new();
        let mut traced_ops = 0u64;
        let start = Instant::now();
        while start.elapsed() < budget {
            res.attempted += 1;
            let op = match self.take() {
                Ok(op) => op,
                Err(e) => {
                    res.wrong(e);
                    continue;
                }
            };
            let (i, req) = (op.pos, &op.req);
            let pl = self.pipeline(&op);
            let facade = |req: &Req| facade_op(pl, req);
            // Whole rounds alternate, shifted every `LARGE_EVERY` rounds
            // so the largest trees land on both sides.
            if (req.round + req.round / LARGE_EVERY) % 2 == 1 {
                let t = Instant::now();
                let out = facade(req);
                plain_op.push(ms(t.elapsed()));
                match out {
                    Ok((_, vals, _)) => self.check_values(&op, &vals, res),
                    Err(e) => res.wrong(ctx_line(p, i, &req.what, &e)),
                }
                continue;
            }
            traced_ops += 1;
            tr.set_op(i as u64);
            let gen = match req.src {
                Src::Set(k) => &gens[k],
                Src::Fresh(_) => pl.genext(),
            };
            let t = Instant::now();
            let traced = traced_op(gen, req, tr);
            traced_op_ms.push(ms(t.elapsed()));
            let traced = match traced {
                Ok(x) => x,
                Err(e) => {
                    res.wrong(ctx_line(p, i, &req.what, &format!("traced op: {e}")));
                    continue;
                }
            };
            first_run.push(traced.first_run_ms);
            windows.push(traced.fuse_windows as f64);
            for (el, n) in &traced.warm_vm {
                vm_ms.push(*el);
                vm_ns += (*el * 1e6) as u64;
                instrs += n;
            }
            let (text, vals, stats, e_ms) =
                (traced.text, traced.values, traced.stats, traced.engine_ms);
            // The decomposed op must give the facade's residual and values.
            match facade(req) {
                Ok((ftext, fvals, _)) if ftext == text && fvals == vals => {}
                Ok(_) => res.wrong(ctx_line(
                    p,
                    i,
                    &req.what,
                    "traced op differs from the facade",
                )),
                Err(e) => res.wrong(ctx_line(p, i, &req.what, &e)),
            }
            let te = Instant::now();
            self.check_values(&op, &vals, res);
            eval_ms.push(ms(te.elapsed()));
            self.note_nodes(i, &stats);
            steps += stats.steps;
            step_counts.push(stats.steps as f64);
            engine_ns += (e_ms * 1e6) as u64;
            specs.push(stats.specialisations as f64);
            unfolds.push(stats.unfolds as f64);
            probes += stats.memo_probes;
            mhits += stats.memo_hits;
            peak_pending = peak_pending.max(stats.peak_pending);
            match req.strategy {
                Strategy::BreadthFirst => peak_open_bf = peak_open_bf.max(stats.peak_open),
                Strategy::DepthFirst => peak_open_df = peak_open_df.max(stats.peak_open),
            }
            // E3/E5 baseline: a monolithic mix session for the same
            // request (mix has no forced-residual knob; skip those).
            let (source, forced) = match &req.src {
                Src::Set(k) => (&self.progs[*k].source, !self.progs[*k].forced.is_empty()),
                Src::Fresh(s) => (s, false),
            };
            if traced_ops % 4 == 1 && !forced {
                let tm = Instant::now();
                let m = mspec_mix::mix_specialise(
                    source,
                    req.entry.module.as_str(),
                    req.entry.name.as_str(),
                    req.division.clone(),
                    mspec_mix::MixOptions::default(),
                );
                if m.is_ok() {
                    let m_ms = ms(tm.elapsed());
                    mix_ms.push(m_ms);
                    speedup.push(m_ms / e_ms.max(1e-6));
                }
            }
        }
        let l = Layers::new(tr.spans());
        let n = traced_ops;
        res.layer(p, "genext.engine_ms", l.self_ms("specialise"), "ms", n);
        res.layer(p, "genext.steps", median(&step_counts), "steps", n);
        res.layer(
            p,
            "genext.ns_per_step",
            engine_ns as f64 / steps.max(1) as f64,
            "ns",
            n,
        );
        res.layer(p, "genext.specialisations", median(&specs), "count", n);
        res.layer(p, "genext.unfolds", median(&unfolds), "count", n);
        res.layer(
            p,
            "genext.memo_hit_ratio",
            mhits as f64 / probes.max(1) as f64,
            "ratio",
            n,
        );
        res.layer(
            p,
            "genext.peak_pending_max",
            peak_pending as f64,
            "count",
            n,
        );
        res.layer(
            p,
            "genext.peak_open_max",
            peak_open_bf.max(peak_open_df) as f64,
            "count",
            n,
        );
        res.layer(
            p,
            "genext.peak_open_max_bf",
            peak_open_bf as f64,
            "count",
            n,
        );
        res.layer(
            p,
            "genext.peak_open_max_df",
            peak_open_df as f64,
            "count",
            n,
        );
        res.layer(p, "lang.pretty_ms", l.self_ms("emit"), "ms", n);
        res.layer(p, "core.first_run_ms", median(&first_run), "ms", n);
        res.layer(p, "lang.bytecode_ms", l.self_ms("bytecode"), "ms", n);
        res.layer(p, "lang.fuse_ms", l.self_ms("fuse"), "ms", n);
        res.layer(p, "lang.fuse_windows", median(&windows), "count", n);
        res.layer(p, "lang.vm_ms", median(&vm_ms), "ms", vm_ms.len() as u64);
        res.layer(
            p,
            "lang.vm_instructions",
            instrs as f64 / vm_ms.len().max(1) as f64,
            "count",
            vm_ms.len() as u64,
        );
        res.layer(
            p,
            "lang.vm_ns_per_instr",
            vm_ns as f64 / instrs.max(1) as f64,
            "ns",
            vm_ms.len() as u64,
        );
        res.layer(
            p,
            "lang.eval_ms",
            median(&eval_ms),
            "ms",
            eval_ms.len() as u64,
        );
        res.layer(
            p,
            "mix.session_ms",
            median(&mix_ms),
            "ms",
            mix_ms.len() as u64,
        );
        res.layer(
            p,
            "mix.genext_speedup",
            median(&speedup),
            "ratio",
            speedup.len() as u64,
        );
        res.layer(
            p,
            "trace.overhead_frac",
            median(&traced_op_ms) / median(&plain_op).max(1e-9) - 1.0,
            "ratio",
            n,
        );
        res.layer(
            p,
            "trace.unattributed_frac",
            l.unattributed_frac(),
            "ratio",
            n,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds the stream test draws: more than an untraced `spec-run`
    /// completes (up to about 1,400 on a 2-vCPU host).
    const TEST_ROUNDS: usize = 2_000;

    #[test]
    fn request_stream_is_deterministic_and_never_repeats() {
        let (_, targets) = programs();
        let n = TEST_ROUNDS * ROUND;
        let (mut a, mut b) = (Stream::new(5, targets.clone()), Stream::new(5, targets));
        // Fresh random programs reuse function names (`M0.f0`, ...), so
        // a request is identified by its program text, entry, division
        // and strategy; distinct keys imply distinct triples
        // (entry, division, strategy) for every fixed program.
        let mut seen = HashSet::new();
        for k in 0..n {
            let (x, y) = (a.get(k), b.get(k));
            assert_eq!(x.what, y.what);
            let prog = match &x.src {
                Src::Set(j) => format!("set{j}"),
                Src::Fresh(s) => s.clone(),
            };
            let id = format!(
                "{prog}|{}|{}|{:?}",
                x.entry,
                wire_division(&x.division),
                x.strategy
            );
            assert!(seen.insert(id.clone()), "request {k} repeats: {id}");
        }
        // No slot ran out of fresh requests, so the mix held throughout.
        assert_eq!((a.draws, a.skipped), (n, 0));
        // Earlier positions replay identically.
        assert_eq!(a.get(7).what, b.get(7).what);
        let mut c = Stream::new(6, programs().1);
        assert_ne!(
            wire_division(&a.get(0).division),
            wire_division(&c.get(0).division)
        );
    }

    #[test]
    fn traced_ops_give_the_facades_residual_and_values() {
        // Deep residuals (power at large exponents) recurse in the
        // engine and pretty-printer; run on a roomy stack as `main` does.
        std::thread::Builder::new()
            .stack_size(1 << 29)
            .spawn(traced_matches_facade)
            .expect("spawn")
            .join()
            .expect("traced ops match the facade");
    }

    fn traced_matches_facade() {
        let mut path = SpecPath::setup(&Ctx { seed: 9 }).expect("set-up");
        let origin = Instant::now();
        let mut tr = Tracer::new(origin);
        for _ in 0..ROUND {
            let op = path.take().expect("op");
            let req = &op.req;
            let pl = path.pipeline(&op);
            let (text, values, stats) = facade_op(pl, req).expect("facade op");
            let traced = traced_op(pl.genext(), req, &mut tr).expect("traced op");
            assert_eq!(traced.text, text, "{}", req.what);
            assert_eq!(traced.values, values, "{}", req.what);
            assert_eq!(traced.stats.residual_nodes, stats.residual_nodes);
        }
        let l = Layers::new(tr.spans());
        assert!(l.unattributed_frac() < 0.5);
    }
}
