//! `lib-build`: the separate-compilation path — `mspec build` followed
//! by `mspec link-spec --cache-dir`, op by op through the public calls
//! the CLI makes.

use crate::inputs::{library_tree, SourceTree};
use crate::stats::{median, Summary};
use crate::trace::{Layers, Tracer};
use crate::{ms, Ctx, Results};
use mspec_cache::{dir_identity, dir_source_key, spec_key, CacheEntry, DiskCache};
use mspec_cogen::build::{build, link_dir, BuildOptions};
use mspec_cogen::compile::compile_module;
use mspec_cogen::files::{
    atomic_write, fnv64, load_bti, load_bti_full, load_gx_unit, store_bti, store_gx_with,
    store_sig, SigFile,
};
use mspec_cogen::textual::textual_genext;
use mspec_core::Pipeline;
use mspec_genext::{Engine, EngineOptions, OnExhaustion, SpecArg, Strategy};
use mspec_lang::ast::{Module, Program, QualName};
use mspec_lang::modgraph::ModGraph;
use mspec_lang::parser::parse_module;
use mspec_lang::pretty::pretty_program;
use mspec_lang::resolve::resolve;
use mspec_testkit::{LayeredShape, LibraryShape, TestRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One in `BUILD_EVERY` ops is a cold build; the rest are link-specs.
const BUILD_EVERY: usize = 17;
/// One in `REPEAT_EVERY` link-specs repeats an earlier request (a warm
/// cache hit); the others are fresh (cold misses).
const REPEAT_EVERY: usize = 3;
/// Largest static exponent a link-spec request asks for.
const MAX_EXPONENT: u64 = 96;
/// Ops pre-generated per run (several times what a run completes).
const OPS: usize = 6_000;

/// The chain library: `Lib0`…`Lib7`, each function's base case calling
/// into the previous module.
pub const CHAIN: LibraryShape = LibraryShape {
    modules: 8,
    fns_per_module: 6,
    used_fns: 3,
    exponent: 5,
    cross_module: true,
};
/// The layered library: 3 levels of 3 mutually independent modules.
pub const LAYERED: LayeredShape = LayeredShape {
    levels: 3,
    width: 3,
    fns_per_module: 6,
    exponent: 4,
};
/// Seeded random modules in the tree.
pub const RANDOM_MODULES: usize = 6;

/// A link-spec request: one function at one static exponent.
#[derive(Debug, Clone)]
struct LinkReq {
    entry: QualName,
    division: String,
    args: Vec<SpecArg>,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Build,
    Link(usize),
}

/// A timed untraced op, by kind.
enum Timed {
    Build(f64),
    Cold(f64),
    Warm(f64),
}

/// The op schedule: every `BUILD_EVERY`th op builds; every
/// `REPEAT_EVERY`th link-spec repeats an earlier request (warm: a cache
/// hit) and the rest are fresh (cold: a cache miss).
fn schedule(seed: u64, targets: &[QualName]) -> (Vec<LinkReq>, Vec<Op>) {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x11b);
    let mut reqs: Vec<LinkReq> = Vec::new();
    let mut used: BTreeSet<(usize, u64)> = BTreeSet::new();
    let mut ops = Vec::with_capacity(OPS);
    let mut links = 0usize;
    for k in 0..OPS {
        if k % BUILD_EVERY == 0 {
            ops.push(Op::Build);
            continue;
        }
        links += 1;
        let exhausted = used.len() as u64 == targets.len() as u64 * (MAX_EXPONENT - 1);
        if (links.is_multiple_of(REPEAT_EVERY) || exhausted) && !reqs.is_empty() {
            ops.push(Op::Link(rng.gen_range(0..reqs.len())));
            continue;
        }
        let (t, n) = loop {
            let pick = (
                rng.gen_range(0..targets.len()),
                rng.gen_range(2..=MAX_EXPONENT),
            );
            if used.insert(pick) {
                break pick;
            }
        };
        let division = format!("S:{n},D");
        let args = crate::inputs::parse_division(&division);
        reqs.push(LinkReq {
            entry: targets[t],
            division,
            args,
        });
        ops.push(Op::Link(reqs.len() - 1));
    }
    (reqs, ops)
}

/// Every file of an artefact directory, by name.
fn artefacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    if let Ok(rd) = fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Ok(bytes) = fs::read(e.path()) {
                out.insert(name, bytes);
            }
        }
    }
    out
}

fn digest(files: &BTreeMap<String, Vec<u8>>) -> u64 {
    let mut acc = Vec::new();
    for (name, bytes) in files {
        acc.extend_from_slice(name.as_bytes());
        acc.extend_from_slice(&fnv64(bytes).to_le_bytes());
    }
    fnv64(&acc)
}

/// Set-up state of the path.
pub struct LibPath {
    tree: SourceTree,
    src: PathBuf,
    stable: PathBuf,
    stable_key: String,
    scratch: PathBuf,
    cache: DiskCache,
    stable_digest: u64,
    reqs: Vec<LinkReq>,
    ops: Vec<Op>,
    next: usize,
    outputs: HashMap<usize, String>,
    acc: LibSamples,
}

/// Untimed-run samples, accumulated across the run's time slices.
#[derive(Default)]
struct LibSamples {
    build_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

impl LibPath {
    /// Generates the tree, builds it once into the stable artefact
    /// directory and opens a fresh residual cache.
    pub fn setup(ctx: &Ctx, root: &Path) -> Result<LibPath, String> {
        let tree = library_tree(ctx.seed, CHAIN, LAYERED, RANDOM_MODULES);
        let src = root.join("src");
        let stable = root.join("stable");
        tree.write(&src).map_err(|e| e.to_string())?;
        build(
            &src,
            &stable,
            &BuildOptions {
                force: true,
                ..BuildOptions::default()
            },
        )
        .map_err(|e| format!("stable build: {e}"))?;
        let cache = DiskCache::open(root.join("cache")).map_err(|e| e.to_string())?;
        let (reqs, ops) = schedule(ctx.seed, &tree.targets);
        let stable_digest = digest(&artefacts(&stable));
        Ok(LibPath {
            stable_key: stable.to_string_lossy().into_owned(),
            scratch: root.join("builds"),
            tree,
            src,
            stable,
            cache,
            stable_digest,
            reqs,
            ops,
            next: 0,
            outputs: HashMap::new(),
            acc: LibSamples::default(),
        })
    }

    fn take_op(&mut self) -> Op {
        let op = self.ops[self.next % self.ops.len()];
        self.next += 1;
        op
    }

    /// The (empty) output directory of the next build. Every build
    /// uses the same path, removed after its check, so each one starts
    /// from the same file-system placement instead of a new directory
    /// wherever the allocator puts it next.
    fn fresh_dir(&self) -> PathBuf {
        self.scratch.join("out")
    }

    fn key(&self, req: &LinkReq) -> String {
        spec_key(
            &dir_source_key(&self.stable_key, dir_identity(&self.stable)),
            &req.entry.to_string(),
            &req.division,
            None,
            None,
            OnExhaustion::Error,
            Strategy::BreadthFirst,
        )
    }

    /// One untraced link-spec: the CLI's sequence. Returns the residual
    /// text and whether the cache answered.
    fn link_spec(&self, req: &LinkReq) -> Result<(String, bool), String> {
        let key = self.key(req);
        if let Some(hit) = self.cache.get(&key) {
            return Ok((hit.residual, true));
        }
        let gen = link_dir(&self.stable).map_err(|e| e.to_string())?;
        let mut engine = Engine::new(&gen, EngineOptions::default());
        let residual = engine
            .specialise(&req.entry, req.args.clone())
            .map_err(|e| e.to_string())?;
        let text = pretty_program(&residual.program);
        let entry = CacheEntry {
            key,
            entry: residual.entry.to_string(),
            residual: text.clone(),
            stats: *engine.stats(),
        };
        self.cache.put(&entry).map_err(|e| e.to_string())?;
        Ok((text, false))
    }

    /// Writes back the file system's dirty data (`sync`) before an op,
    /// so each op starts from a quiet file system the way a one-off
    /// `mspec build` or `mspec link-spec` does, instead of inheriting
    /// the write-back (and block reclamation) of the ops just before
    /// it. Untimed.
    fn quiesce(&self) {
        crate::settle();
    }

    /// Checks a built directory against the stable artefacts, then
    /// removes it. Untimed.
    fn check_build(&self, dir: &Path, res: &mut Results, op: usize) {
        let d = digest(&artefacts(dir));
        if d != self.stable_digest {
            res.wrong(ctx_line(
                "lib-build",
                op,
                "build",
                "artefacts differ from the stable build",
            ));
        }
        let _ = fs::remove_dir_all(dir);
    }

    fn record_output(&mut self, idx: usize, text: String, res: &mut Results, op: usize) {
        match self.outputs.get(&idx) {
            Some(prev) if *prev != text => res.wrong(ctx_line(
                "lib-build",
                op,
                &format!(
                    "link-spec {} {}",
                    self.reqs[idx].entry, self.reqs[idx].division
                ),
                "residual differs from an earlier reply for the same request",
            )),
            Some(_) => {}
            None => {
                self.outputs.insert(idx, text);
            }
        }
    }

    /// One untraced op through the facade calls, timed; its output is
    /// checked untimed. `None` when the op failed (already reported).
    fn plain_op(&mut self, op: Op, op_no: usize, res: &mut Results) -> Option<Timed> {
        res.attempted += 1;
        match op {
            Op::Build => {
                let dir = self.fresh_dir();
                let t = Instant::now();
                let r = build(
                    &self.src,
                    &dir,
                    &BuildOptions {
                        force: true,
                        ..BuildOptions::default()
                    },
                );
                let el = ms(t.elapsed());
                match r {
                    Ok(_) => {
                        self.check_build(&dir, res, op_no);
                        Some(Timed::Build(el))
                    }
                    Err(e) => {
                        res.wrong(ctx_line("lib-build", op_no, "build", &e.to_string()));
                        None
                    }
                }
            }
            Op::Link(i) => {
                let req = self.reqs[i].clone();
                let t = Instant::now();
                let r = self.link_spec(&req);
                let el = ms(t.elapsed());
                match r {
                    Ok((text, hit)) => {
                        self.record_output(i, text, res, op_no);
                        Some(if hit {
                            Timed::Warm(el)
                        } else {
                            Timed::Cold(el)
                        })
                    }
                    Err(e) => {
                        let what = format!("link-spec {} {}", req.entry, req.division);
                        res.wrong(ctx_line("lib-build", op_no, &what, &e));
                        None
                    }
                }
            }
        }
    }

    /// Runs untraced ops for `budget` (one time slice of the run).
    pub fn run(&mut self, budget: Duration, res: &mut Results) {
        let start = Instant::now();
        while start.elapsed() < budget {
            self.quiesce();
            let op_no = self.next;
            let op = self.take_op();
            match self.plain_op(op, op_no, res) {
                Some(Timed::Build(x)) => self.acc.build_ms.push(x),
                Some(Timed::Cold(x)) => self.acc.cold_ms.push(x),
                Some(Timed::Warm(x)) => self.acc.warm_ms.push(x),
                None => {}
            }
        }
    }

    /// Reports the untimed-run metrics over every slice.
    pub fn report(&self, res: &mut Results) {
        let a = &self.acc;
        let (b, c, w) = (
            Summary::new(a.build_ms.clone()),
            Summary::new(a.cold_ms.clone()),
            Summary::new(a.warm_ms.clone()),
        );
        res.info(format!("lib-build build_ms {}", b.describe()));
        res.info(format!("lib-build link_spec_ms(cold) {}", c.describe()));
        res.info(format!("lib-build warm_link_spec_ms {}", w.describe()));
        res.info(format!(
            "lib-build cache hit share {:.3} ({} of {} link-specs)",
            w.n() as f64 / (c.n() + w.n()).max(1) as f64,
            w.n(),
            c.n() + w.n()
        ));
        res.e2e("build_ms_p50", b.p50(), "ms", b.n());
        res.e2e("link_spec_ms_p50", c.p50(), "ms", c.n());
        res.e2e("link_spec_ms_p99", c.pct(99.0), "ms", c.n());
        res.e2e("warm_link_spec_ms_p50", w.p50(), "ms", w.n());
    }

    /// Checks every distinct link-spec residual against the
    /// whole-program pipeline's residual for the same request. Untimed.
    pub fn verify(&self, res: &mut Results) {
        let pipeline = match Pipeline::from_source(&self.tree.whole()) {
            Ok(p) => p,
            Err(e) => {
                res.wrong(format!("lib-build oracle pipeline failed: {e}"));
                return;
            }
        };
        for (idx, text) in &self.outputs {
            let req = &self.reqs[*idx];
            let want = pipeline
                .specialise(
                    req.entry.module.as_str(),
                    req.entry.name.as_str(),
                    req.args.clone(),
                )
                .map(|s| s.source());
            match want {
                Ok(w) if w == *text => {}
                Ok(_) => res.wrong(ctx_line(
                    "lib-build",
                    *idx,
                    &format!("link-spec {} {}", req.entry, req.division),
                    "residual differs from the whole-program residual",
                )),
                Err(e) => res.wrong(ctx_line(
                    "lib-build",
                    *idx,
                    &format!("link-spec {} {}", req.entry, req.division),
                    &format!("oracle failed: {e}"),
                )),
            }
        }
    }

    /// One build made of the facade's own public calls, in its order,
    /// each inside a span. Returns (source bytes, genext text bytes,
    /// AST nodes parsed, signatures produced).
    fn build_traced(
        &self,
        out_dir: &Path,
        tr: &mut Tracer,
    ) -> Result<(usize, usize, usize, usize), String> {
        let e = |e: mspec_cogen::CogenError| e.to_string();
        let root = tr.enter("cogen-build");
        fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
        let mut entries: Vec<PathBuf> = fs::read_dir(&self.src)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "mspec"))
            .collect();
        entries.sort();
        let mut modules: Vec<Module> = Vec::new();
        let (mut src_bytes, mut nodes) = (0usize, 0usize);
        for path in entries {
            let text = tr
                .span("read-src", || fs::read_to_string(&path))
                .map_err(|e| e.to_string())?;
            src_bytes += text.len();
            let m = tr
                .span("parse", || parse_module(&text))
                .map_err(|e| e.to_string())?;
            nodes += m.size();
            modules.push(m);
        }
        let resolved = tr
            .span("resolve", || resolve(Program::new(modules)))
            .map_err(|e| e.to_string())?;
        let graph = ModGraph::new(resolved.program()).map_err(|e| e.to_string())?;
        let (mut gen_bytes, mut sigs) = (0usize, 0usize);
        for name in graph.topo_order() {
            let module = resolved
                .program()
                .module(name.as_str())
                .ok_or("module vanished")?;
            let mut imports = BTreeMap::new();
            let mut fingerprints = Vec::new();
            for imp in &module.imports {
                let p = out_dir.join(format!("{imp}.bti"));
                let (iface, fp) = tr.span("load-bti", || load_bti_full(&p)).map_err(e)?;
                imports.insert(*imp, iface);
                fingerprints.push((*imp, fp));
            }
            let ann = tr
                .span("bta", || {
                    mspec_bta::analyse::analyse_module_with(module, &imports, &BTreeSet::new())
                })
                .map_err(|e| e.to_string())?;
            sigs += ann.interface.len();
            let gx = tr.span("cogen", || compile_module(&ann));
            let text = tr.span("textual", || textual_genext(&ann));
            gen_bytes += text.len();
            let s = tr.enter("store");
            store_bti(out_dir.join(format!("{name}.bti")), &ann.interface).map_err(e)?;
            store_gx_with(out_dir.join(format!("{name}.gx")), &gx, &fingerprints).map_err(e)?;
            atomic_write(out_dir.join(format!("Gen{name}.txt")), text)
                .map_err(|e| e.to_string())?;
            store_sig(out_dir.join(format!("{name}.sig")), &SigFile::of(module)).map_err(e)?;
            tr.exit(s);
            let bti = out_dir.join(format!("{name}.bti"));
            tr.span("load-bti", || load_bti(&bti)).map_err(e)?;
        }
        tr.exit(root);
        Ok((src_bytes, gen_bytes, nodes, sigs))
    }

    /// One traced link-spec: the CLI's sequence with a span per call.
    /// Returns (residual, hit, lazily decoded bytes).
    fn link_spec_traced(
        &self,
        req: &LinkReq,
        tr: &mut Tracer,
    ) -> Result<(String, bool, u64), String> {
        let root = tr.enter("link-spec");
        let id = tr.span("cache.identity", || dir_identity(&self.stable));
        let key = spec_key(
            &dir_source_key(&self.stable_key, id),
            &req.entry.to_string(),
            &req.division,
            None,
            None,
            OnExhaustion::Error,
            Strategy::BreadthFirst,
        );
        if let Some(hit) = tr.span("cache.get", || self.cache.get(&key)) {
            tr.exit(root);
            return Ok((hit.residual, true, 0));
        }
        let gen = tr
            .span("link-dir", || link_dir(&self.stable))
            .map_err(|e| e.to_string())?;
        let mut engine = Engine::new(&gen, EngineOptions::default());
        let residual = tr
            .span("specialise", || {
                engine.specialise(&req.entry, req.args.clone())
            })
            .map_err(|e| e.to_string())?;
        let text = tr.span("emit", || pretty_program(&residual.program));
        let entry = CacheEntry {
            key,
            entry: residual.entry.to_string(),
            residual: text.clone(),
            stats: *engine.stats(),
        };
        tr.span("cache.put", || self.cache.put(&entry))
            .map_err(|e| e.to_string())?;
        tr.exit(root);
        Ok((text, false, gen.lazy_decoded_bytes()))
    }

    /// Traced run: ops alternate traced and untraced (the same-run
    /// baseline for the tracing overhead); per-layer metrics come from
    /// the traced ones.
    pub fn run_traced(&mut self, budget: Duration, res: &mut Results, tr: &mut Tracer) {
        let (mut gx_bytes, mut index_bytes) = (0u64, 0u64);
        for e in fs::read_dir(&self.stable).into_iter().flatten().flatten() {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "gx") {
                gx_bytes += fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
                index_bytes += load_gx_unit(&p).map(|u| u.eager_decoded).unwrap_or(0);
            }
        }
        let mut plain_build = Vec::new();
        let mut traced_build = Vec::new();
        let (mut written, mut nodes, mut sigs, mut src_b, mut gen_b) =
            (Vec::new(), 0usize, 0usize, 0usize, 0usize);
        let mut decoded = Vec::new();
        let (mut hits, mut links) = (0usize, 0usize);
        let mut traced_ops = 0u64;
        let start = Instant::now();
        while start.elapsed() < budget {
            self.quiesce();
            let op_no = self.next;
            let op = self.take_op();
            if op_no % 2 == 1 {
                if let Some(Timed::Build(x)) = self.plain_op(op, op_no, res) {
                    plain_build.push(x);
                }
                continue;
            }
            res.attempted += 1;
            traced_ops += 1;
            tr.set_op(op_no as u64);
            match op {
                Op::Build => {
                    let dir = self.fresh_dir();
                    let t = Instant::now();
                    let r = self.build_traced(&dir, tr);
                    traced_build.push(ms(t.elapsed()));
                    match r {
                        Ok((s, g, n, k)) => {
                            written.push(
                                artefacts(&dir).values().map(|b| b.len()).sum::<usize>() as f64
                                    / 1024.0,
                            );
                            (src_b, gen_b, nodes, sigs) = (s, g, n, k);
                            // The traced build must write the facade's artefacts, byte for byte.
                            self.check_build(&dir, res, op_no);
                        }
                        Err(e) => res.wrong(ctx_line("lib-build", op_no, "traced build", &e)),
                    }
                }
                Op::Link(i) => {
                    let req = self.reqs[i].clone();
                    links += 1;
                    match self.link_spec_traced(&req, tr) {
                        Ok((text, hit, lazy)) => {
                            if hit {
                                hits += 1;
                            } else {
                                decoded.push((index_bytes + lazy) as f64 / gx_bytes.max(1) as f64);
                            }
                            self.record_output(i, text, res, op_no);
                        }
                        Err(e) => res.wrong(ctx_line("lib-build", op_no, "traced link-spec", &e)),
                    }
                }
            }
        }
        let l = Layers::new(tr.spans());
        let p = "lib-build";
        let parse_ms = l.self_ms("parse");
        res.layer(p, "lang.parse_ms", parse_ms, "ms", traced_ops);
        res.layer(
            p,
            "lang.parse_nodes_per_ms",
            nodes as f64 / parse_ms.max(1e-9),
            "nodes/ms",
            traced_ops,
        );
        res.layer(p, "lang.resolve_ms", l.self_ms("resolve"), "ms", traced_ops);
        res.layer(
            p,
            "cogen.load_bti_ms",
            l.self_ms("load-bti"),
            "ms",
            traced_ops,
        );
        res.layer(p, "bta.analyse_ms", l.self_ms("bta"), "ms", traced_ops);
        res.layer(p, "bta.signatures", sigs as f64, "count", traced_ops);
        res.layer(p, "cogen.compile_ms", l.self_ms("cogen"), "ms", traced_ops);
        res.layer(
            p,
            "cogen.textual_ms",
            l.self_ms("textual"),
            "ms",
            traced_ops,
        );
        res.layer(p, "cogen.store_ms", l.self_ms("store"), "ms", traced_ops);
        res.layer(p, "cogen.written_kb", median(&written), "KiB", traced_ops);
        res.layer(
            p,
            "cogen.gx_src_ratio",
            gen_b as f64 / src_b.max(1) as f64,
            "ratio",
            traced_ops,
        );
        res.layer(
            p,
            "cache.identity_ms",
            l.self_ms("cache.identity"),
            "ms",
            traced_ops,
        );
        res.layer(
            p,
            "cache.get_us",
            l.self_ms("cache.get") * 1e3,
            "us",
            traced_ops,
        );
        res.layer(
            p,
            "cache.put_us",
            l.self_ms("cache.put") * 1e3,
            "us",
            traced_ops,
        );
        res.layer(
            p,
            "cache.hit_ratio",
            hits as f64 / links.max(1) as f64,
            "ratio",
            traced_ops,
        );
        res.layer(p, "cogen.link_ms", l.self_ms("link-dir"), "ms", traced_ops);
        res.layer(
            p,
            "cogen.gx_read_kb",
            gx_bytes as f64 / 1024.0,
            "KiB",
            traced_ops,
        );
        res.layer(
            p,
            "genext.decoded_frac",
            median(&decoded),
            "ratio",
            traced_ops,
        );
        res.layer(
            p,
            "genext.engine_ms",
            l.self_ms("specialise"),
            "ms",
            traced_ops,
        );
        res.layer(p, "lang.pretty_ms", l.self_ms("emit"), "ms", traced_ops);
        res.layer(
            p,
            "trace.overhead_frac",
            median(&traced_build) / median(&plain_build).max(1e-9) - 1.0,
            "ratio",
            traced_ops,
        );
        res.layer(
            p,
            "trace.unattributed_frac",
            l.unattributed_frac(),
            "ratio",
            traced_ops,
        );
    }
}

/// A wrong-output report line.
pub fn ctx_line(path: &str, op: usize, request: &str, what: &str) -> String {
    format!("path={path} op={op} request={request}: {what}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_ops_give_the_facades_outputs() {
        let root = std::env::temp_dir().join(format!("mspec-perfbench-lib-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let path = LibPath::setup(&Ctx { seed: 4 }, &root).expect("set-up");
        let mut tr = Tracer::new(Instant::now());
        let dir = root.join("traced");
        path.build_traced(&dir, &mut tr).expect("traced build");
        assert_eq!(
            digest(&artefacts(&dir)),
            path.stable_digest,
            "traced build artefacts differ"
        );
        let req = path.reqs[0].clone();
        let (cold, hit, lazy) = path
            .link_spec_traced(&req, &mut tr)
            .expect("traced link-spec");
        assert!(!hit && lazy > 0);
        let (warm, hit) = path.link_spec(&req).expect("link-spec");
        assert!(hit);
        assert_eq!(cold, warm);
        let whole = Pipeline::from_source(&path.tree.whole()).expect("whole program");
        let want = whole
            .specialise(
                req.entry.module.as_str(),
                req.entry.name.as_str(),
                req.args.clone(),
            )
            .expect("whole-program residual")
            .source();
        assert_eq!(cold, want);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn schedule_is_deterministic_with_fixed_shares() {
        let targets = [QualName::new("A", "f"), QualName::new("B", "g")];
        let (r1, o1) = schedule(7, &targets);
        let (r2, o2) = schedule(7, &targets);
        assert_eq!(
            r1.iter().map(|r| &r.division).collect::<Vec<_>>(),
            r2.iter().map(|r| &r.division).collect::<Vec<_>>()
        );
        assert_eq!(o1.len(), o2.len());
        let builds = o1.iter().filter(|o| matches!(o, Op::Build)).count();
        assert_eq!(builds, OPS.div_ceil(BUILD_EVERY));
    }
}
