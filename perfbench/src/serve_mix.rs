//! `serve-mix`: an in-process `mspecd` on loopback TCP under closed-loop
//! load from two persistent client connections.

use crate::inputs::{
    interp_tree, library_tree, merge_args, nat_list, parse_division, parse_values, random_division,
    random_source, shuffle, wire_value, zipf, zipf_cdf, ProgRef, ServeKey, INTERP, LISTS, POWER,
};
use crate::lib_build::ctx_line;
use crate::stats::{median, Summary};
use crate::trace::{Layers, Tracer};
use crate::{ms, Ctx, Results};
use mspec_cache::DiskCache;
use mspec_cogen::build::{build, BuildOptions};
use mspec_cogen::files::fnv64;
use mspec_core::Recorder;
use mspec_core::{EngineOptions, Pipeline, Runner, Strategy};
use mspec_genext::{CancelToken, OnExhaustion};
use mspec_lang::json::{FromJson, ToJson};
use mspec_serve::config::ServeConfig;
use mspec_serve::resident::ResidentOptions;
use mspec_serve::{
    Request, RequestKind, Resident, Response, ResponseBody, RunRequest, Server, SpecRequest,
    TcpHandle,
};
use mspec_testkit::{LayeredShape, LibraryShape, TestRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (closed loop: one request in flight each), one
/// per core of the 2-vCPU reference host.
pub const CLIENTS: usize = 2;
/// Zipf exponent of key popularity. Over the ~4,300-key table (about
/// four times the default memo cap of 1,024, see [`key_table`]) it
/// leaves about 70% of requests to the memo and 27% to the disk tier
/// (keys the FIFO memo evicted); once [`ServePath::prime`] has run,
/// only fresh programs reach the engine.
const ZIPF_S: f64 = 1.0;
/// Share of requests that name a never-seen random program: each one
/// misses every tier, so the daemon builds a program and runs the
/// engine (`programs_built`), and its result is stored to memo and disk.
const FRESH_SHARE: f64 = 0.02;
/// Share of requests that are `run` (the rest are `spec`): they reach
/// the compiled-artefact tier, which answers about 70% of them.
const RUN_SHARE: f64 = 0.25;
/// Untimed warm-up requests per client.
const WARMUP: usize = 500;
/// Timed requests generated per client before the first time slice;
/// before each later one the streams grow to cover four times the
/// busiest slice so far (see [`ServePath::timed`]), so a faster daemon
/// never runs out.
const CHUNK: usize = 40_000;
/// Kinds in popularity order, repeated down the ranks, so every kind
/// has hot (memo), warm (disk) and cold keys and every seed puts the
/// same kinds at the same popularity.
const RANK_PATTERN: [&str; 5] = ["interp", "power", "lists", "dir", "power-df"];
/// One in `ORACLE_EVERY` keys is checked against the batch path.
const ORACLE_EVERY: u64 = 8;

const ART_CHAIN: LibraryShape = LibraryShape {
    modules: 6,
    fns_per_module: 6,
    used_fns: 3,
    exponent: 5,
    cross_module: true,
};
const ART_LAYERED: LayeredShape = LayeredShape {
    levels: 2,
    width: 2,
    fns_per_module: 6,
    exponent: 4,
};

/// One stream entry: a key and whether it is a `run` request.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u32,
    run: bool,
}

/// The phases of a run's requests, in the order the daemon sees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Each set-up's Zipf prefix.
    Warmup,
    /// The table pass of [`ServePath::prime`].
    Prime,
    /// The measured closed loop.
    Timed,
}

/// The key table (grown by fresh keys) and the per-client streams.
/// Client `c`'s stream is a pure function of the seed and `c`, however
/// the growth of the two streams interleaves.
struct Streams {
    seed: u64,
    keys: Vec<ServeKey>,
    /// Key indices in popularity order.
    ranked: Vec<u32>,
    cdf: Vec<f64>,
    rngs: Vec<TestRng>,
    /// Fresh keys each client has drawn.
    fresh: Vec<u64>,
    warmup: Vec<Vec<Entry>>,
    /// Every table key once, least popular first, dealt to the clients.
    prime: Vec<Vec<Entry>>,
    timed: Vec<Vec<Entry>>,
}

/// The popular keys: 128 power exponents under each strategy, 2,048
/// interpreter trees, 1,536 list-client weights and eight exponents of
/// every artefact-directory function (about 490 `dir` keys).
fn key_table(seed: u64, targets: &[mspec_lang::ast::QualName]) -> Vec<ServeKey> {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x5e7e);
    let power: Arc<str> = POWER.into();
    let interp: Arc<str> = INTERP.into();
    let lists: Arc<str> = LISTS.into();
    let mut keys = Vec::new();
    let key =
        |prog: &Arc<str>, entry: &str, args: String, strategy, values: String, kind| ServeKey {
            prog: ProgRef::Inline(Arc::clone(prog)),
            entry: entry.to_string(),
            args,
            strategy,
            values,
            kind,
        };
    for n in 2..=129u64 {
        keys.push(key(
            &power,
            "Power.power",
            format!("S:{n},D"),
            Strategy::BreadthFirst,
            "3".into(),
            "power",
        ));
    }
    for n in 2..=129u64 {
        keys.push(key(
            &power,
            "Power.power",
            format!("S:{n},D"),
            Strategy::DepthFirst,
            "3".into(),
            "power-df",
        ));
    }
    for _ in 0..2048 {
        let ops = rng.gen_range(2..=16usize);
        let tree = wire_value(&interp_tree(&mut rng, ops));
        let x = rng.gen_range(0..10u64);
        keys.push(key(
            &interp,
            "Interp.run",
            format!("S:{tree},D"),
            Strategy::BreadthFirst,
            x.to_string(),
            "interp",
        ));
    }
    for w in 0..1536u64 {
        let xs = wire_value(&nat_list(&mut rng, 64));
        keys.push(key(
            &lists,
            "App.weighted",
            format!("S:{w},D"),
            Strategy::BreadthFirst,
            xs,
            "lists",
        ));
    }
    for t in targets {
        for n in 2..=9u64 {
            keys.push(ServeKey {
                prog: ProgRef::Dir,
                entry: t.to_string(),
                args: format!("S:{n},D"),
                strategy: Strategy::BreadthFirst,
                values: "2".into(),
                kind: "dir",
            });
        }
    }
    keys
}

/// Popularity order of the key table: ranks cycle through
/// [`RANK_PATTERN`]'s kinds, each kind's keys in seeded order, so every
/// seed puts the same kinds at the same popularity and only the keys'
/// parameters change.
fn ranking(seed: u64, keys: &[ServeKey]) -> Vec<u32> {
    let mut rng = TestRng::seed_from_u64(seed ^ 0xc0ffee);
    let mut by_kind: Vec<Vec<u32>> = RANK_PATTERN
        .iter()
        .map(|kind| {
            let mut v: Vec<u32> = (0..keys.len() as u32)
                .filter(|k| keys[*k as usize].kind == *kind)
                .collect();
            shuffle(&mut rng, &mut v);
            v.reverse();
            v
        })
        .collect();
    let mut ranked = Vec::with_capacity(keys.len());
    while by_kind.iter().any(|v| !v.is_empty()) {
        for v in by_kind.iter_mut() {
            ranked.extend(v.pop());
        }
    }
    ranked
}

fn fresh_key(seed: u64) -> ServeKey {
    let mut rng = TestRng::seed_from_u64(seed);
    let r = random_source(seed, 2, 3);
    let (entry, params) = r.functions[rng.gen_range(0..r.functions.len())].clone();
    let (division, inputs) = random_division(&mut rng, &params, 1);
    ServeKey {
        prog: ProgRef::Inline(r.source.into()),
        entry: entry.to_string(),
        args: crate::inputs::wire_division(&division),
        strategy: Strategy::BreadthFirst,
        values: inputs[0]
            .iter()
            .map(wire_value)
            .collect::<Vec<_>>()
            .join(","),
        kind: "fresh",
    }
}

impl Streams {
    fn new(seed: u64, targets: &[mspec_lang::ast::QualName]) -> Streams {
        let keys = key_table(seed, targets);
        let ranked = ranking(seed, &keys);
        let cdf = zipf_cdf(ranked.len(), ZIPF_S);
        let rngs = (0..CLIENTS as u64)
            .map(|c| TestRng::seed_from_u64(seed.wrapping_add(c * 7919) ^ 0xfeed))
            .collect();
        let mut prime = vec![Vec::new(); CLIENTS];
        for (j, key) in ranked.iter().rev().enumerate() {
            prime[j % CLIENTS].push(Entry {
                key: *key,
                run: false,
            });
        }
        let mut s = Streams {
            seed,
            keys,
            ranked,
            cdf,
            rngs,
            fresh: vec![0; CLIENTS],
            warmup: vec![Vec::new(); CLIENTS],
            prime,
            timed: vec![Vec::new(); CLIENTS],
        };
        for c in 0..CLIENTS {
            s.warmup[c] = (0..WARMUP).map(|_| s.next_entry(c)).collect();
        }
        s
    }

    /// Client `c`'s next request: a fresh key with [`FRESH_SHARE`],
    /// else a Zipf-popular one.
    fn next_entry(&mut self, c: usize) -> Entry {
        let rng = &mut self.rngs[c];
        let run = rng.gen_bool(RUN_SHARE);
        let key = if rng.gen_bool(FRESH_SHARE) {
            self.fresh[c] += 1;
            let k = self.seed.wrapping_mul(1_000_003) ^ ((c as u64) << 40);
            self.keys.push(fresh_key(k.wrapping_add(self.fresh[c])));
            self.keys.len() as u32 - 1
        } else {
            self.ranked[zipf(rng, &self.cdf)]
        };
        Entry { key, run }
    }

    /// Grows client `c`'s timed stream to at least `len` requests.
    fn extend(&mut self, c: usize, len: usize) {
        while self.timed[c].len() < len {
            let e = self.next_entry(c);
            self.timed[c].push(e);
        }
    }
}

fn spec_request(k: &ServeKey, dir: &str) -> SpecRequest {
    let (program, d) = match &k.prog {
        ProgRef::Inline(src) => (Some(src.to_string()), None),
        ProgRef::Dir => (None, Some(dir.to_string())),
    };
    SpecRequest {
        program,
        dir: d,
        entry: k.entry.clone(),
        args: k.args.clone(),
        fuel: None,
        max_spec: None,
        on_exhaustion: OnExhaustion::Error,
        strategy: k.strategy,
        deadline_ms: None,
    }
}

fn request_kind(k: &ServeKey, run: bool, dir: &str) -> RequestKind {
    let spec = spec_request(k, dir);
    if run {
        RequestKind::Run(RunRequest {
            spec,
            values: k.values.clone(),
            run_fuel: None,
        })
    } else {
        RequestKind::Spec(spec)
    }
}

/// A persistent client connection speaking JSONL frames.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    line: String,
}

impl Conn {
    fn open(port: u16) -> std::io::Result<Conn> {
        let s = TcpStream::connect(("127.0.0.1", port))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: s.try_clone()?,
            reader: BufReader::new(s),
            next_id: 0,
            line: String::new(),
        })
    }

    fn send(&mut self, frame: &str) -> Result<(), String> {
        self.writer
            .write_all(frame.as_bytes())
            .map_err(|e| e.to_string())
    }

    fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(&self.line),
            Err(e) => Err(e.to_string()),
        }
    }

    fn frame(&mut self, kind: RequestKind) -> String {
        self.next_id += 1;
        format!(
            "{}\n",
            Request {
                id: self.next_id,
                kind
            }
            .to_json_compact()
        )
    }

    /// One request/reply round trip, untimed callers.
    fn call(&mut self, kind: RequestKind) -> Result<Response, String> {
        let f = self.frame(kind);
        self.send(&f)?;
        let line = self.recv()?;
        Response::from_json_str(line).map_err(|e| e.to_string())
    }
}

/// What a reply said, kept for the untimed checks.
#[derive(Debug, Clone)]
enum Reply {
    Spec(u64),
    Run(String),
    Failed(String),
}

/// One client thread's timed results.
#[derive(Default)]
struct ClientOut {
    lat_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    replies: Vec<(u32, bool, Reply)>,
    sent: usize,
    end: Option<Instant>,
    tracer: Option<Tracer>,
}

fn summarise(resp: Result<Response, String>) -> Reply {
    match resp {
        Ok(Response {
            body: ResponseBody::Spec { residual, .. },
            ..
        }) => Reply::Spec(fnv64(residual.as_bytes())),
        Ok(Response {
            body: ResponseBody::Run { value, .. },
            ..
        }) => Reply::Run(value),
        Ok(Response {
            body: ResponseBody::Error(e),
            ..
        }) => Reply::Failed(format!("{}: {}", e.class.as_str(), e.message)),
        Ok(other) => Reply::Failed(format!("unexpected reply {other:?}")),
        Err(e) => Reply::Failed(e),
    }
}

/// Closed loop over `stream` until `deadline`. With a tracer, every
/// other request is traced (a `serve.request` span with `proto` spans
/// around the client's encode and decode), the rest are the same-run
/// untraced baseline.
fn client_loop(
    conn: &mut Conn,
    keys: &[ServeKey],
    stream: &[Entry],
    dir: &str,
    deadline: Option<Instant>,
    mut tracer: Option<Tracer>,
    op_base: u64,
) -> ClientOut {
    let mut out = ClientOut::default();
    for (j, e) in stream.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let k = &keys[e.key as usize];
        let traced = tracer.is_some() && j % 2 == 0;
        let t = Instant::now();
        let resp = if let (true, Some(tr)) = (traced, tracer.as_mut()) {
            tr.set_op(op_base + j as u64);
            let root = tr.enter("serve.request");
            let kind = request_kind(k, e.run, dir);
            let f = tr.span("proto", || conn.frame(kind));
            // The wait covers the wire and the daemon: admission, queue,
            // resident tiers, engine.
            let r = tr.span("serve.wait", || {
                conn.send(&f).and_then(|()| conn.recv().map(str::to_string))
            });
            let resp = r.and_then(|line| {
                tr.span("proto", || {
                    Response::from_json_str(&line).map_err(|e| e.to_string())
                })
            });
            tr.exit(root);
            resp
        } else {
            let kind = request_kind(k, e.run, dir);
            let f = conn.frame(kind);
            conn.send(&f)
                .and_then(|()| conn.recv().map(str::to_string))
                .and_then(|line| Response::from_json_str(&line).map_err(|e| e.to_string()))
        };
        let el = ms(t.elapsed());
        if traced {
            out.traced_ms.push(el);
        } else {
            out.lat_ms.push(el);
        }
        out.replies.push((e.key, e.run, summarise(resp)));
        out.sent += 1;
    }
    out.end = Some(Instant::now());
    out.tracer = tracer;
    out
}

/// A running daemon plus its connected, warmed-up clients.
pub struct ServePath {
    seed: u64,
    server: Server,
    handle: Option<TcpHandle>,
    conns: Vec<Conn>,
    streams: Streams,
    art: PathBuf,
    art_src: String,
    root: PathBuf,
    accept_ms: Vec<f64>,
    sent: Vec<usize>,
    /// Requests per client generated ahead of each time slice.
    ahead: usize,
    replies: HashMap<(u32, bool), Vec<Reply>>,
    acc: ServeSamples,
}

/// Untimed-run samples, accumulated across the run's time slices.
#[derive(Default)]
struct ServeSamples {
    lat_ms: Vec<f64>,
    by_kind: std::collections::BTreeMap<String, Vec<f64>>,
    sent: usize,
    runs: usize,
    secs: f64,
    /// Completed requests per second of each time slice.
    slice_rates: Vec<f64>,
    delta: HashMap<String, u64>,
}

fn counters(resp: Result<Response, String>) -> HashMap<String, u64> {
    match resp {
        Ok(Response {
            body: ResponseBody::Stats { counters },
            ..
        }) => counters.into_iter().collect(),
        _ => HashMap::new(),
    }
}

impl ServePath {
    /// Builds the artefact directory, starts the daemon with a fresh
    /// cache directory, opens both connections (each answered once, so
    /// the accept loop's poll wait is paid here), and runs the untimed
    /// warm-up prefix.
    pub fn setup(ctx: &Ctx, root: &Path) -> Result<ServePath, String> {
        let tree = library_tree(ctx.seed ^ 0xa7, ART_CHAIN, ART_LAYERED, 2);
        let src = root.join("art-src");
        let art = root.join("art");
        tree.write(&src).map_err(|e| e.to_string())?;
        build(
            &src,
            &art,
            &BuildOptions {
                force: true,
                ..BuildOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let streams = Streams::new(ctx.seed, &tree.targets);
        let cfg = ServeConfig {
            cache_dir: Some(root.join("serve-cache").to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let server = Server::new(cfg, Recorder::disabled());
        let handle = server.start_tcp().map_err(|e| e.to_string())?;
        let mut conns = Vec::new();
        let mut accept_ms = Vec::new();
        for _ in 0..CLIENTS {
            let t = Instant::now();
            let mut c = Conn::open(handle.port).map_err(|e| e.to_string())?;
            match c.call(RequestKind::Health)? {
                Response {
                    body: ResponseBody::Health { .. },
                    ..
                } => {}
                other => return Err(format!("unexpected health reply {other:?}")),
            }
            accept_ms.push(ms(t.elapsed()));
            conns.push(c);
        }
        let mut path = ServePath {
            seed: ctx.seed,
            server,
            handle: Some(handle),
            conns,
            streams,
            art_src: tree.whole(),
            art,
            root: root.to_path_buf(),
            accept_ms,
            sent: vec![0; CLIENTS],
            ahead: CHUNK,
            replies: HashMap::new(),
            acc: ServeSamples::default(),
        };
        path.load(Phase::Warmup, None, None);
        Ok(path)
    }

    /// Asks the daemon for every key of the table once, least popular
    /// first: afterwards the disk tier holds every table key and the
    /// memo the most popular ones, so timing starts in the steady state
    /// the mix is made for, where only fresh programs run the engine.
    /// Once per run, after the set-ups, untimed: without it the share
    /// of first-seen keys decays through the whole run, and a run that
    /// sends fewer requests (a slower machine) measures a colder daemon.
    pub fn prime(&mut self) {
        self.load(Phase::Prime, None, None);
    }

    fn dir(&self) -> String {
        self.art.to_string_lossy().into_owned()
    }

    /// Runs both clients concurrently over one phase's streams; the
    /// timed streams continue where the last time slice stopped.
    fn load(
        &mut self,
        phase: Phase,
        deadline: Option<Instant>,
        origin: Option<Instant>,
    ) -> Vec<ClientOut> {
        let timed = phase == Phase::Timed;
        let dir = self.dir();
        let keys = &self.streams.keys;
        let conns = &mut self.conns;
        let sent = &self.sent;
        let streams = match phase {
            Phase::Warmup => &self.streams.warmup,
            Phase::Prime => &self.streams.prime,
            Phase::Timed => &self.streams.timed,
        };
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let stream = &streams[c][if timed { sent[c] } else { 0 }..];
                    let dir = dir.as_str();
                    let tracer = origin.map(Tracer::new);
                    s.spawn(move || {
                        client_loop(conn, keys, stream, dir, deadline, tracer, (c as u64) << 40)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        });
        for (c, o) in outs.iter().enumerate() {
            if timed {
                self.sent[c] += o.sent;
            }
            for (k, run, r) in &o.replies {
                self.replies.entry((*k, *run)).or_default().push(r.clone());
            }
        }
        outs
    }

    fn stats(&mut self) -> HashMap<String, u64> {
        counters(self.conns[0].call(RequestKind::Stats))
    }

    /// Runs the timed closed loop for `budget`; with `tracer` the
    /// per-layer view is recorded as well.
    fn timed(
        &mut self,
        budget: Duration,
        res: &mut Results,
        origin: Option<Instant>,
    ) -> (Vec<ClientOut>, f64, HashMap<String, u64>) {
        for c in 0..CLIENTS {
            self.streams.extend(c, self.sent[c] + self.ahead);
        }
        let before = self.stats();
        let start = Instant::now();
        let outs = self.load(Phase::Timed, Some(start + budget), origin);
        for (c, o) in outs.iter().enumerate() {
            self.ahead = self.ahead.max(4 * o.sent);
            if self.sent[c] == self.streams.timed[c].len() {
                res.info(format!("serve-mix client {c} ran out of requests"));
            }
        }
        let end = outs
            .iter()
            .filter_map(|o| o.end)
            .max()
            .unwrap_or_else(Instant::now);
        let secs = (end - start).as_secs_f64();
        let after = self.stats();
        let delta: HashMap<String, u64> = after
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.saturating_sub(before.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        for o in &outs {
            res.attempted += o.sent as u64;
        }
        (outs, secs, delta)
    }

    fn shares(
        &self,
        d: &HashMap<String, u64>,
        sent: usize,
        runs: usize,
        res: &mut Results,
    ) -> [f64; 3] {
        let g = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
        let memo = g("resident.memo_hits") / sent.max(1) as f64;
        let disk = g("serve.cache.disk_hits") / sent.max(1) as f64;
        let compiled = g("resident.compiled_hits") / runs.max(1) as f64;
        res.info(format!(
            "serve-mix tier shares: memo {memo:.3} disk {disk:.3} compiled {compiled:.3} (of {sent} requests, {runs} runs); programs_built {} evictions {} disk_stores {} shed {} errors {}",
            g("resident.programs_built"), g("serve.cache.evictions"), g("serve.cache.disk_stores"), g("serve.shed"), g("serve.errors")
        ));
        [memo, disk, compiled]
    }

    /// Runs the closed loop for `budget` (one time slice of the run).
    pub fn run(&mut self, budget: Duration, res: &mut Results) {
        let (outs, secs, delta) = self.timed(budget, res, None);
        let n: usize = outs.iter().map(|o| o.sent).sum();
        self.acc.slice_rates.push(n as f64 / secs.max(1e-9));
        for o in &outs {
            self.acc.sent += o.sent;
            for ((k, run, _), l) in o.replies.iter().zip(&o.lat_ms) {
                self.acc.runs += usize::from(*run);
                let kind = self.streams.keys[*k as usize].kind;
                self.acc
                    .by_kind
                    .entry(format!("{kind}{}", if *run { "-run" } else { "" }))
                    .or_default()
                    .push(*l);
            }
            self.acc.lat_ms.extend(&o.lat_ms);
        }
        self.acc.secs += secs;
        for (k, v) in delta {
            *self.acc.delta.entry(k).or_default() += v;
        }
    }

    /// Reports throughput and client-observed latency over every slice.
    pub fn report(&self, res: &mut Results) {
        let a = &self.acc;
        let lat = Summary::new(a.lat_ms.clone());
        res.info(format!("serve-mix lat_ms {}", lat.describe()));
        for (k, v) in &a.by_kind {
            let s = Summary::new(v.clone());
            res.info(format!(
                "serve-mix kind {k} n={} p50={:.3} p99={:.3}",
                s.n(),
                s.p50(),
                s.pct(99.0)
            ));
        }
        res.info(format!("serve-mix accept_ms {:?}", self.accept_ms));
        self.shares(&a.delta, a.sent, a.runs, res);
        // Throughput is the median over the run's time slices, so a
        // burst of machine noise in one slice does not move it.
        res.info(format!(
            "serve-mix req_per_s overall {:.1}, by slice {:.1?}",
            a.sent as f64 / a.secs.max(1e-9),
            a.slice_rates
        ));
        res.e2e("req_per_s", median(&a.slice_rates), "1/s", a.sent);
        res.e2e("lat_ms_p50", lat.p50(), "ms", lat.n());
        res.e2e("lat_ms_p99", lat.pct(99.0), "ms", lat.n());
    }

    /// Checks every reply: no errors, one answer per key, and on a
    /// seeded sample of keys the batch path's residual (`spec`) or the
    /// tree-evaluated source's value (`run`). Untimed.
    pub fn verify(&self, res: &mut Results) {
        let mut pipelines: HashMap<u64, Option<Pipeline>> = HashMap::new();
        let mut sorted: Vec<_> = self.replies.iter().collect();
        sorted.sort_by_key(|(k, _)| **k);
        for ((key, run), replies) in sorted {
            let k = &self.streams.keys[*key as usize];
            let what = format!(
                "{} {} {} [{}]{}",
                k.kind,
                k.entry,
                k.args,
                k.values,
                if *run { " run" } else { "" }
            );
            let first = &replies[0];
            for r in replies {
                match (r, first) {
                    (Reply::Failed(e), _) => {
                        res.wrong(ctx_line("serve-mix", *key as usize, &what, e))
                    }
                    (Reply::Spec(a), Reply::Spec(b)) if a == b => {}
                    (Reply::Run(a), Reply::Run(b)) if a == b => {}
                    _ => res.wrong(ctx_line(
                        "serve-mix",
                        *key as usize,
                        &what,
                        "replies for one key differ",
                    )),
                }
            }
            let src: &str = match &k.prog {
                ProgRef::Inline(s) => s,
                ProgRef::Dir => &self.art_src,
            };
            // Sampled by content: a fresh key's index depends on how the
            // two clients' streams grew.
            let sample = format!(
                "{}:{:x}:{}:{}:{:?}",
                self.seed,
                fnv64(src.as_bytes()),
                k.entry,
                k.args,
                k.strategy
            );
            if !fnv64(sample.as_bytes()).is_multiple_of(ORACLE_EVERY) {
                continue;
            }
            let pl = pipelines
                .entry(fnv64(src.as_bytes()))
                .or_insert_with(|| Pipeline::from_source(src).ok());
            let Some(pl) = pl.as_ref() else {
                res.wrong(ctx_line(
                    "serve-mix",
                    *key as usize,
                    &what,
                    "oracle pipeline failed",
                ));
                continue;
            };
            let (m, f) = k.entry.split_once('.').unwrap_or((&k.entry, ""));
            let division = parse_division(&k.args);
            let want = match first {
                Reply::Spec(h) => pl
                    .specialise_opts(
                        m,
                        f,
                        division,
                        EngineOptions {
                            strategy: k.strategy,
                            ..EngineOptions::default()
                        },
                    )
                    .map(|s| fnv64(s.source().as_bytes()) == *h),
                Reply::Run(v) => pl
                    .run_source_with(
                        Runner::Tree,
                        m,
                        f,
                        merge_args(&division, &parse_values(&k.values)),
                    )
                    .map(|w| format!("{w}") == *v),
                Reply::Failed(_) => continue,
            };
            match want {
                Ok(true) => {}
                Ok(false) => res.wrong(ctx_line(
                    "serve-mix",
                    *key as usize,
                    &what,
                    "reply differs from the batch oracle",
                )),
                Err(e) => res.wrong(ctx_line(
                    "serve-mix",
                    *key as usize,
                    &what,
                    &format!("oracle failed: {e}"),
                )),
            }
        }
    }

    /// Traced run: the same closed loop with client-side spans on every
    /// other request, then an in-process replay of the requests sent
    /// through a fresh `Resident` to split daemon time by outcome.
    pub fn run_traced(
        &mut self,
        budget: Duration,
        res: &mut Results,
        tr: &mut Tracer,
        origin: Instant,
    ) {
        let p = "serve-mix";
        let (outs, _secs, delta) = self.timed(budget / 2, res, Some(origin));
        let sent: usize = outs.iter().map(|o| o.sent).sum();
        let runs = outs
            .iter()
            .flat_map(|o| o.replies.iter())
            .filter(|r| r.1)
            .count();
        let plain = median(
            &outs
                .iter()
                .flat_map(|o| o.lat_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        let traced = median(
            &outs
                .iter()
                .flat_map(|o| o.traced_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        let mut client_spans = Tracer::new(origin);
        for o in outs {
            if let Some(t) = o.tracer {
                client_spans.absorb(t);
            }
        }
        let l = Layers::new(client_spans.spans());
        let n = sent as u64;
        let metrics = match self.conns[0].call(RequestKind::Metrics) {
            Ok(Response {
                body: ResponseBody::Metrics { text },
                ..
            }) => text,
            _ => String::new(),
        };
        let quantile = |q: &str| -> f64 {
            let needle = format!("mspecd_latency_us{{quantile=\"{q}\"}} ");
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(needle.as_str()))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
                / 1e3
        };
        let [memo, disk, compiled] = self.shares(&delta, sent, runs, res);
        let g = |k: &str| delta.get(k).copied().unwrap_or(0) as f64;
        res.layer(
            p,
            "serve.accept_ms",
            median(&self.accept_ms),
            "ms",
            self.accept_ms.len() as u64,
        );
        res.layer(p, "serve.proto_us", l.self_ms("proto") * 1e3, "us", n);
        res.layer(p, "serve.wait_ms", l.self_ms("serve.wait"), "ms", n);
        res.layer(p, "serve.daemon_ms_p50", quantile("0.5"), "ms", n);
        res.layer(p, "serve.daemon_ms_p99", quantile("0.99"), "ms", n);
        res.layer(p, "serve.memo_hit_ratio", memo, "ratio", n);
        res.layer(p, "serve.compiled_hit_ratio", compiled, "ratio", n);
        res.layer(p, "cache.disk_hit_ratio", disk, "ratio", n);
        res.layer(
            p,
            "serve.programs_built",
            g("resident.programs_built"),
            "count",
            n,
        );
        res.layer(p, "serve.evictions", g("serve.cache.evictions"), "count", n);
        res.layer(
            p,
            "cache.disk_stores",
            g("serve.cache.disk_stores"),
            "count",
            n,
        );
        res.layer(p, "serve.shed", g("serve.shed"), "count", n);
        res.layer(p, "serve.errors", g("serve.errors"), "count", n);
        res.layer(
            p,
            "trace.overhead_frac",
            traced / plain.max(1e-9) - 1.0,
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
        tr.absorb(client_spans);

        // In-process replay of what was sent (warm-up and table pass
        // first, clients interleaved) through a fresh resident tier with
        // the daemon's default options, split by outcome; the time limit
        // applies to the timed requests.
        let disk_dir = self.root.join("replay-cache");
        let resident = Resident::with_options(ResidentOptions {
            memo_cap: ServeConfig::default().memo_cap,
            disk: DiskCache::open(&disk_dir).ok(),
        });
        let dir = self.dir();
        let rec = Recorder::disabled();
        let interleave = |streams: &[Vec<Entry>], lens: &[usize], order: &mut Vec<Entry>| {
            for j in 0..lens.iter().copied().max().unwrap_or(0) {
                order.extend(
                    streams
                        .iter()
                        .zip(lens)
                        .filter_map(|(s, len)| s[..*len].get(j).copied()),
                );
            }
        };
        let mut order: Vec<Entry> = Vec::new();
        let st = &self.streams;
        interleave(&st.warmup, &[WARMUP; CLIENTS], &mut order);
        let prime_lens: Vec<usize> = st.prime.iter().map(Vec::len).collect();
        interleave(&st.prime, &prime_lens, &mut order);
        let untimed = order.len();
        interleave(&st.timed, &self.sent, &mut order);
        let (mut hit_us, mut engine_ms, mut build_ms, mut all_ms) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut replay_start = Instant::now();
        for (j, e) in order.iter().enumerate() {
            if j == untimed {
                replay_start = Instant::now();
            }
            if j > untimed && replay_start.elapsed() >= budget / 2 {
                break;
            }
            let k = &self.streams.keys[e.key as usize];
            let before = resident.stats();
            tr.set_op((3u64 << 40) + j as u64);
            let t = Instant::now();
            let ok = if e.run {
                let req = RunRequest {
                    spec: spec_request(k, &dir),
                    values: k.values.clone(),
                    run_fuel: None,
                };
                tr.span("serve.resident", || {
                    resident.execute_run(
                        &req,
                        CancelToken::new(),
                        &rec,
                        mspec_lang::vm::VmOpt::None,
                    )
                })
                .is_ok()
            } else {
                let req = spec_request(k, &dir);
                tr.span("serve.resident", || {
                    resident.execute_spec(&req, CancelToken::new(), &rec)
                })
                .is_ok()
            };
            let el = ms(t.elapsed());
            if !ok {
                res.wrong(ctx_line(
                    p,
                    j,
                    &format!("replay {} {}", k.entry, k.args),
                    "resident replay failed",
                ));
                continue;
            }
            let after = resident.stats();
            let built = after.programs_built > before.programs_built;
            let hit = after.memo_hits > before.memo_hits || after.disk_hits > before.disk_hits;
            // Once the table is primed only fresh programs reach the
            // engine, and they also build; engine-only outcomes are
            // therefore taken from the whole replay, the table pass
            // included, and the other outcomes from the timed requests.
            if !built && !hit {
                engine_ms.push(el);
            }
            if j >= untimed {
                all_ms.push(el);
                if built {
                    build_ms.push(el);
                } else if hit {
                    hit_us.push(el * 1e3);
                }
            }
        }
        let replay_p50 = median(&all_ms);
        res.layer(
            p,
            "serve.resident_hit_us",
            median(&hit_us),
            "us",
            hit_us.len() as u64,
        );
        res.layer(
            p,
            "serve.resident_engine_ms",
            median(&engine_ms),
            "ms",
            engine_ms.len() as u64,
        );
        res.layer(
            p,
            "serve.resident_build_ms",
            median(&build_ms),
            "ms",
            build_ms.len() as u64,
        );
        res.layer(
            p,
            "serve.queue_wait_ms",
            quantile("0.5") - replay_p50,
            "ms",
            all_ms.len() as u64,
        );
    }

    /// Closes the clients, stops the daemon and waits for its threads.
    pub fn shutdown(mut self) {
        self.conns.clear();
        self.server.shutdown();
        if let Some(h) = self.handle.take() {
            h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_with_fixed_popularity_kinds() {
        let targets = [mspec_lang::ast::QualName::new("Lib0", "f0x0")];
        let (mut a, mut b, mut c) = (
            Streams::new(3, &targets),
            Streams::new(3, &targets),
            Streams::new(4, &targets),
        );
        // Client 0's stream by content, whatever order the streams grew in.
        let keys = |s: &Streams, n: usize| -> Vec<String> {
            s.timed[0]
                .iter()
                .take(n)
                .map(|e| {
                    let k = &s.keys[e.key as usize];
                    let prog = match &k.prog {
                        ProgRef::Inline(src) => fnv64(src.as_bytes()),
                        ProgRef::Dir => 0,
                    };
                    format!("{prog:x} {} {} {}", k.entry, k.args, e.run)
                })
                .collect()
        };
        a.extend(0, 5_000);
        b.extend(1, 7_000);
        b.extend(0, 5_000);
        c.extend(0, 5_000);
        assert_eq!(keys(&a, 5_000), keys(&b, 5_000));
        assert_ne!(keys(&a, 500), keys(&c, 500));
        // The table pass asks for every table key once, the most
        // popular last.
        let mut primed: Vec<u32> = a.prime.iter().flatten().map(|e| e.key).collect();
        primed.sort_unstable();
        assert_eq!(primed, (0..a.ranked.len() as u32).collect::<Vec<_>>());
        assert!(a.prime.iter().flatten().all(|e| !e.run));
        assert!(a
            .prime
            .iter()
            .any(|s| s.last().map(|e| e.key) == Some(a.ranked[0])));
        let kinds = |s: &Streams| -> Vec<&str> {
            ranking(3, &s.keys)
                .iter()
                .take(10)
                .map(|k| s.keys[*k as usize].kind)
                .collect()
        };
        assert_eq!(kinds(&a), kinds(&c));
        assert_eq!(&kinds(&a)[..5], &RANK_PATTERN[..]);
    }
}
