//! PR 7 service table: `mspecd` daemon throughput and tail latency.
//!
//! Run: `cargo run --release -p mspec-bench --bin serve_table`
//!
//! Two scenarios, both over loopback TCP against an in-process server:
//!
//! * **throughput** — closed-loop clients at 1, 2 and 4 connections,
//!   each issuing a stream of distinct `Power` specialisation requests;
//!   reports requests/sec and p50/p99 latency per concurrency level
//!   (fresh server per level so the resident memo does not leak work
//!   across levels);
//! * **overload** — a deliberately tiny queue (1 worker, depth 4) hit
//!   by 8 clients with no backoff; reports the shed rate and the p99
//!   over *all* replies, demonstrating that load-shedding keeps the
//!   tail bounded instead of letting queueing delay grow without bound.
//!
//! Writes machine-readable results to `BENCH_pr7.json`.

use mspec_bench::{cores, us};
use mspec_core::Recorder;
use mspec_lang::eval::with_big_stack;
use mspec_lang::{FromJson, Json, ToJson};
use mspec_serve::{Request, RequestKind, Response, ResponseBody, ServeConfig, Server, SpecRequest};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const POWER: &str = "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

fn obj(fields: Vec<(String, Json)>) -> Json {
    Json::Obj(fields)
}

fn percentile(sorted_ns: &[u128], p: usize) -> u128 {
    if sorted_ns.is_empty() {
        return 0;
    }
    sorted_ns[(sorted_ns.len() - 1) * p / 100]
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(port: u16) -> Conn {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to mspecd");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { stream, reader }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        self.stream
            .write_all(format!("{}\n", req.to_json_compact()).as_bytes())
            .expect("write frame");
        self.stream.flush().expect("flush frame");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        Response::from_json_str(line.trim_end()).expect("parse reply")
    }
}

fn power_request(id: u64, exponent: u64) -> Request {
    Request {
        id,
        kind: RequestKind::Spec(SpecRequest::inline(
            POWER,
            "Power.power",
            &format!("S:{exponent},D"),
        )),
    }
}

struct LevelResult {
    clients: usize,
    requests: usize,
    ok: usize,
    memo_hits: usize,
    wall: Duration,
    p50_ns: u128,
    p99_ns: u128,
}

impl LevelResult {
    fn reqs_per_sec(&self) -> u128 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            return 0;
        }
        (self.requests as f64 / s).round() as u128
    }
}

/// Closed-loop load: `clients` connections, `per_client` sequential
/// requests each, distinct exponents per (client, index) so the engine
/// does real work on first sight and the resident memo sees repeats
/// only across clients — the realistic service mix.
fn run_level(port: u16, clients: usize, per_client: usize) -> LevelResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|cid| {
            std::thread::spawn(move || {
                let mut conn = Conn::open(port);
                let mut lat = Vec::with_capacity(per_client);
                let mut ok = 0usize;
                let mut memo = 0usize;
                for i in 0..per_client {
                    let exponent = 2 + ((cid * 37 + i) % 48) as u64;
                    let t0 = Instant::now();
                    let resp = conn.roundtrip(&power_request((cid * 1000 + i) as u64, exponent));
                    lat.push(t0.elapsed().as_nanos());
                    if let ResponseBody::Spec { memo_hit, .. } = resp.body {
                        ok += 1;
                        if memo_hit {
                            memo += 1;
                        }
                    }
                }
                (lat, ok, memo)
            })
        })
        .collect();
    let mut lat = Vec::new();
    let mut ok = 0;
    let mut memo_hits = 0;
    for h in handles {
        let (l, o, m) = h.join().expect("client thread");
        lat.extend(l);
        ok += o;
        memo_hits += m;
    }
    let wall = started.elapsed();
    lat.sort_unstable();
    LevelResult {
        clients,
        requests: lat.len(),
        ok,
        memo_hits,
        wall,
        p50_ns: percentile(&lat, 50),
        p99_ns: percentile(&lat, 99),
    }
}

struct OverloadResult {
    offered: usize,
    ok: usize,
    shed: usize,
    p50_ns: u128,
    p99_ns: u128,
}

/// Overload: 1 worker, queue depth 4, 8 clients firing with no backoff.
/// Shed replies (`overloaded`) come back immediately, so the p99 over
/// *all* replies stays bounded by roughly one queue drain, not by the
/// offered load.
fn run_overload(port: u16, clients: usize, per_client: usize) -> OverloadResult {
    let handles: Vec<_> = (0..clients)
        .map(|cid| {
            std::thread::spawn(move || {
                let mut conn = Conn::open(port);
                let mut lat = Vec::with_capacity(per_client);
                let mut ok = 0usize;
                let mut shed = 0usize;
                for i in 0..per_client {
                    // Heavier work than the throughput mix, and distinct
                    // per request, so the single worker falls behind.
                    let exponent = 150 + ((cid * per_client + i) % 100) as u64;
                    let t0 = Instant::now();
                    let resp = conn.roundtrip(&power_request((cid * 1000 + i) as u64, exponent));
                    lat.push(t0.elapsed().as_nanos());
                    match resp.body {
                        ResponseBody::Spec { .. } => ok += 1,
                        ResponseBody::Error(e) if e.retryable => shed += 1,
                        _ => {}
                    }
                }
                (lat, ok, shed)
            })
        })
        .collect();
    let mut lat = Vec::new();
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        let (l, o, s) = h.join().expect("client thread");
        lat.extend(l);
        ok += o;
        shed += s;
    }
    lat.sort_unstable();
    OverloadResult {
        offered: lat.len(),
        ok,
        shed,
        p50_ns: percentile(&lat, 50),
        p99_ns: percentile(&lat, 99),
    }
}

fn level_json(r: &LevelResult) -> Json {
    obj(vec![
        ("clients".to_string(), Json::Num(r.clients as u128)),
        ("requests".to_string(), Json::Num(r.requests as u128)),
        ("ok".to_string(), Json::Num(r.ok as u128)),
        ("memo_hits".to_string(), Json::Num(r.memo_hits as u128)),
        ("wall_ns".to_string(), Json::Num(r.wall.as_nanos())),
        ("reqs_per_sec".to_string(), Json::Num(r.reqs_per_sec())),
        ("p50_ns".to_string(), Json::Num(r.p50_ns)),
        ("p99_ns".to_string(), Json::Num(r.p99_ns)),
    ])
}

fn main() {
    with_big_stack(run);
}

fn run() {
    let cores = cores();
    println!("PR 7 service table (cores = {cores})");
    println!();

    // --- throughput at increasing concurrency ------------------------
    let mut levels = Vec::new();
    for clients in [1usize, 2, 4] {
        let server = Server::new(
            ServeConfig { workers: 2, ..ServeConfig::default() },
            Recorder::disabled(),
        );
        let handle = server.start_tcp().expect("bind daemon");
        let level = run_level(handle.port, clients, 60);
        server.shutdown();
        handle.join();
        assert_eq!(level.ok, level.requests, "throughput run had failures");
        println!(
            "throughput, {} client(s): {} reqs in {} us, {}/s, p50 {} us, p99 {} us ({} memo hits)",
            level.clients,
            level.requests,
            us(level.wall),
            level.reqs_per_sec(),
            level.p50_ns / 1_000,
            level.p99_ns / 1_000,
            level.memo_hits,
        );
        levels.push(level);
    }
    println!();

    // --- overload: bounded tail via shedding -------------------------
    let server = Server::new(
        ServeConfig { workers: 1, queue_depth: 4, ..ServeConfig::default() },
        Recorder::disabled(),
    );
    let handle = server.start_tcp().expect("bind daemon");
    let over = run_overload(handle.port, 8, 40);
    let stats = server.stats();
    server.shutdown();
    handle.join();
    let shed_rate_milli = (over.shed * 1000).checked_div(over.offered).unwrap_or(0);
    println!(
        "overload, 8 clients on 1 worker / queue 4: {} offered, {} ok, {} shed \
         ({shed_rate_milli} per mille), p50 {} us, p99 {} us",
        over.offered,
        over.ok,
        over.shed,
        over.p50_ns / 1_000,
        over.p99_ns / 1_000,
    );
    assert!(over.shed > 0, "overload scenario must actually shed");
    assert_eq!(stats.shed as usize, over.shed, "server and client shed counts agree");
    println!();

    let report = obj(vec![
        ("pr".to_string(), Json::str("pr7")),
        ("cores".to_string(), Json::Num(cores as u128)),
        (
            "serve_throughput".to_string(),
            obj(levels
                .iter()
                .map(|l| (format!("clients_{}", l.clients), level_json(l)))
                .collect()),
        ),
        (
            "serve_overload".to_string(),
            obj(vec![
                ("workers".to_string(), Json::Num(1)),
                ("queue_depth".to_string(), Json::Num(4)),
                ("clients".to_string(), Json::Num(8)),
                ("offered".to_string(), Json::Num(over.offered as u128)),
                ("ok".to_string(), Json::Num(over.ok as u128)),
                ("shed".to_string(), Json::Num(over.shed as u128)),
                ("shed_rate_milli".to_string(), Json::Num(shed_rate_milli as u128)),
                ("p50_ns".to_string(), Json::Num(over.p50_ns)),
                ("p99_ns".to_string(), Json::Num(over.p99_ns)),
            ]),
        ),
    ]);

    std::fs::write("BENCH_pr7.json", report.write_pretty()).expect("write BENCH_pr7.json");
    println!("wrote BENCH_pr7.json");
}
