//! End-to-end tests for `mspecd`, the specialisation daemon:
//!
//! * deadlines cancel a running request with *partial-progress* stats
//!   while a concurrent cheap request on another connection completes
//!   unaffected;
//! * residuals produced through the daemon are byte-identical to the
//!   batch `mspec spec` CLI output (same pipeline, same pretty-printer);
//! * the cross-request memo is shared between connections;
//! * a megabyte inline source is decoded in linear time;
//! * a restarted daemon's disk tier does not serve residuals of a
//!   genext rebuilt while it was down.

use mspec_serve::{
    ErrorClass, Request, RequestKind, Response, ResponseBody, ServeConfig, Server, SpecRequest,
};
use mspec_lang::{FromJson, ToJson};
use mspec_telemetry::Recorder;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::Command;

const POWER: &str = "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

/// Unbounded polyvariance: the static counter grows under dynamic
/// control forever, iteratively — only a budget or deadline stops it.
const POLY: &str = "module Loop where\ncount n b = if b == 0 then n else count (n + 1) (b - 1)\n";

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(port: u16) -> Conn {
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        self.stream.write_all(format!("{}\n", req.to_json_compact()).as_bytes()).unwrap();
        self.stream.flush().unwrap();
        self.read_response()
    }

    fn read_response(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Response::from_json_str(line.trim_end()).unwrap()
    }
}

fn start(mut cfg: ServeConfig) -> (Server, mspec_serve::TcpHandle) {
    // Crash dumps default to the cwd; tests that trip the panic path
    // must never litter the crate directory.
    if cfg.crash_dir.is_none() {
        cfg.crash_dir = Some(std::env::temp_dir().to_string_lossy().into_owned());
    }
    let server = Server::new(cfg, Recorder::disabled());
    let handle = server.start_tcp().unwrap();
    (server, handle)
}

/// Satellite: a fuel-heavy request under a short deadline returns a
/// structured `deadline` error carrying partial-progress stats, while a
/// concurrent cheap request on a second connection completes normally.
#[test]
fn deadline_exceeded_reports_partial_progress_and_peers_complete() {
    let (server, handle) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let port = handle.port;

    let heavy = std::thread::spawn(move || {
        let mut c = Conn::open(port);
        c.roundtrip(&Request {
            id: 1,
            kind: RequestKind::Spec(SpecRequest {
                deadline_ms: Some(60),
                fuel: Some(1_000_000_000),
                max_spec: Some(usize::MAX),
                ..SpecRequest::inline(POLY, "Loop.count", "S:0,D")
            }),
        })
    });

    // While the heavy request burns its deadline, a cheap one on a
    // fresh connection must go through the second worker untouched.
    let mut c = Conn::open(port);
    let cheap = c.roundtrip(&Request {
        id: 2,
        kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", "S:4,D")),
    });
    let ResponseBody::Spec { residual, .. } = cheap.body else {
        panic!("cheap request should complete: {cheap:?}");
    };
    assert!(residual.contains("x * (x * (x * x))"), "{residual}");

    let heavy = heavy.join().unwrap();
    assert_eq!(heavy.id, 1);
    let ResponseBody::Error(e) = heavy.body else {
        panic!("heavy request should hit its deadline: {heavy:?}");
    };
    assert_eq!(e.class, ErrorClass::Deadline);
    assert!(!e.retryable, "deadline errors are terminal for this request");
    let stats = e.stats.expect("deadline reply must carry partial-progress stats");
    assert!(stats.steps > 0, "partial progress should show steps: {stats:?}");

    server.shutdown();
    handle.join();
    assert!(server.stats().deadline_expired >= 1);
}

/// Acceptance: a residual produced via the daemon (spawned over stdio
/// by `mspec client --spawn`) is byte-identical to `mspec spec` output.
#[test]
fn daemon_residuals_are_byte_identical_to_cli() {
    let exe = env!("CARGO_BIN_EXE_mspec");
    let dir = std::env::temp_dir().join(format!("mspec-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("power.mspec");
    std::fs::write(&file, POWER).unwrap();

    let batch = Command::new(exe)
        .args(["spec", file.to_str().unwrap(), "--entry", "Power.power", "--args", "S:6,D"])
        .output()
        .unwrap();
    assert!(batch.status.success(), "{}", String::from_utf8_lossy(&batch.stderr));

    let served = Command::new(exe)
        .args([
            "client",
            "spec",
            file.to_str().unwrap(),
            "--entry",
            "Power.power",
            "--args",
            "S:6,D",
            "--spawn",
        ])
        .output()
        .unwrap();
    assert!(served.status.success(), "{}", String::from_utf8_lossy(&served.stderr));

    assert!(!batch.stdout.is_empty());
    assert_eq!(
        batch.stdout, served.stdout,
        "daemon residual must be byte-identical to the CLI's:\n--- cli ---\n{}\n--- daemon ---\n{}",
        String::from_utf8_lossy(&batch.stdout),
        String::from_utf8_lossy(&served.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec frame carrying a 1 MiB inline source (`power.mspec` after a
/// 1 MiB comment line, which the lexer skips cheaply) is answered within
/// seconds with the batch residual's bytes. A decoder that re-validated
/// the rest of the frame for each character took over 30 s here in a
/// debug build.
#[test]
fn megabyte_inline_source_is_answered_promptly() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let program = std::fs::read_to_string(root.join("examples/programs/power.mspec")).unwrap();
    let source = format!("-- {}\n{program}", "x".repeat(1 << 20));
    let dir = std::env::temp_dir().join(format!("mspec-serve-large-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("power.mspec");
    std::fs::write(&file, &source).unwrap();
    let batch = Command::new(env!("CARGO_BIN_EXE_mspec"))
        .args(["spec", file.to_str().unwrap(), "--entry", "Power.power", "--args", "S:5,D"])
        .output()
        .unwrap();
    assert!(batch.status.success(), "{}", String::from_utf8_lossy(&batch.stderr));
    let _ = std::fs::remove_dir_all(&dir);

    let (server, handle) = start(ServeConfig::default());
    let mut c = Conn::open(handle.port);
    let sent = std::time::Instant::now();
    let reply = c.roundtrip(&Request {
        id: 1,
        kind: RequestKind::Spec(SpecRequest::inline(&source, "Power.power", "S:5,D")),
    });
    let took = sent.elapsed();
    server.shutdown();
    handle.join();

    let ResponseBody::Spec { residual, .. } = reply.body else {
        panic!("large inline spec should complete: {reply:?}");
    };
    assert_eq!(format!("{residual}\n"), String::from_utf8_lossy(&batch.stdout));
    assert!(took < std::time::Duration::from_secs(3), "1 MiB spec frame took {took:?}");
}

/// Resident state: the memo of finished specialisations is shared
/// across connections — the second identical request is a memo hit.
#[test]
fn memo_is_shared_across_connections() {
    let (server, handle) = start(ServeConfig::default());
    let req = || Request {
        id: 7,
        kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", "S:5,D")),
    };

    let mut first = Conn::open(handle.port);
    let r1 = first.roundtrip(&req());
    let ResponseBody::Spec { residual: res1, memo_hit: hit1, .. } = r1.body else {
        panic!("{r1:?}");
    };
    assert!(!hit1);
    drop(first);

    let mut second = Conn::open(handle.port);
    let r2 = second.roundtrip(&req());
    let ResponseBody::Spec { residual: res2, memo_hit: hit2, .. } = r2.body else {
        panic!("{r2:?}");
    };
    assert!(hit2, "second identical request should hit the resident memo");
    assert_eq!(res1, res2);

    server.shutdown();
    handle.join();
}

/// A genext rebuilt while the daemon is stopped — same interface, new
/// body — must not be answered from the disk tier after a restart: the
/// directory's identity covers its `.gx` files, so the old entry's key
/// is unreachable.
#[test]
fn restarted_daemon_does_not_serve_a_rebuilt_genext_from_disk() {
    let base = std::env::temp_dir().join(format!("mspec-serve-rebuilt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (dir, cache) = (base.join("gx"), base.join("cache"));
    let cogen = |src: &str| {
        let rp = mspec_lang::resolve::resolve(mspec_lang::parser::parse_program(src).unwrap());
        let m = rp.unwrap().program().modules[0].clone();
        mspec_cogen::files::cogen_module(&m, &dir, &Default::default()).unwrap();
    };
    let spec = || {
        let (server, handle) = start(ServeConfig {
            cache_dir: Some(cache.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        });
        let req = SpecRequest {
            program: None,
            dir: Some(dir.to_string_lossy().into_owned()),
            ..SpecRequest::inline("", "M.f", "D")
        };
        let req = Request { id: 1, kind: RequestKind::Spec(req) };
        let reply = Conn::open(handle.port).roundtrip(&req);
        server.shutdown();
        handle.join();
        match reply.body {
            ResponseBody::Spec { residual, memo_hit, .. } => (residual, memo_hit),
            other => panic!("{other:?}"),
        }
    };
    cogen("module M where\nf x = x + 1\n");
    let (cold, hit) = spec();
    assert!(!hit && cold.contains("x + 1"), "{cold}");
    assert_eq!(spec(), (cold, true), "a restart answers from disk");

    cogen("module M where\nf x = 1 + x\n");
    let (fresh, hit) = spec();
    assert!(!hit, "the pre-rebuild residual was served from disk: {fresh}");
    assert!(fresh.contains("1 + x"), "{fresh}");
    let _ = std::fs::remove_dir_all(&base);
}

/// One fully traced daemon run: a single connection issues two spec
/// requests against a one-worker server, so conn ids, request ids,
/// thread ids and event order are all deterministic. Only the event
/// stream is kept (counter and hist lines aggregate wall-clock
/// timings), with timestamps scrubbed.
fn traced_daemon_event_log() -> String {
    let rec = Recorder::enabled();
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let server = Server::new(cfg, rec.clone());
    let handle = server.start_tcp().unwrap();
    let mut c = Conn::open(handle.port);
    for (id, spec) in [(1u64, "S:3,D"), (2, "S:4,D")] {
        let resp = c.roundtrip(&Request {
            id,
            kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", spec)),
        });
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
    }
    drop(c);
    server.shutdown();
    handle.join();
    let events: String = mspec_testkit::scrub_timestamps(&rec.snapshot().to_jsonl())
        .lines()
        .filter(|l| !l.contains("\"ev\":\"counter\"") && !l.contains("\"ev\":\"hist\""))
        .map(|l| format!("{l}\n"))
        .collect();
    events
}

/// Satellite: the daemon's scrubbed per-request event stream matches a
/// checked-in golden file byte for byte — every admitted request's
/// events carry its `req`/`conn` tags. Regenerate with
/// `MSPEC_BLESS=1 cargo test -p mspec-core --test serve_daemon`.
#[test]
fn golden_daemon_trace_is_req_tagged() {
    let got = traced_daemon_event_log();
    let rid1 = mspec_serve::request_trace_id(1, 1);
    let rid2 = mspec_serve::request_trace_id(1, 2);
    assert!(got.contains(&format!("\"req\":{rid1},\"conn\":1")), "{got}");
    assert!(got.contains(&format!("\"req\":{rid2},\"conn\":1")), "{got}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/events_daemon.jsonl");
    if std::env::var_os("MSPEC_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    assert_eq!(got, want, "golden daemon trace drifted; bless with MSPEC_BLESS=1");
}

/// Satellite: the daemon's metrics exposition surface — family names,
/// types, help text, label sets and sample ordering — matches a golden
/// file with every sample value scrubbed to 0 (the values are live;
/// the *schema* is the contract scrape configs depend on). Regenerate
/// with `MSPEC_BLESS=1 cargo test -p mspec-core --test serve_daemon`.
#[test]
fn golden_metrics_exposition_schema() {
    let (server, handle) = start(ServeConfig::default());
    let mut c = Conn::open(handle.port);
    for id in [1u64, 2] {
        // Same spec twice: the second is a memo hit, so both cache and
        // latency families have data.
        let resp = c.roundtrip(&Request {
            id,
            kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", "S:6,D")),
        });
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
    }
    // Latency is observed after the reply is sent; retry until both
    // observations landed so the quantile lines are present.
    let mut text = String::new();
    for id in 3u64..40 {
        let resp = c.roundtrip(&Request { id, kind: RequestKind::Metrics });
        let ResponseBody::Metrics { text: t } = resp.body else { panic!("{resp:?}") };
        text = t;
        if text.contains("mspecd_latency_us_count 2\n") {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    server.shutdown();
    handle.join();

    let scrubbed: String = text
        .lines()
        .map(|l| {
            if l.starts_with('#') {
                format!("{l}\n")
            } else {
                let (name, _value) = l.rsplit_once(' ').expect("sample line");
                format!("{name} 0\n")
            }
        })
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/metrics_exposition.txt");
    if std::env::var_os("MSPEC_BLESS").is_some() {
        std::fs::write(&path, &scrubbed).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    assert_eq!(scrubbed, want, "metrics exposition schema drifted; bless with MSPEC_BLESS=1");
}
