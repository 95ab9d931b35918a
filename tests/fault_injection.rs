//! Fault injection: the pipeline must degrade *structurally*, never by
//! panicking, hanging or silently mis-loading, when
//!
//! * on-disk artefacts are truncated, bit-flipped or version-bumped,
//! * interfaces change underneath already-compiled genexts,
//! * the source program diverges under specialisation (static recursion
//!   on an unbounded counter), under both exhaustion policies: a
//!   structured budget error, or the generalising fallback that demotes
//!   the offending call to a fully-dynamic residual call,
//! * the `mspecd` daemon is fed a chaos matrix of malformed frames,
//!   truncated frames, mid-request disconnects, panicking requests and
//!   budget-exhausting requests — and must answer every *subsequent*
//!   request correctly, never dying or stalling.

use mspec_cogen::files::{cogen_module, load_bti, load_gx, CogenError};
use mspec_cogen::link_dir;
use mspec_core::{
    EngineOptions, OnExhaustion, Pipeline, PipelineError, SpecArg, SpecBudget,
};
use mspec_genext::SpecError;
use mspec_lang::eval::Value;
use mspec_lang::parser::parse_program;
use mspec_lang::resolve::resolve;
use mspec_testkit::corrupt::{bump_version, flip_random_bit, truncate_file};
use mspec_testkit::TestRng;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mspec-fault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Cogens a two-module tree (B imports A) into `dir`; returns the
/// artefact paths `(A.bti, B.gx)`.
fn cogen_tree(dir: &PathBuf) -> (PathBuf, PathBuf) {
    let rp = resolve(
        parse_program(
            "module A where\nf x = x + 1\nmodule B where\nimport A\ng y = f y * 2\n",
        )
        .unwrap(),
    )
    .unwrap();
    let a = rp.program().module("A").unwrap().clone();
    let b = rp.program().module("B").unwrap().clone();
    let out_a = cogen_module(&a, dir, &BTreeSet::new()).unwrap();
    let out_b = cogen_module(&b, dir, &BTreeSet::new()).unwrap();
    (out_a.bti, out_b.gx)
}

#[test]
fn truncated_artefacts_give_structured_errors() {
    let dir = tmpdir("truncate");
    let (bti, gx) = cogen_tree(&dir);
    let gx_clean = fs::read(&gx).unwrap();
    let bti_clean = fs::read(&bti).unwrap();
    // Cut at a spread of points: empty file, mid-header, just after
    // the header, mid-payload, one byte short of complete.
    let cuts = |len: usize| [0, 1, 10, len / 3, len / 2, len - 1];
    for keep in cuts(gx_clean.len()) {
        fs::write(&gx, &gx_clean).unwrap();
        truncate_file(&gx, keep);
        match load_gx(&gx) {
            Err(CogenError::Format(_)) => {}
            other => panic!("gx truncated to {keep} bytes: expected Format error, got {other:?}"),
        }
    }
    for keep in cuts(bti_clean.len()) {
        fs::write(&bti, &bti_clean).unwrap();
        truncate_file(&bti, keep);
        match load_bti(&bti) {
            Err(CogenError::Format(_)) => {}
            other => panic!("bti truncated to {keep} bytes: expected Format error, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn random_bit_flips_never_load() {
    let dir = tmpdir("bitflip");
    let (bti, gx) = cogen_tree(&dir);
    let gx_clean = fs::read(&gx).unwrap();
    let bti_clean = fs::read(&bti).unwrap();
    let mut rng = TestRng::seed_from_u64(0xFA117);
    for round in 0..64 {
        fs::write(&gx, &gx_clean).unwrap();
        let (off, mask) = flip_random_bit(&gx, &mut rng);
        assert!(
            load_gx(&gx).is_err(),
            "round {round}: gx with bit {mask:#04x} flipped at byte {off} loaded cleanly"
        );
        fs::write(&bti, &bti_clean).unwrap();
        let (off, mask) = flip_random_bit(&bti, &mut rng);
        assert!(
            load_bti(&bti).is_err(),
            "round {round}: bti with bit {mask:#04x} flipped at byte {off} loaded cleanly"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_bumped_artefacts_are_rejected() {
    let dir = tmpdir("version");
    let (bti, gx) = cogen_tree(&dir);
    bump_version(&gx);
    let err = load_gx(&gx).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
    bump_version(&bti);
    let err = load_bti(&bti).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// Re-cogen an import with a different interface behind the linker's
/// back: the downstream `.gx` must be rejected as stale, not linked
/// into an inconsistent program.
#[test]
fn link_rejects_gx_built_against_old_interface() {
    let dir = tmpdir("stale");
    cogen_tree(&dir);
    let rp = resolve(parse_program("module A where\nf x = x + 1\nh z = z\n").unwrap()).unwrap();
    let a2 = rp.program().modules[0].clone();
    cogen_module(&a2, &dir, &BTreeSet::new()).unwrap();
    match link_dir(&dir) {
        Err(CogenError::StaleInterface { module, import }) => {
            assert_eq!(module.as_str(), "B");
            assert_eq!(import.as_str(), "A");
        }
        other => panic!("expected StaleInterface, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A diverging static recursion (`loop n = loop (n + 1)`) under the
/// default policy: a structured budget error naming the offending
/// function and the request chain — never a hang.
#[test]
fn divergence_under_error_policy_names_the_culprit() {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(divergence_error_policy_body)
        .unwrap()
        .join()
        .unwrap();
}

fn divergence_error_policy_body() {
    let p = Pipeline::from_source("module M where\nloop n = loop (n + 1)\nmain x = loop 0 + x\n")
        .unwrap();
    let err = p
        .specialise_opts(
            "M",
            "main",
            vec![SpecArg::Dynamic],
            EngineOptions {
                budget: SpecBudget::with_steps(5_000),
                on_exhaustion: OnExhaustion::Error,
                ..EngineOptions::default()
            },
        )
        .unwrap_err();
    match err {
        PipelineError::Spec(SpecError::BudgetExhausted { witness, chain, .. }) => {
            assert_eq!(witness.to_string(), "M.loop");
            assert!(
                chain.iter().any(|q| q.to_string() == "M.loop"),
                "chain should show the cycle: {chain:?}"
            );
        }
        other => panic!("expected BudgetExhausted, got {other}"),
    }
}

/// The same diverging program under the generalising fallback:
/// specialisation *succeeds*, the offending call is demoted to a
/// fully-dynamic residual call, and the residual is byte-stable.
#[test]
fn divergence_under_generalise_policy_terminates() {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(divergence_generalise_policy_body)
        .unwrap()
        .join()
        .unwrap();
}

fn divergence_generalise_policy_body() {
    let p = Pipeline::from_source("module M where\nloop n = loop (n + 1)\nmain x = loop 0 + x\n")
        .unwrap();
    let opts = || EngineOptions {
        budget: SpecBudget::with_steps(5_000),
        on_exhaustion: OnExhaustion::Generalise,
        ..EngineOptions::default()
    };
    let s1 = p.specialise_opts("M", "main", vec![SpecArg::Dynamic], opts()).unwrap();
    assert!(s1.stats.generalised >= 1, "{:?}", s1.stats);
    // The divergence is still in the *residual* (it is in the source
    // program's semantics), but specialisation itself terminated and
    // produced a self-contained recursive definition.
    let src = s1.source();
    assert!(src.contains("loop"), "{src}");
    // Byte-stable: an identical second run yields the identical text.
    let s2 = p.specialise_opts("M", "main", vec![SpecArg::Dynamic], opts()).unwrap();
    assert_eq!(src, s2.source());
}

/// Unbounded polyvariance (static counter chasing a dynamic bound)
/// under the generalising fallback: the engine stops minting variants,
/// demotes the counter to dynamic, and the residual stays semantically
/// equivalent to the source program.
#[test]
fn polyvariance_fallback_residual_is_semantically_correct() {
    let p = Pipeline::from_source(
        "module M where\nsumto a b = if b <= a then 0 else a + sumto (a + 1) b\nmain n = sumto 0 n\n",
    )
    .unwrap();
    let opts = || EngineOptions {
        budget: SpecBudget { max_specialisations: 4, ..SpecBudget::default() },
        on_exhaustion: OnExhaustion::Generalise,
        ..EngineOptions::default()
    };
    let s1 = p.specialise_opts("M", "main", vec![SpecArg::Dynamic], opts()).unwrap();
    assert!(s1.stats.generalised >= 1, "{:?}", s1.stats);
    // Source oracle: sumto 0 n for a few n.
    for n in [0u64, 1, 5, 9] {
        let expect = p.run_source("M", "main", vec![Value::nat(n)]).unwrap();
        assert_eq!(s1.run(vec![Value::nat(n)]).unwrap(), expect, "n = {n}");
    }
    // Byte-stable across runs.
    let s2 = p.specialise_opts("M", "main", vec![SpecArg::Dynamic], opts()).unwrap();
    assert_eq!(s1.source(), s2.source());
}

/// When budgets are *not* hit, the fallback policy is invisible: the
/// residual is byte-identical to the default engine's.
#[test]
fn generalise_policy_is_inert_when_budgets_are_not_hit() {
    let p = Pipeline::from_source(
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n",
    )
    .unwrap();
    let args = || vec![SpecArg::Static(Value::nat(5)), SpecArg::Dynamic];
    let default = p.specialise("Power", "power", args()).unwrap();
    let fallback = p
        .specialise_opts(
            "Power",
            "power",
            args(),
            EngineOptions { on_exhaustion: OnExhaustion::Generalise, ..EngineOptions::default() },
        )
        .unwrap();
    assert_eq!(default.source(), fallback.source());
    assert_eq!(fallback.stats.generalised, 0);
}

/// A program whose module `PanicLeaf` the debug-only
/// `MSPEC_FAULT_PANIC_MODULE` hook panics in: `Solo` is independent of
/// it, `Down` imports it. The hook matches by module name and no other
/// test names a module `PanicLeaf`; every injecting test sets the same
/// value and none clears it, so tests running concurrently never undo
/// each other's injection.
#[cfg(debug_assertions)]
const PANIC_LEAF: &str = "module PanicLeaf where\n\
    p1 x = x + 1\n\
    module Solo where\n\
    solo x = x * 2\n\
    module Down where\n\
    import PanicLeaf\n\
    d x = p1 x\n";

#[cfg(debug_assertions)]
fn inject_panic_in_panic_leaf() {
    std::env::set_var("MSPEC_FAULT_PANIC_MODULE", "PanicLeaf");
}

/// A panic injected inside one module's build (the
/// `MSPEC_FAULT_PANIC_MODULE` hook) is isolated: the module is reported
/// panicked, its dependent skipped and its independent sibling built,
/// all in one structured [`PipelineError::Build`] report. The hook is
/// compiled only into debug builds, and so is this test.
#[cfg(debug_assertions)]
#[test]
fn injected_panic_yields_a_structured_build_report() {
    use mspec_core::{ModuleOutcome, Recorder};
    inject_panic_in_panic_leaf();
    let err = Pipeline::from_program_traced(
        parse_program(PANIC_LEAF).unwrap(),
        &BTreeSet::new(),
        &Recorder::disabled(),
    )
    .map(|_| ())
    .expect_err("the injected panic must fail the build");
    let PipelineError::Build(report) = &err else {
        panic!("expected a structured build report, got {err:?}");
    };
    assert!(
        matches!(report.outcome("PanicLeaf"), Some(ModuleOutcome::Failed(CogenError::Panicked(_)))),
        "{report}"
    );
    assert_eq!(report.outcome("Solo"), Some(&ModuleOutcome::Built), "{report}");
    assert!(matches!(report.outcome("Down"), Some(ModuleOutcome::Skipped { .. })), "{report}");
    let text = report.to_string();
    assert!(text.contains("injected fault in PanicLeaf"), "{text}");
}

/// Persistent residual cache under corruption: torn, truncated,
/// bit-flipped or version-bumped entries are *misses* — never served,
/// never fatal — and the next store rewrites the slot.
#[test]
fn disk_cache_corruption_is_a_miss_never_fatal() {
    use mspec_cache::{spec_key, CacheEntry, DiskCache};
    use mspec_genext::{OnExhaustion, SpecStats, Strategy};

    let dir = tmpdir("cache-corrupt");
    let cache = DiskCache::open(&dir).unwrap();
    let key = spec_key(
        "src:deadbeef",
        "M.f",
        "S:3,D",
        None,
        None,
        OnExhaustion::Error,
        Strategy::BreadthFirst,
    );
    let entry = CacheEntry {
        key: key.clone(),
        entry: "M.f_3".into(),
        residual: "module M where\nf_3 x = x + 3\n".into(),
        stats: SpecStats::default(),
    };
    let path = cache.put(&entry).unwrap();
    assert_eq!(cache.get(&key), Some(entry.clone()));

    let clean = fs::read(&path).unwrap();
    // Torn writes: truncations at a spread of depths.
    for keep in [0, 1, 10, clean.len() / 3, clean.len() / 2, clean.len() - 1] {
        fs::write(&path, &clean).unwrap();
        truncate_file(&path, keep);
        assert!(cache.get(&key).is_none(), "truncated to {keep} bytes: must miss");
    }
    // Bit flips anywhere in the entry: the checksummed framing catches
    // every one of them.
    let mut rng = TestRng::seed_from_u64(0xCAC4E);
    for round in 0..64 {
        fs::write(&path, &clean).unwrap();
        let (off, mask) = flip_random_bit(&path, &mut rng);
        assert!(
            cache.get(&key).is_none(),
            "round {round}: entry with bit {mask:#04x} flipped at byte {off} was served"
        );
    }
    // A future format version is a miss too, not an error.
    fs::write(&path, &clean).unwrap();
    bump_version(&path);
    assert!(cache.get(&key).is_none());
    // The next store repairs the slot, whatever garbage sits there.
    fs::write(&path, b"torn to shreds").unwrap();
    cache.put(&entry).unwrap();
    assert_eq!(cache.get(&key), Some(entry));
    let _ = fs::remove_dir_all(&dir);
}

/// The atomic-write path under a kill mid-write: a writer that dies
/// before its rename leaves only a private temp file — never a partial
/// artefact at the final path, never a file a directory scan picks up —
/// and concurrent writers racing one path always leave some writer's
/// *complete* output.
#[test]
fn kill_mid_write_never_exposes_partial_artefacts() {
    use mspec_cogen::atomic_write;
    use mspec_cogen::files::encode_artefact;

    let dir = tmpdir("kill-mid-write");
    let target = dir.join("M.gx");
    // The exact on-disk state a killed writer leaves behind: its temp
    // file holding a partial payload, the rename never reached.
    let stale_tmp = dir.join(".M.gx.tmp-9999-0");
    fs::write(&stale_tmp, "#mspec-artefact v2 gx fnv:dead").unwrap();
    assert!(!target.exists(), "a kill mid-write must not expose a partial artefact");
    // Temp names are invisible to artefact scans: a real module tree
    // cogens and links cleanly around the dropping.
    cogen_tree(&dir);
    assert!(link_dir(&dir).is_ok(), "stale temp files must not break linking");

    // Concurrent writers racing the same final path (distinct temp
    // names, atomic renames): every read observes one writer's
    // complete output, never a torn interleaving.
    let payloads: Vec<String> = (0..4)
        .map(|i| encode_artefact("gx", &format!("payload-{i}-{}", "x".repeat(4096))))
        .collect();
    std::thread::scope(|s| {
        let target = &target;
        for p in &payloads {
            s.spawn(move || {
                for _ in 0..50 {
                    atomic_write(target, p).unwrap();
                }
            });
        }
        let payloads = &payloads;
        s.spawn(move || {
            for _ in 0..200 {
                if let Ok(text) = fs::read_to_string(target) {
                    assert!(
                        payloads.contains(&text),
                        "torn read: {} bytes observed",
                        text.len()
                    );
                }
            }
        });
    });
    // Every writer cleaned up after itself: the only temp left is the
    // simulated-kill one.
    let leftovers: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp-") && *n != ".M.gx.tmp-9999-0")
        .collect();
    assert!(leftovers.is_empty(), "temp droppings: {leftovers:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// Daemon chaos matrix: one long-lived server, one abuse sequence.
/// Malformed JSONL, non-UTF-8 bytes, a frame truncated by a mid-request
/// disconnect, a panicking request, a budget-exhausting request and a
/// frame nested too deeply to parse are thrown at it in order; after
/// each fault the *next* well-formed request on a fresh or surviving
/// connection must be answered correctly.
#[test]
fn daemon_survives_the_chaos_matrix() {
    use mspec_serve::{
        ErrorClass, Request, RequestKind, Response, ResponseBody, RunRequest, ServeConfig, Server,
        SpecRequest,
    };
    use mspec_lang::{FromJson, ToJson};
    use mspec_telemetry::Recorder;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const POWER: &str =
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

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
        fn send_raw(&mut self, bytes: &[u8]) {
            self.stream.write_all(bytes).unwrap();
            self.stream.flush().unwrap();
        }
        fn read_response(&mut self) -> Response {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            Response::from_json_str(line.trim_end()).unwrap()
        }
        fn roundtrip(&mut self, req: &Request) -> Response {
            self.send_raw(format!("{}\n", req.to_json_compact()).as_bytes());
            self.read_response()
        }
    }

    let spec_req = |id: u64, n: u64| Request {
        id,
        kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", &format!("S:{n},D"))),
    };
    let assert_spec_ok = |resp: Response, id: u64| {
        assert_eq!(resp.id, id);
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
    };
    let assert_error = |resp: Response, class: ErrorClass| {
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, class);
        e
    };

    // Crash dumps of the contained panics, counted at the end.
    let crashes = tmpdir("chaos-crashes");
    let server = Server::new(
        ServeConfig {
            chaos: true,
            workers: 2,
            crash_dir: Some(crashes.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        },
        Recorder::disabled(),
    );
    let handle = server.start_tcp().unwrap();
    let port = handle.port;

    let mut c = Conn::open(port);

    // 1. Not JSON at all → typed bad-request, connection survives.
    c.send_raw(b"%% total garbage %%\n");
    assert_error(c.read_response(), ErrorClass::BadRequest);
    assert_spec_ok(c.roundtrip(&spec_req(1, 2)), 1);

    // 2. Non-UTF-8 bytes → typed bad-request, frame resync at newline.
    c.send_raw(&[0xFF, 0xFE, 0x80, b'\n']);
    assert_error(c.read_response(), ErrorClass::BadRequest);
    assert_spec_ok(c.roundtrip(&spec_req(2, 3)), 2);

    // 3. Structurally valid JSON, nonsense request — id echoed back.
    c.send_raw(b"{\"id\":42,\"kind\":\"teleport\"}\n");
    let resp = c.read_response();
    assert_eq!(resp.id, 42);
    assert_error(resp, ErrorClass::BadRequest);

    // 4. A newline-free byte flood past the frame cap: the server must
    // discard it with bounded memory (never buffering the whole line),
    // answer a typed error once the line ends, and keep serving.
    let flood = vec![b'z'; mspec_serve::proto::MAX_FRAME_BYTES + 64 * 1024];
    c.send_raw(&flood);
    c.send_raw(b"\n");
    assert_error(c.read_response(), ErrorClass::BadRequest);
    assert_spec_ok(c.roundtrip(&spec_req(4, 6)), 4);

    // 5. Truncated frame + mid-request disconnect: half a JSON object,
    // no newline, then the socket dies. The server must just drop it.
    let mut half = Conn::open(port);
    half.send_raw(b"{\"id\":5,\"kind\":\"spec\",\"prog");
    drop(half);

    // 6. Mid-request disconnect *after* admission: a request is queued,
    // then the client vanishes before the reply can be written.
    let mut gone = Conn::open(port);
    gone.send_raw(format!("{}\n", spec_req(6, 9).to_json_compact()).as_bytes());
    drop(gone);

    // 7. A panicking request is contained into a typed internal error.
    let resp = c.roundtrip(&Request { id: 7, kind: RequestKind::Fault });
    let e = assert_error(resp, ErrorClass::Internal);
    assert!(e.retryable, "panics are retryable: the server is still up");

    // 8. A budget-exhausting request gets a structured budget error
    // carrying the partial-progress stats — not a hang, not a death.
    let resp = c.roundtrip(&Request {
        id: 8,
        kind: RequestKind::Spec(SpecRequest {
            fuel: Some(300),
            ..SpecRequest::inline(POWER, "Power.power", "S:40,D")
        }),
    });
    let e = assert_error(resp, ErrorClass::Budget);
    assert!(!e.retryable, "budget exhaustion is terminal for this request");
    assert!(e.stats.is_some(), "budget replies carry partial stats");

    // 9. A `run` whose argument is a million-element list, stopped by
    // its fuel after one instruction: dropping the input must not
    // recurse once per cell and overflow the worker's stack, which
    // would kill the daemon with every in-flight request.
    const LISTS: &str = "module Lists where\n\
                         map f xs = if null xs then [] else f @ (head xs) : map f (tail xs)\n\
                         sum xs = if null xs then 0 else head xs + sum (tail xs)\n\
                         module App where\n\
                         import Lists\n\
                         weighted w xs = sum (map (\\x -> x * w) xs)\n";
    let mut values = String::from("[0");
    values.push_str(&";0".repeat(999_999));
    values.push(']');
    let resp = c.roundtrip(&Request {
        id: 11,
        kind: RequestKind::Run(RunRequest {
            spec: SpecRequest::inline(LISTS, "App.weighted", "S:3,D"),
            values,
            run_fuel: Some(1),
        }),
    });
    assert_eq!(resp.id, 11);
    assert!(matches!(resp.body, ResponseBody::Error(_)), "{resp:?}");

    // 10. A panic in an inline program's front end (the debug-only
    // `MSPEC_FAULT_PANIC_MODULE` hook) is the daemon's fault, not the
    // program's: contained like any panic, a retryable `internal`
    // answer and a crash dump, never a `compile` error.
    #[cfg(debug_assertions)]
    {
        inject_panic_in_panic_leaf();
        let resp = c.roundtrip(&Request {
            id: 12,
            kind: RequestKind::Spec(SpecRequest::inline(PANIC_LEAF, "Down.d", "D")),
        });
        let e = assert_error(resp, ErrorClass::Internal);
        assert!(e.retryable, "panics are retryable: the server is still up");
    }

    // 11. A `health` frame nesting 10,000 arrays (about 20 KB). The
    // JSON parser recurses once per level: parsed without a bound, it
    // would overflow the connection thread's stack and abort the whole
    // daemon. It is refused like any malformed frame and the connection
    // lives.
    let levels = 10_000;
    let deep = format!(
        "{{\"id\":13,\"kind\":\"health\",\"pad\":{}{}}}\n",
        "[".repeat(levels),
        "]".repeat(levels)
    );
    c.send_raw(deep.as_bytes());
    assert_error(c.read_response(), ErrorClass::BadRequest);
    assert_spec_ok(c.roundtrip(&spec_req(14, 3)), 14);

    // 12. Static spines longer than the unfold-depth budget: a 97-byte
    // frame asking for a million-element static spine, and a 2 MB frame
    // whose static argument is a million-element list. Every walk over a
    // partial value recurses once per cell, so converting either used
    // to overflow the worker's stack; both are refused with a typed
    // budget error before conversion.
    const ID: &str = "module M where\nf xs = xs\n";
    let spine = c.roundtrip(&Request {
        id: 15,
        kind: RequestKind::Spec(SpecRequest::inline(ID, "M.f", "P:1000000")),
    });
    assert_eq!(spine.id, 15);
    assert!(assert_error(spine, ErrorClass::Budget).message.contains("unfold depth"));
    let mut ones = String::from("S:[1");
    ones.push_str(&";1".repeat(999_999));
    ones.push(']');
    let list = c.roundtrip(&Request {
        id: 16,
        kind: RequestKind::Spec(SpecRequest::inline(ID, "M.f", &ones)),
    });
    assert_eq!(list.id, 16);
    assert!(assert_error(list, ErrorClass::Budget).message.contains("unfold depth"));
    assert_spec_ok(c.roundtrip(&spec_req(17, 3)), 17);

    // 13. Deep unfold chains: E3's power at n = 20,000 unfolds 19,999
    // deep and is answered (the engine unfolds on an explicit stack);
    // n = 200,000 is past the unfold-depth budget and refused with a
    // typed error. The daemon stays healthy.
    assert_spec_ok(c.roundtrip(&spec_req(18, 20_000)), 18);
    let deep = c.roundtrip(&spec_req(19, 200_000));
    assert_eq!(deep.id, 19);
    assert!(assert_error(deep, ErrorClass::Budget).message.contains("unfold depth"));
    let health = c.roundtrip(&Request { id: 20, kind: RequestKind::Health });
    assert_eq!(health.id, 20);
    assert!(matches!(health.body, ResponseBody::Health { .. }), "{health:?}");

    // After the whole matrix: the surviving connection still works...
    assert_spec_ok(c.roundtrip(&spec_req(9, 4)), 9);
    // ...and so does a brand-new one.
    let mut fresh = Conn::open(port);
    assert_spec_ok(fresh.roundtrip(&spec_req(10, 5)), 10);

    server.shutdown();
    handle.join();
    let stats = server.stats();
    let panics = if cfg!(debug_assertions) { 2 } else { 1 };
    assert_eq!(stats.panics, panics, "{stats:?}");
    assert!(stats.bad_frames >= 4, "{stats:?}");
    let dumps = fs::read_dir(&crashes)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("crash-"))
        .count();
    assert_eq!(dumps as u64, panics, "one crash dump per contained panic");
    let _ = fs::remove_dir_all(&crashes);
}
