//! The daemon: connection handling, admission control, the worker
//! pool, deadlines and panic containment.
//!
//! Request lifecycle:
//!
//! ```text
//! frame ──parse──▶ admission ──try_push──▶ bounded queue ──pop──▶ worker
//!          │            │           │                                │
//!     bad-request   budget-denied  overloaded (shed)          catch_unwind
//!                                                          deadline in the token
//! ```
//!
//! * `health`/`stats`/`shutdown` are answered inline on the connection
//!   thread — they must keep working while the worker pool is saturated
//!   (that is the point of a health endpoint).
//! * `spec`/`run`/`fault` go through admission: the request's fuel
//!   budget is reserved from the connection's fuel account (refused
//!   `budget-denied` if it does not fit), then the job enters the
//!   bounded queue (refused `overloaded` if full — load shedding).
//!   Unused fuel is refunded after the run; a panicked request forfeits
//!   its reservation.
//! * Each job's wall-clock deadline starts at *admission* and rides in
//!   its [`CancelToken`]: a job that expires while still queued is
//!   answered `deadline` without running (this is what keeps p99 bounded
//!   under overload), and a running job's engine sees the token fire at
//!   its next poll, surfacing partial-progress stats.
//! * Every job body runs under `catch_unwind`: a panic becomes a typed
//!   `internal` reply (retryable) and the worker survives.

use crate::config::ServeConfig;
use crate::proto::{
    read_frame, ErrorClass, ErrorInfo, FrameBuf, FrameRead, Request, RequestKind, Response,
    ResponseBody, RunRequest, SpecRequest, MAX_FRAME_DEPTH,
};
use crate::queue::{BoundedQueue, PushError};
use crate::resident::{Resident, ResidentOptions};
use mspec_cache::DiskCache;
use mspec_cogen::{atomic_write, fnv64};
use mspec_genext::{CancelToken, SpecBudget, SpecStats};
use mspec_lang::json::{FromJson, Json, ToJson};
use mspec_telemetry::{Exposition, FlightRing, LogHistogram, RateWindow, Recorder};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// The resident caches are shared across worker threads; this line is
// where a non-Send type sneaking into `GenProgram` would surface.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Resident>();
};

/// How often connection readers wake up to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Capacity of the always-on crash flight ring: the last N
/// request-lifecycle events (admissions, sheds, completions, errors)
/// kept in fixed memory for postmortems.
const FLIGHT_CAPACITY: usize = 256;

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Live counters (atomics bumped from many threads).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    panics: AtomicU64,
    denied: AtomicU64,
    deadline_expired: AtomicU64,
    bad_frames: AtomicU64,
    disconnects: AtomicU64,
    refused_clients: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Frames received (including malformed ones).
    pub requests: u64,
    /// Successful `spec` replies.
    pub ok: u64,
    /// Typed error replies of any class.
    pub errors: u64,
    /// Requests shed because the queue was full.
    pub shed: u64,
    /// Worker panics contained (each produced an `internal` reply).
    pub panics: u64,
    /// Requests refused by fuel-account admission control.
    pub denied: u64,
    /// Requests whose wall-clock deadline fired (queued or running).
    pub deadline_expired: u64,
    /// Malformed frames (unparseable JSON, bad UTF-8, overlong lines).
    pub bad_frames: u64,
    /// Connections that ended (cleanly or mid-request).
    pub disconnects: u64,
    /// Connections refused at the `--max-clients` limit.
    pub refused_clients: u64,
}

enum JobKind {
    Spec(SpecRequest),
    Run(RunRequest),
    Fault,
}

impl JobKind {
    fn name(&self) -> &'static str {
        match self {
            JobKind::Spec(_) => "spec",
            JobKind::Run(_) => "run",
            JobKind::Fault => "fault",
        }
    }
}

struct Job {
    id: u64,
    /// Request-scoped trace id (see [`request_trace_id`]).
    req: u64,
    /// Daemon-minted connection id (1-based; 0 = unscoped).
    conn: u64,
    kind: JobKind,
    writer: SharedWriter,
    enqueued: Instant,
    /// Fires once the job's deadline has passed.
    cancel: CancelToken,
    reserved: u64,
    account: Arc<AtomicU64>,
}

/// Always-on live metrics, cheap enough to run with tracing off: one
/// log2-bucket observation per finished job plus a few short
/// uncontended lock acquisitions per request.
struct Live {
    /// Admission-to-reply latency of executed jobs, microseconds.
    latency_us: LogHistogram,
    /// Frames received, over a sliding window.
    req_window: Mutex<RateWindow>,
    /// Requests shed by the bounded queue, over the same window.
    shed_window: Mutex<RateWindow>,
    /// Spec/run lookups answered by the resident memo...
    hit_window: Mutex<RateWindow>,
    /// ...out of all finished spec/run lookups.
    lookup_window: Mutex<RateWindow>,
}

impl Default for Live {
    fn default() -> Live {
        // 10 slots of 1s: rates answer "what is happening now" with a
        // ten-second memory.
        let w = || Mutex::new(RateWindow::new(10, 1_000));
        Live {
            latency_us: LogHistogram::default(),
            req_window: w(),
            shed_window: w(),
            hit_window: w(),
            lookup_window: w(),
        }
    }
}

struct State {
    cfg: ServeConfig,
    resident: Resident,
    queue: BoundedQueue<Job>,
    rec: Recorder,
    started: Instant,
    shutdown: AtomicBool,
    clients: AtomicUsize,
    counters: Counters,
    /// Connection-id mint; ids start at 1 (0 = unscoped in telemetry).
    next_conn: AtomicU64,
    /// Crash-dump sequence number (one per contained panic).
    crash_seq: AtomicU64,
    /// The crash flight recorder (always on).
    flight: FlightRing,
    /// Always-on rate windows and latency histogram for `metrics`.
    live: Live,
}

impl State {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Milliseconds since the server started — the monotone clock every
    /// rate window runs on.
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.queue.close();
    }

    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            requests: c.requests.load(Ordering::Relaxed),
            ok: c.ok.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            panics: c.panics.load(Ordering::Relaxed),
            denied: c.denied.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            bad_frames: c.bad_frames.load(Ordering::Relaxed),
            disconnects: c.disconnects.load(Ordering::Relaxed),
            refused_clients: c.refused_clients.load(Ordering::Relaxed),
        }
    }

    /// Counter pairs for `health`/`stats` replies, deterministic order.
    fn counter_pairs(&self, full: bool) -> Vec<(String, u64)> {
        let s = self.stats();
        let mut out = vec![
            ("serve.requests".to_string(), s.requests),
            ("serve.ok".to_string(), s.ok),
            ("serve.errors".to_string(), s.errors),
            ("serve.shed".to_string(), s.shed),
            ("serve.panics".to_string(), s.panics),
            ("serve.queue_len".to_string(), self.queue.len() as u64),
            ("serve.in_flight".to_string(), self.queue.in_flight() as u64),
            ("serve.clients".to_string(), self.clients.load(Ordering::Relaxed) as u64),
        ];
        let (programs, artefacts, memo, compiled) = self.resident.cache_sizes();
        out.extend([
            ("resident.cache.programs".to_string(), programs as u64),
            ("resident.cache.artefacts".to_string(), artefacts as u64),
            ("resident.cache.memo".to_string(), memo as u64),
            ("resident.cache.compiled".to_string(), compiled as u64),
        ]);
        if full {
            let r = self.resident.stats();
            out.extend([
                ("serve.denied".to_string(), s.denied),
                ("serve.deadline_expired".to_string(), s.deadline_expired),
                ("serve.bad_frames".to_string(), s.bad_frames),
                ("serve.disconnects".to_string(), s.disconnects),
                ("serve.refused_clients".to_string(), s.refused_clients),
                ("resident.programs_built".to_string(), r.programs_built),
                ("resident.program_hits".to_string(), r.program_hits),
                ("resident.artefact_links".to_string(), r.artefact_links),
                ("resident.artefact_revalidations".to_string(), r.artefact_revalidations),
                ("resident.memo_hits".to_string(), r.memo_hits),
                ("resident.residuals_compiled".to_string(), r.residuals_compiled),
                ("resident.compiled_hits".to_string(), r.compiled_hits),
                ("serve.cache.evictions".to_string(), r.evictions),
                ("serve.cache.disk_hits".to_string(), r.disk_hits),
                ("serve.cache.disk_stores".to_string(), r.disk_stores),
            ]);
        }
        out
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn send(writer: &SharedWriter, resp: &Response) {
    // One write_all per frame: a frame split across small writes
    // interacts with Nagle + delayed ACK on TCP transports, turning a
    // sub-millisecond reply into a ~40ms one.
    let frame = format!("{}\n", resp.to_json_compact());
    let mut w = lock(writer);
    // A failed write means the client disconnected mid-request; the
    // server must shrug, not die.
    let _ = w.write_all(frame.as_bytes());
    let _ = w.flush();
}

/// A running TCP listener.
pub struct TcpHandle {
    /// The bound port (useful with `--port 0`).
    pub port: u16,
    accept: std::thread::JoinHandle<()>,
}

impl TcpHandle {
    /// Blocks until the accept loop exits (shutdown).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// The daemon. Construction spawns the worker pool;
/// [`Server::serve_stdio`] or [`Server::start_tcp`] attaches transports.
pub struct Server {
    state: Arc<State>,
}

impl Server {
    /// Builds the server and spawns `cfg.workers` request workers.
    pub fn new(cfg: ServeConfig, rec: Recorder) -> Server {
        // `serve_cmd` validates `--cache-dir` before the server is
        // built, so a failed open here (raced directory removal) just
        // runs without the disk tier rather than refusing to start.
        let disk = cfg.cache_dir.as_ref().and_then(|d| DiskCache::open(d).ok());
        // Startup GC: bound the disk tier before serving so a
        // long-lived cache directory cannot grow without limit. GC
        // failure is non-fatal for the same reason a failed open is.
        if let (Some(disk), Some(max)) = (disk.as_ref(), cfg.cache_gc_bytes) {
            if let Ok(report) = disk.gc(None, Some(max)) {
                rec.count("serve.cache.gc_removed", report.removed as u64);
                rec.count("serve.cache.gc_bytes_removed", report.bytes_removed);
            }
        }
        let resident =
            Resident::with_options(ResidentOptions { memo_cap: cfg.memo_cap, disk });
        let state = Arc::new(State {
            queue: BoundedQueue::new(cfg.queue_depth),
            cfg,
            resident,
            rec,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            clients: AtomicUsize::new(0),
            counters: Counters::default(),
            next_conn: AtomicU64::new(0),
            crash_seq: AtomicU64::new(0),
            flight: FlightRing::new(FLIGHT_CAPACITY),
            live: Live::default(),
        });
        for i in 0..state.cfg.workers.max(1) {
            let st = Arc::clone(&state);
            // Deeply-unfolding requests recurse in the engine; the
            // roomy stack matches the repo's convention for engine
            // threads (virtual memory, committed lazily).
            let _ = std::thread::Builder::new()
                .name(format!("mspecd-worker-{i}"))
                .stack_size(64 * 1024 * 1024)
                .spawn(move || worker_loop(&st));
        }
        Server { state }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.state.stats()
    }

    /// Initiates shutdown: the queue closes (draining what it holds),
    /// workers exit, connection readers notice within [`POLL_INTERVAL`].
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }

    /// Serves a single session on stdin/stdout, blocking until EOF or a
    /// `shutdown` request. This is the `--spawn` transport of
    /// `mspec client` and the offline-safe smoke-test mode.
    pub fn serve_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let writer: SharedWriter =
            Arc::new(Mutex::new(Box::new(std::io::stdout()) as Box<dyn Write + Send>));
        self.state.clients.fetch_add(1, Ordering::Relaxed);
        connection_loop(&self.state, &mut stdin.lock(), &writer);
        self.state.clients.fetch_sub(1, Ordering::Relaxed);
        self.state.begin_shutdown();
        self.finish();
        Ok(())
    }

    /// Binds `127.0.0.1:{cfg.port}` and serves until shutdown. Returns
    /// immediately; join the handle to block.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration errors.
    pub fn start_tcp(&self) -> std::io::Result<TcpHandle> {
        let listener = TcpListener::bind(("127.0.0.1", self.state.cfg.port))?;
        let port = listener.local_addr()?.port();
        listener.set_nonblocking(true)?;
        let state = Arc::clone(&self.state);
        let accept = std::thread::Builder::new()
            .name("mspecd-accept".to_string())
            .spawn(move || {
                accept_loop(&state, &listener);
                finish_trace(&state);
            })?;
        Ok(TcpHandle { port, accept })
    }

    /// Flushes the telemetry trace (stdio mode calls this itself).
    pub fn finish(&self) {
        finish_trace(&self.state);
    }
}

fn finish_trace(state: &State) {
    if let Some(path) = &state.cfg.trace_path {
        let snap = state.rec.snapshot();
        let _ = std::fs::write(path, snap.to_jsonl());
    }
}

fn accept_loop(state: &Arc<State>, listener: &TcpListener) {
    let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !state.shutting_down() {
        // Reap finished connection threads as we go: a long-lived
        // daemon must not grow this Vec with one dead handle per
        // connection ever served.
        let mut i = 0;
        while i < conn_threads.len() {
            if conn_threads[i].is_finished() {
                let _ = conn_threads.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let active = state.clients.load(Ordering::Relaxed);
                if active >= state.cfg.max_clients {
                    state.counters.refused_clients.fetch_add(1, Ordering::Relaxed);
                    refuse_client(stream, state.cfg.max_clients);
                    continue;
                }
                state.clients.fetch_add(1, Ordering::Relaxed);
                let st = Arc::clone(state);
                if let Ok(h) = std::thread::Builder::new()
                    .name("mspecd-conn".to_string())
                    .spawn(move || {
                        handle_tcp_connection(&st, stream);
                        st.clients.fetch_sub(1, Ordering::Relaxed);
                        st.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                    })
                {
                    conn_threads.push(h);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    for h in conn_threads {
        let _ = h.join();
    }
}

fn refuse_client(stream: TcpStream, max_clients: usize) {
    let _ = stream.set_nodelay(true);
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(Box::new(w) as Box<dyn Write + Send>)),
        Err(_) => return,
    };
    send(
        &writer,
        &Response {
            id: 0,
            body: ResponseBody::Error(ErrorInfo::new(
                ErrorClass::Overloaded,
                format!("client limit reached ({max_clients}); retry later"),
            )),
        },
    );
}

fn handle_tcp_connection(state: &Arc<State>, stream: TcpStream) {
    // The read timeout lets the reader poll the shutdown flag without
    // losing partial frames (see `proto::read_frame`).
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(Box::new(w) as Box<dyn Write + Send>)),
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    connection_loop(state, &mut reader, &writer);
}

fn connection_loop(state: &Arc<State>, reader: &mut impl BufRead, writer: &SharedWriter) {
    // Connection ids start at 1: 0 is the "unscoped" sentinel in
    // telemetry events and the flight ring.
    let conn = state.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
    let account = Arc::new(AtomicU64::new(state.cfg.client_fuel));
    let mut buf = FrameBuf::new();
    loop {
        match read_frame(reader, &mut buf) {
            FrameRead::Frame(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_frame(state, &line, writer, &account, conn);
            }
            FrameRead::Retry => {
                if state.shutting_down() {
                    return;
                }
            }
            FrameRead::TooLong => {
                state.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                send(writer, &bad_request(0, "frame exceeds the size limit"));
            }
            FrameRead::BadUtf8 => {
                state.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                send(writer, &bad_request(0, "frame is not valid UTF-8"));
            }
            FrameRead::Eof | FrameRead::Io(_) => return,
        }
    }
}

fn bad_request(id: u64, msg: &str) -> Response {
    Response { id, body: ResponseBody::Error(ErrorInfo::new(ErrorClass::BadRequest, msg)) }
}

/// The request-scoped trace id: FNV-1a over `"{conn}:{id}"`, where
/// `conn` is the daemon-minted connection id and `id` is the client's
/// correlation id. Deterministic, so clients and operators can
/// recompute the id offline and point `mspec explain --req` or
/// `mspec trace flame --req` at one request's event stream. Never 0
/// (0 means "unscoped" throughout telemetry).
pub fn request_trace_id(conn: u64, id: u64) -> u64 {
    let h = fnv64(format!("{conn}:{id}").as_bytes());
    if h == 0 {
        1
    } else {
        h
    }
}

fn handle_frame(
    state: &Arc<State>,
    line: &str,
    writer: &SharedWriter,
    account: &Arc<AtomicU64>,
    conn: u64,
) {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    state.rec.count("serve.requests", 1);
    lock(&state.live.req_window).record(state.now_ms(), 1);

    // Parse in two steps so a structurally-valid frame with bad fields
    // still gets its `id` echoed back.
    let json = match Json::parse_nested(line, MAX_FRAME_DEPTH) {
        Ok(j) => j,
        Err(e) => {
            state.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            send(writer, &bad_request(0, &format!("malformed frame: {e}")));
            return;
        }
    };
    let id = json.get("id").ok().and_then(|v| v.as_u64().ok()).unwrap_or(0);
    let req = match Request::from_json_value(&json) {
        Ok(r) => r,
        Err(e) => {
            state.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            send(writer, &bad_request(id, &format!("bad request: {e}")));
            return;
        }
    };

    match req.kind {
        RequestKind::Health => {
            let uptime_ms = state.started.elapsed().as_millis() as u64;
            send(
                writer,
                &Response {
                    id: req.id,
                    body: ResponseBody::Health { uptime_ms, counters: state.counter_pairs(false) },
                },
            );
        }
        RequestKind::Stats => {
            send(
                writer,
                &Response {
                    id: req.id,
                    body: ResponseBody::Stats { counters: state.counter_pairs(true) },
                },
            );
        }
        RequestKind::Metrics => {
            // Read-only and bounded cost by construction (counter loads,
            // four cache len()s, one histogram walk): safe to answer
            // inline even while the worker pool is saturated.
            send(
                writer,
                &Response {
                    id: req.id,
                    body: ResponseBody::Metrics { text: metrics_text(state) },
                },
            );
        }
        RequestKind::Shutdown => {
            send(writer, &Response { id: req.id, body: ResponseBody::Ok });
            state.begin_shutdown();
        }
        RequestKind::Fault => {
            if !state.cfg.chaos {
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                send(
                    writer,
                    &bad_request(req.id, "fault injection is disabled (start with --chaos)"),
                );
                return;
            }
            admit(state, req.id, conn, JobKind::Fault, writer, account);
        }
        RequestKind::Spec(spec) => admit(state, req.id, conn, JobKind::Spec(spec), writer, account),
        RequestKind::Run(run) => admit(state, req.id, conn, JobKind::Run(run), writer, account),
    }
}

/// Admission control: reserves the job's fuel from the connection
/// account, then queues it (or sheds it when the queue is full).
fn admit(
    state: &Arc<State>,
    id: u64,
    conn: u64,
    kind: JobKind,
    writer: &SharedWriter,
    account: &Arc<AtomicU64>,
) {
    let req = request_trace_id(conn, id);
    let kind_name = kind.name();
    // `spec` and `run` reserve the specialisation stage's fuel (a
    // residual's own execution is bounded by `run_fuel`, not by the
    // connection account) and may shorten, never lengthen, the
    // server's deadline.
    let (reserve, deadline_ms) = match &kind {
        JobKind::Spec(spec) | JobKind::Run(RunRequest { spec, .. }) => (
            spec.fuel.unwrap_or(SpecBudget::default().steps),
            spec.deadline_ms.unwrap_or(state.cfg.deadline_ms).min(state.cfg.deadline_ms),
        ),
        JobKind::Fault => (0, state.cfg.deadline_ms),
    };
    if reserve > 0 {
        let claimed = account
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| cur.checked_sub(reserve));
        if claimed.is_err() {
            state.counters.denied.fetch_add(1, Ordering::Relaxed);
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            state.rec.count("serve.denied", 1);
            state.flight.record(req, conn, "denied", format!("{kind_name} id {id} needs {reserve} fuel"));
            send(
                writer,
                &Response {
                    id,
                    body: ResponseBody::Error(ErrorInfo::new(
                        ErrorClass::BudgetDenied,
                        format!(
                            "request needs {reserve} fuel but the connection account holds {}; \
                             lower the request's `fuel` or open a new connection",
                            account.load(Ordering::Relaxed)
                        ),
                    )),
                },
            );
            return;
        }
    }
    let now = Instant::now();
    let job = Job {
        id,
        req,
        conn,
        kind,
        writer: Arc::clone(writer),
        enqueued: now,
        cancel: CancelToken::with_deadline(now + Duration::from_millis(deadline_ms)),
        reserved: reserve,
        account: Arc::clone(account),
    };
    match state.queue.try_push(job) {
        Ok(()) => {
            state.flight.record(req, conn, "admit", format!("{kind_name} id {id}"));
        }
        Err(PushError::Full) => {
            account.fetch_add(reserve, Ordering::AcqRel);
            state.counters.shed.fetch_add(1, Ordering::Relaxed);
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            state.rec.count("serve.shed", 1);
            lock(&state.live.shed_window).record(state.now_ms(), 1);
            state.flight.record(req, conn, "shed", format!("{kind_name} id {id}"));
            send(
                writer,
                &Response {
                    id,
                    body: ResponseBody::Error(ErrorInfo::new(
                        ErrorClass::Overloaded,
                        format!(
                            "request queue is full ({} deep); backing off and retrying will \
                             succeed once load drops",
                            state.cfg.queue_depth
                        ),
                    )),
                },
            );
        }
        Err(PushError::Closed) => {
            account.fetch_add(reserve, Ordering::AcqRel);
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            state.flight.record(req, conn, "closed", format!("{kind_name} id {id}"));
            send(
                writer,
                &Response {
                    id,
                    body: ResponseBody::Error(ErrorInfo::new(
                        ErrorClass::ShuttingDown,
                        "server is shutting down",
                    )),
                },
            );
        }
    }
}

fn worker_loop(state: &Arc<State>) {
    while let Some(job) = state.queue.pop() {
        run_job(state, &job);
        // After the reply is written: the job no longer counts as in
        // flight.
        state.queue.task_done();
    }
}

fn run_job(state: &Arc<State>, job: &Job) {
    if job.cancel.is_cancelled() {
        // Expired while queued: answer without running. This is the
        // half of deadline enforcement that bounds p99 under
        // overload — queued latency counts against the deadline.
        job.account.fetch_add(job.reserved, Ordering::AcqRel);
        state.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
        state.counters.errors.fetch_add(1, Ordering::Relaxed);
        state.rec.count("serve.deadline_expired", 1);
        state.flight.record(job.req, job.conn, "deadline", format!("id {} expired while queued", job.id));
        send(
            &job.writer,
            &Response {
                id: job.id,
                body: ResponseBody::Error(ErrorInfo::with_stats(
                    ErrorClass::Deadline,
                    "deadline expired while queued (no work started)",
                    SpecStats::default(),
                )),
            },
        );
        return;
    }
    // Every span, counter and spec-decision event the engine emits for
    // this job carries the request's trace id: the recorder handle is
    // request-scoped, the shared event sink is not.
    let rec = state.rec.with_request(job.req, job.conn);
    let result = catch_unwind(AssertUnwindSafe(|| execute(state, job, &rec)));
    finish(state, job, &rec, result);
    let elapsed = job.enqueued.elapsed();
    state.live.latency_us.observe(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    state
        .rec
        .observe("serve.latency_ns", elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
}

/// One finished spec/run lookup for the windowed hit-ratio gauges.
fn note_lookup(state: &State, hit: bool) {
    let now = state.now_ms();
    lock(&state.live.lookup_window).record(now, 1);
    if hit {
        lock(&state.live.hit_window).record(now, 1);
    }
}

/// A job that ran to completion: its reply, and what admission needs
/// to settle the connection account.
struct Done {
    body: ResponseBody,
    /// Whether the resident memo answered the specialisation.
    memo_hit: bool,
    /// Engine steps the specialisation stage counted (the original
    /// run's, for a memo hit).
    steps: u64,
}

/// Runs one job's body; [`run_job`] contains its panics.
fn execute(state: &State, job: &Job, rec: &Recorder) -> Result<Done, ErrorInfo> {
    match &job.kind {
        JobKind::Spec(spec) => {
            let o = state.resident.execute_spec(spec, job.cancel.clone(), rec)?;
            Ok(Done {
                memo_hit: o.memo_hit,
                steps: o.stats.steps,
                body: ResponseBody::Spec {
                    entry: o.entry,
                    residual: o.residual.to_string(),
                    stats: o.stats,
                    memo_hit: o.memo_hit,
                },
            })
        }
        JobKind::Run(run) => {
            let o = state.resident.execute_run(run, job.cancel.clone(), rec, state.cfg.vm_opt)?;
            Ok(Done {
                memo_hit: o.memo_hit,
                steps: o.spec_stats.steps,
                body: ResponseBody::Run {
                    entry: o.entry,
                    value: o.value,
                    memo_hit: o.memo_hit,
                    compiled_hit: o.compiled_hit,
                    instructions: o.instructions,
                },
            })
        }
        JobKind::Fault => panic!("injected fault (chaos request)"),
    }
}

/// Settles a job's fuel reservation, counts and records its outcome,
/// then replies (or writes a crash dump first, for a contained panic).
fn finish(
    state: &State,
    job: &Job,
    rec: &Recorder,
    result: std::thread::Result<Result<Done, ErrorInfo>>,
) {
    match result {
        Ok(Ok(done)) => {
            // Refund what the run did not spend. A memo hit ran no
            // engine work at all — its steps are the original run's
            // counters — so the whole reservation comes back.
            let spent = if done.memo_hit { 0 } else { done.steps.min(job.reserved) };
            job.account.fetch_add(job.reserved - spent, Ordering::AcqRel);
            state.counters.ok.fetch_add(1, Ordering::Relaxed);
            rec.count("serve.ok", 1);
            note_lookup(state, done.memo_hit);
            let detail = format!("{} id {}", job.kind.name(), job.id);
            state.flight.record(job.req, job.conn, "done", detail);
            send(&job.writer, &Response { id: job.id, body: done.body });
        }
        Ok(Err(info)) => {
            let spent = info.stats.map_or(0, |s| s.steps).min(job.reserved);
            job.account.fetch_add(job.reserved - spent, Ordering::AcqRel);
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            if info.class == ErrorClass::Deadline {
                state.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                state.rec.count("serve.deadline_expired", 1);
            }
            state.flight.record(job.req, job.conn, "error", format!("id {}: {}", job.id, info.class));
            send(&job.writer, &Response { id: job.id, body: ResponseBody::Error(info) });
        }
        Err(_) => {
            // Panic containment: the reservation is forfeited (we cannot
            // know what was spent) and the client gets a retryable
            // `internal` error. The worker itself survives.
            state.counters.panics.fetch_add(1, Ordering::Relaxed);
            state.counters.errors.fetch_add(1, Ordering::Relaxed);
            state.rec.count("serve.panics", 1);
            let (detail, dump, reply) = if matches!(job.kind, JobKind::Fault) {
                (
                    format!("fault id {} (injected)", job.id),
                    "worker panicked: injected fault (chaos request)",
                    "worker panicked serving the request (contained); the fault was injected",
                )
            } else {
                (
                    format!("id {}", job.id),
                    "worker panicked serving the request",
                    "worker panicked serving the request (contained)",
                )
            };
            state.flight.record(job.req, job.conn, "panic", detail);
            crash_dump(state, job, dump);
            send(
                &job.writer,
                &Response {
                    id: job.id,
                    body: ResponseBody::Error(ErrorInfo::new(ErrorClass::Internal, reply)),
                },
            );
        }
    }
}

/// Renders the live metrics exposition: monotone counters from the
/// server's atomics, instantaneous gauges (queue depth, in-flight,
/// cache occupancy), windowed rates (req/s, shed/s, memo hit ratio)
/// and latency quantiles estimated from the always-on log2 histogram.
/// Bounded cost by construction — no allocation proportional to
/// traffic, no engine state touched.
fn metrics_text(state: &State) -> String {
    let s = state.stats();
    let now_ms = state.now_ms();
    let mut exp = Exposition::new();
    exp.gauge("mspecd_uptime_ms", "Milliseconds since the daemon started", now_ms);
    exp.counter("mspecd_requests_total", "Frames received (including malformed)", s.requests);
    exp.counter("mspecd_ok_total", "Successful spec/run replies", s.ok);
    exp.counter("mspecd_errors_total", "Typed error replies of any class", s.errors);
    exp.counter("mspecd_shed_total", "Requests shed by the bounded queue", s.shed);
    exp.counter("mspecd_panics_total", "Worker panics contained", s.panics);
    exp.counter(
        "mspecd_deadline_expired_total",
        "Requests whose wall-clock deadline fired",
        s.deadline_expired,
    );
    exp.gauge("mspecd_queue_depth", "Jobs currently queued", state.queue.len() as u64);
    exp.gauge("mspecd_in_flight", "Jobs currently executing", state.queue.in_flight() as u64);
    exp.gauge(
        "mspecd_clients",
        "Currently connected clients",
        state.clients.load(Ordering::Relaxed) as u64,
    );
    exp.gauge_milli(
        "mspecd_req_rate",
        "Frames per second over the sliding window",
        lock(&state.live.req_window).rate_milli_per_sec(now_ms),
    );
    exp.gauge_milli(
        "mspecd_shed_rate",
        "Sheds per second over the sliding window",
        lock(&state.live.shed_window).rate_milli_per_sec(now_ms),
    );
    let hits = lock(&state.live.hit_window).total(now_ms);
    let lookups = lock(&state.live.lookup_window).total(now_ms);
    exp.gauge_milli(
        "mspecd_memo_hit_ratio",
        "Share of finished spec/run lookups answered by the resident memo, sliding window",
        hits.saturating_mul(1000).checked_div(lookups).unwrap_or(0),
    );
    exp.summary(
        "mspecd_latency_us",
        "Admission-to-reply latency of executed jobs, microseconds",
        &state.live.latency_us.nonzero_buckets(),
    );
    let (programs, artefacts, memo, compiled) = state.resident.cache_sizes();
    exp.gauge("mspecd_cache_programs", "Resident compiled inline programs", programs as u64);
    exp.gauge("mspecd_cache_artefacts", "Resident linked artefact sets", artefacts as u64);
    exp.gauge("mspecd_cache_memo", "Resident memoised specialisations", memo as u64);
    exp.gauge("mspecd_cache_compiled", "Resident compiled residuals", compiled as u64);
    let r = state.resident.stats();
    exp.counter("mspecd_cache_evictions_total", "Entries evicted at the memo cap", r.evictions);
    exp.counter("mspecd_cache_disk_hits_total", "Disk-tier residual cache hits", r.disk_hits);
    exp.counter("mspecd_cache_disk_stores_total", "Residuals persisted to the disk tier", r.disk_stores);
    exp.counter("mspecd_flight_recorded_total", "Events ever written to the flight ring", state.flight.recorded());
    exp.render()
}

/// Writes a crash dump for a contained worker panic: one header line
/// naming the offending request (trace id, connection, correlation id)
/// and the server's posture at the moment of the crash (queue depth,
/// in-flight count, the connection's remaining fuel), then the flight
/// ring oldest-first. Written via the atomic temp-file + rename
/// machinery, so a dump is never observed half-written; the sequence
/// number gives each incident its own file.
fn crash_dump(state: &State, job: &Job, message: &str) {
    let seq = state.crash_seq.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = state.cfg.crash_dir.clone().unwrap_or_else(|| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("crash-{pid}-{seq}.jsonl"));
    let header = Json::obj([
        ("kind", Json::str("crash")),
        ("pid", Json::Num(u128::from(pid))),
        ("seq", Json::Num(u128::from(seq))),
        ("req", Json::Num(u128::from(job.req))),
        ("conn", Json::Num(u128::from(job.conn))),
        ("id", Json::Num(u128::from(job.id))),
        ("queue_len", Json::Num(state.queue.len() as u128)),
        ("in_flight", Json::Num(state.queue.in_flight() as u128)),
        ("fuel_remaining", Json::Num(u128::from(job.account.load(Ordering::Relaxed)))),
        ("uptime_ms", Json::Num(u128::from(state.now_ms()))),
        ("message", Json::str(message)),
    ]);
    let mut text = header.write_compact();
    text.push('\n');
    text.push_str(&state.flight.to_jsonl());
    let _ = atomic_write(&path, text.as_bytes());
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::proto::SpecRequest;

    const POWER: &str =
        "module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n";

    /// Unbounded polyvariance: `n` static under dynamic control grows
    /// without bound, driving the pending list forever — *iteratively*
    /// (no engine recursion), so only a budget or a deadline stops it.
    const POLY: &str =
        "module Loop where\ncount n b = if b == 0 then n else count (n + 1) (b - 1)\n";

    fn connect(port: u16) -> TcpStream {
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
    }

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Response {
        stream.write_all(format!("{}\n", req.to_json_compact()).as_bytes()).unwrap();
        stream.flush().unwrap();
        read_response(stream)
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Response::from_json_str(line.trim_end()).unwrap()
    }

    fn test_server(mut cfg: ServeConfig) -> (Server, TcpHandle) {
        // Crash dumps default to the cwd; tests that trip the panic
        // path must never litter the crate directory.
        if cfg.crash_dir.is_none() {
            cfg.crash_dir = Some(std::env::temp_dir().to_string_lossy().into_owned());
        }
        let server = Server::new(cfg, Recorder::disabled());
        let handle = server.start_tcp().unwrap();
        (server, handle)
    }

    #[test]
    fn spec_health_and_shutdown_over_tcp() {
        let (server, handle) = test_server(ServeConfig::default());
        let mut c = connect(handle.port);
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 1,
                kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", "S:3,D")),
            },
        );
        let ResponseBody::Spec { residual, memo_hit, .. } = resp.body else {
            panic!("expected spec reply, got {resp:?}");
        };
        assert!(residual.contains("x * (x * x)"), "{residual}");
        assert!(!memo_hit);

        let resp = roundtrip(&mut c, &Request { id: 2, kind: RequestKind::Health });
        let ResponseBody::Health { counters, .. } = resp.body else { panic!("{resp:?}") };
        assert!(counters.iter().any(|(k, v)| k == "serve.ok" && *v == 1));
        assert!(counters.iter().any(|(k, _)| k == "serve.in_flight"));
        assert!(counters.iter().any(|(k, v)| k == "resident.cache.memo" && *v == 1));

        let resp = roundtrip(&mut c, &Request { id: 3, kind: RequestKind::Shutdown });
        assert_eq!(resp.body, ResponseBody::Ok);
        handle.join();
        assert_eq!(server.stats().ok, 1);
    }

    #[test]
    fn run_requests_execute_residuals_and_warm_the_compiled_cache() {
        use mspec_lang::vm::VmOpt;

        let cfg = ServeConfig { vm_opt: VmOpt::Fuse, ..ServeConfig::default() };
        let (server, handle) = test_server(cfg);
        let mut c = connect(handle.port);
        let req = |id| Request {
            id,
            kind: RequestKind::Run(RunRequest {
                spec: SpecRequest::inline(POWER, "Power.power", "S:5,D"),
                values: "3".to_string(),
                run_fuel: None,
            }),
        };
        let resp = roundtrip(&mut c, &req(1));
        let ResponseBody::Run { value, memo_hit, compiled_hit, instructions, .. } = resp.body
        else {
            panic!("expected run reply, got {resp:?}");
        };
        assert_eq!(value, "243");
        assert!(!memo_hit && !compiled_hit);
        assert!(instructions > 0);
        let cold_instructions = instructions;

        let resp = roundtrip(&mut c, &req(2));
        let ResponseBody::Run { value, memo_hit, compiled_hit, instructions, .. } = resp.body
        else {
            panic!("{resp:?}");
        };
        assert_eq!(value, "243");
        assert!(memo_hit && compiled_hit, "warm request hits both resident caches");
        assert_eq!(instructions, cold_instructions);

        let resp = roundtrip(&mut c, &Request { id: 3, kind: RequestKind::Stats });
        let ResponseBody::Stats { counters } = resp.body else { panic!("{resp:?}") };
        assert!(counters.iter().any(|(k, v)| k == "resident.compiled_hits" && *v == 1));
        server.shutdown();
        handle.join();
        assert_eq!(server.stats().ok, 2);
    }

    #[test]
    fn malformed_frames_get_typed_errors_and_the_server_survives() {
        let (server, handle) = test_server(ServeConfig { chaos: true, ..ServeConfig::default() });
        let mut c = connect(handle.port);
        // Not JSON at all.
        writeln!(c, "this is not json").unwrap();
        let resp = read_response(&mut c);
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, ErrorClass::BadRequest);
        // Valid JSON, invalid request (id is echoed).
        c.write_all(b"{\"id\":9,\"kind\":\"teleport\"}\n").unwrap();
        let resp = read_response(&mut c);
        assert_eq!(resp.id, 9);
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, ErrorClass::BadRequest);
        // A panicking request is contained...
        let resp = roundtrip(&mut c, &Request { id: 10, kind: RequestKind::Fault });
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, ErrorClass::Internal);
        assert!(e.retryable);
        // ...and the very next request on the same connection works.
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 11,
                kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", "S:2,D")),
            },
        );
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
        server.shutdown();
        handle.join();
        assert_eq!(server.stats().panics, 1);
    }

    #[test]
    fn admission_denies_over_account_requests() {
        let cfg = ServeConfig { client_fuel: 1_000, ..ServeConfig::default() };
        let (server, handle) = test_server(cfg);
        let mut c = connect(handle.port);
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 1,
                kind: RequestKind::Spec(SpecRequest {
                    fuel: Some(5_000),
                    ..SpecRequest::inline(POWER, "Power.power", "S:3,D")
                }),
            },
        );
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, ErrorClass::BudgetDenied);
        assert!(!e.retryable);
        // A request that fits still works, and its unused fuel refunds.
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 2,
                kind: RequestKind::Spec(SpecRequest {
                    fuel: Some(900),
                    ..SpecRequest::inline(POWER, "Power.power", "S:3,D")
                }),
            },
        );
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 3,
                kind: RequestKind::Spec(SpecRequest {
                    fuel: Some(900),
                    ..SpecRequest::inline(POWER, "Power.power", "S:4,D")
                }),
            },
        );
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
        server.shutdown();
        handle.join();
        assert_eq!(server.stats().denied, 1);
    }

    #[test]
    fn memo_hits_refund_the_full_reservation() {
        // Memo hits run no engine work (their `stats` are the original
        // run's counters), so they must charge the connection's fuel
        // account nothing. Charging the original step cost per hit
        // would drain the account into spurious budget-denied replies.
        const ACCOUNT: u64 = 50_000;
        let cfg = ServeConfig { client_fuel: ACCOUNT, ..ServeConfig::default() };
        let (server, handle) = test_server(cfg);
        let mut c = connect(handle.port);
        let req = |id| Request {
            id,
            kind: RequestKind::Spec(SpecRequest {
                fuel: Some(5_000),
                ..SpecRequest::inline(POWER, "Power.power", "S:40,D")
            }),
        };
        let resp = roundtrip(&mut c, &req(1));
        let ResponseBody::Spec { memo_hit, stats, .. } = resp.body else { panic!("{resp:?}") };
        assert!(!memo_hit);
        assert!(stats.steps > 0);
        // Enough memo hits that per-hit charging of the original step
        // cost would exhaust the account with room to spare.
        let hits = ACCOUNT / stats.steps.max(1) + 5;
        for id in 2..2 + hits {
            let resp = roundtrip(&mut c, &req(id));
            let ResponseBody::Spec { memo_hit, .. } = resp.body else {
                panic!("request {id}: {resp:?}")
            };
            assert!(memo_hit, "request {id} should be a memo hit");
        }
        server.shutdown();
        handle.join();
        assert_eq!(server.stats().denied, 0);
    }

    #[test]
    fn deadline_cancels_a_running_request() {
        let (server, handle) = test_server(ServeConfig::default());
        let mut c = connect(handle.port);
        // An unbounded static loop: only the deadline can stop it.
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 1,
                kind: RequestKind::Spec(SpecRequest {
                    deadline_ms: Some(50),
                    // Plenty of fuel (but within the connection's
                    // account, so admission lets it in).
                    fuel: Some(1_000_000_000),
                    // Keep the specialisation-count budget out of the
                    // way: only the deadline may stop this run.
                    max_spec: Some(usize::MAX),
                    ..SpecRequest::inline(POLY, "Loop.count", "S:0,D")
                }),
            },
        );
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, ErrorClass::Deadline, "{e:?}");
        assert!(e.stats.unwrap().steps > 0, "partial progress expected");
        server.shutdown();
        handle.join();
        assert_eq!(server.stats().deadline_expired, 1);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // One worker, depth-1 queue: park the worker on a slow request,
        // fill the queue, and watch the third request shed.
        let cfg = ServeConfig { workers: 1, queue_depth: 1, ..ServeConfig::default() };
        let server = Server::new(cfg, Recorder::disabled());
        let handle = server.start_tcp().unwrap();
        let mut slow = connect(handle.port);
        let spin = SpecRequest {
            deadline_ms: Some(400),
            fuel: Some(1_000_000_000),
            max_spec: Some(usize::MAX),
            ..SpecRequest::inline(POLY, "Loop.count", "S:0,D")
        };
        writeln!(
            slow,
            "{}",
            Request { id: 1, kind: RequestKind::Spec(spin.clone()) }.to_json_compact()
        )
        .unwrap();
        slow.flush().unwrap();
        std::thread::sleep(Duration::from_millis(60));
        // Fill the depth-1 queue.
        let mut q = connect(handle.port);
        writeln!(q, "{}", Request { id: 2, kind: RequestKind::Spec(spin.clone()) }.to_json_compact())
            .unwrap();
        q.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        // This one must shed immediately.
        let mut shed = connect(handle.port);
        let resp = roundtrip(&mut shed, &Request { id: 3, kind: RequestKind::Spec(spin) });
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, ErrorClass::Overloaded);
        assert!(e.retryable);
        // The shed counter agrees with what clients were told. The two
        // spinning requests answer too: `deadline`, or `overloaded` if
        // the worker had not yet taken the first when the second came.
        let told = [read_response(&mut slow), read_response(&mut q)]
            .iter()
            .filter(|r| {
                matches!(&r.body, ResponseBody::Error(e) if e.class == ErrorClass::Overloaded)
            })
            .count() as u64
            + 1;
        server.shutdown();
        handle.join();
        assert_eq!(server.stats().shed, told);
    }

    #[test]
    fn metrics_request_is_answered_inline_and_schema_checks() {
        let (server, handle) = test_server(ServeConfig::default());
        let mut c = connect(handle.port);
        // Run one request so latency/rate metrics have substance.
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 1,
                kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", "S:3,D")),
            },
        );
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
        // The reply races the worker's post-send latency observation by
        // a few microseconds, so scrape until the count lands.
        let mut text = String::new();
        for i in 2..40u64 {
            let resp = roundtrip(&mut c, &Request { id: i, kind: RequestKind::Metrics });
            let ResponseBody::Metrics { text: t } = resp.body else { panic!("{resp:?}") };
            text = t;
            if text.contains("mspecd_latency_us_count 1\n") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = mspec_telemetry::metrics::check_exposition(&text).unwrap();
        assert!(report.families >= 15, "{report:?}\n{text}");
        assert!(text.contains("mspecd_ok_total 1\n"), "{text}");
        assert!(text.contains("mspecd_latency_us_count 1\n"), "{text}");
        assert!(text.contains("mspecd_cache_memo 1\n"), "{text}");
        server.shutdown();
        handle.join();
    }

    #[test]
    fn request_trace_ids_are_deterministic_nonzero_and_distinct() {
        assert_eq!(request_trace_id(1, 7), request_trace_id(1, 7));
        assert_ne!(request_trace_id(1, 7), request_trace_id(2, 7));
        assert_ne!(request_trace_id(1, 7), request_trace_id(1, 8));
        assert_ne!(request_trace_id(1, 7), 0);
    }

    #[test]
    fn daemon_traces_carry_request_ids_and_replay_per_request() {
        let rec = Recorder::enabled();
        let server = Server::new(ServeConfig::default(), rec.clone());
        let handle = server.start_tcp().unwrap();
        let mut c = connect(handle.port);
        for (id, n) in [(1u64, 3u64), (2, 4)] {
            let resp = roundtrip(
                &mut c,
                &Request {
                    id,
                    kind: RequestKind::Spec(SpecRequest::inline(
                        POWER,
                        "Power.power",
                        &format!("S:{n},D"),
                    )),
                },
            );
            assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
        }
        server.shutdown();
        handle.join();
        let snap = rec.snapshot();
        let rid1 = request_trace_id(1, 1);
        let rid2 = request_trace_id(1, 2);
        for rid in [rid1, rid2] {
            assert!(
                snap.events.iter().any(|e| e.req == rid),
                "no events tagged with request {rid}"
            );
        }
        // Each request's stream replays independently through explain:
        // filtering to one rid must reproduce that request's private
        // provenance (one residual version each), and the S:3 / S:4
        // runs unfold different numbers of static call sites, so the
        // two per-request answers are distinguishable.
        let one = mspec_telemetry::explain_req(&snap, "Power.power", Some(rid1)).unwrap();
        assert!(one.contains("1 residual version(s)"), "{one}");
        let two = mspec_telemetry::explain_req(&snap, "Power.power", Some(rid2)).unwrap();
        assert!(two.contains("1 residual version(s)"), "{two}");
        assert_ne!(one, two, "per-request streams must not bleed into each other");
        // An unknown request id matches no events at all.
        assert!(mspec_telemetry::explain_req(&snap, "Power.power", Some(0xdead)).is_none());
    }

    #[test]
    fn startup_gc_bounds_the_disk_cache() {
        let dir = std::env::temp_dir().join(format!("mspec-serve-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).unwrap();
        for i in 0..4u32 {
            cache.put(&mspec_cache::CacheEntry {
                key: format!("k{i}"),
                entry: "M.f".to_string(),
                residual: "module M where\nf x = x\n".repeat(8),
                stats: mspec_genext::SpecStats::default(),
            }).unwrap();
        }
        assert_eq!(cache.len(), 4);
        let cfg = ServeConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            cache_gc_bytes: Some(1),
            ..ServeConfig::default()
        };
        let server = Server::new(cfg, Recorder::disabled());
        // A 1-byte bound prunes every pre-existing entry at startup.
        assert_eq!(cache.len(), 0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contained_panic_writes_exactly_one_crash_dump_and_serving_continues() {
        let dir = std::env::temp_dir().join(format!("mspec-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ServeConfig {
            chaos: true,
            crash_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let (server, handle) = test_server(cfg);
        let mut c = connect(handle.port);
        let resp = roundtrip(&mut c, &Request { id: 3, kind: RequestKind::Fault });
        let ResponseBody::Error(e) = resp.body else { panic!("{resp:?}") };
        assert_eq!(e.class, ErrorClass::Internal);
        // The daemon keeps serving after the contained panic.
        let resp = roundtrip(
            &mut c,
            &Request {
                id: 4,
                kind: RequestKind::Spec(SpecRequest::inline(POWER, "Power.power", "S:2,D")),
            },
        );
        assert!(matches!(resp.body, ResponseBody::Spec { .. }), "{resp:?}");
        server.shutdown();
        handle.join();
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|f| f.file_name().to_string_lossy().starts_with("crash-"))
            .collect();
        assert_eq!(dumps.len(), 1, "exactly one crash dump per incident");
        let text = std::fs::read_to_string(dumps[0].path()).unwrap();
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(header.get("kind").unwrap().as_str().unwrap(), "crash");
        assert_eq!(header.get("id").unwrap().as_u64().unwrap(), 3);
        assert_eq!(
            header.get("req").unwrap().as_u64().unwrap(),
            request_trace_id(1, 3),
            "the dump names the offending request's trace id"
        );
        // Every ring line parses, and the fault's own admission is in it.
        let mut admits = 0;
        for line in lines {
            let j = Json::parse(line).unwrap();
            if j.get("kind").unwrap().as_str().unwrap() == "admit" {
                admits += 1;
            }
        }
        assert!(admits >= 1, "the ring holds the fault's admission\n{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stdio_counters_via_stats_request() {
        // Exercise the frame handler directly (as serve_stdio does).
        let server = Server::new(ServeConfig::default(), Recorder::disabled());
        let buf: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::new()) as Box<dyn Write + Send>));
        let account = Arc::new(AtomicU64::new(server.state.cfg.client_fuel));
        handle_frame(
            &server.state,
            &Request { id: 5, kind: RequestKind::Stats }.to_json_compact(),
            &buf,
            &account,
            1,
        );
        assert_eq!(server.stats().requests, 1);
        server.shutdown();
    }
}
