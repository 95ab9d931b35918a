//! The wire protocol: JSONL frames, the request/response vocabulary
//! and the error taxonomy.
//!
//! One frame is one JSON object on one line, terminated by `\n` —
//! trivially debuggable with a terminal and resynchronisable after any
//! malformed frame (skip to the next newline). Requests carry a
//! client-chosen `id` echoed in the response, so a client may pipeline
//! requests and match replies out of order (the server's worker pool
//! replies in completion order, not arrival order).
//!
//! # Request kinds
//!
//! | kind       | fields                                              |
//! |------------|-----------------------------------------------------|
//! | `spec`     | `program` (inline source) *or* `dir` (`.gx` artefact directory), `entry`, `args` (a division: `S:<v>`, `D`, `P:<n>`), optional `fuel`, `max_spec`, `on_exhaustion`, `strategy`, `deadline_ms` |
//! | `run`      | every `spec` field, plus `values` (comma-separated dynamic argument literals) and optional `run_fuel` — specialises (or memo-hits), then *executes* the residual on the resident compiled-bytecode cache |
//! | `health`   | — (liveness + headline counters snapshot)           |
//! | `stats`    | — (full counter dump)                               |
//! | `metrics`  | — (Prometheus-style text exposition: windowed rates, latency quantiles, cache occupancy; read-only, answered inline on the connection thread, never queued behind spec work) |
//! | `fault`    | — (panics the worker; only honoured under `--chaos`)|
//! | `shutdown` | — (drain and stop the daemon)                       |
//!
//! # Error taxonomy
//!
//! Every failure reply names an [`ErrorClass`]; the `retryable` flag is
//! derived from the class and tells clients whether backing off and
//! resending the *same* request can succeed:
//!
//! * retryable — [`ErrorClass::Overloaded`] (the bounded queue was
//!   full: load shedding, try again after backoff) and
//!   [`ErrorClass::Internal`] (a worker panicked; the request *may*
//!   have tripped transient state).
//! * terminal — everything else: resending the identical request gives
//!   the identical answer ([`ErrorClass::BadRequest`],
//!   [`ErrorClass::Compile`], [`ErrorClass::NoSuchEntry`],
//!   [`ErrorClass::Budget`], [`ErrorClass::BudgetDenied`],
//!   [`ErrorClass::Deadline`], [`ErrorClass::StaleInterface`],
//!   [`ErrorClass::Artefact`], [`ErrorClass::ShuttingDown`]).

use mspec_genext::{OnExhaustion, SpecStats, Strategy};
use mspec_lang::eval::Value;
use mspec_lang::json::{FromJson, Json, JsonError, ToJson};
use std::io::BufRead;

/// Hard cap on one frame's length. A frame larger than this is a
/// protocol violation: the reader drains to the next newline and
/// replies `bad-request` rather than buffering without bound.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Hard cap on how deeply a frame's arrays and objects nest. Frames
/// carry programs as strings and nest a few levels at most; the JSON
/// parser recurses once per level, so a deeper frame is refused
/// `bad-request` before it can overflow the connection thread's stack.
pub const MAX_FRAME_DEPTH: usize = 64;

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What is being asked.
    pub kind: RequestKind,
}

/// The request vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Specialise an entry function of a program.
    Spec(SpecRequest),
    /// Specialise (or serve from the memo), then execute the residual
    /// on dynamic values through the resident compiled-program cache.
    Run(RunRequest),
    /// Liveness + headline counters.
    Health,
    /// Full counter dump.
    Stats,
    /// Prometheus-style text exposition (rates, quantiles, occupancy).
    /// Read-only and bounded-cost: answered inline on the connection
    /// thread, never queued behind spec work.
    Metrics,
    /// Chaos hook: panic the worker that picks this up. Only honoured
    /// when the server was started with fault injection enabled;
    /// otherwise answered with `bad-request`.
    Fault,
    /// Drain and stop the daemon.
    Shutdown,
}

/// One specialisation request.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRequest {
    /// Inline source text (mutually exclusive with `dir`).
    pub program: Option<String>,
    /// A directory of `.gx`/`.bti` artefacts to link (server-side
    /// path; revalidated against its artefacts' checksums on every use).
    pub dir: Option<String>,
    /// Entry function, `Module.function`.
    pub entry: String,
    /// The division, in CLI syntax: `S:<v>,D,P:<n>`.
    pub args: String,
    /// Step-fuel budget (admission-controlled; clamped to the server's
    /// per-request cap).
    pub fuel: Option<u64>,
    /// Specialisation-count budget.
    pub max_spec: Option<usize>,
    /// Exhaustion policy (`error` | `generalise`).
    pub on_exhaustion: OnExhaustion,
    /// Engine strategy (`bf` | `df`).
    pub strategy: Strategy,
    /// Wall-clock deadline for this request, milliseconds from
    /// admission. Clamped to the server's `--deadline-ms` cap.
    pub deadline_ms: Option<u64>,
}

impl SpecRequest {
    /// A minimal inline-source request (the common case in tests).
    pub fn inline(program: &str, entry: &str, args: &str) -> SpecRequest {
        SpecRequest {
            program: Some(program.to_string()),
            dir: None,
            entry: entry.to_string(),
            args: args.to_string(),
            fuel: None,
            max_spec: None,
            on_exhaustion: OnExhaustion::Error,
            strategy: Strategy::BreadthFirst,
            deadline_ms: None,
        }
    }
}

/// One specialise-then-execute request: the embedded [`SpecRequest`]
/// names (or produces) the residual; `values` are the dynamic inputs
/// it runs on. Warm requests skip the engine *and* the bytecode
/// compiler — the resident caches answer both by the same identity.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The specialisation that produces (or names) the residual.
    pub spec: SpecRequest,
    /// Dynamic argument values, comma-separated literals
    /// (see [`parse_values`]).
    pub values: String,
    /// Execution fuel for the residual run (default: the engine-wide
    /// `DEFAULT_FUEL`; a budget of `n` admits exactly `n` charges).
    pub run_fuel: Option<u64>,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id (0 when the request was too
    /// malformed to carry one).
    pub id: u64,
    /// Outcome.
    pub body: ResponseBody,
}

/// The response vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A finished specialisation.
    Spec {
        /// Residual entry function, `Module.function`.
        entry: String,
        /// The residual program's concrete syntax — byte-identical to
        /// `mspec spec` CLI output for the same request.
        residual: String,
        /// Engine counters for the run.
        stats: SpecStats,
        /// Whether this reply came from the resident cross-request
        /// memo rather than a fresh engine run.
        memo_hit: bool,
    },
    /// A finished residual execution.
    Run {
        /// Residual entry function, `Module.function`.
        entry: String,
        /// The computed value, rendered as the CLI renders values.
        value: String,
        /// Whether the specialisation came from the resident memo.
        memo_hit: bool,
        /// Whether the compiled bytecode came from the resident
        /// compiled-program cache (a warm run: no engine, no compile,
        /// straight to fused dispatch).
        compiled_hit: bool,
        /// Fuel-charging VM instructions the run executed.
        instructions: u64,
    },
    /// Health snapshot.
    Health {
        /// Milliseconds since the server started.
        uptime_ms: u64,
        /// Headline counters, name/value pairs in deterministic order.
        counters: Vec<(String, u64)>,
    },
    /// Full counter dump.
    Stats {
        /// Counters, name/value pairs in deterministic order.
        counters: Vec<(String, u64)>,
    },
    /// A metrics exposition.
    Metrics {
        /// The Prometheus-style exposition text
        /// (see `mspec_telemetry::Exposition`).
        text: String,
    },
    /// Acknowledgement with no payload (e.g. `shutdown`).
    Ok,
    /// A structured failure.
    Error(ErrorInfo),
}

/// A structured error reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorInfo {
    /// The taxonomy class.
    pub class: ErrorClass,
    /// Whether backing off and resending the same request can succeed
    /// (derived from the class; carried on the wire so clients need no
    /// taxonomy table).
    pub retryable: bool,
    /// Human-readable detail.
    pub message: String,
    /// Partial-progress engine counters, present when the request got
    /// as far as running the engine (deadline and budget breaches).
    pub stats: Option<SpecStats>,
}

impl ErrorInfo {
    /// An error reply for `class` with the class's retryability.
    pub fn new(class: ErrorClass, message: impl Into<String>) -> ErrorInfo {
        ErrorInfo { class, retryable: class.retryable(), message: message.into(), stats: None }
    }

    /// [`ErrorInfo::new`] carrying partial-progress stats.
    pub fn with_stats(
        class: ErrorClass,
        message: impl Into<String>,
        stats: SpecStats,
    ) -> ErrorInfo {
        ErrorInfo {
            class,
            retryable: class.retryable(),
            message: message.into(),
            stats: Some(stats),
        }
    }
}

/// The error classes of the service (see the module docs for the
/// retryable/terminal split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Malformed frame or request fields.
    BadRequest,
    /// The program failed to parse/resolve/typecheck/analyse.
    Compile,
    /// The entry function does not exist in the program.
    NoSuchEntry,
    /// A [`mspec_genext::SpecBudget`] resource ran out mid-run.
    Budget,
    /// Admission control refused the request: its budget does not fit
    /// the connection's remaining fuel account.
    BudgetDenied,
    /// The wall-clock deadline fired; the reply carries the partial
    /// progress made.
    Deadline,
    /// The bounded queue was full (load shedding) or the client limit
    /// was reached — the 503 of this protocol.
    Overloaded,
    /// A worker panicked serving the request.
    Internal,
    /// A `.gx` artefact no longer matches the `.bti` interface it was
    /// generated against.
    StaleInterface,
    /// An artefact directory failed to load (corrupt/truncated files).
    Artefact,
    /// The server is draining for shutdown.
    ShuttingDown,
}

impl ErrorClass {
    /// Whether resending the same request after backoff can succeed.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorClass::Overloaded | ErrorClass::Internal)
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorClass::BadRequest => "bad-request",
            ErrorClass::Compile => "compile",
            ErrorClass::NoSuchEntry => "no-such-entry",
            ErrorClass::Budget => "budget",
            ErrorClass::BudgetDenied => "budget-denied",
            ErrorClass::Deadline => "deadline",
            ErrorClass::Overloaded => "overloaded",
            ErrorClass::Internal => "internal",
            ErrorClass::StaleInterface => "stale-interface",
            ErrorClass::Artefact => "artefact",
            ErrorClass::ShuttingDown => "shutting-down",
        }
    }

    /// Inverse of [`ErrorClass::as_str`].
    pub fn parse(s: &str) -> Option<ErrorClass> {
        Some(match s {
            "bad-request" => ErrorClass::BadRequest,
            "compile" => ErrorClass::Compile,
            "no-such-entry" => ErrorClass::NoSuchEntry,
            "budget" => ErrorClass::Budget,
            "budget-denied" => ErrorClass::BudgetDenied,
            "deadline" => ErrorClass::Deadline,
            "overloaded" => ErrorClass::Overloaded,
            "internal" => ErrorClass::Internal,
            "stale-interface" => ErrorClass::StaleInterface,
            "artefact" => ErrorClass::Artefact,
            "shutting-down" => ErrorClass::ShuttingDown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

fn stats_to_json(s: &SpecStats) -> Json {
    Json::obj([
        ("specialisations", Json::Num(s.specialisations as u128)),
        ("memo_probes", Json::Num(s.memo_probes as u128)),
        ("memo_hits", Json::Num(s.memo_hits as u128)),
        ("unfolds", Json::Num(s.unfolds as u128)),
        ("steps", Json::Num(s.steps as u128)),
        ("residual_nodes", Json::Num(s.residual_nodes as u128)),
        ("generalised", Json::Num(s.generalised as u128)),
    ])
}

fn stats_from_json(j: &Json) -> Result<SpecStats, JsonError> {
    Ok(SpecStats {
        specialisations: j.get("specialisations")?.as_usize()?,
        memo_probes: j.get("memo_probes")?.as_usize()?,
        memo_hits: j.get("memo_hits")?.as_usize()?,
        unfolds: j.get("unfolds")?.as_usize()?,
        steps: j.get("steps")?.as_u64()?,
        residual_nodes: j.get("residual_nodes")?.as_usize()?,
        generalised: j.get("generalised")?.as_usize()?,
        ..SpecStats::default()
    })
}

fn counters_to_json(counters: &[(String, u64)]) -> Json {
    Json::Obj(
        counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as u128))).collect(),
    )
}

fn counters_from_json(j: &Json) -> Result<Vec<(String, u64)>, JsonError> {
    j.as_obj()?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_u64()?)))
        .collect()
}

fn push_spec_fields(s: &SpecRequest, fields: &mut Vec<(String, Json)>) {
    if let Some(p) = &s.program {
        fields.push(("program".into(), Json::str(p.clone())));
    }
    if let Some(d) = &s.dir {
        fields.push(("dir".into(), Json::str(d.clone())));
    }
    fields.push(("entry".into(), Json::str(s.entry.clone())));
    fields.push(("args".into(), Json::str(s.args.clone())));
    if let Some(fuel) = s.fuel {
        fields.push(("fuel".into(), Json::Num(fuel as u128)));
    }
    if let Some(m) = s.max_spec {
        fields.push(("max_spec".into(), Json::Num(m as u128)));
    }
    if s.on_exhaustion == OnExhaustion::Generalise {
        fields.push(("on_exhaustion".into(), Json::str("generalise")));
    }
    if s.strategy == Strategy::DepthFirst {
        fields.push(("strategy".into(), Json::str("df")));
    }
    if let Some(d) = s.deadline_ms {
        fields.push(("deadline_ms".into(), Json::Num(d as u128)));
    }
}

impl ToJson for Request {
    fn to_json_value(&self) -> Json {
        let mut fields = vec![("id".to_string(), Json::Num(self.id as u128))];
        match &self.kind {
            RequestKind::Health => fields.push(("kind".into(), Json::str("health"))),
            RequestKind::Stats => fields.push(("kind".into(), Json::str("stats"))),
            RequestKind::Metrics => fields.push(("kind".into(), Json::str("metrics"))),
            RequestKind::Fault => fields.push(("kind".into(), Json::str("fault"))),
            RequestKind::Shutdown => fields.push(("kind".into(), Json::str("shutdown"))),
            RequestKind::Spec(s) => {
                fields.push(("kind".into(), Json::str("spec")));
                push_spec_fields(s, &mut fields);
            }
            RequestKind::Run(r) => {
                fields.push(("kind".into(), Json::str("run")));
                push_spec_fields(&r.spec, &mut fields);
                fields.push(("values".into(), Json::str(r.values.clone())));
                if let Some(f) = r.run_fuel {
                    fields.push(("run_fuel".into(), Json::Num(f as u128)));
                }
            }
        }
        Json::Obj(fields)
    }
}

fn spec_from_json(j: &Json) -> Result<SpecRequest, JsonError> {
    let program = match j.get("program") {
        Ok(v) => Some(v.as_str()?.to_string()),
        Err(_) => None,
    };
    let dir = match j.get("dir") {
        Ok(v) => Some(v.as_str()?.to_string()),
        Err(_) => None,
    };
    if program.is_some() == dir.is_some() {
        return Err(JsonError(
            "spec needs exactly one of `program` (inline source) or `dir` \
             (artefact directory)"
                .into(),
        ));
    }
    let on_exhaustion = match j.get("on_exhaustion") {
        Ok(v) => match v.as_str()? {
            "error" => OnExhaustion::Error,
            "generalise" => OnExhaustion::Generalise,
            other => {
                return Err(JsonError(format!(
                    "on_exhaustion must be error or generalise, got `{other}`"
                )))
            }
        },
        Err(_) => OnExhaustion::Error,
    };
    let strategy = match j.get("strategy") {
        Ok(v) => match v.as_str()? {
            "bf" => Strategy::BreadthFirst,
            "df" => Strategy::DepthFirst,
            other => {
                return Err(JsonError(format!(
                    "strategy must be bf or df, got `{other}`"
                )))
            }
        },
        Err(_) => Strategy::BreadthFirst,
    };
    Ok(SpecRequest {
        program,
        dir,
        entry: j.get("entry")?.as_str()?.to_string(),
        args: j.get("args")?.as_str()?.to_string(),
        fuel: match j.get("fuel") {
            Ok(v) => Some(v.as_u64()?),
            Err(_) => None,
        },
        max_spec: match j.get("max_spec") {
            Ok(v) => Some(v.as_usize()?),
            Err(_) => None,
        },
        on_exhaustion,
        strategy,
        deadline_ms: match j.get("deadline_ms") {
            Ok(v) => Some(v.as_u64()?),
            Err(_) => None,
        },
    })
}

impl FromJson for Request {
    fn from_json_value(j: &Json) -> Result<Request, JsonError> {
        let id = j.get("id")?.as_u64()?;
        let kind = match j.get("kind")?.as_str()? {
            "health" => RequestKind::Health,
            "stats" => RequestKind::Stats,
            "metrics" => RequestKind::Metrics,
            "fault" => RequestKind::Fault,
            "shutdown" => RequestKind::Shutdown,
            "spec" => RequestKind::Spec(spec_from_json(j)?),
            "run" => RequestKind::Run(RunRequest {
                spec: spec_from_json(j)?,
                values: j.get("values")?.as_str()?.to_string(),
                run_fuel: match j.get("run_fuel") {
                    Ok(v) => Some(v.as_u64()?),
                    Err(_) => None,
                },
            }),
            other => return Err(JsonError(format!("unknown request kind `{other}`"))),
        };
        Ok(Request { id, kind })
    }
}

impl ToJson for Response {
    fn to_json_value(&self) -> Json {
        let mut fields = vec![("id".to_string(), Json::Num(self.id as u128))];
        match &self.body {
            ResponseBody::Spec { entry, residual, stats, memo_hit } => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("kind".into(), Json::str("spec")));
                fields.push(("entry".into(), Json::str(entry.clone())));
                fields.push(("residual".into(), Json::str(residual.clone())));
                fields.push(("stats".into(), stats_to_json(stats)));
                fields.push(("memo_hit".into(), Json::Bool(*memo_hit)));
            }
            ResponseBody::Run { entry, value, memo_hit, compiled_hit, instructions } => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("kind".into(), Json::str("run")));
                fields.push(("entry".into(), Json::str(entry.clone())));
                fields.push(("value".into(), Json::str(value.clone())));
                fields.push(("memo_hit".into(), Json::Bool(*memo_hit)));
                fields.push(("compiled_hit".into(), Json::Bool(*compiled_hit)));
                fields.push(("instructions".into(), Json::Num(*instructions as u128)));
            }
            ResponseBody::Health { uptime_ms, counters } => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("kind".into(), Json::str("health")));
                fields.push(("uptime_ms".into(), Json::Num(*uptime_ms as u128)));
                fields.push(("counters".into(), counters_to_json(counters)));
            }
            ResponseBody::Stats { counters } => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("kind".into(), Json::str("stats")));
                fields.push(("counters".into(), counters_to_json(counters)));
            }
            ResponseBody::Metrics { text } => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("kind".into(), Json::str("metrics")));
                fields.push(("text".into(), Json::str(text.clone())));
            }
            ResponseBody::Ok => {
                fields.push(("ok".into(), Json::Bool(true)));
                fields.push(("kind".into(), Json::str("ok")));
            }
            ResponseBody::Error(e) => {
                fields.push(("ok".into(), Json::Bool(false)));
                let mut err = vec![
                    ("class".to_string(), Json::str(e.class.as_str())),
                    ("retryable".to_string(), Json::Bool(e.retryable)),
                    ("message".to_string(), Json::str(e.message.clone())),
                ];
                if let Some(stats) = &e.stats {
                    err.push(("stats".to_string(), stats_to_json(stats)));
                }
                fields.push(("error".into(), Json::Obj(err)));
            }
        }
        Json::Obj(fields)
    }
}

impl FromJson for Response {
    fn from_json_value(j: &Json) -> Result<Response, JsonError> {
        let id = j.get("id")?.as_u64()?;
        let body = if j.get("ok")?.as_bool()? {
            match j.get("kind")?.as_str()? {
                "spec" => ResponseBody::Spec {
                    entry: j.get("entry")?.as_str()?.to_string(),
                    residual: j.get("residual")?.as_str()?.to_string(),
                    stats: stats_from_json(j.get("stats")?)?,
                    memo_hit: j.get("memo_hit")?.as_bool()?,
                },
                "run" => ResponseBody::Run {
                    entry: j.get("entry")?.as_str()?.to_string(),
                    value: j.get("value")?.as_str()?.to_string(),
                    memo_hit: j.get("memo_hit")?.as_bool()?,
                    compiled_hit: j.get("compiled_hit")?.as_bool()?,
                    instructions: j.get("instructions")?.as_u64()?,
                },
                "health" => ResponseBody::Health {
                    uptime_ms: j.get("uptime_ms")?.as_u64()?,
                    counters: counters_from_json(j.get("counters")?)?,
                },
                "stats" => ResponseBody::Stats {
                    counters: counters_from_json(j.get("counters")?)?,
                },
                "metrics" => ResponseBody::Metrics {
                    text: j.get("text")?.as_str()?.to_string(),
                },
                "ok" => ResponseBody::Ok,
                other => return Err(JsonError(format!("unknown response kind `{other}`"))),
            }
        } else {
            let e = j.get("error")?;
            let class_str = e.get("class")?.as_str()?;
            let class = ErrorClass::parse(class_str)
                .ok_or_else(|| JsonError(format!("unknown error class `{class_str}`")))?;
            ResponseBody::Error(ErrorInfo {
                class,
                retryable: e.get("retryable")?.as_bool()?,
                message: e.get("message")?.as_str()?.to_string(),
                stats: match e.get("stats") {
                    Ok(s) => Some(stats_from_json(s)?),
                    Err(_) => None,
                },
            })
        };
        Ok(Response { id, body })
    }
}

/// What one attempt to read a frame produced.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete line (without the trailing newline).
    Frame(String),
    /// Clean end of stream (client closed the connection).
    Eof,
    /// The line exceeded [`MAX_FRAME_BYTES`]; its bytes were discarded
    /// as they arrived (never buffered past the cap) and the stream is
    /// resynchronised at the newline that ended it.
    TooLong,
    /// The line was not valid UTF-8; the stream is resynchronised at
    /// the next newline.
    BadUtf8,
    /// The stream should be polled again (read timeout expired with an
    /// incomplete line buffered; the [`FrameBuf`] keeps the partial
    /// state).
    Retry,
    /// A hard I/O error; the connection is unusable.
    Io(std::io::Error),
}

/// Cross-call reader state for [`read_frame`]: the partial line
/// accumulated so far, plus whether the reader is currently discarding
/// the remainder of a line that already blew [`MAX_FRAME_BYTES`].
///
/// The discard flag is what keeps an oversized line bounded even when
/// it spans many read timeouts: once the cap is hit the partial bytes
/// are dropped and every further chunk of that line is consumed
/// without buffering, until its newline finally arrives.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    skipping: bool,
}

impl FrameBuf {
    /// An empty reader state.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Whether no partial line is buffered or being discarded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && !self.skipping
    }
}

/// Reads one `\n`-terminated frame, accumulating into `state` across
/// calls so that a read *timeout* (used by the server to poll its
/// shutdown flag) never loses partial bytes: on [`FrameRead::Retry`]
/// call again with the same `state`.
///
/// At most [`MAX_FRAME_BYTES`] of one line are ever buffered: the cap
/// is checked on every chunk the transport delivers, and an over-cap
/// line switches the reader into discard mode until its newline, at
/// which point [`FrameRead::TooLong`] reports the resynchronised
/// stream. A newline-free byte flood therefore costs bounded memory,
/// not an allocation per chunk.
pub fn read_frame(r: &mut impl BufRead, state: &mut FrameBuf) -> FrameRead {
    loop {
        let (newline, chunk_len) = {
            let available = match r.fill_buf() {
                Ok(a) => a,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return FrameRead::Retry;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return FrameRead::Io(e),
            };
            if available.is_empty() {
                // EOF. A final unterminated (or oversized) line is
                // garbage: the sender died mid-write.
                state.buf.clear();
                state.skipping = false;
                return FrameRead::Eof;
            }
            let newline = available.iter().position(|&b| b == b'\n');
            if !state.skipping {
                let end = newline.unwrap_or(available.len());
                state.buf.extend_from_slice(&available[..end]);
            }
            (newline, available.len())
        };
        match newline {
            Some(i) => {
                r.consume(i + 1);
                if state.skipping {
                    // The oversized line finally ended: resynchronised.
                    state.skipping = false;
                    return FrameRead::TooLong;
                }
                if state.buf.last() == Some(&b'\r') {
                    state.buf.pop();
                }
                if state.buf.len() > MAX_FRAME_BYTES {
                    state.buf.clear();
                    return FrameRead::TooLong;
                }
                let frame = std::mem::take(&mut state.buf);
                return match String::from_utf8(frame) {
                    Ok(s) => FrameRead::Frame(s),
                    Err(_) => FrameRead::BadUtf8,
                };
            }
            None => {
                r.consume(chunk_len);
                if state.buf.len() > MAX_FRAME_BYTES {
                    // Over the cap with no end in sight: drop what we
                    // buffered and discard the rest of the line.
                    state.buf.clear();
                    state.skipping = true;
                }
            }
        }
    }
}

/// Parses a division list: `S:<value>,D,P:<n>,…` (empty = no args).
///
/// # Errors
///
/// A description of the first malformed entry.
pub fn parse_division(s: &str) -> Result<Vec<mspec_genext::SpecArg>, String> {
    use mspec_genext::SpecArg;
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|part| {
            let part = part.trim();
            if part == "D" {
                Ok(SpecArg::Dynamic)
            } else if let Some(v) = part.strip_prefix("S:") {
                Ok(SpecArg::Static(parse_value(v)?))
            } else if let Some(n) = part.strip_prefix("P:") {
                n.parse::<usize>()
                    .map(SpecArg::StaticSpine)
                    .map_err(|_| format!("bad spine length `{n}`"))
            } else {
                Err(format!("bad division entry `{part}` (use S:<v>, D or P:<n>)"))
            }
        })
        .collect()
}

/// Parses a comma-separated value list (empty string = no values).
///
/// # Errors
///
/// As [`parse_value`].
pub fn parse_values(s: &str) -> Result<Vec<Value>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|p| parse_value(p.trim())).collect()
}

/// Parses one literal: a natural, `true`/`false`, or `[v;v;…]`.
///
/// # Errors
///
/// A description of the malformed literal.
pub fn parse_value(s: &str) -> Result<Value, String> {
    let s = s.trim();
    if s == "true" {
        return Ok(Value::bool_(true));
    }
    if s == "false" {
        return Ok(Value::bool_(false));
    }
    if let Some(inner) = s.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        if inner.trim().is_empty() {
            return Ok(Value::Nil);
        }
        let items = inner.split(';').map(parse_value).collect::<Result<Vec<_>, _>>()?;
        return Ok(Value::list(items));
    }
    s.parse::<u64>()
        .map(Value::nat)
        .map_err(|_| format!("bad value `{s}` (naturals, true/false, [v;…])"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use mspec_genext::SpecArg;

    #[test]
    fn request_roundtrips() {
        let reqs = vec![
            Request { id: 1, kind: RequestKind::Health },
            Request { id: 2, kind: RequestKind::Stats },
            Request { id: 13, kind: RequestKind::Metrics },
            Request { id: 3, kind: RequestKind::Fault },
            Request { id: 4, kind: RequestKind::Shutdown },
            Request {
                id: 5,
                kind: RequestKind::Spec(SpecRequest {
                    fuel: Some(9),
                    max_spec: Some(3),
                    on_exhaustion: OnExhaustion::Generalise,
                    strategy: Strategy::DepthFirst,
                    deadline_ms: Some(250),
                    ..SpecRequest::inline("module M where\nf x = x\n", "M.f", "S:1,D")
                }),
            },
            Request {
                id: 6,
                kind: RequestKind::Run(RunRequest {
                    spec: SpecRequest::inline("module M where\nf x = x\n", "M.f", "S:1,D"),
                    values: "7".into(),
                    run_fuel: Some(1000),
                }),
            },
            Request {
                id: 7,
                kind: RequestKind::Run(RunRequest {
                    spec: SpecRequest::inline("module M where\nf x = x\n", "M.f", "D"),
                    values: "".into(),
                    run_fuel: None,
                }),
            },
        ];
        for r in reqs {
            let text = r.to_json_compact();
            assert_eq!(Request::from_json_str(&text).unwrap(), r, "{text}");
        }
    }

    #[test]
    fn response_roundtrips() {
        let stats = SpecStats { steps: 42, specialisations: 2, ..SpecStats::default() };
        let rs = vec![
            Response {
                id: 7,
                body: ResponseBody::Spec {
                    entry: "M.f'1".into(),
                    residual: "module M where\nf'1 x = x\n".into(),
                    stats,
                    memo_hit: true,
                },
            },
            Response {
                id: 8,
                body: ResponseBody::Health {
                    uptime_ms: 12,
                    counters: vec![("serve.requests".into(), 3)],
                },
            },
            Response { id: 9, body: ResponseBody::Stats { counters: vec![] } },
            Response {
                id: 13,
                body: ResponseBody::Metrics {
                    text: "# TYPE up gauge\nup 1\n".into(),
                },
            },
            Response { id: 10, body: ResponseBody::Ok },
            Response {
                id: 12,
                body: ResponseBody::Run {
                    entry: "M.f'1".into(),
                    value: "128".into(),
                    memo_hit: true,
                    compiled_hit: false,
                    instructions: 314,
                },
            },
            Response {
                id: 11,
                body: ResponseBody::Error(ErrorInfo::with_stats(
                    ErrorClass::Deadline,
                    "deadline 5ms exceeded",
                    stats,
                )),
            },
        ];
        for r in rs {
            let text = r.to_json_compact();
            assert_eq!(Response::from_json_str(&text).unwrap(), r, "{text}");
        }
    }

    #[test]
    fn retryability_follows_the_taxonomy() {
        assert!(ErrorClass::Overloaded.retryable());
        assert!(ErrorClass::Internal.retryable());
        for terminal in [
            ErrorClass::BadRequest,
            ErrorClass::Compile,
            ErrorClass::NoSuchEntry,
            ErrorClass::Budget,
            ErrorClass::BudgetDenied,
            ErrorClass::Deadline,
            ErrorClass::StaleInterface,
            ErrorClass::Artefact,
            ErrorClass::ShuttingDown,
        ] {
            assert!(!terminal.retryable(), "{terminal}");
        }
    }

    #[test]
    fn error_classes_roundtrip_via_wire_names() {
        for c in [
            ErrorClass::BadRequest,
            ErrorClass::Compile,
            ErrorClass::NoSuchEntry,
            ErrorClass::Budget,
            ErrorClass::BudgetDenied,
            ErrorClass::Deadline,
            ErrorClass::Overloaded,
            ErrorClass::Internal,
            ErrorClass::StaleInterface,
            ErrorClass::Artefact,
            ErrorClass::ShuttingDown,
        ] {
            assert_eq!(ErrorClass::parse(c.as_str()), Some(c));
        }
        assert_eq!(ErrorClass::parse("teapot"), None);
    }

    #[test]
    fn spec_requires_exactly_one_source() {
        let both = r#"{"id":1,"kind":"spec","program":"x","dir":"y","entry":"M.f","args":""}"#;
        assert!(Request::from_json_str(both).is_err());
        let neither = r#"{"id":1,"kind":"spec","entry":"M.f","args":""}"#;
        assert!(Request::from_json_str(neither).is_err());
    }

    #[test]
    fn read_frame_handles_lines_eof_and_crlf() {
        let mut r = std::io::Cursor::new(b"{\"a\":1}\r\nnext\n".to_vec());
        let mut buf = FrameBuf::new();
        let FrameRead::Frame(f1) = read_frame(&mut r, &mut buf) else { panic!() };
        assert_eq!(f1, "{\"a\":1}");
        let FrameRead::Frame(f2) = read_frame(&mut r, &mut buf) else { panic!() };
        assert_eq!(f2, "next");
        assert!(matches!(read_frame(&mut r, &mut buf), FrameRead::Eof));
    }

    #[test]
    fn read_frame_drops_truncated_tail() {
        // No trailing newline: the unterminated frame is discarded (the
        // sender died mid-write), reported as EOF.
        let mut r = std::io::Cursor::new(b"complete\ntrunca".to_vec());
        let mut buf = FrameBuf::new();
        assert!(matches!(read_frame(&mut r, &mut buf), FrameRead::Frame(ref s) if s == "complete"));
        assert!(matches!(read_frame(&mut r, &mut buf), FrameRead::Eof));
        assert!(buf.is_empty());
    }

    #[test]
    fn read_frame_rejects_bad_utf8_and_resyncs() {
        let mut bytes = vec![0xFF, 0xFE, b'\n'];
        bytes.extend_from_slice(b"{\"id\":1,\"kind\":\"health\"}\n");
        let mut r = std::io::Cursor::new(bytes);
        let mut buf = FrameBuf::new();
        assert!(matches!(read_frame(&mut r, &mut buf), FrameRead::BadUtf8));
        assert!(matches!(read_frame(&mut r, &mut buf), FrameRead::Frame(_)));
    }

    #[test]
    fn read_frame_bounds_oversized_lines_and_resyncs() {
        // A line well past the cap, delivered in small transport chunks
        // (the shape of a newline-free byte flood): the reader must
        // flip to discard mode instead of buffering, then resync at the
        // newline and parse the following frame normally.
        let mut bytes = vec![b'x'; MAX_FRAME_BYTES + 64 * 1024];
        bytes.push(b'\n');
        bytes.extend_from_slice(b"{\"id\":1,\"kind\":\"health\"}\n");
        let mut r = std::io::BufReader::with_capacity(8 * 1024, std::io::Cursor::new(bytes));
        let mut buf = FrameBuf::new();
        assert!(matches!(read_frame(&mut r, &mut buf), FrameRead::TooLong));
        assert!(buf.is_empty(), "nothing buffered after resync");
        let FrameRead::Frame(f) = read_frame(&mut r, &mut buf) else { panic!() };
        assert_eq!(f, "{\"id\":1,\"kind\":\"health\"}");
    }

    #[test]
    fn read_frame_discard_mode_survives_eof_mid_line() {
        // Oversized line, then the sender dies with no newline: EOF,
        // with the reader state fully reset.
        let bytes = vec![b'x'; MAX_FRAME_BYTES + 4096];
        let mut r = std::io::BufReader::with_capacity(8 * 1024, std::io::Cursor::new(bytes));
        let mut buf = FrameBuf::new();
        assert!(matches!(read_frame(&mut r, &mut buf), FrameRead::Eof));
        assert!(buf.is_empty());
    }

    #[test]
    fn parses_divisions_and_values() {
        let d = parse_division("S:3,D,P:4").unwrap();
        assert_eq!(d.len(), 3);
        assert!(matches!(d[0], SpecArg::Static(Value::Nat(3))));
        assert!(matches!(d[1], SpecArg::Dynamic));
        assert!(matches!(d[2], SpecArg::StaticSpine(4)));
        assert!(parse_division("X").is_err());
        assert!(parse_division("").unwrap().is_empty());
        assert_eq!(parse_value("[1;2]").unwrap(), Value::list(vec![Value::nat(1), Value::nat(2)]));
        assert!(parse_value("nope").is_err());
    }
}
