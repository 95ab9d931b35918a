//! Specialisation as a service: the `mspecd` daemon and its client.
//!
//! The paper's generating extensions are built once and *reused* across
//! many specialisation requests — exactly the shape of a resident
//! service. This crate grows the batch pipeline into a long-lived
//! daemon (`mspec serve`) speaking a hand-rolled JSONL protocol over
//! TCP or stdio (one JSON object per line, reusing [`mspec_lang::json`]
//! — zero new dependencies), plus the retrying client behind
//! `mspec client`.
//!
//! The design goal is that *every* failure mode is structured and
//! survivable — a multi-tenant server must degrade gracefully, never
//! die or stall:
//!
//! * **panic containment** — each request runs under `catch_unwind` on
//!   a worker thread; a panicking request becomes a typed
//!   `internal` error reply, never a dead server ([`server`]);
//! * **admission control** — every connection carries a fuel account
//!   ([`ServeConfig::client_fuel`]); a request whose budget does not
//!   fit the account's remainder is refused up front
//!   (`budget-denied`), so one pathological client cannot starve the
//!   rest ([`server`]);
//! * **load shedding** — requests queue in a *bounded* queue
//!   ([`queue`]); when it is full the server answers `overloaded`
//!   (retryable, the HTTP 503 of this protocol) immediately instead of
//!   growing latency without bound;
//! * **deadlines** — each request gets a wall-clock deadline, carried
//!   by the engine's [`mspec_genext::CancelToken`]; once it passes, the
//!   reply is a structured `deadline` error carrying partial-progress
//!   stats ([`server`]);
//! * **observability** — every admitted request is tagged with a
//!   stable trace id ([`request_trace_id`]) that every `--trace` event
//!   carries, a read-only `metrics` request answers with a
//!   Prometheus-style exposition without queueing behind spec work, and
//!   an always-on flight ring of recent events is dumped to a
//!   `crash-<pid>-<seq>.jsonl` file when a worker panics ([`server`]);
//! * **resident state** — compiled generating extensions, linked `.gx`
//!   artefact sets (revalidated against their `.bti` interface
//!   fingerprints on every reuse) and a cross-request memo of finished
//!   specialisations stay warm between requests ([`resident`]).
//!
//! The protocol frames, the error taxonomy (retryable vs terminal
//! classes) and the shedding policy are documented in [`proto`] and in
//! DESIGN.md §"Service model".

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod config;
pub mod proto;
pub mod queue;
pub mod resident;
pub mod server;

pub use client::{Client, ClientError, RetryPolicy};
pub use config::ServeConfig;
pub use proto::{
    parse_division, parse_value, parse_values, ErrorClass, ErrorInfo, Request, RequestKind,
    Response, ResponseBody, RunRequest, SpecRequest,
};
pub use queue::{BoundedQueue, PushError};
pub use resident::{Resident, ResidentStats, RunOutcome, SpecOutcome};
pub use server::{request_trace_id, Server, ServerStats, TcpHandle};
