//! Observability for the mspec pipeline: spans, typed events, counters
//! and log2 histograms behind a cheap [`Recorder`] handle.
//!
//! The recorder is the *only* coupling point: every crate that records
//! takes a `Recorder` (or a `&Recorder`) and calls [`Recorder::span`],
//! [`Recorder::instant`], [`Recorder::spec`], [`Recorder::count`] or
//! [`Recorder::observe`]. A disabled recorder — the default — is a
//! `None` behind the handle, so every recording call is a branch on an
//! `Option` and nothing else: no clock read, no allocation, no lock.
//!
//! Recording is designed for *determinism*: span ids, spec-event
//! sequence numbers and thread ids are assigned from monotone counters,
//! so two sequential runs of the same workload differ only in their
//! timestamps (which [`mspec_testkit`'s scrubber] zeroes for
//! byte-comparison tests).
//!
//! Emitters live in [`emit`] (Chrome `trace_event` JSON + flat JSONL),
//! the schema checker in [`validate`], the provenance replayer in
//! [`explain`], the unified stats formatter in [`stats`], and the
//! canonical build report of `cogen`'s builds in [`report`].

pub mod emit;
pub mod event;
pub mod explain;
pub mod flame;
pub mod flight;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod validate;

pub use event::{Decision, Event, EventKind, SpecEvent};
pub use explain::{explain, explain_req};
pub use flame::collapsed_stacks;
pub use flight::{FlightEntry, FlightRing};
pub use metrics::{Exposition, RateWindow};
pub use report::{BuildReport, ModuleOutcome};
pub use stats::SpecSummary;
pub use validate::{validate, ValidateReport};

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// A cheap, clonable handle to a recording session. `Recorder::default()`
/// (= [`Recorder::disabled`]) records nothing at near-zero cost; a
/// handle from [`Recorder::enabled`] appends to a shared in-memory
/// buffer that is drained once at the end via [`Recorder::snapshot`].
/// The request scope a [`Recorder`] handle stamps onto every event it
/// records. Lives on the *handle*, outside the shared buffer: scoping a
/// recorder to a request is a clone, and handles for different requests
/// append to the same session concurrently.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct RequestCtx {
    req: u64,
    conn: u64,
}

/// A cheap, clonable handle to a recording session (see module docs).
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    ctx: RequestCtx,
}

struct Inner {
    start: Instant,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    events: Mutex<Vec<Event>>,
    /// Maps OS thread ids to small sequential tids (0, 1, 2, …) plus
    /// the per-thread open-span stack used for span parenting.
    threads: Mutex<HashMap<ThreadId, ThreadState>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

struct ThreadState {
    tid: u64,
    span_stack: Vec<u64>,
}

impl Recorder {
    /// The no-op recorder: every call is a branch on `None`.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// A live recorder; clone the handle freely across threads.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                next_span: AtomicU64::new(0),
                next_seq: AtomicU64::new(0),
                events: Mutex::new(Vec::new()),
                threads: Mutex::new(HashMap::new()),
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            })),
            ctx: RequestCtx::default(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle onto the *same* session whose events are stamped with
    /// `req`/`conn`. Everything downstream of the clone — engine spans,
    /// spec-decision events, VM instants — carries the scope with no
    /// further plumbing, because spans and engines hold `Recorder`
    /// clones. Ids of 0 mean "unscoped" and are omitted from the JSONL.
    pub fn with_request(&self, req: u64, conn: u64) -> Recorder {
        Recorder { inner: self.inner.clone(), ctx: RequestCtx { req, conn } }
    }

    /// The request id this handle is scoped to (0 = unscoped).
    pub fn request_id(&self) -> u64 {
        self.ctx.req
    }

    /// The connection id this handle is scoped to (0 = unscoped).
    pub fn connection_id(&self) -> u64 {
        self.ctx.conn
    }

    fn now_ns(inner: &Inner) -> u64 {
        // u64 nanoseconds overflow after ~584 years of recording.
        inner.start.elapsed().as_nanos() as u64
    }

    /// Current thread's small tid, registering the thread on first use.
    fn with_thread<T>(inner: &Inner, f: impl FnOnce(&mut ThreadState) -> T) -> T {
        let mut threads = inner.threads.lock().unwrap_or_else(|e| e.into_inner());
        let next = threads.len() as u64;
        let state = threads
            .entry(std::thread::current().id())
            .or_insert(ThreadState { tid: next, span_stack: Vec::new() });
        f(state)
    }

    fn push_event(&self, inner: &Inner, tid: u64, kind: EventKind) {
        let ev = Event {
            ts_ns: Self::now_ns(inner),
            tid,
            req: self.ctx.req,
            conn: self.ctx.conn,
            kind,
        };
        inner.events.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    }

    /// Opens a span; it ends when the returned guard drops. Spans nest
    /// per thread: a span opened while another is live on the same
    /// thread records it as its parent.
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, "")
    }

    /// [`Recorder::span`] with a free-form detail string (only
    /// evaluated by callers when the recorder is enabled — pass `""`
    /// and use [`Span::is_recording`] to gate expensive formatting).
    pub fn span_with(&self, name: &str, detail: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { rec: Recorder::disabled(), id: 0, name: String::new() };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let (tid, parent) = Self::with_thread(inner, |t| {
            let parent = t.span_stack.last().copied().unwrap_or(0);
            t.span_stack.push(id);
            (t.tid, parent)
        });
        self.push_event(
            inner,
            tid,
            EventKind::SpanBegin {
                id,
                parent,
                name: name.to_string(),
                detail: detail.to_string(),
            },
        );
        Span { rec: self.clone(), id, name: name.to_string() }
    }

    fn end_span(&self, id: u64, name: &str) {
        let Some(inner) = &self.inner else { return };
        let tid = Self::with_thread(inner, |t| {
            if let Some(pos) = t.span_stack.iter().rposition(|&s| s == id) {
                t.span_stack.remove(pos);
            }
            t.tid
        });
        self.push_event(inner, tid, EventKind::SpanEnd { id, name: name.to_string() });
    }

    /// Records a point-in-time event.
    pub fn instant(&self, name: &str, detail: &str) {
        let Some(inner) = &self.inner else { return };
        let tid = Self::with_thread(inner, |t| t.tid);
        self.push_event(
            inner,
            tid,
            EventKind::Instant { name: name.to_string(), detail: detail.to_string() },
        );
    }

    /// Records one specialisation-decision event, assigning it the next
    /// sequence number (returned, so callers can link parent requests).
    pub fn spec(&self, mut ev: SpecEvent) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        ev.seq = seq;
        let tid = Self::with_thread(inner, |t| t.tid);
        self.push_event(inner, tid, EventKind::Spec(Box::new(ev)));
        seq
    }

    /// Adds `n` to the named monotone counter.
    pub fn count(&self, name: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let counter = {
            let mut counters = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(counters.entry(name.to_string()).or_default())
        };
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the named counter to at least `n` (for peaks exported as
    /// counters, e.g. the VM's max stack depth).
    pub fn count_max(&self, name: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        let counter = {
            let mut counters = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(counters.entry(name.to_string()).or_default())
        };
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Records one observation in the named log2-bucket histogram.
    pub fn observe(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let hist = {
            let mut hists = inner.hists.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(hists.entry(name.to_string()).or_default())
        };
        hist.observe(value);
    }

    /// Drains the recording into an inspectable snapshot. The recorder
    /// stays usable (events recorded after the snapshot accumulate
    /// afresh); counters and histograms are copied, not reset.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else { return Snapshot::default() };
        let events =
            std::mem::take(&mut *inner.events.lock().unwrap_or_else(|e| e.into_inner()));
        let counters = inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let hists = inner
            .hists
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.nonzero_buckets()))
            .collect();
        Snapshot { events, counters, hists }
    }
}

/// RAII span guard from [`Recorder::span`]; the span ends when this
/// drops. On a disabled recorder the guard is inert.
pub struct Span {
    rec: Recorder,
    id: u64,
    name: String,
}

impl Span {
    /// The span's id (0 on a disabled recorder).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `false` on a disabled recorder — gate expensive detail
    /// formatting on this.
    pub fn is_recording(&self) -> bool {
        self.rec.is_enabled()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.rec.is_enabled() {
            let name = std::mem::take(&mut self.name);
            self.rec.end_span(self.id, &name);
        }
    }
}

/// A 65-bucket log2 histogram: an observation `v` lands in bucket
/// `64 - v.leading_zeros()` (so bucket 0 holds only `v = 0`, bucket
/// `k > 0` holds `2^(k-1) ≤ v < 2^k`).
pub struct LogHistogram {
    buckets: [AtomicU64; 65],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LogHistogram {
    pub fn observe(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// `(bucket_index, count)` for every non-empty bucket.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Estimated `q`-quantile (see [`quantile_from_buckets`]); `None`
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.nonzero_buckets(), q)
    }
}

/// Estimates the `q`-quantile of a log2-bucketed distribution (the
/// `(bucket_index, count)` pairs of [`LogHistogram::nonzero_buckets`]).
///
/// The rank-`r` sample (`r = ceil(q·total)`, clamped to `1..=total`) is
/// located in its bucket and interpolated linearly across the bucket's
/// value range `[2^(k-1), 2^k)`; bucket 0 holds only the value 0. The
/// estimate is therefore exact at bucket boundaries (a single
/// observation of `2^k` reports `2^k`) and never leaves the rank
/// sample's bucket. `None` iff the distribution is empty.
pub fn quantile_from_buckets(buckets: &[(u32, u64)], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(bucket, n) in buckets {
        if rank <= seen + n {
            if bucket == 0 {
                return Some(0);
            }
            let lo = 1u64 << (bucket - 1);
            let hi = if bucket >= 64 { u64::MAX } else { (1u64 << bucket) - 1 };
            let into = rank - seen - 1;
            return Some(lo + ((hi - lo) as u128 * into as u128 / n as u128) as u64);
        }
        seen += n;
    }
    None
}

/// Everything one recording session produced: the ordered event list
/// plus final counter and histogram values.
#[derive(Default)]
pub struct Snapshot {
    pub events: Vec<Event>,
    pub counters: Vec<(String, u64)>,
    pub hists: Vec<(String, Vec<(u32, u64)>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        {
            let _s = rec.span("build");
            rec.instant("tick", "");
            rec.count("n", 3);
            rec.observe("h", 7);
            rec.spec(SpecEvent::request("M.f", "{S}"));
        }
        let snap = rec.snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            let _inner = rec.span_with("inner", "detail");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 4);
        let EventKind::SpanBegin { id: outer_id, parent: 0, .. } = &snap.events[0].kind
        else {
            panic!("expected outer begin")
        };
        let EventKind::SpanBegin { parent, detail, .. } = &snap.events[1].kind else {
            panic!("expected inner begin")
        };
        assert_eq!(parent, outer_id);
        assert_eq!(detail, "detail");
        // Guards drop in reverse declaration order: inner ends first.
        assert!(matches!(&snap.events[2].kind, EventKind::SpanEnd { .. }));
        assert!(matches!(&snap.events[3].kind, EventKind::SpanEnd { id, .. } if id == outer_id));
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::enabled();
        rec.count("steps", 2);
        rec.count("steps", 3);
        rec.count_max("peak", 7);
        rec.count_max("peak", 4);
        rec.observe("pending", 0);
        rec.observe("pending", 1);
        rec.observe("pending", 5);
        let snap = rec.snapshot();
        assert_eq!(
            snap.counters,
            vec![("peak".to_string(), 7), ("steps".to_string(), 5)]
        );
        // 0 → bucket 0, 1 → bucket 1, 5 → bucket 3 (4 ≤ 5 < 8).
        assert_eq!(snap.hists, vec![("pending".to_string(), vec![(0, 1), (1, 1), (3, 1)])]);
    }

    #[test]
    fn spec_events_get_sequential_seqs() {
        let rec = Recorder::enabled();
        let a = rec.spec(SpecEvent::request("M.f", "{S,D}"));
        let b = rec.spec(SpecEvent::request("M.g", "{D}"));
        assert_eq!((a, b), (1, 2));
        let snap = rec.snapshot();
        let seqs: Vec<u64> = snap
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Spec(s) => Some(s.seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn threads_get_small_sequential_tids() {
        let rec = Recorder::enabled();
        rec.instant("main", "");
        let rec2 = rec.clone();
        std::thread::spawn(move || rec2.instant("worker", "")).join().unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.events[0].tid, 0);
        assert_eq!(snap.events[1].tid, 1);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = LogHistogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
        assert_eq!(quantile_from_buckets(&[], 0.5), None);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample_at_every_q() {
        // Bucket boundaries are exact: one observation of 2^k reports
        // 2^k, including the extremes of the q range (rank clamps to
        // 1..=total, so q=0 and q=1 both pick the only sample).
        for v in [0u64, 1, 2, 1024, 1 << 40] {
            let h = LogHistogram::default();
            h.observe(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), Some(v), "v={v} q={q}");
            }
        }
    }

    #[test]
    fn quantile_interpolates_within_a_bucket_and_never_leaves_it() {
        // Ten samples in bucket 11 (1024 ≤ v < 2048): the p0/p100
        // estimates pin to the bucket's ends and every other quantile
        // interpolates monotonically between them.
        let h = LogHistogram::default();
        for _ in 0..10 {
            h.observe(1500);
        }
        assert_eq!(h.quantile(0.0), Some(1024));
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        assert!(p50 < p99 && p99 <= p100, "{p50} {p99} {p100}");
        assert!((1024..2048).contains(&p50));
        assert!((1024..2048).contains(&p100));
    }

    #[test]
    fn quantile_walks_buckets_by_rank() {
        // 90 samples at 1 and 10 at ~64k: p50 sits in the low bucket,
        // p99 in the high one; the u64::MAX bucket caps cleanly.
        let h = LogHistogram::default();
        for _ in 0..90 {
            h.observe(1);
        }
        for _ in 0..10 {
            h.observe(60_000);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        let p99 = h.quantile(0.99).unwrap();
        assert!((32_768..65_536).contains(&p99), "{p99}");
        assert_eq!(h.count(), 100);

        // The top bucket (2^63 ≤ v) interpolates from its low edge
        // without overflowing.
        let top = LogHistogram::default();
        top.observe(u64::MAX);
        assert_eq!(top.quantile(0.99), Some(1u64 << 63));
    }
}
