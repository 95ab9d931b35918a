//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded in memory around the calls the runner makes into
//! each layer (name, start, end, parent, op id) and written out as JSON
//! lines when the run ends. A span's self time is its duration minus
//! the part of that interval its child spans cover.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (reuses the program's telemetry span names
    /// where one exists).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// An empty recorder timing from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes span `idx` together with any spans still open inside it
    /// (an op that failed part-way leaves its inner spans open).
    pub fn exit(&mut self, idx: usize) {
        let end = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = end;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (e.g. a client thread's),
    /// re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the union of its
/// direct children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Per-op sums of a quantity, keyed by span name. Built once from a
/// span set; each layer metric is then a median over ops.
#[derive(Debug, Default)]
pub struct Layers {
    /// name → op → summed self time (ns).
    self_ns: BTreeMap<&'static str, BTreeMap<u64, u64>>,
    /// Root span self time summed over all roots.
    root_self_ns: u64,
    /// Root span duration summed over all roots.
    root_total_ns: u64,
}

impl Layers {
    /// Aggregates `spans`.
    pub fn new(spans: &[Span]) -> Layers {
        let selfs = self_times(spans);
        let mut l = Layers::default();
        for (s, own) in spans.iter().zip(selfs) {
            *l.self_ns
                .entry(s.name)
                .or_default()
                .entry(s.op)
                .or_default() += own;
            if s.parent.is_none() {
                l.root_self_ns += own;
                l.root_total_ns += s.dur();
            }
        }
        l
    }

    /// Median over the ops that ran `name` of its per-op self time, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        Self::median_ms(self.self_ns.get(name))
    }

    /// Self time of `name` summed over every op, ns.
    pub fn self_sum_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).map_or(0, |m| m.values().sum())
    }

    fn median_ms(m: Option<&BTreeMap<u64, u64>>) -> f64 {
        let v: Vec<f64> = m
            .map(|m| m.values().map(|ns| *ns as f64 / 1e6).collect())
            .unwrap_or_default();
        median(&v)
    }

    /// Share of root-span time no layer span covers: how far the layer
    /// self times fall short of accounting for the traced op time.
    pub fn unattributed_frac(&self) -> f64 {
        if self.root_total_ns == 0 {
            0.0
        } else {
            self.root_self_ns as f64 / self.root_total_ns as f64
        }
    }
}

/// Spans as JSON lines (one object per span).
pub fn to_jsonl(spans: &[Span], path_tag: &str) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"path\":\"{path_tag}\",\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.op, s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("op", 0, 100, None, 1),
            span("parse", 10, 30, Some(0), 1),
            span("bta", 40, 70, Some(0), 1),
            span("inner", 45, 55, Some(2), 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            span("req", 0, 100, None, 1),
            span("a", 10, 60, Some(0), 1),
            span("b", 40, 80, Some(0), 1),
            span("c", 90, 130, Some(0), 1),
        ];
        // Covered: [10,80) + [90,100) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn self_times_account_for_root_time() {
        let spans = vec![
            span("op", 0, 1000, None, 1),
            span("x", 100, 400, Some(0), 1),
            span("y", 400, 900, Some(0), 1),
            span("z", 500, 600, Some(2), 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].dur());
        let l = Layers::new(&spans);
        assert!((l.unattributed_frac() - 0.2).abs() < 1e-12);
        assert!((l.self_ms("y") - 0.0004).abs() < 1e-12);
        assert_eq!(l.self_sum_ns("x"), 300);
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.set_op(7);
        let root = t.enter("root");
        let v = t.span("child", || 41 + 1);
        let _left_open = t.enter("abandoned");
        t.exit(root);
        assert_eq!(v, 42);
        let mut other = Tracer::new(origin);
        other.set_op(8);
        other.span("solo", || ());
        let s = other.enter("parent");
        other.span("kid", || ());
        other.exit(s);
        t.absorb(other);
        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[5].parent, Some(4));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans[2].end <= spans[0].end);
        assert_eq!(to_jsonl(spans, "x").lines().count(), 6);
    }
}
