//! Shared workloads and measurement helpers for the paper's tables.
//!
//! Each empirical claim of the paper has a table binary (`src/bin/*`)
//! that prints the paper-style comparison. Timing evidence for changes
//! to the code comes from `perfbench/` instead. See `EXPERIMENTS.md` at
//! the repository root for the experiment inventory and `DESIGN.md` for
//! the mapping to modules.

pub mod workloads;

use std::time::{Duration, Instant};

/// Times `f` by taking the minimum of `iters` runs (robust against
/// scheduler noise).
pub fn time_min<T>(iters: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<Duration> = None;
    let mut out: Option<T> = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let v = f();
        let dt = t0.elapsed();
        if best.is_none_or(|b| dt < b) {
            best = Some(dt);
        }
        out = Some(v);
    }
    (best.expect("iters >= 1"), out.expect("iters >= 1"))
}

/// Formats a duration in microseconds with fixed width.
pub fn us(d: Duration) -> String {
    format!("{:>10.1}", d.as_secs_f64() * 1e6)
}

/// The machine's core count, recorded in `BENCH_pr4.json` so readers
/// can interpret the numbers (single-threaded timings from a loaded
/// many-core box deserve suspicion).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
