//! Shared workloads and measurement helpers for the benchmark harnesses.
//!
//! Every empirical claim of the paper has a bench target (timing) and/or
//! a table binary (`src/bin/*`) that prints the paper-style comparison.
//! See `EXPERIMENTS.md` at the repository root for the experiment
//! inventory and `DESIGN.md` for the mapping to modules.

pub mod workloads;

use std::time::{Duration, Instant};

/// Times `f` over `iters` runs after a short warm-up and prints a
/// `group/name: min … median …` line. The bench targets are plain
/// `harness = false` binaries, so this is the whole statistics engine —
/// min for the headline (robust against scheduler noise), median as a
/// sanity check.
pub fn bench<T>(group: &str, name: &str, iters: usize, mut f: impl FnMut() -> T) {
    for _ in 0..2 {
        let _ = f();
    }
    let mut times: Vec<Duration> = (0..iters.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let _ = f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    let min = times[0];
    let median = times[times.len() / 2];
    println!(
        "{group}/{name}: min {:>10.1}us  median {:>10.1}us  ({} iters)",
        min.as_secs_f64() * 1e6,
        median.as_secs_f64() * 1e6,
        times.len()
    );
}

/// Times `f` by taking the minimum of `iters` runs (robust against
/// scheduler noise for the table binaries; criterion benches do their
/// own statistics).
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

/// The machine's core count, recorded in every `BENCH_*.json` so
/// readers can interpret the numbers (single-threaded timings from a
/// loaded many-core box deserve suspicion, and so do concurrent
/// daemon figures from a one-core container).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
