//! Sample summaries: nearest-rank percentiles and the "highest
//! percentile with at least ten samples beyond it" rule.

/// Percentiles the runner reports, in increasing order.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples needed beyond a percentile before it is worth reporting.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `p` (0 < p <= 100) of `sorted`, which
/// must be sorted ascending and non-empty: the smallest sample with at
/// least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The relative slack absorbs representation error (99.9% of 10000
    // computes as 9990.000000000002, which must still rank 9990).
    let x = p / 100.0 * n as f64;
    let r = (x - x * 1e-12).ceil() as usize;
    r.clamp(1, n)
}

/// Number of samples strictly beyond the nearest rank of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of [`PERCENTILES`] with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| n > 0 && beyond(n, *p) >= TAIL_MIN_BEYOND)
}

/// A summarised sample set.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Percentile `p`, or 0 for an empty set.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.pct(50.0)
    }

    /// `pNN=value` for the median and the reportable tail percentile.
    pub fn describe(&self) -> String {
        let mut s = format!("n={} p50={:.4}", self.n(), self.p50());
        if let Some(p) = tail_percentile(self.n()).filter(|p| *p > 50.0) {
            s.push_str(&format!(" p{p}={:.4}", self.pct(p)));
        }
        s
    }
}

/// The median of `values` (any order), or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec()).p50()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn summary_is_order_independent() {
        let a = Summary::new(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(a.p50(), 3.0);
        assert_eq!(a.pct(100.0), 5.0);
        assert_eq!(Summary::new(vec![]).p50(), 0.0);
    }
}
