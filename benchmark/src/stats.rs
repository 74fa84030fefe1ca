//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank. A tail percentile is only worth reporting
//! when at least ten samples lie beyond it, so a p95 needs 200 samples and a
//! p99 needs 1 000; [`Latency::supported`] says which of the reported
//! percentiles meet that rule, and the table prints the sample count beside
//! them.

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of ascending `sorted`.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency summary of one run's requests, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples behind the percentiles.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Latency {
    /// Summarize `values`.
    pub fn of(values: &[f64]) -> Latency {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Latency {
            samples: v.len(),
            p50: percentile(&v, 0.50),
            p95: percentile(&v, 0.95),
            p99: percentile(&v, 0.99),
            max: v.last().copied().unwrap_or(0.0),
        }
    }

    /// Whether the `q` percentile has at least ten samples beyond it.
    pub fn supported(&self, q: f64) -> bool {
        beyond(self.samples, q) >= 10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(1_000, 0.99), 10);
        assert_eq!(beyond(0, 0.95), 0);
        let l = Latency::of(&vec![1.0; 250]);
        assert!(l.supported(0.95));
        assert!(!l.supported(0.99));
        assert_eq!(l.samples, 250);
    }

    #[test]
    fn summary_is_order_insensitive() {
        let a = Latency::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((a.p50, a.max), (3.0, 5.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
