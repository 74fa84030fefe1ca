//! Timing helpers shared by the experiment binaries' gated ratios.
//!
//! A speed floor or overhead ceiling gates the median of [`REPEATS`]
//! paired ratios, each taken between two best-of timings, so neither one
//! noisy pass nor one noisy pair can trip it.

use std::time::Instant;

/// Paired measurements behind each gated ratio.
pub const REPEATS: usize = 5;

/// Best-of-`trials` wall time for `iters` runs of `f`, in nanoseconds per
/// single run. Best-of keeps scheduler noise out of a committed baseline.
pub fn time_ns<F: FnMut()>(trials: usize, iters: usize, mut f: F) -> f64 {
    // Warm-up: populate caches and fault in pages before the timed trials.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// The best of `trials` runs of `pass`, which times itself and returns
/// seconds: for a pass that needs untimed set-up each time, such as a
/// fresh runner.
pub fn best_of(trials: usize, mut pass: impl FnMut() -> f64) -> f64 {
    (0..trials).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// [`REPEATS`] paired timings of a slow and a fast path. Returns the median
/// of each side's timings and the median of the per-pair `slow / fast`
/// ratios — the figure a gate checks.
pub fn paired(mut slow: impl FnMut() -> f64, mut fast: impl FnMut() -> f64) -> (f64, f64, f64) {
    let (mut slows, mut fasts, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (s, f) = (slow(), fast());
        slows.push(s);
        fasts.push(f);
        ratios.push(s / f);
    }
    (median(slows), median(fasts), median(ratios))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn paired_takes_the_median_ratio_not_the_ratio_of_medians() {
        let mut slow = [10.0, 30.0, 20.0, 40.0, 50.0].into_iter();
        let mut fast = [10.0, 5.0, 10.0, 40.0, 10.0].into_iter();
        let (s, f, r) = paired(|| slow.next().unwrap(), || fast.next().unwrap());
        // Ratios 1, 6, 2, 1, 5: their median is 2, the medians' ratio 3.
        assert_eq!((s, f, r), (30.0, 10.0, 2.0));
    }
}
