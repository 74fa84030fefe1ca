//! Chunked multi-accumulator summation and extrema kernels.
//!
//! The time-series statistics and the billing fold's monthly demand peak
//! share one set of `f64` reduction kernels:
//!
//! * [`sum_pairwise`] / [`sum_squared_deviations`] — pairwise (tree)
//!   summation over 8 independent accumulator lanes. The lane loop is plain
//!   stable Rust that LLVM autovectorizes (no intrinsics, no `unsafe`), and
//!   the tree shape bounds rounding-error growth at `O(log n)` terms instead
//!   of the `O(n)` of a naive left fold — on a 10-million-sample constant
//!   series the naive mean drifts by ~1e-10 relative while the pairwise mean
//!   stays within a few ULP.
//! * [`max_lanes`] / [`min_lanes`] — branchless lane-wise extrema. `f64`
//!   max/min are associative and commutative over the finite values the
//!   workspace's checked constructors admit, so these return *exactly* the
//!   value a sequential scan would.
//!
//! Summation results are **not** bit-identical to a sequential fold (f64
//! addition is not associative), so billing, which promises bit-identity
//! with the interpreter, sums in its original order and uses only the
//! extrema. For finite inputs the pairwise result differs from the exact
//! real sum by a relative error of roughly `log2(n) · ε · Σ|x| / |Σx|`.

/// Accumulator lanes per chunk: 8 × f64 fills two AVX2 registers (or four
/// NEON registers) and hides FP-add latency on scalar targets.
const LANES: usize = 8;

/// Samples per recursion leaf. Must be a multiple of `LANES`; 512 keeps the
/// leaf inside L1 while making the recursion depth (and its per-level
/// rounding term) negligible.
const LEAF: usize = 512;

/// One leaf: lane-striped accumulation with a scalar tail, reduced pairwise.
#[inline]
fn leaf_sum<F: Fn(f64) -> f64>(xs: &[f64], f: &F) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane += f(*v);
        }
    }
    let mut tail = 0.0f64;
    for &v in chunks.remainder() {
        tail += f(v);
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
        + tail
}

/// Pairwise recursion over leaves: splits at the midpoint, so the error
/// growth is logarithmic in the input length.
fn tree_sum<F: Fn(f64) -> f64>(xs: &[f64], f: &F) -> f64 {
    if xs.len() <= LEAF {
        return leaf_sum(xs, f);
    }
    let (lo, hi) = xs.split_at(xs.len() / 2);
    tree_sum(lo, f) + tree_sum(hi, f)
}

/// Pairwise (tree) sum of a slice. Returns `0.0` for an empty slice.
///
/// ```
/// use hpcgrid_units::kernels::sum_pairwise;
///
/// let xs = vec![0.1f64; 10_000_000];
/// let mean = sum_pairwise(&xs) / xs.len() as f64;
/// assert!((mean - 0.1).abs() < 1e-15);
/// ```
pub fn sum_pairwise(xs: &[f64]) -> f64 {
    tree_sum(xs, &|v| v)
}

/// Pairwise sum of squared deviations from `center`: `Σ (x - center)²`.
/// The building block for variance; returns `0.0` for an empty slice.
pub fn sum_squared_deviations(xs: &[f64], center: f64) -> f64 {
    tree_sum(xs, &move |v| {
        let d = v - center;
        d * d
    })
}

/// Branchless lane-wise reduction for extrema. `f64::max`/`f64::min` are
/// associative over finite values, so the lane order cannot change the
/// result.
#[inline]
fn fold_lanes(xs: &[f64], identity: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
    let mut lanes = [identity; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = f(*lane, *v);
        }
    }
    let mut acc = identity;
    for &v in chunks.remainder() {
        acc = f(acc, v);
    }
    lanes.into_iter().fold(acc, f)
}

/// Maximum of a slice via lane-wise `f64::max`; `f64::NEG_INFINITY` for an
/// empty slice. Exactly equal to a sequential max for finite inputs.
pub fn max_lanes(xs: &[f64]) -> f64 {
    fold_lanes(xs, f64::NEG_INFINITY, f64::max)
}

/// Minimum of a slice via lane-wise `f64::min`; `f64::INFINITY` for an
/// empty slice. Exactly equal to a sequential min for finite inputs.
pub fn min_lanes(xs: &[f64]) -> f64 {
    fold_lanes(xs, f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(sum_pairwise(&[]), 0.0);
        assert_eq!(sum_pairwise(&[3.25]), 3.25);
        assert_eq!(sum_squared_deviations(&[], 1.0), 0.0);
        assert_eq!(max_lanes(&[]), f64::NEG_INFINITY);
        assert_eq!(min_lanes(&[]), f64::INFINITY);
        assert_eq!(max_lanes(&[2.5]), 2.5);
        assert_eq!(min_lanes(&[2.5]), 2.5);
    }

    #[test]
    fn matches_exact_sums_on_representable_values() {
        // Sums of small integers are exactly representable, so every
        // accumulation order gives the same bits.
        for n in [1usize, 7, 8, 9, 63, 64, 65, 511, 512, 513, 4097] {
            let xs: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
            let exact: f64 = xs.iter().sum();
            assert_eq!(sum_pairwise(&xs), exact, "n={n}");
        }
    }

    #[test]
    fn extrema_match_sequential_scan() {
        for n in [1usize, 5, 8, 17, 640, 1001] {
            let xs: Vec<f64> = (0..n)
                .map(|i| ((i * 37 + 11) % 101) as f64 - 50.0)
                .collect();
            let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(max_lanes(&xs), max, "n={n}");
            assert_eq!(min_lanes(&xs), min, "n={n}");
        }
    }

    #[test]
    fn pairwise_beats_naive_fold_on_long_constant_series() {
        // The drift regression the kernel exists to fix: a naive left fold
        // over 1e7 copies of 0.1 accumulates O(n) rounding error; the
        // pairwise tree stays within a few ULP of the true sum.
        let xs = vec![0.1f64; 10_000_000];
        let pairwise_mean = sum_pairwise(&xs) / xs.len() as f64;
        assert!(
            (pairwise_mean - 0.1).abs() < 1e-15,
            "pairwise mean drifted: {pairwise_mean:e}"
        );
        let dev = sum_squared_deviations(&xs, pairwise_mean) / xs.len() as f64;
        assert!(dev.sqrt() < 1e-12, "constant series std_dev {dev:e}");
    }

    #[test]
    fn squared_deviations_center_shift() {
        let xs = [2.0, 4.0, 6.0, 8.0];
        // Deviations from the mean of 2,4,6,8 (=5): 9+1+1+9 = 20.
        assert_eq!(sum_squared_deviations(&xs, 5.0), 20.0);
        assert_eq!(sum_squared_deviations(&xs, 0.0), 120.0);
    }
}
