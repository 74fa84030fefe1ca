//! Property-based tests for the time-series engine invariants that the
//! billing engine relies on (DESIGN.md §5).

use hpcgrid_timeseries::series::{PowerSeries, Series};
use hpcgrid_timeseries::{intervals, par, peaks, resample, stats, windows};
use hpcgrid_units::{Duration, Power, SimTime};
use proptest::prelude::*;

fn power_series(max_len: usize) -> impl Strategy<Value = PowerSeries> {
    (prop::collection::vec(0.0f64..50_000.0, 1..max_len), 1u64..8).prop_map(
        |(kw, step_quarters)| {
            Series::new(
                SimTime::EPOCH,
                Duration::from_secs(step_quarters * 900),
                kw.into_iter().map(Power::from_kilowatts).collect(),
            )
            .unwrap()
        },
    )
}

proptest! {
    /// Downsampling by an integer factor conserves total energy exactly
    /// when the factor divides the length, and to within the partial-tail
    /// correction otherwise.
    #[test]
    fn downsample_conserves_energy_when_factor_divides(
        s in power_series(64), factor in 1u64..6
    ) {
        let to = Duration::from_secs(s.step().as_secs() * factor);
        let down = resample::downsample_mean(&s, to).unwrap();
        if (s.len() as u64).is_multiple_of(factor) {
            let a = s.total_energy().as_kilowatt_hours();
            let b = down.total_energy().as_kilowatt_hours();
            prop_assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0));
        }
    }

    /// Upsampling (hold) always conserves energy exactly.
    #[test]
    fn upsample_conserves_energy(s in power_series(64), divisor in 1u64..6) {
        let step = s.step().as_secs();
        prop_assume!(step.is_multiple_of(divisor));
        let up = resample::upsample_hold(&s, Duration::from_secs(step / divisor)).unwrap();
        let a = s.total_energy().as_kilowatt_hours();
        let b = up.total_energy().as_kilowatt_hours();
        prop_assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0));
    }

    /// The peak of a downsampled series never exceeds the original peak:
    /// coarser demand metering can only help the customer.
    #[test]
    fn downsampled_peak_is_dominated(s in power_series(64), factor in 1u64..6) {
        let to = Duration::from_secs(s.step().as_secs() * factor);
        let down = resample::downsample_mean(&s, to).unwrap();
        prop_assert!(down.peak().unwrap() <= s.peak().unwrap());
    }

    /// Mean ≤ peak, trough ≤ mean, load factor in [0, 1].
    #[test]
    fn stats_ordering(s in power_series(64)) {
        let st = stats::load_stats(&s).unwrap();
        prop_assert!(st.trough <= st.mean);
        prop_assert!(st.mean <= st.peak);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&st.load_factor));
    }

    /// Percentile is monotone in q and brackets the extremes.
    #[test]
    fn percentile_monotone(s in power_series(64), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_lo = stats::percentile(&s, lo).unwrap();
        let p_hi = stats::percentile(&s, hi).unwrap();
        prop_assert!(p_lo <= p_hi);
        prop_assert!(stats::percentile(&s, 0.0).unwrap() <= p_lo);
        prop_assert!(p_hi <= stats::percentile(&s, 1.0).unwrap());
    }

    /// Rolling max dominates rolling mean dominates rolling min.
    #[test]
    fn rolling_ordering(s in power_series(64), w in 1u64..8) {
        prop_assume!((w as usize) <= s.len());
        let window = Duration::from_secs(s.step().as_secs() * w);
        let mx = windows::rolling_max(&s, window).unwrap();
        let mn = windows::rolling_min(&s, window).unwrap();
        let mean = windows::rolling_mean(&s, window).unwrap();
        for i in 0..mx.len() {
            prop_assert!(mn.values()[i] <= mean.values()[i] + Power::from_kilowatts(1e-9));
            prop_assert!(mean.values()[i] <= mx.values()[i] + Power::from_kilowatts(1e-9));
        }
    }

    /// max_demand equals the max of billing-period peaks.
    #[test]
    fn max_demand_is_max_of_period_peaks(s in power_series(64)) {
        let di = s.step();
        let overall = peaks::max_demand(&s, di).unwrap();
        let per_period = peaks::billing_period_peaks(&s, di, |t| t.as_secs() / 7200).unwrap();
        let best = per_period
            .iter()
            .map(|(_, p)| p.demand)
            .fold(Power::ZERO, Power::max);
        prop_assert!((overall.demand.as_kilowatts() - best.as_kilowatts()).abs() < 1e-9);
    }

    /// IntervalSet normalization: disjoint, sorted, and union with its
    /// complement reconstitutes the bounds.
    #[test]
    fn interval_set_partition(
        spans in prop::collection::vec((0u64..5_000, 1u64..400), 0..12)
    ) {
        let ivs: Vec<intervals::Interval> = spans
            .iter()
            .map(|(a, len)| intervals::Interval::new(
                SimTime::from_secs(*a),
                SimTime::from_secs(a + len),
            ))
            .collect();
        let set = intervals::IntervalSet::from_intervals(ivs);
        // Normalized: sorted and disjoint with gaps.
        for w in set.intervals().windows(2) {
            prop_assert!(w[0].end < w[1].start);
        }
        let bounds = intervals::Interval::new(SimTime::EPOCH, SimTime::from_secs(10_000));
        let comp = set.complement_within(bounds);
        let total = set.total_duration() + comp.total_duration();
        prop_assert_eq!(total.as_secs(), 10_000);
        // No point is in both.
        for iv in comp.intervals() {
            prop_assert!(!set.contains(iv.start));
        }
    }

    /// Parallel map agrees with sequential map.
    #[test]
    fn par_map_matches_sequential(items in prop::collection::vec(0u64..1_000_000, 0..200)) {
        let seq: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31).rotate_left(7)).collect();
        let mapped = par::try_par_map(&items, |x| x.wrapping_mul(31).rotate_left(7)).unwrap();
        prop_assert_eq!(&seq, &mapped);
    }

    /// cost_against with a constant price equals total_energy × price.
    #[test]
    fn cost_matches_energy_times_price(s in power_series(64), price_c in 1u32..100) {
        let price = hpcgrid_units::EnergyPrice::per_kilowatt_hour(price_c as f64 / 100.0);
        let prices = Series::constant(s.start(), s.step(), price, s.len()).unwrap();
        let cost = s.cost_against(&prices).unwrap().as_dollars();
        let expected = s.total_energy().as_kilowatt_hours()
            * price.as_dollars_per_kilowatt_hour();
        prop_assert!((cost - expected).abs() <= 1e-6 * expected.abs().max(1.0));
    }
}
