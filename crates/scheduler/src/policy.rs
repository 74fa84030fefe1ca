//! Queue disciplines and power constraints.

use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_units::SimTime;
use serde::{Deserialize, Serialize};

/// The queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Policy {
    /// First-come-first-served: strict queue order, no lookahead.
    Fcfs,
    /// EASY backfill: the queue head holds a reservation; later jobs may
    /// start out of order if they cannot delay it.
    #[default]
    EasyBackfill,
    /// Conservative backfill: *every* queued job holds a reservation; a job
    /// may start out of order only if it delays none of them. Stronger
    /// fairness guarantees, less backfilling than EASY.
    ConservativeBackfill,
}

/// A step schedule of the maximum number of *busy* nodes allowed.
///
/// Entries `(from, max_busy)` are sorted by time; each applies from its
/// timestamp until the next entry. Before the first entry the machine is
/// unconstrained. This is the scheduler-side expression of a facility power
/// cap (see `hpcgrid_facility::capping`, which converts kW caps into node
/// budgets).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CapSchedule {
    entries: Vec<(SimTime, usize)>,
}

impl CapSchedule {
    /// No cap, ever.
    pub fn unlimited() -> CapSchedule {
        CapSchedule::default()
    }

    /// Build from `(from, max_busy)` pairs (sorted internally).
    pub fn new(mut entries: Vec<(SimTime, usize)>) -> CapSchedule {
        entries.sort_by_key(|(t, _)| *t);
        CapSchedule { entries }
    }

    /// A constant cap from `t = 0`.
    pub fn constant(max_busy: usize) -> CapSchedule {
        CapSchedule {
            entries: vec![(SimTime::EPOCH, max_busy)],
        }
    }

    /// The cap in force at `t` (`usize::MAX` when unconstrained).
    pub fn max_busy_at(&self, t: SimTime) -> usize {
        match self.entries.partition_point(|(from, _)| *from <= t) {
            0 => usize::MAX,
            i => self.entries[i - 1].1,
        }
    }

    /// The next time after `t` at which the cap changes, if any. The
    /// simulator uses this to wake up when a cap relaxes, once per event,
    /// so it is a binary search over the sorted entries.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        let i = self.entries.partition_point(|(from, _)| *from <= t);
        self.entries.get(i).map(|(from, _)| *from)
    }

    /// True if no entries exist.
    pub fn is_unlimited(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw entries.
    pub fn entries(&self) -> &[(SimTime, usize)] {
        &self.entries
    }
}

/// DVFS throttling applied to jobs that *start* inside designated windows —
/// the "energy and power-aware job scheduling" strategy of the paper's
/// cited survey. Throttled jobs draw `factor` of their intensity and run
/// `1/factor` longer (the classic race-to-idle trade).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsThrottle {
    /// Windows during which newly started jobs are throttled.
    pub windows: IntervalSet,
    /// Intensity multiplier in `(0, 1]`.
    pub factor: f64,
}

impl DvfsThrottle {
    /// Validate the factor.
    pub fn is_valid(&self) -> bool {
        self.factor > 0.0 && self.factor <= 1.0 && self.factor.is_finite()
    }
}

/// Power-aware constraints layered on a queue discipline.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerConstraints {
    /// Busy-node cap schedule (power capping).
    pub cap: CapSchedule,
    /// Windows during which *deferrable* jobs must not start (load shifting
    /// away from DR events or peak-price hours).
    pub avoid_windows: IntervalSet,
    /// Power off idle nodes (removes the idle floor from the load series).
    pub shutdown_idle: bool,
    /// DVFS throttling of jobs started inside designated windows.
    pub dvfs: Option<DvfsThrottle>,
}

impl PowerConstraints {
    /// No constraints: the machine schedules purely for throughput.
    pub fn none() -> PowerConstraints {
        PowerConstraints::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcgrid_timeseries::intervals::Interval;

    #[test]
    fn unlimited_cap() {
        let c = CapSchedule::unlimited();
        assert!(c.is_unlimited());
        assert_eq!(c.max_busy_at(SimTime::from_days(5)), usize::MAX);
        assert_eq!(c.next_change_after(SimTime::EPOCH), None);
    }

    #[test]
    fn step_schedule_lookup() {
        let c = CapSchedule::new(vec![
            (SimTime::from_hours(10.0), 100),
            (SimTime::from_hours(2.0), 500),
        ]);
        // Before the first entry: unconstrained.
        assert_eq!(c.max_busy_at(SimTime::from_hours(1.0)), usize::MAX);
        assert_eq!(c.max_busy_at(SimTime::from_hours(2.0)), 500);
        assert_eq!(c.max_busy_at(SimTime::from_hours(9.0)), 500);
        assert_eq!(c.max_busy_at(SimTime::from_hours(10.0)), 100);
        assert_eq!(c.max_busy_at(SimTime::from_hours(99.0)), 100);
    }

    #[test]
    fn next_change_lookup() {
        let c = CapSchedule::new(vec![
            (SimTime::from_hours(2.0), 500),
            (SimTime::from_hours(10.0), 100),
        ]);
        assert_eq!(
            c.next_change_after(SimTime::EPOCH),
            Some(SimTime::from_hours(2.0))
        );
        assert_eq!(
            c.next_change_after(SimTime::from_hours(2.0)),
            Some(SimTime::from_hours(10.0))
        );
        assert_eq!(c.next_change_after(SimTime::from_hours(10.0)), None);
    }

    #[test]
    fn next_change_matches_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            // Few distinct hours, so entries share timestamps.
            let entries: Vec<(SimTime, usize)> = (0..rng.gen_range(0..8usize))
                .map(|_| (SimTime::from_hours(rng.gen_range(0..12u64) as f64), 1))
                .collect();
            let cap = CapSchedule::new(entries);
            // Probe on and between the entry times.
            for half_hours in 0..26 {
                let t = SimTime::from_secs(half_hours * 1_800);
                let linear = cap
                    .entries()
                    .iter()
                    .map(|(from, _)| *from)
                    .find(|from| *from > t);
                assert_eq!(cap.next_change_after(t), linear, "{cap:?} at {t}");
            }
        }
    }

    #[test]
    fn constant_cap_applies_from_epoch() {
        let c = CapSchedule::constant(64);
        assert_eq!(c.max_busy_at(SimTime::EPOCH), 64);
        assert_eq!(c.max_busy_at(SimTime::from_days(100)), 64);
    }

    #[test]
    fn default_constraints_are_inert() {
        let p = PowerConstraints::none();
        assert!(p.cap.is_unlimited());
        assert!(p.avoid_windows.is_empty());
        assert!(!p.shutdown_idle);
        let with_window = PowerConstraints {
            avoid_windows: IntervalSet::from_intervals(vec![Interval::new(
                SimTime::EPOCH,
                SimTime::from_hours(1.0),
            )]),
            ..Default::default()
        };
        assert!(!with_window.avoid_windows.is_empty());
    }
}
