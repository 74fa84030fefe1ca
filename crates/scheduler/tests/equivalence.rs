//! Event-linear schedule ≡ reference (docs/ARCHITECTURE.md, invariant 9).
//!
//! `ScheduleSimulator` carries EASY and conservative reservations forward
//! across starts within an event. `reference::reference_run` restarts its
//! pass after every start. Both must emit the same `JobRecord`s, in the
//! same order, for FCFS, EASY and conservative backfill under caps, avoid
//! windows and DVFS throttles.

mod reference;

use hpcgrid_scheduler::metrics::JobRecord;
use hpcgrid_scheduler::policy::{CapSchedule, DvfsThrottle, Policy, PowerConstraints};
use hpcgrid_scheduler::sim::ScheduleSimulator;
use hpcgrid_scheduler::SchedError;
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_units::{Duration, SimTime};
use hpcgrid_workload::job::{Job, JobId, JobKind};
use hpcgrid_workload::trace::JobTrace;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::reference_run;

const POLICIES: [Policy; 3] = [
    Policy::Fcfs,
    Policy::EasyBackfill,
    Policy::ConservativeBackfill,
];

/// One generated machine, trace and constraint set.
struct Case {
    nodes: usize,
    trace: JobTrace,
    constraints: PowerConstraints,
}

/// A random overloaded trace with random constraints. The quantized arm
/// puts submits and runtimes on a 15-minute grid and rounds walltimes up
/// to whole hours, as in SWF logs, where a quarter of the jobs are also
/// killed at their limit; only then do expected ends tie often.
fn case(seed: u64, quantized: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes = rng.gen_range(16..=128usize);
    let span = rng.gen_range(4 * 3_600..72 * 3_600u64);
    let jobs: Vec<Job> = (0..rng.gen_range(20..=120u64))
        .map(|id| {
            let mut submit = rng.gen_range(0..span);
            let job_nodes = match rng.gen_range(0..100u8) {
                0 => 0, // hand-built traces may hold zero-node jobs
                1..=15 => rng.gen_range(nodes / 2..=nodes),
                _ => rng.gen_range(1..=nodes / 4),
            };
            let mut runtime = rng.gen_range(60..12 * 3_600u64);
            let mut walltime = runtime + rng.gen_range(0..=2 * runtime);
            if quantized {
                submit -= submit % 900;
                runtime = runtime.div_ceil(900) * 900;
                walltime = walltime.max(runtime).div_ceil(3_600) * 3_600;
                if rng.gen_bool(0.25) {
                    runtime = walltime; // killed at its limit
                }
            }
            if rng.gen_bool(0.03) {
                walltime = runtime / 2; // a hand-edited log: runtime > walltime
            }
            Job {
                id: JobId(id),
                submit: SimTime::from_secs(submit),
                nodes: job_nodes,
                walltime: Duration::from_secs(walltime),
                runtime: Duration::from_secs(runtime),
                intensity: rng.gen_range(0.2..1.0),
                kind: if rng.gen_bool(0.3) {
                    JobKind::Deferrable
                } else {
                    JobKind::Regular
                },
            }
        })
        .collect();
    let windows = |rng: &mut StdRng| {
        let ivs = (0..rng.gen_range(0..4usize))
            .map(|_| {
                let start = rng.gen_range(0..2 * span);
                Interval::new(
                    SimTime::from_secs(start),
                    SimTime::from_secs(start + rng.gen_range(900..8 * 3_600u64)),
                )
            })
            .collect();
        IntervalSet::from_intervals(ivs)
    };
    let cap = match rng.gen_range(0..3u8) {
        0 => CapSchedule::unlimited(),
        1 => CapSchedule::constant(rng.gen_range(nodes / 2..=nodes)),
        _ => {
            let mut entries: Vec<(SimTime, usize)> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    (
                        SimTime::from_secs(rng.gen_range(0..2 * span)),
                        rng.gen_range(nodes / 3..=nodes),
                    )
                })
                .collect();
            // Relax for good, so most cases finish rather than deadlock.
            entries.push((SimTime::from_secs(2 * span), nodes));
            CapSchedule::new(entries)
        }
    };
    let avoid_windows = windows(&mut rng);
    let dvfs = rng.gen_bool(0.5).then(|| DvfsThrottle {
        windows: windows(&mut rng),
        factor: rng.gen_range(0.3..=1.0),
    });
    Case {
        nodes,
        trace: JobTrace::from_parts(jobs, nodes, Duration::from_secs(span)),
        constraints: PowerConstraints {
            cap,
            avoid_windows,
            shutdown_idle: false,
            dvfs,
        },
    }
}

fn run(
    nodes: usize,
    policy: Policy,
    constraints: &PowerConstraints,
    trace: &JobTrace,
) -> Result<Vec<JobRecord>, SchedError> {
    ScheduleSimulator::with_constraints(nodes, policy, constraints.clone())
        .try_run(trace)
        .map(|out| out.records().to_vec())
}

fn assert_matches_reference(c: &Case, label: &str) {
    for policy in POLICIES {
        let fast = run(c.nodes, policy, &c.constraints, &c.trace);
        let slow = reference_run(c.nodes, policy, &c.constraints, &c.trace);
        assert_eq!(fast, slow, "{label}, {policy:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Arbitrary submit times and walltimes: ties between expected ends
    /// are rare.
    #[test]
    fn matches_reference(seed in 0u64..1 << 40) {
        assert_matches_reference(&case(seed, false), &format!("seed {seed}"));
    }

    /// SWF-style quantized submits and walltimes: expected ends tie at the
    /// shadow, the exit a carry-forward rule most easily gets wrong.
    #[test]
    fn matches_reference_quantized(seed in 0u64..1 << 40) {
        assert_matches_reference(&case(seed, true), &format!("quantized seed {seed}"));
    }
}

/// A job submitted at 0 with `(nodes, walltime h, runtime h)`.
fn job(id: u64, nodes: usize, walltime_h: f64, runtime_h: f64) -> Job {
    Job {
        id: JobId(id),
        submit: SimTime::EPOCH,
        nodes,
        walltime: Duration::from_hours(walltime_h),
        runtime: Duration::from_hours(runtime_h),
        intensity: 1.0,
        kind: JobKind::Regular,
    }
}

/// Schedule `jobs` with EASY on 100 nodes, check it against the reference,
/// and return job `id`'s start.
fn easy_start(jobs: Vec<Job>, constraints: PowerConstraints, id: u64) -> SimTime {
    let trace = JobTrace::from_parts(jobs, 100, Duration::from_days(1));
    let records = run(100, Policy::EasyBackfill, &constraints, &trace).expect("schedulable");
    let reference = reference_run(100, Policy::EasyBackfill, &constraints, &trace);
    assert_eq!(Ok(records.clone()), reference);
    records
        .iter()
        .find(|r| r.id == JobId(id))
        .expect("job ran")
        .start
}

/// Tie exit. Jobs 0–2 start; head job 3 (15 nodes) sees shadow 2 h, where
/// the walk crosses at job 1 with 1 spare node. Job 5 backfills and also
/// ends at 2 h. With 3 fewer nodes free the walk now crosses at job 2,
/// whose 10 nodes raise the spare nodes to 8, so job 4 starts at once.
/// Treating the tie like an earlier end keeps 1 spare node and starts job
/// 4 at 1 h.
#[test]
fn tie_at_the_shadow_recomputes_it() {
    let jobs = vec![
        job(0, 74, 10.0, 9.0),
        job(1, 6, 2.0, 1.0),
        job(2, 10, 2.0, 1.0),
        job(3, 15, 1.0, 1.0),
        job(4, 7, 5.0, 4.0),
        job(5, 3, 2.0, 1.0),
    ];
    assert_eq!(
        easy_start(jobs, PowerConstraints::none(), 4),
        SimTime::EPOCH
    );
}

/// Overrun exit. Inside a half-speed DVFS window, head job 2 (48 nodes)
/// sees shadow 4 h with 2 spare nodes. Job 3 backfills on its 3 h
/// walltime, but its runtime dilates to 6 h, past the shadow, on more than
/// the spare nodes, so the shadow moves to 6 h and job 4 (5 h walltime)
/// also starts at once. Keeping the 4 h shadow would hold job 4 back.
#[test]
fn dvfs_overrun_past_the_shadow_recomputes_it() {
    let jobs = vec![
        job(0, 50, 10.0, 2.0),
        job(1, 30, 2.0, 2.0),
        job(2, 48, 1.0, 1.0),
        job(3, 5, 3.0, 3.0),
        job(4, 10, 5.0, 1.0),
    ];
    let constraints = PowerConstraints {
        dvfs: Some(DvfsThrottle {
            windows: IntervalSet::from_intervals(vec![Interval::new(
                SimTime::EPOCH,
                SimTime::from_hours(1.0),
            )]),
            factor: 0.5,
        }),
        ..Default::default()
    };
    assert_eq!(easy_start(jobs, constraints, 4), SimTime::EPOCH);
}

/// Cap exit. Under a 90-node cap, head job 1 (55 nodes) has the nodes but
/// not the cap headroom; its shadow is job 0's end at 4 h. Job 2 backfills
/// and ends at 1 h, which moves the shadow to 1 h with 5 spare nodes, so
/// job 3 (20 nodes, 2 h) must wait for 1 h. Keeping the 4 h shadow would
/// start it at once.
#[test]
fn cap_blocked_head_recomputes_the_shadow() {
    let jobs = vec![
        job(0, 40, 4.0, 4.0),
        job(1, 55, 1.0, 1.0),
        job(2, 5, 1.0, 1.0),
        job(3, 20, 2.0, 2.0),
    ];
    let constraints = PowerConstraints {
        cap: CapSchedule::constant(90),
        ..Default::default()
    };
    assert_eq!(easy_start(jobs, constraints, 3), SimTime::from_hours(1.0));
}
