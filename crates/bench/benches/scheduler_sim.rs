//! Bench: the discrete-event scheduler (substrate of experiments E1/E4).

use criterion::{criterion_group, criterion_main, Criterion};
use hpcgrid_bench::scenarios::{meter_step, reference_site, reference_trace};
use hpcgrid_scheduler::policy::{CapSchedule, DvfsThrottle, Policy, PowerConstraints};
use hpcgrid_scheduler::sim::ScheduleSimulator;
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_units::{Duration, SimTime};
use std::hint::black_box;

fn bench_scheduler(c: &mut Criterion) {
    let trace = reference_trace(1);
    let site = reference_site();

    let mut g = c.benchmark_group("schedule_30day_512node");
    g.sample_size(10);
    g.bench_function("fcfs", |b| {
        b.iter(|| {
            let out = ScheduleSimulator::new(trace.machine_nodes, Policy::Fcfs).run(&trace);
            black_box(out.utilization())
        })
    });
    g.bench_function("easy_backfill", |b| {
        b.iter(|| {
            let out = ScheduleSimulator::new(trace.machine_nodes, Policy::EasyBackfill).run(&trace);
            black_box(out.utilization())
        })
    });
    g.bench_function("conservative_backfill", |b| {
        b.iter(|| {
            let out = ScheduleSimulator::new(trace.machine_nodes, Policy::ConservativeBackfill)
                .run(&trace);
            black_box(out.utilization())
        })
    });
    g.bench_function("easy_with_cap", |b| {
        // A capped run needs jobs that fit under the cap: the reference
        // trace contains full-machine benchmarks, so use a capped-size
        // variant of the same workload.
        let capped_trace = hpcgrid_workload::trace::WorkloadBuilder::new(1)
            .nodes(512)
            .days(30)
            .arrivals_per_hour(18.0)
            .deferrable_fraction(0.25)
            .max_job_nodes(400)
            .build();
        let constraints = PowerConstraints {
            cap: CapSchedule::constant(400),
            ..Default::default()
        };
        b.iter(|| {
            let out = ScheduleSimulator::with_constraints(
                capped_trace.machine_nodes,
                Policy::EasyBackfill,
                constraints.clone(),
            )
            .run(&capped_trace);
            black_box(out.utilization())
        })
    });
    g.bench_function("easy_overloaded", |b| {
        // Offered load ≥ 1, as at GSI: the queue stays deep all month, so
        // every event scans many queued jobs.
        let overloaded = hpcgrid_workload::trace::WorkloadBuilder::new(1)
            .nodes(512)
            .days(30)
            .arrivals_per_hour(56.0)
            .deferrable_fraction(0.25)
            .build();
        assert!(overloaded.offered_load() >= 1.0);
        b.iter(|| {
            let out = ScheduleSimulator::new(overloaded.machine_nodes, Policy::EasyBackfill)
                .run(&overloaded);
            black_box(out.utilization())
        })
    });
    g.bench_function("easy_dvfs", |b| {
        // Jobs started in the evening peak run at 60 % speed. A generated
        // regular job's walltime is 1.5× its runtime, so its dilated
        // runtime outlasts the walltime: a backfilled job can end past the
        // shadow and force it to be recomputed.
        let windows = IntervalSet::from_intervals(
            (0..30)
                .map(|d| {
                    let day = SimTime::from_days(d);
                    Interval::new(
                        day + Duration::from_hours(17.0),
                        day + Duration::from_hours(21.0),
                    )
                })
                .collect(),
        );
        let constraints = PowerConstraints {
            dvfs: Some(DvfsThrottle {
                windows,
                factor: 0.6,
            }),
            ..Default::default()
        };
        b.iter(|| {
            let out = ScheduleSimulator::with_constraints(
                trace.machine_nodes,
                Policy::EasyBackfill,
                constraints.clone(),
            )
            .run(&trace);
            black_box(out.utilization())
        })
    });
    g.finish();

    let outcome = ScheduleSimulator::new(trace.machine_nodes, Policy::EasyBackfill).run(&trace);
    let mut g2 = c.benchmark_group("load_series_conversion");
    g2.sample_size(20);
    g2.bench_function("to_load_series_15min", |b| {
        b.iter(|| black_box(outcome.to_load_series_with_step(&site, meter_step()).len()))
    });
    g2.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
