//! Bench: parallel vs sequential Monte-Carlo sweeps through `try_par_map`
//! (hpc-parallel ablation).

use criterion::{criterion_group, criterion_main, Criterion};
use hpcgrid_core::billing::BillingEngine;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::tariff::Tariff;
use hpcgrid_timeseries::par::try_par_map;
use hpcgrid_timeseries::series::{PowerSeries, Series};
use hpcgrid_units::{Calendar, DemandPrice, Duration, EnergyPrice, Power, SimTime};
use std::hint::black_box;

fn scenario_load(seed: u64) -> PowerSeries {
    let n = 30 * 96;
    Series::from_fn(SimTime::EPOCH, Duration::from_minutes(15.0), n, |t| {
        let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
        let phase = seed as f64 * 0.7;
        Power::from_megawatts(5.0 + 2.0 * ((h + phase) / 24.0 * std::f64::consts::TAU).sin())
    })
    .unwrap()
}

fn bench_sweep(c: &mut Criterion) {
    let contract = Contract::builder("sweep")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .build()
        .unwrap();
    let engine = BillingEngine::new(Calendar::default());
    let scenarios: Vec<u64> = (0..64).collect();
    let run_one = |seed: &u64| {
        let load = scenario_load(*seed);
        engine.bill(&contract, &load).unwrap().total().as_dollars()
    };

    let mut g = c.benchmark_group("billing_sweep_64_scenarios");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(scenarios.iter().map(run_one).sum::<f64>()))
    });
    g.bench_function("try_par_map", |b| {
        b.iter(|| {
            let bills = try_par_map(&scenarios, run_one).unwrap();
            black_box(bills.iter().sum::<f64>())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
