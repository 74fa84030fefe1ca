//! Bench: the billing engine hot path (harness behind experiments E1/E2/E5).
//!
//! Prices one year of 15-minute interval data under each tariff leaf and
//! under the full typical contract (tariff + demand charge + powerband),
//! then compares the interpreted path against the compiled kernel
//! (segment timelines + month-boundary index) on the acceptance workload:
//! one month of 15-minute samples under a TOU contract.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hpcgrid_core::billing::BillingEngine;
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, MonthSet, Power, SimTime, TimeOfDay,
};
use std::hint::black_box;

fn year_load() -> PowerSeries {
    let n = 365 * 96; // one year of 15-min intervals
    Series::from_fn(SimTime::EPOCH, Duration::from_minutes(15.0), n, |t| {
        let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
        let diurnal = 1.0 + 0.3 * ((h - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        Power::from_megawatts(8.0 * diurnal)
    })
    .unwrap()
}

fn year_strip() -> PriceSeries {
    let n = 365 * 96;
    Series::from_fn(SimTime::EPOCH, Duration::from_minutes(15.0), n, |t| {
        let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
        EnergyPrice::per_kilowatt_hour(0.05 + 0.03 * (h / 24.0 * std::f64::consts::TAU).sin().abs())
    })
    .unwrap()
}

fn bench_billing(c: &mut Criterion) {
    let load = year_load();
    let cal = Calendar::default();
    let engine = BillingEngine::new(cal);

    let fixed = Contract::builder("fixed")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .build()
        .unwrap();
    let tou = Contract::builder("tou")
        .tariff(Tariff::day_night(
            EnergyPrice::per_kilowatt_hour(0.10),
            EnergyPrice::per_kilowatt_hour(0.04),
        ))
        .build()
        .unwrap();
    let dynamic = Contract::builder("dynamic")
        .tariff(Tariff::dynamic(
            year_strip(),
            EnergyPrice::per_kilowatt_hour(0.01),
            EnergyPrice::per_kilowatt_hour(0.07),
        ))
        .build()
        .unwrap();
    let full = Contract::builder("full")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .powerband(Powerband::symmetric(
            Power::from_megawatts(8.0),
            Power::from_megawatts(2.0),
            EnergyPrice::per_kilowatt_hour(0.35),
        ))
        .build()
        .unwrap();

    let mut g = c.benchmark_group("billing_year_15min");
    g.sample_size(20);
    for (name, contract) in [
        ("fixed", &fixed),
        ("tou", &tou),
        ("dynamic", &dynamic),
        ("full_contract", &full),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || load.clone(),
                |l| black_box(engine.bill(contract, &l).unwrap().total()),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn month_load() -> PowerSeries {
    let n = 30 * 96; // one month of 15-min intervals
    Series::from_fn(SimTime::EPOCH, Duration::from_minutes(15.0), n, |t| {
        let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
        let diurnal = 1.0 + 0.3 * ((h - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        Power::from_megawatts(8.0 * diurnal)
    })
    .unwrap()
}

fn bench_compiled(c: &mut Criterion) {
    let load = month_load();
    let cal = Calendar::default();
    let engine = BillingEngine::new(cal);
    // Utility-shaped TOU: the weekday/month filters are what force the
    // interpreter to consult the calendar per sample.
    let tou = Contract::builder("tou")
        .tariff(Tariff::TimeOfUse(TouTariff {
            windows: vec![
                TouWindow {
                    months: Some(MonthSet::summer()),
                    days: DayFilter::WeekdaysOnly,
                    from: TimeOfDay::new(14, 0),
                    to: TimeOfDay::new(20, 0),
                    price: EnergyPrice::per_kilowatt_hour(0.24),
                },
                TouWindow {
                    months: None,
                    days: DayFilter::WeekdaysOnly,
                    from: TimeOfDay::new(7, 0),
                    to: TimeOfDay::new(22, 0),
                    price: EnergyPrice::per_kilowatt_hour(0.11),
                },
                TouWindow {
                    months: None,
                    days: DayFilter::All,
                    from: TimeOfDay::new(22, 0),
                    to: TimeOfDay::new(7, 0),
                    price: EnergyPrice::per_kilowatt_hour(0.04),
                },
            ],
            base: EnergyPrice::per_kilowatt_hour(0.08),
        }))
        .build()
        .unwrap();
    let compiled = engine.compile(&tou, load.start(), load.end()).unwrap();
    assert_eq!(
        engine.bill(&tou, &load).unwrap(),
        compiled.bill(&load).unwrap(),
        "bench contract must bill bit-identically on both paths"
    );

    let mut g = c.benchmark_group("billing_month_15min_tou");
    g.sample_size(20);
    g.bench_function("interpreted", |b| {
        b.iter(|| black_box(engine.bill(&tou, &load).unwrap().total()))
    });
    g.bench_function("compiled", |b| {
        b.iter(|| black_box(compiled.bill(&load).unwrap().total()))
    });
    g.bench_function("compile_only", |b| {
        b.iter(|| black_box(engine.compile(&tou, load.start(), load.end()).unwrap()))
    });
    g.finish();

    // Batch throughput: 32 sites under one contract — compile once, fan out.
    let loads: Vec<PowerSeries> = (0..32).map(|i| load.scale(0.5 + 0.05 * i as f64)).collect();
    let mut g = c.benchmark_group("billing_batch_32_loads");
    g.sample_size(10);
    g.bench_function("interpreted_loop", |b| {
        b.iter(|| {
            for l in &loads {
                black_box(engine.bill(&tou, l).unwrap().total());
            }
        })
    });
    g.bench_function("bill_many", |b| {
        b.iter(|| black_box(engine.bill_many(&tou, &loads).unwrap().len()))
    });
    g.finish();
}

/// A month-coverage hourly strip whose level varies by revision index, like
/// a day-ahead republication.
fn revision_strip(revision: usize) -> PriceSeries {
    let offset = 0.002 * (revision % 17) as f64;
    Series::from_fn(SimTime::EPOCH, Duration::from_hours(1.0), 30 * 24, |t| {
        let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
        EnergyPrice::per_kilowatt_hour(
            0.05 + offset + 0.03 * (h / 24.0 * std::f64::consts::TAU).sin().abs(),
        )
    })
    .unwrap()
}

fn bench_patch(c: &mut Criterion) {
    let cal = Calendar::default();
    let engine = BillingEngine::new(cal);
    // The rich sweep contract from `exp_billing_kernel`: four tariffs plus
    // demand charge. A market revision touches only tariff index 3 (the
    // dynamic strip); the patch path re-lowers that one piece and shares the
    // rest, while the recompile path re-lowers everything over the year.
    let dynamic_index = 3;
    let base_strip = revision_strip(0);
    let contract = Contract::builder("rich")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.015)))
        .tariff(Tariff::TimeOfUse(TouTariff {
            windows: vec![
                TouWindow {
                    months: Some(MonthSet::summer()),
                    days: DayFilter::WeekdaysOnly,
                    from: TimeOfDay::new(14, 0),
                    to: TimeOfDay::new(20, 0),
                    price: EnergyPrice::per_kilowatt_hour(0.24),
                },
                TouWindow {
                    months: None,
                    days: DayFilter::All,
                    from: TimeOfDay::new(22, 0),
                    to: TimeOfDay::new(7, 0),
                    price: EnergyPrice::per_kilowatt_hour(0.04),
                },
            ],
            base: EnergyPrice::per_kilowatt_hour(0.08),
        }))
        .tariff(Tariff::day_night(
            EnergyPrice::per_kilowatt_hour(0.03),
            EnergyPrice::per_kilowatt_hour(0.012),
        ))
        .tariff(Tariff::dynamic(
            base_strip,
            EnergyPrice::per_kilowatt_hour(0.01),
            EnergyPrice::per_kilowatt_hour(0.08),
        ))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .build()
        .unwrap();
    let year_end = SimTime::from_days(365);
    let kernel = engine.compile(&contract, SimTime::EPOCH, year_end).unwrap();
    let strips: Vec<PriceSeries> = (1..65).map(revision_strip).collect();

    let mut g = c.benchmark_group("patch_vs_recompile");
    g.sample_size(20);
    g.bench_function("recompile_year_kernel", |b| {
        let mut i = 0;
        b.iter(|| {
            let strip = &strips[i % strips.len()];
            i += 1;
            let revised = contract
                .apply(&ContractDelta::price_strip(dynamic_index, strip.clone()))
                .unwrap();
            black_box(engine.compile(&revised, SimTime::EPOCH, year_end).unwrap())
        })
    });
    g.bench_function("patch_with_price_strip", |b| {
        let mut i = 0;
        b.iter(|| {
            let strip = &strips[i % strips.len()];
            i += 1;
            black_box(kernel.with_price_strip(strip).unwrap())
        })
    });
    g.bench_function("patch_set_demand_charge", |b| {
        let mut i = 0;
        b.iter(|| {
            let rate = 6.0 + (i % 8) as f64;
            i += 1;
            black_box(
                kernel
                    .patch(&ContractDelta::SetDemandCharge(Some(
                        DemandCharge::monthly(DemandPrice::per_kilowatt_month(rate)),
                    )))
                    .unwrap(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_billing, bench_compiled, bench_patch);
criterion_main!(benches);
