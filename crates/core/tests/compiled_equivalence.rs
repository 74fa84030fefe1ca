//! Property tests: the compiled billing kernel is **bit-identical** to the
//! interpreted `BillingEngine` path.
//!
//! `Bill` derives `PartialEq` over `Money` (exact `f64` comparison), so
//! `prop_assert_eq!(interpreted, compiled)` demands equality down to the last
//! bit of every line item — not approximate agreement. The two known-tricky
//! lowering cases called out in DESIGN.md get dedicated properties:
//! wrap-midnight TOU windows (`to <= from`) and loads that straddle
//! billing-month boundaries.

use hpcgrid_core::billing::BillingEngine;
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::{DemandBasis, DemandCharge};
use hpcgrid_core::emergency::EmergencyDrClause;
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{BlockStep, BlockTariff, DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, Month, MonthSet, Power, SimTime,
    TimeOfDay, Weekday,
};
use proptest::prelude::*;
use std::ops::Range;

/// kW samples for the bit-exact properties: import in `0..20 000` mixed
/// with export (negative power), exact zeros of both signs, repeats of the
/// previous sample, and coarse levels that tie across the whole load.
fn signed_kw(len: Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..8, -20_000.0f64..20_000.0), len).prop_map(|draws| {
        let mut prev = 0.0f64;
        draws
            .into_iter()
            .map(|(kind, kw)| {
                prev = match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 | 3 => prev,
                    4 => kw,
                    5 => (kw / 5_000.0).round() * 5_000.0,
                    _ => kw.abs(),
                };
                prev
            })
            .collect()
    })
}

/// A load on a random start (second resolution), step, and length.
fn load_strategy() -> impl Strategy<Value = PowerSeries> {
    (
        0u64..40 * 86_400,
        prop::sample::select(vec![900u64, 3_600, 7_200]),
        signed_kw(1..500),
    )
        .prop_map(|(start, step, kw)| {
            Series::new(
                SimTime::from_secs(start),
                Duration::from_secs(step),
                kw.into_iter().map(Power::from_kilowatts).collect(),
            )
            .unwrap()
        })
}

/// A TOU window with arbitrary edges — wrap-midnight (`to <= from`)
/// included — and a random month filter.
fn window_strategy() -> impl Strategy<Value = TouWindow> {
    (
        (0u8..24, [0u8, 15, 30, 45]),
        (0u8..24, [0u8, 15, 30, 45]),
        0u8..3,
        0u16..0x1000,
        1u32..60,
    )
        .prop_map(
            |((fh, fm), (th, tm), day_sel, month_mask, cents)| TouWindow {
                months: match month_mask % 3 {
                    0 => None,
                    1 => Some(MonthSet::summer()),
                    _ => Some(
                        Month::ALL
                            .iter()
                            .copied()
                            .filter(|m| month_mask & m.bit() != 0)
                            .collect(),
                    ),
                },
                days: match day_sel {
                    0 => DayFilter::All,
                    1 => DayFilter::WeekdaysOnly,
                    _ => DayFilter::WeekendsOnly,
                },
                from: TimeOfDay::new(fh, fm),
                to: TimeOfDay::new(th, tm),
                price: EnergyPrice::per_kilowatt_hour(cents as f64 / 100.0),
            },
        )
}

/// A contract mixing every tariff kind plus demand charge and fee, with the
/// mix chosen by `sel` bits.
fn contract_strategy() -> impl Strategy<Value = Contract> {
    (
        window_strategy(),
        window_strategy(),
        1u32..40,
        0u8..8,
        prop::collection::vec(0.01f64..0.40, 3..20),
        0u64..30 * 86_400,
    )
        .prop_map(|(w1, w2, base_cents, sel, strip, strip_start)| {
            let mut b = Contract::builder("prop").tariff(Tariff::TimeOfUse(TouTariff {
                windows: vec![w1, w2],
                base: EnergyPrice::per_kilowatt_hour(base_cents as f64 / 100.0),
            }));
            if sel & 1 != 0 {
                b = b.tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.03)));
            }
            if sel & 2 != 0 {
                let prices = PriceSeries::new(
                    SimTime::from_secs(strip_start),
                    Duration::from_hours(1.0),
                    strip
                        .iter()
                        .map(|p| EnergyPrice::per_kilowatt_hour(*p))
                        .collect(),
                )
                .unwrap();
                b = b.tariff(Tariff::dynamic(
                    prices,
                    EnergyPrice::per_kilowatt_hour(0.011),
                    EnergyPrice::per_kilowatt_hour(0.09),
                ));
            }
            if sel & 4 != 0 {
                b = b
                    .tariff(Tariff::Block(BlockTariff {
                        blocks: vec![
                            BlockStep {
                                up_to_kwh: Some(500_000.0),
                                price: EnergyPrice::per_kilowatt_hour(0.13),
                            },
                            BlockStep {
                                up_to_kwh: None,
                                price: EnergyPrice::per_kilowatt_hour(0.065),
                            },
                        ],
                    }))
                    .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(11.0)))
                    .monthly_fee(Money::from_dollars(750.0));
            }
            b.build().unwrap()
        })
}

/// The components `contract_strategy` leaves out: a demand charge with
/// coarse metering, a top-k basis or a floor, a powerband corridor with a
/// lower bound, and an emergency clause — beside a TOU tariff and a block
/// tariff, so energy lines and month buckets bill too.
fn rich_contract_strategy() -> impl Strategy<Value = Contract> {
    (
        window_strategy(),
        (
            5u32..20,
            prop::sample::select(vec![900u64, 3_600]),
            0usize..4,
        ),
        0u32..2_000,
        (0u32..15, 1u32..10),
        0u32..10,
    )
        .prop_map(
            |(w, (price, interval, k), floor, (band_lo, band_w), em_mw)| {
                let band_lo = Power::from_megawatts(band_lo as f64);
                Contract::builder("rich")
                    .tariff(Tariff::TimeOfUse(TouTariff {
                        windows: vec![w],
                        base: EnergyPrice::per_kilowatt_hour(0.04),
                    }))
                    .tariff(Tariff::Block(BlockTariff {
                        blocks: vec![
                            BlockStep {
                                up_to_kwh: Some(500_000.0),
                                price: EnergyPrice::per_kilowatt_hour(0.13),
                            },
                            BlockStep {
                                up_to_kwh: None,
                                price: EnergyPrice::per_kilowatt_hour(0.065),
                            },
                        ],
                    }))
                    .demand_charge(DemandCharge {
                        price: DemandPrice::per_kilowatt_month(price as f64),
                        demand_interval: Duration::from_secs(interval),
                        basis: if k == 0 {
                            DemandBasis::MaxPeak
                        } else {
                            DemandBasis::TopKAverage(k)
                        },
                        floor: (floor >= 100).then(|| Power::from_kilowatts(floor as f64)),
                    })
                    .powerband(Powerband {
                        upper: band_lo + Power::from_megawatts(band_w as f64),
                        lower: Some(band_lo),
                        penalty: EnergyPrice::per_kilowatt_hour(0.5),
                    })
                    .emergency(EmergencyDrClause::reference(Power::from_megawatts(
                        em_mw as f64,
                    )))
                    .monthly_fee(Money::from_dollars(750.0))
                    .build()
                    .unwrap()
            },
        )
}

fn calendars() -> Vec<Calendar> {
    vec![
        Calendar::default(),
        Calendar::new(Weekday::Wednesday, Month::June, 15).unwrap(),
        Calendar::new(Weekday::Sunday, Month::December, 31).unwrap(),
    ]
}

proptest! {
    /// Core equivalence: for randomized contracts, loads, and calendars, the
    /// compiled kernel's bill equals the interpreted bill bit-for-bit.
    #[test]
    fn compiled_bill_is_bit_identical(
        contract in contract_strategy(),
        load in load_strategy(),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let engine = BillingEngine::new(cal);
        let interpreted = engine.bill(&contract, &load).unwrap();
        let compiled = CompiledContract::compile(&cal, &contract, load.start(), load.end())
            .unwrap()
            .bill(&load)
            .unwrap();
        prop_assert_eq!(interpreted, compiled);
    }

    /// A compiled horizon wider than the load must not change the bill:
    /// the same contract compiled over a year bills a mid-horizon load
    /// identically to the interpreter.
    #[test]
    fn wide_horizon_is_bit_identical(
        contract in contract_strategy(),
        load in load_strategy(),
    ) {
        let cal = Calendar::default();
        let engine = BillingEngine::new(cal);
        let compiled = CompiledContract::compile(
            &cal,
            &contract,
            SimTime::EPOCH,
            SimTime::from_days(400),
        )
        .unwrap();
        prop_assert_eq!(
            engine.bill(&contract, &load).unwrap(),
            compiled.bill(&load).unwrap()
        );
    }

    /// Wrap-midnight TOU windows (`to <= from`), the first known-tricky
    /// lowering case: window membership is split across the day boundary.
    #[test]
    fn wrap_midnight_tou_is_bit_identical(
        from_h in 12u8..24,
        to_h in 0u8..12,
        kw in signed_kw(24..400),
        start_hours in 0u64..200,
    ) {
        let window = TouWindow {
            months: None,
            days: DayFilter::All,
            from: TimeOfDay::new(from_h, 30),
            to: TimeOfDay::new(to_h, 30),
            price: EnergyPrice::per_kilowatt_hour(0.031),
        };
        // to <= from by construction: the window wraps midnight.
        prop_assert!(window.to <= window.from);
        let contract = Contract::builder("wrap")
            .tariff(Tariff::TimeOfUse(TouTariff {
                windows: vec![window],
                base: EnergyPrice::per_kilowatt_hour(0.12),
            }))
            .build()
            .unwrap();
        let load = Series::new(
            SimTime::from_secs(start_hours * 3_600),
            Duration::from_minutes(15.0),
            kw.into_iter().map(Power::from_kilowatts).collect(),
        )
        .unwrap();
        let cal = Calendar::default();
        let engine = BillingEngine::new(cal);
        let compiled = CompiledContract::compile(&cal, &contract, load.start(), load.end())
            .unwrap();
        prop_assert_eq!(
            engine.bill(&contract, &load).unwrap(),
            compiled.bill(&load).unwrap()
        );
    }

    /// Loads straddling billing-month boundaries, the second known-tricky
    /// case: the load starts shortly before a month boundary and spans one
    /// or more of them, exercising demand-charge bucketing, block-tariff
    /// bucketing, and the fee month count against the boundary index.
    #[test]
    fn month_straddling_load_is_bit_identical(
        hours_before in 1u64..72,
        days_after in 1u64..70,
        kw in signed_kw(1..50),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        // First month boundary after t=0 under this calendar; clamp the
        // look-back so the start never precedes t=0 (the boundary can be as
        // little as one day after the epoch).
        let boundary = cal.next_month_start(SimTime::EPOCH);
        let hours_before = hours_before.min(boundary.as_secs() / 3_600);
        let start = boundary - Duration::from_hours(hours_before as f64);
        let span_secs = hours_before * 3_600 + days_after * 86_400;
        let step = Duration::from_minutes(15.0);
        let n = (span_secs / step.as_secs()) as usize;
        let values: Vec<Power> = (0..n)
            .map(|i| Power::from_kilowatts(kw[i % kw.len()]))
            .collect();
        let load = Series::new(start, step, values).unwrap();
        prop_assert!(load.start() < boundary && load.end() > boundary);
        let contract = Contract::builder("straddle")
            .tariff(Tariff::Block(BlockTariff {
                blocks: vec![
                    BlockStep {
                        up_to_kwh: Some(800_000.0),
                        price: EnergyPrice::per_kilowatt_hour(0.14),
                    },
                    BlockStep {
                        up_to_kwh: None,
                        price: EnergyPrice::per_kilowatt_hour(0.07),
                    },
                ],
            }))
            .tariff(Tariff::TimeOfUse(TouTariff::summer_peak(
                EnergyPrice::per_kilowatt_hour(0.29),
                EnergyPrice::per_kilowatt_hour(0.06),
            )))
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
            .monthly_fee(Money::from_dollars(1_000.0))
            .build()
            .unwrap();
        let engine = BillingEngine::new(cal);
        let compiled = CompiledContract::compile(&cal, &contract, load.start(), load.end())
            .unwrap();
        prop_assert_eq!(
            engine.bill(&contract, &load).unwrap(),
            compiled.bill(&load).unwrap()
        );
    }

    /// The components the streaming fold meters on its own — coarse and
    /// top-k demand, a powerband corridor, emergency event windows — bill
    /// bit-identically to the interpreter, windows that straddle samples,
    /// cover nothing or run past the load included.
    #[test]
    fn rich_contract_with_events_is_bit_identical(
        contract in rich_contract_strategy(),
        load in load_strategy(),
        windows in prop::collection::vec((0u64..50 * 86_400, 1u64..12 * 3_600), 0..4),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let events = IntervalSet::from_intervals(
            windows
                .iter()
                .map(|&(s, d)| {
                    Interval::from_duration(SimTime::from_secs(s), Duration::from_secs(d))
                })
                .collect(),
        );
        let compiled = CompiledContract::compile(&cal, &contract, load.start(), load.end())
            .unwrap();
        prop_assert_eq!(
            BillingEngine::new(cal)
                .bill_with_events(&contract, &load, &events)
                .unwrap(),
            compiled.bill_with_events(&load, &events).unwrap()
        );
    }

    /// `bill_many` (compile once + parallel fan-out) equals billing each load
    /// sequentially with the interpreter, bit for bit and in order.
    #[test]
    fn bill_many_is_bit_identical(
        contract in contract_strategy(),
        base in load_strategy(),
        scales in prop::collection::vec(0.1f64..3.0, 1..8),
    ) {
        let cal = Calendar::default();
        let engine = BillingEngine::new(cal);
        let loads: Vec<PowerSeries> = scales.iter().map(|s| base.scale(*s)).collect();
        let batch = engine.bill_many(&contract, &loads).unwrap();
        prop_assert_eq!(batch.len(), loads.len());
        for (load, bill) in loads.iter().zip(&batch) {
            prop_assert_eq!(&engine.bill(&contract, load).unwrap(), bill);
        }
    }
}
