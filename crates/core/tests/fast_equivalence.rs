//! Property tests for the two billing precision modes.
//!
//! `Precision::BitExact` (the default) must stay **bit-identical** to the
//! interpreted `BillingEngine` path — the same contract every prior release
//! made, re-asserted here so a kernel refactor cannot silently change a
//! bit. `Precision::Fast` trades that bit-identity for vectorized pairwise
//! summation and is held to the documented relative tolerance of `1e-12`
//! per line item, across all four tariff kinds, wrap-midnight TOU windows,
//! month-straddling loads, and patched delta chains.

use hpcgrid_core::billing::{Bill, BillingEngine, Precision};
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::tariff::{BlockStep, BlockTariff, DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, Month, MonthSet, Power, SimTime,
    TimeOfDay, Weekday,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Documented relative tolerance of `Precision::Fast` (see
/// `hpcgrid_core::compiled` module docs).
const FAST_RTOL: f64 = 1e-12;

/// Assert two bills agree line-by-line within the fast-path tolerance.
/// The comparison scale floors at $1 so near-zero items compare absolutely.
fn assert_bills_close(exact: &Bill, fast: &Bill) -> Result<(), TestCaseError> {
    prop_assert_eq!(&exact.contract, &fast.contract);
    prop_assert_eq!(exact.items.len(), fast.items.len());
    for (e, f) in exact.items.iter().zip(&fast.items) {
        prop_assert_eq!(&e.label, &f.label);
        let (a, b) = (e.amount.as_dollars(), f.amount.as_dollars());
        let scale = a.abs().max(b.abs()).max(1.0);
        prop_assert!(
            (a - b).abs() <= FAST_RTOL * scale,
            "line item {} diverged: exact {a:e} vs fast {b:e}",
            e.label
        );
    }
    Ok(())
}

/// A load on a random start (second resolution), step, and length.
fn load_strategy() -> impl Strategy<Value = PowerSeries> {
    (
        0u64..40 * 86_400,
        prop::sample::select(vec![900u64, 3_600, 7_200]),
        prop::collection::vec(0.0f64..20_000.0, 1..500),
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

fn calendars() -> Vec<Calendar> {
    vec![
        Calendar::default(),
        Calendar::new(Weekday::Wednesday, Month::June, 15).unwrap(),
        Calendar::new(Weekday::Sunday, Month::December, 31).unwrap(),
    ]
}

proptest! {
    /// The refactor-safety anchor: a `Precision::BitExact` engine (the
    /// default) still produces bills byte-identical to the interpreted
    /// path, for randomized contracts, loads, and calendars. This is the
    /// same contract `compiled_equivalence.rs` asserts, restated against
    /// the explicit knob.
    #[test]
    fn bit_exact_engine_is_byte_identical_to_interpreter(
        contract in contract_strategy(),
        load in load_strategy(),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let engine = BillingEngine::new(cal).with_precision(Precision::BitExact);
        let interpreted = engine.bill(&contract, &load).unwrap();
        let compiled = CompiledContract::compile(&cal, &contract, load.start(), load.end())
            .unwrap()
            .with_precision(Precision::BitExact)
            .bill(&load)
            .unwrap();
        prop_assert_eq!(interpreted, compiled);
    }

    /// `Precision::Fast` stays within the documented relative tolerance of
    /// `Precision::BitExact` on every line item, across random mixes of all
    /// four tariff kinds (TOU incl. wrap-midnight windows, fixed, dynamic,
    /// block) plus demand charges and fees.
    #[test]
    fn fast_bill_is_within_tolerance_of_bit_exact(
        contract in contract_strategy(),
        load in load_strategy(),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let exact = BillingEngine::new(cal)
            .with_precision(Precision::BitExact)
            .bill(&contract, &load)
            .unwrap();
        let fast = BillingEngine::new(cal)
            .with_precision(Precision::Fast)
            .bill(&contract, &load)
            .unwrap();
        assert_bills_close(&exact, &fast)?;
    }

    /// Wrap-midnight TOU windows (`to <= from`) under the fast path: the
    /// merged segment runs split across the day boundary exactly as the
    /// exact path's, so the vectorized replay stays within tolerance.
    #[test]
    fn fast_wrap_midnight_tou_is_within_tolerance(
        from_h in 12u8..24,
        to_h in 0u8..12,
        kw in prop::collection::vec(0.0f64..15_000.0, 24..400),
        start_hours in 0u64..200,
    ) {
        let window = TouWindow {
            months: None,
            days: DayFilter::All,
            from: TimeOfDay::new(from_h, 30),
            to: TimeOfDay::new(to_h, 30),
            price: EnergyPrice::per_kilowatt_hour(0.031),
        };
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
        let exact = BillingEngine::new(cal).bill(&contract, &load).unwrap();
        let fast = BillingEngine::new(cal)
            .with_precision(Precision::Fast)
            .bill(&contract, &load)
            .unwrap();
        assert_bills_close(&exact, &fast)?;
    }

    /// Month-straddling loads under the fast path: demand-charge peaks per
    /// month bill bit-equal (lane-max over finite values is associative) and
    /// block-tariff bucket sums stay within tolerance across the boundary.
    #[test]
    fn fast_month_straddling_load_is_within_tolerance(
        hours_before in 1u64..72,
        days_after in 1u64..70,
        kw in prop::collection::vec(100.0f64..18_000.0, 1..50),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
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
        let exact = BillingEngine::new(cal).bill(&contract, &load).unwrap();
        let fast = BillingEngine::new(cal)
            .with_precision(Precision::Fast)
            .bill(&contract, &load)
            .unwrap();
        assert_bills_close(&exact, &fast)?;
        // The demand-charge peak is a max, not a sum: fast must match it
        // bit-for-bit, not merely within tolerance.
        for (e, f) in exact.items.iter().zip(&fast.items) {
            if e.label.contains("demand") {
                prop_assert_eq!(e.amount, f.amount);
            }
        }
    }

    /// Patched delta chains: applying deltas to a fast kernel bills within
    /// tolerance of a bit-exact kernel patched identically — pieces shared
    /// across a patch cannot leak stale prices.
    #[test]
    fn fast_patched_delta_chain_is_within_tolerance(
        contract in contract_strategy(),
        load in load_strategy(),
        fee in 0.0f64..5_000.0,
        demand_price in 1.0f64..30.0,
    ) {
        let cal = Calendar::default();
        let base = CompiledContract::compile(&cal, &contract, load.start(), load.end()).unwrap();
        let deltas = [
            ContractDelta::SetMonthlyFee(Money::from_dollars(fee)),
            ContractDelta::SetDemandCharge(Some(DemandCharge::monthly(
                DemandPrice::per_kilowatt_month(demand_price),
            ))),
        ];
        let mut exact = base.clone().with_precision(Precision::BitExact);
        let mut fast = base.with_precision(Precision::Fast);
        for delta in &deltas {
            let _ = fast.bill(&load).unwrap();
            exact = exact.patch(delta).unwrap();
            fast = fast.patch(delta).unwrap();
            assert_bills_close(&exact.bill(&load).unwrap(), &fast.bill(&load).unwrap())?;
        }
    }

    /// `bill_many` under `Precision::Fast`: the batch equals billing each
    /// load one at a time through the same kernel.
    #[test]
    fn fast_bill_many_matches_sequential(
        contract in contract_strategy(),
        base in load_strategy(),
        scales in prop::collection::vec(0.1f64..3.0, 2..8),
    ) {
        let cal = Calendar::default();
        let engine = BillingEngine::new(cal).with_precision(Precision::Fast);
        // Scaled copies share (start, step, len): one geometry, many loads.
        let loads: Vec<PowerSeries> = scales.iter().map(|s| base.scale(*s)).collect();
        let batch = engine.bill_many(&contract, &loads).unwrap();
        prop_assert_eq!(batch.len(), loads.len());
        let kernel = engine
            .compile(&contract, base.start(), base.end())
            .unwrap();
        for (load, batched) in loads.iter().zip(&batch) {
            prop_assert_eq!(&kernel.bill(load).unwrap(), batched);
        }
    }
}
