//! Property tests: streaming accrual is **bit-identical** to batch billing.
//!
//! The streaming subsystem's contract (see `hpcgrid_core::accrual`) is that
//! `BillAccrual::finalize()` after `k` pushes equals the batch bill of the
//! first-`k`-samples series, bit for bit — at *every* prefix, across all four tariff kinds, wrap-midnight TOU windows,
//! month-straddling streams, coarse metering intervals, top-k demand bases,
//! and emergency event windows. `Bill` compares `Money` exactly, so
//! `prop_assert_eq!` demands bit-level equality.
//!
//! On top of pure streaming: mid-stream `rebind` onto a patched kernel must
//! match a batch bill under that kernel; non-accrual-preserving deltas must
//! be rejected; snapshot/restore must round-trip through serde and continue
//! bit-identically; and the sharded `MeterFleet` must produce the same
//! bills for any shard count.

use hpcgrid_core::accrual::BillAccrual;
use hpcgrid_core::billing::Bill;
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::{DemandBasis, DemandCharge};
use hpcgrid_core::emergency::EmergencyDrClause;
use hpcgrid_core::fleet::{MeterFleet, Sample};
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{BlockStep, BlockTariff, DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, Month, MonthSet, Power, SimTime,
    TimeOfDay, Weekday,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::ops::Range;
use std::sync::Arc;

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

/// A load on a random start (second resolution), step, and length — sized
/// for the every-prefix comparison loop.
fn load_strategy() -> impl Strategy<Value = PowerSeries> {
    load_of(signed_kw(1..120))
}

fn load_of(kw: impl Strategy<Value = Vec<f64>>) -> impl Strategy<Value = PowerSeries> {
    (
        0u64..40 * 86_400,
        prop::sample::select(vec![900u64, 3_600, 7_200]),
        kw,
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

/// An hourly market-price strip on a random start.
fn strip_strategy() -> impl Strategy<Value = PriceSeries> {
    (
        prop::collection::vec(0.01f64..0.40, 3..30),
        0u64..30 * 86_400,
    )
        .prop_map(|(vals, start)| {
            PriceSeries::new(
                SimTime::from_secs(start),
                Duration::from_hours(1.0),
                vals.into_iter()
                    .map(EnergyPrice::per_kilowatt_hour)
                    .collect(),
            )
            .unwrap()
        })
}

/// A random demand charge: 15-minute or hourly metering, max-peak or
/// top-k basis, optional floor — everything the streaming metering state
/// must replicate.
fn demand_strategy() -> impl Strategy<Value = DemandCharge> {
    (
        5u32..20,
        prop::sample::select(vec![900u64, 3_600]),
        0usize..4,
        0u32..2_000,
    )
        .prop_map(|(price, interval, k, floor)| DemandCharge {
            price: DemandPrice::per_kilowatt_month(price as f64),
            demand_interval: Duration::from_secs(interval),
            basis: if k == 0 {
                DemandBasis::MaxPeak
            } else {
                DemandBasis::TopKAverage(k)
            },
            // Values under the stream's typical peaks double as "no floor".
            floor: (floor >= 100).then(|| Power::from_kilowatts(floor as f64)),
        })
}

/// The full-coverage contract: all four tariff kinds, a random demand
/// charge, a powerband, an emergency clause, and a service fee.
fn rich_contract_strategy() -> impl Strategy<Value = Contract> {
    (
        window_strategy(),
        window_strategy(),
        strip_strategy(),
        demand_strategy(),
        5u32..20,
    )
        .prop_map(|(w1, w2, strip, dc, band_mw)| {
            Contract::builder("accrual-base")
                .tariff(Tariff::TimeOfUse(TouTariff {
                    windows: vec![w1, w2],
                    base: EnergyPrice::per_kilowatt_hour(0.04),
                }))
                .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.03)))
                .tariff(Tariff::dynamic(
                    strip,
                    EnergyPrice::per_kilowatt_hour(0.011),
                    EnergyPrice::per_kilowatt_hour(0.09),
                ))
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
                .demand_charge(dc)
                .powerband(Powerband::ceiling(
                    Power::from_megawatts(band_mw as f64),
                    EnergyPrice::per_kilowatt_hour(0.5),
                ))
                .emergency(EmergencyDrClause::reference(Power::from_megawatts(9.0)))
                .monthly_fee(Money::from_dollars(750.0))
                .build()
                .unwrap()
        })
}

/// A delta whose accrued state stays valid across `rebind`: fee changes,
/// demand-charge price changes (same metering shape), powerband penalty
/// changes (same corridor), emergency changes, component removals. `sel`
/// picks the variant and `p` its magnitude.
fn rebindable_delta(sel: u8, p: u32, dc: DemandCharge, band_mw: u32) -> ContractDelta {
    match sel % 7 {
        0 => ContractDelta::SetMonthlyFee(Money::from_dollars((p % 2_000) as f64)),
        1 => ContractDelta::SetDemandCharge(Some(DemandCharge {
            price: DemandPrice::per_kilowatt_month((21 + p % 20) as f64),
            ..dc
        })),
        2 => ContractDelta::SetDemandCharge(None),
        3 => ContractDelta::SetPowerband(Some(Powerband::ceiling(
            Power::from_megawatts(band_mw as f64),
            EnergyPrice::per_kilowatt_hour((1 + p % 9) as f64 / 10.0),
        ))),
        4 => ContractDelta::SetPowerband(None),
        5 => ContractDelta::SetEmergency(Some(EmergencyDrClause::reference(
            Power::from_megawatts((1 + p % 9) as f64),
        ))),
        _ => ContractDelta::SetEmergency(None),
    }
}

fn calendars() -> Vec<Calendar> {
    vec![
        Calendar::default(),
        Calendar::new(Weekday::Wednesday, Month::June, 15).unwrap(),
        Calendar::new(Weekday::Sunday, Month::December, 31).unwrap(),
    ]
}

fn compile(cal: &Calendar, contract: &Contract, load: &PowerSeries) -> Arc<CompiledContract> {
    Arc::new(CompiledContract::compile(cal, contract, load.start(), load.end()).unwrap())
}

/// Stream the whole load, asserting finalize-vs-batch bit-identity at
/// every prefix.
fn assert_stream_matches_batch(
    kernel: &Arc<CompiledContract>,
    load: &PowerSeries,
) -> Result<(), TestCaseError> {
    let mut acc = BillAccrual::new(Arc::clone(kernel), load.start(), load.step()).unwrap();
    prop_assert!(acc.finalize().is_err(), "empty stream must not bill");
    for (k, (t, &p)) in load.iter().enumerate() {
        acc.push(t, p).unwrap();
        prop_assert_eq!(
            acc.finalize().unwrap(),
            kernel.bill(&load.prefix(k + 1)).unwrap(),
            "prefix {} diverged",
            k + 1
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: at every stream prefix, `finalize()` is
    /// bit-identical to the batch bill of that prefix — all four tariff
    /// kinds, random metering shapes and demand bases, powerband,
    /// emergency clause, and fee at once.
    #[test]
    fn accrual_is_bit_identical_at_every_prefix(
        contract in rich_contract_strategy(),
        load in load_strategy(),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let kernel = compile(&cal, &contract, &load);
        assert_stream_matches_batch(&kernel, &load)?;
    }

    /// Wrap-midnight TOU windows (`to <= from`) stream correctly: the
    /// running segment cursor crosses the midnight split exactly where the
    /// batch timeline does.
    #[test]
    fn wrap_midnight_tou_streams_bit_identically(
        (fh, th) in (12u8..24, 0u8..12),
        load in load_strategy(),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let contract = Contract::builder("wrap")
            .tariff(Tariff::TimeOfUse(TouTariff {
                windows: vec![TouWindow {
                    months: None,
                    days: DayFilter::All,
                    from: TimeOfDay::new(fh, 0),
                    to: TimeOfDay::new(th, 30), // to <= from: wraps midnight
                    price: EnergyPrice::per_kilowatt_hour(0.22),
                }],
                base: EnergyPrice::per_kilowatt_hour(0.05),
            }))
            .build()
            .unwrap();
        let kernel = compile(&cal, &contract, &load);
        assert_stream_matches_batch(&kernel, &load)?;
    }

    /// Month-straddling streams: the stream starts shortly before a
    /// billing-month boundary and crosses one or more of them, exercising
    /// demand month-close (including the straddling-sample re-feed at
    /// non-step-aligned boundaries), block bucket rollover, and the fee
    /// month count.
    #[test]
    fn month_straddling_stream_is_bit_identical(
        contract in rich_contract_strategy(),
        hours_before in 1u64..72,
        days_after in 1u64..40,
        kw in signed_kw(1..50),
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
        let kernel = compile(&cal, &contract, &load);
        let mut acc = BillAccrual::new(Arc::clone(&kernel), load.start(), load.step()).unwrap();
        for (k, (t, &p)) in load.iter().enumerate() {
            acc.push(t, p).unwrap();
            // Every-prefix here would be O(n²) on multi-month streams;
            // check a sliding stride plus the exact boundary neighborhood.
            let near_boundary = t.as_secs().abs_diff(boundary.as_secs()) <= step.as_secs() * 2;
            if k % 97 == 0 || near_boundary || k + 1 == load.len() {
                prop_assert_eq!(
                    acc.finalize().unwrap(),
                    kernel.bill(&load.prefix(k + 1)).unwrap(),
                    "prefix {} diverged",
                    k + 1
                );
            }
        }
    }

    /// Emergency event windows stream bit-identically to
    /// `bill_with_events`, including windows that straddle samples, cover
    /// nothing, or extend past the stream.
    #[test]
    fn event_windows_stream_bit_identically(
        contract in rich_contract_strategy(),
        load in load_strategy(),
        windows in prop::collection::vec((0u64..50 * 86_400, 1u64..12 * 3_600), 0..4),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let kernel = compile(&cal, &contract, &load);
        let events = IntervalSet::from_intervals(
            windows
                .iter()
                .map(|&(s, d)| {
                    Interval::from_duration(SimTime::from_secs(s), Duration::from_secs(d))
                })
                .collect(),
        );
        let mut acc =
            BillAccrual::with_events(Arc::clone(&kernel), load.start(), load.step(), &events)
                .unwrap();
        for (t, &p) in load.iter() {
            acc.push(t, p).unwrap();
        }
        prop_assert_eq!(
            acc.finalize().unwrap(),
            kernel.bill_with_events(&load, &events).unwrap()
        );
    }

    /// Mid-stream rebind: after `k` samples the contract is patched with an
    /// accrual-preserving delta; the stream rebinds onto the patched kernel
    /// without replay, and its finalize equals the batch bill of the *whole*
    /// stream under the patched kernel.
    #[test]
    fn rebind_matches_batch_under_patched_kernel(
        dc in demand_strategy(),
        band_mw in 5u32..20,
        window in window_strategy(),
        strip in strip_strategy(),
        delta_sel in 0u8..7,
        delta_p in 0u32..10_000,
        load in load_strategy(),
        split_frac in 0.0f64..1.0,
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let contract = Contract::builder("rebind-base")
            .tariff(Tariff::TimeOfUse(TouTariff {
                windows: vec![window],
                base: EnergyPrice::per_kilowatt_hour(0.04),
            }))
            .tariff(Tariff::dynamic(
                strip,
                EnergyPrice::per_kilowatt_hour(0.011),
                EnergyPrice::per_kilowatt_hour(0.09),
            ))
            .demand_charge(dc)
            .powerband(Powerband::ceiling(
                Power::from_megawatts(band_mw as f64),
                EnergyPrice::per_kilowatt_hour(0.5),
            ))
            .emergency(EmergencyDrClause::reference(Power::from_megawatts(9.0)))
            .monthly_fee(Money::from_dollars(400.0))
            .build()
            .unwrap();
        let delta = rebindable_delta(delta_sel, delta_p, dc, band_mw);
        let kernel = compile(&cal, &contract, &load);
        let patched = Arc::new(kernel.patch(&delta).unwrap());
        let split = ((load.len() as f64 * split_frac) as usize).min(load.len());
        let mut acc = BillAccrual::new(Arc::clone(&kernel), load.start(), load.step()).unwrap();
        for (k, (t, &p)) in load.iter().enumerate() {
            if k == split {
                acc.rebind(Arc::clone(&patched)).unwrap();
            }
            acc.push(t, p).unwrap();
        }
        if split == load.len() {
            acc.rebind(Arc::clone(&patched)).unwrap();
        }
        prop_assert_eq!(acc.finalize().unwrap(), patched.bill(&load).unwrap());
    }

    /// Snapshot/restore round-trip: the snapshot survives serde_json
    /// byte-identically, and a restored accrual continues bit-identically
    /// to the original — same bills at finalize, same subsequent snapshots.
    #[test]
    fn snapshot_restore_continues_bit_identically(
        contract in rich_contract_strategy(),
        load in load_strategy(),
        split_frac in 0.0f64..1.0,
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let kernel = compile(&cal, &contract, &load);
        let split = ((load.len() as f64 * split_frac) as usize).min(load.len());
        let mut original =
            BillAccrual::new(Arc::clone(&kernel), load.start(), load.step()).unwrap();
        for (t, &p) in load.iter().take(split) {
            original.push(t, p).unwrap();
        }
        let snap = original.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let decoded: hpcgrid_core::accrual::AccrualSnapshot =
            serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&decoded, &snap);
        let mut restored = BillAccrual::restore(Arc::clone(&kernel), &decoded).unwrap();
        prop_assert_eq!(restored.samples(), original.samples());
        for (t, &p) in load.iter().skip(split) {
            original.push(t, p).unwrap();
            restored.push(t, p).unwrap();
        }
        if original.samples() > 0 {
            prop_assert_eq!(original.finalize().unwrap(), restored.finalize().unwrap());
        }
        prop_assert_eq!(original.snapshot(), restored.snapshot());
    }

    /// Fleet bills are bit-identical to per-meter batch bills for ANY shard
    /// count, and identical across shard counts — sharding is pure
    /// deployment tuning.
    #[test]
    fn fleet_bills_match_batch_for_any_shard_count(
        contract in rich_contract_strategy(),
        loads in prop::collection::vec(
            signed_kw(24..60),
            2..6,
        ),
        cal_idx in 0usize..3,
    ) {
        let cal = calendars()[cal_idx];
        let step = Duration::from_minutes(15.0);
        let start = SimTime::from_secs(86_400);
        let n = loads.iter().map(|l| l.len()).min().unwrap();
        let series: Vec<PowerSeries> = loads
            .iter()
            .map(|kw| {
                Series::new(
                    start,
                    step,
                    kw[..n].iter().map(|&k| Power::from_kilowatts(k)).collect(),
                )
                .unwrap()
            })
            .collect();
        let end = start + step * n as u64;
        let kernel = Arc::new(
            CompiledContract::compile(&cal, &contract, start, end)
                .unwrap(),
        );
        let expected: Vec<Bill> = series.iter().map(|s| kernel.bill(s).unwrap()).collect();
        let mut all_bills = Vec::new();
        for shards in [1usize, 3, 16] {
            let mut fleet = MeterFleet::with_shards(cal, start, end, shards);
            let ids: Vec<_> = series
                .iter()
                .map(|_| {
                    fleet
                        .register_compiled(Arc::clone(&kernel), start, step)
                        .unwrap()
                })
                .collect();
            for tick in 0..n {
                let samples: Vec<Sample> = ids
                    .iter()
                    .zip(&series)
                    .map(|(&meter, s)| Sample {
                        meter,
                        power: s.values()[tick],
                    })
                    .collect();
                fleet.advance_tick(&samples).unwrap();
            }
            let bills: Vec<Bill> = fleet
                .finalize_all()
                .unwrap()
                .into_iter()
                .map(|(_, b)| b)
                .collect();
            prop_assert_eq!(&bills, &expected, "shard count {} diverged", shards);
            prop_assert_eq!(fleet.stats().contracts, 1);
            prop_assert_eq!(fleet.stats().kernel_misses, 1);
            all_bills.push(bills);
        }
        prop_assert_eq!(&all_bills[0], &all_bills[1]);
        prop_assert_eq!(&all_bills[0], &all_bills[2]);
    }
}

/// Non-accrual-preserving deltas are rejected by `rebind`, leaving the
/// meter untouched: tariff replacements, metering-shape changes, corridor
/// moves, and adding a stateful component mid-stream.
#[test]
fn non_rebindable_deltas_error() {
    let cal = Calendar::default();
    let contract = Contract::builder("strict")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.05)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(10.0)))
        .build()
        .unwrap();
    let start = SimTime::EPOCH;
    let end = SimTime::from_days(30);
    let step = Duration::from_minutes(15.0);
    let kernel = Arc::new(CompiledContract::compile(&cal, &contract, start, end).unwrap());
    let mut acc = BillAccrual::new(Arc::clone(&kernel), start, step).unwrap();
    for _ in 0..10 {
        acc.push_next(Power::from_megawatts(5.0)).unwrap();
    }
    let before = acc.finalize().unwrap();
    let rejected = [
        // Re-pricing history: different tariff fingerprint.
        ContractDelta::ReplaceTariff {
            index: 0,
            tariff: Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.06)),
        },
        // Metering-shape change: different demand interval.
        ContractDelta::SetDemandCharge(Some(DemandCharge {
            demand_interval: Duration::from_hours(1.0),
            ..DemandCharge::monthly(DemandPrice::per_kilowatt_month(10.0))
        })),
        // Basis change.
        ContractDelta::SetDemandCharge(Some(DemandCharge {
            basis: DemandBasis::TopKAverage(3),
            ..DemandCharge::monthly(DemandPrice::per_kilowatt_month(10.0))
        })),
        // Adding a powerband mid-stream: excursions were never measured.
        ContractDelta::SetPowerband(Some(Powerband::ceiling(
            Power::from_megawatts(6.0),
            EnergyPrice::per_kilowatt_hour(0.5),
        ))),
    ];
    for delta in &rejected {
        let patched = Arc::new(kernel.patch(delta).unwrap());
        let mut probe = acc.clone();
        assert!(
            probe.rebind(patched).is_err(),
            "delta {delta:?} must be rejected"
        );
    }
    // A failed probe never perturbs the accrual.
    assert_eq!(acc.finalize().unwrap(), before);
    // A same-shape kernel with a different horizon is rejected too.
    let other = Arc::new(
        CompiledContract::compile(&cal, &contract, start, SimTime::from_days(60)).unwrap(),
    );
    assert!(acc.clone().rebind(other).is_err());
}

/// Fleet-level mid-stream patch: the meter re-shards onto the patched
/// kernel and keeps streaming; its bill matches the patched batch while an
/// unpatched neighbor under the original contract is unaffected.
#[test]
fn fleet_apply_delta_reshards_and_continues() {
    let cal = Calendar::default();
    let contract = Contract::builder("fleet-delta")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.05)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(10.0)))
        .monthly_fee(Money::from_dollars(100.0))
        .build()
        .unwrap();
    let start = SimTime::EPOCH;
    let end = SimTime::from_days(45);
    let step = Duration::from_hours(1.0);
    let n = 40 * 24usize;
    let kernel = Arc::new(CompiledContract::compile(&cal, &contract, start, end).unwrap());
    let mut fleet = MeterFleet::with_shards(cal, start, end, 4);
    let a = fleet
        .register_compiled(Arc::clone(&kernel), start, step)
        .unwrap();
    let b = fleet
        .register_compiled(Arc::clone(&kernel), start, step)
        .unwrap();
    let load_a: PowerSeries = Series::from_fn(start, step, n, |t| {
        Power::from_kilowatts(4_000.0 + (t.as_secs() % 7_200) as f64)
    })
    .unwrap();
    let load_b: PowerSeries = Series::constant(start, step, Power::from_megawatts(2.5), n).unwrap();
    let delta = ContractDelta::SetMonthlyFee(Money::from_dollars(900.0));
    let split = n / 2;
    for tick in 0..n {
        if tick == split {
            fleet.apply_delta(a, &delta).unwrap();
        }
        fleet
            .advance_tick(&[
                Sample {
                    meter: a,
                    power: load_a.values()[tick],
                },
                Sample {
                    meter: b,
                    power: load_b.values()[tick],
                },
            ])
            .unwrap();
    }
    let stats = fleet.stats();
    assert_eq!(stats.contracts, 2, "patched meter must get its own kernel");
    assert_eq!(stats.meters, 2);
    assert_eq!(stats.samples, 2 * n as u64);
    let patched = kernel.patch(&delta).unwrap();
    assert_eq!(fleet.finalize(a).unwrap(), patched.bill(&load_a).unwrap());
    assert_eq!(fleet.finalize(b).unwrap(), kernel.bill(&load_b).unwrap());
    // Snapshot/restore through the fleet: byte-identical continuation.
    let snap = fleet.snapshot(b).unwrap();
    fleet.restore(b, &snap).unwrap();
    assert_eq!(fleet.finalize(b).unwrap(), kernel.bill(&load_b).unwrap());
    // A non-rebindable delta is rejected and leaves the meter in place.
    let bad = ContractDelta::ReplaceTariff {
        index: 0,
        tariff: Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.09)),
    };
    assert!(fleet.apply_delta(b, &bad).is_err());
    assert_eq!(fleet.finalize(b).unwrap(), kernel.bill(&load_b).unwrap());
}
