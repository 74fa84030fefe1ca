//! Property tests: the columnar / fused fleet ingest paths are
//! **bit-identical** to per-sample streaming — invariant #8, "fused ≡
//! per-sample".
//!
//! Three ways of feeding the same samples must close the same books, bit
//! for bit, under `Precision::BitExact`:
//!
//! * per-sample `BillAccrual::push_next`,
//! * fused `BillAccrual::push_run` over arbitrary chunkings,
//! * `MeterFleet::advance_tick` / `advance_frame` / `advance_window`
//!   over arbitrary window widths and shard counts.
//!
//! On top of pure equivalence: a meter that panics mid-window loses the
//! rest of *its* window only; a mid-stream `apply_delta` invalidates the
//! cached scatter plan and the rebuilt plan bills identically; duplicate
//! meter ids in a frame degrade to per-frame folds without changing
//! bills; and `Precision::Fast` fused runs stay within the documented
//! 1e-12 of the bit-exact batch bill.

use hpcgrid_core::accrual::BillAccrual;
use hpcgrid_core::billing::{Bill, Precision};
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::{DemandBasis, DemandCharge};
use hpcgrid_core::fleet::{MeterFleet, MeterId, Sample, TickFrame};
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{BlockStep, BlockTariff, DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_core::CoreError;
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_timeseries::series::{PowerSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, Power, SimTime, TimeOfDay,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::ops::Range;
use std::sync::Arc;

/// Documented relative tolerance of `Precision::Fast`.
const FAST_RTOL: f64 = 1e-12;

/// Horizon every kernel in this file compiles against.
const HORIZON_DAYS: u64 = 40;

/// A deterministic contract exercising every streamed component kind:
/// TOU windows (one wrap-midnight), a block tariff with a bucket knee, a
/// top-k demand charge on 15-minute metering, a powerband ceiling, and a
/// monthly fee. Load/geometry randomness drives the cursor and boundary
/// logic; the contract supplies the component coverage.
fn rich_contract() -> Contract {
    Contract::builder("fleet-batched-rich")
        .tariff(Tariff::TimeOfUse(TouTariff {
            windows: vec![
                TouWindow {
                    months: None,
                    days: DayFilter::WeekdaysOnly,
                    from: TimeOfDay::new(8, 0),
                    to: TimeOfDay::new(20, 0),
                    price: EnergyPrice::per_kilowatt_hour(0.12),
                },
                TouWindow {
                    months: None,
                    days: DayFilter::All,
                    from: TimeOfDay::new(22, 0),
                    to: TimeOfDay::new(6, 0),
                    price: EnergyPrice::per_kilowatt_hour(0.02),
                },
            ],
            base: EnergyPrice::per_kilowatt_hour(0.05),
        }))
        .tariff(Tariff::Block(BlockTariff {
            blocks: vec![
                BlockStep {
                    up_to_kwh: Some(400_000.0),
                    price: EnergyPrice::per_kilowatt_hour(0.11),
                },
                BlockStep {
                    up_to_kwh: None,
                    price: EnergyPrice::per_kilowatt_hour(0.06),
                },
            ],
        }))
        .demand_charge(DemandCharge {
            price: DemandPrice::per_kilowatt_month(14.0),
            demand_interval: Duration::from_secs(900),
            basis: DemandBasis::TopKAverage(3),
            floor: Some(Power::from_kilowatts(900.0)),
        })
        .powerband(Powerband::ceiling(
            Power::from_megawatts(9.0),
            EnergyPrice::per_kilowatt_hour(0.4),
        ))
        .monthly_fee(Money::from_dollars(500.0))
        .build()
        .unwrap()
}

/// TOU plus a max-peak monthly demand charge on 15-minute metering: on
/// 15-minute and hourly streams each month's peak is one lane max in
/// `push_run` and a per-sample update in `push_next`.
fn max_peak_contract() -> Contract {
    Contract::builder("fleet-batched-max-peak")
        .tariff(Tariff::day_night(
            EnergyPrice::per_kilowatt_hour(0.12),
            EnergyPrice::per_kilowatt_hour(0.04),
        ))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .build()
        .unwrap()
}

/// A plain flat-rate contract — the degenerate single-segment timeline.
fn flat_contract() -> Contract {
    Contract::builder("fleet-batched-flat")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .build()
        .unwrap()
}

fn compile(contract: &Contract, precision: Precision) -> Arc<CompiledContract> {
    Arc::new(
        CompiledContract::compile(
            &Calendar::default(),
            contract,
            SimTime::EPOCH,
            SimTime::from_days(HORIZON_DAYS),
        )
        .unwrap()
        .with_precision(precision),
    )
}

/// kW samples for the bit-exact properties: import in `0..20 000` mixed
/// with export (negative power), exact zeros of both signs, repeats of the
/// previous sample, and coarse levels that tie across the whole stream.
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

/// `(start, step, kw)`: a stream geometry inside the horizon, sized so
/// even the longest stream at the coarsest step stays in bounds.
fn geometry(
    kw: impl Strategy<Value = Vec<f64>>,
) -> impl Strategy<Value = (SimTime, Duration, Vec<f64>)> {
    (
        0u64..30 * 86_400,
        prop::sample::select(vec![900u64, 3_600]),
        kw,
    )
        .prop_map(|(s, step, kw)| (SimTime::from_secs(s), Duration::from_secs(step), kw))
}

/// A signed stream for the bit-exact properties.
fn stream_strategy() -> impl Strategy<Value = (SimTime, Duration, Vec<f64>)> {
    geometry(signed_kw(1..150))
}

/// A non-negative stream for the `Fast` tolerance property: its 1e-12
/// bound is documented for same-sign addends.
fn import_stream_strategy() -> impl Strategy<Value = (SimTime, Duration, Vec<f64>)> {
    geometry(prop::collection::vec(0.0f64..20_000.0, 1..150))
}

/// Chunk widths for splitting a stream into `push_run` calls / windows.
fn chunks_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..17, 1..40)
}

/// Assert two bills agree line-by-line within the fast-path tolerance.
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

/// Deterministic per-meter, per-tick load (kept under the band ceiling
/// sometimes, over it other times, so the band path accrues).
fn mw(meter: usize, tick: u64) -> Power {
    Power::from_megawatts(2.0 + meter as f64 * 1.3 + (tick % 7) as f64 * 0.9)
}

/// A fleet of `n` meters round-robined over the two contract shapes.
/// Kernels are pinned to `BitExact` explicitly — this file's fused-vs-scalar
/// claims are bit-identity statements, which only `BitExact` makes; the
/// `Fast` tolerance row has its own dedicated property below.
fn fleet_of(n: usize, shards: usize) -> (MeterFleet, Vec<MeterId>) {
    let mut fleet = MeterFleet::with_shards(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(HORIZON_DAYS),
        shards,
    );
    let shapes = [
        compile(&rich_contract(), Precision::BitExact),
        compile(&flat_contract(), Precision::BitExact),
    ];
    let step = Duration::from_minutes(15.0);
    let ids = (0..n)
        .map(|i| {
            fleet
                .register_compiled(Arc::clone(&shapes[i % shapes.len()]), SimTime::EPOCH, step)
                .unwrap()
        })
        .collect();
    (fleet, ids)
}

fn frame_at(ids: &Arc<[MeterId]>, tick: u64) -> TickFrame {
    let powers = ids.iter().map(|id| mw(id.0, tick)).collect();
    TickFrame::new(Arc::clone(ids), powers).unwrap()
}

fn batch_at(ids: &[MeterId], tick: u64) -> Vec<Sample> {
    ids.iter()
        .map(|id| Sample {
            meter: *id,
            power: mw(id.0, tick),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The accrual-level half of invariant #8: `push_run` over any
    /// chunking leaves bit-identical state to per-sample `push_next` at
    /// every chunk boundary, and the full stream finalizes bit-identical
    /// to the batch bill — event windows included.
    #[test]
    fn push_run_matches_push_next_at_every_chunk(
        (start, step, kw) in stream_strategy(),
        chunks in chunks_strategy(),
        windows in prop::collection::vec((0u64..35 * 86_400, 1u64..12 * 3_600), 0..3),
    ) {
        let kernel = compile(&rich_contract(), Precision::BitExact);
        let events = IntervalSet::from_intervals(
            windows
                .iter()
                .map(|&(s, d)| Interval::from_duration(SimTime::from_secs(s), Duration::from_secs(d)))
                .collect(),
        );
        let powers: Vec<Power> = kw.iter().copied().map(Power::from_kilowatts).collect();
        let mut fused =
            BillAccrual::with_events(Arc::clone(&kernel), start, step, &events).unwrap();
        let mut seq =
            BillAccrual::with_events(Arc::clone(&kernel), start, step, &events).unwrap();
        let mut i = 0usize;
        for &c in &chunks {
            if i == powers.len() {
                break;
            }
            let c = c.min(powers.len() - i);
            fused.push_run(&powers[i..i + c]).unwrap();
            for &p in &powers[i..i + c] {
                seq.push_next(p).unwrap();
            }
            i += c;
            prop_assert_eq!(
                fused.finalize().unwrap(),
                seq.finalize().unwrap(),
                "chunk boundary at {} diverged",
                i
            );
        }
        // Drain whatever the chunk list didn't cover, then pin against the
        // batch kernel over the whole stream.
        fused.push_run(&powers[i..]).unwrap();
        let load: PowerSeries = Series::new(start, step, powers).unwrap();
        prop_assert_eq!(
            fused.finalize().unwrap(),
            kernel.bill_with_events(&load, &events).unwrap()
        );
    }

    /// Under identity metering `push_run` takes each month's peak as one
    /// lane max. Its state must serialize to the same bytes as per-sample
    /// `push_next` at every chunk boundary: the JSON form tells −0.0 from
    /// +0.0, which `Bill`'s `PartialEq` does not.
    #[test]
    fn lane_max_snapshots_match_push_next_byte_for_byte(
        (start, step, kw) in stream_strategy(),
        chunks in chunks_strategy(),
    ) {
        let kernel = compile(&max_peak_contract(), Precision::BitExact);
        let powers: Vec<Power> = kw.iter().copied().map(Power::from_kilowatts).collect();
        let mut fused = BillAccrual::new(Arc::clone(&kernel), start, step).unwrap();
        let mut seq = BillAccrual::new(Arc::clone(&kernel), start, step).unwrap();
        let mut i = 0usize;
        for &c in chunks.iter().cycle() {
            if i == powers.len() {
                break;
            }
            let c = c.min(powers.len() - i);
            fused.push_run(&powers[i..i + c]).unwrap();
            for &p in &powers[i..i + c] {
                seq.push_next(p).unwrap();
            }
            i += c;
            prop_assert_eq!(
                serde_json::to_string(&fused.snapshot()).unwrap(),
                serde_json::to_string(&seq.snapshot()).unwrap(),
                "chunk boundary at {} diverged",
                i
            );
        }
    }

    /// The fleet-level half: `advance_window` over arbitrary window
    /// widths ≡ `advance_tick` per tick, bills compared bit-identically at
    /// every window boundary and pinned against solo per-sample accruals
    /// at the end — across shard counts.
    #[test]
    fn advance_window_matches_ticks_and_solo_push(
        meters in 1usize..10,
        shards in prop::sample::select(vec![1usize, 2, 5]),
        ticks in 1u64..40,
        widths in prop::collection::vec(1usize..9, 1..20),
    ) {
        let (mut windowed, ids_w) = fleet_of(meters, shards);
        let (mut ticked, ids_t) = fleet_of(meters, shards);
        prop_assert_eq!(&ids_w, &ids_t);
        let ids: Arc<[MeterId]> = ids_w.clone().into();

        let mut t = 0u64;
        let mut wi = 0usize;
        while t < ticks {
            let w = (widths[wi % widths.len()] as u64).min(ticks - t);
            wi += 1;
            let frames: Vec<TickFrame> =
                (t..t + w).map(|tick| frame_at(&ids, tick)).collect();
            let report = windowed.advance_window(&frames).unwrap();
            prop_assert_eq!(report.applied, meters * w as usize);
            for tick in t..t + w {
                ticked.advance_tick(&batch_at(&ids_t, tick)).unwrap();
            }
            t += w;
            prop_assert_eq!(
                windowed.finalize_all().unwrap(),
                ticked.finalize_all().unwrap(),
                "window boundary at tick {} diverged",
                t
            );
        }

        // Pin against solo accruals fed one push_next per sample.
        let shapes = [rich_contract(), flat_contract()];
        for (i, id) in ids.iter().enumerate() {
            let kernel = compile(&shapes[i % shapes.len()], Precision::BitExact);
            let mut solo =
                BillAccrual::new(kernel, SimTime::EPOCH, Duration::from_minutes(15.0)).unwrap();
            for tick in 0..ticks {
                solo.push_next(mw(id.0, tick)).unwrap();
            }
            prop_assert_eq!(
                windowed.finalize(*id).unwrap(),
                solo.finalize().unwrap(),
                "meter {} diverged from solo stream",
                id
            );
        }
    }

    /// Fast mode: fused runs under a `Precision::Fast` kernel stay within
    /// the documented 1e-12 of the bit-exact batch bill.
    #[test]
    fn fast_mode_fused_runs_stay_within_tolerance(
        (start, step, kw) in import_stream_strategy(),
        chunks in chunks_strategy(),
    ) {
        let fast_kernel = compile(&rich_contract(), Precision::Fast);
        let exact_kernel = compile(&rich_contract(), Precision::BitExact);
        let powers: Vec<Power> = kw.iter().copied().map(Power::from_kilowatts).collect();
        let mut fused = BillAccrual::new(Arc::clone(&fast_kernel), start, step).unwrap();
        let mut i = 0usize;
        for &c in &chunks {
            if i == powers.len() {
                break;
            }
            let c = c.min(powers.len() - i);
            fused.push_run(&powers[i..i + c]).unwrap();
            i += c;
        }
        fused.push_run(&powers[i..]).unwrap();
        let load: PowerSeries = Series::new(start, step, powers).unwrap();
        assert_bills_close(
            &exact_kernel.bill(&load).unwrap(),
            &fused.finalize().unwrap(),
        )?;
    }
}

/// A meter that panics mid-window is quarantined, the rest of *its*
/// window is dropped, and every other meter folds its full window —
/// matching the per-tick fleet's degradation bit for bit.
#[test]
fn panic_mid_window_quarantines_one_meter_only() {
    const METERS: usize = 6;
    const W: usize = 8;
    let (mut windowed, ids_vec) = fleet_of(METERS, 2);
    let (mut ticked, ids_t) = fleet_of(METERS, 2);
    let ids: Arc<[MeterId]> = ids_vec.into();

    // A clean warm-up window, so the plan exists and some state accrues.
    let warmup: Vec<TickFrame> = (0..W as u64).map(|t| frame_at(&ids, t)).collect();
    windowed.advance_window(&warmup).unwrap();
    for t in 0..W as u64 {
        ticked.advance_tick(&batch_at(&ids_t, t)).unwrap();
    }

    let victim = ids[3];
    windowed.chaos_poison_meter(victim).unwrap();
    ticked.chaos_poison_meter(victim).unwrap();

    let frames: Vec<TickFrame> = (W as u64..2 * W as u64)
        .map(|t| frame_at(&ids, t))
        .collect();
    let report = windowed.advance_window(&frames).unwrap();
    assert_eq!(report.samples, METERS * W);
    assert_eq!(report.applied, (METERS - 1) * W);
    assert_eq!(report.dropped, W);
    assert_eq!(report.newly_quarantined.len(), 1);
    assert_eq!(report.newly_quarantined[0].0, victim);
    assert!(report.newly_quarantined[0]
        .1
        .contains("injected meter panic"));
    assert!(windowed.is_quarantined(victim));
    assert!(matches!(
        windowed.finalize(victim),
        Err(CoreError::Quarantined(_))
    ));

    // The per-tick fleet degrades the same way over the same ticks...
    for t in W as u64..2 * W as u64 {
        ticked.advance_tick(&batch_at(&ids_t, t)).unwrap();
    }
    // ...so the healthy meters' books agree exactly.
    assert_eq!(
        windowed.finalize_all().unwrap(),
        ticked.finalize_all().unwrap()
    );

    // Steady-state quarantine: the rebuilt plan drops the victim without
    // probing, and the next window reports it.
    let frames: Vec<TickFrame> = (2 * W as u64..3 * W as u64)
        .map(|t| frame_at(&ids, t))
        .collect();
    let report = windowed.advance_window(&frames).unwrap();
    assert_eq!(report.applied, (METERS - 1) * W);
    assert_eq!(report.dropped, W);
    assert!(report.newly_quarantined.is_empty());
}

/// `apply_delta` between windows invalidates the cached scatter plan;
/// the rebuilt plan routes the moved meter to its new shard and bills
/// stay bit-identical to the per-tick fleet under the same delta.
#[test]
fn apply_delta_invalidates_plan_and_bills_agree() {
    const METERS: usize = 6;
    const W: u64 = 8;
    let (mut windowed, ids_vec) = fleet_of(METERS, 2);
    let (mut ticked, ids_t) = fleet_of(METERS, 2);
    let ids: Arc<[MeterId]> = ids_vec.into();

    let frames: Vec<TickFrame> = (0..W).map(|t| frame_at(&ids, t)).collect();
    windowed.advance_window(&frames).unwrap();
    windowed.advance_window(&frames2(&ids, W, 2 * W)).unwrap();
    for t in 0..2 * W {
        ticked.advance_tick(&batch_at(&ids_t, t)).unwrap();
    }
    // Second window reused the plan.
    let stats = windowed.stats();
    assert_eq!((stats.plan_builds, stats.plan_hits), (1, 1));

    // Move one meter to a revised contract (fee change → new fingerprint
    // → re-shard). The cached plan is now stale.
    let delta = ContractDelta::SetMonthlyFee(Money::from_dollars(1_250.0));
    windowed.apply_delta(ids[2], &delta).unwrap();
    ticked.apply_delta(ids_t[2], &delta).unwrap();

    windowed
        .advance_window(&frames2(&ids, 2 * W, 3 * W))
        .unwrap();
    for t in 2 * W..3 * W {
        ticked.advance_tick(&batch_at(&ids_t, t)).unwrap();
    }
    let stats = windowed.stats();
    assert_eq!(stats.plan_builds, 2, "delta must force a plan rebuild");
    assert_eq!(
        windowed.finalize_all().unwrap(),
        ticked.finalize_all().unwrap()
    );
}

fn frames2(ids: &Arc<[MeterId]>, from: u64, to: u64) -> Vec<TickFrame> {
    (from..to).map(|t| frame_at(ids, t)).collect()
}

/// Duplicate meter ids in a frame disqualify per-meter fusion (it would
/// reorder the duplicates); the window degrades to per-frame folds and
/// bills exactly like the equivalent per-tick sequence.
#[test]
fn duplicate_meters_in_frame_degrade_without_divergence() {
    let (mut windowed, ids) = fleet_of(3, 2);
    let (mut ticked, _) = fleet_of(3, 2);
    let dup_ids: Arc<[MeterId]> = vec![ids[0], ids[1], ids[0], ids[2]].into();
    let frames: Vec<TickFrame> = (0..6u64)
        .map(|t| {
            let powers = dup_ids
                .iter()
                .enumerate()
                .map(|(pos, _)| Power::from_megawatts(1.0 + pos as f64 + t as f64 * 0.1))
                .collect();
            TickFrame::new(Arc::clone(&dup_ids), powers).unwrap()
        })
        .collect();
    let report = windowed.advance_window(&frames).unwrap();
    assert_eq!(report.applied, 4 * 6);
    for f in &frames {
        let samples: Vec<Sample> = f
            .meters()
            .iter()
            .zip(f.powers())
            .map(|(&meter, &power)| Sample { meter, power })
            .collect();
        ticked.advance_tick(&samples).unwrap();
    }
    assert_eq!(
        windowed.finalize_all().unwrap(),
        ticked.finalize_all().unwrap()
    );
}

/// Frame construction and plan resolution reject malformed input with
/// typed errors: mismatched lanes, unknown meters (a rejected tick applies
/// none of its samples), and a run past the horizon applies the fitting
/// prefix before erroring (per-sample error equivalence).
#[test]
fn malformed_frames_and_horizon_overruns_error_like_per_sample() {
    let (mut fleet, ids) = fleet_of(2, 1);
    let lane: Arc<[MeterId]> = ids.clone().into();
    assert!(TickFrame::new(Arc::clone(&lane), vec![Power::from_megawatts(1.0)]).is_err());
    let stranger: Arc<[MeterId]> = vec![MeterId(99)].into();
    let frame = TickFrame::new(stranger, vec![Power::from_megawatts(1.0)]).unwrap();
    assert!(fleet.advance_frame(&frame).is_err());

    // A tick naming an unknown meter after a known one is rejected whole:
    // the next tick applies exactly its own samples, and the books match a
    // fleet that never saw the rejected tick.
    let sample = |meter: MeterId| Sample {
        meter,
        power: Power::from_megawatts(5.0),
    };
    assert!(fleet
        .advance_tick(&[sample(ids[0]), sample(MeterId(99))])
        .is_err());
    let tick = [sample(ids[0]), sample(ids[1])];
    let report = fleet.advance_tick(&tick).unwrap();
    assert_eq!((report.samples, report.applied), (2, 2));
    let (mut clean, _) = fleet_of(2, 1);
    clean.advance_tick(&tick).unwrap();
    assert_eq!(fleet.finalize_all().unwrap(), clean.finalize_all().unwrap());

    // push_run past the horizon: the fitting prefix applies, then the
    // exact error push_next would have returned for the first overrun.
    let kernel = compile(&flat_contract(), Precision::BitExact);
    let step = Duration::from_hours(1.0);
    let start = SimTime::from_days(HORIZON_DAYS) - Duration::from_hours(3.0);
    let mut fused = BillAccrual::new(Arc::clone(&kernel), start, step).unwrap();
    let mut seq = BillAccrual::new(Arc::clone(&kernel), start, step).unwrap();
    let powers = vec![Power::from_megawatts(5.0); 5];
    let fused_err = fused.push_run(&powers).unwrap_err();
    let seq_err = loop {
        if let Err(e) = seq.push_next(Power::from_megawatts(5.0)) {
            break e;
        }
    };
    assert_eq!(fused_err.to_string(), seq_err.to_string());
    assert_eq!(fused.samples(), 3);
    assert_eq!(fused.finalize().unwrap(), seq.finalize().unwrap());
}

/// One step of an out-of-step fleet drive.
#[derive(Debug, Clone)]
enum Step {
    /// Advance by frames carrying a seeded subset of the meters in a
    /// seeded order: one `advance_frame` (width 1), an `advance_window`
    /// of that many frames sharing one id lane, or AoS `advance_tick`s.
    Frames { seed: u64, width: usize, aos: bool },
    /// Snapshot one meter for a later restore.
    Snapshot { meter: usize },
    /// Restore one meter from its most recent snapshot.
    Restore { meter: usize },
    /// Checkpoint the whole fleet.
    Checkpoint,
    /// Restore the whole fleet from its most recent checkpoint.
    RestoreCheckpoint,
    /// Move one meter to a revised contract.
    Delta { meter: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..11, 0u64..u64::MAX, 1usize..5, 0usize..8).prop_map(
        |(kind, seed, width, meter)| match kind {
            0..=5 => Step::Frames {
                seed,
                width,
                aos: seed.is_multiple_of(5),
            },
            6 => Step::Snapshot { meter },
            7 => Step::Restore { meter },
            8 => Step::Checkpoint,
            9 => Step::RestoreCheckpoint,
            _ => Step::Delta { meter },
        },
    )
}

/// A small deterministic generator for frame subsets and orders.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// A seeded subset of `0..n` (each meter kept with probability 3/4) in a
/// seeded order.
fn subset(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut picked: Vec<usize> = (0..n)
        .filter(|_| !lcg(&mut state).is_multiple_of(4))
        .collect();
    for i in (1..picked.len()).rev() {
        let j = (lcg(&mut state) % (i as u64 + 1)) as usize;
        picked.swap(i, j);
    }
    picked
}

/// The solo model of one fleet meter: a `BillAccrual` fed exactly the
/// samples the fleet applied to that meter, in the same order.
struct Solo {
    acc: BillAccrual,
    /// Samples fed so far — the power of the next one depends on it.
    fed: u64,
}

/// Drive a fleet and its solo models through `steps`, comparing every
/// meter's bill and snapshot bytes with its model at the end.
fn drive_out_of_step(
    fleet: &mut MeterFleet,
    ids: &[MeterId],
    solos: &mut [Solo],
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let n = ids.len();
    let mut snaps: Vec<Option<(hpcgrid_core::accrual::AccrualSnapshot, u64)>> = vec![None; n];
    let mut ckpt: Option<(hpcgrid_core::checkpoint::FleetCheckpoint, Vec<u64>)> = None;
    let power = |m: usize, k: u64| mw(m, k * 3 + m as u64);
    for step in steps {
        match step {
            Step::Frames { seed, width, aos } => {
                let picked = subset(*seed, n);
                let lane: Arc<[MeterId]> = picked.iter().map(|&m| ids[m]).collect();
                let frames: Vec<TickFrame> = (0..*width as u64)
                    .map(|j| {
                        let powers = picked.iter().map(|&m| power(m, solos[m].fed + j)).collect();
                        TickFrame::new(Arc::clone(&lane), powers).unwrap()
                    })
                    .collect();
                let report = if *aos {
                    let mut total = 0;
                    for f in &frames {
                        let samples: Vec<Sample> = f
                            .meters()
                            .iter()
                            .zip(f.powers())
                            .map(|(&meter, &power)| Sample { meter, power })
                            .collect();
                        total += fleet.advance_tick(&samples).unwrap().applied;
                    }
                    total
                } else {
                    fleet.advance_window(&frames).unwrap().applied
                };
                prop_assert_eq!(report, picked.len() * width);
                for &m in &picked {
                    for j in 0..*width as u64 {
                        let p = power(m, solos[m].fed + j);
                        solos[m].acc.push_next(p).unwrap();
                    }
                    solos[m].fed += *width as u64;
                }
            }
            Step::Snapshot { meter } => {
                let m = meter % n;
                let snap = fleet.snapshot(ids[m]).unwrap();
                prop_assert_eq!(
                    serde_json::to_string(&snap).unwrap(),
                    serde_json::to_string(&solos[m].acc.snapshot()).unwrap()
                );
                snaps[m] = Some((snap, solos[m].fed));
            }
            Step::Restore { meter } => {
                let m = meter % n;
                if let Some((snap, fed)) = &snaps[m] {
                    fleet.restore(ids[m], snap).unwrap();
                    let kernel = Arc::clone(solos[m].acc.kernel());
                    solos[m].acc = BillAccrual::restore(kernel, snap).unwrap();
                    solos[m].fed = *fed;
                }
            }
            Step::Checkpoint => {
                let c = hpcgrid_core::checkpoint::FleetCheckpoint {
                    generation: 0,
                    ticks: fleet.stats().ticks,
                    meters: fleet.snapshot_all(),
                };
                ckpt = Some((c, solos.iter().map(|s| s.fed).collect()));
            }
            Step::RestoreCheckpoint => {
                if let Some((c, fed)) = &ckpt {
                    prop_assert_eq!(fleet.restore_checkpoint(c).unwrap(), n);
                    for (id, snap) in &c.meters {
                        let m = *id as usize;
                        let kernel = Arc::clone(solos[m].acc.kernel());
                        solos[m].acc = BillAccrual::restore(kernel, snap).unwrap();
                        solos[m].fed = fed[m];
                    }
                }
            }
            Step::Delta { meter } => {
                let m = meter % n;
                let fee = Money::from_dollars(100.0 + m as f64);
                let delta = ContractDelta::SetMonthlyFee(fee);
                fleet.apply_delta(ids[m], &delta).unwrap();
                let patched = Arc::new(solos[m].acc.kernel().patch(&delta).unwrap());
                solos[m].acc.rebind(patched).unwrap();
                // Snapshots and checkpoints taken before the move name the
                // old kernel; drop them, as a driver would.
                snaps[m] = None;
                ckpt = None;
            }
        }
    }
    for (m, id) in ids.iter().enumerate() {
        if solos[m].fed == 0 {
            continue;
        }
        prop_assert_eq!(
            fleet.finalize(*id).unwrap(),
            solos[m].acc.finalize().unwrap(),
            "meter {} diverged from its solo stream",
            m
        );
        prop_assert_eq!(
            serde_json::to_string(&fleet.snapshot(*id).unwrap()).unwrap(),
            serde_json::to_string(&solos[m].acc.snapshot()).unwrap(),
            "meter {} snapshot bytes diverged",
            m
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Meters out of step with their shard-mates — absent from frames,
    /// fed in shuffled orders, registered at different starts and steps
    /// under one contract, restored alone or with the whole fleet to an
    /// earlier point, moved by a delta — each bill and snapshot exactly
    /// like a solo accrual fed the same subsequence of samples.
    #[test]
    fn out_of_step_meters_bill_like_solo_streams(
        geometry in prop::collection::vec(
            (0usize..3, prop::sample::select(vec![900u64, 3_600])),
            2..8,
        ),
        shards in prop::sample::select(vec![1usize, 2, 5]),
        steps in prop::collection::vec(step_strategy(), 1..24),
    ) {
        let kernels = [
            compile(&rich_contract(), Precision::BitExact),
            compile(&flat_contract(), Precision::BitExact),
        ];
        let mut fleet = MeterFleet::with_shards(
            Calendar::default(),
            SimTime::EPOCH,
            SimTime::from_days(HORIZON_DAYS),
            shards,
        );
        let starts = [
            SimTime::EPOCH,
            SimTime::from_secs(7_200),
            // Half a day before the first billing-month boundary.
            SimTime::from_days(31) - Duration::from_hours(12.0),
        ];
        let mut ids = Vec::new();
        let mut solos = Vec::new();
        for (i, &(s, step)) in geometry.iter().enumerate() {
            let kernel = &kernels[i % kernels.len()];
            let (start, step) = (starts[s], Duration::from_secs(step));
            ids.push(fleet.register_compiled(Arc::clone(kernel), start, step).unwrap());
            solos.push(Solo {
                acc: BillAccrual::new(Arc::clone(kernel), start, step).unwrap(),
                fed: 0,
            });
        }
        drive_out_of_step(&mut fleet, &ids, &mut solos, &steps)?;
    }

    /// A whole-fleet `restore_checkpoint` back to a tick where every meter
    /// was in step, followed by one full frame, bills like the solo
    /// streams — however far out of step the meters drifted in between —
    /// and leaves one cohort per shard.
    #[test]
    fn whole_fleet_restore_rejoins_meters(
        meters in 2usize..9,
        shards in prop::sample::select(vec![1usize, 2, 5]),
        warmup in 1usize..6,
        drift in prop::collection::vec(step_strategy(), 0..12),
    ) {
        let (mut fleet, ids) = fleet_of(meters, shards);
        let shapes = [rich_contract(), flat_contract()];
        let mut solos: Vec<Solo> = (0..meters)
            .map(|i| Solo {
                acc: BillAccrual::new(
                    compile(&shapes[i % shapes.len()], Precision::BitExact),
                    SimTime::EPOCH,
                    Duration::from_minutes(15.0),
                )
                .unwrap(),
                fed: 0,
            })
            .collect();
        // In step up to the checkpoint: full frames only.
        let full: Arc<[MeterId]> = ids.clone().into();
        for _ in 0..warmup {
            let powers = (0..meters).map(|m| mw(m, solos[m].fed * 3 + m as u64)).collect();
            fleet.advance_frame(&TickFrame::new(Arc::clone(&full), powers).unwrap()).unwrap();
            for (m, solo) in solos.iter_mut().enumerate() {
                solo.acc.push_next(mw(m, solo.fed * 3 + m as u64)).unwrap();
                solo.fed += 1;
            }
        }
        let drift: Vec<Step> = drift
            .into_iter()
            .filter(|s| !matches!(s, Step::Delta { .. } | Step::Checkpoint | Step::RestoreCheckpoint))
            .collect();
        let mut plan = vec![Step::Checkpoint];
        plan.extend(drift);
        plan.push(Step::RestoreCheckpoint);
        drive_out_of_step(&mut fleet, &ids, &mut solos, &plan)?;
        // One full frame after the restore.
        let powers = (0..meters).map(|m| mw(m, solos[m].fed * 3 + m as u64)).collect();
        fleet.advance_frame(&TickFrame::new(Arc::clone(&full), powers).unwrap()).unwrap();
        for (m, solo) in solos.iter_mut().enumerate() {
            solo.acc.push_next(mw(m, solo.fed * 3 + m as u64)).unwrap();
            solo.fed += 1;
        }
        // Every meter is back in step, so each shard folds one cohort.
        let stats = fleet.stats();
        prop_assert_eq!(stats.cohorts, stats.shards);
        drive_out_of_step(&mut fleet, &ids, &mut solos, &[])?;
    }
}
