//! Golden `AccrualSnapshot` bytes: the serde form of a streaming meter's
//! checkpoint is a persisted format (checkpoint rings hold it), so its
//! bytes are pinned by committed files under `tests/golden/`.
//!
//! One stream per accrual shape — TOU strip, block tariff, top-k demand on
//! a coarse metering interval, a powerband corridor, emergency event
//! windows, and a stream spliced by `rebind_at` — is rebuilt
//! deterministically and snapshotted mid-stream. Each snapshot must match
//! its file byte for byte; the file must decode, restore and re-encode to
//! the same bytes; and the restored meter, fed the rest of the stream,
//! must finalize to the bill recorded next to it.
//!
//! To regenerate after a deliberate format change (which should also bump
//! a version and keep the old files as rejection tests), run
//! `cargo test -p hpcgrid-core --test accrual_golden -- --ignored`.

use hpcgrid_core::accrual::{AccrualSnapshot, BillAccrual};
use hpcgrid_core::billing::{Bill, Precision};
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::{DemandBasis, DemandCharge};
use hpcgrid_core::emergency::EmergencyDrClause;
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{BlockStep, BlockTariff, Tariff};
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_units::{Calendar, DemandPrice, Duration, EnergyPrice, Money, Power, SimTime};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;

const HORIZON_DAYS: u64 = 60;

/// One golden stream: a kernel, its geometry and events, the samples fed
/// before the snapshot, and the samples fed after it.
struct Stream {
    name: &'static str,
    kernel: Arc<CompiledContract>,
    start: SimTime,
    step: Duration,
    events: IntervalSet,
    before: Vec<Power>,
    after: Vec<Power>,
    /// A revision spliced in by `rebind_at` after this many samples of
    /// `before`.
    rebind: Option<(usize, Arc<CompiledContract>)>,
}

fn compile(contract: &Contract) -> Arc<CompiledContract> {
    Arc::new(
        CompiledContract::compile(
            &Calendar::default(),
            contract,
            SimTime::EPOCH,
            SimTime::from_days(HORIZON_DAYS),
        )
        .unwrap()
        .with_precision(Precision::BitExact),
    )
}

/// A deterministic load with a diurnal swing, exact zeros and an export
/// dip, so every accumulator sees a mix of signs and magnitudes.
fn load(n: usize, base_kw: f64, salt: u64) -> Vec<Power> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt) % 1_000;
            let kw = match x % 17 {
                0 => 0.0,
                1 => -0.25 * base_kw,
                _ => base_kw * (0.6 + x as f64 / 1_250.0),
            };
            Power::from_kilowatts(kw)
        })
        .collect()
}

fn streams() -> Vec<Stream> {
    let q = Duration::from_minutes(15.0);
    let tou = compile(
        &Contract::builder("golden-tou")
            .tariff(Tariff::day_night(
                EnergyPrice::per_kilowatt_hour(0.13),
                EnergyPrice::per_kilowatt_hour(0.05),
            ))
            .build()
            .unwrap(),
    );
    let block = compile(
        &Contract::builder("golden-block")
            .tariff(Tariff::Block(BlockTariff {
                blocks: vec![
                    BlockStep {
                        up_to_kwh: Some(150_000.0),
                        price: EnergyPrice::per_kilowatt_hour(0.11),
                    },
                    BlockStep {
                        up_to_kwh: None,
                        price: EnergyPrice::per_kilowatt_hour(0.07),
                    },
                ],
            }))
            .monthly_fee(Money::from_dollars(250.0))
            .build()
            .unwrap(),
    );
    let topk = compile(
        &Contract::builder("golden-topk")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.06)))
            .demand_charge(DemandCharge {
                price: DemandPrice::per_kilowatt_month(13.0),
                demand_interval: Duration::from_hours(1.0),
                basis: DemandBasis::TopKAverage(3),
                floor: Some(Power::from_kilowatts(800.0)),
            })
            .build()
            .unwrap(),
    );
    let band = compile(
        &Contract::builder("golden-band")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.08)))
            .powerband(Powerband::symmetric(
                Power::from_kilowatts(2_000.0),
                Power::from_kilowatts(600.0),
                EnergyPrice::per_kilowatt_hour(0.3),
            ))
            .build()
            .unwrap(),
    );
    let emergency = compile(
        &Contract::builder("golden-emergency")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.09)))
            .emergency(EmergencyDrClause::reference(Power::from_kilowatts(2_200.0)))
            .build()
            .unwrap(),
    );
    let revised = compile(
        &Contract::builder("golden-tou")
            .tariff(Tariff::day_night(
                EnergyPrice::per_kilowatt_hour(0.15),
                EnergyPrice::per_kilowatt_hour(0.04),
            ))
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(9.0)))
            .build()
            .unwrap(),
    );
    let windows = IntervalSet::from_intervals(vec![
        Interval::from_duration(SimTime::from_hours(30.0), Duration::from_hours(3.0)),
        Interval::from_duration(
            SimTime::from_hours(50.0) + Duration::from_minutes(10.0),
            Duration::from_hours(2.0),
        ),
        Interval::from_duration(SimTime::from_hours(90.0), Duration::from_hours(1.0)),
    ]);
    // The first billing-month boundary: streams starting shortly before it
    // close a month of block, demand and fee state inside the stream.
    let month_end = SimTime::from_days(31);
    vec![
        Stream {
            name: "tou_strip",
            kernel: tou,
            start: SimTime::from_hours(5.0),
            step: q,
            events: IntervalSet::empty(),
            before: load(150, 1_800.0, 1),
            after: load(90, 1_700.0, 2),
            rebind: None,
        },
        Stream {
            name: "block_tariff",
            kernel: block,
            start: month_end - Duration::from_hours(30.0),
            step: q,
            events: IntervalSet::empty(),
            before: load(200, 2_500.0, 3),
            after: load(120, 2_400.0, 4),
            rebind: None,
        },
        Stream {
            name: "topk_demand_hourly",
            kernel: topk,
            start: month_end - Duration::from_hours(20.0),
            step: q,
            events: IntervalSet::empty(),
            // 111 samples: a month closes and the snapshot lands mid-chunk.
            before: load(111, 1_500.0, 5),
            after: load(73, 1_600.0, 6),
            rebind: None,
        },
        Stream {
            name: "powerband_corridor",
            kernel: band,
            start: SimTime::from_hours(2.0),
            step: q,
            events: IntervalSet::empty(),
            before: load(130, 2_000.0, 7),
            after: load(60, 2_100.0, 8),
            rebind: None,
        },
        Stream {
            name: "emergency_windows",
            kernel: emergency,
            start: SimTime::from_hours(24.0),
            step: q,
            events: windows,
            before: load(120, 2_000.0, 9),
            after: load(200, 2_050.0, 10),
            rebind: None,
        },
        Stream {
            name: "after_rebind_at",
            kernel: compile(
                &Contract::builder("golden-tou")
                    .tariff(Tariff::day_night(
                        EnergyPrice::per_kilowatt_hour(0.13),
                        EnergyPrice::per_kilowatt_hour(0.05),
                    ))
                    .build()
                    .unwrap(),
            ),
            start: month_end - Duration::from_hours(12.0),
            step: Duration::from_hours(1.0),
            events: IntervalSet::empty(),
            before: load(40, 1_900.0, 11),
            after: load(30, 2_000.0, 12),
            rebind: Some((16, revised)),
        },
    ]
}

/// Feed `powers` one sample at a time (the fleet's tick shape).
fn feed(acc: &mut BillAccrual, powers: &[Power]) {
    for &p in powers {
        acc.push_next(p).unwrap();
    }
}

/// The live meter at the snapshot point.
fn run_before(s: &Stream) -> BillAccrual {
    let mut acc =
        BillAccrual::with_events(Arc::clone(&s.kernel), s.start, s.step, &s.events).unwrap();
    match &s.rebind {
        None => feed(&mut acc, &s.before),
        Some((at, kernel)) => {
            feed(&mut acc, &s.before[..*at]);
            let t = acc.expected_next();
            acc.rebind_at(Arc::clone(kernel), t).unwrap();
            feed(&mut acc, &s.before[*at..]);
        }
    }
    acc
}

/// The kernel the stream bills under at the snapshot point.
fn live_kernel(s: &Stream) -> Arc<CompiledContract> {
    match &s.rebind {
        None => Arc::clone(&s.kernel),
        Some((_, k)) => Arc::clone(k),
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn snapshot_path(name: &str) -> PathBuf {
    golden_dir().join(format!("accrual_{name}.snapshot.json"))
}

fn bill_path(name: &str) -> PathBuf {
    golden_dir().join(format!("accrual_{name}.bill.json"))
}

fn encode(snap: &AccrualSnapshot) -> String {
    serde_json::to_string_pretty(snap).unwrap() + "\n"
}

fn encode_bill(bill: &Bill) -> String {
    serde_json::to_string_pretty(bill).unwrap() + "\n"
}

#[test]
fn accrual_snapshots_match_golden_bytes() {
    for s in streams() {
        let acc = run_before(&s);
        let golden = std::fs::read_to_string(snapshot_path(s.name))
            .unwrap_or_else(|e| panic!("{}: {e}", snapshot_path(s.name).display()));
        assert_eq!(
            encode(&acc.snapshot()),
            golden,
            "{}: snapshot bytes",
            s.name
        );

        // Decode, restore, re-encode: byte for byte.
        let decoded: AccrualSnapshot = serde_json::from_str(&golden).unwrap();
        assert_eq!(encode(&decoded), golden, "{}: serde round trip", s.name);
        let mut restored = BillAccrual::restore(live_kernel(&s), &decoded).unwrap();
        assert_eq!(
            encode(&restored.snapshot()),
            golden,
            "{}: restore round trip",
            s.name
        );

        // The restored meter continues to the recorded bill, as does the
        // meter that never stopped.
        let recorded: Bill =
            serde_json::from_str(&std::fs::read_to_string(bill_path(s.name)).unwrap()).unwrap();
        feed(&mut restored, &s.after);
        assert_eq!(
            restored.finalize().unwrap(),
            recorded,
            "{}: restored",
            s.name
        );
        let mut live = acc;
        live.push_run(&s.after).unwrap();
        assert_eq!(
            live.finalize().unwrap(),
            recorded,
            "{}: uninterrupted",
            s.name
        );
    }
}

/// The streams exercise what their names say: each snapshot carries the
/// state its shape is about.
#[test]
fn golden_streams_cover_their_shapes() {
    fn at<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
        path.iter()
            .try_fold(v, |v, key| match key.parse::<usize>() {
                Ok(i) => v.as_seq()?.get(i),
                Err(_) => v.get(key),
            })
    }
    let len = |v: Option<&Value>| v.and_then(Value::as_seq).map_or(0, <[Value]>::len);
    let positive = |v: Option<&Value>| v.and_then(Value::as_f64).is_some_and(|x| x > 0.0);
    for s in streams() {
        let json: Value = serde_json::from_str(&encode(&run_before(&s).snapshot())).unwrap();
        let covered = match s.name {
            "tou_strip" => positive(at(&json, &["tariffs", "0", "Strip"])),
            "block_tariff" => positive(at(&json, &["tariffs", "0", "Block", "2"])),
            "topk_demand_hourly" => {
                len(at(&json, &["demand", "closed"])) == 1
                    && positive(at(&json, &["demand", "chunk_count"]))
                    && len(at(&json, &["demand", "peak", "TopK"])) == 3
            }
            "powerband_corridor" => {
                positive(at(&json, &["band", "over_kwh"]))
                    && positive(at(&json, &["band", "under_kwh"]))
            }
            "emergency_windows" => {
                len(at(&json, &["windows"])) == 3 && positive(at(&json, &["windows", "0", "worst"]))
            }
            "after_rebind_at" => len(at(&json, &["closed_slices"])) == 1,
            other => panic!("unknown golden stream {other}"),
        };
        assert!(covered, "{}: snapshot does not cover its shape", s.name);
    }
}

/// Rewrites the golden files from the current library.
#[test]
#[ignore = "regenerates the committed golden files"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden_dir()).unwrap();
    for s in streams() {
        let mut acc = run_before(&s);
        std::fs::write(snapshot_path(s.name), encode(&acc.snapshot())).unwrap();
        feed(&mut acc, &s.after);
        std::fs::write(bill_path(s.name), encode_bill(&acc.finalize().unwrap())).unwrap();
    }
}
