//! Golden checkpoint generation: `CheckpointStore` files are how a fleet
//! survives a restart, so one generation's bytes are pinned by a committed
//! file under `tests/golden/checkpoint/`.
//!
//! The fleet is rebuilt deterministically: four meters under two contracts
//! (one with a monthly demand charge), seven ticks of loads that include an
//! exact zero and an export. `CheckpointStore::load_latest` must read the
//! committed generation and return what the rebuilt fleet snapshots; the
//! restored fleet, saved by a fresh store, must reproduce the file byte for
//! byte and bill like a fleet that never stopped.
//!
//! To regenerate after a deliberate format change, run
//! `cargo test -p hpcgrid-core --test checkpoint_golden -- --ignored`.

use hpcgrid_core::checkpoint::CheckpointStore;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::fleet::{MeterFleet, MeterId, Sample};
use hpcgrid_core::tariff::Tariff;
use hpcgrid_units::{Calendar, DemandPrice, Duration, EnergyPrice, Power, SimTime};
use std::path::PathBuf;

const METERS: usize = 4;
const TICKS_BEFORE: u64 = 7;
const TICKS_AFTER: u64 = 5;
const GENERATION: &str = "ckpt-0000000000.json";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("checkpoint")
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hpcgrid-ckpt-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet() -> (MeterFleet, Vec<MeterId>) {
    let flat = Contract::builder("golden-flat")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .build()
        .unwrap();
    let demand = Contract::builder("golden-demand")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.05)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.5)))
        .build()
        .unwrap();
    let mut fleet = MeterFleet::with_shards(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(30),
        2,
    );
    let step = Duration::from_minutes(15.0);
    let ids = (0..METERS)
        .map(|m| {
            let c = if m % 2 == 0 { &flat } else { &demand };
            fleet.register(c, SimTime::EPOCH, step).unwrap()
        })
        .collect();
    (fleet, ids)
}

/// Deterministic per-meter, per-tick load with an exact zero and an export.
fn kw(meter: usize, tick: u64) -> Power {
    Power::from_kilowatts(match (meter as u64 * 3 + tick) % 5 {
        0 => 0.0,
        1 => -125.5,
        x => 800.0 + meter as f64 * 37.25 + x as f64 * 0.1,
    })
}

fn advance(fleet: &mut MeterFleet, ids: &[MeterId], ticks: std::ops::Range<u64>) {
    for t in ticks {
        let samples: Vec<Sample> = ids
            .iter()
            .map(|id| Sample {
                meter: *id,
                power: kw(id.0, t),
            })
            .collect();
        fleet.advance_tick(&samples).unwrap();
    }
}

#[test]
fn golden_checkpoint_loads_restores_and_resaves_byte_for_byte() {
    let golden = std::fs::read(golden_dir().join(GENERATION)).unwrap();
    let dir = scratch("load");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(GENERATION), &golden).unwrap();
    let ckpt = CheckpointStore::open(&dir, 2)
        .unwrap()
        .load_latest()
        .unwrap()
        .expect("the golden generation verifies");
    std::fs::remove_dir_all(&dir).unwrap();

    let (mut live, ids) = fleet();
    advance(&mut live, &ids, 0..TICKS_BEFORE);
    assert_eq!(ckpt.generation, 0);
    assert_eq!(ckpt.ticks, TICKS_BEFORE);
    assert_eq!(ckpt.meters, live.snapshot_all());

    let (mut revived, _) = fleet();
    assert_eq!(revived.restore_checkpoint(&ckpt).unwrap(), METERS);
    let dir = scratch("resave");
    let mut store = CheckpointStore::open(&dir, 2).unwrap();
    assert_eq!(store.save(&revived).unwrap(), 0);
    assert_eq!(std::fs::read(dir.join(GENERATION)).unwrap(), golden);
    std::fs::remove_dir_all(&dir).unwrap();

    let rest = TICKS_BEFORE..TICKS_BEFORE + TICKS_AFTER;
    advance(&mut live, &ids, rest.clone());
    advance(&mut revived, &ids, rest);
    assert_eq!(
        revived.finalize_all().unwrap(),
        live.finalize_all().unwrap()
    );
}

/// Regenerate the golden generation from the fleet above.
#[test]
#[ignore]
fn regenerate_golden_checkpoint() {
    let (mut fleet, ids) = fleet();
    advance(&mut fleet, &ids, 0..TICKS_BEFORE);
    let dir = scratch("regenerate");
    let mut store = CheckpointStore::open(&dir, 1).unwrap();
    store.save(&fleet).unwrap();
    std::fs::create_dir_all(golden_dir()).unwrap();
    std::fs::copy(dir.join(GENERATION), golden_dir().join(GENERATION)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
