//! Property tests for the event-sourced contract ledger (DESIGN.md §5,
//! invariant 7): replaying any event prefix — under any idempotent-retry
//! reordering of duplicate appends — hydrates to a bit-identical contract
//! and bill, and as-of billing across an effective date equals billing the
//! pre-/post-event slices separately with their respective hydrated
//! kernels.

use std::sync::Arc;

use hpcgrid_core::accrual::BillAccrual;
use hpcgrid_core::billing::Bill;
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::fleet::{MeterFleet, Sample};
use hpcgrid_core::ledger::{ContractLedger, EventPayload, LedgerEvent};
use hpcgrid_core::tariff::Tariff;
use hpcgrid_core::CoreError;
use hpcgrid_timeseries::series::{PowerSeries, Series};
use hpcgrid_units::{Calendar, DemandPrice, Duration, EnergyPrice, Money, Power, SimTime};
use proptest::prelude::*;

const DAYS: u64 = 8;
const STEP_MIN: f64 = 15.0;
const SAMPLES_PER_DAY: usize = 96;

fn base_contract() -> Contract {
    Contract::builder("ledgered")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.06)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(10.0)))
        .monthly_fee(Money::from_dollars(500.0))
        .build()
        .unwrap()
}

fn ledger() -> ContractLedger {
    ContractLedger::new(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(DAYS),
    )
}

/// A steady-ish load over the full horizon on the 15-minute grid.
fn load(kilowatts: &[f64]) -> PowerSeries {
    Series::new(
        SimTime::EPOCH,
        Duration::from_minutes(STEP_MIN),
        kilowatts
            .iter()
            .copied()
            .map(Power::from_kilowatts)
            .collect(),
    )
    .unwrap()
}

fn load_strategy() -> impl Strategy<Value = PowerSeries> {
    prop::collection::vec(
        0.0f64..20_000.0,
        (DAYS as usize) * SAMPLES_PER_DAY..=(DAYS as usize) * SAMPLES_PER_DAY,
    )
    .prop_map(|kw| load(&kw))
}

/// Fee amendments with distinct cent values, one per day from day 1 on —
/// every event changes the contract fingerprint.
fn fee_events(cents: &[u32]) -> Vec<(ContractDelta, String, SimTime)> {
    cents
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            (
                ContractDelta::SetMonthlyFee(Money::from_dollars(c as f64)),
                format!("amend-{i}"),
                SimTime::from_days(1 + i as u64),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hydrating any revision replays exactly the event prefix: the ledger's
    /// `hydrate_at` equals a manual `Contract::apply` fold, and the kernel it
    /// serves bills bit-identically to a fresh compile of that contract.
    #[test]
    fn prefix_replay_hydrates_bit_identically(
        cents in prop::collection::vec(1u32..2_000, 1..6),
        kw in prop::collection::vec(0.0f64..20_000.0, SAMPLES_PER_DAY..4 * SAMPLES_PER_DAY),
    ) {
        let mut ledger = ledger();
        let id = ledger.create(base_contract(), "created", SimTime::EPOCH).unwrap();
        let mut manual = vec![base_contract()];
        for (delta, key, effective) in fee_events(&cents) {
            let next = manual.last().unwrap().apply(&delta).unwrap();
            manual.push(next);
            ledger.append(id, delta, &key, effective).unwrap();
        }

        let probe = load(&kw);
        for (rev, expected) in manual.iter().enumerate() {
            let hydrated = ledger.hydrate_at(id, rev as u64).unwrap();
            prop_assert_eq!(&hydrated, expected);

            // Same compile path on both sides (ledger cache vs by-hand), so
            // the bills must agree bit for bit.
            let (start, end) = ledger.horizon();
            let fresh = CompiledContract::compile(ledger.calendar(), expected, start, end).unwrap();
            let served = ledger.kernel_at(id, rev as u64).unwrap();
            prop_assert_eq!(served.bill(&probe).unwrap(), fresh.bill(&probe).unwrap());
        }
    }

    /// Duplicate appends are idempotent no-ops wherever they land: a stream
    /// peppered with retries of earlier events is event-for-event identical
    /// to the clean stream, and bills identically as-of any load.
    #[test]
    fn duplicate_appends_are_idempotent_under_retry_reordering(
        cents in prop::collection::vec(1u32..2_000, 2..6),
        retries in prop::collection::vec((0usize..6, 0usize..6), 0..12),
        probe in load_strategy(),
    ) {
        let events = fee_events(&cents);

        let mut clean = ledger();
        let clean_id = clean.create(base_contract(), "created", SimTime::EPOCH).unwrap();
        for (delta, key, effective) in events.clone() {
            clean.append(clean_id, delta, &key, effective).unwrap();
        }

        // The noisy ledger replays the same appends, but after the i-th
        // append it may retry any already-appended event (same key, same
        // payload — a client resending after a lost acknowledgement).
        let mut noisy = ledger();
        let noisy_id = noisy.create(base_contract(), "created", SimTime::EPOCH).unwrap();
        for (i, (delta, key, effective)) in events.iter().cloned().enumerate() {
            noisy.append(noisy_id, delta, &key, effective).unwrap();
            for &(at, which) in &retries {
                if at == i && which <= i {
                    let (d, k, e) = events[which].clone();
                    let outcome = noisy.append(noisy_id, d, &k, e).unwrap();
                    prop_assert!(!outcome.applied, "a retry must be a no-op");
                    prop_assert_eq!(outcome.revision, which as u64 + 1);
                }
            }
        }

        prop_assert_eq!(noisy.events(noisy_id).unwrap(), clean.events(clean_id).unwrap());
        prop_assert_eq!(
            noisy.head_contract(noisy_id).unwrap(),
            clean.head_contract(clean_id).unwrap()
        );
        prop_assert_eq!(
            noisy.bill_as_of(noisy_id, &probe).unwrap(),
            clean.bill_as_of(clean_id, &probe).unwrap()
        );
    }

    /// The acceptance property: billing a horizon containing a mid-horizon
    /// ledger event is bit-identical to billing the pre-/post-event slices
    /// separately with their respective hydrated kernels.
    #[test]
    fn as_of_splice_equals_manual_slice_billing(
        probe in load_strategy(),
        cut_q in 1usize..(DAYS as usize * SAMPLES_PER_DAY),
        new_rate in 1u32..50,
    ) {
        let cut = SimTime::from_secs(cut_q as u64 * (STEP_MIN as u64) * 60);
        let mut ledger = ledger();
        let id = ledger.create(base_contract(), "created", SimTime::EPOCH).unwrap();
        let delta = ContractDelta::ReplaceTariff {
            index: 0,
            tariff: Tariff::fixed(EnergyPrice::per_kilowatt_hour(new_rate as f64 / 100.0)),
        };
        ledger.append(id, delta, "renegotiated", cut).unwrap();

        let asof = ledger.bill_as_of(id, &probe).unwrap();
        prop_assert_eq!(asof.revisions(), vec![0, 1]);

        let (start, end) = ledger.horizon();
        let before = ledger
            .kernel_at(id, 0)
            .unwrap()
            .bill(&probe.slice_time(start, cut))
            .unwrap();
        let after = ledger
            .kernel_at(id, 1)
            .unwrap()
            .bill(&probe.slice_time(cut, end))
            .unwrap();
        prop_assert_eq!(&asof.slices[0].bill, &before);
        prop_assert_eq!(&asof.slices[1].bill, &after);
        prop_assert_eq!(asof.fold(), Bill::fold([&before, &after]).unwrap());
    }

    /// A streamed accrual that takes a ledger event mid-stream via
    /// `rebind_at` — with a snapshot/restore cycle straddling the event —
    /// finalizes bit-identically to folding the manual per-slice batch
    /// bills.
    #[test]
    fn accrual_survives_snapshot_across_a_ledger_event(
        kw in prop::collection::vec(0.0f64..20_000.0, 2 * SAMPLES_PER_DAY..4 * SAMPLES_PER_DAY),
        cut_frac in 0.2f64..0.8,
        snap_off in 1usize..SAMPLES_PER_DAY,
    ) {
        let probe = load(&kw);
        let cut_q = ((kw.len() as f64 * cut_frac) as usize).max(1);
        let cut = SimTime::from_secs(cut_q as u64 * (STEP_MIN as u64) * 60);

        let mut ledger = ledger();
        let id = ledger.create(base_contract(), "created", SimTime::EPOCH).unwrap();
        let delta = ContractDelta::SetMonthlyFee(Money::from_dollars(750.0));
        ledger.append(id, delta, "fee-hike", cut).unwrap();

        // The streamed fold and the manual batch bills must agree exactly,
        // not approximately.
        let (start, end) = ledger.horizon();
        let k0 = Arc::new(
            CompiledContract::compile(ledger.calendar(), &ledger.hydrate_at(id, 0).unwrap(), start, end)
                .unwrap(),
        );
        let k1 = Arc::new(
            CompiledContract::compile(ledger.calendar(), &ledger.hydrate_at(id, 1).unwrap(), start, end)
                .unwrap(),
        );

        let step = Duration::from_minutes(STEP_MIN);
        let mut acc = BillAccrual::new(Arc::clone(&k0), SimTime::EPOCH, step).unwrap();
        for p in probe.values().iter().take(cut_q) {
            acc.push_next(*p).unwrap();
        }
        acc.rebind_at(Arc::clone(&k1), cut).unwrap();

        // Stream a little past the event, checkpoint, restore, and finish
        // on the restored copy.
        let past_event = (cut_q + snap_off).min(kw.len());
        for p in probe.values().iter().skip(cut_q).take(past_event - cut_q) {
            acc.push_next(*p).unwrap();
        }
        let snap = acc.snapshot();
        let mut restored = BillAccrual::restore(Arc::clone(&k1), &snap).unwrap();
        for p in probe.values().iter().skip(past_event) {
            acc.push_next(*p).unwrap();
            restored.push_next(*p).unwrap();
        }

        let manual = Bill::fold([
            &k0.bill(&probe.slice_time(start, cut)).unwrap(),
            &k1.bill(&probe.slice_time(cut, probe.end())).unwrap(),
        ])
        .unwrap();
        prop_assert_eq!(acc.finalize().unwrap(), manual.clone());
        prop_assert_eq!(restored.finalize().unwrap(), manual);
    }
}

#[test]
fn fleet_applies_delta_events_and_rejects_created_events() {
    let mut fleet = MeterFleet::new(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(DAYS),
    );
    let meter = fleet
        .register(
            &base_contract(),
            SimTime::EPOCH,
            Duration::from_minutes(STEP_MIN),
        )
        .unwrap();

    let mut ledger = ledger();
    let id = ledger
        .create(base_contract(), "created", SimTime::EPOCH)
        .unwrap();
    ledger
        .append(
            id,
            ContractDelta::SetMonthlyFee(Money::from_dollars(900.0)),
            "fee-hike",
            SimTime::from_days(2),
        )
        .unwrap();
    let events = ledger.events(id).unwrap().to_vec();

    // The created event describes a stream, not a live meter.
    assert!(matches!(
        fleet.apply_event(meter, &events[0]),
        Err(CoreError::Ledger(_))
    ));
    assert!(matches!(events[0].payload, EventPayload::Created(_)));

    // The delta event re-binds the meter through the patch path.
    fleet.apply_event(meter, &events[1]).unwrap();
    // The meter's bill now reflects the amended fee: a day of zero load
    // bills the new monthly fee, not the old one.
    let samples: Vec<Sample> = (0..SAMPLES_PER_DAY)
        .map(|_| Sample {
            meter,
            power: Power::from_kilowatts(0.0),
        })
        .collect();
    for s in &samples {
        fleet.advance_tick(std::slice::from_ref(s)).unwrap();
    }
    let bill = fleet.finalize(meter).unwrap();
    assert_eq!(bill.total(), Money::from_dollars(900.0));
}

#[test]
fn ledger_event_payload_labels_are_stable() {
    let mut ledger = ledger();
    let id = ledger
        .create(base_contract(), "created", SimTime::EPOCH)
        .unwrap();
    ledger
        .append(
            id,
            ContractDelta::SetMonthlyFee(Money::from_dollars(1.0)),
            "fee",
            SimTime::from_days(1),
        )
        .unwrap();
    let events: &[LedgerEvent] = ledger.events(id).unwrap();
    assert_eq!(events[0].payload.label(), "created");
    assert_eq!(events[1].payload.label(), "set_monthly_fee=1");
}
