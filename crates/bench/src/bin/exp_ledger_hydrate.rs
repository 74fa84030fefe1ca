//! Experiment X9 (extension) — the ledger-hydration baseline.
//!
//! A contract ledger's whole point is that taking one more revision is
//! cheap: hydrating at revision N+1 when revision N's kernel is cached is a
//! [`CompiledContract::patch`] of one delta, not a recompile of the whole
//! contract over the whole horizon. This experiment measures exactly that
//! edge — each timed iteration *appends a fresh amendment and asks for the
//! new head's kernel* — against the naive path that hydrates the head
//! contract by replay and compiles it from scratch. The workload is the
//! rich sweep contract (four tariffs, demand charge, service fee) over a
//! year horizon, where a full lowering is genuinely expensive and a fee
//! amendment patch is a validated field write.
//!
//! Emits the measured numbers as `BENCH_ledger.json` so the baseline is
//! committed next to the code it describes, and asserts the patch path's
//! release-build speedup floor.

use hpcgrid_bench::table::TextTable;
use hpcgrid_bench::timing::time_ns;
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::ledger::{ContractId, ContractLedger};
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_timeseries::series::{PowerSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, MonthSet, Power, SimTime, TimeOfDay,
};
use std::hint::black_box;

/// A year horizon: the scale at which recompiling per amendment hurts.
const HORIZON_DAYS: u64 = 365;

/// The utility-shaped TOU schedule from the X10 baseline: month- and
/// weekday-filtered windows, so lowering it walks the calendar.
fn tou_schedule() -> Tariff {
    Tariff::TimeOfUse(TouTariff {
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
    })
}

/// The rich contract a long-lived ESP relationship accumulates: fixed
/// rider, utility TOU, day/night TOU, demand charge, service fee.
fn rich_contract() -> Contract {
    Contract::builder("esp-master-agreement")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.015)))
        .tariff(tou_schedule())
        .tariff(Tariff::day_night(
            EnergyPrice::per_kilowatt_hour(0.03),
            EnergyPrice::per_kilowatt_hour(0.012),
        ))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .monthly_fee(Money::from_dollars(750.0))
        .build()
        .unwrap()
}

/// One day of 15-minute samples for the correctness gate's bills.
fn day_load() -> PowerSeries {
    Series::from_fn(
        SimTime::from_days(30),
        Duration::from_minutes(15.0),
        96,
        |t| {
            let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
            Power::from_megawatts(
                8.0 * (1.0 + 0.3 * ((h - 14.0) / 24.0 * std::f64::consts::TAU).cos()),
            )
        },
    )
    .unwrap()
}

/// A fresh ledger holding one stream of the rich contract.
fn fresh_stream() -> (ContractLedger, ContractId) {
    let mut ledger = ContractLedger::new(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(HORIZON_DAYS),
    );
    let id = ledger
        .create(rich_contract(), "created", SimTime::EPOCH)
        .expect("stream created");
    (ledger, id)
}

fn main() {
    println!("== X9: ledger hydration at head — patch cache vs fresh compile ==\n");
    const TRIALS: usize = 3;
    const ITERS: usize = 20;

    // Correctness gate first: a patch-cached head kernel bills
    // bit-identically to a fresh compile of the hydrated head contract.
    let load = day_load();
    {
        let (mut ledger, id) = fresh_stream();
        ledger
            .append(
                id,
                ContractDelta::SetMonthlyFee(Money::from_dollars(800.0)),
                "gate-amendment",
                SimTime::from_days(30),
            )
            .expect("amendment appended");
        let head = ledger.head(id).expect("head revision");
        let cached = ledger.kernel_at(id, head).expect("patch-cached kernel");
        let (start, end) = ledger.horizon();
        let fresh = CompiledContract::compile(
            ledger.calendar(),
            &ledger.hydrate_at(id, head).expect("hydrated head"),
            start,
            end,
        )
        .expect("fresh compile");
        assert_eq!(
            cached.bill(&load).expect("cached bill"),
            fresh.bill(&load).expect("fresh bill"),
            "patch-cached hydration must be bit-identical to a fresh compile"
        );
        println!("bit-identity: kernel_at(head) == compile(hydrate_at(head)) ✓\n");
    }

    // The patch path: every iteration appends a new fee amendment (a new
    // revision with a new fingerprint) and hydrates the new head's kernel.
    // Revision N's kernel is in the cache from the previous iteration, so
    // each hydration is exactly one `CompiledContract::patch`.
    let (mut ledger, id) = fresh_stream();
    let mut seq = 0u64;
    let patch_ns = time_ns(TRIALS, ITERS, || {
        seq += 1;
        ledger
            .append(
                id,
                ContractDelta::SetMonthlyFee(Money::from_dollars(750.0 + seq as f64)),
                &format!("amend-{seq}"),
                SimTime::from_days(30),
            )
            .expect("amendment appended");
        let head = ledger.head(id).expect("head revision");
        black_box(ledger.kernel_at(id, head).expect("patch-cached kernel"));
    });
    let revisions_taken = seq;

    // The naive path: same appends, but hydrate the head by replay and
    // compile the whole contract over the whole horizon from scratch.
    let (mut naive, naive_id) = fresh_stream();
    let mut naive_seq = 0u64;
    let compile_ns = time_ns(TRIALS, ITERS, || {
        naive_seq += 1;
        naive
            .append(
                naive_id,
                ContractDelta::SetMonthlyFee(Money::from_dollars(750.0 + naive_seq as f64)),
                &format!("amend-{naive_seq}"),
                SimTime::from_days(30),
            )
            .expect("amendment appended");
        let head = naive.head(naive_id).expect("head revision");
        let contract = naive.hydrate_at(naive_id, head).expect("hydrated head");
        let (start, end) = naive.horizon();
        black_box(
            CompiledContract::compile(naive.calendar(), &contract, start, end)
                .expect("fresh compile"),
        );
    });
    let speedup = compile_ns / patch_ns;

    let mut t = TextTable::new(vec!["hydration path", "ns/revision", "speedup"]);
    t.row(vec![
        "hydrate_at + fresh compile".to_string(),
        format!("{compile_ns:.0}"),
        "1.00x".to_string(),
    ]);
    t.row(vec![
        "kernel_at (patch cache)".to_string(),
        format!("{patch_ns:.0}"),
        format!("{speedup:.2}x"),
    ]);
    println!("{}", t.render());
    println!(
        "ledger after the timed runs: {} revisions, {} cached kernels\n",
        revisions_taken,
        ledger.kernel_cache().len()
    );

    let json = serde_json::json!({
        "experiment": "ledger_hydrate_baseline",
        "contract": "fixed + 3-window TOU + day/night TOU + demand charge + fee",
        "horizon_days": HORIZON_DAYS,
        "revisions_per_path": revisions_taken,
        "amendment": "SetMonthlyFee (validated field write on the patch path)",
        "fresh_compile_ns_per_revision": compile_ns,
        "patch_hydrate_ns_per_revision": patch_ns,
        "speedup": speedup,
        "optimized_build": cfg!(not(debug_assertions)),
    });
    let out = std::env::var("HPCGRID_BENCH_OUT").unwrap_or_else(|_| "BENCH_ledger.json".into());
    let pretty = serde_json::to_string_pretty(&json).expect("serialize bench baseline");
    std::fs::write(&out, pretty + "\n").expect("write BENCH_ledger.json");
    println!("wrote {out}");

    println!("speedup: patch-cached hydration is {speedup:.1}x faster than fresh compile");
    // The 3x acceptance bar is a release-build claim; unoptimized builds
    // still must show a clear win.
    let floor = if cfg!(debug_assertions) { 1.5 } else { 3.0 };
    assert!(
        speedup >= floor,
        "patch-cached hydration speedup {speedup:.2}x below the {floor}x floor"
    );
    println!("X9 OK");
}
