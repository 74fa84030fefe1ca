//! Experiment X10 (extension) — the compiled billing kernel baseline.
//!
//! Measures the interpreted `BillingEngine::bill` path against the compiled
//! kernel (`CompiledContract`: segment timelines + month-boundary index) on
//! the acceptance workload — one month of 15-minute samples under a
//! realistic utility TOU schedule (month- and weekday-filtered windows) —
//! plus the same schedule with a monthly demand charge, and batch
//! throughput through `bill_many`. Emits the measured numbers as
//! `BENCH_billing.json` so the baseline is committed next to the code it
//! describes.
//!
//! The speedup claims are checked here, not just eyeballed. In release
//! builds the run asserts three floors: the compiled path prices the TOU
//! workload at least 5× faster per sample than the interpreter, patching a
//! market revision is at least 5× faster than recompiling, and the `Fast`
//! precision is at least 1.5× faster than `BitExact`. Each floor gates the
//! median of [`REPEATS`] ratios, each ratio taken between two best-of
//! timings, so one noisy pair cannot trip it. The TOU+demand pair is
//! reported unguarded.

use hpcgrid_bench::table::TextTable;
use hpcgrid_bench::timing::{paired, time_ns, REPEATS};
use hpcgrid_core::billing::{BillingEngine, Precision};
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, MonthSet, Power, SimTime, TimeOfDay,
};
use std::hint::black_box;

/// One month of 15-minute samples with a diurnal swing — the workload the
/// acceptance criterion is written against.
fn month_load() -> PowerSeries {
    let n = 30 * 96;
    Series::from_fn(SimTime::EPOCH, Duration::from_minutes(15.0), n, |t| {
        let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
        let diurnal = 1.0 + 0.3 * ((h - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        Power::from_megawatts(8.0 * diurnal)
    })
    .unwrap()
}

/// A utility-shaped TOU schedule: summer weekday peak, year-round weekday
/// shoulder, nightly off-peak — the window filters (month set, weekday) are
/// what make the interpreter consult the calendar per sample.
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

fn tou_contract() -> Contract {
    Contract::builder("tou")
        .tariff(tou_schedule())
        .build()
        .unwrap()
}

fn tou_demand_contract() -> Contract {
    Contract::builder("tou+demand")
        .tariff(tou_schedule())
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .build()
        .unwrap()
}

/// A month-coverage hourly market strip (720 values), varied by revision
/// index the way day-ahead republications vary: same shape, shifted level.
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

/// The rich sweep contract: four tariffs (fixed rider, utility TOU,
/// day/night TOU, dynamic strip) plus demand charge and service fee. The
/// tariff surface is what makes a full recompile expensive over a year
/// horizon — and what the patch path skips: index 3 (the dynamic strip) is
/// the only piece a market revision touches.
const DYNAMIC_TARIFF_INDEX: usize = 3;

fn rich_contract(strip: &PriceSeries) -> Contract {
    Contract::builder("rich")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.015)))
        .tariff(tou_schedule())
        .tariff(Tariff::day_night(
            EnergyPrice::per_kilowatt_hour(0.03),
            EnergyPrice::per_kilowatt_hour(0.012),
        ))
        .tariff(Tariff::dynamic(
            strip.clone(),
            EnergyPrice::per_kilowatt_hour(0.01),
            EnergyPrice::per_kilowatt_hour(0.08),
        ))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .monthly_fee(hpcgrid_units::Money::from_dollars(750.0))
        .build()
        .unwrap()
}

fn main() {
    println!("== X10: compiled billing kernel vs interpreted baseline ==\n");
    let load = month_load();
    let n_samples = load.len();
    let engine = BillingEngine::new(Calendar::default());

    let contracts = [tou_contract(), tou_demand_contract()];
    let mut pairs = Vec::new();
    let mut t = TextTable::new(vec!["contract", "path", "ns/bill", "ns/sample", "speedup"]);
    for contract in &contracts {
        let compiled = engine.compile(contract, load.start(), load.end()).unwrap();
        // Correctness gate first: the two paths must agree bit for bit.
        assert_eq!(
            engine.bill(contract, &load).unwrap(),
            compiled.bill(&load).unwrap(),
            "compiled kernel must be bit-identical to the interpreter"
        );
        let (interp_ns, compiled_ns, speedup) = paired(
            || {
                time_ns(5, 20, || {
                    black_box(engine.bill(contract, &load).unwrap().total());
                })
            },
            || {
                time_ns(5, 20, || {
                    black_box(compiled.bill(&load).unwrap().total());
                })
            },
        );
        for (path, ns, ratio) in [
            ("interpreted", interp_ns, 1.0),
            ("compiled", compiled_ns, speedup),
        ] {
            t.row(vec![
                contract.name.clone(),
                path.to_string(),
                format!("{ns:.0}"),
                format!("{:.2}", ns / n_samples as f64),
                format!("{ratio:.2}x"),
            ]);
        }
        pairs.push((contract.name.clone(), interp_ns, compiled_ns, speedup));
    }
    println!("{}", t.render());

    let tou = tou_contract();
    let compile_ns = time_ns(5, 20, || {
        black_box(engine.compile(&tou, load.start(), load.end()).unwrap());
    });
    let (_, interp_ns, compiled_ns, speedup) = pairs[0].clone();
    // Amortization: how many bills (or samples) until compile pays for
    // itself. This is the guidance quoted in the README.
    let breakeven_bills = compile_ns / (interp_ns - compiled_ns).max(1.0);
    println!(
        "compile cost: {compile_ns:.0} ns one-off, amortized after {breakeven_bills:.1} \
         bill(s) of this size; reuse the compiled contract for >=2 bills or >=1 month \
         of samples.\n"
    );

    // Batch throughput: 32 sites under one contract (with demand charge, the
    // survey-typical shape).
    let batch_contract = tou_demand_contract();
    let loads: Vec<PowerSeries> = (0..32).map(|i| load.scale(0.5 + 0.05 * i as f64)).collect();
    let seq_ns = time_ns(3, 5, || {
        for l in &loads {
            black_box(engine.bill(&batch_contract, l).unwrap().total());
        }
    });
    let batch_ns = time_ns(3, 5, || {
        black_box(engine.bill_many(&batch_contract, &loads).unwrap().len());
    });
    let seq_per_s = loads.len() as f64 / (seq_ns / 1e9);
    let batch_per_s = loads.len() as f64 / (batch_ns / 1e9);
    let mut t2 = TextTable::new(vec!["path", "bills/s (32-load batch)", "vs sequential"]);
    t2.row(vec![
        "interpreted loop".to_string(),
        format!("{seq_per_s:.0}"),
        "1.00x".to_string(),
    ]);
    t2.row(vec![
        "bill_many (compile once + par)".to_string(),
        format!("{batch_per_s:.0}"),
        format!("{:.2}x", batch_per_s / seq_per_s),
    ]);
    println!("{}", t2.render());

    // Patch vs recompile: a 1000-revision dynamic-price sweep. Day-ahead
    // markets republish the strip; a naive sweep rebuilds the contract and
    // recompiles the full year kernel per revision, while the patch path
    // splices the new strip into the base kernel (`with_price_strip`) and
    // shares every other lowered piece by reference. Each revision bills the
    // day of 15-minute samples the republished prices cover.
    const REVISIONS: usize = 1_000;
    let year_end = SimTime::from_days(365);
    let strips: Vec<PriceSeries> = (0..REVISIONS).map(revision_strip).collect();
    let base_contract = rich_contract(&strips[0]);
    let base_kernel = engine
        .compile(&base_contract, SimTime::EPOCH, year_end)
        .unwrap();
    let day_load = Series::from_fn(
        SimTime::from_days(7),
        Duration::from_minutes(15.0),
        96,
        |t| {
            let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
            Power::from_megawatts(
                8.0 * (1.0 + 0.3 * ((h - 14.0) / 24.0 * std::f64::consts::TAU).cos()),
            )
        },
    )
    .unwrap();
    // Correctness gate: a spliced kernel bills bit-identically to a fresh
    // compile of the revised contract.
    let revised = base_contract
        .apply(&ContractDelta::price_strip(
            DYNAMIC_TARIFF_INDEX,
            strips[1].clone(),
        ))
        .unwrap();
    assert_eq!(
        base_kernel
            .with_price_strip(&strips[1])
            .unwrap()
            .bill(&day_load)
            .unwrap(),
        engine
            .compile(&revised, SimTime::EPOCH, year_end)
            .unwrap()
            .bill(&day_load)
            .unwrap(),
        "spliced kernel must be bit-identical to full recompilation"
    );
    let (recompile_ns, patch_ns, patch_speedup) = paired(
        || {
            time_ns(3, 1, || {
                for strip in &strips {
                    let c = base_contract
                        .apply(&ContractDelta::price_strip(
                            DYNAMIC_TARIFF_INDEX,
                            strip.clone(),
                        ))
                        .unwrap();
                    let k = engine.compile(&c, SimTime::EPOCH, year_end).unwrap();
                    black_box(k.bill(&day_load).unwrap().total());
                }
            }) / REVISIONS as f64
        },
        || {
            time_ns(3, 1, || {
                for strip in &strips {
                    let k = base_kernel.with_price_strip(strip).unwrap();
                    black_box(k.bill(&day_load).unwrap().total());
                }
            }) / REVISIONS as f64
        },
    );
    let mut t3 = TextTable::new(vec!["path (1000 revisions)", "ns/revision", "speedup"]);
    t3.row(vec![
        "recompile year kernel".to_string(),
        format!("{recompile_ns:.0}"),
        "1.00x".to_string(),
    ]);
    t3.row(vec![
        "patch (with_price_strip)".to_string(),
        format!("{patch_ns:.0}"),
        format!("{patch_speedup:.2}x"),
    ]);
    println!("{}", t3.render());

    // Fast precision path: vectorized pairwise summation per constant-price
    // run (`Precision::Fast`) against the bit-exact compiled kernel on the
    // same month workload. The bars: within 1e-12 relative tolerance on
    // every line item, and at least 1.5x faster per sample in release
    // builds.
    let exact_kernel = engine
        .compile(&tou, load.start(), load.end())
        .unwrap()
        .with_precision(Precision::BitExact);
    let fast_kernel = exact_kernel.clone().with_precision(Precision::Fast);
    let exact_bill = exact_kernel.bill(&load).unwrap();
    let fast_bill = fast_kernel.bill(&load).unwrap();
    let max_rel_err = exact_bill
        .items
        .iter()
        .zip(&fast_bill.items)
        .map(|(e, f)| {
            let (a, b) = (e.amount.as_dollars(), f.amount.as_dollars());
            (a - b).abs() / a.abs().max(b.abs()).max(1.0)
        })
        .fold(0.0f64, f64::max);
    assert!(
        max_rel_err <= 1e-12,
        "fast path drifted {max_rel_err:e} past the 1e-12 tolerance"
    );
    let (exact_path_ns, fast_path_ns, fast_speedup) = paired(
        || {
            time_ns(5, 20, || {
                black_box(exact_kernel.bill(&load).unwrap().total());
            })
        },
        || {
            time_ns(5, 20, || {
                black_box(fast_kernel.bill(&load).unwrap().total());
            })
        },
    );
    let mut t4 = TextTable::new(vec!["precision", "ns/bill", "ns/sample", "speedup"]);
    t4.row(vec![
        "bit_exact (compiled)".to_string(),
        format!("{exact_path_ns:.0}"),
        format!("{:.2}", exact_path_ns / n_samples as f64),
        "1.00x".to_string(),
    ]);
    t4.row(vec![
        "fast (compiled)".to_string(),
        format!("{fast_path_ns:.0}"),
        format!("{:.2}", fast_path_ns / n_samples as f64),
        format!("{fast_speedup:.2}x"),
    ]);
    println!("{}", t4.render());
    println!("fast path: max line-item relative error {max_rel_err:.1e}\n");

    let workload = serde_json::json!({
        "samples": n_samples,
        "step_minutes": 15usize,
        "horizon_days": 30usize,
        "contract": "3-window utility TOU (summer/weekday filters)",
    });
    let tou_demand = serde_json::json!({
        "interpreted_ns_per_sample": pairs[1].1 / n_samples as f64,
        "compiled_ns_per_sample": pairs[1].2 / n_samples as f64,
        "speedup": pairs[1].3,
    });
    let batch = serde_json::json!({
        "interpreted_bills_per_s": seq_per_s,
        "bill_many_bills_per_s": batch_per_s,
        "speedup": batch_per_s / seq_per_s,
    });
    let patch_vs_recompile = serde_json::json!({
        "revisions": REVISIONS,
        "contract": "fixed + 3-window TOU + day/night TOU + dynamic strip + demand charge + fee",
        "horizon_days": 365usize,
        "strip_values": 30 * 24usize,
        "bill_samples_per_revision": 96usize,
        "recompile_ns_per_revision": recompile_ns,
        "patch_ns_per_revision": patch_ns,
        "speedup": patch_speedup,
    });
    let fast_path = serde_json::json!({
        "bit_exact_ns_per_sample": exact_path_ns / n_samples as f64,
        "fast_ns_per_sample": fast_path_ns / n_samples as f64,
        "speedup": fast_speedup,
        "max_relative_error": max_rel_err,
        "tolerance": 1e-12,
    });
    let json = serde_json::json!({
        "experiment": "billing_kernel_baseline",
        "workload": workload,
        "fast_path": fast_path,
        "interpreted_ns_per_sample": interp_ns / n_samples as f64,
        "compiled_ns_per_sample": compiled_ns / n_samples as f64,
        "compile_ns": compile_ns,
        "speedup": speedup,
        "breakeven_bills": breakeven_bills,
        "ratio_repeats": REPEATS,
        "tou_plus_demand_charge": tou_demand,
        "batch_32_loads": batch,
        "patch_vs_recompile": patch_vs_recompile,
        "optimized_build": cfg!(not(debug_assertions)),
    });
    let out = std::env::var("HPCGRID_BENCH_OUT").unwrap_or_else(|_| "BENCH_billing.json".into());
    let pretty = serde_json::to_string_pretty(&json).expect("serialize bench baseline");
    std::fs::write(&out, pretty + "\n").expect("write BENCH_billing.json");
    println!("wrote {out}");

    println!(
        "speedup: compiled TOU path is {speedup:.1}x faster per sample \
         (median of {REPEATS} ratios)"
    );
    // The 5x acceptance bars are release-build claims; unoptimized builds
    // still must show a clear win.
    let floor = if cfg!(debug_assertions) { 2.0 } else { 5.0 };
    assert!(
        speedup >= floor,
        "compiled kernel speedup {speedup:.2}x below the {floor}x floor"
    );
    println!(
        "speedup: patch path is {patch_speedup:.1}x faster per market revision \
         than full recompilation"
    );
    assert!(
        patch_speedup >= floor,
        "patch speedup {patch_speedup:.2}x below the {floor}x floor"
    );
    println!(
        "speedup: fast precision path is {fast_speedup:.1}x faster per sample \
         than the bit-exact compiled kernel"
    );
    // The fast-over-exact bar is a release-build claim only: debug builds
    // don't autovectorize the pairwise kernels, so the ratio is noise there.
    if cfg!(not(debug_assertions)) {
        assert!(
            fast_speedup >= 1.5,
            "fast path speedup {fast_speedup:.2}x below the 1.5x floor"
        );
    }
    println!("X10 OK");
}
