//! Experiment X7 (extension) — streaming meter-fleet throughput.
//!
//! Measures `MeterFleet` folding one day of 15-minute samples (96 ticks)
//! across one million streaming meters sharded over four contract shapes
//! drawn from the paper's typology (flat, utility TOU, TOU + demand
//! charge, TOU + demand + powerband + fee). Emits the measured numbers as
//! `BENCH_fleet.json` so the baseline is committed next to the code it
//! describes.
//!
//! One pass per ingest shape streams the same workload through the same
//! kernels (the "hot-path data layout" ladder in `docs/ARCHITECTURE.md`):
//!
//! * **scalar** — AoS `advance_tick`: each tick's samples are transposed
//!   into a fresh frame, whose id lane is compared against the cached
//!   `ScatterPlan`'s, then folded like a frame;
//! * **frames** — columnar `advance_frame`: one cached `ScatterPlan`
//!   resolves the whole frame shape, workers gather each cohort's powers
//!   out of the power lane;
//! * **fused** — `advance_window` over 16-tick windows: one block fold
//!   per cohort per window;
//! * **fused (fast)** — the fused pass over `Precision::Fast` kernels.
//!
//! Every shape folds each shard's cohort — the meters that advance in
//! lockstep — as one block per advance, so `frames` is a block one tick
//! wide and `fused` one sixteen ticks wide.
//!
//! Correctness gates run before any timing: a small fleet's finalized
//! bills must be bit-identical to batch `CompiledContract::bill` over the
//! equivalent series, per meter, for every contract shape — fed through
//! every ingest shape — and the fast fused fleet's bills must stay within
//! the documented 1e-12 of those bit-exact bills. Machine-independent
//! counts are gated at every size: at most [`MAX_BYTES_PER_METER`] bytes
//! of accrual state per meter, and one cohort per shard after the frames
//! and fused passes (every meter folds every frame, so no cohort splits).
//! The throughput floors are asserted in release builds only: an absolute
//! scalar floor, an absolute batched floor, and (at the committed
//! full-scale workload) the fused path's ≥2.5× claim over the committed
//! scalar baseline.
//!
//! `HPCGRID_FLEET_METERS` overrides the fleet size (CI smoke runs at
//! 10 000); `HPCGRID_FLEET_SHARDS` sets the shards-per-contract count
//! (default: the machine's available parallelism, as `MeterFleet::new`).
//! A malformed `HPCGRID_FLEET_SHARDS` stops the binary with an error.

use hpcgrid_bench::table::TextTable;
use hpcgrid_core::billing::{Bill, Precision};
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::fleet::{MeterFleet, MeterId, Sample, TickFrame};
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_timeseries::par::default_threads;
use hpcgrid_timeseries::series::{PowerSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, MonthSet, Power, SimTime, TimeOfDay,
};
use std::sync::Arc;
use std::time::Instant;

/// One day of 15-minute ticks.
const TICKS: usize = 96;
/// Committed-baseline fleet size; `HPCGRID_FLEET_METERS` overrides.
const DEFAULT_METERS: usize = 1_000_000;
/// Meter load profile classes (diurnal shapes at staggered scales).
const PROFILES: usize = 8;
/// Scalar-pass throughput floor, meter-samples per second (release builds).
const FLOOR_SAMPLES_PER_SEC: f64 = 1_000_000.0;
/// Fused-window width for the windowed pass.
const WINDOW_TICKS: usize = 16;
/// Batched/windowed floor at any fleet size (release builds) — the CI
/// bench-smoke bar at `HPCGRID_FLEET_METERS=10000`.
const BATCHED_FLOOR_SAMPLES_PER_SEC: f64 = 2_500_000.0;
/// The committed warm scalar baseline the fused path's claim is measured
/// against (`BENCH_fleet.json` before columnar frames landed).
const COMMITTED_SCALAR_BASELINE: f64 = 18_400_000.0;
/// Full-scale claim: fused throughput must clear this multiple of
/// [`COMMITTED_SCALAR_BASELINE`] at the committed [`DEFAULT_METERS`]
/// workload.
const FUSED_SPEEDUP_FLOOR: f64 = 2.5;
/// Accrual state per meter, in bytes, at any fleet size: a cohort keeps
/// its clock once and each meter's quantities as `f64` columns (296 bytes
/// per meter when every meter carried its own accrual).
const MAX_BYTES_PER_METER: f64 = 128.0;
/// Documented relative tolerance of `Precision::Fast` per line item.
const FAST_RTOL: f64 = 1e-12;

/// The same utility-shaped TOU schedule the billing-kernel baseline uses.
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

/// The four contract shapes meters rotate through — enough typology
/// coverage to exercise every accrual component without drowning the
/// throughput signal in kernel variety.
fn contract_shapes() -> Vec<Contract> {
    vec![
        Contract::builder("flat")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
            .build()
            .unwrap(),
        Contract::builder("tou")
            .tariff(tou_schedule())
            .build()
            .unwrap(),
        Contract::builder("tou+demand")
            .tariff(tou_schedule())
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
            .build()
            .unwrap(),
        Contract::builder("tou+demand+band+fee")
            .tariff(tou_schedule())
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
            .powerband(Powerband::ceiling(
                Power::from_megawatts(6.0),
                EnergyPrice::per_kilowatt_hour(0.45),
            ))
            .monthly_fee(Money::from_dollars(750.0))
            .build()
            .unwrap(),
    ]
}

/// Meter `i`'s load at tick `tick`: one of [`PROFILES`] diurnal shapes at a
/// per-class scale. Deterministic so the batch-equivalence gate can rebuild
/// the exact series any meter streamed.
fn meter_power(i: usize, tick: usize) -> Power {
    let class = i % PROFILES;
    let base_mw = 0.5 + 0.75 * class as f64;
    let h = tick as f64 * 0.25;
    let phase = 14.0 + class as f64;
    let diurnal = 1.0 + 0.3 * ((h - phase) / 24.0 * std::f64::consts::TAU).cos();
    Power::from_megawatts(base_mw * diurnal)
}

/// The batch series equivalent to meter `i`'s full tick stream.
fn meter_series(i: usize) -> PowerSeries {
    Series::from_fn(SimTime::EPOCH, Duration::from_minutes(15.0), TICKS, |t| {
        meter_power(i, (t.as_secs() / 900) as usize)
    })
    .unwrap()
}

/// Compile every contract shape at `precision` over the fleet horizon.
fn compile_kernels(
    calendar: Calendar,
    shapes: &[Contract],
    start: SimTime,
    end: SimTime,
    precision: Precision,
) -> Vec<Arc<CompiledContract>> {
    shapes
        .iter()
        .map(|c| {
            Arc::new(
                CompiledContract::compile(&calendar, c, start, end)
                    .unwrap()
                    .with_precision(precision),
            )
        })
        .collect()
}

/// True if every line item of `fast` is within [`FAST_RTOL`] of `exact`'s.
fn bills_close(exact: &Bill, fast: &Bill) -> bool {
    exact.items.len() == fast.items.len()
        && exact.items.iter().zip(&fast.items).all(|(e, f)| {
            let (a, b) = (e.amount.as_dollars(), f.amount.as_dollars());
            e.label == f.label && (a - b).abs() <= FAST_RTOL * a.abs().max(b.abs()).max(1.0)
        })
}

/// `HPCGRID_FLEET_SHARDS`: a positive shards-per-contract count, or `None`
/// when unset or empty (the fleet default).
fn parse_shards(value: Option<&str>) -> Result<Option<usize>, String> {
    value
        .map(|v| match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("expected a positive shard count, got '{v}'")),
        })
        .transpose()
}

/// Register `meters` meters round-robin across the kernels on a fleet of
/// `shards` shards per contract, stream all [`TICKS`] ticks through a
/// reused sample buffer, and return the fleet plus the wall-clock seconds
/// spent registering and ticking.
fn run_fleet(
    calendar: Calendar,
    kernels: &[Arc<CompiledContract>],
    meters: usize,
    start: SimTime,
    end: SimTime,
    shards: usize,
) -> (MeterFleet, f64, f64) {
    let step = Duration::from_minutes(15.0);
    let t0 = Instant::now();
    let mut fleet = MeterFleet::with_shards(calendar, start, end, shards);
    let mut ids: Vec<MeterId> = Vec::with_capacity(meters);
    for i in 0..meters {
        let kernel = Arc::clone(&kernels[i % kernels.len()]);
        ids.push(
            fleet
                .register_compiled(kernel, SimTime::EPOCH, step)
                .unwrap(),
        );
    }
    let register_s = t0.elapsed().as_secs_f64();

    // Per-tick powers collapse to PROFILES distinct values; precompute the
    // table so the driver loop is a lookup, not a cosine, per meter.
    let t1 = Instant::now();
    let mut buf: Vec<Sample> = ids
        .iter()
        .map(|&m| Sample {
            meter: m,
            power: Power::from_megawatts(0.0),
        })
        .collect();
    for tick in 0..TICKS {
        let by_class: Vec<Power> = (0..PROFILES).map(|c| meter_power(c, tick)).collect();
        for (i, s) in buf.iter_mut().enumerate() {
            s.power = by_class[i % PROFILES];
        }
        fleet.advance_tick(&buf).unwrap();
    }
    let stream_s = t1.elapsed().as_secs_f64();
    (fleet, register_s, stream_s)
}

/// Like [`run_fleet`], but streaming columnar [`TickFrame`]s in windows of
/// `window` ticks: `window == 1` exercises the per-frame plan-scatter path
/// (`advance_frame`), wider windows the fused window path
/// (`advance_window`). Frame construction (power-lane fill from the
/// profile table) is timed, exactly like `run_fleet` times its sample
/// buffer fill — the comparison is driver-to-driver fair.
fn run_fleet_batched(
    calendar: Calendar,
    kernels: &[Arc<CompiledContract>],
    meters: usize,
    start: SimTime,
    end: SimTime,
    window: usize,
    shards: usize,
) -> (MeterFleet, f64, f64) {
    let step = Duration::from_minutes(15.0);
    let t0 = Instant::now();
    let mut fleet = MeterFleet::with_shards(calendar, start, end, shards);
    let mut ids: Vec<MeterId> = Vec::with_capacity(meters);
    for i in 0..meters {
        let kernel = Arc::clone(&kernels[i % kernels.len()]);
        ids.push(
            fleet
                .register_compiled(kernel, SimTime::EPOCH, step)
                .unwrap(),
        );
    }
    let ids: Arc<[MeterId]> = ids.into();
    let register_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut tick = 0usize;
    while tick < TICKS {
        let w = window.min(TICKS - tick);
        let frames: Vec<TickFrame> = (tick..tick + w)
            .map(|t| {
                let by_class: Vec<Power> = (0..PROFILES).map(|c| meter_power(c, t)).collect();
                let powers: Vec<Power> = (0..meters).map(|i| by_class[i % PROFILES]).collect();
                TickFrame::new(Arc::clone(&ids), powers).unwrap()
            })
            .collect();
        fleet.advance_window(&frames).unwrap();
        tick += w;
    }
    let stream_s = t1.elapsed().as_secs_f64();
    (fleet, register_s, stream_s)
}

fn main() {
    println!("== X7: streaming meter-fleet throughput ==\n");
    let meters: usize = std::env::var("HPCGRID_FLEET_METERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= PROFILES)
        .unwrap_or(DEFAULT_METERS);
    let shards_var = std::env::var("HPCGRID_FLEET_SHARDS").ok();
    let shards = parse_shards(shards_var.as_deref().filter(|v| !v.is_empty()))
        .unwrap_or_else(|e| {
            eprintln!("error: HPCGRID_FLEET_SHARDS: {e}");
            std::process::exit(2)
        })
        .unwrap_or_else(|| default_threads(usize::MAX));
    let calendar = Calendar::default();
    let (start, end) = (SimTime::EPOCH, SimTime::from_days(30));
    let shapes = contract_shapes();

    // Correctness gate first: a small fleet's finalized bills must be
    // bit-identical to batch bills of the equivalent series, for every
    // contract shape and profile class.
    let gate_kernels = compile_kernels(calendar, &shapes, start, end, Precision::BitExact);
    let gate_fast_kernels = compile_kernels(calendar, &shapes, start, end, Precision::Fast);
    let gate_meters = 4 * PROFILES;
    let (gate_scalar, _, _) = run_fleet(calendar, &gate_kernels, gate_meters, start, end, shards);
    let (gate_frames, _, _) =
        run_fleet_batched(calendar, &gate_kernels, gate_meters, start, end, 1, shards);
    let (gate_fused, _, _) = run_fleet_batched(
        calendar,
        &gate_kernels,
        gate_meters,
        start,
        end,
        WINDOW_TICKS,
        shards,
    );
    let (gate_fast, _, _) = run_fleet_batched(
        calendar,
        &gate_fast_kernels,
        gate_meters,
        start,
        end,
        WINDOW_TICKS,
        shards,
    );
    for i in 0..gate_meters {
        let batch = gate_kernels[i % gate_kernels.len()]
            .bill(&meter_series(i))
            .unwrap();
        let fast = gate_fast.finalize(MeterId(i)).unwrap();
        assert!(
            bills_close(&batch, &fast),
            "meter #{i} via fused (fast): bill must stay within {FAST_RTOL:e} of the \
             bit-exact batch bill\n{batch:?}\n{fast:?}"
        );
        for (path, fleet) in [
            ("scalar", &gate_scalar),
            ("frames", &gate_frames),
            ("fused", &gate_fused),
        ] {
            assert_eq!(
                fleet.finalize(MeterId(i)).unwrap(),
                batch,
                "meter #{i} via {path}: streamed bill must be bit-identical to the batch bill"
            );
        }
    }
    println!(
        "correctness: {gate_meters} meters x {TICKS} ticks bit-identical to batch bills \
         across {} contract shapes and all 3 ingest shapes; fast fused bills within \
         {FAST_RTOL:e}\n",
        shapes.len()
    );

    // Scalar pass: one advance_tick per tick.
    let kernels = compile_kernels(calendar, &shapes, start, end, Precision::BitExact);
    let (scalar_fleet, scalar_reg_s, scalar_stream_s) =
        run_fleet(calendar, &kernels, meters, start, end, shards);
    let scalar = scalar_fleet.stats();
    drop(scalar_fleet); // free ~bytes_per_meter * meters before the next pass

    // Batched passes over the same kernels: columnar frames (plan scatter,
    // one tick per advance), then fused 16-tick windows (one block fold per
    // cohort per window), then the fused windows over `Fast` kernels.
    let (frames_fleet, frames_reg_s, frames_stream_s) =
        run_fleet_batched(calendar, &kernels, meters, start, end, 1, shards);
    let frames = frames_fleet.stats();
    drop(frames_fleet);
    let (fused_fleet, fused_reg_s, fused_stream_s) =
        run_fleet_batched(calendar, &kernels, meters, start, end, WINDOW_TICKS, shards);
    let fused = fused_fleet.stats();
    drop(fused_fleet);
    let fast_kernels = compile_kernels(calendar, &shapes, start, end, Precision::Fast);
    let (fast_fleet, fast_reg_s, fast_stream_s) = run_fleet_batched(
        calendar,
        &fast_kernels,
        meters,
        start,
        end,
        WINDOW_TICKS,
        shards,
    );
    let fast = fast_fleet.stats();

    let mut t = TextTable::new(vec![
        "pass",
        "register s",
        "stream s",
        "meter-samples/s (in-tick)",
    ]);
    for (pass, reg, stream, stats) in [
        (
            "scalar (advance_tick)",
            scalar_reg_s,
            scalar_stream_s,
            &scalar,
        ),
        (
            "frames (plan scatter)",
            frames_reg_s,
            frames_stream_s,
            &frames,
        ),
        (
            "fused (16-tick window)",
            fused_reg_s,
            fused_stream_s,
            &fused,
        ),
        ("fused (fast precision)", fast_reg_s, fast_stream_s, &fast),
    ] {
        t.row(vec![
            pass.to_string(),
            format!("{reg:.2}"),
            format!("{stream:.2}"),
            format!("{:.0}", stats.meter_samples_per_sec),
        ]);
    }
    println!("{}", t.render());
    println!(
        "plan reuse: frames {}/{} builds/advances, fused {}/{} — speedup vs scalar: \
         frames {:.2}x, fused {:.2}x; fused vs committed {COMMITTED_SCALAR_BASELINE:.0}: {:.2}x",
        frames.plan_builds,
        frames.plan_builds + frames.plan_hits,
        fused.plan_builds,
        fused.plan_builds + fused.plan_hits,
        frames.meter_samples_per_sec / scalar.meter_samples_per_sec,
        fused.meter_samples_per_sec / scalar.meter_samples_per_sec,
        fused.meter_samples_per_sec / COMMITTED_SCALAR_BASELINE,
    );
    println!(
        "fleet: {meters} meters, {} shards, {} contracts, {:.0} bytes/meter, \
         kernel reuse {:.4}%; cohorts after frames {}, fused {}\n",
        scalar.shards,
        scalar.contracts,
        scalar.bytes_per_meter,
        scalar.kernel_reuse_rate() * 100.0,
        frames.cohorts,
        fused.cohorts,
    );

    // Registration reuses each contract's kernel for all but its first
    // meter; anything else means fingerprint sharding broke.
    assert!(
        scalar.kernel_reuse_rate() > 0.99,
        "kernel reuse rate {:.4} below 0.99 — shards are not sharing kernels",
        scalar.kernel_reuse_rate()
    );
    // Counts that carry across machines, gated at every fleet size.
    for (pass, stats) in [
        ("scalar", &scalar),
        ("frames", &frames),
        ("fused", &fused),
        ("fast", &fast),
    ] {
        assert!(
            stats.bytes_per_meter <= MAX_BYTES_PER_METER,
            "{pass}: {:.1} bytes of accrual state per meter, above {MAX_BYTES_PER_METER}",
            stats.bytes_per_meter
        );
    }
    for (pass, stats) in [("frames", &frames), ("fused", &fused)] {
        assert_eq!(
            stats.cohorts, stats.shards,
            "{pass}: every meter folds every frame, so each shard must fold one cohort"
        );
    }

    let workload = serde_json::json!({
        "meters": meters,
        "ticks": TICKS,
        "step_minutes": 15usize,
        "horizon_days": 30usize,
        "contracts": shapes.len(),
        "profile_classes": PROFILES,
    });
    let scalar_json = serde_json::json!({
        "register_seconds": scalar_reg_s,
        "stream_seconds": scalar_stream_s,
        "meter_samples_per_sec": scalar.meter_samples_per_sec,
    });
    let frames_json = serde_json::json!({
        "register_seconds": frames_reg_s,
        "stream_seconds": frames_stream_s,
        "meter_samples_per_sec": frames.meter_samples_per_sec,
        "plan_builds": frames.plan_builds,
        "plan_hits": frames.plan_hits,
        "cohorts": frames.cohorts,
    });
    let fused_json = serde_json::json!({
        "register_seconds": fused_reg_s,
        "stream_seconds": fused_stream_s,
        "meter_samples_per_sec": fused.meter_samples_per_sec,
        "window_ticks": WINDOW_TICKS,
        "plan_builds": fused.plan_builds,
        "plan_hits": fused.plan_hits,
        "speedup_vs_scalar": fused.meter_samples_per_sec / scalar.meter_samples_per_sec,
        "speedup_vs_committed_baseline":
            fused.meter_samples_per_sec / COMMITTED_SCALAR_BASELINE,
        "cohorts": fused.cohorts,
    });
    let fast_json = serde_json::json!({
        "register_seconds": fast_reg_s,
        "stream_seconds": fast_stream_s,
        "meter_samples_per_sec": fast.meter_samples_per_sec,
        "window_ticks": WINDOW_TICKS,
        "precision": "fast",
        "tolerance": FAST_RTOL,
        "speedup_vs_bit_exact_fused": fast.meter_samples_per_sec / fused.meter_samples_per_sec,
    });
    let env_json = serde_json::json!({
        "HPCGRID_FLEET_METERS": std::env::var("HPCGRID_FLEET_METERS").ok(),
        "HPCGRID_FLEET_SHARDS": std::env::var("HPCGRID_FLEET_SHARDS").ok(),
    });
    let json = serde_json::json!({
        "experiment": "fleet_throughput_baseline",
        "workload": workload,
        "scalar": scalar_json,
        "frames": frames_json,
        "fused": fused_json,
        "fused_fast": fast_json,
        "bytes_per_meter": scalar.bytes_per_meter,
        "max_bytes_per_meter": MAX_BYTES_PER_METER,
        "kernel_reuse_rate": scalar.kernel_reuse_rate(),
        "shards": scalar.shards,
        "floor_meter_samples_per_sec": FLOOR_SAMPLES_PER_SEC,
        "batched_floor_meter_samples_per_sec": BATCHED_FLOOR_SAMPLES_PER_SEC,
        "env": env_json,
        "optimized_build": cfg!(not(debug_assertions)),
    });
    let out = std::env::var("HPCGRID_BENCH_OUT").unwrap_or_else(|_| "BENCH_fleet.json".into());
    let pretty = serde_json::to_string_pretty(&json).expect("serialize bench baseline");
    std::fs::write(&out, pretty + "\n").expect("write BENCH_fleet.json");
    println!("wrote {out}");

    // The throughput bar is a release-build claim; debug builds run the
    // same passes unguarded so CI smoke still exercises every path.
    if cfg!(not(debug_assertions)) {
        assert!(
            scalar.meter_samples_per_sec >= FLOOR_SAMPLES_PER_SEC,
            "scalar throughput {:.0} meter-samples/s below the {FLOOR_SAMPLES_PER_SEC:.0} floor",
            scalar.meter_samples_per_sec
        );
        // The batched/windowed floor holds at every fleet size — this is
        // the bar CI bench-smoke runs at HPCGRID_FLEET_METERS=10000.
        for (path, rate) in [
            ("frames", frames.meter_samples_per_sec),
            ("fused", fused.meter_samples_per_sec),
        ] {
            assert!(
                rate >= BATCHED_FLOOR_SAMPLES_PER_SEC,
                "{path} throughput {rate:.0} meter-samples/s below the \
                 {BATCHED_FLOOR_SAMPLES_PER_SEC:.0} batched floor"
            );
        }
        // The tentpole claim is scoped to the committed full-scale
        // workload: fused ≥ 2.5x the pre-columnar scalar baseline.
        if meters >= DEFAULT_METERS {
            assert!(
                fused.meter_samples_per_sec >= FUSED_SPEEDUP_FLOOR * COMMITTED_SCALAR_BASELINE,
                "fused throughput {:.0} meter-samples/s below {FUSED_SPEEDUP_FLOOR}x \
                 the committed {COMMITTED_SCALAR_BASELINE:.0} scalar baseline",
                fused.meter_samples_per_sec
            );
        }
    }
    println!("X7 OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_edge_value_parses_or_errors() {
        assert_eq!(parse_shards(None), Ok(None));
        assert_eq!(parse_shards(Some("5")), Ok(Some(5)));
        for bad in ["0", "-1", "five"] {
            let err = parse_shards(Some(bad)).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
    }
}
