//! `fleet_live` and `fleet_replay` — streaming billing of a metered
//! population through `MeterFleet`.
//!
//! Set-up compiles the population's distinct contracts (TOU with demand and
//! fee variants), registers every meter and feeds the fleet its first
//! simulated day. The timed phase feeds further 15-minute ticks as columnar
//! frames, refilled in place through `TickFrame::powers_mut` by a generator
//! the fleet cannot see, then closes the books with `finalize_all`.
//!
//! * `fleet_live`: 200 000 meters over 1 024 contracts (2 048 shards on two
//!   cores), one `advance_frame` per tick. Why: per-tick latency and
//!   per-shard overhead, over a working set about twice the L3 cache. A
//!   closed loop is faithful here because real ticks arrive 15 minutes
//!   apart, far above the service time.
//! * `fleet_replay`: 400 000 meters over 8 contracts, 16-tick
//!   `advance_window` calls through the fused path. Why: throughput in the
//!   memory-bound, few-shard regime, the opposite of `fleet_live`.

use crate::harness::{mix, Clock, Measured, Params, Rng};
use crate::trace;
use hpcgrid_core::billing::Precision;
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::fleet::{FleetTickReport, MeterFleet, MeterId, TickFrame};
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_core::CoreError;
use hpcgrid_timeseries::series::Series;
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, MonthSet, Power, SimTime, TimeOfDay,
};
use std::sync::Arc;
use std::time::Instant;

/// Load-shape classes the generator draws from.
const PROFILES: usize = 8;
/// Meters whose streamed bills the gate compares with batch bills.
const GATED_METERS: usize = 64;
const TICKS_PER_DAY: usize = 96;
/// Ticks the fleet absorbs in set-up: one simulated day, which also
/// finishes its lazy set-up (scatter plan, shard buffers, first touch of
/// every accrual) before the timed phase.
const WARMUP_TICKS: usize = TICKS_PER_DAY;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Registered meters.
    pub meters: usize,
    /// Distinct contracts the meters are spread over.
    pub contracts: usize,
    /// Ticks per advance: 1 is `advance_frame`, more is `advance_window`.
    pub window: usize,
    /// Compile horizon; the timed phase stops early if it runs out.
    pub horizon_days: u64,
}

impl Size {
    /// `fleet_live`.
    pub const LIVE: Size = Size {
        meters: 200_000,
        contracts: 1_024,
        window: 1,
        horizon_days: 120,
    };
    /// `fleet_replay`.
    pub const REPLAY: Size = Size {
        meters: 400_000,
        contracts: 8,
        window: 16,
        horizon_days: 150,
    };
}

/// Contract `c` of the population: a TOU schedule with seeded rates, and
/// every fourth contract each without and with a demand charge and a fee.
fn contract(seed: u64, c: usize) -> Contract {
    let mut rng = Rng::new(seed, c as u64);
    let base = rng.range(0.05, 0.09);
    let mut b = Contract::builder("meter-contract").tariff(Tariff::TimeOfUse(TouTariff {
        windows: vec![
            TouWindow {
                months: Some(MonthSet::summer()),
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(14, 0),
                to: TimeOfDay::new(20, 0),
                price: EnergyPrice::per_kilowatt_hour(base * rng.range(2.5, 3.5)),
            },
            TouWindow {
                months: None,
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(7, 0),
                to: TimeOfDay::new(22, 0),
                price: EnergyPrice::per_kilowatt_hour(base * rng.range(1.3, 1.7)),
            },
        ],
        base: EnergyPrice::per_kilowatt_hour(base),
    }));
    if c % 2 == 1 {
        b = b.demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(
            rng.range(8.0, 16.0),
        )));
    }
    if c % 4 >= 2 {
        b = b.monthly_fee(Money::from_dollars(rng.range(50.0, 500.0)));
    }
    b.build().expect("generated meter contracts are valid")
}

/// Load-shape class `class` at `tick`: a diurnal swing with a per-class
/// phase and a weekend dip.
fn profile(class: usize, tick: usize) -> f64 {
    let hour = (tick % TICKS_PER_DAY) as f64 * 0.25;
    let phase = 12.0 + class as f64;
    let weekend = if (tick / TICKS_PER_DAY) % 7 >= 5 {
        0.8
    } else {
        1.0
    };
    weekend * (1.0 + 0.35 * ((hour - phase) / 24.0 * std::f64::consts::TAU).cos())
}

/// Meter `i`'s power at `tick`, given the class shapes of that tick.
fn power(scale: &[f64], i: usize, shapes: &[f64]) -> Power {
    Power::from_kilowatts(scale[i] * shapes[i % PROFILES])
}

/// The generator: refill `frames` in place with ticks `tick..`.
fn fill(frames: &mut [TickFrame], scale: &[f64], tick: usize) {
    let _s = trace::span("fleet.generator");
    for (w, frame) in frames.iter_mut().enumerate() {
        let shapes: Vec<f64> = (0..PROFILES).map(|c| profile(c, tick + w)).collect();
        for (i, p) in frame.powers_mut().iter_mut().enumerate() {
            *p = power(scale, i, &shapes);
        }
    }
}

/// Feed `frames` to the fleet: one frame through `advance_frame`, more
/// through the fused `advance_window`.
fn advance(fleet: &mut MeterFleet, frames: &[TickFrame]) -> Result<FleetTickReport, CoreError> {
    let _s = trace::span("fleet.advance");
    match frames {
        [frame] => fleet.advance_frame(frame),
        _ => fleet.advance_window(frames),
    }
}

struct Setup {
    kernels: Vec<Arc<CompiledContract>>,
    fleet: MeterFleet,
    /// Per-meter size, in kW.
    scale: Vec<f64>,
    frames: Vec<TickFrame>,
    /// The next tick to feed.
    tick: usize,
}

fn set_up(p: &Params, size: &Size) -> Result<Setup, String> {
    let cal = Calendar::default();
    let (start, end) = (SimTime::EPOCH, SimTime::from_days(size.horizon_days));
    let kernels: Vec<Arc<CompiledContract>> = {
        let _s = trace::span("compiled.compile");
        (0..size.contracts)
            .map(|c| {
                let k = CompiledContract::compile(&cal, &contract(p.seed, c), start, end)
                    .expect("meter contracts compile");
                Arc::new(k.with_precision(Precision::BitExact))
            })
            .collect()
    };
    let mut fleet = MeterFleet::new(cal, start, end);
    let step = Duration::from_minutes(15.0);
    let ids: Arc<[MeterId]> = {
        let _s = trace::span("fleet.register");
        (0..size.meters)
            .map(|i| {
                fleet
                    .register_compiled(Arc::clone(&kernels[i % size.contracts]), start, step)
                    .expect("kernels share the fleet's horizon")
            })
            .collect()
    };
    let mut rng = Rng::new(p.seed, 0xF1EE7);
    let scale: Vec<f64> = (0..size.meters).map(|_| rng.range(5.0, 500.0)).collect();
    let mut frames: Vec<TickFrame> = (0..size.window)
        .map(|_| {
            TickFrame::new(Arc::clone(&ids), vec![Power::ZERO; size.meters])
                .expect("lanes have equal length")
        })
        .collect();
    let mut tick = 0;
    while tick < WARMUP_TICKS {
        fill(&mut frames, &scale, tick);
        let report = advance(&mut fleet, &frames).map_err(|e| e.to_string())?;
        if report.applied != size.meters * size.window {
            return Err(format!("warm-up tick {tick}: {report:?}"));
        }
        tick += size.window;
    }
    Ok(Setup {
        kernels,
        fleet,
        scale,
        frames,
        tick,
    })
}

/// Run the workload at `size` for `p.seconds`.
pub fn run(p: &Params, size: &Size) -> Measured {
    let request = if size.window == 1 { "tick" } else { "window" };
    let mut m = Measured::new("meter-samples", request);
    let Setup {
        kernels,
        mut fleet,
        scale,
        mut frames,
        mut tick,
    } = match m.set_up(p, || set_up(p, size)) {
        Ok(s) => s,
        Err(e) => {
            m.check(format!("set-up: {e}"), false);
            return m;
        }
    };

    let max_ticks = size.horizon_days as usize * TICKS_PER_DAY;
    let (mut applied, mut dropped, mut quarantined) = (0u64, 0u64, 0u64);
    let mut clock = Clock::start(p.seconds);
    while clock.another_if(tick + size.window <= max_ticks) {
        fill(&mut frames, &scale, tick);
        let t = Instant::now();
        let report = advance(&mut fleet, &frames);
        let secs = t.elapsed().as_secs_f64();
        m.requests_ms.push(secs * 1e3);
        let offered = (size.meters * size.window) as u64;
        m.attempted += offered;
        match report {
            Ok(r) => {
                m.batch(r.applied as f64, secs);
                applied += r.applied as u64;
                dropped += r.dropped as u64;
                quarantined += r.newly_quarantined.len() as u64;
                m.failed += offered - r.applied as u64;
            }
            Err(e) => {
                m.batch(0.0, secs);
                m.failed += offered;
                m.check(format!("tick {tick}: {e}"), false);
            }
        }
        tick += size.window;
    }

    let t = Instant::now();
    let bills = {
        let _s = trace::span("fleet.finalize");
        fleet.finalize_all()
    };
    println!("finalize_all: {:.3} s", t.elapsed().as_secs_f64());

    m.check("every offered sample was applied", applied == m.attempted);
    m.check(
        "no meter was quarantined",
        quarantined == 0 && fleet.quarantined().is_empty(),
    );
    match bills {
        Ok(bills) => {
            m.check("every meter has a bill", bills.len() == size.meters);
            for (id, bill) in &bills {
                m.digest ^= mix(id.0 as u64, bill.total().as_dollars().to_bits());
            }
            // Gate: sampled meters' streamed bills equal the batch bill of
            // the series they were fed.
            let mut rng = Rng::new(p.seed, 0x6A7E);
            let step = Duration::from_minutes(15.0);
            let matches = (0..GATED_METERS.min(size.meters)).all(|_| {
                let i = rng.below(size.meters);
                let series = Series::from_fn(SimTime::EPOCH, step, tick, |t| {
                    let k = (t.as_secs() / step.as_secs()) as usize;
                    let shapes: Vec<f64> = (0..PROFILES).map(|c| profile(c, k)).collect();
                    power(&scale, i, &shapes)
                });
                let batch = series.map(|s| kernels[i % size.contracts].bill(&s));
                matches!((batch, bills.get(i)), (Ok(Ok(b)), Some((id, streamed)))
                    if id.0 == i && b == *streamed)
            });
            m.check(
                format!("{GATED_METERS} sampled meters bill bit-identically to batch"),
                matches,
            );
        }
        Err(e) => m.check(format!("finalize_all: {e}"), false),
    }

    let stats = fleet.stats();
    let (hits, misses) = kernels
        .iter()
        .map(|k| k.segment_map_stats())
        .fold((0, 0), |(h, m), (a, b)| (h + a, m + b));
    m.counter("fleet.shards", stats.shards as f64);
    m.counter("fleet.bytes_per_meter", stats.bytes_per_meter);
    m.counter("fleet.kernel_reuse_rate", stats.kernel_reuse_rate());
    m.counter("fleet.plan_builds", stats.plan_builds as f64);
    m.counter("fleet.plan_hits", stats.plan_hits as f64);
    m.counter("fleet.dropped", dropped as f64);
    m.counter("fleet.quarantined", quarantined as f64);
    m.counter("compiled.compiles", kernels.len() as f64);
    m.counter(
        "compiled.segment_map_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_are_correct() {
        let _serial = crate::trace::serial();
        for window in [1, 16] {
            let size = Size {
                meters: 1_000,
                contracts: 16,
                window,
                horizon_days: 2,
            };
            let p = Params {
                seed: 3,
                seconds: 0.2,
                setups: 1,
            };
            let m = run(&p, &size);
            assert!(m.correct(), "window {window}: {:?}", m.checks);
            assert!(!m.requests_ms.is_empty());
            assert_eq!(m.work(), m.attempted as f64);
        }
    }

    #[test]
    fn population_contracts_are_distinct() {
        let fps: std::collections::HashSet<_> = (0..64)
            .map(|c| hpcgrid_core::fingerprint::of_contract(&contract(1, c)).0)
            .collect();
        assert_eq!(fps.len(), 64);
    }
}
