//! `renegotiate` — contract amendments against a `ContractLedger`.
//!
//! Each stream is a year-horizon contract with a dynamic price strip, a
//! utility TOU schedule, a demand charge and a service fee. Rounds are
//! monthly: in each, every stream takes one request — `append` an
//! amendment (rotating among a republished strip, a demand rate, a
//! powerband and a fee), then `kernel_at(head)`, then `bill_as_of` over the
//! stream's year of load. One request in ten instead retries the stream's
//! previous amendment under its idempotency key, which must be a no-op, and
//! one in fifty is backdated, which must be rejected; both are expected
//! outcomes, not failures. When the year runs out the ledger starts over
//! from its created contracts, outside the timed requests, so memory stays
//! bounded by one year of revisions.
//!
//! Why: it is the only workload that drives the ledger and the patch path,
//! and it mixes writes with as-of reads.

use crate::harness::{mix, Clock, Measured, Params, Rng};
use crate::trace;
use hpcgrid_core::billing::{Bill, Precision};
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::{Contract, ContractDelta};
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::ledger::{ContractId, ContractLedger};
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_grid::demand::{demand_series, DemandParams};
use hpcgrid_grid::dispatch::MeritOrderMarket;
use hpcgrid_grid::generation::GeneratorFleet;
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries, Series};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, MonthSet, Power, SimTime, TimeOfDay,
};
use std::time::Instant;

/// Days between rounds; effective dates fall on round boundaries.
const ROUND_DAYS: u64 = 30;
/// Streams the correctness gate re-derives from scratch.
const GATED_STREAMS: usize = 4;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Contract streams in the ledger.
    pub streams: usize,
    /// Amendment rounds per year; must fit in the horizon.
    pub rounds: u64,
    /// Ledger horizon.
    pub horizon_days: u64,
    /// Distinct load profiles the streams bill against.
    pub loads: usize,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        streams: 200,
        rounds: 11,
        horizon_days: 365,
        loads: 8,
    };
}

/// What one request asked of the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Amend,
    Retry,
    Backdated,
}

/// A stream's most recent applied amendment, for retries.
#[derive(Clone)]
struct Applied {
    delta: ContractDelta,
    key: String,
    effective: SimTime,
    revision: u64,
}

struct Inputs {
    strip: PriceSeries,
    contracts: Vec<Contract>,
    peaks: Vec<Power>,
    loads: Vec<PowerSeries>,
}

fn utility_tou() -> Tariff {
    Tariff::TimeOfUse(TouTariff {
        windows: vec![
            TouWindow {
                months: Some(MonthSet::summer()),
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(14, 0),
                to: TimeOfDay::new(20, 0),
                price: EnergyPrice::per_kilowatt_hour(0.06),
            },
            TouWindow {
                months: None,
                days: DayFilter::WeekdaysOnly,
                from: TimeOfDay::new(7, 0),
                to: TimeOfDay::new(22, 0),
                price: EnergyPrice::per_kilowatt_hour(0.03),
            },
        ],
        base: EnergyPrice::per_kilowatt_hour(0.01),
    })
}

/// A year of hourly regional prices, a contract per stream, and a year of
/// 15-minute site load per profile.
fn inputs(p: &Params, size: &Size) -> Inputs {
    let cal = Calendar::default();
    let hours = (size.horizon_days * 24) as usize;
    let demand = demand_series(
        &DemandParams::default(),
        &cal,
        SimTime::EPOCH,
        Duration::from_hours(1.0),
        hours,
        p.seed,
    )
    .expect("default demand parameters are valid");
    let market = MeritOrderMarket::new(
        GeneratorFleet::synthetic_regional(Power::from_megawatts(3_000.0), 0.10)
            .expect("the synthetic regional fleet is valid"),
    );
    let strip = market
        .dispatch(&demand, None)
        .expect("the regional market clears")
        .prices;
    let mut rng = Rng::new(p.seed, 0x1ED6);
    let mut contracts = Vec::with_capacity(size.streams);
    let mut peaks = Vec::with_capacity(size.streams);
    for _ in 0..size.streams {
        let peak = Power::from_megawatts(rng.range(2.0, 30.0));
        contracts.push(
            Contract::builder("esp-agreement")
                .tariff(Tariff::dynamic(
                    strip.clone(),
                    EnergyPrice::per_kilowatt_hour(rng.range(0.005, 0.03)),
                    EnergyPrice::per_kilowatt_hour(0.09),
                ))
                .tariff(utility_tou())
                .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(
                    rng.range(8.0, 16.0),
                )))
                .monthly_fee(Money::from_dollars(rng.range(500.0, 5_000.0)))
                .build()
                .expect("stream contracts are valid"),
        );
        peaks.push(peak);
    }
    let loads = (0..size.loads)
        .map(|l| {
            let mw = 4.0 + 3.0 * l as f64;
            let phase = 13.0 + l as f64 * 0.5;
            Series::from_fn(
                SimTime::EPOCH,
                Duration::from_minutes(15.0),
                size.horizon_days as usize * 96,
                |t| {
                    let h = (t.as_secs() % 86_400) as f64 / 3_600.0;
                    let weekend = if (t.as_secs() / 86_400) % 7 >= 5 {
                        0.85
                    } else {
                        1.0
                    };
                    Power::from_megawatts(
                        mw * weekend
                            * (1.0 + 0.25 * ((h - phase) / 24.0 * std::f64::consts::TAU).cos()),
                    )
                },
            )
            .expect("load profiles are valid series")
        })
        .collect();
    Inputs {
        strip,
        contracts,
        peaks,
        loads,
    }
}

/// A fresh ledger with every stream created and its first kernel compiled.
fn ledger(inputs: &Inputs, size: &Size) -> (ContractLedger, Vec<ContractId>) {
    let mut ledger = ContractLedger::new(
        Calendar::default(),
        SimTime::EPOCH,
        SimTime::from_days(size.horizon_days),
    );
    let _s = trace::span("ledger.create");
    let ids = inputs
        .contracts
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let id = ledger
                .create(c.clone(), &format!("stream-{i}"), SimTime::EPOCH)
                .expect("creating a stream cannot fail");
            ledger.kernel_at(id, 0).expect("stream contracts compile");
            id
        })
        .collect();
    (ledger, ids)
}

/// The amendment stream `s` makes in `round`.
fn amendment(inputs: &Inputs, s: usize, round: u64) -> ContractDelta {
    let r = round as f64;
    match (s + round as usize) % 4 {
        0 => {
            let bump = 1.0 + 0.02 * ((s as f64 + r).sin());
            ContractDelta::price_strip(0, inputs.strip.map(|p| *p * bump))
        }
        1 => ContractDelta::SetDemandCharge(Some(DemandCharge::monthly(
            DemandPrice::per_kilowatt_month(10.0 + 0.25 * r),
        ))),
        2 => ContractDelta::SetPowerband(Some(Powerband::ceiling(
            inputs.peaks[s] * (0.8 + 0.01 * r),
            EnergyPrice::per_kilowatt_hour(0.4),
        ))),
        _ => ContractDelta::SetMonthlyFee(Money::from_dollars(1_000.0 + 25.0 * r)),
    }
}

/// Re-derive stream `id`'s head without the ledger's caches: the head
/// kernel must bill like a fresh compile of the hydrated head, and the
/// as-of bill like slicing the load at the effective dates by hand.
fn gate(ledger: &mut ContractLedger, id: ContractId, load: &PowerSeries) -> Result<bool, String> {
    let e = |e: hpcgrid_core::CoreError| e.to_string();
    let cal = *ledger.calendar();
    let (start, end) = ledger.horizon();
    let fresh = |ledger: &ContractLedger, rev: u64| -> Result<CompiledContract, String> {
        let k =
            CompiledContract::compile(&cal, &ledger.hydrate_at(id, rev).map_err(e)?, start, end)
                .map_err(e)?;
        Ok(k.with_precision(Precision::BitExact))
    };
    let head = ledger.head(id).map_err(e)?;
    let cached = ledger
        .kernel_at(id, head)
        .map_err(e)?
        .bill(load)
        .map_err(e)?;
    let head_ok = cached == fresh(ledger, head)?.bill(load).map_err(e)?;

    let asof = ledger.bill_as_of(id, load).map_err(e)?;
    let mut cuts: Vec<SimTime> = ledger
        .events(id)
        .map_err(e)?
        .iter()
        .map(|ev| ev.effective)
        .filter(|&t| t > load.start() && t < load.end())
        .collect();
    cuts.dedup();
    let mut bounds = vec![load.start()];
    bounds.extend(cuts);
    bounds.push(load.end());
    let mut manual: Vec<Bill> = Vec::new();
    for w in bounds.windows(2) {
        let rev = ledger.revision_at(id, w[0]).map_err(e)?;
        manual.push(
            fresh(ledger, rev)?
                .bill(&load.slice_time(w[0], w[1]))
                .map_err(e)?,
        );
    }
    let asof_ok = asof.slices.len() == manual.len()
        && asof.slices.iter().zip(&manual).all(|(s, b)| s.bill == *b);
    Ok(head_ok && asof_ok)
}

/// The read side of a request: the head revision's kernel, then the as-of
/// bill of the stream's load. Returns a digest of both.
fn serve(ledger: &mut ContractLedger, id: ContractId, load: &PowerSeries) -> Option<u64> {
    let head = ledger.head(id).ok()?;
    let kernel = {
        let _s = trace::span("ledger.kernel_at");
        ledger.kernel_at(id, head).ok()?
    };
    let bill = {
        let _s = trace::span("ledger.bill_as_of");
        ledger.bill_as_of(id, load).ok()?
    };
    Some(mix(
        kernel.fingerprint().0,
        bill.total().as_dollars().to_bits(),
    ))
}

/// Gate [`GATED_STREAMS`] seeded streams of a year's ledger.
fn gate_year(
    ledger: &mut ContractLedger,
    ids: &[ContractId],
    inputs: &Inputs,
    seed: u64,
    gated: &mut usize,
) -> bool {
    let mut g = Rng::new(seed, 0x6A7E);
    (0..GATED_STREAMS).all(|_| {
        let s = g.below(ids.len());
        *gated += 1;
        gate(ledger, ids[s], &inputs.loads[s % inputs.loads.len()]) == Ok(true)
    })
}

/// Run the workload at `size` for `p.seconds`.
pub fn run(p: &Params, size: &Size) -> Measured {
    let mut m = Measured::new("amendments", "amendment");
    let (inputs, (mut ledger, mut ids)) = m.set_up(p, || {
        let inputs = inputs(p, size);
        let ledger = ledger(&inputs, size);
        (inputs, ledger)
    });

    let mut rng = Rng::new(p.seed, 0xA3E4D);
    let mut last: Vec<Option<Applied>> = vec![None; size.streams];
    let (mut retries, mut rejected, mut years) = (0u64, 0u64, 0u64);
    let (mut gates_ok, mut gated, mut cache_len) = (true, 0, 0);
    let (mut round, mut stream) = (1u64, 0usize);
    let mut clock = Clock::start(p.seconds);
    while clock.another() {
        let s = stream;
        let id = ids[s];
        let effective = SimTime::from_days(ROUND_DAYS * round);
        let op = match &last[s] {
            Some(_) if rng.chance(0.02) => Op::Backdated,
            Some(_) if rng.chance(0.10) => Op::Retry,
            _ => Op::Amend,
        };
        let (delta, key, at) = match (op, &last[s]) {
            (Op::Retry, Some(a)) => (a.delta.clone(), a.key.clone(), a.effective),
            // A day before the stream's latest amendment took effect.
            (Op::Backdated, Some(a)) => (
                amendment(&inputs, s, round),
                format!("s{s}-r{round}-late"),
                SimTime::from_secs(a.effective.as_secs() - 86_400),
            ),
            _ => (
                amendment(&inputs, s, round),
                format!("s{s}-r{round}"),
                effective,
            ),
        };
        let load = &inputs.loads[s % inputs.loads.len()];

        let t = Instant::now();
        let outcome = {
            let _s = trace::span("ledger.append");
            ledger.append(id, delta.clone(), &key, at)
        };
        let expected = match (op, &outcome) {
            (Op::Backdated, Err(_)) => {
                rejected += 1;
                true
            }
            (Op::Retry, Ok(o)) => {
                retries += 1;
                !o.applied && last[s].as_ref().is_some_and(|a| a.revision == o.revision)
            }
            (Op::Amend, Ok(o)) => {
                last[s] = Some(Applied {
                    delta,
                    key,
                    effective: at,
                    revision: o.revision,
                });
                o.applied
            }
            _ => false,
        };
        let served = match op {
            Op::Backdated => Some(0),
            _ => serve(&mut ledger, id, load),
        };
        m.digest ^= served.unwrap_or(0);
        let secs = t.elapsed().as_secs_f64();
        m.requests_ms.push(secs * 1e3);
        m.batch(1.0, secs);
        m.attempted += 1;
        if !(expected && served.is_some()) {
            m.failed += 1;
        }

        stream += 1;
        if stream == size.streams {
            stream = 0;
            round += 1;
        }
        if round > size.rounds {
            // The year is over: gate it, then start the next from the
            // created contracts — all outside the timed requests.
            gates_ok &= gate_year(&mut ledger, &ids, &inputs, p.seed ^ years, &mut gated);
            cache_len = cache_len.max(ledger.kernel_cache().len());
            (ledger, ids) = self::ledger(&inputs, size);
            last = vec![None; size.streams];
            round = 1;
            years += 1;
        }
    }
    if round > 1 || stream > 0 {
        gates_ok &= gate_year(&mut ledger, &ids, &inputs, p.seed ^ years, &mut gated);
    }
    cache_len = cache_len.max(ledger.kernel_cache().len());

    m.check(
        format!("{gated} gated streams: kernel_at(head) and bill_as_of match fresh compiles"),
        gates_ok && gated > 0,
    );
    m.check(
        "retries were no-ops and backdated appends were rejected",
        m.failed == 0,
    );
    println!(
        "ledger: {years} full years replayed, {} retries, {} backdated rejected",
        retries, rejected
    );
    m.counter("ledger.kernel_cache_len", cache_len as f64);
    m.counter(
        "ledger.kernel_cache_hit_rate",
        ledger.kernel_cache().reuse_rate(),
    );
    m.counter("ledger.noop_retries", retries as f64);
    m.counter("ledger.rejected_backdated", rejected as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_correct() {
        let _serial = crate::trace::serial();
        let size = Size {
            streams: 10,
            rounds: 3,
            horizon_days: 120,
            loads: 2,
        };
        let p = Params {
            seed: 4,
            seconds: 0.5,
            setups: 1,
        };
        let m = run(&p, &size);
        assert!(m.correct(), "{:?}", m.checks);
        assert!(m.attempted >= 30, "at least one year of rounds");
        assert_eq!(m.requests_ms.len() as u64, m.attempted);
    }
}
