//! `pipeline` — the paper's question for every surveyed site: what does
//! each kind of contract cost us?
//!
//! One request is one site-month of the ten Table-1 catalog sites: a month
//! of synthetic jobs (`workload`), scheduled with EASY backfill
//! (`scheduler`), turned into a 15-minute facility load (`facility`), a
//! regional market cleared for the month (`grid`), and a 48-contract
//! typology population compiled and billed against that load (`compiled`):
//! {fixed, day/night, utility TOU, dynamic strip} × demand charge ×
//! powerband × {no, mild, strict} emergency clause, each with a fee. The
//! emergency events are the month's tightest market hours. Each pass runs
//! every site under four trace seeds as scenarios of one
//! `SweepRunner::run_fold` with an in-memory cache (`engine`), folding the
//! bills into a cost table per component kind.
//!
//! Why: it is the only workload whose time sits in the workload, scheduler,
//! facility and grid layers. It bypasses the meter fleet and the ledger,
//! and gives the engine only forty scenarios a pass. Sites are scheduled at
//! blade granularity (at most [`MAX_BLADES`] schedulable units) so that
//! every machine, from GSI's 64 nodes to ORNL's 33 000, carries an offered
//! load of 0.6–0.9 with a few thousand jobs a month; GSI is deliberately
//! overloaded, which keeps a deep queue in front of the backfill pass.

use crate::harness::{mix, Clock, Measured, Params, Rng};
use crate::trace;
use hpcgrid_core::billing::{BillingEngine, Precision};
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::emergency::EmergencyDrClause;
use hpcgrid_core::powerband::Powerband;
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_core::typology::ContractComponentKind;
use hpcgrid_engine::{ScenarioSpec, SweepRunner};
use hpcgrid_facility::catalog::all_sites;
use hpcgrid_facility::node::NodeSpec;
use hpcgrid_facility::site::SiteSpec;
use hpcgrid_grid::demand::{demand_series, DemandParams};
use hpcgrid_grid::dispatch::MeritOrderMarket;
use hpcgrid_grid::generation::GeneratorFleet;
use hpcgrid_grid::renewables::{solar_series, wind_series, SolarParams, WindParams};
use hpcgrid_scheduler::policy::Policy;
use hpcgrid_scheduler::sim::ScheduleSimulator;
use hpcgrid_timeseries::intervals::{Interval, IntervalSet};
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries};
use hpcgrid_units::{
    Calendar, DemandPrice, Duration, EnergyPrice, Money, MonthSet, Power, SimTime, TimeOfDay,
};
use hpcgrid_workload::job::{Job, JobKind};
use hpcgrid_workload::trace::WorkloadBuilder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Largest schedulable machine, in blades of whole nodes.
pub const MAX_BLADES: usize = 1_024;

/// Offered load per catalog site, in `all_sites()` order (ECMWF, GSI, JSC,
/// HLRS, LRZ, CSCS, LANL, NCSA, ORNL, LLNL). GSI runs overloaded.
const TARGET_LOAD: [f64; 10] = [0.75, 1.05, 0.8, 0.7, 0.85, 0.65, 0.9, 0.8, 0.6, 0.85];

/// Seed of the probe trace every site plan is calibrated on.
const PROBE_SEED: u64 = 0x5173;

/// Component kinds in cost-table order; the last column is service fees.
const KINDS: [ContractComponentKind; 6] = [
    ContractComponentKind::FixedTariff,
    ContractComponentKind::TimeOfUseTariff,
    ContractComponentKind::DynamicTariff,
    ContractComponentKind::DemandCharge,
    ContractComponentKind::Powerband,
    ContractComponentKind::EmergencyDr,
];
const COLUMNS: usize = KINDS.len() + 1;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Catalog sites, taken in Table-1 order.
    pub sites: usize,
    /// Trace seeds per site per pass.
    pub traces_per_site: usize,
    /// Days per site-month.
    pub days: u64,
    /// Jobs per site-month, approximately.
    pub jobs: f64,
}

impl Size {
    /// The measured size: ten sites × four traces of a 30-day month.
    pub const FULL: Size = Size {
        sites: 10,
        traces_per_site: 4,
        days: 30,
        jobs: 10_000.0,
    };
}

/// One site, scaled to blades and sized to its target offered load.
struct SitePlan {
    /// The catalog site with blades in place of nodes: same facility power.
    site: SiteSpec,
    blades: usize,
    arrivals_per_hour: f64,
    runtime_h: f64,
}

/// Schedule `spec` in blades of whole nodes, and pick the arrival rate and
/// mean runtime that give about `size.jobs` jobs at `load` offered load.
///
/// The plan is part of the workload's definition, so it is calibrated on
/// one fixed probe trace: were it drawn from the run's seed, every
/// site-month of a run would share that probe's sampling error, and runs
/// would differ in offered load rather than only in their traces.
fn plan_site(spec: &SiteSpec, load: f64, size: &Size) -> SitePlan {
    let per_blade = spec.node_count.div_ceil(MAX_BLADES);
    let blades = spec.node_count / per_blade;
    let g = per_blade as f64;
    let blade = NodeSpec::new(
        spec.node_spec.idle * g,
        spec.node_spec.max * g,
        spec.node_spec.dvfs_levels.clone(),
    )
    .expect("a scaled catalog node is valid");
    let site = SiteSpec::new(
        spec.name.clone(),
        spec.country,
        blades,
        blade,
        spec.pue_full,
        spec.pue_idle,
        spec.feeder_rating,
        spec.office_load,
    )
    .expect("blades never exceed the catalog site's power");
    // One probe month at a 1 h mean runtime calibrates the builder's
    // arrival profile and job-size mix for this site. Regular jobs'
    // node-time scales with the arrival rate and the mean runtime; the
    // weekly full-machine benchmarks' does not.
    let rate = size.jobs / (size.days as f64 * 24.0);
    let probe = builder(PROBE_SEED, blades, size, rate, 1.0).build();
    let count_scale = size.jobs / probe.len().max(1) as f64;
    let (benchmarks, regular): (Vec<&Job>, Vec<&Job>) = probe
        .jobs()
        .iter()
        .partition(|j| j.kind == JobKind::Benchmark);
    let node_secs = |jobs: &[&Job]| jobs.iter().map(|j| j.node_seconds() as f64).sum::<f64>();
    let capacity = (blades as u64 * probe.horizon.as_secs()) as f64;
    let runtime_h = (load * capacity - node_secs(&benchmarks)).max(0.0)
        / (node_secs(&regular) * count_scale).max(1.0);
    let arrivals_per_hour = rate * count_scale;
    SitePlan {
        site,
        blades,
        arrivals_per_hour,
        runtime_h,
    }
}

fn builder(seed: u64, blades: usize, size: &Size, rate: f64, runtime_h: f64) -> WorkloadBuilder {
    WorkloadBuilder::new(seed)
        .nodes(blades)
        .days(size.days)
        .arrivals_per_hour(rate)
        .mean_runtime_hours(runtime_h)
        .deferrable_fraction(0.2)
        .benchmark_every_days(7)
}

/// The regional market every site-month clears against.
fn regional_market() -> MeritOrderMarket {
    let fleet = GeneratorFleet::synthetic_regional(Power::from_megawatts(3_000.0), 0.10)
        .expect("the synthetic regional fleet is valid");
    MeritOrderMarket::new(fleet)
}

/// A utility-shaped TOU schedule: a summer weekday peak, a weekday
/// shoulder and a night rate.
fn utility_tou() -> Tariff {
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
        ],
        base: EnergyPrice::per_kilowatt_hour(0.05),
    })
}

/// The 48-contract typology population for a site with peak facility
/// power `peak`, the dynamic tariffs riding on `strip`.
fn typology(peak: Power, strip: &PriceSeries) -> Vec<Contract> {
    let tariffs = [
        ("fixed", Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07))),
        (
            "day_night",
            Tariff::day_night(
                EnergyPrice::per_kilowatt_hour(0.10),
                EnergyPrice::per_kilowatt_hour(0.05),
            ),
        ),
        ("utility_tou", utility_tou()),
        (
            "dynamic",
            Tariff::dynamic(
                strip.clone(),
                EnergyPrice::per_kilowatt_hour(0.02),
                EnergyPrice::per_kilowatt_hour(0.08),
            ),
        ),
    ];
    let mut out = Vec::with_capacity(48);
    for (name, tariff) in &tariffs {
        for demand in [false, true] {
            for band in [false, true] {
                for emergency in [None, Some(0.7), Some(0.5)] {
                    let mut b = Contract::builder(*name)
                        .tariff(tariff.clone())
                        .monthly_fee(Money::from_dollars(2_000.0));
                    if demand {
                        b = b.demand_charge(DemandCharge::monthly(
                            DemandPrice::per_kilowatt_month(12.0),
                        ));
                    }
                    if band {
                        b = b.powerband(Powerband::ceiling(
                            peak * 0.85,
                            EnergyPrice::per_kilowatt_hour(0.45),
                        ));
                    }
                    if let Some(f) = emergency {
                        b = b.emergency(EmergencyDrClause::reference(peak * f));
                    }
                    out.push(b.build().expect("typology contracts are valid"));
                }
            }
        }
    }
    out
}

/// Counters the scenario closures add to from the engine's workers.
#[derive(Default)]
struct Tally {
    jobs: AtomicU64,
    compiles: AtomicU64,
    samples_billed: AtomicU64,
    map_hits: AtomicU64,
    map_misses: AtomicU64,
}

/// Which billing path a site-month uses: the compiled kernels it is timed
/// on, or the interpreter the correctness gate compares them with.
#[derive(Clone, Copy, PartialEq)]
enum Billing {
    Compiled,
    Interpreted,
}

/// A month of the site's facility load at 15-minute metering: jobs,
/// schedule, then the facility model.
fn month_load(
    plan: &SitePlan,
    size: &Size,
    trace_seed: u64,
    tally: &Tally,
) -> Result<PowerSeries, String> {
    let trace = {
        let _s = trace::span("workload.build");
        builder(
            trace_seed,
            plan.blades,
            size,
            plan.arrivals_per_hour,
            plan.runtime_h,
        )
        .build()
    };
    tally.jobs.fetch_add(trace.len() as u64, Ordering::Relaxed);
    let outcome = {
        let _s = trace::span("scheduler.run");
        ScheduleSimulator::new(plan.blades, Policy::EasyBackfill)
            .try_run(&trace)
            .map_err(|e| e.to_string())?
    };
    let _s = trace::span("facility.load_series");
    Ok(outcome
        .to_load_series_with_step(&plan.site, Duration::from_minutes(15.0))
        .slice_time(SimTime::EPOCH, SimTime::from_days(size.days)))
}

/// One month of catalog site `index`'s facility load, as [`month_load`]
/// gives it.
pub fn site_load(index: usize, size: &Size, seed: u64) -> Result<PowerSeries, String> {
    let sites = all_sites();
    let plan = plan_site(&sites[index], TARGET_LOAD[index], size);
    month_load(&plan, size, seed, &Tally::default())
}

/// One site-month through every layer: per-kind costs and a digest of
/// every bill's line items.
fn site_month(
    plan: &SitePlan,
    market: &MeritOrderMarket,
    size: &Size,
    trace_seed: u64,
    grid_seed: u64,
    billing: Billing,
    tally: &Tally,
) -> Result<(Vec<f64>, u64), String> {
    let cal = Calendar::default();
    let (start, end) = (SimTime::EPOCH, SimTime::from_days(size.days));
    let load = month_load(plan, size, trace_seed, tally)?;
    let (strip, events) = {
        let _s = trace::span("grid.market");
        let hours = (size.days * 24) as usize;
        let hour = Duration::from_hours(1.0);
        let demand = demand_series(
            &DemandParams::default(),
            &cal,
            start,
            hour,
            hours,
            grid_seed,
        )
        .map_err(|e| e.to_string())?;
        let solar = solar_series(
            &SolarParams {
                capacity: Power::from_megawatts(400.0),
                ..Default::default()
            },
            &cal,
            start,
            hour,
            hours,
            grid_seed,
        )
        .map_err(|e| e.to_string())?;
        let wind = wind_series(
            &WindParams {
                capacity: Power::from_megawatts(500.0),
                ..Default::default()
            },
            start,
            hour,
            hours,
            grid_seed,
        )
        .map_err(|e| e.to_string())?;
        let renewables = solar.add_series(&wind).map_err(|e| e.to_string())?;
        let cleared = market
            .dispatch(&demand, Some(&renewables))
            .map_err(|e| e.to_string())?;
        // The three tightest hours of the month are the ESP's emergencies.
        let mut tight: Vec<usize> = (0..cleared.reserve.len()).collect();
        let reserve = Power::kilowatts_slice(cleared.reserve.values());
        tight.sort_by(|&a, &b| reserve[a].total_cmp(&reserve[b]));
        let events = IntervalSet::from_intervals(
            tight
                .iter()
                .take(3)
                .map(|&i| Interval::from_duration(cleared.reserve.time_at(i), hour))
                .collect(),
        );
        (cleared.prices, events)
    };

    let contracts = typology(plan.site.peak_facility_power(), &strip);
    let bills = match billing {
        Billing::Compiled => {
            let kernels: Vec<CompiledContract> = {
                let _s = trace::span("compiled.compile");
                contracts
                    .iter()
                    .map(|c| {
                        CompiledContract::compile(&cal, c, start, end)
                            .map(|k| k.with_precision(Precision::BitExact))
                    })
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?
            };
            tally
                .compiles
                .fetch_add(kernels.len() as u64, Ordering::Relaxed);
            let bills = {
                let _s = trace::span("compiled.bill");
                kernels
                    .iter()
                    .map(|k| k.bill_with_events(&load, &events))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?
            };
            for k in &kernels {
                let (h, m) = k.segment_map_stats();
                tally.map_hits.fetch_add(h, Ordering::Relaxed);
                tally.map_misses.fetch_add(m, Ordering::Relaxed);
            }
            tally
                .samples_billed
                .fetch_add((load.len() * kernels.len()) as u64, Ordering::Relaxed);
            bills
        }
        Billing::Interpreted => {
            let engine = BillingEngine::new(cal).with_precision(Precision::BitExact);
            contracts
                .iter()
                .map(|c| engine.bill_with_events(c, &load, &events))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?
        }
    };

    let mut costs = vec![0.0; COLUMNS];
    let mut digest = 0;
    for bill in &bills {
        for item in &bill.items {
            let col = item
                .kind
                .and_then(|k| KINDS.iter().position(|&x| x == k))
                .unwrap_or(KINDS.len());
            costs[col] += item.amount.as_dollars();
            digest = mix(digest, item.amount.as_dollars().to_bits());
        }
    }
    Ok((costs, digest))
}

/// The fold over a pass: the cost table plus each site-month's identity
/// and bill digest, for the correctness gate.
#[derive(Clone, Default)]
struct Table {
    costs: Vec<f64>,
    scenarios: Vec<[u64; 3]>,
}

impl Table {
    fn add(&mut self, costs: &[f64]) {
        self.costs.resize(COLUMNS, 0.0);
        for (a, c) in self.costs.iter_mut().zip(costs) {
            *a += c;
        }
    }
}

fn fold(mut acc: Table, (costs, id): (Vec<f64>, Vec<u64>)) -> Table {
    acc.add(&costs);
    acc.scenarios.push([id[0], id[1], id[2]]);
    acc
}

fn merge(mut a: Table, b: Table) -> Table {
    a.add(&b.costs);
    a.scenarios.extend(b.scenarios);
    a
}

fn spec(site: &SitePlan, index: usize, trace_seed: u64, days: u64) -> ScenarioSpec {
    ScenarioSpec::builder("pipeline")
        .site(site.site.name.clone())
        .trace_seed(trace_seed)
        .horizon_days(days)
        .policy("easy_backfill")
        .precision(Precision::BitExact.label())
        .param("site_index", index as i64)
        .build()
}

/// Run the workload at `size` for `p.seconds`.
pub fn run(p: &Params, size: &Size) -> Measured {
    let mut m = Measured::new("site-months", "site-month");
    let (plans, market) = m.set_up(p, || {
        let plans: Vec<SitePlan> = all_sites()
            .iter()
            .zip(TARGET_LOAD)
            .take(size.sites)
            .map(|(s, load)| plan_site(s, load, size))
            .collect();
        (plans, regional_market())
    });

    let tally = Tally::default();
    let latencies = Mutex::new(Vec::new());
    let mut rng = Rng::new(p.seed, 0x5EED);
    let mut total = Table::default();
    let (mut executed, mut retries, mut busy, mut worker_wall) = (0.0, 0.0, 0.0, 0.0);
    let mut clock = Clock::start(p.seconds);
    while clock.another() {
        let specs: Vec<ScenarioSpec> = (0..plans.len() * size.traces_per_site)
            .map(|k| {
                let site = k % plans.len();
                spec(&plans[site], site, rng.next_u64(), size.days)
            })
            .collect();
        let mut runner: SweepRunner<(Vec<f64>, Vec<u64>)> = SweepRunner::new();
        let t = Instant::now();
        let out = {
            let _s = trace::span("engine.fold");
            let parent = trace::current();
            runner.run_fold(
                &specs,
                |ctx| {
                    let t0 = Instant::now();
                    let _s = trace::span_under(parent, "bench.site_month");
                    let site = ctx.spec.param_i64("site_index")? as usize;
                    let trace_seed = ctx.spec.trace_seed;
                    let (costs, digest) = site_month(
                        &plans[site],
                        &market,
                        size,
                        trace_seed,
                        ctx.seed,
                        Billing::Compiled,
                        &tally,
                    )?;
                    latencies
                        .lock()
                        .expect("latency log poisoned")
                        .push(t0.elapsed().as_secs_f64() * 1e3);
                    Ok((costs, vec![site as u64, trace_seed, digest]))
                },
                Table::default(),
                fold,
                merge,
            )
        };
        m.batch(out.value.scenarios.len() as f64, t.elapsed().as_secs_f64());
        m.attempted += specs.len() as u64;
        m.failed += out.errors.len() as u64;
        let r = &out.report;
        executed += r.executed as f64;
        retries += r.retries as f64;
        busy += r.worker_busy.iter().map(|b| b.as_secs_f64()).sum::<f64>();
        worker_wall += r.wall.as_secs_f64() * r.workers as f64;
        total = merge(total, out.value);
    }
    m.requests_ms = latencies.into_inner().expect("latency log poisoned");
    let recorded = &total.scenarios;
    for s in recorded {
        m.digest ^= mix(s[1], s[2]);
    }

    // Gate: re-run sampled site-months with the interpreter and compare
    // every bill bit for bit with what the timed run folded.
    let _quiet = trace::Paused::new();
    let mut gate = Rng::new(p.seed, 0x6A7E);
    let mut samples: Vec<[u64; 3]> = Vec::new();
    if let Some(gsi) = recorded.iter().find(|s| s[0] == 1) {
        samples.push(*gsi);
    }
    if !recorded.is_empty() {
        samples.push(recorded[gate.below(recorded.len())]);
    }
    for [site, trace_seed, digest] in samples {
        let plan = &plans[site as usize];
        let grid_seed = spec(plan, site as usize, trace_seed, size.days).derived_seed();
        let scratch = Tally::default();
        let interpreted = site_month(
            plan,
            &market,
            size,
            trace_seed,
            grid_seed,
            Billing::Interpreted,
            &scratch,
        );
        m.check(
            format!("{} site-month bills match the interpreter", plan.site.name),
            matches!(interpreted, Ok((_, d)) if d == digest),
        );
    }
    m.check("every pass completed", m.work() > 0.0);

    let columns = [
        "fixed",
        "tou",
        "dynamic",
        "demand",
        "powerband",
        "emergency",
        "fees",
    ];
    let table: Vec<String> = columns
        .iter()
        .zip(&total.costs)
        .map(|(name, dollars)| format!("{name} {:.2}", dollars / 1e6))
        .collect();
    println!(
        "cost table over {} site-months ($M): {}",
        recorded.len(),
        table.join(", ")
    );
    let jobs = tally.jobs.load(Ordering::Relaxed) as f64;
    let (hits, misses) = (
        tally.map_hits.load(Ordering::Relaxed) as f64,
        tally.map_misses.load(Ordering::Relaxed) as f64,
    );
    m.counter("workload.jobs", jobs);
    m.counter(
        "compiled.compiles",
        tally.compiles.load(Ordering::Relaxed) as f64,
    );
    m.counter(
        "compiled.samples",
        tally.samples_billed.load(Ordering::Relaxed) as f64,
    );
    m.counter(
        "compiled.segment_map_hit_rate",
        hits / (hits + misses).max(1.0),
    );
    m.counter("engine.executed", executed);
    m.counter("engine.retries", retries);
    m.counter("engine.failed", m.failed as f64);
    m.counter("engine.worker_busy_share", busy / worker_wall.max(1e-9));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        sites: 2,
        traces_per_site: 1,
        days: 3,
        jobs: 120.0,
    };

    #[test]
    fn blade_plans_keep_facility_power_and_hit_their_load() {
        for (spec, load) in all_sites().iter().zip(TARGET_LOAD) {
            let plan = plan_site(spec, load, &Size::FULL);
            assert!(plan.blades <= MAX_BLADES);
            let ratio = plan.site.peak_facility_power().as_kilowatts()
                / spec.peak_facility_power().as_kilowatts();
            assert!(
                (0.95..=1.0 + 1e-9).contains(&ratio),
                "{}: {ratio}",
                spec.name
            );
            let trace = builder(
                9,
                plan.blades,
                &Size::FULL,
                plan.arrivals_per_hour,
                plan.runtime_h,
            )
            .build();
            let offered = trace.offered_load();
            assert!(
                (load * 0.8..load * 1.2).contains(&offered),
                "{}: offered {offered:.2}, target {load}",
                spec.name
            );
        }
    }

    #[test]
    fn typology_has_48_distinct_contracts() {
        let strip = PriceSeries::constant(
            SimTime::EPOCH,
            Duration::from_hours(1.0),
            EnergyPrice::per_kilowatt_hour(0.05),
            24,
        )
        .unwrap();
        let contracts = typology(Power::from_megawatts(10.0), &strip);
        let distinct: std::collections::HashSet<u64> = contracts
            .iter()
            .map(|c| hpcgrid_core::fingerprint::of_contract(c).0)
            .collect();
        assert_eq!(distinct.len(), 48);
    }

    #[test]
    fn smoke_run_is_correct() {
        let _serial = crate::trace::serial();
        let p = Params {
            seed: 5,
            seconds: 0.0,
            setups: 1,
        };
        let m = run(&p, &TINY);
        assert!(m.correct(), "{:?}", m.checks);
        assert_eq!(m.work(), 2.0);
        assert_eq!(m.requests_ms.len(), 2);
        assert_eq!(m.attempted, 2);
    }
}
