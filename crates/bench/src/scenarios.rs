//! Canonical scenarios shared by experiments and benches.
//!
//! One reference facility, one reference workload, one reference market —
//! so every experiment sweeps parameters against the same baseline world
//! and results are comparable across experiment binaries.
//!
//! Experiments that sweep a parameter axis do so through the
//! `hpcgrid-engine` orchestration layer: build [`hpcgrid_engine::ScenarioSpec`]s with
//! [`experiment_spec`], run them on an [`experiment_runner`], and print the
//! engine's `RunReport` next to the result table. Set `HPCGRID_SWEEP_CACHE`
//! to a directory to persist results between runs (re-running an experiment
//! then only recomputes changed scenarios).
//!
//! This module is the experiment binaries' edge: the only place their
//! shared knobs are read from the environment. The libraries take every
//! knob as a value; an unset or empty variable means the library default,
//! and a malformed value stops the binary with an error naming the
//! variable.
//!
//! * `HPCGRID_PRECISION` (`bit_exact` or `fast`, read once) — the
//!   precision [`bill`], [`bill_many`], [`compile_contract`] and
//!   [`experiment_spec`] use. Kernels the libraries compile themselves
//!   (a fleet's or a ledger's) stay bit-exact.
//! * `HPCGRID_SWEEP_CACHE`, `HPCGRID_SWEEP_ARTIFACT_FORMAT` and
//!   `HPCGRID_FAILPOINTS` — how [`experiment_runner`] builds each runner.
//!
//! Heavy per-sweep substrate — compiled kernels, load and price series —
//! rides into scenario closures through the engine's zero-copy
//! [`hpcgrid_engine::SharedInputs`] registry rather than ad-hoc closure
//! captures: stock a registry with [`share_kernel`] / [`share_series`],
//! attach it with `SweepRunner::shared_inputs`, and read entries back by
//! key via `ctx.shared` inside the closure.

use hpcgrid_core::billing::{BillingEngine, Precision};
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::tariff::Tariff;
use hpcgrid_engine::{
    ArtifactFormat, FailpointSet, ScenarioSpecBuilder, SharedInputs, SweepRunner,
};
use hpcgrid_facility::node::NodeSpec;
use hpcgrid_facility::site::{Country, SiteSpec};
use hpcgrid_grid::demand::{demand_series, DemandParams};
use hpcgrid_grid::dispatch::MeritOrderMarket;
use hpcgrid_grid::generation::GeneratorFleet;
use hpcgrid_grid::renewables::{solar_series, wind_series, SolarParams, WindParams};
use hpcgrid_scheduler::metrics::SimOutcome;
use hpcgrid_scheduler::policy::Policy;
use hpcgrid_scheduler::sim::ScheduleSimulator;
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries};
use hpcgrid_units::{Calendar, DemandPrice, Duration, EnergyPrice, Money, Power, SimTime};
use hpcgrid_workload::trace::{JobTrace, WorkloadBuilder};
use std::sync::{Arc, OnceLock};

/// The default experiment horizon: 30 days.
pub const HORIZON_DAYS: u64 = 30;
/// Metering resolution for experiment load series.
pub fn meter_step() -> Duration {
    Duration::from_minutes(15.0)
}

/// The reference 512-node experiment site (small enough for fast sweeps,
/// same shape as the flagship sites).
pub fn reference_site() -> SiteSpec {
    SiteSpec::new(
        "exp-site",
        Country::UnitedStates,
        512,
        NodeSpec::reference_hpc(),
        1.1,
        1.35,
        Power::from_megawatts(1.0),
        Power::from_kilowatts(20.0),
    )
    .expect("reference experiment site is valid")
}

/// The reference workload: 30 busy days on 512 nodes with deferrable jobs
/// and a weekly full-machine benchmark.
pub fn reference_trace(seed: u64) -> JobTrace {
    WorkloadBuilder::new(seed)
        .nodes(512)
        .days(HORIZON_DAYS)
        .arrivals_per_hour(18.0)
        .deferrable_fraction(0.25)
        .benchmark_every_days(7)
        .build()
}

/// Run the reference trace and return (outcome, facility load).
pub fn reference_run(seed: u64) -> (SimOutcome, PowerSeries) {
    let site = reference_site();
    let trace = reference_trace(seed);
    let outcome = ScheduleSimulator::new(trace.machine_nodes, Policy::EasyBackfill).run(&trace);
    let load = outcome.to_load_series_with_step(&site, meter_step());
    (outcome, load)
}

/// The reference wholesale market: a 3 GW region with renewables, cleared
/// hourly over the horizon. Returns the dynamic price strip.
pub fn reference_market_prices(seed: u64, days: u64) -> PriceSeries {
    let cal = Calendar::default();
    let n = (days * 24) as usize;
    let step = Duration::from_hours(1.0);
    let start = SimTime::EPOCH;
    let peak = Power::from_megawatts(3_000.0);
    let demand =
        demand_series(&DemandParams::default(), &cal, start, step, n, seed).expect("valid demand");
    let solar = solar_series(
        &SolarParams {
            capacity: Power::from_megawatts(400.0),
            ..Default::default()
        },
        &cal,
        start,
        step,
        n,
        seed,
    )
    .expect("valid solar");
    let wind = wind_series(
        &WindParams {
            capacity: Power::from_megawatts(500.0),
            ..Default::default()
        },
        start,
        step,
        n,
        seed,
    )
    .expect("valid wind");
    let renewables = solar.add_series(&wind).expect("aligned renewables");
    let fleet = GeneratorFleet::synthetic_regional(peak, 0.10).expect("valid fleet");
    let market = MeritOrderMarket::new(fleet);
    market
        .dispatch(&demand, Some(&renewables))
        .expect("dispatch succeeds")
        .prices
}

/// The baseline "survey-typical" contract: fixed tariff + monthly demand
/// charge (the most common Table 2 combination).
pub fn typical_contract() -> Contract {
    Contract::builder("typical")
        .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
        .monthly_fee(Money::from_dollars(1_000.0))
        .build()
        .expect("typical contract is valid")
}

/// Read the edge variable `var` and parse its value (`None` when unset or
/// empty). A malformed value stops the binary with an error naming `var`.
fn edge<T>(var: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let parsed = match std::env::var(var) {
        Ok(value) => parse(Some(value.as_str()).filter(|v| !v.is_empty())),
        Err(std::env::VarError::NotPresent) => parse(None),
        Err(e) => Err(e.to_string()),
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {var}: {e}");
        std::process::exit(2)
    })
}

/// `HPCGRID_PRECISION`: a [`Precision`] label, [`Precision::BitExact`] by
/// default.
fn parse_precision(value: Option<&str>) -> Result<Precision, String> {
    value.map_or(Ok(Precision::BitExact), |v| {
        v.parse()
            .map_err(|_| format!("unknown precision '{v}' (expected 'bit_exact' or 'fast')"))
    })
}

/// `HPCGRID_SWEEP_ARTIFACT_FORMAT`: an [`ArtifactFormat`] label,
/// [`ArtifactFormat::Binary`] by default.
fn parse_artifact_format(value: Option<&str>) -> Result<ArtifactFormat, String> {
    let Some(v) = value else {
        return Ok(ArtifactFormat::Binary);
    };
    [ArtifactFormat::Binary, ArtifactFormat::Json]
        .into_iter()
        .find(|f| v.eq_ignore_ascii_case(f.label()))
        .ok_or_else(|| format!("unknown artifact format '{v}' (expected 'binary' or 'json')"))
}

/// `HPCGRID_FAILPOINTS`: a failpoint configuration (grammar in
/// [`hpcgrid_engine::chaos`]), the inert set by default.
fn parse_failpoints(value: Option<&str>) -> Result<FailpointSet, String> {
    FailpointSet::parse(value.unwrap_or(""))
}

/// The precision the experiment helpers bill at: `HPCGRID_PRECISION`, read
/// once.
fn precision() -> Precision {
    static PRECISION: OnceLock<Precision> = OnceLock::new();
    *PRECISION.get_or_init(|| edge("HPCGRID_PRECISION", parse_precision))
}

/// A billing engine under the default calendar at the edge precision.
fn engine() -> BillingEngine {
    BillingEngine::new(Calendar::default()).with_precision(precision())
}

/// Bill a load under a contract with the default calendar.
pub fn bill(contract: &Contract, load: &PowerSeries) -> hpcgrid_core::billing::Bill {
    engine()
        .bill(contract, load)
        .expect("billing succeeds on experiment loads")
}

/// Bill many loads under one contract with the default calendar. The
/// contract is compiled once (segment timelines + month-boundary index) and
/// evaluation fans out across threads; bills are bit-identical to [`bill`]
/// and returned in load order.
pub fn bill_many(contract: &Contract, loads: &[PowerSeries]) -> Vec<hpcgrid_core::billing::Bill> {
    engine()
        .bill_many(contract, loads)
        .expect("batch billing succeeds on experiment loads")
}

/// Compile a contract under the default calendar for loads inside
/// `[start, end)` — the shared kernel for sweeps whose scenarios differ only
/// in load.
pub fn compile_contract(
    contract: &Contract,
    start: SimTime,
    end: SimTime,
) -> hpcgrid_core::compiled::CompiledContract {
    engine()
        .compile(contract, start, end)
        .expect("experiment contracts compile")
}

/// Start a [`hpcgrid_engine::ScenarioSpec`] pre-filled with the reference
/// world's identity (site, horizon) so specs — and therefore cache keys —
/// from different experiment binaries agree on what the baseline is.
///
/// The edge billing [`Precision`] (the `HPCGRID_PRECISION` selection the
/// experiment helpers bill under) is recorded as the reserved `precision`
/// param, so bit-exact and fast runs of one experiment cache under
/// different content hashes and can never serve each other's results.
pub fn experiment_spec(experiment: &str, trace_seed: u64) -> ScenarioSpecBuilder {
    hpcgrid_engine::ScenarioSpec::builder(experiment)
        .site("exp-site")
        .trace_seed(trace_seed)
        .horizon_days(HORIZON_DAYS)
        .precision(precision().label())
}

/// A sweep runner for experiment binaries, configured at the edge:
///
/// * `HPCGRID_SWEEP_CACHE` — when set, results persist as content-addressed
///   artifacts under that directory and re-runs only compute the delta;
///   otherwise the cache is in-memory (still deduplicates within one
///   process).
/// * `HPCGRID_SWEEP_ARTIFACT_FORMAT` — the artifact encoding: `binary`
///   (compact and checksummed, the default) or `json`.
/// * `HPCGRID_FAILPOINTS` — fault injection, parsed fresh for every runner
///   so its triggers count that runner's hits only.
pub fn experiment_runner<R>() -> SweepRunner<R>
where
    R: Clone + Send + serde::Serialize + serde::Deserialize,
{
    let format = edge("HPCGRID_SWEEP_ARTIFACT_FORMAT", parse_artifact_format);
    let runner = match std::env::var("HPCGRID_SWEEP_CACHE") {
        Ok(dir) if !dir.is_empty() => SweepRunner::with_artifact_dir_and_format(dir, format)
            .expect("HPCGRID_SWEEP_CACHE directory is creatable"),
        _ => SweepRunner::new(),
    };
    runner.chaos(edge("HPCGRID_FAILPOINTS", parse_failpoints))
}

/// Register a compiled kernel in a [`SharedInputs`] registry under the
/// workspace key convention (`kernel/<fingerprint hex>`), returning the key
/// scenario closures look it up with
/// (`ctx.shared.expect::<CompiledContract>(&key)?`). The `Arc` is shared,
/// not cloned: a sweep, a [`hpcgrid_core::fleet::MeterFleet`], and the
/// driver can all hold the same compiled kernel.
pub fn share_kernel(
    shared: &mut SharedInputs,
    kernel: Arc<hpcgrid_core::compiled::CompiledContract>,
) -> String {
    let key = hpcgrid_engine::kernel_key(&kernel.fingerprint().to_hex());
    shared.insert_arc(key.clone(), kernel);
    key
}

/// Register a named series (load strip, price strip, …) in a
/// [`SharedInputs`] registry under the `series/<name>` convention,
/// returning the key scenario closures look it up with.
pub fn share_series<T: std::any::Any + Send + Sync>(
    shared: &mut SharedInputs,
    name: &str,
    series: T,
) -> String {
    let key = hpcgrid_engine::series_key(name);
    shared.insert(key.clone(), series);
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_run_produces_busy_machine() {
        let (outcome, load) = reference_run(1);
        assert!(
            outcome.utilization() > 0.3,
            "util {}",
            outcome.utilization()
        );
        assert!(load.peak().unwrap() > Power::from_kilowatts(100.0));
        assert!(load.peak().unwrap() <= reference_site().feeder_rating);
    }

    #[test]
    fn reference_market_prices_vary() {
        let prices = reference_market_prices(3, 7);
        assert_eq!(prices.len(), 7 * 24);
        let min = prices.values().iter().fold(f64::INFINITY, |a, p| {
            a.min(p.as_dollars_per_kilowatt_hour())
        });
        let max = prices
            .values()
            .iter()
            .fold(0.0f64, |a, p| a.max(p.as_dollars_per_kilowatt_hour()));
        assert!(max > min, "prices should vary: {min}..{max}");
    }

    #[test]
    fn typical_bill_is_positive() {
        let (_, load) = reference_run(2);
        let b = bill(&typical_contract(), &load);
        assert!(b.total() > Money::ZERO);
        assert!(b.demand_share() > 0.0);
    }

    #[test]
    fn experiment_specs_record_the_active_precision() {
        let spec = experiment_spec("demo", 1).build();
        assert_eq!(
            spec.precision(),
            Some(precision().label()),
            "specs must pin the precision their results were billed at"
        );
    }

    #[test]
    fn precision_edge_value_parses_or_errors() {
        assert_eq!(parse_precision(None), Ok(Precision::BitExact));
        assert_eq!(parse_precision(Some("fast")), Ok(Precision::Fast));
        assert_eq!(parse_precision(Some("bit_exact")), Ok(Precision::BitExact));
        let err = parse_precision(Some("turbo")).unwrap_err();
        assert!(err.contains("turbo"), "{err}");
    }

    #[test]
    fn artifact_format_edge_value_parses_or_errors() {
        assert_eq!(parse_artifact_format(None), Ok(ArtifactFormat::Binary));
        assert_eq!(
            parse_artifact_format(Some("binary")),
            Ok(ArtifactFormat::Binary)
        );
        assert_eq!(
            parse_artifact_format(Some("json")),
            Ok(ArtifactFormat::Json)
        );
        let err = parse_artifact_format(Some("yaml")).unwrap_err();
        assert!(err.contains("yaml"), "{err}");
    }

    #[test]
    fn failpoints_edge_value_parses_or_errors() {
        assert!(parse_failpoints(None).unwrap().is_empty());
        let set = parse_failpoints(Some("engine.scenario.panic=panic@nth:1")).unwrap();
        assert!(set.fire("engine.scenario.panic").is_some());
        assert!(parse_failpoints(Some("engine.scenario.panic=explode")).is_err());
    }

    #[test]
    fn shared_input_helpers_use_the_engine_key_conventions() {
        let contract = typical_contract();
        let kernel = Arc::new(compile_contract(
            &contract,
            SimTime::EPOCH,
            SimTime::from_days(HORIZON_DAYS),
        ));
        let mut shared = SharedInputs::new();
        let kernel_k = share_kernel(&mut shared, Arc::clone(&kernel));
        let series_k = share_series(&mut shared, "baseline", vec![1.0_f64, 2.0]);
        assert_eq!(
            kernel_k,
            hpcgrid_engine::kernel_key(&kernel.fingerprint().to_hex())
        );
        assert_eq!(series_k, hpcgrid_engine::series_key("baseline"));
        // share_kernel shares the Arc, it does not clone the kernel.
        let got: Arc<hpcgrid_core::compiled::CompiledContract> = shared.expect(&kernel_k).unwrap();
        assert!(Arc::ptr_eq(&got, &kernel));
        let series: Arc<Vec<f64>> = shared.expect(&series_k).unwrap();
        assert_eq!(*series, vec![1.0, 2.0]);
    }

    #[test]
    fn batch_and_compiled_bills_match_interpreted() {
        let (_, load) = reference_run(4);
        let contract = typical_contract();
        let loads = vec![load.clone(), load.scale(0.5), load.scale(2.0)];
        let batch = bill_many(&contract, &loads);
        for (l, b) in loads.iter().zip(&batch) {
            assert_eq!(bill(&contract, l), *b);
        }
        let compiled = compile_contract(&contract, load.start(), load.end());
        assert_eq!(compiled.bill(&load).unwrap(), bill(&contract, &load));
    }
}
