//! `sweep_rerun` — an analyst re-running a large contract sweep in one
//! session, revising a tenth of it each time.
//!
//! Set-up runs the sweep once cold on the `SweepRunner` the session keeps:
//! every scenario compiles and bills one contract variant (TOU + demand
//! charge + fee) against a shared site-month load. One request is one
//! re-run: `run_fold_journaled` over the sweep with a new revision of one
//! tenth of the variants, so nine results in ten come from the engine's
//! result cache and one in ten is compiled, billed, cached and journaled.
//! Between requests the cache is put back to the cold run's results, so
//! every re-run meets the same cache and memory does not grow with the
//! number of re-runs that fit in the run.
//!
//! Why: its time goes to the engine — hashing every spec, probing the
//! cache, folding and journaling every result — with compile and bill only
//! for the revised tenth.
//!
//! The cache is the runner's memory tier, not an artifact directory. On
//! shared 2-vCPU virtual machines (AMD EPYC, 32 MB L3), the same re-run
//! through an artifact directory (index walk, one file per artifact, inode
//! creation for every put) varied by 13–40 % from run to run, beyond any
//! bound a metric could hold, while the re-run from memory varies by a few
//! percent. The artifact tier is still exercised: the correctness gate
//! writes the last re-run's revised results as binary artifacts and reads
//! them back through a fresh runner.

use crate::harness::{dir_bytes, mix, Clock, Measured, Params, Rng, ScratchDir};
use crate::pipeline;
use crate::trace;
use hpcgrid_core::billing::Precision;
use hpcgrid_core::compiled::CompiledContract;
use hpcgrid_core::contract::Contract;
use hpcgrid_core::demand_charge::DemandCharge;
use hpcgrid_core::tariff::{DayFilter, Tariff, TouTariff, TouWindow};
use hpcgrid_engine::{ArtifactFormat, ScenarioCtx, ScenarioSpec, SharedInputs, SweepRunner};
use hpcgrid_timeseries::series::PowerSeries;
use hpcgrid_units::{Calendar, DemandPrice, EnergyPrice, Money, SimTime, TimeOfDay};
use std::sync::Arc;
use std::time::Instant;

/// Disjoint slices of the sweep; request `k` revises slice `k % SLICES`.
const SLICES: usize = 10;
/// Catalog index of the site whose load every scenario bills (HLRS).
const SITE: usize = 3;
const LOAD_KEY: &str = "series/site_load";

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Scenarios in the sweep.
    pub scenarios: usize,
    /// The site-month the shared load comes from.
    pub month: pipeline::Size,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        scenarios: 10_000,
        month: pipeline::Size::FULL,
    };
}

/// The contract a spec describes: a TOU schedule around its energy rate,
/// a demand charge and a service fee.
fn variant(spec: &ScenarioSpec) -> Result<Contract, String> {
    let energy = spec.param_f64("energy")?;
    let price = |f: f64| EnergyPrice::per_kilowatt_hour(energy * f);
    Contract::builder("variant")
        .tariff(Tariff::TimeOfUse(TouTariff {
            windows: vec![
                TouWindow {
                    months: None,
                    days: DayFilter::WeekdaysOnly,
                    from: TimeOfDay::new(14, 0),
                    to: TimeOfDay::new(20, 0),
                    price: price(2.5),
                },
                TouWindow {
                    months: None,
                    days: DayFilter::All,
                    from: TimeOfDay::new(22, 0),
                    to: TimeOfDay::new(6, 0),
                    price: price(0.6),
                },
            ],
            base: price(1.0),
        }))
        .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(
            spec.param_f64("demand")?,
        )))
        .monthly_fee(Money::from_dollars(spec.param_f64("fee")?))
        .build()
        .map_err(|e| e.to_string())
}

/// Compile a spec's variant and bill the load: the result folded for it.
fn evaluate(spec: &ScenarioSpec, load: &PowerSeries, days: u64) -> Result<(f64, u64), String> {
    let contract = variant(spec)?;
    let kernel = {
        let _s = trace::span("compiled.compile");
        CompiledContract::compile(
            &Calendar::default(),
            &contract,
            SimTime::EPOCH,
            SimTime::from_days(days),
        )
        .map_err(|e| e.to_string())?
        .with_precision(Precision::BitExact)
    };
    let bill = {
        let _s = trace::span("compiled.bill");
        kernel.bill(load).map_err(|e| e.to_string())?
    };
    Ok((bill.total().as_dollars(), spec.param_i64("id")? as u64))
}

/// One scenario, as the engine runs it.
fn scenario(ctx: ScenarioCtx<'_>, parent: Option<u64>, days: u64) -> Result<(f64, u64), String> {
    let _s = trace::span_under(parent, "bench.scenario");
    let load: Arc<PowerSeries> = ctx.shared.expect(LOAD_KEY)?;
    evaluate(ctx.spec, &load, days)
}

/// Per-slice checksums of a fold, plus how many results it folded.
type Sums = (Vec<u64>, u64);

fn fold((mut sums, n): Sums, (dollars, id): (f64, u64)) -> Sums {
    sums.resize(SLICES, 0);
    sums[id as usize % SLICES] ^= mix(id, dollars.to_bits());
    (sums, n + 1)
}

fn merge((mut a, n): Sums, (b, m): Sums) -> Sums {
    a.resize(SLICES, 0);
    for (x, y) in a.iter_mut().zip(&b) {
        *x ^= y;
    }
    (a, n + m)
}

fn base_spec(seed: u64, id: usize, days: u64) -> ScenarioSpec {
    let mut rng = Rng::new(seed, id as u64);
    ScenarioSpec::builder("sweep_rerun")
        .site("HLRS")
        .horizon_days(days)
        .precision(Precision::BitExact.label())
        .param("id", id as i64)
        .param("energy", rng.range(0.04, 0.12))
        .param("demand", rng.range(6.0, 18.0))
        .param("fee", rng.range(500.0, 3_000.0))
        .build()
}

/// The sweep as request `k` submits it: the base specs, with slice
/// `k % SLICES` revised to a service fee no earlier request used.
fn request_specs(base: &[ScenarioSpec], k: u64) -> Result<Vec<ScenarioSpec>, String> {
    let slice = k as usize % SLICES;
    base.iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut spec = spec.clone();
            if i % SLICES == slice {
                let fee = spec.param_f64("fee")? + (k + 1) as f64;
                spec.params.insert("fee".into(), fee.into());
            }
            Ok(spec)
        })
        .collect()
}

struct Setup {
    /// The session's runner; its cache holds the cold run's results.
    runner: SweepRunner<(f64, u64)>,
    load: Arc<PowerSeries>,
    base: Vec<ScenarioSpec>,
    /// The cold run's result for each base spec.
    results: Vec<(f64, u64)>,
    /// The cold run's per-slice checksums.
    cold: Vec<u64>,
}

fn set_up(p: &Params, size: &Size) -> Result<Setup, String> {
    let days = size.month.days;
    let load = Arc::new(pipeline::site_load(SITE, &size.month, p.seed)?);
    let mut shared = SharedInputs::new();
    shared.insert_arc(LOAD_KEY, Arc::clone(&load));
    let base: Vec<ScenarioSpec> = (0..size.scenarios)
        .map(|i| base_spec(p.seed, i, days))
        .collect();
    let mut runner = SweepRunner::new().shared_inputs(shared);
    let cold = {
        let _s = trace::span("engine.fold");
        let parent = trace::current();
        runner.run_fold(
            &base,
            |ctx| scenario(ctx, parent, days),
            (vec![0; SLICES], 0),
            fold,
            merge,
        )
    };
    if !cold.errors.is_empty() || cold.report.executed != base.len() {
        return Err(format!(
            "cold sweep: {} errors, {} of {} executed",
            cold.errors.len(),
            cold.report.executed,
            base.len()
        ));
    }
    let results = base
        .iter()
        .map(|spec| match runner.cache_mut().get(spec.content_hash()) {
            Ok(Some((result, _))) => Ok(result),
            other => Err(format!("cold result missing from the cache: {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        runner,
        load,
        base,
        results,
        cold: cold.value.0,
    })
}

/// Write `specs`' results as binary artifacts through one fresh runner and
/// read them back through another: the fold of what was read, if it read
/// everything and computed nothing.
fn artifact_round_trip(
    dir: &ScratchDir,
    specs: &[ScenarioSpec],
    load: &Arc<PowerSeries>,
    days: u64,
) -> Result<Vec<u64>, String> {
    let artifacts = dir.path().join("artifacts");
    let runner = || -> Result<SweepRunner<(f64, u64)>, String> {
        let mut shared = SharedInputs::new();
        shared.insert_arc(LOAD_KEY, Arc::clone(load));
        Ok(
            SweepRunner::with_artifact_dir_and_format(&artifacts, ArtifactFormat::Binary)
                .map_err(|e| e.to_string())?
                .shared_inputs(shared),
        )
    };
    let f = |ctx: ScenarioCtx<'_>| scenario(ctx, None, days);
    let written = runner()?.run_fold(specs, f, (vec![0; SLICES], 0), fold, merge);
    let read = runner()?.run_fold(specs, f, (vec![0; SLICES], 0), fold, merge);
    let r = &read.report;
    if !written.errors.is_empty() || r.executed != 0 || r.artifact_hits != specs.len() {
        return Err(format!(
            "read back {} of {} artifacts, executed {}",
            r.artifact_hits,
            specs.len(),
            r.executed
        ));
    }
    Ok(read.value.0)
}

/// Run the workload at `size` for `p.seconds`.
pub fn run(p: &Params, size: &Size) -> Measured {
    let mut m = Measured::new("scenarios", "re-run");
    let setup = m.set_up(p, || set_up(p, size));
    let (mut s, dir) = match (setup, ScratchDir::new("sweep_rerun")) {
        (Ok(s), Ok(dir)) => (s, dir),
        (Err(e), _) => {
            m.check(format!("set-up: {e}"), false);
            return m;
        }
        (_, Err(e)) => {
            m.check(format!("scratch directory: {e}"), false);
            return m;
        }
    };
    let days = size.month.days;
    let journal = dir.path().join("sweep.journal");
    let (mut exact_executions, mut unchanged_match, mut whole) = (true, true, true);
    let mut journal_bytes = 0;
    let (mut executed, mut memory_hits, mut retries) = (0.0, 0.0, 0.0);
    let (mut busy, mut worker_wall) = (0.0, 0.0);
    // The last completed request and its revised slice's checksum.
    let mut last: Option<(u64, u64)> = None;
    let mut k = 0u64;
    let mut clock = Clock::start(p.seconds);
    while clock.another() {
        let slice = k as usize % SLICES;
        let specs = match request_specs(&s.base, k) {
            Ok(specs) => specs,
            Err(e) => {
                m.check(format!("revised specs: {e}"), false);
                break;
            }
        };
        let revised_n = (0..specs.len()).filter(|i| i % SLICES == slice).count();

        let t = Instant::now();
        let outcome = {
            let _req = trace::span("bench.rerun");
            let _s = trace::span("engine.fold");
            let parent = trace::current();
            s.runner.run_fold_journaled(
                &journal,
                &specs,
                |ctx| scenario(ctx, parent, days),
                (vec![0; SLICES], 0),
                fold,
            )
        };
        let secs = t.elapsed().as_secs_f64();
        m.requests_ms.push(secs * 1e3);
        m.attempted += specs.len() as u64;

        match outcome {
            Ok(out) => {
                let r = &out.report;
                m.batch((r.total - r.failed) as f64, secs);
                m.failed += r.failed as u64;
                exact_executions &= r.executed == revised_n;
                whole &= !r.interrupted && out.value.1 == specs.len() as u64;
                unchanged_match &= (0..SLICES)
                    .filter(|&i| i != slice)
                    .all(|i| out.value.0.get(i) == s.cold.get(i));
                executed += r.executed as f64;
                memory_hits += r.memory_hits as f64;
                retries += r.retries as f64;
                busy += r.worker_busy.iter().map(|b| b.as_secs_f64()).sum::<f64>();
                worker_wall += r.wall.as_secs_f64() * r.workers as f64;
                let sum = out.value.0.get(slice).copied().unwrap_or(0);
                m.digest ^= mix(k, sum);
                last = Some((k, sum));
            }
            Err(e) => {
                m.batch(0.0, secs);
                m.failed += specs.len() as u64;
                m.check(format!("re-run {k}: {e}"), false);
            }
        }
        // Back to the cold run's cache; the next request creates its
        // journal afresh rather than truncating this one.
        let cache = s.runner.cache_mut();
        cache.clear_memory();
        for (spec, result) in s.base.iter().zip(&s.results) {
            if let Err(e) = cache.put(spec, result) {
                m.check(format!("restoring the cache: {e}"), false);
                break;
            }
        }
        journal_bytes = std::fs::metadata(&journal).map_or(0, |md| md.len());
        let _ = std::fs::remove_file(&journal);
        k += 1;
    }

    m.check(
        "every re-run executed exactly the revised tenth",
        exact_executions,
    );
    m.check("every re-run folded every spec", whole);
    m.check(
        "unrevised specs fold to the cold run's checksums",
        unchanged_match,
    );
    // Gates on the last re-run's revised slice: recomputed without the
    // engine, and round-tripped through binary artifacts, it folds to the
    // checksum the session produced.
    let _quiet = trace::Paused::new();
    if let Some((k, sum)) = last {
        let slice = k as usize % SLICES;
        let revised: Vec<ScenarioSpec> = request_specs(&s.base, k)
            .unwrap_or_default()
            .into_iter()
            .skip(slice)
            .step_by(SLICES)
            .collect();
        let direct = revised.iter().try_fold(0u64, |acc, spec| {
            let (dollars, id) = evaluate(spec, &s.load, days)?;
            Ok::<u64, String>(acc ^ mix(id, dollars.to_bits()))
        });
        m.check(
            "revised results match a direct compile and bill",
            direct == Ok(sum),
        );
        let round_trip = artifact_round_trip(&dir, &revised, &s.load, days);
        m.check(
            "revised results round-trip through binary artifacts",
            matches!(&round_trip, Ok(sums) if sums.get(slice) == Some(&sum)),
        );
    }

    m.counter("engine.executed", executed);
    m.counter("engine.memory_hits", memory_hits);
    m.counter("engine.failed", m.failed as f64);
    m.counter("engine.retries", retries);
    m.counter("engine.worker_busy_share", busy / worker_wall.max(1e-9));
    m.counter("engine.journal_bytes", journal_bytes as f64);
    m.counter(
        "engine.artifact_bytes",
        dir_bytes(&dir.path().join("artifacts")) as f64,
    );
    m.counter("compiled.compiles", executed);
    m.counter("compiled.samples", executed * s.load.len() as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_correct() {
        let _serial = crate::trace::serial();
        let size = Size {
            scenarios: 200,
            month: pipeline::Size {
                sites: 10,
                traces_per_site: 1,
                days: 3,
                jobs: 100.0,
            },
        };
        let p = Params {
            seed: 11,
            seconds: 0.3,
            setups: 2,
        };
        let m = run(&p, &size);
        assert!(m.correct(), "{:?}", m.checks);
        assert!(m.requests_ms.len() >= 2, "several re-runs fit in 0.3 s");
        assert_eq!(m.work(), (200 * m.requests_ms.len()) as f64);
        assert_eq!(m.setup_s.len(), 2);
    }
}
