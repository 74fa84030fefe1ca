//! Experiment X8 (extension) — population-scale sweep-engine throughput.
//!
//! Measures the `hpcgrid-engine` orchestration layer itself at population
//! scale: 100 000 content-addressed scenarios (a per-site scale factor over
//! one shared load and one shared market strip) driven through
//! `SweepRunner::run_fold`, with results persisted as compact binary
//! artifacts under a sharded cache directory. Emits the measured numbers as
//! `BENCH_sweep.json` so the baseline is committed next to the code it
//! describes.
//!
//! Five quantities the PRs behind this bench claim:
//!
//! * **cold vs warm scenarios/sec** — cold executes every scenario and
//!   writes its artifact; warm is a fresh process-equivalent (new runner,
//!   same artifact dir) that serves the entire sweep from the artifact tier
//!   with zero executions;
//! * **probe latency, index vs filesystem** — a miss/hit probe answered by
//!   the in-memory artifact index (one `HashMap` lookup) against the
//!   pre-index behaviour of `stat`ing every candidate path;
//! * **artifact bytes, binary vs JSON** — the sweep's binary artifacts on
//!   disk against the same artifacts as pretty-printed JSON text in the
//!   layout the retired JSON tier wrote (`spec_hash`, `spec`, `result`,
//!   plus a newline), computed in memory;
//! * **journal overhead** — the warm artifact-served fold with every
//!   completion journaled (`run_fold_journaled`) against the plain warm
//!   fold; crash safety must cost at most a few percent. A resume smoke
//!   rides along: `SweepRunner::resume` over the finished journal must
//!   execute nothing and reproduce the aggregate bit-identically;
//! * **spec hashing, field walk vs value tree** — ns per spec for
//!   `ScenarioSpec::content_hash`, which feeds the spec's fields straight to
//!   the hasher, against `content_hash(&spec.to_value())`, which builds and
//!   walks the serde value tree; every spec's two digests must be equal.
//!
//! Correctness gates run before any timing: the warm artifact-served sweep
//! must reproduce the cold aggregate bit-identically (order-insensitive
//! checksum). Floors are asserted in release
//! builds only. The probe-speedup, journal-overhead and spec-hash gates each
//! check the median of [`REPEATS`] paired ratios, each ratio between two
//! best-of-three timings, so one noisy pass or pair cannot trip them; the
//! warm-throughput floor is a single pass.
//!
//! `HPCGRID_SWEEP_SCENARIOS` overrides the sweep size (CI smoke runs at
//! 5 000); `HPCGRID_BENCH_OUT` overrides the output path.

use hpcgrid_bench::scenarios::*;
use hpcgrid_bench::table::TextTable;
use hpcgrid_bench::timing::{best_of, paired, time_ns, REPEATS};
use hpcgrid_engine::{
    content_hash, ContentHash, ResultCache, ScenarioCtx, ScenarioSpec, SharedInputs, SweepRunner,
};
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries};
use hpcgrid_units::Power;
use serde::{Serialize, Value};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Committed-baseline sweep size; `HPCGRID_SWEEP_SCENARIOS` overrides.
const DEFAULT_SCENARIOS: usize = 100_000;
/// Scenarios in the pre-timing correctness gate.
const GATE_SCENARIOS: usize = 64;
/// Release floor: index probes must beat filesystem stat probes by this.
const FLOOR_PROBE_SPEEDUP: f64 = 5.0;
/// Release floor: the JSON text of the sweep's artifacts must weigh at least
/// this much more than the binary artifacts.
const FLOOR_BYTES_RATIO: f64 = 2.0;
/// Release floor: warm (artifact-served) sweep throughput, scenarios/sec.
const FLOOR_WARM_SCENARIOS_PER_SEC: f64 = 20_000.0;
/// Release ceiling: journaling a warm sweep may slow it by at most this
/// percentage over the plain warm fold.
const CEILING_JOURNAL_OVERHEAD_PCT: f64 = 10.0;
/// Release floor: hashing a spec from its fields must beat hashing its
/// serde value tree by this.
const FLOOR_SPEC_HASH_SPEEDUP: f64 = 2.0;

/// The streaming aggregate: dollar total for display, an order-insensitive
/// checksum (xor of result bits) for bit-identity gates, and a count.
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
struct Agg {
    dollars: f64,
    checksum: u64,
    count: u64,
}

fn fold(acc: Agg, dollars: f64) -> Agg {
    Agg {
        dollars: acc.dollars + dollars,
        checksum: acc.checksum ^ dollars.to_bits(),
        count: acc.count + 1,
    }
}

fn merge(a: Agg, b: Agg) -> Agg {
    Agg {
        dollars: a.dollars + b.dollars,
        checksum: a.checksum ^ b.checksum,
        count: a.count + b.count,
    }
}

/// The sweep axis: one spec per site-scale factor. Every spec shares the
/// reference world identity, so only `scale` separates content hashes.
fn sweep_specs(n: usize) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|i| {
            experiment_spec("sweep_throughput", 7)
                .contract("typical")
                .param("scale", 1.0 + i as f64 * 1e-6)
                .build()
        })
        .collect()
}

/// Total bytes of artifact files under `dir` (recursive over the shard
/// tree).
fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += dir_bytes(&path);
        } else if let Ok(meta) = entry.metadata() {
            total += meta.len();
        }
    }
    total
}

fn main() {
    println!("== X8: population-scale sweep-engine throughput ==\n");
    let n: usize = std::env::var("HPCGRID_SWEEP_SCENARIOS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= GATE_SCENARIOS)
        .unwrap_or(DEFAULT_SCENARIOS);

    let base = std::env::temp_dir().join(format!("hpcgrid-x8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let bin_dir = base.join("bin");

    // Shared substrate: one metered load and one market strip, registered
    // once in the zero-copy registry every scenario reads through.
    let (_, load) = reference_run(7);
    let strip = reference_market_prices(7, HORIZON_DAYS);
    let mut shared = SharedInputs::new();
    let load_k = share_series(&mut shared, "reference_load", load);
    let strip_k = share_series(&mut shared, "market_strip", strip);

    // The scenario: energy cost of the shared load under the shared strip,
    // scaled by the spec's site-scale factor. Deliberately cheap, so the
    // measurement is dominated by the engine (hashing, cache, artifacts,
    // fold), not by domain compute.
    let step_hours = 0.25;
    let scenario = move |ctx: ScenarioCtx<'_>| -> Result<f64, String> {
        let load: Arc<PowerSeries> = ctx.shared.expect(&load_k)?;
        let strip: Arc<PriceSeries> = ctx.shared.expect(&strip_k)?;
        let scale = ctx.spec.param_f64("scale")?;
        let kw = Power::kilowatts_slice(load.values());
        let prices = strip.values();
        let mut dollars = 0.0;
        for (i, p) in kw.iter().enumerate() {
            // The simulated load can drain a little past the 30-day strip;
            // bill the overhang at the final hour's price.
            let hour = (i / 4).min(prices.len() - 1);
            dollars += p * step_hours * prices[hour].as_dollars_per_kilowatt_hour();
        }
        Ok(dollars * scale)
    };
    let run_pass = |runner: &mut SweepRunner<f64>, specs: &[ScenarioSpec]| {
        let t = Instant::now();
        let outcome = runner.run_fold(specs, &scenario, Agg::default(), fold, merge);
        let secs = t.elapsed().as_secs_f64();
        (outcome, secs)
    };

    // Correctness gate first: a fresh runner over a freshly written artifact
    // dir must serve the whole gate sweep with zero executions and a
    // bit-identical aggregate.
    let gate_specs = sweep_specs(GATE_SCENARIOS);
    let gate_dir = base.join("gate");
    let mut cold = SweepRunner::with_artifact_dir(&gate_dir)
        .expect("gate cache dir is creatable")
        .shared_inputs(shared.clone());
    let (written, _) = run_pass(&mut cold, &gate_specs);
    let written = written.expect_all("gate cold sweep");
    let mut warm = SweepRunner::with_artifact_dir(&gate_dir)
        .expect("gate cache dir reopens")
        .shared_inputs(shared.clone());
    let (served, _) = run_pass(&mut warm, &gate_specs);
    assert_eq!(
        served.report.executed, 0,
        "gate: second run must be fully artifact-served"
    );
    let served = served.expect_all("gate warm sweep");
    assert_eq!(
        written.checksum, served.checksum,
        "gate: artifact round trip must be bit-identical"
    );
    println!(
        "correctness: {GATE_SCENARIOS} scenarios round-trip bit-identical through binary \
         artifacts, zero re-executions\n"
    );

    // Cold pass: every scenario executes and persists a binary artifact.
    let specs = sweep_specs(n);
    let mut cold_runner = SweepRunner::with_artifact_dir(&bin_dir)
        .expect("artifact dir is creatable")
        .shared_inputs(shared.clone());
    let (cold_outcome, cold_s) = run_pass(&mut cold_runner, &specs);
    assert_eq!(
        cold_outcome.report.executed, n,
        "cold pass executes everything"
    );
    let cold_agg = cold_outcome.expect_all("cold sweep");
    drop(cold_runner);

    // Warm pass: a fresh runner (index rebuilt by one walk at open) serves
    // the identical sweep entirely from the artifact tier.
    let t_open = Instant::now();
    let mut warm_runner = SweepRunner::with_artifact_dir(&bin_dir)
        .expect("artifact dir reopens")
        .shared_inputs(shared.clone());
    let index_build_s = t_open.elapsed().as_secs_f64();
    let (warm_outcome, warm_s) = run_pass(&mut warm_runner, &specs);
    let warm_report = warm_outcome.report.clone();
    assert_eq!(
        warm_report.executed, 0,
        "warm pass must not execute anything"
    );
    assert_eq!(warm_report.artifact_hits, n, "warm pass is artifact-served");
    let warm_agg = warm_outcome.expect_all("warm sweep");
    assert_eq!(
        cold_agg.checksum, warm_agg.checksum,
        "warm aggregate must be bit-identical to the cold one"
    );
    drop(warm_runner);

    // Journal overhead: the identical warm artifact-served fold with every
    // completion journaled and plain, each side the best of three passes
    // through fresh runners, in REPEATS pairs; the median ratio decides, so
    // neither one slow filesystem flush nor one slow pair does.
    let journal_path = base.join("sweep.journal");
    let mut journaled_agg = Agg::default();
    let (journaled_s, plain_s, journal_ratio) = paired(
        || {
            best_of(3, || {
                let _ = std::fs::remove_file(&journal_path);
                let mut journaled = SweepRunner::with_artifact_dir(&bin_dir)
                    .expect("artifact dir reopens for journaled timing")
                    .shared_inputs(shared.clone());
                let t = Instant::now();
                let outcome = journaled
                    .run_fold_journaled(&journal_path, &specs, &scenario, Agg::default(), fold)
                    .expect("journaled warm sweep");
                let secs = t.elapsed().as_secs_f64();
                assert_eq!(
                    outcome.report.executed, 0,
                    "journaled warm pass is artifact-served"
                );
                assert!(
                    !outcome.report.interrupted,
                    "journaled pass runs to the end"
                );
                journaled_agg = outcome.value;
                secs
            })
        },
        || {
            best_of(3, || {
                let mut plain = SweepRunner::with_artifact_dir(&bin_dir)
                    .expect("artifact dir reopens for plain timing")
                    .shared_inputs(shared.clone());
                let (plain_outcome, secs) = run_pass(&mut plain, &specs);
                assert_eq!(
                    plain_outcome.report.executed, 0,
                    "plain warm pass is served"
                );
                secs
            })
        },
    );
    assert_eq!(
        cold_agg.checksum, journaled_agg.checksum,
        "journaled aggregate must be bit-identical to the cold one"
    );
    let journal_overhead_pct = (journal_ratio - 1.0) * 100.0;

    // Resume smoke: a memory-only runner resuming the finished journal must
    // replay everything and execute nothing — crash recovery costs zero
    // re-execution even with no artifact cache behind it.
    let mut resumer: SweepRunner<f64> = SweepRunner::new().shared_inputs(shared.clone());
    let t_resume = Instant::now();
    let resumed = resumer
        .resume(&journal_path, &specs, &scenario, Agg::default(), fold)
        .expect("resume over the finished journal");
    let resume_s = t_resume.elapsed().as_secs_f64();
    assert_eq!(resumed.report.executed, 0, "resume re-executes nothing");
    assert_eq!(
        resumed.report.journal_replayed, n,
        "resume replays the whole journal"
    );
    assert_eq!(
        cold_agg.checksum, resumed.value.checksum,
        "resumed aggregate must be bit-identical to the cold one"
    );
    let journal_bytes = std::fs::metadata(&journal_path)
        .map(|m| m.len())
        .unwrap_or(0);

    // Probe latency: a fresh cache (index populated by the open walk,
    // memory tier empty) answers presence probes from the index; the
    // pre-index `probe_disk_stat` path stats candidate files. Same keys for
    // both.
    let probe_cache: RefCell<ResultCache<f64>> = RefCell::new(
        ResultCache::with_artifact_dir(&bin_dir).expect("artifact dir reopens for probing"),
    );
    let keys: Vec<_> = specs.iter().map(|s| s.content_hash()).collect();
    let stat_sample = keys.len().min(20_000);
    assert!(
        keys.iter().all(|k| probe_cache.borrow_mut().contains(*k)),
        "index must know every written artifact"
    );
    assert!(
        keys[..stat_sample]
            .iter()
            .all(|k| probe_cache.borrow().probe_disk_stat(*k)),
        "stat probe must find every artifact"
    );
    let (stat_ns, index_ns, probe_speedup) = paired(
        || {
            let cache = probe_cache.borrow();
            time_ns(3, 1, || {
                for key in &keys[..stat_sample] {
                    black_box(cache.probe_disk_stat(*key));
                }
            }) / stat_sample as f64
        },
        || {
            let mut cache = probe_cache.borrow_mut();
            time_ns(3, 1, || {
                for key in &keys {
                    black_box(cache.contains(*key));
                }
            }) / keys.len() as f64
        },
    );

    // Spec hashing: the field walk every sweep entry point runs against the
    // value-tree oracle, over the sweep's own specs. The digests must agree
    // for every spec before either is timed.
    let tree_hash = |s: &ScenarioSpec| content_hash(&s.to_value());
    for spec in &specs {
        assert_eq!(
            spec.content_hash(),
            tree_hash(spec),
            "field walk and value tree disagree on {spec}"
        );
    }
    let hash_ns = |hash: &dyn Fn(&ScenarioSpec) -> ContentHash| {
        time_ns(3, 1, || {
            for spec in &specs {
                black_box(hash(black_box(spec)));
            }
        }) / n as f64
    };
    let (tree_ns, walk_ns, spec_hash_speedup) = paired(
        || hash_ns(&tree_hash),
        || hash_ns(&ScenarioSpec::content_hash),
    );

    // Artifact weight: the binary artifacts on disk against the JSON text
    // the retired JSON tier wrote for the same results (the spec embedded,
    // pretty-printed, one trailing newline), computed in memory.
    let mut served: ResultCache<f64> =
        ResultCache::with_artifact_dir(&bin_dir).expect("artifact dir reopens for sizing");
    let mut json_bytes = 0u64;
    for (spec, key) in specs.iter().zip(&keys) {
        let (result, _) = served
            .get(*key)
            .expect("artifact decodes")
            .expect("every written artifact is indexed");
        let artifact = Value::Map(vec![
            ("spec_hash".to_string(), Value::Str(key.to_hex())),
            ("spec".to_string(), spec.to_value()),
            ("result".to_string(), result.to_value()),
        ]);
        let text = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
        json_bytes += text.len() as u64 + 1;
    }
    let bin_bytes = dir_bytes(&bin_dir);
    let bytes_ratio = json_bytes as f64 / bin_bytes.max(1) as f64;

    let cold_rate = n as f64 / cold_s;
    let warm_rate = n as f64 / warm_s;
    let mut t = TextTable::new(vec!["pass", "seconds", "scenarios/s", "executed"]);
    t.row(vec![
        "cold binary (execute + persist)".into(),
        format!("{cold_s:.2}"),
        format!("{cold_rate:.0}"),
        n.to_string(),
    ]);
    t.row(vec![
        "warm binary (artifact-served)".into(),
        format!("{warm_s:.2}"),
        format!("{warm_rate:.0}"),
        "0".into(),
    ]);
    t.row(vec![
        "warm binary + journal".into(),
        format!("{journaled_s:.2}"),
        format!("{:.0}", n as f64 / journaled_s),
        "0".into(),
    ]);
    println!("{}", t.render());
    println!(
        "journal: {journal_overhead_pct:+.1}% over plain warm ({plain_s:.3} s -> \
         {journaled_s:.3} s, medians of {REPEATS} best-of-3 pairs), {journal_bytes} bytes for {n} \
         completions; resume replayed {n} in {resume_s:.2} s with 0 executions"
    );
    println!(
        "index: built in {index_build_s:.2} s at open; probes {index_ns:.0} ns indexed vs \
         {stat_ns:.0} ns stat ({probe_speedup:.1}x, median of {REPEATS} ratios)"
    );
    println!(
        "spec hash: {walk_ns:.0} ns/spec from fields vs {tree_ns:.0} ns/spec through the \
         value tree ({spec_hash_speedup:.1}x, median of {REPEATS} ratios), {n} digests equal"
    );
    println!(
        "artifacts: {bin_bytes} bytes binary vs {json_bytes} bytes as json text \
         ({bytes_ratio:.2}x); \
         warm probes {} index / {} disk reads\n",
        warm_report.index_probes, warm_report.disk_reads
    );

    let workload = serde_json::json!({
        "scenarios": n,
        "horizon_days": 30usize,
        "load_samples": 2880usize,
        "strip_samples": 720usize,
    });
    let cold_json = serde_json::json!({
        "seconds": cold_s,
        "scenarios_per_sec": cold_rate,
    });
    let warm_json = serde_json::json!({
        "seconds": warm_s,
        "scenarios_per_sec": warm_rate,
        "index_build_seconds": index_build_s,
        "index_probes": warm_report.index_probes,
        "disk_reads": warm_report.disk_reads,
    });
    let probe_json = serde_json::json!({
        "index_ns": index_ns,
        "stat_ns": stat_ns,
        "stat_sample": stat_sample,
        "speedup": probe_speedup,
    });
    let bytes_json = serde_json::json!({
        "binary": bin_bytes,
        "json": json_bytes,
        "ratio": bytes_ratio,
    });
    let spec_hash_json = serde_json::json!({
        "field_walk_ns_per_spec": walk_ns,
        "value_tree_ns_per_spec": tree_ns,
        "speedup": spec_hash_speedup,
    });
    let journal_json = serde_json::json!({
        "plain_warm_seconds": plain_s,
        "journaled_warm_seconds": journaled_s,
        "overhead_pct": journal_overhead_pct,
        "journal_bytes": journal_bytes,
        "resume_seconds": resume_s,
        "resume_executed": 0usize,
        "resume_replayed": n,
    });
    let floors_json = serde_json::json!({
        "probe_speedup": FLOOR_PROBE_SPEEDUP,
        "bytes_ratio": FLOOR_BYTES_RATIO,
        "warm_scenarios_per_sec": FLOOR_WARM_SCENARIOS_PER_SEC,
        "journal_overhead_pct_max": CEILING_JOURNAL_OVERHEAD_PCT,
        "spec_hash_speedup": FLOOR_SPEC_HASH_SPEEDUP,
    });
    let env_json = serde_json::json!({
        "HPCGRID_SWEEP_SCENARIOS": std::env::var("HPCGRID_SWEEP_SCENARIOS").ok(),
    });
    let json = serde_json::json!({
        "experiment": "sweep_throughput_baseline",
        "workload": workload,
        "cold": cold_json,
        "warm": warm_json,
        "probe": probe_json,
        "journal": journal_json,
        "spec_hash": spec_hash_json,
        "ratio_repeats": REPEATS,
        "artifact_bytes": bytes_json,
        "floors": floors_json,
        "env": env_json,
        "optimized_build": cfg!(not(debug_assertions)),
    });
    let out = std::env::var("HPCGRID_BENCH_OUT").unwrap_or_else(|_| "BENCH_sweep.json".into());
    let pretty = serde_json::to_string_pretty(&json).expect("serialize bench baseline");
    std::fs::write(&out, pretty + "\n").expect("write BENCH_sweep.json");
    println!("wrote {out}");

    let _ = std::fs::remove_dir_all(&base);

    // The perf bars are release-build claims; debug builds run the same
    // passes unguarded so CI smoke still exercises every path.
    if cfg!(not(debug_assertions)) {
        assert!(
            probe_speedup >= FLOOR_PROBE_SPEEDUP,
            "index probe speedup {probe_speedup:.1}x below the {FLOOR_PROBE_SPEEDUP:.0}x floor"
        );
        assert!(
            bytes_ratio >= FLOOR_BYTES_RATIO,
            "binary artifacts only {bytes_ratio:.2}x smaller than JSON, floor {FLOOR_BYTES_RATIO:.1}x"
        );
        assert!(
            warm_rate >= FLOOR_WARM_SCENARIOS_PER_SEC,
            "warm throughput {warm_rate:.0} scenarios/s below the \
             {FLOOR_WARM_SCENARIOS_PER_SEC:.0} floor"
        );
        assert!(
            journal_overhead_pct <= CEILING_JOURNAL_OVERHEAD_PCT,
            "journaling cost {journal_overhead_pct:.1}% of the warm fold, ceiling \
             {CEILING_JOURNAL_OVERHEAD_PCT:.0}%"
        );
        assert!(
            spec_hash_speedup >= FLOOR_SPEC_HASH_SPEEDUP,
            "spec hashing from fields only {spec_hash_speedup:.2}x faster than through \
             the value tree, floor {FLOOR_SPEC_HASH_SPEEDUP:.1}x"
        );
    }
    println!("X8 OK");
}
