//! Engine acceptance tests: the fault-isolation and caching contracts the
//! sweep runner guarantees, exercised end to end.

use hpcgrid_engine::{
    ArtifactFormat, Disposition, ResultCache, RunReport, ScenarioError, ScenarioSpec, SweepRunner,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn sweep_specs(n: u64) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|i| {
            ScenarioSpec::builder("acceptance")
                .trace_seed(42)
                .horizon_days(30)
                .param("index", i as i64)
                .param("multiplier", 0.8 + (i as f64) * 0.01)
                .build()
        })
        .collect()
}

/// The headline contract: a 120-scenario sweep in which one scenario
/// deliberately panics completes the other 119, reports exactly one
/// [`ScenarioError`], and an identical second run is served entirely from the
/// cache with zero scenario executions.
#[test]
fn sweep_isolates_one_panic_and_recaches_the_rest() {
    let specs = sweep_specs(120);
    let executions = AtomicUsize::new(0);
    let simulate = |ctx: hpcgrid_engine::ScenarioCtx<'_>| -> Result<f64, String> {
        executions.fetch_add(1, Ordering::SeqCst);
        let i = ctx.spec.param_i64("index")?;
        if i == 57 {
            panic!("deliberate fault in scenario 57");
        }
        Ok(ctx.spec.param_f64("multiplier")? * 1000.0)
    };

    let mut runner: SweepRunner<f64> = SweepRunner::new();
    let first = runner.run(&specs, simulate);

    // 119 successes, exactly one typed error, in the right slot.
    assert_eq!(first.successes().count(), 119);
    let errors: Vec<&ScenarioError> = first.errors().collect();
    assert_eq!(errors.len(), 1);
    assert!(errors[0].is_panic());
    assert_eq!(errors[0].spec_hash(), specs[57].content_hash());
    match &first.results[57] {
        Err(ScenarioError::Panicked { message, .. }) => {
            assert!(
                message.contains("deliberate fault in scenario 57"),
                "{message}"
            );
        }
        other => panic!("slot 57 should hold the panic, got {other:?}"),
    }
    assert_eq!(first.report.total, 120);
    assert_eq!(first.report.executed, 120);
    assert_eq!(first.report.failed, 1);
    assert_eq!(first.report.cache_hits(), 0);
    assert_eq!(executions.load(Ordering::SeqCst), 120);

    // Second identical run: the 119 successes come from the cache; only the
    // failed scenario re-executes (failures are never cached). Hit/miss
    // counters prove it, as does the execution counter.
    let second = runner.run(&specs, simulate);
    assert_eq!(second.report.memory_hits, 119);
    assert_eq!(second.report.executed, 1);
    assert_eq!(executions.load(Ordering::SeqCst), 121);
    assert_eq!(second.successes().count(), 119);

    // A sweep over only the healthy scenarios performs *zero* executions.
    let healthy: Vec<ScenarioSpec> = specs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 57)
        .map(|(_, s)| s.clone())
        .collect();
    let third = runner.run(&healthy, |_| -> Result<f64, String> {
        panic!("the cache must satisfy every scenario");
    });
    assert_eq!(third.report.executed, 0);
    assert_eq!(third.report.cache_hits(), 119);
    assert!((third.report.hit_ratio() - 1.0).abs() < 1e-12);
    assert_eq!(third.successes().count(), 119);
}

/// Cached results are bit-identical to freshly computed ones, through both
/// the memory tier and an on-disk artifact round trip.
#[test]
fn cached_results_are_bit_identical_to_fresh() {
    let dir = std::env::temp_dir().join(format!("hpcgrid-engine-bits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = sweep_specs(24);
    // Values with awkward bit patterns: subnormal-ish sums, negatives,
    // repeating fractions.
    let simulate = |ctx: hpcgrid_engine::ScenarioCtx<'_>| -> Result<Vec<f64>, String> {
        let i = ctx.spec.param_i64("index")? as f64;
        Ok(vec![
            (i / 3.0) - 7.77,
            i * 1e-13,
            -(i + 1.0).ln(),
            ctx.seed as f64 / u64::MAX as f64,
        ])
    };

    let mut fresh: SweepRunner<Vec<f64>> = SweepRunner::new();
    let baseline = fresh.run(&specs, simulate);

    let mut cached: SweepRunner<Vec<f64>> =
        SweepRunner::with_artifact_dir(&dir).expect("artifact dir");
    cached.run(&specs, simulate);
    // Drop the memory tier so the second pass must decode disk artifacts.
    cached.cache_mut().clear_memory();
    let from_disk = cached.run(&specs, |_| -> Result<Vec<f64>, String> {
        panic!("must be served from artifacts")
    });
    assert_eq!(from_disk.report.artifact_hits, 24);

    for (a, b) in baseline.results.iter().zip(from_disk.results.iter()) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The retry budget re-attempts panicking scenarios; a scenario that recovers
/// within budget succeeds, and the report counts the retries.
#[test]
fn retry_budget_recovers_flaky_scenarios() {
    let specs = sweep_specs(8);
    let attempts_seen = AtomicUsize::new(0);
    let mut runner: SweepRunner<f64> =
        SweepRunner::new().retry(hpcgrid_engine::RetryPolicy::with_budget(1));
    let outcome = runner.run(&specs, |ctx| {
        let i = ctx.spec.param_i64("index")?;
        if i == 3 && attempts_seen.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("transient");
        }
        Ok(0.0)
    });
    assert_eq!(outcome.successes().count(), 8);
    assert_eq!(outcome.report.retries, 1);
    assert_eq!(outcome.report.failed, 0);
    let record = outcome
        .report
        .scenarios
        .iter()
        .find(|r| r.attempts == 2)
        .expect("the flaky scenario records both attempts");
    assert_eq!(record.spec, specs[3].content_hash());
}

/// Worker accounting: a bounded pool is used, busy time is recorded per
/// worker, and utilization lands in `[0, 1]`.
#[test]
fn report_tracks_workers_and_wall_time() {
    let specs = sweep_specs(32);
    let mut runner: SweepRunner<f64> = SweepRunner::new().threads(4);
    let outcome = runner.run(&specs, |ctx| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        Ok(ctx.spec.param_f64("multiplier")?)
    });
    let report: &RunReport = &outcome.report;
    assert_eq!(report.workers, 4);
    assert_eq!(report.worker_busy.len(), 4);
    assert!(report.wall.as_nanos() > 0);
    let util = report.worker_utilization();
    assert!((0.0..=1.0).contains(&util), "{util}");
    let (exec_total, exec_mean) = report.exec_time();
    assert!(exec_total >= exec_mean);
    assert_eq!(report.slowest(3).len(), 3);
    let table = report.summary_table();
    assert!(table.contains("worker utilization"));
    assert!(table.contains("32"));
}

/// Disposition records line up with what actually happened, in submission
/// order.
#[test]
fn per_scenario_records_classify_dispositions() {
    let specs = sweep_specs(6);
    let mut runner: SweepRunner<f64> = SweepRunner::new();
    runner.run(&specs[..3], |ctx| Ok(ctx.spec.param_f64("multiplier")?));
    let outcome = runner.run(&specs, |ctx| {
        let i = ctx.spec.param_i64("index")?;
        if i == 4 {
            Err("bad point".to_string())
        } else {
            Ok(ctx.spec.param_f64("multiplier")?)
        }
    });
    let dispositions: Vec<Disposition> = outcome
        .report
        .scenarios
        .iter()
        .map(|r| r.disposition)
        .collect();
    assert_eq!(
        dispositions,
        vec![
            Disposition::MemoryHit,
            Disposition::MemoryHit,
            Disposition::MemoryHit,
            Disposition::Executed,
            Disposition::Failed,
            Disposition::Executed,
        ]
    );
    assert_eq!(outcome.report.scenarios[4].label, specs[4].label());
}

/// A standalone cache shared by two runners deduplicates work across sweeps
/// in the same process via the artifact tier, in either artifact format.
#[test]
fn artifact_dir_is_shared_across_runners() {
    for (format, ext) in [
        (ArtifactFormat::Binary, "bin"),
        (ArtifactFormat::Json, "json"),
    ] {
        let dir =
            std::env::temp_dir().join(format!("hpcgrid-engine-share-{}-{ext}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = sweep_specs(10);
        {
            let mut first: SweepRunner<f64> =
                SweepRunner::with_artifact_dir_and_format(&dir, format).unwrap();
            first.run(&specs, |ctx| Ok(ctx.spec.param_f64("multiplier")?));
        }
        let mut second: SweepRunner<f64> =
            SweepRunner::with_artifact_dir_and_format(&dir, format).unwrap();
        let outcome = second.run(&specs, |_| -> Result<f64, String> {
            panic!("artifacts must satisfy the sweep")
        });
        assert_eq!(outcome.report.artifact_hits, 10);
        assert_eq!(outcome.report.executed, 0);
        // Every probe the second runner made was answered by the index; the
        // only disk traffic was fetching the ten artifacts themselves.
        assert_eq!(outcome.report.index_probes, 10);
        assert_eq!(outcome.report.disk_reads, 10);
        // Artifacts are self-describing files named by content hash, fanned
        // out into xx/yy shard subdirectories keyed by the hash's leading
        // hex digits, with the format's extension.
        let mut files: Vec<String> = Vec::new();
        collect_artifact_files(&dir, &mut files);
        files.sort();
        let mut expected: Vec<String> = specs
            .iter()
            .map(|s| {
                let hex = s.content_hash().to_hex();
                format!("{}/{}/{hex}.{ext}", &hex[0..2], &hex[2..4])
            })
            .collect();
        expected.sort();
        assert_eq!(files, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Recursively collect artifact paths relative to `root`, `/`-separated.
fn collect_artifact_files(root: &std::path::Path, out: &mut Vec<String>) {
    fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let path = entry.path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let rel = path.strip_prefix(root).unwrap();
                let parts: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(parts.join("/"));
            }
        }
    }
    walk(root, root, out);
}

/// A direct `ResultCache` user (no runner) sees the same artifacts the
/// runner writes.
#[test]
fn runner_artifacts_are_plain_cache_artifacts() {
    let dir = std::env::temp_dir().join(format!("hpcgrid-engine-plain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = sweep_specs(3);
    let mut runner: SweepRunner<f64> = SweepRunner::with_artifact_dir(&dir).unwrap();
    runner.run(&specs, |ctx| Ok(ctx.spec.param_f64("multiplier")? * 2.0));

    let mut cache: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
    let (value, _) = cache.get(specs[1].content_hash()).unwrap().unwrap();
    assert_eq!(value, (0.8 + 0.01) * 2.0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A second identical sweep is served fully from artifacts — zero scenario
/// executions — under both the binary and JSON artifact formats.
#[test]
fn second_sweep_is_fully_cache_served_under_both_formats() {
    use hpcgrid_engine::ArtifactFormat;
    for format in [ArtifactFormat::Binary, ArtifactFormat::Json] {
        let dir = std::env::temp_dir().join(format!(
            "hpcgrid-engine-zero-exec-{}-{}",
            format.label(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = sweep_specs(50);
        {
            let mut warm: SweepRunner<f64> =
                SweepRunner::with_artifact_dir_and_format(&dir, format).unwrap();
            let outcome = warm.run(&specs, |ctx| Ok(ctx.spec.param_f64("multiplier")? * 3.0));
            assert_eq!(outcome.report.executed, 50);
        }
        let mut cold: SweepRunner<f64> =
            SweepRunner::with_artifact_dir_and_format(&dir, format).unwrap();
        let outcome = cold.run(&specs, |_| -> Result<f64, String> {
            panic!("second sweep must not execute anything")
        });
        assert_eq!(outcome.report.executed, 0, "{}", format.label());
        assert_eq!(outcome.report.artifact_hits, 50, "{}", format.label());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// An artifact directory that cannot be written (here: the shard path is
/// blocked by a plain file) degrades to memory-tier operation — `put`
/// reports the artifact failure but the value is still served in-process,
/// and a runner sweep completes normally.
#[test]
fn unwritable_artifact_dir_still_serves_the_memory_tier() {
    let dir = std::env::temp_dir().join(format!("hpcgrid-engine-rodir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let specs = sweep_specs(1);
    // Block the shard subdirectory with a regular file so artifact writes
    // fail no matter which user runs the test.
    let hex = specs[0].content_hash().to_hex();
    std::fs::write(dir.join(&hex[0..2]), "in the way").unwrap();

    let mut cache: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
    assert!(
        cache.put(&specs[0], &1.25).is_err(),
        "artifact write must fail"
    );
    let (value, _) = cache.get(specs[0].content_hash()).unwrap().unwrap();
    assert_eq!(value, 1.25, "memory tier still serves the value");

    // The runner's contract: artifact-commit failure never fails a scenario.
    let mut runner: SweepRunner<f64> = SweepRunner::with_artifact_dir(&dir).unwrap();
    let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_f64("multiplier")?));
    assert_eq!(outcome.report.executed, 1);
    assert_eq!(outcome.report.failed, 0);
    let again = runner.run(&specs, |_| -> Result<f64, String> {
        panic!("memory tier must serve the rerun")
    });
    assert_eq!(again.report.memory_hits, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A binary artifact truncated mid-file is treated exactly like corrupt
/// JSON: counted in `cache_corrupt`, recomputed, and healed by the rerun.
#[test]
fn truncated_binary_artifact_recomputes_and_heals() {
    use hpcgrid_engine::ArtifactFormat;
    let dir = std::env::temp_dir().join(format!("hpcgrid-engine-trunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs = sweep_specs(1);
    let path;
    {
        let mut warm: SweepRunner<Vec<f64>> =
            SweepRunner::with_artifact_dir_and_format(&dir, ArtifactFormat::Binary).unwrap();
        warm.run(&specs, |ctx| {
            Ok(vec![ctx.spec.param_f64("multiplier")?, 2.5, -3.75])
        });
        path = warm
            .cache_mut()
            .artifact_path_for(specs[0].content_hash())
            .unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let mut runner: SweepRunner<Vec<f64>> =
        SweepRunner::with_artifact_dir_and_format(&dir, ArtifactFormat::Binary).unwrap();
    let outcome = runner.run(&specs, |ctx| {
        Ok(vec![ctx.spec.param_f64("multiplier")?, 2.5, -3.75])
    });
    assert_eq!(outcome.report.cache_corrupt, 1);
    assert_eq!(outcome.report.executed, 1);
    // The recomputation rewrote the artifact; a fresh runner reads it clean.
    let mut fresh: SweepRunner<Vec<f64>> =
        SweepRunner::with_artifact_dir_and_format(&dir, ArtifactFormat::Binary).unwrap();
    let again = fresh.run(&specs, |_| -> Result<Vec<f64>, String> {
        panic!("healed artifact must serve the rerun")
    });
    assert_eq!(again.report.artifact_hits, 1);
    assert_eq!(again.report.cache_corrupt, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Binary and JSON artifacts written for the same results decode to
/// bit-identical values.
#[test]
fn binary_and_json_artifacts_decode_bit_identical() {
    use hpcgrid_engine::ArtifactFormat;
    let base = std::env::temp_dir().join(format!("hpcgrid-engine-bits2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let specs = sweep_specs(16);
    let simulate = |ctx: hpcgrid_engine::ScenarioCtx<'_>| -> Result<Vec<f64>, String> {
        let i = ctx.spec.param_i64("index")? as f64;
        Ok(vec![
            i / 7.0,
            (i + 0.1).sqrt(),
            -i * 1e-17,
            f64::from_bits(ctx.seed),
        ])
    };
    let mut decoded: Vec<Vec<Vec<f64>>> = Vec::new();
    for format in [ArtifactFormat::Binary, ArtifactFormat::Json] {
        let dir = base.join(format.label());
        {
            let mut warm: SweepRunner<Vec<f64>> =
                SweepRunner::with_artifact_dir_and_format(&dir, format).unwrap();
            warm.run(&specs, simulate);
        }
        let mut cold: SweepRunner<Vec<f64>> =
            SweepRunner::with_artifact_dir_and_format(&dir, format).unwrap();
        let outcome = cold.run(&specs, |_| -> Result<Vec<f64>, String> {
            panic!("must decode from artifacts")
        });
        assert_eq!(outcome.report.artifact_hits, 16);
        decoded.push(outcome.expect_all("decode"));
    }
    for (b, j) in decoded[0].iter().zip(decoded[1].iter()) {
        for (x, y) in b.iter().zip(j.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}
