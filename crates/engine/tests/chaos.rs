//! Chaos suite: the engine's failure paths, exercised deterministically
//! through `hpcgrid_engine::chaos` failpoints.
//!
//! Every test arms an explicit [`FailpointSet`] via [`SweepRunner::chaos`],
//! so each fault fires at a known hit ordinal and the run reproduces
//! bit-for-bit.

use hpcgrid_engine::{
    FailpointSet, ResultCache, RunJournal, ScenarioCtx, ScenarioError, ScenarioSpec, SweepRunner,
};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

fn specs(n: u64) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|i| {
            ScenarioSpec::builder("chaos-test")
                .trace_seed(i)
                .param("i", i as i64)
                .build()
        })
        .collect()
}

fn points(config: &str) -> FailpointSet {
    FailpointSet::parse(config).expect("valid failpoint config")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hpcgrid-chaos-{tag}-{}", std::process::id()))
}

#[test]
fn stalled_scenario_times_out_instead_of_wedging_its_worker() {
    let specs = specs(6);
    let mut runner: SweepRunner<i64> = SweepRunner::new()
        .deadline(Duration::from_millis(25))
        .threads(2);
    let outcome = runner.run(&specs, |ctx| {
        let i = ctx.spec.param_i64("i")?;
        if i == 2 {
            // A stall far past the deadline, but bounded: the abandoned
            // attempt drains by sweep end instead of leaking a thread.
            std::thread::sleep(Duration::from_millis(300));
        }
        Ok(i)
    });
    assert_eq!(outcome.report.timed_out, 1);
    assert_eq!(outcome.report.failed, 1);
    match &outcome.results[2] {
        Err(ScenarioError::TimedOut {
            budget, attempts, ..
        }) => {
            assert_eq!(*budget, Duration::from_millis(25));
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(outcome.results[2].as_ref().unwrap_err().is_timeout());
    // The other five scenarios completed despite the stall.
    assert_eq!(outcome.successes().count(), 5);
    assert!(outcome.report.summary_table().contains("timed out"));
}

#[test]
fn injected_stall_exhausts_the_retry_budget_before_timing_out() {
    let one = specs(1);
    let mut runner: SweepRunner<i64> = SweepRunner::new()
        .deadline(Duration::from_millis(10))
        .retry(hpcgrid_engine::RetryPolicy::with_budget(2))
        .chaos(points("engine.scenario.stall=stall:200ms@always"));
    let outcome = runner.run(&one, |ctx| Ok(ctx.spec.param_i64("i")?));
    match &outcome.results[0] {
        Err(ScenarioError::TimedOut { attempts, .. }) => {
            assert_eq!(*attempts, 3, "1 try + 2 retries, all over budget");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(outcome.report.retries, 2);
}

#[test]
fn injected_scenario_panic_is_isolated_and_labelled() {
    let specs = specs(3);
    // Single worker makes hit ordinals follow submission order.
    let mut runner: SweepRunner<i64> = SweepRunner::new()
        .threads(1)
        .chaos(points("engine.scenario.panic=panic@nth:2"));
    let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
    assert_eq!(outcome.report.failed, 1);
    let err = outcome.errors().next().unwrap();
    assert!(err.is_panic());
    assert!(err.to_string().contains("injected panic"), "{err}");
    assert_eq!(outcome.successes().count(), 2);
}

#[test]
fn transient_injected_error_is_retried_with_backoff_and_recovers() {
    let specs = specs(4);
    let mut runner: SweepRunner<i64> = SweepRunner::new()
        .threads(1)
        .retry(hpcgrid_engine::RetryPolicy::with_backoff(
            2,
            Duration::from_micros(200),
            Duration::from_millis(2),
        ))
        // Fail the first attempt of the first scenario only; its retry and
        // every other scenario succeed.
        .chaos(points("engine.scenario.err=err@nth:1"));
    let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
    assert_eq!(outcome.report.failed, 0, "transient fault recovered");
    assert_eq!(outcome.report.retries, 1);
    assert!(hpcgrid_engine::io_classed(
        "injected transient I/O fault (chaos failpoint engine.scenario.err)"
    ));
}

#[test]
fn artifact_read_fault_recomputes_instead_of_failing_the_sweep() {
    let dir = temp_path("read-fault");
    let _ = std::fs::remove_dir_all(&dir);
    let specs = specs(2);
    {
        let mut warm: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
        warm.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")? * 7));
    }
    // Fresh process-equivalent: empty memory tier, artifacts present, but
    // every artifact read errors.
    let mut runner: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir)
        .unwrap()
        .chaos(points("engine.artifact.read=err@always"));
    let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")? * 7));
    assert_eq!(outcome.report.cache_corrupt, 2, "both reads failed");
    assert_eq!(outcome.report.executed, 2, "both recomputed");
    assert_eq!(*outcome.results[1].as_ref().unwrap(), 7);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn artifact_write_fault_keeps_results_and_leaves_no_artifact() {
    let dir = temp_path("write-fault");
    let _ = std::fs::remove_dir_all(&dir);
    let specs = specs(3);
    let mut runner: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir)
        .unwrap()
        .chaos(points("engine.artifact.write=err@always"));
    let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
    assert_eq!(
        outcome.report.failed, 0,
        "commit failures never fail scenarios"
    );
    assert_eq!(outcome.successes().count(), 3);
    // Nothing made it to disk, so a clean runner recomputes everything.
    let mut fresh: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
    let again = fresh.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
    assert_eq!(again.report.artifact_hits, 0);
    assert_eq!(again.report.executed, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_artifact_write_is_caught_by_the_crc_on_the_next_cold_read() {
    let dir = temp_path("torn-artifact");
    let _ = std::fs::remove_dir_all(&dir);
    let specs = specs(1);
    {
        let mut torn: SweepRunner<Vec<f64>> = SweepRunner::with_artifact_dir(&dir)
            .unwrap()
            .chaos(points("engine.artifact.truncate=truncate@always"));
        let outcome = torn.run(&specs, |_| Ok(vec![1.5, 2.5, 3.5]));
        assert_eq!(outcome.report.failed, 0, "the torn write is silent");
    }
    let mut fresh: SweepRunner<Vec<f64>> = SweepRunner::with_artifact_dir(&dir).unwrap();
    let outcome = fresh.run(&specs, |_| Ok(vec![1.5, 2.5, 3.5]));
    assert_eq!(
        outcome.report.cache_corrupt, 1,
        "CRC must reject the half-written artifact"
    );
    assert_eq!(outcome.report.executed, 1, "and the scenario recomputes");
    assert_eq!(*outcome.results[0].as_ref().unwrap(), vec![1.5, 2.5, 3.5]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journaled_fold_matches_run_fold_and_leaves_a_replayable_journal() {
    let journal = temp_path("journaled-fold.hgj");
    let specs = specs(200);
    let mut a: SweepRunner<u64> = SweepRunner::new();
    let plain = a.run_fold(
        &specs,
        |ctx| Ok(ctx.spec.param_i64("i")? as u64 * 3),
        0u64,
        |acc, x| acc.wrapping_add(x),
        |x, y| x.wrapping_add(y),
    );
    let mut b: SweepRunner<u64> = SweepRunner::new().checkpoint_every(64);
    let journaled = b
        .run_fold_journaled(
            &journal,
            &specs,
            |ctx| Ok(ctx.spec.param_i64("i")? as u64 * 3),
            0u64,
            |acc, x| acc.wrapping_add(x),
        )
        .unwrap();
    assert_eq!(journaled.value, plain.value);
    assert!(!journaled.report.interrupted);
    assert_eq!(journaled.report.executed, 200);

    let replay = RunJournal::replay(&journal).unwrap();
    assert!(!replay.torn);
    assert_eq!(replay.total, 200);
    assert_eq!(replay.entries.len(), 200, "every completion journaled");
    let (covered, _) = replay.checkpoint.as_ref().unwrap();
    assert_eq!(*covered, 200, "final checkpoint covers the whole journal");
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn crashed_fold_resumes_without_reexecuting_journaled_scenarios() {
    let journal = temp_path("crash-resume.hgj");
    let specs = specs(120);
    let expected: u64 = (0..120u64).map(|i| i * 11).sum();

    let mut crashing: SweepRunner<u64> = SweepRunner::new()
        .checkpoint_every(16)
        .chaos(points("engine.sweep.crash=crash@nth:40"));
    let partial = crashing
        .run_fold_journaled(
            &journal,
            &specs,
            |ctx| Ok(ctx.spec.param_i64("i")? as u64 * 11),
            0u64,
            |acc, x| acc.wrapping_add(x),
        )
        .unwrap();
    assert!(partial.report.interrupted, "the crash failpoint must fire");
    assert!(partial.report.summary_table().contains("interrupted"));

    let replay = RunJournal::replay(&journal).unwrap();
    let journaled = replay.entries.len();
    assert!(journaled >= 16, "at least one checkpoint's worth journaled");
    assert!(journaled < 120, "but the sweep did not finish");

    // Resume on a *fresh* runner: empty cache, so everything not journaled
    // really executes, and everything journaled really is replayed.
    let mut resumed: SweepRunner<u64> = SweepRunner::new();
    let outcome = resumed
        .resume(
            &journal,
            &specs,
            |ctx| Ok(ctx.spec.param_i64("i")? as u64 * 11),
            0u64,
            |acc, x| acc.wrapping_add(x),
        )
        .unwrap();
    assert_eq!(outcome.value, expected, "resumed fold is exact");
    assert!(!outcome.report.interrupted);
    assert_eq!(outcome.report.journal_replayed, journaled);
    assert_eq!(outcome.report.executed, 120 - journaled);
    assert!(outcome.report.summary_table().contains("journal replayed"));
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn resume_rejects_a_journal_from_a_different_sweep() {
    let journal = temp_path("fingerprint-mismatch.hgj");
    let mut a: SweepRunner<u64> = SweepRunner::new();
    a.run_fold_journaled(
        &journal,
        &specs(10),
        |ctx| Ok(ctx.spec.param_i64("i")? as u64),
        0u64,
        |acc, x| acc + x,
    )
    .unwrap();
    let different = specs(11);
    let err = a
        .resume(
            &journal,
            &different,
            |ctx| Ok(ctx.spec.param_i64("i")? as u64),
            0u64,
            |acc, x| acc + x,
        )
        .unwrap_err();
    assert!(err.to_string().contains("different sweep"), "got: {err}");
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn resume_of_a_finished_sweep_executes_nothing() {
    let journal = temp_path("resume-finished.hgj");
    let specs = specs(50);
    let mut runner: SweepRunner<u64> = SweepRunner::new();
    let first = runner
        .run_fold_journaled(
            &journal,
            &specs,
            |ctx| Ok(ctx.spec.param_i64("i")? as u64),
            0u64,
            |acc, x| acc.wrapping_add(x),
        )
        .unwrap();
    let mut fresh: SweepRunner<u64> = SweepRunner::new();
    let again = fresh
        .resume(
            &journal,
            &specs,
            |_| panic!("a finished sweep must not execute anything"),
            0u64,
            |acc, x| acc.wrapping_add(x),
        )
        .unwrap();
    assert_eq!(again.value, first.value, "bit-identical");
    assert_eq!(again.report.executed, 0);
    assert_eq!(again.report.journal_replayed, 50);
    std::fs::remove_file(&journal).unwrap();
}

/// Tear the journal at its `tear_at`-th write (write 1 is the header) in a
/// 100-scenario journaled fold, then resume on a fresh runner. The torn
/// write must stop the sweep, leave a replayable journal, and the resume
/// must be bit-identical to an uninterrupted fold without re-executing any
/// journaled scenario. The resume must also cut the torn tail off, so its
/// own records replay: a second resume executes nothing. With `warm`, every
/// scenario is already cached, so the tear lands while phase 1 folds cache
/// hits; cold, it lands during execution.
fn torn_journal_resumes_bit_identically(tag: &str, warm: bool, tear_at: u64) {
    let journal = temp_path(tag);
    let specs = specs(100);
    let scenario = |ctx: ScenarioCtx<'_>| Ok(ctx.spec.param_i64("i")? as u64 * 13);
    let fold = |acc: u64, x: u64| acc.wrapping_add(x);
    let expected: u64 = (0..100u64).map(|i| i * 13).sum();

    let mut torn: SweepRunner<u64> = SweepRunner::new()
        .checkpoint_every(8)
        .chaos(points(&format!("engine.journal.torn=err@nth:{tear_at}")));
    if warm {
        torn.run_fold(&specs, scenario, 0u64, fold, fold);
    }
    let partial = torn
        .run_fold_journaled(&journal, &specs, scenario, 0u64, fold)
        .unwrap();
    assert!(partial.report.interrupted, "the torn write stops the sweep");
    if warm {
        assert_eq!(partial.report.executed, 0, "torn while folding hits");
    } else {
        assert!(partial.report.executed > 0, "torn during execution");
    }

    let replay = RunJournal::replay(&journal).unwrap();
    assert!(replay.torn, "the half-written frame reads as a torn tail");
    let journaled = replay.done_set();
    assert!(!journaled.is_empty() && journaled.len() < 100);

    let executed = Mutex::new(Vec::new());
    let mut fresh: SweepRunner<u64> = SweepRunner::new();
    let resumed = fresh
        .resume(
            &journal,
            &specs,
            |ctx| {
                executed.lock().unwrap().push(ctx.spec.content_hash());
                scenario(ctx)
            },
            0u64,
            fold,
        )
        .unwrap();
    assert_eq!(
        resumed.value, expected,
        "bit-identical to an uninterrupted fold"
    );
    assert!(!resumed.report.interrupted);
    assert_eq!(resumed.report.journal_replayed, journaled.len());
    let executed = executed.into_inner().unwrap();
    assert_eq!(executed.len(), 100 - journaled.len());
    assert!(
        executed.iter().all(|h| !journaled.contains(h)),
        "a journaled scenario was re-executed"
    );

    let replay = RunJournal::replay(&journal).unwrap();
    assert!(!replay.torn, "the resume truncated the torn tail");
    assert_eq!(replay.entries.len(), 100, "every scenario journaled once");
    let mut again: SweepRunner<u64> = SweepRunner::new();
    let twice = again
        .resume(
            &journal,
            &specs,
            |_| -> Result<u64, String> { panic!("a journaled scenario was re-executed") },
            0u64,
            fold,
        )
        .unwrap();
    assert_eq!(twice.value, expected);
    assert_eq!(twice.report.executed, 0);
    assert_eq!(twice.report.journal_replayed, 100);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_torn_while_folding_cache_hits_stops_and_resumes() {
    torn_journal_resumes_bit_identically("torn-phase1.hgj", true, 30);
}

#[test]
fn journal_torn_during_execution_stops_and_resumes() {
    torn_journal_resumes_bit_identically("torn-phase2.hgj", false, 30);
}

#[test]
fn chaos_cache_faults_compose_with_direct_cache_use() {
    let dir = temp_path("cache-direct");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = specs(1).remove(0);
    let mut cache: ResultCache<f64> = ResultCache::with_artifact_dir(&dir).unwrap();
    cache.set_chaos(std::sync::Arc::new(points(
        "engine.artifact.write=err@always",
    )));
    let err = cache.put(&spec, &4.5).unwrap_err();
    assert!(err.to_string().contains("injected I/O fault"), "{err}");
    // The memory tier was updated before the artifact failed.
    assert!(cache.get(spec.content_hash()).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
