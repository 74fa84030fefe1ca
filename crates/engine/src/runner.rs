//! The sweep runner: a bounded work-stealing worker pool that executes
//! scenarios deterministically, isolates per-scenario panics, and consults
//! the content-addressed cache.
//!
//! # One driver, three sinks
//!
//! Every entry point runs one private driver. It hashes each spec once,
//! collapses duplicates into one scenario with a multiplicity, skips what a
//! run journal covers, and probes the cache (a corrupt artifact is counted,
//! logged and recomputed). Misses run on one scoped worker pool with panic
//! isolation, retries and an optional deadline; successes are cached as they
//! complete. The driver owns the [`RunReport`] counters.
//!
//! Each cache hit and executed result goes, with its spec index, hash and
//! multiplicity, to a sink that only absorbs it:
//!
//! * **indexed** ([`SweepRunner::run`]): one result slot per submitted spec,
//!   in submission order, plus per-scenario records.
//! * **per-worker fold** ([`SweepRunner::run_fold`]): one accumulator per
//!   worker, merged at the end; no lock, and `Vec<R>` is never built.
//! * **journaled** ([`SweepRunner::run_fold_journaled`],
//!   [`SweepRunner::resume`]): journal append and fold under one lock, with
//!   checkpoints. The `engine.sweep.crash` failpoint and the
//!   journal-unwritable stop live only here.

use crate::cache::{ArtifactFormat, CacheTier, ResultCache};
use crate::chaos::{self, sites, FailpointSet};
use crate::error::{io_classed, EngineError, RetryPolicy, ScenarioError};
use crate::hash::ContentHash;
use crate::journal::{sweep_fingerprint_of, RunJournal};
use crate::report::{Disposition, RunReport, ScenarioRecord};
use crate::shared::SharedInputs;
use crate::spec::ScenarioSpec;
use hpcgrid_timeseries::par::{default_threads, panic_message};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Worker pool size; `None` uses the machine's available parallelism
    /// bounded by the number of cache misses.
    pub threads: Option<usize>,
    /// Retry budget for failing scenarios.
    pub retry: RetryPolicy,
    /// Per-scenario wall-clock budget. When set, a worker waits at most this
    /// long per attempt; over-budget attempts surface as
    /// [`ScenarioError::TimedOut`] instead of wedging the worker. `None`
    /// (the default) waits indefinitely and runs attempts inline.
    pub deadline: Option<Duration>,
    /// In journaled folds, checkpoint the serialized accumulator (and flush
    /// the journal) every this many completed scenarios. Smaller values
    /// bound replay work after a crash; larger values cost less I/O.
    pub checkpoint_every: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: None,
            retry: RetryPolicy::default(),
            deadline: None,
            checkpoint_every: 256,
        }
    }
}

/// What a scenario closure receives: the spec, a deterministic seed derived
/// from the spec's content hash, and the sweep's zero-copy
/// [`SharedInputs`]. Using `ctx.seed` (rather than ad-hoc seeds) makes a
/// scenario's randomness a pure function of its spec — the property the
/// cache relies on.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCtx<'a> {
    /// The scenario being executed.
    pub spec: &'a ScenarioSpec,
    /// Deterministic per-scenario RNG seed.
    pub seed: u64,
    /// `Arc`'d inputs common to every scenario in the sweep (compiled
    /// kernels, load series). See [`SharedInputs`] for the cache-safety
    /// contract: shared inputs must not carry state the spec doesn't hash.
    pub shared: &'a SharedInputs,
}

/// The outcome of one sweep: per-scenario results in submission order, plus
/// the run report.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// One slot per submitted spec, in submission order.
    pub results: Vec<Result<R, ScenarioError>>,
    /// Observability for the run.
    pub report: RunReport,
}

impl<R> SweepOutcome<R> {
    /// Successful results, in submission order.
    pub fn successes(&self) -> impl Iterator<Item = &R> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Scenario errors, in submission order.
    pub fn errors(&self) -> impl Iterator<Item = &ScenarioError> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }

    /// Unwrap every result, panicking with a summary if any scenario failed.
    pub fn expect_all(self, context: &str) -> Vec<R> {
        panic_if_any_failed(context, self.errors());
        self.results
            .into_iter()
            .map(|r| r.expect("checked above"))
            .collect()
    }
}

/// The outcome of a streaming [`SweepRunner::run_fold`]: the folded
/// aggregate plus the errors of scenarios that failed (which therefore
/// contributed nothing to the aggregate).
#[derive(Debug)]
pub struct FoldOutcome<A> {
    /// The fold of every successful scenario result into `init`.
    pub value: A,
    /// Errors of failed scenarios, in no particular order.
    pub errors: Vec<ScenarioError>,
    /// Observability for the run. `scenarios` records are *not* populated
    /// in fold mode — per-scenario bookkeeping is exactly the memory cost
    /// streaming exists to avoid.
    pub report: RunReport,
}

impl<A> FoldOutcome<A> {
    /// Unwrap the aggregate, panicking with a summary if any scenario
    /// failed.
    pub fn expect_all(self, context: &str) -> A {
        panic_if_any_failed(context, self.errors.iter());
        self.value
    }
}

/// Panic with the count and the first five of `errors`, if there are any.
fn panic_if_any_failed<'a>(context: &str, errors: impl Iterator<Item = &'a ScenarioError>) {
    let lines: Vec<String> = errors.map(ScenarioError::to_string).collect();
    if !lines.is_empty() {
        panic!(
            "{context}: {} scenario(s) failed:\n  {}",
            lines.len(),
            lines[..lines.len().min(5)].join("\n  ")
        );
    }
}

/// Scenario orchestration engine entry point.
///
/// Holds the result cache across sweeps, so consecutive sweeps in one process
/// share hits; configure an artifact directory to share across processes.
///
/// ```
/// use hpcgrid_engine::{ScenarioSpec, SweepRunner};
///
/// let specs: Vec<ScenarioSpec> = (0..4)
///     .map(|i| {
///         ScenarioSpec::builder("doubling")
///             .param("x", i as i64)
///             .build()
///     })
///     .collect();
/// let mut runner: SweepRunner<i64> = SweepRunner::new();
/// let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("x")? * 2));
/// assert_eq!(outcome.results[3].as_ref().unwrap(), &6);
/// // Identical re-run: served entirely from cache.
/// let again = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("x")? * 2));
/// assert_eq!(again.report.cache_hits(), 4);
/// assert_eq!(again.report.executed, 0);
/// ```
#[derive(Debug)]
pub struct SweepRunner<R> {
    cache: ResultCache<R>,
    config: SweepConfig,
    shared: Arc<SharedInputs>,
    chaos: Arc<FailpointSet>,
}

impl<R: Clone + Send + Serialize + Deserialize> Default for SweepRunner<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Clone + Send + Serialize + Deserialize> SweepRunner<R> {
    /// Runner with an in-memory cache and default configuration.
    pub fn new() -> Self {
        Self::with_cache(ResultCache::in_memory())
    }

    /// Runner whose cache persists [`ArtifactFormat::Binary`] artifacts
    /// under `dir`.
    pub fn with_artifact_dir(dir: impl Into<std::path::PathBuf>) -> Result<Self, EngineError> {
        ResultCache::with_artifact_dir(dir).map(Self::with_cache)
    }

    /// Runner whose cache persists artifacts under `dir` in an explicit
    /// format.
    pub fn with_artifact_dir_and_format(
        dir: impl Into<std::path::PathBuf>,
        format: ArtifactFormat,
    ) -> Result<Self, EngineError> {
        ResultCache::with_artifact_dir_and_format(dir, format).map(Self::with_cache)
    }

    fn with_cache(cache: ResultCache<R>) -> Self {
        SweepRunner {
            cache,
            config: SweepConfig::default(),
            shared: Arc::new(SharedInputs::new()),
            chaos: Arc::new(FailpointSet::empty()),
        }
    }

    /// Replace the configuration.
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the retry budget.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Set the worker pool size.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = Some(threads.max(1));
        self
    }

    /// Set the per-scenario deadline (see [`SweepConfig::deadline`]).
    ///
    /// With a deadline, each attempt runs on a watchdog thread the worker
    /// waits on; a timed-out attempt is abandoned (it finishes in the
    /// background — a *bounded* stall drains by sweep end, a truly hung
    /// scenario needs a process kill plus journal resume) and retried or
    /// recorded as [`ScenarioError::TimedOut`].
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.config.deadline = Some(budget);
        self
    }

    /// Set the journal checkpoint cadence (see
    /// [`SweepConfig::checkpoint_every`]).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.config.checkpoint_every = every.max(1);
        self
    }

    /// Arm a failpoint set for this runner, its cache, and any journal it
    /// writes; every runner starts with its own empty set. Hit ordinals
    /// count this runner's hits only, so faults fire deterministically.
    pub fn chaos(mut self, set: FailpointSet) -> Self {
        let set = Arc::new(set);
        self.cache.set_chaos(Arc::clone(&set));
        self.chaos = set;
        self
    }

    /// Set the sweep's zero-copy [`SharedInputs`], available to every
    /// scenario via [`ScenarioCtx::shared`].
    pub fn shared_inputs(mut self, shared: SharedInputs) -> Self {
        self.shared = Arc::new(shared);
        self
    }

    /// Access the underlying cache.
    pub fn cache_mut(&mut self) -> &mut ResultCache<R> {
        &mut self.cache
    }

    /// Run a sweep: execute `f` for every spec not already cached, in
    /// parallel, panics isolated per scenario; return results in submission
    /// order plus the run report.
    ///
    /// A duplicate spec executes once; its later occurrences share that
    /// result and are recorded as memory hits, or as failed if it failed.
    pub fn run<F>(&mut self, specs: &[ScenarioSpec], f: F) -> SweepOutcome<R>
    where
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
    {
        let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
        let (mut report, kept) =
            self.sweep(specs, &hashes, &HashSet::new(), &f, &Indexed, Vec::new);
        // Each unique scenario resolved at its first occurrence; a later
        // occurrence aliases that result as a memory hit.
        let mut slots: Vec<Option<Resolved<R>>> = specs.iter().map(|_| None).collect();
        for r in kept.into_iter().flatten() {
            let i = r.index;
            slots[i] = Some(r);
        }
        let mut first = HashMap::with_capacity(specs.len());
        let mut results: Vec<Result<R, ScenarioError>> = Vec::with_capacity(specs.len());
        for (i, (spec, slot)) in specs.iter().zip(slots).enumerate() {
            let src = *first.entry(hashes[i]).or_insert(i);
            let ((disposition, wall, attempts), result) = match slot {
                Some(r) => (r.how, r.result),
                None => (
                    (Disposition::MemoryHit, Duration::ZERO, 0),
                    results[src].clone(),
                ),
            };
            report.scenarios.push(ScenarioRecord {
                spec: hashes[i],
                label: spec.label(),
                // Every occurrence of a failed scenario failed, aliases too.
                disposition: if result.is_err() {
                    Disposition::Failed
                } else {
                    disposition
                },
                wall,
                attempts,
            });
            results.push(result);
        }
        SweepOutcome { results, report }
    }

    /// Run a sweep as a streaming reduction: every successful result is
    /// folded into an accumulator *as workers finish*, so the sweep never
    /// materializes `Vec<R>` — memory stays O(workers + failures) no matter
    /// how many scenarios are submitted.
    ///
    /// `fold` absorbs one result into an accumulator; `merge` combines two
    /// accumulators. Together with `init` they must form a **commutative
    /// monoid** (fold/merge order is whatever order workers finish in):
    /// sums, counts, min/max, histograms qualify; order-sensitive folds do
    /// not. When they do, the aggregate is exactly what
    /// `run(...)` + a sequential fold would produce.
    ///
    /// Panic isolation, the retry budget, cache consultation, artifact
    /// commits, and duplicate-spec deduplication all behave exactly as in
    /// [`SweepRunner::run`] (a duplicate spec executes once and is folded
    /// once per occurrence).
    ///
    /// ```
    /// use hpcgrid_engine::{ScenarioSpec, SweepRunner};
    ///
    /// let specs: Vec<ScenarioSpec> = (0..1000)
    ///     .map(|i| ScenarioSpec::builder("sum").param("x", i as i64).build())
    ///     .collect();
    /// let mut runner: SweepRunner<i64> = SweepRunner::new();
    /// let total = runner
    ///     .run_fold(
    ///         &specs,
    ///         |ctx| Ok(ctx.spec.param_i64("x")?),
    ///         0_i64,
    ///         |acc, x| acc + x,
    ///         |a, b| a + b,
    ///     )
    ///     .expect_all("sum sweep");
    /// assert_eq!(total, 499_500);
    /// ```
    pub fn run_fold<A, F, Fold, Merge>(
        &mut self,
        specs: &[ScenarioSpec],
        f: F,
        init: A,
        fold: Fold,
        merge: Merge,
    ) -> FoldOutcome<A>
    where
        A: Clone + Send,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
        Merge: Fn(A, A) -> A,
    {
        let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
        let sink = PerWorkerFold {
            fold: &fold,
            acc: PhantomData,
        };
        let (report, locals) = self.sweep(specs, &hashes, &HashSet::new(), &f, &sink, || {
            (Some(init.clone()), Vec::new())
        });
        // Merge in worker order (phase 1's accumulator first), for what
        // little determinism that buys a commutative monoid.
        let mut errors = Vec::new();
        let value = locals
            .into_iter()
            .map(|(acc, errs)| {
                errors.extend(errs);
                acc.expect("accumulator present")
            })
            .reduce(merge)
            .expect("phase 1 always has an accumulator");
        FoldOutcome {
            value,
            errors,
            report,
        }
    }

    /// Like [`SweepRunner::run_fold`], but crash-safe: every completed
    /// scenario is recorded in an append-only run journal at `journal_path`
    /// (created fresh, truncating any previous file), and the serialized
    /// accumulator is checkpointed every [`SweepConfig::checkpoint_every`]
    /// completions. A killed process loses at most the unflushed journal
    /// tail; [`SweepRunner::resume`] finishes the sweep without re-executing
    /// any journaled scenario.
    ///
    /// Differences from `run_fold`:
    ///
    /// * No `merge`: workers hand completed results to a single folding
    ///   sink, so the fold happens sequentially **in journal append order**
    ///   and every checkpoint is a faithful prefix of the fold. `fold` must
    ///   still be a commutative monoid over `init` (append order varies with
    ///   worker timing) — which is also exactly what makes a resumed fold
    ///   bit-identical to an uninterrupted one.
    /// * The accumulator must serialize (`A: Serialize + Deserialize`) so
    ///   checkpoints can be written and restored.
    /// * Failed scenarios are *not* journaled: a resume attempts them again.
    /// * If the sweep stops early (an `engine.sweep.crash` failpoint fires,
    ///   or the journal becomes unwritable), the outcome's
    ///   `report.interrupted` is true and `value` holds the partial fold.
    ///
    /// Journal I/O is buffered: records are durable at checkpoint cadence,
    /// not per scenario, which keeps the overhead of journaling a warm sweep
    /// within a few percent.
    pub fn run_fold_journaled<A, F, Fold>(
        &mut self,
        journal_path: impl AsRef<Path>,
        specs: &[ScenarioSpec],
        f: F,
        init: A,
        fold: Fold,
    ) -> Result<FoldOutcome<A>, EngineError>
    where
        A: Send + Serialize + Deserialize,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
    {
        // Hash every spec exactly once: the fingerprint, the driver's
        // probes, its cache puts and each scenario's seed share this pass.
        let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
        let journal = RunJournal::create(
            journal_path.as_ref(),
            sweep_fingerprint_of(&hashes),
            specs.len(),
            Arc::clone(&self.chaos),
        )?;
        Ok(self.journaled_fold(journal, specs, &hashes, &HashSet::new(), f, fold, init))
    }

    /// Continue an interrupted [`SweepRunner::run_fold_journaled`] from its
    /// journal: restore the fold from the latest checkpoint plus the
    /// journaled results after it, then execute only the scenarios the
    /// journal does not cover, appending to the same journal.
    ///
    /// `specs`, `f`, `init`, and `fold` must describe the same sweep that
    /// wrote the journal. The spec list is validated against the journal's
    /// fingerprint (order-insensitively); a mismatch is
    /// [`EngineError::Journal`]. Journaled scenarios are never re-executed —
    /// they surface in the report as `journal_replayed` (counted per
    /// submission, like cache hits).
    pub fn resume<A, F, Fold>(
        &mut self,
        journal_path: impl AsRef<Path>,
        specs: &[ScenarioSpec],
        f: F,
        init: A,
        fold: Fold,
    ) -> Result<FoldOutcome<A>, EngineError>
    where
        A: Send + Serialize + Deserialize,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
    {
        let path = journal_path.as_ref();
        let replay = RunJournal::replay(path)?;
        let hashes: Vec<ContentHash> = specs.iter().map(ScenarioSpec::content_hash).collect();
        let fingerprint = sweep_fingerprint_of(&hashes);
        if replay.fingerprint != fingerprint {
            return Err(EngineError::Journal(format!(
                "journal {} was written for a different sweep \
                 (its fingerprint {} != this spec list's {})",
                path.display(),
                replay.fingerprint,
                fingerprint
            )));
        }
        // Restore the fold: latest checkpoint, then the journaled results
        // appended after it, in journal order.
        let (covered, mut acc) = match &replay.checkpoint {
            Some((k, acc_value)) => (
                *k,
                A::from_value(acc_value).map_err(|e| {
                    EngineError::Journal(format!(
                        "checkpoint accumulator in {} does not deserialize: {e}",
                        path.display()
                    ))
                })?,
            ),
            None => (0, init),
        };
        for (_, mult, value) in &replay.entries[covered..] {
            let result = R::from_value(value).map_err(|e| {
                EngineError::Journal(format!(
                    "journaled result in {} does not deserialize: {e}",
                    path.display()
                ))
            })?;
            for _ in 0..*mult {
                acc = fold(acc, result.clone());
            }
        }
        let skip = replay.done_set();
        let journal = RunJournal::reopen(
            path.to_path_buf(),
            replay.entries.len(),
            replay.valid_len,
            Arc::clone(&self.chaos),
        )?;
        Ok(self.journaled_fold(journal, specs, &hashes, &skip, f, fold, acc))
    }

    /// Shared tail of [`SweepRunner::run_fold_journaled`] and
    /// [`SweepRunner::resume`]: drive everything not in `skip` into the
    /// journaled sink, then close out the journal.
    #[allow(clippy::too_many_arguments)]
    fn journaled_fold<A, F, Fold>(
        &mut self,
        journal: RunJournal,
        specs: &[ScenarioSpec],
        hashes: &[ContentHash],
        skip: &HashSet<ContentHash>,
        f: F,
        fold: Fold,
        acc: A,
    ) -> FoldOutcome<A>
    where
        A: Send + Serialize + Deserialize,
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        Fold: Fn(A, R) -> A + Sync,
    {
        let sink = Journaled {
            state: Mutex::new(JournalState {
                journal,
                acc: Some(acc),
            }),
            fold: &fold,
            checkpoint_every: self.config.checkpoint_every.max(1),
            chaos: &Arc::clone(&self.chaos),
        };
        let (mut report, errors) = self.sweep(specs, hashes, skip, &f, &sink, Vec::new);
        let JournalState { mut journal, acc } =
            sink.state.into_inner().expect("sink mutex poisoned");
        let acc = acc.expect("sink accumulator present");
        if report.interrupted {
            // Best-effort flush: everything journaled so far is resumable.
            let _ = journal.flush();
        } else if let Err(e) = journal.append_checkpoint(journal.done_count(), &acc.to_value()) {
            // The final checkpoint covers the whole journal (resume restores
            // in O(1) replay) and flushes the tail.
            eprintln!("hpcgrid-engine: final journal checkpoint failed: {e}");
            report.interrupted = true;
        }
        FoldOutcome {
            value: acc,
            errors: errors.into_iter().flatten().collect(),
            report,
        }
    }

    /// The one sweep driver behind every entry point: probe, execute and
    /// report, handing each resolved unique scenario to `sink`. Scenarios
    /// in `skip` count as journal-replayed and are never probed.
    ///
    /// `new_local` makes the sink's state on the calling thread, one for
    /// phase 1's cache hits and one per worker; they come back in that order.
    /// A sink's `Break` stops the sweep, and the report says `interrupted`.
    fn sweep<F, S>(
        &mut self,
        specs: &[ScenarioSpec],
        hashes: &[ContentHash],
        skip: &HashSet<ContentHash>,
        f: &F,
        sink: &S,
        mut new_local: impl FnMut() -> S::Local,
    ) -> (RunReport, Vec<S::Local>)
    where
        F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
        S: Sink<R>,
    {
        let t0 = Instant::now();
        let probes0 = self.cache.probe_stats();
        let mut report = RunReport {
            total: specs.len(),
            ..RunReport::default()
        };
        let mut hits = new_local();
        let mut stopped = false;

        // Phase 1 — probe. Duplicates collapse into one unique scenario with
        // its multiplicity; removing the count doubles as the seen-set, so a
        // later occurrence finds nothing and counts as a memory hit.
        let mut counts: HashMap<ContentHash, u64> = HashMap::with_capacity(hashes.len());
        for &h in hashes {
            *counts.entry(h).or_insert(0) += 1;
        }
        let mut to_run: Vec<(usize, u64)> = Vec::new();
        for (index, &key) in hashes.iter().enumerate() {
            if !skip.is_empty() && skip.contains(&key) {
                report.journal_replayed += 1;
                continue;
            }
            let Some(mult) = counts.remove(&key) else {
                report.memory_hits += 1;
                continue;
            };
            match self.cache.get(key) {
                Ok(Some((value, tier))) => {
                    let disposition = match tier {
                        CacheTier::Memory => {
                            report.memory_hits += 1;
                            Disposition::MemoryHit
                        }
                        CacheTier::Artifact => {
                            report.artifact_hits += 1;
                            Disposition::ArtifactHit
                        }
                    };
                    let hit = Resolved {
                        index,
                        key,
                        mult,
                        how: (disposition, Duration::ZERO, 0),
                        result: Ok(value),
                    };
                    if sink.absorb(&mut hits, hit).is_break() {
                        stopped = true;
                        to_run.clear();
                        break;
                    }
                }
                Ok(None) => to_run.push((index, mult)),
                Err(err) => {
                    // Corrupt artifact: recompute rather than fail the sweep,
                    // but count it and log the path so a damaged artifact
                    // directory does not degrade silently.
                    report.cache_corrupt += 1;
                    let path = self
                        .cache
                        .artifact_path_for(key)
                        .map(|p| p.display().to_string())
                        .unwrap_or_else(|| "<no artifact dir>".to_string());
                    eprintln!(
                        "hpcgrid-engine: corrupt cache artifact for scenario `{}` at {path}: {err}; recomputing",
                        specs[index].label()
                    );
                    to_run.push((index, mult));
                }
            }
        }

        // Phase 2 — execute the misses on a bounded work-stealing pool,
        // caching each success before the sink absorbs it. A sink's `Break`
        // raises `stop`, and every worker quits before its next scenario.
        let threads = self
            .config
            .threads
            .unwrap_or_else(|| default_threads(to_run.len()));
        let workers = threads.max(1).min(to_run.len());
        report.workers = workers;
        let (retry, deadline) = (self.config.retry, self.config.deadline);
        let (shared, chaos) = (&*self.shared, &*self.chaos);
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(stopped);
        let cache = Mutex::new(&mut self.cache);
        let finished = Mutex::new(Vec::with_capacity(workers));
        std::thread::scope(|s| {
            for w in 0..workers {
                let mut local = new_local();
                let (to_run, next, stop, cache, finished) =
                    (&to_run, &next, &stop, &cache, &finished);
                s.spawn(move || {
                    let mut tally = WorkerTally::default();
                    while !stop.load(Ordering::Relaxed) {
                        let Some(&(index, mult)) = to_run.get(next.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        let spec = &specs[index];
                        let key = hashes[index];
                        let ctx = ScenarioCtx {
                            spec,
                            seed: spec.derived_seed_from(key),
                            shared,
                        };
                        let started = Instant::now();
                        let (result, attempts) =
                            execute_with_retries(s, f, ctx, key, retry, chaos, deadline);
                        let wall = started.elapsed();
                        tally.executed += 1;
                        tally.retries += attempts.saturating_sub(1);
                        tally.busy += wall;
                        match &result {
                            // A failed cache commit (disk full, permissions)
                            // does not fail the scenario.
                            Ok(value) => {
                                _ = cache
                                    .lock()
                                    .expect("cache mutex poisoned")
                                    .put_keyed(key, spec, value)
                            }
                            Err(e) => {
                                tally.failed += 1;
                                tally.timed_out += usize::from(e.is_timeout());
                            }
                        }
                        let done = Resolved {
                            index,
                            key,
                            mult,
                            how: (Disposition::Executed, wall, attempts),
                            result,
                        };
                        if sink.absorb(&mut local, done).is_break() {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    finished
                        .lock()
                        .expect("worker mutex poisoned")
                        .push((w, local, tally));
                });
            }
        });

        // Phase 3 — the report: per-worker counters in worker order, then
        // the probe-stat deltas.
        report.interrupted = stop.into_inner();
        let mut finished = finished.into_inner().expect("worker mutex poisoned");
        finished.sort_by_key(|(w, ..)| *w);
        let mut locals = vec![hits];
        for (_, local, tally) in finished {
            report.executed += tally.executed;
            report.failed += tally.failed;
            report.timed_out += tally.timed_out;
            report.retries += tally.retries;
            report.worker_busy.push(tally.busy);
            locals.push(local);
        }
        let probes1 = self.cache.probe_stats();
        report.index_probes = probes1.index_probes - probes0.index_probes;
        report.disk_reads = probes1.disk_reads - probes0.disk_reads;
        report.wall = t0.elapsed();
        (report, locals)
    }
}

/// One resolved unique scenario, as the driver hands it to a sink.
struct Resolved<R> {
    /// Index into the submitted specs of the occurrence that was probed.
    index: usize,
    key: ContentHash,
    /// Occurrences of `key` in the submission this result stands for.
    mult: u64,
    /// How it was resolved, its execution wall time, and attempts made
    /// (zero for cache hits).
    how: (Disposition, Duration, u32),
    result: Result<R, ScenarioError>,
}

/// Where the driver hands each resolved scenario. A sink only absorbs:
/// probing, execution, cache puts and the report belong to the driver.
trait Sink<R>: Sync {
    /// Absorbing state private to phase 1 or to one worker, handed back to
    /// the entry point when the sweep ends.
    type Local: Send;

    /// Absorb one resolved scenario; `Break` stops the sweep.
    fn absorb(&self, local: &mut Self::Local, r: Resolved<R>) -> ControlFlow<()>;
}

/// One worker's contribution to the run report.
#[derive(Default)]
struct WorkerTally {
    executed: usize,
    failed: usize,
    timed_out: usize,
    retries: u32,
    busy: Duration,
}

/// [`SweepRunner::run`]'s sink: keeps every resolved scenario, so `run` can
/// fill slots, alias duplicates and build records once the sweep ends.
struct Indexed;

impl<R: Send> Sink<R> for Indexed {
    type Local = Vec<Resolved<R>>;

    fn absorb(&self, kept: &mut Self::Local, r: Resolved<R>) -> ControlFlow<()> {
        kept.push(r);
        ControlFlow::Continue(())
    }
}

/// [`SweepRunner::run_fold`]'s sink: each worker folds into its own
/// accumulator and keeps its own errors, so the fold path takes no lock.
struct PerWorkerFold<'a, A, Fold> {
    fold: &'a Fold,
    acc: PhantomData<fn(A) -> A>,
}

impl<A, R, Fold> Sink<R> for PerWorkerFold<'_, A, Fold>
where
    A: Send,
    R: Clone + Send,
    Fold: Fn(A, R) -> A + Sync,
{
    type Local = (Option<A>, Vec<ScenarioError>);

    fn absorb(&self, (acc, errors): &mut Self::Local, r: Resolved<R>) -> ControlFlow<()> {
        match r.result {
            Ok(value) => _ = fold_into(acc, value, r.mult, self.fold),
            Err(e) => errors.push(e),
        }
        ControlFlow::Continue(())
    }
}

/// The journaled sink of [`SweepRunner::run_fold_journaled`] and
/// [`SweepRunner::resume`]: completed results append to the journal and
/// fold into the accumulator under one lock, so the journal is always a
/// faithful prefix of the fold.
struct Journaled<'a, A, Fold> {
    state: Mutex<JournalState<A>>,
    fold: &'a Fold,
    checkpoint_every: usize,
    chaos: &'a FailpointSet,
}

struct JournalState<A> {
    journal: RunJournal,
    acc: Option<A>,
}

impl<A, R, Fold> Sink<R> for Journaled<'_, A, Fold>
where
    A: Send + Serialize,
    R: Clone + Send + Serialize,
    Fold: Fn(A, R) -> A + Sync,
{
    /// Failed scenarios are not journaled (a resume attempts them again);
    /// each worker keeps its own.
    type Local = Vec<ScenarioError>;

    fn absorb(&self, errors: &mut Self::Local, r: Resolved<R>) -> ControlFlow<()> {
        let value = match r.result {
            Ok(value) => value,
            Err(e) => {
                errors.push(e);
                return ControlFlow::Continue(());
            }
        };
        if r.how.0 == Disposition::Executed && self.chaos.fire(sites::SWEEP_CRASH).is_some() {
            // Simulated process death between compute and commit: the
            // result is dropped un-journaled, exactly what a kill here would
            // lose.
            return ControlFlow::Break(());
        }
        let mut state = self.state.lock().expect("sink mutex poisoned");
        match state.absorb(r.key, r.mult, value, self.fold, self.checkpoint_every) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => {
                eprintln!(
                    "hpcgrid-engine: run journal became unwritable: {e}; \
                     stopping sweep (resume to finish)"
                );
                ControlFlow::Break(())
            }
        }
    }
}

impl<A: Serialize> JournalState<A> {
    /// Journal one resolved scenario and fold it into the accumulator (once
    /// per submission occurrence), checkpointing at the configured cadence.
    fn absorb<R: Clone + Serialize>(
        &mut self,
        key: ContentHash,
        mult: u64,
        value: R,
        fold: &impl Fn(A, R) -> A,
        checkpoint_every: usize,
    ) -> Result<(), EngineError> {
        self.journal.append_done(key, mult, &value.to_value())?;
        let acc = fold_into(&mut self.acc, value, mult, fold);
        let done = self.journal.done_count();
        if done.is_multiple_of(checkpoint_every) {
            self.journal.append_checkpoint(done, &acc.to_value())?;
        }
        Ok(())
    }
}

/// Fold `value` into the accumulator once per occurrence (`mult >= 1`).
/// Sinks keep their accumulator in an `Option` so `fold` can take it by
/// value.
fn fold_into<'a, A, R: Clone>(
    acc: &'a mut Option<A>,
    value: R,
    mult: u64,
    fold: &impl Fn(A, R) -> A,
) -> &'a mut A {
    let mut folded = acc.take().expect("accumulator present");
    for _ in 1..mult {
        folded = fold(folded, value.clone());
    }
    acc.insert(fold(folded, value))
}

/// How one attempt of a scenario closure ended.
enum AttemptOutcome<R> {
    Ok(R),
    Err(String),
    Panicked(String),
}

/// Run one attempt: apply any armed scenario failpoints (stall, panic,
/// transient error — in that order), then the closure, all under panic
/// isolation.
fn run_attempt<R, F>(f: &F, ctx: ScenarioCtx<'_>, chaos: &FailpointSet) -> AttemptOutcome<R>
where
    F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if !chaos.is_empty() {
            if let Some(chaos::FaultAction::Stall(d)) = chaos.fire(sites::SCENARIO_STALL) {
                std::thread::sleep(d);
            }
            if chaos.fire(sites::SCENARIO_PANIC).is_some() {
                panic!("injected panic (chaos failpoint {})", sites::SCENARIO_PANIC);
            }
            if chaos.fire(sites::SCENARIO_ERR).is_some() {
                return Err(format!(
                    "injected transient I/O fault (chaos failpoint {})",
                    sites::SCENARIO_ERR
                ));
            }
        }
        f(ctx)
    }));
    match outcome {
        Ok(Ok(value)) => AttemptOutcome::Ok(value),
        Ok(Err(message)) => AttemptOutcome::Err(message),
        Err(payload) => AttemptOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

/// One scenario's attempt loop: run `f` under panic isolation until it
/// succeeds or the retry budget is spent, sleeping a seeded exponential
/// backoff before I/O-classed retries. Returns the result and the number of
/// attempts made.
///
/// With a deadline, each attempt runs on a watchdog thread spawned in the
/// sweep's own scope and the worker waits at most `budget` for it. An
/// over-budget attempt is abandoned — its thread keeps running and its
/// eventual result is dropped (the send fails against a dropped receiver).
/// Bounded stalls therefore drain by scope exit; a truly hung scenario
/// still needs a process kill, which the run journal makes cheap to recover
/// from.
fn execute_with_retries<'scope, 'env, R, F>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    f: &'env F,
    ctx: ScenarioCtx<'env>,
    key: ContentHash,
    retry: RetryPolicy,
    chaos: &'env FailpointSet,
    deadline: Option<Duration>,
) -> (Result<R, ScenarioError>, u32)
where
    R: Send + 'env,
    F: Fn(ScenarioCtx<'_>) -> Result<R, String> + Sync,
{
    let mut attempts = 0u32;
    let result = loop {
        attempts += 1;
        let outcome = match deadline {
            None => run_attempt(f, ctx, chaos),
            Some(budget) => {
                let (tx, rx) = mpsc::channel();
                scope.spawn(move || {
                    let _ = tx.send(run_attempt(f, ctx, chaos));
                });
                match rx.recv_timeout(budget) {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        if attempts >= retry.max_attempts() {
                            break Err(ScenarioError::TimedOut {
                                spec: key,
                                budget,
                                attempts,
                            });
                        }
                        continue;
                    }
                }
            }
        };
        match outcome {
            AttemptOutcome::Ok(value) => break Ok(value),
            AttemptOutcome::Err(message) => {
                if attempts >= retry.max_attempts() {
                    break Err(ScenarioError::Failed {
                        spec: key,
                        message,
                        attempts,
                    });
                }
                if io_classed(&message) {
                    let delay = retry.backoff_delay(attempts, ctx.seed);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
            AttemptOutcome::Panicked(message) => {
                if attempts >= retry.max_attempts() {
                    break Err(ScenarioError::Panicked {
                        spec: key,
                        message,
                        attempts,
                    });
                }
            }
        }
    };
    (result, attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RetryPolicy;

    fn specs(n: u64) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| {
                ScenarioSpec::builder("runner-test")
                    .trace_seed(i)
                    .param("i", i as i64)
                    .build()
            })
            .collect()
    }

    #[test]
    fn preserves_submission_order() {
        let specs = specs(64);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")? * 10));
        let values: Vec<i64> = outcome
            .results
            .iter()
            .map(|r| *r.as_ref().unwrap())
            .collect();
        assert_eq!(values, (0..64).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(outcome.report.executed, 64);
        assert_eq!(outcome.report.cache_hits(), 0);
        assert!(outcome.report.worker_utilization() >= 0.0);
    }

    #[test]
    fn second_run_is_all_hits() {
        let specs = specs(16);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
        let again = runner.run(&specs, |_| panic!("must not execute"));
        assert_eq!(again.report.executed, 0);
        assert_eq!(again.report.memory_hits, 16);
        assert_eq!(again.report.workers, 0);
        assert_eq!(
            again.results.iter().filter_map(|r| r.as_ref().ok()).count(),
            16
        );
    }

    #[test]
    fn duplicates_execute_once() {
        let one = specs(1);
        let tripled = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let count = AtomicUsize::new(0);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&tripled, |ctx| {
            count.fetch_add(1, Ordering::SeqCst);
            Ok(ctx.spec.param_i64("i")?)
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(outcome.report.executed, 1);
        assert_eq!(outcome.report.memory_hits, 2);
        assert!(outcome.results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn every_occurrence_of_a_failed_duplicate_is_recorded_failed() {
        let one = specs(1);
        let tripled = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let count = AtomicUsize::new(0);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&tripled, |_| {
            count.fetch_add(1, Ordering::SeqCst);
            panic!("always fails")
        });
        assert_eq!(count.load(Ordering::SeqCst), 1, "duplicates execute once");
        assert_eq!(outcome.report.executed, 1);
        assert_eq!(outcome.report.failed, 1);
        assert_eq!(outcome.report.memory_hits, 2);
        assert_eq!(outcome.errors().count(), 3);
        assert!(outcome
            .report
            .scenarios
            .iter()
            .all(|r| r.disposition == Disposition::Failed));
        assert_eq!(outcome.report.scenarios.len(), 3);
    }

    #[test]
    fn returned_error_is_typed_not_fatal() {
        let specs = specs(8);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run(&specs, |ctx| {
            let i = ctx.spec.param_i64("i")?;
            if i == 3 {
                Err("bad scenario".to_string())
            } else {
                Ok(i)
            }
        });
        assert_eq!(outcome.report.failed, 1);
        match &outcome.results[3] {
            Err(ScenarioError::Failed {
                message, attempts, ..
            }) => {
                assert_eq!(message, "bad scenario");
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(outcome.successes().count(), 7);
    }

    #[test]
    fn retry_budget_is_spent_and_reported() {
        let specs = specs(2);
        let mut runner: SweepRunner<i64> = SweepRunner::new().retry(RetryPolicy::with_budget(2));
        let outcome = runner.run(&specs, |ctx| {
            if ctx.spec.param_i64("i")? == 0 {
                Err("always fails".to_string())
            } else {
                Ok(1)
            }
        });
        // Scenario 0: 1 try + 2 retries, all failing.
        assert_eq!(outcome.report.retries, 2);
        match &outcome.results[0] {
            Err(ScenarioError::Failed { attempts, .. }) => assert_eq!(*attempts, 3),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_artifact_is_counted_and_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("hpcgrid-runner-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let specs = specs(1);
        // Plant a corrupt artifact where the cache will index it, *before*
        // the runner under test opens the directory.
        {
            let scout: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
            let path = scout
                .cache
                .artifact_path_for(specs[0].content_hash())
                .unwrap();
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, "not a valid artifact").unwrap();
        }
        let mut runner: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
        let outcome = runner.run(&specs, |ctx| Ok(ctx.spec.param_i64("i")?));
        assert_eq!(outcome.report.executed, 1);
        assert_eq!(outcome.report.cache_corrupt, 1);
        assert_eq!(*outcome.results[0].as_ref().unwrap(), 0);
        assert!(outcome.report.summary_table().contains("corrupt artifacts"));
        // The recomputation overwrote the artifact, so a fresh runner (empty
        // memory tier) now reads it cleanly.
        let mut fresh: SweepRunner<i64> = SweepRunner::with_artifact_dir(&dir).unwrap();
        let again = fresh.run(&specs, |_| panic!("must not execute"));
        assert_eq!(again.report.artifact_hits, 1);
        assert_eq!(again.report.cache_corrupt, 0);
        assert_eq!(again.report.disk_reads, 1, "one artifact fetch");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deterministic_seed_is_stable() {
        let specs = specs(4);
        let mut runner: SweepRunner<u64> = SweepRunner::new();
        let first = runner.run(&specs, |ctx| Ok(ctx.seed));
        let mut fresh: SweepRunner<u64> = SweepRunner::new();
        let second = fresh.run(&specs, |ctx| Ok(ctx.seed));
        for ((a, b), spec) in first.results.iter().zip(&second.results).zip(&specs) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            // The driver derives the seed from the key it already holds;
            // it is the spec's public derived seed.
            assert_eq!(*a.as_ref().unwrap(), spec.derived_seed());
        }
    }

    #[test]
    fn shared_inputs_reach_scenarios_without_copies() {
        let mut shared = SharedInputs::new();
        shared.insert("series/base", vec![1.0_f64; 1024]);
        let mut runner: SweepRunner<f64> = SweepRunner::new().shared_inputs(shared);
        let specs = specs(8);
        let outcome = runner.run(&specs, |ctx| {
            let series = ctx.shared.expect::<Vec<f64>>("series/base")?;
            Ok(series.iter().sum::<f64>() + ctx.spec.param_i64("i")? as f64)
        });
        assert_eq!(outcome.report.failed, 0);
        assert_eq!(*outcome.results[3].as_ref().unwrap(), 1027.0);
    }

    #[test]
    fn run_fold_matches_run_plus_sequential_fold() {
        let specs = specs(100);
        let mut a: SweepRunner<i64> = SweepRunner::new();
        let expected: i64 = a
            .run(&specs, |ctx| Ok(ctx.spec.param_i64("i")? * 3))
            .expect_all("run")
            .into_iter()
            .sum();
        let mut b: SweepRunner<i64> = SweepRunner::new();
        let folded = b
            .run_fold(
                &specs,
                |ctx| Ok(ctx.spec.param_i64("i")? * 3),
                0_i64,
                |acc, x| acc + x,
                |x, y| x + y,
            )
            .expect_all("run_fold");
        assert_eq!(folded, expected);
    }

    #[test]
    fn run_fold_folds_duplicates_once_per_occurrence() {
        let one = specs(1);
        let tripled = vec![one[0].clone(), one[0].clone(), one[0].clone()];
        let count = AtomicUsize::new(0);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run_fold(
            &tripled,
            |_| {
                count.fetch_add(1, Ordering::SeqCst);
                Ok(5)
            },
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        assert_eq!(count.load(Ordering::SeqCst), 1, "duplicates execute once");
        assert_eq!(outcome.value, 15, "but fold once per occurrence");
        assert_eq!(outcome.report.executed, 1);
        assert_eq!(outcome.report.memory_hits, 2);
    }

    #[test]
    fn run_fold_isolates_failures_and_reports_them() {
        let specs = specs(10);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        let outcome = runner.run_fold(
            &specs,
            |ctx| {
                let i = ctx.spec.param_i64("i")?;
                if i == 4 {
                    panic!("boom");
                }
                Ok(i)
            },
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        assert_eq!(outcome.errors.len(), 1);
        assert!(matches!(outcome.errors[0], ScenarioError::Panicked { .. }));
        assert_eq!(outcome.value, 45 - 4, "failed scenario contributes nothing");
        assert_eq!(outcome.report.failed, 1);
    }

    #[test]
    fn run_fold_populates_the_cache_for_later_runs() {
        let specs = specs(12);
        let mut runner: SweepRunner<i64> = SweepRunner::new();
        runner.run_fold(
            &specs,
            |ctx| Ok(ctx.spec.param_i64("i")?),
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        let again = runner.run_fold(
            &specs,
            |_| panic!("must not execute"),
            0_i64,
            |acc, x| acc + x,
            |x, y| x + y,
        );
        assert_eq!(again.report.executed, 0);
        assert_eq!(again.report.memory_hits, 12);
        assert_eq!(again.value, 66);
    }
}
