//! # hpcgrid-engine
//!
//! Deterministic, fault-isolated scenario orchestration with
//! content-addressed result caching.
//!
//! The experiment binaries in this workspace all share one shape: build a
//! list of scenario descriptions (tariff × load × policy points), simulate
//! each independently, and tabulate. This crate factors that shape into an
//! engine:
//!
//! * [`ScenarioSpec`] — a complete, serializable description of one
//!   simulation point, with a stable [`ContentHash`] used as the cache key
//!   and as the source of the scenario's deterministic RNG seed.
//! * [`SweepRunner`] — a bounded work-stealing worker pool that executes
//!   scenario closures, isolates per-scenario panics into typed
//!   [`ScenarioError`]s (one bad scenario never takes down the sweep),
//!   honours a configurable [`RetryPolicy`], and preserves submission order.
//! * [`ResultCache`] — content-addressed results, in memory plus an optional
//!   sharded artifact directory (compact checksummed binary by default, JSON
//!   on request) fronted by an in-memory index, so re-running an overlapping
//!   sweep only computes the delta and hit checks never stat the filesystem.
//! * [`SharedInputs`] — zero-copy registry of `Arc`'d inputs (compiled
//!   kernels, load series) common to every scenario in a sweep.
//! * [`SweepRunner::run_fold`] — streaming monoid reduction for
//!   population-scale sweeps that must never materialize `Vec<R>`.
//! * [`RunReport`] — per-scenario wall time, cache hit/miss counters, retry
//!   counts, worker utilization, and a printable summary table.
//! * [`SweepRunner::run_fold_journaled`] / [`SweepRunner::resume`] — the
//!   crash-safe fold: an append-only CRC-framed [`RunJournal`] records every
//!   completion and periodically checkpoints the accumulator, so a killed
//!   sweep resumes with zero re-execution of journaled scenarios.
//! * [`chaos`] — deterministic fault injection: named, seeded failpoints
//!   for artifact I/O errors, torn writes, scenario panics/stalls, and
//!   simulated crashes, inert unless armed on a runner with
//!   [`SweepRunner::chaos`].
//! * [`SweepConfig::deadline`] — a per-scenario time budget enforced by a
//!   watchdog; over-budget scenarios surface as
//!   [`ScenarioError::TimedOut`] instead of wedging a worker.
//!
//! ```
//! use hpcgrid_engine::{ScenarioSpec, SweepRunner};
//!
//! let specs: Vec<ScenarioSpec> = [0.8, 1.0, 1.2]
//!     .iter()
//!     .map(|m| {
//!         ScenarioSpec::builder("tariff_sensitivity")
//!             .param("multiplier", *m)
//!             .build()
//!     })
//!     .collect();
//!
//! let mut runner: SweepRunner<f64> = SweepRunner::new();
//! let outcome = runner.run(&specs, |ctx| {
//!     let m = ctx.spec.param_f64("multiplier")?;
//!     Ok(m * 100.0) // stand-in for a full simulation
//! });
//! println!("{}", outcome.report.summary_table());
//! assert_eq!(outcome.successes().count(), 3);
//! ```

#![warn(missing_docs)]

pub mod binary;
pub mod cache;
pub mod chaos;
pub mod error;
pub mod hash;
pub mod journal;
pub mod report;
pub mod runner;
pub mod shared;
pub mod spec;
pub mod table;

pub use cache::{ArtifactFormat, CacheTier, ProbeStats, ResultCache};
pub use chaos::{FailpointSet, FaultAction};
pub use error::{io_classed, EngineError, RetryPolicy, ScenarioError};
pub use hash::{content_hash, ContentHash};
pub use journal::{sweep_fingerprint, sweep_fingerprint_of, JournalReplay, RunJournal};
pub use report::{Disposition, RunReport, ScenarioRecord};
pub use runner::{FoldOutcome, ScenarioCtx, SweepConfig, SweepOutcome, SweepRunner};
pub use shared::{kernel_key, series_key, SharedInputs};
pub use spec::{ParamValue, ScenarioSpec, ScenarioSpecBuilder};
pub use table::TextTable;
