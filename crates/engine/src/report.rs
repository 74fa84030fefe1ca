//! Run observability: per-scenario wall time, cache hit/miss counters, retry
//! counts, and worker utilization, printable as a summary table.

use crate::hash::ContentHash;
use crate::table::TextTable;
use std::time::Duration;

/// How one scenario's result was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served from the in-memory cache.
    MemoryHit,
    /// Served from an artifact on disk.
    ArtifactHit,
    /// Computed by executing the scenario closure.
    Executed,
    /// Execution failed (panic or returned error) after all attempts.
    Failed,
}

/// Per-scenario execution record.
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// The scenario's content hash.
    pub spec: ContentHash,
    /// Human label (from [`crate::ScenarioSpec::label`]).
    pub label: String,
    /// How the result was obtained.
    pub disposition: Disposition,
    /// Wall time spent executing this scenario (zero for cache hits).
    pub wall: Duration,
    /// Attempts made (0 for cache hits, 1 for first-try successes).
    pub attempts: u32,
}

/// Aggregated observability for one sweep run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Scenarios submitted.
    pub total: usize,
    /// Served from the in-memory cache.
    pub memory_hits: usize,
    /// Served from disk artifacts.
    pub artifact_hits: usize,
    /// Executed (including failed executions).
    pub executed: usize,
    /// Failed after all attempts.
    pub failed: usize,
    /// Total retry attempts beyond each scenario's first try.
    pub retries: u32,
    /// Artifact-tier cache reads that failed to decode (corrupt, truncated
    /// or of a foreign version). Each such scenario was recomputed; a
    /// nonzero count means the artifact directory needs attention.
    pub cache_corrupt: usize,
    /// Artifact-tier hit/miss probes answered by the in-memory index
    /// without touching the filesystem.
    pub index_probes: u64,
    /// Artifact files actually read from disk (fetches of indexed keys).
    pub disk_reads: u64,
    /// End-to-end wall time of the sweep.
    pub wall: Duration,
    /// Worker pool size used for the execution phase.
    pub workers: usize,
    /// Per-worker busy time (length = `workers`; empty if nothing executed).
    pub worker_busy: Vec<Duration>,
    /// Scenarios that exceeded their per-scenario deadline on every attempt
    /// (subset of `failed`).
    pub timed_out: usize,
    /// Scenarios restored from a run journal on resume instead of being
    /// re-executed (counted per submission, like `memory_hits`).
    pub journal_replayed: usize,
    /// True if the sweep stopped early — an injected crash failpoint fired
    /// or the run journal became unwritable. The fold state up to the last
    /// flush is journaled and the sweep can be [`crate::SweepRunner::resume`]d.
    pub interrupted: bool,
    /// Per-scenario records, in submission order.
    pub scenarios: Vec<ScenarioRecord>,
}

impl RunReport {
    /// Cache hits from any tier.
    pub fn cache_hits(&self) -> usize {
        self.memory_hits + self.artifact_hits
    }

    /// Scenarios that had to be computed (cache misses).
    pub fn cache_misses(&self) -> usize {
        self.executed
    }

    /// Hit ratio in `[0, 1]` (1.0 for an empty sweep).
    pub fn hit_ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.cache_hits() as f64 / self.total as f64
        }
    }

    /// Mean worker utilization during the execution phase: busy time divided
    /// by (workers × span of the execution phase). 1.0 means every worker
    /// was busy the whole time; 0.0 if nothing executed.
    pub fn worker_utilization(&self) -> f64 {
        if self.workers == 0 || self.wall.is_zero() {
            return 0.0;
        }
        let busy: Duration = self.worker_busy.iter().sum();
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (busy.as_secs_f64() / capacity).min(1.0)
        }
    }

    /// Total and mean execution time over executed scenarios.
    pub fn exec_time(&self) -> (Duration, Duration) {
        let times: Vec<Duration> = self
            .scenarios
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Executed | Disposition::Failed))
            .map(|r| r.wall)
            .collect();
        let total: Duration = times.iter().sum();
        let mean = if times.is_empty() {
            Duration::ZERO
        } else {
            total / times.len() as u32
        };
        (total, mean)
    }

    /// The slowest executed scenarios, worst first.
    pub fn slowest(&self, n: usize) -> Vec<&ScenarioRecord> {
        let mut executed: Vec<&ScenarioRecord> = self
            .scenarios
            .iter()
            .filter(|r| matches!(r.disposition, Disposition::Executed | Disposition::Failed))
            .collect();
        executed.sort_by_key(|r| std::cmp::Reverse(r.wall));
        executed.truncate(n);
        executed
    }

    /// Render the run summary as an aligned text table.
    pub fn summary_table(&self) -> String {
        let mut t = TextTable::new(vec!["metric", "value"]);
        t.row(vec!["scenarios".to_string(), self.total.to_string()]);
        t.row(vec![
            "cache hits".to_string(),
            format!(
                "{} ({} memory, {} artifact)",
                self.cache_hits(),
                self.memory_hits,
                self.artifact_hits
            ),
        ]);
        t.row(vec!["executed".to_string(), self.executed.to_string()]);
        t.row(vec!["failed".to_string(), self.failed.to_string()]);
        if self.timed_out > 0 {
            t.row(vec!["timed out".to_string(), self.timed_out.to_string()]);
        }
        if self.journal_replayed > 0 {
            t.row(vec![
                "journal replayed".to_string(),
                self.journal_replayed.to_string(),
            ]);
        }
        if self.interrupted {
            t.row(vec!["interrupted".to_string(), "yes".to_string()]);
        }
        t.row(vec!["retries".to_string(), self.retries.to_string()]);
        if self.cache_corrupt > 0 {
            t.row(vec![
                "corrupt artifacts".to_string(),
                self.cache_corrupt.to_string(),
            ]);
        }
        t.row(vec![
            "hit ratio".to_string(),
            format!("{:.1}%", self.hit_ratio() * 100.0),
        ]);
        if self.index_probes > 0 || self.disk_reads > 0 {
            t.row(vec![
                "artifact probes (index / disk reads)".to_string(),
                format!("{} / {}", self.index_probes, self.disk_reads),
            ]);
        }
        t.row(vec![
            "wall time".to_string(),
            format!("{:.3} s", self.wall.as_secs_f64()),
        ]);
        let (exec_total, exec_mean) = self.exec_time();
        t.row(vec![
            "exec time (sum / mean)".to_string(),
            format!(
                "{:.3} s / {:.3} s",
                exec_total.as_secs_f64(),
                exec_mean.as_secs_f64()
            ),
        ]);
        t.row(vec!["workers".to_string(), self.workers.to_string()]);
        t.row(vec![
            "worker utilization".to_string(),
            format!("{:.1}%", self.worker_utilization() * 100.0),
        ]);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(disposition: Disposition, ms: u64) -> ScenarioRecord {
        ScenarioRecord {
            spec: ContentHash(1),
            label: "t".to_string(),
            disposition,
            wall: Duration::from_millis(ms),
            attempts: 1,
        }
    }

    #[test]
    fn counters_and_ratio() {
        let r = RunReport {
            total: 4,
            memory_hits: 1,
            artifact_hits: 1,
            executed: 2,
            failed: 1,
            retries: 3,
            cache_corrupt: 0,
            index_probes: 3,
            disk_reads: 1,
            wall: Duration::from_millis(100),
            workers: 2,
            worker_busy: vec![Duration::from_millis(80), Duration::from_millis(40)],
            timed_out: 1,
            journal_replayed: 0,
            interrupted: false,
            scenarios: vec![
                record(Disposition::MemoryHit, 0),
                record(Disposition::ArtifactHit, 0),
                record(Disposition::Executed, 60),
                record(Disposition::Failed, 40),
            ],
        };
        assert_eq!(r.cache_hits(), 2);
        assert_eq!(r.cache_misses(), 2);
        assert!((r.hit_ratio() - 0.5).abs() < 1e-12);
        assert!((r.worker_utilization() - 0.6).abs() < 1e-9);
        let (total, mean) = r.exec_time();
        assert_eq!(total, Duration::from_millis(100));
        assert_eq!(mean, Duration::from_millis(50));
        assert_eq!(r.slowest(1)[0].wall, Duration::from_millis(60));
        let table = r.summary_table();
        assert!(table.contains("hit ratio"));
        assert!(table.contains("50.0%"));
        assert!(table.contains("timed out"));
        assert!(!table.contains("interrupted"));
    }

    #[test]
    fn empty_report_is_well_defined() {
        let r = RunReport::default();
        assert_eq!(r.hit_ratio(), 1.0);
        assert_eq!(r.worker_utilization(), 0.0);
        assert!(r.summary_table().contains("scenarios"));
    }
}
