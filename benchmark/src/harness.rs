//! What every workload shares: run parameters, the measured record, a
//! seeded generator, result digests, the closed-loop clock, and the scratch
//! directory guard.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shortest window of the timed phase that [`Measured::work_per_s`] takes
/// a rate over.
pub const RATE_WINDOW_S: f64 = 0.25;

/// How one workload run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall-clock budget of the timed phase.
    pub seconds: f64,
    /// How many times set-up runs (the median is reported; the last set-up
    /// is the one measured).
    pub setups: usize,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of each request in the timed phase, in milliseconds.
    pub requests_ms: Vec<f64>,
    /// The timed phase in order, one entry per batch: a request, or a pass
    /// of concurrent requests.
    pub batches: Vec<Batch>,
    /// Operations attempted and failed, counted in units of work.
    pub attempted: u64,
    /// Operations that failed or did not do what was asked.
    pub failed: u64,
    /// Per-layer counters read from the libraries' public report structs.
    pub counters: Vec<(&'static str, f64)>,
    /// Correctness gates, by name.
    pub checks: Vec<(String, bool)>,
    /// Order-insensitive hash of the results.
    pub digest: u64,
    /// What one unit of work is, for the table.
    pub work_unit: &'static str,
    /// What one request is, for the table.
    pub request_unit: &'static str,
}

impl Measured {
    /// An empty record for a workload measuring `work_unit`s per second
    /// and the latency of each `request_unit`.
    pub fn new(work_unit: &'static str, request_unit: &'static str) -> Measured {
        Measured {
            work_unit,
            request_unit,
            ..Measured::default()
        }
    }

    /// Record a correctness gate.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    /// Record a per-layer counter.
    pub fn counter(&mut self, name: &'static str, value: f64) {
        self.counters.push((name, value));
    }

    /// Record a batch of the timed phase: `work` units in `secs` seconds,
    /// traced if spans were being recorded.
    pub fn batch(&mut self, work: f64, secs: f64) {
        self.batches.push(Batch {
            work,
            secs,
            traced: crate::trace::enabled(),
        });
    }

    /// Units of work the timed phase completed.
    pub fn work(&self) -> f64 {
        self.batches.iter().map(|b| b.work).sum()
    }

    /// Seconds the timed phase's batches took.
    pub fn busy_s(&self) -> f64 {
        self.batches.iter().map(|b| b.secs).sum()
    }

    /// Throughput over every batch; see [`median_rate`].
    pub fn work_per_s(&self) -> f64 {
        median_rate(self.batches.iter())
    }

    /// Throughput over the batches that were, or were not, traced.
    pub fn work_per_s_traced(&self, traced: bool) -> f64 {
        median_rate(self.batches.iter().filter(|b| b.traced == traced))
    }

    /// Every gate passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Run `setup` [`Params::setups`] times, timing each, and keep the last
    /// result. Earlier results are dropped before the next set-up starts,
    /// so repetitions do not stack up in memory.
    pub fn set_up<T>(&mut self, p: &Params, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..p.setups.max(1) {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup());
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up ran")
    }
}

/// One batch of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Batch {
    /// Units of work done.
    pub work: f64,
    /// Seconds it took.
    pub secs: f64,
    /// Whether spans were recorded while it ran.
    pub traced: bool,
}

/// Throughput: the median rate over windows of consecutive batches that
/// each hold at least [`RATE_WINDOW_S`] of batch time (a short final window
/// joins the one before it). Unlike total work over total time, the median
/// is not moved by a few slow seconds that other tenants of the machine
/// impose; stalls of the program's own show in the latency tail.
fn median_rate<'a>(batches: impl Iterator<Item = &'a Batch>) -> f64 {
    let mut windows = Vec::new();
    let (mut work, mut secs) = (0.0, 0.0);
    for b in batches {
        work += b.work;
        secs += b.secs;
        if secs >= RATE_WINDOW_S {
            windows.push((work, secs));
            (work, secs) = (0.0, 0.0);
        }
    }
    match windows.last_mut() {
        Some(last) if secs > 0.0 => {
            last.0 += work;
            last.1 += secs;
        }
        None if secs > 0.0 => windows.push((work, secs)),
        _ => {}
    }
    let rates: Vec<f64> = windows.iter().map(|(w, s)| w / s).collect();
    crate::stats::median(&rates)
}

/// The closed loop's clock: the timed phase issues requests until its
/// budget is spent, and always at least one.
///
/// In a traced run (recording on when the clock starts) the clock records
/// about half of the requests and leaves recording on once the timed phase
/// ends, so traced and untraced requests interleave and their rates compare
/// under the same conditions.
pub struct Clock {
    start: Instant,
    seconds: f64,
    issued: u64,
    alternate: bool,
}

impl Clock {
    /// Start a budget of `seconds`.
    pub fn start(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            seconds,
            issued: 0,
            alternate: crate::trace::enabled(),
        }
    }

    /// Whether to issue another request.
    pub fn another(&mut self) -> bool {
        self.another_if(true)
    }

    /// Whether to issue another request, given whether the workload has
    /// one to issue.
    pub fn another_if(&mut self, more: bool) -> bool {
        let go = more && (self.issued == 0 || self.start.elapsed().as_secs_f64() < self.seconds);
        if self.alternate {
            // A hashed coin rather than strict alternation, so the traced
            // half does not line up with any period in the workload's own
            // request sequence.
            crate::trace::set_enabled(!go || mix(self.issued, 0x7ACE).is_multiple_of(2));
        }
        self.issued += 1;
        go
    }
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed and
/// on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other `stream`s.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed, stream))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.range(0.0, 1.0) < p
    }
}

/// Fold `value` into the hash `h` (order-sensitive).
pub fn mix(h: u64, value: u64) -> u64 {
    let mut z = (h ^ value.rotate_left(17))
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 29;
    z.wrapping_mul(0x94D0_49BB_1331_11EB) ^ (z >> 32)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where runs write: `.run/` beside this package's manifest, inside the
/// checkout. Span logs stay there; scratch directories are removed.
pub fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".run")
}

/// A scratch directory under [`run_dir`], removed with everything in it
/// when dropped — also when a run panics, so a failed run does not leave
/// artifacts behind for the next one.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create a fresh, empty scratch directory.
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = run_dir().join(format!("scratch-{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of the files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_in_range() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(1, 0);
        for _ in 0..1_000 {
            let x = r.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let path = {
            let d = ScratchDir::new("test").expect("scratch dir");
            std::fs::write(d.path().join("f"), b"x").expect("write");
            assert_eq!(dir_bytes(d.path()), 1);
            d.path().to_path_buf()
        };
        assert!(!path.exists());
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        let _serial = crate::trace::serial();
        let mut m = Measured::default();
        assert_eq!(m.work_per_s(), 0.0);
        // Three 0.25 s windows at 100/s, one stalled window at 10/s, and a
        // short tail that joins the last window.
        for _ in 0..3 {
            m.batch(25.0, 0.25);
        }
        m.batch(2.5, 0.25);
        m.batch(1.0, 0.01);
        assert!((m.work_per_s() - 100.0).abs() < 1e-9, "{}", m.work_per_s());
        assert!((m.work_per_s_traced(false) - 100.0).abs() < 1e-9);
        assert_eq!(m.work_per_s_traced(true), 0.0);
        assert!((m.work() - 78.5).abs() < 1e-9);
        assert!((m.busy_s() - 1.01).abs() < 1e-9);
        // A phase shorter than one window is one window.
        let mut short = Measured::default();
        short.batch(3.0, 0.1);
        assert!((short.work_per_s() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_is_measured() {
        assert!(peak_rss_mb() > 0.0);
    }
}
