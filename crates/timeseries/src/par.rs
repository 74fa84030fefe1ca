//! Parallel batch helpers for independent, similarly sized tasks.
//!
//! [`try_par_map`] runs a closure over a slice of inputs on scoped threads
//! (`std::thread::scope`) with static chunking, preserving input order in
//! the output. Per-task panics are caught and reported as a [`ParError`]
//! instead of aborting the batch. Batch billing fans loads across it, and a
//! meter fleet fans its shards across it once per advance.
//! [`default_threads`] and [`panic_message`] are shared with the
//! `hpcgrid-engine` sweep runner, which schedules scenarios on its own
//! worker pool.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A worker task panicked during a parallel map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParError {
    /// Index of the first input whose task panicked.
    pub index: usize,
    /// Panic payload rendered to a string (`&str`/`String` payloads survive;
    /// anything else becomes a placeholder).
    pub message: String,
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ParError {}

/// Render a `catch_unwind` payload into something printable.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of worker threads to use: the machine's available parallelism,
/// clamped to the number of tasks, and at least 1.
pub fn default_threads(tasks: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(tasks).max(1)
}

/// Map `f` over `items` in parallel with static chunking; output order
/// matches input order. Falls back to a sequential map for 0–1 items. A
/// panic in any task stops the batch and is returned as a [`ParError`]
/// naming the first offending input index; tasks already running complete
/// normally.
pub fn try_par_map<T, U, F>(items: &[T], f: F) -> Result<Vec<U>, ParError>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    if n <= 1 {
        return seq_map(items, &f);
    }
    let threads = default_threads(n);
    let chunk = n.div_ceil(threads);
    let mut chunk_results: Vec<Result<Vec<U>, ParError>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                let f = &f;
                s.spawn(move || {
                    let base = ci * chunk;
                    let mut out = Vec::with_capacity(slice.len());
                    for (off, item) in slice.iter().enumerate() {
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(u) => out.push(u),
                            Err(payload) => {
                                return Err(ParError {
                                    index: base + off,
                                    message: panic_message(payload.as_ref()),
                                })
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        for h in handles {
            // Tasks never unwind past catch_unwind, so join only fails on
            // catastrophic runtime errors; surface those as a ParError too.
            chunk_results.push(h.join().unwrap_or_else(|payload| {
                Err(ParError {
                    index: usize::MAX,
                    message: panic_message(payload.as_ref()),
                })
            }));
        }
    });
    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<ParError> = None;
    for r in chunk_results {
        match r {
            Ok(part) => out.extend(part),
            Err(e) => {
                let replace = match &first_err {
                    Some(prev) => e.index < prev.index,
                    None => true,
                };
                if replace {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

fn seq_map<T, U, F: Fn(&T) -> U>(items: &[T], f: &F) -> Result<Vec<U>, ParError> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| ParError {
                index: i,
                message: panic_message(payload.as_ref()),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_par_map_preserves_order_at_every_size() {
        for n in [0u64, 1, 100, 1000] {
            let items: Vec<u64> = (0..n).collect();
            assert_eq!(
                try_par_map(&items, |x| x + 1).unwrap(),
                items.iter().map(|x| x + 1).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(1_000_000) >= 1);
    }

    #[test]
    fn try_par_map_reports_first_panic() {
        let items: Vec<u64> = (0..256).collect();
        let err = try_par_map(&items, |x| {
            if *x == 41 || *x == 97 {
                panic!("boom at {x}");
            }
            x * 2
        })
        .unwrap_err();
        assert_eq!(err.index, 41);
        assert!(err.message.contains("boom at 41"), "{}", err.message);
    }

    #[test]
    fn sequential_small_input_panic_is_caught() {
        let items = [1u64];
        let err = try_par_map(&items, |_| -> u64 { panic!("single") }).unwrap_err();
        assert_eq!(err.index, 0);
        assert!(err.message.contains("single"));
    }
}
