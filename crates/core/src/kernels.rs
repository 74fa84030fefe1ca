//! Shared compiled-kernel cache: one compile per distinct contract.
//!
//! Compiling a [`CompiledContract`] is the expensive step of every billing
//! workload — population-scale sweeps and meter fleets alike bill thousands
//! to millions of loads under a handful of distinct contracts. A
//! [`KernelCache`] holds one `Arc`'d kernel per distinct contract
//! (identity: the contract's [`crate::fingerprint::ComponentFingerprint`]),
//! over one calendar and compile horizon, so every consumer shares the
//! compile cost and one copy of the lowered timelines.
//!
//! This is the kernel-sharing machinery [`crate::fleet::MeterFleet`]
//! grew in PR 6, factored out so sweep drivers can use the same cache to
//! stock an `hpcgrid_engine::SharedInputs` registry: compile once here,
//! hand the `Arc` to a fleet *and* to every scenario in a sweep.

use crate::compiled::CompiledContract;
use crate::contract::Contract;
use crate::fingerprint;
use crate::{CoreError, Result};
use hpcgrid_units::{Calendar, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// A cache of compiled contract kernels over one calendar and horizon.
///
/// ```
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::kernels::KernelCache;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_units::{Calendar, EnergyPrice, SimTime};
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let mut cache = KernelCache::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(30));
/// let a = cache.get_or_compile(&contract)?; // compiles
/// let b = cache.get_or_compile(&contract)?; // shares a's kernel
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct KernelCache {
    calendar: Calendar,
    start: SimTime,
    end: SimTime,
    /// Kernels by `fingerprint().0`.
    kernels: HashMap<u64, Arc<CompiledContract>>,
    hits: u64,
    misses: u64,
}

impl KernelCache {
    /// An empty cache compiling under `calendar` for the horizon
    /// `[start, end)`.
    pub fn new(calendar: Calendar, start: SimTime, end: SimTime) -> KernelCache {
        KernelCache {
            calendar,
            start,
            end,
            kernels: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The calendar kernels are compiled under.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// The compile horizon `[start, end)` every cached kernel shares.
    pub fn horizon(&self) -> (SimTime, SimTime) {
        (self.start, self.end)
    }

    /// Distinct kernels held.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True if no kernels are cached.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Lookups (via [`KernelCache::get_or_compile`] /
    /// [`KernelCache::get_or_insert`]) served by an existing kernel.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that compiled or admitted a new kernel.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served by an already-cached kernel.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Peek at the kernel for a fingerprint without touching the hit/miss
    /// counters.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<CompiledContract>> {
        self.kernels.get(&fingerprint).map(Arc::clone)
    }

    /// The kernel for `contract`, compiling it at most once per distinct
    /// contract — subsequent calls (and other consumers of the returned
    /// `Arc`) share it.
    pub fn get_or_compile(&mut self, contract: &Contract) -> Result<Arc<CompiledContract>> {
        let fp = fingerprint::of_contract(contract).0;
        if let Some(k) = self.kernels.get(&fp) {
            self.hits += 1;
            return Ok(Arc::clone(k));
        }
        self.misses += 1;
        let k = Arc::new(CompiledContract::compile(
            &self.calendar,
            contract,
            self.start,
            self.end,
        )?);
        self.kernels.insert(fp, Arc::clone(&k));
        Ok(k)
    }

    /// Admit an externally compiled kernel (e.g. a patched kernel from
    /// [`CompiledContract::patch`]), returning the cache's canonical `Arc`
    /// for its fingerprint — the existing kernel if one is already cached,
    /// otherwise `kernel` itself.
    ///
    /// Fails if the kernel was compiled for a different horizon than the
    /// cache's; all sharers must agree on the horizon for bills to be
    /// comparable.
    pub fn get_or_insert(
        &mut self,
        kernel: Arc<CompiledContract>,
    ) -> Result<Arc<CompiledContract>> {
        if kernel.horizon() != (self.start, self.end) {
            return Err(CoreError::BadSeries(format!(
                "kernel horizon {:?} does not match the cache horizon [{}, {})",
                kernel.horizon(),
                self.start,
                self.end
            )));
        }
        let fp = kernel.fingerprint().0;
        if let Some(existing) = self.kernels.get(&fp) {
            self.hits += 1;
            return Ok(Arc::clone(existing));
        }
        self.misses += 1;
        self.kernels.insert(fp, Arc::clone(&kernel));
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tariff::Tariff;
    use hpcgrid_units::EnergyPrice;

    fn contract(rate: f64) -> Contract {
        Contract::builder("kc-test")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(rate)))
            .build()
            .unwrap()
    }

    fn cache() -> KernelCache {
        KernelCache::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(30))
    }

    #[test]
    fn compiles_once_per_distinct_contract() {
        let mut c = cache();
        let a = c.get_or_compile(&contract(0.07)).unwrap();
        let b = c.get_or_compile(&contract(0.07)).unwrap();
        let other = c.get_or_compile(&contract(0.09)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(c.len(), 2);
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert!((c.reuse_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn get_or_insert_returns_the_canonical_kernel() {
        let mut c = cache();
        let a = c.get_or_compile(&contract(0.07)).unwrap();
        // An independently compiled copy of the same contract resolves to
        // the cached instance, so one kernel serves every caller.
        let copy = Arc::new(
            CompiledContract::compile(
                &Calendar::default(),
                &contract(0.07),
                SimTime::EPOCH,
                SimTime::from_days(30),
            )
            .unwrap(),
        );
        let resolved = c.get_or_insert(copy).unwrap();
        assert!(Arc::ptr_eq(&a, &resolved));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn horizon_mismatch_is_rejected() {
        let mut c = cache();
        let foreign = Arc::new(
            CompiledContract::compile(
                &Calendar::default(),
                &contract(0.07),
                SimTime::EPOCH,
                SimTime::from_days(7),
            )
            .unwrap(),
        );
        let err = c.get_or_insert(foreign).unwrap_err();
        assert!(err.to_string().contains("horizon"), "{err}");
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = cache();
        let a = c.get_or_compile(&contract(0.07)).unwrap();
        let fp = a.fingerprint().0;
        assert!(c.get(fp).is_some());
        assert!(c.get(fp ^ 1).is_none());
        assert_eq!((c.hits(), c.misses()), (0, 1));
    }
}
