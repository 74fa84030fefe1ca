//! The compiled billing kernel: contracts lowered to flat segment timelines,
//! with incremental recompilation for sweep workloads.
//!
//! [`crate::billing::BillingEngine::bill`] re-derives civil-calendar facts for
//! every sample — `Calendar::month`, `weekday`, `time_of_day` per interval in
//! [`crate::tariff::TouTariff::price_at`], `Calendar::billing_month` per
//! interval in block-tariff bucketing — so sweep cost is dominated by
//! redundant calendar arithmetic. This module compiles a
//! [`Contract`] + [`Calendar`] + time horizon once into:
//!
//! * a **price timeline** per energy tariff: piecewise-constant `$ / kWh`
//!   segments whose breakpoints are precomputed `SimTime` seconds (TOU window
//!   edges per day, dynamic-strip interval edges), so pricing a
//!   [`PowerSeries`] is a single linear merge of two sorted sequences;
//! * a **month-boundary index**: the billing-month start midnights inside the
//!   horizon, shared by demand-charge bucketing, block-tariff bucketing, and
//!   the service-fee month count.
//!
//! # Incremental recompilation
//!
//! Each lowered tariff is an independent **piece** held behind an [`Arc`] and
//! keyed by a [`ComponentFingerprint`] of its source component. Sweep-style
//! workloads (the paper's procurement auctions; TARDIS-style multi-center
//! cost optimization) mutate one component per scenario, so
//! [`CompiledContract::patch`] re-lowers *only* the changed piece and shares
//! the rest by reference count — a thousand scenario variants of a rich
//! contract hold one copy of every unchanged timeline. Market-price
//! revisions go through [`CompiledContract::with_price_strip`], which lowers
//! the dynamic tariff's markup/fallback logic into a fresh strip timeline at
//! strip resolution (a tight segment splice with no calendar calls) and
//! leaves every other piece untouched.
//!
//! # Precision modes
//!
//! Under the default [`Precision::BitExact`], evaluation is **bit-identical**
//! to the interpreted path: segment prices are computed with the same
//! `price_at` expressions the interpreter would use, and every
//! floating-point accumulation replicates the interpreter's expression shape
//! and summation order (see the `compiled_equivalence` integration tests).
//! The same holds for every patched kernel: `patch` and `with_price_strip`
//! produce kernels equal to a fresh [`CompiledContract::compile`] of
//! [`Contract::apply`]'s output (see the `patch_equivalence` property
//! tests), because pieces are lowered by one shared routine and unchanged
//! pieces are reused verbatim. Compilation costs one `price_at` call per
//! candidate breakpoint (a few per day of horizon), so it amortizes after
//! roughly two bills per contract — and a patch amortizes immediately.
//!
//! [`Precision::Fast`] opts into the vectorized kernels from
//! `hpcgrid_units::kernels`: 8-lane pairwise summation for energy costs and
//! block-tariff buckets (within a `1e-12` relative tolerance of the exact
//! path for horizons up to a year; property-tested in `fast_equivalence`),
//! and a branchless lane-max demand scan that is *bit-equal* to the exact
//! peak whenever the demand interval is no coarser than the load's step.
//! Both modes route through a reusable **segment map** — the
//! segment→sample-range index for a load geometry `(start, step, len)`,
//! cached per timeline and shared across `bill_many`/sweep revisions (and,
//! via `Arc`-shared pieces, across `patch`/`with_price_strip`), so repeated
//! bills of one geometry skip the `partition_point`/`div_ceil` merge
//! entirely.

use crate::billing::{Bill, LineItem, Precision};
use crate::contract::{Contract, ContractDelta};
use crate::demand_charge::{DemandAssessment, DemandCharge};
use crate::emergency::EmergencyDrClause;
use crate::fingerprint::{self, ComponentFingerprint};
use crate::powerband::Powerband;
use crate::tariff::{BlockTariff, DynamicTariff, Tariff};
use crate::typology::ContractComponentKind;
use crate::{CoreError, Result};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries};
use hpcgrid_units::time::SECS_PER_DAY;
use hpcgrid_units::{kernels, Calendar, EnergyPrice, Money, Power, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The sample geometry of a load series — everything the segment→sample
/// mapping of a [`PriceTimeline`] depends on. Two loads with the same
/// geometry (start, step, length) share one [`SegmentMap`] regardless of
/// their power values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SampleGeometry {
    start: u64,
    step: u64,
    len: usize,
}

impl SampleGeometry {
    /// Start time of the sample one past the end of this geometry — the
    /// sample a one-step extension would add.
    fn next_sample_start(&self) -> u64 {
        self.start + self.len as u64 * self.step
    }
}

impl SampleGeometry {
    fn of(load: &PowerSeries) -> SampleGeometry {
        SampleGeometry {
            start: load.start().as_secs(),
            step: load.step().as_secs(),
            len: load.len(),
        }
    }
}

/// The segment→sample-range index for one load geometry: run `k` covers
/// sample indexes `[runs[k-1].0, runs[k].0)` at `runs[k].1` dollars per kWh
/// (the first run starts at 0). Zero-length segments (shorter than one
/// sample step) are dropped — they price no samples. Replaying the runs
/// makes the same per-sample multiply-adds in the same order as the direct
/// merge, so routing the bit-exact path through a map changes nothing.
#[derive(Debug)]
pub(crate) struct SegmentMap {
    pub(crate) runs: Vec<(usize, f64)>,
    /// Timeline segment index in force at the map's final sample: where a
    /// one-step extension must stay ([`SegmentMap::extendable_by`]) and
    /// where cursor-mode evaluation resumes when a stream outgrows the map.
    pub(crate) last_seg: usize,
}

impl SegmentMap {
    /// True if appending one sample starting at `t_new` keeps the map's
    /// final segment in force — the cheap check that lets a cached map grow
    /// by one step instead of missing. `breaks` must be the timeline this
    /// map was built against.
    pub(crate) fn extendable_by(&self, breaks: &[u64], t_new: u64) -> bool {
        !self.runs.is_empty()
            && match breaks.get(self.last_seg + 1) {
                Some(&b) => t_new < b,
                None => true,
            }
    }
}

/// Upper bound on cached geometries per timeline. Sweeps bill one or a few
/// geometries thousands of times; 16 covers every workload in the repo while
/// bounding memory for adversarial geometry churn (oldest entry evicted).
const SEGMENT_MAP_CACHE_CAP: usize = 16;

/// One immutable cache snapshot: geometry-keyed segment maps in insertion
/// order (oldest first, for capacity eviction).
type MapEntries = Vec<(SampleGeometry, Arc<SegmentMap>)>;

/// Per-timeline cache of [`SegmentMap`]s keyed by [`SampleGeometry`], with
/// hit/miss counters for bench observability. The cache is *derived* state:
/// it never participates in equality, and cloning a timeline starts a fresh
/// (empty) cache. Because compiled tariff pieces are shared behind [`Arc`],
/// the cache survives [`CompiledContract::patch`]/`with_price_strip` for
/// every piece the patch does not re-lower.
///
/// The entry list is a read-mostly copy-on-write snapshot: readers clone
/// one `Arc` under a briefly-held read lock and then search lock-free,
/// writers rebuild the (≤[`SEGMENT_MAP_CACHE_CAP`]-entry) list and swap the
/// `Arc` under the write lock. Million-meter fleet shards sharing one
/// kernel therefore never serialize on the steady-state lookup — the old
/// `Mutex` design made every concurrent bill queue behind a single lock.
/// The published snapshot is always whole (the swap is one `Arc` store), so
/// a panicking writer cannot tear it; poisoned locks are simply recovered.
/// The one trade: a cold geometry hit by many workers at once may be built
/// more than once, with [`SegmentMapCache::publish`] deduplicating to a
/// single winner — bounded, one-time work, in exchange for a contention-free
/// hot path.
#[derive(Debug, Default)]
struct SegmentMapCache {
    entries: RwLock<Arc<MapEntries>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SegmentMapCache {
    /// The current entry snapshot: one `Arc` clone under the read lock,
    /// searched lock-free afterwards.
    fn snapshot(&self) -> Arc<MapEntries> {
        Arc::clone(&self.entries.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Publish `map` for `geom` copy-on-write, evicting the oldest entry at
    /// capacity. If another worker raced the build and published first,
    /// theirs wins and is returned — all callers share one map per
    /// geometry.
    fn publish(&self, geom: SampleGeometry, map: Arc<SegmentMap>) -> Arc<SegmentMap> {
        let mut guard = self.entries.write().unwrap_or_else(|p| p.into_inner());
        if let Some((_, existing)) = guard.iter().find(|(g, _)| *g == geom) {
            return Arc::clone(existing);
        }
        let mut next: MapEntries = guard.iter().cloned().collect();
        if next.len() >= SEGMENT_MAP_CACHE_CAP {
            next.remove(0);
        }
        next.push((geom, Arc::clone(&map)));
        *guard = Arc::new(next);
        map
    }
}

/// A piecewise-constant price timeline: segment `i` covers
/// `[breaks[i], breaks[i+1])` (the last segment extends to the compile
/// horizon's end) at `prices[i]` dollars per kWh. Adjacent segments with
/// bitwise-equal prices are merged at compile time.
#[derive(Debug)]
pub struct PriceTimeline {
    /// Segment start times in seconds; `breaks[0]` is the horizon start.
    pub(crate) breaks: Vec<u64>,
    /// Segment prices in `$ / kWh`, one per break.
    pub(crate) prices: Vec<f64>,
    /// Reusable segment→sample-range maps, keyed by load geometry.
    maps: SegmentMapCache,
}

impl Clone for PriceTimeline {
    fn clone(&self) -> PriceTimeline {
        PriceTimeline {
            breaks: self.breaks.clone(),
            prices: self.prices.clone(),
            maps: SegmentMapCache::default(),
        }
    }
}

/// Equality is over the priced segments alone; the segment-map cache is
/// derived state and never observable through billing.
impl PartialEq for PriceTimeline {
    fn eq(&self, other: &PriceTimeline) -> bool {
        self.breaks == other.breaks && self.prices == other.prices
    }
}

impl PriceTimeline {
    /// Lower a time-based tariff (fixed, TOU, or dynamic) over `[start, end)`.
    ///
    /// Candidate breakpoints are the horizon start plus, for TOU, each
    /// window's `from`/`to` edge and midnight of every day in the horizon;
    /// for dynamic tariffs, every strip interval edge. Segment prices are
    /// computed with the interpreter's own [`Tariff::price_at`], so any
    /// sample inside a segment sees the exact `f64` the interpreted path
    /// would use. A window-membership change can only happen at a candidate
    /// breakpoint: month and weekday are constant within a day, and
    /// `Calendar::time_of_day` truncates to minutes while window edges are
    /// minute-aligned.
    fn compile(cal: &Calendar, tariff: &Tariff, start: SimTime, end: SimTime) -> PriceTimeline {
        let s0 = start.as_secs();
        let e = end.as_secs();
        let mut cuts: Vec<u64> = Vec::new();
        match tariff {
            Tariff::Fixed(_) => {}
            Tariff::TimeOfUse(tou) => {
                let mut offsets: Vec<u64> = vec![0];
                for w in &tou.windows {
                    offsets.push(w.from.seconds_into_day());
                    offsets.push(w.to.seconds_into_day());
                }
                offsets.sort_unstable();
                offsets.dedup();
                let first_day = s0 / SECS_PER_DAY;
                let last_day = (e - 1) / SECS_PER_DAY;
                for day in first_day..=last_day {
                    let base = day * SECS_PER_DAY;
                    for &off in &offsets {
                        let cut = base + off;
                        if cut > s0 && cut < e {
                            cuts.push(cut);
                        }
                    }
                }
            }
            Tariff::Dynamic(d) => return PriceTimeline::compile_dynamic(d, start, end),
            Tariff::Block(_) => unreachable!("block tariffs are not strip-compiled"),
        }
        let mut breaks = vec![s0];
        let mut prices = vec![tariff.price_at(cal, start).as_dollars_per_kilowatt_hour()];
        for cut in cuts {
            let p = tariff
                .price_at(cal, SimTime::from_secs(cut))
                .as_dollars_per_kilowatt_hour();
            // Merge bitwise-equal neighbours: the merged segment prices every
            // sample with the same f64 either way.
            if p.to_bits() != prices[prices.len() - 1].to_bits() {
                breaks.push(cut);
                prices.push(p);
            }
        }
        PriceTimeline {
            breaks,
            prices,
            maps: SegmentMapCache::default(),
        }
    }

    /// Lower a dynamic tariff's markup/fallback logic into the strip
    /// timeline at strip resolution: one candidate breakpoint per strip
    /// interval edge, priced `values[i] + markup` inside the strip and
    /// `fallback` outside — the exact `f64` expressions of
    /// [`DynamicTariff::price_at`], with no calendar calls and no per-cut
    /// index division. This single routine serves both full compilation and
    /// the [`CompiledContract::with_price_strip`] splice, which is what
    /// makes a market-price revision bit-identical to a recompile.
    fn compile_dynamic(d: &DynamicTariff, start: SimTime, end: SimTime) -> PriceTimeline {
        let s0 = start.as_secs();
        let e = end.as_secs();
        let step = d.prices.step().as_secs();
        let strip_start = d.prices.start().as_secs();
        let n = d.prices.len();
        let values = d.prices.values();
        let markup = d.markup;
        let fallback = d.fallback.as_dollars_per_kilowatt_hour();
        let mut breaks = vec![s0];
        let mut prices = vec![d.price_at(start).as_dollars_per_kilowatt_hour()];
        let push = |cut: u64, p: f64, breaks: &mut Vec<u64>, prices: &mut Vec<f64>| {
            if cut > s0 && cut < e && p.to_bits() != prices[prices.len() - 1].to_bits() {
                breaks.push(cut);
                prices.push(p);
            }
        };
        for (i, v) in values.iter().enumerate() {
            let cut = strip_start + i as u64 * step;
            let p = (*v + markup).as_dollars_per_kilowatt_hour();
            push(cut, p, &mut breaks, &mut prices);
        }
        push(
            strip_start + n as u64 * step,
            fallback,
            &mut breaks,
            &mut prices,
        );
        PriceTimeline {
            breaks,
            prices,
            maps: SegmentMapCache::default(),
        }
    }

    /// Number of price segments.
    pub fn segments(&self) -> usize {
        self.prices.len()
    }

    /// Build the segment→sample-range index for one geometry: the same
    /// `partition_point` + `div_ceil` merge the direct cost loop performed
    /// per bill, done once and replayed thereafter. Prices are embedded in
    /// the runs, so replaying cannot skew segment indexes.
    fn build_map(&self, geom: SampleGeometry) -> SegmentMap {
        let SampleGeometry {
            start: t0,
            step,
            len,
        } = geom;
        let mut runs = Vec::new();
        // Segment covering the first sample: breaks[seg] <= t0 < breaks[seg+1]
        // (breaks[0] is the horizon start, which bounds the load from below).
        let mut seg = self.breaks.partition_point(|b| *b <= t0) - 1;
        let mut last_seg = seg;
        let mut i = 0usize;
        while i < len {
            // Sample `j` (at t0 + j·step) lies in this segment while its time
            // is below the next break.
            let i_end = match self.breaks.get(seg + 1) {
                Some(&b) => ((b - t0).div_ceil(step) as usize).min(len),
                None => len,
            };
            if i_end > i {
                runs.push((i_end, self.prices[seg]));
                last_seg = seg;
            }
            i = i_end;
            seg += 1;
        }
        SegmentMap { runs, last_seg }
    }

    /// The cached [`SegmentMap`] for `load`'s geometry, built on first use.
    /// The steady-state hit is a lock-free snapshot search; concurrent
    /// workers racing one cold geometry may build it more than once, with
    /// [`SegmentMapCache::publish`] deduplicating to a single winner.
    fn map_for(&self, load: &PowerSeries) -> Arc<SegmentMap> {
        let geom = SampleGeometry::of(load);
        let entries = self.maps.snapshot();
        if let Some((_, map)) = entries.iter().find(|(g, _)| *g == geom) {
            self.maps.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(map);
        }
        // One-step growth of a cached geometry: if the appended sample stays
        // inside the old map's final segment, extend the map (O(runs) clone)
        // instead of redoing the full `partition_point`/`div_ceil` merge.
        // Counts as a hit — the merge was skipped.
        if geom.len >= 1 {
            let shorter = SampleGeometry {
                len: geom.len - 1,
                ..geom
            };
            if let Some((_, map)) = entries.iter().find(|(g, _)| *g == shorter) {
                if map.extendable_by(&self.breaks, shorter.next_sample_start()) {
                    let mut runs = map.runs.clone();
                    runs.last_mut().expect("extendable map has runs").0 += 1;
                    let grown = Arc::new(SegmentMap {
                        runs,
                        last_seg: map.last_seg,
                    });
                    self.maps.hits.fetch_add(1, Ordering::Relaxed);
                    return self.maps.publish(geom, grown);
                }
            }
        }
        self.maps.misses.fetch_add(1, Ordering::Relaxed);
        let map = Arc::new(self.build_map(geom));
        self.maps.publish(geom, map)
    }

    /// The longest cached map sharing `(start, step)` with a stream anchored
    /// at `start` — the geometry-known fast path for accrual: a cached map's
    /// prefix prices the stream's first `len` samples with the exact `f64`s
    /// cursor advance would produce. Returns the map and its geometry
    /// length; does not touch hit/miss counters (nothing was built or
    /// skipped yet).
    pub(crate) fn prefix_map(&self, start: u64, step: u64) -> Option<(Arc<SegmentMap>, usize)> {
        let entries = self.maps.snapshot();
        entries
            .iter()
            .filter(|(g, _)| g.start == start && g.step == step)
            .max_by_key(|(g, _)| g.len)
            .map(|(g, m)| (Arc::clone(m), g.len))
    }

    /// `(hits, misses)` of this timeline's segment-map cache.
    fn map_stats(&self) -> (u64, u64) {
        (
            self.maps.hits.load(Ordering::Relaxed),
            self.maps.misses.load(Ordering::Relaxed),
        )
    }

    /// Energy cost of a load: replay the cached segment map over the sample
    /// sequence. Replicates `PowerSeries::cost_against` exactly —
    /// `Σ v[i]·h·price`, accumulated in sample order — so the result is
    /// bit-identical to the interpreted path.
    fn cost(&self, load: &PowerSeries) -> Money {
        let map = self.map_for(load);
        let h = load.step().as_hours();
        let values = load.values();
        let mut dollars = 0.0f64;
        let mut i = 0usize;
        for &(end, price) in &map.runs {
            for p in &values[i..end] {
                dollars += p.as_kilowatts() * h * price;
            }
            i = end;
        }
        Money::from_dollars(dollars)
    }

    /// Energy cost via the vectorized fast path: each run is reduced with
    /// 8-lane pairwise summation and scaled by `h·price` once, and the
    /// per-run totals are pairwise-summed in turn. Within a `1e-12` relative
    /// tolerance of [`PriceTimeline::cost`] for horizons up to a year (the
    /// pairwise tree error is `O(log n)` rounding terms over same-sign
    /// addends).
    fn cost_fast(&self, load: &PowerSeries) -> Money {
        let map = self.map_for(load);
        let h = load.step().as_hours();
        let kw = Power::kilowatts_slice(load.values());
        let mut run_totals = Vec::with_capacity(map.runs.len());
        let mut i = 0usize;
        for &(end, price) in &map.runs {
            run_totals.push(kernels::sum_pairwise(&kw[i..end]) * (h * price));
            i = end;
        }
        Money::from_dollars(kernels::sum_pairwise(&run_totals))
    }
}

/// The lowered form of one tariff component.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LoweredTariff {
    /// Fixed, TOU, and dynamic tariffs lower to a price timeline.
    Strip(PriceTimeline),
    /// Block tariffs keep their schedule (the marginal price depends on
    /// cumulative monthly volume, not time) but bucket through the shared
    /// month-boundary index.
    Block(BlockTariff),
}

/// One compiled tariff piece: the source component, its fingerprint (the
/// piece's cache key), and its lowered form. Pieces are immutable and shared
/// behind [`Arc`] — patching a contract clones `Arc`s, not timelines.
#[derive(Debug, PartialEq)]
pub(crate) struct CompiledTariff {
    pub(crate) source: Tariff,
    pub(crate) fingerprint: ComponentFingerprint,
    pub(crate) lowered: LoweredTariff,
}

impl CompiledTariff {
    pub(crate) fn kind(&self) -> ContractComponentKind {
        self.source.kind()
    }
}

/// Lower one tariff component into a shared piece. The single lowering
/// routine used by [`CompiledContract::compile`] and
/// [`CompiledContract::patch`]: a piece depends only on
/// `(calendar, tariff, start, end)`, so a reused piece is byte-for-byte what
/// a recompile would have produced.
fn lower_tariff(
    cal: &Calendar,
    tariff: &Tariff,
    start: SimTime,
    end: SimTime,
) -> Result<Arc<CompiledTariff>> {
    let lowered = match tariff {
        Tariff::Block(b) => {
            b.validate()?;
            LoweredTariff::Block(b.clone())
        }
        other => LoweredTariff::Strip(PriceTimeline::compile(cal, other, start, end)),
    };
    Ok(Arc::new(CompiledTariff {
        fingerprint: fingerprint::of_tariff(tariff),
        source: tariff.clone(),
        lowered,
    }))
}

/// A contract lowered against a calendar and a `[start, end)` horizon.
///
/// Billing any load inside the horizon makes **no calendar calls**: tariff
/// pricing is a segment merge, and month bucketing (demand charges, block
/// tariffs, service fees) is binary search + cursor walk over the
/// precomputed month-boundary index. Results are bit-identical to
/// [`crate::billing::BillingEngine`].
///
/// # Example: compile once, bill
///
/// ```
/// use hpcgrid_core::compiled::CompiledContract;
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_timeseries::series::Series;
/// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let cal = Calendar::default();
/// let compiled =
///     CompiledContract::compile(&cal, &contract, SimTime::EPOCH, SimTime::from_days(30))?;
///
/// // 24 hours at a constant 8 MW: 8000 kW · 24 h · 0.07 $/kWh.
/// let load = Series::constant(
///     SimTime::EPOCH,
///     Duration::from_hours(1.0),
///     Power::from_megawatts(8.0),
///     24,
/// )?;
/// let bill = compiled.bill(&load)?;
/// assert!((bill.total().as_dollars() - 8_000.0 * 24.0 * 0.07).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledContract {
    pub(crate) name: String,
    /// The calendar the kernel was lowered under; kept so `patch` can
    /// re-lower a single piece under identical conditions.
    calendar: Calendar,
    pub(crate) start: SimTime,
    pub(crate) end: SimTime,
    /// Billing-month index of `start`.
    pub(crate) first_month: u64,
    /// Month-start midnights strictly inside `(start, end)`, in seconds.
    /// Shared behind `Arc` so a [`MonthCursor`] (and every streaming accrual
    /// holding one) costs a pointer, not a copy.
    pub(crate) month_starts: Arc<[u64]>,
    pub(crate) tariffs: Vec<Arc<CompiledTariff>>,
    pub(crate) demand_charge: Option<DemandCharge>,
    pub(crate) powerband: Option<Powerband>,
    pub(crate) emergency: Option<EmergencyDrClause>,
    pub(crate) monthly_fee: Money,
    /// Numerical fidelity of evaluation (see [`Precision`]);
    /// [`Precision::BitExact`] unless set by [`CompiledContract::with_precision`].
    precision: Precision,
}

impl CompiledContract {
    /// Lower `contract` under `calendar` for loads inside `[start, end)`,
    /// billing at [`Precision::BitExact`] (see
    /// [`CompiledContract::with_precision`]).
    ///
    /// Component parameters are validated here, once, instead of on every
    /// bill. Errors if the horizon is empty.
    pub fn compile(
        calendar: &Calendar,
        contract: &Contract,
        start: SimTime,
        end: SimTime,
    ) -> Result<CompiledContract> {
        if start >= end {
            return Err(CoreError::BadSeries(format!(
                "compile horizon [{start}, {end}) is empty"
            )));
        }
        let mut month_starts = Vec::new();
        let mut t = start;
        loop {
            let b = calendar.next_month_start(t);
            if b >= end {
                break;
            }
            month_starts.push(b.as_secs());
            t = b;
        }
        let mut tariffs = Vec::with_capacity(contract.tariffs.len());
        for tariff in &contract.tariffs {
            tariffs.push(lower_tariff(calendar, tariff, start, end)?);
        }
        if let Some(dc) = &contract.demand_charge {
            dc.validate()?;
        }
        if let Some(pb) = &contract.powerband {
            pb.validate()?;
        }
        Ok(CompiledContract {
            name: contract.name.clone(),
            calendar: *calendar,
            start,
            end,
            first_month: calendar.billing_month(start),
            month_starts: month_starts.into(),
            tariffs,
            demand_charge: contract.demand_charge,
            powerband: contract.powerband,
            emergency: contract.emergency,
            monthly_fee: contract.monthly_fee,
            precision: Precision::BitExact,
        })
    }

    /// The same kernel evaluating at an explicit [`Precision`]. Lowered
    /// pieces (and their segment-map caches) are shared with `self`, so
    /// switching precision costs nothing.
    pub fn with_precision(mut self, precision: Precision) -> CompiledContract {
        self.precision = precision;
        self
    }

    /// The precision this kernel bills at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Aggregate `(hits, misses)` of the per-timeline segment-map caches.
    /// Hits are bills that skipped the `partition_point`/`div_ceil` segment
    /// merge entirely by reusing a cached geometry map. Patched kernels
    /// share unchanged pieces by `Arc`, so their cache stats (like the maps
    /// themselves) carry across [`CompiledContract::patch`].
    pub fn segment_map_stats(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for t in &self.tariffs {
            if let LoweredTariff::Strip(timeline) = &t.lowered {
                let (h, m) = timeline.map_stats();
                hits += h;
                misses += m;
            }
        }
        (hits, misses)
    }

    /// Re-lower only the component changed by `delta`, sharing every other
    /// piece with `self` by reference count.
    ///
    /// The patched kernel equals a fresh [`CompiledContract::compile`] of
    /// [`Contract::apply`]'s output — bills are bit-identical — but the work
    /// is proportional to the changed component alone. A replacement tariff
    /// whose [`ComponentFingerprint`] matches the piece already in place
    /// reuses that piece outright. Non-tariff deltas (demand charge,
    /// powerband, emergency clause, service fee) never touch a timeline:
    /// those components are interpreted against the shared month-boundary
    /// index, so the patch is a validated field write.
    ///
    /// This is also the primitive behind ledger hydration:
    /// [`ContractLedger::kernel_at`](crate::ledger::ContractLedger::kernel_at)
    /// walks forward from the nearest cached revision by patching one delta
    /// per ledger event instead of recompiling the hydrated contract.
    ///
    /// ```
    /// use hpcgrid_core::compiled::CompiledContract;
    /// use hpcgrid_core::contract::{Contract, ContractDelta};
    /// use hpcgrid_core::demand_charge::DemandCharge;
    /// use hpcgrid_core::tariff::Tariff;
    /// use hpcgrid_timeseries::series::Series;
    /// use hpcgrid_units::{Calendar, DemandPrice, Duration, EnergyPrice, Power, SimTime};
    ///
    /// let base = Contract::builder("base")
    ///     .tariff(Tariff::day_night(
    ///         EnergyPrice::per_kilowatt_hour(0.20),
    ///         EnergyPrice::per_kilowatt_hour(0.05),
    ///     ))
    ///     .build()?;
    /// let cal = Calendar::default();
    /// let horizon_end = SimTime::from_days(30);
    /// let compiled = CompiledContract::compile(&cal, &base, SimTime::EPOCH, horizon_end)?;
    ///
    /// // One scenario of a demand-charge sweep: patch, don't recompile.
    /// let delta = ContractDelta::SetDemandCharge(Some(DemandCharge::monthly(
    ///     DemandPrice::per_kilowatt_month(12.0),
    /// )));
    /// let patched = compiled.patch(&delta)?;
    ///
    /// // Bit-identical to compiling the mutated contract from scratch.
    /// let recompiled =
    ///     CompiledContract::compile(&cal, &base.apply(&delta)?, SimTime::EPOCH, horizon_end)?;
    /// let load = Series::constant(
    ///     SimTime::EPOCH,
    ///     Duration::from_minutes(15.0),
    ///     Power::from_megawatts(8.0),
    ///     30 * 96,
    /// )?;
    /// assert_eq!(patched.bill(&load)?, recompiled.bill(&load)?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn patch(&self, delta: &ContractDelta) -> Result<CompiledContract> {
        let mut out = self.clone();
        match delta {
            ContractDelta::ReplaceTariff { index, tariff } => {
                let slot = out.tariffs.get_mut(*index).ok_or_else(|| {
                    CoreError::BadComponent(format!(
                        "tariff index {index} out of range (contract has {} tariffs)",
                        self.tariffs.len()
                    ))
                })?;
                if fingerprint::of_tariff(tariff) != slot.fingerprint {
                    *slot = lower_tariff(&self.calendar, tariff, self.start, self.end)?;
                }
            }
            ContractDelta::ReplacePriceStrip { index, strip } => {
                let slot = out.tariffs.get_mut(*index).ok_or_else(|| {
                    CoreError::BadComponent(format!(
                        "tariff index {index} out of range (contract has {} tariffs)",
                        self.tariffs.len()
                    ))
                })?;
                let d = match &slot.source {
                    Tariff::Dynamic(d) => d,
                    other => {
                        return Err(CoreError::BadComponent(format!(
                            "tariff #{index} is a {} tariff, not dynamic; \
                             only dynamic tariffs carry a price strip",
                            other.kind().label()
                        )))
                    }
                };
                let revised = Tariff::Dynamic(DynamicTariff {
                    prices: strip.clone(),
                    markup: d.markup,
                    fallback: d.fallback,
                });
                *slot = lower_tariff(&self.calendar, &revised, self.start, self.end)?;
            }
            ContractDelta::SetDemandCharge(dc) => {
                if let Some(dc) = dc {
                    dc.validate()?;
                }
                out.demand_charge = *dc;
            }
            ContractDelta::SetPowerband(pb) => {
                if let Some(pb) = pb {
                    pb.validate()?;
                }
                out.powerband = *pb;
            }
            ContractDelta::SetEmergency(e) => {
                if let Some(e) = e {
                    e.validate()?;
                }
                out.emergency = *e;
            }
            ContractDelta::SetMonthlyFee(fee) => {
                if *fee < Money::ZERO {
                    return Err(CoreError::BadComponent(
                        "monthly fee must be non-negative".into(),
                    ));
                }
                out.monthly_fee = *fee;
            }
        }
        Ok(out)
    }

    /// Splice a revised market-price strip into the contract's dynamic
    /// tariff, leaving every other piece shared with `self`.
    ///
    /// This is the sweep-facing form of
    /// [`ContractDelta::ReplacePriceStrip`]: the contract must contain
    /// exactly one dynamic tariff (errors otherwise — with several, address
    /// one by index through [`CompiledContract::patch`]). The revised
    /// tariff keeps the original markup and fallback; only the strip
    /// timeline is re-lowered, via the same routine full compilation uses,
    /// so the resulting bills are bit-identical to a recompile.
    ///
    /// ```
    /// use hpcgrid_core::compiled::CompiledContract;
    /// use hpcgrid_core::contract::Contract;
    /// use hpcgrid_core::tariff::Tariff;
    /// use hpcgrid_timeseries::series::Series;
    /// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
    ///
    /// let day = Duration::from_hours(24.0);
    /// let strip = |p: f64| {
    ///     Series::constant(SimTime::EPOCH, Duration::from_hours(1.0),
    ///                      EnergyPrice::per_kilowatt_hour(p), 24 * 30)
    /// };
    /// let contract = Contract::builder("market")
    ///     .tariff(Tariff::dynamic(
    ///         strip(0.05)?,
    ///         EnergyPrice::per_kilowatt_hour(0.01),  // retail markup
    ///         EnergyPrice::per_kilowatt_hour(0.09),  // fallback off-strip
    ///     ))
    ///     .build()?;
    /// let cal = Calendar::default();
    /// let compiled =
    ///     CompiledContract::compile(&cal, &contract, SimTime::EPOCH, SimTime::from_days(30))?;
    ///
    /// // A market revision doubles prices: splice, don't recompile.
    /// let revised = compiled.with_price_strip(&strip(0.10)?)?;
    /// let load = Series::constant(SimTime::EPOCH, Duration::from_hours(1.0),
    ///                             Power::from_megawatts(8.0), 24)?;
    /// let before = compiled.bill(&load)?.total().as_dollars();
    /// let after = revised.bill(&load)?.total().as_dollars();
    /// assert!((before - 8_000.0 * 24.0 * 0.06).abs() < 1e-9);
    /// assert!((after - 8_000.0 * 24.0 * 0.11).abs() < 1e-9);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn with_price_strip(&self, strip: &PriceSeries) -> Result<CompiledContract> {
        let mut dynamic_index = None;
        for (i, t) in self.tariffs.iter().enumerate() {
            if matches!(t.source, Tariff::Dynamic(_)) {
                if dynamic_index.is_some() {
                    return Err(CoreError::BadComponent(
                        "contract has multiple dynamic tariffs; use \
                         ContractDelta::ReplacePriceStrip to address one by index"
                            .into(),
                    ));
                }
                dynamic_index = Some(i);
            }
        }
        let index = dynamic_index.ok_or_else(|| {
            CoreError::BadComponent("contract has no dynamic tariff to revise".into())
        })?;
        self.patch(&ContractDelta::ReplacePriceStrip {
            index,
            strip: strip.clone(),
        })
    }

    /// The compile horizon `[start, end)`.
    pub fn horizon(&self) -> (SimTime, SimTime) {
        (self.start, self.end)
    }

    /// The calendar the kernel was lowered under.
    pub fn calendar(&self) -> Calendar {
        self.calendar
    }

    /// Reconstruct the source [`Contract`] this kernel was lowered from
    /// (with any patches applied).
    pub fn contract(&self) -> Contract {
        Contract {
            name: self.name.clone(),
            tariffs: self.tariffs.iter().map(|t| t.source.clone()).collect(),
            demand_charge: self.demand_charge,
            powerband: self.powerband,
            emergency: self.emergency,
            monthly_fee: self.monthly_fee,
        }
    }

    /// The whole-contract [`ComponentFingerprint`], folded from the cached
    /// per-piece fingerprints — equal to
    /// [`fingerprint::of_contract`] of [`CompiledContract::contract`], but
    /// computed without re-walking any strip payload. Scenario specs use
    /// this as the `base_contract` key when describing a sweep point as
    /// "base kernel + delta".
    pub fn fingerprint(&self) -> ComponentFingerprint {
        let fps: Vec<ComponentFingerprint> = self.tariffs.iter().map(|t| t.fingerprint).collect();
        fingerprint::of_contract_parts(
            &self.name,
            &fps,
            &self.demand_charge,
            &self.powerband,
            &self.emergency,
            self.monthly_fee,
        )
    }

    /// Per-tariff piece fingerprints, in tariff order.
    pub fn tariff_fingerprints(&self) -> Vec<ComponentFingerprint> {
        self.tariffs.iter().map(|t| t.fingerprint).collect()
    }

    /// Number of billing months the horizon touches.
    pub fn month_count(&self) -> usize {
        self.month_starts.len() + 1
    }

    /// Total price segments across all lowered tariffs (block tariffs
    /// contribute none).
    pub fn segment_count(&self) -> usize {
        self.tariffs
            .iter()
            .map(|t| match &t.lowered {
                LoweredTariff::Strip(timeline) => timeline.segments(),
                LoweredTariff::Block(_) => 0,
            })
            .sum()
    }

    /// Index of the first month boundary after `t_secs`.
    pub(crate) fn boundary_after(&self, t_secs: u64) -> usize {
        self.month_starts.partition_point(|b| *b <= t_secs)
    }

    /// The contract name this kernel was lowered from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A monotone price cursor over tariff `index`'s lowered segment
    /// timeline — the public form of the kernel's internal breakpoints, so
    /// streaming consumers ([`crate::accrual::BillAccrual`]) never re-derive
    /// them. Errors if `index` is out of range or names a block tariff
    /// (block pricing depends on cumulative monthly volume, not time, so it
    /// has no strip timeline).
    pub fn segment_cursor(&self, index: usize) -> Result<SegmentCursor> {
        let piece = self.tariffs.get(index).ok_or_else(|| {
            CoreError::BadComponent(format!(
                "tariff index {index} out of range (contract has {} tariffs)",
                self.tariffs.len()
            ))
        })?;
        match &piece.lowered {
            LoweredTariff::Strip(_) => Ok(SegmentCursor {
                piece: Arc::clone(piece),
                seg: 0,
            }),
            LoweredTariff::Block(_) => Err(CoreError::BadComponent(format!(
                "tariff #{index} is a block tariff; block pricing has no segment timeline"
            ))),
        }
    }

    /// A cursor over the kernel's month-boundary index — billing-month
    /// lookups without re-deriving calendar facts. Cheap to clone per meter:
    /// the boundary array is shared behind `Arc`.
    pub fn month_cursor(&self) -> MonthCursor {
        MonthCursor {
            starts: Arc::clone(&self.month_starts),
            first_month: self.first_month,
            bi: 0,
        }
    }

    fn check_in_horizon(&self, load: &PowerSeries) -> Result<()> {
        if load.start() < self.start || load.end() > self.end {
            return Err(CoreError::BadSeries(format!(
                "load [{}, {}) is outside the compiled horizon [{}, {})",
                load.start(),
                load.end(),
                self.start,
                self.end
            )));
        }
        Ok(())
    }

    /// Demand-charge assessment through the month-boundary index; produces
    /// the same `(cursor, boundary)` slices as `DemandCharge::assess`.
    fn assess_demand(
        &self,
        dc: &DemandCharge,
        load: &PowerSeries,
    ) -> Result<Vec<DemandAssessment>> {
        let mut out = Vec::new();
        let mut cursor = load.start();
        let end = load.end();
        let mut bi = self.boundary_after(cursor.as_secs());
        let mut month = self.first_month + bi as u64;
        while cursor < end {
            let boundary = match self.month_starts.get(bi) {
                Some(&b) => SimTime::from_secs(b).min(end),
                None => end,
            };
            let slice = load.slice_time(cursor, boundary);
            if !slice.is_empty() {
                let billed = dc.billed_demand(&slice)?;
                out.push(DemandAssessment {
                    month,
                    billed_demand: billed,
                    charge: billed * dc.price,
                });
            }
            cursor = boundary;
            bi += 1;
            month += 1;
        }
        Ok(out)
    }

    /// Fast demand-charge assessment: a branchless lane-max scan per billing
    /// month over the raw sample slice. Applies only when metering is an
    /// identity ([`DemandCharge::metering_is_identity`]); then the billed
    /// peak is *bit-equal* to [`CompiledContract::assess_demand`] because
    /// `f64::max` is associative over finite values. The month sample
    /// ranges replicate `Series::slice_time` exactly — floor start index,
    /// ceil end index — including its one-sample overlap at month boundaries
    /// that are not step-aligned.
    fn assess_demand_fast(&self, dc: &DemandCharge, load: &PowerSeries) -> Vec<DemandAssessment> {
        let kw = Power::kilowatts_slice(load.values());
        let t0 = load.start().as_secs();
        let step = load.step().as_secs();
        let len = load.len();
        let mut out = Vec::new();
        let mut cursor = load.start();
        let end = load.end();
        let mut bi = self.boundary_after(cursor.as_secs());
        let mut month = self.first_month + bi as u64;
        while cursor < end {
            let boundary = match self.month_starts.get(bi) {
                Some(&b) => SimTime::from_secs(b).min(end),
                None => end,
            };
            let i0 = ((cursor.as_secs() - t0) / step) as usize;
            let i1 = ((boundary.as_secs() - t0).div_ceil(step) as usize).min(len);
            if i1 > i0 {
                let peak = Power::from_kilowatts(kernels::max_lanes(&kw[i0..i1]));
                let billed = dc.apply_floor(peak);
                out.push(DemandAssessment {
                    month,
                    billed_demand: billed,
                    charge: billed * dc.price,
                });
            }
            cursor = boundary;
            bi += 1;
            month += 1;
        }
        out
    }

    /// Block-tariff cost through the month-boundary index. Replicates the
    /// interpreter's per-month accumulation (a `BTreeMap` filled in time
    /// order) as a cursor walk: same adds in the same order, months with no
    /// samples contribute nothing, monthly costs folded chronologically.
    fn block_cost(&self, b: &BlockTariff, load: &PowerSeries) -> Money {
        let step_h = load.step().as_hours();
        let step = load.step().as_secs();
        let mut t = load.start().as_secs();
        let mut bi = self.boundary_after(t);
        let mut monthly: Vec<f64> = Vec::new();
        let mut cur = 0.0f64;
        let mut have = false;
        for p in load.values() {
            while bi < self.month_starts.len() && self.month_starts[bi] <= t {
                bi += 1;
                if have {
                    monthly.push(cur);
                    cur = 0.0;
                    have = false;
                }
            }
            cur += p.as_kilowatts() * step_h;
            have = true;
            t += step;
        }
        if have {
            monthly.push(cur);
        }
        monthly
            .iter()
            .map(|kwh| b.monthly_cost(*kwh))
            .fold(Money::ZERO, |a, m| a + m)
    }

    /// Fast block-tariff cost: each billing month's kWh is an 8-lane
    /// pairwise sum scaled by the step width once, folded through
    /// `monthly_cost` chronologically. A sample belongs to the month its
    /// *start* lies in (month ranges do NOT overlap — unlike the demand
    /// slices), matching the interpreter's bucketing. `monthly_cost` is
    /// continuous piecewise-linear in kWh, so the pairwise perturbation of
    /// each bucket propagates within the documented `1e-12` relative
    /// tolerance.
    fn block_cost_fast(&self, b: &BlockTariff, load: &PowerSeries) -> Money {
        let kw = Power::kilowatts_slice(load.values());
        let step_h = load.step().as_hours();
        let step = load.step().as_secs();
        let t0 = load.start().as_secs();
        let len = load.len();
        let mut total = Money::ZERO;
        let mut i = 0usize;
        let mut bi = self.boundary_after(t0);
        while i < len {
            // Samples whose start time is below the boundary: strict `<`,
            // so the exclusive end index is ceil((boundary - t0) / step).
            let i_end = match self.month_starts.get(bi) {
                Some(&bnd) => ((bnd - t0).div_ceil(step) as usize).min(len),
                None => len,
            };
            bi += 1;
            if i_end > i {
                let kwh = kernels::sum_pairwise(&kw[i..i_end]) * step_h;
                total += b.monthly_cost(kwh);
                i = i_end;
            }
        }
        total
    }

    /// Billing months touched by `load` (for the service fee), from the
    /// boundary index alone.
    fn months_covered(&self, load: &PowerSeries) -> u64 {
        let first = self.boundary_after(load.start().as_secs());
        let last = self.boundary_after(load.end().as_secs() - 1);
        (last - first) as u64 + 1
    }

    /// Bill a load (no emergency events).
    pub fn bill(&self, load: &PowerSeries) -> Result<Bill> {
        self.bill_with_events(load, &IntervalSet::empty())
    }

    /// Bill a load, assessing the emergency clause against the given event
    /// windows. The load must lie inside the compile horizon.
    pub fn bill_with_events(&self, load: &PowerSeries, events: &IntervalSet) -> Result<Bill> {
        if load.is_empty() {
            return Err(CoreError::BadSeries("load series is empty".into()));
        }
        self.check_in_horizon(load)?;
        let fast = self.precision == Precision::Fast;
        let mut items = Vec::new();
        for (i, ct) in self.tariffs.iter().enumerate() {
            let amount = match (&ct.lowered, fast) {
                (LoweredTariff::Strip(timeline), false) => timeline.cost(load),
                (LoweredTariff::Strip(timeline), true) => timeline.cost_fast(load),
                (LoweredTariff::Block(b), false) => self.block_cost(b, load),
                (LoweredTariff::Block(b), true) => self.block_cost_fast(b, load),
            };
            items.push(LineItem {
                label: format!("{} tariff #{}", ct.kind().label(), i + 1),
                kind: Some(ct.kind()),
                amount,
            });
        }
        if let Some(dc) = &self.demand_charge {
            let assessments = if fast && dc.metering_is_identity(load.step()) {
                self.assess_demand_fast(dc, load)
            } else {
                self.assess_demand(dc, load)?
            };
            let amount = assessments.iter().map(|a| a.charge).sum();
            items.push(LineItem {
                label: format!("Demand charges ({} billing months)", assessments.len()),
                kind: Some(ContractComponentKind::DemandCharge),
                amount,
            });
        }
        if let Some(pb) = &self.powerband {
            // Already a single calendar-free pass; evaluated directly.
            let report = pb.evaluate(load)?;
            items.push(LineItem {
                label: format!(
                    "Powerband excursions ({} intervals)",
                    report.violations.len()
                ),
                kind: Some(ContractComponentKind::Powerband),
                amount: report.penalty_cost,
            });
        }
        if let Some(em) = &self.emergency {
            let assessment = em.assess(load, events)?;
            items.push(LineItem {
                label: format!(
                    "Emergency DR penalties ({} events)",
                    assessment.events.len()
                ),
                kind: Some(ContractComponentKind::EmergencyDr),
                amount: assessment.total_penalty,
            });
        }
        if self.monthly_fee > Money::ZERO {
            let months = self.months_covered(load);
            items.push(LineItem {
                label: format!("Service fee ({months} months)"),
                kind: None,
                amount: self.monthly_fee * months as f64,
            });
        }
        Ok(Bill {
            contract: self.name.clone(),
            items,
        })
    }
}

/// A monotone cursor over one lowered tariff's price timeline, from
/// [`CompiledContract::segment_cursor`].
///
/// The invariant it encapsulates: segment `i` covers
/// `[breaks[i], breaks[i+1])` (the last segment extends to the horizon end)
/// and prices are the exact `f64`s the interpreter's `price_at` would
/// produce, so the price in force at any in-horizon instant is
/// `prices[partition_point(breaks, <= t) - 1]`. The cursor amortizes that
/// lookup to O(1) for non-decreasing query times — the streaming-accrual
/// access pattern — and re-seeks by binary search when queried backwards.
#[derive(Debug, Clone)]
pub struct SegmentCursor {
    piece: Arc<CompiledTariff>,
    seg: usize,
}

impl SegmentCursor {
    fn timeline(&self) -> &PriceTimeline {
        match &self.piece.lowered {
            LoweredTariff::Strip(tl) => tl,
            LoweredTariff::Block(_) => unreachable!("segment cursors wrap strip pieces only"),
        }
    }

    /// The `$ / kWh` price in force at `t` (which must lie inside the
    /// compile horizon). Amortized O(1) for monotone `t`.
    pub fn price_at(&mut self, t: SimTime) -> EnergyPrice {
        let tl = match &self.piece.lowered {
            LoweredTariff::Strip(tl) => tl,
            LoweredTariff::Block(_) => unreachable!("segment cursors wrap strip pieces only"),
        };
        let ts = t.as_secs();
        if tl.breaks[self.seg] > ts {
            // Backward query: re-seek. partition_point ≥ 1 for in-horizon t
            // because breaks[0] is the horizon start.
            self.seg = tl.breaks.partition_point(|b| *b <= ts).saturating_sub(1);
        } else {
            while let Some(&b) = tl.breaks.get(self.seg + 1) {
                if b <= ts {
                    self.seg += 1;
                } else {
                    break;
                }
            }
        }
        EnergyPrice::per_kilowatt_hour(tl.prices[self.seg])
    }

    /// Index of the segment the cursor currently rests on.
    pub fn segment(&self) -> usize {
        self.seg
    }

    /// Number of segments in the underlying timeline.
    pub fn segment_count(&self) -> usize {
        self.timeline().segments()
    }
}

/// A cursor over a kernel's month-boundary index, from
/// [`CompiledContract::month_cursor`].
///
/// The invariant it encapsulates: the kernel precomputes the billing-month
/// start midnights strictly inside its horizon, and **boundary `i` closes
/// every sample whose start time is `>= starts[i]`** — a sample belongs to
/// the billing month its *start* lies in. `index_at(t)` is therefore
/// `partition_point(starts, <= t)`: the number of boundaries at or before
/// `t`, which is also the 0-based month slot of `t` within the horizon.
/// Cloning is a pointer copy (the boundary array is `Arc`-shared with the
/// kernel), so every meter in a fleet can hold one.
#[derive(Debug, Clone)]
pub struct MonthCursor {
    starts: Arc<[u64]>,
    first_month: u64,
    bi: usize,
}

impl MonthCursor {
    /// Number of month boundaries at or before `t` — `t`'s 0-based month
    /// slot. Pure binary search; does not move the cursor.
    pub fn index_of(&self, t: SimTime) -> usize {
        let ts = t.as_secs();
        self.starts.partition_point(|b| *b <= ts)
    }

    /// Like [`MonthCursor::index_of`] but amortized O(1) for non-decreasing
    /// `t` (re-seeks by binary search when queried backwards).
    pub fn advance_to(&mut self, t: SimTime) -> usize {
        let ts = t.as_secs();
        if self.bi > 0 && self.starts[self.bi - 1] > ts {
            self.bi = self.index_of(t);
        } else {
            while self.starts.get(self.bi).is_some_and(|b| *b <= ts) {
                self.bi += 1;
            }
        }
        self.bi
    }

    /// The billing-month number (as [`Calendar::billing_month`] counts them)
    /// in force at `t`. Amortized O(1) for monotone `t`.
    pub fn month_of(&mut self, t: SimTime) -> u64 {
        self.first_month + self.advance_to(t) as u64
    }

    /// The `i`-th month boundary, if it exists.
    pub fn boundary(&self, i: usize) -> Option<SimTime> {
        self.starts.get(i).map(|s| SimTime::from_secs(*s))
    }

    /// Billing-month number of the horizon start.
    pub fn first_month(&self) -> u64 {
        self.first_month
    }

    /// Number of billing months the horizon touches (boundaries + 1).
    pub fn month_count(&self) -> usize {
        self.starts.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::BillingEngine;
    use crate::tariff::TouTariff;
    use hpcgrid_timeseries::series::Series;
    use hpcgrid_units::{DemandPrice, Duration, EnergyPrice, Power};

    fn load_15min(days: u64, mw: f64) -> PowerSeries {
        Series::constant(
            SimTime::EPOCH,
            Duration::from_minutes(15.0),
            Power::from_megawatts(mw),
            (days * 96) as usize,
        )
        .unwrap()
    }

    fn tou_contract() -> Contract {
        Contract::builder("tou")
            .tariff(Tariff::TimeOfUse(TouTariff::day_night(
                EnergyPrice::per_kilowatt_hour(0.20),
                EnergyPrice::per_kilowatt_hour(0.05),
            )))
            .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
            .monthly_fee(Money::from_dollars(1_000.0))
            .build()
            .unwrap()
    }

    fn hourly_strip(start: SimTime, prices: &[f64]) -> PriceSeries {
        Series::new(
            start,
            Duration::from_hours(1.0),
            prices
                .iter()
                .map(|p| EnergyPrice::per_kilowatt_hour(*p))
                .collect(),
        )
        .unwrap()
    }

    fn dynamic_contract(strip: PriceSeries) -> Contract {
        Contract::builder("dyn")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.03)))
            .tariff(Tariff::dynamic(
                strip,
                EnergyPrice::per_kilowatt_hour(0.01),
                EnergyPrice::per_kilowatt_hour(0.09),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_matches_interpreted_exactly() {
        let cal = Calendar::default();
        let load = load_15min(40, 8.0);
        let engine = BillingEngine::new(cal);
        let compiled =
            CompiledContract::compile(&cal, &tou_contract(), load.start(), load.end()).unwrap();
        let a = engine.bill(&tou_contract(), &load).unwrap();
        let b = compiled.bill(&load).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn timeline_merges_constant_prices() {
        let cal = Calendar::default();
        let c = Contract::builder("fixed")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
            .build()
            .unwrap();
        let compiled =
            CompiledContract::compile(&cal, &c, SimTime::EPOCH, SimTime::from_days(365)).unwrap();
        assert_eq!(compiled.segment_count(), 1);
        assert_eq!(compiled.month_count(), 12);
    }

    #[test]
    fn rejects_loads_outside_horizon() {
        let cal = Calendar::default();
        let compiled = CompiledContract::compile(
            &cal,
            &tou_contract(),
            SimTime::EPOCH,
            SimTime::from_days(10),
        )
        .unwrap();
        let outside = load_15min(20, 5.0);
        assert!(matches!(
            compiled.bill(&outside),
            Err(CoreError::BadSeries(_))
        ));
    }

    #[test]
    fn rejects_empty_horizon_and_empty_load() {
        let cal = Calendar::default();
        assert!(
            CompiledContract::compile(&cal, &tou_contract(), SimTime::EPOCH, SimTime::EPOCH)
                .is_err()
        );
        let compiled =
            CompiledContract::compile(&cal, &tou_contract(), SimTime::EPOCH, SimTime::from_days(1))
                .unwrap();
        let empty = PowerSeries::new(SimTime::EPOCH, Duration::from_hours(1.0), vec![]).unwrap();
        assert!(compiled.bill(&empty).is_err());
    }

    #[test]
    fn mid_horizon_load_bills_identically() {
        // Compile a wide horizon; bill a load that starts mid-February.
        let cal = Calendar::default();
        let engine = BillingEngine::new(cal);
        let load = Series::constant(
            SimTime::from_days(45) + Duration::from_hours(7.0),
            Duration::from_minutes(15.0),
            Power::from_megawatts(6.0),
            50 * 96,
        )
        .unwrap();
        let compiled = CompiledContract::compile(
            &cal,
            &tou_contract(),
            SimTime::EPOCH,
            SimTime::from_days(365),
        )
        .unwrap();
        assert_eq!(
            engine.bill(&tou_contract(), &load).unwrap(),
            compiled.bill(&load).unwrap()
        );
    }

    #[test]
    fn patch_equals_recompile_of_applied_contract() {
        let cal = Calendar::default();
        let strip = hourly_strip(SimTime::EPOCH, &[0.05; 24 * 10]);
        let base = dynamic_contract(strip);
        let end = SimTime::from_days(40);
        let compiled = CompiledContract::compile(&cal, &base, SimTime::EPOCH, end).unwrap();
        let load = load_15min(40, 8.0);

        let deltas = [
            ContractDelta::price_strip(1, hourly_strip(SimTime::from_days(2), &[0.11; 24 * 5])),
            ContractDelta::SetDemandCharge(Some(DemandCharge::monthly(
                DemandPrice::per_kilowatt_month(15.0),
            ))),
            ContractDelta::SetMonthlyFee(Money::from_dollars(500.0)),
            ContractDelta::ReplaceTariff {
                index: 0,
                tariff: Tariff::day_night(
                    EnergyPrice::per_kilowatt_hour(0.12),
                    EnergyPrice::per_kilowatt_hour(0.04),
                ),
            },
        ];
        for delta in &deltas {
            let patched = compiled.patch(delta).unwrap();
            let recompiled =
                CompiledContract::compile(&cal, &base.apply(delta).unwrap(), SimTime::EPOCH, end)
                    .unwrap();
            assert_eq!(patched, recompiled, "kernel mismatch for {}", delta.label());
            assert_eq!(
                patched.bill(&load).unwrap(),
                recompiled.bill(&load).unwrap(),
                "bill mismatch for {}",
                delta.label()
            );
            assert_eq!(patched.fingerprint(), recompiled.fingerprint());
        }
        // The base kernel is untouched by patching.
        assert_eq!(
            compiled,
            CompiledContract::compile(&cal, &base, SimTime::EPOCH, end).unwrap()
        );
    }

    #[test]
    fn patch_shares_unchanged_pieces() {
        let cal = Calendar::default();
        let base = dynamic_contract(hourly_strip(SimTime::EPOCH, &[0.05; 24]));
        let compiled =
            CompiledContract::compile(&cal, &base, SimTime::EPOCH, SimTime::from_days(30)).unwrap();
        let patched = compiled
            .patch(&ContractDelta::price_strip(
                1,
                hourly_strip(SimTime::EPOCH, &[0.20; 24]),
            ))
            .unwrap();
        // Piece 0 (the fixed tariff) is the same allocation; piece 1 is new.
        assert!(Arc::ptr_eq(&compiled.tariffs[0], &patched.tariffs[0]));
        assert!(!Arc::ptr_eq(&compiled.tariffs[1], &patched.tariffs[1]));
        // Replacing a tariff with an identical one reuses the piece.
        let same = compiled
            .patch(&ContractDelta::ReplaceTariff {
                index: 0,
                tariff: Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.03)),
            })
            .unwrap();
        assert!(Arc::ptr_eq(&compiled.tariffs[0], &same.tariffs[0]));
    }

    #[test]
    fn with_price_strip_requires_exactly_one_dynamic_tariff() {
        let cal = Calendar::default();
        let strip = hourly_strip(SimTime::EPOCH, &[0.05; 24]);
        let horizon = SimTime::from_days(30);

        let none = Contract::builder("none")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
            .build()
            .unwrap();
        let compiled_none =
            CompiledContract::compile(&cal, &none, SimTime::EPOCH, horizon).unwrap();
        assert!(compiled_none.with_price_strip(&strip).is_err());

        let two = Contract::builder("two")
            .tariff(Tariff::dynamic(
                strip.clone(),
                EnergyPrice::ZERO,
                EnergyPrice::ZERO,
            ))
            .tariff(Tariff::dynamic(
                strip.clone(),
                EnergyPrice::ZERO,
                EnergyPrice::ZERO,
            ))
            .build()
            .unwrap();
        let compiled_two = CompiledContract::compile(&cal, &two, SimTime::EPOCH, horizon).unwrap();
        assert!(compiled_two.with_price_strip(&strip).is_err());

        let one = dynamic_contract(strip.clone());
        let compiled_one = CompiledContract::compile(&cal, &one, SimTime::EPOCH, horizon).unwrap();
        let spliced = compiled_one
            .with_price_strip(&hourly_strip(SimTime::EPOCH, &[0.50; 24]))
            .unwrap();
        // Markup and fallback survive the splice.
        match &spliced.contract().tariffs[1] {
            Tariff::Dynamic(d) => {
                assert_eq!(d.markup, EnergyPrice::per_kilowatt_hour(0.01));
                assert_eq!(d.fallback, EnergyPrice::per_kilowatt_hour(0.09));
            }
            other => panic!("expected dynamic tariff, got {other:?}"),
        }
    }

    #[test]
    fn contract_round_trips_through_compile() {
        let cal = Calendar::default();
        let base = dynamic_contract(hourly_strip(SimTime::EPOCH, &[0.05, 0.06, 0.07]));
        let compiled =
            CompiledContract::compile(&cal, &base, SimTime::EPOCH, SimTime::from_days(30)).unwrap();
        assert_eq!(compiled.contract(), base);
        assert_eq!(compiled.fingerprint(), fingerprint::of_contract(&base));
        assert_eq!(compiled.calendar(), cal);
        assert_eq!(
            compiled.tariff_fingerprints(),
            base.tariffs
                .iter()
                .map(fingerprint::of_tariff)
                .collect::<Vec<_>>()
        );
    }

    fn assert_close(a: Money, b: Money) {
        let (a, b) = (a.as_dollars(), b.as_dollars());
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() / scale <= 1e-12,
            "fast/exact mismatch: {a} vs {b}"
        );
    }

    #[test]
    fn fast_path_within_tolerance_and_demand_bit_equal() {
        let cal = Calendar::default();
        let load = load_15min(40, 8.0);
        let exact = CompiledContract::compile(&cal, &tou_contract(), load.start(), load.end())
            .unwrap()
            .with_precision(Precision::BitExact);
        // `clone` shares the lowered pieces (and their segment-map caches);
        // only the precision knob differs.
        let fast = exact.clone().with_precision(Precision::Fast);
        assert_eq!(fast.precision(), Precision::Fast);
        let a = exact.bill(&load).unwrap();
        let b = fast.bill(&load).unwrap();
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.label, y.label);
            assert_close(x.amount, y.amount);
        }
        // The demand charge (15-min interval over 15-min samples) takes the
        // lane-max path and is bit-equal, not merely close.
        let dc_kind = ContractComponentKind::DemandCharge;
        assert_eq!(
            a.item_for(dc_kind).unwrap().amount,
            b.item_for(dc_kind).unwrap().amount
        );
    }

    #[test]
    fn segment_maps_are_cached_per_geometry() {
        let cal = Calendar::default();
        let load = load_15min(30, 8.0);
        let compiled =
            CompiledContract::compile(&cal, &tou_contract(), load.start(), load.end()).unwrap();
        assert_eq!(compiled.segment_map_stats(), (0, 0));
        compiled.bill(&load).unwrap();
        let (h1, m1) = compiled.segment_map_stats();
        assert_eq!((h1, m1), (0, 1), "first geometry is a miss");
        compiled.bill(&load).unwrap();
        compiled
            .clone()
            .with_precision(Precision::Fast)
            .bill(&load)
            .unwrap();
        let (h2, m2) = compiled.segment_map_stats();
        assert_eq!(m2, 1, "same geometry never rebuilds");
        assert!(h2 >= 2, "repeat bills hit the cache: {h2}");
        // A different geometry is a fresh miss.
        compiled.bill(&load_15min(10, 8.0)).unwrap();
        assert_eq!(compiled.segment_map_stats().1, 2);
    }

    #[test]
    fn patched_kernel_shares_segment_maps_of_unchanged_pieces() {
        let cal = Calendar::default();
        let base = dynamic_contract(hourly_strip(SimTime::EPOCH, &[0.05; 24 * 30]));
        let compiled =
            CompiledContract::compile(&cal, &base, SimTime::EPOCH, SimTime::from_days(30)).unwrap();
        let load = load_15min(30, 8.0);
        compiled.bill(&load).unwrap();
        let misses_before = compiled.segment_map_stats().1;
        // A non-tariff patch shares every piece: billing the same geometry
        // through the patched kernel is all hits, zero rebuilds.
        let patched = compiled
            .patch(&ContractDelta::SetMonthlyFee(Money::from_dollars(99.0)))
            .unwrap();
        patched.bill(&load).unwrap();
        assert_eq!(patched.segment_map_stats().1, misses_before);
        assert!(patched.segment_map_stats().0 > 0);
    }

    #[test]
    fn fast_block_tariff_within_tolerance() {
        let cal = Calendar::default();
        let c = Contract::builder("block")
            .tariff(Tariff::Block(BlockTariff {
                blocks: vec![
                    crate::tariff::BlockStep {
                        up_to_kwh: Some(1_000_000.0),
                        price: EnergyPrice::per_kilowatt_hour(0.10),
                    },
                    crate::tariff::BlockStep {
                        up_to_kwh: None,
                        price: EnergyPrice::per_kilowatt_hour(0.06),
                    },
                ],
            }))
            .build()
            .unwrap();
        let load = load_15min(45, 7.3);
        let exact = CompiledContract::compile(&cal, &c, load.start(), load.end()).unwrap();
        let fast = exact.clone().with_precision(Precision::Fast);
        assert_close(
            exact.bill(&load).unwrap().total(),
            fast.bill(&load).unwrap().total(),
        );
    }

    #[test]
    fn dynamic_lowering_matches_price_at_on_and_off_strip() {
        // Strip starts mid-horizon and ends before the horizon does, so the
        // timeline must fall back on both sides.
        let cal = Calendar::default();
        let strip = hourly_strip(SimTime::from_days(3), &[0.05, 0.30, 0.05, 0.30]);
        let c = Contract::builder("offset")
            .tariff(Tariff::dynamic(
                strip,
                EnergyPrice::per_kilowatt_hour(0.015),
                EnergyPrice::per_kilowatt_hour(0.08),
            ))
            .build()
            .unwrap();
        let engine = BillingEngine::new(cal);
        let compiled =
            CompiledContract::compile(&cal, &c, SimTime::EPOCH, SimTime::from_days(10)).unwrap();
        let load = load_15min(10, 7.5);
        assert_eq!(
            engine.bill(&c, &load).unwrap(),
            compiled.bill(&load).unwrap()
        );
    }

    #[test]
    fn segment_cursor_matches_price_at() {
        let cal = Calendar::default();
        let c = tou_contract();
        let compiled =
            CompiledContract::compile(&cal, &c, SimTime::EPOCH, SimTime::from_days(7)).unwrap();
        let mut cursor = compiled.segment_cursor(0).unwrap();
        // Forward sweep at 15-min resolution, then a backward re-seek.
        for i in 0..(7 * 96) {
            let t = SimTime::from_secs(i * 900);
            assert_eq!(cursor.price_at(t), c.tariffs[0].price_at(&cal, t));
        }
        let back = SimTime::from_secs(3600);
        assert_eq!(cursor.price_at(back), c.tariffs[0].price_at(&cal, back));
        assert!(cursor.segment() < cursor.segment_count());
        // Out-of-range and block indexes are rejected.
        assert!(compiled.segment_cursor(1).is_err());
        let block = Contract::builder("b")
            .tariff(Tariff::Block(BlockTariff {
                blocks: vec![
                    crate::tariff::BlockStep {
                        up_to_kwh: Some(500.0),
                        price: EnergyPrice::per_kilowatt_hour(0.05),
                    },
                    crate::tariff::BlockStep {
                        up_to_kwh: None,
                        price: EnergyPrice::per_kilowatt_hour(0.09),
                    },
                ],
            }))
            .build()
            .unwrap();
        let cb =
            CompiledContract::compile(&cal, &block, SimTime::EPOCH, SimTime::from_days(7)).unwrap();
        assert!(cb.segment_cursor(0).is_err());
    }

    #[test]
    fn month_cursor_matches_boundary_index() {
        let cal = Calendar::default();
        let compiled = CompiledContract::compile(
            &cal,
            &tou_contract(),
            SimTime::EPOCH,
            SimTime::from_days(365),
        )
        .unwrap();
        let mut mc = compiled.month_cursor();
        assert_eq!(mc.month_count(), compiled.month_count());
        assert_eq!(mc.first_month(), cal.billing_month(SimTime::EPOCH));
        for d in 0..365 {
            let t = SimTime::from_days(d) + Duration::from_hours(3.0);
            assert_eq!(mc.index_of(t), compiled.boundary_after(t.as_secs()));
            assert_eq!(mc.advance_to(t), compiled.boundary_after(t.as_secs()));
            assert_eq!(mc.month_of(t), cal.billing_month(t));
        }
        // Backward query re-seeks.
        let t = SimTime::from_days(2);
        assert_eq!(mc.advance_to(t), compiled.boundary_after(t.as_secs()));
        assert_eq!(
            mc.boundary(0).map(|b| b.as_secs()),
            compiled.month_starts.first().copied()
        );
    }

    #[test]
    fn one_step_geometry_growth_extends_cached_map() {
        let cal = Calendar::default();
        let compiled = CompiledContract::compile(
            &cal,
            &tou_contract(),
            SimTime::EPOCH,
            SimTime::from_days(40),
        )
        .unwrap();
        let n = 30 * 96;
        compiled.bill(&load_15min(30, 8.0)).unwrap();
        assert_eq!(compiled.segment_map_stats(), (0, 1));
        // Same start/step, one more sample: the extension path reuses the
        // cached map — a hit, not a rebuild.
        let grown = Series::constant(
            SimTime::EPOCH,
            Duration::from_minutes(15.0),
            Power::from_megawatts(8.0),
            n + 1,
        )
        .unwrap();
        let bill = compiled.bill(&grown).unwrap();
        assert_eq!(compiled.segment_map_stats(), (1, 1));
        // And the extended map prices exactly what a cold kernel computes.
        let cold = CompiledContract::compile(
            &cal,
            &tou_contract(),
            SimTime::EPOCH,
            SimTime::from_days(40),
        )
        .unwrap();
        assert_eq!(bill, cold.bill(&grown).unwrap());
        assert_eq!(cold.segment_map_stats(), (0, 1));
        // Growth by more than one step has no cached predecessor geometry
        // and falls back to a full rebuild.
        let jumped = Series::constant(
            SimTime::EPOCH,
            Duration::from_minutes(15.0),
            Power::from_megawatts(8.0),
            n + 3,
        )
        .unwrap();
        compiled.bill(&jumped).unwrap();
        assert_eq!(compiled.segment_map_stats().1, 2);
    }

    #[test]
    fn poisoned_segment_map_cache_keeps_whole_snapshots() {
        let tl = PriceTimeline {
            breaks: vec![0, 12 * 3600],
            prices: vec![0.05, 0.11],
            maps: SegmentMapCache::default(),
        };
        let load = load_15min(1, 8.0);
        let expected = tl.cost(&load);
        assert_eq!(tl.map_stats(), (0, 1));

        // Poison the cache lock: a thread panics while holding the write
        // guard. Under copy-on-write the published snapshot is always whole
        // (the swap is one Arc store), so unlike the old Mutex'd Vec there
        // is no torn state to distrust.
        std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = tl.maps.entries.write().unwrap();
                panic!("injected panic while holding the segment-map lock");
            })
            .join()
            .unwrap_err();
        });
        assert!(tl.maps.entries.is_poisoned());

        // Recovery keeps the snapshot: the stream prefix probe still sees
        // the cached map...
        assert!(tl.prefix_map(0, 900).is_some());
        // ...and the next bill is a cache hit to the same cost.
        assert_eq!(tl.cost(&load), expected);
        assert_eq!(tl.map_stats(), (1, 1));
        // Writes keep working after recovery: a new geometry publishes.
        tl.cost(&load_15min(7, 8.0));
        assert_eq!(tl.map_stats(), (1, 2));
        assert_eq!(tl.cost(&load_15min(7, 8.0)), tl.cost(&load_15min(7, 8.0)));
    }
}
