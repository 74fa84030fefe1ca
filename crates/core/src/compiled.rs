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
//! A batch bill is the streaming fold run once: [`CompiledContract::bill`]
//! folds the whole load as one block of a single meter — what
//! [`BillAccrual::push_run`](crate::accrual::BillAccrual::push_run) does —
//! and finalizes, so a batch bill and a streamed bill are the same code.
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
//! path for horizons up to a year; property-tested in `fast_equivalence`).
//! Both modes take a month's demand peak as one lane max when metering is
//! the identity, which is *bit-equal* to the per-sample peak (see
//! [`BillAccrual::push_run`](crate::accrual::BillAccrual::push_run)).

use crate::accrual::Cohort;
use crate::billing::{Bill, Precision};
use crate::contract::{Contract, ContractDelta};
use crate::demand_charge::DemandCharge;
use crate::emergency::EmergencyDrClause;
use crate::fingerprint::{self, ComponentFingerprint};
use crate::powerband::Powerband;
use crate::tariff::{BlockTariff, DynamicTariff, Tariff};
use crate::typology::ContractComponentKind;
use crate::{CoreError, Result};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_timeseries::series::{PowerSeries, PriceSeries};
use hpcgrid_units::time::SECS_PER_DAY;
use hpcgrid_units::{Calendar, Duration, Money, Power, SimTime};
use std::sync::Arc;

/// A piecewise-constant price timeline: segment `i` covers
/// `[breaks[i], breaks[i+1])` (the last segment extends to the compile
/// horizon's end) at `prices[i]` dollars per kWh. Adjacent segments with
/// bitwise-equal prices are merged at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct PriceTimeline {
    /// Segment start times in seconds; `breaks[0]` is the horizon start.
    pub(crate) breaks: Vec<u64>,
    /// Segment prices in `$ / kWh`, one per break.
    pub(crate) prices: Vec<f64>,
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
        PriceTimeline { breaks, prices }
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
        PriceTimeline { breaks, prices }
    }

    /// Number of price segments.
    pub fn segments(&self) -> usize {
        self.prices.len()
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
    /// Shared behind `Arc`, so cloning a kernel copies a pointer, not the
    /// index.
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
    /// pieces are shared with `self`, so switching precision costs nothing.
    pub fn with_precision(mut self, precision: Precision) -> CompiledContract {
        self.precision = precision;
        self
    }

    /// The precision this kernel bills at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Always `(0, 0)`: kernels keep no per-geometry segment-map cache, so
    /// there are no hits or misses to count. Kept because the benchmark
    /// package reports it as `compiled.segment_map_hit_rate`.
    pub fn segment_map_stats(&self) -> (u64, u64) {
        (0, 0)
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
        self.bill_run(load.start(), load.step(), load.values(), events)
    }

    /// The one compiled fold: bill `powers`, sampled every `step` from
    /// `start`, as a cohort of one folding the whole load as one block
    /// against this kernel (borrowed, never cloned), then finalize. Batch
    /// bills and the ledger's as-of slices both come through here, so they
    /// share the streaming path's expressions and order.
    pub(crate) fn bill_run(
        &self,
        start: SimTime,
        step: Duration,
        powers: &[Power],
        events: &IntervalSet,
    ) -> Result<Bill> {
        let end = start + step * powers.len() as u64;
        if start < self.start || end > self.end {
            return Err(CoreError::BadSeries(format!(
                "load [{start}, {end}) is outside the compiled horizon [{}, {})",
                self.start, self.end
            )));
        }
        let mut meter = Cohort::new(self, start, step, events)?;
        meter.push_member();
        meter.fold(self, Power::kilowatts_slice(powers), powers.len());
        meter.finalize(self, 0)
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
        // `clone` shares the lowered pieces; only the precision knob differs.
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
}
