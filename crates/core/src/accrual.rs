//! Streaming bill accrual: fold samples into running bills, one meter or a
//! whole cohort of meters at a time.
//!
//! The interpreter is an O(n) replay over a *complete* load series.
//! Utility-scale serving (millions of meters billed continuously) needs the
//! dual: state that folds `(timestamp, Power)` samples in O(1) amortized
//! each and can close the books at any instant. [`BillAccrual`] is that
//! machine for one meter, and the compiled kernel's batch bill is one fused
//! run of it.
//!
//! # Cohorts: shared clock, per-meter columns
//!
//! Meters billed under one kernel that started at the same instant, sample
//! at the same step and have folded the same number of samples advance in
//! lockstep: their segment cursors, month cursors, metering-chunk counters
//! and closed-month calendar are identical. A crate-private `Cohort` holds
//! that shared state once and keeps every per-meter quantity — strip
//! dollars, block kWh and totals, the demand chunk sum and peak (or top-k
//! candidates), band tallies, window worsts, the last kW, and one column of
//! billed demand per closed month — as lane-aligned `f64` columns. The
//! kernel is not part of the state: every fold borrows it.
//!
//! One block fold advances a cohort by a block of `meters × ticks` powers
//! (meter-major: each meter's samples are contiguous). Per tick and tariff
//! it finds the price once, then applies it across the meters. A
//! [`BillAccrual`] is a cohort of one; [`push_next`](BillAccrual::push_next)
//! is a one-sample block and [`push_run`](BillAccrual::push_run) a one-meter
//! block, and the fleet folds whole shards' cohorts through the same code.
//! The loop order follows the block's shape — a one-tick span runs one
//! tight loop across the meters, a longer span runs each meter's samples as
//! a tight inner loop — and per meter the expressions and their order are
//! the same either way.
//!
//! # Bit-identity invariant
//!
//! This is the one compiled fold: [`CompiledContract::bill_with_events`] is
//! a single one-meter block over the whole load, then `finalize()`. So
//! `finalize()` after `k` samples is **bit for bit** the batch `Bill` of the
//! first-`k`-samples series by construction, whatever block shapes the
//! samples came in (invariant 8). That bill also equals the interpreter's —
//! equal totals, equal line items, equal labels —
//! because every accumulator replicates the interpreter's expression shape
//! and summation order:
//!
//! * **Strip tariffs** accumulate `Σ kW·h·price` per sample in arrival
//!   order, pricing through the kernel's segment timeline with a monotone
//!   segment cursor.
//! * **Block tariffs** carry the current month's kWh bucket and fold closed
//!   months through `BlockTariff::monthly_cost` chronologically.
//! * **Demand charges** maintain the open month's metering chunk (the
//!   `downsample_mean` chunk anchored at the month slice's snapped start)
//!   and its peak state — a running max, or the top-k candidate set with the
//!   stable-sort tie order. Month boundaries replicate `Series::slice_time`
//!   snap-out, including the one-sample overlap at boundaries that are not
//!   step-aligned: the straddling sample is re-fed to the new month. Under
//!   identity metering a span of several samples in one month takes its
//!   peak as one lane max, which is bit-equal to the per-sample max except
//!   on an all-NaN span with no prior peak.
//! * **Powerbands** accumulate excursion kWh in sample order; **emergency
//!   windows** carry a running worst load per event window; the **service
//!   fee** is a month-count off the shared boundary index at finalize.
//!
//! Verified by the `compiled_equivalence` property tests against the
//! interpreter, by the `accrual_equivalence` property tests at every stream
//! prefix, and by the `fleet_batched_equivalence` property tests across
//! block shapes, shard counts and meters out of step with their cohorts.
//!
//! # Mid-stream patches
//!
//! [`BillAccrual::rebind`] moves a live accrual onto a patched kernel
//! (see [`CompiledContract::patch`]) *without replaying history*, which is
//! only sound for deltas whose accrued state stays valid: fee changes,
//! demand-charge price changes (same interval/basis/floor), powerband
//! penalty changes (same bounds), emergency-clause changes, and component
//! removals. Deltas that would re-price history (tariff replacements,
//! corridor moves, adding a demand charge mid-stream) are rejected.
//!
//! [`BillAccrual::rebind_at`] is the *prospective* dual, built for ledger
//! events (see [`ContractLedger`](crate::ledger::ContractLedger)): instead
//! of re-pricing history it closes the books on the current revision's
//! slice at an effective instant and keeps streaming under the new kernel —
//! any delta is allowed, because nothing accrued crosses the boundary.
//! `finalize()` then folds the closed slices with the open one via
//! [`Bill::fold`], bit-identical to
//! [`ContractLedger::bill_as_of`](crate::ledger::ContractLedger::bill_as_of)
//! over the same stream.

use crate::billing::{Bill, LineItem};
use crate::compiled::{CompiledContract, LoweredTariff};
use crate::demand_charge::{DemandAssessment, DemandBasis, DemandCharge};
use crate::powerband::Powerband;
use crate::typology::ContractComponentKind;
use crate::{CoreError, Result};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_units::{kernels, Duration, Energy, Money, Power, SimTime};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;

/// Samples per gathered tile of a tiled cohort fold (32 KiB of `f64`):
/// large cohorts fold their block tile by tile so the gather scratch stays
/// cache-sized.
const TILE_SAMPLES: usize = 4_096;

/// Peak state of the open demand month — the snapshot form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum PeakState {
    /// Running max of completed chunk means, in kW.
    Max(Option<f64>),
    /// Top-k candidates as `(chunk_index, kW)`, kept sorted by
    /// (kW descending, chunk_index ascending) — the stable-descending-sort
    /// prefix `top_k_peaks` would produce.
    TopK(Vec<(u64, f64)>),
}

/// Powerband excursion tallies — the snapshot form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BandAccrual {
    over_kwh: f64,
    under_kwh: f64,
    violations: u64,
}

/// One emergency event window — the snapshot form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WindowAccrual {
    /// Window `[start, end)` in seconds.
    start: u64,
    end: u64,
    /// First member sample index (snap-out: a sample straddling the window
    /// start belongs to it, like `Series::slice_time`).
    first_index: u64,
    /// Running worst load, `None` while no sample fell in the window.
    worst: Option<Power>,
}

/// Serialized checkpoint of a [`BillAccrual`], from
/// [`BillAccrual::snapshot`]. Self-contained modulo the kernel: restoring
/// requires a kernel with the same [`CompiledContract::fingerprint`] (the
/// snapshot carries it for validation) but none of the compiled timelines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccrualSnapshot {
    /// `CompiledContract::fingerprint().0` of the kernel accrued against.
    pub fingerprint: u64,
    start: u64,
    step: u64,
    n: u64,
    last_kw: f64,
    /// Per-strip running dollars / per-block bucket state, in tariff order.
    tariffs: Vec<TariffSnapshot>,
    demand: Option<DemandSnapshot>,
    band: Option<BandAccrual>,
    windows: Vec<WindowAccrual>,
    /// Revision slices closed by [`BillAccrual::rebind_at`] before the
    /// snapshot was taken (empty for a single-revision stream).
    closed_slices: Vec<Bill>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TariffSnapshot {
    /// Running dollars; the segment cursor is re-seeked on restore.
    Strip(f64),
    /// `(current month kWh, bucket open, closed-months fold)`.
    Block(f64, bool, Money),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DemandSnapshot {
    chunk_sum: f64,
    chunk_count: u64,
    chunk_idx: u64,
    peak: PeakState,
    closed: Vec<DemandAssessment>,
}

/// A cohort's position on one tariff, parallel to the kernel's tariff
/// slots.
#[derive(Debug, Clone, PartialEq)]
enum TariffCursor {
    /// Segment holding the most recent sample (or the stream start).
    Strip(usize),
    /// Next month boundary to close, and whether the open month's bucket
    /// holds a sample.
    Block { bi: usize, open: bool },
}

/// A cohort's demand-charge clock: where every member stands in the open
/// month and its metering chunk.
#[derive(Debug, Clone, PartialEq)]
struct DemandClock {
    /// Samples per metering chunk (1 when the demand interval is no coarser
    /// than the sample step — metering is then the identity).
    factor: u64,
    /// Next month-boundary index to close.
    bi: usize,
    /// Samples in the open metering chunk.
    chunk_count: u64,
    /// Completed chunks in the open month (the top-k arrival index).
    chunk_idx: u64,
    /// Peak entries every member holds for the open month: 0 or 1 under a
    /// max basis, up to k under top-k. Each completed chunk adds one entry
    /// to every member alike, so the count is shared.
    held: usize,
    /// Billing-month numbers of the closed months, parallel to the closed
    /// billed-demand columns.
    closed: Vec<u64>,
}

/// What every member of a cohort shares: the sample count and every cursor
/// the fold's control flow reads. Two cohorts with equal geometry and equal
/// clocks fold any block identically and may merge.
#[derive(Debug, Clone, PartialEq, Default)]
struct Clock {
    /// Samples folded so far.
    n: u64,
    tariffs: Vec<TariffCursor>,
    demand: Option<DemandClock>,
    /// Per event window: true once a sample fell in it.
    hit: Vec<bool>,
}

/// One emergency event window's bounds on the stream grid.
#[derive(Debug, Clone, PartialEq)]
struct Window {
    /// Window `[start, end)` in seconds.
    start: u64,
    end: u64,
    /// First member sample index.
    first_index: u64,
}

/// Per-tariff columns, parallel to the kernel's tariff slots.
#[derive(Debug, Clone)]
enum TariffCols {
    /// Fixed/TOU/dynamic: running dollars.
    Strip { dollars: Vec<f64> },
    /// Block: the open month's kWh bucket and the fold of closed months.
    Block { kwh: Vec<f64>, total: Vec<f64> },
}

/// Per-meter demand-charge columns.
#[derive(Debug, Clone)]
struct DemandCols {
    /// Sum of the open metering chunk.
    chunk_sum: Vec<f64>,
    /// Max basis: the running peak, one per meter. Top-k: `k` slots of
    /// `[chunk index, kW]` per meter, the first `held` live.
    peak: Vec<f64>,
    /// `f64`s of `peak` per meter.
    stride: usize,
    /// Billed demand in kW per closed month, one column per month.
    closed: Vec<Vec<f64>>,
}

/// Per-meter powerband tallies (the violation count is an exact integer
/// in `f64`).
#[derive(Debug, Clone)]
struct BandCols {
    over_kwh: Vec<f64>,
    under_kwh: Vec<f64>,
    violations: Vec<f64>,
}

/// Every per-meter quantity of a cohort, as lane-aligned columns.
#[derive(Debug, Clone, Default)]
struct Columns {
    /// kW of each meter's most recent sample (re-fed to a new demand month
    /// when a boundary splits the sample — the `slice_time` snap-out
    /// overlap).
    last_kw: Vec<f64>,
    tariffs: Vec<TariffCols>,
    demand: Option<DemandCols>,
    band: Option<BandCols>,
    /// Running worst kW per event window.
    worst: Vec<Vec<f64>>,
}

impl Columns {
    /// Visit every column with its `f64`s per meter — for the structural
    /// edits (add, remove, select and append members).
    fn each_mut(&mut self, mut f: impl FnMut(&mut Vec<f64>, usize)) {
        f(&mut self.last_kw, 1);
        for t in &mut self.tariffs {
            match t {
                TariffCols::Strip { dollars } => f(dollars, 1),
                TariffCols::Block { kwh, total } => {
                    f(kwh, 1);
                    f(total, 1);
                }
            }
        }
        if let Some(d) = &mut self.demand {
            f(&mut d.chunk_sum, 1);
            f(&mut d.peak, d.stride);
            d.closed.iter_mut().for_each(|c| f(c, 1));
        }
        if let Some(b) = &mut self.band {
            f(&mut b.over_kwh, 1);
            f(&mut b.under_kwh, 1);
            f(&mut b.violations, 1);
        }
        self.worst.iter_mut().for_each(|c| f(c, 1));
    }
}

/// Meters that advance in lockstep under one kernel: shared geometry and
/// clock, per-meter columns, one block fold. See the module docs.
///
/// The kernel is borrowed by every call, never held: a cohort's state is
/// valid only against the kernel it was created or restored with.
#[derive(Debug, Clone)]
pub(crate) struct Cohort {
    /// First sample start, in seconds.
    start: u64,
    /// Sample step, in seconds.
    step: u64,
    /// Step width in hours — the interpreter's `load.step().as_hours()`.
    step_h: f64,
    windows: Vec<Window>,
    clock: Clock,
    cols: Columns,
    /// Bills of revision slices closed by [`BillAccrual::rebind_at`], in
    /// time order; `finalize` folds them with the open slice. Only a
    /// cohort of one ever has any.
    closed_slices: Vec<Bill>,
}

impl Cohort {
    /// An empty cohort against `k` for streams starting at `start` with
    /// interval width `step`, assessed against `events`. Members join with
    /// [`Cohort::push_member`].
    ///
    /// Errors if `step` is zero, `start` lies outside the kernel's compile
    /// horizon, or the kernel's demand interval is incompatible with `step`
    /// (coarser but not an integer multiple — the same geometry the
    /// interpreter rejects per bill, rejected here once).
    pub(crate) fn new(
        k: &CompiledContract,
        start: SimTime,
        step: Duration,
        events: &IntervalSet,
    ) -> Result<Cohort> {
        if step.is_zero() {
            return Err(CoreError::BadSeries("sample step must be positive".into()));
        }
        let (h_start, h_end) = k.horizon();
        if start < h_start || start >= h_end {
            return Err(CoreError::BadSeries(format!(
                "stream start {start} is outside the compiled horizon [{h_start}, {h_end})"
            )));
        }
        let s0 = start.as_secs();
        let step_s = step.as_secs();
        let mut tariffs = Vec::with_capacity(k.tariffs.len());
        let mut tariff_cols = Vec::with_capacity(k.tariffs.len());
        for piece in &k.tariffs {
            match &piece.lowered {
                LoweredTariff::Strip(tl) => {
                    tariffs.push(TariffCursor::Strip(
                        tl.breaks.partition_point(|b| *b <= s0) - 1,
                    ));
                    tariff_cols.push(TariffCols::Strip {
                        dollars: Vec::new(),
                    });
                }
                LoweredTariff::Block(_) => {
                    tariffs.push(TariffCursor::Block {
                        bi: k.boundary_after(s0),
                        open: false,
                    });
                    tariff_cols.push(TariffCols::Block {
                        kwh: Vec::new(),
                        total: Vec::new(),
                    });
                }
            }
        }
        let (demand, demand_cols) = match &k.demand_charge {
            Some(dc) => {
                dc.validate()?;
                let di = dc.demand_interval.as_secs();
                let factor = if di >= step_s {
                    if !di.is_multiple_of(step_s) {
                        return Err(CoreError::BadSeries(format!(
                            "demand interval {di}s is not an integer multiple of the \
                             sample step {step_s}s"
                        )));
                    }
                    di / step_s
                } else {
                    1
                };
                let clock = DemandClock {
                    factor,
                    bi: k.boundary_after(s0),
                    chunk_count: 0,
                    chunk_idx: 0,
                    held: 0,
                    closed: Vec::new(),
                };
                let cols = DemandCols {
                    chunk_sum: Vec::new(),
                    peak: Vec::new(),
                    stride: match dc.basis {
                        DemandBasis::MaxPeak => 1,
                        DemandBasis::TopKAverage(top) => 2 * top,
                    },
                    closed: Vec::new(),
                };
                (Some(clock), Some(cols))
            }
            None => (None, None),
        };
        // Window membership replicates `slice_time` snap-out against the
        // stream grid: first member index floors the window start, and a
        // sample is in while its start time is below the window end.
        let windows: Vec<Window> = events
            .intervals()
            .iter()
            .map(|w| {
                let ws = w.start.as_secs();
                Window {
                    start: ws,
                    end: w.end.as_secs(),
                    first_index: if ws <= s0 { 0 } else { (ws - s0) / step_s },
                }
            })
            .collect();
        Ok(Cohort {
            start: s0,
            step: step_s,
            step_h: step.as_hours(),
            clock: Clock {
                n: 0,
                tariffs,
                demand,
                hit: vec![false; windows.len()],
            },
            cols: Columns {
                last_kw: Vec::new(),
                tariffs: tariff_cols,
                demand: demand_cols,
                band: k.powerband.map(|_| BandCols {
                    over_kwh: Vec::new(),
                    under_kwh: Vec::new(),
                    violations: Vec::new(),
                }),
                worst: vec![Vec::new(); windows.len()],
            },
            windows,
            closed_slices: Vec::new(),
        })
    }

    /// Members in the cohort.
    pub(crate) fn members(&self) -> usize {
        self.cols.last_kw.len()
    }

    /// Samples each member has folded.
    pub(crate) fn samples(&self) -> u64 {
        self.clock.n
    }

    /// Start time of the next expected sample.
    pub(crate) fn expected_next(&self) -> SimTime {
        SimTime::from_secs(self.start + self.clock.n * self.step)
    }

    /// Add a member with fresh state: every column starts at zero, which is
    /// exactly a new stream's state while the cohort has folded nothing.
    pub(crate) fn push_member(&mut self) {
        self.cols
            .each_mut(|col, stride| col.resize(col.len() + stride, 0.0));
    }

    /// Remove member `lane`; the last member takes its lane.
    pub(crate) fn swap_remove(&mut self, lane: usize) {
        self.cols.each_mut(|col, stride| {
            let last = col.len() / stride - 1;
            for i in 0..stride {
                col.swap(lane * stride + i, last * stride + i);
            }
            col.truncate(last * stride);
        });
    }

    /// A cohort of the members at `lanes`, in that order.
    pub(crate) fn select(&self, lanes: &[usize]) -> Cohort {
        let mut out = self.clone();
        out.cols.each_mut(|col, stride| {
            *col = lanes
                .iter()
                .flat_map(|&l| col[l * stride..(l + 1) * stride].iter().copied())
                .collect();
        });
        out
    }

    /// True if `other`'s members can join this cohort: equal geometry and
    /// clock, and neither carries event windows or closed revision slices.
    pub(crate) fn joins(&self, other: &Cohort) -> bool {
        self.start == other.start
            && self.step == other.step
            && self.clock == other.clock
            && self.windows.is_empty()
            && other.windows.is_empty()
            && self.closed_slices.is_empty()
            && other.closed_slices.is_empty()
    }

    /// Append `other`'s members (which must [`join`](Cohort::joins)).
    pub(crate) fn append(&mut self, mut other: Cohort) {
        debug_assert!(self.joins(&other));
        let mut taken = Vec::new();
        other
            .cols
            .each_mut(|col, _| taken.push(std::mem::take(col)));
        let mut taken = taken.into_iter();
        self.cols.each_mut(|col, _| {
            col.extend_from_slice(&taken.next().expect("joined cohorts share a shape"))
        });
    }

    /// How many of the next `len` samples fit the compile horizon: sample
    /// `j` occupies `[t0 + j·step, t0 + (j+1)·step)` and fits while that
    /// interval ends at or before the horizon end.
    pub(crate) fn fit(&self, k: &CompiledContract, len: usize) -> usize {
        let t0 = self.start + self.clock.n * self.step;
        let fit = (k.end.as_secs().saturating_sub(t0) / self.step) as usize;
        len.min(fit)
    }

    /// The error for the next sample when it runs past the horizon.
    pub(crate) fn overrun(&self, k: &CompiledContract) -> CoreError {
        let t = self.start + self.clock.n * self.step;
        CoreError::BadSeries(format!(
            "sample [{}, {}) runs past the compiled horizon end {}",
            SimTime::from_secs(t),
            SimTime::from_secs(t + self.step),
            k.end
        ))
    }

    /// Fold a block of `w` samples per member, already validated to fit the
    /// horizon: `kws` holds each member's samples contiguously (member
    /// `m`'s are `kws[m·w..(m+1)·w]`), in kW.
    pub(crate) fn fold(&mut self, k: &CompiledContract, kws: &[f64], w: usize) {
        let lanes = 0..self.members();
        fold_lanes(k, self, lanes, kws, w);
    }

    /// Start a tiled fold of a block of `w` samples per member — the
    /// block supplied tile by tile through [`Cohort::fold_tile`], so the
    /// gather scratch stays cache-sized.
    pub(crate) fn tiles(&self, w: usize) -> Tiles {
        let tile = (TILE_SAMPLES / w.max(1)).max(1);
        Tiles {
            before: (self.members() > tile).then(|| self.clock.clone()),
            w,
            tile,
            next: if w == 0 { self.members() } else { 0 },
        }
    }

    /// Fold the next tile of `tiles`: `gather` writes the tile's members'
    /// samples (meter-major, `w` each) into the buffer it is given, which
    /// lives in `scratch` and holds at most [`TILE_SAMPLES`] unless one
    /// member's run alone is longer. Every tile folds from the same
    /// starting clock, so once [`Tiles::done`], the cohort is exactly one
    /// [`Cohort::fold`] of the whole block further.
    pub(crate) fn fold_tile(
        &mut self,
        k: &CompiledContract,
        tiles: &mut Tiles,
        scratch: &mut Vec<f64>,
        gather: impl FnOnce(Range<usize>, &mut [f64]),
    ) {
        let lanes = tiles.next..(tiles.next + tiles.tile).min(self.members());
        if lanes.is_empty() {
            return;
        }
        if let (Some(before), true) = (&tiles.before, lanes.start > 0) {
            self.clock = before.clone();
        }
        scratch.clear();
        scratch.resize(lanes.len() * tiles.w, 0.0);
        gather(lanes.clone(), &mut scratch[..]);
        fold_lanes(k, self, lanes.clone(), &scratch[..], tiles.w);
        tiles.next = lanes.end;
    }

    /// Close member `lane`'s books at the current instant (see
    /// [`BillAccrual::finalize`]).
    pub(crate) fn finalize(&self, k: &CompiledContract, lane: usize) -> Result<Bill> {
        if self.clock.n == 0 {
            // A stream with closed slices but nothing in the open one yet
            // (finalize right after a rebind_at) still has books to close.
            return if self.closed_slices.is_empty() {
                Err(CoreError::BadSeries("load series is empty".into()))
            } else {
                Bill::fold(&self.closed_slices)
            };
        }
        let open = self.finalize_open(k, lane)?;
        if self.closed_slices.is_empty() {
            return Ok(open);
        }
        Bill::fold(self.closed_slices.iter().chain(std::iter::once(&open)))
    }

    /// The open slice's bill for member `lane`: the batch-identical close
    /// of everything folded since the last `rebind_at` (or since creation).
    fn finalize_open(&self, k: &CompiledContract, lane: usize) -> Result<Bill> {
        if self.clock.n == 0 {
            return Err(CoreError::BadSeries("load series is empty".into()));
        }
        let m = lane;
        let mut items = Vec::new();
        for (i, (slot, (cursor, cols))) in k
            .tariffs
            .iter()
            .zip(self.clock.tariffs.iter().zip(&self.cols.tariffs))
            .enumerate()
        {
            let amount = match (&slot.lowered, cursor, cols) {
                (_, _, TariffCols::Strip { dollars }) => Money::from_dollars(dollars[m]),
                (
                    LoweredTariff::Block(b),
                    TariffCursor::Block { open, .. },
                    TariffCols::Block { kwh, total },
                ) => {
                    let total = Money::from_dollars(total[m]);
                    if *open {
                        total + b.monthly_cost(kwh[m])
                    } else {
                        total
                    }
                }
                _ => unreachable!("block columns on a strip slot"),
            };
            items.push(LineItem {
                label: format!("{} tariff #{}", slot.kind().label(), i + 1),
                kind: Some(slot.kind()),
                amount,
            });
        }
        if let (Some(dc), Some(d), Some(cols)) = (
            k.demand_charge.as_ref(),
            self.clock.demand.as_ref(),
            self.cols.demand.as_ref(),
        ) {
            // A month boundary strictly inside the final sample interval
            // splits it like `slice_time` snap-out: the straddling sample
            // closes the open month AND seeds a trailing month of its own.
            // No fold saw a sample at/past such a boundary, so close it
            // here, on a one-member copy (finalize must not mutate).
            let mut clock = DemandClock {
                closed: Vec::new(),
                ..*d
            };
            let mut one = DemandCols {
                chunk_sum: vec![cols.chunk_sum[m]],
                peak: cols.peak[m * cols.stride..(m + 1) * cols.stride].to_vec(),
                stride: cols.stride,
                closed: Vec::new(),
            };
            let end = self.start + self.clock.n * self.step;
            let starts: &[u64] = &k.month_starts;
            while clock.bi < starts.len() && starts[clock.bi] < end {
                clock.close_month(k.first_month, dc, &mut one, 0..1);
                clock.feed(dc, &mut one, 0..1, &self.cols.last_kw[m..=m], 1, 0..1);
            }
            let closing = clock.billed(dc, &one, 0);
            let count = cols.closed.len() + one.closed.len() + usize::from(closing.is_some());
            let amount: Money = cols
                .closed
                .iter()
                .map(|c| c[m])
                .chain(one.closed.iter().map(|c| c[0]))
                .chain(closing)
                .map(|kw| Power::from_kilowatts(kw) * dc.price)
                .sum();
            items.push(LineItem {
                label: format!("Demand charges ({count} billing months)"),
                kind: Some(ContractComponentKind::DemandCharge),
                amount,
            });
        }
        if let (Some(pb), Some(band)) = (k.powerband.as_ref(), self.cols.band.as_ref()) {
            let amount = (Energy::from_kilowatt_hours(band.over_kwh[m])
                + Energy::from_kilowatt_hours(band.under_kwh[m]))
                * pb.penalty;
            items.push(LineItem {
                label: format!(
                    "Powerband excursions ({} intervals)",
                    band.violations[m] as u64
                ),
                kind: Some(ContractComponentKind::Powerband),
                amount,
            });
        }
        if let Some(em) = &k.emergency {
            em.validate()?;
            let mut total = Money::ZERO;
            for (hit, worst) in self.clock.hit.iter().zip(&self.cols.worst) {
                let worst = if *hit {
                    Power::from_kilowatts(worst[m])
                } else {
                    Power::ZERO
                };
                if worst > em.limit {
                    total += em.penalty_per_event;
                }
            }
            items.push(LineItem {
                label: format!("Emergency DR penalties ({} events)", self.windows.len()),
                kind: Some(ContractComponentKind::EmergencyDr),
                amount: total,
            });
        }
        if k.monthly_fee > Money::ZERO {
            let end = self.start + self.clock.n * self.step;
            let months = (k.boundary_after(end - 1) - k.boundary_after(self.start)) as u64 + 1;
            items.push(LineItem {
                label: format!("Service fee ({months} months)"),
                kind: None,
                amount: k.monthly_fee * months as f64,
            });
        }
        Ok(Bill {
            contract: k.name.clone(),
            items,
        })
    }

    /// Move the cohort from kernel `old` onto `new` without replaying
    /// history (see [`BillAccrual::rebind`] for the rules).
    pub(crate) fn rebind(&mut self, old: &CompiledContract, new: &CompiledContract) -> Result<()> {
        if new.horizon() != old.horizon() || new.calendar() != old.calendar() {
            return Err(CoreError::BadComponent(
                "rebind requires the same calendar and compile horizon".into(),
            ));
        }
        if new.tariffs.len() != old.tariffs.len() {
            return Err(CoreError::BadComponent(format!(
                "rebind cannot change the tariff count ({} -> {})",
                old.tariffs.len(),
                new.tariffs.len()
            )));
        }
        for (i, (o, n)) in old.tariffs.iter().zip(&new.tariffs).enumerate() {
            if o.fingerprint != n.fingerprint {
                return Err(CoreError::BadComponent(format!(
                    "rebind cannot replace tariff #{i} mid-stream: accrued energy \
                     cost cannot be re-priced without the sample history"
                )));
            }
        }
        match (&old.demand_charge, &new.demand_charge) {
            (_, None) => {}
            (Some(o), Some(n)) => {
                if o.demand_interval != n.demand_interval
                    || o.basis != n.basis
                    || o.floor != n.floor
                {
                    return Err(CoreError::BadComponent(
                        "rebind supports demand-charge price changes only: interval, \
                         basis, and floor shape the accrued metering state"
                            .into(),
                    ));
                }
            }
            (None, Some(_)) => {
                return Err(CoreError::BadComponent(
                    "rebind cannot add a demand charge mid-stream: earlier months \
                     were never metered"
                        .into(),
                ));
            }
        }
        match (&old.powerband, &new.powerband) {
            (_, None) => {}
            (Some(o), Some(n)) => {
                if o.upper != n.upper || o.lower != n.lower {
                    return Err(CoreError::BadComponent(
                        "rebind supports powerband penalty changes only: moving the \
                         corridor would re-classify accrued excursions"
                            .into(),
                    ));
                }
            }
            (None, Some(_)) => {
                return Err(CoreError::BadComponent(
                    "rebind cannot add a powerband mid-stream: earlier excursions \
                     were never measured"
                        .into(),
                ));
            }
        }
        // Closed months keep their billed demand and are re-priced at
        // finalize; emergency clauses and the service fee apply at
        // finalize too, so any change to them (including add/remove) is
        // sound.
        if new.demand_charge.is_none() {
            self.clock.demand = None;
            self.cols.demand = None;
        }
        if new.powerband.is_none() {
            self.cols.band = None;
        }
        Ok(())
    }

    /// Member `lane`'s state as a snapshot against kernel `k`.
    pub(crate) fn snapshot(&self, k: &CompiledContract, lane: usize) -> AccrualSnapshot {
        let m = lane;
        AccrualSnapshot {
            fingerprint: k.fingerprint().0,
            start: self.start,
            step: self.step,
            n: self.clock.n,
            last_kw: self.cols.last_kw[m],
            tariffs: self
                .clock
                .tariffs
                .iter()
                .zip(&self.cols.tariffs)
                .map(|(cursor, cols)| match (cursor, cols) {
                    (TariffCursor::Block { open, .. }, TariffCols::Block { kwh, total }) => {
                        TariffSnapshot::Block(kwh[m], *open, Money::from_dollars(total[m]))
                    }
                    (_, TariffCols::Strip { dollars }) => TariffSnapshot::Strip(dollars[m]),
                    _ => unreachable!("block columns on a strip cursor"),
                })
                .collect(),
            demand: match (&k.demand_charge, &self.clock.demand, &self.cols.demand) {
                (Some(dc), Some(d), Some(cols)) => Some(DemandSnapshot {
                    chunk_sum: cols.chunk_sum[m],
                    chunk_count: d.chunk_count,
                    chunk_idx: d.chunk_idx,
                    peak: match dc.basis {
                        DemandBasis::MaxPeak => PeakState::Max((d.held > 0).then(|| cols.peak[m])),
                        DemandBasis::TopKAverage(_) => PeakState::TopK(
                            cols.slots(m)[..d.held]
                                .iter()
                                .map(|&[idx, kw]| (idx as u64, kw))
                                .collect(),
                        ),
                    },
                    closed: d
                        .closed
                        .iter()
                        .zip(&cols.closed)
                        .map(|(&month, col)| {
                            let billed_demand = Power::from_kilowatts(col[m]);
                            DemandAssessment {
                                month,
                                billed_demand,
                                charge: billed_demand * dc.price,
                            }
                        })
                        .collect(),
                }),
                _ => None,
            },
            band: self.cols.band.as_ref().map(|b| BandAccrual {
                over_kwh: b.over_kwh[m],
                under_kwh: b.under_kwh[m],
                violations: b.violations[m] as u64,
            }),
            windows: self
                .windows
                .iter()
                .zip(&self.clock.hit)
                .zip(&self.cols.worst)
                .map(|((w, hit), worst)| WindowAccrual {
                    start: w.start,
                    end: w.end,
                    first_index: w.first_index,
                    worst: hit.then(|| Power::from_kilowatts(worst[m])),
                })
                .collect(),
            closed_slices: self.closed_slices.clone(),
        }
    }

    /// A cohort of one rebuilt from `snap` against kernel `k` (see
    /// [`BillAccrual::restore`]).
    pub(crate) fn restore(k: &CompiledContract, snap: &AccrualSnapshot) -> Result<Cohort> {
        if k.fingerprint().0 != snap.fingerprint {
            return Err(CoreError::BadComponent(format!(
                "snapshot was taken against kernel {:016x}, not {:016x}",
                snap.fingerprint,
                k.fingerprint().0
            )));
        }
        let mut c = Cohort::new(
            k,
            SimTime::from_secs(snap.start),
            Duration::from_secs(snap.step),
            &IntervalSet::empty(),
        )?;
        if snap.tariffs.len() != c.clock.tariffs.len() {
            return Err(CoreError::BadComponent(
                "snapshot tariff count does not match the kernel".into(),
            ));
        }
        c.push_member();
        c.clock.n = snap.n;
        c.cols.last_kw[0] = snap.last_kw;
        // Cursor positions re-derive from the grid: re-seek to the segment
        // and month of the last folded sample; folds then advance
        // monotonically from there.
        let t_last = snap.start + snap.n.saturating_sub(1) * snap.step;
        let caught_up = snap.n > 0;
        let starts: &[u64] = &k.month_starts;
        for ((slot, s), (cursor, cols)) in k
            .tariffs
            .iter()
            .zip(&snap.tariffs)
            .zip(c.clock.tariffs.iter_mut().zip(&mut c.cols.tariffs))
        {
            match (&slot.lowered, s, cursor, cols) {
                (
                    LoweredTariff::Strip(tl),
                    TariffSnapshot::Strip(d),
                    TariffCursor::Strip(seg),
                    TariffCols::Strip { dollars },
                ) => {
                    dollars[0] = *d;
                    if caught_up {
                        *seg = tl.breaks.partition_point(|b| *b <= t_last) - 1;
                    }
                }
                (
                    LoweredTariff::Block(_),
                    TariffSnapshot::Block(cur, have, t),
                    TariffCursor::Block { bi, open },
                    TariffCols::Block { kwh, total },
                ) => {
                    kwh[0] = *cur;
                    total[0] = t.as_dollars();
                    *open = *have;
                    if caught_up {
                        *bi = starts.partition_point(|b| *b <= t_last);
                    }
                }
                _ => {
                    return Err(CoreError::BadComponent(
                        "snapshot tariff kinds do not match the kernel".into(),
                    ));
                }
            }
        }
        let demand_mismatch =
            || CoreError::BadComponent("snapshot demand state does not match the kernel".into());
        match (
            &k.demand_charge,
            &snap.demand,
            c.clock.demand.as_mut(),
            c.cols.demand.as_mut(),
        ) {
            (Some(dc), Some(ds), Some(d), Some(cols)) => {
                d.chunk_count = ds.chunk_count;
                d.chunk_idx = ds.chunk_idx;
                cols.chunk_sum[0] = ds.chunk_sum;
                match (&ds.peak, dc.basis) {
                    (PeakState::Max(p), DemandBasis::MaxPeak) => {
                        d.held = usize::from(p.is_some());
                        cols.peak[0] = p.unwrap_or(0.0);
                    }
                    (PeakState::TopK(cands), DemandBasis::TopKAverage(top))
                        if cands.len() <= top =>
                    {
                        d.held = cands.len();
                        for (slot, &(idx, kw)) in cols.slots_mut(0).iter_mut().zip(cands) {
                            *slot = [idx as f64, kw];
                        }
                    }
                    _ => return Err(demand_mismatch()),
                }
                for a in &ds.closed {
                    d.closed.push(a.month);
                    cols.closed.push(vec![a.billed_demand.as_kilowatts()]);
                }
                if caught_up {
                    d.bi = starts.partition_point(|b| *b <= t_last);
                }
            }
            (None, None, None, None) => {}
            _ => return Err(demand_mismatch()),
        }
        match (c.cols.band.as_mut(), &snap.band) {
            (Some(b), Some(bs)) => {
                b.over_kwh[0] = bs.over_kwh;
                b.under_kwh[0] = bs.under_kwh;
                b.violations[0] = bs.violations as f64;
            }
            (None, None) => {}
            _ => {
                return Err(CoreError::BadComponent(
                    "snapshot powerband state does not match the kernel".into(),
                ));
            }
        }
        c.windows = snap
            .windows
            .iter()
            .map(|w| Window {
                start: w.start,
                end: w.end,
                first_index: w.first_index,
            })
            .collect();
        c.clock.hit = snap.windows.iter().map(|w| w.worst.is_some()).collect();
        c.cols.worst = snap
            .windows
            .iter()
            .map(|w| vec![w.worst.map_or(0.0, Power::as_kilowatts)])
            .collect();
        c.closed_slices = snap.closed_slices.clone();
        Ok(c)
    }

    /// Approximate heap + inline bytes the cohort holds, all members
    /// together.
    pub(crate) fn approx_bytes(&mut self) -> usize {
        let mut column_bytes = 0;
        self.cols
            .each_mut(|col, _| column_bytes += col.capacity() * std::mem::size_of::<f64>());
        std::mem::size_of::<Cohort>()
            + column_bytes
            + self.clock.tariffs.capacity() * std::mem::size_of::<TariffCursor>()
            + self.cols.tariffs.capacity() * std::mem::size_of::<TariffCols>()
            + self
                .clock
                .demand
                .as_ref()
                .map_or(0, |d| d.closed.capacity() * std::mem::size_of::<u64>())
            + self.windows.capacity() * std::mem::size_of::<Window>()
    }
}

/// A tiled block fold in progress (see [`Cohort::tiles`]).
#[derive(Debug)]
pub(crate) struct Tiles {
    /// The clock every tile starts from; `None` for a one-tile block.
    before: Option<Clock>,
    /// Samples per member.
    w: usize,
    /// Members per tile.
    tile: usize,
    /// First member of the next tile.
    next: usize,
}

impl Tiles {
    /// True once every member has folded the block.
    pub(crate) fn done(&self, cohort: &Cohort) -> bool {
        self.next >= cohort.members()
    }
}

/// The one block fold: advance members `lanes` of `c` by `kws` — `w`
/// samples per member, meter-major — against kernel `k`.
///
/// Component-outer: each accumulator walks the whole block before the next
/// one starts. Components never read each other's state (demand's boundary
/// re-feed needs the *previous sample's* kW, which comes from the block
/// itself or `last_kw` for the block's first sample), so per-component
/// order equals per-sample order, and each meter's accumulators see the
/// per-sample expressions in sample order whatever the loop nest.
fn fold_lanes(k: &CompiledContract, c: &mut Cohort, lanes: Range<usize>, kws: &[f64], w: usize) {
    if w == 0 || lanes.is_empty() {
        return;
    }
    debug_assert_eq!(kws.len(), lanes.len() * w);
    let (start, step, step_h) = (c.start, c.step, c.step_h);
    let g0 = c.clock.n;
    let starts: &[u64] = &k.month_starts;
    // Start second of block sample `j`, and the block index of the first
    // sample starting at or after boundary `b` (which lies after sample
    // `j`'s start for the current `j`), capped at the block's end.
    let at = |j: usize| start + (g0 + j as u64) * step;
    let until = |b: u64| (((b - start).div_ceil(step) - g0) as usize).min(w);

    for ((slot, cursor), cols) in k
        .tariffs
        .iter()
        .zip(&mut c.clock.tariffs)
        .zip(&mut c.cols.tariffs)
    {
        match (&slot.lowered, cursor, cols) {
            (LoweredTariff::Strip(tl), TariffCursor::Strip(seg), TariffCols::Strip { dollars }) => {
                let dollars = &mut dollars[lanes.clone()];
                // A one-member block (a compiled bill, a solo accrual)
                // keeps its running sum in a register across every run.
                let mut solo = dollars[0];
                let mut j = 0;
                while j < w {
                    // The price in force at sample `j` and the block index
                    // its constant-price run extends to.
                    advance_seg(seg, &tl.breaks, at(j));
                    let price = tl.prices[*seg];
                    let j_end = tl.breaks.get(*seg + 1).map_or(w, |&b| until(b));
                    // The interpreter's exact expression and order per
                    // sample.
                    let energy = |acc: f64, kw: f64| acc + kw * step_h * price;
                    match dollars.len() {
                        1 => solo = kws[j..j_end].iter().fold(solo, |a, &kw| energy(a, kw)),
                        _ => sweep(dollars, kws, w, j..j_end, energy),
                    }
                    j = j_end;
                }
                if let [only] = dollars {
                    *only = solo;
                }
            }
            (
                LoweredTariff::Block(b),
                TariffCursor::Block { bi, open },
                TariffCols::Block { kwh, total },
            ) => {
                let (kwh, total) = (&mut kwh[lanes.clone()], &mut total[lanes.clone()]);
                let mut j = 0;
                while j < w {
                    let t = at(j);
                    while *bi < starts.len() && starts[*bi] <= t {
                        *bi += 1;
                        if *open {
                            for (tot, cur) in total.iter_mut().zip(kwh.iter_mut()) {
                                *tot =
                                    (Money::from_dollars(*tot) + b.monthly_cost(*cur)).as_dollars();
                                *cur = 0.0;
                            }
                            *open = false;
                        }
                    }
                    let j_end = starts.get(*bi).map_or(w, |&nb| until(nb));
                    sweep(kwh, kws, w, j..j_end, |acc, kw| acc + kw * step_h);
                    *open = true;
                    j = j_end;
                }
            }
            _ => unreachable!("cursors and columns follow the kernel's tariff kinds"),
        }
    }

    if let (Some(dc), Some(d), Some(cols)) = (
        k.demand_charge.as_ref(),
        c.clock.demand.as_mut(),
        c.cols.demand.as_mut(),
    ) {
        let lane_max = dc.metering_is_identity(Duration::from_secs(step));
        let mut j = 0;
        while j < w {
            let t = at(j);
            while d.bi < starts.len() && starts[d.bi] <= t {
                let bnd = starts[d.bi];
                d.close_month(k.first_month, dc, cols, lanes.clone());
                if !(bnd - start).is_multiple_of(step) {
                    // The boundary splits the previous sample: slice_time
                    // snap-out puts it in BOTH months, so re-feed it as the
                    // new month's first metering sample.
                    if j == 0 {
                        let last = &c.cols.last_kw[lanes.clone()];
                        d.feed(dc, cols, lanes.clone(), last, 1, 0..1);
                    } else {
                        d.feed(dc, cols, lanes.clone(), kws, w, j - 1..j);
                    }
                }
            }
            let j_end = starts.get(d.bi).map_or(w, |&nb| until(nb));
            if lane_max {
                d.feed_max(cols, lanes.clone(), kws, w, j..j_end);
            } else {
                d.feed(dc, cols, lanes.clone(), kws, w, j..j_end);
            }
            j = j_end;
        }
    }

    if let (Some(pb), Some(band)) = (k.powerband.as_ref(), c.cols.band.as_mut()) {
        fold_band(pb, step_h, band, lanes.clone(), kws, w);
    }

    for ((win, hit), worst) in c
        .windows
        .iter()
        .zip(&mut c.clock.hit)
        .zip(&mut c.cols.worst)
    {
        // Member samples: i >= first_index and t < window end.
        let lo = win.first_index.max(g0);
        let hi = if win.end <= start {
            g0
        } else {
            (win.end - start).div_ceil(step).min(g0 + w as u64)
        };
        if lo < hi {
            let span = (lo - g0) as usize..(hi - g0) as usize;
            let worst = &mut worst[lanes.clone()];
            if !*hit {
                // The first member sample is the worst so far as it is.
                for (acc, row) in worst.iter_mut().zip(kws.chunks_exact(w)) {
                    *acc = row[span.start];
                }
            }
            let from = if *hit { span.start } else { span.start + 1 };
            // `Power::max` on the kW values.
            sweep(worst, kws, w, from..span.end, f64::max);
            *hit = true;
        }
    }

    for (last, row) in c.cols.last_kw[lanes].iter_mut().zip(kws.chunks_exact(w)) {
        *last = row[w - 1];
    }
    c.clock.n = g0 + w as u64;
}

/// The powerband part of [`fold_lanes`]: each member's excursion tallies
/// over its row of the block. The tallies are updated inside the branches
/// of a struct, the interpreter loop's shape; accumulated in locals
/// instead, the branches compile to selects, which put a dependent add on
/// every sample and cost compiled bills with a powerband about 25 %.
fn fold_band(
    pb: &Powerband,
    step_h: f64,
    band: &mut BandCols,
    lanes: Range<usize>,
    kws: &[f64],
    w: usize,
) {
    let rows = band.over_kwh[lanes.clone()]
        .iter_mut()
        .zip(&mut band.under_kwh[lanes.clone()])
        .zip(&mut band.violations[lanes])
        .zip(kws.chunks_exact(w));
    for (((over, under), count), row) in rows {
        let mut tally = BandAccrual {
            over_kwh: *over,
            under_kwh: *under,
            violations: 0,
        };
        tally.fold(pb, step_h, row);
        (*over, *under) = (tally.over_kwh, tally.under_kwh);
        // An integer count joins the exact-integer column once: the same
        // total as adding 1.0 per violation.
        *count += tally.violations as f64;
    }
}

impl BandAccrual {
    /// Fold one member's samples: excursion kWh in sample order, in the
    /// interpreter's expressions.
    fn fold(&mut self, pb: &Powerband, step_h: f64, kws: &[f64]) {
        let (upper, lower) = (pb.upper, pb.lower);
        for &kw in kws {
            let power = Power::from_kilowatts(kw);
            if power > upper {
                self.over_kwh += (power - upper).as_kilowatts() * step_h;
                self.violations += 1;
            } else if let Some(lo) = lower {
                if power < lo {
                    self.under_kwh += (lo - power).as_kilowatts() * step_h;
                    self.violations += 1;
                }
            }
        }
    }
}

/// Fold samples `span` of every member's row of a meter-major block (`w`
/// samples per member) into that member's accumulator, `acc = f(acc, kw)`
/// per sample in sample order. The loop nest follows the span's shape: a
/// one-sample span is one tight loop across the members, a longer span a
/// tight loop over each member's samples. An empty span is a no-op.
#[inline(always)]
fn sweep(acc: &mut [f64], kws: &[f64], w: usize, span: Range<usize>, f: impl Fn(f64, f64) -> f64) {
    match span.len() {
        0 => {}
        1 if w == 1 => {
            for (a, &kw) in acc.iter_mut().zip(kws) {
                *a = f(*a, kw);
            }
        }
        1 => {
            for (a, row) in acc.iter_mut().zip(kws.chunks_exact(w)) {
                *a = f(*a, row[span.start]);
            }
        }
        _ => {
            for (a, row) in acc.iter_mut().zip(kws.chunks_exact(w)) {
                *a = row[span.clone()].iter().fold(*a, |x, &kw| f(x, kw));
            }
        }
    }
}

impl DemandCols {
    /// Member `m`'s top-k slots as `[chunk index, kW]` pairs.
    fn slots(&self, m: usize) -> &[[f64; 2]] {
        self.peak[m * self.stride..(m + 1) * self.stride]
            .as_chunks::<2>()
            .0
    }

    fn slots_mut(&mut self, m: usize) -> &mut [[f64; 2]] {
        self.peak[m * self.stride..(m + 1) * self.stride]
            .as_chunks_mut::<2>()
            .0
    }
}

/// Insert a completed chunk's mean into top-k `slots` whose first `held`
/// are live: after every candidate with a strictly greater or equal demand,
/// so equal demands keep arrival (chronological) order, exactly like the
/// interpreter's stable sort; the smallest falls off a full set.
fn insert_top(slots: &mut [[f64; 2]], held: usize, chunk_idx: u64, kw: f64) {
    let pos = slots[..held].partition_point(|c| c[1] >= kw);
    if pos < slots.len() {
        let end = held.min(slots.len() - 1);
        slots.copy_within(pos..end, pos + 1);
        slots[pos] = [chunk_idx as f64, kw];
    }
}

impl DemandClock {
    /// Mean of a metering chunk holding `sum`, replicating
    /// `downsample_mean`: a factor-1 chunk is the raw sample (the
    /// interpreter clones, it never divides).
    fn mean(&self, sum: f64) -> f64 {
        if self.factor == 1 {
            sum
        } else {
            sum / self.chunk_count as f64
        }
    }

    /// Feed samples `span` of members `lanes`' rows (`w` per member) into
    /// the open metering chunk, observing each chunk as it completes.
    fn feed(
        &mut self,
        dc: &DemandCharge,
        cols: &mut DemandCols,
        lanes: Range<usize>,
        kws: &[f64],
        w: usize,
        span: Range<usize>,
    ) {
        let mut j = span.start;
        while j < span.end {
            let take = ((self.factor - self.chunk_count) as usize).min(span.end - j);
            sweep(
                &mut cols.chunk_sum[lanes.clone()],
                kws,
                w,
                j..j + take,
                |acc, kw| acc + kw,
            );
            self.chunk_count += take as u64;
            j += take;
            if self.chunk_count == self.factor {
                self.observe(dc, cols, lanes.clone());
                cols.chunk_sum[lanes.clone()].fill(0.0);
                self.chunk_count = 0;
                self.chunk_idx += 1;
            }
        }
    }

    /// Observe the open chunk's mean as a completed chunk of every member.
    fn observe(&mut self, dc: &DemandCharge, cols: &mut DemandCols, lanes: Range<usize>) {
        match dc.basis {
            DemandBasis::MaxPeak => {
                let sums = &cols.chunk_sum[lanes.clone()];
                for (p, &sum) in cols.peak[lanes].iter_mut().zip(sums) {
                    let kw = self.mean(sum);
                    *p = if self.held > 0 { p.max(kw) } else { kw };
                }
                self.held = 1;
            }
            DemandBasis::TopKAverage(top) => {
                for m in lanes {
                    let kw = self.mean(cols.chunk_sum[m]);
                    insert_top(cols.slots_mut(m), self.held, self.chunk_idx, kw);
                }
                self.held = (self.held + 1).min(top);
            }
        }
    }

    /// Identity metering (one sample per chunk, max basis): fold samples
    /// `span` of one month into each member's peak. A one-sample span
    /// observes `0.0 + kw` exactly as the per-sample feed does; a longer
    /// span takes one lane max, which maps −0.0 to +0.0 like the feed and
    /// is order-free over every other value, so it equals feeding the span
    /// sample by sample except on an all-NaN span with no prior peak.
    fn feed_max(
        &mut self,
        cols: &mut DemandCols,
        lanes: Range<usize>,
        kws: &[f64],
        w: usize,
        span: Range<usize>,
    ) {
        let held = self.held > 0;
        let peaks = cols.peak[lanes].iter_mut();
        if span.len() == 1 {
            for (p, row) in peaks.zip(kws.chunks_exact(w)) {
                let kw = 0.0 + row[span.start];
                *p = if held { p.max(kw) } else { kw };
            }
        } else {
            for (p, row) in peaks.zip(kws.chunks_exact(w)) {
                let kw = 0.0 + kernels::max_lanes(&row[span.clone()]);
                *p = if held { p.max(kw) } else { kw };
            }
        }
        self.held = 1;
        self.chunk_idx += span.len() as u64;
    }

    /// Member `m`'s billed demand for the open month in kW (floor applied),
    /// counting a partial trailing chunk averaged over the samples present.
    /// `None` if no sample landed in the month — the same for every member.
    fn billed(&self, dc: &DemandCharge, cols: &DemandCols, m: usize) -> Option<f64> {
        let pending = (self.chunk_count > 0).then(|| self.mean(cols.chunk_sum[m]));
        let raw = match dc.basis {
            DemandBasis::MaxPeak => match (self.held > 0, pending) {
                (true, Some(kw)) => cols.peak[m].max(kw),
                (true, None) => cols.peak[m],
                (false, Some(kw)) => kw,
                (false, None) => return None,
            },
            DemandBasis::TopKAverage(_) => {
                let mut slots = cols.slots(m).to_vec();
                let mut live = self.held;
                if let Some(kw) = pending {
                    insert_top(&mut slots, live, self.chunk_idx, kw);
                    live = (live + 1).min(slots.len());
                }
                if live == 0 {
                    return None;
                }
                let sum: f64 = slots[..live].iter().map(|c| c[1]).sum();
                sum / live as f64
            }
        };
        Some(dc.apply_floor(Power::from_kilowatts(raw)).as_kilowatts())
    }

    /// Close the open month for members `lanes`: record each member's
    /// billed demand in the month's column, then start the next month.
    fn close_month(
        &mut self,
        first_month: u64,
        dc: &DemandCharge,
        cols: &mut DemandCols,
        lanes: Range<usize>,
    ) {
        if self.held > 0 || self.chunk_count > 0 {
            let idx = self.closed.len();
            self.closed.push(first_month + self.bi as u64);
            if cols.closed.len() == idx {
                cols.closed.push(vec![0.0; cols.chunk_sum.len()]);
            }
            for m in lanes.clone() {
                let kw = self.billed(dc, cols, m).expect("the month holds a sample");
                cols.closed[idx][m] = kw;
            }
        }
        self.bi += 1;
        cols.chunk_sum[lanes].fill(0.0);
        self.chunk_count = 0;
        self.chunk_idx = 0;
        self.held = 0;
    }
}

/// A streaming bill: one contract meter folding samples into a running
/// bill in O(1) amortized per sample — a cohort of one, bound to its
/// kernel.
///
/// Samples arrive on a fixed grid — `start + i·step` — matching how a
/// [`PowerSeries`](hpcgrid_timeseries::series::PowerSeries) indexes
/// intervals; [`BillAccrual::push`] checks
/// the timestamp and [`BillAccrual::push_next`] skips the check.
/// [`BillAccrual::finalize`] closes the books at the current instant and is
/// bit-identical to the batch kernel — see the module docs.
///
/// ```
/// use hpcgrid_core::accrual::BillAccrual;
/// use hpcgrid_core::compiled::CompiledContract;
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_timeseries::series::Series;
/// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
/// use std::sync::Arc;
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let cal = Calendar::default();
/// let kernel = Arc::new(CompiledContract::compile(
///     &cal,
///     &contract,
///     SimTime::EPOCH,
///     SimTime::from_days(30),
/// )?);
///
/// let step = Duration::from_minutes(15.0);
/// let mut meter = BillAccrual::new(Arc::clone(&kernel), SimTime::EPOCH, step)?;
/// let load = Series::constant(SimTime::EPOCH, step, Power::from_megawatts(8.0), 96)?;
/// for (t, &p) in load.iter() {
///     meter.push(t, p)?;
/// }
/// // Bit-identical to the batch path over the same samples.
/// assert_eq!(meter.finalize()?, kernel.bill(&load)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BillAccrual {
    kernel: Arc<CompiledContract>,
    cohort: Cohort,
}

impl BillAccrual {
    /// A fresh accrual against `kernel` for a sample stream starting at
    /// `start` with interval width `step` (no emergency event windows; see
    /// [`BillAccrual::with_events`]).
    ///
    /// Errors if `step` is zero, `start` lies outside the kernel's compile
    /// horizon, or the kernel's demand interval is incompatible with `step`
    /// (coarser but not an integer multiple — the same geometry the
    /// interpreter rejects per bill, rejected here once).
    pub fn new(
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
    ) -> Result<BillAccrual> {
        BillAccrual::with_events(kernel, start, step, &IntervalSet::empty())
    }

    /// Like [`BillAccrual::new`], with emergency event windows the stream
    /// will be assessed against (the streaming form of
    /// [`CompiledContract::bill_with_events`]).
    pub fn with_events(
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
        events: &IntervalSet,
    ) -> Result<BillAccrual> {
        let mut cohort = Cohort::new(&kernel, start, step, events)?;
        cohort.push_member();
        Ok(BillAccrual { kernel, cohort })
    }

    /// The kernel this accrual bills against.
    pub fn kernel(&self) -> &Arc<CompiledContract> {
        &self.kernel
    }

    /// Samples folded so far.
    pub fn samples(&self) -> u64 {
        self.cohort.samples()
    }

    /// Start time of the next expected sample.
    pub fn expected_next(&self) -> SimTime {
        self.cohort.expected_next()
    }

    /// Fold one sample, checking its timestamp against the stream grid.
    /// Streams are gap-free: `t` must equal [`BillAccrual::expected_next`].
    pub fn push(&mut self, t: SimTime, power: Power) -> Result<()> {
        let expected = self.expected_next();
        if t != expected {
            return Err(CoreError::BadSeries(format!(
                "sample at {t} breaks the stream grid (expected {expected})"
            )));
        }
        self.push_next(power)
    }

    /// Fold one sample at the next grid instant: a one-sample
    /// [`BillAccrual::push_run`].
    pub fn push_next(&mut self, power: Power) -> Result<()> {
        self.push_run(std::slice::from_ref(&power))
    }

    /// Fold a contiguous run of samples at the next grid instants — the
    /// fused form of calling [`BillAccrual::push_next`] once per sample, and
    /// the whole of a compiled batch bill
    /// ([`CompiledContract::bill_with_events`] is one `push_run` over the
    /// load).
    ///
    /// A run keeps the segment and month cursors hot: price/boundary
    /// lookups happen once per *run segment* instead of once per sample,
    /// the inner loops are tight multiply-adds over the contiguous power
    /// slice, and under identity metering each month's demand peak is one
    /// lane max.
    ///
    /// # Equivalence contract
    ///
    /// The accrued state after `push_run(powers)` is **bit-identical** to
    /// the state after `powers.len()` sequential `push_next` calls: every
    /// accumulator sees the same per-sample `f64` expressions in the same
    /// order — only cursor bookkeeping is hoisted out of the inner loops,
    /// and a lane max replaces per-sample peak updates only where it is
    /// bit-equal (see the module docs).
    ///
    /// Error behaviour is per-sample-identical too: a run crossing the
    /// compile horizon applies the fitting prefix and then returns exactly
    /// the error `push_next` would have returned for the first overrunning
    /// sample. An empty run is a no-op.
    pub fn push_run(&mut self, powers: &[Power]) -> Result<()> {
        let run = self.cohort.fit(&self.kernel, powers.len());
        self.cohort
            .fold(&self.kernel, Power::kilowatts_slice(&powers[..run]), run);
        if run < powers.len() {
            return Err(self.cohort.overrun(&self.kernel));
        }
        Ok(())
    }

    /// Close the books at the current instant. Non-consuming: the stream
    /// can keep accruing afterwards (month-to-date reporting).
    ///
    /// Bit-identical to `CompiledContract::bill_with_events` over the
    /// samples pushed so far. Errors on an
    /// empty stream, exactly like the batch path. After
    /// [`BillAccrual::rebind_at`] the closed revision slices are folded
    /// with the open one via [`Bill::fold`] — bit-identical to the ledger's
    /// as-of bill over the same samples.
    pub fn finalize(&self) -> Result<Bill> {
        self.cohort.finalize(&self.kernel, 0)
    }

    /// Move the accrual onto `kernel` — typically a
    /// [`CompiledContract::patch`] of the current one — and continue
    /// streaming, **without replaying history**.
    ///
    /// After a successful rebind, `finalize()` is bit-identical to billing
    /// the *entire* stream (past and future samples) under the new kernel,
    /// which is only possible when the accrued state stays valid. Allowed:
    /// service-fee changes, demand-charge *price* changes (interval, basis,
    /// and floor unchanged — closed months are re-priced from their stored
    /// billed demand), powerband *penalty* changes (bounds unchanged),
    /// emergency-clause changes (windows are tracked independently of the
    /// clause), and removing a demand charge or powerband. Rejected with
    /// [`CoreError::BadComponent`]: replacing a tariff with a different
    /// fingerprint, adding a demand charge or powerband mid-stream, or
    /// changing metering geometry / corridor bounds — those would re-price
    /// samples this accrual no longer holds. The new kernel must share the
    /// old one's calendar and horizon.
    pub fn rebind(&mut self, kernel: Arc<CompiledContract>) -> Result<()> {
        self.cohort.rebind(&self.kernel, &kernel)?;
        self.kernel = kernel;
        Ok(())
    }

    /// Splice a new revision into the stream *prospectively*: close the
    /// books on the current kernel's slice at `at` (which must be the next
    /// grid instant, [`BillAccrual::expected_next`]) and continue streaming
    /// under `kernel` — the streaming form of a ledger event taking effect
    /// (see [`ContractLedger::bill_as_of`](crate::ledger::ContractLedger::bill_as_of)).
    ///
    /// Unlike [`BillAccrual::rebind`], *any* delta is allowed — tariff
    /// replacements included — because nothing accrued crosses the
    /// boundary: the closed slice is billed under the old kernel, samples
    /// from `at` on are billed under the new one, and `finalize()` folds
    /// the slices via [`Bill::fold`]. The result is bit-identical to batch
    /// billing each slice separately (demand months and service fees
    /// restart at the boundary, exactly like two separate meters).
    ///
    /// The new kernel must share the old one's calendar and compile
    /// horizon; the open slice must be non-empty (an empty slice bills as
    /// nothing and would silently disagree with the ledger's slicing);
    /// streams with emergency event windows are rejected — event penalties
    /// are assessed per window, not per slice, so they cannot be spliced.
    pub fn rebind_at(&mut self, kernel: Arc<CompiledContract>, at: SimTime) -> Result<()> {
        if kernel.horizon() != self.kernel.horizon() || kernel.calendar() != self.kernel.calendar()
        {
            return Err(CoreError::BadComponent(
                "rebind_at requires the same calendar and compile horizon".into(),
            ));
        }
        if !self.cohort.windows.is_empty() {
            return Err(CoreError::BadComponent(
                "rebind_at cannot splice a stream with emergency event windows: \
                 penalties are assessed per window, not per revision slice"
                    .into(),
            ));
        }
        let expected = self.expected_next();
        if at != expected {
            return Err(CoreError::BadSeries(format!(
                "rebind_at({at}) must land on the next grid instant {expected}: \
                 a revision takes effect between samples, never inside one"
            )));
        }
        let closed = self.cohort.finalize_open(&self.kernel, 0)?;
        let mut fresh = BillAccrual::new(kernel, at, Duration::from_secs(self.cohort.step))?;
        fresh.cohort.closed_slices = std::mem::take(&mut self.cohort.closed_slices);
        fresh.cohort.closed_slices.push(closed);
        *self = fresh;
        Ok(())
    }

    /// Serialize the accrual's state for checkpointing. The snapshot is a
    /// plain serde struct — pair it with any format; restoring against a
    /// kernel with the same fingerprint resumes the stream bit-exactly
    /// ([`BillAccrual::restore`]).
    pub fn snapshot(&self) -> AccrualSnapshot {
        self.cohort.snapshot(&self.kernel, 0)
    }

    /// Rebuild an accrual from a snapshot and the kernel it was taken
    /// against (validated by fingerprint). The restored stream continues
    /// bit-identically to the original: cursor positions are re-derived
    /// from the grid, so only the numeric state travels.
    pub fn restore(kernel: Arc<CompiledContract>, snap: &AccrualSnapshot) -> Result<BillAccrual> {
        let cohort = Cohort::restore(&kernel, snap)?;
        Ok(BillAccrual { kernel, cohort })
    }

    /// Approximate heap + inline bytes this accrual holds.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Arc<CompiledContract>>() + self.cohort.clone().approx_bytes()
    }
}

/// Monotone segment-cursor advance: `seg` points at the segment containing
/// the previous sample; move it forward while the next break is at or
/// before `t`.
fn advance_seg(seg: &mut usize, breaks: &[u64], t: u64) {
    while let Some(&b) = breaks.get(*seg + 1) {
        if b <= t {
            *seg += 1;
        } else {
            break;
        }
    }
}
