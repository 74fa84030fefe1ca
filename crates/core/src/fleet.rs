//! Sharded meter fleets: utility-scale streaming billing.
//!
//! A [`MeterFleet`] bills many streaming meters at once, sharded by
//! contract fingerprint so every meter under the same contract shares one
//! `Arc`'d [`CompiledContract`] kernel. Every advance resolves its samples
//! to shards through a scatter plan and fans the shards across the
//! `try_par_map` worker pool; each shard is owned by exactly one task per
//! advance, so the per-shard locks never contend.
//!
//! # Hot-path data layout
//!
//! A shard holds its meters as **cohorts**: meters that started at the same
//! instant, sample at the same step and have folded the same number of
//! samples share one clock — the sample count, every tariff's segment
//! cursor, the block and demand month cursors, the metering-chunk counters
//! and the closed-month calendar — while every per-meter quantity is a
//! lane of an `f64` column (see [`crate::accrual`]). An advance folds each
//! cohort's block of `meters × ticks` powers in one pass: per tick and
//! tariff the price is found once and applied across the cohort.
//!
//! Ingest comes in two shapes, plus an adapter:
//!
//! * [`MeterFleet::advance_frame`] — one tick as a columnar [`TickFrame`]
//!   (SoA: a shared meter-id lane plus a contiguous power lane): a block
//!   one tick wide. The fleet resolves directory lookups, quarantine
//!   membership, and cohort bucketing **once** into a cached
//!   `ScatterPlan`; steady-state scatter is then a plan-indexed gather of
//!   the power lane into each shard's reused scratch, with no per-sample
//!   map probes and no per-sample locks.
//! * [`MeterFleet::advance_window`] — many frames at once: a block as wide
//!   as the window, folded in the same pass.
//! * [`MeterFleet::advance_tick`] — one tick of AoS [`Sample`]s, transposed
//!   by [`TickFrame::from_samples`] and advanced as a frame.
//!
//! The scatter plan is reused while the population is stable and
//! invalidated by anything that moves meters or changes quarantine
//! membership: [`MeterFleet::register`], [`MeterFleet::apply_delta`],
//! [`MeterFleet::restore`], an armed chaos fault, and in-advance panics.
//! Building a plan is also when cohorts change shape: each shard's cohorts
//! with equal clocks merge, and a cohort splits when the frame shape puts
//! its meters out of step — meters absent from the frame (they lag), and
//! meters named more than once in a frame (their samples fold in frame
//! order, as a run of their own). A meter restored to a different point,
//! moved by a delta or quarantined leaves its cohort the same way, so a
//! whole-fleet [`MeterFleet::restore_checkpoint`] ends in full cohorts
//! again at the next plan build. [`FleetStats::cohorts`] shows the
//! fragmentation.
//!
//! The fleet preserves the accrual layer's bit-identity invariant meter by
//! meter and *per ingest shape*: `finalize(meter)` equals the batch bill
//! of that meter's sample history, regardless of shard count, cohort
//! membership, tick batching, or whether the samples arrived as AoS ticks,
//! frames, or fused windows. The shard count
//! (default: available parallelism; set it with [`MeterFleet::with_shards`])
//! is therefore pure deployment tuning.
//!
//! # Failure model
//!
//! The fleet degrades instead of dying, with two blast radii:
//!
//! * **An injected fault costs one meter-window.** A meter armed by
//!   [`MeterFleet::chaos_poison_meter`] is split into a cohort of its own at
//!   the next plan build and pulled out before the block fold: its samples
//!   in that advance are dropped, it is quarantined with an
//!   "injected meter panic" reason, and every other meter folds normally.
//! * **A genuine panic costs its whole cohort.** A panic inside a cohort's
//!   block fold leaves every member half-updated — the fold interleaves
//!   members within each component — so every member of that cohort is
//!   quarantined with the panic message rather than left with a silently
//!   wrong bill. Other cohorts and shards fold normally.
//!
//! Quarantined meters drop their samples through the rebuilt plan and
//! refuse `finalize`/`snapshot` until [`MeterFleet::restore`] rehabilitates
//! them from a known-good snapshot. Typed errors (grid misuse, horizon
//! overrun) still fail the advance.

use crate::accrual::{AccrualSnapshot, Cohort, Tiles};
use crate::billing::Bill;
use crate::checkpoint::FleetCheckpoint;
use crate::compiled::CompiledContract;
use crate::contract::{Contract, ContractDelta};
use crate::kernels::KernelCache;
use crate::ledger::{EventPayload, LedgerEvent};
use crate::{CoreError, Result};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_timeseries::par::{default_threads, try_par_map};
use hpcgrid_units::{Calendar, Duration, Power, SimTime};
use serde::Serialize;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The reason an armed chaos fault quarantines its meter with.
const INJECTED_PANIC: &str = "injected meter panic (chaos)";

/// Opaque handle to a registered meter. Returned by
/// [`MeterFleet::register`] and stable for the fleet's lifetime (meters
/// are never deregistered, only re-sharded by [`MeterFleet::apply_delta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeterId(pub usize);

impl std::fmt::Display for MeterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "meter#{}", self.0)
    }
}

/// One metered power reading for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The meter the reading belongs to.
    pub meter: MeterId,
    /// Mean power over the meter's sample interval.
    pub power: Power,
}

/// One tick's samples in columnar (SoA) form: a meter-id lane shared by
/// `Arc` and a contiguous power lane.
///
/// Frames are the fleet's batched ingest currency: a driver builds the
/// meter-id lane once, then publishes one frame per tick by cloning the
/// `Arc` and filling a fresh power lane (or updating one in place via
/// [`TickFrame::powers_mut`]). Frames sharing one id lane compare by
/// pointer inside the fleet, so the cached `ScatterPlan` match costs a
/// pointer compare, not a scan.
///
/// ```
/// use hpcgrid_core::fleet::{MeterFleet, TickFrame};
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
/// use std::sync::Arc;
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let mut fleet = MeterFleet::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(30));
/// let step = Duration::from_minutes(15.0);
/// let ids = Arc::from(vec![
///     fleet.register(&contract, SimTime::EPOCH, step)?,
///     fleet.register(&contract, SimTime::EPOCH, step)?,
/// ]);
/// // One frame per tick, sharing the id lane.
/// let frames: Vec<TickFrame> = (0..4)
///     .map(|_| {
///         TickFrame::new(
///             Arc::clone(&ids),
///             vec![Power::from_megawatts(8.0), Power::from_megawatts(5.0)],
///         )
///     })
///     .collect::<Result<_, _>>()?;
/// let report = fleet.advance_window(&frames)?;
/// assert_eq!(report.applied, 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TickFrame {
    /// Meter ids, position-aligned with `powers`.
    meters: Arc<[MeterId]>,
    /// Mean power per meter over this tick.
    powers: Vec<Power>,
}

impl TickFrame {
    /// A frame from an id lane and a position-aligned power lane. Errors
    /// if the lanes disagree in length.
    pub fn new(meters: Arc<[MeterId]>, powers: Vec<Power>) -> Result<TickFrame> {
        if meters.len() != powers.len() {
            return Err(CoreError::BadSeries(format!(
                "tick frame lanes disagree: {} meter ids vs {} powers",
                meters.len(),
                powers.len()
            )));
        }
        Ok(TickFrame { meters, powers })
    }

    /// Transpose an AoS sample batch into a frame (one allocation per
    /// lane). Drivers that can build frames directly should — frames built
    /// per tick from the same `Arc`'d id lane skip the plan re-match scan.
    pub fn from_samples(samples: &[Sample]) -> TickFrame {
        TickFrame {
            meters: samples.iter().map(|s| s.meter).collect(),
            powers: samples.iter().map(|s| s.power).collect(),
        }
    }

    /// The shared meter-id lane.
    pub fn meters(&self) -> &Arc<[MeterId]> {
        &self.meters
    }

    /// The power lane, position-aligned with [`TickFrame::meters`].
    pub fn powers(&self) -> &[Power] {
        &self.powers
    }

    /// Mutable power lane — overwrite in place to reuse one frame
    /// allocation across ticks.
    pub fn powers_mut(&mut self) -> &mut [Power] {
        &mut self.powers
    }

    /// Samples in the frame.
    pub fn len(&self) -> usize {
        self.meters.len()
    }

    /// True if the frame carries no samples.
    pub fn is_empty(&self) -> bool {
        self.meters.is_empty()
    }
}

/// The cached scatter resolution for one frame shape against one fleet
/// population: every directory lookup, quarantine probe, and cohort
/// assignment done once.
#[derive(Debug)]
struct ScatterPlan {
    /// Fleet population version the plan was built against.
    version: u64,
    /// The frame meter-id lane the plan serves.
    meters: Arc<[MeterId]>,
    /// `(shard, groups range)` for every shard with a cohort to fold.
    work: Vec<(usize, Range<usize>)>,
    /// One worker task per range of `work`, split like `try_par_map`
    /// splits its inputs.
    tasks: Vec<Range<usize>>,
    /// The cohorts to fold, shard by shard.
    groups: Vec<PlanGroup>,
    /// Frame positions: `per_frame` per member of each planned cohort, in
    /// lane order.
    positions: Vec<u32>,
    /// Frame positions dropped every tick because their meter is
    /// quarantined.
    dropped_per_tick: usize,
}

/// One cohort an advance folds.
#[derive(Debug, Clone)]
struct PlanGroup {
    /// The cohort's index in its shard.
    group: usize,
    /// Samples per member per frame: 1, or for a meter named several times
    /// in a frame (a cohort of its own), that many in frame order.
    per_frame: usize,
    /// The members' frame positions in [`ScatterPlan::positions`].
    positions: Range<usize>,
}

/// One cohort of a shard with its members' ids, lane-aligned.
#[derive(Debug)]
struct Group {
    ids: Vec<MeterId>,
    cohort: Cohort,
}

/// What a shard's lock guards.
#[derive(Debug, Default)]
struct ShardState {
    groups: Vec<Group>,
    /// Meters armed with an injected fault for their next fold.
    armed: Vec<MeterId>,
    /// The gather buffer, reused by every advance.
    scratch: Vec<f64>,
}

/// A group of meters sharing one compiled kernel, advanced by one worker
/// task per advance.
struct Shard {
    /// `CompiledContract::fingerprint().0` of the shard's kernel.
    fingerprint: u64,
    kernel: Arc<CompiledContract>,
    /// Locked once per advance per worker; `&mut self` paths use the
    /// lock-free `get_mut`.
    state: Mutex<ShardState>,
}

/// Where a meter lives: its shard, its cohort in the shard, its lane in the
/// cohort.
#[derive(Debug, Clone, Copy)]
struct Slot {
    shard: u32,
    group: u32,
    lane: u32,
}

/// What one fleet advance (tick, frame, or window) did with its samples.
///
/// Every offered sample lands in exactly one bucket: `applied` (folded into
/// a healthy meter) or `dropped` (its meter was quarantined before this
/// advance, or is quarantined by it — an armed fault or a panicking cohort
/// fold, whose meters are named in `newly_quarantined`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetTickReport {
    /// Samples offered to the advance.
    pub samples: usize,
    /// Samples folded into healthy meters.
    pub applied: usize,
    /// Samples discarded because their meter is quarantined (including, for
    /// a meter quarantined by this advance, all of its samples in it).
    pub dropped: usize,
    /// Meters quarantined by this advance, with the panic message that
    /// condemned them, in meter-id order. The reason is shared (`Arc`)
    /// with the fleet's quarantine map, not cloned per consumer.
    pub newly_quarantined: Vec<(MeterId, Arc<str>)>,
}

impl FleetTickReport {
    /// Merge another report into this one (used when a window degrades to
    /// per-frame ticks).
    fn absorb(&mut self, other: FleetTickReport) {
        self.samples += other.samples;
        self.applied += other.applied;
        self.dropped += other.dropped;
        self.newly_quarantined.extend(other.newly_quarantined);
    }
}

/// Operating statistics of a [`MeterFleet`] — the `BENCH_fleet.json`
/// ingredients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetStats {
    /// Registered meters.
    pub meters: usize,
    /// Live shards.
    pub shards: usize,
    /// Cohorts across all shards: meters that advance in lockstep share
    /// one, so a shard whose meters all fold every frame holds one.
    pub cohorts: usize,
    /// Distinct compiled kernels (one per distinct contract).
    pub contracts: usize,
    /// Registrations and delta moves that reused an existing kernel.
    pub kernel_hits: u64,
    /// Registrations and delta moves that had to compile a kernel.
    pub kernel_misses: u64,
    /// Advances (ticks, frames and windows) that reused the cached scatter
    /// plan.
    pub plan_hits: u64,
    /// Scatter plan builds (first advance, population changes, new frame
    /// shapes).
    pub plan_builds: u64,
    /// Mean accrual state size per meter, in bytes: the cohorts' shared
    /// state spread over their members plus every per-meter column
    /// (excludes the shared kernels — that is the point of sharding).
    pub bytes_per_meter: f64,
    /// Ticks advanced so far.
    pub ticks: u64,
    /// Wall-clock seconds spent inside tick/frame/window advances.
    pub tick_seconds: f64,
    /// Samples folded across all ticks.
    pub samples: u64,
    /// `samples / tick_seconds` — the fleet's streaming throughput.
    pub meter_samples_per_sec: f64,
}

impl FleetStats {
    /// Fraction of kernel lookups served by an already-compiled kernel.
    pub fn kernel_reuse_rate(&self) -> f64 {
        let total = self.kernel_hits + self.kernel_misses;
        if total == 0 {
            0.0
        } else {
            self.kernel_hits as f64 / total as f64
        }
    }

    /// Fraction of advances served by the cached scatter plan.
    pub fn plan_reuse_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_builds;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// One worker's fold outcome: `(applied, dropped, quarantined)`.
type ShardOutcome = (usize, usize, Vec<(MeterId, Arc<str>)>);

/// A sharded fleet of streaming meters over one calendar and compile
/// horizon.
///
/// ```
/// use hpcgrid_core::fleet::{MeterFleet, Sample};
/// use hpcgrid_core::contract::Contract;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
///
/// let contract = Contract::builder("flat")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let mut fleet = MeterFleet::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(30));
/// let step = Duration::from_minutes(15.0);
/// let a = fleet.register(&contract, SimTime::EPOCH, step)?;
/// let b = fleet.register(&contract, SimTime::EPOCH, step)?; // shares a's kernel
/// for _ in 0..96 {
///     fleet.advance_tick(&[
///         Sample { meter: a, power: Power::from_megawatts(8.0) },
///         Sample { meter: b, power: Power::from_megawatts(5.0) },
///     ])?;
/// }
/// let bill = fleet.finalize(a)?;
/// assert!(bill.total().as_dollars() > 0.0);
/// assert_eq!(fleet.stats().contracts, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MeterFleet {
    /// One compiled kernel per distinct contract, shared by `Arc` across
    /// shards (and, via [`MeterFleet::kernel_cache`], with sweep drivers).
    kernels: KernelCache,
    /// Max sub-shards per distinct contract.
    shards_per_contract: usize,
    /// Shard indexes per kernel fingerprint, in creation order.
    shard_index: HashMap<u64, Vec<usize>>,
    /// Round-robin counters per kernel fingerprint.
    rr: HashMap<u64, usize>,
    shards: Vec<Shard>,
    /// `meter id -> slot`.
    directory: Vec<Slot>,
    /// `meter id -> panic message` of meters retired by a panicking fold.
    /// Quarantined meters drop their samples and refuse `finalize` /
    /// `snapshot`; [`MeterFleet::restore`] rehabilitates them. Reasons are
    /// `Arc`-shared with the tick reports that minted them.
    quarantined: HashMap<usize, Arc<str>>,
    /// Monotone population version: bumped by anything that moves meters
    /// between shards or cohorts, or changes quarantine membership. A
    /// `ScatterPlan` is valid only while its version matches.
    pop_version: u64,
    /// The cached scatter plan of the most recent frame shape.
    plan: Option<ScatterPlan>,
    plan_hits: u64,
    plan_builds: u64,
    ticks: u64,
    tick_nanos: u128,
    samples: u64,
}

impl MeterFleet {
    /// An empty fleet billing under `calendar` for loads inside
    /// `[start, end)`, with one shard per contract for each unit of the
    /// machine's available parallelism.
    pub fn new(calendar: Calendar, start: SimTime, end: SimTime) -> MeterFleet {
        let shards = hpcgrid_timeseries::par::default_threads(usize::MAX);
        MeterFleet::with_shards(calendar, start, end, shards)
    }

    /// Like [`MeterFleet::new`] with an explicit shards-per-contract count
    /// (clamped to at least 1). Shard count never affects bills — only how
    /// ticks spread across the worker pool.
    pub fn with_shards(
        calendar: Calendar,
        start: SimTime,
        end: SimTime,
        shards_per_contract: usize,
    ) -> MeterFleet {
        MeterFleet {
            kernels: KernelCache::new(calendar, start, end),
            shards_per_contract: shards_per_contract.max(1),
            shard_index: HashMap::new(),
            rr: HashMap::new(),
            shards: Vec::new(),
            directory: Vec::new(),
            quarantined: HashMap::new(),
            pop_version: 0,
            plan: None,
            plan_hits: 0,
            plan_builds: 0,
            ticks: 0,
            tick_nanos: 0,
            samples: 0,
        }
    }

    /// The fleet's compile horizon.
    pub fn horizon(&self) -> (SimTime, SimTime) {
        self.kernels.horizon()
    }

    /// The fleet's kernel cache — peek at compiled kernels (e.g. to stock a
    /// sweep's `SharedInputs` registry with the same `Arc`s the fleet
    /// bills through).
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.kernels
    }

    /// Registered meter count.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True if no meters are registered.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Register a meter under `contract`, streaming from `start` at
    /// interval `step`. Compiles the contract's kernel at most once per
    /// distinct contract — subsequent registrations share it by `Arc`.
    pub fn register(
        &mut self,
        contract: &Contract,
        start: SimTime,
        step: Duration,
    ) -> Result<MeterId> {
        let kernel = self.kernels.get_or_compile(contract)?;
        self.add_meter(kernel, start, step)
    }

    /// Register a meter against an already-compiled kernel — for a caller
    /// that compiled (or patched) the kernel itself. The kernel must share
    /// the fleet's horizon.
    pub fn register_compiled(
        &mut self,
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
    ) -> Result<MeterId> {
        let (start_h, end_h) = self.kernels.horizon();
        if kernel.horizon() != (start_h, end_h) {
            return Err(CoreError::BadSeries(format!(
                "kernel horizon {:?} does not match the fleet horizon [{start_h}, {end_h})",
                kernel.horizon(),
            )));
        }
        let kernel = self.kernels.get_or_insert(kernel)?;
        self.add_meter(kernel, start, step)
    }

    /// Start a fresh meter on one of its kernel's sub-shards: a new lane of
    /// the shard's newest cohort when that cohort has not folded anything
    /// yet under the same geometry, a cohort of its own otherwise.
    fn add_meter(
        &mut self,
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
    ) -> Result<MeterId> {
        let mut fresh = Cohort::new(&kernel, start, step, &IntervalSet::empty())?;
        let id = MeterId(self.directory.len());
        let shard = self.shard_for(kernel);
        let state = lock_mut(&mut self.shards[shard].state);
        let newest = state.groups.len().saturating_sub(1);
        let slot = match state.groups.last_mut() {
            Some(last) if last.cohort.joins(&fresh) => {
                last.cohort.push_member();
                last.ids.push(id);
                slot(shard, newest, last.ids.len() - 1)
            }
            _ => {
                fresh.push_member();
                state.groups.push(Group {
                    ids: vec![id],
                    cohort: fresh,
                });
                slot(shard, state.groups.len() - 1, 0)
            }
        };
        self.directory.push(slot);
        self.pop_version += 1;
        Ok(id)
    }

    /// Round-robin a placement across `kernel`'s sub-shards, creating
    /// sub-shards lazily up to the per-contract cap.
    fn shard_for(&mut self, kernel: Arc<CompiledContract>) -> usize {
        let fp = kernel.fingerprint().0;
        let list = self.shard_index.entry(fp).or_default();
        if list.len() < self.shards_per_contract {
            let idx = self.shards.len();
            self.shards.push(Shard {
                fingerprint: fp,
                kernel,
                state: Mutex::new(ShardState::default()),
            });
            list.push(idx);
            idx
        } else {
            let rr = self.rr.entry(fp).or_insert(0);
            let idx = list[*rr % list.len()];
            *rr += 1;
            idx
        }
    }

    /// Add `group` to `shard` as a cohort of its own; the next plan build
    /// merges it with any cohort it joins.
    fn add_group(&mut self, shard: usize, group: Group) {
        let state = lock_mut(&mut self.shards[shard].state);
        let g = state.groups.len();
        for (lane, id) in group.ids.iter().enumerate() {
            self.directory[id.0] = slot(shard, g, lane);
        }
        state.groups.push(group);
    }

    /// Take the meter at `at` out of its cohort, patching the directory
    /// entries of whatever moves into the vacated lane and cohort slot.
    fn remove_lane(&mut self, at: Slot) {
        let (shard, g, lane) = (at.shard as usize, at.group as usize, at.lane as usize);
        let state = lock_mut(&mut self.shards[shard].state);
        let group = &mut state.groups[g];
        group.cohort.swap_remove(lane);
        group.ids.swap_remove(lane);
        if let Some(moved) = group.ids.get(lane) {
            self.directory[moved.0].lane = lane as u32;
        }
        if group.ids.is_empty() {
            state.groups.swap_remove(g);
            if let Some(moved) = state.groups.get(g) {
                for (lane, id) in moved.ids.iter().enumerate() {
                    self.directory[id.0] = slot(shard, g, lane);
                }
            }
        }
    }

    /// Advance the fleet by one tick of AoS samples:
    /// [`TickFrame::from_samples`], then [`MeterFleet::advance_frame`].
    /// Each call transposes into a fresh id lane, so reusing the cached
    /// plan costs a lane compare; drivers that publish frames sharing one
    /// `Arc`'d id lane skip even that.
    pub fn advance_tick(&mut self, samples: &[Sample]) -> Result<FleetTickReport> {
        self.advance_frame(&TickFrame::from_samples(samples))
    }

    /// Advance the fleet by one columnar [`TickFrame`]: resolve the frame
    /// against the population through the cached `ScatterPlan`, then fold
    /// every shard's cohorts in parallel, each as a block one tick wide.
    /// On the steady state (same id lane, unchanged population) no
    /// directory or quarantine probes happen at all, and shard workers
    /// gather the power lane directly through the plan. A meter absent
    /// from the frame simply lags — it keeps its own clock, in a cohort of
    /// the meters that lag with it. Samples for the same meter fold in
    /// frame order.
    ///
    /// The plan resolves the whole id lane before anything folds, so a
    /// frame naming an unknown meter errors without applying any sample.
    ///
    /// The fleet degrades instead of dying (see the module's failure
    /// model): an armed fault quarantines its one meter and drops its
    /// samples, a fold that *panics* quarantines its whole cohort, every
    /// other meter folds normally, and the casualties are reported in
    /// [`FleetTickReport::newly_quarantined`]. Subsequent advances drop the
    /// quarantined meters' samples through the rebuilt plan until
    /// [`MeterFleet::restore`] rehabilitates them from a known-good
    /// snapshot. Typed errors (grid misuse, horizon overrun) still fail
    /// the advance.
    pub fn advance_frame(&mut self, frame: &TickFrame) -> Result<FleetTickReport> {
        self.advance_block(std::slice::from_ref(frame))
    }

    /// Advance the fleet by a whole window of frames in one fused pass —
    /// semantically identical to calling [`MeterFleet::advance_frame`]
    /// once per frame in order, but each cohort folds the window as one
    /// block, so cursor state stays hot and `catch_unwind` is paid once
    /// per cohort tile, not per sample.
    ///
    /// The fused pass needs one scatter plan for the whole window: every
    /// frame must carry the same meter-id lane (share it by `Arc` to make
    /// the check a pointer compare). Windows that don't qualify degrade
    /// gracefully to per-frame advances — same bills, same report, just
    /// without the fusion win.
    ///
    /// A meter armed with a fault loses its whole window; a cohort whose
    /// fold panics loses its members' whole window. Every other meter
    /// still folds its full window.
    pub fn advance_window(&mut self, frames: &[TickFrame]) -> Result<FleetTickReport> {
        let (first, rest) = match frames.split_first() {
            None => return Ok(FleetTickReport::default()),
            Some(split) => split,
        };
        let homogeneous = rest
            .iter()
            .all(|f| Arc::ptr_eq(&f.meters, &first.meters) || f.meters[..] == first.meters[..]);
        if homogeneous {
            return self.advance_block(frames);
        }
        let mut report = FleetTickReport::default();
        for frame in frames {
            report.absorb(self.advance_frame(frame)?);
        }
        report.newly_quarantined.sort_by_key(|(id, _)| *id);
        Ok(report)
    }

    /// The one fleet advance: frames sharing one id lane, folded as one
    /// block per planned cohort.
    fn advance_block(&mut self, frames: &[TickFrame]) -> Result<FleetTickReport> {
        let t0 = Instant::now();
        self.ensure_plan(&frames[0].meters)?;
        let mut report;
        let worked;
        {
            let plan = self.plan.as_ref().expect("plan was just ensured");
            report = FleetTickReport {
                samples: frames[0].len() * frames.len(),
                dropped: plan.dropped_per_tick * frames.len(),
                ..FleetTickReport::default()
            };
            let shards = &self.shards;
            worked = try_par_map(&plan.tasks, |task| {
                advance_task(shards, plan, &plan.work[task.clone()], frames)
            })
            .map_err(|e| CoreError::BatchPanic(e.to_string()))?;
        }
        self.absorb_outcomes(&mut report, worked)?;
        self.ticks += frames.len() as u64;
        self.samples += report.applied as u64;
        self.tick_nanos += t0.elapsed().as_nanos();
        Ok(report)
    }

    /// Reuse the cached scatter plan when it matches `meters` and the
    /// current population; rebuild it otherwise.
    fn ensure_plan(&mut self, meters: &Arc<[MeterId]>) -> Result<()> {
        if let Some(p) = &self.plan {
            if p.version == self.pop_version
                && (Arc::ptr_eq(&p.meters, meters) || p.meters[..] == meters[..])
            {
                self.plan_hits += 1;
                return Ok(());
            }
        }
        let plan = self.build_plan(meters)?;
        self.plan = Some(plan);
        self.plan_builds += 1;
        Ok(())
    }

    /// Resolve one frame shape against the current population: count each
    /// meter's appearances (quarantined ones are dropped from the plan, so
    /// the steady-state advance never probes the quarantine map), reshape
    /// every shard's cohorts for that shape, then lay out each folding
    /// cohort's frame positions in lane order.
    fn build_plan(&mut self, meters: &Arc<[MeterId]>) -> Result<ScatterPlan> {
        if meters.len() > u32::MAX as usize {
            return Err(CoreError::BadSeries(format!(
                "tick frame of {} samples exceeds the plan's u32 position space",
                meters.len()
            )));
        }
        let mut count = vec![0u32; self.directory.len()];
        let mut dropped_per_tick = 0usize;
        for m in meters.iter() {
            if m.0 >= self.directory.len() {
                return Err(CoreError::BadSeries(format!("unknown {m}")));
            }
            if !self.quarantined.is_empty() && self.quarantined.contains_key(&m.0) {
                dropped_per_tick += 1;
            } else {
                count[m.0] += 1;
            }
        }
        for (s, shard) in self.shards.iter_mut().enumerate() {
            reshape(s, shard, &mut self.directory, &self.quarantined, &count);
        }
        // Each meter's frame positions: the first in `first`, and for
        // meters named more than once, all of them (in frame order) in
        // `repeats`, sorted by meter.
        let mut first = vec![0u32; self.directory.len()];
        let mut repeats: Vec<(usize, u32)> = Vec::new();
        for (pos, m) in meters.iter().enumerate() {
            match count[m.0] {
                0 => {}
                1 => first[m.0] = pos as u32,
                _ => repeats.push((m.0, pos as u32)),
            }
        }
        repeats.sort_by_key(|&(m, _)| m);
        let mut work = Vec::new();
        let mut groups = Vec::new();
        let mut positions = Vec::with_capacity(meters.len() - dropped_per_tick);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let lo = groups.len();
            for (g, group) in lock_mut(&mut shard.state).groups.iter().enumerate() {
                let per_frame = count[group.ids[0].0] as usize;
                if per_frame == 0 {
                    continue;
                }
                let p0 = positions.len();
                if per_frame == 1 {
                    positions.extend(group.ids.iter().map(|id| first[id.0]));
                } else {
                    let m = group.ids[0].0;
                    let at = repeats.partition_point(|&(r, _)| r < m);
                    positions.extend(repeats[at..at + per_frame].iter().map(|&(_, p)| p));
                }
                groups.push(PlanGroup {
                    group: g,
                    per_frame,
                    positions: p0..positions.len(),
                });
            }
            if groups.len() > lo {
                work.push((s, lo..groups.len()));
            }
        }
        let per_task = work.len().div_ceil(default_threads(work.len()));
        let tasks = (0..work.len())
            .step_by(per_task.max(1))
            .map(|lo| lo..(lo + per_task).min(work.len()))
            .collect();
        Ok(ScatterPlan {
            version: self.pop_version,
            meters: Arc::clone(meters),
            work,
            tasks,
            groups,
            positions,
            dropped_per_tick,
        })
    }

    /// Aggregate per-shard fold outcomes into `report` and quarantine the
    /// casualties (bumping the population version so the scatter plan
    /// drops them at rebuild).
    fn absorb_outcomes(
        &mut self,
        report: &mut FleetTickReport,
        worked: Vec<Result<ShardOutcome>>,
    ) -> Result<()> {
        for outcome in worked {
            let (applied, dropped, panicked) = outcome?;
            report.applied += applied;
            report.dropped += dropped;
            report.newly_quarantined.extend(panicked);
        }
        report.newly_quarantined.sort_by_key(|(id, _)| *id);
        if !report.newly_quarantined.is_empty() {
            for (id, reason) in &report.newly_quarantined {
                self.quarantined.insert(id.0, Arc::clone(reason));
            }
            self.pop_version += 1;
        }
        Ok(())
    }

    /// Close the books of one meter — bit-identical to the batch bill of
    /// its pushed history (see the [`crate::accrual`] invariant). Errors
    /// with [`CoreError::Quarantined`] for a quarantined meter: its state
    /// died mid-fold and is not trustworthy.
    pub fn finalize(&self, meter: MeterId) -> Result<Bill> {
        self.check_quarantine(meter)?;
        let at = self.locate(meter)?;
        let shard = &self.shards[at.shard as usize];
        lock(&shard.state).groups[at.group as usize]
            .cohort
            .finalize(&shard.kernel, at.lane as usize)
    }

    /// Close the books of every *healthy* meter, in parallel, returned in
    /// meter-id order. Quarantined meters are skipped — inspect
    /// [`MeterFleet::quarantined`] to account for them.
    pub fn finalize_all(&self) -> Result<Vec<(MeterId, Bill)>> {
        let quarantined = &self.quarantined;
        let per_shard = try_par_map(&self.shards, |shard| -> Result<Vec<(MeterId, Bill)>> {
            let state = lock(&shard.state);
            let mut bills = Vec::new();
            for group in &state.groups {
                for (lane, id) in group.ids.iter().enumerate() {
                    if !quarantined.contains_key(&id.0) {
                        bills.push((*id, group.cohort.finalize(&shard.kernel, lane)?));
                    }
                }
            }
            Ok(bills)
        })
        .map_err(|e| CoreError::BatchPanic(e.to_string()))?;
        let mut bills: Vec<(MeterId, Bill)> =
            Vec::with_capacity(self.directory.len() - quarantined.len());
        for part in per_shard {
            bills.extend(part?);
        }
        bills.sort_by_key(|(id, _)| *id);
        Ok(bills)
    }

    /// Serialize one meter's accrual state for checkpointing. Errors with
    /// [`CoreError::Quarantined`] for a quarantined meter — a snapshot of a
    /// half-folded accrual must never reach a checkpoint.
    pub fn snapshot(&self, meter: MeterId) -> Result<AccrualSnapshot> {
        self.check_quarantine(meter)?;
        let at = self.locate(meter)?;
        Ok(self.snapshot_at(at))
    }

    fn snapshot_at(&self, at: Slot) -> AccrualSnapshot {
        let shard = &self.shards[at.shard as usize];
        lock(&shard.state).groups[at.group as usize]
            .cohort
            .snapshot(&shard.kernel, at.lane as usize)
    }

    /// Snapshot every healthy meter in meter-id order — the payload of a
    /// [`FleetCheckpoint`]. Quarantined meters are excluded by
    /// construction, so a checkpoint only ever holds trustworthy state.
    pub fn snapshot_all(&self) -> Vec<(u64, AccrualSnapshot)> {
        (0..self.directory.len())
            .filter(|id| !self.quarantined.contains_key(id))
            .map(|id| (id as u64, self.snapshot_at(self.directory[id])))
            .collect()
    }

    /// Restore one meter's accrual state from a snapshot taken against the
    /// same contract (validated by kernel fingerprint). The restored meter
    /// continues streaming bit-identically to the original, in a cohort of
    /// its own until the next plan build merges it with any cohort whose
    /// clock it shares. Restoring a quarantined meter rehabilitates it —
    /// the snapshot replaces the untrustworthy state wholesale — and
    /// restoring disarms a pending chaos fault.
    pub fn restore(&mut self, meter: MeterId, snap: &AccrualSnapshot) -> Result<()> {
        let at = self.locate(meter)?;
        let shard = at.shard as usize;
        let cohort = Cohort::restore(&self.shards[shard].kernel, snap)?;
        lock_mut(&mut self.shards[shard].state)
            .armed
            .retain(|&id| id != meter);
        self.remove_lane(at);
        self.add_group(
            shard,
            Group {
                ids: vec![meter],
                cohort,
            },
        );
        self.quarantined.remove(&meter.0);
        self.pop_version += 1;
        Ok(())
    }

    /// Restore every meter recorded in `ckpt` (rehabilitating quarantined
    /// ones) and adopt the checkpoint's tick count. Returns the number of
    /// meters restored. Meters registered after the checkpoint was taken
    /// are left untouched.
    pub fn restore_checkpoint(&mut self, ckpt: &FleetCheckpoint) -> Result<usize> {
        for (id, snap) in &ckpt.meters {
            self.restore(MeterId(*id as usize), snap)?;
        }
        self.ticks = ckpt.ticks;
        Ok(ckpt.meters.len())
    }

    /// Meters currently quarantined, with the panic message that condemned
    /// each, in meter-id order. Reasons are shared `Arc`s, not copies.
    pub fn quarantined(&self) -> Vec<(MeterId, Arc<str>)> {
        let mut out: Vec<(MeterId, Arc<str>)> = self
            .quarantined
            .iter()
            .map(|(id, reason)| (MeterId(*id), Arc::clone(reason)))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// True if `meter` is quarantined.
    pub fn is_quarantined(&self, meter: MeterId) -> bool {
        self.quarantined.contains_key(&meter.0)
    }

    /// Arm a one-shot injected fault on `meter`'s next fold — the chaos
    /// hook behind the fleet degradation tests: the fold drops the meter's
    /// samples and quarantines it with an "injected meter panic" reason.
    /// Test-only plumbing.
    #[doc(hidden)]
    pub fn chaos_poison_meter(&mut self, meter: MeterId) -> Result<()> {
        let at = self.locate(meter)?;
        lock_mut(&mut self.shards[at.shard as usize].state)
            .armed
            .push(meter);
        // The next plan build gives the meter a cohort of its own, so the
        // fault can pull it out of the block fold.
        self.pop_version += 1;
        Ok(())
    }

    fn check_quarantine(&self, meter: MeterId) -> Result<()> {
        match self.quarantined.get(&meter.0) {
            Some(reason) => Err(CoreError::Quarantined(format!("{meter}: {reason}"))),
            None => Ok(()),
        }
    }

    /// Patch one meter's contract mid-stream and move it to the patched
    /// kernel's shard group. The accrual continues without replaying
    /// history, so only accrual-preserving deltas are accepted — see
    /// [`BillAccrual::rebind`](crate::accrual::BillAccrual::rebind) for the
    /// exact rules. On error the meter is left untouched on its current
    /// kernel.
    pub fn apply_delta(&mut self, meter: MeterId, delta: &ContractDelta) -> Result<()> {
        let at = self.locate(meter)?;
        let shard = at.shard as usize;
        let old_fp = self.shards[shard].fingerprint;
        let patched = self.shards[shard].kernel.patch(delta)?;
        if patched.fingerprint().0 == old_fp {
            return Ok(()); // delta was a no-op; kernel content unchanged
        }
        let kernel = self.kernels.get_or_insert(Arc::new(patched))?;
        // Rebind a copy first: if the delta is not accrual-preserving this
        // fails and the meter stays where it is.
        let (one, armed) = {
            let sh = &mut self.shards[shard];
            let state = lock_mut(&mut sh.state);
            let mut one = state.groups[at.group as usize]
                .cohort
                .select(&[at.lane as usize]);
            one.rebind(&sh.kernel, &kernel)?;
            let armed = state.armed.contains(&meter);
            state.armed.retain(|&id| id != meter);
            (one, armed)
        };
        self.remove_lane(at);
        let new_shard = self.shard_for(kernel);
        self.add_group(
            new_shard,
            Group {
                ids: vec![meter],
                cohort: one,
            },
        );
        if armed {
            lock_mut(&mut self.shards[new_shard].state)
                .armed
                .push(meter);
        }
        // Directory entries moved; cached scatter plans are stale.
        self.pop_version += 1;
        Ok(())
    }

    /// Apply a contract-ledger event to a live meter: the fleet-side hook a
    /// ledger driver calls when a renegotiation lands, so a
    /// [`LedgerEvent`] re-shards live meters through the existing
    /// [`MeterFleet::apply_delta`] patch path (the meter's kernel is
    /// patched, its accrual rebound, and the meter moves to the shard of
    /// the revised fingerprint — a no-op if the event does not change the
    /// kernel). `Created` events describe meters that do not exist yet —
    /// register those with [`MeterFleet::register`] instead.
    ///
    /// The delta must be accrual-preserving (the
    /// [`BillAccrual::rebind`](crate::accrual::BillAccrual::rebind) rules);
    /// events that would re-price history are rejected and the meter stays
    /// where it is — close its books and re-register to take such a
    /// revision mid-stream, or bill the horizon through
    /// [`ContractLedger::bill_as_of`](crate::ledger::ContractLedger::bill_as_of).
    pub fn apply_event(&mut self, meter: MeterId, event: &LedgerEvent) -> Result<()> {
        match &event.payload {
            EventPayload::Delta(delta) => self.apply_delta(meter, delta),
            EventPayload::Created(_) => Err(CoreError::Ledger(format!(
                "a created event opens a new stream; register a meter for it \
                 instead of applying it to live {meter}"
            ))),
        }
    }

    /// Operating statistics: meter and cohort counts, memory per meter,
    /// kernel and scatter-plan reuse, and streaming throughput.
    pub fn stats(&self) -> FleetStats {
        let mut bytes: usize = 0;
        let mut cohorts = 0usize;
        for shard in &self.shards {
            let mut state = lock(&shard.state);
            cohorts += state.groups.len();
            for group in &mut state.groups {
                bytes += group.cohort.approx_bytes()
                    + group.ids.capacity() * std::mem::size_of::<MeterId>();
            }
        }
        let meters = self.directory.len();
        let secs = self.tick_nanos as f64 / 1e9;
        FleetStats {
            meters,
            shards: self.shards.len(),
            cohorts,
            contracts: self.kernels.len(),
            kernel_hits: self.kernels.hits(),
            kernel_misses: self.kernels.misses(),
            plan_hits: self.plan_hits,
            plan_builds: self.plan_builds,
            bytes_per_meter: if meters == 0 {
                0.0
            } else {
                bytes as f64 / meters as f64
            },
            ticks: self.ticks,
            tick_seconds: secs,
            samples: self.samples,
            meter_samples_per_sec: if secs > 0.0 {
                self.samples as f64 / secs
            } else {
                0.0
            },
        }
    }

    fn locate(&self, meter: MeterId) -> Result<Slot> {
        self.directory
            .get(meter.0)
            .copied()
            .ok_or_else(|| CoreError::BadSeries(format!("unknown {}", meter)))
    }
}

fn slot(shard: usize, group: usize, lane: usize) -> Slot {
    Slot {
        shard: shard as u32,
        group: group as u32,
        lane: lane as u32,
    }
}

/// Regroup one shard's cohorts for a frame shape (`count`: appearances per
/// meter id, zero for absent and quarantined meters): cohorts with equal
/// clocks merge, and each merged cohort splits into the members the frame
/// names once (they fold together), the members it omits (they lag
/// together), and a cohort of one for every member that cannot fold with
/// the others — named more than once, armed with a fault, or quarantined.
/// The directory follows every member that moves.
fn reshape(
    s: usize,
    shard: &mut Shard,
    directory: &mut [Slot],
    quarantined: &HashMap<usize, Arc<str>>,
    count: &[u32],
) {
    /// How a member takes part in the frame.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Part {
        Folds,
        Lags,
        Alone,
    }
    let state = lock_mut(&mut shard.state);
    let part = |id: MeterId| {
        let c = count[id.0];
        if c > 1
            || (c == 1 && !state.armed.is_empty() && state.armed.contains(&id))
            || (!quarantined.is_empty() && quarantined.contains_key(&id.0))
        {
            Part::Alone
        } else if c == 1 {
            Part::Folds
        } else {
            Part::Lags
        }
    };
    // Clock classes: the first cohort of each class represents it.
    let mut reps: Vec<usize> = Vec::new();
    let mut class = Vec::with_capacity(state.groups.len());
    for (g, group) in state.groups.iter().enumerate() {
        let c = reps
            .iter()
            .position(|&r| state.groups[r].cohort.joins(&group.cohort))
            .unwrap_or_else(|| {
                reps.push(g);
                reps.len() - 1
            });
        class.push(c);
    }
    // Target buckets — one per (class, part) for the members that fold or
    // lag together, one per lone member — each a list of (source cohort,
    // lanes) parts.
    let mut shared: Vec<((usize, Part), usize)> = Vec::new();
    let mut buckets: Vec<Vec<(usize, Vec<usize>)>> = Vec::new();
    for (g, group) in state.groups.iter().enumerate() {
        for (lane, &id) in group.ids.iter().enumerate() {
            let key = (class[g], part(id));
            let found = shared.iter().find(|(k, _)| *k == key).map(|&(_, b)| b);
            let b = match found {
                Some(b) if key.1 != Part::Alone => b,
                _ => {
                    buckets.push(Vec::new());
                    if key.1 != Part::Alone {
                        shared.push((key, buckets.len() - 1));
                    }
                    buckets.len() - 1
                }
            };
            match buckets[b].last_mut() {
                Some((src, lanes)) if *src == g => lanes.push(lane),
                _ => buckets[b].push((g, vec![lane])),
            }
        }
    }
    // Nothing to do when every bucket is exactly one whole cohort.
    let unchanged = buckets.len() == state.groups.len()
        && buckets.iter().all(|parts| {
            parts.len() == 1 && parts[0].1.len() == state.groups[parts[0].0].ids.len()
        });
    if unchanged {
        return;
    }
    let mut old: Vec<Option<Group>> = std::mem::take(&mut state.groups)
        .into_iter()
        .map(Some)
        .collect();
    for parts in buckets {
        let mut merged: Option<Group> = None;
        for (g, lanes) in parts {
            let whole = old[g]
                .as_ref()
                .is_some_and(|src| lanes.len() == src.ids.len());
            let piece = if whole {
                old[g].take().expect("a whole cohort moves once")
            } else {
                let src = old[g].as_ref().expect("split cohorts stay in place");
                Group {
                    ids: lanes.iter().map(|&l| src.ids[l]).collect(),
                    cohort: src.cohort.select(&lanes),
                }
            };
            match &mut merged {
                None => merged = Some(piece),
                Some(m) => {
                    m.ids.extend(piece.ids);
                    m.cohort.append(piece.cohort);
                }
            }
        }
        state.groups.extend(merged);
    }
    for (g, group) in state.groups.iter().enumerate() {
        for (lane, id) in group.ids.iter().enumerate() {
            directory[id.0] = slot(s, g, lane);
        }
    }
}

/// One worker's part of an advance: fold the planned cohorts of its shards
/// (`work`), pulling armed meters out first and quarantining the whole
/// cohort of a fold that panics. Cohorts fold tile by tile, tile-major
/// across the worker's shards, so the shards' gathers from the same
/// stretch of the frames share its cache lines.
fn advance_task(
    shards: &[Shard],
    plan: &ScatterPlan,
    work: &[(usize, Range<usize>)],
    frames: &[TickFrame],
) -> Result<ShardOutcome> {
    /// A planned cohort part-way through its block.
    struct Folding<'p> {
        state: usize,
        plan: &'p PlanGroup,
        tiles: Tiles,
        len: usize,
        samples: usize,
    }
    let mut states: Vec<_> = work.iter().map(|(s, _)| lock(&shards[*s].state)).collect();
    let (mut applied, mut dropped) = (0usize, 0usize);
    let mut panicked: Vec<(MeterId, Arc<str>)> = Vec::new();
    let mut overrun: Option<CoreError> = None;
    let mut folding = Vec::new();
    for (i, (s, groups)) in work.iter().enumerate() {
        let ShardState {
            groups: cohorts,
            armed,
            ..
        } = &mut *states[i];
        // Injected faults: checked once per shard per advance. The plan
        // put every armed meter in a cohort of its own.
        let mut check_armed = !armed.is_empty();
        for pg in &plan.groups[groups.clone()] {
            let group = &cohorts[pg.group];
            let per_meter = pg.per_frame * frames.len();
            let samples = group.ids.len() * per_meter;
            if check_armed {
                if let Some(a) = armed.iter().position(|id| group.ids[..] == [*id]) {
                    armed.swap_remove(a);
                    check_armed = !armed.is_empty();
                    dropped += samples;
                    panicked.push((group.ids[0], Arc::from(INJECTED_PANIC)));
                    continue;
                }
            }
            // A block running past the horizon folds its fitting prefix,
            // then fails the advance.
            let len = group.cohort.fit(&shards[*s].kernel, per_meter);
            if len < per_meter && overrun.is_none() {
                overrun = Some(group.cohort.overrun(&shards[*s].kernel));
            }
            folding.push(Folding {
                state: i,
                plan: pg,
                tiles: group.cohort.tiles(len),
                len,
                samples,
            });
        }
    }
    while !folding.is_empty() {
        folding.retain_mut(|f| {
            let (s, _) = &work[f.state];
            let kernel = &shards[*s].kernel;
            let ShardState {
                groups: cohorts,
                scratch,
                ..
            } = &mut *states[f.state];
            let group = &mut cohorts[f.plan.group];
            let positions = &plan.positions[f.plan.positions.clone()];
            let folded = catch_unwind(AssertUnwindSafe(|| {
                group
                    .cohort
                    .fold_tile(kernel, &mut f.tiles, scratch, |lanes, buf| {
                        gather(frames, positions, f.plan.per_frame, lanes, f.len, buf)
                    })
            }));
            match folded {
                Ok(()) if f.tiles.done(&group.cohort) => {
                    applied += f.samples;
                    false
                }
                Ok(()) => true,
                Err(payload) => {
                    // The block fold interleaves members, so a panic
                    // leaves every member half-updated: the whole cohort
                    // goes.
                    let reason = panic_reason(payload);
                    dropped += f.samples;
                    panicked.extend(group.ids.iter().map(|id| (*id, Arc::clone(&reason))));
                    false
                }
            }
        });
    }
    match overrun {
        Some(e) => Err(e),
        None => Ok((applied, dropped, panicked)),
    }
}

/// Gather members `lanes`' first `len` samples from `frames` into `buf`,
/// meter-major: a member with `per_frame` positions per frame takes them
/// in frame order, frame by frame.
fn gather(
    frames: &[TickFrame],
    positions: &[u32],
    per_frame: usize,
    lanes: Range<usize>,
    len: usize,
    buf: &mut [f64],
) {
    if per_frame == 1 {
        let positions = &positions[lanes];
        for (j, frame) in frames[..len].iter().enumerate() {
            let powers = Power::kilowatts_slice(&frame.powers);
            for (i, &p) in positions.iter().enumerate() {
                buf[i * len + j] = powers[p as usize];
            }
        }
    } else {
        for (row, lane) in buf.chunks_exact_mut(len).zip(lanes) {
            let mine = &positions[lane * per_frame..(lane + 1) * per_frame];
            for (s, kw) in row.iter_mut().enumerate() {
                let frame = &frames[s / per_frame];
                *kw = frame.powers[mine[s % per_frame] as usize].as_kilowatts();
            }
        }
    }
}

/// Human-readable panic message out of a `catch_unwind` payload, shared
/// behind one `Arc` by the tick report and the quarantine map.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> Arc<str> {
    if let Some(s) = payload.downcast_ref::<&str>() {
        Arc::from(*s)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        Arc::from(s.as_str())
    } else {
        Arc::from("panic payload of unknown type")
    }
}

/// Lock a shard from a shared borrow (the parallel advance path). A
/// panicking fold is caught inside the lock and its cohort quarantined, so
/// poisoned locks are recovered.
fn lock(state: &Mutex<ShardState>) -> std::sync::MutexGuard<'_, ShardState> {
    state.lock().unwrap_or_else(|p| p.into_inner())
}

/// Lock a shard through `&mut` (registration, restore, deltas, plan
/// builds): no locking at all.
fn lock_mut(state: &mut Mutex<ShardState>) -> &mut ShardState {
    match state.get_mut() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tariff::Tariff;
    use hpcgrid_units::EnergyPrice;

    /// A genuine panic inside a cohort's block fold quarantines every
    /// member of that cohort — their state is half-updated — while the
    /// fleet's other cohorts fold on.
    #[test]
    fn panicking_block_fold_quarantines_its_whole_cohort() {
        let contract = |rate: f64| {
            Contract::builder("panic-radius")
                .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(rate)))
                .build()
                .unwrap()
        };
        let mut fleet = MeterFleet::with_shards(
            Calendar::default(),
            SimTime::EPOCH,
            SimTime::from_days(30),
            1,
        );
        let step = Duration::from_minutes(15.0);
        let ids: Vec<MeterId> = (0..6)
            .map(|i| {
                let c = contract(if i < 4 { 0.07 } else { 0.09 });
                fleet.register(&c, SimTime::EPOCH, step).unwrap()
            })
            .collect();
        let lane: Arc<[MeterId]> = ids.clone().into();
        let frame = TickFrame::new(Arc::clone(&lane), vec![Power::from_megawatts(2.0); 6]).unwrap();
        fleet.advance_frame(&frame).unwrap();
        assert_eq!(fleet.stats().cohorts, 2);
        // Corrupt the cached plan so the first cohort's gather reads past
        // the power lane.
        let plan = fleet.plan.as_mut().unwrap();
        plan.positions[0] = u32::MAX;
        let report = fleet.advance_frame(&frame).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.dropped, 4);
        let condemned: Vec<MeterId> = report.newly_quarantined.iter().map(|(id, _)| *id).collect();
        assert_eq!(condemned, ids[..4]);
        assert!(ids[4..].iter().all(|id| fleet.finalize(*id).is_ok()));
        assert!(matches!(
            fleet.finalize(ids[0]),
            Err(CoreError::Quarantined(_))
        ));
    }
}
