//! Sharded meter fleets: utility-scale streaming billing.
//!
//! A [`MeterFleet`] manages many [`BillAccrual`] meters at once, sharded by
//! contract fingerprint so every meter under the same contract shares one
//! `Arc`'d [`CompiledContract`] kernel. Every advance resolves its samples to shards through
//! a scatter plan and fans the shards across the `try_par_map` worker pool;
//! each shard is owned by exactly one task per advance, so the per-shard
//! locks never contend.
//!
//! # Hot-path data layout
//!
//! Ingest comes in two shapes, plus an adapter:
//!
//! * [`MeterFleet::advance_frame`] — one tick as a columnar [`TickFrame`]
//!   (SoA: a shared meter-id lane plus a contiguous power lane). The fleet
//!   resolves directory lookups, quarantine membership, and shard
//!   bucketing **once** into a cached `ScatterPlan` with prefix-sum
//!   bucket offsets; steady-state scatter is then a plan-indexed pull of
//!   the power lane, with no per-sample map probes and no per-sample
//!   locks.
//! * [`MeterFleet::advance_window`] — many frames at once. Each meter's
//!   samples across the window are gathered into one contiguous run and
//!   folded by a single [`BillAccrual::push_run`] call — segment cursors
//!   stay hot across the whole window and `catch_unwind` is paid once per
//!   meter-window instead of once per sample.
//! * [`MeterFleet::advance_tick`] — one tick of AoS [`Sample`]s, transposed
//!   by [`TickFrame::from_samples`] and advanced as a frame.
//!
//! The scatter plan is reused while the population is stable and
//! invalidated by anything that moves meters or changes quarantine
//! membership: [`MeterFleet::register`], [`MeterFleet::apply_delta`],
//! [`MeterFleet::restore`] of a quarantined meter, and in-tick panics.
//!
//! The fleet preserves the accrual layer's bit-identity invariant meter by
//! meter and *per ingest shape*: `finalize(meter)` equals the batch bill
//! of that meter's sample history under `Precision::BitExact`, regardless
//! of shard count, tick batching, or whether the samples arrived as AoS
//! ticks, frames, or fused windows. The shard count (default: available
//! parallelism; set it with [`MeterFleet::with_shards`]) is therefore pure
//! deployment tuning.

use crate::accrual::{AccrualSnapshot, BillAccrual};
use crate::billing::Bill;
use crate::checkpoint::FleetCheckpoint;
use crate::compiled::CompiledContract;
use crate::contract::{Contract, ContractDelta};
use crate::kernels::KernelCache;
use crate::ledger::{EventPayload, LedgerEvent};
use crate::{CoreError, Result};
use hpcgrid_timeseries::par::try_par_map;
use hpcgrid_units::{Calendar, Duration, Power, SimTime};
use serde::Serialize;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

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
/// population: every directory lookup, quarantine probe, and shard bucket
/// assignment done once, with prefix-sum offsets so each shard's pull is a
/// contiguous entry range.
#[derive(Debug)]
struct ScatterPlan {
    /// Fleet population version the plan was built against.
    version: u64,
    /// The frame meter-id lane the plan serves.
    meters: Arc<[MeterId]>,
    /// Per-shard entry ranges: shard `s` owns entries
    /// `[offsets[s], offsets[s+1])`.
    offsets: Vec<usize>,
    /// Entry → shard-local meter slot.
    slots: Vec<u32>,
    /// Entry → frame position (index into the power lane).
    positions: Vec<u32>,
    /// Frame positions dropped every tick because their meter is
    /// quarantined.
    dropped_per_tick: usize,
    /// True if no meter id appears twice in the frame — the precondition
    /// for fusing a window per meter (duplicates must fold in frame
    /// order, which per-meter fusion would reorder).
    unique: bool,
}

/// A group of meters sharing one compiled kernel, advanced by one worker
/// task per tick.
struct Shard {
    /// `CompiledContract::fingerprint().0` of the shard's kernel.
    fingerprint: u64,
    kernel: Arc<CompiledContract>,
    /// `(meter id, accrual)` — slot positions are tracked in the fleet
    /// directory and patched up on `swap_remove`. Locked once per advance
    /// per worker; `&mut self` paths use the lock-free `get_mut`.
    meters: ShardMeters,
}

/// What one fleet advance (tick, frame, or window) did with its samples.
///
/// Every offered sample lands in exactly one bucket: `applied` (folded into
/// a healthy meter), `dropped` (its meter was quarantined — before this
/// advance, or earlier in this advance by a panic), or the panicking sample
/// itself, which is counted in `dropped` *and* names its meter in
/// `newly_quarantined`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetTickReport {
    /// Samples offered to the advance.
    pub samples: usize,
    /// Samples folded into healthy meters.
    pub applied: usize,
    /// Samples discarded because their meter is quarantined (including the
    /// sample whose fold panicked and, for windows, the rest of that
    /// meter's window).
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
    /// Mean accrual state size per meter, in bytes (excludes the shared
    /// kernels — that is the point of sharding).
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

/// Per-shard fold outcome: `(applied, dropped, quarantined)`.
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
    /// `meter id -> (shard, slot)`.
    directory: Vec<(usize, usize)>,
    /// `meter id -> panic message` of meters retired by a panicking fold.
    /// Quarantined meters drop their samples and refuse `finalize` /
    /// `snapshot`; [`MeterFleet::restore`] rehabilitates them. Reasons are
    /// `Arc`-shared with the tick reports that minted them.
    quarantined: HashMap<usize, Arc<str>>,
    /// Monotone population version: bumped by anything that moves meters
    /// between shards or changes quarantine membership. A `ScatterPlan`
    /// is valid only while its version matches.
    pop_version: u64,
    /// The cached scatter plan of the most recent frame shape.
    plan: Option<ScatterPlan>,
    plan_hits: u64,
    plan_builds: u64,
    /// Epoch-stamped scratch for duplicate-meter detection during plan
    /// builds (meter id → last epoch seen), reused across rebuilds.
    stamp: Vec<u32>,
    stamp_epoch: u32,
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
            stamp: Vec::new(),
            stamp_epoch: 0,
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
    /// that compiled the kernel itself (for example at an explicit
    /// precision). The kernel must share the fleet's horizon.
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

    /// Place a fresh accrual on one of its kernel's sub-shards.
    fn add_meter(
        &mut self,
        kernel: Arc<CompiledContract>,
        start: SimTime,
        step: Duration,
    ) -> Result<MeterId> {
        let accrual = BillAccrual::new(Arc::clone(&kernel), start, step)?;
        let id = MeterId(self.directory.len());
        let (shard, slot) = self.place(kernel, accrual, id);
        self.directory.push((shard, slot));
        self.pop_version += 1;
        Ok(id)
    }

    /// Round-robin an accrual across its kernel's sub-shards, creating
    /// sub-shards lazily up to the per-contract cap.
    fn place(
        &mut self,
        kernel: Arc<CompiledContract>,
        accrual: BillAccrual,
        id: MeterId,
    ) -> (usize, usize) {
        let fp = kernel.fingerprint().0;
        let list = self.shard_index.entry(fp).or_default();
        let shard = if list.len() < self.shards_per_contract {
            let idx = self.shards.len();
            self.shards.push(Shard {
                fingerprint: fp,
                kernel,
                meters: Mutex::new(Vec::new()),
            });
            list.push(idx);
            idx
        } else {
            let rr = self.rr.entry(fp).or_insert(0);
            let idx = list[*rr % list.len()];
            *rr += 1;
            idx
        };
        let meters = lock_mut(&mut self.shards[shard].meters);
        meters.push((id, accrual));
        (shard, meters.len() - 1)
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
    /// every shard's bucket in parallel. On the steady state (same id
    /// lane, unchanged population) no directory or quarantine probes
    /// happen at all, and shard workers pull the power lane directly
    /// through the plan's prefix-sum buckets. A meter absent from the
    /// frame simply lags — its accrual keeps its own clock. Samples for the
    /// same meter fold in frame order.
    ///
    /// The plan resolves the whole id lane before anything folds, so a
    /// frame naming an unknown meter errors without applying any sample.
    ///
    /// The fleet degrades instead of dying: a fold that *panics* (a
    /// poisoned accrual, an injected fault) quarantines that one meter —
    /// its sample and the rest of its batch are dropped, every other meter
    /// folds normally, and the casualty is reported in
    /// [`FleetTickReport::newly_quarantined`]. Subsequent advances drop the
    /// quarantined meter's samples through the rebuilt plan until
    /// [`MeterFleet::restore`] rehabilitates it from a known-good snapshot.
    /// Typed errors (grid misuse, horizon overrun) still fail the advance.
    pub fn advance_frame(&mut self, frame: &TickFrame) -> Result<FleetTickReport> {
        let t0 = Instant::now();
        self.ensure_plan(&frame.meters)?;
        let mut report;
        let worked;
        {
            let plan = self.plan.as_ref().expect("plan was just ensured");
            report = FleetTickReport {
                samples: frame.len(),
                dropped: plan.dropped_per_tick,
                ..FleetTickReport::default()
            };
            let powers = frame.powers();
            let shards = &self.shards;
            let shard_ids: Vec<usize> = (0..shards.len()).collect();
            worked = try_par_map(&shard_ids, |&s| -> Result<ShardOutcome> {
                let meters = &mut *lock(&shards[s].meters);
                let (lo, hi) = (plan.offsets[s], plan.offsets[s + 1]);
                fold_shard(
                    meters,
                    plan.slots[lo..hi]
                        .iter()
                        .zip(&plan.positions[lo..hi])
                        .map(|(&slot, &pos)| (slot as usize, powers[pos as usize])),
                )
            })
            .map_err(|e| CoreError::BatchPanic(e.to_string()))?;
        }
        self.absorb_outcomes(&mut report, worked)?;
        self.ticks += 1;
        self.samples += report.applied as u64;
        self.tick_nanos += t0.elapsed().as_nanos();
        Ok(report)
    }

    /// Advance the fleet by a whole window of frames in one fused pass —
    /// semantically identical to calling [`MeterFleet::advance_frame`]
    /// once per frame in order, but each meter's window of samples is
    /// gathered into one contiguous run and folded by a single
    /// [`BillAccrual::push_run`], so cursor state stays hot and
    /// `catch_unwind` is paid once per meter-window.
    ///
    /// The fused pass needs one scatter plan for the whole window: every
    /// frame must carry the same meter-id lane (share it by `Arc` to make
    /// the check a pointer compare) with no duplicate meters. Windows that
    /// don't qualify degrade gracefully to per-frame advances — same
    /// bills, same report, just without the fusion win.
    ///
    /// A meter that panics mid-window is quarantined and the *rest of its
    /// window* is dropped; every other meter still folds its full window.
    pub fn advance_window(&mut self, frames: &[TickFrame]) -> Result<FleetTickReport> {
        let (first, rest) = match frames.split_first() {
            None => return Ok(FleetTickReport::default()),
            Some(split) => split,
        };
        if rest.is_empty() {
            return self.advance_frame(first);
        }
        let homogeneous = rest
            .iter()
            .all(|f| Arc::ptr_eq(&f.meters, &first.meters) || f.meters[..] == first.meters[..]);
        if homogeneous {
            self.ensure_plan(&first.meters)?;
            if self.plan.as_ref().is_some_and(|p| p.unique) {
                return self.advance_window_fused(frames);
            }
        }
        let mut report = FleetTickReport::default();
        for frame in frames {
            report.absorb(self.advance_frame(frame)?);
        }
        report.newly_quarantined.sort_by_key(|(id, _)| *id);
        Ok(report)
    }

    /// The fused window fold: one `push_run` per meter per window. The
    /// plan is already ensured, current, and duplicate-free.
    fn advance_window_fused(&mut self, frames: &[TickFrame]) -> Result<FleetTickReport> {
        let t0 = Instant::now();
        let w = frames.len();
        let mut report;
        let worked;
        {
            let plan = self.plan.as_ref().expect("plan ensured by advance_window");
            report = FleetTickReport {
                samples: frames[0].len() * w,
                dropped: plan.dropped_per_tick * w,
                ..FleetTickReport::default()
            };
            let shards = &self.shards;
            let shard_ids: Vec<usize> = (0..shards.len()).collect();
            worked = try_par_map(&shard_ids, |&s| -> Result<ShardOutcome> {
                let meters = &mut *lock(&shards[s].meters);
                let mut run: Vec<Power> = Vec::with_capacity(w);
                let mut applied = 0usize;
                let mut dropped = 0usize;
                let mut panicked: Vec<(MeterId, Arc<str>)> = Vec::new();
                for k in plan.offsets[s]..plan.offsets[s + 1] {
                    let slot = plan.slots[k] as usize;
                    let pos = plan.positions[k] as usize;
                    run.clear();
                    run.extend(frames.iter().map(|f| f.powers[pos]));
                    let (id, accrual) = &mut meters[slot];
                    let before = accrual.samples();
                    match catch_unwind(AssertUnwindSafe(|| accrual.push_run(&run))) {
                        Ok(pushed) => {
                            pushed?;
                            applied += w;
                        }
                        Err(payload) => {
                            // The fold got `done` samples in before dying;
                            // the rest of this meter's window is dropped.
                            let done = (accrual.samples() - before) as usize;
                            applied += done;
                            dropped += w - done;
                            panicked.push((*id, panic_reason(payload)));
                        }
                    }
                }
                Ok((applied, dropped, panicked))
            })
            .map_err(|e| CoreError::BatchPanic(e.to_string()))?;
        }
        self.absorb_outcomes(&mut report, worked)?;
        self.ticks += w as u64;
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

    /// Resolve one frame shape against the current population: two O(n)
    /// passes (bucket counts, then prefix-sum fill), with quarantine
    /// membership folded in (quarantined positions are dropped from the
    /// plan, so the steady-state tick never probes the quarantine map).
    fn build_plan(&mut self, meters: &Arc<[MeterId]>) -> Result<ScatterPlan> {
        if meters.len() > u32::MAX as usize {
            return Err(CoreError::BadSeries(format!(
                "tick frame of {} samples exceeds the plan's u32 position space",
                meters.len()
            )));
        }
        let nshards = self.shards.len();
        let mut counts = vec![0usize; nshards];
        let mut dropped_per_tick = 0usize;
        let check_quarantine = !self.quarantined.is_empty();
        for m in meters.iter() {
            let (shard, _) = *self
                .directory
                .get(m.0)
                .ok_or_else(|| CoreError::BadSeries(format!("unknown {}", m)))?;
            if check_quarantine && self.quarantined.contains_key(&m.0) {
                dropped_per_tick += 1;
                continue;
            }
            counts[shard] += 1;
        }
        let mut offsets = vec![0usize; nshards + 1];
        for s in 0..nshards {
            offsets[s + 1] = offsets[s] + counts[s];
        }
        let total = offsets[nshards];
        let mut slots = vec![0u32; total];
        let mut positions = vec![0u32; total];
        let mut cursor = offsets.clone();
        // Epoch-stamped duplicate detection: one u32 store per meter, no
        // clearing between rebuilds.
        self.stamp_epoch = self.stamp_epoch.wrapping_add(1);
        if self.stamp_epoch == 0 {
            self.stamp.clear();
            self.stamp_epoch = 1;
        }
        if self.stamp.len() < self.directory.len() {
            self.stamp.resize(self.directory.len(), 0);
        }
        let mut unique = true;
        for (pos, m) in meters.iter().enumerate() {
            if check_quarantine && self.quarantined.contains_key(&m.0) {
                continue;
            }
            let (shard, slot) = self.directory[m.0];
            if self.stamp[m.0] == self.stamp_epoch {
                unique = false;
            } else {
                self.stamp[m.0] = self.stamp_epoch;
            }
            let k = cursor[shard];
            slots[k] = slot as u32;
            positions[k] = pos as u32;
            cursor[shard] += 1;
        }
        Ok(ScatterPlan {
            version: self.pop_version,
            meters: Arc::clone(meters),
            offsets,
            slots,
            positions,
            dropped_per_tick,
            unique,
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
    /// with [`CoreError::Quarantined`] for a quarantined meter: its accrual
    /// died mid-fold and its state is not trustworthy.
    pub fn finalize(&self, meter: MeterId) -> Result<Bill> {
        self.check_quarantine(meter)?;
        let (shard, slot) = self.locate(meter)?;
        lock(&self.shards[shard].meters)[slot].1.finalize()
    }

    /// Close the books of every *healthy* meter, in parallel, returned in
    /// meter-id order. Quarantined meters are skipped — inspect
    /// [`MeterFleet::quarantined`] to account for them.
    pub fn finalize_all(&self) -> Result<Vec<(MeterId, Bill)>> {
        let quarantined = &self.quarantined;
        let per_shard = try_par_map(&self.shards, |shard| -> Result<Vec<(MeterId, Bill)>> {
            lock(&shard.meters)
                .iter()
                .filter(|(id, _)| !quarantined.contains_key(&id.0))
                .map(|(id, acc)| acc.finalize().map(|b| (*id, b)))
                .collect()
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
        let (shard, slot) = self.locate(meter)?;
        Ok(lock(&self.shards[shard].meters)[slot].1.snapshot())
    }

    /// Snapshot every healthy meter in meter-id order — the payload of a
    /// [`FleetCheckpoint`]. Quarantined meters are excluded by
    /// construction, so a checkpoint only ever holds trustworthy state.
    pub fn snapshot_all(&self) -> Vec<(u64, AccrualSnapshot)> {
        (0..self.directory.len())
            .filter(|id| !self.quarantined.contains_key(id))
            .map(|id| {
                let (shard, slot) = self.directory[id];
                let snap = lock(&self.shards[shard].meters)[slot].1.snapshot();
                (id as u64, snap)
            })
            .collect()
    }

    /// Restore one meter's accrual state from a snapshot taken against the
    /// same contract (validated by kernel fingerprint). The restored meter
    /// continues streaming bit-identically to the original. Restoring a
    /// quarantined meter rehabilitates it — the snapshot replaces the
    /// untrustworthy state wholesale.
    pub fn restore(&mut self, meter: MeterId, snap: &AccrualSnapshot) -> Result<()> {
        let (shard, slot) = self.locate(meter)?;
        let kernel = Arc::clone(&self.shards[shard].kernel);
        let restored = BillAccrual::restore(kernel, snap)?;
        lock_mut(&mut self.shards[shard].meters)[slot].1 = restored;
        if self.quarantined.remove(&meter.0).is_some() {
            // Rehabilitation re-admits the meter to scatter plans.
            self.pop_version += 1;
        }
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

    /// Arm a one-shot injected panic on `meter`'s next fold — the chaos
    /// hook behind the fleet degradation tests. Test-only plumbing.
    #[doc(hidden)]
    pub fn chaos_poison_meter(&mut self, meter: MeterId) -> Result<()> {
        let (shard, slot) = self.locate(meter)?;
        lock_mut(&mut self.shards[shard].meters)[slot]
            .1
            .poison_next_push();
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
    /// [`BillAccrual::rebind`] for the exact rules. On error the meter is
    /// left untouched on its current kernel.
    pub fn apply_delta(&mut self, meter: MeterId, delta: &ContractDelta) -> Result<()> {
        let (shard, slot) = self.locate(meter)?;
        let old_fp = self.shards[shard].fingerprint;
        let patched = self.shards[shard].kernel.patch(delta)?;
        let new_fp = patched.fingerprint().0;
        if new_fp == old_fp {
            return Ok(()); // delta was a no-op; kernel content unchanged
        }
        let kernel = self.kernels.get_or_insert(Arc::new(patched))?;
        // Rebind first: if the delta is not accrual-preserving this fails
        // and the meter stays where it is.
        let mut accrual = lock_mut(&mut self.shards[shard].meters)[slot].1.clone();
        accrual.rebind(Arc::clone(&kernel))?;
        // Remove from the old shard, patching the directory entry of
        // whichever meter swap_remove moved into the vacated slot.
        {
            let meters = lock_mut(&mut self.shards[shard].meters);
            meters.swap_remove(slot);
            if let Some((moved_id, _)) = meters.get(slot) {
                self.directory[moved_id.0] = (shard, slot);
            }
        }
        let (new_shard, new_slot) = self.place(kernel, accrual, meter);
        self.directory[meter.0] = (new_shard, new_slot);
        // Two directory entries moved; cached scatter plans are stale.
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
    /// [`BillAccrual::rebind`] rules); events that would re-price history
    /// are rejected and the meter stays where it is — close its books and
    /// re-register to take such a revision mid-stream, or bill the horizon
    /// through [`ContractLedger::bill_as_of`](crate::ledger::ContractLedger::bill_as_of).
    pub fn apply_event(&mut self, meter: MeterId, event: &LedgerEvent) -> Result<()> {
        match &event.payload {
            EventPayload::Delta(delta) => self.apply_delta(meter, delta),
            EventPayload::Created(_) => Err(CoreError::Ledger(format!(
                "a created event opens a new stream; register a meter for it \
                 instead of applying it to live {meter}"
            ))),
        }
    }

    /// Operating statistics: meter count, memory per meter, kernel and
    /// scatter-plan reuse, and streaming throughput.
    pub fn stats(&self) -> FleetStats {
        let mut bytes: usize = 0;
        for shard in &self.shards {
            bytes += lock(&shard.meters)
                .iter()
                .map(|(_, acc)| acc.approx_bytes())
                .sum::<usize>();
        }
        let meters = self.directory.len();
        let secs = self.tick_nanos as f64 / 1e9;
        FleetStats {
            meters,
            shards: self.shards.len(),
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

    fn locate(&self, meter: MeterId) -> Result<(usize, usize)> {
        self.directory
            .get(meter.0)
            .copied()
            .ok_or_else(|| CoreError::BadSeries(format!("unknown {}", meter)))
    }
}

/// Fold one shard's scattered `(slot, power)` pulls in tick order,
/// quarantining panicking meters per-push. Membership of the panicked set
/// is a lazily-allocated slot bitmap: O(1) per sample, and the common
/// panic-free tick never allocates or probes it.
fn fold_shard(
    meters: &mut [(MeterId, BillAccrual)],
    pulls: impl Iterator<Item = (usize, Power)>,
) -> Result<ShardOutcome> {
    let mut applied = 0usize;
    let mut dropped = 0usize;
    let mut panicked: Vec<(MeterId, Arc<str>)> = Vec::new();
    let mut bits: Vec<u64> = Vec::new();
    let words = meters.len().div_ceil(64).max(1);
    for (slot, power) in pulls {
        if !bits.is_empty() && bits[slot / 64] & (1 << (slot % 64)) != 0 {
            dropped += 1;
            continue;
        }
        let (id, accrual) = &mut meters[slot];
        match catch_unwind(AssertUnwindSafe(|| accrual.push_next(power))) {
            Ok(pushed) => {
                pushed?;
                applied += 1;
            }
            Err(payload) => {
                dropped += 1;
                if bits.is_empty() {
                    bits = vec![0u64; words];
                }
                bits[slot / 64] |= 1 << (slot % 64);
                panicked.push((*id, panic_reason(payload)));
            }
        }
    }
    Ok((applied, dropped, panicked))
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

/// A shard's `(meter id, accrual)` list behind its lock.
type ShardMeters = Mutex<Vec<(MeterId, BillAccrual)>>;

/// Lock a shard from a shared borrow (the parallel advance path). Poisoning
/// cannot leave half-applied state — a panicking task dies before its
/// advance result is observed — so poisoned locks are recovered.
fn lock(meters: &ShardMeters) -> std::sync::MutexGuard<'_, Vec<(MeterId, BillAccrual)>> {
    meters.lock().unwrap_or_else(|p| p.into_inner())
}

/// Lock a shard through `&mut` (registration, restore, deltas): no locking
/// at all.
fn lock_mut(meters: &mut ShardMeters) -> &mut Vec<(MeterId, BillAccrual)> {
    match meters.get_mut() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    }
}
