//! Event-sourced contract ledger: append-only revision streams with as-of
//! billing.
//!
//! The paper's central observation is that center–ESP contracts are *living*
//! relationships: tariffs, demand charges, and powerbands get renegotiated
//! mid-term. Everything below [`ContractLedger`] treats a
//! [`Contract`] as a frozen value; the ledger makes the revision history
//! itself the source of truth, following the entity-event pattern:
//!
//! * each contract is an **append-only event stream** — one
//!   [`EventPayload::Created`] event followed by
//!   [`EventPayload::Delta`] events, applied through the existing
//!   [`Contract::apply`];
//! * every event carries an **idempotency key** (re-appending a key the
//!   stream has seen is a no-op returning the original revision, so
//!   at-least-once writers converge on one history), a **monotonically
//!   increasing revision number**, and an **effective date** (non-decreasing
//!   along the stream — amendments take effect prospectively);
//! * **hydration** ([`ContractLedger::hydrate_at`]) replays an event prefix
//!   into the contract in force at that revision;
//! * **compiled kernels are cached per `(ComponentFingerprint, horizon)`**
//!   ([`ContractLedger::kernel_at`]): hydrating revision N+1 when revision N
//!   is cached is one [`CompiledContract::patch`], not a recompile, and two
//!   streams whose revisions converge on the same contract share one kernel;
//! * billing is **as-of aware** ([`ContractLedger::bill_as_of`]): a horizon
//!   containing effective dates is sliced at each of them, every slice is
//!   billed under the revision in force at its start, and the per-slice
//!   bills fold into one [`AsOfBill`].
//!
//! # Invariants
//!
//! Replaying any event prefix — under any idempotent-retry reordering of
//! duplicate appends — hydrates to a bit-identical contract, and billing
//! through [`ContractLedger::bill_as_of`] is bit-identical to slicing the
//! load at the effective dates by hand and batch-billing each slice with its
//! own hydrated kernel (the `ledger_properties` suite proves both; invariant
//! #7 in `docs/ARCHITECTURE.md`). See `docs/LEDGER.md` for the lifecycle
//! guide and the "which API do I want" table.

use crate::billing::Bill;
use crate::compiled::CompiledContract;
use crate::contract::{Contract, ContractDelta};
use crate::fingerprint;
use crate::kernels::KernelCache;
use crate::{CoreError, Result};
use hpcgrid_timeseries::intervals::IntervalSet;
use hpcgrid_timeseries::series::PowerSeries;
use hpcgrid_units::{Calendar, Money, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to one contract's event stream inside a [`ContractLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContractId(u64);

impl ContractId {
    /// The raw stream index (stable for the lifetime of the ledger).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ContractId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "contract#{}", self.0)
    }
}

/// What one ledger event did to the contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventPayload {
    /// The stream's first event: the contract as originally negotiated.
    Created(Contract),
    /// A renegotiation, applied through [`Contract::apply`].
    Delta(ContractDelta),
}

impl EventPayload {
    /// Stable human label (the delta's [`ContractDelta::label`], or
    /// `created`).
    pub fn label(&self) -> String {
        match self {
            EventPayload::Created(_) => "created".into(),
            EventPayload::Delta(d) => d.label(),
        }
    }
}

/// One event in a contract's append-only stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEvent {
    /// Monotone revision number: `0` for the created event, then `1, 2, …`.
    pub revision: u64,
    /// Caller-chosen retry key; appending a key the stream has already seen
    /// is a no-op.
    pub idempotency_key: String,
    /// When the revision takes effect. Non-decreasing along the stream.
    pub effective: SimTime,
    /// The creation or delta this event records.
    pub payload: EventPayload,
}

/// Result of [`ContractLedger::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppendOutcome {
    /// The revision holding this idempotency key's event.
    pub revision: u64,
    /// `false` if the key had been appended before (idempotent retry — the
    /// stream is unchanged and `revision` is the original event's).
    pub applied: bool,
}

/// The span of an as-of bill billed under one revision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BillSlice {
    /// The revision in force over `[from, to)`.
    pub revision: u64,
    /// Slice start (inclusive).
    pub from: SimTime,
    /// Slice end (exclusive).
    pub to: SimTime,
    /// The slice billed batch-wise under revision `revision`'s kernel.
    pub bill: Bill,
}

/// An as-of bill: one [`BillSlice`] per revision in force across the billed
/// horizon, in time order. Produced by [`ContractLedger::bill_as_of`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsOfBill {
    /// Per-revision slices covering the load, in time order (at least one).
    pub slices: Vec<BillSlice>,
}

impl AsOfBill {
    /// Fold the per-slice bills into one composite bill (see [`Bill::fold`]
    /// for the line-item merge rule). A single-slice as-of bill folds to
    /// that slice's bill unchanged.
    pub fn fold(&self) -> Bill {
        Bill::fold(self.slices.iter().map(|s| &s.bill))
            .expect("an AsOfBill always holds at least one slice")
    }

    /// Total across every slice.
    pub fn total(&self) -> Money {
        self.slices.iter().map(|s| s.bill.total()).sum()
    }

    /// The revisions billed, in slice order.
    pub fn revisions(&self) -> Vec<u64> {
        self.slices.iter().map(|s| s.revision).collect()
    }
}

/// One contract's append-only stream plus its derived caches.
#[derive(Debug, Clone)]
struct Stream {
    events: Vec<LedgerEvent>,
    /// Idempotency key → revision holding it.
    keys: HashMap<String, u64>,
    /// The hydrated head contract (replay of the full stream, kept
    /// incrementally — bit-identical to `hydrate_at(head)` because both run
    /// the same `Contract::apply` calls in the same order).
    head: Contract,
    /// `fingerprint::of_contract` of the hydrated contract per revision —
    /// the kernel-cache key, so hydration never recompiles a contract any
    /// revision of any stream has already compiled.
    fps: Vec<u64>,
}

/// An append-only ledger of contract revision streams with patch-cached
/// kernels and as-of billing, over one calendar and compile horizon.
///
/// ```
/// use hpcgrid_core::contract::{Contract, ContractDelta};
/// use hpcgrid_core::ledger::ContractLedger;
/// use hpcgrid_core::tariff::Tariff;
/// use hpcgrid_units::{Calendar, EnergyPrice, Money, SimTime};
///
/// let contract = Contract::builder("esp-2026")
///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
///     .build()?;
/// let mut ledger = ContractLedger::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(60));
///
/// // `create` is idempotent on its key, like every append.
/// let id = ledger.create(contract.clone(), "negotiated-2026", SimTime::EPOCH)?;
/// assert_eq!(ledger.create(contract, "negotiated-2026", SimTime::EPOCH)?, id);
/// assert_eq!(ledger.head(id)?, 0);
///
/// // A renegotiation 30 days in becomes revision 1.
/// let out = ledger.append(
///     id,
///     ContractDelta::SetMonthlyFee(Money::from_dollars(1_500.0)),
///     "fee-amendment",
///     SimTime::from_days(30),
/// )?;
/// assert!(out.applied);
/// assert_eq!(ledger.head(id)?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ContractLedger {
    kernels: KernelCache,
    streams: Vec<Stream>,
    /// Created-event idempotency keys (ledger-scoped) → stream.
    created_keys: HashMap<String, ContractId>,
}

impl ContractLedger {
    /// An empty ledger compiling kernels under `calendar` for loads inside
    /// `[start, end)`.
    pub fn new(calendar: Calendar, start: SimTime, end: SimTime) -> ContractLedger {
        ContractLedger {
            kernels: KernelCache::new(calendar, start, end),
            streams: Vec::new(),
            created_keys: HashMap::new(),
        }
    }

    /// The calendar every kernel is compiled under.
    pub fn calendar(&self) -> &Calendar {
        self.kernels.calendar()
    }

    /// The compile horizon `[start, end)` shared by every cached kernel.
    pub fn horizon(&self) -> (SimTime, SimTime) {
        self.kernels.horizon()
    }

    /// Number of contract streams.
    pub fn contracts(&self) -> usize {
        self.streams.len()
    }

    /// The shared kernel cache (one kernel per distinct
    /// `(ComponentFingerprint, horizon)` across *all* streams) — its
    /// hit/miss counters are the hydrate-vs-recompile observability used by
    /// the `exp_ledger_hydrate` baseline.
    pub fn kernel_cache(&self) -> &KernelCache {
        &self.kernels
    }

    fn stream(&self, id: ContractId) -> Result<&Stream> {
        self.streams
            .get(id.0 as usize)
            .ok_or_else(|| CoreError::Ledger(format!("unknown {id}")))
    }

    /// Open a new stream with its `Created` event at revision 0.
    ///
    /// Idempotent on `key` (ledger-scoped for created events): re-creating
    /// with a seen key returns the original [`ContractId`] and leaves the
    /// ledger unchanged. `effective` is the contract's start of force —
    /// billing before it is an error.
    pub fn create(
        &mut self,
        contract: Contract,
        key: &str,
        effective: SimTime,
    ) -> Result<ContractId> {
        if let Some(&id) = self.created_keys.get(key) {
            return Ok(id);
        }
        let id = ContractId(self.streams.len() as u64);
        let fp = fingerprint::of_contract(&contract).0;
        let mut keys = HashMap::new();
        keys.insert(key.to_string(), 0);
        self.streams.push(Stream {
            events: vec![LedgerEvent {
                revision: 0,
                idempotency_key: key.to_string(),
                effective,
                payload: EventPayload::Created(contract.clone()),
            }],
            keys,
            head: contract,
            fps: vec![fp],
        });
        self.created_keys.insert(key.to_string(), id);
        Ok(id)
    }

    /// Append a renegotiation to a stream, returning the revision it holds.
    ///
    /// Validation happens at append time: the delta must apply cleanly to
    /// the current head (via [`Contract::apply`]) and `effective` must not
    /// precede the previous event's effective date (amendments take effect
    /// prospectively; retroactive re-pricing is out of scope). A key the
    /// stream has already seen makes the append a no-op
    /// ([`AppendOutcome::applied`] `false`) — at-least-once retries,
    /// arbitrarily interleaved, converge on one history.
    ///
    /// ```
    /// use hpcgrid_core::contract::{Contract, ContractDelta};
    /// use hpcgrid_core::ledger::ContractLedger;
    /// use hpcgrid_core::tariff::Tariff;
    /// use hpcgrid_units::{Calendar, EnergyPrice, Money, SimTime};
    ///
    /// let contract = Contract::builder("esp")
    ///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
    ///     .build()?;
    /// let mut ledger = ContractLedger::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(60));
    /// let id = ledger.create(contract, "created", SimTime::EPOCH)?;
    ///
    /// let delta = ContractDelta::SetMonthlyFee(Money::from_dollars(900.0));
    /// let first = ledger.append(id, delta.clone(), "fee-bump", SimTime::from_days(10))?;
    /// assert!((first.revision, first.applied) == (1, true));
    ///
    /// // The retry is a no-op: same revision back, stream unchanged.
    /// let retry = ledger.append(id, delta, "fee-bump", SimTime::from_days(10))?;
    /// assert!((retry.revision, retry.applied) == (1, false));
    /// assert_eq!(ledger.events(id)?.len(), 2);
    ///
    /// // Effective dates must be non-decreasing.
    /// let back = ContractDelta::SetMonthlyFee(Money::from_dollars(100.0));
    /// assert!(ledger.append(id, back, "backdated", SimTime::from_days(5)).is_err());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn append(
        &mut self,
        id: ContractId,
        delta: ContractDelta,
        key: &str,
        effective: SimTime,
    ) -> Result<AppendOutcome> {
        self.stream(id)?;
        let stream = &mut self.streams[id.0 as usize];
        if let Some(&revision) = stream.keys.get(key) {
            return Ok(AppendOutcome {
                revision,
                applied: false,
            });
        }
        let last = stream
            .events
            .last()
            .expect("a stream always holds its created event");
        if effective < last.effective {
            return Err(CoreError::Ledger(format!(
                "effective date {effective} precedes the stream's latest event \
                 ({}) — ledger amendments take effect prospectively",
                last.effective
            )));
        }
        let head = stream.head.apply(&delta)?;
        let revision = stream.events.len() as u64;
        stream.events.push(LedgerEvent {
            revision,
            idempotency_key: key.to_string(),
            effective,
            payload: EventPayload::Delta(delta),
        });
        stream.keys.insert(key.to_string(), revision);
        stream.fps.push(fingerprint::of_contract(&head).0);
        stream.head = head;
        Ok(AppendOutcome {
            revision,
            applied: true,
        })
    }

    /// The stream's head revision number.
    pub fn head(&self, id: ContractId) -> Result<u64> {
        Ok(self.stream(id)?.events.len() as u64 - 1)
    }

    /// The full event stream, in revision order.
    pub fn events(&self, id: ContractId) -> Result<&[LedgerEvent]> {
        Ok(&self.stream(id)?.events)
    }

    /// The hydrated head contract (without replaying — the ledger keeps it
    /// incrementally; bit-identical to `hydrate_at(head)`).
    pub fn head_contract(&self, id: ContractId) -> Result<&Contract> {
        Ok(&self.stream(id)?.head)
    }

    /// The revision in force at instant `t`: the last revision whose
    /// effective date is at or before `t`. Errors if `t` precedes the
    /// contract's creation.
    pub fn revision_at(&self, id: ContractId, t: SimTime) -> Result<u64> {
        let stream = self.stream(id)?;
        let n = stream.events.partition_point(|e| e.effective <= t);
        if n == 0 {
            return Err(CoreError::Ledger(format!(
                "{id} is not yet in force at {t} (created effective {})",
                stream.events[0].effective
            )));
        }
        Ok(n as u64 - 1)
    }

    /// Hydrate the contract in force at `revision` by replaying the event
    /// prefix through [`Contract::apply`].
    ///
    /// ```
    /// use hpcgrid_core::contract::{Contract, ContractDelta};
    /// use hpcgrid_core::ledger::ContractLedger;
    /// use hpcgrid_core::tariff::Tariff;
    /// use hpcgrid_units::{Calendar, EnergyPrice, Money, SimTime};
    ///
    /// let contract = Contract::builder("esp")
    ///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.07)))
    ///     .build()?;
    /// let mut ledger = ContractLedger::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(60));
    /// let id = ledger.create(contract, "created", SimTime::EPOCH)?;
    /// ledger.append(
    ///     id,
    ///     ContractDelta::SetMonthlyFee(Money::from_dollars(750.0)),
    ///     "fee",
    ///     SimTime::from_days(30),
    /// )?;
    ///
    /// // Revision 0 is the original; revision 1 carries the fee.
    /// assert_eq!(ledger.hydrate_at(id, 0)?.monthly_fee, Money::ZERO);
    /// assert_eq!(ledger.hydrate_at(id, 1)?.monthly_fee, Money::from_dollars(750.0));
    /// // Replaying the full prefix reproduces the incrementally-kept head.
    /// assert_eq!(&ledger.hydrate_at(id, 1)?, ledger.head_contract(id)?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn hydrate_at(&self, id: ContractId, revision: u64) -> Result<Contract> {
        let stream = self.stream(id)?;
        let events = stream.events.get(..=revision as usize).ok_or_else(|| {
            CoreError::Ledger(format!(
                "{id} has no revision {revision} (head is {})",
                stream.events.len() - 1
            ))
        })?;
        let mut contract = match &events[0].payload {
            EventPayload::Created(c) => c.clone(),
            EventPayload::Delta(_) => unreachable!("revision 0 is always a created event"),
        };
        for event in &events[1..] {
            match &event.payload {
                EventPayload::Delta(d) => contract = contract.apply(d)?,
                EventPayload::Created(_) => {
                    unreachable!("created events only appear at revision 0")
                }
            }
        }
        Ok(contract)
    }

    /// The compiled kernel for `revision`, cached per
    /// `(ComponentFingerprint, horizon)` across every stream.
    ///
    /// A cached revision returns its shared `Arc` directly. Otherwise the
    /// nearest cached earlier revision is **patched forward** through the
    /// intervening deltas ([`CompiledContract::patch`] — bit-identical to a
    /// fresh compile, several times faster); only a stream none of whose
    /// revisions has ever been compiled pays for a full compilation.
    /// Intermediate kernels produced while patching are cached too.
    pub fn kernel_at(&mut self, id: ContractId, revision: u64) -> Result<Arc<CompiledContract>> {
        self.stream(id)?;
        let stream = &self.streams[id.0 as usize];
        let rev = revision as usize;
        if rev >= stream.events.len() {
            return Err(CoreError::Ledger(format!(
                "{id} has no revision {revision} (head is {})",
                stream.events.len() - 1
            )));
        }
        if let Some(kernel) = self.kernels.get(stream.fps[rev]) {
            return Ok(kernel);
        }
        // Nearest cached ancestor, to patch forward from.
        let base = (0..rev)
            .rev()
            .find_map(|r| self.kernels.get(stream.fps[r]).map(|kernel| (r, kernel)));
        match base {
            Some((r, base_kernel)) => {
                let mut kernel = Arc::clone(&base_kernel);
                for event in &stream.events[r + 1..=rev] {
                    let patched = match &event.payload {
                        EventPayload::Delta(d) => kernel.patch(d)?,
                        EventPayload::Created(_) => {
                            unreachable!("created events only appear at revision 0")
                        }
                    };
                    kernel = self.kernels.get_or_insert(Arc::new(patched))?;
                }
                Ok(kernel)
            }
            None => {
                let contract = self.hydrate_at(id, revision)?;
                self.kernels.get_or_compile(&contract)
            }
        }
    }

    /// Bill `load` **as of the ledger**: slice it at every effective date
    /// falling strictly inside its span, bill each slice batch-wise under
    /// the revision in force at the slice's start, and return the slices in
    /// time order.
    ///
    /// Each slice bill is bit-identical to hydrating that revision's kernel
    /// and billing the slice by hand — a mid-year renegotiation bills
    /// exactly like two separate batch runs (`docs/LEDGER.md` spells out
    /// the month-boundary consequences: demand months and service fees
    /// restart at each slice boundary, just as they would if the slices
    /// were metered separately). Effective dates must fall on the load's
    /// sample grid.
    ///
    /// ```
    /// use hpcgrid_core::contract::{Contract, ContractDelta};
    /// use hpcgrid_core::ledger::ContractLedger;
    /// use hpcgrid_core::tariff::Tariff;
    /// use hpcgrid_timeseries::series::Series;
    /// use hpcgrid_units::{Calendar, Duration, EnergyPrice, Power, SimTime};
    ///
    /// let contract = Contract::builder("esp")
    ///     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.05)))
    ///     .build()?;
    /// let mut ledger = ContractLedger::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(4));
    /// let id = ledger.create(contract, "created", SimTime::EPOCH)?;
    /// // The rate doubles, effective at the start of day 2.
    /// let double = Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.10));
    /// ledger.append(
    ///     id,
    ///     ContractDelta::ReplaceTariff { index: 0, tariff: double },
    ///     "rate-doubles",
    ///     SimTime::from_days(2),
    /// )?;
    ///
    /// // Four days at a steady 1 MW: two days at each rate.
    /// let load = Series::constant(
    ///     SimTime::EPOCH,
    ///     Duration::from_hours(1.0),
    ///     Power::from_megawatts(1.0),
    ///     96,
    /// )?;
    /// let asof = ledger.bill_as_of(id, &load)?;
    /// assert_eq!(asof.revisions(), vec![0, 1]);
    /// // 48 MWh · $0.05/kWh + 48 MWh · $0.10/kWh.
    /// assert_eq!(asof.total().as_dollars(), 48_000.0 * 0.05 + 48_000.0 * 0.10);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn bill_as_of(&mut self, id: ContractId, load: &PowerSeries) -> Result<AsOfBill> {
        if load.is_empty() {
            return Err(CoreError::BadSeries("load series is empty".into()));
        }
        let (start, end) = (load.start(), load.end());
        let step = load.step().as_secs();
        let first_rev = self.revision_at(id, start)?;
        // Cut points: distinct effective dates strictly inside the load's
        // span. Events at or before `start` are folded into `first_rev`;
        // events at or past `end` have no force over this load.
        let mut cuts: Vec<SimTime> = Vec::new();
        for event in &self.stream(id)?.events[first_rev as usize + 1..] {
            if event.effective >= end {
                break;
            }
            if cuts.last() != Some(&event.effective) {
                cuts.push(event.effective);
            }
        }
        for cut in &cuts {
            if !(cut.as_secs() - start.as_secs()).is_multiple_of(step) {
                return Err(CoreError::BadSeries(format!(
                    "effective date {cut} does not fall on the load's sample \
                     grid (start {start}, step {step}s) — as-of slices must \
                     split the series between samples"
                )));
            }
        }
        let mut bounds = Vec::with_capacity(cuts.len() + 2);
        bounds.push(start);
        bounds.extend(cuts);
        bounds.push(end);
        let mut slices = Vec::with_capacity(bounds.len() - 1);
        for pair in bounds.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let revision = self.revision_at(id, from)?;
            let kernel = self.kernel_at(id, revision)?;
            // Every bound is on the sample grid, so the slice is a borrowed
            // sub-slice of the load, billed in one fused run.
            let i0 = ((from.as_secs() - start.as_secs()) / step) as usize;
            let i1 = ((to.as_secs() - start.as_secs()) / step) as usize;
            let bill = kernel.bill_run(
                from,
                load.step(),
                &load.values()[i0..i1],
                &IntervalSet::empty(),
            )?;
            slices.push(BillSlice {
                revision,
                from,
                to,
                bill,
            });
        }
        Ok(AsOfBill { slices })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tariff::Tariff;
    use hpcgrid_timeseries::series::Series;
    use hpcgrid_units::{Duration, EnergyPrice, Power};

    fn flat(rate: f64) -> Contract {
        Contract::builder("ledger-test")
            .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(rate)))
            .build()
            .unwrap()
    }

    fn ledger() -> ContractLedger {
        ContractLedger::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(60))
    }

    fn load(days: u64) -> PowerSeries {
        Series::constant(
            SimTime::EPOCH,
            Duration::from_minutes(15.0),
            Power::from_megawatts(5.0),
            (days * 96) as usize,
        )
        .unwrap()
    }

    #[test]
    fn create_is_idempotent_ledger_wide() {
        let mut l = ledger();
        let a = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        let b = l.create(flat(0.09), "k", SimTime::EPOCH).unwrap();
        assert_eq!(a, b);
        assert_eq!(l.contracts(), 1);
        // The retry did not overwrite the original contract.
        assert_eq!(
            l.head_contract(a).unwrap().tariffs[0],
            flat(0.07).tariffs[0]
        );
    }

    #[test]
    fn append_validates_via_contract_apply() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        let bad = ContractDelta::SetMonthlyFee(Money::from_dollars(-5.0));
        assert!(l.append(id, bad, "bad-fee", SimTime::from_days(1)).is_err());
        // The failed append left no event behind.
        assert_eq!(l.head(id).unwrap(), 0);
    }

    #[test]
    fn effective_dates_must_be_non_decreasing() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::from_days(2)).unwrap();
        let fee = ContractDelta::SetMonthlyFee(Money::from_dollars(10.0));
        let err = l.append(id, fee, "backdated", SimTime::EPOCH).unwrap_err();
        assert!(err.to_string().contains("prospectively"), "{err}");
        // Equal effective dates are fine (two amendments signed together).
        let fee2 = ContractDelta::SetMonthlyFee(Money::from_dollars(20.0));
        assert!(l
            .append(id, fee2, "same-day", SimTime::from_days(2))
            .is_ok());
    }

    #[test]
    fn unknown_ids_and_revisions_are_ledger_errors() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        assert!(matches!(
            l.hydrate_at(ContractId(9), 0),
            Err(CoreError::Ledger(_))
        ));
        assert!(matches!(l.hydrate_at(id, 1), Err(CoreError::Ledger(_))));
        assert!(matches!(l.kernel_at(id, 7), Err(CoreError::Ledger(_))));
        assert!(matches!(l.revision_at(id, SimTime::EPOCH), Ok(0)));
    }

    #[test]
    fn revision_at_tracks_effective_dates() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        for (i, day) in [10u64, 10, 20].iter().enumerate() {
            l.append(
                id,
                ContractDelta::SetMonthlyFee(Money::from_dollars((i + 1) as f64)),
                &format!("fee-{i}"),
                SimTime::from_days(*day),
            )
            .unwrap();
        }
        assert_eq!(l.revision_at(id, SimTime::EPOCH).unwrap(), 0);
        assert_eq!(l.revision_at(id, SimTime::from_days(9)).unwrap(), 0);
        // Two events share day 10: the later one wins at its instant.
        assert_eq!(l.revision_at(id, SimTime::from_days(10)).unwrap(), 2);
        assert_eq!(l.revision_at(id, SimTime::from_days(25)).unwrap(), 3);
        let early =
            ContractLedger::new(Calendar::default(), SimTime::EPOCH, SimTime::from_days(60));
        drop(early);
        let mut l2 = ledger();
        let late = l2.create(flat(0.07), "k", SimTime::from_days(5)).unwrap();
        assert!(l2.revision_at(late, SimTime::EPOCH).is_err());
    }

    #[test]
    fn kernels_are_shared_across_streams_by_fingerprint() {
        let mut l = ledger();
        let a = l.create(flat(0.07), "a", SimTime::EPOCH).unwrap();
        let b = l.create(flat(0.07), "b", SimTime::EPOCH).unwrap();
        let ka = l.kernel_at(a, 0).unwrap();
        let kb = l.kernel_at(b, 0).unwrap();
        assert!(Arc::ptr_eq(&ka, &kb), "identical contracts share a kernel");
        assert_eq!(l.kernel_cache().len(), 1);
    }

    #[test]
    fn hydration_at_next_revision_is_a_patch_not_a_recompile() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        let _k0 = l.kernel_at(id, 0).unwrap();
        let misses_before = l.kernel_cache().misses();
        l.append(
            id,
            ContractDelta::SetMonthlyFee(Money::from_dollars(500.0)),
            "fee",
            SimTime::from_days(30),
        )
        .unwrap();
        let k1 = l.kernel_at(id, 1).unwrap();
        // One admission (the patched kernel), zero fresh compiles: the
        // patched kernel arrived via get_or_insert, and re-asking is a pure
        // cache hit returning the same Arc.
        assert_eq!(l.kernel_cache().misses(), misses_before + 1);
        let k1_again = l.kernel_at(id, 1).unwrap();
        assert!(Arc::ptr_eq(&k1, &k1_again));
        // The patched kernel bills exactly like a fresh compile.
        let fresh = CompiledContract::compile(
            &Calendar::default(),
            &l.hydrate_at(id, 1).unwrap(),
            SimTime::EPOCH,
            SimTime::from_days(60),
        )
        .unwrap();
        let lo = load(45);
        assert_eq!(k1.bill(&lo).unwrap(), fresh.bill(&lo).unwrap());
    }

    #[test]
    fn bill_as_of_without_events_is_one_plain_slice() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        let lo = load(10);
        let asof = l.bill_as_of(id, &lo).unwrap();
        assert_eq!(asof.slices.len(), 1);
        let direct = l.kernel_at(id, 0).unwrap().bill(&lo).unwrap();
        assert_eq!(asof.slices[0].bill, direct);
        assert_eq!(asof.fold(), direct, "single-slice fold is the identity");
    }

    #[test]
    fn bill_as_of_rejects_off_grid_effective_dates() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        l.append(
            id,
            ContractDelta::SetMonthlyFee(Money::from_dollars(500.0)),
            "fee",
            SimTime::from_secs(100), // not on the 15-minute grid
        )
        .unwrap();
        let err = l.bill_as_of(id, &load(10)).unwrap_err();
        assert!(err.to_string().contains("sample grid"), "{err}");
    }

    #[test]
    fn events_at_or_past_load_end_do_not_slice() {
        let mut l = ledger();
        let id = l.create(flat(0.07), "k", SimTime::EPOCH).unwrap();
        l.append(
            id,
            ContractDelta::SetMonthlyFee(Money::from_dollars(500.0)),
            "fee",
            SimTime::from_days(10),
        )
        .unwrap();
        let asof = l.bill_as_of(id, &load(10)).unwrap();
        assert_eq!(asof.slices.len(), 1, "effective == load end: no cut");
        assert_eq!(asof.slices[0].revision, 0);
    }
}
