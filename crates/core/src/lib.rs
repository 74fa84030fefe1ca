//! # hpcgrid-core
//!
//! The paper's primary contribution, made executable.
//!
//! *"An Analysis of Contracts and Relationships between Supercomputing
//! Centers and Electricity Service Providers"* (ICPP 2019) contributes a
//! **contract typology** (Figure 1), a **survey corpus** of ten SC sites
//! (Tables 1–2), and an analysis of responsible negotiating parties and
//! ESP–SC interaction. This crate encodes all three:
//!
//! * [`typology`] — the typology tree as types, with the
//!   demand-side-management properties each component encourages;
//! * [`tariff`], [`demand_charge`], [`powerband`], [`emergency`] — each
//!   contract component as a priced, testable object;
//! * [`contract`] — composable contracts built from those components;
//! * [`billing`] — the billing engine that prices a metered load series
//!   under any contract;
//! * [`compiled`] + [`fingerprint`] — the compiled billing kernel for
//!   sweep workloads, with incremental recompilation
//!   ([`compiled::CompiledContract::patch`]) keyed by component
//!   fingerprints;
//! * [`ledger`] — the event-sourced contract ledger: append-only revision
//!   streams with idempotency keys and effective dates, patch-cached
//!   hydration, and as-of billing across mid-horizon renegotiations;
//! * [`survey`] — the survey instrument, the encoded ten-site corpus, the
//!   coding step that regenerates Table 2 from per-site contracts, and the
//!   statistical analysis (component counts, text-vs-table consistency,
//!   geographic-trend permutation tests).

#![warn(missing_docs)]

pub mod accrual;
pub mod billing;
pub mod checkpoint;
pub mod compare;
pub mod compiled;
pub mod contract;
pub mod demand_charge;
pub mod emergency;
pub mod fingerprint;
pub mod fleet;
pub mod kernels;
pub mod ledger;
pub mod powerband;
pub mod report;
pub mod survey;
pub mod tariff;
pub mod typology;

pub use accrual::{AccrualSnapshot, BillAccrual};
pub use billing::{Bill, BillingEngine};
pub use checkpoint::{CheckpointStore, FleetCheckpoint};
pub use compiled::CompiledContract;
pub use contract::{Contract, ContractBuilder, ContractDelta};
pub use demand_charge::DemandCharge;
pub use emergency::EmergencyDrClause;
pub use fingerprint::ComponentFingerprint;
pub use fleet::{FleetStats, FleetTickReport, MeterFleet, MeterId, Sample};
pub use kernels::KernelCache;
pub use ledger::{AppendOutcome, AsOfBill, BillSlice, ContractId, ContractLedger, LedgerEvent};
pub use powerband::Powerband;
pub use tariff::Tariff;
pub use typology::{ContractComponentKind, Typology};

/// Errors from contract construction and billing.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Invalid contract component parameter.
    BadComponent(String),
    /// A contract must have at least one energy-pricing component.
    NoTariff,
    /// Billing input problem (empty or misaligned series).
    BadSeries(String),
    /// Survey analysis error.
    BadSurvey(String),
    /// A worker task panicked during a parallel batch billing run.
    BatchPanic(String),
    /// The meter was quarantined after a panicking fold; its accrual state
    /// is not trustworthy until restored from a snapshot.
    Quarantined(String),
    /// Filesystem i/o error while reading or writing a checkpoint.
    Io(String),
    /// Contract-ledger misuse: unknown stream or revision, or an amendment
    /// whose effective date would rewrite history.
    Ledger(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::BadComponent(d) => write!(f, "bad contract component: {d}"),
            CoreError::NoTariff => write!(f, "contract has no tariff component"),
            CoreError::BadSeries(d) => write!(f, "bad series: {d}"),
            CoreError::BadSurvey(d) => write!(f, "bad survey data: {d}"),
            CoreError::BatchPanic(d) => write!(f, "batch billing worker panicked: {d}"),
            CoreError::Quarantined(d) => write!(f, "meter quarantined: {d}"),
            CoreError::Io(d) => write!(f, "checkpoint i/o error: {d}"),
            CoreError::Ledger(d) => write!(f, "contract ledger error: {d}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
