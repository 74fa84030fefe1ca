//! # hpcgrid — facade crate
//!
//! Umbrella crate re-exporting the whole `hpcgrid` workspace: a
//! production-oriented reproduction of *"An Analysis of Contracts and
//! Relationships between Supercomputing Centers and Electricity Service
//! Providers"* (ICPP 2019 Workshops).
//!
//! The toolkit models, simulates, and analyzes:
//!
//! * **contracts** between supercomputing centers (SCs) and electricity
//!   service providers (ESPs) — the paper's contract typology as a typed,
//!   executable billing engine ([`core`]), batch or streamed one sample at
//!   a time across sharded meter fleets ([`core::fleet`]), with contract
//!   renegotiations recorded as event-sourced revision streams and billed
//!   as-of their effective dates ([`core::ledger`]);
//! * the **survey corpus** of ten SC sites and its qualitative analysis
//!   (Tables 1–2, Figure 1 of the paper);
//! * the **substrates** needed to exercise those contracts quantitatively:
//!   a grid/market simulator ([`grid`]), an SC facility model ([`facility`]),
//!   synthetic HPC workloads ([`workload`]), a power-aware job scheduler
//!   ([`scheduler`]), and demand-response programs and procurement auctions
//!   ([`dr`]);
//! * the **sweep orchestration engine** ([`engine`]): deterministic,
//!   fault-isolated scenario execution with content-addressed result
//!   caching, used by the experiment binaries.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use hpcgrid::prelude::*;
//!
//! // A 12 MW supercomputing facility running a synthetic workload...
//! let site = SiteSpec::reference_large();
//! let trace = WorkloadBuilder::new(42).nodes(site.node_count).days(7).build();
//! let mut sim = ScheduleSimulator::new(site.node_count, Policy::Fcfs);
//! let outcome = sim.run(&trace);
//! let load = outcome.to_load_series(&site);
//!
//! // ...billed under a contract drawn from the paper's typology.
//! let contract = Contract::builder("demo")
//!     .tariff(Tariff::fixed(EnergyPrice::per_kilowatt_hour(0.06)))
//!     .demand_charge(DemandCharge::monthly(DemandPrice::per_kilowatt_month(12.0)))
//!     .build()
//!     .unwrap();
//! let bill = BillingEngine::new(Calendar::default()).bill(&contract, &load).unwrap();
//! assert!(bill.total().is_positive());
//! ```

pub use hpcgrid_core as core;
pub use hpcgrid_dr as dr;
pub use hpcgrid_engine as engine;
pub use hpcgrid_facility as facility;
pub use hpcgrid_grid as grid;
pub use hpcgrid_scheduler as scheduler;
pub use hpcgrid_timeseries as timeseries;
pub use hpcgrid_units as units;
pub use hpcgrid_workload as workload;

/// Commonly used items across the workspace, for glob import.
pub mod prelude {
    pub use hpcgrid_core::accrual::{AccrualSnapshot, BillAccrual};
    pub use hpcgrid_core::billing::{Bill, BillingEngine};
    pub use hpcgrid_core::checkpoint::{CheckpointStore, FleetCheckpoint};
    pub use hpcgrid_core::compiled::CompiledContract;
    pub use hpcgrid_core::contract::{Contract, ContractBuilder, ContractDelta};
    pub use hpcgrid_core::demand_charge::DemandCharge;
    pub use hpcgrid_core::fingerprint::ComponentFingerprint;
    pub use hpcgrid_core::fleet::{
        FleetStats, FleetTickReport, MeterFleet, MeterId, Sample, TickFrame,
    };
    pub use hpcgrid_core::ledger::{
        AppendOutcome, AsOfBill, BillSlice, ContractId, ContractLedger, LedgerEvent,
    };
    pub use hpcgrid_core::powerband::Powerband;
    pub use hpcgrid_core::survey::corpus::SurveyCorpus;
    pub use hpcgrid_core::tariff::Tariff;
    pub use hpcgrid_core::typology::{ContractComponentKind, Typology};
    pub use hpcgrid_engine::{
        FailpointSet, ResultCache, RetryPolicy, RunJournal, RunReport, ScenarioError, ScenarioSpec,
        SweepRunner,
    };
    pub use hpcgrid_facility::site::SiteSpec;
    pub use hpcgrid_scheduler::policy::Policy;
    pub use hpcgrid_scheduler::sim::ScheduleSimulator;
    pub use hpcgrid_timeseries::series::{PowerSeries, PriceSeries};
    pub use hpcgrid_units::{
        Calendar, DemandPrice, Duration, Energy, EnergyPrice, Money, Month, Power, Ratio, SimTime,
        TimeOfDay, Weekday,
    };
    pub use hpcgrid_workload::trace::WorkloadBuilder;
}
