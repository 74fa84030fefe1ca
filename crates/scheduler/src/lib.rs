//! # hpcgrid-scheduler
//!
//! A discrete-event HPC job-scheduler simulator with the power-aware policy
//! levers the paper's cited survey identified as the most effective SC
//! responses to ESP programs: *"energy and power-aware job scheduling, power
//! capping, and shutdown"* (§2, citing Bates et al. \[7\]).
//!
//! * [`policy`] — queue disciplines (FCFS, EASY backfill, conservative
//!   backfill) and power constraints (busy-node cap schedules,
//!   avoid-windows for deferrable jobs, DVFS throttling of jobs started in
//!   designated windows, idle-node shutdown);
//! * [`sim`] — the event-driven simulator, linear in events: one queue
//!   pass per event over a running set ordered by expected end;
//! * [`metrics`] — mission metrics (utilization, wait, bounded slowdown)
//!   and conversion of schedules into IT/facility load series.
//!
//! The simulator is deliberately conservative: walltime *estimates* drive
//! backfill reservations, actual runtimes drive completions, and every run
//! is deterministic for a given trace.

#![warn(missing_docs)]

pub mod metrics;
pub mod policy;
pub mod sim;

pub use metrics::{JobRecord, SimOutcome};
pub use policy::{CapSchedule, Policy, PowerConstraints};
pub use sim::ScheduleSimulator;

/// Errors from schedule simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A job requests more nodes than the machine has.
    JobTooLarge {
        /// Offending job id.
        job: u64,
        /// Nodes requested.
        requested: usize,
        /// Machine size.
        machine: usize,
    },
    /// Invalid simulator parameter.
    BadParameter(String),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::JobTooLarge {
                job,
                requested,
                machine,
            } => write!(
                f,
                "job#{job} requests {requested} nodes but the machine has {machine}"
            ),
            SchedError::BadParameter(d) => write!(f, "bad parameter: {d}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SchedError>;
