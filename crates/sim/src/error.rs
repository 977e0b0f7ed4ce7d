//! Structured simulation errors.
//!
//! Bad input (an unusable config, non-dense job ids) and policy bugs
//! (allocations outside the queue or over capacity) surface as
//! [`SimError`]s rather than panics, so a failing run (or one cell of a
//! [`crate::SweepRunner`] sweep) reports a typed reason and the rest of the
//! sweep completes.

use std::fmt;

use hadar_cluster::JobId;

/// Why a simulation run could not produce a [`crate::SimOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The [`crate::SimConfig`] is unusable (non-positive round length,
    /// invalid straggler or failure model parameters, …), the trace's job
    /// ids are not dense `0..n`, or a job's gang exceeds the cluster's GPUs
    /// of the types it can run on.
    InvalidConfig(String),
    /// The scheduler allocated GPUs to a job that is not in the active set
    /// (unknown, finished, or not yet admitted).
    UnknownJobAllocated {
        /// Scheduler display name.
        scheduler: String,
        /// The offending job id.
        job: JobId,
        /// 1-based round number in which the violation occurred.
        round: u64,
    },
    /// The scheduler returned an allocation violating capacity (1d) or gang
    /// (1e) constraints.
    InvalidAllocation {
        /// Scheduler display name.
        scheduler: String,
        /// 1-based round number in which the violation occurred.
        round: u64,
        /// The validation failure, rendered.
        detail: String,
    },
    /// A sweep cell panicked; the payload is the panic message. Produced by
    /// [`crate::SweepRunner`], never by the engine itself.
    CellPanicked(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
            SimError::UnknownJobAllocated {
                scheduler,
                job,
                round,
            } => write!(
                f,
                "{scheduler}: allocated unknown/finished job {job} in round {round}"
            ),
            SimError::InvalidAllocation {
                scheduler,
                round,
                detail,
            } => write!(
                f,
                "{scheduler}: invalid allocation in round {round}: {detail}"
            ),
            SimError::CellPanicked(msg) => write!(f, "sweep cell panicked: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias used throughout the simulator.
pub type SimResult = Result<crate::SimOutcome, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::InvalidAllocation {
            scheduler: "Over".into(),
            round: 3,
            detail: "machine 0 over capacity".into(),
        };
        let s = e.to_string();
        assert!(s.contains("Over"), "{s}");
        assert!(s.contains("invalid allocation"), "{s}");
        assert!(s.contains("round 3"), "{s}");

        assert!(SimError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
        assert!(SimError::CellPanicked("boom".into())
            .to_string()
            .contains("boom"));
        assert!(SimError::UnknownJobAllocated {
            scheduler: "X".into(),
            job: JobId(1),
            round: 1
        }
        .to_string()
        .contains("unknown"));
    }
}
