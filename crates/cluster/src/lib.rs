#![warn(missing_docs)]

//! # hadar-cluster
//!
//! Heterogeneous GPU-cluster model underlying the Hadar scheduler
//! (Sultana et al., *Hadar: Heterogeneity-Aware Optimization-Based Online
//! Scheduling for Deep Learning Cluster*, IPDPS 2024).
//!
//! The paper's system model (§III-A) describes a cluster of machines
//! `h ∈ [H]`, each holding `c_h^r` accelerators of type `r ∈ [R]`. This crate
//! provides that model plus the bookkeeping every scheduler in the workspace
//! shares:
//!
//! * [`GpuTypeId`] / [`GpuCatalog`] — interned accelerator types,
//! * [`Machine`] / [`Cluster`] — capacities `c_h^r` and standard topologies,
//! * [`JobPlacement`] / [`Allocation`] — the per-round decision
//!   `w_{jh}^r(t)`, i.e. how many type-`r` GPUs on machine `h` each job gets,
//! * [`Usage`] — the occupied-counts view `γ_h^r(t)` used by the
//!   price function of the primal–dual framework,
//! * [`Placer`] — the most-free-first gang fill every policy places with,
//! * [`CommCostModel`] — the cross-server communication penalty applied to
//!   non-consolidated placements in Algorithm 2's `FIND_ALLOC`.
//!
//! The crate is dependency-free and deterministic; all randomness lives in
//! `hadar-workload`.

//!
//! ```
//! use hadar_cluster::{ClusterBuilder, JobId, JobPlacement, Allocation};
//! let mut b = ClusterBuilder::new();
//! let v100 = b.gpu_type("V100");
//! let k80 = b.gpu_type("K80");
//! let h0 = b.machine(&[(v100, 4)]);
//! let h1 = b.machine(&[(k80, 2)]);
//! let cluster = b.build();
//!
//! // Place a 3-worker gang across both machines (mixed types).
//! let mut alloc = Allocation::empty();
//! alloc.set(JobId(0), JobPlacement::from_slices([
//!     hadar_cluster::PlacementSlice { machine: h0, gpu: v100, count: 2 },
//!     hadar_cluster::PlacementSlice { machine: h1, gpu: k80, count: 1 },
//! ]));
//! assert!(alloc.validate(&cluster, |_| 3).is_ok());
//! ```

pub mod allocation;
pub mod availability;
pub mod catalog;
pub mod cluster;
pub mod comm;
pub mod machine;
pub mod placer;
pub mod usage;

pub use allocation::{Allocation, JobPlacement, PlacementSlice};
pub use availability::Availability;
pub use catalog::{GpuCatalog, GpuTypeId};
pub use cluster::{Cluster, ClusterBuilder};
pub use comm::CommCostModel;
pub use machine::{Machine, MachineId};
pub use placer::Placer;
pub use usage::Usage;

/// Identifier of a job, assigned by the workload layer.
///
/// Jobs are dense small integers within one simulation; `JobId` is used as an
/// index into per-job vectors throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

impl JobId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "J{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_display_and_index() {
        let j = JobId(7);
        assert_eq!(j.index(), 7);
        assert_eq!(j.to_string(), "J7");
    }

    #[test]
    fn job_id_ordering_is_numeric() {
        assert!(JobId(2) < JobId(10));
    }
}
