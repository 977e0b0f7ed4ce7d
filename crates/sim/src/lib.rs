#![warn(missing_docs)]

//! # hadar-sim
//!
//! Round-based, trace-driven discrete-time simulator for deep-learning
//! cluster schedulers — the instrument behind every figure of the paper's
//! evaluation (§IV-A).
//!
//! The simulator advances time in fixed scheduling rounds (default 6
//! minutes). Each round it:
//!
//! 1. admits newly arrived jobs to the queue,
//! 2. asks the active [`Scheduler`] for an
//!    [`Allocation`](hadar_cluster::Allocation)
//!    (`w_{jh}^r(t)` for every job) and wall-clock-times the decision,
//! 3. validates the allocation against capacity (1d) and gang (1e)
//!    constraints,
//! 4. charges a checkpoint/restore penalty to every job whose allocation
//!    changed (the paper's 10-second default, or the calibrated
//!    [`checkpoint`] cost model),
//! 5. advances each running job by its bottleneck throughput
//!    `x_j(t) · W_j · (L − penalty)` iterations (Eq. 1a/1b), degraded by the
//!    cross-server communication factor for non-consolidated placements, and
//! 6. records per-round utilization and completion events.
//!
//! Simulations are deterministic: same cluster, trace, scheduler, and
//! configuration ⇒ identical outcomes (decision *wall times* vary, nothing
//! else).

//!
//! ```
//! use hadar_sim::{Scheduler, SchedulerContext, SimConfig, Simulation};
//! use hadar_cluster::{Allocation, Cluster, JobPlacement, MachineId};
//! use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};
//!
//! /// A trivial policy: every queued job onto machine 0's V100s, FIFO.
//! struct Greedy;
//! impl Scheduler for Greedy {
//!     fn name(&self) -> &str { "greedy" }
//!     fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
//!         let v100 = ctx.cluster.catalog().lookup("V100").unwrap();
//!         let mut free = ctx.cluster.capacity(MachineId(0), v100);
//!         let mut alloc = Allocation::empty();
//!         for s in ctx.jobs {
//!             if s.job.gang <= free {
//!                 alloc.set(s.job.id, JobPlacement::single(MachineId(0), v100, s.job.gang));
//!                 free -= s.job.gang;
//!             }
//!         }
//!         alloc
//!     }
//! }
//!
//! let cluster = Cluster::paper_simulation();
//! let jobs = generate_trace(
//!     &TraceConfig { num_jobs: 4, seed: 0, pattern: ArrivalPattern::Static },
//!     cluster.catalog(),
//! );
//! let out = Simulation::new(cluster, jobs, SimConfig::default())
//!     .run(Greedy)
//!     .expect("valid policy and config");
//! assert_eq!(out.completed_jobs(), 4);
//! assert!(hadar_sim::check_lifecycle(out.events(), 4).is_ok());
//! ```

pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod event;
mod faults;
pub mod runner;
pub mod scheduler;
pub mod stats;
pub mod telemetry;

pub use checkpoint::PreemptionPenalty;
pub use engine::{job_rate, slices_rate, SimConfig, Simulation};
pub use error::{SimError, SimResult};
pub use event::{check_lifecycle, SimEvent};
pub use faults::{FailureModel, StragglerModel};
pub use hadar_metrics::telemetry::TELEMETRY_SCHEMA;
pub use runner::{CellResult, SweepRunner};
pub use scheduler::{DecisionPhases, JobState, Scheduler, SchedulerContext};
pub use stats::{JobRecord, RoundRecord, SimOutcome};
pub use telemetry::{Telemetry, TelemetrySummary};

// The per-model unit tests of `faults`, one module per model.
#[cfg(test)]
#[path = "faults/failure_tests.rs"]
mod failure;
#[cfg(test)]
#[path = "faults/straggler_tests.rs"]
mod straggler;
