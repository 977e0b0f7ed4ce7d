#![warn(missing_docs)]

//! # hadar-baselines
//!
//! The three baseline schedulers the paper evaluates Hadar against
//! (§IV-A), implemented from their original descriptions behind the same
//! [`hadar_sim::Scheduler`] trait:
//!
//! * [`GavelScheduler`] — Gavel (OSDI '20): *job-level* heterogeneity-aware
//!   optimization. Computes an allocation matrix `Y[j][r]` by LP (via
//!   `hadar-solver`) and serves it with round-based priorities
//!   `Y[j][r] / rounds_received[j][r]`. All tasks of a job land on a single
//!   GPU type per round — the granularity limitation Hadar removes.
//! * [`TiresiasScheduler`] — Tiresias (NSDI '19): discretized two-queue
//!   least-attained-service. Heterogeneity-*oblivious*: GPU types are
//!   interchangeable to it, and it mixes types freely. Built only as the
//!   paper configures it: two queues, `PromoteKnob` disabled.
//! * [`YarnCsScheduler`] — Apache YARN's capacity scheduler as used in
//!   production DL clusters: FIFO, non-preemptive, heterogeneity-oblivious.
//!
//! Plus one extension baseline beyond the paper:
//!
//! * [`SrtfScheduler`] — heterogeneity-aware shortest-remaining-time-first,
//!   isolating the SRPT-ordering ingredient of Hadar's advantage.
//!
//! None of them carries its own fill or occupy loop: each builds one
//! [`hadar_cluster::Placer`] per round, the most-free-first placer Hadar's
//! `FIND_ALLOC` reads too, places every gang with it (`single_type` for
//! Gavel and SRTF, `any_type` for Tiresias and YARN-CS, `fits` for a sticky
//! placement) and occupies what it admits with `Placer::add`.

//!
//! ```
//! use hadar_baselines::TiresiasScheduler;
//! use hadar_cluster::Cluster;
//! use hadar_sim::{SimConfig, Simulation};
//! use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};
//! let cluster = Cluster::paper_simulation();
//! let jobs = generate_trace(
//!     &TraceConfig { num_jobs: 5, seed: 2, pattern: ArrivalPattern::Static },
//!     cluster.catalog(),
//! );
//! let out = Simulation::new(cluster, jobs, SimConfig::default())
//!     .run(TiresiasScheduler::paper_default())
//!     .expect("valid policy and config");
//! assert_eq!(out.completed_jobs(), 5);
//! ```

pub mod gavel;
pub mod srtf;
pub mod tiresias;
pub mod yarn_cs;

pub use gavel::GavelScheduler;
pub use srtf::SrtfScheduler;
pub use tiresias::TiresiasScheduler;
pub use yarn_cs::YarnCsScheduler;
