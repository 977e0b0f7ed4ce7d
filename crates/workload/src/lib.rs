#![warn(missing_docs)]

//! # hadar-workload
//!
//! DNN-training workload model and trace generation for the Hadar scheduler
//! reproduction (IPDPS 2024, §IV-A).
//!
//! The paper evaluates on 480 jobs drawn from the busiest hours of a
//! Microsoft production trace. The trace records gang size, submission time,
//! and duration but *not* model architectures, so the authors bucket jobs by
//! total GPU-time into four size classes (Small/Medium/Large/XLarge) and
//! assign each a representative model + dataset from Table II. This crate
//! implements exactly that recipe:
//!
//! * [`DlTask`] — the five Table II workloads (ResNet-50, ResNet-18, LSTM,
//!   CycleGAN, Transformer) with per-GPU-type throughputs mirroring Gavel's
//!   published heterogeneity ratios and checkpoint footprints for the
//!   preemption-overhead model (Table IV),
//! * [`SizeClass`] — the four GPU-hour buckets,
//! * [`Job`] — the scheduler-facing job record (`a_j`, `W_j`, `E_j`, `N_j`,
//!   `X_j^r`),
//! * [`ArrivalPattern`] — *static* (all at t=0) and *continuous* (Poisson)
//!   arrival processes,
//! * [`TraceConfig`] / [`generate_trace`] — the seeded synthetic trace
//!   generator, plus CSV round-tripping for reproducible experiment inputs.

//!
//! ```
//! use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};
//! use hadar_cluster::GpuCatalog;
//! let catalog = GpuCatalog::from_names(["V100", "P100", "K80"]);
//! let jobs = generate_trace(
//!     &TraceConfig { num_jobs: 8, seed: 1, pattern: ArrivalPattern::Static },
//!     &catalog,
//! );
//! assert_eq!(jobs.len(), 8);
//! assert!(jobs.iter().all(|j| j.total_iterations() > 0.0));
//! ```

pub mod arrivals;
pub mod categories;
pub mod job;
pub mod model;
pub mod stats;
pub mod throughput;
pub mod trace;

pub use arrivals::ArrivalPattern;
pub use categories::SizeClass;
pub use hadar_cluster::JobId;
pub use job::Job;
pub use model::DlTask;
pub use stats::TraceStats;
pub use throughput::ThroughputProfile;
pub use trace::{generate_trace, load_trace_csv, save_trace_csv, TraceConfig};
