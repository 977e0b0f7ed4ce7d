#![warn(missing_docs)]

//! # hadar
//!
//! Facade crate re-exporting the whole Hadar workspace: the
//! heterogeneity-aware optimization-based online scheduler for deep-learning
//! clusters (IPDPS 2024) together with its substrates (cluster model,
//! workload generator, LP solver, simulator), the baseline schedulers it is
//! evaluated against, and the metrics layer.
//!
//! ## Quickstart
//!
//! ```
//! use hadar::prelude::*;
//!
//! // The paper's simulated cluster: 15 nodes, 20 each of V100/P100/K80.
//! let cluster = Cluster::paper_simulation();
//! // A small seeded trace.
//! let trace = generate_trace(
//!     &TraceConfig { num_jobs: 12, seed: 7, pattern: ArrivalPattern::Static },
//!     cluster.catalog(),
//! );
//! // Run Hadar on it.
//! let scheduler = HadarScheduler::new(HadarConfig::default());
//! let outcome = Simulation::new(cluster, trace, SimConfig::default())
//!     .run(scheduler)
//!     .expect("valid policy and config");
//! assert_eq!(outcome.completed_jobs(), 12);
//! println!("avg JCT = {:.1}s", outcome.mean_jct());
//! ```

pub use hadar_baselines as baselines;
pub use hadar_cluster as cluster;
pub use hadar_core as core;
pub use hadar_metrics as metrics;
pub use hadar_sim as sim;
pub use hadar_solver as solver;
pub use hadar_workload as workload;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use hadar_baselines::{GavelScheduler, TiresiasScheduler, YarnCsScheduler};
    pub use hadar_cluster::{
        Allocation, Cluster, ClusterBuilder, GpuCatalog, GpuTypeId, JobId, JobPlacement, MachineId,
        Usage,
    };
    pub use hadar_core::{HadarConfig, HadarScheduler};
    pub use hadar_metrics::SummaryStats;
    pub use hadar_sim::{FailureModel, SimConfig, SimError, SimOutcome, SimResult, Simulation};
    pub use hadar_workload::{
        generate_trace, ArrivalPattern, DlTask, Job, SizeClass, ThroughputProfile, TraceConfig,
    };
}
