#![warn(missing_docs)]

//! # hadar-core
//!
//! The Hadar scheduler (Sultana et al., IPDPS 2024): a *task-level*
//! heterogeneity-aware online scheduler for deep-learning clusters, built on
//! an online primal–dual optimization framework.
//!
//! ## How it works
//!
//! Each scheduling round (Algorithm 1):
//!
//! 1. [`price`] computes per-type utility bounds `U_max^r` / `U_min^r`
//!    (Eqs. 6–8) over the current queue and exposes the exponential resource
//!    price `k_h^r(γ) = U_min (U_max/U_min)^(γ/c)` (Eq. 5). The price starts
//!    low enough to admit any job on an idle server and rises to `U_max` as
//!    the server fills, pricing low-utility jobs out — the mechanism behind
//!    the `2α` competitive ratio (Theorem 2), exposed via
//!    [`price::CompetitiveBound`].
//! 2. [`find_alloc`] (Algorithm 2's `FIND_ALLOC`) enumerates candidate
//!    placements for one job — homogeneous or *mixed-type* (the task-level
//!    flexibility Gavel lacks), consolidated or spread across servers (with
//!    communication cost) — prices each against the current usage, and
//!    returns the best positive-payoff candidate
//!    `μ_j = U_j(f̂_j − a_j) − Σ k_h^r w_{jh}^r`.
//! 3. [`dp`] (Algorithm 2's `DP_allocation`) selects the subset of queued
//!    jobs maximizing total payoff, by memoized dynamic programming over
//!    (queue index, cluster-usage state) for small queues and by a
//!    single-pass greedy in utility-density order for large ones.
//! 4. [`scheduler::HadarScheduler`] glues it together behind the simulator's
//!    `Scheduler` trait, keeping placements sticky when moving a job would
//!    not pay for its checkpoint-restart cost.
//!
//! The framework is objective-generic: any [`utility::Utility`] can be
//! plugged in, expressing average-JCT, makespan, or finish-time-fairness
//! policies (§III-A "expressing other scheduling policies").

//!
//! ```
//! use hadar_core::{HadarConfig, HadarScheduler};
//! use hadar_cluster::Cluster;
//! use hadar_sim::{SimConfig, Simulation};
//! use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};
//! let cluster = Cluster::paper_simulation();
//! let jobs = generate_trace(
//!     &TraceConfig { num_jobs: 6, seed: 3, pattern: ArrivalPattern::Static },
//!     cluster.catalog(),
//! );
//! let mut hadar = HadarScheduler::new(HadarConfig::default());
//! let out = Simulation::new(cluster, jobs, SimConfig::default())
//!     .run(&mut hadar)
//!     .expect("valid policy and config");
//! assert_eq!(out.completed_jobs(), 6);
//! // The Theorem 2 bound of the last round's prices:
//! assert!(hadar.last_competitive_bound().unwrap().ratio >= 2.0);
//! ```

pub mod config;
pub mod dp;
pub mod estimate;
pub mod find_alloc;
pub mod price;
pub mod profiler;
pub mod scheduler;
pub mod theory;
pub mod utility;

pub use config::{AllocMode, HadarConfig};
pub use find_alloc::Features;
pub use price::{CompetitiveBound, PriceShape, PriceState};
pub use profiler::ThroughputEstimator;
pub use scheduler::HadarScheduler;
pub use theory::{audit_round, RoundAudit};
pub use utility::{EffectiveThroughput, FtfUtility, MinMakespan, Utility, UtilityKind};
