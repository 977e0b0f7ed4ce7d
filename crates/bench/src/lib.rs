#![warn(missing_docs)]

//! # hadar-bench
//!
//! The experiment harness: everything needed to regenerate every table and
//! figure of the paper's evaluation section (see DESIGN.md §7 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results).
//!
//! `cargo run --release -p hadar-bench --bin all_experiments [-- --quick]`
//! runs the whole suite ([`figures::run_all`]) and writes its CSV series
//! under `results/`.

pub mod experiments;
pub mod figures;
pub mod scenarios;

pub use experiments::{run_scenario, run_scenario_with_telemetry, SchedulerKind};
pub use scenarios::{paper_sim_scenario, Scenario};
