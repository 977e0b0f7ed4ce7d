//! Scheduler factory and shared run helpers for the experiment binaries.

use hadar_baselines::{
    GavelConfig, GavelPolicy, GavelScheduler, SrtfScheduler, TiresiasScheduler, YarnCsScheduler,
};
use hadar_cluster::Cluster;
use hadar_core::{FtfUtility, HadarConfig, HadarScheduler, MinMakespan, UtilityKind};
use hadar_sim::{Scheduler, SimConfig, SimResult, Simulation, Telemetry};
use hadar_workload::Job;

/// The schedulers compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Hadar with its default (effective-throughput) objective.
    Hadar,
    /// Hadar expressing the makespan-minimization policy (Fig. 6).
    HadarMakespan,
    /// Hadar expressing the finish-time-fairness policy.
    HadarFtf,
    /// Gavel with the max-total-throughput objective (the paper's setting).
    Gavel,
    /// Gavel with its max-min fairness (LAS) policy.
    GavelMaxMin,
    /// Tiresias, two queues, PromoteKnob off.
    Tiresias,
    /// YARN capacity scheduler.
    YarnCs,
    /// Extension baseline: heterogeneity-aware SRTF (not in the paper).
    Srtf,
}

impl SchedulerKind {
    /// The four schedulers of the headline comparisons (Figs. 3–4).
    pub const HEADLINE: [SchedulerKind; 4] = [
        SchedulerKind::Hadar,
        SchedulerKind::Gavel,
        SchedulerKind::Tiresias,
        SchedulerKind::YarnCs,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Hadar => "Hadar",
            SchedulerKind::HadarMakespan => "Hadar (makespan)",
            SchedulerKind::HadarFtf => "Hadar (FTF)",
            SchedulerKind::Gavel => "Gavel",
            SchedulerKind::GavelMaxMin => "Gavel (max-min)",
            SchedulerKind::Tiresias => "Tiresias",
            SchedulerKind::YarnCs => "YARN-CS",
            SchedulerKind::Srtf => "SRTF",
        }
    }

    /// Instantiate the scheduler. `cluster`/`n_jobs` parameterize the
    /// FTF-objective variant.
    pub fn build(self, cluster: &Cluster, n_jobs: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Hadar => Box::new(HadarScheduler::new(HadarConfig::default())),
            SchedulerKind::HadarMakespan => Box::new(HadarScheduler::new(
                HadarConfig::with_utility(UtilityKind::MinMakespan(MinMakespan::default())),
            )),
            SchedulerKind::HadarFtf => Box::new(HadarScheduler::new(HadarConfig::with_utility(
                UtilityKind::Ftf(FtfUtility::new(cluster.clone(), n_jobs)),
            ))),
            SchedulerKind::Gavel => Box::new(GavelScheduler::paper_default()),
            SchedulerKind::GavelMaxMin => Box::new(GavelScheduler::new(GavelConfig {
                policy: GavelPolicy::MaxMinFairness,
                ..GavelConfig::default()
            })),
            SchedulerKind::Tiresias => Box::new(TiresiasScheduler::paper_default()),
            SchedulerKind::YarnCs => Box::new(YarnCsScheduler::new()),
            SchedulerKind::Srtf => Box::new(SrtfScheduler::new()),
        }
    }
}

/// Run one simulation of `kind` over `jobs` on `cluster`. A bad
/// configuration or an invalid allocation surfaces as a [`hadar_sim::SimError`]
/// for the caller (typically a sweep cell) to report.
pub fn run_scenario(
    cluster: Cluster,
    jobs: Vec<Job>,
    config: SimConfig,
    kind: SchedulerKind,
) -> SimResult {
    run_scenario_with_telemetry(cluster, jobs, config, kind, Telemetry::disabled())
}

/// [`run_scenario`] with an explicit telemetry sink. Pass
/// [`Telemetry::enabled`] to record the per-round JSONL stream (read it
/// back via `SimOutcome::telemetry_stream`); an observing sink never
/// changes the simulated schedule.
pub fn run_scenario_with_telemetry(
    cluster: Cluster,
    jobs: Vec<Job>,
    config: SimConfig,
    kind: SchedulerKind,
    telemetry: Telemetry,
) -> SimResult {
    let n = jobs.len();
    let scheduler = kind.build(&cluster, n);
    let mut outcome =
        Simulation::new(cluster, jobs, config).run_with_telemetry(scheduler, telemetry)?;
    // Label with the comparison name (e.g. distinguish Hadar variants).
    outcome.scheduler = kind.name().to_owned();
    Ok(outcome)
}

/// The directory experiment binaries write CSVs to: `HADAR_RESULTS_DIR`,
/// else `results` under the working directory. The crate's unit tests run
/// the figures in quick mode and write to a per-process temp directory
/// instead, so a test run never touches checked-in results.
pub fn results_dir() -> std::path::PathBuf {
    if cfg!(test) {
        return std::env::temp_dir().join(format!("hadar-bench-test-{}", std::process::id()));
    }
    std::path::PathBuf::from(
        std::env::var("HADAR_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned()),
    )
}

/// Build the sweep runner for an experiment binary from its raw arguments:
/// `--threads N` (N ≥ 1; 1 = strict serial) forces the worker count,
/// otherwise `HADAR_THREADS` or the machine's available parallelism
/// (capped at 16) decides. Exits with an error on a malformed value.
pub fn runner_from_cli(args: &[String]) -> hadar_sim::SweepRunner {
    let Some(i) = args.iter().position(|a| a == "--threads") else {
        return hadar_sim::SweepRunner::from_env();
    };
    match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => hadar_sim::SweepRunner::new(n),
        _ => {
            eprintln!("error: --threads expects a positive integer");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

    #[test]
    fn every_kind_builds_and_runs() {
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 6,
                seed: 9,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        for kind in [
            SchedulerKind::Hadar,
            SchedulerKind::HadarMakespan,
            SchedulerKind::HadarFtf,
            SchedulerKind::Gavel,
            SchedulerKind::GavelMaxMin,
            SchedulerKind::Tiresias,
            SchedulerKind::YarnCs,
            SchedulerKind::Srtf,
        ] {
            let out = run_scenario(cluster.clone(), jobs.clone(), SimConfig::default(), kind)
                .expect("valid scenario");
            assert_eq!(out.completed_jobs(), 6, "{}", kind.name());
            assert_eq!(out.scheduler, kind.name());
        }
    }
}
