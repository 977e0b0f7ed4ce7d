//! Fig. 7: scheduler decision time ("scaling of our algorithm compared to
//! Gavel") as the number of active jobs grows from 32 to 2048, with the
//! cluster scaled alongside the workload.
//!
//! Each point measures the wall-clock time of a single scheduling round
//! over a fully queued cluster: for Hadar, the dual subroutine; for Gavel,
//! its policy LP solved as a transportation problem plus the round-based
//! priority mechanism. A third column times a cold revised-simplex solve of
//! the same first-round LP: what a general LP solver (the paper's
//! cvxpy-based Gavel) pays for the policy alone.
//!
//! This is the one simulation experiment that does *not* go through the
//! [`hadar_sim::SweepRunner`]: its CSV values *are* wall-clock times, and
//! concurrent cells contending for cores would corrupt the measurement, so
//! the cells always run serially. Its CSV is correspondingly excluded from
//! the serial-vs-parallel byte-equality guarantee.

use std::time::Instant;

use hadar_baselines::GavelScheduler;
use hadar_cluster::{Cluster, GpuTypeId};
use hadar_core::{HadarConfig, HadarScheduler};
use hadar_metrics::CsvWriter;
use hadar_sim::{SimConfig, Simulation};
use hadar_solver::{total_throughput_lp, GavelLpInput};
use hadar_workload::{generate_trace, ArrivalPattern, Job, TraceConfig};

use crate::figures::{results_dir, FigureResult};

/// Cluster used for `n` jobs: grows linearly with the workload
/// (3 GPU types × `n/32` nodes × 4 GPUs ⇒ `3n/8` GPUs).
pub fn scaled_cluster(num_jobs: usize) -> Cluster {
    Cluster::scaled((num_jobs / 32).max(1))
}

/// One Fig. 7 point, in seconds.
pub struct Decision {
    /// Hadar's first scheduling round.
    pub hadar: f64,
    /// Gavel's first scheduling round (transportation solve + mechanism).
    pub gavel: f64,
    /// A cold revised-simplex solve of Gavel's first-round policy LP.
    pub gavel_lp: f64,
}

/// Measure one scheduling decision at `num_jobs`.
pub fn measure(num_jobs: usize, seed: u64) -> Decision {
    let cluster = scaled_cluster(num_jobs);
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs,
            seed,
            pattern: ArrivalPattern::Static,
        },
        cluster.catalog(),
    );
    let first_round = |scheduler: Box<dyn hadar_sim::Scheduler>| -> f64 {
        let config = SimConfig {
            max_rounds: 1,
            ..SimConfig::default()
        };
        Simulation::new(cluster.clone(), jobs.clone(), config)
            .run(scheduler)
            .expect("valid scale-probe scenario")
            .rounds[0]
            .decision_seconds
    };
    Decision {
        hadar: first_round(Box::new(HadarScheduler::new(HadarConfig::default()))),
        gavel: first_round(Box::new(GavelScheduler::paper_default())),
        gavel_lp: general_lp_seconds(&cluster, &jobs),
    }
}

/// Time a cold revised-simplex solve of the policy LP Gavel faces in the
/// first round: every job of the static trace queued, every machine up.
fn general_lp_seconds(cluster: &Cluster, jobs: &[Job]) -> f64 {
    let types = (0..cluster.num_types()).map(|r| GpuTypeId(r as u16));
    let input = GavelLpInput {
        throughput: jobs
            .iter()
            .map(|j| types.clone().map(|t| j.profile.rate(t)).collect())
            .collect(),
        gang: jobs.iter().map(|j| j.gang).collect(),
        capacity: types.clone().map(|t| cluster.total_of_type(t)).collect(),
    };
    let start = Instant::now();
    let outcome = total_throughput_lp(&input)
        .expect("well-formed policy LP")
        .solve();
    let seconds = start.elapsed().as_secs_f64();
    assert!(outcome.optimal().is_some(), "policy LP has an optimum");
    seconds
}

/// Regenerate Fig. 7.
pub fn run(quick: bool) -> FigureResult {
    let sizes: &[usize] = if quick {
        &[32, 64]
    } else {
        &[32, 64, 128, 256, 512, 1024, 2048]
    };
    let mut csv = CsvWriter::new(&[
        "jobs",
        "cluster_gpus",
        "hadar_seconds",
        "gavel_seconds",
        "gavel_lp_seconds",
    ]);
    let mut summary = String::from("Fig. 7: scheduling-decision wall time vs active jobs\n");
    for &n in sizes {
        let gpus = scaled_cluster(n).total_gpus();
        let d = measure(n, 7);
        csv.row(vec![
            n.to_string(),
            gpus.to_string(),
            format!("{:.6}", d.hadar),
            format!("{:.6}", d.gavel),
            format!("{:.6}", d.gavel_lp),
        ]);
        summary.push_str(&format!(
            "  {n:>5} jobs / {gpus:>4} GPUs: Hadar {:>9.2} ms | Gavel {:>9.2} ms | general LP {:>9.2} ms\n",
            d.hadar * 1e3,
            d.gavel * 1e3,
            d.gavel_lp * 1e3
        ));
    }
    let path = results_dir().join("fig7_scalability.csv");
    csv.write_to(&path).expect("write fig7 csv");
    FigureResult::new("fig7", summary, vec![path])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_scales_with_jobs() {
        assert_eq!(scaled_cluster(32).total_gpus(), 12);
        assert_eq!(scaled_cluster(2048).total_gpus(), 768);
        assert_eq!(scaled_cluster(8).total_gpus(), 12); // floor at scale 1
    }

    #[test]
    fn quick_run_measures_two_sizes() {
        let r = run(true);
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("jobs,cluster_gpus,hadar_seconds,gavel_seconds,gavel_lp_seconds\n"));
    }
}
