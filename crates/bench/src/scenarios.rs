//! Canonical evaluation scenarios (cluster + trace + sim parameters).

use hadar_cluster::{Cluster, JobId};
use hadar_sim::SimConfig;
use hadar_workload::{generate_trace, ArrivalPattern, DlTask, Job, TraceConfig};

/// A fully specified experiment input.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Cluster topology.
    pub cluster: Cluster,
    /// The trace.
    pub jobs: Vec<Job>,
    /// Simulator parameters.
    pub config: SimConfig,
}

/// The paper's simulation setup (§IV-A): 15 nodes / 60 GPUs, `num_jobs`
/// trace jobs, 6-minute rounds, 10-second reallocation penalty.
///
/// The paper uses 480 jobs; smaller counts are used by quicker experiments
/// and tests (pass 480 for the full-figure runs).
pub fn paper_sim_scenario(num_jobs: usize, seed: u64, pattern: ArrivalPattern) -> Scenario {
    let cluster = Cluster::paper_simulation();
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs,
            seed,
            pattern,
        },
        cluster.catalog(),
    );
    Scenario {
        cluster,
        jobs,
        config: SimConfig::default(),
    }
}

/// The prototype workload of §IV-B / Table III: the 8-GPU AWS cluster with
/// 10 jobs of mixed models and gang sizes.
pub fn aws_prototype_scenario(seed: u64) -> Scenario {
    let cluster = Cluster::paper_aws_prototype();
    // "10 jobs of different models and sizes (GPU demands) from Table II".
    // Gangs are small (8 single-GPU instances); epochs scaled so the run
    // lasts hours like the prototype experiment (downscaled ImageNet).
    // Heavy-tailed mix mirroring the prototype run: three long trainings
    // (downscaled-ImageNet ResNet-50 and friends) plus seven sub-hour jobs.
    let specs: [(DlTask, u32, u64); 10] = [
        (DlTask::ResNet50, 2, 110),
        (DlTask::ResNet18, 2, 7_000),
        (DlTask::Lstm, 2, 700),
        (DlTask::ResNet18, 1, 600),
        (DlTask::CycleGan, 1, 30),
        (DlTask::Transformer, 1, 120),
        (DlTask::Lstm, 1, 90),
        (DlTask::CycleGan, 2, 40),
        (DlTask::Transformer, 2, 250),
        (DlTask::ResNet50, 1, 12),
    ];
    // Deterministic small stagger in arrivals (jobs submitted over ~15 min).
    let jobs = specs
        .iter()
        .enumerate()
        .map(|(i, &(model, gang, epochs))| {
            let arrival = ((i as u64 * 7 + seed) % 10) as f64 * 90.0;
            Job::for_model(
                JobId(i as u32),
                model,
                cluster.catalog(),
                arrival,
                gang,
                epochs,
            )
        })
        .collect();
    Scenario {
        cluster,
        jobs,
        config: SimConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_shapes() {
        let s = paper_sim_scenario(480, 1, ArrivalPattern::Static);
        assert_eq!(s.jobs.len(), 480);
        assert_eq!(s.cluster.total_gpus(), 60);
        assert_eq!(s.config.round_length, 360.0);
    }

    #[test]
    fn aws_scenario_shapes() {
        let s = aws_prototype_scenario(0);
        assert_eq!(s.jobs.len(), 10);
        assert_eq!(s.cluster.total_gpus(), 8);
        // Every gang fits the 8-GPU cluster.
        assert!(s.jobs.iter().all(|j| j.gang <= 2));
    }

    #[test]
    fn scenarios_deterministic() {
        let a = paper_sim_scenario(50, 3, ArrivalPattern::paper_continuous());
        let b = paper_sim_scenario(50, 3, ArrivalPattern::paper_continuous());
        assert_eq!(a.jobs, b.jobs);
    }
}
