//! SRTF: a heterogeneity-aware shortest-remaining-time-first baseline.
//!
//! Not one of the paper's comparison points — included as an *extension*
//! baseline that isolates one ingredient of Hadar's advantage. SRTF orders
//! jobs by their remaining best-case runtime and places each gang on its
//! fastest available single GPU type (falling back to the next type, never
//! mixing). It is preemptive and type-aware but has no prices, no payoff
//! filter, no task-level mixing, and no communication/checkpoint reasoning —
//! comparing it against Hadar shows how much of the gap pure SRPT ordering
//! closes on its own (most of it under light contention; Hadar pulls ahead
//! when fragmentation makes mixed placements and price-based admission
//! matter).

use hadar_cluster::{Allocation, JobPlacement, Placer, Usage};
use hadar_sim::{JobState, Scheduler, SchedulerContext};

/// The SRTF extension baseline.
#[derive(Debug, Default)]
pub struct SrtfScheduler;

impl SrtfScheduler {
    /// Build the scheduler.
    pub fn new() -> Self {
        Self
    }

    /// Place the gang on the fastest single type with enough free GPUs
    /// (most-free machines first), keeping the current placement when still
    /// free and still on the job's fastest feasible type.
    fn place(placer: &Placer<'_>, s: &JobState) -> Option<JobPlacement> {
        s.job.profile.types_by_preference().iter().find_map(|&r| {
            // Sticky shortcut: if the current placement is exactly this
            // type, still free, and on live machines, keep it.
            if !s.placement.is_empty()
                && s.placement.slices().iter().all(|sl| sl.gpu == r)
                && placer.fits(&s.placement)
            {
                return Some(s.placement.clone());
            }
            placer.single_type(r, s.job.gang)
        })
    }
}

impl Scheduler for SrtfScheduler {
    fn name(&self) -> &str {
        "SRTF"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        // Shortest remaining best-case runtime first, lower id on ties; a job
        // with no usable type (best rate 0) divides to +∞ and goes last.
        let mut order: Vec<(f64, &JobState)> = ctx
            .jobs
            .iter()
            .map(|s| (s.remaining_iters / s.job.best_rate(), s))
            .collect();
        order.sort_unstable_by(|(ta, a), (tb, b)| ta.total_cmp(tb).then(a.job.id.cmp(&b.job.id)));

        let mut placer = Placer::new(ctx.cluster, Usage::empty(ctx.cluster), |h| ctx.is_up(h));
        let mut alloc = Allocation::empty();
        for (_, s) in order {
            // With no GPU free on an up machine, no later job fits or keeps
            // its placement.
            if placer.up_free() == 0 {
                break;
            }
            if let Some(p) = Self::place(&placer, s) {
                if ctx.telemetry.is_enabled() {
                    // Did the gang land on the job's fastest type, or did
                    // contention push it down the preference list?
                    let preferred = s.job.profile.types_by_preference().first().copied();
                    if preferred.is_some_and(|r| p.slices().iter().all(|sl| sl.gpu == r)) {
                        ctx.telemetry.incr("srtf.placed_preferred", 1.0);
                    } else {
                        ctx.telemetry.incr("srtf.placed_fallback", 1.0);
                    }
                }
                placer.add(&p);
                alloc.set(s.job.id, p);
            }
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar_cluster::{Cluster, JobId};
    use hadar_sim::{SimConfig, Simulation};
    use hadar_workload::{generate_trace, ArrivalPattern, DlTask, Job, TraceConfig};

    #[test]
    fn completes_static_trace() {
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 16,
                seed: 1,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(SrtfScheduler::new())
            .unwrap();
        assert_eq!(out.completed_jobs(), 16);
        assert!(!out.timed_out);
    }

    #[test]
    fn shortest_job_runs_first_under_contention() {
        // One 2-GPU machine; a long and a short job arrive together: the
        // short one must start first.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        let long = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 500);
        let short = Job::for_model(JobId(1), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 10);
        let out = Simulation::new(cluster, vec![long, short], SimConfig::default())
            .run(SrtfScheduler::new())
            .unwrap();
        let (s0, s1) = (
            out.records[0].first_scheduled.unwrap(),
            out.records[1].first_scheduled.unwrap(),
        );
        assert!(s1 < s0, "short started at {s1}, long at {s0}");
    }

    #[test]
    fn prefers_fastest_type() {
        let cluster = Cluster::paper_simulation();
        let job = Job::for_model(JobId(0), DlTask::ResNet50, cluster.catalog(), 0.0, 4, 5);
        let v100_time = job.min_runtime();
        let out = Simulation::new(cluster, vec![job], SimConfig::default())
            .run(SrtfScheduler::new())
            .unwrap();
        let jct = out.records[0].jct().unwrap();
        // Ran on V100s (plus one checkpoint stall): far faster than P100/K80.
        assert!(
            jct < v100_time + 360.0 + 15.0,
            "jct={jct}, v100={v100_time}"
        );
    }

    #[test]
    fn completes_with_machine_failures() {
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 8,
                seed: 10,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        let n = jobs.len();
        let config = SimConfig {
            failure: Some(hadar_sim::FailureModel {
                mtbf_rounds: 20.0,
                mttr_rounds: 3.0,
                seed: 11,
            }),
            ..SimConfig::default()
        };
        let out = Simulation::new(cluster, jobs, config)
            .run(SrtfScheduler::new())
            .unwrap();
        assert_eq!(out.completed_jobs(), n);
        hadar_sim::check_lifecycle(out.events(), n).unwrap();
    }

    #[test]
    fn never_mixes_types() {
        // Gang of 2 with only a mixed pair free can never be placed.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        let k80 = b.gpu_type("K80");
        b.machine(&[(v100, 1)]);
        b.machine(&[(k80, 1)]);
        let cluster = b.build();
        let job = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 5);
        let config = SimConfig {
            max_rounds: 10,
            ..SimConfig::default()
        };
        let out = Simulation::new(cluster, vec![job], config)
            .run(SrtfScheduler::new())
            .unwrap();
        assert!(out.timed_out);
        assert_eq!(out.completed_jobs(), 0);
    }
}
