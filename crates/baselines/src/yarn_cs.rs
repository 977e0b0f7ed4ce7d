//! Apache YARN's capacity scheduler (YARN-CS), the production baseline.
//!
//! YARN-CS is what many enterprise DL clusters ran before DL-specific
//! schedulers: jobs are served FIFO and **non-preemptively** — once a job
//! starts, it holds its containers (GPUs) until completion. There is no
//! checkpoint/restart churn (hence the paper's observation that YARN-CS
//! attains the highest GPU utilization — its held GPUs never stall), but the
//! FIFO queue head blocks: when the next job's gang does not fit, everything
//! behind it waits, yielding the paper's 7–15× worse average JCT than
//! Hadar. The scheduler is heterogeneity-oblivious: it hands out whatever
//! free GPUs exist in machine order.

use hadar_cluster::{Allocation, Placer, Usage};
use hadar_sim::{Scheduler, SchedulerContext};

/// The YARN-CS baseline scheduler. It keeps no state of its own: a job is
/// running exactly when it holds a placement ([`hadar_sim::JobState::placement`]).
#[derive(Debug, Default)]
pub struct YarnCsScheduler;

impl YarnCsScheduler {
    /// Build the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for YarnCsScheduler {
    fn name(&self) -> &str {
        "YARN-CS"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        let mut placer = Placer::new(ctx.cluster, Usage::empty(ctx.cluster), |h| ctx.is_up(h));
        let mut alloc = Allocation::empty();

        // Running jobs keep their exact containers (non-preemptive). Machine
        // failures are the one event that takes containers away: the engine
        // evicts a job whose machine died by clearing its placement, so it
        // re-queues FIFO below instead of keeping phantom containers.
        let mut held = 0usize;
        for s in ctx.jobs.iter().filter(|s| s.is_running()) {
            placer.add(&s.placement);
            alloc.set(s.job.id, s.placement.clone());
            held += 1;
        }

        // Admit waiting jobs in strict FIFO order (`ctx.jobs` is in arrival
        // order); the first job whose gang does not fit blocks everything
        // behind it (single-queue capacity scheduler head-of-line behaviour,
        // no backfill).
        for s in ctx.jobs.iter().filter(|s| !s.is_running()) {
            // Heterogeneity-oblivious, consolidation-preferring container
            // placement: the machines with the most free GPUs first (YARN's
            // node-locality preference), any GPU type, never consulting
            // throughput.
            let Some(p) = placer.any_type(s.job.gang, |r| s.job.profile.rate(r) > 0.0) else {
                break;
            };
            placer.add(&p);
            alloc.set(s.job.id, p);
            held += 1;
        }
        ctx.telemetry.gauge("yarn.running", held as f64);
        let blocked = ctx.jobs.len() - held;
        ctx.telemetry.gauge("yarn.hol_blocked", blocked as f64);
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
                num_jobs: 12,
                seed: 1,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(YarnCsScheduler::new())
            .unwrap();
        assert_eq!(out.completed_jobs(), 12);
        assert!(!out.timed_out);
    }

    #[test]
    fn never_preempts() {
        // Non-preemptive ⇒ each job reallocates exactly once (its start).
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 15,
                seed: 2,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(YarnCsScheduler::new())
            .unwrap();
        for r in &out.records {
            assert_eq!(
                r.reallocations, 1,
                "job {} was moved after starting",
                r.job.id
            );
        }
    }

    #[test]
    fn fifo_start_order_among_equal_arrivals() {
        // Two 2-GPU jobs on a 2-GPU cluster: the lower id starts first.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        let j0 = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 30);
        let j1 = Job::for_model(JobId(1), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 30);
        let out = Simulation::new(cluster, vec![j0, j1], SimConfig::default())
            .run(YarnCsScheduler::new())
            .unwrap();
        let s0 = out.records[0].first_scheduled.unwrap();
        let s1 = out.records[1].first_scheduled.unwrap();
        assert!(s0 < s1, "FIFO violated: {s0} !< {s1}");
    }

    #[test]
    fn head_of_line_blocks_later_jobs() {
        // 2-GPU cluster; a running job holds 1 GPU; the head waiter needs 2
        // (blocked) — a later 1-GPU job would fit, but strict FIFO makes it
        // wait behind the head.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        let hog = Job::for_model(JobId(0), DlTask::ResNet50, cluster.catalog(), 0.0, 1, 30);
        let big = Job::for_model(JobId(1), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 30);
        let small = Job::for_model(JobId(2), DlTask::ResNet18, cluster.catalog(), 0.0, 1, 30);
        let out = Simulation::new(cluster, vec![hog, big, small], SimConfig::default())
            .run(YarnCsScheduler::new())
            .unwrap();
        assert_eq!(out.completed_jobs(), 3);
        let small_start = out.records[2].first_scheduled.unwrap();
        let big_start = out.records[1].first_scheduled.unwrap();
        assert!(
            small_start >= big_start,
            "strict FIFO violated: small started at {small_start}, head at {big_start}"
        );
    }

    #[test]
    fn failures_break_nonpreemption_but_jobs_requeue() {
        // The one exception to "never preempted": a machine death evicts its
        // jobs, which must re-enter the FIFO queue and still complete.
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 8,
                seed: 9,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        let n = jobs.len();
        let config = SimConfig {
            failure: Some(hadar_sim::FailureModel {
                mtbf_rounds: 15.0,
                mttr_rounds: 3.0,
                seed: 11,
            }),
            ..SimConfig::default()
        };
        let out = Simulation::new(cluster, jobs, config)
            .run(YarnCsScheduler::new())
            .unwrap();
        assert_eq!(out.completed_jobs(), n);
        hadar_sim::check_lifecycle(out.events(), n).unwrap();
    }

    #[test]
    fn deterministic() {
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 10,
                seed: 3,
                pattern: ArrivalPattern::paper_continuous(),
            },
            cluster.catalog(),
        );
        let run = || {
            Simulation::new(cluster.clone(), jobs.clone(), SimConfig::default())
                .run(YarnCsScheduler::new())
                .unwrap()
        };
        assert_eq!(run().jcts(), run().jcts());
    }
}
