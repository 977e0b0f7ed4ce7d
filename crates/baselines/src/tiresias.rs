//! Tiresias (Gu et al., NSDI '19), the heterogeneity-oblivious baseline.
//!
//! Tiresias ranks jobs by *discretized two-dimensional least attained
//! service* (2D-LAS): attained service = GPUs × accumulated run time. Jobs
//! whose attained service is below a threshold sit in the high-priority
//! queue; past it they demote to the low-priority queue. Within a queue,
//! ordering is FIFO by arrival. Scheduling is preemptive; the paper
//! configures two queues with the `PromoteKnob` disabled (no re-promotion),
//! which is the only configuration built here.
//!
//! Tiresias has no notion of GPU heterogeneity: it takes whatever free GPUs
//! exist, mixing types, so a gang can straddle fast and slow types and run
//! at the slow type's rate — the failure mode Hadar's task-level awareness
//! avoids.

use hadar_cluster::{Allocation, JobPlacement, Placer, Usage};
use hadar_sim::{JobState, Scheduler, SchedulerContext};

/// Attained-service threshold (GPU-seconds) separating the two queues:
/// 10 GPU-hours, the boundary between the trace's Small/Medium classes and
/// its Large/XLarge classes, in line with the original paper's queue tuning
/// (short jobs complete entirely at high priority; only long jobs demote).
const QUEUE_THRESHOLD_GPU_SECONDS: f64 = 36_000.0;

/// The Tiresias baseline scheduler.
#[derive(Debug, Default)]
pub struct TiresiasScheduler;

impl TiresiasScheduler {
    /// The paper's configuration: two queues, `PromoteKnob` disabled.
    pub fn paper_default() -> Self {
        Self
    }

    /// Queue index of a job: 0 (high priority) below the threshold, 1 after
    /// demotion.
    fn queue_of(s: &JobState) -> usize {
        usize::from(s.attained_service() >= QUEUE_THRESHOLD_GPU_SECONDS)
    }

    /// Heterogeneity-oblivious placement: keep a running job on its GPUs
    /// when they are still free on live machines, otherwise fill any usable
    /// type, most-free machines first (Tiresias ships a consolidating
    /// placement component); per-type throughput is never consulted.
    fn place(ctx: &SchedulerContext<'_>, usage: &Usage, s: &JobState) -> Option<JobPlacement> {
        let placer = Placer::new(ctx.cluster, usage, move |h| ctx.is_up(h));
        if !s.placement.is_empty() && placer.fits(&s.placement) {
            return Some(s.placement.clone());
        }
        // Unusable types (rate 0) would stall the gang forever.
        placer.any_type(s.job.gang, |r| s.job.profile.rate(r) > 0.0)
    }
}

impl Scheduler for TiresiasScheduler {
    fn name(&self) -> &str {
        "Tiresias"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        // Priority order: queue 0 before queue 1, FIFO (arrival, then id)
        // within each queue.
        let mut order: Vec<usize> = (0..ctx.jobs.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&ctx.jobs[a], &ctx.jobs[b]);
            Self::queue_of(sa)
                .cmp(&Self::queue_of(sb))
                .then(
                    sa.job
                        .arrival
                        .partial_cmp(&sb.job.arrival)
                        .expect("finite arrivals"),
                )
                .then(sa.job.id.cmp(&sb.job.id))
        });
        if ctx.telemetry.is_enabled() {
            let high = ctx.jobs.iter().filter(|s| Self::queue_of(s) == 0).count();
            ctx.telemetry.gauge("tiresias.queue_high", high as f64);
            ctx.telemetry
                .gauge("tiresias.queue_low", (ctx.jobs.len() - high) as f64);
        }

        let mut usage = Usage::empty(ctx.cluster);
        let mut alloc = Allocation::empty();
        for idx in order {
            let s = &ctx.jobs[idx];
            if let Some(p) = Self::place(ctx, &usage, s) {
                for sl in p.slices() {
                    usage.add(sl.machine, sl.gpu, sl.count);
                }
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
                num_jobs: 12,
                seed: 1,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(TiresiasScheduler::paper_default())
            .unwrap();
        assert_eq!(out.completed_jobs(), 12);
        assert!(!out.timed_out);
    }

    #[test]
    fn short_jobs_preempt_demoted_long_jobs() {
        // One huge job saturates the cluster past the LAS threshold; a short
        // job arriving later must still finish quickly (queue-0 priority).
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        // Long job: ~25 000 s of work on 2 GPUs; it demotes once attained
        // service passes 36 000 GPU-s (t = 18 000 s).
        let long = Job::for_model(JobId(0), DlTask::ResNet50, cluster.catalog(), 0.0, 2, 300);
        // Arrives after the long job has demoted to queue 1.
        let short = Job::for_model(
            JobId(1),
            DlTask::ResNet18,
            cluster.catalog(),
            19_000.0,
            2,
            20,
        );
        let short_solo = short.min_runtime();
        let out = Simulation::new(cluster, vec![long, short], SimConfig::default())
            .run(TiresiasScheduler::paper_default())
            .unwrap();
        assert_eq!(out.completed_jobs(), 2);
        let short_jct = out.records[1].jct().unwrap();
        // The short job should run promptly after arrival, not wait for the
        // long job's multi-hour tail: allow round quantization + checkpoint.
        assert!(
            short_jct < short_solo + 2.0 * 360.0 + 20.0,
            "short job waited too long: jct={short_jct}, solo={short_solo}"
        );
    }

    #[test]
    fn queue_demotion_at_threshold() {
        let cluster = Cluster::paper_simulation();
        let job = Job::for_model(JobId(0), DlTask::Lstm, cluster.catalog(), 0.0, 4, 100);
        let mut state = JobState::new(job);
        assert_eq!(TiresiasScheduler::queue_of(&state), 0);
        state.service_seconds = 8_999.9; // 4 GPUs × 8999.9 s < 36 000 GPU-s
        assert_eq!(TiresiasScheduler::queue_of(&state), 0);
        state.service_seconds = 9_000.1;
        assert_eq!(TiresiasScheduler::queue_of(&state), 1);
    }

    #[test]
    fn oblivious_placement_can_mix_types() {
        // 1 V100 + 1 K80 and a gang of 2: Tiresias happily straddles both,
        // running at the K80's rate.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        let k80 = b.gpu_type("K80");
        b.machine(&[(v100, 1)]);
        b.machine(&[(k80, 1)]);
        let cluster = b.build();
        let job = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 50);
        let k80_paced = job.total_iterations() / (2.0 * job.profile.rate(k80));
        let out = Simulation::new(cluster, vec![job], SimConfig::default())
            .run(TiresiasScheduler::paper_default())
            .unwrap();
        let jct = out.records[0].jct().unwrap();
        // Bottlenecked by the K80 (plus checkpoint + comm degradation), far
        // slower than if it were V100-only.
        assert!(jct >= k80_paced, "jct={jct} vs k80 pace {k80_paced}");
    }

    #[test]
    fn completes_with_machine_failures() {
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 8,
                seed: 8,
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
            .run(TiresiasScheduler::paper_default())
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
                seed: 7,
                pattern: ArrivalPattern::paper_continuous(),
            },
            cluster.catalog(),
        );
        let run = || {
            Simulation::new(cluster.clone(), jobs.clone(), SimConfig::default())
                .run(TiresiasScheduler::paper_default())
                .unwrap()
        };
        assert_eq!(run().jcts(), run().jcts());
    }
}
