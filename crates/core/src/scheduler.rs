//! The online Hadar scheduler (Algorithm 1) behind the simulator's
//! [`Scheduler`] trait.

use std::time::Instant;

use hadar_cluster::{Allocation, JobId, Usage};
use hadar_sim::{DecisionPhases, JobState, Scheduler, SchedulerContext};
use hadar_workload::Job;

use crate::config::{AllocMode, HadarConfig, DP_MAX_QUEUE};
use crate::dp::{dp_allocation, greedy_allocation, Selection};
use crate::find_alloc::AllocEnv;
use crate::price::{CompetitiveBound, PriceState};
use crate::profiler::ThroughputEstimator;

/// The Hadar scheduler.
///
/// Per round it (re)computes the dual prices from the queue (Eqs. 5–8), runs
/// the dual subroutine (DP or greedy, [`AllocMode`]) to pick the
/// payoff-maximizing job subset and task-level placements, and returns the
/// resulting allocation. Jobs it leaves out simply wait — their payoff was
/// non-positive at current prices, i.e. the cluster is better used by
/// others this round.
pub struct HadarScheduler {
    config: HadarConfig,
    estimator: Option<ThroughputEstimator>,
    last_bound: Option<CompetitiveBound>,
    /// Whether every queued job was placed by the last full optimization
    /// (incremental mode, §IV-A-5).
    cached_all_placed: bool,
    /// Set on every arrival/completion notification, cleared after a full
    /// re-optimization. Arrivals and completions are the only events that
    /// change the job set, so while this is clear the queue is the one the
    /// last full optimization saw.
    dirty: bool,
    /// Phase breakdown of the most recent decision (for the engine's
    /// round record).
    last_phases: Option<DecisionPhases>,
}

impl HadarScheduler {
    /// Build from a configuration.
    pub fn new(config: HadarConfig) -> Self {
        let estimator = config.profiling_seed.map(ThroughputEstimator::new);
        Self {
            config,
            estimator,
            last_bound: None,
            cached_all_placed: false,
            dirty: true,
            last_phases: None,
        }
    }

    /// The Theorem 2 competitive bound computed from the most recent round's
    /// prices (`None` before the first round).
    pub fn last_competitive_bound(&self) -> Option<CompetitiveBound> {
        self.last_bound
    }
}

fn run_subroutine(
    alloc_mode: AllocMode,
    queue: &[&JobState],
    env: &AllocEnv<'_>,
    usage: &Usage,
) -> Selection {
    if alloc_mode == AllocMode::Auto && queue.len() <= DP_MAX_QUEUE {
        dp_allocation(queue, env, usage)
    } else {
        greedy_allocation(queue, env, usage)
    }
}

impl Scheduler for HadarScheduler {
    fn name(&self) -> &str {
        "Hadar"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        // Incremental update policy (§IV-A-5): "rather than recomputing the
        // allocation in every scheduling round, the scheduler computes the
        // allocation with the new incoming job while the existing jobs are
        // still in the running state." When the job set is unchanged since
        // the last full optimization, every queued job already holds a
        // placement, and no machine is straggling, simply renew the current
        // placements.
        if self.config.incremental
            && !self.dirty
            && self.cached_all_placed
            && ctx.machine_factors.iter().all(|&f| f >= 1.0)
            && ctx.jobs.iter().all(|s| s.is_running())
        {
            let mut alloc = Allocation::empty();
            for s in ctx.jobs {
                alloc.set(s.job.id, s.placement.clone());
            }
            self.last_phases = Some(DecisionPhases {
                reused: true,
                ..DecisionPhases::default()
            });
            return alloc;
        }
        // Profiling phase: substitute noisy estimates for under-observed
        // jobs, then mark this round as observed.
        let profiled_states: Option<Vec<JobState>> = self.estimator.as_mut().map(|est| {
            let states = ctx
                .jobs
                .iter()
                .map(|s| {
                    let mut s2 = s.clone();
                    s2.job.profile = est.profile_for(&s.job);
                    s2
                })
                .collect();
            for s in ctx.jobs {
                est.observe(s.job.id);
            }
            states
        });
        let states: &[JobState] = profiled_states.as_deref().unwrap_or(ctx.jobs);

        let t_price = Instant::now();
        let prices = PriceState::compute(states, ctx.cluster, &self.config.utility, ctx.time);
        let price_seconds = t_price.elapsed().as_secs_f64();
        self.last_bound = Some(prices.bound());
        if ctx.telemetry.is_enabled() {
            let bound = prices.bound();
            ctx.telemetry.gauge("hadar.price_eta", prices.eta);
            ctx.telemetry.gauge("hadar.alpha", bound.alpha);
            ctx.telemetry.gauge("hadar.competitive_ratio", bound.ratio);
            // Price-vector spread: the per-type utility bounds that drive
            // Eq. 5 (max over types of U_max, min over types of the
            // positive U_min — the inputs to α).
            let mut hi = 0.0f64;
            let mut lo = f64::INFINITY;
            for r in ctx.cluster.catalog().ids() {
                hi = hi.max(prices.u_max(r));
                let l = prices.u_min(r);
                if l > 0.0 {
                    lo = lo.min(l);
                }
            }
            ctx.telemetry.gauge("hadar.u_max", hi);
            ctx.telemetry
                .gauge("hadar.u_min", if lo.is_finite() { lo } else { 0.0 });
        }
        let env = AllocEnv::new(
            ctx.cluster,
            &prices,
            &self.config.utility,
            ctx.time,
            self.config.features,
            ctx.machine_factors,
        );
        let usage = Usage::empty(ctx.cluster);
        let queue: Vec<&JobState> = states.iter().collect();
        let t_select = Instant::now();
        let selection = run_subroutine(self.config.alloc_mode, &queue, &env, &usage);
        let subroutine_seconds = t_select.elapsed().as_secs_f64();
        // The subroutine timed candidate generation while it ran; carve it
        // out of the selection phase.
        let candidates_seconds = selection.candidates_seconds.clamp(0.0, subroutine_seconds);
        self.last_phases = Some(DecisionPhases {
            price_seconds,
            candidates_seconds,
            select_seconds: subroutine_seconds - candidates_seconds,
            dp_budget_hit: selection.budget_exhausted,
            reused: false,
        });

        let mut alloc = Allocation::empty();
        for (idx, cand) in selection.decisions {
            alloc.set(queue[idx].job.id, cand.placement);
        }
        self.cached_all_placed = ctx
            .jobs
            .iter()
            .all(|s| alloc.get(s.job.id).is_some_and(|p| !p.is_empty()));
        self.dirty = false;
        alloc
    }

    fn on_arrival(&mut self, _job: &Job) {
        self.dirty = true;
    }

    fn on_completion(&mut self, job: JobId) {
        self.dirty = true;
        if let Some(est) = self.estimator.as_mut() {
            est.forget(job);
        }
    }

    fn last_decision_phases(&self) -> Option<DecisionPhases> {
        self.last_phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_alloc::Features;
    use crate::utility::UtilityKind;
    use hadar_cluster::Cluster;
    use hadar_sim::{PreemptionPenalty, SimConfig, Simulation};
    use hadar_workload::{generate_trace, ArrivalPattern, DlTask, Job, TraceConfig};

    fn trace(n: usize, seed: u64) -> (Cluster, Vec<Job>) {
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: n,
                seed,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        (cluster, jobs)
    }

    #[test]
    fn completes_small_static_trace() {
        let (cluster, jobs) = trace(12, 1);
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(HadarScheduler::new(HadarConfig::default()))
            .unwrap();
        assert_eq!(out.completed_jobs(), 12);
        assert!(!out.timed_out);
        assert!(out.mean_jct() > 0.0);
        // The run is deterministic: exactly one round (the first with a
        // queue at the Auto DP threshold of 9 jobs) pushes the DP past its
        // 20k-node budget onto the greedy floor.
        assert_eq!(out.dp_budget_exhausted_rounds(), 1);
        // Every round must carry a phase report from the Hadar scheduler,
        // and the quiescent middle of the run must hit the fast path.
        assert!(out.rounds.iter().all(|r| r.phases.is_some()));
        assert!(out.reused_rounds() > 0);
    }

    #[test]
    fn forced_dp_on_wide_queue_exhausts_node_budget() {
        // The DP on the 24-job first-round queue: 2^24 subsets dwarf the
        // 20k-node budget, so it must report exhaustion (and fall back to
        // its greedy floor).
        let (cluster, jobs) = trace(24, 11);
        let states: Vec<JobState> = jobs.into_iter().map(JobState::new).collect();
        let utility = UtilityKind::default();
        let prices = PriceState::compute(&states, &cluster, &utility, 0.0);
        let env = AllocEnv::new(&cluster, &prices, &utility, 0.0, Features::default(), &[]);
        let queue: Vec<&JobState> = states.iter().collect();
        let selection = dp_allocation(&queue, &env, &Usage::empty(&cluster));
        assert!(
            selection.budget_exhausted,
            "a 24-job DP round should hit DP_NODE_BUDGET"
        );
        assert!(!selection.decisions.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let (cluster, jobs) = trace(10, 2);
        let run = || {
            Simulation::new(cluster.clone(), jobs.clone(), SimConfig::default())
                .run(HadarScheduler::new(HadarConfig::default()))
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.jcts(), b.jcts());
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn dp_and_greedy_modes_both_finish() {
        let (cluster, jobs) = trace(8, 3);
        for mode in [AllocMode::Auto, AllocMode::Greedy] {
            let cfg = HadarConfig {
                alloc_mode: mode,
                ..HadarConfig::default()
            };
            let out = Simulation::new(cluster.clone(), jobs.clone(), SimConfig::default())
                .run(HadarScheduler::new(cfg))
                .unwrap();
            assert_eq!(out.completed_jobs(), 8, "mode {mode:?}");
        }
    }

    #[test]
    fn competitive_bound_exposed_after_scheduling() {
        let (cluster, jobs) = trace(5, 4);
        let mut sched = HadarScheduler::new(HadarConfig::default());
        assert!(sched.last_competitive_bound().is_none());
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(&mut sched)
            .unwrap();
        assert_eq!(out.completed_jobs(), 5);
        let bound = sched.last_competitive_bound().expect("ran at least once");
        assert!(bound.alpha >= 1.0);
        assert!((bound.ratio - 2.0 * bound.alpha).abs() < 1e-12);
        // Every optimized round timed its phases into the round records.
        let (p, c, s) = out.phase_totals();
        assert!(p + c + s > 0.0);
    }

    #[test]
    fn incremental_mode_renews_placements_between_events() {
        // Two long jobs that both fit: after the first round nothing
        // changes until a completion, so each job reallocates exactly once.
        let cluster = Cluster::paper_simulation();
        let jobs = vec![
            Job::for_model(JobId(0), DlTask::ResNet50, cluster.catalog(), 0.0, 4, 30),
            Job::for_model(JobId(1), DlTask::Lstm, cluster.catalog(), 0.0, 4, 400),
        ];
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(HadarScheduler::new(HadarConfig::default()))
            .unwrap();
        assert_eq!(out.completed_jobs(), 2);
        for r in &out.records {
            assert!(
                r.reallocations <= 2,
                "job {} moved {} times despite a quiet cluster",
                r.job.id,
                r.reallocations
            );
        }
    }

    #[test]
    fn incremental_mode_does_not_change_quality_materially() {
        let (cluster, jobs) = trace(20, 9);
        let run = |incremental: bool| {
            Simulation::new(cluster.clone(), jobs.clone(), SimConfig::default())
                .run(HadarScheduler::new(HadarConfig {
                    incremental,
                    ..HadarConfig::default()
                }))
                .unwrap()
        };
        let (on, off) = (run(true), run(false));
        assert_eq!(on.completed_jobs(), 20);
        assert_eq!(off.completed_jobs(), 20);
        let ratio = on.mean_jct() / off.mean_jct();
        assert!(
            (0.8..1.25).contains(&ratio),
            "incremental mode changed mean JCT by {ratio:.2}x"
        );
    }

    #[test]
    fn makespan_utility_runs() {
        let (cluster, jobs) = trace(8, 5);
        let cfg = HadarConfig::with_utility(UtilityKind::MinMakespan);
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(HadarScheduler::new(cfg))
            .unwrap();
        assert_eq!(out.completed_jobs(), 8);
    }

    #[test]
    fn profiler_enabled_still_completes() {
        let (cluster, jobs) = trace(8, 6);
        let cfg = HadarConfig {
            profiling_seed: Some(0),
            ..HadarConfig::default()
        };
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(HadarScheduler::new(cfg))
            .unwrap();
        assert_eq!(out.completed_jobs(), 8);
    }

    #[test]
    fn prefers_fast_gpus_for_heterogeneity_sensitive_jobs() {
        // One ResNet-50 (10× V100:K80) and one LSTM (3×), one GPU each, only
        // one V100 available: the V100 must go to the ResNet-50.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        let k80 = b.gpu_type("K80");
        b.machine(&[(v100, 1)]);
        b.machine(&[(k80, 1)]);
        let cluster = b.build();
        let jobs = vec![
            Job::for_model(JobId(0), DlTask::ResNet50, cluster.catalog(), 0.0, 1, 2),
            Job::for_model(JobId(1), DlTask::Lstm, cluster.catalog(), 0.0, 1, 20),
        ];
        let cfg = SimConfig {
            penalty: PreemptionPenalty::Fixed(0.0),
            ..SimConfig::default()
        };
        let out = Simulation::new(cluster, jobs, cfg)
            .run(HadarScheduler::new(HadarConfig::default()))
            .unwrap();
        assert_eq!(out.completed_jobs(), 2);
        // The ResNet-50 run on the V100 completes at its V100-speed time
        // (within round quantization):
        let r50_jct = out.records[0].jct().unwrap();
        let v100_time = out.records[0].job.min_runtime();
        assert!(
            r50_jct < v100_time * 2.0,
            "ResNet-50 seems to have run on the K80: jct={r50_jct}, v100={v100_time}"
        );
    }
}
