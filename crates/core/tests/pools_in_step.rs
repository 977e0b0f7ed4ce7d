//! The round's machine pools stay in step with its usage: after every
//! admission, the pools [`Placer::add`] maintains must equal pools freshly
//! built at the same usage, and every queued job's candidate list
//! read from them must equal [`find_candidates`] on the fresh build —
//! including under machine failures (down machines leave the pools),
//! stragglers, preemption penalties, and the noisy profiling estimator, all
//! of which change what the pools and candidates are built from.
//!
//! The check runs inside a [`Scheduler`] that mirrors [`HadarScheduler`]'s
//! round path (same prices, environment and subroutine). After each
//! round's selection it replays the admissions of both the greedy and, on
//! queues small enough for it, the DP: each selection's placements are
//! added one at a time in queue order (the order the DP admits along its
//! chosen path), comparing against fresh builds at every usage state on
//! the way. Each scenario also runs the real `HadarScheduler` and requires
//! the mirror's decision trail to match it bit for bit, so the path checked
//! here is the one the scheduler takes.

use hadar_cluster::{Allocation, Cluster, GpuTypeId, JobId, Placer, Usage};
use hadar_core::config::DP_MAX_QUEUE;
use hadar_core::dp::{dp_allocation, greedy_allocation, Selection};
use hadar_core::find_alloc::{find_candidates, AllocEnv};
use hadar_core::{
    AllocMode, Features, HadarConfig, HadarScheduler, PriceState, ThroughputEstimator, UtilityKind,
};
use hadar_sim::{
    FailureModel, JobState, PreemptionPenalty, Scheduler, SchedulerContext, SimConfig, SimOutcome,
    Simulation, StragglerModel,
};
use hadar_workload::{generate_trace, ArrivalPattern, Job, TraceConfig};

/// `HadarScheduler` with the incremental fast path off, plus the
/// in-step check after every round.
struct OracleChecked {
    estimator: ThroughputEstimator,
    utility: UtilityKind,
    /// Admissions checked against fresh builds (so a test can assert
    /// coverage).
    admissions: usize,
}

impl OracleChecked {
    fn new(profiling_seed: u64) -> Self {
        Self {
            estimator: ThroughputEstimator::new(profiling_seed),
            utility: UtilityKind::default(),
            admissions: 0,
        }
    }
}

/// Replay `selection`'s admissions from the empty cluster, checking the
/// in-step pools and every queued job's candidates after each one; returns
/// the number of admissions checked.
fn check(what: &str, selection: &Selection, queue: &[&JobState], env: &AllocEnv<'_>) -> usize {
    let t = env.now;
    let build = |usage| Placer::new(env.cluster, usage, |h| env.machine_usable(h));
    let mut placer = build(Usage::empty(env.cluster));
    // Build the type pools before the first admission, as the subroutine's
    // first candidate query does, so every `add` below moves them.
    placer.pool(GpuTypeId(0));
    for (_, cand) in &selection.decisions {
        placer.add(&cand.placement);
        let fresh = build(placer.usage().clone());
        for r in env.cluster.catalog().ids() {
            assert_eq!(
                placer.pool(r),
                fresh.pool(r),
                "t={t}, {what}: type {r:?} pool out of step"
            );
        }
        for s in queue {
            assert_eq!(
                find_candidates(s, env, &placer),
                find_candidates(s, env, &fresh),
                "t={t}, {what}: candidates of job {} differ from a fresh build",
                s.job.id
            );
        }
    }
    selection.decisions.len()
}

impl Scheduler for OracleChecked {
    fn name(&self) -> &str {
        "Hadar (oracle-checked)"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        let states: Vec<JobState> = ctx
            .jobs
            .iter()
            .map(|s| {
                let mut s2 = s.clone();
                s2.job.profile = self.estimator.profile_for(&s.job);
                s2
            })
            .collect();
        for s in ctx.jobs {
            self.estimator.observe(s.job.id);
        }
        let prices = PriceState::compute(&states, ctx.cluster, &self.utility, ctx.time);
        let env = AllocEnv::new(
            ctx.cluster,
            &prices,
            &self.utility,
            ctx.time,
            Features::default(),
            ctx.machine_factors,
        );
        let usage = Usage::empty(ctx.cluster);
        let queue: Vec<&JobState> = states.iter().collect();
        let greedy = greedy_allocation(&queue, &env, &usage);
        self.admissions += check("greedy", &greedy, &queue, &env);
        let selection = if queue.len() <= DP_MAX_QUEUE {
            let dp = dp_allocation(&queue, &env, &usage);
            self.admissions += check("dp", &dp, &queue, &env);
            dp
        } else {
            greedy
        };

        let mut alloc = Allocation::empty();
        for (idx, cand) in selection.decisions {
            alloc.set(queue[idx].job.id, cand.placement);
        }
        alloc
    }

    fn on_completion(&mut self, job: JobId) {
        self.estimator.forget(job);
    }
}

fn scenario(seed: u64, pattern: ArrivalPattern) -> (Cluster, Vec<Job>) {
    let cluster = Cluster::paper_simulation();
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: 12,
            seed,
            pattern,
        },
        cluster.catalog(),
    );
    (cluster, jobs)
}

/// Run the oracle-checked mirror and the real scheduler on one scenario;
/// returns both outcomes and the mirror's checked admissions.
fn run_both(seed: u64, pattern: ArrivalPattern, sim: SimConfig) -> (SimOutcome, SimOutcome, usize) {
    let (cluster, jobs) = scenario(seed, pattern);
    let mut checked = OracleChecked::new(seed);
    let mirrored = Simulation::new(cluster.clone(), jobs.clone(), sim)
        .run(&mut checked)
        .expect("valid scenario");
    let config = HadarConfig {
        alloc_mode: AllocMode::Auto,
        incremental: false,
        profiling_seed: Some(seed),
        ..HadarConfig::default()
    };
    let real = Simulation::new(cluster, jobs, sim)
        .run(HadarScheduler::new(config))
        .expect("valid scenario");
    (mirrored, real, checked.admissions)
}

/// Everything decision-shaped in a run, bit-exact.
fn trail(out: &SimOutcome) -> Vec<(Option<u64>, Option<u64>, u32, u32)> {
    out.records
        .iter()
        .map(|r| {
            (
                r.first_scheduled.map(f64::to_bits),
                r.finish.map(f64::to_bits),
                r.rounds_run,
                r.reallocations,
            )
        })
        .collect()
}

#[test]
fn pools_match_fresh_builds_across_seeds_and_fault_models() {
    for seed in 0..3u64 {
        // Failures force evictions mid-run; stragglers and the modeled
        // penalty perturb throughputs and prices round over round. Poisson
        // arrivals on odd seeds change the queue between rounds.
        let pattern = if seed % 2 == 0 {
            ArrivalPattern::Static
        } else {
            ArrivalPattern::Poisson {
                jobs_per_hour: 12.0,
            }
        };
        let sim = SimConfig {
            penalty: PreemptionPenalty::Fixed(15.0),
            straggler: Some(StragglerModel {
                seed: seed + 1,
                ..StragglerModel::default()
            }),
            failure: Some(FailureModel {
                mtbf_rounds: 30.0,
                mttr_rounds: 4.0,
                seed: seed + 2,
            }),
            // Bounded work per seed; a capped (timed-out) run still checks
            // every round up to the cap.
            max_rounds: 300,
            ..SimConfig::default()
        };
        let (mirrored, real, admissions) = run_both(seed, pattern, sim);
        assert!(admissions > 0, "seed {seed}: no admission checked");
        assert_eq!(
            trail(&mirrored),
            trail(&real),
            "seed {seed}: the mirror no longer follows HadarScheduler"
        );
        assert_eq!(mirrored.timed_out, real.timed_out, "seed {seed}");
    }
}

#[test]
fn pools_stay_exact_through_eviction_storms() {
    // An aggressive failure process (MTBF 6 rounds, paper cluster) keeps
    // evicting jobs and flipping the availability mask: machines that are
    // down must never appear in a pool, built or maintained.
    let sim = SimConfig {
        failure: Some(FailureModel {
            mtbf_rounds: 6.0,
            mttr_rounds: 3.0,
            seed: 9,
        }),
        max_rounds: 250,
        ..SimConfig::default()
    };
    let (mirrored, real, admissions) = run_both(7, ArrivalPattern::Static, sim);
    assert!(
        mirrored.machine_failures() > 0,
        "scenario must actually inject failures"
    );
    assert!(admissions > 0);
    assert_eq!(trail(&mirrored), trail(&real));
}
