//! The cross-round candidate cache is exact: every candidate list the
//! scheduler's long-lived [`CandidateCache`] serves must equal the uncached
//! [`find_candidates`] oracle for the same job, usage and round — including
//! under machine failures (evictions shrink the usable-GPU mask),
//! stragglers, preemption penalties, and the noisy profiling estimator, all
//! of which mutate the inputs the cache is keyed on. A stale entry served
//! after any of these perturbations would show up here as a mismatch.
//!
//! The check runs inside a [`Scheduler`] that mirrors [`HadarScheduler`]'s
//! round path (same prices, environment, cache lifetime and subroutine)
//! and, after each round's selection, applies the chosen placements one at
//! a time, comparing the cache against the oracle for every queued job at
//! every usage state on the way. Each scenario also runs the real
//! `HadarScheduler` and requires the mirror's decision trail to match it
//! bit for bit, so the cache checked here is the one the scheduler uses.

use hadar_cluster::{Allocation, Cluster, JobId, Usage};
use hadar_core::dp::{dp_allocation_cached, greedy_allocation_cached};
use hadar_core::find_alloc::{find_candidates, AllocEnv};
use hadar_core::profiler::ProfilerConfig;
use hadar_core::{
    AllocMode, CandidateCache, Features, HadarConfig, HadarScheduler, PriceState,
    ThroughputEstimator, UtilityKind,
};
use hadar_sim::{
    FailureModel, JobState, PreemptionPenalty, Scheduler, SchedulerContext, SimConfig, SimOutcome,
    Simulation, StragglerModel,
};
use hadar_workload::{generate_trace, ArrivalPattern, Job, TraceConfig};

/// The DP threshold of [`AllocMode::default`].
const DP_MAX_QUEUE: usize = 9;

/// `HadarScheduler` with the incremental fast path off, plus the oracle
/// comparison after every round.
struct OracleChecked {
    cache: CandidateCache,
    estimator: ThroughputEstimator,
    utility: UtilityKind,
    /// Cache-vs-oracle comparisons made (so a test can assert coverage).
    checks: usize,
}

impl OracleChecked {
    fn new(profiler: ProfilerConfig) -> Self {
        Self {
            cache: CandidateCache::new(),
            estimator: ThroughputEstimator::new(profiler),
            utility: UtilityKind::default(),
            checks: 0,
        }
    }
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
        let env = AllocEnv {
            cluster: ctx.cluster,
            comm: ctx.comm,
            prices: &prices,
            utility: &self.utility,
            now: ctx.time,
            realloc_stall: HadarConfig::default().expected_realloc_penalty,
            features: Features::default(),
            machine_factors: ctx.machine_factors,
        };
        let usage = Usage::empty(ctx.cluster);
        let queue: Vec<&JobState> = states.iter().collect();
        self.cache.begin_round(&env);
        let selection = if queue.len() <= DP_MAX_QUEUE {
            dp_allocation_cached(&queue, &env, &usage, &mut self.cache)
        } else {
            greedy_allocation_cached(&queue, &env, &usage, &mut self.cache)
        };

        // Apply the chosen placements one at a time (in queue order),
        // checking every job's cached list against the oracle at each usage
        // state on the way, the empty cluster first.
        let mut walk = usage;
        let mut steps = selection.decisions.iter();
        loop {
            for s in &queue {
                assert_eq!(
                    self.cache.candidates(s, &env, &walk),
                    find_candidates(s, &env, &walk).as_slice(),
                    "t={}: cache diverges from the oracle for job {}",
                    ctx.time,
                    s.job.id
                );
                self.checks += 1;
            }
            let Some((_, cand)) = steps.next() else { break };
            for sl in cand.placement.slices() {
                walk.add(sl.machine, sl.gpu, sl.count);
            }
        }

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

fn profiler(seed: u64) -> ProfilerConfig {
    ProfilerConfig {
        seed,
        ..ProfilerConfig::default()
    }
}

/// Run the oracle-checked mirror and the real scheduler on one scenario;
/// returns both outcomes and the mirror's comparison count.
fn run_both(seed: u64, pattern: ArrivalPattern, sim: SimConfig) -> (SimOutcome, SimOutcome, usize) {
    let (cluster, jobs) = scenario(seed, pattern);
    let mut checked = OracleChecked::new(profiler(seed));
    let mirrored = Simulation::new(cluster.clone(), jobs.clone(), sim)
        .run(&mut checked)
        .expect("valid scenario");
    let config = HadarConfig {
        alloc_mode: AllocMode::Auto {
            dp_max_queue: DP_MAX_QUEUE,
        },
        incremental: false,
        profiler: Some(profiler(seed)),
        ..HadarConfig::default()
    };
    let real = Simulation::new(cluster, jobs, sim)
        .run(HadarScheduler::new(config))
        .expect("valid scenario");
    (mirrored, real, checked.checks)
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
fn cache_matches_oracle_across_seeds_and_fault_models() {
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
        let (mirrored, real, checks) = run_both(seed, pattern, sim);
        assert!(checks > 0, "seed {seed}: no comparison made");
        assert_eq!(
            trail(&mirrored),
            trail(&real),
            "seed {seed}: the mirror no longer follows HadarScheduler"
        );
        assert_eq!(mirrored.timed_out, real.timed_out, "seed {seed}");
    }
}

#[test]
fn cache_is_exact_after_eviction_storms() {
    // An aggressive failure process (MTBF 6 rounds, paper cluster) keeps
    // evicting jobs and flipping the availability mask: the cache must
    // invalidate on every such change rather than serve pre-failure
    // geometries for machines that are down.
    let sim = SimConfig {
        failure: Some(FailureModel {
            mtbf_rounds: 6.0,
            mttr_rounds: 3.0,
            seed: 9,
        }),
        max_rounds: 250,
        ..SimConfig::default()
    };
    let (mirrored, real, checks) = run_both(7, ArrivalPattern::Static, sim);
    assert!(
        mirrored.machine_failures() > 0,
        "scenario must actually inject failures"
    );
    assert!(checks > 0);
    assert_eq!(trail(&mirrored), trail(&real));
}
