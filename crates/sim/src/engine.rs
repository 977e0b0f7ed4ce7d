//! The round-based simulation engine.

use std::collections::HashMap;
use std::time::Instant;

use hadar_cluster::{Cluster, CommCostModel, JobId, JobPlacement, MachineId};
use hadar_workload::Job;

use crate::checkpoint::PreemptionPenalty;
use crate::error::{SimError, SimResult};
use crate::event::SimEvent;
use crate::failure::{FailureModel, FailureState};
use crate::scheduler::{JobState, Scheduler, SchedulerContext};
use crate::stats::{JobRecord, RoundRecord, SimOutcome};
use crate::straggler::{StragglerModel, StragglerState};
use crate::telemetry::{render_jsonl, Telemetry};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Scheduling-round length `L` in seconds (paper default: 6 minutes).
    pub round_length: f64,
    /// Penalty charged to a job whose allocation changed.
    pub penalty: PreemptionPenalty,
    /// Cross-server communication model.
    pub comm: CommCostModel,
    /// Hard cap on simulated rounds (safety net against livelock; a run
    /// hitting the cap is reported with `timed_out = true`).
    pub max_rounds: u64,
    /// Optional per-machine straggler injection.
    pub straggler: Option<StragglerModel>,
    /// Optional per-machine failure injection (whole machines going down,
    /// see [`FailureModel`]).
    pub failure: Option<FailureModel>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            round_length: 360.0,
            penalty: PreemptionPenalty::default(),
            comm: CommCostModel::default(),
            max_rounds: 1_000_000,
            straggler: None,
            failure: None,
        }
    }
}

impl SimConfig {
    /// Check the configuration, so a bad sweep parameter surfaces as a
    /// [`SimError`] for that cell instead of aborting the process.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.round_length.is_finite() || self.round_length <= 0.0 {
            return Err(SimError::InvalidConfig(format!(
                "round length must be positive (got {})",
                self.round_length
            )));
        }
        match self.penalty {
            PreemptionPenalty::Fixed(secs) if !secs.is_finite() || secs < 0.0 => {
                return Err(SimError::InvalidConfig(format!(
                    "preemption penalty must be finite and non-negative (got {secs})"
                )));
            }
            PreemptionPenalty::Modeled(m)
                if !m.effective_bandwidth_mib_s.is_finite()
                    || m.effective_bandwidth_mib_s <= 0.0 =>
            {
                return Err(SimError::InvalidConfig(format!(
                    "checkpoint bandwidth must be finite and positive (got {})",
                    m.effective_bandwidth_mib_s
                )));
            }
            _ => {}
        }
        if let Some(s) = &self.straggler {
            s.validate()
                .map_err(|e| SimError::InvalidConfig(format!("straggler model: {e}")))?;
        }
        if let Some(f) = &self.failure {
            f.validate()
                .map_err(|e| SimError::InvalidConfig(format!("failure model: {e}")))?;
        }
        Ok(())
    }
}

/// A configured simulation: cluster + trace + parameters.
///
/// Consume with [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct Simulation {
    cluster: Cluster,
    jobs: Vec<Job>,
    config: SimConfig,
}

impl Simulation {
    /// Build a simulation. Jobs are admitted in arrival order; ids must be
    /// dense `0..n` (as produced by the trace generator).
    ///
    /// # Panics
    /// Panics if job ids are not dense `0..n`.
    pub fn new(cluster: Cluster, mut jobs: Vec<Job>, config: SimConfig) -> Self {
        // total_cmp: a NaN arrival (malformed trace) sorts last instead of
        // panicking mid-sort; the admission loop then simply never admits it
        // and the run ends at the round cap with an unstarted record.
        jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival).then(a.id.cmp(&b.id)));
        let mut seen = vec![false; jobs.len()];
        for j in &jobs {
            assert!(
                j.id.index() < jobs.len() && !seen[j.id.index()],
                "job ids must be dense 0..n"
            );
            seen[j.id.index()] = true;
        }
        Self {
            cluster,
            jobs,
            config,
        }
    }

    /// The configured cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Run to completion (or the round cap) under `scheduler`.
    ///
    /// Returns a [`SimError`] instead of panicking when the configuration is
    /// invalid or the scheduler violates the allocation constraints, so one
    /// bad cell in a parallel sweep degrades into an error row rather than
    /// aborting every worker.
    pub fn run<S: Scheduler>(self, scheduler: S) -> SimResult {
        self.run_with_telemetry(scheduler, Telemetry::disabled())
    }

    /// [`Simulation::run`] with a [`Telemetry`] sink attached. The sink is
    /// purely observational: with [`Telemetry::disabled`] every emission is
    /// a no-op and this is exactly `run`; with [`Telemetry::enabled`] each
    /// round record additionally carries the policy's counters
    /// ([`RoundRecord::policy`]) and the outcome carries the JSONL rendering
    /// of its records ([`SimOutcome::telemetry_stream`]) — the simulated
    /// schedule itself is byte-identical either way.
    pub fn run_with_telemetry<S: Scheduler>(
        self,
        mut scheduler: S,
        telemetry: Telemetry,
    ) -> SimResult {
        let Simulation {
            cluster,
            jobs,
            config,
        } = self;
        config.validate()?;
        let num_jobs = jobs.len();
        let round = config.round_length;

        // Records indexed by job id.
        let mut records: Vec<Option<JobRecord>> = vec![None; num_jobs];
        let mut active: Vec<JobState> = Vec::new();
        let mut pending = jobs.into_iter().peekable();
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut time = 0.0f64;
        let mut completed = 0usize;
        let mut timed_out = false;
        let mut round_no = 0u64;
        let mut stragglers = StragglerState::new(config.straggler, cluster.num_machines());
        let mut failures = FailureState::new(config.failure, cluster.num_machines());
        let mut events: Vec<SimEvent> = Vec::new();

        while completed < num_jobs {
            if round_no >= config.max_rounds {
                timed_out = true;
                break;
            }
            round_no += 1;

            // Admit arrivals. If the queue is idle, fast-forward to the
            // earliest round boundary that *admits* the next arrival — the
            // boundary it lands on exactly, or else the next one up. (Using
            // the floor boundary would run one spurious all-idle round for
            // every mid-round arrival into an empty queue.)
            if active.is_empty() {
                if let Some(next) = pending.peek() {
                    if next.arrival > time {
                        let below = (next.arrival / round).floor() * round;
                        time = if next.arrival <= below + f64::EPSILON * below.max(1.0) {
                            below
                        } else {
                            below + round
                        };
                    }
                }
            }
            let mut arrivals_this_round = 0u32;
            let mut evicted_this_round = 0u32;
            // A job arriving exactly at the round boundary is admitted; one
            // arriving mid-round waits for the next boundary.
            while pending
                .peek()
                .is_some_and(|j| j.arrival <= time + f64::EPSILON * time.max(1.0))
            {
                let job = pending.next().expect("peeked");
                scheduler.on_arrival(&job);
                // The event carries the job's true submission time `a_j`,
                // not the round boundary that admitted it. A mid-round
                // arrival can predate events already logged from the
                // previous round, so insert at the chronological position
                // to keep the log time-sorted.
                let idx = events.partition_point(|e| e.time() <= job.arrival);
                events.insert(
                    idx,
                    SimEvent::Arrival {
                        time: job.arrival,
                        job: job.id,
                    },
                );
                records[job.id.index()] = Some(JobRecord {
                    job: job.clone(),
                    first_scheduled: None,
                    finish: None,
                    rounds_run: 0,
                    reallocations: 0,
                });
                active.push(JobState::new(job));
                arrivals_this_round += 1;
            }

            // Advance the fault processes: straggler throughput factors,
            // then whole-machine failures. Down machines run at factor 0.0.
            let mut machine_factors = stragglers.step().to_vec();
            let transitions = failures.step();
            let availability = failures.availability();
            for &h in &transitions.failed {
                events.push(SimEvent::MachineFailed { time, machine: h });
            }
            for &h in &transitions.recovered {
                events.push(SimEvent::MachineRecovered { time, machine: h });
            }
            if availability.any_down() {
                for (i, f) in machine_factors.iter_mut().enumerate() {
                    if !availability.is_up(MachineId(i as u32)) {
                        *f = 0.0;
                    }
                }
                // Forcibly evict jobs whose placement touches a down
                // machine: the work since the last round-boundary
                // checkpoint (i.e. the failed round's progress) is lost,
                // and any re-placement pays the restore penalty below.
                for state in active.iter_mut() {
                    let dead = state
                        .placement
                        .slices()
                        .iter()
                        .find(|sl| !availability.is_up(sl.machine))
                        .map(|sl| sl.machine);
                    if let Some(machine) = dead {
                        events.push(SimEvent::JobEvicted {
                            time,
                            job: state.job.id,
                            machine,
                        });
                        state.remaining_iters += state.last_round_iters;
                        state.last_round_iters = 0.0;
                        state.placement = JobPlacement::empty();
                        evicted_this_round += 1;
                    }
                }
            }

            // Ask the policy for this round's allocation.
            let ctx = SchedulerContext {
                time,
                round_length: round,
                cluster: &cluster,
                jobs: &active,
                comm: &config.comm,
                machine_factors: &machine_factors,
                availability,
                telemetry: &telemetry,
            };
            let t0 = Instant::now();
            let allocation = scheduler.schedule(&ctx);
            let decision_seconds = t0.elapsed().as_secs_f64();
            let phases = scheduler.last_decision_phases();
            let bk0 = Instant::now();

            // Validate: capacity, gang sizes, and that only queued jobs are
            // scheduled. A violation is a policy bug — fail the run.
            let gang: HashMap<JobId, u32> = active.iter().map(|s| (s.job.id, s.job.gang)).collect();
            for (id, _) in allocation.iter() {
                if !gang.contains_key(&id) {
                    return Err(SimError::UnknownJobAllocated {
                        scheduler: scheduler.name().to_owned(),
                        job: id,
                        round: round_no,
                    });
                }
            }
            if let Err(e) = allocation.validate(&cluster, |id| gang[&id]) {
                return Err(SimError::InvalidAllocation {
                    scheduler: scheduler.name().to_owned(),
                    round: round_no,
                    detail: e.to_string(),
                });
            }

            // Advance every active job.
            let demand_gpus: u32 = active.iter().map(|s| s.job.gang).sum();
            let mut busy_gpu_seconds = 0.0;
            let mut held_gpu_seconds = 0.0;
            let mut reallocations = 0u32;
            let mut running_jobs = 0u32;
            let mut scheduled_this_round = 0u32;
            let mut preempted_this_round = 0u32;
            let queue_depth = active.len() as u32;
            let mut util_by_type = vec![0u32; cluster.num_types()];
            let mut finished: Vec<JobId> = Vec::new();
            let mut completions: Vec<SimEvent> = Vec::new();

            for state in active.iter_mut() {
                let mut new_placement = allocation
                    .get(state.job.id)
                    .cloned()
                    .unwrap_or_else(JobPlacement::empty);
                // A placement touching a down machine cannot run: strip it,
                // so the job simply loses the round (zero-rate masking for
                // policies that ignore the availability mask).
                if availability.any_down()
                    && new_placement
                        .slices()
                        .iter()
                        .any(|sl| !availability.is_up(sl.machine))
                {
                    new_placement = JobPlacement::empty();
                }
                let changed = new_placement != state.placement;
                state.last_round_iters = 0.0;
                if new_placement.is_empty() {
                    if changed {
                        events.push(SimEvent::Preempted {
                            time,
                            job: state.job.id,
                        });
                        preempted_this_round += 1;
                    }
                    state.placement = new_placement;
                    continue;
                }
                if state.placement.is_empty() {
                    scheduled_this_round += 1;
                }
                for sl in new_placement.slices() {
                    util_by_type[sl.gpu.index()] += sl.count;
                }
                if changed {
                    if state.first_scheduled.is_none() {
                        events.push(SimEvent::Started {
                            time,
                            job: state.job.id,
                            workers: new_placement.total_workers(),
                            machines: new_placement.num_machines(),
                        });
                    } else {
                        events.push(SimEvent::Migrated {
                            time,
                            job: state.job.id,
                            machines: new_placement.num_machines(),
                        });
                    }
                }
                running_jobs += 1;
                // An active job without a record is an engine bookkeeping
                // bug; degrade into an error row instead of panicking the
                // whole sweep worker.
                let Some(rec) = records[state.job.id.index()].as_mut() else {
                    return Err(SimError::MissingRecord { job: state.job.id });
                };
                rec.rounds_run += 1;
                if changed {
                    rec.reallocations += 1;
                    reallocations += 1;
                }
                if state.first_scheduled.is_none() {
                    state.first_scheduled = Some(time);
                    rec.first_scheduled = Some(time);
                }

                let penalty = if changed {
                    config.penalty.seconds(state.job.model)
                } else {
                    0.0
                };
                let eff = (round - penalty).max(0.0);
                let workers = new_placement.total_workers() as f64;
                held_gpu_seconds += workers * round;

                let rate = job_rate(&state.job, &new_placement, &config.comm, &machine_factors);
                if rate > 0.0 && eff > 0.0 {
                    let capacity_iters = rate * eff;
                    let work_time = if capacity_iters >= state.remaining_iters {
                        // Completes mid-round.
                        let t = state.remaining_iters / rate;
                        rec.finish = Some(time + penalty + t);
                        state.remaining_iters = 0.0;
                        finished.push(state.job.id);
                        completions.push(SimEvent::Completed {
                            time: time + penalty + t,
                            job: state.job.id,
                        });
                        t
                    } else {
                        state.remaining_iters -= capacity_iters;
                        state.last_round_iters = capacity_iters;
                        eff
                    };
                    state.service_seconds += work_time;
                    // Useful compute: a worker on a fast type in a mixed
                    // gang idles at the synchronization barrier while the
                    // bottleneck type catches up — weight its busy time by
                    // bottleneck/X_r (straggler factors included).
                    let factor_of = |h: MachineId| -> f64 {
                        machine_factors.get(h.index()).copied().unwrap_or(1.0)
                    };
                    let Some(bottleneck) = new_placement
                        .bottleneck_rate_per_slice(|h, r| state.job.profile.rate(r) * factor_of(h))
                    else {
                        // `rate > 0.0` above implies a positive bottleneck
                        // over the same slices; reaching this branch means
                        // the rate model disagrees with itself.
                        return Err(SimError::InvariantViolation {
                            scheduler: scheduler.name().to_owned(),
                            round: round_no,
                            detail: format!(
                                "job {} holds a non-empty placement with no \
                                 positive per-slice rate",
                                state.job.id
                            ),
                        });
                    };
                    for sl in new_placement.slices() {
                        let x = state.job.profile.rate(sl.gpu) * factor_of(sl.machine);
                        let weight = if x > 0.0 { bottleneck / x } else { 0.0 };
                        busy_gpu_seconds += sl.count as f64 * work_time * weight;
                    }
                }
                state.placement = new_placement;
            }

            completions.sort_by(|a, b| a.time().total_cmp(&b.time()));
            events.extend(completions);
            for id in &finished {
                scheduler.on_completion(*id);
            }
            completed += finished.len();
            active.retain(|s| s.remaining_iters > 0.0);
            time += round;

            rounds.push(RoundRecord {
                time: time - round,
                queue_depth,
                running_jobs,
                scheduled: scheduled_this_round,
                preempted: preempted_this_round,
                evicted: evicted_this_round,
                completed: finished.len() as u32,
                arrivals: arrivals_this_round,
                reallocations,
                demand_gpus,
                busy_gpu_seconds,
                held_gpu_seconds,
                machines_down: availability.num_down() as u32,
                decision_seconds,
                util_by_type,
                phases,
                policy: telemetry.drain_round(),
                bookkeeping_seconds: bk0.elapsed().as_secs_f64(),
            });
        }

        // A run that hits the round cap before every job has arrived leaves
        // the unadmitted jobs without records; synthesize unstarted ones so
        // the outcome still covers the whole trace.
        for job in pending {
            debug_assert!(timed_out, "job {} pending without timeout", job.id);
            let idx = job.id.index();
            records[idx] = Some(JobRecord {
                job,
                first_scheduled: None,
                finish: None,
                rounds_run: 0,
                reallocations: 0,
            });
        }
        let records = records
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.ok_or(SimError::MissingRecord {
                    job: JobId(i as u32),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut outcome = SimOutcome::new(
            scheduler.name().to_owned(),
            records,
            rounds,
            round,
            cluster,
            timed_out,
            events,
        );
        if telemetry.is_enabled() {
            outcome.telemetry_stream = Some(render_jsonl(&outcome));
        }
        Ok(outcome)
    }
}

/// Effective aggregate rate of a job on `placement` (iterations/sec):
/// bottleneck per-task throughput (Eq. 1b), each task scaled by its
/// machine's straggler factor (machines beyond `factors` count as healthy,
/// 1.0), × gang size × the communication degradation for
/// non-consolidated placements. 0.0 for an empty placement.
pub fn job_rate(job: &Job, placement: &JobPlacement, comm: &CommCostModel, factors: &[f64]) -> f64 {
    let Some(bottleneck) = placement.bottleneck_rate_per_slice(|h, r| {
        job.profile.rate(r) * factors.get(h.index()).copied().unwrap_or(1.0)
    }) else {
        return 0.0;
    };
    bottleneck * placement.total_workers() as f64 * comm.placement_factor(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointModel;
    use hadar_cluster::{Allocation, GpuTypeId};
    use hadar_workload::DlTask;

    /// Schedules every queued job greedily on machine 0's V100s, FIFO,
    /// non-preemptive — a minimal well-behaved test policy.
    struct FifoV100;

    impl Scheduler for FifoV100 {
        fn name(&self) -> &str {
            "FifoV100"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
            let mut alloc = Allocation::empty();
            let v100 = ctx.cluster.catalog().lookup("V100").expect("V100");
            let mut free = ctx.cluster.capacity(MachineId(0), v100);
            for s in ctx.jobs {
                if s.job.gang <= free {
                    alloc.set(
                        s.job.id,
                        JobPlacement::single(MachineId(0), v100, s.job.gang),
                    );
                    free -= s.job.gang;
                }
            }
            alloc
        }
    }

    fn cluster() -> Cluster {
        Cluster::paper_simulation()
    }

    fn small_job(id: u32, arrival: f64, gang: u32, epochs: u64) -> Job {
        Job::for_model(
            JobId(id),
            DlTask::ResNet18,
            cluster().catalog(),
            arrival,
            gang,
            epochs,
        )
    }

    fn no_penalty_config() -> SimConfig {
        SimConfig {
            penalty: PreemptionPenalty::None,
            comm: CommCostModel::free(),
            ..SimConfig::default()
        }
    }

    #[test]
    fn single_job_completes_at_analytic_time() {
        // ResNet-18, 2 workers on V100: rate = 2 × 120 = 240 it/s.
        // 100 epochs × 390 = 39 000 iters → 162.5 s.
        let jobs = vec![small_job(0, 0.0, 2, 100)];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert_eq!(out.completed_jobs(), 1);
        let jct = out.records[0].jct().unwrap();
        assert!((jct - 162.5).abs() < 1e-6, "jct={jct}");
        assert!(!out.timed_out);
    }

    #[test]
    fn fixed_penalty_delays_completion() {
        let jobs = vec![small_job(0, 0.0, 2, 100)];
        let cfg = SimConfig {
            penalty: PreemptionPenalty::Fixed(10.0),
            comm: CommCostModel::free(),
            ..SimConfig::default()
        };
        let out = Simulation::new(cluster(), jobs, cfg).run(FifoV100).unwrap();
        let jct = out.records[0].jct().unwrap();
        // First allocation counts as "new" → one 10 s stall.
        assert!((jct - 172.5).abs() < 1e-6, "jct={jct}");
    }

    #[test]
    fn mid_round_arrival_waits_for_boundary() {
        let jobs = vec![small_job(0, 100.0, 1, 10)];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        // Arrives at 100 s; next boundary is 360 s.
        let first = out.records[0].first_scheduled.unwrap();
        assert_eq!(first, 360.0);
        assert_eq!(out.records[0].queuing_delay(), Some(260.0));
    }

    #[test]
    fn idle_gap_fast_forwards() {
        // Second job arrives hours later; the engine must not spin.
        let jobs = vec![small_job(0, 0.0, 1, 1), small_job(1, 36_000.0, 1, 1)];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert_eq!(out.completed_jobs(), 2);
        // Far fewer rounds than 36 000 / 360.
        assert!(out.rounds.len() < 10, "rounds={}", out.rounds.len());
    }

    #[test]
    fn idle_fast_forward_skips_spurious_round() {
        // Regression: a mid-round arrival into an idle queue used to land
        // the clock one boundary *before* the arrival, logging an all-idle
        // round before admitting the job.
        let jobs = vec![small_job(0, 0.0, 1, 1), small_job(1, 36_050.0, 1, 1)];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert_eq!(out.completed_jobs(), 2);
        for r in &out.rounds {
            assert!(r.demand_gpus > 0, "spurious all-idle round at t={}", r.time);
        }
        // 36 050 is mid-round; the admitting boundary is 36 360.
        assert_eq!(out.records[1].first_scheduled, Some(36_360.0));
    }

    #[test]
    fn queue_overflow_waits() {
        // Machine 0 has 4 V100s; three 2-GPU jobs → one must wait a round.
        let jobs = vec![
            small_job(0, 0.0, 2, 200),
            small_job(1, 0.0, 2, 200),
            small_job(2, 0.0, 2, 200),
        ];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert_eq!(out.completed_jobs(), 3);
        let starts: Vec<f64> = out
            .records
            .iter()
            .map(|r| r.first_scheduled.unwrap())
            .collect();
        assert_eq!(starts[0], 0.0);
        assert_eq!(starts[1], 0.0);
        assert_eq!(starts[2], 360.0);
    }

    #[test]
    fn deterministic_outcomes() {
        let jobs: Vec<Job> = (0..6).map(|i| small_job(i, 0.0, 1, 50)).collect();
        let a = Simulation::new(cluster(), jobs.clone(), no_penalty_config())
            .run(FifoV100)
            .unwrap();
        let b = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert_eq!(a.jcts(), b.jcts());
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn round_cap_reports_timeout() {
        let jobs = vec![small_job(0, 0.0, 2, 10_000)];
        let cfg = SimConfig {
            max_rounds: 2,
            ..no_penalty_config()
        };
        let out = Simulation::new(cluster(), jobs, cfg).run(FifoV100).unwrap();
        assert!(out.timed_out);
        assert_eq!(out.completed_jobs(), 0);
    }

    #[test]
    fn timeout_before_all_arrivals_returns_outcome() {
        // Regression: the cap fires after one round while job 1 is still
        // months away; the engine used to panic on its missing record.
        let jobs = vec![small_job(0, 0.0, 1, 10_000), small_job(1, 1.0e9, 1, 10)];
        let cfg = SimConfig {
            max_rounds: 1,
            ..no_penalty_config()
        };
        let out = Simulation::new(cluster(), jobs, cfg).run(FifoV100).unwrap();
        assert!(out.timed_out);
        assert_eq!(out.records.len(), 2);
        let never_arrived = &out.records[1];
        assert_eq!(never_arrived.job.id, JobId(1));
        assert!(never_arrived.first_scheduled.is_none());
        assert!(never_arrived.finish.is_none());
        assert_eq!(never_arrived.rounds_run, 0);
        assert_eq!(never_arrived.reallocations, 0);
        assert_eq!(out.completed_jobs(), 0);
    }

    #[test]
    fn arrival_event_carries_true_arrival_time() {
        // Job 0 completes at 1.625 × 154 = 250.25 s (within round 0); job 1
        // arrives mid-round at 200 s and is admitted at the 360 s boundary.
        // Its Arrival event must carry 200 s and sit *before* the earlier
        // completion in the log, keeping the event stream time-sorted.
        let jobs = vec![small_job(0, 0.0, 2, 154), small_job(1, 200.0, 1, 10)];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert_eq!(out.completed_jobs(), 2);
        let arrivals: Vec<(f64, JobId)> = out
            .events()
            .iter()
            .filter_map(|e| match *e {
                SimEvent::Arrival { time, job } => Some((time, job)),
                _ => None,
            })
            .collect();
        assert_eq!(arrivals, vec![(0.0, JobId(0)), (200.0, JobId(1))]);
        // The job still waits for the boundary to be scheduled.
        assert_eq!(out.records[1].first_scheduled, Some(360.0));
        crate::event::check_lifecycle(out.events(), 2).expect("time-sorted log");
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_job_ids_rejected() {
        let jobs = vec![small_job(5, 0.0, 1, 1)];
        Simulation::new(cluster(), jobs, SimConfig::default());
    }

    struct OverAllocator;
    impl Scheduler for OverAllocator {
        fn name(&self) -> &str {
            "Over"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
            let mut a = Allocation::empty();
            // 99 GPUs on machine 0 type 0: definitely over capacity.
            for s in ctx.jobs {
                a.set(
                    s.job.id,
                    JobPlacement::single(MachineId(0), GpuTypeId(0), 99),
                );
            }
            a
        }
    }

    #[test]
    fn invalid_allocation_is_an_error_not_a_panic() {
        let jobs = vec![small_job(0, 0.0, 99, 1)];
        let err = Simulation::new(cluster(), jobs, SimConfig::default())
            .run(OverAllocator)
            .unwrap_err();
        match &err {
            SimError::InvalidAllocation {
                scheduler, round, ..
            } => {
                assert_eq!(scheduler, "Over");
                assert_eq!(*round, 1);
            }
            other => panic!("expected InvalidAllocation, got {other:?}"),
        }
        assert!(err.to_string().contains("invalid allocation"));
    }

    #[test]
    fn invalid_config_is_an_error() {
        let jobs = vec![small_job(0, 0.0, 1, 1)];
        let cfg = SimConfig {
            round_length: 0.0,
            ..SimConfig::default()
        };
        let err = Simulation::new(cluster(), jobs, cfg)
            .run(FifoV100)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");

        let jobs = vec![small_job(0, 0.0, 1, 1)];
        let cfg = SimConfig {
            straggler: Some(StragglerModel {
                slowdown: 0.0,
                ..StragglerModel::default()
            }),
            ..SimConfig::default()
        };
        let err = Simulation::new(cluster(), jobs, cfg)
            .run(FifoV100)
            .unwrap_err();
        assert!(err.to_string().contains("straggler"), "{err}");

        let jobs = vec![small_job(0, 0.0, 1, 1)];
        let cfg = SimConfig {
            failure: Some(FailureModel {
                mtbf_rounds: 0.0,
                ..FailureModel::default()
            }),
            ..SimConfig::default()
        };
        let err = Simulation::new(cluster(), jobs, cfg)
            .run(FifoV100)
            .unwrap_err();
        assert!(err.to_string().contains("failure"), "{err}");

        // A preemption penalty that is negative or not finite would credit
        // work (negative) or silently lose the whole round (NaN, inf).
        let bad_penalties = [
            PreemptionPenalty::Fixed(-1000.0),
            PreemptionPenalty::Fixed(f64::NAN),
            PreemptionPenalty::Fixed(f64::INFINITY),
            PreemptionPenalty::Modeled(CheckpointModel {
                effective_bandwidth_mib_s: 0.0,
            }),
            PreemptionPenalty::Modeled(CheckpointModel {
                effective_bandwidth_mib_s: -250.0,
            }),
            PreemptionPenalty::Modeled(CheckpointModel {
                effective_bandwidth_mib_s: f64::NAN,
            }),
            PreemptionPenalty::Modeled(CheckpointModel {
                effective_bandwidth_mib_s: f64::INFINITY,
            }),
        ];
        for penalty in bad_penalties {
            let jobs = vec![small_job(0, 0.0, 1, 1)];
            let cfg = SimConfig {
                penalty,
                ..SimConfig::default()
            };
            let err = Simulation::new(cluster(), jobs, cfg)
                .run(FifoV100)
                .unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig(_)),
                "{penalty:?}: {err:?}"
            );
        }
        for penalty in [
            PreemptionPenalty::Fixed(0.0),
            PreemptionPenalty::None,
            PreemptionPenalty::Modeled(CheckpointModel::default()),
        ] {
            let cfg = SimConfig {
                penalty,
                ..SimConfig::default()
            };
            assert!(cfg.validate().is_ok(), "{penalty:?}");
        }
    }

    /// A scheduler that keeps placing on machine 0 regardless of its
    /// availability — the engine must strip those placements while the
    /// machine is down.
    struct StubbornV100;
    impl Scheduler for StubbornV100 {
        fn name(&self) -> &str {
            "Stubborn"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
            let mut alloc = Allocation::empty();
            let v100 = ctx.cluster.catalog().lookup("V100").expect("V100");
            for s in ctx.jobs {
                alloc.set(
                    s.job.id,
                    JobPlacement::single(MachineId(0), v100, s.job.gang),
                );
            }
            alloc
        }
    }

    fn failure_config(mtbf: f64, mttr: f64, seed: u64) -> SimConfig {
        SimConfig {
            penalty: PreemptionPenalty::None,
            comm: CommCostModel::free(),
            failure: Some(FailureModel {
                mtbf_rounds: mtbf,
                mttr_rounds: mttr,
                seed,
            }),
            max_rounds: 2_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn failures_evict_and_delay_but_jobs_still_finish() {
        // Aggressive failures against a scheduler that never moves off the
        // dead machine: the job only progresses while machine 0 is up, and
        // every failure evicts it and rolls back the failed round.
        let jobs = vec![small_job(0, 0.0, 2, 2_000)];
        let healthy = Simulation::new(cluster(), jobs.clone(), no_penalty_config())
            .run(StubbornV100)
            .unwrap();
        let out = Simulation::new(cluster(), jobs, failure_config(5.0, 3.0, 1))
            .run(StubbornV100)
            .unwrap();
        assert_eq!(out.completed_jobs(), 1);
        assert!(out.evictions() > 0, "no evictions at mtbf=5");
        assert!(out.machine_failures() > 0);
        assert!(
            out.records[0].jct().unwrap() > healthy.records[0].jct().unwrap(),
            "failures must delay completion"
        );
        crate::event::check_lifecycle(out.events(), 1).expect("valid lifecycle under failures");
    }

    #[test]
    fn eviction_rolls_back_the_lost_round() {
        // Deterministically fail machine 0 in round 2 via a model with
        // mtbf=1 (fails in the first stepped round after repair).
        let jobs = vec![small_job(0, 0.0, 2, 2_000)];
        let out = Simulation::new(cluster(), jobs, failure_config(1.0, 1.0, 0))
            .run(StubbornV100)
            .unwrap();
        // With mtbf_rounds = 1 every up-round immediately fails the
        // machine, so the job can never run: it times out with zero
        // service. The eviction path must still produce a valid log.
        assert!(out.timed_out);
        crate::event::check_lifecycle(out.events(), 1).expect("valid lifecycle");
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let jobs: Vec<Job> = (0..4).map(|i| small_job(i, 0.0, 1, 400)).collect();
        let run = |seed: u64| {
            Simulation::new(cluster(), jobs.clone(), failure_config(10.0, 4.0, seed))
                .run(FifoV100)
                .unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.jcts(), b.jcts());
        assert_eq!(a.events(), b.events());
        let c = run(8);
        assert!(a.jcts() != c.jcts() || a.events() != c.events());
    }

    #[test]
    fn disabled_failure_model_changes_nothing() {
        let jobs: Vec<Job> = (0..4).map(|i| small_job(i, 0.0, 1, 200)).collect();
        let base = Simulation::new(cluster(), jobs.clone(), no_penalty_config())
            .run(FifoV100)
            .unwrap();
        let cfg = SimConfig {
            failure: None,
            ..no_penalty_config()
        };
        let with_none = Simulation::new(cluster(), jobs, cfg).run(FifoV100).unwrap();
        assert_eq!(base.jcts(), with_none.jcts());
        assert_eq!(base.events(), with_none.events());
    }

    #[test]
    fn nan_arrival_sorts_last_and_never_admits() {
        // Regression for the NaN-unsafe arrival comparator: a malformed
        // trace with a NaN arrival used to panic inside sort_by. With
        // total_cmp the job sorts last, is never admitted (NaN fails every
        // `arrival <= boundary` check), and the run ends at the round cap
        // with an unstarted record instead of aborting.
        // Job::new validates arrivals, so corrupt the field after
        // construction — mimicking a trace deserialized from a hand-edited
        // file that bypassed the constructor.
        let mut bad = small_job(1, 0.0, 1, 1);
        bad.arrival = f64::NAN;
        let jobs = vec![small_job(0, 0.0, 1, 1), bad];
        let cfg = SimConfig {
            max_rounds: 3,
            ..no_penalty_config()
        };
        let out = Simulation::new(cluster(), jobs, cfg).run(FifoV100).unwrap();
        assert!(out.timed_out);
        assert_eq!(out.completed_jobs(), 1);
        assert!(out.records[1].first_scheduled.is_none());
        assert!(out.records[1].finish.is_none());
    }

    #[test]
    fn rounds_report_bookkeeping_and_no_phases_for_plain_policies() {
        // FifoV100 does not override last_decision_phases: every round must
        // carry None phases and a finite bookkeeping time.
        let jobs = vec![small_job(0, 0.0, 2, 100)];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert!(!out.rounds.is_empty());
        for r in &out.rounds {
            assert!(r.phases.is_none());
            assert!(r.bookkeeping_seconds >= 0.0);
        }
        assert_eq!(out.dp_budget_exhausted_rounds(), 0);
        assert_eq!(out.reused_rounds(), 0);
    }

    #[test]
    fn job_rate_applies_comm_factor() {
        let c = cluster();
        let job = small_job(0, 0.0, 2, 1);
        let v100 = c.catalog().lookup("V100").unwrap();
        let spread = JobPlacement::from_slices([
            hadar_cluster::PlacementSlice {
                machine: MachineId(0),
                gpu: v100,
                count: 1,
            },
            hadar_cluster::PlacementSlice {
                machine: MachineId(1),
                gpu: v100,
                count: 1,
            },
        ]);
        let comm = CommCostModel {
            throughput_penalty_per_hop: 0.1,
            price_surcharge_per_hop: 0.0,
        };
        let r = job_rate(&job, &spread, &comm, &[]);
        assert!((r - 2.0 * 120.0 * 0.9).abs() < 1e-9);
        // A straggling machine slows the whole gang to its pace.
        let r = job_rate(&job, &spread, &comm, &[1.0, 0.5]);
        assert!((r - 2.0 * 60.0 * 0.9).abs() < 1e-9);
        assert_eq!(job_rate(&job, &JobPlacement::empty(), &comm, &[]), 0.0);
    }
}
