//! The round-based simulation engine.

use std::time::Instant;

use hadar_cluster::comm::placement_factor;
use hadar_cluster::{Cluster, JobId, JobPlacement, MachineId, PlacementSlice};
use hadar_workload::Job;

use crate::checkpoint::PreemptionPenalty;
use crate::error::{SimError, SimResult};
use crate::event::SimEvent;
use crate::faults::{FailureModel, MachineFaults, StragglerModel};
use crate::scheduler::{JobState, Scheduler, SchedulerContext};
use crate::stats::{JobRecord, RoundRecord, SimOutcome};
use crate::telemetry::{render_jsonl, Telemetry};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Scheduling-round length `L` in seconds (paper default: 6 minutes).
    pub round_length: f64,
    /// Penalty charged to a job whose allocation changed.
    pub penalty: PreemptionPenalty,
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
        if let PreemptionPenalty::Fixed(secs) = self.penalty {
            if !secs.is_finite() || secs < 0.0 {
                return Err(SimError::InvalidConfig(format!(
                    "preemption penalty must be finite and non-negative (got {secs})"
                )));
            }
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
    /// dense `0..n` (as produced by the trace generator), or
    /// [`Simulation::run`] returns [`SimError::InvalidConfig`].
    pub fn new(cluster: Cluster, jobs: Vec<Job>, config: SimConfig) -> Self {
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
    /// Returns a [`SimError`] instead of panicking when the configuration,
    /// the job ids or a gang the cluster cannot hold are invalid, or the
    /// scheduler violates the allocation constraints, so one bad cell in a
    /// parallel sweep degrades into an error row rather than aborting every
    /// worker.
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
            mut jobs,
            config,
        } = self;
        config.validate()?;
        let num_jobs = jobs.len();
        let round = config.round_length;

        // One record per job, indexed by job id.
        jobs.sort_unstable_by_key(|j| j.id);
        if let Some((i, j)) = jobs.iter().enumerate().find(|(i, j)| j.id.index() != *i) {
            return Err(SimError::InvalidConfig(format!(
                "job ids must be dense 0..{num_jobs}: position {i} holds {}",
                j.id
            )));
        }
        // A gang larger than all the GPUs of the types it can run on could
        // never be placed; every policy would spin to the round cap.
        for job in &jobs {
            let types = cluster.catalog().ids();
            let usable: u32 = types
                .filter(|&r| job.profile.rate(r) > 0.0)
                .map(|r| cluster.total_of_type(r))
                .sum();
            if job.gang > usable {
                return Err(SimError::InvalidConfig(format!(
                    "job {} has gang {} but the cluster has only {usable} GPUs of the types it can run on",
                    job.id, job.gang
                )));
            }
        }
        let mut records: Vec<JobRecord> = jobs
            .into_iter()
            .map(|job| JobRecord {
                job,
                first_scheduled: None,
                finish: None,
                rounds_run: 0,
                reallocations: 0,
            })
            .collect();
        // Admission order: by arrival, then id. total_cmp sorts a NaN
        // arrival (malformed trace) last instead of panicking mid-sort; it
        // fails every `arrival <= boundary` check, so the job is never
        // admitted and the run ends at the round cap with its record unstarted.
        let mut order: Vec<usize> = (0..num_jobs).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (records[a].job.arrival, records[b].job.arrival);
            ra.total_cmp(&rb).then(a.cmp(&b))
        });
        let mut pending = order.into_iter().peekable();
        let mut active: Vec<JobState> = Vec::new();
        // Per job id: its index in `active` while admitted and unfinished.
        let mut slot: Vec<Option<usize>> = vec![None; num_jobs];
        // Jobs holding GPUs after the previous round, in `active` order: with
        // the jobs it places, all a round visits (an idle job changes nothing).
        let mut running: Vec<JobId> = Vec::new();
        let mut visit: Vec<(usize, JobPlacement)> = Vec::new();
        // Σ gang over `active`.
        let mut demand_gpus = 0u32;
        let mut finished: Vec<JobId> = Vec::new();
        let mut completions: Vec<SimEvent> = Vec::new();
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut time = 0.0f64;
        let mut timed_out = false;
        let mut round_no = 0u64;
        let mut faults =
            MachineFaults::new(config.straggler, config.failure, cluster.num_machines());
        let mut events: Vec<SimEvent> = Vec::new();

        while pending.len() > 0 || !active.is_empty() {
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
                if let Some(&next) = pending.peek() {
                    let arrival = records[next].job.arrival;
                    if arrival > time {
                        let below = (arrival / round).floor() * round;
                        time = if arrival <= below + f64::EPSILON * below.max(1.0) {
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
            while let Some(i) =
                pending.next_if(|&i| records[i].job.arrival <= time + f64::EPSILON * time.max(1.0))
            {
                let job = &records[i].job;
                scheduler.on_arrival(job);
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
                slot[i] = Some(active.len());
                demand_gpus += job.gang;
                active.push(JobState::new(job.clone()));
                arrivals_this_round += 1;
            }

            // Advance the fault processes: stragglers, then whole-machine
            // failures. Down machines run at factor 0.0.
            let (failed, recovered) = faults.step();
            for &h in failed {
                events.push(SimEvent::MachineFailed { time, machine: h });
            }
            for &h in recovered {
                events.push(SimEvent::MachineRecovered { time, machine: h });
            }
            let machine_factors = faults.factors();
            let availability = faults.availability();
            let any_down = availability.any_down();
            if any_down {
                // Forcibly evict jobs whose placement touches a down
                // machine: the work since the last round-boundary
                // checkpoint (i.e. the failed round's progress) is lost,
                // and any re-placement pays the restore penalty below.
                for &id in &running {
                    let state = &mut active[slot[id.index()].expect("running jobs are active")];
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
                machine_factors,
                availability,
                telemetry: &telemetry,
            };
            let t0 = Instant::now();
            let allocation = scheduler.schedule(&ctx);
            let decision_seconds = t0.elapsed().as_secs_f64();
            let phases = scheduler.last_decision_phases();

            // Validate: capacity, gang sizes, and that only queued jobs are
            // scheduled. A violation is a policy bug — fail the run.
            let queued = |id: JobId| slot.get(id.index()).is_some_and(Option::is_some);
            if let Some((id, _)) = allocation.iter().find(|&(id, _)| !queued(id)) {
                return Err(SimError::UnknownJobAllocated {
                    scheduler: scheduler.name().to_owned(),
                    job: id,
                    round: round_no,
                });
            }
            if let Err(e) = allocation.validate(&cluster, |id| records[id.index()].job.gang) {
                return Err(SimError::InvalidAllocation {
                    scheduler: scheduler.name().to_owned(),
                    round: round_no,
                    detail: e.to_string(),
                });
            }

            // Advance the jobs that held GPUs or receive them, in `active`
            // order so events and float sums keep their order. A job in both
            // sets is visited once, with its new placement.
            let position = |id: JobId| slot[id.index()].expect("queued");
            visit.extend(allocation.into_iter().map(|(id, p)| (position(id), p)));
            visit.extend(
                running
                    .drain(..)
                    .map(|id| (position(id), JobPlacement::empty())),
            );
            visit.sort_unstable_by_key(|(k, p)| (*k, p.is_empty()));
            visit.dedup_by_key(|(k, _)| *k);
            let mut busy_gpu_seconds = 0.0;
            let mut held_gpu_seconds = 0.0;
            let mut reallocations = 0u32;
            let mut running_jobs = 0u32;
            let mut scheduled_this_round = 0u32;
            let mut preempted_this_round = 0u32;
            let queue_depth = active.len() as u32;
            let mut util_by_type = vec![0u32; cluster.num_types()];

            for (k, mut new_placement) in visit.drain(..) {
                let state = &mut active[k];
                // A placement touching a down machine cannot run: strip it,
                // so the job simply loses the round (zero-rate masking for
                // policies that ignore the availability mask).
                if any_down
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
                let rec = &mut records[state.job.id.index()];
                if changed {
                    if rec.first_scheduled.is_none() {
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
                rec.rounds_run += 1;
                if changed {
                    rec.reallocations += 1;
                    reallocations += 1;
                }
                if rec.first_scheduled.is_none() {
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

                let (rate, bottleneck) =
                    rate_and_bottleneck(&state.job, new_placement.slices(), machine_factors)
                        .unwrap_or_default();
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
                    for sl in new_placement.slices() {
                        let x = state.job.profile.rate(sl.gpu) * factor_of(sl.machine);
                        let weight = if x > 0.0 { bottleneck / x } else { 0.0 };
                        busy_gpu_seconds += sl.count as f64 * work_time * weight;
                    }
                }
                if state.remaining_iters > 0.0 {
                    running.push(state.job.id);
                }
                state.placement = new_placement;
            }

            completions.sort_by(|a, b| a.time().total_cmp(&b.time()));
            events.append(&mut completions);
            let round_demand = demand_gpus;
            for &id in &finished {
                scheduler.on_completion(id);
                slot[id.index()] = None;
                demand_gpus -= records[id.index()].job.gang;
            }
            if !finished.is_empty() {
                active.retain(|s| s.remaining_iters > 0.0);
                for (k, s) in active.iter().enumerate() {
                    slot[s.job.id.index()] = Some(k);
                }
            }
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
                demand_gpus: round_demand,
                busy_gpu_seconds,
                held_gpu_seconds,
                machines_down: availability.num_down() as u32,
                decision_seconds,
                util_by_type,
                phases,
                policy: telemetry.drain_round(),
            });
            finished.clear();
        }

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
/// [`slices_rate`] of its slices.
pub fn job_rate(job: &Job, placement: &JobPlacement, factors: &[f64]) -> f64 {
    slices_rate(job, placement.slices(), factors)
}

/// Effective aggregate rate of a job on a canonical slice list
/// (iterations/sec): bottleneck per-task throughput (Eq. 1b), each task
/// scaled by its machine's straggler factor (machines beyond `factors`
/// count as healthy, 1.0), × gang size × the communication degradation for
/// non-consolidated placements. 0.0 for an empty list.
pub fn slices_rate(job: &Job, slices: &[PlacementSlice], factors: &[f64]) -> f64 {
    rate_and_bottleneck(job, slices, factors).map_or(0.0, |(rate, _)| rate)
}

/// [`slices_rate`] together with the bottleneck per-task throughput it is
/// built from; `None` for an empty list. The synchronization barrier paces
/// the gang at its slowest task.
fn rate_and_bottleneck(
    job: &Job,
    slices: &[PlacementSlice],
    factors: &[f64],
) -> Option<(f64, f64)> {
    let bottleneck = slices
        .iter()
        .map(|s| job.profile.rate(s.gpu) * factors.get(s.machine.index()).copied().unwrap_or(1.0))
        .min_by(|a, b| a.partial_cmp(b).expect("throughput must not be NaN"))?;
    let workers: u32 = slices.iter().map(|s| s.count).sum();
    let rate = bottleneck * workers as f64 * placement_factor(slices);
    Some((rate, bottleneck))
}

#[cfg(test)]
mod tests {
    use super::*;
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
            penalty: PreemptionPenalty::Fixed(0.0),
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
    fn sparse_job_ids_rejected() {
        for ids in [vec![5], vec![0, 0], vec![0, 2]] {
            let jobs = ids.iter().map(|&i| small_job(i, 0.0, 1, 1)).collect();
            let err = Simulation::new(cluster(), jobs, SimConfig::default())
                .run(FifoV100)
                .unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig(m) if m.contains("dense")),
                "{ids:?}: {err:?}"
            );
        }
    }

    /// Allocates one fixed job id every round, whether or not it is queued.
    struct Allocates(JobId);
    impl Scheduler for Allocates {
        fn name(&self) -> &str {
            "Allocates"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
            let mut alloc = Allocation::empty();
            let v100 = ctx.cluster.catalog().lookup("V100").expect("V100");
            alloc.set(self.0, JobPlacement::single(MachineId(0), v100, 1));
            alloc
        }
    }

    fn assert_unknown_job(err: SimError, job: JobId, round: u64) {
        match err {
            SimError::UnknownJobAllocated {
                scheduler,
                job: j,
                round: r,
            } => assert_eq!((scheduler.as_str(), j, r), ("Allocates", job, round)),
            other => panic!("expected UnknownJobAllocated, got {other:?}"),
        }
    }

    #[test]
    fn allocating_a_finished_job_is_an_error() {
        // Job 0 finishes in round 1 (one epoch takes ~3 s); job 1 keeps the
        // run going, and round 2 still allocates job 0.
        let jobs = vec![small_job(0, 0.0, 1, 1), small_job(1, 0.0, 1, 10_000)];
        let err = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(Allocates(JobId(0)))
            .unwrap_err();
        assert_unknown_job(err, JobId(0), 2);
    }

    #[test]
    fn allocating_a_job_not_yet_admitted_is_an_error() {
        // Job 1 arrives at the third boundary; round 1 already allocates it.
        let jobs = vec![small_job(0, 0.0, 1, 10_000), small_job(1, 720.0, 1, 1)];
        let err = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(Allocates(JobId(1)))
            .unwrap_err();
        assert_unknown_job(err, JobId(1), 1);
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
        let jobs = vec![small_job(0, 0.0, 2, 1)];
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
        for penalty in [PreemptionPenalty::Fixed(0.0), PreemptionPenalty::Modeled] {
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
            penalty: PreemptionPenalty::Fixed(0.0),
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
        // carry None phases.
        let jobs = vec![small_job(0, 0.0, 2, 100)];
        let out = Simulation::new(cluster(), jobs, no_penalty_config())
            .run(FifoV100)
            .unwrap();
        assert!(!out.rounds.is_empty());
        for r in &out.rounds {
            assert!(r.phases.is_none());
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
        let keep = 1.0 - hadar_cluster::comm::THROUGHPUT_PENALTY_PER_HOP;
        let r = job_rate(&job, &spread, &[]);
        assert!((r - 2.0 * 120.0 * keep).abs() < 1e-9);
        // A straggling machine slows the whole gang to its pace.
        let r = job_rate(&job, &spread, &[1.0, 0.5]);
        assert!((r - 2.0 * 60.0 * keep).abs() < 1e-9);
        assert_eq!(job_rate(&job, &JobPlacement::empty(), &[]), 0.0);
    }
}
