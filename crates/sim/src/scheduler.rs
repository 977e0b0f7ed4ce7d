//! The scheduler interface every policy implements (Hadar, Gavel, Tiresias,
//! YARN-CS, and any user-defined policy).

use hadar_cluster::{Allocation, Availability, Cluster, JobPlacement};
use hadar_workload::Job;

use crate::telemetry::Telemetry;

/// The simulator-maintained state of one job visible to schedulers.
#[derive(Debug, Clone)]
pub struct JobState {
    /// The immutable job record (`a_j`, `W_j`, `E_j·N_j`, `X_j^r`).
    pub job: Job,
    /// Iterations still required to finish.
    pub remaining_iters: f64,
    /// The placement the job held in the previous round (empty if it was not
    /// running). Schedulers use this to avoid gratuitous reallocation.
    pub placement: JobPlacement,
    /// Accumulated seconds of service received so far (used by LAS policies
    /// such as Tiresias: attained service = `gang · service_seconds`).
    pub service_seconds: f64,
    /// Iterations completed in the most recent round (0 while idle). When a
    /// machine fails, jobs it hosted lose the work since their last
    /// round-boundary checkpoint — the engine rolls this amount back onto
    /// `remaining_iters`.
    pub last_round_iters: f64,
}

impl JobState {
    /// Fresh state for a newly admitted job.
    pub fn new(job: Job) -> Self {
        let remaining = job.total_iterations();
        Self {
            job,
            remaining_iters: remaining,
            placement: JobPlacement::empty(),
            service_seconds: 0.0,
            last_round_iters: 0.0,
        }
    }

    /// Whether the job is currently holding GPUs.
    pub fn is_running(&self) -> bool {
        !self.placement.is_empty()
    }

    /// Attained service in GPU-seconds (the Tiresias priority input).
    pub fn attained_service(&self) -> f64 {
        self.job.gang as f64 * self.service_seconds
    }
}

/// Everything a scheduler may consult when making a round's decision.
#[derive(Debug)]
pub struct SchedulerContext<'a> {
    /// Current simulation time (start of the round), seconds.
    pub time: f64,
    /// Round length `L` in seconds.
    pub round_length: f64,
    /// The cluster topology.
    pub cluster: &'a Cluster,
    /// All admitted, unfinished jobs, sorted by `(arrival, id)`: ascending
    /// [`f64::total_cmp`] of `job.arrival`, then ascending `job.id`.
    /// [`hadar_workload::Job::new`] stores a −0.0 arrival as +0.0, so jobs
    /// arriving at time zero order by id. FIFO policies rely on this order.
    pub jobs: &'a [JobState],
    /// Per-machine throughput factors this round (1.0 = healthy; < 1.0 =
    /// straggling, see [`crate::StragglerModel`]; 0.0 = down, see
    /// [`crate::FailureModel`]). May be empty when injection is disabled.
    pub machine_factors: &'a [f64],
    /// Per-machine up/down mask this round (see [`crate::FailureModel`]).
    /// Down machines must not be placed on; the engine strips any placement
    /// that touches one, so the job loses the round.
    pub availability: &'a Availability,
    /// The run's telemetry sink. Policies fold per-round counters into it
    /// via [`Telemetry::incr`] / [`Telemetry::gauge`]; every call is a no-op
    /// when the sink is disabled (the default), so emission must stay purely
    /// observational — never consult the sink to make a decision.
    pub telemetry: &'a Telemetry,
}

impl SchedulerContext<'_> {
    /// Whether machine `h` is up this round.
    pub fn is_up(&self, h: hadar_cluster::MachineId) -> bool {
        self.availability.is_up(h)
    }
}

/// Per-phase wall-clock breakdown of one scheduling decision, reported by
/// schedulers that instrument their round path (Hadar does). All durations
/// are in seconds; phases not applicable to a policy stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecisionPhases {
    /// Time spent recomputing marginal prices (Eq. 5).
    pub price_seconds: f64,
    /// Time spent generating/pricing placement candidates (cache misses).
    pub candidates_seconds: f64,
    /// Time spent in subset selection (DP or greedy admission) *excluding*
    /// candidate generation.
    pub select_seconds: f64,
    /// Whether the DP dual subroutine hit its node budget and fell back to
    /// (or was beaten by) the greedy floor this round.
    pub dp_budget_hit: bool,
    /// Whether the round reused the previous decision outright (the §IV-A-5
    /// incremental fast path) instead of re-optimizing.
    pub reused: bool,
}

/// A round-based cluster scheduler.
///
/// The simulator calls [`Scheduler::schedule`] once per round; the returned
/// allocation fully replaces the previous round's (jobs absent from it are
/// preempted). Implementations must respect capacity and gang constraints —
/// the engine validates every allocation and fails the run with a
/// [`crate::SimError`] on violations, treating them as policy bugs.
pub trait Scheduler {
    /// Display name used in reports ("Hadar", "Gavel", …).
    fn name(&self) -> &str;

    /// Decide the allocation for the round described by `ctx`.
    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation;

    /// Notification: `job` was admitted to the queue (called before the
    /// round's `schedule`).
    fn on_arrival(&mut self, _job: &Job) {}

    /// Notification: `job` finished during the previous round (called before
    /// the round's `schedule`).
    fn on_completion(&mut self, _job: hadar_cluster::JobId) {}

    /// Per-phase timing of the most recent [`Scheduler::schedule`] call, if
    /// the policy instruments its round path (`None` otherwise — the
    /// default). The engine polls this right after each decision and attaches
    /// it to the round record.
    fn last_decision_phases(&self) -> Option<DecisionPhases> {
        None
    }
}

/// Blanket impl so a mutable reference can be passed to
/// [`crate::Simulation::run`] while the caller keeps the scheduler (e.g. to
/// read post-run state like Hadar's competitive bound).
impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        (**self).schedule(ctx)
    }
    fn on_arrival(&mut self, job: &Job) {
        (**self).on_arrival(job)
    }
    fn on_completion(&mut self, job: hadar_cluster::JobId) {
        (**self).on_completion(job)
    }
    fn last_decision_phases(&self) -> Option<DecisionPhases> {
        (**self).last_decision_phases()
    }
}

/// Blanket impl so `Box<dyn Scheduler>` is itself a scheduler (lets the
/// experiment harness mix policies in one collection).
impl Scheduler for Box<dyn Scheduler + '_> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        (**self).schedule(ctx)
    }
    fn on_arrival(&mut self, job: &Job) {
        (**self).on_arrival(job)
    }
    fn on_completion(&mut self, job: hadar_cluster::JobId) {
        (**self).on_completion(job)
    }
    fn last_decision_phases(&self) -> Option<DecisionPhases> {
        (**self).last_decision_phases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar_cluster::JobId;
    use hadar_workload::DlTask;

    fn job() -> Job {
        let cluster = Cluster::paper_simulation();
        Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, 2, 10)
    }

    #[test]
    fn fresh_state() {
        let j = job();
        let s = JobState::new(j.clone());
        assert_eq!(s.remaining_iters, j.total_iterations());
        assert!(!s.is_running());
        assert_eq!(s.attained_service(), 0.0);
    }

    #[test]
    fn attained_service_scales_with_gang() {
        let mut s = JobState::new(job());
        s.service_seconds = 100.0;
        assert_eq!(s.attained_service(), 200.0); // gang = 2
    }
}
