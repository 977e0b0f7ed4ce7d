//! Simulation outcome records and derived metrics.

use std::collections::BTreeMap;

use hadar_cluster::{Cluster, JobId};

use crate::event::SimEvent;
use crate::scheduler::DecisionPhases;
use crate::telemetry::TelemetrySummary;
use hadar_metrics::stats::{cdf_points, SummaryStats};
use hadar_metrics::{finish_time_fairness, isolated_finish_time};
use hadar_workload::Job;

/// Per-job outcome.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job as submitted.
    pub job: Job,
    /// Time the job first received GPUs, if ever.
    pub first_scheduled: Option<f64>,
    /// Completion time `f_j`, if the job finished before the simulation
    /// ended.
    pub finish: Option<f64>,
    /// Number of rounds in which the job held an allocation.
    pub rounds_run: u32,
    /// Number of rounds in which the job's allocation *changed* (incurring a
    /// preemption penalty) — drives the §IV-A-5 reallocation-rate statistic.
    pub reallocations: u32,
}

impl JobRecord {
    /// Job completion time `f_j − a_j`, if finished.
    pub fn jct(&self) -> Option<f64> {
        self.finish.map(|f| f - self.job.arrival)
    }

    /// Queuing delay: time from arrival to first allocation, if ever
    /// scheduled.
    pub fn queuing_delay(&self) -> Option<f64> {
        self.first_scheduled.map(|s| s - self.job.arrival)
    }
}

/// One scheduling round: the simulator's only per-round record. The engine
/// fills one per round whether or not a telemetry sink observes the run;
/// the outcome's aggregates, [`SimOutcome::telemetry_summary`] and the JSONL
/// stream are all derived from these records. The round number is the
/// record's 1-based position in [`SimOutcome::rounds`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundRecord {
    /// Round start time.
    pub time: f64,
    /// Admitted, unfinished jobs at the round start (running + waiting).
    pub queue_depth: u32,
    /// Jobs holding GPUs this round.
    pub running_jobs: u32,
    /// Jobs that went from holding no GPUs to holding GPUs this round.
    pub scheduled: u32,
    /// Jobs whose allocation the scheduler took away this round.
    pub preempted: u32,
    /// Jobs forcibly evicted by machine failures this round.
    pub evicted: u32,
    /// Jobs that completed this round.
    pub completed: u32,
    /// Jobs admitted this round.
    pub arrivals: u32,
    /// Jobs whose allocation changed this round.
    pub reallocations: u32,
    /// Total GPU demand at the round start: Σ `W_j` over admitted,
    /// unfinished jobs (capped at nothing — may exceed the cluster size).
    pub demand_gpus: u32,
    /// GPU-seconds of useful compute delivered this round (excludes
    /// checkpoint stalls).
    pub busy_gpu_seconds: f64,
    /// GPU-seconds held by jobs this round (includes stalls).
    pub held_gpu_seconds: f64,
    /// Machines down this round.
    pub machines_down: u32,
    /// Wall-clock seconds the scheduler spent deciding.
    pub decision_seconds: f64,
    /// GPUs allocated per type this round, in catalog order.
    pub util_by_type: Vec<u32>,
    /// Per-phase breakdown of the decision, when the scheduler reports one
    /// (see [`crate::Scheduler::last_decision_phases`]).
    pub phases: Option<DecisionPhases>,
    /// The policy's own counters for this round (see
    /// [`crate::Telemetry::incr`]); empty when the sink was disabled.
    pub policy: BTreeMap<String, f64>,
    /// Wall-clock seconds the engine spent on round bookkeeping *outside*
    /// the scheduler call: allocation validation, penalty charging, progress
    /// advancement, and event recording.
    pub bookkeeping_seconds: f64,
}

/// Complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Scheduler display name.
    pub scheduler: String,
    /// Per-job outcomes, indexed by job id.
    pub records: Vec<JobRecord>,
    /// Per-round telemetry.
    pub rounds: Vec<RoundRecord>,
    /// Round length used.
    pub round_length: f64,
    /// Total GPUs in the cluster.
    pub total_gpus: u32,
    /// Whether the simulation hit its round cap before all jobs finished.
    pub timed_out: bool,
    cluster: Cluster,
    events: Vec<SimEvent>,
    /// Set by the engine when the run used an enabled sink.
    pub(crate) telemetry_stream: Option<String>,
}

impl SimOutcome {
    pub(crate) fn new(
        scheduler: String,
        records: Vec<JobRecord>,
        rounds: Vec<RoundRecord>,
        round_length: f64,
        cluster: Cluster,
        timed_out: bool,
        events: Vec<SimEvent>,
    ) -> Self {
        let total_gpus = cluster.total_gpus();
        Self {
            scheduler,
            records,
            rounds,
            round_length,
            total_gpus,
            timed_out,
            cluster,
            events,
            telemetry_stream: None,
        }
    }

    /// Run totals over [`SimOutcome::rounds`] — the stream's `summary`
    /// record. The engine counts are filled with the sink on or off;
    /// [`TelemetrySummary::policy`] is empty unless the run used an enabled
    /// [`crate::Telemetry`] sink.
    pub fn telemetry_summary(&self) -> TelemetrySummary {
        let mut t = TelemetrySummary {
            rounds: self.rounds.len() as u64,
            ..TelemetrySummary::default()
        };
        for r in &self.rounds {
            t.scheduled += u64::from(r.scheduled);
            t.preempted += u64::from(r.preempted);
            t.evicted += u64::from(r.evicted);
            t.completed += u64::from(r.completed);
            t.max_queue_depth = t.max_queue_depth.max(r.queue_depth);
            for (k, v) in &r.policy {
                *t.policy.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        t
    }

    /// The per-round JSONL telemetry stream, when the run was executed with
    /// an enabled [`crate::Telemetry`] sink
    /// ([`crate::Simulation::run_with_telemetry`]); `None` otherwise.
    pub fn telemetry_stream(&self) -> Option<&str> {
        self.telemetry_stream.as_deref()
    }

    /// The chronological lifecycle event log of the run.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// The cluster the run used.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Number of jobs that finished.
    pub fn completed_jobs(&self) -> usize {
        self.records.iter().filter(|r| r.finish.is_some()).count()
    }

    /// All finished jobs' JCTs.
    pub fn jcts(&self) -> Vec<f64> {
        self.records.iter().filter_map(|r| r.jct()).collect()
    }

    /// Summary statistics over JCTs.
    pub fn metrics(&self) -> SummaryStats {
        SummaryStats::of(&self.jcts())
    }

    /// Mean JCT in seconds (0 if nothing finished).
    pub fn mean_jct(&self) -> f64 {
        self.metrics().mean
    }

    /// Median JCT in seconds.
    pub fn median_jct(&self) -> f64 {
        self.metrics().median
    }

    /// Makespan: latest finish time across jobs (the paper's
    /// `max_j f_j`). 0 if nothing finished.
    pub fn makespan(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| r.finish)
            .fold(0.0, f64::max)
    }

    /// Queuing-delay statistics over jobs that were ever scheduled.
    pub fn queuing_delays(&self) -> SummaryStats {
        let v: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.queuing_delay())
            .collect();
        SummaryStats::of(&v)
    }

    /// Cluster-wide GPU utilization over `[0, makespan]`: useful GPU-seconds
    /// delivered divided by total GPU-seconds available.
    pub fn gpu_utilization(&self) -> f64 {
        let span = self.makespan();
        if span <= 0.0 || self.total_gpus == 0 {
            return 0.0;
        }
        let busy: f64 = self
            .rounds
            .iter()
            .filter(|r| r.time < span)
            .map(|r| {
                // Clip the final partial round at the makespan boundary.
                let frac = ((span - r.time) / self.round_length).min(1.0);
                r.busy_gpu_seconds * frac
            })
            .sum();
        busy / (self.total_gpus as f64 * span)
    }

    /// Demand-constrained cluster utilization: useful GPU-seconds divided
    /// by the GPU-seconds that *could* have served demand — per round,
    /// `min(total GPUs, Σ W_j over unfinished jobs) · L`. Unlike
    /// [`SimOutcome::gpu_utilization`], the drain-out tail (when fewer jobs
    /// remain than GPUs) does not dilute the score, so the metric isolates
    /// the Fig. 4 effect: GPUs idling *while jobs wait* because a scheduler
    /// cannot use a heterogeneous leftover mix.
    pub fn demand_weighted_utilization(&self) -> f64 {
        let mut busy = 0.0;
        let mut capacity = 0.0;
        for r in &self.rounds {
            busy += r.busy_gpu_seconds;
            capacity += f64::from(r.demand_gpus.min(self.total_gpus)) * self.round_length;
        }
        if capacity <= 0.0 {
            0.0
        } else {
            (busy / capacity).min(1.0)
        }
    }

    /// GPU utilization in the Fig. 4 sense — "the percentage of total job
    /// run-time during which the GPUs are utilized": useful compute
    /// GPU-seconds divided by GPU-seconds *held by jobs*. Checkpoint/restore
    /// stalls and gang members idling at a synchronization barrier count as
    /// held-but-not-utilized; GPUs no scheduler allocated do not enter this
    /// metric (see [`SimOutcome::gpu_utilization`] for the cluster-wide
    /// variant). A non-preemptive scheduler that never stalls (YARN-CS)
    /// scores ~1.0 here.
    pub fn held_utilization(&self) -> f64 {
        let held: f64 = self.rounds.iter().map(|r| r.held_gpu_seconds).sum();
        if held <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.rounds.iter().map(|r| r.busy_gpu_seconds).sum();
        busy / held
    }

    /// Finish-time-fairness ρ per finished job (Fig. 5 input).
    pub fn ftf_values(&self) -> Vec<f64> {
        let n = self.records.len();
        self.records
            .iter()
            .filter_map(|r| {
                r.jct()
                    .map(|jct| finish_time_fairness(&r.job, &self.cluster, n, jct))
            })
            .collect()
    }

    /// Summary of FTF ρ values.
    pub fn ftf(&self) -> SummaryStats {
        SummaryStats::of(&self.ftf_values())
    }

    /// Fig. 3 series: `(completion time, cumulative fraction completed)`.
    pub fn completion_cdf(&self) -> Vec<(f64, f64)> {
        let times: Vec<f64> = self.records.iter().filter_map(|r| r.finish).collect();
        cdf_points(&times)
    }

    /// Fraction of job-rounds whose allocation changed (§IV-A-5 reports
    /// ~30 % for Hadar).
    pub fn reallocation_rate(&self) -> f64 {
        let runs: u64 = self.records.iter().map(|r| r.rounds_run as u64).sum();
        let moves: u64 = self.records.iter().map(|r| r.reallocations as u64).sum();
        if runs == 0 {
            0.0
        } else {
            moves as f64 / runs as f64
        }
    }

    /// Mean scheduler decision wall time per round, seconds.
    pub fn mean_decision_seconds(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.decision_seconds).sum::<f64>() / self.rounds.len() as f64
    }

    /// Number of rounds whose DP dual subroutine hit its node budget (and
    /// therefore fell back to — or was beaten by — the greedy floor). Only
    /// counted for schedulers that report [`DecisionPhases`]; 0 otherwise.
    pub fn dp_budget_exhausted_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.phases.is_some_and(|p| p.dp_budget_hit))
            .count()
    }

    /// Number of rounds that reused the previous decision outright via the
    /// incremental fast path (per reported [`DecisionPhases`]).
    pub fn reused_rounds(&self) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.phases.is_some_and(|p| p.reused))
            .count()
    }

    /// Summed per-phase decision timings across all rounds that reported
    /// them: `(price, candidate generation, selection)` in seconds.
    pub fn phase_totals(&self) -> (f64, f64, f64) {
        let mut t = (0.0, 0.0, 0.0);
        for p in self.rounds.iter().filter_map(|r| r.phases) {
            t.0 += p.price_seconds;
            t.1 += p.candidates_seconds;
            t.2 += p.select_seconds;
        }
        t
    }

    /// Total wall-clock seconds of engine bookkeeping (validation, penalty
    /// charging, progress advancement) across all rounds.
    pub fn total_bookkeeping_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.bookkeeping_seconds).sum()
    }

    /// Total wall-clock seconds of scheduler decisions across all rounds.
    pub fn total_decision_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.decision_seconds).sum()
    }

    /// Isolated finish time of job `id` under this run's cluster and job
    /// count (exposed for FTF debugging / tests).
    pub fn isolated_finish_time(&self, id: JobId) -> f64 {
        isolated_finish_time(
            &self.records[id.index()].job,
            &self.cluster,
            self.records.len(),
        )
    }

    /// End of simulated time: the start of the last round plus one round
    /// length (0 if no round ran).
    fn sim_end(&self) -> f64 {
        self.rounds
            .last()
            .map_or(0.0, |r| r.time + self.round_length)
    }

    /// Number of forced evictions: jobs kicked off a machine because it
    /// failed (see [`crate::FailureModel`]).
    pub fn evictions(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SimEvent::JobEvicted { .. }))
            .count()
    }

    /// Number of machine-failure events over the run.
    pub fn machine_failures(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SimEvent::MachineFailed { .. }))
            .count()
    }

    /// GPU-seconds of capacity lost to machine downtime: for every failure
    /// interval (failure → recovery, or failure → end of run), the interval
    /// length times the failed machine's GPU count.
    pub fn lost_gpu_seconds(&self) -> f64 {
        let machine_gpus = |m: hadar_cluster::MachineId| -> f64 {
            self.cluster.machine(m).capacities().iter().sum::<u32>() as f64
        };
        let mut down_since: std::collections::HashMap<hadar_cluster::MachineId, f64> =
            std::collections::HashMap::new();
        let mut lost = 0.0;
        for e in &self.events {
            match *e {
                SimEvent::MachineFailed { time, machine } => {
                    down_since.entry(machine).or_insert(time);
                }
                SimEvent::MachineRecovered { time, machine } => {
                    if let Some(start) = down_since.remove(&machine) {
                        lost += (time - start) * machine_gpus(machine);
                    }
                }
                _ => {}
            }
        }
        let end = self.sim_end();
        for (machine, start) in down_since {
            lost += (end - start).max(0.0) * machine_gpus(machine);
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar_workload::DlTask;

    fn outcome() -> SimOutcome {
        let cluster = Cluster::paper_simulation();
        let mk = |id: u32, arrival: f64, finish: Option<f64>| JobRecord {
            job: Job::for_model(
                JobId(id),
                DlTask::ResNet18,
                cluster.catalog(),
                arrival,
                1,
                10,
            ),
            first_scheduled: Some(arrival + 60.0),
            finish,
            rounds_run: 10,
            reallocations: 3,
        };
        SimOutcome::new(
            "Test".into(),
            vec![
                mk(0, 0.0, Some(3600.0)),
                mk(1, 100.0, Some(1900.0)),
                mk(2, 0.0, None),
            ],
            vec![
                RoundRecord {
                    time: 0.0,
                    queue_depth: 3,
                    scheduled: 2,
                    arrivals: 3,
                    busy_gpu_seconds: 30.0 * 360.0,
                    held_gpu_seconds: 30.0 * 360.0,
                    decision_seconds: 0.001,
                    reallocations: 1,
                    running_jobs: 2,
                    demand_gpus: 45,
                    util_by_type: vec![30, 0, 0],
                    ..RoundRecord::default()
                },
                RoundRecord {
                    time: 360.0,
                    queue_depth: 2,
                    preempted: 1,
                    evicted: 1,
                    completed: 1,
                    busy_gpu_seconds: 15.0 * 360.0,
                    held_gpu_seconds: 15.0 * 360.0,
                    decision_seconds: 0.003,
                    running_jobs: 1,
                    demand_gpus: 20,
                    util_by_type: vec![0, 15, 0],
                    ..RoundRecord::default()
                },
            ],
            360.0,
            cluster,
            false,
            Vec::new(),
        )
    }

    #[test]
    fn jct_and_queuing_delay() {
        let o = outcome();
        assert_eq!(o.completed_jobs(), 2);
        let jcts = o.jcts();
        assert_eq!(jcts, vec![3600.0, 1800.0]);
        assert!((o.mean_jct() - 2700.0).abs() < 1e-9);
        assert_eq!(o.records[1].queuing_delay(), Some(60.0));
    }

    #[test]
    fn makespan_is_latest_finish() {
        assert_eq!(outcome().makespan(), 3600.0);
    }

    #[test]
    fn utilization_counts_busy_fraction() {
        let o = outcome();
        // busy = 30*360 + 15*360 GPU-s over 60 GPUs * 3600 s... but rounds
        // only cover 720 s; utilization over makespan 3600 s.
        let expect = (30.0 * 360.0 + 15.0 * 360.0) / (60.0 * 3600.0);
        assert!((o.gpu_utilization() - expect).abs() < 1e-9);
    }

    #[test]
    fn reallocation_rate() {
        let o = outcome();
        // 3 moves / 10 rounds for each of 3 jobs.
        assert!((o.reallocation_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn ftf_values_only_for_finished() {
        let o = outcome();
        assert_eq!(o.ftf_values().len(), 2);
        assert!(o.ftf().mean > 0.0);
    }

    #[test]
    fn completion_cdf_reaches_one() {
        let o = outcome();
        let cdf = o.completion_cdf();
        assert_eq!(cdf.last().unwrap().1, 1.0);
        assert_eq!(cdf.first().unwrap().0, 1900.0);
    }

    #[test]
    fn decision_time_mean() {
        assert!((outcome().mean_decision_seconds() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn nan_jct_sample_does_not_panic_metrics() {
        // Regression: a corrupt finish time used to abort `metrics()` inside
        // SummaryStats' partial_cmp sort. The NaN sample is now filtered and
        // surfaced via `nan_count` instead.
        let mut o = outcome();
        o.records[0].finish = Some(f64::NAN);
        let m = o.metrics();
        assert_eq!(m.nan_count, 1);
        assert_eq!(m.count, 1); // only the finite JCT remains
        assert!(m.mean.is_finite());
        assert!(o.mean_jct().is_finite());
    }

    #[test]
    fn telemetry_default_when_disabled() {
        // A sink-off outcome: the summary's engine counts come from the
        // round records, the policy map is empty and there is no stream.
        let o = outcome();
        assert_eq!(
            o.telemetry_summary(),
            TelemetrySummary {
                rounds: 2,
                scheduled: 2,
                preempted: 1,
                evicted: 1,
                completed: 1,
                max_queue_depth: 3,
                policy: BTreeMap::new(),
            }
        );
        assert!(o.telemetry_stream().is_none());
    }

    #[test]
    fn failure_stats_derived_from_events() {
        use hadar_cluster::MachineId;
        let base = outcome();
        assert_eq!(base.evictions(), 0);
        assert_eq!(base.machine_failures(), 0);
        assert_eq!(base.lost_gpu_seconds(), 0.0);

        let cluster = Cluster::paper_simulation(); // machines have 4 GPUs
        let events = vec![
            SimEvent::MachineFailed {
                time: 0.0,
                machine: MachineId(0),
            },
            SimEvent::JobEvicted {
                time: 0.0,
                job: JobId(0),
                machine: MachineId(0),
            },
            SimEvent::MachineRecovered {
                time: 360.0,
                machine: MachineId(0),
            },
            SimEvent::MachineFailed {
                time: 360.0,
                machine: MachineId(1),
            },
        ];
        let o = SimOutcome::new(
            "Test".into(),
            Vec::new(),
            vec![
                RoundRecord::default(),
                RoundRecord {
                    time: 360.0,
                    ..RoundRecord::default()
                },
            ],
            360.0,
            cluster,
            false,
            events,
        );
        assert_eq!(o.evictions(), 1);
        assert_eq!(o.machine_failures(), 2);
        // Machine 0 down [0, 360) and machine 1 down [360, end=720): each
        // interval is 360 s × 4 GPUs.
        assert!((o.lost_gpu_seconds() - 2.0 * 360.0 * 4.0).abs() < 1e-9);
    }
}
