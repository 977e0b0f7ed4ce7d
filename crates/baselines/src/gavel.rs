//! Gavel (Narayanan et al., OSDI '20), the job-level heterogeneity-aware
//! baseline.
//!
//! Gavel separates *policy* from *mechanism*:
//!
//! * The policy solves an optimization problem for the allocation matrix
//!   `Y[j][r]` — the fraction of time job `j` should spend on GPU type `r`.
//!   The paper configures Gavel "keeping the objective of its optimization
//!   problem similar to ours", i.e. maximize total effective throughput.
//! * The mechanism serves `Y` in rounds: each round, `(job, type)` pairs are
//!   ranked by `priority[j][r] = Y[j][r] / received_fraction[j][r]` (types a
//!   job is behind on rank higher) and admitted greedily while `W_j` GPUs of
//!   type `r` remain — **all tasks on one type**, gang or nothing.
//!
//! The LP is re-solved only when the active job set changes (arrival or
//! completion) or the availability mask does, matching Gavel's own
//! implementation. Every solve is exact and cold:
//! [`hadar_solver::max_total_throughput_allocation`] solves the LP as a
//! transportation problem, well under a millisecond at Fig. 7's largest
//! scale. A malformed LP input surfaces as
//! [`GavelScheduler::last_lp_error`] and skips one scheduling decision
//! instead of aborting the sweep.

use std::collections::HashMap;

use hadar_cluster::{Allocation, Availability, GpuTypeId, JobId, Placer, Usage};
use hadar_sim::{Scheduler, SchedulerContext};
use hadar_solver::{max_total_throughput_allocation, GavelLpError, GavelLpInput};
use hadar_workload::Job;

/// The Gavel baseline scheduler.
pub struct GavelScheduler {
    /// Cached allocation matrix rows per job.
    y: HashMap<JobId, Vec<f64>>,
    /// Rounds in which job `j` ran on type `r`.
    rounds_received: HashMap<JobId, Vec<f64>>,
    /// Set on every arrival and completion, cleared by a re-solve: while
    /// clear, the queue is the one the cached `y` was solved for.
    dirty: bool,
    /// The availability mask the cached `y` was solved against.
    solved_for: Option<Availability>,
    /// Most recent LP failure, if any (the round it occurred in scheduled
    /// nothing; the sweep continues).
    last_lp_error: Option<GavelLpError>,
}

impl GavelScheduler {
    /// Gavel with the max-total-throughput objective, the paper's
    /// comparison configuration.
    pub fn paper_default() -> Self {
        Self {
            y: HashMap::new(),
            rounds_received: HashMap::new(),
            dirty: true,
            solved_for: None,
            last_lp_error: None,
        }
    }

    /// The most recent LP error, if the last re-solve failed (malformed
    /// input; never happens for simulator-constructed problems).
    pub fn last_lp_error(&self) -> Option<&GavelLpError> {
        self.last_lp_error.as_ref()
    }

    fn solve(&mut self, ctx: &SchedulerContext<'_>) {
        let num_types = ctx.cluster.num_types();
        let input = GavelLpInput {
            throughput: ctx
                .jobs
                .iter()
                .map(|s| {
                    (0..num_types)
                        .map(|r| s.job.profile.rate(GpuTypeId(r as u16)))
                        .collect()
                })
                .collect(),
            gang: ctx.jobs.iter().map(|s| s.job.gang).collect(),
            capacity: (0..num_types)
                .map(|r| {
                    ctx.availability
                        .available_of_type(ctx.cluster, GpuTypeId(r as u16))
                })
                .collect(),
        };
        ctx.telemetry.incr("gavel.lp_solves", 1.0);
        self.y.clear();
        match max_total_throughput_allocation(&input) {
            Ok(y) => {
                self.last_lp_error = None;
                for (s, row) in ctx.jobs.iter().zip(y) {
                    self.y.insert(s.job.id, row);
                }
            }
            Err(e) => {
                // Propagate instead of aborting: this round schedules
                // nothing, the next job-set change retries.
                self.last_lp_error = Some(e);
                ctx.telemetry.incr("gavel.lp_errors", 1.0);
            }
        }
    }
}

impl Scheduler for GavelScheduler {
    fn name(&self) -> &str {
        "Gavel"
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        if ctx.jobs.is_empty() {
            return Allocation::empty();
        }
        ctx.telemetry
            .gauge("gavel.active_jobs", ctx.jobs.len() as f64);
        // A machine failure or recovery re-solves against the shrunken (or
        // restored) capacity; an empty `y` retries a failed solve.
        if self.dirty || self.solved_for.as_ref() != Some(ctx.availability) || self.y.is_empty() {
            self.solve(ctx);
            self.dirty = false;
            self.solved_for = Some(ctx.availability.clone());
        }

        let num_types = ctx.cluster.num_types();
        // Rank (job, type) pairs by Y / rounds-received (higher = more
        // behind target share).
        let mut ranked: Vec<(f64, usize, usize)> = Vec::new();
        for (idx, s) in ctx.jobs.iter().enumerate() {
            let Some(row) = self.y.get(&s.job.id) else {
                continue;
            };
            let recv = self
                .rounds_received
                .entry(s.job.id)
                .or_insert_with(|| vec![0.0; num_types]);
            for (r, &share) in row.iter().enumerate() {
                if share > 1e-9 {
                    let priority = share / (recv[r] + 1.0);
                    ranked.push((priority, idx, r));
                }
            }
        }
        ranked.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("finite priorities")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });

        let mut placer = Placer::new(ctx.cluster, Usage::empty(ctx.cluster), |h| ctx.is_up(h));
        let mut alloc = Allocation::empty();
        let mut placed: Vec<bool> = vec![false; ctx.jobs.len()];
        for (_, idx, r) in ranked {
            if placed[idx] {
                continue;
            }
            let s = &ctx.jobs[idx];
            let r = GpuTypeId(r as u16);
            // Job-level granularity: the whole gang on this single type.
            if let Some(p) = placer.single_type(r, s.job.gang) {
                placer.add(&p);
                alloc.set(s.job.id, p);
                placed[idx] = true;
                if let Some(recv) = self.rounds_received.get_mut(&s.job.id) {
                    recv[r.index()] += 1.0;
                }
            }
        }
        alloc
    }

    fn on_arrival(&mut self, _job: &Job) {
        self.dirty = true;
    }

    fn on_completion(&mut self, job: JobId) {
        self.dirty = true;
        self.y.remove(&job);
        self.rounds_received.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar_cluster::Cluster;
    use hadar_sim::{SimConfig, Simulation};
    use hadar_workload::{generate_trace, ArrivalPattern, Job, TraceConfig};

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
            .run(GavelScheduler::paper_default())
            .unwrap();
        assert_eq!(out.completed_jobs(), 12);
        assert!(!out.timed_out);
    }

    #[test]
    fn single_type_per_job_per_round() {
        // Gavel's defining limitation: a job's placement never mixes types.
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 10,
                seed: 2,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        struct Probe {
            inner: GavelScheduler,
            violations: usize,
        }
        impl Scheduler for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
                let a = self.inner.schedule(ctx);
                for (_, p) in a.iter() {
                    if p.slices().iter().any(|s| s.gpu != p.slices()[0].gpu) {
                        self.violations += 1;
                    }
                }
                a
            }
            fn on_arrival(&mut self, job: &Job) {
                self.inner.on_arrival(job);
            }
            fn on_completion(&mut self, job: JobId) {
                self.inner.on_completion(job);
            }
        }
        let mut probe = Probe {
            inner: GavelScheduler::paper_default(),
            violations: 0,
        };
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(&mut probe)
            .unwrap();
        assert_eq!(out.completed_jobs(), 10);
        assert_eq!(probe.violations, 0, "Gavel must never mix GPU types");
    }

    #[test]
    fn continuous_trace_completes_without_lp_errors() {
        // Every arrival and completion re-solves the LP from scratch.
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 10,
                seed: 4,
                pattern: ArrivalPattern::paper_continuous(),
            },
            cluster.catalog(),
        );
        let mut sched = GavelScheduler::paper_default();
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(&mut sched)
            .unwrap();
        assert_eq!(out.completed_jobs(), 10);
        assert!(sched.last_lp_error().is_none());
    }

    #[test]
    fn completes_with_machine_failures() {
        // Failures shrink the LP capacity and the placement pool; jobs on a
        // dying machine are evicted and must still finish eventually.
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 8,
                seed: 6,
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
            .run(GavelScheduler::paper_default())
            .unwrap();
        assert_eq!(out.completed_jobs(), n);
        hadar_sim::check_lifecycle(out.events(), n).unwrap();
    }

    #[test]
    fn deterministic() {
        let cluster = Cluster::paper_simulation();
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 9,
                seed: 5,
                pattern: ArrivalPattern::paper_continuous(),
            },
            cluster.catalog(),
        );
        let run = || {
            Simulation::new(cluster.clone(), jobs.clone(), SimConfig::default())
                .run(GavelScheduler::paper_default())
                .unwrap()
        };
        assert_eq!(run().jcts(), run().jcts());
    }
}
