//! A wrapper around the `hadar_sim::Scheduler` trait. With tracing off it
//! only takes each decision's CPU time; with tracing on it also records spans around
//! every call and replays the round's inputs through public layer functions
//! (allocation validation, Hadar's prices, a cold Gavel LP solve).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use hadar_cluster::{Allocation, GpuTypeId, JobId};
use hadar_core::{PriceState, UtilityKind};
use hadar_sim::{DecisionPhases, Scheduler, SchedulerContext};
use hadar_solver::gavel::feasibility_violation;
use hadar_solver::{max_total_throughput_allocation, GavelLpInput};
use hadar_workload::Job;

use crate::cpu::process_cpu_s;
use crate::trace::{SpanId, Tracer};
use crate::workload::Policy;

/// Replay a cold LP solve on every `LP_REPLAY_STRIDE`-th LP round (the first
/// included). A cold solve at 2048 jobs costs about as much as a whole
/// Hadar round, so replaying every one would dominate the traced run.
pub const LP_REPLAY_STRIDE: u64 = 4;

/// Largest `feasibility_violation` a replayed LP solution may show.
pub const LP_FEASIBILITY_TOL: f64 = 1e-6;

/// What the wrapper measured over one simulation.
#[derive(Debug, Clone, Default)]
pub struct ProbeData {
    /// Process CPU seconds of every `schedule` call, in round order.
    pub decisions: Vec<f64>,
    /// When each `schedule` call started, in process CPU seconds since the
    /// wrapper was built (just before the simulation).
    pub starts: Vec<f64>,
    /// Summed [`DecisionPhases`] of every call that reported them.
    pub price_phase_s: f64,
    /// See [`DecisionPhases::candidates_seconds`].
    pub candidates_s: f64,
    /// See [`DecisionPhases::select_seconds`].
    pub select_s: f64,
    /// Calls whose DP hit its node budget.
    pub dp_budget_rounds: u64,
    /// Calls that reused the previous decision.
    pub reused_rounds: u64,
    /// Rounds whose job set or availability changed since the previous
    /// non-empty round (Gavel re-solves its LP on exactly these).
    pub lp_rounds: u64,
    /// Host milliseconds of each replayed cold LP solve.
    pub cold_solve_ms: Vec<f64>,
    /// Largest feasibility violation over the replayed LP solutions.
    pub max_violation: f64,
    /// Replays that failed: an LP error or an allocation that does not
    /// validate.
    pub replay_errors: u64,
}

/// The scheduler wrapper.
pub struct Probe<'t> {
    inner: Box<dyn Scheduler + Send>,
    policy: Policy,
    tracer: &'t Tracer,
    sim: u32,
    /// The span of the simulation this scheduler runs in.
    pub parent: Option<SpanId>,
    origin: Instant,
    origin_cpu: f64,
    lp_key: Option<u64>,
    data: ProbeData,
}

impl<'t> Probe<'t> {
    /// Wrap `inner`, the scheduler of simulation `sim`.
    pub fn new(
        inner: Box<dyn Scheduler + Send>,
        policy: Policy,
        tracer: &'t Tracer,
        sim: u32,
    ) -> Self {
        Self {
            inner,
            policy,
            tracer,
            sim,
            parent: None,
            origin: Instant::now(),
            origin_cpu: process_cpu_s(),
            lp_key: None,
            data: ProbeData::default(),
        }
    }

    /// Host seconds since the wrapper was built.
    pub fn elapsed(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since the wrapper was built.
    pub fn cpu_elapsed(&self) -> f64 {
        process_cpu_s() - self.origin_cpu
    }

    /// What was measured.
    pub fn into_data(self) -> ProbeData {
        self.data
    }

    fn span<R>(&self, name: &'static str, policy: Option<Policy>, f: impl FnOnce() -> R) -> R {
        self.tracer
            .span(name, policy, self.parent, self.sim, |_| f())
    }

    fn replay(
        &mut self,
        ctx: &SchedulerContext<'_>,
        alloc: &Allocation,
        phases: Option<DecisionPhases>,
    ) {
        let valid = self.span("cluster.validate", None, || {
            let gang: HashMap<JobId, u32> =
                ctx.jobs.iter().map(|s| (s.job.id, s.job.gang)).collect();
            alloc.validate(ctx.cluster, |id| gang.get(&id).copied().unwrap_or(0))
        });
        if valid.is_err() {
            self.data.replay_errors += 1;
        }
        match self.policy {
            Policy::Hadar if !phases.is_some_and(|p| p.reused) => {
                self.span("hadar.price", None, || {
                    black_box(PriceState::compute(
                        ctx.jobs,
                        ctx.cluster,
                        &UtilityKind::default(),
                        ctx.time,
                    ))
                });
            }
            Policy::Gavel if !ctx.jobs.is_empty() => {
                let key = lp_key(ctx);
                if self.lp_key != Some(key) {
                    self.lp_key = Some(key);
                    self.data.lp_rounds += 1;
                    if (self.data.lp_rounds - 1).is_multiple_of(LP_REPLAY_STRIDE) {
                        self.replay_lp(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn replay_lp(&mut self, ctx: &SchedulerContext<'_>) {
        let (ms, outcome) = self.span("solver.cold_solve", None, || {
            let input = lp_input(ctx);
            let t0 = Instant::now();
            let y = max_total_throughput_allocation(&input);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, y.map(|y| feasibility_violation(&input, &y)))
        });
        self.data.cold_solve_ms.push(ms);
        match outcome {
            Ok(v) => self.data.max_violation = self.data.max_violation.max(v),
            Err(_) => self.data.replay_errors += 1,
        }
    }
}

/// Gavel's LP input for the round, built the way Gavel builds it.
fn lp_input(ctx: &SchedulerContext<'_>) -> GavelLpInput {
    let num_types = ctx.cluster.num_types();
    GavelLpInput {
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
    }
}

/// Fingerprint of the round's job set and machine availability.
fn lp_key(ctx: &SchedulerContext<'_>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in ctx.jobs {
        h ^= u64::from(s.job.id.0) + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ ctx.availability.fingerprint()
}

impl Scheduler for Probe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
        let c0 = process_cpu_s();
        self.data.starts.push(c0 - self.origin_cpu);
        if !self.tracer.enabled() {
            let alloc = self.inner.schedule(ctx);
            self.data.decisions.push(process_cpu_s() - c0);
            return alloc;
        }
        let inner = &mut self.inner;
        let (alloc, secs) =
            self.tracer
                .span("schedule", Some(self.policy), self.parent, self.sim, |_| {
                    let c0 = process_cpu_s();
                    let alloc = inner.schedule(ctx);
                    (alloc, process_cpu_s() - c0)
                });
        self.data.decisions.push(secs);
        let phases = self.inner.last_decision_phases();
        if let Some(p) = phases {
            self.data.price_phase_s += p.price_seconds;
            self.data.candidates_s += p.candidates_seconds;
            self.data.select_s += p.select_seconds;
            self.data.dp_budget_rounds += u64::from(p.dp_budget_hit);
            self.data.reused_rounds += u64::from(p.reused);
        }
        self.replay(ctx, &alloc, phases);
        alloc
    }

    fn on_arrival(&mut self, job: &Job) {
        let inner = &mut self.inner;
        self.tracer
            .span("notify", Some(self.policy), self.parent, self.sim, |_| {
                inner.on_arrival(job)
            });
    }

    fn on_completion(&mut self, job: JobId) {
        let inner = &mut self.inner;
        self.tracer
            .span("notify", Some(self.policy), self.parent, self.sim, |_| {
                inner.on_completion(job)
            });
    }

    fn last_decision_phases(&self) -> Option<DecisionPhases> {
        self.inner.last_decision_phases()
    }
}
