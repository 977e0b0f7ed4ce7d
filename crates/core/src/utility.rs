//! Job utility functions `U_j(·)` (§III-A).
//!
//! The utility of a job is "a general non-negative function that
//! characterizes the value of a job's execution" — the knob through which
//! the optimization framework expresses different scheduling objectives.
//! All shipped utilities are non-negative and non-increasing in completion
//! time, as the primal–dual analysis requires.

use hadar_cluster::Cluster;
use hadar_metrics::isolated_finish_time;
use hadar_workload::Job;

/// A job-utility function.
///
/// `value` receives the job, its (estimated) completion duration
/// `jct = f_j − a_j`, and the absolute finish time `f_j`, and returns a
/// non-negative score.
pub trait Utility: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// `U_j(f_j − a_j)`.
    fn value(&self, job: &Job, jct: f64, finish: f64) -> f64;
}

/// The paper's default special case: *effective throughput* — the average
/// number of iterations completed per second over the job's lifetime,
/// `E_j·N_j / (f_j − a_j)` — **normalized** by the job's best per-worker
/// device rate `max_r X_j^r`.
///
/// Raw iterations/second are not comparable across models (a ResNet-18
/// iteration is ~40× cheaper than a ResNet-50 one), so summing raw rates
/// would systematically hand fast GPUs to small-iteration models. Dividing
/// by `max_r X_j^r` expresses each job's progress in units of "best-device
/// worker equivalents" (exactly how Gavel normalizes throughputs), making
/// utilities commensurable: a job scores its gang size when running fully
/// on its fastest type.
#[derive(Debug, Clone, Copy, Default)]
pub struct EffectiveThroughput;

impl Utility for EffectiveThroughput {
    fn name(&self) -> &str {
        "effective-throughput"
    }
    fn value(&self, job: &Job, jct: f64, _finish: f64) -> f64 {
        let best = job.profile.max_rate();
        if jct <= 0.0 || best <= 0.0 {
            return 0.0;
        }
        job.total_iterations() / (jct * best)
    }
}

/// Makespan objective (§III-A: `min max_j f_j`): utility decays with the
/// *absolute* finish time, so the scheduler prefers schedules that pull the
/// latest finishers earlier regardless of arrival times.
///
/// [`MinMakespan::SCALE`] sets the utility magnitude
/// (`U = SCALE · W_j / f_j`); it cancels in all intra-round comparisons but
/// keeps prices well-conditioned.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMakespan;

impl MinMakespan {
    /// Numerator scale.
    pub const SCALE: f64 = 1e6;
}

impl Utility for MinMakespan {
    fn name(&self) -> &str {
        "min-makespan"
    }
    fn value(&self, job: &Job, _jct: f64, finish: f64) -> f64 {
        if finish <= 0.0 {
            return 0.0;
        }
        Self::SCALE * job.gang as f64 / finish
    }
}

/// Finish-time-fairness objective (§III-A:
/// `min max_j (f_j − a_j)/(f_j^isolated − a_j)`): inverse predicted slowdown
/// `1/ρ` weighted by the job's *tail-risk rate* `1/iso`,
/// `U = SCALE / (jct · iso)`.
///
/// The naive choice `U = 1/ρ = iso/jct` inverts the objective's priorities:
/// a job already behind its fair share has a large accrued `jct`, hence a
/// *low* utility, and keeps losing the allocation auction — the longer it
/// waits the lower it bids, a starvation spiral that empirically *worsens*
/// max-ρ versus the throughput objective on every trace seed. The missing
/// ingredient is that ρ grows at rate `1/iso` per second of further delay:
/// short-fair-share jobs are the ones whose slowdown explodes while they
/// queue. Dividing the inverse slowdown by `iso` makes each job's bid
/// proportional to exactly that risk rate, which restores the min-max-ρ
/// incentive while keeping the utility non-increasing in completion time as
/// the primal–dual analysis requires.
#[derive(Debug, Clone)]
pub struct FtfUtility {
    cluster: Cluster,
    n_jobs: usize,
}

impl FtfUtility {
    /// Numeric conditioning constant: a pure multiplier on every job's
    /// utility cancels out of all payoff/price comparisons (prices and the
    /// communication surcharge are both derived from the same utilities) but
    /// keeps typical values near `O(1)` instead of `O(1e-10)`.
    pub const SCALE: f64 = 1e9;

    /// Build for a cluster shared by `n_jobs` jobs (the Themis `1/n`
    /// reference share).
    pub fn new(cluster: Cluster, n_jobs: usize) -> Self {
        Self {
            cluster,
            n_jobs: n_jobs.max(1),
        }
    }
}

impl Utility for FtfUtility {
    fn name(&self) -> &str {
        "finish-time-fairness"
    }
    fn value(&self, job: &Job, jct: f64, _finish: f64) -> f64 {
        if jct <= 0.0 {
            return 0.0;
        }
        let iso = isolated_finish_time(job, &self.cluster, self.n_jobs);
        if !iso.is_finite() || iso <= 0.0 {
            return 0.0;
        }
        // (1/ρ) · (1/iso) = iso/(jct·iso²): inverse slowdown, weighted by
        // how fast ρ degrades per second this job is kept waiting.
        Self::SCALE / (jct * iso)
    }
}

/// The objective a [`crate::HadarConfig`] owns: one of the shipped
/// utilities, named without a box, or any user-supplied one via
/// [`UtilityKind::Custom`]. The scheduler reads it through `&dyn Utility`
/// ([`crate::find_alloc::AllocEnv::utility`]); its `Debug` prints the
/// objective's name.
#[derive(Default)]
pub enum UtilityKind {
    /// [`EffectiveThroughput`].
    #[default]
    EffectiveThroughput,
    /// [`MinMakespan`].
    MinMakespan,
    /// [`FtfUtility`].
    Ftf(FtfUtility),
    /// Any user-supplied utility.
    Custom(Box<dyn Utility>),
}

impl std::fmt::Debug for UtilityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Utility for UtilityKind {
    fn name(&self) -> &str {
        match self {
            UtilityKind::EffectiveThroughput => EffectiveThroughput.name(),
            UtilityKind::MinMakespan => MinMakespan.name(),
            UtilityKind::Ftf(u) => u.name(),
            UtilityKind::Custom(u) => u.name(),
        }
    }
    fn value(&self, job: &Job, jct: f64, finish: f64) -> f64 {
        match self {
            UtilityKind::EffectiveThroughput => EffectiveThroughput.value(job, jct, finish),
            UtilityKind::MinMakespan => MinMakespan.value(job, jct, finish),
            UtilityKind::Ftf(u) => u.value(job, jct, finish),
            UtilityKind::Custom(u) => u.value(job, jct, finish),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar_cluster::JobId;
    use hadar_workload::DlTask;

    fn job() -> Job {
        let c = Cluster::paper_simulation();
        Job::for_model(JobId(0), DlTask::ResNet18, c.catalog(), 0.0, 2, 100)
    }

    #[test]
    fn effective_throughput_is_normalized_work_over_time() {
        let j = job();
        let u = EffectiveThroughput.value(&j, 100.0, 100.0);
        let best = j.profile.max_rate();
        assert!((u - j.total_iterations() / (100.0 * best)).abs() < 1e-9);
        // Faster completion → higher utility.
        assert!(EffectiveThroughput.value(&j, 50.0, 50.0) > u);
        assert_eq!(EffectiveThroughput.value(&j, 0.0, 0.0), 0.0);
        // Running the whole life at the best rate scores the gang size.
        let t_best = j.min_runtime();
        assert!((EffectiveThroughput.value(&j, t_best, t_best) - j.gang as f64).abs() < 1e-9);
    }

    #[test]
    fn makespan_utility_decays_with_finish_time() {
        let j = job();
        let u = MinMakespan;
        assert!(u.value(&j, 10.0, 100.0) > u.value(&j, 10.0, 200.0));
        assert_eq!(u.value(&j, 10.0, 0.0), 0.0);
    }

    #[test]
    fn ftf_utility_is_risk_weighted_inverse_slowdown() {
        let j = job();
        let c = Cluster::paper_simulation();
        let iso = isolated_finish_time(&j, &c, 4);
        let u = FtfUtility::new(c, 4);
        // U = SCALE/(jct·iso): at fair share (ρ = 1) the bid is SCALE/iso².
        let at_fair = u.value(&j, iso, iso);
        assert!((at_fair - FtfUtility::SCALE / (iso * iso)).abs() < 1e-9 * at_fair);
        // Finishing in half the fair time doubles the bid...
        assert!((u.value(&j, iso / 2.0, iso / 2.0) - 2.0 * at_fair).abs() < 1e-9 * at_fair);
        // ...and it is strictly decreasing in jct (primal–dual requirement).
        assert!(u.value(&j, iso * 2.0, iso * 2.0) < at_fair);
    }

    #[test]
    fn ftf_utility_prioritizes_high_risk_jobs() {
        // Two jobs at the *same* predicted slowdown ρ: the one with the
        // shorter fair-share time (whose ρ inflates fastest per second of
        // queueing) must bid strictly higher.
        let c = Cluster::paper_simulation();
        let small = Job::for_model(JobId(1), DlTask::ResNet18, c.catalog(), 0.0, 1, 10);
        let big = Job::for_model(JobId(2), DlTask::ResNet18, c.catalog(), 0.0, 1, 1000);
        let iso_small = isolated_finish_time(&small, &c, 4);
        let iso_big = isolated_finish_time(&big, &c, 4);
        assert!(iso_small < iso_big);
        let u = FtfUtility::new(c, 4);
        let rho = 1.5;
        assert!(
            u.value(&small, rho * iso_small, rho * iso_small)
                > u.value(&big, rho * iso_big, rho * iso_big)
        );
    }

    #[test]
    fn all_utilities_non_negative() {
        let j = job();
        let c = Cluster::paper_simulation();
        let kinds: Vec<UtilityKind> = vec![
            UtilityKind::EffectiveThroughput,
            UtilityKind::MinMakespan,
            UtilityKind::Ftf(FtfUtility::new(c, 8)),
        ];
        for k in &kinds {
            for jct in [0.0, 1.0, 1e3, 1e9] {
                assert!(k.value(&j, jct, jct + 5.0) >= 0.0, "{}", k.name());
            }
        }
    }

    #[test]
    fn custom_utility_dispatch() {
        struct Constant;
        impl Utility for Constant {
            fn name(&self) -> &str {
                "constant"
            }
            fn value(&self, _: &Job, _: f64, _: f64) -> f64 {
                7.0
            }
        }
        let k = UtilityKind::Custom(Box::new(Constant));
        assert_eq!(k.name(), "constant");
        assert_eq!(k.value(&job(), 1.0, 1.0), 7.0);
    }
}
