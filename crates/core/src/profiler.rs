//! Throughput estimation (the "throughput estimator" of Fig. 2).
//!
//! Hadar "obtains performance measurements for each runnable job on each
//! available accelerator type either from user input or by profiling during
//! the first few rounds of execution". In the simulator the oracle profile
//! is known, so the estimator models the profiling phase: during a job's
//! first [`PROFILING_ROUNDS`] scheduling rounds, decisions see the true
//! rates perturbed by deterministic multiplicative noise of up to
//! [`PROFILING_NOISE`]; afterwards the measured (exact) profile is used.
//! This lets ablations quantify how sensitive Hadar is to estimation error.

use std::collections::HashMap;

use hadar_cluster::JobId;
use hadar_workload::{Job, ThroughputProfile};

/// Rounds a job is observed before its profile is considered measured.
pub const PROFILING_ROUNDS: u32 = 3;

/// Maximum relative error during the profiling phase (±20 %).
pub const PROFILING_NOISE: f64 = 0.2;

/// Tracks per-job observation counts and serves (possibly noisy) profiles.
#[derive(Debug, Clone, Default)]
pub struct ThroughputEstimator {
    /// Seed decorrelating noise across experiments.
    seed: u64,
    seen: HashMap<JobId, u32>,
}

impl ThroughputEstimator {
    /// Build with the noise `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            seen: HashMap::new(),
        }
    }

    /// Record that `job` was visible in a scheduling round (call once per
    /// round per queued job).
    pub fn observe(&mut self, job: JobId) {
        *self.seen.entry(job).or_insert(0) += 1;
    }

    /// Forget a finished job.
    pub fn forget(&mut self, job: JobId) {
        self.seen.remove(&job);
    }

    /// How many rounds `job` has been observed.
    pub fn observations(&self, job: JobId) -> u32 {
        self.seen.get(&job).copied().unwrap_or(0)
    }

    /// The profile the scheduler should use for `job` right now: noisy while
    /// under-observed, exact once profiled.
    pub fn profile_for(&self, job: &Job) -> ThroughputProfile {
        if self.observations(job.id) >= PROFILING_ROUNDS {
            return job.profile.clone();
        }
        let rates: Vec<f64> = job
            .profile
            .raw()
            .iter()
            .enumerate()
            .map(|(r, &x)| {
                if x <= 0.0 {
                    return x;
                }
                let u = hash01(self.seed, job.id.0 as u64, r as u64);
                // Multiplicative error in [1−noise, 1+noise].
                x * (1.0 + PROFILING_NOISE * (2.0 * u - 1.0))
            })
            .collect();
        ThroughputProfile::from_rates(rates)
    }
}

/// SplitMix64-style deterministic hash to `[0, 1)`.
fn hash01(seed: u64, a: u64, b: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(a.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(b.wrapping_mul(0x94D049BB133111EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadar_cluster::Cluster;
    use hadar_workload::DlTask;

    fn job() -> Job {
        let c = Cluster::paper_simulation();
        Job::for_model(JobId(3), DlTask::Lstm, c.catalog(), 0.0, 2, 10)
    }

    #[test]
    fn noisy_until_profiled() {
        let j = job();
        let mut est = ThroughputEstimator::new(7);
        let noisy = est.profile_for(&j);
        assert_ne!(noisy, j.profile, "noise must perturb the profile");
        // Error bounded by ±20 %.
        for (a, b) in noisy.raw().iter().zip(j.profile.raw()) {
            assert!((a / b - 1.0).abs() <= PROFILING_NOISE + 1e-12);
        }
        for _ in 1..PROFILING_ROUNDS {
            est.observe(j.id);
            assert_ne!(est.profile_for(&j), j.profile);
        }
        est.observe(j.id);
        assert_eq!(est.profile_for(&j), j.profile, "profiled after 3 rounds");
    }

    #[test]
    fn noise_is_deterministic() {
        let j = job();
        let est1 = ThroughputEstimator::new(0);
        let est2 = ThroughputEstimator::new(0);
        assert_eq!(est1.profile_for(&j), est2.profile_for(&j));
        let est3 = ThroughputEstimator::new(99);
        assert_ne!(est1.profile_for(&j), est3.profile_for(&j));
    }

    #[test]
    fn forget_resets_observations() {
        let j = job();
        let mut est = ThroughputEstimator::new(0);
        est.observe(j.id);
        est.observe(j.id);
        assert_eq!(est.observations(j.id), 2);
        est.forget(j.id);
        assert_eq!(est.observations(j.id), 0);
    }

    #[test]
    fn hash01_in_unit_interval() {
        for a in 0..50 {
            let v = hash01(1, a, a * 3);
            assert!((0.0..1.0).contains(&v));
        }
    }
}
