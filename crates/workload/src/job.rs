//! The scheduler-facing job record.

use hadar_cluster::{GpuCatalog, JobId};

use crate::categories::SizeClass;
use crate::model::DlTask;
use crate::throughput::ThroughputProfile;

/// A deep-learning training job as seen by the scheduler (§III-A / Table I):
/// arrival time `a_j`, gang size `W_j`, epochs `E_j`, iterations per epoch
/// `N_j`, and the device-throughput row `X_j^r`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Dense job id.
    pub id: JobId,
    /// The model behind this job (Table II).
    pub model: DlTask,
    /// Arrival (submission) time `a_j` in seconds.
    pub arrival: f64,
    /// Gang size `W_j`: number of workers the job must receive each round it
    /// runs (All-or-Nothing, constraint 1e).
    pub gang: u32,
    /// Total training epochs `E_j`.
    pub epochs: u64,
    /// Iterations ("data chunks") per epoch, `N_j`.
    pub iters_per_epoch: u64,
    /// Device throughput row `X_j^r` (iterations/sec per worker).
    pub profile: ThroughputProfile,
}

impl Job {
    /// Construct a job; validates that the gang size and work are non-zero.
    pub fn new(
        id: JobId,
        model: DlTask,
        arrival: f64,
        gang: u32,
        epochs: u64,
        iters_per_epoch: u64,
        profile: ThroughputProfile,
    ) -> Self {
        assert!(gang >= 1, "gang size W_j must be at least 1");
        assert!(epochs >= 1 && iters_per_epoch >= 1, "job must carry work");
        assert!(arrival >= 0.0 && arrival.is_finite());
        Self {
            id,
            model,
            // −0.0 equals +0.0 but sorts first under `total_cmp`, which the
            // engine admits by; store +0.0 so equal arrivals admit by id.
            arrival: arrival.abs(),
            gang,
            epochs,
            iters_per_epoch,
            profile,
        }
    }

    /// Construct directly from a model and a catalog, resolving throughput.
    #[allow(clippy::too_many_arguments)]
    pub fn for_model(
        id: JobId,
        model: DlTask,
        catalog: &GpuCatalog,
        arrival: f64,
        gang: u32,
        epochs: u64,
    ) -> Self {
        Self::new(
            id,
            model,
            arrival,
            gang,
            epochs,
            model.iterations_per_epoch(),
            ThroughputProfile::for_model(model, catalog),
        )
    }

    /// Total iterations to completion, `E_j · N_j` (constraint 1a's
    /// right-hand side).
    #[inline]
    pub fn total_iterations(&self) -> f64 {
        (self.epochs as f64) * (self.iters_per_epoch as f64)
    }

    /// The job's best-case aggregate rate: `W_j · max_r X_j^r`
    /// iterations/sec when all workers sit on the fastest type.
    pub fn best_rate(&self) -> f64 {
        self.gang as f64 * self.profile.max_rate()
    }

    /// The job's worst-case usable aggregate rate:
    /// `W_j · min_r X_j^r` over usable types.
    pub fn worst_rate(&self) -> f64 {
        self.gang as f64 * self.profile.min_usable_rate()
    }

    /// `t_j^min` (Eq. 8): minimum possible runtime, all workers on the
    /// fastest device type.
    pub fn min_runtime(&self) -> f64 {
        self.total_iterations() / self.best_rate()
    }

    /// Total GPU-time of the job in hours, assuming it runs on the fastest
    /// type: `W_j · t_j^min / 3600` — the quantity the paper buckets into
    /// size classes.
    pub fn gpu_hours(&self) -> f64 {
        self.gang as f64 * self.min_runtime() / 3600.0
    }

    /// The size class of this job by its GPU-hours.
    pub fn size_class(&self) -> SizeClass {
        SizeClass::of_gpu_hours(self.gpu_hours())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> GpuCatalog {
        GpuCatalog::from_names(["V100", "P100", "K80"])
    }

    #[test]
    fn derived_quantities() {
        // ResNet-18: V100 120 it/s, K80 20 it/s, N = 390.
        let j = Job::for_model(JobId(0), DlTask::ResNet18, &catalog(), 0.0, 2, 100);
        assert_eq!(j.total_iterations(), 39_000.0);
        assert_eq!(j.best_rate(), 240.0);
        assert_eq!(j.worst_rate(), 40.0);
        assert!((j.min_runtime() - 39_000.0 / 240.0).abs() < 1e-9);
        // 2 GPUs * 162.5 s = 0.09 GPU-hours => Small.
        assert_eq!(j.size_class(), SizeClass::Small);
    }

    #[test]
    fn negative_zero_arrival_is_stored_as_zero() {
        let j = Job::for_model(JobId(0), DlTask::ResNet18, &catalog(), -0.0, 1, 1);
        assert!(j.arrival.is_sign_positive());
    }

    #[test]
    fn unrunnable_job_has_zero_worst_rate() {
        let p = ThroughputProfile::from_rates(vec![0.0]);
        let j = Job::new(JobId(1), DlTask::Lstm, 0.0, 1, 1, 10, p);
        assert_eq!(j.worst_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "gang size")]
    fn zero_gang_rejected() {
        let p = ThroughputProfile::from_rates(vec![1.0]);
        Job::new(JobId(0), DlTask::Lstm, 0.0, 0, 1, 1, p);
    }

    #[test]
    #[should_panic(expected = "carry work")]
    fn zero_work_rejected() {
        let p = ThroughputProfile::from_rates(vec![1.0]);
        Job::new(JobId(0), DlTask::Lstm, 0.0, 1, 0, 5, p);
    }

    #[test]
    fn gpu_hours_scales_with_epochs() {
        let a = Job::for_model(JobId(0), DlTask::ResNet50, &catalog(), 0.0, 4, 10);
        let b = Job::for_model(JobId(1), DlTask::ResNet50, &catalog(), 0.0, 4, 20);
        assert!((b.gpu_hours() / a.gpu_hours() - 2.0).abs() < 1e-9);
    }
}
