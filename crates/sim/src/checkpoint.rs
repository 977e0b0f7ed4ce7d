//! Preemption / checkpoint-restart overhead models (§IV-A, Table IV).
//!
//! When a round-based preemptive scheduler moves a job, the job must save a
//! model checkpoint, restart its workers on the new GPUs, and reload the
//! checkpoint before resuming. The paper's simulator charges a flat
//! 10-second delay per reallocation, justified by prototype measurements
//! (Table IV). This module ships both that flat model and the calibrated
//! cost model behind Table IV:
//!
//! * save time = `checkpoint_mib / EFFECTIVE_BANDWIDTH_MIB_S`,
//! * reallocation overhead = save + load + worker re-initialization,
//! * steady-state overhead (no move) = the periodic checkpoint save alone.

use hadar_workload::DlTask;

/// Effective checkpoint read/write bandwidth in MiB/s. The prototype's gp2
/// SSD sustains 1000 MiB/s raw, but serialization, small-file overhead, and
/// framework stalls reduce the *effective* bandwidth; 250 MiB/s reproduces
/// the Table IV percentages with the model footprints in
/// [`DlTask::checkpoint_mib`].
pub const EFFECTIVE_BANDWIDTH_MIB_S: f64 = 250.0;

/// Seconds to save (or, at the same bandwidth, load) one checkpoint of
/// `model`.
pub fn save_seconds(model: DlTask) -> f64 {
    model.checkpoint_mib() / EFFECTIVE_BANDWIDTH_MIB_S
}

/// Total stall when the job is moved to a different allocation:
/// save + load + worker re-initialization.
pub fn reallocation_seconds(model: DlTask) -> f64 {
    save_seconds(model) + save_seconds(model) + model.reinit_seconds()
}

/// Table IV entry: overhead as a percentage of a round of `round_seconds`,
/// with (`true`) or without (`false`, the periodic checkpoint save alone)
/// reallocation.
pub fn overhead_percent(model: DlTask, round_seconds: f64, realloc: bool) -> f64 {
    let stall = if realloc {
        reallocation_seconds(model)
    } else {
        save_seconds(model)
    };
    stall / round_seconds * 100.0
}

/// The penalty the simulator charges a job whose allocation changed this
/// round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreemptionPenalty {
    /// Flat delay in seconds per reallocation — the paper's simulation
    /// setting ("a 10-second delay for each job that has received a new
    /// allocation"); `Fixed(0.0)` is the idealized no-overhead ablation.
    Fixed(f64),
    /// Per-model delay from the calibrated cost model,
    /// [`reallocation_seconds`].
    Modeled,
}

impl Default for PreemptionPenalty {
    fn default() -> Self {
        PreemptionPenalty::Fixed(10.0)
    }
}

impl PreemptionPenalty {
    /// Seconds of stall charged to `model` when its allocation changes.
    pub fn seconds(&self, model: DlTask) -> f64 {
        match *self {
            PreemptionPenalty::Fixed(s) => s,
            PreemptionPenalty::Modeled => reallocation_seconds(model),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_without_reallocation() {
        // Paper Table IV, "w/o reallocation" column.
        let expect = [
            (DlTask::ResNet50, 0.33),
            (DlTask::ResNet18, 0.21),
            (DlTask::Lstm, 0.87),
            (DlTask::CycleGan, 0.13),
            (DlTask::Transformer, 0.17),
        ];
        for (task, pct) in expect {
            let got = overhead_percent(task, 360.0, false);
            assert!((got - pct).abs() < 0.03, "{task}: {got:.2}% vs {pct}%");
        }
    }

    #[test]
    fn table4_with_reallocation() {
        // Paper Table IV, "w/ reallocation" column.
        let expect = [
            (DlTask::ResNet50, 2.1),
            (DlTask::ResNet18, 1.29),
            (DlTask::Lstm, 2.01),
            (DlTask::CycleGan, 0.68),
            (DlTask::Transformer, 0.71),
        ];
        for (task, pct) in expect {
            let got = overhead_percent(task, 360.0, true);
            assert!((got - pct).abs() < 0.05, "{task}: {got:.2}% vs {pct}%");
        }
    }

    #[test]
    fn reallocation_costs_more_than_steady() {
        for t in DlTask::ALL {
            assert!(reallocation_seconds(t) > save_seconds(t));
        }
    }

    #[test]
    fn penalty_variants() {
        assert_eq!(PreemptionPenalty::default().seconds(DlTask::Lstm), 10.0);
        assert_eq!(PreemptionPenalty::Fixed(0.0).seconds(DlTask::Lstm), 0.0);
        let modeled = PreemptionPenalty::Modeled;
        assert!(modeled.seconds(DlTask::ResNet50) > 7.0);
        assert!(modeled.seconds(DlTask::ResNet50) < 9.0);
    }
}
