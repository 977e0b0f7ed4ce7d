//! Hadar scheduler configuration.

use crate::find_alloc::Features;
use crate::utility::UtilityKind;

/// How the dual subroutine selects the job subset each round (Algorithm 2
/// ships both "a greedy algorithm and a dynamic programming approach").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocMode {
    /// Always use the single-pass greedy in utility-density order
    /// (`O(|Q| · H · R)` per round).
    Greedy,
    /// Dynamic program when at most [`DP_MAX_QUEUE`] jobs are queued,
    /// greedy beyond — the default.
    #[default]
    Auto,
}

/// Largest queue [`AllocMode::Auto`] applies the dynamic program to.
pub const DP_MAX_QUEUE: usize = 9;

/// Configuration of [`crate::HadarScheduler`].
#[derive(Debug)]
pub struct HadarConfig {
    /// The scheduling objective (default: effective throughput, the paper's
    /// special case that minimizes size-weighted average JCT).
    pub utility: UtilityKind,
    /// Dual-subroutine mode.
    pub alloc_mode: AllocMode,
    /// Optional throughput-profiling stage (Fig. 2's estimator): when set,
    /// scheduling decisions in a job's first rounds use noisy throughput
    /// estimates, drawn with this seed, instead of oracle values (see
    /// [`crate::ThroughputEstimator`]).
    pub profiling_seed: Option<u64>,
    /// Ablation switches for candidate generation (mixed-type placements,
    /// sticky placements). All on by default.
    pub features: Features,
    /// The §IV-A-5 allocation-update policy: when the active job set has
    /// not changed since the last full optimization and every job is
    /// running, renew the current placements instead of re-optimizing
    /// (default on — matches the paper's "only 30% of scheduling rounds
    /// require a change in allocation" observation).
    pub incremental: bool,
}

impl Default for HadarConfig {
    fn default() -> Self {
        Self {
            utility: UtilityKind::default(),
            alloc_mode: AllocMode::default(),
            profiling_seed: None,
            features: Features::default(),
            incremental: true,
        }
    }
}

impl HadarConfig {
    /// Default configuration but with the given utility.
    pub fn with_utility(utility: UtilityKind) -> Self {
        Self {
            utility,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::Utility;

    #[test]
    fn defaults_match_paper_settings() {
        let c = HadarConfig::default();
        assert_eq!(c.alloc_mode, AllocMode::Auto);
        assert!(c.profiling_seed.is_none());
        assert_eq!(c.utility.name(), "effective-throughput");
        assert!(c.incremental);
    }

    #[test]
    fn with_utility_overrides_objective() {
        let c = HadarConfig::with_utility(UtilityKind::MinMakespan);
        assert_eq!(c.utility.name(), "min-makespan");
        assert!(c.incremental);
    }
}
