//! Cross-server communication cost model.
//!
//! Algorithm 2's `FIND_ALLOC` compares *consolidated* placements (all tasks
//! of a job packed into the minimum number of servers) against
//! *non-consolidated* ones; for the latter it adds a communication cost
//! (lines 26–27) reflecting the gradient-synchronization traffic that must
//! cross the network between servers every iteration.
//!
//! We model two effects, both configurable:
//!
//! 1. a **throughput degradation**: each extra server spanned slows the
//!    synchronization barrier, multiplying the job's bottleneck rate by
//!    `(1 − penalty)^(machines − 1)`, and
//! 2. an **additive price surcharge** used directly in the cost comparison,
//!    proportional to the number of extra servers and to the mean GPU price
//!    of the placement (so it is expressed in the same units as the dual
//!    prices `k_h^r`).

use crate::allocation::JobPlacement;

/// Parameters of the communication cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommCostModel {
    /// Fractional throughput loss per extra server spanned (0.0–1.0).
    /// Default 0.08: spanning a second server costs 8 % of throughput,
    /// consistent with parameter-server synchronization over 10 GbE for the
    /// mid-size models of Table II.
    pub throughput_penalty_per_hop: f64,
    /// Additive cost per extra server, as a multiple of the placement's mean
    /// per-GPU price. Default 0.5.
    pub price_surcharge_per_hop: f64,
}

impl Default for CommCostModel {
    fn default() -> Self {
        Self {
            throughput_penalty_per_hop: 0.08,
            price_surcharge_per_hop: 0.5,
        }
    }
}

impl CommCostModel {
    /// A model with no communication penalty (ideal network).
    pub fn free() -> Self {
        Self {
            throughput_penalty_per_hop: 0.0,
            price_surcharge_per_hop: 0.0,
        }
    }

    /// Multiplicative factor applied to a job's bottleneck throughput for a
    /// placement spanning `machines` servers. 1.0 for consolidated.
    pub fn throughput_factor(&self, machines: usize) -> f64 {
        debug_assert!((0.0..=1.0).contains(&self.throughput_penalty_per_hop));
        let hops = machines.saturating_sub(1) as i32;
        (1.0 - self.throughput_penalty_per_hop).powi(hops)
    }

    /// Throughput factor for a concrete placement.
    pub fn placement_factor(&self, p: &JobPlacement) -> f64 {
        self.throughput_factor(p.num_machines())
    }

    /// Additive communication cost (in price units) for a placement whose
    /// GPU-price sum is `price_sum` over `workers` workers and which spans
    /// `machines` servers. Zero for consolidated placements.
    pub fn comm_cost(&self, machines: usize, price_sum: f64, workers: u32) -> f64 {
        let hops = machines.saturating_sub(1) as f64;
        if hops == 0.0 || workers == 0 {
            return 0.0;
        }
        let mean_price = price_sum / workers as f64;
        self.price_surcharge_per_hop * hops * mean_price
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::PlacementSlice;
    use crate::catalog::GpuTypeId;
    use crate::machine::MachineId;

    #[test]
    fn consolidated_is_penalty_free() {
        let m = CommCostModel::default();
        assert_eq!(m.throughput_factor(1), 1.0);
        assert_eq!(m.throughput_factor(0), 1.0);
        assert_eq!(m.comm_cost(1, 10.0, 4), 0.0);
    }

    #[test]
    fn factor_compounds_per_hop() {
        let m = CommCostModel {
            throughput_penalty_per_hop: 0.1,
            price_surcharge_per_hop: 0.0,
        };
        let f2 = m.throughput_factor(2);
        let f3 = m.throughput_factor(3);
        assert!((f2 - 0.9).abs() < 1e-12);
        assert!((f3 - 0.81).abs() < 1e-12);
    }

    #[test]
    fn comm_cost_scales_with_hops_and_price() {
        let m = CommCostModel {
            throughput_penalty_per_hop: 0.0,
            price_surcharge_per_hop: 0.5,
        };
        // 3 machines => 2 hops; mean price 2.5 => cost = 0.5 * 2 * 2.5.
        assert!((m.comm_cost(3, 10.0, 4) - 2.5).abs() < 1e-12);
        assert_eq!(m.comm_cost(3, 10.0, 0), 0.0);
    }

    #[test]
    fn free_model_is_neutral() {
        let m = CommCostModel::free();
        let p = JobPlacement::from_slices([
            PlacementSlice {
                machine: MachineId(0),
                gpu: GpuTypeId(0),
                count: 1,
            },
            PlacementSlice {
                machine: MachineId(1),
                gpu: GpuTypeId(0),
                count: 1,
            },
        ]);
        assert_eq!(m.placement_factor(&p), 1.0);
        assert_eq!(m.comm_cost(5, 100.0, 2), 0.0);
    }
}
