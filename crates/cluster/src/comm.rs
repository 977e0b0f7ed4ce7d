//! Cross-server communication cost model.
//!
//! Algorithm 2's `FIND_ALLOC` compares *consolidated* placements (all tasks
//! of a job packed into the minimum number of servers) against
//! *non-consolidated* ones; for the latter it adds a communication cost
//! (lines 26–27) reflecting the gradient-synchronization traffic that must
//! cross the network between servers every iteration.
//!
//! We model two effects, each with one fixed constant:
//!
//! 1. a **throughput degradation**: each extra server spanned slows the
//!    synchronization barrier, multiplying the job's bottleneck rate by
//!    `(1 − THROUGHPUT_PENALTY_PER_HOP)^(machines − 1)`, and
//! 2. an **additive price surcharge** used directly in the cost comparison,
//!    proportional to the number of extra servers and to the mean GPU price
//!    of the placement (so it is expressed in the same units as the dual
//!    prices `k_h^r`), with factor `PRICE_SURCHARGE_PER_HOP`.

use crate::allocation::{machines_spanned, PlacementSlice};

/// Fractional throughput loss per extra server spanned: spanning a second
/// server costs 8 % of throughput, consistent with parameter-server
/// synchronization over 10 GbE for the mid-size models of Table II.
pub const THROUGHPUT_PENALTY_PER_HOP: f64 = 0.08;

/// Additive cost per extra server, as a multiple of the placement's mean
/// per-GPU price.
pub const PRICE_SURCHARGE_PER_HOP: f64 = 0.5;

/// Multiplicative factor applied to a job's bottleneck throughput for a
/// placement spanning `machines` servers. 1.0 for consolidated.
pub fn throughput_factor(machines: usize) -> f64 {
    let hops = machines.saturating_sub(1) as i32;
    (1.0 - THROUGHPUT_PENALTY_PER_HOP).powi(hops)
}

/// Throughput factor for a placement's canonical slice list.
pub fn placement_factor(slices: &[PlacementSlice]) -> f64 {
    throughput_factor(machines_spanned(slices))
}

/// Additive communication cost (in price units) for a placement whose
/// GPU-price sum is `price_sum` over `workers` workers and which spans
/// `machines` servers. Zero for consolidated placements.
pub fn comm_cost(machines: usize, price_sum: f64, workers: u32) -> f64 {
    let hops = machines.saturating_sub(1) as f64;
    if hops == 0.0 || workers == 0 {
        return 0.0;
    }
    let mean_price = price_sum / workers as f64;
    PRICE_SURCHARGE_PER_HOP * hops * mean_price
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::JobPlacement;
    use crate::catalog::GpuTypeId;
    use crate::machine::MachineId;

    #[test]
    fn consolidated_is_penalty_free() {
        assert_eq!(throughput_factor(1), 1.0);
        assert_eq!(throughput_factor(0), 1.0);
        assert_eq!(comm_cost(1, 10.0, 4), 0.0);
    }

    #[test]
    fn factor_compounds_per_hop() {
        let keep = 1.0 - THROUGHPUT_PENALTY_PER_HOP;
        assert!((throughput_factor(2) - keep).abs() < 1e-12);
        assert!((throughput_factor(3) - keep * keep).abs() < 1e-12);
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
        assert_eq!(placement_factor(p.slices()), throughput_factor(2));
    }

    #[test]
    fn comm_cost_scales_with_hops_and_price() {
        // 3 machines => 2 hops; mean price 2.5 => cost = 0.5 * 2 * 2.5.
        assert!((comm_cost(3, 10.0, 4) - 2.5).abs() < 1e-12);
        assert_eq!(comm_cost(3, 10.0, 0), 0.0);
    }
}
