//! Empirical validation of the primal–dual analysis (§III-D).
//!
//! Theorem 2 proves Hadar `2α`-competitive with
//! `α = max_r max(1, ln U_max^r/U_min^r)` via three ingredients:
//!
//! 1. the *allocation-cost relationship* (Definition 1): when job `j` takes
//!    `Δγ` units at pre-allocation price `k^{j−1}`, the revenue
//!    `k^{j−1}·Δγ` covers `c/α` times the price increase it causes,
//! 2. Lemma 1/2: the relationship implies every primal increment is at
//!    least `1/α` of the dual increment, and
//! 3. the `η` scaling of Eq. 7, which bounds the initial dual value by
//!    `OPT/2`.
//!
//! [`audit_round`] re-runs one scheduling round while tracking the primal
//! objective (total admitted utility), the dual objective
//! (`Σ μ_j + Σ_{h,r} k_h^r(γ_final)·c_h^r`), and the worst-case
//! allocation-cost ratio, so tests (and the `theory_check` binary) can
//! verify that the guarantee holds on concrete instances. The discrete
//! step form of Definition 1 holds up to `(e^x − 1)/x` slack for step size
//! `x = α·Δγ/c`; the audit reports the measured worst ratio rather than
//! asserting exactness.

use hadar_cluster::Usage;
use hadar_sim::JobState;

use crate::dp::greedy_allocation;
use crate::find_alloc::AllocEnv;
use crate::price::PriceState;

/// The audited quantities of one scheduling round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundAudit {
    /// Primal objective increment: Σ utility of admitted jobs.
    pub primal: f64,
    /// Dual objective: Σ payoffs `μ_j` + final price mass
    /// `Σ_{h,r} k_h^r(γ) · c_h^r`.
    pub dual: f64,
    /// `α` from the round's price bounds.
    pub alpha: f64,
    /// `primal · 2α / dual` — ≥ 1 means the `2α` guarantee held this round.
    pub guarantee_margin: f64,
    /// Worst observed allocation-cost ratio
    /// `k^{j−1}Δγ · α / (c·Δk)` over all admissions (≥ 1 means
    /// Definition 1 held exactly; slightly below 1 reflects the discrete
    /// step slack).
    pub worst_allocation_cost_ratio: f64,
    /// Jobs admitted.
    pub admitted: usize,
}

/// Audit one round: run the greedy dual subroutine over `queue` and account
/// primal/dual objectives and the allocation-cost relationship.
pub fn audit_round(queue: &[&JobState], env: &AllocEnv<'_>, prices: &PriceState) -> RoundAudit {
    let usage0 = Usage::empty(env.cluster);
    let selection = greedy_allocation(queue, env, &usage0);
    let alpha = prices.bound().alpha;

    let mut usage = usage0.clone();
    let mut primal = 0.0;
    let mut mu_sum = 0.0;
    let mut worst_ratio = f64::INFINITY;

    for (idx, cand) in &selection.decisions {
        let _ = idx;
        primal += cand.utility;
        mu_sum += cand.payoff.max(0.0);
        // Allocation-cost relationship per touched (h, r) slot.
        for s in cand.placement.slices() {
            let cap = env.cluster.capacity(s.machine, s.gpu);
            if cap == 0 {
                continue;
            }
            let gamma_before = usage.get(s.machine, s.gpu);
            let k_before = prices.price(s.gpu, gamma_before, cap);
            let k_after = prices.price(s.gpu, gamma_before + s.count, cap);
            let dk = k_after - k_before;
            if dk > 1e-15 {
                let lhs = k_before * s.count as f64;
                let rhs = f64::from(cap) / alpha * dk;
                worst_ratio = worst_ratio.min(lhs / rhs);
            }
            usage.add(s.machine, s.gpu, s.count);
        }
    }

    // Final price mass Σ k(γ_final)·c over the whole cluster.
    let mut price_mass = 0.0;
    for h in env.cluster.machine_ids() {
        for r in env.cluster.catalog().ids() {
            let cap = env.cluster.capacity(h, r);
            if cap > 0 {
                price_mass += prices.price(r, usage.get(h, r), cap) * f64::from(cap);
            }
        }
    }
    let dual = mu_sum + price_mass;
    let guarantee_margin = if dual > 0.0 {
        primal * 2.0 * alpha / dual
    } else {
        f64::INFINITY
    };
    RoundAudit {
        primal,
        dual,
        alpha,
        guarantee_margin,
        worst_allocation_cost_ratio: if worst_ratio.is_finite() {
            worst_ratio
        } else {
            1.0
        },
        admitted: selection.decisions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_alloc::Features;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::{Cluster, CommCostModel, JobId};
    use hadar_workload::{DlTask, Job};

    fn audit(n: u32, seed_shift: u64) -> RoundAudit {
        let cluster = Cluster::paper_simulation();
        let states: Vec<JobState> = (0..n)
            .map(|i| {
                JobState::new(Job::for_model(
                    JobId(i),
                    DlTask::ALL[((i as u64 + seed_shift) % 5) as usize],
                    cluster.catalog(),
                    0.0,
                    1 + (i + seed_shift as u32) % 4,
                    20 + 15 * i as u64,
                ))
            })
            .collect();
        let prices = PriceState::compute(&states, &cluster, &EffectiveThroughput, 0.0);
        let comm = CommCostModel::default();
        let env = AllocEnv {
            cluster: &cluster,
            comm: &comm,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            realloc_stall: 10.0,
            features: Features::default(),
            machine_factors: &[],
        };
        let queue: Vec<&JobState> = states.iter().collect();
        audit_round(&queue, &env, &prices)
    }

    #[test]
    fn guarantee_holds_on_mixed_rounds() {
        for shift in 0..6 {
            let a = audit(12, shift);
            assert!(a.admitted > 0, "nothing admitted (shift {shift})");
            assert!(a.alpha >= 1.0);
            assert!(
                a.guarantee_margin >= 1.0,
                "2α guarantee violated: margin {} (shift {shift})",
                a.guarantee_margin
            );
        }
    }

    #[test]
    fn allocation_cost_ratio_within_discrete_slack() {
        // Definition 1 holds up to (e^x − 1)/x slack for step x = α·Δγ/c;
        // with gangs ≤ 4 on 4-GPU machines and the paper-scale α, the
        // measured ratio stays above x/(e^x − 1) for x = α.
        for shift in 0..6 {
            let a = audit(10, shift);
            let x = a.alpha;
            let floor = x / x.exp_m1();
            assert!(
                a.worst_allocation_cost_ratio >= floor * 0.99,
                "ratio {} below discrete floor {floor} (α={x})",
                a.worst_allocation_cost_ratio
            );
        }
    }

    #[test]
    fn empty_round_audit_is_trivial() {
        let cluster = Cluster::paper_simulation();
        let prices = PriceState::compute(&[], &cluster, &EffectiveThroughput, 0.0);
        let comm = CommCostModel::default();
        let env = AllocEnv {
            cluster: &cluster,
            comm: &comm,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            realloc_stall: 10.0,
            features: Features::default(),
            machine_factors: &[],
        };
        let a = audit_round(&[], &env, &prices);
        assert_eq!(a.admitted, 0);
        assert_eq!(a.primal, 0.0);
        assert_eq!(a.worst_allocation_cost_ratio, 1.0);
    }
}
