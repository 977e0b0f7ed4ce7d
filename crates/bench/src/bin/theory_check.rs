//! Empirical check of the Theorem 2 machinery on concrete scheduling
//! rounds: for a range of queue sizes and seeds, audit the primal/dual
//! objectives and the allocation-cost relationship (see
//! `hadar_core::theory`). A margin ≥ 1.0 means the `2α` guarantee held.

use hadar_cluster::{Cluster, CommCostModel};
use hadar_core::find_alloc::AllocEnv;
use hadar_core::{audit_round, EffectiveThroughput, PriceState};
use hadar_sim::JobState;
use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

fn main() {
    println!("Theorem 2 empirical audit (greedy dual subroutine, paper cluster)\n");
    println!(
        "{:>6} {:>6} {:>10} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "queue", "seed", "admitted", "primal", "dual", "alpha", "margin", "ac-ratio"
    );
    let cluster = Cluster::paper_simulation();
    let comm = CommCostModel::default();
    let mut worst_margin = f64::INFINITY;
    for &n in &[4usize, 8, 16, 32, 64, 128] {
        for seed in 0..4u64 {
            let jobs = generate_trace(
                &TraceConfig {
                    num_jobs: n,
                    seed,
                    pattern: ArrivalPattern::Static,
                },
                cluster.catalog(),
            );
            let states: Vec<JobState> = jobs.into_iter().map(JobState::new).collect();
            let prices = PriceState::compute(&states, &cluster, &EffectiveThroughput, 0.0);
            let env = AllocEnv {
                cluster: &cluster,
                comm: &comm,
                prices: &prices,
                utility: &EffectiveThroughput,
                now: 0.0,
                realloc_stall: 10.0,
                features: Default::default(),
                machine_factors: &[],
            };
            let queue: Vec<&JobState> = states.iter().collect();
            let a = audit_round(&queue, &env, &prices);
            worst_margin = worst_margin.min(a.guarantee_margin);
            println!(
                "{n:>6} {seed:>6} {:>10} {:>12.3} {:>12.3} {:>8.3} {:>10.3} {:>10.3}",
                a.admitted,
                a.primal,
                a.dual,
                a.alpha,
                a.guarantee_margin,
                a.worst_allocation_cost_ratio,
            );
        }
    }
    println!("\nworst 2α-guarantee margin observed: {worst_margin:.3} (>= 1.0 required)");
    assert!(worst_margin >= 1.0, "Theorem 2 guarantee violated!");
}
