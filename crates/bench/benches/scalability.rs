//! Counterpart of Fig. 7: per-round scheduling-decision cost for Hadar's
//! dual subroutine and Gavel's policy LP as the queue grows (the cluster
//! scales with the workload, as in the paper). Plain timing harness
//! (`cargo bench --bench scalability`); prints median wall time per call.

use std::time::Instant;

use hadar_bench::figures::fig7::scaled_cluster;
use hadar_cluster::{CommCostModel, Usage};
use hadar_core::dp::greedy_allocation;
use hadar_core::find_alloc::AllocEnv;
use hadar_core::{EffectiveThroughput, PriceState};
use hadar_sim::JobState;
use hadar_solver::{max_total_throughput_allocation, GavelLpInput};
use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

fn states_for(n: usize) -> (hadar_cluster::Cluster, Vec<JobState>) {
    let cluster = scaled_cluster(n);
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: n,
            seed: 3,
            pattern: ArrivalPattern::Static,
        },
        cluster.catalog(),
    );
    let states = jobs.into_iter().map(JobState::new).collect();
    (cluster, states)
}

fn median_secs(mut f: impl FnMut(), samples: usize) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn bench_hadar_decision() {
    println!("hadar_round_decision (greedy subroutine), 10 samples each:");
    for n in [32usize, 128, 512] {
        let (cluster, states) = states_for(n);
        let comm = CommCostModel::default();
        let med = median_secs(
            || {
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
                let usage = Usage::empty(&cluster);
                let queue: Vec<&JobState> = states.iter().collect();
                std::hint::black_box(greedy_allocation(&queue, &env, &usage));
            },
            10,
        );
        println!("  n={n:>4}: {:.3} ms", med * 1e3);
    }
}

fn bench_gavel_lp() {
    println!("gavel_policy_lp, 10 samples each:");
    for n in [32usize, 128, 512] {
        let (cluster, states) = states_for(n);
        let num_types = cluster.num_types();
        let input = GavelLpInput {
            throughput: states
                .iter()
                .map(|s| {
                    (0..num_types)
                        .map(|r| s.job.profile.rate(hadar_cluster::GpuTypeId(r as u16)))
                        .collect()
                })
                .collect(),
            gang: states.iter().map(|s| s.job.gang).collect(),
            capacity: (0..num_types)
                .map(|r| cluster.total_of_type(hadar_cluster::GpuTypeId(r as u16)))
                .collect(),
        };
        let med = median_secs(
            || {
                std::hint::black_box(max_total_throughput_allocation(&input).expect("feasible"));
            },
            10,
        );
        println!("  n={n:>4}: {:.3} ms", med * 1e3);
    }
}

fn main() {
    bench_hadar_decision();
    bench_gavel_lp();
}
