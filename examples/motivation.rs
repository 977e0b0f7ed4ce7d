//! The §II-A motivating example (Fig. 1), adapted to the formal model of
//! §III-A: a toy cluster with 2 × V100, 3 × P100, and 1 × K80, and three
//! 2-GPU jobs. Gavel's job-level granularity strands the leftover
//! {1 × P100, 1 × K80} pair — no single type has two free GPUs — while
//! Hadar's task-level allocation runs the third job on the mixed pair,
//! cutting its completion time and the average JCT.
//!
//! (The paper's own throughput matrix did not survive into our source text;
//! this example uses a matrix chosen to exhibit the same phenomenon — see
//! DESIGN.md §2.)
//!
//! Run with: `cargo run --release --example motivation`

use hadar::baselines::GavelScheduler;
use hadar::prelude::*;
use hadar::sim::PreemptionPenalty;
use hadar::workload::DlTask;

fn toy_jobs(catalog: &GpuCatalog) -> Vec<Job> {
    // Per-task iterations/sec on [V100, P100, K80].
    let profiles = [
        (vec![20.0, 12.0, 8.0], 80u64), // J1: 80 epochs
        (vec![15.0, 10.0, 5.0], 30),    // J2: 30 epochs
        (vec![10.0, 8.0, 6.0], 50),     // J3: 50 epochs
    ];
    assert_eq!(catalog.len(), 3);
    profiles
        .into_iter()
        .enumerate()
        .map(|(i, (rates, epochs))| {
            Job::new(
                JobId(i as u32),
                DlTask::CycleGan, // model tag only matters for checkpoint costs
                0.0,
                2,
                epochs,
                1200, // iterations per epoch
                ThroughputProfile::from_rates(rates),
            )
        })
        .collect()
}

fn run(name: &str, make: impl FnOnce() -> Box<dyn hadar::sim::Scheduler>) -> f64 {
    let cluster = Cluster::motivation_toy();
    let jobs = toy_jobs(cluster.catalog());
    let config = SimConfig {
        penalty: PreemptionPenalty::Fixed(0.0),
        ..SimConfig::default()
    };
    let outcome = Simulation::new(cluster, jobs, config)
        .run(make())
        .expect("valid policy and config");

    println!("== {name} ==");
    for rec in &outcome.records {
        println!(
            "  J{}: gang {}, {} epochs -> JCT {:.0} s (first scheduled at {:.0} s)",
            rec.job.id.0 + 1,
            rec.job.gang,
            rec.job.epochs,
            rec.jct().expect("toy jobs complete"),
            rec.first_scheduled.expect("toy jobs run"),
        );
    }
    let mean = outcome.mean_jct();
    println!("  average JCT: {mean:.0} s\n");
    mean
}

fn main() {
    println!("Toy cluster: 2 x V100 | 3 x P100 | 1 x K80 ; three 2-GPU jobs\n");
    let hadar = run("Hadar (task-level heterogeneity-aware)", || {
        Box::new(HadarScheduler::new(HadarConfig::default()))
    });
    let gavel = run("Gavel (job-level, single type per job)", || {
        Box::new(GavelScheduler::paper_default())
    });
    println!(
        "Hadar improves the average JCT by {:.0} % on this toy workload.",
        (gavel - hadar) / gavel * 100.0
    );
}
