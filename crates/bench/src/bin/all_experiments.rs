//! Regenerate every table and figure of the paper's evaluation section and
//! print the consolidated summary (the source of EXPERIMENTS.md's
//! "measured" columns). CSV series land under `results/`.
//!
//! Usage: `all_experiments [--quick] [--threads N]`.
//!
//! Every simulation cell of every experiment is submitted through one
//! shared [`hadar_sim::SweepRunner`]; `--threads 1` gives the strict serial
//! reference run, and any thread count produces byte-identical CSVs (except
//! `fig7_scalability.csv`, whose values *are* wall-clock measurements).

use hadar_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let runner = hadar_bench::runner_from_cli(&args);
    let t0 = std::time::Instant::now();
    let results = figures::run_all(quick, &runner);
    println!("==============================================================");
    for r in &results {
        println!("--- {} ---", r.name);
        figures::print_report(r);
        println!();
    }
    let cells: usize = results.iter().map(|r| r.timings.len()).sum();
    let cell_seconds: f64 = results
        .iter()
        .flat_map(|r| r.timings.iter().map(|(_, s)| s))
        .sum();
    println!(
        "all {} experiments regenerated in {:?} \
         ({cells} sweep cells, {cell_seconds:.1}s of simulation, {} worker threads)",
        results.len(),
        t0.elapsed(),
        runner.threads(),
    );
}
