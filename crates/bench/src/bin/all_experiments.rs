//! Regenerate every table and figure of the paper's evaluation section and
//! print the consolidated summary (the source of EXPERIMENTS.md's
//! "measured" columns). CSV series land under `HADAR_RESULTS_DIR`, default
//! `results/`.
//!
//! Usage: `all_experiments [--quick]`.
//!
//! Every simulation cell of every experiment is submitted through one
//! shared [`hadar_sim::SweepRunner`] (one worker per available core, at
//! most 16); any worker count produces byte-identical CSVs (except
//! `fig7_scalability.csv`, whose values *are* wall-clock measurements).

use hadar_bench::figures;

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            eprintln!("error: unknown argument {arg:?} (usage: all_experiments [--quick])");
            std::process::exit(2);
        }
    }
    let out = std::env::var("HADAR_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
    let runner = hadar_sim::SweepRunner::default();
    let t0 = std::time::Instant::now();
    let results = figures::run_all(quick, &runner, out.as_ref());
    println!("==============================================================");
    for r in &results {
        println!("--- {} ---", r.name);
        figures::print_report(r);
        println!();
    }
    let csvs: usize = results.iter().map(|r| r.csv_paths.len()).sum();
    let cells: usize = results.iter().map(|r| r.timings.len()).sum();
    let cell_seconds: f64 = results
        .iter()
        .flat_map(|r| r.timings.iter().map(|(_, s)| s))
        .sum();
    println!(
        "all {csvs} CSVs regenerated in {:?} \
         ({cells} sweep cells, {cell_seconds:.1}s of simulation, {} worker threads)",
        t0.elapsed(),
        runner.threads(),
    );
}
