//! The core guarantee of the parallel sweep runner: fanning figure cells
//! over a thread pool produces byte-identical CSVs and identical summaries
//! to the strict serial reference, and parallel runs are deterministic.

use std::collections::BTreeMap;
use std::path::Path;

use hadar_bench::figures::{self, PaperSweep};
use hadar_bench::SchedulerKind;
use hadar_sim::SweepRunner;
use hadar_workload::ArrivalPattern;

/// Run a representative slice of the figure suite into `dir` and return
/// `(csv name -> bytes, figure name -> summary)`.
///
/// The slice covers the sweep shapes: one figure fed by each shared
/// sweep — order-dependent "(x Hadar)" ratios (fig5, from the static
/// comparison) and the seeded fault-injection sweep (failures, from the
/// healthy runs), whose RNG-driven eviction timeline must also be
/// thread-count-invariant — a multi-cluster comparison (extensions), and a
/// parameter-grid sweep (fig9).
fn run_figures_into(
    dir: &Path,
    runner: &SweepRunner,
) -> (BTreeMap<String, Vec<u8>>, BTreeMap<String, String>) {
    let comparison = PaperSweep::run(
        40,
        ArrivalPattern::Static,
        &[
            SchedulerKind::Hadar,
            SchedulerKind::Gavel,
            SchedulerKind::Tiresias,
        ],
        runner,
    );
    let healthy = PaperSweep::run(24, ArrivalPattern::Static, &SchedulerKind::HEADLINE, runner);
    let results = vec![
        figures::fig5::run(&comparison, dir),
        figures::fig9::run(true, runner, dir),
        figures::extensions::run(&healthy, runner, dir),
        figures::failures::run(true, &healthy, runner, dir),
    ];
    let mut csvs = BTreeMap::new();
    let mut summaries = BTreeMap::new();
    for r in results {
        summaries.insert(r.name.clone(), r.summary.clone());
        for p in &r.csv_paths {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            csvs.insert(name, std::fs::read(p).unwrap());
        }
    }
    (csvs, summaries)
}

#[test]
fn parallel_figures_are_byte_identical_and_deterministic() {
    let base = std::env::temp_dir().join(format!("hadar-par-eq-{}", std::process::id()));
    let (serial_csvs, serial_summaries) =
        run_figures_into(&base.join("serial"), &SweepRunner::serial());
    let (par_csvs, par_summaries) = run_figures_into(&base.join("par-a"), &SweepRunner::new(4));
    let (rerun_csvs, _) = run_figures_into(&base.join("par-b"), &SweepRunner::new(4));

    assert_eq!(
        serial_csvs.keys().collect::<Vec<_>>(),
        par_csvs.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &serial_csvs {
        assert_eq!(
            Some(bytes),
            par_csvs.get(name),
            "{name}: parallel CSV differs from serial reference"
        );
        assert_eq!(
            par_csvs.get(name),
            rerun_csvs.get(name),
            "{name}: two parallel runs disagree"
        );
    }
    assert_eq!(serial_summaries, par_summaries, "summaries diverged");

    let _ = std::fs::remove_dir_all(&base);
}
