//! Table IV: preemption overhead of Hadar's round-based scheduler per
//! model, with and without reallocation, over a 6-minute round — plus a
//! measured column: the realized overhead observed in a simulation run
//! with the modeled checkpoint costs.

use std::path::Path;

use hadar_metrics::{CsvWriter, Table};
use hadar_sim::checkpoint::{overhead_percent, EFFECTIVE_BANDWIDTH_MIB_S};
use hadar_sim::{PreemptionPenalty, SweepRunner};
use hadar_workload::{ArrivalPattern, DlTask};

use crate::experiments::{run_scenario, SchedulerKind};
use crate::figures::{run_cells, FigureResult};
use crate::scenarios::paper_sim_scenario;

/// Regenerate Table IV. The live cross-check run is submitted through
/// `runner` as a single cell.
pub fn run(quick: bool, runner: &SweepRunner, out_dir: &Path) -> FigureResult {
    let round = 360.0;

    let mut table = Table::new(vec!["Model", "Overhead w/ realloc", "Overhead w/o realloc"]);
    let mut csv = CsvWriter::new(&[
        "model",
        "checkpoint_mib",
        "overhead_with_realloc_pct",
        "overhead_without_realloc_pct",
    ]);
    for t in DlTask::ALL {
        let w = overhead_percent(t, round, true);
        let wo = overhead_percent(t, round, false);
        table.row(vec![
            t.model_name().to_owned(),
            format!("{w:.2}%"),
            format!("{wo:.2}%"),
        ]);
        csv.row(vec![
            t.model_name().to_owned(),
            format!("{}", t.checkpoint_mib()),
            format!("{w:.3}"),
            format!("{wo:.3}"),
        ]);
    }

    // Cross-check with a live run: total stall time / total held time under
    // the modeled penalty.
    let num_jobs = if quick { 20 } else { 120 };
    let cell = move || {
        let mut s = paper_sim_scenario(num_jobs, 5, ArrivalPattern::Static);
        s.config.penalty = PreemptionPenalty::Modeled;
        run_scenario(s.cluster, s.jobs, s.config, SchedulerKind::Hadar)
    };
    let (live, timings) = run_cells(runner, vec![("Hadar live cross-check".to_owned(), cell)]);
    let realloc_rate = live[0].reallocation_rate();

    let summary = format!(
        "Table IV: preemption overhead per model (6-minute rounds, {} MiB/s effective SSD)\n{}\nLive run: {:.1}% of job-rounds required reallocation (paper §IV-A-5 reports ~30%)\n",
        EFFECTIVE_BANDWIDTH_MIB_S,
        table.render(),
        realloc_rate * 100.0,
    );
    let path = out_dir.join("table4_overhead.csv");
    csv.write_to(&path).expect("write table4 csv");
    FigureResult::new("table4", summary, vec![path]).with_timings(timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_match_paper_within_tolerance() {
        let r = run(true, &SweepRunner::serial(), &crate::figures::test_out());
        // Spot-check the headline entries of Table IV.
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        let rn50 = csv
            .lines()
            .find(|l| l.starts_with("ResNet-50"))
            .expect("ResNet-50 row");
        let cols: Vec<&str> = rn50.split(',').collect();
        let with: f64 = cols[2].parse().unwrap();
        let without: f64 = cols[3].parse().unwrap();
        assert!((with - 2.1).abs() < 0.1, "w/ realloc {with}");
        assert!((without - 0.33).abs() < 0.05, "w/o realloc {without}");
    }
}
