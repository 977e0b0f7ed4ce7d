//! Fig. 8: min / average / max JCT under varying input job rates λ, for
//! Hadar, Gavel, and Tiresias. The min–max band width shows each system's
//! variability under load.

use std::path::Path;

use hadar_metrics::CsvWriter;
use hadar_sim::SweepRunner;
use hadar_workload::ArrivalPattern;

use crate::experiments::{run_scenario, SchedulerKind};
use crate::figures::{run_cells, FigureResult};
use crate::scenarios::paper_sim_scenario;

/// The schedulers of Fig. 8.
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Hadar,
    SchedulerKind::Gavel,
    SchedulerKind::Tiresias,
];

/// Regenerate Fig. 8, fanning the (scheduler × rate × seed) cells out over
/// `runner`.
pub fn run(quick: bool, runner: &SweepRunner, out_dir: &Path) -> FigureResult {
    let (num_jobs, rates, seeds): (usize, &[f64], &[u64]) = if quick {
        (30, &[60.0], &[1])
    } else {
        (240, &[30.0, 45.0, 60.0, 75.0, 90.0], &[1, 2, 3])
    };

    let mut cells = Vec::new();
    let mut index: Vec<(SchedulerKind, f64)> = Vec::new();
    for kind in SCHEDULERS {
        for &rate in rates {
            for &seed in seeds {
                let pattern = ArrivalPattern::Poisson {
                    jobs_per_hour: rate,
                };
                index.push((kind, rate));
                let cell = move || {
                    let s = paper_sim_scenario(num_jobs, seed, pattern);
                    run_scenario(s.cluster, s.jobs, s.config, kind)
                };
                cells.push((format!("{} λ={rate}/h seed {seed}", kind.name()), cell));
            }
        }
    }
    let (outcomes, timings) = run_cells(runner, cells);

    let mut csv = CsvWriter::new(&[
        "scheduler",
        "jobs_per_hour",
        "min_jct_hours",
        "mean_jct_hours",
        "max_jct_hours",
    ]);
    let mut summary = format!("Fig. 8: JCT range vs input job rate ({num_jobs} jobs/run)\n");
    for kind in SCHEDULERS {
        for &rate in rates {
            // Pool JCTs across the seeds of this (scheduler, rate) cell.
            let mut jcts: Vec<f64> = Vec::new();
            for (o, &(k, r)) in outcomes.iter().zip(&index) {
                if k == kind && r == rate {
                    jcts.extend(o.jcts());
                }
            }
            let stats = hadar_metrics::SummaryStats::of(&jcts);
            csv.row(vec![
                kind.name().to_owned(),
                format!("{rate}"),
                format!("{:.3}", stats.min / 3600.0),
                format!("{:.3}", stats.mean / 3600.0),
                format!("{:.3}", stats.max / 3600.0),
            ]);
            summary.push_str(&format!(
                "  {:<9} λ={rate:>4.0}/h: min {:>7.2} h | mean {:>7.2} h | max {:>8.2} h\n",
                kind.name(),
                stats.min / 3600.0,
                stats.mean / 3600.0,
                stats.max / 3600.0
            ));
        }
    }

    let path = out_dir.join("fig8_jct_vs_rate.csv");
    csv.write_to(&path).expect("write fig8 csv");
    FigureResult::new("fig8", summary, vec![path]).with_timings(timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_three_schedulers() {
        let r = run(true, &SweepRunner::serial(), &crate::figures::test_out());
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 4); // header + 3 schedulers × 1 rate
    }
}
