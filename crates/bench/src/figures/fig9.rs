//! Fig. 9: impact of the scheduling-round length (6 → 48 minutes) on
//! Hadar's average JCT as the input job rate grows. Short rounds give more
//! optimal allocations but more checkpoint overhead; long rounds add
//! queuing delay and allocation drift.

use std::path::Path;

use hadar_metrics::CsvWriter;
use hadar_sim::SweepRunner;
use hadar_workload::ArrivalPattern;

use crate::experiments::{run_scenario, SchedulerKind};
use crate::figures::{run_cells, FigureResult};
use crate::scenarios::paper_sim_scenario;

/// Regenerate Fig. 9, fanning the (round length × rate) cells out over
/// `runner`.
pub fn run(quick: bool, runner: &SweepRunner, out_dir: &Path) -> FigureResult {
    let (num_jobs, round_minutes, rates): (usize, &[f64], &[f64]) = if quick {
        (30, &[6.0, 48.0], &[60.0])
    } else {
        (
            240,
            &[6.0, 12.0, 24.0, 48.0],
            &[30.0, 45.0, 60.0, 75.0, 90.0],
        )
    };
    let seed = 11;

    let mut cells = Vec::new();
    let mut index: Vec<(f64, f64)> = Vec::new();
    for &rm in round_minutes {
        for &rate in rates {
            index.push((rm, rate));
            let cell = move || {
                let mut s = paper_sim_scenario(
                    num_jobs,
                    seed,
                    ArrivalPattern::Poisson {
                        jobs_per_hour: rate,
                    },
                );
                s.config.round_length = rm * 60.0;
                run_scenario(s.cluster, s.jobs, s.config, SchedulerKind::Hadar)
            };
            cells.push((format!("round {rm} min λ={rate}/h"), cell));
        }
    }
    let (outcomes, timings) = run_cells(runner, cells);

    let mut csv = CsvWriter::new(&["round_minutes", "jobs_per_hour", "mean_jct_hours"]);
    let mut summary = format!("Fig. 9: Hadar avg JCT vs round length ({num_jobs} jobs/run)\n");
    for (o, &(rm, rate)) in outcomes.iter().zip(&index) {
        assert_eq!(o.completed_jobs(), num_jobs, "round {rm} min λ={rate}");
        csv.row(vec![
            format!("{rm}"),
            format!("{rate}"),
            format!("{:.3}", o.mean_jct() / 3600.0),
        ]);
        summary.push_str(&format!(
            "  round {rm:>4.0} min, λ={rate:>4.0}/h: mean JCT {:>7.2} h\n",
            o.mean_jct() / 3600.0
        ));
    }

    let path = out_dir.join("fig9_round_length.csv");
    csv.write_to(&path).expect("write fig9 csv");
    FigureResult::new("fig9", summary, vec![path]).with_timings(timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_sweeps_round_lengths() {
        let r = run(true, &SweepRunner::serial(), &crate::figures::test_out());
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 3); // header + 2 rounds × 1 rate
        assert!(r.summary.contains("round"));
    }
}
