//! Fig. 5: finish-time fairness (FTF) comparison among Gavel, Tiresias, and
//! Hadar. Lower ρ = fairer/faster than the 1/n-share baseline.

use std::path::Path;

use hadar_metrics::{bar_chart, CsvWriter};

use crate::experiments::SchedulerKind;
use crate::figures::{indent, FigureResult, PaperSweep};

/// The schedulers of Fig. 5 (YARN-CS is excluded, as in the paper).
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Hadar,
    SchedulerKind::Gavel,
    SchedulerKind::Tiresias,
];

/// Regenerate Fig. 5 from the static comparison `sweep`.
pub fn run(sweep: &PaperSweep, out_dir: &Path) -> FigureResult {
    let mut csv = CsvWriter::new(&["scheduler", "mean_ftf", "median_ftf", "p95_ftf", "max_ftf"]);
    let mut dist = CsvWriter::new(&["scheduler", "job_id", "ftf"]);
    let mut summary = format!(
        "Fig. 5: finish-time fairness, {} static jobs\n",
        sweep.num_jobs
    );
    let hadar_mean = sweep.outcome(SchedulerKind::Hadar).ftf().mean;
    let mut bars: Vec<(&str, f64)> = Vec::new();

    for kind in SCHEDULERS {
        let out = sweep.outcome(kind);
        let stats = out.ftf();
        csv.row(vec![
            out.scheduler.clone(),
            format!("{:.4}", stats.mean),
            format!("{:.4}", stats.median),
            format!("{:.4}", stats.p95),
            format!("{:.4}", stats.max),
        ]);
        for (i, v) in out.ftf_values().iter().enumerate() {
            dist.row(vec![
                out.scheduler.clone(),
                i.to_string(),
                format!("{v:.5}"),
            ]);
        }
        let vs = if hadar_mean > 0.0 && kind != SchedulerKind::Hadar {
            format!(" ({:.2}x Hadar)", stats.mean / hadar_mean)
        } else {
            String::new()
        };
        summary.push_str(&format!(
            "  {:<9} mean ρ {:.3}{vs} | median {:.3} | p95 {:.3}\n",
            out.scheduler, stats.mean, stats.median, stats.p95
        ));
        bars.push((kind.name(), stats.mean));
    }

    summary.push_str("\n  mean FTF rho (lower = fairer):\n");
    summary.push_str(&indent(&bar_chart(&bars, 40)));

    let path = out_dir.join("fig5_ftf.csv");
    let dist_path = out_dir.join("fig5_ftf_distribution.csv");
    csv.write_to(&path).expect("write fig5 csv");
    dist.write_to(&dist_path)
        .expect("write fig5 distribution csv");
    FigureResult::new("fig5", summary, vec![path, dist_path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_out;
    use hadar_sim::SweepRunner;
    use hadar_workload::ArrivalPattern;

    #[test]
    fn quick_run_excludes_yarn() {
        let sweep = PaperSweep::run(
            40,
            ArrivalPattern::Static,
            &SCHEDULERS,
            &SweepRunner::serial(),
        );
        let r = run(&sweep, &test_out());
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert!(!csv.contains("YARN"));
        assert_eq!(csv.lines().count(), 4);
    }
}
