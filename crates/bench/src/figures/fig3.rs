//! Fig. 3: cumulative fraction of jobs completed along the timeline, for the
//! static (3a) and continuous (3b) traces, under all four schedulers.

use std::path::Path;

use hadar_metrics::{line_chart, CsvWriter};

use crate::experiments::SchedulerKind;
use crate::figures::{indent, ratio, FigureResult, PaperSweep};

/// Regenerate one panel of Fig. 3 from `sweep` (its arrival pattern picks
/// the panel: static is 3a, continuous 3b).
pub fn run(sweep: &PaperSweep, out_dir: &Path) -> FigureResult {
    let (num_jobs, panel) = (sweep.num_jobs, sweep.pattern_label());
    let mut csv = CsvWriter::new(&["scheduler", "time_hours", "fraction_completed"]);
    let mut summary = format!(
        "Fig. 3 ({panel}): {num_jobs} jobs, seed {}\n",
        PaperSweep::SEED
    );
    let hadar = sweep.outcome(SchedulerKind::Hadar).metrics();
    let mut cdf_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();

    for kind in SchedulerKind::HEADLINE {
        let out = sweep.outcome(kind);
        assert_eq!(
            out.completed_jobs(),
            num_jobs,
            "{} run incomplete",
            out.scheduler
        );
        let cdf = out.completion_cdf();
        for &(t, frac) in &cdf {
            csv.row(vec![
                out.scheduler.clone(),
                format!("{:.4}", t / 3600.0),
                format!("{frac:.5}"),
            ]);
        }
        cdf_series.push((
            out.scheduler.clone(),
            cdf.into_iter().map(|(t, f)| (t / 3600.0, f)).collect(),
        ));
        let m = out.metrics();
        summary.push_str(&format!(
            "  {:<9} mean JCT {:>8.2} h ({}), median {:>8.2} h ({})\n",
            out.scheduler,
            m.mean / 3600.0,
            ratio(hadar.mean, m.mean),
            m.median / 3600.0,
            ratio(hadar.median, m.median),
        ));
    }

    let series: Vec<(&str, &[(f64, f64)])> = cdf_series
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_slice()))
        .collect();
    summary.push_str("\n  fraction completed vs time (hours):\n");
    summary.push_str(&indent(&line_chart(&series, 64, 12)));

    let path = out_dir.join(format!("fig3_{panel}.csv"));
    csv.write_to(&path).expect("write fig3 csv");
    FigureResult::new(&format!("fig3_{panel}"), summary, vec![path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_out;
    use hadar_sim::SweepRunner;
    use hadar_workload::ArrivalPattern;

    #[test]
    fn quick_static_panel_runs() {
        let sweep = PaperSweep::run(
            40,
            ArrivalPattern::Static,
            &SchedulerKind::HEADLINE,
            &SweepRunner::serial(),
        );
        let r = run(&sweep, &test_out());
        assert_eq!(r.name, "fig3_static");
        assert!(r.summary.contains("Hadar"));
        assert!(r.csv_paths[0].exists());
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert!(csv.lines().count() > 4 * 10, "CDF series too short");
        assert!(csv.contains("YARN-CS"));
    }
}
