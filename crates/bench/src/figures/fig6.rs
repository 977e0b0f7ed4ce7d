//! Fig. 6: makespan comparison among Gavel, Tiresias, and Hadar, with Hadar
//! "flexibly specifying its scheduling policy towards makespan
//! minimization" (the [`hadar_core::MinMakespan`] utility).

use std::path::Path;

use hadar_metrics::{bar_chart, CsvWriter};

use crate::experiments::SchedulerKind;
use crate::figures::{indent, FigureResult, PaperSweep};

/// The schedulers of Fig. 6, Hadar with its makespan objective first.
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::HadarMakespan,
    SchedulerKind::Gavel,
    SchedulerKind::Tiresias,
];

/// Regenerate Fig. 6 from the static comparison `sweep`.
pub fn run(sweep: &PaperSweep, out_dir: &Path) -> FigureResult {
    let mut csv = CsvWriter::new(&["scheduler", "makespan_hours"]);
    let mut summary = format!("Fig. 6: makespan, {} static jobs\n", sweep.num_jobs);
    let hadar_makespan = sweep.outcome(SchedulerKind::HadarMakespan).makespan();
    let mut bars: Vec<(&str, f64)> = Vec::new();

    for kind in SCHEDULERS {
        let out = sweep.outcome(kind);
        let makespan = out.makespan();
        csv.row(vec![
            out.scheduler.clone(),
            format!("{:.3}", makespan / 3600.0),
        ]);
        let vs = if hadar_makespan > 0.0 && kind != SchedulerKind::HadarMakespan {
            format!(" ({:.2}x Hadar)", makespan / hadar_makespan)
        } else {
            String::new()
        };
        summary.push_str(&format!(
            "  {:<16} makespan {:>8.2} h{vs}\n",
            out.scheduler,
            makespan / 3600.0
        ));
        bars.push((kind.name(), makespan / 3600.0));
    }

    summary.push_str("\n  makespan (hours):\n");
    summary.push_str(&indent(&bar_chart(&bars, 40)));

    let path = out_dir.join("fig6_makespan.csv");
    csv.write_to(&path).expect("write fig6 csv");
    FigureResult::new("fig6", summary, vec![path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_out;
    use hadar_sim::SweepRunner;
    use hadar_workload::ArrivalPattern;

    #[test]
    fn quick_run_uses_makespan_objective() {
        let sweep = PaperSweep::run(
            40,
            ArrivalPattern::Static,
            &SCHEDULERS,
            &SweepRunner::serial(),
        );
        let r = run(&sweep, &test_out());
        assert!(r.summary.contains("Hadar (makespan)"));
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 4);
    }
}
