//! Straggler resilience experiment (supporting §IV-A-1's claim that Hadar
//! "handles straggling tasks more effectively by reallocating resources").
//!
//! Each scheduler runs the same trace twice — once on a healthy cluster and
//! once with the straggler process injecting transient 2.5× machine
//! slowdowns — and we report the JCT degradation. Hadar reads the
//! per-machine factors and migrates gangs off slow servers; the baselines
//! are straggler-blind and pay the synchronization-barrier penalty for as
//! long as a slowdown lasts.

use std::path::Path;

use hadar_metrics::CsvWriter;
use hadar_sim::{StragglerModel, SweepRunner};

use crate::experiments::{run_scenario, SchedulerKind};
use crate::figures::{run_cells, FigureResult, PaperSweep};
use crate::scenarios::paper_sim_scenario;

/// Run the straggler resilience comparison: the healthy runs come from
/// `healthy`, the straggling cells fan out over `runner`.
pub fn run(healthy: &PaperSweep, runner: &SweepRunner, out_dir: &Path) -> FigureResult {
    let (num_jobs, pattern) = (healthy.num_jobs, healthy.pattern);
    let model = StragglerModel {
        incidence: 0.03,
        slowdown: 0.4,
        mean_duration_rounds: 5.0,
        seed: 17,
    };

    let cells = SchedulerKind::HEADLINE
        .into_iter()
        .map(|kind| {
            let cell = move || {
                let mut s = paper_sim_scenario(num_jobs, PaperSweep::SEED, pattern);
                s.config.straggler = Some(model);
                run_scenario(s.cluster, s.jobs, s.config, kind)
            };
            (format!("{} straggling", kind.name()), cell)
        })
        .collect();
    let (straggling, timings) = run_cells(runner, cells);

    let mut csv = CsvWriter::new(&[
        "scheduler",
        "mean_jct_hours_healthy",
        "mean_jct_hours_straggling",
        "degradation_percent",
    ]);
    let mut summary = format!(
        "Stragglers: JCT degradation under transient machine slowdowns ({num_jobs} static jobs)\n"
    );

    for (kind, straggling) in SchedulerKind::HEADLINE.into_iter().zip(&straggling) {
        assert_eq!(straggling.completed_jobs(), num_jobs, "{}", kind.name());
        let (h, g) = (healthy.outcome(kind).mean_jct(), straggling.mean_jct());
        let degradation = (g - h) / h * 100.0;
        csv.row(vec![
            kind.name().to_owned(),
            format!("{:.3}", h / 3600.0),
            format!("{:.3}", g / 3600.0),
            format!("{degradation:.2}"),
        ]);
        summary.push_str(&format!(
            "  {:<9} healthy {:>7.2} h -> straggling {:>7.2} h ({:+.1}%)\n",
            kind.name(),
            h / 3600.0,
            g / 3600.0,
            degradation
        ));
    }

    let path = out_dir.join("stragglers.csv");
    csv.write_to(&path).expect("write stragglers csv");
    FigureResult::new("stragglers", summary, vec![path]).with_timings(timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_all_schedulers() {
        let runner = SweepRunner::serial();
        let healthy = PaperSweep::run(
            24,
            hadar_workload::ArrivalPattern::Static,
            &SchedulerKind::HEADLINE,
            &runner,
        );
        let r = run(&healthy, &runner, &crate::figures::test_out());
        assert_eq!(r.timings.len(), 4);
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 5);
        assert!(r.summary.contains("straggling"));
    }
}
