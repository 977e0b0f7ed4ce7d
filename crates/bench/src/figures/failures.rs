//! Machine-failure resilience experiment.
//!
//! Each scheduler runs the same trace on a healthy cluster and then under
//! progressively less reliable machines (decreasing MTBF, fixed MTTR). A
//! failure evicts every job on the dying machine: the round's work is lost,
//! the gang re-queues, and the re-placement pays the checkpoint-restore
//! penalty. We report the JCT degradation along the failure axis together
//! with the eviction count and the GPU-hours of capacity lost to downtime —
//! the failure-model analogue of the straggler experiment.

use std::path::Path;

use hadar_metrics::CsvWriter;
use hadar_sim::{FailureModel, SweepRunner};

use crate::experiments::{run_scenario, SchedulerKind};
use crate::figures::{run_cells, FigureResult, PaperSweep};
use crate::scenarios::paper_sim_scenario;

/// Mean time to repair, in rounds (30 simulated minutes).
const MTTR_ROUNDS: f64 = 5.0;

/// The MTBF sweep (per-machine mean time between failures, in rounds);
/// the healthy reference point comes from the shared sweep.
fn mtbf_axis(quick: bool) -> &'static [f64] {
    if quick {
        &[60.0]
    } else {
        &[240.0, 120.0, 60.0]
    }
}

/// Label for one MTBF point (`None` is the healthy reference).
fn mtbf_label(mtbf: Option<f64>) -> String {
    match mtbf {
        None => "healthy".to_owned(),
        Some(m) => format!("mtbf={m:.0}"),
    }
}

/// Run the failure resilience comparison: the healthy reference comes from
/// `healthy`, the (scheduler × MTBF) cells fan out over `runner`.
pub fn run(
    quick: bool,
    healthy: &PaperSweep,
    runner: &SweepRunner,
    out_dir: &Path,
) -> FigureResult {
    let (num_jobs, pattern) = (healthy.num_jobs, healthy.pattern);
    let axis = mtbf_axis(quick);

    let mut cells = Vec::new();
    for kind in SchedulerKind::HEADLINE {
        for &mtbf in axis {
            let cell = move || {
                let mut s = paper_sim_scenario(num_jobs, PaperSweep::SEED, pattern);
                s.config.failure = Some(FailureModel {
                    mtbf_rounds: mtbf,
                    mttr_rounds: MTTR_ROUNDS,
                    seed: 17,
                });
                run_scenario(s.cluster, s.jobs, s.config, kind)
            };
            cells.push((format!("{} {}", kind.name(), mtbf_label(Some(mtbf))), cell));
        }
    }
    let (outcomes, timings) = run_cells(runner, cells);

    let mut csv = CsvWriter::new(&[
        "scheduler",
        "mtbf_rounds",
        "mean_jct_hours",
        "jct_degradation_percent",
        "evictions",
        "machine_failures",
        "lost_gpu_hours",
    ]);
    let mut summary = format!(
        "Failures: JCT vs machine MTBF (mttr {MTTR_ROUNDS:.0} rounds, {num_jobs} static jobs)\n"
    );

    for (kind, faulty) in SchedulerKind::HEADLINE
        .into_iter()
        .zip(outcomes.chunks(axis.len()))
    {
        let reference = healthy.outcome(kind);
        let h = reference.mean_jct();
        let points = axis.iter().map(|&m| Some(m)).zip(faulty);
        for (mtbf, out) in std::iter::once((None, reference)).chain(points) {
            assert_eq!(out.completed_jobs(), num_jobs, "{}", kind.name());
            let jct = out.mean_jct();
            let degradation = (jct - h) / h * 100.0;
            csv.row(vec![
                kind.name().to_owned(),
                mtbf.map_or_else(|| "inf".to_owned(), |m| format!("{m:.0}")),
                format!("{:.3}", jct / 3600.0),
                format!("{degradation:.2}"),
                out.evictions().to_string(),
                out.machine_failures().to_string(),
                format!("{:.2}", out.lost_gpu_seconds() / 3600.0),
            ]);
            summary.push_str(&format!(
                "  {:<9} {:>10}  JCT {:>7.2} h ({:+.1}%), {} evictions, {:.0} GPU-h lost\n",
                kind.name(),
                mtbf_label(mtbf),
                jct / 3600.0,
                degradation,
                out.evictions(),
                out.lost_gpu_seconds() / 3600.0,
            ));
        }
    }

    let path = out_dir.join("failures.csv");
    csv.write_to(&path).expect("write failures csv");
    FigureResult::new("failures", summary, vec![path]).with_timings(timings)
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
        let r = run(true, &healthy, &runner, &crate::figures::test_out());
        assert_eq!(r.timings.len(), 4);
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 9);
        assert!(r.summary.contains("mtbf=60"));
        // The injected-failure rows actually exercised the fault path.
        let evicting_rows = csv
            .lines()
            .skip(1)
            .filter(|l| l.contains(",60,"))
            .filter(|l| {
                let evictions: u64 = l.split(',').nth(4).unwrap().parse().unwrap();
                evictions > 0
            })
            .count();
        assert!(evicting_rows > 0, "no scheduler recorded an eviction");
    }
}
