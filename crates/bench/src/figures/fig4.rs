//! Fig. 4: cluster-wide GPU utilization comparison across the four
//! schedulers.
//!
//! The paper reports one bar per scheduler; its prose attributes YARN-CS's
//! lead to non-preemption (held GPUs never stall) and Gavel/Tiresias's
//! deficit to *unused* heterogeneous GPUs. Those are two different
//! denominators, so we report both decompositions:
//!
//! * `demand_weighted` — useful compute over capacity that had demand
//!   (captures "GPUs idle although jobs wait"),
//! * `held_time` — useful compute over GPU-time held by jobs (captures
//!   checkpoint stalls and synchronization-barrier straggling; ≈1.0 for
//!   YARN-CS by construction).

use std::path::Path;

use hadar_metrics::{bar_chart, CsvWriter};

use crate::experiments::SchedulerKind;
use crate::figures::{indent, FigureResult, PaperSweep};

/// Regenerate Fig. 4 from the static comparison `sweep`.
pub fn run(sweep: &PaperSweep, out_dir: &Path) -> FigureResult {
    let mut csv = CsvWriter::new(&[
        "scheduler",
        "demand_weighted_utilization",
        "held_time_utilization",
        "cluster_wide_utilization",
    ]);
    let mut summary = format!(
        "Fig. 4: GPU utilization, {} static jobs, seed {}\n",
        sweep.num_jobs,
        PaperSweep::SEED
    );
    let mut bars: Vec<(&str, f64)> = Vec::new();

    for kind in SchedulerKind::HEADLINE {
        let out = sweep.outcome(kind);
        let (dw, ht, cw) = (
            out.demand_weighted_utilization(),
            out.held_utilization(),
            out.gpu_utilization(),
        );
        csv.row(vec![
            out.scheduler.clone(),
            format!("{dw:.4}"),
            format!("{ht:.4}"),
            format!("{cw:.4}"),
        ]);
        summary.push_str(&format!(
            "  {:<9} demand-weighted {:>5.1}% | held-time {:>5.1}% | cluster-wide {:>5.1}%\n",
            out.scheduler,
            dw * 100.0,
            ht * 100.0,
            cw * 100.0
        ));
        bars.push((kind.name(), dw * 100.0));
    }

    // Bar view of the headline (demand-weighted) metric.
    summary.push('\n');
    summary.push_str(&indent(&bar_chart(&bars, 40)));

    let path = out_dir.join("fig4_utilization.csv");
    csv.write_to(&path).expect("write fig4 csv");
    FigureResult::new("fig4", summary, vec![path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::test_out;
    use hadar_sim::SweepRunner;
    use hadar_workload::ArrivalPattern;

    #[test]
    fn quick_run_produces_all_rows() {
        let sweep = PaperSweep::run(
            40,
            ArrivalPattern::Static,
            &SchedulerKind::HEADLINE,
            &SweepRunner::serial(),
        );
        let r = run(&sweep, &test_out());
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 5); // header + 4 schedulers
        for name in ["Hadar", "Gavel", "Tiresias", "YARN-CS"] {
            assert!(csv.contains(name), "{name} missing");
        }
    }
}
