//! Extension experiment (beyond the paper): Hadar vs the heterogeneity-aware
//! SRTF baseline.
//!
//! SRTF shares Hadar's job ordering instinct (shortest remaining work
//! first) and type awareness (fastest single type), but has no task-level
//! mixing, no prices, and no payoff-based admission. Comparing the two on
//! (a) the paper's abundant 60-GPU cluster and (b) a *fragmented* cluster
//! of small mixed machines shows where Hadar's remaining machinery earns
//! its keep: under fragmentation SRTF's single-type gangs strand capacity
//! while Hadar's mixed placements keep the cluster packed.

use std::path::Path;

use hadar_cluster::{Cluster, ClusterBuilder};
use hadar_metrics::CsvWriter;
use hadar_sim::{SimConfig, SweepRunner};
use hadar_workload::{generate_trace, TraceConfig};

use crate::experiments::{run_scenario, SchedulerKind};
use crate::figures::{run_cells, FigureResult, PaperSweep};

/// The paper's cluster: its Hadar row is the shared healthy sweep's run.
const ABUNDANT: &str = "abundant (paper)";
const FRAGMENTED: &str = "fragmented (2-GPU nodes)";

/// A fragmented heterogeneous cluster: 30 machines with 2 GPUs each,
/// interleaving V100/P100/K80, so any gang ≥ 3 must span machines and
/// same-type contiguity is scarce.
pub fn fragmented_cluster() -> Cluster {
    let mut b = ClusterBuilder::new();
    let v100 = b.gpu_type("V100");
    let p100 = b.gpu_type("P100");
    let k80 = b.gpu_type("K80");
    for i in 0..30 {
        let ty = [v100, p100, k80][i % 3];
        b.machine(&[(ty, 2)]);
    }
    b.build()
}

/// Run the extension comparison on `healthy`'s trace: the abundant-cluster
/// Hadar row is `healthy`'s Hadar run, the other (cluster × scheduler)
/// cells fan out over `runner`.
pub fn run(healthy: &PaperSweep, runner: &SweepRunner, out_dir: &Path) -> FigureResult {
    let (num_jobs, pattern) = (healthy.num_jobs, healthy.pattern);
    let fragmented = fragmented_cluster();
    let grid = [
        (ABUNDANT, Cluster::paper_simulation(), SchedulerKind::Srtf),
        (FRAGMENTED, fragmented.clone(), SchedulerKind::Hadar),
        (FRAGMENTED, fragmented, SchedulerKind::Srtf),
    ];
    let cells = grid
        .iter()
        .map(|(label, cluster, kind)| {
            let (cluster, kind) = (cluster.clone(), *kind);
            let cell = move || {
                let config = TraceConfig {
                    num_jobs,
                    seed: PaperSweep::SEED,
                    pattern,
                };
                let jobs = generate_trace(&config, cluster.catalog());
                run_scenario(cluster, jobs, SimConfig::default(), kind)
            };
            (format!("{label} / {}", kind.name()), cell)
        })
        .collect();
    let (outcomes, timings) = run_cells(runner, cells);

    let mut csv = CsvWriter::new(&["cluster", "scheduler", "mean_jct_hours", "util"]);
    let mut summary =
        format!("Extension: Hadar vs heterogeneity-aware SRTF ({num_jobs} static jobs)\n");
    let rows = std::iter::once((ABUNDANT, healthy.outcome(SchedulerKind::Hadar)))
        .chain(grid.iter().map(|(label, _, _)| *label).zip(&outcomes));
    for (label, out) in rows {
        assert_eq!(out.completed_jobs(), num_jobs, "{label}/{}", out.scheduler);
        csv.row(vec![
            label.to_owned(),
            out.scheduler.clone(),
            format!("{:.3}", out.mean_jct() / 3600.0),
            format!("{:.4}", out.demand_weighted_utilization()),
        ]);
        summary.push_str(&format!(
            "  {label:<26} {:<6} mean JCT {:>7.2} h | util {:>5.1}%\n",
            out.scheduler,
            out.mean_jct() / 3600.0,
            out.demand_weighted_utilization() * 100.0,
        ));
    }

    let path = out_dir.join("extension_srtf.csv");
    csv.write_to(&path).expect("write extensions csv");
    FigureResult::new("extensions", summary, vec![path]).with_timings(timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmented_cluster_shape() {
        let c = fragmented_cluster();
        assert_eq!(c.num_machines(), 30);
        assert_eq!(c.total_gpus(), 60);
        for r in c.catalog().ids() {
            assert_eq!(c.total_of_type(r), 20);
        }
    }

    #[test]
    fn quick_run_covers_both_clusters() {
        let runner = SweepRunner::serial();
        let healthy = PaperSweep::run(
            24,
            hadar_workload::ArrivalPattern::Static,
            &[SchedulerKind::Hadar],
            &runner,
        );
        let r = run(&healthy, &runner, &crate::figures::test_out());
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("fragmented"));
        assert!(csv.contains("SRTF"));
    }
}
