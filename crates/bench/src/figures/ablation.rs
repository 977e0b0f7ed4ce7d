//! Ablation study of Hadar's design choices (not a paper figure; supports
//! DESIGN.md §7's "who wins and why" analysis by switching individual
//! mechanisms off):
//!
//! * **mixed-type placement** — the task-level flexibility itself,
//! * **sticky placements** — the stall-free keep-current candidate,
//! * **greedy vs DP** dual subroutine,
//! * **throughput profiling noise** — decisions from noisy estimates,
//! * **checkpoint penalty model** — none / flat 10 s / calibrated.

use std::path::Path;

use hadar_core::{AllocMode, Features, HadarConfig, HadarScheduler};
use hadar_metrics::CsvWriter;
use hadar_sim::{PreemptionPenalty, Simulation, SweepRunner};

use crate::experiments::SchedulerKind;
use crate::figures::{run_cells, FigureResult, PaperSweep};
use crate::scenarios::paper_sim_scenario;

struct Variant {
    label: &'static str,
    config: fn() -> HadarConfig,
    penalty: PreemptionPenalty,
}

/// The row of the unmodified scheduler, read from the shared healthy sweep.
const FULL: &str = "full (default)";

/// Every variant that switches something off (the full row is not among
/// them: it is the healthy sweep's Hadar run).
fn variants() -> Vec<Variant> {
    vec![
        Variant {
            label: "no mixed types",
            config: || HadarConfig {
                features: Features {
                    mixed_types: false,
                    ..Features::default()
                },
                ..HadarConfig::default()
            },
            penalty: PreemptionPenalty::Fixed(10.0),
        },
        Variant {
            label: "no sticky placements",
            config: || HadarConfig {
                features: Features {
                    sticky: false,
                    ..Features::default()
                },
                ..HadarConfig::default()
            },
            penalty: PreemptionPenalty::Fixed(10.0),
        },
        Variant {
            label: "greedy-only subroutine",
            config: || HadarConfig {
                alloc_mode: AllocMode::Greedy,
                ..HadarConfig::default()
            },
            penalty: PreemptionPenalty::Fixed(10.0),
        },
        Variant {
            label: "no incremental updates",
            config: || HadarConfig {
                incremental: false,
                ..HadarConfig::default()
            },
            penalty: PreemptionPenalty::Fixed(10.0),
        },
        Variant {
            label: "noisy profiling (20%)",
            config: || HadarConfig {
                profiling_seed: Some(1),
                ..HadarConfig::default()
            },
            penalty: PreemptionPenalty::Fixed(10.0),
        },
        Variant {
            label: "no checkpoint penalty",
            config: HadarConfig::default,
            penalty: PreemptionPenalty::Fixed(0.0),
        },
        Variant {
            label: "modeled checkpoint penalty",
            config: HadarConfig::default,
            penalty: PreemptionPenalty::Modeled,
        },
    ]
}

/// Run the ablation grid on `healthy`'s trace, fanning the per-variant
/// cells out over `runner`; the full row is `healthy`'s Hadar run.
pub fn run(healthy: &PaperSweep, runner: &SweepRunner, out_dir: &Path) -> FigureResult {
    let (num_jobs, pattern) = (healthy.num_jobs, healthy.pattern);
    let cells = variants()
        .into_iter()
        .map(|v| {
            let cell = move || {
                let mut s = paper_sim_scenario(num_jobs, PaperSweep::SEED, pattern);
                s.config.penalty = v.penalty;
                Simulation::new(s.cluster, s.jobs, s.config).run(HadarScheduler::new((v.config)()))
            };
            (v.label.to_owned(), cell)
        })
        .collect();
    let (outcomes, timings) = run_cells(runner, cells);
    let full = healthy.outcome(SchedulerKind::Hadar);

    let mut csv = CsvWriter::new(&[
        "variant",
        "mean_jct_hours",
        "median_jct_hours",
        "makespan_hours",
        "demand_weighted_utilization",
        "reallocation_rate",
    ]);
    let mut summary = format!("Ablation: Hadar design choices ({num_jobs} static jobs)\n");

    let labels = std::iter::once(FULL).chain(variants().into_iter().map(|v| v.label));
    for (label, out) in labels.zip(std::iter::once(full).chain(&outcomes)) {
        assert_eq!(out.completed_jobs(), num_jobs, "{label}");
        csv.row(vec![
            label.to_owned(),
            format!("{:.3}", out.mean_jct() / 3600.0),
            format!("{:.3}", out.median_jct() / 3600.0),
            format!("{:.3}", out.makespan() / 3600.0),
            format!("{:.4}", out.demand_weighted_utilization()),
            format!("{:.4}", out.reallocation_rate()),
        ]);
        summary.push_str(&format!(
            "  {:<27} mean JCT {:>7.2} h | makespan {:>7.2} h | util {:>5.1}% | realloc {:>4.1}%\n",
            label,
            out.mean_jct() / 3600.0,
            out.makespan() / 3600.0,
            out.demand_weighted_utilization() * 100.0,
            out.reallocation_rate() * 100.0,
        ));
    }

    let path = out_dir.join("ablation_hadar.csv");
    csv.write_to(&path).expect("write ablation csv");
    FigureResult::new("ablation", summary, vec![path]).with_timings(timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_complete() {
        let healthy = PaperSweep::run(
            24,
            hadar_workload::ArrivalPattern::Static,
            &[SchedulerKind::Hadar],
            &SweepRunner::serial(),
        );
        let r = run(
            &healthy,
            &SweepRunner::serial(),
            &crate::figures::test_out(),
        );
        let csv = std::fs::read_to_string(&r.csv_paths[0]).unwrap();
        assert_eq!(csv.lines().count(), 2 + variants().len());
        assert!(csv.lines().nth(1).unwrap().starts_with(FULL));
    }
}
