//! Satellite regression test: a sweep under aggressive machine failures
//! where some cells complete *zero* jobs must neither panic in the metrics
//! layer (NaN-free summaries, no "no NaN" expect) nor in reporting, and
//! the telemetry streams must carry the eviction counts.

use hadar_bench::experiments::{run_scenario_with_telemetry, SchedulerKind};
use hadar_cluster::Cluster;
use hadar_sim::{FailureModel, SimConfig, SimResult, SweepRunner, Telemetry};
use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

#[test]
fn high_failure_sweep_with_zero_completion_cells_does_not_panic() {
    let cluster = Cluster::paper_simulation();
    // 12 rounds is far less than any job's service time, so no cell can
    // complete a job; MTBF of 2 rounds makes evictions near-certain.
    let config = SimConfig {
        max_rounds: 12,
        failure: Some(FailureModel {
            mtbf_rounds: 2.0,
            mttr_rounds: 2.0,
            seed: 5,
        }),
        ..SimConfig::default()
    };

    let mut cells: Vec<Box<dyn FnOnce() -> SimResult + Send>> = Vec::new();
    for seed in [1u64, 2, 3] {
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 6,
                seed,
                pattern: ArrivalPattern::Static,
            },
            cluster.catalog(),
        );
        for kind in SchedulerKind::HEADLINE {
            let (cluster, jobs) = (cluster.clone(), jobs.clone());
            cells.push(Box::new(move || {
                run_scenario_with_telemetry(cluster, jobs, config, kind, Telemetry::enabled())
            }));
        }
    }

    let mut total_evicted = 0u64;
    let mut zero_completion_cells = 0usize;
    for cell in SweepRunner::new(2).run(cells) {
        let out = cell.outcome.expect("cell must not fail");
        assert!(
            out.timed_out,
            "{}: 12 rounds cannot finish a job",
            out.scheduler
        );
        if out.completed_jobs() == 0 {
            zero_completion_cells += 1;
        }
        // The panic-shaped paths: summary stats over an empty/NaN JCT
        // sample, fairness over unfinished jobs, and report helpers.
        let m = out.metrics();
        assert_eq!(m.count, out.completed_jobs());
        let _ = out.ftf();
        let _ = out.queuing_delays();
        let _ = out.demand_weighted_utilization();

        let stream = out.telemetry_stream().expect("stream recorded");
        let report = hadar_metrics::validate_telemetry_jsonl(stream)
            .unwrap_or_else(|e| panic!("{}: invalid stream: {e}", out.scheduler));
        assert_eq!(report.completed, out.completed_jobs() as u64);
        assert_eq!(report.evicted, out.telemetry_summary().evicted);
        total_evicted += report.evicted;
    }
    assert!(
        zero_completion_cells > 0,
        "test premise: some cell completes nothing"
    );
    assert!(total_evicted > 0, "mtbf=2 rounds must evict something");
}
