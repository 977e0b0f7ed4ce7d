//! Acceptance test for the telemetry subsystem: every policy's JSONL
//! stream validates against schema `hadar.telemetry.v1`, carries that
//! policy's own counters, and recording the stream never perturbs the
//! simulated schedule (the sink is purely observational).

use hadar_bench::experiments::{run_scenario_with_telemetry, SchedulerKind};
use hadar_cluster::Cluster;
use hadar_sim::{SimConfig, SimOutcome, Telemetry};
use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

const NUM_JOBS: usize = 6;

fn run(kind: SchedulerKind, telemetry: Telemetry) -> SimOutcome {
    let cluster = Cluster::paper_simulation();
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: NUM_JOBS,
            seed: 11,
            pattern: ArrivalPattern::Static,
        },
        cluster.catalog(),
    );
    run_scenario_with_telemetry(cluster, jobs, SimConfig::default(), kind, telemetry)
        .expect("valid scenario")
}

/// The five CLI-facing policies and a counter key each must emit.
const POLICY_KEYS: [(SchedulerKind, &str); 5] = [
    (SchedulerKind::Hadar, "hadar."),
    (SchedulerKind::Gavel, "gavel.lp_solves"),
    (SchedulerKind::Tiresias, "tiresias.queue_high"),
    (SchedulerKind::YarnCs, "yarn.running"),
    (SchedulerKind::Srtf, "srtf.placed_"),
];

#[test]
fn every_policy_stream_validates_against_schema() {
    for (kind, key) in POLICY_KEYS {
        let out = run(kind, Telemetry::enabled());
        let stream = out.telemetry_stream().expect("stream recorded");
        let report = hadar_metrics::validate_telemetry_jsonl(stream)
            .unwrap_or_else(|e| panic!("{}: invalid stream: {e}", kind.name()));
        assert!(report.rounds > 0, "{}", kind.name());
        assert_eq!(report.completed, NUM_JOBS as u64, "{}", kind.name());
        assert!(
            stream.contains(key),
            "{} stream missing its policy counter {key:?}",
            kind.name()
        );
        // The outcome's summary agrees with the stream's summary line.
        let summary = out.telemetry_summary();
        let from_stream = (
            report.rounds,
            report.scheduled,
            report.preempted,
            report.evicted,
            report.completed,
        );
        assert_eq!(
            (
                summary.rounds,
                summary.scheduled,
                summary.preempted,
                summary.evicted,
                summary.completed,
            ),
            from_stream,
            "{}",
            kind.name()
        );
    }
}

#[test]
fn observing_sink_never_perturbs_the_schedule() {
    for kind in [
        SchedulerKind::Hadar,
        SchedulerKind::Gavel,
        SchedulerKind::Tiresias,
        SchedulerKind::YarnCs,
        SchedulerKind::Srtf,
    ] {
        let observed = run(kind, Telemetry::enabled());
        let silent = run(kind, Telemetry::disabled());
        assert!(silent.telemetry_stream().is_none());
        // The engine fills its counts with the sink off too; only the
        // policy counters need the sink.
        let on = observed.telemetry_summary();
        let off = silent.telemetry_summary();
        assert!(!on.policy.is_empty(), "{}", kind.name());
        assert!(off.policy.is_empty(), "{}", kind.name());
        assert_eq!(
            hadar_sim::TelemetrySummary {
                policy: Default::default(),
                ..on
            },
            off,
            "{}",
            kind.name()
        );
        assert_eq!(
            observed.makespan(),
            silent.makespan(),
            "{}: makespan changed under observation",
            kind.name()
        );
        assert_eq!(observed.completed_jobs(), silent.completed_jobs());
        for (a, b) in observed.records.iter().zip(silent.records.iter()) {
            assert_eq!(a.finish, b.finish, "{}", kind.name());
            assert_eq!(a.first_scheduled, b.first_scheduled);
            assert_eq!(a.reallocations, b.reallocations);
        }
    }
}
