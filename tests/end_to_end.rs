//! Cross-crate integration tests: the full pipeline (trace generation →
//! scheduler → simulator → metrics) for every policy, plus the paper's
//! comparative claims in miniature.

use hadar::baselines::{GavelScheduler, TiresiasScheduler, YarnCsScheduler};
use hadar::prelude::*;
use hadar::sim::Scheduler;

fn trace(n: usize, seed: u64, pattern: ArrivalPattern) -> (Cluster, Vec<Job>) {
    let cluster = Cluster::paper_simulation();
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: n,
            seed,
            pattern,
        },
        cluster.catalog(),
    );
    (cluster, jobs)
}

fn run_with(cluster: Cluster, jobs: Vec<Job>, s: Box<dyn Scheduler>) -> SimOutcome {
    Simulation::new(cluster, jobs, SimConfig::default())
        .run(s)
        .expect("valid policy and config")
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(HadarScheduler::new(HadarConfig::default())),
        Box::new(GavelScheduler::paper_default()),
        Box::new(TiresiasScheduler::paper_default()),
        Box::new(YarnCsScheduler::new()),
    ]
}

#[test]
fn every_scheduler_completes_static_and_continuous_traces() {
    for pattern in [ArrivalPattern::Static, ArrivalPattern::paper_continuous()] {
        for s in all_schedulers() {
            let name = s.name().to_owned();
            let (cluster, jobs) = trace(24, 3, pattern);
            let out = run_with(cluster, jobs, s);
            assert_eq!(out.completed_jobs(), 24, "{name} under {pattern:?}");
            assert!(!out.timed_out, "{name}");
            // Sanity on derived metrics.
            assert!(out.mean_jct() > 0.0, "{name}");
            assert!(out.makespan() >= out.metrics().max, "{name}");
            let u = out.demand_weighted_utilization();
            assert!((0.0..=1.0).contains(&u), "{name}: util {u}");
            assert!(out.ftf().mean > 0.0, "{name}");
        }
    }
}

#[test]
fn every_scheduler_survives_machine_failures_with_valid_lifecycles() {
    // Fault injection across the whole policy suite: every event stream
    // stays lifecycle-valid (evictions only on started jobs, machine events
    // interleave consistently), every trace still completes, and the same
    // failure seed reproduces the identical outcome.
    let model = FailureModel {
        mtbf_rounds: 25.0,
        mttr_rounds: 4.0,
        seed: 13,
    };
    let config = SimConfig {
        failure: Some(model),
        ..SimConfig::default()
    };
    for s in all_schedulers() {
        let name = s.name().to_owned();
        let (cluster, jobs) = trace(16, 5, ArrivalPattern::Static);
        let n = jobs.len();
        let out = Simulation::new(cluster, jobs, config)
            .run(s)
            .expect("valid policy and config");
        assert_eq!(out.completed_jobs(), n, "{name}");
        hadar::sim::check_lifecycle(out.events(), n).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            out.machine_failures() > 0,
            "{name}: failure model never fired"
        );
    }
    // Determinism under a fixed failure seed, across all schedulers.
    for (a, b) in all_schedulers().into_iter().zip(all_schedulers()) {
        let name = a.name().to_owned();
        let run = |s: Box<dyn Scheduler>| {
            let (cluster, jobs) = trace(16, 5, ArrivalPattern::Static);
            Simulation::new(cluster, jobs, config).run(s).unwrap()
        };
        let (x, y) = (run(a), run(b));
        assert_eq!(x.jcts(), y.jcts(), "{name}: JCTs diverged");
        assert_eq!(x.evictions(), y.evictions(), "{name}: evictions diverged");
    }
}

#[test]
fn hadar_beats_every_baseline_on_mean_jct() {
    // The paper's headline claim, in miniature: on the 60-GPU cluster with a
    // mixed static trace, Hadar's mean JCT beats Gavel, Tiresias, and
    // YARN-CS.
    let (cluster, jobs) = trace(60, 42, ArrivalPattern::Static);
    let hadar = run_with(
        cluster.clone(),
        jobs.clone(),
        Box::new(HadarScheduler::new(HadarConfig::default())),
    );
    for baseline in [
        Box::new(GavelScheduler::paper_default()) as Box<dyn Scheduler>,
        Box::new(TiresiasScheduler::paper_default()),
        Box::new(YarnCsScheduler::new()),
    ] {
        let name = baseline.name().to_owned();
        let out = run_with(cluster.clone(), jobs.clone(), baseline);
        assert!(
            hadar.mean_jct() < out.mean_jct(),
            "Hadar {:.1}h !< {name} {:.1}h",
            hadar.mean_jct() / 3600.0,
            out.mean_jct() / 3600.0
        );
    }
}

#[test]
fn hadar_beats_gavel_on_ftf_and_utilization() {
    let (cluster, jobs) = trace(60, 42, ArrivalPattern::Static);
    let hadar = run_with(
        cluster.clone(),
        jobs.clone(),
        Box::new(HadarScheduler::new(HadarConfig::default())),
    );
    let gavel = run_with(cluster, jobs, Box::new(GavelScheduler::paper_default()));
    assert!(hadar.ftf().mean < gavel.ftf().mean, "FTF regressed");
    assert!(
        hadar.demand_weighted_utilization() > gavel.demand_weighted_utilization(),
        "utilization regressed"
    );
}

#[test]
fn hadar_shortens_queuing_delay_vs_gavel() {
    // §I: "shortens the queuing delay by 13%" — direction check.
    let (cluster, jobs) = trace(60, 42, ArrivalPattern::paper_continuous());
    let hadar = run_with(
        cluster.clone(),
        jobs.clone(),
        Box::new(HadarScheduler::new(HadarConfig::default())),
    );
    let gavel = run_with(cluster, jobs, Box::new(GavelScheduler::paper_default()));
    assert!(
        hadar.queuing_delays().mean < gavel.queuing_delays().mean,
        "Hadar queuing delay {:.2}h !< Gavel {:.2}h",
        hadar.queuing_delays().mean / 3600.0,
        gavel.queuing_delays().mean / 3600.0
    );
}

#[test]
fn task_level_mixing_rescues_fragmented_cluster() {
    // A gang that no single GPU type can host: Hadar must still run it.
    let mut b = ClusterBuilder::new();
    let v100 = b.gpu_type("V100");
    let p100 = b.gpu_type("P100");
    b.machine(&[(v100, 1)]);
    b.machine(&[(p100, 1)]);
    let cluster = b.build();
    let job = Job::for_model(
        JobId(0),
        hadar::workload::DlTask::ResNet18,
        cluster.catalog(),
        0.0,
        2, // needs both GPUs, necessarily mixed
        20,
    );
    let hadar = run_with(
        cluster.clone(),
        vec![job.clone()],
        Box::new(HadarScheduler::new(HadarConfig::default())),
    );
    assert_eq!(hadar.completed_jobs(), 1);
    // Gavel never mixes: the job can never be placed. It must time out.
    let config = SimConfig {
        max_rounds: 50,
        ..SimConfig::default()
    };
    let gavel = Simulation::new(cluster, vec![job], config)
        .run(GavelScheduler::paper_default())
        .unwrap();
    assert_eq!(gavel.completed_jobs(), 0);
    assert!(gavel.timed_out);
}

#[test]
fn outcome_reallocation_stat_is_bounded() {
    let (cluster, jobs) = trace(40, 8, ArrivalPattern::Static);
    let out = run_with(
        cluster,
        jobs,
        Box::new(HadarScheduler::new(HadarConfig::default())),
    );
    let rate = out.reallocation_rate();
    assert!((0.0..=1.0).contains(&rate));
    // Hadar's sticky candidates keep churn modest (§IV-A-5 reports ~30%).
    assert!(rate < 0.5, "reallocation rate {rate} suspiciously high");
}

/// All five policies, by name.
fn five_policies() -> Vec<Box<dyn Scheduler>> {
    let mut all = all_schedulers();
    all.push(Box::new(hadar::baselines::SrtfScheduler::new()));
    all
}

#[test]
fn a_gang_the_cluster_can_never_hold_is_a_config_error() {
    // The toy cluster: 2 V100, 3 P100, 1 K80. Each case is
    // (gang, per-type rates): more GPUs than the cluster has, and more than
    // the five of the two types a K80-less job can run on.
    let cluster = Cluster::motivation_toy();
    let cases: [(u32, [f64; 3]); 2] = [(1000, [3.0, 2.0, 1.0]), (6, [3.0, 2.0, 0.0])];
    for (gang, rates) in cases {
        for s in five_policies() {
            let name = s.name().to_owned();
            let profile = ThroughputProfile::from_rates(rates.to_vec());
            let fits = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, 1, 5);
            let big = Job::new(JobId(1), DlTask::ResNet18, 0.0, gang, 1, 100, profile);
            let err = Simulation::new(cluster.clone(), vec![fits, big], SimConfig::default())
                .run(s)
                .unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig(m) if m.contains("job J1 has gang")),
                "{name}, gang {gang}: {err}"
            );
        }
    }
}

#[test]
fn jobs_arriving_at_zero_and_negative_zero_start_in_id_order() {
    // Two 2-GPU jobs on a 2-GPU machine, the higher id arriving at −0.0:
    // the FIFO policies must still start the lower id first.
    let mut b = ClusterBuilder::new();
    let v100 = b.gpu_type("V100");
    b.machine(&[(v100, 2)]);
    let cluster = b.build();
    let job = |id, arrival| {
        Job::for_model(
            JobId(id),
            DlTask::ResNet18,
            cluster.catalog(),
            arrival,
            2,
            30,
        )
    };
    for s in [
        Box::new(YarnCsScheduler::new()) as Box<dyn Scheduler>,
        Box::new(TiresiasScheduler::paper_default()),
    ] {
        let name = s.name().to_owned();
        let out = run_with(cluster.clone(), vec![job(1, -0.0), job(0, 0.0)], s);
        let (s0, s1) = (
            out.records[0].first_scheduled.unwrap(),
            out.records[1].first_scheduled.unwrap(),
        );
        assert!(s0 < s1, "{name}: job 0 started at {s0}, job 1 at {s1}");
    }
}
