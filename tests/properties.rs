//! Randomized workspace tests: for randomly generated clusters and traces
//! (seeded, fully deterministic), every scheduler completes every job
//! without ever tripping the engine's capacity/gang validation, and derived
//! metrics stay in their domains.

use hadar_rng::{Rng, StdRng};

use hadar::baselines::{GavelScheduler, TiresiasScheduler, YarnCsScheduler};
use hadar::prelude::*;
use hadar::sim::{PreemptionPenalty, Scheduler};
use hadar::workload::DlTask;

/// A random small heterogeneous cluster: 2–5 machines, 1–4 GPUs each,
/// drawn from the three simulation GPU types (at least one V100 machine so
/// every model can run somewhere).
fn random_cluster(rng: &mut StdRng) -> Cluster {
    let mut b = ClusterBuilder::new();
    let types = [b.gpu_type("V100"), b.gpu_type("P100"), b.gpu_type("K80")];
    b.machine(&[(types[0], 2)]); // guaranteed V100 capacity
    let extra = rng.gen_range_usize(1..5);
    for _ in 0..extra {
        let t = rng.gen_range_usize(0..3);
        let n = rng.gen_range_usize(1..5) as u32;
        b.machine(&[(types[t], n)]);
    }
    b.build()
}

/// Random job specs `(model, gang, epochs, arrival)` that are guaranteed
/// schedulable on any [`random_cluster`] (gang sizes 1–2 always fit the
/// guaranteed V100 machine).
fn random_specs(rng: &mut StdRng, max_jobs: usize) -> Vec<(usize, u32, u64, f64)> {
    let n = rng.gen_range_usize(1..max_jobs + 1);
    (0..n)
        .map(|_| {
            (
                rng.gen_range_usize(0..5),
                rng.gen_range_usize(1..3) as u32,
                rng.gen_range_usize(1..9) as u64,
                rng.gen_range_f64(0.0..7200.0),
            )
        })
        .collect()
}

fn materialize(cluster: &Cluster, specs: &[(usize, u32, u64, f64)]) -> Vec<Job> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(model_idx, gang, epochs, arrival))| {
            Job::for_model(
                JobId(i as u32),
                DlTask::ALL[model_idx],
                cluster.catalog(),
                arrival,
                gang,
                epochs,
            )
        })
        .collect()
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(HadarScheduler::new(HadarConfig::default())),
        Box::new(GavelScheduler::paper_default()),
        Box::new(TiresiasScheduler::paper_default()),
        Box::new(YarnCsScheduler::new()),
    ]
}

/// Every scheduler finishes every randomly generated workload — the
/// engine's internal validation (capacity 1d, gang 1e) would panic on
/// any constraint violation along the way.
#[test]
fn schedulers_complete_random_workloads() {
    let mut rng = StdRng::seed_from_u64(0x11);
    for case in 0..24 {
        let cluster = random_cluster(&mut rng);
        let specs = random_specs(&mut rng, 8);
        let jobs = materialize(&cluster, &specs);
        for s in schedulers() {
            let name = s.name().to_owned();
            let config = SimConfig {
                penalty: PreemptionPenalty::Fixed(10.0),
                max_rounds: 500_000,
                ..SimConfig::default()
            };
            let out = Simulation::new(cluster.clone(), jobs.clone(), config)
                .run(s)
                .unwrap();
            assert_eq!(out.completed_jobs(), jobs.len(), "case {case}: {name}");
            assert!(!out.timed_out, "case {case}: {name}");
            // Lifecycle oracle: arrivals/starts/migrations/completions in a
            // legal order for every job.
            if let Err(e) = hadar::sim::check_lifecycle(out.events(), jobs.len()) {
                panic!("case {case}: {name}: {e}");
            }
        }
    }
}

/// Metric domains: JCT ≥ best-case runtime, utilizations within [0,1],
/// queuing delay non-negative, FTF finite and positive.
#[test]
fn metric_domains_hold() {
    let mut rng = StdRng::seed_from_u64(0x22);
    for case in 0..24 {
        let cluster = random_cluster(&mut rng);
        let specs = random_specs(&mut rng, 6);
        let jobs = materialize(&cluster, &specs);
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(HadarScheduler::new(HadarConfig::default()))
            .unwrap();
        for rec in &out.records {
            let jct = rec.jct().expect("completed");
            assert!(
                jct >= rec.job.min_runtime() - 1e-6,
                "case {case}: job {} finished faster than physics allows",
                rec.job.id
            );
            assert!(
                rec.queuing_delay().expect("scheduled") >= 0.0,
                "case {case}"
            );
        }
        for u in [
            out.gpu_utilization(),
            out.demand_weighted_utilization(),
            out.held_utilization(),
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "case {case}: {u}");
        }
        for rho in out.ftf_values() {
            assert!(rho.is_finite() && rho >= 0.0, "case {case}");
        }
    }
}

/// The engine's accounting is conservative: busy GPU-seconds never
/// exceed held GPU-seconds, and held never exceeds cluster capacity. The
/// round records agree with themselves and the outcome: the per-type split
/// sums to the held GPU-seconds, per-round completions sum to the finished
/// jobs, and no more jobs arrive than the trace holds.
#[test]
fn gpu_second_accounting() {
    let mut rng = StdRng::seed_from_u64(0x33);
    for case in 0..24 {
        let cluster = random_cluster(&mut rng);
        let specs = random_specs(&mut rng, 6);
        let jobs = materialize(&cluster, &specs);
        let total = cluster.total_gpus() as f64;
        let num_jobs = jobs.len();
        let out = Simulation::new(cluster, jobs, SimConfig::default())
            .run(TiresiasScheduler::paper_default())
            .unwrap();
        for round in &out.rounds {
            assert!(
                round.busy_gpu_seconds <= round.held_gpu_seconds + 1e-6,
                "case {case}"
            );
            assert!(
                round.held_gpu_seconds <= total * out.round_length + 1e-6,
                "case {case}"
            );
            // The per-type split accounts for every held GPU-second.
            let allocated: u32 = round.util_by_type.iter().sum();
            assert!(
                (f64::from(allocated) * out.round_length - round.held_gpu_seconds).abs() < 1e-6,
                "case {case}: util_by_type {:?} vs held {}",
                round.util_by_type,
                round.held_gpu_seconds
            );
        }
        let completed: u32 = out.rounds.iter().map(|r| r.completed).sum();
        assert_eq!(completed as usize, out.completed_jobs(), "case {case}");
        let arrivals: u32 = out.rounds.iter().map(|r| r.arrivals).sum();
        assert!(arrivals as usize <= num_jobs, "case {case}");
    }
}

/// Straggler injection never breaks completion or the lifecycle log,
/// and outcomes remain deterministic under equal straggler seeds.
#[test]
fn straggler_injection_is_safe_and_deterministic() {
    use hadar::sim::StragglerModel;
    let mut rng = StdRng::seed_from_u64(0x44);
    for case in 0..12 {
        let cluster = random_cluster(&mut rng);
        let specs = random_specs(&mut rng, 5);
        let sseed = rng.gen_range_usize(0..50) as u64;
        let jobs = materialize(&cluster, &specs);
        let config = SimConfig {
            straggler: Some(StragglerModel {
                incidence: 0.1,
                slowdown: 0.5,
                mean_duration_rounds: 3.0,
                seed: sseed,
            }),
            ..SimConfig::default()
        };
        let run = || {
            Simulation::new(cluster.clone(), jobs.clone(), config)
                .run(HadarScheduler::new(HadarConfig::default()))
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed_jobs(), jobs.len(), "case {case}");
        assert_eq!(a.jcts(), b.jcts(), "case {case}");
        assert!(
            hadar::sim::check_lifecycle(a.events(), jobs.len()).is_ok(),
            "case {case}"
        );
    }
}

/// Attaching a rack topology never breaks completion and can only slow
/// jobs down relative to the flat network (the rack tier is a pure
/// penalty).
#[test]
fn rack_topology_is_a_pure_penalty() {
    use hadar::cluster::RackTopology;
    let mut rng = StdRng::seed_from_u64(0x55);
    for case in 0..12 {
        let specs = random_specs(&mut rng, 5);
        let per_rack = rng.gen_range_usize(1..4);
        let flat = {
            let mut b = ClusterBuilder::new();
            let types = [b.gpu_type("V100"), b.gpu_type("P100"), b.gpu_type("K80")];
            b.machine(&[(types[0], 2)]);
            for t in types {
                b.machine(&[(t, 2)]);
            }
            b.build()
        };
        let racked = flat
            .clone()
            .with_racks(RackTopology::uniform(flat.num_machines(), per_rack));
        let jobs = materialize(&flat, &specs);
        let run = |cluster: Cluster| {
            Simulation::new(cluster, jobs.clone(), SimConfig::default())
                .run(HadarScheduler::new(HadarConfig::default()))
                .unwrap()
        };
        let (f, r) = (run(flat), run(racked));
        assert_eq!(f.completed_jobs(), jobs.len(), "case {case}");
        assert_eq!(r.completed_jobs(), jobs.len(), "case {case}");
        // The racked cluster's makespan is never meaningfully shorter
        // (allow one round of scheduling butterfly effects).
        assert!(
            r.makespan() >= f.makespan() * 0.95 - 360.0,
            "case {case}: rack tier sped things up: {} vs {}",
            r.makespan(),
            f.makespan()
        );
    }
}
