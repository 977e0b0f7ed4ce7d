//! Golden digests of what the engine and the baselines decide: the event
//! log, every non-timing field of every round record (policy counters
//! included) and the JCTs, for the five policies on one small Poisson trace
//! under four engine configurations. A change to the engine's bookkeeping
//! or to a policy's data structures must leave every digest unchanged; a
//! change that moves decisions on purpose re-records them.

use std::fmt::Write as _;

use hadar::baselines::SrtfScheduler;
use hadar::prelude::*;
use hadar::sim::{Scheduler, StragglerModel, Telemetry};

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Digest of everything a run decides; wall-clock fields are left out.
/// `Debug` prints floats in their exact shortest round-trip form.
fn digest(out: &SimOutcome) -> u64 {
    let mut s = String::new();
    for e in out.events() {
        writeln!(s, "{e:?}").unwrap();
    }
    for r in &out.rounds {
        let flags = r.phases.map(|p| (p.dp_budget_hit, p.reused));
        writeln!(
            s,
            "{:?} {} {} {} {} {} {} {} {} {} {:?} {:?} {} {:?} {flags:?} {:?}",
            r.time,
            r.queue_depth,
            r.running_jobs,
            r.scheduled,
            r.preempted,
            r.evicted,
            r.completed,
            r.arrivals,
            r.reallocations,
            r.demand_gpus,
            r.busy_gpu_seconds,
            r.held_gpu_seconds,
            r.machines_down,
            r.util_by_type,
            r.policy,
        )
        .unwrap();
    }
    writeln!(s, "{:?} {}", out.jcts(), out.timed_out).unwrap();
    fnv1a(s.as_bytes())
}

fn policy(name: &str) -> Box<dyn Scheduler> {
    match name {
        "Hadar" => Box::new(HadarScheduler::new(HadarConfig::default())),
        "Gavel" => Box::new(GavelScheduler::paper_default()),
        "Tiresias" => Box::new(TiresiasScheduler::paper_default()),
        "YARN-CS" => Box::new(YarnCsScheduler::new()),
        "SRTF" => Box::new(SrtfScheduler::new()),
        other => panic!("unknown policy {other}"),
    }
}

/// The four engine configurations: plain; stragglers, which scale each
/// machine's rates every round; failures, which evict jobs off dead
/// machines and mask them from the policies; and both at once, where a
/// straggling machine can also go down.
fn config(name: &str) -> SimConfig {
    match name {
        "plain" => SimConfig::default(),
        "straggler" => SimConfig {
            straggler: Some(StragglerModel {
                incidence: 0.1,
                seed: 5,
                ..StragglerModel::default()
            }),
            ..SimConfig::default()
        },
        "failure" => SimConfig {
            failure: Some(FailureModel {
                mtbf_rounds: 40.0,
                mttr_rounds: 4.0,
                seed: 5,
            }),
            ..SimConfig::default()
        },
        "straggler+failure" => SimConfig {
            straggler: config("straggler").straggler,
            failure: config("failure").failure,
            ..SimConfig::default()
        },
        other => panic!("unknown config {other}"),
    }
}

/// `(policy, config, digest)` for every cell.
const GOLDEN: [(&str, &str, u64); 20] = [
    ("Hadar", "plain", 0x31b94e98cd813032),
    ("Hadar", "straggler", 0x414d448b3da00a9b),
    ("Hadar", "failure", 0xc238a8f3b0449661),
    ("Hadar", "straggler+failure", 0xd9e63b3d237f2762),
    ("Gavel", "plain", 0xf6a75cb0a03cf4d6),
    ("Gavel", "straggler", 0xe48a26685ef2bfb2),
    ("Gavel", "failure", 0x3ccbe6ef62c731fd),
    ("Gavel", "straggler+failure", 0x6484d76d533df385),
    ("Tiresias", "plain", 0xe7c1d5e3653646a4),
    ("Tiresias", "straggler", 0xa69090b035b81aa5),
    ("Tiresias", "failure", 0x5f17a26985d8b8f0),
    ("Tiresias", "straggler+failure", 0x3c88fe33abfcd269),
    ("YARN-CS", "plain", 0x4fec4ccdc2569f5e),
    ("YARN-CS", "straggler", 0x79b54c61053596f9),
    ("YARN-CS", "failure", 0x803e7fc899616f9e),
    ("YARN-CS", "straggler+failure", 0xc80354f750585414),
    ("SRTF", "plain", 0xfaef32a4126c7b21),
    ("SRTF", "straggler", 0xaa118e6877fe4284),
    ("SRTF", "failure", 0x2384c797f8511607),
    ("SRTF", "straggler+failure", 0x1bc7e02c237181b6),
];

#[test]
fn decisions_match_recorded_digests() {
    // The paper's three GPU types on 24 GPUs instead of 60, so that jobs
    // queue behind running ones: waiting jobs are what the engine's round
    // skips, and the digests must not care.
    let cluster = Cluster::scaled(2);
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: 32,
            seed: 11,
            pattern: ArrivalPattern::paper_continuous(),
        },
        cluster.catalog(),
    );
    let mut evictions = 0;
    let mut got = Vec::new();
    for (p, c, _) in GOLDEN {
        let out = Simulation::new(cluster.clone(), jobs.clone(), config(c))
            .run_with_telemetry(policy(p), Telemetry::enabled())
            .unwrap_or_else(|e| panic!("{p}/{c}: {e}"));
        assert_eq!(out.completed_jobs(), jobs.len(), "{p}/{c}");
        evictions += out.evictions();
        got.push((p, c, digest(&out)));
    }
    assert!(evictions > 0, "the failure config never evicted a job");
    let want: Vec<_> = GOLDEN.to_vec();
    assert_eq!(got, want);
}
