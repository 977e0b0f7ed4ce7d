//! Tests of §III-A's generality claim: plugging a different utility into
//! the same optimization framework actually steers the cluster toward that
//! objective.

use hadar::core::{FtfUtility, UtilityKind};
use hadar::prelude::*;

fn run_with_utility(utility: UtilityKind, n: usize, seed: u64) -> SimOutcome {
    let cluster = Cluster::paper_simulation();
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: n,
            seed,
            pattern: ArrivalPattern::Static,
        },
        cluster.catalog(),
    );
    Simulation::new(cluster, jobs, SimConfig::default())
        .run(HadarScheduler::new(HadarConfig::with_utility(utility)))
        .unwrap()
}

#[test]
fn makespan_objective_completes_and_stays_competitive() {
    let default = run_with_utility(UtilityKind::EffectiveThroughput, 40, 42);
    let makespan = run_with_utility(UtilityKind::MinMakespan, 40, 42);
    assert_eq!(makespan.completed_jobs(), 40);
    // The makespan-objective schedule must not *worsen* makespan
    // meaningfully relative to the JCT-objective one.
    assert!(
        makespan.makespan() <= default.makespan() * 1.10,
        "makespan objective produced {:.1}h vs default {:.1}h",
        makespan.makespan() / 3600.0,
        default.makespan() / 3600.0
    );
}

#[test]
fn ftf_objective_improves_worst_case_fairness() {
    let default = run_with_utility(UtilityKind::EffectiveThroughput, 40, 7);
    let cluster = Cluster::paper_simulation();
    let fair = run_with_utility(UtilityKind::Ftf(FtfUtility::new(cluster, 40)), 40, 7);
    assert_eq!(fair.completed_jobs(), 40);
    // The FTF objective should not degrade the tail fairness (max ρ).
    assert!(
        fair.ftf().max <= default.ftf().max * 1.25,
        "FTF objective: max ρ {:.3} vs default {:.3}",
        fair.ftf().max,
        default.ftf().max
    );
}

#[test]
fn all_shipped_utilities_are_schedulable() {
    let cluster = Cluster::paper_simulation();
    let utilities = vec![
        UtilityKind::EffectiveThroughput,
        UtilityKind::MinMakespan,
        UtilityKind::Ftf(FtfUtility::new(cluster, 12)),
    ];
    for u in utilities {
        let out = run_with_utility(u, 12, 3);
        assert_eq!(out.completed_jobs(), 12);
        assert!(!out.timed_out);
    }
}
