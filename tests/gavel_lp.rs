//! Oracle test for Gavel's policy LP: the transportation solver
//! (`max_total_throughput_allocation`) against the general revised simplex
//! (`total_throughput_lp(..).solve()`), which shares no code with it, on
//! seeded `generate_trace` instances and hand-built edge cases.
//!
//! Every instance must give the same optimal objective (1e-9 relative), a
//! feasible `Y` (violation ≤ 1e-9), an integral `W_j · Y_jr`, and the same
//! bits when solved twice.

use hadar_rng::{Rng, StdRng};

use hadar::prelude::*;
use hadar::solver::gavel::feasibility_violation;
use hadar::solver::{
    max_total_throughput_allocation, total_throughput_lp, GavelLpError, GavelLpInput,
};

fn objective(input: &GavelLpInput, y: &[Vec<f64>]) -> f64 {
    y.iter()
        .zip(&input.throughput)
        .zip(&input.gang)
        .map(|((yr, xr), &w)| yr.iter().zip(xr).map(|(a, b)| a * b).sum::<f64>() * f64::from(w))
        .sum()
}

fn check(name: &str, input: &GavelLpInput) {
    let y = max_total_throughput_allocation(input).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(y.len(), input.gang.len(), "{name}: row count");
    let violation = feasibility_violation(input, &y);
    assert!(violation <= 1e-9, "{name}: violation {violation}");
    for (j, row) in y.iter().enumerate() {
        assert_eq!(row.len(), input.capacity.len(), "{name}: row {j} length");
        let w = f64::from(input.gang[j]);
        for (r, &v) in row.iter().enumerate() {
            let units = w * v;
            assert!(
                (units - units.round()).abs() <= 1e-9,
                "{name}: W·Y[{j}][{r}] = {units} is not integral"
            );
            if input.gang[j] == 0 {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{name}: gang-0 row {j}");
            }
        }
    }
    let again = max_total_throughput_allocation(input).expect("same input");
    let bits = |y: &[Vec<f64>]| -> Vec<u64> { y.iter().flatten().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&y), bits(&again), "{name}: not bit-identical");

    let lp = total_throughput_lp(input)
        .expect("well-formed")
        .solve()
        .optimal()
        .unwrap_or_else(|| panic!("{name}: the simplex found no optimum"));
    let ours = objective(input, &y);
    let scale = ours.abs().max(lp.objective.abs());
    assert!(
        (ours - lp.objective).abs() <= 1e-9 * scale,
        "{name}: transportation {ours} vs simplex {}",
        lp.objective
    );
}

/// The first-round policy LP of a static trace on `cluster`, with each
/// type's capacity passed through `cap`.
fn trace_input(
    cluster: &Cluster,
    jobs: usize,
    seed: u64,
    cap: impl Fn(u32) -> u32,
) -> GavelLpInput {
    let trace = generate_trace(
        &TraceConfig {
            num_jobs: jobs,
            seed,
            pattern: ArrivalPattern::Static,
        },
        cluster.catalog(),
    );
    let types: Vec<GpuTypeId> = (0..cluster.num_types())
        .map(|r| GpuTypeId(r as u16))
        .collect();
    GavelLpInput {
        throughput: trace
            .iter()
            .map(|j| types.iter().map(|&t| j.profile.rate(t)).collect())
            .collect(),
        gang: trace.iter().map(|j| j.gang).collect(),
        capacity: types
            .iter()
            .map(|&t| cap(cluster.total_of_type(t)))
            .collect(),
    }
}

#[test]
fn transportation_matches_simplex_on_generated_traces() {
    let clusters = [
        Cluster::paper_simulation(),
        Cluster::scaled(1),
        Cluster::scaled(4),
    ];
    let mut cases = 0;
    for (c, cluster) in clusters.iter().enumerate() {
        for jobs in [1, 2, 7, 24, 96] {
            for seed in 0..4u64 {
                let full = trace_input(cluster, jobs, seed, |c| c);
                check(&format!("cluster {c}, {jobs} jobs, seed {seed}"), &full);
                let scarce = trace_input(cluster, jobs, seed, |c| c / 8);
                check(
                    &format!("scarce cluster {c}, {jobs} jobs, seed {seed}"),
                    &scarce,
                );
                let fragmented = trace_input(cluster, jobs, seed, |c| (c % 7) | 1);
                check(
                    &format!("fragmented cluster {c}, {jobs} jobs, seed {seed}"),
                    &fragmented,
                );
                cases += 3;
            }
        }
    }
    // Fig. 7's 256-job point, once.
    check(
        "scaled 256 jobs",
        &trace_input(&Cluster::scaled(8), 256, 7, |c| c),
    );
    assert_eq!(cases, 180);
}

/// Trace throughputs come from a small catalog; random real-valued rows
/// (some zero or negative, many repeated, up to five types) probe ties and
/// rounding.
#[test]
fn transportation_matches_simplex_on_random_rows() {
    let mut rng = StdRng::seed_from_u64(0x6A7E1);
    for case in 0..300 {
        let types = rng.gen_range_usize(1..6);
        let jobs = rng.gen_range_usize(0..40);
        let distinct: Vec<Vec<f64>> = (0..rng.gen_range_usize(1..6))
            .map(|_| {
                (0..types)
                    .map(|_| match rng.gen_range_usize(0..5) {
                        0 => 0.0,
                        _ => rng.gen_range_f64(-2.0..30.0),
                    })
                    .collect()
            })
            .collect();
        let input = GavelLpInput {
            throughput: (0..jobs)
                .map(|_| distinct[rng.gen_range_usize(0..distinct.len())].clone())
                .collect(),
            gang: (0..jobs)
                .map(|_| rng.gen_range_usize(0..9) as u32)
                .collect(),
            capacity: (0..types)
                .map(|_| rng.gen_range_usize(0..20) as u32)
                .collect(),
        };
        check(&format!("random case {case}"), &input);
    }
}

#[test]
fn edge_cases_match_simplex() {
    let cases = [
        (
            "zero-throughput rows",
            GavelLpInput {
                throughput: vec![vec![0.0, 0.0, 0.0], vec![3.0, 2.0, 1.0], vec![0.0; 3]],
                gang: vec![1, 2, 4],
                capacity: vec![2, 2, 2],
            },
        ),
        (
            "all rows zero",
            GavelLpInput {
                throughput: vec![vec![0.0, 0.0]; 3],
                gang: vec![1, 1, 1],
                capacity: vec![1, 1],
            },
        ),
        (
            "gangs larger than any type",
            GavelLpInput {
                throughput: vec![
                    vec![8.0, 5.0, 1.0],
                    vec![6.0, 6.0, 2.0],
                    vec![1.0, 9.0, 3.0],
                ],
                gang: vec![16, 12, 9],
                capacity: vec![4, 3, 2],
            },
        ),
        (
            "single type",
            GavelLpInput {
                throughput: vec![vec![2.0], vec![5.0], vec![5.0], vec![1.0]],
                gang: vec![2, 3, 1, 4],
                capacity: vec![5],
            },
        ),
        (
            "zero jobs",
            GavelLpInput {
                throughput: vec![],
                gang: vec![],
                capacity: vec![4, 4, 4],
            },
        ),
        (
            "gang-0 rows",
            GavelLpInput {
                throughput: vec![vec![9.0, 4.0], vec![7.0, 7.0], vec![3.0, 8.0]],
                gang: vec![0, 2, 0],
                capacity: vec![1, 3],
            },
        ),
        (
            "zero capacity",
            GavelLpInput {
                throughput: vec![vec![4.0, 1.0], vec![2.0, 2.0]],
                gang: vec![1, 1],
                capacity: vec![0, 0],
            },
        ),
        (
            // Greedy placement earns 18.5; the optimum (26.5) needs job 1
            // to displace job 0 from type 0, which displaces job 2 from
            // type 1 to type 2.
            "re-routing chain",
            GavelLpInput {
                throughput: vec![
                    vec![10.0, 9.0, 0.0],
                    vec![9.5, 0.0, 0.0],
                    vec![0.0, 8.5, 8.0],
                ],
                gang: vec![1, 1, 1],
                capacity: vec![1, 1, 1],
            },
        ),
    ];
    for (name, input) in &cases {
        check(name, input);
    }
    // Gang-0 rows are all zero and never NaN (no 0/0).
    let y = max_total_throughput_allocation(&cases[5].1).unwrap();
    assert_eq!(y[0], vec![0.0, 0.0]);
    assert_eq!(y[2], vec![0.0, 0.0]);
}

#[test]
fn malformed_input_returns_every_error_variant() {
    let gang_mismatch = GavelLpInput {
        throughput: vec![vec![1.0], vec![2.0]],
        gang: vec![1],
        capacity: vec![1],
    };
    let ragged = GavelLpInput {
        throughput: vec![vec![1.0, 2.0], vec![3.0]],
        gang: vec![1, 1],
        capacity: vec![2, 2],
    };
    let infinite = GavelLpInput {
        throughput: vec![vec![1.0, 1.0], vec![f64::INFINITY, 0.0]],
        gang: vec![1, 1],
        capacity: vec![1, 1],
    };
    let nan = GavelLpInput {
        throughput: vec![vec![1.0, f64::NAN]],
        gang: vec![1],
        capacity: vec![1, 1],
    };
    let expected = [
        (
            &gang_mismatch,
            GavelLpError::GangLengthMismatch {
                jobs: 2,
                gang_len: 1,
            },
        ),
        (
            &ragged,
            GavelLpError::ThroughputRowMismatch {
                row: 1,
                len: 1,
                expected: 2,
            },
        ),
        (
            &infinite,
            GavelLpError::NonFiniteThroughput { row: 1, col: 0 },
        ),
        (&nan, GavelLpError::NonFiniteThroughput { row: 0, col: 1 }),
    ];
    for (input, err) in expected {
        assert_eq!(max_total_throughput_allocation(input), Err(err.clone()));
        assert_eq!(total_throughput_lp(input).map(|_| ()), Err(err));
    }
}
