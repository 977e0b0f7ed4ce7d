//! Gavel's max-total-throughput policy LP, solved as the transportation
//! problem it is.
//!
//! Gavel models its policy as an optimization over an allocation matrix
//! `Y[j][r] ∈ [0,1]`, the fraction of wall-clock time job `j` should spend
//! on GPU type `r`. The paper configures it "keeping the objective of its
//! optimization problem similar to ours":
//!
//! ```text
//! max Σ_j Σ_r X_jr · W_j · Y_jr   s.t.  Σ_r Y_jr ≤ 1,  Σ_j W_j · Y_jr ≤ C_r,  Y ≥ 0
//! ```
//!
//! Substituting `Z_jr = W_j · Y_jr` turns it into a transportation problem:
//! job `j` supplies `W_j` units, type `r` absorbs `C_r`, and each unit
//! routed `j → r` earns `X_jr`. `W` and `C` are integers, so an integral
//! optimal `Z` exists. [`max_total_throughput_allocation`] finds one with
//! max-profit augmenting paths (successive longest paths). A path enters
//! type `r₀` with a job that still has supply, may re-route one unit of a
//! job already on `r₀` to `r₁` (and so on, each type at most once), and
//! ends at a type with room left. On the condensed graph over the `R` types
//! the best entry into each type is the top of one max-heap per type, and
//! the best re-route between two types the top of one max-heap per ordered
//! pair, keyed by the gain `X_k,r₁ − X_k,r₀`. Each augmentation fills a
//! type or exhausts a job, so there are at most `Σ_r C_r` of them.
//!
//! [`total_throughput_lp`] states the same LP for the general revised
//! simplex ([`crate::LpProblem`]), which shares no code with the
//! transportation solver: tests use it as the oracle, and Fig. 7 as the
//! yardstick of what a general LP solver pays.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::simplex::{LpProblem, Relation};

/// Input to the Gavel LP: one row per job, one column per GPU type.
#[derive(Debug, Clone)]
pub struct GavelLpInput {
    /// `throughput[j][r]` = `X_j^r` iterations/sec per worker. All rows must
    /// have the same length `R`.
    pub throughput: Vec<Vec<f64>>,
    /// Gang size `W_j` per job.
    pub gang: Vec<u32>,
    /// Cluster capacity `C_r` per type.
    pub capacity: Vec<u32>,
}

/// Why a Gavel LP input is malformed. Returned instead of aborting, so a
/// malformed instance fails one scheduling decision rather than a whole
/// sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GavelLpError {
    /// `gang` has a different length than `throughput`.
    GangLengthMismatch {
        /// Number of throughput rows (jobs).
        jobs: usize,
        /// Length of the gang vector.
        gang_len: usize,
    },
    /// A throughput row disagrees with `capacity.len()`.
    ThroughputRowMismatch {
        /// Offending row index.
        row: usize,
        /// Its length.
        len: usize,
        /// Expected length (number of GPU types).
        expected: usize,
    },
    /// A throughput entry is NaN or infinite.
    NonFiniteThroughput {
        /// Row (job) index.
        row: usize,
        /// Column (GPU type) index.
        col: usize,
    },
}

impl fmt::Display for GavelLpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GavelLpError::GangLengthMismatch { jobs, gang_len } => {
                write!(f, "gang length {gang_len} != {jobs} throughput rows")
            }
            GavelLpError::ThroughputRowMismatch { row, len, expected } => {
                write!(
                    f,
                    "throughput row {row} has length {len}, expected {expected}"
                )
            }
            GavelLpError::NonFiniteThroughput { row, col } => {
                write!(f, "throughput[{row}][{col}] is not finite")
            }
        }
    }
}

impl std::error::Error for GavelLpError {}

impl GavelLpInput {
    /// Check shape and finiteness; returns `(num_jobs, num_types)`.
    pub fn validate(&self) -> Result<(usize, usize), GavelLpError> {
        let j = self.throughput.len();
        if self.gang.len() != j {
            return Err(GavelLpError::GangLengthMismatch {
                jobs: j,
                gang_len: self.gang.len(),
            });
        }
        let r = self.capacity.len();
        for (row, t) in self.throughput.iter().enumerate() {
            if t.len() != r {
                return Err(GavelLpError::ThroughputRowMismatch {
                    row,
                    len: t.len(),
                    expected: r,
                });
            }
            if let Some(col) = t.iter().position(|x| !x.is_finite()) {
                return Err(GavelLpError::NonFiniteThroughput { row, col });
            }
        }
        Ok((j, r))
    }
}

/// Solve the max-total-effective-throughput LP exactly. Returns `Y` as a
/// `J×R` matrix with every `W_j · Y_jr` integral (a gang-0 job gets a zero
/// row), or a [`GavelLpError`] on malformed input.
///
/// Ties are broken deterministically: among jobs, higher profit first, then
/// lower job index; among paths, the lower type index.
pub fn max_total_throughput_allocation(
    input: &GavelLpInput,
) -> Result<Vec<Vec<f64>>, GavelLpError> {
    let (num_jobs, num_types) = input.validate()?;
    let mut t = Transport::new(input);
    while let Some(path) = t.best_path() {
        t.augment(&path);
    }
    Ok((0..num_jobs)
        .map(|j| {
            let w = f64::from(input.gang[j]);
            (0..num_types)
                .map(|r| match t.z[j * num_types + r] {
                    // A gang-0 job never holds units; skip its 0/0.
                    0 => 0.0,
                    z => z as f64 / w,
                })
                .collect()
        })
        .collect())
}

/// A heap entry: `job` with priority `gain`. The greatest entry has the
/// highest gain, then the lowest job index.
struct Cand {
    gain: f64,
    job: usize,
}

impl Cand {
    fn new(gain: f64, job: usize) -> Self {
        // `+ 0.0` folds −0.0 into +0.0, so equal gains tie on job index.
        Self {
            gain: gain + 0.0,
            job,
        }
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then(other.job.cmp(&self.job))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Cand {}

/// An augmenting path on the condensed type graph: `entry` job enters type
/// `types[0]`; `movers[i]` moves one unit from `types[i]` to `types[i + 1]`;
/// the path ends at the last type, which has room.
#[derive(Clone)]
struct Path {
    profit: f64,
    entry: usize,
    types: Vec<usize>,
    movers: Vec<usize>,
}

/// Residual state of the transportation problem. Heaps hold stale entries
/// (an exhausted job, a job no longer on a type); they are dropped when
/// they reach the top.
struct Transport<'a> {
    x: &'a [Vec<f64>],
    types: usize,
    /// Units job `j` has not yet placed.
    supply: Vec<u64>,
    /// Units type `r` can still absorb.
    room: Vec<u64>,
    /// `z[j * types + r]`: units of job `j` on type `r`.
    z: Vec<u64>,
    /// Per type: jobs with supply left, by `X_jr`.
    entry: Vec<BinaryHeap<Cand>>,
    /// Per ordered pair `(from, to)`: jobs on `from`, by `X_j,to − X_j,from`.
    reroute: Vec<BinaryHeap<Cand>>,
}

impl<'a> Transport<'a> {
    fn new(input: &'a GavelLpInput) -> Self {
        let types = input.capacity.len();
        let entry = (0..types)
            .map(|r| {
                let cands: Vec<Cand> = input
                    .throughput
                    .iter()
                    .zip(&input.gang)
                    .enumerate()
                    .filter(|(_, (_, &w))| w > 0)
                    .map(|(j, (x, _))| Cand::new(x[r], j))
                    .collect();
                BinaryHeap::from(cands)
            })
            .collect();
        Self {
            x: &input.throughput,
            types,
            supply: input.gang.iter().map(|&w| u64::from(w)).collect(),
            room: input.capacity.iter().map(|&c| u64::from(c)).collect(),
            z: vec![0; input.gang.len() * types],
            entry,
            reroute: (0..types * types).map(|_| BinaryHeap::new()).collect(),
        }
    }

    /// The best job to enter type `r`, with its profit.
    fn top_entry(&mut self, r: usize) -> Option<(f64, usize)> {
        let heap = &mut self.entry[r];
        while let Some(c) = heap.peek() {
            if self.supply[c.job] > 0 {
                return Some((c.gain, c.job));
            }
            heap.pop();
        }
        None
    }

    /// The best job to move from `from` to `to`, with its gain.
    fn top_reroute(&mut self, from: usize, to: usize) -> Option<(f64, usize)> {
        let heap = &mut self.reroute[from * self.types + to];
        while let Some(c) = heap.peek() {
            if self.z[c.job * self.types + from] > 0 {
                return Some((c.gain, c.job));
            }
            heap.pop();
        }
        None
    }

    /// The most profitable augmenting path, if it earns more than zero.
    /// Longest paths by Bellman-Ford over the types, each pass extending
    /// the previous pass's best path into every type not yet on it.
    fn best_path(&mut self) -> Option<Path> {
        let n = self.types;
        let mut best: Vec<Option<Path>> = (0..n)
            .map(|r| {
                self.top_entry(r).map(|(profit, job)| Path {
                    profit,
                    entry: job,
                    types: vec![r],
                    movers: Vec::new(),
                })
            })
            .collect();
        let hops: Vec<Option<(f64, usize)>> = (0..n * n)
            .map(|i| {
                let (from, to) = (i / n, i % n);
                (from != to).then(|| self.top_reroute(from, to)).flatten()
            })
            .collect();
        for _ in 1..n {
            let mut next = best.clone();
            for p in best.iter().flatten() {
                let from = *p.types.last().expect("paths are non-empty");
                for to in 0..n {
                    let Some((gain, job)) = hops[from * n + to] else {
                        continue;
                    };
                    let profit = p.profit + gain;
                    if p.types.contains(&to)
                        || next[to].as_ref().is_some_and(|q| q.profit >= profit)
                    {
                        continue;
                    }
                    let mut ext = p.clone();
                    ext.profit = profit;
                    ext.types.push(to);
                    ext.movers.push(job);
                    next[to] = Some(ext);
                }
            }
            best = next;
        }
        // The best path that ends at a type with room, if it earns more
        // than zero; ties keep the lower type.
        let mut chosen: Option<Path> = None;
        for (p, &room) in best.into_iter().zip(&self.room) {
            let Some(p) = p else { continue };
            let floor = chosen.as_ref().map_or(0.0, |c| c.profit);
            if room > 0 && p.profit > floor {
                chosen = Some(p);
            }
        }
        chosen
    }

    /// Push the path's bottleneck amount of flow along it.
    fn augment(&mut self, path: &Path) {
        let n = self.types;
        let last = *path.types.last().expect("paths are non-empty");
        let amount = path
            .movers
            .iter()
            .zip(&path.types)
            .map(|(&k, &from)| self.z[k * n + from])
            .chain([self.supply[path.entry], self.room[last]])
            .min()
            .expect("non-empty");
        self.supply[path.entry] -= amount;
        self.place(path.entry, path.types[0], amount);
        for (i, &k) in path.movers.iter().enumerate() {
            self.z[k * n + path.types[i]] -= amount;
            self.place(k, path.types[i + 1], amount);
        }
        self.room[last] -= amount;
    }

    /// Add `amount` units of job `j` to type `r`; a job new to `r` becomes
    /// a re-route candidate out of it.
    fn place(&mut self, j: usize, r: usize, amount: u64) {
        let n = self.types;
        if self.z[j * n + r] == 0 {
            for to in (0..n).filter(|&to| to != r) {
                self.reroute[r * n + to].push(Cand::new(self.x[j][to] - self.x[j][r], j));
            }
        }
        self.z[j * n + r] += amount;
    }
}

/// The same LP as a general [`LpProblem`] over `Y[j][r]` (variable
/// `j * R + r`), for the cold revised simplex. Returns a [`GavelLpError`]
/// on malformed input.
pub fn total_throughput_lp(input: &GavelLpInput) -> Result<LpProblem, GavelLpError> {
    let (num_jobs, num_types) = input.validate()?;
    let var = |j: usize, r: usize| j * num_types + r;
    let mut p = LpProblem::maximize(num_jobs * num_types);
    for (j, row) in input.throughput.iter().enumerate() {
        let w = f64::from(input.gang[j]);
        for (r, &x) in row.iter().enumerate() {
            p.set_objective(var(j, r), x * w);
        }
        let budget = (0..num_types).map(|r| (var(j, r), 1.0)).collect();
        p.add_constraint(budget, Relation::Le, 1.0);
    }
    for r in 0..num_types {
        let demand = (0..num_jobs)
            .map(|j| (var(j, r), f64::from(input.gang[j])))
            .collect();
        p.add_constraint(demand, Relation::Le, f64::from(input.capacity[r]));
    }
    Ok(p)
}

/// Check `Y` against the feasibility constraints. Returns the maximum
/// violation, or `f64::INFINITY` if any entry is NaN or infinite. Tolerates
/// malformed shapes (it reports violations only over rows/columns that
/// exist).
pub fn feasibility_violation(input: &GavelLpInput, y: &[Vec<f64>]) -> f64 {
    if y.iter().flatten().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let num_types = input.capacity.len();
    let mut worst = 0.0f64;
    for row in y {
        let s: f64 = row.iter().sum();
        worst = worst.max(s - 1.0);
        for &v in row.iter().take(num_types) {
            worst = worst.max(-v);
        }
    }
    for (r, &cap) in input.capacity.iter().enumerate() {
        let demand: f64 = y
            .iter()
            .zip(&input.gang)
            .map(|(row, &g)| row.get(r).copied().unwrap_or(0.0) * g as f64)
            .sum();
        worst = worst.max(demand - cap as f64);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn objective(input: &GavelLpInput, y: &[Vec<f64>]) -> f64 {
        y.iter()
            .zip(&input.throughput)
            .zip(&input.gang)
            .map(|((yr, xr), &w)| yr.iter().zip(xr).map(|(a, b)| a * b).sum::<f64>() * f64::from(w))
            .sum()
    }

    #[test]
    fn total_throughput_prefers_affinity() {
        // 2 jobs, 2 types. Job 0 loves type 0 (10 vs 1); job 1 indifferent.
        let input = GavelLpInput {
            throughput: vec![vec![10.0, 1.0], vec![4.0, 4.0]],
            gang: vec![1, 1],
            capacity: vec![1, 1],
        };
        let y = max_total_throughput_allocation(&input).unwrap();
        assert_eq!(y, vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
    }

    #[test]
    fn reroute_frees_the_better_type() {
        // Job 0 enters type 0 first (profit 10); job 1 earns 9 only on type
        // 0, so the optimum moves job 0 to type 1 (loss 1) to admit it.
        let input = GavelLpInput {
            throughput: vec![vec![10.0, 9.0], vec![9.5, 0.0]],
            gang: vec![1, 1],
            capacity: vec![1, 1],
        };
        let y = max_total_throughput_allocation(&input).unwrap();
        assert_eq!(y, vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_eq!(objective(&input, &y), 18.5);
    }

    #[test]
    fn capacity_binds_with_contention() {
        // 3 single-GPU jobs all wanting the single type-0 GPU: the lowest
        // job index wins the tie.
        let input = GavelLpInput {
            throughput: vec![vec![10.0], vec![10.0], vec![10.0]],
            gang: vec![1, 1, 1],
            capacity: vec![1],
        };
        let y = max_total_throughput_allocation(&input).unwrap();
        assert_eq!(y, vec![vec![1.0], vec![0.0], vec![0.0]]);
    }

    #[test]
    fn gang_size_weights_capacity() {
        // One 4-GPU job on a 2-GPU type can use at most half its time.
        let input = GavelLpInput {
            throughput: vec![vec![8.0]],
            gang: vec![4],
            capacity: vec![2],
        };
        assert_eq!(
            max_total_throughput_allocation(&input).unwrap(),
            vec![vec![0.5]]
        );
    }

    #[test]
    fn unprofitable_units_stay_unplaced() {
        // Zero and negative throughput earn nothing, so nothing is placed.
        let input = GavelLpInput {
            throughput: vec![vec![0.0, -1.0]],
            gang: vec![1],
            capacity: vec![1, 1],
        };
        assert_eq!(
            max_total_throughput_allocation(&input).unwrap(),
            vec![vec![0.0, 0.0]]
        );
    }

    #[test]
    fn lp_builder_matches_transport_optimum() {
        let input = GavelLpInput {
            throughput: vec![vec![10.0, 9.0], vec![9.5, 0.0], vec![3.0, 2.0]],
            gang: vec![1, 2, 1],
            capacity: vec![2, 1],
        };
        let lp = total_throughput_lp(&input).unwrap();
        assert_eq!((lp.num_vars(), lp.num_constraints()), (6, 5));
        let s = lp.solve().optimal().unwrap();
        let y = max_total_throughput_allocation(&input).unwrap();
        assert!((s.objective - objective(&input, &y)).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let input = GavelLpInput {
            throughput: vec![],
            gang: vec![],
            capacity: vec![2, 2],
        };
        assert_eq!(max_total_throughput_allocation(&input), Ok(vec![]));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        let bad_gang = GavelLpInput {
            throughput: vec![vec![1.0], vec![2.0]],
            gang: vec![1],
            capacity: vec![1],
        };
        assert_eq!(
            max_total_throughput_allocation(&bad_gang),
            Err(GavelLpError::GangLengthMismatch {
                jobs: 2,
                gang_len: 1
            })
        );
        let nan = GavelLpInput {
            throughput: vec![vec![1.0, f64::NAN]],
            gang: vec![1],
            capacity: vec![1, 1],
        };
        assert_eq!(
            total_throughput_lp(&nan).map(|_| ()),
            Err(GavelLpError::NonFiniteThroughput { row: 0, col: 1 })
        );
        assert!(GavelLpError::NonFiniteThroughput { row: 0, col: 1 }
            .to_string()
            .contains("[0][1]"));
    }

    #[test]
    fn non_finite_allocation_is_infinitely_infeasible() {
        let input = GavelLpInput {
            throughput: vec![vec![1.0, 1.0]],
            gang: vec![1],
            capacity: vec![1, 1],
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let v = feasibility_violation(&input, &[vec![bad, 0.0]]);
            assert_eq!(v, f64::INFINITY, "entry {bad}");
        }
        assert_eq!(feasibility_violation(&input, &[vec![0.5, 0.5]]), 0.0);
    }
}
