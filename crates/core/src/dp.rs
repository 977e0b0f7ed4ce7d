//! `DP_allocation` (Algorithm 2, lines 1–21) and its greedy companion.
//!
//! Given the round's queue, select the subset of jobs to schedule and their
//! placements so that the total payoff `Σ μ_j` is maximized:
//!
//! * [`dp_allocation`] — the paper's recursive dynamic program over
//!   `(queue index, server state)`, memoized on the usage fingerprint so
//!   identical subproblems are solved once (the paper's "we always save the
//!   result … to avoid recomputing the same subproblem"). Exact but
//!   exponential in the worst case — intended for small queues.
//! * [`greedy_allocation`] — a single pass over jobs in descending
//!   utility-density order, admitting every positive-payoff placement and
//!   updating usage (and therefore prices) as it goes. `O(|Q| · H · R)`.
//!
//! Tests verify that the DP never returns less total payoff than the greedy
//! and that it matches exhaustive search on small instances.

use std::collections::HashMap;

use hadar_cluster::Usage;
use hadar_sim::JobState;

use crate::find_alloc::{AllocEnv, Candidate, CandidateCache};

/// The chosen schedule for one round: per selected job (by index into the
/// queue order given to the algorithm), its placement candidate.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// `(queue index, candidate)` pairs, ascending by index.
    pub decisions: Vec<(usize, Candidate)>,
    /// Total payoff `Σ μ_j` of the selection.
    pub total_payoff: f64,
    /// Whether the DP hit its node budget (`DP_NODE_BUDGET`, 20 000) and
    /// abandoned part of its search (falling back to the greedy floor for
    /// the unexplored space).
    /// Surfaced so silently degraded rounds are visible in outcome stats;
    /// always `false` for pure greedy selections.
    pub budget_exhausted: bool,
}

/// Per-job branching width of the DP: the skip branch plus up to this many
/// alternative placements from `find_candidates`.
const DP_BRANCH_WIDTH: usize = 3;

/// Node budget after which the DP abandons exploration (degenerate state
/// spaces on large clusters); the greedy result is the floor either way.
const DP_NODE_BUDGET: usize = 20_000;

/// Best payoff and the `(queue index, candidate)` picks achieving it, for a
/// memoized `(queue index, usage fingerprint)` subproblem.
type DpEntry = (f64, Vec<(usize, Candidate)>);

/// Subset selection by memoized DP over (queue index, usage state),
/// branching over each job's top placements — not only its single best —
/// so the DP can trade a fast GPU away from a job that barely benefits.
/// The greedy solution is always computed as a floor; the better of the two
/// is returned, so `dp_allocation` never underperforms `greedy_allocation`.
pub fn dp_allocation(queue: &[&JobState], env: &AllocEnv<'_>, usage: &Usage) -> Selection {
    dp_allocation_cached(queue, env, usage, &mut CandidateCache::new())
}

/// [`dp_allocation`] against a caller-provided candidate cache, so the
/// scheduler can carry cached machine pools across rounds. One cache serves
/// both the DP exploration and the greedy floor: the greedy admission path
/// revisits usage states the DP already expanded, so its `find_alloc`
/// queries are mostly cache hits.
pub fn dp_allocation_cached(
    queue: &[&JobState],
    env: &AllocEnv<'_>,
    usage: &Usage,
    cache: &mut CandidateCache,
) -> Selection {
    let mut memo: HashMap<(usize, u64), DpEntry> = HashMap::new();
    let mut nodes = 0usize;
    let (total_payoff, mut decisions) = dp_rec(0, queue, env, usage, cache, &mut memo, &mut nodes);
    let budget_exhausted = nodes > DP_NODE_BUDGET;
    decisions.sort_by_key(|(i, _)| *i);
    let dp = Selection {
        decisions,
        total_payoff,
        budget_exhausted,
    };
    let mut greedy = greedy_allocation_cached(queue, env, usage, cache);
    if greedy.total_payoff > dp.total_payoff {
        greedy.budget_exhausted = budget_exhausted;
        greedy
    } else {
        dp
    }
}

fn dp_rec(
    idx: usize,
    queue: &[&JobState],
    env: &AllocEnv<'_>,
    usage: &Usage,
    cache: &mut CandidateCache,
    memo: &mut HashMap<(usize, u64), DpEntry>,
    nodes: &mut usize,
) -> DpEntry {
    if idx >= queue.len() || usage.is_cluster_full(env.cluster) {
        return (0.0, Vec::new());
    }
    let key = (idx, usage.fingerprint());
    if let Some(hit) = memo.get(&key) {
        return hit.clone();
    }
    *nodes += 1;
    if *nodes > DP_NODE_BUDGET {
        return (0.0, Vec::new());
    }

    // Branch 1: skip this job.
    let mut best = dp_rec(idx + 1, queue, env, usage, cache, memo, nodes);

    // Branches 2..: schedule it at one of its top placements. The clone is
    // needed because the recursion below re-borrows the cache mutably.
    let cands: Vec<Candidate> = cache
        .candidates(queue[idx], env, usage)
        .iter()
        .take(DP_BRANCH_WIDTH)
        .cloned()
        .collect();
    for cand in cands {
        // Probe the memo with the child's predicted fingerprint first: on a
        // hit this skips cloning the whole usage matrix.
        let child_key = (idx + 1, usage.fingerprint_after(cand.placement.slices()));
        let (sub_payoff, mut sub_dec) = if let Some(hit) = memo.get(&child_key) {
            hit.clone()
        } else {
            let mut taken = usage.clone();
            for s in cand.placement.slices() {
                taken.add(s.machine, s.gpu, s.count);
            }
            dp_rec(idx + 1, queue, env, &taken, cache, memo, nodes)
        };
        let payoff = cand.payoff + sub_payoff;
        if payoff > best.0 {
            sub_dec.push((idx, cand));
            best = (payoff, sub_dec);
        }
    }

    memo.insert(key, best.clone());
    best
}

/// Greedy selection: jobs in descending *utility rate* — best-case utility
/// per requested GPU **per second of remaining work** (`U / (W_j ·
/// t_j^min)`), the marginal payoff of a GPU-second spent on the job. Under
/// the normalized effective-throughput utility this reduces to
/// shortest-remaining-processing-time ordering, which minimizes average JCT;
/// ordering by utility *level* instead would starve short jobs whose waiting
/// time has already deflated their achievable utility. One `find_alloc` per
/// job, prices updated after every admission.
pub fn greedy_allocation(queue: &[&JobState], env: &AllocEnv<'_>, usage: &Usage) -> Selection {
    greedy_allocation_cached(queue, env, usage, &mut CandidateCache::new())
}

/// [`greedy_allocation`] against a caller-provided candidate cache, so the
/// DP can share the candidates it already enumerated with its greedy floor
/// and the scheduler can carry cached machine pools across rounds.
pub fn greedy_allocation_cached(
    queue: &[&JobState],
    env: &AllocEnv<'_>,
    usage: &Usage,
    cache: &mut CandidateCache,
) -> Selection {
    let mut order: Vec<usize> = (0..queue.len()).collect();
    let keys: Vec<(f64, f64)> = queue
        .iter()
        .map(|s| {
            let best = s.job.best_rate();
            if best <= 0.0 || s.remaining_iters <= 0.0 {
                return (f64::NEG_INFINITY, f64::INFINITY);
            }
            let t_min = s.remaining_iters / best;
            let elapsed = (env.now - s.job.arrival).max(0.0);
            let density = env.utility.value(&s.job, elapsed + t_min, env.now + t_min)
                / (s.job.gang as f64 * t_min);
            (density, t_min)
        })
        .collect();
    order.sort_by(|&a, &b| {
        keys[b]
            .0
            .total_cmp(&keys[a].0)
            .then(keys[a].1.total_cmp(&keys[b].1))
            .then(a.cmp(&b))
    });
    let density: Vec<f64> = keys.into_iter().map(|(d, _)| d).collect();

    let mut usage = usage.clone();
    let mut selection = Selection::default();
    for &i in &order {
        if density[i] == f64::NEG_INFINITY {
            continue;
        }
        if usage.is_cluster_full(env.cluster) {
            break;
        }
        if let Some(cand) = cache.best(queue[i], env, &usage) {
            for s in cand.placement.slices() {
                usage.add(s.machine, s.gpu, s.count);
            }
            selection.total_payoff += cand.payoff;
            selection.decisions.push((i, cand));
        }
    }
    selection.decisions.sort_by_key(|(i, _)| *i);
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::price::PriceState;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::{Cluster, CommCostModel, JobId};
    use hadar_workload::{DlTask, Job};

    fn mk_states(specs: &[(DlTask, u32, u64)]) -> (Cluster, Vec<JobState>) {
        let cluster = Cluster::motivation_toy();
        let states = specs
            .iter()
            .enumerate()
            .map(|(i, &(model, gang, epochs))| {
                JobState::new(Job::for_model(
                    JobId(i as u32),
                    model,
                    cluster.catalog(),
                    0.0,
                    gang,
                    epochs,
                ))
            })
            .collect();
        (cluster, states)
    }

    fn run_both(cluster: &Cluster, states: &[JobState]) -> (Selection, Selection) {
        let prices = PriceState::compute(states, cluster, &EffectiveThroughput, 0.0);
        let comm = CommCostModel::default();
        let env = AllocEnv {
            cluster,
            comm: &comm,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            realloc_stall: 10.0,
            features: Default::default(),
            machine_factors: &[],
        };
        let usage = Usage::empty(cluster);
        let queue: Vec<&JobState> = states.iter().collect();
        (
            dp_allocation(&queue, &env, &usage),
            greedy_allocation(&queue, &env, &usage),
        )
    }

    fn feasible(cluster: &Cluster, sel: &Selection, states: &[JobState]) {
        let mut usage = Usage::empty(cluster);
        for (i, c) in &sel.decisions {
            assert_eq!(c.placement.total_workers(), states[*i].job.gang);
            for s in c.placement.slices() {
                usage.add(s.machine, s.gpu, s.count);
            }
        }
        for h in cluster.machine_ids() {
            for r in cluster.catalog().ids() {
                assert!(usage.get(h, r) <= cluster.capacity(h, r));
            }
        }
    }

    #[test]
    fn dp_and_greedy_feasible_and_dp_at_least_as_good() {
        let (cluster, states) = mk_states(&[
            (DlTask::ResNet18, 2, 40),
            (DlTask::Lstm, 2, 5),
            (DlTask::CycleGan, 3, 3),
            (DlTask::Transformer, 1, 8),
        ]);
        let (dp, greedy) = run_both(&cluster, &states);
        feasible(&cluster, &dp, &states);
        feasible(&cluster, &greedy, &states);
        assert!(
            dp.total_payoff >= greedy.total_payoff - 1e-9,
            "dp {} < greedy {}",
            dp.total_payoff,
            greedy.total_payoff
        );
        assert!(!dp.decisions.is_empty());
    }

    #[test]
    fn dp_matches_exhaustive_on_tiny_instance() {
        // Two jobs contending for the 2 V100s: at most one can take both.
        let (cluster, states) = mk_states(&[(DlTask::ResNet18, 2, 40), (DlTask::ResNet18, 2, 40)]);
        let (dp, _) = run_both(&cluster, &states);
        feasible(&cluster, &dp, &states);
        // Both jobs can actually be placed: one on V100s, one on P100s.
        assert_eq!(dp.decisions.len(), 2);
    }

    #[test]
    fn empty_queue_yields_empty_selection() {
        let (cluster, _) = mk_states(&[]);
        let states: Vec<JobState> = Vec::new();
        let (dp, greedy) = run_both(&cluster, &states);
        assert!(dp.decisions.is_empty());
        assert!(greedy.decisions.is_empty());
        assert_eq!(dp.total_payoff, 0.0);
    }

    #[test]
    fn greedy_prefers_high_density_jobs_under_contention() {
        // Five 2-GPU jobs on a 6-GPU cluster: only ~3 fit. The greedy must
        // admit the higher-utility-density ones (ResNet-18 here: its short
        // best-case runtime gives the largest effective throughput).
        let (cluster, states) = mk_states(&[
            (DlTask::CycleGan, 2, 6),
            (DlTask::ResNet18, 2, 40),
            (DlTask::CycleGan, 2, 6),
            (DlTask::ResNet18, 2, 40),
            (DlTask::CycleGan, 2, 6),
        ]);
        let (_, greedy) = run_both(&cluster, &states);
        feasible(&cluster, &greedy, &states);
        let picked: Vec<usize> = greedy.decisions.iter().map(|(i, _)| *i).collect();
        assert!(picked.contains(&1) && picked.contains(&3), "{picked:?}");
    }

    #[test]
    fn small_instances_do_not_exhaust_dp_budget() {
        let (cluster, states) = mk_states(&[(DlTask::ResNet18, 2, 40), (DlTask::Lstm, 2, 5)]);
        let (dp, greedy) = run_both(&cluster, &states);
        assert!(!dp.budget_exhausted);
        assert!(!greedy.budget_exhausted);
    }

    /// Regression (NaN-unsafe comparators): a utility returning NaN used to
    /// panic the round path inside the candidate/density sorts. With
    /// `total_cmp` the sorts are total, and NaN payoffs fail the `> 0`
    /// admission filter, so the adversarial job is simply never scheduled.
    #[test]
    fn nan_utility_does_not_panic_round_path() {
        struct NanUtility;
        impl crate::utility::Utility for NanUtility {
            fn name(&self) -> &str {
                "nan"
            }
            fn value(&self, job: &Job, jct: f64, _finish: f64) -> f64 {
                if job.id.0 == 1 {
                    f64::NAN
                } else {
                    EffectiveThroughput.value(job, jct, _finish)
                }
            }
        }
        let (cluster, states) = mk_states(&[
            (DlTask::ResNet18, 2, 40),
            (DlTask::Lstm, 2, 5),
            (DlTask::CycleGan, 1, 6),
        ]);
        let prices = PriceState::compute(&states, &cluster, &NanUtility, 0.0);
        let comm = CommCostModel::default();
        let env = AllocEnv {
            cluster: &cluster,
            comm: &comm,
            prices: &prices,
            utility: &NanUtility,
            now: 0.0,
            realloc_stall: 10.0,
            features: Default::default(),
            machine_factors: &[],
        };
        let usage = Usage::empty(&cluster);
        let queue: Vec<&JobState> = states.iter().collect();
        for sel in [
            dp_allocation(&queue, &env, &usage),
            greedy_allocation(&queue, &env, &usage),
        ] {
            assert!(
                sel.decisions.iter().all(|(i, _)| *i != 1),
                "the NaN-payoff job must never be admitted"
            );
            assert!(sel.total_payoff.is_finite());
        }
    }

    #[test]
    fn decisions_are_sorted_by_queue_index() {
        let (cluster, states) = mk_states(&[
            (DlTask::ResNet18, 1, 10),
            (DlTask::ResNet18, 1, 10),
            (DlTask::ResNet18, 1, 10),
        ]);
        let (dp, greedy) = run_both(&cluster, &states);
        for sel in [&dp, &greedy] {
            assert!(sel.decisions.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::price::PriceState;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::{Cluster, CommCostModel, JobId};
    use hadar_rng::{Rng, StdRng};
    use hadar_workload::{DlTask, Job};

    /// DP and greedy selections on random queues are always feasible
    /// (capacity + gang), carry non-negative payoffs, and the DP never
    /// scores below the greedy.
    #[test]
    fn selections_feasible_and_dp_dominates() {
        let mut rng = StdRng::seed_from_u64(0xF6);
        for case in 0..24 {
            let cluster = Cluster::motivation_toy();
            let n = rng.gen_range_usize(1..9);
            let states: Vec<JobState> = (0..n)
                .map(|i| {
                    let m = rng.gen_range_usize(0..5);
                    let gang = rng.gen_range_usize(1..5) as u32;
                    let epochs = rng.gen_range_usize(1..61) as u64;
                    JobState::new(Job::for_model(
                        JobId(i as u32),
                        DlTask::ALL[m],
                        cluster.catalog(),
                        0.0,
                        gang,
                        epochs,
                    ))
                })
                .collect();
            let prices = PriceState::compute(&states, &cluster, &EffectiveThroughput, 0.0);
            let comm = CommCostModel::default();
            let env = AllocEnv {
                cluster: &cluster,
                comm: &comm,
                prices: &prices,
                utility: &EffectiveThroughput,
                now: 0.0,
                realloc_stall: 10.0,
                features: Default::default(),
                machine_factors: &[],
            };
            let usage = Usage::empty(&cluster);
            let queue: Vec<&JobState> = states.iter().collect();
            let dp = dp_allocation(&queue, &env, &usage);
            let greedy = greedy_allocation(&queue, &env, &usage);
            assert!(dp.total_payoff >= greedy.total_payoff - 1e-9, "case {case}");
            for sel in [&dp, &greedy] {
                let mut u = Usage::empty(&cluster);
                let mut seen = std::collections::HashSet::new();
                for (i, c) in &sel.decisions {
                    assert!(seen.insert(*i), "case {case}: job selected twice");
                    assert!(c.payoff > 0.0, "case {case}");
                    assert_eq!(c.placement.total_workers(), states[*i].job.gang);
                    for s in c.placement.slices() {
                        u.add(s.machine, s.gpu, s.count);
                    }
                }
                for h in cluster.machine_ids() {
                    for r in cluster.catalog().ids() {
                        assert!(u.get(h, r) <= cluster.capacity(h, r), "case {case}");
                    }
                }
            }
        }
    }
}
