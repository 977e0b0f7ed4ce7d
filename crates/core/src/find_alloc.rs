//! `FIND_ALLOC` (Algorithm 2, lines 22–34): the best-payoff placement for a
//! single job against the current cluster usage and prices.
//!
//! GPU types are considered in descending-throughput order (line 23); both
//! *consolidated* placements (all tasks packed into the fewest servers,
//! line 24) and *non-consolidated* ones (spread across servers, line 25) are
//! enumerated, including **mixed-type** placements — the task-level
//! heterogeneity flexibility that separates Hadar from job-level schedulers.
//! Each candidate is priced at `Σ_h Σ_r k_h^r(t) · w_{jh}^r` (line 26) with
//! the cross-server communication surcharge added for spread placements
//! (line 27); the candidate maximizing the payoff
//! `μ_j = U_j(f̂_{js} − a_j) − cost` is returned iff `μ_j > 0` (lines 28–33).
//!
//! Note on fidelity: the paper picks the minimum-*cost* candidate and then
//! checks payoff. Because different candidates imply different finish times
//! (and hence different utilities), selecting by maximum payoff implements
//! the underlying dual objective `argmax_s φ_j(s)` (Eq. 4) directly; for
//! candidates with equal estimated finish times the two rules coincide.

use hadar_cluster::allocation::{canonicalize, machines_spanned};
use hadar_cluster::placer::fill;
use hadar_cluster::{
    comm, Cluster, GpuTypeId, JobPlacement, MachineId, PlacementSlice, Placer, Usage,
};
use hadar_sim::{slices_rate, JobState};

use crate::estimate::estimate_completion;
use crate::price::{PriceShape, PriceState};
use crate::utility::Utility;

/// Ablation switches for candidate generation (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Generate mixed-GPU-type placements (the task-level flexibility that
    /// defines Hadar; off = job-level placement like Gavel).
    pub mixed_types: bool,
    /// Offer the job's current placement as a stall-free candidate
    /// (off = re-place from scratch each round).
    pub sticky: bool,
}

impl Default for Features {
    fn default() -> Self {
        Self {
            mixed_types: true,
            sticky: true,
        }
    }
}

/// The checkpoint-restart stall (seconds) Hadar *assumes* a reallocation
/// costs when estimating finish times: the paper's "10-second delay for each
/// job that has received a new allocation" (§IV-A), which is also the
/// simulator's default [`hadar_sim::PreemptionPenalty`].
pub const ASSUMED_REALLOC_STALL_S: f64 = 10.0;

/// Shared read-only context for allocation decisions within one round.
pub struct AllocEnv<'a> {
    /// Cluster topology.
    pub cluster: &'a Cluster,
    /// The round's dual prices.
    pub prices: &'a PriceState,
    /// The scheduling objective.
    pub utility: &'a dyn Utility,
    /// Current time.
    pub now: f64,
    /// Candidate-generation ablation switches.
    pub features: Features,
    /// Per-machine throughput factors (see [`AllocEnv::new`]).
    machine_factors: &'a [f64],
    /// The largest factor any machine has: bounds every candidate's
    /// per-task rate on a type by that type's rate times it.
    max_factor: f64,
}

impl<'a> AllocEnv<'a> {
    /// The round's environment. `machine_factors` holds per-machine
    /// throughput factors (may be empty ⇒ all healthy). Hadar is
    /// fault-aware: candidate rates are discounted by their hosts'
    /// factors, so placements avoid — and running jobs migrate off —
    /// straggling servers, and a factor of 0.0 (a *failed* machine, see the
    /// simulator's failure model) excludes the machine from candidate
    /// generation entirely. Their maximum is taken here, once per round.
    pub fn new(
        cluster: &'a Cluster,
        prices: &'a PriceState,
        utility: &'a dyn Utility,
        now: f64,
        features: Features,
        machine_factors: &'a [f64],
    ) -> Self {
        // Machines beyond `machine_factors` count as healthy, 1.0.
        let unlisted = if machine_factors.len() < cluster.num_machines() {
            1.0
        } else {
            0.0
        };
        let max_factor = machine_factors.iter().copied().fold(unlisted, f64::max);
        Self {
            cluster,
            prices,
            utility,
            now,
            features,
            machine_factors,
            max_factor,
        }
    }

    /// The throughput factor of machine `h` (1.0 when not provided, 0.0
    /// while the machine is down).
    pub fn machine_factor(&self, h: MachineId) -> f64 {
        self.machine_factors.get(h.index()).copied().unwrap_or(1.0)
    }

    /// Whether machine `h` can run tasks at all this round: the "up"
    /// predicate Hadar builds its [`Placer`] with.
    pub fn machine_usable(&self, h: MachineId) -> bool {
        self.machine_factor(h) > 0.0
    }
}

/// A priced candidate placement for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The placement `w_{jh}^r`.
    pub placement: JobPlacement,
    /// Effective aggregate rate (iterations/sec) including the cross-server
    /// degradation.
    pub rate: f64,
    /// Estimated utility `U_j(f̂_j − a_j)` under this placement.
    pub utility: f64,
    /// Resource cost `Σ k_h^r w_{jh}^r`.
    pub resource_cost: f64,
    /// Communication surcharge (0 for consolidated placements).
    pub comm_cost: f64,
    /// `μ_j = utility − resource_cost − comm_cost`.
    pub payoff: f64,
    /// Whether this placement differs from the job's current one (and would
    /// therefore pay the checkpoint stall).
    pub changed: bool,
}

/// Find the best positive-payoff placement for `state`, or `None` if every
/// candidate has non-positive payoff (the job should wait this round):
/// the first of [`find_candidates`]. Builds the round's placer at `usage`
/// for this one query.
pub fn find_alloc(state: &JobState, env: &AllocEnv<'_>, usage: &Usage) -> Option<Candidate> {
    let placer = Placer::new(env.cluster, usage.clone(), |h| env.machine_usable(h));
    Search::default().best(state, env, &placer)
}

/// All distinct positive-payoff candidate placements for `state`, best
/// first, ties in generation order. The DP subroutine branches over these
/// so it can deliberately give a job a slower (cheaper) type when that
/// frees a fast type for a job that benefits more from it.
///
/// Generation order: the job's current placement if it still fits (the
/// stall-free sticky candidate), per preferred type a consolidated and a
/// spread placement, then the mixed spread and the best single machine.
pub fn find_candidates(
    state: &JobState,
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
) -> Vec<Candidate> {
    let mut cands: Vec<Candidate> = Vec::new();
    each_geometry(state, env, placer, &mut Vec::new(), |slices| {
        // Equal placements score identically: keep the first.
        if cands.iter().any(|c| c.placement.slices() == slices) {
            return;
        }
        if let Some(s) = score(state, env, placer.usage(), slices) {
            cands.push(s.candidate(slices));
        }
    });
    cands.sort_by(|a, b| b.payoff.total_cmp(&a.payoff));
    cands
}

/// The greedy's candidate search, with scratch space it reuses across the
/// jobs of a round. Each geometry is built into one slice list,
/// canonicalized in place and scored there; only a kept candidate becomes
/// a [`JobPlacement`].
#[derive(Debug, Default)]
pub(crate) struct Search {
    /// The geometry being generated.
    geometry: Vec<PlacementSlice>,
    /// The best geometry [`Search::best`] has kept so far.
    kept: Vec<PlacementSlice>,
}

impl Search {
    /// The strictly best positive-payoff candidate, the first in generation
    /// order on ties: the first of [`find_candidates`], without ranking
    /// the rest.
    pub(crate) fn best(
        &mut self,
        state: &JobState,
        env: &AllocEnv<'_>,
        placer: &Placer<'_>,
    ) -> Option<Candidate> {
        let Self { geometry, kept } = self;
        let mut best: Option<Score> = None;
        each_geometry(state, env, placer, geometry, |slices| {
            let Some(s) = score(state, env, placer.usage(), slices) else {
                return;
            };
            if best.as_ref().is_none_or(|b| s.payoff > b.payoff) {
                kept.clear();
                kept.extend_from_slice(slices);
                best = Some(s);
            }
        });
        best.map(|s| s.candidate(kept))
    }
}

/// Hand `visit` each of `state`'s geometries in generation order (see
/// [`find_candidates`]), each as a canonical slice list built in
/// `geometry`.
fn each_geometry(
    state: &JobState,
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
    geometry: &mut Vec<PlacementSlice>,
    mut visit: impl FnMut(&[PlacementSlice]),
) {
    if env.features.sticky && !state.placement.is_empty() && placer.fits(&state.placement) {
        visit(state.placement.slices());
    }
    let prefs: &[GpuTypeId] = state.job.profile.types_by_preference();
    let w = state.job.gang;
    let mut emit = |geometry: &mut Vec<PlacementSlice>| {
        canonicalize(geometry);
        visit(geometry);
    };
    let pool = |r: GpuTypeId| placer.pool(r).iter().map(move |&(f, h)| (h, r, f));
    for &r in prefs {
        if let Some(machine) = consolidated_homogeneous(env, placer, r, w) {
            geometry.clear();
            geometry.push(PlacementSlice {
                machine,
                gpu: r,
                count: w,
            });
            emit(geometry);
        }
        // All `w` workers of type `r`, spread most free first.
        if fill(pool(r), w, geometry) {
            emit(geometry);
        }
    }
    if env.features.mixed_types {
        // All `w` workers filled from the fastest types first, spreading
        // over machines as needed — the fully flexible task-level
        // placement.
        if fill(prefs.iter().flat_map(|&r| pool(r)), w, geometry) {
            emit(geometry);
        }
        if let Some(h) = mixed_best_single_machine(state, env, placer, prefs, w) {
            let free = |r| placer.usage().free(env.cluster, h, r);
            if fill(prefs.iter().map(|&r| (h, r, free(r))), w, geometry) {
                emit(geometry);
            }
        }
    }
}

/// A geometry's scored terms: a [`Candidate`] but for its placement.
struct Score {
    rate: f64,
    utility: f64,
    resource_cost: f64,
    comm_cost: f64,
    payoff: f64,
    changed: bool,
}

impl Score {
    fn candidate(self, slices: &[PlacementSlice]) -> Candidate {
        Candidate {
            placement: JobPlacement::from_slices(slices.iter().copied()),
            rate: self.rate,
            utility: self.utility,
            resource_cost: self.resource_cost,
            comm_cost: self.comm_cost,
            payoff: self.payoff,
            changed: self.changed,
        }
    }
}

/// Price and score one canonical slice list for `state`; `None` unless it
/// places the whole gang with positive payoff.
fn score(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    slices: &[PlacementSlice],
) -> Option<Score> {
    let workers: u32 = slices.iter().map(|s| s.count).sum();
    if workers != state.job.gang {
        return None;
    }
    let changed = slices != state.placement.slices();
    let rate = slices_rate(&state.job, slices, env.machine_factors);
    let stall = if changed {
        ASSUMED_REALLOC_STALL_S
    } else {
        0.0
    };
    let est = estimate_completion(state, rate, env.now, stall)?;
    let utility = env.utility.value(&state.job, est.jct, est.finish);
    let resource_cost = price_of(env, usage, slices);
    let comm_cost = comm::comm_cost(machines_spanned(slices), resource_cost, workers);
    let payoff = utility - resource_cost - comm_cost;
    (payoff > 0.0).then_some(Score {
        rate,
        utility,
        resource_cost,
        comm_cost,
        payoff,
        changed,
    })
}

/// `Σ_h Σ_r k_h^r(γ_h^r) · w_{jh}^r` at the current usage, read from the
/// round's price table.
fn price_of(env: &AllocEnv<'_>, usage: &Usage, slices: &[PlacementSlice]) -> f64 {
    slices
        .iter()
        .map(|s| {
            let cap = env.cluster.capacity(s.machine, s.gpu);
            let gamma = usage.get(s.machine, s.gpu);
            env.prices.tabulated(s.gpu, gamma, cap) * s.count as f64
        })
        .sum()
}

/// `pool` split into its runs of equal free count, most free first. The
/// pool's order puts ids in ascending order inside each run; each run is
/// found by one binary search, without walking the one before it.
fn runs(mut pool: &[(u32, MachineId)]) -> impl Iterator<Item = &[(u32, MachineId)]> {
    std::iter::from_fn(move || {
        let &(free, _) = pool.first()?;
        let (run, rest) = pool.split_at(pool.partition_point(|e| e.0 == free));
        pool = rest;
        Some(run)
    })
}

/// All `w` workers of type `r` on one machine; among feasible machines, the
/// cheapest (lowest current price — i.e. the least-loaded server), ties to
/// the lower machine id: the float argmin over machines in id order.
///
/// The feasible machines are the prefix of pool `r` with free ≥ `w`, read
/// a run of equal free count at a time. On a [`PriceShape::Zero`] or
/// [`PriceShape::Constant`] type every machine prices the same, so the
/// answer is the lowest first id of a run. On a [`PriceShape::Curve`] type
/// the price is strictly increasing in the fill fraction `γ/c = (c − f)/c`,
/// compared exactly by cross-multiplication. No machine in a run of free
/// `f` is below `(c_min − f)/c_min`, with `c_min` the smallest type-`r`
/// capacity in the cluster: the search stops at the first run whose bound
/// the best fraction found is strictly below, and inside a run at the
/// first machine that reaches the run's bound. With one capacity per type,
/// as every built-in cluster has, that reads one machine per run.
fn consolidated_homogeneous(
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
    r: GpuTypeId,
    w: u32,
) -> Option<MachineId> {
    let pool = placer.pool(r);
    let feasible = runs(&pool[..pool.partition_point(|e| e.0 >= w)]);
    if env.prices.shape(r) != PriceShape::Curve {
        return feasible.map(|run| run[0].1).min();
    }
    let c_min = u64::from(env.cluster.capacities_of_type(r).first().copied()?);
    // `(γ, c)` below `(γ', c')` ⇔ `γ·c' < γ'·c`.
    let below = |(g, c): (u64, u64), (g2, c2): (u64, u64)| g * c2 < g2 * c;
    let mut best: Option<((u64, u64), MachineId)> = None;
    for run in feasible {
        let f = u64::from(run[0].0);
        let bound = (c_min.saturating_sub(f), c_min);
        if best.is_some_and(|(key, _)| below(key, bound)) {
            break;
        }
        for &(_, h) in run {
            let c = u64::from(env.cluster.capacity(h, r));
            let key = (c - f, c);
            if best.is_none_or(|(b, bh)| below(key, b) || (!below(b, key) && h < bh)) {
                best = Some((key, h));
            }
            if !below(bound, key) {
                break;
            }
        }
    }
    best.map(|(_, h)| h)
}

/// All `w` workers on a single machine, mixing types (fastest first): the
/// machine whose fill has the highest bottleneck throughput, ties to the
/// lower machine id.
///
/// A machine's fill takes its free GPUs of `prefs[0]`, `prefs[1]`, … until
/// the gang is complete; the last type it takes from, `prefs[k]`, is the
/// first at which its cumulative free count reaches `w`. `prefs` holds only
/// positive-rate types in descending rate order, so that type is the fill's
/// bottleneck and the score is `rate(prefs[k]) · factor(h)`. Every machine
/// so scored has free `prefs[k]` GPUs, so reading pool `k` for machines at
/// level `k` meets each feasible machine exactly once. Three bounds cut the
/// reading short, with `F` the largest machine factor:
///
/// - no level `k` scores above `rate(prefs[k]) · F`, so the levels stop
///   once the best score is strictly above that;
/// - a machine in a run of free `f` holds at most `f + other(r)` GPUs a
///   fill can take, `other(r)` being [`Cluster::max_other_gpus`], so a
///   level stops at the first run where that is below `w`;
/// - inside a run, a feasible machine with factor `F` scores what no later
///   one can beat.
fn mixed_best_single_machine(
    state: &JobState,
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
    prefs: &[GpuTypeId],
    w: u32,
) -> Option<MachineId> {
    let free = |h, r| placer.usage().free(env.cluster, h, r);
    let top = env.max_factor;
    let mut best: Option<(f64, MachineId)> = None;
    for (k, &r) in prefs.iter().enumerate() {
        let rate = state.job.profile.rate(r);
        if best.is_some_and(|(b, _)| b > rate * top) {
            break;
        }
        let other = env.cluster.max_other_gpus(r);
        for run in runs(placer.pool(r)) {
            let f = run[0].0;
            if f.saturating_add(other) < w {
                break;
            }
            for &(_, h) in run {
                let below: u32 = prefs[..k].iter().map(|&q| free(h, q)).sum();
                if below >= w || below + f < w {
                    continue;
                }
                let factor = env.machine_factor(h);
                let score = rate * factor;
                if best.is_none_or(|(b, bh)| score > b || (score == b && h < bh)) {
                    best = Some((score, h));
                }
                if factor == top {
                    break;
                }
            }
        }
    }
    best.map(|(_, h)| h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::JobId;
    use hadar_workload::{DlTask, Job};
    use std::collections::BTreeSet;

    fn setup(gang: u32) -> (Cluster, JobState) {
        let cluster = Cluster::motivation_toy(); // 2 V100 | 3 P100 | 1 K80
        let job = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, gang, 50);
        (cluster, JobState::new(job))
    }

    fn env<'a>(
        cluster: &'a Cluster,
        prices: &'a PriceState,
        utility: &'a EffectiveThroughput,
    ) -> AllocEnv<'a> {
        with_factors(cluster, prices, utility, &[])
    }

    fn with_factors<'a>(
        cluster: &'a Cluster,
        prices: &'a PriceState,
        utility: &'a EffectiveThroughput,
        factors: &'a [f64],
    ) -> AllocEnv<'a> {
        AllocEnv::new(cluster, prices, utility, 0.0, Features::default(), factors)
    }

    /// The placer Hadar builds for `e` at `usage`, its type pools built
    /// as the subroutine's first candidate query builds them.
    fn placer<'a>(e: &AllocEnv<'a>, usage: Usage) -> Placer<'a> {
        let p = Placer::new(e.cluster, usage, |h| e.machine_usable(h));
        p.pool(GpuTypeId(0));
        p
    }

    fn prices_for(cluster: &Cluster, state: &JobState) -> PriceState {
        PriceState::compute(
            std::slice::from_ref(state),
            cluster,
            &EffectiveThroughput,
            0.0,
        )
    }

    #[test]
    fn small_gang_lands_consolidated_on_fastest_type() {
        let (cluster, state) = setup(2);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("positive payoff expected");
        // Both V100s on machine 0: consolidated, fastest.
        assert_eq!(c.placement.num_machines(), 1);
        assert!(c.placement.slices().iter().all(|s| s.gpu == GpuTypeId(0)));
        assert_eq!(c.placement.total_workers(), 2);
        assert!(c.payoff > 0.0);
        assert!(c.comm_cost == 0.0);
    }

    #[test]
    fn large_gang_mixes_types_when_needed() {
        // Gang of 6 needs every GPU in the toy cluster: must mix all types.
        let (cluster, state) = setup(6);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("only mixed placement fits");
        assert_eq!(c.placement.total_workers(), 6);
        let types: BTreeSet<_> = c.placement.slices().iter().map(|s| s.gpu).collect();
        assert_eq!(types.len(), 3);
        // Rate = bottleneck (K80 = 20 it/s) × 6 × comm factor (3 machines).
        let expect = 20.0 * 6.0 * comm::throughput_factor(3);
        assert!((c.rate - expect).abs() < 1e-9, "rate={}", c.rate);
    }

    #[test]
    fn respects_existing_usage() {
        let (cluster, state) = setup(2);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let mut usage = Usage::empty(&cluster);
        // Occupy both V100s: the job must fall back to P100s.
        usage.add(MachineId(0), GpuTypeId(0), 2);
        let c = find_alloc(&state, &e, &usage).expect("P100s are free");
        assert!(c.placement.slices().iter().all(|s| s.gpu == GpuTypeId(1)));
    }

    #[test]
    fn none_when_nothing_fits() {
        let (cluster, state) = setup(2);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let mut usage = Usage::empty(&cluster);
        for h in cluster.machine_ids() {
            for r in cluster.catalog().ids() {
                usage.add(h, r, cluster.capacity(h, r));
            }
        }
        assert_eq!(find_alloc(&state, &e, &usage), None);
    }

    #[test]
    fn sticky_placement_preferred_under_equal_rates() {
        let (cluster, mut state) = setup(2);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let usage = Usage::empty(&cluster);
        // Job already sits on the V100s: keeping it avoids the 10 s stall,
        // so the sticky candidate must win and report `changed = false`.
        state.placement = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let c = find_alloc(&state, &e, &usage).unwrap();
        assert!(!c.changed);
        assert_eq!(c.placement, state.placement);
    }

    #[test]
    fn moving_pays_off_when_current_spot_is_slow() {
        let (cluster, mut state) = setup(1);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let usage = Usage::empty(&cluster);
        // Currently on the K80 (20 it/s); V100 (120 it/s) is free. The gain
        // dwarfs the 10 s checkpoint stall for this 50-epoch job.
        state.placement = JobPlacement::single(MachineId(2), GpuTypeId(2), 1);
        let c = find_alloc(&state, &e, &usage).unwrap();
        assert!(c.changed);
        assert!(c.placement.slices().iter().all(|s| s.gpu == GpuTypeId(0)));
    }

    #[test]
    fn straggler_awareness_migrates_off_slow_machine() {
        // Two 2-GPU V100 machines; the job currently runs on machine 0,
        // which is straggling at 30% speed. The stall-free sticky candidate
        // loses to moving onto the healthy machine.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        let job = hadar_workload::Job::for_model(
            hadar_cluster::JobId(0),
            hadar_workload::DlTask::ResNet18,
            cluster.catalog(),
            0.0,
            2,
            100,
        );
        let mut state = JobState::new(job);
        state.placement = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let prices = PriceState::compute(
            std::slice::from_ref(&state),
            &cluster,
            &EffectiveThroughput,
            0.0,
        );
        let factors = [0.3, 1.0];
        let u = EffectiveThroughput;
        let e = with_factors(&cluster, &prices, &u, &factors);
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("healthy machine available");
        assert!(c.changed, "should migrate off the straggler");
        assert_eq!(c.placement.slices()[0].machine, MachineId(1));
        // And with the straggle gone, the sticky placement wins again.
        let e2 = env(&cluster, &prices, &u);
        let c2 = find_alloc(&state, &e2, &usage).unwrap();
        assert!(!c2.changed);
    }

    #[test]
    fn down_machine_is_never_selected() {
        // Same two-machine setup, but machine 0 is *down* (factor 0.0): the
        // sticky candidate dies and every generated candidate must live
        // entirely on machine 1. With both machines down, no candidate
        // survives at all.
        let mut b = hadar_cluster::ClusterBuilder::new();
        let v100 = b.gpu_type("V100");
        b.machine(&[(v100, 2)]);
        b.machine(&[(v100, 2)]);
        let cluster = b.build();
        let job = hadar_workload::Job::for_model(
            hadar_cluster::JobId(0),
            hadar_workload::DlTask::ResNet18,
            cluster.catalog(),
            0.0,
            2,
            100,
        );
        let mut state = JobState::new(job);
        state.placement = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let prices = PriceState::compute(
            std::slice::from_ref(&state),
            &cluster,
            &EffectiveThroughput,
            0.0,
        );
        let factors = [0.0, 1.0];
        let u = EffectiveThroughput;
        let e = with_factors(&cluster, &prices, &u, &factors);
        let usage = Usage::empty(&cluster);
        let cands = find_candidates(&state, &e, &placer(&e, usage.clone()));
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(
                c.placement
                    .slices()
                    .iter()
                    .all(|sl| sl.machine == MachineId(1)),
                "candidate touches the dead machine: {:?}",
                c.placement
            );
        }
        let c = find_alloc(&state, &e, &usage).expect("healthy machine available");
        assert!(c.changed, "must evacuate the dead machine");
        assert_eq!(c.placement.slices()[0].machine, MachineId(1));
        // Whole cluster down ⇒ nothing schedulable.
        let all_down = [0.0, 0.0];
        let e2 = with_factors(&cluster, &prices, &u, &all_down);
        assert!(find_alloc(&state, &e2, &usage).is_none());
    }

    #[test]
    fn price_of_sums_per_slice() {
        let (cluster, state) = setup(2);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let usage = Usage::empty(&cluster);
        let p = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let got = price_of(&e, &usage, p.slices());
        let unit = prices.price(GpuTypeId(0), 0, 2);
        assert!((got - 2.0 * unit).abs() < 1e-12);
    }

    /// Machines 0..4 with `[(A, B)]` capacities (2, 1), (4, 0), (2, 2),
    /// (3, 0), the env over them, and a one-GPU job to price with.
    fn pool_cluster() -> (Cluster, JobState, PriceState) {
        let mut b = hadar_cluster::ClusterBuilder::new();
        let a = b.gpu_type("V100");
        let c = b.gpu_type("K80");
        b.machine(&[(a, 2), (c, 1)]);
        b.machine(&[(a, 4)]);
        b.machine(&[(a, 2), (c, 2)]);
        b.machine(&[(a, 3)]);
        let cluster = b.build();
        let job = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, 1, 10);
        let state = JobState::new(job);
        let prices = prices_for(&cluster, &state);
        (cluster, state, prices)
    }

    fn ids(pool: &[(u32, MachineId)]) -> Vec<(u32, u32)> {
        pool.iter().map(|&(f, h)| (f, h.0)).collect()
    }

    /// `placer`'s pools equal the ones a fresh build at its usage has.
    fn assert_in_step(e: &AllocEnv<'_>, p: &Placer<'_>) {
        let fresh = placer(e, p.usage().clone());
        for r in e.cluster.catalog().ids() {
            assert_eq!(p.pool(r), fresh.pool(r), "type {r:?}");
        }
    }

    #[test]
    fn add_on_a_clone_leaves_the_parent_untouched() {
        // The DP clones the pools at each branch: a child's admissions must
        // not leak into its parent or its siblings.
        let (cluster, _, prices) = pool_cluster();
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        let mut parent = placer(&e, Usage::empty(&cluster));
        parent.add(&JobPlacement::single(MachineId(3), GpuTypeId(0), 1));
        let before = parent.clone();
        let mut child = parent.clone();
        child.add(&JobPlacement::single(MachineId(1), GpuTypeId(0), 4));
        let mut sibling = parent.clone();
        sibling.add(&JobPlacement::single(MachineId(0), GpuTypeId(0), 2));
        for r in cluster.catalog().ids() {
            assert_eq!(parent.pool(r), before.pool(r), "type {r:?}");
        }
        assert_eq!(parent.usage(), before.usage());
        assert_eq!(ids(child.pool(GpuTypeId(0))), [(2, 0), (2, 2), (2, 3)]);
        assert_eq!(ids(sibling.pool(GpuTypeId(0))), [(4, 1), (2, 2), (2, 3)]);
        for p in [&parent, &child, &sibling] {
            assert_in_step(&e, p);
        }
    }

    #[test]
    fn down_machines_stay_out_of_the_pools() {
        let (cluster, _, prices) = pool_cluster();
        let u = EffectiveThroughput;
        let factors = [1.0, 0.0, 1.0, 0.5];
        let e = with_factors(&cluster, &prices, &u, &factors);
        let mut pl = placer(&e, Usage::empty(&cluster));
        assert_eq!(ids(pl.pool(GpuTypeId(0))), [(3, 3), (2, 0), (2, 2)]);
        pl.add(&JobPlacement::single(MachineId(3), GpuTypeId(0), 2));
        assert_eq!(ids(pl.pool(GpuTypeId(0))), [(2, 0), (2, 2), (1, 3)]);
        assert_in_step(&e, &pl);
    }

    /// [`consolidated_homogeneous`] by its definition: every usable
    /// machine in id order with `w` free type-`r` GPUs, the strictly
    /// cheapest float price winning.
    fn cheapest_machine_by_full_scan(
        env: &AllocEnv<'_>,
        usage: &Usage,
        r: GpuTypeId,
        w: u32,
    ) -> Option<MachineId> {
        let mut best: Option<(f64, MachineId)> = None;
        for h in env.cluster.machine_ids() {
            if !env.machine_usable(h) || usage.free(env.cluster, h, r) < w {
                continue;
            }
            let cap = env.cluster.capacity(h, r);
            let price = env.prices.price(r, usage.get(h, r), cap);
            if best.is_none_or(|(b, _)| price < b) {
                best = Some((price, h));
            }
        }
        best.map(|(_, h)| h)
    }

    /// The pre-pool scan of [`mixed_best_single_machine`]: every usable
    /// machine in id order, its fill over `prefs` scored by the slowest
    /// type it takes, strictly better replacing.
    fn best_single_machine_by_full_scan(
        state: &JobState,
        env: &AllocEnv<'_>,
        usage: &Usage,
        prefs: &[GpuTypeId],
        w: u32,
    ) -> Option<MachineId> {
        let mut best: Option<(f64, MachineId)> = None;
        for h in env.cluster.machine_ids() {
            if !env.machine_usable(h) {
                continue;
            }
            let mut remaining = w;
            let mut bottleneck = f64::INFINITY;
            for &r in prefs {
                let take = usage.free(env.cluster, h, r).min(remaining);
                if take > 0 {
                    bottleneck = bottleneck.min(state.job.profile.rate(r) * env.machine_factor(h));
                    remaining -= take;
                }
            }
            if remaining == 0 && best.as_ref().is_none_or(|(b, _)| bottleneck > *b) {
                best = Some((bottleneck, h));
            }
        }
        best.map(|(_, h)| h)
    }

    /// A random cluster of up to 8 machines over three types, each machine
    /// holding 0–3 GPUs of each type (so machines mix types and a type's
    /// capacities differ), with a random usage within capacity.
    fn random_cluster(rng: &mut hadar_rng::StdRng) -> (Cluster, Usage) {
        use hadar_rng::Rng;
        let mut b = hadar_cluster::ClusterBuilder::new();
        let types: Vec<GpuTypeId> = ["V100", "P100", "K80"]
            .iter()
            .map(|n| b.gpu_type(n))
            .collect();
        for _ in 0..rng.gen_range_usize(1..9) {
            let caps: Vec<(GpuTypeId, u32)> = types
                .iter()
                .map(|&r| (r, rng.gen_range_usize(0..4) as u32))
                .collect();
            b.machine(&caps);
        }
        let cluster = b.build();
        let mut usage = Usage::empty(&cluster);
        for h in cluster.machine_ids() {
            for &r in &types {
                let cap = cluster.capacity(h, r) as usize;
                usage.add(h, r, rng.gen_range_usize(0..cap + 1) as u32);
            }
        }
        (cluster, usage)
    }

    /// Random machine factors: some machines down (0.0), some straggling,
    /// some faster than nominal (above 1.0); a quarter of the lists stop
    /// short of the last machines, which then count as 1.0.
    fn random_factors(rng: &mut hadar_rng::StdRng, cluster: &Cluster) -> Vec<f64> {
        use hadar_rng::Rng;
        let mut factors: Vec<f64> = cluster
            .machine_ids()
            .map(|_| [0.0, 0.3, 0.7, 1.0, 1.0, 1.5, 2.0][rng.gen_range_usize(0..7)])
            .collect();
        if rng.gen_range_usize(0..4) == 0 {
            factors.truncate(rng.gen_range_usize(0..factors.len() + 1));
        }
        factors
    }

    /// A one-job profile with rates drawn from a small set, so ties and
    /// zero-rate types occur.
    fn random_job(rng: &mut hadar_rng::StdRng, id: u32) -> Job {
        use hadar_rng::Rng;
        let rates: Vec<f64> = (0..3)
            .map(|_| [0.0, 10.0, 20.0, 20.0, 35.0][rng.gen_range_usize(0..5)])
            .collect();
        let profile = hadar_workload::ThroughputProfile::from_rates(rates);
        let gang = rng.gen_range_usize(1..9) as u32;
        Job::new(JobId(id), DlTask::Lstm, 0.0, gang, 1, 10, profile)
    }

    #[test]
    fn pool_scans_match_full_machine_scans() {
        use hadar_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5C4);
        let mut scored = 0;
        for case in 0..400 {
            let (cluster, usage) = random_cluster(&mut rng);
            let factors = random_factors(&mut rng, &cluster);
            let state = JobState::new(random_job(&mut rng, 0));
            let gang = state.job.gang;
            // Curve prices from the job itself; every few cases the zero
            // prices of an empty queue or constant prices instead.
            let prices = match rng.gen_range_usize(0..6) {
                0 => PriceState::compute(&[], &cluster, &EffectiveThroughput, 0.0),
                1 => PriceState::with_bounds(2.0, vec![2.0; 3], 1.0, 0.0, &cluster),
                _ => prices_for(&cluster, &state),
            };
            let u = EffectiveThroughput;
            let e = with_factors(&cluster, &prices, &u, &factors);
            assert!(
                cluster
                    .machine_ids()
                    .all(|h| e.machine_factor(h) <= e.max_factor),
                "case {case}: F below a machine's factor"
            );
            let prefs = state.job.profile.types_by_preference();
            let pl = placer(&e, usage.clone());
            let want = best_single_machine_by_full_scan(&state, &e, &usage, prefs, gang);
            let got = mixed_best_single_machine(&state, &e, &pl, prefs, gang);
            assert_eq!(got, want, "case {case}: best single machine");
            scored += usize::from(want.is_some());
            for &r in prefs {
                let want = cheapest_machine_by_full_scan(&e, &usage, r, gang);
                let got = consolidated_homogeneous(&e, &pl, r, gang);
                assert_eq!(got, want, "case {case}: consolidated on {r:?}");
            }
        }
        assert!(scored > 50, "only {scored} cases had a feasible machine");
    }

    #[test]
    fn greedy_pick_is_the_first_candidate() {
        use hadar_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x6AE);
        let (mut picked, mut sticky_kept) = (0, 0);
        for case in 0..300 {
            let (cluster, usage) = random_cluster(&mut rng);
            let factors = random_factors(&mut rng, &cluster);
            let states: Vec<JobState> = (0..rng.gen_range_usize(1..6))
                .map(|i| JobState::new(random_job(&mut rng, i as u32)))
                .collect();
            let prices = PriceState::compute(&states, &cluster, &EffectiveThroughput, 0.0);
            let features = Features {
                mixed_types: rng.gen_range_usize(0..4) > 0,
                sticky: rng.gen_range_usize(0..4) > 0,
            };
            let u = EffectiveThroughput;
            let e = AllocEnv::new(&cluster, &prices, &u, 0.0, features, &factors);
            let mut pl = placer(&e, usage);
            let mut search = Search::default();
            for (i, mut state) in states.into_iter().enumerate() {
                // A sticky placement: one the placer could give now (so it
                // usually fits), or one from the idle cluster with every
                // machine up (so it may sit on a down or busy machine).
                if rng.gen_range_usize(0..2) == 0 {
                    let idle = Placer::new(&cluster, Usage::empty(&cluster), |_| true);
                    let from = if rng.gen_range_usize(0..2) == 0 {
                        &pl
                    } else {
                        &idle
                    };
                    let gang = state.job.gang;
                    state.placement = from.any_type(gang, |_| true).unwrap_or_default();
                }
                let want = find_candidates(&state, &e, &pl).into_iter().next();
                let got = search.best(&state, &e, &pl);
                assert_eq!(got, want, "case {case}, job {i}");
                if let Some(c) = got {
                    sticky_kept += usize::from(!c.changed);
                    picked += 1;
                    pl.add(&c.placement);
                }
            }
        }
        assert!(picked > 200, "only {picked} picks checked");
        assert!(sticky_kept > 20, "only {sticky_kept} sticky picks checked");
    }

    #[test]
    fn unrunnable_job_gets_nothing() {
        let cluster = Cluster::motivation_toy();
        let profile = hadar_workload::ThroughputProfile::from_rates(vec![0.0, 0.0, 0.0]);
        let job = Job::new(JobId(0), DlTask::Lstm, 0.0, 1, 1, 10, profile);
        let state = JobState::new(job);
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &prices, &u);
        assert_eq!(find_alloc(&state, &e, &Usage::empty(&cluster)), None);
    }
}
