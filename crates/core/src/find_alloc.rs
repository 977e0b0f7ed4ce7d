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

use hadar_cluster::placer::fill;
use hadar_cluster::{
    comm, Cluster, GpuTypeId, JobPlacement, MachineId, PlacementSlice, Placer, Usage,
};
use hadar_sim::{job_rate, JobState};

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
    /// Per-machine throughput factors (may be empty ⇒ all healthy). Hadar
    /// is fault-aware: candidate rates are discounted by their hosts'
    /// factors, so placements avoid — and running jobs migrate off —
    /// straggling servers, and a factor of 0.0 (a *failed* machine, see the
    /// simulator's failure model) excludes the machine from candidate
    /// generation entirely.
    pub machine_factors: &'a [f64],
}

impl AllocEnv<'_> {
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
/// candidate has non-positive payoff (the job should wait this round).
/// Builds the round's placer at `usage` for this one query.
pub fn find_alloc(state: &JobState, env: &AllocEnv<'_>, usage: &Usage) -> Option<Candidate> {
    let placer = Placer::new(env.cluster, usage.clone(), |h| env.machine_usable(h));
    find_candidates(state, env, &placer).into_iter().next()
}

/// All distinct positive-payoff candidate placements for `state`, best
/// first. The DP subroutine branches over these so it can deliberately give
/// a job a slower (cheaper) type when that frees a fast type for a job that
/// benefits more from it.
///
/// The geometry slate, in generation order: per preferred type a
/// consolidated and a spread placement, then the mixed-type variants.
pub fn find_candidates(
    state: &JobState,
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
) -> Vec<Candidate> {
    let prefs: &[GpuTypeId] = state.job.profile.types_by_preference();
    let w = state.job.gang;
    let mut geoms: Vec<Vec<PlacementSlice>> = Vec::new();
    for &r in prefs {
        geoms.extend(consolidated_homogeneous(env, placer, r, w));
        geoms.extend(spread_homogeneous(placer.pool(r), r, w));
    }
    if env.features.mixed_types {
        geoms.extend(mixed_spread(placer, prefs, w));
        geoms.extend(mixed_best_single_machine(state, env, placer, prefs, w));
    }
    assemble(state, env, placer, geoms)
}

/// Price, deduplicate, filter, and rank a geometry slate for one job: the
/// sticky candidate (if it still fits) followed by the generated geometries,
/// keeping the first occurrence of each distinct placement with positive
/// payoff, best payoff first. Equal placements price identically, so a
/// placement seen before is skipped before it is priced.
fn assemble(
    state: &JobState,
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
    geoms: Vec<Vec<PlacementSlice>>,
) -> Vec<Candidate> {
    // Sticky candidate: keep the current placement if it still fits (no
    // checkpoint stall, no movement).
    let sticky =
        (env.features.sticky && !state.placement.is_empty() && placer.fits(&state.placement))
            .then(|| state.placement.clone());
    let mut cands: Vec<Candidate> = Vec::new();
    let mut rejected: Vec<JobPlacement> = Vec::new();
    for placement in sticky
        .into_iter()
        .chain(geoms.into_iter().map(JobPlacement::from_slices))
    {
        if cands.iter().any(|c| c.placement == placement) || rejected.contains(&placement) {
            continue;
        }
        match evaluate(state, env, placer.usage(), placement) {
            Ok(c) => cands.push(c),
            Err(placement) => rejected.push(placement),
        }
    }
    cands.sort_by(|a, b| b.payoff.total_cmp(&a.payoff));
    cands
}

/// Price and score one placement; hands it back as `Err` unless it places
/// the whole gang with positive payoff.
fn evaluate(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    placement: JobPlacement,
) -> Result<Candidate, JobPlacement> {
    if placement.total_workers() != state.job.gang {
        return Err(placement);
    }
    let changed = placement != state.placement;
    let rate = job_rate(&state.job, &placement, env.machine_factors);
    let stall = if changed {
        ASSUMED_REALLOC_STALL_S
    } else {
        0.0
    };
    let Some(est) = estimate_completion(state, rate, env.now, stall) else {
        return Err(placement);
    };
    let utility = env.utility.value(&state.job, est.jct, est.finish);
    let resource_cost = price_of(env, usage, &placement);
    let comm_cost = comm::comm_cost(
        placement.num_machines(),
        resource_cost,
        placement.total_workers(),
    );
    let payoff = utility - resource_cost - comm_cost;
    if payoff > 0.0 {
        Ok(Candidate {
            payoff,
            placement,
            rate,
            utility,
            resource_cost,
            comm_cost,
            changed,
        })
    } else {
        Err(placement)
    }
}

/// `Σ_h Σ_r k_h^r(γ_h^r) · w_{jh}^r` at the current usage.
pub fn price_of(env: &AllocEnv<'_>, usage: &Usage, placement: &JobPlacement) -> f64 {
    placement
        .slices()
        .iter()
        .map(|s| {
            let cap = env.cluster.capacity(s.machine, s.gpu);
            let gamma = usage.get(s.machine, s.gpu);
            env.prices.price(s.gpu, gamma, cap) * s.count as f64
        })
        .sum()
}

/// All `w` workers of type `r` on one machine; among feasible machines, the
/// cheapest (lowest current price — i.e. the least-loaded server).
///
/// Selected by exact comparison on the type's [`PriceShape`] rather than
/// by computed float prices: zero-priced machines (`c_h^r = 0`, or a
/// [`PriceShape::Zero`] type) rank before any positive price; on a
/// [`PriceShape::Curve`] type the price is strictly increasing in the fill
/// fraction `γ/c`, compared here by cross-multiplication; on a
/// [`PriceShape::Constant`] type every machine prices identically. Strictly
/// cheaper replaces, ties keep the lower machine id — the float argmin over
/// machines in id order exactly.
fn consolidated_homogeneous(
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
    r: GpuTypeId,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    let shape = env.prices.shape(r);
    // Cost key `(rank, γ, c)`: rank 0 ⇔ price exactly 0.0; within rank 1,
    // `a < b ⇔ γ_a·c_b < γ_b·c_a` (constant shapes use γ = 0, c = 1 so all
    // compare equal). The pool holds every usable machine with free > 0,
    // most free first, so the feasible machines are exactly its prefix with
    // free ≥ w; ties break on machine id explicitly because the pool is not
    // in id order.
    let mut best: Option<(u8, u64, u64, MachineId)> = None;
    for &(free, h) in placer.pool(r) {
        if free < w {
            break;
        }
        let cap = env.cluster.capacity(h, r);
        let key: (u8, u64, u64) = if cap == 0 || shape == PriceShape::Zero {
            (0, 0, 1)
        } else if shape == PriceShape::Constant {
            (1, 0, 1)
        } else {
            (
                1,
                u64::from(placer.usage().get(h, r).min(cap)),
                u64::from(cap),
            )
        };
        let cheaper = match &best {
            None => true,
            Some((rank, num, den, bh)) => {
                key.0 < *rank
                    || (key.0 == *rank
                        && (key.1 * *den < *num * key.2
                            || (key.1 * *den == *num * key.2 && h < *bh)))
            }
        };
        if cheaper {
            best = Some((key.0, key.1, key.2, h));
        }
    }
    best.map(|(_, _, _, h)| {
        vec![PlacementSlice {
            machine: h,
            gpu: r,
            count: w,
        }]
    })
}

/// All `w` workers of type `r`, spread across the fewest machines
/// (most-free-first fill).
fn spread_homogeneous(
    pool: &[(u32, MachineId)],
    r: GpuTypeId,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    fill(pool.iter().map(|&(f, h)| (h, r, f)), w)
}

/// All `w` workers filled from the fastest types first, spreading over
/// machines as needed — the fully flexible task-level placement.
fn mixed_spread(placer: &Placer<'_>, prefs: &[GpuTypeId], w: u32) -> Option<Vec<PlacementSlice>> {
    fill(
        prefs
            .iter()
            .flat_map(|&r| placer.pool(r).iter().map(move |&(f, h)| (h, r, f))),
        w,
    )
}

/// All `w` workers on a single machine, mixing types (fastest first);
/// evaluated per machine, returning the feasible fill with the highest
/// bottleneck throughput (ties to lower machine id).
///
/// A machine's fill takes its free GPUs of `prefs[0]`, `prefs[1]`, … until
/// the gang is complete; the last type it takes from, `prefs[k]`, is the
/// first at which its cumulative free count reaches `w`. `prefs` holds only
/// positive-rate types in descending rate order, so that type is the fill's
/// bottleneck and the score is `rate(prefs[k]) · factor(h)`. Every machine
/// so scored has free `prefs[k]` GPUs, so scanning pool `k` for machines at
/// level `k` visits each feasible machine exactly once.
fn mixed_best_single_machine(
    state: &JobState,
    env: &AllocEnv<'_>,
    placer: &Placer<'_>,
    prefs: &[GpuTypeId],
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    let free = |h, r| placer.usage().free(env.cluster, h, r);
    let mut best: Option<(f64, MachineId)> = None;
    for (k, &r) in prefs.iter().enumerate() {
        let rate = state.job.profile.rate(r);
        for &(f, h) in placer.pool(r) {
            let below: u32 = prefs[..k].iter().map(|&q| free(h, q)).sum();
            if below >= w || below + f < w {
                continue;
            }
            let score = rate * env.machine_factor(h);
            if best.is_none_or(|(b, bh)| score > b || (score == b && h < bh)) {
                best = Some((score, h));
            }
        }
    }
    let (_, h) = best?;
    fill(prefs.iter().map(|&r| (h, r, free(h, r))), w)
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
        AllocEnv {
            cluster,
            prices,
            utility,
            now: 0.0,
            features: Features::default(),
            machine_factors: &[],
        }
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
        let e = AllocEnv {
            cluster: &cluster,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            features: Features::default(),
            machine_factors: &factors,
        };
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("healthy machine available");
        assert!(c.changed, "should migrate off the straggler");
        assert_eq!(c.placement.slices()[0].machine, MachineId(1));
        // And with the straggle gone, the sticky placement wins again.
        let e2 = AllocEnv {
            machine_factors: &[],
            ..e
        };
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
        let e = AllocEnv {
            cluster: &cluster,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            features: Features::default(),
            machine_factors: &factors,
        };
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
        let e2 = AllocEnv {
            machine_factors: &all_down,
            ..e
        };
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
        let got = price_of(&e, &usage, &p);
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
        let e = AllocEnv {
            machine_factors: &factors,
            ..env(&cluster, &prices, &u)
        };
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
    ) -> Option<Vec<PlacementSlice>> {
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
        best.map(|(_, h)| {
            vec![PlacementSlice {
                machine: h,
                gpu: r,
                count: w,
            }]
        })
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
    ) -> Option<Vec<PlacementSlice>> {
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
        let (_, h) = best?;
        fill(
            prefs.iter().map(|&r| (h, r, usage.free(env.cluster, h, r))),
            w,
        )
    }

    #[test]
    fn pool_scans_match_full_machine_scans() {
        use hadar_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5C4);
        let mut scored = 0;
        for case in 0..400 {
            let mut b = hadar_cluster::ClusterBuilder::new();
            let types: Vec<GpuTypeId> = ["V100", "P100", "K80"]
                .iter()
                .map(|n| b.gpu_type(n))
                .collect();
            let machines = rng.gen_range_usize(1..9);
            for _ in 0..machines {
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
            // Straggler factors, some machines down; rates drawn from a
            // small set so ties and zero-rate types occur.
            let factors: Vec<f64> = cluster
                .machine_ids()
                .map(|_| [0.0, 0.3, 0.7, 1.0, 1.0][rng.gen_range_usize(0..5)])
                .collect();
            let rates: Vec<f64> = types
                .iter()
                .map(|_| [0.0, 10.0, 20.0, 20.0, 35.0][rng.gen_range_usize(0..5)])
                .collect();
            let profile = hadar_workload::ThroughputProfile::from_rates(rates);
            let gang = rng.gen_range_usize(1..9) as u32;
            let job = Job::new(JobId(0), DlTask::Lstm, 0.0, gang, 1, 10, profile);
            let state = JobState::new(job);
            let prices = prices_for(&cluster, &state);
            let u = EffectiveThroughput;
            let e = AllocEnv {
                machine_factors: &factors,
                ..env(&cluster, &prices, &u)
            };
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
