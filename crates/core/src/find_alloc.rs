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

use std::collections::HashMap;
use std::time::Instant;

use hadar_cluster::{
    Cluster, CommCostModel, GpuTypeId, JobPlacement, MachineId, PlacementSlice, Usage,
};
use hadar_sim::JobState;

use crate::estimate::estimate_completion;
use crate::price::{PriceShape, PriceState};
use crate::utility::Utility;

/// Machine-pool entries untouched for this many rounds are evicted. Pools
/// are cheap to rebuild (one sort); the payoff is within-round sharing plus
/// the immediately-previous round's saturated states.
const POOL_KEEP_ROUNDS: u64 = 2;

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

/// Shared read-only context for allocation decisions within one round.
pub struct AllocEnv<'a> {
    /// Cluster topology.
    pub cluster: &'a Cluster,
    /// Communication cost model.
    pub comm: &'a CommCostModel,
    /// The round's dual prices.
    pub prices: &'a PriceState,
    /// The scheduling objective.
    pub utility: &'a dyn Utility,
    /// Current time.
    pub now: f64,
    /// Assumed checkpoint-restart stall when a job's placement changes.
    pub realloc_stall: f64,
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

    /// Whether machine `h` can run tasks at all this round.
    fn machine_usable(&self, h: MachineId) -> bool {
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
pub fn find_alloc(state: &JobState, env: &AllocEnv<'_>, usage: &Usage) -> Option<Candidate> {
    find_candidates(state, env, usage).into_iter().next()
}

/// Everything *besides* the usage column that a cached machine pool depends
/// on. Compared at the start of each round; any change drops the pool
/// layer wholesale (failures and recoveries flip `usable`).
#[derive(Clone, PartialEq, Debug)]
struct CacheCtx {
    usable: Vec<bool>,
    /// Fingerprint of the `c_h^r` capacity matrix, so a cache accidentally
    /// carried across clusters can never serve foreign pools.
    caps_hash: u64,
}

impl CacheCtx {
    fn of(env: &AllocEnv<'_>) -> Self {
        let usable: Vec<bool> = env
            .cluster
            .machine_ids()
            .map(|h| env.machine_usable(h))
            .collect();
        let mut caps_hash: u64 = 0xcbf29ce484222325;
        for h in env.cluster.machine_ids() {
            for r in env.cluster.catalog().ids() {
                caps_hash ^= u64::from(env.cluster.capacity(h, r)) + 1;
                caps_hash = caps_hash.wrapping_mul(0x100000001b3);
            }
        }
        Self { usable, caps_hash }
    }
}

/// Memo of [`find_candidates`] results, layered for reuse both within and
/// across scheduling rounds.
///
/// **Priced layer** (per round): full candidate lists keyed by
/// `(job, usage fingerprint)`. Within one round the prices, queue, and clock
/// are fixed, so a job's candidates depend only on the usage they are
/// evaluated against; the DP subroutine and its greedy floor walk usage
/// sequences that frequently coincide. Cleared by
/// [`CandidateCache::begin_round`] — prices change every round and the
/// profiler may substitute job profiles.
///
/// **Pool layer** (cross round): per-GPU-type sorted machine pools keyed by
/// `(type, `[`Usage::column_fingerprint`]`)`, valid as long as the
/// round context (availability mask, capacities) is unchanged. The greedy
/// admission loop mutates usage after every admission, so its full
/// fingerprints rarely repeat; but each admission touches only the columns
/// of the types it uses, so the *other* types' pools (and their
/// `O(M log M)` sorts, the dominant per-query cost at scale) carry over
/// unchanged. Entries idle for `POOL_KEEP_ROUNDS` (2) rounds are evicted.
///
/// Exactness: a cached pool is bit-identical to a freshly built one (the
/// key covers the entire column the pool was sorted from), and cached and
/// fresh pools feed the same generator and pricing code — so cache hits
/// are byte-identical to recomputation; only wall-clock changes.
#[derive(Default)]
pub struct CandidateCache {
    priced: HashMap<(u32, u64), Vec<Candidate>>,
    pools: HashMap<(GpuTypeId, u64), PoolEntry>,
    ctx: Option<CacheCtx>,
    round: u64,
    gen_seconds: f64,
}

impl CandidateCache {
    /// An empty cache. Usable as-is for a single round; call
    /// [`CandidateCache::begin_round`] between rounds to keep it alive
    /// across them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new scheduling round: clears the per-round priced layer,
    /// validates the pool layer against the round's environment (dropping
    /// it on any availability or capacity change), and evicts pools idle
    /// for `POOL_KEEP_ROUNDS` (2) rounds.
    pub fn begin_round(&mut self, env: &AllocEnv<'_>) {
        self.round += 1;
        self.priced.clear();
        let ctx = CacheCtx::of(env);
        if self.ctx.as_ref() != Some(&ctx) {
            self.pools.clear();
            self.ctx = Some(ctx);
        }
        let round = self.round;
        self.pools
            .retain(|_, e| e.last_used + POOL_KEEP_ROUNDS >= round);
    }

    /// The candidate list for `state` against `usage` (computed on first
    /// use), best payoff first.
    pub fn candidates(
        &mut self,
        state: &JobState,
        env: &AllocEnv<'_>,
        usage: &Usage,
    ) -> &[Candidate] {
        let key = (state.job.id.0, usage.fingerprint());
        if !self.priced.contains_key(&key) {
            let t0 = Instant::now();
            let geoms = self.pooled_geometries(state, env, usage);
            let cands = assemble(state, env, usage, &geoms);
            self.gen_seconds += t0.elapsed().as_secs_f64();
            self.priced.insert(key, cands);
        }
        &self.priced[&key]
    }

    /// [`fresh_geometries`] through the pool layer: any pool whose
    /// `(type, column fingerprint)` is cached is reused as-is; missing ones
    /// are built and cached.
    fn pooled_geometries(
        &mut self,
        state: &JobState,
        env: &AllocEnv<'_>,
        usage: &Usage,
    ) -> Vec<Vec<PlacementSlice>> {
        let prefs: &[GpuTypeId] = state.job.profile.types_by_preference();
        if prefs.is_empty() {
            return Vec::new();
        }
        for &r in prefs {
            self.pools
                .entry((r, usage.column_fingerprint(r)))
                .or_insert_with(|| build_pool(env, usage, r))
                .last_used = self.round;
        }
        let pools: Vec<&PoolEntry> = prefs
            .iter()
            .map(|&r| &self.pools[&(r, usage.column_fingerprint(r))])
            .collect();
        geometries_from_pools(state, env, usage, prefs, &pools)
    }

    /// The best positive-payoff candidate, as [`find_alloc`] returns it.
    pub fn best(
        &mut self,
        state: &JobState,
        env: &AllocEnv<'_>,
        usage: &Usage,
    ) -> Option<Candidate> {
        self.candidates(state, env, usage).first().cloned()
    }

    /// Total wall-clock seconds spent generating candidates over the
    /// cache's lifetime.
    pub fn gen_seconds(&self) -> f64 {
        self.gen_seconds
    }
}

/// All distinct positive-payoff candidate placements for `state`, best
/// first. The DP subroutine branches over these so it can deliberately give
/// a job a slower (cheaper) type when that frees a fast type for a job that
/// benefits more from it.
pub fn find_candidates(state: &JobState, env: &AllocEnv<'_>, usage: &Usage) -> Vec<Candidate> {
    assemble(state, env, usage, &fresh_geometries(state, env, usage))
}

/// The machines that can host type-`r` tasks at one usage column state,
/// most-free-first (machine id breaking ties) — the single ordering every
/// per-type generator consumes. Building one costs the `O(M log M)` sort
/// the pre-pool code paid inside *each* of `spread_homogeneous` and
/// `mixed_spread` per query; [`CandidateCache`] keys pools by
/// `(type, `[`Usage::column_fingerprint`]`)` so the sort is paid once per
/// column *change* (an admission touches only the columns of the types it
/// uses) instead of once per query.
struct PoolEntry {
    /// Usable machines with free type-`r` capacity: `(free, machine)`.
    by_free: Vec<(u32, MachineId)>,
    last_used: u64,
}

/// Enumerate and sort the usable free machines for type `r`.
fn build_pool(env: &AllocEnv<'_>, usage: &Usage, r: GpuTypeId) -> PoolEntry {
    let mut by_free: Vec<(u32, MachineId)> = env
        .cluster
        .machine_ids()
        .filter(|&h| env.machine_usable(h))
        .filter_map(|h| {
            let f = usage.free(env.cluster, h, r);
            (f > 0).then_some((f, h))
        })
        .collect();
    by_free.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    PoolEntry {
        by_free,
        last_used: 0,
    }
}

/// The job-independent geometry slate for `state` at `usage`, in
/// generation order: per preferred type a consolidated and a spread
/// placement, then the mixed-type variants. Builds throwaway machine pools;
/// the cache calls [`geometries_from_pools`] directly with memoized ones.
fn fresh_geometries(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
) -> Vec<Vec<PlacementSlice>> {
    let prefs: &[GpuTypeId] = state.job.profile.types_by_preference();
    let owned: Vec<PoolEntry> = prefs.iter().map(|&r| build_pool(env, usage, r)).collect();
    let pools: Vec<&PoolEntry> = owned.iter().collect();
    geometries_from_pools(state, env, usage, prefs, &pools)
}

/// [`fresh_geometries`] against pre-built per-type machine pools (`pools`
/// aligned with `prefs`). Pure in the pools: equal pool contents ⇒ equal
/// geometry, which is what lets the cache share pools across jobs, queries,
/// and rounds.
fn geometries_from_pools(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    prefs: &[GpuTypeId],
    pools: &[&PoolEntry],
) -> Vec<Vec<PlacementSlice>> {
    if prefs.is_empty() {
        return Vec::new();
    }
    let w = state.job.gang;
    let mut geoms: Vec<Vec<PlacementSlice>> = Vec::new();
    for (&r, pool) in prefs.iter().zip(pools) {
        geoms.extend(consolidated_homogeneous(env, usage, pool, r, w));
        geoms.extend(spread_homogeneous(pool, r, w));
    }
    if env.features.mixed_types {
        geoms.extend(mixed_spread(prefs, pools, w));
        geoms.extend(mixed_best_single_machine(state, env, usage, prefs, w));
    }
    geoms
}

/// Price, deduplicate, filter, and rank a geometry slate for one job: the
/// sticky candidate (if it still fits) followed by the generated geometries,
/// keeping the first occurrence of each distinct placement with positive
/// payoff, best payoff first — factored out so pooled and fresh geometry
/// price identically.
fn assemble(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    geoms: &[Vec<PlacementSlice>],
) -> Vec<Candidate> {
    let mut cands: Vec<Candidate> = Vec::new();
    let mut consider = |slices: Vec<PlacementSlice>| {
        if let Some(c) = evaluate(state, env, usage, slices) {
            if c.payoff > 0.0 && !cands.iter().any(|o| o.placement == c.placement) {
                cands.push(c);
            }
        }
    };

    // Sticky candidate: keep the current placement if it still fits (no
    // checkpoint stall, no movement).
    if env.features.sticky
        && !state.placement.is_empty()
        && fits(env.cluster, usage, &state.placement)
    {
        consider(state.placement.slices().to_vec());
    }
    for g in geoms {
        consider(g.clone());
    }

    cands.sort_by(|a, b| b.payoff.total_cmp(&a.payoff));
    cands
}

/// Price and score one candidate.
fn evaluate(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    slices: Vec<PlacementSlice>,
) -> Option<Candidate> {
    let placement = JobPlacement::from_slices(slices);
    if placement.total_workers() != state.job.gang {
        return None;
    }
    let changed = placement != state.placement;
    let bottleneck = placement
        .bottleneck_rate_per_slice(|h, r| state.job.profile.rate(r) * env.machine_factor(h))?;
    if bottleneck <= 0.0 {
        return None;
    }
    let rate = bottleneck
        * state.job.gang as f64
        * env
            .comm
            .placement_factor_racked(&placement, env.cluster.racks());
    let stall = if changed { env.realloc_stall } else { 0.0 };
    let est = estimate_completion(state, rate, env.now, stall)?;
    let utility = env.utility.value(&state.job, est.jct, est.finish);
    let resource_cost = price_of(env, usage, &placement);
    let comm_cost = env.comm.comm_cost(
        placement.num_machines(),
        resource_cost,
        placement.total_workers(),
    );
    Some(Candidate {
        payoff: utility - resource_cost - comm_cost,
        placement,
        rate,
        utility,
        resource_cost,
        comm_cost,
        changed,
    })
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

/// Whether `placement` fits within the free capacity left by `usage`.
pub fn fits(cluster: &Cluster, usage: &Usage, placement: &JobPlacement) -> bool {
    placement
        .slices()
        .iter()
        .all(|s| usage.free(cluster, s.machine, s.gpu) >= s.count)
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
/// cheaper replaces, ties keep the earlier machine — the float argmin's
/// behaviour exactly.
fn consolidated_homogeneous(
    env: &AllocEnv<'_>,
    usage: &Usage,
    pool: &PoolEntry,
    r: GpuTypeId,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    let shape = env.prices.shape(r);
    // Cost key `(rank, γ, c)`: rank 0 ⇔ price exactly 0.0; within rank 1,
    // `a < b ⇔ γ_a·c_b < γ_b·c_a` (constant shapes use γ = 0, c = 1 so all
    // compare equal). The pool holds every usable machine with free > 0 and
    // the gang size is ≥ 1, so scanning it visits exactly the machines the
    // full cluster scan would admit; ties break on machine id explicitly
    // because the pool is not in id order.
    let mut best: Option<(u8, u64, u64, MachineId)> = None;
    for &(free, h) in &pool.by_free {
        if free < w {
            continue;
        }
        let cap = env.cluster.capacity(h, r);
        let key: (u8, u64, u64) = if cap == 0 || shape == PriceShape::Zero {
            (0, 0, 1)
        } else if shape == PriceShape::Constant {
            (1, 0, 1)
        } else {
            (1, u64::from(usage.get(h, r).min(cap)), u64::from(cap))
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
fn spread_homogeneous(pool: &PoolEntry, r: GpuTypeId, w: u32) -> Option<Vec<PlacementSlice>> {
    fill(pool.by_free.iter().map(|&(f, h)| (h, r, f)), w)
}

/// All `w` workers filled from the fastest types first, spreading over
/// machines as needed — the fully flexible task-level placement.
fn mixed_spread(prefs: &[GpuTypeId], pools: &[&PoolEntry], w: u32) -> Option<Vec<PlacementSlice>> {
    fill(
        prefs
            .iter()
            .zip(pools)
            .flat_map(|(&r, p)| p.by_free.iter().map(move |&(f, h)| (h, r, f))),
        w,
    )
}

/// All `w` workers on a single machine, mixing types (fastest first);
/// evaluated per machine, returning the feasible fill with the highest
/// bottleneck throughput (ties to lower machine id).
fn mixed_best_single_machine(
    state: &JobState,
    env: &AllocEnv<'_>,
    usage: &Usage,
    prefs: &[GpuTypeId],
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    // Pass 1: score every machine without materializing its fill — the
    // fill is a pure function of `(machine, prefs, w)`, so only the winner's
    // needs to be built. (The previous version allocated a slice vector per
    // machine; at cluster scale that allocation churn dominated candidate
    // generation.)
    let mut best: Option<(f64, MachineId)> = None;
    for h in env.cluster.machine_ids() {
        if !env.machine_usable(h) {
            continue;
        }
        let mut remaining = w;
        let mut bottleneck = f64::INFINITY;
        for &r in prefs {
            if remaining == 0 {
                break;
            }
            let free = usage.free(env.cluster, h, r);
            let take = free.min(remaining);
            if take > 0 {
                bottleneck = bottleneck.min(state.job.profile.rate(r) * env.machine_factor(h));
                remaining -= take;
            }
        }
        if remaining == 0 && best.as_ref().is_none_or(|(b, _)| bottleneck > *b) {
            best = Some((bottleneck, h));
        }
    }
    // Pass 2: rebuild the winning machine's fill (deterministically the
    // same takes pass 1 scored).
    best.map(|(_, h)| {
        let mut remaining = w;
        let mut slices = Vec::new();
        for &r in prefs {
            if remaining == 0 {
                break;
            }
            let take = usage.free(env.cluster, h, r).min(remaining);
            if take > 0 {
                slices.push(PlacementSlice {
                    machine: h,
                    gpu: r,
                    count: take,
                });
                remaining -= take;
            }
        }
        slices
    })
}

/// Take from `(machine, type, available)` entries in order until `w` workers
/// are placed; `None` if the pool is too small.
fn fill(
    pool: impl Iterator<Item = (MachineId, GpuTypeId, u32)>,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    let mut remaining = w;
    let mut slices = Vec::new();
    for (machine, gpu, avail) in pool {
        if remaining == 0 {
            break;
        }
        let take = avail.min(remaining);
        if take > 0 {
            slices.push(PlacementSlice {
                machine,
                gpu,
                count: take,
            });
            remaining -= take;
        }
    }
    (remaining == 0).then_some(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::EffectiveThroughput;
    use hadar_cluster::JobId;
    use hadar_workload::{DlTask, Job};

    fn setup(gang: u32) -> (Cluster, JobState) {
        let cluster = Cluster::motivation_toy(); // 2 V100 | 3 P100 | 1 K80
        let job = Job::for_model(JobId(0), DlTask::ResNet18, cluster.catalog(), 0.0, gang, 50);
        (cluster, JobState::new(job))
    }

    fn env<'a>(
        cluster: &'a Cluster,
        comm: &'a CommCostModel,
        prices: &'a PriceState,
        utility: &'a EffectiveThroughput,
    ) -> AllocEnv<'a> {
        AllocEnv {
            cluster,
            comm,
            prices,
            utility,
            now: 0.0,
            realloc_stall: 10.0,
            features: Features::default(),
            machine_factors: &[],
        }
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
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("positive payoff expected");
        // Both V100s on machine 0: consolidated, fastest.
        assert!(c.placement.is_consolidated());
        assert_eq!(c.placement.gpu_types(), vec![GpuTypeId(0)]);
        assert_eq!(c.placement.total_workers(), 2);
        assert!(c.payoff > 0.0);
        assert!(c.comm_cost == 0.0);
    }

    #[test]
    fn large_gang_mixes_types_when_needed() {
        // Gang of 6 needs every GPU in the toy cluster: must mix all types.
        let (cluster, state) = setup(6);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let c = find_alloc(&state, &e, &usage).expect("only mixed placement fits");
        assert_eq!(c.placement.total_workers(), 6);
        assert_eq!(c.placement.gpu_types().len(), 3);
        // Rate = bottleneck (K80 = 20 it/s) × 6 × comm factor (3 machines).
        let expect = 20.0 * 6.0 * comm.throughput_factor(3);
        assert!((c.rate - expect).abs() < 1e-9, "rate={}", c.rate);
    }

    #[test]
    fn respects_existing_usage() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let mut usage = Usage::empty(&cluster);
        // Occupy both V100s: the job must fall back to P100s.
        usage.add(MachineId(0), GpuTypeId(0), 2);
        let c = find_alloc(&state, &e, &usage).expect("P100s are free");
        assert_eq!(c.placement.gpu_types(), vec![GpuTypeId(1)]);
    }

    #[test]
    fn none_when_nothing_fits() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
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
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
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
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        // Currently on the K80 (20 it/s); V100 (120 it/s) is free. The gain
        // dwarfs the 10 s checkpoint stall for this 50-epoch job.
        state.placement = JobPlacement::single(MachineId(2), GpuTypeId(2), 1);
        let c = find_alloc(&state, &e, &usage).unwrap();
        assert!(c.changed);
        assert_eq!(c.placement.gpu_types(), vec![GpuTypeId(0)]);
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
        let comm = CommCostModel::default();
        let prices = PriceState::compute(
            std::slice::from_ref(&state),
            &cluster,
            &EffectiveThroughput,
            0.0,
        );
        let factors = [0.3, 1.0];
        let e = AllocEnv {
            cluster: &cluster,
            comm: &comm,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            realloc_stall: 10.0,
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
        let comm = CommCostModel::default();
        let prices = PriceState::compute(
            std::slice::from_ref(&state),
            &cluster,
            &EffectiveThroughput,
            0.0,
        );
        let factors = [0.0, 1.0];
        let e = AllocEnv {
            cluster: &cluster,
            comm: &comm,
            prices: &prices,
            utility: &EffectiveThroughput,
            now: 0.0,
            realloc_stall: 10.0,
            features: Features::default(),
            machine_factors: &factors,
        };
        let usage = Usage::empty(&cluster);
        let cands = find_candidates(&state, &e, &usage);
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
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let p = JobPlacement::single(MachineId(0), GpuTypeId(0), 2);
        let got = price_of(&e, &usage, &p);
        let unit = prices.price(GpuTypeId(0), 0, 2);
        assert!((got - 2.0 * unit).abs() < 1e-12);
    }

    #[test]
    fn candidate_cache_memoizes_per_state() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let mut cache = CandidateCache::new();

        let direct = find_candidates(&state, &e, &usage);
        assert_eq!(cache.candidates(&state, &e, &usage), direct.as_slice());
        assert_eq!(cache.priced.len(), 1);
        // Same (job, usage) again: answered from the memo, same content.
        assert_eq!(cache.candidates(&state, &e, &usage), direct.as_slice());
        // `best` agrees with `find_alloc`.
        assert_eq!(
            cache.best(&state, &e, &usage),
            find_alloc(&state, &e, &usage)
        );
        assert_eq!(cache.priced.len(), 1);

        // A different usage state is a distinct key.
        let mut used = usage.clone();
        used.add(MachineId(0), GpuTypeId(0), 2);
        assert_eq!(
            cache.candidates(&state, &e, &used),
            find_candidates(&state, &e, &used).as_slice()
        );
        assert_eq!(cache.priced.len(), 2);
    }

    #[test]
    fn pools_carry_across_rounds_and_stay_exact() {
        // An admission on V100s changes only the V100 column, so the P100
        // and K80 pools built at the empty state serve the next query and
        // the next round unchanged — with candidate lists identical to the
        // uncached enumeration.
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let empty = Usage::empty(&cluster);
        let mut used = empty.clone();
        used.add(MachineId(0), GpuTypeId(0), 1);
        let mut cache = CandidateCache::new();

        cache.begin_round(&e);
        cache.candidates(&state, &e, &empty);
        assert_eq!(cache.pools.len(), 3);
        assert_eq!(
            cache.candidates(&state, &e, &used),
            find_candidates(&state, &e, &used).as_slice()
        );
        assert_eq!(cache.pools.len(), 4, "only the V100 pool is rebuilt");

        cache.begin_round(&e);
        assert_eq!(cache.priced.len(), 0, "priced layer is per round");
        assert_eq!(
            cache.candidates(&state, &e, &used),
            find_candidates(&state, &e, &used).as_slice()
        );
        assert_eq!(cache.pools.len(), 4);
    }

    #[test]
    fn availability_change_drops_pools() {
        // A machine going down must never be served from a pool sorted
        // while it was up.
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let healthy = env(&cluster, &comm, &prices, &u);
        let factors = [0.0, 1.0, 1.0];
        let failed = AllocEnv {
            machine_factors: &factors,
            ..env(&cluster, &comm, &prices, &u)
        };
        let usage = Usage::empty(&cluster);
        let mut cache = CandidateCache::new();

        cache.begin_round(&healthy);
        cache.candidates(&state, &healthy, &usage);
        cache.begin_round(&failed);
        assert!(cache.pools.is_empty());
        let cands = cache.candidates(&state, &failed, &usage);
        assert_eq!(cands, find_candidates(&state, &failed, &usage).as_slice());
        assert!(cands.iter().all(|c| c
            .placement
            .slices()
            .iter()
            .all(|s| s.machine != MachineId(0))));
    }

    #[test]
    fn idle_pools_are_evicted() {
        let (cluster, state) = setup(2);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let usage = Usage::empty(&cluster);
        let mut cache = CandidateCache::new();

        cache.begin_round(&e);
        cache.candidates(&state, &e, &usage);
        assert_eq!(cache.pools.len(), 3);
        // Kept while idle for up to POOL_KEEP_ROUNDS rounds…
        for _ in 0..POOL_KEEP_ROUNDS {
            cache.begin_round(&e);
        }
        assert_eq!(cache.pools.len(), 3);
        // …and evicted one round later.
        cache.begin_round(&e);
        assert!(cache.pools.is_empty());
    }

    #[test]
    #[ignore = "manual perf probe"]
    fn perf_probe_component_breakdown() {
        use std::time::Instant;
        let cluster = Cluster::scaled(64);
        let models = [
            DlTask::ResNet18,
            DlTask::ResNet50,
            DlTask::Lstm,
            DlTask::Transformer,
        ];
        let states: Vec<JobState> = (0..600)
            .map(|i| {
                JobState::new(Job::for_model(
                    JobId(i as u32),
                    models[i % models.len()],
                    cluster.catalog(),
                    0.0,
                    [1, 2, 4, 8][i % 4],
                    40 + (i as u64 % 50),
                ))
            })
            .collect();
        let comm = CommCostModel::default();
        let prices = PriceState::compute(&states, &cluster, &EffectiveThroughput, 0.0);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        let mut usage = Usage::empty(&cluster);
        let (mut t_pool, mut t_cons, mut t_spread, mut t_mixed, mut t_single, mut t_asm) =
            (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut queries = 0usize;
        for s in &states {
            if usage.is_cluster_full(&cluster) {
                break;
            }
            queries += 1;
            let prefs = s.job.profile.types_by_preference();
            let w = s.job.gang;
            let t0 = Instant::now();
            let owned: Vec<PoolEntry> = prefs.iter().map(|&r| build_pool(&e, &usage, r)).collect();
            let pools: Vec<&PoolEntry> = owned.iter().collect();
            t_pool += t0.elapsed().as_secs_f64();
            let mut geoms = Vec::new();
            let t0 = Instant::now();
            for (&r, p) in prefs.iter().zip(&pools) {
                geoms.extend(consolidated_homogeneous(&e, &usage, p, r, w));
            }
            t_cons += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            for (&r, p) in prefs.iter().zip(&pools) {
                geoms.extend(spread_homogeneous(p, r, w));
            }
            t_spread += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            geoms.extend(mixed_spread(prefs, &pools, w));
            t_mixed += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            geoms.extend(mixed_best_single_machine(s, &e, &usage, prefs, w));
            t_single += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let cands = assemble(s, &e, &usage, &geoms);
            t_asm += t0.elapsed().as_secs_f64();
            if let Some(c) = cands.first() {
                if c.payoff > 0.0 {
                    for sl in c.placement.slices() {
                        usage.add(sl.machine, sl.gpu, sl.count);
                    }
                }
            }
        }
        let us = |t: f64| t / queries as f64 * 1e6;
        eprintln!(
            "{queries} queries: pool {:.2}us cons {:.2}us spread {:.2}us mixed {:.2}us single {:.2}us assemble {:.2}us",
            us(t_pool), us(t_cons), us(t_spread), us(t_mixed), us(t_single), us(t_asm),
        );
    }

    #[test]
    fn unrunnable_job_gets_nothing() {
        let cluster = Cluster::motivation_toy();
        let profile = hadar_workload::ThroughputProfile::from_rates(vec![0.0, 0.0, 0.0]);
        let job = Job::new(JobId(0), DlTask::Lstm, 0.0, 1, 1, 10, profile);
        let state = JobState::new(job);
        let comm = CommCostModel::default();
        let prices = prices_for(&cluster, &state);
        let u = EffectiveThroughput;
        let e = env(&cluster, &comm, &prices, &u);
        assert_eq!(find_alloc(&state, &e, &Usage::empty(&cluster)), None);
    }
}
