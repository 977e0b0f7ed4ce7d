//! Gang placement: the one most-free-first fill every policy shares.
//!
//! Every scheduler in the workspace places a gang by the same rule: take
//! up machines that have free GPUs, most free first (lower machine id on
//! ties), and fill until the gang is complete. [`Placer`] is that rule,
//! written once. It owns the round's [`Usage`] and keeps the machines in
//! that order in pools updated in step with it: one pool per GPU type, and
//! one of machines by their free GPUs of every type. A pool is sorted once,
//! when a query first needs it; [`Placer::add`] then moves just the
//! machines an admission touches, so no later query scans or sorts the
//! whole cluster.

use std::cell::OnceCell;
use std::cmp::Reverse;
use std::ops::ControlFlow;
use std::rc::Rc;

use crate::allocation::{JobPlacement, PlacementSlice};
use crate::catalog::GpuTypeId;
use crate::cluster::Cluster;
use crate::machine::MachineId;
use crate::usage::Usage;

/// Machines as `(free, machine)`, most free first, lower id on ties.
type Pool = Vec<(u32, MachineId)>;

/// The round's usage and its machine pools, kept in step. A pool holds the
/// up machines with free GPUs. Cloning it is how a search branches (Hadar's
/// DP does so at each branch).
///
/// Each kind of pool is built on first use: a policy that never asks for
/// it never pays for keeping it in step. Hadar, Gavel and SRTF read only
/// the per-type pools, Tiresias and YARN-CS only the machine pool; every
/// admission of theirs would otherwise move machines in a pool no query
/// reads.
#[derive(Debug, Clone)]
pub struct Placer<'a> {
    cluster: &'a Cluster,
    usage: Usage,
    /// Indexed by machine: whether it may host tasks. Shared by clones.
    up: Rc<[bool]>,
    /// Indexed by GPU type: free GPUs of that type.
    pools: OnceCell<Vec<Pool>>,
    /// Free GPUs of every type, the order [`Placer::any_type`] walks.
    machines: OnceCell<Pool>,
    /// Free GPUs on the up machines, all types.
    up_free: u32,
}

impl<'a> Placer<'a> {
    /// A placer at `usage` over the machines `up` admits. `usage` must
    /// hold no more than a machine's capacity of any type, which holds
    /// whenever it grows only by placements this placer produced or
    /// [`Placer::fits`] admitted.
    pub fn new(cluster: &'a Cluster, usage: Usage, up: impl Fn(MachineId) -> bool) -> Self {
        let up: Rc<[bool]> = cluster.machine_ids().map(up).collect();
        let up_free = cluster
            .machine_ids()
            .filter(|h| up[h.index()])
            .map(|h| usage.free_on_machine(cluster, h))
            .sum();
        Self {
            cluster,
            usage,
            up,
            pools: OnceCell::new(),
            machines: OnceCell::new(),
            up_free,
        }
    }

    /// The usage the pools are in step with.
    #[inline]
    pub fn usage(&self) -> &Usage {
        &self.usage
    }

    /// The up machines with free type-`r` GPUs as `(free, machine)`, most
    /// free first, lower id on ties.
    #[inline]
    pub fn pool(&self, r: GpuTypeId) -> &[(u32, MachineId)] {
        &self.pools.get_or_init(|| self.type_pools())[r.index()]
    }

    /// Every type's pool, sorted at the current usage.
    fn type_pools(&self) -> Vec<Pool> {
        let (cluster, usage) = (self.cluster, &self.usage);
        cluster
            .catalog()
            .ids()
            .map(|r| self.sorted_pool(|h| usage.free(cluster, h, r)))
            .collect()
    }

    /// The up machines with free GPUs of any type as `(free, machine)`, in
    /// the same order.
    fn machines(&self) -> &[(u32, MachineId)] {
        self.machines
            .get_or_init(|| self.sorted_pool(|h| self.usage.free_on_machine(self.cluster, h)))
    }

    /// The up machines with `free(h) > 0` as `(free, machine)`, sorted by
    /// [`most_free_key`].
    fn sorted_pool(&self, free: impl Fn(MachineId) -> u32) -> Pool {
        let mut pool: Pool = self
            .cluster
            .machine_ids()
            .filter(|h| self.up[h.index()])
            .filter_map(|h| {
                let f = free(h);
                (f > 0).then_some((f, h))
            })
            .collect();
        pool.sort_unstable_by_key(most_free_key);
        pool
    }

    /// Occupy `placement`'s GPUs: each slice's machine moves down every
    /// built pool to its new free count, or leaves it when none is left.
    /// Every slice must come from this placer's answers at its current
    /// usage or pass [`Placer::fits`], so its machine is in the pools with
    /// at least `count` free.
    pub fn add(&mut self, placement: &JobPlacement) {
        for s in placement.slices() {
            let (h, r) = (s.machine, s.gpu);
            let free = self.usage.free(self.cluster, h, r);
            if self.up[h.index()] {
                self.up_free -= s.count.min(free);
            }
            if let Some(pools) = self.pools.get_mut() {
                take(&mut pools[r.index()], h, free, s.count);
            }
            if let Some(machines) = self.machines.get_mut() {
                let total = self.usage.free_on_machine(self.cluster, h);
                take(machines, h, total, s.count);
            }
            self.usage.add(h, r, s.count);
        }
    }

    /// Free GPUs on the up machines, all types, in O(1): kept in step by
    /// [`Placer::add`]. It bounds what any placement can take, so once it
    /// is 0 nothing more can be placed or kept this round, and a gang
    /// larger than it fails without walking a pool.
    #[inline]
    pub fn up_free(&self) -> u32 {
        self.up_free
    }

    /// All `gang` workers on type `r`, most-free machines first; `None`
    /// when the up machines hold fewer than `gang` free type-`r` GPUs.
    pub fn single_type(&self, r: GpuTypeId, gang: u32) -> Option<JobPlacement> {
        if self.up_free < gang {
            return None;
        }
        let entries = self.pool(r).iter().map(|&(f, h)| (h, r, f));
        placement(entries, gang)
    }

    /// All `gang` workers on any types `usable` admits: machines ordered by
    /// their free GPUs of every type, most free first, and each machine's
    /// types taken in catalog order. `None` when the up machines hold fewer
    /// than `gang` free GPUs of usable types.
    pub fn any_type(&self, gang: u32, usable: impl Fn(GpuTypeId) -> bool) -> Option<JobPlacement> {
        if self.up_free < gang {
            return None;
        }
        let (cluster, usage, usable) = (self.cluster, &self.usage, &usable);
        let entries = self.machines().iter().flat_map(move |&(_, h)| {
            cluster
                .catalog()
                .ids()
                .filter(move |&r| usable(r))
                .map(move |r| (h, r, usage.free(cluster, h, r)))
        });
        placement(entries, gang)
    }

    /// Whether every slice of `placement` sits on an up machine with at
    /// least its count free — the "keep the sticky placement" check.
    pub fn fits(&self, placement: &JobPlacement) -> bool {
        placement.slices().iter().all(|s| {
            self.up[s.machine.index()] && self.usage.free(self.cluster, s.machine, s.gpu) >= s.count
        })
    }
}

/// The placement order as a sort key on `(free, machine)` pairs: most free
/// first, lower machine id on ties. Pools kept sorted by this key find and
/// reinsert a machine by binary search.
#[inline]
fn most_free_key(&(free, h): &(u32, MachineId)) -> (Reverse<u32>, MachineId) {
    (Reverse(free), h)
}

/// Move machine `h`, in `pool` at `free`, to `free − count`, or out of the
/// pool when that is 0.
fn take(pool: &mut Pool, h: MachineId, free: u32, count: u32) {
    let key = most_free_key(&(free, h));
    let at = pool.partition_point(|e| most_free_key(e) < key);
    debug_assert!(
        count <= free && pool.get(at) == Some(&(free, h)),
        "machine {h:?} does not hold {count} free GPUs in its pool"
    );
    let left = free - count;
    if left == 0 {
        pool.remove(at);
    } else {
        let key = most_free_key(&(left, h));
        let to = at + pool[at..].partition_point(|e| most_free_key(e) < key);
        pool[at..to].rotate_left(1);
        pool[to - 1] = (left, h);
    }
}

/// [`fill`] into a new placement; `None` if the entries run out first.
fn placement(
    entries: impl IntoIterator<Item = (MachineId, GpuTypeId, u32)>,
    w: u32,
) -> Option<JobPlacement> {
    let mut slices = Vec::new();
    fill(entries, w, &mut slices).then(|| JobPlacement::from_slices(slices))
}

/// Take from `(machine, type, free)` entries in order until `w` workers
/// are placed, replacing the contents of `slices` with what was taken;
/// `false` if the entries run out first.
pub fn fill(
    entries: impl IntoIterator<Item = (MachineId, GpuTypeId, u32)>,
    w: u32,
    slices: &mut Vec<PlacementSlice>,
) -> bool {
    let mut remaining = w;
    slices.clear();
    // `try_for_each` iterates nested entry sources (`flat_map`) internally,
    // which compiles to tighter loops than pulling them with `next`.
    let _ = entries.into_iter().try_for_each(|(machine, gpu, free)| {
        let take = free.min(remaining);
        if take > 0 {
            slices.push(PlacementSlice {
                machine,
                gpu,
                count: take,
            });
            remaining -= take;
        }
        if remaining == 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    remaining == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    /// Machines 0..4 with `[(A, B)]` capacities: (2, 1), (4, 0), (2, 2),
    /// (3, 0).
    fn cl() -> (Cluster, GpuTypeId, GpuTypeId) {
        let mut b = ClusterBuilder::new();
        let a = b.gpu_type("A");
        let c = b.gpu_type("B");
        b.machine(&[(a, 2), (c, 1)]);
        b.machine(&[(a, 4)]);
        b.machine(&[(a, 2), (c, 2)]);
        b.machine(&[(a, 3)]);
        (b.build(), a, c)
    }

    fn ids(v: &[(u32, MachineId)]) -> Vec<(u32, u32)> {
        v.iter().map(|&(f, h)| (f, h.0)).collect()
    }

    fn slice(h: u32, r: GpuTypeId, count: u32) -> PlacementSlice {
        PlacementSlice {
            machine: MachineId(h),
            gpu: r,
            count,
        }
    }

    #[test]
    fn machine_order_is_most_free_first_then_lower_id() {
        let (cl, a, c) = cl();
        let mut busy = Usage::empty(&cl);
        busy.add(MachineId(1), a, 1);
        let idle = Usage::empty(&cl);
        // (up machines, usage, type, expected `(free, machine)` order)
        type Case<'a> = (&'a [u32], &'a Usage, GpuTypeId, &'a [(u32, u32)]);
        let cases: [Case; 5] = [
            (&[0, 1, 2, 3], &idle, a, &[(4, 1), (3, 3), (2, 0), (2, 2)]),
            (&[0, 1, 2, 3], &busy, a, &[(3, 1), (3, 3), (2, 0), (2, 2)]),
            (&[0, 2, 3], &busy, a, &[(3, 3), (2, 0), (2, 2)]),
            (&[0, 1, 2, 3], &busy, c, &[(2, 2), (1, 0)]),
            (&[1, 3], &busy, c, &[]),
        ];
        for (up, usage, r, want) in cases {
            let placer = Placer::new(&cl, usage.clone(), |h: MachineId| up.contains(&h.0));
            assert_eq!(ids(placer.pool(r)), want, "up {up:?}, type {r:?}");
        }
    }

    #[test]
    fn single_type_fills_in_order_and_fails_exactly_below_free() {
        let (cl, a, c) = cl();
        let usage = Usage::empty(&cl);
        // (up machines, type, usable free GPUs of that type)
        let cases: [(&[u32], GpuTypeId, u32); 4] = [
            (&[0, 1, 2, 3], a, 11),
            (&[0, 2, 3], a, 7),
            (&[0, 1, 2, 3], c, 3),
            (&[1, 3], c, 0),
        ];
        for (up, r, free) in cases {
            let placer = Placer::new(&cl, usage.clone(), |h: MachineId| up.contains(&h.0));
            for gang in 1..=free + 2 {
                let got = placer.single_type(r, gang);
                assert_eq!(got.is_some(), gang <= free, "up {up:?}, {r:?}, gang {gang}");
                if let Some(p) = got {
                    assert_eq!(p.total_workers(), gang);
                    assert!(p.slices().iter().all(|s| s.gpu == r));
                    assert!(placer.fits(&p));
                }
            }
        }
        // The fill takes whole machines in the shared order (4, 3, then 1
        // of machine 0's 2, which wins the tie with machine 2 on id).
        let placer = Placer::new(&cl, usage, |_| true);
        let p = placer.single_type(a, 8).unwrap();
        let got: Vec<(u32, u32)> = p.slices().iter().map(|s| (s.machine.0, s.count)).collect();
        assert_eq!(got, vec![(0, 1), (1, 4), (3, 3)]);
    }

    #[test]
    fn used_and_full_clusters_fail_exactly_below_free() {
        let (cl, a, c) = cl();
        let mut used = Usage::empty(&cl);
        used.add(MachineId(0), a, 1);
        used.add(MachineId(1), a, 4);
        used.add(MachineId(2), c, 2);
        let mut full = Usage::empty(&cl);
        for h in cl.machine_ids() {
            for r in [a, c] {
                full.add(h, r, cl.capacity(h, r));
            }
        }
        // (usage, free type-A GPUs, free type-B GPUs, free GPUs of any type)
        for (usage, free_a, free_c, free_any) in [(&used, 6, 1, 7), (&full, 0, 0, 0)] {
            let placer = Placer::new(&cl, usage.clone(), |_| true);
            for gang in 0..=free_any + 2 {
                let single = |r, free| (placer.single_type(r, gang).is_some(), gang <= free);
                let (got, want) = single(a, free_a);
                assert_eq!(got, want, "type A, gang {gang}");
                let (got, want) = single(c, free_c);
                assert_eq!(got, want, "type B, gang {gang}");
                let got = placer.any_type(gang, |_| true);
                assert_eq!(got.is_some(), gang <= free_any, "any type, gang {gang}");
            }
        }
    }

    #[test]
    fn any_type_skips_unusable_types_and_fails_exactly_below_free() {
        let (cl, a, c) = cl();
        let usage = Usage::empty(&cl);
        // (up machines, usable types, usable free GPUs)
        let cases: [(&[u32], &[GpuTypeId], u32); 5] = [
            (&[0, 1, 2, 3], &[a, c], 14),
            (&[0, 1, 2, 3], &[a], 11),
            (&[0, 1, 2, 3], &[c], 3),
            (&[0, 2], &[a, c], 7),
            (&[1, 3], &[c], 0),
        ];
        for (up, usable, free) in cases {
            let placer = Placer::new(&cl, usage.clone(), |h: MachineId| up.contains(&h.0));
            for gang in 1..=free + 2 {
                let got = placer.any_type(gang, |r| usable.contains(&r));
                assert_eq!(
                    got.is_some(),
                    gang <= free,
                    "up {up:?}, {usable:?}, gang {gang}"
                );
                if let Some(p) = got {
                    assert_eq!(p.total_workers(), gang);
                    assert!(p.slices().iter().all(|s| usable.contains(&s.gpu)));
                    assert!(placer.fits(&p));
                }
            }
        }
        // Machines ordered by free GPUs of every type (1 and 2 hold 4, then
        // 0 and 3 hold 3; ties to the lower id), each machine's types in
        // catalog order, type B skipped when unusable. Slices list by
        // machine; the last machine filled gives only what is still needed.
        let placer = Placer::new(&cl, usage, |_| true);
        let slices = |p: JobPlacement| -> Vec<(u32, u16, u32)> {
            p.slices()
                .iter()
                .map(|s| (s.machine.0, s.gpu.0, s.count))
                .collect()
        };
        let p = placer.any_type(9, |_| true).unwrap();
        assert_eq!(slices(p), vec![(0, 0, 1), (1, 0, 4), (2, 0, 2), (2, 1, 2)]);
        let p = placer.any_type(9, |r| r == a).unwrap();
        assert_eq!(slices(p), vec![(0, 0, 2), (1, 0, 4), (2, 0, 2), (3, 0, 1)]);
    }

    #[test]
    fn fits_rejects_down_machines_and_over_capacity_slices() {
        let (cl, a, c) = cl();
        let mut usage = Usage::empty(&cl);
        usage.add(MachineId(0), a, 1);
        let one = |h, r, count| JobPlacement::from_slices([slice(h, r, count)]);
        // (placement, machine 1 up, fits)
        let cases = [
            (one(0, a, 1), true, true),
            (one(0, a, 2), true, false),
            (one(1, a, 4), true, true),
            (one(1, a, 4), false, false),
            (one(1, c, 1), true, false),
            (JobPlacement::empty(), false, true),
        ];
        for (p, up1, want) in cases {
            let placer = Placer::new(&cl, usage.clone(), |h: MachineId| up1 || h.0 != 1);
            assert_eq!(placer.fits(&p), want, "{p:?}, machine 1 up: {up1}");
        }
    }

    #[test]
    fn add_moves_machines_to_their_new_free_count() {
        let (cl, a, c) = cl();
        // (slices added in one placement, expected type-A pool, type-B
        // pool, machine pool)
        type Case = (
            &'static [(u32, u16, u32)],
            &'static [(u32, u32)],
            &'static [(u32, u32)],
            &'static [(u32, u32)],
        );
        let cases: [Case; 8] = [
            (
                &[],
                &[(4, 1), (3, 3), (2, 0), (2, 2)],
                &[(2, 2), (1, 0)],
                &[(4, 1), (4, 2), (3, 0), (3, 3)],
            ),
            // Reinsertion onto a tie goes before the higher id…
            (
                &[(1, 0, 1)],
                &[(3, 1), (3, 3), (2, 0), (2, 2)],
                &[(2, 2), (1, 0)],
                &[(4, 2), (3, 0), (3, 1), (3, 3)],
            ),
            // …and after the lower ones.
            (
                &[(1, 0, 2)],
                &[(3, 3), (2, 0), (2, 1), (2, 2)],
                &[(2, 2), (1, 0)],
                &[(4, 2), (3, 0), (3, 3), (2, 1)],
            ),
            (
                &[(3, 0, 1)],
                &[(4, 1), (2, 0), (2, 2), (2, 3)],
                &[(2, 2), (1, 0)],
                &[(4, 1), (4, 2), (3, 0), (2, 3)],
            ),
            (
                &[(0, 0, 1)],
                &[(4, 1), (3, 3), (2, 2), (1, 0)],
                &[(2, 2), (1, 0)],
                &[(4, 1), (4, 2), (3, 3), (2, 0)],
            ),
            // A machine with no free GPUs left drops out of the pool.
            (
                &[(1, 0, 4)],
                &[(3, 3), (2, 0), (2, 2)],
                &[(2, 2), (1, 0)],
                &[(4, 2), (3, 0), (3, 3)],
            ),
            (
                &[(0, 1, 1), (2, 1, 1)],
                &[(4, 1), (3, 3), (2, 0), (2, 2)],
                &[(1, 2)],
                &[(4, 1), (3, 2), (3, 3), (2, 0)],
            ),
            // Slices of several types and machines in one placement.
            (
                &[(1, 0, 3), (2, 0, 2), (2, 1, 2)],
                &[(3, 3), (2, 0), (1, 1)],
                &[(1, 0)],
                &[(3, 0), (3, 3), (1, 1)],
            ),
        ];
        // Pools built before the admission move in step; pools built
        // after it are sorted at the new usage. Both read the same.
        for (slices, want_a, want_b, want_machines) in cases {
            for built_first in [true, false] {
                let mut placer = Placer::new(&cl, Usage::empty(&cl), |_| true);
                if built_first {
                    placer.pool(a);
                    placer.machines();
                }
                let placement = JobPlacement::from_slices(
                    slices.iter().map(|&(h, r, n)| slice(h, GpuTypeId(r), n)),
                );
                placer.add(&placement);
                let what = format!("add {slices:?}, built first: {built_first}");
                assert_eq!(ids(placer.pool(a)), want_a, "{what}");
                assert_eq!(ids(placer.pool(c)), want_b, "{what}");
                assert_eq!(ids(placer.machines()), want_machines, "{what}");
                let want_used: u32 = slices.iter().map(|&(_, _, n)| n).sum();
                assert_eq!(placer.usage().total_used(), want_used);
            }
        }
    }

    /// Every pool `placer` has built equals the one a fresh build at its
    /// usage makes; returns how many kinds of pool it compared.
    fn assert_in_step(placer: &Placer<'_>, up: impl Fn(MachineId) -> bool, what: &str) -> usize {
        let fresh = Placer::new(placer.cluster, placer.usage.clone(), up);
        let mut compared = 0;
        if let Some(pools) = placer.pools.get() {
            for r in placer.cluster.catalog().ids() {
                assert_eq!(pools[r.index()], fresh.pool(r), "{what}: type {r:?}");
            }
            compared += 1;
        }
        if let Some(machines) = placer.machines.get() {
            assert_eq!(machines, fresh.machines(), "{what}: machine pool");
            compared += 1;
        }
        compared
    }

    /// The placement order by its definition: every up machine with
    /// `free(h) > 0`, scanned in id order and sorted by [`most_free_key`].
    fn scan_and_sort(
        cluster: &Cluster,
        up: &[bool],
        free: impl Fn(MachineId) -> u32,
    ) -> Vec<(u32, MachineId)> {
        let mut machines: Vec<(u32, MachineId)> = cluster
            .machine_ids()
            .filter(|h| up[h.index()])
            .map(|h| (free(h), h))
            .filter(|&(f, _)| f > 0)
            .collect();
        machines.sort_by_key(most_free_key);
        machines
    }

    #[test]
    fn pools_stay_in_step_and_answer_as_a_scan_would() {
        use hadar_rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x91AC);
        let (mut admitted, mut compared) = (0, 0);
        for case in 0..300 {
            let mut b = ClusterBuilder::new();
            let types: Vec<GpuTypeId> = ["A", "B", "C"][..rng.gen_range_usize(1..4)]
                .iter()
                .map(|n| b.gpu_type(n))
                .collect();
            for _ in 0..rng.gen_range_usize(1..9) {
                let caps: Vec<(GpuTypeId, u32)> = types
                    .iter()
                    .map(|&r| (r, rng.gen_range_usize(0..5) as u32))
                    .collect();
                b.machine(&caps);
            }
            let cl = b.build();
            let up: Vec<bool> = cl
                .machine_ids()
                .map(|_| rng.gen_range_usize(0..4) > 0)
                .collect();
            let is_up = |h: MachineId| up[h.index()];
            // Half the cases build both pools before any admission; the
            // others build each on the first query that needs it.
            let built_first = rng.gen_range_usize(0..2) == 0;
            let new_placer = |usage| {
                let placer = Placer::new(&cl, usage, is_up);
                if built_first {
                    placer.pool(types[0]);
                    placer.machines();
                }
                placer
            };
            let mut placer = new_placer(Usage::empty(&cl));
            let mut held: Vec<JobPlacement> = Vec::new();
            for step in 0..12 {
                let usage = placer.usage().clone();
                let what = format!("case {case}, step {step}");
                let up_free: u32 = cl
                    .machine_ids()
                    .filter(|&h| is_up(h))
                    .map(|h| usage.free_on_machine(&cl, h))
                    .sum();
                assert_eq!(placer.up_free(), up_free, "{what}: up-machine free count");
                let gang = rng.gen_range_usize(1..9) as u32;
                let answer = match rng.gen_range_usize(0..3) {
                    0 => {
                        let r = types[rng.gen_range_usize(0..types.len())];
                        let pool = scan_and_sort(&cl, &up, |h| usage.free(&cl, h, r));
                        let want = placement(pool.iter().map(|&(f, h)| (h, r, f)), gang);
                        let got = placer.single_type(r, gang);
                        assert_eq!(got, want, "{what}");
                        got
                    }
                    1 => {
                        let mask = rng.gen_range_usize(0..1 << types.len());
                        let usable = |r: GpuTypeId| mask & (1 << r.index()) != 0;
                        let pool = scan_and_sort(&cl, &up, |h| usage.free_on_machine(&cl, h));
                        let (cl, usage) = (&cl, &usage);
                        let entries = pool.iter().flat_map(|&(_, h)| {
                            types
                                .iter()
                                .filter(|&&r| usable(r))
                                .map(move |&r| (h, r, usage.free(cl, h, r)))
                        });
                        let want = placement(entries, gang);
                        let got = placer.any_type(gang, usable);
                        assert_eq!(got, want, "{what}");
                        got
                    }
                    // A sticky placement: one held earlier in the case
                    // (released by a fresh build, as a new round would),
                    // or made-up slices.
                    _ => {
                        let sticky = if !held.is_empty() && rng.gen_range_usize(0..2) == 0 {
                            let p = held.swap_remove(rng.gen_range_usize(0..held.len()));
                            let mut released = Usage::empty(&cl);
                            for q in &held {
                                for s in q.slices() {
                                    released.add(s.machine, s.gpu, s.count);
                                }
                            }
                            placer = new_placer(released);
                            p
                        } else {
                            JobPlacement::from_slices((0..rng.gen_range_usize(1..3)).map(|_| {
                                PlacementSlice {
                                    machine: MachineId(rng.gen_range_usize(0..up.len()) as u32),
                                    gpu: types[rng.gen_range_usize(0..types.len())],
                                    count: rng.gen_range_usize(1..4) as u32,
                                }
                            }))
                        };
                        let usage = placer.usage();
                        let want = sticky.slices().iter().all(|s| {
                            up[s.machine.index()] && usage.free(&cl, s.machine, s.gpu) >= s.count
                        });
                        assert_eq!(placer.fits(&sticky), want, "{what}: fits {sticky:?}");
                        want.then_some(sticky)
                    }
                };
                if let Some(p) = answer {
                    placer.add(&p);
                    held.push(p);
                    admitted += 1;
                    compared += assert_in_step(&placer, is_up, &what);
                }
            }
        }
        assert!(admitted > 1000, "only {admitted} admissions checked");
        assert!(compared > 1000, "only {compared} pools compared");
    }

    #[test]
    fn fill_stops_at_the_gang_and_fails_when_entries_run_out() {
        let (m0, m1, r) = (MachineId(0), MachineId(1), GpuTypeId(0));
        let entries = [(m0, r, 2), (m1, r, 0), (m1, r, 3)];
        let mut got = vec![slice(9, r, 9)];
        assert!(fill(entries, 4, &mut got));
        let counts: Vec<(u32, u32)> = got.iter().map(|s| (s.machine.0, s.count)).collect();
        assert_eq!(counts, vec![(0, 2), (1, 2)]);
        assert!(!fill(entries, 6, &mut got));
        assert!(fill(entries, 0, &mut got));
        assert_eq!(got, []);
    }
}
