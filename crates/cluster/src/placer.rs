//! Gang placement: the one most-free-first fill every policy shares.
//!
//! Every scheduler in the workspace places a gang by the same rule: take
//! up machines that have free GPUs, most free first (lower machine id on
//! ties), and fill until the gang is complete. [`Placer`] is that rule,
//! written once, over a [`Usage`] and an "is this machine up" predicate.

use std::cmp::Reverse;
use std::ops::ControlFlow;

use crate::allocation::{JobPlacement, PlacementSlice};
use crate::catalog::GpuTypeId;
use crate::cluster::Cluster;
use crate::machine::MachineId;
use crate::usage::Usage;

/// Most-free-first placement against `usage`, on machines `up` admits.
pub struct Placer<'a, U> {
    cluster: &'a Cluster,
    usage: &'a Usage,
    up: U,
}

impl<'a, U: Fn(MachineId) -> bool> Placer<'a, U> {
    /// A placer over `usage`; `up(h)` says whether machine `h` may host
    /// tasks at all. `usage` must hold no more than a machine's capacity of
    /// any type, which holds whenever it is built only from placements this
    /// placer produced or [`Placer::fits`] admitted.
    pub fn new(cluster: &'a Cluster, usage: &'a Usage, up: U) -> Self {
        Self { cluster, usage, up }
    }

    /// Free GPUs anywhere in the cluster, in O(1). With usage within
    /// capacity this is the exact cluster-wide free count, so it bounds
    /// what any placement can take: on a full cluster a gang fails here
    /// without scanning the machines.
    fn free_anywhere(&self) -> u32 {
        self.cluster
            .total_gpus()
            .saturating_sub(self.usage.total_used())
    }

    /// Up machines with free type-`r` GPUs as `(free, machine)`, most free
    /// first, lower machine id on ties.
    pub fn machines_by_free(&self, r: GpuTypeId) -> Vec<(u32, MachineId)> {
        let (cluster, usage) = (self.cluster, self.usage);
        let mut machines = collect(cluster, &self.up, |h| usage.free(cluster, h, r));
        most_free_first(&mut machines);
        machines
    }

    /// All `gang` workers on type `r`, most-free machines first; `None`
    /// when the up machines hold fewer than `gang` free type-`r` GPUs.
    pub fn single_type(&self, r: GpuTypeId, gang: u32) -> Option<JobPlacement> {
        if self.free_anywhere() < gang {
            return None;
        }
        let (cluster, usage) = (self.cluster, self.usage);
        let mut machines = collect(cluster, &self.up, |h| usage.free(cluster, h, r));
        if total_free(&machines) < gang {
            return None;
        }
        most_free_first(&mut machines);
        let entries = machines.into_iter().map(|(f, h)| (h, r, f));
        fill(entries, gang).map(JobPlacement::from_slices)
    }

    /// All `gang` workers on any types `usable` admits: machines ordered by
    /// their free GPUs of every type, most free first, and each machine's
    /// types taken in catalog order. `None` when the up machines hold fewer
    /// than `gang` free GPUs of usable types; it returns before sorting when
    /// they hold fewer than `gang` free GPUs of any type.
    pub fn any_type(&self, gang: u32, usable: impl Fn(GpuTypeId) -> bool) -> Option<JobPlacement> {
        if self.free_anywhere() < gang {
            return None;
        }
        let (cluster, usage) = (self.cluster, self.usage);
        let mut machines = collect(cluster, &self.up, |h| usage.free_on_machine(cluster, h));
        if total_free(&machines) < gang {
            return None;
        }
        most_free_first(&mut machines);
        let usable = &usable;
        let catalog = cluster.catalog();
        let entries = machines.into_iter().flat_map(move |(_, h)| {
            catalog
                .ids()
                .filter(move |&r| usable(r))
                .map(move |r| (h, r, usage.free(cluster, h, r)))
        });
        fill(entries, gang).map(JobPlacement::from_slices)
    }

    /// Whether every slice of `placement` sits on an up machine with at
    /// least its count free — the "keep the sticky placement" check.
    pub fn fits(&self, placement: &JobPlacement) -> bool {
        placement.slices().iter().all(|s| {
            (self.up)(s.machine) && self.usage.free(self.cluster, s.machine, s.gpu) >= s.count
        })
    }
}

/// Up machines with free GPUs by `free(h)` as `(free, machine)`, in id
/// order. A free function over plain arguments, not a method reading
/// `self`: the scan measured faster that way.
#[inline]
fn collect(
    cluster: &Cluster,
    up: impl Fn(MachineId) -> bool,
    free: impl Fn(MachineId) -> u32,
) -> Vec<(u32, MachineId)> {
    cluster
        .machine_ids()
        .filter(|&h| up(h))
        .filter_map(|h| {
            let f = free(h);
            (f > 0).then_some((f, h))
        })
        .collect()
}

/// Free GPUs over collected `(free, machine)` pairs. Summing the few
/// machines that have any is cheaper than summing inside the collecting
/// scan, which slows the scan over every machine.
#[inline]
fn total_free(machines: &[(u32, MachineId)]) -> u32 {
    machines.iter().map(|&(f, _)| f).sum()
}

/// The placement order as a sort key on `(free, machine)` pairs: most free
/// first, lower machine id on ties. Pools kept sorted by this key can find
/// and reinsert a machine by binary search.
#[inline]
pub fn most_free_key(&(free, h): &(u32, MachineId)) -> (Reverse<u32>, MachineId) {
    (Reverse(free), h)
}

/// Sort `(free, machine)` pairs by [`most_free_key`].
#[inline]
fn most_free_first(machines: &mut [(u32, MachineId)]) {
    machines.sort_by_key(most_free_key);
}

/// Take from `(machine, type, free)` entries in order until `w` workers
/// are placed; `None` if the entries run out first.
pub fn fill(
    entries: impl IntoIterator<Item = (MachineId, GpuTypeId, u32)>,
    w: u32,
) -> Option<Vec<PlacementSlice>> {
    let mut remaining = w;
    let mut slices = Vec::new();
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
    (remaining == 0).then_some(slices)
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
            let placer = Placer::new(&cl, usage, |h: MachineId| up.contains(&h.0));
            assert_eq!(
                ids(&placer.machines_by_free(r)),
                want,
                "up {up:?}, type {r:?}"
            );
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
            let placer = Placer::new(&cl, &usage, |h: MachineId| up.contains(&h.0));
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
        let placer = Placer::new(&cl, &usage, |_| true);
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
            let placer = Placer::new(&cl, usage, |_| true);
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
            let placer = Placer::new(&cl, &usage, |h: MachineId| up.contains(&h.0));
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
        let placer = Placer::new(&cl, &usage, |_| true);
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
        let slice = |h: u32, r: GpuTypeId, count: u32| {
            JobPlacement::from_slices([PlacementSlice {
                machine: MachineId(h),
                gpu: r,
                count,
            }])
        };
        // (placement, machine 1 up, fits)
        let cases = [
            (slice(0, a, 1), true, true),
            (slice(0, a, 2), true, false),
            (slice(1, a, 4), true, true),
            (slice(1, a, 4), false, false),
            (slice(1, c, 1), true, false),
            (JobPlacement::empty(), false, true),
        ];
        for (p, up1, want) in cases {
            let placer = Placer::new(&cl, &usage, |h: MachineId| up1 || h.0 != 1);
            assert_eq!(placer.fits(&p), want, "{p:?}, machine 1 up: {up1}");
        }
    }

    #[test]
    fn fill_stops_at_the_gang_and_fails_when_entries_run_out() {
        let (m0, m1, r) = (MachineId(0), MachineId(1), GpuTypeId(0));
        let entries = [(m0, r, 2), (m1, r, 0), (m1, r, 3)];
        let got = fill(entries, 4).unwrap();
        let counts: Vec<(u32, u32)> = got.iter().map(|s| (s.machine.0, s.count)).collect();
        assert_eq!(counts, vec![(0, 2), (1, 2)]);
        assert_eq!(fill(entries, 6), None);
        assert_eq!(fill(entries, 0), Some(Vec::new()));
    }
}
