//! Scheduling decisions: `w_{jh}^r(t)` — which GPUs each job holds in a round.

use std::collections::BTreeMap;

use crate::catalog::GpuTypeId;
use crate::cluster::Cluster;
use crate::machine::MachineId;
use crate::usage::Usage;
use crate::JobId;

/// One slice of a job's placement: `count` GPUs of one type on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlacementSlice {
    /// Host machine.
    pub machine: MachineId,
    /// Accelerator type.
    pub gpu: GpuTypeId,
    /// Number of GPUs, `w_{jh}^r(t) > 0`.
    pub count: u32,
}

/// The complete placement of one job in one round: the set of
/// `(machine, type, count)` slices summing to the gang size `W_j`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobPlacement {
    slices: Vec<PlacementSlice>,
}

impl JobPlacement {
    /// An empty placement (job not scheduled this round).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from slices; zero-count slices are dropped, and slices sharing
    /// `(machine, type)` are merged so equality is structural.
    pub fn from_slices(slices: impl IntoIterator<Item = PlacementSlice>) -> Self {
        let mut slices: Vec<PlacementSlice> = slices.into_iter().collect();
        canonicalize(&mut slices);
        Self { slices }
    }

    /// Convenience: a placement of `count` GPUs of one type on one machine.
    pub fn single(machine: MachineId, gpu: GpuTypeId, count: u32) -> Self {
        Self::from_slices([PlacementSlice {
            machine,
            gpu,
            count,
        }])
    }

    /// The placement slices in canonical `(machine, type)` order.
    pub fn slices(&self) -> &[PlacementSlice] {
        &self.slices
    }

    /// Total worker count, Σ `w_{jh}^r`.
    pub fn total_workers(&self) -> u32 {
        self.slices.iter().map(|s| s.count).sum()
    }

    /// Whether the job received no GPUs.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Number of distinct machines spanned (1 ⇒ consolidated).
    pub fn num_machines(&self) -> usize {
        machines_spanned(&self.slices)
    }
}

/// Put `slices` in the canonical form a [`JobPlacement`] holds, in place:
/// zero-count slices dropped, the rest sorted by `(machine, type)`, and
/// slices sharing a `(machine, type)` merged.
pub fn canonicalize(slices: &mut Vec<PlacementSlice>) {
    slices.retain(|s| s.count > 0);
    slices.sort_unstable_by_key(|s| (s.machine, s.gpu));
    slices.dedup_by(|later, kept| {
        let same = (later.machine, later.gpu) == (kept.machine, kept.gpu);
        if same {
            kept.count += later.count;
        }
        same
    });
}

/// Number of distinct machines a canonical slice list spans (1 ⇒
/// consolidated, 0 ⇒ empty).
pub fn machines_spanned(slices: &[PlacementSlice]) -> usize {
    // Slices are sorted by (machine, type): count the machine changes.
    let changes = slices.windows(2);
    usize::from(!slices.is_empty()) + changes.filter(|w| w[0].machine != w[1].machine).count()
}

/// The full scheduling decision for one round: a placement per scheduled job.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Allocation {
    placements: BTreeMap<JobId, JobPlacement>,
}

impl Allocation {
    /// An allocation scheduling no jobs.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Assign `placement` to `job`. Empty placements are treated as "not
    /// scheduled" and removed.
    pub fn set(&mut self, job: JobId, placement: JobPlacement) {
        if placement.is_empty() {
            self.placements.remove(&job);
        } else {
            self.placements.insert(job, placement);
        }
    }

    /// The placement of `job`, if scheduled this round.
    pub fn get(&self, job: JobId) -> Option<&JobPlacement> {
        self.placements.get(&job)
    }

    /// Iterate `(job, placement)` in job-id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &JobPlacement)> {
        self.placements.iter().map(|(&j, p)| (j, p))
    }

    /// Whether no job is scheduled.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Validate against the cluster: capacity (constraint 1d) and, for each
    /// job, the gang-size requirement `Σ w ∈ {0, W_j}` (constraint 1e) using
    /// `gang_of`.
    ///
    /// Returns the first violation found, or `Ok(())`: the over-capacity
    /// `(machine, type)` pair that comes first in that order, else the
    /// lowest job id with the wrong worker count.
    pub fn validate(
        &self,
        cluster: &Cluster,
        mut gang_of: impl FnMut(JobId) -> u32,
    ) -> Result<(), AllocationError> {
        let mut usage = Usage::empty(cluster);
        let mut over: Option<(MachineId, GpuTypeId)> = None;
        let mut gang_error = None;
        for (&j, p) in &self.placements {
            for s in p.slices() {
                usage.add(s.machine, s.gpu, s.count);
                let pair = (s.machine, s.gpu);
                if usage.get(s.machine, s.gpu) > cluster.capacity(s.machine, s.gpu)
                    && over.is_none_or(|first| pair < first)
                {
                    over = Some(pair);
                }
            }
            let (got, want) = (p.total_workers(), gang_of(j));
            if got != want && gang_error.is_none() {
                gang_error = Some(AllocationError::GangViolation { job: j, got, want });
            }
        }
        if let Some((machine, gpu)) = over {
            return Err(AllocationError::OverCapacity {
                machine,
                gpu,
                used: usage.get(machine, gpu),
                capacity: cluster.capacity(machine, gpu),
            });
        }
        gang_error.map_or(Ok(()), Err)
    }
}

/// Consumes into `(job, placement)` pairs in job-id order.
impl IntoIterator for Allocation {
    type Item = (JobId, JobPlacement);
    type IntoIter = std::collections::btree_map::IntoIter<JobId, JobPlacement>;

    fn into_iter(self) -> Self::IntoIter {
        self.placements.into_iter()
    }
}

/// A constraint violation detected by [`Allocation::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// More GPUs of a type placed on a machine than it has (violates 1d).
    OverCapacity {
        /// Machine where the violation occurred.
        machine: MachineId,
        /// GPU type over-allocated.
        gpu: GpuTypeId,
        /// GPUs placed.
        used: u32,
        /// Machine capacity `c_h^r`.
        capacity: u32,
    },
    /// A scheduled job got a worker count different from its gang size
    /// (violates the All-or-Nothing property, 1e).
    GangViolation {
        /// Offending job.
        job: JobId,
        /// Workers placed.
        got: u32,
        /// Required gang size `W_j`.
        want: u32,
    },
}

impl std::fmt::Display for AllocationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocationError::OverCapacity {
                machine,
                gpu,
                used,
                capacity,
            } => write!(
                f,
                "machine {machine} type {gpu}: {used} GPUs allocated but capacity is {capacity}"
            ),
            AllocationError::GangViolation { job, got, want } => {
                write!(
                    f,
                    "job {job}: scheduled with {got} workers, gang size is {want}"
                )
            }
        }
    }
}

impl std::error::Error for AllocationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    fn toy() -> (Cluster, GpuTypeId, GpuTypeId) {
        let mut b = ClusterBuilder::new();
        let a = b.gpu_type("A");
        let c = b.gpu_type("C");
        b.machine(&[(a, 2)]);
        b.machine(&[(a, 1), (c, 2)]);
        (b.build(), a, c)
    }

    #[test]
    fn placement_merges_and_orders_slices() {
        let p = JobPlacement::from_slices([
            PlacementSlice {
                machine: MachineId(1),
                gpu: GpuTypeId(0),
                count: 1,
            },
            PlacementSlice {
                machine: MachineId(0),
                gpu: GpuTypeId(0),
                count: 2,
            },
            PlacementSlice {
                machine: MachineId(1),
                gpu: GpuTypeId(0),
                count: 1,
            },
            PlacementSlice {
                machine: MachineId(1),
                gpu: GpuTypeId(1),
                count: 0, // dropped
            },
        ]);
        assert_eq!(p.total_workers(), 4);
        assert_eq!(p.slices().len(), 2);
        assert_eq!(p.slices()[0].machine, MachineId(0));
        assert_eq!(p.slices()[1].count, 2);
        assert_eq!(p.num_machines(), 2);

        // Two types on one machine count it once; a second machine adds one.
        let slice = |machine, gpu| PlacementSlice {
            machine: MachineId(machine),
            gpu: GpuTypeId(gpu),
            count: 1,
        };
        let mixed = JobPlacement::from_slices([slice(3, 1), slice(3, 0)]);
        assert_eq!(mixed.num_machines(), 1);
        let spread = JobPlacement::from_slices([slice(3, 1), slice(5, 0), slice(3, 0)]);
        assert_eq!(spread.num_machines(), 2);
        assert_eq!(JobPlacement::empty().num_machines(), 0);
    }

    #[test]
    fn empty_placement_is_unscheduled() {
        let mut a = Allocation::empty();
        a.set(JobId(0), JobPlacement::empty());
        assert!(a.is_empty());
        assert_eq!(a.get(JobId(0)), None);
    }

    #[test]
    fn validate_accepts_feasible() {
        let (cl, a, c) = toy();
        let mut alloc = Allocation::empty();
        alloc.set(
            JobId(0),
            JobPlacement::from_slices([
                PlacementSlice {
                    machine: MachineId(0),
                    gpu: a,
                    count: 2,
                },
                PlacementSlice {
                    machine: MachineId(1),
                    gpu: c,
                    count: 1,
                },
            ]),
        );
        assert_eq!(alloc.validate(&cl, |_| 3), Ok(()));
    }

    #[test]
    fn validate_rejects_over_capacity() {
        let (cl, a, c) = toy();
        let mut alloc = Allocation::empty();
        alloc.set(JobId(0), JobPlacement::single(MachineId(0), a, 3));
        let err = alloc.validate(&cl, |_| 3).unwrap_err();
        assert!(matches!(
            err,
            AllocationError::OverCapacity {
                used: 3,
                capacity: 2,
                ..
            }
        ));
        // Usage adds up across jobs: two 1-GPU jobs on machine 1's one A.
        let mut alloc = Allocation::empty();
        alloc.set(JobId(0), JobPlacement::single(MachineId(1), a, 1));
        alloc.set(JobId(1), JobPlacement::single(MachineId(1), a, 1));
        assert_eq!(
            alloc.validate(&cl, |_| 1),
            Err(AllocationError::OverCapacity {
                machine: MachineId(1),
                gpu: a,
                used: 2,
                capacity: 1
            })
        );
        // Two pairs over capacity: the first in (machine, type) order is
        // reported, whichever job holds it.
        let mut alloc = Allocation::empty();
        alloc.set(JobId(0), JobPlacement::single(MachineId(1), c, 3));
        alloc.set(JobId(1), JobPlacement::single(MachineId(1), a, 2));
        alloc.set(JobId(2), JobPlacement::single(MachineId(0), a, 3));
        let err = alloc.validate(&cl, |_| 3).unwrap_err();
        assert_eq!(
            err,
            AllocationError::OverCapacity {
                machine: MachineId(0),
                gpu: a,
                used: 3,
                capacity: 2
            }
        );
    }

    #[test]
    fn validate_rejects_gang_violation() {
        let (cl, a, _) = toy();
        let mut alloc = Allocation::empty();
        alloc.set(JobId(5), JobPlacement::single(MachineId(0), a, 2));
        let err = alloc.validate(&cl, |_| 4).unwrap_err();
        assert_eq!(
            err,
            AllocationError::GangViolation {
                job: JobId(5),
                got: 2,
                want: 4
            }
        );
        assert!(err.to_string().contains("gang size is 4"));
    }
}
