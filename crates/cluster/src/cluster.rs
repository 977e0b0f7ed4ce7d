//! Cluster topology: machines plus the GPU-type catalog, and the standard
//! topologies used throughout the paper's evaluation.

use crate::catalog::{names, GpuCatalog, GpuTypeId};
use crate::machine::{Machine, MachineId};

/// A heterogeneous GPU cluster: `H` machines over a catalog of `R` types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    catalog: GpuCatalog,
    machines: Vec<Machine>,
    /// `total_per_type[r]` = Σ_h c_h^r, cached at build time.
    total_per_type: Vec<u32>,
    /// `capacities_per_type[r]`: the distinct positive `c_h^r`, ascending.
    capacities_per_type: Vec<Vec<u32>>,
    /// `other_per_type[r]`: max over machines holding type `r` of their
    /// GPUs of every other type.
    other_per_type: Vec<u32>,
}

impl Cluster {
    /// Build a cluster from a catalog and machines.
    ///
    /// # Panics
    /// Panics if any machine carries capacity for a type id outside the
    /// catalog.
    pub fn new(catalog: GpuCatalog, machines: Vec<Machine>) -> Self {
        let r = catalog.len();
        let mut total_per_type = vec![0u32; r];
        let mut capacities_per_type: Vec<Vec<u32>> = vec![Vec::new(); r];
        let mut other_per_type = vec![0u32; r];
        for m in &machines {
            assert!(
                m.num_type_slots() <= r,
                "machine {} has capacity slots for {} types but catalog has {}",
                m.id(),
                m.num_type_slots(),
                r
            );
            for (i, &c) in m.capacities().iter().enumerate() {
                total_per_type[i] += c;
                if c > 0 {
                    capacities_per_type[i].push(c);
                    other_per_type[i] = other_per_type[i].max(m.total_gpus() - c);
                }
            }
        }
        for caps in &mut capacities_per_type {
            caps.sort_unstable();
            caps.dedup();
        }
        Self {
            catalog,
            machines,
            total_per_type,
            capacities_per_type,
            other_per_type,
        }
    }

    /// The GPU-type catalog.
    #[inline]
    pub fn catalog(&self) -> &GpuCatalog {
        &self.catalog
    }

    /// Number of machines, `H`.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Number of GPU types, `R`.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.catalog.len()
    }

    /// Machine `h`.
    #[inline]
    pub fn machine(&self, h: MachineId) -> &Machine {
        &self.machines[h.index()]
    }

    /// All machines in id order.
    #[inline]
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// Capacity `c_h^r`.
    #[inline]
    pub fn capacity(&self, h: MachineId, r: GpuTypeId) -> u32 {
        self.machines[h.index()].capacity(r)
    }

    /// Cluster-wide capacity of type `r`, Σ_h `c_h^r`.
    #[inline]
    pub fn total_of_type(&self, r: GpuTypeId) -> u32 {
        self.total_per_type.get(r.index()).copied().unwrap_or(0)
    }

    /// The distinct capacities `c_h^r > 0` that machines hold of type `r`,
    /// ascending (empty when no machine holds it); the first is the
    /// smallest.
    #[inline]
    pub fn capacities_of_type(&self, r: GpuTypeId) -> &[u32] {
        self.capacities_per_type
            .get(r.index())
            .map_or(&[], Vec::as_slice)
    }

    /// The most GPUs of types other than `r` on any one machine that holds
    /// type `r`; 0 when every such machine holds only type `r`.
    #[inline]
    pub fn max_other_gpus(&self, r: GpuTypeId) -> u32 {
        self.other_per_type.get(r.index()).copied().unwrap_or(0)
    }

    /// Total number of GPUs in the cluster, all types.
    pub fn total_gpus(&self) -> u32 {
        self.total_per_type.iter().sum()
    }

    /// Iterate over machine ids.
    pub fn machine_ids(&self) -> impl Iterator<Item = MachineId> {
        (0..self.machines.len() as u32).map(MachineId)
    }

    /// The paper's simulated cluster (§IV-A): 15 nodes, 20 GPUs of each of
    /// V100 / P100 / K80 (60 GPUs total), arranged as 5 homogeneous 4-GPU
    /// nodes per type.
    pub fn paper_simulation() -> Self {
        let mut b = ClusterBuilder::new();
        let v100 = b.gpu_type(names::V100);
        let p100 = b.gpu_type(names::P100);
        let k80 = b.gpu_type(names::K80);
        for _ in 0..5 {
            b.machine(&[(v100, 4)]);
        }
        for _ in 0..5 {
            b.machine(&[(p100, 4)]);
        }
        for _ in 0..5 {
            b.machine(&[(k80, 4)]);
        }
        b.build()
    }

    /// The paper's AWS prototype cluster (§IV-B): eight single-GPU instances,
    /// two each of T4 (g4dn.xlarge), K520 (g2dn.2xlarge), K80 (p2.xlarge),
    /// and V100 (p3.2xlarge).
    pub fn paper_aws_prototype() -> Self {
        let mut b = ClusterBuilder::new();
        let t4 = b.gpu_type(names::T4);
        let k520 = b.gpu_type(names::K520);
        let k80 = b.gpu_type(names::K80);
        let v100 = b.gpu_type(names::V100);
        for ty in [t4, k520, k80, v100] {
            for _ in 0..2 {
                b.machine(&[(ty, 1)]);
            }
        }
        b.build()
    }

    /// The toy cluster of the motivating example (§II-A, Fig. 1):
    /// 2 × V100, 3 × P100, 1 × K80, one machine per GPU family.
    pub fn motivation_toy() -> Self {
        let mut b = ClusterBuilder::new();
        let v100 = b.gpu_type(names::V100);
        let p100 = b.gpu_type(names::P100);
        let k80 = b.gpu_type(names::K80);
        b.machine(&[(v100, 2)]);
        b.machine(&[(p100, 3)]);
        b.machine(&[(k80, 1)]);
        b.build()
    }

    /// A scaled heterogeneous cluster for the Fig. 7 scalability sweep:
    /// `scale` nodes of each type with 4 GPUs per node (V100/P100/K80).
    pub fn scaled(scale: usize) -> Self {
        let mut b = ClusterBuilder::new();
        let v100 = b.gpu_type(names::V100);
        let p100 = b.gpu_type(names::P100);
        let k80 = b.gpu_type(names::K80);
        for ty in [v100, p100, k80] {
            for _ in 0..scale {
                b.machine(&[(ty, 4)]);
            }
        }
        b.build()
    }
}

/// Incremental [`Cluster`] construction.
///
/// ```
/// use hadar_cluster::ClusterBuilder;
/// let mut b = ClusterBuilder::new();
/// let v100 = b.gpu_type("V100");
/// let k80 = b.gpu_type("K80");
/// b.machine(&[(v100, 4)]);
/// b.machine(&[(v100, 2), (k80, 2)]);
/// let cluster = b.build();
/// assert_eq!(cluster.num_machines(), 2);
/// assert_eq!(cluster.total_of_type(v100), 6);
/// ```
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    catalog: GpuCatalog,
    machines: Vec<Machine>,
}

impl ClusterBuilder {
    /// A builder with an empty catalog and no machines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern (or look up) a GPU type by name.
    pub fn gpu_type(&mut self, name: &str) -> GpuTypeId {
        self.catalog.intern(name)
    }

    /// Add a machine with the given `(type, count)` capacities; returns its id.
    pub fn machine(&mut self, caps: &[(GpuTypeId, u32)]) -> MachineId {
        let id = MachineId(self.machines.len() as u32);
        let mut capacity = vec![0u32; self.catalog.len()];
        for &(r, c) in caps {
            assert!(
                r.index() < capacity.len(),
                "type {r} not interned in this builder"
            );
            capacity[r.index()] += c;
        }
        self.machines.push(Machine::new(id, capacity));
        id
    }

    /// Add `n` identical machines.
    pub fn machines(&mut self, n: usize, caps: &[(GpuTypeId, u32)]) {
        for _ in 0..n {
            self.machine(caps);
        }
    }

    /// Finalize the cluster.
    pub fn build(self) -> Cluster {
        Cluster::new(self.catalog, self.machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_simulation_topology() {
        let c = Cluster::paper_simulation();
        assert_eq!(c.num_machines(), 15);
        assert_eq!(c.num_types(), 3);
        assert_eq!(c.total_gpus(), 60);
        for (id, _) in c.catalog().iter() {
            assert_eq!(c.total_of_type(id), 20);
        }
    }

    #[test]
    fn paper_aws_topology() {
        let c = Cluster::paper_aws_prototype();
        assert_eq!(c.num_machines(), 8);
        assert_eq!(c.num_types(), 4);
        assert_eq!(c.total_gpus(), 8);
        let v100 = c.catalog().lookup("V100").unwrap();
        assert_eq!(c.total_of_type(v100), 2);
    }

    #[test]
    fn motivation_toy_topology() {
        let c = Cluster::motivation_toy();
        assert_eq!(c.total_gpus(), 6);
        let v100 = c.catalog().lookup("V100").unwrap();
        let p100 = c.catalog().lookup("P100").unwrap();
        let k80 = c.catalog().lookup("K80").unwrap();
        assert_eq!(c.total_of_type(v100), 2);
        assert_eq!(c.total_of_type(p100), 3);
        assert_eq!(c.total_of_type(k80), 1);
    }

    #[test]
    fn per_type_capacities_and_other_gpus_are_cached() {
        let mut b = ClusterBuilder::new();
        let v = b.gpu_type("V100");
        let k = b.gpu_type("K80");
        let t = b.gpu_type("T4");
        b.machine(&[(v, 4)]);
        b.machine(&[(v, 2), (k, 3)]);
        b.machine(&[(v, 4), (k, 1)]);
        b.machine(&[(k, 8)]);
        let c = b.build();
        assert_eq!(c.capacities_of_type(v), [2, 4]);
        assert_eq!(c.capacities_of_type(k), [1, 3, 8]);
        assert_eq!(c.capacities_of_type(t), [] as [u32; 0]);
        assert_eq!(c.max_other_gpus(v), 3);
        assert_eq!(c.max_other_gpus(k), 4);
        assert_eq!(c.max_other_gpus(t), 0);
        let paper = Cluster::paper_simulation();
        for r in paper.catalog().ids() {
            assert_eq!(paper.capacities_of_type(r), [4]);
            assert_eq!(paper.max_other_gpus(r), 0);
        }
    }

    #[test]
    fn scaled_grows_linearly() {
        let c = Cluster::scaled(4);
        assert_eq!(c.num_machines(), 12);
        assert_eq!(c.total_gpus(), 48);
    }

    #[test]
    fn builder_merges_duplicate_type_entries() {
        let mut b = ClusterBuilder::new();
        let v = b.gpu_type("V100");
        let h = b.machine(&[(v, 2), (v, 3)]);
        let c = b.build();
        assert_eq!(c.capacity(h, v), 5);
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn builder_rejects_foreign_type() {
        let mut other = ClusterBuilder::new();
        other.gpu_type("A");
        let foreign = {
            let mut b2 = ClusterBuilder::new();
            b2.gpu_type("A");
            b2.gpu_type("B")
        };
        // `foreign` has index 1, which `other`'s catalog does not contain.
        other.machine(&[(foreign, 1)]);
    }
}
