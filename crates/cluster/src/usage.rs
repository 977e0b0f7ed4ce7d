//! Occupied-GPU bookkeeping: the `γ_h^r(t)` quantities that drive the
//! primal–dual price function (Eq. 5 of the paper).

use crate::allocation::PlacementSlice;
use crate::catalog::GpuTypeId;
use crate::cluster::Cluster;
use crate::machine::MachineId;

/// Per-(machine, type) occupied counts, dense `H × R` matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Usage {
    num_types: usize,
    /// Row-major `used[h * R + r]`.
    used: Vec<u32>,
    /// Incrementally maintained position-weighted hash of `used` (see
    /// [`Usage::fingerprint`]): `Σ_i weight(i)·used[i]` mod 2⁶⁴.
    hash: u64,
    /// Incrementally maintained `Σ used[i]`.
    total: u32,
}

/// The per-index fingerprint weight: splitmix64 of the flat index. The
/// output is a fixed pseudo-random 64-bit constant per position, so the
/// weighted sum separates positions and counts without scanning the matrix.
#[inline]
fn weight(i: usize) -> u64 {
    let mut z = (i as u64).wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl Usage {
    /// All-zero usage for `cluster`.
    pub fn empty(cluster: &Cluster) -> Self {
        Self {
            num_types: cluster.num_types(),
            used: vec![0; cluster.num_machines() * cluster.num_types()],
            hash: 0,
            total: 0,
        }
    }

    #[inline]
    fn idx(&self, h: MachineId, r: GpuTypeId) -> usize {
        h.index() * self.num_types + r.index()
    }

    /// Occupied count `γ_h^r`.
    #[inline]
    pub fn get(&self, h: MachineId, r: GpuTypeId) -> u32 {
        self.used[self.idx(h, r)]
    }

    /// Add `count` occupied GPUs of type `r` on machine `h`.
    #[inline]
    pub fn add(&mut self, h: MachineId, r: GpuTypeId, count: u32) {
        let i = self.idx(h, r);
        let delta = weight(i).wrapping_mul(count as u64);
        self.used[i] += count;
        self.hash = self.hash.wrapping_add(delta);
        self.total += count;
    }

    /// Free GPUs of type `r` on machine `h`, `c_h^r − γ_h^r`
    /// (saturating at 0 if over-allocated).
    #[inline]
    pub fn free(&self, cluster: &Cluster, h: MachineId, r: GpuTypeId) -> u32 {
        cluster.capacity(h, r).saturating_sub(self.get(h, r))
    }

    /// Total free GPUs on machine `h` across all types.
    pub fn free_on_machine(&self, cluster: &Cluster, h: MachineId) -> u32 {
        cluster
            .catalog()
            .ids()
            .map(|r| self.free(cluster, h, r))
            .sum()
    }

    /// Total occupied GPUs across the cluster.
    #[inline]
    pub fn total_used(&self) -> u32 {
        self.total
    }

    /// Whether every GPU in the cluster is occupied.
    pub fn is_cluster_full(&self, cluster: &Cluster) -> bool {
        self.total_used() >= cluster.total_gpus()
    }

    /// A compact fingerprint of the usage state, used as a memoization key
    /// by the dynamic-programming dual subroutine (Algorithm 2).
    ///
    /// Maintained incrementally in [`Usage::add`] as the
    /// position-weighted sum `Σ_i weight(i)·used[i]` (mod 2⁶⁴) with fixed
    /// splitmix64 per-index weights, so reading it is O(1) instead of a scan
    /// over the whole `H × R` matrix — the DP subroutine fingerprints the
    /// usage at every node it expands, which made the scan the hot path of
    /// each scheduling round. Deterministic and stable across runs and
    /// threads (unlike `DefaultHasher` with random keys).
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// The fingerprint this usage *would* report after [`Usage::add`]-ing
    /// every slice of a placement — computed without cloning or mutating.
    ///
    /// Because the hash is the position-weighted sum `Σ_i weight(i)·used[i]`
    /// (mod 2⁶⁴), additions commute and the post-add hash is just the current
    /// hash plus the slices' weighted counts. The DP dual subroutine uses
    /// this to probe its memo table for an already-expanded child state
    /// before paying for the `H × R` matrix clone.
    #[inline]
    pub fn fingerprint_after(&self, slices: &[PlacementSlice]) -> u64 {
        let mut h = self.hash;
        for s in slices {
            let i = self.idx(s.machine, s.gpu);
            h = h.wrapping_add(weight(i).wrapping_mul(s.count as u64));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    fn cl() -> (Cluster, GpuTypeId, GpuTypeId) {
        let mut b = ClusterBuilder::new();
        let a = b.gpu_type("A");
        let c = b.gpu_type("C");
        b.machine(&[(a, 4)]);
        b.machine(&[(a, 1), (c, 2)]);
        (b.build(), a, c)
    }

    #[test]
    fn add_then_free() {
        let (cl, a, c) = cl();
        let mut u = Usage::empty(&cl);
        u.add(MachineId(0), a, 3);
        assert_eq!(u.get(MachineId(0), a), 3);
        assert_eq!(u.free(&cl, MachineId(0), a), 1);
        assert_eq!(u.free(&cl, MachineId(1), c), 2);
        assert_eq!(u.free_on_machine(&cl, MachineId(1)), 3);
    }

    #[test]
    fn cluster_full_detection() {
        let (cl, a, c) = cl();
        let mut u = Usage::empty(&cl);
        assert!(!u.is_cluster_full(&cl));
        u.add(MachineId(0), a, 4);
        u.add(MachineId(1), a, 1);
        u.add(MachineId(1), c, 2);
        assert!(u.is_cluster_full(&cl));
        assert_eq!(u.total_used(), 7);
    }

    #[test]
    fn fingerprint_distinguishes_states() {
        let (cl, a, _) = cl();
        let mut u1 = Usage::empty(&cl);
        let u0 = u1.clone();
        u1.add(MachineId(0), a, 1);
        assert_ne!(u0.fingerprint(), u1.fingerprint());
        let mut u2 = Usage::empty(&cl);
        u2.add(MachineId(0), a, 1);
        assert_eq!(u1.fingerprint(), u2.fingerprint());
    }

    #[test]
    fn fingerprint_is_path_independent() {
        // The incremental hash must depend only on the final counts, not on
        // the order or granularity of the add calls that produced them.
        let (cl, a, c) = cl();
        let mut u1 = Usage::empty(&cl);
        u1.add(MachineId(0), a, 2);
        u1.add(MachineId(1), c, 2);

        let mut u2 = Usage::empty(&cl);
        u2.add(MachineId(1), c, 1);
        u2.add(MachineId(0), a, 1);
        u2.add(MachineId(1), c, 1);
        u2.add(MachineId(0), a, 1);

        assert_eq!(u1, u2);
        assert_eq!(u1.fingerprint(), u2.fingerprint());
        assert_eq!(u1.total_used(), 4);
    }

    #[test]
    fn fingerprint_after_matches_actual_adds() {
        let (cl, a, c) = cl();
        let mut u = Usage::empty(&cl);
        u.add(MachineId(0), a, 2);
        let slices = vec![
            PlacementSlice {
                machine: MachineId(0),
                gpu: a,
                count: 1,
            },
            PlacementSlice {
                machine: MachineId(1),
                gpu: c,
                count: 2,
            },
        ];
        let predicted = u.fingerprint_after(&slices);
        assert_ne!(predicted, u.fingerprint());
        for s in &slices {
            u.add(s.machine, s.gpu, s.count);
        }
        assert_eq!(predicted, u.fingerprint());
        // Empty slice list predicts the unchanged fingerprint.
        assert_eq!(u.fingerprint_after(&[]), u.fingerprint());
    }

    #[test]
    fn fingerprint_separates_count_and_position() {
        // Same total spread differently must fingerprint differently: a
        // count-only (unweighted) sum would collide here.
        let (cl, a, _) = cl();
        let mut u1 = Usage::empty(&cl);
        u1.add(MachineId(0), a, 2);
        let mut u2 = Usage::empty(&cl);
        u2.add(MachineId(0), a, 1);
        u2.add(MachineId(1), a, 1);
        assert_ne!(u1.fingerprint(), u2.fingerprint());
    }
}
