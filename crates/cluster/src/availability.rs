//! Machine availability mask.
//!
//! Real clusters lose whole machines — host crashes, NIC faults, planned
//! maintenance — not just throughput (see `hadar-sim`'s straggler model for
//! the latter). [`Availability`] is the per-round up/down view the engine
//! threads through the scheduler context so every policy sees genuinely
//! shrunken capacity: a down machine contributes nothing to
//! [`Availability::available_of_type`] and must not be placed on.
//!
//! The mask is deliberately dumb state — who fails and when is decided by
//! the failure process in `hadar-sim`; this type only answers "which
//! machines can run tasks *this* round".

use crate::cluster::Cluster;
use crate::machine::MachineId;

/// Per-machine up/down mask for one scheduling round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Availability {
    up: Vec<bool>,
}

impl Availability {
    /// A mask with every one of `num_machines` machines up.
    pub fn all_up(num_machines: usize) -> Self {
        Self {
            up: vec![true; num_machines],
        }
    }

    /// Number of machines covered by the mask.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.up.len()
    }

    /// Whether machine `h` is up. Machines beyond the mask are treated as
    /// up, mirroring how straggler factors default to 1.0.
    #[inline]
    pub fn is_up(&self, h: MachineId) -> bool {
        self.up.get(h.index()).copied().unwrap_or(true)
    }

    /// Mark machine `h` up or down.
    ///
    /// # Panics
    /// Panics if `h` is outside the mask.
    pub fn set(&mut self, h: MachineId, up: bool) {
        self.up[h.index()] = up;
    }

    /// Number of machines currently down.
    pub fn num_down(&self) -> usize {
        self.up.iter().filter(|&&u| !u).count()
    }

    /// Whether any machine is down (fast path: schedulers can skip masking
    /// entirely when the whole cluster is healthy).
    pub fn any_down(&self) -> bool {
        self.up.iter().any(|&u| !u)
    }

    /// Cluster-wide capacity of type `r` restricted to machines that are up:
    /// Σ_h `c_h^r · up_h`.
    pub fn available_of_type(&self, cluster: &Cluster, r: crate::catalog::GpuTypeId) -> u32 {
        if !self.any_down() {
            return cluster.total_of_type(r);
        }
        cluster
            .machine_ids()
            .filter(|&h| self.is_up(h))
            .map(|h| cluster.capacity(h, r))
            .sum()
    }

    /// A 64-bit digest of the mask (FNV-1a over the up bits), for keys that
    /// must change when a machine fails or recovers (the benchmark keys its
    /// replayed LP solves on the job set and this digest).
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &u in &self.up {
            h ^= u as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn all_up_mask_is_transparent() {
        let c = Cluster::paper_simulation();
        let a = Availability::all_up(c.num_machines());
        assert!(!a.any_down());
        assert_eq!(a.num_down(), 0);
        for (r, _) in c.catalog().iter() {
            assert_eq!(a.available_of_type(&c, r), c.total_of_type(r));
        }
    }

    #[test]
    fn down_machine_shrinks_capacity() {
        let c = Cluster::paper_simulation();
        let mut a = Availability::all_up(c.num_machines());
        // Machine 0 is a 4-GPU V100 node.
        let v100 = c.catalog().lookup("V100").unwrap();
        a.set(MachineId(0), false);
        assert!(a.any_down());
        assert_eq!(a.num_down(), 1);
        assert!(!a.is_up(MachineId(0)));
        assert!(a.is_up(MachineId(1)));
        assert_eq!(a.available_of_type(&c, v100), c.total_of_type(v100) - 4);
        a.set(MachineId(0), true);
        assert_eq!(a.available_of_type(&c, v100), c.total_of_type(v100));
    }

    #[test]
    fn out_of_range_machines_count_as_up() {
        let a = Availability::all_up(2);
        assert!(a.is_up(MachineId(99)));
    }

    #[test]
    fn fingerprint_tracks_mask_changes() {
        let mut a = Availability::all_up(8);
        let healthy = a.fingerprint();
        a.set(MachineId(3), false);
        let degraded = a.fingerprint();
        assert_ne!(healthy, degraded);
        a.set(MachineId(3), true);
        assert_eq!(a.fingerprint(), healthy);
    }
}
