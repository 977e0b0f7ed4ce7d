//! Per-machine fault injection: stragglers and whole-machine failures.
//!
//! Real clusters exhibit transient per-machine slowdowns — thermal
//! throttling, PCIe contention, noisy neighbours on the storage path — and
//! lose whole machines to crashes (the Philly trace our workload model is
//! calibrated against is full of them); Gavel-style evaluations judge
//! policies under such dynamic GPU availability. Both are the same
//! two-state process per machine, [`Episodes`]: an idle machine starts an
//! episode with a fixed probability per round, and the episode lasts a
//! geometrically distributed number of rounds (at least one).
//!
//! - **Stragglers** (§IV-A-1: Hadar's "awareness of straggling tasks and
//!   the strategic task allocation policy") start with probability
//!   [`StragglerModel::incidence`], last
//!   [`StragglerModel::mean_duration_rounds`] on average and run every GPU
//!   of the machine at [`StragglerModel::slowdown`] of nominal speed.
//! - **Failures** start with probability `1 / mtbf_rounds` and last
//!   `mttr_rounds` on average ([`FailureModel`]); the machine is down.
//!
//! Each process draws from its own seeded RNG, salted so the two streams
//! are independent even under equal seeds; runs stay fully deterministic.
//!
//! [`MachineFaults`] is the engine's per-round view of both: the factor
//! each machine runs at (0.0 down, `slowdown` straggling, 1.0 otherwise),
//! exposed as [`crate::SchedulerContext::machine_factors`], and the
//! [`Availability`] mask, exposed as
//! [`crate::SchedulerContext::availability`]. The simulator multiplies each
//! task's rate by its machine's factor before the gang's synchronization
//! barrier (Eq. 1b), so one straggling task drags the whole gang unless
//! the scheduler reacts; jobs on a down machine are evicted (losing the
//! failed round's progress) and pay the checkpoint-restore penalty when
//! re-placed.

use hadar_cluster::{Availability, MachineId};
use hadar_rng::{Rng, StdRng};

/// Domain-separation constant XORed into the straggler RNG seed.
const STRAGGLER_SEED_SALT: u64 = 0x5744_4C53_7472_6167;
/// Domain-separation constant XORed into the failure RNG seed, so the
/// failure stream is independent of the straggler stream even under equal
/// seeds.
const FAILURE_SEED_SALT: u64 = 0x4661_696C_4D61_6368; // "FailMach"

/// Parameters of the per-machine straggler process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerModel {
    /// Probability a healthy machine starts straggling in a given round.
    pub incidence: f64,
    /// Throughput multiplier while straggling (0 < slowdown ≤ 1).
    pub slowdown: f64,
    /// Mean straggle duration in rounds (geometric recovery).
    pub mean_duration_rounds: f64,
    /// Seed for the straggler RNG (independent of the trace seed).
    pub seed: u64,
}

impl Default for StragglerModel {
    fn default() -> Self {
        Self {
            incidence: 0.02,
            slowdown: 0.4,
            mean_duration_rounds: 5.0,
            seed: 0,
        }
    }
}

impl StragglerModel {
    /// Check the parameters, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.incidence) {
            return Err(format!(
                "incidence must be a probability (got {})",
                self.incidence
            ));
        }
        if !(self.slowdown > 0.0 && self.slowdown <= 1.0) {
            return Err(format!(
                "slowdown must be in (0, 1] (got {})",
                self.slowdown
            ));
        }
        if !self.mean_duration_rounds.is_finite() || self.mean_duration_rounds < 1.0 {
            return Err(format!(
                "mean_duration_rounds must be finite and >= 1 (got {})",
                self.mean_duration_rounds
            ));
        }
        Ok(())
    }
}

/// Parameters of the per-machine failure process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Mean time between failures, in rounds (per machine; failure
    /// probability per healthy round is `1 / mtbf_rounds`).
    pub mtbf_rounds: f64,
    /// Mean time to repair, in rounds (geometric, at least one round).
    pub mttr_rounds: f64,
    /// Seed for the failure RNG (independent of trace and straggler seeds).
    pub seed: u64,
}

impl Default for FailureModel {
    fn default() -> Self {
        Self {
            // 240 six-minute rounds = one failure per machine-day.
            mtbf_rounds: 240.0,
            // 10 rounds = one hour of repair.
            mttr_rounds: 10.0,
            seed: 0,
        }
    }
}

impl FailureModel {
    /// Check the parameters, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !self.mtbf_rounds.is_finite() || self.mtbf_rounds < 1.0 {
            return Err(format!(
                "mtbf_rounds must be finite and >= 1 (got {})",
                self.mtbf_rounds
            ));
        }
        if !self.mttr_rounds.is_finite() || self.mttr_rounds < 1.0 {
            return Err(format!(
                "mttr_rounds must be finite and >= 1 (got {})",
                self.mttr_rounds
            ));
        }
        Ok(())
    }
}

/// One two-state process per machine: an idle machine starts an episode
/// with probability `start` per round; the episode lasts a geometrically
/// distributed number of rounds, at least one.
#[derive(Debug)]
struct Episodes {
    start: f64,
    /// `ln(1 − 1/mean duration)`: the log-probability that an episode
    /// lasts another round.
    ln_continue: f64,
    rng: StdRng,
    /// Rounds left in each machine's episode (0 = none).
    remaining: Vec<u32>,
}

impl Episodes {
    fn new(start: f64, mean_rounds: f64, seed: u64, num_machines: usize) -> Self {
        Self {
            start,
            ln_continue: (1.0 - 1.0 / mean_rounds).ln(),
            rng: StdRng::seed_from_u64(seed),
            remaining: vec![0; num_machines],
        }
    }

    /// Whether machine `h` is in an episode.
    fn active(&self, h: MachineId) -> bool {
        self.remaining[h.index()] > 0
    }

    /// Advance one round, calling `changed(h, started)` in id order for
    /// every machine whose episode started (`true`) or ended (`false`).
    fn step(&mut self, mut changed: impl FnMut(MachineId, bool)) {
        for (i, left) in self.remaining.iter_mut().enumerate() {
            let h = MachineId(i as u32);
            if *left > 0 {
                *left -= 1;
                if *left == 0 {
                    changed(h, false);
                }
            } else if self.rng.gen_f64() < self.start {
                let u = self.rng.gen_f64().max(f64::MIN_POSITIVE);
                *left = (u.ln() / self.ln_continue).ceil().max(1.0) as u32;
                changed(h, true);
            }
        }
    }
}

/// The engine's per-round view of every machine: the straggler and
/// failure processes, the factor each machine runs at and the up/down
/// mask, all updated in place by [`MachineFaults::step`].
#[derive(Debug)]
pub(crate) struct MachineFaults {
    /// Factor of a straggling machine that is up.
    slowdown: f64,
    stragglers: Option<Episodes>,
    failures: Option<Episodes>,
    /// Per machine: 0.0 down, `slowdown` straggling, 1.0 otherwise.
    factors: Vec<f64>,
    availability: Availability,
    failed: Vec<MachineId>,
    recovered: Vec<MachineId>,
}

impl MachineFaults {
    /// Every machine up and healthy; `None` turns a process off. The
    /// models are assumed valid: [`crate::SimConfig::validate`] checks them
    /// before the engine builds this.
    pub(crate) fn new(
        straggler: Option<StragglerModel>,
        failure: Option<FailureModel>,
        num_machines: usize,
    ) -> Self {
        Self {
            slowdown: straggler.map_or(1.0, |m| m.slowdown),
            stragglers: straggler.map(|m| {
                let seed = m.seed ^ STRAGGLER_SEED_SALT;
                Episodes::new(m.incidence, m.mean_duration_rounds, seed, num_machines)
            }),
            failures: failure.map(|m| {
                let seed = m.seed ^ FAILURE_SEED_SALT;
                Episodes::new(1.0 / m.mtbf_rounds, m.mttr_rounds, seed, num_machines)
            }),
            factors: vec![1.0; num_machines],
            availability: Availability::all_up(num_machines),
            failed: Vec::new(),
            recovered: Vec::new(),
        }
    }

    /// Advance both processes one round. Returns the machines that went
    /// down and the machines that came back, each in id order.
    pub(crate) fn step(&mut self) -> (&[MachineId], &[MachineId]) {
        let Self {
            slowdown,
            stragglers,
            failures,
            factors,
            availability,
            failed,
            recovered,
        } = self;
        failed.clear();
        recovered.clear();
        if let Some(s) = stragglers {
            s.step(|h, started| {
                if availability.is_up(h) {
                    factors[h.index()] = if started { *slowdown } else { 1.0 };
                }
            });
        }
        if let Some(f) = failures {
            f.step(|h, down| {
                availability.set(h, !down);
                if down {
                    factors[h.index()] = 0.0;
                    failed.push(h);
                } else {
                    let straggling = stragglers.as_ref().is_some_and(|s| s.active(h));
                    factors[h.index()] = if straggling { *slowdown } else { 1.0 };
                    recovered.push(h);
                }
            });
        }
        (failed, recovered)
    }

    /// Per-machine factors this round.
    pub(crate) fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Per-machine up/down mask this round.
    pub(crate) fn availability(&self) -> &Availability {
        &self.availability
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn stragglers(
        incidence: f64,
        slowdown: f64,
        rounds: f64,
        seed: u64,
    ) -> StragglerModel {
        StragglerModel {
            incidence,
            slowdown,
            mean_duration_rounds: rounds,
            seed,
        }
    }

    pub(crate) fn failures(mtbf_rounds: f64, mttr_rounds: f64, seed: u64) -> FailureModel {
        FailureModel {
            mtbf_rounds,
            mttr_rounds,
            seed,
        }
    }

    /// Rounds of `(factors, failed, recovered)`.
    pub(crate) type Trace = Vec<(Vec<f64>, Vec<MachineId>, Vec<MachineId>)>;

    pub(crate) fn trace(faults: &mut MachineFaults, rounds: usize) -> Trace {
        (0..rounds)
            .map(|_| {
                let (failed, recovered) = faults.step();
                let (failed, recovered) = (failed.to_vec(), recovered.to_vec());
                (faults.factors().to_vec(), failed, recovered)
            })
            .collect()
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut f = MachineFaults::new(
                Some(stragglers(0.3, 0.4, 5.0, seed)),
                Some(failures(4.0, 2.0, seed)),
                8,
            );
            trace(&mut f, 100)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn incidence_rate_roughly_matches() {
        // With mean duration 1, the fraction of straggling rounds ≈ the
        // incidence probability.
        let mut f = MachineFaults::new(Some(stragglers(0.1, 0.5, 1.0, 9)), None, 1);
        let rounds = 20_000;
        let straggling = (0..rounds)
            .filter(|_| {
                f.step();
                f.factors()[0] < 1.0
            })
            .count();
        let frac = straggling as f64 / rounds as f64;
        assert!((frac - 0.1).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn downtime_fraction_roughly_matches_theory() {
        // Steady-state unavailability ≈ MTTR / (MTBF + MTTR).
        let (mtbf, mttr) = (10.0, 5.0);
        let mut f = MachineFaults::new(None, Some(failures(mtbf, mttr, 11)), 1);
        let rounds = 50_000;
        let down = (0..rounds)
            .filter(|_| {
                f.step();
                f.availability().any_down()
            })
            .count();
        let frac = down as f64 / rounds as f64;
        let expect = mttr / (mtbf + mttr);
        assert!((frac - expect).abs() < 0.05, "fraction {frac} vs {expect}");
    }

    #[test]
    fn failure_stream_differs_from_straggler_stream() {
        // The same episode process (start 1/2, mean 1 round) under equal
        // seeds: only the salts tell the two streams apart.
        let mut s = MachineFaults::new(Some(stragglers(0.5, 0.5, 1.0, 42)), None, 16);
        let mut f = MachineFaults::new(None, Some(failures(2.0, 1.0, 42)), 16);
        let affected = |t: Trace| -> Vec<Vec<usize>> {
            t.iter()
                .map(|(x, _, _)| (0..x.len()).filter(|&i| x[i] < 1.0).collect())
                .collect()
        };
        assert_ne!(affected(trace(&mut s, 50)), affected(trace(&mut f, 50)));
    }

    #[test]
    fn a_straggler_that_goes_down_reads_zero_then_straggles_again() {
        let mut f = MachineFaults::new(
            Some(stragglers(0.3, 0.4, 6.0, 2)),
            Some(failures(4.0, 2.0, 2)),
            6,
        );
        let (mut down_while_straggling, mut back_straggling) = (false, false);
        for _ in 0..300 {
            f.step();
            for (i, &x) in f.factors().iter().enumerate() {
                let h = MachineId(i as u32);
                let straggling = f.stragglers.as_ref().unwrap().active(h);
                let up = f.availability().is_up(h);
                let want = match (up, straggling) {
                    (false, _) => 0.0,
                    (true, true) => 0.4,
                    (true, false) => 1.0,
                };
                assert_eq!(x, want, "machine {i}");
                down_while_straggling |= !up && straggling;
            }
            back_straggling |= f.recovered.iter().any(|&h| f.factors()[h.index()] == 0.4);
        }
        assert!(down_while_straggling, "no straggling machine went down");
        assert!(back_straggling, "no machine recovered into its straggle");
    }
}
