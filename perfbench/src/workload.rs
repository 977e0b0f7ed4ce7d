//! The benchmark's workloads and policies: inputs made from a seed, and the
//! program's default schedulers that run on them.

use hadar_baselines::{GavelScheduler, SrtfScheduler, TiresiasScheduler, YarnCsScheduler};
use hadar_cluster::Cluster;
use hadar_core::{HadarConfig, HadarScheduler};
use hadar_sim::{Scheduler, SimConfig};
use hadar_workload::{ArrivalPattern, Job, TraceConfig};

/// A named benchmark workload. Each is a batch: a fixed input set runs to its
/// end and the benchmark reports the CPU time it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §IV-A setup: 60-GPU cluster, 480 Poisson arrivals, every
    /// policy to completion, one after another.
    Paper480,
    /// Fig. 7 scale: 2048 static jobs on 768 GPUs, every policy capped at
    /// [`SCALE_ROUND_CAP`] rounds.
    Scale2048,
}

/// Rounds each `scale-2048` simulation runs before the engine's cap stops it.
/// Gavel's first five or six rounds per trace solve a large LP; at 150
/// rounds they stay inside the top 5%, so its p95 does not sit on the edge
/// between them and the rest, where it would jump from trace to trace.
const SCALE_ROUND_CAP: u64 = 150;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Paper480, Workload::Scale2048];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper480 => "paper-480",
            Workload::Scale2048 => "scale-2048",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds one simulation of `policy` takes on one trace, on the
    /// 2-core host the benchmark was defined on while other tenants load it
    /// (a quiet period halves them). Only used to turn `--seconds` into a
    /// repeat count that does not depend on the speed of the code under
    /// test.
    fn nominal_sim_seconds(self, policy: Policy) -> f64 {
        match (self, policy) {
            (Workload::Paper480, Policy::Hadar) => 4.5,
            (Workload::Paper480, _) => 0.3,
            (Workload::Scale2048, Policy::Hadar) => 6.5,
            (Workload::Scale2048, Policy::Gavel) => 1.3,
            (Workload::Scale2048, _) => 0.3,
        }
    }

    /// Distinct traces `policy` runs on in a timed run; every policy runs on
    /// the first ones. Hadar's default round path costs ten times the other
    /// policies', so it gets fewer. More traces steady the figures that
    /// depend on the draw: round counts and JCT at 480 jobs, how many of
    /// Gavel's first rounds need a large LP at 2048. At 2048 jobs the three
    /// other baselines only add to `cpu_s`, so they get two.
    pub fn traces(self, policy: Policy) -> usize {
        match (self, policy) {
            (Workload::Paper480, Policy::Hadar) => 4,
            (Workload::Paper480, _) => 8,
            (Workload::Scale2048, Policy::Hadar) => 3,
            (Workload::Scale2048, Policy::Gavel) => 4,
            (Workload::Scale2048, _) => 2,
        }
    }

    /// The most traces any policy runs on.
    pub fn max_traces(self) -> usize {
        Policy::ALL
            .into_iter()
            .map(|p| self.traces(p))
            .max()
            .unwrap_or(1)
    }

    /// How often a timed run repeats each simulation for a `--seconds`
    /// budget: fixed by the budget alone, at least twice.
    pub fn repeats(self, seconds: u64) -> usize {
        let cycle: f64 = Policy::ALL
            .into_iter()
            .map(|p| self.traces(p) as f64 * self.nominal_sim_seconds(p))
            .sum();
        ((seconds as f64 / cycle).floor() as usize).clamp(2, 32)
    }

    /// The round cap every simulation must stop at, if the workload has one.
    pub fn round_cap(self) -> Option<u64> {
        match self {
            Workload::Scale2048 => Some(SCALE_ROUND_CAP),
            Workload::Paper480 => None,
        }
    }

    /// The cluster the workload runs on.
    pub fn cluster(self) -> Cluster {
        match self {
            Workload::Paper480 => Cluster::paper_simulation(),
            Workload::Scale2048 => Cluster::scaled(64),
        }
    }

    /// The trace configuration for a trace seed.
    pub fn trace_config(self, seed: u64) -> TraceConfig {
        match self {
            Workload::Paper480 => TraceConfig {
                num_jobs: 480,
                seed,
                pattern: ArrivalPattern::paper_continuous(),
            },
            Workload::Scale2048 => TraceConfig {
                num_jobs: 2048,
                seed,
                pattern: ArrivalPattern::Static,
            },
        }
    }

    /// The simulations of one pass, in run order: a policy and the engine
    /// configuration each.
    pub fn cells(self) -> Vec<Cell> {
        let config = SimConfig {
            max_rounds: self.round_cap().unwrap_or(SimConfig::default().max_rounds),
            ..SimConfig::default()
        };
        Policy::ALL
            .into_iter()
            .map(|policy| Cell { policy, config })
            .collect()
    }
}

/// One simulation of a pass, before its inputs are attached.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The policy that schedules it.
    pub policy: Policy,
    /// Engine configuration.
    pub config: SimConfig,
}

/// One simulation ready to run: its cell, cluster, trace and scheduler.
pub struct Prepared {
    /// What to run.
    pub cell: Cell,
    /// The cluster.
    pub cluster: Cluster,
    /// The trace.
    pub jobs: Vec<Job>,
    /// A freshly built scheduler with the program's defaults.
    pub scheduler: Box<dyn Scheduler + Send>,
}

/// The five policies, each with the program's default configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Policy {
    /// Hadar (the paper's scheduler).
    Hadar,
    /// Gavel, max-total-throughput.
    Gavel,
    /// Tiresias.
    Tiresias,
    /// YARN capacity scheduler.
    YarnCs,
    /// Shortest remaining time first.
    Srtf,
}

impl Policy {
    /// Every policy, in run order.
    pub const ALL: [Policy; 5] = [
        Policy::Hadar,
        Policy::Gavel,
        Policy::Tiresias,
        Policy::YarnCs,
        Policy::Srtf,
    ];

    /// The metric-name prefix of the policy.
    pub fn key(self) -> &'static str {
        match self {
            Policy::Hadar => "hadar",
            Policy::Gavel => "gavel",
            Policy::Tiresias => "tiresias",
            Policy::YarnCs => "yarn_cs",
            Policy::Srtf => "srtf",
        }
    }

    /// Whether the policy is one of the three summed into `baselines.sim_s`.
    pub fn is_baseline(self) -> bool {
        matches!(self, Policy::Tiresias | Policy::YarnCs | Policy::Srtf)
    }

    /// Build the scheduler with the program's defaults.
    pub fn build(self) -> Box<dyn Scheduler + Send> {
        match self {
            Policy::Hadar => Box::new(HadarScheduler::new(HadarConfig::default())),
            Policy::Gavel => Box::new(GavelScheduler::paper_default()),
            Policy::Tiresias => Box::new(TiresiasScheduler::paper_default()),
            Policy::YarnCs => Box::new(YarnCsScheduler::new()),
            Policy::Srtf => Box::new(SrtfScheduler::new()),
        }
    }
}

/// The host's hardware threads.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A seed derived from `seed` and a stream index (SplitMix64 finalizer), so
/// each trace gets its own independent stream.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of trace `trace` of a run started with `seed`.
pub fn trace_seed(seed: u64, trace: usize) -> u64 {
    derive_seed(seed, trace as u64)
}
