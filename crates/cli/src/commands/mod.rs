//! CLI subcommands. Each returns the text to print (so the logic is unit
//! testable without capturing stdout).

pub mod catalog;
pub mod compare;
pub mod gen_trace;
pub mod simulate;

use hadar_baselines::{GavelScheduler, SrtfScheduler, TiresiasScheduler, YarnCsScheduler};
use hadar_core::{HadarConfig, HadarScheduler};
use hadar_sim::Scheduler;

/// Build a scheduler by CLI name.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    match name {
        "hadar" => Ok(Box::new(HadarScheduler::new(HadarConfig::default()))),
        "gavel" => Ok(Box::new(GavelScheduler::paper_default())),
        "tiresias" => Ok(Box::new(TiresiasScheduler::paper_default())),
        "yarn" | "yarn-cs" => Ok(Box::new(YarnCsScheduler::new())),
        "srtf" => Ok(Box::new(SrtfScheduler::new())),
        other => Err(format!(
            "unknown scheduler {other:?} (expected hadar|gavel|tiresias|yarn)"
        )),
    }
}

/// The shared usage text.
pub const USAGE: &str = "\
hadar-cli — heterogeneity-aware DL cluster scheduling (Hadar, IPDPS 2024)

USAGE:
  hadar-cli catalog
      Print the Table II workload catalog.

  hadar-cli gen-trace [--jobs N] [--seed S] [--pattern static|poisson:RATE]
                      [--cluster paper|aws|toy|scaled:N] [--out FILE]
      Generate a synthetic Philly-style trace (CSV to stdout or FILE).

  hadar-cli simulate --scheduler hadar|gavel|tiresias|yarn|srtf
                     [--trace FILE | --jobs N --seed S --pattern P]
                     [--cluster paper|aws|toy|scaled:N] [--round-min M]
                     [--penalty none|fixed:SECS|modeled]
                     [--straggler INC,SLOW,ROUNDS,SEED]
                     [--mtbf HOURS] [--mttr HOURS] [--failure-seed S]
                     [--csv FILE] [--telemetry-out FILE]
                     [--threads N]
      Run one simulation and print the metric report. --mtbf enables
      seeded machine fault injection (mean time between failures per
      machine, in hours; --mttr is the mean repair time, default 0.5 h):
      jobs on a failed machine are evicted, lose the round, and pay the
      checkpoint-restore penalty when re-placed. --telemetry-out FILE
      records a per-round JSONL telemetry stream (schema
      hadar.telemetry.v1: queue depth, scheduling/preemption/eviction
      counts, GPU-type utilization, per-policy counters) without
      changing the simulated schedule.

  hadar-cli compare [--jobs N] [--seed S] [--pattern P] [--cluster C]
                    [--mtbf HOURS] [--mttr HOURS] [--failure-seed S]
                    [--telemetry-out FILE] [--threads N]
      Run all four schedulers on the same workload and print a table.
      --threads N fans the four runs over N worker threads (default:
      HADAR_THREADS or the machine parallelism; results are identical to
      --threads 1, only wall-clock differs). The --mtbf/--mttr/
      --failure-seed fault-injection flags work as in simulate;
      --telemetry-out concatenates every scheduler's JSONL stream into
      FILE in table order.
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_names_resolve() {
        for n in ["hadar", "gavel", "tiresias", "yarn", "yarn-cs", "srtf"] {
            assert!(scheduler_by_name(n).is_ok(), "{n}");
        }
        assert!(scheduler_by_name("slurm").is_err());
    }
}
