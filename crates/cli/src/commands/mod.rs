//! CLI subcommands. Each returns the text to print (so the logic is unit
//! testable without capturing stdout).

pub mod catalog;
pub mod compare;
pub mod gen_trace;
pub mod simulate;

use hadar_baselines::{GavelScheduler, SrtfScheduler, TiresiasScheduler, YarnCsScheduler};
use hadar_core::{HadarConfig, HadarScheduler};
use hadar_sim::Scheduler;

/// The scheduler names `--scheduler` accepts (`yarn-cs` is an alias of
/// `yarn`).
pub const SCHEDULER_NAMES: &str = "hadar|gavel|tiresias|yarn|srtf";

/// Build a scheduler by CLI name.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    match name {
        "hadar" => Ok(Box::new(HadarScheduler::new(HadarConfig::default()))),
        "gavel" => Ok(Box::new(GavelScheduler::paper_default())),
        "tiresias" => Ok(Box::new(TiresiasScheduler::paper_default())),
        "yarn" | "yarn-cs" => Ok(Box::new(YarnCsScheduler::new())),
        "srtf" => Ok(Box::new(SrtfScheduler::new())),
        other => Err(format!(
            "unknown scheduler {other:?} (expected {SCHEDULER_NAMES})"
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
                    [--telemetry-out FILE]
      Run all four schedulers on the same workload and print a table.
      The four runs share one worker per core; results are identical to
      a serial run, only wall-clock differs. The --mtbf/--mttr/
      --failure-seed fault-injection flags work as in simulate;
      --telemetry-out concatenates every scheduler's JSONL stream into
      FILE in table order.

  Every subcommand rejects an option it does not list, an option without
  a value and a stray argument (exit code 2).
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Options;

    #[test]
    fn scheduler_names_resolve() {
        for n in SCHEDULER_NAMES.split('|').chain(["yarn-cs"]) {
            assert!(scheduler_by_name(n).is_ok(), "{n}");
        }
        let Err(msg) = scheduler_by_name("slurm") else {
            panic!("slurm resolved");
        };
        for n in SCHEDULER_NAMES.split('|') {
            assert!(msg.contains(n), "{msg} omits {n}");
        }
        assert!(USAGE.contains(&format!("--scheduler {SCHEDULER_NAMES}")));
    }

    /// Every numeric option of every simulating subcommand turns `nan`,
    /// `inf` and `-1` into an error, never a panic.
    #[test]
    fn no_numeric_option_panics() {
        const ALL: &[&str] = &["simulate", "compare", "gen-trace"];
        const RUNS: &[&str] = &["simulate", "compare"];
        const SIMULATE: &[&str] = &["simulate"];
        // Each option, with `{}` where the bad value goes, and the
        // subcommands that take it.
        let options: [(&[&str], &[&str]); 13] = [
            (&["--pattern", "poisson:{}"], ALL),
            (&["--jobs", "{}"], ALL),
            (&["--seed", "{}"], ALL),
            (&["--cluster", "scaled:{}"], ALL),
            (&["--mtbf", "{}"], RUNS),
            (&["--mtbf", "40", "--mttr", "{}"], RUNS),
            (&["--mtbf", "40", "--failure-seed", "{}"], RUNS),
            (&["--round-min", "{}"], SIMULATE),
            (&["--penalty", "fixed:{}"], SIMULATE),
            (&["--straggler", "{},0.5,3,1"], SIMULATE),
            (&["--straggler", "0.1,{},3,1"], SIMULATE),
            (&["--straggler", "0.1,0.5,{},1"], SIMULATE),
            (&["--straggler", "0.1,0.5,3,{}"], SIMULATE),
        ];
        let run = |command: &str, opts: &Options| match command {
            "simulate" => simulate::run(opts).map(drop),
            "compare" => compare::run(opts).map(drop),
            _ => gen_trace::run(opts).map(drop),
        };
        for (option, commands) in options {
            for &command in commands {
                for bad in ["nan", "inf", "-1"] {
                    // A later `--jobs` overrides the small default.
                    let base: &[&str] = match command {
                        "simulate" => &["--scheduler", "yarn", "--jobs", "4"],
                        _ => &["--jobs", "4"],
                    };
                    let args: Vec<String> = base
                        .iter()
                        .chain(option)
                        .map(|a| a.replace("{}", bad))
                        .collect();
                    let opts = Options::parse(args.clone()).expect("well-formed options");
                    let got = std::panic::catch_unwind(|| run(command, &opts));
                    assert!(
                        matches!(got, Ok(Err(_))),
                        "{command} {} must return an error",
                        args.join(" ")
                    );
                }
            }
        }
    }
}
