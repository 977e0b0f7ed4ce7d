//! `hadar-cli compare`: all four schedulers on one workload. The four
//! simulation cells are submitted through a `hadar_sim::SweepRunner`, so
//! `--threads N` runs them concurrently (results are identical to a serial
//! run; only wall-clock differs).

use hadar_metrics::Table;
use hadar_sim::{SimConfig, SimResult, Simulation, Telemetry};
use hadar_workload::{generate_trace, ArrivalPattern, TraceConfig};

use crate::args::{parse_cluster, parse_failure, parse_pattern, parse_runner, Options};
use crate::commands::scheduler_by_name;

const SCHEDULERS: [&str; 4] = ["hadar", "gavel", "tiresias", "yarn"];

/// Run the comparison. Returns `(table, telemetry_jsonl)`; the stream
/// (every scheduler's JSONL concatenated, in table order) is `Some` only
/// when `--telemetry-out` was given.
pub fn run(opts: &Options) -> Result<(String, Option<String>), String> {
    let num_jobs: usize = opts.get_parsed("jobs", 48)?;
    if num_jobs == 0 {
        return Err("--jobs must be ≥ 1".into());
    }
    let seed: u64 = opts.get_parsed("seed", 0)?;
    let pattern = match opts.get("pattern") {
        Some(p) => parse_pattern(p)?,
        None => ArrivalPattern::Static,
    };
    let cluster = parse_cluster(opts.get("cluster").unwrap_or("paper"))?;
    let runner = parse_runner(opts)?;
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs,
            seed,
            pattern,
        },
        cluster.catalog(),
    );

    let config = SimConfig {
        failure: parse_failure(opts, SimConfig::default().round_length)?,
        ..SimConfig::default()
    };

    let observe = opts.get("telemetry-out").is_some();
    let cells: Vec<Box<dyn FnOnce() -> SimResult + Send>> = SCHEDULERS
        .into_iter()
        .map(|name| {
            let (cluster, jobs) = (cluster.clone(), jobs.clone());
            Box::new(move || {
                let scheduler = scheduler_by_name(name).expect("known scheduler name");
                let sink = if observe {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                Simulation::new(cluster, jobs, config).run_with_telemetry(scheduler, sink)
            }) as Box<dyn FnOnce() -> SimResult + Send>
        })
        .collect();
    let results = runner.run(cells);

    let mut table = Table::new(vec![
        "Scheduler",
        "Mean JCT (h)",
        "Median JCT (h)",
        "Makespan (h)",
        "Util (%)",
        "Mean FTF",
        "Queue (h)",
    ]);
    let mut timings = String::new();
    let mut streams = String::new();
    for cell in results {
        let out = cell.outcome.map_err(|e| e.to_string())?;
        if let Some(s) = out.telemetry_stream() {
            streams.push_str(s);
        }
        let m = out.metrics();
        timings.push_str(&format!(
            "  {:<9} cell wall-clock {:.2}s\n",
            out.scheduler, cell.wall_seconds
        ));
        table.row(vec![
            out.scheduler.clone(),
            format!("{:.2}", m.mean / 3600.0),
            format!("{:.2}", m.median / 3600.0),
            format!("{:.2}", out.makespan() / 3600.0),
            format!("{:.1}", out.demand_weighted_utilization() * 100.0),
            format!("{:.3}", out.ftf().mean),
            format!("{:.2}", out.queuing_delays().mean / 3600.0),
        ]);
    }
    let rendered = format!(
        "{num_jobs} jobs, seed {seed}, {pattern:?}, {} GPUs, {} worker threads\n\n{}\n{timings}",
        cluster.total_gpus(),
        runner.threads(),
        table.render()
    );
    Ok((rendered, observe.then_some(streams)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compares_all_four() {
        let opts =
            Options::parse(["--jobs", "6", "--seed", "4"].iter().map(|s| s.to_string())).unwrap();
        let (out, telemetry) = run(&opts).unwrap();
        for name in ["Hadar", "Gavel", "Tiresias", "YARN-CS"] {
            assert!(out.contains(name), "{name} missing:\n{out}");
        }
        assert!(telemetry.is_none());
    }

    #[test]
    fn compare_with_telemetry_collects_all_streams() {
        let opts = Options::parse(
            ["--jobs", "5", "--seed", "4", "--telemetry-out", "x.jsonl"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        let (_, telemetry) = run(&opts).unwrap();
        let stream = telemetry.expect("stream present with --telemetry-out");
        // One meta line per scheduler, each opening a schema-valid segment.
        let metas: Vec<usize> = stream
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("\"type\":\"meta\""))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(metas.len(), 4, "{stream}");
        let lines: Vec<&str> = stream.lines().collect();
        for (k, &start) in metas.iter().enumerate() {
            let end = metas.get(k + 1).copied().unwrap_or(lines.len());
            let segment = lines[start..end].join("\n");
            let r = hadar_metrics::validate_telemetry_jsonl(&segment).unwrap();
            assert!(r.rounds > 0, "{}", r.scheduler);
        }
    }

    #[test]
    fn failure_injection_is_deterministic_across_threads() {
        // Fixed --failure-seed: the same fault timeline (and therefore the
        // same table) whatever the worker count.
        let base = [
            "--jobs",
            "6",
            "--seed",
            "4",
            "--mtbf",
            "1",
            "--mttr",
            "0.3",
            "--failure-seed",
            "7",
            "--threads",
        ];
        let table = |threads: &str| {
            let args: Vec<String> = base
                .iter()
                .map(|s| s.to_string())
                .chain([threads.to_string()])
                .collect();
            let (out, _) = run(&Options::parse(args).unwrap()).unwrap();
            out.lines()
                .filter(|l| !l.contains("worker threads") && !l.contains("cell wall-clock"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table("1"), table("4"));
    }

    #[test]
    fn threaded_run_matches_serial_table() {
        let base = ["--jobs", "6", "--seed", "4", "--threads"];
        let table = |threads: &str| {
            let args: Vec<String> = base
                .iter()
                .map(|s| s.to_string())
                .chain([threads.to_string()])
                .collect();
            let (out, _) = run(&Options::parse(args).unwrap()).unwrap();
            // Strip the header line (thread count) and cell wall-clock
            // lines; the metric table itself must be identical.
            out.lines()
                .filter(|l| !l.contains("worker threads") && !l.contains("cell wall-clock"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table("1"), table("4"));
    }
}
