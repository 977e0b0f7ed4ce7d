//! `hadar-cli simulate`: one simulation, timed, with its metric report.

use std::time::Instant;

use hadar_sim::{SimConfig, SimOutcome, Simulation, Telemetry};
use hadar_workload::{generate_trace, load_trace_csv, ArrivalPattern, TraceConfig};

use crate::args::{
    parse_cluster, parse_failure, parse_pattern, parse_penalty, parse_straggler, Options,
};
use crate::commands::{scheduler_by_name, SCHEDULER_NAMES};

/// The options `simulate` accepts.
const KEYS: &[&str] = &[
    "scheduler",
    "trace",
    "jobs",
    "seed",
    "pattern",
    "cluster",
    "round-min",
    "penalty",
    "straggler",
    "mtbf",
    "mttr",
    "failure-seed",
    "csv",
    "telemetry-out",
];

/// Run one simulation. Returns `(report, per_job_csv, telemetry_jsonl)`;
/// the stream is `Some` only when `--telemetry-out` was given.
pub fn run(opts: &Options) -> Result<(String, String, Option<String>), String> {
    opts.accept_only(KEYS)?;
    let scheduler = scheduler_by_name(
        opts.get("scheduler")
            .ok_or_else(|| format!("--scheduler is required ({SCHEDULER_NAMES})"))?,
    )?;
    let cluster = parse_cluster(opts.get("cluster").unwrap_or("paper"))?;

    // Workload: either a trace file or generated on the fly.
    let jobs = if let Some(path) = opts.get("trace") {
        let csv = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace {path:?}: {e}"))?;
        load_trace_csv(&csv, cluster.catalog())?
    } else {
        let num_jobs: usize = opts.get_parsed("jobs", 48)?;
        if num_jobs == 0 {
            return Err("--jobs must be ≥ 1".into());
        }
        let seed: u64 = opts.get_parsed("seed", 0)?;
        let pattern = match opts.get("pattern") {
            Some(p) => parse_pattern(p)?,
            None => ArrivalPattern::Static,
        };
        generate_trace(
            &TraceConfig {
                num_jobs,
                seed,
                pattern,
            },
            cluster.catalog(),
        )
    };

    let round_min: f64 = opts.get_parsed("round-min", 6.0)?;
    if !round_min.is_finite() || round_min <= 0.0 {
        return Err("--round-min must be finite and positive".into());
    }
    let mut config = SimConfig {
        round_length: round_min * 60.0,
        ..SimConfig::default()
    };
    if let Some(p) = opts.get("penalty") {
        config.penalty = parse_penalty(p)?;
    }
    if let Some(s) = opts.get("straggler") {
        config.straggler = Some(parse_straggler(s)?);
    }
    config.failure = parse_failure(opts, config.round_length)?;

    let n = jobs.len();
    let observe = opts.get("telemetry-out").is_some();
    let sink = if observe {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let start = Instant::now();
    let outcome = Simulation::new(cluster, jobs, config)
        .run_with_telemetry(scheduler, sink)
        .map_err(|e| e.to_string())?;
    let mut report = render_report(&outcome, n, start.elapsed().as_secs_f64());
    if observe {
        let t = outcome.telemetry_summary();
        report.push_str(&format!(
            "\ntelemetry            : {} rounds, {} scheduled, {} preempted, \
             {} evicted, max queue {}",
            t.rounds, t.scheduled, t.preempted, t.evicted, t.max_queue_depth,
        ));
    }
    let stream = outcome.telemetry_stream().map(str::to_owned);
    Ok((report, per_job_csv(&outcome), stream))
}

fn render_report(out: &SimOutcome, submitted: usize, wall_seconds: f64) -> String {
    let m = out.metrics();
    let q = out.queuing_delays();
    // Only rendered when fault injection actually fired, so reports from
    // failure-free runs are unchanged.
    let failures = if out.machine_failures() > 0 {
        format!(
            "\nmachine failures     : {} ({} evictions, {:.1} GPU-h capacity lost)",
            out.machine_failures(),
            out.evictions(),
            out.lost_gpu_seconds() / 3600.0,
        )
    } else {
        String::new()
    };
    format!(
        "scheduler            : {}\n\
         jobs completed       : {}/{submitted}{}\n\
         mean JCT             : {:.2} h\n\
         median JCT           : {:.2} h\n\
         p95 JCT              : {:.2} h\n\
         makespan             : {:.2} h\n\
         GPU utilization      : {:.1} % (demand-weighted), {:.1} % (held-time)\n\
         finish-time fairness : {:.3} (mean rho)\n\
         queuing delay        : {:.2} h mean, {:.2} h max\n\
         reallocation rate    : {:.1} % of job-rounds\n\
         scheduler decisions  : {:.3} ms mean wall time\n\
         simulation wall time : {wall_seconds:.2} s{failures}",
        out.scheduler,
        out.completed_jobs(),
        if out.timed_out { " (TIMED OUT)" } else { "" },
        m.mean / 3600.0,
        m.median / 3600.0,
        m.p95 / 3600.0,
        out.makespan() / 3600.0,
        out.demand_weighted_utilization() * 100.0,
        out.held_utilization() * 100.0,
        out.ftf().mean,
        q.mean / 3600.0,
        q.max / 3600.0,
        out.reallocation_rate() * 100.0,
        out.mean_decision_seconds() * 1e3,
    )
}

fn per_job_csv(out: &SimOutcome) -> String {
    let mut w = hadar_metrics::CsvWriter::new(&[
        "job_id",
        "model",
        "gang",
        "arrival_s",
        "first_scheduled_s",
        "finish_s",
        "jct_s",
        "queuing_delay_s",
        "reallocations",
    ]);
    for r in &out.records {
        w.row(vec![
            r.job.id.0.to_string(),
            r.job.model.model_name().to_owned(),
            r.job.gang.to_string(),
            format!("{:.1}", r.job.arrival),
            r.first_scheduled.map_or("-".into(), |t| format!("{t:.1}")),
            r.finish.map_or("-".into(), |t| format!("{t:.1}")),
            r.jct().map_or("-".into(), |t| format!("{t:.1}")),
            r.queuing_delay().map_or("-".into(), |t| format!("{t:.1}")),
            r.reallocations.to_string(),
        ]);
    }
    w.as_str().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn simulate_requires_scheduler() {
        assert!(run(&opts(&["--jobs", "4"])).is_err());
    }

    #[test]
    fn simulate_rejects_unknown_options() {
        for (args, key) in [
            (
                &["--scheduler", "yarn", "--jobz", "5", "--sed", "3"][..],
                "--jobz",
            ),
            (
                &["--scheduler", "hadar", "--jobs", "4", "--threads", "2"][..],
                "--threads",
            ),
        ] {
            let err = run(&opts(args)).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }

    #[test]
    fn simulate_small_run() {
        let (report, csv, telemetry) = run(&opts(&[
            "--scheduler",
            "hadar",
            "--jobs",
            "6",
            "--seed",
            "2",
        ]))
        .unwrap();
        assert!(report.contains("jobs completed       : 6/6"));
        assert!(report.contains("Hadar"));
        assert_eq!(csv.lines().count(), 7);
        // Without --telemetry-out the sink is disabled: no stream, no
        // telemetry block in the report.
        assert!(telemetry.is_none());
        assert!(!report.contains("telemetry"));
    }

    #[test]
    fn simulate_with_telemetry_out() {
        for scheduler in ["hadar", "gavel", "tiresias", "yarn", "srtf"] {
            let (report, _, telemetry) = run(&opts(&[
                "--scheduler",
                scheduler,
                "--jobs",
                "5",
                "--seed",
                "3",
                "--telemetry-out",
                "unused-by-this-test.jsonl",
            ]))
            .unwrap();
            let stream = telemetry.expect("stream present with --telemetry-out");
            let r = hadar_metrics::validate_telemetry_jsonl(&stream)
                .unwrap_or_else(|e| panic!("{scheduler}: invalid stream: {e}"));
            assert!(r.rounds > 0, "{scheduler}");
            assert_eq!(r.completed, 5, "{scheduler}");
            assert!(report.contains("telemetry"), "{scheduler}:\n{report}");
        }
    }

    #[test]
    fn simulate_with_all_options() {
        let (report, _, _) = run(&opts(&[
            "--scheduler",
            "tiresias",
            "--jobs",
            "4",
            "--seed",
            "1",
            "--pattern",
            "poisson:90",
            "--cluster",
            "scaled:2",
            "--round-min",
            "12",
            "--penalty",
            "modeled",
            "--straggler",
            "0.05,0.5,3,7",
        ]))
        .unwrap();
        assert!(report.contains("Tiresias"));
        assert!(report.contains("4/4"));
    }

    #[test]
    fn simulate_with_failures() {
        // An aggressive failure process (MTBF 0.5 h = 5 rounds) on a small
        // trace: the run finishes and the report grows the failure block.
        let (report, _, _) = run(&opts(&[
            "--scheduler",
            "hadar",
            "--jobs",
            "6",
            "--seed",
            "2",
            "--mtbf",
            "0.5",
            "--mttr",
            "0.2",
            "--failure-seed",
            "3",
        ]))
        .unwrap();
        assert!(
            report.contains("machine failures"),
            "no failure block:\n{report}"
        );
    }

    #[test]
    fn bad_failure_flags_rejected() {
        assert!(run(&opts(&[
            "--scheduler",
            "hadar",
            "--jobs",
            "2",
            "--mtbf",
            "-1"
        ]))
        .is_err());
        assert!(run(&opts(&[
            "--scheduler",
            "hadar",
            "--jobs",
            "2",
            "--mttr",
            "1"
        ]))
        .is_err());
    }

    #[test]
    fn simulate_from_trace_file() {
        let dir = std::env::temp_dir().join("hadar-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let (_, csv) =
            crate::commands::gen_trace::run(&opts(&["--jobs", "5", "--seed", "9"])).unwrap();
        std::fs::write(&path, csv).unwrap();
        let (report, _, _) = run(&opts(&[
            "--scheduler",
            "gavel",
            "--trace",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(report.contains("5/5"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_round_length_rejected() {
        assert!(run(&opts(&[
            "--scheduler",
            "hadar",
            "--jobs",
            "2",
            "--round-min",
            "0"
        ]))
        .is_err());
    }
}
