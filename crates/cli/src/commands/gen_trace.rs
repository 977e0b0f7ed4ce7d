//! `hadar-cli gen-trace`.

use hadar_workload::{generate_trace, save_trace_csv, ArrivalPattern, TraceConfig};

use crate::args::{parse_cluster, parse_pattern, Options};

/// The options `gen-trace` accepts.
const KEYS: &[&str] = &["jobs", "seed", "pattern", "cluster", "out"];

/// Generate a trace; returns `(report, csv)` — the CSV goes to `--out` or
/// stdout.
pub fn run(opts: &Options) -> Result<(String, String), String> {
    opts.accept_only(KEYS)?;
    let num_jobs: usize = opts.get_parsed("jobs", 480)?;
    let seed: u64 = opts.get_parsed("seed", 0)?;
    let pattern = match opts.get("pattern") {
        Some(p) => parse_pattern(p)?,
        None => ArrivalPattern::Static,
    };
    let cluster = parse_cluster(opts.get("cluster").unwrap_or("paper"))?;
    if num_jobs == 0 {
        return Err("--jobs must be ≥ 1".into());
    }

    let jobs = generate_trace(
        &TraceConfig {
            num_jobs,
            seed,
            pattern,
        },
        cluster.catalog(),
    );
    let csv = save_trace_csv(&jobs);
    let stats = hadar_workload::TraceStats::of(&jobs);
    let report = format!(
        "generated {num_jobs} jobs (seed {seed}, {pattern:?}): {}",
        stats.render()
    );
    Ok((report, csv))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn generates_csv_with_header() {
        let (report, csv) = run(&opts(&["--jobs", "12", "--seed", "5"])).unwrap();
        assert!(report.contains("12 jobs"));
        assert!(csv.starts_with("id,model,arrival_s"));
        assert_eq!(csv.lines().count(), 13);
    }

    #[test]
    fn poisson_pattern_accepted() {
        let (_, csv) = run(&opts(&[
            "--jobs",
            "5",
            "--pattern",
            "poisson:30",
            "--seed",
            "1",
        ]))
        .unwrap();
        assert_eq!(csv.lines().count(), 6);
    }

    #[test]
    fn zero_jobs_rejected() {
        assert!(run(&opts(&["--jobs", "0"])).is_err());
    }
}
