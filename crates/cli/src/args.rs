//! Hand-rolled argument parsing (keeps the dependency set to the approved
//! offline list — no clap).

use hadar_cluster::Cluster;
use hadar_sim::{CheckpointModel, FailureModel, PreemptionPenalty, StragglerModel, SweepRunner};
use hadar_workload::ArrivalPattern;

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Options {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Options {
    /// Parse from an argument iterator (excluding the program name).
    ///
    /// Every `--key` consumes the following token as its value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Options::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{key} expects a value"))?;
                out.pairs.push((key.to_owned(), value));
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The last value given for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse an option into `T`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }
}

/// Parse `--pattern static` or `--pattern poisson:RATE`.
pub fn parse_pattern(spec: &str) -> Result<ArrivalPattern, String> {
    if spec == "static" {
        return Ok(ArrivalPattern::Static);
    }
    if let Some(rate) = spec.strip_prefix("poisson:") {
        let jobs_per_hour: f64 = rate
            .parse()
            .map_err(|_| format!("bad poisson rate {rate:?}"))?;
        if jobs_per_hour <= 0.0 {
            return Err("poisson rate must be positive".into());
        }
        return Ok(ArrivalPattern::Poisson { jobs_per_hour });
    }
    Err(format!(
        "unknown pattern {spec:?} (expected 'static' or 'poisson:RATE')"
    ))
}

/// Parse `--cluster paper|aws|toy|scaled:N`.
pub fn parse_cluster(spec: &str) -> Result<Cluster, String> {
    match spec {
        "paper" => Ok(Cluster::paper_simulation()),
        "aws" => Ok(Cluster::paper_aws_prototype()),
        "toy" => Ok(Cluster::motivation_toy()),
        other => {
            if let Some(n) = other.strip_prefix("scaled:") {
                let scale: usize = n.parse().map_err(|_| format!("bad scale {n:?}"))?;
                if scale == 0 {
                    return Err("scale must be ≥ 1".into());
                }
                Ok(Cluster::scaled(scale))
            } else {
                Err(format!(
                    "unknown cluster {spec:?} (expected paper|aws|toy|scaled:N)"
                ))
            }
        }
    }
}

/// Parse `--penalty none|fixed:SECONDS|modeled`.
pub fn parse_penalty(spec: &str) -> Result<PreemptionPenalty, String> {
    match spec {
        "none" => Ok(PreemptionPenalty::None),
        "modeled" => Ok(PreemptionPenalty::Modeled(CheckpointModel::default())),
        other => {
            if let Some(s) = other.strip_prefix("fixed:") {
                let secs: f64 = s.parse().map_err(|_| format!("bad penalty {s:?}"))?;
                if secs < 0.0 {
                    return Err("penalty must be non-negative".into());
                }
                Ok(PreemptionPenalty::Fixed(secs))
            } else {
                Err(format!(
                    "unknown penalty {spec:?} (expected none|fixed:SECONDS|modeled)"
                ))
            }
        }
    }
}

/// Build the sweep runner from `--threads N` (N ≥ 1; 1 = strict serial).
/// Without the flag, `HADAR_THREADS` or the machine's available
/// parallelism (capped at 16) decides.
pub fn parse_runner(opts: &Options) -> Result<SweepRunner, String> {
    match opts.get("threads") {
        None => Ok(SweepRunner::from_env()),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(SweepRunner::new(n)),
            _ => Err(format!("--threads expects a positive integer, got {v:?}")),
        },
    }
}

/// Parse `--straggler INCIDENCE,SLOWDOWN,MEAN_ROUNDS,SEED`.
pub fn parse_straggler(spec: &str) -> Result<StragglerModel, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() != 4 {
        return Err("straggler spec is INCIDENCE,SLOWDOWN,MEAN_ROUNDS,SEED".into());
    }
    let f = |i: usize, what: &str| -> Result<f64, String> {
        parts[i]
            .parse()
            .map_err(|_| format!("bad straggler {what} {:?}", parts[i]))
    };
    Ok(StragglerModel {
        incidence: f(0, "incidence")?,
        slowdown: f(1, "slowdown")?,
        mean_duration_rounds: f(2, "duration")?,
        seed: parts[3]
            .parse()
            .map_err(|_| format!("bad straggler seed {:?}", parts[3]))?,
    })
}

/// Build the machine-failure model from `--mtbf HOURS` (which enables fault
/// injection), `--mttr HOURS` (default 0.5) and `--failure-seed N` (default
/// 0). Times are wall-clock hours, converted to scheduling rounds of
/// `round_length` seconds (at least one round each).
pub fn parse_failure(opts: &Options, round_length: f64) -> Result<Option<FailureModel>, String> {
    let Some(mtbf) = opts.get("mtbf") else {
        if opts.get("mttr").is_some() || opts.get("failure-seed").is_some() {
            return Err("--mttr/--failure-seed only apply together with --mtbf".into());
        }
        return Ok(None);
    };
    let mtbf_hours: f64 = mtbf.parse().map_err(|_| format!("bad --mtbf {mtbf:?}"))?;
    let mttr_hours: f64 = opts.get_parsed("mttr", 0.5)?;
    if !mtbf_hours.is_finite() || mtbf_hours <= 0.0 {
        return Err("--mtbf must be a positive number of hours".into());
    }
    if !mttr_hours.is_finite() || mttr_hours <= 0.0 {
        return Err("--mttr must be a positive number of hours".into());
    }
    let to_rounds = |hours: f64| (hours * 3600.0 / round_length).max(1.0);
    Ok(Some(FailureModel {
        mtbf_rounds: to_rounds(mtbf_hours),
        mttr_rounds: to_rounds(mttr_hours),
        seed: opts.get_parsed("failure-seed", 0u64)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_pairs_and_positionals() {
        let o = opts(&["simulate", "--jobs", "10", "--seed", "3", "extra"]);
        assert_eq!(o.positional(), ["simulate", "extra"]);
        assert_eq!(o.get("jobs"), Some("10"));
        assert_eq!(o.get_parsed("seed", 0u64).unwrap(), 3);
        assert_eq!(o.get_parsed("missing", 42u64).unwrap(), 42);
        assert!(o.get_parsed::<u64>("jobs", 0).is_ok());
    }

    #[test]
    fn last_value_wins() {
        let o = opts(&["--x", "1", "--x", "2"]);
        assert_eq!(o.get("x"), Some("2"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Options::parse(vec!["--jobs".to_string()]).is_err());
    }

    #[test]
    fn patterns() {
        assert_eq!(parse_pattern("static").unwrap(), ArrivalPattern::Static);
        assert_eq!(
            parse_pattern("poisson:45").unwrap(),
            ArrivalPattern::Poisson {
                jobs_per_hour: 45.0
            }
        );
        assert!(parse_pattern("poisson:-1").is_err());
        assert!(parse_pattern("burst").is_err());
    }

    #[test]
    fn clusters() {
        assert_eq!(parse_cluster("paper").unwrap().total_gpus(), 60);
        assert_eq!(parse_cluster("aws").unwrap().total_gpus(), 8);
        assert_eq!(parse_cluster("toy").unwrap().total_gpus(), 6);
        assert_eq!(parse_cluster("scaled:2").unwrap().total_gpus(), 24);
        assert!(parse_cluster("scaled:0").is_err());
        assert!(parse_cluster("moon").is_err());
    }

    #[test]
    fn penalties() {
        assert_eq!(parse_penalty("none").unwrap(), PreemptionPenalty::None);
        assert_eq!(
            parse_penalty("fixed:12.5").unwrap(),
            PreemptionPenalty::Fixed(12.5)
        );
        assert!(matches!(
            parse_penalty("modeled").unwrap(),
            PreemptionPenalty::Modeled(_)
        ));
        assert!(parse_penalty("fixed:-1").is_err());
        assert!(parse_penalty("huge").is_err());
    }

    #[test]
    fn threads() {
        assert_eq!(parse_runner(&opts(&[])).unwrap(), SweepRunner::from_env());
        assert_eq!(
            parse_runner(&opts(&["--threads", "3"])).unwrap().threads(),
            3
        );
        assert!(parse_runner(&opts(&["--threads", "0"])).is_err());
        assert!(parse_runner(&opts(&["--threads", "many"])).is_err());
    }

    #[test]
    fn stragglers() {
        let m = parse_straggler("0.05,0.5,4,9").unwrap();
        assert_eq!(m.incidence, 0.05);
        assert_eq!(m.slowdown, 0.5);
        assert_eq!(m.mean_duration_rounds, 4.0);
        assert_eq!(m.seed, 9);
        assert!(parse_straggler("1,2,3").is_err());
        assert!(parse_straggler("a,b,c,d").is_err());
    }

    #[test]
    fn failures() {
        // No --mtbf: failure injection stays off.
        assert_eq!(parse_failure(&opts(&[]), 360.0).unwrap(), None);
        // 24h MTBF / 0.5h default MTTR at 6-minute rounds.
        let m = parse_failure(&opts(&["--mtbf", "24"]), 360.0)
            .unwrap()
            .unwrap();
        assert_eq!(m.mtbf_rounds, 240.0);
        assert_eq!(m.mttr_rounds, 5.0);
        assert_eq!(m.seed, 0);
        let m = parse_failure(
            &opts(&["--mtbf", "12", "--mttr", "1", "--failure-seed", "9"]),
            360.0,
        )
        .unwrap()
        .unwrap();
        assert_eq!(m.mtbf_rounds, 120.0);
        assert_eq!(m.mttr_rounds, 10.0);
        assert_eq!(m.seed, 9);
        // Sub-round repair times clamp to one round.
        let m = parse_failure(&opts(&["--mtbf", "24", "--mttr", "0.01"]), 360.0)
            .unwrap()
            .unwrap();
        assert_eq!(m.mttr_rounds, 1.0);
        assert!(parse_failure(&opts(&["--mtbf", "0"]), 360.0).is_err());
        assert!(parse_failure(&opts(&["--mtbf", "x"]), 360.0).is_err());
        assert!(parse_failure(&opts(&["--mtbf", "24", "--mttr", "-1"]), 360.0).is_err());
        assert!(parse_failure(&opts(&["--mttr", "1"]), 360.0).is_err());
        assert!(parse_failure(&opts(&["--failure-seed", "1"]), 360.0).is_err());
    }
}
