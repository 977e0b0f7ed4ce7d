//! Synthetic Philly-style trace generation (§IV-A) and CSV round-tripping.
//!
//! The paper samples 480 jobs from the busiest hours of the Microsoft trace,
//! buckets them by GPU-time into four classes, and — because the trace lacks
//! model information — *uniformly samples the job type from these categories*
//! and assigns the Table II model of that size. [`generate_trace`] implements
//! the same recipe with a seeded RNG so every experiment is reproducible.

use hadar_rng::{Rng, StdRng};

use hadar_cluster::{GpuCatalog, JobId};

use crate::arrivals::ArrivalPattern;
use crate::categories::SizeClass;
use crate::job::Job;
use crate::model::DlTask;

/// Configuration of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of jobs (the paper uses 480).
    pub num_jobs: usize,
    /// RNG seed; equal seeds yield identical traces.
    pub seed: u64,
    /// Arrival process.
    pub pattern: ArrivalPattern,
}

impl TraceConfig {
    /// The paper's static-trace setting: 480 jobs, all present at t = 0.
    pub fn paper_static(seed: u64) -> Self {
        Self {
            num_jobs: 480,
            seed,
            pattern: ArrivalPattern::Static,
        }
    }

    /// The paper's continuous-trace setting: 480 jobs, Poisson λ = 60/hour.
    pub fn paper_continuous(seed: u64) -> Self {
        Self {
            num_jobs: 480,
            seed,
            pattern: ArrivalPattern::paper_continuous(),
        }
    }
}

/// Table II models available for a size class.
fn models_of_class(class: SizeClass) -> &'static [DlTask] {
    match class {
        SizeClass::Small => &[DlTask::ResNet18],
        SizeClass::Medium => &[DlTask::CycleGan],
        SizeClass::Large => &[DlTask::Lstm, DlTask::Transformer],
        SizeClass::XLarge => &[DlTask::ResNet50],
    }
}

/// Sample from a discrete weighted distribution.
fn weighted_choice<R: Rng>(choices: &[(u32, f64)], rng: &mut R) -> u32 {
    let total: f64 = choices.iter().map(|&(_, w)| w).sum();
    let mut x = rng.gen_f64() * total;
    for &(v, w) in choices {
        if x < w {
            return v;
        }
        x -= w;
    }
    choices.last().expect("non-empty distribution").0
}

/// Generate a trace against `catalog` (which decides which GPU types the
/// throughput rows cover).
///
/// Job ids are dense `0..num_jobs` in arrival order.
pub fn generate_trace(config: &TraceConfig, catalog: &GpuCatalog) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut arrivals = config.pattern.generate(config.num_jobs, &mut rng);
    arrivals.sort_by(|a, b| a.partial_cmp(b).expect("arrival times are finite"));

    (0..config.num_jobs)
        .map(|i| {
            // Uniformly sample the size class (§IV-A), then GPU-hours within
            // the class range, then a Table II model of that size.
            let class = SizeClass::ALL[rng.gen_range_usize(0..SizeClass::ALL.len())];
            let range = class.gpu_hour_range();
            let gpu_hours = rng.gen_range_f64(range.start..range.end);
            let models = models_of_class(class);
            let model = models[rng.gen_range_usize(0..models.len())];
            let gang = weighted_choice(class.gang_distribution(), &mut rng);

            // Choose E_j so the job's best-case GPU-time equals the sampled
            // bucket value: gpu_hours = W · t_min / 3600 with
            // t_min = E·N / (W · X_max)  ⇒  E = gpu_hours·3600·X_max / N.
            let profile = crate::throughput::ThroughputProfile::for_model(model, catalog);
            let n = model.iterations_per_epoch();
            let x_max = profile.max_rate();
            assert!(x_max > 0.0, "{model} cannot run on any catalog type");
            let epochs = ((gpu_hours * 3600.0 * x_max) / n as f64).round().max(1.0) as u64;

            Job::new(
                JobId(i as u32),
                model,
                arrivals[i],
                gang,
                epochs,
                n,
                profile,
            )
        })
        .collect()
}

/// Serialize a trace to CSV (`id,model,arrival_s,gang,epochs,iters_per_epoch`).
pub fn save_trace_csv(jobs: &[Job]) -> String {
    let mut out = String::from("id,model,arrival_s,gang,epochs,iters_per_epoch\n");
    for j in jobs {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            j.id.0,
            j.model.model_name(),
            j.arrival,
            j.gang,
            j.epochs,
            j.iters_per_epoch
        ));
    }
    out
}

/// Parse a CSV produced by [`save_trace_csv`], resolving throughput rows
/// against `catalog`.
///
/// Returns an error message describing the first malformed line, if any:
/// besides unparsable fields, a gang or epoch count of 0, zero iterations
/// per epoch, a negative or non-finite arrival, and ids that are not
/// exactly `0..n` (a duplicate, or one out of range) are rejected here
/// rather than failing later as a panic.
pub fn load_trace_csv(csv: &str, catalog: &GpuCatalog) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    let mut lines = Vec::new();
    for (lineno, line) in csv.lines().enumerate() {
        if lineno == 0 || line.trim().is_empty() {
            continue; // header / blank
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 6 {
            return Err(format!("line {}: expected 6 fields", lineno + 1));
        }
        let parse_err = |what: &str| format!("line {}: bad {what}", lineno + 1);
        let id: u32 = fields[0].parse().map_err(|_| parse_err("id"))?;
        let model = DlTask::from_model_name(fields[1]).ok_or_else(|| parse_err("model name"))?;
        let arrival: f64 = fields[2].parse().map_err(|_| parse_err("arrival"))?;
        let gang: u32 = fields[3].parse().map_err(|_| parse_err("gang"))?;
        let epochs: u64 = fields[4].parse().map_err(|_| parse_err("epochs"))?;
        let n: u64 = fields[5]
            .parse()
            .map_err(|_| parse_err("iters_per_epoch"))?;
        let invalid = |what: &str| Err(format!("line {}: {what}", lineno + 1));
        if !(arrival.is_finite() && arrival >= 0.0) {
            return invalid("arrival must be finite and non-negative");
        }
        if gang == 0 {
            return invalid("gang must be at least 1");
        }
        if epochs == 0 || n == 0 {
            return invalid("epochs and iters_per_epoch must be at least 1");
        }
        jobs.push(Job::new(
            JobId(id),
            model,
            arrival,
            gang,
            epochs,
            n,
            crate::throughput::ThroughputProfile::for_model(model, catalog),
        ));
        lines.push(lineno + 1);
    }
    let mut seen = vec![false; jobs.len()];
    for (job, line) in jobs.iter().zip(lines) {
        match seen.get_mut(job.id.index()) {
            Some(seen) if !*seen => *seen = true,
            _ => {
                let (id, n) = (job.id.0, jobs.len());
                return Err(format!(
                    "line {line}: id {id} is a duplicate or outside 0..{n}"
                ));
            }
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> GpuCatalog {
        GpuCatalog::from_names(["V100", "P100", "K80"])
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = TraceConfig::paper_static(11);
        let a = generate_trace(&cfg, &catalog());
        let b = generate_trace(&cfg, &catalog());
        assert_eq!(a, b);
        let c = generate_trace(&TraceConfig::paper_static(12), &catalog());
        assert_ne!(a, c);
    }

    #[test]
    fn paper_static_shape() {
        let jobs = generate_trace(&TraceConfig::paper_static(1), &catalog());
        assert_eq!(jobs.len(), 480);
        assert!(jobs.iter().all(|j| j.arrival == 0.0));
        assert!(jobs.iter().all(|j| j.gang >= 1 && j.gang <= 8));
        // All four classes present in a 480-job uniform sample.
        for class in SizeClass::ALL {
            assert!(
                jobs.iter().any(|j| j.size_class() == class),
                "missing class {class}"
            );
        }
    }

    #[test]
    fn generated_gpu_hours_land_in_sampled_class() {
        // E_j is rounded, so the realized GPU-hours may drift slightly; the
        // class should still be overwhelmingly consistent with Table II's
        // model-size mapping.
        let jobs = generate_trace(&TraceConfig::paper_static(5), &catalog());
        let consistent = jobs
            .iter()
            .filter(|j| j.size_class() == j.model.size_class())
            .count();
        assert!(
            consistent as f64 >= 0.95 * jobs.len() as f64,
            "only {consistent}/480 jobs in their model's size class"
        );
    }

    #[test]
    fn continuous_trace_arrives_over_hours() {
        let jobs = generate_trace(&TraceConfig::paper_continuous(2), &catalog());
        let last = jobs.last().unwrap().arrival;
        // 480 jobs at 60/hour ≈ 8 hours ≈ 28 800 s.
        assert!(last > 3600.0 * 5.0 && last < 3600.0 * 12.0, "last={last}");
        assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn csv_roundtrip() {
        let cfg = TraceConfig {
            num_jobs: 25,
            seed: 3,
            pattern: ArrivalPattern::paper_continuous(),
        };
        let jobs = generate_trace(&cfg, &catalog());
        let csv = save_trace_csv(&jobs);
        let back = load_trace_csv(&csv, &catalog()).unwrap();
        assert_eq!(jobs, back);
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        let cat = catalog();
        assert!(load_trace_csv("id\n1,2\n", &cat).is_err());
        assert!(load_trace_csv("h\n0,NotAModel,0.0,1,1,10\n", &cat)
            .unwrap_err()
            .contains("model name"));
        assert!(load_trace_csv("h\n0,LSTM,zero,1,1,10\n", &cat)
            .unwrap_err()
            .contains("arrival"));
    }

    /// Loads `rows` under a header; the error, which must name `line`.
    fn rejected(rows: &str, line: usize) -> String {
        let err = load_trace_csv(
            &format!("id,model,arrival_s,gang,epochs,iters\n{rows}"),
            &catalog(),
        )
        .expect_err("malformed trace must be rejected");
        assert!(err.starts_with(&format!("line {line}: ")), "{err}");
        err
    }

    #[test]
    fn csv_rejects_zero_gang() {
        assert!(rejected("0,LSTM,0.0,0,1,10\n", 2).contains("gang"));
    }

    #[test]
    fn csv_rejects_nan_arrival() {
        assert!(rejected("0,LSTM,NaN,1,1,10\n", 2).contains("arrival"));
    }

    #[test]
    fn csv_rejects_negative_arrival() {
        assert!(rejected("0,LSTM,0.0,1,1,10\n1,LSTM,-500,1,1,10\n", 3).contains("arrival"));
    }

    #[test]
    fn csv_rejects_jobs_without_work() {
        assert!(rejected("0,LSTM,0.0,1,0,10\n", 2).contains("epochs"));
        assert!(rejected("0,LSTM,0.0,1,1,0\n", 2).contains("iters_per_epoch"));
    }

    #[test]
    fn csv_rejects_ids_that_are_not_dense() {
        assert!(rejected("0,LSTM,0.0,1,1,10\n0,LSTM,5.0,1,1,10\n", 3).contains("id 0"));
        assert!(rejected("0,LSTM,0.0,1,1,10\n2,LSTM,5.0,1,1,10\n", 3).contains("id 2"));
        // Any order of 0..n is dense.
        let jobs = load_trace_csv("h\n1,LSTM,5.0,1,1,10\n0,LSTM,0.0,1,1,10\n", &catalog()).unwrap();
        assert_eq!(jobs.len(), 2);
    }

    #[test]
    fn weighted_choice_respects_support() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let v = weighted_choice(&[(1, 0.5), (4, 0.5)], &mut rng);
            assert!(v == 1 || v == 4);
        }
    }
}
