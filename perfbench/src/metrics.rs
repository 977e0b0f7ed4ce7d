//! The metric registry (names, units, directions, layers), the statistics the
//! benchmark reports, and the result line it prints.

use std::fmt::Write as _;

use crate::workload::Policy;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The repository module the metric measures.
    pub layer: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    layer: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        layer,
    }
}

/// The end-to-end metrics a timed run (`--trace 0`) prints.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    vec![
        def(
            "setup_s",
            "s",
            Lower,
            "workload+cluster+scheduler construction",
        ),
        def("cpu_s", "s", Lower, "whole workload"),
        def("hadar_cpu_s", "s", Lower, "sim::engine+core"),
        def(
            "gavel_cpu_s",
            "s",
            Lower,
            "sim::engine+baselines::gavel+solver",
        ),
        def("hadar_decision_cpu_ms_p50", "ms", Lower, "core"),
        def("hadar_decision_cpu_ms_p95", "ms", Lower, "core"),
        def(
            "gavel_decision_cpu_ms_p50",
            "ms",
            Lower,
            "baselines::gavel+solver",
        ),
        def(
            "gavel_decision_cpu_ms_p95",
            "ms",
            Lower,
            "baselines::gavel+solver",
        ),
        def("hadar_mean_jct_h", "h", Lower, "core (simulated outcome)"),
        def(
            "gavel_mean_jct_h",
            "h",
            Lower,
            "baselines::gavel (simulated outcome)",
        ),
        def("ok_frac", "frac", Higher, "output checks"),
    ]
}

/// The per-layer metrics a traced run (`--trace 1`) prints.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut v = vec![
        def("engine.rounds", "count", Lower, "sim::engine"),
        def("engine.self_s", "s", Lower, "sim::engine"),
        def("engine.self_us_per_round", "us", Lower, "sim::engine"),
    ];
    for p in Policy::ALL {
        let layer = match p {
            Policy::Hadar => "core::scheduler",
            Policy::Gavel => "baselines::gavel",
            Policy::Tiresias => "baselines::tiresias",
            Policy::YarnCs => "baselines::yarn_cs",
            Policy::Srtf => "baselines::srtf",
        };
        v.push(def(
            format!("{}.schedule_calls", p.key()),
            "count",
            Lower,
            layer,
        ));
        v.push(def(format!("{}.schedule_s", p.key()), "s", Lower, layer));
        v.push(def(format!("{}.notify_s", p.key()), "s", Lower, layer));
    }
    v.extend([
        def("baselines.sim_s", "s", Lower, "sim::engine+baselines"),
        def("hadar.price_s", "s", Lower, "core::price"),
        def("hadar.price_phase_s", "s", Lower, "core::price"),
        def("hadar.candidates_s", "s", Lower, "core::find_alloc"),
        def("hadar.select_s", "s", Lower, "core::dp"),
        def("hadar.unphased_s", "s", Lower, "core::scheduler"),
        def("hadar.dp_budget_rounds", "count", Lower, "core::dp"),
        def("hadar.reuse_ratio", "ratio", Higher, "core::scheduler"),
        def("gavel.lp_rounds", "count", Lower, "baselines::gavel"),
        def("gavel.lp_resolve_ratio", "ratio", Lower, "baselines::gavel"),
        def("solver.replays", "count", Lower, "solver"),
        def("solver.replay_s", "s", Lower, "solver"),
        def("solver.cold_solve_ms_p50", "ms", Lower, "solver"),
        def("solver.cold_solve_ms_max", "ms", Lower, "solver"),
        def("cluster.build_s", "s", Lower, "cluster"),
        def("cluster.validate_s", "s", Lower, "cluster"),
        def("workload.trace_gen_s", "s", Lower, "workload"),
        def("sched.new_s", "s", Lower, "core+baselines"),
        def("sim.check_lifecycle_s", "s", Lower, "sim::event"),
        def("metrics.report_s", "s", Lower, "metrics"),
        def("metrics.validate_jsonl_s", "s", Lower, "metrics::telemetry"),
        def("telemetry.sim_s", "s", Lower, "sim::telemetry"),
        def("telemetry.overhead_s", "s", Lower, "sim::telemetry"),
        def("telemetry.stream_bytes", "bytes", Lower, "sim::telemetry"),
        def("process.peak_rss_mb", "MB", Lower, "whole process"),
        def("runner.cells", "count", Lower, "sim::runner"),
        def("runner.wall_s", "s", Lower, "sim::runner"),
        def("runner.self_s", "s", Lower, "sim::runner"),
        def("runner.busy_s", "s", Lower, "sim::runner"),
        def("runner.idle_s", "s", Lower, "sim::runner"),
        def("runner.efficiency", "ratio", Higher, "sim::runner"),
        def("bench.self_s", "s", Lower, "benchmark"),
        def("trace.wall_s", "s", Lower, "benchmark"),
        def("trace.spans", "count", Lower, "benchmark"),
        def("trace.overhead_s", "s", Lower, "benchmark"),
        def("trace.unattributed_s", "s", Lower, "benchmark"),
    ]);
    v
}

/// The self-time metrics that partition a traced run's wall-clock, together
/// with `trace.unattributed_s`.
pub fn self_time_metrics() -> Vec<String> {
    let mut v: Vec<String> = [
        "engine.self_s",
        "hadar.price_s",
        "solver.replay_s",
        "cluster.build_s",
        "cluster.validate_s",
        "workload.trace_gen_s",
        "sched.new_s",
        "sim.check_lifecycle_s",
        "metrics.report_s",
        "runner.self_s",
        "bench.self_s",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    for p in Policy::ALL {
        v.push(format!("{}.schedule_s", p.key()));
        v.push(format!("{}.notify_s", p.key()));
    }
    v
}

/// Whether `name` is a valid metric name: a leading letter or digit, then
/// letters, digits, `_`, `.` or `-`, at most 64 in all.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `v` (mean of the middle two for an even count); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of `v`; NaN if empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Arithmetic mean; NaN if empty.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value summarizes, where that is meaningful.
    pub samples: Option<usize>,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that failed an output check.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// Reported values, in registry order.
    pub values: Vec<Value>,
}

impl Report {
    /// Record `value` for the registered metric `name`.
    pub fn put(&mut self, registry: &[MetricDef], name: &str, value: f64, samples: Option<usize>) {
        let def = registry
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        self.values.push(Value {
            name: name.to_owned(),
            value,
            unit: def.unit,
            samples,
        });
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Put the values in registry order and check that every registered
    /// metric was reported exactly once and is finite.
    pub fn finish(&mut self, registry: &[MetricDef]) {
        let mut ordered = Vec::with_capacity(registry.len());
        for d in registry {
            let hits: Vec<&Value> = self.values.iter().filter(|v| v.name == d.name).collect();
            assert_eq!(
                hits.len(),
                1,
                "metric {} reported {} times",
                d.name,
                hits.len()
            );
            ordered.push(hits[0].clone());
        }
        assert_eq!(
            ordered.len(),
            self.values.len(),
            "unregistered metric reported"
        );
        for v in &mut ordered {
            if !v.value.is_finite() {
                self.failures
                    .push(format!("{} is not finite ({})", v.name, v.value));
                v.value = 0.0;
            }
        }
        self.values = ordered;
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The human-readable table printed before the result line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for v in &self.values {
            let samples = v.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(s, "{:<28} {:>16.6} {}{samples}", v.name, v.value, v.unit);
        }
        for f in &self.failures {
            let _ = writeln!(s, "FAILED: {f}");
        }
        s
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed.max(u64::from(!self.failures.is_empty()))
        );
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                v.name, v.value, v.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let reg = end_to_end();
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        for d in &reg {
            r.put(&reg, &d.name, 1.5, None);
        }
        r.finish(&reg);
        let j = r.json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
