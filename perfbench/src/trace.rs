//! In-memory spans recorded from the benchmark's own code around its calls
//! into each layer, and the self times derived from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::workload::Policy;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps (see [`self_metric`]).
    pub name: &'static str,
    /// The policy whose scheduler the span belongs to, for per-policy names.
    pub policy: Option<Policy>,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created (NaN while open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Which simulation of the run the span belongs to (0 outside one).
    pub sim: u32,
}

impl Span {
    /// Length of the span in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. A disabled tracer records nothing and only calls through,
/// so the timed runs execute the same code with tracing off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span. `f` receives the span's id (`None` when
    /// tracing is off) so the calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        policy: Option<Policy>,
        parent: Option<SpanId>,
        sim: u32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned by a panic");
            spans.push(Span {
                name,
                policy,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent,
                sim,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned by a panic")[id].end = end;
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span list poisoned by a panic")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration() - covered
        })
        .collect()
}

/// The per-layer self-time metric a span's self time counts toward.
pub fn self_metric(span: &Span) -> String {
    let base = match span.name {
        "bench" | "setup" | "bench.checks" => "bench.self_s",
        "engine" => "engine.self_s",
        "runner" => "runner.self_s",
        "solver.cold_solve" => "solver.replay_s",
        other => {
            return match span.policy {
                Some(p) => format!("{}.{other}_s", p.key()),
                None => format!("{other}_s"),
            }
        }
    };
    base.to_owned()
}

/// Self time summed per metric (see [`self_metric`]).
pub fn self_time_by_metric(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(self_metric(s)).or_insert(0.0) += t;
    }
    out
}

/// Write the spans as tab-separated lines: id, parent (-1 for a root),
/// simulation, name, policy, start and end in seconds.
pub fn write_spans(spans: &[Span], out: impl Write) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(out);
    writeln!(w, "id\tparent\tsim\tname\tpolicy\tstart_s\tend_s")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{}\t{:.9}\t{:.9}",
            s.parent.map_or(-1, |p| p as i64),
            s.sim,
            s.name,
            s.policy.map_or("-", Policy::key),
            s.start,
            s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            policy: None,
            start,
            end,
            parent,
            sim: 0,
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let spans = vec![
            span("bench", 0.0, 10.0, None),
            span("engine", 1.0, 9.0, Some(0)),
            span("cluster.validate", 2.0, 4.0, Some(1)),
            span("cluster.validate", 4.5, 5.0, Some(1)),
            span("workload.trace_gen", 9.5, 9.75, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![1.75, 5.5, 2.0, 0.5, 0.25]);
        assert_eq!(t.iter().sum::<f64>(), spans[0].duration());
        let by = self_time_by_metric(&spans);
        assert_eq!(by["engine.self_s"], 5.5);
        assert_eq!(by["cluster.validate_s"], 2.5);
        assert_eq!(by["bench.self_s"], 1.75);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.span("bench", None, None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }
}
