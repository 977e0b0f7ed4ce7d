//! Structured per-round telemetry.
//!
//! Every scheduling round is one [`RoundRecord`] in [`SimOutcome::rounds`]:
//! queue depth, scheduling/preemption/eviction counts, allocation churn, the
//! GPU-type utilization split, failure-model state and decision timings. The
//! engine fills it on every round whether or not the run is observed. This
//! module adds two things on top of that record:
//!
//! * the [`Telemetry`] sink, the channel through which policies write their
//!   own per-round counters (Hadar price-vector stats, Gavel LP solve and
//!   error counts, Tiresias queue depths, …) via [`Telemetry::incr`]
//!   and [`Telemetry::gauge`]; the engine drains it into each round's
//!   [`RoundRecord::policy`];
//! * the JSONL rendering of a finished run (a `meta` header, one `round`
//!   record per [`RoundRecord`], a final `summary`), hand-rolled per
//!   DESIGN.md §8 (no serde), keyed by [`hadar_metrics::telemetry::ROUND_KEYS`]
//!   and validated by `hadar_metrics::validate_telemetry_jsonl`. It is
//!   rendered once, after the run, when the sink was enabled
//!   ([`SimOutcome::telemetry_stream`]).
//!
//! **Zero-cost when disabled.** A disabled sink ([`Telemetry::disabled`],
//! which [`crate::Simulation::run`] uses) makes `incr`/`gauge` early-return
//! no-ops: no allocation, no counter map, no stream. Telemetry is purely
//! observational either way — policies never read the sink, so enabling it
//! cannot perturb simulation outcomes, only record them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use hadar_metrics::telemetry::{ROUND_KEYS, TELEMETRY_SCHEMA};

use crate::stats::{RoundRecord, SimOutcome};

/// Run totals over [`SimOutcome::rounds`], as returned by
/// [`SimOutcome::telemetry_summary`] and written as the stream's `summary`
/// record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Scheduling rounds recorded.
    pub rounds: u64,
    /// Jobs that went from holding no GPUs to holding GPUs, summed over
    /// rounds (first starts and restarts after preemption/eviction).
    pub scheduled: u64,
    /// Jobs whose allocation was taken away by a scheduling decision,
    /// summed over rounds.
    pub preempted: u64,
    /// Forced evictions caused by machine failures, summed over rounds.
    pub evicted: u64,
    /// Jobs completed, summed over rounds.
    pub completed: u64,
    /// Largest number of admitted, unfinished jobs seen at any round start.
    pub max_queue_depth: u32,
    /// Lifetime sums of every policy-emitted counter/gauge, keyed by the
    /// name the policy used (e.g. `gavel.lp_solves`). Empty when the run
    /// used a disabled sink.
    pub policy: BTreeMap<String, f64>,
}

/// The telemetry sink. See the [module docs](self) for the contract.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    /// Policy counters of the current round, drained by the engine into
    /// the round's record.
    round: RefCell<BTreeMap<String, f64>>,
}

impl Telemetry {
    /// A no-op sink: every method early-returns. This is what
    /// [`crate::Simulation::run`] uses.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording sink.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            round: RefCell::default(),
        }
    }

    /// Whether the sink records anything. Policies computing something
    /// non-trivial purely for telemetry should gate on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Add `delta` to this round's counter `key` (created at 0). No-op when
    /// disabled. Counters drain into the round's [`RoundRecord::policy`]
    /// and accumulate into [`TelemetrySummary::policy`].
    pub fn incr(&self, key: &str, delta: f64) {
        if !self.enabled {
            return;
        }
        *self.round.borrow_mut().entry(key.to_owned()).or_insert(0.0) += delta;
    }

    /// Set this round's gauge `key` to `value` (last write wins). No-op when
    /// disabled.
    pub fn gauge(&self, key: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.round.borrow_mut().insert(key.to_owned(), value);
    }

    /// Take the current round's counters, leaving the sink empty for the
    /// next round (always empty when disabled).
    pub(crate) fn drain_round(&self) -> BTreeMap<String, f64> {
        std::mem::take(&mut *self.round.borrow_mut())
    }
}

/// Render a finished run as the JSONL stream (schema [`TELEMETRY_SCHEMA`]),
/// one `\n`-terminated line per record.
pub(crate) fn render_jsonl(out: &SimOutcome) -> String {
    let catalog = out.cluster().catalog();
    let type_names: Vec<String> = catalog
        .ids()
        .map(|r| json_string(catalog.name(r)))
        .collect();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\"type\":\"meta\",\"schema\":\"{TELEMETRY_SCHEMA}\",\"scheduler\":{},\
         \"total_gpus\":{},\"machines\":{},\"jobs\":{},\"round_length_s\":{}}}",
        json_string(&out.scheduler),
        out.total_gpus,
        out.cluster().num_machines(),
        out.records.len(),
        json_number(out.round_length),
    );
    for (i, r) in out.rounds.iter().enumerate() {
        s.push_str("{\"type\":\"round\"");
        for (key, value) in ROUND_KEYS.iter().zip(round_values(i + 1, r)) {
            let _ = write!(s, ",\"{key}\":{}", json_number(value));
        }
        s.push_str(",\"util_by_type\":{");
        for (j, (name, count)) in type_names.iter().zip(&r.util_by_type).enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{name}:{count}");
        }
        s.push('}');
        if let Some(p) = r.phases {
            let _ = write!(
                s,
                ",\"phases\":{{\"price_s\":{},\"candidates_s\":{},\"select_s\":{},\
                 \"dp_budget_hit\":{},\"reused\":{}}}",
                json_number(p.price_seconds),
                json_number(p.candidates_seconds),
                json_number(p.select_seconds),
                p.dp_budget_hit,
                p.reused,
            );
        }
        push_policy(&mut s, &r.policy);
        s.push_str("}\n");
    }
    let t = out.telemetry_summary();
    let _ = write!(
        s,
        "{{\"type\":\"summary\",\"rounds\":{},\"scheduled\":{},\"preempted\":{},\
         \"evicted\":{},\"completed\":{},\"max_queue_depth\":{}",
        t.rounds, t.scheduled, t.preempted, t.evicted, t.completed, t.max_queue_depth,
    );
    push_policy(&mut s, &t.policy);
    s.push_str("}\n");
    s
}

/// The numeric fields of round `round` (1-based), in [`ROUND_KEYS`] order.
/// Integer counts render without a fraction (`3`, not `3.0`).
fn round_values(round: usize, r: &RoundRecord) -> [f64; ROUND_KEYS.len()] {
    [
        round as f64,
        r.time,
        f64::from(r.queue_depth),
        f64::from(r.running_jobs),
        f64::from(r.scheduled),
        f64::from(r.preempted),
        f64::from(r.evicted),
        f64::from(r.completed),
        f64::from(r.arrivals),
        f64::from(r.reallocations),
        f64::from(r.demand_gpus),
        r.busy_gpu_seconds,
        r.held_gpu_seconds,
        f64::from(r.machines_down),
        r.decision_seconds,
    ]
}

/// Append `,"policy":{…}` unless `policy` is empty.
fn push_policy(s: &mut String, policy: &BTreeMap<String, f64>) {
    if policy.is_empty() {
        return;
    }
    s.push_str(",\"policy\":{");
    for (i, (k, v)) in policy.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:{}", json_string(k), json_number(*v));
    }
    s.push('}');
}

/// A JSON string literal (quoted, escaped).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: Rust's shortest-roundtrip float formatting is valid JSON
/// for every finite value; non-finite values (which JSON cannot express)
/// render as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::DecisionPhases;
    use hadar_cluster::Cluster;

    #[test]
    fn sink_accumulates_and_drains_per_round() {
        let off = Telemetry::disabled();
        assert!(!off.is_enabled());
        off.incr("x", 1.0);
        off.gauge("y", 2.0);
        assert!(off.drain_round().is_empty());

        let on = Telemetry::enabled();
        on.incr("k.widgets", 2.0);
        on.incr("k.widgets", 1.0);
        on.gauge("k.depth", 4.0);
        on.gauge("k.depth", 5.0);
        let round = on.drain_round();
        assert_eq!(round["k.widgets"], 3.0);
        assert_eq!(round["k.depth"], 5.0);
        assert!(on.drain_round().is_empty(), "counters carried over a round");
    }

    /// A hand-built two-round outcome renders to exactly these lines, and
    /// the result passes the schema validator.
    #[test]
    fn golden_stream() {
        let rounds = vec![
            RoundRecord {
                time: 0.0,
                queue_depth: 3,
                running_jobs: 2,
                scheduled: 2,
                preempted: 0,
                evicted: 1,
                completed: 0,
                arrivals: 3,
                reallocations: 2,
                demand_gpus: 8,
                busy_gpu_seconds: 1440.0,
                held_gpu_seconds: 1440.0,
                machines_down: 1,
                decision_seconds: 0.002,
                util_by_type: vec![4, 0, 0],
                phases: Some(DecisionPhases {
                    price_seconds: 0.001,
                    candidates_seconds: 0.25,
                    select_seconds: 0.003,
                    dp_budget_hit: true,
                    reused: false,
                }),
                policy: BTreeMap::from([("p.depth".to_owned(), 5.0), ("p.n".to_owned(), 3.0)]),
            },
            RoundRecord {
                time: 360.0,
                queue_depth: 2,
                running_jobs: 1,
                preempted: 1,
                completed: 1,
                demand_gpus: 4,
                busy_gpu_seconds: 180.5,
                held_gpu_seconds: 360.0,
                decision_seconds: 0.5,
                util_by_type: vec![0, 1, 0],
                policy: BTreeMap::from([("p.n".to_owned(), 1.5)]),
                ..RoundRecord::default()
            },
            RoundRecord {
                time: 720.0,
                queue_depth: 1,
                scheduled: 1,
                running_jobs: 1,
                completed: 1,
                demand_gpus: 1,
                held_gpu_seconds: 360.0,
                util_by_type: vec![0, 0, 1],
                ..RoundRecord::default()
            },
        ];
        let out = SimOutcome::new(
            "Test".into(),
            Vec::new(),
            rounds,
            360.0,
            Cluster::paper_simulation(),
            false,
            Vec::new(),
        );
        let expected = [
            "{\"type\":\"meta\",\"schema\":\"hadar.telemetry.v1\",\"scheduler\":\"Test\",\
             \"total_gpus\":60,\"machines\":15,\"jobs\":0,\"round_length_s\":360}",
            "{\"type\":\"round\",\"round\":1,\"time_s\":0,\"queue_depth\":3,\"running\":2,\
             \"scheduled\":2,\"preempted\":0,\"evicted\":1,\"completed\":0,\"arrivals\":3,\
             \"reallocations\":2,\"demand_gpus\":8,\"busy_gpu_s\":1440,\"held_gpu_s\":1440,\
             \"machines_down\":1,\"decision_s\":0.002,\
             \"util_by_type\":{\"V100\":4,\"P100\":0,\"K80\":0},\
             \"phases\":{\"price_s\":0.001,\"candidates_s\":0.25,\"select_s\":0.003,\
             \"dp_budget_hit\":true,\"reused\":false},\
             \"policy\":{\"p.depth\":5,\"p.n\":3}}",
            "{\"type\":\"round\",\"round\":2,\"time_s\":360,\"queue_depth\":2,\"running\":1,\
             \"scheduled\":0,\"preempted\":1,\"evicted\":0,\"completed\":1,\"arrivals\":0,\
             \"reallocations\":0,\"demand_gpus\":4,\"busy_gpu_s\":180.5,\"held_gpu_s\":360,\
             \"machines_down\":0,\"decision_s\":0.5,\
             \"util_by_type\":{\"V100\":0,\"P100\":1,\"K80\":0},\"policy\":{\"p.n\":1.5}}",
            "{\"type\":\"round\",\"round\":3,\"time_s\":720,\"queue_depth\":1,\"running\":1,\
             \"scheduled\":1,\"preempted\":0,\"evicted\":0,\"completed\":1,\"arrivals\":0,\
             \"reallocations\":0,\"demand_gpus\":1,\"busy_gpu_s\":0,\"held_gpu_s\":360,\
             \"machines_down\":0,\"decision_s\":0,\
             \"util_by_type\":{\"V100\":0,\"P100\":0,\"K80\":1}}",
            "{\"type\":\"summary\",\"rounds\":3,\"scheduled\":3,\"preempted\":1,\"evicted\":1,\
             \"completed\":2,\"max_queue_depth\":3,\"policy\":{\"p.depth\":5,\"p.n\":4.5}}",
        ];
        let stream = render_jsonl(&out);
        assert_eq!(stream.lines().collect::<Vec<_>>(), expected);
        assert!(stream.ends_with("}\n"));

        let report = hadar_metrics::validate_telemetry_jsonl(&stream).expect("valid stream");
        assert_eq!(report.scheduler, "Test");
        assert_eq!(
            (report.rounds, report.scheduled, report.preempted),
            (3, 3, 1)
        );
        assert_eq!((report.evicted, report.completed), (1, 2));
    }

    #[test]
    fn json_helpers_escape_and_null() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
        assert_eq!(json_number(360.0), "360");
        assert_eq!(json_number(0.25), "0.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
