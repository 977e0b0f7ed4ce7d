//! Self-tests of the benchmark: its metric registry, its input generators
//! and its scheduler wrapper.

use std::collections::BTreeSet;

use hadar_cluster::Cluster;
use hadar_perfbench::metrics::{end_to_end, per_layer, self_time_metrics, valid_name, MetricDef};
use hadar_perfbench::probe::Probe;
use hadar_perfbench::run::{digest, prepare};
use hadar_perfbench::trace::Tracer;
use hadar_perfbench::workload::{Policy, Workload};
use hadar_sim::{FailureModel, SimConfig, SimOutcome, Simulation, StragglerModel};
use hadar_workload::{generate_trace, save_trace_csv, ArrivalPattern, TraceConfig};

fn check_names(defs: &[MetricDef], limit: usize) {
    assert!(
        !defs.is_empty() && defs.len() <= limit,
        "{} metrics, limit {limit}",
        defs.len()
    );
    let mut seen = BTreeSet::new();
    for d in defs {
        assert!(valid_name(&d.name), "bad metric name {}", d.name);
        assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} of {}",
            d.unit,
            d.name
        );
    }
}

#[test]
fn metric_names_are_valid_unique_and_within_limits() {
    check_names(&end_to_end(), 16);
    check_names(&per_layer(), 128);
    let all: Vec<String> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|d| d.name)
        .collect();
    let unique: BTreeSet<&String> = all.iter().collect();
    assert_eq!(
        unique.len(),
        all.len(),
        "a name is both end-to-end and per-layer"
    );
    assert!(end_to_end()
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    let layer: Vec<String> = per_layer().into_iter().map(|d| d.name).collect();
    for m in self_time_metrics() {
        assert!(
            layer.contains(&m),
            "self-time metric {m} is not a per-layer metric"
        );
    }
}

/// The string values of `fields` in each object of the `key` array of a
/// JSON file laid out one object per line, in order.
fn objects(json: &str, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj
            .find(&format!("\"{f}\""))
            .unwrap_or_else(|| panic!("{f} in {obj}"));
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| fields.iter().map(|f| field(obj, f)).collect())
        .collect()
}

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn benchmark_json_and_meta_list_the_registry() {
    let bench = read("../BENCHMARK.json");
    let meta = read("meta.json");
    let mut all = Vec::new();
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let want: Vec<Vec<String>> = defs
            .iter()
            .map(|d| {
                vec![
                    d.name.clone(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                ]
            })
            .collect();
        assert_eq!(
            objects(&bench, key, &["name", "unit", "better"]),
            want,
            "{key} in BENCHMARK.json"
        );
        all.extend(defs.into_iter().map(|d| {
            vec![
                d.name,
                d.unit.to_owned(),
                d.better.as_str().to_owned(),
                d.layer.to_owned(),
            ]
        }));
    }
    assert_eq!(
        objects(&meta, "metrics", &["name", "unit", "better", "layer"]),
        all,
        "meta.json metrics"
    );
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    for json in [&bench, &meta] {
        let listed: Vec<String> = objects(json, "workloads", &["name"])
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(listed, names);
    }
}

/// Everything a workload hands the program for a seed, rendered as text.
fn inputs(w: Workload, seed: u64) -> String {
    prepare(w, seed, &Tracer::off(), None)
        .iter()
        .map(|p| format!("{:?}\n{:?}\n{}", p.cell, p.cluster, save_trace_csv(&p.jobs)))
        .collect()
}

#[test]
fn workload_inputs_follow_the_seed() {
    for w in Workload::ALL {
        assert_eq!(
            inputs(w, 7),
            inputs(w, 7),
            "{} is not deterministic",
            w.name()
        );
        assert_ne!(inputs(w, 7), inputs(w, 8), "{} ignores its seed", w.name());
    }
}

/// Everything but host timings: per-job records and the event log.
fn decisions(out: &SimOutcome) -> String {
    format!(
        "{:?}\n{:?}\n{}",
        out.records,
        out.events(),
        out.rounds.len()
    )
}

#[test]
fn wrapper_leaves_outcomes_identical() {
    let cluster = Cluster::paper_simulation();
    let jobs = generate_trace(
        &TraceConfig {
            num_jobs: 24,
            seed: 3,
            pattern: ArrivalPattern::Poisson {
                jobs_per_hour: 30.0,
            },
        },
        cluster.catalog(),
    );
    let config = SimConfig {
        failure: Some(FailureModel {
            mtbf_rounds: 20.0,
            mttr_rounds: 3.0,
            seed: 5,
        }),
        straggler: Some(StragglerModel::default()),
        ..SimConfig::default()
    };
    for policy in Policy::ALL {
        let run = |tracer: Option<&Tracer>| {
            let sim = Simulation::new(cluster.clone(), jobs.clone(), config);
            match tracer {
                None => sim.run(&mut *policy.build()),
                Some(t) => sim.run(Probe::new(policy.build(), policy, t, 0)),
            }
            .expect("small trace simulates")
        };
        let plain = run(None);
        let on = Tracer::on();
        for wrapped in [run(Some(&Tracer::off())), run(Some(&on))] {
            assert_eq!(
                decisions(&plain),
                decisions(&wrapped),
                "{policy:?} changed under the wrapper"
            );
            assert_eq!(digest(&plain), digest(&wrapped));
        }
        assert!(!on.into_spans().is_empty(), "{policy:?} traced nothing");
    }
}
