//! Timed and traced runs of a workload, and the output checks.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use hadar_metrics::validate_telemetry_jsonl;
use hadar_sim::{check_lifecycle, SimOutcome, SimResult, Simulation, SweepRunner, Telemetry};
use hadar_workload::generate_trace;

use crate::metrics::{self, mean, median, percentile, Report};
use crate::probe::{Probe, ProbeData, LP_FEASIBILITY_TOL};
use crate::trace::{self, SpanId, Tracer};
use crate::workload::{host_threads, trace_seed, Policy, Prepared, Workload};

/// Extra set-ups timed before each pass, so `setup_s` is a median of
/// samples spread over the whole run.
const SETUPS_PER_PASS: usize = 8;

/// One simulation as the benchmark saw it.
pub struct SimRun {
    /// The policy that scheduled it.
    pub policy: Policy,
    /// Host seconds of `Simulation::new` + `run`.
    pub wall_s: f64,
    /// Process CPU seconds over the same span: the simulation's own CPU
    /// time when it runs alone.
    pub cpu_s: f64,
    /// The engine's result.
    pub result: SimResult,
    /// What the scheduler wrapper measured.
    pub probe: ProbeData,
}

/// One pass: every simulation of the workload once.
pub struct Pass {
    /// Host seconds from the first simulation's start to the last one's end.
    pub wall_s: f64,
    /// Worker threads of the sweep runner.
    pub threads: usize,
    /// The simulations, in cell order.
    pub sims: Vec<SimRun>,
}

/// Build the inputs of one pass: cluster, trace, engine configurations and
/// schedulers with the program's defaults.
pub fn prepare(w: Workload, seed: u64, tracer: &Tracer, parent: Option<SpanId>) -> Vec<Prepared> {
    tracer.span("setup", None, parent, 0, |parent| {
        let cluster = tracer.span("cluster.build", None, parent, 0, |_| w.cluster());
        let jobs = tracer.span("workload.trace_gen", None, parent, 0, |_| {
            generate_trace(&w.trace_config(seed), cluster.catalog())
        });
        w.cells()
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                let scheduler =
                    tracer.span("sched.new", None, parent, i as u32, |_| cell.policy.build());
                Prepared {
                    cell,
                    cluster: cluster.clone(),
                    jobs: jobs.clone(),
                    scheduler,
                }
            })
            .collect()
    })
}

/// Run every prepared simulation through a sweep runner with `threads`
/// workers, each scheduler wrapped in a [`Probe`].
pub fn execute(
    prepared: Vec<Prepared>,
    threads: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Pass {
    let slots: Vec<Mutex<Option<(f64, f64, ProbeData)>>> =
        prepared.iter().map(|_| Mutex::new(None)).collect();
    let policies: Vec<Policy> = prepared.iter().map(|p| p.cell.policy).collect();
    let runner = SweepRunner::new(threads);
    let t0 = Instant::now();
    let results = tracer.span("runner", None, parent, 0, |parent| {
        let cells: Vec<_> = prepared
            .into_iter()
            .zip(&slots)
            .enumerate()
            .map(|(i, (p, slot))| {
                move || {
                    let sim = i as u32;
                    let mut probe = Probe::new(p.scheduler, p.cell.policy, tracer, sim);
                    let result = tracer.span("engine", None, parent, sim, |id| {
                        probe.parent = id;
                        Simulation::new(p.cluster, p.jobs, p.cell.config).run(&mut probe)
                    });
                    let (wall, cpu) = (probe.elapsed(), probe.cpu_elapsed());
                    *slot.lock().expect("slot poisoned by a panic") =
                        Some((wall, cpu, probe.into_data()));
                    result
                }
            })
            .collect();
        runner.run(cells)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let sims = results
        .into_iter()
        .zip(slots)
        .zip(policies)
        .map(|((cell, slot), policy)| {
            let (wall_s, cpu_s, probe) = slot
                .into_inner()
                .expect("slot poisoned by a panic")
                .unwrap_or((cell.wall_seconds, f64::NAN, ProbeData::default()));
            SimRun {
                policy,
                wall_s,
                cpu_s,
                result: cell.outcome,
                probe,
            }
        })
        .collect();
    Pass {
        wall_s,
        threads,
        sims,
    }
}

/// FNV-1a digest of every job's first-scheduled and finish times: equal
/// digests mean the simulations made the same decisions.
pub fn digest(out: &SimOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &out.records {
        eat(u64::from(r.job.id.0));
        eat(r.first_scheduled.map_or(u64::MAX, f64::to_bits));
        eat(r.finish.map_or(u64::MAX, f64::to_bits));
    }
    h
}

/// Digest of a whole pass (per-simulation digests folded in cell order);
/// `None` if any simulation failed.
pub fn pass_digest(pass: &Pass) -> Option<u64> {
    let digests: Option<Vec<u64>> = pass
        .sims
        .iter()
        .map(|s| s.result.as_ref().ok().map(digest))
        .collect();
    digests.map(fold_digests)
}

/// Check every simulation of a pass; returns the number that failed and
/// records why in `report`.
pub fn check_pass(
    w: Workload,
    pass: &Pass,
    tracer: &Tracer,
    parent: Option<SpanId>,
    report: &mut Report,
) -> u64 {
    let mut failed = vec![false; pass.sims.len()];
    for (i, s) in pass.sims.iter().enumerate() {
        let mut fail = |why: String| {
            failed[i] = true;
            report.fail(format!("{} {}: {why}", w.name(), s.policy.key()));
        };
        let out = match &s.result {
            Ok(out) => out,
            Err(e) => {
                fail(format!("simulation error: {e}"));
                continue;
            }
        };
        let n = out.records.len();
        if let Err(e) = tracer.span("sim.check_lifecycle", None, parent, i as u32, |_| {
            check_lifecycle(out.events(), n)
        }) {
            fail(format!("lifecycle: {e}"));
        }
        match w.round_cap() {
            Some(cap) => {
                if !out.timed_out || out.rounds.len() as u64 != cap {
                    fail(format!(
                        "expected to stop at the {cap}-round cap, ran {} rounds (timed out: {})",
                        out.rounds.len(),
                        out.timed_out
                    ));
                }
            }
            None => {
                if out.timed_out || out.completed_jobs() != n {
                    fail(format!("{} of {n} jobs completed", out.completed_jobs()));
                }
            }
        }
        if s.probe.replay_errors > 0 {
            fail(format!("{} replays failed", s.probe.replay_errors));
        }
        if s.probe.max_violation > LP_FEASIBILITY_TOL {
            fail(format!(
                "LP replay violates feasibility by {}",
                s.probe.max_violation
            ));
        }
    }
    failed.iter().filter(|&&f| f).count() as u64
}

/// Time the program's report accessors over every outcome of a pass.
fn report_accessors(pass: &Pass, tracer: &Tracer, parent: Option<SpanId>) {
    for (i, s) in pass.sims.iter().enumerate() {
        if let Ok(out) = &s.result {
            tracer.span("metrics.report", None, parent, i as u32, |_| {
                black_box((
                    out.mean_jct(),
                    out.median_jct(),
                    out.ftf(),
                    out.gpu_utilization(),
                ));
            });
        }
    }
}

fn sum_walls(pass: &Pass, keep: impl Fn(Policy) -> bool) -> f64 {
    pass.sims
        .iter()
        .filter(|s| keep(s.policy))
        .map(|s| s.wall_s)
        .sum()
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a timed run keeps of one simulation.
struct SimFigures {
    /// CPU seconds of each round: from the start of one `schedule` call to
    /// the start of the next. The first entry is the time before the first
    /// call, the last runs to the end of the simulation, so they sum to its
    /// CPU time.
    rounds: Vec<f64>,
    /// CPU seconds of each `schedule` call.
    decisions: Vec<f64>,
    /// Mean JCT in hours.
    jct_h: f64,
    /// Decision digest; `None` if the simulation failed.
    digest: Option<u64>,
}

impl SimFigures {
    fn of(s: &SimRun) -> Self {
        let mut rounds = Vec::with_capacity(s.probe.starts.len() + 1);
        let mut prev = 0.0;
        for &t in s.probe.starts.iter().chain([s.cpu_s].iter()) {
            rounds.push(t - prev);
            prev = t;
        }
        Self {
            rounds,
            decisions: s.probe.decisions.clone(),
            jct_h: s
                .result
                .as_ref()
                .map_or(f64::NAN, |o| o.mean_jct() / 3600.0),
            digest: s.result.as_ref().ok().map(digest),
        }
    }
}

/// Element-wise minimum over the repeats of one simulation. The repeats
/// redo identical work round by round, and a host slowdown only ever adds
/// time, so each round counts with its least-disturbed repeat.
fn fastest(repeats: &[SimFigures], field: fn(&SimFigures) -> &Vec<f64>) -> Vec<f64> {
    let mut out = field(&repeats[0]).clone();
    for r in &repeats[1..] {
        for (o, x) in out.iter_mut().zip(field(r)) {
            *o = o.min(*x);
        }
    }
    out
}

/// Fold per-simulation digests, in cell order, into one.
fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(0, |h: u64, d| h.rotate_left(7) ^ d)
}

/// The timed run (`--trace 0`), tracing and telemetry off. Each policy runs
/// on its fixed number of traces ([`Workload::traces`]), each simulation
/// at least twice, with the repeats a whole cycle of traces apart. The
/// simulations run one at a time, so the process CPU clock around each one
/// measures that simulation alone. Prints progress to stderr.
pub fn timed(w: Workload, seed: u64, seconds: u64) -> (Report, Vec<String>) {
    let registry = metrics::end_to_end();
    let mut report = Report::default();
    let mut notes = Vec::new();
    let off = Tracer::off();
    let cells = w.cells();
    let repeats = w.repeats(seconds);
    let traces = w.max_traces();
    // runs[trace][cell]: the figures of each repeat.
    let mut runs: Vec<Vec<Vec<SimFigures>>> = (0..traces)
        .map(|_| cells.iter().map(|_| Vec::new()).collect())
        .collect();
    let mut setups = Vec::new();
    for r in 0..repeats {
        for (t, by_cell) in runs.iter_mut().enumerate() {
            let seed_t = trace_seed(seed, t);
            for _ in 0..SETUPS_PER_PASS {
                let t0 = Instant::now();
                black_box(prepare(w, seed_t, &off, None));
                setups.push(t0.elapsed().as_secs_f64());
            }
            let t0 = Instant::now();
            let prepared = prepare(w, seed_t, &off, None);
            setups.push(t0.elapsed().as_secs_f64());
            let (kept, prepared): (Vec<usize>, Vec<Prepared>) = prepared
                .into_iter()
                .enumerate()
                .filter(|(_, p)| t < w.traces(p.cell.policy))
                .unzip();
            let pass = execute(prepared, 1, &off, None);
            let per_sim: Vec<String> = pass
                .sims
                .iter()
                .map(|s| format!("{} {:.3}/{:.3}", s.policy.key(), s.wall_s, s.cpu_s))
                .collect();
            eprintln!(
                "repeat {}/{repeats} trace {}/{traces}: {} (wall/cpu s)",
                r + 1,
                t + 1,
                per_sim.join(", ")
            );
            report.attempted += pass.sims.len() as u64;
            report.failed += check_pass(w, &pass, &off, None, &mut report);
            for (c, s) in kept.into_iter().zip(&pass.sims) {
                by_cell[c].push(SimFigures::of(s));
            }
        }
    }

    let mut cpu_s: BTreeMap<Policy, Vec<f64>> = BTreeMap::new();
    let mut decisions_ms: BTreeMap<Policy, Vec<f64>> = BTreeMap::new();
    let mut jct_h: BTreeMap<Policy, Vec<f64>> = BTreeMap::new();
    for (t, by_cell) in runs.iter().enumerate() {
        for (cell, reps) in cells.iter().zip(by_cell) {
            if reps.is_empty() {
                continue;
            }
            let p = cell.policy;
            let same = reps
                .windows(2)
                .all(|r| r[0].digest == r[1].digest && r[0].rounds.len() == r[1].rounds.len());
            if !same {
                report.failed += 1;
                let digests: Vec<Option<u64>> = reps.iter().map(|r| r.digest).collect();
                report.fail(format!(
                    "{} trace {t}: repeats made different decisions {digests:x?}",
                    cell.policy.key()
                ));
            }
            cpu_s
                .entry(p)
                .or_default()
                .push(fastest(reps, |r| &r.rounds).iter().sum());
            decisions_ms
                .entry(p)
                .or_default()
                .extend(fastest(reps, |r| &r.decisions).iter().map(|s| s * 1e3));
            jct_h.entry(p).or_default().push(reps[0].jct_h);
        }
        if by_cell.iter().all(|reps| !reps.is_empty()) {
            let digests: Option<Vec<u64>> = by_cell.iter().map(|reps| reps[0].digest).collect();
            if let Some(d) = digests {
                notes.push(format!(
                    "decision digest trace {t}: {:016x}",
                    fold_digests(d)
                ));
            }
        }
    }
    if w == Workload::Paper480 {
        // The paper's order, on the mean over the traces every policy ran;
        // single traces where Tiresias and YARN-CS swap are counted, not
        // failed.
        let order = [
            Policy::Hadar,
            Policy::Gavel,
            Policy::Tiresias,
            Policy::YarnCs,
        ];
        let common = order.iter().map(|&p| w.traces(p)).min().unwrap_or(0);
        let holds = |j: &dyn Fn(Policy) -> f64| order.windows(2).all(|o| j(o[0]) < j(o[1]));
        let means = |p: Policy| mean(&jct_h[&p][..common]);
        if !holds(&means) {
            let m: Vec<f64> = order.iter().map(|&p| means(p)).collect();
            report.fail(format!(
                "paper JCT order Hadar < Gavel < Tiresias < YARN-CS broken: {m:?} h"
            ));
        }
        let swapped = (0..common).filter(|&t| !holds(&|p| jct_h[&p][t])).count();
        notes.push(format!(
            "traces breaking the paper JCT order on their own: {swapped} of {common}"
        ));
    }

    let put = |r: &mut Report, name: &str, v: f64, n: usize| r.put(&registry, name, v, Some(n));
    put(&mut report, "setup_s", median(&setups), setups.len());
    let total: f64 = cpu_s.values().map(|v| mean(v)).sum();
    let sims: usize = cpu_s.values().map(Vec::len).sum();
    put(&mut report, "cpu_s", total, sims * repeats);
    for (p, key) in [(Policy::Hadar, "hadar"), (Policy::Gavel, "gavel")] {
        let n = cpu_s[&p].len() * repeats;
        put(&mut report, &format!("{key}_cpu_s"), mean(&cpu_s[&p]), n);
        let pooled = &decisions_ms[&p];
        for (q, label) in [(0.50, "p50"), (0.95, "p95")] {
            put(
                &mut report,
                &format!("{key}_decision_cpu_ms_{label}"),
                percentile(pooled, q),
                pooled.len(),
            );
        }
    }
    for (p, key) in [(Policy::Hadar, "hadar"), (Policy::Gavel, "gavel")] {
        let j = &jct_h[&p];
        put(&mut report, &format!("{key}_mean_jct_h"), mean(j), j.len());
    }
    let attempted = report.attempted;
    let ok = (attempted - report.failed.min(attempted)) as f64 / attempted.max(1) as f64;
    put(&mut report, "ok_frac", ok, attempted as usize);
    report.finish(&registry);
    let plan: Vec<String> = Policy::ALL
        .iter()
        .map(|&p| format!("{} {}", p.key(), w.traces(p)))
        .collect();
    notes.push(format!(
        "traces per policy: {}; repeats: {repeats}; simulations one at a time; host threads: {}",
        plan.join(", "),
        host_threads()
    ));
    (report, notes)
}

/// The traced run (`--trace 1`) on the first trace:
/// 1. the untraced pass on a sweep runner with one worker per host thread
///    (runner metrics, the reference digest and the reference wall for the
///    overheads);
/// 2. the traced pass, serial, with spans around every layer call and the
///    replays, followed by the output checks. Its span self times plus
///    `trace.unattributed_s` add up to `trace.wall_s`;
/// 3. the untraced pass again with telemetry on, each stream validated.
pub fn traced(w: Workload, seed: u64) -> (Report, Vec<String>, Vec<trace::Span>) {
    let registry = metrics::per_layer();
    let mut report = Report::default();
    let mut notes = Vec::new();
    let off = Tracer::off();
    let seed0 = trace_seed(seed, 0);

    let reference = execute(prepare(w, seed0, &off, None), host_threads(), &off, None);
    report.attempted += reference.sims.len() as u64;
    report.failed += check_pass(w, &reference, &off, None, &mut report);
    let peak_rss = peak_rss_mb();
    let ref_digest = pass_digest(&reference);
    let ref_busy_s = sum_walls(&reference, |_| true);
    eprintln!("reference pass: {:.3} s", reference.wall_s);

    let tracer = Tracer::on();
    let t0 = Instant::now();
    let (pass, sweep_s) = tracer.span("bench", None, None, 0, |root| {
        let prepared = prepare(w, seed0, &tracer, root);
        let s0 = Instant::now();
        let pass = execute(prepared, 1, &tracer, root);
        let sweep_s = s0.elapsed().as_secs_f64();
        tracer.span("bench.checks", None, root, 0, |parent| {
            report.attempted += pass.sims.len() as u64;
            report.failed += check_pass(w, &pass, &tracer, parent, &mut report);
            report_accessors(&pass, &tracer, parent);
        });
        (pass, sweep_s)
    });
    let wall = t0.elapsed().as_secs_f64();
    let spans = tracer.into_spans();
    let traced_digest = pass_digest(&pass);
    if traced_digest != ref_digest {
        report.failed += pass.sims.len() as u64;
        report.fail(format!(
            "traced digest {traced_digest:x?} differs from untraced {ref_digest:x?}"
        ));
    }

    // The telemetry pass runs untraced on the workload's own runner, so its
    // makespan compares with the reference pass's like for like.
    let prepared = prepare(w, seed0, &off, None);
    let policies: Vec<Policy> = prepared.iter().map(|p| p.cell.policy).collect();
    let cells: Vec<_> = prepared
        .into_iter()
        .map(|p| {
            move || {
                let mut scheduler = p.scheduler;
                Simulation::new(p.cluster, p.jobs, p.cell.config)
                    .run_with_telemetry(&mut *scheduler, Telemetry::enabled())
            }
        })
        .collect();
    let t1 = Instant::now();
    let telemetry = SweepRunner::new(host_threads()).run(cells);
    let telemetry_wall = t1.elapsed().as_secs_f64();
    let mut stream_bytes = 0usize;
    let mut validate_s = 0.0;
    let mut telemetry_digests = Vec::new();
    for (cell, policy) in telemetry.iter().zip(&policies) {
        report.attempted += 1;
        let checked = cell
            .outcome
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|out| {
                let stream = out.telemetry_stream().ok_or("no telemetry stream")?;
                stream_bytes += stream.len();
                let v0 = Instant::now();
                let rep = validate_telemetry_jsonl(stream);
                validate_s += v0.elapsed().as_secs_f64();
                let rounds = rep?.rounds;
                if rounds != out.rounds.len() as u64 {
                    return Err(format!(
                        "stream has {rounds} rounds, outcome {}",
                        out.rounds.len()
                    ));
                }
                Ok(digest(out))
            });
        match checked {
            Ok(d) => telemetry_digests.push(d),
            Err(e) => {
                report.failed += 1;
                report.fail(format!("{} {} with telemetry: {e}", w.name(), policy.key()));
            }
        }
    }
    let traced_digests: Vec<u64> = pass
        .sims
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .map(digest)
        .collect();
    if telemetry_digests != traced_digests {
        report.failed += 1;
        report.fail("telemetry-on decisions differ from the traced run".to_owned());
    }
    let by_metric = trace::self_time_by_metric(&spans);

    let put = |r: &mut Report, name: &str, v: f64| r.put(&registry, name, v, None);
    let self_s = |name: &str| by_metric.get(name).copied().unwrap_or(0.0);
    let outcomes: Vec<&SimOutcome> = pass
        .sims
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .collect();
    let rounds: usize = outcomes.iter().map(|o| o.rounds.len()).sum();
    put(&mut report, "engine.rounds", rounds as f64);
    put(&mut report, "engine.self_s", self_s("engine.self_s"));
    put(
        &mut report,
        "engine.self_us_per_round",
        self_s("engine.self_s") / rounds.max(1) as f64 * 1e6,
    );
    let probes = |p: Policy| {
        pass.sims
            .iter()
            .filter(move |s| s.policy == p)
            .map(|s| &s.probe)
    };
    for p in Policy::ALL {
        let calls: usize = probes(p).map(|d| d.decisions.len()).sum();
        put(
            &mut report,
            &format!("{}.schedule_calls", p.key()),
            calls as f64,
        );
        put(
            &mut report,
            &format!("{}.schedule_s", p.key()),
            self_s(&format!("{}.schedule_s", p.key())),
        );
        put(
            &mut report,
            &format!("{}.notify_s", p.key()),
            self_s(&format!("{}.notify_s", p.key())),
        );
    }
    let hadar_calls: usize = probes(Policy::Hadar).map(|d| d.decisions.len()).sum();
    let sum = |p: Policy, f: fn(&ProbeData) -> f64| probes(p).map(f).sum::<f64>();
    let phases = sum(Policy::Hadar, |d| {
        d.price_phase_s + d.candidates_s + d.select_s
    });
    put(&mut report, "hadar.price_s", self_s("hadar.price_s"));
    put(
        &mut report,
        "hadar.price_phase_s",
        sum(Policy::Hadar, |d| d.price_phase_s),
    );
    put(
        &mut report,
        "hadar.candidates_s",
        sum(Policy::Hadar, |d| d.candidates_s),
    );
    put(
        &mut report,
        "hadar.select_s",
        sum(Policy::Hadar, |d| d.select_s),
    );
    put(
        &mut report,
        "hadar.unphased_s",
        self_s("hadar.schedule_s") - phases,
    );
    put(
        &mut report,
        "hadar.dp_budget_rounds",
        sum(Policy::Hadar, |d| d.dp_budget_rounds as f64),
    );
    put(
        &mut report,
        "hadar.reuse_ratio",
        sum(Policy::Hadar, |d| d.reused_rounds as f64) / hadar_calls.max(1) as f64,
    );
    let gavel_calls: usize = probes(Policy::Gavel).map(|d| d.decisions.len()).sum();
    let lp_rounds = sum(Policy::Gavel, |d| d.lp_rounds as f64);
    put(&mut report, "gavel.lp_rounds", lp_rounds);
    put(
        &mut report,
        "gavel.lp_resolve_ratio",
        lp_rounds / gavel_calls.max(1) as f64,
    );
    let solves: Vec<f64> = probes(Policy::Gavel)
        .flat_map(|d| d.cold_solve_ms.iter().copied())
        .collect();
    put(&mut report, "solver.replays", solves.len() as f64);
    put(&mut report, "solver.replay_s", self_s("solver.replay_s"));
    put(
        &mut report,
        "solver.cold_solve_ms_p50",
        percentile(&solves, 0.5),
    );
    put(
        &mut report,
        "solver.cold_solve_ms_max",
        solves.iter().copied().fold(0.0, f64::max),
    );
    for name in [
        "cluster.build_s",
        "cluster.validate_s",
        "workload.trace_gen_s",
        "sched.new_s",
        "sim.check_lifecycle_s",
        "metrics.report_s",
        "runner.self_s",
        "bench.self_s",
    ] {
        put(&mut report, name, self_s(name));
    }
    put(
        &mut report,
        "telemetry.overhead_s",
        telemetry_wall - reference.wall_s,
    );
    put(&mut report, "telemetry.stream_bytes", stream_bytes as f64);
    put(
        &mut report,
        "telemetry.sim_s",
        telemetry.iter().map(|c| c.wall_seconds).sum(),
    );
    put(&mut report, "metrics.validate_jsonl_s", validate_s);
    let capacity = reference.threads as f64 * reference.wall_s;
    put(
        &mut report,
        "baselines.sim_s",
        sum_walls(&reference, Policy::is_baseline),
    );
    put(&mut report, "process.peak_rss_mb", peak_rss);
    put(&mut report, "runner.cells", reference.sims.len() as f64);
    put(&mut report, "runner.wall_s", reference.wall_s);
    put(&mut report, "runner.busy_s", ref_busy_s);
    put(&mut report, "runner.idle_s", capacity - ref_busy_s);
    put(&mut report, "runner.efficiency", ref_busy_s / capacity);
    let attributed: f64 = metrics::self_time_metrics().iter().map(|m| self_s(m)).sum();
    let unattributed_metrics: Vec<&String> = by_metric
        .keys()
        .filter(|k| !metrics::self_time_metrics().contains(k))
        .collect();
    if !unattributed_metrics.is_empty() {
        report.fail(format!(
            "spans without a self-time metric: {unattributed_metrics:?}"
        ));
    }
    put(&mut report, "trace.wall_s", wall);
    put(&mut report, "trace.spans", spans.len() as f64);
    put(&mut report, "trace.overhead_s", sweep_s - reference.wall_s);
    put(&mut report, "trace.unattributed_s", wall - attributed);
    report.finish(&registry);
    if let Some(d) = traced_digest {
        notes.push(format!("decision digest trace 0: {d:016x}"));
    }
    notes.push(format!(
        "self times {attributed:.6} s + unattributed {:.6} s = traced wall {wall:.6} s",
        wall - attributed
    ));
    (report, notes, spans)
}
