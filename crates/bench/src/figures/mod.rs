//! One module per table/figure of the paper's evaluation section.
//!
//! Every experiment writes its data series as CSV under the output
//! directory it is given and returns a [`FigureResult`] with a
//! human-readable summary (the numbers recorded in EXPERIMENTS.md). Quick
//! mode shrinks job counts and seed counts but exercises identical code
//! paths.
//!
//! Experiments that run simulations take a [`SweepRunner`] and submit every
//! independent simulation *cell* (scheduler × seed × pattern × config)
//! through it. Results are always consumed in original cell order, so the
//! CSVs and summaries are byte-identical whatever the thread count;
//! per-cell wall-clock times land in [`FigureResult::timings`]. Several figures read the same simulation (the
//! paper's static comparison feeds Figs. 3a–6; the healthy 160-job runs
//! feed four robustness experiments): [`run_all`] runs each such
//! [`PaperSweep`] once and hands it to every figure that reads it. Two
//! modules deliberately bypass the runner: [`table2`] runs no simulations,
//! and [`fig7`] measures scheduler decision *wall time*, which concurrent
//! cells would corrupt.

pub mod ablation;
pub mod extensions;
pub mod failures;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod stragglers;
pub mod table2;
pub mod table3;
pub mod table4;

use std::path::{Path, PathBuf};

use hadar_sim::{SimOutcome, SimResult, SweepRunner};
use hadar_workload::ArrivalPattern;

use crate::experiments::{run_scenario, SchedulerKind};
use crate::scenarios::paper_sim_scenario;

/// The schedulers of the paper's static comparison (Figs. 3a, 4, 5, 6).
const STATIC_KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Hadar,
    SchedulerKind::HadarMakespan,
    SchedulerKind::Gavel,
    SchedulerKind::Tiresias,
    SchedulerKind::YarnCs,
];

/// Regenerate every table and figure, in the evaluation section's order,
/// writing the CSVs under `out_dir`: the whole suite `all_experiments`
/// runs and `results/` holds. Each shared [`PaperSweep`] is reported once,
/// as its own entry, ahead of the figures it feeds.
pub fn run_all(quick: bool, runner: &SweepRunner, out_dir: &Path) -> Vec<FigureResult> {
    let (n, healthy_n) = if quick { (40, 24) } else { (480, 160) };
    let sweep = |n, pattern, kinds: &[SchedulerKind]| PaperSweep::run(n, pattern, kinds, runner);
    let comparison = sweep(n, ArrivalPattern::Static, &STATIC_KINDS);
    let continuous = sweep(
        n,
        ArrivalPattern::paper_continuous(),
        &SchedulerKind::HEADLINE,
    );
    let healthy = sweep(healthy_n, ArrivalPattern::Static, &SchedulerKind::HEADLINE);
    vec![
        table2::run(out_dir),
        comparison.report("fig3_static, fig4, fig5, fig6"),
        fig3::run(&comparison, out_dir),
        continuous.report("fig3_continuous"),
        fig3::run(&continuous, out_dir),
        fig4::run(&comparison, out_dir),
        fig5::run(&comparison, out_dir),
        fig6::run(&comparison, out_dir),
        fig7::run(quick, out_dir),
        fig8::run(quick, runner, out_dir),
        fig9::run(quick, runner, out_dir),
        table3::run(runner, out_dir),
        table4::run(quick, runner, out_dir),
        healthy.report("ablation, stragglers, failures, extensions"),
        ablation::run(&healthy, runner, out_dir),
        stragglers::run(&healthy, runner, out_dir),
        failures::run(quick, &healthy, runner, out_dir),
        extensions::run(&healthy, runner, out_dir),
    ]
}

/// Run labelled simulation cells through `runner` and return the outcomes
/// in cell order together with each cell's `(label, wall-clock seconds)`.
///
/// # Panics
/// Panics, naming the cell, if any cell fails: every experiment cell is a
/// valid configuration, so a failure is a bug.
pub(crate) fn run_cells<F>(
    runner: &SweepRunner,
    cells: Vec<(String, F)>,
) -> (Vec<SimOutcome>, Timings)
where
    F: FnOnce() -> SimResult + Send,
{
    let (labels, cells): (Vec<String>, Vec<F>) = cells.into_iter().unzip();
    labels
        .into_iter()
        .zip(runner.run(cells))
        .map(|(label, cell)| {
            let outcome = cell
                .outcome
                .unwrap_or_else(|e| panic!("simulation cell {label:?} failed: {e}"));
            (outcome, (label, cell.wall_seconds))
        })
        .unzip()
}

/// Per-cell wall-clock times `(cell label, seconds)`.
pub type Timings = Vec<(String, f64)>;

/// One run per scheduler of the paper's simulation scenario
/// (`paper_sim_scenario(num_jobs, 42, pattern)`), shared by every figure
/// that reads it so each distinct simulation runs once.
pub struct PaperSweep {
    /// Trace size.
    pub num_jobs: usize,
    /// Arrival pattern of the trace.
    pub pattern: ArrivalPattern,
    kinds: Vec<SchedulerKind>,
    outcomes: Vec<SimOutcome>,
    timings: Timings,
}

impl PaperSweep {
    /// The trace seed of every shared sweep.
    pub const SEED: u64 = 42;

    /// Run one cell per scheduler in `kinds` over `runner`.
    pub fn run(
        num_jobs: usize,
        pattern: ArrivalPattern,
        kinds: &[SchedulerKind],
        runner: &SweepRunner,
    ) -> Self {
        let cells = kinds
            .iter()
            .map(|&kind| {
                let cell = move || {
                    let s = paper_sim_scenario(num_jobs, Self::SEED, pattern);
                    run_scenario(s.cluster, s.jobs, s.config, kind)
                };
                (kind.name().to_owned(), cell)
            })
            .collect();
        let (outcomes, timings) = run_cells(runner, cells);
        Self {
            num_jobs,
            pattern,
            kinds: kinds.to_vec(),
            outcomes,
            timings,
        }
    }

    /// The outcome of scheduler `kind`.
    ///
    /// # Panics
    /// Panics if the sweep did not run `kind`.
    pub(crate) fn outcome(&self, kind: SchedulerKind) -> &SimOutcome {
        let i = self
            .kinds
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| panic!("{} is not part of this sweep", kind.name()));
        &self.outcomes[i]
    }

    /// `"static"` or `"continuous"`.
    pub(crate) fn pattern_label(&self) -> &'static str {
        match self.pattern {
            ArrivalPattern::Static => "static",
            ArrivalPattern::Poisson { .. } => "continuous",
        }
    }

    /// The sweep's report entry: its per-cell wall-clock and the figures it
    /// feeds (`feeds`); it writes no CSV itself.
    pub(crate) fn report(&self, feeds: &str) -> FigureResult {
        let label = self.pattern_label();
        FigureResult {
            name: format!("sweep_{label}_{}", self.num_jobs),
            summary: format!(
                "Shared sweep: {} {label} jobs, seed {}, {} schedulers (feeds {feeds})",
                self.num_jobs,
                Self::SEED,
                self.kinds.len()
            ),
            csv_paths: Vec::new(),
            timings: self.timings.clone(),
        }
    }
}

/// The outcome of regenerating one figure or table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier ("fig3", "table4", …).
    pub name: String,
    /// Human-readable summary block (printed by `all_experiments`).
    pub summary: String,
    /// CSV files written.
    pub csv_paths: Vec<PathBuf>,
    /// Per-cell wall-clock times as reported by the sweep runner. Empty for
    /// experiments without simulation cells of their own.
    pub timings: Timings,
}

impl FigureResult {
    pub(crate) fn new(name: &str, summary: String, csv_paths: Vec<PathBuf>) -> Self {
        Self {
            name: name.to_owned(),
            summary,
            csv_paths,
            timings: Vec::new(),
        }
    }

    /// Attach per-cell wall-clock timings from a sweep.
    pub(crate) fn with_timings(mut self, timings: Timings) -> Self {
        self.timings = timings;
        self
    }

    /// Render the per-cell wall-clock report (empty when no cells ran).
    pub fn render_timings(&self) -> String {
        if self.timings.is_empty() {
            return String::new();
        }
        let total: f64 = self.timings.iter().map(|(_, s)| s).sum();
        let mut out = format!(
            "  cell wall-clock ({} cells, {total:.2}s of simulation):\n",
            self.timings.len()
        );
        for (label, secs) in &self.timings {
            out.push_str(&format!("    {label:<42} {secs:>8.2}s\n"));
        }
        out
    }
}

/// Print one figure's summary, per-cell wall-clock report, and CSV paths.
pub fn print_report(r: &FigureResult) {
    println!("{}", r.summary);
    print!("{}", r.render_timings());
    for path in &r.csv_paths {
        println!("  wrote {}", path.display());
    }
}

/// Format a ratio against Hadar ("2.41x").
pub(crate) fn ratio(ours: f64, theirs: f64) -> String {
    if ours <= 0.0 {
        return "n/a".to_owned();
    }
    format!("{:.2}x", theirs / ours)
}

/// Indent a rendered chart by two spaces, one line at a time, for a
/// figure's summary block.
pub(crate) fn indent(chart: &str) -> String {
    chart.lines().map(|line| format!("  {line}\n")).collect()
}

/// The per-process directory the crate's unit tests write their
/// quick-mode CSVs to, so a test run never touches checked-in results.
#[cfg(test)]
pub(crate) fn test_out() -> PathBuf {
    std::env::temp_dir().join(format!("hadar-bench-test-{}", std::process::id()))
}
