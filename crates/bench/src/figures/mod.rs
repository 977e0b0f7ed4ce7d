//! One module per table/figure of the paper's evaluation section.
//!
//! Every experiment writes its data series as CSV under [`results_dir`] and
//! returns a [`FigureResult`] with a human-readable summary (the numbers
//! recorded in EXPERIMENTS.md). Experiments accept a `quick` flag used by
//! integration tests: it shrinks job counts and seed counts but exercises
//! identical code paths.
//!
//! Experiments that run simulations take a [`hadar_sim::SweepRunner`] and
//! submit every independent simulation *cell* (scheduler × seed × pattern ×
//! config) through it. Results are always consumed in original cell order,
//! so the CSVs and summaries are byte-identical whatever the thread count;
//! per-cell wall-clock times land in [`FigureResult::timings`]. Two modules
//! deliberately bypass the runner: [`table2`] runs no simulations, and
//! [`fig7`] measures scheduler decision *wall time*, which concurrent cells
//! would corrupt.

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

use std::path::PathBuf;

pub use crate::experiments::results_dir;

/// Regenerate every table and figure, in the evaluation section's order:
/// the whole suite `all_experiments` runs and `results/` holds.
pub fn run_all(quick: bool, runner: &hadar_sim::SweepRunner) -> Vec<FigureResult> {
    vec![
        table2::run(quick),
        fig3::run(fig3::Panel::Static, quick, runner),
        fig3::run(fig3::Panel::Continuous, quick, runner),
        fig4::run(quick, runner),
        fig5::run(quick, runner),
        fig6::run(quick, runner),
        fig7::run(quick),
        fig8::run(quick, runner),
        fig9::run(quick, runner),
        table3::run(quick, runner),
        table4::run(quick, runner),
        ablation::run(quick, runner),
        stragglers::run(quick, runner),
        failures::run(quick, runner),
        extensions::run(quick, runner),
    ]
}

/// The outcome of regenerating one figure or table.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier ("fig3", "table4", …).
    pub name: String,
    /// Human-readable summary block (also printed by the binaries).
    pub summary: String,
    /// CSV files written.
    pub csv_paths: Vec<PathBuf>,
    /// Per-cell wall-clock times `(cell label, seconds)` as reported by the
    /// sweep runner. Empty for experiments without simulation cells.
    pub timings: Vec<(String, f64)>,
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
    pub(crate) fn with_timings(mut self, timings: Vec<(String, f64)>) -> Self {
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

/// Print one figure's summary, per-cell wall-clock report, and CSV paths —
/// the shared tail of every experiment binary.
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
