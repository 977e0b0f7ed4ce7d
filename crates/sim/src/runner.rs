//! Parallel experiment execution.
//!
//! Figure sweeps (λ sweeps, round-length sweeps, multiple seeds, scheduler
//! comparisons) run many independent simulation *cells*; the [`SweepRunner`]
//! fans them out over a scoped OS-thread pool (`std::thread::scope`, so
//! borrowed configuration can be captured without `'static` bounds),
//! collects every cell's [`SimResult`] in deterministic cell order, and
//! reports per-cell wall-clock time.
//!
//! Cells are fallible: an invalid configuration or a policy bug surfaces as
//! a [`SimError`] row for that cell, and a cell that *panics* is caught and
//! degraded into [`SimError::CellPanicked`] — one bad cell no longer kills
//! every worker of a parallel sweep.
//!
//! With `threads == 1` the runner degrades to a strict serial loop on the
//! caller's thread — the reference path. Because each cell is an
//! independent deterministic simulation and results are stored by cell
//! index, the parallel path produces identical outcomes (and therefore
//! byte-identical result CSVs) to the serial one; only wall-clock differs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::error::{SimError, SimResult};

/// One completed sweep cell: the simulation result (outcome or structured
/// error) plus how long the cell took to execute on its worker thread.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The simulation outcome, or the error that degraded this cell.
    pub outcome: SimResult,
    /// Wall-clock seconds the cell spent executing (excludes queueing).
    pub wall_seconds: f64,
}

/// Scoped thread-pool executor for independent simulation cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    /// One worker per available core (`available_parallelism()`), at most 16.
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16);
        Self { threads }
    }
}

impl SweepRunner {
    /// A runner with exactly `threads` workers (1 = serial fallback).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "SweepRunner needs at least one thread");
        Self { threads }
    }

    /// The strict serial reference runner.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute every cell and return the timed results in cell order.
    ///
    /// Cells are closures so callers can capture per-cell configuration
    /// (scheduler, seed, arrival pattern, round length) by move. A cell
    /// returning `Err` — or panicking — degrades into an error result for
    /// that cell only; all other cells still complete.
    pub fn run<F>(&self, cells: Vec<F>) -> Vec<CellResult>
    where
        F: FnOnce() -> SimResult + Send,
    {
        let execute = |cell: F| {
            let start = Instant::now();
            let outcome = match catch_unwind(AssertUnwindSafe(cell)) {
                Ok(result) => result,
                Err(payload) => Err(SimError::CellPanicked(panic_message(payload))),
            };
            CellResult {
                outcome,
                wall_seconds: start.elapsed().as_secs_f64(),
            }
        };

        let n = cells.len();
        if n == 0 {
            return Vec::new();
        }
        if self.threads == 1 || n == 1 {
            // Serial fallback: caller's thread, strict input order.
            return cells.into_iter().map(execute).collect();
        }

        // Work-stealing by atomic index over a shared cell list; each
        // worker writes its result into the slot of the cell it claimed,
        // so output order never depends on thread interleaving.
        let cells: Vec<Mutex<Option<F>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let mut slots: Vec<Mutex<Option<CellResult>>> = Vec::with_capacity(n);
        slots.resize_with(n, || Mutex::new(None));
        let next = AtomicUsize::new(0);

        let workers = self.threads.min(n);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let cell = cells[i]
                        .lock()
                        .expect("cell mutex poisoned")
                        .take()
                        .expect("each cell taken once");
                    *slots[i].lock().expect("slot mutex poisoned") = Some(execute(cell));
                });
            }
        });

        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot mutex poisoned")
                    .expect("every slot filled")
            })
            .collect()
    }
}

/// Render a panic payload as a message (the common `&str` / `String`
/// payloads verbatim, anything else a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::scheduler::{Scheduler, SchedulerContext};
    use hadar_cluster::{Allocation, Cluster, GpuTypeId, JobPlacement, MachineId};
    use hadar_workload::{Job, JobId};

    struct Fifo;
    impl Scheduler for Fifo {
        fn name(&self) -> &str {
            "Fifo"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
            let mut alloc = Allocation::empty();
            let v100 = ctx.cluster.catalog().lookup("V100").unwrap();
            let mut free = ctx.cluster.capacity(MachineId(0), v100);
            for s in ctx.jobs {
                if s.job.gang <= free {
                    alloc.set(
                        s.job.id,
                        JobPlacement::single(MachineId(0), v100, s.job.gang),
                    );
                    free -= s.job.gang;
                }
            }
            alloc
        }
    }

    fn one_sim(epochs: u64) -> SimResult {
        let cluster = Cluster::paper_simulation();
        let jobs = vec![Job::for_model(
            JobId(0),
            hadar_workload::DlTask::ResNet18,
            cluster.catalog(),
            0.0,
            1,
            epochs,
        )];
        Simulation::new(cluster, jobs, SimConfig::default()).run(Fifo)
    }

    #[test]
    fn parallel_results_preserve_order() {
        let tasks: Vec<_> = (1..=6).map(|i| move || one_sim(i * 50)).collect();
        let out = SweepRunner::new(3).run(tasks);
        assert_eq!(out.len(), 6);
        // Larger epoch counts finish later: JCTs must be non-decreasing in
        // input order.
        let jcts: Vec<f64> = out
            .iter()
            .map(|c| c.outcome.as_ref().unwrap().mean_jct())
            .collect();
        assert!(jcts.windows(2).all(|w| w[0] <= w[1]), "{jcts:?}");
    }

    #[test]
    fn empty_task_list() {
        let tasks: Vec<Box<dyn FnOnce() -> SimResult + Send>> = Vec::new();
        assert!(SweepRunner::new(4).run(tasks).is_empty());
    }

    #[test]
    fn single_thread_works() {
        let tasks: Vec<Box<dyn FnOnce() -> SimResult + Send>> = vec![Box::new(|| one_sim(10))];
        let out = SweepRunner::new(1).run(tasks);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].outcome.as_ref().unwrap().completed_jobs(), 1);
    }

    fn cell_jcts(runner: &SweepRunner) -> Vec<Vec<f64>> {
        let cells: Vec<Box<dyn FnOnce() -> SimResult + Send>> = (1..=8)
            .map(|i| Box::new(move || one_sim(i * 25)) as Box<dyn FnOnce() -> SimResult + Send>)
            .collect();
        runner
            .run(cells)
            .into_iter()
            .map(|c| c.outcome.unwrap().jcts())
            .collect()
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let serial = cell_jcts(&SweepRunner::serial());
        let parallel = cell_jcts(&SweepRunner::new(4));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        let a = cell_jcts(&SweepRunner::new(4));
        let b = cell_jcts(&SweepRunner::new(4));
        assert_eq!(a, b);
    }

    #[test]
    fn cells_report_wall_clock() {
        let cells: Vec<Box<dyn FnOnce() -> SimResult + Send>> = vec![Box::new(|| one_sim(100))];
        let res = SweepRunner::new(2).run(cells);
        assert_eq!(res.len(), 1);
        assert!(res[0].wall_seconds >= 0.0);
        assert!(res[0].wall_seconds.is_finite());
    }

    /// A policy that over-allocates machine 0 — an invalid allocation the
    /// engine must turn into a [`SimError`], not a panic.
    struct OverAllocator;
    impl Scheduler for OverAllocator {
        fn name(&self) -> &str {
            "Over"
        }
        fn schedule(&mut self, ctx: &SchedulerContext<'_>) -> Allocation {
            let mut a = Allocation::empty();
            for s in ctx.jobs {
                a.set(
                    s.job.id,
                    JobPlacement::single(MachineId(0), GpuTypeId(0), 99),
                );
            }
            a
        }
    }

    fn bad_cell() -> SimResult {
        let cluster = Cluster::paper_simulation();
        let jobs = vec![Job::for_model(
            JobId(0),
            hadar_workload::DlTask::ResNet18,
            cluster.catalog(),
            0.0,
            2,
            10,
        )];
        Simulation::new(cluster, jobs, SimConfig::default()).run(OverAllocator)
    }

    #[test]
    fn invalid_allocation_degrades_one_cell_not_the_sweep() {
        for threads in [1, 4] {
            let cells: Vec<Box<dyn FnOnce() -> SimResult + Send>> = vec![
                Box::new(|| one_sim(10)),
                Box::new(bad_cell),
                Box::new(|| one_sim(20)),
                Box::new(|| one_sim(30)),
            ];
            let res = SweepRunner::new(threads).run(cells);
            assert_eq!(res.len(), 4);
            assert!(res[0].outcome.is_ok());
            assert!(res[2].outcome.is_ok());
            assert!(res[3].outcome.is_ok());
            match res[1].outcome.as_ref().unwrap_err() {
                SimError::InvalidAllocation { scheduler, .. } => assert_eq!(scheduler, "Over"),
                other => panic!("expected InvalidAllocation, got {other:?}"),
            }
        }
    }

    #[test]
    fn panicking_cell_degrades_into_error() {
        let cells: Vec<Box<dyn FnOnce() -> SimResult + Send>> = vec![
            Box::new(|| one_sim(10)),
            Box::new(|| panic!("cell exploded")),
            Box::new(|| one_sim(20)),
        ];
        let res = SweepRunner::new(2).run(cells);
        assert_eq!(res.len(), 3);
        assert!(res[0].outcome.is_ok());
        assert!(res[2].outcome.is_ok());
        match res[1].outcome.as_ref().unwrap_err() {
            SimError::CellPanicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected CellPanicked, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        SweepRunner::new(0);
    }

    #[test]
    fn default_yields_at_least_one_thread() {
        let threads = SweepRunner::default().threads();
        assert!((1..=16).contains(&threads), "{threads}");
    }
}
