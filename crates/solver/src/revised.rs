//! Sparse revised simplex with basis reuse (warm-starting).
//!
//! The dense tableau in [`crate::simplex`] is O((m+n)²) in memory and per
//! pivot, which is exactly what hurts at the Fig. 7 scalability scales
//! (1024–2048 jobs ⇒ thousands of rows and columns). The Gavel policy LPs
//! are extremely sparse — each structural column has at most three nonzeros
//! (a job-budget row, a capacity row, and for the max-min LP a normalized
//! throughput row) — so this module implements the *revised* simplex:
//!
//! * the constraint matrix is kept as sparse columns and never modified;
//! * the basis inverse is represented in product form (an eta file). A
//!   *reinversion* rebuilds it from scratch by Gaussian elimination over the
//!   basic columns in sparsity order (singletons first), which is an LU
//!   factorization in product form; each subsequent pivot appends one eta
//!   vector, and the file is rebuilt every `REFACTOR_EVERY` (96) pivots to
//!   bound fill-in and rounding drift;
//! * pricing is Dantzig (steepest reduced cost) with a switch to Bland's
//!   rule after an iteration budget, mirroring the dense solver's
//!   anti-cycling strategy.
//!
//! **Warm-starting.** [`LpProblem::solve_warm`] accepts a [`Basis`] — the
//! set of structural/slack columns that were basic at a previous optimum —
//! and starts from it instead of the all-slack basis. A stale basis (after
//! the problem was perturbed) is first *completed* (missing rows get their
//! slack or an artificial), then *repaired* if primal-infeasible using the
//! classic single-artificial-column technique: one extra column `a₀ = −Σ
//! a_B[i]` over the deficient rows enters the basis in a single pivot,
//! restoring feasibility, and a short phase 1 drives it back to zero. For
//! the Gavel LPs an arrival/completion therefore costs a handful of pivots
//! instead of a full two-phase resolve. Any numerical trouble falls back to
//! a cold revised solve, and a (never observed) stall falls back to the
//! dense solver, so the result classification always matches
//! [`LpProblem::solve`].

use crate::simplex::{LpOutcome, LpProblem, LpSolution, Relation};

const EPS: f64 = 1e-9;
/// Largest standard-form dimension (`num_vars + num_constraints`) at which a
/// *cold* solve prefers the dense tableau over the revised simplex. Measured
/// on the Gavel LPs of BENCH_solver.json: the revised cold path is ~0.27× the
/// dense solver at 32 jobs (131 dims) and ~0.77× at 128 jobs (515 dims) —
/// the eta-file bookkeeping dominates while the tableau still fits in cache —
/// with the crossover landing a little above the 512-job point (2051 dims).
/// Warm-started solves always take the revised path: basis reuse beats both
/// cold solvers at every size.
const COLD_DENSE_MAX_DIM: usize = 2048;
/// Pivots between eta-file rebuilds.
const REFACTOR_EVERY: usize = 96;
/// Smallest acceptable pivot magnitude inside a factorization.
const PIV_TOL: f64 = 1e-8;
/// Residual infeasibility below which phase 1 declares success.
const FEAS_TOL: f64 = 1e-7;

/// An LP basis: the set of structural and slack columns that were basic at
/// an optimum, exported by [`LpProblem::solve_revised_with_basis`] /
/// [`LpProblem::solve_warm`] and accepted back by the latter.
///
/// Column ids use the solver's standard form: `0..num_vars` are the
/// problem's structural variables and [`Basis::slack_col`]`(num_vars, i)`
/// is the slack/surplus of constraint row `i`. The set is a *hint*:
/// `solve_warm` drops ids that no longer exist, completes missing rows, and
/// repairs infeasibility, so callers may freely remap a basis onto a
/// perturbed problem (see `gavel::GavelBasisCache`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    cols: Vec<usize>,
    num_vars: usize,
    num_rows: usize,
}

impl Basis {
    /// Build a basis hint from raw standard-form column ids for a problem
    /// with `num_vars` structural variables and `num_rows` constraints.
    /// Ids are deduplicated; out-of-range ids are dropped at solve time.
    pub fn from_columns(mut cols: Vec<usize>, num_vars: usize, num_rows: usize) -> Self {
        cols.sort_unstable();
        cols.dedup();
        Self {
            cols,
            num_vars,
            num_rows,
        }
    }

    /// The basic column ids (sorted, deduplicated).
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Structural-variable count of the problem this basis came from.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Constraint-row count of the problem this basis came from.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Standard-form column id of the slack/surplus of constraint `row` in
    /// a problem with `num_vars` structural variables.
    pub fn slack_col(num_vars: usize, row: usize) -> usize {
        num_vars + row
    }
}

impl LpProblem {
    /// Solve with the sparse revised simplex (cold start). Same outcome
    /// classification and optimal objective as [`LpProblem::solve`].
    pub fn solve_revised(&self) -> LpOutcome {
        self.solve_revised_with_basis().0
    }

    /// Solve with the sparse revised simplex and also return the optimal
    /// basis for warm-starting a future, possibly perturbed, solve. The
    /// basis is `None` unless the outcome is optimal.
    pub fn solve_revised_with_basis(&self) -> (LpOutcome, Option<Basis>) {
        let mut s = Rev::build(self);
        match s.solve_from(None) {
            Some(out) => out,
            // A stall can only arise from tolerance pathologies; the dense
            // solver is the terminating fallback of last resort.
            None => (self.solve(), None),
        }
    }

    /// Whether a cold (no warm basis) solve of this problem should use the
    /// dense tableau instead of the revised simplex: true for problems of at
    /// most `COLD_DENSE_MAX_DIM` (2048) standard-form dimensions, where the dense
    /// solver's cache-friendly pivots beat the eta-file overhead.
    pub fn cold_solve_prefers_dense(&self) -> bool {
        self.num_vars() + self.num_constraints() <= COLD_DENSE_MAX_DIM
    }

    /// Size-adaptive cold solve: dense tableau below the
    /// `COLD_DENSE_MAX_DIM` crossover, sparse revised simplex above it.
    /// Either way the optimal basis comes back in revised-solver ids, ready
    /// to seed [`LpProblem::solve_warm`] on the next round.
    pub fn solve_cold_with_basis(&self) -> (LpOutcome, Option<Basis>) {
        if self.cold_solve_prefers_dense() {
            self.solve_dense_with_basis()
        } else {
            self.solve_revised_with_basis()
        }
    }

    /// Solve warm-started from `warm`, the (possibly stale) optimal basis
    /// of a previous round. Falls back to a cold revised solve when the
    /// hint is unusable. Returns the outcome plus the new optimal basis.
    pub fn solve_warm(&self, warm: &Basis) -> (LpOutcome, Option<Basis>) {
        let mut s = Rev::build(self);
        if warm.num_rows == s.m && warm.num_vars == s.n {
            if let Some(out) = s.solve_from(Some(&warm.cols)) {
                return out;
            }
        }
        self.solve_revised_with_basis()
    }
}

/// One elementary (eta) transformation: pivoting column `w` at row `p`
/// maps `w ↦ e_p`. `off` holds the off-pivot nonzeros of `w`, `piv = w_p`.
struct Eta {
    p: usize,
    piv: f64,
    off: Vec<(usize, f64)>,
}

/// Product-form representation of the basis inverse.
#[derive(Default)]
struct EtaFile {
    etas: Vec<Eta>,
}

impl EtaFile {
    /// `v ← E_k ⋯ E_1 v` (forward transformation, `B⁻¹ v`).
    fn ftran(&self, v: &mut [f64]) {
        for e in &self.etas {
            let t = v[e.p] / e.piv;
            if t == 0.0 {
                continue;
            }
            v[e.p] = t;
            for &(i, w) in &e.off {
                v[i] -= w * t;
            }
        }
    }

    /// `y ← (E_k ⋯ E_1)ᵀ y` applied right-to-left (backward transformation,
    /// `B⁻ᵀ y`).
    fn btran(&self, y: &mut [f64]) {
        for e in self.etas.iter().rev() {
            let mut dot = 0.0;
            for &(i, w) in &e.off {
                dot += w * y[i];
            }
            y[e.p] = (y[e.p] - dot) / e.piv;
        }
    }

    fn push(&mut self, p: usize, w: &[f64]) {
        let off: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &x)| i != p && x.abs() > 1e-13)
            .map(|(i, &x)| (i, x))
            .collect();
        self.etas.push(Eta { p, piv: w[p], off });
    }
}

/// The revised-simplex working state for one `LpProblem`.
struct Rev {
    m: usize,
    /// Structural columns.
    n: usize,
    /// Sparse structural columns (row, coeff), rows normalized to rhs ≥ 0.
    cols: Vec<Vec<(usize, f64)>>,
    /// Slack coefficient per row: +1 (≤), −1 (≥), 0 (=, no slack).
    slack_sign: Vec<f64>,
    /// Normalized right-hand side (all ≥ 0 after row flips).
    b: Vec<f64>,
    /// Phase-2 objective over structural columns.
    obj: Vec<f64>,
    /// Basic column id per row.
    basis: Vec<usize>,
    /// Membership flag per column id (structural + slack + artificial + repair).
    in_basis: Vec<bool>,
    /// Basic variable values per row (`B⁻¹ b`).
    xb: Vec<f64>,
    file: EtaFile,
    pivots_since_refactor: usize,
    /// The single-artificial repair column (dense), if one was created.
    repair: Option<Vec<f64>>,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    One,
    Two,
}

enum Run {
    Optimal,
    Unbounded,
    /// Iteration cap hit — numerically stuck; caller falls back.
    Stalled,
}

impl Rev {
    /// Column-id layout: `0..n` structural, `n..n+m` slack of row `i`,
    /// `n+m..n+2m` artificial of row `i`, `n+2m` the repair column.
    fn slack_id(&self, row: usize) -> usize {
        self.n + row
    }
    fn art_id(&self, row: usize) -> usize {
        self.n + self.m + row
    }
    fn repair_id(&self) -> usize {
        self.n + 2 * self.m
    }

    fn build(p: &LpProblem) -> Self {
        let m = p.num_constraints();
        let n = p.num_vars();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut slack_sign = vec![0.0; m];
        let mut b = vec![0.0; m];
        for (i, c) in p.constraint_rows().iter().enumerate() {
            let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
            let rel = if c.rhs < 0.0 {
                flip(c.relation)
            } else {
                c.relation
            };
            b[i] = sign * c.rhs;
            slack_sign[i] = match rel {
                Relation::Le => 1.0,
                Relation::Ge => -1.0,
                Relation::Eq => 0.0,
            };
            for &(j, a) in &c.coeffs {
                cols[j].push((i, sign * a));
            }
        }
        // Merge duplicate row entries within each column and drop zeros.
        for col in &mut cols {
            col.sort_unstable_by_key(|&(i, _)| i);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(col.len());
            for &(i, a) in col.iter() {
                match merged.last_mut() {
                    Some(last) if last.0 == i => last.1 += a,
                    _ => merged.push((i, a)),
                }
            }
            merged.retain(|&(_, a)| a != 0.0);
            *col = merged;
        }
        Self {
            m,
            n,
            cols,
            slack_sign,
            b,
            obj: p.objective_coeffs().to_vec(),
            basis: Vec::new(),
            in_basis: vec![false; n + 2 * m + 1],
            xb: vec![0.0; m],
            file: EtaFile::default(),
            pivots_since_refactor: 0,
            repair: None,
        }
    }

    /// Nonzeros of standard-form column `id` in original (untransformed)
    /// row space, written into the dense scratch `out` (assumed zeroed);
    /// returns the touched rows for re-zeroing.
    fn scatter_col(&self, id: usize, out: &mut [f64]) -> Vec<usize> {
        if id < self.n {
            for &(i, a) in &self.cols[id] {
                out[i] = a;
            }
            self.cols[id].iter().map(|&(i, _)| i).collect()
        } else if id < self.n + self.m {
            let row = id - self.n;
            out[row] = self.slack_sign[row];
            vec![row]
        } else if id < self.n + 2 * self.m {
            let row = id - self.n - self.m;
            out[row] = 1.0;
            vec![row]
        } else {
            let r = self.repair.as_ref().expect("repair column materialized");
            let mut touched = Vec::new();
            for (i, &a) in r.iter().enumerate() {
                if a != 0.0 {
                    out[i] = a;
                    touched.push(i);
                }
            }
            touched
        }
    }

    fn col_nnz(&self, id: usize) -> usize {
        if id < self.n {
            self.cols[id].len()
        } else if id <= self.n + 2 * self.m {
            if id == self.repair_id() {
                self.m
            } else {
                1
            }
        } else {
            usize::MAX
        }
    }

    /// Does column `id` exist in this problem? (Slack ids of `=` rows do
    /// not.)
    fn col_exists(&self, id: usize) -> bool {
        if id < self.n {
            true
        } else if id < self.n + self.m {
            self.slack_sign[id - self.n] != 0.0
        } else {
            false // artificial/repair ids are never accepted as hints
        }
    }

    /// Rebuild the eta file by Gaussian elimination over `want` (a basis
    /// hint), completing unpivoted rows with their slack, then artificials.
    /// Returns `false` on a numerical dead end (never observed; callers
    /// fall back).
    fn refactor(&mut self, want: &[usize]) -> bool {
        self.file = EtaFile::default();
        self.pivots_since_refactor = 0;
        for f in self.in_basis.iter_mut() {
            *f = false;
        }
        self.basis = vec![usize::MAX; self.m];
        let mut row_done = vec![false; self.m];
        let mut rows_left = self.m;

        // Sparsity-ordered elimination: fewest original nonzeros first
        // keeps fill-in minimal (slack singletons generate trivial etas).
        let mut order: Vec<usize> = want
            .iter()
            .copied()
            .filter(|&c| !self.in_basis[c])
            .collect();
        order.sort_by_key(|&c| (self.col_nnz(c), c));

        let mut w = vec![0.0; self.m];
        let pivot_one =
            |this: &mut Self, id: usize, w: &mut Vec<f64>, row_done: &mut Vec<bool>| -> bool {
                let touched = this.scatter_col(id, w);
                this.file.ftran(w);
                let mut best = PIV_TOL;
                let mut p = usize::MAX;
                for (i, &wi) in w.iter().enumerate() {
                    if !row_done[i] && wi.abs() > best {
                        best = wi.abs();
                        p = i;
                    }
                }
                let ok = p != usize::MAX;
                if ok {
                    this.file.push(p, w);
                    this.basis[p] = id;
                    this.in_basis[id] = true;
                    row_done[p] = true;
                }
                // Re-zero the dense scratch (ftran may have spread fill).
                for v in w.iter_mut() {
                    *v = 0.0;
                }
                let _ = touched;
                ok
            };

        for id in order {
            if self.in_basis[id] {
                continue;
            }
            if pivot_one(self, id, &mut w, &mut row_done) {
                rows_left -= 1;
            }
        }
        if rows_left > 0 {
            // Complete with slacks of the undone rows, then artificials.
            let undone: Vec<usize> = (0..self.m).filter(|&i| !row_done[i]).collect();
            for &i in &undone {
                let s = self.slack_id(i);
                if self.col_exists(s)
                    && !self.in_basis[s]
                    && pivot_one(self, s, &mut w, &mut row_done)
                {
                    rows_left -= 1;
                }
            }
            for i in 0..self.m {
                if rows_left == 0 {
                    break;
                }
                let a = self.art_id(i);
                if !self.in_basis[a] && pivot_one(self, a, &mut w, &mut row_done) {
                    rows_left -= 1;
                }
            }
        }
        rows_left == 0
    }

    /// `B⁻¹ b` under the current factorization.
    fn recompute_xb(&mut self) {
        let mut v = self.b.clone();
        self.file.ftran(&mut v);
        self.xb = v;
    }

    /// Is column id an artificial or the repair column?
    fn is_artificial(&self, id: usize) -> bool {
        id >= self.n + self.m
    }

    /// Phase-dependent cost of column `id`.
    fn cost(&self, id: usize, phase: Phase) -> f64 {
        match phase {
            Phase::One => {
                if self.is_artificial(id) {
                    -1.0
                } else {
                    0.0
                }
            }
            Phase::Two => {
                if id < self.n {
                    self.obj[id]
                } else {
                    0.0
                }
            }
        }
    }

    /// Simplex iterations with the given phase objective: Dantzig pricing,
    /// Bland fallback after a budget, artificial-eviction-priority ratio
    /// test, periodic refactorization.
    fn run(&mut self, phase: Phase) -> Run {
        let bland_after = 20 * (self.m + self.n) + 1000;
        let hard_cap = 8 * bland_after + 10_000;
        let mut w = vec![0.0; self.m];
        let mut y = vec![0.0; self.m];
        for iter in 1..=hard_cap {
            let use_bland = iter > bland_after;
            // y = B⁻ᵀ c_B.
            for (yi, &bcol) in y.iter_mut().zip(&self.basis) {
                *yi = self.cost(bcol, phase);
            }
            self.file.btran(&mut y);
            // Price nonbasic structural + slack columns; artificials never
            // re-enter (matching the dense solver).
            let mut enter = usize::MAX;
            let mut best = EPS;
            'price: for id in 0..self.n + self.m {
                if self.in_basis[id] || !self.col_exists(id) {
                    continue;
                }
                let mut dot = 0.0;
                if id < self.n {
                    for &(i, a) in &self.cols[id] {
                        dot += a * y[i];
                    }
                } else {
                    dot = self.slack_sign[id - self.n] * y[id - self.n];
                }
                let d = self.cost(id, phase) - dot;
                if d > best {
                    enter = id;
                    if use_bland {
                        break 'price;
                    }
                    best = d;
                }
            }
            if enter == usize::MAX {
                return Run::Optimal;
            }
            // w = B⁻¹ a_enter.
            for v in w.iter_mut() {
                *v = 0.0;
            }
            self.scatter_col(enter, &mut w);
            self.file.ftran(&mut w);
            // Ratio test. Basic artificials sitting at ~0 leave first (a
            // zero-length pivot on any |w_i| > tol): they can never
            // re-enter, so this terminates, and it prevents an artificial
            // from drifting positive mid-phase-2.
            let mut leave = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut evict = usize::MAX;
            for (i, &wi) in w.iter().enumerate().take(self.m) {
                if self.is_artificial(self.basis[i])
                    && self.xb[i] <= FEAS_TOL
                    && wi.abs() > FEAS_TOL
                {
                    if evict == usize::MAX || self.basis[i] < self.basis[evict] {
                        evict = i;
                    }
                    continue;
                }
                if wi > EPS {
                    let ratio = self.xb[i].max(0.0) / wi;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave != usize::MAX
                            && self.basis[i] < self.basis[leave]);
                    if leave == usize::MAX || better {
                        best_ratio = ratio;
                        leave = i;
                    }
                }
            }
            let (leave, theta) = if evict != usize::MAX {
                (evict, 0.0)
            } else if leave != usize::MAX {
                (leave, best_ratio)
            } else {
                return Run::Unbounded;
            };
            if w[leave].abs() < PIV_TOL {
                // Numerically unusable pivot: rebuild the factorization and
                // retry the whole iteration from fresh data.
                let want = self.basis.clone();
                if !self.refactor(&want) {
                    return Run::Stalled;
                }
                self.recompute_xb();
                continue;
            }
            // Update basic values and append the eta.
            for (i, &wi) in w.iter().enumerate().take(self.m) {
                if i != leave {
                    self.xb[i] -= theta * wi;
                    if self.xb[i] < 0.0 && self.xb[i] > -FEAS_TOL {
                        self.xb[i] = 0.0;
                    }
                }
            }
            self.xb[leave] = theta;
            self.in_basis[self.basis[leave]] = false;
            self.in_basis[enter] = true;
            self.basis[leave] = enter;
            self.file.push(leave, &w);
            self.pivots_since_refactor += 1;
            if self.pivots_since_refactor >= REFACTOR_EVERY {
                let want = self.basis.clone();
                if !self.refactor(&want) {
                    return Run::Stalled;
                }
                self.recompute_xb();
            }
        }
        Run::Stalled
    }

    /// Full solve from an optional basis hint (`None` = cold all-slack
    /// start). Returns `None` on a stall so the caller can fall back.
    fn solve_from(&mut self, hint: Option<&[usize]>) -> Option<(LpOutcome, Option<Basis>)> {
        let start: Vec<usize> = match hint {
            Some(cols) => cols
                .iter()
                .copied()
                .filter(|&c| self.col_exists(c))
                .collect(),
            None => (0..self.m)
                .map(|i| {
                    if self.slack_sign[i] > 0.0 {
                        self.slack_id(i)
                    } else {
                        self.art_id(i)
                    }
                })
                .collect(),
        };
        if !self.refactor(&start) {
            return None; // numerically stuck; caller falls back
        }
        self.recompute_xb();

        // Primal-infeasible start (stale warm basis): one repair pivot with
        // the single-artificial column a₀ = −Σ_{deficient rows} a_B[i]
        // restores xb ≥ 0, then phase 1 drives the repair column to zero.
        if self.xb.iter().any(|&v| v < -FEAS_TOL) {
            let deficient: Vec<usize> = (0..self.m).filter(|&i| self.xb[i] < -FEAS_TOL).collect();
            let mut a0 = vec![0.0; self.m];
            let mut scratch = vec![0.0; self.m];
            for &i in &deficient {
                let touched = self.scatter_col(self.basis[i], &mut scratch);
                for &t in &touched {
                    a0[t] -= scratch[t];
                    scratch[t] = 0.0;
                }
            }
            self.repair = Some(a0);
            let rid = self.repair_id();
            let mut w = vec![0.0; self.m];
            self.scatter_col(rid, &mut w);
            self.file.ftran(&mut w);
            // Pivot at the most negative row; θ = xb[p]/w[p] > 0.
            let mut p = usize::MAX;
            for &i in &deficient {
                if p == usize::MAX || self.xb[i] < self.xb[p] {
                    p = i;
                }
            }
            if w[p].abs() < PIV_TOL {
                return None; // repair column degenerate under roundoff
            }
            let theta = self.xb[p] / w[p];
            for (i, &wi) in w.iter().enumerate().take(self.m) {
                if i != p {
                    self.xb[i] -= theta * wi;
                }
            }
            self.xb[p] = theta;
            self.in_basis[self.basis[p]] = false;
            self.in_basis[rid] = true;
            self.basis[p] = rid;
            self.file.push(p, &w);
            if self.xb.iter().any(|&v| v < -FEAS_TOL) {
                return None; // roundoff defeated the repair; fall back
            }
        }

        // Phase 1 only if an artificial/repair column is basic at a
        // meaningful value.
        let needs_phase1 =
            (0..self.m).any(|i| self.is_artificial(self.basis[i]) && self.xb[i] > FEAS_TOL);
        if needs_phase1 {
            match self.run(Phase::One) {
                Run::Optimal => {}
                Run::Unbounded => return Some((LpOutcome::Infeasible, None)),
                Run::Stalled => return None,
            }
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.is_artificial(self.basis[i]))
                .map(|i| self.xb[i].max(0.0))
                .sum();
            if infeas > FEAS_TOL {
                return Some((LpOutcome::Infeasible, None));
            }
        }

        match self.run(Phase::Two) {
            Run::Optimal => {
                let mut x = vec![0.0; self.n];
                for (i, &bcol) in self.basis.iter().enumerate() {
                    if bcol < self.n {
                        x[bcol] = self.xb[i].max(0.0);
                    }
                }
                let objective = x.iter().zip(&self.obj).map(|(xi, ci)| xi * ci).sum();
                let basis_cols: Vec<usize> = self
                    .basis
                    .iter()
                    .copied()
                    .filter(|&c| c < self.n + self.m)
                    .collect();
                let basis = Basis::from_columns(basis_cols, self.n, self.m);
                Some((LpOutcome::Optimal(LpSolution { x, objective }), Some(basis)))
            }
            Run::Unbounded => Some((LpOutcome::Unbounded, None)),
            Run::Stalled => None,
        }
    }
}

fn flip(r: Relation) -> Relation {
    match r {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(p: &LpProblem) -> LpSolution {
        match p.solve_revised() {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_2var() {
        let mut p = LpProblem::maximize(2);
        p.set_objective(0, 3.0).set_objective(1, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let s = solve(&p);
        assert!((s.objective - 36.0).abs() < 1e-7);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_need_phase1() {
        let mut p = LpProblem::maximize(2);
        p.set_objective(0, 1.0).set_objective(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 3.0);
        let s = solve(&p);
        assert!((s.objective - 5.0).abs() < 1e-7);

        let mut q = LpProblem::maximize(1);
        q.set_objective(0, -1.0);
        q.add_constraint(vec![(0, 1.0)], Relation::Ge, 7.0);
        let s = solve(&q);
        assert!((s.x[0] - 7.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut p = LpProblem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve_revised(), LpOutcome::Infeasible);

        let mut q = LpProblem::maximize(2);
        q.set_objective(0, 1.0);
        q.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        assert_eq!(q.solve_revised(), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        let mut p = LpProblem::maximize(1);
        p.set_objective(0, -1.0);
        p.add_constraint(vec![(0, -1.0)], Relation::Le, -3.0);
        let s = solve(&p);
        assert!((s.x[0] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn warm_start_same_problem_is_exact() {
        let mut p = LpProblem::maximize(2);
        p.set_objective(0, 3.0).set_objective(1, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let (out, basis) = p.solve_revised_with_basis();
        let basis = basis.expect("optimal basis");
        let obj = out.optimal().unwrap().objective;
        let (out2, basis2) = p.solve_warm(&basis);
        assert!((out2.optimal().unwrap().objective - obj).abs() < 1e-9);
        assert!(basis2.is_some());
    }

    #[test]
    fn warm_start_after_rhs_perturbation() {
        // Tighten a constraint so the old basis is primal-infeasible; the
        // repair pivot + short phase 1 must still reach the true optimum.
        let build = |cap: f64| {
            let mut p = LpProblem::maximize(2);
            p.set_objective(0, 3.0).set_objective(1, 5.0);
            p.add_constraint(vec![(0, 1.0)], Relation::Le, 4.0);
            p.add_constraint(vec![(1, 2.0)], Relation::Le, 12.0);
            p.add_constraint(vec![(0, 3.0), (1, 2.0)], Relation::Le, cap);
            p
        };
        let (_, basis) = build(18.0).solve_revised_with_basis();
        let basis = basis.unwrap();
        let perturbed = build(6.0);
        let cold = perturbed.solve_revised().optimal().unwrap().objective;
        let (warm_out, _) = perturbed.solve_warm(&basis);
        let warm = warm_out.optimal().unwrap().objective;
        assert!(
            (warm - cold).abs() < 1e-7,
            "warm {warm} vs cold {cold} after perturbation"
        );
    }

    #[test]
    fn warm_start_with_garbage_hint_falls_back() {
        let mut p = LpProblem::maximize(2);
        p.set_objective(0, 1.0).set_objective(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 2.0);
        // Hint with out-of-range and duplicate ids from a "bigger" problem.
        let garbage = Basis::from_columns(vec![0, 0, 1, 7, 99], 2, 1);
        let (out, basis) = p.solve_warm(&garbage);
        assert!((out.optimal().unwrap().objective - 2.0).abs() < 1e-7);
        assert!(basis.is_some());
    }

    #[test]
    fn beale_degenerate_example_terminates() {
        // Beale's classic cycling LP: max ¾x₁ − 150x₂ + 1/50·x₃ − 6x₄;
        // ¼x₁ − 60x₂ − 1/25·x₃ + 9x₄ ≤ 0; ½x₁ − 90x₂ − 1/50·x₃ + 3x₄ ≤ 0;
        // x₃ ≤ 1. Dantzig pricing cycles forever without an anti-cycling
        // rule; the optimum is z = 1/20 at x = (1/25, 0, 1, 0).
        let mut p = LpProblem::maximize(4);
        p.set_objective(0, 0.75)
            .set_objective(1, -150.0)
            .set_objective(2, 0.02)
            .set_objective(3, -6.0);
        p.add_constraint(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(vec![(2, 1.0)], Relation::Le, 1.0);
        let s = solve(&p);
        assert!(
            (s.objective - 0.05).abs() < 1e-7,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn cold_solver_selection_crosses_over_at_dim_threshold() {
        // The size-adaptive cold solve is pinned to the standard-form
        // dimension count num_vars + num_constraints: at or below 2048 the
        // dense tableau wins (BENCH_solver.json: revised-cold is 0.27× dense
        // at 32 jobs), above it the revised simplex takes over.
        let build = |vars: usize, rows: usize| {
            let mut p = LpProblem::maximize(vars);
            for i in 0..rows {
                p.add_constraint(vec![(i % vars, 1.0)], Relation::Le, 1.0);
            }
            p
        };
        assert!(build(10, 10).cold_solve_prefers_dense());
        assert!(build(1024, 1024).cold_solve_prefers_dense()); // exactly 2048
        assert!(!build(1025, 1024).cold_solve_prefers_dense()); // 2049
        assert!(!build(3072, 1037).cold_solve_prefers_dense());
    }

    #[test]
    fn dense_cold_solve_exports_a_warm_startable_basis() {
        // A small Gavel-shaped LP takes the dense path cold; its exported
        // basis must (a) match the revised solver's optimum and (b) be
        // directly usable by solve_warm after an RHS perturbation.
        let build = |cap: f64| {
            let mut p = LpProblem::maximize(6); // 3 jobs × 2 types
            for (i, v) in [3.0, 1.0, 2.0, 2.0, 1.0, 4.0].into_iter().enumerate() {
                p.set_objective(i, v);
            }
            for j in 0..3 {
                p.add_constraint(vec![(2 * j, 1.0), (2 * j + 1, 1.0)], Relation::Le, 1.0);
            }
            p.add_constraint(vec![(0, 1.0), (2, 1.0), (4, 1.0)], Relation::Le, cap);
            p.add_constraint(vec![(1, 1.0), (3, 1.0), (5, 1.0)], Relation::Le, cap);
            p
        };
        let p = build(2.0);
        assert!(p.cold_solve_prefers_dense());
        let (out, basis) = p.solve_cold_with_basis();
        let dense_obj = out.optimal().unwrap().objective;
        let revised_obj = p.solve_revised().optimal().unwrap().objective;
        assert!((dense_obj - revised_obj).abs() < 1e-7);
        let basis = basis.expect("dense cold solve must export a basis");

        let perturbed = build(1.0);
        let cold = perturbed.solve_revised().optimal().unwrap().objective;
        let (warm_out, warm_basis) = perturbed.solve_warm(&basis);
        let warm = warm_out.optimal().unwrap().objective;
        assert!(
            (warm - cold).abs() < 1e-7,
            "warm-from-dense {warm} vs cold {cold}"
        );
        assert!(warm_basis.is_some());
    }

    #[test]
    fn larger_transportation_matches_dense() {
        // Gavel-shaped instance big enough to force several refactorizations.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let jobs = 120;
        let types = 3;
        let mut p = LpProblem::maximize(jobs * types);
        for j in 0..jobs {
            for r in 0..types {
                p.set_objective(j * types + r, 1.0 + 30.0 * next());
            }
        }
        for j in 0..jobs {
            let coeffs = (0..types).map(|r| (j * types + r, 1.0)).collect();
            p.add_constraint(coeffs, Relation::Le, 1.0);
        }
        for r in 0..types {
            let coeffs = (0..jobs)
                .map(|j| (j * types + r, 1.0 + (j % 4) as f64))
                .collect();
            p.add_constraint(coeffs, Relation::Le, (jobs / 3) as f64);
        }
        let dense = p.solve().optimal().unwrap().objective;
        let revised = p.solve_revised().optimal().unwrap().objective;
        assert!(
            (dense - revised).abs() < 1e-6 * (1.0 + dense.abs()),
            "dense {dense} vs revised {revised}"
        );
    }
}
