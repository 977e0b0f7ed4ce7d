//! A general LP builder and a cold sparse revised simplex.
//!
//! Solves `max c·x  s.t.  A x {≤,=,≥} b,  x ≥ 0`. The constraint matrix is
//! kept as sparse columns and never modified; the basis inverse is held in
//! product form (an eta file):
//!
//! * a *reinversion* rebuilds the eta file by Gaussian elimination over the
//!   basic columns in sparsity order (singletons first), an LU
//!   factorization in product form; each pivot appends one eta vector, and
//!   the file is rebuilt every 96 pivots to bound fill-in and rounding
//!   drift;
//! * phase 1 starts from the all-slack basis (artificials on `=`/`≥` rows)
//!   and minimizes the artificials; phase 2 optimizes the real objective;
//! * pricing is Dantzig (largest reduced cost) with a switch to Bland's
//!   rule after an iteration budget, so degenerate problems terminate.
//!
//! Every solve is cold. The Gavel policy LP has a dedicated exact solver
//! ([`crate::gavel`]); this one is its test oracle and the yardstick of
//! what a general LP solver pays (Fig. 7).

const EPS: f64 = 1e-9;
/// Pivots between eta-file rebuilds.
const REFACTOR_EVERY: usize = 96;
/// Smallest acceptable pivot magnitude inside a factorization.
const PIV_TOL: f64 = 1e-8;
/// Residual infeasibility below which phase 1 declares success.
const FEAS_TOL: f64 = 1e-7;

/// Comparison direction of one constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// One constraint: sparse coefficient list, relation, right-hand side.
#[derive(Debug, Clone)]
struct Constraint {
    coeffs: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

/// A linear program `max c·x` over non-negative variables.
#[derive(Debug, Clone)]
pub struct LpProblem {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

/// Solver outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal vertex was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// The iteration cap was hit or no usable pivot remained: a numerical
    /// failure, reported instead of a wrong answer.
    Stalled,
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable values (length `num_vars`).
    pub x: Vec<f64>,
    /// Optimal objective value `c·x`.
    pub objective: f64,
}

impl LpOutcome {
    /// The solution if optimal, else `None`.
    pub fn optimal(self) -> Option<LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

impl LpProblem {
    /// A maximization problem over `num_vars` non-negative variables with a
    /// zero objective.
    pub fn maximize(num_vars: usize) -> Self {
        Self {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Set the objective coefficient of variable `i`.
    pub fn set_objective(&mut self, i: usize, c: f64) -> &mut Self {
        assert!(i < self.num_vars, "objective index out of range");
        assert!(c.is_finite());
        self.objective[i] = c;
        self
    }

    /// Add a constraint. Duplicate variable indices accumulate.
    ///
    /// # Panics
    /// Panics on out-of-range variable indices or non-finite numbers.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> &mut Self {
        assert!(rhs.is_finite());
        for &(i, a) in &coeffs {
            assert!(i < self.num_vars, "constraint index {i} out of range");
            assert!(a.is_finite());
        }
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
        self
    }

    /// Solve with the two-phase revised simplex from the all-slack basis.
    pub fn solve(&self) -> LpOutcome {
        Rev::build(self).solve()
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
    /// Membership flag per column id (structural + slack + artificial).
    in_basis: Vec<bool>,
    /// Basic variable values per row (`B⁻¹ b`).
    xb: Vec<f64>,
    file: EtaFile,
    pivots_since_refactor: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    One,
    Two,
}

enum Run {
    Optimal,
    Unbounded,
    /// Iteration cap hit or no usable pivot: numerically stuck.
    Stalled,
}

impl Rev {
    /// Column-id layout: `0..n` structural, `n..n+m` slack of row `i`,
    /// `n+m..n+2m` artificial of row `i`.
    fn slack_id(&self, row: usize) -> usize {
        self.n + row
    }
    fn art_id(&self, row: usize) -> usize {
        self.n + self.m + row
    }

    fn build(p: &LpProblem) -> Self {
        let m = p.constraints.len();
        let n = p.num_vars;
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut slack_sign = vec![0.0; m];
        let mut b = vec![0.0; m];
        for (i, c) in p.constraints.iter().enumerate() {
            // Normalize so rhs ≥ 0 by flipping rows with a negative rhs.
            let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
            b[i] = sign * c.rhs;
            slack_sign[i] = match (c.relation, c.rhs < 0.0) {
                (Relation::Eq, _) => 0.0,
                (Relation::Le, false) | (Relation::Ge, true) => 1.0,
                (Relation::Ge, false) | (Relation::Le, true) => -1.0,
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
            obj: p.objective.clone(),
            basis: Vec::new(),
            in_basis: vec![false; n + 2 * m],
            xb: vec![0.0; m],
            file: EtaFile::default(),
            pivots_since_refactor: 0,
        }
    }

    /// Nonzeros of standard-form column `id` in original (untransformed)
    /// row space, written into the dense scratch `out` (assumed zeroed).
    fn scatter_col(&self, id: usize, out: &mut [f64]) {
        if id < self.n {
            for &(i, a) in &self.cols[id] {
                out[i] = a;
            }
        } else if id < self.n + self.m {
            let row = id - self.n;
            out[row] = self.slack_sign[row];
        } else {
            out[id - self.n - self.m] = 1.0;
        }
    }

    fn col_nnz(&self, id: usize) -> usize {
        if id < self.n {
            self.cols[id].len()
        } else {
            1
        }
    }

    /// Does column `id` exist in this problem? (`=` rows have no slack.)
    fn col_exists(&self, id: usize) -> bool {
        id < self.n || self.slack_sign[id - self.n] != 0.0
    }

    /// Rebuild the eta file by Gaussian elimination over `want`, completing
    /// unpivoted rows with their slack, then artificials. Returns `false` on
    /// a numerical dead end.
    fn refactor(&mut self, want: &[usize]) -> bool {
        self.file = EtaFile::default();
        self.pivots_since_refactor = 0;
        self.in_basis.iter_mut().for_each(|f| *f = false);
        self.basis = vec![usize::MAX; self.m];
        let mut rows_left = self.m;

        // Sparsity-ordered elimination: fewest original nonzeros first
        // keeps fill-in minimal (slack singletons generate trivial etas).
        let mut order = want.to_vec();
        order.sort_by_key(|&c| (self.col_nnz(c), c));
        order.dedup();
        let mut w = vec![0.0; self.m];
        for id in order {
            rows_left -= usize::from(self.pivot_in(id, &mut w));
        }
        let undone: Vec<usize> = (0..self.m)
            .filter(|&i| self.basis[i] == usize::MAX)
            .collect();
        for i in undone {
            let slack = self.slack_id(i);
            if self.col_exists(slack) {
                rows_left -= usize::from(self.pivot_in(slack, &mut w));
            }
        }
        for i in 0..self.m {
            if rows_left == 0 {
                break;
            }
            rows_left -= usize::from(self.pivot_in(self.art_id(i), &mut w));
        }
        rows_left == 0
    }

    /// Pivot column `id` into the basis at its largest entry among the rows
    /// not yet pivoted (`w` is zeroed scratch). Returns whether it entered.
    fn pivot_in(&mut self, id: usize, w: &mut [f64]) -> bool {
        if self.in_basis[id] {
            return false;
        }
        self.scatter_col(id, w);
        self.file.ftran(w);
        let mut best = PIV_TOL;
        let mut p = usize::MAX;
        for (i, &wi) in w.iter().enumerate() {
            if self.basis[i] == usize::MAX && wi.abs() > best {
                best = wi.abs();
                p = i;
            }
        }
        if p != usize::MAX {
            self.file.push(p, w);
            self.basis[p] = id;
            self.in_basis[id] = true;
        }
        w.iter_mut().for_each(|v| *v = 0.0);
        p != usize::MAX
    }

    /// `B⁻¹ b` under the current factorization.
    fn recompute_xb(&mut self) {
        let mut v = self.b.clone();
        self.file.ftran(&mut v);
        self.xb = v;
    }

    fn is_artificial(&self, id: usize) -> bool {
        id >= self.n + self.m
    }

    /// Phase-dependent cost of column `id`.
    fn cost(&self, id: usize, phase: Phase) -> f64 {
        match phase {
            Phase::One if self.is_artificial(id) => -1.0,
            Phase::Two if id < self.n => self.obj[id],
            _ => 0.0,
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
            // re-enter.
            let mut enter = usize::MAX;
            let mut best = EPS;
            for id in 0..self.n + self.m {
                if self.in_basis[id] || !self.col_exists(id) {
                    continue;
                }
                let dot = if id < self.n {
                    self.cols[id].iter().map(|&(i, a)| a * y[i]).sum()
                } else {
                    self.slack_sign[id - self.n] * y[id - self.n]
                };
                let d = self.cost(id, phase) - dot;
                if d > best {
                    enter = id;
                    if use_bland {
                        break;
                    }
                    best = d;
                }
            }
            if enter == usize::MAX {
                return Run::Optimal;
            }
            // w = B⁻¹ a_enter.
            w.iter_mut().for_each(|v| *v = 0.0);
            self.scatter_col(enter, &mut w);
            self.file.ftran(&mut w);
            // Ratio test. Basic artificials sitting at ~0 leave first (a
            // zero-length pivot on any |w_i| > tol): they can never
            // re-enter, so this terminates, and it prevents an artificial
            // from drifting positive mid-phase-2.
            let mut leave = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            let mut evict = usize::MAX;
            for (i, &wi) in w.iter().enumerate() {
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
                if !self.refresh() {
                    return Run::Stalled;
                }
                continue;
            }
            // Update basic values and append the eta.
            for (i, &wi) in w.iter().enumerate() {
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
            if self.pivots_since_refactor >= REFACTOR_EVERY && !self.refresh() {
                return Run::Stalled;
            }
        }
        Run::Stalled
    }

    /// Refactor the current basis and recompute the basic values.
    fn refresh(&mut self) -> bool {
        let want = self.basis.clone();
        let ok = self.refactor(&want);
        self.recompute_xb();
        ok
    }

    /// Two-phase solve from the all-slack basis.
    fn solve(mut self) -> LpOutcome {
        let start: Vec<usize> = (0..self.m)
            .map(|i| {
                if self.slack_sign[i] > 0.0 {
                    self.slack_id(i)
                } else {
                    self.art_id(i)
                }
            })
            .collect();
        if !self.refactor(&start) {
            return LpOutcome::Stalled;
        }
        self.recompute_xb();

        // Phase 1 only if an artificial is basic at a meaningful value.
        let needs_phase1 =
            (0..self.m).any(|i| self.is_artificial(self.basis[i]) && self.xb[i] > FEAS_TOL);
        if needs_phase1 {
            match self.run(Phase::One) {
                Run::Optimal => {}
                Run::Unbounded => return LpOutcome::Infeasible,
                Run::Stalled => return LpOutcome::Stalled,
            }
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.is_artificial(self.basis[i]))
                .map(|i| self.xb[i].max(0.0))
                .sum();
            if infeas > FEAS_TOL {
                return LpOutcome::Infeasible;
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
                LpOutcome::Optimal(LpSolution { x, objective })
            }
            Run::Unbounded => LpOutcome::Unbounded,
            Run::Stalled => LpOutcome::Stalled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(p: &LpProblem) -> LpSolution {
        match p.solve() {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_2var() {
        // max 3x + 5y; x ≤ 4; 2y ≤ 12; 3x + 2y ≤ 18 → x=2, y=6, z=36.
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
        // max x + y; x + y = 5; x ≤ 3 → z = 5.
        let mut p = LpProblem::maximize(2);
        p.set_objective(0, 1.0).set_objective(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 3.0);
        let s = solve(&p);
        assert!((s.objective - 5.0).abs() < 1e-7);
        assert!((s.x[0] + s.x[1] - 5.0).abs() < 1e-7);

        // max −x (i.e. min x); x ≥ 7 → x = 7.
        let mut q = LpProblem::maximize(1);
        q.set_objective(0, -1.0);
        q.add_constraint(vec![(0, 1.0)], Relation::Ge, 7.0);
        let s = solve(&q);
        assert!((s.x[0] - 7.0).abs() < 1e-7);
        assert!((s.objective + 7.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        // x ≤ 1 and x ≥ 2.
        let mut p = LpProblem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 2.0);
        assert_eq!(p.solve(), LpOutcome::Infeasible);

        let mut q = LpProblem::maximize(2);
        q.set_objective(0, 1.0);
        q.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        assert_eq!(q.solve(), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // −x ≤ −3 ⇔ x ≥ 3; max −x → x = 3.
        let mut p = LpProblem::maximize(1);
        p.set_objective(0, -1.0);
        p.add_constraint(vec![(0, -1.0)], Relation::Le, -3.0);
        let s = solve(&p);
        assert!((s.x[0] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn beale_degenerate_example_terminates() {
        // Beale's classic cycling LP: max ¾x₁ − 150x₂ + 1/50·x₃ − 6x₄ s.t.
        // ¼x₁ − 60x₂ − 1/25·x₃ + 9x₄ ≤ 0, ½x₁ − 90x₂ − 1/50·x₃ + 3x₄ ≤ 0,
        // x₃ ≤ 1. Pure Dantzig pricing cycles forever at the degenerate
        // origin; the Bland fallback must terminate at z = 1/20,
        // x = (1/25, 0, 1, 0).
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
        assert!((s.x[0] - 0.04).abs() < 1e-6);
        assert!((s.x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_indices_accumulate() {
        // (x + x) ≤ 4 ⇒ x ≤ 2.
        let mut p = LpProblem::maximize(1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, 1.0), (0, 1.0)], Relation::Le, 4.0);
        let s = solve(&p);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn larger_transportation_forces_refactorization() {
        // 120 jobs × 3 types with unit budgets: more pivots than one eta
        // file holds. Every basic solution is feasible and no column can
        // improve it, so check primal feasibility and the dual bound.
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (jobs, types) = (120, 3);
        let mut p = LpProblem::maximize(jobs * types);
        for v in 0..jobs * types {
            p.set_objective(v, 1.0 + 30.0 * next());
        }
        for j in 0..jobs {
            let coeffs = (0..types).map(|r| (j * types + r, 1.0)).collect();
            p.add_constraint(coeffs, Relation::Le, 1.0);
        }
        for r in 0..types {
            let coeffs = (0..jobs).map(|j| (j * types + r, 1.0)).collect();
            p.add_constraint(coeffs, Relation::Le, (jobs / 3) as f64);
        }
        let s = solve(&p);
        for j in 0..jobs {
            let used: f64 = (0..types).map(|r| s.x[j * types + r]).sum();
            assert!(used <= 1.0 + 1e-9, "job {j} uses {used}");
        }
        for r in 0..types {
            let load: f64 = (0..jobs).map(|j| s.x[j * types + r]).sum();
            assert!(load <= (jobs / 3) as f64 + 1e-9, "type {r} load {load}");
        }
        // Spreading the jobs evenly over the types is feasible and earns at
        // least 1 per job.
        assert!(s.objective >= jobs as f64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_index() {
        let mut p = LpProblem::maximize(1);
        p.add_constraint(vec![(3, 1.0)], Relation::Le, 1.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use hadar_rng::{Rng, StdRng};

    /// Box-constrained LPs have the closed-form optimum Σ max(c_i, 0)·u_i;
    /// the simplex must find it exactly.
    #[test]
    fn box_lp_matches_closed_form() {
        let mut rng = StdRng::seed_from_u64(0xC3);
        for case in 0..64 {
            let n = rng.gen_range_usize(1..8);
            let spec: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range_f64(-5.0..5.0), rng.gen_range_f64(0.1..10.0)))
                .collect();
            let mut p = LpProblem::maximize(n);
            for (i, &(c, u)) in spec.iter().enumerate() {
                p.set_objective(i, c);
                p.add_constraint(vec![(i, 1.0)], Relation::Le, u);
            }
            let s = match p.solve() {
                LpOutcome::Optimal(s) => s,
                other => panic!("case {case}: not optimal: {other:?}"),
            };
            let expect: f64 = spec.iter().map(|&(c, u)| c.max(0.0) * u).sum();
            assert!(
                (s.objective - expect).abs() < 1e-6 * (1.0 + expect.abs()),
                "case {case}: got {} expected {expect}",
                s.objective
            );
            for (i, &(_, u)) in spec.iter().enumerate() {
                assert!(s.x[i] >= -1e-9 && s.x[i] <= u + 1e-9, "case {case}");
            }
        }
    }

    /// Random ≤-constrained LPs with non-negative rhs are always feasible
    /// (x = 0); any returned optimum must satisfy every constraint and
    /// dominate the origin's objective value of 0.
    #[test]
    fn random_le_lp_solution_is_feasible() {
        let mut rng = StdRng::seed_from_u64(0xD4);
        for case in 0..64 {
            let num_rows = rng.gen_range_usize(1..6);
            let rows: Vec<(Vec<f64>, f64)> = (0..num_rows)
                .map(|_| {
                    (
                        (0..3).map(|_| rng.gen_range_f64(0.0..4.0)).collect(),
                        rng.gen_range_f64(0.5..20.0),
                    )
                })
                .collect();
            let c: Vec<f64> = (0..3).map(|_| rng.gen_range_f64(0.0..3.0)).collect();
            let mut p = LpProblem::maximize(3);
            for (i, &ci) in c.iter().enumerate() {
                p.set_objective(i, ci);
            }
            for (coeffs, rhs) in &rows {
                let sparse = coeffs.iter().copied().enumerate().collect();
                p.add_constraint(sparse, Relation::Le, *rhs);
            }
            // A bounding row so the solve must return Optimal.
            p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 50.0);
            let s = match p.solve() {
                LpOutcome::Optimal(s) => s,
                other => panic!("case {case}: not optimal: {other:?}"),
            };
            assert!(s.objective >= -1e-9, "case {case}");
            for (coeffs, rhs) in &rows {
                let lhs: f64 = coeffs.iter().zip(&s.x).map(|(a, x)| a * x).sum();
                assert!(lhs <= rhs + 1e-6, "case {case}: {lhs} > {rhs}");
            }
            assert!(s.x.iter().all(|&x| x >= -1e-9), "case {case}");
        }
    }
}
