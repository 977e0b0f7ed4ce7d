#![warn(missing_docs)]

//! # hadar-solver
//!
//! The optimization behind the Gavel baseline (Narayanan et al., OSDI '20).
//! Gavel computes its allocation matrix `Y[j][r]`, the fraction of time
//! job `j` should spend on GPU type `r`, by solving a linear program; the
//! original system delegates to cvxpy. This crate has two solvers, written
//! from scratch and sharing no code:
//!
//! * [`gavel`]: the max-total-throughput policy LP is a transportation
//!   problem, and [`max_total_throughput_allocation`] solves it exactly
//!   with max-profit augmenting paths on the condensed GPU-type graph. This
//!   is what the Gavel scheduler runs.
//! * [`simplex`]: a general LP builder ([`LpProblem`]) and a cold sparse
//!   revised simplex. [`total_throughput_lp`] states the same policy LP for
//!   it; it is the test oracle for the transportation solver and Fig. 7's
//!   yardstick of what a general LP solver pays.
//!
//! ```
//! use hadar_solver::{LpProblem, Relation};
//! // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
//! let mut p = LpProblem::maximize(2);
//! p.set_objective(0, 3.0).set_objective(1, 5.0);
//! p.add_constraint(vec![(0, 1.0)], Relation::Le, 4.0);
//! p.add_constraint(vec![(1, 2.0)], Relation::Le, 12.0);
//! p.add_constraint(vec![(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
//! let s = p.solve().optimal().unwrap();
//! assert!((s.objective - 36.0).abs() < 1e-7);
//! ```

pub mod gavel;
pub mod simplex;

pub use gavel::{max_total_throughput_allocation, total_throughput_lp, GavelLpError, GavelLpInput};
pub use simplex::{LpOutcome, LpProblem, LpSolution, Relation};
