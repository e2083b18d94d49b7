//! # libra-solver
//!
//! A small, dependency-free convex-optimization toolkit used by LIBRA in
//! place of the commercial Gurobi solver referenced by the paper.
//!
//! The LIBRA bandwidth-allocation problem
//!
//! ```text
//! minimize    Σ_k w_k · t_k
//! subject to  Σ_i c_{k,i}/B_i + aᵀB + d  ≤  t_k      (collective bottleneck)
//!             G·B ≤ h,  A·B = b,  l ≤ B ≤ u          (designer constraints)
//! ```
//!
//! is convex on `B > 0` (each `c/B_i` term is convex, and max/sum preserve
//! convexity), so a log-barrier interior-point method finds the same global
//! optimum the paper obtains from Gurobi's bilinear formulation
//! (`t_k · B_i ≥ c_{k,i}`).
//!
//! Components:
//! * [`linalg`] — dense matrices with LU and in-place Cholesky factorizations.
//! * [`convex`] — problem intermediate representation ([`ConvexProblem`]).
//! * [`barrier`] — phase-I + log-barrier Newton interior-point solver.
//! * [`subgrad`] — projected-subgradient fallback used for cross-checking.
//! * [`scalar`] — 1-D minimizers (golden section, grid) for parametric
//!   searches such as LIBRA's perf-per-cost objective.
//!
//! # Example
//!
//! Minimize `4/x₀ + 1/x₁` subject to `x₀ + x₁ ≤ 10` (optimal split is
//! bandwidth-proportional to `√c`):
//!
//! ```
//! use libra_solver::convex::{ConvexProblem, RatioTerm};
//!
//! let mut p = ConvexProblem::new(3); // x0, x1, epigraph t
//! p.minimize(&[(2, 1.0)]);
//! p.add_ratio_le(RatioTerm::new(vec![(0, 4.0), (1, 1.0)]).minus_var(2));
//! p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
//! p.set_lower(0, 1e-3);
//! p.set_lower(1, 1e-3);
//! let sol = p.solve().unwrap();
//! assert!((sol.x[0] - 20.0 / 3.0).abs() < 1e-3);
//! assert!((sol.x[1] - 10.0 / 3.0).abs() < 1e-3);
//! ```

pub mod barrier;
pub mod convex;
pub mod error;
pub mod linalg;
pub mod scalar;
pub mod subgrad;

pub use convex::{ConvexProblem, RatioTerm, Solution};
pub use error::SolverError;
pub use scalar::{golden_section, grid_then_golden};
