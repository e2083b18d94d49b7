//! Problem intermediate representation for LIBRA's convex programs.
//!
//! A [`ConvexProblem`] holds a linear objective, *ratio constraints* of the
//! form `Σ c/x_i + aᵀx + d ≤ 0` (the epigraph form of LIBRA's bottleneck
//! `max_i traffic_i / B_i` terms), linear equalities/inequalities, and box
//! bounds. Such a problem is convex whenever every ratio denominator is kept
//! strictly positive, which the solver enforces through lower bounds.

use crate::barrier;
use crate::error::SolverError;

/// One convex constraint `Σ_r c_r / x_{i_r} + Σ_l a_l · x_{j_l} + d ≤ 0`.
///
/// All ratio coefficients `c_r` must be non-negative — this is what keeps the
/// constraint convex on the positive orthant. Epigraph variables enter
/// through the linear part with coefficient `-1` (see [`RatioTerm::minus_var`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RatioTerm {
    ratios: Vec<(usize, f64)>,
    linear: Vec<(usize, f64)>,
    constant: f64,
}

impl RatioTerm {
    /// Creates a constraint body from `(variable, coefficient)` ratio pairs,
    /// i.e. `Σ coefficient / x_variable`.
    pub fn new(ratios: Vec<(usize, f64)>) -> Self {
        RatioTerm { ratios, linear: Vec::new(), constant: 0.0 }
    }

    /// Adds a linear term `coef · x_var`.
    pub fn plus_linear(mut self, var: usize, coef: f64) -> Self {
        self.linear.push((var, coef));
        self
    }

    /// Adds a constant offset.
    pub fn plus_const(mut self, d: f64) -> Self {
        self.constant += d;
        self
    }

    /// Subtracts variable `var` — the usual way to bind an epigraph variable,
    /// turning the body into `… − x_var ≤ 0`, i.e. `… ≤ x_var`.
    pub fn minus_var(self, var: usize) -> Self {
        self.plus_linear(var, -1.0)
    }

    /// The `(variable, coefficient)` ratio pairs.
    pub fn ratios(&self) -> &[(usize, f64)] {
        &self.ratios
    }

    /// The `(variable, coefficient)` linear pairs.
    pub fn linear(&self) -> &[(usize, f64)] {
        &self.linear
    }

    /// The constant offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Evaluates the constraint body at `x`.
    ///
    /// Returns `+inf` outside the domain (a non-positive denominator).
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut v = self.constant;
        for &(i, c) in &self.ratios {
            if x[i] <= 0.0 {
                return f64::INFINITY;
            }
            v += c / x[i];
        }
        for &(j, a) in &self.linear {
            v += a * x[j];
        }
        v
    }

    /// Accumulates the gradient of the body at `x` into `grad`.
    pub fn add_grad(&self, x: &[f64], grad: &mut [f64]) {
        for &(i, c) in &self.ratios {
            grad[i] -= c / (x[i] * x[i]);
        }
        for &(j, a) in &self.linear {
            grad[j] += a;
        }
    }

    /// Writes the gradient of the body at `x` into a fresh dense vector.
    pub fn grad(&self, x: &[f64], n: usize) -> Vec<f64> {
        let mut g = vec![0.0; n];
        self.add_grad(x, &mut g);
        g
    }

    /// The diagonal Hessian entries `(variable, 2c/x³)` at `x`.
    pub fn hess_diag(&self, x: &[f64]) -> Vec<(usize, f64)> {
        self.ratios.iter().map(|&(i, c)| (i, 2.0 * c / (x[i] * x[i] * x[i]))).collect()
    }

    fn validate(&self, n: usize) -> Result<(), SolverError> {
        for &(i, c) in &self.ratios {
            if i >= n {
                return Err(SolverError::BadVariable { index: i, n_vars: n });
            }
            if !(c.is_finite() && c >= 0.0) {
                return Err(SolverError::BadCoefficient(c));
            }
        }
        for &(j, _) in &self.linear {
            if j >= n {
                return Err(SolverError::BadVariable { index: j, n_vars: n });
            }
        }
        Ok(())
    }
}

/// A sparse linear constraint `Σ a_i x_i {≤,=} b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearCon {
    /// Sparse `(variable, coefficient)` terms.
    pub terms: Vec<(usize, f64)>,
    /// Right-hand side.
    pub rhs: f64,
}

impl LinearCon {
    /// Evaluates `Σ a_i x_i − b` (≤ 0 when satisfied for inequalities).
    pub fn eval(&self, x: &[f64]) -> f64 {
        self.terms.iter().map(|&(i, a)| a * x[i]).sum::<f64>() - self.rhs
    }
}

/// The result of a successful solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable values.
    pub x: Vec<f64>,
    /// Optimal value of the linear objective `cᵀx`.
    pub objective: f64,
    /// Newton iterations that ran in the barrier stages (phase-I's are not
    /// counted).
    pub newton_iters: usize,
}

/// A convex program: linear objective, ratio constraints, linear constraints
/// and box bounds. See the [crate-level documentation](crate) for the model.
#[derive(Debug, Clone, Default)]
pub struct ConvexProblem {
    n: usize,
    objective: Vec<f64>,
    ratio_cons: Vec<RatioTerm>,
    lin_ineq: Vec<LinearCon>,
    lin_eq: Vec<LinearCon>,
    lower: Vec<Option<f64>>,
    upper: Vec<Option<f64>>,
    initial_guess: Option<Vec<f64>>,
}

/// The borrowed pieces of a problem handed to the barrier solver:
/// (ratio constraints, linear inequalities, linear equalities, lower
/// bounds, upper bounds).
pub(crate) type Parts<'a> =
    (&'a [RatioTerm], &'a [LinearCon], &'a [LinearCon], &'a [Option<f64>], &'a [Option<f64>]);

impl ConvexProblem {
    /// Creates a problem with `n` variables, no constraints, and a zero
    /// objective.
    pub fn new(n: usize) -> Self {
        ConvexProblem {
            n,
            objective: vec![0.0; n],
            ratio_cons: Vec::new(),
            lin_ineq: Vec::new(),
            lin_eq: Vec::new(),
            lower: vec![None; n],
            upper: vec![None; n],
            initial_guess: None,
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n
    }

    /// Sets the linear objective from sparse `(variable, coefficient)` pairs
    /// (to be minimized). Overwrites any previous objective.
    pub fn minimize(&mut self, terms: &[(usize, f64)]) -> &mut Self {
        self.objective = vec![0.0; self.n];
        for &(i, c) in terms {
            self.objective[i] += c;
        }
        self
    }

    /// The dense objective vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Adds a ratio constraint `body ≤ 0`.
    pub fn add_ratio_le(&mut self, body: RatioTerm) -> &mut Self {
        self.ratio_cons.push(body);
        self
    }

    /// Adds a linear inequality `Σ a_i x_i ≤ b`.
    pub fn add_lin_le(&mut self, terms: &[(usize, f64)], rhs: f64) -> &mut Self {
        self.lin_ineq.push(LinearCon { terms: terms.to_vec(), rhs });
        self
    }

    /// Adds a linear equality `Σ a_i x_i = b`.
    pub fn add_lin_eq(&mut self, terms: &[(usize, f64)], rhs: f64) -> &mut Self {
        self.lin_eq.push(LinearCon { terms: terms.to_vec(), rhs });
        self
    }

    /// Sets a lower bound `x_var ≥ bound`.
    pub fn set_lower(&mut self, var: usize, bound: f64) -> &mut Self {
        self.lower[var] = Some(bound);
        self
    }

    /// Sets an upper bound `x_var ≤ bound`.
    pub fn set_upper(&mut self, var: usize, bound: f64) -> &mut Self {
        self.upper[var] = Some(bound);
        self
    }

    /// Suggests a starting point (it need not be feasible; phase-I will
    /// repair it, but a good guess speeds convergence).
    pub fn suggest_start(&mut self, x0: Vec<f64>) -> &mut Self {
        self.initial_guess = Some(x0);
        self
    }

    /// Accessors used by the barrier solver.
    pub(crate) fn parts(&self) -> Parts<'_> {
        (&self.ratio_cons, &self.lin_ineq, &self.lin_eq, &self.lower, &self.upper)
    }

    /// The suggested starting point, if any (what
    /// [`ConvexProblem::suggest_start`] installed) — callers composing a
    /// warm start from a compiled guess read it back through here.
    pub fn guess(&self) -> Option<&[f64]> {
        self.initial_guess.as_deref()
    }

    /// Validates variable indices, coefficient signs, and that every ratio
    /// denominator has a strictly positive lower bound.
    ///
    /// # Errors
    /// See [`SolverError`] variants for each failure mode.
    pub fn validate(&self) -> Result<(), SolverError> {
        for rc in &self.ratio_cons {
            rc.validate(self.n)?;
            for &(i, c) in rc.ratios() {
                if c > 0.0 && self.lower[i].is_none_or(|l| l <= 0.0) {
                    return Err(SolverError::MissingPositiveLowerBound(i));
                }
            }
        }
        for lc in self.lin_ineq.iter().chain(&self.lin_eq) {
            for &(i, _) in &lc.terms {
                if i >= self.n {
                    return Err(SolverError::BadVariable { index: i, n_vars: self.n });
                }
            }
        }
        Ok(())
    }

    /// Solves the problem with default options.
    ///
    /// # Errors
    /// Returns an error if the problem is malformed, infeasible, unbounded,
    /// or numerically intractable.
    pub fn solve(&self) -> Result<Solution, SolverError> {
        self.validate()?;
        barrier::solve(self)
    }

    /// Solves the problem **warm-started** from `x0` — the seed API used
    /// by design-space sweeps, where neighboring grid points differ in one
    /// axis and the previous optimum is an excellent start.
    ///
    /// `x0` overrides any [`ConvexProblem::suggest_start`] suggestion and
    /// is additionally trusted as near-optimal: the interior-point ladder
    /// starts at a high barrier weight, skipping the centering stages a
    /// cold solve spends closing a gap the seed already closed. The
    /// stopping criterion (duality gap) is identical to [`solve`], so the
    /// returned optimum agrees with a cold solve to within solver
    /// tolerance — warm starting changes the path, never the target. A bad
    /// or infeasible seed degrades gracefully: phase-I repairs it and the
    /// solve proceeds cold.
    ///
    /// A seed of the wrong length is ignored (falls back to the cold
    /// heuristics).
    ///
    /// # Errors
    /// See [`ConvexProblem::solve`].
    ///
    /// [`solve`]: ConvexProblem::solve
    pub fn solve_from(&self, x0: &[f64]) -> Result<Solution, SolverError> {
        self.validate()?;
        barrier::solve_seeded(self, Some(x0))
    }

    /// Evaluates the linear objective at `x`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        crate::linalg::dot(&self.objective, x)
    }

    /// Checks feasibility of `x` up to tolerance `tol` (all constraint
    /// violations at most `tol`).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        self.max_violation(x) <= tol
    }

    /// The largest constraint violation at `x` (0 when feasible).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut v: f64 = 0.0;
        for rc in &self.ratio_cons {
            v = v.max(rc.eval(x));
        }
        for lc in &self.lin_ineq {
            v = v.max(lc.eval(x));
        }
        for lc in &self.lin_eq {
            v = v.max(lc.eval(x).abs());
        }
        for ((l, u), xi) in self.lower.iter().zip(&self.upper).zip(x) {
            if let Some(l) = l {
                v = v.max(l - xi);
            }
            if let Some(u) = u {
                v = v.max(xi - u);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_term_eval_and_grad() {
        let t = RatioTerm::new(vec![(0, 4.0)]).plus_linear(1, 2.0).plus_const(-3.0);
        let x = [2.0, 5.0];
        assert!((t.eval(&x) - (2.0 + 10.0 - 3.0)).abs() < 1e-12);
        let g = t.grad(&x, 2);
        assert!((g[0] - (-1.0)).abs() < 1e-12); // -4/4
        assert!((g[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_eval_outside_domain_is_infinite() {
        let t = RatioTerm::new(vec![(0, 1.0)]);
        assert!(t.eval(&[0.0]).is_infinite());
        assert!(t.eval(&[-1.0]).is_infinite());
    }

    #[test]
    fn validate_rejects_bad_index() {
        let mut p = ConvexProblem::new(1);
        p.add_ratio_le(RatioTerm::new(vec![(3, 1.0)]));
        assert!(matches!(p.validate(), Err(SolverError::BadVariable { index: 3, .. })));
    }

    #[test]
    fn validate_rejects_negative_coefficient() {
        let mut p = ConvexProblem::new(1);
        p.set_lower(0, 0.1);
        p.add_ratio_le(RatioTerm::new(vec![(0, -1.0)]));
        assert!(matches!(p.validate(), Err(SolverError::BadCoefficient(_))));
    }

    #[test]
    fn validate_requires_positive_lower_bound() {
        let mut p = ConvexProblem::new(1);
        p.add_ratio_le(RatioTerm::new(vec![(0, 1.0)]));
        assert!(matches!(p.validate(), Err(SolverError::MissingPositiveLowerBound(0))));
    }

    #[test]
    fn max_violation_reports_worst() {
        let mut p = ConvexProblem::new(2);
        p.add_lin_le(&[(0, 1.0)], 1.0);
        p.add_lin_eq(&[(1, 1.0)], 3.0);
        let v = p.max_violation(&[2.0, 0.0]);
        assert!((v - 3.0).abs() < 1e-12);
    }
}
