//! Bandwidth expressions: end-to-end time as a function of the per-dim
//! bandwidth vector `B`.
//!
//! LIBRA models every communication delay as `coeff / B_dim` (traffic over
//! bandwidth) and combines delays with sums (sequential phases) and maxes
//! (bottlenecks / overlap), producing a convex function of `B` that the
//! interior-point solver optimizes directly. [`compile`] lowers an
//! expression into the epigraph form consumed by `libra-solver`.

use libra_solver::convex::{ConvexProblem, RatioTerm};

/// A convex expression over the bandwidth vector `B` (GB/s per dim).
///
/// `Ratio { coeff, dim }` evaluates to `coeff / B[dim]` with `coeff` in
/// gigabytes, yielding seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum BwExpr {
    /// A constant time in seconds (compute delays).
    Const(f64),
    /// `coeff / B[dim]`: `coeff` GB of traffic moving at `B[dim]` GB/s.
    Ratio {
        /// Traffic in gigabytes.
        coeff: f64,
        /// Bandwidth variable (network dimension) index.
        dim: usize,
    },
    /// Sum of sub-expressions (sequential phases).
    Sum(Vec<BwExpr>),
    /// Maximum of sub-expressions (bottleneck / overlapped phases).
    Max(Vec<BwExpr>),
}

impl BwExpr {
    /// A zero-time expression.
    pub fn zero() -> Self {
        BwExpr::Const(0.0)
    }

    /// Builds a sum, flattening nested sums and folding constants.
    pub fn sum(parts: Vec<BwExpr>) -> Self {
        let mut constant = 0.0;
        let mut out: Vec<BwExpr> = Vec::new();
        let mut stack: Vec<BwExpr> = parts;
        stack.reverse();
        while let Some(p) = stack.pop() {
            match p {
                BwExpr::Const(c) => constant += c,
                BwExpr::Sum(inner) => {
                    for e in inner.into_iter().rev() {
                        stack.push(e);
                    }
                }
                other => out.push(other),
            }
        }
        if constant != 0.0 || out.is_empty() {
            out.push(BwExpr::Const(constant));
        }
        if out.len() == 1 {
            out.pop().expect("non-empty")
        } else {
            BwExpr::Sum(out)
        }
    }

    /// Builds a max, flattening nested maxes.
    pub fn max_of(parts: Vec<BwExpr>) -> Self {
        let mut out: Vec<BwExpr> = Vec::new();
        for p in parts {
            match p {
                BwExpr::Max(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => BwExpr::zero(),
            1 => out.pop().expect("non-empty"),
            _ => BwExpr::Max(out),
        }
    }

    /// Multiplies the expression by a non-negative scalar (e.g. number of
    /// training iterations).
    ///
    /// # Panics
    /// Panics if `s` is negative (would destroy convexity).
    pub fn scaled(self, s: f64) -> Self {
        assert!(s >= 0.0, "scale factor must be non-negative");
        match self {
            BwExpr::Const(c) => BwExpr::Const(c * s),
            BwExpr::Ratio { coeff, dim } => BwExpr::Ratio { coeff: coeff * s, dim },
            BwExpr::Sum(parts) => BwExpr::Sum(parts.into_iter().map(|p| p.scaled(s)).collect()),
            BwExpr::Max(parts) => BwExpr::Max(parts.into_iter().map(|p| p.scaled(s)).collect()),
        }
    }

    /// Evaluates the expression at a bandwidth vector (GB/s per dim).
    ///
    /// Returns `+inf` when a referenced bandwidth is non-positive.
    pub fn eval(&self, bw: &[f64]) -> f64 {
        match self {
            BwExpr::Const(c) => *c,
            BwExpr::Ratio { coeff, dim } => {
                if bw[*dim] <= 0.0 {
                    f64::INFINITY
                } else {
                    coeff / bw[*dim]
                }
            }
            BwExpr::Sum(parts) => parts.iter().map(|p| p.eval(bw)).sum(),
            BwExpr::Max(parts) => {
                parts.iter().map(|p| p.eval(bw)).fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }

    /// The largest dimension index referenced, if any.
    pub fn max_dim(&self) -> Option<usize> {
        match self {
            BwExpr::Const(_) => None,
            BwExpr::Ratio { dim, .. } => Some(*dim),
            BwExpr::Sum(parts) | BwExpr::Max(parts) => {
                parts.iter().filter_map(|p| p.max_dim()).max()
            }
        }
    }

    /// The constant (bandwidth-independent) part of the expression: its
    /// value as `B → ∞`. This is the "pure compute" floor of Fig. 10.
    pub fn compute_floor(&self) -> f64 {
        match self {
            BwExpr::Const(c) => *c,
            BwExpr::Ratio { .. } => 0.0,
            BwExpr::Sum(parts) => parts.iter().map(|p| p.compute_floor()).sum(),
            BwExpr::Max(parts) => {
                parts.iter().map(|p| p.compute_floor()).fold(f64::NEG_INFINITY, f64::max)
            }
        }
    }
}

/// A linear-plus-ratio accumulator used during compilation: the lowered form
/// of an expression with all `Max` nodes replaced by epigraph variables.
#[derive(Debug, Clone, Default)]
struct Lowered {
    ratios: Vec<(usize, f64)>,
    epis: Vec<(usize, f64)>,
    constant: f64,
}

impl Lowered {
    fn add(&mut self, other: Lowered, scale: f64) {
        self.constant += scale * other.constant;
        for (d, c) in other.ratios {
            self.ratios.push((d, scale * c));
        }
        for (v, c) in other.epis {
            self.epis.push((v, scale * c));
        }
    }

    /// The lowered body's value at a full guess vector (bandwidths and
    /// already-seeded inner epigraph variables). Seeding each epigraph
    /// guess above *this* — rather than above the expression's true value —
    /// keeps the suggested start strictly feasible even when nested
    /// epigraph slacks stack up, so solves skip phase-I.
    fn value_at(&self, guess: &[f64]) -> f64 {
        let mut v = self.constant;
        for &(d, c) in &self.ratios {
            if guess[d] <= 0.0 {
                return f64::INFINITY;
            }
            v += c / guess[d];
        }
        for &(e, c) in &self.epis {
            v += c * guess[e];
        }
        v
    }
}

/// Compiles weighted expressions into a [`ConvexProblem`]:
/// `minimize Σ_k weight_k · expr_k(B)` over `B` plus epigraph variables.
///
/// Returns the problem and the index of the objective epigraph variable.
/// Variables `0..n_dims` are the bandwidths; callers must still add their
/// own designer constraints and bandwidth bounds before solving.
///
/// `bw_guess` seeds the interior-point start (e.g. the EqualBW point).
pub fn compile(
    targets: &[(f64, BwExpr)],
    n_dims: usize,
    bw_guess: &[f64],
) -> (ConvexProblem, usize) {
    compile_seeded(targets, n_dims, bw_guess, false)
}

/// [`compile`] with control over the epigraph-variable slack in the
/// suggested start. A cold compile leaves a unit of slack above each max
/// term (robust for arbitrary guesses); a `tight` compile — used when
/// `bw_guess` is a warm-start seed presumed near-optimal — leaves only a
/// hair of slack, so the interior-point solver starts almost on top of the
/// seed's objective value and `ConvexProblem::solve_from` can enter the
/// barrier ladder high.
pub fn compile_seeded(
    targets: &[(f64, BwExpr)],
    n_dims: usize,
    bw_guess: &[f64],
    tight: bool,
) -> (ConvexProblem, usize) {
    // First pass: count epigraph variables (one per Max node + one for the
    // total objective).
    struct Ctx {
        problem: ConvexProblem,
        next_var: usize,
        guess: Vec<f64>,
        /// Epigraph slack above a node's value `v`: strictly positive so
        /// the start stays strictly feasible.
        slack: fn(f64) -> f64,
    }

    fn count_max_nodes(e: &BwExpr) -> usize {
        match e {
            BwExpr::Const(_) | BwExpr::Ratio { .. } => 0,
            BwExpr::Sum(parts) => parts.iter().map(count_max_nodes).sum(),
            BwExpr::Max(parts) => 1 + parts.iter().map(count_max_nodes).sum::<usize>(),
        }
    }

    fn loose_slack(v: f64) -> f64 {
        v + 1.0
    }
    fn tight_slack(v: f64) -> f64 {
        v * (1.0 + 1e-4) + 1e-9
    }

    let n_epi: usize = targets.iter().map(|(_, e)| count_max_nodes(e)).sum::<usize>() + 1;
    let n_vars = n_dims + n_epi;
    let mut ctx = Ctx {
        problem: ConvexProblem::new(n_vars),
        next_var: n_dims,
        guess: vec![0.0; n_vars],
        slack: if tight { tight_slack } else { loose_slack },
    };
    ctx.guess[..n_dims].copy_from_slice(bw_guess);

    fn lower(e: &BwExpr, ctx: &mut Ctx) -> Lowered {
        match e {
            BwExpr::Const(c) => Lowered { constant: *c, ..Default::default() },
            BwExpr::Ratio { coeff, dim } => {
                Lowered { ratios: vec![(*dim, *coeff)], ..Default::default() }
            }
            BwExpr::Sum(parts) => {
                let mut acc = Lowered::default();
                for p in parts {
                    let l = lower(p, ctx);
                    acc.add(l, 1.0);
                }
                acc
            }
            BwExpr::Max(parts) => {
                let t = ctx.next_var;
                ctx.next_var += 1;
                let mut worst = f64::NEG_INFINITY;
                for p in parts {
                    let l = lower(p, ctx);
                    // Measure the lowered body at the guess (inner epigraph
                    // guesses are already set — DFS is bottom-up) so the
                    // seed for `t` clears every constraint strictly.
                    worst = worst.max(l.value_at(&ctx.guess));
                    // l − t ≤ 0
                    let mut rt = RatioTerm::new(l.ratios).plus_const(l.constant).minus_var(t);
                    for (v, c) in l.epis {
                        rt = rt.plus_linear(v, c);
                    }
                    ctx.problem.add_ratio_le(rt);
                }
                ctx.guess[t] = if worst.is_finite() { (ctx.slack)(worst.abs()) } else { 1.0 };
                Lowered { epis: vec![(t, 1.0)], ..Default::default() }
            }
        }
    }

    let mut total = Lowered::default();
    for (w, e) in targets {
        let l = lower(e, &mut ctx);
        total.add(l, *w);
    }
    // Bind the whole objective to a final epigraph variable so the solver
    // sees a linear objective even when ratios appear at the top level.
    let t_obj = ctx.next_var;
    ctx.next_var += 1;
    debug_assert_eq!(ctx.next_var, n_vars);
    let weighted = total.value_at(&ctx.guess);
    let mut rt = RatioTerm::new(total.ratios).plus_const(total.constant).minus_var(t_obj);
    for (v, c) in total.epis {
        rt = rt.plus_linear(v, c);
    }
    ctx.problem.add_ratio_le(rt);
    ctx.problem.minimize(&[(t_obj, 1.0)]);

    ctx.guess[t_obj] = if weighted.is_finite() { (ctx.slack)(weighted.abs()) } else { 1.0 };
    let guess = ctx.guess.clone();
    ctx.problem.suggest_start(guess);
    (ctx.problem, t_obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(coeff: f64, dim: usize) -> BwExpr {
        BwExpr::Ratio { coeff, dim }
    }

    #[test]
    fn eval_matches_manual() {
        // 1 + max(10/B0, 4/B1) + 2/B0
        let e = BwExpr::sum(vec![
            BwExpr::Const(1.0),
            BwExpr::max_of(vec![ratio(10.0, 0), ratio(4.0, 1)]),
            ratio(2.0, 0),
        ]);
        let v = e.eval(&[2.0, 1.0]);
        assert!((v - (1.0 + 5.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn sum_folds_constants_and_flattens() {
        let e = BwExpr::sum(vec![
            BwExpr::Const(1.0),
            BwExpr::sum(vec![BwExpr::Const(2.0), ratio(1.0, 0)]),
        ]);
        match &e {
            BwExpr::Sum(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(parts
                    .iter()
                    .any(|p| matches!(p, BwExpr::Const(c) if (*c - 3.0).abs() < 1e-12)));
            }
            other => panic!("expected Sum, got {other:?}"),
        }
    }

    #[test]
    fn max_of_flattens_and_degenerates() {
        assert_eq!(BwExpr::max_of(vec![]), BwExpr::Const(0.0));
        assert_eq!(BwExpr::max_of(vec![ratio(1.0, 0)]), ratio(1.0, 0));
        let e =
            BwExpr::max_of(vec![BwExpr::max_of(vec![ratio(1.0, 0), ratio(2.0, 1)]), ratio(3.0, 0)]);
        match e {
            BwExpr::Max(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected Max, got {other:?}"),
        }
    }

    #[test]
    fn scaled_distributes() {
        let e = BwExpr::sum(vec![BwExpr::Const(1.0), ratio(10.0, 0)]).scaled(3.0);
        assert!((e.eval(&[5.0]) - (3.0 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn compute_floor_drops_ratios() {
        let e = BwExpr::sum(vec![
            BwExpr::Const(2.0),
            BwExpr::max_of(vec![ratio(10.0, 0), BwExpr::Const(0.5)]),
        ]);
        assert!((e.compute_floor() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn eval_with_zero_bandwidth_is_infinite() {
        assert!(ratio(1.0, 0).eval(&[0.0]).is_infinite());
    }

    #[test]
    fn compile_and_solve_bottleneck() {
        // minimize max(8/B0, 2/B1) st B0+B1 ≤ 10 → B=(8,2), t=1.
        let e = BwExpr::max_of(vec![ratio(8.0, 0), ratio(2.0, 1)]);
        let (mut p, _) = compile(&[(1.0, e)], 2, &[5.0, 5.0]);
        p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3);
        let s = p.solve().unwrap();
        assert!((s.objective - 1.0).abs() < 1e-3, "objective {}", s.objective);
        assert!((s.x[0] - 8.0).abs() < 5e-2);
    }

    #[test]
    fn compile_handles_nested_overlap_structure() {
        // Σ_layers [c + max(tp/B0, d + dp/B1)] with 2 identical layers.
        let layer = BwExpr::sum(vec![
            BwExpr::Const(0.5),
            BwExpr::max_of(vec![
                ratio(6.0, 0),
                BwExpr::sum(vec![BwExpr::Const(0.25), ratio(3.0, 1)]),
            ]),
        ]);
        let e = BwExpr::sum(vec![layer.clone(), layer]);
        let (mut p, _) = compile(&[(1.0, e.clone())], 2, &[5.0, 5.0]);
        p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3);
        let s = p.solve().unwrap();
        // Cross-check: solver optimum equals direct evaluation at solver B,
        // and beats a dense grid scan.
        let direct = e.eval(&s.x[..2]);
        assert!((s.objective - direct).abs() < 1e-4 * (1.0 + direct));
        let mut best = f64::INFINITY;
        for i in 1..100 {
            let b0 = 0.1 * i as f64;
            let b1 = 10.0 - b0;
            if b1 <= 0.0 {
                continue;
            }
            best = best.min(e.eval(&[b0, b1]));
        }
        assert!(s.objective <= best + 1e-3, "solver {} grid {best}", s.objective);
    }
}
