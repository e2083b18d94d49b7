//! Log-barrier interior-point solver with equality elimination and phase-I.
//!
//! Pipeline (Boyd & Vandenberghe, ch. 10–11):
//! 1. **Equality elimination** — `A x = b` is removed by Gaussian
//!    elimination, substituting `x = x_p + N z` so ratio terms become
//!    `c / (βᵀz + α)` (still convex on the positive side of the denominator).
//! 2. **Phase-I** — minimize a slack `s` with all constraints relaxed to
//!    `g_i(z) ≤ s`; stops as soon as a strictly feasible point is found.
//! 3. **Barrier loop** — minimize `t·f₀(z) − Σ log(−g_i(z))` by damped
//!    Newton, increasing `t` geometrically until the duality gap `m/t` is
//!    below tolerance. A centering stage (one `t`) ends at a negligible
//!    Newton decrement, when the line search finds no descent, when it
//!    accepts a step that rounds away (the new iterate has the old one's
//!    bits, so every later iteration would repeat this one), or at
//!    `MAX_NEWTON_PER_STAGE` iterations.

use crate::convex::{ConvexProblem, Solution};
use crate::error::SolverError;
use crate::linalg::{dot, norm2, Matrix};

/// Optional per-iterate early-exit predicate threaded through the solver.
type EarlyStop<'a> = Option<&'a dyn Fn(&[f64]) -> bool>;

/// Hard iteration caps; generous for the tiny problems LIBRA produces.
const MAX_NEWTON_PER_STAGE: usize = 200;
const MAX_BARRIER_STAGES: usize = 64;
const T_MU: f64 = 20.0;
const GAP_TOL: f64 = 1e-10;
const UNBOUNDED_NORM: f64 = 1e14;

/// Presumed relative suboptimality of a warm-start seed: a warm solve
/// enters the barrier ladder at `t ≈ m / (WARM_GAP · scale)` instead of
/// `t ≈ 1`, skipping the centering stages a cold solve spends crossing the
/// gap the seed has already closed. Sweep seeds are rescaled neighboring
/// optima — for LIBRA's ratio objectives the rescaling is nearly exact, so
/// the trust is deep; a seed that is actually worse only costs extra
/// damped-Newton steps in the first stage, never correctness (the stopping
/// criterion is unchanged, and divergence falls back to more stages).
const WARM_GAP: f64 = 1e-3;

/// An affine expression `βᵀz + α` over reduced variables.
#[derive(Debug, Clone, Default)]
struct Affine {
    terms: Vec<(usize, f64)>,
    constant: f64,
}

impl Affine {
    fn constant(c: f64) -> Self {
        Affine { terms: Vec::new(), constant: c }
    }

    fn var(i: usize) -> Self {
        Affine { terms: vec![(i, 1.0)], constant: 0.0 }
    }

    fn eval(&self, z: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|&(i, a)| a * z[i]).sum::<f64>()
    }

    fn add_scaled(&mut self, other: &Affine, scale: f64) {
        self.constant += scale * other.constant;
        for &(i, a) in &other.terms {
            self.terms.push((i, scale * a));
        }
    }

    fn compact(&mut self) {
        self.terms.sort_unstable_by_key(|&(i, _)| i);
        let mut out: Vec<(usize, f64)> = Vec::with_capacity(self.terms.len());
        for &(i, a) in &self.terms {
            match out.last_mut() {
                Some((j, acc)) if *j == i => *acc += a,
                _ => out.push((i, a)),
            }
        }
        out.retain(|&(_, a)| a != 0.0);
        self.terms = out;
    }
}

/// A generalized convex constraint `Σ c_r / den_r(z) + linear(z) ≤ 0` where
/// every denominator is affine.
#[derive(Debug, Clone, Default)]
struct GenCon {
    ratios: Vec<(f64, Affine)>,
    affine: Affine,
}

impl GenCon {
    /// Evaluates the constraint, writing each ratio's denominator into the
    /// matching slot of `dens`; `+inf` when any denominator is non-positive
    /// (outside the convex domain), with the later slots left stale.
    fn eval(&self, z: &[f64], dens: &mut [f64]) -> f64 {
        let mut v = self.affine.eval(z);
        for ((c, den), slot) in self.ratios.iter().zip(&mut dens[..self.ratios.len()]) {
            let d = den.eval(z);
            if d <= 0.0 {
                return f64::INFINITY;
            }
            *slot = d;
            v += c / d;
        }
        v
    }

    /// Adds `∇g(z)` into `grad`, given the ratio denominators `dens` at `z`.
    fn add_grad(&self, dens: &[f64], grad: &mut [f64]) {
        for &(i, a) in &self.affine.terms {
            grad[i] += a;
        }
        for ((c, den), d) in self.ratios.iter().zip(dens) {
            let k = -c / (d * d);
            for &(i, b) in &den.terms {
                grad[i] += k * b;
            }
        }
    }

    /// Adds `scale · ∇²g(z)` into `h`, given the ratio denominators `dens`
    /// at `z` (each ratio contributes `2c/d³ · ββᵀ`).
    fn add_hess(&self, dens: &[f64], scale: f64, h: &mut Matrix) {
        for ((c, den), d) in self.ratios.iter().zip(dens) {
            let k = scale * 2.0 * c / (d * d * d);
            if k == 0.0 {
                continue;
            }
            for &(i, bi) in &den.terms {
                let ki = k * bi;
                for &(j, bj) in &den.terms {
                    h[(i, j)] += ki * bj;
                }
            }
        }
    }
}

/// The problem after equality elimination: minimize `cᵀz` subject to
/// `g_i(z) ≤ 0` (the objective's constant offset is dropped — it does not
/// move the optimum, and the reported objective is recomputed in the
/// original variables).
#[derive(Debug, Clone)]
struct Nlp {
    n: usize,
    objective: Vec<f64>,
    cons: Vec<GenCon>,
}

impl Nlp {
    /// Slots needed to hold every ratio denominator, constraint by
    /// constraint.
    fn n_ratios(&self) -> usize {
        self.cons.iter().map(|gc| gc.ratios.len()).sum()
    }
}

/// Substitution map `x = x_p + N z` produced by equality elimination.
#[derive(Debug, Clone)]
struct Substitution {
    /// Per original variable, its affine expression in `z`.
    exprs: Vec<Affine>,
    /// Number of reduced variables.
    n_reduced: usize,
}

impl Substitution {
    fn identity(n: usize) -> Self {
        Substitution { exprs: (0..n).map(Affine::var).collect(), n_reduced: n }
    }

    fn map_linear(&self, terms: &[(usize, f64)], constant: f64) -> Affine {
        let mut a = Affine::constant(constant);
        for &(i, c) in terms {
            a.add_scaled(&self.exprs[i], c);
        }
        a.compact();
        a
    }

    fn recover(&self, z: &[f64]) -> Vec<f64> {
        self.exprs.iter().map(|e| e.eval(z)).collect()
    }
}

/// Eliminates `A x = b` by Gauss–Jordan, returning the substitution map.
///
/// # Errors
/// Returns [`SolverError::Infeasible`] if the equalities are inconsistent.
fn eliminate_equalities(
    n: usize,
    eqs: &[(Vec<(usize, f64)>, f64)],
) -> Result<Substitution, SolverError> {
    if eqs.is_empty() {
        return Ok(Substitution::identity(n));
    }
    let m = eqs.len();
    // Dense augmented matrix [A | b].
    let mut a = vec![vec![0.0f64; n + 1]; m];
    for (r, (terms, rhs)) in eqs.iter().enumerate() {
        for &(i, c) in terms {
            a[r][i] += c;
        }
        a[r][n] = *rhs;
    }
    let mut pivot_of_row: Vec<Option<usize>> = vec![None; m];
    let mut is_pivot_col = vec![false; n];
    let mut rank = 0usize;
    for col in 0..n {
        // Find the best pivot row at or below `rank`.
        let mut best = rank;
        let mut best_val = 0.0f64;
        for (r, row) in a.iter().enumerate().take(m).skip(rank) {
            if row[col].abs() > best_val {
                best_val = row[col].abs();
                best = r;
            }
        }
        if best_val < 1e-10 {
            continue;
        }
        a.swap(rank, best);
        let piv = a[rank][col];
        for v in a[rank].iter_mut() {
            *v /= piv;
        }
        let (before, rest) = a.split_at_mut(rank);
        let (pivot_row, after) = rest.split_first_mut().expect("rank < m");
        for row in before.iter_mut().chain(after.iter_mut().take(m - rank - 1)) {
            let f = row[col];
            if f.abs() > 0.0 {
                for (v, p) in row.iter_mut().zip(pivot_row.iter()) {
                    *v -= p * f;
                }
            }
        }
        pivot_of_row[rank] = Some(col);
        is_pivot_col[col] = true;
        rank += 1;
        if rank == m {
            break;
        }
    }
    // Inconsistency check on zero rows.
    for row in a.iter().take(m).skip(rank) {
        if row[n].abs() > 1e-8 {
            return Err(SolverError::Infeasible);
        }
    }
    // Free columns become the reduced variables.
    let free_cols: Vec<usize> = (0..n).filter(|&c| !is_pivot_col[c]).collect();
    let z_index: std::collections::HashMap<usize, usize> =
        free_cols.iter().enumerate().map(|(zi, &c)| (c, zi)).collect();
    let mut exprs: Vec<Affine> = (0..n)
        .map(|c| z_index.get(&c).map_or_else(Affine::default, |&zi| Affine::var(zi)))
        .collect();
    for r in 0..rank {
        let pc = pivot_of_row[r].expect("pivot recorded for every reduced row");
        let mut e = Affine::constant(a[r][n]);
        for &fc in &free_cols {
            if a[r][fc] != 0.0 {
                e.terms.push((z_index[&fc], -a[r][fc]));
            }
        }
        exprs[pc] = e;
    }
    Ok(Substitution { exprs, n_reduced: free_cols.len() })
}

/// Lowers a [`ConvexProblem`] into the reduced NLP plus substitution map.
fn lower(p: &ConvexProblem) -> Result<(Nlp, Substitution), SolverError> {
    let n = p.n_vars();
    let (ratio_cons, lin_ineq, lin_eq, lower_b, upper_b) = p.parts();
    let eqs: Vec<(Vec<(usize, f64)>, f64)> =
        lin_eq.iter().map(|lc| (lc.terms.clone(), lc.rhs)).collect();
    let sub = eliminate_equalities(n, &eqs)?;

    let mut cons: Vec<GenCon> = Vec::new();
    for rc in ratio_cons {
        let mut gc =
            GenCon { ratios: Vec::new(), affine: sub.map_linear(rc.linear(), rc.constant()) };
        for &(i, c) in rc.ratios() {
            if c == 0.0 {
                continue;
            }
            gc.ratios.push((c, sub.exprs[i].clone()));
        }
        cons.push(gc);
    }
    for lc in lin_ineq {
        cons.push(GenCon { ratios: Vec::new(), affine: sub.map_linear(&lc.terms, -lc.rhs) });
    }
    for i in 0..n {
        if let Some(l) = lower_b[i] {
            // l − x_i ≤ 0
            let mut a = Affine::constant(l);
            a.add_scaled(&sub.exprs[i], -1.0);
            a.compact();
            cons.push(GenCon { ratios: Vec::new(), affine: a });
        }
        if let Some(u) = upper_b[i] {
            // x_i − u ≤ 0
            let mut a = Affine::constant(-u);
            a.add_scaled(&sub.exprs[i], 1.0);
            a.compact();
            cons.push(GenCon { ratios: Vec::new(), affine: a });
        }
    }
    // Drop constraints that vanished entirely under substitution (e.g. a
    // bound on a variable that elimination pinned to a constant). A
    // *violated* constant constraint means infeasibility.
    let mut kept = Vec::with_capacity(cons.len());
    for gc in cons {
        if gc.ratios.is_empty() && gc.affine.terms.is_empty() {
            if gc.affine.constant > 1e-9 {
                return Err(SolverError::Infeasible);
            }
            continue;
        }
        kept.push(gc);
    }

    // Objective in z.
    let obj_sparse: Vec<(usize, f64)> = p
        .objective()
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0.0)
        .map(|(i, &c)| (i, c))
        .collect();
    let obj_aff = sub.map_linear(&obj_sparse, 0.0);
    let mut objective = vec![0.0; sub.n_reduced];
    for &(i, c) in &obj_aff.terms {
        objective[i] += c;
    }
    Ok((Nlp { n: sub.n_reduced, objective, cons: kept }, sub))
}

/// Barrier potential `t·f₀(z) − Σ log(−gᵢ(z))`; `+inf` when infeasible.
/// Records each `gᵢ(z)` in `g` and every ratio denominator in `dens` (in
/// constraint order), so the Newton step at `z` needs no re-evaluation;
/// an infeasible `z` leaves the records partial.
fn potential(nlp: &Nlp, t: f64, z: &[f64], g: &mut [f64], dens: &mut [f64]) -> f64 {
    let mut v = t * dot(&nlp.objective, z);
    let mut r = 0;
    for (gc, gi) in nlp.cons.iter().zip(g) {
        *gi = gc.eval(z, &mut dens[r..]);
        r += gc.ratios.len();
        if *gi >= 0.0 || !gi.is_finite() {
            return f64::INFINITY;
        }
        v -= (-*gi).ln();
    }
    v
}

/// The buffers of one barrier loop. Every Newton iteration of every
/// centering stage reuses them, so the loop allocates nothing after setup.
struct Workspace {
    /// Gradient of the barrier potential.
    grad: Vec<f64>,
    /// Gradient of one constraint.
    con_grad: Vec<f64>,
    /// Hessian of the barrier potential.
    hess: Matrix,
    /// Cholesky factor of `hess`.
    chol: Matrix,
    /// Newton step.
    step: Vec<f64>,
    /// Line-search trial point; swapped with the iterate on acceptance.
    trial: Vec<f64>,
    /// Each `gᵢ` at the iterate.
    g: Vec<f64>,
    /// Every ratio denominator at the iterate (see [`potential`]).
    dens: Vec<f64>,
    /// `g` and `dens` at the trial point; swapped in on acceptance.
    trial_g: Vec<f64>,
    trial_dens: Vec<f64>,
}

impl Workspace {
    fn new(nlp: &Nlp) -> Self {
        let (n, m, r) = (nlp.n, nlp.cons.len(), nlp.n_ratios());
        Workspace {
            grad: vec![0.0; n],
            con_grad: vec![0.0; n],
            hess: Matrix::zeros(n, n),
            chol: Matrix::zeros(n, n),
            step: vec![0.0; n],
            trial: vec![0.0; n],
            g: vec![0.0; m],
            dens: vec![0.0; r],
            trial_g: vec![0.0; m],
            trial_dens: vec![0.0; r],
        }
    }
}

/// One centering stage: damped Newton on the barrier potential.
///
/// Each iterate is evaluated once: the potential and constraint records of
/// an accepted trial point serve the next iteration's Newton step, its
/// decrement test and its line search.
///
/// The stage ends at a negligible decrement, when no step descends, after
/// an accepted step whose trial point has every bit of the iterate, or at
/// `MAX_NEWTON_PER_STAGE`. After such a step the next iteration would
/// start from the same bits of `z`, the potential, `g` and `dens`, and so
/// repeat this one up to the cap without moving `z`.
///
/// Returns the number of Newton iterations run.
fn center(
    nlp: &Nlp,
    t: f64,
    z: &mut Vec<f64>,
    ws: &mut Workspace,
    early_stop: EarlyStop<'_>,
) -> Result<usize, SolverError> {
    let n = nlp.n;
    let mut f0 = potential(nlp, t, z, &mut ws.g, &mut ws.dens);
    debug_assert!(f0.is_finite(), "iterate left the strictly feasible region");
    for iter in 0..MAX_NEWTON_PER_STAGE {
        if let Some(stop) = early_stop {
            if stop(z) {
                return Ok(iter);
            }
        }
        // Assemble gradient and Hessian of the barrier potential.
        for (gi, c) in ws.grad.iter_mut().zip(&nlp.objective) {
            *gi = t * c;
        }
        ws.hess.set_zero();
        let mut r = 0;
        for (gc, g) in nlp.cons.iter().zip(&ws.g) {
            let dens = &ws.dens[r..r + gc.ratios.len()];
            r += gc.ratios.len();
            let inv = -1.0 / g; // positive
            ws.con_grad.fill(0.0);
            gc.add_grad(dens, &mut ws.con_grad);
            for (gi, ci) in ws.grad.iter_mut().zip(&ws.con_grad) {
                *gi += inv * ci;
            }
            ws.hess.rank1_update(inv * inv, &ws.con_grad);
            gc.add_hess(dens, inv, &mut ws.hess);
        }
        let max_diag = (0..n).map(|i| ws.hess[(i, i)].abs()).fold(0.0f64, f64::max);
        ws.hess.add_diagonal(1e-12 * (1.0 + max_diag));
        for (s, g) in ws.step.iter_mut().zip(&ws.grad) {
            *s = -g;
        }
        match ws.hess.cholesky(&mut ws.chol) {
            Ok(()) => ws.chol.cholesky_solve(&mut ws.step),
            Err(_) => {
                let dz = ws.hess.solve(&ws.step)?;
                ws.step.copy_from_slice(&dz);
            }
        }
        let decrement = -dot(&ws.grad, &ws.step); // λ² = ∇fᵀ H⁻¹ ∇f
        if decrement <= 0.0 || decrement / 2.0 < 1e-12 * (1.0 + f0.abs().min(1e12)) {
            return Ok(iter);
        }
        // Backtracking line search: first into the domain, then Armijo.
        let mut alpha = 1.0f64;
        let mut ok = false;
        let mut moved = false;
        for _ in 0..80 {
            for ((ti, zi), di) in ws.trial.iter_mut().zip(z.iter()).zip(&ws.step) {
                *ti = zi + alpha * di;
            }
            let f1 = potential(nlp, t, &ws.trial, &mut ws.trial_g, &mut ws.trial_dens);
            if f1.is_finite() && f1 <= f0 - 0.25 * alpha * decrement {
                // Bits, not `==`: −0 and +0 are equal but not the same input.
                moved = ws.trial.iter().zip(z.iter()).any(|(a, b)| a.to_bits() != b.to_bits());
                std::mem::swap(z, &mut ws.trial);
                std::mem::swap(&mut ws.g, &mut ws.trial_g);
                std::mem::swap(&mut ws.dens, &mut ws.trial_dens);
                f0 = f1;
                ok = true;
                break;
            }
            alpha *= 0.5;
        }
        if !ok {
            // No descent possible: already at numerical optimum.
            return Ok(iter);
        }
        if norm2(z) > UNBOUNDED_NORM {
            return Err(SolverError::Unbounded);
        }
        if !moved {
            // Rounded away: every later iteration would repeat this one.
            return Ok(iter + 1);
        }
    }
    Ok(MAX_NEWTON_PER_STAGE)
}

/// Full barrier loop from a strictly feasible starting point. `warm` marks
/// the start as a near-optimal seed (see [`WARM_GAP`]): the ladder begins
/// several rungs up, with the same duality-gap stopping criterion, so the
/// answer matches a cold solve to within solver tolerance while spending
/// far fewer Newton iterations.
fn barrier_loop(
    nlp: &Nlp,
    mut z: Vec<f64>,
    early_stop: EarlyStop<'_>,
    warm: bool,
) -> Result<(Vec<f64>, usize), SolverError> {
    let m = nlp.cons.len().max(1) as f64;
    let mut t = 1.0f64;
    // Scale the initial t so the first stage is not wildly off-center.
    let obj0 = dot(&nlp.objective, &z).abs();
    if obj0 > 1.0 {
        t = (m / obj0).clamp(1e-6, 1.0);
    }
    if warm {
        // Trust the seed — but boundedly: skip two rungs of the ladder,
        // never past the rung whose duality gap matches [`WARM_GAP`].
        // Seeds that transfer imperfectly (e.g. compute-floor expressions,
        // whose optima do not scale with the budget) still converge to the
        // cold optimum because the remaining ladder is walked normally; a
        // deeper jump was measured to stall Newton on exactly those seeds.
        t = (t * T_MU * T_MU).min((m / (WARM_GAP * (1.0 + obj0))).max(t));
    }
    let mut total_iters = 0usize;
    let mut ws = Workspace::new(nlp);
    for _ in 0..MAX_BARRIER_STAGES {
        total_iters += center(nlp, t, &mut z, &mut ws, early_stop)?;
        if let Some(stop) = early_stop {
            if stop(&z) {
                return Ok((z, total_iters));
            }
        }
        let gap = m / t;
        let scale = 1.0 + dot(&nlp.objective, &z).abs();
        if gap <= GAP_TOL * scale {
            return Ok((z, total_iters));
        }
        t *= T_MU;
    }
    Ok((z, total_iters))
}

/// Builds a heuristic starting point in the *original* variable space.
fn initial_guess(p: &ConvexProblem) -> Vec<f64> {
    let n = p.n_vars();
    if let Some(g) = p.guess() {
        if g.len() == n {
            return g.to_vec();
        }
    }
    let (_, _, _, lower, upper) = p.parts();
    (0..n)
        .map(|i| match (lower[i], upper[i]) {
            (Some(l), Some(u)) => 0.5 * (l + u),
            (Some(l), None) => l + l.abs().max(1.0),
            (None, Some(u)) => u - u.abs().max(1.0),
            (None, None) => 0.0,
        })
        .collect()
}

/// Finds a point inside the domain of every ratio denominator (all
/// `den_r(z) > 0`) by subgradient ascent on `min_r den_r(z)`.
fn enter_domain(nlp: &Nlp, z: &mut [f64]) -> Result<(), SolverError> {
    let dens: Vec<&Affine> =
        nlp.cons.iter().flat_map(|gc| gc.ratios.iter().map(|(_, d)| d)).collect();
    if dens.is_empty() {
        return Ok(());
    }
    for _ in 0..500 {
        let (mut min_v, mut min_i) = (f64::INFINITY, 0usize);
        for (i, d) in dens.iter().enumerate() {
            let v = d.eval(z);
            if v < min_v {
                min_v = v;
                min_i = i;
            }
        }
        if min_v > 1e-9 {
            return Ok(());
        }
        // Step along the gradient of the most-violated denominator.
        let d = dens[min_i];
        let gnorm: f64 = d.terms.iter().map(|&(_, b)| b * b).sum::<f64>().sqrt();
        if gnorm < 1e-300 {
            return Err(SolverError::Infeasible);
        }
        let step = (1e-6 - min_v) / gnorm / gnorm + 1e-3;
        for &(i, b) in &d.terms {
            z[i] += step * b;
        }
    }
    Err(SolverError::Infeasible)
}

/// Phase-I: minimize slack `s` over `(z, s)` with `g_i(z) ≤ s`.
fn phase_one(nlp: &Nlp, z0: &[f64]) -> Result<Vec<f64>, SolverError> {
    let n = nlp.n;
    let s_idx = n;
    let mut cons = Vec::with_capacity(nlp.cons.len());
    for gc in &nlp.cons {
        let mut relaxed = gc.clone();
        relaxed.affine.terms.push((s_idx, -1.0));
        cons.push(relaxed);
    }
    let mut objective = vec![0.0; n + 1];
    objective[s_idx] = 1.0;
    let aux = Nlp { n: n + 1, objective, cons };
    // Strictly feasible start for phase-I: s above the worst violation.
    let mut dens = vec![0.0; nlp.n_ratios()];
    let worst = nlp.cons.iter().map(|gc| gc.eval(z0, &mut dens)).fold(f64::NEG_INFINITY, f64::max);
    if !worst.is_finite() {
        return Err(SolverError::NumericalFailure("phase-I start outside ratio domain"));
    }
    let mut zs = z0.to_vec();
    zs.push(worst.max(0.0) + 1.0);
    let stop = |x: &[f64]| x[s_idx] < -1e-9;
    let (zs, _) = barrier_loop(&aux, zs, Some(&stop), false)?;
    if zs[s_idx] >= 0.0 {
        return Err(SolverError::Infeasible);
    }
    Ok(zs[..n].to_vec())
}

/// Entry point used by [`ConvexProblem::solve`].
pub(crate) fn solve(p: &ConvexProblem) -> Result<Solution, SolverError> {
    solve_seeded(p, None)
}

/// Entry point used by [`ConvexProblem::solve_from`]: when `seed` is given
/// it overrides the problem's suggested start **and** is trusted as
/// near-optimal, entering the barrier ladder several rungs up (warm
/// start). An infeasible seed is repaired by phase-I exactly like a cold
/// start, so warm solves are never less robust — only cheaper when the
/// seed is good.
pub(crate) fn solve_seeded(
    p: &ConvexProblem,
    seed: Option<&[f64]>,
) -> Result<Solution, SolverError> {
    let (nlp, sub) = lower(p)?;
    if nlp.n == 0 {
        // Everything was pinned by equalities; just validate feasibility.
        let x = sub.recover(&[]);
        if p.max_violation(&x) > 1e-6 {
            return Err(SolverError::Infeasible);
        }
        return Ok(Solution { x: x.clone(), objective: p.objective_at(&x), newton_iters: 0 });
    }
    // Map the heuristic start into reduced space via least squares
    // z0 = argmin ‖x_p + N z − x0‖.
    let warm = matches!(seed, Some(s) if s.len() == p.n_vars());
    let x0 = match seed {
        Some(s) if s.len() == p.n_vars() => s.to_vec(),
        _ => initial_guess(p),
    };
    let mut z0 = reduce_start(&sub, &x0, nlp.n)?;
    enter_domain(&nlp, &mut z0)?;
    let mut dens = vec![0.0; nlp.n_ratios()];
    let strictly_feasible = nlp.cons.iter().all(|gc| gc.eval(&z0, &mut dens) < -1e-9);
    let z_start = if strictly_feasible { z0 } else { phase_one(&nlp, &z0)? };
    let (z, iters) = barrier_loop(&nlp, z_start, None, warm && strictly_feasible)?;
    let x = sub.recover(&z);
    Ok(Solution { x: x.clone(), objective: p.objective_at(&x), newton_iters: iters })
}

/// Least-squares mapping of a full-space guess into reduced coordinates.
fn reduce_start(sub: &Substitution, x0: &[f64], nz: usize) -> Result<Vec<f64>, SolverError> {
    if sub.exprs.len() == nz
        && sub.exprs.iter().enumerate().all(|(i, e)| e.constant == 0.0 && e.terms == [(i, 1.0)])
    {
        return Ok(x0.to_vec());
    }
    // Normal equations NᵀN z = Nᵀ (x0 − x_p).
    let mut ntn = Matrix::zeros(nz, nz);
    let mut rhs = vec![0.0; nz];
    let mut row = vec![0.0; nz];
    for (i, e) in sub.exprs.iter().enumerate() {
        row.iter_mut().for_each(|v| *v = 0.0);
        for &(j, b) in &e.terms {
            row[j] = b;
        }
        ntn.rank1_update(1.0, &row);
        let resid = x0[i] - e.constant;
        for (r, b) in rhs.iter_mut().zip(&row) {
            *r += b * resid;
        }
    }
    ntn.add_diagonal(1e-12);
    ntn.solve(&rhs)
}

#[cfg(test)]
mod tests {
    use crate::convex::{ConvexProblem, RatioTerm};
    use crate::error::SolverError;

    /// min 4/x0 + 1/x1 s.t. x0+x1 ≤ 10: optimum x ∝ √c → (20/3, 10/3).
    #[test]
    fn sqrt_rule_allocation() {
        let mut p = ConvexProblem::new(3);
        p.minimize(&[(2, 1.0)]);
        p.add_ratio_le(RatioTerm::new(vec![(0, 4.0), (1, 1.0)]).minus_var(2));
        p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3);
        let s = p.solve().unwrap();
        assert!((s.x[0] - 20.0 / 3.0).abs() < 1e-3, "x0={}", s.x[0]);
        assert!((s.x[1] - 10.0 / 3.0).abs() < 1e-3, "x1={}", s.x[1]);
        assert!((s.objective - 0.9).abs() < 1e-4);
    }

    /// Bottleneck (max) objective: min max(8/x0, 2/x1), x0+x1 ≤ 10.
    /// Optimum equalizes: 8/x0 = 2/x1, x0 = 8, x1 = 2, value 1.
    #[test]
    fn bottleneck_equalization() {
        let mut p = ConvexProblem::new(3);
        p.minimize(&[(2, 1.0)]);
        p.add_ratio_le(RatioTerm::new(vec![(0, 8.0)]).minus_var(2));
        p.add_ratio_le(RatioTerm::new(vec![(1, 2.0)]).minus_var(2));
        p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3);
        let s = p.solve().unwrap();
        assert!((s.x[0] - 8.0).abs() < 1e-2, "x0={}", s.x[0]);
        assert!((s.x[1] - 2.0).abs() < 1e-2, "x1={}", s.x[1]);
        assert!((s.objective - 1.0).abs() < 1e-3);
    }

    /// Equality constraints are eliminated: min 1/x0 + 1/x1 with x0 = 2·x1
    /// and x0 + x1 = 9 has the unique feasible point (6, 3).
    #[test]
    fn equality_elimination_pins_point() {
        let mut p = ConvexProblem::new(3);
        p.minimize(&[(2, 1.0)]);
        p.add_ratio_le(RatioTerm::new(vec![(0, 1.0), (1, 1.0)]).minus_var(2));
        p.add_lin_eq(&[(0, 1.0), (1, -2.0)], 0.0);
        p.add_lin_eq(&[(0, 1.0), (1, 1.0)], 9.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3);
        let s = p.solve().unwrap();
        assert!((s.x[0] - 6.0).abs() < 1e-5);
        assert!((s.x[1] - 3.0).abs() < 1e-5);
    }

    /// Inconsistent equalities are reported as infeasible.
    #[test]
    fn inconsistent_equalities() {
        let mut p = ConvexProblem::new(2);
        p.add_lin_eq(&[(0, 1.0), (1, 1.0)], 1.0);
        p.add_lin_eq(&[(0, 1.0), (1, 1.0)], 2.0);
        assert_eq!(p.solve().unwrap_err(), SolverError::Infeasible);
    }

    /// Contradictory inequalities are reported as infeasible via phase-I.
    #[test]
    fn contradictory_inequalities() {
        let mut p = ConvexProblem::new(1);
        p.add_lin_le(&[(0, 1.0)], 1.0);
        p.add_lin_le(&[(0, -1.0)], -2.0); // x ≥ 2 and x ≤ 1
        assert_eq!(p.solve().unwrap_err(), SolverError::Infeasible);
    }

    /// Phase-I repairs an infeasible starting guess (ordering constraints).
    #[test]
    fn ordering_constraints() {
        // min max(1/x0, 1/x1, 4/x2) st x0+x1+x2 ≤ 12, x0 ≥ x1 ≥ x2.
        let mut p = ConvexProblem::new(4);
        p.minimize(&[(3, 1.0)]);
        for (i, c) in [(0usize, 1.0f64), (1, 1.0), (2, 4.0)] {
            p.add_ratio_le(RatioTerm::new(vec![(i, c)]).minus_var(3));
        }
        p.add_lin_le(&[(0, 1.0), (1, 1.0), (2, 1.0)], 12.0);
        p.add_lin_le(&[(0, -1.0), (1, 1.0)], 0.0); // x1 ≤ x0
        p.add_lin_le(&[(1, -1.0), (2, 1.0)], 0.0); // x2 ≤ x1
        for i in 0..3 {
            p.set_lower(i, 1e-3);
        }
        // Deliberately violate the ordering in the suggested start.
        p.suggest_start(vec![1.0, 2.0, 9.0, 5.0]);
        let s = p.solve().unwrap();
        // Unconstrained-by-order optimum is (3, 3, 6) which violates
        // x2 ≤ x1; with ordering the best is x1 = x2 = t, 4/t = obj →
        // x = (4, 4, 4), obj = 1.
        assert!((s.x[0] - 4.0).abs() < 2e-2, "x={:?}", s.x);
        assert!((s.x[1] - 4.0).abs() < 2e-2);
        assert!((s.x[2] - 4.0).abs() < 2e-2);
    }

    /// A pure LP is handled too: min -x0 - 2 x1 on the unit box.
    #[test]
    fn linear_program_box() {
        let mut p = ConvexProblem::new(2);
        p.minimize(&[(0, -1.0), (1, -2.0)]);
        for i in 0..2 {
            p.set_lower(i, 0.0).set_upper(i, 1.0);
        }
        let s = p.solve().unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-5);
        assert!((s.x[1] - 1.0).abs() < 1e-5);
    }

    /// Unbounded detection: min -x with x ≥ 0 only.
    #[test]
    fn unbounded_problem() {
        let mut p = ConvexProblem::new(1);
        p.minimize(&[(0, -1.0)]);
        p.set_lower(0, 0.0);
        assert_eq!(p.solve().unwrap_err(), SolverError::Unbounded);
    }

    /// Warm-starting from (a perturbation of) the cold optimum reproduces
    /// the optimum within solver tolerance while spending fewer Newton
    /// iterations — the sweep-engine seeding contract.
    #[test]
    fn warm_start_converges_with_fewer_iterations() {
        let mut p = ConvexProblem::new(3);
        p.minimize(&[(2, 1.0)]);
        p.add_ratio_le(RatioTerm::new(vec![(0, 8.0)]).minus_var(2));
        p.add_ratio_le(RatioTerm::new(vec![(1, 2.0)]).minus_var(2));
        p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3);
        let cold = p.solve().unwrap();
        // Seed ~0.1% off the optimum, epigraph kept strictly feasible.
        let seed = vec![cold.x[0] * 0.999, cold.x[1] * 1.001, cold.x[2] * 1.001 + 1e-6];
        let warm = p.solve_from(&seed).unwrap();
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-6 * (1.0 + cold.objective.abs()),
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-3, "warm {:?} vs cold {:?}", warm.x, cold.x);
        }
        assert!(
            warm.newton_iters < cold.newton_iters,
            "warm start should save iterations: {} vs {}",
            warm.newton_iters,
            cold.newton_iters
        );
    }

    /// An infeasible warm seed is repaired by phase-I — warm starting never
    /// loses robustness.
    #[test]
    fn bad_warm_seed_is_repaired() {
        let mut p = ConvexProblem::new(3);
        p.minimize(&[(2, 1.0)]);
        p.add_ratio_le(RatioTerm::new(vec![(0, 4.0), (1, 1.0)]).minus_var(2));
        p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3);
        // Violates the budget row and carries a hopeless epigraph value.
        let warm = p.solve_from(&[50.0, 50.0, 0.0]).unwrap();
        let cold = p.solve().unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-4);
        // A wrong-length seed silently falls back to the cold heuristics.
        let ignored = p.solve_from(&[1.0]).unwrap();
        assert!((ignored.objective - cold.objective).abs() < 1e-4);
    }

    /// Upper bounds interact with ratio objectives.
    #[test]
    fn capped_dimension() {
        // min max(10/x0, 10/x1) st x0 + x1 ≤ 20, x1 ≤ 4.
        let mut p = ConvexProblem::new(3);
        p.minimize(&[(2, 1.0)]);
        p.add_ratio_le(RatioTerm::new(vec![(0, 10.0)]).minus_var(2));
        p.add_ratio_le(RatioTerm::new(vec![(1, 10.0)]).minus_var(2));
        p.add_lin_le(&[(0, 1.0), (1, 1.0)], 20.0);
        p.set_lower(0, 1e-3).set_lower(1, 1e-3).set_upper(1, 4.0);
        let s = p.solve().unwrap();
        // x1 pinned at 4, bottleneck 10/4 = 2.5; x0 only needs 4 but any
        // value in [4, 16] is optimal. Objective should be 2.5.
        assert!((s.objective - 2.5).abs() < 1e-3);
        assert!(s.x[1] <= 4.0 + 1e-6);
    }

    /// A refine-cost probe of `opt::tests::perf_per_cost_prefers_cheap_dims`
    /// (minimize cost with the epigraph capped just above the best time).
    /// Some of its centering stages accept a step that rounds away. Ending
    /// each such stage there gives the bits that running it to the Newton
    /// cap gives, in 25 iterations instead of 414.
    #[test]
    fn a_step_that_rounds_away_ends_its_stage() {
        let mut p = ConvexProblem::new(4);
        p.minimize(&[(0, 128.0), (1, 1836.8000000000002)]);
        p.add_ratio_le(RatioTerm::new(vec![(0, 15.0)]).minus_var(2));
        p.add_ratio_le(RatioTerm::new(vec![(1, 4.375)]).minus_var(2));
        p.add_ratio_le(RatioTerm::new(vec![]).minus_var(3).plus_linear(2, 1.0));
        p.add_lin_le(&[(0, 128.0), (1, 1836.8000000000002)], 20247.470142606642);
        p.add_lin_le(&[(3, 1.0)], 1.0038309123129665);
        p.add_lin_eq(&[(0, 1.0), (1, 1.0)], 100.0);
        p.set_lower(0, 0.001).set_lower(1, 0.001);
        p.suggest_start(vec![50.0, 50.0, 1.3, 2.3]);
        let s = p.solve().unwrap();
        let bits: Vec<u64> = s.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [0x4057e9118d456d0a, 0x40116ee72ba92f59, 0x3ff00fb100b1021f, 0x3ff00fb100b149d6],
            "x = {:?}",
            s.x
        );
        assert_eq!(s.newton_iters, 25);
    }
}
