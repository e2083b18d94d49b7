//! Bandwidth optimization (paper §IV-E/F): PerfOptBW, PerfPerCostOptBW, the
//! EqualBW baseline, and the designer-constraint DSL.
//!
//! * [`Objective::Perf`] (PerfOptBW) minimizes the weighted end-to-end
//!   training time — a convex program solved directly by the interior-point
//!   method.
//! * [`Objective::PerfPerCost`] (PerfPerCostOptBW) minimizes
//!   `time × dollar-cost`. This product is not jointly convex, so LIBRA
//!   solves it parametrically: for each candidate cost budget `c` the convex
//!   sub-problem `min time s.t. cost ≤ c` is solved, and a 1-D grid+golden
//!   search picks the best budget; a final pass re-minimizes cost at the
//!   achieved time so no stranded bandwidth is billed.

use std::cell::RefCell;
use std::collections::HashMap;

use libra_solver::convex::ConvexProblem;
use libra_solver::scalar::grid_then_golden;

use crate::cost::CostModel;
use crate::error::LibraError;
use crate::expr::{compile, compile_seeded, BwExpr};
use crate::network::NetworkShape;

/// Smallest bandwidth the optimizer may assign to a dimension (GB/s). Keeps
/// the ratio terms inside their convex domain.
pub const MIN_DIM_BW: f64 = 1e-3;

/// The optimization objective (paper §IV-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// PerfOptBW: minimize end-to-end training time.
    Perf,
    /// PerfPerCostOptBW: minimize training time × network cost.
    PerfPerCost,
}

/// A designer constraint on the bandwidth vector (paper §IV-F examples).
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Total bandwidth per NPU: `Σ B_i = total` (GB/s). An equality, per the
    /// paper's "Total BW = 100" example — the machine is *built* with this
    /// aggregate bandwidth, and the optimizer only chooses its distribution.
    /// (This is what lets PerfPerCostOptBW trade performance for cheaper
    /// dimensions instead of degenerately shrinking the network.)
    TotalBw(f64),
    /// Cap one dimension: `B_dim ≤ limit`.
    DimBwMax(usize, f64),
    /// Floor one dimension: `B_dim ≥ floor`.
    DimBwMin(usize, f64),
    /// Arbitrary linear inequality `Σ a_i·B_i ≤ rhs`.
    LinearLe(Vec<(usize, f64)>, f64),
    /// Arbitrary linear equality `Σ a_i·B_i = rhs` (e.g. `B₁+B₂ = 500`).
    LinearEq(Vec<(usize, f64)>, f64),
    /// Monotone allocation `B_0 ≥ B_1 ≥ … ≥ B_{N−1}` (inner dims fastest).
    Ordered,
    /// Total network dollar cost at most this (iso-cost studies).
    MaxCost(f64),
}

/// A request to design a network's bandwidth configuration.
#[derive(Debug, Clone)]
pub struct DesignRequest<'a> {
    /// The fabric being sized.
    pub shape: &'a NetworkShape,
    /// Weighted target workloads: `(importance, per-iteration time expr)`.
    pub targets: Vec<(f64, BwExpr)>,
    /// What to optimize.
    pub objective: Objective,
    /// Designer constraints; at least one bounding constraint
    /// ([`Constraint::TotalBw`] or [`Constraint::MaxCost`]) is required.
    pub constraints: Vec<Constraint>,
    /// Dollar-cost model (used by [`Objective::PerfPerCost`] and
    /// [`Constraint::MaxCost`]).
    pub cost_model: &'a CostModel,
}

/// An optimized (or baseline) bandwidth design.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Per-dimension bandwidth, GB/s per NPU.
    pub bw: Vec<f64>,
    /// Per-target iteration times at this bandwidth (seconds).
    pub times: Vec<f64>,
    /// Weighted sum of target times (the Perf objective value).
    pub weighted_time: f64,
    /// Network dollar cost.
    pub cost: f64,
}

impl Design {
    /// `1 / (time × cost)` — the perf-per-cost figure of merit.
    pub fn perf_per_cost(&self) -> f64 {
        1.0 / (self.weighted_time * self.cost)
    }

    /// Speedup of `self` over `baseline` (weighted times).
    pub fn speedup_over(&self, baseline: &Design) -> f64 {
        baseline.weighted_time / self.weighted_time
    }

    /// Perf-per-cost gain of `self` over `baseline`.
    pub fn ppc_gain_over(&self, baseline: &Design) -> f64 {
        (baseline.weighted_time * baseline.cost) / (self.weighted_time * self.cost)
    }
}

/// The workload-agnostic EqualBW baseline (paper §V-B): `total / N` per dim.
pub fn equal_bw(n_dims: usize, total: f64) -> Vec<f64> {
    vec![total / n_dims as f64; n_dims]
}

/// Evaluates a fixed bandwidth vector against the targets, producing a
/// [`Design`] (used for baselines and externally chosen configurations).
///
/// # Panics
/// Panics if `bw.len() != shape.ndims()`.
pub fn evaluate(
    shape: &NetworkShape,
    targets: &[(f64, BwExpr)],
    bw: &[f64],
    cost_model: &CostModel,
) -> Design {
    assert_eq!(bw.len(), shape.ndims());
    let times: Vec<f64> = targets.iter().map(|(_, e)| e.eval(bw)).collect();
    let weighted_time = targets.iter().zip(&times).map(|((w, _), t)| w * t).sum();
    Design { bw: bw.to_vec(), times, weighted_time, cost: cost_model.network_cost(shape, bw) }
}

fn validate(req: &DesignRequest<'_>) -> Result<(), LibraError> {
    let n = req.shape.ndims();
    if req.targets.is_empty() {
        return Err(LibraError::BadRequest("no target workloads".into()));
    }
    for (w, e) in &req.targets {
        if !w.is_finite() || *w < 0.0 {
            return Err(LibraError::BadRequest(format!("bad target weight {w}")));
        }
        if let Some(d) = e.max_dim() {
            if d >= n {
                return Err(LibraError::BadRequest(format!(
                    "target references dim {d} but the network has {n} dims"
                )));
            }
        }
    }
    let dim_ok = |d: usize| d < n;
    for c in &req.constraints {
        let ok = match c {
            Constraint::TotalBw(t) | Constraint::MaxCost(t) => *t > 0.0,
            Constraint::DimBwMax(d, v) | Constraint::DimBwMin(d, v) => dim_ok(*d) && v.is_finite(),
            Constraint::LinearLe(terms, _) | Constraint::LinearEq(terms, _) => {
                terms.iter().all(|&(d, _)| dim_ok(d))
            }
            Constraint::Ordered => true,
        };
        if !ok {
            return Err(LibraError::BadRequest(format!("invalid constraint {c:?}")));
        }
    }
    let has_bound = req.constraints.iter().any(|c| match c {
        Constraint::TotalBw(_) | Constraint::MaxCost(_) => true,
        // A positive-coefficient (in)equality covering every dimension also
        // bounds the feasible set (e.g. a parsed `B1+…+Bn = X`).
        Constraint::LinearLe(terms, _) | Constraint::LinearEq(terms, _) => {
            terms.len() >= n && terms.iter().all(|&(_, c)| c > 0.0)
        }
        _ => false,
    });
    if !has_bound {
        return Err(LibraError::BadRequest(
            "need a bounding constraint (TotalBw, MaxCost, or an all-dims budget)".into(),
        ));
    }
    Ok(())
}

/// Applies constraints + default bandwidth bounds to a compiled problem.
fn apply_constraints(p: &mut ConvexProblem, req: &DesignRequest<'_>, extra_cost_cap: Option<f64>) {
    let n = req.shape.ndims();
    for i in 0..n {
        p.set_lower(i, MIN_DIM_BW);
    }
    let cost_coefs = req.cost_model.cost_coefficients(req.shape);
    for c in &req.constraints {
        match c {
            Constraint::TotalBw(total) => {
                let terms: Vec<(usize, f64)> = (0..n).map(|i| (i, 1.0)).collect();
                p.add_lin_eq(&terms, *total);
            }
            Constraint::DimBwMax(d, v) => {
                p.set_upper(*d, *v);
            }
            Constraint::DimBwMin(d, v) => {
                p.set_lower(*d, v.max(MIN_DIM_BW));
            }
            Constraint::LinearLe(terms, rhs) => {
                p.add_lin_le(terms, *rhs);
            }
            Constraint::LinearEq(terms, rhs) => {
                p.add_lin_eq(terms, *rhs);
            }
            Constraint::Ordered => {
                for i in 0..n.saturating_sub(1) {
                    p.add_lin_le(&[(i + 1, 1.0), (i, -1.0)], 0.0);
                }
            }
            Constraint::MaxCost(cap) => {
                let terms: Vec<(usize, f64)> =
                    cost_coefs.iter().enumerate().map(|(i, &c)| (i, c)).collect();
                p.add_lin_le(&terms, *cap);
            }
        }
    }
    if let Some(cap) = extra_cost_cap {
        let terms: Vec<(usize, f64)> =
            cost_coefs.iter().enumerate().map(|(i, &c)| (i, c)).collect();
        p.add_lin_le(&terms, cap);
    }
}

/// A starting bandwidth guess consistent with the bounding constraints.
fn bw_guess(req: &DesignRequest<'_>) -> Vec<f64> {
    let n = req.shape.ndims();
    for c in &req.constraints {
        if let Constraint::TotalBw(total) = c {
            return equal_bw(n, *total);
        }
    }
    for c in &req.constraints {
        if let Constraint::MaxCost(cap) = c {
            let coefs = req.cost_model.cost_coefficients(req.shape);
            // Spend the budget evenly across dims.
            return coefs.iter().map(|&co| 0.9 * cap / (n as f64 * co)).collect();
        }
    }
    vec![1.0; n]
}

/// Projects a seed bandwidth vector into a usable warm-start guess:
/// floored at [`MIN_DIM_BW`] and rescaled onto the request's
/// [`Constraint::TotalBw`] budget (the optimum of a pure ratio objective
/// scales linearly with the budget, so a neighbor's optimum rescaled is an
/// excellent seed). Returns `None` for unusable seeds (wrong length,
/// non-finite or non-positive entries) — callers then solve cold.
fn seed_guess(req: &DesignRequest<'_>, seed: &[f64]) -> Option<Vec<f64>> {
    let n = req.shape.ndims();
    if seed.len() != n || seed.iter().any(|b| !b.is_finite() || *b <= 0.0) {
        return None;
    }
    let mut g: Vec<f64> = seed.iter().map(|&b| b.max(MIN_DIM_BW)).collect();
    if let Some(total) = req.constraints.iter().find_map(|c| match c {
        Constraint::TotalBw(t) => Some(*t),
        _ => None,
    }) {
        let sum: f64 = g.iter().sum();
        if sum > 0.0 {
            let k = total / sum;
            for v in &mut g {
                *v = (*v * k).max(MIN_DIM_BW);
            }
        }
    }
    Some(g)
}

/// Minimizes weighted time under the constraints (+ optional cost cap),
/// optionally warm-started from a projected seed bandwidth vector.
fn solve_perf(
    req: &DesignRequest<'_>,
    extra_cost_cap: Option<f64>,
    seed: Option<&[f64]>,
) -> Result<Design, LibraError> {
    let n = req.shape.ndims();
    match seed.and_then(|s| seed_guess(req, s)) {
        Some(guess) => {
            let (mut p, _) = compile_seeded(&req.targets, n, &guess, true);
            apply_constraints(&mut p, req, extra_cost_cap);
            let x0 = p.guess().expect("compile always suggests a start").to_vec();
            let sol = p.solve_from(&x0)?;
            Ok(evaluate(req.shape, &req.targets, &sol.x[..n], req.cost_model))
        }
        None => {
            let (mut p, _) = compile(&req.targets, n, &bw_guess(req));
            apply_constraints(&mut p, req, extra_cost_cap);
            let sol = p.solve()?;
            Ok(evaluate(req.shape, &req.targets, &sol.x[..n], req.cost_model))
        }
    }
}

/// Re-minimizes dollar cost subject to achieving (almost) a given weighted
/// time — reallocates bandwidth that does not contribute to performance
/// onto cheaper dimensions. `guess` overrides the starting bandwidth
/// vector (the perf solve that produced `time_cap` is an excellent start —
/// it is feasible for this problem by construction).
fn refine_cost(
    req: &DesignRequest<'_>,
    time_cap: f64,
    extra_cost_cap: Option<f64>,
    guess: Option<&[f64]>,
) -> Result<Design, LibraError> {
    let n = req.shape.ndims();
    let start = match guess {
        Some(g) => g.to_vec(),
        None => bw_guess(req),
    };
    let (mut p, t_obj) = compile(&req.targets, n, &start);
    apply_constraints(&mut p, req, extra_cost_cap);
    p.add_lin_le(&[(t_obj, 1.0)], time_cap * (1.0 + 1e-7));
    let coefs = req.cost_model.cost_coefficients(req.shape);
    let obj: Vec<(usize, f64)> = coefs.iter().enumerate().map(|(i, &c)| (i, c)).collect();
    p.minimize(&obj);
    let sol = p.solve()?;
    Ok(evaluate(req.shape, &req.targets, &sol.x[..n], req.cost_model))
}

/// Bounds of the reachable cost range under the request's constraints,
/// found by two small LPs.
fn cost_range(req: &DesignRequest<'_>) -> Result<(f64, f64), LibraError> {
    let n = req.shape.ndims();
    let coefs = req.cost_model.cost_coefficients(req.shape);
    let run = |sign: f64| -> Result<f64, LibraError> {
        let mut p = ConvexProblem::new(n);
        apply_constraints(&mut p, req, None);
        let obj: Vec<(usize, f64)> =
            coefs.iter().enumerate().map(|(i, &c)| (i, sign * c)).collect();
        p.minimize(&obj);
        p.suggest_start(bw_guess(req));
        let sol = p.solve()?;
        Ok(coefs.iter().zip(&sol.x).map(|(c, b)| c * b).sum())
    };
    let lo = run(1.0)?;
    let hi = run(-1.0)?;
    Ok((lo, hi))
}

/// Runs the LIBRA optimizer (paper Fig. 3, right-hand box).
///
/// # Errors
/// * [`LibraError::BadRequest`] for malformed requests (no targets, missing
///   bounding constraint, out-of-range dimensions).
/// * [`LibraError::Solver`] if the constraint set is infeasible or the
///   underlying solver fails.
pub fn optimize(req: &DesignRequest<'_>) -> Result<Design, LibraError> {
    optimize_seeded(req, None)
}

/// [`optimize`] warm-started from a neighboring design's bandwidth vector
/// (e.g. the same shape × workload × objective solved at an adjacent
/// budget). The seed is projected onto the request's budget and trusted as
/// near-optimal — the interior-point solver enters its barrier ladder high
/// (`ConvexProblem::solve_from`), typically cutting Newton iterations by
/// 2–4× on sweep grids. Converges to the same optimum as a cold
/// [`optimize`] within solver tolerance; an unusable seed silently falls
/// back to the cold path. Under [`Objective::PerfPerCost`] every parametric
/// probe's perf solve is seeded.
///
/// # Errors
/// See [`optimize`].
pub fn optimize_seeded(
    req: &DesignRequest<'_>,
    seed: Option<&[f64]>,
) -> Result<Design, LibraError> {
    validate(req)?;
    match req.objective {
        Objective::Perf => solve_perf(req, None, seed),
        Objective::PerfPerCost => {
            let (c_min, c_max) = cost_range(req)?;
            if !(c_max.is_finite() && c_min.is_finite()) || c_max <= c_min * (1.0 + 1e-9) {
                // Degenerate cost range: perf solve is the only choice.
                return solve_perf(req, None, seed);
            }
            let span = c_max - c_min;
            let lo = c_min + 1e-4 * span;
            // Parametric search over the cost budget: at each budget, find
            // the fastest design, then the *cheapest* design achieving that
            // speed (the time-optimal allocation is not unique in cost).
            // The product of the refined pair is the true objective value.
            //
            // `probe_seed` warm-starts the perf solve and `warm_refine`
            // starts the refinement from the perf optimum (feasible for the
            // refinement by construction); both are only engaged on the
            // seeded path, so the unseeded [`optimize`] keeps the pre-PR
            // search structure (full 24-point grid, cold probes — starting
            // points may differ at tolerance level since `compile` seeds
            // epigraph guesses from lowered values now).
            //
            // Each probe's design is kept, keyed by the cap's bits, whether
            // the perf solve was seeded (all seeded probes share one seed)
            // and `warm_refine`: the search always probes the cap it
            // returns, so the final answer below re-uses that probe instead
            // of solving it again. Errors are not kept.
            let probes: RefCell<HashMap<(u64, bool, bool), Design>> = RefCell::default();
            let probe_with = |cap: f64,
                              probe_seed: Option<&[f64]>,
                              warm_refine: bool|
             -> Result<Design, LibraError> {
                let key = (cap.to_bits(), probe_seed.is_some(), warm_refine);
                if let Some(design) = probes.borrow().get(&key) {
                    return Ok(design.clone());
                }
                let fast = solve_perf(req, Some(cap), probe_seed)?;
                let guess = if warm_refine { Some(fast.bw.as_slice()) } else { None };
                let design = match refine_cost(req, fast.weighted_time, Some(cap), guess) {
                    Ok(cheap) if cheap.cost <= fast.cost * (1.0 + 1e-9) => cheap,
                    _ => fast,
                };
                probes.borrow_mut().insert(key, design.clone());
                Ok(design)
            };
            // A seed narrows the outer search: cost range, constraints, and
            // ratio optima all scale linearly with the budget, so the
            // optimal cost *fraction* transfers well between neighboring
            // budgets. The seeded search scans a window biased *above* the
            // seed's projected cost (below it the cap squeezes toward the
            // infeasibility boundary and every probe pays phase-I), seeds
            // each probe whose cap the seed satisfies, and falls back to
            // the full cold search if the window's edge wins. The product
            // curve is first-order flat at its minimum, so the coarser cap
            // tolerance costs only O(tol²) on the reported objective.
            if let Some(pg) = seed.and_then(|s| seed_guess(req, s)) {
                let coefs = req.cost_model.cost_coefficients(req.shape);
                let center: f64 = coefs.iter().zip(&pg).map(|(c, b)| c * b).sum();
                let wlo = (center - 0.03 * span).clamp(lo, c_max);
                let whi = (center + 0.15 * span).clamp(lo, c_max);
                let seed_for = |cap: f64| {
                    // Strictly-feasible seeds only: the seed costs `center`.
                    (cap >= center * (1.0 + 1e-6)).then_some(pg.as_slice())
                };
                let f_seeded = |cap: f64| -> f64 {
                    match probe_with(cap, seed_for(cap), true) {
                        Ok(d) => d.weighted_time * d.cost,
                        Err(_) => f64::INFINITY,
                    }
                };
                let (best_cap, _) = grid_then_golden(&f_seeded, wlo, whi, 6, span * 5e-3);
                let edge = 1e-6 * span;
                if best_cap > wlo + edge && best_cap < whi - edge {
                    return probe_with(best_cap, seed_for(best_cap), true);
                }
                // Window edge won — distrust the seed and search cold.
            }
            let f = |cap: f64| -> f64 {
                match probe_with(cap, None, false) {
                    Ok(d) => d.weighted_time * d.cost,
                    Err(_) => f64::INFINITY,
                }
            };
            let (best_cap, _) = grid_then_golden(&f, lo, c_max, 24, span * 1e-4);
            probe_with(best_cap, None, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Collective, CommModel, GroupSpan};

    fn shape_2d() -> NetworkShape {
        "RI(4)_SW(8)".parse().unwrap()
    }

    /// One All-Reduce over the full 2D machine; the optimal split is
    /// traffic-proportional.
    fn allreduce_target(shape: &NetworkShape) -> (f64, BwExpr) {
        let e =
            CommModel::default().time_expr(Collective::AllReduce, 10e9, &GroupSpan::full(shape));
        (1.0, e)
    }

    #[test]
    fn perf_opt_beats_equal_bw() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![allreduce_target(&shape)],
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(100.0)],
            cost_model: &cm,
        };
        let opt = optimize(&req).unwrap();
        let base = evaluate(&shape, &req.targets, &equal_bw(2, 100.0), &cm);
        assert!(opt.weighted_time < base.weighted_time);
        // Traffic: dim0 = 2·10·(3/4) = 15 GB; dim1 = 2·10·(7/8)/4 = 4.375 GB.
        // Optimal B ∝ traffic → B0 = 100·15/19.375 ≈ 77.42.
        assert!((opt.bw[0] - 77.42).abs() < 0.5, "bw = {:?}", opt.bw);
        let speedup = opt.speedup_over(&base);
        // EqualBW time = 15/50 = 0.3; optimal = 19.375/100 = 0.19375.
        assert!((speedup - 0.3 / 0.19375).abs() < 1e-2, "speedup {speedup}");
    }

    #[test]
    fn total_bw_is_respected() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![allreduce_target(&shape)],
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(100.0)],
            cost_model: &cm,
        };
        let d = optimize(&req).unwrap();
        assert!(d.bw.iter().sum::<f64>() <= 100.0 + 1e-6);
        // The optimizer should use (almost) the whole budget.
        assert!(d.bw.iter().sum::<f64>() > 99.0);
    }

    #[test]
    fn dim_cap_binds() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![allreduce_target(&shape)],
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(100.0), Constraint::DimBwMax(0, 50.0)],
            cost_model: &cm,
        };
        let d = optimize(&req).unwrap();
        assert!(d.bw[0] <= 50.0 + 1e-6);
    }

    #[test]
    fn ordered_constraint_enforced() {
        let shape: NetworkShape = "SW(4)_SW(4)_SW(4)".parse().unwrap();
        // Put all the traffic on the *outer* dim so the optimizer wants an
        // inverted allocation, then force Ordered.
        let e = BwExpr::Ratio { coeff: 10.0, dim: 2 };
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![(1.0, e)],
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(90.0), Constraint::Ordered],
            cost_model: &cm,
        };
        let d = optimize(&req).unwrap();
        assert!(d.bw[0] >= d.bw[1] - 1e-6);
        assert!(d.bw[1] >= d.bw[2] - 1e-6);
        // Best under ordering: all equal (30, 30, 30).
        assert!((d.bw[2] - 30.0).abs() < 0.3, "bw = {:?}", d.bw);
    }

    #[test]
    fn linear_eq_constraint_holds() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![allreduce_target(&shape)],
            objective: Objective::Perf,
            constraints: vec![
                Constraint::TotalBw(100.0),
                Constraint::LinearEq(vec![(0, 1.0), (1, -3.0)], 0.0), // B0 = 3·B1
            ],
            cost_model: &cm,
        };
        let d = optimize(&req).unwrap();
        assert!((d.bw[0] - 3.0 * d.bw[1]).abs() < 1e-4, "bw = {:?}", d.bw);
    }

    #[test]
    fn perf_per_cost_prefers_cheap_dims() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let targets = vec![allreduce_target(&shape)];
        let perf = optimize(&DesignRequest {
            shape: &shape,
            targets: targets.clone(),
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(100.0)],
            cost_model: &cm,
        })
        .unwrap();
        let ppc = optimize(&DesignRequest {
            shape: &shape,
            targets,
            objective: Objective::PerfPerCost,
            constraints: vec![Constraint::TotalBw(100.0)],
            cost_model: &cm,
        })
        .unwrap();
        // PerfPerCost must win on the product metric.
        assert!(
            ppc.weighted_time * ppc.cost <= perf.weighted_time * perf.cost * (1.0 + 1e-6),
            "ppc {} vs perf {}",
            ppc.weighted_time * ppc.cost,
            perf.weighted_time * perf.cost,
        );
        assert!(ppc.perf_per_cost() >= perf.perf_per_cost() * (1.0 - 1e-6));
    }

    #[test]
    fn iso_cost_constraint() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![allreduce_target(&shape)],
            objective: Objective::Perf,
            constraints: vec![Constraint::MaxCost(1e6)],
            cost_model: &cm,
        };
        let d = optimize(&req).unwrap();
        assert!(d.cost <= 1e6 * (1.0 + 1e-6), "cost {}", d.cost);
        assert!(d.cost >= 0.99e6, "should spend the budget, cost {}", d.cost);
    }

    #[test]
    fn rejects_unbounded_request() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![allreduce_target(&shape)],
            objective: Objective::Perf,
            constraints: vec![],
            cost_model: &cm,
        };
        assert!(matches!(optimize(&req), Err(LibraError::BadRequest(_))));
    }

    #[test]
    fn rejects_out_of_range_dim() {
        let shape = shape_2d();
        let cm = CostModel::default();
        let req = DesignRequest {
            shape: &shape,
            targets: vec![(1.0, BwExpr::Ratio { coeff: 1.0, dim: 7 })],
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(10.0)],
            cost_model: &cm,
        };
        assert!(matches!(optimize(&req), Err(LibraError::BadRequest(_))));
    }

    #[test]
    fn multi_workload_group_design_interpolates() {
        let shape = shape_2d();
        let cm = CostModel::default();
        // Workload A stresses dim 0, workload B stresses dim 1.
        let a = BwExpr::Ratio { coeff: 10.0, dim: 0 };
        let b = BwExpr::Ratio { coeff: 10.0, dim: 1 };
        let only_a = optimize(&DesignRequest {
            shape: &shape,
            targets: vec![(1.0, a.clone())],
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(100.0)],
            cost_model: &cm,
        })
        .unwrap();
        let group = optimize(&DesignRequest {
            shape: &shape,
            targets: vec![(1.0, a), (1.0, b)],
            objective: Objective::Perf,
            constraints: vec![Constraint::TotalBw(100.0)],
            cost_model: &cm,
        })
        .unwrap();
        // Single-target design starves dim 1; the group design balances.
        assert!(only_a.bw[1] < 5.0);
        assert!((group.bw[0] - 50.0).abs() < 0.5, "bw = {:?}", group.bw);
    }

    #[test]
    fn equal_bw_baseline_splits_evenly() {
        assert_eq!(equal_bw(4, 400.0), vec![100.0; 4]);
    }
}
