//! Adaptive Pareto-guided design-space search.
//!
//! The exhaustive [`Session`] run caps out at
//! [`Scenario::MAX_GRID_POINTS`]; production questions ("the best
//! topology under $X for this workload") live in spaces orders of
//! magnitude larger. This module is the adaptive driver on top of
//! [`Session`]: it prices a **coarse sample** of the budget axis of the
//! nominal shapes × workloads × budgets × objectives grid, then
//! **successively refines** the budget axis around the current
//! perf-vs-cost Pareto front while **pruning** budget intervals that are
//! provably dominated under the monotone budget structure (more bandwidth
//! budget never slows the optimum down and never makes it cheaper), until
//! the front is stable or an evaluation budget runs out. Each round hands
//! its cells' nominal grid indices straight to the session engine's
//! drive, and the nominal grid is never materialized, so scenarios
//! **above** the exhaustive point cap are legal in search mode.
//!
//! Every round is priced through the same [`Session`], so the engine's
//! store of solved points ([`crate::store::SolveStore`]) hits for free
//! across rounds, and across runs when it is backed by a file. Each
//! round is its own run: it builds its pairs' target expressions again,
//! and reads its group anchors, which seed its other cells, from the
//! store when an earlier round solved them. The store keys a point by what
//! its design is computed from (see [`crate::store`]), not by its grid
//! index, so a search shares its solves with a sweep of the same scenario
//! and with any other scenario that prices the same points.
//!
//! # Contracts (pinned by tests here and in `tests/prop_search.rs`)
//!
//! * **Exactness on small grids.** Each seeded cell seeds from its
//!   group's anchor (the grid's first budget), which the round reads or
//!   solves once whether or not the round prices it, as a shard does;
//!   so every evaluated cell's design is **bit-identical** to the
//!   exhaustive run's. On any grid the exhaustive engine can also
//!   sweep, the adaptive front equals [`SweepReport::pareto_front`] of
//!   the exhaustive run exactly — same designs, same order. (Pruning is
//!   conservative: an interval is only dropped when an evaluated point
//!   *strictly* dominates the best corner any interior cell could reach;
//!   ties keep refining.)
//! * **Determinism.** The refinement trajectory is a pure function of
//!   the scenario: parallel ≡ serial, warm-from-store ≡ cold, and a
//!   re-run replays bit-identically, including the streamed JSONL.
//! * **Failure containment.** A poisoned cell (solver error, injected
//!   `sweep.point.error`) is treated as dominated — never a front
//!   member, never a prune witness — and its budget intervals stay
//!   live, so chaos never *removes* refinement work.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::LibraError;
use crate::scenario::{
    DivergenceMatrix, RecordRow, ReportSink, RunMeta, Scenario, Session, SessionReport,
};
use crate::sweep::{SweepError, SweepGrid, SweepReport, SweepResult, SweepWorkload};

/// Knobs of one adaptive search, embedded in a scenario's `"search"`
/// block (all fields optional in JSON; defaults below).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Budget samples in the coarse seed round (per group; always
    /// includes the grid's first and last budget). Must be ≥ 2.
    pub seed_budgets: usize,
    /// Budget-index neighborhood refined around each front member
    /// (0 = bisection of live intervals only).
    pub refine_radius: usize,
    /// Maximum rounds including the seed round (0 = until the front is
    /// stable).
    pub max_rounds: usize,
    /// Maximum grid cells to evaluate (0 = unlimited). Rounds are
    /// truncated deterministically to stay under the cap.
    pub max_evals: usize,
    /// Optional parallelization co-search axis: extra workloads, one
    /// per TP split, appended by the workload resolver.
    pub cosearch: Option<Cosearch>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            seed_budgets: 8,
            refine_radius: 1,
            max_rounds: 0,
            max_evals: 0,
            cosearch: None,
        }
    }
}

impl SearchConfig {
    /// Validates the knobs (called by [`crate::scenario::ScenarioBuilder`]
    /// and again by [`run_grid`]).
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] naming the offending field.
    pub fn validate(&self) -> Result<(), LibraError> {
        let bad = |what: String| Err(LibraError::BadRequest(what));
        if self.seed_budgets < 2 {
            return bad(format!(
                "search field \"seed_budgets\" must be >= 2, got {}",
                self.seed_budgets
            ));
        }
        if let Some(cs) = &self.cosearch {
            if cs.model.is_empty() {
                return bad("cosearch field \"model\" must not be empty".into());
            }
            if cs.tp.is_empty() {
                return bad("cosearch field \"tp\" must list at least one TP degree".into());
            }
            if let Some(&t) = cs.tp.iter().find(|&&t| t == 0) {
                return bad(format!("cosearch TP degrees must be >= 1, got {t}"));
            }
            if cs.global_batch == 0 {
                return bad("cosearch field \"global_batch\" must be >= 1".into());
            }
        }
        Ok(())
    }
}

/// The parallelization co-search axis: sweep the parallelism split
/// (TP, and implicitly DP = NPUs / TP) of `model` as searched
/// workloads, not a fixed input. Resolved into concrete workloads by
/// the caller's workload resolver (`libra-bench` maps transformer
/// models); the core stays zoo-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cosearch {
    /// The model whose split is searched (e.g. `"MSFT-1T"`).
    pub model: String,
    /// Candidate tensor-parallel degrees; each becomes one workload
    /// named `"<model>@tp<t>"`.
    pub tp: Vec<u64>,
    /// Global batch size divided across data-parallel replicas.
    pub global_batch: u64,
}

/// One round of the search trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTrace {
    /// Round number (0 = the coarse seed round).
    pub round: usize,
    /// Distinct budget indices newly evaluated this round.
    pub budgets_added: usize,
    /// Grid cells newly evaluated this round (budgets × groups).
    pub new_evals: usize,
    /// Size of the global Pareto front after this round.
    pub front_size: usize,
}

/// The outcome of an adaptive search: the evaluated cells (in nominal
/// grid order, so [`SweepReport::pareto_front`] orders exactly like an
/// exhaustive run's), the per-round trace, and the evals-vs-grid-size
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Every evaluated cell, results and errors in **nominal**
    /// grid-enumeration order.
    pub sweep: SweepReport,
    /// Per-round refinement trace, seed round first.
    pub rounds: Vec<RoundTrace>,
    /// Distinct grid cells evaluated (healthy + poisoned).
    pub evals: usize,
    /// The nominal grid's size (never materialized).
    pub nominal_points: usize,
}

impl SearchReport {
    /// The final perf-vs-cost Pareto front over every evaluated cell
    /// (deterministically ordered — see [`SweepReport::pareto_front`]).
    pub fn front(&self) -> Vec<&SweepResult> {
        self.sweep.pareto_front()
    }

    /// Fraction of the nominal grid actually evaluated.
    pub fn coverage(&self) -> f64 {
        self.evals as f64 / self.nominal_points.max(1) as f64
    }
}

/// Nominal-grid axis arithmetic (shape-major enumeration:
/// shape → workload → budget → objective).
#[derive(Clone, Copy)]
struct Axes {
    n_wl: usize,
    n_bud: usize,
    n_obj: usize,
}

impl Axes {
    fn nominal_index(&self, shape: usize, wl: usize, bud: usize, obj: usize) -> usize {
        ((shape * self.n_wl + wl) * self.n_bud + bud) * self.n_obj + obj
    }

    fn budget_index_of(&self, nominal: usize) -> usize {
        (nominal / self.n_obj) % self.n_bud
    }
}

/// Runs the adaptive search a [`Scenario`]'s `"search"` block asks for,
/// over the scenario's (possibly over-cap) nominal grid. `workloads`
/// are the resolved implementations of [`Scenario::workloads`] plus any
/// co-search splits (see `libra-bench`'s resolver). Backends named by
/// the scenario are ignored: search prices the design space only.
///
/// # Errors
/// [`LibraError::BadRequest`] when the scenario has no `"search"`
/// block, or on an invalid configuration.
pub fn run_scenario<W: SweepWorkload>(
    session: &Session<'_>,
    scenario: &Scenario,
    workloads: &[W],
    sinks: &mut [&mut dyn ReportSink],
) -> Result<SearchReport, LibraError> {
    let config = scenario.search.as_ref().ok_or_else(|| {
        LibraError::BadRequest(format!(
            "scenario {:?} has no \"search\" block; add one, or run it exhaustively \
             with sweep/crossval",
            scenario.name
        ))
    })?;
    let grid = scenario.grid();
    run_inner(session, Some(&scenario.name), scenario.tolerance, &grid, workloads, config, sinks)
}

/// [`run_scenario`] for a plain grid (no scenario file): searches
/// `grid` under `config`, streaming newly evaluated cells to `sinks`
/// with **nominal** grid indices.
///
/// # Errors
/// [`LibraError::BadRequest`] on an invalid configuration or an empty
/// grid.
pub fn run_grid<W: SweepWorkload>(
    session: &Session<'_>,
    grid: &SweepGrid,
    workloads: &[W],
    config: &SearchConfig,
    sinks: &mut [&mut dyn ReportSink],
) -> Result<SearchReport, LibraError> {
    run_inner(session, None, session.tolerance(), grid, workloads, config, sinks)
}

/// The search loop behind [`run_scenario`] and [`run_grid`].
fn run_inner<W: SweepWorkload>(
    session: &Session<'_>,
    scenario: Option<&str>,
    tolerance: f64,
    grid: &SweepGrid,
    workloads: &[W],
    config: &SearchConfig,
    sinks: &mut [&mut dyn ReportSink],
) -> Result<SearchReport, LibraError> {
    config.validate()?;
    let axes = Axes {
        n_wl: workloads.len(),
        n_bud: grid.budget_axis().len(),
        n_obj: grid.objectives().len(),
    };
    let groups = grid.shapes().len() * axes.n_wl * axes.n_obj;
    let nominal = groups
        .checked_mul(axes.n_bud)
        .ok_or_else(|| LibraError::BadRequest("search grid size overflows usize".into()))?;
    if nominal == 0 {
        return Err(LibraError::BadRequest(
            "search grid is empty (every axis needs at least one entry)".into(),
        ));
    }

    let meta = RunMeta { scenario, backends: &[], n_points: nominal, tolerance };
    for sink in sinks.iter_mut() {
        sink.on_run_start(&meta);
    }

    // Every round evaluates the same budget indices for every group, so
    // the evaluated set is one global budget-index set.
    let mut evaluated: BTreeSet<usize> = BTreeSet::new();
    let mut outcomes: BTreeMap<usize, Result<SweepResult, SweepError>> = BTreeMap::new();
    let mut rounds: Vec<RoundTrace> = Vec::new();
    let mut evals = 0usize;
    let mut next = seed_indices(axes.n_bud, config.seed_budgets);
    loop {
        if config.max_evals > 0 {
            let allowed = (config.max_evals - evals) / groups;
            next.truncate(allowed);
        }
        if next.is_empty() {
            break;
        }
        // The round's cells of the nominal grid, ascending: every group
        // at the round's budget indices. The run reads or solves each
        // group's anchor when the round lacks it, so every cell solves
        // from the seed its exhaustive twin solves from.
        let mut cells = Vec::with_capacity(groups * next.len());
        for group in 0..grid.shapes().len() * axes.n_wl {
            for &bud in &next {
                let first = (group * axes.n_bud + bud) * axes.n_obj;
                cells.extend(first..first + axes.n_obj);
            }
        }
        let priced = session.engine().run_priced(grid, workloads, &[], &cells, session.mode);
        for (&index, (outcome, _)) in cells.iter().zip(priced) {
            let row = RecordRow::from_outcome(index, &outcome, None);
            for sink in sinks.iter_mut() {
                sink.on_record(&row);
            }
            outcomes.insert(index, outcome);
        }
        let new_evals = cells.len();
        evals += new_evals;
        evaluated.extend(next.iter().copied());
        let front_size = front_of(&outcomes).len();
        rounds.push(RoundTrace {
            round: rounds.len(),
            budgets_added: next.len(),
            new_evals,
            front_size,
        });
        if config.max_rounds > 0 && rounds.len() >= config.max_rounds {
            break;
        }
        if config.max_evals > 0 && evals + groups > config.max_evals {
            break;
        }
        next = candidates(&outcomes, &evaluated, grid, &axes, config.refine_radius);
    }

    let cache = session.engine().cache_stats();
    let mut sweep = SweepReport { results: Vec::new(), errors: Vec::new(), cache };
    outcomes.into_values().for_each(|outcome| sweep.push(outcome));
    let report = SearchReport { sweep, rounds, evals, nominal_points: nominal };
    let session_report = SessionReport {
        sweep: report.sweep.clone(),
        divergence: DivergenceMatrix::new(Vec::new(), tolerance),
    };
    for sink in sinks.iter_mut() {
        sink.on_run_end(&session_report);
    }
    Ok(report)
}

/// The coarse seed round's budget indices: `k` samples spread evenly
/// over `0..n_bud`, always including the first and last index (or the
/// whole axis when it is no bigger than `k`).
fn seed_indices(n_bud: usize, k: usize) -> Vec<usize> {
    if n_bud <= k {
        return (0..n_bud).collect();
    }
    let mut out: Vec<usize> = (0..k).map(|i| i * (n_bud - 1) / (k - 1)).collect();
    out.dedup();
    out
}

/// The healthy evaluated cells currently on the global perf-vs-cost
/// front (poisoned cells are treated as dominated).
fn front_of(
    outcomes: &BTreeMap<usize, Result<SweepResult, SweepError>>,
) -> Vec<(usize, &SweepResult)> {
    let healthy: Vec<(usize, &SweepResult)> =
        outcomes.iter().filter_map(|(&i, o)| o.as_ref().ok().map(|r| (i, r))).collect();
    healthy
        .iter()
        .filter(|(_, r)| {
            !healthy.iter().any(|(_, s)| {
                dominates(
                    s.design.weighted_time,
                    s.design.cost,
                    r.design.weighted_time,
                    r.design.cost,
                )
            })
        })
        .copied()
        .collect()
}

fn dominates(t1: f64, c1: f64, t2: f64, c2: f64) -> bool {
    t1 <= t2 && c1 <= c2 && (t1 < t2 || c1 < c2)
}

/// The next round's budget indices: the refine-radius neighborhood of
/// every front member, plus the bisection midpoint of every **live**
/// evaluated-budget interval. An interval `[lo, hi]` (consecutive
/// evaluated indices, gap ≥ 2) is *dead* for a group when some
/// evaluated point strictly dominates the best corner any interior
/// cell could reach under budget monotonicity — optimal time is
/// non-increasing and optimal cost non-decreasing in the budget, so no
/// interior cell can beat `(time(hi), cost(lo))`. An interval with a
/// poisoned endpoint has no such bound and stays live. Dead for every
/// group ⇒ pruned; an empty candidate set is the front-stability
/// termination.
fn candidates(
    outcomes: &BTreeMap<usize, Result<SweepResult, SweepError>>,
    evaluated: &BTreeSet<usize>,
    grid: &SweepGrid,
    axes: &Axes,
    radius: usize,
) -> Vec<usize> {
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    let healthy: Vec<&SweepResult> = outcomes.values().filter_map(|o| o.as_ref().ok()).collect();
    // Refine around the front.
    for (nominal, _) in front_of(outcomes) {
        let at = axes.budget_index_of(nominal);
        let lo = at.saturating_sub(radius);
        let hi = at.saturating_add(radius).min(axes.n_bud - 1);
        for j in lo..=hi {
            if !evaluated.contains(&j) {
                picked.insert(j);
            }
        }
    }
    // Bisect live intervals.
    let eval_sorted: Vec<usize> = evaluated.iter().copied().collect();
    for pair in eval_sorted.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        if hi - lo < 2 {
            continue;
        }
        let live = (0..grid.shapes().len()).any(|s| {
            (0..axes.n_wl).any(|w| {
                (0..axes.n_obj).any(|o| {
                    let at_lo = outcomes.get(&axes.nominal_index(s, w, lo, o));
                    let at_hi = outcomes.get(&axes.nominal_index(s, w, hi, o));
                    match (at_lo, at_hi) {
                        (Some(Ok(rl)), Some(Ok(rh))) => {
                            let corner_t = rh.design.weighted_time;
                            let corner_c = rl.design.cost;
                            !healthy.iter().any(|e| {
                                dominates(e.design.weighted_time, e.design.cost, corner_t, corner_c)
                            })
                        }
                        // A missing or poisoned endpoint gives no bound:
                        // the interval cannot be proven dominated.
                        _ => true,
                    }
                })
            })
        });
        if live {
            picked.insert(lo + (hi - lo) / 2);
        }
    }
    picked.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Collective, CommModel, GroupSpan};
    use crate::cost::CostModel;
    use crate::fault::FaultInjector;
    use crate::network::NetworkShape;
    use crate::opt::Objective;
    use crate::scenario::{records_from_jsonl, JsonLinesSink};
    use crate::sweep::{ExecMode, FnWorkload};

    fn allreduce_workload(name: &str, gb: f64) -> FnWorkload {
        FnWorkload::new(name, move |shape: &NetworkShape| {
            let comm = CommModel::default();
            Ok(vec![(
                1.0,
                comm.time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape)),
            )])
        })
    }

    fn budgets(n: usize) -> Vec<f64> {
        (0..n).map(|i| 100.0 + 40.0 * i as f64).collect()
    }

    fn search_grid(n_budgets: usize) -> SweepGrid {
        SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_shape("RI(8)".parse().unwrap())
            .with_budgets(budgets(n_budgets))
            .with_objectives([Objective::Perf, Objective::PerfPerCost])
    }

    fn run_search(
        mode: ExecMode,
        grid: &SweepGrid,
        workloads: &[FnWorkload],
        config: &SearchConfig,
    ) -> (SearchReport, String) {
        let cm = CostModel::default();
        let session = Session::new(&cm).with_mode(mode);
        let mut out = Vec::new();
        let report = {
            let mut sink = JsonLinesSink::new(&mut out);
            run_grid(&session, grid, workloads, config, &mut [&mut sink]).expect("search runs")
        };
        (report, String::from_utf8(out).unwrap())
    }

    #[test]
    fn seed_indices_spread_and_cover_endpoints() {
        assert_eq!(seed_indices(5, 8), vec![0, 1, 2, 3, 4]);
        assert_eq!(seed_indices(9, 5), vec![0, 2, 4, 6, 8]);
        let s = seed_indices(1000, 8);
        assert_eq!(s.len(), 8);
        assert_eq!((s[0], s[7]), (0, 999));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn config_validation_names_offending_fields() {
        let bad = SearchConfig { seed_budgets: 1, ..SearchConfig::default() };
        assert!(bad.validate().unwrap_err().to_string().contains("seed_budgets"));
        let bad = SearchConfig {
            cosearch: Some(Cosearch { model: "M".into(), tp: vec![], global_batch: 1 }),
            ..SearchConfig::default()
        };
        assert!(bad.validate().unwrap_err().to_string().contains("tp"));
        let bad = SearchConfig {
            cosearch: Some(Cosearch { model: "M".into(), tp: vec![0], global_batch: 1 }),
            ..SearchConfig::default()
        };
        assert!(bad.validate().unwrap_err().to_string().contains(">= 1"));
        let bad = SearchConfig {
            cosearch: Some(Cosearch { model: "M".into(), tp: vec![8], global_batch: 0 }),
            ..SearchConfig::default()
        };
        assert!(bad.validate().unwrap_err().to_string().contains("global_batch"));
    }

    /// The headline contract: on a grid small enough to sweep
    /// exhaustively, the adaptive front equals the exhaustive
    /// [`SweepReport::pareto_front`] exactly (same designs, same order),
    /// and every evaluated cell's design is bit-identical to the
    /// exhaustive run's.
    #[test]
    fn search_front_matches_exhaustive_exactly() {
        let grid = search_grid(11);
        let wls = [allreduce_workload("a", 1.0), allreduce_workload("b", 4.0)];
        let cm = CostModel::default();
        let exhaustive = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        let (report, _) = run_search(ExecMode::Parallel, &grid, &wls, &SearchConfig::default());
        assert!(report.evals <= grid.len(wls.len()));
        let expected: Vec<_> = exhaustive.pareto_front().into_iter().cloned().collect();
        let got: Vec<_> = report.front().into_iter().cloned().collect();
        assert_eq!(got, expected, "adaptive front must equal the exhaustive front");
        // Every evaluated cell is bit-identical to its exhaustive twin.
        for r in &report.sweep.results {
            let twin = exhaustive
                .results
                .iter()
                .find(|e| e.point == r.point && e.workload == r.workload)
                .expect("evaluated cell exists in the exhaustive run");
            assert_eq!(r, twin);
        }
    }

    /// Search replays bit-identically: parallel ≡ serial, on the report
    /// and on the streamed JSONL bytes.
    #[test]
    fn search_parallel_equals_serial_bitwise() {
        let grid = search_grid(13);
        let wls = [allreduce_workload("a", 2.0)];
        let config = SearchConfig { seed_budgets: 4, ..SearchConfig::default() };
        let (serial, serial_jsonl) = run_search(ExecMode::Serial, &grid, &wls, &config);
        let (parallel, parallel_jsonl) = run_search(ExecMode::Parallel, &grid, &wls, &config);
        assert_eq!(serial.sweep.results, parallel.sweep.results);
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.evals, parallel.evals);
        assert_eq!(serial_jsonl, parallel_jsonl);
    }

    /// The streamed JSONL is one well-formed run: a single header, one
    /// record per evaluated cell (nominal indices, no anchor
    /// duplicates), a single summary — re-parseable by
    /// [`records_from_jsonl`].
    #[test]
    fn search_streams_one_reparseable_run() {
        let grid = search_grid(11);
        let wls = [allreduce_workload("a", 1.0)];
        let (report, jsonl) = run_search(ExecMode::Parallel, &grid, &wls, &SearchConfig::default());
        let rows = records_from_jsonl(&jsonl).expect("stream parses");
        assert_eq!(rows.len(), report.evals);
        let mut indices: Vec<usize> = rows.iter().map(|r| r.index).collect();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), rows.len(), "no cell is emitted twice");
        assert!(*indices.last().unwrap() < grid.len(wls.len()));
    }

    /// Each round prices its cells by nominal index: on a shuffled axis
    /// whose input repeats values, every streamed row carries the budget
    /// its nominal index names, and the report's cells come in
    /// nominal-index order.
    #[test]
    fn shuffled_repeating_budget_axis_maps_back_to_nominal_indices() {
        // 17 distinct budgets in a scrambled order (7 is a unit mod 17),
        // then every third one again.
        let distinct: Vec<f64> = (0..17).map(|i| 100.0 + 40.0 * ((i * 7) % 17) as f64).collect();
        let input: Vec<f64> = distinct.iter().chain(distinct.iter().step_by(3)).copied().collect();
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_shape("RI(8)".parse().unwrap())
            .with_budgets(input)
            .with_objectives([Objective::Perf, Objective::PerfPerCost]);
        assert_eq!(grid.budgets(), &distinct[..]);
        let wls = [allreduce_workload("a", 1.0), allreduce_workload("b", 4.0)];
        let config = SearchConfig { seed_budgets: 4, ..SearchConfig::default() };
        let (report, jsonl) = run_search(ExecMode::Parallel, &grid, &wls, &config);
        let (n_bud, n_obj) = (grid.budgets().len(), grid.objectives().len());
        let rows = records_from_jsonl(&jsonl).expect("stream parses");
        assert_eq!(rows.len(), report.evals);
        for row in &rows {
            assert_eq!(
                row.budget,
                grid.budgets()[(row.index / n_obj) % n_bud],
                "row {}",
                row.index
            );
        }
        let axes = Axes { n_wl: wls.len(), n_bud, n_obj };
        let nominal: Vec<usize> = report
            .sweep
            .results
            .iter()
            .map(|r| {
                let bud = grid.budgets().iter().position(|&b| b == r.point.budget).unwrap();
                let obj = grid.objectives().iter().position(|&o| o == r.point.objective).unwrap();
                axes.nominal_index(r.point.shape, r.point.workload, bud, obj)
            })
            .collect();
        assert_eq!(nominal.len(), report.evals, "a healthy run has no errors");
        assert!(nominal.windows(2).all(|w| w[0] < w[1]), "results in nominal order: {nominal:?}");
    }

    /// `max_evals` is a hard deterministic cap: the search stops under
    /// it and still reports a front over what it saw.
    #[test]
    fn max_evals_caps_the_run() {
        let grid = search_grid(64);
        let wls = [allreduce_workload("a", 1.0)];
        let groups = 2 * wls.len() * 2; // shapes × workloads × objectives
        let config =
            SearchConfig { seed_budgets: 4, max_evals: 6 * groups, ..SearchConfig::default() };
        let (report, _) = run_search(ExecMode::Parallel, &grid, &wls, &config);
        assert!(report.evals <= config.max_evals, "{} > {}", report.evals, config.max_evals);
        assert!(report.evals < grid.len(wls.len()));
        assert!(!report.front().is_empty());
        assert!(report.coverage() < 1.0);
    }

    /// `max_rounds: 1` is exactly the coarse seed round.
    #[test]
    fn max_rounds_one_is_the_seed_round() {
        let grid = search_grid(32);
        let wls = [allreduce_workload("a", 1.0)];
        let config = SearchConfig { seed_budgets: 5, max_rounds: 1, ..SearchConfig::default() };
        let (report, _) = run_search(ExecMode::Parallel, &grid, &wls, &config);
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.rounds[0].budgets_added, 5);
        assert_eq!(report.evals, 5 * 2 * 2);
    }

    /// Satellite: chaos does not steer the search. A `sweep.point.error`
    /// fault plan poisons cells without changing which cells get
    /// refined (poisoned cells are treated as dominated, and intervals
    /// with poisoned endpoints stay live), and the healthy records are
    /// bit-identical to the fault-free run's.
    #[test]
    fn fault_injection_poisons_points_without_steering_refinement() {
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets(budgets(9))
            .with_objectives([Objective::Perf]);
        let wls = [allreduce_workload("a", 2.0)];
        let config = SearchConfig { seed_budgets: 5, ..SearchConfig::default() };
        let run = |fault: Option<&str>| {
            let cm = CostModel::default();
            let mut session = Session::new(&cm);
            if let Some(spec) = fault {
                session = session.with_fault(FaultInjector::from_spec(spec).unwrap()).unwrap();
            }
            let mut out = Vec::new();
            let report = {
                let mut sink = JsonLinesSink::new(&mut out);
                run_grid(&session, &grid, &wls, &config, &mut [&mut sink]).expect("search runs")
            };
            (report, String::from_utf8(out).unwrap())
        };
        let (clean, clean_jsonl) = run(None);
        // Point faults key on the nominal grid index, here the budget
        // index. The plan fires at 2, 3 and 8 of 0..9. (A fault at 0, the
        // warm-start anchor, would poison only its own record: the other
        // cells would still seed from the anchor's solve.)
        let plan = "seed=10;sweep.point.error=0.3";
        let injector = FaultInjector::from_spec(plan).unwrap();
        let fired: Vec<u64> =
            (0..9).filter(|&i| injector.fires(crate::fault::SWEEP_POINT_ERROR, i)).collect();
        assert_eq!(fired, [2, 3, 8]);
        let (chaos, chaos_jsonl) = run(Some(plan));
        // Same refinement trajectory: same evaluated cells per round.
        assert_eq!(
            clean.rounds.iter().map(|r| (r.budgets_added, r.new_evals)).collect::<Vec<_>>(),
            chaos.rounds.iter().map(|r| (r.budgets_added, r.new_evals)).collect::<Vec<_>>(),
        );
        assert_eq!(clean.evals, chaos.evals);
        // The fault poisoned budget indices 2 and 8 in the seed round
        // (0, 2, 4, 6, 8), then 3 in the refinement round (1, 3, 5, 7).
        assert_eq!(chaos.sweep.errors.len(), 3);
        assert!(clean.sweep.errors.is_empty());
        assert_eq!(chaos.sweep.results.len() + 3, clean.sweep.results.len());
        // Healthy JSONL lines are bit-identical to the fault-free run's.
        let healthy: Vec<&str> =
            chaos_jsonl.lines().filter(|l| l.contains("\"error\": null")).collect();
        assert_eq!(healthy.len(), chaos.sweep.results.len());
        for line in &healthy {
            assert!(
                clean_jsonl.lines().any(|c| c == *line),
                "healthy line must appear verbatim in the fault-free stream: {line}"
            );
        }
        // And the poisoned cells are exactly budget indices {2, 3, 8}.
        let err_budgets: Vec<f64> = chaos.sweep.errors.iter().map(|e| e.point.budget).collect();
        let expect: Vec<f64> = [2, 3, 8].map(|i| grid.budgets()[i]).to_vec();
        let mut sorted = err_budgets.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, expect);
    }

    /// A search shares a sweep's stored solves: both key a record by what
    /// its design is computed from. Over a store a sweep of the same grid
    /// filled, the search solves and stages nothing; a cold
    /// store-attached search stages one record per evaluated cell; and
    /// both stream the bytes a store-less search streams.
    #[test]
    fn search_reuses_a_sweeps_stored_solves() {
        let grid = search_grid(11);
        let wls = [allreduce_workload("a", 1.0)];
        let config = SearchConfig { seed_budgets: 4, ..SearchConfig::default() };
        let cm = CostModel::default();
        let (_, want) = run_search(ExecMode::Parallel, &grid, &wls, &config);
        let search = |store: &std::path::Path| {
            let session = Session::new(&cm).with_store(store).unwrap();
            let mut out = Vec::new();
            let report = {
                let mut sink = JsonLinesSink::new(&mut out);
                run_grid(&session, &grid, &wls, &config, &mut [&mut sink]).expect("search runs")
            };
            let stored = session.engine().store_stats().unwrap();
            (report, String::from_utf8(out).unwrap(), stored)
        };
        let tmp = |name: &str| {
            let path = std::env::temp_dir()
                .join(format!("libra-search-test-{}-{name}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&path);
            path
        };

        let cold = tmp("cold");
        let (report, jsonl, stored) = search(&cold);
        assert_eq!(jsonl, want);
        assert_eq!(stored.staged, report.evals, "one record per evaluated cell");

        let shared = tmp("shared");
        Session::new(&cm).with_store(&shared).unwrap().run(&grid, &wls, &[]);
        let (report, jsonl, stored) = search(&shared);
        assert_eq!(jsonl, want);
        assert_eq!(report.sweep.cache.design_misses, 0, "the sweep's solves are reused");
        assert_eq!(stored.hits, report.sweep.cache.design_hits, "the store serves every hit");
        assert_eq!(stored.staged, 0);
        for path in [cold, shared] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// `run_scenario` demands a `"search"` block.
    #[test]
    fn run_scenario_requires_search_block() {
        let scenario = Scenario::builder("plain")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("a")
            .build()
            .unwrap();
        let cm = CostModel::default();
        let session = scenario.session(&cm);
        let wls = [allreduce_workload("a", 1.0)];
        let err = run_scenario(&session, &scenario, &wls, &mut []).unwrap_err();
        assert!(err.to_string().contains("no \"search\" block"), "{err}");
    }

    /// An over-cap nominal grid (larger than the exhaustive engine's
    /// point cap) completes through search with a tiny fraction of the
    /// nominal evals.
    #[test]
    fn over_cap_grid_completes_with_bounded_evals() {
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets((0..6000).map(|i| 100.0 + 0.25 * i as f64))
            .with_objectives([Objective::Perf]);
        let wls = [allreduce_workload("a", 1.0)];
        let config = SearchConfig { seed_budgets: 8, max_evals: 40, ..SearchConfig::default() };
        let (report, _) = run_search(ExecMode::Parallel, &grid, &wls, &config);
        assert_eq!(report.nominal_points, 6000);
        assert!(report.evals <= 40);
        assert!(report.coverage() <= 0.01);
        assert!(!report.front().is_empty());
    }
}
