//! Parallel design-space exploration: the paper's core loop as a subsystem.
//!
//! LIBRA's headline experiments (Figs. 13–16) sweep candidate
//! multi-dimensional topologies × workloads × bandwidth budgets ×
//! objectives and rank the resulting designs. That search is embarrassingly
//! parallel — every grid point is an independent [`opt::optimize`] call —
//! so this module fans it out with rayon while keeping results **bit
//! identical** to a serial fold over the same grid:
//!
//! * [`SweepGrid`] enumerates a duplicate-free cartesian grid in a
//!   deterministic order (shape-major, then workload, budget, objective);
//! * [`crate::scenario::Session::run`] — the public front door, in the
//!   [`crate::scenario`] module — evaluates the grid in parallel. Each run
//!   builds a `(shape, workload)` pair's target expressions, their hash
//!   and its plan once, for itself. Solved points (design plus EqualBW
//!   baseline) outlive the run in one map, the engine's
//!   [store](crate::store), keyed by what each design is computed from:
//!   in memory, or backed by a cache file. The run prices every grid
//!   point's [`CommPlan`] under **any number** of [`EvalBackend`]s
//!   in the same fan-out, reporting each pair's per-point disagreement
//!   as a [`DivergenceReport`] — the guard against ranking thousands of
//!   designs with a silently broken model;
//! * [`SweepReport`] returns results in grid order, plus ranking helpers
//!   and the perf-vs-cost [Pareto front](SweepReport::pareto_front);
//! * design solves are **warm-started** along the budget axis: each
//!   shape × workload × objective group's anchor (the grid's first
//!   budget) solves cold, and every other budget seeds its interior-point
//!   solve from that anchor's optimum ([`opt::optimize_seeded`]). A run
//!   reads or solves each anchor it needs once, when the first of the
//!   group's cells needs it, whether or not the anchor is one of the
//!   run's cells; so a design is a pure function of its key, whatever
//!   the worker scheduling.
//!
//! Every session run and every adaptive-search round funnels into the
//! same internal [`ExecMode`]-parameterized drive, one pass over
//! ascending global grid indices — a session's range, a resumed
//! stream's missing cells, or a round's cells of the nominal grid — so
//! the serial-vs-parallel bit-identity contract is enforced in exactly
//! one place.
//!
//! ```
//! use libra_core::comm::{Collective, CommModel, GroupSpan};
//! use libra_core::cost::CostModel;
//! use libra_core::opt::Objective;
//! use libra_core::scenario::Session;
//! use libra_core::sweep::{FnWorkload, SweepGrid};
//!
//! // One synthetic workload: a 1-GB All-Reduce over the whole machine.
//! let wl = FnWorkload::new("allreduce-1g", |shape| {
//!     let comm = CommModel::default();
//!     Ok(vec![(1.0, comm.time_expr(Collective::AllReduce, 1e9, &GroupSpan::full(shape)))])
//! });
//! let grid = SweepGrid::new()
//!     .with_shape("RI(8)_SW(4)".parse()?)
//!     .with_shape("FC(4)_SW(8)".parse()?)
//!     .with_budgets([100.0, 200.0])
//!     .with_objectives([Objective::Perf, Objective::PerfPerCost]);
//! let cm = CostModel::default();
//! let report = Session::new(&cm).run(&grid, &[wl], &[]).sweep;
//! assert_eq!(report.results.len(), 8);
//! assert!(report.errors.is_empty());
//! let front = report.pareto_front();
//! assert!(!front.is_empty());
//! # Ok::<(), libra_core::LibraError>(())
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use rayon::prelude::*;

use crate::budgets::Budgets;
use crate::cost::CostModel;
use crate::error::LibraError;
use crate::eval::{CommPlan, EvalBackend};
use crate::expr::BwExpr;
use crate::fault::{self, FaultInjector};
use crate::network::NetworkShape;
use crate::opt::{self, Constraint, Design, DesignRequest, Objective};
use crate::store::{PointKey, SharedSolveStore, StoreStats, StoredPoint};

/// One grid point's priced outcome: the design solve plus (when the
/// workload exposes a plan and backends were supplied) the per-backend
/// plan times, in backend order.
pub(crate) type PricedOutcome =
    (Result<SweepResult, SweepError>, Option<Result<Vec<f64>, SweepError>>);

/// A workload that can be swept: given a shape, produce the weighted
/// per-iteration time expressions [`opt::optimize`] consumes.
///
/// A workload's name only labels its records: the store keys a point by
/// the workload's targets (see [`crate::store`]), so workloads with equal
/// targets share their solves, and one name with other targets never
/// reads another's.
pub trait SweepWorkload: Send + Sync {
    /// Display name, carried by every record.
    fn name(&self) -> &str;

    /// Weighted `(importance, time-expression)` targets on `shape`.
    ///
    /// # Errors
    /// Workload construction may fail for unmappable shapes (e.g. a TP
    /// degree the dimensions cannot host); such grid points are reported in
    /// [`SweepReport::errors`] rather than aborting the sweep.
    fn targets(&self, shape: &NetworkShape) -> Result<Vec<(f64, BwExpr)>, LibraError>;

    /// The workload's communication plan on `shape`, if it can express one —
    /// the backend-neutral input cross-validation feeds to every
    /// [`EvalBackend`]. Workloads without a plan (`None`, the default) are
    /// counted as [`DivergenceReport::skipped`] in cross-validated sweeps
    /// but still optimized normally.
    ///
    /// # Errors
    /// Plan construction may fail for unmappable shapes, like
    /// [`SweepWorkload::targets`].
    fn comm_plan(&self, shape: &NetworkShape) -> Result<Option<CommPlan>, LibraError> {
        let _ = shape;
        Ok(None)
    }
}

impl<W: SweepWorkload + ?Sized> SweepWorkload for &W {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn targets(&self, shape: &NetworkShape) -> Result<Vec<(f64, BwExpr)>, LibraError> {
        (**self).targets(shape)
    }

    fn comm_plan(&self, shape: &NetworkShape) -> Result<Option<CommPlan>, LibraError> {
        (**self).comm_plan(shape)
    }
}

impl<W: SweepWorkload + ?Sized> SweepWorkload for Box<W> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn targets(&self, shape: &NetworkShape) -> Result<Vec<(f64, BwExpr)>, LibraError> {
        (**self).targets(shape)
    }

    fn comm_plan(&self, shape: &NetworkShape) -> Result<Option<CommPlan>, LibraError> {
        (**self).comm_plan(shape)
    }
}

/// The boxed closure type behind [`FnWorkload`].
type TargetsFn = Box<dyn Fn(&NetworkShape) -> Result<Vec<(f64, BwExpr)>, LibraError> + Send + Sync>;

/// The boxed plan-builder closure behind [`FnWorkload::with_plan`].
type PlanFn = Box<dyn Fn(&NetworkShape) -> Result<CommPlan, LibraError> + Send + Sync>;

/// A [`SweepWorkload`] backed by a closure (plus an optional communication
/// plan for cross-validated sweeps).
pub struct FnWorkload {
    name: String,
    f: TargetsFn,
    plan: Option<PlanFn>,
}

impl FnWorkload {
    /// Wraps `f` as a named sweep workload.
    pub fn new<F>(name: impl Into<String>, f: F) -> Self
    where
        F: Fn(&NetworkShape) -> Result<Vec<(f64, BwExpr)>, LibraError> + Send + Sync + 'static,
    {
        FnWorkload { name: name.into(), f: Box::new(f), plan: None }
    }

    /// Attaches a communication-plan builder, making the workload eligible
    /// for cross-validation (a [`crate::scenario::Session`] run with two or
    /// more backends).
    #[must_use]
    pub fn with_plan<P>(mut self, plan: P) -> Self
    where
        P: Fn(&NetworkShape) -> Result<CommPlan, LibraError> + Send + Sync + 'static,
    {
        self.plan = Some(Box::new(plan));
        self
    }
}

impl SweepWorkload for FnWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn targets(&self, shape: &NetworkShape) -> Result<Vec<(f64, BwExpr)>, LibraError> {
        (self.f)(shape)
    }

    fn comm_plan(&self, shape: &NetworkShape) -> Result<Option<CommPlan>, LibraError> {
        match &self.plan {
            Some(p) => p(shape).map(Some),
            None => Ok(None),
        }
    }
}

impl std::fmt::Debug for FnWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnWorkload").field("name", &self.name).finish_non_exhaustive()
    }
}

/// The cartesian design grid: shapes × budgets × objectives (workloads are
/// supplied at run time). Inputs are deduplicated on insertion, preserving
/// first-occurrence order, so enumeration is duplicate-free and
/// deterministic by construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepGrid {
    shapes: Vec<NetworkShape>,
    budgets: Budgets,
    objectives: Vec<Objective>,
}

/// One cell of the sweep grid (indices into the grid's axes and the
/// run-time workload list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Index into [`SweepGrid::shapes`].
    pub shape: usize,
    /// Index into the workload slice passed to
    /// [`crate::scenario::Session::run`].
    pub workload: usize,
    /// Total per-NPU bandwidth budget (GB/s).
    pub budget: f64,
    /// Optimization objective.
    pub objective: Objective,
}

impl SweepGrid {
    /// An empty grid.
    pub fn new() -> Self {
        SweepGrid::default()
    }

    /// Adds one candidate shape (ignored if already present).
    #[must_use]
    pub fn with_shape(mut self, shape: NetworkShape) -> Self {
        if !self.shapes.contains(&shape) {
            self.shapes.push(shape);
        }
        self
    }

    /// Adds candidate shapes (duplicates ignored).
    #[must_use]
    pub fn with_shapes(self, shapes: impl IntoIterator<Item = NetworkShape>) -> Self {
        shapes.into_iter().fold(self, SweepGrid::with_shape)
    }

    /// Adds total-bandwidth budgets in GB/s (duplicates and non-finite or
    /// non-positive values ignored), keeping each value's first
    /// occurrence in insertion order.
    ///
    /// Dedup sorts the budget positions by `(bit pattern, position)` and
    /// keeps the first position of each run of equal bits, rather than
    /// hashing every budget. Adaptive-search scenarios legally carry
    /// budget axes with millions of entries: a hash set there costs a
    /// hash per entry and several times the axis in memory, while
    /// `sort_unstable` is linear on the monotone axes ladders produce
    /// (O(n log n) at worst) and needs one `u32` position per entry, half
    /// the axis in memory. (Bit equality matches `==` here: the kept
    /// values are finite, positive, and non-zero.)
    ///
    /// # Panics
    /// If the grid would hold more than `u32::MAX` budgets (a 32 GiB
    /// axis; scenario ladders stop at [`crate::scenario::Scenario::MAX_GRID_POINTS`]).
    #[must_use]
    pub fn with_budgets(mut self, budgets: impl IntoIterator<Item = f64>) -> Self {
        let budgets = budgets.into_iter();
        let mut values = std::mem::take(&mut self.budgets).into_vec();
        values.reserve(budgets.size_hint().0);
        values.extend(budgets.filter(|b| b.is_finite() && *b > 0.0));
        let n = u32::try_from(values.len()).expect("at most u32::MAX budgets");
        let bits = |p: u32| values[p as usize].to_bits();
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by_key(|&p| (bits(p), p));
        let mut first = vec![false; order.len()];
        for run in order.chunk_by(|&a, &b| bits(a) == bits(b)) {
            first[run[0] as usize] = true;
        }
        let mut first = first.into_iter();
        values.retain(|_| first.next() == Some(true));
        self.budgets = Budgets::from(values);
        self
    }

    /// Adds the budgets of `axis` as [`SweepGrid::with_budgets`] does,
    /// except that a distinct ladder on an empty axis is shared, not
    /// expanded: its values are computed as the grid reads them.
    #[must_use]
    pub(crate) fn with_budget_axis(mut self, axis: &Budgets) -> Self {
        if self.budgets.is_empty() && axis.is_distinct_ladder() {
            self.budgets = axis.clone();
            return self;
        }
        self.with_budgets(axis.iter())
    }

    /// Adds objectives (duplicates ignored).
    #[must_use]
    pub fn with_objectives(mut self, objectives: impl IntoIterator<Item = Objective>) -> Self {
        for o in objectives {
            if !self.objectives.contains(&o) {
                self.objectives.push(o);
            }
        }
        self
    }

    /// The deduplicated candidate shapes, in insertion order.
    pub fn shapes(&self) -> &[NetworkShape] {
        &self.shapes
    }

    /// The deduplicated budgets, in insertion order (the first call
    /// expands a scenario's ladder).
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// The deduplicated budgets as an axis, which reads a ladder's
    /// values without expanding it.
    pub(crate) fn budget_axis(&self) -> &Budgets {
        &self.budgets
    }

    /// The deduplicated objectives, in insertion order.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Number of grid points for `n_workloads` workloads.
    pub fn len(&self, n_workloads: usize) -> usize {
        self.shapes.len() * n_workloads * self.budgets.len() * self.objectives.len()
    }

    /// Whether the grid enumerates nothing for `n_workloads` workloads.
    pub fn is_empty(&self, n_workloads: usize) -> bool {
        self.len(n_workloads) == 0
    }

    /// Enumerates the grid in deterministic shape-major order:
    /// shape → workload → budget → objective, each axis in insertion order.
    pub fn points(&self, n_workloads: usize) -> Vec<GridPoint> {
        (0..self.len(n_workloads)).map(|i| self.point(i, n_workloads)).collect()
    }

    /// The point at global enumeration `index` (`< len(n_workloads)`),
    /// computed without enumerating the grid.
    pub(crate) fn point(&self, index: usize, n_workloads: usize) -> GridPoint {
        let (n_bud, n_obj) = (self.budgets.len(), self.objectives.len());
        GridPoint {
            shape: index / (n_obj * n_bud * n_workloads),
            workload: index / (n_obj * n_bud) % n_workloads,
            budget: self.budgets.value(index / n_obj % n_bud),
            objective: self.objectives[index % n_obj],
        }
    }

    /// Whether global `index` is its warm-start group's anchor: its
    /// shape, workload and objective at the grid's first budget.
    fn is_anchor(&self, index: usize) -> bool {
        (index / self.objectives.len()).is_multiple_of(self.budgets.len())
    }
}

/// Cache hit/miss counters, snapshotted into [`SweepReport::cache`].
/// Every count is exact: a parallel run counts what a serial run counts,
/// unless two of its workloads build equal targets on one shape (see
/// `design_hits`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Target-expression lookups served by an earlier build in the same
    /// run.
    pub expr_hits: usize,
    /// Target-expression builds: one per (shape, workload) pair per run.
    pub expr_misses: usize,
    /// Design solves the engine's store served: points this session
    /// solved in an earlier run, points loaded from the store's file, and
    /// points another session sharing the store solved. Workloads that
    /// build equal targets on one shape share their points, so a serial
    /// run counts a hit where the second of them reaches a point; a
    /// parallel run may solve it on two workers at once and count two
    /// misses instead.
    pub design_hits: usize,
    /// Design solves actually performed.
    pub design_misses: usize,
    /// Design solves (a subset of `design_misses`) that were warm-started
    /// from their group anchor's optimum.
    pub warm_seeded: usize,
}

/// The engine's counters of target-expression builds and design solves,
/// kept across a session's runs.
#[derive(Default)]
struct SweepCache {
    expr_hits: AtomicUsize,
    expr_misses: AtomicUsize,
    design_hits: AtomicUsize,
    design_misses: AtomicUsize,
    warm_seeded: AtomicUsize,
}

/// Why a store's lock is never poisoned: no store operation panics (a
/// solve runs outside it).
const STORE_UNPOISONED: &str = "no store operation panics";

impl SweepCache {
    /// The record of the point `key`, the one lookup path: `store`'s,
    /// else `solve`'s, which is staged in `store` unless it failed.
    ///
    /// Two cells of one run share a key only when two workloads build
    /// equal targets on one shape; a parallel run may then solve that key
    /// on two workers at once, and the store keeps the first of the two
    /// (equal) answers, so only its counters can differ from a serial
    /// run's.
    fn point(
        &self,
        key: PointKey,
        store: &SharedSolveStore,
        solve: impl FnOnce() -> Result<StoredPoint, LibraError>,
    ) -> Result<StoredPoint, LibraError> {
        let stored = store.lock().expect(STORE_UNPOISONED).lookup(key).cloned();
        if let Some(record) = stored {
            self.design_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(record);
        }
        let solved = solve();
        self.design_misses.fetch_add(1, Ordering::Relaxed);
        if let Ok(record) = &solved {
            store.lock().expect(STORE_UNPOISONED).stage(key, record.clone());
        }
        solved
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            expr_hits: self.expr_hits.load(Ordering::Relaxed),
            expr_misses: self.expr_misses.load(Ordering::Relaxed),
            design_hits: self.design_hits.load(Ordering::Relaxed),
            design_misses: self.design_misses.load(Ordering::Relaxed),
            warm_seeded: self.warm_seeded.load(Ordering::Relaxed),
        }
    }
}

/// A pair's weighted target expressions and their
/// [`PointKey::targets_hash`].
type HashedTargets = (Vec<(f64, BwExpr)>, u64);

/// What one run builds at most once for a (shape, workload) pair it
/// touches: the hashed target expressions, the communication plan, and,
/// per objective, the group anchor's solved point, which the first of
/// the group's cells to need it reads from the store or solves. A build
/// or solve that panics leaves its cell empty, so each point that needs
/// it tries again instead of reading a half-built value.
struct PairTables {
    targets: OnceLock<Result<HashedTargets, LibraError>>,
    plan: OnceLock<Result<Option<CommPlan>, LibraError>>,
    anchors: Vec<OnceLock<Result<StoredPoint, LibraError>>>,
}

/// One run's [`PairTables`], for the (shape, workload) pairs its cells
/// touch (an anchor outside the cells shares its pair with the cells it
/// seeds).
struct RunTables {
    /// Grid points per pair: budgets × objectives.
    per_pair: usize,
    /// The touched pairs' indices (`global index / per_pair`), ascending.
    pairs: Vec<usize>,
    tables: Vec<PairTables>,
}

impl RunTables {
    /// Empty tables for the pairs of `cells` (ascending global indices).
    fn new(grid: &SweepGrid, cells: &[usize]) -> Self {
        let n_obj = grid.objectives().len();
        let per_pair = grid.budgets.len() * n_obj;
        let mut pairs: Vec<usize> = cells.iter().map(|&i| i / per_pair).collect();
        pairs.dedup();
        let tables = pairs
            .iter()
            .map(|_| PairTables {
                targets: OnceLock::new(),
                plan: OnceLock::new(),
                anchors: (0..n_obj).map(|_| OnceLock::new()).collect(),
            })
            .collect();
        RunTables { per_pair, pairs, tables }
    }

    /// The tables of the pair holding global grid `index`.
    fn of(&self, index: usize) -> &PairTables {
        let k = self.pairs.binary_search(&(index / self.per_pair)).expect("a touched pair");
        &self.tables[k]
    }
}

/// How a run walks the grid: rayon fan-out or a serial reference fold.
///
/// Both modes are **bit-identical** on the same inputs — every point is an
/// independent deterministic solve, the store only avoids
/// recomputation, and a seeded solve waits for its group anchor's point
/// — which is the engine's core determinism contract. Serial mode is the
/// reference fold (and the right choice under an external thread pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Fan grid points out with rayon (the default).
    #[default]
    Parallel,
    /// Walk grid points in order on the calling thread.
    Serial,
}

/// A successfully evaluated grid point: the LIBRA design plus the EqualBW
/// baseline at the same budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The grid cell this result came from.
    pub point: GridPoint,
    /// The evaluated shape.
    pub shape: NetworkShape,
    /// The workload's name.
    pub workload: String,
    /// The optimized design.
    pub design: Design,
    /// The EqualBW baseline at the same budget.
    pub baseline: Design,
}

impl SweepResult {
    /// Speedup of the design over EqualBW.
    pub fn speedup(&self) -> f64 {
        self.design.speedup_over(&self.baseline)
    }

    /// Perf-per-cost gain of the design over EqualBW.
    pub fn ppc_gain(&self) -> f64 {
        self.design.ppc_gain_over(&self.baseline)
    }
}

/// A grid point whose evaluation failed (unmappable workload, infeasible
/// constraint set, solver failure).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepError {
    /// The grid cell that failed.
    pub point: GridPoint,
    /// The evaluated shape.
    pub shape: NetworkShape,
    /// The workload's name.
    pub workload: String,
    /// Why it failed.
    pub error: LibraError,
}

impl SweepError {
    /// `error` at `point` of `grid`, labelled with the point's shape and
    /// workload name.
    fn new<W: SweepWorkload>(
        grid: &SweepGrid,
        workloads: &[W],
        point: GridPoint,
        error: LibraError,
    ) -> Self {
        SweepError {
            point,
            shape: grid.shapes()[point.shape].clone(),
            workload: workloads[point.workload].name().to_string(),
            error,
        }
    }
}

/// How to rank sweep results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankBy {
    /// Largest speedup over EqualBW first.
    Speedup,
    /// Largest perf-per-cost gain over EqualBW first.
    PpcGain,
    /// Fastest (smallest weighted time) first.
    WeightedTime,
    /// Cheapest first.
    Cost,
}

/// The outcome of a sweep: results and errors in grid order, plus cache
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Successful evaluations, in grid-enumeration order.
    pub results: Vec<SweepResult>,
    /// Failed grid points, in grid-enumeration order.
    pub errors: Vec<SweepError>,
    /// Cache counters accumulated over the engine's lifetime so far.
    pub cache: CacheStats,
}

impl SweepReport {
    /// Files one point's `outcome` under the results or the errors.
    pub(crate) fn push(&mut self, outcome: Result<SweepResult, SweepError>) {
        match outcome {
            Ok(r) => self.results.push(r),
            Err(e) => self.errors.push(e),
        }
    }

    /// Results re-ranked by `metric` (ties keep grid order).
    pub fn ranked(&self, metric: RankBy) -> Vec<&SweepResult> {
        let mut out: Vec<&SweepResult> = self.results.iter().collect();
        match metric {
            RankBy::Speedup => {
                out.sort_by(|a, b| b.speedup().total_cmp(&a.speedup()));
            }
            RankBy::PpcGain => {
                out.sort_by(|a, b| b.ppc_gain().total_cmp(&a.ppc_gain()));
            }
            RankBy::WeightedTime => {
                out.sort_by(|a, b| a.design.weighted_time.total_cmp(&b.design.weighted_time));
            }
            RankBy::Cost => {
                out.sort_by(|a, b| a.design.cost.total_cmp(&b.design.cost));
            }
        }
        out
    }

    /// The perf-vs-cost Pareto front: designs not dominated by any other
    /// result (another design at most as slow **and** at most as expensive,
    /// strictly better on one axis).
    ///
    /// The front is returned in a **deterministic order**: cost ascending,
    /// then weighted time ascending (`f64::total_cmp`, so NaNs order
    /// stably too). Results tied on *both* axes are mutually
    /// non-dominating duplicates — they all stay on the front, ordered
    /// among themselves by grid-enumeration position (the sort is
    /// stable). The adaptive search driver's front-stability test relies
    /// on this ordering being a pure function of the result *set*, never
    /// of evaluation order.
    pub fn pareto_front(&self) -> Vec<&SweepResult> {
        let mut front: Vec<&SweepResult> = self
            .results
            .iter()
            .filter(|r| {
                !self.results.iter().any(|s| {
                    s.design.weighted_time <= r.design.weighted_time
                        && s.design.cost <= r.design.cost
                        && (s.design.weighted_time < r.design.weighted_time
                            || s.design.cost < r.design.cost)
                })
            })
            .collect();
        front.sort_by(|a, b| {
            a.design
                .cost
                .total_cmp(&b.design.cost)
                .then(a.design.weighted_time.total_cmp(&b.design.weighted_time))
        });
        front
    }
}

/// Both backends' verdicts on one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointDivergence {
    /// The grid cell.
    pub point: GridPoint,
    /// The evaluated shape.
    pub shape: NetworkShape,
    /// The workload's name.
    pub workload: String,
    /// Baseline backend's plan time at the optimized design's bandwidth
    /// (seconds).
    pub baseline_secs: f64,
    /// Reference backend's plan time at the same bandwidth (seconds).
    pub reference_secs: f64,
    /// Symmetric relative error between the two times.
    pub rel_error: f64,
}

impl PointDivergence {
    /// Whether this point fails judging at `tolerance`: the relative
    /// error exceeds it, **or** anything about the comparison is
    /// non-finite. A poisoned backend time that round-tripped through
    /// JSON-lines as `"NaN"` must never re-judge as passing, so NaN and
    /// infinities in either the error or the raw times are violations —
    /// `rel_err > tol`-style comparisons alone are `false` for NaN.
    pub fn is_violation(&self, tolerance: f64) -> bool {
        !self.rel_error.is_finite()
            || self.rel_error > tolerance
            || !self.baseline_secs.is_finite()
            || !self.reference_secs.is_finite()
    }
}

/// The divergence side of a cross-validated sweep: per-point relative
/// errors between the two backends, in grid-enumeration order.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// Baseline backend's display name.
    pub baseline: String,
    /// Reference backend's display name.
    pub reference: String,
    /// The tolerance points are judged against.
    pub tolerance: f64,
    /// Per-point comparisons, in grid order.
    pub points: Vec<PointDivergence>,
    /// Grid points whose workload exposes no [`CommPlan`] (not comparable,
    /// not a failure).
    pub skipped: usize,
    /// Grid points where a backend itself errored (these ARE failures —
    /// a plan both backends should handle was rejected by one of them).
    pub backend_errors: Vec<SweepError>,
}

impl DivergenceReport {
    /// The largest per-point relative error (0 when nothing was compared).
    /// A NaN error — a backend returned a non-finite time — propagates to
    /// the result instead of being silently dropped by the max fold, so a
    /// failing report never summarizes as "0.000%".
    pub fn max_rel_error(&self) -> f64 {
        self.points.iter().map(|p| p.rel_error).fold(0.0, |a, b| {
            if b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        })
    }

    /// The mean per-point relative error (0 when nothing was compared).
    pub fn mean_rel_error(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.rel_error).sum::<f64>() / self.points.len() as f64
    }

    /// Points failing [`PointDivergence::is_violation`] at the report's
    /// tolerance, worst first. Non-finite errors or times (a backend
    /// returned a poisoned value) count as violations — keeping this
    /// list consistent with [`DivergenceReport::within_tolerance`],
    /// which also fails them.
    pub fn violations(&self) -> Vec<&PointDivergence> {
        let mut out: Vec<&PointDivergence> =
            self.points.iter().filter(|p| p.is_violation(self.tolerance)).collect();
        out.sort_by(|a, b| b.rel_error.total_cmp(&a.rel_error));
        out
    }

    /// The `n` worst-diverging shape × workload × budget cells, worst
    /// first (ties keep grid order).
    pub fn worst(&self, n: usize) -> Vec<&PointDivergence> {
        let mut out: Vec<&PointDivergence> = self.points.iter().collect();
        out.sort_by(|a, b| b.rel_error.total_cmp(&a.rel_error));
        out.truncate(n);
        out
    }

    /// True when every compared point is within tolerance **and** no
    /// backend errored. A report that compared nothing (all skipped) is
    /// vacuously within tolerance. Non-finite errors or times fail
    /// (see [`PointDivergence::is_violation`]).
    pub fn within_tolerance(&self) -> bool {
        self.backend_errors.is_empty()
            && self.points.iter().all(|p| !p.is_violation(self.tolerance))
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} vs {}: {} points compared, {} skipped, {} backend errors; \
             max rel err {:.3}%, mean {:.3}% (tolerance {:.1}%)",
            self.baseline,
            self.reference,
            self.points.len(),
            self.skipped,
            self.backend_errors.len(),
            100.0 * self.max_rel_error(),
            100.0 * self.mean_rel_error(),
            100.0 * self.tolerance,
        );
        if let Some(w) = self.worst(1).first() {
            s.push_str(&format!(
                "; worst cell: {} × {} @ {:.0} GB/s ({:?}) — {:.4}s vs {:.4}s",
                w.shape,
                w.workload,
                w.point.budget,
                w.point.objective,
                w.baseline_secs,
                w.reference_secs,
            ));
        }
        s
    }
}

/// The sweep engine behind a [`crate::scenario::Session`]: a cost model,
/// a store of solved points that persists across the session's runs,
/// and an optional fault injector. Every session owns exactly one engine
/// and is the only place it is configured; the engine itself exposes
/// counters and the store flush ([`crate::scenario::Session::engine`]).
pub struct SweepEngine<'a> {
    cost_model: &'a CostModel,
    cache: SweepCache,
    /// The only map of solved points: read for each point, written on
    /// each solve, and flushed after each run. In memory unless
    /// [`crate::scenario::Session::with_store`] swapped in a file-backed
    /// store; an `Arc` so a long-lived host (the sweep server) can attach
    /// many short-lived sessions to one store.
    pub(crate) store: SharedSolveStore,
    /// Deterministic fault injection ([`crate::fault`]); `None` — one
    /// branch per point — unless `LIBRA_FAULT_PLAN` (or
    /// [`crate::scenario::Session::with_fault`]) armed a plan.
    pub(crate) fault: Option<FaultInjector>,
}

impl<'a> SweepEngine<'a> {
    /// An engine pricing designs with `cost_model`, armed from
    /// `LIBRA_FAULT_PLAN` when it is set.
    pub(crate) fn new(cost_model: &'a CostModel) -> Self {
        SweepEngine {
            cost_model,
            cache: SweepCache::default(),
            store: SharedSolveStore::default(),
            fault: FaultInjector::from_env(),
        }
    }

    /// Persistent-store counters since the store was opened (`None` for
    /// an in-memory store).
    pub fn store_stats(&self) -> Option<StoreStats> {
        let store = self.store.lock().expect(STORE_UNPOISONED);
        store.path().map(|_| store.stats())
    }

    /// Flushes the store's staged records to its file (a no-op for an
    /// in-memory store; also runs automatically after each run and on
    /// drop, where errors are swallowed — call this to observe them).
    ///
    /// # Errors
    /// Propagates [`crate::store::SolveStore::flush`] I/O failures.
    pub fn flush_store(&self) -> Result<(), LibraError> {
        self.store.lock().expect(STORE_UNPOISONED).flush()
    }

    /// Cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drives `f` over `cells` — ascending global grid indices: a
    /// session's range, a resumed stream's missing cells, or one search
    /// round's cells of the nominal grid — in one parallel or serial
    /// pass, returning the results in `cells` order. **Every** run path
    /// funnels through this one function, so the serial-vs-parallel
    /// bit-identity contract is enforced in exactly one place. The order
    /// the cells run in changes no answer: each seeded cell reads its
    /// group anchor's point from the run's [`PairTables`], and so does
    /// a partial run whose anchors lie outside its cells, so **a partial
    /// drive's results are bit-identical to the same cells of the full
    /// drive's.**
    fn drive<T: Send>(
        grid: &SweepGrid,
        cells: &[usize],
        exec: ExecMode,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        // Anchors first, so that a seeded cell seldom waits for its
        // anchor's solve on another worker.
        order.sort_by_key(|&k| !grid.is_anchor(cells[k]));
        let run = |&k: &usize| (k, f(cells[k]));
        let mut out: Vec<(usize, T)> = match exec {
            ExecMode::Parallel => order.par_iter().map(run).collect(),
            ExecMode::Serial => order.iter().map(run).collect(),
        };
        out.sort_unstable_by_key(|&(k, _)| k);
        out.into_iter().map(|(_, t)| t).collect()
    }

    /// Evaluates `point`, at global grid `index`, through the engine's
    /// store of solved points: a store hit, else a solve it stages. A
    /// group's anchor (the point at the grid's first budget) solves cold,
    /// once per run, when the first of the group's cells needs it; every
    /// other point seeds its solve from the anchor's design. A point
    /// whose anchor failed solves cold, and is keyed as the cold solve it
    /// is.
    // Both variants are full result records stored unboxed in the report;
    // boxing the Err would not shrink anything the caller keeps.
    #[allow(clippy::result_large_err)]
    fn eval<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        run: &RunTables,
        index: usize,
        point: GridPoint,
    ) -> Result<SweepResult, SweepError> {
        let shape = &grid.shapes()[point.shape];
        let workload = &workloads[point.workload];
        let fail = |error| SweepError::new(grid, workloads, point, error);
        let tables = run.of(index);
        let mut built = false;
        let targets = tables.targets.get_or_init(|| {
            built = true;
            let targets = workload.targets(shape)?;
            let hash = PointKey::targets_hash(shape, self.cost_model, &targets);
            Ok((targets, hash))
        });
        let counter = if built { &self.cache.expr_misses } else { &self.cache.expr_hits };
        counter.fetch_add(1, Ordering::Relaxed);
        let (targets, hash) = targets.as_ref().map_err(|e| fail(e.clone()))?;
        let anchor_budget = grid.budgets.value(0);
        // The point at `budget`, seeded from the anchor's design when
        // `seed` holds it, else solved cold.
        let solve_at = |budget: f64, seed: Option<&StoredPoint>| {
            let seed_budget = if seed.is_some() { anchor_budget } else { budget };
            let key = PointKey::new(*hash, budget, point.objective, seed_budget);
            self.cache.point(key, &self.store, || {
                if seed.is_some() {
                    self.cache.warm_seeded.fetch_add(1, Ordering::Relaxed);
                }
                // The only deep copy of the target expressions, paid solely
                // on a solve (DesignRequest owns its targets).
                let design = opt::optimize_seeded(
                    &DesignRequest {
                        shape,
                        targets: targets.clone(),
                        objective: point.objective,
                        constraints: vec![Constraint::TotalBw(budget)],
                        cost_model: self.cost_model,
                    },
                    seed.map(|s| s.design.bw.as_slice()),
                )?;
                let equal = opt::equal_bw(shape.ndims(), budget);
                let baseline = opt::evaluate(shape, targets, &equal, self.cost_model);
                Ok(StoredPoint { design, baseline })
            })
        };
        let anchor = tables.anchors[index % grid.objectives().len()]
            .get_or_init(|| solve_at(anchor_budget, None));
        let solved = if grid.is_anchor(index) {
            anchor.clone()
        } else {
            solve_at(point.budget, anchor.as_ref().ok())
        };
        let solved = solved.map_err(fail)?;
        Ok(SweepResult {
            point,
            shape: shape.clone(),
            workload: workload.name().to_string(),
            design: solved.design,
            baseline: solved.baseline,
        })
    }

    /// Runs the armed per-point fault sites for the point at global grid
    /// `index`: a slow solve sleeps here, a panic site panics (isolated by
    /// the per-point `catch_unwind` in [`SweepEngine::run_priced`]'s
    /// drive), and an error site returns the injected [`SweepError`] the
    /// caller turns into a poisoned record. `None` on the release path.
    fn injected_point_fault<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        index: usize,
        point: GridPoint,
    ) -> Option<SweepError> {
        let injector = self.fault.as_ref()?;
        let instance = index as u64;
        if injector.fires(fault::SWEEP_POINT_SLOW, instance) {
            std::thread::sleep(std::time::Duration::from_millis(
                injector.millis(fault::SWEEP_POINT_SLOW),
            ));
        }
        if injector.fires(fault::SWEEP_POINT_PANIC, instance) {
            panic!("injected fault: {} at grid index {index}", fault::SWEEP_POINT_PANIC);
        }
        if injector.fires(fault::SWEEP_POINT_ERROR, instance) {
            let message =
                format!("injected fault: {} at grid index {index}", fault::SWEEP_POINT_ERROR);
            return Some(SweepError::new(grid, workloads, point, LibraError::BadRequest(message)));
        }
        None
    }

    /// Converts a caught per-point panic payload into the poisoned
    /// [`SweepError`] that streams out as a failed record — the point's
    /// failure stays the point's, never the sweep's.
    fn panic_to_error<W: SweepWorkload>(
        grid: &SweepGrid,
        workloads: &[W],
        point: GridPoint,
        payload: &(dyn std::any::Any + Send),
    ) -> SweepError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        let error = LibraError::BadRequest(format!("point evaluation panicked: {message}"));
        SweepError::new(grid, workloads, point, error)
    }

    /// Evaluates one grid point (`point`, at global grid `index`) and,
    /// when its workload exposes a [`CommPlan`], prices that plan **once
    /// under each backend** at the optimized design's bandwidth vector —
    /// the shared body of every priced sweep, so warm-start seeding and
    /// op-eligibility rules live in exactly one place. An empty backend
    /// slice skips pricing entirely (a plain sweep never builds a plan).
    fn eval_priced<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        run: &RunTables,
        index: usize,
        point: GridPoint,
        backends: &[&dyn EvalBackend],
    ) -> PricedOutcome {
        if let Some(error) = self.injected_point_fault(grid, workloads, index, point) {
            return (Err(error), None);
        }
        let outcome = self.eval(grid, workloads, run, index, point);
        if backends.is_empty() {
            return (outcome, None);
        }
        let Ok(result) = &outcome else { return (outcome, None) };
        let shape = &grid.shapes()[point.shape];
        let workload = &workloads[point.workload];
        let fail = |error| SweepError::new(grid, workloads, point, error);
        let planned = run.of(index).plan.get_or_init(|| workload.comm_plan(shape));
        let priced = match planned {
            Err(e) => Some(Err(fail(e.clone()))),
            Ok(None) => None,
            Ok(Some(plan)) => {
                let n = shape.ndims();
                let price = || -> Result<Vec<f64>, LibraError> {
                    backends.iter().map(|b| b.eval_plan(n, &result.design.bw, plan)).collect()
                };
                Some(price().map_err(fail))
            }
        };
        (outcome, priced)
    }

    /// Prices `cells` — ascending global indices into `grid`'s
    /// enumeration — under `backends`: the single driver behind every
    /// [`crate::scenario::Session`] run and every adaptive-search round.
    /// Returns each cell's outcome in `cells` order. Every seeded cell
    /// seeds from the anchor the full run seeds it from, so shard outputs
    /// concatenate back into the unsharded run bit for bit. The run
    /// builds its own [`RunTables`]; only solved points outlive it, in
    /// the engine's store, which is flushed before this returns.
    pub(crate) fn run_priced<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        backends: &[&dyn EvalBackend],
        cells: &[usize],
        exec: ExecMode,
    ) -> Vec<PricedOutcome> {
        let run = RunTables::new(grid, cells);
        // Per-point failure isolation: a panicking eval (a buggy
        // backend, a poisoned workload closure, an injected chaos
        // panic) becomes that one point's poisoned record — error set,
        // no times, JSONL-representable — instead of tearing down the
        // whole rayon fan-out. `catch_unwind` costs nothing on the
        // non-panicking path.
        let outcomes = Self::drive(grid, cells, exec, |i| {
            let p = grid.point(i, workloads.len());
            catch_unwind(AssertUnwindSafe(|| {
                self.eval_priced(grid, workloads, &run, i, p, backends)
            }))
            .unwrap_or_else(|payload| {
                (Err(Self::panic_to_error(grid, workloads, p, payload.as_ref())), None)
            })
        });
        // Best-effort persistence at the run boundary (so an interrupted
        // *next* run still finds this one's solves); flush errors stay
        // observable via `flush_store`, and drop retries.
        let _ = self.flush_store();
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Collective, CommModel, GroupSpan};
    use crate::eval::{Analytical, ScaledBackend};
    use crate::network::DimScope;
    use crate::scenario::Session;
    use crate::workload::CommOp;

    fn allreduce_workload(name: &str, gb: f64) -> FnWorkload {
        FnWorkload::new(name, move |shape: &NetworkShape| {
            let comm = CommModel::default();
            Ok(vec![(
                1.0,
                comm.time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape)),
            )])
        })
    }

    /// Like [`allreduce_workload`], with the matching communication plan
    /// attached so the workload is cross-validatable.
    fn planned_workload(name: &'static str, gb: f64) -> FnWorkload {
        allreduce_workload(name, gb).with_plan(move |shape: &NetworkShape| {
            Ok(CommPlan::serial([CommOp::new(
                Collective::AllReduce,
                gb * 1e9,
                GroupSpan::full(shape),
            )]))
        })
    }

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_shape("FC(8)_SW(4)".parse().unwrap())
            .with_budgets([100.0, 300.0])
            .with_objectives([Objective::Perf])
    }

    /// A workload whose compute floor keeps its optima from scaling with
    /// the budget, so the seed a PerfPerCost solve starts from shows in
    /// its design's bits.
    fn floored_workload() -> FnWorkload {
        FnWorkload::new("floored", |_: &NetworkShape| {
            let link =
                BwExpr::Max(vec![BwExpr::Const(0.05), BwExpr::Ratio { coeff: 10.0, dim: 0 }]);
            Ok(vec![(1.0, BwExpr::Sum(vec![link, BwExpr::Ratio { coeff: 2.0, dim: 1 }]))])
        })
    }

    /// A fresh cache file for one test.
    fn store_path(name: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join(format!("libra-sweep-test-{}-{name}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn grid_dedups_and_counts() {
        let g = small_grid()
            .with_shape("RI(4)_SW(8)".parse().unwrap()) // dup shape
            .with_budgets([100.0, -5.0, f64::NAN]) // dup + invalid budgets
            .with_objectives([Objective::Perf]); // dup objective
        assert_eq!(g.shapes().len(), 2);
        assert_eq!(g.budgets(), &[100.0, 300.0]);
        assert_eq!(g.objectives(), &[Objective::Perf]);
        assert_eq!(g.len(3), 2 * 3 * 2);
        assert!(g.is_empty(0));
        assert_eq!(g.points(1).len(), g.len(1));
    }

    #[test]
    fn sweep_evaluates_every_point_and_memoizes() {
        let grid = small_grid().with_objectives([Objective::PerfPerCost]);
        let wls = [allreduce_workload("a", 1.0), allreduce_workload("b", 4.0)];
        let cm = CostModel::default();
        // A parallel run's counters are exact: the run builds each
        // (shape, workload) pair's expressions once, however many workers
        // reach the pair at once.
        let session = Session::new(&cm);
        let report = session.run(&grid, &wls, &[]).sweep;
        assert_eq!(report.results.len(), 2 * 2 * 2 * 2);
        assert!(report.errors.is_empty());
        // Expressions are built once per (shape, workload)...
        assert_eq!(report.cache.expr_misses, 4);
        assert_eq!(report.cache.expr_hits, 12);
        // ...and every distinct design is solved exactly once, into an
        // in-memory store that reports no file counters.
        assert_eq!(report.cache.design_misses, 16);
        assert_eq!(session.engine().store_stats(), None);
        // A serial re-run over the same grid builds its own expressions and
        // takes every design from the engine's store.
        let again = session.with_mode(ExecMode::Serial).run(&grid, &wls, &[]).sweep;
        assert_eq!(again.results, report.results);
        assert_eq!(again.cache.expr_misses, 8);
        assert_eq!(again.cache.design_misses, 16);
        assert_eq!(again.cache.design_hits, 16);
    }

    /// A session's earlier runs do not change its answers: the store keys
    /// a point by the budget whose optimum seeded it as well, so after a
    /// `[300, 400]` run a `[100, 400]` run seeds 400 from the 100 anchor,
    /// as a fresh session does ([`floored_workload`] shows a seed from
    /// another anchor in the PerfPerCost design's bits).
    #[test]
    fn earlier_runs_do_not_change_a_sessions_answers() {
        let floored = floored_workload();
        let grid = |budgets: [f64; 2]| {
            SweepGrid::new()
                .with_shape("RI(4)_SW(8)".parse().unwrap())
                .with_budgets(budgets)
                .with_objectives([Objective::Perf, Objective::PerfPerCost])
        };
        let cm = CostModel::default();
        let session = Session::new(&cm);
        let earlier = session.run(&grid([300.0, 400.0]), &[&floored], &[]).sweep;
        assert!(earlier.errors.is_empty());
        let after = session.run(&grid([100.0, 400.0]), &[&floored], &[]).sweep;
        let fresh = Session::new(&cm).run(&grid([100.0, 400.0]), &[&floored], &[]).sweep;
        assert!(fresh.errors.is_empty());
        assert_eq!(after.results, fresh.results);
        assert_eq!(after.errors, fresh.errors);
        // The second run solves its 400 cells again: their keys carry the
        // seed budget 100, the first run's carry 300.
        assert_eq!(after.cache.design_misses, 4 + 4);
    }

    /// A store never serves a design solved from other targets: when a
    /// workload keeps its name but moves four times the traffic, a
    /// second session over the first one's store reads nothing from it
    /// and reports what a store-less run reports.
    #[test]
    fn a_store_never_serves_a_design_solved_from_other_targets() {
        let grid = small_grid();
        let cm = CostModel::default();
        let path = store_path("other-targets");
        let run = |gb: f64| {
            let session = Session::new(&cm).with_store(&path).unwrap();
            let report = session.run(&grid, &[allreduce_workload("w", gb)], &[]).sweep;
            (report, session.engine().store_stats().unwrap())
        };
        run(1.0);
        let (report, stats) = run(4.0);
        let want = Session::new(&cm).run(&grid, &[allreduce_workload("w", 4.0)], &[]).sweep;
        assert!(want.errors.is_empty());
        assert_eq!(report.results, want.results);
        assert_eq!(stats.hits, 0);
        assert_eq!(report.cache.design_misses, grid.len(1));
        let _ = std::fs::remove_file(&path);
    }

    /// A fault-poisoned anchor poisons only its own record, and not the
    /// store: its group still seeds from the anchor's solve, so the
    /// surviving 400 GB/s record is a clean run's ([`floored_workload`]
    /// shows a cold solve in its bits), and a clean run over that store
    /// reports what a clean store-less run reports.
    #[test]
    fn a_fault_poisoned_anchor_does_not_poison_the_store() {
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0, 400.0])
            .with_objectives([Objective::PerfPerCost]);
        let wls = [floored_workload()];
        let cm = CostModel::default();
        let want = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        assert!(want.errors.is_empty());
        let path = store_path("poisoned-anchor");
        let chaos = FaultInjector::from_spec("sweep.point.error=#1").unwrap();
        let poisoned = Session::new(&cm).with_store(&path).unwrap().with_fault(chaos).unwrap();
        let report = poisoned.run(&grid, &wls, &[]).sweep;
        assert_eq!(report.errors.len(), 1, "the anchor is poisoned");
        assert_eq!(report.cache.warm_seeded, 1, "its group still seeds from the anchor's solve");
        assert_eq!(report.results, want.results[1..], "the survivor is a clean run's");
        drop(poisoned);
        let clean = Session::new(&cm).with_store(&path).unwrap().run(&grid, &wls, &[]).sweep;
        assert_eq!(clean.results, want.results);
        assert_eq!(clean.errors, want.errors);
        let _ = std::fs::remove_file(&path);
    }

    /// Overlapping grids share stored solves: after a `[100, 300]` run, a
    /// fresh session's `[100, 300, 500]` run over the same store solves
    /// only its 500 GB/s cells, reads the rest from the store, and
    /// reports what a store-less run reports.
    #[test]
    fn overlapping_grids_share_stored_solves() {
        let grid = |budgets: &[f64]| {
            SweepGrid::new()
                .with_shape("RI(4)_SW(8)".parse().unwrap())
                .with_budgets(budgets.iter().copied())
                .with_objectives([Objective::Perf, Objective::PerfPerCost])
        };
        let wls = [allreduce_workload("a", 1.0)];
        let cm = CostModel::default();
        let path = store_path("overlap");
        Session::new(&cm).with_store(&path).unwrap().run(&grid(&[100.0, 300.0]), &wls, &[]);
        let wider = grid(&[100.0, 300.0, 500.0]);
        let session = Session::new(&cm).with_store(&path).unwrap();
        let report = session.run(&wider, &wls, &[]).sweep;
        assert_eq!(report.cache.design_misses, 2, "only the 500 GB/s cells solve");
        assert_eq!(report.cache.warm_seeded, 2, "seeded from the stored anchors");
        assert_eq!(report.cache.design_hits, 4);
        assert_eq!(session.engine().store_stats().unwrap().hits, 4);
        let want = Session::new(&cm).run(&wider, &wls, &[]).sweep;
        assert!(want.errors.is_empty());
        assert_eq!(report.results, want.results);
        assert_eq!(report.errors, want.errors);
        let _ = std::fs::remove_file(&path);
    }

    /// Two shapes that differ only in a dimension's scope are priced
    /// differently, so they never share a solved point: a PerfPerCost grid
    /// over both reports, in parallel and serially, what a run over each
    /// shape alone reports, and a store filled by one serves the other
    /// nothing.
    #[test]
    fn shapes_that_differ_only_in_scope_share_no_solves() {
        let shape: NetworkShape = "RI(4)_SW(8)".parse().unwrap();
        let mut dims = shape.dims().to_vec();
        dims[1].scope = DimScope::Node;
        let rescoped = NetworkShape::with_dims(dims).unwrap();
        let grid = |shapes: &[&NetworkShape]| {
            SweepGrid::new()
                .with_shapes(shapes.iter().map(|&s| s.clone()))
                .with_budgets([100.0, 300.0])
                .with_objectives([Objective::PerfPerCost])
        };
        let wls = [allreduce_workload("a", 1.0)];
        let cm = CostModel::default();
        let designs = |report: SweepReport| -> Vec<(NetworkShape, Design, Design)> {
            assert!(report.errors.is_empty());
            report.results.into_iter().map(|r| (r.shape, r.design, r.baseline)).collect()
        };
        let alone: Vec<_> = [&shape, &rescoped]
            .into_iter()
            .flat_map(|s| designs(Session::new(&cm).run(&grid(&[s]), &wls, &[]).sweep))
            .collect();
        assert_ne!(alone[0].1.cost, alone[2].1.cost, "the scopes are priced alike");
        for mode in [ExecMode::Parallel, ExecMode::Serial] {
            let both =
                Session::new(&cm).with_mode(mode).run(&grid(&[&shape, &rescoped]), &wls, &[]);
            assert_eq!(designs(both.sweep), alone, "{mode:?}");
        }
        let path = store_path("scopes");
        Session::new(&cm).with_store(&path).unwrap().run(&grid(&[&shape]), &wls, &[]);
        let session = Session::new(&cm).with_store(&path).unwrap();
        let report = session.run(&grid(&[&rescoped]), &wls, &[]).sweep;
        assert_eq!(session.engine().store_stats().unwrap().hits, 0);
        assert_eq!(designs(report), alone[2..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_arrive_in_grid_order() {
        let grid = small_grid();
        let wls = [allreduce_workload("a", 1.0)];
        let cm = CostModel::default();
        let report = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        let points = grid.points(wls.len());
        assert_eq!(report.results.len(), points.len());
        for (r, p) in report.results.iter().zip(&points) {
            assert_eq!(r.point, *p);
        }
    }

    #[test]
    fn designs_beat_equal_bw_and_rankings_agree() {
        let grid = small_grid();
        let wls = [allreduce_workload("a", 10.0)];
        let cm = CostModel::default();
        let report = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        for r in &report.results {
            assert!(r.speedup() >= 1.0 - 1e-6, "PerfOpt lost to EqualBW: {r:?}");
        }
        let by_speed = report.ranked(RankBy::Speedup);
        for w in by_speed.windows(2) {
            assert!(w[0].speedup() >= w[1].speedup());
        }
        let by_time = report.ranked(RankBy::WeightedTime);
        for w in by_time.windows(2) {
            assert!(w[0].design.weighted_time <= w[1].design.weighted_time);
        }
    }

    #[test]
    fn pareto_front_is_nondominated_and_covers_extremes() {
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0, 200.0, 400.0, 800.0])
            .with_objectives([Objective::Perf, Objective::PerfPerCost]);
        let wls = [allreduce_workload("a", 10.0)];
        let cm = CostModel::default();
        let report = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        let front = report.pareto_front();
        assert!(!front.is_empty());
        for f in &front {
            for r in &report.results {
                let dominates = r.design.weighted_time <= f.design.weighted_time
                    && r.design.cost <= f.design.cost
                    && (r.design.weighted_time < f.design.weighted_time
                        || r.design.cost < f.design.cost);
                assert!(!dominates, "front member dominated by {r:?}");
            }
        }
        // The globally fastest and globally cheapest designs are always on
        // the front.
        let fastest = report.ranked(RankBy::WeightedTime)[0];
        let cheapest = report.ranked(RankBy::Cost)[0];
        assert!(front.iter().any(|f| f.point == fastest.point));
        assert!(front.iter().any(|f| f.point == cheapest.point));
        // Deterministic ordering: cost ascending, equal costs broken by
        // weighted time ascending.
        for w in front.windows(2) {
            let by_cost = w[0].design.cost.total_cmp(&w[1].design.cost);
            assert!(
                by_cost == std::cmp::Ordering::Less
                    || (by_cost == std::cmp::Ordering::Equal
                        && w[0].design.weighted_time <= w[1].design.weighted_time),
                "front must be ordered by cost then weighted time"
            );
        }
    }

    /// Workloads whose targets do not build, or build but do not solve,
    /// fail at their points without stopping the sweep, and a failed
    /// solve is not kept: a second run solves it again, and the store
    /// stages only the good workload's points.
    #[test]
    fn workload_errors_are_collected_not_fatal() {
        let bad = FnWorkload::new("bad", |_: &NetworkShape| {
            Err(LibraError::BadRequest("unmappable".into()))
        });
        let unsolvable = FnWorkload::new("unsolvable", |_: &NetworkShape| Ok(vec![]));
        let grid = small_grid();
        let wls: Vec<Box<dyn SweepWorkload>> =
            vec![Box::new(allreduce_workload("good", 1.0)), Box::new(bad), Box::new(unsolvable)];
        let cm = CostModel::default();
        let path = store_path("failed-solves");
        let session = Session::new(&cm).with_store(&path).unwrap();
        let report = session.run(&grid, &wls, &[]).sweep;
        assert_eq!(report.results.len(), 4, "good workload still evaluated");
        assert_eq!(report.errors.len(), 8, "bad and unsolvable fail at every point");
        for e in &report.errors {
            let want = if e.workload == "bad" { "unmappable" } else { "no target workloads" };
            assert!(matches!(&e.error, LibraError::BadRequest(m) if m == want), "{e:?}");
        }
        assert_eq!(report.cache.design_misses, 4 + 4, "good and unsolvable solve");
        let again = session.run(&grid, &wls, &[]).sweep;
        assert_eq!((again.results, again.errors), (report.results, report.errors));
        assert_eq!(again.cache.design_misses, 8 + 4, "unsolvable's points solve again");
        assert_eq!(again.cache.design_hits, 4, "good's points are read back");
        assert_eq!(session.engine().store_stats().unwrap().staged, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cross_validation_of_identical_backends_is_exact() {
        let grid = small_grid().with_objectives([Objective::PerfPerCost]);
        let wls = [planned_workload("a", 1.0), planned_workload("b", 4.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let session = Session::new(&cm).with_tolerance(0.0);
        let report = session.run(&grid, &wls, &[&a, &a]);
        let n_points = grid.len(wls.len());
        assert_eq!(report.sweep.results.len(), n_points);
        let pair = &report.divergence.pairs[0];
        assert_eq!(pair.points.len(), n_points);
        assert_eq!(pair.skipped, 0);
        assert!(pair.backend_errors.is_empty());
        assert_eq!(report.divergence.max_rel_error(), 0.0);
        assert!(report.divergence.within_tolerance());
        // The sweep half is identical to a plain run over the same engine.
        let plain = session.run(&grid, &wls, &[]).sweep;
        assert_eq!(plain.results, report.sweep.results);
        // Parallel and serial cross-validated folds agree bit-for-bit (the
        // serial fold solves on a fresh engine, not from the first's store).
        let serial = Session::new(&cm).with_tolerance(0.0).with_mode(ExecMode::Serial);
        let serial = serial.run(&grid, &wls, &[&a, &a]);
        assert_eq!(serial.sweep.cache.design_hits, 0, "the serial fold solves every point");
        assert_eq!(serial.sweep.results, report.sweep.results);
        assert_eq!(serial.divergence, report.divergence);
    }

    #[test]
    fn planless_workloads_are_skipped_not_failed() {
        let grid = small_grid();
        let wls = [allreduce_workload("plain", 1.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let report = Session::new(&cm).run(&grid, &wls, &[&a, &a]);
        assert_eq!(report.sweep.results.len(), grid.len(1));
        let pair = &report.divergence.pairs[0];
        assert!(pair.points.is_empty());
        assert_eq!(pair.skipped, grid.len(1));
        assert!(report.divergence.within_tolerance(), "nothing compared → vacuously fine");
    }

    #[test]
    fn skewed_backend_trips_the_divergence_report() {
        let grid = small_grid();
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let analytical = Analytical::new();
        let skewed = ScaledBackend::new(Analytical::new(), 1.5, "skewed");
        let report =
            Session::new(&cm).with_tolerance(0.10).run(&grid, &wls, &[&analytical, &skewed]);
        let d = &report.divergence.pairs[0];
        assert_eq!(d.reference, "skewed");
        assert!(!d.within_tolerance());
        assert_eq!(d.violations().len(), d.points.len(), "every point is off by 1.5×");
        // rel_error(t, 1.5t) = 0.5t / 1.5t = 1/3.
        assert!((d.max_rel_error() - 1.0 / 3.0).abs() < 1e-12);
        assert!((d.mean_rel_error() - 1.0 / 3.0).abs() < 1e-12);
        // worst() ranks by error and truncates.
        assert_eq!(d.worst(2).len(), 2);
        assert!(d.worst(1)[0].rel_error >= d.worst(2)[1].rel_error);
        assert!(d.summary().contains("worst cell"));
    }

    /// A backend producing NaN times must yield a *diagnosable* failing
    /// report: the NaN point shows up in violations(), max_rel_error()
    /// propagates the NaN instead of reporting 0, and within_tolerance()
    /// fails — all three views agree.
    #[test]
    fn nan_rel_errors_are_violations_not_silence() {
        let grid = small_grid();
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let analytical = Analytical::new();
        let poisoned = ScaledBackend::new(Analytical::new(), f64::NAN, "poisoned");
        let report =
            Session::new(&cm).with_tolerance(0.10).run(&grid, &wls, &[&analytical, &poisoned]);
        let d = &report.divergence.pairs[0];
        assert!(d.points.iter().all(|p| p.rel_error.is_nan()));
        assert!(!d.within_tolerance());
        assert_eq!(d.violations().len(), d.points.len(), "NaN points must be violations");
        assert!(d.max_rel_error().is_nan(), "a failing report must not summarize as 0%");
    }

    #[test]
    fn three_way_cross_validation_of_identical_backends_is_exact() {
        let grid = small_grid();
        let wls = [planned_workload("a", 1.0), planned_workload("b", 4.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let session = Session::new(&cm).with_tolerance(0.0);
        let report = session.run(&grid, &wls, &[&a, &a, &a]);
        let n_points = grid.len(wls.len());
        assert_eq!(report.sweep.results.len(), n_points);
        assert_eq!(report.divergence.pairs.len(), 3);
        for pair in &report.divergence.pairs {
            assert_eq!(pair.points.len(), n_points);
            assert_eq!(pair.skipped, 0);
            assert!(pair.backend_errors.is_empty());
            assert_eq!(pair.max_rel_error(), 0.0);
        }
        assert_eq!(report.divergence.max_rel_error(), 0.0);
        assert!(report.divergence.within_tolerance());
        // The sweep half is a plain run; parallel and serial folds agree
        // bit-for-bit (the serial fold solves on a fresh engine).
        assert_eq!(session.run(&grid, &wls, &[]).sweep.results, report.sweep.results);
        let serial = Session::new(&cm).with_tolerance(0.0).with_mode(ExecMode::Serial);
        let serial = serial.run(&grid, &wls, &[&a, &a, &a]);
        assert_eq!(serial.sweep.cache.design_hits, 0, "the serial fold solves every point");
        assert_eq!(serial.sweep.results, report.sweep.results);
        assert_eq!(serial.divergence, report.divergence);
    }

    #[test]
    fn three_way_skew_trips_only_pairs_involving_the_skewed_backend() {
        let grid = small_grid();
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let b = Analytical::new();
        let skewed = ScaledBackend::new(Analytical::new(), 1.5, "skewed");
        let report = Session::new(&cm).with_tolerance(0.10).run(&grid, &wls, &[&a, &b, &skewed]);
        let d = &report.divergence;
        assert!(!d.within_tolerance());
        // (a, b) agree exactly; both pairs against the skew are off by 1/3.
        let ab = d.pair("analytical", "analytical").unwrap();
        assert_eq!(ab.max_rel_error(), 0.0);
        assert!(ab.within_tolerance());
        let a_skew = d.pair("analytical", "skewed").unwrap();
        assert!((a_skew.max_rel_error() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a_skew.violations().len(), a_skew.points.len());
        assert!(d.pair("skewed", "nonexistent").is_none());
        assert!((d.max_rel_error() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.summary().lines().count(), 3);
    }

    #[test]
    fn three_way_skips_and_backend_errors_propagate_to_every_pair() {
        let grid = small_grid();
        let planless = allreduce_workload("planless", 1.0);
        let bad = allreduce_workload("bad-plan", 1.0).with_plan(|_: &NetworkShape| {
            Ok(CommPlan::serial([CommOp::new(
                Collective::AllReduce,
                1e9,
                GroupSpan::new(vec![(7, 4)]),
            )]))
        });
        let wls: Vec<Box<dyn SweepWorkload>> = vec![Box::new(planless), Box::new(bad)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let report = Session::new(&cm).run(&grid, &wls, &[&a, &a, &a]);
        let per_wl = grid.len(1);
        for pair in &report.divergence.pairs {
            assert!(pair.points.is_empty());
            assert_eq!(pair.skipped, per_wl, "planless points skip in every pair");
            assert_eq!(pair.backend_errors.len(), per_wl, "bad plans error in every pair");
        }
        assert!(!report.divergence.within_tolerance());
    }

    #[test]
    fn backend_failures_are_reported_as_errors() {
        // A plan spanning a dimension the fabric lacks: both backends must
        // reject it, and the report must surface that as a backend error.
        let grid = small_grid();
        let wl = allreduce_workload("bad-plan", 1.0).with_plan(|_: &NetworkShape| {
            Ok(CommPlan::serial([CommOp::new(
                Collective::AllReduce,
                1e9,
                GroupSpan::new(vec![(7, 4)]),
            )]))
        });
        let cm = CostModel::default();
        let a = Analytical::new();
        let report = Session::new(&cm).run(&grid, &[wl], &[&a, &a]);
        assert_eq!(report.sweep.results.len(), grid.len(1), "designs still solve");
        let pair = &report.divergence.pairs[0];
        assert!(pair.points.is_empty());
        assert_eq!(pair.backend_errors.len(), grid.len(1));
        assert!(!report.divergence.within_tolerance());
    }

    /// Warm-started budget-ladder sweeps agree with cold solves
    /// ([`opt::optimize`]) to within solver tolerance, actually seed the
    /// non-anchor budgets, and keep the parallel ≡ serial bit-identity.
    #[test]
    fn warm_start_agrees_with_cold_and_seeds_the_ladder() {
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0, 200.0, 400.0, 800.0])
            .with_objectives([Objective::Perf, Objective::PerfPerCost]);
        let wls = [allreduce_workload("a", 10.0)];
        let cm = CostModel::default();
        let warm = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        assert!(warm.errors.is_empty());
        // Per objective, 3 of the 4 budgets are non-anchor and seed from
        // the anchor.
        assert_eq!(warm.cache.warm_seeded, 6);
        // Each point agrees with a cold solve on the metric it optimizes.
        // PerfPerCost optima are a plateau in `weighted_time × cost`, so
        // only the product is determined, and a seeded PerfPerCost search
        // stops at a coarser cost tolerance than the cold one.
        let shape = &grid.shapes()[0];
        let targets = wls[0].targets(shape).unwrap();
        for w in &warm.results {
            let cold = opt::optimize(&DesignRequest {
                shape,
                targets: targets.clone(),
                objective: w.point.objective,
                constraints: vec![Constraint::TotalBw(w.point.budget)],
                cost_model: &cm,
            })
            .unwrap();
            let (metric, bound): (fn(&Design) -> f64, f64) = match w.point.objective {
                Objective::Perf => (|d| d.weighted_time, 1e-4),
                Objective::PerfPerCost => (|d| d.weighted_time * d.cost, 1e-3),
            };
            let (mw, mc) = (metric(&w.design), metric(&cold));
            let rel = (mw - mc).abs() / mc;
            assert!(rel < bound, "warm vs cold diverged: {rel} at {:?}", w.point);
        }
        // Parallel and serial warm runs are bit-identical on fresh engines.
        let serial = Session::new(&cm).with_mode(ExecMode::Serial).run(&grid, &wls, &[]).sweep;
        assert_eq!(warm.results, serial.results);
    }

    /// An armed `sweep.point.error` site poisons exactly its grid
    /// indices — the rest of the sweep completes, each survivor exactly
    /// as a clean run prices it — an identically seeded rerun reproduces
    /// the chaos bit-for-bit, and an armed site that never fires
    /// perturbs nothing.
    #[test]
    fn injected_point_errors_poison_only_their_points() {
        // 2 shapes × 1 workload × 2 budgets × 1 objective, shape-major:
        // `#2` fires at grid indices 0 and 1 — both budgets of shape 0.
        let grid = small_grid();
        let wls = [allreduce_workload("a", 1.0)];
        let cm = CostModel::default();
        let run = |spec: Option<&str>| {
            let mut session = Session::new(&cm);
            if let Some(spec) = spec {
                session = session.with_fault(FaultInjector::from_spec(spec).unwrap()).unwrap();
            }
            session.run(&grid, &wls, &[]).sweep
        };
        let report = run(Some("seed=3;sweep.point.error=#2"));
        assert_eq!(report.errors.len(), 2);
        assert_eq!(report.results.len(), 2);
        for e in &report.errors {
            assert_eq!(e.point.shape, 0, "only shape 0's indices fire");
            let message = e.error.to_string();
            assert!(
                message.contains("injected fault: sweep.point.error"),
                "unexpected error {message:?}"
            );
        }
        // Chaos is deterministic: a fresh engine with the same plan
        // produces the same surviving results and the same failures.
        let again = run(Some("seed=3;sweep.point.error=#2"));
        assert_eq!(again.results, report.results);
        assert_eq!(
            again.errors.iter().map(|e| e.point).collect::<Vec<_>>(),
            report.errors.iter().map(|e| e.point).collect::<Vec<_>>()
        );
        // Disarmed, the same grid is clean — injection is opt-in only.
        let clean = run(None);
        assert!(clean.errors.is_empty());
        assert_eq!(clean.results.len(), 4);
        assert_eq!(run(Some("seed=3;sweep.point.error=0")), clean, "a silent site perturbed");
        // An injected fault poisons a point's record, not its solve: a
        // group whose anchor is poisoned still seeds from the anchor's
        // design, so every survivor matches the clean run.
        for r in &report.results {
            let c = clean.results.iter().find(|c| c.point == r.point).unwrap();
            assert_eq!(r, c, "survivor at {:?} differs from the clean run", r.point);
        }
    }

    /// A panicking point eval (here an injected `sweep.point.panic`) is
    /// caught at the point level: it becomes that point's poisoned
    /// error while every other point still solves, identically under
    /// the parallel and serial folds.
    #[test]
    fn injected_panics_are_isolated_per_point() {
        let grid = small_grid();
        let wls = [allreduce_workload("a", 1.0)];
        let cm = CostModel::default();
        let chaos = FaultInjector::from_spec("sweep.point.panic=#1").unwrap();
        let report = Session::new(&cm).with_fault(chaos.clone()).unwrap().run(&grid, &wls, &[]);
        let report = report.sweep;
        assert_eq!(report.results.len(), 3, "the other three points survive");
        assert_eq!(report.errors.len(), 1);
        let message = report.errors[0].error.to_string();
        assert!(message.contains("point evaluation panicked"), "got {message:?}");
        assert!(message.contains("injected fault: sweep.point.panic"), "got {message:?}");
        let serial = Session::new(&cm)
            .with_fault(chaos)
            .unwrap()
            .with_mode(ExecMode::Serial)
            .run(&grid, &wls, &[])
            .sweep;
        assert_eq!(serial.results, report.results);
        assert_eq!(serial.errors.len(), 1);
    }

    /// A targets or plan build that panics is not kept: each point that
    /// needs it builds it again, and each such point is poisoned.
    #[test]
    fn panicking_builds_poison_every_point_that_needs_them() {
        let grid = small_grid();
        let no_targets = FnWorkload::new("no-targets", |_: &NetworkShape| {
            panic!("targets build");
        });
        let no_plan = allreduce_workload("no-plan", 1.0)
            .with_plan(|_: &NetworkShape| -> Result<CommPlan, LibraError> { panic!("plan build") });
        let wls: Vec<Box<dyn SweepWorkload>> = vec![Box::new(no_targets), Box::new(no_plan)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let report = Session::new(&cm).run(&grid, &wls, &[&a]).sweep;
        assert!(report.results.is_empty());
        assert_eq!(report.errors.len(), grid.len(wls.len()));
        for e in &report.errors {
            let want = if e.workload == "no-targets" { "targets build" } else { "plan build" };
            assert!(e.error.to_string().contains(want), "{e:?}");
        }
        // Only no-plan's targets were built, once per shape.
        assert_eq!(report.cache.expr_misses, 2);
        assert_eq!(report.cache.design_misses, grid.len(1));
    }

    /// Panics pricing a design at the 100 GB/s budget, the groups' anchors
    /// in [`small_grid`].
    struct PanicsAt100;

    impl EvalBackend for PanicsAt100 {
        fn name(&self) -> &str {
            "panics-at-100"
        }

        fn eval_plan(&self, _: usize, bw: &[f64], _: &CommPlan) -> Result<f64, LibraError> {
            assert!((bw.iter().sum::<f64>() - 100.0).abs() > 1e-6, "pricing an anchor");
            Ok(1.0)
        }
    }

    /// An anchor whose pricing panics is poisoned, but its design solved
    /// first, so it still seeds its group: the other budgets match a
    /// clean run's bit for bit.
    #[test]
    fn an_anchor_whose_pricing_panics_still_seeds_its_group() {
        let grid = small_grid();
        let wls = [planned_workload("a", 1.0)];
        let cm = CostModel::default();
        let report = Session::new(&cm).run(&grid, &wls, &[&PanicsAt100]).sweep;
        assert_eq!(report.errors.len(), 2, "both anchors are poisoned");
        assert!(report.errors.iter().all(|e| e.point.budget == 100.0));
        assert_eq!(report.cache.warm_seeded, 2, "both groups seed their 300 GB/s cell");
        let clean = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        let seeded: Vec<_> = clean.results.iter().filter(|r| r.point.budget == 300.0).collect();
        assert_eq!(report.results.iter().collect::<Vec<_>>(), seeded);
    }
}
