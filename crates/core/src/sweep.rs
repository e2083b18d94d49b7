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
//!   [`crate::scenario`] module — evaluates the grid in parallel,
//!   memoizing repeated `(shape, workload)` target-expression builds and
//!   repeated design solves behind the engine's sharded concurrent cache,
//!   and prices every grid point's [`CommPlan`] under **any number** of
//!   [`EvalBackend`]s in the same fan-out, reporting each pair's
//!   per-point disagreement as a [`DivergenceReport`] — the guard against
//!   ranking thousands of designs with a silently broken model;
//! * [`SweepReport`] returns results in grid order, plus ranking helpers
//!   and the perf-vs-cost [Pareto front](SweepReport::pareto_front);
//! * design solves are **warm-started** along the budget axis: one anchor
//!   budget per shape × workload × objective group solves cold, every
//!   other budget seeds its interior-point solve from the nearest anchor's
//!   optimum ([`opt::optimize_seeded`]) — phase-barriered so parallel and
//!   serial runs stay bit-identical.
//!
//! Every session run funnels into the same internal
//! [`ExecMode`]-parameterized drive, so the serial-vs-parallel
//! bit-identity contract is enforced in exactly one place.
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

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use rayon::prelude::*;

use crate::cost::CostModel;
use crate::error::LibraError;
use crate::eval::{rel_error, CommPlan, EvalBackend};
use crate::expr::BwExpr;
use crate::fault::{self, FaultInjector};
use crate::network::NetworkShape;
use crate::opt::{self, Constraint, Design, DesignRequest, Objective};
use crate::store::{Fingerprint, SharedSolveStore, StoreStats, StoredPoint};

/// One grid point's priced outcome: the design solve plus (when the
/// workload exposes a plan and backends were supplied) the per-backend
/// plan times, in backend order.
pub(crate) type PricedOutcome =
    (Result<SweepResult, SweepError>, Option<Result<Vec<f64>, SweepError>>);

/// The streaming hook [`SweepEngine::run_priced`] calls once per grid
/// point, in grid-enumeration order, as the fold assembles the report.
pub(crate) type PointEmit<'f> = &'f mut dyn FnMut(
    usize,
    &Result<SweepResult, SweepError>,
    Option<&Result<Vec<f64>, SweepError>>,
);

/// A workload that can be swept: given a shape, produce the weighted
/// per-iteration time expressions [`opt::optimize`] consumes.
///
/// Workload **names key the memo cache**, so two distinct workloads in one
/// sweep must carry distinct names.
pub trait SweepWorkload: Send + Sync {
    /// Cache key and display name.
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
    budgets: Vec<f64>,
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
    /// (O(n log n) at worst) and needs one position per entry. (Bit
    /// equality matches `==` here: the kept values are finite, positive,
    /// and non-zero.)
    #[must_use]
    pub fn with_budgets(mut self, budgets: impl IntoIterator<Item = f64>) -> Self {
        let budgets = budgets.into_iter();
        self.budgets.reserve(budgets.size_hint().0);
        self.budgets.extend(budgets.filter(|b| b.is_finite() && *b > 0.0));
        let bits = |p: usize| self.budgets[p].to_bits();
        let mut order: Vec<usize> = (0..self.budgets.len()).collect();
        order.sort_unstable_by_key(|&p| (bits(p), p));
        let mut first = vec![false; order.len()];
        for run in order.chunk_by(|&a, &b| bits(a) == bits(b)) {
            first[run[0]] = true;
        }
        let mut first = first.into_iter();
        self.budgets.retain(|_| first.next() == Some(true));
        self
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

    /// The deduplicated budgets, in insertion order.
    pub fn budgets(&self) -> &[f64] {
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
        let mut pts = Vec::with_capacity(self.len(n_workloads));
        for shape in 0..self.shapes.len() {
            for workload in 0..n_workloads {
                for &budget in &self.budgets {
                    for &objective in &self.objectives {
                        pts.push(GridPoint { shape, workload, budget, objective });
                    }
                }
            }
        }
        pts
    }
}

/// Cache hit/miss counters, snapshotted into [`SweepReport::cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Target-expression builds served from cache.
    pub expr_hits: usize,
    /// Target-expression builds actually performed.
    pub expr_misses: usize,
    /// Design solves served from cache.
    pub design_hits: usize,
    /// Design solves actually performed.
    pub design_misses: usize,
    /// Design solves (a subset of `design_misses`) that were warm-started
    /// from a neighboring grid point's published optimum.
    pub warm_seeded: usize,
}

type TargetsEntry = Arc<Result<Vec<(f64, BwExpr)>, LibraError>>;
type PlanEntry = Arc<Result<Option<CommPlan>, LibraError>>;
type ExprKey = (NetworkShape, String);
type BaselineKey = (NetworkShape, String, u64);
type DesignKey = (NetworkShape, String, u64, Objective);
/// Seeds are budget-agnostic: the nearest published budget's optimum is
/// rescaled onto the new budget by the optimizer.
type SeedKey = (NetworkShape, String, Objective);
/// Published anchor optima for one seed key: `(budget bits, bw vector)`.
type SeedEntries = Vec<(u64, Arc<Vec<f64>>)>;

const CACHE_SHARDS: usize = 16;

/// Sharded concurrent memo cache for target expressions and design solves,
/// plus the warm-start seed index.
///
/// Keys are `(shape, workload-name)` — plus budget and objective for
/// designs — so a cache owned by a [`SweepEngine`] keeps paying off across
/// repeated `run` calls (e.g. iterative grid refinement). Shards are
/// `RwLock`s, not mutexes: warm re-runs are hit-dominated, and readers must
/// not serialize behind each other.
struct SweepCache {
    exprs: Vec<RwLock<HashMap<ExprKey, TargetsEntry>>>,
    plans: Vec<RwLock<HashMap<ExprKey, PlanEntry>>>,
    designs: Vec<RwLock<HashMap<DesignKey, Result<Design, LibraError>>>>,
    baselines: Vec<RwLock<HashMap<BaselineKey, Design>>>,
    /// Warm-start neighbor index: per (shape, workload, objective), the
    /// anchor budgets solved so far and their optimal bandwidth vectors.
    /// Only **anchor-phase** solves publish here (see [`SeedMode`]), which
    /// is what keeps seeding deterministic under parallel execution.
    seeds: Vec<RwLock<HashMap<SeedKey, SeedEntries>>>,
    expr_hits: AtomicUsize,
    expr_misses: AtomicUsize,
    design_hits: AtomicUsize,
    design_misses: AtomicUsize,
    warm_seeded: AtomicUsize,
}

fn shard_of<K: Hash>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % CACHE_SHARDS
}

impl SweepCache {
    fn new() -> Self {
        SweepCache {
            exprs: (0..CACHE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            plans: (0..CACHE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            designs: (0..CACHE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            baselines: (0..CACHE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            seeds: (0..CACHE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            expr_hits: AtomicUsize::new(0),
            expr_misses: AtomicUsize::new(0),
            design_hits: AtomicUsize::new(0),
            design_misses: AtomicUsize::new(0),
            warm_seeded: AtomicUsize::new(0),
        }
    }

    /// The memoized targets of `workload` on `shape`.
    fn targets<W: SweepWorkload>(&self, shape: &NetworkShape, workload: &W) -> TargetsEntry {
        let key: ExprKey = (shape.clone(), workload.name().to_string());
        let shard = &self.exprs[shard_of(&key)];
        if let Some(hit) = shard.read().unwrap().get(&key) {
            self.expr_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Build outside the lock: concurrent duplicate work is possible but
        // harmless (the computation is deterministic), and expression
        // construction can be slow enough that holding the shard would
        // serialize unrelated lookups.
        let built = Arc::new(workload.targets(shape));
        self.expr_misses.fetch_add(1, Ordering::Relaxed);
        Arc::clone(shard.write().unwrap().entry(key).or_insert(built))
    }

    /// The memoized communication plan of `workload` on `shape` (keyed like
    /// target expressions; plans are constraint- and budget-independent).
    fn plan<W: SweepWorkload>(&self, shape: &NetworkShape, workload: &W) -> PlanEntry {
        let key: ExprKey = (shape.clone(), workload.name().to_string());
        let shard = &self.plans[shard_of(&key)];
        if let Some(hit) = shard.read().unwrap().get(&key) {
            return Arc::clone(hit);
        }
        let built = Arc::new(workload.comm_plan(shape));
        Arc::clone(shard.write().unwrap().entry(key).or_insert(built))
    }

    /// The memoized EqualBW baseline for a `(shape, workload, budget)`
    /// triple (objective-independent, so two objectives share one entry).
    fn baseline(&self, key: BaselineKey, evaluate: impl FnOnce() -> Design) -> Design {
        let shard = &self.baselines[shard_of(&key)];
        if let Some(hit) = shard.read().unwrap().get(&key) {
            return hit.clone();
        }
        let computed = evaluate();
        shard.write().unwrap().entry(key).or_insert(computed).clone()
    }

    /// Seeds the design map with a solve loaded from a persistent
    /// [`crate::store::SolveStore`] (no counter is touched: a preloaded
    /// entry shows up as an ordinary `design_hits` when the drive reaches
    /// it).
    fn preload_design(&self, key: DesignKey, design: Design) {
        let shard = &self.designs[shard_of(&key)];
        shard.write().unwrap().entry(key).or_insert(Ok(design));
    }

    /// [`SweepCache::preload_design`] for the EqualBW baseline map.
    fn preload_baseline(&self, key: BaselineKey, baseline: Design) {
        let shard = &self.baselines[shard_of(&key)];
        shard.write().unwrap().entry(key).or_insert(baseline);
    }

    /// The memoized design for a fully specified grid point.
    fn design(
        &self,
        key: DesignKey,
        solve: impl FnOnce() -> Result<Design, LibraError>,
    ) -> Result<Design, LibraError> {
        let shard = &self.designs[shard_of(&key)];
        if let Some(hit) = shard.read().unwrap().get(&key) {
            self.design_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        let solved = solve();
        self.design_misses.fetch_add(1, Ordering::Relaxed);
        shard.write().unwrap().entry(key).or_insert(solved).clone()
    }

    /// Records an anchor point's optimal bandwidth vector for `key` at
    /// `budget` (first publication wins; anchors are solved once per
    /// engine, so this is idempotent).
    fn publish_seed(&self, key: SeedKey, budget: f64, bw: &[f64]) {
        let shard = &self.seeds[shard_of(&key)];
        let mut w = shard.write().unwrap();
        let entry = w.entry(key).or_default();
        let bits = budget.to_bits();
        if !entry.iter().any(|&(b, _)| b == bits) {
            entry.push((bits, Arc::new(bw.to_vec())));
        }
    }

    /// The published bandwidth vector whose budget is nearest to `budget`
    /// (ties break toward the bit-smaller budget — deterministic regardless
    /// of publication order).
    fn seed_for(&self, key: &SeedKey, budget: f64) -> Option<Arc<Vec<f64>>> {
        let shard = &self.seeds[shard_of(key)];
        let guard = shard.read().unwrap();
        let entries = guard.get(key)?;
        let best = entries.iter().min_by(|a, b| {
            let da = (f64::from_bits(a.0) - budget).abs();
            let db = (f64::from_bits(b.0) - budget).abs();
            da.total_cmp(&db).then(a.0.cmp(&b.0))
        })?;
        Some(Arc::clone(&best.1))
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

/// How a run walks the grid: rayon fan-out or a serial reference fold.
///
/// Both modes are **bit-identical** on the same inputs — every point is an
/// independent deterministic solve, the memo cache only avoids
/// recomputation, and warm-start seeding is phase-barriered — which is the
/// engine's core determinism contract. Serial mode is the reference fold
/// (and the right choice under an external thread pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Fan grid points out with rayon (the default).
    #[default]
    Parallel,
    /// Walk grid points in order on the calling thread.
    Serial,
}

/// How a grid point's design solve participates in warm-start seeding.
///
/// Seeding must be **deterministic under parallel execution**: a point may
/// only consume seeds whose presence does not depend on worker scheduling.
/// The engine therefore drives each run in two barrier-separated phases —
/// anchors (one budget per shape × workload × objective group) solve cold
/// and publish their optima; every other point then solves warm-started
/// from its nearest published anchor. Parallel and serial runs see exactly
/// the same seed state at every solve, so results stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeedMode {
    /// Phase 1: solve cold, publish the optimum to the seed index.
    Anchor,
    /// Phase 2: consume the nearest anchor seed (cold if none exists).
    Seeded,
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
/// a concurrent memo cache (plus warm-start seed index) that persists
/// across the session's runs, an optional persistent store, and an
/// optional fault injector. Every session owns exactly one engine and is
/// the only place it is configured; the engine itself exposes counters
/// and the store flush ([`crate::scenario::Session::engine`]).
pub struct SweepEngine<'a> {
    cost_model: &'a CostModel,
    cache: SweepCache,
    /// Optional persistent solve cache (see
    /// [`crate::scenario::Session::with_store`]). A mutex, not a shard:
    /// the store is touched only at run boundaries (preload before the
    /// drive, stage + flush after), never on the per-point hot path.
    /// An `Arc` so a long-lived host (the sweep server) can attach many
    /// short-lived sessions to one store.
    pub(crate) store: Option<SharedSolveStore>,
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
            cache: SweepCache::new(),
            store: None,
            fault: FaultInjector::from_env(),
        }
    }

    /// Persistent-store counters since the store was opened (`None`
    /// without an attached store).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.lock().unwrap().stats())
    }

    /// Flushes the attached store's staged records to disk (a no-op
    /// without a store; also runs automatically after each run and on
    /// drop, where errors are swallowed — call this to observe them).
    ///
    /// # Errors
    /// Propagates [`crate::store::SolveStore::flush`] I/O failures.
    pub fn flush_store(&self) -> Result<(), LibraError> {
        match &self.store {
            Some(s) => s.lock().unwrap().flush(),
            None => Ok(()),
        }
    }

    /// Cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drives `f` over the contiguous index `range` of grid points (the
    /// full range for ordinary runs), parallel or serial, returning
    /// results in grid-enumeration order. **Every** public run path —
    /// plain or cross-validated, whole-grid or ranged — funnels through
    /// this one function, so the serial-vs-parallel bit-identity contract
    /// is enforced in exactly one place.
    ///
    /// The points are processed in two barrier-separated phases (anchors
    /// first — the grid's first budget — then everything else, seeded),
    /// so the seed state visible to any solve is a pure function of the
    /// engine's history, never of worker scheduling. Serial runs use the
    /// same phase order, keeping the bit-identical parallel ≡ serial
    /// contract.
    ///
    /// The restriction is the shard dispatcher's half of the determinism
    /// contract: **a ranged drive's results are bit-identical to the
    /// corresponding slice of the full drive's.**
    ///
    /// An in-range seeded point's group anchor (its shape × workload ×
    /// objective at the grid's first budget) may fall outside the range.
    /// Those out-of-range anchors are handed to `prepare` in phase 1 —
    /// the caller solves them for their published seed and discards the
    /// result — so every seed an in-range solve consumes is exactly the
    /// seed the full run would have published.
    fn drive_range<T: Send>(
        grid: &SweepGrid,
        points: &[GridPoint],
        range: std::ops::Range<usize>,
        exec: ExecMode,
        f: impl Fn(GridPoint, SeedMode) -> T + Sync,
        prepare: impl Fn(GridPoint) + Sync,
    ) -> Vec<T> {
        let apply = |idx: &[usize], mode: SeedMode| -> Vec<(usize, T)> {
            match exec {
                ExecMode::Parallel => idx.par_iter().map(|&i| (i, f(points[i], mode))).collect(),
                ExecMode::Serial => idx.iter().map(|&i| (i, f(points[i], mode))).collect(),
            }
        };
        let anchor_budget = grid.budgets().first().copied();
        let (anchors, rest): (Vec<usize>, Vec<usize>) =
            range.clone().partition(|&i| Some(points[i].budget) == anchor_budget);
        // Group anchors of in-range seeded points that lie outside the
        // range. Enumeration is shape-major (shape → workload → budget →
        // objective), so a point at global index i with budget index b
        // has its group's anchor (budget index 0) at i − b·n_objectives.
        let n_obj = grid.objectives().len().max(1);
        let n_bud = grid.budgets().len().max(1);
        let mut extra: Vec<usize> = rest
            .iter()
            .map(|&i| i - ((i / n_obj) % n_bud) * n_obj)
            .filter(|a| !range.contains(a))
            .collect();
        extra.sort_unstable();
        extra.dedup();
        let mut out: Vec<Option<T>> = Vec::with_capacity(range.len());
        out.resize_with(range.len(), || None);
        // Phase 1: anchors (in-range kept, out-of-range seed-only)...
        match exec {
            ExecMode::Parallel => extra.par_iter().for_each(|&i| prepare(points[i])),
            ExecMode::Serial => extra.iter().for_each(|&i| prepare(points[i])),
        }
        for (idx, mode) in [(&anchors, SeedMode::Anchor), (&rest, SeedMode::Seeded)] {
            // ...then the barrier, then phase 2: everything else, seeded.
            for (i, t) in apply(idx, mode) {
                out[i - range.start] = Some(t);
            }
        }
        out.into_iter().map(|t| t.expect("every in-range point driven exactly once")).collect()
    }

    /// Evaluates one grid point (memoized; `mode` controls warm-start
    /// participation).
    // Both variants are full result records stored unboxed in the report;
    // boxing the Err would not shrink anything the caller keeps.
    #[allow(clippy::result_large_err)]
    fn eval<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        point: GridPoint,
        mode: SeedMode,
    ) -> Result<SweepResult, SweepError> {
        let shape = &grid.shapes()[point.shape];
        let workload = &workloads[point.workload];
        let fail = |error: LibraError| SweepError {
            point,
            shape: shape.clone(),
            workload: workload.name().to_string(),
            error,
        };
        let cached = self.cache.targets(shape, workload);
        let targets = match cached.as_ref() {
            Ok(t) => t,
            Err(e) => return Err(fail(e.clone())),
        };
        let constraints = vec![Constraint::TotalBw(point.budget)];
        let key: DesignKey =
            (shape.clone(), workload.name().to_string(), point.budget.to_bits(), point.objective);
        let seed_key: SeedKey = (shape.clone(), workload.name().to_string(), point.objective);
        let design = self
            .cache
            .design(key, || {
                let seed = match mode {
                    SeedMode::Seeded => self.cache.seed_for(&seed_key, point.budget),
                    SeedMode::Anchor => None,
                };
                if seed.is_some() {
                    self.cache.warm_seeded.fetch_add(1, Ordering::Relaxed);
                }
                // The only deep copy of the target expressions, paid solely
                // on a design-cache miss (DesignRequest owns its targets).
                opt::optimize_seeded(
                    &DesignRequest {
                        shape,
                        targets: targets.clone(),
                        objective: point.objective,
                        constraints,
                        cost_model: self.cost_model,
                    },
                    seed.as_ref().map(|s| s.as_slice()),
                )
            })
            .map_err(fail)?;
        if mode == SeedMode::Anchor {
            self.cache.publish_seed(seed_key, point.budget, &design.bw);
        }
        let baseline_key: BaselineKey =
            (shape.clone(), workload.name().to_string(), point.budget.to_bits());
        let baseline = self.cache.baseline(baseline_key, || {
            opt::evaluate(
                shape,
                targets,
                &opt::equal_bw(shape.ndims(), point.budget),
                self.cost_model,
            )
        });
        Ok(SweepResult {
            point,
            shape: shape.clone(),
            workload: workload.name().to_string(),
            design,
            baseline,
        })
    }

    fn report(
        &self,
        outcomes: impl IntoIterator<Item = Result<SweepResult, SweepError>>,
    ) -> SweepReport {
        let mut results = Vec::new();
        let mut errors = Vec::new();
        for o in outcomes {
            match o {
                Ok(r) => results.push(r),
                Err(e) => errors.push(e),
            }
        }
        SweepReport { results, errors, cache: self.cache.stats() }
    }

    /// Global grid-enumeration index of `point` (shape-major:
    /// shape → workload → budget → objective), the instance key for
    /// per-point fault decisions. Off the hot path: called only with an
    /// armed injector.
    fn grid_index_of<W: SweepWorkload>(grid: &SweepGrid, workloads: &[W], point: GridPoint) -> u64 {
        let n_obj = grid.objectives().len().max(1);
        let n_bud = grid.budgets().len().max(1);
        let b =
            grid.budgets().iter().position(|x| x.to_bits() == point.budget.to_bits()).unwrap_or(0);
        let o = grid.objectives().iter().position(|&x| x == point.objective).unwrap_or(0);
        (((point.shape * workloads.len().max(1) + point.workload) * n_bud + b) * n_obj + o) as u64
    }

    /// Runs the armed per-point fault sites for `point`: a slow solve
    /// sleeps here, a panic site panics (isolated by the per-point
    /// `catch_unwind` in [`SweepEngine::run_priced`]'s drive), and an
    /// error site returns the injected [`SweepError`] the caller turns
    /// into a poisoned record. `None` on the release path.
    fn injected_point_fault<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        point: GridPoint,
    ) -> Option<SweepError> {
        let injector = self.fault.as_ref()?;
        let index = Self::grid_index_of(grid, workloads, point);
        if injector.fires(fault::SWEEP_POINT_SLOW, index) {
            std::thread::sleep(std::time::Duration::from_millis(
                injector.millis(fault::SWEEP_POINT_SLOW),
            ));
        }
        if injector.fires(fault::SWEEP_POINT_PANIC, index) {
            panic!("injected fault: {} at grid index {index}", fault::SWEEP_POINT_PANIC);
        }
        if injector.fires(fault::SWEEP_POINT_ERROR, index) {
            return Some(SweepError {
                point,
                shape: grid.shapes()[point.shape].clone(),
                workload: workloads[point.workload].name().to_string(),
                error: LibraError::BadRequest(format!(
                    "injected fault: {} at grid index {index}",
                    fault::SWEEP_POINT_ERROR
                )),
            });
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
        SweepError {
            point,
            shape: grid.shapes()[point.shape].clone(),
            workload: workloads[point.workload].name().to_string(),
            error: LibraError::BadRequest(format!("point evaluation panicked: {message}")),
        }
    }

    /// Evaluates one grid point and, when its workload exposes a
    /// [`CommPlan`], prices that plan **once under each backend** at the
    /// optimized design's bandwidth vector — the shared body of every
    /// priced sweep, so warm-start seeding and op-eligibility rules live
    /// in exactly one place. An empty backend slice skips pricing
    /// entirely (a plain sweep never touches the plan cache).
    fn eval_priced<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        point: GridPoint,
        backends: &[&dyn EvalBackend],
        mode: SeedMode,
    ) -> PricedOutcome {
        if let Some(error) = self.injected_point_fault(grid, workloads, point) {
            return (Err(error), None);
        }
        let outcome = self.eval(grid, workloads, point, mode);
        if backends.is_empty() {
            return (outcome, None);
        }
        let Ok(result) = &outcome else { return (outcome, None) };
        let shape = &grid.shapes()[point.shape];
        let workload = &workloads[point.workload];
        let fail = |error: LibraError| SweepError {
            point,
            shape: shape.clone(),
            workload: workload.name().to_string(),
            error,
        };
        let planned = self.cache.plan(shape, workload);
        let priced = match planned.as_ref() {
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

    /// Folds per-point `N`-backend outcomes into the sweep report plus one
    /// [`DivergenceReport`] per requested backend pair, emitting each
    /// point's outcome to `emit` (the streaming-sink hook) in grid order.
    /// `index_base` is the global grid index of `points[0]` — non-zero for
    /// range-restricted (shard) runs, whose emitted indices must stay
    /// global so shard streams merge back into one grid.
    #[allow(clippy::too_many_arguments)] // internal fold plumbing shared by every priced driver
    fn fold_pairwise<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        points: &[GridPoint],
        index_base: usize,
        outcomes: Vec<PricedOutcome>,
        backends: &[&dyn EvalBackend],
        pair_indices: &[(usize, usize)],
        tolerance: f64,
        emit: PointEmit<'_>,
    ) -> (SweepReport, Vec<DivergenceReport>) {
        let mut pairs: Vec<DivergenceReport> = pair_indices
            .iter()
            .map(|&(i, j)| DivergenceReport {
                baseline: backends[i].name().to_string(),
                reference: backends[j].name().to_string(),
                tolerance,
                points: Vec::new(),
                skipped: 0,
                backend_errors: Vec::new(),
            })
            .collect();
        let mut sweep_outcomes = Vec::with_capacity(outcomes.len());
        for (idx, (&point, (o, priced))) in points.iter().zip(outcomes).enumerate() {
            emit(index_base + idx, &o, priced.as_ref());
            match priced {
                Some(Ok(secs)) => {
                    let shape = &grid.shapes()[point.shape];
                    let workload = workloads[point.workload].name().to_string();
                    for (pair, &(i, j)) in pairs.iter_mut().zip(pair_indices) {
                        pair.points.push(PointDivergence {
                            point,
                            shape: shape.clone(),
                            workload: workload.clone(),
                            baseline_secs: secs[i],
                            reference_secs: secs[j],
                            rel_error: rel_error(secs[i], secs[j]),
                        });
                    }
                }
                Some(Err(e)) => {
                    for pair in &mut pairs {
                        pair.backend_errors.push(e.clone());
                    }
                }
                // A designed-but-planless point is skipped; a failed design
                // is already reported in the sweep errors.
                None if o.is_ok() => {
                    for pair in &mut pairs {
                        pair.skipped += 1;
                    }
                }
                None => {}
            }
            sweep_outcomes.push(o);
        }
        (self.report(sweep_outcomes), pairs)
    }

    /// Runs an `N`-backend priced sweep: the single driver behind
    /// [`crate::scenario::Session::run`].
    /// `range` restricts the run to a contiguous slice of the grid's
    /// enumeration (callers validate bounds); the emitted indices and the
    /// warm-start seeds stay exactly what the full run would produce, so
    /// shard outputs concatenate back into the unsharded run bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_priced<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        backends: &[&dyn EvalBackend],
        pair_indices: &[(usize, usize)],
        tolerance: f64,
        range: std::ops::Range<usize>,
        exec: ExecMode,
        fp: Fingerprint,
        emit: PointEmit<'_>,
    ) -> (SweepReport, Vec<DivergenceReport>) {
        let points = grid.points(workloads.len());
        // Preload stored solves for the *whole* grid, not just the
        // range: a ranged drive may need out-of-range group anchors for
        // warm-start seeding, and `eval` republishes seeds on cache
        // hits, so preloaded anchors reproduce the uninterrupted run's
        // seed state exactly.
        if let Some(store) = &self.store {
            let mut store = store.lock().unwrap();
            for (i, p) in points.iter().enumerate() {
                if let Some(rec) = store.lookup(fp, i) {
                    let rec = rec.clone();
                    let shape = &grid.shapes()[p.shape];
                    let wl = workloads[p.workload].name().to_string();
                    let bits = p.budget.to_bits();
                    self.cache
                        .preload_design((shape.clone(), wl.clone(), bits, p.objective), rec.design);
                    self.cache.preload_baseline((shape.clone(), wl, bits), rec.baseline);
                }
            }
        }
        // Per-point failure isolation: a panicking eval (a buggy
        // backend, a poisoned workload closure, an injected chaos
        // panic) becomes that one point's poisoned record — error set,
        // no times, JSONL-representable — instead of tearing down the
        // whole rayon fan-out. `catch_unwind` costs nothing on the
        // non-panicking path.
        let outcomes = Self::drive_range(
            grid,
            &points,
            range.clone(),
            exec,
            |p, m| {
                catch_unwind(AssertUnwindSafe(|| self.eval_priced(grid, workloads, p, backends, m)))
                    .unwrap_or_else(|payload| {
                        (Err(Self::panic_to_error(grid, workloads, p, payload.as_ref())), None)
                    })
            },
            |p| {
                // A panicking out-of-range anchor pre-solve only costs
                // its group the warm-start seed; in-range points still
                // solve (cold) and record their own outcomes.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let _ = self.eval(grid, workloads, p, SeedMode::Anchor);
                }));
            },
        );
        if let Some(store) = &self.store {
            let mut store = store.lock().unwrap();
            for (offset, (outcome, _)) in outcomes.iter().enumerate() {
                if let Ok(r) = outcome {
                    store.stage(
                        fp,
                        range.start + offset,
                        StoredPoint { design: r.design.clone(), baseline: r.baseline.clone() },
                    );
                }
            }
            // Best-effort persistence at the run boundary (so an
            // interrupted *next* run still finds this one's solves);
            // flush errors stay observable via `flush_store`, and drop
            // retries.
            let _ = store.flush();
        }
        self.fold_pairwise(
            grid,
            workloads,
            &points[range.clone()],
            range.start,
            outcomes,
            backends,
            pair_indices,
            tolerance,
            emit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Collective, CommModel, GroupSpan};
    use crate::eval::{Analytical, ScaledBackend};
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
        // Serial first run: exact cache counters (under a parallel cold run
        // two workers may race past a cold key's first lookup and both
        // build it — by design, so exact counts only hold serially).
        let session = Session::new(&cm).with_mode(ExecMode::Serial);
        let report = session.run(&grid, &wls, &[]).sweep;
        assert_eq!(report.results.len(), 2 * 2 * 2 * 2);
        assert!(report.errors.is_empty());
        // Expressions are built once per (shape, workload)...
        assert_eq!(report.cache.expr_misses, 4);
        assert_eq!(report.cache.expr_hits, 12);
        // ...and every distinct design is solved exactly once.
        assert_eq!(report.cache.design_misses, 16);
        // A parallel re-run over the same grid is served entirely from cache.
        let again = session.with_mode(ExecMode::Parallel).run(&grid, &wls, &[]).sweep;
        assert_eq!(again.results, report.results);
        assert_eq!(again.cache.design_misses, 16);
        assert_eq!(again.cache.design_hits, 16);
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

    #[test]
    fn workload_errors_are_collected_not_fatal() {
        let bad = FnWorkload::new("bad", |_: &NetworkShape| {
            Err(LibraError::BadRequest("unmappable".into()))
        });
        let grid = small_grid();
        let wls: Vec<Box<dyn SweepWorkload>> =
            vec![Box::new(allreduce_workload("good", 1.0)), Box::new(bad)];
        let cm = CostModel::default();
        let report = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        assert_eq!(report.results.len(), 4, "good workload still evaluated");
        assert_eq!(report.errors.len(), 4, "bad workload fails at every point");
        for e in &report.errors {
            assert_eq!(e.workload, "bad");
            assert!(matches!(e.error, LibraError::BadRequest(_)));
        }
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
        // serial fold solves on a fresh engine, not from the memo cache).
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
        // Per objective, 3 of the 4 budgets are non-anchor and found a
        // published seed.
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
        // A poisoned point publishes no warm-start seed, so a survivor
        // matches the clean run only while its group's anchor survives.
        // `#2` poisons all of shape 0's group, anchor included; shape 1's
        // survivors seed from the same anchor as in the clean run.
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
}
