//! # libra-core
//!
//! The LIBRA framework (ISPASS 2024): workload-aware bandwidth allocation
//! for multi-dimensional training fabrics.
//!
//! Pipeline, mirroring Fig. 3 of the paper:
//!
//! 1. Describe the fabric with [`network::NetworkShape`]
//!    (`RI(4)_FC(8)_RI(4)_SW(32)` notation) and price it with
//!    [`cost::CostModel`] (Table I defaults).
//! 2. Describe target workloads as [`workload::Workload`]s — per-layer
//!    compute seconds and collective operations (generated by the
//!    `libra-workloads` crate or parsed from `.wl` files).
//! 3. [`time::estimate`] turns a workload + [`workload::TrainingLoop`] into a
//!    [`expr::BwExpr`]: end-to-end step time as a function of the per-dim
//!    bandwidth vector `B`.
//! 4. [`opt::optimize`] finds the bandwidth allocation maximizing
//!    performance ([`opt::Objective::Perf`]) or performance-per-dollar
//!    ([`opt::Objective::PerfPerCost`]) under designer
//!    [`opt::Constraint`]s, using the convex interior-point solver from
//!    `libra-solver` in place of the paper's Gurobi.
//! 5. [`sweep::SweepEngine`], owned and configured by a
//!    [`scenario::Session`], scales step 4 into a full design-space
//!    exploration: a deterministic shape × workload × budget × objective
//!    grid evaluated in parallel, memoized, and ranked into a
//!    perf-vs-cost Pareto front.
//! 6. [`eval::EvalBackend`] makes the evaluator pluggable:
//!    [`eval::Analytical`] restates the closed-form model over a
//!    backend-neutral [`eval::CommPlan`], `libra-sim` provides the
//!    event-driven `EventSimBackend`, and a [`scenario::Session`]
//!    compares **any number** of backends across a whole grid, reporting
//!    per-point relative errors in a [`scenario::DivergenceMatrix`].
//! 7. [`scenario::Scenario`] makes the whole problem description **data**:
//!    a JSON-serializable scenario (grid, workload names, backend names
//!    from a [`scenario::BackendRegistry`], link parameters, tolerance)
//!    executed by [`scenario::Session::run_scenario`], with per-point
//!    records streamed to [`scenario::ReportSink`]s.
//!
//! ```
//! use libra_core::network::NetworkShape;
//! use libra_core::comm::{Collective, CommModel, GroupSpan};
//! use libra_core::opt::{self, Constraint, Objective};
//! use libra_core::cost::CostModel;
//!
//! // A 2D fabric: 8-NPU ring scaled out by a 4-NPU switch.
//! let shape: NetworkShape = "RI(8)_SW(4)".parse()?;
//! // One 1-GB All-Reduce over the whole machine.
//! let comm = CommModel::default();
//! let expr = comm.time_expr(Collective::AllReduce, 1e9, &GroupSpan::full(&shape));
//! let design = opt::optimize(&opt::DesignRequest {
//!     shape: &shape,
//!     targets: vec![(1.0, expr)],
//!     objective: Objective::Perf,
//!     constraints: vec![Constraint::TotalBw(100.0)],
//!     cost_model: &CostModel::default(),
//! })?;
//! assert!((design.bw.iter().sum::<f64>() - 100.0).abs() < 0.1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod budgets;
pub mod comm;
pub mod constraints;
pub mod cost;
pub mod dispatch;
pub mod error;
pub mod eval;
pub mod expr;
pub mod fault;
pub mod network;
pub mod opt;
pub mod presets;
pub mod scenario;
pub mod search;
pub mod store;
pub mod sweep;
pub mod time;
pub mod workload;

pub use error::LibraError;
