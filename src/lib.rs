//! # LIBRA — workload-aware multi-dimensional network topology optimization
//!
//! Facade crate re-exporting the LIBRA workspace:
//!
//! * [`core`] — the LIBRA framework itself (networks, cost, comm model,
//!   training time estimation, bandwidth optimization).
//! * [`solver`] — convex/QP optimization substrate (Gurobi substitute).
//! * [`workloads`] — DNN workload generators & parsers (Table II models).
//! * [`sim`] — deterministic event-driven simulator (ASTRA-sim substitute).
//! * [`net`] — network-layer α-β simulation backend (per-hop latency,
//!   switch traversal, switch-offload-aware collectives).
//! * [`themis`] — bandwidth-aware runtime chunk scheduler.
//! * [`tacos`] — topology-aware collective algorithm synthesizer.
//! * [`server`] — the sweep service: a queued, multi-client HTTP/JSON
//!   front end (`libra serve`/`libra submit`) over one shared
//!   persistent solve store.
//!
//! The quickstart import block — everything the scenario-first front door
//! needs is re-exported at the root (no `libra::core::sweep::…` paths):
//!
//! ```
//! use libra::{
//!     Analytical, BackendConfig, BackendRegistry, CacheStats, CollectorSink, CommPlan,
//!     ConsoleTableSink, DivergenceMatrix, EvalBackend, EventSimBackend, ExecMode,
//!     FnWorkload, JsonLinesSink, LinkParams, NetSimBackend, RankBy, ReportSink, Scenario,
//!     ScenarioBuilder, Session, SessionReport, SweepEngine, SweepGrid, SweepReport,
//! };
//! use libra::core::cost::CostModel;
//! use libra::core::opt::Objective;
//!
//! // Describe the problem as data, execute it with a Session.
//! let scenario = Scenario::builder("quickstart")
//!     .with_shape("RI(8)_SW(4)".parse()?)
//!     .with_budgets([100.0])
//!     .with_objectives([Objective::Perf])
//!     .with_workload("Turing-NLG")
//!     .with_backends(["analytical", "event-sim"])
//!     .build()?;
//! assert_eq!(Scenario::from_json(&scenario.to_json())?, scenario);
//! let registry = libra::default_registry();
//! let backends = scenario.build_backends(&registry)?;
//! assert_eq!(backends.len(), 2);
//! let cm = CostModel::default();
//! let session: Session<'_> = scenario.session(&cm);
//! let _engine: &SweepEngine<'_> = session.engine();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end tour and
//! `examples/design_space_sweep.rs` for a full scenario-file-driven sweep.

pub use libra_core as core;
pub use libra_net as net;
pub use libra_server as server;
pub use libra_sim as sim;
pub use libra_solver as solver;
pub use libra_tacos as tacos;
pub use libra_themis as themis;
pub use libra_workloads as workloads;

// The pluggable-evaluation surface, flattened for convenience: the
// backend-neutral plan IR, the network-layer side channel, and the
// analytical backend (from `libra-core`); the event-driven backend (from
// `libra-sim`); and the α-β network-layer backend (from `libra-net`). See
// `examples/design_space_sweep.rs` for the full loop.
pub use libra_core::eval::{
    Analytical, CommPhase, CommPlan, DimTopology, EvalBackend, LinkParams, NetSpec, ScaledBackend,
};
// The scenario-first front door: declarative scenarios, the backend
// registry, the N-way session, and streaming report sinks.
pub use libra_core::scenario::{
    records_from_jsonl, BackendConfig, BackendRegistry, CollectorSink, ConsoleTableSink,
    DivergenceMatrix, JsonLinesSink, RecordRow, ReportSink, RunMeta, Scenario, ScenarioBuilder,
    Session, SessionReport,
};
// Shard dispatch and the persistent cross-run solve store: split grids
// into worker ranges, merge streams, resume interrupted runs, and cache
// solves on disk between processes.
pub use libra_core::dispatch::{partial_records, resume_rows, Dispatcher, MergedRun};
pub use libra_core::store::{SolveStore, StoreStats, StoredPoint};
// Adaptive search: the Pareto-guided successive-refinement driver for
// design spaces too large to sweep exhaustively.
pub use libra_core::search::{Cosearch, RoundTrace, SearchConfig, SearchReport};
// The sweep substrate: grid, engine, and reports.
pub use libra_core::sweep::{
    CacheStats, DivergenceReport, ExecMode, FnWorkload, GridPoint, RankBy, SweepEngine, SweepError,
    SweepGrid, SweepReport, SweepResult, SweepWorkload,
};
// The sweep service, flattened: embed a server (`Server::start`) or
// talk to one (`ServiceClient`) — the `libra serve`/`libra submit`
// subcommands are thin wrappers over exactly these types.
pub use libra_server::{Server, ServerConfig, ServiceClient};
// The one `default_registry` definition lives in `libra_net` (the
// most-derived backend crate); register your own evaluators on top with
// [`BackendRegistry::register`].
pub use libra_net::{default_registry, NetSimBackend};
pub use libra_sim::EventSimBackend;
