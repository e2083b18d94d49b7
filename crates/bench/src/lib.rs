//! Shared harness code for the per-figure benchmark binaries.
//!
//! Every `benches/figNN_*.rs` target regenerates one table or figure of the
//! paper: it builds the Table II workloads, runs LIBRA's optimizer and/or
//! the simulator, and prints the same rows/series the paper reports,
//! alongside the paper's reference numbers where EXPERIMENTS.md records
//! them.

use libra_core::comm::CommModel;
use libra_core::cost::CostModel;
use libra_core::eval::CommPlan;
use libra_core::expr::BwExpr;
use libra_core::network::NetworkShape;
use libra_core::opt::{self, Constraint, Design, DesignRequest, Objective};
use libra_core::time::estimate;
use libra_core::workload::{TrainingLoop, Workload};
use libra_core::LibraError;
use libra_workloads::compute::ComputeModel;
use libra_workloads::transformer::TransformerConfig;
use libra_workloads::zoo::{workload_for, PaperModel};

pub use libra_core::eval;
pub use libra_core::eval::{LinkParams, NetSpec};
pub use libra_core::scenario;
pub use libra_core::scenario::{
    BackendConfig, BackendRegistry, DivergenceMatrix, ReportSink, Scenario, Session, SessionReport,
};
pub use libra_core::search;
pub use libra_core::search::{Cosearch, SearchConfig, SearchReport};
pub use libra_core::sweep;
pub use libra_core::sweep::{DivergenceReport, ExecMode};
pub use libra_net::{default_registry, NetSimBackend};
pub use libra_sim::EventSimBackend;

/// Resolves a [`Scenario`]'s workload names into Table II sweep
/// workloads, attaching the scenario's α-β link parameters (when given)
/// so `net-sim` backends have a [`NetSpec`] to price.
///
/// When the scenario's `search` block carries a parallelization
/// co-search axis, the searched splits are appended as additional
/// workloads (see [`cosearch_workloads`]) — the strategy axis rides the
/// grid's workload dimension.
///
/// # Errors
/// [`LibraError::BadRequest`] naming the known paper models when a
/// workload name does not resolve, or when the co-search model is not a
/// transformer LLM.
pub fn scenario_workloads(scenario: &Scenario) -> Result<Vec<sweep::FnWorkload>, LibraError> {
    let mut wls: Vec<sweep::FnWorkload> = scenario
        .workloads
        .iter()
        .map(|name| {
            let model = PaperModel::by_name(name).ok_or_else(|| {
                let known: Vec<&str> =
                    PaperModel::all().into_iter().map(PaperModel::name).collect();
                LibraError::BadRequest(format!(
                    "unknown workload {name:?}; known paper models: {}",
                    known.join(", ")
                ))
            })?;
            Ok(match scenario.link {
                Some(link) => sweep_workload_with_link(model, link),
                None => sweep_workload(model),
            })
        })
        .collect::<Result<_, LibraError>>()?;
    if let Some(cs) = scenario.search.as_ref().and_then(|s| s.cosearch.as_ref()) {
        wls.extend(cosearch_workloads(cs)?);
    }
    Ok(wls)
}

/// Expands a [`Cosearch`] axis into one sweep workload per candidate TP
/// degree, named `"<model>@tp<t>"`. Each closure rebuilds the split on
/// whatever shape the grid hands it: DP falls out as `NPUs / TP` and
/// the per-replica batch as `global_batch / DP` (the §VI-E setup), so
/// the same strategy prices consistently across candidate topologies. A
/// split that cannot map onto a shape (TP not dividing its NPU count)
/// errors at that grid point only — the search treats it as dominated.
///
/// # Errors
/// [`LibraError::BadRequest`] when the model is not one of the
/// transformer LLMs (only they expose a TP knob).
pub fn cosearch_workloads(cs: &Cosearch) -> Result<Vec<sweep::FnWorkload>, LibraError> {
    let model = PaperModel::by_name(&cs.model);
    let config = match model {
        Some(PaperModel::TuringNlg) => TransformerConfig::turing_nlg(),
        Some(PaperModel::Gpt3) => TransformerConfig::gpt3(),
        Some(PaperModel::Msft1T) => TransformerConfig::msft_1t(),
        _ => {
            let known: Vec<&str> = PaperModel::llms().into_iter().map(PaperModel::name).collect();
            return Err(LibraError::BadRequest(format!(
                "cosearch model {:?} is not a transformer LLM; searchable models: {}",
                cs.model,
                known.join(", ")
            )));
        }
    };
    let display = model.expect("matched above").name();
    let global_batch = cs.global_batch;
    Ok(cs
        .tp
        .iter()
        .map(|&tp| {
            let config = config.clone();
            sweep::FnWorkload::new(format!("{display}@tp{tp}"), move |shape: &NetworkShape| {
                let npus = shape.npus();
                if tp == 0 || !npus.is_multiple_of(tp) || npus / tp == 0 {
                    return Err(LibraError::BadRequest(format!(
                        "TP-{tp} does not divide {npus} NPUs"
                    )));
                }
                let dp = npus / tp;
                let w = config
                    .clone()
                    .with_tp(tp)
                    .with_batch((global_batch / dp).max(1))
                    .build(shape, &ComputeModel::default())?;
                Ok(vec![(1.0, estimate(&w, TrainingLoop::NoOverlap, &CommModel::default()))])
            })
        })
        .collect())
}

/// Wraps a Table II paper model as a [`sweep::SweepWorkload`]
/// (no-overlap training loop, default comm model — the paper's setup).
///
/// The workload carries its communication plan, so it is eligible for
/// cross-validated sweeps ([`sweep::SweepEngine::run_cross_validated`])
/// out of the box.
pub fn sweep_workload(model: PaperModel) -> sweep::FnWorkload {
    sweep::FnWorkload::new(model.name(), move |shape: &NetworkShape| {
        Ok(vec![(1.0, time_expr_for(model, shape)?)])
    })
    .with_plan(move |shape: &NetworkShape| {
        let w = workload_for(model, shape)?;
        Ok(CommPlan::from_workload(&w, TrainingLoop::NoOverlap))
    })
}

/// Wraps several paper models for a multi-workload sweep.
pub fn sweep_workloads(models: &[PaperModel]) -> Vec<sweep::FnWorkload> {
    models.iter().copied().map(sweep_workload).collect()
}

/// Like [`sweep_workload`], but the plan also carries a network-layer
/// [`NetSpec`] derived from each candidate shape's per-dimension unit
/// topologies with the given α-β link parameters — the input
/// `libra_net::NetSimBackend` needs to price hop latency and switch
/// traversal in a three-way cross-validated sweep
/// ([`sweep::SweepEngine::run_cross_validated3`]).
pub fn sweep_workload_with_link(model: PaperModel, link: LinkParams) -> sweep::FnWorkload {
    sweep::FnWorkload::new(model.name(), move |shape: &NetworkShape| {
        Ok(vec![(1.0, time_expr_for(model, shape)?)])
    })
    .with_plan(move |shape: &NetworkShape| {
        let w = workload_for(model, shape)?;
        Ok(CommPlan::from_workload(&w, TrainingLoop::NoOverlap)
            .with_net(NetSpec::from_shape(shape, link)))
    })
}

/// [`sweep_workload_with_link`] over several paper models.
pub fn sweep_workloads_with_link(
    models: &[PaperModel],
    link: LinkParams,
) -> Vec<sweep::FnWorkload> {
    models.iter().map(|&m| sweep_workload_with_link(m, link)).collect()
}

/// The Fig. 13/14-style grid for a set of shapes: the paper's 100–1,000
/// GB/s budget sweep under both objectives.
pub fn paper_grid(shapes: impl IntoIterator<Item = NetworkShape>) -> sweep::SweepGrid {
    sweep::SweepGrid::new()
        .with_shapes(shapes)
        .with_budgets(BW_SWEEP)
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
}

/// The BW-per-NPU sweep used by Figs. 13–16 (100–1,000 GB/s).
pub const BW_SWEEP: [f64; 10] =
    [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0];

/// A fully evaluated design point: EqualBW baseline vs a LIBRA design.
#[derive(Debug, Clone)]
pub struct Point {
    /// Total per-NPU bandwidth budget (GB/s).
    pub total_bw: f64,
    /// The LIBRA design.
    pub design: Design,
    /// The EqualBW baseline at the same budget.
    pub baseline: Design,
}

impl Point {
    /// Speedup over EqualBW.
    pub fn speedup(&self) -> f64 {
        self.design.speedup_over(&self.baseline)
    }

    /// Perf-per-cost gain over EqualBW.
    pub fn ppc_gain(&self) -> f64 {
        self.design.ppc_gain_over(&self.baseline)
    }
}

/// Builds the per-iteration time expression of a model on a network
/// (no-overlap training loop, no in-network offload — the paper's default).
///
/// # Errors
/// Propagates workload-construction failures (unmappable TP).
pub fn time_expr_for(model: PaperModel, shape: &NetworkShape) -> Result<BwExpr, LibraError> {
    let w = workload_for(model, shape)?;
    Ok(estimate(&w, TrainingLoop::NoOverlap, &CommModel::default()))
}

/// Builds the workload itself (for simulator-based experiments).
///
/// # Errors
/// Propagates workload-construction failures (unmappable TP).
pub fn workload(model: PaperModel, shape: &NetworkShape) -> Result<Workload, LibraError> {
    workload_for(model, shape)
}

/// Optimizes one model on one network at a total-BW budget and evaluates
/// the EqualBW baseline.
///
/// # Errors
/// Propagates optimizer failures.
pub fn design_point(
    model: PaperModel,
    shape: &NetworkShape,
    total_bw: f64,
    objective: Objective,
) -> Result<Point, LibraError> {
    let expr = time_expr_for(model, shape)?;
    let cost_model = CostModel::default();
    let targets = vec![(1.0, expr)];
    let design = opt::optimize(&DesignRequest {
        shape,
        targets: targets.clone(),
        objective,
        constraints: vec![Constraint::TotalBw(total_bw)],
        cost_model: &cost_model,
    })?;
    let baseline =
        opt::evaluate(shape, &targets, &opt::equal_bw(shape.ndims(), total_bw), &cost_model);
    Ok(Point { total_bw, design, baseline })
}

/// Runs the Fig. 13/14-style sweep for a model/topology pair.
///
/// # Errors
/// Propagates optimizer failures at any budget.
pub fn sweep(
    model: PaperModel,
    shape: &NetworkShape,
    objective: Objective,
) -> Result<Vec<Point>, LibraError> {
    BW_SWEEP.iter().map(|&b| design_point(model, shape, b, objective)).collect()
}

/// Prints a labelled series as an aligned table row.
pub fn print_series(label: &str, values: &[f64]) {
    print!("{label:<28}");
    for v in values {
        print!(" {v:>7.2}");
    }
    println!();
}

/// Prints the sweep header (BW budgets).
pub fn print_sweep_header(metric: &str) {
    print!("{metric:<28}");
    for b in BW_SWEEP {
        print!(" {b:>7.0}");
    }
    println!(" (GB/s per NPU)");
}

/// Geometric helpers for summary lines.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Maximum of a slice (0 for empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Standard banner so every bench output names its figure.
pub fn banner(figure: &str, what: &str) {
    println!("==========================================================");
    println!("{figure}: {what}");
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_core::presets;

    #[test]
    fn design_point_runs_for_gpt3_on_4d_4k() {
        let shape = presets::topo_4d_4k();
        let p = design_point(PaperModel::Gpt3, &shape, 300.0, Objective::Perf).unwrap();
        assert!(p.speedup() >= 1.0 - 1e-6, "PerfOpt never loses to EqualBW");
        assert!(p.design.cost > 0.0);
    }

    #[test]
    fn sweep_covers_all_budgets() {
        let shape = presets::topo_3d_4k();
        let pts = sweep(PaperModel::TuringNlg, &shape, Objective::Perf).unwrap();
        assert_eq!(pts.len(), BW_SWEEP.len());
        for (p, b) in pts.iter().zip(BW_SWEEP) {
            assert_eq!(p.total_bw, b);
        }
    }

    #[test]
    fn sweep_workloads_carry_cross_validatable_plans() {
        use libra_core::eval::EvalBackend;
        use libra_core::sweep::SweepWorkload;
        let shape = presets::topo_3d_512();
        let wl = sweep_workload(PaperModel::TuringNlg);
        let plan = wl.comm_plan(&shape).unwrap().expect("paper workloads expose plans");
        assert!(!plan.is_empty());
        // The plan prices exactly like the optimizer's expression with the
        // bandwidth-independent compute stripped: same model, two forms.
        let bw = vec![100.0; shape.ndims()];
        let expr = time_expr_for(PaperModel::TuringNlg, &shape).unwrap();
        let w = workload_for(PaperModel::TuringNlg, &shape).unwrap();
        let t_plan = eval::Analytical::new().eval_plan(shape.ndims(), &bw, &plan).unwrap();
        let want = expr.eval(&bw) - w.total_compute();
        assert!((t_plan - want).abs() < 1e-9 * (1.0 + want), "{t_plan} vs {want}");
    }

    #[test]
    fn link_carrying_workloads_expose_net_specs() {
        use libra_core::sweep::SweepWorkload;
        let shape = presets::topo_3d_512();
        let link = LinkParams::latency(1e5).with_switch_ps(5e4);
        let wl = sweep_workload_with_link(PaperModel::TuringNlg, link);
        let plan = wl.comm_plan(&shape).unwrap().expect("paper workloads expose plans");
        let net = plan.net.as_ref().expect("link-carrying workloads attach a NetSpec");
        assert_eq!(net.dims.len(), shape.ndims());
        for (spec_dim, shape_dim) in net.dims.iter().zip(shape.dims()) {
            assert_eq!(spec_dim.kind, shape_dim.topology);
            assert_eq!(spec_dim.link, link);
        }
        // The phases are identical to the plain plan — only the side
        // channel differs.
        let plain = sweep_workload(PaperModel::TuringNlg).comm_plan(&shape).unwrap().unwrap();
        assert_eq!(plan.phases, plain.phases);
        assert_eq!(plain.net, None);
    }

    #[test]
    fn default_registry_and_scenario_workloads_resolve() {
        use libra_core::opt::Objective;
        use libra_core::sweep::SweepWorkload;
        let registry = default_registry();
        for name in ["analytical", "analytical-offload", "event-sim", "net-sim", "net-sim-offload"]
        {
            assert!(registry.contains(name), "registry is missing {name}");
        }
        let scenario = Scenario::builder("t")
            .with_shape(presets::topo_3d_512())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workloads(["turing_nlg", "GPT-3"])
            .with_link(LinkParams::latency(1e4))
            .build()
            .unwrap();
        let wls = scenario_workloads(&scenario).unwrap();
        assert_eq!(wls.len(), 2);
        assert_eq!(wls[0].name(), "Turing-NLG");
        let plan = wls[0].comm_plan(&presets::topo_3d_512()).unwrap().unwrap();
        assert!(plan.net.is_some(), "link-carrying scenarios attach NetSpecs");
        let missing = scenario_workloads(&Scenario { workloads: vec!["LLaMA".into()], ..scenario });
        assert!(missing.unwrap_err().to_string().contains("known paper models"));
    }

    #[test]
    fn mean_and_max_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
