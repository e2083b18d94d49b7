//! Layer probes, timed outside the op interval. Where a layer runs
//! inside a library call the benchmark cannot wrap, the probe calls the
//! layer's public function directly on the same inputs.

use std::path::Path;
use std::time::Instant;

use libra_bench::scenario::{records_from_jsonl, JsonLinesSink};
use libra_bench::sweep::SweepWorkload;
use libra_bench::{scenario_workloads, ReportSink, Scenario};
use libra_core::cost::CostModel;
use libra_core::expr;
use libra_core::opt::{self, Constraint, DesignRequest, Objective, MIN_DIM_BW};
use libra_core::store::SolveStore;
use libra_core::LibraError;

use crate::stats::median;

/// Median seconds of `reps` calls of `f`.
pub fn time_median<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, LibraError>,
) -> Result<f64, LibraError> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// `Scenario::grid` on the workload's scenario.
pub fn grid_s(scenario: &Scenario, reps: usize) -> Result<f64, LibraError> {
    time_median(reps, || Ok(scenario.grid()))
}

/// `SolveStore::open` on a filled cache file.
pub fn store_open_s(cache: &Path, reps: usize) -> Result<f64, LibraError> {
    time_median(reps, || SolveStore::open(cache))
}

/// Replays a served stream's records through a `JsonLinesSink`: the
/// sink runs inside the server, where no wrapper reaches it.
pub fn sink_replay_s(bytes: &[u8], reps: usize) -> Result<f64, LibraError> {
    let text = std::str::from_utf8(bytes).map_err(|e| LibraError::BadRequest(e.to_string()))?;
    let rows = records_from_jsonl(text)?;
    time_median(reps, || {
        let mut sink = JsonLinesSink::new(Vec::with_capacity(bytes.len()));
        for row in &rows {
            sink.on_record(row);
        }
        Ok(sink.into_inner())
    })
}

/// Cold `opt::optimize` seconds per distinct point, split by objective.
pub struct OptProbe {
    pub perf_s: f64,
    pub ppc_s: f64,
}

/// Cold Perf solves (`expr::compile` + `ConvexProblem::solve`) per
/// distinct (shape, workload, budget).
pub struct SolverProbe {
    pub newton_iters: f64,
    pub solve_s: f64,
}

/// A grid point: shape index, workload targets, budget.
type Point = (usize, Vec<(f64, expr::BwExpr)>, f64);

/// Every (shape, workload targets, budget) of the scenario's grid.
fn points(scenario: &Scenario) -> Result<Vec<Point>, LibraError> {
    let workloads = scenario_workloads(scenario)?;
    let mut out = Vec::new();
    for (s, shape) in scenario.shapes.iter().enumerate() {
        for w in &workloads {
            let targets = w.targets(shape)?;
            for &budget in &scenario.budgets {
                out.push((s, targets.clone(), budget));
            }
        }
    }
    Ok(out)
}

pub fn opt(scenario_path: &Path) -> Result<OptProbe, LibraError> {
    let scenario = Scenario::load(scenario_path)?;
    let cost_model = CostModel::default();
    let (mut perf, mut ppc) = (Vec::new(), Vec::new());
    for (s, targets, budget) in points(&scenario)? {
        for &objective in &scenario.objectives {
            let req = DesignRequest {
                shape: &scenario.shapes[s],
                targets: targets.clone(),
                objective,
                constraints: vec![Constraint::TotalBw(budget)],
                cost_model: &cost_model,
            };
            let t = Instant::now();
            std::hint::black_box(opt::optimize(&req)?);
            let secs = t.elapsed().as_secs_f64();
            match objective {
                Objective::Perf => perf.push(secs),
                Objective::PerfPerCost => ppc.push(secs),
            }
        }
    }
    Ok(OptProbe { perf_s: median(&perf), ppc_s: median(&ppc) })
}

pub fn solver(scenario_path: &Path) -> Result<SolverProbe, LibraError> {
    let scenario = Scenario::load(scenario_path)?;
    let (mut iters, mut secs) = (Vec::new(), Vec::new());
    for (s, targets, budget) in points(&scenario)? {
        let n = scenario.shapes[s].ndims();
        let (mut problem, _) = expr::compile(&targets, n, &opt::equal_bw(n, budget));
        for i in 0..n {
            problem.set_lower(i, MIN_DIM_BW);
        }
        let all: Vec<(usize, f64)> = (0..n).map(|i| (i, 1.0)).collect();
        problem.add_lin_eq(&all, budget);
        let t = Instant::now();
        let solution = problem.solve()?;
        secs.push(t.elapsed().as_secs_f64());
        iters.push(solution.newton_iters as f64);
    }
    Ok(SolverProbe { newton_iters: median(&iters), solve_s: median(&secs) })
}
