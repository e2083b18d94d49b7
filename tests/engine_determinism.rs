//! Determinism contract of the allocation-free chunk-engine fast path: the
//! scratch arena with [`Trace::Off`] must be **bit identical** to the fully
//! instrumented trace path — on the hand-computed golden timelines and
//! across a 60-point cross-validated design-space sweep priced by both
//! the event-sim and the α-β net-sim backends.
//!
//! The fast path and the trace path share one event loop, so any
//! divergence here means the refactor changed scheduling semantics, not
//! just instrumentation.

use libra::core::comm::{Collective, CommModel, GroupSpan};
use libra::core::cost::CostModel;
use libra::core::eval::{
    validate_plan, Analytical, CommPhase, CommPlan, DimTopology, EvalBackend, LinkParams, NetSpec,
};
use libra::core::network::NetworkShape;
use libra::core::opt::Objective;
use libra::core::scenario::Session;
use libra::core::sweep::{FnWorkload, SweepGrid, SweepWorkload};
use libra::core::workload::CommOp;
use libra::core::LibraError;
use libra::net::{stage_overhead_ps, NetSimBackend};
use libra::sim::collective::{
    run_batch_ext, run_collective, BatchExt, CollectiveJob, EngineScratch, FixedOrder, JobSpec,
    Trace,
};
use libra::sim::event::{ps_to_secs, Time};
use libra::sim::EventSimBackend;

/// The pre-optimization engine loop, preserved verbatim as a test oracle:
/// every phase builds owned [`CollectiveJob`]s (span clones included) and
/// runs the fully instrumented trace path on a fresh arena with a fresh
/// per-phase [`BatchExt`] from `ext_of`.
fn eval_plan_trace_path(
    n_dims: usize,
    bw: &[f64],
    plan: &CommPlan,
    chunks: usize,
    mut ext_of: impl FnMut(&CommPhase) -> BatchExt,
) -> Result<f64, LibraError> {
    validate_plan(n_dims, bw, plan)?;
    let mut total = 0.0f64;
    for phase in &plan.phases {
        if phase.repeat == 0 {
            continue;
        }
        let jobs: Vec<CollectiveJob> = phase
            .ops
            .iter()
            .filter(|op| op.bytes > 0.0 && !op.span.is_trivial())
            .map(|op| CollectiveJob {
                collective: op.collective,
                bytes: op.bytes,
                span: op.span.clone(),
                chunks,
                release: 0,
            })
            .collect();
        if jobs.is_empty() {
            continue;
        }
        let ext = ext_of(phase);
        let res = run_batch_ext(n_dims, bw, &ext, &jobs, &mut FixedOrder);
        total += phase.repeat as f64 * ps_to_secs(res.makespan());
    }
    Ok(total)
}

/// `EventSimBackend::eval_plan` before the scratch fast path existed.
struct TracePathEventSim {
    chunks: usize,
}

impl EvalBackend for TracePathEventSim {
    fn name(&self) -> &str {
        "event-sim-trace-path"
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        eval_plan_trace_path(n_dims, bw, plan, self.chunks, |_| BatchExt::none())
    }
}

/// `NetSimBackend::eval_plan` before its dims scratch and reused
/// per-phase [`BatchExt`]: per-call dim resolution and fresh per-phase
/// overhead vectors over the trace-path engine.
struct TracePathNetSim {
    chunks: usize,
}

impl EvalBackend for TracePathNetSim {
    fn name(&self) -> &str {
        "net-sim-trace-path"
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        let dims: Vec<DimTopology> = (0..n_dims)
            .map(|d| {
                plan.net.as_ref().and_then(|net| net.dim(d)).unwrap_or(DimTopology::zero_switch())
            })
            .collect();
        eval_plan_trace_path(n_dims, bw, plan, self.chunks, |phase| {
            let mut overhead = vec![0 as Time; n_dims];
            for op in &phase.ops {
                for &(d, e) in op.span.extents() {
                    overhead[d] = overhead[d].max(stage_overhead_ps(dims[d], e));
                }
            }
            BatchExt { stage_overhead_ps: overhead, offload_dims: vec![false; n_dims] }
        })
    }
}

/// Fig. 9 golden timeline: the fast path reproduces the trace path's
/// pinned makespan and finish times bit-for-bit, while collecting nothing.
#[test]
fn fast_path_matches_fig9_golden_timeline() {
    const G: u64 = 1_000_000_000;
    let span = GroupSpan::new(vec![(0, 4), (1, 2)]);
    let traced =
        run_collective(2, &[10.0, 10.0], Collective::AllReduce, 4e9, &span, 2, &mut FixedOrder);
    assert_eq!(traced.makespan(), 600 * G, "golden timeline moved — not a fast-path issue");

    let mut scratch = EngineScratch::new();
    let makespan = scratch.run_jobs(
        2,
        &[10.0, 10.0],
        &BatchExt::none(),
        [JobSpec {
            collective: Collective::AllReduce,
            bytes: 4e9,
            span: &span,
            chunks: 2,
            release: 0,
        }],
        &mut FixedOrder,
        Trace::Off,
    );
    assert_eq!(makespan, 600 * G);
    assert_eq!(scratch.finish_times(), traced.finish.as_slice());
    assert!(scratch.records().is_empty());
    // The O(1) usage accumulators agree with the golden busy intervals:
    // dim 0 streams continuously 0 → 600 G, dim 1 serves 4 × 25 G stages.
    let usages: Vec<_> = scratch.dim_usages().collect();
    assert_eq!(usages[0].busy_ps, 600 * G);
    assert_eq!((usages[0].first_start, usages[0].last_end), (0, 600 * G));
    assert_eq!(usages[1].busy_ps, 100 * G);
    assert_eq!(usages[1].stages, 4);
}

/// 2-node-ring α-β golden: with per-stage overhead the fast path still
/// matches the trace path exactly (0.24 s = analytical 0.2 s + 4 α).
#[test]
fn fast_path_matches_two_node_ring_alpha_beta_golden() {
    let span = GroupSpan::new(vec![(0, 2)]);
    let alpha_ps = 10_000_000_000; // 10 ms per ring stage
    let ext = BatchExt { stage_overhead_ps: vec![alpha_ps], offload_dims: vec![] };
    let job = CollectiveJob {
        collective: Collective::AllReduce,
        bytes: 2e9,
        span: span.clone(),
        chunks: 2,
        release: 0,
    };
    let traced = run_batch_ext(1, &[10.0], &ext, std::slice::from_ref(&job), &mut FixedOrder);
    assert!((ps_to_secs(traced.makespan()) - 0.24).abs() < 1e-12, "α-β golden moved");

    let mut scratch = EngineScratch::new();
    let makespan =
        scratch.run_jobs(1, &[10.0], &ext, [JobSpec::from(&job)], &mut FixedOrder, Trace::Off);
    assert_eq!(makespan, traced.makespan());
    assert_eq!(scratch.finish_times(), traced.finish.as_slice());
}

/// A 60-point cross-validated sweep prices every grid point under the
/// scratch-arena event-sim and net-sim backends and their preserved
/// trace-path oracles at **zero tolerance**: each fast backend must agree
/// with its oracle bit-for-bit at all 60 points. The plans carry a 20 ns
/// per-hop α-β spec, so net-sim's per-phase stage overheads are live.
#[test]
fn sixty_point_sweep_fast_path_is_bit_identical_to_trace_path() {
    let link = LinkParams::latency(20_000.0);
    let allreduce = |name: &'static str, gb: f64| {
        FnWorkload::new(name, move |shape: &NetworkShape| {
            let comm = CommModel::default();
            Ok(vec![(
                1.0,
                comm.time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape)),
            )])
        })
        .with_plan(move |shape: &NetworkShape| {
            Ok(CommPlan::serial([CommOp::new(
                Collective::AllReduce,
                gb * 1e9,
                GroupSpan::full(shape),
            )])
            .with_net(NetSpec::from_shape(shape, link)))
        })
    };
    let grid = SweepGrid::new()
        .with_shape("RI(4)_SW(8)".parse().unwrap())
        .with_shape("FC(8)_SW(4)".parse().unwrap())
        .with_shape("RI(4)_FC(4)_SW(4)".parse().unwrap())
        .with_budgets([100.0, 250.0, 400.0, 550.0, 700.0])
        .with_objectives([Objective::Perf, Objective::PerfPerCost]);
    let wls = [allreduce("ar-2g", 2.0), allreduce("ar-8g", 8.0)];
    assert_eq!(grid.len(wls.len()), 60);

    let trace = TracePathEventSim { chunks: 16 };
    let fast = EventSimBackend::new(16);
    let net_trace = TracePathNetSim { chunks: 16 };
    let net_fast = NetSimBackend::new(16);
    let cm = CostModel::default();
    let report = Session::new(&cm).with_tolerance(0.0).run(
        &grid,
        &wls,
        &[&trace, &fast, &net_trace, &net_fast],
    );
    assert!(report.sweep.errors.is_empty());
    for (i, j) in [(0, 1), (2, 3)] {
        let divergence = report.divergence.pair_between(i, j).unwrap();
        assert!(divergence.backend_errors.is_empty());
        assert_eq!(divergence.points.len(), 60);
        for p in &divergence.points {
            assert_eq!(
                p.baseline_secs.to_bits(),
                p.reference_secs.to_bits(),
                "{} diverged from {} at {:?}: {} vs {}",
                divergence.reference,
                divergence.baseline,
                p.point,
                p.reference_secs,
                p.baseline_secs
            );
        }
        assert_eq!(divergence.max_rel_error(), 0.0);
        assert!(divergence.within_tolerance());
    }
    // The α-β spec really reaches net-sim: every point pays per-hop
    // latency on top of the zero-latency event engine's time.
    for p in &report.divergence.pair_between(1, 3).unwrap().points {
        assert!(p.reference_secs > p.baseline_secs, "no α paid at {:?}", p.point);
    }

    // Sanity: the trace-path oracle itself brackets the analytical model —
    // i.e. it really is the old backend, not a stub.
    let ana = Analytical::new();
    let plan = wls[0].comm_plan(&grid.shapes()[0]).unwrap().unwrap();
    let bw = [50.0, 50.0];
    let t_trace = trace.eval_plan(2, &bw, &plan).unwrap();
    let t_ana = ana.eval_plan(2, &bw, &plan).unwrap();
    assert!(t_trace >= t_ana * (1.0 - 1e-12));
}
