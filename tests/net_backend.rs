//! Integration tests of the network-layer α-β backend over full design
//! grids: the acceptance property — |NetSim − Analytical| rel-err → 0 as
//! α → 0, within the documented pipeline-bubble bound, on a ≥ 40-point
//! cross-validated sweep — plus the offloaded-plan pricing path and the
//! α-dominated divergence regime.

use libra::core::cost::CostModel;
use libra::core::opt::Objective;
use libra::core::presets;
use libra::core::scenario::Session;
use libra::core::sweep::SweepGrid;
use libra::{Analytical, EventSimBackend, LinkParams, NetSimBackend};
use libra_bench::{sweep_workload_with_link, sweep_workloads_with_link};
use libra_workloads::zoo::PaperModel;

/// 2 shapes × 2 workloads × 5 budgets × 2 objectives = 40 grid points.
fn grid_40() -> SweepGrid {
    SweepGrid::new()
        .with_shapes([presets::topo_3d_512(), presets::topo_3d_4k()])
        .with_budgets([100.0, 300.0, 500.0, 700.0, 900.0])
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
}

const MODELS: [PaperModel; 2] = [PaperModel::TuringNlg, PaperModel::Gpt3];

/// Acceptance criterion: over a ≥ 40-point cross-validated sweep, the
/// NetSim-vs-Analytical relative error shrinks monotonically as α → 0 and
/// lands inside the documented β-only pipeline-bubble bound at α = 0.
#[test]
fn netsim_converges_to_analytical_as_alpha_vanishes_over_40_points() {
    let grid = grid_40();
    let n_points = grid.len(MODELS.len());
    assert!(n_points >= 40, "acceptance requires ≥ 40 grid points, got {n_points}");

    let cm = CostModel::default();
    let analytical = Analytical::new();
    let net_sim = NetSimBackend::default();
    let max_ndims = grid.shapes().iter().map(|s| s.ndims()).max().unwrap();
    let bound = net_sim.agreement_bound(max_ndims);

    // 10 µs per hop is deliberately α-dominated for these plans; each step
    // divides α by 100, ending at exactly zero.
    let alphas_ps = [1e7, 1e5, 1e3, 0.0];
    let mut last_max_err = f64::INFINITY;
    let mut errs = Vec::new();
    for &alpha in &alphas_ps {
        let workloads = sweep_workloads_with_link(&MODELS, LinkParams::latency(alpha));
        let session = Session::new(&cm).with_tolerance(bound);
        let report = session.run(&grid, &workloads, &[&analytical, &net_sim]);
        assert!(report.sweep.errors.is_empty(), "sweep errors: {:?}", report.sweep.errors);
        let divergence = &report.divergence.pairs[0];
        assert_eq!(divergence.points.len(), n_points, "every point must be compared");
        assert!(divergence.backend_errors.is_empty());
        let max_err = divergence.max_rel_error();
        assert!(
            max_err <= last_max_err + 1e-9,
            "rel err grew as α shrank: {max_err} after {last_max_err} (α = {alpha} ps)"
        );
        // The analytical model stays a lower bound at every α.
        for p in &divergence.points {
            assert!(
                p.reference_secs >= p.baseline_secs * (1.0 - 1e-9),
                "net-sim beat the analytical lower bound at {p:?}"
            );
        }
        last_max_err = max_err;
        errs.push(max_err);
    }
    assert!(
        last_max_err <= bound,
        "α→0 max rel err {last_max_err} exceeds the documented bound {bound} (sequence {errs:?})"
    );
    // The sweep is not vacuous: the α-dominated end of the sequence
    // genuinely diverged, so the convergence above means something.
    assert!(
        errs[0] > bound,
        "α = 10 µs should diverge beyond the β-only bound, got {} ≤ {bound}",
        errs[0]
    );
}

/// Offloaded plans get an event-driven price: the offload-aware NetSim is
/// bracketed by `Analytical { in_network_offload: true }` over the same
/// 40-point grid (α = 0; the offload rule, not the latency, is under
/// test). This is the regime the paper's Fig. 12 offload results assert
/// analytically — now cross-validated.
#[test]
fn offloaded_plans_are_cross_validated_over_40_points() {
    let grid = grid_40();
    let n_points = grid.len(MODELS.len());
    let cm = CostModel::default();
    let analytical_offload = Analytical { in_network_offload: true };
    // The backend's default for unspecified dims is a zero-latency Switch,
    // matching the analytical offload rule's all-dims scope — so plain
    // plans (no NetSpec) cross-validate the offload path on every shape.
    let net_offload = NetSimBackend::offloaded(64);
    let max_ndims = grid.shapes().iter().map(|s| s.ndims()).max().unwrap();
    let workloads = libra_bench::sweep_workloads(&MODELS);
    let session = Session::new(&cm).with_tolerance(net_offload.agreement_bound(max_ndims));
    let report = session.run(&grid, &workloads, &[&analytical_offload, &net_offload]);
    assert!(report.sweep.errors.is_empty());
    let divergence = &report.divergence.pairs[0];
    assert_eq!(divergence.points.len(), n_points);
    assert!(divergence.backend_errors.is_empty());
    assert!(
        divergence.within_tolerance(),
        "offloaded net-sim diverged from the offloaded closed form: {}",
        divergence.summary()
    );
    for p in &divergence.points {
        assert!(p.baseline_secs > 0.0, "offloaded plans must cost real time");
        assert!(
            p.reference_secs >= p.baseline_secs * (1.0 - 1e-9),
            "offloaded net-sim beat the analytical lower bound at {p:?}"
        );
    }
}

/// The N-way fan-out prices all backends consistently: the
/// (analytical, event-sim) pair of a three-backend session matches a
/// plain two-backend run, and at α = 0 the (event-sim, net-sim) pair is
/// exact.
#[test]
fn three_way_sweep_agrees_with_two_way_runs() {
    let grid = SweepGrid::new()
        .with_shape(presets::topo_3d_512())
        .with_budgets([100.0, 500.0, 900.0])
        .with_objectives([Objective::Perf]);
    let workloads = [sweep_workload_with_link(PaperModel::TuringNlg, LinkParams::zero())];
    let cm = CostModel::default();
    let analytical = Analytical::new();
    let event_sim = EventSimBackend::default();
    let net_sim = NetSimBackend::default();
    let bound = event_sim.agreement_bound(3);

    let session = Session::new(&cm).with_tolerance(bound);
    let report3 = session.run(&grid, &workloads, &[&analytical, &event_sim, &net_sim]);
    assert!(report3.divergence.within_tolerance(), "{}", report3.divergence.summary());

    let report2 = session.run(&grid, &workloads, &[&analytical, &event_sim]);
    let pair = report3.divergence.pair("analytical", "event-sim").unwrap();
    assert_eq!(pair.points, report2.divergence.pairs[0].points, "3-way (a, b) pair ≠ 2-way run");

    // At α = 0 the event engine and the network layer coincide exactly.
    let ev_net = report3.divergence.pair("event-sim", "net-sim").unwrap();
    assert_eq!(ev_net.max_rel_error(), 0.0, "α=0 net-sim must equal event-sim");
}
