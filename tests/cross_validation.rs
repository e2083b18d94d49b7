//! Integration tests of the cross-validated sweep: the analytical and
//! event-driven backends must agree over a full design grid, and the
//! `DivergenceReport` must catch a backend that is deliberately wrong.

use libra::core::cost::CostModel;
use libra::core::opt::Objective;
use libra::core::presets;
use libra::core::scenario::Session;
use libra::core::sweep::{ExecMode, SweepGrid};
use libra::{Analytical, EventSimBackend, ScaledBackend};
use libra_bench::sweep_workloads;
use libra_workloads::zoo::PaperModel;

/// 2 shapes × 2 workloads × 5 budgets × 2 objectives = 40 grid points.
fn grid_40() -> SweepGrid {
    SweepGrid::new()
        .with_shapes([presets::topo_3d_512(), presets::topo_3d_4k()])
        .with_budgets([100.0, 300.0, 500.0, 700.0, 900.0])
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
}

/// Acceptance criterion: a ≥ 40-point cross-validated sweep stays below
/// the event-sim backend's documented agreement bound at every point.
#[test]
fn analytical_and_event_sim_agree_over_a_40_point_sweep() {
    let grid = grid_40();
    let workloads = sweep_workloads(&[PaperModel::TuringNlg, PaperModel::Gpt3]);
    let n_points = grid.len(workloads.len());
    assert!(n_points >= 40, "acceptance requires ≥ 40 grid points, got {n_points}");

    let cm = CostModel::default();
    let analytical = Analytical::new();
    let event_sim = EventSimBackend::default();
    // Tolerance from first principles: the documented pipeline-bubble bound
    // for the widest fabric in the grid (3 dims at 64 chunks → 9.375 %).
    let max_ndims = grid.shapes().iter().map(|s| s.ndims()).max().unwrap();
    let session = Session::new(&cm).with_tolerance(event_sim.agreement_bound(max_ndims));

    let report = session.run(&grid, &workloads, &[&analytical, &event_sim]);
    assert!(report.sweep.errors.is_empty(), "sweep errors: {:?}", report.sweep.errors);
    assert_eq!(report.sweep.results.len(), n_points);

    let d = &report.divergence.pairs[0];
    assert_eq!(d.points.len(), n_points, "every point must be compared");
    assert_eq!(d.skipped, 0);
    assert!(d.backend_errors.is_empty());
    assert!(
        d.within_tolerance(),
        "analytical diverged from event-sim beyond the documented bound: {}",
        d.summary()
    );
    // The analytical model is a lower bound on faithful execution: at every
    // point the simulator is at least as slow.
    for p in &d.points {
        assert!(
            p.reference_secs >= p.baseline_secs * (1.0 - 1e-9),
            "event-sim beat the analytical lower bound at {p:?}"
        );
    }
    // And the agreement is not vacuous — designs spend real time.
    assert!(d.points.iter().all(|p| p.baseline_secs > 0.0));
}

/// Acceptance criterion: injecting a deliberately skewed backend must trip
/// the divergence report.
#[test]
fn skewed_backend_is_caught_by_the_divergence_report() {
    let grid = grid_40();
    let workloads = sweep_workloads(&[PaperModel::TuringNlg, PaperModel::Gpt3]);
    let cm = CostModel::default();
    let analytical = Analytical::new();
    // A backend wrong by 30% everywhere — e.g. a unit slip or a dropped
    // All-Gather half would look like this.
    let skewed = ScaledBackend::new(EventSimBackend::default(), 1.30, "skewed-event-sim");

    let report =
        Session::new(&cm).with_tolerance(0.10).run(&grid, &workloads, &[&analytical, &skewed]);
    let d = &report.divergence.pairs[0];
    assert!(!d.within_tolerance(), "a 30% skew must not pass a 10% tolerance");
    assert!(!d.violations().is_empty());
    // rel_error(t, 1.3·t·(1+bubble)) ≥ 0.3/1.3 ≈ 23% at every point.
    assert!(d.max_rel_error() > 0.2);
    assert!(d.mean_rel_error() > 0.2);
    // violations() ranks worst-first.
    let v = d.violations();
    for w in v.windows(2) {
        assert!(w[0].rel_error >= w[1].rel_error);
    }
    // The summary names the offending cell for triage.
    assert!(d.summary().contains("worst cell"));
}

/// The divergence check composes with the sweep cache: a warm engine
/// re-validates from memoized designs and reaches identical conclusions.
#[test]
fn cross_validation_is_deterministic_and_cache_stable() {
    let grid = SweepGrid::new()
        .with_shape(presets::topo_3d_512())
        .with_budgets([200.0, 400.0])
        .with_objectives([Objective::Perf]);
    let workloads = sweep_workloads(&[PaperModel::TuringNlg]);
    let cm = CostModel::default();
    let analytical = Analytical::new();
    let event_sim = EventSimBackend::default();

    let session = Session::new(&cm);
    let cold = session.run(&grid, &workloads, &[&analytical, &event_sim]);
    let warm = session.run(&grid, &workloads, &[&analytical, &event_sim]);
    assert_eq!(cold.sweep.results, warm.sweep.results);
    assert_eq!(cold.divergence, warm.divergence);
    // The serial fold solves on a fresh engine, not from the first's store.
    let serial = Session::new(&cm).with_mode(ExecMode::Serial).run(
        &grid,
        &workloads,
        &[&analytical, &event_sim],
    );
    assert_eq!(serial.sweep.cache.design_hits, 0, "the serial fold solves every point");
    assert_eq!(cold.divergence, serial.divergence);
}
