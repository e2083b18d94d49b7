//! Integration tests of the scenario front door: the N-way `Session`
//! reports every backend pair in a fixed order, the backend
//! registry fails loudly and rejects shadowing, streaming sinks
//! round-trip a real 40-point cross-validated run, and the committed
//! scenario files parse and reproduce the design-space numbers.

use libra::core::cost::CostModel;
use libra::core::opt::Objective;
use libra::core::presets;
use libra::{
    default_registry, records_from_jsonl, Analytical, BackendConfig, CollectorSink,
    DivergenceMatrix, EvalBackend, JsonLinesSink, ScaledBackend, Scenario, Session, SweepEngine,
    SweepGrid,
};
use libra_bench::{scenario_workloads, sweep_workloads};
use libra_workloads::zoo::PaperModel;

/// 2 shapes × 2 workloads × 5 budgets × 2 objectives = 40 grid points.
fn grid_40() -> SweepGrid {
    SweepGrid::new()
        .with_shapes([presets::topo_3d_512(), presets::topo_3d_4k()])
        .with_budgets([100.0, 300.0, 500.0, 700.0, 900.0])
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
}

/// N = 2 and N = 3 `DivergenceMatrix` output on the seed 40-point grids
/// (real Table II workloads, real event-sim and net-sim backends) keeps
/// the semantics of the removed fixed-arity two- and three-way reports:
/// pairs in lexicographic index order, the two-way report bit-identical
/// to the three-way run's first pair, and name lookups that resolve in
/// either order.
#[test]
fn divergence_matrix_matches_legacy_reports_on_the_seed_grids() {
    let grid = grid_40();
    let wls = sweep_workloads(&[PaperModel::TuringNlg, PaperModel::Gpt3]);
    let cm = CostModel::default();
    let analytical = Analytical::new();
    let event_sim = libra::EventSimBackend::default();
    let max_ndims = grid.shapes().iter().map(|s| s.ndims()).max().unwrap();
    let tol = event_sim.agreement_bound(max_ndims);

    let engine = SweepEngine::new(&cm);
    let session = Session::over(&engine).with_tolerance(tol);
    let n2 = session.run(&grid, &wls, &[&analytical, &event_sim]);
    assert_eq!(n2.divergence.pairs.len(), 1);
    assert_eq!(n2.divergence.pairs[0].points.len(), 40);
    assert!(n2.divergence.within_tolerance(), "{}", n2.divergence.summary());

    let net_sim = libra::NetSimBackend::default();
    let n3 = session.run(&grid, &wls, &[&analytical, &event_sim, &net_sim]);
    assert_eq!(n3.sweep.results, n2.sweep.results);
    assert_eq!(DivergenceMatrix::pair_indices(3), vec![(0, 1), (0, 2), (1, 2)]);
    assert_eq!(n3.divergence.backends, vec!["analytical", "event-sim", "net-sim"]);
    assert_eq!(n3.divergence.pairs.len(), 3);
    assert_eq!(n3.divergence.pairs[0], n2.divergence.pairs[0]);
    for (k, (i, j)) in DivergenceMatrix::pair_indices(3).into_iter().enumerate() {
        let (a, b) = (&n3.divergence.backends[i], &n3.divergence.backends[j]);
        let pair = &n3.divergence.pairs[k];
        assert_eq!((&pair.baseline, &pair.reference), (a, b));
        assert_eq!(n3.divergence.pair(a, b), Some(pair));
        assert_eq!(n3.divergence.pair(b, a), Some(pair));
        assert_eq!(n3.divergence.pair_between(j, i), Some(pair));
    }
}

/// Satellite acceptance: the JSON-lines sink round-trips a 40-point
/// cross-validated run **bit-identically** against the in-memory
/// collector (floats travel through shortest-round-trip decimal).
#[test]
fn jsonl_sink_round_trips_a_40_point_crossval_run_bit_identically() {
    let grid = grid_40();
    let wls = sweep_workloads(&[PaperModel::TuringNlg, PaperModel::Gpt3]);
    let cm = CostModel::default();
    let analytical = Analytical::new();
    let skew = ScaledBackend::new(Analytical::new(), 1.03, "skew");

    let mut collector = CollectorSink::new();
    let mut jsonl = JsonLinesSink::new(Vec::<u8>::new());
    let session = Session::new(&cm).with_tolerance(0.05);
    let report = session.run_with_sinks(
        &grid,
        &wls,
        &[&analytical, &skew],
        &mut [&mut collector, &mut jsonl],
    );
    assert_eq!(collector.rows.len(), 40);
    assert!(report.sweep.errors.is_empty());

    let stream = String::from_utf8(jsonl.into_inner()).unwrap();
    let parsed = records_from_jsonl(&stream).unwrap();
    assert_eq!(parsed.len(), collector.rows.len());
    for (p, c) in parsed.iter().zip(&collector.rows) {
        assert_eq!(p, c, "JSON-lines record diverged from the collector");
        // PartialEq on f64 is exact, but make the bit-identity explicit
        // for the headline metric and the per-backend times.
        assert_eq!(p.weighted_time.unwrap().to_bits(), c.weighted_time.unwrap().to_bits());
        for (ps, cs) in p.secs.iter().zip(&c.secs) {
            assert_eq!(ps.to_bits(), cs.to_bits());
        }
    }
}

/// The registry fails with an actionable message on unknown names and
/// refuses to shadow an existing registration.
#[test]
fn registry_errors_are_actionable() {
    let mut registry = default_registry();
    let err = registry.build("astra-sim", &BackendConfig::default()).err().unwrap();
    let msg = err.to_string();
    assert!(msg.contains("unknown backend \"astra-sim\""), "{msg}");
    for known in ["analytical", "analytical-offload", "event-sim", "net-sim", "net-sim-offload"] {
        assert!(msg.contains(known), "error must list {known}: {msg}");
    }
    let dup = registry.register("event-sim", |_| Box::new(Analytical::new()));
    assert!(dup.unwrap_err().to_string().contains("already registered"));
    // Chunks reach chunk-pipelined constructors.
    let b = registry.build("event-sim", &BackendConfig { chunks: 8 }).unwrap();
    assert_eq!(b.name(), "event-sim");
}

/// The committed scenario files parse, name known workloads/backends, and
/// the CI-small scenario reproduces the session numbers bit-identically
/// through the file → parse → run pipeline (the same pipeline the `libra`
/// CLI drives; the CI golden pins its exact byte output).
#[test]
fn committed_scenario_files_parse_and_reproduce_session_numbers() {
    let root = env!("CARGO_MANIFEST_DIR");
    let registry = default_registry();
    for name in ["ci_small.json", "design_space_sweep.json"] {
        let scenario = Scenario::load(format!("{root}/scenarios/{name}")).unwrap();
        assert!(scenario.backends.iter().all(|b| registry.contains(b)), "{name}");
        scenario_workloads(&scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Round-trip: what we serialize parses back to the same scenario.
        assert_eq!(Scenario::from_json(&scenario.to_json()).unwrap(), scenario);
    }

    // Drive the small scenario end-to-end twice — file-driven and
    // hand-built — and require bit-identical output.
    let scenario = Scenario::load(format!("{root}/scenarios/ci_small.json")).unwrap();
    let wls = scenario_workloads(&scenario).unwrap();
    let cm = CostModel::default();
    let from_file = scenario.session(&cm).run_scenario(&scenario, &wls, &registry).unwrap();
    assert!(from_file.sweep.errors.is_empty());
    assert!(from_file.divergence.within_tolerance(), "{}", from_file.divergence.summary());

    let analytical = Analytical::new();
    let event_sim = libra::EventSimBackend::new(scenario.chunks);
    let net_sim = libra::NetSimBackend::new(scenario.chunks);
    let backends: [&dyn EvalBackend; 3] = [&analytical, &event_sim, &net_sim];
    let by_hand =
        Session::new(&cm).with_tolerance(scenario.tolerance).run(&scenario.grid(), &wls, &backends);
    assert_eq!(from_file.sweep.results, by_hand.sweep.results);
    assert_eq!(from_file.divergence, by_hand.divergence);
}
