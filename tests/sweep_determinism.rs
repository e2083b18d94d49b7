//! Determinism contract of the sweep engine: the rayon-parallel run returns
//! **bit-identical** results to a serial fold over the same grid, point for
//! point, on a ≥ 50-point grid evaluated with ≥ 4 worker threads, and
//! counts the same cache work — for a partial run too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use libra::core::comm::{Collective, CommModel, GroupSpan};
use libra::core::cost::CostModel;
use libra::core::network::NetworkShape;
use libra::core::opt::Objective;
use libra::core::scenario::{BackendRegistry, CollectorSink, Scenario, Session};
use libra::core::sweep::{ExecMode, FnWorkload, SweepGrid};

/// Force ≥ 4 workers even on single-core CI runners: the shimmed (and real)
/// rayon reads this env var at pool construction.
fn force_parallelism() {
    std::env::set_var("RAYON_NUM_THREADS", "4");
    assert!(rayon::current_num_threads() >= 4);
}

fn workloads() -> Vec<FnWorkload> {
    let allreduce = |name: &str, gb: f64| {
        FnWorkload::new(name, move |shape: &NetworkShape| {
            let comm = CommModel::default();
            Ok(vec![(
                1.0,
                comm.time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape)),
            )])
        })
    };
    vec![allreduce("allreduce-2g", 2.0), allreduce("allreduce-8g", 8.0)]
}

/// 3 shapes × 2 workloads × 5 budgets × 2 objectives = 60 grid points.
fn grid() -> SweepGrid {
    SweepGrid::new()
        .with_shape("RI(4)_SW(8)".parse().unwrap())
        .with_shape("FC(8)_SW(4)".parse().unwrap())
        .with_shape("RI(4)_FC(4)_SW(4)".parse().unwrap())
        .with_budgets([100.0, 250.0, 400.0, 550.0, 700.0])
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    force_parallelism();
    let grid = grid();
    let wls = workloads();
    assert!(grid.len(wls.len()) >= 50, "grid too small: {}", grid.len(wls.len()));
    let cm = CostModel::default();

    let parallel = Session::new(&cm).run(&grid, &wls, &[]).sweep;
    let serial = Session::new(&cm).with_mode(ExecMode::Serial).run(&grid, &wls, &[]).sweep;

    assert_eq!(parallel.results.len(), grid.len(wls.len()));
    assert!(parallel.errors.is_empty() && serial.errors.is_empty());
    // Bit-identical: Design/SweepResult equality is exact f64 comparison —
    // no tolerance anywhere.
    assert_eq!(parallel.results, serial.results);
    assert_eq!(parallel.errors, serial.errors);
}

#[test]
fn parallel_sweep_is_reproducible_across_runs_and_cache_states() {
    force_parallelism();
    let grid = grid();
    let wls = workloads();
    let cm = CostModel::default();

    // Cold engine vs warm engine (second run served from its store)
    // vs an entirely fresh engine: all bit-identical.
    let session = Session::new(&cm);
    let cold = session.run(&grid, &wls, &[]).sweep;
    let warm = session.run(&grid, &wls, &[]).sweep;
    let fresh = Session::new(&cm).run(&grid, &wls, &[]).sweep;
    assert_eq!(cold.results, warm.results);
    assert_eq!(cold.results, fresh.results);
    // The warm run really did hit the cache rather than re-solving.
    assert!(warm.cache.design_hits >= grid.len(wls.len()));
}

/// A parallel run counts what a serial run counts. That is exact because
/// no two of the run's workloads build equal targets on one shape: such
/// workloads share their solved points, and a parallel run may solve one
/// on two workers at once, counting two solves where a serial run counts
/// a solve and a store hit.
#[test]
fn parallel_counters_equal_serial_counters() {
    force_parallelism();
    let builds = Arc::new(AtomicUsize::new(0));
    let slow = {
        let builds = Arc::clone(&builds);
        FnWorkload::new("slow-allreduce", move |shape: &NetworkShape| {
            builds.fetch_add(1, Ordering::SeqCst);
            // Long enough that every worker reaches the pair mid-build.
            std::thread::sleep(Duration::from_millis(20));
            let comm = CommModel::default();
            Ok(vec![(1.0, comm.time_expr(Collective::AllReduce, 4e9, &GroupSpan::full(shape)))])
        })
    };
    let grid = grid();
    let pairs = grid.shapes().len();
    let cm = CostModel::default();

    let parallel = Session::new(&cm).run(&grid, &[&slow], &[]).sweep;
    assert_eq!(builds.swap(0, Ordering::SeqCst), pairs, "one build per (shape, workload) pair");
    let serial = Session::new(&cm).with_mode(ExecMode::Serial).run(&grid, &[&slow], &[]).sweep;
    assert_eq!(builds.load(Ordering::SeqCst), pairs);

    assert!(parallel.errors.is_empty());
    assert_eq!(parallel.results, serial.results);
    assert_eq!(parallel.cache, serial.cache);
    assert_eq!(parallel.cache.expr_misses, pairs);
}

/// A range that starts mid-group is priced in parallel as a serial fold
/// prices it. Its cells are the first pair's budgets 250..700 under both
/// objectives, so all of them seed from the pair's two anchors (indices
/// 0 and 1), which lie outside the range: the first 4 workers start two
/// cells per anchor at once. Each anchor is still solved exactly once.
#[test]
fn a_range_that_starts_mid_group_is_bit_identical_to_serial() {
    force_parallelism();
    let grid = grid();
    let scenario = Scenario::builder("mid-group")
        .with_shapes(grid.shapes().iter().cloned())
        .with_budgets(grid.budgets().iter().copied())
        .with_objectives(grid.objectives().iter().copied())
        .with_workloads(["allreduce-2g", "allreduce-8g"])
        .build()
        .unwrap();
    let wls = workloads();
    let registry = BackendRegistry::new();
    let cm = CostModel::default();
    let range = 2..10;
    let run = |mode: ExecMode| {
        let mut sink = CollectorSink::new();
        let report = Session::new(&cm)
            .with_mode(mode)
            .run_scenario_range_with_sinks(
                &scenario,
                &wls,
                &registry,
                range.clone(),
                &mut [&mut sink],
            )
            .unwrap();
        (sink.rows, report.sweep)
    };

    let (parallel_rows, parallel) = run(ExecMode::Parallel);
    let (serial_rows, serial) = run(ExecMode::Serial);
    assert!(parallel.errors.is_empty());
    assert_eq!(parallel_rows.len(), range.len());
    assert_eq!(parallel_rows, serial_rows);
    assert_eq!(parallel.results, serial.results);
    assert_eq!(parallel.cache, serial.cache);
    // One solve per cell, each seeded, plus one per outside anchor.
    assert_eq!(parallel.cache.design_misses, range.len() + 2);
    assert_eq!(parallel.cache.warm_seeded, range.len());
}
