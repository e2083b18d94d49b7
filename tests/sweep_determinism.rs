//! Determinism contract of the sweep engine: the rayon-parallel run returns
//! **bit-identical** results to a serial fold over the same grid, point for
//! point, on a ≥ 50-point grid evaluated with ≥ 4 worker threads.

use libra::core::comm::{Collective, CommModel, GroupSpan};
use libra::core::cost::CostModel;
use libra::core::network::NetworkShape;
use libra::core::opt::Objective;
use libra::core::scenario::Session;
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

    // Cold engine vs warm engine (second run served from the memo cache)
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
