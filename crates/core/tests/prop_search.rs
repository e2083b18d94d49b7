//! Property tests of the adaptive search driver's headline contracts,
//! over random small grids and search knobs:
//!
//! 1. **Exactness** — on any grid small enough to sweep exhaustively,
//!    the adaptive front equals the exhaustive
//!    `SweepReport::pareto_front()` exactly: same designs, same order.
//! 2. **Determinism** — search replays bit-identically: the parallel
//!    fold, the serial fold, and a warm-from-store re-run all stream
//!    the same JSONL bytes and assemble the same report.

use std::sync::atomic::{AtomicUsize, Ordering};

use libra_core::comm::{Collective, CommModel, GroupSpan};
use libra_core::cost::CostModel;
use libra_core::network::NetworkShape;
use libra_core::opt::Objective;
use libra_core::scenario::{JsonLinesSink, Session};
use libra_core::search::{run_grid, SearchConfig, SearchReport};
use libra_core::sweep::{ExecMode, FnWorkload, SweepGrid};
use proptest::prelude::*;

fn allreduce_workload(name: String, gb: f64) -> FnWorkload {
    FnWorkload::new(name, move |shape: &NetworkShape| {
        let comm = CommModel::default();
        Ok(vec![(1.0, comm.time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape)))])
    })
}

/// Random small grids biased toward one-dimensional shapes (fast to
/// price in debug builds) but always exercising ≥ 2 budget levels and
/// both objectives some of the time.
fn arb_case() -> impl Strategy<Value = (SweepGrid, Vec<FnWorkload>)> {
    const SHAPE_POOL: [&str; 4] = ["RI(4)", "RI(8)", "SW(8)", "SW(16)"];
    (
        (0usize..4, prop::bool::ANY),
        3usize..=11,
        prop::collection::vec(1.0f64..16.0, 1..=2),
        0u8..3,
        10.0f64..60.0,
    )
        .prop_map(|((first_shape, two_shapes), n_bud, gbs, obj_pick, step)| {
            let mut shapes = vec![SHAPE_POOL[first_shape]];
            if two_shapes {
                shapes.push(SHAPE_POOL[(first_shape + 1) % SHAPE_POOL.len()]);
            }
            let objectives = match obj_pick {
                0 => vec![Objective::Perf],
                1 => vec![Objective::PerfPerCost],
                _ => vec![Objective::Perf, Objective::PerfPerCost],
            };
            let mut grid = SweepGrid::new()
                .with_budgets((0..n_bud).map(|i| 100.0 + step * i as f64))
                .with_objectives(objectives);
            for s in shapes {
                grid = grid.with_shape(s.parse().unwrap());
            }
            let wls = gbs
                .iter()
                .enumerate()
                .map(|(i, &g)| allreduce_workload(format!("wl-{i}"), g))
                .collect();
            (grid, wls)
        })
}

fn arb_config() -> impl Strategy<Value = SearchConfig> {
    (2usize..=6, 1usize..=2).prop_map(|(seed_budgets, refine_radius)| SearchConfig {
        seed_budgets,
        refine_radius,
        ..SearchConfig::default()
    })
}

/// A unique throwaway store path per invocation (proptest cases run
/// concurrently inside one process).
fn scratch_store() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("libra-prop-search-{}-{n}.jsonl", std::process::id()))
}

fn run_search(
    mode: ExecMode,
    store: Option<&std::path::Path>,
    grid: &SweepGrid,
    workloads: &[FnWorkload],
    config: &SearchConfig,
) -> (SearchReport, String) {
    let cm = CostModel::default();
    let mut session = Session::new(&cm).with_mode(mode);
    if let Some(path) = store {
        session = session.with_store(path).expect("store attaches");
    }
    let mut out = Vec::new();
    let report = {
        let mut sink = JsonLinesSink::new(&mut out);
        run_grid(&session, grid, workloads, config, &mut [&mut sink]).expect("search runs")
    };
    (report, String::from_utf8(out).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adaptive front == exhaustive `pareto_front()`, exactly, and the
    /// search never evaluates more cells than the grid holds.
    #[test]
    fn search_front_is_exact_on_sweepable_grids(
        case in arb_case(),
        config in arb_config(),
    ) {
        let (grid, wls) = case;
        let cm = CostModel::default();
        let exhaustive = Session::new(&cm).run(&grid, &wls, &[]).sweep;
        let (report, _) = run_search(ExecMode::Parallel, None, &grid, &wls, &config);

        prop_assert!(report.evals <= grid.len(wls.len()));
        let expected: Vec<_> = exhaustive.pareto_front().into_iter().cloned().collect();
        let got: Vec<_> = report.front().into_iter().cloned().collect();
        prop_assert_eq!(
            got,
            expected,
            "front diverged (seed_budgets={} radius={})",
            config.seed_budgets,
            config.refine_radius
        );
    }

    /// Parallel ≡ serial ≡ warm-from-store, bit for bit: reports and
    /// streamed JSONL bytes.
    #[test]
    fn search_replays_bit_identically(
        case in arb_case(),
        config in arb_config(),
    ) {
        let (grid, wls) = case;
        let (parallel, parallel_jsonl) =
            run_search(ExecMode::Parallel, None, &grid, &wls, &config);
        let (serial, serial_jsonl) = run_search(ExecMode::Serial, None, &grid, &wls, &config);
        // Cache counters are engine-lifetime bookkeeping, not part of
        // the determinism contract — compare the points and the bytes.
        prop_assert_eq!(&parallel.sweep.results, &serial.sweep.results);
        prop_assert_eq!(&parallel.sweep.errors, &serial.sweep.errors);
        prop_assert_eq!(&parallel.rounds, &serial.rounds);
        prop_assert_eq!(&parallel_jsonl, &serial_jsonl);

        // Warm-from-store: the first store-attached run stages every
        // solve; the second replays them from disk. Both must stream
        // the cold run's exact bytes.
        let store = scratch_store();
        let (_, cold_staging) =
            run_search(ExecMode::Parallel, Some(&store), &grid, &wls, &config);
        let (warm, warm_jsonl) =
            run_search(ExecMode::Parallel, Some(&store), &grid, &wls, &config);
        let _ = std::fs::remove_file(&store);
        prop_assert_eq!(&cold_staging, &parallel_jsonl);
        prop_assert_eq!(&warm_jsonl, &parallel_jsonl);
        prop_assert_eq!(&warm.sweep.results, &parallel.sweep.results);
        prop_assert_eq!(&warm.sweep.errors, &parallel.sweep.errors);
        prop_assert_eq!(&warm.rounds, &parallel.rounds);
    }
}
