//! An adaptive search holds no table sized by its budget axis: the most
//! memory `run_grid` holds at once does not grow with the axis length.
//!
//! A test binary of its own, because it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use libra_core::comm::{Collective, CommModel, GroupSpan};
use libra_core::cost::CostModel;
use libra_core::network::NetworkShape;
use libra_core::opt::Objective;
use libra_core::scenario::Session;
use libra_core::search::{run_grid, SearchConfig};
use libra_core::sweep::{ExecMode, FnWorkload, SweepEngine, SweepGrid};

thread_local! {
    /// Bytes this thread allocated minus bytes it freed. `const`-
    /// initialized and free of destructors, so the allocator can touch
    /// it without allocating.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_growth`] started.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tracking each thread's live and peak bytes.
/// `realloc` and `alloc_zeroed` keep their default bodies, which go
/// through `alloc` and `dealloc`.
struct Counting;

// SAFETY: every request goes unchanged to `System`, which meets the
// `GlobalAlloc` contract; counting neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as isize);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the most bytes it held live at
/// once beyond what was live when it started.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start) as usize)
}

/// The peak live bytes of one serial search over `n_budgets` budgets
/// spread over 100..1100 GB/s, with the grid built beforehand.
fn search_peak(n_budgets: usize) -> usize {
    let grid = SweepGrid::new()
        .with_shape("RI(4)_SW(8)".parse().unwrap())
        .with_budgets((0..n_budgets).map(|i| 100.0 + 1000.0 * i as f64 / n_budgets as f64))
        .with_objectives([Objective::Perf]);
    assert_eq!(grid.budgets().len(), n_budgets);
    let workloads = [FnWorkload::new("a", |shape: &NetworkShape| {
        let comm = CommModel::default();
        Ok(vec![(1.0, comm.time_expr(Collective::AllReduce, 1e9, &GroupSpan::full(shape)))])
    })];
    let config = SearchConfig { seed_budgets: 6, max_evals: 12, ..SearchConfig::default() };
    let cost_model = CostModel::default();
    let session = Session::from_engine(SweepEngine::new(&cost_model)).with_mode(ExecMode::Serial);
    let (report, peak) =
        peak_growth(|| run_grid(&session, &grid, &workloads, &config, &mut []).unwrap());
    assert_eq!(report.evals, 12);
    assert_eq!(report.nominal_points, n_budgets);
    peak
}

#[test]
fn search_memory_does_not_grow_with_the_budget_axis() {
    let small = search_peak(10_000);
    let large = search_peak(1_000_000);
    assert!(
        large < small + (1 << 20),
        "peak live bytes grew with the budget axis: {small} at 10k budgets, {large} at 1M"
    );
}
