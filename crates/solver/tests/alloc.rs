//! The barrier solver's Newton loop allocates nothing: a solve's
//! allocation count does not grow with its Newton iteration count.
//!
//! A test binary of its own, because it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use libra_solver::convex::{ConvexProblem, RatioTerm};

thread_local! {
    /// Allocations made by this thread. `const`-initialized and free of
    /// destructors, so the allocator can touch it without allocating.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

// SAFETY: every request goes unchanged to `System`, which meets the
// `GlobalAlloc` contract; counting neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The problem of the barrier's warm-start test: min max(8/x0, 2/x1)
/// subject to x0 + x1 ≤ 10. Its cold and warm solves walk the same setup
/// (lowering, phase-I, workspaces) but differ in Newton iterations.
#[test]
fn newton_iterations_do_not_allocate() {
    let mut p = ConvexProblem::new(3);
    p.minimize(&[(2, 1.0)]);
    p.add_ratio_le(RatioTerm::new(vec![(0, 8.0)]).minus_var(2));
    p.add_ratio_le(RatioTerm::new(vec![(1, 2.0)]).minus_var(2));
    p.add_lin_le(&[(0, 1.0), (1, 1.0)], 10.0);
    p.set_lower(0, 1e-3).set_lower(1, 1e-3);
    let (cold, cold_allocs) = counted(|| p.solve().unwrap());
    let seed = vec![cold.x[0] * 0.999, cold.x[1] * 1.001, cold.x[2] * 1.001 + 1e-6];
    let (warm, warm_allocs) = counted(|| p.solve_from(&seed).unwrap());
    assert!(
        cold.newton_iters >= warm.newton_iters + 10,
        "the solves must differ in Newton iterations: cold {} vs warm {}",
        cold.newton_iters,
        warm.newton_iters
    );
    assert!(
        cold_allocs.abs_diff(warm_allocs) <= 4,
        "allocations grew with Newton iterations: cold {cold_allocs} allocations over {} \
         iterations, warm {warm_allocs} over {}",
        cold.newton_iters,
        warm.newton_iters
    );
}
