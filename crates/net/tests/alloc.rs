//! Plan evaluation on the chunk engine allocates nothing in steady state:
//! after warm-up, one `EventSimBackend` and one `NetSimBackend` evaluation
//! each make zero heap allocations, including the phase-reuse table.
//!
//! A test binary of its own, because it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use libra_core::comm::{Collective, GroupSpan};
use libra_core::eval::{CommPhase, CommPlan, EvalBackend, LinkParams, NetSpec};
use libra_core::network::UnitTopology;
use libra_core::workload::CommOp;
use libra_net::NetSimBackend;
use libra_sim::EventSimBackend;

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

/// A design sweep's plan shape: a forward all-reduce, a concurrent
/// backward pair, and a backward all-reduce equal to the forward one.
fn plan() -> CommPlan {
    let tp = || CommOp::new(Collective::AllReduce, 2e8, GroupSpan::new(vec![(0, 4), (1, 2)]));
    let dp = CommOp::new(Collective::AllReduce, 6e8, GroupSpan::new(vec![(1, 4), (2, 8)]));
    CommPlan {
        phases: vec![
            CommPhase::solo(tp()).repeated(24),
            CommPhase::new(vec![tp(), dp]).repeated(2),
            CommPhase::solo(tp()).repeated(24),
        ],
        net: Some(NetSpec::uniform(3, UnitTopology::Ring, LinkParams::latency(500.0))),
    }
}

#[test]
fn steady_state_plan_evaluation_does_not_allocate() {
    let plan = plan();
    let bw = [120.0, 60.0, 25.0];
    let backends: [&dyn EvalBackend; 2] = [&EventSimBackend::new(64), &NetSimBackend::new(64)];
    for backend in backends {
        for _ in 0..3 {
            backend.eval_plan(3, &bw, &plan).unwrap();
        }
        let (time, allocs) = counted(|| backend.eval_plan(3, &bw, &plan).unwrap());
        assert!(time > 0.0);
        assert_eq!(allocs, 0, "{} allocated in steady state", backend.name());
    }
}
