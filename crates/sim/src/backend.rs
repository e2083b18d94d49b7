//! The event-driven evaluation backend: `libra_core::eval::EvalBackend`
//! implemented by the chunked multi-rail collective engine.
//!
//! [`EventSimBackend`] is the adapter between a [`CommPlan`] and the
//! [`crate::collective`] machinery: every network dimension becomes a FIFO
//! bandwidth server sized from the bandwidth vector under evaluation
//! (i.e. from a `Design`'s `bw`), each phase's operations become a batch of
//! concurrently released [`CollectiveJob`](crate::collective::CollectiveJob)s
//! split into pipelined chunks, and the phase's makespan is measured on the
//! integer-picosecond event timeline. Sequential phases sum;
//! [`CommPhase::repeat`] multiplies a phase's makespan (the fabric drains
//! between phases, so a repeated phase is exactly periodic).
//!
//! # Agreement with the analytical backend
//!
//! For a single-collective phase the analytical model
//! (`max_i traffic_i / B_i`) is a **lower bound** on the simulated
//! makespan: it assumes the bottleneck dimension streams continuously. The
//! simulation adds only the chunk pipeline's fill/drain bubble — the
//! bottleneck dimension idles while the first/last chunk traverses the
//! other dimensions — which costs at most (a small multiple of) one
//! chunk's serial traversal, `Σ_i traffic_i / (chunks · B_i)`, itself at
//! most `ndims / chunks` of the analytical time. With the paper's 64
//! chunks on a ≤ 4-dim fabric that is a ≤ 6.25 % relative gap;
//! [`EventSimBackend::agreement_bound`] exposes the bound so sweeps can
//! set their cross-validation tolerance from first principles, and the
//! repo's differential property tests enforce it.

use std::cell::RefCell;

use libra_core::eval::{validate_plan, CommPhase, CommPlan, EvalBackend};
use libra_core::LibraError;

use crate::collective::{BatchExt, EngineScratch, FixedOrder, JobSpec, Trace};
use crate::event::ps_to_secs;

thread_local! {
    /// Per-thread engine arena shared by every event-driven backend
    /// evaluation on this thread. `EvalBackend::eval_plan` takes `&self`
    /// and backends are shared across rayon workers, so the scratch is
    /// per-thread rather than per-backend: after warm-up, plan evaluation
    /// performs no heap allocation at all.
    static EVAL_SCRATCH: RefCell<(EngineScratch, BatchExt)> =
        RefCell::new((EngineScratch::new(), BatchExt::none()));
}

/// Prices a [`CommPlan`] on the chunked engine: each phase's non-trivial
/// ops become concurrently released jobs split into `chunks` pipelined
/// chunks, executed on per-dimension FIFO servers under the [`BatchExt`]
/// `ext_of` writes for that phase (α-β stage overheads, offload flags —
/// the buffer arrives cleared and is reused across phases and calls);
/// sequential phases sum and [`CommPhase::repeat`] multiplies.
///
/// This is the single plan→engine adapter shared by every event-driven
/// backend — [`EventSimBackend`] is the no-extension case, and
/// `libra_net`'s `NetSimBackend` derives per-phase extensions from the
/// plan's network spec — so the op-eligibility filter and repeat
/// semantics cannot drift between them.
///
/// Evaluation runs on the thread-local [`EngineScratch`] with
/// [`Trace::Off`]: no `GroupSpan` is cloned, no stage record is collected,
/// and steady-state calls allocate nothing. Results are bit-identical to
/// driving [`crate::collective::run_batch_ext`] phase by phase (the two
/// share one event loop).
///
/// # Errors
/// See [`EvalBackend::eval_plan`].
pub fn eval_plan_on_engine(
    n_dims: usize,
    bw: &[f64],
    plan: &CommPlan,
    chunks: usize,
    mut ext_of: impl FnMut(&CommPhase, &mut BatchExt),
) -> Result<f64, LibraError> {
    validate_plan(n_dims, bw, plan)?;
    // Take the warm buffers out of the thread-local (leaving fresh
    // defaults) rather than holding a RefCell borrow across `ext_of`:
    // a closure that reentrantly evaluates another plan on this thread
    // then simply warms up its own temporary arena instead of panicking.
    let (mut scratch, mut ext) = EVAL_SCRATCH.take();
    let mut total = 0.0f64;
    for phase in &plan.phases {
        if phase.repeat == 0 {
            continue;
        }
        let eligible = || phase.ops.iter().filter(|op| op.bytes > 0.0 && !op.span.is_trivial());
        if eligible().next().is_none() {
            continue;
        }
        ext.clear();
        ext_of(phase, &mut ext);
        let makespan = scratch.run_jobs(
            n_dims,
            bw,
            &ext,
            eligible().map(|op| JobSpec {
                collective: op.collective,
                bytes: op.bytes,
                span: &op.span,
                chunks,
                release: 0,
            }),
            &mut FixedOrder,
            Trace::Off,
        );
        total += phase.repeat as f64 * ps_to_secs(makespan);
    }
    EVAL_SCRATCH.replace((scratch, ext));
    Ok(total)
}

/// The event-driven backend: chunked multi-rail execution on per-dimension
/// FIFO bandwidth servers, canonical ([`FixedOrder`]) dimension order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSimBackend {
    /// Chunks per collective (the paper's evaluation uses 64, §V-B).
    /// More chunks pipeline better and converge toward the analytical
    /// bound; fewer chunks expose bigger fill/drain bubbles.
    pub chunks: usize,
}

impl Default for EventSimBackend {
    fn default() -> Self {
        EventSimBackend { chunks: 64 }
    }
}

impl EventSimBackend {
    /// A backend splitting every collective into `chunks` pipelined chunks.
    ///
    /// # Panics
    /// Panics if `chunks == 0`.
    pub fn new(chunks: usize) -> Self {
        assert!(chunks > 0, "collectives need at least one chunk");
        EventSimBackend { chunks }
    }

    /// Documented upper bound on the symmetric relative error between this
    /// backend and [`libra_core::eval::Analytical`] for plans whose phases
    /// hold a **single** collective each (the common cross-validation
    /// shape): `min(1, 2 · ndims / chunks)`.
    ///
    /// Why: the analytical time is the bottleneck dimension's streaming
    /// time, a lower bound on the simulated makespan. The simulation adds
    /// the pipeline fill/drain bubble, bounded by one chunk's serial
    /// traversal of all stages, `Σ_i traffic_i / (chunks · B_i) ≤
    /// ndims · analytical / chunks`; the extra factor 2 absorbs FIFO
    /// scheduling gaps (an All-Gather stage queued behind a later chunk's
    /// Reduce-Scatter on the same server) and picosecond rounding. Multi-op
    /// phases contend in ways the closed form does not model, so no bound
    /// is claimed for them.
    pub fn agreement_bound(&self, n_dims: usize) -> f64 {
        (2.0 * n_dims as f64 / self.chunks as f64).min(1.0)
    }
}

impl EvalBackend for EventSimBackend {
    fn name(&self) -> &str {
        "event-sim"
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        eval_plan_on_engine(n_dims, bw, plan, self.chunks, |_, _| {})
    }
}

/// Registers this crate's backends with a scenario
/// [`BackendRegistry`](libra_core::scenario::BackendRegistry):
/// `"event-sim"` ([`EventSimBackend`], chunked by
/// [`BackendConfig::chunks`](libra_core::scenario::BackendConfig)).
///
/// # Errors
/// Propagates duplicate-name rejections (registering twice into the same
/// registry).
pub fn register_backends(
    registry: &mut libra_core::scenario::BackendRegistry,
) -> Result<(), LibraError> {
    registry.register_described(
        "event-sim",
        "chunk-pipelined discrete-event simulation of per-dimension link servers",
        |cfg| Box::new(EventSimBackend::new(cfg.chunks)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_core::comm::{Collective, GroupSpan};
    use libra_core::eval::{Analytical, CommPhase, CommPlan};
    use libra_core::workload::CommOp;

    fn ar(gb: f64, span: GroupSpan) -> CommOp {
        CommOp::new(Collective::AllReduce, gb * 1e9, span)
    }

    fn span2() -> GroupSpan {
        GroupSpan::new(vec![(0, 4), (1, 8)])
    }

    #[test]
    fn single_chunk_single_dim_is_exact() {
        // One dim, one chunk: no pipelining, no bubble — the simulated time
        // IS the analytical time.
        let plan = CommPlan::serial([ar(1.0, GroupSpan::new(vec![(0, 4)]))]);
        let bw = [10.0, 10.0];
        let sim = EventSimBackend::new(1).eval_plan(2, &bw, &plan).unwrap();
        let ana = Analytical::new().eval_plan(2, &bw, &plan).unwrap();
        assert!((sim - ana).abs() < 1e-9, "sim {sim} vs analytical {ana}");
    }

    #[test]
    fn sim_brackets_analytical_within_agreement_bound() {
        let plan = CommPlan::serial([ar(8.0, span2())]);
        let bw = [60.0, 20.0];
        let backend = EventSimBackend::default();
        let sim = backend.eval_plan(2, &bw, &plan).unwrap();
        let ana = Analytical::new().eval_plan(2, &bw, &plan).unwrap();
        assert!(sim >= ana * (1.0 - 1e-9), "sim below the analytical lower bound");
        let rel = libra_core::eval::rel_error(ana, sim);
        assert!(
            rel <= backend.agreement_bound(2),
            "rel error {rel} exceeds documented bound {}",
            backend.agreement_bound(2)
        );
    }

    #[test]
    fn repeat_is_exactly_periodic() {
        let once = CommPlan::serial([ar(2.0, span2())]);
        let thrice =
            CommPlan { phases: vec![CommPhase::solo(ar(2.0, span2())).repeated(3)], net: None };
        let bw = [30.0, 15.0];
        let backend = EventSimBackend::new(8);
        let t1 = backend.eval_plan(2, &bw, &once).unwrap();
        let t3 = backend.eval_plan(2, &bw, &thrice).unwrap();
        assert!((t3 - 3.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn concurrent_phase_ops_contend_for_bandwidth() {
        let solo = CommPlan::serial([ar(2.0, GroupSpan::new(vec![(0, 4)]))]);
        let pair = CommPlan {
            phases: vec![CommPhase::new(vec![
                ar(2.0, GroupSpan::new(vec![(0, 4)])),
                ar(2.0, GroupSpan::new(vec![(0, 4)])),
            ])],
            net: None,
        };
        let bw = [10.0, 10.0];
        let backend = EventSimBackend::new(8);
        let t1 = backend.eval_plan(2, &bw, &solo).unwrap();
        let t2 = backend.eval_plan(2, &bw, &pair).unwrap();
        assert!(t2 > t1 * 1.8, "two identical jobs on one dim ≈ double time, got {t2} vs {t1}");
    }

    #[test]
    fn empty_and_trivial_plans_cost_nothing() {
        let backend = EventSimBackend::default();
        assert_eq!(backend.eval_plan(2, &[1.0, 1.0], &CommPlan::new()).unwrap(), 0.0);
        let trivial = CommPlan::serial([ar(0.0, span2()), ar(1.0, GroupSpan::new(vec![]))]);
        assert_eq!(backend.eval_plan(2, &[1.0, 1.0], &trivial).unwrap(), 0.0);
    }

    #[test]
    fn rejects_bad_bandwidth_like_analytical() {
        let plan = CommPlan::serial([ar(1.0, span2())]);
        let backend = EventSimBackend::default();
        assert!(backend.eval_plan(2, &[10.0, 0.0], &plan).is_err());
        assert!(backend.eval_plan(1, &[10.0], &plan).is_err());
    }

    #[test]
    fn agreement_bound_shrinks_with_chunks() {
        assert!(
            EventSimBackend::new(64).agreement_bound(2)
                < EventSimBackend::new(8).agreement_bound(2)
        );
        assert_eq!(EventSimBackend::new(1).agreement_bound(4), 1.0);
    }
}
