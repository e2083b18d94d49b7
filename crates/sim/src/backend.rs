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
use crate::event::{ps_to_secs, Time};

thread_local! {
    /// Per-thread engine arena shared by every event-driven backend
    /// evaluation on this thread. `EvalBackend::eval_plan` takes `&self`
    /// and backends are shared across rayon workers, so the scratch is
    /// per-thread rather than per-backend: after warm-up, plan evaluation
    /// performs no heap allocation at all.
    static EVAL_SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

/// [`eval_plan_on_engine`]'s reusable buffers: the engine arena, the
/// extension `ext_of` writes, and the phases already priced in the
/// current call.
#[derive(Debug, Default)]
struct EvalScratch {
    engine: EngineScratch,
    ext: BatchExt,
    /// `priced[..n]` are the current call's distinct phases; later slots
    /// only keep their extension buffers for reuse.
    priced: Vec<PricedPhase>,
}

/// A phase priced on the engine: its index in the plan, the extension
/// it ran under, and its makespan.
#[derive(Debug, Default)]
struct PricedPhase {
    phase: usize,
    ext: BatchExt,
    makespan: Time,
}

/// Prices a [`CommPlan`] on the chunked engine: each phase's non-trivial
/// ops become concurrently released jobs split into `chunks` pipelined
/// chunks, executed on per-dimension FIFO servers under the [`BatchExt`]
/// `ext_of` writes for that phase (α-β stage overheads, offload flags —
/// the buffer arrives cleared and is reused across phases and calls);
/// sequential phases sum and [`CommPhase::repeat`] multiplies.
///
/// Each distinct phase runs on the engine once per call: a later phase
/// with equal ops and an equal extension (a design sweep's forward and
/// backward tensor-parallel all-reduce) reuses the makespan the engine
/// gave the first one, which is the same integer the engine would
/// compute again. Every phase still adds its own `repeat ×` term, in plan
/// order, so the sum is bit-identical to pricing each phase afresh.
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
    let mut s = EVAL_SCRATCH.take();
    let mut n_priced = 0;
    let mut total = 0.0f64;
    for (index, phase) in plan.phases.iter().enumerate() {
        if phase.repeat == 0 {
            continue;
        }
        let eligible = || phase.ops.iter().filter(|op| op.bytes > 0.0 && !op.span.is_trivial());
        if eligible().next().is_none() {
            continue;
        }
        s.ext.clear();
        ext_of(phase, &mut s.ext);
        let seen = s.priced[..n_priced]
            .iter()
            .find(|p| p.ext == s.ext && plan.phases[p.phase].ops == phase.ops);
        let makespan = match seen {
            Some(p) => p.makespan,
            None => {
                let makespan = s.engine.run_jobs(
                    n_dims,
                    bw,
                    &s.ext,
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
                if n_priced == s.priced.len() {
                    s.priced.push(PricedPhase::default());
                }
                // The slot keeps this phase's extension and hands its old
                // buffer back for the next phase to fill.
                let slot = &mut s.priced[n_priced];
                std::mem::swap(&mut slot.ext, &mut s.ext);
                slot.phase = index;
                slot.makespan = makespan;
                n_priced += 1;
                makespan
            }
        };
        total += phase.repeat as f64 * ps_to_secs(makespan);
    }
    EVAL_SCRATCH.replace(s);
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

    /// `[A×3, B×5, A×7]`: the plan and its three phases priced alone.
    fn aba_plan() -> (CommPlan, [CommPlan; 3]) {
        let a = || ar(2.0, span2());
        let b = || CommOp::new(Collective::AllToAll, 3e9, GroupSpan::new(vec![(1, 8)]));
        let phases = [
            CommPhase::solo(a()).repeated(3),
            CommPhase::solo(b()).repeated(5),
            CommPhase::solo(a()).repeated(7),
        ];
        let alone = phases.clone().map(|p| CommPlan { phases: vec![p], net: None });
        (CommPlan { phases: phases.to_vec(), net: None }, alone)
    }

    /// A repeated phase reuses the first occurrence's makespan, and the
    /// plan's total is bit-equal to the in-order sum of its phases priced
    /// one plan at a time.
    #[test]
    fn equal_phases_price_like_separate_plans() {
        let (plan, alone) = aba_plan();
        let bw = [30.0, 15.0];
        let backend = EventSimBackend::new(16);
        let whole = backend.eval_plan(2, &bw, &plan).unwrap();
        let sum =
            alone.iter().map(|p| backend.eval_plan(2, &bw, p).unwrap()).fold(0.0, |s, t| s + t);
        assert_eq!(whole.to_bits(), sum.to_bits(), "{whole} vs {sum}");
    }

    /// A later occurrence of a phase under a different extension is
    /// priced under its own extension, not the first occurrence's.
    #[test]
    fn equal_ops_under_a_new_extension_are_priced_again() {
        let (plan, alone) = aba_plan();
        let bw = [30.0, 15.0];
        let slow = BatchExt { stage_overhead_ps: vec![5_000_000, 0], offload_dims: vec![] };
        let mut calls = 0;
        let whole = eval_plan_on_engine(2, &bw, &plan, 16, |_, ext| {
            calls += 1;
            if calls == 3 {
                ext.clone_from(&slow);
            }
        })
        .unwrap();
        let price = |p: &CommPlan, ext: &BatchExt| {
            eval_plan_on_engine(2, &bw, p, 16, |_, e| e.clone_from(ext)).unwrap()
        };
        let none = BatchExt::none();
        let sum = price(&alone[0], &none) + price(&alone[1], &none) + price(&alone[2], &slow);
        assert_eq!(whole.to_bits(), sum.to_bits(), "{whole} vs {sum}");
        let plain = EventSimBackend::new(16).eval_plan(2, &bw, &plan).unwrap();
        assert!(whole > plain, "the third phase's overhead was not priced: {whole} vs {plain}");
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
