//! # libra-net
//!
//! The **network-layer α-β simulation backend**: a third
//! [`EvalBackend`] alongside `libra_core::eval::Analytical` and
//! `libra_sim::EventSimBackend`, pricing [`CommPlan`]s with the terms a
//! pure bandwidth model cannot express (paper §IV-C / §V, and the
//! astra-sim lineage the paper builds on):
//!
//! * **α (hop latency)** — every chunk-stage pays a fixed,
//!   bandwidth-independent latency determined by the dimension's unit
//!   topology: a Ring of extent `e` relays store-and-forward through
//!   `e − 1` hops, a FullyConnected dimension is one direct hop, a Switch
//!   dimension is two hops (NPU → switch → NPU).
//! * **β (serialization)** — bytes over bandwidth, exactly as the chunked
//!   event engine already models it; `libra-net` drives that same engine
//!   (`libra_sim::run_batch_ext`) rather than reimplementing it.
//! * **switch traversal** — an extra per-message cost
//!   ([`LinkParams::switch_ps`]) on Switch dimensions: arbitration,
//!   crossbar, and (for offloaded collectives) the reduction ALU.
//! * **in-network offload** — [`NetSimBackend::offloaded`] performs
//!   switch-resident reduction on Switch dimensions: offloadable
//!   collectives cross them in a single ascending pass carrying the §IV-C
//!   injection traffic `m / Π_{j<i} e_j` with no All-Gather replay. This
//!   gives offloaded plans an event-driven price — before this crate they
//!   were analytical-only.
//!
//! Per-dimension topology kinds and link parameters ride on the plan's
//! [`NetSpec`] side channel (`CommPlan::with_net`); dimensions the plan
//! does not describe fall back to the backend's default (zero-latency
//! Switch), so a plan with no side channel prices identically to the pure
//! bandwidth backends.
//!
//! # Agreement with the analytical backend
//!
//! In the β-dominated limit (α → 0, `switch_ps` → 0) every stage
//! degenerates to its serialization time and the engine **is** the event
//! simulator, so the analytical model brackets it within the documented
//! chunk-pipeline fill/drain bound, `2 · ndims / chunks`
//! ([`NetSimBackend::agreement_bound`]) — for offloaded plans the single
//! ascending pass has only `ndims` stages per chunk, so the same bound
//! holds a fortiori. In the α-dominated regime (many small messages) the
//! backends *must* diverge — the per-message latency the analytical model
//! ignores is `chunks × stages × α` of real time — and the repo's tests
//! pin both behaviours: convergence under α → 0, divergence beyond the
//! bound when α dominates.

use std::cell::RefCell;

use libra_core::eval::{CommPlan, DimTopology, EvalBackend, LinkParams};
use libra_core::network::UnitTopology;
use libra_core::LibraError;

use libra_sim::backend::{eval_plan_on_engine, EventSimBackend};
use libra_sim::collective::BatchExt;
use libra_sim::event::{secs_to_ps, Time};

thread_local! {
    /// Reusable per-thread buffer for the resolved per-dimension
    /// topologies, so `eval_plan` allocates nothing in steady state (the
    /// chunk engine underneath already runs on its own thread-local
    /// scratch).
    static DIMS_SCRATCH: RefCell<Vec<DimTopology>> = const { RefCell::new(Vec::new()) };
}

#[allow(unused_imports)] // doc links
use libra_sim::collective::run_batch_ext;

#[allow(unused_imports)] // doc links
use libra_core::eval::{CommPhase, NetSpec};

/// The fixed α-side overhead one chunk-stage pays crossing a dimension of
/// the given topology at extent `extent`:
///
/// * Ring — `(extent − 1) · alpha_ps` (store-and-forward relay around the
///   ring; a 2-node ring is a single hop);
/// * FullyConnected — `alpha_ps` (one direct hop);
/// * Switch — `2 · alpha_ps + switch_ps` (up to the switch, through its
///   crossbar/ALU, back down — extent-independent).
///
/// Saturates onto the integer-picosecond timeline; NaN or negative
/// parameters contribute zero.
pub fn stage_overhead_ps(dim: DimTopology, extent: u64) -> Time {
    let alpha = sanitize(dim.link.alpha_ps);
    let ps = match dim.kind {
        UnitTopology::Ring => alpha * extent.saturating_sub(1) as f64,
        UnitTopology::FullyConnected => alpha,
        UnitTopology::Switch => 2.0 * alpha + sanitize(dim.link.switch_ps),
    };
    // Saturating f64-ps → integer-ps conversion (secs_to_ps rounds to the
    // nearest tick and clamps NaN/negative/overflow).
    secs_to_ps(ps / 1e12)
}

fn sanitize(ps: f64) -> f64 {
    if ps.is_nan() || ps < 0.0 {
        0.0
    } else {
        ps
    }
}

/// The network-layer simulation backend.
///
/// Drives `libra_sim`'s latency-carrying chunk engine
/// ([`run_batch_ext`]) with per-dimension α-β stage overheads derived from
/// the plan's [`NetSpec`] and — in offload mode — in-network reduction
/// flags on Switch dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSimBackend {
    /// Chunks per collective (the paper's evaluation uses 64, §V-B).
    pub chunks: usize,
    /// Perform in-network (switch-resident) reduction on Switch
    /// dimensions: offloadable collectives cross them in a single pass
    /// carrying `m / Π_{j<i} e_j` (§IV-C).
    pub offload: bool,
    /// Topology assumed for dimensions the plan's [`NetSpec`] does not
    /// cover (or when the plan has no spec at all). The default —
    /// zero-latency Switch — makes unspecified plans price identically to
    /// the pure bandwidth backends in endpoint mode, and fully offloaded
    /// (every dimension is a switch) in offload mode, matching
    /// `Analytical { in_network_offload: true }`'s all-dims rule.
    pub default_dim: DimTopology,
}

impl Default for NetSimBackend {
    fn default() -> Self {
        NetSimBackend::new(64)
    }
}

impl NetSimBackend {
    /// An endpoint-driven network-layer backend with `chunks` pipelined
    /// chunks per collective and zero-latency-Switch defaults.
    ///
    /// # Panics
    /// Panics if `chunks == 0`.
    pub fn new(chunks: usize) -> Self {
        assert!(chunks > 0, "collectives need at least one chunk");
        NetSimBackend { chunks, offload: false, default_dim: DimTopology::zero_switch() }
    }

    /// A backend performing in-network reduction on Switch dimensions.
    ///
    /// # Panics
    /// Panics if `chunks == 0`.
    pub fn offloaded(chunks: usize) -> Self {
        NetSimBackend { offload: true, ..NetSimBackend::new(chunks) }
    }

    /// Overrides the topology assumed for dimensions the plan's spec does
    /// not describe.
    #[must_use]
    pub fn with_default_dim(mut self, dim: DimTopology) -> Self {
        self.default_dim = dim;
        self
    }

    /// Keeps the default kind but applies `link` parameters to
    /// undescribed dimensions.
    #[must_use]
    pub fn with_default_link(mut self, link: LinkParams) -> Self {
        self.default_dim.link = link;
        self
    }

    /// Documented upper bound on the symmetric relative error between this
    /// backend and the matching analytical model (`Analytical` for
    /// endpoint mode, `Analytical { in_network_offload: true }` for
    /// offload mode over all-Switch specs) **in the β-dominated limit**
    /// (α → 0, `switch_ps` → 0), for plans whose phases hold a single
    /// collective each: `min(1, 2 · ndims / chunks)` — the chunk
    /// pipeline's fill/drain bubble, delegated to
    /// [`EventSimBackend::agreement_bound`] because the engines coincide
    /// at zero latency (one formula, not two copies). No bound is claimed
    /// once α dominates: the per-message latency is precisely what the
    /// closed form does not model, and the divergence is the point of
    /// this backend.
    pub fn agreement_bound(&self, n_dims: usize) -> f64 {
        EventSimBackend::new(self.chunks).agreement_bound(n_dims)
    }

    /// Resolves the per-dimension topologies in effect for an `n_dims`
    /// fabric into `dims`: the plan's spec where present, the backend
    /// default elsewhere.
    fn resolve_dims_into(&self, n_dims: usize, plan: &CommPlan, dims: &mut Vec<DimTopology>) {
        dims.clear();
        dims.extend(
            (0..n_dims)
                .map(|d| plan.net.as_ref().and_then(|n| n.dim(d)).unwrap_or(self.default_dim)),
        );
    }

    /// Writes the [`BatchExt`] of one phase into `ext` (arrives cleared):
    /// per-dimension stage overheads (the worst extent of any op spanning
    /// the dimension, for multi-op phases) and offload flags.
    fn phase_ext(
        &self,
        n_dims: usize,
        dims: &[DimTopology],
        phase: &CommPhase,
        ext: &mut BatchExt,
    ) {
        ext.stage_overhead_ps.resize(n_dims, 0 as Time);
        for op in &phase.ops {
            for &(d, e) in op.span.extents() {
                ext.stage_overhead_ps[d] =
                    ext.stage_overhead_ps[d].max(stage_overhead_ps(dims[d], e));
            }
        }
        ext.offload_dims
            .extend(dims.iter().map(|t| self.offload && t.kind == UnitTopology::Switch));
    }
}

impl EvalBackend for NetSimBackend {
    fn name(&self) -> &str {
        if self.offload {
            "net-sim-offload"
        } else {
            "net-sim"
        }
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        // Taken out (not borrowed) so a reentrant evaluation on this
        // thread warms a fresh buffer instead of panicking.
        let mut dims = DIMS_SCRATCH.take();
        self.resolve_dims_into(n_dims, plan, &mut dims);
        let result = eval_plan_on_engine(n_dims, bw, plan, self.chunks, |phase, ext| {
            self.phase_ext(n_dims, &dims, phase, ext)
        });
        DIMS_SCRATCH.replace(dims);
        result
    }
}

/// Registers this crate's backends with a scenario
/// [`BackendRegistry`](libra_core::scenario::BackendRegistry):
/// `"net-sim"` ([`NetSimBackend::new`], endpoint mode) and
/// `"net-sim-offload"` ([`NetSimBackend::offloaded`], switch-resident
/// reduction), both chunked by
/// [`BackendConfig::chunks`](libra_core::scenario::BackendConfig).
///
/// # Errors
/// Propagates duplicate-name rejections (registering twice into the same
/// registry).
pub fn register_backends(
    registry: &mut libra_core::scenario::BackendRegistry,
) -> Result<(), LibraError> {
    registry.register_described(
        "net-sim",
        "network-layer simulation with per-hop alpha latency and switch-traversal cost",
        |cfg| Box::new(NetSimBackend::new(cfg.chunks)),
    )?;
    registry.register_described(
        "net-sim-offload",
        "net-sim with switch-resident in-network reduction of switch-dimension collectives",
        |cfg| Box::new(NetSimBackend::offloaded(cfg.chunks)),
    )
}

/// The registry holding every backend the workspace ships:
/// `"analytical"` / `"analytical-offload"` (libra-core), `"event-sim"`
/// (libra-sim), and `"net-sim"` / `"net-sim-offload"` (this crate) — the
/// names scenario files use. Defined here, in the most-derived backend
/// crate (the only one that sees core, sim, and net at once), and
/// re-exported by the facade and `libra-bench` so there is exactly one
/// copy to extend when a new backend crate lands.
pub fn default_registry() -> libra_core::scenario::BackendRegistry {
    let mut registry = libra_core::scenario::BackendRegistry::new();
    libra_sim::register_backends(&mut registry).expect("fresh registry");
    register_backends(&mut registry).expect("fresh registry");
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_core::comm::{Collective, GroupSpan};
    use libra_core::eval::{rel_error, Analytical, CommPhase, NetSpec};
    use libra_core::workload::CommOp;
    use libra_sim::EventSimBackend;

    fn ar(gb: f64, span: GroupSpan) -> CommOp {
        CommOp::new(Collective::AllReduce, gb * 1e9, span)
    }

    fn span2() -> GroupSpan {
        GroupSpan::new(vec![(0, 4), (1, 8)])
    }

    fn switch_spec(n: usize, alpha_ps: f64, switch_ps: f64) -> NetSpec {
        NetSpec::uniform(
            n,
            UnitTopology::Switch,
            LinkParams::latency(alpha_ps).with_switch_ps(switch_ps),
        )
    }

    #[test]
    fn zero_latency_equals_event_sim_exactly() {
        let plan = CommPlan::serial([ar(4.0, span2()), ar(1.5, GroupSpan::new(vec![(0, 4)]))]);
        let bw = [60.0, 20.0];
        for chunks in [1, 8, 64] {
            let net = NetSimBackend::new(chunks).eval_plan(2, &bw, &plan).unwrap();
            let ev = EventSimBackend::new(chunks).eval_plan(2, &bw, &plan).unwrap();
            assert_eq!(net, ev, "chunks={chunks}: α=0 NetSim must equal EventSim bit-for-bit");
        }
    }

    #[test]
    fn hop_latency_follows_topology_kind() {
        let link = LinkParams::latency(1000.0);
        // Ring: (e−1)·α.
        let ring = DimTopology::new(UnitTopology::Ring, link);
        assert_eq!(stage_overhead_ps(ring, 2), 1000);
        assert_eq!(stage_overhead_ps(ring, 8), 7000);
        // FullyConnected: one hop regardless of extent.
        let fc = DimTopology::new(UnitTopology::FullyConnected, link);
        assert_eq!(stage_overhead_ps(fc, 2), 1000);
        assert_eq!(stage_overhead_ps(fc, 8), 1000);
        // Switch: 2 hops + traversal, extent-independent.
        let sw = DimTopology::new(UnitTopology::Switch, link.with_switch_ps(500.0));
        assert_eq!(stage_overhead_ps(sw, 2), 2500);
        assert_eq!(stage_overhead_ps(sw, 32), 2500);
        // switch_ps is ignored off-switch; garbage params contribute zero.
        assert_eq!(
            stage_overhead_ps(DimTopology::new(UnitTopology::Ring, link.with_switch_ps(9e9)), 2),
            1000
        );
        let nan = LinkParams { alpha_ps: f64::NAN, switch_ps: -5.0 };
        assert_eq!(stage_overhead_ps(DimTopology::new(UnitTopology::Switch, nan), 4), 0);
    }

    #[test]
    fn two_node_ring_allreduce_alpha_beta_exact() {
        // 2 GB All-Reduce over a 2-node ring, 2 chunks, 10 GB/s, α = 10 ms:
        // four serialized stages of (0.05 s β + 0.01 s α) = 0.24 s, i.e. the
        // analytical 0.2 s plus 4 α.
        let span = GroupSpan::new(vec![(0, 2)]);
        let plan = CommPlan::serial([ar(2.0, span)]).with_net(NetSpec::uniform(
            1,
            UnitTopology::Ring,
            LinkParams::latency(1e10),
        ));
        let bw = [10.0];
        let net = NetSimBackend::new(2).eval_plan(1, &bw, &plan).unwrap();
        assert!((net - 0.24).abs() < 1e-12, "got {net}");
        let ana = Analytical::new().eval_plan(1, &bw, &plan).unwrap();
        assert!((net - ana - 4.0 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn alpha_dominated_small_messages_diverge_beyond_bound() {
        // 1 MB over a big-α 2-dim switch fabric: latency dwarfs
        // serialization, so NetSim must exceed the β-only agreement bound —
        // the documented Fig. 12-regime divergence.
        let plan = CommPlan::serial([ar(0.001, span2())]).with_net(switch_spec(2, 1e9, 0.0));
        let bw = [100.0, 100.0];
        let backend = NetSimBackend::new(64);
        let net = backend.eval_plan(2, &bw, &plan).unwrap();
        let ana = Analytical::new().eval_plan(2, &bw, &plan).unwrap();
        assert!(
            rel_error(ana, net) > backend.agreement_bound(2),
            "α-dominated plan should diverge: net {net}, ana {ana}"
        );
        // And the latency term is additive: zeroing α restores agreement.
        let calm = CommPlan { net: Some(switch_spec(2, 0.0, 0.0)), ..plan };
        let net0 = backend.eval_plan(2, &bw, &calm).unwrap();
        assert!(rel_error(ana, net0) <= backend.agreement_bound(2));
    }

    #[test]
    fn offloaded_backend_matches_analytical_offload_on_switch_fabrics() {
        let plan = CommPlan::serial([ar(4.0, span2())]).with_net(switch_spec(2, 0.0, 0.0));
        let bw = [40.0, 15.0];
        let backend = NetSimBackend::offloaded(64);
        assert_eq!(backend.name(), "net-sim-offload");
        let net = backend.eval_plan(2, &bw, &plan).unwrap();
        let ana = Analytical { in_network_offload: true }.eval_plan(2, &bw, &plan).unwrap();
        assert!(net >= ana * (1.0 - 1e-9), "offloaded sim below analytical lower bound");
        assert!(
            rel_error(ana, net) <= backend.agreement_bound(2),
            "offloaded rel err {} above bound {}",
            rel_error(ana, net),
            backend.agreement_bound(2)
        );
        // Offload strictly beats endpoint execution for All-Reduce.
        let endpoint = NetSimBackend::new(64).eval_plan(2, &bw, &plan).unwrap();
        assert!(net < endpoint);
    }

    #[test]
    fn offload_spares_non_switch_dimensions() {
        // Ring dim 0 stays endpoint-driven, switch dim 1 offloads: the
        // result must sit strictly between all-endpoint and all-offload.
        let mixed = NetSpec {
            dims: vec![
                DimTopology::new(UnitTopology::Ring, LinkParams::zero()),
                DimTopology::new(UnitTopology::Switch, LinkParams::zero()),
            ],
        };
        // Dim 1 is the bottleneck, so offloading it (or not) moves the
        // makespan strictly.
        let bw = [40.0, 5.0];
        let base = CommPlan::serial([ar(4.0, span2())]);
        let backend = NetSimBackend::offloaded(8);
        let t_mixed = backend.eval_plan(2, &bw, &base.clone().with_net(mixed)).unwrap();
        let t_all_off =
            backend.eval_plan(2, &bw, &base.clone().with_net(switch_spec(2, 0.0, 0.0))).unwrap();
        let t_endpoint = NetSimBackend::new(8).eval_plan(2, &bw, &base).unwrap();
        assert!(t_all_off < t_mixed, "all-offload {t_all_off} vs mixed {t_mixed}");
        assert!(t_mixed < t_endpoint, "mixed {t_mixed} vs endpoint {t_endpoint}");
    }

    #[test]
    fn default_dims_cover_missing_spec_entries() {
        // Spec shorter than the fabric: dim 1 falls back to the backend
        // default (here a ring with latency), and the makespan shows it.
        let backend = NetSimBackend::new(1)
            .with_default_dim(DimTopology::new(UnitTopology::Ring, LinkParams::latency(1e9)));
        let spec = NetSpec { dims: vec![DimTopology::zero_switch()] };
        let plan = CommPlan::serial([ar(1.0, span2())]).with_net(spec);
        let bw = [10.0, 10.0];
        let with_default = backend.eval_plan(2, &bw, &plan).unwrap();
        let zero = NetSimBackend::new(1).eval_plan(2, &bw, &plan).unwrap();
        // Dim 1 (extent 8, ring) pays 7 ms per stage × 2 stages.
        assert!((with_default - zero - 2.0 * 7e-3).abs() < 1e-9);
    }

    #[test]
    fn repeat_and_phases_compose_like_other_backends() {
        let once = CommPlan::serial([ar(2.0, span2())]).with_net(switch_spec(2, 1e7, 0.0));
        let thrice = CommPlan {
            phases: vec![CommPhase::solo(ar(2.0, span2())).repeated(3)],
            net: Some(switch_spec(2, 1e7, 0.0)),
        };
        let bw = [30.0, 15.0];
        let backend = NetSimBackend::new(8);
        let t1 = backend.eval_plan(2, &bw, &once).unwrap();
        let t3 = backend.eval_plan(2, &bw, &thrice).unwrap();
        assert!((t3 - 3.0 * t1).abs() < 1e-12);
    }

    /// `[A×3, B×5, A×7]` under a latency-carrying spec: the repeated
    /// phase reuses its first makespan, and the total is bit-equal to the
    /// in-order sum of the three phases priced one plan at a time.
    #[test]
    fn equal_phases_price_like_separate_plans() {
        let spec = switch_spec(2, 2e6, 5e5);
        let phases = [
            CommPhase::solo(ar(2.0, span2())).repeated(3),
            CommPhase::solo(ar(0.5, GroupSpan::new(vec![(1, 8)]))).repeated(5),
            CommPhase::solo(ar(2.0, span2())).repeated(7),
        ];
        let plan = CommPlan { phases: phases.to_vec(), net: Some(spec.clone()) };
        let bw = [30.0, 15.0];
        for backend in [NetSimBackend::new(16), NetSimBackend::offloaded(16)] {
            let whole = backend.eval_plan(2, &bw, &plan).unwrap();
            let sum = phases
                .iter()
                .map(|p| CommPlan { phases: vec![p.clone()], net: Some(spec.clone()) })
                .map(|p| backend.eval_plan(2, &bw, &p).unwrap())
                .fold(0.0, |s, t| s + t);
            assert_eq!(whole.to_bits(), sum.to_bits(), "{}: {whole} vs {sum}", backend.name());
        }
    }

    #[test]
    fn rejects_bad_inputs_like_other_backends() {
        let plan = CommPlan::serial([ar(1.0, span2())]);
        let backend = NetSimBackend::default();
        assert!(backend.eval_plan(2, &[10.0, 0.0], &plan).is_err());
        assert!(backend.eval_plan(1, &[10.0], &plan).is_err());
        assert_eq!(backend.eval_plan(2, &[1.0, 1.0], &CommPlan::new()).unwrap(), 0.0);
    }

    #[test]
    fn agreement_bound_shrinks_with_chunks() {
        assert!(
            NetSimBackend::new(64).agreement_bound(2) < NetSimBackend::new(8).agreement_bound(2)
        );
        assert_eq!(NetSimBackend::new(1).agreement_bound(4), 1.0);
        assert_eq!(
            NetSimBackend::new(64).agreement_bound(3),
            EventSimBackend::new(64).agreement_bound(3),
            "at α=0 the engines coincide, so the bounds must too"
        );
    }
}
