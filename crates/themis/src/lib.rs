//! # libra-themis
//!
//! A Themis-style **bandwidth-aware runtime collective scheduler** — the
//! substrate for the paper's Fig. 19 co-design study (LIBRA + Themis).
//!
//! Themis (Rashidi et al., ISCA '22) dynamically schedules collective
//! chunks over the dimensions of a multi-dimensional network in a greedy
//! manner, so that over-loaded dimensions shed work to under-utilized ones
//! at runtime. This crate implements that policy as a
//! [`ChunkScheduler`] for the
//! `libra-sim` engine: each time a chunk finishes a stage, it picks the
//! *unvisited* dimension with the earliest estimated finish time
//! (current backlog + its own service time).
//!
//! Because visiting a dimension early shrinks the payload carried into
//! later dimensions (multi-rail Reduce-Scatter), rebalancing the visit
//! order also reduces total traffic on hot dimensions — which is why Themis
//! recovers a large fraction of EqualBW's lost utilization, and why a
//! LIBRA-designed network still helps on top (the Fig. 19 result).

use std::collections::HashMap;
use std::collections::VecDeque;

use libra_sim::collective::{ChunkScheduler, StageOption};
use libra_sim::event::{transfer_with_latency_ps, Time};

/// The greedy bandwidth-aware chunk planner.
///
/// When a chunk schedules its *first* stage, the planner evaluates every
/// dimension-visit permutation against the projected per-dimension loads
/// (live server backlog plus the stages of previously planned chunks,
/// including payload shrink along each order) and commits to the
/// permutation that minimizes the resulting bottleneck load. Subsequent
/// stages follow the committed plan. Ties prefer the canonical ascending
/// order, so on an already-balanced (LIBRA-designed) network Themis
/// degenerates to the standard multi-rail schedule.
///
/// # Example
/// ```
/// use libra_core::comm::{Collective, GroupSpan};
/// use libra_sim::collective::run_collective;
/// use libra_themis::ThemisScheduler;
///
/// let span = GroupSpan::new(vec![(0, 4), (1, 4)]);
/// let res = run_collective(
///     2,
///     &[10.0, 10.0],
///     Collective::AllReduce,
///     1e9,
///     &span,
///     8,
///     &mut ThemisScheduler::new(),
/// );
/// assert!(res.makespan() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThemisScheduler {
    /// Projected completion time of all planned work per dimension.
    planned_end: HashMap<usize, Time>,
    /// Remaining committed visit order per chunk key.
    plans: HashMap<usize, VecDeque<usize>>,
}

impl ThemisScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        ThemisScheduler::default()
    }

    fn base_load(&self, o: &StageOption, now: Time) -> Time {
        let planned = self.planned_end.get(&o.dim).copied().unwrap_or(0);
        now.max(o.server_free_at).max(planned)
    }
}

/// Lexicographic permutations of `0..k` (canonical ascending order first).
fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::with_capacity(k);
    let mut used = vec![false; k];
    fn rec(k: usize, cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(k, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(k, &mut cur, &mut used, &mut out);
    out
}

impl ChunkScheduler for ThemisScheduler {
    fn choose(&mut self, chunk: usize, now: Time, options: &[StageOption]) -> usize {
        // Follow an existing plan when one is committed.
        if let Some(plan) = self.plans.get_mut(&chunk) {
            if let Some(&d) = plan.front() {
                if let Some(i) = options.iter().position(|o| o.dim == d) {
                    plan.pop_front();
                    if plan.is_empty() {
                        self.plans.remove(&chunk);
                    }
                    return i;
                }
            }
            // Options diverged from the plan (shouldn't happen): replan.
            self.plans.remove(&chunk);
        }
        let k = options.len();
        if k == 1 {
            return 0;
        }
        // Evaluate all visit orders against projected loads. Spans have at
        // most a handful of dimensions, so k! stays tiny; guard anyway.
        let perms = if k <= 5 { permutations(k) } else { vec![(0..k).collect()] };
        let mut best_perm: &[usize] = &perms[0];
        let mut best_cost = Time::MAX;
        let mut best_loads: Vec<(usize, Time)> = Vec::new();
        for perm in &perms {
            // Load projection, not a schedule: each dimension's committed
            // work end advances by the service this order would add, with
            // the payload shrink the order produces. Chunk-level precedence
            // is deliberately ignored — chunks pipeline, so per-dimension
            // load is what determines the bottleneck (Fig. 9).
            let mut loads: Vec<Time> = options.iter().map(|o| self.base_load(o, now)).collect();
            let mut shrink = 1.0f64;
            for &idx in perm {
                let o = &options[idx];
                // α-β service estimate: serialization plus the dimension's
                // fixed per-stage overhead (zero on pure-bandwidth runs).
                loads[idx] = loads[idx].saturating_add(transfer_with_latency_ps(
                    o.bytes / shrink,
                    o.bw_gbps,
                    o.overhead_ps,
                ));
                if o.shrinks {
                    shrink *= o.extent as f64;
                }
            }
            let cost = loads.iter().copied().max().unwrap_or(now);
            // Strictly-better keeps the lexicographically-first (canonical)
            // order on ties.
            if cost < best_cost {
                best_cost = cost;
                best_perm = perm;
                best_loads = options.iter().map(|o| o.dim).zip(loads).collect();
            }
        }
        for &(dim, end) in &best_loads {
            let e = self.planned_end.entry(dim).or_insert(0);
            *e = (*e).max(end);
        }
        if best_perm.len() > 1 {
            let rest: VecDeque<usize> = best_perm[1..].iter().map(|&i| options[i].dim).collect();
            self.plans.insert(chunk, rest);
        }
        best_perm[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_core::comm::{Collective, GroupSpan};
    use libra_sim::collective::{run_collective, FixedOrder};

    fn span3() -> GroupSpan {
        GroupSpan::new(vec![(0, 4), (1, 4), (2, 4)])
    }

    /// On an EqualBW (mis-provisioned) network, Themis beats the canonical
    /// fixed order by spreading early stages across dimensions.
    #[test]
    fn beats_fixed_order_on_equal_bw() {
        let bw = [100.0, 100.0, 100.0]; // EqualBW: dim 0 is the bottleneck
        let bytes = 8e9;
        let fixed =
            run_collective(3, &bw, Collective::AllReduce, bytes, &span3(), 64, &mut FixedOrder);
        let themis = run_collective(
            3,
            &bw,
            Collective::AllReduce,
            bytes,
            &span3(),
            64,
            &mut ThemisScheduler::new(),
        );
        assert!(
            themis.makespan() < fixed.makespan(),
            "themis {} vs fixed {}",
            themis.makespan(),
            fixed.makespan()
        );
    }

    /// On a traffic-proportional (LIBRA-like) allocation, the fixed order
    /// is already near-optimal; Themis must not be much worse.
    #[test]
    fn no_regression_on_balanced_bw() {
        // Traffic ratios for 4×4×4 All-Reduce: 1.5m : 0.375m : 0.094m.
        let bw = [228.0, 57.0, 15.0];
        let bytes = 8e9;
        let fixed =
            run_collective(3, &bw, Collective::AllReduce, bytes, &span3(), 64, &mut FixedOrder);
        let themis = run_collective(
            3,
            &bw,
            Collective::AllReduce,
            bytes,
            &span3(),
            64,
            &mut ThemisScheduler::new(),
        );
        let ratio = themis.makespan() as f64 / fixed.makespan() as f64;
        assert!(ratio < 1.10, "themis should stay within 10% on balanced BW, ratio {ratio}");
    }

    /// Every chunk still performs all 2N stages (correctness of the
    /// algorithm under reordering).
    #[test]
    fn all_stages_execute() {
        let bw = [50.0, 50.0, 50.0];
        let chunks = 16;
        let res = run_collective(
            3,
            &bw,
            Collective::AllReduce,
            4e9,
            &span3(),
            chunks,
            &mut ThemisScheduler::new(),
        );
        // 3 RS + 3 AG stages per chunk.
        assert_eq!(res.records.len(), chunks * 6);
        // Gather stages replay scatter dims: per chunk, the multiset of
        // scatter dims equals the multiset of gather dims.
        for c in 0..chunks {
            let mut rs: Vec<usize> =
                res.records.iter().filter(|r| r.chunk == c && !r.gather).map(|r| r.dim).collect();
            let mut ag: Vec<usize> =
                res.records.iter().filter(|r| r.chunk == c && r.gather).map(|r| r.dim).collect();
            rs.sort_unstable();
            ag.sort_unstable();
            assert_eq!(rs, ag, "chunk {c}");
        }
    }

    /// Deterministic: same inputs, same schedule.
    #[test]
    fn deterministic() {
        let bw = [40.0, 20.0, 10.0];
        let a = run_collective(
            3,
            &bw,
            Collective::AllReduce,
            2e9,
            &span3(),
            32,
            &mut ThemisScheduler::new(),
        );
        let b = run_collective(
            3,
            &bw,
            Collective::AllReduce,
            2e9,
            &span3(),
            32,
            &mut ThemisScheduler::new(),
        );
        assert_eq!(a.records, b.records);
    }
}
