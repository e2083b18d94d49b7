//! Property tests for the sweep grid and the shape notation it enumerates:
//! parse/display round-trips, duplicate-free enumeration, deterministic
//! order, first-occurrence budget dedup.

use std::collections::HashSet;

use libra_core::network::{NetworkShape, UnitTopology};
use libra_core::opt::Objective;
use libra_core::sweep::{GridPoint, SweepGrid};
use proptest::prelude::*;

/// Random valid shapes, 1–4 dims of size 2–64.
fn arb_shape() -> impl Strategy<Value = NetworkShape> {
    prop::collection::vec((0u8..3, 2u64..=64), 1..=4).prop_map(|dims| {
        let dims: Vec<(UnitTopology, u64)> = dims
            .into_iter()
            .map(|(t, s)| {
                let topo = match t {
                    0 => UnitTopology::Ring,
                    1 => UnitTopology::FullyConnected,
                    _ => UnitTopology::Switch,
                };
                (topo, s)
            })
            .collect();
        NetworkShape::new(&dims).unwrap()
    })
}

fn arb_objectives() -> impl Strategy<Value = Vec<Objective>> {
    prop_oneof![
        Just(vec![Objective::Perf]),
        Just(vec![Objective::PerfPerCost]),
        Just(vec![Objective::Perf, Objective::PerfPerCost]),
        Just(vec![Objective::PerfPerCost, Objective::Perf]),
    ]
}

/// Budget inputs drawn from a small pool, so duplicates are common, with
/// the values `with_budgets` must drop (NaN, ±∞, ±0, negatives) mixed in.
fn arb_budget() -> impl Strategy<Value = f64> {
    const POOL: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -100.0,
        5e-324,
        100.0,
        250.5,
        400.0,
        1e300,
        f64::MAX,
    ];
    (0..POOL.len()).prop_map(|i| POOL[i])
}

/// The dedup oracle: each finite, positive value's first occurrence, in
/// input order, found by a linear scan.
fn first_occurrences(budgets: &[f64]) -> Vec<f64> {
    let mut kept: Vec<f64> = Vec::new();
    for &b in budgets {
        if b.is_finite() && b > 0.0 && !kept.contains(&b) {
            kept.push(b);
        }
    }
    kept
}

/// A hashable identity for a grid point (budgets compared bit-exactly).
fn key(p: &GridPoint) -> (usize, usize, u64, Objective) {
    (p.shape, p.workload, p.budget.to_bits(), p.objective)
}

proptest! {
    /// `"RI(8)_SW(4)"`-style notation round-trips: struct → string → struct
    /// and string → struct → string.
    #[test]
    fn shape_parse_display_round_trip(shape in arb_shape()) {
        let text = shape.to_string();
        let back: NetworkShape = text.parse().unwrap();
        prop_assert_eq!(&back, &shape);
        prop_assert_eq!(back.to_string(), text);
    }

    /// Grid enumeration contains no duplicate points.
    #[test]
    fn grid_enumeration_has_no_duplicates(
        shapes in prop::collection::vec(arb_shape(), 1..=4),
        budgets in prop::collection::vec(10.0f64..1000.0, 1..=5),
        objectives in arb_objectives(),
        n_workloads in 1usize..=4,
    ) {
        let grid = SweepGrid::new()
            .with_shapes(shapes)
            .with_budgets(budgets)
            .with_objectives(objectives);
        let points = grid.points(n_workloads);
        prop_assert_eq!(points.len(), grid.len(n_workloads));
        let uniq: HashSet<_> = points.iter().map(key).collect();
        prop_assert_eq!(uniq.len(), points.len(), "duplicate grid points");
    }

    /// Enumeration order is deterministic (identical across calls) and
    /// shape-major lexicographic over (shape, workload, budget, objective)
    /// axis indices.
    #[test]
    fn grid_enumeration_is_deterministic_and_ordered(
        shapes in prop::collection::vec(arb_shape(), 1..=3),
        budgets in prop::collection::vec(10.0f64..1000.0, 1..=4),
        objectives in arb_objectives(),
        n_workloads in 1usize..=3,
    ) {
        let grid = SweepGrid::new()
            .with_shapes(shapes)
            .with_budgets(budgets)
            .with_objectives(objectives);
        let a = grid.points(n_workloads);
        let b = grid.points(n_workloads);
        prop_assert_eq!(&a, &b, "two enumerations differ");
        let axis_index = |p: &GridPoint| {
            let bi = grid.budgets().iter().position(|&x| x == p.budget).unwrap();
            let oi = grid.objectives().iter().position(|&o| o == p.objective).unwrap();
            (p.shape, p.workload, bi, oi)
        };
        for w in a.windows(2) {
            prop_assert!(
                axis_index(&w[0]) < axis_index(&w[1]),
                "points out of order: {:?} then {:?}", w[0], w[1]
            );
        }
    }

    /// Inserting duplicates (shapes, budgets, objectives) never changes the
    /// enumeration.
    #[test]
    fn grid_insertion_dedups(
        shapes in prop::collection::vec(arb_shape(), 1..=3),
        budgets in prop::collection::vec(10.0f64..1000.0, 1..=4),
        objectives in arb_objectives(),
    ) {
        let base = SweepGrid::new()
            .with_shapes(shapes.clone())
            .with_budgets(budgets.clone())
            .with_objectives(objectives.clone());
        let doubled = base
            .clone()
            .with_shapes(shapes)
            .with_budgets(budgets)
            .with_objectives(objectives);
        prop_assert_eq!(base.points(2), doubled.points(2));
    }

    /// `with_budgets` keeps exactly each valid value's first occurrence,
    /// in input order, whether the list arrives in one call or two.
    #[test]
    fn budget_dedup_keeps_first_occurrences_in_order(
        budgets in prop::collection::vec(arb_budget(), 0..=40),
        split in 0usize..=40,
        two_calls in prop::bool::ANY,
    ) {
        let split = if two_calls { split.min(budgets.len()) } else { budgets.len() };
        let (head, tail) = budgets.split_at(split);
        let mut grid = SweepGrid::new().with_budgets(head.iter().copied());
        if two_calls {
            grid = grid.with_budgets(tail.iter().copied());
        }
        let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(grid.budgets()), bits(&first_occurrences(&budgets)), "{:?}", budgets);
    }
}

/// The ISSUE's concrete example, pinned outside proptest.
#[test]
fn ri8_sw4_round_trips_exactly() {
    let shape: NetworkShape = "RI(8)_SW(4)".parse().unwrap();
    assert_eq!(shape.ndims(), 2);
    assert_eq!(shape.npus(), 32);
    assert_eq!(shape.dims()[0].topology, UnitTopology::Ring);
    assert_eq!(shape.dims()[0].size, 8);
    assert_eq!(shape.dims()[1].topology, UnitTopology::Switch);
    assert_eq!(shape.dims()[1].size, 4);
    assert_eq!(shape.to_string(), "RI(8)_SW(4)");
    let rebuilt = NetworkShape::new(&[(UnitTopology::Ring, 8), (UnitTopology::Switch, 4)]).unwrap();
    assert_eq!(rebuilt, shape);
}
