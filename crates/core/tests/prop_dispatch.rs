//! Property test of the shard dispatcher's headline contract: for random
//! grids and random shard counts K ∈ 1..=8, shard-then-merge equals the
//! unsharded `Session::run` **bit for bit** — every record and the
//! summary line — even though warm-started range-restricted drives must
//! re-solve out-of-range group anchors to publish exactly the seeds the
//! full run would have.

use libra_core::comm::{Collective, CommModel, GroupSpan};
use libra_core::cost::CostModel;
use libra_core::dispatch::Dispatcher;
use libra_core::eval::CommPlan;
use libra_core::network::NetworkShape;
use libra_core::opt::Objective;
use libra_core::scenario::{BackendRegistry, CollectorSink, JsonLinesSink, Scenario};
use libra_core::sweep::FnWorkload;
use libra_core::workload::CommOp;
use proptest::prelude::*;

fn planned_workload(name: String, gb: f64) -> FnWorkload {
    let make = move |shape: &NetworkShape| {
        CommModel::default().time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape))
    };
    let plan_gb = gb;
    FnWorkload::new(name, move |shape: &NetworkShape| Ok(vec![(1.0, make(shape))])).with_plan(
        move |shape: &NetworkShape| {
            Ok(CommPlan::serial([CommOp::new(
                Collective::AllReduce,
                plan_gb * 1e9,
                GroupSpan::full(shape),
            )]))
        },
    )
}

/// Small random scenarios: 1–2 shapes from a fixed pool, 1–3 budgets,
/// 1–2 objectives, 1–2 workloads — grids of 1..=24 points, enough to
/// exercise shard boundaries everywhere while keeping solve counts sane.
fn arb_scenario() -> impl Strategy<Value = (Scenario, Vec<f64>)> {
    let shapes = prop::collection::vec(0usize..3, 1..=2);
    let budgets = prop::collection::vec(1u64..=40, 1..=3);
    let objectives = 0usize..3;
    let workloads = prop::collection::vec(1u64..=6, 1..=2);
    (shapes, budgets, objectives, workloads).prop_map(|(shapes, budgets, objectives, workloads)| {
        let pool = ["RI(4)_SW(8)", "FC(8)_SW(4)", "SW(16)_SW(4)"];
        let objs: &[Objective] = match objectives {
            0 => &[Objective::Perf],
            1 => &[Objective::PerfPerCost],
            _ => &[Objective::Perf, Objective::PerfPerCost],
        };
        let gbs: Vec<f64> = workloads.iter().map(|&g| g as f64).collect();
        let scenario = Scenario::builder("prop-dispatch")
            .with_shapes(shapes.iter().map(|&i| pool[i].parse().unwrap()))
            .with_budgets(budgets.iter().map(|&b| 50.0 * b as f64))
            .with_objectives(objs.iter().copied())
            .with_workloads(gbs.iter().map(|g| format!("wl-{g}")))
            .with_backends(["analytical", "analytical-offload"])
            .with_tolerance(0.25)
            .build()
            .unwrap();
        (scenario, gbs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shard_then_merge_is_bit_identical_to_the_unsharded_run(
        case in arb_scenario(),
        shards in 1usize..=8,
    ) {
        let (scenario, gbs) = case;
        let wls: Vec<FnWorkload> =
            gbs.iter().map(|&g| planned_workload(format!("wl-{g}"), g)).collect();
        let cm = CostModel::default();
        let registry = BackendRegistry::new();

        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        let mut collector = CollectorSink::new();
        let report = scenario
            .session(&cm)
            .run_scenario_with_sinks(&scenario, &wls, &registry, &mut [&mut sink, &mut collector])
            .unwrap();
        let single = String::from_utf8(sink.into_inner()).unwrap();

        let merged = Dispatcher::new(&scenario, shards)
            .unwrap()
            .run_in_process(&cm, &wls, &registry)
            .unwrap();

        // Records: bit-for-bit, in grid order (indices are global).
        prop_assert_eq!(&merged.rows, &collector.rows, "K={}", shards);
        // The whole stream — header, records, summary — byte-identical.
        prop_assert_eq!(&merged.to_jsonl(), &single, "K={}", shards);
        // And the re-judged verdict agrees with the single run's.
        prop_assert_eq!(merged.within_tolerance(), report.divergence.within_tolerance());
        prop_assert_eq!(merged.exit_code(), i32::from(!report.divergence.within_tolerance()) * 2);
    }
}
