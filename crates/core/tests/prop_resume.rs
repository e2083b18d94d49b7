//! Property test of the resume path's headline contract: for random
//! grids, interrupting a run after a random prefix of its JSON-lines
//! stream (optionally mid-line, the way a killed writer tears its last
//! record) and resuming via [`partial_records`] + [`resume_rows`]
//! reproduces the uninterrupted run **bit for bit** — every record, the
//! summary line, and the exit verdict — with or without the persistent
//! solve store backing the re-priced ranges.

use std::sync::atomic::{AtomicUsize, Ordering};

use libra_core::comm::{Collective, CommModel, GroupSpan};
use libra_core::cost::CostModel;
use libra_core::dispatch::{partial_records, resume_rows};
use libra_core::eval::CommPlan;
use libra_core::network::NetworkShape;
use libra_core::opt::Objective;
use libra_core::scenario::{BackendRegistry, JsonLinesSink, Scenario};
use libra_core::sweep::{ExecMode, FnWorkload};
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
/// 1–2 objectives, 1–2 workloads — grids of 1..=24 points, so the
/// interrupt lands on every kind of boundary (before the header's first
/// record, mid-grid, on the last record) across cases.
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
        let scenario = Scenario::builder("prop-resume")
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

/// A unique throwaway store path per invocation (proptest cases run
/// concurrently inside one process).
fn scratch_store() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("libra-prop-resume-{}-{n}.jsonl", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn resuming_an_interrupted_stream_is_bit_identical(
        case in arb_scenario(),
        cut in 0.0f64..1.0,
        tear in prop::bool::ANY,
        with_store in prop::bool::ANY,
    ) {
        let (scenario, gbs) = case;
        let wls: Vec<FnWorkload> =
            gbs.iter().map(|&g| planned_workload(format!("wl-{g}"), g)).collect();
        let cm = CostModel::default();
        let registry = BackendRegistry::new();

        // The uninterrupted reference stream.
        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        let report = scenario
            .session(&cm)
            .run_scenario_with_sinks(&scenario, &wls, &registry, &mut [&mut sink])
            .unwrap();
        let full = String::from_utf8(sink.into_inner()).unwrap();

        // Interrupt after a random prefix of its lines (header always
        // survives: a writer emits it before any record), optionally
        // tearing the next line mid-byte like a killed process would.
        let lines: Vec<&str> = full.lines().collect();
        let keep = 1 + ((lines.len() - 1) as f64 * cut) as usize;
        let keep = keep.min(lines.len());
        let mut partial: String =
            lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        if tear && keep < lines.len() {
            let next = lines[keep];
            partial.push_str(&next[..next.len() / 2]);
        }

        let store = with_store.then(scratch_store);
        let rows = partial_records(&partial).unwrap();
        let merged = resume_rows(
            &scenario,
            &wls,
            &registry,
            &cm,
            rows,
            ExecMode::Parallel,
            store.as_deref(),
        )
        .unwrap();
        if let Some(path) = &store {
            let _ = std::fs::remove_file(path);
        }

        prop_assert_eq!(
            &merged.to_jsonl(),
            &full,
            "keep={}/{} tear={} store={}",
            keep, lines.len(), tear, with_store
        );
        prop_assert_eq!(merged.within_tolerance(), report.divergence.within_tolerance());
        prop_assert_eq!(merged.exit_code(), i32::from(!report.divergence.within_tolerance()) * 2);
    }
}
