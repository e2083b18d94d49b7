//! Failure accounting: each workload at a tiny size, once clean and once
//! under an armed `sweep.point.error` fault plan. A clean run fails no
//! op; an armed run fails some; every metric prints with its unit, and
//! the metric lists agree with `BENCHMARK.json` and `baseline.json`.

use std::path::{Path, PathBuf};

use libra_bench::{default_registry, ExecMode};
use libra_core::scenario::{Json, JsonParser};
use perfbench::ops::{self, Local};
use perfbench::{Report, RunConfig, Workload, END_TO_END, PER_LAYER};

const TINY_CROSSVAL: &str = r#"{
  "schema": "libra-scenario-v1",
  "name": "tiny-crossval",
  "shapes": ["RI(16)_FC(8)_SW(32)"],
  "budgets": [100, 200],
  "objectives": ["perf"],
  "workloads": ["GPT-3"],
  "link": {"alpha_ps": 20000, "switch_ps": 10000},
  "backends": ["analytical", "event-sim", "net-sim"],
  "chunks": 8,
  "tolerance": 0.5,
  "warm_start": true
}
"#;

const TINY_SEARCH: &str = r#"{
  "schema": "libra-scenario-v1",
  "name": "tiny-search",
  "shapes": ["SW(16)_SW(8)_SW(4)"],
  "budgets": {"from": 100, "to": 2000, "count": 40, "scale": "linear"},
  "objectives": ["perf"],
  "workloads": ["Turing-NLG"],
  "backends": [],
  "chunks": 8,
  "tolerance": 0.5,
  "warm_start": true,
  "search": {"seed_budgets": 3, "refine_radius": 1, "max_evals": 6}
}
"#;

/// Every grid point fails.
const ARMED: &str = "sweep.point.error=1";

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("failure_accounting").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(workload: Workload, trace: bool, fault: Option<&str>) -> RunConfig {
    let tag = format!("{}-{}-{}", workload.name(), trace, fault.is_some());
    let dir = work_dir(&tag);
    let crossval = dir.join("crossval.json");
    std::fs::write(&crossval, TINY_CROSSVAL).unwrap();
    let scenario = match workload {
        Workload::SearchHuge => {
            let path = dir.join("search.json");
            std::fs::write(&path, TINY_SEARCH).unwrap();
            path
        }
        _ => crossval.clone(),
    };
    let reference = perfbench::reference(workload, &scenario, &dir).unwrap();
    RunConfig {
        workload,
        scenario,
        probe_scenario: crossval,
        reference,
        seconds: 0.0,
        trace,
        work_dir: dir,
        fault: fault.map(str::to_string),
        seed: 1,
    }
}

/// Every metric is in the result line with its unit.
fn assert_prints_all(report: &Report, expected: &[(&str, &str)]) {
    let line = report.to_json();
    let parsed = JsonParser::parse(&line).unwrap();
    let metrics = parsed.get("metrics").unwrap();
    for (name, unit) in expected {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing from {line}"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite), "{name}");
    }
    assert_eq!(report.metrics.len(), expected.len());
}

fn check(workload: Workload) {
    let clean = perfbench::run(&config(workload, false, None)).unwrap();
    assert_eq!(clean.failed, 0, "{:?}: {:?}", workload, clean.first_failure);
    assert!(clean.attempted >= perfbench::MIN_OPS);
    assert_eq!(clean.get("ok_frac"), Some(1.0));
    assert_prints_all(&clean, END_TO_END);

    let armed = perfbench::run(&config(workload, false, Some(ARMED))).unwrap();
    assert!(armed.failed > 0, "{workload:?}: the armed run failed no op");
    assert!(armed.get("ok_frac").unwrap() < 1.0);
    assert!(armed.to_json().contains("\"correct\": false"));
    assert_prints_all(&armed, END_TO_END);

    let traced = perfbench::run(&config(workload, true, None)).unwrap();
    assert_eq!(traced.failed, 0, "{:?}: {:?}", workload, traced.first_failure);
    assert_prints_all(&traced, PER_LAYER);
}

#[test]
fn crossval_cold_counts_failures() {
    check(Workload::CrossvalCold);
}

#[test]
fn search_huge_counts_failures() {
    check(Workload::SearchHuge);
}

#[test]
fn serve_warm_counts_failures() {
    check(Workload::ServeWarm);
}

/// An op whose backends disagree beyond the scenario tolerance fails (as
/// `libra crossval` and `libra submit` exit 2) even when its bytes match
/// the reference, and such a scenario gives no reference at all.
#[test]
fn divergence_beyond_tolerance_fails_ops() {
    for workload in [Workload::CrossvalCold, Workload::ServeWarm] {
        let dir = work_dir(&format!("{}-diverged", workload.name()));
        let scenario = dir.join("crossval.json");
        let tight = TINY_CROSSVAL.replace("\"tolerance\": 0.5", "\"tolerance\": 0.000001");
        std::fs::write(&scenario, tight).unwrap();
        assert!(perfbench::reference(workload, &scenario, &dir).is_err());

        let how = Local { mode: ExecMode::Serial, fault: None, tracer: None };
        let cache = dir.join("diverged.cache.jsonl");
        let out = ops::crossval(&scenario, &default_registry(), &cache, how).unwrap();
        assert!(out.diverged && out.poisoned == 0);
        let config = RunConfig {
            workload,
            scenario: scenario.clone(),
            probe_scenario: scenario,
            reference: out.bytes,
            seconds: 0.0,
            trace: false,
            work_dir: dir,
            fault: None,
            seed: 1,
        };
        let report = perfbench::run(&config).unwrap();
        assert_eq!(report.failed, report.attempted, "{workload:?}");
        let why = report.first_failure.unwrap();
        assert!(why.contains("divergence"), "{workload:?}: {why}");
    }
}

/// The metric lists the program prints are the ones `BENCHMARK.json` declares.
#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let bench = JsonParser::parse(&text).unwrap();
    for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String)> = bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let printed: Vec<(String, String)> =
            expected.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared, printed, "{key}");
    }
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);

    // baseline.json records the target and exactness of every per-layer metric.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json");
    let baseline = JsonParser::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Json::Obj(recorded)) = baseline.get("per_layer") else {
        panic!("baseline.json has no per_layer object");
    };
    let recorded: Vec<&str> = recorded.iter().map(|(name, _)| name.as_str()).collect();
    let printed: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    assert_eq!(recorded, printed);
}
