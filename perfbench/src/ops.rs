//! One op of each workload, made through the same public calls the
//! `libra` CLI (`crossval --cache`, `search`) and `libra submit` make.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use libra_bench::scenario::JsonLinesSink;
use libra_bench::sweep::{CacheStats, FnWorkload};
use libra_bench::{scenario_workloads, search, BackendRegistry, ExecMode, ReportSink, Scenario};
use libra_core::cost::CostModel;
use libra_core::fault::FaultInjector;
use libra_core::LibraError;
use libra_server::{PolledStatus, ServiceClient};

use crate::trace::{traced_workloads, TimedSink, Tracer};

/// What one op produced, plus the layer counts it exposes.
#[derive(Debug, Default)]
pub struct OpOutput {
    /// The JSON-lines bytes, compared against the reference.
    pub bytes: Vec<u8>,
    /// Grid points streamed (evaluated points for search).
    pub points: usize,
    /// Poisoned (errored) records among them.
    pub poisoned: usize,
    /// Backends disagreed beyond the scenario tolerance (`libra crossval`
    /// and `libra submit` exit 2).
    pub diverged: bool,
    pub cache: CacheStats,
    pub store_hits: usize,
    pub store_staged: usize,
    pub search_evals: usize,
    pub search_rounds: usize,
    pub search_front: usize,
    pub polls: usize,
    /// From the POST reply to the job's dequeue (served ops only).
    pub queue_wait_s: Option<f64>,
}

/// How a local op runs: engine mode, optional fault plan, optional tracer.
#[derive(Clone, Copy)]
pub struct Local<'a> {
    pub mode: ExecMode,
    pub fault: Option<&'a FaultInjector>,
    pub tracer: Option<&'a Arc<Tracer>>,
}

fn bad(what: impl Into<String>) -> LibraError {
    LibraError::BadRequest(what.into())
}

fn load(path: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Scenario, LibraError> {
    match tracer {
        Some(t) => t.time("scenario.load", || Scenario::load(path)),
        None => Scenario::load(path),
    }
}

fn resolve(
    scenario: &Scenario,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Vec<FnWorkload>, LibraError> {
    let workloads = scenario_workloads(scenario)?;
    Ok(match tracer {
        Some(t) => traced_workloads(workloads, scenario.workloads.len(), t),
        None => workloads,
    })
}

/// Streams a run into a JSON-lines buffer, through a timed sink when traced.
fn into_jsonl<R>(
    tracer: Option<&Arc<Tracer>>,
    run: impl FnOnce(&mut [&mut dyn ReportSink]) -> Result<R, LibraError>,
) -> Result<(R, Vec<u8>), LibraError> {
    let mut buf = Vec::new();
    let out = {
        let jsonl = JsonLinesSink::new(&mut buf);
        match tracer {
            Some(t) => run(&mut [&mut TimedSink::new(t, jsonl)])?,
            None => run(&mut [&mut { jsonl }])?,
        }
    };
    Ok((out, buf))
}

/// `libra crossval SCENARIO --cache CACHE --jsonl -` on a fresh, empty
/// store: load → resolve → session with store → run into a JSON-lines sink.
pub fn crossval(
    scenario_path: &Path,
    registry: &BackendRegistry,
    cache: &Path,
    how: Local<'_>,
) -> Result<OpOutput, LibraError> {
    match std::fs::remove_file(cache) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(bad(format!("cannot clear {}: {e}", cache.display())))
        }
        _ => {}
    }
    let scenario = load(scenario_path, how.tracer)?;
    if scenario.backends.len() < 2 {
        return Err(bad("crossval needs at least two backends"));
    }
    let workloads = resolve(&scenario, how.tracer)?;
    if scenario.grid().len(workloads.len()) > Scenario::MAX_GRID_POINTS {
        return Err(bad("grid over the exhaustive point cap"));
    }
    let cost_model = CostModel::default();
    let mut session = scenario.session(&cost_model).with_mode(how.mode).with_store(cache)?;
    if let Some(f) = how.fault {
        session = session.with_fault(f.clone())?;
    }
    let (report, bytes) = into_jsonl(how.tracer, |sinks| {
        session.run_scenario_with_sinks(&scenario, &workloads, registry, sinks)
    })?;
    let store = session.engine().store_stats().unwrap_or_default();
    Ok(OpOutput {
        bytes,
        points: report.sweep.results.len() + report.sweep.errors.len(),
        poisoned: report.sweep.errors.len(),
        diverged: !report.divergence.within_tolerance(),
        cache: session.engine().cache_stats(),
        store_hits: store.hits,
        store_staged: store.staged,
        ..OpOutput::default()
    })
}

/// `libra search SCENARIO --jsonl -`.
pub fn search(scenario_path: &Path, how: Local<'_>) -> Result<OpOutput, LibraError> {
    let mut scenario = load(scenario_path, how.tracer)?;
    scenario.backends.clear();
    let workloads = resolve(&scenario, how.tracer)?;
    let cost_model = CostModel::default();
    let mut session = scenario.session(&cost_model).with_mode(how.mode);
    if let Some(f) = how.fault {
        session = session.with_fault(f.clone())?;
    }
    let (report, bytes) = into_jsonl(how.tracer, |sinks| {
        search::run_scenario(&session, &scenario, &workloads, sinks)
    })?;
    Ok(OpOutput {
        bytes,
        points: report.evals,
        poisoned: report.sweep.errors.len(),
        cache: session.engine().cache_stats(),
        search_evals: report.evals,
        search_rounds: report.rounds.len(),
        search_front: report.front().len(),
        ..OpOutput::default()
    })
}

/// How long a served op may wait for its job before it counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(120);

/// `libra submit`: submit → wait (polling status every 1 ms) → records.
/// The wait is `ServiceClient::wait`'s loop, which does not count polls.
/// `dequeued` is the traced resolver's mark of the job leaving the queue.
pub fn serve(
    client: &ServiceClient,
    body: &[u8],
    tracer: Option<&Arc<Tracer>>,
    dequeued: Option<&Mutex<Option<f64>>>,
) -> Result<OpOutput, LibraError> {
    let timed = |name: &str, start: f64| {
        if let Some(t) = tracer {
            t.record(name, start, t.now());
        }
    };
    let now = || tracer.map_or(0.0, |t| t.now());
    let t0 = now();
    let (job, _) = client.submit(body)?;
    timed("server.submit", t0);
    let replied = now();
    let started = Instant::now();
    let mut polls = 0;
    let summary = loop {
        polls += 1;
        match client.status(&job)? {
            PolledStatus::Done(summary) => break summary,
            PolledStatus::Failed { error } => {
                return Err(bad(format!("job {job} failed: {error}")))
            }
            PolledStatus::Queued { .. } | PolledStatus::Running { .. } => {
                if started.elapsed() > JOB_DEADLINE {
                    return Err(bad(format!("job {job} still running after {JOB_DEADLINE:?}")));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    timed("server.wait", replied);
    let t2 = now();
    let bytes = client.records(&job)?;
    timed("server.records", t2);
    // Negative when the worker dequeued the job before the reply arrived.
    let queue_wait_s = dequeued
        .and_then(|m| m.lock().expect("resolver mark poisoned").take())
        .map(|at| at - replied);
    Ok(OpOutput {
        bytes,
        points: summary.results + summary.errors,
        poisoned: summary.errors,
        diverged: !summary.within_tolerance,
        polls,
        queue_wait_s,
        ..OpOutput::default()
    })
}

/// The serial-mode reference bytes for a workload's scenario (the
/// parallel ≡ serial contract; served bytes equal local crossval bytes).
pub fn reference(
    workload: crate::Workload,
    scenario_path: &Path,
    cache: &Path,
) -> Result<Vec<u8>, LibraError> {
    let how = Local { mode: ExecMode::Serial, fault: None, tracer: None };
    let out = match workload {
        crate::Workload::SearchHuge => search(scenario_path, how)?,
        crate::Workload::CrossvalCold | crate::Workload::ServeWarm => {
            let out = crossval(scenario_path, &libra_bench::default_registry(), cache, how)?;
            let _ = std::fs::remove_file(cache);
            out
        }
    };
    if out.poisoned > 0 {
        return Err(bad(format!("reference run has {} poisoned records", out.poisoned)));
    }
    if out.diverged {
        return Err(bad("reference run diverges beyond the scenario tolerance"));
    }
    Ok(out.bytes)
}
