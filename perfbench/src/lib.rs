//! The repository's benchmark: three workloads driven through the same
//! public calls the `libra` CLI and server make, seven end-to-end
//! metrics per workload, and a traced run that splits the time by layer.
//!
//! * `crossval_cold` — back-to-back `libra crossval --cache` ops, each on
//!   a fresh, empty store.
//! * `search_huge` — back-to-back `libra search` ops on a 13.2M-point space.
//! * `serve_warm` — one client in a closed loop (submit → wait → records)
//!   against an in-process server whose shared store set-up has filled.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! alternates untraced ops (for the tracing overhead) with ops that have
//! timing wrappers around each layer's public entry points, then runs
//! the layer probes, and reports the per-layer metrics.

pub mod ops;
pub mod probes;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use libra_bench::{default_registry, scenario_workloads, BackendRegistry, ExecMode, Scenario};
use libra_core::fault::FaultInjector;
use libra_core::scenario::{json_escape, Json, JsonParser};
use libra_core::LibraError;
use libra_server::{Server, ServerConfig, ServiceClient, WorkloadResolver};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ops::{Local, OpOutput};
use crate::stats::{median, quantile};
use crate::trace::{per_op_calls, per_op_secs, per_op_self_secs, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CrossvalCold,
    SearchHuge,
    ServeWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CrossvalCold, Workload::SearchHuge, Workload::ServeWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrossvalCold => "crossval_cold",
            Workload::SearchHuge => "search_huge",
            Workload::ServeWarm => "serve_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("points_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (traced runs), with units. Times and counts are
/// medians over the traced ops (or over probe repetitions), per op.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.load_s", "s"),
    ("scenario.grid_s", "s"),
    ("scenario.sink_bytes", "bytes"),
    ("scenario.sink_s", "s"),
    ("workloads.targets_calls", "count"),
    ("workloads.targets_s", "s"),
    ("workloads.plan_calls", "count"),
    ("workloads.plan_s", "s"),
    ("sweep.solves", "count"),
    ("sweep.warm_seeded", "count"),
    ("sweep.expr_builds", "count"),
    ("sweep.self_s", "s"),
    ("opt.perf_s", "s"),
    ("opt.ppc_s", "s"),
    ("solver.newton_iters", "count"),
    ("solver.solve_s", "s"),
    ("eval.analytical.calls", "count"),
    ("eval.analytical.s", "s"),
    ("eval.event-sim.calls", "count"),
    ("eval.event-sim.s", "s"),
    ("eval.net-sim.calls", "count"),
    ("eval.net-sim.s", "s"),
    ("store.open_s", "s"),
    ("store.hits", "count"),
    ("store.staged", "count"),
    ("store.bytes", "bytes"),
    ("search.evals", "count"),
    ("search.rounds", "count"),
    ("search.front_size", "count"),
    ("server.submit_s", "s"),
    ("server.wait_s", "s"),
    ("server.records_s", "s"),
    ("server.polls_per_op", "count"),
    ("server.queue_wait_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Engine threads (the CLI's parallel mode, capped at two).
pub const ENGINE_THREADS: &str = "2";

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    /// The generated scenario file the program reads.
    pub scenario: PathBuf,
    /// The same seed's `crossval_cold` scenario, for the opt and solver probes.
    pub probe_scenario: PathBuf,
    /// The bytes every op must produce.
    pub reference: Vec<u8>,
    /// How long the timed ops run (at least [`MIN_OPS`] run, however long).
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for stores.
    pub work_dir: PathBuf,
    /// A fault plan armed on every op (for the failure-accounting test).
    pub fault: Option<String>,
    /// Seeds the served client's think times (the scenario file carries
    /// the seeded inputs).
    pub seed: u64,
}

/// Every run times at least this many ops.
pub const MIN_OPS: usize = 3;

/// `peak_rss_mb` covers set-up and at most this many timed ops: the
/// server keeps every finished job's records, so its memory grows with
/// the op count, and a fixed count keeps the metric independent of speed.
pub const RSS_OPS: usize = 200;

/// Registry builds per timed batch: one build takes well under a
/// microsecond, so `setup_s` of the local workloads is the median batch's
/// time per build. A batch runs before the first op and before each timed
/// op, so set-up is sampled under the same host load as the ops.
const LOCAL_SETUP_BATCH: usize = 1000;
/// Server starts (each with a full cold job) whose median is `setup_s`.
const SERVED_SETUP_REPS: usize = 3;

/// The served client's longest think time. The server's accept loop
/// sleeps 10 ms between polls; without a pause drawn uniformly over that
/// period, a closed loop locks onto its phase and op times jump between
/// multiples of it from run to run.
const THINK_MAX_S: f64 = 0.010;

/// One measured value.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's outcome.
#[derive(Debug)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Why the first failed op failed.
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub spans_json: Option<String>,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_escape(m.name),
                    json_number(m.value),
                    json_escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Every digit Rust's shortest round-trip form gives; integers stay integers.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// One timed op, its bytes already judged and dropped.
struct Sample {
    secs: f64,
    out: Option<OpOutput>,
    failure: Option<String>,
}

fn judge(out: &Result<OpOutput, LibraError>, reference: &[u8]) -> Option<String> {
    match out {
        Err(e) => Some(e.to_string()),
        Ok(o) if o.poisoned > 0 => Some(format!("{} poisoned records", o.poisoned)),
        Ok(o) if o.diverged => Some("divergence beyond the scenario tolerance".to_string()),
        Ok(o) if o.bytes != reference => Some(format!(
            "output differs from the reference ({} bytes, want {})",
            o.bytes.len(),
            reference.len()
        )),
        Ok(_) => None,
    }
}

/// What [`measure`] saw.
struct Measured {
    samples: Vec<Sample>,
    cpu_s: f64,
    /// Peak RSS after [`RSS_OPS`] ops (or all of them, if fewer ran).
    peak_rss_mb: f64,
}

/// Runs ops until `seconds` pass (and at least [`MIN_OPS`] ran), calling
/// `pause` untimed before each.
fn measure(
    seconds: f64,
    reference: &[u8],
    mut pause: impl FnMut(),
    mut op: impl FnMut(usize) -> Result<OpOutput, LibraError>,
) -> Result<Measured, LibraError> {
    let cpu = || stats::cpu_seconds().map_err(LibraError::BadRequest);
    let rss = || stats::peak_rss_mb().map_err(LibraError::BadRequest);
    let cpu0 = cpu()?;
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut peak_rss_mb = None;
    while samples.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        pause();
        let t = Instant::now();
        let out = op(samples.len());
        let secs = t.elapsed().as_secs_f64();
        let failure = judge(&out, reference);
        let out = out.ok().map(|o| OpOutput { bytes: Vec::new(), ..o });
        samples.push(Sample { secs, out, failure });
        if samples.len() == RSS_OPS {
            peak_rss_mb = Some(rss()?);
        }
    }
    let cpu_s = cpu()? - cpu0;
    let peak_rss_mb = match peak_rss_mb {
        Some(v) => v,
        None => rss()?,
    };
    Ok(Measured { samples, cpu_s, peak_rss_mb })
}

fn count_failures(samples: &[Sample]) -> (usize, Option<String>) {
    let failed = samples.iter().filter(|s| s.failure.is_some()).count();
    (failed, samples.iter().find_map(|s| s.failure.clone()))
}

fn op_secs(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.secs).collect()
}

/// Op `i` of a traced run: even ops run untraced, odd ops traced as op
/// `i / 2`, so both kinds see the same warm-up and host drift.
fn alternate<T>(
    tracer: &Tracer,
    i: usize,
    plain: impl FnOnce() -> T,
    traced: impl FnOnce() -> T,
) -> T {
    if i.is_multiple_of(2) {
        return plain();
    }
    tracer.begin_op(i / 2);
    let out = traced();
    tracer.end_op();
    out
}

/// A traced run's ops, split as [`alternate`] ran them: (untraced, traced).
fn split_alternate(samples: Vec<Sample>) -> (Vec<Sample>, Vec<Sample>) {
    let (plain, traced): (Vec<_>, Vec<_>) =
        samples.into_iter().enumerate().partition(|(i, _)| i.is_multiple_of(2));
    let strip = |v: Vec<(usize, Sample)>| v.into_iter().map(|(_, s)| s).collect();
    (strip(plain), strip(traced))
}

fn end_to_end(setup_s: f64, measured: &Measured) -> Report {
    let samples = &measured.samples;
    let secs = op_secs(samples);
    let n = samples.len();
    let (failed, first_failure) = count_failures(samples);
    // The median op's rate, so a few slow ops do not move it.
    let rates: Vec<f64> =
        samples.iter().map(|s| s.out.as_ref().map_or(0, |o| o.points) as f64 / s.secs).collect();
    let values = [
        setup_s,
        median(&secs),
        quantile(&secs, 0.9),
        median(&rates),
        measured.cpu_s / n as f64,
        measured.peak_rss_mb,
        (n - failed) as f64 / n as f64,
    ];
    Report {
        attempted: n,
        failed,
        first_failure,
        metrics: metrics(END_TO_END, &values),
        spans_json: None,
    }
}

fn metrics(names: &'static [(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    names.iter().zip(values).map(|(&(name, unit), &value)| Metric { name, value, unit }).collect()
}

/// Per-layer values gathered by a traced run; absent layers stay 0.
#[derive(Default)]
struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The report over every op of the run, untraced and traced alike.
    fn into_report(mut self, plain: &[Sample], traced: &[Sample], tracer: &Tracer) -> Report {
        self.set("trace.overhead_s", median(&op_secs(traced)) - median(&op_secs(plain)));
        let values: Vec<f64> = PER_LAYER
            .iter()
            .map(|(name, _)| {
                self.values.iter().rev().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v)
            })
            .collect();
        let (failed_plain, first_plain) = count_failures(plain);
        let (failed_traced, first_traced) = count_failures(traced);
        Report {
            attempted: plain.len() + traced.len(),
            failed: failed_plain + failed_traced,
            first_failure: first_plain.or(first_traced),
            metrics: metrics(PER_LAYER, &values),
            spans_json: Some(tracer.to_json()),
        }
    }

    /// The span-derived layers: load, workloads, sink, eval, server, self time.
    fn set_from_spans(&mut self, tracer: &Tracer, n_ops: usize) {
        let spans = tracer.spans();
        let secs = |name: &str| median(&per_op_secs(&spans, name, n_ops));
        let calls = |name: &str| median(&per_op_calls(&spans, name, n_ops));
        self.set("scenario.load_s", secs("scenario.load"));
        self.set("scenario.sink_s", secs("scenario.sink"));
        self.set("workloads.targets_calls", calls("workloads.targets"));
        self.set("workloads.targets_s", secs("workloads.targets"));
        self.set("workloads.plan_calls", calls("workloads.plan"));
        self.set("workloads.plan_s", secs("workloads.plan"));
        self.set("sweep.self_s", median(&per_op_self_secs(&spans, n_ops)));
        for (name, calls_metric, secs_metric) in [
            ("eval.analytical", "eval.analytical.calls", "eval.analytical.s"),
            ("eval.event-sim", "eval.event-sim.calls", "eval.event-sim.s"),
            ("eval.net-sim", "eval.net-sim.calls", "eval.net-sim.s"),
        ] {
            self.set(calls_metric, calls(name));
            self.set(secs_metric, secs(name));
        }
        self.set("server.submit_s", secs("server.submit"));
        self.set("server.wait_s", secs("server.wait"));
        self.set("server.records_s", secs("server.records"));
    }

    /// Cold optimizer and solver runs on the `crossval_cold` points,
    /// the same on every workload.
    fn optimizer_probes(&mut self, scenario: &Path) -> Result<(), LibraError> {
        let opt = probes::opt(scenario)?;
        self.set("opt.perf_s", opt.perf_s);
        self.set("opt.ppc_s", opt.ppc_s);
        let solver = probes::solver(scenario)?;
        self.set("solver.newton_iters", solver.newton_iters);
        self.set("solver.solve_s", solver.solve_s);
        Ok(())
    }

    /// The counts each op's output exposes.
    fn set_from_outputs(&mut self, traced: &[Sample]) {
        let outs: Vec<&OpOutput> = traced.iter().filter_map(|s| s.out.as_ref()).collect();
        let med = |f: &dyn Fn(&OpOutput) -> usize| {
            median(&outs.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
        };
        self.set("sweep.solves", med(&|o| o.cache.design_misses));
        self.set("sweep.warm_seeded", med(&|o| o.cache.warm_seeded));
        self.set("sweep.expr_builds", med(&|o| o.cache.expr_misses));
        self.set("store.hits", med(&|o| o.store_hits));
        self.set("store.staged", med(&|o| o.store_staged));
        self.set("search.evals", med(&|o| o.search_evals));
        self.set("search.rounds", med(&|o| o.search_rounds));
        self.set("search.front_size", med(&|o| o.search_front));
        self.set("server.polls_per_op", med(&|o| o.polls));
        let waits: Vec<f64> = outs.iter().filter_map(|o| o.queue_wait_s).collect();
        self.set("server.queue_wait_s", median(&waits));
    }
}

const PROBE_REPS: usize = 5;

/// Runs one workload as `config` asks.
pub fn run(config: &RunConfig) -> Result<Report, LibraError> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| LibraError::BadRequest(format!("cannot create work dir: {e}")))?;
    let fault = config.fault.as_deref().map(FaultInjector::from_spec).transpose()?;
    match config.workload {
        Workload::CrossvalCold | Workload::SearchHuge => run_local(config, fault.as_ref()),
        Workload::ServeWarm => run_served(config),
    }
}

/// Seconds per backend registry build (the local workloads' set-up),
/// over one batch.
fn registry_build_s() -> f64 {
    let t = Instant::now();
    for _ in 0..LOCAL_SETUP_BATCH {
        std::hint::black_box(default_registry());
    }
    t.elapsed().as_secs_f64() / LOCAL_SETUP_BATCH as f64
}

fn run_local(config: &RunConfig, fault: Option<&FaultInjector>) -> Result<Report, LibraError> {
    let mut setup = vec![registry_build_s()];
    let registry = default_registry();
    let cache = config.work_dir.join("crossval.cache.jsonl");
    let op = |registry: &BackendRegistry, tracer: Option<&Arc<Tracer>>| {
        let how = Local { mode: ExecMode::Parallel, fault, tracer };
        match config.workload {
            Workload::SearchHuge => ops::search(&config.scenario, how),
            _ => ops::crossval(&config.scenario, registry, &cache, how),
        }
    };
    if !config.trace {
        let measured = measure(
            config.seconds,
            &config.reference,
            || setup.push(registry_build_s()),
            |_| op(&registry, None),
        )?;
        return Ok(end_to_end(median(&setup), &measured));
    }

    let tracer = Tracer::new();
    let traced_registry = trace::traced_registry(&tracer);
    let measured = measure(
        config.seconds,
        &config.reference,
        || {},
        |i| alternate(&tracer, i, || op(&registry, None), || op(&traced_registry, Some(&tracer))),
    )?;
    let (plain, traced) = split_alternate(measured.samples);

    let mut layers = Layers::default();
    layers.set_from_spans(&tracer, traced.len());
    layers.set_from_outputs(&traced);
    let scenario = Scenario::load(&config.scenario)?;
    layers.set("scenario.grid_s", probes::grid_s(&scenario, PROBE_REPS)?);
    drop(scenario);
    layers.set("scenario.sink_bytes", config.reference.len() as f64);
    if config.workload == Workload::CrossvalCold {
        layers.set("store.open_s", probes::store_open_s(&cache, PROBE_REPS)?);
        layers.set("store.bytes", file_len(&cache)?);
    }
    layers.optimizer_probes(&config.probe_scenario)?;
    Ok(layers.into_report(&plain, &traced, &tracer))
}

fn file_len(path: &Path) -> Result<f64, LibraError> {
    std::fs::metadata(path)
        .map(|m| m.len() as f64)
        .map_err(|e| LibraError::BadRequest(format!("cannot stat {}: {e}", path.display())))
}

/// A running in-process server and its one client.
struct Served {
    server: Server,
    client: ServiceClient,
}

impl Served {
    fn start(
        config: &RunConfig,
        cache: &Path,
        registry: BackendRegistry,
        resolver: Box<WorkloadResolver>,
    ) -> Result<Served, LibraError> {
        let server_config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache: Some(cache.to_path_buf()),
            fault_spec: config.fault.clone(),
            ..ServerConfig::default()
        };
        let server = Server::start(server_config, registry, resolver)?;
        let client = ServiceClient::new(&format!("http://{}", server.addr()))?;
        Ok(Served { server, client })
    }

    fn stop(self) -> Result<(), LibraError> {
        self.server.shutdown();
        self.server.join()
    }

    /// The shared store's cumulative hit count, from `GET /v1/stats`.
    fn store_hits(&self) -> Result<f64, LibraError> {
        let response = self.client.get("/v1/stats")?;
        let body = String::from_utf8_lossy(&response.body);
        JsonParser::parse(body.trim())?
            .get("store_hits")
            .and_then(Json::as_f64)
            .ok_or_else(|| LibraError::BadRequest(format!("stats without store_hits: {body}")))
    }
}

fn run_served(config: &RunConfig) -> Result<Report, LibraError> {
    let body = std::fs::read(&config.scenario).map_err(|e| {
        LibraError::BadRequest(format!("cannot read {}: {e}", config.scenario.display()))
    })?;
    let cache = config.work_dir.join("serve.cache.jsonl");

    // Set-up: registry build, server start, and the first job, which
    // fills the shared store. Repeated on an emptied store; the last
    // server stays up for the timed ops.
    let mut setup = Vec::new();
    let mut served = None;
    for _ in 0..SERVED_SETUP_REPS {
        if let Some(s) = served.take() {
            Served::stop(s)?;
        }
        let _ = std::fs::remove_file(&cache);
        let t = Instant::now();
        let s = Served::start(config, &cache, default_registry(), Box::new(scenario_workloads))?;
        ops::serve(&s.client, &body, None, None)?;
        setup.push(t.elapsed().as_secs_f64());
        served = Some(s);
    }
    let setup_s = median(&setup);
    let served = served.expect("at least one set-up repetition");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut think = || std::thread::sleep(Duration::from_secs_f64(THINK_MAX_S * rng.gen_f64()));

    if !config.trace {
        let measured = measure(config.seconds, &config.reference, &mut think, |_| {
            ops::serve(&served.client, &body, None, None)
        });
        served.stop()?;
        return Ok(end_to_end(setup_s, &measured?));
    }

    // Stopping the set-up server flushes the filled store. Two servers
    // then share it, a plain one and one with wrapped backends and
    // resolver; every op hits, so neither writes the store.
    served.stop()?;
    let plain = Served::start(config, &cache, default_registry(), Box::new(scenario_workloads))?;
    let tracer = Tracer::new();
    let dequeued = Arc::new(Mutex::new(None));
    let traced = Served::start(
        config,
        &cache,
        trace::traced_registry(&tracer),
        trace::traced_resolver(&tracer, Arc::clone(&dequeued)),
    )?;
    let hits_before = traced.store_hits();
    let measured = measure(config.seconds, &config.reference, &mut think, |i| {
        alternate(
            &tracer,
            i,
            || ops::serve(&plain.client, &body, None, None),
            || ops::serve(&traced.client, &body, Some(&tracer), Some(&dequeued)),
        )
    });
    let hits_after = traced.store_hits();
    plain.stop()?;
    traced.stop()?;
    let (plain, traced) = split_alternate(measured?.samples);

    let mut layers = Layers::default();
    layers.set_from_spans(&tracer, traced.len());
    layers.set_from_outputs(&traced);
    // The server parses the body itself; the probe parses the same bytes.
    let text = String::from_utf8_lossy(&body);
    layers.set("scenario.load_s", probes::time_median(PROBE_REPS, || Scenario::from_json(&text))?);
    let scenario = Scenario::from_json(&text)?;
    layers.set("scenario.grid_s", probes::grid_s(&scenario, PROBE_REPS)?);
    layers.set("scenario.sink_bytes", config.reference.len() as f64);
    layers.set("scenario.sink_s", probes::sink_replay_s(&config.reference, PROBE_REPS)?);
    layers.set("store.open_s", probes::store_open_s(&cache, PROBE_REPS)?);
    layers.set("store.hits", (hits_after? - hits_before?) / traced.len() as f64);
    layers.set("store.bytes", file_len(&cache)?);
    layers.optimizer_probes(&config.probe_scenario)?;
    Ok(layers.into_report(&plain, &traced, &tracer))
}

/// The serial-mode reference bytes for `workload` on `scenario`.
///
/// # Errors
/// Any op error, or a reference with poisoned records.
pub fn reference(
    workload: Workload,
    scenario: &Path,
    work_dir: &Path,
) -> Result<Vec<u8>, LibraError> {
    std::fs::create_dir_all(work_dir)
        .map_err(|e| LibraError::BadRequest(format!("cannot create work dir: {e}")))?;
    ops::reference(workload, scenario, &work_dir.join("reference.cache.jsonl"))
}

/// A plain-language block of a report for stderr.
pub fn describe(config: &RunConfig, report: &Report) -> String {
    let mut out = format!(
        "perfbench: {} ({}): {} ops, {} failed, failed_frac {:.4}, {} engine threads\n",
        config.workload.name(),
        if config.trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        ENGINE_THREADS,
    );
    if let Some(why) = &report.first_failure {
        out.push_str(&format!("perfbench: first failure: {why}\n"));
    }
    for m in &report.metrics {
        out.push_str(&format!("  {:<26} {:>18.9} {}\n", m.name, m.value, m.unit));
    }
    out
}
