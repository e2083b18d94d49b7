//! The sweep server: accept loop, router, worker pool, and graceful
//! shutdown.
//!
//! Life of a request: the accept thread hands each connection to a
//! short-lived handler thread; `POST /v1/sweeps` validates the scenario
//! through the **same** parser, workload resolver, and backend registry
//! the CLI uses, then enqueues it on the bounded [`JobTable`]; sweep
//! workers drain the queue, each running a fresh
//! [`Session`](libra_core::scenario::Session) attached to the one shared
//! [`SolveStore`], so concurrent clients pricing overlapping scenarios
//! hit each other's solves in memory.
//!
//! The headline contract: the bytes `GET /v1/sweeps/{id}/records`
//! streams are **byte-identical** to a single-process
//! `libra crossval SCENARIO --jsonl -` run — the worker writes through
//! the same [`JsonLinesSink`] the CLI does, into a buffer the endpoint
//! replays verbatim.

use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use libra_core::cost::CostModel;
use libra_core::error::LibraError;
use libra_core::fault::{self, FaultInjector};
use libra_core::scenario::{
    json_escape, json_f64, BackendRegistry, DivergenceMatrix, JsonLinesSink, ProgressSink,
    ReportSink, Scenario, SessionReport,
};
use libra_core::store::{SharedSolveStore, SolveStore};
use libra_core::sweep::FnWorkload;

use crate::http::{
    read_request, respond, respond_chunked, respond_chunked_partial, HttpError, Request,
};
use crate::jobs::{CancelOutcome, JobCounts, JobStatus, JobSummary, JobTable, SubmitError};

/// Resolves a scenario's workload names into runnable workloads — the
/// seam that keeps this crate core-only: `libra-bench` passes its
/// Table II name resolver in, tests pass stubs.
pub type WorkloadResolver = dyn Fn(&Scenario) -> Result<Vec<FnWorkload>, LibraError> + Send + Sync;

/// Server construction knobs.
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Sweep worker threads. `0` is a test seam: jobs queue but never
    /// run.
    pub workers: usize,
    /// Bound on *waiting* jobs; submissions past it get HTTP 503.
    pub queue_capacity: usize,
    /// Optional persistent solve cache shared by every worker.
    pub cache: Option<PathBuf>,
    /// Wall-clock deadline per running job. When set, a watchdog thread
    /// fails any job that runs longer (the client sees a terminal
    /// `failed` state at once; the worker drops the job at its next
    /// progress tick, see [`crate::jobs::TakenJob`]).
    pub job_timeout: Option<Duration>,
    /// Maximum errored (poisoned) grid points a job may produce and
    /// still count as done; one more fails the whole job.
    pub failed_point_quota: Option<usize>,
    /// Explicit fault-plan spec (see [`libra_core::fault`]); `None`
    /// falls back to the `LIBRA_FAULT_PLAN` environment variable. The
    /// explicit knob exists so tests can arm chaos per-server without
    /// racing on process-global env state.
    pub fault_spec: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache: None,
            job_timeout: None,
            failed_point_quota: None,
            fault_spec: None,
        }
    }
}

/// State shared by the accept loop, handlers, and workers.
struct Shared {
    table: JobTable,
    registry: BackendRegistry,
    resolver: Box<WorkloadResolver>,
    store: Option<SharedSolveStore>,
    workers: usize,
    queue_capacity: usize,
    shutdown: AtomicBool,
    failed_point_quota: Option<usize>,
    fault: Option<FaultInjector>,
    /// Tells the watchdog thread to exit during the final drain.
    watchdog_stop: AtomicBool,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal_shutdown_requested()
    }
}

/// Set by the SIGINT/SIGTERM handler; an atomic store is async-signal-safe.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a SIGINT/SIGTERM arrived since
/// [`install_signal_handlers`] ran.
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

extern "C" fn on_signal(_signum: i32) {
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGINT and SIGTERM handlers that request a graceful
/// shutdown (observed by every running [`Server`]'s [`Server::join`]
/// poll and by [`signal_shutdown_requested`]). The handler only sets a
/// flag: the accept loop's blocking `accept` restarts after a signal, so
/// `join` is what wakes it. Raw `signal(2)` FFI — the workspace is
/// offline and std links libc anyway. No-op off Unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// How often [`Server::join`] checks for a shutdown request and, once
/// one arrived, connects to wake the accept loop; also the accept loop's
/// back-off after an accept error it cannot retry at once.
const SHUTDOWN_POLL: Duration = Duration::from_millis(10);

/// A running sweep server. Dropping it without [`Server::join`] leaks
/// the threads (the accept thread stays blocked in `accept`); the
/// intended lifecycle is start → (work) → [`Server::shutdown`] (or a
/// signal, or `POST /v1/shutdown`) → [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_handle: JoinHandle<()>,
    worker_handles: Vec<JoinHandle<()>>,
    watchdog_handle: Option<JoinHandle<()>>,
}

/// Panic payload a worker throws (via `panic_any`) when it notices its
/// job's cancel flag mid-sweep: the job table already holds the
/// terminal state, so the worker's catch-all must *not* overwrite it
/// with "sweep worker panicked".
struct CancelledJob;

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns. The
    /// `registry` and `resolver` validate submissions and execute jobs —
    /// pass the same pair the CLI uses (`default_registry()` +
    /// `scenario_workloads`) for byte-identity with it.
    ///
    /// # Errors
    /// Bind failures and [`SolveStore::open`] failures.
    pub fn start(
        config: ServerConfig,
        registry: BackendRegistry,
        resolver: Box<WorkloadResolver>,
    ) -> Result<Server, LibraError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| LibraError::BadRequest(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| LibraError::BadRequest(format!("cannot read bound address: {e}")))?;
        let store = match &config.cache {
            Some(path) => Some(SolveStore::open_shared(path)?),
            None => None,
        };
        let fault = match &config.fault_spec {
            Some(spec) => Some(FaultInjector::from_spec(spec)?),
            None => FaultInjector::from_env(),
        };
        let shared = Arc::new(Shared {
            table: JobTable::new(config.queue_capacity),
            registry,
            resolver,
            store,
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            shutdown: AtomicBool::new(false),
            failed_point_quota: config.failed_point_quota,
            fault,
            watchdog_stop: AtomicBool::new(false),
        });
        let worker_handles: Vec<JoinHandle<()>> = (0..config.workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning sweep worker")
            })
            .collect();
        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("accept-loop".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawning accept loop")
        };
        let watchdog_handle = config.job_timeout.map(|timeout| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("job-watchdog".to_string())
                .spawn(move || {
                    while !shared.watchdog_stop.load(Ordering::SeqCst) {
                        shared.table.fail_overdue(timeout);
                        std::thread::sleep(Duration::from_millis(10));
                    }
                })
                .expect("spawning job watchdog")
        });
        Ok(Server { shared, addr, accept_handle, worker_handles, watchdog_handle })
    }

    /// The bound address (the actual port when the config asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: stop accepting, fail queued jobs
    /// fast, let running jobs finish, flush the store. Only sets a flag
    /// and returns; [`Server::join`] notices it within ~10 ms, stops the
    /// accept loop, and waits for the drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until a shutdown is requested (via [`Server::shutdown`],
    /// `POST /v1/shutdown`, or an installed signal handler), then drains:
    /// queued jobs fail fast, running jobs finish and record results,
    /// and the shared store takes a final observable flush.
    ///
    /// The 10 ms shutdown poll lives here, off the request path: `join`
    /// checks the flag every 10 ms, and once it is set connects to the
    /// listener every 10 ms until the accept loop, blocked in `accept`,
    /// has woken and exited. A wildcard bind (`0.0.0.0`, `[::]`) is
    /// woken through the loopback address of its family.
    ///
    /// # Errors
    /// Propagates the final store-flush failure.
    pub fn join(self) -> Result<(), LibraError> {
        while !self.shared.shutting_down() {
            std::thread::sleep(SHUTDOWN_POLL);
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        while !self.accept_handle.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, SHUTDOWN_POLL);
            std::thread::sleep(SHUTDOWN_POLL);
        }
        let _ = self.accept_handle.join();
        self.shared.table.close();
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        self.shared.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.watchdog_handle {
            let _ = handle.join();
        }
        if let Some(store) = &self.shared.store {
            store.lock().unwrap().flush()?;
        }
        Ok(())
    }
}

/// Blocking accept loop: each connection goes to its own handler thread
/// the moment it arrives, so no request waits on a timer. The shutdown
/// flag is checked after every accept; [`Server::join`] connects to the
/// listener once the flag is set, so the blocked `accept` returns and the
/// loop exits (a signal alone cannot wake it: `accept` restarts after
/// one).
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("http-handler".to_string())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) => {
                // After a signal, or a peer that reset before it was
                // accepted, the next accept can succeed at once. Anything
                // else (e.g. out of file descriptors) would fail again at
                // once: back off rather than spin a core.
                if !matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted) {
                    std::thread::sleep(SHUTDOWN_POLL);
                }
            }
        }
        if shared.shutting_down() {
            break;
        }
    }
}

/// The worker loop: drain the queue until the table closes.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.table.take() {
        // A panicking solve must not kill the worker (or wedge the
        // job in `running` forever): catch it and fail the job.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let (Some(fault), Some(ordinal)) = (&shared.fault, JobTable::id_index(&job.id)) {
                if fault.fires(fault::SERVER_WORKER_PANIC, ordinal as u64) {
                    panic!("injected fault: {} on {}", fault::SERVER_WORKER_PANIC, job.id);
                }
            }
            run_job(shared, &job.id, &job.scenario, &job.cancel)
        }));
        match outcome {
            Ok(Ok((records, summary))) => shared.table.complete(&job.id, records, summary),
            Ok(Err(e)) => shared.table.fail(&job.id, e.to_string()),
            // A cancel/deadline unwind is not a failure of the worker:
            // the table already holds the job's terminal state.
            Err(payload) if payload.is::<CancelledJob>() => {}
            Err(_) => shared.table.fail(&job.id, "sweep worker panicked"),
        }
    }
}

/// Runs one job exactly the way `libra crossval --jsonl -` does: a
/// fresh scenario-configured session (shared store attached), a
/// [`JsonLinesSink`] capturing the byte-exact stream, and a
/// [`ProgressSink`] feeding the job table.
fn run_job(
    shared: &Arc<Shared>,
    id: &str,
    scenario: &Scenario,
    cancel: &AtomicBool,
) -> Result<(Vec<u8>, JobSummary), LibraError> {
    let workloads = (shared.resolver)(scenario)?;
    let cost_model = CostModel::default();
    let mut session = scenario.session(&cost_model);
    if let Some(store) = &shared.store {
        session = session.with_shared_store(Arc::clone(store));
    }
    if let Some(fault) = &shared.fault {
        session = session.with_fault(fault.clone())?;
    }
    let mut buf: Vec<u8> = Vec::new();
    let report = {
        let mut jsonl = JsonLinesSink::new(&mut buf);
        let mut progress = ProgressSink::new(|done, total| {
            shared.table.progress(id, done, total);
            // The cancel/deadline escape hatch: the sinks run serially
            // on this thread, at run start and once per streamed record,
            // so an unwinding sentinel here abandons the run cleanly and
            // is recognized (not re-reported) by the worker's catch-all.
            // Records stream only after a run (or a search round) has
            // solved all its points, so a cancelled or overdue job keeps
            // its worker until then.
            if cancel.load(Ordering::SeqCst) {
                std::panic::panic_any(CancelledJob);
            }
        });
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut jsonl, &mut progress];
        if scenario.search.is_some() {
            // Adaptive search mode: the driver picks its own cells of
            // the grid (no backends, no divergence) and streams one
            // standard JSONL run through the same sinks, so records/
            // progress/cancel/fault machinery apply unchanged.
            let search =
                libra_core::search::run_scenario(&session, scenario, &workloads, &mut sinks)?;
            SessionReport {
                sweep: search.sweep,
                divergence: DivergenceMatrix { backends: Vec::new(), pairs: Vec::new() },
            }
        } else {
            session.run_scenario_with_sinks(scenario, &workloads, &shared.registry, &mut sinks)?
        }
    };
    let summary = JobSummary {
        results: report.sweep.results.len(),
        errors: report.sweep.errors.len(),
        within_tolerance: report.divergence.within_tolerance(),
        max_rel_error: report.divergence.max_rel_error(),
    };
    if let Some(quota) = shared.failed_point_quota {
        if summary.errors > quota {
            return Err(LibraError::BadRequest(format!(
                "{} of {} grid points failed, exceeding the server's failed-point quota of {quota}",
                summary.errors,
                summary.results + summary.errors,
            )));
        }
    }
    Ok((buf, summary))
}

fn json_error(message: &str) -> String {
    format!("{{\"error\": {}}}\n", json_escape(message))
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        Err(HttpError { status, message }) => {
            let _ =
                respond(&mut stream, status, "application/json", json_error(&message).as_bytes());
            return;
        }
    };
    let _ = route(&mut stream, &request, shared);
}

fn route(stream: &mut TcpStream, request: &Request, shared: &Arc<Shared>) -> std::io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let json = |stream: &mut TcpStream, status: u16, body: &str| {
        respond(stream, status, "application/json", body.as_bytes())
    };
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "healthz"]) => json(stream, 200, "{\"status\": \"ok\"}\n"),
        ("GET", ["v1", "backends"]) => {
            // The exact `libra list-backends --json` bytes — one
            // formatter, two surfaces.
            json(stream, 200, &shared.registry.to_json())
        }
        ("GET", ["v1", "stats"]) => json(stream, 200, &stats_json(shared)),
        ("POST", ["v1", "sweeps"]) => handle_submit(stream, request, shared),
        ("GET", ["v1", "sweeps", id]) => match shared.table.status(id) {
            None => json(stream, 404, &json_error(&format!("unknown job {id:?}"))),
            Some(status) => json(stream, 200, &status_json(id, &status)),
        },
        ("GET", ["v1", "sweeps", id, "records"]) => handle_records(stream, id, shared),
        ("POST", ["v1", "sweeps", id, "cancel"]) => match shared.table.cancel(id) {
            CancelOutcome::Unknown => {
                json(stream, 404, &json_error(&format!("unknown job {id:?}")))
            }
            CancelOutcome::AlreadyFinished => json(
                stream,
                409,
                &json_error(&format!("job {id} already finished; nothing to cancel")),
            ),
            CancelOutcome::Cancelled => {
                let status = shared.table.status(id).expect("cancelled job has a status");
                json(stream, 200, &status_json(id, &status))
            }
        },
        ("POST", ["v1", "shutdown"]) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            json(stream, 200, "{\"status\": \"shutting-down\"}\n")
        }
        (_, ["v1", "healthz" | "backends" | "stats"]) | (_, ["v1", "sweeps", ..]) => {
            json(stream, 405, &json_error(&format!("method {} not allowed here", request.method)))
        }
        _ => json(stream, 404, &json_error(&format!("no route for {:?}", request.path))),
    }
}

fn handle_submit(
    stream: &mut TcpStream,
    request: &Request,
    shared: &Arc<Shared>,
) -> std::io::Result<()> {
    let json = |stream: &mut TcpStream, status: u16, body: &str| {
        respond(stream, status, "application/json", body.as_bytes())
    };
    if shared.shutting_down() {
        return json(stream, 503, &json_error("server is shutting down"));
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return json(stream, 400, &json_error("scenario body is not UTF-8")),
    };
    // Validate everything a worker would need *before* enqueueing, with
    // the same code paths the CLI uses: the scenario parser (which also
    // enforces the grid-size cap, lifted for search scenarios), the
    // crossval two-backend floor, the workload name resolver, and
    // backend construction. The queue only ever holds runnable jobs.
    // A scenario with a "search" block runs the adaptive driver, which
    // prices the design space without backends — so the two-backend
    // floor and backend construction are skipped, exactly as
    // `libra search` ignores the scenario's backend list.
    let scenario = match Scenario::from_json(body) {
        Ok(scenario) => scenario,
        Err(e) => return json(stream, 400, &json_error(&e.to_string())),
    };
    if scenario.search.is_none() {
        if scenario.backends.len() < 2 {
            return json(
                stream,
                400,
                &json_error(&format!(
                    "crossval needs at least two backends; scenario {:?} names {}",
                    scenario.name,
                    scenario.backends.len()
                )),
            );
        }
        if let Err(e) = scenario.build_backends(&shared.registry) {
            return json(stream, 400, &json_error(&e.to_string()));
        }
    }
    if let Err(e) = (shared.resolver)(&scenario) {
        return json(stream, 400, &json_error(&e.to_string()));
    }
    match shared.table.submit(scenario) {
        Ok((id, position)) => json(
            stream,
            202,
            &format!("{{\"job\": {}, \"position\": {position}}}\n", json_escape(&id)),
        ),
        Err(SubmitError::QueueFull { capacity }) => json(
            stream,
            503,
            &json_error(&format!("queue is full ({capacity} jobs waiting); retry later")),
        ),
        Err(SubmitError::ShuttingDown) => json(stream, 503, &json_error("server is shutting down")),
    }
}

fn handle_records(stream: &mut TcpStream, id: &str, shared: &Arc<Shared>) -> std::io::Result<()> {
    match shared.table.status(id) {
        None => respond(
            stream,
            404,
            "application/json",
            json_error(&format!("unknown job {id:?}")).as_bytes(),
        ),
        Some(JobStatus::Done { records, .. }) => {
            if let (Some(fault), Some(ordinal)) = (&shared.fault, JobTable::id_index(id)) {
                if fault.fires(fault::SERVER_RESPONSE_DROP, ordinal as u64) {
                    // Sever the stream mid-response: a valid chunked
                    // head and first chunk, then no terminator — the
                    // client must detect the truncation, not silently
                    // accept a partial record set.
                    return respond_chunked_partial(
                        stream,
                        200,
                        "application/jsonl",
                        records.split_inclusive(|&b| b == b'\n'),
                        1,
                    );
                }
            }
            // One HTTP chunk per JSON line: a slow consumer sees the
            // stream arrive record by record, and the reassembled body
            // is the byte-exact `libra crossval --jsonl -` stream.
            respond_chunked(
                stream,
                200,
                "application/jsonl",
                records.split_inclusive(|&b| b == b'\n'),
            )
        }
        Some(status) => respond(
            stream,
            409,
            "application/json",
            format!(
                "{{\"error\": \"job is not done\", \"state\": {}}}\n",
                json_escape(state_name(&status)),
            )
            .as_bytes(),
        ),
    }
}

fn state_name(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Queued { .. } => "queued",
        JobStatus::Running { .. } => "running",
        JobStatus::Done { .. } => "done",
        JobStatus::Failed { .. } => "failed",
    }
}

/// One job's status document.
fn status_json(id: &str, status: &JobStatus) -> String {
    let id = json_escape(id);
    match status {
        JobStatus::Queued { position } => {
            format!("{{\"job\": {id}, \"state\": \"queued\", \"position\": {position}}}\n")
        }
        JobStatus::Running { done, total } => format!(
            "{{\"job\": {id}, \"state\": \"running\", \"done\": {done}, \"total\": {total}}}\n"
        ),
        JobStatus::Done { summary, .. } => format!(
            "{{\"job\": {id}, \"state\": \"done\", \"results\": {}, \"errors\": {}, \
             \"max_rel_error\": {}, \"within_tolerance\": {}, \"exit_code\": {}}}\n",
            summary.results,
            summary.errors,
            json_f64(summary.max_rel_error),
            summary.within_tolerance,
            summary.exit_code(),
        ),
        JobStatus::Failed { error } => {
            format!("{{\"job\": {id}, \"state\": \"failed\", \"error\": {}}}\n", json_escape(error))
        }
    }
}

/// The `/v1/stats` document: queue and lifecycle counters plus the
/// shared store's hit/stage counters (null without a `--cache`).
fn stats_json(shared: &Arc<Shared>) -> String {
    let JobCounts { submitted, queued, running, done, failed } = shared.table.counts();
    let (hits, staged) = match &shared.store {
        Some(store) => {
            let stats = store.lock().unwrap().stats();
            (stats.hits.to_string(), stats.staged.to_string())
        }
        None => ("null".to_string(), "null".to_string()),
    };
    format!(
        "{{\"submitted\": {submitted}, \"queued\": {queued}, \"running\": {running}, \
         \"done\": {done}, \"failed\": {failed}, \"workers\": {}, \"queue_capacity\": {}, \
         \"store_hits\": {hits}, \"store_staged\": {staged}}}\n",
        shared.workers, shared.queue_capacity,
    )
}
