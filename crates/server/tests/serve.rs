//! End-to-end tests over real sockets: an in-process [`Server`] on an
//! ephemeral loopback port, driven through [`ServiceClient`] — the same
//! client `libra submit` uses.
//!
//! The workload resolver is a stub (one planned All-Reduce per name), so
//! these tests pin the *service* semantics — routing, validation, queue
//! bounds, byte-identity of `/records` with a direct in-process run,
//! shared-store hits, graceful shutdown — without dragging the Table II
//! workload zoo in. The CLI-level tests in `libra-bench` repeat the
//! byte-identity contract against the committed golden files.

use std::sync::Arc;
use std::time::Duration;

use libra_core::comm::{Collective, CommModel, GroupSpan};
use libra_core::cost::CostModel;
use libra_core::error::LibraError;
use libra_core::eval::CommPlan;
use libra_core::network::NetworkShape;
use libra_core::opt::Objective;
use libra_core::scenario::{
    records_from_jsonl, BackendRegistry, JsonLinesSink, ReportSink, Scenario,
};
use libra_core::store::SolveStore;
use libra_core::sweep::FnWorkload;
use libra_core::workload::CommOp;
use libra_server::{PolledStatus, Server, ServerConfig, ServiceClient, WorkloadResolver};

const POLL: Duration = Duration::from_millis(10);

/// One planned All-Reduce whose size is derived from the workload name,
/// so different names price differently.
fn planned(name: &str) -> FnWorkload {
    let gb = 1.0 + name.len() as f64 * 0.25;
    FnWorkload::new(name, move |shape: &NetworkShape| {
        let comm = CommModel::default();
        Ok(vec![(1.0, comm.time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape)))])
    })
    .with_plan(move |shape: &NetworkShape| {
        Ok(CommPlan::serial([CommOp::new(Collective::AllReduce, gb * 1e9, GroupSpan::full(shape))]))
    })
}

/// The stub resolver: any name resolves except `"no-such-workload"`,
/// which exercises the resolver-rejection path at `POST /v1/sweeps`.
fn resolver() -> Box<WorkloadResolver> {
    Box::new(|scenario: &Scenario| {
        scenario
            .workloads
            .iter()
            .map(|name| {
                if name == "no-such-workload" {
                    return Err(LibraError::BadRequest(format!("unknown workload {name:?}")));
                }
                Ok(planned(name))
            })
            .collect()
    })
}

fn start(config: ServerConfig) -> (Server, ServiceClient) {
    let server = Server::start(config, BackendRegistry::new(), resolver()).expect("server start");
    let client = ServiceClient::new(&format!("http://{}", server.addr())).expect("client");
    (server, client)
}

/// A two-backend scenario; the tolerance accommodates the offload
/// variant's cheaper All-Reduce (a deterministic ~1/3 relative gap), so
/// jobs finish within tolerance and exit 0.
fn scenario() -> Scenario {
    Scenario::builder("serve-test")
        .with_shapes(["RI(4)_RI(8)".parse().unwrap(), "FC(4)_RI(4)".parse().unwrap()])
        .with_budgets([100.0, 400.0])
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
        .with_workload("stub-a")
        .with_backends(["analytical", "analytical-offload"])
        .with_tolerance(0.5)
        .build()
        .unwrap()
}

/// The reference bytes: the same scenario run in-process through the
/// same sink the CLI's `--jsonl -` uses.
fn direct_run_bytes(scenario: &Scenario) -> Vec<u8> {
    let workloads = resolver()(scenario).unwrap();
    let registry = BackendRegistry::new();
    let cost_model = CostModel::default();
    let session = scenario.session(&cost_model);
    let mut buf: Vec<u8> = Vec::new();
    {
        let mut jsonl = JsonLinesSink::new(&mut buf);
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut jsonl];
        session.run_scenario_with_sinks(scenario, &workloads, &registry, &mut sinks).unwrap();
    }
    buf
}

fn tmp(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("libra-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn healthz_backends_stats_and_routing() {
    let (server, client) = start(ServerConfig::default());

    let health = client.get("/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"{\"status\": \"ok\"}\n");

    // /v1/backends serves the registry's canonical JSON, byte-for-byte.
    let backends = client.get("/v1/backends").unwrap();
    assert_eq!(backends.status, 200);
    assert_eq!(backends.body, BackendRegistry::new().to_json().into_bytes());
    let text = String::from_utf8(backends.body).unwrap();
    assert!(text.contains("\"name\": \"analytical\""), "{text}");
    assert!(text.contains("\"description\": "), "{text}");

    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let text = String::from_utf8(stats.body).unwrap();
    assert!(text.contains("\"submitted\": 0"), "{text}");
    assert!(text.contains("\"store_hits\": null"), "no cache configured: {text}");

    assert_eq!(client.get("/v1/nope").unwrap().status, 404);
    assert_eq!(client.post("/v1/healthz", b"").unwrap().status, 405);
    assert_eq!(client.get("/v1/sweeps/job-1").unwrap().status, 404);

    server.shutdown();
    server.join().unwrap();
}

#[test]
fn records_are_byte_identical_to_a_direct_run() {
    let (server, client) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let scenario = scenario();
    let body = scenario.to_json();

    let (job, position) = client.submit(body.as_bytes()).unwrap();
    assert_eq!(position, 1);
    let summary = client.wait(&job, POLL, None).unwrap();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.results, 8, "2 shapes x 2 budgets x 2 objectives");
    assert!(summary.within_tolerance);
    assert_eq!(summary.exit_code(), 0);

    let served = client.records(&job).unwrap();
    assert_eq!(served, direct_run_bytes(&scenario), "served bytes must match --jsonl -");
    // The chunked stream reassembles into a stream the repo's own
    // re-parser accepts (the resume/dispatch seam).
    let rows = records_from_jsonl(std::str::from_utf8(&served).unwrap()).unwrap();
    assert_eq!(rows.len(), 8);
    // Fetching twice is idempotent.
    assert_eq!(client.records(&job).unwrap(), served);

    // A second submission of the same scenario is a distinct job with
    // identical bytes.
    let (job2, _) = client.submit(body.as_bytes()).unwrap();
    client.wait(&job2, POLL, None).unwrap();
    assert_eq!(client.records(&job2).unwrap(), served);

    server.shutdown();
    server.join().unwrap();
}

#[test]
fn submissions_are_validated_before_queueing() {
    let (server, client) = start(ServerConfig::default());
    let reject = |body: &str, needle: &str| {
        let response = client.post("/v1/sweeps", body.as_bytes()).unwrap();
        assert_eq!(response.status, 400, "{needle}");
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains(needle), "want {needle:?} in {text}");
    };

    reject("not json at all", "invalid JSON");

    // Pathological cross product: rejected by the scenario validator at
    // POST time, long before a worker could OOM on it.
    let mut huge = Scenario::builder("huge")
        .with_objectives([Objective::Perf, Objective::PerfPerCost])
        .with_workload("stub")
        .with_backends(["analytical", "analytical-offload"]);
    for i in 0..2048 {
        huge = huge.with_shape(format!("RI({})_RI(4)", 2 + (i % 62)).parse().unwrap());
    }
    let budgets: Vec<f64> = (0..2048).map(|i| 100.0 + i as f64).collect();
    let huge_json = {
        // Bypass the builder (which would reject it locally) by editing a
        // valid file's budget list into the pathological one.
        let small = huge.with_budgets([100.0]).build().unwrap();
        let long_list: Vec<String> = budgets.iter().map(|b| format!("{b}")).collect();
        small.to_json().replacen("[100]", &format!("[{}]", long_list.join(", ")), 1)
    };
    reject(&huge_json, "point cap");

    let unknown_backend = scenario().to_json().replace("analytical-offload", "astra-sim");
    reject(&unknown_backend, "unknown backend");

    let unknown_workload = scenario().to_json().replace("stub-a", "no-such-workload");
    reject(&unknown_workload, "unknown workload");

    let one_backend = {
        let mut s = scenario();
        s.backends.truncate(1);
        s.to_json()
    };
    reject(&one_backend, "at least two backends");

    server.shutdown();
    server.join().unwrap();
}

/// Posts a hostile `body` to a fresh one-worker server and checks that
/// it is a 400 whose message contains `needle`, and that the server then
/// still answers `/v1/stats` and runs the next job byte-identically.
fn assert_rejected_and_still_serving(body: &[u8], needle: &str) {
    let (server, client) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let response = client.post("/v1/sweeps", body).unwrap();
    assert_eq!(response.status, 400);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains(needle), "{text}");

    assert_eq!(client.get("/v1/stats").unwrap().status, 200);
    let scenario = scenario();
    let (job, _) = client.submit(scenario.to_json().as_bytes()).unwrap();
    assert_eq!(client.wait(&job, POLL, None).unwrap().exit_code(), 0);
    assert_eq!(client.records(&job).unwrap(), direct_run_bytes(&scenario));

    server.shutdown();
    server.join().unwrap();
}

/// A body of 200 KB of `[` is a 400, not a stack overflow in its
/// handler thread (an abort no `catch_unwind` contains): the server
/// keeps answering and still runs the next job.
#[test]
fn deeply_nested_bodies_are_rejected_and_the_server_keeps_serving() {
    assert_rejected_and_still_serving("[".repeat(200 * 1024).as_bytes(), "nesting deeper");
}

/// A ~300-byte body whose budgets ladder asks for 10¹² entries is a
/// 400, not an 8 TB allocation whose failure aborts the server.
#[test]
fn huge_budget_ladders_are_rejected_and_the_server_keeps_serving() {
    let ladder = "\"budgets\": {\"from\": 100, \"to\": 1000, \"count\": 1e12}";
    let body = scenario().to_json().replacen("\"budgets\": [100, 400]", ladder, 1);
    assert!(body.contains(ladder), "the ladder replaced the budget list: {body}");
    assert_rejected_and_still_serving(
        body.as_bytes(),
        "budgets ladder field \\\"count\\\" must be at most",
    );
}

/// A ~300-byte body asking for 10¹² chunks per collective is a 400, not
/// per-chunk backend state whose failed allocation aborts the server.
#[test]
fn huge_chunk_counts_are_rejected_and_the_server_keeps_serving() {
    let body = scenario().to_json().replacen("\"chunks\": 64", "\"chunks\": 1e12", 1);
    assert!(body.contains("\"chunks\": 1e12"), "the chunk count was replaced: {body}");
    assert_rejected_and_still_serving(body.as_bytes(), "field \\\"chunks\\\" must be at most");
}

#[test]
fn queue_is_bounded_and_states_are_observable() {
    // workers: 0 is the test seam: jobs queue forever, so queued-state
    // answers are deterministic.
    let (server, client) =
        start(ServerConfig { workers: 0, queue_capacity: 2, ..ServerConfig::default() });
    let body = scenario().to_json();

    let (a, pa) = client.submit(body.as_bytes()).unwrap();
    let (_b, pb) = client.submit(body.as_bytes()).unwrap();
    assert_eq!((pa, pb), (1, 2));

    let status = client.get(&format!("/v1/sweeps/{a}")).unwrap();
    let text = String::from_utf8(status.body).unwrap();
    assert!(text.contains("\"state\": \"queued\""), "{text}");
    assert!(text.contains("\"position\": 1"), "{text}");

    // Records of a queued job: 409, naming the state.
    let records = client.get(&format!("/v1/sweeps/{a}/records")).unwrap();
    assert_eq!(records.status, 409);
    assert!(String::from_utf8(records.body).unwrap().contains("queued"));

    // The bounded queue turns the third submission away.
    let full = client.post("/v1/sweeps", body.as_bytes()).unwrap();
    assert_eq!(full.status, 503);
    assert!(String::from_utf8(full.body).unwrap().contains("queue is full"));

    let stats = String::from_utf8(client.get("/v1/stats").unwrap().body).unwrap();
    assert!(stats.contains("\"submitted\": 2"), "{stats}");
    assert!(stats.contains("\"queued\": 2"), "{stats}");

    server.shutdown();
    server.join().unwrap();
}

#[test]
fn concurrent_clients_share_one_store() {
    let cache = tmp("shared.jsonl");
    // One worker serializes the runs while two *clients* race: whoever
    // lands second preloads every solve the first staged — the
    // cross-client warm path the service exists for.
    let (server, client) =
        start(ServerConfig { workers: 1, cache: Some(cache.clone()), ..ServerConfig::default() });
    let body = Arc::new(scenario().to_json());
    let authority = format!("http://{}", server.addr());

    let threads: Vec<_> = (0..2)
        .map(|_| {
            let body = Arc::clone(&body);
            let authority = authority.clone();
            std::thread::spawn(move || {
                let client = ServiceClient::new(&authority).unwrap();
                let (job, _) = client.submit(body.as_bytes()).unwrap();
                let summary = client.wait(&job, POLL, None).unwrap();
                assert_eq!(summary.exit_code(), 0);
                client.records(&job).unwrap()
            })
        })
        .collect();
    let outputs: Vec<Vec<u8>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(outputs[0], outputs[1], "both clients see identical bytes");
    assert_eq!(outputs[0], direct_run_bytes(&scenario()), "and both match a storeless run");

    let stats = String::from_utf8(client.get("/v1/stats").unwrap().body).unwrap();
    assert!(stats.contains("\"done\": 2"), "{stats}");
    let hits: usize = stats
        .split("\"store_hits\": ")
        .nth(1)
        .and_then(|t| t.split([',', '}']).next())
        .and_then(|t| t.trim().parse().ok())
        .expect("store_hits in stats");
    assert!(hits >= 8, "second job must hit every stored solve, got {hits}: {stats}");

    server.shutdown();
    server.join().unwrap();
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn shutdown_flushes_the_store_for_warm_restarts() {
    let cache = tmp("flush.jsonl");
    let scenario = scenario();
    {
        let (server, client) = start(ServerConfig {
            workers: 1,
            cache: Some(cache.clone()),
            ..ServerConfig::default()
        });
        let (job, _) = client.submit(scenario.to_json().as_bytes()).unwrap();
        client.wait(&job, POLL, None).unwrap();
        // The shutdown endpoint requests the same drain a SIGTERM does.
        let response = client.post("/v1/shutdown", b"").unwrap();
        assert_eq!(response.status, 200);
        server.join().unwrap();
    }
    // The flushed cache file warms a *new process*: every solve loads,
    // and the warm-from-disk stream stays byte-identical.
    let store = SolveStore::open(&cache).unwrap();
    assert!(store.len() >= 8, "flushed store holds the run, got {}", store.len());
    drop(store);

    let workloads = resolver()(&scenario).unwrap();
    let registry = BackendRegistry::new();
    let cost_model = CostModel::default();
    let session = scenario.session(&cost_model).with_store(&cache).unwrap();
    let mut buf: Vec<u8> = Vec::new();
    {
        let mut jsonl = JsonLinesSink::new(&mut buf);
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut jsonl];
        session.run_scenario_with_sinks(&scenario, &workloads, &registry, &mut sinks).unwrap();
    }
    assert_eq!(buf, direct_run_bytes(&scenario), "warm-from-disk run stays byte-identical");
    assert!(
        session.engine().store_stats().unwrap().hits >= 8,
        "the warm run must come from the store"
    );
    let _ = std::fs::remove_file(&cache);
}

/// Starts a server on the unspecified address, serves one job through
/// `127.0.0.1`, requests a shutdown with `trigger`, and checks that
/// `join` wakes the blocked accept loop: it returns within 5 s (run on a
/// helper thread, so a lost wake fails the test instead of hanging the
/// suite) and the port refuses connections afterwards.
fn shut_down_wildcard_server(trigger: impl FnOnce(&Server, &ServiceClient)) {
    let server = Server::start(
        ServerConfig { addr: "0.0.0.0:0".to_string(), workers: 1, ..ServerConfig::default() },
        BackendRegistry::new(),
        resolver(),
    )
    .expect("server start");
    assert!(server.addr().ip().is_unspecified(), "bound to {}", server.addr());
    let port = server.addr().port();
    let client = ServiceClient::new(&format!("http://127.0.0.1:{port}")).unwrap();
    let (job, _) = client.submit(scenario().to_json().as_bytes()).unwrap();
    client.wait(&job, POLL, None).unwrap();
    assert_eq!(client.records(&job).unwrap(), direct_run_bytes(&scenario()));

    trigger(&server, &client);
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(server.join()));
    joined
        .recv_timeout(Duration::from_secs(5))
        .expect("join must return within 5 s of the shutdown request")
        .unwrap();
    assert!(
        std::net::TcpStream::connect(("127.0.0.1", port)).is_err(),
        "port {port} still accepts connections after join"
    );
}

#[test]
fn wildcard_bound_server_shuts_down_on_request() {
    shut_down_wildcard_server(|server, _| server.shutdown());
}

#[test]
fn wildcard_bound_server_shuts_down_on_the_shutdown_endpoint() {
    shut_down_wildcard_server(|_, client| {
        assert_eq!(client.post("/v1/shutdown", b"").unwrap().status, 200);
    });
}

/// A panicking worker (here an injected `server.worker.panic` on job
/// ordinal 0) fails only its own job: the worker thread survives, the
/// next job completes with byte-identical records, and `/v1/stats`
/// reports the one failure.
#[test]
fn worker_panic_fails_only_its_own_job() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        fault_spec: Some("server.worker.panic=#1".to_string()),
        ..ServerConfig::default()
    });
    let body = scenario().to_json();

    let (doomed, _) = client.submit(body.as_bytes()).unwrap();
    let err = client.wait(&doomed, POLL, None).unwrap_err();
    assert!(err.to_string().contains("sweep worker panicked"), "got {err}");

    // The same worker thread picks up job ordinal 1 and finishes it.
    let (job, _) = client.submit(body.as_bytes()).unwrap();
    let summary = client.wait(&job, POLL, None).unwrap();
    assert_eq!(summary.exit_code(), 0);
    assert_eq!(client.records(&job).unwrap(), direct_run_bytes(&scenario()));

    let stats = String::from_utf8(client.get("/v1/stats").unwrap().body).unwrap();
    assert!(stats.contains("\"failed\": 1"), "{stats}");
    assert!(stats.contains("\"done\": 1"), "{stats}");

    server.shutdown();
    server.join().unwrap();
}

/// A hung solve (injected `sweep.point.slow` far past `job_timeout`) is
/// failed by the watchdog within the configured deadline, with a
/// diagnostic naming the deadline, while the server stays responsive.
#[test]
fn watchdog_fails_hung_jobs_within_the_deadline() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        job_timeout: Some(Duration::from_millis(150)),
        fault_spec: Some("sweep.point.slow=#1,ms=800".to_string()),
        ..ServerConfig::default()
    });

    let (job, _) = client.submit(scenario().to_json().as_bytes()).unwrap();
    let started = std::time::Instant::now();
    let err = client.wait(&job, POLL, None).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("deadline"), "watchdog diagnostic names the deadline, got {text}");
    assert!(text.contains("150 ms"), "got {text}");
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "the watchdog must beat the hung solve, took {:?}",
        started.elapsed()
    );
    // Terminal means terminal: the late-finishing worker cannot
    // resurrect the job into `done`.
    std::thread::sleep(Duration::from_millis(900));
    assert!(matches!(client.status(&job).unwrap(), PolledStatus::Failed { .. }));

    let stats = String::from_utf8(client.get("/v1/stats").unwrap().body).unwrap();
    assert!(stats.contains("\"failed\": 1"), "{stats}");

    server.shutdown();
    server.join().unwrap();
}

/// `POST /v1/sweeps/{id}/cancel`: queued jobs fail without ever
/// running, running jobs transition to a terminal `failed`, finished
/// jobs answer 409, unknown ids 404 — and a cancel never wedges the
/// worker that was running the job.
#[test]
fn cancel_is_terminal_for_queued_and_running_jobs() {
    // Queued cancel: no workers, so the job can never start.
    let (server, client) = start(ServerConfig { workers: 0, ..ServerConfig::default() });
    let body = scenario().to_json();
    let (queued, _) = client.submit(body.as_bytes()).unwrap();
    let response = client.post(&format!("/v1/sweeps/{queued}/cancel"), b"").unwrap();
    assert_eq!(response.status, 200);
    match client.status(&queued).unwrap() {
        PolledStatus::Failed { error } => assert_eq!(error, "cancelled before start"),
        other => panic!("unexpected state {other:?}"),
    }
    // Cancelling twice: already finished. Unknown ids: 404.
    assert_eq!(client.post(&format!("/v1/sweeps/{queued}/cancel"), b"").unwrap().status, 409);
    assert_eq!(client.post("/v1/sweeps/job-999/cancel", b"").unwrap().status, 404);
    server.shutdown();
    server.join().unwrap();

    // Running cancel: every point sleeps, so the job is observably
    // running for long enough to cancel it mid-sweep.
    let (server, client) = start(ServerConfig {
        workers: 1,
        fault_spec: Some("sweep.point.slow=1,ms=300".to_string()),
        ..ServerConfig::default()
    });
    let (running, _) = client.submit(body.as_bytes()).unwrap();
    while !matches!(client.status(&running).unwrap(), PolledStatus::Running { .. }) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let response = client.post(&format!("/v1/sweeps/{running}/cancel"), b"").unwrap();
    assert_eq!(response.status, 200);
    match client.status(&running).unwrap() {
        PolledStatus::Failed { error } => assert_eq!(error, "cancelled"),
        other => panic!("unexpected state {other:?}"),
    }
    // The worker abandoned the cancelled sweep and is healthy: a fresh
    // job on the same server still completes.
    let (job, _) = client.submit(body.as_bytes()).unwrap();
    assert_eq!(client.wait(&job, POLL, None).unwrap().exit_code(), 0);
    server.shutdown();
    server.join().unwrap();
}

/// `ServiceClient::wait` with a deadline returns the typed
/// [`LibraError::Timeout`] instead of blocking forever on a job that
/// will never finish (no workers), and the job keeps its server-side
/// state.
#[test]
fn wait_deadline_is_a_typed_timeout() {
    let (server, client) = start(ServerConfig { workers: 0, ..ServerConfig::default() });
    let (job, _) = client.submit(scenario().to_json().as_bytes()).unwrap();
    let err = client.wait_timeout(&job, POLL, Duration::from_millis(80)).unwrap_err();
    match &err {
        LibraError::Timeout { what, after_ms } => {
            assert!(what.contains(&job), "{what}");
            assert_eq!(*after_ms, 80);
        }
        other => panic!("want Timeout, got {other:?}"),
    }
    // Still queued server-side: a wait timeout is a client-side verdict.
    assert!(matches!(client.status(&job).unwrap(), PolledStatus::Queued { .. }));
    server.shutdown();
    server.join().unwrap();
}

/// Connection-refused requests retry within the configured budget — a
/// client started moments before its server still lands the submit —
/// while a budget-less client fails fast and an exhausted budget is a
/// typed timeout.
#[test]
fn connect_retry_rides_out_a_slow_server_start() {
    // Reserve a loopback port, then release it for the delayed server.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let authority = format!("http://{addr}");

    // No retry budget: the refused connection surfaces immediately.
    let eager = ServiceClient::new(&authority).unwrap();
    let err = eager.get("/v1/healthz").unwrap_err();
    assert!(err.to_string().contains("cannot connect to"), "got {err}");

    // An exhausted budget is a typed Timeout carrying the last refusal.
    let bounded =
        ServiceClient::new(&authority).unwrap().with_connect_retry(Duration::from_millis(60));
    match bounded.get("/v1/healthz").unwrap_err() {
        LibraError::Timeout { what, after_ms } => {
            assert!(what.contains("cannot connect to"), "{what}");
            assert_eq!(after_ms, 60);
        }
        other => panic!("want Timeout, got {other:?}"),
    }

    // The server comes up mid-budget: the retrying client's submit lands.
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        let server = Server::start(
            ServerConfig { addr: addr.to_string(), workers: 1, ..ServerConfig::default() },
            BackendRegistry::new(),
            resolver(),
        )
        .expect("delayed server start");
        server
    });
    let patient =
        ServiceClient::new(&authority).unwrap().with_connect_retry(Duration::from_secs(10));
    let (job, _) = patient.submit(scenario().to_json().as_bytes()).unwrap();
    let summary = patient.wait(&job, POLL, None).unwrap();
    assert_eq!(summary.exit_code(), 0);
    let server = handle.join().unwrap();
    server.shutdown();
    server.join().unwrap();
}

/// An injected `server.response.drop` severs the records stream
/// mid-response; the client must surface the truncation as an error,
/// never silently accept a partial record set — and a later job's
/// stream (past the armed ordinal) is whole and byte-identical.
#[test]
fn dropped_response_is_detected_not_truncated_silently() {
    let (server, client) = start(ServerConfig {
        workers: 1,
        fault_spec: Some("server.response.drop=#1".to_string()),
        ..ServerConfig::default()
    });
    let body = scenario().to_json();

    let (dropped, _) = client.submit(body.as_bytes()).unwrap();
    client.wait(&dropped, POLL, None).unwrap();
    let err = client.records(&dropped).unwrap_err();
    assert!(err.to_string().contains("truncated"), "got {err}");

    let (whole, _) = client.submit(body.as_bytes()).unwrap();
    client.wait(&whole, POLL, None).unwrap();
    assert_eq!(client.records(&whole).unwrap(), direct_run_bytes(&scenario()));

    server.shutdown();
    server.join().unwrap();
}

/// A `"search"` block flips a submission into adaptive-search mode: the
/// grid may exceed the exhaustive point cap, the crossval two-backend
/// floor does not apply, and the served records are byte-identical to
/// the local search driver's stream.
#[test]
fn search_jobs_run_the_adaptive_driver_over_the_point_cap() {
    let (server, client) = start(ServerConfig { workers: 1, ..ServerConfig::default() });

    // 1 shape x 1 workload x 2.2M budgets x 2 objectives = 4.4M nominal
    // points — over the 4,194,304 cap — with zero backends. The ladder
    // form keeps the POST body tiny; the parser expands it server-side.
    let body = r#"{
        "schema": "libra-scenario-v1",
        "name": "serve-search",
        "shapes": ["RI(4)_RI(8)"],
        "budgets": {"from": 100, "to": 800, "count": 2200000, "scale": "linear"},
        "objectives": ["perf", "perf-per-cost"],
        "workloads": ["stub-a"],
        "backends": [],
        "search": {"seed_budgets": 6, "max_evals": 24}
    }"#;

    let (job, _) = client.submit(body.as_bytes()).unwrap();
    let summary = client.wait(&job, POLL, None).unwrap();
    assert_eq!(summary.errors, 0);
    assert!(summary.results > 0 && summary.results <= 24, "max_evals bounds: {}", summary.results);
    assert!(summary.within_tolerance, "search jobs have no divergence verdict to fail");
    assert_eq!(summary.exit_code(), 0);

    // Byte-identity with the local driver, same stub resolver.
    let scenario = Scenario::from_json(body).unwrap();
    let workloads = resolver()(&scenario).unwrap();
    let cost_model = CostModel::default();
    let session = scenario.session(&cost_model);
    let mut expected: Vec<u8> = Vec::new();
    {
        let mut jsonl = JsonLinesSink::new(&mut expected);
        let mut sinks: Vec<&mut dyn ReportSink> = vec![&mut jsonl];
        libra_core::search::run_scenario(&session, &scenario, &workloads, &mut sinks).unwrap();
    }
    let served = client.records(&job).unwrap();
    assert_eq!(served, expected, "served bytes must match the local search driver");
    let rows = records_from_jsonl(std::str::from_utf8(&served).unwrap()).unwrap();
    assert_eq!(rows.len(), summary.results);

    // Without the search block, the same over-cap grid is rejected at
    // POST time by the scenario validator.
    let exhaustive =
        body.replace(r#""search": {"seed_budgets": 6, "max_evals": 24}"#, r#""tolerance": 0.5"#);
    let response = client.post("/v1/sweeps", exhaustive.as_bytes()).unwrap();
    assert_eq!(response.status, 400);
    let text = String::from_utf8(response.body).unwrap();
    assert!(text.contains("point cap"), "{text}");

    server.shutdown();
    server.join().unwrap();
}
