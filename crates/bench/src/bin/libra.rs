//! `libra` — the scenario-first command line for the design-space engine.
//!
//! Scenario files (see `scenarios/` in the repository root and the
//! "Scenario files & CLI" section of the README) describe a sweep as
//! data: shapes × budgets × objectives, Table II workload names, backend
//! names, link parameters, and policies. This binary executes them:
//!
//! ```text
//! libra list-backends [--json]
//! libra sweep    <SCENARIO.json> [--serial] [--jsonl PATH] [--quiet] [--range A..B] [--cache PATH]
//! libra search   <SCENARIO.json> [--serial] [--jsonl PATH] [--quiet] [--cache PATH]
//! libra crossval <SCENARIO.json> [--serial] [--jsonl PATH] [--quiet] [--range A..B] [--cache PATH]
//! libra dispatch <SCENARIO.json> --shards K [--spawn [--retries N]] [--serial] [--jsonl PATH] [--quiet] [--cache PATH]
//! libra resume   <SCENARIO.json> <PARTIAL.jsonl> [--serial] [--jsonl PATH] [--quiet] [--cache PATH]
//! libra serve    [--addr HOST:PORT] [--workers N] [--queue N] [--cache PATH] [--port-file PATH]
//!                [--job-timeout SECS] [--max-failed-points N]
//! libra submit   <SCENARIO.json> --url http://HOST:PORT [--jsonl PATH] [--quiet] [--timeout SECS]
//! ```
//!
//! * `sweep` runs the design-space grid without backend pricing (the
//!   scenario's `backends` list is ignored).
//! * `search` runs the scenario's adaptive `"search"` block: a coarse
//!   sample of the budget axis is successively refined around the
//!   Pareto front instead of sweeping the whole grid, so scenarios
//!   *above* the exhaustive point cap are legal. The streamed JSONL carries nominal grid indices, replays
//!   bit-identically (parallel ≡ serial, warm-from-store ≡ cold), and
//!   on exhaustively sweepable grids the final front equals `sweep`'s
//!   `pareto_front()` exactly.
//! * `crossval` prices every grid point under each of the scenario's
//!   backends (two or more required) and reports pairwise divergence.
//! * `dispatch` splits the grid into `K` contiguous shards, runs each
//!   shard as an independent worker — fresh in-process sessions by
//!   default, forked `libra crossval --range` child processes with
//!   `--spawn` — and merges the shards' JSON-lines streams back into
//!   one coverage-checked, re-judged report. The merged stream and exit
//!   code are bit-identical to the single-process `crossval` run's.
//! * `resume` reads the valid prefix of an interrupted JSON-lines
//!   stream, prices only the grid indices it is missing, and emits a
//!   merged stream byte-identical to an uninterrupted run (in place
//!   over `PARTIAL.jsonl` unless `--jsonl` redirects it).
//! * `--range A..B` restricts a run to the grid indices `A..B` (what a
//!   spawned shard worker executes); emitted record indices stay global.
//!   Reversed, empty, and out-of-grid ranges are usage errors.
//! * `--cache PATH` attaches the persistent solve store (`libra-cache-v2`
//!   JSON-lines): a design any earlier run solved from the same shape,
//!   workload targets, budget, objective and warm-start seed is loaded
//!   instead of re-solved, whichever scenario solved it, and fresh
//!   solves are appended for the next run. Sharded and resumed runs stay
//!   byte-identical to cold single-process runs.
//! * `--jsonl PATH` streams per-point records as JSON-lines to `PATH`
//!   (`-` for stdout, which implies `--quiet`); the stream is
//!   bit-identical across runs and machines-with-identical-libm, which
//!   is what the CI golden diff pins.
//! * `--serial` uses the serial reference fold (bit-identical to the
//!   default rayon fan-out by the engine's determinism contract).
//! * `dispatch --spawn --retries N` respawns a crashed shard worker up
//!   to `N` times (deterministic seeded exponential backoff); the
//!   merged stream stays byte-identical to a clean run because failed
//!   attempts' partial output is discarded whole. A worker that exits 1
//!   fails the dispatch at once, with the worker's last stderr line.
//! * `serve` runs the sweep service: an HTTP/JSON front end that queues
//!   submitted scenarios onto a worker pool sharing one `--cache` solve
//!   store. `SIGTERM`/ctrl-c drain gracefully: running jobs finish,
//!   queued jobs fail fast, the store flushes. `--job-timeout SECS`
//!   arms a watchdog that fails hung jobs; `--max-failed-points N`
//!   fails any job with more than `N` errored grid points.
//! * `submit` sends a scenario file to a running server, waits for the
//!   job, and streams back the records — byte-identical to running
//!   `libra crossval <SCENARIO.json> --jsonl -` locally, with the same
//!   0/2 exit-code split. Connection-refused submits are retried
//!   briefly; `--timeout SECS` bounds the wait for the job itself.
//! * `LIBRA_FAULT_PLAN` (see `libra_core::fault`) arms deterministic
//!   fault injection across every command — chaos testing's front door.
//!
//! Exit codes: `0` success (and, for `crossval`/`dispatch`, all pairs
//! within tolerance); `1` usage, I/O, or scenario errors; `2` a
//! `crossval`/`dispatch` run whose backends diverged beyond the
//! scenario's tolerance.

use std::io::Write;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use libra_bench::{default_registry, scenario_workloads, search, ExecMode, Scenario};
use libra_core::cost::CostModel;
use libra_core::dispatch::{partial_records, resume_rows, Dispatcher};
use libra_core::fault::{self, FaultInjector};
use libra_core::scenario::{ConsoleTableSink, JsonLinesSink, ReportSink, Session};
use libra_core::LibraError;
use libra_server::{install_signal_handlers, Server, ServerConfig, ServiceClient};

const USAGE: &str = "\
libra — scenario-first front door for the LIBRA design-space engine

USAGE:
    libra list-backends [--json]
    libra sweep    <SCENARIO.json> [--serial] [--jsonl PATH] [--quiet] [--range A..B] [--cache PATH]
    libra search   <SCENARIO.json> [--serial] [--jsonl PATH] [--quiet] [--cache PATH]
    libra crossval <SCENARIO.json> [--serial] [--jsonl PATH] [--quiet] [--range A..B] [--cache PATH]
    libra dispatch <SCENARIO.json> --shards K [--spawn [--retries N]] [--serial] [--jsonl PATH] [--quiet] [--cache PATH]
    libra resume   <SCENARIO.json> <PARTIAL.jsonl> [--serial] [--jsonl PATH] [--quiet] [--cache PATH]
    libra serve    [--addr HOST:PORT] [--workers N] [--queue N] [--cache PATH] [--port-file PATH]
                   [--job-timeout SECS] [--max-failed-points N]
    libra submit   <SCENARIO.json> --url http://HOST:PORT [--jsonl PATH] [--quiet] [--timeout SECS]

EXIT CODES:
    0  success (crossval/dispatch/resume/submit: every backend pair within tolerance)
    1  usage, I/O, or scenario error
    2  crossval/dispatch/resume/submit divergence beyond the scenario's tolerance
";

struct Options {
    scenario_path: String,
    /// `resume`'s second positional: the interrupted JSON-lines stream.
    partial_path: Option<String>,
    serial: bool,
    quiet: bool,
    jsonl: Option<String>,
    range: Option<Range<usize>>,
    shards: Option<usize>,
    spawn: bool,
    /// `dispatch --spawn` only: respawn a crashed shard worker up to
    /// this many times.
    retries: Option<u32>,
    cache: Option<String>,
}

/// A run can fail two ways with exit 1: a usage error (earns the USAGE
/// block on stderr) or a runtime error (does not — repeating the flag
/// grammar at an I/O failure would bury the actual message).
enum CliError {
    Usage(String),
    Run(String),
}

impl From<LibraError> for CliError {
    fn from(e: LibraError) -> Self {
        CliError::Run(e.to_string())
    }
}

fn parse_range(s: &str) -> Result<Range<usize>, String> {
    let bad = || format!("--range wants A..B (got {s:?})");
    let (a, b) = s.split_once("..").ok_or_else(bad)?;
    let start: usize = a.parse().map_err(|_| bad())?;
    let end: usize = b.parse().map_err(|_| bad())?;
    if start > end {
        return Err(format!("--range {s} is reversed (start exceeds end)"));
    }
    if start == end {
        return Err(format!("--range {s} is empty (start equals end)"));
    }
    Ok(start..end)
}

fn parse_options(cmd: &str, args: &[String]) -> Result<Options, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut serial = false;
    let mut quiet = false;
    let mut jsonl = None;
    let mut range = None;
    let mut shards = None;
    let mut spawn = false;
    let mut retries = None;
    let mut cache = None;
    let mut seen: Vec<&str> = Vec::new();
    // Every flag is set-at-most-once: a duplicate is a usage error, not
    // a silent last-one-wins (or worse, first-one-wins for booleans).
    let mut once = |flag: &'static str| -> Result<(), String> {
        if seen.contains(&flag) {
            return Err(format!("duplicate flag {flag}"));
        }
        seen.push(flag);
        Ok(())
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serial" => {
                once("--serial")?;
                serial = true;
            }
            "--quiet" => {
                once("--quiet")?;
                quiet = true;
            }
            "--spawn" => {
                once("--spawn")?;
                spawn = true;
            }
            "--jsonl" => {
                once("--jsonl")?;
                let path = it.next().filter(|p| *p == "-" || !p.starts_with("--"));
                jsonl = Some(path.ok_or_else(|| "--jsonl requires a path".to_string())?.clone());
            }
            "--cache" => {
                once("--cache")?;
                let path = it.next().filter(|p| !p.starts_with("--"));
                cache = Some(path.ok_or_else(|| "--cache requires a path".to_string())?.clone());
            }
            "--range" => {
                once("--range")?;
                let spec = it.next().ok_or_else(|| "--range requires A..B".to_string())?;
                range = Some(parse_range(spec)?);
            }
            "--shards" => {
                once("--shards")?;
                let n = it.next().ok_or_else(|| "--shards requires a count".to_string())?;
                let n: usize =
                    n.parse().map_err(|_| format!("--shards wants a number (got {n:?})"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                shards = Some(n);
            }
            "--retries" => {
                once("--retries")?;
                let n = it.next().ok_or_else(|| "--retries requires a count".to_string())?;
                let n: u32 =
                    n.parse().map_err(|_| format!("--retries wants a number (got {n:?})"))?;
                retries = Some(n);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            path => positionals.push(path.to_string()),
        }
    }
    let wants = if cmd == "resume" { 2 } else { 1 };
    if positionals.len() > wants {
        return Err(format!("unexpected extra argument {:?}", positionals[wants]));
    }
    let mut positionals = positionals.into_iter();
    let scenario_path = positionals.next().ok_or_else(|| "missing scenario file".to_string())?;
    let partial_path = if cmd == "resume" {
        Some(
            positionals
                .next()
                .ok_or_else(|| "resume needs the partial JSON-lines file".to_string())?,
        )
    } else {
        None
    };
    match cmd {
        "dispatch" => {
            if shards.is_none() {
                return Err("dispatch requires --shards K".to_string());
            }
            if range.is_some() {
                return Err("--range applies to sweep/crossval workers, not dispatch".to_string());
            }
            if retries.is_some() && !spawn {
                return Err("--retries applies to dispatch --spawn \
                     (in-process shards have no worker process to respawn)"
                    .to_string());
            }
        }
        "resume" => {
            if shards.is_some() || spawn || retries.is_some() {
                return Err("--shards/--spawn/--retries apply to dispatch, not resume".to_string());
            }
            if range.is_some() {
                return Err("--range applies to sweep/crossval workers, not resume \
                     (resume derives its own ranges from the partial stream)"
                    .to_string());
            }
        }
        "search" => {
            if shards.is_some() || spawn || retries.is_some() {
                return Err("--shards/--spawn/--retries apply to dispatch, not search".to_string());
            }
            if range.is_some() {
                return Err("--range applies to sweep/crossval workers, not search \
                     (the adaptive driver picks its own cells)"
                    .to_string());
            }
        }
        _ => {
            if shards.is_some() || spawn || retries.is_some() {
                return Err(format!("--shards/--spawn/--retries apply to dispatch, not {cmd}"));
            }
        }
    }
    // Interleaving records with the table on one stream would corrupt both.
    if jsonl.as_deref() == Some("-") {
        quiet = true;
    }
    Ok(Options {
        scenario_path,
        partial_path,
        serial,
        quiet,
        jsonl,
        range,
        shards,
        spawn,
        retries,
        cache,
    })
}

/// Loads the scenario and enforces the crossval two-backend floor
/// (`validate` is false for plain sweeps, which ignore backends).
fn load_scenario(validate: bool, opts: &Options) -> Result<Scenario, LibraError> {
    let mut scenario = Scenario::load(&opts.scenario_path)?;
    if !validate {
        scenario.backends.clear();
    } else if scenario.backends.len() < 2 {
        return Err(LibraError::BadRequest(format!(
            "crossval needs at least two backends; scenario {:?} names {}",
            scenario.name,
            scenario.backends.len()
        )));
    }
    Ok(scenario)
}

/// Exhaustive commands materialize the whole grid, so they keep the
/// point cap even for scenarios whose `"search"` block exempted them
/// from the build-time check — with an error that points at the
/// command built for grids that size.
fn check_exhaustive_cap(
    scenario: &Scenario,
    n_workloads: usize,
    cmd: &str,
) -> Result<(), LibraError> {
    let len = scenario.grid().len(n_workloads);
    if len > Scenario::MAX_GRID_POINTS {
        return Err(LibraError::BadRequest(format!(
            "scenario {:?}: grid has {len} points, over the {} point cap `libra {cmd}` \
             sweeps exhaustively — run `libra search` on it instead",
            scenario.name,
            Scenario::MAX_GRID_POINTS
        )));
    }
    Ok(())
}

/// Opens the `--jsonl` destination (stdout for `-`).
fn jsonl_writer(path: &str) -> Result<Box<dyn Write>, LibraError> {
    Ok(if path == "-" {
        Box::new(std::io::stdout().lock())
    } else {
        Box::new(std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| LibraError::BadRequest(format!("cannot create {path}: {e}")))?,
        ))
    })
}

fn run(validate: bool, opts: &Options) -> Result<i32, CliError> {
    // The shard-crash injection site: a `--range` run is what a spawned
    // shard worker executes, so an armed `dispatch.shard.crash` kills
    // this process abnormally before any output — the wire image of a
    // worker dying — keyed by the spawn-attempt ordinal the dispatcher
    // passed down, so retried attempts deterministically survive.
    if opts.range.is_some() {
        if let Some(injector) = FaultInjector::from_env() {
            let attempt = fault::attempt_from_env();
            if injector.fires(fault::DISPATCH_SHARD_CRASH, attempt) {
                eprintln!(
                    "libra: injected fault: {} (attempt {attempt})",
                    fault::DISPATCH_SHARD_CRASH
                );
                std::process::exit(70);
            }
        }
    }
    let scenario = load_scenario(validate, opts)?;
    let workloads = scenario_workloads(&scenario)?;
    check_exhaustive_cap(&scenario, workloads.len(), if validate { "crossval" } else { "sweep" })?;
    let registry = default_registry();
    let cost_model = CostModel::default();
    let grid_len = scenario.grid().len(workloads.len());
    if let Some(r) = &opts.range {
        // Grid-dependent, so checked here rather than in parse_options:
        // a silently clamped range would emit fewer records than asked.
        if r.end > grid_len {
            return Err(CliError::Usage(format!(
                "--range {}..{} does not fit the grid's {grid_len} points",
                r.start, r.end
            )));
        }
    }
    let mut session = scenario.session(&cost_model);
    if opts.serial {
        session = session.with_mode(ExecMode::Serial);
    }
    if let Some(path) = &opts.cache {
        session = session.with_store(path)?;
    }

    let mut console = (!opts.quiet).then(|| ConsoleTableSink::new(std::io::stdout().lock()));
    let mut jsonl = match &opts.jsonl {
        None => None,
        Some(path) => Some(JsonLinesSink::new(jsonl_writer(path)?)),
    };
    let mut sinks: Vec<&mut dyn ReportSink> = Vec::new();
    if let Some(c) = console.as_mut() {
        sinks.push(c);
    }
    if let Some(j) = jsonl.as_mut() {
        sinks.push(j);
    }

    let range = opts.range.clone().unwrap_or(0..grid_len);
    let report = session
        .run_scenario_range_with_sinks(&scenario, &workloads, &registry, range, &mut sinks)?;
    // Every grid point in range streams one record — failed points included.
    let records = report.sweep.results.len() + report.sweep.errors.len();
    if let Some(j) = jsonl {
        let mut out = j.into_inner();
        out.flush().map_err(|e| LibraError::BadRequest(format!("flushing JSON-lines: {e}")))?;
        if let Some(path) = opts.jsonl.as_deref().filter(|p| *p != "-") {
            eprintln!("libra: wrote {records} records to {path}");
        }
    }
    let (solved, errors) = (report.sweep.results.len(), report.sweep.errors.len());
    flush_and_report(
        &session,
        opts,
        &format!("{records} grid points ({solved} solved, {errors} errors); "),
    )?;
    if validate {
        for line in report.divergence.summary().lines() {
            eprintln!("libra: {line}");
        }
        if !report.divergence.within_tolerance() {
            eprintln!("libra: FAIL — divergence beyond tolerance {}", session.tolerance());
            return Ok(2);
        }
    }
    Ok(0)
}

fn run_search(opts: &Options) -> Result<i32, CliError> {
    // Backends are ignored like `sweep`'s: search prices the design
    // space only, so a search scenario may name zero backends.
    let mut scenario = Scenario::load(&opts.scenario_path)?;
    scenario.backends.clear();
    let workloads = scenario_workloads(&scenario)?;
    let cost_model = CostModel::default();
    let mut session = scenario.session(&cost_model);
    if opts.serial {
        session = session.with_mode(ExecMode::Serial);
    }
    if let Some(path) = &opts.cache {
        session = session.with_store(path)?;
    }

    let mut console = (!opts.quiet).then(|| ConsoleTableSink::new(std::io::stdout().lock()));
    let mut jsonl = match &opts.jsonl {
        None => None,
        Some(path) => Some(JsonLinesSink::new(jsonl_writer(path)?)),
    };
    let mut sinks: Vec<&mut dyn ReportSink> = Vec::new();
    if let Some(c) = console.as_mut() {
        sinks.push(c);
    }
    if let Some(j) = jsonl.as_mut() {
        sinks.push(j);
    }

    let report = search::run_scenario(&session, &scenario, &workloads, &mut sinks)?;
    let records = report.evals;
    if let Some(j) = jsonl {
        let mut out = j.into_inner();
        out.flush().map_err(|e| LibraError::BadRequest(format!("flushing JSON-lines: {e}")))?;
        if let Some(path) = opts.jsonl.as_deref().filter(|p| *p != "-") {
            eprintln!("libra: wrote {records} records to {path}");
        }
    }
    for r in &report.rounds {
        eprintln!(
            "libra: search round {}: {} budgets refined, {} new evals, front size {}",
            r.round, r.budgets_added, r.new_evals, r.front_size
        );
    }
    eprintln!(
        "libra: search evaluated {} of {} nominal grid points ({:.2}%) in {} rounds; \
         front size {} ({} solved, {} errors)",
        report.evals,
        report.nominal_points,
        100.0 * report.coverage(),
        report.rounds.len(),
        report.front().len(),
        report.sweep.results.len(),
        report.sweep.errors.len(),
    );
    flush_and_report(&session, opts, "")?;
    Ok(0)
}

/// Flushes `session`'s store, so a `--cache` file that cannot be written
/// fails the command, then prints the session's `cache:` line after
/// `head` and, with `--cache`, its `store:` line.
fn flush_and_report(session: &Session, opts: &Options, head: &str) -> Result<(), LibraError> {
    session.engine().flush_store()?;
    let stats = session.engine().cache_stats();
    eprintln!(
        "libra: {head}cache: {} solves ({} hits, {} warm-seeded); {} expression builds",
        stats.design_misses, stats.design_hits, stats.warm_seeded, stats.expr_misses,
    );
    if let Some(store) = session.engine().store_stats() {
        let path = opts.cache.as_deref().unwrap_or("?");
        eprintln!("libra: store: {} hits, {} staged (cache file {path})", store.hits, store.staged);
    }
    Ok(())
}

fn run_dispatch(opts: &Options) -> Result<i32, CliError> {
    let scenario = load_scenario(true, opts)?;
    let workloads = scenario_workloads(&scenario)?;
    check_exhaustive_cap(&scenario, workloads.len(), "dispatch")?;
    let registry = default_registry();
    let cost_model = CostModel::default();
    let shards = opts.shards.expect("parse_options requires --shards for dispatch");
    let mut dispatcher = Dispatcher::new(&scenario, shards)?;
    if opts.serial {
        dispatcher = dispatcher.with_mode(ExecMode::Serial);
    }
    if let Some(path) = &opts.cache {
        dispatcher = dispatcher.with_store(path);
    }

    let merged = if opts.spawn {
        let exe = std::env::current_exe()
            .map_err(|e| LibraError::BadRequest(format!("cannot locate own binary: {e}")))?;
        let ranges = dispatcher.ranges(workloads.len());
        let retries = opts.retries.unwrap_or(0);
        // Backoff jitter rides the fault plan's seed when one is armed,
        // so a chaos run's full retry timing is reproducible.
        let backoff_seed = FaultInjector::from_env().map_or(0, |f| f.seed());
        let spawn_shard = |r: &Range<usize>, attempt: u32| -> Result<_, LibraError> {
            let mut args = vec![
                "crossval".to_string(),
                opts.scenario_path.clone(),
                "--jsonl".to_string(),
                "-".to_string(),
                "--range".to_string(),
                format!("{}..{}", r.start, r.end),
            ];
            if let Some(path) = &opts.cache {
                args.push("--cache".to_string());
                args.push(path.clone());
            }
            Command::new(&exe)
                .args(&args)
                .env(fault::ATTEMPT_ENV_VAR, attempt.to_string())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| LibraError::BadRequest(format!("spawning shard worker: {e}")))
        };
        // Fork one `crossval --range` worker per shard, all running
        // concurrently; each streams its records to stdout. Empty tail
        // shards (more shards than points) get no worker: the CLI
        // rejects empty ranges, and there is nothing to run anyway.
        let mut children = Vec::new();
        for r in ranges.iter().filter(|r| !r.is_empty()) {
            children.push((r.clone(), spawn_shard(r, 0)?));
        }
        let mut streams = Vec::with_capacity(children.len());
        for (k, (r, mut child)) in children.into_iter().enumerate() {
            let mut attempt: u32 = 0;
            let stdout = loop {
                let out = child
                    .wait_with_output()
                    .map_err(|e| LibraError::BadRequest(format!("waiting on shard {k}: {e}")))?;
                // Exit 2 is a shard-local divergence verdict; the merged
                // matrix re-judges the whole grid. Exit 1 is the worker's
                // own usage, I/O or scenario error, which a retry would
                // only repeat, so only crashes spend the retry budget.
                let code = out.status.code();
                if matches!(code, Some(0 | 2)) {
                    break out.stdout;
                }
                if code == Some(1) || attempt >= retries {
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    let last = stderr.lines().rfind(|l| !l.trim().is_empty());
                    return Err(CliError::Run(format!(
                        "shard {k} worker failed with status {code:?} (attempt {} of {}): {}",
                        attempt + 1,
                        retries + 1,
                        last.unwrap_or("no message on stderr"),
                    )));
                }
                // A failed attempt's partial stdout is discarded whole;
                // only a clean attempt's stream enters the merge, which
                // is what keeps chaotic runs byte-identical to clean ones.
                attempt += 1;
                let delay = fault::backoff_delay_ms(backoff_seed, attempt, 10, 2_000);
                eprintln!(
                    "libra: shard {k} worker failed with status {code:?}; \
                     retrying ({attempt}/{retries}) in {delay} ms",
                );
                std::thread::sleep(Duration::from_millis(delay));
                child = spawn_shard(&r, attempt)?;
            };
            streams.push(String::from_utf8(stdout).map_err(|e| {
                LibraError::BadRequest(format!("shard {k} wrote non-UTF-8 output: {e}"))
            })?);
        }
        dispatcher.merge_streams(workloads.len(), &streams, &registry)?
    } else {
        dispatcher.run_in_process(&cost_model, &workloads, &registry)?
    };

    if let Some(path) = &opts.jsonl {
        let mut out = jsonl_writer(path)?;
        out.write_all(merged.to_jsonl().as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| LibraError::BadRequest(format!("writing merged JSON-lines: {e}")))?;
        if path != "-" {
            eprintln!("libra: wrote {} merged records to {path}", merged.rows.len());
        }
    }
    let mode = if opts.spawn { "spawned workers" } else { "in-process sessions" };
    eprintln!(
        "libra: dispatch merged {} shards ({mode}) over {} grid points ({} solved, {} errors)",
        shards,
        merged.rows.len(),
        merged.results(),
        merged.errors(),
    );
    for line in merged.divergence.summary().lines() {
        eprintln!("libra: {line}");
    }
    if !merged.within_tolerance() {
        eprintln!("libra: FAIL — divergence beyond tolerance {}", merged.tolerance);
    }
    Ok(merged.exit_code())
}

fn run_resume(opts: &Options) -> Result<i32, CliError> {
    // No two-backend floor: resume re-prices with whatever backend list
    // the scenario names, so a plain sweep stream resumes too.
    let scenario = Scenario::load(&opts.scenario_path)?;
    let workloads = scenario_workloads(&scenario)?;
    check_exhaustive_cap(&scenario, workloads.len(), "resume")?;
    let registry = default_registry();
    let cost_model = CostModel::default();
    let partial_path = opts.partial_path.as_deref().expect("parse_options requires the partial");
    let partial = std::fs::read_to_string(partial_path)
        .map_err(|e| LibraError::BadRequest(format!("cannot read {partial_path}: {e}")))?;
    let rows = partial_records(&partial)?;
    let present = rows.len();
    let mode = if opts.serial { ExecMode::Serial } else { ExecMode::Parallel };
    let merged = resume_rows(
        &scenario,
        &workloads,
        &registry,
        &cost_model,
        rows,
        mode,
        opts.cache.as_deref().map(std::path::Path::new),
    )?;
    // The merged stream replaces the partial file unless --jsonl
    // redirects it (`-` for stdout).
    let dest = opts.jsonl.as_deref().unwrap_or(partial_path);
    let mut out = jsonl_writer(dest)?;
    out.write_all(merged.to_jsonl().as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| LibraError::BadRequest(format!("writing merged JSON-lines: {e}")))?;
    if dest != "-" {
        eprintln!("libra: wrote {} merged records to {dest}", merged.rows.len());
    }
    eprintln!(
        "libra: resume: {present} surviving records, {} re-priced, {} total",
        merged.rows.len() - present,
        merged.rows.len(),
    );
    for line in merged.divergence.summary().lines() {
        eprintln!("libra: {line}");
    }
    if !merged.within_tolerance() {
        eprintln!("libra: FAIL — divergence beyond tolerance {}", merged.tolerance);
    }
    Ok(merged.exit_code())
}

struct ServeOptions {
    addr: String,
    workers: usize,
    queue: usize,
    cache: Option<String>,
    /// Write the bound port here once listening — how scripts (and the
    /// CI smoke job) discover an ephemeral `--addr HOST:0` port.
    port_file: Option<String>,
    /// Per-job wall-clock deadline in seconds (the watchdog).
    job_timeout: Option<f64>,
    /// Failed-point quota: more errored grid points than this fails the
    /// whole job.
    max_failed_points: Option<usize>,
}

fn parse_serve(args: &[String]) -> Result<ServeOptions, String> {
    let defaults = ServerConfig::default();
    let mut addr = "127.0.0.1:8080".to_string();
    let mut workers = defaults.workers;
    let mut queue = defaults.queue_capacity;
    let mut cache = None;
    let mut port_file = None;
    let mut job_timeout = None;
    let mut max_failed_points = None;
    let mut seen: Vec<&str> = Vec::new();
    let mut once = |flag: &'static str| -> Result<(), String> {
        if seen.contains(&flag) {
            return Err(format!("duplicate flag {flag}"));
        }
        seen.push(flag);
        Ok(())
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match a.as_str() {
            "--addr" => {
                once("--addr")?;
                addr = value("--addr")?;
            }
            "--workers" => {
                once("--workers")?;
                let v = value("--workers")?;
                workers = v.parse().map_err(|_| format!("--workers wants a number (got {v:?})"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--queue" => {
                once("--queue")?;
                let v = value("--queue")?;
                queue = v.parse().map_err(|_| format!("--queue wants a number (got {v:?})"))?;
                if queue == 0 {
                    return Err("--queue must be at least 1".to_string());
                }
            }
            "--cache" => {
                once("--cache")?;
                cache = Some(value("--cache")?);
            }
            "--port-file" => {
                once("--port-file")?;
                port_file = Some(value("--port-file")?);
            }
            "--job-timeout" => {
                once("--job-timeout")?;
                let v = value("--job-timeout")?;
                let secs: f64 =
                    v.parse().map_err(|_| format!("--job-timeout wants seconds (got {v:?})"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--job-timeout wants a positive duration (got {v:?})"));
                }
                job_timeout = Some(secs);
            }
            "--max-failed-points" => {
                once("--max-failed-points")?;
                let v = value("--max-failed-points")?;
                max_failed_points = Some(
                    v.parse()
                        .map_err(|_| format!("--max-failed-points wants a number (got {v:?})"))?,
                );
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(ServeOptions { addr, workers, queue, cache, port_file, job_timeout, max_failed_points })
}

fn run_serve(opts: &ServeOptions) -> Result<i32, CliError> {
    // SIGTERM/ctrl-c flip the shutdown flag; `join` then drains.
    install_signal_handlers();
    let config = ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        queue_capacity: opts.queue,
        cache: opts.cache.as_ref().map(PathBuf::from),
        job_timeout: opts.job_timeout.map(Duration::from_secs_f64),
        failed_point_quota: opts.max_failed_points,
        // None = fall back to the LIBRA_FAULT_PLAN environment variable.
        fault_spec: None,
    };
    // The same registry + workload resolver `crossval` runs with, so a
    // served job's records are byte-identical to the local command's.
    let server = Server::start(config, default_registry(), Box::new(scenario_workloads))?;
    let addr = server.addr();
    let cache_note = match &opts.cache {
        Some(path) => format!(", cache {path}"),
        None => String::new(),
    };
    eprintln!(
        "libra: serving on http://{addr} ({} workers, queue capacity {}{cache_note})",
        opts.workers, opts.queue
    );
    if let Some(path) = &opts.port_file {
        std::fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| LibraError::BadRequest(format!("cannot write {path}: {e}")))?;
    }
    server.join()?;
    eprintln!("libra: serve: drained and shut down");
    Ok(0)
}

struct SubmitOptions {
    scenario_path: String,
    url: String,
    /// Records destination; `-` (the default) streams to stdout.
    jsonl: String,
    quiet: bool,
    /// Bound on the wait for the job, in seconds (`None` waits forever).
    timeout: Option<f64>,
}

fn parse_submit(args: &[String]) -> Result<SubmitOptions, String> {
    let mut positionals: Vec<String> = Vec::new();
    let mut url = None;
    let mut jsonl = None;
    let mut quiet = false;
    let mut timeout = None;
    let mut seen: Vec<&str> = Vec::new();
    let mut once = |flag: &'static str| -> Result<(), String> {
        if seen.contains(&flag) {
            return Err(format!("duplicate flag {flag}"));
        }
        seen.push(flag);
        Ok(())
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quiet" => {
                once("--quiet")?;
                quiet = true;
            }
            "--url" => {
                once("--url")?;
                let v = it.next().filter(|v| !v.starts_with("--"));
                url = Some(v.ok_or_else(|| "--url requires a value".to_string())?.clone());
            }
            "--jsonl" => {
                once("--jsonl")?;
                let path = it.next().filter(|p| *p == "-" || !p.starts_with("--"));
                jsonl = Some(path.ok_or_else(|| "--jsonl requires a path".to_string())?.clone());
            }
            "--timeout" => {
                once("--timeout")?;
                let v = it.next().ok_or_else(|| "--timeout requires seconds".to_string())?;
                let secs: f64 =
                    v.parse().map_err(|_| format!("--timeout wants seconds (got {v:?})"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--timeout wants a positive duration (got {v:?})"));
                }
                timeout = Some(secs);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            path => positionals.push(path.to_string()),
        }
    }
    if positionals.len() > 1 {
        return Err(format!("unexpected extra argument {:?}", positionals[1]));
    }
    let scenario_path =
        positionals.into_iter().next().ok_or_else(|| "missing scenario file".to_string())?;
    let url = url.ok_or_else(|| "submit requires --url http://HOST:PORT".to_string())?;
    Ok(SubmitOptions {
        scenario_path,
        url,
        jsonl: jsonl.unwrap_or_else(|| "-".to_string()),
        quiet,
        timeout,
    })
}

fn run_submit(opts: &SubmitOptions) -> Result<i32, CliError> {
    let body = std::fs::read(&opts.scenario_path).map_err(|e| {
        CliError::from(LibraError::BadRequest(format!("cannot read {}: {e}", opts.scenario_path)))
    })?;
    // Ride out a server that is still binding (e.g. a script that
    // starts `serve` and `submit` back to back) — connection-refused
    // submits retry for a short budget; application errors never do.
    let client = ServiceClient::new(&opts.url)?.with_connect_retry(Duration::from_secs(2));
    let (job, position) = client.submit(&body)?;
    if !opts.quiet {
        eprintln!(
            "libra: submitted {job} (queue position {position}) to http://{}",
            client.authority()
        );
    }
    let summary =
        client.wait(&job, Duration::from_millis(25), opts.timeout.map(Duration::from_secs_f64))?;
    let records = client.records(&job)?;
    let mut out = jsonl_writer(&opts.jsonl)?;
    out.write_all(&records)
        .and_then(|()| out.flush())
        .map_err(|e| LibraError::BadRequest(format!("writing served JSON-lines: {e}")))?;
    if !opts.quiet {
        if opts.jsonl != "-" {
            eprintln!("libra: wrote {} served bytes to {}", records.len(), opts.jsonl);
        }
        eprintln!(
            "libra: {job}: {} solved, {} errors; max rel error {:.6}; within tolerance: {}",
            summary.results, summary.errors, summary.max_rel_error, summary.within_tolerance
        );
    }
    Ok(summary.exit_code())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list-backends") => match args.get(1).map(String::as_str) {
            None => {
                for name in default_registry().names() {
                    println!("{name}");
                }
                0
            }
            // The same bytes GET /v1/backends serves, by construction:
            // both print `BackendRegistry::to_json` of the one registry.
            Some("--json") if args.len() == 2 => {
                print!("{}", default_registry().to_json());
                0
            }
            Some(other) => {
                eprintln!("libra list-backends: unexpected argument {other:?}\n\n{USAGE}");
                1
            }
        },
        Some(cmd @ ("serve" | "submit")) => {
            let outcome = if cmd == "serve" {
                parse_serve(&args[1..]).map_err(CliError::Usage).and_then(|o| run_serve(&o))
            } else {
                parse_submit(&args[1..]).map_err(CliError::Usage).and_then(|o| run_submit(&o))
            };
            match outcome {
                Ok(code) => code,
                Err(CliError::Usage(msg)) => {
                    eprintln!("libra {cmd}: {msg}\n\n{USAGE}");
                    1
                }
                Err(CliError::Run(e)) => {
                    eprintln!("libra {cmd}: {e}");
                    1
                }
            }
        }
        Some(cmd @ ("sweep" | "search" | "crossval" | "dispatch" | "resume")) => {
            match parse_options(cmd, &args[1..]) {
                Err(msg) => {
                    eprintln!("libra {cmd}: {msg}\n\n{USAGE}");
                    1
                }
                Ok(opts) => {
                    let outcome = match cmd {
                        "dispatch" => run_dispatch(&opts),
                        "resume" => run_resume(&opts),
                        "search" => run_search(&opts),
                        _ => run(cmd == "crossval", &opts),
                    };
                    match outcome {
                        Ok(code) => code,
                        Err(CliError::Usage(msg)) => {
                            eprintln!("libra {cmd}: {msg}\n\n{USAGE}");
                            1
                        }
                        Err(CliError::Run(e)) => {
                            eprintln!("libra {cmd}: {e}");
                            1
                        }
                    }
                }
            }
        }
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            0
        }
        None => {
            // No command is a usage error: usage to stderr, exit 1 —
            // only an explicit `--help` earns the success exit.
            eprint!("{USAGE}");
            1
        }
        Some(other) => {
            eprintln!("libra: unknown command {other:?}\n\n{USAGE}");
            1
        }
    };
    std::process::exit(code);
}
