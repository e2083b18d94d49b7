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
//!   `dispatch --spawn` passes it on to every worker, as it does
//!   `--cache`.
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
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::str::FromStr;
use std::time::Duration;

use libra_bench::{default_registry, scenario_workloads, search, ExecMode, Scenario};
use libra_core::cost::CostModel;
use libra_core::dispatch::{partial_records, resume_rows, Dispatcher, MergedRun};
use libra_core::fault::{self, FaultInjector};
use libra_core::scenario::{
    ConsoleTableSink, DivergenceMatrix, JsonLinesSink, ReportSink, Session,
};
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

/// A run can fail two ways with exit 1: a usage error (earns the USAGE
/// block on stderr) or a runtime error (does not — repeating the flag
/// grammar at an I/O failure would bury the actual message).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Run(String),
}

impl From<LibraError> for CliError {
    fn from(e: LibraError) -> Self {
        CliError::Run(e.to_string())
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// A run error naming the file an I/O step failed on (`-` is stdout).
fn file_error<'a>(verb: &'a str, path: &'a str) -> impl FnOnce(std::io::Error) -> CliError + 'a {
    move |e| {
        let path = if path == "-" { "stdout" } else { path };
        CliError::Run(format!("cannot {verb} {path}: {e}"))
    }
}

/// A subcommand's flag table: its positional arguments (named as in
/// `USAGE`), its switches, and its flags that take a value.
struct Grammar {
    positionals: &'static [&'static str],
    switches: &'static [&'static str],
    valued: &'static [&'static str],
}

/// One subcommand's arguments, split by [`scan`].
struct Args {
    positionals: Vec<String>,
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<String>)>,
}

/// Splits a subcommand's arguments by its grammar. Every flag may
/// appear at most once: a duplicate is a usage error, not a silent
/// last-one-wins. A value may not start with `--`, but `-` (stdout) is
/// a value.
fn scan(args: &[String], grammar: &Grammar) -> Result<Args, CliError> {
    let mut positionals = Vec::new();
    let mut flags: Vec<(&'static str, Option<String>)> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let known = grammar.switches.iter().chain(grammar.valued).find(|f| **f == arg);
        let Some(&flag) = known else {
            if arg.starts_with("--") {
                return Err(usage(format!("unknown flag {arg:?}")));
            }
            positionals.push(arg.clone());
            continue;
        };
        if flags.iter().any(|(f, _)| *f == flag) {
            return Err(usage(format!("duplicate flag {flag}")));
        }
        let value = if grammar.valued.contains(&flag) {
            let value = it.next().filter(|v| !v.starts_with("--"));
            Some(value.ok_or_else(|| usage(format!("{flag} requires a value")))?.clone())
        } else {
            None
        };
        flags.push((flag, value));
    }
    if let Some(extra) = positionals.get(grammar.positionals.len()) {
        return Err(usage(format!("unexpected extra argument {extra:?}")));
    }
    if let Some(missing) = grammar.positionals.get(positionals.len()) {
        return Err(usage(format!("missing {missing}")));
    }
    Ok(Args { positionals, flags })
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The flag's value parsed as `T`; `what` names the wanted form in
    /// the usage error.
    fn parse<T: FromStr>(&self, flag: &str, what: &str) -> Result<Option<T>, CliError> {
        let parse =
            |v: &str| v.parse().map_err(|_| usage(format!("{flag} wants {what} (got {v:?})")));
        self.value(flag).map(parse).transpose()
    }

    /// A count of at least 1.
    fn positive(&self, flag: &str) -> Result<Option<usize>, CliError> {
        match self.parse(flag, "a number")? {
            Some(0) => Err(usage(format!("{flag} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// A positive number of seconds that a `Duration` can hold.
    fn seconds(&self, flag: &str) -> Result<Option<Duration>, CliError> {
        let positive = |v: &str| {
            let secs = v.parse().ok().and_then(|s| Duration::try_from_secs_f64(s).ok());
            secs.filter(|d| !d.is_zero())
                .ok_or_else(|| usage(format!("{flag} wants a positive duration (got {v:?})")))
        };
        self.value(flag).map(positive).transpose()
    }
}

// Each subcommand's flag table, the grammar `USAGE` shows.
const SCENARIO: &[&str] = &["<SCENARIO.json>"];
const LOCAL: &[&str] = &["--serial", "--quiet"];
const LIST_BACKENDS: Grammar = Grammar { positionals: &[], switches: &["--json"], valued: &[] };
/// `sweep` and `crossval`.
const GRID: Grammar =
    Grammar { positionals: SCENARIO, switches: LOCAL, valued: &["--jsonl", "--range", "--cache"] };
const SEARCH: Grammar =
    Grammar { positionals: SCENARIO, switches: LOCAL, valued: &["--jsonl", "--cache"] };
const DISPATCH: Grammar = Grammar {
    positionals: SCENARIO,
    switches: &["--serial", "--quiet", "--spawn"],
    valued: &["--shards", "--retries", "--jsonl", "--cache"],
};
const RESUME: Grammar = Grammar {
    positionals: &["<SCENARIO.json>", "<PARTIAL.jsonl>"],
    switches: LOCAL,
    valued: &["--jsonl", "--cache"],
};
const SERVE: Grammar = Grammar {
    positionals: &[],
    switches: &[],
    valued: &[
        "--addr",
        "--workers",
        "--queue",
        "--cache",
        "--port-file",
        "--job-timeout",
        "--max-failed-points",
    ],
};
const SUBMIT: Grammar = Grammar {
    positionals: SCENARIO,
    switches: &["--quiet"],
    valued: &["--url", "--jsonl", "--timeout"],
};

fn parse_range(s: &str) -> Result<Range<usize>, CliError> {
    let bad = || usage(format!("--range wants A..B (got {s:?})"));
    let (a, b) = s.split_once("..").ok_or_else(bad)?;
    let start: usize = a.parse().map_err(|_| bad())?;
    let end: usize = b.parse().map_err(|_| bad())?;
    if start > end {
        return Err(usage(format!("--range {s} is reversed (start exceeds end)")));
    }
    if start == end {
        return Err(usage(format!("--range {s} is empty (start equals end)")));
    }
    Ok(start..end)
}

/// Reads and parses the scenario file at `path`.
fn read_scenario(path: &str) -> Result<Scenario, CliError> {
    let text = std::fs::read_to_string(path).map_err(file_error("read", path))?;
    Ok(Scenario::from_json(&text)?)
}

/// Loads the scenario and enforces the crossval two-backend floor
/// (`validate` is false for sweeps and searches, which ignore backends).
fn load_scenario(validate: bool, path: &str) -> Result<Scenario, CliError> {
    let mut scenario = read_scenario(path)?;
    if !validate {
        scenario.backends.clear();
    } else if scenario.backends.len() < 2 {
        return Err(LibraError::BadRequest(format!(
            "crossval needs at least two backends; scenario {:?} names {}",
            scenario.name,
            scenario.backends.len()
        ))
        .into());
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

/// Opens a JSON-lines destination (stdout for `-`).
fn jsonl_writer(path: &str) -> Result<Box<dyn Write>, CliError> {
    Ok(if path == "-" {
        Box::new(std::io::stdout().lock())
    } else {
        Box::new(std::io::BufWriter::new(
            std::fs::File::create(path).map_err(file_error("create", path))?,
        ))
    })
}

/// Writes a whole JSON-lines stream to `path` (stdout for `-`).
fn write_jsonl(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    let mut out = jsonl_writer(path)?;
    out.write_all(bytes).and_then(|()| out.flush()).map_err(file_error("write", path))
}

/// The local session `sweep`, `crossval` and `search` share: the
/// scenario's tolerance with `--serial` and `--cache`, streaming to the
/// console table (unless `--quiet` or `--jsonl -`) and to `--jsonl`.
/// `run` drives the session and returns its report and record count.
/// `summary` prints the command's own report lines and returns the head
/// of the `cache:` line, which follows with the `store:` line.
fn run_local<R>(
    a: &Args,
    scenario: &Scenario,
    run: impl FnOnce(&Session, &mut [&mut dyn ReportSink]) -> Result<(R, usize), LibraError>,
    summary: impl FnOnce(&R) -> String,
) -> Result<R, CliError> {
    let cost_model = CostModel::default();
    let mut session = scenario.session(&cost_model);
    if a.has("--serial") {
        session = session.with_mode(ExecMode::Serial);
    }
    if let Some(path) = a.value("--cache") {
        session = session.with_store(path)?;
    }
    let jsonl_path = a.value("--jsonl");
    // Interleaving records with the table on one stream would corrupt both.
    let quiet = a.has("--quiet") || jsonl_path == Some("-");
    let mut console = (!quiet).then(|| ConsoleTableSink::new(std::io::stdout().lock()));
    let mut jsonl = jsonl_path.map(jsonl_writer).transpose()?.map(JsonLinesSink::new);
    let mut sinks: Vec<&mut dyn ReportSink> = Vec::new();
    if let Some(c) = console.as_mut() {
        sinks.push(c);
    }
    if let Some(j) = jsonl.as_mut() {
        sinks.push(j);
    }

    let (report, records) = run(&session, &mut sinks)?;
    if let (Some(j), Some(path)) = (jsonl, jsonl_path) {
        j.into_inner().flush().map_err(file_error("write", path))?;
        if path != "-" {
            eprintln!("libra: wrote {records} records to {path}");
        }
    }
    let head = summary(&report);
    // A `--cache` file that cannot be written fails the command.
    session.engine().flush_store()?;
    let stats = session.engine().cache_stats();
    eprintln!(
        "libra: {head}cache: {} solves ({} hits, {} warm-seeded); {} expression builds",
        stats.design_misses, stats.design_hits, stats.warm_seeded, stats.expr_misses,
    );
    if let Some(store) = session.engine().store_stats() {
        let path = a.value("--cache").unwrap_or("?");
        eprintln!("libra: store: {} hits, {} staged (cache file {path})", store.hits, store.staged);
    }
    Ok(report)
}

/// Prints a divergence matrix's summary, and a FAIL line when it is
/// beyond `tolerance`; returns the exit code its verdict maps to.
fn judge(divergence: &DivergenceMatrix, tolerance: f64) -> i32 {
    for line in divergence.summary().lines() {
        eprintln!("libra: {line}");
    }
    if divergence.within_tolerance() {
        return 0;
    }
    eprintln!("libra: FAIL — divergence beyond tolerance {tolerance}");
    2
}

/// The tail `dispatch` and `resume` share: writes the merged stream to
/// `dest`, prints `note`, and judges the merged divergence.
fn finish_merged(merged: &MergedRun, dest: Option<&str>, note: &str) -> Result<i32, CliError> {
    if let Some(path) = dest {
        write_jsonl(path, merged.to_jsonl().as_bytes())?;
        if path != "-" {
            eprintln!("libra: wrote {} merged records to {path}", merged.rows.len());
        }
    }
    eprintln!("libra: {note}");
    Ok(judge(&merged.divergence, merged.tolerance))
}

fn list_backends(args: &[String]) -> Result<i32, CliError> {
    let a = scan(args, &LIST_BACKENDS)?;
    let registry = default_registry();
    if a.has("--json") {
        // The same bytes GET /v1/backends serves, by construction:
        // both print `BackendRegistry::to_json` of the one registry.
        print!("{}", registry.to_json());
    } else {
        for name in registry.names() {
            println!("{name}");
        }
    }
    Ok(0)
}

/// `sweep` (the design space only) or `crossval` (`validate`: every
/// point priced under each of the scenario's backends, then judged).
fn run_grid(validate: bool, args: &[String]) -> Result<i32, CliError> {
    let a = scan(args, &GRID)?;
    let range = a.value("--range").map(parse_range).transpose()?;
    // The shard-crash injection site: a `--range` run is what a spawned
    // shard worker executes, so an armed `dispatch.shard.crash` kills
    // this process abnormally before any output — the wire image of a
    // worker dying — keyed by the spawn-attempt ordinal the dispatcher
    // passed down, so retried attempts deterministically survive.
    if range.is_some() {
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
    let scenario = load_scenario(validate, &a.positionals[0])?;
    let workloads = scenario_workloads(&scenario)?;
    check_exhaustive_cap(&scenario, workloads.len(), if validate { "crossval" } else { "sweep" })?;
    let grid_len = scenario.grid().len(workloads.len());
    // Grid-dependent, so checked here rather than by the scan: a
    // silently clamped range would emit fewer records than asked.
    if let Some(r) = range.as_ref().filter(|r| r.end > grid_len) {
        return Err(usage(format!(
            "--range {}..{} does not fit the grid's {grid_len} points",
            r.start, r.end
        )));
    }
    let registry = default_registry();
    let range = range.unwrap_or(0..grid_len);
    let report = run_local(
        &a,
        &scenario,
        |session, sinks| {
            let report = session
                .run_scenario_range_with_sinks(&scenario, &workloads, &registry, range, sinks)?;
            // Every grid point in range streams one record — failed points included.
            let records = report.sweep.results.len() + report.sweep.errors.len();
            Ok((report, records))
        },
        |report| {
            let (solved, errors) = (report.sweep.results.len(), report.sweep.errors.len());
            format!("{} grid points ({solved} solved, {errors} errors); ", solved + errors)
        },
    )?;
    Ok(if validate { judge(&report.divergence, scenario.tolerance) } else { 0 })
}

fn run_search(args: &[String]) -> Result<i32, CliError> {
    let a = scan(args, &SEARCH)?;
    // Backends are ignored like `sweep`'s: search prices the design
    // space only, so a search scenario may name zero backends.
    let scenario = load_scenario(false, &a.positionals[0])?;
    let workloads = scenario_workloads(&scenario)?;
    run_local(
        &a,
        &scenario,
        |session, sinks| {
            let report = search::run_scenario(session, &scenario, &workloads, sinks)?;
            let evals = report.evals;
            Ok((report, evals))
        },
        |report| {
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
            String::new()
        },
    )?;
    Ok(0)
}

fn run_dispatch(args: &[String]) -> Result<i32, CliError> {
    let a = scan(args, &DISPATCH)?;
    let shards = a.positive("--shards")?.ok_or_else(|| usage("dispatch requires --shards K"))?;
    let spawn = a.has("--spawn");
    let retries: u32 = match a.parse("--retries", "a number")? {
        Some(_) if !spawn => {
            return Err(usage(
                "--retries applies to dispatch --spawn \
                 (in-process shards have no worker process to respawn)",
            ))
        }
        n => n.unwrap_or(0),
    };
    let scenario = load_scenario(true, &a.positionals[0])?;
    let workloads = scenario_workloads(&scenario)?;
    check_exhaustive_cap(&scenario, workloads.len(), "dispatch")?;
    let registry = default_registry();
    let mut dispatcher = Dispatcher::new(&scenario, shards)?;
    if a.has("--serial") {
        dispatcher = dispatcher.with_mode(ExecMode::Serial);
    }
    if let Some(path) = a.value("--cache") {
        dispatcher = dispatcher.with_store(path);
    }
    let merged = if spawn {
        let streams = run_workers(&a, &dispatcher.ranges(workloads.len()), retries)?;
        dispatcher.merge_streams(workloads.len(), &streams, &registry)?
    } else {
        dispatcher.run_in_process(&CostModel::default(), &workloads, &registry)?
    };
    let mode = if spawn { "spawned workers" } else { "in-process sessions" };
    let note = format!(
        "dispatch merged {shards} shards ({mode}) over {} grid points ({} solved, {} errors)",
        merged.rows.len(),
        merged.results(),
        merged.errors(),
    );
    finish_merged(&merged, a.value("--jsonl"), &note)
}

/// A spawned shard worker's arguments: `crossval --range` over its
/// shard, streaming records to stdout, with the dispatch's `--serial`
/// and `--cache`.
fn worker_args(a: &Args, r: &Range<usize>) -> Vec<String> {
    let mut args = vec![
        "crossval".to_string(),
        a.positionals[0].clone(),
        "--jsonl".to_string(),
        "-".to_string(),
        "--range".to_string(),
        format!("{}..{}", r.start, r.end),
    ];
    for (flag, value) in a.flags.iter().filter(|(f, _)| matches!(*f, "--serial" | "--cache")) {
        args.push(flag.to_string());
        args.extend(value.clone());
    }
    args
}

/// Forks one worker per shard, all running concurrently, and returns
/// their JSON-lines streams in shard order. Empty tail shards (more
/// shards than points) get no worker: the CLI rejects empty ranges, and
/// there is nothing to run anyway. A crashed worker is respawned up to
/// `retries` times.
fn run_workers(a: &Args, ranges: &[Range<usize>], retries: u32) -> Result<Vec<String>, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Run(format!("cannot locate own binary: {e}")))?;
    // Backoff jitter rides the fault plan's seed when one is armed,
    // so a chaos run's full retry timing is reproducible.
    let backoff_seed = FaultInjector::from_env().map_or(0, |f| f.seed());
    let spawn_worker = |r: &Range<usize>, attempt: u32| {
        Command::new(&exe)
            .args(worker_args(a, r))
            .env(fault::ATTEMPT_ENV_VAR, attempt.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| CliError::Run(format!("cannot spawn {}: {e}", exe.display())))
    };
    let mut children = Vec::new();
    for r in ranges.iter().filter(|r| !r.is_empty()) {
        children.push((r, spawn_worker(r, 0)?));
    }
    let mut streams = Vec::with_capacity(children.len());
    for (k, (r, mut child)) in children.into_iter().enumerate() {
        let mut attempt: u32 = 0;
        let stdout = loop {
            let out = child
                .wait_with_output()
                .map_err(|e| CliError::Run(format!("waiting on shard {k}: {e}")))?;
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
            child = spawn_worker(r, attempt)?;
        };
        let stream = String::from_utf8(stdout)
            .map_err(|e| CliError::Run(format!("shard {k} wrote non-UTF-8 output: {e}")))?;
        streams.push(stream);
    }
    Ok(streams)
}

fn run_resume(args: &[String]) -> Result<i32, CliError> {
    let a = scan(args, &RESUME)?;
    let (scenario_path, partial_path) = (&a.positionals[0], &a.positionals[1]);
    // No two-backend floor: resume re-prices with whatever backend list
    // the scenario names, so a plain sweep stream resumes too.
    let scenario = read_scenario(scenario_path)?;
    let workloads = scenario_workloads(&scenario)?;
    check_exhaustive_cap(&scenario, workloads.len(), "resume")?;
    let partial =
        std::fs::read_to_string(partial_path).map_err(file_error("read", partial_path))?;
    // A malformed record stream is the partial file's fault: name it.
    let in_partial = |e: LibraError| match e {
        LibraError::RecordStream(_) => CliError::Run(format!("{partial_path}: {e}")),
        e => e.into(),
    };
    let rows = partial_records(&partial).map_err(in_partial)?;
    let present = rows.len();
    let mode = if a.has("--serial") { ExecMode::Serial } else { ExecMode::Parallel };
    let merged = resume_rows(
        &scenario,
        &workloads,
        &default_registry(),
        &CostModel::default(),
        rows,
        mode,
        a.value("--cache").map(Path::new),
    )
    .map_err(in_partial)?;
    let note = format!(
        "resume: {present} surviving records, {} re-priced, {} total",
        merged.rows.len() - present,
        merged.rows.len(),
    );
    // The merged stream replaces the partial file unless --jsonl
    // redirects it (`-` for stdout).
    finish_merged(&merged, Some(a.value("--jsonl").unwrap_or(partial_path)), &note)
}

fn run_serve(args: &[String]) -> Result<i32, CliError> {
    let a = scan(args, &SERVE)?;
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: a.value("--addr").unwrap_or("127.0.0.1:8080").to_string(),
        workers: a.positive("--workers")?.unwrap_or(defaults.workers),
        queue_capacity: a.positive("--queue")?.unwrap_or(defaults.queue_capacity),
        cache: a.value("--cache").map(PathBuf::from),
        job_timeout: a.seconds("--job-timeout")?,
        failed_point_quota: a.parse("--max-failed-points", "a number")?,
        // None = fall back to the LIBRA_FAULT_PLAN environment variable.
        fault_spec: None,
    };
    let cache_note = a.value("--cache").map_or(String::new(), |path| format!(", cache {path}"));
    let note =
        format!("{} workers, queue capacity {}{cache_note}", config.workers, config.queue_capacity);
    // SIGTERM/ctrl-c flip the shutdown flag; `join` then drains.
    install_signal_handlers();
    // The same registry + workload resolver `crossval` runs with, so a
    // served job's records are byte-identical to the local command's.
    let server = Server::start(config, default_registry(), Box::new(scenario_workloads))?;
    let addr = server.addr();
    eprintln!("libra: serving on http://{addr} ({note})");
    // Scripts (and the CI smoke job) read an ephemeral `--addr HOST:0`
    // port from here once the server listens.
    if let Some(path) = a.value("--port-file") {
        std::fs::write(path, format!("{}\n", addr.port())).map_err(file_error("write", path))?;
    }
    server.join()?;
    eprintln!("libra: serve: drained and shut down");
    Ok(0)
}

fn run_submit(args: &[String]) -> Result<i32, CliError> {
    let a = scan(args, &SUBMIT)?;
    let url = a.value("--url").ok_or_else(|| usage("submit requires --url http://HOST:PORT"))?;
    // Bounds the wait for the job (unbounded without it).
    let timeout = a.seconds("--timeout")?;
    let quiet = a.has("--quiet");
    let dest = a.value("--jsonl").unwrap_or("-");
    let path = &a.positionals[0];
    let body = std::fs::read(path).map_err(file_error("read", path))?;
    // Ride out a server that is still binding (e.g. a script that
    // starts `serve` and `submit` back to back) — connection-refused
    // submits retry for a short budget; application errors never do.
    let client = ServiceClient::new(url)?.with_connect_retry(Duration::from_secs(2));
    let (job, position) = client.submit(&body)?;
    if !quiet {
        eprintln!(
            "libra: submitted {job} (queue position {position}) to http://{}",
            client.authority()
        );
    }
    let summary = client.wait(&job, Duration::from_millis(25), timeout)?;
    let records = client.records(&job)?;
    write_jsonl(dest, &records)?;
    if !quiet {
        if dest != "-" {
            eprintln!("libra: wrote {} served bytes to {dest}", records.len());
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
    let Some(cmd) = args.first() else {
        // No command is a usage error: usage to stderr, exit 1 —
        // only an explicit `--help` earns the success exit.
        eprint!("{USAGE}");
        std::process::exit(1);
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(0)
        }
        "list-backends" => list_backends(rest),
        "sweep" => run_grid(false, rest),
        "crossval" => run_grid(true, rest),
        "search" => run_search(rest),
        "dispatch" => run_dispatch(rest),
        "resume" => run_resume(rest),
        "serve" => run_serve(rest),
        "submit" => run_submit(rest),
        _ => Err(usage("unknown command")),
    };
    let code = match outcome {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("libra {cmd}: {msg}\n\n{USAGE}");
            1
        }
        Err(CliError::Run(e)) => {
            eprintln!("libra {cmd}: {e}");
            1
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn a_value_may_be_stdout_but_not_a_flag() {
        let a = scan(&words(&["s.json", "--jsonl", "-", "--quiet"]), &GRID).unwrap();
        assert_eq!(a.value("--jsonl"), Some("-"));
        assert!(a.has("--quiet") && !a.has("--serial"));
        let err = scan(&words(&["s.json", "--jsonl", "--quiet"]), &GRID).err();
        assert!(matches!(err, Some(CliError::Usage(m)) if m == "--jsonl requires a value"));
    }

    #[test]
    fn spawned_workers_get_the_dispatch_serial_and_cache_flags() {
        let dispatch = |args: &[&str]| scan(&words(args), &DISPATCH).unwrap();
        let a = dispatch(&["s.json", "--serial", "--shards", "2", "--spawn", "--cache", "c.jsonl"]);
        let want = ["crossval", "s.json", "--jsonl", "-", "--range", "3..7"];
        assert_eq!(
            worker_args(&a, &(3..7)),
            [&want[..], &["--serial", "--cache", "c.jsonl"]].concat()
        );
        let a = dispatch(&["s.json", "--shards", "2", "--spawn"]);
        assert_eq!(worker_args(&a, &(3..7)), want);
    }
}
