//! Integration tests of the `libra` binary's CLI contract: exit codes,
//! usage routing, flag hardening, and the dispatch subcommand's
//! byte-identity with single-process runs.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use libra_bench::{Cosearch, Scenario, SearchConfig};

const LIBRA: &str = env!("CARGO_BIN_EXE_libra");

fn libra(args: &[&str]) -> Output {
    Command::new(LIBRA).args(args).output().expect("libra binary runs")
}

fn ci_small() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/ci_small.json")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("libra-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn unknown_subcommand_prints_usage_to_stderr_and_exits_1() {
    let out = libra(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn no_arguments_is_a_usage_error_not_a_success() {
    let out = libra(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "usage goes to stderr on error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn explicit_help_goes_to_stdout_and_exits_0() {
    for flag in ["--help", "-h", "help"] {
        let out = libra(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"), "{flag}");
    }
}

#[test]
fn unknown_and_duplicate_flags_exit_1() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    for args in [
        ["crossval", scenario, "--bogus", "--quiet"],
        ["crossval", scenario, "--serial", "--serial"],
        ["crossval", scenario, "--quiet", "--quiet"],
    ] {
        let out = libra(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
    }
    // Flag/command mismatches are usage errors too.
    let out = libra(&["dispatch", scenario]);
    assert_eq!(out.status.code(), Some(1), "dispatch without --shards");
    let out = libra(&["sweep", scenario, "--shards", "2"]);
    assert_eq!(out.status.code(), Some(1), "--shards outside dispatch");
    let out = libra(&["dispatch", scenario, "--shards", "2", "--range", "0..2"]);
    assert_eq!(out.status.code(), Some(1), "--range on dispatch");
    let out = libra(&["crossval", scenario, "--range", "0..99"]);
    assert_eq!(out.status.code(), Some(1), "out-of-bounds --range");
}

/// Every subcommand splits its arguments by one grammar: a duplicated
/// flag, an unknown flag and a valued flag with nothing after it are
/// each a usage error whose message names the flag.
#[test]
fn every_subcommand_rejects_duplicate_unknown_and_valueless_flags() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    // (command and its required arguments, a valued flag, a valid value)
    let commands: [(&[&str], &str, &str); 7] = [
        (&["sweep", scenario], "--range", "0..1"),
        (&["search", scenario], "--cache", "c.jsonl"),
        (&["crossval", scenario], "--jsonl", "-"),
        (&["dispatch", scenario], "--shards", "2"),
        (&["resume", scenario, "partial.jsonl"], "--jsonl", "-"),
        (&["serve"], "--port-file", "port.txt"),
        (&["submit", scenario, "--url", "http://127.0.0.1:1"], "--timeout", "1"),
    ];
    for (command, flag, value) in commands {
        for (extra, named) in [
            (&[flag, value, flag, value][..], flag),
            (&["--bogus"][..], "--bogus"),
            (&[flag][..], flag),
        ] {
            let args = [command, extra].concat();
            let out = libra(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains("USAGE"), "{args:?}: {stderr}");
            // The USAGE block lists every flag, so look at the message.
            let message = stderr.lines().next().unwrap_or_default();
            assert!(message.contains(named), "{args:?}: {stderr}");
        }
    }
}

/// The CLI's own file errors, and a malformed partial stream, are run
/// errors that name the file (and the stream's line): exit 1, no USAGE
/// block, and not reported as an invalid design request.
#[test]
fn file_errors_name_the_file_and_are_not_design_requests() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    let missing = tmp("missing.json");
    let missing = missing.to_str().unwrap();
    let out_in_missing_dir = tmp("no-such-jsonl-dir").join("out.jsonl");
    let out_in_missing_dir = out_in_missing_dir.to_str().unwrap();
    // Partial streams whose line 2 is a record with a negative index,
    // and whose line 1 is not JSON, each followed by a good record.
    let golden = std::fs::read_to_string(ci_small().with_file_name("ci_small.golden.jsonl"))
        .expect("the ci_small golden stream");
    let golden: Vec<&str> = golden.lines().collect();
    let doctored = golden[1].replacen("\"index\": 0", "\"index\": -1", 1);
    let bad_index = tmp("bad-index-partial.jsonl");
    std::fs::write(&bad_index, format!("{}\n{doctored}\n{}\n", golden[0], golden[2])).unwrap();
    let bad_index = bad_index.to_str().unwrap();
    let garbage = tmp("garbage-partial.jsonl");
    std::fs::write(&garbage, format!("garbage\n{}\n{}\n", golden[1], golden[2])).unwrap();
    let garbage = garbage.to_str().unwrap();
    // (arguments, what stderr must name)
    let commands: [(&[&str], &[&str]); 7] = [
        (&["crossval", scenario, "--quiet", "--jsonl", out_in_missing_dir], &[out_in_missing_dir]),
        (&["crossval", missing], &[missing]),
        (
            &["dispatch", scenario, "--shards", "2", "--jsonl", out_in_missing_dir],
            &[out_in_missing_dir],
        ),
        (&["resume", scenario, missing], &[missing]),
        (&["resume", scenario, bad_index, "--quiet"], &[bad_index, "line 2"]),
        (&["resume", scenario, garbage, "--quiet"], &[garbage, "line 1"]),
        (&["submit", missing, "--url", "http://127.0.0.1:1"], &[missing]),
    ];
    for (args, names) in commands {
        let out = libra(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        for name in names {
            assert!(stderr.contains(name), "{args:?}: {stderr}");
        }
        assert!(!stderr.contains("USAGE"), "{args:?}: {stderr}");
        assert!(!stderr.contains("invalid design request"), "{args:?}: {stderr}");
    }
}

/// Reversed, empty, and out-of-grid `--range` specs are usage errors:
/// usage to stderr, exit 1, nothing on stdout — never a silent
/// zero-record "success".
#[test]
fn degenerate_ranges_are_usage_errors() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    for (spec, why) in [
        ("5..2", "reversed"),
        ("3..3", "empty"),
        ("0..99", "does not fit"),
        ("..4", "malformed start"),
        ("0..x", "malformed end"),
    ] {
        let out = libra(&["crossval", scenario, "--range", spec, "--quiet"]);
        assert_eq!(out.status.code(), Some(1), "--range {spec} ({why})");
        assert!(out.stdout.is_empty(), "--range {spec}: no records on stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--range"), "--range {spec}: {stderr}");
        assert!(stderr.contains("USAGE"), "--range {spec} earns the usage block: {stderr}");
    }
    // The same specs die identically under sweep.
    let out = libra(&["sweep", scenario, "--range", "3..3", "--quiet"]);
    assert_eq!(out.status.code(), Some(1), "empty range under sweep");
}

/// Two `crossval` runs against the same `--cache` produce byte-identical
/// streams; the second run serves every design from the store (nonzero
/// hits, zero staged) instead of re-solving.
#[test]
fn cache_round_trip_is_byte_identical_with_nonzero_hits() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    let cache = tmp("roundtrip-cache.jsonl");
    let cold = tmp("roundtrip-cold.jsonl");
    let warm = tmp("roundtrip-warm.jsonl");
    let _ = std::fs::remove_file(&cache);

    let out = libra(&[
        "crossval",
        scenario,
        "--jsonl",
        cold.to_str().unwrap(),
        "--quiet",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store: 0 hits"), "cold run misses: {stderr}");

    let out = libra(&[
        "crossval",
        scenario,
        "--jsonl",
        warm.to_str().unwrap(),
        "--quiet",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store: 4 hits, 0 staged"), "warm run hits: {stderr}");
    assert_eq!(
        std::fs::read(&cold).unwrap(),
        std::fs::read(&warm).unwrap(),
        "warm-from-disk stream must be byte-identical"
    );
}

/// A cache truncated mid-record still serves its valid prefix: the run
/// succeeds, re-solves only what the truncation destroyed, and the
/// output stays byte-identical.
#[test]
fn truncated_cache_serves_its_valid_prefix() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    let cache = tmp("corrupt-cache.jsonl");
    let cold = tmp("corrupt-cold.jsonl");
    let warm = tmp("corrupt-warm.jsonl");
    let _ = std::fs::remove_file(&cache);

    let out = libra(&[
        "crossval",
        scenario,
        "--jsonl",
        cold.to_str().unwrap(),
        "--quiet",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));

    // Tear the last record mid-line, the way a killed writer would.
    let bytes = std::fs::read(&cache).unwrap();
    std::fs::write(&cache, &bytes[..bytes.len() - 25]).unwrap();

    let out = libra(&[
        "crossval",
        scenario,
        "--jsonl",
        warm.to_str().unwrap(),
        "--quiet",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "torn cache must not abort the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store: 3 hits, 1 staged"), "valid prefix serves: {stderr}");
    assert_eq!(
        std::fs::read(&cold).unwrap(),
        std::fs::read(&warm).unwrap(),
        "recovery must not change the stream"
    );
}

/// A `--cache` file that cannot be written fails every command that
/// runs its sessions in-process: exit 1, an error naming the file, and
/// no file. A spawned shard worker fails the same way, and its dispatch
/// passes the worker's error on at once instead of retrying it.
#[test]
fn an_unwritable_cache_fails_the_command_and_names_the_file() {
    let scenario = ci_small();
    let golden = std::fs::read_to_string(scenario.with_file_name("ci_small.golden.jsonl")).unwrap();
    let search = scenario.with_file_name("search_small.json");
    let (scenario, search) = (scenario.to_str().unwrap(), search.to_str().unwrap());
    let partial = tmp("unwritable-partial.jsonl");
    let partial = partial.to_str().unwrap();
    let cache = tmp("no-such-dir").join("solves.jsonl");
    let cache = cache.to_str().unwrap();
    let commands: [&[&str]; 6] = [
        &["crossval", scenario],
        &["sweep", scenario],
        &["search", search],
        &["dispatch", scenario, "--shards", "2"],
        &["dispatch", scenario, "--shards", "2", "--spawn", "--retries", "2"],
        &["resume", scenario, partial, "--jsonl", "-"],
    ];
    for command in commands {
        let kept: String = golden.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(partial, kept).unwrap();
        let out = libra(&[command, &["--quiet", "--cache", cache]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {stderr}");
        let named = format!("solve cache {cache}: cannot write");
        assert!(stderr.contains(&named), "{command:?}: {stderr}");
        assert!(!stderr.contains("retrying"), "{command:?}: {stderr}");
    }
    assert!(!Path::new(cache).exists());
}

/// `libra resume` completes an interrupted stream in place,
/// byte-identical to the uninterrupted run, pricing only the missing
/// tail.
#[test]
fn resume_completes_a_truncated_stream_in_place() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    let full = tmp("resume-full.jsonl");
    let out = libra(&["crossval", scenario, "--jsonl", full.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(0));
    let want = std::fs::read_to_string(&full).unwrap();

    // Keep the header + first record, plus a torn second record.
    let partial = tmp("resume-partial.jsonl");
    let keep: Vec<&str> = want.lines().take(2).collect();
    std::fs::write(&partial, format!("{}\n{{\"index\": 1, \"sha", keep.join("\n"))).unwrap();

    let out = libra(&["resume", scenario, partial.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resume: 1 surviving records, 3 re-priced"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&partial).unwrap(),
        want,
        "resumed stream must be byte-identical to the uninterrupted run"
    );

    // Resume is idempotent: a complete stream re-emits unchanged.
    let out = libra(&["resume", scenario, partial.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read_to_string(&partial).unwrap(), want);

    // Usage hardening: resume wants exactly two positionals and no
    // sharding/range flags.
    let out = libra(&["resume", scenario, "--quiet"]);
    assert_eq!(out.status.code(), Some(1), "resume without the partial file");
    let out = libra(&["resume", scenario, partial.to_str().unwrap(), "--range", "0..2"]);
    assert_eq!(out.status.code(), Some(1), "--range on resume");
    let out = libra(&["resume", scenario, partial.to_str().unwrap(), "--shards", "2"]);
    assert_eq!(out.status.code(), Some(1), "--shards on resume");
}

/// `dispatch --shards K` merges back byte-identically to the
/// single-process `crossval --jsonl` stream, with the same exit code,
/// in both in-process and `--spawn` modes — also for a scenario whose
/// `"cosearch"` block adds one workload per TP degree to the grid.
#[test]
fn dispatch_is_byte_identical_to_single_process_crossval() {
    let mut cosearch = Scenario::load(ci_small()).unwrap();
    cosearch.search = Some(SearchConfig {
        cosearch: Some(Cosearch { model: "GPT-3".into(), tp: vec![8, 16], global_batch: 4096 }),
        ..SearchConfig::default()
    });
    let cosearch_path = tmp("cosearch.json");
    cosearch.save(&cosearch_path).unwrap();
    for (name, scenario) in [("ci_small", ci_small()), ("cosearch", cosearch_path)] {
        let scenario = scenario.to_str().unwrap();
        let single = tmp(&format!("single-{name}.jsonl"));
        let out = libra(&["crossval", scenario, "--jsonl", single.to_str().unwrap(), "--quiet"]);
        assert_eq!(out.status.code(), Some(0), "{name}");
        let want = std::fs::read(&single).unwrap();
        for shards in ["1", "3"] {
            for spawn in [false, true] {
                let merged = tmp(&format!("merged-{name}-{shards}-{spawn}.jsonl"));
                let mut args = vec![
                    "dispatch",
                    scenario,
                    "--shards",
                    shards,
                    "--jsonl",
                    merged.to_str().unwrap(),
                    "--quiet",
                ];
                if spawn {
                    args.push("--spawn");
                }
                let out = libra(&args);
                assert_eq!(out.status.code(), Some(0), "{name} shards={shards} spawn={spawn}");
                let got = std::fs::read(&merged).unwrap();
                assert_eq!(
                    got, want,
                    "{name} shards={shards} spawn={spawn} must merge byte-identically"
                );
            }
        }
    }
}

/// At tolerance zero the backends' genuine disagreement trips the
/// divergence verdict: `crossval` and `dispatch` (both modes) all exit 2,
/// keeping the merged exit code identical to the single-process one.
#[test]
fn dispatch_and_crossval_agree_on_the_exit_2_verdict() {
    let mut scenario = Scenario::load(ci_small()).unwrap();
    scenario.tolerance = 0.0;
    let strict = tmp("strict.json");
    scenario.save(&strict).unwrap();
    let strict = strict.to_str().unwrap();

    let single = libra(&["crossval", strict, "--quiet"]);
    assert_eq!(single.status.code(), Some(2), "ci_small diverges at tolerance 0");
    for spawn in [false, true] {
        let mut args = vec!["dispatch", strict, "--shards", "2", "--quiet"];
        if spawn {
            args.push("--spawn");
        }
        let out = libra(&args);
        assert_eq!(out.status.code(), Some(2), "spawn={spawn}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("FAIL"), "spawn={spawn}: {stderr}");
    }
}

/// The headline chaos contract: `dispatch --spawn --retries` with
/// deterministically injected shard crashes (every spawn attempt 0
/// exits abnormally; attempt 1 survives) merges **byte-identical** to a
/// clean unsharded run — failed attempts' partial output never leaks
/// into the merge. Exhausted retries are a hard, diagnosable failure,
/// and `--retries` without `--spawn` is a usage error.
#[test]
fn dispatch_with_injected_shard_crashes_retries_to_byte_identity() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    let single = tmp("chaos-single.jsonl");
    let out = libra(&["crossval", scenario, "--jsonl", single.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(0));
    let want = std::fs::read(&single).unwrap();

    // `dispatch.shard.crash=#1` keys on the spawn-attempt ordinal the
    // dispatcher hands each child: attempt 0 always crashes (exit 70),
    // the respawned attempt 1 runs clean.
    let merged = tmp("chaos-merged.jsonl");
    let out = Command::new(LIBRA)
        .args(["dispatch", scenario, "--shards", "2", "--spawn", "--retries", "2"])
        .args(["--jsonl", merged.to_str().unwrap(), "--quiet"])
        .env("LIBRA_FAULT_PLAN", "seed=7;dispatch.shard.crash=#1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("retrying (1/2)"), "the crash is visible, not silent: {stderr}");
    assert_eq!(
        std::fs::read(&merged).unwrap(),
        want,
        "a chaotic run with retries must merge byte-identically to a clean unsharded run"
    );

    // `#3` outlives a budget of 1 retry: attempts 0 and 1 both crash
    // and the dispatch fails with the shard named.
    let out = Command::new(LIBRA)
        .args(["dispatch", scenario, "--shards", "2", "--spawn", "--retries", "1", "--quiet"])
        .env("LIBRA_FAULT_PLAN", "seed=7;dispatch.shard.crash=#3")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("worker failed with status"), "{stderr}");
    assert!(stderr.contains("attempt 2 of 2"), "{stderr}");

    // Without a fault plan, `--retries` changes nothing: same bytes.
    let calm = tmp("chaos-calm.jsonl");
    let out = libra(&[
        "dispatch",
        scenario,
        "--shards",
        "2",
        "--spawn",
        "--retries",
        "3",
        "--jsonl",
        calm.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(std::fs::read(&calm).unwrap(), want);

    // `--retries` is meaningless without a worker process to respawn.
    let out = libra(&["dispatch", scenario, "--shards", "2", "--retries", "1"]);
    assert_eq!(out.status.code(), Some(1), "--retries without --spawn");
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// Kill-9 crash consistency: a `crossval --cache` child SIGKILLed
/// mid-run (no destructors, no flushes) leaves whatever it leaves — the
/// store must heal on reload, and `libra resume` must complete the
/// interrupted stream in place, byte-identical to an uninterrupted run.
#[test]
fn sigkill_mid_run_heals_the_store_and_resumes_byte_identically() {
    use libra_core::store::SolveStore;

    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();
    let full = tmp("kill9-full.jsonl");
    let out = libra(&["crossval", scenario, "--jsonl", full.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(0));
    let want = std::fs::read(&full).unwrap();

    // Seed the cache with a prefix of the grid so the killed run's
    // store has real content the reload must preserve.
    let cache = tmp("kill9-cache.jsonl");
    let _ = std::fs::remove_file(&cache);
    let prefix = tmp("kill9-prefix.jsonl");
    let out = libra(&[
        "crossval",
        scenario,
        "--range",
        "0..2",
        "--jsonl",
        prefix.to_str().unwrap(),
        "--quiet",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));

    // Every point sleeps 600 ms, so a kill at 300 ms is always mid-run.
    let partial = tmp("kill9-partial.jsonl");
    let _ = std::fs::remove_file(&partial);
    let mut child = Command::new(LIBRA)
        .args(["crossval", scenario, "--jsonl", partial.to_str().unwrap(), "--quiet"])
        .args(["--cache", cache.to_str().unwrap()])
        .env("LIBRA_FAULT_PLAN", "sweep.point.slow=1,ms=600")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    child.kill().unwrap(); // SIGKILL: the hardest possible interrupt
    child.wait().unwrap();

    // The store heals on reload: the seeded prefix survives whatever
    // tear the kill left behind.
    let store = SolveStore::open(&cache).unwrap();
    assert!(store.len() >= 2, "seeded solves must survive the kill, got {}", store.len());
    drop(store);

    // `resume` completes the interrupted stream in place (the killed
    // child may have written nothing, a header, or a torn tail — all
    // are valid prefixes), byte-identical to the uninterrupted run.
    if !partial.exists() {
        std::fs::write(&partial, "").unwrap();
    }
    let out = libra(&[
        "resume",
        scenario,
        partial.to_str().unwrap(),
        "--quiet",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&partial).unwrap(),
        want,
        "post-kill resume must reproduce the uninterrupted stream byte for byte"
    );
}

/// Waits for a `libra serve --port-file` to name its port: the file
/// appears once the listener is bound.
fn wait_for_port(port_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(s) = std::fs::read_to_string(port_file) {
            if s.ends_with('\n') {
                return s.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "serve never wrote its port file");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A spawned `libra serve`, killed and reaped when dropped, so a failing
/// assertion does not leave a server running that holds the test's
/// stdout.
struct ServeChild(Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `serve` + `submit` end to end, against the real binary over a real
/// socket: submissions stream back byte-identical to the checked-in
/// goldens (ci_small and the full design-space sweep), repeat
/// submissions hit the shared store, `list-backends --json` and
/// `GET /v1/backends` serve the same bytes, and a graceful shutdown
/// flushes the store so a warm local `crossval --cache` run stays
/// byte-identical.
#[test]
fn serve_and_submit_round_trip_matches_goldens_and_shares_the_store() {
    use libra_server::ServiceClient;

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let ci_small = root.join("ci_small.json");
    let dss = root.join("design_space_sweep.json");
    let ci_small_golden = std::fs::read(root.join("ci_small.golden.jsonl")).unwrap();
    let dss_golden = std::fs::read(root.join("design_space_sweep.golden.jsonl")).unwrap();

    let cache = tmp("serve-cache.jsonl");
    let port_file = tmp("serve-port.txt");
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&port_file);

    let mut server = ServeChild(
        Command::new(LIBRA)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--cache", cache.to_str().unwrap()])
            .args(["--port-file", port_file.to_str().unwrap()])
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve child spawns"),
    );

    let url = format!("http://127.0.0.1:{}", wait_for_port(&port_file));

    let submit = |scenario: &Path, dest: &Path| -> Output {
        libra(&[
            "submit",
            scenario.to_str().unwrap(),
            "--url",
            &url,
            "--jsonl",
            dest.to_str().unwrap(),
        ])
    };

    // Twice, so the second run prices entirely from the shared store.
    let out1 = tmp("serve-out1.jsonl");
    let out2 = tmp("serve-out2.jsonl");
    for (k, dest) in [(1, &out1), (2, &out2)] {
        let out = submit(&ci_small, dest);
        assert_eq!(out.status.code(), Some(0), "submit #{k}: {:?}", out);
        assert_eq!(
            std::fs::read(dest).unwrap(),
            ci_small_golden,
            "served records #{k} must match the crossval golden byte for byte"
        );
    }

    let client = ServiceClient::new(&url).unwrap();
    let stats = String::from_utf8(client.get("/v1/stats").unwrap().body).unwrap();
    assert!(!stats.contains("\"store_hits\": 0,"), "second run must hit the store: {stats}");
    assert!(!stats.contains("\"store_hits\": null"), "cache is attached: {stats}");

    // The CLI listing and the endpoint are the same bytes by
    // construction — pin it.
    let backends = client.get("/v1/backends").unwrap().body;
    assert_eq!(libra(&["list-backends", "--json"]).stdout, backends);

    // The full design-space sweep (80 points, three backends) served
    // byte-identically to its golden.
    let out3 = tmp("serve-out3.jsonl");
    let out = submit(&dss, &out3);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(std::fs::read(&out3).unwrap(), dss_golden);

    // Graceful shutdown drains and flushes the store...
    assert_eq!(client.post("/v1/shutdown", b"").unwrap().status, 200);
    let status = server.0.wait().expect("serve child exits");
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");

    // ...so a warm local run prices everything from it, byte-identically.
    let warm = tmp("serve-warm.jsonl");
    let out = libra(&[
        "crossval",
        ci_small.to_str().unwrap(),
        "--jsonl",
        warm.to_str().unwrap(),
        "--quiet",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("store: 4 hits, 0 staged"), "warm from served cache: {stderr}");
    assert_eq!(std::fs::read(&warm).unwrap(), ci_small_golden);
}

/// SIGTERM is the one shutdown trigger where nothing connects to the
/// server, so it pins `Server::join`'s poll: on a wildcard bind the
/// signal must still wake the blocked accept loop, drain, and exit 0
/// with the drain sentinel, after serving golden-identical records.
#[test]
fn sigterm_drains_a_wildcard_bound_server_and_exits_0() {
    let golden = std::fs::read(ci_small().with_file_name("ci_small.golden.jsonl")).unwrap();
    let cache = tmp("sigterm-cache.jsonl");
    let port_file = tmp("sigterm-port.txt");
    let _ = std::fs::remove_file(&cache);
    let _ = std::fs::remove_file(&port_file);

    let mut server = ServeChild(
        Command::new(LIBRA)
            .args(["serve", "--addr", "0.0.0.0:0"])
            .args(["--cache", cache.to_str().unwrap()])
            .args(["--port-file", port_file.to_str().unwrap()])
            .stderr(Stdio::piped())
            .spawn()
            .expect("serve child spawns"),
    );
    let url = format!("http://127.0.0.1:{}", wait_for_port(&port_file));

    let records = tmp("sigterm-out.jsonl");
    let out = libra(&[
        "submit",
        ci_small().to_str().unwrap(),
        "--url",
        &url,
        "--jsonl",
        records.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(std::fs::read(&records).unwrap(), golden, "served records match the golden");

    let kill = Command::new("kill").args(["-TERM", &server.0.id().to_string()]).status();
    assert!(kill.expect("kill runs").success());
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("polling the serve child") {
            break status;
        }
        assert!(Instant::now() < deadline, "serve did not exit within 10 s of SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    server.0.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0: {stderr}");
    assert!(stderr.contains("drained and shut down"), "{stderr}");
}

/// `submit`'s failure modes are exit 1 with pointed messages: missing
/// `--url`, a server that is not there, and flag typos.
#[test]
fn submit_usage_and_transport_errors_exit_1() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();

    let out = libra(&["submit", scenario]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--url"), "{stderr}");
    assert!(stderr.contains("USAGE"), "missing --url is a usage error: {stderr}");

    // Nothing listens on a freshly-bound-then-dropped port.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let out = libra(&["submit", scenario, "--url", &format!("http://127.0.0.1:{port}")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("USAGE"), "transport errors skip the usage block: {stderr}");

    let rejected: [&[&str]; 4] = [
        &["submit", scenario, "--url", "https://127.0.0.1:1"],
        &["submit", scenario, "--bogus", "x"],
        &["serve", "--workers", "0"],
        &["serve", scenario, "--queue", "1"],
    ];
    for args in rejected {
        let out = libra(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
    }
}

#[test]
fn search_streams_a_reparseable_run_and_replays_serially() {
    let scenario = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/search_small.json");
    let scenario = scenario.to_str().unwrap();
    let jsonl = tmp("search_small.jsonl");
    let jsonl_serial = tmp("search_small_serial.jsonl");

    let out = libra(&["search", scenario, "--jsonl", jsonl.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stream = std::fs::read_to_string(&jsonl).unwrap();
    let rows = libra_core::scenario::records_from_jsonl(&stream).unwrap();
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.error.is_none()), "healthy scenario, healthy rows");

    // The search block caps nothing here, so the driver walks the whole
    // 50-point grid; the serial fold streams the same bytes.
    let out = libra(&[
        "search",
        scenario,
        "--serial",
        "--jsonl",
        jsonl_serial.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stream, std::fs::read_to_string(&jsonl_serial).unwrap(), "parallel ≡ serial bytes");

    // The stream prints every design to the bit, so a solver change that
    // moves one fails here, not only in CI's search smoke.
    let golden = Path::new(scenario).with_file_name("search_small.golden.jsonl");
    assert_eq!(stream, std::fs::read_to_string(golden).unwrap(), "golden bytes");
}

/// `"refine_radius": 1e20` parses to `usize::MAX`; refining around a
/// front member saturates at the axis end instead of overflowing (a
/// debug-build panic, a wrong-side refinement in release), so it streams
/// what the largest useful radius, the axis length minus one, streams.
#[test]
fn huge_refine_radius_streams_what_the_axis_wide_radius_streams() {
    let scenario = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/search_small.json");
    let text = std::fs::read_to_string(scenario).unwrap();
    let stream = |radius: &str| {
        let edited =
            text.replacen("\"refine_radius\": 1", &format!("\"refine_radius\": {radius}"), 1);
        assert_ne!(edited, text, "the radius was edited in");
        let path = tmp(&format!("search_small_radius_{radius}.json"));
        std::fs::write(&path, edited).unwrap();
        let out = libra(&["search", path.to_str().unwrap(), "--jsonl", "-", "--quiet"]);
        assert!(out.status.success(), "{radius}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    // search_small's budget axis has 25 entries.
    assert_eq!(stream("1e20"), stream("24"));
}

#[test]
fn search_requires_a_search_block_and_rejects_range() {
    let scenario = ci_small();
    let scenario = scenario.to_str().unwrap();

    let out = libra(&["search", scenario, "--quiet"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no \"search\" block"), "{stderr}");

    let out = libra(&["search", scenario, "--range", "0..2"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--range"), "{stderr}");
}

#[test]
fn over_cap_scenario_fails_exhaustive_commands_but_search_completes() {
    let scenario = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/search_huge.json");
    let scenario = scenario.to_str().unwrap();

    // 13.2M nominal points: every exhaustive command refuses, naming
    // the cap and the way out.
    for cmd in ["crossval", "sweep"] {
        let out = libra(&[cmd, scenario, "--quiet"]);
        assert_eq!(out.status.code(), Some(1), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("point cap"), "{cmd}: {stderr}");
        assert!(stderr.contains("libra search"), "{cmd}: {stderr}");
    }
    let out = libra(&["dispatch", scenario, "--shards", "2", "--quiet"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("point cap"));

    // The adaptive driver prices a bounded number of its cells.
    let jsonl = tmp("search_huge.jsonl");
    let out = libra(&["search", scenario, "--jsonl", jsonl.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stream = std::fs::read_to_string(&jsonl).unwrap();
    assert!(stream.contains("\"points\": 13200000"), "header carries the nominal grid size");
    let rows = libra_core::scenario::records_from_jsonl(&stream).unwrap();
    assert!(!rows.is_empty());
    assert!(rows.len() <= 96, "max_evals bounds the run: {} evals", rows.len());
}
