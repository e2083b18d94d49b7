//! Command line of the benchmark program (normally started by `run.py`):
//!
//! ```text
//! perfbench reference --workload W --scenario PATH --out PATH --work-dir DIR
//! perfbench run --workload W --scenario PATH --probe-scenario PATH --reference PATH
//!               --seconds S --trace 0|1 --seed N --work-dir DIR [--spans PATH]
//! ```
//!
//! `reference` writes the serial-mode output bytes for the scenario.
//! `run` prints a plain-language summary on stderr and the result line
//! (`{"correct", "attempted", "failed", "metrics"}`) as the last line of
//! stdout.

use std::collections::HashMap;
use std::path::PathBuf;

use perfbench::{RunConfig, Workload, ENGINE_THREADS};

/// The flags each command takes.
fn known_flags(cmd: &str) -> Option<&'static [&'static str]> {
    match cmd {
        "reference" => Some(&["workload", "scenario", "out", "work-dir"]),
        "run" => Some(&[
            "workload",
            "scenario",
            "probe-scenario",
            "reference",
            "seconds",
            "trace",
            "seed",
            "work-dir",
            "spans",
        ]),
        _ => None,
    }
}

fn parse(args: &[String]) -> Result<(String, HashMap<String, String>), String> {
    let (cmd, rest) = args.split_first().ok_or("missing command (reference or run)")?;
    let known = known_flags(cmd).ok_or_else(|| format!("unknown command {cmd:?}"))?;
    let mut flags = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if !known.contains(&key) {
            return Err(format!("{cmd} takes no flag {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("duplicate flag {flag}"));
        }
    }
    Ok((cmd.clone(), flags))
}

fn main() {
    // The engine's thread count: the CLI's parallel mode, at most two threads.
    std::env::set_var("RAYON_NUM_THREADS", ENGINE_THREADS);
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = real_main(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn real_main(args: &[String]) -> Result<(), String> {
    let (cmd, flags) = parse(args)?;
    let get = |k: &str| flags.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let scenario = PathBuf::from(get("scenario")?);
    let work_dir = PathBuf::from(get("work-dir")?);
    match cmd.as_str() {
        "reference" => {
            let bytes = perfbench::reference(workload, &scenario, &work_dir)
                .map_err(|e| format!("reference run failed: {e}"))?;
            std::fs::write(get("out")?, bytes).map_err(|e| format!("cannot write reference: {e}"))
        }
        "run" => {
            let reference_path = get("reference")?;
            let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
            let config = RunConfig {
                workload,
                scenario,
                probe_scenario: PathBuf::from(get("probe-scenario")?),
                reference: std::fs::read(&reference_path)
                    .map_err(|e| format!("cannot read {reference_path}: {e}"))?,
                seconds,
                trace: get("trace")? == "1",
                work_dir,
                fault: None,
                seed: get("seed")?.parse().map_err(|_| "bad --seed".to_string())?,
            };
            let report = perfbench::run(&config).map_err(|e| e.to_string())?;
            eprint!("{}", perfbench::describe(&config, &report));
            if let (Some(path), Some(spans)) = (flags.get("spans"), &report.spans_json) {
                std::fs::write(path, spans).map_err(|e| format!("cannot write spans: {e}"))?;
            }
            println!("{}", report.to_json());
            Ok(())
        }
        _ => unreachable!("parse accepts only the commands known_flags names"),
    }
}
