#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its result line.

    python3 perfbench/run.py --workload crossval_cold --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. The script

1. builds the benchmark program (a Cargo package of its own in this
   directory) into $CARGO_TARGET_DIR (default `.bench_build`);
2. makes the seeded inputs: seed 0 feeds the committed scenario files
   verbatim, other seeds move budget values only (axis sizes, shapes and
   models stay the same);
3. picks the reference bytes: the committed golden stream for
   `crossval_cold` and `serve_warm` on seed 0; otherwise a serial-mode run
   made in a separate process before the timed run, which for
   `search_huge` on seed 0 must also match the committed digest;
4. runs the workload for `--seconds` (the seed also draws the served
   client's think times) and prints the program's result line,
   `{"correct", "attempted", "failed", "metrics"}`, as the last line of
   stdout. `--trace 0` reports the end-to-end metrics, `--trace 1` the
   per-layer ones (and writes the spans next to the build).

Exit codes: 0 with a result line; 2 without one (incomplete checkout,
failed build, failed reference or run).
"""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("crossval_cold", "search_huge", "serve_warm")
DEFAULT_SEED = 0
SCENARIO = {
    "crossval_cold": "design_space_sweep",
    "search_huge": "search_huge",
    "serve_warm": "design_space_sweep",
}
GOLDEN = os.path.join(ROOT, "scenarios", "design_space_sweep.golden.jsonl")
SEARCH_DIGEST = os.path.join(HERE, "search_huge.sha256")
REQUIRED = [
    "Cargo.toml",
    "crates/bench/Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/server/Cargo.toml",
    "scenarios/design_space_sweep.json",
    "scenarios/design_space_sweep.golden.jsonl",
    "scenarios/search_huge.json",
]
# Every run must end within 180 s; leave room for the reference run.
RUN_TIMEOUT_S = 150
REFERENCE_TIMEOUT_S = 20


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark program failed")
    return os.path.join(target_dir, "release", "perfbench")


def jitter_budgets(budgets, rng):
    """Moves budget values, keeping their count and order."""
    if isinstance(budgets, dict):
        # An axis spec: shift both ends by up to 0.1% of the span.
        reach = (budgets["to"] - budgets["from"]) // 1000
        moved = dict(budgets)
        moved["from"] = budgets["from"] + rng.randint(-reach, reach)
        moved["to"] = budgets["to"] + rng.randint(-reach, reach)
        return moved
    # A list: move each value by up to 10% of the smallest gap, so the
    # values stay distinct and in order.
    ordered = sorted(budgets)
    reach = min(b - a for a, b in zip(ordered, ordered[1:])) // 10
    return [b + rng.randint(-reach, reach) for b in budgets]


def make_input(name, seed, out_dir):
    """Writes the seed's copy of scenarios/<name>.json and returns its path."""
    with open(os.path.join(ROOT, "scenarios", name + ".json"), "rb") as f:
        raw = f.read()
    if seed != DEFAULT_SEED:
        doc = json.loads(raw)
        doc["budgets"] = jitter_budgets(doc["budgets"], random.Random(f"{name}:{seed}"))
        raw = (json.dumps(doc, indent=2) + "\n").encode()
    path = os.path.join(out_dir, f"{name}.seed{seed}.json")
    with open(path, "wb") as f:
        f.write(raw)
    return path


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def reference(binary, workload, scenario, seed, work_dir):
    """Returns the reference stream's path and whether it passed its digest check."""
    if seed == DEFAULT_SEED and workload != "search_huge":
        return GOLDEN, True
    out = os.path.join(work_dir, f"{workload}.seed{seed}.reference.jsonl")
    cmd = [binary, "reference", "--workload", workload, "--scenario", scenario,
           "--out", out, "--work-dir", work_dir]
    try:
        code = subprocess.run(cmd, timeout=REFERENCE_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    if code != 0:
        fail("the reference run failed")
    if seed == DEFAULT_SEED:
        with open(SEARCH_DIGEST) as f:
            want = f.read().split()[0]
        got = sha256(out)
        if got != want:
            print(f"perfbench: search_huge output digest {got} differs from {want}",
                  file=sys.stderr)
            return out, False
    return out, True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail(f"not a complete source checkout; missing {', '.join(missing)}")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target_dir)
    work_dir = os.path.join(target_dir, "perfbench-work", args.workload)
    os.makedirs(work_dir, exist_ok=True)

    scenario = make_input(SCENARIO[args.workload], args.seed, work_dir)
    probe = make_input("design_space_sweep", args.seed, work_dir)
    ref, digest_ok = reference(binary, args.workload, scenario, args.seed, work_dir)

    spans = os.path.join(work_dir, f"spans.seed{args.seed}.json")
    cmd = [binary, "run", "--workload", args.workload, "--scenario", scenario,
           "--probe-scenario", probe, "--reference", ref, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--seed", str(args.seed), "--work-dir", work_dir,
           "--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("the run failed")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"the run printed no result line: {lines[-1]!r}")
    if not digest_ok:
        result["correct"] = False
        result["failed"] = result["attempted"]
        if "ok_frac" in result["metrics"]:
            result["metrics"]["ok_frac"]["value"] = 0.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
