//! Shard dispatcher: one [`Scenario`] sweep split across many
//! independent workers.
//!
//! The grid's deterministic enumeration (shape → workload → budget →
//! objective) makes a sweep trivially partitionable: [`shard_ranges`]
//! cuts `0..grid_len` into K contiguous index ranges, each shard runs
//! its range through a **fresh** engine (in-process
//! [`Session`](crate::scenario::Session)s here, or
//! `libra crossval --range a..b` child processes forked by the CLI's
//! `dispatch --spawn`), and the shards' JSON-lines streams are merged
//! back: concatenated, re-parsed with [`records_from_jsonl`], re-sorted
//! by grid index, coverage-checked against the grid ([`verify_coverage`]
//! — exactly `0..grid_len`, no gaps, no duplicates), and re-judged into
//! a fresh [`DivergenceMatrix`] at the scenario's own tolerance.
//!
//! The headline contract, pinned by `prop_dispatch` and the CI golden
//! diff: **the K-shard merged output is bit-identical to the
//! single-process run** — same records, same summary line, same exit
//! code — for every K and both worker modes. Two properties carry it:
//!
//! 1. Range-restricted drives solve any out-of-range warm-start group
//!    anchors before their seeded points, so every shard's solves see
//!    exactly the seeds the full run would have published.
//! 2. JSON-lines records round-trip floats bit-identically, so the
//!    merge side recomputes each pair's relative errors from exactly
//!    the times the workers measured.

use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::cost::CostModel;
use crate::error::LibraError;
use crate::eval::rel_error;
use crate::scenario::{
    jsonl_header_line, jsonl_summary_line, records_from_jsonl, BackendRegistry, CollectorSink,
    DivergenceMatrix, JsonLinesSink, JsonParser, RecordRow, RunMeta, Scenario,
};
use crate::sweep::{
    DivergenceReport, ExecMode, GridPoint, PointDivergence, SweepError, SweepWorkload,
};

/// Splits `0..n_points` into `shards` contiguous ranges whose lengths
/// differ by at most one (earlier ranges take the remainder). With more
/// shards than points the tail ranges are empty.
///
/// # Panics
/// Panics when `shards` is zero — [`Dispatcher::new`] rejects that
/// before any plan is built.
pub fn shard_ranges(n_points: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "cannot split a grid into zero shards");
    let base = n_points / shards;
    let extra = n_points % shards;
    let mut start = 0;
    (0..shards)
        .map(|k| {
            let len = base + usize::from(k < extra);
            let r = start..start + len;
            start += len;
            r
        })
        .collect()
}

/// Verifies that `rows` (sorted by index) cover the grid exactly:
/// indices `0..grid_len`, no gaps, no duplicates. This is what makes a
/// partially-written or doubly-merged shard stream a hard error instead
/// of a silently smaller "clean" merge.
///
/// # Errors
/// [`LibraError::BadRequest`] naming the first missing or duplicated
/// grid index.
pub fn verify_coverage(rows: &[RecordRow], grid_len: usize) -> Result<(), LibraError> {
    let mut expect = 0usize;
    for row in rows {
        if row.index < expect {
            return Err(LibraError::BadRequest(format!(
                "merged shard streams carry grid index {} more than once",
                row.index
            )));
        }
        if row.index > expect {
            return Err(LibraError::BadRequest(format!(
                "merged shard streams are missing grid index {expect} \
                 (expected exactly 0..{grid_len})"
            )));
        }
        expect += 1;
    }
    if expect != grid_len {
        return Err(LibraError::BadRequest(format!(
            "merged shard streams cover {expect} of the grid's {grid_len} points \
             (missing the tail from index {expect})"
        )));
    }
    Ok(())
}

/// The merged outcome of a sharded run: every record in grid order,
/// coverage-verified, plus the divergence matrix re-judged at the
/// scenario's tolerance. [`MergedRun::to_jsonl`] reproduces the
/// single-process JSON-lines stream byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRun {
    /// The scenario's display name (echoed into the merged header).
    pub scenario: String,
    /// Backend display names, in scenario order.
    pub backends: Vec<String>,
    /// The scenario tolerance the merge was judged at.
    pub tolerance: f64,
    /// Every grid point's record, sorted by grid index.
    pub rows: Vec<RecordRow>,
    /// The pairwise divergence matrix rebuilt from the merged records.
    pub divergence: DivergenceMatrix,
}

impl MergedRun {
    /// Points whose design solve succeeded (mirrors the single run's
    /// `report.sweep.results.len()`).
    pub fn results(&self) -> usize {
        self.rows.iter().filter(|r| r.weighted_time.is_some()).count()
    }

    /// Points whose design solve failed (mirrors
    /// `report.sweep.errors.len()`).
    pub fn errors(&self) -> usize {
        self.rows.len() - self.results()
    }

    /// The merged verdict at the scenario's tolerance. Non-finite times
    /// or errors are violations, exactly as in a single-process run.
    pub fn within_tolerance(&self) -> bool {
        self.divergence.within_tolerance()
    }

    /// The process exit code the merged verdict maps to: `0` within
    /// tolerance, `2` diverged — the same contract as `libra crossval`.
    pub fn exit_code(&self) -> i32 {
        if self.within_tolerance() {
            0
        } else {
            2
        }
    }

    /// Re-emits the merged run as one JSON-lines stream — header,
    /// records in grid order, summary — byte-identical to what a
    /// single-process [`JsonLinesSink`] run over the whole grid writes.
    pub fn to_jsonl(&self) -> String {
        let meta = RunMeta {
            scenario: Some(&self.scenario),
            backends: &self.backends,
            n_points: self.rows.len(),
            tolerance: self.tolerance,
        };
        let mut out = String::new();
        out.push_str(&jsonl_header_line(&meta));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.to_json_line());
            out.push('\n');
        }
        out.push_str(&jsonl_summary_line(self.results(), self.errors(), &self.divergence));
        out.push('\n');
        out
    }
}

/// Splits a [`Scenario`]'s grid into K contiguous shards, runs each
/// shard as an independent worker, and merges the workers' JSON-lines
/// streams back into one coverage-checked, re-judged [`MergedRun`].
///
/// [`Dispatcher::run_in_process`] executes the shards right here, each
/// on a fresh engine (nothing shared — the exact situation a forked
/// worker is in); [`Dispatcher::merge_streams`] merges streams produced
/// elsewhere (the CLI's `dispatch --spawn` children).
#[derive(Debug, Clone)]
pub struct Dispatcher<'s> {
    scenario: &'s Scenario,
    shards: usize,
    mode: ExecMode,
    store: Option<PathBuf>,
}

impl<'s> Dispatcher<'s> {
    /// A dispatcher splitting `scenario`'s grid into `shards` contiguous
    /// ranges.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] when `shards` is zero.
    pub fn new(scenario: &'s Scenario, shards: usize) -> Result<Self, LibraError> {
        if shards == 0 {
            return Err(LibraError::BadRequest("a dispatch needs at least one shard".to_string()));
        }
        Ok(Dispatcher { scenario, shards, mode: ExecMode::Parallel, store: None })
    }

    /// Selects each in-process shard session's execution mode
    /// (bit-identical either way, by the engine's determinism contract).
    #[must_use]
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shares one persistent solve cache
    /// ([`crate::store::SolveStore`]) across every in-process shard
    /// session: each shard opens the file at `path` on start and
    /// appends its fresh solves on completion, so later shards (and
    /// later runs) skip already-solved points. The merged run stays
    /// byte-identical to the single-process stream — stored solves
    /// round-trip bit-exactly.
    #[must_use]
    pub fn with_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// The shard index ranges for `n_workloads` resolved workloads.
    pub fn ranges(&self, n_workloads: usize) -> Vec<Range<usize>> {
        shard_ranges(self.scenario.grid().len(n_workloads), self.shards)
    }

    /// Runs every shard in-process — each on a **fresh**
    /// [`Session`](crate::scenario::Session) over its own engine, so no
    /// memo cache or seed state leaks between shards — and merges the
    /// shards' JSON-lines streams.
    ///
    /// # Errors
    /// Propagates unknown-backend-name errors and every merge-side
    /// check ([`verify_coverage`], record/grid mismatches).
    pub fn run_in_process<W: SweepWorkload>(
        &self,
        cost_model: &CostModel,
        workloads: &[W],
        registry: &BackendRegistry,
    ) -> Result<MergedRun, LibraError> {
        let built = self.scenario.build_backends(registry)?;
        let names: Vec<String> = built.iter().map(|b| b.name().to_string()).collect();
        let mut streams = Vec::with_capacity(self.shards);
        for range in self.ranges(workloads.len()) {
            let mut session = self.scenario.session(cost_model).with_mode(self.mode);
            if let Some(path) = &self.store {
                session = session.with_store(path)?;
            }
            let mut sink = JsonLinesSink::new(Vec::<u8>::new());
            session.run_scenario_range_with_sinks(
                self.scenario,
                workloads,
                registry,
                range,
                &mut [&mut sink],
            )?;
            streams.push(String::from_utf8(sink.into_inner()).expect("JSON-lines are UTF-8"));
        }
        self.merge(workloads.len(), &streams, names)
    }

    /// Merges shard JSON-lines streams produced by external workers
    /// (`libra crossval --jsonl - --range a..b` children). Backend
    /// display names are read from the first stream's run header.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] when no stream carries a run header,
    /// on malformed records, on coverage gaps or duplicates, and on
    /// records that disagree with the scenario's grid.
    pub fn merge_streams<S: AsRef<str>>(
        &self,
        streams: &[S],
        registry: &BackendRegistry,
    ) -> Result<MergedRun, LibraError> {
        // Resolve display names exactly as the in-process path does;
        // the stream headers echo these same names.
        let built = self.scenario.build_backends(registry)?;
        let names: Vec<String> = built.iter().map(|b| b.name().to_string()).collect();
        self.merge(self.scenario.workloads.len(), streams, names)
    }

    fn merge<S: AsRef<str>>(
        &self,
        n_workloads: usize,
        streams: &[S],
        names: Vec<String>,
    ) -> Result<MergedRun, LibraError> {
        let mut rows: Vec<RecordRow> = Vec::new();
        for (k, stream) in streams.iter().enumerate() {
            rows.extend(
                records_from_jsonl(stream.as_ref())
                    .map_err(|e| LibraError::BadRequest(format!("shard {k}: {e}")))?,
            );
        }
        merge_rows(self.scenario, n_workloads, rows, names)
    }
}

/// Merges already-parsed records — the shared back half of
/// [`Dispatcher::merge_streams`] and [`resume_rows`]: sort by grid
/// index, verify exact coverage, re-judge divergence at the scenario's
/// tolerance.
fn merge_rows(
    scenario: &Scenario,
    n_workloads: usize,
    mut rows: Vec<RecordRow>,
    names: Vec<String>,
) -> Result<MergedRun, LibraError> {
    rows.sort_by_key(|r| r.index);
    let grid_len = scenario.grid().len(n_workloads);
    verify_coverage(&rows, grid_len)?;
    let divergence = rejudge(scenario, &rows, n_workloads, names)?;
    Ok(MergedRun {
        scenario: scenario.name.clone(),
        backends: divergence.backends.clone(),
        tolerance: scenario.tolerance,
        rows,
        divergence,
    })
}

/// Rebuilds the pairwise divergence matrix from merged records,
/// judging at the scenario's tolerance. Relative errors are
/// recomputed from the round-tripped (bit-identical) backend times,
/// so the rebuilt matrix reaches exactly the single run's verdict.
fn rejudge(
    scenario: &Scenario,
    rows: &[RecordRow],
    n_workloads: usize,
    names: Vec<String>,
) -> Result<DivergenceMatrix, LibraError> {
    let grid = scenario.grid();
    let pair_indices = DivergenceMatrix::pair_indices(names.len());
    let mut pairs: Vec<DivergenceReport> = pair_indices
        .iter()
        .map(|&(i, j)| DivergenceReport {
            baseline: names[i].clone(),
            reference: names[j].clone(),
            tolerance: scenario.tolerance,
            points: Vec::new(),
            skipped: 0,
            backend_errors: Vec::new(),
        })
        .collect();
    let n_obj = grid.objectives().len().max(1);
    let n_bud = grid.budgets().len().max(1);
    {
        for row in rows {
            // Decompose the grid index along the shape-major enumeration
            // and cross-check the record against the scenario's grid, so
            // a stream from some other scenario cannot merge quietly.
            let o = row.index % n_obj;
            let b = (row.index / n_obj) % n_bud;
            let w = (row.index / (n_obj * n_bud)) % n_workloads.max(1);
            let s = row.index / (n_obj * n_bud * n_workloads.max(1));
            let shape = &grid.shapes()[s];
            let point = GridPoint {
                shape: s,
                workload: w,
                budget: grid.budgets()[b],
                objective: grid.objectives()[o],
            };
            if row.shape != shape.to_string()
                || row.budget.to_bits() != point.budget.to_bits()
                || row.objective != point.objective
            {
                return Err(LibraError::BadRequest(format!(
                    "record at grid index {} ({}, {}, budget {}) does not match \
                     the scenario's grid — merged streams from a different run?",
                    row.index, row.shape, row.workload, row.budget
                )));
            }
            if row.weighted_time.is_none() {
                // Design-solve failure: lives in the sweep errors, not
                // in any pair (exactly as the single-process fold).
                continue;
            }
            if !row.secs.is_empty() {
                if row.secs.len() != names.len() {
                    return Err(LibraError::BadRequest(format!(
                        "record at grid index {} carries {} backend times, \
                         but the scenario names {} backends",
                        row.index,
                        row.secs.len(),
                        names.len()
                    )));
                }
                for (pair, &(i, j)) in pairs.iter_mut().zip(&pair_indices) {
                    pair.points.push(PointDivergence {
                        point,
                        shape: shape.clone(),
                        workload: row.workload.clone(),
                        baseline_secs: row.secs[i],
                        reference_secs: row.secs[j],
                        rel_error: rel_error(row.secs[i], row.secs[j]),
                    });
                }
            } else if let Some(msg) = &row.error {
                // A backend rejected the plan: reconstruct the failure
                // (the message survives; the original error variant is
                // not serialized).
                for pair in &mut pairs {
                    pair.backend_errors.push(SweepError {
                        point,
                        shape: shape.clone(),
                        workload: row.workload.clone(),
                        error: LibraError::BadRequest(msg.clone()),
                    });
                }
            } else {
                // Designed but planless (or a plain sweep): skipped.
                for pair in &mut pairs {
                    pair.skipped += 1;
                }
            }
        }
        Ok(DivergenceMatrix { backends: names, pairs })
    }
}

/// Leniently reads the valid prefix of a partial (interrupted)
/// JSON-lines stream: the run header is skipped, records are collected,
/// and the stream may stop anywhere — including halfway through its
/// final line, which a torn write produces. Only the **last** line may
/// be malformed; corruption earlier in the stream (a duplicate run
/// header, garbage between records, or anything after the summary line)
/// is an error naming the 1-based line, because it means the file is
/// not a clean prefix of one run.
///
/// # Errors
/// [`LibraError::BadRequest`] on a duplicate run header, a malformed
/// non-final line, or content after the summary line.
pub fn partial_records(stream: &str) -> Result<Vec<RecordRow>, LibraError> {
    let at = |lineno: usize, what: &str| {
        LibraError::BadRequest(format!("partial JSON-lines input line {lineno}: {what}"))
    };
    let lines: Vec<&str> = stream.lines().collect();
    let mut rows = Vec::new();
    let mut seen_header = false;
    let mut seen_summary = false;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let is_last = i + 1 == lines.len();
        if seen_summary {
            return Err(at(
                lineno,
                "content after the summary line — not a clean prefix of one run",
            ));
        }
        let v = match JsonParser::parse(line) {
            Ok(v) => v,
            // A torn final line is exactly what an interrupted writer
            // leaves behind; everything before it is still good.
            Err(_) if is_last => break,
            Err(e) => return Err(at(lineno, &e.to_string())),
        };
        if v.get("schema").is_some() {
            if seen_header {
                return Err(at(lineno, "duplicate run header — two streams concatenated?"));
            }
            seen_header = true;
        } else if v.get("summary").is_some() {
            seen_summary = true;
        } else if v.get("index").is_some() {
            match RecordRow::from_json_line(line) {
                Ok(row) => rows.push(row),
                Err(_) if is_last => break,
                Err(e) => return Err(at(lineno, &e.to_string())),
            }
        } else if is_last {
            // A torn line can still parse as a smaller valid object
            // (e.g. cut inside a string); treat it like any torn tail.
            break;
        } else {
            return Err(at(
                lineno,
                "JSON object is neither a record (no \"index\") nor a known \
                 header/summary line — corrupted stream?",
            ));
        }
    }
    Ok(rows)
}

/// Prices only the grid indices missing from `rows` — each contiguous
/// missing range on a **fresh** session (optionally backed by the
/// persistent solve store at `store`) — and merges surviving + fresh
/// records into one [`MergedRun`] whose [`MergedRun::to_jsonl`] stream
/// is byte-identical to an uninterrupted single-process run.
///
/// Surviving rows round-trip bit-exactly through the JSON-lines record
/// format, and the ranged drive is deterministic point-for-point, so
/// the merged stream does not depend on where the original run stopped.
///
/// # Errors
/// [`LibraError::BadRequest`] when a surviving record's grid index is
/// out of range or duplicated, on unknown backend names, and on every
/// merge-side check ([`verify_coverage`], record/grid mismatches).
pub fn resume_rows<W: SweepWorkload>(
    scenario: &Scenario,
    workloads: &[W],
    registry: &BackendRegistry,
    cost_model: &CostModel,
    rows: Vec<RecordRow>,
    mode: ExecMode,
    store: Option<&Path>,
) -> Result<MergedRun, LibraError> {
    let built = scenario.build_backends(registry)?;
    let names: Vec<String> = built.iter().map(|b| b.name().to_string()).collect();
    let grid_len = scenario.grid().len(workloads.len());
    let mut have = vec![false; grid_len];
    for row in &rows {
        if row.index >= grid_len {
            return Err(LibraError::BadRequest(format!(
                "surviving record carries grid index {} but the grid has only \
                 {grid_len} points — partial stream from a different scenario?",
                row.index
            )));
        }
        if have[row.index] {
            return Err(LibraError::BadRequest(format!(
                "surviving records carry grid index {} more than once",
                row.index
            )));
        }
        have[row.index] = true;
    }
    let mut rows = rows;
    let mut missing: Vec<Range<usize>> = Vec::new();
    let mut i = 0;
    while i < grid_len {
        if have[i] {
            i += 1;
            continue;
        }
        let start = i;
        while i < grid_len && !have[i] {
            i += 1;
        }
        missing.push(start..i);
    }
    for range in missing {
        let mut session = scenario.session(cost_model).with_mode(mode);
        if let Some(path) = store {
            session = session.with_store(path)?;
        }
        let mut sink = CollectorSink::new();
        session.run_scenario_range_with_sinks(
            scenario,
            workloads,
            registry,
            range,
            &mut [&mut sink],
        )?;
        rows.append(&mut sink.rows);
    }
    merge_rows(scenario, workloads.len(), rows, names)
}

/// [`partial_records`] + [`resume_rows`] in one call: reads the valid
/// prefix of an interrupted JSON-lines stream and prices only what is
/// missing.
///
/// # Errors
/// Everything [`partial_records`] and [`resume_rows`] reject.
pub fn resume_scenario<W: SweepWorkload>(
    scenario: &Scenario,
    workloads: &[W],
    registry: &BackendRegistry,
    cost_model: &CostModel,
    partial_stream: &str,
    mode: ExecMode,
    store: Option<&Path>,
) -> Result<MergedRun, LibraError> {
    let rows = partial_records(partial_stream)?;
    resume_rows(scenario, workloads, registry, cost_model, rows, mode, store)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_are_contiguous_and_balanced() {
        for n in 0..40 {
            for k in 1..=9 {
                let ranges = shard_ranges(n, k);
                assert_eq!(ranges.len(), k);
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous split of {n} into {k}");
                }
                let lens: Vec<usize> = ranges.iter().map(Range::len).collect();
                let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(hi - lo <= 1, "balanced split of {n} into {k}: {lens:?}");
            }
        }
    }

    fn row(index: usize) -> RecordRow {
        RecordRow {
            index,
            shape: "RI(4)".to_string(),
            workload: "w".to_string(),
            budget: 100.0,
            objective: crate::opt::Objective::Perf,
            weighted_time: Some(1.0),
            cost: Some(1.0),
            speedup: Some(1.0),
            secs: vec![1.0, 1.0],
            error: None,
        }
    }

    use crate::comm::{Collective, CommModel, GroupSpan};
    use crate::eval::{Analytical, CommPlan, ScaledBackend};
    use crate::network::NetworkShape;
    use crate::opt::Objective;
    use crate::scenario::CollectorSink;
    use crate::sweep::FnWorkload;
    use crate::workload::CommOp;

    fn planned_workload(name: &'static str, gb: f64) -> FnWorkload {
        FnWorkload::new(name, move |shape: &NetworkShape| {
            let comm = CommModel::default();
            Ok(vec![(
                1.0,
                comm.time_expr(Collective::AllReduce, gb * 1e9, &GroupSpan::full(shape)),
            )])
        })
        .with_plan(move |shape: &NetworkShape| {
            Ok(CommPlan::serial([CommOp::new(
                Collective::AllReduce,
                gb * 1e9,
                GroupSpan::full(shape),
            )]))
        })
    }

    fn small_scenario(backends: [&str; 2], tolerance: f64) -> Scenario {
        Scenario::builder("dispatch-test")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_shape("FC(8)_SW(4)".parse().unwrap())
            .with_budgets([100.0, 300.0])
            .with_objectives([Objective::Perf])
            .with_workload("a")
            .with_backends(backends)
            .with_tolerance(tolerance)
            .build()
            .unwrap()
    }

    /// The tentpole contract at unit scale: for every shard count, the
    /// in-process dispatch's merged stream is byte-identical to the
    /// single-process run's, and the re-judged matrix reaches the same
    /// verdict.
    #[test]
    fn in_process_dispatch_matches_the_single_process_stream() {
        let scenario = small_scenario(["analytical", "analytical-offload"], 0.25);
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let registry = BackendRegistry::new();

        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        let mut collector = CollectorSink::new();
        let report = scenario
            .session(&cm)
            .run_scenario_with_sinks(&scenario, &wls, &registry, &mut [&mut sink, &mut collector])
            .unwrap();
        let single = String::from_utf8(sink.into_inner()).unwrap();

        for shards in 1..=6 {
            let merged = Dispatcher::new(&scenario, shards)
                .unwrap()
                .run_in_process(&cm, &wls, &registry)
                .unwrap();
            assert_eq!(merged.to_jsonl(), single, "{shards} shards");
            assert_eq!(merged.rows, collector.rows, "{shards} shards");
            assert_eq!(
                merged.within_tolerance(),
                report.divergence.within_tolerance(),
                "{shards} shards"
            );
            assert_eq!(merged.divergence.pairs.len(), report.divergence.pairs.len());
        }
    }

    /// A poisoned backend's NaN times round-trip through the shard
    /// streams as `"NaN"` and must re-judge as violations on merge: the
    /// merged run fails tolerance and maps to exit code 2 — never to a
    /// "passing" 0 (the NaN-blind `rel_err > tol` bug this PR fixes).
    #[test]
    fn poisoned_shard_records_rejudge_as_violations_and_exit_2() {
        let scenario = small_scenario(["analytical", "poisoned"], 0.5);
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let mut registry = BackendRegistry::new();
        registry
            .register("poisoned", |_| {
                Box::new(ScaledBackend::new(Analytical::new(), f64::NAN, "poisoned"))
            })
            .unwrap();

        let merged =
            Dispatcher::new(&scenario, 2).unwrap().run_in_process(&cm, &wls, &registry).unwrap();
        let pair = merged.divergence.pair("poisoned", "analytical").expect("order-insensitive");
        assert!(pair.points.iter().all(|p| p.rel_error.is_nan()));
        assert_eq!(pair.violations().len(), pair.points.len());
        assert!(!merged.within_tolerance());
        assert_eq!(merged.exit_code(), 2);
        // The merged summary line records the failure for the CI diff.
        let last = merged.to_jsonl();
        let last = last.lines().last().unwrap();
        assert!(last.contains("\"within_tolerance\": false"), "{last}");
        assert!(last.contains("\"NaN\""), "{last}");
    }

    /// Merging a stream from a different scenario (or a doctored one) is
    /// a hard error, not a quiet wrong answer.
    #[test]
    fn merging_foreign_records_is_rejected() {
        let scenario = small_scenario(["analytical", "analytical-offload"], 0.25);
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let registry = BackendRegistry::new();
        let merged =
            Dispatcher::new(&scenario, 1).unwrap().run_in_process(&cm, &wls, &registry).unwrap();
        let mut stream = merged.to_jsonl();
        stream = stream.replace("\"budget\": 300", "\"budget\": 301");
        let err =
            Dispatcher::new(&scenario, 1).unwrap().merge_streams(&[stream], &registry).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    /// Degenerate-but-honest partial streams: a writer interrupted
    /// before any output (empty file) or right after the run header
    /// (header-only file) left zero surviving records, not an error —
    /// resume re-prices the whole grid from there.
    #[test]
    fn partial_records_accepts_empty_and_header_only_streams() {
        assert_eq!(partial_records("").unwrap(), vec![]);
        assert_eq!(partial_records("\n\n").unwrap(), vec![]);
        let header = crate::scenario::jsonl_header_line(&crate::scenario::RunMeta {
            scenario: Some("t"),
            backends: &["analytical".to_string()],
            n_points: 4,
            tolerance: 0.1,
        });
        assert_eq!(partial_records(&header).unwrap(), vec![]);
        // Header torn mid-line: still the empty prefix, not an error.
        assert_eq!(partial_records(&header[..header.len() / 2]).unwrap(), vec![]);
    }

    #[test]
    fn coverage_check_catches_gaps_duplicates_and_short_tails() {
        assert!(verify_coverage(&[row(0), row(1), row(2)], 3).is_ok());
        assert!(verify_coverage(&[], 0).is_ok());
        let gap = verify_coverage(&[row(0), row(2)], 3).unwrap_err();
        assert!(gap.to_string().contains("missing grid index 1"), "{gap}");
        let dup = verify_coverage(&[row(0), row(1), row(1)], 3).unwrap_err();
        assert!(dup.to_string().contains("more than once"), "{dup}");
        let tail = verify_coverage(&[row(0), row(1)], 3).unwrap_err();
        assert!(tail.to_string().contains("2 of the grid's 3"), "{tail}");
    }
}
