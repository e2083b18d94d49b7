//! The engine's map of solved points, and its persistent form: the
//! cross-run solve cache.
//!
//! A [`SolveStore`] holds the expensive per-point artifacts of a sweep —
//! the optimized [`Design`] and its EqualBW baseline — under a
//! `PointKey`: what the design is computed from. It is the only map of
//! solved points a [`SweepEngine`](crate::sweep::SweepEngine) keeps: a
//! point is looked up in it, and on a miss solved and staged into it.
//! Without a cache file the store lives in memory only, and dies with
//! its session. Opened on a file ([`SolveStore::open`]), it loads the
//! records every earlier run appended and appends the ones it stages, so
//! a run that needs a point any earlier run solved, in whatever scenario,
//! grid or process, loads it instead of solving. A failed solve is never
//! kept: a later lookup solves it again.
//!
//! # File format: `libra-cache-v2`
//!
//! Append-only JSON-lines. The first line is a header object
//! (`{"schema": "libra-cache-v2", "key_hash": "fnv1a64/v2"}`); every
//! other line is one point record:
//!
//! ```text
//! {"targets": "<16 hex digits>", "budget": B, "objective": "perf", "seed_budget": S,
//!  "design": {...}, "baseline": {...}}
//! ```
//!
//! (one line in the file). The first four fields are the key:
//!
//! * `targets`: the FNV-1a hash of the shape's dimensions (topology,
//!   size, scope, and the cost model's price of each), and the workload's
//!   weighted target expressions;
//! * `budget`: the total-bandwidth budget in GB/s;
//! * `objective`: the objective's scenario-file name;
//! * `seed_budget`: the budget whose optimum seeded the solve — the group
//!   anchor's for a warm-started point, the point's own for a cold solve.
//!
//! Floats are encoded with the same bit-exact round-tripping encoding
//! the JSON-lines run streams use (shortest round-trip decimal, quoted
//! `"NaN"`/`"Infinity"`/`"-Infinity"`), so a design loaded from disk is
//! **bit-identical** to the solve that produced it — the property that
//! keeps warm-from-disk runs byte-identical to cold ones.
//!
//! Concurrency and corruption:
//!
//! * Writers only ever append, one `write` syscall per line, so
//!   concurrent writers (spawned dispatch shards sharing one `--cache`)
//!   interleave whole lines in the common case.
//! * Duplicate keys are **last-write-wins** on load. Two writers racing
//!   on the same key wrote the same deterministic solve anyway.
//! * The reader is corruption-tolerant: it skips every line that does
//!   not parse (a line torn by a crash mid-write, or another writer's
//!   append still in flight when the file was read) and keeps reading.
//! * Nothing is ever truncated, so a live writer's in-flight line and
//!   everything appended after it survive. Instead, a flush first
//!   writes `\n` when the file's last byte is not a newline: a torn
//!   tail then ends as one bad line of its own rather than swallowing
//!   the next record. An extra newline only adds a blank line, which
//!   the loader skips.
//!
//! # Keying
//!
//! A key names every input of a stored design. The cost model enters as
//! the per-dimension prices the optimizer reads, so two shapes that
//! differ only in a dimension's scope, or one shape priced by two cost
//! models, never share a record. Workload names, grid indices, link
//! parameters and chunk counts are not keyed: names and positions do not
//! change a design, and link parameters and chunks change only how
//! backends price it, which is not stored. So overlapping scenarios share
//! solves — a sweep, a shard, a resumed range and a search all read the
//! record of a point they have in common — and a scenario whose workload
//! has other targets under the same name (a co-search at another global
//! batch) never reads another's designs.
//!
//! The hash is hand-rolled FNV-1a with pinned constants and
//! length-prefixed fields, explicitly versioned by the header's
//! `key_hash` tag (`PointKey::KEY_HASH`). `std`'s `DefaultHasher` is
//! deliberately **not** used — its output is not guaranteed stable
//! across Rust releases, and a cache keyed by it would silently go cold
//! (or worse) on a toolchain bump. A key names a design's inputs, not
//! the code that computes it, so `KEY_HASH` must be bumped whenever a
//! solver or optimizer change alters answers (as replacing the barrier
//! method with a primal-dual solver will): old files then fail the
//! header check instead of serving the old code's designs.
//!
//! A record is a [`StoredPoint`], the value a lookup returns. Warm-start
//! *seeds* need no separate record kind: an anchor point's record
//! already carries `design.bw`, which is exactly the vector a run seeds
//! its group from. A run reads or solves each anchor its cells seed
//! from once, on demand, whether or not the anchor is among its cells,
//! so a partial run reproduces the seeds of an uninterrupted run bit for
//! bit.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::cost::CostModel;
use crate::error::LibraError;
use crate::expr::BwExpr;
use crate::fault::{self, FaultInjector};
use crate::network::NetworkShape;
use crate::opt::{Design, Objective};
use crate::scenario::{json_f64, objective_from_name, objective_name, Json, JsonParser};

/// What one solved point's design is computed from, and so the key under
/// which the store holds it (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PointKey {
    /// [`PointKey::targets_hash`] of the point's shape and targets.
    targets: u64,
    /// The budget's bits.
    budget: u64,
    objective: Objective,
    /// The bits of the budget whose optimum seeded the solve.
    seed_budget: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl PointKey {
    /// The key-hash algorithm/version tag written into cache headers.
    /// Bump the `/vN` suffix whenever the keyed fields, their
    /// serialization, or the answers they name change (a solver change
    /// that alters designs); old files then fail the header check
    /// instead of mismatching or serving stale designs.
    pub(crate) const KEY_HASH: &'static str = "fnv1a64/v2";

    /// The key of a point whose shape and targets hash to `targets`, at
    /// `budget` GB/s under `objective`, solved from the optimum at
    /// `seed_budget` — `budget` itself for a cold solve.
    pub(crate) fn new(targets: u64, budget: f64, objective: Objective, seed_budget: f64) -> Self {
        PointKey {
            targets,
            budget: budget.to_bits(),
            objective,
            seed_budget: seed_budget.to_bits(),
        }
    }

    /// The stable hash of `shape`'s dimensions as `cost_model` prices
    /// them and of the weighted `targets` a workload builds on the shape:
    /// the part of a [`PointKey`] a run computes once per (shape,
    /// workload) pair.
    pub(crate) fn targets_hash(
        shape: &NetworkShape,
        cost_model: &CostModel,
        targets: &[(f64, BwExpr)],
    ) -> u64 {
        let mut h = Fnv1a(FNV_OFFSET);
        let prices = cost_model.cost_coefficients(shape);
        h.u64(prices.len() as u64);
        for (dim, price) in shape.dims().iter().zip(prices) {
            h.str(dim.topology.code());
            h.u64(dim.size);
            h.str(&dim.scope.to_string());
            h.u64(price.to_bits());
        }
        h.u64(targets.len() as u64);
        for (weight, expr) in targets {
            h.u64(weight.to_bits());
            h.expr(expr);
        }
        h.0
    }
}

/// Explicit FNV-1a, byte by byte — small, stable, and dependency-free.
/// Each field is length-prefixed so `["ab"], ["c"]` and `["a"], ["bc"]`
/// hash differently.
struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A variant tag, then the variant's fields; sums and maxima carry
    /// their length, so a tree hashes differently from its flattening.
    fn expr(&mut self, e: &BwExpr) {
        match e {
            BwExpr::Const(c) => {
                self.u64(0);
                self.u64(c.to_bits());
            }
            BwExpr::Ratio { coeff, dim } => {
                self.u64(1);
                self.u64(coeff.to_bits());
                self.u64(*dim as u64);
            }
            BwExpr::Sum(parts) | BwExpr::Max(parts) => {
                self.u64(if matches!(e, BwExpr::Sum(_)) { 2 } else { 3 });
                self.u64(parts.len() as u64);
                parts.iter().for_each(|p| self.expr(p));
            }
        }
    }
}

/// One persisted grid-point solve: the optimized design plus the
/// EqualBW baseline at the same budget (both bit-exact).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPoint {
    /// The optimized design.
    pub design: Design,
    /// The EqualBW baseline at the same budget.
    pub baseline: Design,
}

/// Hit/append counters for one file-backed store, surfaced by the CLI
/// so CI can assert a warm run actually read from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups the store served, from its file or from any session's
    /// solves.
    pub hits: usize,
    /// Fresh records staged for append since open.
    pub staged: usize,
}

/// A [`SolveStore`] behind a mutex: an engine's workers look each point
/// up in it and stage each solve as it completes, so sessions sharing
/// one store (the sweep server's jobs) see each other's solves at once.
/// The mutex is coarse on purpose: each hold is one map operation, next
/// to a solve's milliseconds.
pub type SharedSolveStore = Arc<Mutex<SolveStore>>;

/// The map of solved points: the records of one cache file and those
/// staged since it was read, in one map, plus the staged keys pending
/// append. See the module docs for format and concurrency rules.
///
/// The default store lives in memory only: it has no path, stages
/// nothing for append, and its flush does nothing.
///
/// Dropping a store flushes pending records (best-effort); call
/// [`SolveStore::flush`] to observe write errors.
#[derive(Debug, Default)]
pub struct SolveStore {
    /// The cache file; `None` for an in-memory store.
    path: Option<PathBuf>,
    /// Every known record: loaded from the file or staged since.
    records: HashMap<PointKey, StoredPoint>,
    /// Keys staged since the last flush, in staging order (the append
    /// order on flush).
    pending: Vec<PointKey>,
    /// Whether the file already starts with a valid header line.
    has_header: bool,
    hits: usize,
    staged_total: usize,
    /// Deterministic fault injection ([`crate::fault`]); `None` unless
    /// `LIBRA_FAULT_PLAN` (or [`SolveStore::with_fault`]) armed a plan.
    fault: Option<FaultInjector>,
    /// Ordinal of the next non-trivial flush — the instance key for the
    /// store's fault sites.
    flushes: u64,
}

impl SolveStore {
    /// Schema tag written into cache-file headers.
    pub const SCHEMA: &'static str = "libra-cache-v2";

    /// Opens (and loads) the cache at `path`, creating an empty store
    /// when the file does not exist yet.
    ///
    /// Loading is corruption-tolerant: a line that does not parse (torn
    /// by a crash, or another writer's append still in flight) is
    /// skipped, and every record around it loads. The file is never
    /// truncated. Duplicate keys are last-write-wins.
    ///
    /// # Errors
    /// [`LibraError::Cache`] on I/O failures or when the file's header
    /// names a different schema or key-hash version (a cache from an
    /// incompatible writer must not be silently misread).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, LibraError> {
        let path = path.as_ref();
        let mut store = SolveStore::default();
        store.path = Some(path.to_path_buf());
        store.fault = FaultInjector::from_env();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(cache_error(path, format!("cannot read: {e}"))),
        };
        store.load(&text).map_err(|reason| cache_error(path, reason))?;
        Ok(store)
    }

    /// Opens the cache at `path` wrapped for sharing across sessions
    /// (see [`SharedSolveStore`]): a long-lived process — the sweep
    /// server foremost — opens the file once and attaches every
    /// per-job session to the same store via
    /// [`crate::scenario::Session::with_shared_store`], so hits and
    /// staged records accumulate across jobs instead of re-reading the
    /// file per run.
    ///
    /// # Errors
    /// Propagates [`SolveStore::open`] failures.
    pub fn open_shared(path: impl AsRef<Path>) -> Result<SharedSolveStore, LibraError> {
        Ok(Arc::new(Mutex::new(Self::open(path)?)))
    }

    /// Arms deterministic fault injection on this store (the in-process
    /// seam; production runs arm it via `LIBRA_FAULT_PLAN`). See
    /// [`crate::fault`] for the store sites: torn appends and failed
    /// flushes.
    #[must_use]
    pub fn with_fault(mut self, injector: FaultInjector) -> Self {
        self.fault = Some(injector);
        self
    }

    /// The path this store appends to (`None` for an in-memory store).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Records currently known (loaded + staged).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is loaded or staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/append counters since open.
    pub fn stats(&self) -> StoreStats {
        StoreStats { hits: self.hits, staged: self.staged_total }
    }

    /// Loads the records of a cache file's `text`; the error is why the
    /// file cannot be read as a cache.
    fn load(&mut self, text: &str) -> Result<(), String> {
        let mut offset = 0u64;
        for line in text.split_inclusive('\n') {
            let trimmed = line.trim_end_matches(['\n', '\r']);
            let advance = line.len() as u64;
            if trimmed.trim().is_empty() {
                offset += advance;
                continue;
            }
            let Some(record) = Self::parse_line(trimmed) else {
                // A torn line, or another writer's append in flight:
                // skip it and keep reading.
                offset += advance;
                continue;
            };
            match record {
                Line::Header { schema, key_hash } => {
                    // The very first header pins compatibility; later
                    // ones (concurrent writers racing on an empty
                    // file) are skipped like any duplicate.
                    if offset == 0 && (schema != Self::SCHEMA || key_hash != PointKey::KEY_HASH) {
                        let reason = format!(
                            "stale or foreign file, schema {schema:?} with key hash \
                             {key_hash:?} (this version reads {:?} / {:?}); delete it to \
                             start a fresh cache",
                            Self::SCHEMA,
                            PointKey::KEY_HASH,
                        );
                        return Err(reason);
                    }
                    self.has_header = true;
                }
                Line::Point { key, point } => {
                    // Last-write-wins on identical keys.
                    self.records.insert(key, point);
                }
            }
            offset += advance;
        }
        Ok(())
    }

    fn parse_line(line: &str) -> Option<Line> {
        let v = JsonParser::parse(line).ok()?;
        if let Some(schema) = v.get("schema").and_then(Json::as_str) {
            let key_hash = v.get("key_hash").and_then(Json::as_str)?;
            return Some(Line::Header {
                schema: schema.to_string(),
                key_hash: key_hash.to_string(),
            });
        }
        let targets = v.get("targets")?.as_str()?;
        if targets.len() != 16 {
            return None;
        }
        let key = PointKey::new(
            u64::from_str_radix(targets, 16).ok()?,
            v.get("budget")?.as_f64()?,
            objective_from_name(v.get("objective")?.as_str()?).ok()?,
            v.get("seed_budget")?.as_f64()?,
        );
        let design = parse_design(v.get("design")?)?;
        let baseline = parse_design(v.get("baseline")?)?;
        Some(Line::Point { key, point: StoredPoint { design, baseline } })
    }

    /// The stored solve for `key`, loaded or staged, if present (counted
    /// as a hit).
    pub(crate) fn lookup(&mut self, key: PointKey) -> Option<&StoredPoint> {
        let hit = self.records.get(&key);
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Keeps `point` under `key` unless that key is already loaded or
    /// staged (re-running a warm scenario appends nothing); a file-backed
    /// store also stages it for append.
    pub(crate) fn stage(&mut self, key: PointKey, point: StoredPoint) {
        if let Entry::Vacant(slot) = self.records.entry(key) {
            slot.insert(point);
            if self.path.is_some() {
                self.staged_total += 1;
                self.pending.push(key);
            }
        }
    }

    /// Appends every staged record to the file (one `write` syscall per
    /// line), writing the header first when the file is new or empty and
    /// a newline first when the file does not end with one (a torn
    /// tail). An in-memory store has nothing to append.
    /// Staged keys leave the pending list only on success, so a failed
    /// flush can be retried (and is, on drop). A torn append instead
    /// loses its batch, and the store forgets those records.
    ///
    /// # Errors
    /// [`LibraError::Cache`] on I/O failures.
    pub fn flush(&mut self) -> Result<(), LibraError> {
        // Nothing to append: nothing is staged, or the store is in memory.
        let Some(path) = self.path.as_deref().filter(|_| !self.pending.is_empty()) else {
            return Ok(());
        };
        let flush_index = self.flushes;
        self.flushes += 1;
        if let Some(injector) = &self.fault {
            if injector.fires(fault::STORE_FLUSH_FAIL, flush_index) {
                return Err(cache_error(
                    path,
                    format!("injected fault: {} on flush {flush_index}", fault::STORE_FLUSH_FAIL),
                ));
            }
        }
        let io = |e: std::io::Error| cache_error(path, format!("cannot write: {e}"));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        if file.metadata().map_err(io)?.len() == 0 {
            if !self.has_header {
                let header = format!(
                    "{{\"schema\": {:?}, \"key_hash\": {:?}}}\n",
                    Self::SCHEMA,
                    PointKey::KEY_HASH
                );
                file.write_all(header.as_bytes()).map_err(io)?;
            }
        } else {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1)).map_err(io)?;
            file.read_exact(&mut last).map_err(io)?;
            if last[0] != b'\n' {
                file.write_all(b"\n").map_err(io)?;
            }
        }
        self.has_header = true;
        if let Some(injector) = &self.fault {
            if injector.fires(fault::STORE_FLUSH_TORN, flush_index) {
                // Emulate dying mid-append: half of one record lands on
                // disk, the rest of the staged batch never does. The
                // loader skips the torn line, and the next flush ends it
                // with a newline before appending.
                if let Some(key) = self.pending.first() {
                    let line = point_line(key, &self.records[key]);
                    file.write_all(&line.as_bytes()[..line.len() / 2]).map_err(io)?;
                }
                // The batch is lost: forget it, so a later solve of one of
                // its points stages it again.
                for key in self.pending.drain(..) {
                    self.records.remove(&key);
                }
                return Err(cache_error(
                    path,
                    format!("injected fault: {} on flush {flush_index}", fault::STORE_FLUSH_TORN),
                ));
            }
        }
        for key in &self.pending {
            file.write_all(point_line(key, &self.records[key]).as_bytes()).map_err(io)?;
        }
        self.pending.clear();
        Ok(())
    }
}

impl Drop for SolveStore {
    fn drop(&mut self) {
        // Best-effort: the cache is an optimization, and callers who
        // need to observe write errors call `flush` explicitly.
        let _ = self.flush();
    }
}

/// A [`LibraError::Cache`] naming the cache file at `path`.
fn cache_error(path: &Path, reason: String) -> LibraError {
    LibraError::Cache { path: path.to_path_buf(), reason }
}

enum Line {
    Header { schema: String, key_hash: String },
    Point { key: PointKey, point: StoredPoint },
}

fn design_json(d: &Design) -> String {
    let arr = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|&x| json_f64(x)).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"bw\": {}, \"times\": {}, \"weighted_time\": {}, \"cost\": {}}}",
        arr(&d.bw),
        arr(&d.times),
        json_f64(d.weighted_time),
        json_f64(d.cost),
    )
}

fn point_line(key: &PointKey, point: &StoredPoint) -> String {
    format!(
        "{{\"targets\": \"{:016x}\", \"budget\": {}, \"objective\": \"{}\", \
         \"seed_budget\": {}, \"design\": {}, \"baseline\": {}}}\n",
        key.targets,
        json_f64(f64::from_bits(key.budget)),
        objective_name(key.objective),
        json_f64(f64::from_bits(key.seed_budget)),
        design_json(&point.design),
        design_json(&point.baseline),
    )
}

fn parse_design(v: &Json) -> Option<Design> {
    let floats = |key: &str| -> Option<Vec<f64>> {
        v.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
    };
    Some(Design {
        bw: floats("bw")?,
        times: floats("times")?,
        weighted_time: v.get("weighted_time")?.as_f64()?,
        cost: v.get("cost")?.as_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ScopeCost;
    use crate::network::DimScope;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("libra-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The key of grid point `index` of a one-budget-per-index ladder
    /// over targets hashed to `tag`.
    fn key(tag: u64, index: usize) -> PointKey {
        PointKey::new(tag, 100.0 + index as f64, Objective::Perf, 100.0)
    }

    fn point(x: f64) -> StoredPoint {
        let d = |scale: f64| Design {
            bw: vec![x * scale, 0.1 + x],
            times: vec![1.0 / x],
            weighted_time: 1.0 / x,
            cost: x * 7.0,
        };
        StoredPoint { design: d(1.0), baseline: d(2.0) }
    }

    /// The key hash is hand-rolled FNV-1a with pinned constants — NOT
    /// `DefaultHasher` — so its value is stable across Rust releases.
    /// This pins the exact output: if it ever changes, the version tag
    /// must be bumped.
    #[test]
    fn key_hash_is_stable_and_versioned() {
        let shape: NetworkShape = "RI(4)_SW(8)".parse().unwrap();
        let link = |coeff: f64, dim: usize| BwExpr::Ratio { coeff, dim };
        let targets = |weight: f64, coeff: f64| {
            vec![(weight, BwExpr::Sum(vec![BwExpr::Const(0.5), link(coeff, 0), link(2.0, 1)]))]
        };
        let cm = CostModel::default();
        let h = PointKey::targets_hash(&shape, &cm, &targets(1.0, 3.0));
        assert_eq!(format!("{h:016x}"), "bb16094e951d8716");
        assert_eq!(PointKey::KEY_HASH, "fnv1a64/v2");
        // Every hashed field is load-bearing: the shape, a dimension's
        // scope, the cost model, a weight, a coefficient, a dimension,
        // and the tree's structure.
        let other: NetworkShape = "RI(8)_SW(4)".parse().unwrap();
        assert_ne!(h, PointKey::targets_hash(&other, &cm, &targets(1.0, 3.0)));
        let mut dims = shape.dims().to_vec();
        dims[1].scope = DimScope::Node;
        let rescoped = NetworkShape::with_dims(dims).unwrap();
        assert_eq!(rescoped.to_string(), shape.to_string());
        assert_ne!(h, PointKey::targets_hash(&rescoped, &cm, &targets(1.0, 3.0)));
        let no_nic = CostModel { pod: ScopeCost { nic: None, ..cm.pod }, ..cm };
        assert_ne!(h, PointKey::targets_hash(&shape, &no_nic, &targets(1.0, 3.0)));
        // A price the shape does not pay (it has no Package dimension)
        // changes no design, and so no key.
        let repriced = cm.with_package_link_cost(5.0);
        assert_eq!(h, PointKey::targets_hash(&shape, &repriced, &targets(1.0, 3.0)));
        assert_ne!(h, PointKey::targets_hash(&shape, &cm, &targets(2.0, 3.0)));
        assert_ne!(h, PointKey::targets_hash(&shape, &cm, &targets(1.0, 4.0)));
        let moved = [(1.0, BwExpr::Sum(vec![BwExpr::Const(0.5), link(3.0, 1), link(2.0, 1)]))];
        assert_ne!(h, PointKey::targets_hash(&shape, &cm, &moved));
        let as_max = [(1.0, BwExpr::Max(vec![BwExpr::Const(0.5), link(3.0, 0), link(2.0, 1)]))];
        assert_ne!(h, PointKey::targets_hash(&shape, &cm, &as_max));
        let nested = [(
            1.0,
            BwExpr::Sum(vec![BwExpr::Sum(vec![BwExpr::Const(0.5), link(3.0, 0)]), link(2.0, 1)]),
        )];
        assert_ne!(h, PointKey::targets_hash(&shape, &cm, &nested));
        // A record line round-trips its whole key.
        let k = PointKey::new(h, 0.1 + 0.2, Objective::PerfPerCost, 100.0);
        let Some(Line::Point { key: parsed, .. }) =
            SolveStore::parse_line(point_line(&k, &point(1.0)).trim_end())
        else {
            panic!("a record line parses");
        };
        assert_eq!(parsed, k);
    }

    #[test]
    fn round_trips_bit_identically_and_dedups_stages() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let odd = StoredPoint {
            design: Design {
                bw: vec![0.1 + 0.2, f64::NAN, f64::INFINITY],
                times: vec![-0.0],
                weighted_time: 1.0 / 3.0,
                cost: f64::NEG_INFINITY,
            },
            baseline: point(2.0).baseline,
        };
        {
            let mut s = SolveStore::open(&path).unwrap();
            assert!(s.is_empty());
            s.stage(key(1, 0), point(1.0));
            s.stage(key(1, 0), point(9.0)); // duplicate key: ignored
            s.stage(key(1, 7), odd.clone());
            s.stage(key(2, 0), point(3.0));
            assert_eq!(s.stats().staged, 3);
            s.flush().unwrap();
            s.stage(key(1, 0), point(9.0)); // already loaded: ignored
            assert_eq!(s.stats().staged, 3);
        }
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.lookup(key(1, 0)).unwrap(), &point(1.0));
        let got = s.lookup(key(1, 7)).unwrap().clone();
        assert_eq!(got.design.bw[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(got.design.bw[1].is_nan());
        assert_eq!(got.design.times[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(got.design.cost, f64::NEG_INFINITY);
        assert!(s.lookup(key(3, 0)).is_none());
        assert_eq!(s.stats().hits, 2);
        std::fs::remove_file(&path).unwrap();
    }

    /// The default store lives in memory: it serves what it keeps, but
    /// has no path and stages nothing for append.
    #[test]
    fn an_in_memory_store_serves_its_records_and_stages_nothing() {
        let mut s = SolveStore::default();
        s.stage(key(1, 0), point(1.0));
        assert_eq!(s.lookup(key(1, 0)), Some(&point(1.0)));
        assert_eq!((s.path(), s.stats()), (None, StoreStats { hits: 1, staged: 0 }));
        s.flush().unwrap();
    }

    #[test]
    fn last_write_wins_on_duplicate_keys() {
        let path = tmp("lww.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(key(1, 0), point(1.0));
            s.flush().unwrap();
        }
        // A second writer appends the same key with a different value
        // (cannot happen with deterministic solves, but the reader's
        // contract is last-write-wins regardless).
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(point_line(&key(1, 0), &point(5.0)).as_bytes()).unwrap();
        drop(f);
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.lookup(key(1, 0)).unwrap(), &point(5.0));
        std::fs::remove_file(&path).unwrap();
    }

    /// A record torn mid-line is skipped on load while the records
    /// before it serve; the next flush ends the torn line with a newline
    /// and appends after it, so the re-staged record loads again.
    #[test]
    fn a_torn_tail_is_skipped_and_the_next_flush_heals_it() {
        let path = tmp("corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(key(1, 0), point(1.0));
            s.stage(key(1, 1), point(2.0));
            s.flush().unwrap();
        }
        // Tear the file mid-record, as a crashed writer would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1, "valid prefix survives, torn tail dropped");
        assert_eq!(s.lookup(key(1, 0)).unwrap(), &point(1.0));
        // Re-staging the lost record and flushing heals the file.
        s.stage(key(1, 1), point(2.0));
        s.flush().unwrap();
        drop(s);
        let mut healed = SolveStore::open(&path).unwrap();
        assert_eq!(healed.len(), 2);
        assert_eq!(healed.lookup(key(1, 1)).unwrap(), &point(2.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_a_foreign_schema_or_key_hash_version() {
        let path = tmp("foreign.jsonl");
        std::fs::write(&path, "{\"schema\": \"libra-cache-v0\", \"key_hash\": \"fnv1a64/v2\"}\n")
            .unwrap();
        let err = SolveStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("libra-cache-v0"), "{err}");
        std::fs::write(&path, "{\"schema\": \"libra-cache-v2\", \"key_hash\": \"siphash/v1\"}\n")
            .unwrap();
        let err = SolveStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("siphash"), "{err}");
        // A cache written before points were keyed by their content: the
        // error names the stale file, not a design request.
        std::fs::write(&path, "{\"schema\": \"libra-cache-v1\", \"key_hash\": \"fnv1a64/v1\"}\n")
            .unwrap();
        let err = SolveStore::open(&path).unwrap_err();
        assert!(matches!(&err, LibraError::Cache { path: p, .. } if *p == path), "{err}");
        let err = err.to_string();
        assert!(err.starts_with("solve cache ") && err.contains("libra-cache-v1"), "{err}");
        assert!(err.contains("delete it"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// Two independent handles appending the same cache file
    /// concurrently — the sweep server's shared-store scenario run as
    /// its worst case, with *no* shared in-memory dedup at all. Every
    /// flush appends whole lines in O_APPEND mode, so the interleaved
    /// file must reload cleanly: no torn reads, every private key
    /// present with its exact value, contended keys resolving
    /// last-write-wins to one of the writers' values — and
    /// deterministically, since the winner is a property of the file.
    #[test]
    fn concurrent_writers_merge_last_write_wins_without_torn_reads() {
        const KEYS: usize = 200;
        const CONTENDED: u64 = 7;
        let path = tmp("concurrent.jsonl");
        let _ = std::fs::remove_file(&path);
        let value = |tag: u64, index: usize| (1 + index) as f64 * tag as f64;
        let writer = |tag: u64| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut store = SolveStore::open(&path).unwrap();
                for index in 0..KEYS {
                    store.stage(key(CONTENDED, index), point(value(tag, index)));
                    store.stage(key(tag, index), point(value(tag, index)));
                    // Flush every iteration so the two writers' appends
                    // interleave line by line instead of landing as two
                    // big blocks.
                    store.flush().unwrap();
                }
            })
        };
        let a = writer(1);
        let b = writer(2);
        a.join().unwrap();
        b.join().unwrap();

        let mut merged = SolveStore::open(&path).unwrap();
        // Each writer staged against its own empty in-memory view, so
        // the file holds duplicates; the *reload* dedups to exactly the
        // three tags' key sets.
        assert_eq!(merged.len(), 3 * KEYS, "no torn or dropped lines");
        // Deterministic winner: whichever writer's line landed last in
        // the file wins on every reload.
        let mut again = SolveStore::open(&path).unwrap();
        for index in 0..KEYS {
            assert_eq!(merged.lookup(key(1, index)).unwrap(), &point(value(1, index)));
            assert_eq!(merged.lookup(key(2, index)).unwrap(), &point(value(2, index)));
            let shared = merged.lookup(key(CONTENDED, index)).unwrap().clone();
            assert!(
                shared == point(value(1, index)) || shared == point(value(2, index)),
                "contended key {index} holds neither writer's value: {shared:?}"
            );
            assert_eq!(again.lookup(key(CONTENDED, index)), Some(&shared));
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Another writer's append in flight when a store opens — its line
    /// only half written — must survive this store's next flush, and so
    /// must the rest of that line, written after the open.
    #[test]
    fn an_append_in_flight_at_open_survives_the_next_flush() {
        let path = tmp("in-flight.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(key(1, 0), point(1.0));
            s.flush().unwrap();
        }
        let line = point_line(&key(1, 1), &point(2.0));
        let (head, tail) = line.as_bytes().split_at(line.len() / 2);
        let mut writer = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writer.write_all(head).unwrap();
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1, "the half-written line does not load");
        writer.write_all(tail).unwrap();
        drop(writer);
        s.stage(key(1, 2), point(3.0));
        s.flush().unwrap();
        drop(s);
        let mut reopened = SolveStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 3, "the in-flight append was lost");
        assert_eq!(reopened.lookup(key(1, 1)).unwrap(), &point(2.0));
        assert_eq!(reopened.lookup(key(1, 2)).unwrap(), &point(3.0));
        std::fs::remove_file(&path).unwrap();
    }

    /// A bad line in mid-file costs only itself: the records after it
    /// load too.
    #[test]
    fn records_after_a_bad_line_in_mid_file_load() {
        let path = tmp("mid-file.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(key(1, 0), point(1.0));
            s.flush().unwrap();
        }
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"targets\": \"not hex\"}\n").unwrap();
        f.write_all(point_line(&key(1, 1), &point(2.0)).as_bytes()).unwrap();
        drop(f);
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(key(1, 1)).unwrap(), &point(2.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_flushes_pending_records() {
        let path = tmp("dropflush.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(key(4, 2), point(4.0));
            // No explicit flush: drop persists.
        }
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.lookup(key(4, 2)).unwrap(), &point(4.0));
        std::fs::remove_file(&path).unwrap();
    }

    /// An injected `store.flush.torn` leaves half a record on disk —
    /// the wire image of dying mid-append. The store forgets the lost
    /// batch, so a long-lived store stages its points again when they
    /// are solved again and the next flush persists them; the next open
    /// skips the torn line.
    #[test]
    fn torn_flush_heals_on_reopen() {
        use crate::fault::FaultInjector;
        let path = tmp("torn-flush.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path)
                .unwrap()
                .with_fault(FaultInjector::from_spec("store.flush.torn=#1").unwrap());
            s.stage(key(1, 0), point(1.0));
            s.stage(key(1, 1), point(2.0));
            let err = s.flush().unwrap_err();
            assert!(err.to_string().contains("store.flush.torn"), "got {err}");
            assert!(s.lookup(key(1, 0)).is_none(), "a lost record still serves");
            s.stage(key(1, 1), point(2.0));
            assert_eq!(s.stats().staged, 3);
            s.flush().unwrap();
        }
        // The torn record must not load; the re-staged one does, and the
        // healed store works again.
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1, "half a record loaded as data");
        assert_eq!(s.lookup(key(1, 1)).unwrap(), &point(2.0));
        s.stage(key(3, 0), point(3.0));
        s.flush().unwrap();
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(key(3, 0)).unwrap(), &point(3.0));
        std::fs::remove_file(&path).unwrap();
    }

    /// An injected `store.flush.fail` fails before writing anything:
    /// the staged batch survives in memory and the next flush lands it
    /// whole — a transient write failure never loses solves.
    #[test]
    fn failed_flush_keeps_staged_points_for_the_next_flush() {
        use crate::fault::FaultInjector;
        let path = tmp("failed-flush.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path)
                .unwrap()
                .with_fault(FaultInjector::from_spec("store.flush.fail=#1").unwrap());
            s.stage(key(1, 0), point(1.0));
            let err = s.flush().unwrap_err();
            assert!(err.to_string().contains("store.flush.fail"), "got {err}");
            // Flush ordinal 1 is past the plan's `#1`: the retry lands.
            s.flush().unwrap();
        }
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(key(1, 0)).unwrap(), &point(1.0));
        std::fs::remove_file(&path).unwrap();
    }
}
