//! Persistent cross-run solve cache: the on-disk half of the sweep
//! engine's memo of solved points.
//!
//! The in-memory [`SweepEngine`](crate::sweep::SweepEngine) memo dies
//! with the process, so every `libra` invocation and every spawned
//! dispatch shard re-solves from cold. A [`SolveStore`] persists the
//! expensive per-point artifacts — the optimized [`Design`] and its
//! EqualBW baseline — keyed by **(scenario fingerprint, grid index)**,
//! so a re-run of the same scenario (or a resumed partial run, or a
//! sibling shard worker) loads them instead of solving.
//!
//! # File format: `libra-cache-v1`
//!
//! Append-only JSON-lines. The first line is a header object
//! (`{"schema": "libra-cache-v1", "key_hash": "fnv1a64/v1"}`); every
//! other line is one point record:
//!
//! ```text
//! {"fp": "<16 hex digits>", "index": N, "design": {...}, "baseline": {...}}
//! ```
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
//! The fingerprint is a **stable, explicitly versioned** 64-bit FNV-1a
//! hash ([`Fingerprint::KEY_HASH_VERSION`]) over the run's semantic
//! identity: shape display strings, budget bits, objective names,
//! workload names, link parameters, and chunk count. `std`'s
//! `DefaultHasher` is deliberately **not** used — its output is not
//! guaranteed stable across Rust releases, and a cache keyed by it
//! would silently go cold (or worse) on a toolchain bump.
//!
//! The grid index is the point's index in the scenario's **full** grid,
//! whichever run priced it: a whole sweep, a shard's range, or an
//! adaptive-search round's cells of the nominal grid. A search and a
//! sweep of the same scenario therefore share records.
//!
//! A record is a [`StoredPoint`], the same value the engine's memo
//! holds, so a run preloads its records into the memo unchanged.
//! Warm-start *seeds* need no separate record kind: an anchor point's
//! record already carries `design.bw`, which is exactly the vector a run
//! seeds its group from. An anchor sets its group's seed on a memo
//! **hit** too, so a partial run that reads its cells and their group
//! anchors reproduces the seeds of an uninterrupted run bit for bit.

use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::error::LibraError;
use crate::fault::{self, FaultInjector};
use crate::opt::Design;
use crate::scenario::{json_f64, Json, JsonParser};

/// A stable 64-bit key identifying one run configuration (see the
/// module docs for the hashed fields). Displayed as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// The key-hash algorithm/version tag written into cache headers.
    /// Bump the `/vN` suffix whenever the hashed fields or their
    /// serialization change; old files then fail the header check
    /// instead of silently mismatching every lookup.
    pub const KEY_HASH_VERSION: &'static str = "fnv1a64/v1";

    /// Computes the fingerprint of one run configuration.
    ///
    /// `link` is the `(alpha_ps, switch_ps)` pair when link parameters
    /// are attached; plain (non-scenario) runs pass `None` and
    /// `chunks == 0` as the sentinel configuration.
    pub fn compute(
        shapes: &[String],
        budgets: &[f64],
        objectives: &[&str],
        workloads: &[String],
        link: Option<(f64, f64)>,
        chunks: usize,
    ) -> Self {
        let mut h = Fnv1a::new();
        h.str(Self::KEY_HASH_VERSION);
        h.section("shapes");
        for s in shapes {
            h.str(s);
        }
        h.section("budgets");
        for &b in budgets {
            h.u64(b.to_bits());
        }
        h.section("objectives");
        for o in objectives {
            h.str(o);
        }
        h.section("workloads");
        for w in workloads {
            h.str(w);
        }
        h.section("link");
        match link {
            None => h.u64(0),
            Some((alpha, switch)) => {
                h.u64(1);
                h.u64(alpha.to_bits());
                h.u64(switch.to_bits());
            }
        }
        h.section("chunks");
        h.u64(chunks as u64);
        // The retired warm-start on/off flag, hashed as "on" — the only
        // policy left — so existing caches keep their keys.
        h.section("warm_start");
        h.u64(1);
        Fingerprint(h.finish())
    }

    fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Explicit FNV-1a, byte by byte — small, stable, and dependency-free.
/// Each field is length-prefixed so `["ab"], ["c"]` and `["a"], ["bc"]`
/// hash differently.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

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

    fn section(&mut self, name: &str) {
        self.str(name);
    }

    fn finish(&self) -> u64 {
        self.0
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

/// Hit/append counters for one open store, surfaced by the CLI so CI
/// can assert a warm run actually read from disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the loaded file.
    pub hits: usize,
    /// Fresh records staged for append since open.
    pub staged: usize,
}

/// A [`SolveStore`] shared between concurrently running engines. The
/// mutex is coarse on purpose: engines touch the store only at run
/// boundaries (preload before the drive, stage + flush after), never on
/// the per-point hot path.
pub type SharedSolveStore = Arc<Mutex<SolveStore>>;

/// The persistent solve cache: a loaded snapshot of one cache file plus
/// a pending append buffer. See the module docs for format and
/// concurrency rules.
///
/// Dropping a store flushes pending records (best-effort); call
/// [`SolveStore::flush`] to observe write errors.
#[derive(Debug)]
pub struct SolveStore {
    path: PathBuf,
    loaded: HashMap<(Fingerprint, usize), StoredPoint>,
    /// Staged records in staging order (the append order on flush).
    pending: Vec<((Fingerprint, usize), StoredPoint)>,
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
    pub const SCHEMA: &'static str = "libra-cache-v1";

    /// Opens (and loads) the cache at `path`, creating an empty store
    /// when the file does not exist yet.
    ///
    /// Loading is corruption-tolerant: a line that does not parse (torn
    /// by a crash, or another writer's append still in flight) is
    /// skipped, and every record around it loads. The file is never
    /// truncated. Duplicate keys are last-write-wins.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] on I/O failures or when the file's
    /// header names a different schema or key-hash version (a cache
    /// from an incompatible writer must not be silently misread).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, LibraError> {
        let path = path.as_ref().to_path_buf();
        let mut store = SolveStore {
            path,
            loaded: HashMap::new(),
            pending: Vec::new(),
            has_header: false,
            hits: 0,
            staged_total: 0,
            fault: FaultInjector::from_env(),
            flushes: 0,
        };
        let text = match std::fs::read_to_string(&store.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => {
                return Err(LibraError::BadRequest(format!(
                    "cannot read cache {}: {e}",
                    store.path.display()
                )))
            }
        };
        store.load(&text)?;
        Ok(store)
    }

    /// Opens the cache at `path` wrapped for sharing across sessions
    /// (see [`SharedSolveStore`]): a long-lived process — the sweep
    /// server foremost — opens the file once and attaches every
    /// per-job session to the same in-memory store via
    /// [`crate::scenario::Session::with_shared_store`], so hits,
    /// staged records, and preloads accumulate across jobs instead of
    /// re-reading the file per run.
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

    /// The path this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently known (loaded + staged).
    pub fn len(&self) -> usize {
        self.loaded.len() + self.pending.len()
    }

    /// True when nothing is loaded or staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/append counters since open.
    pub fn stats(&self) -> StoreStats {
        StoreStats { hits: self.hits, staged: self.staged_total }
    }

    fn load(&mut self, text: &str) -> Result<(), LibraError> {
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
                    if offset == 0
                        && (schema != Self::SCHEMA || key_hash != Fingerprint::KEY_HASH_VERSION)
                    {
                        return Err(LibraError::BadRequest(format!(
                            "cache {} has schema {schema:?} with key hash {key_hash:?} \
                             (this reader wants {:?} / {:?})",
                            self.path.display(),
                            Self::SCHEMA,
                            Fingerprint::KEY_HASH_VERSION,
                        )));
                    }
                    self.has_header = true;
                }
                Line::Point { fp, index, point } => {
                    // Last-write-wins on identical keys.
                    self.loaded.insert((fp, index), point);
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
        let fp = Fingerprint::from_hex(v.get("fp")?.as_str()?)?;
        let index = v.get("index")?.as_f64()?;
        if index < 0.0 || index.fract() != 0.0 {
            return None;
        }
        let design = parse_design(v.get("design")?)?;
        let baseline = parse_design(v.get("baseline")?)?;
        Some(Line::Point { fp, index: index as usize, point: StoredPoint { design, baseline } })
    }

    /// The stored solve for `(fp, index)`, if present (counted as a hit).
    pub fn lookup(&mut self, fp: Fingerprint, index: usize) -> Option<&StoredPoint> {
        let hit = self.loaded.get(&(fp, index));
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Stages `point` for append under `(fp, index)` unless that key is
    /// already loaded or staged (re-running a warm scenario appends
    /// nothing).
    pub fn stage(&mut self, fp: Fingerprint, index: usize, point: StoredPoint) {
        let key = (fp, index);
        if self.loaded.contains_key(&key) || self.pending.iter().any(|(k, _)| *k == key) {
            return;
        }
        self.staged_total += 1;
        self.pending.push((key, point));
    }

    /// Appends every staged record to the file (one `write` syscall per
    /// line), writing the header first when the file is new or empty and
    /// a newline first when the file does not end with one (a torn
    /// tail).
    /// Staged records move into the loaded set only on success, so a
    /// failed flush can be retried (and is, on drop).
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] on I/O failures.
    pub fn flush(&mut self) -> Result<(), LibraError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let flush_index = self.flushes;
        self.flushes += 1;
        if let Some(injector) = &self.fault {
            if injector.fires(fault::STORE_FLUSH_FAIL, flush_index) {
                return Err(LibraError::BadRequest(format!(
                    "injected fault: {} on flush {flush_index} of cache {}",
                    fault::STORE_FLUSH_FAIL,
                    self.path.display()
                )));
            }
        }
        let io = |e: std::io::Error| {
            LibraError::BadRequest(format!("cannot write cache {}: {e}", self.path.display()))
        };
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(io)?;
        if file.metadata().map_err(io)?.len() == 0 {
            if !self.has_header {
                let header = format!(
                    "{{\"schema\": {:?}, \"key_hash\": {:?}}}\n",
                    Self::SCHEMA,
                    Fingerprint::KEY_HASH_VERSION
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
                if let Some((key, point)) = self.pending.first() {
                    let line = point_line(*key, point);
                    file.write_all(&line.as_bytes()[..line.len() / 2]).map_err(io)?;
                }
                self.pending.clear();
                return Err(LibraError::BadRequest(format!(
                    "injected fault: {} on flush {flush_index} of cache {}",
                    fault::STORE_FLUSH_TORN,
                    self.path.display()
                )));
            }
        }
        for (key, point) in &self.pending {
            file.write_all(point_line(*key, point).as_bytes()).map_err(io)?;
        }
        for (key, point) in self.pending.drain(..) {
            self.loaded.insert(key, point);
        }
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

enum Line {
    Header { schema: String, key_hash: String },
    Point { fp: Fingerprint, index: usize, point: StoredPoint },
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

fn point_line((fp, index): (Fingerprint, usize), point: &StoredPoint) -> String {
    format!(
        "{{\"fp\": \"{fp}\", \"index\": {index}, \"design\": {}, \"baseline\": {}}}\n",
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

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("libra-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn fp(tag: u64) -> Fingerprint {
        Fingerprint(tag)
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
    fn fingerprint_is_stable_and_versioned() {
        let f = Fingerprint::compute(
            &["RI(4)_SW(8)".into()],
            &[100.0, 300.0],
            &["perf"],
            &["w".into()],
            None,
            0,
        );
        assert_eq!(format!("{f}"), "76974a25c087e289");
        assert_eq!(Fingerprint::from_hex(&format!("{f}")), Some(f));
        assert_eq!(Fingerprint::KEY_HASH_VERSION, "fnv1a64/v1");
        // Every hashed field is load-bearing.
        let linked = Fingerprint::compute(
            &["RI(4)_SW(8)".into()],
            &[100.0, 300.0],
            &["perf"],
            &["w".into()],
            Some((20_000.0, 0.0)),
            0,
        );
        assert_ne!(f, linked, "link parameters must be keyed");
        // Field boundaries are length-prefixed: moving a character
        // across a boundary changes the hash.
        let ab_c = Fingerprint::compute(&["ab".into(), "c".into()], &[], &[], &[], None, 0);
        let a_bc = Fingerprint::compute(&["a".into(), "bc".into()], &[], &[], &[], None, 0);
        assert_ne!(ab_c, a_bc);
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
            s.stage(fp(1), 0, point(1.0));
            s.stage(fp(1), 0, point(9.0)); // duplicate key: ignored
            s.stage(fp(1), 7, odd.clone());
            s.stage(fp(2), 0, point(3.0));
            assert_eq!(s.stats().staged, 3);
            s.flush().unwrap();
            s.stage(fp(1), 0, point(9.0)); // already loaded: ignored
            assert_eq!(s.stats().staged, 3);
        }
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.lookup(fp(1), 0).unwrap(), &point(1.0));
        let got = s.lookup(fp(1), 7).unwrap().clone();
        assert_eq!(got.design.bw[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(got.design.bw[1].is_nan());
        assert_eq!(got.design.times[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(got.design.cost, f64::NEG_INFINITY);
        assert!(s.lookup(fp(3), 0).is_none());
        assert_eq!(s.stats().hits, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn last_write_wins_on_duplicate_keys() {
        let path = tmp("lww.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(fp(1), 0, point(1.0));
            s.flush().unwrap();
        }
        // A second writer appends the same key with a different value
        // (cannot happen with deterministic solves, but the reader's
        // contract is last-write-wins regardless).
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(point_line((fp(1), 0), &point(5.0)).as_bytes()).unwrap();
        drop(f);
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.lookup(fp(1), 0).unwrap(), &point(5.0));
        std::fs::remove_file(&path).unwrap();
    }

    /// A record torn mid-line is skipped on load while the records
    /// before it serve; the next flush ends the torn line with a newline
    /// and appends after it, so the re-staged record loads again.
    #[test]
    fn truncates_at_the_first_bad_record_and_heals_on_flush() {
        let path = tmp("corrupt.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(fp(1), 0, point(1.0));
            s.stage(fp(1), 1, point(2.0));
            s.flush().unwrap();
        }
        // Tear the file mid-record, as a crashed writer would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1, "valid prefix survives, torn tail dropped");
        assert_eq!(s.lookup(fp(1), 0).unwrap(), &point(1.0));
        // Re-staging the lost record and flushing heals the file.
        s.stage(fp(1), 1, point(2.0));
        s.flush().unwrap();
        drop(s);
        let mut healed = SolveStore::open(&path).unwrap();
        assert_eq!(healed.len(), 2);
        assert_eq!(healed.lookup(fp(1), 1).unwrap(), &point(2.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_a_foreign_schema_or_key_hash_version() {
        let path = tmp("foreign.jsonl");
        std::fs::write(&path, "{\"schema\": \"libra-cache-v0\", \"key_hash\": \"fnv1a64/v1\"}\n")
            .unwrap();
        let err = SolveStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("libra-cache-v0"), "{err}");
        std::fs::write(&path, "{\"schema\": \"libra-cache-v1\", \"key_hash\": \"siphash/v1\"}\n")
            .unwrap();
        let err = SolveStore::open(&path).unwrap_err().to_string();
        assert!(err.contains("siphash"), "{err}");
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
                    store.stage(fp(CONTENDED), index, point(value(tag, index)));
                    store.stage(fp(tag), index, point(value(tag, index)));
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
        // three fingerprints' key sets.
        assert_eq!(merged.len(), 3 * KEYS, "no torn or dropped lines");
        // Deterministic winner: whichever writer's line landed last in
        // the file wins on every reload.
        let mut again = SolveStore::open(&path).unwrap();
        for index in 0..KEYS {
            assert_eq!(merged.lookup(fp(1), index).unwrap(), &point(value(1, index)));
            assert_eq!(merged.lookup(fp(2), index).unwrap(), &point(value(2, index)));
            let shared = merged.lookup(fp(CONTENDED), index).unwrap().clone();
            assert!(
                shared == point(value(1, index)) || shared == point(value(2, index)),
                "contended key {index} holds neither writer's value: {shared:?}"
            );
            assert_eq!(again.lookup(fp(CONTENDED), index), Some(&shared));
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
            s.stage(fp(1), 0, point(1.0));
            s.flush().unwrap();
        }
        let line = point_line((fp(1), 1), &point(2.0));
        let (head, tail) = line.as_bytes().split_at(line.len() / 2);
        let mut writer = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        writer.write_all(head).unwrap();
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1, "the half-written line does not load");
        writer.write_all(tail).unwrap();
        drop(writer);
        s.stage(fp(1), 2, point(3.0));
        s.flush().unwrap();
        drop(s);
        let mut reopened = SolveStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 3, "the in-flight append was lost");
        assert_eq!(reopened.lookup(fp(1), 1).unwrap(), &point(2.0));
        assert_eq!(reopened.lookup(fp(1), 2).unwrap(), &point(3.0));
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
            s.stage(fp(1), 0, point(1.0));
            s.flush().unwrap();
        }
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"fp\": \"not hex\"}\n").unwrap();
        f.write_all(point_line((fp(1), 1), &point(2.0)).as_bytes()).unwrap();
        drop(f);
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(fp(1), 1).unwrap(), &point(2.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_flushes_pending_records() {
        let path = tmp("dropflush.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path).unwrap();
            s.stage(fp(4), 2, point(4.0));
            // No explicit flush: drop persists.
        }
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.lookup(fp(4), 2).unwrap(), &point(4.0));
        std::fs::remove_file(&path).unwrap();
    }

    /// An injected `store.flush.torn` leaves half a record on disk —
    /// the wire image of dying mid-append. The next open must skip the
    /// torn line, and the following flush appends past it.
    #[test]
    fn torn_flush_heals_on_reopen() {
        use crate::fault::FaultInjector;
        let path = tmp("torn-flush.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut s = SolveStore::open(&path)
                .unwrap()
                .with_fault(FaultInjector::from_spec("store.flush.torn=#1").unwrap());
            s.stage(fp(1), 0, point(1.0));
            s.stage(fp(1), 1, point(2.0));
            let err = s.flush().unwrap_err();
            assert!(err.to_string().contains("store.flush.torn"), "got {err}");
        }
        // The torn record must not load; the healed store works again.
        let mut s = SolveStore::open(&path).unwrap();
        assert!(s.is_empty(), "half a record loaded as data");
        s.stage(fp(3), 0, point(3.0));
        s.flush().unwrap();
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(fp(3), 0).unwrap(), &point(3.0));
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
            s.stage(fp(1), 0, point(1.0));
            let err = s.flush().unwrap_err();
            assert!(err.to_string().contains("store.flush.fail"), "got {err}");
            // Flush ordinal 1 is past the plan's `#1`: the retry lands.
            s.flush().unwrap();
        }
        let mut s = SolveStore::open(&path).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(fp(1), 0).unwrap(), &point(1.0));
        std::fs::remove_file(&path).unwrap();
    }
}
