//! Scenario-first front door: one declarative problem description, any
//! number of evaluation backends, streaming result sinks.
//!
//! The sweep surface used to grow one entry point per backend count
//! (`run`, `run_cross_validated`, `run_cross_validated3`, each with a
//! `_serial` twin). This module replaces that accretion with a single
//! scenario-shaped API, mirroring how the paper itself frames its
//! experiments — one workload/topology grid priced by interchangeable
//! models:
//!
//! * [`Scenario`] (built by [`ScenarioBuilder`]) is the declarative
//!   description: shapes × budgets × objectives, workload names, optional
//!   α-β link parameters, backend names, chunking, and tolerance.
//!   Scenarios are **data**: they round-trip through a hand-rolled JSON
//!   file format ([`Scenario::to_json`] / [`Scenario::from_json`]), which
//!   is what makes grids shardable across processes.
//! * [`BackendRegistry`] maps backend *names* (`"analytical"`,
//!   `"analytical-offload"`, plus `"event-sim"` / `"net-sim"` registered
//!   by `libra-sim` / `libra-net`, plus user registrations) to
//!   constructors, so a scenario file can name its evaluators.
//! * [`Session`] executes: [`Session::run`] prices **any number** of
//!   backends per grid point in one rayon fan-out and reports every
//!   pairwise disagreement as a [`DivergenceMatrix`]. `N = 0` is a plain
//!   sweep, `N = 2` is the old two-way cross-validation, `N = 3` the old
//!   three-way — one code path for all of them.
//! * [`ReportSink`] streams per-point [`RecordRow`]s out of the run
//!   (console table, JSON-lines, in-memory collector) instead of forcing
//!   callers to hold the whole report — the prerequisite for sharded
//!   grids whose shards aggregate downstream.
//!
//! ```
//! use libra_core::comm::{Collective, CommModel, GroupSpan};
//! use libra_core::cost::CostModel;
//! use libra_core::eval::{Analytical, CommPlan};
//! use libra_core::opt::Objective;
//! use libra_core::scenario::Session;
//! use libra_core::sweep::{FnWorkload, SweepGrid};
//! use libra_core::workload::CommOp;
//!
//! let wl = FnWorkload::new("allreduce-1g", |shape| {
//!     let comm = CommModel::default();
//!     Ok(vec![(1.0, comm.time_expr(Collective::AllReduce, 1e9, &GroupSpan::full(shape)))])
//! })
//! .with_plan(|shape| {
//!     Ok(CommPlan::serial([CommOp::new(Collective::AllReduce, 1e9, GroupSpan::full(shape))]))
//! });
//! let grid = SweepGrid::new()
//!     .with_shape("RI(8)_SW(4)".parse()?)
//!     .with_budgets([100.0, 200.0])
//!     .with_objectives([Objective::Perf]);
//! let cm = CostModel::default();
//! let a = Analytical::new();
//! // One front door, N backends: here N = 2 identical ones.
//! let report = Session::new(&cm).with_tolerance(0.0).run(&grid, &[wl], &[&a, &a]);
//! assert_eq!(report.sweep.results.len(), 2);
//! assert_eq!(report.divergence.pairs.len(), 1);
//! assert!(report.divergence.within_tolerance());
//! # Ok::<(), libra_core::LibraError>(())
//! ```

use std::io::Write;

use crate::budgets::Budgets;
use crate::cost::CostModel;
use crate::error::LibraError;
use crate::eval::{rel_error, EvalBackend, LinkParams};
use crate::network::NetworkShape;
use crate::opt::Objective;
use crate::search::{Cosearch, SearchConfig};
use crate::sweep::{
    DivergenceReport, ExecMode, GridPoint, PointDivergence, SweepEngine, SweepError, SweepGrid,
    SweepReport, SweepResult, SweepWorkload,
};

// ---------------------------------------------------------------------------
// Minimal JSON (serde-free: the workspace builds offline, without crates.io).
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object key order is preserved (scenario files are
/// written and diffed by humans and CI goldens).
///
/// Public because this is the workspace's one JSON layer: the store,
/// the dispatcher, and the `libra-server` HTTP front end all parse and
/// emit through it, so every byte-identity guarantee rests on a single
/// formatter.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (`None` for non-objects).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value, also accepting the quoted non-finite encodings
    /// [`json_f64`] emits (`"NaN"`, `"Infinity"`, `"-Infinity"`) — the
    /// decoder every numeric field uses, so a backend that produced a
    /// non-finite time still round-trips through the JSON-lines stream
    /// instead of poisoning re-aggregation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON value that parses back **bit-identically**
/// through [`Json::as_f64`]: finite values use Rust's float `Display`
/// (the shortest exactly-round-tripping decimal); non-finite values —
/// which a misbehaving backend can produce, and which cross-validation
/// must surface rather than drop — are encoded as the quoted strings
/// `"NaN"` / `"Infinity"` / `"-Infinity"`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v > 0.0 {
        "\"Infinity\"".to_string()
    } else {
        "\"-Infinity\"".to_string()
    }
}

/// Recursive-descent parser for [`Json`]. Rejects duplicate object keys
/// (a scenario field silently shadowed by a later duplicate would be a
/// debugging trap) and arrays/objects nested more than 128 levels deep.
pub struct JsonParser<'s> {
    src: &'s str,
    pos: usize,
    depth: usize,
}

/// Deepest array/object nesting [`JsonParser::parse`] accepts. Committed
/// scenarios, records and request bodies nest at most 4 deep. The bound
/// keeps hostile input (a request body of 200 KB of `[`) from
/// overflowing the parsing thread's stack, which aborts the whole
/// process where no `catch_unwind` can contain it.
const MAX_NESTING: usize = 128;

impl<'s> JsonParser<'s> {
    /// Parses `input` as one complete JSON value.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] with a byte offset on malformed input,
    /// nesting more than 128 levels deep, or trailing characters.
    pub fn parse(input: &'s str) -> Result<Json, LibraError> {
        let mut p = JsonParser { src: input, pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn err(&self, what: &str) -> LibraError {
        LibraError::BadRequest(format!("invalid JSON at byte {}: {what}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), LibraError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Json) -> Result<Json, LibraError> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, LibraError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `f`, one nesting level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, LibraError>) -> Result<Json, LibraError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, LibraError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| LibraError::BadRequest(format!("invalid JSON number {text:?}")))
    }

    fn string(&mut self) -> Result<String, LibraError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .src
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for scenario
                            // files; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so they never occur inside a
                    // multi-byte UTF-8 sequence: the run of the (already
                    // valid) input ends on a char boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, LibraError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, LibraError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _): &(String, Json)| *k == key) {
                return Err(self.err(&format!(
                    "duplicate object key {key:?} — the later value would \
                     silently shadow the earlier one"
                )));
            }
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Objective naming (scenario files speak strings).
// ---------------------------------------------------------------------------

/// The scenario-file name of an [`Objective`] (`"perf"` /
/// `"perf-per-cost"`).
pub fn objective_name(o: Objective) -> &'static str {
    match o {
        Objective::Perf => "perf",
        Objective::PerfPerCost => "perf-per-cost",
    }
}

/// Parses an [`Objective`] from its scenario-file name.
///
/// # Errors
/// [`LibraError::BadRequest`] naming the known objectives.
pub fn objective_from_name(s: &str) -> Result<Objective, LibraError> {
    match s {
        "perf" => Ok(Objective::Perf),
        "perf-per-cost" => Ok(Objective::PerfPerCost),
        other => Err(LibraError::BadRequest(format!(
            "unknown objective {other:?}; known objectives: \"perf\", \"perf-per-cost\""
        ))),
    }
}

// ---------------------------------------------------------------------------
// Scenario: the declarative problem description.
// ---------------------------------------------------------------------------

/// A declarative sweep description: everything a [`Session`] needs except
/// the workload *implementations* (workloads are referenced by name and
/// resolved by the caller — `libra-bench` maps Table II model names).
///
/// Build with [`Scenario::builder`]; serialize with [`Scenario::to_json`] /
/// [`Scenario::save`]; parse with [`Scenario::from_json`] /
/// [`Scenario::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (also echoed into streamed report headers).
    pub name: String,
    /// Candidate shapes, in grid order.
    pub shapes: Vec<NetworkShape>,
    /// Total per-NPU bandwidth budgets (GB/s), in grid order.
    pub budgets: Budgets,
    /// Optimization objectives, in grid order.
    pub objectives: Vec<Objective>,
    /// Workload names (resolved by the caller, e.g. Table II model names).
    pub workloads: Vec<String>,
    /// Optional α-β link parameters attached to every workload's plan
    /// (what `net-sim` prices; bandwidth-only backends ignore it).
    pub link: Option<LinkParams>,
    /// Backend names resolved through a [`BackendRegistry`]. Empty means a
    /// plain (un-validated) sweep.
    pub backends: Vec<String>,
    /// Chunks per collective for chunk-pipelined backends.
    pub chunks: usize,
    /// Pairwise relative-error tolerance for the divergence verdicts.
    pub tolerance: f64,
    /// Optional adaptive-search block (see [`crate::search`]). When
    /// present the scenario runs through the Pareto-guided driver, and
    /// grids above [`Scenario::MAX_GRID_POINTS`] become legal — search
    /// never materializes the nominal grid.
    pub search: Option<SearchConfig>,
}

impl Scenario {
    /// Schema tag written into scenario files.
    pub const SCHEMA: &'static str = "libra-scenario-v1";

    /// Largest shapes × workloads × budgets × objectives cross product a
    /// scenario may declare (2²² ≈ 4.2M points). Every grid point costs
    /// a solver run plus a report record, so anything past this bound is
    /// a mis-written scenario (or a hostile request to a sweep server),
    /// not a workload this exhaustive engine could finish. Enforced by
    /// [`ScenarioBuilder::build`], hence everywhere scenarios enter
    /// (files, the CLI, `POST /v1/sweeps`), except for scenarios with a
    /// `"search"` block: the adaptive driver ([`crate::search`]) never
    /// materializes the nominal grid, so their grids may exceed it. A
    /// budgets ladder's `"count"` is bounded by it in every scenario.
    pub const MAX_GRID_POINTS: usize = 1 << 22;

    /// Largest `"chunks"` a scenario may ask for (1,024× the paper's 64).
    /// Chunk-pipelined backends keep per-chunk state for every
    /// collective, so an unbounded count is an allocation a few bytes of
    /// JSON can make fail, and a failed allocation aborts the process.
    /// Enforced by [`ScenarioBuilder::build`].
    pub const MAX_CHUNKS: usize = 1 << 16;

    /// Starts building a scenario named `name`.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                shapes: Vec::new(),
                budgets: Budgets::default(),
                objectives: Vec::new(),
                workloads: Vec::new(),
                link: None,
                backends: Vec::new(),
                chunks: 64,
                tolerance: DEFAULT_TOLERANCE,
                search: None,
            },
        }
    }

    /// The scenario's design grid (shapes × budgets × objectives).
    pub fn grid(&self) -> SweepGrid {
        SweepGrid::new()
            .with_shapes(self.shapes.iter().cloned())
            .with_budget_axis(&self.budgets)
            .with_objectives(self.objectives.iter().copied())
    }

    /// A [`Session`] at the scenario's tolerance. Pair with
    /// [`Session::run_scenario`].
    pub fn session<'a>(&self, cost_model: &'a CostModel) -> Session<'a> {
        Session::new(cost_model).with_tolerance(self.tolerance)
    }

    /// Instantiates the scenario's backends through `registry` (in
    /// scenario order).
    ///
    /// # Errors
    /// Propagates unknown-name errors from [`BackendRegistry::build`].
    pub fn build_backends(
        &self,
        registry: &BackendRegistry,
    ) -> Result<Vec<Box<dyn EvalBackend>>, LibraError> {
        registry.build_all(&self.backends, &BackendConfig { chunks: self.chunks })
    }

    /// Serializes the scenario as pretty-printed JSON (2-space indent,
    /// keys in a fixed order — diff-friendly and [`Scenario::from_json`]
    /// round-trippable).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let field = |o: &mut String, key: &str, value: String, last: bool| {
            o.push_str(&format!("  {}: {value}", json_escape(key)));
            if !last {
                o.push(',');
            }
            o.push('\n');
        };
        let str_arr = |items: &[String]| {
            let inner: Vec<String> = items.iter().map(|s| json_escape(s)).collect();
            format!("[{}]", inner.join(", "))
        };
        field(&mut o, "schema", json_escape(Self::SCHEMA), false);
        field(&mut o, "name", json_escape(&self.name), false);
        let shapes: Vec<String> = self.shapes.iter().map(|s| s.to_string()).collect();
        field(&mut o, "shapes", str_arr(&shapes), false);
        let budgets: Vec<String> = self.budgets.iter().map(json_f64).collect();
        field(&mut o, "budgets", format!("[{}]", budgets.join(", ")), false);
        let objectives: Vec<String> =
            self.objectives.iter().map(|&ob| objective_name(ob).to_string()).collect();
        field(&mut o, "objectives", str_arr(&objectives), false);
        field(&mut o, "workloads", str_arr(&self.workloads), false);
        match self.link {
            Some(link) => field(
                &mut o,
                "link",
                format!(
                    "{{\"alpha_ps\": {}, \"switch_ps\": {}}}",
                    json_f64(link.alpha_ps),
                    json_f64(link.switch_ps)
                ),
                false,
            ),
            None => field(&mut o, "link", "null".to_string(), false),
        }
        field(&mut o, "backends", str_arr(&self.backends), false);
        field(&mut o, "chunks", self.chunks.to_string(), false);
        field(&mut o, "tolerance", json_f64(self.tolerance), self.search.is_none());
        if let Some(search) = &self.search {
            let mut s = String::from("{");
            s.push_str(&format!("\"seed_budgets\": {}", search.seed_budgets));
            s.push_str(&format!(", \"refine_radius\": {}", search.refine_radius));
            s.push_str(&format!(", \"max_rounds\": {}", search.max_rounds));
            s.push_str(&format!(", \"max_evals\": {}", search.max_evals));
            if let Some(cs) = &search.cosearch {
                let tp: Vec<String> = cs.tp.iter().map(u64::to_string).collect();
                s.push_str(&format!(
                    ", \"cosearch\": {{\"model\": {}, \"tp\": [{}], \"global_batch\": {}}}",
                    json_escape(&cs.model),
                    tp.join(", "),
                    cs.global_batch
                ));
            }
            s.push('}');
            field(&mut o, "search", s, true);
        }
        o.push_str("}\n");
        o
    }

    /// Parses a scenario from its JSON form.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] on malformed JSON, an unknown schema
    /// tag, or invalid field contents;
    /// [`LibraError::ParseNetwork`] for bad shape strings.
    pub fn from_json(input: &str) -> Result<Self, LibraError> {
        let root = JsonParser::parse(input)?;
        let bad = |what: String| LibraError::BadRequest(what);
        if let Some(schema) = root.get("schema").and_then(Json::as_str) {
            if schema != Self::SCHEMA {
                return Err(bad(format!(
                    "unsupported scenario schema {schema:?} (expected {:?})",
                    Self::SCHEMA
                )));
            }
        }
        // Unknown keys are rejected, not ignored: a typo'd optional field
        // ("tolerence", "warm-start") silently reverting to its default
        // would change run verdicts with nothing pointing at the typo.
        const KNOWN_KEYS: [&str; 12] = [
            "schema",
            "name",
            "shapes",
            "budgets",
            "objectives",
            "workloads",
            "link",
            "backends",
            "chunks",
            "tolerance",
            "warm_start",
            "search",
        ];
        if let Json::Obj(fields) = &root {
            for (key, _) in fields {
                if !KNOWN_KEYS.contains(&key.as_str()) {
                    return Err(bad(format!(
                        "unknown scenario field {key:?}; known fields: {}",
                        KNOWN_KEYS.join(", ")
                    )));
                }
            }
        }
        let str_field = |key: &str| -> Result<&str, LibraError> {
            root.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("scenario is missing string field {key:?}")))
        };
        let arr_field = |key: &str| -> Result<&[Json], LibraError> {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| bad(format!("scenario is missing array field {key:?}")))
        };
        let str_items = |key: &str| -> Result<Vec<String>, LibraError> {
            arr_field(key)?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad(format!("field {key:?} must hold strings")))
                })
                .collect()
        };

        let mut b = Scenario::builder(str_field("name")?);
        for s in str_items("shapes")? {
            b = b.with_shape(s.parse::<NetworkShape>()?);
        }
        // Budgets: either an explicit array, or a ladder object
        // `{"from", "to", "count", "scale"}` — the compact form huge
        // search scenarios need (an over-cap grid would be absurd to spell
        // out point by point). A ladder stays four numbers: its values are
        // computed as the engine reads them.
        b = match root.get("budgets") {
            Some(ladder @ Json::Obj(fields)) => {
                for (key, _) in fields {
                    if !matches!(key.as_str(), "from" | "to" | "count" | "scale") {
                        return Err(bad(format!(
                            "unknown budgets field {key:?}; known fields: from, to, count, scale"
                        )));
                    }
                }
                let num = |key: &str| -> Result<f64, LibraError> {
                    let v = ladder
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad(format!("budgets ladder needs number field {key:?}")))?;
                    if !v.is_finite() || v <= 0.0 {
                        return Err(bad(format!(
                            "budgets ladder field {key:?} must be finite and > 0, got {v}"
                        )));
                    }
                    Ok(v)
                };
                let (from, to) = (num("from")?, num("to")?);
                let count = ladder
                    .get("count")
                    .and_then(Json::as_num)
                    .ok_or_else(|| bad("budgets ladder needs number field \"count\"".into()))?;
                if count < 2.0 || count.fract() != 0.0 {
                    return Err(bad(format!(
                        "budgets ladder field \"count\" must be an integer >= 2, got {count}"
                    )));
                }
                // Bounded, since a ladder still expands where a slice or
                // its JSON is asked for: a few bytes of JSON must not ask
                // for terabytes (a failed allocation aborts).
                if count > Scenario::MAX_GRID_POINTS as f64 {
                    return Err(bad(format!(
                        "budgets ladder field \"count\" must be at most {} \
                         (Scenario::MAX_GRID_POINTS), got {count}",
                        Scenario::MAX_GRID_POINTS
                    )));
                }
                let count = count as usize;
                let scale = match ladder.get("scale").map(Json::as_str) {
                    None => "linear",
                    Some(Some(s @ ("linear" | "geometric"))) => s,
                    Some(other) => {
                        return Err(bad(format!(
                            "budgets ladder field \"scale\" must be \"linear\" or \
                             \"geometric\", got {other:?}"
                        )))
                    }
                };
                b.scenario.budgets = Budgets::ladder(from, to, count, scale == "geometric");
                b
            }
            _ => b.with_budgets(
                arr_field("budgets")?
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| bad("field \"budgets\" must hold numbers".into()))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        for name in str_items("objectives")? {
            b = b.with_objectives([objective_from_name(&name)?]);
        }
        b = b.with_workloads(str_items("workloads")?);
        match root.get("link") {
            None | Some(Json::Null) => {}
            Some(link) => {
                if let Json::Obj(fields) = link {
                    for (key, _) in fields {
                        if key != "alpha_ps" && key != "switch_ps" {
                            return Err(bad(format!(
                                "unknown link field {key:?}; known fields: alpha_ps, switch_ps"
                            )));
                        }
                    }
                }
                let num = |key: &str| -> Result<f64, LibraError> {
                    match link.get(key) {
                        None => Ok(0.0),
                        Some(v) => v
                            .as_f64()
                            .ok_or_else(|| bad(format!("link field {key:?} must be a number"))),
                    }
                };
                b = b.with_link(LinkParams {
                    alpha_ps: num("alpha_ps")?,
                    switch_ps: num("switch_ps")?,
                });
            }
        }
        b = b.with_backends(str_items("backends")?);
        if let Some(v) = root.get("chunks") {
            let n = v.as_num().ok_or_else(|| bad("field \"chunks\" must be a number".into()))?;
            if n < 1.0 || n.fract() != 0.0 {
                return Err(bad(format!("field \"chunks\" must be a positive integer, got {n}")));
            }
            b = b.with_chunks(n as usize);
        }
        if let Some(v) = root.get("tolerance") {
            let t = v.as_f64().ok_or_else(|| bad("field \"tolerance\" must be a number".into()))?;
            if !t.is_finite() {
                return Err(bad(format!("field \"tolerance\" must be a finite number, got {t}")));
            }
            b = b.with_tolerance(t);
        }
        // Warm-started solves are the only policy; files may still say so.
        if root.get("warm_start").is_some_and(|v| v.as_bool() != Some(true)) {
            return Err(bad("field \"warm_start\" must be true (the only solve policy)".into()));
        }
        match root.get("search") {
            None | Some(Json::Null) => {}
            Some(search) => {
                let Json::Obj(fields) = search else {
                    return Err(bad("field \"search\" must be an object".into()));
                };
                for (key, _) in fields {
                    if !matches!(
                        key.as_str(),
                        "seed_budgets" | "refine_radius" | "max_rounds" | "max_evals" | "cosearch"
                    ) {
                        return Err(bad(format!(
                            "unknown search field {key:?}; known fields: seed_budgets, \
                             refine_radius, max_rounds, max_evals, cosearch"
                        )));
                    }
                }
                let uint = |key: &str, default: usize| -> Result<usize, LibraError> {
                    match search.get(key) {
                        None => Ok(default),
                        Some(v) => {
                            let n = v.as_num().ok_or_else(|| {
                                bad(format!("search field {key:?} must be a number"))
                            })?;
                            if n < 0.0 || n.fract() != 0.0 {
                                return Err(bad(format!(
                                    "search field {key:?} must be a non-negative integer, got {n}"
                                )));
                            }
                            Ok(n as usize)
                        }
                    }
                };
                let defaults = SearchConfig::default();
                let mut cfg = SearchConfig {
                    seed_budgets: uint("seed_budgets", defaults.seed_budgets)?,
                    refine_radius: uint("refine_radius", defaults.refine_radius)?,
                    max_rounds: uint("max_rounds", defaults.max_rounds)?,
                    max_evals: uint("max_evals", defaults.max_evals)?,
                    cosearch: None,
                };
                match search.get("cosearch") {
                    None | Some(Json::Null) => {}
                    Some(cs) => {
                        let Json::Obj(fields) = cs else {
                            return Err(bad("search field \"cosearch\" must be an object".into()));
                        };
                        for (key, _) in fields {
                            if !matches!(key.as_str(), "model" | "tp" | "global_batch") {
                                return Err(bad(format!(
                                    "unknown cosearch field {key:?}; known fields: model, tp, \
                                     global_batch"
                                )));
                            }
                        }
                        let model = cs
                            .get("model")
                            .and_then(Json::as_str)
                            .ok_or_else(|| bad("cosearch needs string field \"model\"".into()))?
                            .to_string();
                        let tp: Vec<u64> = cs
                            .get("tp")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| bad("cosearch needs array field \"tp\"".into()))?
                            .iter()
                            .map(|v| match v.as_num() {
                                Some(n) if n >= 1.0 && n.fract() == 0.0 => Ok(n as u64),
                                _ => Err(bad(
                                    "cosearch field \"tp\" must hold positive integers".into()
                                )),
                            })
                            .collect::<Result<_, _>>()?;
                        let gb =
                            cs.get("global_batch").and_then(Json::as_num).ok_or_else(|| {
                                bad("cosearch needs number field \"global_batch\"".into())
                            })?;
                        if gb < 1.0 || gb.fract() != 0.0 {
                            return Err(bad(format!(
                                "cosearch field \"global_batch\" must be a positive integer, \
                                 got {gb}"
                            )));
                        }
                        cfg.cosearch = Some(Cosearch { model, tp, global_batch: gb as u64 });
                    }
                }
                b = b.with_search(cfg);
            }
        }
        b.build()
    }

    /// Writes the scenario to `path` as JSON.
    ///
    /// # Errors
    /// Propagates I/O failures as [`LibraError::BadRequest`].
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), LibraError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json())
            .map_err(|e| LibraError::BadRequest(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads a scenario from a JSON file.
    ///
    /// # Errors
    /// I/O failures as [`LibraError::BadRequest`]; parse failures as in
    /// [`Scenario::from_json`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, LibraError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| LibraError::BadRequest(format!("cannot read {}: {e}", path.display())))?;
        Scenario::from_json(&text)
    }
}

/// Builder for [`Scenario`] — same `with_*` idiom as [`SweepGrid`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Adds one candidate shape.
    #[must_use]
    pub fn with_shape(mut self, shape: NetworkShape) -> Self {
        self.scenario.shapes.push(shape);
        self
    }

    /// Adds candidate shapes.
    #[must_use]
    pub fn with_shapes(self, shapes: impl IntoIterator<Item = NetworkShape>) -> Self {
        shapes.into_iter().fold(self, ScenarioBuilder::with_shape)
    }

    /// Adds bandwidth budgets (GB/s).
    #[must_use]
    pub fn with_budgets(mut self, budgets: impl IntoIterator<Item = f64>) -> Self {
        self.scenario.budgets.extend(budgets);
        self
    }

    /// Adds objectives.
    #[must_use]
    pub fn with_objectives(mut self, objectives: impl IntoIterator<Item = Objective>) -> Self {
        self.scenario.objectives.extend(objectives);
        self
    }

    /// Adds one workload by name.
    #[must_use]
    pub fn with_workload(mut self, name: impl Into<String>) -> Self {
        self.scenario.workloads.push(name.into());
        self
    }

    /// Adds workloads by name.
    #[must_use]
    pub fn with_workloads(mut self, names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.scenario.workloads.extend(names.into_iter().map(Into::into));
        self
    }

    /// Attaches α-β link parameters to every workload plan.
    #[must_use]
    pub fn with_link(mut self, link: LinkParams) -> Self {
        self.scenario.link = Some(link);
        self
    }

    /// Adds one backend by registry name.
    #[must_use]
    pub fn with_backend(mut self, name: impl Into<String>) -> Self {
        self.scenario.backends.push(name.into());
        self
    }

    /// Adds backends by registry name.
    #[must_use]
    pub fn with_backends(mut self, names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.scenario.backends.extend(names.into_iter().map(Into::into));
        self
    }

    /// Sets chunks per collective for chunk-pipelined backends.
    #[must_use]
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.scenario.chunks = chunks;
        self
    }

    /// Sets the pairwise divergence tolerance.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.scenario.tolerance = tolerance;
        self
    }

    /// Attaches an adaptive-search block: the scenario runs through
    /// [`crate::search`] instead of the exhaustive engine, and the grid
    /// may exceed [`Scenario::MAX_GRID_POINTS`].
    #[must_use]
    pub fn with_search(mut self, search: SearchConfig) -> Self {
        self.scenario.search = Some(search);
        self
    }

    /// Validates and returns the scenario.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] when the name is empty, the grid or
    /// workload list is empty, `chunks` is 0 or above
    /// [`Scenario::MAX_CHUNKS`], or the tolerance is negative/non-finite.
    pub fn build(self) -> Result<Scenario, LibraError> {
        let s = self.scenario;
        let bad =
            |what: &str| Err(LibraError::BadRequest(format!("scenario {:?}: {what}", s.name)));
        if s.name.is_empty() {
            return Err(LibraError::BadRequest("scenario name must not be empty".into()));
        }
        if s.shapes.is_empty() {
            return bad("at least one shape is required");
        }
        if s.budgets.is_empty() {
            return bad("at least one budget is required");
        }
        if let Some(b) = s.budgets.iter().find(|b| !b.is_finite() || *b <= 0.0) {
            return bad(&format!("budgets must be finite and > 0, got {b}"));
        }
        if s.objectives.is_empty() {
            return bad("at least one objective is required");
        }
        if s.workloads.is_empty() {
            return bad("at least one workload is required");
        }
        if s.chunks == 0 {
            return bad("chunks must be >= 1");
        }
        if s.chunks > Scenario::MAX_CHUNKS {
            return bad(&format!(
                "field \"chunks\" must be at most {} (Scenario::MAX_CHUNKS), got {}",
                Scenario::MAX_CHUNKS,
                s.chunks
            ));
        }
        if !s.tolerance.is_finite() || s.tolerance < 0.0 {
            return bad("tolerance must be finite and >= 0");
        }
        // Guard the cross product *before* anything allocates per grid
        // point: a pathological scenario (easy to construct, and now
        // arriving over the network at `POST /v1/sweeps`) must be
        // rejected here with a pointed message, not OOM a sweep worker.
        // u128 arithmetic so the product itself cannot overflow. Search
        // scenarios are exempt from the cap — the adaptive driver never
        // materializes the nominal grid — but the cell count must still
        // index as a usize.
        let cells = (s.shapes.len() as u128)
            * (s.workloads.len() as u128)
            * (s.budgets.len() as u128)
            * (s.objectives.len() as u128);
        if s.search.is_none() && cells > Scenario::MAX_GRID_POINTS as u128 {
            return bad(&format!(
                "grid has {cells} points ({} shapes × {} workloads × {} budgets × {} objectives), \
                 over the {} point cap — shard the scenario or prune its axes, or add a \
                 \"search\" block to run it adaptively",
                s.shapes.len(),
                s.workloads.len(),
                s.budgets.len(),
                s.objectives.len(),
                Scenario::MAX_GRID_POINTS
            ));
        }
        if cells > usize::MAX as u128 {
            return bad(&format!("grid has {cells} points, which does not fit a usize"));
        }
        if let Some(search) = &s.search {
            search
                .validate()
                .map_err(|e| LibraError::BadRequest(format!("scenario {:?}: {e}", s.name)))?;
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Backend registry: backends as data.
// ---------------------------------------------------------------------------

/// Construction-time knobs passed to registered backend constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Chunks per collective for chunk-pipelined backends (ignored by
    /// closed-form ones).
    pub chunks: usize,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig { chunks: 64 }
    }
}

/// The boxed constructor type stored per registry entry.
type BackendCtor = Box<dyn Fn(&BackendConfig) -> Box<dyn EvalBackend> + Send + Sync>;

/// One registry row: a name, a human-readable description, and the
/// constructor.
struct RegistryEntry {
    name: String,
    description: String,
    ctor: BackendCtor,
}

/// A string-name → constructor table for [`EvalBackend`]s, so scenarios
/// can name their evaluators as data.
///
/// [`BackendRegistry::new`] pre-registers this crate's closed-form
/// backends (`"analytical"`, `"analytical-offload"`); `libra-sim` and
/// `libra-net` contribute `"event-sim"` and `"net-sim"` /
/// `"net-sim-offload"` via their `register_backends` functions, and the
/// facade/bench crates bundle all of them as `default_registry()`. User
/// backends register under fresh names with [`BackendRegistry::register`].
#[derive(Default)]
pub struct BackendRegistry {
    entries: Vec<RegistryEntry>,
}

impl BackendRegistry {
    /// A registry holding the core closed-form backends: `"analytical"`
    /// and `"analytical-offload"`.
    pub fn new() -> Self {
        use crate::eval::Analytical;
        let mut r = BackendRegistry::empty();
        r.register_described(
            "analytical",
            "closed-form alpha-beta cost model over the backend-neutral CommPlan IR",
            |_| Box::new(Analytical::new()),
        )
        .expect("fresh registry");
        r.register_described(
            "analytical-offload",
            "closed-form model with switch-resident in-network collective offload",
            |_| Box::new(Analytical { in_network_offload: true }),
        )
        .expect("fresh registry");
        r
    }

    /// A registry with no entries at all.
    pub fn empty() -> Self {
        BackendRegistry::default()
    }

    /// Registers `ctor` under `name` with an empty description.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] when `name` is already registered —
    /// silently shadowing a backend would make scenario files ambiguous.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        ctor: impl Fn(&BackendConfig) -> Box<dyn EvalBackend> + Send + Sync + 'static,
    ) -> Result<(), LibraError> {
        self.register_described(name, "", ctor)
    }

    /// Registers `ctor` under `name` with a one-line human-readable
    /// `description`, surfaced by `libra list-backends` and the sweep
    /// server's `GET /v1/backends`.
    ///
    /// # Errors
    /// See [`BackendRegistry::register`].
    pub fn register_described(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        ctor: impl Fn(&BackendConfig) -> Box<dyn EvalBackend> + Send + Sync + 'static,
    ) -> Result<(), LibraError> {
        let name = name.into();
        if self.contains(&name) {
            return Err(LibraError::BadRequest(format!("backend {name:?} is already registered")));
        }
        self.entries.push(RegistryEntry {
            name,
            description: description.into(),
            ctor: Box::new(ctor),
        });
        Ok(())
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// `(name, description)` pairs, in registration order.
    pub fn entries(&self) -> Vec<(&str, &str)> {
        self.entries.iter().map(|e| (e.name.as_str(), e.description.as_str())).collect()
    }

    /// The description registered for `name` (`None` when unregistered).
    pub fn describe(&self, name: &str) -> Option<&str> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.description.as_str())
    }

    /// The registry as a JSON array of `{"name", "description"}`
    /// objects, one entry per line, trailing newline included. This
    /// exact string is both `libra list-backends --json`'s stdout and
    /// the sweep server's `GET /v1/backends` body, so the two surfaces
    /// cannot drift.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"name\": {}, \"description\": {}}}{}\n",
                json_escape(&e.name),
                json_escape(&e.description),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        out
    }

    /// Constructs the backend registered under `name`.
    ///
    /// # Errors
    /// [`LibraError::BadRequest`] listing the known names when `name` is
    /// unregistered.
    pub fn build(
        &self,
        name: &str,
        config: &BackendConfig,
    ) -> Result<Box<dyn EvalBackend>, LibraError> {
        match self.entries.iter().find(|e| e.name == name) {
            Some(e) => Ok((e.ctor)(config)),
            None => Err(LibraError::BadRequest(format!(
                "unknown backend {name:?}; known backends: {}",
                self.names().join(", ")
            ))),
        }
    }

    /// Constructs every named backend, in order.
    ///
    /// # Errors
    /// See [`BackendRegistry::build`].
    pub fn build_all(
        &self,
        names: &[String],
        config: &BackendConfig,
    ) -> Result<Vec<Box<dyn EvalBackend>>, LibraError> {
        names.iter().map(|n| self.build(n, config)).collect()
    }
}

impl std::fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendRegistry").field("names", &self.names()).finish()
    }
}

// ---------------------------------------------------------------------------
// Divergence matrix: pairwise reports for runtime N.
// ---------------------------------------------------------------------------

/// The default pairwise relative-error tolerance, sized for validating
/// the analytical model against the 64-chunk event simulator: the chunk
/// pipeline's fill/drain bubble costs at most one chunk's serial
/// traversal, ≈ `ndims / chunks` of the bottleneck time — ≤ 6.25 % for
/// the paper's ≤ 4-dim fabrics at 64 chunks — plus slack for picosecond
/// rounding and FIFO scheduling gaps.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Pairwise divergence of an `N`-backend session: one
/// [`DivergenceReport`] per unordered backend pair, in lexicographic
/// index order `(0,1), (0,2), …, (1,2), …`. `N < 2` has no pairs and is
/// vacuously within tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceMatrix {
    /// The backends' display names, in session order.
    pub backends: Vec<String>,
    /// Pairwise reports, `(i, j)` with `i < j` in lexicographic order.
    pub pairs: Vec<DivergenceReport>,
}

impl DivergenceMatrix {
    /// The pair index order for `n` backends.
    pub fn pair_indices(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect()
    }

    /// A matrix over `backends` that has judged nothing yet, judging at
    /// `tolerance`.
    pub(crate) fn new(backends: Vec<String>, tolerance: f64) -> Self {
        let pairs = Self::pair_indices(backends.len())
            .into_iter()
            .map(|(i, j)| DivergenceReport {
                baseline: backends[i].clone(),
                reference: backends[j].clone(),
                tolerance,
                points: Vec::new(),
                skipped: 0,
                backend_errors: Vec::new(),
            })
            .collect();
        DivergenceMatrix { backends, pairs }
    }

    /// Judges one record — streamed by a live run, or merged from shards
    /// or a resumed stream — at grid cell `point` on `shape`, so a live
    /// run and a merged one reach the same matrix. A record whose
    /// design solve failed lives in the sweep errors, not in any pair; a
    /// priced record is compared pair by pair; an unpriced one with an
    /// error is a backend error (the record keeps only the message); the
    /// rest (planless workloads) are skipped. `row.secs` must be empty or
    /// hold one time per backend.
    pub(crate) fn judge(&mut self, point: GridPoint, shape: &NetworkShape, row: &RecordRow) {
        if row.weighted_time.is_none() {
            return;
        }
        let pairs = self.pairs.iter_mut().zip(Self::pair_indices(self.backends.len()));
        for (pair, (i, j)) in pairs {
            if !row.secs.is_empty() {
                pair.points.push(PointDivergence {
                    point,
                    shape: shape.clone(),
                    workload: row.workload.clone(),
                    baseline_secs: row.secs[i],
                    reference_secs: row.secs[j],
                    rel_error: rel_error(row.secs[i], row.secs[j]),
                });
            } else if let Some(message) = &row.error {
                pair.backend_errors.push(SweepError {
                    point,
                    shape: shape.clone(),
                    workload: row.workload.clone(),
                    error: LibraError::BadRequest(message.clone()),
                });
            } else {
                pair.skipped += 1;
            }
        }
    }

    /// Number of backends priced per point.
    pub fn n_backends(&self) -> usize {
        self.backends.len()
    }

    /// The report comparing backends `i` and `j` (either order).
    pub fn pair_between(&self, i: usize, j: usize) -> Option<&DivergenceReport> {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        let pos = Self::pair_indices(self.n_backends()).iter().position(|&p| p == (i, j))?;
        self.pairs.get(pos)
    }

    /// The report whose backends carry the two display names, if present.
    ///
    /// The lookup is **order-insensitive**: `pair("x", "y")` and
    /// `pair("y", "x")` resolve to the same report regardless of which
    /// name a scenario file listed first — so merge-side re-judging (the
    /// shard dispatcher) can never turn a backend-order difference into a
    /// silent `None`. Pinned by `pair_lookup_is_order_insensitive`.
    pub fn pair(&self, a: &str, b: &str) -> Option<&DivergenceReport> {
        self.pairs.iter().find(|p| {
            (p.baseline == a && p.reference == b) || (p.baseline == b && p.reference == a)
        })
    }

    /// The largest relative error across every pair and point (0 with no
    /// pairs; NaN propagates — see [`DivergenceReport::max_rel_error`]).
    pub fn max_rel_error(&self) -> f64 {
        self.pairs.iter().map(DivergenceReport::max_rel_error).fold(0.0, |a, b| {
            if b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        })
    }

    /// True when every pair is within tolerance with no backend errors
    /// (vacuously true with fewer than two backends).
    pub fn within_tolerance(&self) -> bool {
        self.pairs.iter().all(DivergenceReport::within_tolerance)
    }

    /// One summary line per pair (or a note that nothing was compared).
    pub fn summary(&self) -> String {
        if self.pairs.is_empty() {
            return format!("{} backend(s): no pairs compared", self.n_backends());
        }
        self.pairs.iter().map(DivergenceReport::summary).collect::<Vec<_>>().join("\n")
    }
}

/// A session's outcome: the design-space sweep plus the pairwise backend
/// divergence over the same grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The design-space results, identical to a plain sweep's.
    pub sweep: SweepReport,
    /// Pairwise backend comparisons (empty with fewer than two backends).
    pub divergence: DivergenceMatrix,
}

// ---------------------------------------------------------------------------
// Report sinks: streaming per-point records.
// ---------------------------------------------------------------------------

/// Header handed to sinks before the first record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta<'a> {
    /// The scenario name, when the run came from a [`Scenario`].
    pub scenario: Option<&'a str>,
    /// The backends priced per point, in session order.
    pub backends: &'a [String],
    /// Grid points the run will enumerate.
    pub n_points: usize,
    /// The pairwise divergence tolerance.
    pub tolerance: f64,
}

/// One streamed grid-point record: the optimized design's headline
/// metrics plus the per-backend plan times.
///
/// Rows are emitted in grid-enumeration order. `RecordRow` is owned and
/// `PartialEq` so sinks can be diffed against each other — the JSON-lines
/// round-trip test relies on exact (bit-identical) float round-tripping.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordRow {
    /// Grid-enumeration index.
    pub index: usize,
    /// The evaluated shape (display form).
    pub shape: String,
    /// The workload's name.
    pub workload: String,
    /// Total per-NPU bandwidth budget (GB/s).
    pub budget: f64,
    /// Optimization objective.
    pub objective: Objective,
    /// Optimized weighted time (seconds); `None` when the solve failed.
    pub weighted_time: Option<f64>,
    /// Optimized network cost (dollars); `None` when the solve failed.
    pub cost: Option<f64>,
    /// Speedup over the EqualBW baseline; `None` when the solve failed.
    pub speedup: Option<f64>,
    /// Per-backend plan times (seconds), aligned with the run's backend
    /// list; empty when the point was unpriced (no plan, a failure, or a
    /// plain sweep).
    pub secs: Vec<f64>,
    /// The failure message when the design solve or a backend errored.
    pub error: Option<String>,
}

impl RecordRow {
    pub(crate) fn from_outcome(
        index: usize,
        outcome: &Result<SweepResult, SweepError>,
        priced: Option<&Result<Vec<f64>, SweepError>>,
    ) -> Self {
        match outcome {
            Ok(r) => RecordRow {
                index,
                shape: r.shape.to_string(),
                workload: r.workload.clone(),
                budget: r.point.budget,
                objective: r.point.objective,
                weighted_time: Some(r.design.weighted_time),
                cost: Some(r.design.cost),
                speedup: Some(r.speedup()),
                secs: match priced {
                    Some(Ok(secs)) => secs.clone(),
                    _ => Vec::new(),
                },
                error: match priced {
                    Some(Err(e)) => Some(e.error.to_string()),
                    _ => None,
                },
            },
            Err(e) => RecordRow {
                index,
                shape: e.shape.to_string(),
                workload: e.workload.clone(),
                budget: e.point.budget,
                objective: e.point.objective,
                weighted_time: None,
                cost: None,
                speedup: None,
                secs: Vec::new(),
                error: Some(e.error.to_string()),
            },
        }
    }

    /// Serializes the row as one JSON object on one line (the JSON-lines
    /// record format; floats round-trip bit-identically).
    pub fn to_json_line(&self) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), json_f64);
        let secs: Vec<String> = self.secs.iter().map(|&s| json_f64(s)).collect();
        format!(
            "{{\"index\": {}, \"shape\": {}, \"workload\": {}, \"budget\": {}, \
             \"objective\": {}, \"weighted_time\": {}, \"cost\": {}, \"speedup\": {}, \
             \"secs\": [{}], \"error\": {}}}",
            self.index,
            json_escape(&self.shape),
            json_escape(&self.workload),
            json_f64(self.budget),
            json_escape(objective_name(self.objective)),
            opt(self.weighted_time),
            opt(self.cost),
            opt(self.speedup),
            secs.join(", "),
            self.error.as_deref().map_or_else(|| "null".to_string(), json_escape),
        )
    }

    /// Reads one record from its parsed JSON-lines object, the inverse
    /// of [`RecordRow::to_json_line`].
    fn from_json_value(v: &Json) -> Result<Self, LibraError> {
        let bad = |what: String| LibraError::BadRequest(what);
        let num = |key: &str| -> Result<f64, LibraError> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(format!("record is missing numeric field {key:?}")))
        };
        let string = |key: &str| -> Result<String, LibraError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("record is missing string field {key:?}")))
        };
        let opt_num = |key: &str| -> Option<f64> { v.get(key).and_then(Json::as_f64) };
        let secs = v
            .get("secs")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("record is missing array field \"secs\"".into()))?
            .iter()
            .map(|s| s.as_f64().ok_or_else(|| bad("\"secs\" must hold numbers".into())))
            .collect::<Result<Vec<f64>, _>>()?;
        let index = num("index")?;
        if !(index >= 0.0 && index.fract() == 0.0) {
            return Err(bad(format!(
                "record field \"index\" must be a non-negative integer, got {index}"
            )));
        }
        Ok(RecordRow {
            index: index as usize,
            shape: string("shape")?,
            workload: string("workload")?,
            budget: num("budget")?,
            objective: objective_from_name(&string("objective")?)?,
            weighted_time: opt_num("weighted_time"),
            cost: opt_num("cost"),
            speedup: opt_num("speedup"),
            secs,
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Reads every [`RecordRow`] of a complete JSON-lines stream, in stream
/// order, skipping the run header and summary line [`JsonLinesSink`]
/// writes around them (records are the lines carrying an `"index"`
/// field; headers carry `"schema"`, summaries `"summary"`).
///
/// The header and the summary may each appear once, in that order, and
/// nothing may follow the summary, so two concatenated streams never
/// read as one run. Every other line must be a well-formed record:
/// unparseable JSON, or an object that is neither a record nor a
/// header or summary (e.g. a record truncated before its `"index"`
/// field), is an error, so a partially-written shard stream never reads
/// "cleanly" with points silently missing.
/// [`crate::dispatch::partial_records`] reads the same format but lets
/// the last line be torn.
///
/// # Errors
/// [`LibraError::RecordStream`] naming the 1-based line at fault: a
/// malformed line or record, an unrecognized object, a duplicate
/// header, or content after the summary.
pub fn records_from_jsonl(stream: &str) -> Result<Vec<RecordRow>, LibraError> {
    read_records(stream, false)
}

/// The one reader behind [`records_from_jsonl`] and
/// [`crate::dispatch::partial_records`]. With `torn_tail`, the stream may
/// stop anywhere, even halfway through its last line, as an interrupted
/// writer leaves it: a last line before any summary that does not parse,
/// or parses as a malformed record or some other object, ends the
/// stream instead of failing it.
pub(crate) fn read_records(stream: &str, torn_tail: bool) -> Result<Vec<RecordRow>, LibraError> {
    // A parse or record error's reason, which the stream error labels.
    let reason = |e: LibraError| match e {
        LibraError::BadRequest(what) => what,
        e => e.to_string(),
    };
    let mut rows = Vec::new();
    let (mut seen_header, mut seen_summary) = (false, false);
    let mut lines = stream.lines().enumerate().peekable();
    while let Some((i, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| LibraError::RecordStream(format!("line {}: {what}", i + 1));
        let parsed = JsonParser::parse(line);
        if seen_summary {
            let what = match &parsed {
                Ok(v) if v.get("summary").is_some() => "duplicate summary line",
                _ => "content after the summary line — two runs concatenated into one stream?",
            };
            return Err(at(what));
        }
        let torn = torn_tail && lines.peek().is_none();
        let v = match parsed {
            Ok(v) => v,
            Err(_) if torn => break,
            Err(e) => return Err(at(&reason(e))),
        };
        if v.get("index").is_some() {
            match RecordRow::from_json_value(&v) {
                Ok(row) => rows.push(row),
                Err(_) if torn => break,
                Err(e) => return Err(at(&reason(e))),
            }
        } else if v.get("schema").is_some() {
            if seen_header {
                return Err(at("duplicate run header — two streams concatenated?"));
            }
            seen_header = true;
        } else if v.get("summary").is_some() {
            seen_summary = true;
        } else if !torn {
            return Err(at("JSON object is neither a record (no \"index\") nor a known \
                 header/summary line — truncated or corrupted stream?"));
        }
    }
    Ok(rows)
}

/// Validates a contiguous grid-index range against a grid of `len` points.
pub(crate) fn check_range(range: &std::ops::Range<usize>, len: usize) -> Result<(), LibraError> {
    if range.start > range.end || range.end > len {
        return Err(LibraError::BadRequest(format!(
            "grid range {}..{} does not fit the grid's {len} points",
            range.start, range.end
        )));
    }
    Ok(())
}

/// A streaming consumer of session output: gets the run header, then one
/// [`RecordRow`] per grid point **in grid order as the fold produces
/// them**, then the final report. Implementations must tolerate
/// `on_run_end` observing state accumulated in `on_record`.
pub trait ReportSink {
    /// Called once before the first record.
    fn on_run_start(&mut self, meta: &RunMeta<'_>) {
        let _ = meta;
    }

    /// Called once per grid point, in grid-enumeration order.
    fn on_record(&mut self, row: &RecordRow);

    /// Called once after the last record with the assembled report.
    fn on_run_end(&mut self, report: &SessionReport) {
        let _ = report;
    }
}

/// A sink that renders an aligned console table (one row per grid point)
/// plus a divergence summary footer.
pub struct ConsoleTableSink<W: Write> {
    out: W,
    backends: Vec<String>,
}

impl ConsoleTableSink<std::io::Stdout> {
    /// A console sink writing to stdout.
    pub fn stdout() -> Self {
        ConsoleTableSink::new(std::io::stdout())
    }
}

impl<W: Write> ConsoleTableSink<W> {
    /// A console sink writing to `out`.
    pub fn new(out: W) -> Self {
        ConsoleTableSink { out, backends: Vec::new() }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ReportSink for ConsoleTableSink<W> {
    fn on_run_start(&mut self, meta: &RunMeta<'_>) {
        self.backends = meta.backends.to_vec();
        if let Some(name) = meta.scenario {
            let _ = writeln!(self.out, "scenario: {name}");
        }
        let _ = write!(
            self.out,
            "{:>6} {:>28} {:<12} {:>7} {:<13} {:>10} {:>8}",
            "#", "shape", "workload", "GB/s", "objective", "t(s)", "speedup"
        );
        for b in &self.backends {
            let _ = write!(self.out, " {b:>14}");
        }
        let _ = writeln!(self.out);
    }

    fn on_record(&mut self, row: &RecordRow) {
        if let Some(err) = &row.error {
            let _ = writeln!(
                self.out,
                "{:>6} {:>28} {:<12} {:>7.0} {:<13} ERROR: {err}",
                row.index,
                row.shape,
                row.workload,
                row.budget,
                objective_name(row.objective),
            );
            return;
        }
        let _ = write!(
            self.out,
            "{:>6} {:>28} {:<12} {:>7.0} {:<13} {:>10.4} {:>7.2}x",
            row.index,
            row.shape,
            row.workload,
            row.budget,
            objective_name(row.objective),
            row.weighted_time.unwrap_or(f64::NAN),
            row.speedup.unwrap_or(f64::NAN),
        );
        for &s in &row.secs {
            let _ = write!(self.out, " {s:>13.4}s");
        }
        let _ = writeln!(self.out);
    }

    fn on_run_end(&mut self, report: &SessionReport) {
        let _ = writeln!(
            self.out,
            "{} results, {} errors",
            report.sweep.results.len(),
            report.sweep.errors.len()
        );
        for line in report.divergence.summary().lines() {
            let _ = writeln!(self.out, "{line}");
        }
    }
}

/// A sink that streams JSON-lines: one header object, one record object
/// per grid point, one summary object. Every line is self-contained
/// JSON, which [`records_from_jsonl`] reads back.
pub struct JsonLinesSink<W: Write> {
    out: W,
}

impl<W: Write> JsonLinesSink<W> {
    /// A JSON-lines sink writing to `out`.
    pub fn new(out: W) -> Self {
        JsonLinesSink { out }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// The JSON-lines run header, shared by [`JsonLinesSink`] and the shard
/// dispatcher's merged-stream writer — one definition so a merged stream
/// is byte-identical to a single-process one.
pub(crate) fn jsonl_header_line(meta: &RunMeta<'_>) -> String {
    let backends: Vec<String> = meta.backends.iter().map(|b| json_escape(b)).collect();
    format!(
        "{{\"schema\": \"libra-run-v1\", \"scenario\": {}, \"backends\": [{}], \
         \"points\": {}, \"tolerance\": {}}}",
        meta.scenario.map_or_else(|| "null".to_string(), json_escape),
        backends.join(", "),
        meta.n_points,
        json_f64(meta.tolerance),
    )
}

/// The JSON-lines run summary (see [`jsonl_header_line`] for why this is
/// factored out).
pub(crate) fn jsonl_summary_line(
    results: usize,
    errors: usize,
    divergence: &DivergenceMatrix,
) -> String {
    let compared: usize = divergence.pairs.iter().map(|p| p.points.len()).sum();
    format!(
        "{{\"summary\": {{\"results\": {}, \"errors\": {}, \"pairs\": {}, \
         \"compared_points\": {}, \"max_rel_error\": {}, \"within_tolerance\": {}}}}}",
        results,
        errors,
        divergence.pairs.len(),
        compared,
        json_f64(divergence.max_rel_error()),
        divergence.within_tolerance(),
    )
}

impl<W: Write> ReportSink for JsonLinesSink<W> {
    fn on_run_start(&mut self, meta: &RunMeta<'_>) {
        let _ = writeln!(self.out, "{}", jsonl_header_line(meta));
    }

    fn on_record(&mut self, row: &RecordRow) {
        let _ = writeln!(self.out, "{}", row.to_json_line());
    }

    fn on_run_end(&mut self, report: &SessionReport) {
        let _ = writeln!(
            self.out,
            "{}",
            jsonl_summary_line(
                report.sweep.results.len(),
                report.sweep.errors.len(),
                &report.divergence
            )
        );
    }
}

/// A sink that collects every [`RecordRow`] in memory — the reference
/// the JSON-lines stream is diffed against in tests, and a convenient
/// programmatic consumer.
#[derive(Debug, Default)]
pub struct CollectorSink {
    /// Collected rows, in grid order.
    pub rows: Vec<RecordRow>,
}

impl CollectorSink {
    /// An empty collector.
    pub fn new() -> Self {
        CollectorSink::default()
    }
}

impl ReportSink for CollectorSink {
    fn on_record(&mut self, row: &RecordRow) {
        self.rows.push(row.clone());
    }
}

/// A sink adapter turning the record stream into a progress callback:
/// `f(done, total)` fires once with `(0, total)` at run start and once
/// per record thereafter. This is how a host that cannot block on the
/// whole run — the sweep server's job table foremost — observes
/// per-point progress without touching the records themselves; stack it
/// next to a [`JsonLinesSink`] in the same sink slice.
pub struct ProgressSink<F: FnMut(usize, usize)> {
    f: F,
    done: usize,
    total: usize,
}

impl<F: FnMut(usize, usize)> ProgressSink<F> {
    /// A progress sink invoking `f(done, total)`.
    pub fn new(f: F) -> Self {
        ProgressSink { f, done: 0, total: 0 }
    }
}

impl<F: FnMut(usize, usize)> ReportSink for ProgressSink<F> {
    fn on_run_start(&mut self, meta: &RunMeta<'_>) {
        self.total = meta.n_points;
        (self.f)(0, self.total);
    }

    fn on_record(&mut self, _row: &RecordRow) {
        self.done += 1;
        (self.f)(self.done, self.total);
    }
}

// ---------------------------------------------------------------------------
// Session: the executor.
// ---------------------------------------------------------------------------

/// The scenario executor: one front door for plain, two-way, three-way —
/// any-`N`-way — sweeps, and the one place a run is configured.
///
/// A session owns its [`SweepEngine`] (whose store of solved points its
/// runs share) and carries the run's four settings: a pairwise
/// divergence tolerance, an execution mode, the store (in memory unless
/// a file-backed or shared one is attached), and an optional fault
/// plan. [`Session::run`] prices every grid point under each backend in
/// the slice within one rayon fan-out; [`Session::run_with_sinks`]
/// additionally streams per-point [`RecordRow`]s to [`ReportSink`]s.
pub struct Session<'a> {
    engine: SweepEngine<'a>,
    tolerance: f64,
    pub(crate) mode: ExecMode,
}

impl<'a> Session<'a> {
    /// A session over a fresh engine pricing with `cost_model`.
    pub fn new(cost_model: &'a CostModel) -> Self {
        Session {
            engine: SweepEngine::new(cost_model),
            tolerance: DEFAULT_TOLERANCE,
            mode: ExecMode::Parallel,
        }
    }

    /// Overrides the pairwise divergence tolerance
    /// (default [`DEFAULT_TOLERANCE`]).
    ///
    /// # Panics
    /// Panics if `tolerance` is negative or not finite.
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(tolerance.is_finite() && tolerance >= 0.0, "tolerance must be ≥ 0");
        self.tolerance = tolerance;
        self
    }

    /// Selects parallel (default) or serial execution. Both modes are
    /// bit-identical by the engine's determinism contract; serial is the
    /// reference fold and plays nicely under external thread pools.
    #[must_use]
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Swaps the session's in-memory store for the persistent solve cache
    /// at `path` ([`crate::store::SolveStore`]): existing records load
    /// now and serve like the session's own solves (a record is keyed by
    /// what its design is computed from, so any scenario's record of the
    /// same point serves), each fresh solve is staged as it completes,
    /// and staged records are appended after each run (and on drop). The
    /// streamed output stays **byte-identical** with or without the file
    /// — stored designs round-trip bit-exactly, and a stored anchor seeds
    /// its group exactly as a solved anchor does.
    ///
    /// # Errors
    /// Propagates [`crate::store::SolveStore::open`] failures (unreadable
    /// file, incompatible schema or key-hash version).
    pub fn with_store(self, path: impl AsRef<std::path::Path>) -> Result<Self, LibraError> {
        Ok(self.with_shared_store(crate::store::SolveStore::open_shared(path)?))
    }

    /// Swaps the session's in-memory store for an already-open shared
    /// store ([`crate::store::SolveStore::open_shared`]) instead of
    /// opening a file — the multi-client path: a server opens the cache
    /// once and every job's fresh session attaches here, so concurrent
    /// clients hit each other's solves in memory, while flushes still
    /// append to the backing file for the next process. Byte-identity
    /// guarantees are exactly [`Session::with_store`]'s.
    #[must_use]
    pub fn with_shared_store(mut self, store: crate::store::SharedSolveStore) -> Self {
        self.engine.store = store;
        self
    }

    /// Arms deterministic fault injection ([`crate::fault`]): per-point
    /// injected errors, panics, and slow solves. Production runs arm it
    /// through the `LIBRA_FAULT_PLAN` environment variable; this is the
    /// seam for a host holding a parsed plan (the sweep server foremost).
    ///
    /// # Errors
    /// Never fails today; the `Result` is kept for callers that chain it
    /// with `?`.
    pub fn with_fault(mut self, injector: crate::fault::FaultInjector) -> Result<Self, LibraError> {
        self.engine.fault = Some(injector);
        Ok(self)
    }

    /// The configured tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The session's engine, for its counters
    /// ([`SweepEngine::cache_stats`], [`SweepEngine::store_stats`]) and
    /// [`SweepEngine::flush_store`].
    pub fn engine(&self) -> &SweepEngine<'a> {
        &self.engine
    }

    /// Evaluates the grid, pricing every point's [`crate::eval::CommPlan`]
    /// under **each backend in `backends`** at the optimized design's
    /// bandwidth, and reports all pairwise divergences.
    ///
    /// * `backends.is_empty()` — a plain design-space sweep, nothing
    ///   priced, no pairs.
    /// * one backend — plans priced (the times stream to sinks), still no
    ///   pairs.
    /// * two or more — every unordered pair gets a [`DivergenceReport`],
    ///   in [`DivergenceMatrix::pair_indices`] order.
    pub fn run<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        backends: &[&dyn EvalBackend],
    ) -> SessionReport {
        self.run_with_sinks(grid, workloads, backends, &mut [])
    }

    /// [`Session::run`], streaming per-point [`RecordRow`]s to `sinks`
    /// (in grid order) as the fold assembles the report.
    pub fn run_with_sinks<W: SweepWorkload>(
        &self,
        grid: &SweepGrid,
        workloads: &[W],
        backends: &[&dyn EvalBackend],
        sinks: &mut [&mut dyn ReportSink],
    ) -> SessionReport {
        let cells: Vec<usize> = (0..grid.len(workloads.len())).collect();
        self.run_inner(None, self.tolerance, grid, workloads, backends, &cells, sinks)
    }

    /// Runs a [`Scenario`]'s grid with backends built from `registry`.
    /// `workloads` are the resolved implementations of
    /// [`Scenario::workloads`] (e.g. from `libra-bench`'s name resolver).
    ///
    /// The run is judged at **the scenario's tolerance** (overriding the
    /// session's), so a scenario file's verdicts do not depend on which
    /// session executes it.
    ///
    /// # Errors
    /// Propagates unknown-backend-name errors.
    pub fn run_scenario<W: SweepWorkload>(
        &self,
        scenario: &Scenario,
        workloads: &[W],
        registry: &BackendRegistry,
    ) -> Result<SessionReport, LibraError> {
        self.run_scenario_with_sinks(scenario, workloads, registry, &mut [])
    }

    /// [`Session::run_scenario`] with streaming sinks.
    ///
    /// # Errors
    /// Propagates unknown-backend-name errors.
    pub fn run_scenario_with_sinks<W: SweepWorkload>(
        &self,
        scenario: &Scenario,
        workloads: &[W],
        registry: &BackendRegistry,
        sinks: &mut [&mut dyn ReportSink],
    ) -> Result<SessionReport, LibraError> {
        let full = 0..scenario.grid().len(workloads.len());
        self.run_scenario_range_with_sinks(scenario, workloads, registry, full, sinks)
    }

    /// [`Session::run_scenario_with_sinks`] restricted to the contiguous
    /// grid-index `range` — one shard of a distributed scenario run.
    /// Emitted record indices stay **global**, and a seeded point whose
    /// group anchor lies outside the range seeds from that anchor all the
    /// same (the run reads or solves it once), so for every partition of
    /// the grid the concatenation of shard outputs is bit-identical to
    /// the unsharded run (see [`crate::dispatch`]). This is what
    /// `libra crossval --range a..b` executes in a spawned worker.
    ///
    /// # Errors
    /// Propagates unknown-backend-name errors; [`LibraError::BadRequest`]
    /// when `range` is inverted or extends past the grid's length.
    pub fn run_scenario_range_with_sinks<W: SweepWorkload>(
        &self,
        scenario: &Scenario,
        workloads: &[W],
        registry: &BackendRegistry,
        range: std::ops::Range<usize>,
        sinks: &mut [&mut dyn ReportSink],
    ) -> Result<SessionReport, LibraError> {
        check_range(&range, scenario.grid().len(workloads.len()))?;
        let cells: Vec<usize> = range.collect();
        self.run_scenario_cells_with_sinks(scenario, workloads, registry, &cells, sinks)
    }

    /// [`Session::run_scenario_range_with_sinks`] over any ascending
    /// in-grid `cells`, such as the indices a resumed stream is missing.
    ///
    /// # Errors
    /// Propagates unknown-backend-name errors.
    pub(crate) fn run_scenario_cells_with_sinks<W: SweepWorkload>(
        &self,
        scenario: &Scenario,
        workloads: &[W],
        registry: &BackendRegistry,
        cells: &[usize],
        sinks: &mut [&mut dyn ReportSink],
    ) -> Result<SessionReport, LibraError> {
        let built = scenario.build_backends(registry)?;
        let refs: Vec<&dyn EvalBackend> = built.iter().map(|b| b.as_ref()).collect();
        let (name, tolerance) = (Some(scenario.name.as_str()), scenario.tolerance);
        Ok(self.run_inner(name, tolerance, &scenario.grid(), workloads, &refs, cells, sinks))
    }

    #[allow(clippy::too_many_arguments)] // private fan-in behind the public run entry points
    fn run_inner<W: SweepWorkload>(
        &self,
        scenario: Option<&str>,
        tolerance: f64,
        grid: &SweepGrid,
        workloads: &[W],
        backends: &[&dyn EvalBackend],
        cells: &[usize],
        sinks: &mut [&mut dyn ReportSink],
    ) -> SessionReport {
        let names: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();
        let meta = RunMeta { scenario, backends: &names, n_points: cells.len(), tolerance };
        for sink in sinks.iter_mut() {
            sink.on_run_start(&meta);
        }
        let mut divergence = DivergenceMatrix::new(names, tolerance);
        let outcomes = self.engine.run_priced(grid, workloads, backends, cells, self.mode);
        let cache = self.engine.cache_stats();
        let mut sweep = SweepReport { results: Vec::new(), errors: Vec::new(), cache };
        for (&index, (outcome, priced)) in cells.iter().zip(outcomes) {
            let row = RecordRow::from_outcome(index, &outcome, priced.as_ref());
            let point = grid.point(index, workloads.len());
            divergence.judge(point, &grid.shapes()[point.shape], &row);
            for sink in sinks.iter_mut() {
                sink.on_record(&row);
            }
            sweep.push(outcome);
        }
        let report = SessionReport { sweep, divergence };
        for sink in sinks.iter_mut() {
            sink.on_run_end(&report);
        }
        report
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tolerance", &self.tolerance)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Collective, CommModel, GroupSpan};
    use crate::eval::{Analytical, CommPlan, ScaledBackend};
    use crate::workload::CommOp;

    fn planned_workload(name: &'static str, gb: f64) -> crate::sweep::FnWorkload {
        crate::sweep::FnWorkload::new(name, move |shape: &NetworkShape| {
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

    fn small_grid() -> SweepGrid {
        SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_shape("FC(8)_SW(4)".parse().unwrap())
            .with_budgets([100.0, 300.0])
            .with_objectives([Objective::Perf])
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = JsonParser::parse(
            r#"{"a": [1, -2.5, 1e3], "b": "x\n\"y\"", "c": null, "d": true, "e": {}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_num(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Obj(vec![])));
        assert!(JsonParser::parse("{\"unterminated").is_err());
        assert!(JsonParser::parse("[1,]").is_err());
        assert!(JsonParser::parse("{} trailing").is_err());
    }

    /// Nesting up to the limit parses; one level past it is a positioned
    /// error instead of a stack overflow, for arrays and objects alike.
    #[test]
    fn json_parser_bounds_nesting_depth() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonParser::parse(&arrays(MAX_NESTING)).is_ok());
        let err = JsonParser::parse(&arrays(MAX_NESTING + 1)).unwrap_err().to_string();
        assert!(err.contains(&format!("at byte {MAX_NESTING}: nesting deeper")), "{err}");

        let objects = |n: usize| format!("{}1{}", "{\"k\": ".repeat(n), "}".repeat(n));
        assert!(JsonParser::parse(&objects(MAX_NESTING)).is_ok());
        let err = JsonParser::parse(&objects(MAX_NESTING + 1)).unwrap_err().to_string();
        assert!(err.contains("nesting deeper"), "{err}");
        let err = JsonParser::parse(&"[".repeat(200_000)).unwrap_err().to_string();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    /// String values decode in one linear pass: a 1 MiB ASCII value
    /// (every printable character, so escapes interleave with plain runs)
    /// and a multi-byte value each parse back to the same string.
    #[test]
    fn json_strings_round_trip_long_and_multi_byte_values() {
        let ascii: String = (0..1usize << 20).map(|i| char::from(b' ' + (i % 95) as u8)).collect();
        let multi_byte = "naïve – Σ 测试 🚀 \"q\"\\\n".repeat(1000);
        for s in [ascii, multi_byte] {
            assert_eq!(JsonParser::parse(&json_escape(&s)).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn json_f64_round_trips_bit_identically() {
        for v in [0.1, 1.0 / 3.0, 123456.789, 1e-300, 7.2e18, -0.0, 42.0] {
            let s = json_f64(v);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s} -> {back}");
        }
        assert_eq!(json_f64(f64::NAN), "\"NaN\"");
        assert_eq!(json_f64(f64::INFINITY), "\"Infinity\"");
        assert_eq!(json_f64(f64::NEG_INFINITY), "\"-Infinity\"");
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let parsed = JsonParser::parse(&json_f64(special)).unwrap();
            let back = parsed.as_f64().expect("special encodings decode");
            assert_eq!(back.is_nan(), special.is_nan());
            assert_eq!(back.is_infinite(), special.is_infinite());
            assert_eq!(back.is_sign_positive(), special.is_sign_positive());
        }
    }

    /// The grid-size cap trips at build time — the one chokepoint every
    /// scenario passes through (files, CLI, `POST /v1/sweeps`) — with a
    /// message naming the axes, so a fat-fingered budget list cannot
    /// commit the engine to a multi-billion-point sweep. The product is
    /// computed in u128, so axes whose product overflows usize still
    /// reject cleanly instead of wrapping into a "small" grid.
    #[test]
    fn oversized_grids_are_rejected_at_build_time() {
        let huge = |budgets: usize| {
            let mut b = Scenario::builder("huge")
                .with_shape("RI(4)_SW(8)".parse().unwrap())
                .with_budgets((0..budgets).map(|k| 100.0 + k as f64))
                .with_objectives([Objective::Perf, Objective::PerfPerCost]);
            for k in 0..2048 {
                b = b.with_workload(format!("w{k}"));
            }
            b.build()
        };
        // 1 × 2048 × 2048 × 2 = 8M > the 4.2M cap.
        let err = huge(2048).unwrap_err().to_string();
        assert!(err.contains("point cap"), "{err}");
        assert!(err.contains("2048 workloads"), "names the axes: {err}");
        // Just under the cap builds fine.
        let ok = huge(1024).unwrap();
        assert_eq!(ok.grid().len(ok.workloads.len()), 1 << 22);
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let s = Scenario::builder("round-trip")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_shape("FC(8)_SW(4)".parse().unwrap())
            .with_budgets([100.0, 333.25])
            .with_objectives([Objective::Perf, Objective::PerfPerCost])
            .with_workloads(["Turing-NLG", "GPT-3"])
            .with_link(LinkParams::latency(20_000.0).with_switch_ps(10_000.0))
            .with_backends(["analytical", "event-sim", "net-sim"])
            .with_chunks(32)
            .with_tolerance(0.145)
            .build()
            .unwrap();
        let text = s.to_json();
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(back, s);
        // A linkless scenario round-trips too.
        let s2 = Scenario::builder("linkless")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("DLRM")
            .build()
            .unwrap();
        assert_eq!(Scenario::from_json(&s2.to_json()).unwrap(), s2);
    }

    #[test]
    fn search_block_round_trips_through_json() {
        let base = |search: SearchConfig| {
            Scenario::builder("adaptive")
                .with_shape("RI(4)_SW(8)".parse().unwrap())
                .with_budgets([100.0, 200.0, 300.0])
                .with_objectives([Objective::Perf])
                .with_workload("w")
                .with_search(search)
                .build()
                .unwrap()
        };
        let plain = base(SearchConfig::default());
        assert_eq!(Scenario::from_json(&plain.to_json()).unwrap(), plain);
        let full = base(SearchConfig {
            seed_budgets: 12,
            refine_radius: 2,
            max_rounds: 7,
            max_evals: 4000,
            cosearch: Some(Cosearch {
                model: "MSFT-1T".into(),
                tp: vec![8, 16, 32],
                global_batch: 2048,
            }),
        });
        assert_eq!(Scenario::from_json(&full.to_json()).unwrap(), full);
        // Omitted knobs take the documented defaults.
        let text = "{\"name\": \"d\", \"shapes\": [\"RI(4)_SW(8)\"], \"budgets\": [100], \
                    \"objectives\": [\"perf\"], \"workloads\": [\"w\"], \"backends\": [], \"search\": {}}";
        let parsed = Scenario::from_json(text).unwrap();
        assert_eq!(parsed.search, Some(SearchConfig::default()));
    }

    /// The satellite regression: a typo'd `serach` block must be a
    /// field-precise parse error, never a silent exhaustive sweep.
    #[test]
    fn scenario_rejects_typoed_search_block() {
        let base = Scenario::builder("typo")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("w")
            .with_search(SearchConfig::default())
            .build()
            .unwrap();
        let typo = base.to_json().replace("\"search\"", "\"serach\"");
        let err = Scenario::from_json(&typo).unwrap_err().to_string();
        assert!(err.contains("unknown scenario field \"serach\""), "{err}");
        // Typos inside the search and cosearch objects are field-precise too.
        let text = |search: &str| {
            format!(
                "{{\"name\": \"t\", \"shapes\": [\"RI(4)_SW(8)\"], \"budgets\": [100], \
                 \"objectives\": [\"perf\"], \"workloads\": [\"w\"], \"backends\": [], \"search\": {search}}}"
            )
        };
        let err = Scenario::from_json(&text("{\"max_round\": 3}")).unwrap_err().to_string();
        assert!(err.contains("unknown search field \"max_round\""), "{err}");
        let err = Scenario::from_json(&text(
            "{\"cosearch\": {\"model\": \"M\", \"tp\": [8], \"global_batch\": 64, \"dp\": 4}}",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown cosearch field \"dp\""), "{err}");
        // And malformed knobs are rejected with their field named.
        let err = Scenario::from_json(&text("{\"seed_budgets\": 2.5}")).unwrap_err().to_string();
        assert!(err.contains("search field \"seed_budgets\""), "{err}");
        let err = Scenario::from_json(&text("{\"seed_budgets\": 1}")).unwrap_err().to_string();
        assert!(err.contains("seed_budgets"), "{err}");
    }

    #[test]
    fn budgets_ladder_expands_linear_and_geometric() {
        let text = |budgets: &str| {
            format!(
                "{{\"name\": \"l\", \"shapes\": [\"RI(4)_SW(8)\"], \"budgets\": {budgets}, \
                 \"objectives\": [\"perf\"], \"workloads\": [\"w\"], \"backends\": []}}"
            )
        };
        let s = Scenario::from_json(&text("{\"from\": 100, \"to\": 500, \"count\": 5}")).unwrap();
        assert_eq!(s.budgets, vec![100.0, 200.0, 300.0, 400.0, 500.0]);
        let s = Scenario::from_json(&text(
            "{\"from\": 100, \"to\": 400, \"count\": 3, \"scale\": \"geometric\"}",
        ))
        .unwrap();
        assert_eq!(s.budgets.len(), 3);
        assert_eq!(s.budgets[0], 100.0);
        assert!((s.budgets[1] - 200.0).abs() < 1e-9);
        assert_eq!(s.budgets[2], 400.0);
        let err = Scenario::from_json(&text("{\"from\": 100, \"to\": 500, \"count\": 1}"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("\"count\" must be an integer >= 2"), "{err}");
        let err =
            Scenario::from_json(&text("{\"from\": 100, \"to\": 500}")).unwrap_err().to_string();
        assert!(err.contains("needs number field \"count\""), "{err}");
        let err =
            Scenario::from_json(&text("{\"from\": 100, \"to\": 500, \"count\": 4, \"step\": 2}"))
                .unwrap_err()
                .to_string();
        assert!(err.contains("unknown budgets field \"step\""), "{err}");
        let err = Scenario::from_json(&text(
            "{\"from\": 100, \"to\": 500, \"count\": 4, \"scale\": \"log\"}",
        ))
        .unwrap_err()
        .to_string();
        assert!(err.contains("\"scale\""), "{err}");
    }

    /// A ladder's `"count"` is bounded before it is expanded: `1e12`
    /// once asked for an 8 TB allocation, whose failure aborts.
    #[test]
    fn budgets_ladder_count_is_bounded_before_expansion() {
        let text = |count: &str| {
            format!(
                "{{\"name\": \"l\", \"shapes\": [\"RI(4)_SW(8)\"], \
                 \"budgets\": {{\"from\": 100, \"to\": 1000, \"count\": {count}}}, \
                 \"objectives\": [\"perf\"], \"workloads\": [\"w\"], \"backends\": [], \
                 \"search\": {{}}}}"
            )
        };
        let over = Scenario::MAX_GRID_POINTS + 1;
        for count in ["1e12".to_string(), over.to_string()] {
            let err = Scenario::from_json(&text(&count)).unwrap_err().to_string();
            assert!(
                err.contains("budgets ladder field \"count\" must be at most 4194304"),
                "{err}"
            );
        }
        let at_cap = Scenario::from_json(&text(&Scenario::MAX_GRID_POINTS.to_string())).unwrap();
        assert_eq!(at_cap.budgets.len(), Scenario::MAX_GRID_POINTS);
    }

    /// Grids above the exhaustive point cap are rejected without a
    /// search block and legal with one — the adaptive driver never
    /// materializes the nominal grid.
    #[test]
    fn search_scenarios_may_exceed_the_point_cap() {
        let over = || {
            Scenario::builder("huge")
                .with_shape("RI(4)_SW(8)".parse().unwrap())
                .with_budgets((0..Scenario::MAX_GRID_POINTS + 1).map(|i| 100.0 + i as f64))
                .with_objectives([Objective::Perf])
                .with_workload("w")
        };
        let err = over().build().unwrap_err().to_string();
        assert!(err.contains("point cap"), "{err}");
        assert!(err.contains("\"search\" block"), "the error must point at search: {err}");
        let ok = over().with_search(SearchConfig::default()).build().unwrap();
        assert!(ok.grid().len(ok.workloads.len()) > Scenario::MAX_GRID_POINTS);
    }

    #[test]
    fn scenario_builder_validates() {
        let base = || {
            Scenario::builder("v")
                .with_shape("RI(4)_SW(8)".parse().unwrap())
                .with_budgets([100.0])
                .with_objectives([Objective::Perf])
                .with_workload("w")
        };
        assert!(base().build().is_ok());
        assert!(Scenario::builder("").build().is_err());
        assert!(base().with_chunks(0).build().is_err());
        assert!(base().with_tolerance(-1.0).build().is_err());
        assert!(base().with_tolerance(f64::NAN).build().is_err());
        let no_shapes = Scenario::builder("x")
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("w");
        assert!(no_shapes.build().is_err());
    }

    /// A few bytes of `"chunks"` must not ask a chunk-pipelined backend
    /// for per-chunk state it cannot allocate: counts above
    /// [`Scenario::MAX_CHUNKS`] are rejected with the field named.
    #[test]
    fn chunks_are_bounded() {
        let base = Scenario::builder("c")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("w")
            .build()
            .unwrap();
        let with = |n: &str| {
            let text = base.to_json().replacen("\"chunks\": 64", &format!("\"chunks\": {n}"), 1);
            assert!(text.contains(n));
            Scenario::from_json(&text)
        };
        for n in ["1e12", "65537"] {
            let err = with(n).unwrap_err().to_string();
            assert!(err.contains("field \"chunks\" must be at most 65536"), "{n}: {err}");
        }
        assert_eq!(with("65536").unwrap().chunks, Scenario::MAX_CHUNKS);
    }

    /// Warm start is the only solve policy: scenario files may still say
    /// `"warm_start": true`; anything else is an error naming the field.
    #[test]
    fn warm_start_parses_only_as_true() {
        let base = Scenario::builder("w")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("w")
            .build()
            .unwrap();
        let with = |v: &str| {
            let field = format!("\"warm_start\": {v}, \"tolerance\"");
            Scenario::from_json(&base.to_json().replacen("\"tolerance\"", &field, 1))
        };
        assert_eq!(with("true").unwrap(), base);
        for v in ["false", "1", "null"] {
            let err = with(v).unwrap_err().to_string();
            assert!(err.contains("field \"warm_start\" must be true"), "{v}: {err}");
        }
    }

    #[test]
    fn scenario_rejects_wrong_schema_and_bad_fields() {
        let err = Scenario::from_json("{\"schema\": \"other-v9\", \"name\": \"x\"}").unwrap_err();
        assert!(err.to_string().contains("unsupported scenario schema"));
        let err = Scenario::from_json("{\"name\": \"x\", \"shapes\": [1]}").unwrap_err();
        assert!(err.to_string().contains("must hold strings"));
        let err = Scenario::from_json("not json").unwrap_err();
        assert!(err.to_string().contains("invalid JSON"));
        // A typo'd field must not silently revert to its default.
        let base = Scenario::builder("t")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("w")
            .build()
            .unwrap();
        let typo = base.to_json().replace("\"tolerance\"", "\"tolerence\"");
        let err = Scenario::from_json(&typo).unwrap_err();
        assert!(err.to_string().contains("unknown scenario field \"tolerence\""), "{err}");
        let typo = base.to_json().replace("\"alpha_ps\"", "\"alphaps\"");
        if typo.contains("alphaps") {
            assert!(Scenario::from_json(&typo).is_err());
        }
        // Non-finite / non-positive budgets are rejected at build time,
        // not silently swept at NaN bandwidth.
        let bad_budget = base.to_json().replace("[100]", "[\"NaN\"]");
        let err = Scenario::from_json(&bad_budget).unwrap_err();
        assert!(err.to_string().contains("budgets must be finite"), "{err}");
        let builder = Scenario::builder("b")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([-5.0])
            .with_objectives([Objective::Perf])
            .with_workload("w");
        assert!(builder.build().is_err());
    }

    /// A scenario file with the same key twice must be rejected at the
    /// parser, not resolved by silent last-write-wins — a hand-edited
    /// file with two `"tolerance"` lines would otherwise judge at
    /// whichever one happened to come last.
    #[test]
    fn scenario_json_rejects_duplicate_object_keys() {
        let base = Scenario::builder("dup")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("w")
            .with_tolerance(0.25)
            .build()
            .unwrap();
        let text = base.to_json();
        let dup =
            text.replacen("\"tolerance\": 0.25", "\"tolerance\": 0.1, \"tolerance\": 0.25", 1);
        assert_ne!(dup, text, "test must actually inject a duplicate key");
        let err = Scenario::from_json(&dup).unwrap_err().to_string();
        assert!(err.contains("duplicate object key \"tolerance\""), "{err}");
        assert!(err.contains("invalid JSON at byte"), "dup keys carry a position: {err}");
        // Nested objects are covered by the same check.
        let err = JsonParser::parse("{\"a\": {\"b\": 1, \"b\": 2}}").unwrap_err().to_string();
        assert!(err.contains("duplicate object key \"b\""), "{err}");
    }

    /// `"tolerance": "NaN"` decodes to a float (the bit-exact record
    /// format quotes non-finite values), so the scenario parser needs
    /// its own finiteness check with a precise error — not a generic
    /// builder complaint after the parse already "succeeded".
    #[test]
    fn scenario_json_rejects_non_finite_tolerance() {
        let base = Scenario::builder("nf")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("w")
            .with_tolerance(0.25)
            .build()
            .unwrap();
        for bad in ["\"NaN\"", "\"Infinity\"", "\"-Infinity\""] {
            let text = base.to_json().replacen("0.25", bad, 1);
            let err = Scenario::from_json(&text).unwrap_err().to_string();
            assert!(err.contains("field \"tolerance\" must be a finite number"), "{bad}: {err}");
        }
    }

    #[test]
    fn registry_rejects_duplicates_and_names_unknowns() {
        let mut r = BackendRegistry::new();
        assert!(r.contains("analytical"));
        assert!(r.contains("analytical-offload"));
        let dup = r.register("analytical", |_| Box::new(Analytical::new()));
        assert!(dup.unwrap_err().to_string().contains("already registered"));
        let missing = r.build("astra-sim", &BackendConfig::default()).err().expect("unknown name");
        let msg = missing.to_string();
        assert!(msg.contains("unknown backend \"astra-sim\""), "{msg}");
        assert!(msg.contains("analytical"), "error must list known names: {msg}");
        r.register("custom", |_| Box::new(Analytical::new())).unwrap();
        assert_eq!(r.build("custom", &BackendConfig::default()).unwrap().name(), "analytical");
    }

    #[test]
    fn session_n0_is_a_plain_sweep() {
        let grid = small_grid();
        let wls = [planned_workload("a", 1.0)];
        let cm = CostModel::default();
        let report = Session::new(&cm).run(&grid, &wls, &[]);
        assert_eq!(report.sweep.results.len(), grid.len(1));
        assert!(report.divergence.pairs.is_empty());
        assert_eq!(report.divergence.n_backends(), 0);
        assert!(report.divergence.within_tolerance());
        assert!(report.divergence.summary().contains("no pairs"));
    }

    #[test]
    fn session_prices_all_pairs_for_n4() {
        let grid = small_grid();
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let skew = ScaledBackend::new(Analytical::new(), 1.5, "skewed");
        let report = Session::new(&cm).with_tolerance(0.10).run(&grid, &wls, &[&a, &a, &skew, &a]);
        // C(4, 2) = 6 pairs, in lexicographic order.
        assert_eq!(report.divergence.pairs.len(), 6);
        assert_eq!(
            DivergenceMatrix::pair_indices(4),
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        );
        // Pairs not involving the skew agree exactly; pairs with it are 1/3 off.
        for (k, &(i, j)) in DivergenceMatrix::pair_indices(4).iter().enumerate() {
            let pair = &report.divergence.pairs[k];
            assert_eq!(pair, report.divergence.pair_between(i, j).unwrap());
            assert_eq!(pair, report.divergence.pair_between(j, i).unwrap());
            if i == 2 || j == 2 {
                assert!((pair.max_rel_error() - 1.0 / 3.0).abs() < 1e-12);
            } else {
                assert_eq!(pair.max_rel_error(), 0.0);
            }
        }
        assert!(!report.divergence.within_tolerance());
        assert!((report.divergence.max_rel_error() - 1.0 / 3.0).abs() < 1e-12);
        assert!(report.divergence.pair("analytical", "skewed").is_some());
        assert_eq!(report.divergence.summary().lines().count(), 6);
    }

    #[test]
    fn serial_and_parallel_sessions_are_bit_identical() {
        let grid = small_grid();
        let wls = [planned_workload("a", 1.0), planned_workload("b", 4.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let parallel = Session::new(&cm).run(&grid, &wls, &[&a, &a]);
        let serial = Session::new(&cm).with_mode(ExecMode::Serial).run(&grid, &wls, &[&a, &a]);
        assert_eq!(parallel.sweep.results, serial.sweep.results);
        assert_eq!(parallel.divergence, serial.divergence);
    }

    #[test]
    fn sinks_stream_rows_in_grid_order_and_jsonl_round_trips() {
        let grid = small_grid();
        let wls = [planned_workload("a", 1.0), planned_workload("b", 4.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let skew = ScaledBackend::new(Analytical::new(), 1.02, "near");
        let mut collector = CollectorSink::new();
        let mut jsonl = JsonLinesSink::new(Vec::<u8>::new());
        let mut console = ConsoleTableSink::new(Vec::<u8>::new());
        let session = Session::new(&cm).with_tolerance(0.05);
        let report = session.run_with_sinks(
            &grid,
            &wls,
            &[&a, &skew],
            &mut [&mut collector, &mut jsonl, &mut console],
        );
        let n = grid.len(wls.len());
        assert_eq!(collector.rows.len(), n);
        for (i, row) in collector.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert_eq!(row.secs.len(), 2);
            assert!(row.error.is_none());
        }
        // JSON-lines stream: header + n records + summary, and records
        // parse back bit-identically to the collector's rows.
        let text = String::from_utf8(jsonl.into_inner()).unwrap();
        assert_eq!(text.lines().count(), n + 2);
        assert!(text.lines().next().unwrap().contains("libra-run-v1"));
        assert!(text.lines().last().unwrap().contains("within_tolerance"));
        let parsed = records_from_jsonl(&text).unwrap();
        assert_eq!(parsed, collector.rows);
        // Console table: header + n rows + footer summary lines.
        let table = String::from_utf8(console.into_inner()).unwrap();
        assert!(table.contains("shape"));
        assert!(table.contains("near"));
        assert!(report.divergence.within_tolerance());
    }

    #[test]
    fn record_rows_surface_errors() {
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf]);
        let bad = crate::sweep::FnWorkload::new("bad", |_: &NetworkShape| {
            Err(LibraError::BadRequest("unmappable".into()))
        });
        let cm = CostModel::default();
        let mut collector = CollectorSink::new();
        let a = Analytical::new();
        Session::new(&cm).run_with_sinks(&grid, &[bad], &[&a, &a], &mut [&mut collector]);
        assert_eq!(collector.rows.len(), 1);
        let row = &collector.rows[0];
        assert!(row.error.as_deref().unwrap().contains("unmappable"));
        assert_eq!(row.weighted_time, None);
        // Error rows round-trip through JSON-lines too.
        assert_eq!(records_from_jsonl(&row.to_json_line()).unwrap(), vec![row.clone()]);
    }

    #[test]
    fn scenario_session_runs_via_registry() {
        let scenario = Scenario::builder("unit")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0, 200.0])
            .with_objectives([Objective::Perf])
            .with_workload("allreduce-2g")
            .with_backends(["analytical", "analytical-offload"])
            .with_tolerance(1.0)
            .build()
            .unwrap();
        let registry = BackendRegistry::new();
        let wls = [planned_workload("allreduce-2g", 2.0)];
        let cm = CostModel::default();
        let session = scenario.session(&cm);
        assert_eq!(session.tolerance(), 1.0);
        let report = session.run_scenario(&scenario, &wls, &registry).unwrap();
        assert_eq!(report.sweep.results.len(), 2);
        assert_eq!(report.divergence.backends, vec!["analytical", "analytical-offload"]);
        assert_eq!(report.divergence.pairs.len(), 1);
        // Unknown backend names fail loudly.
        let broken = Scenario { backends: vec!["nope".into()], ..scenario.clone() };
        let err = session.run_scenario(&broken, &wls, &registry).unwrap_err();
        assert!(err.to_string().contains("unknown backend"));
    }

    #[test]
    fn poisoned_backend_times_survive_the_jsonl_round_trip() {
        let grid = SweepGrid::new()
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf]);
        let wls = [planned_workload("a", 1.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let poisoned = ScaledBackend::new(Analytical::new(), f64::NAN, "poisoned");
        let mut jsonl = JsonLinesSink::new(Vec::<u8>::new());
        Session::new(&cm).run_with_sinks(&grid, &wls, &[&a, &poisoned], &mut [&mut jsonl]);
        let stream = String::from_utf8(jsonl.into_inner()).unwrap();
        // The NaN time is encoded (as "NaN"), not dropped, and the stream
        // re-parses instead of erroring — shard aggregation must not be
        // poisoned by the very divergence cross-validation exists to catch.
        let rows = records_from_jsonl(&stream).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].secs.len(), 2);
        assert!(rows[0].secs[0].is_finite());
        assert!(rows[0].secs[1].is_nan());
        assert!(stream.lines().last().unwrap().contains("\"NaN\""), "summary max_rel_error");
    }

    /// A parsed line that is neither a record nor a known header/summary
    /// (e.g. a record truncated before its `"index"` survived) must be a
    /// hard error naming the line — not silently dropped, which would let
    /// a partially-written shard stream merge "cleanly" with missing
    /// points. Unparseable JSON gets the same line-numbered treatment.
    /// A partial stream ([`crate::dispatch::partial_records`], the same
    /// reader) drops such a line as a torn tail when it is the last line,
    /// and rejects it earlier.
    #[test]
    fn records_from_jsonl_errors_on_unrecognized_or_truncated_lines() {
        use crate::dispatch::partial_records;
        let header = "{\"schema\": \"libra-run-v1\", \"scenario\": null, \"backends\": [], \
                      \"points\": 1, \"tolerance\": 0.1}";
        let summary = "{\"summary\": {\"results\": 1}}";
        let record = "{\"index\": 0, \"shape\": \"RI(4)\", \"workload\": \"w\", \
                      \"budget\": 100, \"objective\": \"perf\", \"weighted_time\": 1.0, \
                      \"cost\": 1.0, \"speedup\": 1.0, \"secs\": [], \"error\": null}";
        let ok = format!("{header}\n{record}\n{summary}\n");
        assert_eq!(records_from_jsonl(&ok).unwrap().len(), 1);
        assert_eq!(partial_records(&ok), records_from_jsonl(&ok));

        // A truncated record that still parses as JSON but lost "index".
        let truncated = format!("{header}\n{{\"shape\": \"RI(4)\", \"budget\": 100}}\n");
        let err = records_from_jsonl(&truncated).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("neither a record"), "{err}");
        assert_eq!(partial_records(&truncated), Ok(vec![]));
        let err = partial_records(&format!("{truncated}{record}\n")).unwrap_err().to_string();
        assert!(err.contains("line 2") && err.contains("neither a record"), "{err}");

        // A line that is not JSON at all: a record torn mid-line.
        let mangled = format!("{header}\n{record}\n{{\"index\": 1, \"shape");
        let err = records_from_jsonl(&mangled).unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
        assert_eq!(partial_records(&mangled).unwrap().len(), 1);

        // A record with "index" but a missing required field.
        let partial = format!("{header}\n{{\"index\": 0, \"shape\": \"RI(4)\"}}\n");
        let err = records_from_jsonl(&partial).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        assert_eq!(partial_records(&partial), Ok(vec![]));

        // A record whose index is negative, fractional or not a number
        // (each once read as index 0 or 1). The stream error labels the
        // record's reason once, as a malformed stream.
        for index in ["-1", "0.9", "1.5", "\"NaN\""] {
            let bad = record.replacen("\"index\": 0", &format!("\"index\": {index}"), 1);
            let err = records_from_jsonl(&format!("{header}\n{bad}\n{summary}\n")).unwrap_err();
            assert!(matches!(err, LibraError::RecordStream(_)), "{err}");
            let err = err.to_string();
            assert!(err.contains("line 2"), "{index}: {err}");
            assert!(err.contains("field \"index\" must be a non-negative integer"), "{err}");
            assert!(!err.contains("invalid design request"), "{err}");
            assert_eq!(partial_records(&format!("{header}\n{bad}\n")), Ok(vec![]));
            let err =
                partial_records(&format!("{header}\n{bad}\n{record}\n")).unwrap_err().to_string();
            assert!(err.contains("line 2") && err.contains("field \"index\""), "{err}");
        }
    }

    /// Two streams pasted together must never merge as one run: a second
    /// header, a second summary, or anything after the summary is a hard
    /// error naming the 1-based line (see the dispatcher's shard-merge
    /// path, which feeds one stream per shard) — for a partial stream
    /// too, even when the offending line is the last one.
    #[test]
    fn records_from_jsonl_rejects_concatenated_streams() {
        let header = "{\"schema\": \"libra-run-v1\", \"scenario\": null, \"backends\": [], \
                      \"points\": 1, \"tolerance\": 0.1}";
        let summary = "{\"summary\": {\"results\": 1}}";
        let record = "{\"index\": 0, \"shape\": \"RI(4)\", \"workload\": \"w\", \
                      \"budget\": 100, \"objective\": \"perf\", \"weighted_time\": 1.0, \
                      \"cost\": 1.0, \"speedup\": 1.0, \"secs\": [], \"error\": null}";
        let run = format!("{header}\n{record}\n{summary}\n");
        // (stream, the line at fault, what the error says)
        let cases = [
            // Duplicate header mid-stream.
            (format!("{header}\n{record}\n{header}\n"), "line 3", "duplicate run header"),
            // A record after the summary.
            (format!("{run}{record}\n"), "line 4", "after the summary"),
            // A full second run appended (header right after the summary).
            (format!("{run}{run}"), "line 4", "after the summary"),
            // Duplicate summary.
            (format!("{run}{summary}\n"), "line 4", "duplicate summary"),
            // Torn garbage after the summary.
            (format!("{run}{{\"ind"), "line 4", "after the summary"),
        ];
        for (stream, line, why) in cases {
            for read in [records_from_jsonl, crate::dispatch::partial_records] {
                let err = read(&stream).unwrap_err().to_string();
                assert!(err.contains(line), "{err}");
                assert!(err.contains(why), "{err}");
            }
        }
    }

    /// `pair(a, b)` and `pair(b, a)` resolve to the same report, so a
    /// scenario file's backend order can never turn a merge-side lookup
    /// into a silent `None` (see the satellite note on
    /// [`DivergenceMatrix::pair`]).
    #[test]
    fn pair_lookup_is_order_insensitive() {
        let grid = small_grid();
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let a = Analytical::new();
        let skew = ScaledBackend::new(Analytical::new(), 1.1, "skewed");
        let offload = ScaledBackend::new(Analytical::new(), 1.05, "offload");
        let report = Session::new(&cm).run(&grid, &wls, &[&a, &skew, &offload]);
        for (x, y) in [("analytical", "skewed"), ("skewed", "offload"), ("analytical", "offload")] {
            let fwd = report.divergence.pair(x, y).expect("forward lookup resolves");
            let rev = report.divergence.pair(y, x).expect("reverse lookup resolves");
            assert_eq!(fwd, rev, "{x}/{y} must resolve identically in both orders");
        }
        assert!(report.divergence.pair("analytical", "nonexistent").is_none());
    }

    /// [`small_grid`] as a scenario of one planned workload `"a"`, priced
    /// by `analytical` and a 2 % `skewed` copy (see [`skewed_registry`]).
    fn small_scenario() -> Scenario {
        Scenario::builder("small")
            .with_shapes(small_grid().shapes().iter().cloned())
            .with_budgets(small_grid().budgets().iter().copied())
            .with_objectives([Objective::Perf])
            .with_workload("a")
            .with_backends(["analytical", "skewed"])
            .build()
            .unwrap()
    }

    fn skewed_registry() -> BackendRegistry {
        let mut registry = BackendRegistry::new();
        registry
            .register("skewed", |_| Box::new(ScaledBackend::new(Analytical::new(), 1.02, "skewed")))
            .unwrap();
        registry
    }

    /// A ranged run's records are bit-identical to the corresponding
    /// slice of the full run's — including seeded points whose warm-start
    /// group anchor lies outside the range — and its indices stay global.
    #[test]
    fn ranged_session_runs_match_the_full_run_slice() {
        let scenario = small_scenario();
        let registry = skewed_registry();
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();

        let mut full = CollectorSink::new();
        Session::new(&cm)
            .run_scenario_with_sinks(&scenario, &wls, &registry, &mut [&mut full])
            .unwrap();
        assert_eq!(full.rows.len(), 4);

        // 1..3 straddles the two shapes; index 1 (first shape's second
        // budget) is seeded from an out-of-range anchor at index 0.
        let mut sharded = Vec::new();
        for range in [0..1, 1..3, 3..4] {
            let mut shard = CollectorSink::new();
            Session::new(&cm)
                .run_scenario_range_with_sinks(&scenario, &wls, &registry, range, &mut [&mut shard])
                .unwrap();
            sharded.extend(shard.rows);
        }
        assert_eq!(sharded, full.rows, "shard concatenation must be bit-identical");

        let bad = Session::new(&cm).run_scenario_range_with_sinks(
            &scenario,
            &wls,
            &registry,
            2..9,
            &mut [],
        );
        assert!(bad.unwrap_err().to_string().contains("does not fit"));
    }

    /// A ranged run reads only its cells and their group anchors from
    /// the store: with every point stored, the 1..3 shard makes three
    /// lookups (indices 1 and 2, and index 1's anchor at 0), not one per
    /// grid point, and solves nothing.
    #[test]
    fn ranged_runs_read_only_their_cells_and_anchors_from_the_store() {
        let scenario = small_scenario();
        let registry = skewed_registry();
        let wls = [planned_workload("a", 2.0)];
        let cm = CostModel::default();
        let path = std::env::temp_dir()
            .join(format!("libra-scenario-test-{}-ranged-store.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let full = Session::new(&cm).with_store(&path).unwrap();
        full.run_scenario(&scenario, &wls, &registry).unwrap();
        assert_eq!(full.engine().store_stats().unwrap().staged, 4);

        let shard = Session::new(&cm).with_store(&path).unwrap();
        let report =
            shard.run_scenario_range_with_sinks(&scenario, &wls, &registry, 1..3, &mut []).unwrap();
        assert_eq!(report.sweep.results.len(), 2);
        assert_eq!(shard.engine().store_stats().unwrap().hits, 3);
        assert_eq!(shard.engine().cache_stats().design_misses, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_scenario_judges_at_the_scenario_tolerance() {
        let scenario = Scenario::builder("tol")
            .with_shape("RI(4)_SW(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([Objective::Perf])
            .with_workload("allreduce-2g")
            .with_backends(["analytical", "skewed"])
            .with_tolerance(0.5)
            .build()
            .unwrap();
        let mut registry = BackendRegistry::new();
        registry
            .register("skewed", |_| Box::new(ScaledBackend::new(Analytical::new(), 1.2, "skewed")))
            .unwrap();
        let wls = [planned_workload("allreduce-2g", 2.0)];
        let cm = CostModel::default();
        // A session at a *tighter* default tolerance still judges the
        // scenario at the scenario's own 0.5 — scenario files carry their
        // verdict thresholds with them.
        let session = Session::new(&cm).with_tolerance(0.01);
        let report = session.run_scenario(&scenario, &wls, &registry).unwrap();
        assert_eq!(report.divergence.pairs[0].tolerance, 0.5);
        assert!(report.divergence.within_tolerance());
        // Plain runs keep using the session tolerance.
        let skew = ScaledBackend::new(Analytical::new(), 1.2, "skewed");
        let a = Analytical::new();
        let plain = session.run(&scenario.grid(), &wls, &[&a, &skew]);
        assert_eq!(plain.divergence.pairs[0].tolerance, 0.01);
        assert!(!plain.divergence.within_tolerance());
    }

    #[test]
    fn objective_names_round_trip() {
        for o in [Objective::Perf, Objective::PerfPerCost] {
            assert_eq!(objective_from_name(objective_name(o)).unwrap(), o);
        }
        assert!(objective_from_name("speed").is_err());
    }
}
