//! In-memory spans and the timing wrappers the traced run installs
//! around each layer's public entry points.
//!
//! Every span is a leaf under the op that caused it: name, start, end,
//! the op's root span as parent, and the op index. Spans stay in memory
//! and are written out once, when the run ends. The wrappers register
//! under the wrapped items' own names, so headers, fingerprints and
//! record bytes are unchanged by tracing.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use libra_bench::scenario::RecordRow;
use libra_bench::sweep::{FnWorkload, SweepWorkload};
use libra_bench::{
    default_registry, scenario_workloads, BackendRegistry, ReportSink, Scenario, SessionReport,
};
use libra_core::eval::{CommPlan, EvalBackend};
use libra_core::scenario::{json_escape, RunMeta};
use libra_core::LibraError;
use libra_server::WorkloadResolver;

/// One timed interval, in seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<u64>,
    pub op: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct State {
    next_id: u64,
    /// The running op: its index, root span id and start time.
    op: Option<(usize, u64, f64)>,
    spans: Vec<Span>,
}

/// The span store shared by every wrapper of one traced run.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer { epoch: Instant::now(), state: Mutex::new(State::default()) })
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a wrapper panicked while holding the span store")
    }

    /// Opens op `op`'s root span; later spans become its children.
    pub fn begin_op(&self, op: usize) {
        let start = self.now();
        let mut s = self.state();
        s.next_id += 1;
        s.op = Some((op, s.next_id, start));
    }

    /// Closes the running op's root span.
    pub fn end_op(&self) {
        let end = self.now();
        let mut s = self.state();
        if let Some((op, id, start)) = s.op.take() {
            s.spans.push(Span { id, name: "op".into(), start, end, parent: None, op: Some(op) });
        }
    }

    /// Records a span measured by the caller.
    pub fn record(&self, name: &str, start: f64, end: f64) {
        let mut s = self.state();
        s.next_id += 1;
        let id = s.next_id;
        let (parent, op) = match s.op {
            Some((op, root, _)) => (Some(root), Some(op)),
            None => (None, None),
        };
        s.spans.push(Span { id, name: name.to_string(), start, end, parent, op });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(name, start, self.now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// The spans as one JSON document, one span per line.
    pub fn to_json(&self) -> String {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
        let lines: Vec<String> = self
            .state()
            .spans
            .iter()
            .map(|s| {
                format!(
                    "  {{\"id\": {}, \"name\": {}, \"start\": {:.9}, \"end\": {:.9}, \
                     \"parent\": {}, \"op\": {}}}",
                    s.id,
                    json_escape(&s.name),
                    s.start,
                    s.end,
                    opt(s.parent.map(|p| p.to_string())),
                    opt(s.op.map(|o| o.to_string())),
                )
            })
            .collect();
        format!("{{\"spans\": [\n{}\n]}}\n", lines.join(",\n"))
    }
}

/// Per-op totals of the spans named `name`, for ops `0..n_ops`.
pub fn per_op_secs(spans: &[Span], name: &str, n_ops: usize) -> Vec<f64> {
    let mut out = vec![0.0; n_ops];
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(op) = s.op.filter(|&op| op < n_ops) {
            out[op] += s.secs();
        }
    }
    out
}

/// Per-op counts of the spans named `name`, for ops `0..n_ops`.
pub fn per_op_calls(spans: &[Span], name: &str, n_ops: usize) -> Vec<f64> {
    let mut out = vec![0.0; n_ops];
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(op) = s.op.filter(|&op| op < n_ops) {
            out[op] += 1.0;
        }
    }
    out
}

/// Per-op self time: each op's interval minus the union of its child
/// spans (children may overlap, being timed on several threads).
pub fn per_op_self_secs(spans: &[Span], n_ops: usize) -> Vec<f64> {
    let mut out = vec![0.0; n_ops];
    for root in spans.iter().filter(|s| s.parent.is_none() && s.op.is_some_and(|op| op < n_ops)) {
        let mut children: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| (s.start.max(root.start), s.end.min(root.end)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in children {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        out[root.op.expect("filtered above")] = root.secs() - covered;
    }
    out
}

/// An eval backend timed under `eval.<registry name>`.
struct TimedBackend {
    inner: Box<dyn EvalBackend>,
    span: String,
    tracer: Arc<Tracer>,
}

impl EvalBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn eval_plan(&self, n_dims: usize, bw: &[f64], plan: &CommPlan) -> Result<f64, LibraError> {
        self.tracer.time(&self.span, || self.inner.eval_plan(n_dims, bw, plan))
    }
}

/// `default_registry()` with every backend wrapped in a timer, under
/// the same names and descriptions.
pub fn traced_registry(tracer: &Arc<Tracer>) -> BackendRegistry {
    let inner = Arc::new(default_registry());
    let entries: Vec<(String, String)> =
        inner.entries().into_iter().map(|(n, d)| (n.to_string(), d.to_string())).collect();
    let mut registry = BackendRegistry::empty();
    for (name, description) in entries {
        let (inner, tracer) = (Arc::clone(&inner), Arc::clone(tracer));
        let span = format!("eval.{name}");
        let ctor_name = name.clone();
        registry
            .register_described(name, description, move |config| {
                Box::new(TimedBackend {
                    inner: inner.build(&ctor_name, config).expect("name comes from this registry"),
                    span: span.clone(),
                    tracer: Arc::clone(&tracer),
                })
            })
            .expect("names are unique in the source registry");
    }
    registry
}

/// Wraps resolved workloads so `targets` and `comm_plan` calls are timed
/// under `workloads.targets` and `workloads.plan`. The first `planned`
/// workloads carry plans: `scenario_workloads` resolves the scenario's
/// paper models (which have plans) first and appends co-search splits
/// (which have none).
pub fn traced_workloads(
    workloads: Vec<FnWorkload>,
    planned: usize,
    tracer: &Arc<Tracer>,
) -> Vec<FnWorkload> {
    workloads
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let w = Arc::new(w);
            let (tw, tt) = (Arc::clone(&w), Arc::clone(tracer));
            let timed = FnWorkload::new(w.name().to_string(), move |shape| {
                tt.time("workloads.targets", || tw.targets(shape))
            });
            if i >= planned {
                return timed;
            }
            let tt = Arc::clone(tracer);
            timed.with_plan(move |shape| {
                tt.time("workloads.plan", || w.comm_plan(shape))?.ok_or_else(|| {
                    LibraError::BadRequest(format!("workload {} lost its plan", w.name()))
                })
            })
        })
        .collect()
}

/// `scenario_workloads` plus the workload wrappers, for the server. A
/// call from a sweep worker thread (not the submit handler's validation
/// call) marks the moment the job left the queue.
pub fn traced_resolver(
    tracer: &Arc<Tracer>,
    dequeued: Arc<Mutex<Option<f64>>>,
) -> Box<WorkloadResolver> {
    let tracer = Arc::clone(tracer);
    Box::new(move |scenario: &Scenario| {
        let on_worker =
            std::thread::current().name().is_some_and(|n| n.starts_with("sweep-worker"));
        if on_worker {
            *dequeued.lock().expect("resolver mark poisoned") = Some(tracer.now());
        }
        let workloads = scenario_workloads(scenario)?;
        Ok(traced_workloads(workloads, scenario.workloads.len(), &tracer))
    })
}

/// A report sink whose callbacks are timed under `scenario.sink`.
pub struct TimedSink<'t, S> {
    inner: S,
    tracer: &'t Tracer,
}

impl<'t, S: ReportSink> TimedSink<'t, S> {
    pub fn new(tracer: &'t Tracer, inner: S) -> Self {
        TimedSink { inner, tracer }
    }
}

impl<S: ReportSink> ReportSink for TimedSink<'_, S> {
    fn on_run_start(&mut self, meta: &RunMeta<'_>) {
        let inner = &mut self.inner;
        self.tracer.time("scenario.sink", || inner.on_run_start(meta));
    }

    fn on_record(&mut self, row: &RecordRow) {
        let inner = &mut self.inner;
        self.tracer.time("scenario.sink", || inner.on_record(row));
    }

    fn on_run_end(&mut self, report: &SessionReport) {
        let inner = &mut self.inner;
        self.tracer.time("scenario.sink", || inner.on_run_end(report));
    }
}
