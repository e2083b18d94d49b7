//! Chunked multi-rail collective execution over per-dimension bandwidth
//! servers.
//!
//! Each network dimension is a FIFO server whose rate is that dimension's
//! per-NPU bandwidth. A collective is split into `chunks` equal chunks; an
//! All-Reduce chunk performs its Reduce-Scatter stages (one per spanned
//! dimension, payload shrinking by the extent after each), then All-Gather
//! stages in the exact reverse of its own RS order. Chunks pipeline: while
//! chunk 1 reduces on dim 2, chunk 2 can reduce on dim 1 — reproducing the
//! Fig. 9 timelines, including scheduling bubbles.
//!
//! The dimension-visit order is pluggable through [`ChunkScheduler`]:
//! [`FixedOrder`] implements the paper's canonical ascending multi-rail
//! order; the `libra-themis` crate provides the greedy bandwidth-aware
//! policy of the Fig. 19 study.
//!
//! [`run_batch_ext`] generalizes the engine with a [`BatchExt`]: per-
//! dimension α-β stage overheads (fixed picoseconds added to every stage's
//! service time — hop latency, switch traversal) and per-dimension
//! in-network offload flags (switch-resident reduction: a single ascending
//! pass carrying the §IV-C injection traffic, no All-Gather replay). The
//! `libra-net` network-layer backend drives the engine through this
//! surface; [`run_batch`] is the all-zero special case.
//!
//! # The allocation-free fast path
//!
//! Design-space sweeps price the same plan shapes millions of times, so the
//! engine is split into a reusable arena ([`EngineScratch`]) plus a trace
//! switch ([`Trace`]):
//!
//! * [`EngineScratch::run_jobs`] executes a batch **without allocating**
//!   once the arena has warmed up: chunk states live in a slab, their
//!   remaining/visited stage lists in two flat buffers, server queues and
//!   the event timeline are reused, and jobs are fed as borrowed
//!   [`JobSpec`]s (no `GroupSpan` clones anywhere in the fan-out).
//! * Each stage's service time is computed once, when the stage joins its
//!   server's queue, and travels with it; a server reuses its last
//!   duration while the payload's bits repeat (every chunk of a job
//!   carries the same payload per stage).
//! * Events due at the current instant — every chunk's release at time
//!   0, the `Ready` that follows each finished stage, a 0 ps stage's
//!   `Done` — go to a FIFO beside the event heap, which holds only later
//!   events. The loop pops the heap's entries at the current time, then
//!   the FIFO, and only then advances time: exactly the heap's
//!   `(time, seq)` order, pinned by a digest of every stage record of
//!   200 seeded batches (`seeded_batches_replay_the_pinned_schedule`).
//! * [`Trace::Off`] (the fast path) skips [`StageRecord`] collection and
//!   per-transfer busy-interval pushes entirely; per-dimension utilization
//!   survives as an O(1) [`DimUsage`] accumulator (total busy time + span
//!   ends + stage count). [`Trace::Full`] restores the Gantt-grade
//!   instrumentation.
//!
//! Both paths share one event loop, so their finish times are **bit
//! identical** — the repo's determinism suite (`tests/engine_determinism.rs`)
//! pins this on the golden timelines and a 60-point cross-validated sweep.
//! The classic [`run_batch`]/[`run_batch_ext`]/[`run_collective`] entry
//! points are the `Trace::Full` case on a fresh arena and behave exactly as
//! they always did.

use std::collections::VecDeque;

use libra_core::comm::{Collective, GroupSpan};

use crate::event::{transfer_with_latency_ps, EventQueue, Time};

/// Per-dimension execution extensions for [`run_batch_ext`]: α-β stage
/// overheads and in-network (switch) offload flags. [`run_batch`] is the
/// all-zero special case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchExt {
    /// `stage_overhead_ps[d]`: fixed picoseconds added to every chunk-stage
    /// serviced on dimension `d` — the bandwidth-independent α side of the
    /// α-β model (hop latency × hop count, switch traversal). Missing
    /// entries (or an empty vec) mean zero overhead.
    pub stage_overhead_ps: Vec<Time>,
    /// `offload_dims[d]`: dimension `d` performs in-network reduction.
    /// Offloadable collectives (the All-Reduce family) cross it in a
    /// single ascending pass carrying `m_chunk / Π_{j<i} e_j` bytes — the
    /// paper's §IV-C offload traffic — and skip its All-Gather replay.
    /// All-to-All and point-to-point jobs are unaffected, mirroring
    /// `CommModel::traffic`'s offloadability rule. Missing entries mean
    /// endpoint-driven execution.
    pub offload_dims: Vec<bool>,
}

impl BatchExt {
    /// No overheads, no offload — [`run_batch`]'s behaviour.
    pub fn none() -> Self {
        BatchExt::default()
    }

    /// Empties both extension vectors, keeping their allocations (used by
    /// the backends' per-phase extension reuse).
    pub fn clear(&mut self) {
        self.stage_overhead_ps.clear();
        self.offload_dims.clear();
    }

    fn overhead(&self, dim: usize) -> Time {
        self.stage_overhead_ps.get(dim).copied().unwrap_or(0)
    }

    fn offloaded(&self, dim: usize) -> bool {
        self.offload_dims.get(dim).copied().unwrap_or(false)
    }
}

/// One stage option presented to a [`ChunkScheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageOption {
    /// Physical dimension index.
    pub dim: usize,
    /// Group extent along that dimension.
    pub extent: u64,
    /// Bytes this chunk would move through the dimension at this point.
    pub bytes: f64,
    /// When the dimension's server frees of all currently queued work.
    pub server_free_at: Time,
    /// The dimension's bandwidth (GB/s).
    pub bw_gbps: f64,
    /// Fixed per-stage overhead on this dimension (ps) — the α term a
    /// latency-aware scheduler should add to its service estimates.
    pub overhead_ps: Time,
    /// Whether visiting a dimension shrinks the payload carried into later
    /// dimensions (true for the Reduce-Scatter family, false for
    /// All-to-All). Schedulers use this to weigh visit orders.
    pub shrinks: bool,
}

/// Decides which dimension a chunk visits next during its Reduce-Scatter
/// (or flat) phase. All-Gather always replays the chunk's RS order in
/// reverse — that is a correctness requirement of the algorithm, not a
/// policy choice.
pub trait ChunkScheduler {
    /// Returns an index into `options` (clamped by the engine).
    fn choose(&mut self, chunk: usize, now: Time, options: &[StageOption]) -> usize;

    /// Whether the scheduler inspects [`StageOption`]s at all. Policies
    /// that always pick index 0 ([`FixedOrder`]) return `false`, letting
    /// the engine skip option construction on the hot path — the engine
    /// then never calls [`ChunkScheduler::choose`].
    fn needs_options(&self) -> bool {
        true
    }
}

/// The canonical multi-rail order: dimensions ascending (paper §II-C).
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedOrder;

impl ChunkScheduler for FixedOrder {
    fn choose(&mut self, _chunk: usize, _now: Time, _options: &[StageOption]) -> usize {
        0 // `remaining` is kept in ascending dimension order
    }

    fn needs_options(&self) -> bool {
        false
    }
}

/// One collective to execute (owned form; see [`JobSpec`] for the borrowed
/// form the allocation-free path consumes).
#[derive(Debug, Clone)]
pub struct CollectiveJob {
    /// The collective pattern.
    pub collective: Collective,
    /// Total payload bytes per NPU.
    pub bytes: f64,
    /// The group span.
    pub span: GroupSpan,
    /// Number of pipelined chunks (the paper uses 64).
    pub chunks: usize,
    /// Simulation time at which the collective is released.
    pub release: Time,
}

/// A borrowed collective job: what [`EngineScratch::run_jobs`] actually
/// consumes. Borrowing the span is what lets plan evaluators feed the
/// engine without cloning a `GroupSpan` per operation per call.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec<'a> {
    /// The collective pattern.
    pub collective: Collective,
    /// Total payload bytes per NPU.
    pub bytes: f64,
    /// The group span (borrowed).
    pub span: &'a GroupSpan,
    /// Number of pipelined chunks.
    pub chunks: usize,
    /// Simulation time at which the collective is released.
    pub release: Time,
}

impl<'a> From<&'a CollectiveJob> for JobSpec<'a> {
    fn from(j: &'a CollectiveJob) -> Self {
        JobSpec {
            collective: j.collective,
            bytes: j.bytes,
            span: &j.span,
            chunks: j.chunks,
            release: j.release,
        }
    }
}

/// What the engine records beyond job finish times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Trace {
    /// Fast path: no [`StageRecord`]s, no per-transfer busy intervals.
    /// Per-dimension utilization is still available through the O(1)
    /// [`DimUsage`] accumulators.
    #[default]
    Off,
    /// Full instrumentation: every chunk-stage interval is recorded (Gantt
    /// rendering, golden-timeline tests) and per-dimension busy intervals
    /// are kept.
    Full,
}

/// A start/end record of one chunk-stage on one dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageRecord {
    /// Job index within the batch.
    pub job: usize,
    /// Chunk index within the job.
    pub chunk: usize,
    /// Physical dimension served.
    pub dim: usize,
    /// `true` for All-Gather stages, `false` for Reduce-Scatter/flat stages.
    pub gather: bool,
    /// Service start (ps).
    pub start: Time,
    /// Service end (ps).
    pub end: Time,
}

/// O(1) per-dimension service accumulator maintained on **every** path
/// (the fast path's replacement for the unbounded per-transfer interval
/// vector): total busy time plus the service span's end points. Because a
/// FIFO server never overlaps its own service intervals, `busy_ps` is
/// exact, not an approximation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DimUsage {
    /// Total service time on this dimension (ps).
    pub busy_ps: Time,
    /// Start of the first service interval (0 when the dim never served).
    pub first_start: Time,
    /// End of the last service interval (0 when the dim never served).
    pub last_end: Time,
    /// Number of chunk-stages serviced.
    pub stages: usize,
}

impl DimUsage {
    /// Busy fraction of the dimension within `window` picoseconds
    /// (0 for an empty window).
    pub fn utilization_in(&self, window: Time) -> f64 {
        if window == 0 {
            return 0.0;
        }
        self.busy_ps as f64 / window as f64
    }
}

/// The result of executing a batch of collectives on shared servers.
#[derive(Debug, Clone)]
pub struct CollectiveResult {
    /// Finish time of each job in the batch.
    pub finish: Vec<Time>,
    /// Busy intervals per physical dimension (sorted by start).
    pub per_dim_busy: Vec<Vec<(Time, Time)>>,
    /// Every chunk-stage service interval (Gantt source).
    pub records: Vec<StageRecord>,
}

impl CollectiveResult {
    /// The latest finish across jobs (batch makespan).
    pub fn makespan(&self) -> Time {
        self.finish.iter().copied().max().unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy)]
struct QueuedStage {
    chunk_key: usize,
    /// Service time, computed once when the stage is enqueued.
    dur: Time,
    gather: bool,
}

#[derive(Debug, Default)]
struct Server {
    bw_gbps: f64,
    overhead_ps: Time,
    free_at: Time,
    backlog_until: Time,
    queue: VecDeque<QueuedStage>,
    running: Option<usize>, // chunk key
    usage: DimUsage,
    busy: Vec<(Time, Time)>, // Trace::Full only
    /// Bits of the last stage payload priced on this server, and its
    /// service time: always a valid pair (reset to the 0-byte stage).
    last_bytes: u64,
    last_dur: Time,
}

impl Server {
    /// Service time of a `bytes` stage. Every chunk of a job carries the
    /// same payload per stage, so a repeat of the last payload's bits
    /// reuses its duration.
    fn duration(&mut self, bytes: f64) -> Time {
        if bytes.to_bits() != self.last_bytes {
            self.last_bytes = bytes.to_bits();
            self.last_dur = transfer_with_latency_ps(bytes, self.bw_gbps, self.overhead_ps);
        }
        self.last_dur
    }
}

/// Per-chunk state. Stage lists live in the scratch arena's flat buffers
/// (`rem_buf` / `vis_buf`), addressed by `(offset, len)` — a chunk owns a
/// fixed region of span-length capacity in each, so the fan-out performs
/// zero per-chunk allocations.
#[derive(Debug)]
struct ChunkState {
    job: usize,
    chunk: usize,
    /// Remaining scatter-phase stages: `rem_buf[rem_lo..rem_lo + rem_len]`,
    /// ascending dim order.
    rem_lo: usize,
    rem_len: usize,
    /// Scatter visit history `(dim, bytes)` in visit order:
    /// `vis_buf[vis_lo..vis_lo + vis_len]`; the gather half consumes it
    /// LIFO (reverse order).
    vis_lo: usize,
    vis_len: usize,
    /// Whether the gather half has begun.
    gathering: bool,
    /// Product of extents already reduced over.
    shrink: f64,
    /// Chunk payload bytes.
    m_chunk: f64,
    /// Whether this collective has an All-Gather half (All-Reduce).
    has_gather: bool,
    /// Flat traffic rule (All-to-All): `m(e−1)/e`, no shrink accumulation.
    flat: bool,
    /// Full-payload rule (point-to-point): `m` on every spanned dim.
    full: bool,
    done: bool,
}

impl ChunkState {
    fn stage_bytes(&self, extent: u64, offloaded: bool) -> f64 {
        let e = extent as f64;
        if self.full {
            self.m_chunk
        } else if self.flat {
            self.m_chunk * (e - 1.0) / e
        } else if offloaded {
            // In-network reduction: the NPU only injects its current shard
            // (§IV-C) — the switch reduces and returns the result in-line.
            self.m_chunk / self.shrink
        } else {
            self.m_chunk * (e - 1.0) / (e * self.shrink)
        }
    }
}

#[derive(Debug)]
enum Ev {
    Ready(usize), // chunk key
    Done(usize),  // dim
}

/// The engine's event timeline: an [`EventQueue`] heap for later events
/// and a FIFO for events due at the current instant. The heap's entries
/// at `now` were pushed before time reached `now`, so they precede every
/// FIFO entry in `(time, seq)` order; popping them first, then the FIFO,
/// then advancing time is exactly the heap's own order, without a heap
/// sift for the same-time `Ready` events that make up half of a run.
#[derive(Debug, Default)]
struct Timeline {
    now: Time,
    later: EventQueue<Ev>,
    due: VecDeque<Ev>,
}

impl Timeline {
    fn clear(&mut self) {
        self.now = 0;
        self.later.clear();
        self.due.clear();
    }

    fn push(&mut self, at: Time, ev: Ev) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        if at == self.now {
            self.due.push_back(ev);
        } else {
            self.later.push(at, ev);
        }
    }

    fn pop(&mut self) -> Option<(Time, Ev)> {
        if self.later.peek_time() != Some(self.now) {
            if let Some(ev) = self.due.pop_front() {
                return Some((self.now, ev));
            }
        }
        let (at, ev) = self.later.pop()?;
        self.now = at;
        Some((at, ev))
    }
}

/// The engine's reusable arena: chunk slab, flat stage buffers, server
/// pool, option buffer, event timeline, and result vectors. Create once, drive
/// [`EngineScratch::run_jobs`] arbitrarily often — after the first few runs
/// every buffer has reached steady-state capacity and execution performs
/// **zero heap allocations** (with `Trace::Off` and a scheduler that does
/// not request options).
#[derive(Debug, Default)]
pub struct EngineScratch {
    servers: Vec<Server>,
    chunks: Vec<ChunkState>,
    rem_buf: Vec<(usize, u64)>,
    vis_buf: Vec<(usize, f64)>,
    options: Vec<StageOption>,
    events: Timeline,
    finish: Vec<Time>,
    outstanding: Vec<usize>,
    records: Vec<StageRecord>,
}

impl EngineScratch {
    /// An empty arena.
    pub fn new() -> Self {
        EngineScratch::default()
    }

    fn reset(&mut self, n_dims: usize, bw: &[f64], ext: &BatchExt) {
        self.servers.truncate(n_dims);
        while self.servers.len() < n_dims {
            self.servers.push(Server::default());
        }
        for (d, s) in self.servers.iter_mut().enumerate() {
            s.bw_gbps = bw[d];
            s.overhead_ps = ext.overhead(d);
            s.free_at = 0;
            s.backlog_until = 0;
            s.running = None;
            s.queue.clear();
            s.usage = DimUsage::default();
            s.busy.clear();
            s.last_bytes = 0f64.to_bits();
            s.last_dur = transfer_with_latency_ps(0.0, s.bw_gbps, s.overhead_ps);
        }
        self.chunks.clear();
        self.rem_buf.clear();
        self.vis_buf.clear();
        self.options.clear();
        self.events.clear();
        self.finish.clear();
        self.outstanding.clear();
        self.records.clear();
    }

    /// Executes a batch of collectives on shared per-dimension servers,
    /// returning the batch makespan. Finish times, usage accumulators and
    /// (under [`Trace::Full`]) stage records stay readable on the arena
    /// until the next run.
    ///
    /// Identical inputs produce results bit-identical to
    /// [`run_batch_ext`] — the two share one event loop; only the
    /// instrumentation differs.
    ///
    /// # Panics
    /// Panics if `bw.len() < n_dims`, a spanned dimension has non-positive
    /// bandwidth, or a non-trivial job has `chunks == 0`.
    pub fn run_jobs<'a>(
        &mut self,
        n_dims: usize,
        bw: &[f64],
        ext: &BatchExt,
        jobs: impl IntoIterator<Item = JobSpec<'a>>,
        scheduler: &mut dyn ChunkScheduler,
        trace: Trace,
    ) -> Time {
        assert!(bw.len() >= n_dims, "bandwidth vector shorter than dimensionality");
        self.reset(n_dims, bw, ext);
        let EngineScratch {
            servers,
            chunks,
            rem_buf,
            vis_buf,
            options,
            events,
            finish,
            outstanding,
            records,
        } = self;

        for (ji, job) in jobs.into_iter().enumerate() {
            finish.push(job.release);
            outstanding.push(0);
            if job.span.is_trivial() || job.bytes <= 0.0 {
                continue;
            }
            assert!(job.chunks > 0, "collective must have at least one chunk");
            for &(d, _) in job.span.extents() {
                assert!(bw[d] > 0.0, "dimension {d} has non-positive bandwidth");
            }
            let extents = job.span.extents();
            let k = extents.len();
            let m_chunk = job.bytes / job.chunks as f64;
            for c in 0..job.chunks {
                let key = chunks.len();
                let mut st = ChunkState {
                    job: ji,
                    chunk: c,
                    rem_lo: rem_buf.len(),
                    rem_len: 0,
                    vis_lo: vis_buf.len(),
                    vis_len: 0,
                    gathering: false,
                    shrink: 1.0,
                    m_chunk,
                    has_gather: job.collective == Collective::AllReduce,
                    flat: job.collective == Collective::AllToAll,
                    full: job.collective == Collective::PointToPoint,
                    done: false,
                };
                if job.collective == Collective::AllGather {
                    // All-Gather-only: precompute the Reduce-Scatter-shaped
                    // sizes in ascending order; LIFO consumption yields the
                    // canonical descending execution. Offloaded dims carry
                    // the §IV-C injection traffic instead.
                    let mut shrink = 1.0f64;
                    for &(d, e) in extents {
                        let e_f = e as f64;
                        let bytes = if ext.offloaded(d) {
                            m_chunk / shrink
                        } else {
                            m_chunk * (e_f - 1.0) / (e_f * shrink)
                        };
                        vis_buf.push((d, bytes));
                        shrink *= e_f;
                    }
                    st.vis_len = k;
                    st.gathering = true;
                } else {
                    rem_buf.extend_from_slice(extents);
                    st.rem_len = k;
                    // Reserve this chunk's gather slots up front so later
                    // pushes never move another chunk's region.
                    vis_buf.resize(vis_buf.len() + k, (0, 0.0));
                }
                chunks.push(st);
                outstanding[ji] += 1;
                events.push(job.release, Ev::Ready(key));
            }
        }

        while let Some((now, ev)) = events.pop() {
            match ev {
                Ev::Ready(key) => {
                    match next_stage(
                        &mut chunks[key],
                        rem_buf,
                        vis_buf,
                        servers,
                        scheduler,
                        options,
                        now,
                        key,
                        ext,
                    ) {
                        Some((dim, bytes, gather)) => {
                            let s = &mut servers[dim];
                            let dur = s.duration(bytes);
                            s.backlog_until = s.backlog_until.max(now).saturating_add(dur);
                            s.queue.push_back(QueuedStage { chunk_key: key, dur, gather });
                            try_start(dim, s, now, events, chunks, records, trace);
                        }
                        None => {
                            let st = &mut chunks[key];
                            if !st.done {
                                st.done = true;
                                outstanding[st.job] -= 1;
                                if outstanding[st.job] == 0 {
                                    finish[st.job] = now;
                                }
                            }
                        }
                    }
                }
                Ev::Done(dim) => {
                    if let Some(key) = servers[dim].running.take() {
                        events.push(now, Ev::Ready(key));
                    }
                    try_start(dim, &mut servers[dim], now, events, chunks, records, trace);
                }
            }
        }
        finish.iter().copied().max().unwrap_or(0)
    }

    /// Per-job finish times of the last run.
    pub fn finish_times(&self) -> &[Time] {
        &self.finish
    }

    /// Per-dimension service accumulators of the last run.
    pub fn dim_usages(&self) -> impl Iterator<Item = DimUsage> + '_ {
        self.servers.iter().map(|s| s.usage)
    }

    /// Stage records of the last run (empty under [`Trace::Off`]).
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// Harvests the last run into an owned [`CollectiveResult`], moving the
    /// record and interval buffers out of the arena (they regrow on the
    /// next traced run). `per_dim_busy` is empty-per-dim under
    /// [`Trace::Off`].
    pub fn take_result(&mut self) -> CollectiveResult {
        CollectiveResult {
            finish: std::mem::take(&mut self.finish),
            per_dim_busy: self.servers.iter_mut().map(|s| std::mem::take(&mut s.busy)).collect(),
            records: std::mem::take(&mut self.records),
        }
    }
}

/// Executes a batch of collectives on shared per-dimension servers.
///
/// Jobs in the batch contend for bandwidth (used to model overlapped TP and
/// DP collectives); submit sequential phases as separate batches.
///
/// # Panics
/// Panics if `bw.len() < n_dims`, a spanned dimension has non-positive
/// bandwidth, or a non-trivial job has `chunks == 0`.
pub fn run_batch(
    n_dims: usize,
    bw: &[f64],
    jobs: &[CollectiveJob],
    scheduler: &mut dyn ChunkScheduler,
) -> CollectiveResult {
    run_batch_ext(n_dims, bw, &BatchExt::none(), jobs, scheduler)
}

/// [`run_batch`] with per-dimension α-β stage overheads and in-network
/// offload flags (see [`BatchExt`]). This is the latency-carrying engine
/// the `libra-net` network-layer backend drives; with `BatchExt::none()`
/// it is byte-for-byte [`run_batch`].
///
/// This entry point always runs fully instrumented ([`Trace::Full`]) on a
/// fresh arena; hot paths that do not need the trace should hold an
/// [`EngineScratch`] and call [`EngineScratch::run_jobs`] instead.
///
/// # Panics
/// See [`run_batch`].
pub fn run_batch_ext(
    n_dims: usize,
    bw: &[f64],
    ext: &BatchExt,
    jobs: &[CollectiveJob],
    scheduler: &mut dyn ChunkScheduler,
) -> CollectiveResult {
    let mut scratch = EngineScratch::new();
    scratch.run_jobs(n_dims, bw, ext, jobs.iter().map(JobSpec::from), scheduler, Trace::Full);
    scratch.take_result()
}

/// Picks the chunk's next stage: `(dim, bytes, is_gather)`, or `None` when
/// finished.
#[allow(clippy::too_many_arguments)] // engine-internal plumbing of disjoint arena fields
fn next_stage(
    st: &mut ChunkState,
    rem_buf: &mut [(usize, u64)],
    vis_buf: &mut [(usize, f64)],
    servers: &[Server],
    scheduler: &mut dyn ChunkScheduler,
    options: &mut Vec<StageOption>,
    now: Time,
    key: usize,
    ext: &BatchExt,
) -> Option<(usize, f64, bool)> {
    if !st.gathering {
        if let Some(pick) =
            pick_scatter(st, rem_buf, vis_buf, servers, scheduler, options, now, key, ext)
        {
            return Some(pick);
        }
        // Scatter phase exhausted.
        if st.has_gather && st.vis_len > 0 {
            st.gathering = true;
        } else if !st.gathering {
            return None;
        }
    }
    // Gather: consume the visit history LIFO (reverse order).
    if st.vis_len == 0 {
        return None;
    }
    st.vis_len -= 1;
    let (d, b) = vis_buf[st.vis_lo + st.vis_len];
    Some((d, b, true))
}

#[allow(clippy::too_many_arguments)] // engine-internal plumbing of disjoint arena fields
fn pick_scatter(
    st: &mut ChunkState,
    rem_buf: &mut [(usize, u64)],
    vis_buf: &mut [(usize, f64)],
    servers: &[Server],
    scheduler: &mut dyn ChunkScheduler,
    options: &mut Vec<StageOption>,
    now: Time,
    key: usize,
    ext: &BatchExt,
) -> Option<(usize, f64, bool)> {
    if st.rem_len == 0 {
        return None;
    }
    let lo = st.rem_lo;
    let len = st.rem_len;
    let pick = if scheduler.needs_options() {
        options.clear();
        options.extend(rem_buf[lo..lo + len].iter().map(|&(d, e)| StageOption {
            dim: d,
            extent: e,
            bytes: st.stage_bytes(e, ext.offloaded(d)),
            server_free_at: servers[d].backlog_until,
            bw_gbps: servers[d].bw_gbps,
            overhead_ps: servers[d].overhead_ps,
            shrinks: !st.flat && !st.full,
        }));
        // The scheduler receives the batch-unique chunk key so stateful
        // policies can track per-chunk plans across jobs.
        scheduler.choose(key, now, options).min(len - 1)
    } else {
        0 // FixedOrder: `remaining` is kept in ascending dimension order
    };
    let (d, e) = rem_buf[lo + pick];
    // Ordered removal within the chunk's slab region (span-length shift).
    rem_buf.copy_within(lo + pick + 1..lo + len, lo + pick);
    st.rem_len -= 1;
    let offloaded = ext.offloaded(d);
    let bytes = st.stage_bytes(e, offloaded);
    // All-Reduce remembers its visit order for the gather half — except on
    // offloaded dims, whose switch returns the reduced result in the same
    // pass (no All-Gather replay).
    if st.has_gather && !offloaded {
        vis_buf[st.vis_lo + st.vis_len] = (d, bytes);
        st.vis_len += 1;
    }
    if !st.flat && !st.full {
        st.shrink *= e as f64;
    }
    Some((d, bytes, false))
}

/// Starts the server's next queued stage if it is idle.
fn try_start(
    dim: usize,
    s: &mut Server,
    now: Time,
    events: &mut Timeline,
    chunks: &[ChunkState],
    records: &mut Vec<StageRecord>,
    trace: Trace,
) {
    if s.running.is_some() {
        return;
    }
    let Some(job) = s.queue.pop_front() else { return };
    let start = now.max(s.free_at);
    let end = start.saturating_add(job.dur);
    s.free_at = end;
    s.running = Some(job.chunk_key);
    s.usage.busy_ps = s.usage.busy_ps.saturating_add(end - start);
    if s.usage.stages == 0 {
        s.usage.first_start = start;
    }
    s.usage.last_end = s.usage.last_end.max(end);
    s.usage.stages += 1;
    if trace == Trace::Full {
        s.busy.push((start, end));
        let st = &chunks[job.chunk_key];
        records.push(StageRecord {
            job: st.job,
            chunk: st.chunk,
            dim,
            gather: job.gather,
            start,
            end,
        });
    }
    events.push(end, Ev::Done(dim));
}

/// Convenience wrapper: runs a single collective from time 0 with the given
/// scheduler.
pub fn run_collective(
    n_dims: usize,
    bw: &[f64],
    collective: Collective,
    bytes: f64,
    span: &GroupSpan,
    chunks: usize,
    scheduler: &mut dyn ChunkScheduler,
) -> CollectiveResult {
    let mut scratch = EngineScratch::new();
    scratch.run_jobs(
        n_dims,
        bw,
        &BatchExt::none(),
        [JobSpec { collective, bytes, span, chunks, release: 0 }],
        scheduler,
        Trace::Full,
    );
    scratch.take_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ps_to_secs;
    use libra_core::comm::traffic_per_dim;

    fn span2() -> GroupSpan {
        GroupSpan::new(vec![(0, 4), (1, 8)])
    }

    /// With many chunks the simulated makespan converges to the analytical
    /// bottleneck `max_i traffic_i / B_i` (plus the pipeline-fill bubble).
    #[test]
    fn converges_to_analytical_bottleneck() {
        let bw = [60.0, 20.0];
        let bytes = 8e9;
        let span = span2();
        let res = run_collective(2, &bw, Collective::AllReduce, bytes, &span, 64, &mut FixedOrder);
        let analytic: f64 = traffic_per_dim(Collective::AllReduce, bytes, &span)
            .iter()
            .map(|&(d, t)| t / 1e9 / bw[d])
            .fold(0.0, f64::max);
        let sim = ps_to_secs(res.makespan());
        assert!(sim >= analytic * 0.999, "sim {sim} < analytic {analytic}");
        assert!(
            sim <= analytic * 1.15,
            "sim {sim} should be within pipeline-bubble distance of {analytic}"
        );
    }

    /// One chunk, 2D All-Reduce: the chunk serializes through 4 stages
    /// (RS d0, RS d1, AG d1, AG d0) with exact durations.
    #[test]
    fn single_chunk_exact_schedule() {
        let bw = [10.0, 10.0];
        let bytes = 4e9;
        let span = GroupSpan::new(vec![(0, 4), (1, 2)]);
        let res = run_collective(2, &bw, Collective::AllReduce, bytes, &span, 1, &mut FixedOrder);
        // RS d0: 4·(3/4) = 3 GB → 0.3 s; RS d1: 4·(1/2)/4 = 0.5 GB → 0.05 s;
        // AG mirrors: 0.05 + 0.3. Total 0.7 s.
        assert!((ps_to_secs(res.makespan()) - 0.7).abs() < 1e-9);
        // Both dims saw exactly two service intervals.
        assert_eq!(res.per_dim_busy[0].len(), 2);
        assert_eq!(res.per_dim_busy[1].len(), 2);
        // Stage order: RS d0, RS d1, AG d1, AG d0.
        let seq: Vec<(usize, bool)> = res.records.iter().map(|r| (r.dim, r.gather)).collect();
        assert_eq!(seq, vec![(0, false), (1, false), (1, true), (0, true)]);
    }

    /// Reduce-Scatter is exactly half an All-Reduce for one chunk.
    #[test]
    fn reduce_scatter_is_half_allreduce() {
        let bw = [10.0, 10.0];
        let span = span2();
        let ar = run_collective(2, &bw, Collective::AllReduce, 2e9, &span, 1, &mut FixedOrder);
        let rs = run_collective(2, &bw, Collective::ReduceScatter, 2e9, &span, 1, &mut FixedOrder);
        assert_eq!(ar.makespan(), 2 * rs.makespan());
    }

    /// All-Gather equals Reduce-Scatter in duration (mirror image) and runs
    /// dims in descending order.
    #[test]
    fn allgather_mirrors_reduce_scatter() {
        let bw = [25.0, 5.0];
        let span = span2();
        let rs = run_collective(2, &bw, Collective::ReduceScatter, 2e9, &span, 8, &mut FixedOrder);
        let ag = run_collective(2, &bw, Collective::AllGather, 2e9, &span, 8, &mut FixedOrder);
        assert_eq!(rs.makespan(), ag.makespan());
        // First AG record of chunk 0 is the outermost dim.
        let first = ag.records.iter().find(|r| r.chunk == 0).unwrap();
        assert_eq!(first.dim, 1);
        assert!(first.gather);
    }

    /// All-to-All carries `m(e−1)/e` per dim with no shrink.
    #[test]
    fn alltoall_single_chunk() {
        let bw = [10.0, 10.0];
        let span = span2();
        let res = run_collective(2, &bw, Collective::AllToAll, 4e9, &span, 1, &mut FixedOrder);
        // d0: 4·(3/4)=3 GB → 0.3 s; d1: 4·(7/8)=3.5 GB → 0.35 s; serial 0.65.
        assert!((ps_to_secs(res.makespan()) - 0.65).abs() < 1e-9);
    }

    /// Trivial jobs finish instantly at their release time.
    #[test]
    fn trivial_span_finishes_at_release() {
        let res = run_batch(
            2,
            &[10.0, 10.0],
            &[CollectiveJob {
                collective: Collective::AllReduce,
                bytes: 1e9,
                span: GroupSpan::new(vec![]),
                chunks: 4,
                release: 123,
            }],
            &mut FixedOrder,
        );
        assert_eq!(res.finish, vec![123]);
    }

    /// Determinism: identical inputs give identical traces.
    #[test]
    fn deterministic_replay() {
        let bw = [33.0, 11.0];
        let span = span2();
        let a = run_collective(2, &bw, Collective::AllReduce, 3e9, &span, 16, &mut FixedOrder);
        let b = run_collective(2, &bw, Collective::AllReduce, 3e9, &span, 16, &mut FixedOrder);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.per_dim_busy, b.per_dim_busy);
        assert_eq!(a.records, b.records);
    }

    /// Two overlapped jobs on the same dimension contend for bandwidth.
    #[test]
    fn overlapping_jobs_contend() {
        let span = GroupSpan::new(vec![(0, 4)]);
        let job = |release| CollectiveJob {
            collective: Collective::AllReduce,
            bytes: 1e9,
            span: span.clone(),
            chunks: 4,
            release,
        };
        let one = run_batch(1, &[10.0], &[job(0)], &mut FixedOrder);
        let two = run_batch(1, &[10.0], &[job(0), job(0)], &mut FixedOrder);
        assert!(two.makespan() > one.makespan());
        assert!((two.makespan() as f64 / one.makespan() as f64 - 2.0).abs() < 0.1);
    }

    /// Pipelining overlaps dim-0 and dim-1 work: many chunks finish faster
    /// than one serial chunk.
    #[test]
    fn chunks_pipeline_across_dims() {
        let bw = [10.0, 10.0];
        let span = span2();
        let serial = run_collective(2, &bw, Collective::AllReduce, 8e9, &span, 1, &mut FixedOrder);
        let piped = run_collective(2, &bw, Collective::AllReduce, 8e9, &span, 64, &mut FixedOrder);
        assert!(piped.makespan() < serial.makespan());
    }

    /// `run_batch_ext` with the empty extension is byte-for-byte
    /// `run_batch`.
    #[test]
    fn empty_ext_matches_run_batch() {
        let bw = [33.0, 11.0];
        let job = CollectiveJob {
            collective: Collective::AllReduce,
            bytes: 3e9,
            span: span2(),
            chunks: 16,
            release: 0,
        };
        let plain = run_batch(2, &bw, std::slice::from_ref(&job), &mut FixedOrder);
        let ext = run_batch_ext(2, &bw, &BatchExt::none(), &[job], &mut FixedOrder);
        assert_eq!(plain.finish, ext.finish);
        assert_eq!(plain.records, ext.records);
    }

    /// Per-dimension stage overhead delays every stage serviced on that
    /// dimension: a single chunk's serial schedule grows by exactly
    /// (#stages on dim) × overhead.
    #[test]
    fn stage_overhead_extends_every_stage() {
        let bw = [10.0, 10.0];
        let span = GroupSpan::new(vec![(0, 4), (1, 2)]);
        let job = CollectiveJob {
            collective: Collective::AllReduce,
            bytes: 4e9,
            span,
            chunks: 1,
            release: 0,
        };
        let alpha: Time = 1_000_000; // 1 µs per stage on dim 0 only
        let ext = BatchExt { stage_overhead_ps: vec![alpha, 0], offload_dims: vec![] };
        let base = run_batch(2, &bw, std::slice::from_ref(&job), &mut FixedOrder);
        let slow = run_batch_ext(2, &bw, &ext, &[job], &mut FixedOrder);
        // The serial chunk visits dim 0 twice (RS + AG).
        assert_eq!(slow.makespan(), base.makespan() + 2 * alpha);
    }

    /// Offloaded dims carry the §IV-C injection traffic in a single pass:
    /// a fully offloaded All-Reduce has ndims stages per chunk (no gather
    /// half) with bytes `m_chunk / Π_{j<i} e_j`.
    #[test]
    fn offloaded_allreduce_single_pass_traffic() {
        let bw = [10.0, 10.0];
        let span = span2(); // (0,4), (1,8)
        let job = CollectiveJob {
            collective: Collective::AllReduce,
            bytes: 4e9,
            span,
            chunks: 1,
            release: 0,
        };
        let ext = BatchExt { stage_overhead_ps: vec![], offload_dims: vec![true, true] };
        let res = run_batch_ext(2, &bw, &ext, &[job], &mut FixedOrder);
        // Stages: dim0 injects m = 4 GB (0.4 s), dim1 injects m/4 = 1 GB
        // (0.1 s); no All-Gather replay. Serial chunk: 0.5 s.
        let seq: Vec<(usize, bool)> = res.records.iter().map(|r| (r.dim, r.gather)).collect();
        assert_eq!(seq, vec![(0, false), (1, false)]);
        assert!((ps_to_secs(res.makespan()) - 0.5).abs() < 1e-9);
    }

    /// Mixed offload: only the offloaded dim skips its gather replay; the
    /// endpoint-driven dim still mirrors.
    #[test]
    fn mixed_offload_keeps_endpoint_gather() {
        let bw = [10.0, 10.0];
        let span = GroupSpan::new(vec![(0, 4), (1, 2)]);
        let job = CollectiveJob {
            collective: Collective::AllReduce,
            bytes: 4e9,
            span,
            chunks: 1,
            release: 0,
        };
        let ext = BatchExt { stage_overhead_ps: vec![], offload_dims: vec![false, true] };
        let res = run_batch_ext(2, &bw, &ext, &[job], &mut FixedOrder);
        // RS dim0 (3 GB), offloaded dim1 (m/4 = 1 GB), AG dim0 (3 GB).
        let seq: Vec<(usize, bool)> = res.records.iter().map(|r| (r.dim, r.gather)).collect();
        assert_eq!(seq, vec![(0, false), (1, false), (0, true)]);
        assert!((ps_to_secs(res.makespan()) - 0.7).abs() < 1e-9);
    }

    /// All-to-All never offloads (it has nothing to reduce in-network),
    /// matching `CommModel::traffic`'s offloadability rule.
    #[test]
    fn alltoall_ignores_offload_flags() {
        let bw = [10.0, 10.0];
        let job = CollectiveJob {
            collective: Collective::AllToAll,
            bytes: 4e9,
            span: span2(),
            chunks: 4,
            release: 0,
        };
        let ext = BatchExt { stage_overhead_ps: vec![], offload_dims: vec![true, true] };
        let plain = run_batch(2, &bw, std::slice::from_ref(&job), &mut FixedOrder);
        let off = run_batch_ext(2, &bw, &ext, &[job], &mut FixedOrder);
        assert_eq!(plain.finish, off.finish);
        assert_eq!(plain.records, off.records);
    }

    /// Offloaded All-Gather carries `m/shrink` per dim (descending order
    /// preserved).
    #[test]
    fn offloaded_allgather_uses_injection_traffic() {
        let bw = [10.0, 10.0];
        let span = span2(); // (0,4), (1,8)
        let job = CollectiveJob {
            collective: Collective::AllGather,
            bytes: 4e9,
            span,
            chunks: 1,
            release: 0,
        };
        let ext = BatchExt { stage_overhead_ps: vec![], offload_dims: vec![true, true] };
        let res = run_batch_ext(2, &bw, &ext, &[job], &mut FixedOrder);
        // Descending: dim1 m/4 = 1 GB (0.1 s), then dim0 m = 4 GB (0.4 s).
        let seq: Vec<(usize, bool)> = res.records.iter().map(|r| (r.dim, r.gather)).collect();
        assert_eq!(seq, vec![(1, true), (0, true)]);
        assert!((ps_to_secs(res.makespan()) - 0.5).abs() < 1e-9);
    }

    /// A release offset delays the whole collective.
    #[test]
    fn release_time_shifts_schedule() {
        let span = GroupSpan::new(vec![(0, 4)]);
        let mk = |release| {
            run_batch(
                1,
                &[10.0],
                &[CollectiveJob {
                    collective: Collective::ReduceScatter,
                    bytes: 1e9,
                    span: span.clone(),
                    chunks: 2,
                    release,
                }],
                &mut FixedOrder,
            )
        };
        let a = mk(0);
        let b = mk(1_000_000);
        assert_eq!(b.makespan(), a.makespan() + 1_000_000);
    }

    /// The scratch fast path produces finish times bit-identical to the
    /// traced entry points, for every collective kind and extension.
    #[test]
    fn fast_path_is_bit_identical_to_trace_path() {
        let bw = [37.0, 13.0];
        let exts = [
            BatchExt::none(),
            BatchExt { stage_overhead_ps: vec![500, 1_000], offload_dims: vec![false, true] },
        ];
        let mut scratch = EngineScratch::new();
        for collective in [
            Collective::AllReduce,
            Collective::ReduceScatter,
            Collective::AllGather,
            Collective::AllToAll,
            Collective::PointToPoint,
        ] {
            for ext in &exts {
                let span = span2();
                let job = CollectiveJob { collective, bytes: 3e9, span, chunks: 16, release: 7 };
                let traced =
                    run_batch_ext(2, &bw, ext, std::slice::from_ref(&job), &mut FixedOrder);
                let ms = scratch.run_jobs(
                    2,
                    &bw,
                    ext,
                    [JobSpec::from(&job)],
                    &mut FixedOrder,
                    Trace::Off,
                );
                assert_eq!(ms, traced.makespan(), "{collective:?}");
                assert_eq!(scratch.finish_times(), traced.finish.as_slice(), "{collective:?}");
                assert!(scratch.records().is_empty(), "fast path must not collect records");
            }
        }
    }

    /// A reused arena gives the same answers as a fresh one — state never
    /// leaks between runs.
    #[test]
    fn scratch_reuse_is_stateless_across_runs() {
        let mut scratch = EngineScratch::new();
        let span_a = span2();
        let span_b = GroupSpan::new(vec![(0, 2), (1, 2), (2, 4)]);
        let job_a = CollectiveJob {
            collective: Collective::AllReduce,
            bytes: 2e9,
            span: span_a,
            chunks: 8,
            release: 0,
        };
        let job_b = CollectiveJob {
            collective: Collective::AllToAll,
            bytes: 5e9,
            span: span_b,
            chunks: 4,
            release: 3,
        };
        let bw3 = [10.0, 20.0, 30.0];
        // Interleave two different batches several times; each must match a
        // fresh engine every time (including a dimensionality change).
        for _ in 0..3 {
            let a = scratch.run_jobs(
                2,
                &bw3[..2],
                &BatchExt::none(),
                [JobSpec::from(&job_a)],
                &mut FixedOrder,
                Trace::Off,
            );
            assert_eq!(
                a,
                run_batch(2, &bw3[..2], std::slice::from_ref(&job_a), &mut FixedOrder).makespan()
            );
            let b = scratch.run_jobs(
                3,
                &bw3,
                &BatchExt::none(),
                [JobSpec::from(&job_b)],
                &mut FixedOrder,
                Trace::Off,
            );
            assert_eq!(
                b,
                run_batch(3, &bw3, std::slice::from_ref(&job_b), &mut FixedOrder).makespan()
            );
        }
    }

    /// The fast path's [`DimUsage`] accumulators agree with the trace
    /// path's interval vectors: same total busy time, same span ends, same
    /// stage count — without storing any interval.
    #[test]
    fn dim_usage_matches_trace_intervals() {
        let bw = [25.0, 5.0];
        let span = span2();
        let job = CollectiveJob {
            collective: Collective::AllReduce,
            bytes: 4e9,
            span,
            chunks: 8,
            release: 0,
        };
        let traced = run_batch(2, &bw, std::slice::from_ref(&job), &mut FixedOrder);
        let mut scratch = EngineScratch::new();
        scratch.run_jobs(
            2,
            &bw,
            &BatchExt::none(),
            [JobSpec::from(&job)],
            &mut FixedOrder,
            Trace::Off,
        );
        for (d, usage) in scratch.dim_usages().enumerate() {
            let intervals = &traced.per_dim_busy[d];
            let busy: Time = intervals.iter().map(|(s, e)| e - s).sum();
            assert_eq!(usage.busy_ps, busy, "dim {d} busy");
            assert_eq!(usage.stages, intervals.len(), "dim {d} stages");
            assert_eq!(usage.first_start, intervals.first().map_or(0, |&(s, _)| s));
            assert_eq!(usage.last_end, intervals.last().map_or(0, |&(_, e)| e));
        }
        // And under Trace::Full the arena records both views at once.
        scratch.run_jobs(
            2,
            &bw,
            &BatchExt::none(),
            [JobSpec::from(&job)],
            &mut FixedOrder,
            Trace::Full,
        );
        assert_eq!(scratch.records(), traced.records.as_slice());
    }

    /// [`FixedOrder`] opts out of option construction; a scheduler using the
    /// default `needs_options` still sees the full option list.
    #[test]
    fn needs_options_default_preserves_option_driven_schedulers() {
        struct LastFirst;
        impl ChunkScheduler for LastFirst {
            fn choose(&mut self, _c: usize, _n: Time, options: &[StageOption]) -> usize {
                options.len() - 1
            }
        }
        assert!(!FixedOrder.needs_options());
        assert!(LastFirst.needs_options());
        let bw = [10.0, 10.0];
        let span = span2();
        let res = run_collective(2, &bw, Collective::ReduceScatter, 2e9, &span, 1, &mut LastFirst);
        // LastFirst visits dim 1 before dim 0.
        let seq: Vec<usize> = res.records.iter().map(|r| r.dim).collect();
        assert_eq!(seq, vec![1, 0]);
    }

    /// SplitMix64: a seeded generator for the schedule digest's batches.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo + 1)
        }

        /// True with probability `1/n`.
        fn one_in(&mut self, n: u64) -> bool {
            self.next().is_multiple_of(n)
        }
    }

    /// A random batch: 1–4 dims, 1–3 jobs over every collective kind, and
    /// the extension knobs (zero and non-zero overheads, offload flags).
    fn seeded_batch(
        rng: &mut SplitMix,
        batch: usize,
    ) -> (usize, Vec<f64>, BatchExt, Vec<CollectiveJob>) {
        const KINDS: [Collective; 5] = [
            Collective::AllReduce,
            Collective::ReduceScatter,
            Collective::AllGather,
            Collective::AllToAll,
            Collective::PointToPoint,
        ];
        let n_dims = rng.range(1, 4) as usize;
        let bw: Vec<f64> = (0..n_dims).map(|_| rng.range(1, 400) as f64 * 0.25).collect();
        let ext = BatchExt {
            stage_overhead_ps: (0..n_dims)
                .map(|_| if rng.one_in(3) { 0 } else { rng.range(0, 3_000_000) })
                .collect(),
            offload_dims: (0..n_dims).map(|_| rng.one_in(3)).collect(),
        };
        let n_jobs = rng.range(1, 3) as usize;
        let jobs = (0..n_jobs)
            .map(|j| {
                let mut extents = Vec::new();
                for d in 0..n_dims {
                    if rng.one_in(2) {
                        extents.push((d, rng.range(2, 16)));
                    }
                }
                if extents.is_empty() {
                    let d = rng.range(0, n_dims as u64 - 1) as usize;
                    extents.push((d, rng.range(2, 16)));
                }
                // Some payloads are small enough that a stage's
                // serialization rounds to 0 ps.
                let bytes = if rng.one_in(6) {
                    rng.range(1, 100) as f64 * 1e-5
                } else {
                    rng.range(1, 1_000_000) as f64 * 1e3
                };
                CollectiveJob {
                    collective: if j == 0 {
                        KINDS[batch % 5]
                    } else {
                        KINDS[rng.range(0, 4) as usize]
                    },
                    bytes,
                    span: GroupSpan::new(extents),
                    chunks: rng.range(1, 64) as usize,
                    release: if rng.one_in(3) { 0 } else { rng.range(0, 50_000_000) },
                }
            })
            .collect();
        (n_dims, bw, ext, jobs)
    }

    /// FNV-1a over 64-bit words.
    fn fold(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Pins the engine's exact event order: ~200 seeded batches (every
    /// collective kind, 1–4 dims, 1–64 chunks, staggered releases, zero
    /// and non-zero stage overheads, offload flags, 0 ps stages) run under
    /// [`FixedOrder`] and under a scheduler that reads its options, and
    /// every [`StageRecord`] and finish time is folded into one FNV-1a
    /// digest. Any change to which stage a server starts when, or to any
    /// stage's duration, moves the digest.
    #[test]
    fn seeded_batches_replay_the_pinned_schedule() {
        /// Greedy: the option whose server would finish it first.
        struct EarliestFinish;
        impl ChunkScheduler for EarliestFinish {
            fn choose(&mut self, _c: usize, now: Time, options: &[StageOption]) -> usize {
                let finish = |o: &StageOption| {
                    o.server_free_at.max(now) as f64
                        + o.bytes * 1e3 / o.bw_gbps
                        + o.overhead_ps as f64
                };
                (0..options.len())
                    .min_by(|&a, &b| finish(&options[a]).total_cmp(&finish(&options[b])))
                    .unwrap_or(0)
            }
        }
        let mut rng = SplitMix(0x1B5A_D16E_57D1_6E57);
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut stages = 0usize;
        for batch in 0..200 {
            let (n_dims, bw, ext, jobs) = seeded_batch(&mut rng, batch);
            for scheduler in [&mut FixedOrder as &mut dyn ChunkScheduler, &mut EarliestFinish] {
                let res = run_batch_ext(n_dims, &bw, &ext, &jobs, scheduler);
                stages += res.records.len();
                for r in &res.records {
                    for word in [r.job, r.chunk, r.dim, usize::from(r.gather)] {
                        fold(&mut hash, word as u64);
                    }
                    fold(&mut hash, r.start);
                    fold(&mut hash, r.end);
                }
                for &t in &res.finish {
                    fold(&mut hash, t);
                }
            }
        }
        assert!(stages > 20_000, "the batches are too small to pin anything: {stages} stages");
        assert_eq!(hash, 0x1629_C3AC_7442_139B, "schedule digest over {stages} stages");
    }
}
