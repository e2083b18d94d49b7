//! The job table: a bounded FIFO queue of validated scenarios plus the
//! full lifecycle record of every job the server has accepted.
//!
//! One `Mutex` + `Condvar` pair guards both: submissions enqueue and
//! wake a worker, workers block in [`JobTable::take`] until work (or
//! shutdown) arrives, and every state transition lands in the table so
//! `GET /v1/sweeps/{id}` can answer from a single lock. The table keeps
//! finished jobs (records included) for the server's lifetime — the
//! service's unit of memory is one run's JSON-lines stream, and evicting
//! completed jobs is a policy decision the adaptive-search follow-up can
//! make when it arrives.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use libra_core::scenario::Scenario;

/// Terminal summary of a finished job, mirroring the CLI's stderr
/// summary and exit code.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Grid points solved.
    pub results: usize,
    /// Grid points that errored.
    pub errors: usize,
    /// Whether every backend pair stayed within the scenario tolerance.
    pub within_tolerance: bool,
    /// The worst pairwise relative error observed.
    pub max_rel_error: f64,
}

impl JobSummary {
    /// The exit code `libra crossval` would have returned: 0 within
    /// tolerance, 2 diverged.
    pub fn exit_code(&self) -> i32 {
        if self.within_tolerance {
            0
        } else {
            2
        }
    }
}

/// A point-in-time view of one job, cloned out of the table.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the queue; `position` 1 is next to run.
    Queued {
        /// 1-based position in the FIFO queue.
        position: usize,
    },
    /// On a worker; `done` of `total` grid points priced so far.
    Running {
        /// Grid points priced so far.
        done: usize,
        /// Total grid points in the run.
        total: usize,
    },
    /// Finished: the byte-exact JSON-lines stream plus its summary.
    Done {
        /// The run's complete JSON-lines output, byte-identical to
        /// `libra crossval --jsonl -`.
        records: Arc<Vec<u8>>,
        /// The run summary.
        summary: JobSummary,
    },
    /// Aborted: validation passed but the run (or the server) died.
    Failed {
        /// What went wrong.
        error: String,
    },
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — retry later (HTTP 503).
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work (HTTP 503).
    ShuttingDown,
}

/// Queue/lifecycle counters for `GET /v1/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCounts {
    /// Jobs accepted since start.
    pub submitted: usize,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently on a worker.
    pub running: usize,
    /// Jobs finished successfully.
    pub done: usize,
    /// Jobs failed (run errors and shutdown fail-fast).
    pub failed: usize,
}

/// The outcome of [`JobTable::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was queued or running and is now terminally failed.
    Cancelled,
    /// The job had already reached a terminal state (done or failed);
    /// nothing changed.
    AlreadyFinished,
    /// No job with that id exists.
    Unknown,
}

/// One unit of work handed to a sweep worker by [`JobTable::take`]: the
/// job id, its validated scenario, and the cancellation flag the worker
/// checks at each progress tick to drop cancelled or deadline-expired
/// work.
///
/// Ticks come at run start and with each streamed record, and a run
/// streams its records only after it has solved all its points. So a
/// cancelled or overdue sweep job keeps its worker until every point is
/// solved (its progress reads 0 of N until then), and a search job stops
/// at the end of the round in flight.
pub struct TakenJob {
    /// The job id (`job-N`).
    pub id: String,
    /// The scenario to run.
    pub scenario: Arc<Scenario>,
    /// Set when the job is cancelled or fails its deadline; the table
    /// has already recorded the terminal state, the worker only needs
    /// to stop burning CPU.
    pub cancel: Arc<AtomicBool>,
}

struct Job {
    scenario: Arc<Scenario>,
    state: JobStatus,
    cancel: Arc<AtomicBool>,
    /// When a worker took the job — the deadline clock for
    /// [`JobTable::fail_overdue`].
    started: Option<Instant>,
}

impl Job {
    fn is_terminal(&self) -> bool {
        matches!(self.state, JobStatus::Done { .. } | JobStatus::Failed { .. })
    }
}

struct Inner {
    jobs: Vec<Job>,
    /// Queued job ids (indices into `jobs`), FIFO.
    queue: VecDeque<usize>,
    closed: bool,
}

/// See the module docs.
pub struct JobTable {
    inner: Mutex<Inner>,
    work: Condvar,
    capacity: usize,
}

impl JobTable {
    /// A table whose queue holds at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> Self {
        JobTable {
            inner: Mutex::new(Inner { jobs: Vec::new(), queue: VecDeque::new(), closed: false }),
            work: Condvar::new(),
            capacity,
        }
    }

    fn id_string(index: usize) -> String {
        format!("job-{}", index + 1)
    }

    pub(crate) fn id_index(id: &str) -> Option<usize> {
        id.strip_prefix("job-")?.parse::<usize>().ok()?.checked_sub(1)
    }

    /// Enqueues an already-validated scenario, returning the job id and
    /// its 1-based queue position.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] at capacity,
    /// [`SubmitError::ShuttingDown`] after [`JobTable::close`].
    pub fn submit(&self, scenario: Scenario) -> Result<(String, usize), SubmitError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.capacity {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        let index = inner.jobs.len();
        let position = inner.queue.len() + 1;
        inner.jobs.push(Job {
            scenario: Arc::new(scenario),
            state: JobStatus::Queued { position },
            cancel: Arc::new(AtomicBool::new(false)),
            started: None,
        });
        inner.queue.push_back(index);
        drop(inner);
        self.work.notify_one();
        Ok((Self::id_string(index), position))
    }

    /// Blocks until a job is available (returning it with the job
    /// already marked running and its deadline clock started) or the
    /// table is closed (returning `None`) — the worker loop's front
    /// door.
    pub fn take(&self) -> Option<TakenJob> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(index) = inner.queue.pop_front() {
                let job = &mut inner.jobs[index];
                job.state = JobStatus::Running { done: 0, total: 0 };
                job.started = Some(Instant::now());
                return Some(TakenJob {
                    id: Self::id_string(index),
                    scenario: Arc::clone(&job.scenario),
                    cancel: Arc::clone(&job.cancel),
                });
            }
            if inner.closed {
                return None;
            }
            inner = self.work.wait(inner).unwrap();
        }
    }

    /// Records per-point progress for a running job.
    pub fn progress(&self, id: &str, done: usize, total: usize) {
        let Some(index) = Self::id_index(id) else { return };
        let mut inner = self.inner.lock().unwrap();
        if let Some(job) = inner.jobs.get_mut(index) {
            if matches!(job.state, JobStatus::Running { .. }) {
                job.state = JobStatus::Running { done, total };
            }
        }
    }

    /// Marks a job done with its byte-exact records and summary.
    pub fn complete(&self, id: &str, records: Vec<u8>, summary: JobSummary) {
        self.finish(id, JobStatus::Done { records: Arc::new(records), summary });
    }

    /// Marks a job failed.
    pub fn fail(&self, id: &str, error: impl Into<String>) {
        self.finish(id, JobStatus::Failed { error: error.into() });
    }

    fn finish(&self, id: &str, state: JobStatus) {
        let Some(index) = Self::id_index(id) else { return };
        let mut inner = self.inner.lock().unwrap();
        if let Some(job) = inner.jobs.get_mut(index) {
            // Terminal states are immutable: once the watchdog or a
            // cancel has failed a job, a late-finishing worker cannot
            // resurrect it (and vice versa — a completed job cannot be
            // retroactively failed).
            if !job.is_terminal() {
                job.state = state;
            }
        }
    }

    /// Cancels a job: queued jobs are removed from the queue and failed
    /// immediately; running jobs are failed in the table and their
    /// cancel flag raised, and the worker drops the job at its next
    /// progress tick: a sweep job once all its points are solved, a
    /// search job at the end of its round (see [`TakenJob`]). Terminal
    /// jobs are left untouched.
    pub fn cancel(&self, id: &str) -> CancelOutcome {
        let Some(index) = Self::id_index(id) else { return CancelOutcome::Unknown };
        let mut inner = self.inner.lock().unwrap();
        let Some(job) = inner.jobs.get(index) else { return CancelOutcome::Unknown };
        if job.is_terminal() {
            return CancelOutcome::AlreadyFinished;
        }
        let was_queued = matches!(job.state, JobStatus::Queued { .. });
        if was_queued {
            inner.queue.retain(|&i| i != index);
        }
        let job = &mut inner.jobs[index];
        job.cancel.store(true, Ordering::SeqCst);
        job.state = JobStatus::Failed {
            error: if was_queued {
                "cancelled before start".to_string()
            } else {
                "cancelled".to_string()
            },
        };
        CancelOutcome::Cancelled
    }

    /// Fails every running job whose wall-clock age exceeds `timeout`
    /// and raises its cancel flag; returns the ids it failed. The
    /// server's watchdog thread calls this periodically when
    /// `--job-timeout` is set.
    pub fn fail_overdue(&self, timeout: Duration) -> Vec<String> {
        let mut inner = self.inner.lock().unwrap();
        let mut overdue = Vec::new();
        for (index, job) in inner.jobs.iter_mut().enumerate() {
            if !matches!(job.state, JobStatus::Running { .. }) {
                continue;
            }
            let Some(started) = job.started else { continue };
            if started.elapsed() > timeout {
                job.cancel.store(true, Ordering::SeqCst);
                job.state = JobStatus::Failed {
                    error: format!("job exceeded the {} ms deadline", timeout.as_millis()),
                };
                overdue.push(Self::id_string(index));
            }
        }
        overdue
    }

    /// A snapshot of one job's state (`None` for unknown ids). Queued
    /// jobs report their live 1-based queue position.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let index = Self::id_index(id)?;
        let inner = self.inner.lock().unwrap();
        let job = inner.jobs.get(index)?;
        Some(match &job.state {
            JobStatus::Queued { .. } => {
                let position = inner.queue.iter().position(|&i| i == index).map_or(0, |p| p + 1);
                JobStatus::Queued { position }
            }
            state => state.clone(),
        })
    }

    /// Lifecycle counters across every job ever submitted.
    pub fn counts(&self) -> JobCounts {
        let inner = self.inner.lock().unwrap();
        let mut counts =
            JobCounts { submitted: inner.jobs.len(), queued: 0, running: 0, done: 0, failed: 0 };
        for job in &inner.jobs {
            match job.state {
                JobStatus::Queued { .. } => counts.queued += 1,
                JobStatus::Running { .. } => counts.running += 1,
                JobStatus::Done { .. } => counts.done += 1,
                JobStatus::Failed { .. } => counts.failed += 1,
            }
        }
        counts
    }

    /// Closes the table: fails every still-queued job fast (clients
    /// polling them see a terminal state, not a hang), wakes every
    /// blocked worker so [`JobTable::take`] drains to `None`, and
    /// rejects all further submissions. Running jobs are untouched —
    /// their workers finish and record results normally.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.closed = true;
        while let Some(index) = inner.queue.pop_front() {
            inner.jobs[index].state =
                JobStatus::Failed { error: "server shut down before the job started".to_string() };
        }
        drop(inner);
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::builder("t")
            .with_shape("RI(4)_RI(8)".parse().unwrap())
            .with_budgets([100.0])
            .with_objectives([libra_core::opt::Objective::Perf])
            .with_workload("w")
            .build()
            .unwrap()
    }

    #[test]
    fn fifo_order_and_positions() {
        let table = JobTable::new(8);
        let (a, pa) = table.submit(scenario()).unwrap();
        let (b, pb) = table.submit(scenario()).unwrap();
        assert_eq!((pa, pb), (1, 2));
        assert!(matches!(table.status(&b), Some(JobStatus::Queued { position: 2 })));
        let first = table.take().unwrap();
        assert_eq!(first.id, a);
        // b moved up after a was taken.
        assert!(matches!(table.status(&b), Some(JobStatus::Queued { position: 1 })));
        assert!(matches!(table.status(&a), Some(JobStatus::Running { .. })));
    }

    #[test]
    fn bounded_queue_rejects_and_close_fails_fast() {
        let table = JobTable::new(1);
        let (a, _) = table.submit(scenario()).unwrap();
        assert_eq!(table.submit(scenario()).unwrap_err(), SubmitError::QueueFull { capacity: 1 });
        table.close();
        assert_eq!(table.submit(scenario()).unwrap_err(), SubmitError::ShuttingDown);
        assert!(matches!(table.status(&a), Some(JobStatus::Failed { .. })));
        assert!(table.take().is_none());
        let counts = table.counts();
        assert_eq!((counts.submitted, counts.failed), (1, 1));
    }

    #[test]
    fn lifecycle_to_done() {
        let table = JobTable::new(4);
        let (id, _) = table.submit(scenario()).unwrap();
        let taken = table.take().unwrap();
        assert_eq!(taken.id, id);
        table.progress(&id, 3, 4);
        assert!(matches!(table.status(&id), Some(JobStatus::Running { done: 3, total: 4 })));
        let summary =
            JobSummary { results: 4, errors: 0, within_tolerance: true, max_rel_error: 0.01 };
        table.complete(&id, b"line\n".to_vec(), summary.clone());
        match table.status(&id) {
            Some(JobStatus::Done { records, summary: s }) => {
                assert_eq!(records.as_slice(), b"line\n");
                assert_eq!(s, summary);
                assert_eq!(s.exit_code(), 0);
            }
            other => panic!("unexpected state {other:?}"),
        }
        assert!(table.status("job-999").is_none());
        assert!(table.status("nonsense").is_none());
    }

    #[test]
    fn cancel_queued_running_and_terminal() {
        let table = JobTable::new(8);
        let (queued, _) = table.submit(scenario()).unwrap();
        let (running, _) = table.submit(scenario()).unwrap();
        let (done, _) = table.submit(scenario()).unwrap();

        // Drain the first in FIFO order to stage a running + done job.
        let taken = table.take().unwrap();
        assert_eq!(taken.id, queued);
        table.cancel(&queued); // now terminal
        let taken = table.take().unwrap();
        assert_eq!(taken.id, running);
        assert!(!taken.cancel.load(Ordering::SeqCst));

        // Running job: cancelled terminally, flag raised for the worker.
        assert_eq!(table.cancel(&running), CancelOutcome::Cancelled);
        assert!(taken.cancel.load(Ordering::SeqCst));
        assert!(matches!(table.status(&running), Some(JobStatus::Failed { .. })));

        // Queued job: removed from the queue, failed without a worker.
        assert_eq!(table.cancel(&done), CancelOutcome::Cancelled);
        match table.status(&done) {
            Some(JobStatus::Failed { error }) => assert_eq!(error, "cancelled before start"),
            other => panic!("unexpected state {other:?}"),
        }

        // Terminal jobs and unknown ids are untouched.
        assert_eq!(table.cancel(&running), CancelOutcome::AlreadyFinished);
        assert_eq!(table.cancel("job-999"), CancelOutcome::Unknown);
        assert_eq!(table.cancel("nonsense"), CancelOutcome::Unknown);
    }

    #[test]
    fn terminal_states_are_immutable() {
        let table = JobTable::new(4);
        let (id, _) = table.submit(scenario()).unwrap();
        let taken = table.take().unwrap();
        assert_eq!(table.cancel(&id), CancelOutcome::Cancelled);

        // A late worker completion must not resurrect the cancelled job.
        let summary =
            JobSummary { results: 1, errors: 0, within_tolerance: true, max_rel_error: 0.0 };
        table.complete(&id, b"line\n".to_vec(), summary);
        assert!(matches!(table.status(&id), Some(JobStatus::Failed { .. })));
        table.fail(&id, "late failure");
        match table.status(&id) {
            Some(JobStatus::Failed { error }) => assert_eq!(error, "cancelled"),
            other => panic!("unexpected state {other:?}"),
        }
        drop(taken);
    }

    #[test]
    fn fail_overdue_targets_only_expired_running_jobs() {
        let table = JobTable::new(4);
        let (running, _) = table.submit(scenario()).unwrap();
        let (queued, _) = table.submit(scenario()).unwrap();
        let taken = table.take().unwrap();
        assert_eq!(taken.id, running);

        // Generous deadline: nothing is overdue.
        assert!(table.fail_overdue(Duration::from_secs(3600)).is_empty());

        // Zero deadline: the running job fails, the queued one is left.
        std::thread::sleep(Duration::from_millis(2));
        let failed = table.fail_overdue(Duration::from_millis(1));
        assert_eq!(failed, vec![running.clone()]);
        assert!(taken.cancel.load(Ordering::SeqCst));
        match table.status(&running) {
            Some(JobStatus::Failed { error }) => assert!(error.contains("deadline")),
            other => panic!("unexpected state {other:?}"),
        }
        assert!(matches!(table.status(&queued), Some(JobStatus::Queued { .. })));
    }

    #[test]
    fn close_vs_concurrent_submit_never_loses_a_job() {
        use std::sync::atomic::AtomicUsize;
        use std::thread;

        // Hammer submit from several threads while close() runs midway:
        // every accepted id must end terminally Failed (no workers run),
        // every rejection after close must be ShuttingDown, and take()
        // must drain to None. No job may be accepted and then lost.
        let table = Arc::new(JobTable::new(1024));
        let accepted = Arc::new(Mutex::new(Vec::new()));
        let shutdown_rejections = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let table = Arc::clone(&table);
            let accepted = Arc::clone(&accepted);
            let shutdown_rejections = Arc::clone(&shutdown_rejections);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    match table.submit(scenario()) {
                        Ok((id, _)) => accepted.lock().unwrap().push(id),
                        Err(SubmitError::ShuttingDown) => {
                            shutdown_rejections.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(SubmitError::QueueFull { .. }) => {}
                    }
                }
            }));
        }
        // Let some submissions land, then close concurrently.
        thread::sleep(Duration::from_millis(1));
        table.close();
        for handle in handles {
            handle.join().unwrap();
        }

        assert_eq!(table.submit(scenario()).unwrap_err(), SubmitError::ShuttingDown);
        assert!(table.take().is_none());
        let accepted = accepted.lock().unwrap();
        for id in accepted.iter() {
            match table.status(id) {
                Some(JobStatus::Failed { .. }) => {}
                other => panic!("accepted job {id} in non-terminal state {other:?}"),
            }
        }
        let counts = table.counts();
        assert_eq!(counts.submitted, accepted.len());
        assert_eq!(counts.failed, accepted.len());
        assert_eq!((counts.queued, counts.running, counts.done), (0, 0, 0));
    }
}
