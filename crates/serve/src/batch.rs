//! Query execution: the inline model answer and the fallback worker pool.
//!
//! Every model request — top-1 and ranked — is answered by [`execute`] on
//! the event-loop shard that parsed it, on the int8 quantized pass (f32
//! only for a model the quantizer rejected). One numerics means a served
//! answer depends only on the query and the model version, never on load.
//!
//! The only work that leaves the shard is the `--fallback search` oracle:
//! an exhaustive search costs milliseconds, so those [`Job`]s go through a
//! bounded [`Queue`] to a small worker pool, and the answer comes back
//! through the shard's [`CompletionQueue`]. Admission control is
//! reject-on-full rather than block-on-full: when the queue holds `depth`
//! jobs the push fails immediately and the connection answers `429` with
//! `Retry-After`, and a stuck oracle still gets its `504` at the deadline
//! from the shard.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use airchitect::model::CaseStudy;
use airchitect::recommend::RecommendError;
use airchitect_dse::case2::Case2Query;
use airchitect_telemetry::json::write_f64;
use airchitect_telemetry::metrics;
use airchitect_workload::GemmWorkload;

use crate::fallback::Oracle;
use crate::reload::{case_name, CaseProblem, LoadedModel};

/// A decoded, validated recommendation query.
#[derive(Debug, Clone)]
pub enum RecQuery {
    /// CS1: array shape + dataflow under a MAC budget.
    Array {
        /// The GEMM workload.
        workload: GemmWorkload,
        /// Hard MAC-unit budget.
        mac_budget: u64,
    },
    /// CS2: SRAM buffer split.
    Buffers {
        /// The full CS2 query (workload, array, dataflow, bandwidth, limit).
        query: Case2Query,
    },
    /// CS3: schedule for four concurrent workloads.
    Schedule {
        /// Exactly four workloads (validated by the router).
        workloads: Vec<GemmWorkload>,
    },
}

impl RecQuery {
    /// The case study this query targets.
    pub fn case(&self) -> CaseStudy {
        match self {
            RecQuery::Array { .. } => CaseStudy::ArrayDataflow,
            RecQuery::Buffers { .. } => CaseStudy::BufferSizing,
            RecQuery::Schedule { .. } => CaseStudy::MultiArrayScheduling,
        }
    }
}

/// Who produced a successful answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The trained recommendation model (cacheable).
    Model,
    /// The exhaustive-search fallback oracle (degraded mode; never cached,
    /// stamped with a `Warning` header).
    Search,
}

/// An answer, ready for HTTP framing by the shard.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Success: the rendered response JSON minus its leading `{` (the
    /// shard prepends `{"cached":...,`), plus the generation of
    /// the model that produced it (for cache stamping).
    Ok {
        /// Rendered JSON tail.
        body_tail: String,
        /// Producing model's generation.
        generation: u64,
        /// Model or degraded-mode search.
        source: Source,
    },
    /// Failure mapped to an HTTP status. Never a 5xx for domain errors —
    /// infeasible budgets are 422, missing models 503.
    Err {
        /// HTTP status code.
        status: u16,
        /// Stable machine-readable code.
        code: &'static str,
        /// Human-readable message.
        message: String,
    },
}

/// Where a fallback worker delivers its [`Outcome`]: the owning shard's
/// [`CompletionQueue`], whose eventfd wakes the loop so the connection is
/// re-armed inside it — the worker never touches a socket.
#[derive(Debug)]
pub struct Reply {
    /// The owning shard's completion queue.
    pub queue: Arc<CompletionQueue>,
    /// Connection token (slot index + generation) on that shard.
    pub conn: u64,
    /// Per-connection request sequence number, so a late reply for an
    /// already-504'd request is discarded instead of misdelivered.
    pub req: u64,
}

impl Reply {
    /// Delivers `outcome`. A connection that has since closed discards it
    /// on the shard side (token generation mismatch).
    pub fn send(self, outcome: Outcome) {
        self.queue.push(self.conn, self.req, outcome);
    }
}

/// A completion delivered to an evented shard: `(connection token,
/// request sequence, outcome)`.
pub type Completion = (u64, u64, Outcome);

/// Mailbox between batch workers and one evented shard. Workers push
/// finished outcomes; the shard drains after an eventfd wake. The wake is
/// only issued on the empty→non-empty transition, so a burst of
/// completions costs one syscall, not one per job.
#[derive(Debug)]
pub struct CompletionQueue {
    entries: Mutex<Vec<Completion>>,
    #[cfg(target_os = "linux")]
    waker: crate::reactor::Waker,
}

impl CompletionQueue {
    /// Creates the queue and its waker eventfd.
    ///
    /// # Errors
    ///
    /// Fails only if the eventfd cannot be created (fd exhaustion).
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            entries: Mutex::new(Vec::new()),
            #[cfg(target_os = "linux")]
            waker: crate::reactor::Waker::new()?,
        })
    }

    /// Pushes one completion and wakes the owning loop if it was idle.
    pub fn push(&self, conn: u64, req: u64, outcome: Outcome) {
        let was_empty = {
            let mut entries = self.entries.lock().expect("completions poisoned");
            let was_empty = entries.is_empty();
            entries.push((conn, req, outcome));
            was_empty
        };
        if was_empty {
            self.wake();
        }
    }

    /// Drains every pending completion into `out` (which is cleared
    /// first).
    pub fn drain_into(&self, out: &mut Vec<Completion>) {
        out.clear();
        let mut entries = self.entries.lock().expect("completions poisoned");
        std::mem::swap(out, &mut entries);
    }

    /// Number of undelivered completions (the shard's ready-queue depth
    /// gauge).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("completions poisoned").len()
    }

    /// Whether no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wakes the owning loop without queueing anything (shutdown nudges).
    pub fn wake(&self) {
        metrics::SERVE_WAKEUPS.inc();
        #[cfg(target_os = "linux")]
        self.waker.wake();
    }

    /// The waker fd to register for read-readiness in the shard's poller.
    #[cfg(target_os = "linux")]
    pub fn waker_fd(&self) -> std::os::fd::RawFd {
        self.waker.as_raw_fd()
    }

    /// Consumes pending wakes after the poller reported readiness.
    #[cfg(target_os = "linux")]
    pub fn drain_wakes(&self) {
        self.waker.drain();
    }
}

/// One queued fallback request.
#[derive(Debug)]
pub struct Job {
    /// The validated query.
    pub query: RecQuery,
    /// Ranked-list size; `0` means top-1.
    pub topk: usize,
    /// Where the worker's answer goes.
    pub reply: Reply,
    /// End-to-end deadline; a job past it is answered 504, never executed.
    pub deadline: Option<Instant>,
}

impl Job {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; client should retry later (429).
    Full,
    /// The server is draining; no new work is admitted (503).
    ShuttingDown,
}

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The bounded MPMC fallback-job queue (mutex + condvar; std has no
/// native MPMC channel with try-push semantics).
pub struct Queue {
    state: Mutex<State>,
    ready: Condvar,
    depth: usize,
}

impl Queue {
    /// Creates a queue admitting at most `depth` waiting jobs.
    pub fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Tries to admit a job without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::ShuttingDown`] once
    /// [`Queue::shutdown`] has been called.
    pub fn push(&self, job: Job) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.shutdown {
            return Err(PushError::ShuttingDown);
        }
        if state.jobs.len() >= self.depth {
            metrics::SERVE_REJECTED.inc();
            return Err(PushError::Full);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available. Returns `None` only when the queue
    /// is shut down *and* drained — the worker-exit signal.
    pub fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Number of jobs currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").jobs.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops admission and wakes every worker; already-queued jobs are
    /// still drained before the workers exit.
    pub fn shutdown(&self) {
        self.state.lock().expect("queue poisoned").shutdown = true;
        self.ready.notify_all();
    }
}

/// Spawns `workers` threads answering fallback jobs from `queue` with the
/// search `oracle`. The threads exit (joinable) after [`Queue::shutdown`]
/// once the queue is empty.
pub fn spawn_workers(workers: usize, queue: Arc<Queue>, oracle: Arc<Oracle>) -> Vec<JoinHandle<()>> {
    (0..workers.max(1))
        .map(|i| {
            let queue = Arc::clone(&queue);
            let oracle = Arc::clone(&oracle);
            std::thread::Builder::new()
                .name(format!("serve-fallback-{i}"))
                .spawn(move || {
                    while let Some(job) = queue.pop() {
                        let outcome = answer_fallback(&job, &oracle);
                        job.reply.send(outcome);
                    }
                })
                .expect("spawn fallback worker thread")
        })
        .collect()
}

/// Answers one fallback job: deadline check, then the panic-isolated
/// oracle search.
fn answer_fallback(job: &Job, oracle: &Oracle) -> Outcome {
    // A job that already blew its budget waiting in the queue is dropped
    // here: the client has (or is about to) time out, so doing the work
    // would only add load exactly when the server is already behind.
    if job.expired() {
        metrics::SERVE_DEADLINE_EXCEEDED.inc();
        return Outcome::Err {
            status: 504,
            code: "deadline_exceeded",
            message: "request deadline expired before execution".into(),
        };
    }
    // Panic isolation: a panicking search costs one 500, never a dead
    // worker thread.
    catch_unwind(AssertUnwindSafe(|| {
        airchitect_chaos::fail_point!("serve.batch.dispatch");
        metrics::SERVE_FALLBACKS.inc();
        oracle.answer(&job.query, job.topk)
    }))
    .unwrap_or_else(|_| Outcome::Err {
        status: 500,
        code: "inference_panic",
        message: "fallback search panicked; the job was isolated".into(),
    })
}

fn domain_error(err: &RecommendError) -> Outcome {
    let (status, code) = match err {
        RecommendError::NoFeasibleConfig { .. } => (422, "infeasible"),
        RecommendError::LabelOutOfSpace { .. } => (422, "label_out_of_space"),
        RecommendError::WrongCaseStudy { .. } => (503, "wrong_model"),
        RecommendError::Untrained => (503, "untrained_model"),
    };
    Outcome::Err {
        status,
        code,
        message: err.to_string(),
    }
}

/// Runs one query against one model snapshot and renders the result:
/// top-1 (`topk == 0`) or a ranked list with softmax scores, both on the
/// int8 quantized pass ([`Recommender`](airchitect::Recommender) falls
/// back to f32 only for a model the quantizer rejected).
///
/// The `serve.infer` failpoint fires here, so injected inference faults
/// (and the breaker accounting the caller does on them) cover every
/// model answer.
pub fn execute(model: &LoadedModel, query: &RecQuery, topk: usize) -> Outcome {
    airchitect_chaos::fail_point!("serve.infer", |e: std::io::Error| Outcome::Err {
        status: 500,
        code: "inference_failed",
        message: e.to_string(),
    });
    let mut tail = String::with_capacity(128);
    tail.push_str("\"generation\":");
    tail.push_str(&model.generation.to_string());
    tail.push_str(",\"case\":\"");
    tail.push_str(case_name(model.case));
    tail.push_str("\",\"source\":\"model\"");

    let rec = &model.recommender;
    let rendered = match (&model.problem, query) {
        (CaseProblem::Array(problem), RecQuery::Array { workload, mac_budget }) => {
            if topk == 0 {
                rec.recommend_array_fast(problem, workload, *mac_budget)
                    .map(|(array, dataflow)| {
                        tail.push_str(",\"result\":");
                        render_array(&mut tail, array.rows(), array.cols(), dataflow, None);
                    })
            } else {
                rec.recommend_array_topk(problem, workload, *mac_budget, topk)
                    .map(|ranked| {
                        render_ranked(&mut tail, &ranked, |out, (array, dataflow, score)| {
                            render_array(out, array.rows(), array.cols(), *dataflow, Some(*score));
                        });
                    })
            }
        }
        (CaseProblem::Buffers(problem), RecQuery::Buffers { query }) => {
            if topk == 0 {
                rec.recommend_buffers_fast(problem, query).map(|(i, f, o)| {
                    tail.push_str(",\"result\":");
                    render_buffers(&mut tail, i, f, o, None);
                })
            } else {
                rec.recommend_buffers_topk(problem, query, topk).map(|ranked| {
                    render_ranked(&mut tail, &ranked, |out, (i, f, o, score)| {
                        render_buffers(out, *i, *f, *o, Some(*score));
                    });
                })
            }
        }
        (CaseProblem::Schedule(problem), RecQuery::Schedule { workloads }) => {
            if topk == 0 {
                rec.recommend_schedule_fast(problem, workloads).map(|schedule| {
                    tail.push_str(",\"result\":");
                    render_schedule(&mut tail, &schedule, None);
                })
            } else {
                rec.recommend_schedule_topk(problem, workloads, topk)
                    .map(|ranked| {
                        render_ranked(&mut tail, &ranked, |out, (schedule, score)| {
                            render_schedule(out, schedule, Some(*score));
                        });
                    })
            }
        }
        // Unreachable by construction (the hub slot and the query share the
        // case study), but a wrong answer must never escape as a 5xx.
        _ => {
            return Outcome::Err {
                status: 503,
                code: "model_mismatch",
                message: "loaded model does not match the query's case study".into(),
            }
        }
    };

    match rendered {
        Ok(()) => {
            tail.push_str("}\n");
            Outcome::Ok {
                body_tail: tail,
                generation: model.generation,
                source: Source::Model,
            }
        }
        Err(err) => domain_error(&err),
    }
}

/// The top-1 answer: exactly [`execute`] with `topk == 0`.
pub fn execute_fast(model: &LoadedModel, query: &RecQuery) -> Outcome {
    execute(model, query, 0)
}

/// Panic-isolated [`execute`]: a poisoned model costs one 500, never the
/// shard that hit it.
pub(crate) fn execute_guarded(model: &LoadedModel, query: &RecQuery, topk: usize) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| execute(model, query, topk))).unwrap_or_else(|_| {
        Outcome::Err {
            status: 500,
            code: "inference_panic",
            message: "inference panicked; the request was isolated".into(),
        }
    })
}

fn render_ranked<T>(out: &mut String, ranked: &[T], mut entry: impl FnMut(&mut String, &T)) {
    out.push_str(",\"results\":[");
    for (i, item) in ranked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        entry(out, item);
    }
    out.push(']');
}

fn render_score(out: &mut String, score: Option<f32>) {
    if let Some(s) = score {
        out.push_str(",\"score\":");
        write_f64(out, f64::from(s));
    }
}

pub(crate) fn render_array(
    out: &mut String,
    rows: u64,
    cols: u64,
    dataflow: airchitect_sim::Dataflow,
    score: Option<f32>,
) {
    out.push_str("{\"rows\":");
    out.push_str(&rows.to_string());
    out.push_str(",\"cols\":");
    out.push_str(&cols.to_string());
    out.push_str(",\"macs\":");
    out.push_str(&(rows * cols).to_string());
    out.push_str(",\"dataflow\":\"");
    out.push_str(&dataflow.to_string());
    out.push('"');
    render_score(out, score);
    out.push('}');
}

pub(crate) fn render_buffers(out: &mut String, ifmap: u64, filter: u64, ofmap: u64, score: Option<f32>) {
    out.push_str("{\"ifmap_kb\":");
    out.push_str(&ifmap.to_string());
    out.push_str(",\"filter_kb\":");
    out.push_str(&filter.to_string());
    out.push_str(",\"ofmap_kb\":");
    out.push_str(&ofmap.to_string());
    out.push_str(",\"total_kb\":");
    out.push_str(&(ifmap + filter + ofmap).to_string());
    render_score(out, score);
    out.push('}');
}

pub(crate) fn render_schedule(
    out: &mut String,
    schedule: &airchitect_sim::multi::Schedule,
    score: Option<f32>,
) {
    out.push_str("{\"assignments\":[");
    for (array, assignment) in schedule.assignments.iter().enumerate() {
        if array > 0 {
            out.push(',');
        }
        out.push_str("{\"array\":");
        out.push_str(&array.to_string());
        out.push_str(",\"workload\":");
        out.push_str(&assignment.workload.to_string());
        out.push_str(",\"dataflow\":\"");
        out.push_str(&assignment.dataflow.to_string());
        out.push_str("\"}");
    }
    out.push(']');
    render_score(out, score);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_job(tag: u64, completions: &Arc<CompletionQueue>) -> Job {
        Job {
            query: RecQuery::Array {
                workload: GemmWorkload::new(tag + 1, 64, 64).unwrap(),
                mac_budget: 1024,
            },
            topk: 0,
            reply: Reply {
                queue: Arc::clone(completions),
                conn: tag,
                req: 1,
            },
            deadline: None,
        }
    }

    #[test]
    fn full_queue_rejects_immediately() {
        let c = Arc::new(CompletionQueue::new().unwrap());
        let q = Queue::new(2);
        q.push(dummy_job(1, &c)).unwrap();
        q.push(dummy_job(2, &c)).unwrap();
        assert_eq!(q.push(dummy_job(3, &c)).unwrap_err(), PushError::Full);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_depth_rejects_everything() {
        let c = Arc::new(CompletionQueue::new().unwrap());
        let q = Queue::new(0);
        assert_eq!(q.push(dummy_job(1, &c)).unwrap_err(), PushError::Full);
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_old() {
        let c = Arc::new(CompletionQueue::new().unwrap());
        let q = Queue::new(8);
        q.push(dummy_job(1, &c)).unwrap();
        q.shutdown();
        assert_eq!(q.push(dummy_job(2, &c)).unwrap_err(), PushError::ShuttingDown);
        assert!(q.pop().is_some(), "queued job survives shutdown");
        assert!(q.pop().is_none(), "then the exit signal");
    }

    #[test]
    fn completion_queue_drains_in_push_order() {
        let q = CompletionQueue::new().unwrap();
        let outcome = || Outcome::Err {
            status: 504,
            code: "deadline_exceeded",
            message: String::new(),
        };
        q.push(1, 10, outcome());
        q.push(2, 20, outcome());
        assert_eq!(q.len(), 2);
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, out[0].1), (1, 10));
        assert_eq!((out[1].0, out[1].1), (2, 20));
        assert!(q.is_empty());
    }

    #[test]
    fn blocked_pop_wakes_on_shutdown() {
        let q = Arc::new(Queue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop().is_none());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        assert!(h.join().unwrap());
    }
}
