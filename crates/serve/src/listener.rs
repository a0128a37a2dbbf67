//! The server: request dispatch and the graceful drain-then-exit shutdown
//! sequence around the evented listener.
//!
//! N event-loop shards, each with its own `SO_REUSEPORT` acceptor and
//! epoll reactor ([`crate::evented`]), parse requests and call
//! [`handle_request_step`] for every one, so routing, admission control,
//! deadlines, breakers, caching, canary sampling, and chaos semantics are
//! decided in exactly one place. Model answers are computed inline on the
//! shard; only `--fallback search` jobs leave it, for the worker pool in
//! [`crate::batch`]. `serve` is Linux-only: the reactor is built on epoll.
//!
//! Shutdown protocol (`POST /v1/shutdown`):
//!
//! 1. the handling connection gets its `200` *before* anything stops;
//! 2. the shutdown flag flips, so every connection closes after its
//!    in-flight request and the shards stop admitting sockets;
//! 3. the fallback queue stops admitting jobs but drains what it holds;
//!    its workers exit once it is empty;
//! 4. [`Server::run`] joins every shard and worker and returns `Ok`,
//!    letting the process exit 0.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use airchitect_telemetry::metrics;

use crate::batch::{
    execute_guarded, spawn_workers, CompletionQueue, Job, Outcome, PushError, Queue, Reply,
    Source,
};
use crate::breaker::{Admit, Breakers};
use crate::cache::{CachedResponse, LruCache};
use crate::canary::{Rollout, RolloutConfig};
use crate::fallback::{self, Oracle};
use crate::http::{Request, Response};
use crate::registry::{Registry, DEFAULT_RETAIN};
use crate::reload::{case_name, ModelHub};
use crate::router::{self, ParsedQuery, Route};
use crate::{ServeConfig, ServeError};

/// Hard ceiling on any effective deadline (10 minutes): an absurd
/// `X-Deadline-Ms` must not pin resources for hours.
const MAX_DEADLINE_MS: u64 = 600_000;

/// Consecutive accept failures tolerated (with backoff) before an accept
/// path (a shard, or the cluster router's loop) gives up. Transient errors — EMFILE pressure, injected faults —
/// should never kill an otherwise healthy server.
pub(crate) const MAX_ACCEPT_ERRORS: u32 = 64;

/// Per-shard counters for the evented listener, surfaced as
/// `serve.shard.N.*` lines in `/metrics`.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Connections currently registered with this shard's poller.
    pub(crate) open: AtomicU64,
    /// Connections this shard has accepted since startup.
    pub(crate) accepted: AtomicU64,
    /// Eventfd wakeups this shard has observed.
    pub(crate) wakeups: AtomicU64,
}

/// The listener-visible face of one evented shard: its stats and its
/// completion queue (whose depth is the ready-queue gauge and whose waker
/// nudges the loop during shutdown).
pub(crate) struct ShardHandle {
    pub(crate) stats: Arc<ShardStats>,
    pub(crate) completions: Arc<CompletionQueue>,
}

/// State shared by every shard and connection.
pub(crate) struct Inner {
    pub(crate) hub: Arc<ModelHub>,
    /// Fallback-search jobs for the worker pool; `None` without
    /// `--fallback search` (no pool is spawned).
    pub(crate) fallback: Option<Arc<Queue>>,
    pub(crate) cache: Mutex<LruCache>,
    pub(crate) breakers: Arc<Breakers>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) read_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    pub(crate) deadline_ms: u64,
    /// Opt-in `TCP_NODELAY` on accepted sockets.
    pub(crate) nodelay: bool,
    /// Shadow-oracle sampling pipeline; `None` when disabled.
    pub(crate) shadow: Option<Arc<crate::shadow::ShadowState>>,
    /// Canary rollout controller (inert when the split is zero and no
    /// registry is attached, but always present so dispatch is uniform).
    pub(crate) rollout: Rollout,
    pub(crate) shards: Vec<ShardHandle>,
}

/// A bound, ready-to-run inference server. Dropping it without calling
/// [`Server::run`] leaks nothing but joins nothing either; `run` owns the
/// full lifecycle.
pub struct Server {
    addr: SocketAddr,
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    #[cfg(target_os = "linux")]
    shards: Vec<crate::evented::ShardSeed>,
}

impl Server {
    /// Loads the models, binds one socket per shard, and (with
    /// `fallback_search`) starts the fallback worker pool.
    /// Also enables telemetry recording (the serve counters are the
    /// product surface of `/metrics`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] for bad configuration, model load failures,
    /// or bind failures.
    pub fn bind(config: &ServeConfig) -> Result<Self, ServeError> {
        if !cfg!(target_os = "linux") {
            return Err(ServeError::Config(
                "`serve` is Linux-only: its listener is built on epoll".into(),
            ));
        }
        airchitect_telemetry::enable();
        // Registry mode: boot from the stable `current.airm` copy so a
        // restart (even one SIGKILLed mid-rollout) lands on the version
        // the last successful promote installed. A `--model` given
        // alongside an *empty* registry seeds version 1; with an active
        // version already on disk, the registry wins.
        let mut model_paths = config.model_paths.clone();
        let registry = match &config.model_dir {
            Some(dir) => {
                let mut reg = Registry::open(dir, DEFAULT_RETAIN)
                    .map_err(|e| ServeError::Config(format!("--model-dir: {e}")))?;
                if model_paths.len() > 1 {
                    return Err(ServeError::Config(
                        "--model-dir manages a single model; pass at most one --model".into(),
                    ));
                }
                if reg.manifest().active.is_none() {
                    let seed = model_paths.first().ok_or_else(|| {
                        ServeError::Config(format!(
                            "registry at {} has no active version; seed it with --model or `train --model-dir`",
                            dir.display()
                        ))
                    })?;
                    let bytes = std::fs::read(seed)
                        .map_err(|e| ServeError::Io(format!("{}: {e}", seed.display())))?;
                    let version = reg
                        .add_version(&bytes)
                        .and_then(|v| reg.promote(v).map(|_| v))
                        .map_err(|e| ServeError::Config(format!("--model-dir seed: {e}")))?;
                    let _ = version;
                }
                model_paths = vec![reg.current_path()];
                Some(reg)
            }
            None => None,
        };
        // `fallback_search` doubles as "tolerate startup load failures":
        // the oracle can answer for a model that failed its checksum.
        let hub = Arc::new(ModelHub::load(&model_paths, config.fallback_search)?);
        let rollout = Rollout::new(
            RolloutConfig {
                split_ppm: airchitect_online::sampler::rate_to_ppm(config.canary_split),
                min_samples: config.canary_min_samples.max(1),
                min_agreement: config.canary_min_agreement,
                max_p99_ratio: config.canary_max_p99_ratio,
            },
            Arc::clone(&hub),
            registry,
        );
        // Built after `enable()` so the breaker gauges publish their
        // closed state and show up in `/metrics` from the first scrape.
        let breakers = Arc::new(Breakers::new(
            config.breaker_threshold,
            Duration::from_millis(config.breaker_cooldown_ms),
        ));

        #[cfg(target_os = "linux")]
        let shards = crate::evented::bind_shards(config)?;
        #[cfg(target_os = "linux")]
        let (addr, shard_handles) = (
            shards[0].addr,
            shards
                .iter()
                .map(|s| ShardHandle {
                    stats: Arc::clone(&s.stats),
                    completions: Arc::clone(&s.completions),
                })
                .collect(),
        );
        #[cfg(not(target_os = "linux"))]
        let (addr, shard_handles): (SocketAddr, Vec<ShardHandle>) =
            unreachable!("refused above");

        // The worker pool exists only to run the search oracle off the
        // shards: a CS3 exhaustive search costs about a millisecond.
        let (fallback, workers) = if config.fallback_search {
            let queue = Arc::new(Queue::new(config.queue_depth));
            let workers = spawn_workers(config.workers, Arc::clone(&queue), Arc::new(Oracle::new()));
            (Some(queue), workers)
        } else {
            (None, Vec::new())
        };
        let secs_opt = |secs: u64| (secs > 0).then(|| Duration::from_secs(secs));
        Ok(Self {
            addr,
            inner: Arc::new(Inner {
                hub,
                fallback,
                cache: Mutex::new(LruCache::new(config.cache_capacity)),
                breakers,
                shutdown: AtomicBool::new(false),
                read_timeout: secs_opt(config.read_timeout_secs),
                write_timeout: secs_opt(config.write_timeout_secs),
                deadline_ms: config.deadline_ms,
                nodelay: config.nodelay,
                shadow: crate::shadow::ShadowState::start(config)?,
                rollout,
                shards: shard_handles,
            }),
            workers,
            #[cfg(target_os = "linux")]
            shards,
        })
    }

    /// The bound address (read the ephemeral port back after `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of event-loop shards.
    pub fn event_loops(&self) -> usize {
        self.inner.shards.len()
    }

    /// Serves until `POST /v1/shutdown`, then drains and joins everything.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] only for accept or poller failures;
    /// per-connection errors are handled inside their shard.
    pub fn run(self) -> Result<(), ServeError> {
        #[cfg(target_os = "linux")]
        let result = crate::evented::run_shards(self.shards, &self.inner);
        #[cfg(not(target_os = "linux"))]
        let result = Ok(());
        let inner = self.inner;
        if let Some(queue) = &inner.fallback {
            queue.shutdown();
        }
        for handle in self.workers {
            let _ = handle.join();
        }
        // Drain the shadow pool last: in-flight oracle records land in the
        // log (with their end line) before the process exits.
        if let Some(shadow) = &inner.shadow {
            shadow.finish();
        }
        result
    }
}

/// How one request resolves from the caller's point of view.
pub(crate) enum Step {
    /// The response is ready — nothing was queued.
    Respond(Response),
    /// A fallback job was queued; the worker's outcome will arrive on the
    /// [`Reply`] built by the dispatch call. The caller must frame it
    /// with [`outcome_response`], record `serve.request_us`, and answer
    /// 504 itself if the deadline passes first.
    Queued {
        /// When request handling started (for the latency histogram).
        started: Instant,
        /// Absolute deadline, if one applies.
        deadline: Option<Instant>,
    },
}

/// Dispatches one request without blocking. The `bool` is the shutdown
/// signal: the response must be written before the server starts tearing
/// itself down. `make_reply` is only invoked if the request is queued.
pub(crate) fn handle_request_step(
    request: &Request,
    inner: &Inner,
    make_reply: &mut dyn FnMut() -> Reply,
) -> (Step, bool) {
    let route = match router::route(&request.method, &request.path) {
        Ok(r) => r,
        Err(resp) => return (Step::Respond(resp), false),
    };
    match route {
        Route::Healthz => (
            Step::Respond(router::render_healthz(
                &inner.hub,
                &inner.breakers,
                Some(&inner.rollout),
            )),
            false,
        ),
        Route::Metrics => (Step::Respond(render_metrics_response(inner)), false),
        Route::Shutdown => (
            Step::Respond(Response::json(200, "{\"shutting_down\":true}\n".into())),
            true,
        ),
        Route::Reload => (Step::Respond(reload(request, inner)), false),
        Route::Rollback => (Step::Respond(inner.rollout.rollback_now()), false),
        Route::Recommend(case) => (recommend_step(case, request, inner, make_reply), false),
    }
}

/// `/metrics` body: the telemetry registry plus the listener's live
/// connection accounting — an aggregate `serve.open_connections` line and
/// per-shard `serve.shard.N.*` gauges (the same manual append pattern the
/// cluster router uses for per-replica series).
fn render_metrics_response(inner: &Inner) -> Response {
    use std::fmt::Write as _;
    let mut resp = router::render_metrics();
    let mut total = 0;
    let mut shard_lines = String::new();
    for (i, shard) in inner.shards.iter().enumerate() {
        let open = shard.stats.open.load(Ordering::Relaxed);
        total += open;
        let _ = writeln!(shard_lines, "serve.shard.{i}.open_connections {open}");
        let _ = writeln!(
            shard_lines,
            "serve.shard.{i}.ready_depth {}",
            shard.completions.len()
        );
        let _ = writeln!(
            shard_lines,
            "serve.shard.{i}.wakeups {}",
            shard.stats.wakeups.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            shard_lines,
            "serve.shard.{i}.accepted {}",
            shard.stats.accepted.load(Ordering::Relaxed)
        );
    }
    let _ = writeln!(resp.body, "serve.open_connections {total}");
    resp.body.push_str(&shard_lines);
    resp
}

/// `POST /v1/reload` behind its circuit breaker: repeated reload failures
/// (corrupt artifact stuck on disk) stop hammering the filesystem and are
/// reported as an open circuit instead.
///
/// With a canary split configured the reload *stages* the candidate and
/// hands it to the rollout controller; without one it keeps the legacy
/// immediate swap (in registry mode, promoting the newest unquarantined
/// version first so the swap picks it up from `current.airm`).
fn reload(request: &Request, inner: &Inner) -> Response {
    match inner.breakers.reload.try_acquire() {
        Admit::No => {
            let mut resp = Response::error(
                503,
                "circuit_open",
                "reload circuit is open; retry after cooldown",
            );
            resp.retry_after = Some(1);
            resp
        }
        Admit::Yes
            if inner.rollout.enabled() && !crate::canary::reload_is_immediate(&request.body) =>
        {
            let resp = inner.rollout.stage_reload(&request.body);
            // A stage failure counts against the breaker exactly like a
            // failed legacy reload: redeploying a corrupt artifact in a
            // loop should trip it.
            inner.breakers.reload.record(resp.status == 200);
            resp
        }
        Admit::Yes => {
            // Immediate swap: explicit `{"path", "version"}` bodies from
            // the rolling coordinator are honored, registry mode promotes
            // the newest candidate first, plain mode re-reads the
            // registered paths. A failure still counts against the
            // breaker — an operator redeploying a corrupt model in a loop
            // should trip it.
            let resp = inner.rollout.immediate_reload(&request.body);
            inner.breakers.reload.record(resp.status == 200);
            resp
        }
    }
}

/// The effective per-request budget: the tighter of the server default and
/// the client's `X-Deadline-Ms`, both capped at [`MAX_DEADLINE_MS`].
fn effective_deadline(config_ms: u64, header_ms: Option<u64>) -> Option<Duration> {
    let ms = match (config_ms, header_ms) {
        (0, None) => return None,
        (0, Some(h)) => h,
        (c, None) => c,
        (c, Some(h)) => h.min(c),
    };
    Some(Duration::from_millis(ms.min(MAX_DEADLINE_MS)))
}

pub(crate) fn deadline_exceeded() -> Response {
    metrics::SERVE_DEADLINE_EXCEEDED.inc();
    Response::error(
        504,
        "deadline_exceeded",
        "request deadline expired before an answer was produced",
    )
}

pub(crate) fn draining() -> Response {
    let mut resp = Response::error(503, "draining", "server is shutting down");
    resp.retry_after = Some(1);
    resp
}

/// Records the end-to-end latency for a finished request. *Every*
/// terminal path goes through this — 504s, 429s, and draining rejections
/// included — so the histogram reflects the traffic the server actually
/// saw, not just its successes.
pub(crate) fn record_latency(started: Instant, response: Response) -> Response {
    metrics::SERVE_REQUEST_US.record(started.elapsed().as_micros() as u64);
    response
}

fn recommend_step(
    case: airchitect::model::CaseStudy,
    request: &Request,
    inner: &Inner,
    make_reply: &mut dyn FnMut() -> Reply,
) -> Step {
    metrics::SERVE_REQUESTS.inc();
    let started = Instant::now();
    let respond = |resp: Response| Step::Respond(record_latency(started, resp));
    let deadline =
        effective_deadline(inner.deadline_ms, request.deadline_ms).map(|budget| started + budget);
    // Admission-time checks: a draining server or an already-expired
    // budget (`X-Deadline-Ms: 0`) answers before any work is done.
    if inner.shutdown.load(Ordering::Acquire) {
        return respond(draining());
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return respond(deadline_exceeded());
    }
    let parsed = match router::parse_recommend(case, &request.body) {
        Ok(p) => p,
        Err(resp) => return respond(resp),
    };

    // Shadow-oracle sampling, before the cache so hot queries are scored
    // too. The task snapshots the live model: concurrent reloads can't
    // change which generation this request is scored against.
    if let Some(shadow) = &inner.shadow {
        if let Some(model) = inner.hub.get(case) {
            shadow.maybe_sample(&parsed.cache_key, &parsed.query, model);
        }
    }

    // Cache lookup, generation-checked against the live model.
    let live_generation = inner.hub.generation();
    let hit = inner
        .cache
        .lock()
        .expect("cache poisoned")
        .get(&parsed.cache_key, live_generation);
    if let Some(cached) = hit {
        metrics::SERVE_CACHE_HITS.inc();
        let body = format!("{{\"cached\":true,{}", cached.body_tail);
        return respond(Response::json(200, body));
    }
    metrics::SERVE_CACHE_MISSES.inc();

    // The model answers inline, top-1 and ranked alike. A missing model
    // or an open circuit degrades to the search oracle when one is
    // configured, else to a 503.
    let Some(model) = inner.hub.get(case) else {
        return fallback_or(inner, parsed, deadline, make_reply, started, || {
            Response::error(
                503,
                "model_not_loaded",
                &format!("no model loaded for case study `{}`", case_name(case)),
            )
        });
    };
    let breaker = inner.breakers.infer(case);
    if matches!(breaker.try_acquire(), Admit::No) {
        return fallback_or(inner, parsed, deadline, make_reply, started, || {
            let mut resp = Response::error(
                503,
                "circuit_open",
                &format!(
                    "inference circuit for `{}` is open; retry after cooldown",
                    case_name(case)
                ),
            );
            resp.retry_after = Some(1);
            resp
        });
    }

    // Canary slice: a deterministically sampled request is answered by
    // the staged candidate *and* the incumbent, the answers compared, and
    // the verdict tallied. The client gets the candidate's answer when it
    // succeeded, the incumbent's otherwise — a bad canary can lose the
    // vote but never fail a request.
    if let Some(candidate) = inner.rollout.active() {
        if let Some(cand_model) = candidate
            .model(case)
            .filter(|_| inner.rollout.in_slice(&parsed.cache_key))
        {
            let inc_start = Instant::now();
            let inc = execute_guarded(&model, &parsed.query, parsed.topk);
            let inc_us = inc_start.elapsed().as_micros() as u64;
            let cand_start = Instant::now();
            let cand = execute_guarded(cand_model, &parsed.query, parsed.topk);
            let cand_us = cand_start.elapsed().as_micros() as u64;
            let cand_failed = matches!(&cand, Outcome::Err { .. });
            let agreed = !cand_failed && answers_agree(&inc, &cand);
            inner
                .rollout
                .record_sample(&candidate, agreed, cand_failed, cand_us, inc_us);
            record_inference(breaker, &inc);
            // Never cached: the winning answer may carry a generation that
            // is not live.
            let served = if cand_failed { inc } else { cand };
            return respond(outcome_response(served, None, inner));
        }
    }

    let outcome = execute_guarded(&model, &parsed.query, parsed.topk);
    record_inference(breaker, &outcome);
    respond(outcome_response(outcome, Some(parsed.cache_key), inner))
}

/// Breaker accounting for one model answer. Only 5xx-class outcomes count
/// against it: a 422 for an infeasible budget is the query's fault, not
/// the model's.
fn record_inference(breaker: &crate::breaker::Breaker, outcome: &Outcome) {
    let failed = matches!(outcome, Outcome::Err { status, .. } if *status >= 500);
    if failed {
        metrics::SERVE_INFER_FAILURES.inc();
    }
    breaker.record(!failed);
}

/// Queues the query for the search oracle when `--fallback search` is on,
/// else answers `otherwise()`. A full queue rejects with 429.
fn fallback_or(
    inner: &Inner,
    parsed: ParsedQuery,
    deadline: Option<Instant>,
    make_reply: &mut dyn FnMut() -> Reply,
    started: Instant,
    otherwise: impl FnOnce() -> Response,
) -> Step {
    let respond = |resp: Response| Step::Respond(record_latency(started, resp));
    let Some(queue) = &inner.fallback else {
        return respond(otherwise());
    };
    let job = Job {
        query: parsed.query,
        topk: parsed.topk,
        reply: make_reply(),
        deadline,
    };
    match queue.push(job) {
        Ok(()) => Step::Queued { started, deadline },
        Err(PushError::Full) => {
            let mut resp =
                Response::error(429, "queue_full", "request queue is full; retry shortly");
            resp.retry_after = Some(1);
            respond(resp)
        }
        Err(PushError::ShuttingDown) => respond(draining()),
    }
}

/// Frames an [`Outcome`] as HTTP and handles response caching: model
/// answers are cached under `cache_key`, search answers never are.
pub(crate) fn outcome_response(outcome: Outcome, cache_key: Option<Vec<u8>>, inner: &Inner) -> Response {
    match outcome {
        Outcome::Ok {
            body_tail,
            generation,
            source,
        } => {
            let body = format!("{{\"cached\":false,{body_tail}");
            match source {
                // Only model answers are cached: a cache must never replay
                // a degraded-mode answer after the model recovers.
                Source::Model => {
                    if let Some(key) = cache_key {
                        inner.cache.lock().expect("cache poisoned").put(
                            key,
                            CachedResponse {
                                body_tail,
                                generation,
                            },
                        );
                    }
                    Response::json(200, body)
                }
                Source::Search => {
                    let mut resp = Response::json(200, body);
                    resp.warning = Some(fallback::WARNING.to_string());
                    resp
                }
            }
        }
        Outcome::Err {
            status,
            code,
            message,
        } => Response::error(status, code, &message),
    }
}

/// The part of an answer two models must match on for the canary to
/// count them as agreeing: everything after the generation (the tail's
/// first field, which legitimately differs between incumbent and
/// candidate), cut before the first `score`. For a ranked answer that is
/// its first entry without its score; a top-1 answer has no score.
fn answer_key(outcome: &Outcome) -> Option<&str> {
    let Outcome::Ok { body_tail, .. } = outcome else {
        return None;
    };
    let rest = &body_tail[body_tail.find(',')?..];
    Some(rest.find(",\"score\":").map_or(rest, |i| &rest[..i]))
}

/// Whether two successful answers agree (see [`answer_key`]).
fn answers_agree(a: &Outcome, b: &Outcome) -> bool {
    matches!((answer_key(a), answer_key(b)), (Some(x), Some(y)) if x == y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(tail: &str) -> Outcome {
        Outcome::Ok {
            body_tail: tail.into(),
            generation: 1,
            source: Source::Model,
        }
    }

    #[test]
    fn canary_agreement_ignores_generation_and_scores() {
        let top1 = |g: u64, df: &str| {
            ok(&format!(
                "\"generation\":{g},\"case\":\"array\",\"source\":\"model\",\"result\":{{\"rows\":4,\"dataflow\":\"{df}\"}}}}\n"
            ))
        };
        assert!(answers_agree(&top1(1, "OS"), &top1(2, "OS")));
        assert!(!answers_agree(&top1(1, "OS"), &top1(2, "WS")));
        // Ranked answers agree when their first entry, without its score,
        // matches: the tail of the list and every score may differ.
        let ranked = |g: u64, first: &str, s1: f64, second: &str| {
            ok(&format!(
                "\"generation\":{g},\"case\":\"array\",\"source\":\"model\",\"results\":[\
                 {{\"dataflow\":\"{first}\",\"score\":{s1}}},{{\"dataflow\":\"{second}\",\"score\":0.1}}]}}\n"
            ))
        };
        assert!(answers_agree(&ranked(1, "OS", 0.6, "WS"), &ranked(2, "OS", 0.4, "IS")));
        assert!(!answers_agree(&ranked(1, "OS", 0.6, "WS"), &ranked(2, "WS", 0.6, "OS")));
        let failed = Outcome::Err {
            status: 500,
            code: "inference_failed",
            message: String::new(),
        };
        assert!(!answers_agree(&top1(1, "OS"), &failed));
    }

    #[test]
    fn effective_deadline_prefers_the_tighter_budget() {
        assert_eq!(effective_deadline(0, None), None);
        assert_eq!(
            effective_deadline(0, Some(50)),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            effective_deadline(100, None),
            Some(Duration::from_millis(100))
        );
        assert_eq!(
            effective_deadline(100, Some(50)),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            effective_deadline(50, Some(100)),
            Some(Duration::from_millis(50))
        );
        assert_eq!(
            effective_deadline(0, Some(u64::MAX)),
            Some(Duration::from_millis(MAX_DEADLINE_MS))
        );
    }
}
