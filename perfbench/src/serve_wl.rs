//! The serve workloads: `airchitect serve` (or `serve --cluster`) as a
//! subprocess over loopback, driven by the closed-loop generator, with
//! every answer checked against the same models loaded in-process.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use airchitect::eval;
use airchitect::model::CaseStudy;
use airchitect_serve::batch::{self, Outcome};
use airchitect_serve::cache::{CachedResponse, LruCache};
use airchitect_serve::http::{self, Parsed, Response};
use airchitect_serve::reload::{LoadedModel, ModelHub};
use airchitect_serve::router;
use airchitect_telemetry::json::Value;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::check::{self, Spaces};
use crate::fixture::Fixture;
use crate::loadgen::{self, Item, Plan};
use crate::queries::{index_of, tag_of, BodyGen, Query, Zipf, CASES, CS1_BUDGET_LOG2};
use crate::server::{self, Ready, Server};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::Tracer;
use crate::{Metrics, Outcome as RunOutcome};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One connection, every query distinct, top-1 only.
    Unique,
    /// Two connections: Zipf hot keys, unique ranked queries, reloads.
    Mixed,
    /// `serve --cluster --replicas 1`, the unique stream over one connection.
    Fleet,
}

/// Measured requests per second of `--seconds` (a fixed count per run,
/// sized so a run lasts about `--seconds` on a 2-core host).
fn request_rate(kind: Kind) -> usize {
    match kind {
        Kind::Unique => 12_000,
        Kind::Mixed => 5_000,
        Kind::Fleet => 7_000,
    }
}

/// Warm-up requests (answers discarded, metrics excluded).
const WARMUP: usize = 2_000;
/// `serve_mixed`: hot keys (half the server's 4096-entry default cache).
const HOT_KEYS: usize = 2_048;
const HOT_SHARE: f64 = 0.75;
const ZIPF_S: f64 = 1.0;
/// `serve_mixed`: ranked-list size of the unique queries.
const RANKED_TOPK: usize = 16;
/// `serve_mixed`: a `POST /v1/reload` after this many requests.
const RELOAD_EVERY: usize = 8_192;
/// Server instances per run; `setup_s` is the median of their spawns.
const INSTANCES: usize = 5;
/// Consecutive requests sent to one instance before moving to the next.
const INSTANCE_BLOCK: usize = 5_000;
/// `fleet` traced run: every n-th request goes straight to the replica.
const DIRECT_EVERY: usize = 10;
/// Traced runs alternate untraced and traced blocks of this many requests.
const TRACE_BLOCK: usize = 1_000;
/// A measured loop stops sending after this many times `--seconds`, so a
/// slowed-down host cannot stretch a run without bound.
const BUDGET_FACTOR: f64 = 1.5;
/// Requests per window of the windowed end-to-end figures.
const WINDOW: usize = 5_000;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// What one stream position asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A recommendation query (index into the query table).
    Ask(usize),
    /// `POST /v1/reload` of the same model files.
    Reload,
}

/// All queries of a run, with their in-process answers.
struct Table {
    queries: Vec<Query>,
    /// Canonical top-1 of the int8 single-query path (`execute_fast`).
    fast: Vec<Value>,
    seen: HashSet<Vec<u8>>,
}

impl Table {
    /// Adds `q` unless it repeats a query already in the table (under any
    /// `topk`) or has no feasible answer. Returns its index.
    fn add(&mut self, q: Query, models: &[Arc<LoadedModel>]) -> Option<usize> {
        if !self.seen.insert(q.param_key()) {
            return None;
        }
        let fast = check::top1_of_outcome(&batch::execute_fast(
            &models[index_of(q.case)],
            &q.parsed.query,
        ))?;
        self.queries.push(q);
        self.fast.push(fast);
        Some(self.queries.len() - 1)
    }

    /// Adds random queries cycling through the cases until `n` were added.
    fn add_random(
        &mut self,
        gen: &mut BodyGen,
        n: usize,
        topk: usize,
        models: &[Arc<LoadedModel>],
    ) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        let mut case = 0usize;
        while out.len() < n {
            let c = CASES[case % 3];
            if let Some(i) = self.add(Query::new(c, &gen.body(c, topk), None), models) {
                out.push(i);
                case += 1;
            }
        }
        out
    }
}

/// Builds the query table, the measured stream and the warm-up stream.
fn build_streams(
    kind: Kind,
    seed: u64,
    seconds: u64,
    fx: &Fixture,
    models: &[Arc<LoadedModel>],
) -> (Table, Vec<Step>, Vec<usize>) {
    let n = request_rate(kind) * seconds as usize;
    let mut table = Table {
        queries: Vec::with_capacity(n + WARMUP),
        fast: Vec::with_capacity(n + WARMUP),
        seen: HashSet::with_capacity(2 * (n + WARMUP)),
    };
    let probe_topk = if kind == Kind::Mixed { RANKED_TOPK } else { 0 };
    let mut probes = Vec::new();
    for (ci, case) in CASES.into_iter().enumerate() {
        for row in 0..fx.probes[ci].len() {
            let body = crate::queries::row_body(case, fx.probes[ci].row(row), probe_topk);
            if let Some(i) = table.add(Query::new(case, &body, Some(row)), models) {
                probes.push(i);
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = BodyGen::new(seed ^ 0x00A1_1CE5);
    let stream = match kind {
        Kind::Unique | Kind::Fleet => {
            // Probes first (shuffled among themselves), so a run cut short
            // by its time budget still asks all of them.
            let mut unique = probes;
            unique.shuffle(&mut rng);
            let more = n.saturating_sub(unique.len());
            unique.extend(table.add_random(&mut gen, more, 0, models));
            unique.into_iter().map(Step::Ask).collect()
        }
        Kind::Mixed => {
            // Lay out the stream first, then fill its ranked positions with
            // exactly as many unique queries, so every probe is asked.
            let hot = table.add_random(&mut gen, HOT_KEYS, 0, models);
            let zipf = Zipf::new(HOT_KEYS, ZIPF_S);
            let mut stream: Vec<Step> = (0..n)
                .map(|i| {
                    if i > 0 && i % RELOAD_EVERY == 0 {
                        Step::Reload
                    } else if rng.random_bool(HOT_SHARE) {
                        Step::Ask(hot[zipf.sample(&mut rng)])
                    } else {
                        Step::Ask(usize::MAX)
                    }
                })
                .collect();
            let slots = stream
                .iter()
                .filter(|s| **s == Step::Ask(usize::MAX))
                .count();
            let mut ranked = probes;
            ranked.shuffle(&mut rng);
            ranked.extend(table.add_random(
                &mut gen,
                slots.saturating_sub(ranked.len()),
                RANKED_TOPK,
                models,
            ));
            let mut ranked = ranked.into_iter();
            for s in stream.iter_mut().filter(|s| **s == Step::Ask(usize::MAX)) {
                *s = Step::Ask(ranked.next().expect("one ranked query per slot"));
            }
            stream
        }
    };
    let mut warm_gen = BodyGen::new(seed ^ 0x0000_B0B0);
    let warm_topk = if kind == Kind::Mixed { RANKED_TOPK } else { 0 };
    let warm = table.add_random(&mut warm_gen, WARMUP, warm_topk, models);
    (table, stream, warm)
}

fn server_args(kind: Kind, fx: &Fixture) -> Vec<String> {
    let models: Vec<String> = fx.models.iter().map(|p| p.display().to_string()).collect();
    let mut args = vec![
        "--model".into(),
        models.join(","),
        "--port".into(),
        "0".into(),
    ];
    if kind == Kind::Fleet {
        args.extend(["--cluster".into(), "--replicas".into(), "1".into()]);
    }
    args
}

/// Per-layer timings from the in-process replay of the run's requests.
#[derive(Debug, Default)]
struct Replay {
    requests: usize,
    /// Layer → (total ns, calls).
    layers: BTreeMap<&'static str, (u64, usize)>,
}

const REPLAY_LAYERS: [&str; 6] = [
    "http.parse",
    "router.parse",
    "cache.lookup",
    "infer.fast",
    "infer.ranked",
    "http.write",
];

/// Replays the measured requests through each layer's public function, in
/// stream order, with one span per call.
fn replay(
    stream: &[Step],
    table: &Table,
    models: &[Arc<LoadedModel>],
    tracer: &mut Tracer,
) -> Replay {
    let mut cache = LruCache::new(4096);
    let mut generation = 1u64;
    let mut out = Vec::with_capacity(512);
    let first = tracer.spans().len();
    let mut requests = 0usize;
    for (i, step) in stream.iter().enumerate() {
        let qi = match *step {
            Step::Ask(qi) => qi,
            Step::Reload => {
                generation += 1;
                continue;
            }
        };
        let id = i as u64;
        requests += 1;
        let q = &table.queries[qi];
        tracer.enter("replay.request", id);
        let request = match tracer.span("http.parse", id, || http::try_parse(&q.request)) {
            Ok(Parsed::Complete { request, .. }) => request,
            other => panic!("replayed request {i} did not parse: {other:?}"),
        };
        let parsed = tracer.span("router.parse", id, || {
            router::route(&request.method, &request.path)
                .and_then(|_| router::parse_recommend(q.case, &request.body))
        });
        let parsed = parsed.unwrap_or_else(|r| panic!("replayed request {i} rejected: {}", r.body));
        let hit = tracer.span("cache.lookup", id, || {
            cache.get(&parsed.cache_key, generation)
        });
        let (cached, tail) = match hit {
            Some(hit) => (true, hit.body_tail),
            None => {
                let model = &models[index_of(q.case)];
                let outcome = if parsed.topk == 0 {
                    tracer.span("infer.fast", id, || {
                        batch::execute_fast(model, &parsed.query)
                    })
                } else {
                    tracer.span("infer.ranked", id, || {
                        batch::execute(model, &parsed.query, parsed.topk)
                    })
                };
                let Outcome::Ok { body_tail, .. } = outcome else {
                    panic!("replayed request {i} has no answer")
                };
                let value = CachedResponse {
                    body_tail: body_tail.clone(),
                    generation,
                };
                tracer.span("cache.lookup", id, || {
                    cache.put(parsed.cache_key.clone(), value)
                });
                (false, body_tail)
            }
        };
        tracer.span("http.write", id, || {
            out.clear();
            let resp = Response::json(200, format!("{{\"cached\":{cached},{tail}"));
            http::write_response(&mut out, &resp, true).expect("writing to a Vec cannot fail");
        });
        tracer.exit();
    }
    let mut r = Replay {
        requests,
        ..Replay::default()
    };
    for s in &tracer.spans()[first..] {
        if let Some(name) = REPLAY_LAYERS.iter().find(|&&n| n == s.name) {
            let e = r.layers.entry(name).or_default();
            e.0 += s.duration_ns();
            e.1 += 1;
        }
    }
    r
}

fn vm_hwm_mb(pid: u32) -> f64 {
    sys::status_field(&pid.to_string(), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Checked answers of the measured run.
#[derive(Debug, Default)]
struct Verdict {
    answered: usize,
    agree: usize,
    legit_other: usize,
    wrong: usize,
    malformed: usize,
    probe_labels: [Vec<u32>; 3],
    notes: Vec<String>,
}

/// Checks every answer: a 200 must carry a top-1 equal to the in-process
/// int8 answer (agreement) or, failing that, to the f32 path's answer for
/// the same query (a legitimate answer from the batch path). Anything else
/// is wrong.
fn verify(
    run: &loadgen::Run,
    stream: &[Step],
    table: &Table,
    models: &[Arc<LoadedModel>],
    spaces: &Spaces,
    fx: &Fixture,
) -> Verdict {
    let mut v = Verdict::default();
    for (ci, set) in fx.probes.iter().enumerate() {
        v.probe_labels[ci] = vec![u32::MAX; set.len()];
    }
    let mut f32_answers: HashMap<usize, Vec<Value>> = HashMap::new();
    for (i, step) in stream.iter().enumerate() {
        let rec = run.records[i];
        let body = String::from_utf8_lossy(run.body(i));
        let qi = match *step {
            Step::Reload => {
                if rec.ok() && !body.contains("\"reloaded\":true") {
                    v.malformed += 1;
                    v.notes
                        .push(format!("reload {i}: unexpected answer {body}"));
                }
                continue;
            }
            Step::Ask(qi) => qi,
        };
        if !rec.ok() {
            if v.notes.len() < 8 {
                v.notes
                    .push(format!("request {i}: status {} body {body}", rec.status));
            }
            continue;
        }
        let Some(top) = check::top1(&body) else {
            v.malformed += 1;
            v.notes
                .push(format!("request {i}: malformed answer {body}"));
            continue;
        };
        v.answered += 1;
        let q = &table.queries[qi];
        if top == table.fast[qi] {
            v.agree += 1;
        } else {
            let legit = f32_answers.entry(qi).or_insert_with(|| {
                let model = &models[index_of(q.case)];
                [0, RANKED_TOPK]
                    .iter()
                    .filter_map(|&k| {
                        check::top1_of_outcome(&batch::execute(model, &q.parsed.query, k))
                    })
                    .collect()
            });
            if legit.contains(&top) {
                v.legit_other += 1;
            } else {
                v.wrong += 1;
                if v.notes.len() < 16 {
                    v.notes.push(format!(
                        "request {i}: wrong answer {body} (int8 path says {:?})",
                        table.fast[qi]
                    ));
                }
            }
        }
        if let Some(row) = q.probe {
            let ci = index_of(q.case);
            v.probe_labels[ci][row] = spaces.label_of(q.case, &top).unwrap_or(u32::MAX);
        }
    }
    v
}

/// Runs one serve workload.
///
/// # Errors
///
/// Set-up failures (fixture, spawn, readiness), as text.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin: &Path,
    fx: &Fixture,
) -> Result<RunOutcome, String> {
    let hub =
        ModelHub::load(&fx.models, false).map_err(|e| format!("load models in-process: {e}"))?;
    let models: Vec<Arc<LoadedModel>> = CASES
        .iter()
        .map(|&c| {
            hub.get(c)
                .ok_or_else(|| format!("no {} model in the fixture", tag_of(c)))
        })
        .collect::<Result<_, _>>()?;
    let (table, stream, warm) = build_streams(kind, seed, seconds, fx, &models);

    // Set-up: spawn to ready, several times. Every instance stays up and
    // takes its share of the measured stream in blocks, so a run is not a
    // bet on one process's placement on the host.
    let args = server_args(kind, fx);
    let ready = if kind == Kind::Fleet {
        Ready::Replicas(1)
    } else {
        Ready::Models(3)
    };
    let mut setups = Vec::with_capacity(INSTANCES);
    let mut servers: Vec<Server> = Vec::with_capacity(INSTANCES);
    for _ in 0..INSTANCES {
        match Server::start(bin, &args, ready) {
            Ok((s, took)) => {
                setups.push(took.as_secs_f64());
                servers.push(s);
            }
            Err(e) => {
                for s in servers {
                    s.stop();
                }
                return Err(e);
            }
        }
    }
    let replicas: Vec<Option<(u32, SocketAddr)>> = servers
        .iter()
        .map(|s| s.replica_pids().into_iter().zip(s.replica_addrs()).next())
        .collect();
    if kind == Kind::Fleet && replicas.iter().any(Option::is_none) {
        for s in servers {
            s.stop();
        }
        return Err("fleet health names no replica pid/address".into());
    }
    // A fleet's work happens in its replica: its counters come from there.
    let work_addrs: Vec<SocketAddr> = servers
        .iter()
        .zip(&replicas)
        .map(|(s, r)| r.map_or(s.addr, |(_, a)| a))
        .collect();
    let router_addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr).collect();
    let instance_pids: Vec<Vec<u32>> = servers
        .iter()
        .zip(&replicas)
        .map(|(s, r)| std::iter::once(s.pid()).chain(r.map(|(p, _)| p)).collect())
        .collect();
    let pids: Vec<u32> = instance_pids.iter().flatten().copied().collect();

    // Connection group k is instance k: one connection, two for
    // serve_mixed. The traced fleet run adds group INSTANCES + k, a direct
    // socket to instance k's replica, under the same one-outstanding budget.
    let direct = trace && kind == Kind::Fleet;
    let per_group = if kind == Kind::Mixed { 2 } else { 1 };
    let mut targets = Vec::new();
    let mut groups = Vec::new();
    for (k, s) in servers.iter().enumerate() {
        for _ in 0..per_group {
            targets.push(s.addr);
            groups.push(k as u8);
        }
    }
    if direct {
        for (k, a) in work_addrs.iter().enumerate() {
            targets.push(*a);
            groups.push((INSTANCES + k) as u8);
        }
    }
    let plan = Plan {
        targets,
        groups,
        max_outstanding: per_group,
        timeout: REQUEST_TIMEOUT,
        budget: None,
    };
    let reload_req = crate::queries::render_request("/v1/reload", "");
    let group_of = |i: usize| -> u8 {
        let k = (i / INSTANCE_BLOCK) % INSTANCES;
        if direct && i % DIRECT_EVERY == DIRECT_EVERY - 1 {
            (INSTANCES + k) as u8
        } else {
            k as u8
        }
    };
    let item = |i: usize, step: &Step| -> Item<'_> {
        let request = match *step {
            Step::Ask(qi) => &table.queries[qi].request[..],
            Step::Reload => &reload_req[..],
        };
        Item {
            request,
            group: group_of(i),
        }
    };
    // Each instance is warmed by its own contiguous share of the warm-up.
    let warm_items: Vec<Item<'_>> = warm
        .iter()
        .enumerate()
        .map(|(i, &qi)| Item {
            request: &table.queries[qi].request,
            group: (i * INSTANCES / warm.len()) as u8,
        })
        .collect();
    let items: Vec<Item<'_>> = stream.iter().enumerate().map(|(i, s)| item(i, s)).collect();

    let mut tracer = Tracer::new(trace);
    let warm_run = loadgen::drive(&plan, &warm_items, &mut Tracer::new(false), TRACE_BLOCK);
    let m0 = server::sum_metrics(&work_addrs);
    let router0 = (kind == Kind::Fleet).then(|| server::sum_metrics(&router_addrs));
    let cpu0: f64 = pids
        .iter()
        .filter_map(|p| sys::cpu_seconds(&p.to_string()))
        .sum();
    let ctx0: u64 = pids.iter().map(|&p| sys::context_switches(p)).sum();
    let measured = Plan {
        budget: Some(Duration::from_secs_f64(seconds as f64 * BUDGET_FACTOR)),
        ..plan.clone()
    };
    let run = loadgen::drive(&measured, &items, &mut tracer, TRACE_BLOCK);
    let cpu1: f64 = pids
        .iter()
        .filter_map(|p| sys::cpu_seconds(&p.to_string()))
        .sum();
    let ctx1: u64 = pids.iter().map(|&p| sys::context_switches(p)).sum();
    let m1 = server::sum_metrics(&work_addrs);
    let router1 = (kind == Kind::Fleet).then(|| server::sum_metrics(&router_addrs));
    let rss: Vec<f64> = instance_pids
        .iter()
        .map(|ps| ps.iter().map(|&p| vm_hwm_mb(p)).sum())
        .collect();
    let rss_mb = rss.iter().sum::<f64>() / rss.len() as f64;
    let threads: Vec<u64> = instance_pids[0]
        .iter()
        .map(|p| sys::status_field(&p.to_string(), "Threads").unwrap_or(0))
        .collect();
    let mut clean = true;
    for s in servers {
        clean &= s.stop();
    }

    // A run cut short by its time budget covers a prefix of the stream.
    let planned = stream.len();
    let stream = &stream[..run.records.len()];
    let items = &items[..run.records.len()];

    // Checks.
    let spaces = Spaces::new(1 << CS1_BUDGET_LOG2.1);
    let verdict = verify(&run, stream, &table, &models, &spaces, fx);
    let attempted = stream.len() as u64;
    let failed = run.failed() as u64 + verdict.malformed as u64;
    let mut notes = verdict.notes.clone();
    notes.extend(run.errors.iter().cloned());
    if warm_run.failed() > 0 {
        notes.push(format!(
            "warm-up: {} of {} requests failed",
            warm_run.failed(),
            warm.len()
        ));
    }
    if !clean {
        notes.push("a server did not shut down cleanly".into());
    }
    if stream.len() < planned {
        notes.push(format!(
            "time budget ran out after {} of {planned} requests",
            stream.len()
        ));
    }
    let answer_agree = verdict.agree as f64 / verdict.answered.max(1) as f64;
    // The int8 path answers every top-1 query on an idle single server, so
    // anything but full agreement there is a defect.
    let must_agree = kind != Kind::Mixed;
    let correct = verdict.wrong == 0
        && verdict.malformed == 0
        && clean
        && (!must_agree || verdict.legit_other == 0);
    if must_agree && verdict.legit_other > 0 {
        notes.push(format!(
            "{} answers took the f32 path on a top-1-only stream",
            verdict.legit_other
        ));
    }

    // End-to-end metrics: latency over the requests to the service under
    // test (not the fleet's direct replica probes, not reloads); a failed
    // request counts as missing every limit.
    let main_conn = |i: usize| items[i].group < INSTANCES as u8;
    let latency_us = |i: usize| {
        let r = run.records[i];
        let us = r.latency_ns as f64 / 1e3;
        if r.ok() {
            us
        } else {
            us.max(REQUEST_TIMEOUT.as_secs_f64() * 1e6)
        }
    };
    let asked = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
        (0..stream.len())
            .filter(|&i| matches!(stream[i], Step::Ask(_)) && pred(i))
            .collect()
    };
    let lat_us = |pred: &dyn Fn(usize) -> bool| -> Vec<f64> {
        asked(pred).into_iter().map(latency_us).collect()
    };
    let main = asked(&main_conn);
    let latencies: Vec<f64> = main.iter().map(|&i| latency_us(i)).collect();
    let summary = Summary::of(&latencies).ok_or("no measured requests")?;
    // Windows of about WINDOW consecutive requests: each contributes its
    // p50, p90 and answer rate, and the run reports their medians.
    let per_window = main.len().div_ceil((main.len() / WINDOW).max(1));
    let windows: Vec<stats::Window> = main
        .chunks(per_window)
        .map(|idx| {
            let recs = || idx.iter().map(|&i| run.records[i]);
            let first = recs().map(|r| r.sent_ns).min().unwrap_or(0);
            let last = recs().map(|r| r.sent_ns + r.latency_ns).max().unwrap_or(0);
            let answers = recs().filter(|r| r.ok()).count();
            let wall_s = (last.saturating_sub(first) as f64 / 1e9).max(1e-9);
            (
                idx.iter().map(|&i| latency_us(i)).collect(),
                answers as f64 / wall_s,
            )
        })
        .collect();
    let w = stats::Windowed::of(&windows).ok_or("no measured requests")?;
    let elapsed = run.elapsed.as_secs_f64();
    let mut m = Metrics::new();
    m.set("latency_p50_us", w.p50);
    m.set("latency_p90_us", w.p90);
    m.set("throughput_rps", w.rate);
    // The planned request count at the median window rate.
    m.set("work_s", planned as f64 / w.rate);
    m.set(
        "success_frac",
        (attempted - failed) as f64 / attempted as f64,
    );
    m.set("answer_agree_frac", answer_agree);
    m.set("setup_s", stats::median(&setups).expect("set-ups ran"));
    m.set("peak_rss_mb", rss_mb);
    let mut quality = Vec::with_capacity(3);
    for (ci, case) in CASES.into_iter().enumerate() {
        let labels = &verdict.probe_labels[ci];
        let set = &fx.probes[ci];
        let report = match case {
            CaseStudy::ArrayDataflow => eval::case1_penalty(&spaces.cs1, set, labels),
            CaseStudy::BufferSizing => eval::case2_penalty(&spaces.cs2, set, labels),
            CaseStudy::MultiArrayScheduling => eval::case3_penalty(&spaces.cs3, set, labels),
        };
        eprintln!(
            "perfbench: {} probes: accuracy {:.4}, perf geomean {:.4} over {} answers",
            tag_of(case),
            report.accuracy,
            report.geomean,
            set.len()
        );
        quality.push((set.len(), report.accuracy, report.geomean));
    }
    let (accuracy, geomean) = stats::pooled_quality(&quality);
    m.set("accuracy", accuracy);
    m.set("perf_geomean", geomean);
    eprintln!(
        "perfbench: {} requests in {elapsed:.3} s; latency over {} samples: p50 {:.1} us, p90 {:.1} us, p99 {:.1} us ({} beyond), max {:.1} us; setups {:?} s",
        attempted,
        summary.count,
        summary.p50,
        summary.p90,
        summary.p99,
        stats::beyond(&{
            let mut v = latencies.clone();
            v.sort_by(f64::total_cmp);
            v
        }, 99.0),
        summary.max,
        setups
    );
    eprintln!(
        "perfbench: answers {} agree with the int8 path, {} with the f32 path, {} wrong, {} malformed",
        verdict.agree, verdict.legit_other, verdict.wrong, verdict.malformed
    );
    let p50s: Vec<f64> = windows
        .iter()
        .filter_map(|(lat, _)| Summary::of(lat).map(|s| s.p50))
        .collect();
    eprintln!(
        "perfbench: {} windows: medians p50 {:.1} us, p90 {:.1} us, {:.0} answers/s; window p50s {:.1?} us (IQR/median {:.3})",
        w.windows,
        w.p50,
        w.p90,
        w.rate,
        p50s,
        stats::relative_spread(&p50s).unwrap_or(0.0)
    );

    if trace {
        let d = |name: &str| server::delta(&m0, &m1, name);
        let hits = d("serve.cache_hits");
        let misses = d("serve.cache_misses");
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        m.set("serve.cache_hit_ratio", ratio(hits, hits + misses));
        m.set("serve.bypass_share", ratio(d("serve.bypass"), misses));
        m.set(
            "batch.jobs_per_batch",
            ratio(d("serve.batched_jobs"), d("serve.batches")),
        );
        m.set("serve.rejected", d("serve.rejected"));
        m.set(
            "serve.cpu_us_per_req",
            (cpu1 - cpu0) * 1e6 / attempted as f64,
        );
        m.set(
            "serve.ctx_switches_per_req",
            (ctx1 - ctx0) as f64 / attempted as f64,
        );
        m.set("loadgen.busy_frac", run.cpu_s / elapsed);
        let reloads: Vec<f64> = stream
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Step::Reload)
            .map(|(i, _)| run.records[i].latency_ns as f64 / 1e6)
            .collect();
        m.set("reload.ms", stats::median(&reloads).unwrap_or(0.0));
        if let (Some(r0), Some(r1)) = (&router0, &router1) {
            let direct_p50 = Summary::of(&lat_us(&|i| !main_conn(i))).map_or(0.0, |s| s.p50);
            m.set("proxy.overhead_us", summary.p50 - direct_p50);
            m.set("proxy.threads", threads[0] as f64);
            m.set(
                "cluster.failovers",
                server::delta(r0, r1, "cluster.failovers"),
            );
            m.set(
                "cluster.hedges_fired",
                server::delta(r0, r1, "cluster.hedges_fired"),
            );
        }
        // Traced blocks (client spans on) against untraced blocks.
        let block = |odd: bool| lat_us(&|i| main_conn(i) && ((i / TRACE_BLOCK) % 2 == 1) == odd);
        if let (Some(on), Some(off)) = (Summary::of(&block(true)), Summary::of(&block(false))) {
            m.set("trace.overhead_frac", on.p50 / off.p50 - 1.0);
        }
        let measured: Vec<Step> = stream
            .iter()
            .enumerate()
            .filter(|(i, _)| main_conn(*i))
            .map(|(_, s)| *s)
            .collect();
        let r = replay(&measured, &table, &models, &mut tracer);
        let per_request = |name: &str| {
            r.layers
                .get(name)
                .map_or(0.0, |&(ns, _)| ns as f64 / 1e3 / r.requests as f64)
        };
        let per_call = |name: &str| {
            r.layers
                .get(name)
                .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n as f64)
        };
        m.set("http.parse_us", per_call("http.parse"));
        m.set("router.parse_us", per_call("router.parse"));
        m.set("cache.lookup_us", per_request("cache.lookup"));
        m.set("infer.fast_us", per_call("infer.fast"));
        m.set("infer.ranked_us", per_call("infer.ranked"));
        m.set("http.write_us", per_call("http.write"));
        let attributed: f64 = REPLAY_LAYERS.iter().map(|l| per_request(l)).sum();
        m.set("serve.unattributed_us", summary.mean - attributed);
        eprintln!(
            "perfbench: replayed {} requests; client mean {:.2} us, layers {:.2} us per request",
            r.requests, summary.mean, attributed
        );
    }

    for n in &notes {
        eprintln!("perfbench: {n}");
    }
    Ok(RunOutcome {
        correct,
        attempted,
        failed,
        metrics: m,
        server_threads: Some(threads.iter().sum()),
        tracer,
    })
}
