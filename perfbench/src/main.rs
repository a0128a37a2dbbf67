//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --bin <airchitect>
//! ```
//!
//! Runs one workload, checks every answer, and prints a host-noise record
//! followed, as the last line, by one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! the per-layer set, and the run's spans are written as JSON lines next
//! to the executable. See `perfbench/README.md`.

mod check;
mod fixture;
mod loadgen;
mod noise;
mod pipeline_wl;
mod queries;
mod serve_wl;
mod server;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::trace::Tracer;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: [(&str, &str); 10] = [
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_rps", "1/s"),
    ("work_s", "s"),
    ("success_frac", "frac"),
    ("answer_agree_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "frac"),
    ("perf_geomean", "frac"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("http.parse_us", "us"),
    ("router.parse_us", "us"),
    ("cache.lookup_us", "us"),
    ("infer.fast_us", "us"),
    ("infer.ranked_us", "us"),
    ("http.write_us", "us"),
    ("serve.unattributed_us", "us"),
    ("reload.ms", "ms"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.bypass_share", "frac"),
    ("batch.jobs_per_batch", "count"),
    ("serve.rejected", "count"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.ctx_switches_per_req", "count"),
    ("loadgen.busy_frac", "frac"),
    ("proxy.overhead_us", "us"),
    ("proxy.threads", "count"),
    ("cluster.failovers", "count"),
    ("cluster.hedges_fired", "count"),
    ("dse.label_us_per_sample.cs1", "us"),
    ("dse.label_us_per_sample.cs2", "us"),
    ("dse.label_us_per_sample.cs3", "us"),
    ("nn.epoch_s.cs1", "s"),
    ("nn.epoch_s.cs2", "s"),
    ("nn.epoch_s.cs3", "s"),
    ("tensor.train_gflops", "GFLOP/s"),
    ("core.eval_s", "s"),
    ("core.persist_s", "s"),
    ("pipeline.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn new() -> Self {
        Self::default()
    }

    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What a workload run produced.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    server_threads: Option<u64>,
    tracer: Tracer,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let num = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin: get("--bin").map(PathBuf::from),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let kind = match args.workload.as_str() {
        "pipeline" => return pipeline_wl::run(args.seed, args.seconds, args.trace),
        "serve_unique" => serve_wl::Kind::Unique,
        "serve_mixed" => serve_wl::Kind::Mixed,
        "fleet" => serve_wl::Kind::Fleet,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let bin = args
        .bin
        .as_deref()
        .ok_or("serve workloads need --bin <airchitect binary>")?;
    let fx = fixture::ensure()?;
    serve_wl::run(kind, args.seed, args.seconds, args.trace, bin, &fx)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let probe = noise::Probe::start();
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let build = args
        .bin
        .as_deref()
        .and_then(|b| sys::file_hash(b).ok())
        .map_or_else(String::new, |h| format!("{h:016x}"));
    println!("{}", probe.finish(outcome.server_threads, &build));

    if args.trace {
        let exe = std::env::current_exe().expect("own executable");
        let path = exe
            .parent()
            .expect("an executable lives in a directory")
            .join("perfbench-trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                outcome.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
        for (name, ns) in trace::self_time_by_name(outcome.tracer.spans()) {
            eprintln!(
                "perfbench: self time {name:<16} {:>12.3} ms",
                ns as f64 / 1e6
            );
        }
    }

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    let mut correct = outcome.correct;
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match outcome.metrics.0.get(*name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
}
