//! The `pipeline` workload: generate → train → evaluate for the three case
//! studies in-process, then persist each model and time the exhaustive
//! CS3 search the learned optimizer replaces. No serve code runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use airchitect::model::{AirchitectConfig, AirchitectModel, CaseStudy};
use airchitect::pipeline::{self, CaseStudyRun, PipelineConfig};
use airchitect::{eval, persist};
use airchitect_data::{split, Dataset};
use airchitect_dse::case1::{self, Case1DatasetSpec, Case1Problem};
use airchitect_dse::case2::{self, Case2DatasetSpec, Case2Problem};
use airchitect_dse::case3::{self, Case3DatasetSpec, Case3Problem};
use airchitect_nn::layer::Layer;
use airchitect_nn::optim::Optimizer;
use airchitect_nn::train::TrainConfig;
use airchitect_workload::distribution::CnnWorkloadSampler;
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::queries::{tag_of, CASES, CS1_BUDGET_LOG2};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::Tracer;
use crate::{Metrics, Outcome};

/// Samples and epochs per case at `--seconds 10` (training rows are 80 %
/// of the samples: 6800 / 3400 / 2125). Samples scale with `--seconds`.
const SIZES: [(usize, usize); 3] = [(8500, 8), (4250, 8), (2657, 3)];
/// Kernel threads for training. One, not `nproc`: on a 2-vCPU VM, keeping
/// both vCPUs busy drew 5-17 % steal from the hypervisor and a 23 %
/// run-to-run spread in `work_s`; the trained models are byte-identical
/// for any thread count.
const THREADS: usize = 1;
const SETUPS: usize = 7;
/// Rounds of timed CS3 searches in each gap between stages; each round
/// searches every query once, on one CPU, taking the CPUs in turn.
const ROUNDS_PER_GAP: usize = 10;
/// Distinct CS3 queries (~0.8-1.5 ms of search each).
const SEARCH_QUERIES: usize = 40;

fn config(ci: usize, seed: u64, seconds: u64) -> PipelineConfig {
    let (samples, epochs) = SIZES[ci];
    PipelineConfig {
        samples: (samples * seconds as usize / 10).max(200),
        epochs,
        batch_size: 256,
        seed,
        stratify: false,
        threads: THREADS,
    }
}

fn run_case(case: CaseStudy, cfg: &PipelineConfig) -> CaseStudyRun {
    match case {
        CaseStudy::ArrayDataflow => pipeline::run_case1(cfg, CS1_BUDGET_LOG2),
        CaseStudy::BufferSizing => pipeline::run_case2(cfg),
        CaseStudy::MultiArrayScheduling => pipeline::run_case3(cfg),
    }
}

/// Untimed preparation before the first stage: building the three
/// case-study problems (output-space enumeration) and one tiny
/// generate/train pass that faults in code and allocator state.
fn prepare() -> f64 {
    let t = Instant::now();
    std::hint::black_box((
        Case1Problem::new(1 << CS1_BUDGET_LOG2.1),
        Case2Problem::new(),
        Case3Problem::new(),
    ));
    let warm = PipelineConfig {
        samples: 300,
        epochs: 1,
        batch_size: 64,
        seed: 1,
        stratify: false,
        threads: THREADS,
    };
    std::hint::black_box(pipeline::run_case1(&warm, CS1_BUDGET_LOG2).test_accuracy);
    t.elapsed().as_secs_f64()
}

/// CS3 queries for the search timing, drawn from the run's seed from the
/// training distribution (the search needs no labels).
fn search_queries(seed: u64) -> Vec<Vec<GemmWorkload>> {
    let sampler = CnnWorkloadSampler::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0053_EA4C);
    (0..SEARCH_QUERIES)
        .map(|_| sampler.sample_many(4, &mut rng))
        .collect()
}

/// Best-of-rounds timing of the exhaustive CS3 search — the search the
/// learned optimizer stands in for, on its largest (1,944-schedule) space.
///
/// The host's speed for this throughput-bound loop switches between two
/// levels about 1.8x apart in episodes of tens of milliseconds to tens of
/// seconds (a busy hyperthread sibling outside the VM slows it; a
/// dependent-multiply loop is unaffected), separately on each vCPU. A
/// median over single timings lands on either level depending on the mix
/// a run happens to get; each query's best time over rounds spread across
/// the run and the CPUs does not.
struct SearchTiming {
    /// Each query's fastest search so far, in microseconds.
    best: Vec<f64>,
    /// Each query's answer in the first round; later rounds must agree.
    labels: Vec<Option<u32>>,
    /// Median single search of each gap, for the stderr log.
    gap_p50s: Vec<f64>,
    /// Searches whose answer differed from the query's first answer.
    disagreements: usize,
    /// Searches timed.
    searches: usize,
}

impl SearchTiming {
    fn new(queries: usize) -> Self {
        Self {
            best: vec![f64::INFINITY; queries],
            labels: vec![None; queries],
            gap_p50s: Vec::new(),
            disagreements: 0,
            searches: 0,
        }
    }

    /// Runs one gap's rounds over `queries`, then restores the thread's
    /// CPU affinity.
    fn gap(&mut self, problem: &Case3Problem, queries: &[Vec<GemmWorkload>]) {
        let home = sys::CpuSet::current();
        let cpus = home.map_or_else(Vec::new, |set| set.cpus());
        let mut lat = Vec::with_capacity(ROUNDS_PER_GAP * queries.len());
        for round in 0..ROUNDS_PER_GAP {
            if let Some(&cpu) = cpus.get(round % cpus.len().max(1)) {
                sys::CpuSet::single(cpu).apply();
            }
            for (qi, workloads) in queries.iter().enumerate() {
                let t = Instant::now();
                let label = std::hint::black_box(problem.search(workloads).label);
                let us = t.elapsed().as_secs_f64() * 1e6;
                self.best[qi] = self.best[qi].min(us);
                lat.push(us);
                if *self.labels[qi].get_or_insert(label) != label {
                    self.disagreements += 1;
                }
            }
        }
        if let Some(home) = home {
            home.apply();
        }
        self.searches += lat.len();
        if let Some(s) = Summary::of(&lat) {
            self.gap_p50s.push(s.p50);
        }
    }
}

fn persist_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable");
    exe.parent()
        .expect("an executable lives in a directory")
        .join(format!("perfbench-tmp-{}", std::process::id()))
}

/// Saves and reloads each model; returns (rows whose reloaded prediction
/// matches, rows compared).
fn persist_round_trip(
    runs: &[CaseStudyRun],
    tracer: &mut Tracer,
) -> Result<(usize, usize), String> {
    let dir = persist_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut same = 0usize;
    let mut total = 0usize;
    for run in runs {
        let path = dir.join(format!("{}.airm", tag_of(run.case)));
        let loaded = tracer.span("core.persist", run.case as u64, || {
            persist::save(&run.model, &path).and_then(|()| persist::load(&path))
        });
        let loaded = loaded.map_err(|e| format!("persist {}: {e}", tag_of(run.case)))?;
        let before = run.model.predict(&run.test_set);
        let after = loaded.predict(&run.test_set);
        same += before.iter().zip(&after).filter(|(a, b)| a == b).count();
        total += before.len();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((same, total))
}

/// Floating-point operations of one training step per row, from the
/// network's dense-layer shapes: forward 2·in·out, backward twice that.
fn train_flops_per_row(model: &AirchitectModel) -> f64 {
    model
        .network()
        .layers()
        .iter()
        .map(|l| match l {
            Layer::Dense(d) => 6.0 * (d.in_dim() * d.out_dim()) as f64,
            _ => 0.0,
        })
        .sum()
}

/// A case study's test-split scorer.
type Penalty = Box<dyn Fn(&Dataset, &[u32]) -> eval::PenaltyReport>;

/// Per-case stage results of the traced run.
struct Staged {
    accuracy: f64,
    geomean: f64,
    samples: usize,
    train_rows: usize,
    epochs: usize,
    flops: f64,
}

/// The stages of `pipeline::run_caseN`, called one by one (mirroring the
/// library's `run_common`) so each gets its own span.
fn staged_case(
    case: CaseStudy,
    cfg: &PipelineConfig,
    tracer: &mut Tracer,
) -> (Staged, CaseStudyRun) {
    let id = case as u64;
    let (dataset, classes, penalty): (Dataset, u32, Penalty) = match case {
        CaseStudy::ArrayDataflow => {
            let problem = Case1Problem::new(1 << CS1_BUDGET_LOG2.1);
            let spec = Case1DatasetSpec {
                samples: cfg.samples,
                budget_log2_range: CS1_BUDGET_LOG2,
                seed: cfg.seed,
            };
            let ds = tracer.span("dse.label", id, || case1::generate_dataset(&problem, &spec));
            let classes = problem.space().len() as u32;
            (
                ds,
                classes,
                Box::new(move |t, p| eval::case1_penalty(&problem, t, p)),
            )
        }
        CaseStudy::BufferSizing => {
            let problem = Case2Problem::new();
            let spec = Case2DatasetSpec {
                samples: cfg.samples,
                seed: cfg.seed,
                ..Default::default()
            };
            let ds = tracer.span("dse.label", id, || case2::generate_dataset(&problem, &spec));
            let classes = problem.space().len() as u32;
            (
                ds,
                classes,
                Box::new(move |t, p| eval::case2_penalty(&problem, t, p)),
            )
        }
        CaseStudy::MultiArrayScheduling => {
            let problem = Case3Problem::new();
            let spec = Case3DatasetSpec {
                samples: cfg.samples,
                seed: cfg.seed,
            };
            let ds = tracer.span("dse.label", id, || case3::generate_dataset(&problem, &spec));
            let classes = problem.space().len() as u32;
            (
                ds,
                classes,
                Box::new(move |t, p| eval::case3_penalty(&problem, t, p)),
            )
        }
    };
    let parts = tracer.span("data.split", id, || {
        split::paper_split(&dataset, cfg.seed).expect("80:10:10 fractions are valid")
    });
    let train = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        optimizer: Optimizer::adam(1e-3),
        seed: cfg.seed,
        lr_decay: 1.0,
        threads: cfg.threads,
    };
    let mut model = AirchitectModel::new(
        case,
        &AirchitectConfig {
            num_classes: classes,
            train,
            seed: cfg.seed,
            ..Default::default()
        },
    );
    let report = tracer.span("nn.train", id, || {
        model
            .train_with_validation(&parts.train, Some(&parts.validation))
            .expect("generated datasets are valid")
    });
    let (accuracy, report_pen) = tracer.span("core.eval", id, || {
        let predictions = model.predict(&parts.test);
        let acc = airchitect_nn::metrics::accuracy(&predictions, parts.test.labels());
        (acc, penalty(&parts.test, &predictions))
    });
    let staged = Staged {
        accuracy,
        geomean: report_pen.geomean,
        samples: dataset.len(),
        train_rows: parts.train.len(),
        epochs: cfg.epochs,
        flops: train_flops_per_row(&model),
    };
    let label_distributions = eval::label_distributions(&parts.test, &model.predict(&parts.test));
    let run = CaseStudyRun {
        case,
        model,
        report,
        test_accuracy: accuracy,
        penalty: report_pen,
        label_distributions,
        test_set: parts.test,
    };
    (staged, run)
}

/// Runs the pipeline workload.
///
/// # Errors
///
/// Persist failures or a model that cannot serve, as text.
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let setups: Vec<f64> = (0..SETUPS).map(|_| prepare()).collect();
    let configs: Vec<PipelineConfig> = (0..3).map(|ci| config(ci, seed, seconds)).collect();

    // One gap of timed searches before the pipeline and one after each
    // case study, so the searches sample the whole run, not one moment.
    let problem3 = Case3Problem::new();
    let queries = search_queries(seed);
    let mut searches = SearchTiming::new(queries.len());
    searches.gap(&problem3, &queries);
    let mut pipeline_s = 0.0;
    let mut runs: Vec<Option<CaseStudyRun>> = Vec::with_capacity(3);
    for (&case, cfg) in CASES.iter().zip(&configs) {
        let t0 = Instant::now();
        runs.push(catch_unwind(AssertUnwindSafe(|| run_case(case, cfg))).ok());
        pipeline_s += t0.elapsed().as_secs_f64();
        searches.gap(&problem3, &queries);
    }
    let completed = runs.iter().filter(|r| r.is_some()).count();
    let runs: Vec<CaseStudyRun> = runs.into_iter().flatten().collect();
    let mut notes = Vec::new();
    if completed < 3 {
        notes.push(format!("only {completed} of 3 case studies completed"));
    }

    let mut tracer = Tracer::new(trace);
    let mut m = Metrics::new();
    let mut correct = completed == 3;
    for run in &runs {
        let ok = (0.0..=1.0).contains(&run.test_accuracy)
            && run.penalty.geomean > 0.0
            && run.penalty.geomean <= 1.0 + 1e-9;
        if !ok {
            correct = false;
            notes.push(format!(
                "{}: accuracy {} / geomean {} out of range",
                tag_of(run.case),
                run.test_accuracy,
                run.penalty.geomean
            ));
        }
    }

    if searches.disagreements > 0 {
        correct = false;
        notes.push(format!(
            "{} of {} repeated CS3 searches changed their answer",
            searches.disagreements, searches.searches
        ));
    }
    if !trace {
        let (same, total) = persist_round_trip(&runs, &mut tracer)?;
        if same != total {
            correct = false;
            notes.push(format!(
                "reloaded models disagree on {} of {total} test rows",
                total - same
            ));
        }
        let best = Summary::of(&searches.best).expect("searches ran");
        eprintln!(
            "perfbench: CS3 search gap p50s {:.1?} us over {} searches; best of {} rounds per query: p50 {:.2} us, p90 {:.2} us, max {:.2} us",
            searches.gap_p50s,
            searches.searches,
            searches.gap_p50s.len() * ROUNDS_PER_GAP,
            best.p50,
            best.p90,
            best.max
        );
        m.set("latency_p50_us", best.p50);
        m.set("latency_p90_us", best.p90);
        m.set("throughput_rps", 1e6 / best.mean);
        m.set("work_s", pipeline_s);
        m.set("success_frac", completed as f64 / 3.0);
        m.set("answer_agree_frac", same as f64 / total.max(1) as f64);
        m.set("setup_s", stats::median(&setups).expect("set-ups ran"));
        m.set(
            "peak_rss_mb",
            sys::status_field("self", "VmHWM").unwrap_or(0) as f64 / 1024.0,
        );
        let quality: Vec<(usize, f64, f64)> = runs
            .iter()
            .map(|r| (r.test_set.len(), r.test_accuracy, r.penalty.geomean))
            .collect();
        let (accuracy, geomean) = stats::pooled_quality(&quality);
        m.set("accuracy", accuracy);
        m.set("perf_geomean", geomean);
        for run in &runs {
            eprintln!(
                "perfbench: {}: {} test rows, accuracy {:.4}, perf geomean {:.4}",
                tag_of(run.case),
                run.test_set.len(),
                run.test_accuracy,
                run.penalty.geomean
            );
        }
        eprintln!("perfbench: pipeline {pipeline_s:.3} s; setups {setups:?} s");
    } else {
        // The staged, traced pipeline must reproduce the library's runs
        // exactly; its wall time against the untraced run above is the
        // tracing overhead.
        let t1 = Instant::now();
        tracer.enter("pipeline", 0);
        let mut staged = Vec::new();
        let mut staged_runs = Vec::new();
        for (&case, cfg) in CASES.iter().zip(&configs) {
            tracer.enter("pipeline.case", case as u64);
            let (s, r) = staged_case(case, cfg, &mut tracer);
            tracer.exit();
            staged.push(s);
            staged_runs.push(r);
        }
        tracer.exit();
        let traced_s = t1.elapsed().as_secs_f64();
        persist_round_trip(&staged_runs, &mut tracer)?;
        for (s, run) in staged.iter().zip(&runs) {
            if s.accuracy != run.test_accuracy || s.geomean != run.penalty.geomean {
                correct = false;
                notes.push(format!(
                    "{}: staged run gives accuracy {} / geomean {}, library run {} / {}",
                    tag_of(run.case),
                    s.accuracy,
                    s.geomean,
                    run.test_accuracy,
                    run.penalty.geomean
                ));
            }
        }
        let spans = tracer.spans();
        let of = |name: &str, case: CaseStudy| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name && s.request == case as u64)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .sum()
        };
        let mut flops = 0.0;
        let mut train_s = 0.0;
        for (s, &case) in staged.iter().zip(CASES.iter()) {
            let tag = tag_of(case);
            m.set(
                &format!("dse.label_us_per_sample.{tag}"),
                of("dse.label", case) * 1e6 / s.samples as f64,
            );
            m.set(
                &format!("nn.epoch_s.{tag}"),
                of("nn.train", case) / s.epochs as f64,
            );
            flops += s.flops * (s.train_rows * s.epochs) as f64;
            train_s += of("nn.train", case);
        }
        let total = |name: &str| tracer.total_ns(name) as f64 / 1e9;
        m.set("tensor.train_gflops", flops / train_s / 1e9);
        m.set("core.eval_s", total("core.eval"));
        m.set("core.persist_s", total("core.persist"));
        let stages =
            total("dse.label") + total("data.split") + total("nn.train") + total("core.eval");
        m.set(
            "pipeline.unattributed_frac",
            1.0 - stages / total("pipeline"),
        );
        m.set("trace.overhead_frac", traced_s / pipeline_s - 1.0);
        eprintln!(
            "perfbench: pipeline untraced {pipeline_s:.3} s, staged and traced {traced_s:.3} s"
        );
    }
    for n in &notes {
        eprintln!("perfbench: {n}");
    }
    Ok(Outcome {
        correct,
        attempted: 3,
        failed: 3 - completed as u64,
        metrics: m,
        server_threads: None,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_pipeline_reproduces_the_library_runs_exactly() {
        for (ci, &case) in CASES.iter().enumerate() {
            let cfg = PipelineConfig {
                samples: [400, 300, 120][ci],
                epochs: 2,
                batch_size: 64,
                seed: 3,
                stratify: false,
                threads: 1,
            };
            let lib = run_case(case, &cfg);
            let mut tracer = Tracer::new(true);
            let (staged, run) = staged_case(case, &cfg, &mut tracer);
            assert_eq!(staged.accuracy, lib.test_accuracy, "{case:?}");
            assert_eq!(staged.geomean, lib.penalty.geomean, "{case:?}");
            assert_eq!(
                persist::to_bytes(&run.model),
                persist::to_bytes(&lib.model),
                "{case:?}"
            );
            for stage in ["dse.label", "data.split", "nn.train", "core.eval"] {
                assert_eq!(tracer.count(stage), 1, "{stage}");
            }
        }
    }
}
