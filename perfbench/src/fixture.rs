//! The serve workloads' deployment: three trained models and a labelled
//! probe set per case study.
//!
//! Serving never times training, so the fixture is built once per build
//! of the benchmark (keyed by a hash of its own executable, which links
//! the whole library) and reused by every later run. It lives next to the
//! executable in the build directory. Both the models and the probes come
//! from fixed seeds: they are the system under test, not the workload.

use std::path::{Path, PathBuf};
use std::time::Instant;

use airchitect::model::CaseStudy;
use airchitect::persist;
use airchitect::pipeline::{self, PipelineConfig};
use airchitect_data::{codec, Dataset};
use airchitect_dse::case1::{self, Case1DatasetSpec, Case1Problem};
use airchitect_dse::case2::{self, Case2DatasetSpec, Case2Problem};
use airchitect_dse::case3::{self, Case3DatasetSpec, Case3Problem};

use crate::queries::{tag_of, CASES, CS1_BUDGET_LOG2};
use crate::sys;

/// Bump when the fixture's recipe changes.
const RECIPE: u64 = 2;
const MODEL_SEED: u64 = 0x5EED_0001;
const PROBE_SEED: u64 = 0x5EED_0002;
/// Labelled probes per case study (CS3 labels cost ~1.4 ms each).
const PROBES: [usize; 3] = [1000, 1000, 300];

/// Paths of a built fixture.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Trained `.airm` files, in [`CASES`] order.
    pub models: Vec<PathBuf>,
    /// Labelled probe sets, in [`CASES`] order.
    pub probes: Vec<Dataset>,
}

fn model_config(case: CaseStudy) -> PipelineConfig {
    let (samples, epochs) = match case {
        CaseStudy::ArrayDataflow => (8000, 10),
        CaseStudy::BufferSizing => (4000, 10),
        CaseStudy::MultiArrayScheduling => (2000, 8),
    };
    PipelineConfig {
        samples,
        epochs,
        batch_size: 256,
        seed: MODEL_SEED,
        stratify: false,
        threads: sys::nproc(),
    }
}

fn probe_set(case: CaseStudy, samples: usize) -> Dataset {
    match case {
        CaseStudy::ArrayDataflow => case1::generate_dataset(
            &Case1Problem::new(1 << CS1_BUDGET_LOG2.1),
            &Case1DatasetSpec {
                samples,
                budget_log2_range: CS1_BUDGET_LOG2,
                seed: PROBE_SEED,
            },
        ),
        CaseStudy::BufferSizing => case2::generate_dataset(
            &Case2Problem::new(),
            &Case2DatasetSpec {
                samples,
                seed: PROBE_SEED,
                ..Default::default()
            },
        ),
        CaseStudy::MultiArrayScheduling => case3::generate_dataset(
            &Case3Problem::new(),
            &Case3DatasetSpec {
                samples,
                seed: PROBE_SEED,
            },
        ),
    }
}

fn build(dir: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    for (case, probes) in CASES.into_iter().zip(PROBES) {
        let cfg = model_config(case);
        let run = match case {
            CaseStudy::ArrayDataflow => pipeline::run_case1(&cfg, CS1_BUDGET_LOG2),
            CaseStudy::BufferSizing => pipeline::run_case2(&cfg),
            CaseStudy::MultiArrayScheduling => pipeline::run_case3(&cfg),
        };
        let tag = tag_of(case);
        persist::save(&run.model, dir.join(format!("{tag}.airm")))
            .map_err(|e| format!("save {tag}: {e}"))?;
        let set = probe_set(case, probes);
        std::fs::write(
            dir.join(format!("{tag}.probes.aids")),
            codec::to_bytes(&set),
        )
        .map_err(io)?;
        eprintln!(
            "perfbench: fixture {tag}: test accuracy {:.4}, {} probes",
            run.test_accuracy,
            set.len()
        );
    }
    Ok(())
}

/// Loads the fixture for this build, building it first if needed.
///
/// # Errors
///
/// File-system errors or unreadable artifacts.
pub fn ensure() -> Result<Fixture, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let key = sys::file_hash(&exe).map_err(|e| format!("{}: {e}", exe.display()))? ^ RECIPE;
    let base = exe
        .parent()
        .expect("an executable lives in a directory")
        .join("perfbench-fixture");
    let dir = base.join(format!("{key:016x}"));
    if !dir.join("done").exists() {
        let t0 = Instant::now();
        eprintln!(
            "perfbench: building serve fixture in {} (once per build)",
            dir.display()
        );
        let tmp = base.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        build(&tmp)?;
        std::fs::write(tmp.join("done"), b"").map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::rename(&tmp, &dir).map_err(|e| format!("publish fixture: {e}"))?;
        eprintln!(
            "perfbench: fixture built in {:.1} s",
            t0.elapsed().as_secs_f64()
        );
    }
    let mut fixture = Fixture {
        models: Vec::new(),
        probes: Vec::new(),
    };
    for case in CASES {
        let tag = tag_of(case);
        fixture.models.push(dir.join(format!("{tag}.airm")));
        let bytes =
            std::fs::read(dir.join(format!("{tag}.probes.aids"))).map_err(|e| e.to_string())?;
        fixture
            .probes
            .push(codec::from_bytes(&bytes).map_err(|e| format!("{tag} probes: {e}"))?);
    }
    Ok(fixture)
}
