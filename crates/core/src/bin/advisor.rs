//! `spmv-advisor` — the deployable face of the paper: read a MatrixMarket
//! file, extract the seventeen features, and print the recommended storage
//! format plus the predicted SpMV time of every format for a chosen GPU and
//! precision.
//!
//! Usage:
//!   spmv-advisor <matrix.mtx> [--gpu k80c|p100] [--precision single|double]
//!                [--train-scale tiny|small] [--explain] [--json]
//!                [--model <advisor.json>] [--save-model <advisor.json>]
//!                [--trace-out <trace.json>]
//!   spmv-advisor --model-info <advisor.json> [--json]
//!
//! `--model-info` validates an artifact's envelope (magic, version,
//! checksum, staleness against the current GPU-model version) without
//! deserializing the payload, and prints what a server's `/healthz`
//! would disclose for it — the fleet-side half of the generation/
//! checksum provenance story (DESIGN.md §4i). Exit 4 if the envelope is
//! rejected, exactly like `--model`.
//!
//! `--json` replaces the human-readable report with exactly one JSON
//! line — the same bytes `spmv-serve` returns for the same matrix and
//! model (both go through `AdvisorHandle`/`RecommendResponse::to_json`),
//! so scripted pipelines can switch between the one-shot CLI and the
//! server without re-parsing anything.
//!
//! `--model` loads a saved advisor artifact instead of training;
//! `--save-model` persists the trained advisor for later `--model` runs.
//! `--train-env sim|cpu-native|cpu-synthetic` picks where training labels
//! come from (default: the GPU simulator). Under a CPU environment the
//! two architecture rows are `cpu-simd`/`cpu-scalar` instead of
//! K80c/P100, so `--gpu k80c` selects the SIMD row and `--gpu p100` the
//! scalar row; native label collection runs the `spmv-exec` kernels on
//! first use and caches under an env-tagged name next to the simulator
//! cache. Scenario tags (`--list-envs` enumerates every accepted value)
//! are also accepted: format-labeled cells (`gpu-spmv` .. `mc-solver`)
//! train a v2-layout advisor whose rows append the scenario's
//! eight-number descriptor after the matrix features (DESIGN.md §4k);
//! the SpGEMM cells (`gpu-spgemm-aa` .. `mc-spgemm-aat`) instead train a
//! **dataflow advisor** (DESIGN.md §4l): the matrix is pushed through
//! the symbolic SpGEMM analysis, and the recommendation is one of the
//! four dataflows (with per-dataflow predicted times) rather than a
//! storage format. The envelope records the widened feature arity and
//! the artifact kind, so format and dataflow artifacts are rejected
//! (exit 4) by each other's loaders and by pre-scenario loaders.
//! `--explain` additionally prints the GPU model's per-format timing
//! breakdown (launch / compute / DRAM / L2 / critical-path / atomics and
//! the binding bottleneck) — the "why" behind the recommendation.
//! `--trace-out` (or `SPMV_TRACE=PATH`) writes the run manifest described
//! in DESIGN.md §4g; it is written even when the run exits non-zero, so
//! fault tallies of failed runs are observable.
//!
//! Exit codes (stable, for scripting):
//!   0  success
//!   2  usage error (unknown flag, missing or duplicate input path)
//!   3  the matrix file is missing or malformed
//!   4  the model artifact is missing, corrupt, or stale
//!
//! Every failure prints exactly one `spmv-advisor: error: ...` line on
//! stderr. The advisor trains on a cached synthetic corpus on first use
//! (the cache lives next to the repro harness's, under `results/`).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spmv_core::experiments::ExperimentConfig;
use spmv_core::{
    heuristic_dataflow, DataflowAdvisor, Env, FormatAdvisor, LabelEnvironment, Recommendation,
    Scenario, SearchBudget,
};
use spmv_corpus::CorpusScale;
use spmv_features::{extract, FeatureId, DATAFLOW_FEATURE_NAMES};
use spmv_gpusim::{predict, Dataflow, KernelProfile, SpgemmProfile};
use spmv_matrix::{
    mm, CsrStructure, Format, Precision, SparseMatrix, SpgemmOperand, SpgemmSymbolic,
    StructureScratch,
};

/// Usage error (exit 2).
const EXIT_USAGE: u8 = 2;
/// Matrix read/parse error (exit 3).
const EXIT_MATRIX: u8 = 3;
/// Model artifact error (exit 4).
const EXIT_ARTIFACT: u8 = 4;

const USAGE: &str = "usage: spmv-advisor <matrix.mtx> [--gpu k80c|p100] \
                     [--precision single|double] [--train-scale tiny|small] \
                     [--train-env sim|cpu-native|cpu-synthetic|<scenario>] [--explain] \
                     [--json] [--model <advisor.json>] [--save-model <advisor.json>] \
                     [--trace-out <trace.json>]\n\
                     \x20      spmv-advisor --model-info <advisor.json> [--json]\n\
                     \x20      spmv-advisor --list-envs\n\
                     \x20      (--list-envs enumerates every accepted --train-env tag)";

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("spmv-advisor: error: {msg}");
    ExitCode::from(code)
}

struct Opts {
    path: PathBuf,
    arch_idx: usize,
    precision: Precision,
    scale: CorpusScale,
    train_env: LabelEnvironment,
    explain: bool,
    json: bool,
    model: Option<PathBuf>,
    save_model: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    model_info: bool,
}

/// What a successful parse asks for: run the advisor, or one of the
/// input-free informational modes.
enum Parsed {
    Help,
    ListEnvs,
    Run(Opts),
}

/// Parse argv. `Err(msg)` is a usage error (exit 2).
fn parse_args(args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut args = args;
    let mut path: Option<PathBuf> = None;
    let mut arch_idx = 1usize; // P100
    let mut precision = Precision::Double;
    let mut scale = CorpusScale::Small;
    let mut train_env = LabelEnvironment::Simulator;
    let mut explain = false;
    let mut json = false;
    let mut model: Option<PathBuf> = None;
    let mut save_model: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut model_info = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--gpu" => match args.next().as_deref() {
                Some("k80c") | Some("K80c") => arch_idx = 0,
                Some("p100") | Some("P100") => arch_idx = 1,
                other => return Err(format!("unknown --gpu {other:?} (k80c|p100)")),
            },
            "--precision" => match args.next().as_deref() {
                Some("single") => precision = Precision::Single,
                Some("double") => precision = Precision::Double,
                other => return Err(format!("unknown --precision {other:?} (single|double)")),
            },
            "--train-scale" => match args.next().as_deref() {
                Some("tiny") => scale = CorpusScale::Tiny,
                Some("small") => scale = CorpusScale::Small,
                other => return Err(format!("unknown --train-scale {other:?} (tiny|small)")),
            },
            "--train-env" => match args.next().as_deref().and_then(LabelEnvironment::parse) {
                Some(env) => train_env = env,
                None => {
                    return Err(
                        "unknown --train-env (sim|cpu-native|cpu-synthetic|scenario tag; \
                         see --help)"
                            .to_string(),
                    )
                }
            },
            "--model" => match args.next() {
                Some(p) => model = Some(PathBuf::from(p)),
                None => return Err("--model needs a path".into()),
            },
            "--save-model" => match args.next() {
                Some(p) => save_model = Some(PathBuf::from(p)),
                None => return Err("--save-model needs a path".into()),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => return Err("--trace-out needs a path".into()),
            },
            "--explain" => explain = true,
            "--json" => json = true,
            "--model-info" => model_info = true,
            "--list-envs" => return Ok(Parsed::ListEnvs),
            "--help" | "-h" => return Ok(Parsed::Help),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'; see --help"))
            }
            other => {
                if let Some(first) = &path {
                    return Err(format!(
                        "two input files given ({} and {other}); expected one",
                        first.display()
                    ));
                }
                path = Some(PathBuf::from(other));
            }
        }
    }
    let path = path.ok_or_else(|| {
        if model_info {
            "no artifact file; usage: spmv-advisor --model-info <advisor.json>".to_string()
        } else {
            "no input file; see --help".to_string()
        }
    })?;
    Ok(Parsed::Run(Opts {
        path,
        arch_idx,
        precision,
        scale,
        train_env,
        explain,
        json,
        model,
        save_model,
        trace_out,
        model_info,
    }))
}

/// `--list-envs`: every tag `--train-env` accepts, one per line with the
/// advisor kind it trains — the CLI's own answer to "what cells exist",
/// kept in lockstep with [`Scenario::ALL`] so a new scenario cell shows
/// up here without touching this function.
fn list_envs() {
    println!("{:<16} GPU-simulator labels (default)", "sim");
    println!("{:<16} measured native CPU kernels", "cpu-native");
    println!(
        "{:<16} deterministic synthetic replay of the native pipeline",
        "cpu-synthetic"
    );
    for sc in Scenario::ALL {
        let m = sc.machines();
        let kind = if sc.is_spgemm() {
            "dataflow advisor"
        } else {
            "format advisor"
        };
        println!(
            "{:<16} scenario cell: {} on {}/{} [{kind}]",
            sc.tag(),
            sc.op.label(),
            m[0].name,
            m[1].name,
        );
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Parsed::Run(o)) => o,
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::ListEnvs) => {
            list_envs();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{USAGE}");
            return fail(EXIT_USAGE, &msg);
        }
    };
    let trace = spmv_core::TraceSession::start(opts.trace_out.clone());
    if trace.is_some() {
        spmv_core::observe::set_provenance("tool", "spmv-advisor");
        spmv_core::observe::set_provenance("gpu", if opts.arch_idx == 0 { "k80c" } else { "p100" });
        spmv_core::observe::set_provenance(
            "precision",
            match opts.precision {
                Precision::Single => "single",
                Precision::Double => "double",
            },
        );
        spmv_core::observe::set_timing_info("threads", &spmv_ml::thread_budget(None).to_string());
    }
    let code = run(&opts);
    // The manifest is written even on failed runs: injected-fault and
    // artifact-reject tallies are most interesting precisely then.
    if let Some(session) = trace {
        match session.finish() {
            Ok(path) => eprintln!("spmv-advisor: wrote run manifest to {}", path.display()),
            Err(e) => eprintln!("spmv-advisor: error: could not write run manifest: {e}"),
        }
    }
    code
}

/// `--model-info`: validate and describe an artifact envelope. The
/// checksum and versions printed here are exactly what a server loading
/// this artifact discloses on `/healthz`, so a fleet script can verify
/// "the artifact I shipped is the one serving" without a round trip
/// through a recommendation.
fn model_info(path: &Path, json: bool) -> ExitCode {
    let info = match FormatAdvisor::inspect_artifact(path) {
        Ok(info) => info,
        Err(e) => {
            return fail(
                EXIT_ARTIFACT,
                &format!("inspecting {}: {e}", path.display()),
            )
        }
    };
    if json {
        println!(
            "{{\"artifact_version\":{},\"model_version\":{},\"feature_arity\":{},\
             \"kind\":\"{}\",\"checksum\":\"{}\",\"payload_bytes\":{},\"stale\":{}}}",
            info.artifact_version,
            info.model_version,
            info.feature_arity,
            info.kind,
            info.checksum,
            info.payload_bytes,
            info.stale
        );
    } else {
        println!("{}: valid advisor artifact", path.display());
        println!("  envelope version : {}", info.artifact_version);
        println!(
            "  model version    : {}{}",
            info.model_version,
            if info.stale {
                " (STALE: GPU model has moved on)"
            } else {
                ""
            }
        );
        println!("  kind             : {}", info.kind);
        println!("  feature arity    : {}", info.feature_arity);
        println!("  checksum         : {} (verified)", info.checksum);
        println!("  payload          : {} bytes", info.payload_bytes);
    }
    ExitCode::SUCCESS
}

fn run(opts: &Opts) -> ExitCode {
    let _span = spmv_core::observe::span("advisor/run");
    if opts.model_info {
        return model_info(&opts.path, opts.json);
    }
    // SpGEMM scenario cells recommend a dataflow, not a storage format —
    // a different advisor kind with its own input row, so its own path.
    if let Some(sc) = opts.train_env.scenario() {
        if sc.is_spgemm() {
            return run_spgemm(opts, sc);
        }
    }
    // 1. Load the matrix: exit 3 on anything the parser rejects.
    let coo = match mm::read_matrix_market_file::<f64, _>(&opts.path) {
        Ok(m) => m,
        Err(e) => {
            return fail(
                EXIT_MATRIX,
                &format!("reading {}: {e}", opts.path.display()),
            )
        }
    };
    let csr = coo.to_csr();
    if !opts.json {
        println!(
            "{}: {} x {}, {} non-zeros",
            opts.path.display(),
            csr.n_rows(),
            csr.n_cols(),
            csr.nnz()
        );

        // 2. Features.
        let features = extract(&csr);
        println!("\nfeatures (Table II):");
        for f in FeatureId::ALL {
            println!(
                "  {:<11} = {:>14.4}   ({})",
                f.name(),
                features.get(f),
                f.describe()
            );
        }
    }

    let env = Env {
        arch_idx: opts.arch_idx,
        precision: opts.precision,
    };

    // 3. Obtain an advisor: load a saved artifact (exit 4 if rejected) or
    // train on the cached corpus.
    let advisor = match &opts.model {
        Some(mp) => match FormatAdvisor::load(mp) {
            Ok(a) => {
                if a.env() != env {
                    eprintln!(
                        "spmv-advisor: note: artifact was trained for {}, requested {}",
                        a.env().label(),
                        env.label()
                    );
                }
                a
            }
            Err(e) => return fail(EXIT_ARTIFACT, &format!("loading {}: {e}", mp.display())),
        },
        None => {
            let cfg = match opts.scale {
                CorpusScale::Tiny => ExperimentConfig::tiny(),
                _ => ExperimentConfig::quick(),
            };
            // `cpu-synthetic` takes its stream seed from the suite so the
            // labels line up with what `repro --exec-synthetic` collects.
            let train_env = match opts.train_env {
                LabelEnvironment::CpuSynthetic { .. } => LabelEnvironment::CpuSynthetic {
                    seed: cfg.suite_seed,
                },
                other => other,
            };
            let cfg = cfg.with_env(train_env);
            eprintln!(
                "\ntraining advisor for {} (corpus cached under results/)...",
                train_env.env_label(env)
            );
            let corpus = cfg.corpus();
            match train_env.scenario() {
                // Scenario cells train the v2-layout advisor: matrix
                // features plus the cell's (op, arch, precision)
                // descriptor, recorded in the envelope's feature arity.
                Some(sc) => {
                    FormatAdvisor::train_for_scenario(&corpus, sc, env, SearchBudget::Quick)
                }
                None => FormatAdvisor::train(&corpus, env, SearchBudget::Quick),
            }
        }
    };
    if let Some(sp) = &opts.save_model {
        if let Err(e) = advisor.save(sp) {
            return fail(EXIT_ARTIFACT, &format!("saving {}: {e}", sp.display()));
        }
        eprintln!("spmv-advisor: saved model artifact to {}", sp.display());
    }

    // 4. Recommend. `recommend` never fails: a broken model path degrades
    // to the rule-based heuristic and says so in `source`.
    if opts.json {
        // The serving surface: identical bytes to a `spmv-serve` 200 body
        // for the same matrix and model (minus the trailing newline that
        // println! adds back).
        let handle = spmv_core::AdvisorHandle::from_advisor(advisor);
        println!("{}", handle.recommend_csr(&csr).to_json());
        return ExitCode::SUCCESS;
    }
    let rec: Recommendation = advisor.recommend(&csr);
    println!(
        "\nrecommended format ({}): {}  [{} path, confidence {:.2}]",
        env.label(),
        rec.format.label(),
        rec.source,
        rec.confidence
    );
    println!("\npredicted SpMV times:");
    for (fmt, t) in advisor.predict_times(&csr) {
        let marker = if fmt == rec.format {
            "  <- advisor pick"
        } else {
            ""
        };
        if t.is_finite() {
            println!("  {:<10} {:>10.2} us{}", fmt.label(), t * 1e6, marker);
        } else {
            println!("  {:<10} {:>10}{}", fmt.label(), "n/a", marker);
        }
    }

    if opts.explain {
        println!(
            "\nGPU-model breakdown on {} (simulator ground truth):",
            env.label()
        );
        println!(
            "  {:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  bottleneck",
            "format", "total us", "launch", "compute", "dram", "l2", "atomics"
        );
        for fmt in Format::ALL {
            match SparseMatrix::from_csr(&csr, fmt) {
                Ok(m) => {
                    let p = KernelProfile::of(&m);
                    let t = predict(&p, env.arch(), env.precision);
                    println!(
                        "  {:<10} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}  {}",
                        fmt.label(),
                        t.total_s * 1e6,
                        t.launch_s * 1e6,
                        t.compute_s * 1e6,
                        t.dram_s * 1e6,
                        t.l2_s * 1e6,
                        t.atomic_s * 1e6,
                        t.bottleneck()
                    );
                }
                Err(e) => println!("  {:<10} conversion fails: {e}", fmt.label()),
            }
        }
    }
    ExitCode::SUCCESS
}

/// The SpGEMM path: `--train-env gpu-spgemm-aa` and friends. Pushes the
/// input matrix through the symbolic output-structure analysis, obtains a
/// [`DataflowAdvisor`] (loaded or trained on the cell's labeled corpus),
/// and reports the recommended dataflow plus every dataflow's predicted
/// time on the chosen machine row. The same exit-code contract as the
/// format path; the model artifact carries kind `dataflow`.
fn run_spgemm(opts: &Opts, sc: Scenario) -> ExitCode {
    let coo = match mm::read_matrix_market_file::<f64, _>(&opts.path) {
        Ok(m) => m,
        Err(e) => {
            return fail(
                EXIT_MATRIX,
                &format!("reading {}: {e}", opts.path.display()),
            )
        }
    };
    let csr = coo.to_csr();
    let features = extract(&csr);
    let operand = sc.op.spgemm_operand().unwrap_or(SpgemmOperand::AA);
    let cfg = match opts.scale {
        CorpusScale::Tiny => ExperimentConfig::tiny(),
        _ => ExperimentConfig::quick(),
    }
    .with_env(LabelEnvironment::Scenario(sc));
    // The sampling seed follows the labeling pipeline's convention (the
    // suite seed stands in for a per-matrix seed on user input), so the
    // symbolic block is deterministic across runs and thread counts.
    let mut scratch = StructureScratch::new();
    let sym = SpgemmSymbolic::analyze(
        CsrStructure::from(&csr),
        operand,
        cfg.suite_seed,
        &mut scratch,
    );
    let profile = SpgemmProfile::of_symbolic(&sym, csr.nnz());
    let extra = profile.dataflow_features();

    let env = Env {
        arch_idx: opts.arch_idx,
        precision: opts.precision,
    };
    let machines = sc.machines();
    let advisor: Option<DataflowAdvisor> = match &opts.model {
        Some(mp) => match DataflowAdvisor::load(mp) {
            Ok(a) => {
                if a.env() != env || a.scenario_tag() != sc.tag() {
                    eprintln!(
                        "spmv-advisor: note: artifact was trained for {} on {}, requested {} on {}",
                        a.scenario_tag(),
                        a.env().label(),
                        sc.tag(),
                        env.label()
                    );
                }
                Some(a)
            }
            Err(e) => return fail(EXIT_ARTIFACT, &format!("loading {}: {e}", mp.display())),
        },
        None => {
            eprintln!(
                "\ntraining dataflow advisor for {} (corpus cached under results/)...",
                sc.tag()
            );
            let corpus = cfg.corpus();
            let trained =
                DataflowAdvisor::train_for_scenario(&corpus, sc, env, SearchBudget::Quick);
            if trained.is_none() {
                eprintln!(
                    "spmv-advisor: note: no usable training rows in {}; \
                     falling back to the rule-based heuristic",
                    sc.tag()
                );
            }
            trained
        }
    };
    if let Some(sp) = &opts.save_model {
        match &advisor {
            Some(a) => {
                if let Err(e) = a.save(sp) {
                    return fail(EXIT_ARTIFACT, &format!("saving {}: {e}", sp.display()));
                }
                eprintln!("spmv-advisor: saved model artifact to {}", sp.display());
            }
            None => {
                return fail(
                    EXIT_ARTIFACT,
                    "no trained dataflow model to save (training produced no usable rows)",
                )
            }
        }
    }

    let rec = advisor
        .as_ref()
        .map(|a| a.recommend(&features, &extra))
        .unwrap_or_else(|| heuristic_dataflow(&extra));
    let arch = &machines[opts.arch_idx];
    if opts.json {
        let mut times = String::new();
        for (i, df) in Dataflow::ALL.into_iter().enumerate() {
            if i > 0 {
                times.push(',');
            }
            let t = profile.predict_seconds(df, arch, opts.precision);
            times.push_str(&format!("\"{}\":{:.4}", df.label(), t * 1e6));
        }
        println!(
            "{{\"scenario\":\"{}\",\"machine\":\"{}\",\"dataflow\":\"{}\",\
             \"source\":\"{}\",\"confidence\":{:.4},\"times_us\":{{{times}}}}}",
            sc.tag(),
            arch.name,
            rec.dataflow.label(),
            rec.source,
            rec.confidence,
        );
        return ExitCode::SUCCESS;
    }

    println!(
        "{}: {} x {}, {} non-zeros ({} cell, operand {})",
        opts.path.display(),
        csr.n_rows(),
        csr.n_cols(),
        csr.nnz(),
        sc.tag(),
        sc.op.label(),
    );
    println!("\nsymbolic SpGEMM analysis:");
    for (name, v) in DATAFLOW_FEATURE_NAMES.iter().zip(extra.iter()) {
        println!("  {name:<16} = {v:>14.4}");
    }
    println!(
        "\nrecommended dataflow ({} on {}): {}  [{} path, confidence {:.2}]",
        sc.tag(),
        arch.name,
        rec.dataflow.label(),
        rec.source,
        rec.confidence
    );
    println!("\npredicted SpGEMM times:");
    for df in Dataflow::ALL {
        let t = profile.predict_seconds(df, arch, opts.precision);
        let marker = if df == rec.dataflow {
            "  <- advisor pick"
        } else {
            ""
        };
        println!("  {:<10} {:>10.2} us{}", df.label(), t * 1e6, marker);
    }
    ExitCode::SUCCESS
}
