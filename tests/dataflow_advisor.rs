//! CLI-level pinning for the SpGEMM dataflow subsystem (PR-10):
//! `--list-envs` enumerates the whole scenario grid, a dataflow artifact
//! ships through the versioned envelope with its own kind, and the kind
//! gate holds at the process boundary (exit 4), not just in the library.

use std::process::Command;

use spmv_core::{
    DataflowAdvisor, Env, FaultPlan, LabelEnvironment, LabeledCorpus, Scenario, SearchBudget,
};
use spmv_corpus::{CorpusScale, SyntheticSuite};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spmv_dataflow_cli_{name}"));
    std::fs::create_dir_all(&d).expect("mk tmpdir");
    d
}

fn write_probe_mtx(dir: &std::path::Path) -> std::path::PathBuf {
    let mtx = dir.join("probe.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate real general\n\
         4 4 8\n1 1 2.0\n1 2 1.0\n2 2 2.0\n2 3 1.0\n3 3 2.0\n3 4 1.0\n4 4 2.0\n4 1 1.0\n",
    )
    .expect("write mtx");
    mtx
}

#[test]
fn list_envs_enumerates_every_train_env_tag() {
    let out = Command::new(env!("CARGO_BIN_EXE_spmv-advisor"))
        .arg("--list-envs")
        .output()
        .expect("run spmv-advisor");
    assert!(out.status.success(), "--list-envs must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for tag in ["sim", "cpu-native", "cpu-synthetic"] {
        assert!(stdout.contains(tag), "missing environment tag {tag}");
    }
    for sc in Scenario::ALL {
        assert!(
            stdout.contains(sc.tag()),
            "missing scenario tag {}",
            sc.tag()
        );
        // Every listed tag must round-trip through the --train-env parser.
        assert!(
            LabelEnvironment::parse(sc.tag()).is_some(),
            "{} listed but not parseable",
            sc.tag()
        );
        let kind = if sc.is_spgemm() { "dataflow" } else { "format" };
        let line = stdout
            .lines()
            .find(|l| l.starts_with(sc.tag()))
            .unwrap_or_else(|| panic!("no line for {}", sc.tag()));
        assert!(
            line.contains(&format!("{kind} advisor")),
            "{}: expected {kind} advisor, got: {line}",
            sc.tag()
        );
    }
}

#[test]
fn dataflow_artifact_ships_through_the_envelope_with_its_own_kind() {
    let dir = tmpdir("envelope");
    let mtx = write_probe_mtx(&dir);
    let model = dir.join("dataflow.json");

    // Train at the library level (the CLI would retrain the same corpus;
    // this keeps the test hermetic and off the shared results/ cache).
    let sc = Scenario::SPGEMM_CELLS[0];
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 1021);
    let corpus = LabeledCorpus::collect_env(
        &suite,
        LabelEnvironment::Scenario(sc),
        2,
        &FaultPlan::none(),
    );
    let advisor =
        DataflowAdvisor::train_for_scenario(&corpus, sc, Env::ALL[3], SearchBudget::Quick)
            .expect("tiny corpus trains");
    advisor.save(&model).expect("save artifact");

    // --model-info discloses the kind and the widened arity.
    let out = Command::new(env!("CARGO_BIN_EXE_spmv-advisor"))
        .arg("--model-info")
        .arg(&model)
        .arg("--json")
        .output()
        .expect("run spmv-advisor");
    assert!(
        out.status.success(),
        "--model-info must accept the artifact"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"kind\":\"dataflow\""), "got: {stdout}");
    assert!(stdout.contains("\"feature_arity\":15"), "got: {stdout}");

    // A dataflow run with the saved model recommends without retraining.
    let out = Command::new(env!("CARGO_BIN_EXE_spmv-advisor"))
        .arg(&mtx)
        .arg("--train-env")
        .arg(sc.tag())
        .arg("--model")
        .arg(&model)
        .arg("--json")
        .output()
        .expect("run spmv-advisor");
    assert!(
        out.status.success(),
        "dataflow recommend failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"dataflow\":"), "got: {stdout}");
    assert!(stdout.contains("\"times_us\":"), "got: {stdout}");

    // The format loader must reject the dataflow artifact at the process
    // boundary: exit 4 and the typed kind-mismatch message.
    let out = Command::new(env!("CARGO_BIN_EXE_spmv-advisor"))
        .arg(&mtx)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run spmv-advisor");
    assert_eq!(
        out.status.code(),
        Some(4),
        "a dataflow artifact in the format loader is exit 4"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("advisor-kind mismatch"),
        "the one-line error must name the kind gate, got: {stderr}"
    );

    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&mtx).ok();
}
