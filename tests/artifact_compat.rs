//! Artifact-envelope compatibility across the feature-vector v2 widening
//! (PR-9): envelopes now record how many input features the payload's
//! model consumes, so a pre-scenario (17-matrix-feature, arity-7
//! projection) artifact and a scenario-widened one can never be loaded
//! into the wrong reader silently — the failure is a typed
//! [`ArtifactError::FeatureArityMismatch`] at the library level and exit
//! code 4 at the CLI, never a misindexed advisor.

use std::process::Command;

use spmv_core::{
    ArtifactError, DataflowAdvisor, Env, FaultPlan, FormatAdvisor, LabelEnvironment, LabeledCorpus,
    Scenario, SearchBudget,
};
use spmv_corpus::{CorpusScale, GenKind, MatrixSpec, SyntheticSuite};
use spmv_gpusim::Simulator;
use spmv_matrix::CsrMatrix;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spmv_artifact_compat_{name}"));
    std::fs::create_dir_all(&d).expect("mk tmpdir");
    d
}

/// Rewrite a saved artifact as a PR-7-era envelope: same payload, same
/// checksum, but no `feature_arity` key (the field did not exist yet).
fn strip_arity(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("read artifact");
    let mut v: serde_json::Value = serde_json::from_str(&text).expect("parse artifact");
    let serde_json::Value::Map(entries) = &mut v else {
        panic!("envelope must be a map");
    };
    let before = entries.len();
    entries.retain(|(k, _)| k != "feature_arity");
    assert_eq!(
        entries.len(),
        before - 1,
        "arity key present in current envelopes"
    );
    std::fs::write(path, serde_json::to_string(&v).expect("json")).expect("write artifact");
}

#[test]
fn pr7_era_envelope_is_rejected_with_a_typed_arity_mismatch() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 611);
    let corpus = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
    let advisor = FormatAdvisor::train(&corpus, Env::ALL[3], SearchBudget::Quick);
    let path = tmpdir("legacy").join("advisor.json");
    advisor.save(&path).expect("save");

    // The pristine artifact loads; its legacy twin must not.
    FormatAdvisor::load(&path).expect("current envelope loads");
    strip_arity(&path);
    match FormatAdvisor::load(&path) {
        Err(ArtifactError::FeatureArityMismatch { artifact, expected }) => {
            assert_eq!(artifact, 0, "absent arity field must read as 0");
            assert_eq!(
                expected, 7,
                "the payload's model consumes the 7-feature projection"
            );
        }
        Err(e) => panic!("expected FeatureArityMismatch, got {e}"),
        Ok(_) => panic!("a legacy envelope must not load"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn advisor_cli_exits_4_on_a_legacy_envelope() {
    let dir = tmpdir("cli");
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 612);
    let corpus = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
    let advisor = FormatAdvisor::train(&corpus, Env::ALL[3], SearchBudget::Quick);
    let model = dir.join("legacy.json");
    advisor.save(&model).expect("save");
    strip_arity(&model);

    let mtx = dir.join("probe.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate real general\n\
         4 4 8\n1 1 2.0\n1 2 1.0\n2 2 2.0\n2 3 1.0\n3 3 2.0\n3 4 1.0\n4 4 2.0\n4 1 1.0\n",
    )
    .expect("write mtx");

    let out = Command::new(env!("CARGO_BIN_EXE_spmv-advisor"))
        .arg(&mtx)
        .arg("--model")
        .arg(&model)
        .output()
        .expect("run spmv-advisor");
    assert_eq!(
        out.status.code(),
        Some(4),
        "a rejected artifact is exit 4; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("feature-arity mismatch"),
        "the one-line error must name the typed failure, got: {stderr}"
    );
    std::fs::remove_file(&model).ok();
    std::fs::remove_file(&mtx).ok();
}

#[test]
fn scenario_artifact_round_trips_with_widened_arity() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 613);
    let sc = Scenario::ALL[2]; // gpu-spmm16
    let corpus = LabeledCorpus::collect_env(
        &suite,
        LabelEnvironment::Scenario(sc),
        2,
        &FaultPlan::none(),
    );
    let env = Env::ALL[3];
    let advisor = FormatAdvisor::train_for_scenario(&corpus, sc, env, SearchBudget::Quick);
    assert_eq!(
        advisor.feature_arity(),
        15,
        "v2 layout: 7 projected matrix features + the 8-number scenario descriptor"
    );

    let path = tmpdir("scenario").join("advisor.json");
    advisor.save(&path).expect("save");
    let info = FormatAdvisor::inspect_artifact(&path).expect("inspect");
    assert_eq!(
        info.feature_arity, 15,
        "envelope must record the widened arity"
    );
    assert!(!info.stale);

    // The deployed copy behaves identically on unseen structures.
    let deployed = FormatAdvisor::load(&path).expect("scenario artifact loads");
    assert_eq!(deployed.feature_arity(), 15);
    for (i, kind) in [
        GenKind::Stencil2D { gx: 48, gy: 48 },
        GenKind::Banded {
            n: 3_000,
            half_width: 5,
            fill: 1.0,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let m: CsrMatrix<f64> = MatrixSpec {
            name: format!("probe{i}"),
            kind,
            seed: 7_000 + i as u64,
        }
        .generate();
        assert_eq!(advisor.recommend(&m), deployed.recommend(&m));
    }

    // A scenario artifact presented to a PR-7-era reader would carry
    // arity 15 against an expectation of 7 — model that direction by
    // forging the envelope's arity down and watching the typed rejection.
    let text = std::fs::read_to_string(&path).expect("read");
    let mut v: serde_json::Value = serde_json::from_str(&text).expect("parse");
    let serde_json::Value::Map(entries) = &mut v else {
        panic!("envelope must be a map");
    };
    let mut forged = false;
    for (k, val) in entries.iter_mut() {
        if k == "feature_arity" {
            *val = serde_json::Value::U64(7);
            forged = true;
        }
    }
    assert!(forged, "arity key present");
    std::fs::write(&path, serde_json::to_string(&v).expect("json")).expect("write");
    match FormatAdvisor::load(&path) {
        Err(ArtifactError::FeatureArityMismatch { artifact, expected }) => {
            assert_eq!((artifact, expected), (7, 15));
        }
        Err(e) => panic!("expected FeatureArityMismatch, got {e}"),
        Ok(_) => panic!("a forged-arity envelope must not load"),
    }
    std::fs::remove_file(&path).ok();
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The envelope bytes of one Tiny-trained advisor of each kind, pinned by
/// FNV-1a: a refactor of the shared envelope code must not move a byte of
/// what either kind saves.
#[test]
fn envelope_bytes_of_both_advisor_kinds_are_pinned() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 611);
    let corpus = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
    let format = FormatAdvisor::train(&corpus, Env::ALL[3], SearchBudget::Quick);
    let bytes = format.to_artifact_bytes().expect("format envelope");
    assert_eq!(fnv1a(&bytes), 9704382100195710205, "format envelope moved");

    let sc = Scenario::SPGEMM_CELLS[0];
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 1021);
    let corpus = LabeledCorpus::collect_env(
        &suite,
        LabelEnvironment::Scenario(sc),
        2,
        &FaultPlan::none(),
    );
    let dataflow =
        DataflowAdvisor::train_for_scenario(&corpus, sc, Env::ALL[3], SearchBudget::Quick)
            .expect("tiny corpus trains");
    let bytes = dataflow.to_artifact_bytes().expect("dataflow envelope");
    assert_eq!(
        fnv1a(&bytes),
        3729000521565501294,
        "dataflow envelope moved"
    );
}
