//! Cross-crate persistence integration: everything the pipeline caches or
//! ships — labeled corpora, corpus manifests, and trained advisors —
//! round-trips through disk and keeps behaving identically.

use spmv_core::{Env, FormatAdvisor, LabelEnvironment, LabeledCorpus, SearchBudget};
use spmv_corpus::{CorpusScale, GenKind, MatrixSpec, SyntheticSuite};
use spmv_gpusim::Simulator;
use spmv_matrix::{CsrMatrix, Format};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("spmv_persist_{name}"));
    std::fs::create_dir_all(&d).expect("mk tmpdir");
    d
}

#[test]
fn labeled_corpus_cache_round_trips_and_validates_version() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 404);
    let corpus = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
    let dir = tmpdir("corpus");
    let path = dir.join("labels.json");
    corpus.save(&path).expect("save");

    // Round trip preserves every measurement bit-exactly.
    let back = LabeledCorpus::load(&path).expect("load");
    assert_eq!(back.records.len(), corpus.records.len());
    assert_eq!(back.model_version, spmv_gpusim::MODEL_VERSION);
    for (a, b) in corpus.records.iter().zip(&back.records) {
        assert_eq!(a.times, b.times);
        assert_eq!(a.features, b.features);
    }

    // load_or_collect trusts a matching cache...
    let again = LabeledCorpus::load_or_collect(&suite, LabelEnvironment::Simulator, 2, &path);
    assert_eq!(again.records[0].times, corpus.records[0].times);

    // ...but re-collects when the model version is stale.
    let mut stale = corpus.clone();
    stale.model_version = 0;
    stale.save(&path).expect("save stale");
    let fresh = LabeledCorpus::load_or_collect(&suite, LabelEnvironment::Simulator, 2, &path);
    assert_eq!(fresh.model_version, spmv_gpusim::MODEL_VERSION);

    std::fs::remove_file(&path).ok();
}

#[test]
fn trained_advisor_ships_without_its_corpus() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 405);
    let corpus = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
    let advisor = FormatAdvisor::train(&corpus, Env::ALL[3], SearchBudget::Quick);

    let dir = tmpdir("advisor");
    let path = dir.join("advisor.json");
    advisor.save(&path).expect("save");
    drop(corpus); // the deployed side has no corpus
    let deployed = FormatAdvisor::load(&path).expect("load");

    // Identical behaviour on unseen matrices of different structure.
    for (i, kind) in [
        GenKind::Stencil2D { gx: 60, gy: 60 },
        GenKind::RMat {
            scale: 11,
            nnz: 16_000,
            probs: (0.57, 0.19, 0.19),
        },
        GenKind::Banded {
            n: 4_000,
            half_width: 4,
            fill: 1.0,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let m: CsrMatrix<f64> = MatrixSpec {
            name: format!("probe{i}"),
            kind,
            seed: 4_000 + i as u64,
        }
        .generate();
        assert_eq!(advisor.recommend(&m), deployed.recommend(&m));
        let a = advisor.predict_times(&m);
        let d = deployed.predict_times(&m);
        for ((fa, ta), (fd, td)) in a.iter().zip(&d) {
            assert_eq!(fa, fd);
            assert!((ta - td).abs() <= 1e-12 * ta.abs());
        }
        assert!(Format::ALL.contains(&deployed.recommend(&m).format));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn suite_manifest_regenerates_identical_corpus() {
    let suite = SyntheticSuite::sample(CorpusScale::Tiny, 406);
    let json = serde_json::to_string(&suite).expect("serialize suite");
    let back: SyntheticSuite = serde_json::from_str(&json).expect("parse suite");
    let corpus_a = LabeledCorpus::collect(&suite, &Simulator::default(), 2);
    let corpus_b = LabeledCorpus::collect(&back, &Simulator::default(), 2);
    for (a, b) in corpus_a.records.iter().zip(&corpus_b.records).step_by(9) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.times, b.times);
    }
}
