//! Criterion bench: training and inference cost of each model family on a
//! format-selection-shaped dataset. Backs the paper's conclusion that
//! "relatively inexpensive ML algorithms" suffice — inference is the number
//! that matters for deployment at matrix-load time.
//!
//! The `time_predictor` group times the advisor's MLP-ensemble time model
//! on the committed Tiny labels (P100, double, quick budget — the artifact
//! the serving benchmark trains): `train_tiny` is the regressor half of
//! `FormatAdvisor::train`, and `predict_6_formats` is the six-format query
//! every model-backed recommend runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spmv_core::{
    train_time_predictor, Env, FormatAdvisor, LabeledCorpus, RegModelKind, RegressionTask,
    SearchBudget,
};
use spmv_features::FeatureSet;
use spmv_matrix::{Format, Precision};
use spmv_ml::{
    Classifier, DecisionTreeClassifier, FeatureMatrix, GbtClassifier, GbtParams, MlpClassifier,
    MlpParams, SvmClassifier, SvmParams, TreeParams,
};

/// A synthetic 17-feature, 6-class dataset with learnable structure,
/// shaped like the format-selection task.
fn dataset(n: usize) -> (FeatureMatrix, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let mut r: Vec<f64> = (0..17).map(|_| rng.gen::<f64>() * 10.0).collect();
        let class = ((r[0] + r[5] * 2.0 + r[12]) as usize) % 6;
        r[3] += class as f64; // leak a signal
        rows.push(r);
        y.push(class);
    }
    (FeatureMatrix::from_rows(&rows), y)
}

fn bench_training(c: &mut Criterion) {
    let (x, y) = dataset(500);
    let mut group = c.benchmark_group("train_500x17");
    group.sample_size(10);
    group.bench_function("decision_tree", |b| {
        b.iter(|| {
            let mut m = DecisionTreeClassifier::new(TreeParams::default());
            m.fit(&x, &y, 6);
            m
        })
    });
    group.bench_function("xgboost_60x6", |b| {
        b.iter(|| {
            let mut m = GbtClassifier::new(GbtParams {
                n_estimators: 60,
                max_depth: 6,
                ..GbtParams::default()
            });
            m.fit(&x, &y, 6);
            m
        })
    });
    group.bench_function("svm_ovo", |b| {
        b.iter(|| {
            let mut m = SvmClassifier::new(SvmParams::default());
            m.fit(&x, &y, 6);
            m
        })
    });
    group.bench_function("mlp_96_48_16_20ep", |b| {
        b.iter(|| {
            let mut m = MlpClassifier::new(MlpParams {
                epochs: 20,
                ..MlpParams::default()
            });
            m.fit(&x, &y, 6);
            m
        })
    });
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let (x, y) = dataset(500);
    let probe = x.row(0).to_vec();

    let mut dt = DecisionTreeClassifier::new(TreeParams::default());
    dt.fit(&x, &y, 6);
    let mut gbt = GbtClassifier::new(GbtParams {
        n_estimators: 60,
        max_depth: 6,
        ..GbtParams::default()
    });
    gbt.fit(&x, &y, 6);
    let mut svm = SvmClassifier::new(SvmParams::default());
    svm.fit(&x, &y, 6);
    let mut mlp = MlpClassifier::new(MlpParams {
        epochs: 20,
        ..MlpParams::default()
    });
    mlp.fit(&x, &y, 6);

    let mut group = c.benchmark_group("predict_one");
    for (name, model) in [
        ("decision_tree", &dt as &dyn Classifier),
        ("xgboost", &gbt as &dyn Classifier),
        ("svm", &svm as &dyn Classifier),
        ("mlp", &mlp as &dyn Classifier),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, m| {
            b.iter(|| m.predict_one(&probe));
        });
    }
    group.finish();
}

fn bench_time_predictor(c: &mut Criterion) {
    let labels =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/labels_tiny.json");
    let corpus = LabeledCorpus::load(&labels).expect("committed Tiny labels");
    let env = Env {
        arch_idx: 1,
        precision: Precision::Double,
    };
    let advisor = FormatAdvisor::train(&corpus, env, SearchBudget::Quick);
    let task = RegressionTask::build(&corpus, env, &Format::ALL, FeatureSet::Important);
    let all: Vec<usize> = (0..task.len()).collect();

    let mut group = c.benchmark_group("time_predictor");
    group.sample_size(2000);
    let mut next = corpus.records.iter().map(|r| &r.features).cycle();
    group.bench_function("predict_6_formats", |b| {
        b.iter(|| advisor.predict_times_features(next.next().expect("non-empty corpus")))
    });
    group.sample_size(10);
    group.bench_function("train_tiny", |b| {
        b.iter(|| {
            train_time_predictor(
                RegModelKind::MlpEnsemble,
                &task,
                &all,
                SearchBudget::Quick,
                corpus.suite_seed,
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_training, bench_inference, bench_time_predictor
}
criterion_main!(benches);
