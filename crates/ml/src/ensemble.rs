//! MLP ensembles (paper §VI): several MLPs trained from different seeds,
//! predictions combined by averaging — probabilities for classification,
//! values for regression. The paper's performance-modeling headline (≈10 %
//! RME) comes from this model.

use serde::{Deserialize, Serialize};

use crate::data::FeatureMatrix;
use crate::mlp::{MlpClassifier, MlpParams, MlpRegressor, Scratch};
use crate::model::{Classifier, Regressor};

/// Ensemble of MLP classifiers (averaged softmax outputs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpEnsembleClassifier {
    /// Base-model parameters (seed is varied per member).
    pub params: MlpParams,
    /// Ensemble size.
    pub n_members: usize,
    members: Vec<MlpClassifier>,
    n_classes: usize,
}

impl MlpEnsembleClassifier {
    /// New ensemble of `n_members` MLPs.
    pub fn new(params: MlpParams, n_members: usize) -> Self {
        assert!(n_members >= 1);
        Self {
            params,
            n_members,
            members: Vec::new(),
            n_classes: 0,
        }
    }
}

impl Classifier for MlpEnsembleClassifier {
    fn fit(&mut self, x: &FeatureMatrix, y: &[usize], n_classes: usize) {
        self.n_classes = n_classes;
        self.members = (0..self.n_members)
            .map(|k| {
                let mut p = self.params.clone();
                p.seed = p.seed.wrapping_add(0x9e37 * (k as u64 + 1));
                let mut m = MlpClassifier::new(p);
                m.fit(x, y, n_classes);
                m
            })
            .collect();
    }

    fn predict_one(&self, row: &[f64]) -> usize {
        let p = self.predict_proba_one(row, self.n_classes.max(1));
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn predict_proba_one(&self, row: &[f64], n_classes: usize) -> Vec<f64> {
        let mut acc = vec![0.0; n_classes];
        for m in &self.members {
            for (a, p) in acc.iter_mut().zip(m.predict_proba_one(row, n_classes)) {
                *a += p;
            }
        }
        let k = self.members.len().max(1) as f64;
        for a in &mut acc {
            *a /= k;
        }
        acc
    }
}

/// Ensemble of MLP regressors (averaged predictions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpEnsembleRegressor {
    /// Base-model parameters (seed is varied per member).
    pub params: MlpParams,
    /// Ensemble size.
    pub n_members: usize,
    members: Vec<MlpRegressor>,
}

impl MlpEnsembleRegressor {
    /// New ensemble of `n_members` MLP regressors.
    pub fn new(params: MlpParams, n_members: usize) -> Self {
        assert!(n_members >= 1);
        Self {
            params,
            n_members,
            members: Vec::new(),
        }
    }
}

impl Regressor for MlpEnsembleRegressor {
    fn fit(&mut self, x: &FeatureMatrix, y: &[f64]) {
        self.members = (0..self.n_members)
            .map(|k| {
                let mut p = self.params.clone();
                p.seed = p.seed.wrapping_add(0x517c * (k as u64 + 1));
                let mut m = MlpRegressor::new(p);
                m.fit(x, y);
                m
            })
            .collect();
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        self.members.iter().map(|m| m.predict_one(row)).sum::<f64>() / self.members.len() as f64
    }

    /// Each member predicts every row in one batched pass (all on one
    /// scratch); each row's member sum runs in member order from `-0.0`,
    /// like `predict_one`'s `sum`, so the two agree bit for bit.
    fn predict(&self, x: &FeatureMatrix) -> Vec<f64> {
        if self.members.is_empty() {
            return vec![0.0; x.n_rows()];
        }
        let mut acc = vec![-0.0; x.n_rows()];
        let mut scratch = Scratch::default();
        for m in &self.members {
            let mut sums = acc.iter_mut();
            m.predict_with(x, &mut scratch, |y| {
                if let Some(a) = sums.next() {
                    *a += y;
                }
            });
        }
        let k = self.members.len() as f64;
        acc.iter().map(|a| a / k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> MlpParams {
        MlpParams {
            hidden: vec![12, 6],
            epochs: 80,
            learning_rate: 5e-3,
            ..MlpParams::default()
        }
    }

    #[test]
    fn ensemble_classifier_works() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let mut m = MlpEnsembleClassifier::new(params(), 3);
        m.fit(&x, &y, 2);
        let acc = crate::metrics::accuracy(&m.predict(&x), &y);
        assert!(acc > 0.9, "acc = {acc}");
        let p = m.predict_proba_one(x.row(0), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ensemble_variance_below_member_variance() {
        // On a noisy regression task the ensemble mean should deviate from
        // the truth no more than the worst single member.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 5.0]).collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 2.0 * r[0] + ((i * 7919 % 13) as f64 - 6.0) * 0.05)
            .collect();
        let x = FeatureMatrix::from_rows(&rows);
        let mut ens = MlpEnsembleRegressor::new(params(), 4);
        ens.fit(&x, &y);
        let ens_err: f64 = ens
            .predict(&x)
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .sum();
        let mut worst = 0.0f64;
        for k in 0..4 {
            let mut p = params();
            p.seed = p.seed.wrapping_add(0x517c * (k as u64 + 1));
            let mut m = MlpRegressor::new(p);
            m.fit(&x, &y);
            let e: f64 = m
                .predict(&x)
                .iter()
                .zip(&y)
                .map(|(p, t)| (p - t).abs())
                .sum();
            worst = worst.max(e);
        }
        assert!(
            ens_err <= worst * 1.05,
            "ens {ens_err} vs worst member {worst}"
        );
    }

    #[test]
    fn batched_predict_matches_predict_one_bit_for_bit() {
        let rows: Vec<Vec<f64>> = (0..70)
            .map(|i| vec![i as f64 / 7.0, (i % 5) as f64])
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() + r[1]).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let mut ens = MlpEnsembleRegressor::new(params(), 3);
        ens.fit(&x, &y);
        let batched: Vec<u64> = ens.predict(&x).iter().map(|v| v.to_bits()).collect();
        let single: Vec<u64> = (0..x.n_rows())
            .map(|i| ens.predict_one(x.row(i)).to_bits())
            .collect();
        assert_eq!(batched, single);
    }

    #[test]
    fn members_differ_by_seed() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let x = FeatureMatrix::from_rows(&rows);
        let mut ens = MlpEnsembleRegressor::new(params(), 2);
        ens.fit(&x, &y);
        let a = ens.members[0].predict_one(&[10.0]);
        let b = ens.members[1].predict_one(&[10.0]);
        assert_ne!(a, b, "members should start from different seeds");
    }

    #[test]
    #[should_panic]
    fn zero_members_rejected() {
        MlpEnsembleRegressor::new(params(), 0);
    }
}
