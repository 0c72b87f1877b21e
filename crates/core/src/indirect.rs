//! Indirect classification (paper §VI-C): use the time regressor as a
//! format selector — predict every format's time, pick the argmin — and
//! score it with a tolerance: a choice is "correct" if its *actual* time is
//! within `(1 + tolerance)` of the actual best (0 % tolerance = strict).

use std::collections::BTreeMap;

use crate::classify::SearchBudget;
use crate::dataset::RegressionTask;
use crate::regress::{record_split, train_time_predictor, RegModelKind};

/// One trained regressor used as a format selector on its held-out
/// matrices, one entry per test record in record order.
#[derive(Debug, Clone)]
pub struct IndirectPicks {
    /// Chosen (predicted-argmin) class index per test record.
    pub chosen: Vec<usize>,
    /// Actual best class index per test record.
    pub best: Vec<usize>,
    /// Actual per-class times for each test record.
    pub class_times: Vec<Vec<f64>>,
}

impl IndirectPicks {
    /// Accuracy at `tolerance` by the paper's rule ([`indirect_accuracy`]).
    pub fn accuracy(&self, tolerance: f64) -> f64 {
        indirect_accuracy(&self.chosen, &self.best, &self.class_times, tolerance)
    }

    /// Per-record ratio of the chosen class's actual time to the best
    /// one's: the input of [`ratio_accuracy`].
    pub fn ratios(&self) -> Vec<f64> {
        self.chosen
            .iter()
            .zip(&self.best)
            .zip(&self.class_times)
            .map(|((&c, &b), ts)| ts[c] / ts[b])
            .collect()
    }
}

/// The paper's tolerance rule as a pure function: the choice for one
/// record counts as correct when its *actual* time is within
/// `(1 + tolerance)` of the actual best. `chosen`/`best` are class
/// indices into `class_times`; `best` must be the argmin (what
/// [`indirect_picks`] computes).
pub fn choice_within_tolerance(
    class_times: &[f64],
    chosen: usize,
    best: usize,
    tolerance: f64,
) -> bool {
    class_times[chosen] <= class_times[best] * (1.0 + tolerance)
}

/// Accuracy of an indirect selection at `tolerance`: the fraction of
/// records whose chosen class passes [`choice_within_tolerance`]. Pure
/// (no model, no split) so it can be pinned against hand-computed
/// fixtures; [`IndirectPicks::accuracy`] reports exactly this number.
pub fn indirect_accuracy(
    chosen: &[usize],
    best: &[usize],
    class_times: &[Vec<f64>],
    tolerance: f64,
) -> f64 {
    assert_eq!(chosen.len(), best.len());
    assert_eq!(chosen.len(), class_times.len());
    let correct = chosen
        .iter()
        .zip(best)
        .zip(class_times)
        .filter(|&((&c, &b), ts)| choice_within_tolerance(ts, c, b, tolerance))
        .count();
    correct as f64 / chosen.len().max(1) as f64
}

/// Accuracy from precomputed chosen-over-best time ratios
/// ([`IndirectPicks::ratios`]): the fraction within `1 + tolerance`.
/// It divides where [`choice_within_tolerance`] multiplies, so the two
/// can disagree by one ulp at the exact boundary; the tolerance ablation
/// scores with this one and Table XIV with the other, each keeping its
/// historical arithmetic to stay byte-stable.
pub fn ratio_accuracy(ratios: &[f64], tolerance: f64) -> f64 {
    let n = ratios.len().max(1) as f64;
    ratios.iter().filter(|&&r| r <= 1.0 + tolerance).count() as f64 / n
}

/// Train a combined regressor on 80 % of matrices, then pick each held
/// out matrix's format by predicted argmin. Training is the expensive
/// part, so one call serves every tolerance it is scored at.
pub fn indirect_picks(
    kind: RegModelKind,
    task: &RegressionTask,
    split_seed: u64,
    budget: SearchBudget,
) -> IndirectPicks {
    let (train_idx, test_idx) = record_split(task, 0.2, split_seed);
    let predictor = train_time_predictor(kind, task, &train_idx, budget, split_seed);
    let predicted = predictor.predict_rows(task.x.select_rows(&test_idx));

    // Group test samples by record: record -> [(class, predicted time)].
    let mut by_record: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
    for (&i, &t) in test_idx.iter().zip(&predicted) {
        by_record
            .entry(task.record_of[i])
            .or_default()
            .push((task.format_of[i], t));
    }

    let mut picks = IndirectPicks {
        chosen: Vec::new(),
        best: Vec::new(),
        class_times: Vec::new(),
    };
    for (rec, samples) in by_record {
        let actual = &task.class_times[rec];
        picks.chosen.push(argmin(samples));
        picks.best.push(argmin(actual.iter().copied().enumerate()));
        picks.class_times.push(actual.clone());
    }
    picks
}

/// The class of the first smallest time.
fn argmin(times: impl IntoIterator<Item = (usize, f64)>) -> usize {
    times
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(k, _)| k)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::labels::tests_support::tiny_labeled_corpus;
    use spmv_features::FeatureSet;
    use spmv_matrix::Format;

    /// One trained selector shared by every model-backed test below: the
    /// scoring is what they check, and it needs no retraining.
    fn picks() -> &'static IndirectPicks {
        static PICKS: std::sync::OnceLock<IndirectPicks> = std::sync::OnceLock::new();
        PICKS.get_or_init(|| {
            let corpus = tiny_labeled_corpus(41);
            let task =
                RegressionTask::build(&corpus, Env::ALL[0], &Format::ALL, FeatureSet::Important);
            indirect_picks(RegModelKind::Mlp, &task, 3, SearchBudget::Quick)
        })
    }

    #[test]
    fn tolerance_never_decreases_accuracy() {
        let out = picks();
        assert!(out.accuracy(0.05) >= out.accuracy(0.0));
        assert_eq!(out.chosen.len(), out.best.len());
    }

    #[test]
    fn infinite_tolerance_is_always_correct() {
        assert_eq!(picks().accuracy(1e9), 1.0);
    }

    #[test]
    fn best_really_is_argmin() {
        let out = picks();
        for (b, ts) in out.best.iter().zip(&out.class_times) {
            let m = ts.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(ts[*b], m);
        }
    }

    // --- hand-computed fixtures for the pure scoring functions ---

    #[test]
    fn tolerance_rule_on_hand_fixture() {
        // Times per class; best is index 1 (1.0 s).
        let ts = [1.2, 1.0, 2.0];
        // Strict: only the argmin passes.
        assert!(choice_within_tolerance(&ts, 1, 1, 0.0));
        assert!(!choice_within_tolerance(&ts, 0, 1, 0.0));
        // 20 % tolerance admits the 1.2 s class but not the 2.0 s one.
        assert!(choice_within_tolerance(&ts, 0, 1, 0.2));
        assert!(!choice_within_tolerance(&ts, 2, 1, 0.2));
    }

    #[test]
    fn five_percent_boundary_is_inclusive() {
        // The paper's 5 % rule: exactly 1.05x the best still counts.
        // 1.0 * (1.0 + 0.05) computes to exactly 1.05 in f64 here.
        let ts = [1.05, 1.0];
        assert!(choice_within_tolerance(&ts, 0, 1, 0.05));
        // The next representable time above the bound does not.
        let just_over = [1.05f64.next_up(), 1.0];
        assert!(!choice_within_tolerance(&just_over, 0, 1, 0.05));
    }

    #[test]
    fn indirect_accuracy_hand_computed() {
        // Three records; per-record times and (chosen, best):
        //   r0: chosen 0 (1.04) vs best 1 (1.0)  -> within 5 %
        //   r1: chosen 2 (3.0)  vs best 0 (1.0)  -> not within 5 %
        //   r2: chosen 1 = best 1 (2.0)          -> exact hit
        let class_times = vec![vec![1.04, 1.0], vec![1.0, 2.0, 3.0], vec![9.0, 2.0]];
        let chosen = vec![0, 2, 1];
        let best = vec![1, 0, 1];
        let acc = indirect_accuracy(&chosen, &best, &class_times, 0.05);
        assert_eq!(acc, 2.0 / 3.0);
        // Strict scoring drops the 1.04x record.
        assert_eq!(
            indirect_accuracy(&chosen, &best, &class_times, 0.0),
            1.0 / 3.0
        );
        // Huge tolerance accepts everything.
        assert_eq!(indirect_accuracy(&chosen, &best, &class_times, 1e9), 1.0);
    }

    #[test]
    fn ratio_accuracy_hand_computed() {
        let ratios = [1.0, 1.05, 1.2, 2.0];
        assert_eq!(ratio_accuracy(&ratios, 0.0), 1.0 / 4.0);
        assert_eq!(ratio_accuracy(&ratios, 0.05), 2.0 / 4.0);
        assert_eq!(ratio_accuracy(&ratios, 0.2), 3.0 / 4.0);
        assert_eq!(ratio_accuracy(&ratios, 1.0), 1.0);
        // Empty input is defined as zero, not NaN.
        assert_eq!(ratio_accuracy(&[], 0.05), 0.0);
    }

    #[test]
    fn multiply_and_ratio_rules_disagree_at_the_boundary() {
        // One ulp apart: b * 1.05 rounds just below a, while a / b rounds
        // onto 1.05. This is why Table XIV and the tolerance ablation keep
        // separate scorings of the same picks.
        let (a, b) = (3.045000000000001, 2.9000000000000004);
        assert!(!choice_within_tolerance(&[a, b], 0, 1, 0.05));
        assert_eq!(ratio_accuracy(&[a / b], 0.05), 1.0);
        let picks = IndirectPicks {
            chosen: vec![0],
            best: vec![1],
            class_times: vec![vec![a, b]],
        };
        assert_eq!(picks.accuracy(0.05), 0.0);
        assert_eq!(ratio_accuracy(&picks.ratios(), 0.05), 1.0);
    }

    #[test]
    fn empty_selection_scores_zero() {
        assert_eq!(indirect_accuracy(&[], &[], &[], 0.05), 0.0);
    }
}
