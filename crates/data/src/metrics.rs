//! Evaluation metrics for k-class classifiers.

use crate::label::Label;
use serde::{DeError, Deserialize, Serialize, Value};

/// A k×k confusion matrix.
///
/// Cell `(t, p)` counts instances of true class `t` predicted as class
/// `p`. Per-class metrics take the class index; for a binary task, class
/// 1 is "positive" and class 0 "negative".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Row-major `classes × classes` cells; row = truth, column = predicted.
    cells: Vec<usize>,
    classes: usize,
}

impl Default for ConfusionMatrix {
    fn default() -> Self {
        Self::with_classes(2)
    }
}

impl ConfusionMatrix {
    /// An empty matrix over `num_classes` classes (at least 2).
    pub fn with_classes(num_classes: usize) -> Self {
        let classes = num_classes.max(2);
        ConfusionMatrix {
            cells: vec![0; classes * classes],
            classes,
        }
    }

    /// Builds a confusion matrix from parallel slices of true and predicted
    /// labels; the class count is inferred from the largest label index
    /// seen (at least 2).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn from_predictions(truth: &[Label], predicted: &[Label]) -> Self {
        let classes = truth.iter().chain(predicted).map(|label| label.index() + 1).max().unwrap_or(2);
        Self::from_predictions_with_classes(truth, predicted, classes)
    }

    /// [`ConfusionMatrix::from_predictions`] over an explicit class count,
    /// for evaluations where the sample may not exercise every class.
    ///
    /// # Panics
    /// Panics if the slices have different lengths or a label index is at
    /// or beyond `num_classes`.
    pub fn from_predictions_with_classes(
        truth: &[Label],
        predicted: &[Label],
        num_classes: usize,
    ) -> Self {
        assert_eq!(
            truth.len(),
            predicted.len(),
            "label slices must have equal length"
        );
        let mut matrix = Self::with_classes(num_classes);
        let classes = matrix.classes;
        for (&t, &p) in truth.iter().zip(predicted) {
            assert!(
                t.index() < classes && p.index() < classes,
                "label index out of range for {classes} classes"
            );
            matrix.cells[t.index() * classes + p.index()] += 1;
        }
        matrix
    }

    /// Number of classes `k` the matrix tracks.
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Count of instances of true class `truth` predicted as `predicted`.
    ///
    /// # Panics
    /// Panics if either index is at or beyond `num_classes()`.
    pub fn count(&self, truth: usize, predicted: usize) -> usize {
        assert!(truth < self.classes && predicted < self.classes);
        self.cells[truth * self.classes + predicted]
    }

    /// Total number of instances.
    pub fn total(&self) -> usize {
        self.cells.iter().sum()
    }

    fn diagonal(&self) -> usize {
        (0..self.classes).map(|c| self.cells[c * self.classes + c]).sum()
    }

    fn predicted_as(&self, class: usize) -> usize {
        (0..self.classes).map(|t| self.cells[t * self.classes + class]).sum()
    }

    fn truly(&self, class: usize) -> usize {
        self.cells[class * self.classes..(class + 1) * self.classes].iter().sum()
    }

    /// Fraction of correct predictions (the diagonal over the total).
    /// Returns `0.0` for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.diagonal() as f64 / total as f64
        }
    }

    /// Precision of one class: its diagonal cell over everything predicted
    /// as it. Returns `0.0` when the class is never predicted.
    pub fn precision_for(&self, class: usize) -> f64 {
        let denom = self.predicted_as(class);
        if denom == 0 {
            0.0
        } else {
            self.count(class, class) as f64 / denom as f64
        }
    }

    /// Recall of one class: its diagonal cell over its true instances.
    /// Returns `0.0` when the class has no instances.
    pub fn recall_for(&self, class: usize) -> f64 {
        let denom = self.truly(class);
        if denom == 0 {
            0.0
        } else {
            self.count(class, class) as f64 / denom as f64
        }
    }

    /// F1 of one class: the harmonic mean of its precision and recall.
    /// Returns `0.0` when both are zero.
    pub fn f1_for(&self, class: usize) -> f64 {
        let p = self.precision_for(class);
        let r = self.recall_for(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Macro-averaged recall: the unweighted mean of per-class recalls
    /// (identical to [`ConfusionMatrix::balanced_accuracy`]).
    pub fn macro_recall(&self) -> f64 {
        (0..self.classes).map(|c| self.recall_for(c)).sum::<f64>() / self.classes as f64
    }

    /// Macro-averaged F1: the unweighted mean of per-class F1 scores.
    pub fn macro_f1(&self) -> f64 {
        (0..self.classes).map(|c| self.f1_for(c)).sum::<f64>() / self.classes as f64
    }

    /// Balanced accuracy: mean of per-class recalls. Useful for the heavily
    /// imbalanced ijcnn1-like dataset (10%/90%).
    pub fn balanced_accuracy(&self) -> f64 {
        self.macro_recall()
    }
}

/// Serializes as `{classes, cells}`, the only form deserialization accepts.
impl Serialize for ConfusionMatrix {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("classes".to_string(), self.classes.to_value()),
            ("cells".to_string(), self.cells.to_value()),
        ])
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        serde::binary::write_map_header(out, 2);
        serde::binary::write_key(out, "classes");
        self.classes.write_binary(out);
        serde::binary::write_key(out, "cells");
        self.cells.write_binary(out);
    }
}

/// The serialized fields of a [`ConfusionMatrix`], before the shape check.
mod unchecked {
    #[derive(serde::Deserialize)]
    pub(super) struct ConfusionMatrix {
        pub(super) classes: usize,
        pub(super) cells: Vec<usize>,
    }
}

impl Deserialize for ConfusionMatrix {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Self::checked(unchecked::ConfusionMatrix::from_value(value)?)
    }

    fn read_binary(reader: &mut serde::binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        Self::checked(unchecked::ConfusionMatrix::read_binary(reader, depth)?)
    }
}

impl ConfusionMatrix {
    /// A decoded matrix, which needs at least two classes and one cell per
    /// class pair.
    fn checked(parts: unchecked::ConfusionMatrix) -> Result<Self, DeError> {
        let unchecked::ConfusionMatrix { classes, cells } = parts;
        if classes < 2 || classes.checked_mul(classes) != Some(cells.len()) {
            return Err(DeError::new(format!(
                "invalid ConfusionMatrix: {} cells for {classes} classes",
                cells.len()
            )));
        }
        Ok(ConfusionMatrix { cells, classes })
    }
}

/// Fraction of positions where the two label slices agree.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn accuracy(truth: &[Label], predicted: &[Label]) -> f64 {
    ConfusionMatrix::from_predictions(truth, predicted).accuracy()
}

/// Area under the ROC curve for scores where larger means "more positive".
///
/// Computed via the Mann-Whitney U statistic; ties contribute 1/2. Returns
/// `0.5` when either class is absent (no ranking information). In a
/// k-class setting this is the one-vs-rest AUC of class 1.
pub fn roc_auc(truth: &[Label], scores: &[f64]) -> f64 {
    assert_eq!(truth.len(), scores.len(), "scores must align with labels");
    let positives: Vec<f64> = truth
        .iter()
        .zip(scores)
        .filter(|(l, _)| l.is_positive())
        .map(|(_, &s)| s)
        .collect();
    let negatives: Vec<f64> = truth
        .iter()
        .zip(scores)
        .filter(|(l, _)| !l.is_positive())
        .map(|(_, &s)| s)
        .collect();
    if positives.is_empty() || negatives.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0;
    for &p in &positives {
        for &n in &negatives {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (positives.len() as f64 * negatives.len() as f64)
}

/// Mean and (population) standard deviation of a sample.
///
/// This is the statistic pair the watermark-detection attacker computes over
/// per-tree depths and leaf counts (Table 2), and the statistic the
/// hyper-parameter adjustment heuristic of Algorithm 1 uses.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, variance.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::binary;

    const P: Label = Label::Positive;
    const N: Label = Label::Negative;

    #[test]
    fn confusion_matrix_counts_all_cells() {
        let truth = [P, P, N, N, P];
        let predicted = [P, N, N, P, P];
        let m = ConfusionMatrix::from_predictions(&truth, &predicted);
        assert_eq!(m.count(1, 1), 2);
        assert_eq!(m.count(1, 0), 1);
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(0, 1), 1);
        assert_eq!(m.total(), 5);
        assert!((m.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn perfect_predictions_have_unit_metrics() {
        let truth = [P, N, P, N];
        let m = ConfusionMatrix::from_predictions(&truth, &truth);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.precision_for(1), 1.0);
        assert_eq!(m.recall_for(1), 1.0);
        assert_eq!(m.f1_for(1), 1.0);
        assert_eq!(m.balanced_accuracy(), 1.0);
        assert_eq!(m.macro_f1(), 1.0);
    }

    #[test]
    fn degenerate_metrics_default_to_zero() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision_for(1), 0.0);
        assert_eq!(m.recall_for(1), 0.0);
        assert_eq!(m.f1_for(1), 0.0);
    }

    #[test]
    fn balanced_accuracy_penalizes_majority_voting_on_imbalanced_data() {
        // 9 negatives, 1 positive, classifier always says negative.
        let truth = [N, N, N, N, N, N, N, N, N, P];
        let predicted = [N; 10];
        let m = ConfusionMatrix::from_predictions(&truth, &predicted);
        assert!((m.accuracy() - 0.9).abs() < 1e-12);
        assert!((m.balanced_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn k_class_cells_and_macro_metrics() {
        let c = |i: usize| Label::from_index(i).unwrap();
        // 3 classes: class 0 perfectly predicted, class 1 half right,
        // class 2 never predicted correctly.
        let truth = [c(0), c(0), c(1), c(1), c(2), c(2)];
        let predicted = [c(0), c(0), c(1), c(2), c(0), c(1)];
        let m = ConfusionMatrix::from_predictions(&truth, &predicted);
        assert_eq!(m.num_classes(), 3);
        assert_eq!(m.count(0, 0), 2);
        assert_eq!(m.count(1, 2), 1);
        assert_eq!(m.count(2, 0), 1);
        assert_eq!(m.total(), 6);
        assert!((m.accuracy() - 0.5).abs() < 1e-12);
        // Recalls: 1.0, 0.5, 0.0 → macro recall 0.5.
        assert!((m.macro_recall() - 0.5).abs() < 1e-12);
        // Precisions: 2/3, 1/2, 0.
        assert!((m.precision_for(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.precision_for(1) - 0.5).abs() < 1e-12);
        assert_eq!(m.precision_for(2), 0.0);
        assert!(m.macro_f1() > 0.0 && m.macro_f1() < 1.0);
        assert_eq!(m.f1_for(2), 0.0);
    }

    #[test]
    fn explicit_class_count_covers_unseen_classes() {
        let truth = [N, P];
        let m = ConfusionMatrix::from_predictions_with_classes(&truth, &truth, 5);
        assert_eq!(m.num_classes(), 5);
        assert_eq!(m.recall_for(4), 0.0);
        assert_eq!(m.accuracy(), 1.0);
    }

    #[test]
    fn binary_views_agree_with_macro_metrics_for_two_classes() {
        let truth = [P, P, N, N, P, N];
        let predicted = [P, N, N, P, P, N];
        let m = ConfusionMatrix::from_predictions(&truth, &predicted);
        let macro_recall = (m.recall_for(0) + m.recall_for(1)) / 2.0;
        assert_eq!(m.balanced_accuracy(), macro_recall);
    }

    #[test]
    fn serde_round_trip_and_refusal_of_the_binary_count_shape() {
        let truth = [P, N, P];
        let m = ConfusionMatrix::from_predictions(&truth, &truth);
        let back: ConfusionMatrix = binary::from_slice(&binary::to_vec(&m)).unwrap();
        assert_eq!(back, m);
        let count = |key: &str, n: u64| (key.to_string(), Value::U64(n));
        let four = Value::Map(vec![
            count("true_positive", 2),
            count("true_negative", 1),
            count("false_positive", 3),
            count("false_negative", 4),
        ]);
        let err = binary::from_slice::<ConfusionMatrix>(&binary::to_vec(&four)).unwrap_err();
        assert!(err.to_string().contains("missing field `classes`"), "{err}");
    }

    #[test]
    fn auc_of_perfect_ranking_is_one() {
        let truth = [N, N, P, P];
        let scores = [0.1, 0.2, 0.8, 0.9];
        assert!((roc_auc(&truth, &scores) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_of_reverse_ranking_is_zero() {
        let truth = [P, P, N, N];
        let scores = [0.1, 0.2, 0.8, 0.9];
        assert!(roc_auc(&truth, &scores).abs() < 1e-12);
    }

    #[test]
    fn auc_handles_ties_and_missing_classes() {
        let truth = [P, N];
        let scores = [0.5, 0.5];
        assert!((roc_auc(&truth, &scores) - 0.5).abs() < 1e-12);
        assert_eq!(roc_auc(&[P, P], &[0.1, 0.9]), 0.5);
    }

    #[test]
    fn mean_std_of_constant_sample_has_zero_std() {
        let (mean, std) = mean_std(&[3.0, 3.0, 3.0]);
        assert_eq!(mean, 3.0);
        assert_eq!(std, 0.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn mean_std_matches_hand_computation() {
        let (mean, std) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((mean - 5.0).abs() < 1e-12);
        assert!((std - 2.0).abs() < 1e-12);
    }
}
