//! Weighted best-split search for CART trees.
//!
//! [`best_split`] is the *naive reference* search behind
//! [`crate::DecisionTree::fit_weighted_reference`]: it gathers and re-sorts
//! a `(value, label, weight)` column for every candidate feature at every
//! node. The production search, presorted and exact, lives in
//! `crate::splitter` and avoids all per-node sorting; this implementation
//! is kept as its parity oracle and benchmark baseline.
//!
//! Note on the oracle's arithmetic: the gain scoring was refactored to the
//! algebraically equivalent fused Gini form ([`children_impurity`]) shared
//! with the production search. Scores can differ from the original
//! seed implementation by rounding ulps, which may flip near-tie argmax
//! decisions; the parity guarantee is therefore *presorted ≡ reference as
//! implemented here* (bit-for-bit, enforced by
//! `tests/strategy_parity.rs`), with identical split *semantics* to the
//! seed (same candidate enumeration, thresholds, and zero-gain policy).
//!
//! Splits minimize weighted Gini impurity; every child of a split holds at
//! least one sample.

use wdte_data::{gini_of, total_of, ClassCounts, DenseMatrix, Label};

/// A candidate axis-aligned split `x[feature] <= threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Feature index the split tests.
    pub feature: usize,
    /// Threshold; instances with `x[feature] <= threshold` go left.
    pub threshold: f64,
    /// Weighted impurity decrease achieved by the split.
    pub gain: f64,
    /// Weighted class counts of the left child.
    pub left_counts: ClassCounts,
    /// Weighted class counts of the right child.
    pub right_counts: ClassCounts,
    /// Number of samples sent to the left child.
    pub left_samples: usize,
    /// Number of samples sent to the right child.
    pub right_samples: usize,
}

/// Weighted Gini impurity of a candidate partition,
/// `(w_l/T)·gini(left) + (w_r/T)·gini(right)`, over per-class weight
/// slices (index = class).
///
/// Shared by both split searches so their floating-point results are
/// bit-identical (the presorted/reference parity guarantee). For two
/// classes the algebraic identity `(w/T)·gini = 2·pos·neg/(w·T)` cuts the
/// division count per evaluated boundary from six to two — and the
/// `2/T` factor is constant per node, so callers pass it precomputed as
/// `gini_scale` (see [`gini_scale`]), leaving two pipelinable divisions
/// in the hottest expression of forest training. The fused path is taken
/// exactly when both slices hold two classes.
///
/// Callers must ensure both children have positive total weight.
#[inline]
pub fn children_impurity(left: &[f64], right: &[f64], total_weight: f64, gini_scale: f64) -> f64 {
    if let ([left_negative, left_positive], [right_negative, right_positive]) = (left, right) {
        // Fused over the common denominator: one division per boundary
        // (`p_l·n_l/w_l + p_r·n_r/w_r = (p_l·n_l·w_r + p_r·n_r·w_l)/(w_l·w_r)`).
        let left_weight = total_of(left);
        let right_weight = total_of(right);
        let numerator =
            left_positive * left_negative * right_weight + right_positive * right_negative * left_weight;
        numerator / (left_weight * right_weight) * gini_scale
    } else {
        (total_of(left) / total_weight) * gini_of(left)
            + (total_of(right) / total_weight) * gini_of(right)
    }
}

/// The per-node constant factor of the algebraic Gini form, hoisted out of
/// the boundary loop: `2 / total_weight`.
#[inline]
pub fn gini_scale(total_weight: f64) -> f64 {
    2.0 / total_weight
}

/// Split threshold between two adjacent distinct sorted values: their
/// midpoint, except when rounding would push the midpoint up to
/// `next_value` itself (adjacent doubles). `x <= next_value` would then
/// send the right-hand samples left, desynchronizing the partition from
/// the recorded split (and, for a two-value node, re-deriving the same
/// split forever). Falling back to `value` keeps `x <= t` separating
/// exactly the scanned prefix.
#[inline]
pub fn midpoint_threshold(value: f64, next_value: f64) -> f64 {
    let midpoint = value + (next_value - value) / 2.0;
    if midpoint < next_value {
        midpoint
    } else {
        value
    }
}

/// Finds the best split of `indices` over the candidate features.
///
/// Thresholds are midpoints between consecutive distinct feature values (so
/// a split always separates at least one sample from the rest). Returns
/// `None` for fewer than two samples, a pure node, or when no boundary
/// separates distinct finite values.
pub fn best_split(
    features: &DenseMatrix,
    labels: &[Label],
    weights: &[f64],
    indices: &[usize],
    candidate_features: &[usize],
    num_classes: usize,
) -> Option<Split> {
    if indices.len() < 2 {
        return None;
    }
    let mut parent_counts = ClassCounts::with_classes(num_classes);
    for &i in indices {
        parent_counts.add(labels[i], weights[i]);
    }
    let parent_impurity = parent_counts.gini();
    if parent_impurity <= 0.0 {
        return None; // already pure
    }
    let total_weight = parent_counts.total();
    if total_weight <= 0.0 {
        return None;
    }
    let scale = gini_scale(total_weight);

    let mut best: Option<Split> = None;
    // Reusable scratch buffer of (value, label, weight) sorted per feature.
    let mut column: Vec<(f64, Label, f64)> = Vec::with_capacity(indices.len());
    for &feature in candidate_features {
        column.clear();
        for &i in indices {
            column.push((features.value(i, feature), labels[i], weights[i]));
        }
        // total_cmp is a total order: NaN sorts after +inf instead of
        // panicking mid-training, and the guard below keeps thresholds
        // away from non-finite values.
        column.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut left_counts = ClassCounts::with_classes(num_classes);
        let mut right_counts = parent_counts.clone();
        // Scan split positions between consecutive samples.
        for position in 0..column.len() - 1 {
            let (value, label, weight) = column[position];
            left_counts.add(label, weight);
            right_counts.remove(label, weight);
            let next_value = column[position + 1].0;
            // `!(next > value)` rather than `next <= value`: identical
            // values cannot be separated, and NaN (which compares false
            // both ways) must never become a threshold neighbour. Both
            // ends must be finite or the midpoint would be NaN/inf.
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-aware on purpose
            if !(next_value > value) || !value.is_finite() || !next_value.is_finite() {
                continue;
            }
            let left_weight = left_counts.total();
            let right_weight = right_counts.total();
            if left_weight <= 0.0 || right_weight <= 0.0 {
                continue;
            }
            let children =
                children_impurity(left_counts.slice(), right_counts.slice(), total_weight, scale);
            let gain = parent_impurity - children;
            // Zero-gain splits are still accepted when nothing better
            // exists: an impure node may require a locally useless split
            // (e.g. XOR-like patterns) before a useful one becomes
            // available deeper down, and the trigger-forcing loop of the
            // watermarking scheme relies on trees being able to keep
            // isolating heavily weighted samples.
            let better = best.as_ref().map_or(gain >= 0.0, |b| gain > b.gain);
            if better {
                best = Some(Split {
                    feature,
                    threshold: midpoint_threshold(value, next_value),
                    gain,
                    left_counts: left_counts.clone(),
                    right_counts: right_counts.clone(),
                    left_samples: position + 1,
                    right_samples: column.len() - position - 1,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Label = Label::Positive;
    const N: Label = Label::Negative;

    fn matrix(rows: &[Vec<f64>]) -> DenseMatrix {
        DenseMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn splits_a_perfectly_separable_feature() {
        let features = matrix(&[vec![0.1], vec![0.2], vec![0.8], vec![0.9]]);
        let labels = [N, N, P, P];
        let weights = [1.0; 4];
        let split =
            best_split(&features, &labels, &weights, &[0, 1, 2, 3], &[0], 2).expect("split exists");
        assert_eq!(split.feature, 0);
        assert!(split.threshold > 0.2 && split.threshold < 0.8);
        assert!(
            (split.gain - 0.5).abs() < 1e-9,
            "gain should equal parent gini 0.5, got {}",
            split.gain
        );
        assert_eq!(split.left_samples, 2);
        assert_eq!(split.right_samples, 2);
    }

    #[test]
    fn picks_the_informative_feature_among_noise() {
        // Feature 0 is random-ish, feature 1 separates the classes.
        let features = matrix(&[vec![0.5, 0.1], vec![0.9, 0.2], vec![0.4, 0.9], vec![0.8, 0.8]]);
        let labels = [N, N, P, P];
        let weights = [1.0; 4];
        let split =
            best_split(&features, &labels, &weights, &[0, 1, 2, 3], &[0, 1], 2).expect("split exists");
        assert_eq!(split.feature, 1);
    }

    #[test]
    fn pure_nodes_do_not_split() {
        let features = matrix(&[vec![0.1], vec![0.9]]);
        let labels = [P, P];
        let weights = [1.0; 2];
        assert!(best_split(&features, &labels, &weights, &[0, 1], &[0], 2,).is_none());
    }

    #[test]
    fn identical_feature_values_cannot_be_separated() {
        let features = matrix(&[vec![0.5], vec![0.5], vec![0.5], vec![0.5]]);
        let labels = [N, P, N, P];
        let weights = [1.0; 4];
        assert!(best_split(&features, &labels, &weights, &[0, 1, 2, 3], &[0], 2,).is_none());
    }

    #[test]
    fn sample_weights_move_the_optimal_threshold() {
        // One heavily weighted positive on the left side dominates the
        // impurity computation and drags the best split next to it.
        let features = matrix(&[vec![0.1], vec![0.2], vec![0.3], vec![0.9]]);
        let labels = [P, N, N, N];
        let uniform = [1.0, 1.0, 1.0, 1.0];
        let weighted = [50.0, 1.0, 1.0, 1.0];
        let split_uniform = best_split(&features, &labels, &uniform, &[0, 1, 2, 3], &[0], 2).unwrap();
        let split_weighted = best_split(&features, &labels, &weighted, &[0, 1, 2, 3], &[0], 2).unwrap();
        // Both should cut immediately after the positive sample. The
        // weighted parent is almost pure (the positive holds ~94% of the
        // mass), so its achievable gain is *smaller* than the uniform one,
        // but both splits fully separate the classes.
        assert!(split_uniform.threshold < 0.2);
        assert!(split_weighted.threshold < 0.2);
        assert!(split_uniform.gain > 0.0 && split_weighted.gain > 0.0);
        assert!(split_weighted.gain < split_uniform.gain);
    }

    #[test]
    fn nan_features_neither_panic_nor_become_thresholds() {
        let features = matrix(&[vec![0.1], vec![0.2], vec![f64::NAN], vec![0.9]]);
        let labels = [N, N, P, P];
        let weights = [1.0; 4];
        let split = best_split(&features, &labels, &weights, &[0, 1, 2, 3], &[0], 2)
            .expect("finite values still admit a split");
        assert!(split.threshold.is_finite());
        // NaN sorts last (total_cmp), so the only boundaries considered lie
        // between the finite values.
        assert!(split.threshold < 0.9);
    }

    #[test]
    fn all_nan_column_yields_no_split() {
        let features = matrix(&[vec![f64::NAN], vec![f64::NAN], vec![f64::NAN]]);
        let labels = [N, P, P];
        let weights = [1.0; 3];
        assert!(best_split(&features, &labels, &weights, &[0, 1, 2], &[0], 2,).is_none());
    }

    #[test]
    fn subset_of_indices_is_honoured() {
        let features = matrix(&[vec![0.1], vec![0.2], vec![0.8], vec![0.9]]);
        let labels = [N, N, P, P];
        let weights = [1.0; 4];
        // Only negatives selected: node is pure, no split.
        assert!(best_split(&features, &labels, &weights, &[0, 1], &[0], 2,).is_none());
    }
}
