//! Hyper-parameters for decision trees and random forests.

use serde::{Deserialize, Serialize};

/// Impurity criterion used to score candidate splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SplitCriterion {
    /// Gini impurity (CART default).
    #[default]
    Gini,
    /// Shannon entropy / information gain.
    Entropy,
}

/// Algorithm used to search for the best split of a node.
///
/// Both strategies find the same exact CART splits; they differ only in
/// what per-node work costs:
///
/// * [`SplitStrategy::Exact`] — presorted CART: per-feature sorted orders
///   are computed **once per dataset** (`Dataset::presort`), kept
///   partitioned per node through training, and scanned sequentially from
///   a column-major buffer. Bit-identical trees to the naive algorithm
///   with no per-node sorting. This is the default.
/// * [`SplitStrategy::ExactNaive`] — the reference implementation that
///   re-sorts a gathered `(value, label, weight)` column for every
///   feature at every node. Kept as the parity oracle for `Exact` and as
///   the baseline the training benchmarks compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SplitStrategy {
    /// Presorted exact split search (default).
    #[default]
    Exact,
    /// Naive per-node-sort exact search (reference/baseline).
    ExactNaive,
}

/// Structural hyper-parameters of a single decision tree.
///
/// These are the hyper-parameters the paper's grid search tunes and its
/// `Adjust(H)` heuristic later shrinks: maximum depth and maximum number of
/// leaves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root has depth 0); `None` means unlimited.
    pub max_depth: Option<usize>,
    /// Maximum number of leaves; `None` means unlimited. When set, the tree
    /// is grown best-first (largest impurity decrease first), matching
    /// sklearn's `max_leaf_nodes` behaviour.
    pub max_leaves: Option<usize>,
    /// Minimum number of samples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum number of samples each child of a split must receive.
    pub min_samples_leaf: usize,
    /// Impurity criterion.
    pub criterion: SplitCriterion,
    /// Split search algorithm (exact presorted by default).
    pub strategy: SplitStrategy,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: None,
            max_leaves: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            criterion: SplitCriterion::Gini,
            strategy: SplitStrategy::Exact,
        }
    }
}

impl TreeParams {
    /// Convenience constructor bounding depth only.
    pub fn with_max_depth(depth: usize) -> Self {
        Self {
            max_depth: Some(depth),
            ..Self::default()
        }
    }

    /// Returns a copy with both structural budgets replaced. This is the
    /// primitive used by the watermarking hyper-parameter adjustment
    /// (`Adjust(H)`), which tightens depth and leaf count to
    /// `mean - std` of the values observed in a standard ensemble.
    pub fn with_budget(&self, max_depth: Option<usize>, max_leaves: Option<usize>) -> Self {
        Self {
            max_depth,
            max_leaves,
            ..*self
        }
    }

    /// Returns a copy with the structural budget relaxed by one step:
    /// depth + 2 and leaves * 2. Used as an escape hatch when the
    /// trigger-forcing loop cannot converge under the adjusted budget.
    pub fn relaxed(&self) -> Self {
        Self {
            max_depth: self.max_depth.map(|d| d + 2),
            max_leaves: self.max_leaves.map(|l| (l * 2).max(l + 2)),
            ..*self
        }
    }
}

/// How many features each tree of the forest sees.
///
/// The paper trains random forests *without bootstrap* in which "each tree
/// is a classifier trained on a subset of the features of the entire
/// training set"; this enum controls the size of that per-tree subset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum FeatureSubset {
    /// Use all features (degenerates to bagging-free, fully-correlated trees).
    All,
    /// Use `sqrt(d)` features, the common random-forest default.
    #[default]
    Sqrt,
    /// Use a fixed fraction of the features (clamped to at least one).
    Fraction(f64),
}

impl FeatureSubset {
    /// Number of features a tree sees for a `d`-dimensional dataset.
    pub fn size(&self, num_features: usize) -> usize {
        match *self {
            FeatureSubset::All => num_features,
            FeatureSubset::Sqrt => (num_features as f64).sqrt().round().max(1.0) as usize,
            FeatureSubset::Fraction(fraction) => {
                ((num_features as f64) * fraction).round().max(1.0) as usize
            }
        }
        .min(num_features.max(1))
    }
}

/// Hyper-parameters of a random forest without bootstrap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees `m` in the ensemble.
    pub num_trees: usize,
    /// Per-tree structural hyper-parameters.
    pub tree: TreeParams,
    /// Size of the per-tree feature subset.
    pub feature_subset: FeatureSubset,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            num_trees: 100,
            tree: TreeParams::default(),
            feature_subset: FeatureSubset::Sqrt,
        }
    }
}

impl ForestParams {
    /// Convenience constructor for an `m`-tree forest with default trees.
    pub fn with_trees(num_trees: usize) -> Self {
        Self {
            num_trees,
            ..Self::default()
        }
    }

    /// Returns a copy using the given per-tree parameters.
    pub fn with_tree_params(&self, tree: TreeParams) -> Self {
        Self { tree, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_unbounded_gini_trees() {
        let params = TreeParams::default();
        assert_eq!(params.max_depth, None);
        assert_eq!(params.max_leaves, None);
        assert_eq!(params.criterion, SplitCriterion::Gini);
        assert_eq!(params.min_samples_split, 2);
    }

    #[test]
    fn budget_override_keeps_other_fields() {
        let params = TreeParams {
            min_samples_leaf: 5,
            ..TreeParams::default()
        };
        let adjusted = params.with_budget(Some(4), Some(9));
        assert_eq!(adjusted.max_depth, Some(4));
        assert_eq!(adjusted.max_leaves, Some(9));
        assert_eq!(adjusted.min_samples_leaf, 5);
    }

    #[test]
    fn relaxation_grows_both_budgets() {
        let params = TreeParams::default().with_budget(Some(3), Some(4));
        let relaxed = params.relaxed();
        assert_eq!(relaxed.max_depth, Some(5));
        assert_eq!(relaxed.max_leaves, Some(8));
        // Unbounded budgets stay unbounded.
        let unbounded = TreeParams::default().relaxed();
        assert_eq!(unbounded.max_depth, None);
        assert_eq!(unbounded.max_leaves, None);
    }

    #[test]
    fn feature_subset_sizes() {
        assert_eq!(FeatureSubset::All.size(784), 784);
        assert_eq!(FeatureSubset::Sqrt.size(784), 28);
        assert_eq!(FeatureSubset::Sqrt.size(1), 1);
        assert_eq!(FeatureSubset::Fraction(0.5).size(30), 15);
        assert_eq!(FeatureSubset::Fraction(0.001).size(30), 1);
        assert_eq!(FeatureSubset::Fraction(2.0).size(30), 30);
    }

    #[test]
    fn forest_params_builders() {
        let params = ForestParams::with_trees(16).with_tree_params(TreeParams::with_max_depth(6));
        assert_eq!(params.num_trees, 16);
        assert_eq!(params.tree.max_depth, Some(6));
    }
}
