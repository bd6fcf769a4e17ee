//! Hyper-parameters for decision trees and random forests.

use serde::{Deserialize, Serialize};

/// Structural hyper-parameters of a single decision tree.
///
/// These are the hyper-parameters the paper's grid search tunes and its
/// `Adjust(H)` heuristic later shrinks: maximum depth and maximum number of
/// leaves. Everything else about growth is fixed: splits minimize Gini
/// impurity, a node needs two samples to split and each child receives at
/// least one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TreeParams {
    /// Maximum tree depth (root has depth 0); `None` means unlimited.
    pub max_depth: Option<usize>,
    /// Maximum number of leaves; `None` means unlimited. When set, the tree
    /// is grown best-first (largest impurity decrease first), matching
    /// sklearn's `max_leaf_nodes` behaviour.
    pub max_leaves: Option<usize>,
}

impl TreeParams {
    /// Convenience constructor bounding depth only.
    pub fn with_max_depth(depth: usize) -> Self {
        Self {
            max_depth: Some(depth),
            max_leaves: None,
        }
    }

    /// Returns a copy with the structural budget relaxed by one step:
    /// depth + 2 and leaves * 2. Used as an escape hatch when the
    /// trigger-forcing loop cannot converge under the adjusted budget.
    pub fn relaxed(&self) -> Self {
        Self {
            max_depth: self.max_depth.map(|d| d + 2),
            max_leaves: self.max_leaves.map(|l| (l * 2).max(l + 2)),
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
    }

    #[test]
    fn relaxation_grows_both_budgets() {
        let params = TreeParams {
            max_depth: Some(3),
            max_leaves: Some(4),
        };
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
