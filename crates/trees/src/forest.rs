//! Random forests without bootstrap.
//!
//! The paper's scheme targets "random forest models without bootstrap", in
//! which every tree sees the full training set (optionally with per-sample
//! weights) but only a random subset of the features, and the ensemble
//! output is the *sequence of per-tree predictions* (the `predict.all`
//! behaviour of R / a thin sklearn wrapper). [`RandomForest::predict_all`]
//! exposes exactly that interface; majority voting is layered on top.

use crate::params::ForestParams;
use crate::tree::{DecisionTree, Node, TreeStats};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};
use wdte_data::{ConfusionMatrix, Dataset, Label};

/// A trained random forest without bootstrap.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    feature_subsets: Vec<Vec<usize>>,
    num_features: usize,
    num_classes: usize,
}

/// Smallest class count covering every leaf label of `trees` (at least 2);
/// the k assumed for forests whose artefacts predate the explicit field.
fn max_leaf_classes(trees: &[DecisionTree]) -> usize {
    trees
        .iter()
        .flat_map(|tree| tree.nodes())
        .filter_map(|node| match node {
            Node::Leaf { label, .. } => Some(label.index() + 1),
            Node::Internal { .. } => None,
        })
        .max()
        .unwrap_or(2)
        .max(2)
}

/// The serialized fields of a [`RandomForest`], before the forest checks.
mod unchecked {
    #[derive(serde::Deserialize)]
    pub(super) struct RandomForest {
        pub(super) trees: Vec<super::DecisionTree>,
        pub(super) feature_subsets: Vec<Vec<usize>>,
        pub(super) num_features: usize,
        pub(super) num_classes: usize,
    }
}

/// Deserialization validates the forest-level invariants (each tree's
/// arena is already validated by [`DecisionTree`]'s deserializer), so a
/// corrupted serialized model is rejected instead of panicking later.
impl Deserialize for RandomForest {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Self::checked(unchecked::RandomForest::from_value(value)?)
    }

    fn read_binary(reader: &mut serde::binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        Self::checked(unchecked::RandomForest::read_binary(reader, depth)?)
    }
}

impl RandomForest {
    /// Validates deserialized parts: at least one tree, one non-empty
    /// in-range feature subset per tree, a feature count covering every
    /// tree, and a class count covering every leaf.
    fn checked(parts: unchecked::RandomForest) -> Result<Self, DeError> {
        let unchecked::RandomForest {
            trees,
            feature_subsets,
            num_features,
            num_classes,
        } = parts;
        if trees.is_empty() {
            return Err(DeError::new(
                "invalid RandomForest: a forest needs at least one tree",
            ));
        }
        if feature_subsets.len() != trees.len() {
            return Err(DeError::new(format!(
                "invalid RandomForest: {} trees but {} feature subsets",
                trees.len(),
                feature_subsets.len()
            )));
        }
        if let Some(max) = trees.iter().map(DecisionTree::num_features).max() {
            if num_features < max {
                return Err(DeError::new(format!(
                    "invalid RandomForest: claims {num_features} features but a tree uses {max}"
                )));
            }
        }
        for (tree, subset) in feature_subsets.iter().enumerate() {
            if subset.is_empty() {
                return Err(DeError::new(format!(
                    "invalid RandomForest: tree {tree} has an empty feature subset"
                )));
            }
            if let Some(&bad) = subset.iter().find(|&&feature| feature >= num_features) {
                return Err(DeError::new(format!(
                    "invalid RandomForest: tree {tree}'s subset references feature {bad} of {num_features}"
                )));
            }
        }
        let leaf_classes = max_leaf_classes(&trees);
        if num_classes < leaf_classes {
            return Err(DeError::new(format!(
                "invalid RandomForest: claims {num_classes} classes but a leaf predicts class {}",
                leaf_classes - 1
            )));
        }
        Ok(RandomForest {
            trees,
            feature_subsets,
            num_features,
            num_classes,
        })
    }

    /// Trains a forest on `dataset` with unit sample weights.
    pub fn fit<R: Rng + ?Sized>(dataset: &Dataset, params: &ForestParams, rng: &mut R) -> Self {
        let weights = vec![1.0; dataset.len()];
        Self::fit_weighted(dataset, &weights, params, rng)
    }

    /// Trains a forest with explicit per-sample weights (the mechanism
    /// Algorithm 1 uses to force behaviour on the trigger set).
    ///
    /// Each tree receives an independent random feature subset drawn from
    /// `rng`; training itself is parallelized with per-tree RNG streams
    /// derived from `rng`, so results are deterministic for a fixed seed
    /// regardless of thread scheduling.
    ///
    /// All trees share the dataset-level presorted columns, so only the first
    /// `fit_weighted` call on a dataset pays the `O(d · n log n)` sort;
    /// repeated calls with different weights — the watermark embedding
    /// loop — train from the cache.
    pub fn fit_weighted<R: Rng + ?Sized>(
        dataset: &Dataset,
        weights: &[f64],
        params: &ForestParams,
        rng: &mut R,
    ) -> Self {
        assert!(params.num_trees >= 1, "a forest needs at least one tree");
        assert_eq!(weights.len(), dataset.len(), "one weight per sample required");
        let subset_size = params.feature_subset.size(dataset.num_features());
        let feature_subsets: Vec<Vec<usize>> = (0..params.num_trees)
            .map(|_| {
                let mut features: Vec<usize> = (0..dataset.num_features()).collect();
                features.shuffle(rng);
                features.truncate(subset_size);
                features.sort_unstable();
                features
            })
            .collect();

        let trees: Vec<DecisionTree> = feature_subsets
            .par_iter()
            .map(|subset| DecisionTree::fit_weighted(dataset, weights, Some(subset), &params.tree))
            .collect();

        RandomForest {
            trees,
            feature_subsets,
            num_features: dataset.num_features(),
            num_classes: dataset.num_classes(),
        }
    }

    /// Builds a forest from already-trained trees. Used by the watermarking
    /// scheme, which interleaves trees from two separately trained forests
    /// according to the owner's signature, and by the 3SAT reduction.
    ///
    /// # Panics
    /// Panics if `trees` is empty or the trees disagree on dimensionality.
    pub fn from_trees(trees: Vec<DecisionTree>) -> Self {
        let num_classes = max_leaf_classes(&trees);
        Self::from_trees_with_classes(trees, num_classes)
    }

    /// [`RandomForest::from_trees`] with an explicit class count, for
    /// ensembles whose trees do not happen to predict every class.
    ///
    /// # Panics
    /// Panics if `trees` is empty, the trees disagree on dimensionality, or
    /// a leaf predicts a class at or beyond `num_classes`.
    pub fn from_trees_with_classes(trees: Vec<DecisionTree>, num_classes: usize) -> Self {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        let num_classes = num_classes.max(2);
        assert!(
            max_leaf_classes(&trees) <= num_classes,
            "a leaf predicts a class beyond num_classes"
        );
        let num_features = trees.iter().map(|t| t.num_features()).max().expect("non-empty");
        let feature_subsets = trees.iter().map(|_| (0..num_features).collect()).collect();
        RandomForest {
            trees,
            feature_subsets,
            num_features,
            num_classes,
        }
    }

    /// Number of trees `m` in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features of the training space.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes `k` the forest votes over.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Borrow of the individual trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The feature subset each tree was trained on.
    pub fn feature_subsets(&self) -> &[Vec<usize>] {
        &self.feature_subsets
    }

    /// Per-tree predictions for one instance, in tree order. This is the
    /// ensemble output assumed by the watermarking scheme.
    pub fn predict_all(&self, instance: &[f64]) -> Vec<Label> {
        self.trees.iter().map(|t| t.predict(instance)).collect()
    }

    /// Per-class vote counts for one instance, indexed by class.
    pub fn vote_counts(&self, instance: &[f64]) -> Vec<usize> {
        let mut votes = vec![0usize; self.num_classes];
        for tree in &self.trees {
            votes[tree.predict(instance).index()] += 1;
        }
        votes
    }

    /// Plurality-vote prediction for one instance; ties go to the lowest
    /// class index (the negative class for k=2, matching the binary
    /// implementation's `2·positives > m` rule exactly).
    pub fn predict(&self, instance: &[f64]) -> Label {
        let votes = self.vote_counts(instance);
        let mut winner = 0usize;
        for (class, &count) in votes.iter().enumerate().skip(1) {
            if count > votes[winner] {
                winner = class;
            }
        }
        Label::from_index(winner).expect("class count bounded by Label::MAX_CLASSES")
    }

    /// Fraction of trees voting for the positive class; a calibrated score
    /// usable for ROC analysis (one-vs-rest for class 1 when k > 2).
    pub fn positive_vote_fraction(&self, instance: &[f64]) -> f64 {
        let positive_votes =
            self.trees.iter().filter(|t| t.predict(instance) == Label::Positive).count();
        positive_votes as f64 / self.trees.len() as f64
    }

    /// Majority-vote predictions for every instance of a dataset.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Vec<Label> {
        dataset.iter().map(|(row, _)| self.predict(row)).collect()
    }

    /// Majority-vote accuracy over a dataset.
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let predictions = self.predict_dataset(dataset);
        wdte_data::accuracy(dataset.labels(), &predictions)
    }

    /// Confusion matrix of majority-vote predictions over a dataset, sized
    /// to cover both the forest's and the dataset's class count.
    pub fn confusion(&self, dataset: &Dataset) -> ConfusionMatrix {
        let predictions = self.predict_dataset(dataset);
        ConfusionMatrix::from_predictions_with_classes(
            dataset.labels(),
            &predictions,
            self.num_classes.max(dataset.num_classes()),
        )
    }

    /// Structural statistics of every tree, in tree order.
    pub fn tree_stats(&self) -> Vec<TreeStats> {
        self.trees.iter().map(|t| t.stats()).collect()
    }

    /// Total number of leaves in the ensemble; the paper points at this
    /// quantity to explain why forgery is harder on ijcnn1 than on the
    /// other datasets.
    pub fn total_leaves(&self) -> usize {
        self.trees.iter().map(|t| t.num_leaves()).sum()
    }
}

/// Deterministically derives independent per-tree seeds from a master RNG;
/// exposed for callers that need to parallelize their own per-tree work
/// while keeping results reproducible.
pub fn derive_seeds<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<u64> {
    (0..count).map(|_| rng.gen()).collect()
}

/// Creates a deterministic RNG from a derived seed.
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{FeatureSubset, TreeParams};
    use wdte_data::SyntheticSpec;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    fn tabular() -> Dataset {
        SyntheticSpec::breast_cancer_like().generate(&mut SmallRng::seed_from_u64(3))
    }

    #[test]
    fn forest_learns_the_tabular_standin_well() {
        let dataset = tabular();
        let mut rng = rng();
        let (train, test) = dataset.split_stratified(0.7, &mut rng);
        let params = ForestParams {
            num_trees: 25,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&train, &params, &mut rng);
        let accuracy = forest.accuracy(&test);
        assert!(accuracy > 0.9, "forest accuracy too low: {accuracy}");
        assert_eq!(forest.num_trees(), 25);
    }

    #[test]
    fn predict_all_has_one_vote_per_tree_and_matches_majority() {
        let dataset = tabular();
        let mut rng = rng();
        let params = ForestParams {
            num_trees: 9,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut rng);
        for (row, _) in dataset.iter().take(20) {
            let votes = forest.predict_all(row);
            assert_eq!(votes.len(), 9);
            let positives = votes.iter().filter(|&&v| v == Label::Positive).count();
            let expected = if 2 * positives > votes.len() {
                Label::Positive
            } else {
                Label::Negative
            };
            assert_eq!(forest.predict(row), expected);
            let fraction = forest.positive_vote_fraction(row);
            assert!((fraction - positives as f64 / 9.0).abs() < 1e-12);
        }
    }

    #[test]
    fn training_is_deterministic_for_a_fixed_seed() {
        let dataset = tabular();
        let params = ForestParams {
            num_trees: 7,
            ..ForestParams::default()
        };
        let a = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(5));
        let b = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(5));
        let c = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn feature_subsets_respect_requested_size() {
        let dataset = tabular();
        let mut rng = rng();
        let params = ForestParams {
            num_trees: 5,
            feature_subset: FeatureSubset::Fraction(0.2),
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut rng);
        for subset in forest.feature_subsets() {
            assert_eq!(subset.len(), 6); // 20% of 30 features
        }
    }

    #[test]
    fn sample_weights_force_trigger_like_behaviour() {
        // Pick a handful of instances, flip their labels, and give them huge
        // weights: every tree should memorize the flipped label when allowed
        // to see all features.
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.4)
            .generate(&mut SmallRng::seed_from_u64(9));
        let flipped = dataset.with_labels_flipped_at(&[0, 1, 2]).unwrap();
        let mut weights = vec![1.0; flipped.len()];
        for w in weights.iter_mut().take(3) {
            *w = 200.0;
        }
        let params = ForestParams {
            num_trees: 5,
            feature_subset: FeatureSubset::All,
            tree: TreeParams::default(),
        };
        let mut rng = rng();
        let forest = RandomForest::fit_weighted(&flipped, &weights, &params, &mut rng);
        for i in 0..3 {
            for tree in forest.trees() {
                assert_eq!(
                    tree.predict(flipped.instance(i)),
                    flipped.label(i),
                    "every tree must follow the heavily weighted flipped label"
                );
            }
        }
    }

    #[test]
    fn from_trees_preserves_order() {
        let dataset = tabular();
        let mut rng = rng();
        let t1 = DecisionTree::fit(&dataset, &TreeParams::with_max_depth(1));
        let t2 = DecisionTree::fit(&dataset, &TreeParams::with_max_depth(3));
        let forest = RandomForest::from_trees(vec![t1.clone(), t2.clone()]);
        assert_eq!(forest.num_trees(), 2);
        assert_eq!(forest.trees()[0], t1);
        assert_eq!(forest.trees()[1], t2);
        let _ = rng.gen::<u64>();
    }

    #[test]
    fn stats_and_total_leaves_are_consistent() {
        let dataset = tabular();
        let mut rng = rng();
        let params = ForestParams {
            num_trees: 6,
            tree: TreeParams {
                max_depth: None,
                max_leaves: Some(8),
            },
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut rng);
        let stats = forest.tree_stats();
        assert_eq!(stats.len(), 6);
        assert_eq!(
            forest.total_leaves(),
            stats.iter().map(|s| s.leaves).sum::<usize>()
        );
        assert!(stats.iter().all(|s| s.leaves <= 8));
    }

    #[test]
    fn imbalanced_data_still_beats_the_majority_baseline() {
        let dataset = SyntheticSpec::ijcnn1_like()
            .scaled(0.05)
            .generate(&mut SmallRng::seed_from_u64(18));
        let mut rng = rng();
        let (train, test) = dataset.split_stratified(0.7, &mut rng);
        let params = ForestParams {
            num_trees: 20,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&train, &params, &mut rng);
        let confusion = forest.confusion(&test);
        assert!(confusion.accuracy() > 0.9);
        assert!(
            confusion.balanced_accuracy() > 0.75,
            "balanced accuracy {}",
            confusion.balanced_accuracy()
        );
    }

    #[test]
    fn derive_seeds_is_reproducible() {
        let a = derive_seeds(5, &mut SmallRng::seed_from_u64(1));
        let b = derive_seeds(5, &mut SmallRng::seed_from_u64(1));
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let _ = rng_from_seed(a[0]);
    }
}
