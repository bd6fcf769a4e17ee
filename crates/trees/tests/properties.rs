//! Property-based tests for the tree-learning substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_data::{Dataset, DenseMatrix, Label, SyntheticSpec};
use wdte_trees::{DecisionTree, ForestParams, RandomForest, TreeParams};

fn dataset_from(rows: Vec<Vec<f64>>, label_bits: Vec<bool>) -> Dataset {
    let labels: Vec<Label> = label_bits
        .iter()
        .map(|&b| if b { Label::Positive } else { Label::Negative })
        .collect();
    Dataset::new("prop", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trees_always_respect_structural_budgets(
        rows in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 4), 10..60),
        label_bits in proptest::collection::vec(any::<bool>(), 60),
        max_depth in 1usize..6,
        max_leaves in 2usize..10
    ) {
        let n = rows.len();
        let dataset = dataset_from(rows, label_bits[..n].to_vec());
        let params = TreeParams {
            max_depth: Some(max_depth),
            max_leaves: Some(max_leaves),
        };
        let tree = DecisionTree::fit(&dataset, &params);
        prop_assert!(tree.depth() <= max_depth);
        prop_assert!(tree.num_leaves() <= max_leaves);
        // A binary tree with L leaves has 2L-1 nodes.
        prop_assert_eq!(tree.nodes().len(), 2 * tree.num_leaves() - 1);
    }

    #[test]
    fn unbounded_trees_fit_their_training_data_when_instances_are_distinct(
        seed in 0u64..500
    ) {
        // Distinct continuous instances are always separable by an
        // unbounded CART tree, so training accuracy must be 1.
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.15)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let tree = DecisionTree::fit(&dataset, &TreeParams::default());
        prop_assert_eq!(tree.accuracy(&dataset), 1.0);
    }

    #[test]
    fn leaf_regions_partition_the_feature_space(
        rows in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 8..40),
        label_bits in proptest::collection::vec(any::<bool>(), 40),
        probes in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 10)
    ) {
        let n = rows.len();
        let dataset = dataset_from(rows, label_bits[..n].to_vec());
        let tree = DecisionTree::fit(&dataset, &TreeParams::with_max_depth(4));
        let regions = tree.leaf_regions();
        for probe in &probes {
            let containing: Vec<_> = regions
                .iter()
                .filter(|r| {
                    r.bounds.iter().enumerate().all(|(f, &(lo, hi))| probe[f] > lo && probe[f] <= hi)
                })
                .collect();
            prop_assert_eq!(containing.len(), 1, "every point lies in exactly one leaf region");
            prop_assert_eq!(containing[0].label, tree.predict(probe));
        }
    }

    #[test]
    fn forest_majority_vote_matches_per_tree_votes(seed in 0u64..200, num_trees in 1usize..9) {
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF00D);
        let forest = RandomForest::fit(&dataset, &ForestParams::with_trees(num_trees), &mut rng);
        for (instance, _) in dataset.iter().take(10) {
            let votes = forest.predict_all(instance);
            prop_assert_eq!(votes.len(), num_trees);
            let positives = votes.iter().filter(|&&v| v == Label::Positive).count();
            let expected = if 2 * positives > num_trees { Label::Positive } else { Label::Negative };
            prop_assert_eq!(forest.predict(instance), expected);
        }
    }

    #[test]
    fn heavily_weighted_samples_are_always_memorized(
        seed in 0u64..200,
        flip_index in 0usize..20
    ) {
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let flipped = dataset.with_labels_flipped_at(&[flip_index]).unwrap();
        let mut weights = vec![1.0; flipped.len()];
        weights[flip_index] = 10_000.0;
        let tree = DecisionTree::fit_weighted(&flipped, &weights, None, &TreeParams::default());
        prop_assert_eq!(tree.predict(flipped.instance(flip_index)), flipped.label(flip_index));
    }
}
