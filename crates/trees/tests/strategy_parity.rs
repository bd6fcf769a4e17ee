//! Parity and property tests for the split-search strategies.
//!
//! The presorted [`SplitStrategy::Exact`] search must reproduce the naive
//! reference algorithm ([`SplitStrategy::ExactNaive`]) exactly: same
//! thresholds, same structure, same predictions — on finite data and on
//! data holding NaN, ±inf, −0.0 and ties.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_data::{Dataset, DenseMatrix, Label, SyntheticSpec};
use wdte_trees::{DecisionTree, ForestParams, RandomForest, SplitStrategy, TreeParams};

/// The presorted builder sums weighted counts in the same (ascending row)
/// order as the naive builder's index lists, so parity is *bit-exact*:
/// identical structure, thresholds, labels and leaf counts.
fn assert_trees_equivalent(exact: &DecisionTree, naive: &DecisionTree) {
    assert_eq!(exact, naive, "presorted tree must equal naive tree bit-for-bit");
}

fn dataset_from(rows: Vec<Vec<f64>>, label_bits: &[bool]) -> Dataset {
    let labels: Vec<Label> = label_bits
        .iter()
        .take(rows.len())
        .map(|&b| if b { Label::Positive } else { Label::Negative })
        .collect();
    Dataset::new("parity", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap()
}

/// Feature values for the parity proptest: half uniform draws, half the
/// values that reach the scan's non-finite path (NaN, ±inf) or tie
/// (`-0.0 == 0.0`, and a repeated `0.5`).
fn feature_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        0.0f64..1.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
        Just(0.5),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee: presorted exact trees are *identical* to
    /// naive-search trees — structure, thresholds and all — for unit and
    /// non-unit weights alike, on finite segments (the scan's fast path)
    /// and on segments holding NaN or ±inf (its fully checked path).
    #[test]
    fn presorted_exact_trees_match_the_naive_reference(
        rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 5), 10..80),
        label_bits in proptest::collection::vec(any::<bool>(), 80),
        weight_bumps in proptest::collection::vec(1.0f64..20.0, 80),
        max_depth in 2usize..8
    ) {
        let dataset = dataset_from(rows, &label_bits);
        let weights: Vec<f64> = weight_bumps[..dataset.len()].to_vec();
        let naive_params = TreeParams {
            max_depth: Some(max_depth),
            strategy: SplitStrategy::ExactNaive,
            ..TreeParams::default()
        };
        let exact_params = TreeParams { strategy: SplitStrategy::Exact, ..naive_params };
        let naive = DecisionTree::fit_weighted(&dataset, &weights, None, &naive_params);
        let exact = DecisionTree::fit_weighted(&dataset, &weights, None, &exact_params);
        assert_trees_equivalent(&exact, &naive);
        // Belt and braces: identical predictions on off-training probes.
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            use rand::Rng;
            let probe: Vec<f64> = (0..dataset.num_features()).map(|_| rng.gen_range(0.0..1.0)).collect();
            prop_assert_eq!(exact.predict(&probe), naive.predict(&probe));
        }
    }

    /// Whole forests agree too: the strategy change must not perturb RNG
    /// consumption (feature subsets) or tree interleaving.
    #[test]
    fn presorted_exact_forests_match_the_naive_reference(seed in 0u64..24) {
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.3)
            .generate(&mut SmallRng::seed_from_u64(seed));
        let naive_params = ForestParams {
            num_trees: 5,
            tree: TreeParams { strategy: SplitStrategy::ExactNaive, ..TreeParams::default() },
            ..ForestParams::default()
        };
        let exact_params = ForestParams {
            tree: TreeParams { strategy: SplitStrategy::Exact, ..TreeParams::default() },
            ..naive_params
        };
        let naive = RandomForest::fit(&dataset, &naive_params, &mut SmallRng::seed_from_u64(seed + 1000));
        let exact = RandomForest::fit(&dataset, &exact_params, &mut SmallRng::seed_from_u64(seed + 1000));
        prop_assert_eq!(exact.feature_subsets(), naive.feature_subsets());
        for (a, b) in exact.trees().iter().zip(naive.trees()) {
            assert_trees_equivalent(a, b);
        }
    }
}

#[test]
fn all_strategies_are_deterministic_for_a_fixed_seed() {
    let dataset = SyntheticSpec::breast_cancer_like()
        .scaled(0.4)
        .generate(&mut SmallRng::seed_from_u64(3));
    for strategy in [SplitStrategy::Exact, SplitStrategy::ExactNaive] {
        let params = ForestParams {
            num_trees: 6,
            tree: TreeParams {
                strategy,
                ..TreeParams::default()
            },
            ..ForestParams::default()
        };
        let a = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(11));
        let b = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(11));
        assert_eq!(a, b, "strategy {strategy:?} must be deterministic");
    }
}

#[test]
fn adjacent_double_values_terminate_and_separate_cleanly() {
    // For adjacent doubles the naive midpoint can round up to the larger
    // value, which would send both samples left, desynchronize the
    // partition from the recorded split, and (in a two-value node) grow
    // the same split forever. `midpoint_threshold` falls back to the lower
    // value; both exact strategies must terminate and classify perfectly.
    let a = 1.0 + f64::EPSILON; // odd mantissa: midpoint rounds up to `b`
    let b = 1.0 + 2.0 * f64::EPSILON;
    let rows = vec![vec![a], vec![b], vec![a], vec![b]];
    let labels = vec![Label::Negative, Label::Positive, Label::Negative, Label::Positive];
    let dataset = Dataset::new("ulp", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap();
    for strategy in [SplitStrategy::Exact, SplitStrategy::ExactNaive] {
        let tree = DecisionTree::fit(
            &dataset,
            &TreeParams {
                strategy,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.accuracy(&dataset), 1.0, "{strategy:?}");
        assert_eq!(tree.num_leaves(), 2, "{strategy:?}");
        assert_eq!(tree.predict(&[a]), Label::Negative);
        assert_eq!(tree.predict(&[b]), Label::Positive);
    }
}

#[test]
fn sample_weights_behave_identically_across_exact_strategies() {
    // The watermark loop's mechanism: a heavily weighted flipped sample
    // must be memorized — by both exact implementations, identically.
    let dataset = SyntheticSpec::breast_cancer_like()
        .scaled(0.3)
        .generate(&mut SmallRng::seed_from_u64(9));
    let flipped = dataset.with_labels_flipped_at(&[0, 1]).unwrap();
    let mut weights = vec![1.0; flipped.len()];
    weights[0] = 500.0;
    weights[1] = 500.0;
    for strategy in [SplitStrategy::Exact, SplitStrategy::ExactNaive] {
        let params = TreeParams {
            strategy,
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit_weighted(&flipped, &weights, None, &params);
        assert_eq!(
            tree.predict(flipped.instance(0)),
            flipped.label(0),
            "{strategy:?}"
        );
        assert_eq!(
            tree.predict(flipped.instance(1)),
            flipped.label(1),
            "{strategy:?}"
        );
    }
}
