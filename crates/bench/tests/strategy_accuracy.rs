//! Accuracy acceptance test for the split strategies on the benchmark
//! fixtures: the presorted exact search must reach the naive reference's
//! test accuracy exactly (it reproduces the naive trees bit-for-bit).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_bench::small_tabular;
use wdte_trees::{ForestParams, RandomForest, SplitStrategy, TreeParams};

fn accuracy_with(strategy: SplitStrategy, dataset: &wdte_data::Dataset, trees: usize) -> f64 {
    let mut rng = SmallRng::seed_from_u64(0xACC);
    let (train, test) = dataset.split_stratified(0.7, &mut rng);
    let params = ForestParams {
        num_trees: trees,
        tree: TreeParams {
            strategy,
            ..TreeParams::default()
        },
        ..ForestParams::default()
    };
    let forest = RandomForest::fit(&train, &params, &mut rng);
    forest.accuracy(&test)
}

#[test]
fn exact_matches_naive_accuracy_exactly_on_small_tabular() {
    let dataset = small_tabular();
    let exact = accuracy_with(SplitStrategy::Exact, &dataset, 12);
    let naive = accuracy_with(SplitStrategy::ExactNaive, &dataset, 12);
    assert_eq!(exact, naive, "exact and naive must agree bit-for-bit");
}
