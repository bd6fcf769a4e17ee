//! Benchmarks of random-forest training (the substrate retrained repeatedly
//! by Algorithm 1's weighting loop).
//!
//! Forest rows time the presorted grower every forest uses. One pair of
//! single-tree rows times it against the naive reference grower
//! (`DecisionTree::fit_weighted_reference`, per-node sort — the
//! pre-refactor algorithm, kept as the parity oracle) on the same image
//! data, feature subset and params. The `algorithm1_*` benches model the
//! watermark embedding loop: repeated `fit_weighted` calls on one dataset
//! with only the weights changing, all rounds sharing one presort cache.
//!
//! A snapshot of this group's output is committed as
//! `BENCH_forest_training.json` at the repository root.
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_bench::{small_image, small_tabular};
use wdte_trees::{DecisionTree, ForestParams, RandomForest, TreeParams};

fn image_params() -> ForestParams {
    ForestParams {
        num_trees: 10,
        tree: TreeParams::with_max_depth(10),
        ..ForestParams::default()
    }
}

fn bench_training(c: &mut Criterion) {
    let tabular = small_tabular();
    let image = small_image();
    let mut group = c.benchmark_group("forest_training");
    group.sample_size(10);
    for &trees in &[10usize, 30] {
        group.bench_function(format!("tabular_{trees}_trees"), |b| {
            b.iter_batched(
                || SmallRng::seed_from_u64(1),
                |mut rng| RandomForest::fit(&tabular, &ForestParams::with_trees(trees), &mut rng),
                BatchSize::SmallInput,
            )
        });
    }
    // The presort cache is warmed up front so the presorted grower is
    // measured in its steady state — exactly how Algorithm 1 sees it.
    let _ = image.presort();
    group.bench_function("image_784_features_10_trees", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(2),
            |mut rng| RandomForest::fit(&image, &image_params(), &mut rng),
            BatchSize::SmallInput,
        )
    });
    // The grower comparison: one tree of the image forest above (its
    // first feature subset, unit weights), presorted vs the naive
    // per-node-sort reference.
    let params = image_params().tree;
    let first = RandomForest::fit(
        &image,
        &ForestParams {
            num_trees: 1,
            ..image_params()
        },
        &mut SmallRng::seed_from_u64(2),
    );
    let subset = first.feature_subsets()[0].clone();
    let weights = vec![1.0; image.len()];
    group.bench_function("image_784_features_1_tree", |b| {
        b.iter(|| DecisionTree::fit_weighted(&image, &weights, Some(&subset), &params))
    });
    group.bench_function("image_784_features_1_tree_reference", |b| {
        b.iter(|| DecisionTree::fit_weighted_reference(&image, &weights, Some(&subset), &params))
    });
    // Algorithm-1-shaped: five retraining rounds with bumped trigger
    // weights on one shared dataset. With the presort cached at the
    // dataset level the per-round cost is pure tree growth; there is no
    // per-round sort.
    group.bench_function("algorithm1_5_rounds_image", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(3),
            |mut rng| {
                let mut weights = vec![1.0; image.len()];
                let params = image_params();
                let mut forests = Vec::with_capacity(5);
                for round in 0..5 {
                    for weight in weights.iter_mut().take(8) {
                        *weight *= 3.0; // the trigger-forcing weight bump
                    }
                    let _ = round;
                    forests.push(RandomForest::fit_weighted(&image, &weights, &params, &mut rng));
                }
                forests
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
