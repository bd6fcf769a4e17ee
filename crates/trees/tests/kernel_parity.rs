//! Kernel parity: every kernel, and through them every block width the
//! batch walk is compiled for, must be bit-identical to the single-row
//! walk, on trained forests over adversarial feature values (`NaN`,
//! `±inf`, signed zeros), on hand-built trees whose thresholds sit exactly
//! on or between adjacent `f32` values (where any lossy compare would
//! lie), and on the degenerate shapes: leaf-only trees and very deep
//! chains.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wdte_data::{Dataset, DenseMatrix, Label};
use wdte_trees::{CompiledForest, ForestParams, Kernel, RandomForest, ResolvedKernel, TreeParams};

/// Feature values drawn from a finite range plus the non-finite specials
/// traversal must handle deterministically.
fn feature_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -2.0f64..2.0,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
    ]
}

/// Thresholds sitting exactly on, between, or one step past adjacent
/// `f32` values — the region where an `f32` compare would disagree with
/// the exact `f64` one.
struct BoundaryThreshold;

impl Strategy for BoundaryThreshold {
    type Value = f64;

    fn generate(&self, rng: &mut proptest::TestRng) -> f64 {
        let raw = (-4.0f64..4.0).generate(rng);
        let lo = f64::from(raw as f32);
        let hi = f64::from((raw as f32).next_up());
        match (0u32..4).generate(rng) {
            0 => lo,                   // exactly representable in f32
            1 => lo + (hi - lo) * 0.5, // between two f32 neighbours
            2 => hi,
            _ => raw, // generic f64
        }
    }
}

fn dataset_from(rows: Vec<Vec<f64>>, label_bits: &[bool]) -> Dataset {
    let labels: Vec<Label> = label_bits[..rows.len()]
        .iter()
        .map(|&b| if b { Label::Positive } else { Label::Negative })
        .collect();
    Dataset::new("kernel-parity", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap()
}

/// A k-class dataset whose labels are arbitrary class picks reduced
/// modulo `num_classes`.
fn k_class_dataset_from(rows: Vec<Vec<f64>>, class_picks: &[u8], num_classes: usize) -> Dataset {
    let labels: Vec<Label> = class_picks[..rows.len()]
        .iter()
        .map(|&pick| Label::from_index(pick as usize % num_classes).unwrap())
        .collect();
    Dataset::with_classes(
        "kernel-parity-k",
        DenseMatrix::from_rows(&rows).unwrap(),
        labels,
        num_classes,
    )
    .unwrap()
}

/// A single-feature chain tree: each internal node sends `x <= t` to a
/// leaf and larger values onward, so one probe exercises every threshold
/// until its first `<=` hit. Built through `from_raw_parts` so thresholds
/// are taken verbatim (training would snap them to data midpoints). Leaf
/// labels cycle through all `num_classes` classes so wrong turns change
/// verdicts.
fn chain_forest(thresholds: &[f64], num_classes: usize) -> CompiledForest {
    let depth = thresholds.len();
    let nodes = 2 * depth + 1;
    let mut feature = vec![u32::MAX; nodes];
    let mut threshold = vec![0.0f64; nodes];
    let mut left = vec![0u32; nodes];
    let right: Vec<u32> = (0..nodes as u32).map(|n| n + 2).collect();
    for (step, &t) in thresholds.iter().enumerate() {
        let node = 2 * step;
        feature[node] = 0;
        threshold[node] = t;
        left[node] = node as u32 + 1;
        left[node + 1] = (step % num_classes) as u32;
    }
    left[nodes - 1] = 1 % num_classes as u32; // terminal leaf
    CompiledForest::from_raw_parts(
        feature,
        threshold,
        left,
        right,
        vec![0, nodes as u32],
        1,
        num_classes,
    )
    .expect("chain forest is structurally valid")
}

/// Asserts every kernel reproduces the single-row per-tree walk on
/// `rows`, through the batch and sharded entry points, and that the vote
/// entry points reconcile with the per-tree labels.
fn assert_kernels_match(compiled: &CompiledForest, rows: &[Vec<f64>]) {
    let matrix = DenseMatrix::from_rows(rows).unwrap();
    let reference: Vec<Vec<Label>> = rows.iter().map(|row| compiled.predict_all(row)).collect();
    for kernel in Kernel::ALL {
        let batch = compiled.predict_all_batch_with(&matrix, kernel);
        for (index, expected) in reference.iter().enumerate() {
            assert_eq!(
                batch.sample(index),
                expected.as_slice(),
                "kernel {kernel}, row {index}"
            );
        }
        // The sharded path must stitch bit-identically under every kernel;
        // a width-3 install forces real sharding even on one core.
        rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap().install(|| {
            for shard_rows in [1usize, 3, 1024] {
                assert_eq!(
                    &compiled.par_predict_all_batch(&matrix, shard_rows, kernel),
                    &batch,
                    "kernel {kernel}, shard_rows {shard_rows}"
                );
            }
        });
    }
    let votes = compiled.positive_vote_counts(&matrix);
    for (index, (&vote, expected)) in votes.iter().zip(&reference).enumerate() {
        let positive = expected.iter().filter(|&&l| l == Label::Positive).count();
        assert_eq!(vote as usize, positive, "row {index}");
    }
    // Per-class counts match the per-tree labels class by class, and the
    // class-1 column is the one-vs-rest positive count above.
    let classes = compiled.num_classes().max(2);
    let class_votes = compiled.class_vote_counts(&matrix);
    assert_eq!(class_votes.len(), rows.len() * classes);
    let mut majorities = Vec::new();
    for (index, (row_votes, expected)) in class_votes.chunks_exact(classes).zip(&reference).enumerate() {
        let mut counts = vec![0u32; classes];
        for label in expected {
            counts[label.index()] += 1;
        }
        assert_eq!(row_votes, counts.as_slice(), "row {index}");
        assert_eq!(row_votes[1], votes[index], "row {index}");
        // Plurality with ties to the lowest class index.
        let winner = (0..classes).rev().max_by_key(|&class| counts[class]).unwrap();
        majorities.push(Label::from_index(winner).unwrap());
    }
    assert_eq!(compiled.predict_batch(&matrix), majorities);
}

/// Every width the walk is compiled for is reached by some kernel, so the
/// parity tests above exercise each one deterministically rather than
/// whenever a timing probe happens to pick it.
#[test]
fn kernels_reach_every_compiled_width() {
    let compiled = chain_forest(&[0.5], 2);
    let mut reached: Vec<ResolvedKernel> = Kernel::ALL
        .iter()
        .filter_map(|&kernel| compiled.resolved_kernel(kernel))
        .collect();
    reached.dedup();
    assert_eq!(reached, ResolvedKernel::ALL);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernels_match_recursive_walk_on_trained_forests(
        rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 4), 6..48),
        probes in proptest::collection::vec(proptest::collection::vec(feature_value(), 4), 1..24),
        label_bits in proptest::collection::vec(any::<bool>(), 48),
        num_trees in 1usize..7,
        seed in 0u64..1000,
    ) {
        let dataset = dataset_from(rows, &label_bits);
        let params = ForestParams {
            num_trees,
            tree: TreeParams::with_max_depth(5),
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(seed));
        let compiled = CompiledForest::compile(&forest);

        // The recursive pointer walk is the ground truth the compiled walk
        // is pinned to elsewhere; check it directly here too.
        for probe in &probes {
            prop_assert_eq!(compiled.predict_all(probe), forest.predict_all(probe));
        }
        assert_kernels_match(&compiled, &probes);
    }

    /// The trained-forest parity property, over k-class label spaces: for
    /// every k in the sweep the kernels must agree with the recursive walk
    /// on adversarial feature values, and the per-class vote counts must
    /// reconcile with the per-tree labels.
    #[test]
    fn kernels_match_recursive_walk_on_k_class_forests(
        rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 4), 12..48),
        probes in proptest::collection::vec(proptest::collection::vec(feature_value(), 4), 1..24),
        class_picks in proptest::collection::vec(any::<u8>(), 48),
        k_pick in 0usize..4,
        num_trees in 1usize..7,
        seed in 0u64..1000,
    ) {
        let num_classes = [2usize, 3, 5, 10][k_pick];
        let dataset = k_class_dataset_from(rows, &class_picks, num_classes);
        let params = ForestParams {
            num_trees,
            tree: TreeParams::with_max_depth(5),
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(seed));
        let compiled = CompiledForest::compile(&forest);
        prop_assert_eq!(compiled.num_classes(), num_classes);

        for probe in &probes {
            prop_assert_eq!(compiled.predict_all(probe), forest.predict_all(probe));
            prop_assert_eq!(compiled.predict(probe), forest.predict(probe));
        }
        assert_kernels_match(&compiled, &probes);
    }

    #[test]
    fn kernels_agree_on_f32_boundary_thresholds(
        thresholds in proptest::collection::vec(BoundaryThreshold, 1..24),
        extra in proptest::collection::vec(feature_value(), 8),
        num_classes in prop_oneof![Just(2usize), Just(3), Just(5), Just(10)],
    ) {
        let compiled = chain_forest(&thresholds, num_classes);
        // Probe exactly on, one f32 ULP around, and away from every
        // threshold — the values whose `f32` compare can lie.
        let mut probes: Vec<Vec<f64>> = Vec::new();
        for &t in &thresholds {
            let lo = f64::from(t as f32);
            probes.push(vec![t]);
            probes.push(vec![lo]);
            probes.push(vec![f64::from((t as f32).next_up())]);
            probes.push(vec![f64::from((t as f32).next_down())]);
            probes.push(vec![lo + (f64::from((t as f32).next_up()) - lo) * 0.5]);
        }
        probes.extend(extra.into_iter().map(|v| vec![v]));
        assert_kernels_match(&compiled, &probes);
    }
}

#[test]
fn leaf_only_trees_agree_across_kernels() {
    let rows = vec![vec![0.0], vec![1.0]];
    let labels = vec![Label::Positive, Label::Positive];
    let dataset = Dataset::new("pure", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap();
    let forest = RandomForest::fit(
        &dataset,
        &ForestParams {
            num_trees: 3,
            tree: TreeParams::with_max_depth(0),
            ..ForestParams::default()
        },
        &mut SmallRng::seed_from_u64(7),
    );
    let compiled = CompiledForest::compile(&forest);
    let probes = vec![vec![0.25], vec![f64::NAN], vec![f64::INFINITY]];
    assert_kernels_match(&compiled, &probes);
}

#[test]
fn deep_chains_walk_identically_across_kernels() {
    // 2048 levels — deeper than any trained tree, stressing the lockstep
    // step count and the BFS renumbering.
    // Run the chain with every k of the sweep: the leaf labels cycle, so
    // for k > 2 a mis-stepped walk lands on a different class index.
    let thresholds: Vec<f64> = (0..2048).map(|i| f64::from(i) * 0.001 - 1.0).collect();
    for num_classes in [2usize, 3, 5, 10] {
        let compiled = chain_forest(&thresholds, num_classes);
        let probes: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![f64::from(i) * 0.061 - 1.2])
            .chain([vec![f64::NAN], vec![f64::INFINITY], vec![f64::NEG_INFINITY]])
            .collect();
        assert_kernels_match(&compiled, &probes);
    }
}

/// k = 2 bit-identity regression: a fixed-seed forest over a fixed
/// dataset must keep producing exactly these majority labels and positive
/// vote counts, under every kernel. The parity properties above tie all
/// kernels to the single-row walk for *one* build; pinning literal values
/// additionally catches any future change that shifts training or
/// inference for binary models, however internally consistent.
#[test]
fn fixed_seed_binary_outputs_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(0xD0C5);
    let rows: Vec<Vec<f64>> =
        (0..64).map(|_| (0..4).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
    let label_bits: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
    let dataset = dataset_from(rows, &label_bits);
    let params = ForestParams {
        num_trees: 9,
        tree: TreeParams::with_max_depth(6),
        ..ForestParams::default()
    };
    let forest = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(41));
    let compiled = CompiledForest::compile(&forest);
    assert_eq!(compiled.num_classes(), 2);

    let probes: Vec<Vec<f64>> = (0..12)
        .map(|i| (0..4).map(|j| f64::from(i * 4 + j) * 0.17 - 3.9).collect())
        .collect();
    let matrix = DenseMatrix::from_rows(&probes).unwrap();

    let expected_labels: Vec<usize> = vec![1, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0];
    let expected_votes: Vec<u32> = vec![8, 8, 8, 4, 7, 2, 0, 9, 4, 4, 4, 4];
    let labels: Vec<usize> = compiled.predict_batch(&matrix).iter().map(|label| label.index()).collect();
    assert_eq!(labels, expected_labels);
    assert_eq!(compiled.positive_vote_counts(&matrix), expected_votes);
    for kernel in Kernel::ALL {
        let batch = compiled.predict_all_batch_with(&matrix, kernel);
        let votes: Vec<u32> = (0..probes.len()).map(|i| batch.positive_votes(i) as u32).collect();
        assert_eq!(votes, expected_votes, "kernel {kernel}");
        let labels: Vec<usize> = (0..probes.len()).map(|i| batch.majority(i).index()).collect();
        assert_eq!(labels, expected_labels, "kernel {kernel}");
    }
}
