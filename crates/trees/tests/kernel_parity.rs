//! Kernel parity: every kernel, and through them every block width the
//! batch walk is compiled for, must be bit-identical to the single-row
//! walk, on trained forests over adversarial feature values (`NaN`,
//! `±inf`, signed zeros), on hand-built trees whose thresholds sit exactly
//! on or between adjacent `f32` values (where any lossy compare would
//! lie), and on the degenerate shapes: leaf-only trees and forests, a
//! lone leaf as the first tree (whose self loop wraps below node 0),
//! mixed tree depths, batches on either side of the block width, and
//! very deep chains.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wdte_data::{ClassCounts, Dataset, DenseMatrix, Label};
use wdte_trees::{
    CompiledForest, DecisionTree, ForestParams, Kernel, Node, RandomForest, ResolvedKernel, TreeParams,
};

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
/// until its first `<=` hit. Built node by node so thresholds are taken
/// verbatim (training would snap them to data midpoints). Leaf labels
/// cycle through all `num_classes` classes so wrong turns change
/// verdicts.
fn chain_forest(thresholds: &[f64], num_classes: usize) -> CompiledForest {
    let mut nodes = Vec::with_capacity(2 * thresholds.len() + 1);
    for (step, &threshold) in thresholds.iter().enumerate() {
        let node = nodes.len();
        nodes.push(Node::Internal {
            feature: 0,
            threshold,
            left: node + 1,
            right: node + 2,
        });
        nodes.push(leaf(step % num_classes));
    }
    nodes.push(leaf(1 % num_classes)); // terminal leaf
    compile_trees(vec![DecisionTree::from_nodes(nodes, 1)], num_classes)
}

/// A leaf predicting class `class`.
fn leaf(class: usize) -> Node {
    Node::Leaf {
        label: Label::from_index(class).unwrap(),
        counts: ClassCounts::new(),
    }
}

/// Compiles hand-built trees as a `num_classes`-class forest.
fn compile_trees(trees: Vec<DecisionTree>, num_classes: usize) -> CompiledForest {
    CompiledForest::compile(&RandomForest::from_trees_with_classes(trees, num_classes))
}

/// Asserts every kernel reproduces the single-row per-tree walk on
/// `rows`, through the batch and sharded entry points, and that the vote
/// entry points reconcile with the per-tree labels.
fn assert_kernels_match(compiled: &CompiledForest, rows: &[Vec<f64>]) {
    // An empty batch still has the model's width.
    let cols = rows.first().map_or(compiled.num_features(), Vec::len);
    let matrix = DenseMatrix::from_vec(rows.len(), cols, rows.concat()).unwrap();
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
    }
    // The sharded path must stitch bit-identically; a width-3 install
    // forces real sharding even on one core.
    let batch = compiled.predict_all_batch(&matrix);
    rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap().install(|| {
        for shard_rows in [1usize, 3, 1024] {
            assert_eq!(
                &compiled.par_predict_all_batch(&matrix, shard_rows),
                &batch,
                "shard_rows {shard_rows}"
            );
        }
    });
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

/// Batch sizes on both sides of one and two blocks, plus the empty batch.
const BLOCK_EDGE_SIZES: [usize; 8] = [0, 1, 7, 8, 9, 15, 16, 17];

/// Hand-built forests of mixed shapes over three features, each tree an
/// arena in preorder: every tree grows its leftmost path to its own depth
/// cap (0 makes a lone leaf) and stops other branches at random. Half the
/// forests start with a lone leaf, so that leaf's BFS self loop wraps
/// below node 0, and one in six holds only leaves. Thresholds include
/// both signed zeros.
struct MixedShapes;

/// Appends a subtree to `nodes` in preorder and returns its root's index.
fn grow(
    rng: &mut proptest::TestRng,
    nodes: &mut Vec<Node>,
    depth_left: u32,
    leftmost: bool,
    num_classes: u32,
) -> usize {
    let slot = nodes.len();
    nodes.push(leaf((0..num_classes).generate(rng) as usize));
    if depth_left == 0 || (!leftmost && (0u32..3).generate(rng) == 0) {
        return slot;
    }
    let feature = (0u32..3).generate(rng) as usize;
    let threshold = match (0u32..4).generate(rng) {
        0 => 0.0,
        1 => -0.0,
        _ => (-1.5f64..1.5).generate(rng),
    };
    let left = grow(rng, nodes, depth_left - 1, leftmost, num_classes);
    let right = grow(rng, nodes, depth_left - 1, false, num_classes);
    nodes[slot] = Node::Internal {
        feature,
        threshold,
        left,
        right,
    };
    slot
}

impl Strategy for MixedShapes {
    type Value = CompiledForest;

    fn generate(&self, rng: &mut proptest::TestRng) -> CompiledForest {
        let num_classes = [2u32, 3, 5][(0usize..3).generate(rng)];
        let leaves_only = (0u32..6).generate(rng) == 0;
        let lone_leaf_first = (0u32..2).generate(rng) == 0;
        let trees = (0..(1usize..6).generate(rng))
            .map(|tree| {
                let cap = if leaves_only || (tree == 0 && lone_leaf_first) {
                    0
                } else {
                    (0u32..7).generate(rng)
                };
                let mut nodes = Vec::new();
                grow(rng, &mut nodes, cap, true, num_classes);
                DecisionTree::from_nodes(nodes, 3)
            })
            .collect();
        compile_trees(trees, num_classes as usize)
    }
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
    fn kernels_match_on_mixed_shapes_at_block_edges(
        compiled in MixedShapes,
        rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 3), 17),
    ) {
        for size in BLOCK_EDGE_SIZES {
            assert_kernels_match(&compiled, &rows[..size]);
        }
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
    let leaves = CompiledForest::compile(&forest);
    // Tree 0 is a lone leaf at BFS index 0, so its self loop must wrap
    // below zero; tree 1 is a depth-2 tree whose children sit on adjacent
    // slots; tree 2 is another lone leaf.
    let internal = |threshold: f64, left: usize, right: usize| Node::Internal {
        feature: 0,
        threshold,
        left,
        right,
    };
    let mixed = compile_trees(
        vec![
            DecisionTree::from_nodes(vec![leaf(2)], 1),
            DecisionTree::from_nodes(
                vec![
                    internal(0.0, 1, 4),
                    internal(-0.5, 2, 3),
                    leaf(0),
                    leaf(1),
                    leaf(2),
                ],
                1,
            ),
            DecisionTree::from_nodes(vec![leaf(1)], 1),
        ],
        3,
    );
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -0.5, 0.25];
    let probes: Vec<Vec<f64>> = (0..17).map(|i| vec![specials[i % specials.len()]]).collect();
    for size in BLOCK_EDGE_SIZES {
        assert_kernels_match(&leaves, &probes[..size]);
        assert_kernels_match(&mixed, &probes[..size]);
    }
    // -0.0 <= 0.0 and -0.0 > -0.5: left, then right to the class-1 leaf.
    let expected = vec![Label::from_index(2).unwrap(), Label::Positive, Label::Positive];
    assert_eq!(mixed.predict_all(&[-0.0]), expected);
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
