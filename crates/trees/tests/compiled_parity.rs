//! Property tests pinning the compiled inference path to the recursive
//! reference: for arbitrary datasets — including `NaN` and `±inf` feature
//! values — every compiled prediction must be bit-identical to the
//! pointer-tree walk, and a binary round trip of the pointer model must
//! compile to the same forest. Hand-built forests add the shapes training
//! rarely yields: a lone leaf as the first tree, forests of only leaves
//! and mixed tree depths, at batch sizes around the block width.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_data::{ClassCounts, Dataset, DenseMatrix, Label};
use wdte_trees::{CompiledForest, DecisionTree, ForestParams, Node, RandomForest, TreeParams};

/// Feature values drawn from a finite range plus the non-finite specials
/// the split search and traversal must handle deterministically.
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

fn dataset_from(rows: Vec<Vec<f64>>, label_bits: &[bool]) -> Dataset {
    let labels: Vec<Label> = label_bits[..rows.len()]
        .iter()
        .map(|&b| if b { Label::Positive } else { Label::Negative })
        .collect();
    Dataset::new("parity", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap()
}

/// A k-class dataset with labels chosen by arbitrary picks reduced
/// modulo `num_classes`.
fn k_class_dataset_from(rows: Vec<Vec<f64>>, class_picks: &[u8], num_classes: usize) -> Dataset {
    let labels: Vec<Label> = class_picks[..rows.len()]
        .iter()
        .map(|&pick| Label::from_index(pick as usize % num_classes).unwrap())
        .collect();
    Dataset::with_classes(
        "parity-k",
        DenseMatrix::from_rows(&rows).unwrap(),
        labels,
        num_classes,
    )
    .unwrap()
}

/// Pointer forests over three features whose trees grow their leftmost
/// path to a per-tree depth cap (0 makes a lone leaf) and stop other
/// branches at random. Half start with a lone leaf and one in six hold
/// only leaves; thresholds include both signed zeros.
struct HandBuiltForest;

impl HandBuiltForest {
    fn grow(
        rng: &mut proptest::TestRng,
        depth_left: u32,
        leftmost: bool,
        k: usize,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let slot = nodes.len();
        let label = Label::from_index((0..k).generate(rng)).unwrap();
        nodes.push(Node::Leaf {
            label,
            counts: ClassCounts::new(),
        });
        if depth_left == 0 || (!leftmost && (0u32..3).generate(rng) == 0) {
            return slot;
        }
        let feature = (0usize..3).generate(rng);
        let threshold = match (0u32..4).generate(rng) {
            0 => 0.0,
            1 => -0.0,
            _ => (-1.5f64..1.5).generate(rng),
        };
        let left = Self::grow(rng, depth_left - 1, leftmost, k, nodes);
        let right = Self::grow(rng, depth_left - 1, false, k, nodes);
        nodes[slot] = Node::Internal {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }
}

impl Strategy for HandBuiltForest {
    type Value = RandomForest;

    fn generate(&self, rng: &mut proptest::TestRng) -> RandomForest {
        let k = [2usize, 3, 5][(0usize..3).generate(rng)];
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
                Self::grow(rng, cap, true, k, &mut nodes);
                DecisionTree::from_nodes(nodes, 3)
            })
            .collect();
        RandomForest::from_trees_with_classes(trees, k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hand_built_shapes_match_recursive_predictions_at_block_edges(
        forest in HandBuiltForest,
        rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 3), 17),
    ) {
        let compiled = CompiledForest::compile(&forest);
        for size in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let matrix = DenseMatrix::from_vec(size, 3, rows[..size].concat()).unwrap();
            let batch = compiled.predict_all_batch(&matrix);
            prop_assert_eq!(batch.num_samples(), size);
            let majorities = compiled.predict_batch(&matrix);
            for (index, row) in rows[..size].iter().enumerate() {
                prop_assert_eq!(compiled.predict_all(row), forest.predict_all(row));
                prop_assert_eq!(batch.sample(index), forest.predict_all(row).as_slice());
                prop_assert_eq!(majorities[index], forest.predict(row));
            }
            for shard_rows in [1usize, 3, 1024] {
                prop_assert_eq!(&compiled.par_predict_all_batch(&matrix, shard_rows), &batch);
            }
        }
    }

    #[test]
    fn compiled_batch_is_bit_identical_to_recursive_predictions(
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

        // Training-set parity, through every batch entry point.
        prop_assert_eq!(compiled.predict_dataset(&dataset), forest.predict_dataset(&dataset));
        let batch = compiled.predict_all_batch(dataset.features());
        for (index, (row, _)) in dataset.iter().enumerate() {
            prop_assert_eq!(batch.sample(index), forest.predict_all(row).as_slice());
        }
        // The thread-sharded path must stitch shards back bit-identically,
        // for shard sizes smaller and larger than the batch.
        for shard_rows in [1usize, 3, 1024] {
            prop_assert_eq!(
                &compiled.par_predict_all_batch(dataset.features(), shard_rows),
                &batch
            );
        }

        // Probe-set parity on instances the forest never saw, including
        // rows that are entirely NaN/±inf.
        let probe_matrix = DenseMatrix::from_rows(&probes).unwrap();
        let probe_batch = compiled.predict_all_batch(&probe_matrix);
        for (index, probe) in probes.iter().enumerate() {
            prop_assert_eq!(probe_batch.sample(index), forest.predict_all(probe).as_slice());
            prop_assert_eq!(compiled.predict(probe), forest.predict(probe));
            prop_assert_eq!(compiled.predict_all(probe), forest.predict_all(probe));
        }

        // Vote counts agree with the per-tree labels they summarize.
        let votes = compiled.positive_vote_counts(&probe_matrix);
        for (index, &vote) in votes.iter().enumerate() {
            prop_assert_eq!(vote as usize, probe_batch.positive_votes(index));
        }
    }

    /// The batch-parity property over k-class label spaces: compiled
    /// predictions, plurality votes and per-class counts must all agree
    /// with the recursive reference for every k of the sweep.
    #[test]
    fn compiled_batch_matches_recursive_predictions_for_k_classes(
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
        prop_assert_eq!(forest.num_classes(), num_classes);
        let compiled = CompiledForest::compile(&forest);
        prop_assert_eq!(compiled.num_classes(), num_classes);

        prop_assert_eq!(compiled.predict_dataset(&dataset), forest.predict_dataset(&dataset));
        let probe_matrix = DenseMatrix::from_rows(&probes).unwrap();
        let probe_batch = compiled.predict_all_batch(&probe_matrix);
        prop_assert_eq!(probe_batch.num_classes(), num_classes);
        for (index, probe) in probes.iter().enumerate() {
            prop_assert_eq!(probe_batch.sample(index), forest.predict_all(probe).as_slice());
            prop_assert_eq!(compiled.predict(probe), forest.predict(probe));
            // The plurality of the batch agrees with the pointer walk's
            // plurality, tie-broken identically (lowest class index).
            prop_assert_eq!(probe_batch.majority(index), forest.predict(probe));
            // Per-class counts reconcile with the forest's own tally.
            prop_assert_eq!(probe_batch.class_votes(index), forest.vote_counts(probe));
        }
    }

    #[test]
    fn binary_round_trips_preserve_predictions_exactly(
        rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 3), 6..32),
        probes in proptest::collection::vec(proptest::collection::vec(feature_value(), 3), 1..16),
        label_bits in proptest::collection::vec(any::<bool>(), 32),
        seed in 0u64..1000,
    ) {
        let dataset = dataset_from(rows, &label_bits);
        let params = ForestParams {
            num_trees: 3,
            tree: TreeParams::with_max_depth(6),
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(seed));
        let compiled = CompiledForest::compile(&forest);

        let restored_forest: RandomForest =
            serde::binary::from_slice(&serde::binary::to_vec(&forest)).unwrap();
        prop_assert_eq!(&restored_forest, &forest);
        for probe in &probes {
            prop_assert_eq!(restored_forest.predict_all(probe), forest.predict_all(probe));
        }

        // Compiling the restored pointer forest reproduces the compiled
        // forest bit for bit: thresholds survived the byte round trip.
        let restored_compiled = CompiledForest::compile(&restored_forest);
        prop_assert_eq!(&restored_compiled, &compiled);
        let probe_matrix = DenseMatrix::from_rows(&probes).unwrap();
        prop_assert_eq!(
            restored_compiled.predict_batch(&probe_matrix),
            compiled.predict_batch(&probe_matrix)
        );
    }
}
