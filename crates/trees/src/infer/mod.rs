//! Compiled batch inference: pointer-free, cache-friendly forest evaluation.
//!
//! Training produces [`crate::DecisionTree`]s stored as arenas of `enum`
//! nodes — convenient to grow, but slow to evaluate at scale: every node
//! visit pattern-matches a 40-byte enum scattered across a `Vec`, and every
//! prediction walks the trees one sample at a time. Verification, the
//! detection scan and the suppression/forgery attacks all replay entire
//! trigger and test sets through the model, so deployment-side throughput
//! is dominated by these walks.
//!
//! [`CompiledForest`] flattens a trained [`RandomForest`] into
//! structure-of-arrays node storage:
//!
//! ```text
//!             ┌────────── one entry per node, all trees concatenated ─────────┐
//! feature:    [ f0 f1 LEAF f3 LEAF LEAF | f0 LEAF f2 LEAF LEAF | ... ]  u32
//! threshold:  [ t0 t1  .   t3  .    .   | t0  .   t2  .    .   | ... ]  f64
//! left:       [ l0 l1 lbl  l3 lbl  lbl  | l0 lbl  l2 lbl  lbl  | ... ]  u32
//! right:      [ r0 r1  0   r3  0    0   | r0  0   r2  0    0   | ... ]  u32
//!             └── tree 0 ───────────────┴── tree 1 ────────────┴─ ...
//! tree_starts: [0, 6, 11, ...]          (root index per tree + total)
//! ```
//!
//! A leaf is marked by `feature == LEAF_MARKER` and stores its predicted
//! label's class index in `left`. Trees are laid out in depth-first
//! preorder with the left subtree adjacent to its parent, so the common
//! `x[f] <= t` branch continues on the next node. These arrays drive the
//! single-row walk; batches run the blocked lockstep walk of [`kernel`]
//! over a derived per-level layout. Verification batches take one path,
//! [`CompiledForest::par_predict_all_batch`] in [`BATCH_SHARD_ROWS`]-row
//! shards, whoever holds the forest: a caller of the one-shot
//! verification and the dispute service alike.
//!
//! A compiled forest is never persisted: it is derived from a
//! [`RandomForest`] with [`CompiledForest::compile`] wherever one is
//! loaded, so the pointer-tree model is the one on-disk artefact.
//!
//! Traversal semantics are bit-identical to [`DecisionTree::predict`]:
//! the test is `x[feature] <= threshold`, so `NaN` features compare false
//! and deterministically descend into the right child.

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node};
use wdte_data::{Dataset, DenseMatrix, Label};

pub mod kernel;

use kernel::LevelLayout;
pub use kernel::{Kernel, ResolvedKernel, DEFAULT_BLOCK_WIDTH};

/// Sentinel in the `feature` array marking a leaf node.
pub const LEAF_MARKER: u32 = u32::MAX;

/// Number of batch rows each worker shard of
/// [`CompiledForest::par_predict_all_batch`] handles when a verification
/// batch is answered through the forest's oracle. Small enough to spread
/// one large claim across every core, large enough that the per-shard
/// stitch is negligible next to the tree walks.
pub const BATCH_SHARD_ROWS: usize = 256;

/// A trained forest flattened into contiguous structure-of-arrays node
/// storage for fast batch inference (see the module documentation for the
/// exact layout).
///
/// Compiled forests are immutable snapshots: compile once after training
/// (or after loading a model from disk) and reuse for every prediction,
/// verification and attack-scoring pass. [`CompiledForest::compile`] is
/// the only constructor.
#[derive(Debug, Clone)]
pub struct CompiledForest {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    tree_starts: Vec<u32>,
    num_features: usize,
    /// Number of classes `k` of the label space; every leaf class index
    /// stays below it.
    num_classes: usize,
    /// Maximum depth of each tree; the number of lockstep steps the batch
    /// walk performs.
    depths: Vec<u32>,
    /// Per-level breadth-first node layout driving the batch walk (see
    /// [`kernel`]).
    level: LevelLayout,
}

/// Equality compares only the canonical SoA arrays; the derived traversal
/// tables are a pure function of them (and contain `NaN` leaf sentinels
/// that would defeat a field-wise float comparison).
impl PartialEq for CompiledForest {
    fn eq(&self, other: &Self) -> bool {
        self.feature == other.feature
            && self.threshold == other.threshold
            && self.left == other.left
            && self.right == other.right
            && self.tree_starts == other.tree_starts
            && self.num_features == other.num_features
            && self.num_classes == other.num_classes
    }
}

/// Maximum depth of every tree, computed from the SoA arrays.
fn build_depths(feature: &[u32], left: &[u32], right: &[u32], tree_starts: &[u32]) -> Vec<u32> {
    (0..tree_starts.len().saturating_sub(1))
        .map(|tree| {
            let lo = tree_starts[tree] as usize;
            let mut depth = 0u32;
            let mut stack = vec![(lo, 0u32)];
            while let Some((node, node_depth)) = stack.pop() {
                if feature[node] == LEAF_MARKER {
                    depth = depth.max(node_depth);
                } else {
                    stack.push((left[node] as usize, node_depth + 1));
                    stack.push((right[node] as usize, node_depth + 1));
                }
            }
            depth
        })
        .collect()
}

/// Index of the class with the most votes; ties go to the lowest class
/// index, which for binary labels reproduces the paper's tie-to-negative
/// majority rule (`positive` wins iff `2 * positive > m`).
fn argmax_class<T: PartialOrd>(counts: &[T]) -> usize {
    let mut winner = 0usize;
    for (class, count) in counts.iter().enumerate().skip(1) {
        if *count > counts[winner] {
            winner = class;
        }
    }
    winner
}

/// Per-tree predictions for a batch of samples, stored sample-major (the
/// votes of one sample are contiguous).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPredictions {
    labels: Vec<Label>,
    num_trees: usize,
    num_classes: usize,
}

impl BatchPredictions {
    /// Number of samples in the batch.
    pub fn num_samples(&self) -> usize {
        self.labels.len().checked_div(self.num_trees).unwrap_or(0)
    }

    /// Number of trees that voted.
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }

    /// Number of classes `k` of the forest that produced these votes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-tree votes of one sample, in tree order.
    ///
    /// # Panics
    /// Panics if `sample >= num_samples()`.
    pub fn sample(&self, sample: usize) -> &[Label] {
        &self.labels[sample * self.num_trees..(sample + 1) * self.num_trees]
    }

    /// Number of trees voting [`Label::Positive`] for one sample (the
    /// one-vs-rest view of class 1 for `k > 2`).
    pub fn positive_votes(&self, sample: usize) -> usize {
        self.sample(sample).iter().filter(|&&l| l == Label::Positive).count()
    }

    /// Number of trees voting each class for one sample, indexed by class.
    pub fn class_votes(&self, sample: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes.max(2)];
        for label in self.sample(sample) {
            counts[label.index()] += 1;
        }
        counts
    }

    /// Plurality vote of one sample (ties go to the lowest class index,
    /// which for binary labels is the negative class, matching
    /// [`RandomForest::predict`]).
    pub fn majority(&self, sample: usize) -> Label {
        Label::from_index(argmax_class(&self.class_votes(sample))).expect("class index fits u16")
    }

    /// Iterator over per-sample vote slices.
    pub fn iter(&self) -> impl Iterator<Item = &[Label]> {
        self.labels.chunks_exact(self.num_trees.max(1)).take(self.num_samples())
    }
}

impl CompiledForest {
    /// Flattens a trained forest into the compiled representation.
    pub fn compile(forest: &RandomForest) -> Self {
        let total_nodes: usize = forest.trees().iter().map(|t| t.nodes().len()).sum();
        let mut compiled = CompiledForest {
            feature: Vec::with_capacity(total_nodes),
            threshold: Vec::with_capacity(total_nodes),
            left: Vec::with_capacity(total_nodes),
            right: Vec::with_capacity(total_nodes),
            tree_starts: Vec::with_capacity(forest.num_trees() + 1),
            num_features: forest.num_features(),
            num_classes: forest.num_classes(),
            depths: Vec::new(),
            level: LevelLayout::default(),
        };
        for tree in forest.trees() {
            compiled.tree_starts.push(compiled.feature.len() as u32);
            compiled.emit(tree, tree.root());
        }
        compiled.tree_starts.push(compiled.feature.len() as u32);
        compiled.depths = build_depths(
            &compiled.feature,
            &compiled.left,
            &compiled.right,
            &compiled.tree_starts,
        );
        compiled.level = LevelLayout::build(
            &compiled.feature,
            &compiled.threshold,
            &compiled.left,
            &compiled.right,
            &compiled.tree_starts,
        );
        compiled
    }

    /// Emits the subtree rooted at arena index `node` in preorder (left
    /// subtree adjacent to its parent) and returns the compiled index.
    fn emit(&mut self, tree: &DecisionTree, node: usize) -> u32 {
        let slot = self.feature.len();
        self.feature.push(LEAF_MARKER);
        self.threshold.push(0.0);
        self.left.push(0);
        self.right.push(0);
        match &tree.nodes()[node] {
            Node::Leaf { label, .. } => {
                self.left[slot] = label.index() as u32;
            }
            Node::Internal {
                feature,
                threshold,
                left,
                right,
            } => {
                let left_slot = self.emit(tree, *left);
                let right_slot = self.emit(tree, *right);
                self.feature[slot] = *feature as u32;
                self.threshold[slot] = *threshold;
                self.left[slot] = left_slot;
                self.right[slot] = right_slot;
            }
        }
        slot as u32
    }

    /// Number of trees `m` in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.tree_starts.len().saturating_sub(1)
    }

    /// Number of features of the training space.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes `k` of the label space.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total number of nodes across all trees.
    pub fn total_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Walks one tree for one instance (the protocol-scale single-query
    /// path; batches go through the blocked walk instead).
    #[inline]
    fn walk(&self, root: usize, instance: &[f64]) -> Label {
        let mut node = root;
        loop {
            let feature = self.feature[node];
            if feature == LEAF_MARKER {
                return Label::from_index(self.left[node] as usize)
                    .expect("leaf class indices come from labels");
            }
            node = if instance[feature as usize] <= self.threshold[node] {
                self.left[node] as usize
            } else {
                self.right[node] as usize
            };
        }
    }

    /// Per-tree predictions for one instance, in tree order; equivalent to
    /// [`RandomForest::predict_all`].
    ///
    /// # Panics
    /// Panics if `instance.len() < num_features()`.
    pub fn predict_all(&self, instance: &[f64]) -> Vec<Label> {
        (0..self.num_trees())
            .map(|t| self.walk(self.tree_starts[t] as usize, instance))
            .collect()
    }

    /// Plurality-vote prediction for one instance (ties go to the lowest
    /// class index); equivalent to [`RandomForest::predict`].
    pub fn predict(&self, instance: &[f64]) -> Label {
        let mut counts = vec![0u32; self.num_classes.max(2)];
        for tree in 0..self.num_trees() {
            counts[self.walk(self.tree_starts[tree] as usize, instance).index()] += 1;
        }
        Label::from_index(argmax_class(&counts)).expect("class index fits u16")
    }

    /// Panics unless a batch of `cols` columns covers every model feature.
    fn check_cols(&self, cols: usize) {
        assert!(
            cols >= self.num_features,
            "batch has {cols} features but the model needs {}",
            self.num_features
        );
    }

    /// Plurality-vote predictions for every row of a feature matrix. This
    /// is the deployment hot path: blocks of samples walk every tree in
    /// lockstep, so a tree's nodes stay cached across the whole block.
    ///
    /// # Panics
    /// Panics if `features.cols() < num_features()`.
    pub fn predict_batch(&self, features: &DenseMatrix) -> Vec<Label> {
        let classes = self.num_classes.max(2);
        self.class_vote_counts(features)
            .chunks_exact(classes)
            .map(|row| Label::from_index(argmax_class(row)).expect("class index fits u16"))
            .collect()
    }

    /// Per-class vote counts, sample-major (`samples × k`, one `u32` per
    /// class per row).
    ///
    /// # Panics
    /// Panics if `features.cols() < num_features()`.
    pub fn class_vote_counts(&self, features: &DenseMatrix) -> Vec<u32> {
        self.check_cols(features.cols());
        let classes = self.num_classes.max(2);
        let mut votes = vec![0u32; features.rows() * classes];
        // Leaf labels are class indices, so each vote is one increment of
        // that class's slot.
        Kernel::Blocked.resolve().run(
            self,
            features.as_slice(),
            features.cols(),
            features.rows(),
            |sample, _, label| votes[sample * classes + label as usize] += 1,
        );
        votes
    }

    /// Count of trees voting positive (class 1), per row; the one-vs-rest
    /// view of class 1 for `k > 2`.
    ///
    /// # Panics
    /// Panics if `features.cols() < num_features()`.
    pub fn positive_vote_counts(&self, features: &DenseMatrix) -> Vec<u32> {
        let classes = self.num_classes.max(2);
        self.class_vote_counts(features)
            .chunks_exact(classes)
            .map(|row| row[1])
            .collect()
    }

    /// The concrete walk a kernel runs as, for diagnostics. Always `Some`:
    /// every kernel resolves without a probe.
    pub fn resolved_kernel(&self, kernel: Kernel) -> Option<ResolvedKernel> {
        Some(kernel.resolve())
    }

    /// Fraction of trees voting positive, per row; the calibrated score
    /// used by the suppression distinguisher and ROC analysis.
    pub fn positive_vote_fractions(&self, features: &DenseMatrix) -> Vec<f64> {
        let trees = self.num_trees().max(1) as f64;
        self.positive_vote_counts(features)
            .into_iter()
            .map(|v| f64::from(v) / trees)
            .collect()
    }

    /// Per-tree predictions for every row — the batch form of
    /// [`CompiledForest::predict_all`], which black-box verification
    /// consumes. Runs [`Kernel::Blocked`].
    ///
    /// # Panics
    /// Panics if `features.cols() < num_features()`.
    pub fn predict_all_batch(&self, features: &DenseMatrix) -> BatchPredictions {
        self.predict_all_batch_with(features, Kernel::Blocked)
    }

    /// [`Self::predict_all_batch`] through an explicitly selected kernel;
    /// every kernel returns bit-identical predictions.
    ///
    /// # Panics
    /// Panics if `features.cols() < num_features()`.
    pub fn predict_all_batch_with(&self, features: &DenseMatrix, kernel: Kernel) -> BatchPredictions {
        self.check_cols(features.cols());
        self.predict_all_rows(features.as_slice(), features.cols(), features.rows(), kernel)
    }

    /// [`Self::predict_all_batch_with`] over a raw row-major slice; lets
    /// the sharded path predict sub-ranges of a matrix without copying
    /// rows.
    fn predict_all_rows(
        &self,
        values: &[f64],
        cols: usize,
        samples: usize,
        kernel: Kernel,
    ) -> BatchPredictions {
        let num_trees = self.num_trees();
        let mut labels = vec![Label::Negative; samples * num_trees];
        kernel.resolve().run(self, values, cols, samples, |sample, tree, label| {
            labels[sample * num_trees + tree] =
                Label::from_index(label as usize).expect("leaf class indices come from labels");
        });
        BatchPredictions {
            labels,
            num_trees,
            num_classes: self.num_classes,
        }
    }

    /// [`Self::predict_all_batch`] sharded across the work-stealing pool:
    /// rows are split into contiguous shards of at most `shard_rows`, each
    /// shard is predicted independently, and the per-sample votes are
    /// stitched back in row order — bit-identical to the single-threaded
    /// call for every shard size and worker count. This is the
    /// verification hot path ([`BATCH_SHARD_ROWS`]-row shards), where one
    /// batch can carry thousands of disguised queries; called from inside
    /// an outer per-dispute fan-out, the shards become nested pool jobs
    /// that idle workers steal, rather than serializing on the dispute's
    /// thread. Batches that would fit in a single shard — and any batch on
    /// a single-worker pool, where sharding could only add stitch overhead
    /// — take the serial path directly.
    ///
    /// # Panics
    /// Panics if `features.cols() < num_features()`.
    pub fn par_predict_all_batch(&self, features: &DenseMatrix, shard_rows: usize) -> BatchPredictions {
        use rayon::prelude::*;
        let shard_rows = shard_rows.max(1);
        let samples = features.rows();
        let cols = features.cols();
        if samples <= shard_rows || rayon::current_num_threads() <= 1 {
            return self.predict_all_batch(features);
        }
        self.check_cols(cols);
        let values = features.as_slice();
        let starts: Vec<usize> = (0..samples).step_by(shard_rows).collect();
        let shards: Vec<BatchPredictions> = starts
            .into_par_iter()
            .map(|start| {
                let end = (start + shard_rows).min(samples);
                // Rows are contiguous in row-major storage, so a shard is a
                // borrowed subslice — no copy.
                self.predict_all_rows(
                    &values[start * cols..end * cols],
                    cols,
                    end - start,
                    Kernel::Blocked,
                )
            })
            .collect();
        let num_trees = self.num_trees();
        let mut labels = Vec::with_capacity(samples * num_trees);
        for shard in shards {
            labels.extend(shard.labels);
        }
        BatchPredictions {
            labels,
            num_trees,
            num_classes: self.num_classes,
        }
    }

    /// Plurality-vote predictions for every instance of a dataset.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Vec<Label> {
        self.predict_batch(dataset.features())
    }

    /// Plurality-vote accuracy over a dataset.
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let predictions = self.predict_dataset(dataset);
        wdte_data::accuracy(dataset.labels(), &predictions)
    }
}

impl From<&RandomForest> for CompiledForest {
    fn from(forest: &RandomForest) -> Self {
        CompiledForest::compile(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ForestParams, TreeParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::SyntheticSpec;

    fn trained() -> (Dataset, RandomForest) {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.5)
            .generate(&mut SmallRng::seed_from_u64(123));
        let params = ForestParams {
            num_trees: 9,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut SmallRng::seed_from_u64(124));
        (dataset, forest)
    }

    #[test]
    fn compiled_predictions_match_recursive_predictions() {
        let (dataset, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        assert_eq!(compiled.num_trees(), forest.num_trees());
        assert_eq!(compiled.num_features(), forest.num_features());
        let batch = compiled.predict_all_batch(dataset.features());
        for (index, (row, _)) in dataset.iter().enumerate() {
            assert_eq!(compiled.predict_all(row), forest.predict_all(row));
            assert_eq!(compiled.predict(row), forest.predict(row));
            assert_eq!(batch.sample(index), forest.predict_all(row).as_slice());
            assert_eq!(batch.majority(index), forest.predict(row));
        }
        assert_eq!(
            compiled.predict_dataset(&dataset),
            forest.predict_dataset(&dataset)
        );
        assert!((compiled.accuracy(&dataset) - forest.accuracy(&dataset)).abs() < 1e-15);
    }

    #[test]
    fn vote_fractions_match_the_recursive_path() {
        let (dataset, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        let fractions = compiled.positive_vote_fractions(dataset.features());
        for (index, (row, _)) in dataset.iter().enumerate() {
            assert!((fractions[index] - forest.positive_vote_fraction(row)).abs() < 1e-15);
        }
    }

    #[test]
    fn total_nodes_match_the_pointer_trees() {
        let (_, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        assert_eq!(
            compiled.total_nodes(),
            forest.trees().iter().map(|t| t.nodes().len()).sum::<usize>()
        );
    }

    #[test]
    fn nan_features_descend_right_like_the_recursive_walk() {
        let (dataset, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        let mut row = dataset.instance(0).to_vec();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for feature in 0..row.len() {
                let original = row[feature];
                row[feature] = poison;
                assert_eq!(compiled.predict_all(&row), forest.predict_all(&row));
                row[feature] = original;
            }
        }
    }

    #[test]
    fn batch_blocks_cover_sizes_around_the_block_boundary() {
        let (dataset, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        for width in ResolvedKernel::ALL.map(|resolved| resolved.block_width()) {
            for size in [1, width - 1, width, width + 1, 2 * width + 1] {
                let size = size.min(dataset.len());
                let indices: Vec<usize> = (0..size).collect();
                let subset = dataset.select(&indices).unwrap();
                let compiled_out = compiled.predict_batch(subset.features());
                let recursive_out = forest.predict_dataset(&subset);
                assert_eq!(compiled_out, recursive_out, "width {width}, batch size {size}");
            }
        }
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let rows = vec![vec![0.0], vec![1.0]];
        let labels = vec![Label::Positive, Label::Positive];
        let dataset = Dataset::new("pure", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap();
        let forest = RandomForest::fit(
            &dataset,
            &ForestParams {
                num_trees: 2,
                tree: TreeParams::with_max_depth(0),
                ..ForestParams::default()
            },
            &mut SmallRng::seed_from_u64(1),
        );
        let compiled = CompiledForest::compile(&forest);
        assert_eq!(compiled.total_nodes(), 2);
        assert_eq!(compiled.predict(&[0.5]), Label::Positive);
        assert_eq!(compiled.predict_all(&[0.5]), vec![Label::Positive; 2]);
    }
}
