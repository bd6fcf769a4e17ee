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
//! `x[f] <= t` branch continues on the next node. These arrays are the
//! canonical (and serialized) form and drive the single-row walk; batches
//! run the blocked lockstep walk of [`kernel`] over a derived per-level
//! layout.
//!
//! Traversal semantics are bit-identical to [`DecisionTree::predict`]:
//! the test is `x[feature] <= threshold`, so `NaN` features compare false
//! and deterministically descend into the right child.

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node, TreeStats};
use serde::{DeError, Deserialize, Serialize, Value};
use std::mem::size_of_val;
use wdte_data::{Dataset, DenseMatrix, Label};

pub mod kernel;

use kernel::LevelLayout;
pub use kernel::{Kernel, ResolvedKernel, DEFAULT_BLOCK_WIDTH};

/// Sentinel in the `feature` array marking a leaf node.
pub const LEAF_MARKER: u32 = u32::MAX;

/// A trained forest flattened into contiguous structure-of-arrays node
/// storage for fast batch inference (see the module documentation for the
/// exact layout).
///
/// Compiled forests are immutable snapshots: compile once after training
/// (or after loading a model from disk) and reuse for every prediction,
/// verification and attack-scoring pass.
#[derive(Debug, Clone)]
pub struct CompiledForest {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    right: Vec<u32>,
    tree_starts: Vec<u32>,
    num_features: usize,
    /// Number of classes `k` of the label space; leaf class indices are
    /// validated to stay below it.
    num_classes: usize,
    /// Maximum depth of each tree; the number of lockstep steps the batch
    /// walk performs. Derived, never serialized.
    depths: Vec<u32>,
    /// Per-level breadth-first node layout driving the batch walk (see
    /// [`kernel`]). Derived, never serialized.
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
        compiled.derive_tables();
        compiled
    }

    /// Rebuilds the derived batch-walk tables from the SoA arrays.
    fn derive_tables(&mut self) {
        self.depths = build_depths(&self.feature, &self.left, &self.right, &self.tree_starts);
        self.level = LevelLayout::build(
            &self.feature,
            &self.threshold,
            &self.left,
            &self.right,
            &self.tree_starts,
        );
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

    /// Resident bytes of this forest: the struct itself plus every array
    /// it holds, canonical and derived. The dispute service charges this
    /// against its model-cache budget.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + size_of_val(self.feature.as_slice())
            + size_of_val(self.threshold.as_slice())
            + size_of_val(self.left.as_slice())
            + size_of_val(self.right.as_slice())
            + size_of_val(self.tree_starts.as_slice())
            + size_of_val(self.depths.as_slice())
            + self.level.bytes()
    }

    /// Node index range `[lo, hi)` of one tree; `lo` is its root.
    fn segment(&self, tree: usize) -> (usize, usize) {
        (
            self.tree_starts[tree] as usize,
            self.tree_starts[tree + 1] as usize,
        )
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
                    .expect("leaf class indices are validated to fit the label space");
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
                Label::from_index(label as usize).expect("validated leaf class");
        });
        BatchPredictions {
            labels,
            num_trees,
            num_classes: self.num_classes,
        }
    }

    /// [`Self::predict_all_batch_with`] sharded across the work-stealing
    /// pool: rows are split into contiguous shards of at most
    /// `shard_rows`, each shard is predicted independently, and the
    /// per-sample votes are stitched back in row order — bit-identical to
    /// the single-threaded call for every shard size and worker count.
    /// This is the dispute-service hot path, where one verification batch
    /// can carry thousands of disguised queries; called from inside an
    /// outer per-dispute fan-out, the shards become nested pool jobs that
    /// idle workers steal, rather than serializing on the dispute's
    /// thread. Batches that would fit in a single shard — and any batch on
    /// a single-worker pool, where sharding could only add stitch overhead
    /// — take the serial path directly.
    ///
    /// # Panics
    /// Panics if `features.cols() < num_features()`.
    pub fn par_predict_all_batch(
        &self,
        features: &DenseMatrix,
        shard_rows: usize,
        kernel: Kernel,
    ) -> BatchPredictions {
        use rayon::prelude::*;
        let shard_rows = shard_rows.max(1);
        let samples = features.rows();
        let cols = features.cols();
        if samples <= shard_rows || rayon::current_num_threads() <= 1 {
            return self.predict_all_batch_with(features, kernel);
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
                self.predict_all_rows(&values[start * cols..end * cols], cols, end - start, kernel)
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

    /// Structural statistics of every tree, in tree order; matches
    /// [`RandomForest::tree_stats`] for the forest this was compiled from,
    /// so the structural detection attack can run against a compiled
    /// artifact loaded from disk.
    pub fn tree_stats(&self) -> Vec<TreeStats> {
        (0..self.num_trees())
            .map(|tree| {
                let (lo, hi) = self.segment(tree);
                let leaves = (lo..hi).filter(|&n| self.feature[n] == LEAF_MARKER).count();
                TreeStats {
                    depth: self.depths[tree] as usize,
                    leaves,
                    nodes: hi - lo,
                }
            })
            .collect()
    }

    /// Rebuilds a compiled forest from raw arrays, validating every
    /// structural invariant. This is the only way external data (a
    /// deserialized file) becomes a `CompiledForest`, so a corrupted
    /// artifact surfaces as an error here instead of an out-of-bounds
    /// panic during prediction.
    pub fn from_raw_parts(
        feature: Vec<u32>,
        threshold: Vec<f64>,
        left: Vec<u32>,
        right: Vec<u32>,
        tree_starts: Vec<u32>,
        num_features: usize,
        num_classes: usize,
    ) -> Result<Self, String> {
        let num_classes = num_classes.max(2);
        if num_classes > Label::MAX_CLASSES {
            return Err(format!(
                "num_classes {num_classes} exceeds the supported maximum {}",
                Label::MAX_CLASSES
            ));
        }
        let nodes = feature.len();
        if threshold.len() != nodes || left.len() != nodes || right.len() != nodes {
            return Err(format!(
                "node array lengths disagree: feature {}, threshold {}, left {}, right {}",
                nodes,
                threshold.len(),
                left.len(),
                right.len()
            ));
        }
        if tree_starts.len() < 2 {
            return Err("tree_starts must hold at least one tree".to_string());
        }
        if tree_starts[0] != 0 || *tree_starts.last().expect("non-empty") as usize != nodes {
            return Err(format!(
                "tree_starts must span [0, {nodes}], got [{}, {}]",
                tree_starts[0],
                tree_starts.last().expect("non-empty")
            ));
        }
        for window in tree_starts.windows(2) {
            if window[0] >= window[1] {
                return Err("every tree needs at least one node".to_string());
            }
        }
        for tree in 0..tree_starts.len() - 1 {
            let (lo, hi) = (tree_starts[tree] as usize, tree_starts[tree + 1] as usize);
            let mut child_refs = vec![0u32; hi - lo];
            for node in lo..hi {
                if feature[node] == LEAF_MARKER {
                    if left[node] as usize >= num_classes {
                        return Err(format!(
                            "leaf node {node} has class index {} but the model has {num_classes} classes",
                            left[node]
                        ));
                    }
                } else {
                    if (feature[node] as usize) >= num_features {
                        return Err(format!(
                            "node {node} tests feature {} but the model has {num_features}",
                            feature[node]
                        ));
                    }
                    for child in [left[node], right[node]] {
                        let child = child as usize;
                        // Children must stay inside the same tree and point
                        // strictly forward, which also rules out traversal
                        // cycles.
                        if child <= node || child >= hi {
                            return Err(format!(
                                "node {node} has child {child} outside its tree segment [{lo}, {hi})"
                            ));
                        }
                        child_refs[child - lo] += 1;
                    }
                }
            }
            // Every non-root node must be referenced exactly once: shared
            // children would make the arrays a DAG, on which the depth
            // computation below enumerates exponentially many paths (and
            // more than one parent never arises from `compile`).
            for (offset, &refs) in child_refs.iter().enumerate().skip(1) {
                if refs != 1 {
                    return Err(format!(
                        "node {} is referenced by {refs} parents; trees reference every non-root node exactly once",
                        lo + offset
                    ));
                }
            }
        }
        let mut forest = CompiledForest {
            feature,
            threshold,
            left,
            right,
            tree_starts,
            num_features,
            num_classes,
            depths: Vec::new(),
            level: LevelLayout::default(),
        };
        forest.derive_tables();
        Ok(forest)
    }
}

/// Only the canonical SoA arrays are serialized; the packed traversal
/// table is rebuilt on load.
impl Serialize for CompiledForest {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("feature".to_string(), self.feature.to_value()),
            ("threshold".to_string(), self.threshold.to_value()),
            ("left".to_string(), self.left.to_value()),
            ("right".to_string(), self.right.to_value()),
            ("tree_starts".to_string(), self.tree_starts.to_value()),
            ("num_features".to_string(), self.num_features.to_value()),
            ("num_classes".to_string(), self.num_classes.to_value()),
        ])
    }
}

impl From<&RandomForest> for CompiledForest {
    fn from(forest: &RandomForest) -> Self {
        CompiledForest::compile(forest)
    }
}

/// Deserialization is routed through [`CompiledForest::from_raw_parts`] so
/// corrupted artifacts are rejected with an error instead of panicking
/// later during traversal.
impl Deserialize for CompiledForest {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value.as_map().ok_or_else(|| DeError::expected("map", "CompiledForest"))?;
        let feature = Vec::from_value(serde::map_get(entries, "feature")?)?;
        let threshold = Vec::from_value(serde::map_get(entries, "threshold")?)?;
        let left = Vec::from_value(serde::map_get(entries, "left")?)?;
        let right = Vec::from_value(serde::map_get(entries, "right")?)?;
        let tree_starts: Vec<u32> = Vec::from_value(serde::map_get(entries, "tree_starts")?)?;
        let num_features = usize::from_value(serde::map_get(entries, "num_features")?)?;
        // Artifacts written before the k-class generalization carry no
        // class count; they are binary by construction, except that any
        // larger leaf index present still raises it so validation passes
        // exactly when the arrays are self-consistent.
        let num_classes = match entries.iter().find(|(key, _)| key == "num_classes") {
            Some((_, value)) => usize::from_value(value)?,
            None => feature
                .iter()
                .zip(&left)
                .filter(|(&f, _)| f == LEAF_MARKER)
                .map(|(_, &label)| label as usize + 1)
                .max()
                .unwrap_or(2)
                .max(2),
        };
        CompiledForest::from_raw_parts(
            feature,
            threshold,
            left,
            right,
            tree_starts,
            num_features,
            num_classes,
        )
        .map_err(|detail| DeError::new(format!("invalid CompiledForest: {detail}")))
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
    fn tree_stats_match_the_pointer_trees() {
        let (_, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        assert_eq!(compiled.tree_stats(), forest.tree_stats());
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
    fn resident_bytes_count_every_array() {
        // A two-tree forest of 3 + 1 nodes: 20 B of SoA words and 28 B of
        // level layout (24 B node + 4 B leaf label) per node, plus
        // tree_starts (3 × 4 B), depths and BFS roots (2 × 4 B each).
        let compiled = CompiledForest::from_raw_parts(
            vec![0, LEAF_MARKER, LEAF_MARKER, LEAF_MARKER],
            vec![0.5, 0.0, 0.0, 0.0],
            vec![1, 0, 1, 1],
            vec![2, 0, 0, 0],
            vec![0, 3, 4],
            1,
            2,
        )
        .unwrap();
        assert_eq!(
            compiled.resident_bytes() - std::mem::size_of::<CompiledForest>(),
            4 * 48 + 12 + 8 + 8
        );
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let (dataset, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        let json = serde_json::to_string(&compiled).unwrap();
        let restored: CompiledForest = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, compiled);
        assert_eq!(
            restored.predict_batch(dataset.features()),
            compiled.predict_batch(dataset.features())
        );
    }

    #[test]
    fn from_raw_parts_rejects_corrupted_arrays() {
        let (_, forest) = trained();
        let compiled = CompiledForest::compile(&forest);
        // Mismatched array lengths.
        assert!(CompiledForest::from_raw_parts(
            compiled.feature.clone(),
            vec![0.0; 1],
            compiled.left.clone(),
            compiled.right.clone(),
            compiled.tree_starts.clone(),
            compiled.num_features,
            compiled.num_classes,
        )
        .is_err());
        // Child index escaping its tree segment.
        let mut bad_left = compiled.left.clone();
        if let Some(internal) = (0..compiled.feature.len()).find(|&n| compiled.feature[n] != LEAF_MARKER)
        {
            bad_left[internal] = compiled.feature.len() as u32 + 7;
            assert!(CompiledForest::from_raw_parts(
                compiled.feature.clone(),
                compiled.threshold.clone(),
                bad_left,
                compiled.right.clone(),
                compiled.tree_starts.clone(),
                compiled.num_features,
                compiled.num_classes,
            )
            .is_err());
        }
        // Backwards child (cycle).
        let mut cyclic_right = compiled.right.clone();
        if let Some(internal) = (0..compiled.feature.len()).find(|&n| compiled.feature[n] != LEAF_MARKER)
        {
            cyclic_right[internal] = internal as u32;
            assert!(CompiledForest::from_raw_parts(
                compiled.feature.clone(),
                compiled.threshold.clone(),
                compiled.left.clone(),
                cyclic_right,
                compiled.tree_starts.clone(),
                compiled.num_features,
                compiled.num_classes,
            )
            .is_err());
        }
        // Feature index beyond the model dimensionality.
        let mut bad_feature = compiled.feature.clone();
        if let Some(internal) = (0..compiled.feature.len()).find(|&n| compiled.feature[n] != LEAF_MARKER)
        {
            bad_feature[internal] = compiled.num_features as u32;
            assert!(CompiledForest::from_raw_parts(
                bad_feature,
                compiled.threshold.clone(),
                compiled.left.clone(),
                compiled.right.clone(),
                compiled.tree_starts.clone(),
                compiled.num_features,
                compiled.num_classes,
            )
            .is_err());
        }
        // Node-sharing DAGs (left == right) must be rejected: the depth
        // computation would enumerate exponentially many root→leaf paths.
        let chain = 40u32;
        let dag_feature: Vec<u32> =
            (0..chain).map(|n| if n + 1 == chain { LEAF_MARKER } else { 0 }).collect();
        let dag_left: Vec<u32> = (0..chain).map(|n| if n + 1 == chain { 0 } else { n + 1 }).collect();
        let dag_right: Vec<u32> = dag_left.clone();
        assert!(CompiledForest::from_raw_parts(
            dag_feature,
            vec![0.5; chain as usize],
            dag_left,
            dag_right,
            vec![0, chain],
            1,
            2,
        )
        .unwrap_err()
        .contains("exactly once"));

        // The untouched arrays still validate.
        assert!(CompiledForest::from_raw_parts(
            compiled.feature.clone(),
            compiled.threshold.clone(),
            compiled.left.clone(),
            compiled.right.clone(),
            compiled.tree_starts.clone(),
            compiled.num_features,
            compiled.num_classes,
        )
        .is_ok());
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
