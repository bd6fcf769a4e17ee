//! Binary decision trees for classification (CART-style), grown best-first
//! with support for sample weights, depth limits and leaf-count limits.

use crate::params::TreeParams;
use crate::split::{best_split, Split};
use crate::splitter::{NodeSplitter, SplitWorkspace};
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use wdte_data::{ClassCounts, Dataset, DenseMatrix, Label, Presort};

/// A node of a decision tree, stored in an arena (`Vec<Node>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// A leaf predicting `label`; `counts` records the weighted class counts
    /// of the training samples that reached it.
    Leaf {
        /// Predicted label.
        label: Label,
        /// Weighted training class counts in this leaf.
        counts: ClassCounts,
    },
    /// An internal node testing `x[feature] <= threshold`; instances
    /// satisfying the test descend into `left`, the rest into `right`.
    Internal {
        /// Feature index tested by this node.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Arena index of the left child (test satisfied).
        left: usize,
        /// Arena index of the right child (test not satisfied).
        right: usize,
    },
}

/// A trained binary decision tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

/// The serialized fields of a [`DecisionTree`], before the arena check.
mod unchecked {
    #[derive(serde::Deserialize)]
    pub(super) struct DecisionTree {
        pub(super) nodes: Vec<super::Node>,
        pub(super) num_features: usize,
    }
}

/// Deserialization validates the arena before constructing the tree, so a
/// corrupted or hostile serialized model surfaces as an error instead of
/// an out-of-bounds panic, an infinite traversal loop, or a stack
/// overflow at prediction time.
impl Deserialize for DecisionTree {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Self::checked(unchecked::DecisionTree::from_value(value)?)
    }

    fn read_binary(reader: &mut serde::binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        Self::checked(unchecked::DecisionTree::read_binary(reader, depth)?)
    }
}

impl DecisionTree {
    fn checked(parts: unchecked::DecisionTree) -> Result<Self, DeError> {
        let unchecked::DecisionTree { nodes, num_features } = parts;
        validate_arena(&nodes, num_features)
            .map_err(|detail| DeError::new(format!("invalid DecisionTree: {detail}")))?;
        Ok(DecisionTree { nodes, num_features })
    }
}

/// Deepest tree accepted from a serialized artefact. Trees trained in this
/// workspace stay orders of magnitude below this (the `Adjust(H)` heuristic
/// caps depth near the ensemble mean), while the bound keeps hostile
/// deep-chain artefacts from later overflowing the stack in recursive
/// consumers (`depth_of`, `leaf_regions`, `CompiledForest::compile`).
pub const MAX_DESERIALIZED_DEPTH: usize = 2048;

/// Checks that `nodes` is a well-formed tree rooted at index 0: child and
/// feature indices in range, every node reachable from the root exactly
/// once (no shared subtrees, no cycles, no orphans), depth within
/// [`MAX_DESERIALIZED_DEPTH`]. Uses an explicit stack, so hostile input
/// cannot overflow the call stack here either.
fn validate_arena(nodes: &[Node], num_features: usize) -> Result<(), String> {
    if nodes.is_empty() {
        return Err("a tree needs at least one node".to_string());
    }
    let mut visited = vec![false; nodes.len()];
    let mut stack = vec![(0usize, 0usize)];
    let mut reached = 0usize;
    while let Some((index, depth)) = stack.pop() {
        if visited[index] {
            return Err(format!("node {index} is reachable twice (shared child or cycle)"));
        }
        if depth > MAX_DESERIALIZED_DEPTH {
            return Err(format!("tree is deeper than {MAX_DESERIALIZED_DEPTH} levels"));
        }
        visited[index] = true;
        reached += 1;
        if let Node::Internal {
            feature, left, right, ..
        } = &nodes[index]
        {
            if *feature >= num_features {
                return Err(format!(
                    "node {index} tests feature {feature} but the tree has {num_features}"
                ));
            }
            for child in [*left, *right] {
                if child >= nodes.len() {
                    return Err(format!(
                        "node {index} has child {child} out of range for {} nodes",
                        nodes.len()
                    ));
                }
                stack.push((child, depth + 1));
            }
        }
    }
    if reached != nodes.len() {
        return Err(format!(
            "{} nodes are unreachable from the root",
            nodes.len() - reached
        ));
    }
    Ok(())
}

/// Structural statistics of a single tree; the quantities the
/// watermark-detection attacker inspects (Table 2) and the hyper-parameter
/// adjustment heuristic averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Depth of the tree (a root-only tree has depth 0).
    pub depth: usize,
    /// Number of leaves.
    pub leaves: usize,
    /// Total number of nodes.
    pub nodes: usize,
}

impl DecisionTree {
    /// Trains a tree on the given dataset with unit sample weights.
    pub fn fit(dataset: &Dataset, params: &TreeParams) -> Self {
        let weights = vec![1.0; dataset.len()];
        Self::fit_weighted(dataset, &weights, None, params)
    }

    /// Trains a tree with explicit per-sample weights and an optional
    /// restriction of the features the tree may split on (the per-tree
    /// feature subset of a random forest without bootstrap).
    ///
    /// Splits are searched over the dataset-level presort cache, so
    /// repeatedly retraining on the same dataset (the watermark embedding
    /// loop) never re-sorts feature columns.
    ///
    /// # Panics
    /// Panics if `weights.len() != dataset.len()`, the dataset is empty or
    /// `allowed_features` is empty.
    pub fn fit_weighted(
        dataset: &Dataset,
        weights: &[f64],
        allowed_features: Option<&[usize]>,
        params: &TreeParams,
    ) -> Self {
        thread_local! {
            /// Per-thread workspace reused by every tree trained on this
            /// thread: all trees of a worker's batch during parallel forest
            /// training, and — when training runs on a persistent thread
            /// (serial mode, or a caller looping `fit_weighted` as
            /// Algorithm 1 does) — every retraining round too, so
            /// steady-state training performs no per-tree buffer
            /// allocations.
            static TREE_WORKSPACE: std::cell::RefCell<SplitWorkspace> =
                std::cell::RefCell::default();
        }
        let candidates = candidate_features(dataset, weights, allowed_features);
        let nodes = TREE_WORKSPACE.with(|workspace| {
            grow_segmented(
                &dataset.presort(),
                dataset.labels(),
                weights,
                &candidates,
                params,
                dataset.num_classes(),
                &mut workspace.borrow_mut(),
            )
        });
        DecisionTree {
            nodes,
            num_features: dataset.num_features(),
        }
    }

    /// The parity oracle for [`fit_weighted`](Self::fit_weighted): grows
    /// the same tree, bit for bit, with the naive reference search, which
    /// gathers and re-sorts every candidate column at every node. Only the
    /// parity tests and the training benchmark call it.
    ///
    /// # Panics
    /// Panics exactly where [`fit_weighted`](Self::fit_weighted) does.
    pub fn fit_weighted_reference(
        dataset: &Dataset,
        weights: &[f64],
        allowed_features: Option<&[usize]>,
        params: &TreeParams,
    ) -> Self {
        let candidates = candidate_features(dataset, weights, allowed_features);
        let nodes = grow_naive(
            dataset.features(),
            dataset.labels(),
            weights,
            &candidates,
            params,
            dataset.num_classes(),
        );
        DecisionTree {
            nodes,
            num_features: dataset.num_features(),
        }
    }

    /// Number of features of the training space.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Borrow of the node arena; index 0 is the root.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Arena index of the root node.
    pub fn root(&self) -> usize {
        0
    }

    /// Predicts the label of a single instance.
    ///
    /// # Panics
    /// Panics if `instance.len() < num_features()`.
    pub fn predict(&self, instance: &[f64]) -> Label {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { label, .. } => return *label,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if instance[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Predicts every instance of a dataset.
    pub fn predict_dataset(&self, dataset: &Dataset) -> Vec<Label> {
        dataset.iter().map(|(row, _)| self.predict(row)).collect()
    }

    /// Fraction of dataset instances predicted correctly.
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let correct = dataset.iter().filter(|(row, label)| self.predict(row) == *label).count();
        correct as f64 / dataset.len() as f64
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.depth_of(0)
    }

    fn depth_of(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf { .. } => 0,
            Node::Internal { left, right, .. } => 1 + self.depth_of(*left).max(self.depth_of(*right)),
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// Structural statistics of the tree.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            depth: self.depth(),
            leaves: self.num_leaves(),
            nodes: self.nodes.len(),
        }
    }

    /// Enumerates, for every leaf, the axis-aligned region of the input
    /// space routed to it, as per-feature `(lower, upper]`-style bounds
    /// (`lower < x <= upper` for the features actually tested on the path;
    /// untested features are unconstrained `(-inf, +inf)`), together with
    /// the leaf's predicted label.
    ///
    /// This is the geometric view the forgery solver (`wdte-solver`)
    /// operates on.
    pub fn leaf_regions(&self) -> Vec<LeafRegion> {
        let mut regions = Vec::with_capacity(self.num_leaves());
        let unconstrained = vec![(f64::NEG_INFINITY, f64::INFINITY); self.num_features];
        self.collect_regions(0, unconstrained, &mut regions);
        regions
    }

    fn collect_regions(&self, node: usize, bounds: Vec<(f64, f64)>, out: &mut Vec<LeafRegion>) {
        match &self.nodes[node] {
            Node::Leaf { label, counts } => {
                out.push(LeafRegion {
                    bounds,
                    label: *label,
                    counts: counts.clone(),
                });
            }
            Node::Internal {
                feature,
                threshold,
                left,
                right,
            } => {
                // Left branch: x[feature] <= threshold → tighten the upper bound.
                let mut left_bounds = bounds.clone();
                if *threshold < left_bounds[*feature].1 {
                    left_bounds[*feature].1 = *threshold;
                }
                self.collect_regions(*left, left_bounds, out);
                // Right branch: x[feature] > threshold → tighten the lower bound.
                let mut right_bounds = bounds;
                if *threshold > right_bounds[*feature].0 {
                    right_bounds[*feature].0 = *threshold;
                }
                self.collect_regions(*right, right_bounds, out);
            }
        }
    }

    /// Builds a tree directly from an arena of nodes. Used by the
    /// 3SAT→ensemble reduction, which constructs trees syntactically rather
    /// than by training.
    ///
    /// # Panics
    /// Panics if the arena is empty or a child index is out of range.
    pub fn from_nodes(nodes: Vec<Node>, num_features: usize) -> Self {
        assert!(!nodes.is_empty(), "a tree needs at least one node");
        for node in &nodes {
            if let Node::Internal {
                left, right, feature, ..
            } = node
            {
                assert!(
                    *left < nodes.len() && *right < nodes.len(),
                    "child index out of range"
                );
                assert!(*feature < num_features, "feature index out of range");
            }
        }
        DecisionTree { nodes, num_features }
    }
}

/// Checks the inputs both growers share and returns the features a tree
/// may split on: `allowed_features`, or every feature.
fn candidate_features<'a>(
    dataset: &Dataset,
    weights: &[f64],
    allowed_features: Option<&'a [usize]>,
) -> Cow<'a, [usize]> {
    assert_eq!(weights.len(), dataset.len(), "one weight per sample required");
    assert!(!dataset.is_empty(), "cannot train a tree on an empty dataset");
    let candidates = match allowed_features {
        Some(features) => Cow::Borrowed(features),
        None => Cow::Owned((0..dataset.num_features()).collect()),
    };
    assert!(!candidates.is_empty(), "at least one candidate feature required");
    candidates
}

/// Axis-aligned region of the input space routed to a single leaf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafRegion {
    /// Per-feature bounds `(lower, upper)`: the leaf is reached iff
    /// `lower < x[f] <= upper` for every tested feature (bounds are
    /// infinite for untested features).
    pub bounds: Vec<(f64, f64)>,
    /// Label predicted by the leaf.
    pub label: Label,
    /// Weighted training class counts of the leaf.
    pub counts: ClassCounts,
}

/// Grows a tree with the naive reference search
/// ([`DecisionTree::fit_weighted_reference`]): per-node index vectors,
/// per-node column gather + sort. Kept as the parity oracle and benchmark
/// baseline for the segment-based search.
fn grow_naive(
    features: &DenseMatrix,
    labels: &[Label],
    weights: &[f64],
    candidate_features: &[usize],
    params: &TreeParams,
    num_classes: usize,
) -> Vec<Node> {
    let max_leaves = params.max_leaves.unwrap_or(usize::MAX).max(1);
    let mut builder = NaiveBuilder {
        nodes: Vec::new(),
        frontier: Vec::new(),
        features,
        labels,
        weights,
        candidate_features,
        params,
        num_classes,
    };
    let root_indices: Vec<usize> = (0..labels.len()).collect();
    builder.push_leaf(root_indices, 0);
    let mut leaves = 1usize;
    // Best-first growth: repeatedly split the frontier leaf with the
    // largest impurity decrease until the leaf budget is exhausted or no
    // splittable leaf remains.
    while leaves < max_leaves {
        let Some(best_index) = builder.best_frontier_entry() else {
            break;
        };
        let entry = builder.frontier.swap_remove(best_index);
        builder.apply_split(entry);
        leaves += 1;
    }
    builder.nodes
}

/// Grows a tree over per-node segments of presorted columns; no per-node
/// sorting, no allocations in steady state.
fn grow_segmented(
    presort: &Presort,
    labels: &[Label],
    weights: &[f64],
    candidate_features: &[usize],
    params: &TreeParams,
    num_classes: usize,
    workspace: &mut SplitWorkspace,
) -> Vec<Node> {
    let max_leaves = params.max_leaves.unwrap_or(usize::MAX).max(1);
    let splitter = NodeSplitter::new(
        presort,
        labels,
        weights,
        candidate_features,
        num_classes,
        workspace,
    );
    let mut builder = SegmentBuilder {
        nodes: Vec::new(),
        frontier: Vec::new(),
        splitter,
        params,
    };
    builder.push_leaf(0, labels.len(), 0);
    let mut leaves = 1usize;
    while leaves < max_leaves {
        let Some(best_index) = builder.best_frontier_entry() else {
            break;
        };
        let entry = builder.frontier.swap_remove(best_index);
        builder.apply_split(entry);
        leaves += 1;
    }
    builder.nodes
}

/// A frontier leaf awaiting a possible split during best-first growth
/// (naive builder: owns its index list).
struct FrontierEntry {
    node_slot: usize,
    indices: Vec<usize>,
    depth: usize,
    split: Option<Split>,
}

struct NaiveBuilder<'a> {
    nodes: Vec<Node>,
    frontier: Vec<FrontierEntry>,
    features: &'a DenseMatrix,
    labels: &'a [Label],
    weights: &'a [f64],
    candidate_features: &'a [usize],
    params: &'a TreeParams,
    num_classes: usize,
}

impl<'a> NaiveBuilder<'a> {
    /// Creates a leaf node for `indices`, evaluates its best split, and adds
    /// it to the frontier (if it is allowed to be split later).
    fn push_leaf(&mut self, indices: Vec<usize>, depth: usize) -> usize {
        let mut counts = ClassCounts::with_classes(self.num_classes);
        for &i in &indices {
            counts.add(self.labels[i], self.weights[i]);
        }
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf {
            label: counts.majority(),
            counts,
        });

        // `best_split` refuses nodes of fewer than two samples.
        if self.params.max_depth.is_none_or(|max| depth < max) {
            let split = best_split(
                self.features,
                self.labels,
                self.weights,
                &indices,
                self.candidate_features,
                self.num_classes,
            );
            if split.is_some() {
                self.frontier.push(FrontierEntry {
                    node_slot: slot,
                    indices,
                    depth,
                    split,
                });
            }
        }
        slot
    }

    /// Index of the frontier entry with the highest gain, if any.
    fn best_frontier_entry(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (index, entry) in self.frontier.iter().enumerate() {
            let gain = entry.split.as_ref().map(|s| s.gain).unwrap_or(f64::NEG_INFINITY);
            if best.is_none_or(|(_, best_gain)| gain > best_gain) {
                best = Some((index, gain));
            }
        }
        best.map(|(index, _)| index)
    }

    /// Turns the frontier leaf into an internal node and pushes its two
    /// children as new leaves.
    fn apply_split(&mut self, entry: FrontierEntry) {
        let split = entry.split.expect("frontier entries always carry a split");
        let (mut left_indices, mut right_indices) = (
            Vec::with_capacity(split.left_samples),
            Vec::with_capacity(split.right_samples),
        );
        for &i in &entry.indices {
            if self.features.value(i, split.feature) <= split.threshold {
                left_indices.push(i);
            } else {
                right_indices.push(i);
            }
        }
        let left = self.push_leaf(left_indices, entry.depth + 1);
        let right = self.push_leaf(right_indices, entry.depth + 1);
        self.nodes[entry.node_slot] = Node::Internal {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
    }
}

/// A frontier leaf in the segment-based builder: plain `[lo, hi)` range,
/// no owned index list. Only splittable leaves enter the frontier.
struct SegmentEntry {
    node_slot: usize,
    lo: usize,
    hi: usize,
    depth: usize,
    split: Split,
}

struct SegmentBuilder<'a> {
    nodes: Vec<Node>,
    frontier: Vec<SegmentEntry>,
    splitter: NodeSplitter<'a>,
    params: &'a TreeParams,
}

impl<'a> SegmentBuilder<'a> {
    /// Creates a leaf node for the segment `[lo, hi)`, evaluates its best
    /// split, and adds it to the frontier if it can be split later.
    fn push_leaf(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let counts = self.splitter.counts(lo, hi);
        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf {
            label: counts.majority(),
            counts: counts.clone(),
        });

        // `best_split` refuses nodes of fewer than two samples.
        if self.params.max_depth.is_none_or(|max| depth < max) {
            if let Some(split) = self.splitter.best_split(lo, hi, &counts) {
                self.frontier.push(SegmentEntry {
                    node_slot: slot,
                    lo,
                    hi,
                    depth,
                    split,
                });
            }
        }
        slot
    }

    /// Index of the frontier entry with the highest gain, if any.
    fn best_frontier_entry(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (index, entry) in self.frontier.iter().enumerate() {
            if best.is_none_or(|(_, best_gain)| entry.split.gain > best_gain) {
                best = Some((index, entry.split.gain));
            }
        }
        best.map(|(index, _)| index)
    }

    /// Turns the frontier leaf into an internal node: partitions the
    /// segment in place and pushes the two child segments as new leaves.
    fn apply_split(&mut self, entry: SegmentEntry) {
        let mid = self.splitter.partition(entry.lo, entry.hi, &entry.split);
        debug_assert_eq!(
            mid - entry.lo,
            entry.split.left_samples,
            "partition matches split"
        );
        let left = self.push_leaf(entry.lo, mid, entry.depth + 1);
        let right = self.push_leaf(mid, entry.hi, entry.depth + 1);
        self.nodes[entry.node_slot] = Node::Internal {
            feature: entry.split.feature,
            threshold: entry.split.threshold,
            left,
            right,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::SyntheticSpec;

    fn xor_dataset() -> Dataset {
        // XOR-like pattern that a depth-2 tree can fit but a stump cannot.
        let rows = vec![
            vec![0.1, 0.1],
            vec![0.1, 0.9],
            vec![0.9, 0.1],
            vec![0.9, 0.9],
            vec![0.2, 0.2],
            vec![0.2, 0.8],
            vec![0.8, 0.2],
            vec![0.8, 0.8],
        ];
        let labels = vec![
            Label::Negative,
            Label::Positive,
            Label::Positive,
            Label::Negative,
            Label::Negative,
            Label::Positive,
            Label::Positive,
            Label::Negative,
        ];
        Dataset::new("xor", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn fits_xor_with_enough_depth() {
        let dataset = xor_dataset();
        let tree = DecisionTree::fit(&dataset, &TreeParams::default());
        assert_eq!(tree.accuracy(&dataset), 1.0);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let dataset = xor_dataset();
        let tree = DecisionTree::fit(&dataset, &TreeParams::with_max_depth(1));
        assert!(tree.depth() <= 1);
        assert!(tree.accuracy(&dataset) < 1.0);
    }

    #[test]
    fn leaf_limit_is_respected() {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.5)
            .generate(&mut SmallRng::seed_from_u64(1));
        let params = TreeParams {
            max_leaves: Some(4),
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(&dataset, &params);
        assert!(tree.num_leaves() <= 4);
        let unconstrained = DecisionTree::fit(&dataset, &TreeParams::default());
        assert!(unconstrained.num_leaves() >= tree.num_leaves());
    }

    #[test]
    fn single_class_dataset_yields_single_leaf() {
        let rows = vec![vec![0.0], vec![0.5], vec![1.0]];
        let labels = vec![Label::Positive; 3];
        let dataset = Dataset::new("pure", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap();
        let tree = DecisionTree::fit(&dataset, &TreeParams::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[0.7]), Label::Positive);
    }

    #[test]
    fn sample_weights_can_flip_a_leaf_prediction() {
        // Two overlapping points with contradicting labels: the heavier one
        // must win the leaf majority.
        let rows = vec![vec![0.5], vec![0.5]];
        let labels = vec![Label::Positive, Label::Negative];
        let dataset = Dataset::new("tie", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap();
        let light = DecisionTree::fit_weighted(&dataset, &[1.0, 1.0], None, &TreeParams::default());
        assert_eq!(light.predict(&[0.5]), Label::Negative); // tie-break
        let heavy = DecisionTree::fit_weighted(&dataset, &[10.0, 1.0], None, &TreeParams::default());
        assert_eq!(heavy.predict(&[0.5]), Label::Positive);
    }

    #[test]
    fn restricted_feature_set_is_honoured() {
        let dataset = xor_dataset();
        // Only feature 0 available: XOR cannot be solved, and no split on
        // feature 1 may appear in the tree.
        let tree = DecisionTree::fit_weighted(
            &dataset,
            &vec![1.0; dataset.len()],
            Some(&[0]),
            &TreeParams::default(),
        );
        for node in tree.nodes() {
            if let Node::Internal { feature, .. } = node {
                assert_eq!(*feature, 0);
            }
        }
        assert!(tree.accuracy(&dataset) < 1.0);
    }

    #[test]
    fn stats_are_consistent_with_structure() {
        let dataset = xor_dataset();
        let tree = DecisionTree::fit(&dataset, &TreeParams::default());
        let stats = tree.stats();
        assert_eq!(stats.leaves, tree.num_leaves());
        assert_eq!(stats.depth, tree.depth());
        assert_eq!(stats.nodes, tree.nodes().len());
        // A binary tree with L leaves has exactly 2L - 1 nodes.
        assert_eq!(stats.nodes, 2 * stats.leaves - 1);
    }

    #[test]
    fn leaf_regions_cover_training_points_consistently() {
        let dataset = xor_dataset();
        let tree = DecisionTree::fit(&dataset, &TreeParams::default());
        let regions = tree.leaf_regions();
        assert_eq!(regions.len(), tree.num_leaves());
        // Every training instance must fall in exactly one region, and that
        // region's label must equal the tree prediction.
        for (row, _) in dataset.iter() {
            let mut matches = 0;
            for region in &regions {
                let inside = region
                    .bounds
                    .iter()
                    .enumerate()
                    .all(|(f, &(lo, hi))| row[f] > lo && row[f] <= hi);
                if inside {
                    matches += 1;
                    assert_eq!(region.label, tree.predict(row));
                }
            }
            assert_eq!(matches, 1, "each instance must fall in exactly one leaf region");
        }
    }

    #[test]
    fn from_nodes_builds_a_manual_tree() {
        // x[0] <= 0.5 ? Negative : Positive
        let nodes = vec![
            Node::Internal {
                feature: 0,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            Node::Leaf {
                label: Label::Negative,
                counts: ClassCounts::new(),
            },
            Node::Leaf {
                label: Label::Positive,
                counts: ClassCounts::new(),
            },
        ];
        let tree = DecisionTree::from_nodes(nodes, 1);
        assert_eq!(tree.predict(&[0.3]), Label::Negative);
        assert_eq!(tree.predict(&[0.7]), Label::Positive);
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "child index out of range")]
    fn from_nodes_validates_children() {
        let nodes = vec![Node::Internal {
            feature: 0,
            threshold: 0.5,
            left: 5,
            right: 6,
        }];
        DecisionTree::from_nodes(nodes, 1);
    }

    #[test]
    fn serde_round_trip() {
        let dataset = xor_dataset();
        let tree = DecisionTree::fit(&dataset, &TreeParams::default());
        let back: DecisionTree = serde::binary::from_slice(&serde::binary::to_vec(&tree)).unwrap();
        assert_eq!(back, tree);
    }
}
