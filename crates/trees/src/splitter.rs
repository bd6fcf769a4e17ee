//! Presorted exact split search over per-node segments.
//!
//! This module implements the production split strategy,
//! [`crate::SplitStrategy::Exact`]. It avoids the naive search's per-node
//! sort + gather by working over the **dataset-level presort**
//! (`Dataset::presort`) and a reusable [`SplitWorkspace`]: at tree start
//! the candidate features' sorted `(value, row)` columns are copied from
//! the shared presort into the workspace. Each tree node owns one
//! contiguous segment `[lo, hi)` of every column; splitting a node stably
//! partitions its segment into the two children's segments, preserving
//! sort order, so no node ever sorts anything. Scans are sequential over
//! column-major buffers.
//!
//! Class-weight bookkeeping is branchless: each gathered sample carries
//! its class code and weight, and scans accumulate `acc[class] += weight`
//! into per-class running totals. For two classes this produces bit-for-bit
//! the sums of the earlier `(weight-if-positive, weight-if-negative)` pair
//! scheme — skipping an inactive class's `+= 0.0` is a bitwise no-op for
//! these non-negative accumulators — while generalizing to any class
//! count.
//!
//! After the one-time workspace initialization, node expansion performs
//! **zero heap allocations**: segment partitioning writes through
//! preallocated scratch buffers and frontier bookkeeping stores plain
//! index ranges.

use crate::params::SplitCriterion;
use crate::split::{children_impurity_parts, gini_scale, impurity, midpoint_threshold, Split};
use wdte_data::{total_of, ClassCounts, Label, Presort};

/// Reusable buffers for segment-based tree construction. One lives per
/// thread (see [`crate::DecisionTree::fit_weighted`]) and the builder
/// resizes it as needed; steady-state node expansion allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SplitWorkspace {
    /// `k × n` feature values, per-candidate-feature columns, each column
    /// segment-sorted.
    vals: Vec<f64>,
    /// `k × n` row ids parallel to `vals`.
    rows: Vec<u32>,
    /// `k × n` per-sample weights, parallel to `vals`; gathered once per
    /// tree so the scan reads sequentially.
    wgt: Vec<f64>,
    /// `k × n` per-sample class codes, parallel to `vals`.
    cls: Vec<u16>,
    /// Node membership buffer (`n` row ids, ascending within each node's
    /// segment — the same iteration order as the naive builder's index
    /// lists, which keeps weighted-count summation bit-identical).
    member: Vec<u32>,
    /// Row-indexed membership mask used while partitioning a node.
    goes_left: Vec<bool>,
    /// Partition scratch for the right-child run (values).
    scratch_vals: Vec<f64>,
    /// Partition scratch for the right-child run (row ids).
    scratch_rows: Vec<u32>,
    /// Partition scratch for the right-child run (weights).
    scratch_wgt: Vec<f64>,
    /// Partition scratch for the right-child run (class codes).
    scratch_cls: Vec<u16>,
    /// Per-class left-child weight accumulator, reused per scan.
    left_acc: Vec<f64>,
    /// Per-class right-child weight accumulator, reused per scan.
    right_acc: Vec<f64>,
}

/// Segment-based split searcher; one per tree under construction.
pub(crate) struct NodeSplitter<'a> {
    labels: &'a [Label],
    weights: &'a [f64],
    candidates: &'a [usize],
    criterion: SplitCriterion,
    min_samples_leaf: usize,
    num_classes: usize,
    n: usize,
    ws: &'a mut SplitWorkspace,
}

impl<'a> NodeSplitter<'a> {
    /// Prepares the workspace for a tree over `n` samples, copying the
    /// candidate features' sorted columns out of `presort`, and hands back
    /// the splitter. The root node owns the full segment `[0, n)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        presort: &Presort,
        labels: &'a [Label],
        weights: &'a [f64],
        candidates: &'a [usize],
        criterion: SplitCriterion,
        min_samples_leaf: usize,
        num_classes: usize,
        ws: &'a mut SplitWorkspace,
    ) -> Self {
        let n = labels.len();
        let k = candidates.len();
        let classes = num_classes.max(2);
        // Buffers are sized with `resize_buffer` (no re-zeroing when the
        // size is unchanged — every entry that is read is written first,
        // either here or during partitioning).
        resize_buffer(&mut ws.goes_left, n, false);
        resize_buffer(&mut ws.scratch_vals, n, 0.0);
        resize_buffer(&mut ws.scratch_rows, n, 0);
        resize_buffer(&mut ws.scratch_wgt, n, 0.0);
        resize_buffer(&mut ws.scratch_cls, n, 0);
        resize_buffer(&mut ws.left_acc, classes, 0.0);
        resize_buffer(&mut ws.right_acc, classes, 0.0);
        resize_buffer(&mut ws.vals, k * n, 0.0);
        resize_buffer(&mut ws.rows, k * n, 0);
        resize_buffer(&mut ws.wgt, k * n, 0.0);
        resize_buffer(&mut ws.cls, k * n, 0);
        ws.member.clear();
        ws.member.extend(0..n as u32);
        for (ci, &feature) in candidates.iter().enumerate() {
            let base = ci * n;
            ws.vals[base..base + n].copy_from_slice(presort.sorted_values(feature));
            ws.rows[base..base + n].copy_from_slice(presort.sorted_rows(feature));
            for position in 0..n {
                let row = ws.rows[base + position] as usize;
                ws.wgt[base + position] = weights[row];
                ws.cls[base + position] = labels[row].index() as u16;
            }
        }
        NodeSplitter {
            labels,
            weights,
            candidates,
            criterion,
            min_samples_leaf,
            num_classes: classes,
            n,
            ws,
        }
    }

    /// The rows belonging to the node that owns segment `[lo, hi)`, in
    /// ascending row order (stable partitioning preserves it).
    #[inline]
    pub(crate) fn node_rows(&self, lo: usize, hi: usize) -> &[u32] {
        &self.ws.member[lo..hi]
    }

    /// Weighted class counts of a node, summed in ascending row order (the
    /// naive builder's order, for bit-identical results).
    pub(crate) fn counts(&self, lo: usize, hi: usize) -> ClassCounts {
        let mut counts = ClassCounts::with_classes(self.num_classes);
        for &row in self.node_rows(lo, hi) {
            let row = row as usize;
            counts.add(self.labels[row], self.weights[row]);
        }
        counts
    }

    /// Finds the best split of the node owning `[lo, hi)`; mirrors the
    /// acceptance rules of the naive reference search exactly (same
    /// thresholds, same `min_samples_leaf` handling, same zero-gain
    /// policy, same feature-order tie-breaking).
    pub(crate) fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        parent_counts: &ClassCounts,
    ) -> Option<Split> {
        if hi - lo < 2 * self.min_samples_leaf.max(1) {
            return None;
        }
        let parent_impurity = impurity(parent_counts, self.criterion);
        if parent_impurity <= 0.0 {
            return None; // already pure
        }
        let total_weight = parent_counts.total();
        if total_weight <= 0.0 {
            return None;
        }
        let n = self.n;
        let len = hi - lo;
        let scale = gini_scale(total_weight);
        let min1 = self.min_samples_leaf.max(1);
        let parent = parent_counts.slice();
        let ws = &mut *self.ws;
        let mut best: Option<Split> = None;
        // Running best gain as a plain scalar so the hot loop compares
        // without touching the (large) `Split` struct.
        let mut best_gain = f64::NEG_INFINITY;
        for (ci, &feature) in self.candidates.iter().enumerate() {
            let base = ci * n;
            let vals = &ws.vals[base + lo..base + hi];
            let cls = &ws.cls[base + lo..base + hi];
            let wgt = &ws.wgt[base + lo..base + hi];
            if vals[len - 1] == vals[0] {
                continue; // constant within this node: no admissible boundary
            }
            ws.left_acc.fill(0.0);
            ws.right_acc.copy_from_slice(parent);
            // Sorted order puts -inf first and NaN/+inf last, so finite
            // endpoints prove the whole segment finite and the hot loop
            // can drop its per-boundary finiteness checks.
            let scan = ScanArgs {
                vals,
                cls,
                wgt,
                parent_impurity,
                total_weight,
                scale,
                criterion: self.criterion,
                min1,
                feature,
            };
            if vals[0].is_finite() && vals[len - 1].is_finite() {
                scan_feature_exact::<true>(
                    &scan,
                    &mut ws.left_acc,
                    &mut ws.right_acc,
                    &mut best,
                    &mut best_gain,
                );
            } else {
                scan_feature_exact::<false>(
                    &scan,
                    &mut ws.left_acc,
                    &mut ws.right_acc,
                    &mut best,
                    &mut best_gain,
                );
            }
        }
        best
    }

    /// Partitions the node owning `[lo, hi)` by `split`, stably, in place.
    /// Returns `mid`: the left child owns `[lo, mid)`, the right child
    /// `[mid, hi)`, in every per-feature column and the membership buffer.
    /// Sort order within segments is preserved.
    pub(crate) fn partition(&mut self, lo: usize, hi: usize, split: &Split) -> usize {
        let n = self.n;
        let split_ci = self
            .candidates
            .iter()
            .position(|&f| f == split.feature)
            .expect("split feature is always a candidate");
        // Mark membership using the split feature's own segment.
        let ws = &mut *self.ws;
        let base = split_ci * n;
        let mut left_size = 0usize;
        for position in lo..hi {
            let row = ws.rows[base + position] as usize;
            let goes_left = ws.vals[base + position] <= split.threshold;
            ws.goes_left[row] = goes_left;
            left_size += usize::from(goes_left);
        }
        // Stable two-way partition of every candidate column's segment,
        // carrying the gathered (value, row, weight, class) tuples along.
        for ci in 0..self.candidates.len() {
            let base = ci * n;
            let mut write = base + lo;
            let mut spill = 0usize;
            for position in base + lo..base + hi {
                let row = ws.rows[position];
                if ws.goes_left[row as usize] {
                    ws.rows[write] = row;
                    ws.vals[write] = ws.vals[position];
                    ws.wgt[write] = ws.wgt[position];
                    ws.cls[write] = ws.cls[position];
                    write += 1;
                } else {
                    ws.scratch_rows[spill] = row;
                    ws.scratch_vals[spill] = ws.vals[position];
                    ws.scratch_wgt[spill] = ws.wgt[position];
                    ws.scratch_cls[spill] = ws.cls[position];
                    spill += 1;
                }
            }
            ws.rows[write..base + hi].copy_from_slice(&ws.scratch_rows[..spill]);
            ws.vals[write..base + hi].copy_from_slice(&ws.scratch_vals[..spill]);
            ws.wgt[write..base + hi].copy_from_slice(&ws.scratch_wgt[..spill]);
            ws.cls[write..base + hi].copy_from_slice(&ws.scratch_cls[..spill]);
        }
        partition_member(ws, lo, hi);
        lo + left_size
    }
}

/// Inputs of one feature's exact boundary scan.
struct ScanArgs<'a> {
    vals: &'a [f64],
    cls: &'a [u16],
    wgt: &'a [f64],
    parent_impurity: f64,
    total_weight: f64,
    scale: f64,
    criterion: SplitCriterion,
    min1: usize,
    feature: usize,
}

/// Scans one feature's sorted segment for the best boundary, updating the
/// running best across features. `left`/`right` are the per-class weight
/// accumulators, pre-seeded to zero and the parent counts respectively.
/// `ALL_FINITE` selects the fast loop without per-boundary finiteness
/// checks (sound whenever the segment's endpoints are finite, because the
/// segment is sorted).
fn scan_feature_exact<const ALL_FINITE: bool>(
    args: &ScanArgs<'_>,
    left: &mut [f64],
    right: &mut [f64],
    best: &mut Option<Split>,
    best_gain: &mut f64,
) {
    let len = args.vals.len();
    let min1 = args.min1;
    // Boundaries outside [min1 - 1, len - min1) can never satisfy
    // `min_samples_leaf`; accumulating the prefix separately keeps those
    // checks out of the hot loop entirely.
    for position in 0..min1 - 1 {
        let class = args.cls[position] as usize;
        let weight = args.wgt[position];
        left[class] += weight;
        right[class] -= weight;
    }
    for position in min1 - 1..len - min1 {
        // Branch-free class accumulation: only the sample's own class cell
        // moves, which is bitwise identical to also adding 0.0 to every
        // other (non-negative) accumulator.
        let class = args.cls[position] as usize;
        let weight = args.wgt[position];
        left[class] += weight;
        right[class] -= weight;
        let value = args.vals[position];
        let next_value = args.vals[position + 1];
        // Ties cannot split (and in the general path, NaN neighbours and
        // non-finite midpoints are rejected too).
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-aware on purpose
        if ALL_FINITE {
            if next_value == value {
                continue;
            }
        } else if !(next_value > value) || !value.is_finite() || !next_value.is_finite() {
            continue;
        }
        let left_weight = total_of(left);
        let right_weight = total_of(right);
        if left_weight <= 0.0 || right_weight <= 0.0 {
            continue;
        }
        let children =
            children_impurity_parts(left, right, args.total_weight, args.scale, args.criterion);
        let gain = args.parent_impurity - children;
        // Zero-gain splits are accepted when nothing better exists (see
        // the naive search for the rationale: XOR-like patterns and the
        // trigger-forcing loop need them). The first acceptance demands
        // `gain >= 0.0` (rounding can push gains an ulp below zero).
        let better = if best.is_none() {
            gain >= 0.0
        } else {
            gain > *best_gain
        };
        if better {
            *best_gain = gain;
            let left_samples = position + 1;
            *best = Some(Split {
                feature: args.feature,
                threshold: midpoint_threshold(value, next_value),
                gain,
                left_counts: ClassCounts::from_slice(left),
                right_counts: ClassCounts::from_slice(right),
                left_samples,
                right_samples: len - left_samples,
            });
        }
    }
}

/// Resizes a workspace buffer without touching retained contents: a no-op
/// when the size already matches (the common case when one workspace is
/// reused across the trees of a forest), so per-tree setup avoids
/// re-zeroing hundreds of kilobytes.
fn resize_buffer<T: Clone>(buffer: &mut Vec<T>, len: usize, fill: T) {
    if buffer.len() != len {
        buffer.clear();
        buffer.resize(len, fill);
    }
}

/// Stably partitions the membership buffer's segment `[lo, hi)` by the
/// `goes_left` mask, preserving ascending row order on both sides; returns
/// the boundary position.
fn partition_member(ws: &mut SplitWorkspace, lo: usize, hi: usize) -> usize {
    let mut write = lo;
    let mut spill = 0usize;
    for position in lo..hi {
        let row = ws.member[position];
        if ws.goes_left[row as usize] {
            ws.member[write] = row;
            write += 1;
        } else {
            ws.scratch_rows[spill] = row;
            spill += 1;
        }
    }
    ws.member[write..hi].copy_from_slice(&ws.scratch_rows[..spill]);
    write
}
