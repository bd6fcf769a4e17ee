//! The exact batch walk over a [`CompiledForest`].
//!
//! Fixed-width blocks of samples descend one tree in lockstep through a
//! *per-level breadth-first* node layout (`LevelLayout`) of packed 16-byte
//! nodes. BFS order puts every node's two children side by side, so the
//! compare→child-select step is one add, `first_child + !(x <= t)`,
//! with no child load; over a block it is branchless straight-line code
//! over fixed-size arrays that the optimizer keeps in registers, and a
//! level's nodes are contiguous in memory. The walk is **bit-identical**
//! to the recursive one for every input, including `NaN` and `±inf`
//! feature values.
//!
//! The walk is compiled for exactly one block width,
//! [`DEFAULT_BLOCK_WIDTH`]. Eight lanes with the 16-byte node beat the
//! 24-byte node at sixteen lanes on the dispute and tabular fixtures and
//! are no slower on image-784, while the 16-byte node at sixteen lanes
//! measured level with the old walk. Both [`Kernel`]s resolve to that
//! width and [`Kernel::Auto`] has nothing to probe.

use super::{CompiledForest, LEAF_MARKER};

/// Samples walked together per block: narrow enough to vectorize
/// compactly, wide enough to keep several independent gathers in flight.
pub const DEFAULT_BLOCK_WIDTH: usize = 8;

/// Batch-inference kernel selector, as requested by callers (the service,
/// bench fixtures). Every kernel returns bit-identical predictions; the
/// choice only moves throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// The blocked walk at [`DEFAULT_BLOCK_WIDTH`]; what the kernel-free
    /// methods run, so per-round compiles (Algorithm 1, the attacks) never
    /// pay a probe.
    Blocked,
    /// The service's choice: the fastest retained width for this model
    /// and machine. With a single retained width it is that width.
    #[default]
    Auto,
}

impl Kernel {
    /// Every selectable kernel.
    pub const ALL: [Kernel; 2] = [Kernel::Blocked, Kernel::Auto];

    /// The concrete walk this kernel runs as.
    pub(super) fn resolve(self) -> ResolvedKernel {
        ResolvedKernel::Blocked8
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kernel::Blocked => "blocked",
            Kernel::Auto => "auto",
        })
    }
}

/// A concrete kernel choice: one block width the walk is compiled for, so
/// it can only name a width that dispatch actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedKernel {
    /// The blocked walk at 8 lanes ([`DEFAULT_BLOCK_WIDTH`]).
    Blocked8,
}

impl ResolvedKernel {
    /// Every width the walk is compiled for.
    pub const ALL: [ResolvedKernel; 1] = [ResolvedKernel::Blocked8];

    /// Samples walked together per block.
    pub fn block_width(&self) -> usize {
        match self {
            ResolvedKernel::Blocked8 => DEFAULT_BLOCK_WIDTH,
        }
    }

    /// Runs the walk at this width over `samples` rows of `values`,
    /// emitting every tree's leaf class via `sink(sample, tree, label)`.
    pub(super) fn run(
        self,
        forest: &CompiledForest,
        values: &[f64],
        cols: usize,
        samples: usize,
        sink: impl FnMut(usize, usize, u32),
    ) {
        match self {
            ResolvedKernel::Blocked8 => {
                run_blocked::<DEFAULT_BLOCK_WIDTH>(forest, values, cols, samples, sink)
            }
        }
    }
}

impl std::fmt::Display for ResolvedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blocked{}", self.block_width())
    }
}

/// Per-level breadth-first node layout driving the blocked walk.
///
/// Each tree's nodes are renumbered in BFS order, so one lockstep step of
/// a sample block reads from a contiguous slab of one level, and the two
/// children of every internal node are adjacent: left at `first_child`,
/// right at `first_child + 1`. Leaves are *self loops*: a `NaN` threshold
/// always takes the `+ 1` branch and `first_child` is the leaf's own index
/// minus one, so a finished lane spins on its leaf and every lane advances
/// exactly `depth(tree)` steps with no leaf test. Leaf labels live in a
/// separate `leaf_label` array rather than overloading the feature slot,
/// so the gather index of a finished lane stays a valid feature.
#[derive(Debug, Clone, Default)]
pub(super) struct LevelLayout {
    /// Packed nodes (16 bytes each), BFS-ordered per tree. One struct per
    /// node keeps each visit to a single cache-line stream (split arrays
    /// touch three lines per node).
    walk: Vec<WalkNode>,
    /// Class index of each leaf (0 for internal nodes); only read once a
    /// lane's walk has finished, so it stays out of the hot node bytes.
    leaf_label: Vec<u32>,
    /// BFS root index of each tree.
    roots: Vec<u32>,
}

/// One node of the per-level layout.
#[derive(Debug, Clone, Copy)]
struct WalkNode {
    /// Split threshold (`NaN` for leaves, so `value <= t` is false and the
    /// step takes `first_child + 1`, which for a leaf is the leaf itself).
    threshold: f64,
    /// Feature tested (0 for leaves; never gathered out-of-bounds because
    /// leaves keep descending via their self loop).
    feature: u32,
    /// BFS index of the left child; the right child (the branch `NaN`
    /// takes) is the next node. A leaf stores its own index minus one,
    /// wrapping for a lone leaf at index 0.
    first_child: u32,
}

const _: () = assert!(std::mem::size_of::<WalkNode>() == 16);

impl LevelLayout {
    /// Builds the layout from the canonical SoA arrays.
    pub(super) fn build(
        feature: &[u32],
        threshold: &[f64],
        left: &[u32],
        right: &[u32],
        tree_starts: &[u32],
    ) -> Self {
        let nodes = feature.len();
        let mut layout = LevelLayout {
            walk: Vec::with_capacity(nodes),
            leaf_label: Vec::with_capacity(nodes),
            roots: Vec::with_capacity(tree_starts.len().saturating_sub(1)),
        };
        // Old node index → BFS index, valid per tree as it is built.
        let mut remap = vec![0u32; nodes];
        let mut order: Vec<usize> = Vec::new();
        for window in tree_starts.windows(2) {
            let root = window[0] as usize;
            let base = layout.walk.len();
            layout.roots.push(base as u32);
            order.clear();
            order.push(root);
            let mut head = 0;
            while head < order.len() {
                let node = order[head];
                head += 1;
                if feature[node] != LEAF_MARKER {
                    // Left then right: the pair lands on adjacent slots.
                    order.push(left[node] as usize);
                    order.push(right[node] as usize);
                }
            }
            for (offset, &old) in order.iter().enumerate() {
                remap[old] = (base + offset) as u32;
            }
            for &old in &order {
                if feature[old] == LEAF_MARKER {
                    layout.walk.push(WalkNode {
                        threshold: f64::NAN,
                        feature: 0,
                        first_child: remap[old].wrapping_sub(1),
                    });
                    layout.leaf_label.push(left[old]);
                } else {
                    let first_child = remap[left[old] as usize];
                    debug_assert_eq!(remap[right[old] as usize], first_child + 1);
                    layout.walk.push(WalkNode {
                        threshold: threshold[old],
                        feature: feature[old],
                        first_child,
                    });
                    layout.leaf_label.push(0);
                }
            }
        }
        layout
    }
}

/// Advances `states.len()` samples through one tree in lockstep over the
/// level layout. Fixed-width callers pass `&mut [u32; W]` slices so the
/// loops unroll to straight-line branchless code.
#[inline(always)]
fn descend(level: &LevelLayout, root: u32, depth: u32, rows: &[f64], cols: usize, states: &mut [u32]) {
    for state in states.iter_mut() {
        *state = root;
    }
    let nodes = level.walk.as_slice();
    for _ in 0..depth {
        for (lane, state) in states.iter_mut().enumerate() {
            let node = nodes[*state as usize];
            let value = rows[lane * cols + node.feature as usize];
            // `+ 1` unless `value <= t`: NaN compares false and takes it,
            // into the right child of an internal node or around a leaf's
            // self loop.
            *state = node.first_child.wrapping_add(u32::from(value <= node.threshold) ^ 1);
        }
    }
}

/// The blocked batch walk: whole blocks of `W` samples descend each tree
/// in lockstep, the tail block runs the same code at its actual length,
/// and every label is emitted via `sink(sample, tree, label)`.
fn run_blocked<const W: usize>(
    forest: &CompiledForest,
    values: &[f64],
    cols: usize,
    samples: usize,
    mut sink: impl FnMut(usize, usize, u32),
) {
    let level = &forest.level;
    let mut states = [0u32; W];
    let mut block_start = 0;
    while block_start < samples {
        let lanes = W.min(samples - block_start);
        let rows = &values[block_start * cols..(block_start + lanes) * cols];
        for (tree, (&root, &depth)) in level.roots.iter().zip(&forest.depths).enumerate() {
            if lanes == W {
                // Full block: fixed-length slices unroll and vectorize.
                descend(level, root, depth, rows, cols, &mut states);
            } else {
                descend(level, root, depth, rows, cols, &mut states[..lanes]);
            }
            for (lane, &state) in states[..lanes].iter().enumerate() {
                sink(block_start + lane, tree, level.leaf_label[state as usize]);
            }
        }
        block_start += lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_render() {
        assert_eq!(Kernel::Blocked.to_string(), "blocked");
        assert_eq!(Kernel::Auto.to_string(), "auto");
        assert_eq!(ResolvedKernel::Blocked8.to_string(), "blocked8");
        assert_eq!(ResolvedKernel::Blocked8.block_width(), DEFAULT_BLOCK_WIDTH);
    }
}
