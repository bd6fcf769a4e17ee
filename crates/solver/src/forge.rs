//! Solver for ensemble output-pattern constraints (the watermark forgery
//! problem).
//!
//! Given a tree ensemble `T`, a required prediction per tree, and optional
//! locality constraints (the `[0, 1]` data domain and an L∞ ball around a
//! reference instance), the solver searches for an instance `x` such that
//! every tree produces exactly its required prediction. This is the
//! satisfiability problem the paper encodes into Z3 (Section 4.2.2); the
//! implementation here is a purpose-built DPLL-style branch-and-prune over
//! one-leaf-box-per-tree choices with forward checking, a fail-first
//! variable order and explicit node/time budgets.

use crate::interval::BoxRegion;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};
use wdte_data::Label;
use wdte_trees::RandomForest;

/// Pre-computed leaf geometry of a forest: for every tree, the list of
/// `(leaf box, leaf label)` pairs. Building the index is linear in the
/// number of leaves and is reused across many solver queries.
#[derive(Debug, Clone)]
pub struct LeafIndex {
    per_tree: Vec<Vec<(BoxRegion, Label)>>,
    num_features: usize,
}

impl LeafIndex {
    /// Builds the leaf index of a forest.
    pub fn new(forest: &RandomForest) -> Self {
        let num_features = forest.num_features();
        let per_tree = forest
            .trees()
            .iter()
            .map(|tree| {
                tree.leaf_regions()
                    .into_iter()
                    .map(|region| {
                        let mut bounds = region.bounds;
                        bounds.resize(num_features, (f64::NEG_INFINITY, f64::INFINITY));
                        (BoxRegion::from_tree_bounds(&bounds), region.label)
                    })
                    .collect()
            })
            .collect();
        Self {
            per_tree,
            num_features,
        }
    }

    /// Number of trees indexed.
    pub fn num_trees(&self) -> usize {
        self.per_tree.len()
    }

    /// Number of features of the underlying forest.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Leaf boxes of one tree.
    pub fn tree_leaves(&self, tree: usize) -> &[(BoxRegion, Label)] {
        &self.per_tree[tree]
    }

    /// Total number of leaves across all trees.
    pub fn total_leaves(&self) -> usize {
        self.per_tree.iter().map(|leaves| leaves.len()).sum()
    }
}

/// Resource budget and search-space configuration of the forgery solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Maximum number of search nodes (leaf-choice expansions) explored
    /// before giving up.
    pub max_nodes: u64,
    /// Wall-clock budget in milliseconds before giving up.
    pub time_budget_ms: u64,
    /// Closed data domain applied to every feature (`None` leaves features
    /// unconstrained, as required by the 3SAT reduction whose variables use
    /// the sign of the feature value).
    pub domain: Option<(f64, f64)>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            max_nodes: 2_000_000,
            time_budget_ms: 10_000,
            domain: Some((0.0, 1.0)),
        }
    }
}

impl SolverConfig {
    /// A tight budget for unit tests and quick experiments.
    pub fn fast() -> Self {
        Self {
            max_nodes: 200_000,
            time_budget_ms: 1_000,
            domain: Some((0.0, 1.0)),
        }
    }

    /// No data-domain constraint (used by the 3SAT reduction).
    pub fn unconstrained_domain(mut self) -> Self {
        self.domain = None;
        self
    }
}

/// A forgery query: the required per-tree predictions plus an optional
/// locality constraint around a reference instance.
#[derive(Debug, Clone)]
pub struct ForgeryQuery<'a> {
    /// Required prediction of each tree, in tree order.
    pub required: Vec<Label>,
    /// Optional `(reference instance, epsilon)` L∞ locality constraint.
    pub reference: Option<(&'a [f64], f64)>,
}

impl<'a> ForgeryQuery<'a> {
    /// Builds the per-tree required predictions for a `num_classes`-class
    /// label space: tree `i` must predict `label` iff bit `i` is 0, and
    /// the deterministically rotated label `(c + 1) mod k` otherwise —
    /// the same rotation the watermarking embed and verify paths use. For
    /// `k = 2` the rotation is the paper's label flip.
    pub fn from_signature_bits(
        bits: &[bool],
        label: Label,
        num_classes: usize,
        reference: Option<(&'a [f64], f64)>,
    ) -> Self {
        let required = bits
            .iter()
            .map(|&bit| if bit { label.rotated(num_classes) } else { label })
            .collect();
        Self { required, reference }
    }
}

/// Outcome of a forgery attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ForgeryOutcome {
    /// A satisfying instance was found.
    Forged {
        /// The forged instance.
        instance: Vec<f64>,
        /// Number of search nodes explored.
        nodes_explored: u64,
    },
    /// The constraint system is unsatisfiable (exhaustive search finished
    /// without a solution).
    Unsatisfiable {
        /// Number of search nodes explored.
        nodes_explored: u64,
    },
    /// The node or time budget was exhausted before a conclusion.
    BudgetExhausted {
        /// Number of search nodes explored.
        nodes_explored: u64,
    },
}

impl ForgeryOutcome {
    /// The forged instance, if any.
    pub fn instance(&self) -> Option<&[f64]> {
        match self {
            ForgeryOutcome::Forged { instance, .. } => Some(instance),
            _ => None,
        }
    }

    /// `true` when a satisfying instance was found.
    pub fn is_forged(&self) -> bool {
        matches!(self, ForgeryOutcome::Forged { .. })
    }
}

/// DPLL-style solver over leaf-box choices.
#[derive(Debug, Clone, Default)]
pub struct ForgerySolver {
    /// Search configuration.
    pub config: SolverConfig,
}

impl ForgerySolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// Attempts to find an instance realizing the required per-tree
    /// predictions.
    ///
    /// # Panics
    /// Panics if `query.required.len()` does not match the number of trees
    /// in the index, or the reference instance has the wrong
    /// dimensionality.
    pub fn solve(&self, index: &LeafIndex, query: &ForgeryQuery<'_>) -> ForgeryOutcome {
        assert_eq!(
            query.required.len(),
            index.num_trees(),
            "one required prediction per tree is needed"
        );
        let dims = index.num_features();

        // Base box: data domain intersected with the L∞ ball.
        let mut base = match self.config.domain {
            Some((lo, hi)) => BoxRegion::cube(dims, lo, hi),
            None => BoxRegion::unbounded(dims),
        };
        if let Some((reference, epsilon)) = query.reference {
            assert_eq!(
                reference.len(),
                dims,
                "reference instance dimensionality mismatch"
            );
            base = base.intersect(&BoxRegion::linf_ball(reference, epsilon));
            if !base.is_feasible() {
                return ForgeryOutcome::Unsatisfiable { nodes_explored: 0 };
            }
        }

        // Candidate leaf boxes per tree: leaves with the required label that
        // still intersect the base box.
        let mut candidates: Vec<Vec<BoxRegion>> = Vec::with_capacity(index.num_trees());
        for (tree, &required_label) in query.required.iter().enumerate() {
            let boxes: Vec<BoxRegion> = index
                .tree_leaves(tree)
                .iter()
                .filter(|(_, label)| *label == required_label)
                .filter_map(|(region, _)| region.intersect_feasible(&base))
                .collect();
            if boxes.is_empty() {
                return ForgeryOutcome::Unsatisfiable { nodes_explored: 0 };
            }
            candidates.push(boxes);
        }

        // Fail-first ordering: constrain the trees with the fewest
        // compatible leaves first.
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by_key(|&tree| candidates[tree].len());

        let deadline = Instant::now() + Duration::from_millis(self.config.time_budget_ms);
        let mut search = Search {
            candidates: &candidates,
            order: &order,
            reference: query.reference.map(|(r, _)| r),
            max_nodes: self.config.max_nodes,
            deadline,
            nodes_explored: 0,
            budget_hit: false,
        };
        match search.descend(0, base) {
            Some(instance) => ForgeryOutcome::Forged {
                instance,
                nodes_explored: search.nodes_explored,
            },
            None if search.budget_hit => ForgeryOutcome::BudgetExhausted {
                nodes_explored: search.nodes_explored,
            },
            None => ForgeryOutcome::Unsatisfiable {
                nodes_explored: search.nodes_explored,
            },
        }
    }
}

struct Search<'a> {
    candidates: &'a [Vec<BoxRegion>],
    order: &'a [usize],
    reference: Option<&'a [f64]>,
    max_nodes: u64,
    deadline: Instant,
    nodes_explored: u64,
    budget_hit: bool,
}

impl<'a> Search<'a> {
    /// Depth-first search choosing one leaf box for the `position`-th tree
    /// in the fail-first order, keeping the running intersection feasible.
    fn descend(&mut self, position: usize, current: BoxRegion) -> Option<Vec<f64>> {
        if position == self.order.len() {
            return current.witness(self.reference);
        }
        let tree = self.order[position];
        for candidate in &self.candidates[tree] {
            self.nodes_explored += 1;
            if self.nodes_explored > self.max_nodes {
                self.budget_hit = true;
                return None;
            }
            // Checking the clock on every node would be wasteful; every
            // 1024 nodes keeps the overhead negligible while still
            // enforcing the budget tightly enough for the experiments.
            if self.nodes_explored.is_multiple_of(1024) && Instant::now() > self.deadline {
                self.budget_hit = true;
                return None;
            }
            if let Some(narrowed) = current.intersect_feasible(candidate) {
                if let Some(solution) = self.descend(position + 1, narrowed) {
                    return Some(solution);
                }
                if self.budget_hit {
                    return None;
                }
            }
        }
        None
    }
}

/// Convenience helper verifying that an instance actually realizes the
/// required per-tree predictions on the given forest.
pub fn satisfies_pattern(forest: &RandomForest, instance: &[f64], required: &[Label]) -> bool {
    forest.predict_all(instance).iter().zip(required).all(|(got, want)| got == want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::{ClassCounts, SyntheticSpec};
    use wdte_trees::{DecisionTree, ForestParams, Node};

    /// A stump predicting Positive iff x[feature] > threshold.
    fn stump(num_features: usize, feature: usize, threshold: f64) -> DecisionTree {
        DecisionTree::from_nodes(
            vec![
                Node::Internal {
                    feature,
                    threshold,
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
            ],
            num_features,
        )
    }

    #[test]
    fn solves_the_paper_example_ensemble() {
        // Figure 1 ensemble: tree 1 = x1<=5 ? (x2<=3 ? +1 : -1) : (x3<=7 ? -1 : +1)
        //                    tree 2 = x1<=2 ? (x2<=4 ? +1 : -1) : (x3<=6 ? -1 : +1)
        let tree1 = DecisionTree::from_nodes(
            vec![
                Node::Internal {
                    feature: 0,
                    threshold: 5.0,
                    left: 1,
                    right: 4,
                },
                Node::Internal {
                    feature: 1,
                    threshold: 3.0,
                    left: 2,
                    right: 3,
                },
                Node::Leaf {
                    label: Label::Positive,
                    counts: ClassCounts::new(),
                },
                Node::Leaf {
                    label: Label::Negative,
                    counts: ClassCounts::new(),
                },
                Node::Internal {
                    feature: 2,
                    threshold: 7.0,
                    left: 5,
                    right: 6,
                },
                Node::Leaf {
                    label: Label::Negative,
                    counts: ClassCounts::new(),
                },
                Node::Leaf {
                    label: Label::Positive,
                    counts: ClassCounts::new(),
                },
            ],
            3,
        );
        let tree2 = DecisionTree::from_nodes(
            vec![
                Node::Internal {
                    feature: 0,
                    threshold: 2.0,
                    left: 1,
                    right: 4,
                },
                Node::Internal {
                    feature: 1,
                    threshold: 4.0,
                    left: 2,
                    right: 3,
                },
                Node::Leaf {
                    label: Label::Positive,
                    counts: ClassCounts::new(),
                },
                Node::Leaf {
                    label: Label::Negative,
                    counts: ClassCounts::new(),
                },
                Node::Internal {
                    feature: 2,
                    threshold: 6.0,
                    left: 5,
                    right: 6,
                },
                Node::Leaf {
                    label: Label::Negative,
                    counts: ClassCounts::new(),
                },
                Node::Leaf {
                    label: Label::Positive,
                    counts: ClassCounts::new(),
                },
            ],
            3,
        );
        let forest = RandomForest::from_trees(vec![tree1, tree2]);
        let index = LeafIndex::new(&forest);
        // Fake signature 01 with target +1: tree 1 must predict +1, tree 2
        // must predict -1. The paper's satisfying assignment is (4, 3, 5).
        let query = ForgeryQuery {
            required: vec![Label::Positive, Label::Negative],
            reference: None,
        };
        let solver = ForgerySolver::new(SolverConfig::default().unconstrained_domain());
        let outcome = solver.solve(&index, &query);
        let instance = outcome.instance().expect("the paper's example is satisfiable");
        assert!(satisfies_pattern(&forest, instance, &query.required));
    }

    #[test]
    fn detects_unsatisfiable_patterns() {
        // Two identical stumps cannot disagree with each other.
        let forest = RandomForest::from_trees(vec![stump(1, 0, 0.5), stump(1, 0, 0.5)]);
        let index = LeafIndex::new(&forest);
        let query = ForgeryQuery {
            required: vec![Label::Positive, Label::Negative],
            reference: None,
        };
        let solver = ForgerySolver::default();
        let outcome = solver.solve(&index, &query);
        assert!(matches!(outcome, ForgeryOutcome::Unsatisfiable { .. }));
    }

    #[test]
    fn epsilon_ball_restricts_the_search() {
        let forest = RandomForest::from_trees(vec![stump(2, 0, 0.5)]);
        let index = LeafIndex::new(&forest);
        let reference = [0.1, 0.3];
        // Requiring the positive side (x0 > 0.5) within eps=0.1 of x0=0.1 is impossible…
        let tight = ForgeryQuery {
            required: vec![Label::Positive],
            reference: Some((&reference, 0.1)),
        };
        let solver = ForgerySolver::default();
        assert!(matches!(
            solver.solve(&index, &tight),
            ForgeryOutcome::Unsatisfiable { .. }
        ));
        // …but possible with eps=0.6, and the witness stays inside the ball
        // and inside [0, 1].
        let loose = ForgeryQuery {
            required: vec![Label::Positive],
            reference: Some((&reference, 0.6)),
        };
        let outcome = solver.solve(&index, &loose);
        let instance = outcome.instance().expect("solvable with a larger ball");
        assert!(instance[0] > 0.5 && instance[0] <= 0.7 + 1e-9);
        assert!((instance[1] - 0.3).abs() <= 0.6 + 1e-9);
        assert!(satisfies_pattern(&forest, instance, &[Label::Positive]));
    }

    #[test]
    fn witness_prefers_reference_coordinates_on_untouched_features() {
        let forest = RandomForest::from_trees(vec![stump(3, 0, 0.5)]);
        let index = LeafIndex::new(&forest);
        let reference = [0.2, 0.77, 0.33];
        let query = ForgeryQuery {
            required: vec![Label::Positive],
            reference: Some((&reference, 0.9)),
        };
        let outcome = ForgerySolver::default().solve(&index, &query);
        let instance = outcome.instance().unwrap();
        // Features 1 and 2 are untested by the stump: they keep the
        // reference values exactly, minimizing visual distortion.
        assert_eq!(instance[1], 0.77);
        assert_eq!(instance[2], 0.33);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A real forest with a tiny node budget: the solver must give up
        // rather than hang.
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.4)
            .generate(&mut SmallRng::seed_from_u64(1));
        let forest = RandomForest::fit(
            &dataset,
            &ForestParams::with_trees(20),
            &mut SmallRng::seed_from_u64(2),
        );
        let index = LeafIndex::new(&forest);
        // Alternating required labels make the pattern hard to realize.
        let required: Vec<Label> = (0..forest.num_trees())
            .map(|i| {
                if i % 2 == 0 {
                    Label::Positive
                } else {
                    Label::Negative
                }
            })
            .collect();
        let reference = vec![0.5; dataset.num_features()];
        let query = ForgeryQuery {
            required,
            reference: Some((&reference, 0.05)),
        };
        let solver = ForgerySolver::new(SolverConfig {
            max_nodes: 50,
            time_budget_ms: 10_000,
            domain: Some((0.0, 1.0)),
        });
        let outcome = solver.solve(&index, &query);
        // With 50 nodes we either conclude quickly or hit the budget; both
        // are acceptable, but a Forged result must actually satisfy the
        // pattern.
        if let ForgeryOutcome::Forged { instance, .. } = &outcome {
            assert!(satisfies_pattern(&forest, instance, &query.required));
        }
    }

    #[test]
    fn forged_instances_on_trained_forests_satisfy_their_pattern() {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.5)
            .generate(&mut SmallRng::seed_from_u64(5));
        let forest = RandomForest::fit(
            &dataset,
            &ForestParams::with_trees(9),
            &mut SmallRng::seed_from_u64(6),
        );
        let index = LeafIndex::new(&forest);
        assert_eq!(index.num_trees(), 9);
        assert!(index.total_leaves() >= 9);
        // Ask every tree to agree with its own prediction of a real
        // instance: trivially satisfiable, and the solver must confirm it.
        let reference: Vec<f64> = dataset.instance(0).to_vec();
        let required = forest.predict_all(&reference);
        let query = ForgeryQuery {
            required: required.clone(),
            reference: Some((&reference, 0.2)),
        };
        let outcome = ForgerySolver::default().solve(&index, &query);
        let instance = outcome.instance().expect("self-consistent pattern must be satisfiable");
        assert!(satisfies_pattern(&forest, instance, &required));
    }

    #[test]
    fn from_signature_bits_maps_bits_to_required_labels() {
        let query = ForgeryQuery::from_signature_bits(&[false, true, false], Label::Positive, 2, None);
        assert_eq!(
            query.required,
            vec![Label::Positive, Label::Negative, Label::Positive]
        );
        let query = ForgeryQuery::from_signature_bits(&[true], Label::Negative, 2, None);
        assert_eq!(query.required, vec![Label::Positive]);
        let class_2 = Label::from_index(2).unwrap();
        let query = ForgeryQuery::from_signature_bits(&[true, false], class_2, 3, None);
        assert_eq!(query.required, vec![Label::Negative, class_2]);
    }
}
