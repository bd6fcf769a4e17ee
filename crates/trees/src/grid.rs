//! Grid search over forest hyper-parameters with stratified k-fold cross
//! validation (`GridSearch(D_train, m)` in Algorithm 1).

use crate::forest::RandomForest;
use crate::params::{ForestParams, SplitCriterion, SplitStrategy, TreeParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use wdte_data::{stratified_k_folds, Dataset};

/// The hyper-parameter grid explored by [`GridSearch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamGrid {
    /// Candidate maximum depths (`None` = unlimited).
    pub max_depths: Vec<Option<usize>>,
    /// Candidate maximum leaf counts (`None` = unlimited).
    pub max_leaves: Vec<Option<usize>>,
    /// Candidate minimum samples per leaf.
    pub min_samples_leaf: Vec<usize>,
    /// Candidate split criteria.
    pub criteria: Vec<SplitCriterion>,
}

impl Default for ParamGrid {
    fn default() -> Self {
        Self {
            max_depths: vec![Some(4), Some(8), Some(12), None],
            max_leaves: vec![Some(16), Some(64), None],
            min_samples_leaf: vec![1],
            criteria: vec![SplitCriterion::Gini],
        }
    }
}

impl ParamGrid {
    /// A deliberately small grid for tests and quick experiments.
    pub fn small() -> Self {
        Self {
            max_depths: vec![Some(4), Some(8)],
            max_leaves: vec![Some(32), None],
            min_samples_leaf: vec![1],
            criteria: vec![SplitCriterion::Gini],
        }
    }

    /// Enumerates every [`TreeParams`] combination in the grid, using the
    /// default (exact presorted) split strategy.
    pub fn combinations(&self) -> Vec<TreeParams> {
        self.combinations_with(SplitStrategy::default())
    }

    /// Enumerates every [`TreeParams`] combination in the grid with the
    /// given split strategy. The grid does not explore strategies — they
    /// grow identical trees at different speeds, so the strategy is not a
    /// tuned hyper-parameter.
    pub fn combinations_with(&self, strategy: SplitStrategy) -> Vec<TreeParams> {
        let mut combos = Vec::new();
        for &max_depth in &self.max_depths {
            for &max_leaves in &self.max_leaves {
                for &min_samples_leaf in &self.min_samples_leaf {
                    for &criterion in &self.criteria {
                        combos.push(TreeParams {
                            max_depth,
                            max_leaves,
                            min_samples_split: 2,
                            min_samples_leaf,
                            criterion,
                            strategy,
                        });
                    }
                }
            }
        }
        combos
    }
}

/// Result of evaluating one grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPointResult {
    /// The per-tree hyper-parameters evaluated.
    pub tree_params: TreeParams,
    /// Mean validation accuracy across folds.
    pub mean_accuracy: f64,
    /// Per-fold validation accuracies.
    pub fold_accuracies: Vec<f64>,
}

/// Outcome of a full grid search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSearchResult {
    /// Forest parameters achieving the best mean validation accuracy.
    pub best_params: ForestParams,
    /// Mean validation accuracy of the best grid point.
    pub best_accuracy: f64,
    /// Every evaluated grid point, in evaluation order.
    pub all_results: Vec<GridPointResult>,
}

/// Cross-validated grid search over [`ParamGrid`] for a forest of
/// `base_params.num_trees` trees.
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Grid of per-tree hyper-parameters to explore.
    pub grid: ParamGrid,
    /// Number of cross-validation folds.
    pub folds: usize,
    /// Forest-level parameters (tree count, feature subset) reused for
    /// every grid point.
    pub base_params: ForestParams,
}

impl GridSearch {
    /// Creates a grid search with the default grid and 3 folds.
    pub fn new(base_params: ForestParams) -> Self {
        Self {
            grid: ParamGrid::default(),
            folds: 3,
            base_params,
        }
    }

    /// Creates a grid search with a small grid, for fast runs.
    pub fn fast(base_params: ForestParams) -> Self {
        Self {
            grid: ParamGrid::small(),
            folds: 2,
            base_params,
        }
    }

    /// Runs the search and returns the best hyper-parameters.
    ///
    /// Every (grid point, fold) pair is an independent task fanned out
    /// across worker threads, each training from its own seed derived from
    /// `rng` — so results are bit-identical for a fixed seed regardless of
    /// the worker-thread count, and load balances even when one expensive
    /// grid point (e.g. unlimited depth) dominates. Ties are broken towards
    /// the *smaller* structural budget (shallower, fewer leaves), matching
    /// the intuition that the paper's adjustment heuristic prefers compact
    /// trees.
    pub fn run<R: Rng + ?Sized>(&self, dataset: &Dataset, rng: &mut R) -> GridSearchResult {
        assert!(!dataset.is_empty(), "grid search needs data");
        let folds = stratified_k_folds(dataset, self.folds.max(2), rng);
        // Materialize each fold's train/validation datasets once, shared by
        // every grid point: all points then reuse one presort cache per
        // fold instead of re-selecting (and re-sorting) per point.
        let fold_datasets: Vec<(Dataset, Dataset)> = folds
            .iter()
            .map(|fold| {
                let train = dataset.select(&fold.train_indices).expect("fold indices valid");
                let validation = dataset.select(&fold.validation_indices).expect("fold indices valid");
                (train, validation)
            })
            .collect();
        // Grid points inherit the base split strategy.
        let combos = self.grid.combinations_with(self.base_params.tree.strategy);
        // One derived seed per (grid point, fold) pair, drawn before the
        // fan-out in (point-major, fold-minor) order, so results are
        // bit-identical no matter how tasks land on threads — and
        // identical to the earlier flattened single-level implementation,
        // which consumed the master RNG in the same order.
        let num_folds = fold_datasets.len();
        let seeds: Vec<u64> = (0..combos.len() * num_folds).map(|_| rng.gen()).collect();

        // Nested fan-out: grid points at the outer level, folds inside
        // each point (and `RandomForest::fit` fans out per tree below
        // that). The work-stealing pool schedules all three levels
        // together, so an expensive grid point (e.g. unlimited depth)
        // still spreads its folds and trees across idle workers instead
        // of serializing under one.
        let fold_results: Vec<Vec<Option<f64>>> = (0..combos.len())
            .into_par_iter()
            .map(|combo| -> Vec<Option<f64>> {
                (0..num_folds)
                    .into_par_iter()
                    .map(|fold| {
                        let (train, validation) = &fold_datasets[fold];
                        if train.is_empty() || validation.is_empty() {
                            return None;
                        }
                        let params = self.base_params.with_tree_params(combos[combo]);
                        let seed = seeds[combo * num_folds + fold];
                        let forest =
                            RandomForest::fit(train, &params, &mut SmallRng::seed_from_u64(seed));
                        Some(forest.accuracy(validation))
                    })
                    .collect()
            })
            .collect();

        let all_results: Vec<GridPointResult> = combos
            .iter()
            .enumerate()
            .map(|(combo, tree_params)| {
                let fold_accuracies: Vec<f64> = fold_results[combo].iter().flatten().copied().collect();
                let mean_accuracy = if fold_accuracies.is_empty() {
                    0.0
                } else {
                    fold_accuracies.iter().sum::<f64>() / fold_accuracies.len() as f64
                };
                GridPointResult {
                    tree_params: *tree_params,
                    mean_accuracy,
                    fold_accuracies,
                }
            })
            .collect();

        let best = all_results
            .iter()
            .max_by(|a, b| {
                a.mean_accuracy
                    .partial_cmp(&b.mean_accuracy)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| {
                        // Prefer smaller budgets on ties: compare in reverse.
                        let size = |p: &GridPointResult| {
                            (
                                p.tree_params.max_depth.unwrap_or(usize::MAX),
                                p.tree_params.max_leaves.unwrap_or(usize::MAX),
                            )
                        };
                        size(b).cmp(&size(a))
                    })
            })
            .expect("grid has at least one point");

        GridSearchResult {
            best_params: self.base_params.with_tree_params(best.tree_params),
            best_accuracy: best.mean_accuracy,
            all_results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdte_data::SyntheticSpec;

    #[test]
    fn grid_enumerates_all_combinations() {
        let grid = ParamGrid::default();
        assert_eq!(
            grid.combinations().len(),
            grid.max_depths.len()
                * grid.max_leaves.len()
                * grid.min_samples_leaf.len()
                * grid.criteria.len()
        );
    }

    #[test]
    fn search_returns_a_grid_member_and_reasonable_accuracy() {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.6)
            .generate(&mut SmallRng::seed_from_u64(2));
        let mut rng = SmallRng::seed_from_u64(3);
        let search = GridSearch::fast(ForestParams::with_trees(9));
        let result = search.run(&dataset, &mut rng);
        assert!(
            result.best_accuracy > 0.85,
            "best CV accuracy {}",
            result.best_accuracy
        );
        assert!(search.grid.combinations().contains(&result.best_params.tree));
        assert_eq!(result.all_results.len(), search.grid.combinations().len());
        assert_eq!(result.best_params.num_trees, 9);
    }

    #[test]
    fn search_is_identical_with_one_worker_and_many() {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.4)
            .generate(&mut SmallRng::seed_from_u64(4));
        let search = GridSearch::fast(ForestParams::with_trees(5));
        let parallel = search.run(&dataset, &mut SmallRng::seed_from_u64(13));
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let serial = pool.install(|| search.run(&dataset, &mut SmallRng::seed_from_u64(13)));
        assert_eq!(parallel.best_params, serial.best_params);
        assert_eq!(parallel.all_results, serial.all_results);
    }

    #[test]
    fn search_is_deterministic_for_a_fixed_seed() {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.4)
            .generate(&mut SmallRng::seed_from_u64(2));
        let search = GridSearch::fast(ForestParams::with_trees(5));
        let a = search.run(&dataset, &mut SmallRng::seed_from_u64(11));
        let b = search.run(&dataset, &mut SmallRng::seed_from_u64(11));
        assert_eq!(a.best_params, b.best_params);
        assert_eq!(a.best_accuracy, b.best_accuracy);
    }
}
