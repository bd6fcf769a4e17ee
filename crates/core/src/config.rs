//! Configuration of the watermark embedding procedure.

use serde::{Deserialize, Serialize};
use wdte_trees::{FeatureSubset, ParamGrid, TreeParams};

/// Upper bound on a bumped per-sample weight. Without a clamp a
/// multiplicative schedule grows without bound — `Multiplicative(3.0)`
/// overflows `f64` to `inf` after ~650 rounds, and an infinite weight
/// poisons every weighted-impurity computation with NaNs. `1e12` is far
/// above any weight needed to isolate a trigger instance (unit weights on
/// the rest of the training set) while leaving ~4 decimal digits of
/// headroom before `f64` precision loss in weight sums.
pub const MAX_TRIGGER_WEIGHT: f64 = 1e12;

/// How the per-sample weights of trigger instances grow between retraining
/// rounds of `TrainWithTrigger`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WeightSchedule {
    /// Add a constant to the trigger weights every round (the paper's
    /// `W[(x, y)] ← W[(x, y)] + 1`).
    Additive(f64),
    /// Multiply the trigger weights by a constant every round. Converges in
    /// far fewer (expensive) retraining rounds and reaches the same fixed
    /// point: trigger weights large enough that every tree isolates the
    /// trigger instances.
    Multiplicative(f64),
}

impl WeightSchedule {
    /// Applies one round of the schedule to a weight, clamped to
    /// [`MAX_TRIGGER_WEIGHT`] so arbitrarily many rounds stay finite.
    pub fn bump(&self, weight: f64) -> f64 {
        let bumped = match *self {
            WeightSchedule::Additive(step) => weight + step,
            WeightSchedule::Multiplicative(factor) => weight * factor,
        };
        bumped.min(MAX_TRIGGER_WEIGHT)
    }
}

/// Configuration of [`crate::Watermarker`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatermarkConfig {
    /// Number of trees `m` of the watermarked ensemble; must equal the
    /// signature length.
    pub num_trees: usize,
    /// Size of the trigger set as a fraction of the training set
    /// (`k = trigger_fraction * |D_train|`, at least one instance).
    pub trigger_fraction: f64,
    /// Per-tree feature subset policy of the random forest.
    pub feature_subset: FeatureSubset,
    /// Hyper-parameter grid searched before embedding (`GridSearch` in
    /// Algorithm 1). `None` skips the search and uses [`Self::tree_params`]
    /// directly.
    pub grid: Option<ParamGrid>,
    /// Number of cross-validation folds used by the grid search.
    pub grid_folds: usize,
    /// Tree parameters used when no grid is given; a grid point sets both
    /// budgets itself.
    pub tree_params: TreeParams,
    /// Weight growth schedule of the trigger-forcing loop.
    pub weight_schedule: WeightSchedule,
    /// Maximum number of retraining rounds per sub-ensemble.
    pub max_weight_rounds: usize,
    /// Number of non-compliant rounds after which the structural budget is
    /// relaxed one step (an escape hatch the paper does not need to
    /// discuss; see DESIGN.md).
    pub relax_after: usize,
    /// When `true`, embedding fails with an error if full compliance on the
    /// trigger set cannot be reached; when `false`, the partially compliant
    /// model is returned and the diagnostics record the gap.
    pub strict: bool,
}

impl Default for WatermarkConfig {
    fn default() -> Self {
        Self {
            num_trees: 90,
            trigger_fraction: 0.02,
            feature_subset: FeatureSubset::Sqrt,
            grid: Some(ParamGrid::default()),
            grid_folds: 3,
            tree_params: TreeParams::default(),
            weight_schedule: WeightSchedule::Additive(1.0),
            max_weight_rounds: 60,
            relax_after: 20,
            strict: true,
        }
    }
}

impl WatermarkConfig {
    /// Paper-faithful defaults: 90 trees, 2% trigger set, grid search,
    /// additive weight growth.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// A fast preset for tests, examples and laptop-scale experiments:
    /// no grid search, bounded trees, multiplicative weight growth and a
    /// forgiving compliance policy.
    pub fn fast() -> Self {
        Self {
            num_trees: 16,
            trigger_fraction: 0.02,
            feature_subset: FeatureSubset::Sqrt,
            grid: None,
            grid_folds: 2,
            tree_params: TreeParams {
                max_depth: Some(8),
                max_leaves: Some(64),
            },
            weight_schedule: WeightSchedule::Multiplicative(3.0),
            max_weight_rounds: 25,
            relax_after: 8,
            strict: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_schedules_grow_weights() {
        assert_eq!(WeightSchedule::Additive(1.0).bump(3.0), 4.0);
        assert_eq!(WeightSchedule::Multiplicative(2.0).bump(3.0), 6.0);
    }

    #[test]
    fn bumped_weights_stay_finite_forever() {
        for schedule in [
            WeightSchedule::Multiplicative(3.0),
            WeightSchedule::Additive(1e11),
        ] {
            let mut weight = 1.0;
            for _ in 0..5_000 {
                weight = schedule.bump(weight);
                assert!(weight.is_finite());
                assert!(weight <= MAX_TRIGGER_WEIGHT);
            }
            assert_eq!(weight, MAX_TRIGGER_WEIGHT, "{schedule:?} reaches the clamp");
        }
    }

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let config = WatermarkConfig::paper_default();
        assert_eq!(config.num_trees, 90);
        assert!((config.trigger_fraction - 0.02).abs() < 1e-12);
        assert!(config.grid.is_some());
        assert!(matches!(config.weight_schedule, WeightSchedule::Additive(step) if step == 1.0));
    }

    #[test]
    fn fast_preset_is_bounded() {
        let config = WatermarkConfig::fast();
        assert!(config.num_trees <= 32);
        assert!(config.grid.is_none());
        assert!(config.tree_params.max_depth.is_some());
        assert!(!config.strict);
    }
}
