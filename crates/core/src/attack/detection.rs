//! Watermark detection attacks (Section 4.2.1, Table 2).
//!
//! The attacker has white-box access to the stolen model and tries to
//! reconstruct the signature from the structure of the trees: intuitively,
//! trees forced to misclassify the trigger set (bit 1) might need to grow
//! larger than the others. The paper evaluates two strategies based on the
//! per-tree depth or leaf count:
//!
//! 1. **Mean ± std bands** — trees below `mean − std` are guessed as bit 0,
//!    trees above `mean + std` as bit 1, everything in between is left
//!    *uncertain*.
//! 2. **Sharp mean threshold** — trees at or below the mean are guessed as
//!    bit 0, the rest as bit 1 (no uncertainty).

use crate::signature::Signature;
use serde::{Deserialize, Serialize};
use wdte_data::mean_std;
use wdte_trees::{CompiledForest, RandomForest, TreeStats};

/// White-box access to the structural quantities the detection attacker
/// inspects. Implemented both for the pointer-tree [`RandomForest`] and
/// for [`CompiledForest`], so a detection scan can run directly against a
/// compiled artefact loaded from disk.
pub trait StructureOracle {
    /// Structural statistics of every tree, in tree order.
    fn tree_stats(&self) -> Vec<TreeStats>;
}

impl StructureOracle for RandomForest {
    fn tree_stats(&self) -> Vec<TreeStats> {
        RandomForest::tree_stats(self)
    }
}

impl StructureOracle for CompiledForest {
    fn tree_stats(&self) -> Vec<TreeStats> {
        CompiledForest::tree_stats(self)
    }
}

/// Which structural quantity the attacker inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionFeature {
    /// Per-tree depth.
    Depth,
    /// Per-tree number of leaves.
    Leaves,
}

impl DetectionFeature {
    /// Human-readable name used by the Table 2 printer.
    pub fn name(&self) -> &'static str {
        match self {
            DetectionFeature::Depth => "Depth",
            DetectionFeature::Leaves => "#leaves",
        }
    }
}

/// Which guessing strategy the attacker uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionStrategy {
    /// Strategy 1: mean ± std bands with an uncertain middle region.
    MeanStdBands,
    /// Strategy 2: sharp threshold at the mean, no uncertainty.
    MeanThreshold,
}

/// Per-tree guesses produced by a detection attack: `Some(bit)` or `None`
/// for uncertain trees.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionGuess {
    /// Structural quantity inspected.
    pub feature: DetectionFeature,
    /// Strategy used.
    pub strategy: DetectionStrategy,
    /// Mean of the inspected quantity over the ensemble.
    pub mean: f64,
    /// Standard deviation of the inspected quantity over the ensemble.
    pub std: f64,
    /// Per-tree guesses (index-aligned with the ensemble).
    pub guesses: Vec<Option<bool>>,
}

/// Aggregated detection result against the true signature; one row/color of
/// Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Structural quantity inspected.
    pub feature: DetectionFeature,
    /// Strategy used.
    pub strategy: DetectionStrategy,
    /// Number of trees whose guessed bit matches the signature.
    pub correct: usize,
    /// Number of trees whose guessed bit is wrong.
    pub wrong: usize,
    /// Number of trees left uncertain.
    pub uncertain: usize,
    /// Mean of the inspected quantity.
    pub mean: f64,
    /// Standard deviation of the inspected quantity.
    pub std: f64,
}

impl DetectionReport {
    /// Accuracy over the trees the attacker dared to guess
    /// (`correct / (correct + wrong)`); `0.5` when nothing was guessed.
    pub fn guessed_accuracy(&self) -> f64 {
        let guessed = self.correct + self.wrong;
        if guessed == 0 {
            0.5
        } else {
            self.correct as f64 / guessed as f64
        }
    }
}

/// Extracts the inspected structural quantity for every tree.
pub fn structural_values<M: StructureOracle + ?Sized>(model: &M, feature: DetectionFeature) -> Vec<f64> {
    model
        .tree_stats()
        .iter()
        .map(|s| match feature {
            DetectionFeature::Depth => s.depth as f64,
            DetectionFeature::Leaves => s.leaves as f64,
        })
        .collect()
}

/// Runs a detection attack, producing per-tree bit guesses.
pub fn detect_signature<M: StructureOracle + ?Sized>(
    model: &M,
    feature: DetectionFeature,
    strategy: DetectionStrategy,
) -> DetectionGuess {
    let values = structural_values(model, feature);
    let (mean, std) = mean_std(&values);
    let guesses = values
        .iter()
        .map(|&value| match strategy {
            DetectionStrategy::MeanStdBands => {
                if value < mean - std {
                    Some(false)
                } else if value > mean + std {
                    Some(true)
                } else {
                    None
                }
            }
            DetectionStrategy::MeanThreshold => Some(value > mean),
        })
        .collect();
    DetectionGuess {
        feature,
        strategy,
        mean,
        std,
        guesses,
    }
}

/// Runs a detection attack and scores it against the true signature.
pub fn evaluate_detection<M: StructureOracle + ?Sized>(
    model: &M,
    signature: &Signature,
    feature: DetectionFeature,
    strategy: DetectionStrategy,
) -> DetectionReport {
    let guess = detect_signature(model, feature, strategy);
    let mut correct = 0;
    let mut wrong = 0;
    let mut uncertain = 0;
    for (i, guessed) in guess.guesses.iter().enumerate() {
        match guessed {
            None => uncertain += 1,
            Some(bit) if *bit == signature.bit(i) => correct += 1,
            Some(_) => wrong += 1,
        }
    }
    DetectionReport {
        feature,
        strategy,
        correct,
        wrong,
        uncertain,
        mean: guess.mean,
        std: guess.std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::{Dataset, SyntheticSpec};
    use wdte_trees::{ForestParams, RandomForest, TreeParams};

    fn forest_with_mixed_sizes() -> (RandomForest, Signature) {
        // Build an ensemble where the first half is shallow and the second
        // half is deep, with a signature marking the deep ones as bit 1:
        // a best case for the attacker, used to validate the scoring logic.
        let dataset: Dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.5)
            .generate(&mut SmallRng::seed_from_u64(50));
        let mut rng = SmallRng::seed_from_u64(51);
        let shallow = RandomForest::fit(
            &dataset,
            &ForestParams {
                num_trees: 4,
                tree: TreeParams::with_max_depth(1),
                ..ForestParams::default()
            },
            &mut rng,
        );
        let deep = RandomForest::fit(
            &dataset,
            &ForestParams {
                num_trees: 4,
                tree: TreeParams::with_max_depth(10),
                ..ForestParams::default()
            },
            &mut rng,
        );
        let mut trees = shallow.trees().to_vec();
        trees.extend(deep.trees().iter().cloned());
        let forest = RandomForest::from_trees(trees);
        let signature = Signature::from_str_bits("00001111").unwrap();
        (forest, signature)
    }

    #[test]
    fn sharp_threshold_identifies_an_obviously_leaky_ensemble() {
        let (forest, signature) = forest_with_mixed_sizes();
        let report = evaluate_detection(
            &forest,
            &signature,
            DetectionFeature::Depth,
            DetectionStrategy::MeanThreshold,
        );
        assert_eq!(report.uncertain, 0);
        assert_eq!(report.correct + report.wrong, 8);
        assert!(
            report.guessed_accuracy() > 0.9,
            "attack should succeed on a deliberately leaky ensemble"
        );
    }

    #[test]
    fn band_strategy_reports_uncertain_trees() {
        let (forest, signature) = forest_with_mixed_sizes();
        let report = evaluate_detection(
            &forest,
            &signature,
            DetectionFeature::Leaves,
            DetectionStrategy::MeanStdBands,
        );
        assert_eq!(report.correct + report.wrong + report.uncertain, 8);
        assert!(report.std > 0.0);
    }

    #[test]
    fn identical_trees_leave_the_band_attacker_fully_uncertain() {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.3)
            .generate(&mut SmallRng::seed_from_u64(52));
        let mut rng = SmallRng::seed_from_u64(53);
        // Hard structural cap makes every tree identical in depth and leaves.
        let params = ForestParams {
            num_trees: 6,
            tree: TreeParams {
                max_depth: Some(3),
                max_leaves: Some(8),
            },
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&dataset, &params, &mut rng);
        let values = structural_values(&forest, DetectionFeature::Depth);
        let (_, std) = wdte_data::mean_std(&values);
        if std == 0.0 {
            let guess =
                detect_signature(&forest, DetectionFeature::Depth, DetectionStrategy::MeanStdBands);
            // With zero variance nothing is strictly below mean-std or above
            // mean+std, so every tree is uncertain.
            assert!(guess.guesses.iter().all(|g| g.is_none()));
        }
    }

    #[test]
    fn detection_on_a_compiled_artefact_matches_the_pointer_model() {
        let (forest, signature) = forest_with_mixed_sizes();
        let compiled = wdte_trees::CompiledForest::compile(&forest);
        for feature in [DetectionFeature::Depth, DetectionFeature::Leaves] {
            for strategy in [DetectionStrategy::MeanStdBands, DetectionStrategy::MeanThreshold] {
                assert_eq!(
                    evaluate_detection(&compiled, &signature, feature, strategy),
                    evaluate_detection(&forest, &signature, feature, strategy),
                );
            }
        }
    }

    #[test]
    fn structural_values_match_tree_stats() {
        let (forest, _) = forest_with_mixed_sizes();
        let depths = structural_values(&forest, DetectionFeature::Depth);
        let leaves = structural_values(&forest, DetectionFeature::Leaves);
        let stats = forest.tree_stats();
        for i in 0..forest.num_trees() {
            assert_eq!(depths[i], stats[i].depth as f64);
            assert_eq!(leaves[i], stats[i].leaves as f64);
        }
    }

    #[test]
    fn feature_names_for_reporting() {
        assert_eq!(DetectionFeature::Depth.name(), "Depth");
        assert_eq!(DetectionFeature::Leaves.name(), "#leaves");
    }
}
