//! Multi-class experiment driver: the end-to-end k-class sweep.
//!
//! The paper's protocol is stated for binary classifiers; the codebase
//! generalizes it to k classes with the deterministic label rotation
//! `(c + 1) mod k` taking the place of the label flip. This module drives
//! the whole k-class stack end to end for each `k` in the sweep:
//!
//! 1. **generate** a k-class synthetic dataset
//!    ([`wdte_data::synth::MultiClassSpec`]) and split it stratified;
//! 2. **embed** a random signature with the standard watermarking
//!    pipeline;
//! 3. **persist** the watermarked model to disk and reload it, proving
//!    the k-class artefact round-trips through the format-v2 codec;
//! 4. **serve** the reloaded model from a [`DisputeService`] and resolve
//!    the owner's genuine claim against it;
//! 5. **verify** that the watermark holds and report test-set quality as
//!    accuracy plus macro-averaged F1 over the k×k confusion matrix.

use crate::settings::ExperimentSettings;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use wdte_core::{
    persist, watermark_holds, DisputeService, OwnershipClaim, Signature, WatermarkConfig,
    WatermarkOutcome, Watermarker,
};
use wdte_data::metrics::ConfusionMatrix;
use wdte_data::synth::MultiClassSpec;
use wdte_data::{Dataset, Label};
use wdte_trees::{RandomForest, TreeParams};

/// The class counts exercised by the default sweep.
pub const K_SWEEP: [usize; 4] = [2, 3, 5, 10];

/// One row of the k-class sweep report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiClassRow {
    /// Number of classes `k`.
    pub num_classes: usize,
    /// Ensemble size (and signature length).
    pub num_trees: usize,
    /// Trigger-set size.
    pub trigger_size: usize,
    /// Test-set accuracy of the watermarked model.
    pub test_accuracy: f64,
    /// Macro-averaged F1 over the k×k confusion matrix.
    pub macro_f1: f64,
    /// Whether every tree honours its signature bit on the trigger set.
    pub watermark_holds: bool,
    /// Whether the persisted model reloaded bit-identically.
    pub persisted_round_trip: bool,
    /// Whether the dispute service verified the owner's genuine claim.
    pub claim_verified: bool,
    /// Signature bit agreement reported by the judge.
    pub bit_agreement: f64,
}

/// Watermarking configuration for the synthetic k-class workloads: the
/// laptop-scale pipeline with an ensemble size that keeps the sweep fast
/// while leaving room for a multi-bit signature.
pub fn multiclass_config(num_trees: usize) -> WatermarkConfig {
    WatermarkConfig {
        num_trees,
        tree_params: TreeParams {
            max_depth: Some(10),
            max_leaves: Some(128),
        },
        ..WatermarkConfig::fast()
    }
}

/// Embeds a watermark into a model trained on a fresh k-class synthetic
/// dataset, returning the outcome plus the held-out test split.
pub fn prepare_multiclass_setup(
    settings: &ExperimentSettings,
    num_classes: usize,
) -> (WatermarkOutcome, Dataset) {
    let mut rng = SmallRng::seed_from_u64(settings.seed.wrapping_mul(97) ^ num_classes as u64);
    let spec = if settings.full_scale {
        MultiClassSpec::k_class(num_classes).scaled(2.0)
    } else {
        MultiClassSpec::k_class(num_classes)
    };
    let dataset = spec.generate(&mut rng);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);
    let num_trees = if settings.full_scale { 40 } else { 16 };
    let signature = Signature::random(num_trees, 0.5, &mut rng);
    let watermarker = Watermarker::new(multiclass_config(num_trees));
    let outcome = watermarker
        .embed(&train, &signature, &mut rng)
        .expect("non-strict embedding succeeds");
    (outcome, test)
}

/// Test-set accuracy and macro-F1 of a model via the k×k confusion matrix.
fn test_quality(model: &RandomForest, test: &Dataset) -> (f64, f64) {
    let truth: Vec<Label> = test.iter().map(|(_, label)| label).collect();
    let predicted: Vec<Label> = test.iter().map(|(instance, _)| model.predict(instance)).collect();
    let matrix = ConfusionMatrix::from_predictions_with_classes(&truth, &predicted, test.num_classes());
    (matrix.accuracy(), matrix.macro_f1())
}

/// Runs the full embed → persist → serve → verify pipeline for one `k`.
///
/// The model is persisted under `results/models-kclass/` and *reloaded
/// from disk* before serving, so the row exercises the persistence codec
/// and the dispute service on exactly the artefact a real deployment
/// would ship.
pub fn multiclass_row(settings: &ExperimentSettings, num_classes: usize) -> MultiClassRow {
    let (outcome, test) = prepare_multiclass_setup(settings, num_classes);
    let holds = watermark_holds(&outcome.model, &outcome.signature, &outcome.trigger_set);

    let dir = crate::report::results_dir().join("models-kclass");
    let path = dir.join(format!("synth-k{num_classes}.model.wdte"));
    let served = match std::fs::create_dir_all(&dir)
        .map_err(|err| err.to_string())
        .and_then(|()| {
            persist::save(&path, &outcome.model, persist::Format::Binary).map_err(|err| err.to_string())
        })
        .and_then(|()| persist::load::<RandomForest>(&path).map_err(|err| err.to_string()))
    {
        Ok(reloaded) => {
            println!("[saved {}]", path.display());
            Some(reloaded)
        }
        Err(err) => {
            eprintln!("warning: persistence round trip failed for k={num_classes}: {err}");
            None
        }
    };
    let round_trip = served.as_ref() == Some(&outcome.model);

    // Serve the *reloaded* artefact when the round trip worked, falling
    // back to the in-memory model so the sweep still reports a verdict.
    let service = DisputeService::builder().build().expect("an empty builder always builds");
    let model_id = format!("synth-k{num_classes}");
    service.register(&model_id, served.as_ref().unwrap_or(&outcome.model));
    let claim = OwnershipClaim::new(
        outcome.signature.clone(),
        outcome.trigger_set.clone(),
        test.clone(),
    );
    let report = service.resolve(&model_id, &claim).expect("the model was just registered");

    let (test_accuracy, macro_f1) = test_quality(&outcome.model, &test);
    MultiClassRow {
        num_classes,
        num_trees: outcome.model.num_trees(),
        trigger_size: outcome.trigger_set.len(),
        test_accuracy,
        macro_f1,
        watermark_holds: holds,
        persisted_round_trip: round_trip,
        claim_verified: report.verified,
        bit_agreement: report.bit_agreement,
    }
}

/// Runs the sweep over `K_SWEEP`.
pub fn multiclass_sweep(settings: &ExperimentSettings) -> Vec<MultiClassRow> {
    K_SWEEP.iter().map(|&k| multiclass_row(settings, k)).collect()
}

/// Prints the sweep rows as a console table.
pub fn print_multiclass(rows: &[MultiClassRow]) {
    println!(
        "{:>4} {:>7} {:>9} {:>10} {:>9} {:>7} {:>11} {:>9} {:>11}",
        "k",
        "trees",
        "|trigger|",
        "accuracy",
        "macro-F1",
        "holds",
        "round-trip",
        "verified",
        "agreement"
    );
    for row in rows {
        println!(
            "{:>4} {:>7} {:>9} {:>10.3} {:>9.3} {:>7} {:>11} {:>9} {:>11.3}",
            row.num_classes,
            row.num_trees,
            row.trigger_size,
            row.test_accuracy,
            row.macro_f1,
            row.watermark_holds,
            row.persisted_round_trip,
            row.claim_verified,
            row.bit_agreement
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_class_pipeline_runs_end_to_end() {
        let settings = ExperimentSettings {
            seed: 11,
            ..ExperimentSettings::laptop()
        };
        let row = multiclass_row(&settings, 3);
        assert_eq!(row.num_classes, 3);
        assert!(row.watermark_holds, "the embedded watermark must hold");
        assert!(
            row.persisted_round_trip,
            "persist must round-trip the 3-class model"
        );
        assert!(row.claim_verified, "the genuine claim must verify");
        assert!((row.bit_agreement - 1.0).abs() < 1e-12);
        // A learnable clustered workload should beat chance comfortably.
        assert!(
            row.test_accuracy > 1.0 / 3.0 + 0.1,
            "accuracy {}",
            row.test_accuracy
        );
        assert!(row.macro_f1 > 0.0);
    }
}
