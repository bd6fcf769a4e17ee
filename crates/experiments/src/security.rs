//! Security experiments (Section 4.2): watermark detection (Table 2),
//! watermark forgery (Figures 4 and 5) and the suppression analysis.

use crate::datasets::PaperDataset;
use crate::settings::ExperimentSettings;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use wdte_core::{
    evaluate_detection, evaluate_suppression, forge_trigger_set_compiled, persist, DetectionFeature,
    DetectionStrategy, Dispute, DisputeService, ForgeryAttackConfig, OwnershipClaim, Signature,
    SuppressionScore, WatermarkOutcome, Watermarker, MODEL_FILE_SUFFIX,
};
use wdte_data::Dataset;
use wdte_solver::LeafIndex;
use wdte_trees::{derive_seeds, rng_from_seed, CompiledForest, RandomForest};

/// A watermarked model plus everything needed to attack it.
pub struct SecuritySetup {
    /// The dataset attacked.
    pub dataset: PaperDataset,
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Watermark embedding outcome.
    pub outcome: WatermarkOutcome,
    /// A standard (non-watermarked) model trained with the same pipeline.
    pub baseline: RandomForest,
}

/// Embeds a watermark on one of the paper datasets with the evaluation
/// defaults (50% ones, 2% trigger set), returning the artefacts the
/// security experiments need.
pub fn prepare_security_setup(settings: &ExperimentSettings, dataset: PaperDataset) -> SecuritySetup {
    let (train, test) = dataset.load_split(settings.dataset_scale(dataset), settings.seed);
    let mut rng = SmallRng::seed_from_u64(settings.seed.wrapping_mul(31) ^ dataset.name().len() as u64);
    let config = settings.watermark_config(dataset);
    let signature = Signature::random(config.num_trees, 0.5, &mut rng);
    let watermarker = Watermarker::new(config);
    let outcome = watermarker
        .embed(&train, &signature, &mut rng)
        .expect("non-strict embedding succeeds");
    let baseline = watermarker.train_baseline(&train, &mut rng);
    SecuritySetup {
        dataset,
        train,
        test,
        outcome,
        baseline,
    }
}

/// Persists the reusable artefacts of a security setup under
/// `results/models/`: the watermarked model as `<dataset>.model.wdte` and
/// the owner's full ownership claim as `<dataset>.claim.wdte`.
/// Later dispute runs — or the `dispute_from_files` example — can then
/// verify and attack the model without retraining it, and
/// `serve_judge --warm-start results/models` serves every saved model
/// under its dataset name. Failures are reported on stderr but never
/// abort the experiment.
pub fn save_model_artifacts(setup: &SecuritySetup) {
    let dir = crate::report::results_dir().join("models");
    let claim = OwnershipClaim::new(
        setup.outcome.signature.clone(),
        setup.outcome.trigger_set.clone(),
        setup.test.clone(),
    );
    let report = |path: &std::path::Path, result: wdte_core::WatermarkResult<()>| match result {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(err) => eprintln!("warning: could not save {}: {err}", path.display()),
    };
    let model_path = dir.join(format!("{}{MODEL_FILE_SUFFIX}", setup.dataset.name()));
    let claim_path = dir.join(format!("{}.claim.wdte", setup.dataset.name()));
    report(
        &model_path,
        persist::save(&model_path, &setup.outcome.model, persist::Format::Binary),
    );
    report(
        &claim_path,
        persist::save(&claim_path, &claim, persist::Format::Binary),
    );
}

/// Adjudicates the owners' genuine claims for every setup as one
/// concurrent [`DisputeService`] docket: each watermarked model is
/// registered (and compiled) once, then all claims resolve in parallel —
/// the serving-side pipeline the persisted `results/models/` artefacts
/// feed. Panics if a genuine claim fails to verify, so experiment runs
/// double as an end-to-end check of the service layer.
pub fn adjudicate_via_service(setups: &[SecuritySetup]) {
    let service = DisputeService::builder().build().expect("an empty builder always builds");
    let disputes: Vec<Dispute> = setups
        .iter()
        .map(|setup| {
            service.register(setup.dataset.name(), &setup.outcome.model);
            let claim = OwnershipClaim::new(
                setup.outcome.signature.clone(),
                setup.outcome.trigger_set.clone(),
                setup.test.clone(),
            );
            Dispute::new(setup.dataset.name(), claim)
        })
        .collect();
    for (setup, verdict) in setups.iter().zip(service.resolve_many(&disputes)) {
        let report = verdict.expect("every dispute names a registered model");
        println!(
            "[dispute] {}: verified={} (bit agreement {:.3}, {} black-box queries)",
            setup.dataset.name(),
            report.verified,
            report.bit_agreement,
            report.queries_issued
        );
        assert!(
            report.verified,
            "genuine claim on {} must verify",
            setup.dataset.name()
        );
    }
    println!(
        "[dispute] {} claims resolved with {} model compilations",
        disputes.len(),
        service.compile_count()
    );
}

/// One row of Table 2 (a dataset × hyper-parameter × strategy cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Dataset name.
    pub dataset: String,
    /// Inspected hyper-parameter (`"Depth"` or `"#leaves"`).
    pub hyper_parameter: String,
    /// Mean of the inspected quantity over the ensemble.
    pub mean: f64,
    /// Standard deviation of the inspected quantity.
    pub std: f64,
    /// Strategy 1 (mean ± std bands): #correct / #wrong / #uncertain.
    pub bands_correct: usize,
    /// Strategy 1 wrong guesses.
    pub bands_wrong: usize,
    /// Strategy 1 uncertain trees.
    pub bands_uncertain: usize,
    /// Strategy 2 (sharp mean threshold): #correct.
    pub threshold_correct: usize,
    /// Strategy 2 wrong guesses.
    pub threshold_wrong: usize,
}

/// Runs the watermark-detection experiment for one prepared setup.
pub fn table2_rows(setup: &SecuritySetup) -> Vec<Table2Row> {
    [DetectionFeature::Depth, DetectionFeature::Leaves]
        .iter()
        .map(|&feature| {
            let bands = evaluate_detection(
                &setup.outcome.model,
                &setup.outcome.signature,
                feature,
                DetectionStrategy::MeanStdBands,
            );
            let threshold = evaluate_detection(
                &setup.outcome.model,
                &setup.outcome.signature,
                feature,
                DetectionStrategy::MeanThreshold,
            );
            Table2Row {
                dataset: setup.dataset.name().to_string(),
                hyper_parameter: feature.name().to_string(),
                mean: bands.mean,
                std: bands.std,
                bands_correct: bands.correct,
                bands_wrong: bands.wrong,
                bands_uncertain: bands.uncertain,
                threshold_correct: threshold.correct,
                threshold_wrong: threshold.wrong,
            }
        })
        .collect()
}

/// Prints Table 2 in the paper's layout (`bands / threshold` cells).
pub fn print_table2(rows: &[Table2Row]) {
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>14}",
        "Dataset", "Hyper-Parameters", "#correct", "#wrong", "#uncertain"
    );
    for row in rows {
        println!(
            "{:<15} {:<22} {:>14} {:>14} {:>14}",
            row.dataset,
            format!("{} ({:.2} - {:.2})", row.hyper_parameter, row.mean, row.std),
            format!("{} / {}", row.bands_correct, row.threshold_correct),
            format!("{} / {}", row.bands_wrong, row.threshold_wrong),
            format!("{} / 0", row.bands_uncertain),
        );
    }
}

/// One point of Figure 4: forged trigger-set size at a given ε.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForgeryCurvePoint {
    /// Distortion bound ε.
    pub epsilon: f64,
    /// Size of the legitimate trigger set.
    pub original_trigger_size: usize,
    /// Mean forged trigger-set size across fake signatures.
    pub mean_forged_size: f64,
    /// Largest forged trigger-set size across fake signatures.
    pub max_forged_size: usize,
    /// Number of attempts per signature.
    pub attempts_per_signature: usize,
    /// Number of solver budget exhaustions summed over signatures.
    pub budget_exhausted: usize,
}

/// ε sweep of Figure 4.
pub fn figure4_sweep(settings: &ExperimentSettings) -> Vec<f64> {
    if settings.full_scale {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    } else {
        vec![0.1, 0.3, 0.5, 0.7, 0.9]
    }
}

/// Runs the forgery attack sweep of Figure 4 on a prepared setup (the paper
/// uses MNIST2-6 for the figure).
///
/// Grid points run concurrently across the work-stealing pool, and the
/// fake-signature fan-out *inside* each ε point is a nested pool fan-out:
/// workers that finish a cheap ε early steal another point's signature
/// tasks instead of idling. Each ε point draws
/// its RNG stream from a seed derived once from the master seed (and each
/// fake signature within a point from a seed derived from the point's
/// stream), so no task ever observes another task's RNG consumption:
/// fixed-seed results are bit-identical to the serial sweep for any
/// worker-thread count. (This re-derivation reshuffles fixed-seed outputs
/// relative to the earlier serial implementation, which threaded one RNG
/// through the whole sweep.)
pub fn figure4(settings: &ExperimentSettings, setup: &SecuritySetup) -> Vec<ForgeryCurvePoint> {
    let leaf_index = LeafIndex::new(&setup.outcome.model);
    // One compile shared across the whole ε × fake-signature sweep.
    let compiled = CompiledForest::compile(&setup.outcome.model);
    let sweep = figure4_sweep(settings);
    let mut rng = SmallRng::seed_from_u64(settings.seed.wrapping_add(404));
    let point_seeds = derive_seeds(sweep.len(), &mut rng);
    sweep
        .into_par_iter()
        .zip(point_seeds.into_par_iter())
        .map(|(epsilon, point_seed)| {
            let config = ForgeryAttackConfig {
                num_fake_signatures: settings.forgery_signatures,
                ones_fraction: 0.5,
                epsilon,
                solver: settings.solver_config(),
                max_instances: settings.forgery_max_instances,
            };
            let mut point_rng = rng_from_seed(point_seed);
            let signature_seeds = derive_seeds(config.num_fake_signatures, &mut point_rng);
            let results: Vec<_> = signature_seeds
                .into_par_iter()
                .map(|seed| {
                    let mut rng = rng_from_seed(seed);
                    let fake = Signature::random(setup.outcome.model.num_trees(), 0.5, &mut rng);
                    forge_trigger_set_compiled(&compiled, &leaf_index, &setup.test, &fake, &config)
                })
                .collect();
            let mean_forged_size = wdte_core::attack::mean_forged_size(&results);
            let max_forged_size = results.iter().map(|r| r.forged_count()).max().unwrap_or(0);
            let budget_exhausted = results.iter().map(|r| r.budget_exhausted).sum();
            let attempts_per_signature = results.first().map_or(0, |r| r.attempts);
            ForgeryCurvePoint {
                epsilon,
                original_trigger_size: setup.outcome.trigger_set.len(),
                mean_forged_size,
                max_forged_size,
                attempts_per_signature,
                budget_exhausted,
            }
        })
        .collect()
}

/// Prints the Figure 4 series.
pub fn print_figure4(points: &[ForgeryCurvePoint]) {
    println!(
        "{:>8} {:>18} {:>18} {:>16} {:>18}",
        "epsilon", "|D_trigger|", "mean |D'_trigger|", "max |D'_trigger|", "budget exhausted"
    );
    for point in points {
        println!(
            "{:>8.2} {:>18} {:>18.2} {:>16} {:>18}",
            point.epsilon,
            point.original_trigger_size,
            point.mean_forged_size,
            point.max_forged_size,
            point.budget_exhausted
        );
    }
}

/// Figure 5 artefacts: a forged instance (rendered separately) plus the
/// accuracy comparison between the original and forged trigger sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForgedExample {
    /// Distortion bound ε used.
    pub epsilon: f64,
    /// The forged instance (pixel values for the MNIST-like dataset).
    pub instance: Vec<f64>,
    /// The test instance it was derived from.
    pub source: Vec<f64>,
    /// Actual L∞ distortion.
    pub distortion: f64,
    /// Accuracy of a standard ensemble on the original trigger set.
    pub baseline_accuracy_on_original_trigger: f64,
    /// Accuracy of a standard ensemble on the forged trigger set.
    pub baseline_accuracy_on_forged_trigger: f64,
}

/// Runs the Figure 5 experiment: forges instances at ε ∈ {0.3, 0.5, 0.7}
/// and measures how a standard ensemble scores the original vs forged
/// trigger sets.
///
/// Like [`figure4`], the ε grid points are independent pool tasks with
/// per-point derived seeds (bit-identical to the serial sweep), sharing
/// one compiled form of the watermarked model.
pub fn figure5(settings: &ExperimentSettings, setup: &SecuritySetup) -> Vec<ForgedExample> {
    let leaf_index = LeafIndex::new(&setup.outcome.model);
    let compiled = CompiledForest::compile(&setup.outcome.model);
    let baseline_on_original = setup.baseline.accuracy(&setup.outcome.trigger_set);
    let sweep = [0.3, 0.5, 0.7];
    let mut rng = SmallRng::seed_from_u64(settings.seed.wrapping_add(505));
    let point_seeds = derive_seeds(sweep.len(), &mut rng);
    let examples: Vec<Option<ForgedExample>> = sweep
        .to_vec()
        .into_par_iter()
        .zip(point_seeds.into_par_iter())
        .map(|(epsilon, point_seed)| {
            let mut rng = rng_from_seed(point_seed);
            let fake = Signature::random(setup.outcome.model.num_trees(), 0.5, &mut rng);
            let config = ForgeryAttackConfig {
                num_fake_signatures: 1,
                ones_fraction: 0.5,
                epsilon,
                solver: settings.solver_config(),
                max_instances: settings.forgery_max_instances,
            };
            let result = forge_trigger_set_compiled(&compiled, &leaf_index, &setup.test, &fake, &config);
            let baseline_on_forged = result
                .forged_dataset("forged-trigger")
                .map(|forged| setup.baseline.accuracy(&forged))
                .unwrap_or(0.0);
            result.forged.first().map(|first| ForgedExample {
                epsilon,
                instance: first.instance.clone(),
                source: setup.test.instance(first.source_index).to_vec(),
                distortion: first.distortion,
                baseline_accuracy_on_original_trigger: baseline_on_original,
                baseline_accuracy_on_forged_trigger: baseline_on_forged,
            })
        })
        .collect();
    examples.into_iter().flatten().collect()
}

/// Result of the suppression analysis for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuppressionRow {
    /// Dataset name.
    pub dataset: String,
    /// AUC of the vote-disagreement distinguisher (0.5 = chance).
    pub disagreement_auc: f64,
    /// AUC of the vote-margin distinguisher (0.5 = chance).
    pub margin_auc: f64,
    /// Number of trigger instances scored.
    pub trigger_instances: usize,
    /// Number of ordinary test instances scored.
    pub test_instances: usize,
}

/// Runs the suppression analysis on a prepared setup.
pub fn suppression_row(setup: &SecuritySetup) -> SuppressionRow {
    let disagreement = evaluate_suppression(
        &setup.outcome.model,
        &setup.outcome.trigger_set,
        &setup.test,
        SuppressionScore::VoteDisagreement,
    );
    let margin = evaluate_suppression(
        &setup.outcome.model,
        &setup.outcome.trigger_set,
        &setup.test,
        SuppressionScore::VoteMargin,
    );
    SuppressionRow {
        dataset: setup.dataset.name().to_string(),
        disagreement_auc: disagreement.auc,
        margin_auc: margin.auc,
        trigger_instances: setup.outcome.trigger_set.len(),
        test_instances: setup.test.len(),
    }
}

/// Prints the suppression analysis rows.
pub fn print_suppression(rows: &[SuppressionRow]) {
    println!(
        "{:<15} {:>20} {:>16} {:>12} {:>12}",
        "Dataset", "Disagreement AUC", "Margin AUC", "#trigger", "#test"
    );
    for row in rows {
        println!(
            "{:<15} {:>20.3} {:>16.3} {:>12} {:>12}",
            row.dataset, row.disagreement_auc, row.margin_auc, row.trigger_instances, row.test_instances
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_settings() -> ExperimentSettings {
        ExperimentSettings {
            seed: 5,
            forgery_signatures: 2,
            forgery_max_instances: Some(8),
            solver_time_ms: 300,
            ..ExperimentSettings::laptop()
        }
    }

    #[test]
    fn security_pipeline_runs_end_to_end_on_the_small_dataset() {
        let settings = fast_settings();
        let setup = prepare_security_setup(&settings, PaperDataset::BreastCancer);
        assert_eq!(
            setup.outcome.model.num_trees(),
            settings.num_trees(PaperDataset::BreastCancer)
        );

        let rows = table2_rows(&setup);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.bands_correct + row.bands_wrong + row.bands_uncertain,
                setup.outcome.model.num_trees()
            );
            assert_eq!(
                row.threshold_correct + row.threshold_wrong,
                setup.outcome.model.num_trees()
            );
        }

        let suppression = suppression_row(&setup);
        assert!((0.0..=1.0).contains(&suppression.disagreement_auc));
        assert_eq!(suppression.trigger_instances, setup.outcome.trigger_set.len());

        let curve = figure4(&settings, &setup);
        assert_eq!(curve.len(), figure4_sweep(&settings).len());
        // Monotone trend check (weak form): the largest ε forges at least as
        // many instances as the smallest ε.
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert!(last.mean_forged_size >= first.mean_forged_size);
    }

    /// The parallel ε-sweeps derive one seed per grid point, so the
    /// results must be bit-identical whether the sweep runs serially
    /// (1-thread pool) or fanned out across workers.
    ///
    /// The solver budget is pinned to the (deterministic) node limit by
    /// making the wall-clock limit unreachable: a wall-clock deadline is
    /// load-dependent by nature — it could flip `budget_exhausted` between
    /// two runs of the *serial* sweep just as easily — and would make any
    /// bit-identity assertion about scheduling meaningless.
    #[test]
    fn epsilon_sweeps_are_bit_identical_for_any_worker_count() {
        let settings = ExperimentSettings {
            solver_time_ms: u64::MAX / 1_000_000,
            ..fast_settings()
        };
        let setup = prepare_security_setup(&settings, PaperDataset::BreastCancer);
        let serial_pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let wide_pool = rayon::ThreadPoolBuilder::new().num_threads(8).build().unwrap();

        let serial4 = serial_pool.install(|| figure4(&settings, &setup));
        let wide4 = wide_pool.install(|| figure4(&settings, &setup));
        assert_eq!(serial4, wide4);
        assert_eq!(serial4, figure4(&settings, &setup));

        let serial5 = serial_pool.install(|| figure5(&settings, &setup));
        let wide5 = wide_pool.install(|| figure5(&settings, &setup));
        assert_eq!(serial5, wide5);

        // The suppression rows are per-dataset tasks seeded the same way.
        let serial_row = serial_pool.install(|| suppression_row(&setup));
        assert_eq!(serial_row, suppression_row(&setup));
    }
}
