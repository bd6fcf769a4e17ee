//! Watermark creation (Algorithm 1 of the paper).
//!
//! The `Watermark` function trains two sub-ensembles with sample-weight
//! pressure on a randomly drawn trigger set: `T0`, whose trees must classify
//! the trigger set correctly, and `T1`, trained on a copy of the training
//! set with flipped trigger labels, whose trees must predict the flipped
//! label. The watermarked ensemble interleaves trees from `T0` and `T1`
//! according to the owner's signature. Before training, the structural
//! hyper-parameters are "adjusted" (shrunk to `mean − std` of a standard
//! ensemble) so that the two kinds of trees are structurally
//! indistinguishable.

use crate::config::WatermarkConfig;
use crate::error::{WatermarkError, WatermarkResult};
use crate::signature::Signature;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wdte_data::{mean_std, Dataset};
use wdte_trees::{
    derive_seeds, rng_from_seed, CompiledForest, ForestParams, GridSearch, RandomForest, TreeParams,
};

/// Diagnostics of one `TrainWithTrigger` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerTrainingDiagnostics {
    /// Number of forest retraining rounds performed.
    pub rounds: usize,
    /// Whether full compliance on the trigger set was reached.
    pub compliant: bool,
    /// Final fraction of (tree, trigger instance) pairs behaving as
    /// required.
    pub compliance: f64,
    /// Largest per-sample weight reached by a trigger instance.
    pub max_trigger_weight: f64,
    /// Number of times the structural budget was relaxed.
    pub relaxations: usize,
}

/// Diagnostics of a full embedding run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingDiagnostics {
    /// Cross-validated accuracy of the best grid point (1.0 when the grid
    /// search is skipped).
    pub grid_accuracy: f64,
    /// Diagnostics of the `T0` sub-ensemble (trees with bit 0); `None` when
    /// the signature has no 0 bits.
    pub t0: Option<TriggerTrainingDiagnostics>,
    /// Diagnostics of the `T1` sub-ensemble (trees with bit 1); `None` when
    /// the signature has no 1 bits.
    pub t1: Option<TriggerTrainingDiagnostics>,
}

/// The result of embedding a watermark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatermarkOutcome {
    /// The watermarked ensemble `T`.
    pub model: RandomForest,
    /// The trigger set `D_trigger` with its *original* labels (the secret
    /// evidence the owner keeps for verification).
    pub trigger_set: Dataset,
    /// Indices of the trigger instances within the training set.
    pub trigger_indices: Vec<usize>,
    /// The owner signature embedded in the model.
    pub signature: Signature,
    /// Forest parameters selected by the grid search (before adjustment).
    pub tuned_params: ForestParams,
    /// Per-tree parameters actually used after the `Adjust(H)` heuristic.
    pub adjusted_tree_params: TreeParams,
    /// Embedding diagnostics.
    pub diagnostics: EmbeddingDiagnostics,
}

/// Embeds watermarks into random forests according to Algorithm 1.
#[derive(Debug, Clone)]
pub struct Watermarker {
    /// Embedding configuration.
    pub config: WatermarkConfig,
}

impl Watermarker {
    /// Creates a watermarker with the given configuration.
    pub fn new(config: WatermarkConfig) -> Self {
        Self { config }
    }

    /// Runs the `Watermark(D_train, m, σ, k)` procedure.
    ///
    /// Returns the watermarked ensemble together with the trigger set and
    /// diagnostics. With `config.strict` set, failure to force the trigger
    /// behaviour is reported as an error; otherwise the partially compliant
    /// model is returned and the diagnostics record the gap.
    pub fn embed<R: Rng + ?Sized>(
        &self,
        train: &Dataset,
        signature: &Signature,
        rng: &mut R,
    ) -> WatermarkResult<WatermarkOutcome> {
        let config = &self.config;
        if train.is_empty() {
            return Err(WatermarkError::EmptyTrainingSet);
        }
        if signature.len() != config.num_trees {
            return Err(WatermarkError::SignatureLengthMismatch {
                signature_bits: signature.len(),
                num_trees: config.num_trees,
            });
        }
        let k = ((train.len() as f64) * config.trigger_fraction).round().max(1.0) as usize;
        if k >= train.len() {
            return Err(WatermarkError::TriggerTooLarge {
                requested: k,
                available: train.len(),
            });
        }

        // Step 1: hyper-parameter search (GridSearch in Algorithm 1).
        let base = ForestParams {
            num_trees: config.num_trees,
            tree: config.tree_params,
            feature_subset: config.feature_subset,
        };
        let (tuned_params, grid_accuracy) = match &config.grid {
            Some(grid) => {
                let search = GridSearch {
                    grid: grid.clone(),
                    folds: config.grid_folds,
                    base_params: base,
                };
                let result = search.run(train, rng);
                (result.best_params, result.best_accuracy)
            }
            None => (base, 1.0),
        };

        // Step 2: Adjust(H) — shrink depth/leaf budgets to mean - std of a
        // standard ensemble trained with the tuned hyper-parameters.
        let adjusted_tree_params = adjust_hyperparameters(train, &tuned_params, rng);

        // Step 3: sample the trigger set.
        let trigger_indices = train.sample_indices(k, rng);
        let trigger_set = train.select(&trigger_indices).expect("sampled indices are valid");

        // Steps 4 + 5: train T0 (bit 0 → correct behaviour on the trigger
        // set) and T1 (bit 1 → misclassification, on the label-flipped
        // training set) concurrently. Each sub-ensemble trains from its own
        // RNG stream derived from the master seed, so the result is
        // bit-identical whether the two run in parallel or back-to-back —
        // and independent of the worker-thread count. Both seeds are always
        // drawn, even for all-zero / all-one signatures, to keep the master
        // stream stable across signature shapes.
        let zeros = signature.zeros();
        let ones = signature.ones();
        let seeds = derive_seeds(2, rng);
        let flipped_train = if ones > 0 {
            Some(
                train
                    .with_labels_flipped_at(&trigger_indices)
                    .expect("trigger indices are valid"),
            )
        } else {
            None
        };
        let sub_params = |num_trees: usize| ForestParams {
            num_trees,
            tree: adjusted_tree_params,
            feature_subset: config.feature_subset,
        };
        // `rayon::join` forks the two sub-ensembles through the shared
        // work-stealing pool: T0 trains on the calling thread while T1 is
        // stolen by (or reclaimed from) a pool worker, and the per-tree
        // `fit_weighted` fan-out inside each half composes with the fork
        // instead of serializing — the pool schedules nested jobs. An
        // `install`ed width limit travels with the forked job, so
        // `num_threads(1)` runs T0 then T1 strictly serially (their
        // bit-identity under any schedule is guaranteed by the derived
        // seeds, not by scheduling).
        let trigger_indices_ref = &trigger_indices;
        let sub_params_ref = &sub_params;
        let (t0_seed, t1_seed) = (seeds[0], seeds[1]);
        let (t0_result, t1_result) = rayon::join(
            move || {
                (zeros > 0).then(|| {
                    train_with_trigger(
                        train,
                        trigger_indices_ref,
                        &sub_params_ref(zeros),
                        config,
                        &mut rng_from_seed(t0_seed),
                    )
                })
            },
            || {
                flipped_train.as_ref().map(|flipped| {
                    train_with_trigger(
                        flipped,
                        trigger_indices_ref,
                        &sub_params_ref(ones),
                        config,
                        &mut rng_from_seed(t1_seed),
                    )
                })
            },
        );
        let mut t0 = None;
        let mut t0_diag = None;
        let mut t1 = None;
        let mut t1_diag = None;
        for (ensemble, result, forest_slot, diag_slot) in [
            ("T0", t0_result, &mut t0, &mut t0_diag),
            ("T1", t1_result, &mut t1, &mut t1_diag),
        ] {
            let Some((forest, diag)) = result else { continue };
            if config.strict && !diag.compliant {
                return Err(WatermarkError::TriggerForcingFailed {
                    ensemble,
                    rounds: diag.rounds,
                    compliance: diag.compliance,
                });
            }
            *forest_slot = Some(forest);
            *diag_slot = Some(diag);
        }

        // Step 6: interleave trees according to the signature.
        let mut t0_iter = t0.iter().flat_map(|f| f.trees().iter().cloned());
        let mut t1_iter = t1.iter().flat_map(|f| f.trees().iter().cloned());
        let mut trees = Vec::with_capacity(config.num_trees);
        for i in 0..config.num_trees {
            let tree = if signature.bit(i) {
                t1_iter.next().expect("T1 holds one tree per 1-bit")
            } else {
                t0_iter.next().expect("T0 holds one tree per 0-bit")
            };
            trees.push(tree);
        }
        let model = RandomForest::from_trees_with_classes(trees, train.num_classes());

        Ok(WatermarkOutcome {
            model,
            trigger_set,
            trigger_indices,
            signature: signature.clone(),
            tuned_params,
            adjusted_tree_params,
            diagnostics: EmbeddingDiagnostics {
                grid_accuracy,
                t0: t0_diag,
                t1: t1_diag,
            },
        })
    }

    /// Trains a *standard* (non-watermarked) forest with the same
    /// hyper-parameter search pipeline, used as the accuracy baseline in
    /// the paper's Figure 3.
    pub fn train_baseline<R: Rng + ?Sized>(&self, train: &Dataset, rng: &mut R) -> RandomForest {
        let config = &self.config;
        let base = ForestParams {
            num_trees: config.num_trees,
            tree: config.tree_params,
            feature_subset: config.feature_subset,
        };
        let params = match &config.grid {
            Some(grid) => {
                let search = GridSearch {
                    grid: grid.clone(),
                    folds: config.grid_folds,
                    base_params: base,
                };
                search.run(train, rng).best_params
            }
            None => base,
        };
        RandomForest::fit(train, &params, rng)
    }
}

/// The `Adjust(H)` heuristic: train a standard ensemble with the tuned
/// hyper-parameters, measure the mean and standard deviation of the
/// per-tree depth and leaf count, and shrink the budget to
/// `floor(mean − std)` for both quantities (never below a depth of 2 or 4
/// leaves).
pub fn adjust_hyperparameters<R: Rng + ?Sized>(
    train: &Dataset,
    tuned: &ForestParams,
    rng: &mut R,
) -> TreeParams {
    let probe = RandomForest::fit(train, tuned, rng);
    let stats = probe.tree_stats();
    let depths: Vec<f64> = stats.iter().map(|s| s.depth as f64).collect();
    let leaves: Vec<f64> = stats.iter().map(|s| s.leaves as f64).collect();
    let (depth_mean, depth_std) = mean_std(&depths);
    let (leaf_mean, leaf_std) = mean_std(&leaves);
    let max_depth = ((depth_mean - depth_std).floor() as usize).max(2);
    let max_leaves = ((leaf_mean - leaf_std).floor() as usize).max(4);
    TreeParams {
        max_depth: Some(max_depth),
        max_leaves: Some(max_leaves),
    }
}

/// The `TrainWithTrigger` function of Algorithm 1: retrains the forest with
/// growing trigger-instance weights until every tree classifies every
/// trigger instance as labeled in `dataset` (for `T1` the caller passes the
/// label-flipped training set, so "as labeled" means "misclassified with
/// respect to the original labels").
pub fn train_with_trigger<R: Rng + ?Sized>(
    dataset: &Dataset,
    trigger_indices: &[usize],
    params: &ForestParams,
    config: &WatermarkConfig,
    rng: &mut R,
) -> (RandomForest, TriggerTrainingDiagnostics) {
    // Feature sort order is weight-independent, so every retraining round
    // below reuses the dataset-level presorted columns; building them here
    // (rather than lazily inside the first round's parallel tree training)
    // keeps the one-time cost out of the per-tree hot path. Label-flipped
    // datasets share the original training set's cache (see
    // `Dataset::with_labels_flipped_at`), so `T1` rounds are free too.
    let _ = dataset.presort();
    let mut weights = vec![1.0; dataset.len()];
    let mut current_params = *params;
    let mut relaxations = 0usize;
    let mut rounds = 0usize;
    let mut best: Option<(RandomForest, f64)> = None;
    // The trigger rows never change across rounds; materialize them once so
    // every round's compliance check is a single compiled batch pass.
    let trigger_view = if trigger_indices.is_empty() {
        None
    } else {
        Some(dataset.select(trigger_indices).expect("trigger indices are valid"))
    };

    loop {
        rounds += 1;
        let forest = RandomForest::fit_weighted(dataset, &weights, &current_params, rng);
        let compliance = match &trigger_view {
            Some(trigger) => compiled_trigger_compliance(&CompiledForest::compile(&forest), trigger),
            None => 1.0,
        };
        let is_better = best.as_ref().is_none_or(|(_, c)| compliance > *c);
        if is_better {
            best = Some((forest, compliance));
        }
        if compliance >= 1.0 {
            break;
        }
        if rounds >= config.max_weight_rounds {
            break;
        }
        // Escape hatch: if the adjusted budget is too tight to isolate the
        // trigger instances, relax it one step every `relax_after` rounds.
        if config.relax_after > 0 && rounds.is_multiple_of(config.relax_after) {
            current_params.tree = current_params.tree.relaxed();
            relaxations += 1;
        }
        for &index in trigger_indices {
            weights[index] = config.weight_schedule.bump(weights[index]);
        }
    }

    let (forest, compliance) = best.expect("at least one round runs");
    let max_trigger_weight = trigger_indices.iter().map(|&i| weights[i]).fold(0.0f64, f64::max);
    let diagnostics = TriggerTrainingDiagnostics {
        rounds,
        compliant: compliance >= 1.0,
        compliance,
        max_trigger_weight,
        relaxations,
    };
    (forest, diagnostics)
}

/// Fraction of (tree, trigger instance) pairs where the tree predicts the
/// label recorded in `dataset`.
///
/// Compiles the forest once and answers all trigger instances through the
/// batch inference path; inside Algorithm 1's retraining loop the caller
/// ([`train_with_trigger`]) additionally hoists the trigger-row selection
/// out of the loop and calls [`compiled_trigger_compliance`] directly.
pub fn trigger_compliance(forest: &RandomForest, dataset: &Dataset, trigger_indices: &[usize]) -> f64 {
    if trigger_indices.is_empty() || forest.num_trees() == 0 {
        return 1.0;
    }
    let trigger = dataset.select(trigger_indices).expect("trigger indices are valid");
    compiled_trigger_compliance(&CompiledForest::compile(forest), &trigger)
}

/// [`trigger_compliance`] against an already-compiled forest and an
/// already-selected trigger dataset — the per-round hot path of
/// `TrainWithTrigger`.
pub fn compiled_trigger_compliance(compiled: &CompiledForest, trigger: &Dataset) -> f64 {
    if trigger.is_empty() || compiled.num_trees() == 0 {
        return 1.0;
    }
    let predictions = compiled.predict_all_batch(trigger.features());
    let total = trigger.len() * compiled.num_trees();
    let satisfied: usize = predictions
        .iter()
        .zip(trigger.labels())
        .map(|(votes, &label)| votes.iter().filter(|&&vote| vote == label).count())
        .sum();
    satisfied as f64 / total as f64
}

/// Checks the watermark property directly on a model: every tree with bit 0
/// classifies every trigger instance correctly and every tree with bit 1
/// misclassifies it (as the deterministic class rotation `(c + 1) mod k`,
/// which for binary labels is exactly the paper's flip).
pub fn watermark_holds(model: &RandomForest, signature: &Signature, trigger_set: &Dataset) -> bool {
    if model.num_trees() != signature.len() {
        return false;
    }
    let num_classes = trigger_set.num_classes();
    trigger_set.iter().all(|(instance, label)| {
        model
            .predict_all(instance)
            .iter()
            .enumerate()
            .all(|(i, &prediction)| prediction == signature.required_prediction(i, label, num_classes))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::SyntheticSpec;
    use wdte_trees::FeatureSubset;

    fn small_train() -> Dataset {
        SyntheticSpec::breast_cancer_like()
            .scaled(0.6)
            .generate(&mut SmallRng::seed_from_u64(21))
    }

    fn fast_config(num_trees: usize) -> WatermarkConfig {
        WatermarkConfig {
            num_trees,
            ..WatermarkConfig::fast()
        }
    }

    #[test]
    fn embedding_produces_a_compliant_watermark() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(1);
        let signature = Signature::random(12, 0.5, &mut rng);
        let outcome = Watermarker::new(fast_config(12)).embed(&train, &signature, &mut rng).unwrap();
        assert_eq!(outcome.model.num_trees(), 12);
        assert_eq!(outcome.trigger_set.len(), outcome.trigger_indices.len());
        assert!(watermark_holds(&outcome.model, &signature, &outcome.trigger_set));
        // The trigger set keeps the original labels.
        for (&index, label) in outcome.trigger_indices.iter().zip(outcome.trigger_set.labels()) {
            assert_eq!(train.label(index), *label);
        }
    }

    #[test]
    fn watermarked_model_keeps_most_of_its_accuracy() {
        let dataset = SyntheticSpec::breast_cancer_like().generate(&mut SmallRng::seed_from_u64(5));
        let mut rng = SmallRng::seed_from_u64(6);
        let (train, test) = dataset.split_stratified(0.7, &mut rng);
        let signature = Signature::random(16, 0.5, &mut rng);
        let watermarker = Watermarker::new(fast_config(16));
        let outcome = watermarker.embed(&train, &signature, &mut rng).unwrap();
        let baseline = watermarker.train_baseline(&train, &mut rng);
        let wm_accuracy = outcome.model.accuracy(&test);
        let baseline_accuracy = baseline.accuracy(&test);
        assert!(baseline_accuracy > 0.88, "baseline accuracy {baseline_accuracy}");
        assert!(
            baseline_accuracy - wm_accuracy < 0.08,
            "watermarking cost too much accuracy: baseline {baseline_accuracy}, watermarked {wm_accuracy}"
        );
    }

    #[test]
    fn signature_length_must_match_tree_count() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(2);
        let signature = Signature::random(8, 0.5, &mut rng);
        let err = Watermarker::new(fast_config(12))
            .embed(&train, &signature, &mut rng)
            .unwrap_err();
        assert!(matches!(err, WatermarkError::SignatureLengthMismatch { .. }));
    }

    #[test]
    fn oversized_trigger_fraction_is_rejected() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(3);
        let signature = Signature::random(4, 0.5, &mut rng);
        let config = WatermarkConfig {
            trigger_fraction: 1.5,
            ..fast_config(4)
        };
        let err = Watermarker::new(config).embed(&train, &signature, &mut rng).unwrap_err();
        assert!(matches!(err, WatermarkError::TriggerTooLarge { .. }));
    }

    #[test]
    fn all_zero_and_all_one_signatures_are_supported() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(4);
        for bits in ["0000000000", "1111111111"] {
            let signature = Signature::from_str_bits(bits).unwrap();
            let outcome = Watermarker::new(fast_config(10)).embed(&train, &signature, &mut rng).unwrap();
            assert!(watermark_holds(&outcome.model, &signature, &outcome.trigger_set));
        }
    }

    #[test]
    fn adjust_shrinks_the_structural_budget() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(7);
        let tuned = ForestParams {
            num_trees: 10,
            ..ForestParams::default()
        };
        let adjusted = adjust_hyperparameters(&train, &tuned, &mut rng);
        let probe = RandomForest::fit(&train, &tuned, &mut SmallRng::seed_from_u64(7));
        let mean_depth =
            probe.tree_stats().iter().map(|s| s.depth as f64).sum::<f64>() / probe.num_trees() as f64;
        assert!(adjusted.max_depth.unwrap() as f64 <= mean_depth);
        assert!(adjusted.max_leaves.is_some());
    }

    #[test]
    fn compiled_compliance_matches_the_recursive_walk() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(23);
        let params = ForestParams {
            num_trees: 7,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&train, &params, &mut rng);
        let trigger_indices: Vec<usize> = (0..train.len()).step_by(9).collect();
        // Reference value from the pointer-tree walk, one sample at a time.
        let mut satisfied = 0usize;
        for &index in &trigger_indices {
            for tree in forest.trees() {
                if tree.predict(train.instance(index)) == train.label(index) {
                    satisfied += 1;
                }
            }
        }
        let recursive = satisfied as f64 / (trigger_indices.len() * forest.num_trees()) as f64;
        let batched = trigger_compliance(&forest, &train, &trigger_indices);
        assert_eq!(batched, recursive);
        let trigger = train.select(&trigger_indices).unwrap();
        assert_eq!(
            compiled_trigger_compliance(&CompiledForest::compile(&forest), &trigger),
            recursive
        );
    }

    #[test]
    fn extreme_weight_rounds_never_produce_non_finite_weights_or_nan_splits() {
        // Two identical instances with opposite labels: no tree can satisfy
        // both, so with both in the trigger set compliance stays below 1.0
        // and the loop runs the full (huge) round budget. Without the
        // weight clamp, Multiplicative(3.0) overflows to inf after ~650
        // rounds and weighted impurities turn NaN.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..8 {
            rows.push(vec![i as f64, (i % 3) as f64]);
            labels.push(if i % 2 == 0 {
                wdte_data::Label::Positive
            } else {
                wdte_data::Label::Negative
            });
        }
        rows.push(vec![100.0, 100.0]);
        labels.push(wdte_data::Label::Positive);
        rows.push(vec![100.0, 100.0]);
        labels.push(wdte_data::Label::Negative);
        let features = wdte_data::DenseMatrix::from_rows(&rows).unwrap();
        let dataset = Dataset::new("conflicting", features, labels).unwrap();

        let config = WatermarkConfig {
            num_trees: 2,
            weight_schedule: crate::WeightSchedule::Multiplicative(3.0),
            max_weight_rounds: 800,
            relax_after: 0,
            ..WatermarkConfig::fast()
        };
        let params = ForestParams {
            num_trees: 2,
            tree: TreeParams {
                max_depth: Some(4),
                ..TreeParams::default()
            },
            feature_subset: FeatureSubset::All,
        };
        let trigger_indices = vec![8, 9];
        let mut rng = SmallRng::seed_from_u64(12);
        let (forest, diag) = train_with_trigger(&dataset, &trigger_indices, &params, &config, &mut rng);
        assert_eq!(diag.rounds, 800, "the conflicting trigger keeps the loop running");
        assert!(!diag.compliant);
        assert!(diag.max_trigger_weight.is_finite());
        assert!(diag.max_trigger_weight <= crate::config::MAX_TRIGGER_WEIGHT);
        assert!(diag.compliance.is_finite());
        for tree in forest.trees() {
            for node in tree.nodes() {
                if let wdte_trees::Node::Internal { threshold, .. } = node {
                    assert!(threshold.is_finite(), "split threshold poisoned: {threshold}");
                }
            }
        }
    }

    #[test]
    fn trigger_compliance_counts_pairs() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(8);
        let params = ForestParams {
            num_trees: 5,
            feature_subset: FeatureSubset::All,
            ..ForestParams::default()
        };
        let forest = RandomForest::fit(&train, &params, &mut rng);
        // With unit weights and all features, most training points are
        // classified correctly by fully grown trees.
        let compliance = trigger_compliance(&forest, &train, &[0, 1, 2, 3, 4]);
        assert!(compliance > 0.8);
        assert_eq!(trigger_compliance(&forest, &train, &[]), 1.0);
    }

    #[test]
    fn train_with_trigger_reaches_compliance_on_flipped_labels() {
        let train = small_train();
        let mut rng = SmallRng::seed_from_u64(9);
        let trigger_indices = vec![3, 17, 29];
        let flipped = train.with_labels_flipped_at(&trigger_indices).unwrap();
        let config = fast_config(6);
        let params = ForestParams {
            num_trees: 6,
            tree: TreeParams {
                max_depth: Some(8),
                max_leaves: Some(64),
            },
            feature_subset: FeatureSubset::Sqrt,
        };
        let (forest, diag) = train_with_trigger(&flipped, &trigger_indices, &params, &config, &mut rng);
        assert!(
            diag.compliant,
            "compliance only reached {:.2} after {} rounds",
            diag.compliance, diag.rounds
        );
        for &index in &trigger_indices {
            for tree in forest.trees() {
                assert_eq!(tree.predict(flipped.instance(index)), flipped.label(index));
            }
        }
    }

    #[test]
    fn embedding_is_deterministic_for_a_fixed_seed() {
        let train = small_train();
        let signature = Signature::random(8, 0.5, &mut SmallRng::seed_from_u64(10));
        let watermarker = Watermarker::new(fast_config(8));
        let a = watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(11)).unwrap();
        let b = watermarker.embed(&train, &signature, &mut SmallRng::seed_from_u64(11)).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.trigger_indices, b.trigger_indices);
    }
}
