//! Watermark forgery attack (Section 4.2.2, Figures 4 and 5).
//!
//! The attacker generates a fake signature `σ'` and tries to assemble a
//! forged trigger set `D'_trigger` on which the stolen model exhibits the
//! output pattern required by `σ'`. Following the paper, the attacker
//! iterates over the test set and, for every instance, asks a constraint
//! solver for a satisfying point whose L∞ distance from the instance is at
//! most `ε` (so the forged set still looks like plausible data). The paper
//! uses Z3 for this; here the dedicated leaf-box solver of `wdte-solver`
//! plays that role.

use crate::signature::Signature;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use wdte_data::{linf_distance, Dataset, DenseMatrix, Label};
use wdte_solver::{ForgeryQuery, ForgerySolver, LeafIndex, SolverConfig};
use wdte_trees::{CompiledForest, RandomForest};

/// Configuration of the forgery attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForgeryAttackConfig {
    /// Number of random fake signatures to try (the paper uses 10).
    pub num_fake_signatures: usize,
    /// Fraction of 1 bits in the fake signatures (the paper uses 50%).
    pub ones_fraction: f64,
    /// Maximum allowed L∞ distortion `ε` between a test instance and the
    /// forged instance derived from it.
    pub epsilon: f64,
    /// Budget of the underlying constraint solver, per instance.
    pub solver: SolverConfig,
    /// Optional cap on the number of test instances attempted per
    /// signature (keeps large sweeps tractable); `None` attempts all.
    pub max_instances: Option<usize>,
}

impl Default for ForgeryAttackConfig {
    fn default() -> Self {
        Self {
            num_fake_signatures: 10,
            ones_fraction: 0.5,
            epsilon: 0.3,
            solver: SolverConfig::default(),
            max_instances: None,
        }
    }
}

/// A successfully forged instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForgedInstance {
    /// Index of the test instance the forgery started from.
    pub source_index: usize,
    /// Label of the source test instance (the label the forged trigger
    /// entry claims).
    pub label: Label,
    /// The forged feature vector.
    pub instance: Vec<f64>,
    /// L∞ distance between the forged instance and its source.
    pub distortion: f64,
}

/// Result of the forgery attack for one fake signature.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForgeryAttackResult {
    /// The fake signature used.
    pub fake_signature: Signature,
    /// Distortion bound used.
    pub epsilon: f64,
    /// Number of test instances attempted.
    pub attempts: usize,
    /// The successfully forged instances.
    pub forged: Vec<ForgedInstance>,
    /// Number of attempts that ended with the solver budget exhausted
    /// (counted as failures, as the paper does for Z3 timeouts).
    pub budget_exhausted: usize,
}

impl ForgeryAttackResult {
    /// Number of forged instances.
    pub fn forged_count(&self) -> usize {
        self.forged.len()
    }

    /// Converts the forged instances into a dataset (the forged trigger set
    /// `D'_trigger`).
    pub fn forged_dataset(&self, name: &str) -> Option<Dataset> {
        if self.forged.is_empty() {
            return None;
        }
        let rows: Vec<Vec<f64>> = self.forged.iter().map(|f| f.instance.clone()).collect();
        let labels: Vec<Label> = self.forged.iter().map(|f| f.label).collect();
        let matrix = DenseMatrix::from_rows(&rows).ok()?;
        Dataset::new(name, matrix, labels).ok()
    }
}

/// Runs the forgery attack for a single fake signature over the test set.
///
/// Candidates returned by the constraint solver are re-scored against the
/// model through the compiled inference path before being accepted: a
/// forged instance only counts if the flattened ensemble actually produces
/// the full per-tree pattern the fake signature requires.
pub fn forge_trigger_set(
    model: &RandomForest,
    leaf_index: &LeafIndex,
    test_set: &Dataset,
    fake_signature: &Signature,
    config: &ForgeryAttackConfig,
) -> ForgeryAttackResult {
    forge_trigger_set_compiled(
        &CompiledForest::compile(model),
        leaf_index,
        test_set,
        fake_signature,
        config,
    )
}

/// Like [`forge_trigger_set`], but takes an already-compiled model so
/// callers attacking the same model with many fake signatures (the
/// paper's sweeps) compile it once.
pub fn forge_trigger_set_compiled(
    compiled: &CompiledForest,
    leaf_index: &LeafIndex,
    test_set: &Dataset,
    fake_signature: &Signature,
    config: &ForgeryAttackConfig,
) -> ForgeryAttackResult {
    assert_eq!(
        fake_signature.len(),
        compiled.num_trees(),
        "fake signature must have one bit per tree"
    );
    let limit = config.max_instances.unwrap_or(test_set.len()).min(test_set.len());
    let solver = ForgerySolver::new(config.solver);
    let num_classes = compiled.num_classes();

    // Each test instance is an independent satisfiability query; solving
    // them in parallel matches how the experiments batch Z3 calls.
    let outcomes: Vec<(usize, Option<ForgedInstance>, bool)> = (0..limit)
        .into_par_iter()
        .map(|index| {
            let instance = test_set.instance(index);
            let label = test_set.label(index);
            let query = ForgeryQuery::from_signature_bits_k(
                fake_signature.bits(),
                label,
                num_classes,
                Some((instance, config.epsilon)),
            );
            match solver.solve(leaf_index, &query) {
                wdte_solver::ForgeryOutcome::Forged { instance: forged, .. } => {
                    let distortion = linf_distance(&forged, instance);
                    (
                        index,
                        Some(ForgedInstance {
                            source_index: index,
                            label,
                            instance: forged,
                            distortion,
                        }),
                        false,
                    )
                }
                wdte_solver::ForgeryOutcome::Unsatisfiable { .. } => (index, None, false),
                wdte_solver::ForgeryOutcome::BudgetExhausted { .. } => (index, None, true),
            }
        })
        .collect();

    let mut candidates = Vec::new();
    let mut budget_exhausted = 0usize;
    for (_, maybe_forged, exhausted) in outcomes {
        if let Some(f) = maybe_forged {
            candidates.push(f);
        }
        if exhausted {
            budget_exhausted += 1;
        }
    }

    // Re-score every candidate against the model itself in one compiled
    // batch: a forged instance only counts if the flattened ensemble
    // produces the full per-tree pattern the fake signature requires (the
    // solver's leaf-box geometry could in principle disagree, and a claim
    // built on such an instance would be rejected by the judge).
    let forged = if candidates.is_empty() {
        candidates
    } else {
        let rows: Vec<Vec<f64>> = candidates.iter().map(|f| f.instance.clone()).collect();
        let matrix = DenseMatrix::from_rows(&rows).expect("forged instances share dimensionality");
        let batch = compiled.predict_all_batch(&matrix);
        candidates
            .into_iter()
            .enumerate()
            .filter(|(index, f)| {
                batch.sample(*index).iter().enumerate().all(|(tree, &vote)| {
                    vote == fake_signature.required_prediction_k(tree, f.label, num_classes)
                })
            })
            .map(|(_, f)| f)
            .collect()
    };
    ForgeryAttackResult {
        fake_signature: fake_signature.clone(),
        epsilon: config.epsilon,
        attempts: limit,
        forged,
        budget_exhausted,
    }
}

/// Runs the full forgery attack: `num_fake_signatures` random signatures,
/// each attacking the whole test set. Returns one result per signature.
pub fn run_forgery_attack<R: Rng + ?Sized>(
    model: &RandomForest,
    test_set: &Dataset,
    config: &ForgeryAttackConfig,
    rng: &mut R,
) -> Vec<ForgeryAttackResult> {
    let leaf_index = LeafIndex::new(model);
    // One compile shared by every fake signature's scoring pass.
    let compiled = CompiledForest::compile(model);
    (0..config.num_fake_signatures)
        .map(|_| {
            let fake = Signature::random(model.num_trees(), config.ones_fraction, rng);
            forge_trigger_set_compiled(&compiled, &leaf_index, test_set, &fake, config)
        })
        .collect()
}

/// Average forged-trigger-set size across the per-signature results.
pub fn mean_forged_size(results: &[ForgeryAttackResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| r.forged_count() as f64).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WatermarkConfig;
    use crate::watermark::Watermarker;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::{MultiClassSpec, SyntheticSpec};
    use wdte_solver::satisfies_pattern;
    use wdte_trees::ForestParams;

    fn watermarked_setup() -> (RandomForest, Dataset) {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.7)
            .generate(&mut SmallRng::seed_from_u64(71));
        let mut rng = SmallRng::seed_from_u64(72);
        let (train, test) = dataset.split_stratified(0.75, &mut rng);
        let signature = Signature::random(10, 0.5, &mut rng);
        let watermarker = Watermarker::new(WatermarkConfig {
            num_trees: 10,
            ..WatermarkConfig::fast()
        });
        let outcome = watermarker.embed(&train, &signature, &mut rng).unwrap();
        (outcome.model, test)
    }

    #[test]
    fn forged_instances_satisfy_the_fake_pattern_and_distortion_bound() {
        let (model, test) = watermarked_setup();
        let leaf_index = LeafIndex::new(&model);
        let mut rng = SmallRng::seed_from_u64(73);
        let fake = Signature::random(model.num_trees(), 0.5, &mut rng);
        let config = ForgeryAttackConfig {
            epsilon: 0.8,
            max_instances: Some(20),
            solver: SolverConfig::fast(),
            ..ForgeryAttackConfig::default()
        };
        let result = forge_trigger_set(&model, &leaf_index, &test, &fake, &config);
        assert_eq!(result.attempts, 20);
        for forged in &result.forged {
            assert!(forged.distortion <= config.epsilon + 1e-9);
            let required: Vec<Label> = (0..model.num_trees())
                .map(|i| fake.required_prediction_k(i, forged.label, 2))
                .collect();
            assert!(satisfies_pattern(&model, &forged.instance, &required));
            for &value in &forged.instance {
                assert!(
                    (0.0..=1.0).contains(&value),
                    "forged values must stay in the data domain"
                );
            }
        }
    }

    #[test]
    fn forged_rows_of_a_three_class_model_follow_the_rotated_pattern() {
        let mut rng = SmallRng::seed_from_u64(5);
        let dataset = MultiClassSpec::k_class(3).generate(&mut rng);
        let (train, test) = dataset.split_stratified(0.75, &mut rng);
        let model = RandomForest::fit(&train, &ForestParams::with_trees(8), &mut rng);
        let fake = Signature::random(8, 0.5, &mut rng);
        let config = ForgeryAttackConfig {
            epsilon: 1.0,
            max_instances: Some(60),
            solver: SolverConfig::fast(),
            ..ForgeryAttackConfig::default()
        };
        let result = forge_trigger_set(&model, &LeafIndex::new(&model), &test, &fake, &config);
        assert!(
            result.forged.iter().any(|forged| forged.label.index() == 2),
            "the sweep must forge a class-2 row"
        );
        for forged in &result.forged {
            let required: Vec<Label> = (0..model.num_trees())
                .map(|i| fake.required_prediction_k(i, forged.label, 3))
                .collect();
            assert!(satisfies_pattern(&model, &forged.instance, &required));
        }
    }

    #[test]
    fn small_epsilon_forges_fewer_instances_than_large_epsilon() {
        let (model, test) = watermarked_setup();
        let leaf_index = LeafIndex::new(&model);
        let mut rng = SmallRng::seed_from_u64(74);
        let fake = Signature::random(model.num_trees(), 0.5, &mut rng);
        let base = ForgeryAttackConfig {
            max_instances: Some(25),
            solver: SolverConfig::fast(),
            ..ForgeryAttackConfig::default()
        };
        let tight = forge_trigger_set(
            &model,
            &leaf_index,
            &test,
            &fake,
            &ForgeryAttackConfig {
                epsilon: 0.05,
                ..base.clone()
            },
        );
        let loose = forge_trigger_set(
            &model,
            &leaf_index,
            &test,
            &fake,
            &ForgeryAttackConfig { epsilon: 0.9, ..base },
        );
        assert!(
            tight.forged_count() <= loose.forged_count(),
            "tight {} vs loose {}",
            tight.forged_count(),
            loose.forged_count()
        );
    }

    #[test]
    fn run_forgery_attack_produces_one_result_per_signature() {
        let (model, test) = watermarked_setup();
        let mut rng = SmallRng::seed_from_u64(75);
        let config = ForgeryAttackConfig {
            num_fake_signatures: 3,
            epsilon: 0.5,
            max_instances: Some(10),
            solver: SolverConfig::fast(),
            ..ForgeryAttackConfig::default()
        };
        let results = run_forgery_attack(&model, &test, &config, &mut rng);
        assert_eq!(results.len(), 3);
        for result in &results {
            assert_eq!(result.attempts, 10);
            assert_eq!(result.fake_signature.len(), model.num_trees());
        }
        let mean = mean_forged_size(&results);
        assert!(mean <= 10.0);
        assert_eq!(mean_forged_size(&[]), 0.0);
    }

    #[test]
    fn forged_dataset_round_trips() {
        let (model, test) = watermarked_setup();
        let leaf_index = LeafIndex::new(&model);
        let mut rng = SmallRng::seed_from_u64(76);
        let fake = Signature::random(model.num_trees(), 0.5, &mut rng);
        let config = ForgeryAttackConfig {
            epsilon: 0.9,
            max_instances: Some(15),
            solver: SolverConfig::fast(),
            ..ForgeryAttackConfig::default()
        };
        let result = forge_trigger_set(&model, &leaf_index, &test, &fake, &config);
        if result.forged_count() > 0 {
            let dataset = result.forged_dataset("forged").unwrap();
            assert_eq!(dataset.len(), result.forged_count());
            assert_eq!(dataset.num_features(), test.num_features());
        } else {
            assert!(result.forged_dataset("forged").is_none());
        }
    }
}
