//! End-to-end pipeline over the on-disk format: embed a watermark, persist
//! every artefact, drop the in-memory state, reload from disk, and run the
//! full verification + attack battery on the loaded model — the exact
//! lifecycle of a released model that later lands in front of a judge.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte::persist;
use wdte::prelude::*;
use wdte_core::watermark_holds;

/// Unique scratch directory per test (the integration harness may run
/// tests in parallel).
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wdte-pipeline-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn embed_save_load_verify_and_attack_from_disk() {
    let dir = scratch("full");
    let mut rng = SmallRng::seed_from_u64(90_001);
    let dataset = SyntheticSpec::breast_cancer_like().generate(&mut rng);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);
    let signature = Signature::random(12, 0.5, &mut rng);
    let config = WatermarkConfig {
        num_trees: 12,
        trigger_fraction: 0.02,
        ..WatermarkConfig::fast()
    };
    let outcome = Watermarker::new(config)
        .embed(&train, &signature, &mut rng)
        .expect("embedding succeeds for the fixed seed");
    assert!(watermark_holds(&outcome.model, &signature, &outcome.trigger_set));

    // Persist every artefact a dispute needs.
    let claim = OwnershipClaim::new(signature.clone(), outcome.trigger_set.clone(), test.clone());
    persist::save(dir.join("model.wdte"), &outcome.model, persist::Format::Binary).unwrap();
    persist::save(dir.join("claim.wdte"), &claim, persist::Format::Binary).unwrap();
    persist::save(
        dir.join("trigger.wdte"),
        &outcome.trigger_set,
        persist::Format::Binary,
    )
    .unwrap();
    let original_model = outcome.model.clone();
    drop((outcome, claim));

    // Reload everything from disk.
    let model: RandomForest = persist::load(dir.join("model.wdte")).unwrap();
    let claim: OwnershipClaim = persist::load(dir.join("claim.wdte")).unwrap();
    let trigger: wdte_data::Dataset = persist::load(dir.join("trigger.wdte")).unwrap();
    assert_eq!(model, original_model, "the loaded model is the saved one");
    assert_eq!(trigger, claim.trigger_set);

    // The forest compiled from the loaded model predicts bit-identically.
    let compiled = CompiledForest::compile(&model);
    let batch = compiled.predict_all_batch(test.features());
    for (index, (row, _)) in test.iter().enumerate() {
        assert_eq!(batch.sample(index), model.predict_all(row).as_slice());
    }

    // The loaded model still verifies the watermark (paper outcome: the
    // genuine claim is accepted with full bit agreement)…
    let report = verify_ownership(&compiled, &claim);
    assert!(report.verified);
    assert!((report.bit_agreement - 1.0).abs() < 1e-12);
    assert_eq!(
        report.queries_issued,
        claim.trigger_set.len() + claim.test_set.len()
    );
    assert_eq!(report, verify_ownership(&model, &claim));

    // …while the structural detection attack on the loaded model cannot
    // reconstruct the signature (Table 2 outcome: far from m correct).
    for feature in [DetectionFeature::Depth, DetectionFeature::Leaves] {
        let detection = evaluate_detection(
            &model,
            &claim.signature,
            feature,
            DetectionStrategy::MeanThreshold,
        );
        assert!(
            detection.correct < model.num_trees(),
            "detection must not perfectly recover the signature from a loaded model"
        );
    }

    // The forgery attack runs against the loaded model; every instance it
    // forges satisfies the attacker's pattern, and small distortion
    // budgets forge no more than generous ones (Figure 4 outcome).
    let mut rng = SmallRng::seed_from_u64(90_002);
    let forgery_config = ForgeryAttackConfig {
        num_fake_signatures: 2,
        epsilon: 0.5,
        max_instances: Some(15),
        solver: SolverConfig::fast(),
        ..ForgeryAttackConfig::default()
    };
    let results = run_forgery_attack(&model, &test, &forgery_config, &mut rng);
    assert_eq!(results.len(), 2);
    for result in &results {
        assert_eq!(result.attempts, 15);
        for forged in &result.forged {
            assert!(forged.distortion <= forgery_config.epsilon + 1e-9);
            let required: Vec<wdte_data::Label> = (0..model.num_trees())
                .map(|i| result.fake_signature.required_prediction(i, forged.label, model.num_classes()))
                .collect();
            assert_eq!(compiled.predict_all(&forged.instance), required);
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suppression_on_a_loaded_model_matches_the_original() {
    let dir = scratch("suppression");
    let mut rng = SmallRng::seed_from_u64(90_011);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.6).generate(&mut rng);
    let (train, test) = dataset.split_stratified(0.75, &mut rng);
    let signature = Signature::random(10, 0.5, &mut rng);
    let outcome = Watermarker::new(WatermarkConfig {
        num_trees: 10,
        ..WatermarkConfig::fast()
    })
    .embed(&train, &signature, &mut rng)
    .unwrap();

    persist::save(dir.join("model.wdte"), &outcome.model, persist::Format::Binary).unwrap();
    let loaded: RandomForest = persist::load(dir.join("model.wdte")).unwrap();

    let original = evaluate_suppression(
        &outcome.model,
        &outcome.trigger_set,
        &test,
        SuppressionScore::VoteDisagreement,
    );
    let reloaded = evaluate_suppression(
        &loaded,
        &outcome.trigger_set,
        &test,
        SuppressionScore::VoteDisagreement,
    );
    assert_eq!(original, reloaded);
    assert!((0.0..=1.0).contains(&reloaded.auc));

    std::fs::remove_dir_all(&dir).ok();
}
