//! Serialization integration tests: models, signatures, claims and
//! datasets must round-trip through the artefact container
//! (`persist::to_bytes` / `from_bytes`), the one encoding parties exchange
//! artefacts in (owner → judge) and models are shipped to production
//! services in.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte::persist::{self, Format};
use wdte::prelude::*;
use wdte_trees::RandomForest;

/// `value` written as an artefact and read back.
fn round_trip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    persist::from_bytes(&persist::to_bytes(value, Format::Binary)).expect("artefact decodes")
}

#[test]
fn watermarked_model_round_trips_through_the_artefact_container() {
    let mut rng = SmallRng::seed_from_u64(11);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.5).generate(&mut rng);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);
    let signature = Signature::random(10, 0.5, &mut rng);
    let config = WatermarkConfig {
        num_trees: 10,
        ..WatermarkConfig::fast()
    };
    let outcome = Watermarker::new(config).embed(&train, &signature, &mut rng).unwrap();

    let restored: RandomForest = round_trip(&outcome.model);
    assert_eq!(restored, outcome.model);

    // The restored model still verifies the watermark.
    let claim = OwnershipClaim::new(signature, outcome.trigger_set.clone(), test);
    assert!(verify_ownership(&restored, &claim).verified);
}

#[test]
fn signature_and_claim_round_trip() {
    let mut rng = SmallRng::seed_from_u64(12);
    let signature = Signature::random(24, 0.25, &mut rng);
    let restored: Signature = round_trip(&signature);
    assert_eq!(restored, signature);
    assert_eq!(restored.ones(), 6);

    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.2).generate(&mut rng);
    let (trigger, test) = dataset.split_stratified(0.3, &mut rng);
    let claim = OwnershipClaim::new(signature, trigger, test);
    let restored: OwnershipClaim = round_trip(&claim);
    assert_eq!(restored, claim);
}

#[test]
fn dataset_round_trips_preserve_labels_and_features() {
    let mut rng = SmallRng::seed_from_u64(13);
    let dataset = SyntheticSpec::ijcnn1_like().scaled(0.01).generate(&mut rng);
    let restored: wdte_data::Dataset = round_trip(&dataset);
    assert_eq!(restored, dataset);
    assert_eq!(restored.class_distribution(), dataset.class_distribution());
}
