//! Cross-commit bit-identity pins: SHA-256 digests of the binary encoding
//! of fixed-seed watermarked models and synthetic datasets.
//!
//! Every other determinism test compares two runs of the same build; these
//! constants were recorded once and must never move. A refactor of tree
//! training, grid search or the dataset generators that changes a single
//! bit of a model or a dataset fails here. Change a constant only together
//! with a change that is meant to alter the models or datasets, and say so.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte::persist::{self, Format};
use wdte::prelude::*;
use wdte_core::tenant::sha256;

fn hex_digest(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|byte| format!("{byte:02x}")).collect()
}

fn dataset_digest(dataset: &wdte_data::Dataset) -> String {
    hex_digest(&persist::to_bytes(dataset, Format::Binary))
}

/// Embeds a 12-tree watermark into a fixed breast-cancer stand-in and
/// returns the digest of the model's binary artefact.
fn model_digest(grid: Option<ParamGrid>) -> String {
    let mut rng = SmallRng::seed_from_u64(28_028);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.6).generate(&mut rng);
    let (train, _test) = dataset.split_stratified(0.8, &mut rng);
    let signature = Signature::random(12, 0.5, &mut rng);
    let config = WatermarkConfig {
        num_trees: 12,
        grid,
        ..WatermarkConfig::fast()
    };
    let outcome = Watermarker::new(config)
        .embed(&train, &signature, &mut rng)
        .expect("embedding succeeds");
    hex_digest(&persist::to_bytes(&outcome.model, Format::Binary))
}

#[test]
fn fast_embedding_model_is_pinned() {
    assert_eq!(
        model_digest(None),
        "e430221baf9f7bf5ec4d981a44b54f42682af96d422920393fafdf74c3ea5c7c"
    );
}

#[test]
fn grid_searched_embedding_model_is_pinned() {
    assert_eq!(
        model_digest(Some(ParamGrid::small())),
        "be3ce7caefc0aa721ad2fb36dcbe6cfbb698d5db57ae18747fe5d1f206c3ba7a"
    );
}

#[test]
fn image_like_dataset_is_pinned() {
    let dataset = SyntheticSpec::mnist2_6_like()
        .scaled(0.02)
        .generate(&mut SmallRng::seed_from_u64(1));
    assert_eq!(
        dataset_digest(&dataset),
        "e853b04fd5de09306096ac6d960646727e9eda8f0f3705ae2e4d7f56ad900209"
    );
}

#[test]
fn tabular_dataset_is_pinned() {
    let dataset = SyntheticSpec::breast_cancer_like().generate(&mut SmallRng::seed_from_u64(2));
    assert_eq!(
        dataset_digest(&dataset),
        "f6e621c1e3373712fdedb31539660e7beaebdc2b965ba03988dad308ede85391"
    );
}

#[test]
fn clustered_dataset_is_pinned() {
    let dataset = SyntheticSpec::ijcnn1_like()
        .scaled(0.05)
        .generate(&mut SmallRng::seed_from_u64(3));
    assert_eq!(
        dataset_digest(&dataset),
        "4c65bd8fb37b652310830cc6ad05f9cee445da5132e87dda3132439f64ea5306"
    );
}

#[test]
fn k_class_dataset_is_pinned() {
    let dataset = MultiClassSpec::k_class(5).generate(&mut SmallRng::seed_from_u64(4));
    assert_eq!(
        dataset_digest(&dataset),
        "09cbc15228e980d938c02b4602bfcb154855535f1497b7eeb63461b74050d651"
    );
}
