//! Negative-path coverage for the on-disk format: corrupted, truncated and
//! version-mismatched files must surface typed `wdte_core` errors — never
//! panics and never silently wrong artefacts — plus property tests that
//! the binary container reproduces model behaviour exactly.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use wdte::persist::{self, Format};
use wdte::prelude::*;

fn fixture() -> (RandomForest, OwnershipClaim, wdte_data::Dataset) {
    let mut rng = SmallRng::seed_from_u64(70_001);
    let dataset = SyntheticSpec::breast_cancer_like().scaled(0.5).generate(&mut rng);
    let (train, test) = dataset.split_stratified(0.8, &mut rng);
    let signature = Signature::random(8, 0.5, &mut rng);
    let outcome = Watermarker::new(WatermarkConfig {
        num_trees: 8,
        ..WatermarkConfig::fast()
    })
    .embed(&train, &signature, &mut rng)
    .unwrap();
    let claim = OwnershipClaim::new(signature, outcome.trigger_set.clone(), test.clone());
    (outcome.model, claim, test)
}

/// Every prefix of every artefact must fail with a typed error. This walks
/// a sweep of truncation points over all artefact kinds.
#[test]
fn truncated_files_yield_typed_errors_for_every_artefact() {
    let (model, claim, _) = fixture();
    let encodings: Vec<(&str, Vec<u8>)> = vec![
        ("model-bin", persist::to_bytes(&model, Format::Binary)),
        ("claim-bin", persist::to_bytes(&claim, Format::Binary)),
        (
            "signature-bin",
            persist::to_bytes(&claim.signature, Format::Binary),
        ),
        (
            "trigger-bin",
            persist::to_bytes(&claim.trigger_set, Format::Binary),
        ),
    ];
    for (tag, bytes) in &encodings {
        let full_restores: bool = match *tag {
            "model-bin" => persist::from_bytes::<RandomForest>(bytes).is_ok(),
            "claim-bin" => persist::from_bytes::<OwnershipClaim>(bytes).is_ok(),
            "signature-bin" => persist::from_bytes::<Signature>(bytes).is_ok(),
            _ => persist::from_bytes::<wdte_data::Dataset>(bytes).is_ok(),
        };
        assert!(full_restores, "{tag}: the untruncated artefact must load");
        for fraction in [0usize, 1, 3, 10, 50, 90, 99] {
            let cut = bytes.len() * fraction / 100;
            let truncated = &bytes[..cut];
            let err = match *tag {
                "model-bin" => persist::from_bytes::<RandomForest>(truncated).unwrap_err(),
                "claim-bin" => persist::from_bytes::<OwnershipClaim>(truncated).unwrap_err(),
                "signature-bin" => persist::from_bytes::<Signature>(truncated).unwrap_err(),
                _ => persist::from_bytes::<wdte_data::Dataset>(truncated).unwrap_err(),
            };
            assert!(
                matches!(
                    err,
                    WatermarkError::CorruptedArtifact { .. } | WatermarkError::UnrecognizedFormat { .. }
                ),
                "{tag} truncated at {fraction}%: unexpected error {err:?}"
            );
        }
    }
}

#[test]
fn version_mismatch_is_reported_with_both_versions() {
    let future = persist::FORMAT_VERSION + 1;
    let (model, _, _) = fixture();
    let mut binary = persist::to_bytes(&model, Format::Binary);
    // Header: 4 magic bytes, 1 container tag, then the u16 LE version.
    binary[5..7].copy_from_slice(&future.to_le_bytes());
    match persist::from_bytes::<RandomForest>(&binary).unwrap_err() {
        WatermarkError::UnsupportedFormatVersion { found, supported } => {
            assert_eq!(found, future);
            assert_eq!(supported, persist::FORMAT_VERSION);
        }
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn corrupted_payloads_are_rejected_not_misread() {
    // Not-our-file inputs.
    for junk in [&b"PK\x03\x04zipfile"[..], b"", b"[1, 2, 3]", b"WDTEZ\x01\x00"] {
        assert!(matches!(
            persist::from_bytes::<RandomForest>(junk).unwrap_err(),
            WatermarkError::UnrecognizedFormat { .. } | WatermarkError::CorruptedArtifact { .. }
        ));
    }
}

/// Encodes `value` with the first `key` entry anywhere in it rewritten
/// by `edit`, so a structural corruption travels in the binary container
/// and meets the production decoder. Panics if no such entry exists.
fn binary_with_first(value: &impl Serialize, key: &str, edit: fn(u64) -> u64) -> Vec<u8> {
    fn rewrite(value: &mut Value, key: &str, edit: fn(u64) -> u64) -> bool {
        match value {
            Value::Map(entries) => entries.iter_mut().any(|(name, value)| match value.as_u64() {
                Some(number) if name == key => {
                    *value = Value::U64(edit(number));
                    true
                }
                _ => rewrite(value, key, edit),
            }),
            Value::Seq(items) => items.iter_mut().any(|item| rewrite(item, key, edit)),
            _ => false,
        }
    }
    let mut value = value.to_value();
    assert!(rewrite(&mut value, key, edit), "no `{key}` entry to corrupt");
    persist::to_bytes(&value, Format::Binary)
}

#[test]
fn corrupted_pointer_models_are_rejected_not_walked() {
    let (model, _, test) = fixture();

    // A child index pointing out of the arena must be caught at load time,
    // not panic during prediction.
    let out_of_range = binary_with_first(&model, "left", |_| 999_999);
    assert!(matches!(
        persist::from_bytes::<RandomForest>(&out_of_range).unwrap_err(),
        WatermarkError::CorruptedArtifact { .. }
    ));

    // A backwards child (cycle) must be caught too — it would otherwise
    // make prediction loop forever.
    let cyclic = binary_with_first(&model, "left", |_| 0);
    assert!(matches!(
        persist::from_bytes::<RandomForest>(&cyclic).unwrap_err(),
        WatermarkError::CorruptedArtifact { .. }
    ));

    // Bit-flip sweep over the binary encoding: every outcome must be a
    // typed error or a model that can actually be used (predict must not
    // panic or hang on whatever validation lets through).
    let bytes = persist::to_bytes(&model, Format::Binary);
    for position in (7..bytes.len()).step_by(bytes.len() / 53 + 1) {
        let mut garbled = bytes.clone();
        garbled[position] ^= 0x5A;
        match persist::from_bytes::<RandomForest>(&garbled) {
            Ok(loaded) => {
                let _ = loaded.predict_all(test.instance(0));
            }
            Err(
                WatermarkError::CorruptedArtifact { .. }
                | WatermarkError::UnrecognizedFormat { .. }
                | WatermarkError::UnsupportedFormatVersion { .. },
            ) => {}
            Err(other) => panic!("byte {position}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn corrupted_dataset_and_claim_artefacts_are_rejected_not_indexed() {
    let (_, claim, _) = fixture();

    // A trigger set whose matrix dimensions were bit-flipped must fail at
    // load, not index out of bounds during verification.
    let bad_rows = binary_with_first(&claim, "rows", |rows| rows + 900);
    assert!(matches!(
        persist::from_bytes::<OwnershipClaim>(&bad_rows).unwrap_err(),
        WatermarkError::CorruptedArtifact { .. }
    ));

    // Bit-flip sweep over the binary claim: load must either fail typed or
    // produce a claim that survives verification bookkeeping.
    let bytes = persist::to_bytes(&claim, Format::Binary);
    for position in (7..bytes.len()).step_by(bytes.len() / 41 + 1) {
        let mut garbled = bytes.clone();
        garbled[position] ^= 0x3C;
        match persist::from_bytes::<OwnershipClaim>(&garbled) {
            Ok(loaded) => {
                assert_eq!(loaded.trigger_set.len(), loaded.trigger_set.features().rows());
                assert_eq!(loaded.test_set.len(), loaded.test_set.features().rows());
            }
            Err(
                WatermarkError::CorruptedArtifact { .. }
                | WatermarkError::UnrecognizedFormat { .. }
                | WatermarkError::UnsupportedFormatVersion { .. },
            ) => {}
            Err(other) => panic!("byte {position}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn missing_file_is_an_io_error() {
    let missing = std::env::temp_dir().join("wdte-definitely-missing.wdte");
    assert!(matches!(
        persist::load::<Signature>(&missing).unwrap_err(),
        WatermarkError::Io { .. }
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Round-trips through the binary container preserve every prediction exactly,
    /// for arbitrarily seeded models and probe points (including
    /// non-finite probes).
    #[test]
    fn round_trips_reproduce_predictions_bit_for_bit(
        seed in 0u64..10_000,
        probes in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![
                    -3.0f64..3.0,
                    Just(f64::NAN),
                    Just(f64::INFINITY),
                    Just(f64::NEG_INFINITY),
                ],
                30
            ),
            1..8
        ),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.3).generate(&mut rng);
        let forest = RandomForest::fit(&dataset, &ForestParams::with_trees(5), &mut rng);

        let restored: RandomForest =
            persist::from_bytes(&persist::to_bytes(&forest, Format::Binary)).unwrap();
        prop_assert_eq!(&restored, &forest);
        for probe in &probes {
            prop_assert_eq!(restored.predict_all(probe), forest.predict_all(probe));
        }
    }
}
