//! Negative-path coverage for the on-disk format: corrupted, truncated and
//! version-mismatched files must surface typed `wdte_core` errors — never
//! panics and never silently wrong artefacts — plus property tests that
//! both encodings reproduce model behaviour exactly.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
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
/// a sweep of truncation points over all artefact kinds and both formats.
#[test]
fn truncated_files_yield_typed_errors_for_every_artefact() {
    let (model, claim, _) = fixture();
    let encodings: Vec<(&str, Vec<u8>)> = vec![
        ("model-bin", persist::to_bytes(&model, Format::Binary)),
        ("model-json", persist::to_bytes(&model, Format::Json)),
        ("claim-bin", persist::to_bytes(&claim, Format::Binary)),
        (
            "signature-json",
            persist::to_bytes(&claim.signature, Format::Json),
        ),
        (
            "trigger-bin",
            persist::to_bytes(&claim.trigger_set, Format::Binary),
        ),
    ];
    for (tag, bytes) in &encodings {
        let full_restores: bool = match *tag {
            "model-bin" | "model-json" => persist::from_bytes::<RandomForest>(bytes).is_ok(),
            "claim-bin" => persist::from_bytes::<OwnershipClaim>(bytes).is_ok(),
            "signature-json" => persist::from_bytes::<Signature>(bytes).is_ok(),
            _ => persist::from_bytes::<wdte_data::Dataset>(bytes).is_ok(),
        };
        assert!(full_restores, "{tag}: the untruncated artefact must load");
        for fraction in [0usize, 1, 3, 10, 50, 90, 99] {
            let cut = bytes.len() * fraction / 100;
            let truncated = &bytes[..cut];
            let err = match *tag {
                "model-bin" | "model-json" => {
                    persist::from_bytes::<RandomForest>(truncated).unwrap_err()
                }
                "claim-bin" => persist::from_bytes::<OwnershipClaim>(truncated).unwrap_err(),
                "signature-json" => persist::from_bytes::<Signature>(truncated).unwrap_err(),
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

    let json = String::from_utf8(persist::to_bytes(&model, Format::Json)).unwrap();
    let bumped = json.replacen(
        &format!("\"version\": {}", persist::FORMAT_VERSION),
        &format!("\"version\": {future}"),
        1,
    );
    assert_ne!(bumped, json);
    match persist::from_bytes::<RandomForest>(bumped.as_bytes()).unwrap_err() {
        WatermarkError::UnsupportedFormatVersion { found, .. } => assert_eq!(found, future),
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

#[test]
fn corrupted_pointer_models_are_rejected_not_walked() {
    let (model, _, test) = fixture();

    // A child index pointing out of the arena must be caught at load time,
    // not panic during prediction.
    let json = String::from_utf8(persist::to_bytes(&model, Format::Json)).unwrap();
    let out_of_range = json.replacen("\"left\": 1,", "\"left\": 999999,", 1);
    assert_ne!(out_of_range, json, "the envelope must contain a left child index");
    assert!(matches!(
        persist::from_bytes::<RandomForest>(out_of_range.as_bytes()).unwrap_err(),
        WatermarkError::CorruptedArtifact { .. }
    ));

    // A backwards child (cycle) must be caught too — it would otherwise
    // make prediction loop forever.
    let cyclic = json.replacen("\"left\": 1,", "\"left\": 0,", 1);
    assert_ne!(cyclic, json);
    assert!(matches!(
        persist::from_bytes::<RandomForest>(cyclic.as_bytes()).unwrap_err(),
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
    let json = String::from_utf8(persist::to_bytes(&claim, Format::Json)).unwrap();
    let bad_rows = json.replacen("\"rows\": ", "\"rows\": 9", 1);
    assert_ne!(bad_rows, json, "the envelope must contain matrix dimensions");
    assert!(matches!(
        persist::from_bytes::<OwnershipClaim>(bad_rows.as_bytes()).unwrap_err(),
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

    /// Round-trips through both formats preserve every prediction exactly,
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

        for format in [Format::Json, Format::Binary] {
            let restored: RandomForest =
                persist::from_bytes(&persist::to_bytes(&forest, format)).unwrap();
            prop_assert_eq!(&restored, &forest);
            for probe in &probes {
                prop_assert_eq!(restored.predict_all(probe), forest.predict_all(probe));
            }
        }
    }
}
