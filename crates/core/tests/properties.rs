//! Property-based tests for the watermarking scheme.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_core::{
    verify_ownership, watermark_holds, OwnershipClaim, Signature, WatermarkConfig, Watermarker,
};
use wdte_data::{Label, SyntheticSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_signatures_have_the_requested_ones_count(
        length in 1usize..200, ones_fraction in 0.0f64..1.0, seed in 0u64..1000
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let signature = Signature::random(length, ones_fraction, &mut rng);
        prop_assert_eq!(signature.len(), length);
        let expected = ((length as f64) * ones_fraction).round() as usize;
        prop_assert_eq!(signature.ones(), expected.min(length));
        prop_assert_eq!(signature.ones() + signature.zeros(), length);
    }

    #[test]
    fn required_predictions_flip_exactly_on_one_bits(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
        let signature = Signature::from_bits(bits.clone());
        for (i, &bit) in bits.iter().enumerate() {
            for label in [Label::Positive, Label::Negative] {
                let required = signature.required_prediction_k(i, label, 2);
                if bit {
                    prop_assert_eq!(required, label.flipped());
                } else {
                    prop_assert_eq!(required, label);
                }
            }
        }
    }

    #[test]
    fn hamming_distance_is_symmetric_and_bounded(
        a_bits in proptest::collection::vec(any::<bool>(), 32),
        b_bits in proptest::collection::vec(any::<bool>(), 32)
    ) {
        let a = Signature::from_bits(a_bits);
        let b = Signature::from_bits(b_bits);
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert!(a.hamming_distance(&b) <= 32);
        prop_assert_eq!(a.hamming_distance(&a), 0);
    }
}

proptest! {
    // Embedding is expensive; keep the case count small but still explore
    // several signatures and seeds.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn embedding_always_satisfies_the_watermark_property_and_verifies(
        seed in 0u64..50, ones_fraction in 0.2f64..0.8
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dataset = SyntheticSpec::breast_cancer_like().scaled(0.5).generate(&mut rng);
        let (train, test) = dataset.split_stratified(0.75, &mut rng);
        let signature = Signature::random(8, ones_fraction, &mut rng);
        let config = WatermarkConfig { num_trees: 8, ..WatermarkConfig::fast() };
        let outcome = Watermarker::new(config).embed(&train, &signature, &mut rng).unwrap();
        prop_assert!(watermark_holds(&outcome.model, &signature, &outcome.trigger_set));
        let claim = OwnershipClaim::new(signature, outcome.trigger_set.clone(), test);
        prop_assert!(verify_ownership(&outcome.model, &claim).verified);
    }
}
