//! Black-box watermark verification.
//!
//! The verification protocol involves three parties: the owner (Alice), the
//! suspected infringer (Bob) and a judge (Charlie). Alice hands Charlie her
//! signature `σ`, the trigger set `D_trigger` and a test set `D_test ⊇
//! D_trigger`; Charlie queries Bob's model black-box on the whole test set
//! (so Bob cannot tell which queries matter) and checks that for every
//! trigger instance the `i`-th tree classifies it correctly iff `σ_i = 0`.

use crate::signature::Signature;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wdte_data::{Dataset, DenseMatrix, Label};
use wdte_trees::{CompiledForest, RandomForest, BATCH_SHARD_ROWS};

/// Black-box access to a suspected model: per-tree predictions only, no
/// visibility of the model parameters. The paper assumes the ensemble
/// output is the sequence of individual tree predictions (R's
/// `predict.all` / a thin sklearn wrapper).
///
/// A remote oracle implements [`query`](Self::query) and, if it can
/// answer many instances per round trip, [`query_batch`](Self::query_batch).
/// Oracles backed by an in-process model (`RandomForest` and
/// `CompiledForest`, which the dispute service verifies through) also override
/// [`for_each_response`](Self::for_each_response) to lend slices of one
/// flat [`wdte_trees::BatchPredictions`] instead of allocating a vector
/// per instance.
pub trait ModelOracle {
    /// Number of trees the model reports.
    fn num_trees(&self) -> usize;
    /// Per-tree predictions for one instance, in tree order.
    fn query(&self, instance: &[f64]) -> Vec<Label>;
    /// Per-tree predictions for every instance of a batch, in batch order.
    /// The default answers one instance at a time, which is the right
    /// model for a remote oracle.
    fn query_batch(&self, batch: &Dataset) -> Vec<Vec<Label>> {
        batch.iter().map(|(instance, _)| self.query(instance)).collect()
    }
    /// Hands each row's per-tree predictions to `visit`, in batch order.
    ///
    /// This is how [`verify_ownership`] reads the model: the protocol
    /// queries the whole verification batch at once, so this is the
    /// verification hot path. The default visits the rows of
    /// [`query_batch`](Self::query_batch) as returned, ragged or not.
    fn for_each_response(&self, batch: &Dataset, visit: &mut dyn FnMut(&[Label])) {
        for responses in self.query_batch(batch) {
            visit(&responses);
        }
    }
}

impl ModelOracle for RandomForest {
    fn num_trees(&self) -> usize {
        RandomForest::num_trees(self)
    }

    fn query(&self, instance: &[f64]) -> Vec<Label> {
        self.predict_all(instance)
    }

    /// Batched queries compile the forest once and answer the whole batch
    /// through the flattened representation; compilation is linear in the
    /// model size and amortized over every sample of the batch.
    fn for_each_response(&self, batch: &Dataset, visit: &mut dyn FnMut(&[Label])) {
        CompiledForest::compile(self).for_each_response(batch, visit);
    }
}

impl ModelOracle for CompiledForest {
    fn num_trees(&self) -> usize {
        CompiledForest::num_trees(self)
    }

    fn query(&self, instance: &[f64]) -> Vec<Label> {
        self.predict_all(instance)
    }

    /// The batch is sharded across the work-stealing pool in
    /// [`BATCH_SHARD_ROWS`]-row shards; the responses are bit-identical to
    /// the serial walk for any shard size and worker count.
    fn for_each_response(&self, batch: &Dataset, visit: &mut dyn FnMut(&[Label])) {
        self.par_predict_all_batch(batch.features(), BATCH_SHARD_ROWS)
            .iter()
            .for_each(visit);
    }
}

/// The evidence the owner submits to the judge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwnershipClaim {
    /// The owner's signature `σ`.
    pub signature: Signature,
    /// The trigger set with its original labels.
    pub trigger_set: Dataset,
    /// Additional test instances used to disguise the trigger queries
    /// (`D_test`; the protocol requires `D_trigger ⊆ D_test`, so these are
    /// the non-trigger part).
    pub test_set: Dataset,
}

impl OwnershipClaim {
    /// Builds a claim from the owner's artefacts.
    pub fn new(signature: Signature, trigger_set: Dataset, test_set: Dataset) -> Self {
        Self {
            signature,
            trigger_set,
            test_set,
        }
    }

    /// Deterministic seed for the disguise shuffle, derived from the
    /// *secret* claim content (FNV-1a over the signature bits and the
    /// trigger set's feature/label payload, plus both batch lengths).
    ///
    /// Deriving the seed from the batch sizes alone — the previous
    /// behaviour — was a protocol bug: Bob can count queries, so size-only
    /// seeding let him reconstruct the permutation and unmask which batch
    /// positions are trigger instances, defeating the indistinguishability
    /// argument the suppression analysis relies on. It also collided for
    /// any two equal-sized claims. Signature and trigger set are exactly
    /// the material Bob never sees, so hashing them makes the permutation
    /// unpredictable to him while keeping verification reproducible from
    /// the claim alone — and, unlike hashing the (much larger) disguise
    /// set too, stays off the per-claim verification hot path.
    pub fn disguise_seed(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        // FNV-1a over 64-bit words rather than bytes: every ingested value
        // (feature bit pattern, label, length) is already a word, and the
        // seed is recomputed on every verification call, so the 8x cheaper
        // mixing keeps the derivation cheap.
        let mut hash = FNV_OFFSET;
        let mut eat = |word: u64| {
            hash = (hash ^ word).wrapping_mul(FNV_PRIME);
        };
        for &bit in self.signature.bits() {
            eat(u64::from(bit));
        }
        eat(self.trigger_set.len() as u64);
        eat(self.test_set.len() as u64);
        for (instance, label) in self.trigger_set.iter() {
            for &value in instance {
                eat(value.to_bits());
            }
            eat(label.index() as u64);
        }
        hash
    }

    /// Width of the verification batch: the trigger set's, unless it is an
    /// empty matrix that has never been given one and disguise rows supply
    /// it. `None` when non-empty disguise rows have another width, which no
    /// batch can hold.
    pub fn batch_width(&self) -> Option<usize> {
        let (trigger, test) = (self.trigger_set.features(), self.test_set.features());
        let cols = if trigger.rows() == 0 && trigger.cols() == 0 && !self.test_set.is_empty() {
            test.cols()
        } else {
            trigger.cols()
        };
        (self.test_set.is_empty() || test.cols() == cols).then_some(cols)
    }

    /// The full verification batch Charlie sends to the model: trigger and
    /// disguise instances shuffled together. Returns the batch and, for
    /// each batch position, the index of the trigger instance it came from
    /// (or `None` for disguise instances).
    ///
    /// The batch is gathered in one pass from both sets in shuffled order:
    /// it equals concatenating trigger and test set and then selecting the
    /// rows by the permutation, without the intermediate copy.
    ///
    /// # Panics
    /// Panics if both sets hold rows of different widths
    /// ([`batch_width`](Self::batch_width) is `None`).
    pub fn verification_batch<R: Rng + ?Sized>(&self, rng: &mut R) -> (Dataset, Vec<Option<usize>>) {
        let (trigger, test) = (&self.trigger_set, &self.test_set);
        let cols = self.batch_width().expect("claim datasets are compatible");
        let mut order: Vec<usize> = (0..trigger.len() + test.len()).collect();
        order.shuffle(rng);
        let mut values = Vec::with_capacity(order.len() * cols);
        let mut labels = Vec::with_capacity(order.len());
        let origin = order
            .into_iter()
            .map(|index| {
                let (set, row, origin) = match index.checked_sub(trigger.len()) {
                    None => (trigger, index, Some(index)),
                    Some(row) => (test, row, None),
                };
                values.extend_from_slice(set.instance(row));
                labels.push(set.label(row));
                origin
            })
            .collect();
        let features =
            DenseMatrix::from_vec(labels.len(), cols, values).expect("gathered rows fill the matrix");
        let batch = Dataset::with_classes(
            trigger.name.clone(),
            features,
            labels,
            trigger.num_classes().max(test.num_classes()),
        )
        .expect("claim labels fit the combined class count");
        (batch, origin)
    }
}

/// Outcome of verifying a claim against a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// `true` when every trigger instance exhibits exactly the required
    /// per-tree pattern.
    pub verified: bool,
    /// Per trigger instance: whether the full pattern matched.
    pub instance_matches: Vec<bool>,
    /// Fraction of (tree, trigger instance) pairs behaving as required;
    /// 1.0 for a genuine watermarked model, ≈0.5 noise for an unrelated
    /// model.
    pub bit_agreement: f64,
    /// Total number of black-box queries issued (trigger + disguise).
    pub queries_issued: usize,
}

/// Verifies an ownership claim against a black-box model.
///
/// The whole verification batch (trigger instances disguised among test
/// instances) is submitted in one [`ModelOracle::for_each_response`]
/// call; for in-process models this runs through the compiled block-wise
/// inference path. Only the responses of trigger instances are used for
/// the decision.
pub fn verify_ownership<O: ModelOracle + ?Sized>(
    model: &O,
    claim: &OwnershipClaim,
) -> VerificationReport {
    // Deterministic disguise order: verification must not depend on an
    // external RNG, so the batch is shuffled with a fixed seed derived from
    // the claim *content* (see [`OwnershipClaim::disguise_seed`] for why
    // size-derived seeds were a protocol bug). The order never affects the
    // decision, only the attacker-facing disguise.
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(claim.disguise_seed());
    let (batch, origin) = claim.verification_batch(&mut rng);

    let mut instance_matches = vec![false; claim.trigger_set.len()];
    let mut matching_bits = 0usize;
    let mut total_bits = 0usize;
    let num_classes = claim.trigger_set.num_classes();
    let mut position = 0usize;
    model.for_each_response(&batch, &mut |responses| {
        let from = origin[position];
        position += 1;
        let Some(trigger_index) = from else {
            return;
        };
        let label = claim.trigger_set.label(trigger_index);
        let mut all_match = responses.len() == claim.signature.len();
        for (i, &response) in responses.iter().enumerate().take(claim.signature.len()) {
            let required = claim.signature.required_prediction(i, label, num_classes);
            if response == required {
                matching_bits += 1;
            } else {
                all_match = false;
            }
            total_bits += 1;
        }
        instance_matches[trigger_index] = all_match;
    });
    let verified = !instance_matches.is_empty() && instance_matches.iter().all(|&m| m);
    let bit_agreement = if total_bits == 0 {
        0.0
    } else {
        matching_bits as f64 / total_bits as f64
    };
    VerificationReport {
        verified,
        instance_matches,
        bit_agreement,
        queries_issued: batch.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WatermarkConfig;
    use crate::watermark::Watermarker;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdte_data::SyntheticSpec;

    fn embed() -> (Dataset, Dataset, crate::watermark::WatermarkOutcome, Watermarker) {
        let dataset = SyntheticSpec::breast_cancer_like()
            .scaled(0.8)
            .generate(&mut SmallRng::seed_from_u64(31));
        let mut rng = SmallRng::seed_from_u64(32);
        let (train, test) = dataset.split_stratified(0.75, &mut rng);
        let signature = Signature::random(12, 0.5, &mut rng);
        let watermarker = Watermarker::new(WatermarkConfig {
            num_trees: 12,
            ..WatermarkConfig::fast()
        });
        let outcome = watermarker.embed(&train, &signature, &mut rng).unwrap();
        (train, test, outcome, watermarker)
    }

    #[test]
    fn genuine_owner_verifies_successfully() {
        let (_, test, outcome, _) = embed();
        let claim = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let report = verify_ownership(&outcome.model, &claim);
        assert!(report.verified);
        assert!((report.bit_agreement - 1.0).abs() < 1e-12);
        assert_eq!(report.queries_issued, outcome.trigger_set.len() + test.len());
        assert!(report.instance_matches.iter().all(|&m| m));
    }

    #[test]
    fn wrong_signature_fails_verification() {
        let (_, test, outcome, _) = embed();
        let mut rng = SmallRng::seed_from_u64(40);
        let fake = Signature::random(12, 0.5, &mut rng);
        // Ensure the fake signature differs from the real one.
        assert!(fake.hamming_distance(&outcome.signature) > 0);
        let claim = OwnershipClaim::new(fake, outcome.trigger_set.clone(), test);
        let report = verify_ownership(&outcome.model, &claim);
        assert!(!report.verified);
        assert!(report.bit_agreement < 1.0);
    }

    #[test]
    fn unrelated_model_fails_verification() {
        let (train, test, outcome, watermarker) = embed();
        let mut rng = SmallRng::seed_from_u64(41);
        let unrelated = watermarker.train_baseline(&train, &mut rng);
        let claim = OwnershipClaim::new(outcome.signature.clone(), outcome.trigger_set.clone(), test);
        let report = verify_ownership(&unrelated, &claim);
        assert!(!report.verified);
        // A standard model mostly classifies trigger instances correctly, so
        // the 1-bits of the signature cannot match.
        assert!(report.bit_agreement < 0.95);
    }

    #[test]
    fn wrong_trigger_set_fails_verification() {
        let (train, test, outcome, _) = embed();
        let mut rng = SmallRng::seed_from_u64(42);
        // A random subset of the training set that was never forced into the
        // trigger pattern.
        let other_indices = train.sample_indices(outcome.trigger_set.len(), &mut rng);
        let other_trigger = train.select(&other_indices).unwrap();
        let claim = OwnershipClaim::new(outcome.signature.clone(), other_trigger, test);
        let report = verify_ownership(&outcome.model, &claim);
        assert!(!report.verified);
    }

    #[test]
    fn compiled_oracle_verifies_like_the_pointer_model() {
        let (_, test, outcome, _) = embed();
        let claim = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let compiled = wdte_trees::CompiledForest::compile(&outcome.model);
        let from_compiled = verify_ownership(&compiled, &claim);
        let from_pointer = verify_ownership(&outcome.model, &claim);
        assert_eq!(from_compiled, from_pointer);
        assert!(from_compiled.verified);
    }

    #[test]
    fn default_per_instance_oracle_matches_the_batched_path() {
        /// Oracle that only answers one query at a time (a remote API), so
        /// verification exercises the default `query_batch` loop.
        struct PerInstance<'a>(&'a wdte_trees::RandomForest);
        impl ModelOracle for PerInstance<'_> {
            fn num_trees(&self) -> usize {
                self.0.num_trees()
            }
            fn query(&self, instance: &[f64]) -> Vec<Label> {
                self.0.predict_all(instance)
            }
        }

        let (_, test, outcome, _) = embed();
        let claim = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let batched = verify_ownership(&outcome.model, &claim);
        let sequential = verify_ownership(&PerInstance(&outcome.model), &claim);
        assert_eq!(batched, sequential);
    }

    #[test]
    fn same_sized_claims_get_different_disguise_orders() {
        let (train, test, outcome, _) = embed();
        let claim_a = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        // Same trigger/test sizes, different trigger content: under the old
        // size-derived seed both claims shared one permutation.
        let mut rng = SmallRng::seed_from_u64(44);
        let other_indices = train.sample_indices(outcome.trigger_set.len(), &mut rng);
        let other_trigger = train.select(&other_indices).unwrap();
        let claim_b = OwnershipClaim::new(outcome.signature.clone(), other_trigger, test.clone());
        assert_eq!(claim_a.trigger_set.len(), claim_b.trigger_set.len());
        assert_eq!(claim_a.test_set.len(), claim_b.test_set.len());

        assert_ne!(claim_a.disguise_seed(), claim_b.disguise_seed());
        let origin_of = |claim: &OwnershipClaim| {
            use rand::SeedableRng;
            let mut rng = SmallRng::seed_from_u64(claim.disguise_seed());
            claim.verification_batch(&mut rng).1
        };
        assert_ne!(origin_of(&claim_a), origin_of(&claim_b));
        // The seed is a pure function of the claim content.
        assert_eq!(claim_a.disguise_seed(), claim_a.clone().disguise_seed());
    }

    #[test]
    fn caller_supplied_rng_changes_the_order_but_not_the_report() {
        let (_, test, outcome, _) = embed();
        let claim = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let deterministic = verify_ownership(&outcome.model, &claim);
        let external = query_batch_report(&outcome.model, &claim, 0xFEED);
        assert_eq!(deterministic, external);
        assert!(external.verified);
        // A different seed really yields a different disguise order than
        // the claim-derived one.
        let derived_origin =
            claim.verification_batch(&mut SmallRng::seed_from_u64(claim.disguise_seed())).1;
        let external_origin = claim.verification_batch(&mut SmallRng::seed_from_u64(0xFEED)).1;
        assert_ne!(derived_origin, external_origin);
    }

    /// The disguise batch as it was built before the one-pass gather:
    /// concatenate trigger and test set, then select rows in shuffled
    /// order. Kept as the reference the gather is pinned to.
    fn concat_select_batch<R: Rng + ?Sized>(
        claim: &OwnershipClaim,
        rng: &mut R,
    ) -> (Dataset, Vec<Option<usize>>) {
        let combined = claim
            .trigger_set
            .concat(&claim.test_set)
            .expect("claim datasets are compatible");
        let origin: Vec<Option<usize>> = (0..claim.trigger_set.len())
            .map(Some)
            .chain(std::iter::repeat_n(None, claim.test_set.len()))
            .collect();
        let mut order: Vec<usize> = (0..combined.len()).collect();
        order.shuffle(rng);
        let batch = combined.select(&order).expect("shuffle order is valid");
        (batch, order.into_iter().map(|i| origin[i]).collect())
    }

    /// The scoring loop as it was before oracles lent flat responses: one
    /// `query_batch` call over the reference batch shuffled from `seed`,
    /// one owned vector per row.
    fn query_batch_report<O: ModelOracle + ?Sized>(
        model: &O,
        claim: &OwnershipClaim,
        seed: u64,
    ) -> VerificationReport {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (batch, origin) = concat_select_batch(claim, &mut rng);
        let mut instance_matches = vec![false; claim.trigger_set.len()];
        let (mut matching_bits, mut total_bits) = (0usize, 0usize);
        let num_classes = claim.trigger_set.num_classes();
        for (position, responses) in model.query_batch(&batch).iter().enumerate() {
            let Some(trigger_index) = origin[position] else {
                continue;
            };
            let label = claim.trigger_set.label(trigger_index);
            let mut all_match = responses.len() == claim.signature.len();
            for (i, &response) in responses.iter().enumerate().take(claim.signature.len()) {
                if response == claim.signature.required_prediction(i, label, num_classes) {
                    matching_bits += 1;
                } else {
                    all_match = false;
                }
                total_bits += 1;
            }
            instance_matches[trigger_index] = all_match;
        }
        VerificationReport {
            verified: !instance_matches.is_empty() && instance_matches.iter().all(|&m| m),
            instance_matches,
            bit_agreement: if total_bits == 0 {
                0.0
            } else {
                matching_bits as f64 / total_bits as f64
            },
            queries_issued: batch.len(),
        }
    }

    /// Bit patterns of every feature, so `NaN` rows compare equal.
    fn feature_bits(dataset: &Dataset) -> Vec<u64> {
        dataset.features().as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn feature_value() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![
            -2.0f64..2.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(0.0),
            Just(-0.0),
        ]
    }

    /// A `k`-class dataset of `rows`; an empty one is built either with no
    /// width at all or with the width of its non-empty siblings.
    fn k_class_set(rows: &[Vec<f64>], picks: &[u8], k: usize, sized_when_empty: bool) -> Dataset {
        let features = if rows.is_empty() && sized_when_empty {
            wdte_data::DenseMatrix::zeros(0, 3)
        } else {
            wdte_data::DenseMatrix::from_rows(rows).unwrap()
        };
        let labels = picks[..rows.len()]
            .iter()
            .map(|&pick| Label::from_index(pick as usize % k).unwrap())
            .collect();
        Dataset::with_classes("claim", features, labels, k).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn one_gather_batch_matches_concat_then_select(
            trigger_rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 3), 0..9),
            test_rows in proptest::collection::vec(proptest::collection::vec(feature_value(), 3), 0..14),
            picks in proptest::collection::vec(proptest::prelude::any::<u8>(), 17),
            k_pick in 0usize..3,
            sized_when_empty in proptest::prelude::any::<bool>(),
            bits in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..6),
            seed in 0u64..1_000_000,
        ) {
            let k = [2usize, 3, 5][k_pick];
            let claim = OwnershipClaim::new(
                Signature::from_bits(bits),
                k_class_set(&trigger_rows, &picks, k, sized_when_empty),
                k_class_set(&test_rows, &picks[3..], k, sized_when_empty),
            );
            let (batch, origin) = claim.verification_batch(&mut SmallRng::seed_from_u64(seed));
            let (reference, reference_origin) = concat_select_batch(&claim, &mut SmallRng::seed_from_u64(seed));
            proptest::prop_assert_eq!(&origin, &reference_origin);
            proptest::prop_assert_eq!(feature_bits(&batch), feature_bits(&reference));
            proptest::prop_assert_eq!(batch.features().rows(), reference.features().rows());
            proptest::prop_assert_eq!(batch.features().cols(), reference.features().cols());
            proptest::prop_assert_eq!(batch.labels(), reference.labels());
            proptest::prop_assert_eq!(batch.num_classes(), reference.num_classes());
            proptest::prop_assert_eq!(&batch.name, &reference.name);
        }
    }

    #[test]
    fn every_oracle_kind_scores_like_the_query_batch_reference() {
        /// Answers only `query`, so `query_batch` and `for_each_response`
        /// run their defaults.
        struct QueryOnly<'a>(&'a wdte_trees::RandomForest);
        impl ModelOracle for QueryOnly<'_> {
            fn num_trees(&self) -> usize {
                self.0.num_trees()
            }
            fn query(&self, instance: &[f64]) -> Vec<Label> {
                self.0.predict_all(instance)
            }
        }
        /// A black box whose `query_batch` rows are cut short or padded
        /// past the signature length, alternating by row.
        struct Ragged<'a>(&'a wdte_trees::RandomForest);
        impl ModelOracle for Ragged<'_> {
            fn num_trees(&self) -> usize {
                self.0.num_trees()
            }
            fn query(&self, instance: &[f64]) -> Vec<Label> {
                self.0.predict_all(instance)
            }
            fn query_batch(&self, batch: &Dataset) -> Vec<Vec<Label>> {
                batch
                    .iter()
                    .enumerate()
                    .map(|(row, (instance, _))| {
                        let mut responses = self.query(instance);
                        match row % 3 {
                            0 => responses.truncate(responses.len() / 2),
                            1 => responses.extend_from_slice(&[Label::Negative, Label::Positive]),
                            _ => {}
                        }
                        responses
                    })
                    .collect()
            }
        }

        let (_, test, outcome, _) = embed();
        let claims = [
            OwnershipClaim::new(
                outcome.signature.clone(),
                outcome.trigger_set.clone(),
                test.clone(),
            ),
            OwnershipClaim::new(
                Signature::from_bits(outcome.signature.bits().iter().map(|&b| !b).collect()),
                outcome.trigger_set.clone(),
                test.clone(),
            ),
        ];
        let compiled = CompiledForest::compile(&outcome.model);
        let service = crate::service::DisputeService::builder().build().unwrap();
        service.register("m", &outcome.model);
        for claim in &claims {
            let reference = query_batch_report(&outcome.model, claim, claim.disguise_seed());
            assert_eq!(verify_ownership(&outcome.model, claim), reference);
            assert_eq!(verify_ownership(&QueryOnly(&outcome.model), claim), reference);
            assert_eq!(verify_ownership(&compiled, claim), reference);
            assert_eq!(service.resolve("m", claim).unwrap(), reference);
            let ragged = verify_ownership(&Ragged(&outcome.model), claim);
            let ragged_reference =
                query_batch_report(&Ragged(&outcome.model), claim, claim.disguise_seed());
            assert_eq!(ragged, ragged_reference);
            assert!(!ragged.verified, "ragged rows never match the whole signature");
        }
    }

    #[test]
    fn verification_batch_disguises_trigger_instances() {
        let (_, test, outcome, _) = embed();
        let claim = OwnershipClaim::new(
            outcome.signature.clone(),
            outcome.trigger_set.clone(),
            test.clone(),
        );
        let mut rng = SmallRng::seed_from_u64(43);
        let (batch, origin) = claim.verification_batch(&mut rng);
        assert_eq!(batch.len(), outcome.trigger_set.len() + test.len());
        assert_eq!(
            origin.iter().filter(|o| o.is_some()).count(),
            outcome.trigger_set.len()
        );
        // Every trigger instance appears exactly once.
        let mut seen: Vec<usize> = origin.iter().flatten().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), outcome.trigger_set.len());
    }
}
