//! Labeled datasets: a dense feature matrix paired with binary labels.

use crate::error::{DataError, DataResult};
use crate::label::{ClassCounts, Label};
use crate::matrix::DenseMatrix;
use crate::presort::Presort;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{binary, DeError, Deserialize, Serialize, Value};
use std::sync::{Arc, OnceLock};

/// A labeled dataset of real-valued feature vectors and binary labels.
///
/// # NaN handling
///
/// Like [`DenseMatrix`], the constructors accept non-finite feature
/// values; training orders them deterministically with `total_cmp` and
/// never places split thresholds next to them (see the `DenseMatrix`
/// documentation). Labels are always finite by construction.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. `"mnist2-6-synth"`).
    pub name: String,
    features: DenseMatrix,
    labels: Vec<Label>,
    /// Number of classes `k` of the label space (at least 2). Every label
    /// index is strictly below this.
    num_classes: usize,
    /// The lazily built presort of `features`. It depends on the feature
    /// matrix alone, which label edits do not touch, so clones and the
    /// label-flipped copies Algorithm 1 trains on share it, and every
    /// reweighted retraining round of `TrainWithTrigger` reuses one
    /// presort. Rebuilt on feature mutation (`normalize`).
    cache: Arc<OnceLock<Arc<Presort>>>,
}

/// Equality ignores the derived training cache.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.features == other.features
            && self.labels == other.labels
            && self.num_classes == other.num_classes
    }
}

impl Serialize for Dataset {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".to_string(), self.name.to_value()),
            ("features".to_string(), self.features.to_value()),
            ("labels".to_string(), self.labels.to_value()),
            ("num_classes".to_string(), self.num_classes.to_value()),
        ])
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_map_header(out, 4);
        binary::write_key(out, "name");
        self.name.write_binary(out);
        binary::write_key(out, "features");
        self.features.write_binary(out);
        binary::write_key(out, "labels");
        self.labels.write_binary(out);
        binary::write_key(out, "num_classes");
        self.num_classes.write_binary(out);
    }
}

/// The serialized fields of a [`Dataset`], before the label checks.
mod unchecked {
    #[derive(serde::Deserialize)]
    pub(super) struct Dataset {
        pub(super) name: String,
        pub(super) features: super::DenseMatrix,
        pub(super) labels: Vec<super::Label>,
        pub(super) num_classes: usize,
    }
}

impl Deserialize for Dataset {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Self::checked(unchecked::Dataset::from_value(value)?)
    }

    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        Self::checked(unchecked::Dataset::read_binary(reader, depth)?)
    }
}

impl Dataset {
    /// Re-validates deserialized parts through the checked constructors,
    /// so a corrupted serialized dataset (label count disagreeing with the
    /// feature rows, labels outside the class count) is rejected instead of
    /// panicking during verification.
    fn checked(parts: unchecked::Dataset) -> Result<Self, DeError> {
        let unchecked::Dataset {
            name,
            features,
            labels,
            num_classes,
        } = parts;
        Dataset::with_classes(name, features, labels, num_classes)
            .map_err(|err| DeError::new(format!("invalid Dataset: {err}")))
    }

    /// Builds a dataset, validating that the number of labels matches the
    /// number of feature rows. The class count is inferred as
    /// `max(2, largest label index + 1)`; use [`Dataset::with_classes`]
    /// when the label space is known (a subset may not exercise every
    /// class).
    pub fn new(name: impl Into<String>, features: DenseMatrix, labels: Vec<Label>) -> DataResult<Self> {
        let inferred = labels.iter().map(|label| label.index() + 1).max().unwrap_or(2).max(2);
        Self::with_classes(name, features, labels, inferred)
    }

    /// Builds a dataset over an explicit k-class label space, validating
    /// the label count against the feature rows and every label index
    /// against `num_classes`.
    pub fn with_classes(
        name: impl Into<String>,
        features: DenseMatrix,
        labels: Vec<Label>,
        num_classes: usize,
    ) -> DataResult<Self> {
        if features.rows() != labels.len() {
            return Err(DataError::LabelCountMismatch {
                rows: features.rows(),
                labels: labels.len(),
            });
        }
        let num_classes = num_classes.max(2);
        if num_classes > Label::MAX_CLASSES {
            return Err(DataError::InvalidClassIndex {
                index: num_classes - 1,
                num_classes: Label::MAX_CLASSES,
            });
        }
        if let Some(bad) = labels.iter().find(|label| label.index() >= num_classes) {
            return Err(DataError::InvalidClassIndex {
                index: bad.index(),
                num_classes,
            });
        }
        Ok(Self {
            name: name.into(),
            features,
            labels,
            num_classes,
            cache: Arc::default(),
        })
    }

    /// The presorted per-feature view of the features, built on first use
    /// and cached for the lifetime of the feature matrix. Clones of the
    /// dataset and label-flipped copies share the same cache, so repeated
    /// forest training (Algorithm 1's retraining loop, grid search on the
    /// same dataset) pays the `O(d · n log n)` sort exactly once.
    pub fn presort(&self) -> Arc<Presort> {
        self.cache.get_or_init(|| Arc::new(Presort::build(&self.features))).clone()
    }

    /// Number of instances.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset holds no instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per instance.
    #[inline]
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes `k` of the label space (at least 2).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Borrow of the feature matrix.
    #[inline]
    pub fn features(&self) -> &DenseMatrix {
        &self.features
    }

    /// Borrow of the label vector.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Feature vector of a single instance.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn instance(&self, index: usize) -> &[f64] {
        self.features.row(index)
    }

    /// Label of a single instance.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    #[inline]
    pub fn label(&self, index: usize) -> Label {
        self.labels[index]
    }

    /// Iterator over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], Label)> {
        self.features.iter_rows().zip(self.labels.iter().copied())
    }

    /// Weighted class counts over the whole dataset (unit weights).
    pub fn class_counts(&self) -> ClassCounts {
        let mut counts = ClassCounts::with_classes(self.num_classes);
        for &label in &self.labels {
            counts.add(label, 1.0);
        }
        counts
    }

    /// Class distribution as `(positive_fraction, negative_fraction)`;
    /// this is the "Distribution" column of Table 1. For `k > 2` these are
    /// the shares of classes 1 and 0 (they no longer sum to one).
    pub fn class_distribution(&self) -> (f64, f64) {
        let counts = self.class_counts();
        let total = counts.total();
        if total == 0.0 {
            (0.0, 0.0)
        } else {
            (counts.positive() / total, counts.negative() / total)
        }
    }

    /// Copies the given instance indices (order preserved, duplicates
    /// allowed) into a new dataset. The class count of the label space is
    /// preserved even when the subset misses some classes.
    pub fn select(&self, indices: &[usize]) -> DataResult<Dataset> {
        let features = self.features.select_rows(indices)?;
        let mut labels = Vec::with_capacity(indices.len());
        for &index in indices {
            if index >= self.labels.len() {
                return Err(DataError::IndexOutOfBounds {
                    index,
                    len: self.labels.len(),
                });
            }
            labels.push(self.labels[index]);
        }
        Dataset::with_classes(self.name.clone(), features, labels, self.num_classes)
    }

    /// Returns a copy of the dataset with every label rotated to the next
    /// class (`(x, y) -> (x, -y)` for binary labels), as used to build
    /// `D'_trigger` in Algorithm 1; for `k > 2` the flip generalizes to
    /// the deterministic rotation `(index + 1) mod k`.
    ///
    /// The copy shares this dataset's training cache: rewriting labels
    /// does not change the feature matrix, so presorted columns stay
    /// valid.
    pub fn with_flipped_labels(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            features: self.features.clone(),
            labels: self.labels.iter().map(|l| l.rotated(self.num_classes)).collect(),
            num_classes: self.num_classes,
            cache: Arc::clone(&self.cache),
        }
    }

    /// Returns a copy with the labels of the listed indices rotated to the
    /// next class (flipped, for binary labels); like
    /// [`Dataset::with_flipped_labels`], the copy shares the training
    /// cache of the original.
    pub fn with_labels_flipped_at(&self, indices: &[usize]) -> DataResult<Dataset> {
        let mut labels = self.labels.clone();
        for &index in indices {
            if index >= labels.len() {
                return Err(DataError::IndexOutOfBounds {
                    index,
                    len: labels.len(),
                });
            }
            labels[index] = labels[index].rotated(self.num_classes);
        }
        Ok(Dataset {
            name: self.name.clone(),
            features: self.features.clone(),
            labels,
            num_classes: self.num_classes,
            cache: Arc::clone(&self.cache),
        })
    }

    /// Concatenates two datasets with the same dimensionality. The result
    /// spans the union of both label spaces.
    pub fn concat(&self, other: &Dataset) -> DataResult<Dataset> {
        if !self.is_empty() && !other.is_empty() && self.num_features() != other.num_features() {
            return Err(DataError::DimensionMismatch {
                expected: self.num_features(),
                found: other.num_features(),
            });
        }
        let mut features = self.features.clone();
        for row in other.features.iter_rows() {
            features.push_row(row)?;
        }
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Dataset::with_classes(
            self.name.clone(),
            features,
            labels,
            self.num_classes.max(other.num_classes),
        )
    }

    /// Min-max normalizes all features into `[0, 1]` in place and returns
    /// the per-column ranges used. Mutating the features invalidates the
    /// training cache, so this dataset (and only this one — clones keep
    /// the old cache for their unchanged features) starts fresh.
    pub fn normalize(&mut self) -> Vec<(f64, f64)> {
        let ranges = self.features.normalize_min_max();
        self.cache = Arc::default();
        ranges
    }

    /// Random train/test split. `train_fraction` is the share of instances
    /// placed in the training set; the split is shuffled but *not*
    /// stratified (see [`Dataset::split_stratified`] for the stratified
    /// variant used by the experiments).
    pub fn split_train_test<R: Rng + ?Sized>(
        &self,
        train_fraction: f64,
        rng: &mut R,
    ) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must lie in (0, 1), got {train_fraction}"
        );
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        let split = ((self.len() as f64) * train_fraction).round() as usize;
        let split = split.clamp(1, self.len().saturating_sub(1).max(1));
        let train = self.select(&indices[..split]).expect("indices are in range");
        let test = self.select(&indices[split..]).expect("indices are in range");
        (train, test)
    }

    /// Stratified train/test split preserving the class distribution in
    /// both partitions.
    pub fn split_stratified<R: Rng + ?Sized>(
        &self,
        train_fraction: f64,
        rng: &mut R,
    ) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must lie in (0, 1), got {train_fraction}"
        );
        let mut train_indices = Vec::new();
        let mut test_indices = Vec::new();
        for class in 0..self.num_classes {
            let mut class_indices: Vec<usize> =
                (0..self.len()).filter(|&i| self.labels[i].index() == class).collect();
            class_indices.shuffle(rng);
            let split = ((class_indices.len() as f64) * train_fraction).round() as usize;
            let split = split.min(class_indices.len());
            train_indices.extend_from_slice(&class_indices[..split]);
            test_indices.extend_from_slice(&class_indices[split..]);
        }
        train_indices.shuffle(rng);
        test_indices.shuffle(rng);
        let train = self.select(&train_indices).expect("indices are in range");
        let test = self.select(&test_indices).expect("indices are in range");
        (train, test)
    }

    /// Stratified random subsample of `target` instances, used to reduce
    /// ijcnn1 to 10,000 instances as described in the paper's evaluation.
    pub fn stratified_subsample<R: Rng + ?Sized>(
        &self,
        target: usize,
        rng: &mut R,
    ) -> DataResult<Dataset> {
        if target == 0 || self.is_empty() {
            return Err(DataError::EmptyDataset);
        }
        if target >= self.len() {
            return Ok(self.clone());
        }
        let fraction = target as f64 / self.len() as f64;
        let mut selected = Vec::with_capacity(target);
        for class in 0..self.num_classes {
            let mut class_indices: Vec<usize> =
                (0..self.len()).filter(|&i| self.labels[i].index() == class).collect();
            class_indices.shuffle(rng);
            let take = ((class_indices.len() as f64) * fraction).round() as usize;
            selected.extend_from_slice(&class_indices[..take.min(class_indices.len())]);
        }
        // Round-off can leave us slightly off target; trim or top up.
        selected.shuffle(rng);
        selected.truncate(target);
        while selected.len() < target {
            let candidate = rng.gen_range(0..self.len());
            if !selected.contains(&candidate) {
                selected.push(candidate);
            }
        }
        self.select(&selected)
    }

    /// Samples `k` distinct instance indices uniformly at random; this is
    /// the `Sample(D_train, k)` step that draws the trigger set.
    pub fn sample_indices<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<usize> {
        let k = k.min(self.len());
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        indices.truncate(k);
        indices
    }
}

/// Summary statistics of a dataset, mirroring a row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of instances.
    pub instances: usize,
    /// Number of features.
    pub features: usize,
    /// Fraction of positive instances.
    pub positive_fraction: f64,
    /// Fraction of negative instances.
    pub negative_fraction: f64,
}

impl DatasetStats {
    /// Computes the statistics of a dataset.
    pub fn of(dataset: &Dataset) -> Self {
        let (positive_fraction, negative_fraction) = dataset.class_distribution();
        Self {
            name: dataset.name.clone(),
            instances: dataset.len(),
            features: dataset.num_features(),
            positive_fraction,
            negative_fraction,
        }
    }

    /// Renders the class distribution the way Table 1 prints it,
    /// e.g. `"51%/49%"`.
    pub fn distribution_string(&self) -> String {
        format!(
            "{:.0}%/{:.0}%",
            self.positive_fraction * 100.0,
            self.negative_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn toy(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, (i * 2) as f64]).collect();
        let labels: Vec<Label> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    Label::Positive
                } else {
                    Label::Negative
                }
            })
            .collect();
        Dataset::new("toy", DenseMatrix::from_rows(&rows).unwrap(), labels).unwrap()
    }

    #[test]
    fn new_validates_label_count() {
        let features = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert!(Dataset::new("bad", features, vec![Label::Positive]).is_err());
    }

    #[test]
    fn class_distribution_sums_to_one() {
        let dataset = toy(30);
        let (pos, neg) = dataset.class_distribution();
        assert!((pos + neg - 1.0).abs() < 1e-12);
        assert!(pos > 0.0 && neg > 0.0);
    }

    #[test]
    fn select_and_flip() {
        let dataset = toy(9);
        let subset = dataset.select(&[0, 3, 6]).unwrap();
        assert_eq!(subset.len(), 3);
        assert!(subset.labels().iter().all(|&l| l == Label::Positive));
        let flipped = subset.with_flipped_labels();
        assert!(flipped.labels().iter().all(|&l| l == Label::Negative));
        assert_eq!(flipped.features(), subset.features());
    }

    #[test]
    fn flip_at_specific_indices() {
        let dataset = toy(6);
        let flipped = dataset.with_labels_flipped_at(&[0, 1]).unwrap();
        assert_eq!(flipped.label(0), dataset.label(0).flipped());
        assert_eq!(flipped.label(1), dataset.label(1).flipped());
        assert_eq!(flipped.label(2), dataset.label(2));
        assert!(dataset.with_labels_flipped_at(&[99]).is_err());
    }

    #[test]
    fn concat_appends_instances() {
        let a = toy(4);
        let b = toy(3);
        let c = a.concat(&b).unwrap();
        assert_eq!(c.len(), 7);
        assert_eq!(c.instance(4), b.instance(0));
    }

    #[test]
    fn split_partitions_every_instance_exactly_once() {
        let dataset = toy(50);
        let mut rng = SmallRng::seed_from_u64(1);
        let (train, test) = dataset.split_train_test(0.8, &mut rng);
        assert_eq!(train.len() + test.len(), dataset.len());
        assert_eq!(train.len(), 40);
    }

    #[test]
    fn stratified_split_preserves_distribution() {
        let dataset = toy(300);
        let mut rng = SmallRng::seed_from_u64(2);
        let (train, test) = dataset.split_stratified(0.7, &mut rng);
        let (full_pos, _) = dataset.class_distribution();
        let (train_pos, _) = train.class_distribution();
        let (test_pos, _) = test.class_distribution();
        assert!((train_pos - full_pos).abs() < 0.05);
        assert!((test_pos - full_pos).abs() < 0.05);
    }

    #[test]
    fn stratified_subsample_hits_target_size() {
        let dataset = toy(200);
        let mut rng = SmallRng::seed_from_u64(3);
        let small = dataset.stratified_subsample(50, &mut rng).unwrap();
        assert_eq!(small.len(), 50);
        let (full_pos, _) = dataset.class_distribution();
        let (small_pos, _) = small.class_distribution();
        assert!((full_pos - small_pos).abs() < 0.1);
        // Asking for more than available returns a copy.
        assert_eq!(dataset.stratified_subsample(500, &mut rng).unwrap().len(), 200);
    }

    #[test]
    fn sample_indices_are_distinct() {
        let dataset = toy(40);
        let mut rng = SmallRng::seed_from_u64(4);
        let indices = dataset.sample_indices(10, &mut rng);
        assert_eq!(indices.len(), 10);
        let mut unique = indices.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 10);
    }

    #[test]
    fn presort_cache_is_shared_with_label_flipped_copies() {
        let dataset = toy(20);
        let presort = dataset.presort();
        // Flipped copies reuse the same presort (pointer-equal Arc).
        let flipped = dataset.with_flipped_labels();
        assert!(std::sync::Arc::ptr_eq(&presort, &flipped.presort()));
        let partial = dataset.with_labels_flipped_at(&[0, 1]).unwrap();
        assert!(std::sync::Arc::ptr_eq(&presort, &partial.presort()));
        // Repeated calls return the same instance.
        assert!(std::sync::Arc::ptr_eq(&presort, &dataset.presort()));
    }

    #[test]
    fn normalize_invalidates_the_presort_cache() {
        let mut dataset = toy(10);
        let before = dataset.presort();
        dataset.normalize();
        let after = dataset.presort();
        assert!(!std::sync::Arc::ptr_eq(&before, &after));
        // The new presort reflects the normalized values.
        assert!(after.sorted_values(0).iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn stats_render_table1_style_distribution() {
        let dataset = toy(30);
        let stats = DatasetStats::of(&dataset);
        assert_eq!(stats.instances, 30);
        assert_eq!(stats.features, 2);
        assert!(stats.distribution_string().contains('%'));
    }
}
