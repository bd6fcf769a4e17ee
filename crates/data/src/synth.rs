//! Synthetic dataset generators.
//!
//! The paper evaluates on MNIST2-6, breast-cancer and ijcnn1. Those exact
//! files are not redistributable here, so this module provides deterministic
//! generators that reproduce each dataset's *shape*: the same number of
//! features, a comparable number of instances, the same class balance, and a
//! difficulty level at which a random forest reaches the same accuracy
//! regime (≈0.95–0.99 test accuracy). Every generator draws exclusively
//! from the caller-supplied RNG, so a fixed seed reproduces the exact same
//! dataset.

use crate::dataset::Dataset;
use crate::label::Label;
use crate::matrix::DenseMatrix;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Generation style, loosely mirroring the character of the original data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyntheticStyle {
    /// Image-like data on a square pixel grid: each class has a smooth
    /// stroke prototype, instances add pixel noise (MNIST2-6 stand-in).
    ImageLike,
    /// Tabular data with class-shifted correlated measurements
    /// (breast-cancer stand-in).
    Tabular,
    /// Low-dimensional data where each class is a mixture of clusters with
    /// strong class imbalance (ijcnn1 stand-in).
    Clustered,
}

/// Full specification of a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Dataset name used for reporting.
    pub name: String,
    /// Number of instances to generate.
    pub instances: usize,
    /// Number of features per instance.
    pub features: usize,
    /// Fraction of instances carrying the positive label.
    pub positive_fraction: f64,
    /// Number of features that actually carry class signal.
    pub informative_features: usize,
    /// Standard deviation of the per-instance feature noise.
    pub noise_std: f64,
    /// Fraction of labels flipped after generation, keeping test accuracy
    /// below 1.0 as in real data.
    pub label_noise: f64,
    /// Generation style.
    pub style: SyntheticStyle,
}

impl SyntheticSpec {
    /// Stand-in for MNIST2-6: 28x28 images of digits 2 vs 6
    /// (13,866 instances, 784 features, 51%/49%).
    pub fn mnist2_6_like() -> Self {
        Self {
            name: "mnist2-6-synth".into(),
            instances: 13_866,
            features: 784,
            positive_fraction: 0.51,
            informative_features: 180,
            noise_std: 0.14,
            label_noise: 0.002,
            style: SyntheticStyle::ImageLike,
        }
    }

    /// Stand-in for the Wisconsin breast-cancer dataset
    /// (569 instances, 30 features, 63%/37%).
    pub fn breast_cancer_like() -> Self {
        Self {
            name: "breast-cancer-synth".into(),
            instances: 569,
            features: 30,
            positive_fraction: 0.63,
            informative_features: 14,
            noise_std: 0.85,
            label_noise: 0.02,
            style: SyntheticStyle::Tabular,
        }
    }

    /// Stand-in for ijcnn1 before the stratified reduction
    /// (20,000 instances, 22 features, 10%/90%); the experiments then
    /// subsample to 10,000 instances exactly as the paper does.
    pub fn ijcnn1_like() -> Self {
        Self {
            name: "ijcnn1-synth".into(),
            instances: 20_000,
            features: 22,
            positive_fraction: 0.10,
            informative_features: 12,
            noise_std: 0.07,
            label_noise: 0.01,
            style: SyntheticStyle::Clustered,
        }
    }

    /// Returns a copy with the instance count scaled by `factor`
    /// (never below 60 instances). Used to keep unit tests and the default
    /// experiment configuration laptop-sized while preserving the shape of
    /// the dataset.
    pub fn scaled(&self, factor: f64) -> SyntheticSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut spec = self.clone();
        spec.instances = ((self.instances as f64 * factor).round() as usize).max(60);
        spec
    }

    /// Generates the dataset. All randomness comes from `rng`, so a fixed
    /// seed reproduces the same dataset bit-for-bit.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        assert!(self.features >= 1, "need at least one feature");
        assert!(
            self.informative_features >= 1,
            "need at least one informative feature"
        );
        assert!(
            self.positive_fraction > 0.0 && self.positive_fraction < 1.0,
            "positive fraction must be in (0, 1)"
        );
        let positives = ((self.instances as f64) * self.positive_fraction).round() as usize;
        let positives = positives.clamp(1, self.instances - 1);
        let negatives = self.instances - positives;

        // Rows go straight into one row-major buffer that becomes the
        // matrix, so generation holds the features once.
        let mut values = Vec::with_capacity(self.instances * self.features);
        let mut labels = Vec::with_capacity(self.instances);
        match self.style {
            SyntheticStyle::ImageLike => {
                self.generate_image_like(positives, negatives, &mut values, &mut labels, rng)
            }
            SyntheticStyle::Tabular => {
                self.generate_tabular(positives, negatives, &mut values, &mut labels, rng)
            }
            SyntheticStyle::Clustered => {
                self.generate_clustered(positives, negatives, &mut values, &mut labels, rng)
            }
        }

        // Shuffle instances and apply label noise.
        shuffle_rows(&mut values, &mut labels, self.features, rng);
        for label in labels.iter_mut() {
            if rng.gen_bool(self.label_noise.clamp(0.0, 1.0)) {
                *label = label.flipped();
            }
        }

        let features = DenseMatrix::from_vec(labels.len(), self.features, values)
            .expect("generated rows are rectangular");
        Dataset::new(self.name.clone(), features, labels).expect("labels align with rows")
    }

    /// Image-like generation: each class owns a stroke prototype drawn as a
    /// set of random walks on the pixel grid, blurred into neighbouring
    /// pixels; instances add Gaussian pixel noise and a random global
    /// intensity factor, then clamp into `[0, 1]`.
    fn generate_image_like<R: Rng + ?Sized>(
        &self,
        positives: usize,
        negatives: usize,
        values: &mut Vec<f64>,
        labels: &mut Vec<Label>,
        rng: &mut R,
    ) {
        let side = (self.features as f64).sqrt().ceil() as usize;
        let prototype_pos = stroke_prototype(side, self.features, self.informative_features, rng);
        let prototype_neg = stroke_prototype(side, self.features, self.informative_features, rng);
        let noise = Normal::new(0.0, self.noise_std).expect("valid std");
        for (count, label, prototype) in [
            (positives, Label::Positive, &prototype_pos),
            (negatives, Label::Negative, &prototype_neg),
        ] {
            for _ in 0..count {
                let intensity: f64 = rng.gen_range(0.75..1.0);
                values.extend(
                    prototype.iter().map(|&p| (p * intensity + noise.sample(rng)).clamp(0.0, 1.0)),
                );
                labels.push(label);
            }
        }
    }

    /// Tabular generation: informative features get class-dependent means
    /// (separated by roughly two noise standard deviations), the remaining
    /// features are pure noise shared between classes.
    fn generate_tabular<R: Rng + ?Sized>(
        &self,
        positives: usize,
        negatives: usize,
        values: &mut Vec<f64>,
        labels: &mut Vec<Label>,
        rng: &mut R,
    ) {
        let informative = self.informative_features.min(self.features);
        let mut informative_indices: Vec<usize> = (0..self.features).collect();
        informative_indices.shuffle(rng);
        informative_indices.truncate(informative);

        // Class means on a raw scale; min-max normalization at the end maps
        // everything into [0, 1].
        let mut mean_pos = vec![0.0; self.features];
        let mut mean_neg = vec![0.0; self.features];
        for &feature in &informative_indices {
            let base: f64 = rng.gen_range(-1.0..1.0);
            let separation: f64 = rng.gen_range(1.4..2.4) * self.noise_std;
            let direction = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            mean_pos[feature] = base + direction * separation / 2.0;
            mean_neg[feature] = base - direction * separation / 2.0;
        }
        let noise = Normal::new(0.0, self.noise_std).expect("valid std");
        for (count, label, means) in [
            (positives, Label::Positive, &mean_pos),
            (negatives, Label::Negative, &mean_neg),
        ] {
            for _ in 0..count {
                values.extend(means.iter().map(|&m| m + noise.sample(rng)));
                labels.push(label);
            }
        }
        min_max_normalize_columns(values, self.features);
    }

    /// Clustered generation: each class is a mixture of axis-aligned
    /// Gaussian clusters in the informative subspace, the rest of the
    /// features are uniform noise. The positive class uses more, tighter
    /// clusters, mimicking the rare-class structure of ijcnn1.
    fn generate_clustered<R: Rng + ?Sized>(
        &self,
        positives: usize,
        negatives: usize,
        values: &mut Vec<f64>,
        labels: &mut Vec<Label>,
        rng: &mut R,
    ) {
        let informative = self.informative_features.min(self.features);
        let pos_clusters = sample_cluster_centers(4, informative, rng);
        let neg_clusters = sample_cluster_centers(6, informative, rng);
        let noise = Normal::new(0.0, self.noise_std).expect("valid std");
        for (count, label, clusters) in [
            (positives, Label::Positive, &pos_clusters),
            (negatives, Label::Negative, &neg_clusters),
        ] {
            for _ in 0..count {
                let center = &clusters[rng.gen_range(0..clusters.len())];
                push_clustered_row(values, center, self.features, &noise, rng);
                labels.push(label);
            }
        }
    }
}

/// Specification of a k-class synthetic dataset, the workload generator
/// behind the multi-class experiment driver. Each class is a mixture of
/// axis-aligned Gaussian clusters in an informative subspace (the
/// `Clustered` style above, generalized to k classes); label noise rotates
/// labels to the next class so every corruption is a genuine class change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiClassSpec {
    /// Dataset name used for reporting.
    pub name: String,
    /// Number of instances to generate.
    pub instances: usize,
    /// Number of features per instance.
    pub features: usize,
    /// Number of classes `k` (at least 2).
    pub num_classes: usize,
    /// Number of features that actually carry class signal.
    pub informative_features: usize,
    /// Standard deviation of the per-instance feature noise.
    pub noise_std: f64,
    /// Fraction of labels rotated to the next class after generation.
    pub label_noise: f64,
}

impl MultiClassSpec {
    /// A laptop-sized k-class workload with a learnable cluster structure,
    /// used by the k ∈ {2, 3, 5, 10} experiment sweep.
    pub fn k_class(num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        Self {
            name: format!("synth-k{num_classes}"),
            instances: 240 * num_classes,
            features: 16,
            num_classes,
            informative_features: 10,
            noise_std: 0.06,
            label_noise: 0.01,
        }
    }

    /// Returns a copy with the instance count scaled by `factor`
    /// (never below 30 instances per class).
    pub fn scaled(&self, factor: f64) -> MultiClassSpec {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut spec = self.clone();
        spec.instances = ((self.instances as f64 * factor).round() as usize).max(30 * self.num_classes);
        spec
    }

    /// Generates the dataset. All randomness comes from `rng`, so a fixed
    /// seed reproduces the same dataset bit-for-bit.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        assert!(self.num_classes >= 2, "need at least two classes");
        assert!(self.features >= 1, "need at least one feature");
        let informative = self.informative_features.min(self.features).max(1);
        // Two clusters per class keeps the decision surface non-linear
        // without making k=10 unlearnable at laptop-sized instance counts.
        let centers: Vec<Vec<Vec<f64>>> = (0..self.num_classes)
            .map(|_| sample_cluster_centers(2, informative, rng))
            .collect();
        let base = self.instances / self.num_classes;
        let remainder = self.instances % self.num_classes;
        let noise = Normal::new(0.0, self.noise_std).expect("valid std");
        let mut values = Vec::with_capacity(self.instances * self.features);
        let mut labels = Vec::with_capacity(self.instances);
        for (class, clusters) in centers.iter().enumerate() {
            let count = base + usize::from(class < remainder);
            let label = Label::from_index(class).expect("class fits a label");
            for _ in 0..count {
                let center = &clusters[rng.gen_range(0..clusters.len())];
                push_clustered_row(&mut values, center, self.features, &noise, rng);
                labels.push(label);
            }
        }

        shuffle_rows(&mut values, &mut labels, self.features, rng);
        for label in labels.iter_mut() {
            if rng.gen_bool(self.label_noise.clamp(0.0, 1.0)) {
                *label = label.rotated(self.num_classes);
            }
        }

        let features = DenseMatrix::from_vec(labels.len(), self.features, values)
            .expect("generated rows are rectangular");
        Dataset::with_classes(self.name.clone(), features, labels, self.num_classes)
            .expect("labels align with rows")
    }
}

/// Draws a stroke prototype: a few random walks over a `side x side` grid,
/// marking roughly `target_active` pixels with high intensity and leaving a
/// dim halo around them.
fn stroke_prototype<R: Rng + ?Sized>(
    side: usize,
    features: usize,
    target_active: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut image = vec![0.0f64; features];
    let mut active = 0usize;
    let strokes = 3 + rng.gen_range(0..3);
    for _ in 0..strokes {
        let mut row = rng.gen_range(side / 4..(3 * side / 4).max(side / 4 + 1));
        let mut col = rng.gen_range(side / 4..(3 * side / 4).max(side / 4 + 1));
        let steps = (target_active / strokes).max(4);
        for _ in 0..steps {
            let index = row * side + col;
            if index < features && image[index] < 0.5 {
                image[index] = rng.gen_range(0.75..1.0);
                active += 1;
                // Dim halo on the 4-neighbourhood.
                for (dr, dc) in [(0i64, 1i64), (0, -1), (1, 0), (-1, 0)] {
                    let nr = row as i64 + dr;
                    let nc = col as i64 + dc;
                    if nr >= 0 && nc >= 0 && (nr as usize) < side && (nc as usize) < side {
                        let neighbour = nr as usize * side + nc as usize;
                        if neighbour < features && image[neighbour] == 0.0 {
                            image[neighbour] = rng.gen_range(0.2..0.4);
                        }
                    }
                }
            }
            // Random walk step, staying on the grid.
            match rng.gen_range(0..4) {
                0 if row + 1 < side => row += 1,
                1 if row > 0 => row -= 1,
                2 if col + 1 < side => col += 1,
                _ if col > 0 => col -= 1,
                _ => {}
            }
            if active >= target_active {
                break;
            }
        }
        if active >= target_active {
            break;
        }
    }
    image
}

/// Samples `count` cluster centers inside `[0.15, 0.85]^dims`.
fn sample_cluster_centers<R: Rng + ?Sized>(count: usize, dims: usize, rng: &mut R) -> Vec<Vec<f64>> {
    (0..count)
        .map(|_| (0..dims).map(|_| rng.gen_range(0.15..0.85)).collect())
        .collect()
}

/// Appends one clustered row: informative features are `center` plus
/// Gaussian noise clamped into `[0, 1]`, the rest uniform noise.
fn push_clustered_row<R: Rng + ?Sized>(
    values: &mut Vec<f64>,
    center: &[f64],
    features: usize,
    noise: &Normal,
    rng: &mut R,
) {
    // An index loop (not an iterator chain) keeps the RNG call order
    // explicit, which generated datasets depend on.
    for feature in 0..features {
        let value = match center.get(feature) {
            Some(&mean) => (mean + noise.sample(rng)).clamp(0.0, 1.0),
            None => rng.gen_range(0.0..1.0),
        };
        values.push(value);
    }
}

/// Shuffles the rows of a row-major `values` buffer of `cols` columns,
/// together with their `labels`, in place. The shuffle draws exactly what
/// `SliceRandom::shuffle` of the row order draws; row `j` then becomes
/// the old row `order[j]`, moved one permutation cycle at a time through
/// a single row of scratch.
fn shuffle_rows<R: Rng + ?Sized>(values: &mut [f64], labels: &mut [Label], cols: usize, rng: &mut R) {
    let mut order: Vec<usize> = (0..labels.len()).collect();
    order.shuffle(rng);
    let mut scratch = vec![0.0; cols];
    for start in 0..order.len() {
        if order[start] == start {
            continue; // a fixed point, or a cycle already moved
        }
        scratch.copy_from_slice(&values[start * cols..(start + 1) * cols]);
        let label = labels[start];
        let mut hole = start;
        loop {
            let source = order[hole];
            order[hole] = hole;
            if source == start {
                values[hole * cols..(hole + 1) * cols].copy_from_slice(&scratch);
                labels[hole] = label;
                break;
            }
            values.copy_within(source * cols..(source + 1) * cols, hole * cols);
            labels[hole] = labels[source];
            hole = source;
        }
    }
}

/// Min-max normalizes a row-major buffer column-wise into `[0, 1]`, in
/// place.
fn min_max_normalize_columns(values: &mut [f64], cols: usize) {
    for col in 0..cols {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for row in values.chunks_exact(cols) {
            min = min.min(row[col]);
            max = max.max(row[col]);
        }
        let span = max - min;
        for row in values.chunks_exact_mut(cols) {
            row[col] = if span > 0.0 { (row[col] - min) / span } else { 0.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn check_shape(spec: &SyntheticSpec, dataset: &Dataset) {
        assert_eq!(dataset.len(), spec.instances);
        assert_eq!(dataset.num_features(), spec.features);
        let (pos, _) = dataset.class_distribution();
        assert!(
            (pos - spec.positive_fraction).abs() < 0.05,
            "class balance drifted: wanted {}, got {pos}",
            spec.positive_fraction
        );
        for (row, _) in dataset.iter() {
            for &v in row {
                assert!((0.0..=1.0).contains(&v), "feature value {v} outside [0,1]");
            }
        }
    }

    #[test]
    fn mnist_like_has_paper_shape_when_scaled() {
        let spec = SyntheticSpec::mnist2_6_like().scaled(0.02);
        let mut rng = SmallRng::seed_from_u64(42);
        let dataset = spec.generate(&mut rng);
        check_shape(&spec, &dataset);
        assert_eq!(dataset.num_features(), 784);
    }

    #[test]
    fn breast_cancer_like_has_paper_shape() {
        let spec = SyntheticSpec::breast_cancer_like();
        let mut rng = SmallRng::seed_from_u64(42);
        let dataset = spec.generate(&mut rng);
        check_shape(&spec, &dataset);
        assert_eq!(dataset.len(), 569);
        assert_eq!(dataset.num_features(), 30);
    }

    #[test]
    fn ijcnn_like_is_imbalanced() {
        let spec = SyntheticSpec::ijcnn1_like().scaled(0.1);
        let mut rng = SmallRng::seed_from_u64(42);
        let dataset = spec.generate(&mut rng);
        check_shape(&spec, &dataset);
        let (pos, neg) = dataset.class_distribution();
        assert!(pos < 0.2 && neg > 0.8);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec::breast_cancer_like().scaled(0.3);
        let a = spec.generate(&mut SmallRng::seed_from_u64(7));
        let b = spec.generate(&mut SmallRng::seed_from_u64(7));
        let c = spec.generate(&mut SmallRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn scaled_never_drops_below_minimum() {
        let spec = SyntheticSpec::breast_cancer_like().scaled(0.0001);
        assert_eq!(spec.instances, 60);
    }

    #[test]
    fn k_class_generator_produces_balanced_learnable_classes() {
        for k in [2usize, 3, 5, 10] {
            let spec = MultiClassSpec::k_class(k);
            let mut rng = SmallRng::seed_from_u64(17);
            let dataset = spec.generate(&mut rng);
            assert_eq!(dataset.num_classes(), k);
            assert_eq!(dataset.len(), spec.instances);
            // Balanced within rounding plus the 1% rotation noise.
            let expected = spec.instances as f64 / k as f64;
            for class in 0..k {
                let count = dataset.labels().iter().filter(|l| l.index() == class).count() as f64;
                assert!(
                    (count - expected).abs() < expected * 0.25 + 2.0,
                    "class {class} count {count} far from {expected}"
                );
            }
            for (row, _) in dataset.iter() {
                for &v in row {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        }
    }

    #[test]
    fn k_class_generation_is_deterministic_per_seed() {
        let spec = MultiClassSpec::k_class(5);
        let a = spec.generate(&mut SmallRng::seed_from_u64(7));
        let b = spec.generate(&mut SmallRng::seed_from_u64(7));
        let c = spec.generate(&mut SmallRng::seed_from_u64(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn classes_are_linearly_separable_enough_for_a_stump_vote() {
        // A crude learnability check that does not depend on the tree crate:
        // using per-feature class means on a train half, a nearest-mean
        // classifier on the other half should beat 85% accuracy for the
        // tabular stand-in.
        let spec = SyntheticSpec::breast_cancer_like();
        let mut rng = SmallRng::seed_from_u64(5);
        let dataset = spec.generate(&mut rng);
        let (train, test) = dataset.split_stratified(0.7, &mut rng);
        let d = train.num_features();
        let mut mean_pos = vec![0.0; d];
        let mut mean_neg = vec![0.0; d];
        let mut count_pos = 0.0f64;
        let mut count_neg = 0.0f64;
        for (row, label) in train.iter() {
            if label == Label::Positive {
                count_pos += 1.0;
                for (m, &v) in mean_pos.iter_mut().zip(row) {
                    *m += v;
                }
            } else {
                count_neg += 1.0;
                for (m, &v) in mean_neg.iter_mut().zip(row) {
                    *m += v;
                }
            }
        }
        for m in mean_pos.iter_mut() {
            *m /= count_pos.max(1.0);
        }
        for m in mean_neg.iter_mut() {
            *m /= count_neg.max(1.0);
        }
        let mut correct = 0usize;
        for (row, label) in test.iter() {
            let dist =
                |means: &[f64]| -> f64 { means.iter().zip(row).map(|(m, v)| (m - v) * (m - v)).sum() };
            let predicted = if dist(&mean_pos) < dist(&mean_neg) {
                Label::Positive
            } else {
                Label::Negative
            };
            if predicted == label {
                correct += 1;
            }
        }
        let accuracy = correct as f64 / test.len() as f64;
        assert!(accuracy > 0.85, "nearest-mean accuracy too low: {accuracy}");
    }
}
