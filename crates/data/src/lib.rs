//! # wdte-data
//!
//! Dataset substrate for the *Watermarking Decision Tree Ensembles*
//! reproduction: dense feature matrices, k-class labels (the paper's
//! binary `{-1, +1}` setting is the k=2 special case), synthetic dataset
//! generators standing in for the paper's MNIST2-6 / breast-cancer / ijcnn1
//! datasets plus a k-class workload generator, stratified splits, k-fold
//! cross validation and evaluation metrics.
//!
//! This crate is dependency-light and knows nothing about trees or
//! watermarking; the learning substrate (`wdte-trees`) and the watermarking
//! scheme (`wdte-core`) are layered on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod dataset;
pub mod error;
pub mod folds;
pub mod label;
pub mod matrix;
pub mod metrics;
pub mod presort;
pub mod synth;

pub use dataset::{Dataset, DatasetStats};
pub use error::{DataError, DataResult};
pub use folds::{stratified_k_folds, Fold};
pub use label::{gini_of, majority_of, total_of, ClassCounts, Label, LabelConvention};
pub use matrix::{l2_distance, linf_distance, DenseMatrix};
pub use metrics::{accuracy, mean_std, roc_auc, ConfusionMatrix};
pub use presort::Presort;
pub use synth::{MultiClassSpec, SyntheticSpec, SyntheticStyle};

/// Commonly used types, re-exported for `use wdte_data::prelude::*`.
pub mod prelude {
    pub use crate::csv::{load_csv, load_csv_with, parse_csv, parse_csv_with, save_csv, LabelColumn};
    pub use crate::dataset::{Dataset, DatasetStats};
    pub use crate::error::{DataError, DataResult};
    pub use crate::folds::{stratified_k_folds, Fold};
    pub use crate::label::{ClassCounts, Label, LabelConvention};
    pub use crate::matrix::{l2_distance, linf_distance, DenseMatrix};
    pub use crate::metrics::{accuracy, mean_std, roc_auc, ConfusionMatrix};
    pub use crate::presort::Presort;
    pub use crate::synth::{MultiClassSpec, SyntheticSpec, SyntheticStyle};
}
