//! # wdte-trees
//!
//! Learning substrate for the *Watermarking Decision Tree Ensembles*
//! reproduction: weighted CART decision trees, random forests *without*
//! bootstrap exposing per-tree predictions, and grid-search hyper-parameter
//! tuning with stratified cross validation.
//!
//! The watermarking scheme (`wdte-core`) drives this crate through sample
//! weights: Algorithm 1 repeatedly retrains forests while increasing the
//! weights of trigger-set instances until every tree exhibits the required
//! behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forest;
pub mod grid;
pub mod infer;
pub mod params;
pub mod split;
mod splitter;
pub mod tree;

pub use forest::{derive_seeds, rng_from_seed, RandomForest};
pub use grid::{GridPointResult, GridSearch, GridSearchResult, ParamGrid};
pub use infer::{BatchPredictions, CompiledForest, Kernel, ResolvedKernel};
pub use params::{FeatureSubset, ForestParams, TreeParams};
pub use split::{best_split, Split};
pub use tree::{DecisionTree, LeafRegion, Node, TreeStats};

/// Commonly used types, re-exported for `use wdte_trees::prelude::*`.
pub mod prelude {
    pub use crate::forest::RandomForest;
    pub use crate::grid::{GridSearch, GridSearchResult, ParamGrid};
    pub use crate::infer::{BatchPredictions, CompiledForest, Kernel, ResolvedKernel};
    pub use crate::params::{FeatureSubset, ForestParams, TreeParams};
    pub use crate::tree::{DecisionTree, LeafRegion, Node, TreeStats};
}
