//! # wdte-bench
//!
//! Shared fixtures for the Criterion benchmark suite: small, deterministic
//! datasets and pre-trained models reused across benchmarks so each bench
//! measures the operation of interest rather than setup cost. The
//! [`smoke`] module holds the fixture and served-versus-in-process checks
//! of the smoke binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod smoke;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdte_data::{Dataset, SyntheticSpec};

/// Deterministic RNG used by every benchmark fixture.
pub fn bench_rng() -> SmallRng {
    SmallRng::seed_from_u64(0xBE5C)
}

/// A small breast-cancer-like dataset (fast to train on).
pub fn small_tabular() -> Dataset {
    SyntheticSpec::breast_cancer_like().generate(&mut bench_rng())
}

/// A reduced image-like dataset exercising the high-dimensional code path.
pub fn small_image() -> Dataset {
    SyntheticSpec::mnist2_6_like().scaled(0.03).generate(&mut bench_rng())
}

/// A deployment-scale image-784 fixture: ~1.4k instances with enough label
/// noise that trees grow to realistic MNIST2-6 depths (≈16–24, hundreds of
/// leaves). The default `mnist2_6_like` spec is almost noise-free, so its
/// trees are depth-3 stumps — far from what a served model looks like.
pub fn serving_image() -> Dataset {
    let mut spec = SyntheticSpec::mnist2_6_like();
    spec.label_noise = 0.05;
    spec.scaled(0.1).generate(&mut bench_rng())
}
