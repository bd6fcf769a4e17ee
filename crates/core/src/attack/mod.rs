//! Attack simulations used by the paper's security evaluation:
//! watermark detection, watermark suppression and watermark forgery.

pub mod detection;
pub mod forgery;
pub mod suppression;

pub use detection::{
    detect_signature, evaluate_detection, structural_values, DetectionFeature, DetectionGuess,
    DetectionReport, DetectionStrategy,
};
pub use forgery::{
    forge_trigger_set, forge_trigger_set_compiled, mean_forged_size, run_forgery_attack, ForgedInstance,
    ForgeryAttackConfig, ForgeryAttackResult,
};
pub use suppression::{evaluate_suppression, suppression_score, SuppressionReport, SuppressionScore};
