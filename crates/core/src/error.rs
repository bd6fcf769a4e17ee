//! Error type of the watermarking scheme.

use std::fmt;

/// Errors produced during watermark creation or verification.
#[derive(Debug, Clone, PartialEq)]
pub enum WatermarkError {
    /// The signature length does not match the requested ensemble size.
    SignatureLengthMismatch {
        /// Number of bits in the signature.
        signature_bits: usize,
        /// Number of trees requested.
        num_trees: usize,
    },
    /// The training set is too small for the requested trigger-set size.
    TriggerTooLarge {
        /// Requested trigger-set size.
        requested: usize,
        /// Available training instances.
        available: usize,
    },
    /// The training set is empty or otherwise unusable.
    EmptyTrainingSet,
    /// The weighting loop of `TrainWithTrigger` could not force the required
    /// behaviour on the trigger set within the configured budget.
    TriggerForcingFailed {
        /// Which of the two sub-ensembles failed (`"T0"` or `"T1"`).
        ensemble: &'static str,
        /// Number of retraining rounds performed.
        rounds: usize,
        /// Fraction of (tree, trigger instance) pairs already compliant.
        compliance: f64,
    },
    /// A degenerate signature (all zeros or all ones) was rejected by a
    /// caller that requires both sub-ensembles to be non-empty.
    DegenerateSignature,
    /// Reading or writing a persisted artefact — or a protocol socket —
    /// failed at the I/O layer.
    Io {
        /// Path of the file (or `"socket"` / the peer address) involved.
        path: String,
        /// Operating-system error message.
        message: String,
    },
    /// The file does not look like a WDTE artefact (wrong magic bytes /
    /// unknown container format).
    UnrecognizedFormat {
        /// What was found instead.
        detail: String,
    },
    /// The artefact was written by a different (usually newer) format
    /// version than this build supports.
    UnsupportedFormatVersion {
        /// Version recorded in the file header.
        found: u16,
        /// Version this build reads and writes.
        supported: u16,
    },
    /// The artefact header is valid but the payload is truncated,
    /// malformed, or fails structural validation.
    CorruptedArtifact {
        /// What went wrong while decoding.
        detail: String,
    },
    /// A dispute referenced a model id that is not registered with the
    /// [`crate::DisputeService`].
    UnknownModel {
        /// The model id the claim was filed against.
        model_id: String,
    },
    /// A docket exceeded the service's configured
    /// [`max_docket`](crate::service::DisputeServiceBuilder::max_docket)
    /// cap and was refused whole, before resolving anything. The cap is
    /// the one docket-size limit and applies to every tenant, so an
    /// oversized docket is never a [`QuotaExceeded`](Self::QuotaExceeded).
    DocketTooLarge {
        /// Number of disputes in the refused docket.
        size: usize,
        /// The configured cap.
        max: usize,
    },
    /// A wire frame or a claim violated the dispute-resolution protocol:
    /// bad magic, truncated header or payload, trailing bytes, a payload
    /// that does not decode as the expected message, or a claim whose rows
    /// no verification batch against its model can hold (trigger and
    /// disguise rows of different widths, or fewer columns than the model
    /// reads).
    ProtocolViolation {
        /// What was wrong with the frame.
        detail: String,
    },
    /// A wire frame was sent by a peer speaking a different (usually
    /// newer) protocol version than this build supports.
    UnsupportedProtocolVersion {
        /// Version announced in the frame header.
        found: u16,
        /// Version this build speaks.
        supported: u16,
    },
    /// A wire frame announced a payload larger than the receiver's
    /// configured cap; refused before any allocation.
    FrameTooLarge {
        /// Announced payload size in bytes.
        size: u64,
        /// The receiver's cap in bytes.
        max: u64,
    },
    /// A remote judge reported a failure that has no structured mapping on
    /// this side (e.g. an internal server error rendered as text).
    Remote {
        /// The error message as reported by the peer.
        message: String,
    },
    /// A frame failed authentication: unknown tenant, bad or missing HMAC
    /// tag, or a replayed (non-monotonic) sequence number.
    AuthenticationFailed {
        /// What failed — kept deliberately coarse so the error cannot be
        /// used as a padding/length oracle against the tag.
        detail: String,
    },
    /// A request crossed a tenant boundary: the caller asked about a model
    /// (or another resource) owned by a different tenant namespace.
    Forbidden {
        /// What was refused.
        detail: String,
    },
    /// A per-tenant quota would be exceeded; refused before allocating,
    /// like the frame caps.
    QuotaExceeded {
        /// Which quota axis was hit (`"models"`, `"claim-bytes"`,
        /// `"in-flight"`).
        resource: String,
        /// Usage the request would have reached.
        used: u64,
        /// The configured per-tenant limit.
        limit: u64,
    },
}

impl fmt::Display for WatermarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatermarkError::SignatureLengthMismatch { signature_bits, num_trees } => write!(
                f,
                "signature has {signature_bits} bits but the ensemble has {num_trees} trees"
            ),
            WatermarkError::TriggerTooLarge { requested, available } => {
                write!(f, "trigger set of {requested} instances requested but only {available} available")
            }
            WatermarkError::EmptyTrainingSet => write!(f, "training set is empty"),
            WatermarkError::TriggerForcingFailed { ensemble, rounds, compliance } => write!(
                f,
                "could not force trigger behaviour on {ensemble} after {rounds} rounds (compliance {:.1}%)",
                compliance * 100.0
            ),
            WatermarkError::DegenerateSignature => {
                write!(f, "signature must contain at least one 0 bit and at least one 1 bit")
            }
            WatermarkError::Io { path, message } => {
                write!(f, "I/O error on `{path}`: {message}")
            }
            WatermarkError::UnrecognizedFormat { detail } => {
                write!(f, "not a WDTE artefact: {detail}")
            }
            WatermarkError::UnsupportedFormatVersion { found, supported } => write!(
                f,
                "artefact uses format version {found} but this build supports version {supported}"
            ),
            WatermarkError::CorruptedArtifact { detail } => {
                write!(f, "corrupted artefact: {detail}")
            }
            WatermarkError::UnknownModel { model_id } => {
                write!(f, "no model registered under id `{model_id}`")
            }
            WatermarkError::DocketTooLarge { size, max } => {
                write!(f, "docket of {size} disputes exceeds the service cap of {max}")
            }
            WatermarkError::ProtocolViolation { detail } => {
                write!(f, "protocol violation: {detail}")
            }
            WatermarkError::UnsupportedProtocolVersion { found, supported } => write!(
                f,
                "peer speaks protocol version {found} but this build supports version {supported}"
            ),
            WatermarkError::FrameTooLarge { size, max } => {
                write!(f, "frame payload of {size} bytes exceeds the {max}-byte cap")
            }
            WatermarkError::Remote { message } => {
                write!(f, "remote judge reported: {message}")
            }
            WatermarkError::AuthenticationFailed { detail } => {
                write!(f, "frame authentication failed: {detail}")
            }
            WatermarkError::Forbidden { detail } => {
                write!(f, "forbidden: {detail}")
            }
            WatermarkError::QuotaExceeded { resource, used, limit } => write!(
                f,
                "tenant quota exceeded on `{resource}`: {used} > limit {limit}"
            ),
        }
    }
}

impl std::error::Error for WatermarkError {}

/// Convenience result alias for the watermarking crate.
pub type WatermarkResult<T> = Result<T, WatermarkError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = WatermarkError::SignatureLengthMismatch {
            signature_bits: 8,
            num_trees: 16,
        };
        assert!(err.to_string().contains('8') && err.to_string().contains("16"));
        let err = WatermarkError::TriggerForcingFailed {
            ensemble: "T1",
            rounds: 30,
            compliance: 0.875,
        };
        assert!(err.to_string().contains("T1") && err.to_string().contains("87.5"));
    }

    #[test]
    fn errors_compare() {
        assert_eq!(WatermarkError::EmptyTrainingSet, WatermarkError::EmptyTrainingSet);
        assert_ne!(
            WatermarkError::EmptyTrainingSet,
            WatermarkError::DegenerateSignature
        );
    }
}
