//! Versioned on-disk persistence for every artefact an ownership dispute
//! needs: models ([`RandomForest`](wdte_trees::RandomForest)),
//! [`Signature`](crate::Signature)s, trigger sets and full
//! [`OwnershipClaim`](crate::OwnershipClaim)s. A
//! [`CompiledForest`](wdte_trees::CompiledForest) is never persisted; it
//! is compiled from a loaded model.
//!
//! The paper's deployment story is train-once / verify-many: the owner
//! releases a serialized model, and later a judge resolves a dispute from
//! files alone, without the training process in memory. Every artefact
//! has one encoding: a compact little-endian container with the header
//! `"WDTE"` + `'B'` + `u16` version, followed by a tag-length-value
//! rendering of the serde data model. `f64`s are stored as their raw
//! IEEE-754 bit pattern, preserving even `NaN` payloads. The codec, with
//! its bounds checks, capped reservations and depth limit, is
//! [`serde::binary`]; WDTP frames ([`crate::proto`]) carry the same
//! encoding. Every type, models included, is written and read directly
//! between its fields and the bytes, with no intermediate `Value` tree.
//! A file that does not open with the `WDTE` magic is
//! [`WatermarkError::UnrecognizedFormat`].
//!
//! **Version policy:** the header version is bumped whenever the encoding
//! of existing data changes shape. Readers accept exactly
//! [`FORMAT_VERSION`] and fail with
//! [`WatermarkError::UnsupportedFormatVersion`] otherwise — a dispute must
//! never be decided on a silently misread artefact. Version 2 added the
//! k-class label model (model payloads carry a `num_classes` field);
//! version-1 artefacts are no longer read. Corrupted or truncated files
//! surface as [`WatermarkError::CorruptedArtifact`], never as a panic.

use crate::error::{WatermarkError, WatermarkResult};
use serde::{binary, Deserialize, Serialize};
use std::path::Path;

/// Magic bytes opening every artefact.
pub const MAGIC: &[u8; 4] = b"WDTE";

/// Container tag of the binary encoding, directly after the magic bytes.
pub const BINARY_TAG: u8 = b'B';

/// Format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u16 = 2;

/// On-disk encoding of an artefact. The binary container is the only
/// one; the parameter it fills in [`to_bytes`] and [`save`] is kept for
/// source compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Format {
    /// Compact little-endian binary encoding.
    Binary,
}

/// Serializes `value` into a version-headered byte buffer.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T, format: Format) -> Vec<u8> {
    let Format::Binary = format;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.push(BINARY_TAG);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    value.write_binary(&mut bytes);
    bytes
}

/// Deserializes an artefact from bytes. Fails with typed errors on
/// anything but the WDTE container, on version mismatches, and on
/// corrupted or truncated payloads.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> WatermarkResult<T> {
    binary::from_slice(binary_payload(bytes)?).map_err(|err| WatermarkError::CorruptedArtifact {
        detail: err.to_string(),
    })
}

/// Validates the binary header (magic, container tag, version) and
/// returns the payload bytes after it.
fn binary_payload(bytes: &[u8]) -> WatermarkResult<&[u8]> {
    let rest = bytes.strip_prefix(MAGIC).ok_or_else(|| WatermarkError::UnrecognizedFormat {
        detail: "file does not start with the WDTE magic".to_string(),
    })?;
    let (&tag, rest) = rest.split_first().ok_or_else(|| truncated("container tag"))?;
    if tag != BINARY_TAG {
        return Err(WatermarkError::UnrecognizedFormat {
            detail: format!("unknown container tag {:#04x} after WDTE magic", tag),
        });
    }
    if rest.len() < 2 {
        return Err(truncated("format version"));
    }
    check_version(u16::from_le_bytes([rest[0], rest[1]]))?;
    Ok(&rest[2..])
}

fn check_version(found: u16) -> WatermarkResult<()> {
    if found != FORMAT_VERSION {
        return Err(WatermarkError::UnsupportedFormatVersion {
            found,
            supported: FORMAT_VERSION,
        });
    }
    Ok(())
}

fn truncated(what: &str) -> WatermarkError {
    WatermarkError::CorruptedArtifact {
        detail: format!("truncated file: missing {what}"),
    }
}

/// Writes an artefact to `path`.
pub fn save<T: Serialize + ?Sized>(
    path: impl AsRef<Path>,
    value: &T,
    format: Format,
) -> WatermarkResult<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|err| io_error(path, &err))?;
        }
    }
    std::fs::write(path, to_bytes(value, format)).map_err(|err| io_error(path, &err))
}

/// Reads an artefact from `path`.
pub fn load<T: Deserialize>(path: impl AsRef<Path>) -> WatermarkResult<T> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|err| io_error(path, &err))?;
    from_bytes(&bytes)
}

fn io_error(path: &Path, err: &std::io::Error) -> WatermarkError {
    WatermarkError::Io {
        path: path.display().to_string(),
        message: err.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::Signature;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use serde::binary::{MAX_DEPTH, TAG_NULL, TAG_SEQ};
    use serde::Value;

    #[test]
    fn binary_round_trips_a_signature() {
        let signature = Signature::random(24, 0.5, &mut SmallRng::seed_from_u64(7));
        let restored: Signature = from_bytes(&to_bytes(&signature, Format::Binary)).unwrap();
        assert_eq!(restored, signature);
    }

    #[test]
    fn binary_preserves_f64_bit_patterns() {
        let specials = vec![
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            1.0 / 3.0,
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
        ];
        let bytes = to_bytes(&specials, Format::Binary);
        let restored: Vec<f64> = from_bytes(&bytes).unwrap();
        let original_bits: Vec<u64> = specials.iter().map(|v| v.to_bits()).collect();
        let restored_bits: Vec<u64> = restored.iter().map(|v| v.to_bits()).collect();
        assert_eq!(restored_bits, original_bits);
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let mut binary = to_bytes(&42u32, Format::Binary);
        binary[5] = 0xFF; // bump the little-endian version field
        binary[6] = 0x00;
        match from_bytes::<u32>(&binary).unwrap_err() {
            WatermarkError::UnsupportedFormatVersion { found, supported } => {
                assert_eq!(found, 0x00FF);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn version_1_artifacts_are_refused() {
        // Rewind the header to the pre-k-class version: even a payload
        // whose shape did not change is refused.
        for old in [0u16, 1] {
            let mut binary = to_bytes(&vec![1u64, 2, 3], Format::Binary);
            binary[5..7].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                from_bytes::<Vec<u64>>(&binary).unwrap_err(),
                WatermarkError::UnsupportedFormatVersion { found, supported: FORMAT_VERSION }
                    if found == old
            ));
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed_errors() {
        let bytes = to_bytes(&vec![1.0f64, 2.0, 3.0], Format::Binary);
        for cut in [0, 3, 6, bytes.len() / 2, bytes.len() - 1] {
            let err = from_bytes::<Vec<f64>>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WatermarkError::CorruptedArtifact { .. } | WatermarkError::UnrecognizedFormat { .. }
                ),
                "cut {cut} produced {err:?}"
            );
        }
        // Unknown value tag inside an intact header.
        let mut garbled = bytes.clone();
        garbled[7] = 0x3F;
        assert!(matches!(
            from_bytes::<Vec<f64>>(&garbled).unwrap_err(),
            WatermarkError::CorruptedArtifact { .. }
        ));
        // Wrong magic entirely.
        assert!(matches!(
            from_bytes::<u32>(b"ELF\x7f....").unwrap_err(),
            WatermarkError::UnrecognizedFormat { .. }
        ));
    }

    #[test]
    fn absurd_length_fields_fail_instead_of_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(BINARY_TAG);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.push(TAG_SEQ);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes).unwrap_err(),
            WatermarkError::CorruptedArtifact { .. }
        ));
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(BINARY_TAG);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for _ in 0..(MAX_DEPTH + 8) {
            bytes.push(TAG_SEQ);
            bytes.extend_from_slice(&1u64.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes).unwrap_err(),
            WatermarkError::CorruptedArtifact { .. }
        ));
    }

    /// A JSON document is not parsed at all: hostile nesting is refused
    /// by its first byte.
    #[test]
    fn deeply_nested_json_is_rejected_not_a_stack_overflow() {
        let mut hostile = String::from("{\"magic\": \"WDTE\", \"version\": 2, \"payload\": ");
        hostile.push_str(&"[".repeat(100_000));
        assert!(matches!(
            from_bytes::<Vec<u64>>(hostile.as_bytes()).unwrap_err(),
            WatermarkError::UnrecognizedFormat { .. }
        ));
    }

    /// The JSON envelope earlier builds wrote and read is no longer an
    /// artefact, even with a current version and a well-formed payload.
    #[test]
    fn a_json_envelope_is_an_unrecognized_format() {
        let envelope =
            format!("{{\"magic\": \"WDTE\", \"version\": {FORMAT_VERSION}, \"payload\": 42}}");
        for text in [envelope.clone(), format!("  \n{envelope}")] {
            assert!(matches!(
                from_bytes::<u32>(text.as_bytes()).unwrap_err(),
                WatermarkError::UnrecognizedFormat { .. }
            ));
        }
    }

    /// `Signature::from_bits` refuses an empty signature, so a decoded one
    /// must be refused too, as a corrupted artefact.
    #[test]
    fn a_claim_with_an_empty_signature_is_a_corrupted_artifact() {
        use crate::verify::OwnershipClaim;
        let dataset = wdte_data::SyntheticSpec::breast_cancer_like()
            .scaled(0.1)
            .generate(&mut SmallRng::seed_from_u64(3));
        let claim = OwnershipClaim::new(Signature::from_bits(vec![true]), dataset.clone(), dataset);
        let mut value = claim.to_value();
        let Value::Map(fields) = &mut value else {
            unreachable!("a claim is a map")
        };
        fields[0] = (
            "signature".to_string(),
            Value::Map(vec![("bits".to_string(), Value::Seq(Vec::new()))]),
        );
        match from_bytes::<OwnershipClaim>(&to_bytes(&value, Format::Binary)).unwrap_err() {
            WatermarkError::CorruptedArtifact { detail } => {
                assert!(detail.contains("at least one bit"), "{detail}")
            }
            other => panic!("expected CorruptedArtifact, got {other:?}"),
        }
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("wdte-persist-test-{}", std::process::id()));
        let signature = Signature::from_identity("persist-test@example", 16);
        let path = dir.join("sig.wdte");
        save(&path, &signature, Format::Binary).unwrap();
        let restored: Signature = load(&path).unwrap();
        assert_eq!(restored, signature);
        assert!(matches!(
            load::<Signature>(dir.join("missing.wdte")).unwrap_err(),
            WatermarkError::Io { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
