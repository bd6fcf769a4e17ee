//! Versioned on-disk persistence for every artefact an ownership dispute
//! needs: models ([`RandomForest`](wdte_trees::RandomForest)),
//! [`Signature`](crate::Signature)s, trigger sets and full
//! [`OwnershipClaim`](crate::OwnershipClaim)s. A
//! [`CompiledForest`](wdte_trees::CompiledForest) is never persisted; it
//! is compiled from a loaded model.
//!
//! The paper's deployment story is train-once / verify-many: the owner
//! releases a serialized model, and later a judge resolves a dispute from
//! files alone, without the training process in memory. This module gives
//! every serde-capable type two interchangeable encodings behind one
//! version-checked container:
//!
//! * **JSON** (`Format::Json`) — a human-auditable envelope
//!   `{"magic": "WDTE", "version": 2, "payload": ...}`. Finite `f64`s use
//!   Rust's shortest round-tripping decimal form, infinities are written as
//!   `±1e999`, and `NaN` as `null`, so predictions survive the round-trip
//!   exactly.
//! * **Binary** (`Format::Binary`) — a compact little-endian encoding with
//!   the header `"WDTE"` + `'B'` + `u16` version, followed by a
//!   tag-length-value rendering of the serde data model. `f64`s are stored
//!   as their raw IEEE-754 bit pattern, preserving even `NaN` payloads.
//!   The codec, with its bounds checks, capped reservations and depth
//!   limit, is [`serde::binary`]; WDTP frames ([`crate::proto`]) carry the
//!   same encoding. Every type, models included, is written and read
//!   directly between its fields and the bytes, with no intermediate
//!   [`Value`] tree. JSON always goes through [`Value`].
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
use serde::{binary, Deserialize, Serialize, Value};
use std::path::Path;

/// Magic bytes opening every binary artefact (and the `"magic"` field of
/// the JSON envelope).
pub const MAGIC: &[u8; 4] = b"WDTE";

/// Container tag of the binary encoding, directly after the magic bytes.
pub const BINARY_TAG: u8 = b'B';

/// Format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u16 = 2;

/// On-disk encoding of an artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Format {
    /// Human-auditable JSON envelope.
    Json,
    /// Compact little-endian binary encoding.
    Binary,
}

/// Serializes `value` into a self-describing, version-headered byte
/// buffer in the chosen format.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T, format: Format) -> Vec<u8> {
    match format {
        Format::Json => {
            let envelope = Value::Map(vec![
                ("magic".to_string(), Value::Str("WDTE".to_string())),
                ("version".to_string(), Value::U64(u64::from(FORMAT_VERSION))),
                ("payload".to_string(), value.to_value()),
            ]);
            let text =
                serde_json::to_string_pretty(&envelope).expect("the value data model always serializes");
            text.into_bytes()
        }
        Format::Binary => {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.push(BINARY_TAG);
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            value.write_binary(&mut bytes);
            bytes
        }
    }
}

/// Deserializes an artefact from bytes, sniffing the container format from
/// the header. Fails with typed errors on unknown containers, version
/// mismatches, and corrupted or truncated payloads.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> WatermarkResult<T> {
    let decoded = match detect_format(bytes) {
        Some(Format::Binary) => binary::from_slice(binary_payload(bytes)?),
        Some(Format::Json) => T::from_value(&json_payload(bytes)?),
        None => {
            return Err(WatermarkError::UnrecognizedFormat {
                detail: "file starts with neither the WDTE magic nor a JSON envelope".to_string(),
            })
        }
    };
    decoded.map_err(|err| WatermarkError::CorruptedArtifact {
        detail: err.to_string(),
    })
}

/// Detects the container format of a byte buffer, if recognizable.
pub fn detect_format(bytes: &[u8]) -> Option<Format> {
    if bytes.starts_with(MAGIC) {
        Some(Format::Binary)
    } else if bytes.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{') {
        Some(Format::Json)
    } else {
        None
    }
}

/// Validates the binary header (magic, container tag, version) and
/// returns the payload bytes after it.
fn binary_payload(bytes: &[u8]) -> WatermarkResult<&[u8]> {
    let rest = &bytes[MAGIC.len()..];
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

/// Validates the JSON envelope (magic, version) and returns its payload.
fn json_payload(bytes: &[u8]) -> WatermarkResult<Value> {
    let text = std::str::from_utf8(bytes).map_err(|_| WatermarkError::UnrecognizedFormat {
        detail: "file is neither valid UTF-8 JSON nor WDTE binary".to_string(),
    })?;
    let envelope =
        serde_json::parse_value_str(text).map_err(|err| WatermarkError::CorruptedArtifact {
            detail: format!("invalid JSON: {err}"),
        })?;
    let entries = envelope.as_map().ok_or_else(|| WatermarkError::UnrecognizedFormat {
        detail: "JSON artefact must be an envelope object".to_string(),
    })?;
    let magic = entries
        .iter()
        .find(|(key, _)| key == "magic")
        .and_then(|(_, value)| value.as_str());
    if magic != Some("WDTE") {
        return Err(WatermarkError::UnrecognizedFormat {
            detail: "JSON envelope is missing the \"magic\": \"WDTE\" field".to_string(),
        });
    }
    let found = entries
        .iter()
        .find(|(key, _)| key == "version")
        .and_then(|(_, value)| value.as_u64())
        .ok_or_else(|| WatermarkError::CorruptedArtifact {
            detail: "JSON envelope is missing a numeric \"version\" field".to_string(),
        })?;
    let found = u16::try_from(found).map_err(|_| WatermarkError::UnsupportedFormatVersion {
        found: u16::MAX,
        supported: FORMAT_VERSION,
    })?;
    check_version(found)?;
    entries
        .iter()
        .find(|(key, _)| key == "payload")
        .map(|(_, value)| value.clone())
        .ok_or_else(|| WatermarkError::CorruptedArtifact {
            detail: "JSON envelope has no \"payload\" field".to_string(),
        })
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

/// Writes an artefact to `path` in the chosen format.
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

/// Reads an artefact from `path`, sniffing the format from the header.
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

    #[test]
    fn both_formats_round_trip_a_signature() {
        let signature = Signature::random(24, 0.5, &mut SmallRng::seed_from_u64(7));
        for format in [Format::Json, Format::Binary] {
            let bytes = to_bytes(&signature, format);
            assert_eq!(detect_format(&bytes), Some(format));
            let restored: Signature = from_bytes(&bytes).unwrap();
            assert_eq!(restored, signature, "format {format:?}");
        }
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
    fn json_preserves_finite_values_and_non_finite_classes() {
        let values = vec![0.25f64, -1.5e-200, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let bytes = to_bytes(&values, Format::Json);
        let restored: Vec<f64> = from_bytes(&bytes).unwrap();
        assert_eq!(restored[0].to_bits(), values[0].to_bits());
        assert_eq!(restored[1].to_bits(), values[1].to_bits());
        assert_eq!(restored[2], f64::INFINITY);
        assert_eq!(restored[3], f64::NEG_INFINITY);
        assert!(restored[4].is_nan());
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

        let json = String::from_utf8(to_bytes(&42u32, Format::Json)).unwrap();
        let bumped = json.replace(&format!("\"version\": {FORMAT_VERSION}"), "\"version\": 999");
        assert_ne!(json, bumped, "the envelope must contain the version field");
        match from_bytes::<u32>(bumped.as_bytes()).unwrap_err() {
            WatermarkError::UnsupportedFormatVersion { found, .. } => assert_eq!(found, 999),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn version_1_artifacts_are_refused() {
        // Rewind the header to the pre-k-class version: even a payload
        // whose shape did not change is refused, on both encodings.
        for old in [0u16, 1] {
            let mut binary = to_bytes(&vec![1u64, 2, 3], Format::Binary);
            binary[5..7].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                from_bytes::<Vec<u64>>(&binary).unwrap_err(),
                WatermarkError::UnsupportedFormatVersion { found, supported: FORMAT_VERSION }
                    if found == old
            ));

            let json = String::from_utf8(to_bytes(&7u32, Format::Json)).unwrap();
            let rewound = json.replace(
                &format!("\"version\": {FORMAT_VERSION}"),
                &format!("\"version\": {old}"),
            );
            assert_ne!(json, rewound);
            assert!(matches!(
                from_bytes::<u32>(rewound.as_bytes()).unwrap_err(),
                WatermarkError::UnsupportedFormatVersion { found, .. } if found == old
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

    #[test]
    fn deeply_nested_json_is_rejected_not_a_stack_overflow() {
        let mut hostile = String::from("{\"magic\": \"WDTE\", \"version\": 1, \"payload\": ");
        hostile.push_str(&"[".repeat(100_000));
        assert!(matches!(
            from_bytes::<Vec<u64>>(hostile.as_bytes()).unwrap_err(),
            WatermarkError::CorruptedArtifact { .. }
        ));
    }

    /// `Signature::from_bits` refuses an empty signature, so a decoded one
    /// must be refused too, in both formats, as a corrupted artefact.
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
        for format in [Format::Binary, Format::Json] {
            let bytes = to_bytes(&value, format);
            match from_bytes::<OwnershipClaim>(&bytes).unwrap_err() {
                WatermarkError::CorruptedArtifact { detail } => {
                    assert!(detail.contains("at least one bit"), "{format:?}: {detail}")
                }
                other => panic!("{format:?}: expected CorruptedArtifact, got {other:?}"),
            }
        }
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("wdte-persist-test-{}", std::process::id()));
        let signature = Signature::from_identity("persist-test@example", 16);
        for (name, format) in [("sig.json", Format::Json), ("sig.wdte", Format::Binary)] {
            let path = dir.join(name);
            save(&path, &signature, format).unwrap();
            let restored: Signature = load(&path).unwrap();
            assert_eq!(restored, signature);
        }
        assert!(matches!(
            load::<Signature>(dir.join("missing.wdte")).unwrap_err(),
            WatermarkError::Io { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
