//! Owner signatures: the multi-bit payload embedded into the ensemble.
//!
//! The signature `σ` is a bit string of length `m` (one bit per tree). The
//! `i`-th tree of the watermarked ensemble is forced to classify the
//! trigger set correctly when `σ_i = 0` and to misclassify it when
//! `σ_i = 1`.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use wdte_data::Label;

/// A multi-bit owner signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Signature {
    bits: Vec<bool>,
}

/// The serialized fields of a [`Signature`], before the non-empty check.
mod unchecked {
    #[derive(serde::Deserialize)]
    pub(super) struct Signature {
        pub(super) bits: Vec<bool>,
    }
}

/// Deserialization refuses an empty signature, which [`Signature::from_bits`]
/// would refuse too: a claim or artefact carrying `bits: []` is malformed
/// evidence, not a signature.
impl Deserialize for Signature {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Self::checked(unchecked::Signature::from_value(value)?)
    }

    fn read_binary(reader: &mut serde::binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        Self::checked(unchecked::Signature::read_binary(reader, depth)?)
    }
}

impl Signature {
    fn checked(parts: unchecked::Signature) -> Result<Self, DeError> {
        if parts.bits.is_empty() {
            return Err(DeError::new(
                "invalid Signature: a signature needs at least one bit",
            ));
        }
        Ok(Self { bits: parts.bits })
    }

    /// Builds a signature from explicit bits (`true` = 1).
    ///
    /// # Panics
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        assert!(!bits.is_empty(), "a signature needs at least one bit");
        Self { bits }
    }

    /// Parses a signature from a string of `0`/`1` characters.
    pub fn from_str_bits(text: &str) -> Option<Self> {
        let bits: Option<Vec<bool>> = text
            .chars()
            .map(|c| match c {
                '0' => Some(false),
                '1' => Some(true),
                _ => None,
            })
            .collect();
        let bits = bits?;
        if bits.is_empty() {
            None
        } else {
            Some(Self { bits })
        }
    }

    /// Generates a random signature of `length` bits with exactly
    /// `round(length * ones_fraction)` bits set to 1, placed uniformly at
    /// random. This mirrors the paper's evaluation setup ("50% of the bits
    /// set to 1", Figure 3b sweeps the percentage).
    pub fn random<R: Rng + ?Sized>(length: usize, ones_fraction: f64, rng: &mut R) -> Self {
        assert!(length >= 1, "a signature needs at least one bit");
        assert!(
            (0.0..=1.0).contains(&ones_fraction),
            "ones fraction must be in [0, 1]"
        );
        let ones = ((length as f64) * ones_fraction).round() as usize;
        let ones = ones.min(length);
        let mut bits = vec![false; length];
        let mut positions: Vec<usize> = (0..length).collect();
        positions.shuffle(rng);
        for &position in positions.iter().take(ones) {
            bits[position] = true;
        }
        Self { bits }
    }

    /// Derives a deterministic signature from an owner identity string: the
    /// identity is hashed into a seed which drives a keyed bit sequence.
    /// This is a convenience for multi-bit ownership payloads; the security
    /// analysis of the paper does not depend on how `σ` is produced.
    pub fn from_identity(identity: &str, length: usize) -> Self {
        assert!(length >= 1, "a signature needs at least one bit");
        // FNV-1a, then a splitmix-style expansion; no external deps needed.
        let mut state: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in identity.as_bytes() {
            state ^= u64::from(*byte);
            state = state.wrapping_mul(0x1000_0000_01b3);
        }
        let mut bits = Vec::with_capacity(length);
        for _ in 0..length {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            bits.push(z & 1 == 1);
        }
        Self { bits }
    }

    /// Number of bits (= number of trees `m`).
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` when the signature has no bits (never constructible).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Borrow of the raw bits.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Value of bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn bit(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Number of bits set to 1 (`m - m'` in Algorithm 1).
    pub fn ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Number of bits set to 0 (`m'` in Algorithm 1).
    pub fn zeros(&self) -> usize {
        self.len() - self.ones()
    }

    /// The prediction tree `i` must produce for a trigger instance whose
    /// true label is `label` in a `num_classes`-class label space: the
    /// correct label for 0-bits, the deterministically *rotated* label
    /// `(c + 1) mod k` for 1-bits. For `k = 2` the rotation is exactly the
    /// paper's label flip, so the binary protocol is unchanged.
    pub fn required_prediction(&self, i: usize, label: Label, num_classes: usize) -> Label {
        if self.bits[i] {
            label.rotated(num_classes)
        } else {
            label
        }
    }

    /// Hamming distance to another signature of the same length.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &Signature) -> usize {
        assert_eq!(self.len(), other.len(), "signatures must have equal length");
        self.bits.iter().zip(&other.bits).filter(|(a, b)| a != b).count()
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &bit in &self.bits {
            write!(f, "{}", if bit { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_signature_has_exact_ones_count() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &(length, fraction, expected) in &[
            (10usize, 0.5f64, 5usize),
            (90, 0.5, 45),
            (20, 0.1, 2),
            (7, 1.0, 7),
            (8, 0.0, 0),
        ] {
            let signature = Signature::random(length, fraction, &mut rng);
            assert_eq!(signature.len(), length);
            assert_eq!(signature.ones(), expected, "length {length} fraction {fraction}");
            assert_eq!(signature.zeros(), length - expected);
        }
    }

    #[test]
    fn positions_partition_the_indices() {
        let signature = Signature::from_str_bits("0110").unwrap();
        let ones: Vec<usize> = (0..signature.len()).filter(|&i| signature.bit(i)).collect();
        assert_eq!(ones, vec![1, 2]);
        assert_eq!(signature.ones(), 2);
        assert_eq!(signature.zeros(), 2);
    }

    #[test]
    fn required_prediction_follows_the_bit() {
        let signature = Signature::from_str_bits("01").unwrap();
        let class_2 = Label::from_index(2).unwrap();
        for (i, label, k, required) in [
            (0, Label::Positive, 2, Label::Positive),
            (1, Label::Positive, 2, Label::Negative),
            (1, Label::Negative, 2, Label::Positive),
            (0, class_2, 3, class_2),
            (1, class_2, 3, Label::Negative),
        ] {
            assert_eq!(signature.required_prediction(i, label, k), required);
        }
    }

    #[test]
    fn string_round_trip_and_display() {
        let signature = Signature::from_str_bits("10011").unwrap();
        assert_eq!(signature.to_string(), "10011");
        assert_eq!(Signature::from_str_bits("10x1"), None);
        assert_eq!(Signature::from_str_bits(""), None);
    }

    #[test]
    fn identity_derivation_is_deterministic_and_identity_sensitive() {
        let a = Signature::from_identity("alice@example.com", 64);
        let b = Signature::from_identity("alice@example.com", 64);
        let c = Signature::from_identity("bob@example.com", 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
        // The derived bits should not be degenerate.
        assert!(a.ones() > 8 && a.ones() < 56);
    }

    #[test]
    fn hamming_distance_counts_disagreements() {
        let a = Signature::from_str_bits("0101").unwrap();
        let b = Signature::from_str_bits("0011").unwrap();
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    fn random_generation_is_seed_deterministic() {
        let a = Signature::random(32, 0.5, &mut SmallRng::seed_from_u64(9));
        let b = Signature::random(32, 0.5, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
