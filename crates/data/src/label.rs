//! Class labels.
//!
//! The paper restricts the watermarking scheme to binary classification with
//! labels in `{-1, +1}`. This module generalizes that to k-class problems:
//! a [`Label`] is a validated class index (the dataset carries the
//! class-count `k`), and [`ClassCounts`] is a per-class weight table. The
//! binary case is class index `0` (the paper's `-1`) and class index `1`
//! (the paper's `+1`), and every k=2 code path is bit-identical to the
//! original two-variant implementation.

use crate::error::DataError;
use serde::{binary, DeError, Deserialize, Serialize, Value};

/// A class label, stored as a validated class index.
///
/// Index `0` is the paper's negative class (`-1`), index `1` the positive
/// class (`+1`); higher indices are the additional classes of a k-class
/// dataset. The associated constants [`Label::Negative`] and
/// [`Label::Positive`] keep the binary call sites readable (and usable in
/// `match` patterns via the derived `PartialEq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u16);

/// Numeric conventions under which a label can be parsed from a float.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelConvention {
    /// The paper's binary convention: `-1.0` is the negative class,
    /// `+1.0` the positive class. Nothing else — in particular `0.0` is
    /// rejected rather than silently conflated with `-1.0`.
    SignedBinary,
    /// Class-index convention: an integral value in `0..num_classes`.
    Indexed {
        /// Number of classes `k` of the dataset being parsed.
        num_classes: usize,
    },
}

impl std::fmt::Display for LabelConvention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelConvention::SignedBinary => write!(f, "{{-1, +1}}"),
            LabelConvention::Indexed { num_classes } => {
                write!(f, "{{0..{}}}", num_classes.saturating_sub(1))
            }
        }
    }
}

#[allow(non_upper_case_globals)]
impl Label {
    /// The negative class (index 0, the paper's `-1`).
    pub const Negative: Label = Label(0);

    /// The positive class (index 1, the paper's `+1`).
    pub const Positive: Label = Label(1);

    /// Largest supported class count (labels are stored as `u16` indices).
    pub const MAX_CLASSES: usize = u16::MAX as usize + 1;

    /// The two binary labels, in index order (negative first).
    pub const ALL: [Label; 2] = [Label::Negative, Label::Positive];

    /// Builds a label from a class index validated against a dataset-level
    /// class count.
    pub fn new(index: usize, num_classes: usize) -> Result<Label, DataError> {
        if index < num_classes && index < Self::MAX_CLASSES {
            Ok(Label(index as u16))
        } else {
            Err(DataError::InvalidClassIndex { index, num_classes })
        }
    }

    /// Returns the opposite *binary* label. Used when flipping binary
    /// trigger-set labels (`D'_trigger = {(x, -y)}` in Algorithm 1); the
    /// k-class generalization is [`Label::rotated`], which coincides with
    /// `flipped` for `k = 2`.
    ///
    /// Must only be called on binary labels (index 0 or 1).
    #[inline]
    pub fn flipped(self) -> Label {
        debug_assert!(self.0 < 2, "flipped() is binary-only; use rotated(k)");
        Label(self.0 ^ 1)
    }

    /// Deterministic class rotation `(index + 1) mod k` — Algorithm 1's
    /// label-flip generalized to k classes (for `k = 2` this *is* the
    /// flip). Rotation is a fixpoint-free permutation, so a rotated label
    /// always disagrees with the original, which is all the trigger-set
    /// construction needs.
    #[inline]
    pub fn rotated(self, num_classes: usize) -> Label {
        // In `usize`: the largest class count, `MAX_CLASSES`, does not fit
        // a `u16`, and neither does the last index plus one.
        Label(((usize::from(self.0) + 1) % num_classes.max(2)) as u16)
    }

    /// Signed integer encoding (`-1` / `+1` for the binary indices, the
    /// class index saturated into `i8` otherwise).
    #[inline]
    pub fn as_i8(self) -> i8 {
        match self.0 {
            0 => -1,
            1 => 1,
            i => i8::try_from(i).unwrap_or(i8::MAX),
        }
    }

    /// Index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Builds a label from a per-class array index without a dataset-level
    /// bound (any index up to [`Label::MAX_CLASSES`]); use [`Label::new`]
    /// when the class count is known.
    #[inline]
    pub fn from_index(index: usize) -> Option<Label> {
        u16::try_from(index).ok().map(Label)
    }

    /// Parses a numeric label under an explicit convention; out-of-set
    /// values are reported with the convention that was expected.
    pub fn parse_numeric(value: f64, convention: LabelConvention) -> Result<Label, DataError> {
        let reject = || DataError::LabelOutsideConvention {
            value,
            convention: convention.to_string(),
        };
        match convention {
            LabelConvention::SignedBinary => {
                if value == -1.0 {
                    Ok(Label::Negative)
                } else if value == 1.0 {
                    Ok(Label::Positive)
                } else {
                    Err(reject())
                }
            }
            LabelConvention::Indexed { num_classes } => {
                if value.fract() == 0.0 && value >= 0.0 && (value as usize) < num_classes {
                    Label::new(value as usize, num_classes).map_err(|_| reject())
                } else {
                    Err(reject())
                }
            }
        }
    }

    /// `true` for the positive class (index 1).
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 == 1
    }
}

/// Displays the paper's `-1` / `+1` for the binary indices and the class
/// index for anything above.
impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            0 => write!(f, "-1"),
            1 => write!(f, "+1"),
            i => write!(f, "{i}"),
        }
    }
}

impl std::ops::Not for Label {
    type Output = Label;

    fn not(self) -> Label {
        self.flipped()
    }
}

/// Labels serialize as their class index, the only form deserialization
/// accepts.
impl Serialize for Label {
    fn to_value(&self) -> Value {
        Value::U64(u64::from(self.0))
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        serde::binary::write_u64(out, u64::from(self.0));
    }
}

fn label_from_u64(index: u64) -> Result<Label, DeError> {
    u16::try_from(index)
        .map(Label)
        .map_err(|_| DeError::new(format!("class index {index} exceeds the label range")))
}

impl Deserialize for Label {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value.as_u64() {
            Some(index) => label_from_u64(index),
            None => Err(DeError::expected("class index", "Label")),
        }
    }

    #[inline(always)]
    fn read_binary(reader: &mut serde::binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        if reader.accept(depth, serde::binary::TAG_U64)? {
            label_from_u64(reader.take_u64()?)
        } else {
            Err(DeError::expected("class index", "Label"))
        }
    }
}

/// Class counts the first [`CLASS_COUNTS_INLINE`] classes are stored
/// without heap allocation; larger `k` spills to a `Vec`.
pub const CLASS_COUNTS_INLINE: usize = 4;

/// Weighted per-class counts; used for class-distribution reporting
/// (Table 1) and for majority decisions inside tree leaves.
///
/// A small-vec-style table: class counts up to [`CLASS_COUNTS_INLINE`]
/// classes live inline, larger class counts spill to the heap. The table
/// grows automatically when a label at or beyond the current class count
/// is added, and never shrinks below two classes.
#[derive(Debug, Clone)]
pub struct ClassCounts {
    inline: [f64; CLASS_COUNTS_INLINE],
    spill: Vec<f64>,
    classes: u32,
}

impl Default for ClassCounts {
    fn default() -> Self {
        Self::new()
    }
}

/// Equality compares the per-class weights (and the class count), not the
/// storage representation.
impl PartialEq for ClassCounts {
    fn eq(&self, other: &Self) -> bool {
        self.slice() == other.slice()
    }
}

impl ClassCounts {
    /// An empty binary counter (two classes, both zero).
    pub fn new() -> Self {
        Self::with_classes(2)
    }

    /// An empty counter over `num_classes` classes (at least two).
    pub fn with_classes(num_classes: usize) -> Self {
        let classes = num_classes.max(2);
        let spill = if classes > CLASS_COUNTS_INLINE {
            vec![0.0; classes]
        } else {
            Vec::new()
        };
        ClassCounts {
            inline: [0.0; CLASS_COUNTS_INLINE],
            spill,
            classes: classes as u32,
        }
    }

    /// A counter initialized from per-class weights (at least two classes;
    /// shorter slices are zero-padded to two).
    pub fn from_slice(counts: &[f64]) -> Self {
        let mut out = Self::with_classes(counts.len());
        out.slice_mut()[..counts.len()].copy_from_slice(counts);
        out
    }

    /// Number of classes tracked.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes as usize
    }

    /// Borrow of the per-class weights, in class-index order.
    #[inline]
    pub fn slice(&self) -> &[f64] {
        if self.classes as usize > CLASS_COUNTS_INLINE {
            &self.spill
        } else {
            &self.inline[..self.classes as usize]
        }
    }

    #[inline]
    fn slice_mut(&mut self) -> &mut [f64] {
        if self.classes as usize > CLASS_COUNTS_INLINE {
            &mut self.spill
        } else {
            &mut self.inline[..self.classes as usize]
        }
    }

    /// Grows the table to cover at least `num_classes` classes.
    pub fn grow_to(&mut self, num_classes: usize) {
        let target = num_classes.max(2);
        if target <= self.classes as usize {
            return;
        }
        if target > CLASS_COUNTS_INLINE {
            if self.spill.is_empty() {
                self.spill = vec![0.0; target];
                self.spill[..self.classes as usize]
                    .copy_from_slice(&self.inline[..self.classes as usize]);
            } else {
                self.spill.resize(target, 0.0);
            }
        }
        self.classes = target as u32;
    }

    /// Adds `weight` to the class of `label`, growing the table if the
    /// label's class is not yet tracked.
    #[inline]
    pub fn add(&mut self, label: Label, weight: f64) {
        let index = label.index();
        if index >= self.classes as usize {
            self.grow_to(index + 1);
        }
        self.slice_mut()[index] += weight;
    }

    /// Removes `weight` from the class of `label`.
    #[inline]
    pub fn remove(&mut self, label: Label, weight: f64) {
        let index = label.index();
        if index >= self.classes as usize {
            self.grow_to(index + 1);
        }
        self.slice_mut()[index] -= weight;
    }

    /// Total weight across all classes.
    #[inline]
    pub fn total(&self) -> f64 {
        total_of(self.slice())
    }

    /// Weighted count for a specific class (zero for untracked classes).
    #[inline]
    pub fn count(&self, label: Label) -> f64 {
        self.slice().get(label.index()).copied().unwrap_or(0.0)
    }

    /// Weighted count of the negative class (index 0).
    #[inline]
    pub fn negative(&self) -> f64 {
        self.slice()[0]
    }

    /// Weighted count of the positive class (index 1).
    #[inline]
    pub fn positive(&self) -> f64 {
        self.slice()[1]
    }

    /// The class with the largest weighted count. Ties go to the lowest
    /// class index (negative first), mirroring the deterministic tie-break
    /// used by the forest's plurality vote.
    #[inline]
    pub fn majority(&self) -> Label {
        Label(majority_of(self.slice()) as u16)
    }

    /// Fraction of positive-class weight, in `[0, 1]`. Returns `0.5` for
    /// an empty counter so that callers can treat it as maximally
    /// uncertain.
    #[inline]
    pub fn positive_fraction(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            0.5
        } else {
            self.positive() / total
        }
    }

    /// Gini impurity of the weighted class distribution.
    #[inline]
    pub fn gini(&self) -> f64 {
        gini_of(self.slice())
    }
}

/// Total weight of a per-class slice (left-to-right sum in class order —
/// for two classes exactly the original `negative + positive`).
#[inline]
pub fn total_of(counts: &[f64]) -> f64 {
    let mut total = 0.0;
    for &count in counts {
        total += count;
    }
    total
}

/// Index of the largest count; ties go to the lowest index.
#[inline]
pub fn majority_of(counts: &[f64]) -> usize {
    let mut best = 0usize;
    for (index, &count) in counts.iter().enumerate().skip(1) {
        if count > counts[best] {
            best = index;
        }
    }
    best
}

/// Gini impurity of a per-class weight slice.
///
/// The two-class case evaluates the exact expression of the original
/// binary implementation (`1 - p_pos² - p_neg²`, in that subtraction
/// order), so k=2 results are bit-identical to the pre-k-class code.
#[inline]
pub fn gini_of(counts: &[f64]) -> f64 {
    let total = total_of(counts);
    if total <= 0.0 {
        return 0.0;
    }
    if let [negative, positive] = *counts {
        let p_pos = positive / total;
        let p_neg = negative / total;
        return 1.0 - p_pos * p_pos - p_neg * p_neg;
    }
    let mut gini = 1.0;
    for &count in counts {
        let p = count / total;
        gini -= p * p;
    }
    gini
}

/// Class counts serialize as the per-class weight sequence, the only form
/// deserialization accepts.
impl Serialize for ClassCounts {
    fn to_value(&self) -> Value {
        Value::Seq(self.slice().iter().map(|count| count.to_value()).collect())
    }

    fn write_binary(&self, out: &mut Vec<u8>) {
        binary::write_seq(out, self.slice());
    }
}

impl Deserialize for ClassCounts {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = value.as_seq().ok_or_else(|| DeError::expected("sequence", "ClassCounts"))?;
        let mut counts = ClassCounts::checked(items.len())?;
        for (slot, item) in counts.slice_mut().iter_mut().zip(items) {
            *slot = f64::from_value(item)?;
        }
        Ok(counts)
    }

    fn read_binary(reader: &mut binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        if !reader.accept(depth, binary::TAG_SEQ)? {
            return Err(DeError::expected("sequence", "ClassCounts"));
        }
        let len = reader.take_len()?;
        let mut counts = ClassCounts::checked(len)?;
        for slot in &mut counts.slice_mut()[..len] {
            *slot = f64::read_binary(reader, depth + 1)?;
        }
        Ok(counts)
    }
}

impl ClassCounts {
    /// An all-zero counter for a decoded sequence of `len` weights, which
    /// the caller fills in. A sequence longer than [`Label::MAX_CLASSES`]
    /// is refused before anything is allocated for it.
    fn checked(len: usize) -> Result<Self, DeError> {
        if len > Label::MAX_CLASSES {
            return Err(DeError::new(format!(
                "ClassCounts tracks {len} classes but at most {} are supported",
                Label::MAX_CLASSES
            )));
        }
        Ok(ClassCounts::with_classes(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipping_is_an_involution() {
        for label in Label::ALL {
            assert_eq!(label.flipped().flipped(), label);
            assert_eq!(!(!label), label);
        }
    }

    #[test]
    fn rotation_generalizes_the_flip() {
        for label in Label::ALL {
            assert_eq!(label.rotated(2), label.flipped());
        }
        let k = 5;
        for index in 0..k {
            let label = Label::new(index, k).unwrap();
            let rotated = label.rotated(k);
            assert_ne!(rotated, label, "rotation must be fixpoint-free");
            assert_eq!(rotated.index(), (index + 1) % k);
        }
        let last = Label::new(Label::MAX_CLASSES - 1, Label::MAX_CLASSES).unwrap();
        assert_eq!(last.rotated(Label::MAX_CLASSES), Label::Negative);
    }

    #[test]
    fn numeric_round_trip() {
        for label in Label::ALL {
            let parsed = Label::parse_numeric(f64::from(label.as_i8()), LabelConvention::SignedBinary);
            assert_eq!(parsed.unwrap(), label);
        }
        assert_eq!(Label::Negative.as_i8(), -1);
        assert!(Label::parse_numeric(0.25, LabelConvention::SignedBinary).is_err());
    }

    #[test]
    fn signed_binary_convention_rejects_zero() {
        let err = Label::parse_numeric(0.0, LabelConvention::SignedBinary).unwrap_err();
        match err {
            DataError::LabelOutsideConvention { value, convention } => {
                assert_eq!(value, 0.0);
                assert!(convention.contains("-1"), "convention named: {convention}");
            }
            other => panic!("expected LabelOutsideConvention, got {other:?}"),
        }
    }

    #[test]
    fn indexed_convention_parses_class_indices() {
        let convention = LabelConvention::Indexed { num_classes: 5 };
        assert_eq!(Label::parse_numeric(0.0, convention).unwrap().index(), 0);
        assert_eq!(Label::parse_numeric(4.0, convention).unwrap().index(), 4);
        assert!(Label::parse_numeric(5.0, convention).is_err());
        assert!(Label::parse_numeric(-1.0, convention).is_err());
        assert!(Label::parse_numeric(1.5, convention).is_err());
        let err = Label::parse_numeric(7.0, convention).unwrap_err();
        assert!(err.to_string().contains("0..4"), "error names the range: {err}");
    }

    #[test]
    fn validated_construction_respects_the_class_count() {
        assert!(Label::new(2, 3).is_ok());
        assert!(Label::new(3, 3).is_err());
        assert_eq!(Label::new(0, 2).unwrap(), Label::Negative);
    }

    #[test]
    fn index_round_trip() {
        for label in Label::ALL {
            assert_eq!(Label::from_index(label.index()), Some(label));
        }
        assert_eq!(Label::from_index(2).map(|l| l.index()), Some(2));
        assert_eq!(Label::from_index(Label::MAX_CLASSES), None);
    }

    #[test]
    fn display_matches_paper_convention() {
        assert_eq!(Label::Positive.to_string(), "+1");
        assert_eq!(Label::Negative.to_string(), "-1");
        assert_eq!(Label::from_index(3).unwrap().to_string(), "3");
    }

    #[test]
    fn class_counts_majority_and_total() {
        let mut counts = ClassCounts::new();
        counts.add(Label::Positive, 2.0);
        counts.add(Label::Negative, 3.0);
        assert_eq!(counts.total(), 5.0);
        assert_eq!(counts.majority(), Label::Negative);
        counts.add(Label::Positive, 2.0);
        assert_eq!(counts.majority(), Label::Positive);
        counts.remove(Label::Positive, 4.0);
        assert_eq!(counts.majority(), Label::Negative);
    }

    #[test]
    fn majority_tie_breaks_negative() {
        let mut counts = ClassCounts::new();
        counts.add(Label::Positive, 1.0);
        counts.add(Label::Negative, 1.0);
        assert_eq!(counts.majority(), Label::Negative);
    }

    #[test]
    fn majority_tie_breaks_lowest_index_for_k_classes() {
        let mut counts = ClassCounts::with_classes(6);
        counts.add(Label::from_index(5).unwrap(), 2.0);
        counts.add(Label::from_index(3).unwrap(), 2.0);
        counts.add(Label::from_index(1).unwrap(), 1.0);
        assert_eq!(counts.majority().index(), 3);
    }

    #[test]
    fn counts_grow_when_new_classes_appear() {
        let mut counts = ClassCounts::new();
        assert_eq!(counts.num_classes(), 2);
        counts.add(Label::from_index(6).unwrap(), 1.5);
        assert_eq!(counts.num_classes(), 7);
        assert_eq!(counts.count(Label::from_index(6).unwrap()), 1.5);
        assert_eq!(counts.count(Label::from_index(4).unwrap()), 0.0);
        // The pre-growth inline values survive the spill.
        counts.add(Label::Negative, 2.0);
        assert_eq!(counts.negative(), 2.0);
    }

    #[test]
    fn gini_extremes() {
        let mut pure = ClassCounts::new();
        pure.add(Label::Positive, 10.0);
        assert!(pure.gini().abs() < 1e-12);

        let mut balanced = ClassCounts::new();
        balanced.add(Label::Positive, 5.0);
        balanced.add(Label::Negative, 5.0);
        assert!((balanced.gini() - 0.5).abs() < 1e-12);

        // Uniform over 4 classes: gini = 1 - 4·(1/4)² = 0.75.
        let uniform = ClassCounts::from_slice(&[1.0; 4]);
        assert!((uniform.gini() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn binary_gini_matches_the_general_expression() {
        // The k=2 fast path must agree with the general formula to within
        // float associativity; spot-check a few distributions.
        for (neg, pos) in [(3.0, 7.0), (1.0, 1.0), (0.0, 5.0), (2.5, 0.5)] {
            let binary = gini_of(&[neg, pos]);
            let total = neg + pos;
            let general: f64 = 1.0 - (pos / total).powi(2) - (neg / total).powi(2);
            assert!((binary - general).abs() < 1e-15);
        }
    }

    #[test]
    fn positive_fraction_of_empty_counter_is_half() {
        assert_eq!(ClassCounts::new().positive_fraction(), 0.5);
    }

    #[test]
    fn label_serializes_as_class_index_and_refuses_variant_names() {
        let bytes = binary::to_vec(&Label::Positive);
        assert_eq!(bytes, binary::to_vec(&1u64));
        assert_eq!(binary::from_slice::<Label>(&bytes).unwrap(), Label::Positive);
        let names = ["Negative", "Positive", "Sideways"].map(|name| Value::Str(name.into()));
        for shape in names.into_iter().chain([Value::I64(1)]) {
            let err = binary::from_slice::<Label>(&binary::to_vec(&shape)).unwrap_err();
            assert!(err.to_string().contains("class index"), "{shape:?}: {err}");
        }
    }

    #[test]
    fn class_counts_serialize_as_sequence_and_refuse_named_maps() {
        let counts = ClassCounts::from_slice(&[1.0, 2.0, 3.0]);
        let back: ClassCounts = binary::from_slice(&binary::to_vec(&counts)).unwrap();
        assert_eq!(back, counts);
        let named = Value::Map(vec![
            ("negative".into(), Value::F64(4.0)),
            ("positive".into(), Value::F64(5.0)),
        ]);
        for shape in [named, Value::Bool(true)] {
            let err = binary::from_slice::<ClassCounts>(&binary::to_vec(&shape)).unwrap_err();
            assert!(err.to_string().contains("sequence"), "{shape:?}: {err}");
        }
    }
}
