//! Dense row-major feature matrix.
//!
//! The substrate stores instances as rows of `f64` features, matching the
//! paper's model of a `d`-dimensional real vector space normalized to
//! `[0, 1]`.

use crate::error::{DataError, DataResult};
use serde::{DeError, Deserialize, Serialize, Value};

/// Dense, row-major matrix of `f64` features.
///
/// # NaN handling
///
/// Constructors accept any `f64`, including `NaN` and infinities, so that
/// raw CSV loads never fail on malformed values. All training-time
/// comparisons order feature values with [`f64::total_cmp`], under which
/// `NaN` sorts *after* `+inf`; the split search additionally refuses to
/// place a threshold adjacent to a non-finite value, so instances with
/// `NaN` in the tested feature deterministically fall into the right
/// child (`x <= t` is `false` for `NaN`). Callers that want to reject
/// `NaN` outright can check [`DenseMatrix::has_non_finite`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    values: Vec<f64>,
}

/// The serialized fields of a [`DenseMatrix`], before the shape check.
mod unchecked {
    #[derive(serde::Deserialize)]
    pub(super) struct DenseMatrix {
        pub(super) rows: usize,
        pub(super) cols: usize,
        pub(super) values: Vec<f64>,
    }
}

/// Deserialization re-validates the shape invariant, so a corrupted
/// serialized matrix (bit-flipped dimensions, truncated value buffer) is
/// rejected instead of panicking on a later row access.
impl Deserialize for DenseMatrix {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Self::checked(unchecked::DenseMatrix::from_value(value)?)
    }

    fn read_binary(reader: &mut serde::binary::Reader<'_>, depth: usize) -> Result<Self, DeError> {
        Self::checked(unchecked::DenseMatrix::read_binary(reader, depth)?)
    }
}

impl DenseMatrix {
    fn checked(parts: unchecked::DenseMatrix) -> Result<Self, DeError> {
        let unchecked::DenseMatrix { rows, cols, values } = parts;
        if rows.checked_mul(cols).is_none_or(|expected| expected != values.len()) {
            return Err(DeError::new(format!(
                "invalid DenseMatrix: {rows}x{cols} dimensions but {} values",
                values.len()
            )));
        }
        Ok(DenseMatrix { rows, cols, values })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `values.len() != rows * cols`. `NaN` values are
    /// accepted; see the type-level documentation for how they behave
    /// during training.
    pub fn from_vec(rows: usize, cols: usize, values: Vec<f64>) -> DataResult<Self> {
        if values.len() != rows * cols {
            return Err(DataError::DimensionMismatch {
                expected: rows * cols,
                found: values.len(),
            });
        }
        Ok(Self { rows, cols, values })
    }

    /// Creates a matrix from a slice of rows; every row must have the same
    /// length.
    pub fn from_rows(rows: &[Vec<f64>]) -> DataResult<Self> {
        if rows.is_empty() {
            return Ok(Self {
                rows: 0,
                cols: 0,
                values: Vec::new(),
            });
        }
        let cols = rows[0].len();
        let mut values = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(DataError::DimensionMismatch {
                    expected: cols,
                    found: row.len(),
                });
            }
            values.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            values,
        })
    }

    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            values: vec![0.0; rows * cols],
        }
    }

    /// Number of rows (instances).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrow of a single row.
    ///
    /// # Panics
    /// Panics if `row >= rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds for {} rows", self.rows);
        &self.values[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of a single row.
    ///
    /// # Panics
    /// Panics if `row >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row {row} out of bounds for {} rows", self.rows);
        &mut self.values[row * self.cols..(row + 1) * self.cols]
    }

    /// Checked access to a single element.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.values[row * self.cols + col])
        } else {
            None
        }
    }

    /// Unchecked-by-contract access to a single element.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.values[row * self.cols + col]
    }

    /// Sets a single element.
    ///
    /// # Panics
    /// Panics when the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols);
        self.values[row * self.cols + col] = value;
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.values.chunks_exact(self.cols.max(1)).take(self.rows)
    }

    /// Copies the selected rows (in the given order, duplicates allowed)
    /// into a new matrix.
    pub fn select_rows(&self, indices: &[usize]) -> DataResult<DenseMatrix> {
        let mut values = Vec::with_capacity(indices.len() * self.cols);
        for &index in indices {
            if index >= self.rows {
                return Err(DataError::IndexOutOfBounds {
                    index,
                    len: self.rows,
                });
            }
            values.extend_from_slice(self.row(index));
        }
        Ok(DenseMatrix {
            rows: indices.len(),
            cols: self.cols,
            values,
        })
    }

    /// Appends a row to the matrix. The first appended row fixes the number
    /// of columns of an empty matrix.
    pub fn push_row(&mut self, row: &[f64]) -> DataResult<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(DataError::DimensionMismatch {
                expected: self.cols,
                found: row.len(),
            });
        }
        self.values.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Per-column minimum and maximum over all rows. Returns `None` for an
    /// empty matrix.
    pub fn column_ranges(&self) -> Option<Vec<(f64, f64)>> {
        if self.rows == 0 {
            return None;
        }
        let mut ranges: Vec<(f64, f64)> = self.row(0).iter().map(|&v| (v, v)).collect();
        for row in self.iter_rows().skip(1) {
            for (range, &value) in ranges.iter_mut().zip(row) {
                if value < range.0 {
                    range.0 = value;
                }
                if value > range.1 {
                    range.1 = value;
                }
            }
        }
        Some(ranges)
    }

    /// Min-max normalizes every column into `[0, 1]`, in place, and returns
    /// the per-column `(min, max)` pairs used. Constant columns map to `0`.
    ///
    /// The paper normalizes all datasets into the `[0, 1]` interval before
    /// training and before running the forgery attack (the L∞ distortion
    /// bound `0 < ε < 1` is only meaningful on normalized data).
    pub fn normalize_min_max(&mut self) -> Vec<(f64, f64)> {
        let ranges = self.column_ranges().unwrap_or_default();
        for row_index in 0..self.rows {
            for (col, &(min, max)) in ranges.iter().enumerate() {
                let span = max - min;
                let value = self.value(row_index, col);
                let normalized = if span > 0.0 { (value - min) / span } else { 0.0 };
                self.set(row_index, col, normalized);
            }
        }
        ranges
    }

    /// Applies a previously computed min-max transformation (e.g. from the
    /// training split) to this matrix, clamping into `[0, 1]`.
    pub fn apply_min_max(&mut self, ranges: &[(f64, f64)]) -> DataResult<()> {
        if ranges.len() != self.cols {
            return Err(DataError::DimensionMismatch {
                expected: self.cols,
                found: ranges.len(),
            });
        }
        for row_index in 0..self.rows {
            for (col, &(min, max)) in ranges.iter().enumerate() {
                let span = max - min;
                let value = self.value(row_index, col);
                let normalized = if span > 0.0 {
                    ((value - min) / span).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                self.set(row_index, col, normalized);
            }
        }
        Ok(())
    }

    /// Flat access to the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// `true` if any stored value is `NaN` or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.values.iter().any(|v| !v.is_finite())
    }
}

/// L∞ (Chebyshev) distance between two feature vectors.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn linf_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "L-infinity distance requires equal dimensionality"
    );
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// Euclidean (L2) distance between two feature vectors.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "L2 distance requires equal dimensionality");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.value(1, 0), 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, DataError::DimensionMismatch { .. }));
    }

    #[test]
    fn row_access_and_mutation() {
        let mut m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m.row_mut(0)[2] = 9.0;
        assert_eq!(m.value(0, 2), 9.0);
        assert_eq!(m.get(5, 0), None);
        assert_eq!(m.get(0, 1), Some(2.0));
    }

    #[test]
    fn select_rows_copies_in_order_with_duplicates() {
        let m = sample();
        let selected = m.select_rows(&[1, 0, 1]).unwrap();
        assert_eq!(selected.rows(), 3);
        assert_eq!(selected.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(selected.row(2), &[4.0, 5.0, 6.0]);
        assert!(m.select_rows(&[7]).is_err());
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = DenseMatrix::zeros(0, 0);
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn normalization_maps_into_unit_interval() {
        let mut m =
            DenseMatrix::from_rows(&[vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]]).unwrap();
        let ranges = m.normalize_min_max();
        assert_eq!(ranges, vec![(0.0, 10.0), (10.0, 30.0)]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(2), &[1.0, 1.0]);
        assert!((m.value(1, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_column_normalizes_to_zero() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0], vec![3.0]]).unwrap();
        m.normalize_min_max();
        assert_eq!(m.row(0), &[0.0]);
    }

    #[test]
    fn apply_min_max_clamps_out_of_range_values() {
        let mut m = DenseMatrix::from_rows(&[vec![20.0], vec![-5.0]]).unwrap();
        m.apply_min_max(&[(0.0, 10.0)]).unwrap();
        assert_eq!(m.row(0), &[1.0]);
        assert_eq!(m.row(1), &[0.0]);
        assert!(m.apply_min_max(&[(0.0, 1.0), (0.0, 1.0)]).is_err());
    }

    #[test]
    fn distances() {
        assert_eq!(linf_distance(&[0.0, 1.0, 3.0], &[1.0, 1.0, 0.5]), 2.5);
        assert!((l2_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_detection() {
        let finite = DenseMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(!finite.has_non_finite());
        let with_nan = DenseMatrix::from_rows(&[vec![1.0, f64::NAN]]).unwrap();
        assert!(with_nan.has_non_finite());
        let with_inf = DenseMatrix::from_rows(&[vec![f64::INFINITY]]).unwrap();
        assert!(with_inf.has_non_finite());
    }

    #[test]
    fn empty_matrix_behaviour() {
        let m = DenseMatrix::zeros(0, 0);
        assert!(m.is_empty());
        assert!(m.column_ranges().is_none());
        assert_eq!(m.iter_rows().count(), 0);
    }
}
