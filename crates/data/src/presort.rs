//! The presorted feature view shared across tree training.
//!
//! CART split search needs, for every node and candidate feature, the
//! node's samples ordered by feature value. Sorting per node costs
//! `O(k · s log s)` per node with cache-hostile gathers from the row-major
//! matrix. Because the sort order of a feature column is independent of
//! sample *weights*, it can instead be computed **once per dataset** and
//! reused by every tree, every forest, and — crucially — every retraining
//! round of the watermark embedding loop (Algorithm 1 retrains the same
//! dataset dozens of times with only the weights changing).
//!
//! [`Presort`] holds, per feature, the row indices sorted by value and
//! the values in that order. It is cached at the [`crate::Dataset`] level
//! (see `Dataset::presort`).

use crate::matrix::DenseMatrix;

/// Per-feature sorted order of a feature matrix, built once per dataset.
#[derive(Debug, Clone)]
pub struct Presort {
    rows: usize,
    cols: usize,
    /// `cols × rows` row indices; the slice for feature `f` lists all rows
    /// sorted ascending by `x[f]` (ties broken by row index, `NaN` last
    /// per [`f64::total_cmp`]).
    sorted_rows: Vec<u32>,
    /// `cols × rows` feature values parallel to `sorted_rows`.
    sorted_values: Vec<f64>,
}

impl Presort {
    /// Builds the presorted view of a matrix. `O(d · n log n)`, paid once
    /// per dataset.
    ///
    /// # Panics
    /// Panics if the matrix has more than `u32::MAX` rows.
    pub fn build(matrix: &DenseMatrix) -> Presort {
        let rows = matrix.rows();
        let cols = matrix.cols();
        assert!(
            rows <= u32::MAX as usize,
            "presort supports at most 2^32 - 1 rows"
        );
        let mut sorted_rows = Vec::with_capacity(rows * cols);
        let mut sorted_values = Vec::with_capacity(rows * cols);
        let mut order: Vec<u32> = Vec::with_capacity(rows);
        // One feature's values in row order, gathered once per feature so
        // the sort compares sequential reads.
        let mut column: Vec<f64> = Vec::with_capacity(rows);
        for feature in 0..cols {
            column.clear();
            column.extend(matrix.iter_rows().map(|row| row[feature]));
            order.clear();
            order.extend(0..rows as u32);
            // total_cmp gives a total order (NaN sorts last among positive
            // NaNs); the row-index tie-break makes the order fully
            // deterministic, which keeps tree training reproducible.
            order.sort_unstable_by(|&a, &b| {
                column[a as usize].total_cmp(&column[b as usize]).then(a.cmp(&b))
            });
            sorted_rows.extend_from_slice(&order);
            sorted_values.extend(order.iter().map(|&r| column[r as usize]));
        }
        Presort {
            rows,
            cols,
            sorted_rows,
            sorted_values,
        }
    }

    /// Number of rows (instances).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row indices sorted ascending by feature value.
    ///
    /// # Panics
    /// Panics if `feature >= cols()`.
    #[inline]
    pub fn sorted_rows(&self, feature: usize) -> &[u32] {
        assert!(feature < self.cols, "feature {feature} out of bounds");
        &self.sorted_rows[feature * self.rows..(feature + 1) * self.rows]
    }

    /// Feature values parallel to [`Presort::sorted_rows`].
    ///
    /// # Panics
    /// Panics if `feature >= cols()`.
    #[inline]
    pub fn sorted_values(&self, feature: usize) -> &[f64] {
        assert!(feature < self.cols, "feature {feature} out of bounds");
        &self.sorted_values[feature * self.rows..(feature + 1) * self.rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMatrix;

    fn matrix(rows: &[Vec<f64>]) -> DenseMatrix {
        DenseMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn presort_orders_every_feature() {
        let m = matrix(&[vec![3.0, 0.5], vec![1.0, 0.7], vec![2.0, 0.1]]);
        let presort = Presort::build(&m);
        assert_eq!(presort.sorted_rows(0), &[1, 2, 0]);
        assert_eq!(presort.sorted_values(0), &[1.0, 2.0, 3.0]);
        assert_eq!(presort.sorted_rows(1), &[2, 0, 1]);
        assert_eq!(presort.sorted_values(1), &[0.1, 0.5, 0.7]);
    }

    #[test]
    fn presort_breaks_ties_by_row_index() {
        let m = matrix(&[vec![1.0], vec![0.5], vec![1.0], vec![0.5]]);
        let presort = Presort::build(&m);
        assert_eq!(presort.sorted_rows(0), &[1, 3, 0, 2]);
    }

    #[test]
    fn presort_sorts_nan_last() {
        let m = matrix(&[vec![f64::NAN], vec![0.5], vec![f64::INFINITY]]);
        let presort = Presort::build(&m);
        assert_eq!(presort.sorted_rows(0), &[1, 2, 0]);
    }
}
