//! Flat row-major feature storage.
//!
//! The learning loop handles thousands of feature vectors per iteration
//! (candidate sets, reference sets, the training pool, the test set). Storing
//! them as `Vec<Vec<f64>>` costs one heap allocation per vector and scatters
//! the rows across the heap; the per-iteration clones of candidate subsets
//! then multiply that cost. [`FeatureMatrix`] stores all rows contiguously in
//! one flat row-major buffer, hands out `&[f64]` row views for free, and lets
//! candidate sets be described as index gathers into the pool instead of
//! fresh allocations.

use serde::{Deserialize, Serialize};

use crate::{Result, StatsError};

/// A contiguous row-major store of equally long feature vectors.
///
/// # Examples
///
/// ```
/// use alic_stats::features::FeatureMatrix;
/// let mut m = FeatureMatrix::new(2);
/// m.push_row(&[0.0, 1.0]);
/// m.push_row(&[2.0, 3.0]);
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.row(1), &[2.0, 3.0]);
/// let views: Vec<&[f64]> = m.gather([1usize, 0].iter().copied());
/// assert_eq!(views[0], &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMatrix {
    dim: usize,
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// Creates an empty matrix whose rows will have `dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        FeatureMatrix {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty matrix with capacity reserved for `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        FeatureMatrix {
            dim,
            data: Vec::with_capacity(dim * rows),
        }
    }

    /// Builds a matrix by copying a slice of row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `rows` is empty or the first
    /// row has no features, and [`StatsError::LengthMismatch`] when rows have
    /// inconsistent widths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let dim = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            if row.len() != dim {
                return Err(StatsError::LengthMismatch {
                    left: dim,
                    right: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(FeatureMatrix { dim, data })
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the matrix dimension.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.dim,
            "row has {} features, matrix stores {}",
            row.len(),
            self.dim
        );
        self.data.extend_from_slice(row);
    }

    /// Number of features per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `index` as a slice view.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn row(&self, index: usize) -> &[f64] {
        assert!(index < self.len(), "row index out of bounds");
        &self.data[index * self.dim..(index + 1) * self.dim]
    }

    /// Iterates over all rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// All rows as a vector of slice views (the form the batch scoring APIs
    /// consume).
    pub fn row_views(&self) -> Vec<&[f64]> {
        self.rows().collect()
    }

    /// Row views for the given indices, in order — a zero-copy "candidate
    /// set" over this pool.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather<I: IntoIterator<Item = usize>>(&self, indices: I) -> Vec<&[f64]> {
        indices.into_iter().map(|i| self.row(i)).collect()
    }

    /// The underlying flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Shortens the matrix to at most `rows` rows, keeping the allocation.
    /// Has no effect when the matrix already holds `rows` rows or fewer.
    pub fn truncate(&mut self, rows: usize) {
        self.data.truncate(rows * self.dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut m = FeatureMatrix::new(3);
        assert!(m.is_empty());
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row(&[4.0, 5.0, 6.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1)[2], 6.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = FeatureMatrix::from_rows(&rows).unwrap();
        assert_eq!(m.len(), 3);
        let collected: Vec<Vec<f64>> = m.rows().map(<[f64]>::to_vec).collect();
        assert_eq!(collected, rows);
    }

    #[test]
    fn from_rows_rejects_bad_shapes() {
        assert_eq!(
            FeatureMatrix::from_rows(&[]).unwrap_err(),
            StatsError::EmptyInput
        );
        assert_eq!(
            FeatureMatrix::from_rows(&[vec![]]).unwrap_err(),
            StatsError::EmptyInput
        );
        assert!(matches!(
            FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(StatsError::LengthMismatch { left: 1, right: 2 })
        ));
    }

    #[test]
    fn gather_returns_zero_copy_views() {
        let m = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let views = m.gather([2usize, 0].iter().copied());
        assert_eq!(views, vec![&[2.0][..], &[0.0][..]]);
        // The views alias the flat buffer, not copies of it.
        assert!(std::ptr::eq(views[1].as_ptr(), m.as_slice().as_ptr()));
    }

    #[test]
    fn row_views_match_rows_iterator() {
        let m = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row_views(), m.rows().collect::<Vec<_>>());
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut m = FeatureMatrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        m.truncate(0);
        assert!(m.is_empty());
        assert_eq!(m.dim(), 2);
        m.push_row(&[7.0, 8.0]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn truncate_drops_trailing_rows_only() {
        let mut m =
            FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        m.truncate(5);
        assert_eq!(m.len(), 3);
        m.truncate(1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row index out of bounds")]
    fn row_panics_out_of_bounds() {
        FeatureMatrix::new(1).row(0);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn push_row_rejects_wrong_width() {
        FeatureMatrix::new(2).push_row(&[1.0]);
    }
}
