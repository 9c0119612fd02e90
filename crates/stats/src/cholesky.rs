//! Cholesky decomposition and symmetric-positive-definite solves.
//!
//! The Gaussian-process surrogate needs `K⁻¹ y`, batched `L⁻¹ K*` solves
//! and — because the active-learning loop appends one observation per
//! iteration — an **incremental rank-1 extension** of an existing
//! factorization.
//!
//! # Layout and cost
//!
//! The factor is stored packed: row `i` of the lower triangle occupies the
//! contiguous slice `data[i(i+1)/2 .. i(i+1)/2 + i + 1]`. Every inner kernel
//! (factorization, forward/backward substitution, row append) is a dot
//! product over two contiguous slices, which keeps the hot loops in cache
//! and lets the compiler vectorize them. The batched solve
//! ([`forward_substitute_batch`](Cholesky::forward_substitute_batch)) blocks
//! over right-hand sides: each factor row is loaded once and applied to the
//! whole block, instead of re-walking the factor per right-hand side.
//!
//! # Incremental extension
//!
//! [`append_row`](Cholesky::append_row) extends an `n × n` factorization to
//! `(n+1) × (n+1)` in `O(n²)`: the new off-diagonal row is one forward
//! substitution and the new diagonal is a Schur complement. The bordered
//! (row-at-a-time) factorization used by
//! [`decompose_packed`](Cholesky::decompose_packed) computes each row with
//! **exactly the operations `append_row` performs**, so growing a factor
//! one row at a time yields bit-identical results to a cold factorization
//! of the final matrix — the property the incremental Gaussian process
//! relies on.

use crate::{Result, StatsError};

/// Dot product over two equally long slices, accumulated left to right.
///
/// All factorization and substitution kernels go through this one function
/// so their rounding behaviour is identical across the cold and incremental
/// code paths.
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        sum += x * y;
    }
    sum
}

#[inline]
fn row_offset(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`, stored packed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    n: usize,
    /// Packed row-major lower triangle (row `i` has `i + 1` entries).
    data: Vec<f64>,
}

impl Cholesky {
    /// Decomposes a matrix given as its packed lower triangle (row `i` holds
    /// entries `(i, 0..=i)`), factorizing in place without a dense copy.
    ///
    /// The Gaussian process keeps its kernel-row cache in this form.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `data.len()` is not
    /// `n(n+1)/2` and [`StatsError::NotPositiveDefinite`] when a
    /// non-positive pivot is encountered.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), alic_stats::StatsError> {
    /// use alic_stats::cholesky::Cholesky;
    /// // A = [[4, 2], [2, 3]], given as its lower triangle [4; 2, 3].
    /// let chol = Cholesky::decompose_packed(2, vec![4.0, 2.0, 3.0])?;
    /// let x = chol.solve(&[2.0, 3.0])?;
    /// // Verify A x = b.
    /// let b = [4.0 * x[0] + 2.0 * x[1], 2.0 * x[0] + 3.0 * x[1]];
    /// assert!((b[0] - 2.0).abs() < 1e-10 && (b[1] - 3.0).abs() < 1e-10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn decompose_packed(n: usize, mut data: Vec<f64>) -> Result<Self> {
        if data.len() != row_offset(n) {
            return Err(StatsError::DimensionMismatch {
                expected: row_offset(n),
                actual: data.len(),
            });
        }
        // Bordered factorization: row i is produced from the already-final
        // rows above it by exactly the operations `append_row` performs.
        for i in 0..n {
            let (head, tail) = data.split_at_mut(row_offset(i));
            let row_i = &mut tail[..=i];
            for j in 0..i {
                let row_j = &head[row_offset(j)..row_offset(j) + j + 1];
                let s = dot(&row_i[..j], &row_j[..j]);
                row_i[j] = (row_i[j] - s) / row_j[j];
            }
            let d = row_i[i] - dot(&row_i[..i], &row_i[..i]);
            if d <= 0.0 || !d.is_finite() {
                return Err(StatsError::NotPositiveDefinite);
            }
            row_i[i] = d.sqrt();
        }
        Ok(Cholesky { n, data })
    }

    /// The packed row-major lower triangle of the factor `L` (row `i` holds
    /// entries `(i, 0..=i)`), for checkpointing codecs that serialize a
    /// factorization verbatim.
    pub fn packed(&self) -> &[f64] {
        &self.data
    }

    /// Reassembles a factorization from a [`packed`](Cholesky::packed)
    /// snapshot **without** re-factorizing: `data` is trusted to already be
    /// a valid lower-triangular factor, so the round-trip is bit-exact even
    /// where a fresh decomposition would round differently.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `data.len()` is not
    /// `n(n+1)/2`.
    pub fn from_packed_factor(n: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != row_offset(n) {
            return Err(StatsError::DimensionMismatch {
                expected: row_offset(n),
                actual: data.len(),
            });
        }
        Ok(Cholesky { n, data })
    }

    /// Extends the factorization of an `n × n` matrix `A` to the
    /// `(n+1) × (n+1)` matrix bordered by `row`: `row[..n]` holds the new
    /// off-diagonal entries `A[n][0..n]` and `row[n]` the new diagonal entry.
    ///
    /// Runs in `O(n²)` (one forward substitution plus a Schur complement)
    /// and produces the same factor, bit for bit, as a cold
    /// [`decompose_packed`](Cholesky::decompose_packed) of the bordered
    /// matrix. On error the existing factorization is left untouched, so
    /// callers can fall back to a full refactorization with more jitter.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `row.len() != n + 1`
    /// and [`StatsError::NotPositiveDefinite`] when the Schur complement of
    /// the new diagonal is non-positive (the bordered matrix is numerically
    /// not positive definite).
    pub fn append_row(&mut self, row: &[f64]) -> Result<()> {
        let n = self.n;
        if row.len() != n + 1 {
            return Err(StatsError::DimensionMismatch {
                expected: n + 1,
                actual: row.len(),
            });
        }
        let mut l = Vec::with_capacity(n + 1);
        for j in 0..n {
            let row_j = self.row(j);
            let s = dot(&l[..j], &row_j[..j]);
            l.push((row[j] - s) / row_j[j]);
        }
        let d = row[n] - dot(&l, &l);
        if d <= 0.0 || !d.is_finite() {
            return Err(StatsError::NotPositiveDefinite);
        }
        l.push(d.sqrt());
        self.data.extend_from_slice(&l);
        self.n += 1;
        Ok(())
    }

    /// Row `i` of the packed factor (entries `(i, 0..=i)`).
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.data[row_offset(i)..row_offset(i) + i + 1]
    }

    /// Forward substitution `L z = b` over one right-hand side held in
    /// `z` in place.
    fn forward_in_place(&self, z: &mut [f64]) {
        for i in 0..self.n {
            let row = self.row(i);
            let s = dot(&row[..i], &z[..i]);
            z[i] = (z[i] - s) / row[i];
        }
    }

    /// Solves `A x = b` using forward then backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.n;
        if b.len() != n {
            return Err(StatsError::DimensionMismatch {
                expected: n,
                actual: b.len(),
            });
        }
        let mut x = b.to_vec();
        self.forward_in_place(&mut x);
        // Backward substitution: Lᵀ x = z. Column i of L is a strided
        // gather over the packed rows below i.
        for i in (0..n).rev() {
            let mut s = x[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.data[row_offset(k) + i] * xk;
            }
            x[i] = s / self.data[row_offset(i) + i];
        }
        Ok(x)
    }

    /// Solves only the forward-substitution half, `L z = b`, for one
    /// right-hand side: the oracle of the batched form.
    #[cfg(test)]
    fn forward_substitute(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n {
            return Err(StatsError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        let mut z = b.to_vec();
        self.forward_in_place(&mut z);
        Ok(z)
    }

    /// Forward substitution over a block of `count` right-hand sides stored
    /// row-major in `rhs` (`count × n`), solved in place.
    ///
    /// The factor is walked **once**: each factor row is applied to every
    /// right-hand side while it is hot in cache, which is what makes batched
    /// Gaussian-process prediction cheap. Each individual right-hand side
    /// goes through exactly the arithmetic of a single forward substitution,
    /// so batched and single-point results are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `rhs.len()` is not
    /// `count * n`.
    pub fn forward_substitute_batch(&self, rhs: &mut [f64], count: usize) -> Result<()> {
        let n = self.n;
        if rhs.len() != count * n {
            return Err(StatsError::DimensionMismatch {
                expected: count * n,
                actual: rhs.len(),
            });
        }
        for i in 0..n {
            let row = self.row(i);
            for z in rhs.chunks_exact_mut(n) {
                let s = dot(&row[..i], &z[..i]);
                z[i] = (z[i] - s) / row[i];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A classic SPD matrix with the exact factor
    /// `[[2, 0, 0], [6, 1, 0], [-8, 5, 3]]`.
    fn spd_example() -> Vec<Vec<f64>> {
        vec![
            vec![4.0, 12.0, -16.0],
            vec![12.0, 37.0, -43.0],
            vec![-16.0, -43.0, 98.0],
        ]
    }

    /// The packed lower triangle of a square matrix given by rows.
    fn lower(a: &[Vec<f64>]) -> Vec<f64> {
        a.iter()
            .enumerate()
            .flat_map(|(i, row)| row[..=i].to_vec())
            .collect()
    }

    /// `B Bᵀ + shift · I` for a square `B` given by rows: a random SPD matrix.
    fn gram_plus_shift(b: &[Vec<f64>], shift: f64) -> Vec<Vec<f64>> {
        let n = b.len();
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| dot(&b[i], &b[j]) + if i == j { shift } else { 0.0 })
                    .collect()
            })
            .collect()
    }

    /// `L Lᵀ` from the packed factor, as rows.
    fn reconstruct(chol: &Cholesky) -> Vec<Vec<f64>> {
        let n = chol.n;
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let k = i.min(j);
                        dot(&chol.row(i)[..=k], &chol.row(j)[..=k])
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn decomposes_known_spd_matrix() {
        let chol = Cholesky::decompose_packed(3, lower(&spd_example())).unwrap();
        let expected = [2.0, 6.0, 1.0, -8.0, 5.0, 3.0];
        for (got, want) in chol.packed().iter().zip(expected) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn decompose_packed_matches_dense_decompose() {
        // The packed factor multiplies back to the dense matrix it came from.
        let a = spd_example();
        let chol = Cholesky::decompose_packed(3, lower(&a)).unwrap();
        let back = reconstruct(&chol);
        for i in 0..3 {
            for j in 0..3 {
                assert!((a[i][j] - back[i][j]).abs() < 1e-9);
            }
        }
        assert!(matches!(
            Cholesky::decompose_packed(3, vec![0.0; 5]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_satisfies_original_system() {
        let a = spd_example();
        let chol = Cholesky::decompose_packed(3, lower(&a)).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = chol.solve(&b).unwrap();
        for (bi, row) in b.iter().zip(&a) {
            assert!((bi - dot(row, &x)).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_non_positive_definite() {
        assert_eq!(
            Cholesky::decompose_packed(2, vec![1.0, 2.0, 1.0]).unwrap_err(),
            StatsError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_non_square() {
        // Five entries are no lower triangle of a square matrix.
        assert!(matches!(
            Cholesky::decompose_packed(2, vec![0.0; 5]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn forward_substitution_consistent_with_solve() {
        let chol = Cholesky::decompose_packed(3, lower(&spd_example())).unwrap();
        let b = vec![0.5, -1.0, 2.0];
        let z = chol.forward_substitute(&b).unwrap();
        // ||z||^2 should equal bᵀ A⁻¹ b.
        let x = chol.solve(&b).unwrap();
        let quad: f64 = b.iter().zip(&x).map(|(bi, xi)| bi * xi).sum();
        let norm: f64 = z.iter().map(|v| v * v).sum();
        assert!((quad - norm).abs() < 1e-9);
    }

    #[test]
    fn batched_forward_substitution_is_bit_identical_to_single() {
        let chol = Cholesky::decompose_packed(3, lower(&spd_example())).unwrap();
        let rhs_rows = [
            vec![1.0, 2.0, 3.0],
            vec![-0.5, 0.25, 4.0],
            vec![0.0, 0.0, 1.0],
        ];
        let mut flat: Vec<f64> = rhs_rows.iter().flatten().copied().collect();
        chol.forward_substitute_batch(&mut flat, 3).unwrap();
        for (r, b) in rhs_rows.iter().enumerate() {
            let single = chol.forward_substitute(b).unwrap();
            assert_eq!(&flat[r * 3..(r + 1) * 3], single.as_slice());
        }
        assert!(matches!(
            chol.forward_substitute_batch(&mut [0.0; 4], 3),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn append_row_rejects_bad_input_and_keeps_factor_intact() {
        let mut chol = Cholesky::decompose_packed(3, lower(&spd_example())).unwrap();
        let before = chol.clone();
        assert!(matches!(
            chol.append_row(&[1.0, 2.0]),
            Err(StatsError::DimensionMismatch { .. })
        ));
        // A duplicate of row 0 with the same diagonal makes the bordered
        // matrix singular: the Schur complement is exactly zero.
        assert_eq!(
            chol.append_row(&[4.0, 12.0, -16.0, 4.0]).unwrap_err(),
            StatsError::NotPositiveDefinite
        );
        assert_eq!(chol, before, "failed append must not corrupt the factor");
    }

    proptest! {
        #[test]
        fn reconstruction_roundtrips_random_spd(values in proptest::collection::vec(-2.0f64..2.0, 9)) {
            // Build SPD matrix as B Bᵀ + n I from a random 3x3 B.
            let b: Vec<Vec<f64>> = values.chunks(3).map(<[f64]>::to_vec).collect();
            let a = gram_plus_shift(&b, 3.0);
            let chol = Cholesky::decompose_packed(3, lower(&a)).unwrap();
            let back = reconstruct(&chol);
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!((a[i][j] - back[i][j]).abs() < 1e-8);
                }
            }
        }

        #[test]
        fn appending_rows_is_bit_identical_to_cold_factorization(
            values in proptest::collection::vec(-2.0f64..2.0, 36),
            split in 2usize..5,
        ) {
            // Random 6x6 SPD matrix A = B Bᵀ + 4 I.
            let b: Vec<Vec<f64>> = values.chunks(6).map(<[f64]>::to_vec).collect();
            let a = gram_plus_shift(&b, 4.0);
            let cold = Cholesky::decompose_packed(6, lower(&a)).unwrap();
            // Factorize the leading `split` block, then append the rest.
            let mut incremental = Cholesky::decompose_packed(split, lower(&a[..split])).unwrap();
            for row in &a[split..] {
                incremental.append_row(&row[..=incremental.n]).unwrap();
            }
            // Bit-identical, not merely close: the bordered factorization
            // performs the same operations in the same order.
            prop_assert_eq!(cold, incremental);
        }
    }
}
