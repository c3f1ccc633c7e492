use crate::{LinalgError, Matrix, Result};

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// Used for general linear solves and inverses — in particular the
/// conventional-LDA weight solution `w ∝ S_W⁻¹(μ_A − μ_B)` (eq. 11 of the
/// paper) and the Newton steps inside the interior-point solver.
///
/// # Example
///
/// ```
/// use ldafp_linalg::Matrix;
///
/// # fn main() -> Result<(), ldafp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]])?; // needs pivoting
/// let x = a.lu()?.solve(&[4.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed factors: strictly-lower part of L (unit diagonal implied) and
    /// upper part of U, in one matrix.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 / −1.0), for the determinant.
    perm_sign: f64,
}

impl Lu {
    /// Factorizes a square matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::Singular`] when the best available pivot in some
    ///   column is zero (or non-finite).
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.dims() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for col in 0..n {
            // Find pivot row.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(col, col)];
            for r in (col + 1)..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor;
                for j in (col + 1)..n {
                    let sub = factor * lu[(col, j)];
                    lu[(r, j)] -= sub;
                }
            }
        }
        Ok(Lu {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation, then forward substitution with unit-lower L.
        let mut y: Vec<f64> = (0..n).map(|i| b[self.perm[i]]).collect();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.lu[(i, k)] * y[k];
            }
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                let sub = self.lu[(i, k)] * y[k];
                y[i] -= sub;
            }
            y[i] /= self.lu[(i, i)];
        }
        Ok(y)
    }

    /// Inverse of the factorized matrix, column by column.
    ///
    /// # Errors
    ///
    /// Never fails after a successful factorization, but keeps the `Result`
    /// signature for interface symmetry with other decompositions.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }

    /// Determinant: product of U's diagonal times the permutation sign.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_with_pivoting() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.lu().unwrap().solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.5, -1.0, 4.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let id = a.mul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (id[(i, j)] - expect).abs() < 1e-12,
                    "({i},{j}) = {}",
                    id[(i, j)]
                );
            }
        }
    }

    #[test]
    fn det_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((a.lu().unwrap().det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_tracks_permutations() {
        // A permutation matrix with one swap: determinant −1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((a.lu().unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            Matrix::zeros(2, 3).lu(),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let lu = Matrix::identity(3).lu().unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn identity_roundtrip() {
        let lu = Matrix::identity(4).lu().unwrap();
        assert_eq!(lu.det(), 1.0);
        assert_eq!(
            lu.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn random_ish_residuals() {
        // Deterministic pseudo-random fill from the workspace's seeded generator.
        let mut rng = ldafp_stats::Rng::new(0x2545_F491_4F6C_DD1D);
        let mut next = move || rng.range_f64(-1.0..1.0);
        for trial in 0..20 {
            let n = 1 + (trial % 7);
            let mut a = Matrix::from_fn(n, n, |_, _| next());
            a.add_ridge(2.0 * n as f64).unwrap(); // diagonally dominant => nonsingular
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let x = a.lu().unwrap().solve(&b).unwrap();
            let r = a.mul_vec(&x).unwrap();
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-9);
            }
        }
    }
}
