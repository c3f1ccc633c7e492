use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The factor is the bridge between covariance matrices and the solver's
/// second-order-cone constraints: the paper's overflow constraint (eq. 20)
/// `β·√(wᵀΣw) ≤ c − wᵀμ` is handled as `‖β·Lᵀw‖₂ ≤ c − wᵀμ` with `Σ = LLᵀ`.
/// It also solves `S_W·w = d` for float LDA and the barrier solver's Newton
/// systems.
///
/// One value serves both uses: [`Cholesky::new`] and
/// [`Cholesky::new_with_ridge`] build a fresh factorization, while
/// [`Cholesky::factorize`], [`Cholesky::factorize_with_ridge`] and
/// [`Cholesky::solve_into`] refill an existing one, so a loop that
/// factorizes one same-sized matrix per step (the Newton loop) allocates
/// nothing in the steady state.
///
/// # Example
///
/// ```
/// use ldafp_linalg::Matrix;
///
/// # fn main() -> Result<(), ldafp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0], &[15.0, 18.0]])?;
/// let chol = a.cholesky()?;
/// let l = chol.factor();
/// assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Default for Cholesky {
    /// An empty (0 × 0) factorization; the factor grows on first use.
    fn default() -> Self {
        Cholesky {
            l: Matrix::zeros(0, 0),
        }
    }
}

/// Fails unless `a` is square and `max |a_ij − a_ji| ≤ 1e-8 · max|A|`.
fn check_symmetric(a: &Matrix) -> Result<()> {
    let asym = a.max_asymmetry()?;
    let tol = 1e-8 * a.max_abs().max(1.0);
    if asym > tol {
        return Err(LinalgError::NotSymmetric {
            max_asymmetry: asym,
        });
    }
    Ok(())
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix (see
    /// [`Cholesky::factorize`]) after checking that it is symmetric.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSymmetric`] if `max |a_ij − a_ji|` exceeds
    ///   `1e-8 · max|A|`.
    /// * Otherwise the failure modes of [`Cholesky::factorize`].
    pub fn new(a: &Matrix) -> Result<Self> {
        check_symmetric(a)?;
        let mut chol = Cholesky::default();
        chol.factorize(a)?;
        Ok(chol)
    }

    /// Factorizes `A + λI` on the ridge ladder of
    /// [`Cholesky::factorize_with_ridge`], returning the factorization
    /// together with the absolute ridge that was finally applied.
    ///
    /// Within-class scatter matrices of small datasets are frequently
    /// singular (more features than trials); the LDA-FP trainer uses this
    /// entry point with a tiny relative ridge, exactly as noted in DESIGN.md.
    /// The matrix is checked for symmetry first, as in [`Cholesky::new`].
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSymmetric`] as for [`Cholesky::new`].
    /// * Otherwise the failure modes of [`Cholesky::factorize_with_ridge`].
    pub fn new_with_ridge(a: &Matrix, rel_ridge: f64) -> Result<(Self, f64)> {
        check_symmetric(a)?;
        let mut chol = Cholesky::default();
        let ridge = chol.factorize_with_ridge(a, rel_ridge, &mut Matrix::zeros(0, 0))?;
        Ok((chol, ridge))
    }

    /// Factorizes the symmetric matrix whose lower triangle (diagonal
    /// included) is `a`'s into this value's factor buffer, reusing the
    /// buffer when the dimension is unchanged. The upper triangle is never
    /// read, so a caller that assembles only the lower triangle passes its
    /// matrix as it is; symmetry is checked by [`Cholesky::new`] and
    /// [`Cholesky::new_with_ridge`], not here.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for non-square input.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is `≤ 0`.
    ///
    /// On error the stored factor is invalid and must not be used until the
    /// next successful call.
    pub fn factorize(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.dims() });
        }
        let n = a.rows();
        if self.l.dims() != (n, n) {
            self.l = Matrix::zeros(n, n);
        } else {
            self.l.as_mut_slice().fill(0.0);
        }
        // Row by row, `L_ij = (a_ij − Σ_{k<j} L_ik·L_jk) / L_jj` with the
        // products subtracted in increasing `k`, on row slices.
        for i in 0..n {
            let a_row = a.row(i);
            let (done, rest) = self.l.as_mut_slice().split_at_mut(i * n);
            let l_row = &mut rest[..n];
            for j in 0..i {
                let l_j = &done[j * n..j * n + j + 1];
                let mut sum = a_row[j];
                for (&x, &y) in l_row[..j].iter().zip(&l_j[..j]) {
                    sum -= x * y;
                }
                l_row[j] = sum / l_j[j];
            }
            let mut sum = a_row[i];
            for &x in &l_row[..i] {
                sum -= x * x;
            }
            if sum <= 0.0 || !sum.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: i,
                    value: sum,
                });
            }
            l_row[i] = sum.sqrt();
        }
        Ok(())
    }

    /// Factorizes `A + λI` where `λ = rel_ridge · trace(A)/n`, retrying with
    /// ×10 larger ridges (up to 8 times) until the shifted matrix is positive
    /// definite; `scratch` holds the shifted copies. Like
    /// [`Cholesky::factorize`], it reads only `a`'s lower triangle.
    ///
    /// Only `rel_ridge == 0` tries the unshifted matrix (a ridge of 0 when
    /// it factors); its ladder then starts at `1e-12 · trace(A)/n`.
    ///
    /// Returns the absolute ridge that was finally applied.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Cholesky::factorize`] when even the largest
    /// ridge fails (e.g. a matrix with strongly negative eigenvalues).
    pub fn factorize_with_ridge(
        &mut self,
        a: &Matrix,
        rel_ridge: f64,
        scratch: &mut Matrix,
    ) -> Result<f64> {
        let n = a.rows().max(1);
        let scale = (a.trace() / n as f64).abs().max(f64::MIN_POSITIVE);
        if rel_ridge == 0.0 && self.factorize(a).is_ok() {
            return Ok(0.0);
        }
        let mut ridge = rel_ridge.max(0.0) * scale;
        if ridge == 0.0 {
            ridge = 1e-12 * scale;
        }
        let mut last_err = LinalgError::NotPositiveDefinite {
            pivot: 0,
            value: 0.0,
        };
        for _ in 0..8 {
            scratch.copy_from(a);
            scratch.add_ridge(ridge)?;
            match self.factorize(scratch) {
                Ok(()) => return Ok(ridge),
                Err(e) => last_err = e,
            }
            ridge *= 10.0;
        }
        Err(last_err)
    }

    /// Borrow the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b` via forward/backward substitution (see
    /// [`Cholesky::solve_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into `x`: the forward pass `L·y = b` writes `y`
    /// into `x`, then the backward pass `Lᵀ·x = y` runs in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let l = &self.l;
        x.clear();
        x.extend_from_slice(b);
        for i in 0..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= l[(i, k)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let l = c.factor();
        let rebuilt = l.mul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rebuilt[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_residual_small() {
        let a = spd3();
        let c = a.cholesky().unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigvals 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn ridge_rescues_singular() {
        // Rank-1 PSD matrix: singular without ridge.
        let a = Matrix::outer(&[1.0, 2.0], &[1.0, 2.0]);
        assert!(Cholesky::new(&a).is_err());
        let (c, ridge) = Cholesky::new_with_ridge(&a, 1e-9).unwrap();
        assert!(ridge > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn ridge_zero_passthrough_for_spd() {
        let a = spd3();
        let (_, ridge) = Cholesky::new_with_ridge(&a, 0.0).unwrap();
        assert_eq!(ridge, 0.0);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let c = spd3().cholesky().unwrap();
        assert!(c.solve(&[1.0]).is_err());
    }

    #[test]
    fn identity_factor_is_identity() {
        let c = Cholesky::new(&Matrix::identity(4)).unwrap();
        assert_eq!(c.factor(), &Matrix::identity(4));
    }

    #[test]
    fn reuses_across_dimension_changes() {
        let mut chol = Cholesky::default();
        chol.factorize(&Matrix::identity(2)).unwrap();
        assert_eq!(chol.dim(), 2);
        chol.factorize(&spd3()).unwrap();
        assert_eq!(chol.dim(), 3);
        let mut x = Vec::new();
        chol.solve_into(&[1.0, 0.0, 0.0], &mut x).unwrap();
        assert_eq!(x.len(), 3);
        // Shrinking back also works: stale factor state must not leak.
        chol.factorize(&Matrix::identity(2)).unwrap();
        assert_eq!(chol.factor(), &Matrix::identity(2));
    }

    /// FNV-1a over the bit patterns of `values`, continuing from `h`.
    fn digest(mut h: u64, values: &[f64]) -> u64 {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Seeded SplitMix64 draws mapped to `[-1, 1)`.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// `B·Bᵀ + shift·I` for an `n × rank` matrix `B` of seeded draws,
    /// summed in a fixed order: SPD for `shift > 0`, singular PSD for
    /// `rank < n` and `shift = 0`, slightly indefinite for `shift < 0`.
    fn gram(draws: &mut Draws, n: usize, rank: usize, shift: f64) -> Matrix {
        let b: Vec<f64> = (0..n * rank).map(|_| draws.next()).collect();
        Matrix::from_fn(n, n, |i, j| {
            let mut s = if i == j { shift } else { 0.0 };
            for k in 0..rank {
                s += b[i * rank + k] * b[j * rank + k];
            }
            s
        })
    }

    /// Digests of the bits of `factor()`, of `solve` and of the returned
    /// ridge, on seeded matrices up to the bci42 Newton size (n = 43) and
    /// on rank-deficient and indefinite ones that climb the ridge ladder.
    /// The pinned values were computed from the allocating and the
    /// reusable factorizations before they were merged (the two agreed bit
    /// for bit), so every factor, solution and ridge must stay identical.
    /// Each case runs through a fresh value and through one value reused
    /// across all cases.
    #[test]
    fn factor_solve_and_ridge_bits_are_pinned() {
        let mut draws = Draws(2014);
        // (n, rank, shift, rel_ridge); `None` factorizes without a ridge.
        let cases: [(usize, usize, f64, Option<f64>); 8] = [
            (1, 1, 0.5, None),
            (3, 3, 0.1, None),
            (8, 8, 0.5, None),
            (43, 43, 0.1, None),
            (43, 43, 0.1, Some(1e-9)),
            (43, 20, 0.0, Some(0.0)),
            (12, 5, 0.0, Some(1e-10)),
            (10, 4, -1e-7, Some(0.0)),
        ];
        let expected: [u64; 8] = [
            0xd745_2689_adaf_5b7e,
            0x4439_e41e_5dc7_fc9f,
            0x1c07_9b51_4851_3b3e,
            0x7b1f_1e5f_bcf0_8777,
            0xd82e_f245_6e0c_a417,
            0x61dd_dd5d_510b_bedd,
            0xc520_dc30_fc12_0491,
            0x98b0_205a_e0bb_199c,
        ];
        let mut reused = Cholesky::default();
        let mut scratch = Matrix::zeros(0, 0);
        let mut x = Vec::new();
        for (&(n, rank, shift, rel_ridge), &want) in cases.iter().zip(&expected) {
            let a = gram(&mut draws, n, rank, shift);
            let b: Vec<f64> = (0..n).map(|_| draws.next()).collect();
            if rank < n {
                assert!(Cholesky::new(&a).is_err(), "n = {n}: needs the ridge");
            }
            let (fresh, ridge) = match rel_ridge {
                None => (Cholesky::new(&a).unwrap(), 0.0),
                Some(rel) => Cholesky::new_with_ridge(&a, rel).unwrap(),
            };
            if rank < n {
                assert!(ridge > 0.0, "n = {n}: ridge {ridge:e}");
            }
            let h = digest(0xcbf2_9ce4_8422_2325, fresh.factor().as_slice());
            let h = digest(h, &fresh.solve(&b).unwrap());
            assert_eq!(digest(h, &[ridge]), want, "n = {n}, fresh");

            let ridge = match rel_ridge {
                None => reused.factorize(&a).map(|()| 0.0),
                Some(rel) => reused.factorize_with_ridge(&a, rel, &mut scratch),
            }
            .unwrap();
            reused.solve_into(&b, &mut x).unwrap();
            let h = digest(0xcbf2_9ce4_8422_2325, reused.factor().as_slice());
            assert_eq!(digest(digest(h, &x), &[ridge]), want, "n = {n}, reused");
        }
    }
}
