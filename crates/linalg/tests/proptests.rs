//! Property-based tests for the linear-algebra substrate.

use ldafp_linalg::{moments, vecops, Matrix};
use ldafp_stats::rng::{check, CASES};
use ldafp_stats::Rng;

/// `len` entries uniform in `[lo, hi)`.
fn floats(rng: &mut Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.range_f64(lo..hi)).collect()
}

/// A finite vector with entries in [-10, 10).
fn vector(rng: &mut Rng, len: usize) -> Vec<f64> {
    floats(rng, len, -10.0, 10.0)
}

/// A random well-conditioned SPD matrix `AᵀA + nI`.
fn spd(rng: &mut Rng, n: usize) -> Matrix {
    let a = Matrix::from_vec(n, n, floats(rng, n * n, -2.0, 2.0)).expect("sized buffer");
    let mut spd = a.transpose().mul(&a).expect("square product");
    spd.add_ridge(n as f64).expect("square");
    spd.symmetrize().expect("square");
    spd
}

#[test]
fn dot_is_commutative() {
    check(
        CASES,
        |rng| (vector(rng, 6), vector(rng, 6)),
        |(x, y)| {
            let d1 = vecops::dot(x, y);
            let d2 = vecops::dot(y, x);
            assert!((d1 - d2).abs() <= 1e-9 * d1.abs().max(1.0));
        },
    );
}

#[test]
fn cauchy_schwarz() {
    check(
        CASES,
        |rng| (vector(rng, 5), vector(rng, 5)),
        |(x, y)| {
            let d = vecops::dot(x, y).abs();
            let bound = vecops::norm2(x) * vecops::norm2(y);
            assert!(d <= bound + 1e-9);
        },
    );
}

#[test]
fn triangle_inequality() {
    check(
        CASES,
        |rng| (vector(rng, 5), vector(rng, 5)),
        |(x, y)| {
            let s = vecops::add(x, y);
            assert!(vecops::norm2(&s) <= vecops::norm2(x) + vecops::norm2(y) + 1e-9);
        },
    );
}

#[test]
fn norm_ordering() {
    check(
        CASES,
        |rng| vector(rng, 7),
        |x| {
            // ‖x‖∞ ≤ ‖x‖₂ ≤ ‖x‖₁ for every vector.
            let inf = vecops::norm_inf(x);
            let two = vecops::norm2(x);
            let one = vecops::norm1(x);
            assert!(inf <= two + 1e-12);
            assert!(two <= one + 1e-9);
        },
    );
}

#[test]
fn transpose_involution() {
    check(
        CASES,
        |rng| floats(rng, 12, -5.0, 5.0),
        |data| {
            let a = Matrix::from_vec(3, 4, data.clone()).unwrap();
            assert_eq!(a.transpose().transpose(), a);
        },
    );
}

#[test]
fn matmul_associative() {
    check(
        CASES,
        |rng| [(); 3].map(|()| Matrix::from_vec(3, 3, floats(rng, 9, -2.0, 2.0)).unwrap()),
        |[a, b, c]| {
            let left = a.mul(b).unwrap().mul(c).unwrap();
            let right = a.mul(&b.mul(c).unwrap()).unwrap();
            let diff = left.sub(&right).unwrap().max_abs();
            assert!(diff < 1e-9, "associativity violated by {diff}");
        },
    );
}

#[test]
fn cholesky_reconstructs() {
    check(
        CASES,
        |rng| spd(rng, 4),
        |a| {
            let c = a.cholesky().unwrap();
            let l = c.factor();
            let rebuilt = l.mul(&l.transpose()).unwrap();
            let err = rebuilt.sub(a).unwrap().max_abs();
            assert!(
                err < 1e-8 * a.max_abs().max(1.0),
                "reconstruction error {err}"
            );
        },
    );
}

#[test]
fn cholesky_solve_residual() {
    check(
        CASES,
        |rng| (spd(rng, 4), vector(rng, 4)),
        |(a, b)| {
            let x = a.cholesky().unwrap().solve(b).unwrap();
            let r = a.mul_vec(&x).unwrap();
            for (ri, bi) in r.iter().zip(b) {
                assert!((ri - bi).abs() < 1e-7 * bi.abs().max(1.0));
            }
        },
    );
}

#[test]
fn quad_form_equals_lt_norm() {
    check(
        CASES,
        |rng| (spd(rng, 4), vector(rng, 4)),
        |(a, w)| {
            // (Lᵀw)_i = Σ_{k≥i} L_ki·w_k, the map behind the eq. 20 cones.
            let c = a.cholesky().unwrap();
            let l = c.factor();
            let z: Vec<f64> = (0..4)
                .map(|i| (i..4).map(|k| l[(k, i)] * w[k]).sum())
                .collect();
            let qf = a.quad_form(w).unwrap();
            let nz = vecops::dot(&z, &z);
            assert!((qf - nz).abs() < 1e-8 * qf.abs().max(1.0));
        },
    );
}

#[test]
fn covariance_psd() {
    check(
        CASES,
        |rng| (floats(rng, 24, -3.0, 3.0), vector(rng, 3)),
        |(data, w)| {
            let samples = Matrix::from_vec(8, 3, data.clone()).unwrap();
            let mu = moments::row_mean(&samples).unwrap();
            let cov = moments::covariance(&samples, &mu).unwrap();
            assert!(cov.quad_form(w).unwrap() >= -1e-10 * vecops::dot(w, w));
        },
    );
}

#[test]
fn fisher_cost_scale_invariance() {
    const SCALES: [f64; 5] = [-3.0, -0.5, 0.25, 2.0, 10.0];
    check(
        CASES,
        |rng| {
            let a = Matrix::from_vec(5, 3, floats(rng, 15, -3.0, 3.0)).unwrap();
            let b = Matrix::from_vec(5, 3, floats(rng, 15, -3.0, 3.0)).unwrap();
            (a, b, vector(rng, 3), SCALES[rng.below(SCALES.len())])
        },
        |(ca, cb, w, k)| {
            let m = moments::BinaryClassMoments::from_samples(ca, cb).unwrap();
            let j1 = m.fisher_cost(w).unwrap();
            let kw = vecops::scale(w, *k);
            let j2 = m.fisher_cost(&kw).unwrap();
            if j1.is_finite() && j2.is_finite() {
                assert!((j1 - j2).abs() <= 1e-6 * j1.abs().max(1.0));
            }
        },
    );
}
