//! Slice-based vector kernels.
//!
//! These free functions operate on plain `&[f64]` slices so that every layer
//! of the workspace (datasets, solver, classifier) can share vectors without
//! wrapping them in a dedicated type.
//!
//! All binary kernels panic on length mismatch: a mismatched vector length is
//! a programming error inside this workspace, never a data-dependent
//! condition, so `Result` plumbing would only obscure the hot paths.

/// Dot product `xᵀy`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// # Example
///
/// ```
/// assert_eq!(ldafp_linalg::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Euclidean (L2) norm.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// L∞ norm (maximum absolute value).
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// Element-wise sum `x + y`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a + b).collect()
}

/// Element-wise difference `x - y`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a - b).collect()
}

/// Scalar multiple `k·x`.
pub fn scale(x: &[f64], k: f64) -> Vec<f64> {
    x.iter().map(|&a| a * k).collect()
}

/// In-place `y ← y + a·x` (the BLAS `axpy` kernel).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Euclidean distance `‖x − y‖₂`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn distance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "distance: length mismatch");
    x.iter()
        .zip(y)
        .map(|(&a, &b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Normalizes `x` to unit L2 length, returning `None` when `‖x‖₂ == 0`
/// (there is no meaningful direction to return).
pub fn normalized(x: &[f64]) -> Option<Vec<f64>> {
    let n = norm2(x);
    if n == 0.0 {
        None
    } else {
        Some(scale(x, 1.0 / n))
    }
}

/// True if every element is finite.
pub fn is_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Index and value of the maximum element, or `None` for an empty slice.
/// Ties resolve to the earliest index.
pub fn argmax(x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, b)) if v <= b => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, -2.0, 3.0], &[4.0, 5.0, 6.0]), 12.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&x), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn add_sub_scale() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(scale(&[1.0, -2.0], -2.0), vec![-2.0, 4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance(&b, &a), 5.0);
    }

    #[test]
    fn normalized_unit_length() {
        let n = normalized(&[3.0, 4.0]).unwrap();
        assert!((norm2(&n) - 1.0).abs() < 1e-15);
        assert!(normalized(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn argmax_ties_earliest() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some((1, 3.0)));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn is_finite_flags_inf() {
        assert!(is_finite(&[1.0, 2.0]));
        assert!(!is_finite(&[1.0, f64::INFINITY]));
        assert!(!is_finite(&[f64::NAN]));
    }
}
