use ldafp_linalg::Matrix;
use ldafp_stats::KFoldSplit;
use std::fmt;

/// Why a [`BinaryDataset`] could not be constructed. Every variant carries
/// enough location detail for the message to be actionable at the data
/// boundary (CSV loaders, generators, FFI).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DatasetError {
    /// The two classes disagree on the number of features.
    ShapeMismatch {
        /// Feature count of class A.
        a_cols: usize,
        /// Feature count of class B.
        b_cols: usize,
    },
    /// A class has no samples.
    EmptyClass {
        /// The empty class.
        class: ClassLabel,
    },
    /// A feature value is NaN or infinite.
    NonFiniteFeature {
        /// Class containing the bad value.
        class: ClassLabel,
        /// Zero-based row within the class.
        row: usize,
        /// Zero-based feature column.
        col: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::ShapeMismatch { a_cols, b_cols } => write!(
                f,
                "classes disagree on feature count: class A has {a_cols} features, class B has {b_cols}"
            ),
            DatasetError::EmptyClass { class } => {
                write!(f, "class {class:?} has no samples; both classes need at least one")
            }
            DatasetError::NonFiniteFeature { class, row, col, value } => write!(
                f,
                "class {class:?} sample {row}, feature {col} is {value} — feature values must be finite"
            ),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Which of the two classes a sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassLabel {
    /// Class A (the paper's `≥ 0` side of the decision rule, eq. 12).
    A,
    /// Class B.
    B,
}

/// A binary-classification dataset: two sample matrices (rows = trials,
/// columns = features) sharing one feature space.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryDataset {
    /// Class-A samples (`N_A × M`).
    pub class_a: Matrix,
    /// Class-B samples (`N_B × M`).
    pub class_b: Matrix,
}

impl BinaryDataset {
    /// Creates a dataset, validating that both classes share a feature
    /// count, neither class is empty, and every feature value is finite.
    ///
    /// Returns `None` on any violation; use [`Self::validated`] when the
    /// caller needs to know *which* check failed.
    pub fn new(class_a: Matrix, class_b: Matrix) -> Option<Self> {
        Self::validated(class_a, class_b).ok()
    }

    /// Like [`Self::new`], but reports the specific violation: shape
    /// mismatch, empty class, or the exact location of a NaN/infinite
    /// feature value.
    ///
    /// # Errors
    ///
    /// Returns the first [`DatasetError`] found (shapes, then emptiness,
    /// then finiteness, scanning class A before class B).
    pub fn validated(class_a: Matrix, class_b: Matrix) -> Result<Self, DatasetError> {
        if class_a.cols() != class_b.cols() {
            return Err(DatasetError::ShapeMismatch {
                a_cols: class_a.cols(),
                b_cols: class_b.cols(),
            });
        }
        for (m, class) in [(&class_a, ClassLabel::A), (&class_b, ClassLabel::B)] {
            if m.rows() == 0 {
                return Err(DatasetError::EmptyClass { class });
            }
            for row in 0..m.rows() {
                for (col, &value) in m.row(row).iter().enumerate() {
                    if !value.is_finite() {
                        return Err(DatasetError::NonFiniteFeature {
                            class,
                            row,
                            col,
                            value,
                        });
                    }
                }
            }
        }
        Ok(BinaryDataset { class_a, class_b })
    }

    /// Number of features `M`.
    pub fn num_features(&self) -> usize {
        self.class_a.cols()
    }

    /// Trials per class `(N_A, N_B)`.
    pub fn class_sizes(&self) -> (usize, usize) {
        (self.class_a.rows(), self.class_b.rows())
    }

    /// Largest absolute feature value over both classes.
    pub fn max_abs(&self) -> f64 {
        self.class_a.max_abs().max(self.class_b.max_abs())
    }

    /// Selects rows from each class (cross-validation plumbing).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn select(&self, rows_a: &[usize], rows_b: &[usize]) -> BinaryDataset {
        BinaryDataset {
            class_a: select_rows(&self.class_a, rows_a),
            class_b: select_rows(&self.class_b, rows_b),
        }
    }

    /// Splits into `(train, test)` according to one cross-validation fold.
    pub fn split_fold(&self, fold: &KFoldSplit) -> (BinaryDataset, BinaryDataset) {
        (
            self.select(&fold.train_a, &fold.train_b),
            self.select(&fold.test_a, &fold.test_b),
        )
    }

    /// Iterates over all samples with their labels (A first, then B).
    pub fn iter_labeled(&self) -> impl Iterator<Item = (&[f64], ClassLabel)> {
        let a = (0..self.class_a.rows()).map(move |i| (self.class_a.row(i), ClassLabel::A));
        let b = (0..self.class_b.rows()).map(move |i| (self.class_b.row(i), ClassLabel::B));
        a.chain(b)
    }

    /// Uniformly rescales **all** features by one factor so the largest
    /// absolute value becomes `limit`. A single shared factor preserves the
    /// Fisher geometry exactly (it is a similarity transform), while making
    /// the data fit a chosen fixed-point range — the paper's "carefully
    /// scaled to avoid overflow" preprocessing step (§3).
    ///
    /// Returns the scaled dataset and the factor applied.
    pub fn scaled_to(&self, limit: f64) -> (BinaryDataset, f64) {
        let m = self.max_abs();
        let factor = if m == 0.0 { 1.0 } else { limit / m };
        (
            BinaryDataset {
                class_a: self.class_a.scaled(factor),
                class_b: self.class_b.scaled(factor),
            },
            factor,
        )
    }

    /// Per-feature rescaling: each feature is divided by its own max-abs
    /// (over both classes) and multiplied by `limit`. Changes the geometry
    /// (it is a diagonal transform) but maximizes per-channel resolution —
    /// the natural preprocessing for heterogeneous sensor channels.
    ///
    /// Returns the scaled dataset and the per-feature factors applied.
    pub fn feature_scaled_to(&self, limit: f64) -> (BinaryDataset, Vec<f64>) {
        let m = self.num_features();
        let mut factors = vec![1.0; m];
        for j in 0..m {
            let mut worst = 0.0f64;
            for i in 0..self.class_a.rows() {
                worst = worst.max(self.class_a[(i, j)].abs());
            }
            for i in 0..self.class_b.rows() {
                worst = worst.max(self.class_b[(i, j)].abs());
            }
            factors[j] = if worst == 0.0 { 1.0 } else { limit / worst };
        }
        let scale =
            |mat: &Matrix| Matrix::from_fn(mat.rows(), mat.cols(), |i, j| mat[(i, j)] * factors[j]);
        (
            BinaryDataset {
                class_a: scale(&self.class_a),
                class_b: scale(&self.class_b),
            },
            factors,
        )
    }
}

fn select_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    let cols = m.cols();
    let mut data = Vec::with_capacity(rows.len() * cols);
    for &r in rows {
        data.extend_from_slice(m.row(r));
    }
    Matrix::from_vec(rows.len(), cols, data).expect("buffer sized by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BinaryDataset {
        BinaryDataset::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap(),
            Matrix::from_rows(&[&[-1.0, -2.0], &[-3.0, -4.0]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(BinaryDataset::new(a.clone(), b).is_none());
        assert!(BinaryDataset::new(a.clone(), Matrix::zeros(0, 3)).is_none());
        assert!(BinaryDataset::new(a.clone(), a).is_some());
    }

    #[test]
    fn validated_reports_shape_mismatch() {
        let err = BinaryDataset::validated(Matrix::zeros(2, 3), Matrix::zeros(2, 4)).unwrap_err();
        assert_eq!(
            err,
            DatasetError::ShapeMismatch {
                a_cols: 3,
                b_cols: 4
            }
        );
        assert!(err.to_string().contains("feature count"));
    }

    #[test]
    fn validated_reports_empty_class() {
        let err = BinaryDataset::validated(Matrix::zeros(0, 3), Matrix::zeros(2, 3)).unwrap_err();
        assert_eq!(
            err,
            DatasetError::EmptyClass {
                class: ClassLabel::A
            }
        );
        let err = BinaryDataset::validated(Matrix::zeros(2, 3), Matrix::zeros(0, 3)).unwrap_err();
        assert_eq!(
            err,
            DatasetError::EmptyClass {
                class: ClassLabel::B
            }
        );
        assert!(err.to_string().contains("no samples"));
    }

    #[test]
    fn validated_reports_non_finite_location() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, f64::NAN]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 0.0]]).unwrap();
        let err = BinaryDataset::validated(a, b).unwrap_err();
        match err {
            DatasetError::NonFiniteFeature {
                class,
                row,
                col,
                value,
            } => {
                assert_eq!(class, ClassLabel::A);
                assert_eq!((row, col), (1, 1));
                assert!(value.is_nan());
            }
            other => panic!("unexpected error {other:?}"),
        }

        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, f64::INFINITY]]).unwrap();
        let err = BinaryDataset::validated(a, b).unwrap_err();
        assert!(matches!(
            err,
            DatasetError::NonFiniteFeature {
                class: ClassLabel::B,
                row: 0,
                col: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("must be finite"));
    }

    #[test]
    fn new_rejects_non_finite_features() {
        let a = Matrix::from_rows(&[&[1.0, f64::NEG_INFINITY]]).unwrap();
        let b = Matrix::from_rows(&[&[0.0, 0.0]]).unwrap();
        assert!(BinaryDataset::new(a, b).is_none());
    }

    #[test]
    fn sizes_and_max_abs() {
        let d = toy();
        assert_eq!(d.num_features(), 2);
        assert_eq!(d.class_sizes(), (3, 2));
        assert_eq!(d.max_abs(), 6.0);
    }

    #[test]
    fn select_picks_rows() {
        let d = toy();
        let s = d.select(&[2, 0], &[1]);
        assert_eq!(s.class_a.row(0), &[5.0, 6.0]);
        assert_eq!(s.class_a.row(1), &[1.0, 2.0]);
        assert_eq!(s.class_b.row(0), &[-3.0, -4.0]);
    }

    #[test]
    fn split_fold_partitions() {
        let d = toy();
        let fold = KFoldSplit {
            train_a: vec![0, 1],
            train_b: vec![0],
            test_a: vec![2],
            test_b: vec![1],
        };
        let (train, test) = d.split_fold(&fold);
        assert_eq!(train.class_sizes(), (2, 1));
        assert_eq!(test.class_sizes(), (1, 1));
        assert_eq!(test.class_a.row(0), &[5.0, 6.0]);
    }

    #[test]
    fn iter_labeled_order_and_count() {
        let d = toy();
        let labels: Vec<ClassLabel> = d.iter_labeled().map(|(_, l)| l).collect();
        assert_eq!(
            labels,
            vec![
                ClassLabel::A,
                ClassLabel::A,
                ClassLabel::A,
                ClassLabel::B,
                ClassLabel::B
            ]
        );
    }

    #[test]
    fn scaled_to_limit() {
        let d = toy();
        let (s, factor) = d.scaled_to(0.9);
        assert!((s.max_abs() - 0.9).abs() < 1e-12);
        assert!((factor - 0.15).abs() < 1e-12);
    }

    #[test]
    fn scaled_to_zero_dataset_noop() {
        let z = BinaryDataset::new(Matrix::zeros(1, 2), Matrix::zeros(1, 2)).unwrap();
        let (s, factor) = z.scaled_to(0.9);
        assert_eq!(factor, 1.0);
        assert_eq!(s.max_abs(), 0.0);
    }

    #[test]
    fn feature_scaled_per_channel() {
        let d = toy();
        let (s, factors) = d.feature_scaled_to(1.0);
        // Feature 0 max-abs is 5, feature 1 max-abs is 6.
        assert!((factors[0] - 0.2).abs() < 1e-12);
        assert!((factors[1] - 1.0 / 6.0).abs() < 1e-12);
        // After scaling, each feature's max-abs is 1.
        let mut worst0 = 0.0f64;
        for (row, _) in s.iter_labeled() {
            worst0 = worst0.max(row[0].abs());
        }
        assert!((worst0 - 1.0).abs() < 1e-12);
    }
}
