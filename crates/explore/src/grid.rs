//! The design space: `(family, K, F, ρ, rounding mode)` grids.

use crate::error::ExploreError;
use crate::Result;
use ldafp_fixedpoint::{QFormat, RoundingMode};
use ldafp_models::ModelFamily;

/// One candidate hardware/algorithm configuration.
///
/// The family picks the classifier datapath (LDA, naive Bayes tables, or
/// OS-ELM); `K` integer bits and `F` fraction bits fix the `QK.F` weight
/// grid (and therefore the datapath word length `K + F`); `ρ` is the
/// paper's confidence parameter in the chance-constrained Fisher objective
/// (repurposed as the wrap-budget fraction for naive Bayes and as the
/// certification confidence for OS-ELM); the rounding mode is the
/// datapath's quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Model family to train at this point.
    pub family: ModelFamily,
    /// Integer bits (including sign).
    pub k: u32,
    /// Fraction bits.
    pub f: u32,
    /// Confidence parameter ρ ∈ (0, 1].
    pub rho: f64,
    /// Datapath rounding mode.
    pub rounding: RoundingMode,
}

impl DesignPoint {
    /// Datapath word length `K + F`.
    #[must_use]
    pub fn word_length(&self) -> u32 {
        self.k + self.f
    }

    /// The point's weight format.
    ///
    /// # Errors
    ///
    /// Propagates [`QFormat::new`] bound checks.
    pub fn format(&self) -> ldafp_fixedpoint::Result<QFormat> {
        QFormat::new(self.k, self.f)
    }

    /// Stable display label, e.g. `Q2.4 rho=0.99 nearest-even` for LDA
    /// points and `naive-bayes Q2.4 rho=0.99 nearest-even` for the other
    /// families (LDA stays unprefixed so single-family reports read as
    /// before).
    #[must_use]
    pub fn label(&self) -> String {
        let prefix = match self.family {
            ModelFamily::Lda => String::new(),
            other => format!("{} ", other.name()),
        };
        format!(
            "{}Q{}.{} rho={} {}",
            prefix,
            self.k,
            self.f,
            self.rho,
            self.rounding.name()
        )
    }
}

/// Bounds of the design space to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreGrid {
    /// Smallest word length `K + F` to try.
    pub min_bits: u32,
    /// Largest word length to try.
    pub max_bits: u32,
    /// Largest integer-bit split `K` at each word length (`K` ranges over
    /// `1..=min(max_k, bits − 1)` so at least one fraction bit remains).
    pub max_k: u32,
    /// Confidence parameters to cross with every format.
    pub rhos: Vec<f64>,
    /// Rounding modes to cross with every format.
    pub roundings: Vec<RoundingMode>,
    /// Model families to cross with every format.
    pub families: Vec<ModelFamily>,
}

impl Default for ExploreGrid {
    fn default() -> Self {
        ExploreGrid {
            min_bits: 3,
            max_bits: 8,
            max_k: 2,
            rhos: vec![0.99],
            roundings: vec![RoundingMode::NearestEven],
            families: vec![ModelFamily::Lda],
        }
    }
}

impl ExploreGrid {
    /// Enumerates the grid as concrete design points, **sorted by word
    /// length ascending** (then `K`, then ρ, then rounding). The explorer
    /// deals points to its workers in this order, so cheap small-word-length
    /// solves start first, and reports them in it. Outcomes do not depend
    /// on the order: every point runs its own search.
    ///
    /// # Errors
    ///
    /// [`ExploreError::EmptyGrid`] when the bounds produce no point, and
    /// [`ExploreError::InvalidParameter`] for out-of-range `ρ` or bit
    /// bounds.
    pub fn design_points(&self) -> Result<Vec<DesignPoint>> {
        if self.min_bits < 2 || self.max_bits < self.min_bits {
            return Err(ExploreError::InvalidParameter {
                name: "bits",
                detail: format!(
                    "need 2 <= min_bits <= max_bits, got {}..={}",
                    self.min_bits, self.max_bits
                ),
            });
        }
        if self.max_k == 0 {
            return Err(ExploreError::InvalidParameter {
                name: "max_k",
                detail: "need at least one integer bit".to_string(),
            });
        }
        for &rho in &self.rhos {
            if !(rho > 0.0 && rho <= 1.0 && rho.is_finite()) {
                return Err(ExploreError::InvalidParameter {
                    name: "rho",
                    detail: format!("confidence must lie in (0, 1], got {rho}"),
                });
            }
        }
        if self.families.is_empty() {
            return Err(ExploreError::InvalidParameter {
                name: "families",
                detail: "need at least one model family".to_string(),
            });
        }
        let mut points = Vec::new();
        for bits in self.min_bits..=self.max_bits {
            for k in 1..=self.max_k.min(bits.saturating_sub(1)) {
                let f = bits - k;
                if QFormat::new(k, f).is_err() {
                    continue;
                }
                for &rho in &self.rhos {
                    for &rounding in &self.roundings {
                        for &family in &self.families {
                            points.push(DesignPoint {
                                family,
                                k,
                                f,
                                rho,
                                rounding,
                            });
                        }
                    }
                }
            }
        }
        if points.is_empty() {
            return Err(ExploreError::EmptyGrid {
                detail: format!(
                    "bits {}..={}, max_k {}, {} rho(s), {} rounding mode(s)",
                    self.min_bits,
                    self.max_bits,
                    self.max_k,
                    self.rhos.len(),
                    self.roundings.len()
                ),
            });
        }
        Ok(points)
    }

    /// Number of design points the grid enumerates (0 when invalid).
    #[must_use]
    pub fn len(&self) -> usize {
        self.design_points().map_or(0, |p| p.len())
    }

    /// Whether the grid enumerates no valid point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_enumerates_sorted_by_word_length() {
        let points = ExploreGrid::default().design_points().unwrap();
        assert!(!points.is_empty());
        let lengths: Vec<u32> = points.iter().map(DesignPoint::word_length).collect();
        let mut sorted = lengths.clone();
        sorted.sort_unstable();
        assert_eq!(lengths, sorted, "points must come smallest-format first");
        assert!(points.iter().all(|p| p.f >= 1 && p.k >= 1));
    }

    #[test]
    fn grid_crosses_rhos_and_roundings() {
        let grid = ExploreGrid {
            min_bits: 4,
            max_bits: 4,
            max_k: 2,
            rhos: vec![0.9, 0.99],
            roundings: vec![RoundingMode::NearestEven, RoundingMode::Floor],
            ..ExploreGrid::default()
        };
        // 2 formats (Q1.3, Q2.2) × 2 rhos × 2 roundings × 1 family.
        assert_eq!(grid.design_points().unwrap().len(), 8);
    }

    #[test]
    fn grid_crosses_families() {
        let grid = ExploreGrid {
            min_bits: 4,
            max_bits: 4,
            max_k: 1,
            families: vec![ModelFamily::Lda, ModelFamily::NaiveBayes],
            ..ExploreGrid::default()
        };
        let points = grid.design_points().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].family, ModelFamily::Lda);
        assert_eq!(points[1].family, ModelFamily::NaiveBayes);
        let empty = ExploreGrid {
            families: vec![],
            ..ExploreGrid::default()
        };
        assert!(matches!(
            empty.design_points(),
            Err(ExploreError::InvalidParameter {
                name: "families",
                ..
            })
        ));
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let grid = ExploreGrid {
            max_bits: 1,
            ..ExploreGrid::default()
        };
        assert!(matches!(
            grid.design_points(),
            Err(ExploreError::InvalidParameter { name: "bits", .. })
        ));
        let grid = ExploreGrid {
            rhos: vec![1.5],
            ..ExploreGrid::default()
        };
        assert!(matches!(
            grid.design_points(),
            Err(ExploreError::InvalidParameter { name: "rho", .. })
        ));
    }
}
