//! Word-length optimization — the paper's stated future work (§3: "the
//! problem of word length optimization should be considered as a separate
//! topic for our future research").
//!
//! Given a target accuracy, find the smallest word length whose trained
//! LDA-FP classifier meets it. Because power grows quadratically with word
//! length, this search converts an accuracy budget directly into a power
//! budget.
//!
//! Classification error is not guaranteed monotone in word length (the
//! paper notes this about its own Table 2), so the search is a linear scan
//! from the smallest candidate upward — each step is itself a full LDA-FP
//! training run, which dominates the cost anyway.
//!
//! Sweeping a whole range (the data behind accuracy-vs-power trade-off
//! curves) is the `ldafp-explore` engine's job: it trains every design
//! point with its own branch-and-bound search, in parallel, and caches the
//! results on disk. [`SweepPoint`] is the row type of that sweep's
//! word-length view.

use crate::{eval, LdaFpModel, LdaFpTrainer, Result};
use ldafp_datasets::BinaryDataset;
use ldafp_fixedpoint::QFormat;

/// Search-space bounds for the word-length optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordLengthSearch {
    /// Smallest word length to try.
    pub min_bits: u32,
    /// Largest word length to try.
    pub max_bits: u32,
    /// Largest integer-bit split to consider at each word length.
    pub max_k: u32,
}

impl Default for WordLengthSearch {
    fn default() -> Self {
        WordLengthSearch {
            min_bits: 3,
            max_bits: 16,
            max_k: 4,
        }
    }
}

/// Result of a word-length optimization.
#[derive(Debug, Clone)]
pub struct WordLengthOutcome {
    /// The minimal word length found.
    pub word_length: u32,
    /// The format chosen at that word length.
    pub format: QFormat,
    /// The trained model.
    pub model: LdaFpModel,
    /// Validation error achieved.
    pub validation_error: f64,
}

/// One row of a word-length sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Word length.
    pub word_length: u32,
    /// Chosen format (as text, e.g. `"Q2.4"`), or `-` when training failed.
    pub format: String,
    /// Validation error (0.5 when training failed).
    pub validation_error: f64,
}

/// Finds the smallest word length whose LDA-FP classifier achieves
/// `target_error` on `validation`.
///
/// Returns `Ok(None)` when no word length in the search range reaches the
/// target.
///
/// # Errors
///
/// Training failures at individual word lengths are treated as "target not
/// met" rather than hard errors (a 3-bit grid may legitimately erase all
/// class separation); only dataset-level failures propagate.
pub fn minimal_word_length(
    trainer: &LdaFpTrainer,
    train: &BinaryDataset,
    validation: &BinaryDataset,
    target_error: f64,
    search: &WordLengthSearch,
) -> Result<Option<WordLengthOutcome>> {
    for bits in search.min_bits..=search.max_bits {
        if let Ok((model, format)) = trainer.train_auto(train, bits, search.max_k) {
            let err = eval::error_rate(model.classifier(), validation);
            if err <= target_error {
                return Ok(Some(WordLengthOutcome {
                    word_length: bits,
                    format,
                    model,
                    validation_error: err,
                }));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LdaFpConfig;
    use ldafp_linalg::Matrix;
    use ldafp_stats::Rng;

    fn easy_data(n: usize, offset: f64, seed: u64) -> BinaryDataset {
        // Deterministic seeded jitter.
        let mut rng = Rng::new(seed);
        let mut next = move || rng.range_f64(-1.0..1.0);
        let a = Matrix::from_fn(n, 2, |_, j| {
            if j == 0 {
                -offset + 0.1 * next()
            } else {
                0.2 * next()
            }
        });
        let b = Matrix::from_fn(n, 2, |_, j| {
            if j == 0 {
                offset + 0.1 * next()
            } else {
                0.2 * next()
            }
        });
        BinaryDataset::new(a, b).expect("non-empty classes")
    }

    #[test]
    fn finds_small_word_length_on_easy_data() {
        let train = easy_data(30, 0.4, 1);
        let val = easy_data(30, 0.4, 2);
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let out = minimal_word_length(
            &trainer,
            &train,
            &val,
            0.05,
            &WordLengthSearch {
                min_bits: 3,
                max_bits: 10,
                max_k: 2,
            },
        )
        .unwrap()
        .expect("easy data must be solvable");
        assert!(out.word_length <= 5, "needed {} bits", out.word_length);
        assert!(out.validation_error <= 0.05);
        assert_eq!(out.format.word_length(), out.word_length);
    }

    #[test]
    fn unreachable_target_returns_none() {
        // Heavily overlapping classes and a large validation set: zero
        // validation error is statistically impossible at any word length.
        let train = easy_data(60, 0.02, 3);
        let val = easy_data(120, 0.02, 4);
        let trainer = LdaFpTrainer::new(LdaFpConfig::fast());
        let out = minimal_word_length(
            &trainer,
            &train,
            &val,
            0.0,
            &WordLengthSearch {
                min_bits: 3,
                max_bits: 5,
                max_k: 2,
            },
        )
        .unwrap();
        assert!(out.is_none());
    }
}
