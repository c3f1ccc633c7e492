//! Exploration-layer errors.

use std::fmt;

/// What went wrong while setting up or running an exploration.
#[derive(Debug)]
pub enum ExploreError {
    /// The grid contains no valid design point.
    EmptyGrid {
        /// Human-readable description of the rejected bounds.
        detail: String,
    },
    /// A grid parameter is out of range (e.g. ρ outside `(0, 1]`).
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Why it was rejected.
        detail: String,
    },
    /// The cache directory could not be created or written.
    Cache {
        /// The failing path.
        path: std::path::PathBuf,
        /// Underlying I/O error text.
        detail: String,
    },
    /// Dataset-level failure propagated from training setup (distinct from
    /// per-point training failures, which are recorded in the outcome).
    Dataset {
        /// Underlying error text.
        detail: String,
    },
    /// The sweep was cooperatively interrupted. Every in-flight solve
    /// flushed its branch-and-bound checkpoint, so a re-run with the same
    /// state directory resumes losslessly.
    Interrupted,
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::EmptyGrid { detail } => {
                write!(f, "exploration grid is empty: {detail}")
            }
            ExploreError::InvalidParameter { name, detail } => {
                write!(f, "invalid parameter `{name}`: {detail}")
            }
            ExploreError::Cache { path, detail } => {
                write!(f, "result cache at {}: {detail}", path.display())
            }
            ExploreError::Dataset { detail } => write!(f, "dataset error: {detail}"),
            ExploreError::Interrupted => {
                write!(f, "sweep interrupted; checkpoints flushed, resumable")
            }
        }
    }
}

impl std::error::Error for ExploreError {}
