//! # ldafp-explore — design-space exploration for LDA-FP
//!
//! The paper is a *computer-aided design* flow: its headline results
//! (Figures 6/7) sweep word length and trade classification accuracy
//! against the quadratic power model. This crate is the subsystem that
//! runs that loop:
//!
//! * [`ExploreGrid`] enumerates design points `(K, F, ρ, rounding mode)`;
//! * [`Explorer`] fans the grid across a work-stealing `std::thread`
//!   worker pool, training every point through the recovering solver
//!   path and scoring it with held-out accuracy plus the `ldafp-hwmodel`
//!   energy/area/power models. Every point runs its own
//!   branch-and-bound search, so a sweep's outcomes are the same at any
//!   worker count;
//! * [`ResultCache`] persists outcomes on disk keyed by a content hash
//!   of (dataset, design point, trainer config), corruption-safe in the
//!   same style as the serving artifact loader, so repeated sweeps are
//!   incremental;
//! * [`pareto_frontier`] + [`report`] assemble the (error, power)
//!   frontier into Markdown and JSON reports shaped like the paper's
//!   Figure 6/7 curves.
//!
//! The CLI exposes all of it as `ldafp explore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod grid;
pub mod journal;
pub mod pareto;
pub mod report;

pub use cache::{config_digest, dataset_digest, ResultCache, CACHE_FORMAT_VERSION};
pub use engine::{
    holdout_split, DesignOutcome, ExploreConfig, ExploreSummary, Explorer, TrainedPointMetrics,
};
pub use error::ExploreError;
pub use grid::{DesignPoint, ExploreGrid};
pub use journal::{read_journal, SweepJournal, JOURNAL_FILE};
pub use pareto::pareto_frontier;
pub use report::{json_report, markdown_report, pareto_report};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ExploreError>;
