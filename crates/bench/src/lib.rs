//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each `src/bin/*` binary is a thin wrapper over a runner in
//! [`experiments`]; the runners are library functions so the integration
//! test suite can execute reduced versions of every experiment.
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Table 1 (synthetic errors/runtimes) | [`experiments::run_synthetic_sweep`] | `table1` |
//! | Figure 4 (synthetic weights vs word length) | same sweep | `fig4` |
//! | Table 2 (BCI 5-fold CV) | [`experiments::run_table2`] | `table2` |
//! | Figure 2 (boundary robustness) | [`experiments::run_fig2`] | `fig2` |
//! | §5 power claims | [`experiments::run_power`] | `power` |
//! | Ablation (our addition) | [`experiments::run_ablation`] | `ablation` |
//! | Accuracy–power tradeoff (our addition) | [`experiments::run_tradeoff`] | `tradeoff` |
//!
//! The crate's `tests/*_gate.rs` targets hold the workspace's four timing
//! gates (observability overhead, parallel B&B speedup, binary-vs-JSON
//! serving throughput, MAC-kernel speedup). They are ignored in debug
//! builds and run with `cargo test --release -p ldafp-bench`; timed
//! trajectories live in the `benchmark/` ledger.

pub mod experiments;
pub mod table;

/// Returns `true` when `--quick` is among the process arguments — every
/// binary supports a reduced-budget mode for smoke testing.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}
